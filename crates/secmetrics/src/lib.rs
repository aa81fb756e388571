//! Security metrics for fabrication-time Trojan insertion, following
//! Knechtel et al. (ISPD'22) as adopted by GDSII-Guard §II-A, plus an
//! A2-style Trojan-insertion attack simulator used to validate them.
//!
//! The pipeline is: per-critical-cell **exploitable distance** from timing
//! slack ([`distance`]), **exploitable region** extraction over the free
//! sites within those distances ([`regions`]), the two sub-metrics
//! `ERsites` / `ERtracks`, the normalized `Security(L)` score, and the
//! attack simulator ([`attack`]).
//!
//! # Examples
//!
//! ```
//! use netlist::bench;
//! use tech::Technology;
//! use layout::Layout;
//! use secmetrics::{analyze_regions, THRESH_ER};
//!
//! let tech = Technology::nangate45_like();
//! let design = bench::generate(&bench::tiny_spec(), &tech);
//! let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
//! place::global_place(&mut layout, &tech, 1);
//! let routing = route::route_design(&layout, &tech);
//! let timing = sta::analyze(&layout, &routing, &tech);
//! let regions = analyze_regions(&layout, &routing, &timing, &tech, THRESH_ER);
//! assert!(regions.er_sites > 0, "a 60%-utilized baseline is exploitable");
//! ```

pub mod attack;
pub mod distance;
pub mod regions;

pub use attack::{simulate_attack, AttackOutcome, TrojanSpec};
pub use distance::{exploitable_distance_dbu, exploitable_distances};
pub use regions::{analyze_regions, security_score, Region, RegionAnalysis, THRESH_ER};

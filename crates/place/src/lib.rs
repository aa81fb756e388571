//! Placement engines: an initial global placer, a wirelength-driven
//! refinement pass, and the blockage-aware incremental *ECO placer* that the
//! GDSII-Guard LDA operator drives.
//!
//! The paper uses Cadence Innovus for these steps; this crate provides the
//! same contract (see `DESIGN.md` §1): legalized row/site placement, a
//! wirelength objective, partial placement blockages as density upper
//! bounds, and incremental operation that leaves untouched cells in place.
//!
//! # Examples
//!
//! ```
//! use netlist::bench;
//! use tech::Technology;
//! use layout::Layout;
//!
//! let tech = Technology::nangate45_like();
//! let design = bench::generate(&bench::tiny_spec(), &tech);
//! let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
//! place::global_place(&mut layout, &tech, 1);
//! place::refine_wirelength(&mut layout, &tech, 2, 1);
//! assert!(layout.check_consistency(&tech).is_ok());
//! ```

mod eco;
mod global;
mod wirelength;

pub use eco::{eco_place, EcoPlaceStats};
pub use global::{bank_cells, global_place};
pub use wirelength::{hpwl_total, hpwl_um, net_bbox, refine_wirelength};

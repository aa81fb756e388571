//! **GDSII-Guard**: an ECO framework hardening finalized physical layouts
//! against fabrication-time hardware-Trojan insertion while co-optimizing
//! timing — a from-scratch Rust reproduction of the DAC 2023 paper
//! *"GDSII-Guard: ECO Anti-Trojan Optimization with Exploratory
//! Timing-Security Trade-Offs"* (Wei, Zhang, Luo).
//!
//! The framework (paper Fig. 2):
//!
//! 1. [`pipeline`] — implement the baseline layout (place, route, STA,
//!    power, security analysis) and re-evaluate modified layouts.
//! 2. [`preprocess`] — lock security-critical cell assets so no operator
//!    disturbs them.
//! 3. ECO operators: [`cell_shift`] (Algorithm 1), [`lda`] (Algorithm 2 —
//!    dynamic local density adjustment), and [`rws`] (routing width
//!    scaling via non-default rules).
//! 4. [`flow`] — the composed security flow `f(L_base; x)` over the
//!    Table-I parameter space.
//! 5. [`nsga2`] — the multi-objective (security, timing) exploration with
//!    DRC and power constraints, yielding Pareto-optimal hardened layouts.
//! 6. [`serve`] — exploration-as-a-service: the multi-tenant job daemon
//!    behind `ggd serve` (queued jobs with priorities, checkpoint-backed
//!    pause/resume, streaming progress over a Unix-domain socket).
//!
//! # Examples
//!
//! ```no_run
//! use gdsii_guard::prelude::*;
//! use netlist::bench;
//! use tech::Technology;
//!
//! # fn main() -> Result<(), gdsii_guard::Error> {
//! let tech = Technology::nangate45_like();
//! let spec = bench::spec_by_name("PRESENT").unwrap();
//! let base = implement_baseline(&spec, &tech)?;
//! let result = explore(&base, &tech, &Nsga2Params::default());
//! for point in result.pareto_front() {
//!     println!("security {:.3} tns {:.1}", point.metrics.security, point.metrics.tns_ps);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Telemetry
//!
//! The whole workspace reports through the dependency-free [`obs`]
//! telemetry crate (re-exported here): phase spans, counters, and
//! histograms, all behind a single atomic off-switch that keeps the
//! disabled path effectively free. Enable with [`obs::set_enabled`]
//! (metrics + spans) and pick per-topic trace streams with the `GG_TRACE`
//! environment variable (e.g. `GG_TRACE=route,lda`).

// The evaluation pipeline must never bring the exploration process down:
// failures surface as typed errors or flow through the sandbox degrade
// chain (see `sandbox`), so bare `unwrap()` is denied outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cell_shift;
pub mod checkpoint;
mod error;
pub mod flow;
pub mod lda;
pub mod nsga2;
pub mod pipeline;
pub mod preprocess;
pub mod rws;
pub mod sandbox;
pub mod serve;

pub use checkpoint::Checkpoint;
pub use error::Error;
pub use flow::{FlowConfig, FlowMetrics, FlowRun, OpSelect};
pub use nsga2::{
    explore, explore_with_engine, EvalPoint, Exploration, ExploreOptions, ExploreResult, Genome,
    Nsga2Params, Nsga2ParamsBuilder, QuarantineEntry,
};
pub use pipeline::{EvalEngine, Snapshot};
pub use sandbox::{EvalFailure, EvalStatus};

/// The workspace-wide telemetry subsystem (spans, counters, histograms).
pub use obs;

/// The blessed public surface in one import: the baseline flow, the
/// incremental evaluation engine, the NSGA-II exploration, and the
/// telemetry handles every binary wants.
///
/// ```no_run
/// use gdsii_guard::prelude::*;
/// ```
pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::error::Error;
    pub use crate::flow::{FlowConfig, FlowMetrics, FlowRun, OpSelect};
    pub use crate::nsga2::{
        explore, explore_with_engine, EvalPoint, Exploration, ExploreOptions, ExploreResult,
        Genome, Nsga2Params, Nsga2ParamsBuilder, QuarantineEntry,
    };
    pub use crate::pipeline::{evaluate, implement_baseline, EvalEngine, Snapshot};
    pub use crate::sandbox::{EvalFailure, EvalStatus};
    pub use crate::serve;
    pub use obs;
}

/// Default hard constraint on DRC violations (`N_DRC` in §IV-A).
pub const N_DRC: u32 = 20;

/// Default power budget multiplier over baseline (`β_power` in §IV-A).
pub const BETA_POWER: f64 = 1.2;

/// Default weight between free sites and free tracks in the security
/// objective (`α` in §IV-A).
pub const ALPHA: f64 = 0.5;

//! Capacitated global router over the ten-metal-layer stack, with
//! congestion-aware layer assignment, NDR width scaling, overflow-based DRC
//! accounting, and RC extraction for timing.
//!
//! The core area is tiled into *gcells*; every metal layer contributes a
//! per-gcell track capacity derived from its pitch and the active
//! [`tech::RouteRule`] width scale. Nets are decomposed into minimum
//! spanning tree edges, pattern-routed as straight runs and L-shapes, and
//! then refined by maze rip-up-and-reroute; each committed segment
//! consumes `scale_M[layer]` tracks per gcell it crosses. The two
//! quantities the security analysis needs fall out directly:
//! per-gcell *free tracks* (for ERtracks) and overflow counts (for DRC).
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
//! let routing = route::route_design(&layout, &tech);
//! assert!(routing.total_wirelength_um() > 0.0);
//! ```

mod grid;
mod router;

pub use grid::{OverflowSet, PagedPlane, RouteGrid, GCELL_H_ROWS, GCELL_W_SITES, QUANTA_PER_TRACK};
pub use router::{
    dirty_between, finalize_route, plan_route, plan_update, route_design, DirtySet, NetRc,
    RoutePlan, RouteSeg, RoutingState,
};

/// No-op: Phase B is serial and takes no thread budget. Kept only because
/// the standalone `perfbench` harness still calls it; it goes when that
/// call does.
#[doc(hidden)]
pub fn set_parallelism(_threads: usize) {}

/// Always 1: Phase B is serial. Kept only because the standalone
/// `perfbench` harness still calls it; it goes when that call does.
#[doc(hidden)]
pub fn budget_for_workers(_workers: usize) -> usize {
    1
}

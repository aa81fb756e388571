//! Power analysis: leakage, internal, and switching components.
//!
//! The paper constrains total power to `β_power = 1.2×` the baseline. This
//! crate computes the three Innovus-style components: per-cell leakage,
//! activity-weighted internal energy, and switching power over the
//! extracted net capacitances (wire plus sink pins), with a simple clock
//! tree estimate for the sequential clock load.
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
//! let p = power::analyze(&layout, &routing, &tech);
//! assert!(p.total_mw() > 0.0);
//! assert!(p.leakage_mw > 0.0 && p.switching_mw > 0.0);
//! ```

use layout::Layout;
use netlist::Sink;
use route::RoutingState;
use tech::Technology;

/// Supply voltage in volts (Nangate45 nominal 1.1 V).
pub const VDD: f64 = 1.1;

/// Default signal-net toggle activity (fraction of cycles a net switches).
pub const DEFAULT_ACTIVITY: f64 = 0.15;

/// Estimated clock-tree wire capacitance per sequential sink, in fF
/// (local clock routing is outside the signal router).
pub const CLOCK_WIRE_CAP_PER_SINK_FF: f64 = 1.2;

/// Power report in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Static leakage.
    pub leakage_mw: f64,
    /// Cell-internal dynamic power.
    pub internal_mw: f64,
    /// Net switching power (wire + pin capacitance), including the clock.
    pub switching_mw: f64,
}

impl PowerReport {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.leakage_mw + self.internal_mw + self.switching_mw
    }
}

/// The routing-independent part of a design's power: leakage, internal,
/// and clock-tree terms depend only on the cell list and constraints, so
/// they are computed once and reused across every incremental
/// re-evaluation. Only the per-net switching sum reads the router's
/// extracted capacitances.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Clock frequency in GHz (fJ · GHz = µW).
    f_ghz: f64,
    leakage_nw: f64,
    internal_uw: f64,
    /// Total clock-network capacitance (flop clock pins + tree wire), fF.
    clock_cap_ff: f64,
}

impl PowerModel {
    /// Builds the model at [`DEFAULT_ACTIVITY`].
    ///
    /// # Panics
    ///
    /// Panics if the clock period is non-positive.
    pub fn new(layout: &Layout, tech: &Technology) -> Self {
        let design = layout.design();
        let period_ps = design.constraints.clock_period;
        assert!(period_ps > 0.0, "clock period must be positive");
        let f_ghz = 1_000.0 / period_ps;

        let mut leakage_nw = 0.0;
        let mut internal_uw = 0.0;
        let mut flop_count = 0usize;
        for cell in &design.cells {
            let kind = tech.library.kind(cell.kind);
            leakage_nw += kind.leakage;
            if kind.is_sequential() {
                flop_count += 1;
                // Flops toggle their internals every cycle (clock activity 1).
                internal_uw += kind.internal_energy * f_ghz;
            } else {
                internal_uw += kind.internal_energy * f_ghz * DEFAULT_ACTIVITY;
            }
        }
        // Clock network: every flop clock pin plus distributed tree wire,
        // toggling every cycle.
        let clock_cap_ff = flop_count as f64
            * (CLOCK_WIRE_CAP_PER_SINK_FF
                + tech
                    .library
                    .kind_by_name("DFF_X1")
                    .map(|k| tech.library.kind(k).input_cap)
                    .unwrap_or(1.5));

        Self {
            f_ghz,
            leakage_nw,
            internal_uw,
            clock_cap_ff,
        }
    }
}

/// Analyzes the power of a routed layout at the design's clock constraint
/// with the default activity factor.
///
/// # Panics
///
/// Panics if the clock period is non-positive.
pub fn analyze(layout: &Layout, routing: &RoutingState, tech: &Technology) -> PowerReport {
    analyze_with_model(&PowerModel::new(layout, tech), layout, routing, tech)
}

/// Analyzes power against a prebuilt [`PowerModel`], recomputing only the
/// per-net switching sum. With a model built for the same design this is
/// bit-identical to [`analyze`] (which routes through here).
pub fn analyze_with_model(
    model: &PowerModel,
    layout: &Layout,
    routing: &RoutingState,
    tech: &Technology,
) -> PowerReport {
    let design = layout.design();
    let clock = design.clock;
    let f_ghz = model.f_ghz;

    let mut switching_uw = 0.0;
    let e_factor = 0.5 * VDD * VDD; // fJ per fF per transition
    for (nid, net) in design.nets_iter() {
        if Some(nid) == clock {
            continue;
        }
        let mut c = routing.net_rc(nid).cap;
        for s in &net.sinks {
            if let Sink::CellInput { cell, .. } = s {
                c += tech.library.kind(design.cell(*cell).kind).input_cap;
            }
        }
        switching_uw += e_factor * c * f_ghz * DEFAULT_ACTIVITY;
    }
    switching_uw += e_factor * model.clock_cap_ff * f_ghz;

    PowerReport {
        leakage_mw: model.leakage_nw * 1e-6,
        internal_mw: model.internal_uw * 1e-3,
        switching_mw: switching_uw * 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn snapshot(util: f64) -> (Technology, Layout, RoutingState) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, util);
        place::global_place(&mut layout, &tech, 4);
        let routing = route::route_design(&layout, &tech);
        (tech, layout, routing)
    }

    #[test]
    fn components_are_positive() {
        let (tech, layout, routing) = snapshot(0.6);
        let p = analyze(&layout, &routing, &tech);
        assert!(p.leakage_mw > 0.0);
        assert!(p.internal_mw > 0.0);
        assert!(p.switching_mw > 0.0);
        assert!((p.total_mw() - (p.leakage_mw + p.internal_mw + p.switching_mw)).abs() < 1e-12);
    }

    #[test]
    fn adding_cells_adds_power() {
        // A second design with more cells must burn more leakage.
        let tech = Technology::nangate45_like();
        let mut big_spec = bench::tiny_spec();
        big_spec.target_cells *= 2;
        let small = bench::generate(&bench::tiny_spec(), &tech);
        let big = bench::generate(&big_spec, &tech);
        let mut ls = Layout::empty_floorplan(small, &tech, 0.6);
        let mut lb = Layout::empty_floorplan(big, &tech, 0.6);
        place::global_place(&mut ls, &tech, 1);
        place::global_place(&mut lb, &tech, 1);
        let ps = analyze(&ls, &route::route_design(&ls, &tech), &tech);
        let pb = analyze(&lb, &route::route_design(&lb, &tech), &tech);
        assert!(pb.leakage_mw > ps.leakage_mw);
        assert!(pb.total_mw() > ps.total_mw());
    }

    #[test]
    fn prebuilt_model_is_exact() {
        let (tech, layout, routing) = snapshot(0.6);
        let full = analyze(&layout, &routing, &tech);
        let model = PowerModel::new(&layout, &tech);
        let inc = analyze_with_model(&model, &layout, &routing, &tech);
        assert_eq!(full, inc, "model path must be bit-identical");
    }
}

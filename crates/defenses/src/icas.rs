//! ICAS-style defense — undirected CAD parameter tuning (Trippel et al.,
//! IEEE S&P 2020).
//!
//! ICAS itself is an estimation framework; as a defense the paper uses its
//! recommended knob, re-running global placement and routing at higher
//! core density so less contiguous free space survives. The approach is
//! security-agnostic (no knowledge of the critical cells) and pays with
//! the longest runtime of all compared defenses: every candidate density
//! is a full re-place-and-route.

use gdsii_guard::pipeline::place_design;
use gdsii_guard::prelude::*;
use tech::Technology;

/// Utilization increments over the baseline swept by the tuning loop.
pub const DENSITY_SWEEP_DELTA: [f64; 3] = [0.06, 0.10, 0.14];

/// Maximum tolerated DRC increase over the baseline before a density
/// candidate is rejected as unroutable.
pub const MAX_DRC_INCREASE: u32 = 30;

/// Applies the ICAS density-tuning defense: re-implements the design at
/// each sweep density (full global P&R) and keeps the densest candidate
/// that still routes acceptably. Falls back to the baseline if none does.
pub fn apply_icas(base: &Snapshot, tech: &Technology) -> Snapshot {
    let design = base.layout.design();
    let base_util = base.layout.utilization();
    let mut best: Option<Snapshot> = None;
    let mut least_violating: Option<Snapshot> = None;
    for &delta in DENSITY_SWEEP_DELTA.iter() {
        let util = (base_util + delta).min(0.88);
        let layout = place_design(netlist::Design::clone(design), tech, util, 0x1CA5);
        let snap = evaluate(layout, tech).expect("a fresh placement is consistent");
        if snap.drc <= base.drc + MAX_DRC_INCREASE {
            best = Some(snap); // sweep is ascending: densest acceptable wins
        } else if least_violating.as_ref().is_none_or(|s| snap.drc < s.drc) {
            // Keep the least-violating densified candidate: an undirected
            // tuner ships the best result it can get, then hand-fixes the
            // remaining violations (the paper tolerates minor DRC/power
            // degradation for exactly this reason).
            least_violating = Some(snap);
        }
    }
    best.or(least_violating).unwrap_or_else(|| base.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsii_guard::pipeline::implement_baseline;
    use netlist::bench;

    #[test]
    fn icas_raises_density_and_reduces_free_space() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let hardened = apply_icas(&base, &tech);
        assert!(
            hardened.layout.utilization() > base.layout.utilization() + 0.05,
            "ICAS should densify: {} vs {}",
            hardened.layout.utilization(),
            base.layout.utilization()
        );
        let sec = secmetrics::security_score(&hardened.security, &base.security, 0.5);
        assert!(sec < 0.9, "denser placement must reduce free space: {sec}");
        // Undirected tuning cannot reach fill-based coverage.
        assert!(sec > 0.005, "ICAS does not eliminate everything: {sec}");
    }
}

//! BISA — built-in self-authentication (Xiao & Tehranipoor, HOST 2013).
//!
//! Fills *every* unused placement site in the layout with functional logic
//! wired into a self-authentication chain, leaving an attacker no room to
//! place Trojan gates anywhere. The price, which Table II quantifies: the
//! added gates burn leakage and switching power everywhere, and their
//! chain wiring congests routing, hurting timing and design rules.

use gdsii_guard::prelude::*;
use geom::Interval;
use tech::Technology;

use crate::fill::fill_runs;

/// Applies BISA to a baseline snapshot and re-analyzes the result.
pub fn apply_bisa(base: &Snapshot, tech: &Technology) -> Snapshot {
    let layout = &base.layout;
    let runs: Vec<(u32, Interval)> = (0..layout.floorplan().rows())
        .flat_map(|r| {
            layout
                .occupancy()
                .empty_runs(r)
                .into_iter()
                .map(move |iv| (r, iv))
        })
        .collect();
    let (filled, _added) = fill_runs(layout, tech, &runs);
    evaluate(filled, tech).expect("fill keeps the layout consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsii_guard::pipeline::implement_baseline;
    use netlist::bench;

    #[test]
    fn bisa_crushes_security_but_costs_power() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let hardened = apply_bisa(&base, &tech);
        let sec = secmetrics::security_score(&hardened.security, &base.security, 0.5);
        assert!(
            sec < 0.12,
            "BISA should remove nearly all free space: {sec}"
        );
        assert!(
            hardened.power_mw() > base.power_mw() * 1.1,
            "fill logic must cost notable power: {} vs {}",
            hardened.power_mw(),
            base.power_mw()
        );
        // Utilization is now essentially full.
        assert!(hardened.layout.utilization() > 0.95);
    }
}

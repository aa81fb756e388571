//! Quickstart: implement a baseline layout, harden it with one
//! GDSII-Guard flow configuration, and compare the security and design
//! metrics before and after.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gdsii_guard::prelude::*;
use tech::Technology;

fn main() {
    let tech = Technology::nangate45_like();
    // PRESENT: the smallest crypto core in the benchmark suite.
    let spec = netlist::bench::spec_by_name("PRESENT").expect("known benchmark");
    println!(
        "implementing {} ({} cells, clock {:.0} ps)…",
        spec.name,
        spec.target_cells,
        spec.clock_period()
    );
    let base = implement_baseline(&spec, &tech).unwrap();
    println!(
        "baseline: {} exploitable sites in {} regions, {:.0} free tracks, \
         TNS {:.1} ps, power {:.3} mW, {} DRC",
        base.security.er_sites,
        base.security.regions.len(),
        base.security.er_tracks,
        base.tns_ps(),
        base.power_mw(),
        base.drc
    );

    // Harden with the default Cell Shift configuration (PRESENT is a
    // timing-loose design — exactly CS territory, §III-B1).
    let cfg = FlowConfig::cell_shift_default();
    let metrics = FlowRun::new(&base, &tech, &cfg).metrics().unwrap();
    println!(
        "hardened: security {:.3} (baseline = 1.0), {} sites / {:.0} tracks remain, \
         TNS {:.1} ps, power {:.3} mW, {} DRC",
        metrics.security,
        metrics.er_sites,
        metrics.er_tracks,
        metrics.tns_ps,
        metrics.power_mw,
        metrics.drc
    );
    println!(
        "risk of Trojan insertion reduced by {:.1} %",
        (1.0 - metrics.security) * 100.0
    );
}

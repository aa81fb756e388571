//! Full five-way defense comparison on the two smallest real benchmarks —
//! a fast, deterministic slice of the Fig. 4 / Table II sweep that runs in
//! the test suite.

use gdsii_guard::prelude::*;
use netlist::bench;
use secmetrics::security_score;
use tech::Technology;

#[test]
fn present_defense_sweep_has_paper_shape() {
    let tech = Technology::nangate45_like();
    let spec = bench::spec_by_name("PRESENT").expect("known design");
    let base = implement_baseline(&spec, &tech).unwrap();

    let bisa = defenses::apply_bisa(&base, &tech);
    let ba = defenses::apply_ba(&base, &tech);
    let gg = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
        .metrics()
        .unwrap();

    let sec = |s: &gdsii_guard::Snapshot| security_score(&s.security, &base.security, 0.5);

    // Fill-based defenses crush the metric…
    assert!(sec(&bisa) < 0.05, "BISA {}", sec(&bisa));
    assert!(sec(&ba) < 0.30, "Ba {}", sec(&ba));
    // …but pay power; GDSII-Guard stays within the paper's power bound.
    assert!(bisa.power_mw() > base.power_mw() * 1.05);
    assert!(gg.power_mw <= 1.2 * base.power_mw());
    // GDSII-Guard improves security markedly without breaking timing.
    assert!(gg.security < 0.5, "GG {}", gg.security);
    assert!(gg.tns_ps >= base.tns_ps() - 50.0, "GG TNS {}", gg.tns_ps);
}

#[test]
fn openmsp430_1_loose_design_prefers_cell_shift() {
    let tech = Technology::nangate45_like();
    let spec = bench::spec_by_name("openMSP430_1").expect("known design");
    let base = implement_baseline(&spec, &tech).unwrap();
    assert_eq!(base.tns_ps(), 0.0, "openMSP430_1 closes timing at baseline");
    let cs = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
        .metrics()
        .unwrap();
    let lda = FlowRun::new(&base, &tech, &FlowConfig::lda_default())
        .metrics()
        .unwrap();
    assert!(
        cs.security < lda.security,
        "loose design: CS {} should beat LDA {}",
        cs.security,
        lda.security
    );
    assert_eq!(cs.tns_ps, 0.0, "CS must not break a timing-clean design");
}

//! Attack simulation: attempt the A2-style Trojan battery against the
//! baseline layout and against a GDSII-Guard-hardened layout of the same
//! design — the validation loop behind the exploitable-region metrics.
//!
//! ```text
//! cargo run --release --example attack_simulation
//! ```

use gdsii_guard::prelude::*;
use secmetrics::{simulate_attack, TrojanSpec};
use tech::Technology;

fn report(label: &str, analysis: &secmetrics::RegionAnalysis, tech: &Technology) {
    println!(
        "\n{label}: {} exploitable sites in {} regions (largest {})",
        analysis.er_sites,
        analysis.regions.len(),
        analysis.regions.first().map_or(0, |r| r.sites)
    );
    for spec in TrojanSpec::battery() {
        let outcome = simulate_attack(analysis, tech, &spec);
        println!(
            "  {:<22} needs {:>3} sites + {:>4.0} tracks → {}",
            spec.name,
            spec.total_sites(tech),
            spec.min_free_tracks,
            if outcome.success {
                format!(
                    "INSERTED into region #{} ({} gates placed)",
                    outcome.region_index.expect("success has a region"),
                    outcome.gates_placed
                )
            } else {
                format!(
                    "DEFEATED ({} of {} gates fit)",
                    outcome.gates_placed,
                    spec.gates.len()
                )
            }
        );
    }
}

fn main() {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::spec_by_name("MISTY").expect("known benchmark");
    println!(
        "implementing {} and attacking it before and after hardening…",
        spec.name
    );
    let base = implement_baseline(&spec, &tech).unwrap();
    report("baseline layout", &base.security, &tech);

    let hardened = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
        .snapshot()
        .unwrap();
    report("GDSII-Guard hardened layout", &hardened.security, &tech);

    println!(
        "\ntiming cost of the defense: TNS {:.1} → {:.1} ps, power {:.3} → {:.3} mW",
        base.tns_ps(),
        hardened.tns_ps(),
        base.power_mw(),
        hardened.power_mw()
    );
}

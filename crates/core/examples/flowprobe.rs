use gdsii_guard::prelude::*;
use netlist::bench;
use tech::Technology;

fn main() {
    let tech = Technology::nangate45_like();
    println!(
        "{:<14} {:>8} | CS: {:>6} {:>8} | LDA8x2: {:>6} {:>8}",
        "design", "base_er", "sec", "tns", "sec", "tns"
    );
    for spec in bench::all_specs() {
        let base = implement_baseline(&spec, &tech).unwrap();
        let cs = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
            .metrics()
            .unwrap();
        let lda = FlowRun::new(
            &base,
            &tech,
            &FlowConfig {
                op: OpSelect::Lda { n: 8, n_iter: 2 },
                scales: [1.0; 10],
            },
        )
        .metrics()
        .unwrap();
        println!(
            "{:<14} {:>8} | {:>10.3} {:>8.0} | {:>10.3} {:>8.0}",
            spec.name, base.security.er_sites, cs.security, cs.tns_ps, lda.security, lda.tns_ps
        );
    }
}

//! Design-choice ablations flagged in DESIGN.md §4:
//!
//! 1. CS vs LDA on loose- vs tight-timing designs (§III-B's operator
//!    pairing claim).
//! 2. RWS on/off: the extra free-track reduction beyond placement.
//! 3. NSGA-II vs random search at the same evaluation budget.
//! 4. `Thresh_ER` sensitivity of the ERsites metric.

use gdsii_guard::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tech::Technology;

fn main() {
    let tech = Technology::nangate45_like();

    println!("=== Ablation 1: operator pairing (CS vs LDA) ===");
    println!(
        "{:<14} {:>7} | {:>9} {:>9} | {:>9} {:>9}",
        "design", "timing", "CS sec", "CS ΔTNS", "LDA sec", "LDA ΔTNS"
    );
    for name in ["Camellia", "MISTY", "CAST", "openMSP430_2"] {
        let spec = netlist::bench::spec_by_name(name).expect("known");
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
        let timing = if spec.period_factor > 1.0 {
            "loose"
        } else {
            "tight"
        };
        println!(
            "{:<14} {:>7} | {:>9.3} {:>9.0} | {:>9.3} {:>9.0}",
            name,
            timing,
            cs.security,
            cs.tns_ps - base.tns_ps(),
            lda.security,
            lda.tns_ps - base.tns_ps()
        );
    }

    println!("\n=== Ablation 2: Routing Width Scaling on/off (MISTY, CS placement) ===");
    let spec = netlist::bench::spec_by_name("MISTY").expect("known");
    let base = implement_baseline(&spec, &tech).unwrap();
    let plain = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
        .metrics()
        .unwrap();
    let mut cfg = FlowConfig::cell_shift_default();
    cfg.scales = [1.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.2, 1.2, 1.2, 1.2];
    let rws = FlowRun::new(&base, &tech, &cfg).metrics().unwrap();
    println!(
        "RWS off: sites {:>6} tracks {:>8.0} tns {:>7.0}",
        plain.er_sites, plain.er_tracks, plain.tns_ps
    );
    println!(
        "RWS on : sites {:>6} tracks {:>8.0} tns {:>7.0}",
        rws.er_sites, rws.er_tracks, rws.tns_ps
    );
    println!(
        "tracks reduced a further {:.1} % at equal placement (paper: ~15 % extra)",
        (1.0 - rws.er_tracks / plain.er_tracks.max(1e-9)) * 100.0
    );

    println!("\n=== Ablation 3: NSGA-II vs random search (PRESENT, equal budget) ===");
    let spec = netlist::bench::spec_by_name("PRESENT").expect("known");
    let base = implement_baseline(&spec, &tech).unwrap();
    let params = Nsga2Params {
        population: 10,
        generations: 3,
        threads: 8,
        ..Nsga2Params::default()
    };
    let ga = explore(&base, &tech, &params);
    let budget = ga.points.len();
    let mut rng = StdRng::seed_from_u64(0x4A2D);
    let mut random_best = f64::INFINITY;
    let mut random_feasible = 0usize;
    for _ in 0..budget {
        let g = Genome::random(&mut rng);
        let m = FlowRun::new(&base, &tech, &g.to_config())
            .seed(7)
            .metrics()
            .unwrap();
        if m.feasible(base.power_mw(), base.drc) {
            random_feasible += 1;
            random_best = random_best.min(m.security);
        }
    }
    let ga_best = ga
        .pareto_front()
        .iter()
        .map(|p| p.metrics.security)
        .fold(f64::INFINITY, f64::min);
    println!(
        "budget {budget} evaluations — best security: NSGA-II {ga_best:.3} \
         (front size {}), random {random_best:.3} ({random_feasible} feasible)",
        ga.pareto_front().len()
    );

    println!("\n=== Ablation 4: Thresh_ER sensitivity (SPARX baseline) ===");
    let spec = netlist::bench::spec_by_name("SPARX").expect("known");
    let base = implement_baseline(&spec, &tech).unwrap();
    for thresh in [12u32, 16, 20, 24, 32] {
        let a =
            secmetrics::analyze_regions(&base.layout, &base.routing, &base.timing, &tech, thresh);
        println!(
            "Thresh_ER {:>3}: {:>6} sites in {:>4} regions",
            thresh,
            a.er_sites,
            a.regions.len()
        );
    }
}

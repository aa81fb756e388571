//! Criterion bench: the full implementation pipeline per design-size
//! bucket (place → route → STA → power → security), i.e. one flow-candidate
//! evaluation end to end — plus the incremental-vs-full evaluation
//! comparison that `BENCH_suite.json` records per design at the
//! whole-exploration level (see `src/bin/bench_suite.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use gdsii_guard::prelude::*;
use tech::{Technology, NUM_METAL_LAYERS};

fn bench_pipeline(c: &mut Criterion) {
    let tech = Technology::nangate45_like();
    let mut group = c.benchmark_group("pipeline");
    for name in ["PRESENT", "TDEA", "CAST"] {
        let spec = netlist::bench::spec_by_name(name).expect("known design");
        group.bench_function(format!("implement_baseline/{name}"), |b| {
            b.iter(|| std::hint::black_box(implement_baseline_unchecked(&spec, &tech)))
        });
        let base = implement_baseline(&spec, &tech).unwrap();
        group.bench_function(format!("flow_candidate_cs/{name}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
                        .unchecked()
                        .metrics(),
                )
            })
        });
    }
    group.finish();
}

/// Incremental engine vs the from-scratch oracle on the same candidate
/// stream: a small population of scale variations around two operators,
/// the shape an NSGA-II generation produces. The engine is warmed outside
/// the timed loop — steady-state amortized cost is what the GA pays.
fn bench_incremental(c: &mut Criterion) {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::tiny_spec();
    let base = implement_baseline(&spec, &tech).unwrap();
    let mut cfgs = Vec::new();
    for op in [
        FlowConfig::cell_shift_default().op,
        FlowConfig::lda_default().op,
    ] {
        for scale in [1.0, 1.2, 1.5] {
            let mut s = [scale; NUM_METAL_LAYERS];
            s[0] = 1.0;
            cfgs.push(FlowConfig { op, scales: s });
        }
    }

    let mut group = c.benchmark_group("incremental");
    group.bench_function("population_full", |b| {
        b.iter(|| {
            for cfg in &cfgs {
                std::hint::black_box(
                    FlowRun::new(&base, &tech, cfg)
                        .seed(7)
                        .unchecked()
                        .metrics(),
                );
            }
        })
    });
    let engine = EvalEngine::new(&base, &tech);
    for cfg in &cfgs {
        std::hint::black_box(
            FlowRun::new(engine.base(), &tech, cfg)
                .engine(&engine)
                .seed(7)
                .unchecked()
                .metrics(),
        );
    }
    group.bench_function("population_incremental", |b| {
        b.iter(|| {
            for cfg in &cfgs {
                std::hint::black_box(
                    FlowRun::new(engine.base(), &tech, cfg)
                        .engine(&engine)
                        .seed(7)
                        .unchecked()
                        .metrics(),
                );
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_incremental
}
criterion_main!(benches);

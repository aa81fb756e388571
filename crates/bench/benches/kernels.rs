//! Criterion micro-benches for the two kernels the incremental replay
//! spends its wall time in: frontier-driven incremental STA
//! (`sta::analyze_incremental`) and the bucket-frontier A* maze search.
//!
//! `BENCH_suite.json` records the whole-replay speedup; these pin the
//! per-call cost of the kernels underneath it, so a regression surfaces
//! at the kernel that caused it instead of diluted into the end-to-end
//! ratio. CI compiles them with the workspace benches and runs each one
//! once in Criterion's `--test` mode.

use criterion::{criterion_group, criterion_main, Criterion};
use gdsii_guard::prelude::*;
use geom::GcellPos;
use layout::Floorplan;
use route::{RouteGrid, GCELL_H_ROWS, GCELL_W_SITES};
use tech::{RouteRule, Technology, NUM_METAL_LAYERS};

/// Incremental STA against a cached base, on the candidate shapes the
/// GA produces: a placement edit (bounded dirty set, small frontier) and
/// a route-rule change (no dirty bound — every net's RC is suspect, the
/// frontier's worst case).
fn bench_sta_incremental(c: &mut Criterion) {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::tiny_spec();
    let base = implement_baseline(&spec, &tech).unwrap();
    let engine = EvalEngine::new(&base, &tech);

    let shift = FlowConfig::cell_shift_default();
    let mut widened = FlowConfig::cell_shift_default();
    widened.scales = [1.3; NUM_METAL_LAYERS];
    widened.scales[0] = 1.0;

    let mut group = c.benchmark_group("sta_incremental");
    for (name, cfg) in [("cell_shift", &shift), ("rule_change", &widened)] {
        let snap = FlowRun::new(&base, &tech, cfg)
            .seed(7)
            .unchecked()
            .snapshot();
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(sta::analyze_incremental(
                    engine.graph(),
                    &base.timing,
                    &base.routing,
                    &snap.layout,
                    &snap.routing,
                    &tech,
                    None,
                ))
            })
        });
    }
    group.finish();
}

/// One maze search on a congested grid, via the production radix (Dial)
/// frontier and the reference binary heap — the pair the equivalence
/// proptest pins together. The spread between them is the bucket
/// frontier's win; the dial number alone is the rip-up-and-reroute
/// per-search cost.
fn bench_maze_route(c: &mut Criterion) {
    let tech = Technology::nangate45_like();
    let fp = Floorplan::new(24 * GCELL_H_ROWS, 32 * GCELL_W_SITES);
    let mut grid = RouteGrid::new(&fp, &tech, &RouteRule::default());
    // A deterministic congestion wall between the endpoints, so the
    // search has to detour instead of running the bare Manhattan line.
    for y in 4..20 {
        for m in 2..=3 {
            grid.add_quanta(m, GcellPos::new(16, y), 3000);
        }
    }
    let (a, b) = (GcellPos::new(2, 2), GcellPos::new(30, 21));
    // The escalated penalty rip-up-and-reroute rounds actually use.
    let penalty = 9.0;

    let mut group = c.benchmark_group("maze_route");
    group.bench_function("dial", |bench| {
        bench.iter(|| std::hint::black_box(route::maze_route_dial_for_tests(&grid, a, b, penalty)))
    });
    group.bench_function("heap", |bench| {
        bench.iter(|| std::hint::black_box(route::maze_route_heap_for_tests(&grid, a, b, penalty)))
    });
    group.finish();
}

criterion_group!(kernels, bench_sta_incremental, bench_maze_route);
criterion_main!(kernels);

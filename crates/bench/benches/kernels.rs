//! Criterion micro-benches for the kernels the incremental replay and the
//! harden path spend their wall time in: frontier-driven incremental STA
//! (`sta::analyze_incremental`), Phase B's rip-up-and-reroute
//! (`route::finalize_route`), and the two ECO operators' searches — Cell Shift's component queries and
//! the blockage-indexed ECO legalizer (`place::eco_place`).
//!
//! `BENCH_suite.json` records the whole-replay speedup; these pin the
//! per-call cost of the kernels underneath it, so a regression surfaces
//! at the kernel that caused it instead of diluted into the end-to-end
//! ratio. CI compiles them with the workspace benches and runs each one
//! once in Criterion's `--test` mode.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gdsii_guard::prelude::*;
use gdsii_guard::{cell_shift, preprocess};
use layout::{Blockage, Layout};
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
        let snap = FlowRun::new(&base, &tech, cfg).seed(7).snapshot().unwrap();
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

/// Phase B as a widened candidate runs it: one `finalize_route` —
/// rip-up-and-reroute rounds of maze searches, then extraction — on the
/// pattern plan of PRESENT's baseline with every layer at 1.5x width,
/// which overflows and so enters rip-up-and-reroute. Phase B is most of
/// an AES-class candidate's time.
fn bench_phase_b(c: &mut Criterion) {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::spec_by_name("PRESENT").expect("known design");
    let base = implement_baseline(&spec, &tech).unwrap();
    let mut layout = Layout::clone(&base.layout);
    layout.set_route_rule(RouteRule::uniform(1.5));
    let plan = route::plan_route(&layout, &tech);
    let routed = route::finalize_route(&layout, &tech, plan.clone());
    assert!(
        !routed.touched_nets().is_empty(),
        "the widened plan must enter rip-up-and-reroute"
    );

    let mut group = c.benchmark_group("phase_b");
    group.bench_function("finalize_route", |b| {
        b.iter_batched(
            || plan.clone(),
            |plan| route::finalize_route(&layout, &tech, plan),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The two ECO operators on openMSP430_1's baseline with its critical
/// cells locked, as the harden path runs them: Cell Shift (a component
/// query after every single-site shift) and one `eco_place` call under an
/// LDA-shaped 8×8 tiling — clamped like LDA's, tiles holding a critical
/// cell at LDA's 0.98 ceiling and the rest at its 0.50 density floor, so
/// phase 1 evicts and phase 2 runs budget-constrained gap queries and
/// compaction.
fn bench_eco_operators(c: &mut Criterion) {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::spec_by_name("openMSP430_1").expect("known design");
    let base = implement_baseline(&spec, &tech).unwrap();
    let mut locked = Layout::clone(&base.layout);
    preprocess::lock_critical_cells(&mut locked);
    let tiling = lda_tiling(&tech, &locked, 8);

    let mut group = c.benchmark_group("eco_operators");
    group.bench_function("cell_shift", |b| {
        b.iter_batched(
            || Layout::clone(&locked),
            |mut layout| {
                cell_shift::cell_shift(&mut layout, &tech, secmetrics::THRESH_ER);
                layout
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("eco_place", |b| {
        b.iter_batched(
            || {
                let mut layout = Layout::clone(&locked);
                layout.set_blockages(tiling.clone());
                layout
            },
            |mut layout| {
                place::eco_place(&mut layout, &tech);
                layout
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// An `n × n` tiling of the core shaped like LDA's (see the doc comment
/// of [`bench_eco_operators`]).
fn lda_tiling(tech: &Technology, layout: &Layout, n: u32) -> Vec<Blockage> {
    let fp = *layout.floorplan();
    let w_max = tech
        .library
        .iter()
        .map(|(_, k)| k.width_sites)
        .max()
        .unwrap_or(1);
    let n_r = n.min(fp.rows() / 2).max(1);
    let n_c = n.min(fp.cols() / (2 * w_max)).max(1);
    let critical = &layout.design().critical_cells;
    let mut tiles = Vec::new();
    for i in 0..n_r {
        for j in 0..n_c {
            let (r0, r1) = (fp.rows() * i / n_r, fp.rows() * (i + 1) / n_r);
            let (c0, c1) = (fp.cols() * j / n_c, fp.cols() * (j + 1) / n_c);
            let holds_asset = critical.iter().any(|&c| {
                layout
                    .cell_pos(c)
                    .is_some_and(|p| (r0..r1).contains(&p.row) && (c0..c1).contains(&p.col))
            });
            tiles.push(Blockage::new(
                r0,
                r1,
                c0,
                c1,
                if holds_asset { 0.98 } else { 0.50 },
            ));
        }
    }
    tiles
}

criterion_group!(
    kernels,
    bench_sta_incremental,
    bench_phase_b,
    bench_eco_operators
);
criterion_main!(kernels);

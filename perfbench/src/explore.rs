//! The `explore-aes` and `explore-small` workloads: one-shot NSGA-II
//! explorations against a fresh (cold-cache) evaluation engine.

use std::path::Path;
use std::time::Instant;

use gdsii_guard::checkpoint::{fingerprint, hex64};
use gdsii_guard::prelude::*;
use gdsii_guard::sandbox::{evaluate_candidate, SandboxPolicy};
use netlist::bench::DesignSpec;
use tech::Technology;

use crate::replica::{self, Layers, Replica};
use crate::stats::{front_hv, median, ms_since, peak_rss_mb, percentile, same_metrics, SeedRng};
use crate::{serve, Args, Report};

/// One explore workload's fixed shape; only the NSGA-II seeds come from
/// `--seed`.
pub struct ExploreWorkload {
    pub design: &'static str,
    pub population: usize,
    pub generations: usize,
    /// Baseline + engine builds before the window and after each explore;
    /// `setup_s` is the median of all of them.
    pub setup_reps: usize,
    /// Front points per run re-evaluated through the from-scratch path.
    pub diff_cap: usize,
    /// Explores per run at least, however short they are.
    pub min_explores: usize,
    /// Harden-path samples before the window and after each explore; a
    /// small design's harden path takes tens of ms, so it needs more.
    pub harden_reps: usize,
}

/// The big-design row: operator (LDA/ECO) work dominates, the edit cache
/// mostly inserts. Which operators a GA seed samples swings an AES_1
/// explore's cost by up to 2x; the shared reference schedule (see `run`)
/// plus one seeded explore keeps the run-to-run spread near the host's.
pub const AES: ExploreWorkload = ExploreWorkload {
    design: "AES_1",
    population: 8,
    generations: 3,
    setup_reps: 1,
    diff_cap: 2,
    min_explores: 2,
    harden_reps: 1,
};

/// The small-design row: Phase B and NSGA-II bookkeeping dominate, the
/// edit cache mostly hits.
pub const SMALL: ExploreWorkload = ExploreWorkload {
    design: "openMSP430_2",
    population: 24,
    generations: 40,
    setup_reps: 2,
    diff_cap: 4,
    min_explores: 1,
    harden_reps: 5,
};

/// An NSGA-II seed from the run's seed stream, below 2^53: checkpoints
/// and job specs carry seeds as JSON numbers, exact only up to there.
fn next_seed(seeds: &mut SeedRng) -> u64 {
    seeds.next_u64() >> 11
}

fn params(w: &ExploreWorkload, seed: u64) -> Nsga2Params {
    // One NSGA-II worker; the router's region pool adds its own threads.
    Nsga2Params::builder()
        .population(w.population)
        .generations(w.generations)
        .seed(seed)
        .threads(1)
        .build()
}

fn explore_once(
    engine: &EvalEngine,
    tech: &Technology,
    p: &Nsga2Params,
) -> Result<ExploreResult, String> {
    explore_with_engine(engine, tech, p, &ExploreOptions::default()).map_err(|e| e.to_string())
}

pub fn run(w: &ExploreWorkload, args: &Args, scratch: &Path) -> Result<Report, String> {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::spec_by_name(w.design).ok_or("unknown design")?;
    let mut report = Report::default();
    let mut seeds = SeedRng::new(args.seed);
    if args.trace {
        let p = params(w, next_seed(&mut seeds));
        traced(w, args, scratch, &tech, &spec, &p, &mut report)?;
        return Ok(report);
    }

    // The machine's speed drifts within a run, so the set-up and harden
    // samples are taken before the window and again after every explore
    // rather than in one burst.
    let mut side = SideSamples::default();
    let base = side.setup(&spec, &tech)?;
    side.interleave(w, &spec, &tech, &base)?;

    // Timed window: back-to-back explores, each on a fresh engine (built
    // outside the timed call), until `--seconds` have been measured and at
    // least `min_explores` ran. The first uses the library's default
    // NSGA-II seed — a reference schedule every run shares, which damps how
    // much the operators a seed happens to sample move the run — and the
    // rest use seeds drawn from `--seed`.
    let mut walls = Vec::new();
    let mut results = Vec::new();
    let mut measured = 0.0;
    while results.len() < w.min_explores || measured < args.seconds * 1e3 {
        let seed = if results.is_empty() {
            Nsga2Params::builder().build().seed
        } else {
            next_seed(&mut seeds)
        };
        let p = params(w, seed);
        let engine = EvalEngine::new(&base, &tech);
        let t0 = Instant::now();
        let r = explore_once(&engine, &tech, &p)?;
        let wall = ms_since(t0);
        recheck_candidates(&engine, &tech, &r, &mut report);
        drop(engine);
        measured += wall;
        walls.push(wall);
        results.push(r);
        side.interleave(w, &spec, &tech, &base)?;
    }
    let evaluated: usize = results.iter().map(|r| r.points.len()).sum();

    differential_check(w, &base, &tech, &results, &mut report);

    let period = spec.clock_period();
    let hv = results.iter().map(|r| front_hv(r, period)).sum::<f64>() / results.len() as f64;
    report.put("setup_s", median(&side.setup_ms) / 1e3, "s");
    report.put("evals_per_s", evaluated as f64 / (measured / 1e3), "1/s");
    report.put("front_hv", hv, "ratio");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.put("harden_ms_p50", median(&side.harden_ms), "ms");
    eprintln!(
        "perfbench: {} explores ({} candidates) in {:.0} ms, walls {:.0?}; samples: set-up {}, harden {}",
        results.len(),
        evaluated,
        measured,
        walls,
        side.setup_ms.len(),
        side.harden_ms.len()
    );
    Ok(report)
}

/// Asks the explore's own engine again, outside the timed window and
/// through the same sandboxed degrade chain NSGA-II uses, for every
/// candidate: one check each. A candidate fails when its incremental
/// evaluation fails again (degraded or quarantined) or the engine's
/// metrics differ from the recorded ones. Telemetry stays off, so this is
/// how an untraced run sees degraded candidates; memo hits make it cheap.
/// A failure that does not repeat (with no deadline and no armed faults,
/// only one that hung on the engine's cache state) is seen only by the
/// traced run's `eval.degraded` counter.
fn recheck_candidates(
    engine: &EvalEngine,
    tech: &Technology,
    result: &ExploreResult,
    report: &mut Report,
) {
    let policy = SandboxPolicy::default();
    for (i, pt) in result.points.iter().enumerate() {
        let (m, status) = evaluate_candidate(engine, tech, &pt.genome, pt.generation, i, &policy);
        report.check(
            status == EvalStatus::Ok && same_metrics(&m, &pt.metrics),
            || {
                format!(
                    "candidate {:?} re-asked: {status:?}, {m:?} vs explore {:?}",
                    pt.genome, pt.metrics
                )
            },
        );
    }
}

/// Set-up and harden-path samples taken outside the timed window.
#[derive(Default)]
struct SideSamples {
    setup_ms: Vec<f64>,
    harden_ms: Vec<f64>,
}

impl SideSamples {
    /// One set-up: baseline implement + engine build.
    fn setup(&mut self, spec: &DesignSpec, tech: &Technology) -> Result<Snapshot, String> {
        let t0 = Instant::now();
        let base = implement_baseline(spec, tech).map_err(|e| e.to_string())?;
        drop(EvalEngine::new(&base, tech));
        self.setup_ms.push(ms_since(t0));
        Ok(base)
    }

    /// `w.setup_reps` set-ups and `w.harden_reps` runs of the harden path
    /// (from-scratch `FlowRun`, no engine) on both default operators.
    fn interleave(
        &mut self,
        w: &ExploreWorkload,
        spec: &DesignSpec,
        tech: &Technology,
        base: &Snapshot,
    ) -> Result<(), String> {
        for _ in 0..w.setup_reps {
            self.setup(spec, tech)?;
        }
        // One sample is the mean of the two operators, so the median does
        // not straddle the gap between a cheap and a costly operator.
        for _ in 0..w.harden_reps {
            let t0 = Instant::now();
            for cfg in [FlowConfig::cell_shift_default(), FlowConfig::lda_default()] {
                FlowRun::new(base, tech, &cfg)
                    .metrics()
                    .map_err(|e| e.to_string())?;
            }
            self.harden_ms.push(ms_since(t0) / 2.0);
        }
        Ok(())
    }
}

/// Re-evaluates a capped sample of front points through the from-scratch
/// `FlowRun` (no engine) and demands the incremental metrics bit for bit.
fn differential_check(
    w: &ExploreWorkload,
    base: &Snapshot,
    tech: &Technology,
    results: &[ExploreResult],
    report: &mut Report,
) {
    let sample: Vec<&EvalPoint> = results
        .iter()
        .flat_map(|r| r.pareto_front())
        .take(w.diff_cap)
        .collect();
    for p in sample {
        let full = FlowRun::new(base, tech, &p.config)
            .seed(p.genome.flow_seed())
            .metrics();
        report.check(
            full.as_ref().is_ok_and(|m| same_metrics(m, &p.metrics)),
            || {
                format!(
                    "full re-eval of {:?}: {full:?} vs incremental {:?}",
                    p.genome, p.metrics
                )
            },
        );
    }
}

/// Saves and loads a checkpoint of `result`'s final state (the envelope a
/// generation-stepped job writes), returning median save/load ms and
/// its size in bytes.
fn checkpoint_probe(
    base: &Snapshot,
    p: &Nsga2Params,
    result: &ExploreResult,
    path: &Path,
    report: &mut Report,
) -> Result<(f64, f64, f64), String> {
    let mut cache: Vec<(Genome, FlowMetrics)> = result
        .points
        .iter()
        .map(|q| (q.genome, q.metrics))
        .collect();
    cache.sort_by_key(|(g, _)| (g.op, g.n_idx, g.iter_idx, g.scale_idx));
    let cp = Checkpoint {
        base_fingerprint: fingerprint(base),
        params: *p,
        generation: p.generations,
        rng: (1..=4u64).map(hex64).collect(),
        pop: result
            .points
            .iter()
            .rev()
            .take(p.population)
            .map(|q| q.genome)
            .collect(),
        order: result
            .points
            .iter()
            .map(|q| (q.genome, q.generation))
            .collect(),
        cache,
        quarantine: result.quarantined.clone(),
    };
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        cp.save(path).map_err(|e| e.to_string())?;
        save.push(ms_since(t0));
        let t0 = Instant::now();
        let back = Checkpoint::load(path).map_err(|e| e.to_string())?;
        load.push(ms_since(t0));
        report.check(back == cp, || {
            "checkpoint round trip changed the state".into()
        });
    }
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
    Ok((median(&save), median(&load), bytes))
}

/// The traced run: set-up replica, an untraced and a traced explore at the
/// same seed, the layer-by-layer replay of its candidates, the harden-path
/// replica, a checkpoint probe and the daemon probe.
fn traced(
    w: &ExploreWorkload,
    args: &Args,
    scratch: &Path,
    tech: &Technology,
    spec: &DesignSpec,
    p: &Nsga2Params,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up, layer by layer, checked against `implement_baseline`.
    let mut setup = Layers::default();
    let (replica_base, _) = replica::setup(&mut setup, spec, tech);
    let base = implement_baseline(spec, tech).map_err(|e| e.to_string())?;
    let base_ok = same_metrics(
        &FlowMetrics::from_snapshot(&replica_base, &base),
        &FlowMetrics::from_snapshot(&base, &base),
    );
    report.check(base_ok, || {
        "set-up replica differs from implement_baseline".into()
    });
    drop(replica_base);

    // Untraced, then traced explore at the same seed.
    let engine = EvalEngine::new(&base, tech);
    let t0 = Instant::now();
    let result = explore_once(&engine, tech, p)?;
    let wall_off = ms_since(t0);
    drop(engine);
    let engine = EvalEngine::new(&base, tech);
    gdsii_guard::obs::reset();
    gdsii_guard::obs::set_enabled(true);
    let t0 = Instant::now();
    let traced_result = explore_once(&engine, tech, p)?;
    let wall_on = ms_since(t0);
    let obs = gdsii_guard::obs::snapshot();
    gdsii_guard::obs::set_enabled(false);
    let cache_bytes = engine.memory_footprint().cache_bytes as f64;
    drop(engine);
    report.check(
        ggjson::to_string_compact(&result) == ggjson::to_string_compact(&traced_result),
        || "telemetry changed the explore result".into(),
    );
    report.attempted += result.points.len() as u64;
    report.failed += result.quarantined.len() as u64 + obs.counter("eval.degraded");

    // Replay every candidate through the public layer calls, in the
    // engine's evaluation order and with its routing thread budget.
    let engine = EvalEngine::new(&base, tech);
    let mut rep = Replica::new(&engine, tech);
    route::set_parallelism(route::budget_for_workers(1));
    for pt in replica::evaluation_order(&result.points) {
        let m = rep.eval(&pt.config, pt.genome.flow_seed());
        report.check(same_metrics(&m, &pt.metrics), || {
            format!(
                "replica of {:?}: {m:?} vs explore {:?}",
                pt.genome, pt.metrics
            )
        });
    }
    route::set_parallelism(0);
    for (name, mine, theirs) in [
        (
            "eval.cache_hits",
            rep.edit_hits,
            obs.counter("eval.cache_hits"),
        ),
        (
            "eval.cache_misses",
            rep.edit_misses,
            obs.counter("eval.cache_misses"),
        ),
        (
            "eval.memo_hits",
            rep.memo_hits,
            obs.counter("eval.memo_hits"),
        ),
    ] {
        report.check(mine == theirs, || {
            format!("replica {name} {mine} vs explore {theirs}")
        });
    }

    // Harden path, replicated and checked against `FlowRun` (no engine).
    let mut full = Layers::default();
    let mut full_calls = 0.0;
    for cfg in [FlowConfig::cell_shift_default(), FlowConfig::lda_default()] {
        let m = replica::full_flow(&mut full, &base, tech, &cfg, 1);
        full_calls += 1.0;
        let oracle = FlowRun::new(&base, tech, &cfg)
            .metrics()
            .map_err(|e| e.to_string())?;
        report.check(same_metrics(&m, &oracle), || {
            format!("harden replica of {cfg:?}")
        });
    }
    differential_check(w, &base, tech, std::slice::from_ref(&result), report);

    let ckpt = checkpoint_probe(&base, p, &result, &scratch.join("probe.ckpt"), report)?;
    let served = serve::probe(args, scratch, tech, report)?;

    put_layers(
        report,
        &setup,
        &rep,
        &full,
        full_calls,
        &obs,
        // NSGA-II bookkeeping: the traced explore's wall minus its own
        // candidate-evaluation spans, both from the same run.
        wall_on - obs.span_total_nanos("nsga2.evaluate") as f64 / 1e6,
        cache_bytes,
    );
    served.put(report, ckpt);
    report.put("trace.overhead_ratio", wall_on / wall_off, "ratio");
    Ok(())
}

/// Reports the layer metrics shared by every workload's traced run.
#[allow(clippy::too_many_arguments)]
fn put_layers(
    report: &mut Report,
    setup: &Layers,
    rep: &Replica,
    full: &Layers,
    full_calls: f64,
    obs: &gdsii_guard::obs::MetricsSnapshot,
    nsga2_self_ms: f64,
    cache_bytes: f64,
) {
    let l = &rep.layers;
    for (name, key) in [
        ("setup.generate_ms", "setup.generate"),
        ("setup.place_ms", "setup.place"),
        ("setup.route_ms", "setup.route"),
        ("setup.sta_ms", "setup.sta"),
        ("setup.analysis_ms", "setup.analysis"),
        ("setup.engine_ms", "setup.engine"),
    ] {
        report.put(name, setup.get(key), "ms");
    }
    report.put("eval.candidate_ms", rep.candidate_ms, "ms");
    report.put("eval.replayed", rep.replayed as f64, "count");
    report.put(
        "eval.attributed_ratio",
        l.total() / rep.candidate_ms,
        "ratio",
    );
    report.put("op.lda_ms", l.get("op.lda"), "ms");
    report.put("op.cell_shift_ms", l.get("op.cell_shift"), "ms");
    report.put("op.calls", rep.edit_misses as f64, "count");
    report.put("route.dirty_ms", l.get("route.dirty"), "ms");
    report.put("route.patch_ms", l.get("route.patch"), "ms");
    report.put("eval.rule_ms", l.get("eval.rule"), "ms");
    report.put("route.phase_b_ms", l.get("route.phase_b"), "ms");
    report.put(
        "route.phase_b_p90_ms",
        percentile(&rep.phase_b_ms, 90.0),
        "ms",
    );
    report.put(
        "route.rrr_victims",
        obs.counter("rrr.victims") as f64,
        "count",
    );
    let pops = obs
        .histograms
        .iter()
        .find(|h| h.name == "maze.pops")
        .map_or(0, |h| h.sum);
    report.put("route.maze_pops", pops as f64, "count");
    report.put("sta.incremental_ms", l.get("sta.incremental"), "ms");
    report.put(
        "sta.cone_nets",
        obs.counter("sta.cone_nets") as f64,
        "count",
    );
    report.put("power.ms", l.get("power"), "ms");
    report.put("drc.ms", l.get("drc"), "ms");
    report.put("secmetrics.regions_ms", l.get("secmetrics.regions"), "ms");
    report.put("nsga2.self_ms", nsga2_self_ms, "ms");
    let lookups = (rep.edit_hits + rep.edit_misses).max(1) as f64;
    report.put(
        "eval.edit_hit_ratio",
        rep.edit_hits as f64 / lookups,
        "ratio",
    );
    report.put(
        "eval.memo_hit_ratio",
        rep.memo_hits as f64 / rep.replayed.max(1) as f64,
        "ratio",
    );
    report.put("eval.cache_bytes", cache_bytes, "bytes");
    let per_call = |k: &str| full.get(k) / full_calls.max(1.0);
    report.put("flow.full_ms", per_call("flow.full"), "ms");
    report.put("route.full_ms", per_call("route.full"), "ms");
    report.put("sta.full_ms", per_call("sta.full"), "ms");
}

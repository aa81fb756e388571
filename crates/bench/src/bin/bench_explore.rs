//! Perf-trajectory harness for the incremental evaluation engine.
//!
//! Runs the fixed-seed fig5-style `explore` of the tiny spec with the
//! telemetry subsystem enabled (capturing per-phase spans and cache
//! counters), then replays the exact evaluation schedule it produced —
//! generation by generation, with the same work-stealing thread pool —
//! through both evaluation paths with telemetry *disabled*: the
//! from-scratch oracle (`FlowRun::new(..).metrics()`) and the
//! incremental engine (`FlowRun::engine`, fresh engine, cold caches).
//! The two replay walls are the honest apples-to-apples comparison the
//! incremental engine is judged on; results, including the telemetry
//! section, land in `BENCH_explore.json` at the workspace root so future
//! changes can track the perf curve.
//!
//! Flags:
//! - `--verbose` prints the rendered span/metric tree of the instrumented
//!   explore run.
//! - `--smoke` runs a small exploration twice — telemetry enabled and
//!   disabled — checks the two produce bit-identical results, prints the
//!   wall-clock delta, asserts the enabled overhead stays under 5 %,
//!   asserts the incremental STA actually took its clean-hit/frontier
//!   fast paths, re-runs with the routing thread bound at 1 and 4 to pin
//!   serial-vs-threaded Phase B bit-identity, and finishes with a
//!   kill/resume drill (halt after generation 1, resume from the
//!   checkpoint, demand a bit-identical result). No JSON is written in
//!   smoke mode.
//! - `--resume` continues the instrumented explore run from the last
//!   checkpoint instead of starting over.
//!
//! The instrumented run checkpoints at generation boundaries under the
//! adaptive ~2 % overhead budget (default `results/checkpoint.ggjson`,
//! override with `GG_CHECKPOINT`); the report records the cumulative
//! checkpoint wall as a percentage of the explore wall.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gdsii_guard::prelude::*;
use gg_bench::cache::results_dir;
use gg_bench::driver::GG_GA_PARAMS;
use tech::Technology;

#[derive(Debug, Clone)]
struct BenchExplore {
    design: String,
    population: u64,
    generations: u64,
    seed: u64,
    threads: u64,
    route_threads: u64,
    evaluations: u64,
    explore_wall_secs: f64,
    evals_per_sec: f64,
    full_replay_wall_secs: f64,
    incremental_replay_wall_secs: f64,
    speedup: f64,
    checkpoint_writes: u64,
    checkpoint_write_secs: f64,
    quarantined: u64,
    degraded: u64,
}

ggjson::json_struct!(BenchExplore {
    design,
    population,
    generations,
    seed,
    threads,
    route_threads,
    evaluations,
    explore_wall_secs,
    evals_per_sec,
    full_replay_wall_secs,
    incremental_replay_wall_secs,
    speedup,
    checkpoint_writes,
    checkpoint_write_secs,
    quarantined,
    degraded
});

/// Replays the explore schedule generation by generation: each batch runs
/// on a shared atomic-index work queue across `threads` workers, exactly
/// like `nsga2::evaluate_all` distributes candidates. Returns total wall
/// seconds.
fn replay(
    points: &[&EvalPoint],
    threads: usize,
    eval: impl Fn(&EvalPoint) -> FlowMetrics + Sync,
) -> f64 {
    let max_gen = points.iter().map(|p| p.generation).max().unwrap_or(0);
    let t0 = Instant::now();
    for gen in 0..=max_gen {
        let batch: Vec<&EvalPoint> = points
            .iter()
            .copied()
            .filter(|p| p.generation == gen)
            .collect();
        if batch.is_empty() {
            continue;
        }
        let next = AtomicUsize::new(0);
        let threads = threads.max(1).min(batch.len());
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = batch.get(i) else { break };
            std::hint::black_box(eval(p));
        };
        if threads == 1 {
            // Mirror `nsga2::evaluate_all`: a single worker runs inline so
            // the thread-local maze/STA scratch stays warm across
            // generations instead of being re-allocated per scope thread.
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The curated per-phase walls and cache counters the benchmark tracks,
/// extracted from the instrumented explore run's telemetry snapshot.
/// Span totals are leaf-summed, so worker-thread spans (whose root is the
/// worker, not the enclosing phase) are included. Checkpoint cost lives at
/// the report's top level only — it is bookkeeping, not an eval phase.
fn phase_summary(t: &gdsii_guard::obs::MetricsSnapshot, evaluations: u64) -> ggjson::Json {
    let secs = |leaf: &str| t.span_total_nanos(leaf) as f64 / 1e9;
    let phase_a = secs("route.phase_a") + secs("route.phase_a_patch");
    let phase_b = secs("route.phase_b");
    let inc_sta = secs("sta.incremental");
    let lda = secs("lda.eco_place");
    let eco2 = secs("eco.phase2");
    // Throughput each phase alone would sustain (evaluations divided by
    // that phase's wall): the phase with the smallest number is the one
    // gating overall evals/s. 0 means the phase never ran.
    let per_eval = |wall: f64| {
        ggjson::Json::Num(if wall > 0.0 {
            evaluations as f64 / wall
        } else {
            0.0
        })
    };
    ggjson::Json::Obj(vec![
        (
            "baseline_implement_secs".into(),
            ggjson::Json::Num(secs("baseline.implement")),
        ),
        ("phase_a_route_secs".into(), ggjson::Json::Num(phase_a)),
        ("phase_b_rrr_secs".into(), ggjson::Json::Num(phase_b)),
        ("incremental_sta_secs".into(), ggjson::Json::Num(inc_sta)),
        (
            "nsga2_generation_secs".into(),
            ggjson::Json::Num(secs("nsga2.generation")),
        ),
        ("lda_eco_place_secs".into(), ggjson::Json::Num(lda)),
        ("eco_phase2_secs".into(), ggjson::Json::Num(eco2)),
        (
            "evals_per_sec".into(),
            ggjson::Json::Obj(vec![
                ("phase_a_route".into(), per_eval(phase_a)),
                ("phase_b_rrr".into(), per_eval(phase_b)),
                ("incremental_sta".into(), per_eval(inc_sta)),
                ("lda_eco_place".into(), per_eval(lda)),
                ("eco_phase2".into(), per_eval(eco2)),
            ]),
        ),
        (
            "eco_compaction_fallbacks".into(),
            ggjson::Json::Num(t.counter("eco.compaction_fallbacks") as f64),
        ),
        (
            "eval_cache_hits".into(),
            ggjson::Json::Num(t.counter("eval.cache_hits") as f64),
        ),
        (
            "eval_cache_misses".into(),
            ggjson::Json::Num(t.counter("eval.cache_misses") as f64),
        ),
        (
            "eval_memo_hits".into(),
            ggjson::Json::Num(t.counter("eval.memo_hits") as f64),
        ),
        (
            "sta_clean_hits".into(),
            ggjson::Json::Num(t.counter("sta.clean_hits") as f64),
        ),
        (
            "sta_cone_nets".into(),
            ggjson::Json::Num(t.counter("sta.cone_nets") as f64),
        ),
        (
            "sta_early_exits".into(),
            ggjson::Json::Num(t.counter("sta.early_exits") as f64),
        ),
        // Retired with the dense fallback (PR 6): the counter no longer
        // exists, so this reads 0 — kept so perf-curve tooling diffing
        // successive reports sees the drop instead of a vanished key.
        (
            "sta_cone_fallbacks".into(),
            ggjson::Json::Num(t.counter("sta.cone_fallbacks") as f64),
        ),
        (
            "rrr_rounds".into(),
            ggjson::Json::Num(t.counter("rrr.rounds") as f64),
        ),
        (
            "eval_degraded".into(),
            ggjson::Json::Num(t.counter("eval.degraded") as f64),
        ),
        (
            "eval_quarantined".into(),
            ggjson::Json::Num(t.counter("eval.quarantined") as f64),
        ),
        (
            "faults_injected".into(),
            ggjson::Json::Num(t.counter("faults.injected") as f64),
        ),
    ])
}

/// Smoke mode: telemetry must not perturb results and must stay cheap.
fn smoke() {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::tiny_spec();
    let params = Nsga2Params::builder()
        .population(6)
        .generations(2)
        .seed(GG_GA_PARAMS.seed)
        .threads(4)
        .build();
    const REPS: usize = 3;

    let run = || {
        let base = implement_baseline_unchecked(&spec, &tech);
        explore(&base, &tech, &params)
    };
    let min_wall = |enabled: bool| {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..REPS {
            gdsii_guard::obs::reset();
            gdsii_guard::obs::set_enabled(enabled);
            let t0 = Instant::now();
            let r = run();
            let wall = t0.elapsed().as_secs_f64();
            gdsii_guard::obs::set_enabled(false);
            if wall < best {
                best = wall;
            }
            result = Some(r);
        }
        (best, result.expect("REPS >= 1"))
    };

    let (wall_off, off) = min_wall(false);
    let (wall_on, on) = min_wall(true);
    // Registry still holds the last enabled repetition (reset runs at the
    // top of each rep; disabling only stops recording).
    let telemetry = gdsii_guard::obs::snapshot();

    // Telemetry observes; it must never steer. Bit-identical trajectories.
    assert_eq!(
        off.points.len(),
        on.points.len(),
        "evaluation count diverged"
    );
    for (a, b) in off.points.iter().zip(&on.points) {
        assert_eq!(a.genome, b.genome, "genome schedule diverged");
        assert_eq!(a.metrics, b.metrics, "metrics diverged on {:?}", a.genome);
    }

    let delta = (wall_on - wall_off) / wall_off;
    println!(
        "smoke: {} evaluations; wall disabled {wall_off:.3}s vs enabled {wall_on:.3}s \
         ({:+.2} % telemetry overhead)",
        off.points.len(),
        delta * 100.0,
    );
    assert!(
        delta < 0.05,
        "telemetry-enabled wall exceeds the 5 % overhead budget: {:+.2} %",
        delta * 100.0
    );

    // The incremental STA must actually take its fast paths during the
    // smoke exploration — a refactor that silently routes everything
    // through a slow path would leave the bench measuring dead code.
    // Skipped under GG_FAULTS: an armed drill legitimately degrades every
    // incremental evaluation to the full re-eval path.
    if std::env::var_os("GG_FAULTS").is_none() {
        let sta_fast = telemetry.counter("sta.clean_hits") + telemetry.counter("sta.cone_nets");
        assert!(
            sta_fast > 0,
            "incremental STA never took the clean-hit or frontier path during smoke"
        );
        println!(
            "smoke: sta fast paths live ({} clean hits, {} frontier nets, {} early exits)",
            telemetry.counter("sta.clean_hits"),
            telemetry.counter("sta.cone_nets"),
            telemetry.counter("sta.early_exits"),
        );
    }

    // Region-parallel Phase B must be bit-identical at any routing thread
    // bound — serial vs threaded rip-up-and-reroute may not steer results.
    let with_route_threads = |n: usize| {
        route::set_parallelism(n);
        let r = run();
        route::set_parallelism(0);
        r
    };
    let serial = with_route_threads(1);
    let threaded = with_route_threads(4);
    assert_eq!(
        ggjson::to_string_pretty(&serial),
        ggjson::to_string_pretty(&threaded),
        "region-parallel Phase B diverged from the serial router"
    );
    println!("smoke: route threads 1 vs 4 bit-identical");

    // Regression gate on the gap-indexed legalizer: eco.phase2 across the
    // whole smoke exploration must stay within budget. The index-backed
    // kernel clocks ~1 ms here; the pre-index linear-scan legalizer ran
    // two orders of magnitude hotter, so backsliding fails the build.
    let eco_phase2_secs = telemetry.span_total_nanos("eco.phase2") as f64 / 1e9;
    const ECO_PHASE2_BUDGET_SECS: f64 = 0.120;
    println!("smoke: eco.phase2 total {eco_phase2_secs:.4}s (budget {ECO_PHASE2_BUDGET_SECS}s)");
    assert!(
        eco_phase2_secs > 0.0,
        "smoke exploration never entered eco.phase2 — budget gate is vacuous"
    );
    assert!(
        eco_phase2_secs < ECO_PHASE2_BUDGET_SECS,
        "eco.phase2 wall {eco_phase2_secs:.4}s exceeds the {ECO_PHASE2_BUDGET_SECS}s smoke budget"
    );

    // Kill/resume drill: halt right after generation 1's checkpoint lands
    // (the state a SIGKILL between generations leaves behind), resume from
    // disk, and demand the exact trajectory of the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("gg-bench-smoke-{}", std::process::id()));
    let ckpt = dir.join("checkpoint.ggjson");
    let base = implement_baseline_unchecked(&spec, &tech);
    explore_with(
        &base,
        &tech,
        &params,
        &ExploreOptions {
            checkpoint: Some(ckpt.clone()),
            halt_after: Some(1),
            ..ExploreOptions::default()
        },
    )
    .expect("interrupted smoke run");
    let resumed = explore_with(
        &base,
        &tech,
        &params,
        &ExploreOptions {
            checkpoint: Some(ckpt),
            resume: true,
            ..ExploreOptions::default()
        },
    )
    .expect("resumed smoke run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        ggjson::to_string_pretty(&off),
        ggjson::to_string_pretty(&resumed),
        "kill/resume cycle diverged from the uninterrupted run"
    );
    println!("smoke: kill/resume cycle bit-identical");

    // Journal overhead drill: run the same tiny explore through an
    // in-process job server with the durable WAL enabled and demand the
    // cumulative append wall (`journal.write_secs`) stays under 2 % of
    // the explore wall — crash-safety must be nearly free.
    {
        use gdsii_guard::serve::{JobSpec, Server, ServerConfig};
        // Best-of-REPS like the telemetry gate: a single rep's ~16 ms
        // wall is noise-dominated on a shared box.
        let mut best_frac = f64::INFINITY;
        let mut best_line = String::new();
        for rep in 0..REPS {
            let jdir =
                std::env::temp_dir().join(format!("gg-bench-journal-{}-{rep}", std::process::id()));
            let _ = std::fs::remove_dir_all(&jdir);
            gdsii_guard::obs::reset();
            gdsii_guard::obs::set_enabled(true);
            let server = Server::start(ServerConfig {
                socket: None,
                data_dir: Some(jdir.join("data")),
                journal_dir: Some(jdir.join("journal")),
                runners: 0,
                ..ServerConfig::default()
            })
            .expect("journal smoke server");
            let mut spec = JobSpec::explore("TINY");
            spec.population = 6;
            spec.generations = 2;
            server.submit(spec).expect("submit journaled explore");
            // The submit append carries the journal's one fsync per job —
            // a constant admission cost, not explore overhead. The 2 %
            // budget gates the *per-generation* appends, so measure the
            // gauge delta across the explore itself.
            let before = gdsii_guard::obs::snapshot();
            let secs0 = before.gauge("journal.write_secs").unwrap_or(0.0);
            let t0 = Instant::now();
            server.run_until_idle();
            let journal_wall = t0.elapsed().as_secs_f64();
            gdsii_guard::obs::set_enabled(false);
            let t = gdsii_guard::obs::snapshot();
            let journal_secs = t.gauge("journal.write_secs").unwrap_or(0.0) - secs0;
            let journal_writes = t.counter("journal.writes") - before.counter("journal.writes");
            assert!(
                journal_writes > 0,
                "journaled explore never appended — overhead gate is vacuous"
            );
            let frac = journal_secs / journal_wall;
            if frac < best_frac {
                best_frac = frac;
                best_line = format!(
                    "smoke: journal overhead {:.3} % ({journal_writes} explore-phase \
                     appends, {journal_secs:.4}s of {journal_wall:.3}s explore wall; \
                     {:.4}s total incl. the per-job submit fsync)",
                    frac * 100.0,
                    t.gauge("journal.write_secs").unwrap_or(0.0),
                );
            }
            server.stop();
            let _ = std::fs::remove_dir_all(&jdir);
        }
        println!("{best_line}");
        assert!(
            best_frac < 0.02,
            "journal append wall is {:.2} % of the explore wall in the best of \
             {REPS} reps (budget 2 %)",
            best_frac * 100.0
        );
    }
    println!("smoke: OK (results bit-identical, overhead within budget)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let verbose = args.iter().any(|a| a == "--verbose");
    let resume = args.iter().any(|a| a == "--resume");
    let tech = Technology::nangate45_like();
    // `--design NAME` swaps the benchmark subject (default TINY); names
    // resolve through the serve roster, so scaled `NAME@xN` forms work and
    // a typo dies here with the full roster instead of deep in the run.
    let spec = match args.iter().position(|a| a == "--design") {
        Some(i) => {
            let name = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("--design needs a value");
                std::process::exit(2);
            });
            gdsii_guard::serve::baseline::resolve_spec(name).unwrap_or_else(|| {
                eprintln!(
                    "unknown design '{name}'; known designs: {}",
                    gdsii_guard::serve::baseline::known_designs()
                );
                std::process::exit(2);
            })
        }
        None => netlist::bench::tiny_spec(),
    };

    // Instrumented pass: baseline + exploration with telemetry on. The
    // smoke mode (and the telemetry_regression test) pin down that the
    // enabled path stays cheap and observation-only, so the explore wall
    // below is still representative. Every generation checkpoints to the
    // results dir (or GG_CHECKPOINT) so `--resume` can continue a killed
    // run.
    let mut opts = ExploreOptions::from_env();
    if opts.checkpoint.is_none() {
        opts.checkpoint = Some(results_dir().join("checkpoint.ggjson"));
    }
    opts.resume = resume;

    gdsii_guard::obs::reset();
    gdsii_guard::obs::set_enabled(true);
    let base = implement_baseline(&spec, &tech).expect("baseline implements cleanly");

    let t0 = Instant::now();
    let result = explore_with(&base, &tech, &GG_GA_PARAMS, &opts).expect("explore run");
    let explore_wall_secs = t0.elapsed().as_secs_f64();
    let telemetry = gdsii_guard::obs::snapshot();
    gdsii_guard::obs::set_enabled(false);

    let evaluations = result.points.len() as u64;
    let points: Vec<&EvalPoint> = result.points.iter().collect();
    let threads = GG_GA_PARAMS.resolved_threads();

    if verbose {
        println!("telemetry of the instrumented explore run:");
        println!("{}", telemetry.render());
        // Peak-memory gauges published by the eval engine: resident bytes
        // of the baseline's occupancy/routing structures plus the
        // byte-accounted eval-cache footprint (see GG_EVAL_CACHE_BYTES).
        for g in [
            "mem.occupancy_bytes",
            "mem.route_planes_bytes",
            "eval.cache_bytes",
        ] {
            println!("mem: {g} = {:.0}", telemetry.gauge(g).unwrap_or(0.0));
        }
    }

    // The replays distribute candidates exactly like `nsga2::evaluate_all`,
    // including its per-worker routing-thread budget — telemetry disabled,
    // so the walls measure the evaluation paths alone.
    let route_threads = route::budget_for_workers(threads);
    route::set_parallelism(route_threads);

    // Wall clocks on a shared box are scheduler-noisy, so each replay runs
    // `REPS` times and the minimum wall (the least-interference repetition)
    // is recorded.
    const REPS: usize = 3;
    let measure = |eval: &(dyn Fn(&EvalPoint) -> FlowMetrics + Sync)| {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            best = best.min(replay(&points, threads, eval));
        }
        best
    };

    // Incremental path: fresh engine, cold caches on the first repetition,
    // identical schedule. The evaluation-metrics memo is dropped before
    // every repetition so each one honestly replays the schedule's
    // within-run duplicate structure — the recorded minimum is a min over
    // real replays, never over warm memo lookups from a prior repetition.
    //
    // Measured before the full replay on purpose: the full path's ~5k
    // from-scratch implementations churn the allocator enough that an
    // identical eval loop run afterwards measures 15-25% slower, and the
    // incremental path's production environment is right after the
    // instrumented explore, not after a full-replay burst. The full
    // baseline runs second and inherits only the incremental replay's
    // (engine-cached, Arc-shared) far smaller footprint.
    let engine = EvalEngine::new(&base, &tech);
    let incremental_replay_wall_secs = {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            engine.reset_metrics_memo();
            let eval = |p: &EvalPoint| {
                FlowRun::new(engine.base(), &tech, &p.config)
                    .engine(&engine)
                    .seed(p.genome.flow_seed())
                    .unchecked()
                    .metrics()
            };
            best = best.min(replay(&points, threads, eval));
        }
        best
    };

    // Full-evaluate path: every candidate re-implements the chip.
    let full_replay_wall_secs = measure(&|p: &EvalPoint| {
        FlowRun::new(&base, &tech, &p.config)
            .seed(p.genome.flow_seed())
            .unchecked()
            .metrics()
    });
    route::set_parallelism(0);

    // The replays must agree with the recorded metrics — a corrupted
    // benchmark is worse than a slow one.
    let check: Vec<FlowMetrics> = points
        .iter()
        .map(|p| {
            FlowRun::new(engine.base(), &tech, &p.config)
                .engine(&engine)
                .seed(p.genome.flow_seed())
                .unchecked()
                .metrics()
        })
        .collect();
    for (p, m) in points.iter().zip(&check) {
        // Quarantined candidates carry penalty metrics by construction, so
        // a healthy replay of the same genome legitimately disagrees.
        if result.quarantined.iter().any(|q| q.genome == p.genome) {
            continue;
        }
        assert_eq!(p.metrics, *m, "engine replay diverged on {:?}", p.genome);
    }

    let checkpoint_write_secs = telemetry.gauge("checkpoint.write_secs").unwrap_or(0.0);
    let report = BenchExplore {
        design: spec.name.to_string(),
        population: GG_GA_PARAMS.population as u64,
        generations: GG_GA_PARAMS.generations as u64,
        seed: GG_GA_PARAMS.seed,
        threads: threads as u64,
        route_threads: route_threads as u64,
        evaluations,
        explore_wall_secs,
        evals_per_sec: evaluations as f64 / explore_wall_secs,
        full_replay_wall_secs,
        incremental_replay_wall_secs,
        speedup: full_replay_wall_secs / incremental_replay_wall_secs,
        checkpoint_writes: telemetry.counter("checkpoint.writes"),
        checkpoint_write_secs,
        quarantined: result.quarantined.len() as u64,
        degraded: telemetry.counter("eval.degraded"),
    };

    // Merge the telemetry section into the report: a curated per-phase
    // summary plus the raw snapshot (counters, gauges, histograms, spans).
    let mut j = ggjson::ToJson::to_json(&report);
    if let ggjson::Json::Obj(fields) = &mut j {
        fields.push(("phases".into(), phase_summary(&telemetry, evaluations)));
        fields.push((
            "telemetry".into(),
            ggjson::parse(&telemetry.to_json()).expect("obs snapshot JSON parses"),
        ));
    }

    // Workspace root: crates/bench/ -> repo root.
    let mut out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    let out = out.join("BENCH_explore.json");
    std::fs::write(&out, ggjson::to_vec_pretty(&j)).expect("write BENCH_explore.json");
    println!(
        "explore: {:.3}s for {} evaluations ({:.1} evals/s)",
        report.explore_wall_secs, report.evaluations, report.evals_per_sec
    );
    println!(
        "replay ({} candidates, {} threads): full {:.3}s vs incremental {:.3}s — {:.2}x speedup",
        evaluations, threads, full_replay_wall_secs, incremental_replay_wall_secs, report.speedup
    );
    println!(
        "checkpoints: {} writes, {:.4}s total ({:.2} % of the explore wall); \
         {} degraded, {} quarantined",
        report.checkpoint_writes,
        checkpoint_write_secs,
        100.0 * checkpoint_write_secs / explore_wall_secs.max(1e-9),
        report.degraded,
        report.quarantined,
    );
    println!("wrote {}", out.display());
}

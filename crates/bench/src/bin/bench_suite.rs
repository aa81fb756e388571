//! The benchmark harness: runs the explore schedule over TINY, every
//! design in the paper's Table II, and one `@xN`-scaled 100k+-cell stress
//! design, and lands one row per design in `BENCH_suite.json` at the
//! workspace root — wall clocks, evals/sec, incremental-replay speedup,
//! Pareto hypervolume, security/timing deltas against the design's own
//! baseline, quarantined/degraded candidate counts, the per-phase span
//! walls and cache/STA counters of the instrumented explore, the
//! explore engine's memory footprint, and the process peak RSS.
//!
//! Every row is also a differential check. The explore's schedule is
//! replayed serially, telemetry off, through a fresh incremental engine
//! and through the from-scratch path, and each point must agree bit for
//! bit: incremental == full == the metrics the explore recorded
//! (quarantined candidates carry penalty metrics by construction, so
//! they are skipped for the recorded comparison). A mismatch panics
//! naming the design and the genome.
//!
//! Flags:
//! - `--design NAME` runs a single design (any roster name, including
//!   `TINY` and scaled `NAME@xN` forms) instead of the matrix, prints its
//!   row, then the whole row as one compact JSON line for scripts, and
//!   writes no file: `BENCH_suite.json` only ever holds a whole matrix.
//! - `--pop N` / `--gens N` / `--seed N` / `--threads N` override the
//!   per-design explore schedule (defaults 8/3, seed shared with the
//!   other benches).
//! - `--smoke` is the CI gate and writes no JSON. It first runs the TINY
//!   gates: telemetry must leave a small exploration bit-identical and
//!   cost under 5 % wall, the incremental STA must take its fast paths,
//!   `eco.phase2` must stay inside its budget, a kill/resume cycle must
//!   reproduce the uninterrupted run, and journal appends must cost under
//!   2 % of a journaled explore. Then it runs the Camellia and
//!   openMSP430_1 rows on a reduced schedule and asserts the wall and
//!   peak-RSS budgets and an incremental replay faster than the full one
//!   on every row.
//!
//! Designs above [`BIG_DESIGN_CELLS`] cells run a reduced schedule and
//! replay only the first [`BIG_REPLAY_CAP`] schedule points through the
//! full/incremental comparison (a full from-scratch re-implementation of
//! a 100k-cell chip costs tens of seconds; the cap keeps the matrix under
//! control). The row's `population`/`generations`/`replay_points` fields
//! record exactly what ran — no silent caps.

use std::time::Instant;

use gdsii_guard::obs::MetricsSnapshot;
use gdsii_guard::prelude::*;
use gdsii_guard::serve::{peak_rss_bytes, JobSpec, Server, ServerConfig};
use gdsii_guard::BETA_POWER;
use gg_bench::GG_GA_PARAMS;
use netlist::bench::DesignSpec;
use tech::Technology;

/// Cell count past which a design is "big": reduced schedule, capped
/// replay.
const BIG_DESIGN_CELLS: usize = 50_000;
/// Schedule points replayed through both evaluation paths on big designs.
const BIG_REPLAY_CAP: usize = 4;
/// The scaled stress design appended to the matrix: 7 × AES_2 = 112k
/// cells, comfortably past the 100k bar.
const SCALED_DESIGN: &str = "AES_2@x7";
/// Clock periods of total negative slack the hypervolume reference
/// admits, as in the repo benchmark's `front_hv`.
const TNS_REF_PERIODS: f64 = 2.0;

/// Smoke budgets (also asserted for the scaled design in a full matrix
/// run): the reduced two-design smoke must finish inside this wall, and
/// the process peak RSS must stay under this byte budget.
const SMOKE_WALL_BUDGET_SECS: f64 = 120.0;
const SMOKE_PEAK_RSS_BUDGET_BYTES: u64 = 1 << 30; // 1 GiB

/// Per-phase span walls and cache/STA counters of a row's instrumented
/// explore. A span's total sums every thread that closed it.
#[derive(Debug, Clone)]
struct Phases {
    baseline_implement_secs: f64,
    phase_a_route_secs: f64,
    phase_b_rrr_secs: f64,
    incremental_sta_secs: f64,
    nsga2_generation_secs: f64,
    lda_eco_place_secs: f64,
    eco_phase2_secs: f64,
    eco_compaction_fallbacks: u64,
    eval_cache_hits: u64,
    eval_cache_misses: u64,
    eval_memo_hits: u64,
    sta_clean_hits: u64,
    sta_cone_nets: u64,
    sta_early_exits: u64,
    rrr_rounds: u64,
    /// Phase-B calls the stall rule ended before their last round.
    rrr_stalls: u64,
    /// Nets ripped up and rerouted, summed over every RRR round.
    rrr_victims: u64,
    /// Maze searches run (the count of the `maze.pops` histogram).
    maze_searches: u64,
    /// Frontier pops over all maze searches (that histogram's sum).
    maze_pops: u64,
    faults_injected: u64,
}

ggjson::json_struct!(Phases {
    baseline_implement_secs,
    phase_a_route_secs,
    phase_b_rrr_secs,
    incremental_sta_secs,
    nsga2_generation_secs,
    lda_eco_place_secs,
    eco_phase2_secs,
    eco_compaction_fallbacks,
    eval_cache_hits,
    eval_cache_misses,
    eval_memo_hits,
    sta_clean_hits,
    sta_cone_nets,
    sta_early_exits,
    rrr_rounds,
    rrr_stalls,
    rrr_victims,
    maze_searches,
    maze_pops,
    faults_injected
});

impl Phases {
    fn from_snapshot(t: &MetricsSnapshot) -> Self {
        let secs = |name: &str| t.span_total_nanos(name) as f64 / 1e9;
        let maze_pops = t.histograms.iter().find(|h| h.name == "maze.pops");
        Self {
            baseline_implement_secs: secs("baseline.implement"),
            phase_a_route_secs: secs("route.phase_a") + secs("route.phase_a_patch"),
            phase_b_rrr_secs: secs("route.phase_b"),
            incremental_sta_secs: secs("sta.incremental"),
            nsga2_generation_secs: secs("nsga2.generation"),
            lda_eco_place_secs: secs("lda.eco_place"),
            eco_phase2_secs: secs("eco.phase2"),
            eco_compaction_fallbacks: t.counter("eco.compaction_fallbacks"),
            eval_cache_hits: t.counter("eval.cache_hits"),
            eval_cache_misses: t.counter("eval.cache_misses"),
            eval_memo_hits: t.counter("eval.memo_hits"),
            sta_clean_hits: t.counter("sta.clean_hits"),
            sta_cone_nets: t.counter("sta.cone_nets"),
            sta_early_exits: t.counter("sta.early_exits"),
            rrr_rounds: t.counter("rrr.rounds"),
            rrr_stalls: t.counter("rrr.stalls"),
            rrr_victims: t.counter("rrr.victims"),
            maze_searches: maze_pops.map_or(0, |h| h.count),
            maze_pops: maze_pops.map_or(0, |h| h.sum),
            faults_injected: t.counter("faults.injected"),
        }
    }
}

#[derive(Debug, Clone)]
struct SuiteRow {
    design: String,
    cells: u64,
    population: u64,
    generations: u64,
    evaluations: u64,
    quarantined: u64,
    /// Evaluated points, quarantined ones aside, over the DRC bound
    /// (`FlowMetrics::drc_limit`).
    infeasible_drc: u64,
    /// Evaluated points, quarantined ones aside, over the power bound
    /// (`BETA_POWER` times the baseline's power).
    infeasible_power: u64,
    degraded: u64,
    baseline_wall_secs: f64,
    explore_wall_secs: f64,
    evals_per_sec: f64,
    /// Mean Phase-B (rip-up-and-reroute) wall per candidate evaluation
    /// that ran it, in ms: the explore's `route.phase_b` span time over
    /// that span's count (memo hits run no Phase B).
    phase_b_ms_per_candidate: f64,
    replay_points: u64,
    replay_full_wall_secs: f64,
    replay_incremental_wall_secs: f64,
    replay_speedup: f64,
    front_size: u64,
    hypervolume: f64,
    best_security: f64,
    security_delta: f64,
    base_tns_ps: f64,
    front_tns_ps: f64,
    tns_delta_ps: f64,
    base_drc: u64,
    /// DRC of the security-best front point (`base_drc` when the front
    /// is empty).
    front_drc: u64,
    occupancy_bytes: u64,
    route_planes_bytes: u64,
    eval_cache_bytes: u64,
    /// Process `VmHWM` after the row's run. The kernel counter is
    /// monotone, so rows carry cumulative peaks: the increase over the
    /// previous row is what the row's design added.
    peak_rss_bytes: u64,
    phases: Phases,
}

ggjson::json_struct!(SuiteRow {
    design,
    cells,
    population,
    generations,
    evaluations,
    quarantined,
    infeasible_drc,
    infeasible_power,
    degraded,
    baseline_wall_secs,
    explore_wall_secs,
    evals_per_sec,
    phase_b_ms_per_candidate,
    replay_points,
    replay_full_wall_secs,
    replay_incremental_wall_secs,
    replay_speedup,
    front_size,
    hypervolume,
    best_security,
    security_delta,
    base_tns_ps,
    front_tns_ps,
    tns_delta_ps,
    base_drc,
    front_drc,
    occupancy_bytes,
    route_planes_bytes,
    eval_cache_bytes,
    peak_rss_bytes,
    phases
});

/// Replays `points` serially through `eval`, returning the wall seconds
/// and every result. Serial on purpose: one worker keeps the thread-local
/// scratch warm and makes the full-vs-incremental walls comparable across
/// machines with different core counts.
fn replay(
    points: &[&EvalPoint],
    eval: impl Fn(&EvalPoint) -> FlowMetrics,
) -> (f64, Vec<FlowMetrics>) {
    let t0 = Instant::now();
    let metrics = points.iter().map(|p| eval(p)).collect();
    (t0.elapsed().as_secs_f64(), metrics)
}

/// Runs one design through baseline + explore + replay comparison and
/// fills its suite row. Panics if the replays disagree with each other
/// or with the explore.
fn run_design(spec: &DesignSpec, tech: &Technology, params: &Nsga2Params) -> SuiteRow {
    let big = spec.target_cells > BIG_DESIGN_CELLS;
    let params = if big {
        Nsga2Params {
            population: params.population.min(4),
            generations: params.generations.min(1),
            ..*params
        }
    } else {
        *params
    };

    gdsii_guard::obs::reset();
    gdsii_guard::obs::set_enabled(true);

    let t0 = Instant::now();
    let base = implement_baseline(spec, tech).expect("baseline implements");
    let baseline_wall_secs = t0.elapsed().as_secs_f64();
    let at_baseline = gdsii_guard::obs::snapshot();

    let t0 = Instant::now();
    let engine = EvalEngine::new(&base, tech);
    let result = explore_with_engine(&engine, tech, &params, &ExploreOptions::default())
        .expect("explore has no error path");
    // The engine's teardown stays in the wall, as when `explore` owned it.
    let mem = engine.memory_footprint();
    drop(engine);
    let explore_wall_secs = t0.elapsed().as_secs_f64();
    let telemetry = gdsii_guard::obs::snapshot();
    gdsii_guard::obs::set_enabled(false);

    let evaluations = result.points.len() as u64;
    // The explore's own Phase B, without the baseline's.
    let phase_b_nanos =
        telemetry.span_total_nanos("route.phase_b") - at_baseline.span_total_nanos("route.phase_b");
    let phase_b_runs =
        telemetry.span_count("route.phase_b") - at_baseline.span_count("route.phase_b");

    // Replay comparison: the same schedule points through a fresh
    // incremental engine and the from-scratch path, telemetry off. Big
    // designs replay a capped prefix (recorded in `replay_points`).
    //
    // The incremental replay runs first on purpose: the full path's
    // from-scratch implementations churn the allocator enough that an
    // identical eval loop run afterwards measures 15-25% slower.
    let points: Vec<&EvalPoint> = result
        .points
        .iter()
        .take(if big { BIG_REPLAY_CAP } else { usize::MAX })
        .collect();
    let engine = EvalEngine::new(&base, tech);
    let (replay_incremental_wall_secs, incremental) = replay(&points, |p| {
        FlowRun::new(engine.base(), tech, &p.config)
            .engine(&engine)
            .seed(p.genome.flow_seed())
            .metrics()
            .unwrap()
    });
    let (replay_full_wall_secs, full) = replay(&points, |p| {
        FlowRun::new(&base, tech, &p.config)
            .seed(p.genome.flow_seed())
            .metrics()
            .unwrap()
    });
    for ((p, inc), full) in points.iter().zip(&incremental).zip(&full) {
        assert_eq!(
            inc, full,
            "{}: incremental replay diverged from the full path on {:?}",
            spec.name, p.genome
        );
        if !result.quarantined.iter().any(|q| q.genome == p.genome) {
            assert_eq!(
                &p.metrics, inc,
                "{}: replay diverged from the explore's recorded metrics on {:?}",
                spec.name, p.genome
            );
        }
    }

    // Front quality: hypervolume against a reference fixed per design
    // (security 1.0, the baseline's own score, and a TNS bound of
    // `TNS_REF_PERIODS` clock periods), normalized by the reference box
    // so rows compare across runs; plus the security-best front point's
    // deltas vs the baseline.
    let front = result.pareto_front();
    let tns_ref = TNS_REF_PERIODS * spec.clock_period();
    let hypervolume = result.hypervolume([1.0, tns_ref]) / tns_ref;
    let best = front
        .iter()
        .min_by(|a, b| a.metrics.security.total_cmp(&b.metrics.security));
    let best_security = best.map_or(1.0, |p| p.metrics.security);
    let front_tns_ps = best.map_or(result.base_tns_ps, |p| p.metrics.tns_ps);
    let front_drc = best.map_or(result.base_drc, |p| p.metrics.drc);

    // Why points missed the front: each non-quarantined point over the
    // DRC bound, and each over the power bound (a point can be both).
    let (mut infeasible_drc, mut infeasible_power) = (0, 0);
    for p in &result.points {
        if result.quarantined.iter().any(|q| q.genome == p.genome) {
            continue;
        }
        infeasible_drc += u64::from(p.metrics.drc > FlowMetrics::drc_limit(result.base_drc));
        infeasible_power += u64::from(p.metrics.power_mw > BETA_POWER * result.base_power_mw);
    }

    SuiteRow {
        design: spec.name.to_string(),
        cells: spec.target_cells as u64,
        population: params.population as u64,
        generations: params.generations as u64,
        evaluations,
        quarantined: result.quarantined.len() as u64,
        infeasible_drc,
        infeasible_power,
        degraded: telemetry.counter("eval.degraded"),
        baseline_wall_secs,
        explore_wall_secs,
        evals_per_sec: evaluations as f64 / explore_wall_secs.max(1e-9),
        phase_b_ms_per_candidate: phase_b_nanos as f64 / 1e6 / phase_b_runs.max(1) as f64,
        replay_points: points.len() as u64,
        replay_full_wall_secs,
        replay_incremental_wall_secs,
        replay_speedup: replay_full_wall_secs / replay_incremental_wall_secs.max(1e-9),
        front_size: front.len() as u64,
        hypervolume,
        best_security,
        security_delta: 1.0 - best_security,
        base_tns_ps: result.base_tns_ps,
        front_tns_ps,
        tns_delta_ps: front_tns_ps - result.base_tns_ps,
        base_drc: result.base_drc.into(),
        front_drc: front_drc.into(),
        occupancy_bytes: mem.occupancy_bytes,
        route_planes_bytes: mem.route_planes_bytes,
        eval_cache_bytes: mem.cache_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        phases: Phases::from_snapshot(&telemetry),
    }
}

/// The TINY smoke gates (see the module docs), in order.
fn tiny_gates(tech: &Technology) {
    let spec = netlist::bench::tiny_spec();
    let params = Nsga2Params::builder()
        .population(6)
        .generations(2)
        .seed(GG_GA_PARAMS.seed)
        .threads(4)
        .build();
    const REPS: usize = 3;
    // The telemetry overhead is the median, over pairs of runs with
    // telemetry off and on, of the on/off wall ratio. A run is a fresh
    // baseline plus the 4-thread explore, 4-10 ms, and single runs on a
    // shared 2-vCPU host swing by ±20 %, four times the budget, so only
    // many paired runs resolve it. Each pair flips the order of the one
    // before, so warm-up and drift fall on both sides. Pairs run until
    // each side has run for `SIDE_SECS`.
    const SIDE_SECS: f64 = 1.0;
    const MIN_PAIRS: usize = 15;

    let run = || {
        let base = implement_baseline(&spec, tech).expect("baseline implements");
        explore(&base, tech, &params)
    };
    let timed = |enabled: bool| {
        gdsii_guard::obs::reset();
        gdsii_guard::obs::set_enabled(enabled);
        let t0 = Instant::now();
        std::hint::black_box(run());
        let wall = t0.elapsed().as_secs_f64();
        gdsii_guard::obs::set_enabled(false);
        wall
    };

    // Untimed warm-up, which is also the telemetry-off result.
    let off = run();
    let mut ratios = Vec::new();
    let (mut side_off, mut side_on) = (0.0f64, 0.0f64);
    while ratios.len() < MIN_PAIRS || side_off.min(side_on) < SIDE_SECS {
        let (w_off, w_on) = if ratios.len() % 2 == 0 {
            let w_off = timed(false);
            (w_off, timed(true))
        } else {
            let w_on = timed(true);
            (timed(false), w_on)
        };
        (side_off, side_on) = (side_off + w_off, side_on + w_on);
        ratios.push(w_on / w_off);
    }
    ratios.sort_by(f64::total_cmp);
    // One instrumented explore: the telemetry-on result, and the registry
    // the gates below read.
    gdsii_guard::obs::reset();
    gdsii_guard::obs::set_enabled(true);
    let on = run();
    gdsii_guard::obs::set_enabled(false);
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

    let quartile = |q: usize| ratios[ratios.len() * q / 4] - 1.0;
    let delta = quartile(2);
    println!(
        "smoke: {} evaluations; {} interleaved run pairs, {side_off:.3}s disabled vs \
         {side_on:.3}s enabled ({:+.2} % telemetry overhead, median pair; quartiles \
         {:+.1} / {:+.1} %)",
        off.points.len(),
        ratios.len(),
        delta * 100.0,
        quartile(1) * 100.0,
        quartile(3) * 100.0,
    );
    assert!(
        delta < 0.05,
        "telemetry-enabled wall exceeds the 5 % overhead budget: {:+.2} %",
        delta * 100.0
    );

    // The incremental STA must actually take its fast paths — a refactor
    // that silently routes everything through a slow path would leave the
    // bench measuring dead code. Skipped under GG_FAULTS: an armed drill
    // legitimately degrades every incremental evaluation to the full
    // re-eval path.
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

    // Regression gate on the gap-indexed legalizer: the index-backed
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

    // Kill/resume drill: save the run after generation 1 and drop it (the
    // state a SIGKILL between generations leaves behind), resume from
    // disk, and demand the exact trajectory of the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("gg-bench-smoke-{}", std::process::id()));
    let ckpt = dir.join("checkpoint.ggjson");
    let base = implement_baseline(&spec, tech).expect("baseline implements");
    let policy = ExploreOptions::default();
    let engine = EvalEngine::new(&base, tech);
    let mut run = Exploration::start(&engine, tech, &params, &policy);
    run.step(&engine, tech, &policy);
    run.checkpoint(&base)
        .save(&ckpt)
        .expect("checkpoint the interrupted smoke run");
    drop((run, engine));
    let cp = Checkpoint::load(&ckpt).expect("load the smoke checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    let mut run = Exploration::resume(&cp, &base, &params).expect("resumed smoke run");
    let engine = EvalEngine::new(&base, tech);
    while run.generation() < params.generations {
        run.step(&engine, tech, &policy);
    }
    assert_eq!(
        ggjson::to_string_pretty(&off),
        ggjson::to_string_pretty(&run.result(&base)),
        "kill/resume cycle diverged from the uninterrupted run"
    );
    println!("smoke: kill/resume cycle bit-identical");

    // Journal overhead drill: the same explore through an in-process job
    // server with the durable WAL on; the summed wall of the
    // `journal.append` spans must stay under 2 % of the explore wall.
    // Best of REPS.
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
        let mut job = JobSpec::explore("TINY");
        job.population = 6;
        job.generations = 2;
        server.submit(job).expect("submit journaled explore");
        // The submit append carries the journal's one fsync per job — a
        // constant admission cost, not explore overhead — so the budget
        // gates the span deltas across the explore itself.
        let before = gdsii_guard::obs::snapshot();
        let t0 = Instant::now();
        server.run_until_idle();
        let journal_wall = t0.elapsed().as_secs_f64();
        gdsii_guard::obs::set_enabled(false);
        let t = gdsii_guard::obs::snapshot();
        let appends_secs = |s: &MetricsSnapshot| s.span_total_nanos("journal.append") as f64 / 1e9;
        let journal_secs = appends_secs(&t) - appends_secs(&before);
        let journal_writes = t.span_count("journal.append") - before.span_count("journal.append");
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
                appends_secs(&t),
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

fn print_row(r: &SuiteRow) {
    println!(
        "{:<12} {:>7} cells  base {:>7.2}s  explore {:>7.2}s ({:>6.1} ev/s)  \
         replay x{:<5.1} hv {:>9.3}  sec {:.3}  peak {:>4} MiB",
        r.design,
        r.cells,
        r.baseline_wall_secs,
        r.explore_wall_secs,
        r.evals_per_sec,
        r.replay_speedup,
        r.hypervolume,
        r.best_security,
        r.peak_rss_bytes >> 20,
    );
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    v.parse().ok().or_else(|| {
        eprintln!("{flag}: cannot parse '{v}'");
        std::process::exit(2);
    })
}

fn resolve_or_die(name: &str) -> DesignSpec {
    gdsii_guard::serve::baseline::resolve_spec(name).unwrap_or_else(|| {
        eprintln!(
            "unknown design '{name}'; known designs: {}",
            gdsii_guard::serve::baseline::known_designs()
        );
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let tech = Technology::nangate45_like();
    let params = Nsga2Params::builder()
        .population(flag_value(&args, "--pop").unwrap_or(8))
        .generations(flag_value(&args, "--gens").unwrap_or(3))
        .seed(flag_value(&args, "--seed").unwrap_or(GG_GA_PARAMS.seed))
        .threads(flag_value(&args, "--threads").unwrap_or(0))
        .build();

    let single = flag_value::<String>(&args, "--design");
    let specs: Vec<DesignSpec> = if smoke {
        vec![resolve_or_die("Camellia"), resolve_or_die("openMSP430_1")]
    } else if let Some(name) = &single {
        vec![resolve_or_die(name)]
    } else {
        let mut all = vec![netlist::bench::tiny_spec()];
        all.extend(netlist::bench::all_specs());
        all.push(resolve_or_die(SCALED_DESIGN));
        all
    };

    let params = if smoke {
        tiny_gates(&tech);
        Nsga2Params {
            population: 4,
            generations: 2,
            ..params
        }
    } else {
        params
    };

    let suite_t0 = Instant::now();
    let mut rows = Vec::with_capacity(specs.len());
    for spec in &specs {
        let row = run_design(spec, &tech, &params);
        print_row(&row);
        // The scaled stress design must stay inside the smoke memory
        // budget — the whole point of the memory-lean data structures.
        if spec.target_cells > 100_000 {
            assert!(
                row.peak_rss_bytes < SMOKE_PEAK_RSS_BUDGET_BYTES,
                "{}: peak RSS {} exceeds the {} byte budget",
                spec.name,
                row.peak_rss_bytes,
                SMOKE_PEAK_RSS_BUDGET_BYTES
            );
        }
        rows.push(row);
    }
    let suite_wall_secs = suite_t0.elapsed().as_secs_f64();

    if smoke {
        let peak = peak_rss_bytes();
        println!(
            "smoke: {} designs in {suite_wall_secs:.2}s (budget {SMOKE_WALL_BUDGET_SECS}s), \
             peak RSS {} MiB (budget {} MiB)",
            rows.len(),
            peak >> 20,
            SMOKE_PEAK_RSS_BUDGET_BYTES >> 20,
        );
        assert!(
            suite_wall_secs < SMOKE_WALL_BUDGET_SECS,
            "smoke wall {suite_wall_secs:.2}s exceeds the {SMOKE_WALL_BUDGET_SECS}s budget"
        );
        assert!(
            peak != 0 && peak < SMOKE_PEAK_RSS_BUDGET_BYTES,
            "smoke peak RSS {peak} outside the {SMOKE_PEAK_RSS_BUDGET_BYTES} byte budget"
        );
        for r in &rows {
            assert!(
                r.replay_speedup > 1.0,
                "{}: incremental replay slower than full ({:.2}x)",
                r.design,
                r.replay_speedup
            );
        }
        println!("smoke: OK (every gate passed, every replay equal to the explore)");
        return;
    }
    if single.is_some() {
        println!("{}", ggjson::to_string_compact(&rows[0]));
        println!("suite: one design in {suite_wall_secs:.2}s; BENCH_suite.json left as it was");
        return;
    }

    let j = ggjson::Json::Obj(vec![
        (
            "threads".into(),
            ggjson::Json::Num(params.resolved_threads() as f64),
        ),
        ("suite_wall_secs".into(), ggjson::Json::Num(suite_wall_secs)),
        (
            "designs".into(),
            ggjson::Json::Arr(rows.iter().map(ggjson::ToJson::to_json).collect()),
        ),
    ]);

    // Workspace root: crates/bench/ -> repo root.
    let mut out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    out.pop();
    out.pop();
    let out = out.join("BENCH_suite.json");
    std::fs::write(&out, ggjson::to_vec_pretty(&j)).expect("write BENCH_suite.json");
    println!(
        "suite: {} designs in {suite_wall_secs:.2}s; wrote {}",
        rows.len(),
        out.display()
    );
}

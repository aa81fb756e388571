//! Telemetry is observation-only: enabling the obs subsystem must not
//! perturb a single bit of the exploration trajectory.
//!
//! The NSGA-II explore run is fully deterministic for a fixed seed, so the
//! strongest possible regression check is cheap: run the same small
//! exploration with telemetry off and on and compare every evaluated
//! point — genome schedule and resulting metrics — for exact equality.
//! A telemetry hook that ever consumed randomness, reordered work, or
//! mutated shared state would show up here as a diverged trajectory.
//!
//! The obs registry and its enabled flag are process-global, so every
//! test serializes on one gate.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use gdsii_guard::prelude::*;
use gdsii_guard::serve::{Journal, JournalRecord};
use netlist::bench;
use tech::Technology;

static GATE: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn small_explore() -> ExploreResult {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&bench::tiny_spec(), &tech).expect("tiny baseline");
    let params = Nsga2Params::builder()
        .population(6)
        .generations(2)
        .seed(0x7E1E)
        .threads(2)
        .build();
    explore(&base, &tech, &params)
}

#[test]
fn enabling_telemetry_is_bit_identical() {
    let _g = locked();
    obs::reset();
    obs::set_enabled(false);
    let off = small_explore();

    obs::reset();
    obs::set_enabled(true);
    let on = small_explore();
    let snap = obs::snapshot();
    obs::set_enabled(false);

    assert_eq!(
        off.points.len(),
        on.points.len(),
        "evaluation count diverged with telemetry enabled"
    );
    for (a, b) in off.points.iter().zip(&on.points) {
        assert_eq!(a.generation, b.generation, "schedule diverged");
        assert_eq!(a.genome, b.genome, "genome schedule diverged");
        assert_eq!(a.metrics, b.metrics, "metrics diverged on {:?}", a.genome);
    }

    // The instrumented run must actually have recorded something — an
    // accidentally dead obs wiring would make this test vacuous.
    assert!(!snap.is_empty(), "instrumented run recorded no telemetry");
    assert!(
        snap.counter("nsga2.evaluations") > 0,
        "nsga2.evaluations counter not wired"
    );
    assert!(
        snap.span_count("nsga2.generation") > 0,
        "nsga2.generation span not wired"
    );
}

/// A checkpoint save and a journal append each record one span, only
/// while telemetry is on, so writes made before an `obs::reset()` leave
/// nothing behind: one enabled write reads as one write of its own wall.
#[test]
fn write_spans_count_only_the_writes_since_reset() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("gg-telemetry-writes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoint = Checkpoint {
        base_fingerprint: "0".repeat(16),
        params: Nsga2Params::default(),
        generation: 0,
        rng: vec!["0".repeat(16); 4],
        pop: Vec::new(),
        order: Vec::new(),
        cache: Vec::new(),
        quarantine: Vec::new(),
    };
    let path = dir.join("run.ckpt");
    let journal = Journal::open(&dir.join("journal")).expect("open journal");
    let record = JournalRecord::transition(1, "started");

    obs::set_enabled(false);
    for _ in 0..5 {
        checkpoint.save(&path).expect("save");
        assert!(journal.append(&record), "append succeeds");
    }
    obs::reset();
    obs::set_enabled(true);
    let t0 = Instant::now();
    checkpoint.save(&path).expect("save");
    let save_wall = t0.elapsed();
    let t0 = Instant::now();
    assert!(journal.append(&record), "append succeeds");
    let append_wall = t0.elapsed();
    let snap = obs::snapshot();
    obs::set_enabled(false);

    for (span, wall) in [
        ("checkpoint.save", save_wall),
        ("journal.append", append_wall),
    ] {
        assert_eq!(snap.span_count(span), 1, "{span}");
        assert!(
            snap.span_total_nanos(span) <= wall.as_nanos() as u64,
            "{span}: {} ns recorded for a write of {wall:?}",
            snap.span_total_nanos(span)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine's cache counters are a function of the code alone, at any
/// worker count: every evaluation is served by exactly one of the metrics
/// memo, an edit-cache hit or an edit-cache miss, a key is built once
/// however many workers ask for it, and the TINY explore never reaches
/// the edit cache's byte budget.
fn assert_engine_cache_counters_pinned(threads: usize) {
    let _g = locked();
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&bench::tiny_spec(), &tech).expect("tiny baseline");
    let params = Nsga2Params::builder()
        .population(16)
        .generations(4)
        .seed(0x6D51)
        .threads(threads)
        .build();
    obs::reset();
    obs::set_enabled(true);
    let engine = EvalEngine::new(&base, &tech);
    let result =
        explore_with_engine(&engine, &tech, &params, &ExploreOptions::default()).expect("explore");
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let hits = snap.counter("eval.cache_hits");
    let misses = snap.counter("eval.cache_misses");
    let memo_hits = snap.counter("eval.memo_hits");
    assert_eq!(hits, 63, "eval.cache_hits at {threads} workers");
    assert_eq!(misses, 12, "eval.cache_misses at {threads} workers");
    assert_eq!(memo_hits, 3, "eval.memo_hits at {threads} workers");
    assert_eq!(snap.counter("eval.cache_evictions"), 0);
    assert_eq!(hits + misses + memo_hits, snap.counter("nsga2.evaluations"));
    assert_eq!(
        snap.counter("nsga2.evaluations"),
        result.points.len() as u64
    );
    assert_eq!(result.points.len(), 78);
}

#[test]
fn engine_cache_counters_are_pinned_at_one_worker() {
    assert_engine_cache_counters_pinned(1);
}

#[test]
fn engine_cache_counters_are_pinned_at_two_workers() {
    assert_engine_cache_counters_pinned(2);
}

#[test]
fn engine_cache_counters_are_pinned_at_four_workers() {
    assert_engine_cache_counters_pinned(4);
}

//! Fault-containment matrix over every registered injection point.
//!
//! For each point the registry knows (`route.overflow`, `sta.diverge`,
//! `eval.panic`, `eco.legalize`) this suite arms a spec programmatically
//! and asserts the three containment properties the sandbox claims:
//!
//! 1. a stage-0 fault degrades to the full re-eval and the final result
//!    is *bit-identical* to a fault-free run (the incremental engine and
//!    the from-scratch oracle agree, so recovery is exact);
//! 2. a persistent (`!`) fault exhausts the degrade chain, quarantines
//!    the candidate with penalty metrics, and never aborts the process;
//! 3. with no spec armed the whole machinery is invisible: runs are
//!    bit-identical to each other and to the reference.
//!
//! The service-level `journal.write` point fires outside any evaluation;
//! its drill checks that a failed append loses no later record.
//!
//! Fault config is process-global, so every test serializes on one gate.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use gdsii_guard::prelude::*;
use gdsii_guard::serve::{Journal, JournalRecord};
use netlist::bench;
use tech::Technology;

static GATE: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn fixture() -> &'static (Technology, Snapshot) {
    static FIXTURE: OnceLock<(Technology, Snapshot)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).expect("tiny baseline");
        (tech, base)
    })
}

fn params() -> Nsga2Params {
    Nsga2Params::builder()
        .population(5)
        .generations(2)
        .seed(0xFA17)
        .threads(2)
        .build()
}

/// Fault-free reference trajectory (computed once, under the gate, with
/// nothing armed).
fn reference() -> &'static String {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        assert!(!faults::armed(), "reference computed with a spec armed");
        let (tech, base) = fixture();
        ggjson::to_string_pretty(&explore(base, tech, &params()))
    })
}

#[test]
fn stage0_faults_at_every_point_recover_bit_identically() {
    let _g = locked();
    faults::clear();
    let reference = reference().clone();
    let (tech, base) = fixture();

    for point in [
        "route.overflow",
        "sta.diverge",
        "eval.panic",
        "eco.legalize",
    ] {
        faults::arm_spec(&format!("{point}:always")).expect("arm");
        obs::reset();
        obs::set_enabled(true);
        let run = explore(base, tech, &params());
        let snap = obs::snapshot();
        obs::set_enabled(false);
        faults::clear();

        assert!(
            run.quarantined.is_empty(),
            "{point}: stage-0 fault must not quarantine (full re-eval recovers)"
        );
        assert!(
            snap.counter("faults.injected") > 0,
            "{point}: no fault ever fired"
        );
        assert!(
            snap.counter("eval.degraded") > 0,
            "{point}: no candidate was degraded"
        );
        assert_eq!(snap.counter("eval.quarantined"), 0, "{point}");
        assert_eq!(
            ggjson::to_string_pretty(&run),
            reference,
            "{point}: degrade-and-recover diverged from the fault-free run"
        );
    }
}

#[test]
fn persistent_fault_quarantines_without_aborting() {
    let _g = locked();
    faults::clear();
    let reference = reference().clone();
    let (tech, base) = fixture();

    faults::arm_spec("route.overflow:always!").expect("arm");
    obs::reset();
    obs::set_enabled(true);
    let run = explore(base, tech, &params());
    let snap = obs::snapshot();
    obs::set_enabled(false);
    faults::clear();

    assert!(!run.quarantined.is_empty(), "nothing was quarantined");
    assert_eq!(
        run.quarantined.len(),
        run.points.len(),
        "an always!-armed point must quarantine every evaluated candidate"
    );
    for q in &run.quarantined {
        assert!(
            q.incremental.contains("route.overflow"),
            "{}",
            q.incremental
        );
        assert!(q.full.contains("route.overflow"), "{}", q.full);
    }
    assert!(
        run.pareto_front().is_empty(),
        "penalty metrics must never be feasible"
    );
    assert!(snap.counter("eval.quarantined") > 0);
    assert!(snap.counter("faults.injected") > 0);

    // Disarming restores the exact fault-free trajectory: quarantine is
    // keyed on (genome, seed), never on leftover global state.
    let clean = explore(base, tech, &params());
    assert_eq!(ggjson::to_string_pretty(&clean), reference);
}

#[test]
fn targeted_and_probabilistic_triggers_are_contained() {
    let _g = locked();
    faults::clear();
    let reference = reference().clone();
    let (tech, base) = fixture();

    faults::arm_spec("eval.panic:g0c0,route.overflow:0.5,seed=7").expect("arm");
    obs::reset();
    obs::set_enabled(true);
    let run = explore(base, tech, &params());
    let snap = obs::snapshot();
    obs::set_enabled(false);
    faults::clear();

    assert!(
        run.quarantined.is_empty(),
        "non-persistent faults recovered"
    );
    // g0c0 targets candidate 0 of the initial population, which always
    // exists, so at least one injection is guaranteed.
    assert!(snap.counter("faults.injected") > 0);
    assert_eq!(ggjson::to_string_pretty(&run), reference);
}

#[test]
fn zero_deadline_quarantines_every_candidate() {
    let _g = locked();
    faults::clear();
    let (tech, base) = fixture();

    let run = explore_with_engine(
        &EvalEngine::new(base, tech),
        tech,
        &params(),
        &ExploreOptions {
            deadline: Some(Duration::ZERO),
        },
    )
    .expect("deadline run must complete, not abort");

    assert_eq!(
        run.quarantined.len(),
        run.points.len(),
        "a zero budget must exhaust the degrade chain for every candidate"
    );
    for q in &run.quarantined {
        assert!(q.incremental.contains("deadline"), "{}", q.incremental);
        assert!(q.full.contains("deadline"), "{}", q.full);
    }
    assert!(run.pareto_front().is_empty());
}

/// A build that unwinds leaves its edit-cache slot empty: the next asker
/// of the key builds the edit itself (one miss, no hit) and gets the
/// oracle's metrics.
#[test]
fn unwound_edit_build_is_rebuilt_by_the_next_asker() {
    let _g = locked();
    faults::clear();
    let (tech, base) = fixture();
    let engine = EvalEngine::new(base, tech);
    let cfg = FlowConfig::lda_default();
    let run = || {
        FlowRun::new(engine.base(), tech, &cfg)
            .engine(&engine)
            .metrics()
            .expect("engine metrics")
    };

    faults::arm_spec("eco.legalize:always").expect("arm");
    let unwound = {
        let _ctx = faults::push_context(0, 0, 1, 0);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
    };
    faults::clear();
    let payload = unwound.expect_err("the armed edit build must unwind");
    assert_eq!(
        faults::payload_of(&*payload),
        Some(faults::FaultPayload::Injected {
            point: "eco.legalize"
        })
    );

    obs::reset();
    obs::set_enabled(true);
    let metrics = run();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(snap.counter("eval.cache_misses"), 1);
    assert_eq!(snap.counter("eval.cache_hits"), 0);
    assert_eq!(snap.counter("eval.memo_hits"), 0);
    let oracle = FlowRun::new(base, tech, &cfg).metrics().expect("oracle");
    assert_eq!(metrics, oracle);
}

#[test]
fn unarmed_runs_are_bit_identical() {
    let _g = locked();
    faults::clear();
    let reference = reference().clone();
    let (tech, base) = fixture();
    assert!(!faults::armed());

    let a = explore(base, tech, &params());
    let b = explore(base, tech, &params());
    assert_eq!(ggjson::to_string_pretty(&a), ggjson::to_string_pretty(&b));
    assert_eq!(ggjson::to_string_pretty(&a), reference);
}

#[test]
fn injected_write_faults_degrade_without_losing_later_records() {
    let _g = locked();
    let dir = std::env::temp_dir().join(format!("gg-fault-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    faults::arm_spec("journal.write:always").expect("arm");
    let j = Journal::open(&dir).expect("open");
    assert!(
        !j.append(&JournalRecord::transition(1, "started")),
        "fault drops the append"
    );
    faults::clear();
    assert!(j.append(&JournalRecord::transition(1, "paused")));
    let back = Journal::replay(&dir).expect("replay");
    assert_eq!(back, vec![JournalRecord::transition(1, "paused")]);
    std::fs::remove_dir_all(&dir).ok();
}

//! Kill-at-every-generation resume matrix.
//!
//! The strongest crash-safety property the checkpoint layer claims is
//! that interrupting an exploration after *any* completed generation and
//! resuming from disk yields a result byte-identical to the uninterrupted
//! run — same genome schedule, same metrics, same archive order, same
//! quarantine ledger. Each kill saves the [`Exploration`] after generation
//! k and drops it, exactly the state a SIGKILL between generations would
//! leave behind, then resumes a fresh one from the file on a fresh engine.

use std::sync::OnceLock;

use gdsii_guard::prelude::*;
use netlist::bench;
use tech::Technology;

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
        .generations(3)
        .seed(0xC0FF_EE11)
        .threads(2)
        .build()
}

/// Runs `params` to generation `kill_at`, saves the run and drops it, then
/// resumes from the file and finishes; returns the final result's JSON.
fn kill_and_resume(params: &Nsga2Params, kill_at: usize, tag: &str) -> String {
    let (tech, base) = fixture();
    let policy = ExploreOptions::default();
    let dir =
        std::env::temp_dir().join(format!("gg-resume-{tag}-{}-g{kill_at}", std::process::id()));
    let path = dir.join("checkpoint.ggjson");

    let engine = EvalEngine::new(base, tech);
    let mut run = Exploration::start(&engine, tech, params, &policy);
    while run.generation() < kill_at {
        run.step(&engine, tech, &policy);
    }
    run.checkpoint(base).save(&path).expect("save checkpoint");
    // The partial result must be a strict prefix of the full archive.
    assert!(
        run.result(base)
            .points
            .iter()
            .all(|p| p.generation <= kill_at),
        "the run at generation {kill_at} holds later-generation evaluations"
    );
    drop((run, engine));

    let cp = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    let mut run = Exploration::resume(&cp, base, params)
        .unwrap_or_else(|e| panic!("resume after generation {kill_at}: {e}"));
    assert_eq!(run.generation(), kill_at);
    let engine = EvalEngine::new(base, tech);
    while run.generation() < params.generations {
        run.step(&engine, tech, &policy);
    }
    ggjson::to_string_pretty(&run.result(base))
}

#[test]
fn resume_at_every_generation_is_bit_identical() {
    let (tech, base) = fixture();
    let params = params();
    let reference = ggjson::to_string_pretty(&explore(base, tech, &params));
    // Kill after generation 0 (initial population), 1, 2 and 3 — every
    // checkpoint a run of 3 generations can be interrupted at, the last
    // (a finished run) included.
    for kill_at in 0..=params.generations {
        assert_eq!(
            kill_and_resume(&params, kill_at, "pop5"),
            reference,
            "resume after killing at generation {kill_at} diverged"
        );
    }
}

/// Resuming against different parameters is refused with a typed
/// checkpoint error instead of silently producing a chimera run.
#[test]
fn resume_refuses_mismatched_runs() {
    let (tech, base) = fixture();
    let policy = ExploreOptions::default();
    let engine = EvalEngine::new(base, tech);
    let cp = Exploration::start(&engine, tech, &params(), &policy).checkpoint(base);

    let other_params = Nsga2Params::builder()
        .population(5)
        .generations(3)
        .seed(0xD1FF)
        .threads(2)
        .build();
    match Exploration::resume(&cp, base, &other_params) {
        Err(Error::Checkpoint(why)) => {
            assert!(why.contains("parameters"), "unexpected reason: {why}")
        }
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
}

/// A population below two still starts from both canonical genomes, so
/// its generation-0 checkpoint holds two genomes and later ones hold
/// one. Resuming from each must accept the state the run wrote and
/// finish bit-identically.
#[test]
fn resume_below_two_genomes_is_bit_identical() {
    let (tech, base) = fixture();
    let params = Nsga2Params::builder()
        .population(1)
        .generations(2)
        .seed(0x0001_0001)
        .threads(2)
        .build();
    let reference = ggjson::to_string_pretty(&explore(base, tech, &params));
    for kill_at in 0..=params.generations {
        assert_eq!(
            kill_and_resume(&params, kill_at, "pop1"),
            reference,
            "resume after killing at generation {kill_at} diverged"
        );
    }
}

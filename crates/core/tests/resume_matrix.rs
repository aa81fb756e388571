//! Kill-at-every-generation resume matrix.
//!
//! The strongest crash-safety property the checkpoint layer claims is
//! that interrupting an exploration after *any* completed generation and
//! resuming from disk yields a result byte-identical to the uninterrupted
//! run — same genome schedule, same metrics, same archive order, same
//! quarantine ledger. `ExploreOptions::halt_after` is the deterministic
//! kill switch: it stops right after the checkpoint for that generation
//! is durably installed, exactly the state a SIGKILL between generations
//! would leave behind.

use std::sync::OnceLock;

use gdsii_guard::prelude::*;
use netlist::bench;
use tech::Technology;

fn fixture() -> &'static (Technology, Snapshot) {
    static FIXTURE: OnceLock<(Technology, Snapshot)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tech = Technology::nangate45_like();
        let base = implement_baseline_unchecked(&bench::tiny_spec(), &tech);
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

#[test]
fn resume_at_every_generation_is_bit_identical() {
    let (tech, base) = fixture();
    let params = params();

    let reference = ggjson::to_string_pretty(&explore(base, tech, &params));

    // Kill after generation 0 (initial population), 1, and 2 — every
    // checkpoint a run of 3 generations can be interrupted at.
    for kill_at in 0..params.generations {
        let dir = std::env::temp_dir().join(format!("gg-resume-{}-g{kill_at}", std::process::id()));
        let path = dir.join("checkpoint.ggjson");

        let partial = explore_with(
            base,
            tech,
            &params,
            &ExploreOptions {
                checkpoint: Some(path.clone()),
                halt_after: Some(kill_at),
                ..ExploreOptions::default()
            },
        )
        .expect("interrupted run");
        assert!(path.exists(), "checkpoint missing after halt at {kill_at}");
        // The partial result must be a strict prefix of the full archive.
        assert!(
            partial.points.iter().all(|p| p.generation <= kill_at),
            "halt_after leaked later-generation evaluations"
        );

        let resumed = explore_with(
            base,
            tech,
            &params,
            &ExploreOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..ExploreOptions::default()
            },
        )
        .expect("resumed run");
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(
            ggjson::to_string_pretty(&resumed),
            reference,
            "resume after killing at generation {kill_at} diverged"
        );
    }
}

/// Resuming against a different base snapshot or different parameters is
/// refused with a typed checkpoint error instead of silently producing a
/// chimera run.
#[test]
fn resume_refuses_mismatched_runs() {
    let (tech, base) = fixture();
    let params = params();
    let dir = std::env::temp_dir().join(format!("gg-resume-mm-{}", std::process::id()));
    let path = dir.join("checkpoint.ggjson");
    explore_with(
        base,
        tech,
        &params,
        &ExploreOptions {
            checkpoint: Some(path.clone()),
            halt_after: Some(0),
            ..ExploreOptions::default()
        },
    )
    .expect("seed run");

    let other_params = Nsga2Params::builder()
        .population(5)
        .generations(3)
        .seed(0xD1FF)
        .threads(2)
        .build();
    match explore_with(
        base,
        tech,
        &other_params,
        &ExploreOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..ExploreOptions::default()
        },
    ) {
        Err(Error::Checkpoint(why)) => {
            assert!(why.contains("parameters"), "unexpected reason: {why}")
        }
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `resume: true` with no file on disk starts a fresh run (first boot and
/// crash-before-first-checkpoint both land here).
#[test]
fn resume_without_checkpoint_starts_fresh() {
    let (tech, base) = fixture();
    let params = Nsga2Params::builder()
        .population(4)
        .generations(1)
        .seed(0xF0E5)
        .threads(2)
        .build();
    let reference = ggjson::to_string_pretty(&explore(base, tech, &params));
    let dir = std::env::temp_dir().join(format!("gg-resume-fresh-{}", std::process::id()));
    let fresh = explore_with(
        base,
        tech,
        &params,
        &ExploreOptions {
            checkpoint: Some(dir.join("checkpoint.ggjson")),
            resume: true,
            ..ExploreOptions::default()
        },
    )
    .expect("fresh run under resume flag");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(ggjson::to_string_pretty(&fresh), reference);
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
    for kill_at in 0..params.generations {
        let dir =
            std::env::temp_dir().join(format!("gg-resume-pop1-{}-g{kill_at}", std::process::id()));
        let path = dir.join("checkpoint.ggjson");
        let opts = |resume, halt_after| ExploreOptions {
            checkpoint: Some(path.clone()),
            resume,
            halt_after,
            ..ExploreOptions::default()
        };
        explore_with(base, tech, &params, &opts(false, Some(kill_at))).expect("interrupted run");
        let resumed = explore_with(base, tech, &params, &opts(true, None));
        std::fs::remove_dir_all(&dir).ok();
        let resumed = resumed.unwrap_or_else(|e| panic!("resume after generation {kill_at}: {e}"));
        assert_eq!(
            ggjson::to_string_pretty(&resumed),
            reference,
            "resume after killing at generation {kill_at} diverged"
        );
    }
}

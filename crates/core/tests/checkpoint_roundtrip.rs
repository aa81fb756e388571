//! Checkpoint persistence properties.
//!
//! Two layers: a proptest that arbitrary checkpoint states survive the
//! save → load cycle bit-identically (hex-encoded RNG words, genomes,
//! metrics, quarantine ledger), and end-to-end runs showing that an
//! exploration checkpointed after every generation but never interrupted
//! produces exactly the same result as a plain [`explore`] call for
//! multiple fixed seeds — i.e. checkpointing is observation-only.

use std::sync::OnceLock;

use gdsii_guard::checkpoint::{hex64, Checkpoint};
use gdsii_guard::prelude::*;
use netlist::bench;
use proptest::prelude::*;
use tech::{Technology, NUM_METAL_LAYERS};

fn fixture() -> &'static (Technology, Snapshot) {
    static FIXTURE: OnceLock<(Technology, Snapshot)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).expect("tiny baseline");
        (tech, base)
    })
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gg-cproll-{}-{tag}", std::process::id()))
}

/// The vendored proptest shim has no `prop_map`, so raw genome/metric
/// tuples are sampled and assembled into structs inside the test body.
type GenomeTuple = (u8, u8, u8, Vec<u8>);
type MetricsTuple = (f64, u64, f64, f64, f64, u32);

fn genome_strategy() -> impl Strategy<Value = GenomeTuple> {
    (
        0u8..4,
        0u8..4,
        0u8..4,
        proptest::collection::vec(0u8..4, NUM_METAL_LAYERS..NUM_METAL_LAYERS + 1),
    )
}

fn metrics_strategy() -> impl Strategy<Value = MetricsTuple> {
    (
        0.0f64..2.0,
        0u64..(1 << 50),
        0.0f64..1e9,
        -1e12f64..0.0,
        0.0f64..1e6,
        0u32..10_000,
    )
}

fn build_genome(t: &GenomeTuple) -> Genome {
    let mut scale_idx = [0u8; NUM_METAL_LAYERS];
    scale_idx.copy_from_slice(&t.3);
    Genome {
        op: t.0,
        n_idx: t.1,
        iter_idx: t.2,
        scale_idx,
    }
}

fn build_metrics(t: &MetricsTuple) -> FlowMetrics {
    FlowMetrics {
        security: t.0,
        er_sites: t.1,
        er_tracks: t.2,
        tns_ps: t.3,
        power_mw: t.4,
        drc: t.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_checkpoints_survive_save_load(
        rng_words in proptest::collection::vec(any::<u64>(), 4..5),
        generation in 0usize..64,
        pop in proptest::collection::vec(genome_strategy(), 1..6),
        evals in proptest::collection::vec(
            (genome_strategy(), metrics_strategy(), 0usize..8), 1..10),
        fingerprint_word in any::<u64>(),
        case in 0u32..u32::MAX,
    ) {
        let pop: Vec<Genome> = pop.iter().map(build_genome).collect();
        let mut cache: Vec<(Genome, FlowMetrics)> = Vec::new();
        let mut order: Vec<(Genome, usize)> = Vec::new();
        for (gt, mt, gen) in &evals {
            let g = build_genome(gt);
            if !cache.iter().any(|(og, _)| *og == g) {
                cache.push((g, build_metrics(mt)));
                order.push((g, *gen));
            }
        }
        let quarantine = vec![QuarantineEntry {
            genome: pop[0],
            generation,
            incremental: "injected fault at sta.diverge".into(),
            full: "panic: cone walk diverged".into(),
        }];
        let cp = Checkpoint {
            base_fingerprint: hex64(fingerprint_word),
            params: Nsga2Params::builder()
                .population(pop.len().max(2))
                .generations(generation + 1)
                .seed(u64::from(case))
                .build(),
            generation,
            rng: rng_words.iter().map(|&w| hex64(w)).collect(),
            pop,
            order,
            cache,
            quarantine,
        };

        let path = scratch(&format!("prop-{case}")).join("checkpoint.ggjson");
        cp.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        prop_assert_eq!(&cp, &back);
        prop_assert_eq!(
            back.rng_state().expect("rng").to_vec(),
            rng_words
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

/// A checkpointed run (no interruption) must be bit-identical to a plain
/// `explore` run: persistence must not consume randomness or reorder work.
#[test]
fn checkpointing_is_observation_only_across_seeds() {
    let (tech, base) = fixture();
    let policy = ExploreOptions::default();
    for seed in [0x5EED_0001u64, 0xBADC_AB1E] {
        let params = Nsga2Params::builder()
            .population(5)
            .generations(2)
            .seed(seed)
            .threads(2)
            .build();
        let plain = explore(base, tech, &params);

        let path = scratch(&format!("obs-{seed:x}")).join("checkpoint.ggjson");
        let engine = EvalEngine::new(base, tech);
        let mut run = Exploration::start(&engine, tech, &params, &policy);
        run.checkpoint(base).save(&path).expect("save generation 0");
        while run.generation() < params.generations {
            run.step(&engine, tech, &policy);
            run.checkpoint(base).save(&path).expect("save");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();

        assert_eq!(
            ggjson::to_string_pretty(&plain),
            ggjson::to_string_pretty(&run.result(base)),
            "checkpointing perturbed the trajectory for seed {seed:#x}"
        );
    }
}

/// Resuming from the final checkpoint of a completed run re-derives the
/// same result without re-running any generation.
#[test]
fn resume_after_completion_is_identity() {
    let (tech, base) = fixture();
    let params = Nsga2Params::builder()
        .population(4)
        .generations(2)
        .seed(0x1DEA)
        .threads(2)
        .build();
    let full = explore(base, tech, &params);
    let path = scratch("done").join("checkpoint.ggjson");
    let engine = EvalEngine::new(base, tech);
    let policy = ExploreOptions::default();
    let mut run = Exploration::start(&engine, tech, &params, &policy);
    while run.generation() < params.generations {
        run.step(&engine, tech, &policy);
    }
    run.checkpoint(base)
        .save(&path)
        .expect("save the finished run");
    let cp = Checkpoint::load(&path).expect("load");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    let resumed = Exploration::resume(&cp, base, &params).expect("resume of a completed run");
    assert_eq!(resumed.generation(), params.generations);
    assert_eq!(
        ggjson::to_string_pretty(&full),
        ggjson::to_string_pretty(&resumed.result(base)),
    );
}

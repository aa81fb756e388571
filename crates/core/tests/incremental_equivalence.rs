//! Property suite: the incremental evaluation engine is *bit-identical*
//! to the from-scratch oracle on random Table-I flow configurations
//! (operator choice plus per-layer width scales), compared as whole
//! [`FlowMetrics`]. Raw cell-move sequences, which no operator produces,
//! are covered by `pipeline.rs`'s own random-edit proptest, next to the
//! engine internals it drives.

use std::sync::OnceLock;

use gdsii_guard::lda::LdaParams;
use gdsii_guard::prelude::*;
use netlist::bench;
use proptest::prelude::*;
use tech::{RouteRule, Technology, NUM_METAL_LAYERS};

/// Baseline and engine are expensive; build them once for every case.
fn fixture() -> &'static (Technology, Snapshot, EvalEngine) {
    static FIXTURE: OnceLock<(Technology, Snapshot, EvalEngine)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let engine = EvalEngine::new(&base, &tech);
        (tech, base, engine)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_flow_configs_match_oracle(
        pick in 0u8..4,
        n_idx in 0usize..LdaParams::N_CANDIDATES.len(),
        iter_idx in 0usize..LdaParams::ITER_CANDIDATES.len(),
        scale_picks in proptest::collection::vec(
            0usize..RouteRule::CANDIDATES.len(),
            NUM_METAL_LAYERS..NUM_METAL_LAYERS + 1,
        ),
        seed in 0u64..1_000_000,
    ) {
        let (tech, base, engine) = fixture();
        let mut scales = [1.0; NUM_METAL_LAYERS];
        for (s, &i) in scales.iter_mut().zip(&scale_picks) {
            *s = RouteRule::CANDIDATES[i];
        }
        // M1 carries no NDR in the Table-I space.
        scales[0] = 1.0;
        let op = if pick == 0 {
            OpSelect::CellShift
        } else {
            OpSelect::Lda {
                n: LdaParams::N_CANDIDATES[n_idx],
                n_iter: LdaParams::ITER_CANDIDATES[iter_idx],
            }
        };
        let cfg = FlowConfig { op, scales };
        let full = FlowRun::new(base, tech, &cfg).seed(seed).metrics().unwrap();
        let inc = FlowRun::new(engine.base(), tech, &cfg).engine(engine).seed(seed).metrics().unwrap();
        prop_assert_eq!(full, inc, "flow metrics diverged on {:?}", cfg);
    }
}

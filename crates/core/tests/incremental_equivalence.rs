//! Property suite: the incremental evaluation engine is *bit-identical*
//! to the from-scratch oracle.
//!
//! Two properties cover the two edit surfaces an ECO candidate can touch:
//! random Table-I flow configurations (operator choice plus per-layer
//! width scales), and raw operator sequences — arbitrary legal cell moves
//! followed by an NDR change — compared metric by metric (TNS, power,
//! DRC, ER sites, ER tracks) against [`gdsii_guard::pipeline::evaluate`].

use std::sync::OnceLock;

use gdsii_guard::lda::LdaParams;
use gdsii_guard::prelude::*;
use gdsii_guard::rws;
use netlist::bench;
use netlist::CellId;
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

fn assert_snapshots_match(oracle: &Snapshot, inc: &Snapshot) {
    assert_eq!(oracle.tns_ps(), inc.tns_ps(), "TNS diverged");
    assert_eq!(oracle.power, inc.power, "power diverged");
    assert_eq!(oracle.drc, inc.drc, "DRC diverged");
    assert_eq!(
        oracle.security.er_sites, inc.security.er_sites,
        "ER sites diverged"
    );
    assert_eq!(
        oracle.security.er_tracks, inc.security.er_tracks,
        "ER tracks diverged"
    );
    assert_eq!(
        oracle.routing.total_wirelength_um(),
        inc.routing.total_wirelength_um(),
        "wirelength diverged"
    );
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

    #[test]
    fn random_edit_sequences_match_oracle(
        moves in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..12),
        scale_idx in 0usize..RouteRule::CANDIDATES.len(),
    ) {
        let (tech, base, engine) = fixture();
        let mut layout = layout::Layout::clone(&base.layout);
        let n_cells = layout.design().cells.len() as u32;
        let (rows, cols) = (layout.floorplan().rows(), layout.floorplan().cols());
        for &(c, dr, dc) in &moves {
            let cid = CellId(c % n_cells);
            let Some(w) = layout.occupancy().cell_width(cid) else {
                continue;
            };
            let near = geom::SitePos::new(dr % rows, dc % cols);
            if layout.occupancy_mut().remove_cell(cid).is_ok() {
                let pos = layout
                    .occupancy()
                    .find_gap(w, near, rows.max(cols))
                    .expect("core has capacity");
                layout
                    .occupancy_mut()
                    .place_cell(cid, w, pos)
                    .expect("gap verified free");
            }
        }
        rws::apply_uniform_scaling(&mut layout, RouteRule::CANDIDATES[scale_idx]);
        let oracle = evaluate(layout.clone(), tech).expect("edited layout stays consistent");
        let inc = engine.evaluate_incremental(layout, tech);
        assert_snapshots_match(&oracle, &inc);
    }
}

//! Golden placements: a hash of every cell's site after each ECO
//! operator, on TINY and on PRESENT (the smallest Table-II design).
//!
//! Speed work on the operators' searches must not move a single cell;
//! the replay and oracle tests beside the operators pin each rewritten
//! search to the one it replaced, and these hashes pin the operators end
//! to end, as the harden path runs them (baseline layout, critical cells
//! locked, operator). The expected values were recorded with the
//! scan-based legalizer and breadth-first Cell Shift query, before the
//! blockage index and the two-pointer component query replaced them.

use gdsii_guard::lda::{self, LdaParams};
use gdsii_guard::prelude::*;
use gdsii_guard::{cell_shift, preprocess};
use layout::Layout;
use netlist::bench;
use tech::Technology;

/// FNV-1a over every cell's `(row, col)`, in cell-id order.
fn site_hash(layout: &Layout) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, _) in layout.design().cells_iter() {
        let pos = layout
            .cell_pos(id)
            .expect("operators keep every cell placed");
        for byte in pos
            .row
            .to_le_bytes()
            .into_iter()
            .chain(pos.col.to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Site hashes after Cell Shift, LDA at N = 8 / one iteration and LDA at
/// N = 32 / three iterations, each on a fresh copy of the baseline.
fn operator_hashes(spec: &bench::DesignSpec) -> [u64; 3] {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(spec, &tech).unwrap();
    let run = |op: &dyn Fn(&mut Layout)| {
        let mut layout = Layout::clone(&base.layout);
        preprocess::lock_critical_cells(&mut layout);
        op(&mut layout);
        layout.check_consistency(&tech).unwrap();
        site_hash(&layout)
    };
    let lda = |n, n_iter| {
        run(&|l: &mut Layout| {
            lda::local_density_adjustment(l, &tech, LdaParams { n, n_iter }, 7);
        })
    };
    [
        run(&|l: &mut Layout| {
            cell_shift::cell_shift(l, &tech, secmetrics::THRESH_ER);
        }),
        lda(8, 1),
        lda(32, 3),
    ]
}

#[test]
fn tiny_operator_placements_are_pinned() {
    assert_eq!(
        operator_hashes(&bench::tiny_spec()),
        [
            0xf48e_0d32_c55c_746f,
            0xea79_51ba_326d_5126,
            0x27fd_f136_3417_f1a1
        ]
    );
}

#[test]
fn present_operator_placements_are_pinned() {
    assert_eq!(
        operator_hashes(&bench::spec_by_name("PRESENT").unwrap()),
        [
            0x7198_1aed_8bfb_6add,
            0x12c0_49da_618a_8d5e,
            0x0743_dcec_4b13_8fbe
        ]
    );
}

use std::sync::Arc;

use geom::SitePos;
use layout::Layout;
use netlist::CellId;
// `SitePos` is used in both the placer body and the tests below.
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tech::Technology;

/// Places every cell of the design: a force-directed global placement
/// followed by row-partition legalization with randomized interleaved
/// whitespace.
///
/// Phase 1 seeds every cell along a row-major scan in netlist order, then
/// iteratively pulls each cell toward the mean position of its connected
/// neighbors (the classic quadratic-placement fixpoint, solved by damped
/// Jacobi sweeps). Phase 2 legalizes: cells are partitioned into rows by
/// their y coordinate (respecting per-row site quotas) and ordered within
/// each row by x, interleaving randomized whitespace so the core reaches
/// its floorplanned utilization with *distributed* empty space — the
/// whitespace structure a detail-placed commercial layout exhibits, and
/// the raw material of exploitable regions.
///
/// Follow with [`crate::refine_wirelength`] for detail cleanup.
///
/// # Panics
///
/// Panics if any cell is already placed or the floorplan cannot hold the
/// design.
pub fn global_place(layout: &mut Layout, tech: &Technology, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_91AC_E000_0000);
    let design = Arc::clone(layout.design());
    let fp = *layout.floorplan();
    let cols = fp.cols();
    let rows = fp.rows();

    let need: u64 = design.total_cell_sites(tech);
    let total = fp.num_sites();
    assert!(need <= total, "floorplan cannot hold the design");
    let n = design.cells.len();

    // --- Phase 1: damped Jacobi sweeps toward the neighbor mean. ---------
    // Seed along a row-major scan in netlist order (generator ids are
    // topologically contiguous, so this starts close to the fixpoint).
    let widths: Vec<u32> = design
        .cells
        .iter()
        .map(|c| tech.library.kind(c.kind).width_sites)
        .collect();
    let mut x = vec![0.0f64; n];
    let mut y = vec![0.0f64; n];
    {
        let per_row = need as f64 / rows as f64;
        let mut scan = 0.0f64;
        for i in 0..n {
            let r = (scan / per_row).min(rows as f64 - 1.0);
            let c = (scan - r.floor() * per_row) / per_row * cols as f64;
            x[i] = c;
            y[i] = r;
            scan += widths[i] as f64;
        }
    }
    // Neighbor lists via signal nets, skipping huge hub nets.
    let clock = design.clock;
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (nid, net) in design.nets_iter() {
        if Some(nid) == clock || net.sinks.len() > 12 {
            continue;
        }
        let mut pins: Vec<u32> = Vec::new();
        if let netlist::NetDriver::Cell(c) = net.driver {
            pins.push(c.0);
        }
        for s in &net.sinks {
            if let netlist::Sink::CellInput { cell, .. } = s {
                pins.push(cell.0);
            }
        }
        for (a_i, &a) in pins.iter().enumerate() {
            for &b in &pins[a_i + 1..] {
                if a != b {
                    neighbors[a as usize].push(b);
                    neighbors[b as usize].push(a);
                }
            }
        }
    }
    let damping = 0.4;
    for _ in 0..30 {
        let (px, py) = (x.clone(), y.clone());
        for i in 0..n {
            if neighbors[i].is_empty() {
                continue;
            }
            let (mut sx, mut sy) = (0.0, 0.0);
            for &nb in &neighbors[i] {
                sx += px[nb as usize];
                sy += py[nb as usize];
            }
            let k = neighbors[i].len() as f64;
            x[i] = damping * x[i] + (1.0 - damping) * sx / k;
            y[i] = damping * y[i] + (1.0 - damping) * sy / k;
        }
    }

    // --- Phase 2: legalization with randomized whitespace. ---------------
    // Partition cells into rows by y (site quota per row), then order by x
    // within each row and interleave random gaps.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| y[a].partial_cmp(&y[b]).expect("finite").then(a.cmp(&b)));
    let base_quota = need / rows as u64;
    let extra_rows = (need % rows as u64) as u32;
    let mut row_cells: Vec<Vec<usize>> = vec![Vec::new(); rows as usize];
    {
        let mut it = order.into_iter().peekable();
        let mut placed: u64 = 0;
        let mut quota_cum: u64 = 0;
        for row in 0..rows {
            quota_cum += base_quota + u64::from(row < extra_rows);
            while placed < quota_cum {
                let Some(i) = it.next() else { break };
                row_cells[row as usize].push(i);
                placed += widths[i] as u64;
            }
        }
        for i in it {
            row_cells[rows as usize - 1].push(i);
        }
    }
    let mut spill: std::collections::VecDeque<usize> = Default::default();
    for row in 0..rows {
        let mut members = std::mem::take(&mut row_cells[row as usize]);
        members.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite").then(a.cmp(&b)));
        // Cells that did not fit in the previous row lead this one.
        let mut queue: Vec<usize> = spill.drain(..).collect();
        queue.extend(members);
        let used: u64 = queue.iter().map(|&i| widths[i] as u64).sum();
        let free = (cols as u64).saturating_sub(used) as f64;
        let mean_gap = free / (queue.len() as f64 + 1.0);
        let mut col = 0u32;
        for &i in &queue {
            let w = widths[i];
            let gap = if mean_gap > 0.0 {
                rng.gen_range(0.0..2.0 * mean_gap).round() as u32
            } else {
                0
            };
            let gap = gap.min(cols.saturating_sub(col + w));
            if col + gap + w > cols {
                spill.push_back(i);
                continue;
            }
            layout
                .occupancy_mut()
                .place_cell(CellId(i as u32), w, SitePos::new(row, col + gap))
                .expect("scan position is free by construction");
            col += gap + w;
        }
    }
    // Stragglers: nearest free gap anywhere; at very high densities no
    // contiguous gap may survive, in which case a row segment is compacted
    // to make one.
    let center = SitePos::new(rows / 2, cols / 2);
    while let Some(i) = spill.pop_front() {
        let w = widths[i];
        let pos = layout
            .occupancy()
            .find_gap(w, center, rows.max(cols))
            .or_else(|| {
                let mut no_blockages = crate::eco::BlockageIndex::new(layout, &[]);
                crate::eco::make_gap_by_compaction(layout, &mut no_blockages, w, center)
            })
            .unwrap_or_else(|| panic!("core cannot hold {}", design.name));
        layout
            .occupancy_mut()
            .place_cell(CellId(i as u32), w, pos)
            .expect("gap verified free");
    }
    debug_assert!(layout.check_consistency(tech).is_ok());
}

/// Clusters the given cells into a compact bank around their current
/// centroid, evicting non-member cells to nearby gaps — the standard
/// register-banking step a production flow applies to key registers and
/// other grouped assets (the ISPD'22 security-closure layouts ship with
/// their critical assets localized this way).
///
/// Returns the site-space window `(row0, row1, col0, col1)` of the bank.
///
/// # Panics
///
/// Panics if any member cell is unplaced or the core cannot hold the bank.
pub fn bank_cells(
    layout: &mut Layout,
    tech: &Technology,
    members: &[CellId],
    bank_utilization: f64,
    _seed: u64,
) -> (u32, u32, u32, u32) {
    assert!(bank_utilization > 0.0 && bank_utilization <= 1.0);
    let fp = *layout.floorplan();
    let design = Arc::clone(layout.design());
    let member_set: std::collections::HashSet<CellId> = members.iter().copied().collect();
    let total_sites: u64 = members
        .iter()
        .map(|&c| tech.library.kind(design.cell(c).kind).width_sites as u64)
        .sum();
    // Whitespace interleaved inside the bank (up to 3 sites per member),
    // plus 20 % slop for row-end fragmentation.
    let gap_per_cell = (((1.0 - bank_utilization) / bank_utilization) * 4.0)
        .floor()
        .clamp(0.0, 3.0) as u32;
    let need =
        ((total_sites + (members.len() as u64 + 1) * gap_per_cell as u64) as f64 * 1.2).ceil();

    // Roughly square window (in µm) centred on the members' centroid.
    let site_ratio = tech::SITE_H as f64 / tech::SITE_W as f64;
    let est_rows = ((need / site_ratio).sqrt().ceil() as u32).clamp(1, fp.rows());
    let max_w = members
        .iter()
        .map(|&c| tech.library.kind(design.cell(c).kind).width_sites)
        .max()
        .unwrap_or(1);
    let bank_cols = ((need / est_rows as f64).ceil() as u32)
        .max(max_w + gap_per_cell)
        .clamp(1, fp.cols());
    // The area estimate can undershoot when row-end fragmentation is high,
    // so derive the row count by replaying the row-major packing below.
    let bank_rows = {
        let mut widths: Vec<(CellId, u32)> = members
            .iter()
            .map(|&c| (c, tech.library.kind(design.cell(c).kind).width_sites))
            .collect();
        widths.sort_unstable_by_key(|&(c, _)| c);
        let mut rows_needed = 1u32;
        let mut col = 0u32;
        for &(_, w) in &widths {
            if col + w + gap_per_cell > bank_cols {
                rows_needed += 1;
                col = 0;
            }
            col += w + gap_per_cell;
        }
        rows_needed.clamp(1, fp.rows())
    };
    let (mut cx, mut cy) = (0i64, 0i64);
    for &c in members {
        let p = layout.cell_center(c, tech);
        cx += p.x;
        cy += p.y;
    }
    let centroid = geom::Point::new(cx / members.len() as i64, cy / members.len() as i64);
    let center = fp.site_at(centroid);
    let row0 = center
        .row
        .saturating_sub(bank_rows / 2)
        .min(fp.rows() - bank_rows);
    let col0 = center
        .col
        .saturating_sub(bank_cols / 2)
        .min(fp.cols() - bank_cols);
    let (row1, col1) = (row0 + bank_rows, col0 + bank_cols);

    // Evict everything non-member from the window.
    let mut evicted: Vec<CellId> = Vec::new();
    for (id, _) in design.cells_iter() {
        if member_set.contains(&id) {
            continue;
        }
        let Some(pos) = layout.cell_pos(id) else {
            continue;
        };
        let w = layout.occupancy().cell_width(id).expect("placed");
        let overlaps = pos.row >= row0 && pos.row < row1 && pos.col + w > col0 && pos.col < col1;
        if overlaps {
            layout.occupancy_mut().remove_cell(id).expect("not locked");
            evicted.push(id);
        }
    }
    // Move members into the window, packed row-major with the leftover
    // whitespace spread between them.
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    for &c in &sorted {
        layout.occupancy_mut().remove_cell(c).expect("not locked");
    }
    let mut row = row0;
    let mut col = col0;
    for &c in &sorted {
        let w = tech.library.kind(design.cell(c).kind).width_sites;
        if col + w + gap_per_cell > col1 {
            row += 1;
            col = col0;
            assert!(row < row1, "bank window too small");
        }
        layout
            .occupancy_mut()
            .place_cell(c, w, geom::SitePos::new(row, col))
            .expect("window was emptied");
        col += w + gap_per_cell;
    }
    // Re-place the evicted cells near their former homes, outside the bank.
    for id in evicted {
        let w = tech.library.kind(design.cell(id).kind).width_sites;
        let near = geom::SitePos::new(center.row, center.col);
        let pos = layout
            .occupancy()
            .find_gap(w, near, fp.rows().max(fp.cols()))
            .expect("core has capacity");
        layout
            .occupancy_mut()
            .place_cell(id, w, pos)
            .expect("gap verified free");
    }
    debug_assert!(layout.check_consistency(tech).is_ok());
    (row0, row1, col0, col1)
}

/// Convenience: which cells connect to `cell` through its nets (drivers of
/// its inputs and sinks of its output), ignoring the clock net.
pub(crate) fn neighbors(
    design: &netlist::Design,
    cell: CellId,
    clock: Option<netlist::NetId>,
) -> Vec<CellId> {
    let mut out = Vec::new();
    let c = design.cell(cell);
    for &net in &c.inputs {
        if Some(net) == clock {
            continue;
        }
        if let netlist::NetDriver::Cell(d) = design.net(net).driver {
            out.push(d);
        }
    }
    if let Some(net) = c.output {
        for s in &design.net(net).sinks {
            if let netlist::Sink::CellInput { cell: sc, .. } = s {
                out.push(*sc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use layout::SiteState;
    use netlist::bench;

    fn placed_tiny(seed: u64) -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        global_place(&mut layout, &tech, seed);
        (tech, layout)
    }

    #[test]
    fn places_every_cell_consistently() {
        let (tech, layout) = placed_tiny(7);
        for (id, _) in layout.design().cells_iter() {
            assert!(layout.cell_pos(id).is_some(), "cell {} unplaced", id.0);
        }
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn utilization_matches_floorplan_target() {
        let (_, layout) = placed_tiny(7);
        let u = layout.utilization();
        assert!(u > 0.5 && u < 0.65, "utilization {u}");
    }

    #[test]
    fn whitespace_is_distributed_not_packed() {
        let (_, layout) = placed_tiny(7);
        let fp = *layout.floorplan();
        // Count rows that contain at least one interior empty run.
        let mut rows_with_gaps = 0;
        let mut used_rows = 0;
        for row in 0..fp.rows() {
            let runs = layout.occupancy().empty_runs(row);
            let row_used = (0..fp.cols()).any(|c| {
                matches!(
                    layout.occupancy().state(SitePos::new(row, c)),
                    SiteState::Cell(_)
                )
            });
            if row_used {
                used_rows += 1;
                if runs.iter().any(|r| r.lo != 0 && r.hi != fp.cols()) {
                    rows_with_gaps += 1;
                }
            }
        }
        assert!(
            rows_with_gaps * 2 >= used_rows,
            "only {rows_with_gaps}/{used_rows} used rows have interior gaps"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, a) = placed_tiny(42);
        let (_, b) = placed_tiny(42);
        let (_, c) = placed_tiny(43);
        let pos = |l: &Layout| -> Vec<Option<SitePos>> {
            l.design()
                .cells_iter()
                .map(|(id, _)| l.cell_pos(id))
                .collect()
        };
        assert_eq!(pos(&a), pos(&b));
        assert_ne!(pos(&a), pos(&c));
    }
}

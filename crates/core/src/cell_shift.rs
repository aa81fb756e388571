//! **Cell Shift (CS)** — anti-Trojan ECO placement operator, Algorithm 1.
//!
//! Erases exploitable regions globally by row-wise shifting of cells: the
//! empty sites of each row form graph vertices, vertically touching
//! vertices of adjacent rows form connected components, and any component
//! reaching `Thresh_ER` sites is an exploitable region. Rows are processed
//! bottom-up; within a row, each vertex in an exploitable component pulls
//! its neighboring cell into it until the component drops below the
//! threshold or the vertex is consumed — moving cells as little as
//! possible to minimize timing impact. A mirrored second pass sweeps the
//! remaining space off the other edge of the core.

use geom::{Interval, SitePos};
use layout::{Layout, SiteState};
use tech::Technology;

/// Outcome of a [`cell_shift`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellShiftStats {
    /// Total site-steps of cell movement.
    pub shifted_sites: u64,
    /// Individual cell moves.
    pub moves: u64,
    /// Vertices skipped because the adjacent cell was locked or absent.
    pub skipped: u64,
}

/// Scan/shift direction of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Visit vertices left-to-right, pulling cells leftward (Algorithm 1).
    Forward,
    /// Mirrored pass: right-to-left, pulling cells rightward.
    Backward,
}

/// Root of `x` in a union-find parent array, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Union-find over the empty runs of the rows a pass has already
/// resolved, grown one row at a time. Roots carry their component's total
/// weight in sites.
#[derive(Default)]
struct BelowComponents {
    parent: Vec<u32>,
    /// Component weight, valid at roots.
    weight: Vec<u64>,
    /// Empty runs of the last resolved row.
    top: Vec<Interval>,
    /// Vertex id of `top[0]`.
    top_first: u32,
}

impl BelowComponents {
    /// Appends a resolved row's runs, joining each to the runs of the
    /// previous row it overlaps.
    fn push_row(&mut self, runs: Vec<Interval>) {
        let first = self.parent.len() as u32;
        for (k, run) in runs.iter().enumerate() {
            self.parent.push(first + k as u32);
            self.weight.push(u64::from(run.len()));
        }
        let (mut i, mut j) = (0, 0);
        while i < self.top.len() && j < runs.len() {
            if self.top[i].overlaps(&runs[j]) {
                let a = find(&mut self.parent, self.top_first + i as u32);
                let b = find(&mut self.parent, first + j as u32);
                if a != b {
                    self.parent[b as usize] = a;
                    self.weight[a as usize] += self.weight[b as usize];
                }
            }
            if self.top[i].hi <= runs[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        self.top = runs;
        self.top_first = first;
    }

    /// The context for the row above the last resolved one.
    fn context(&mut self) -> BelowContext {
        let roots: Vec<u32> = (0..self.top.len() as u32)
            .map(|k| find(&mut self.parent, self.top_first + k))
            .collect();
        // Number the components the top row touches densely.
        let mut order: Vec<usize> = (0..roots.len()).collect();
        order.sort_unstable_by_key(|&k| (roots[k], k));
        let mut prev_comp = vec![0u32; roots.len()];
        let mut comp_weight: Vec<u64> = Vec::new();
        for (n, &k) in order.iter().enumerate() {
            if n == 0 || roots[order[n - 1]] != roots[k] {
                comp_weight.push(self.weight[roots[k] as usize]);
            }
            prev_comp[k] = comp_weight.len() as u32 - 1;
        }
        BelowContext {
            prev_runs: self.top.clone(),
            prev_comp,
            comp_weight,
        }
    }
}

/// Static context for one row being processed: the connected components of
/// the *already-final* rows below, exposed through the runs of the row
/// immediately underneath (the only row the current one can touch).
struct BelowContext {
    /// Empty runs of row `i - 1` (empty when processing row 0).
    prev_runs: Vec<Interval>,
    /// Component of each prev run, numbered densely from 0.
    prev_comp: Vec<u32>,
    /// Total weight of each component across all below rows.
    comp_weight: Vec<u64>,
}

impl BelowContext {
    /// Weight of the component containing current-row vertex `vi`, over the
    /// graph of rows `0..=i`. One two-pointer sweep over the sorted current
    /// and previous runs links each current run to the below components it
    /// touches; a union-find over those links then yields the component:
    /// O(C + P) for C current and P previous runs.
    fn component_weight(&self, cur: &[Interval], vi: usize) -> u64 {
        let n = cur.len();
        // Nodes `0..n` are the current runs, `n..` the below components.
        let mut parent: Vec<u32> = (0..(n + self.comp_weight.len()) as u32).collect();
        let (mut i, mut j) = (0, 0);
        while i < n && j < self.prev_runs.len() {
            if cur[i].overlaps(&self.prev_runs[j]) {
                let a = find(&mut parent, i as u32);
                let b = find(&mut parent, (n + self.prev_comp[j] as usize) as u32);
                parent[b as usize] = a;
            }
            if cur[i].hi <= self.prev_runs[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        let root = find(&mut parent, vi as u32);
        let runs: u64 = (0..n)
            .filter(|&u| find(&mut parent, u as u32) == root)
            .map(|u| u64::from(cur[u].len()))
            .sum();
        let below: u64 = (0..self.comp_weight.len())
            .filter(|&c| find(&mut parent, (n + c) as u32) == root)
            .map(|c| self.comp_weight[c])
            .sum();
        runs + below
    }
}

/// One directional pass over all rows, shifting one site at a time exactly
/// as Algorithm 1 prescribes (the component weight is re-queried after
/// every single-site shift, so component splits are detected immediately).
fn run_pass(layout: &mut Layout, thresh: u32, pass: Pass, stats: &mut CellShiftStats) {
    let rows = layout.floorplan().rows();
    let cols = layout.floorplan().cols();
    let mut below = BelowComponents::default();
    for row in 0..rows {
        let ctx = below.context();
        // The current row's runs, maintained incrementally across shifts.
        let mut cur: Vec<Interval> = layout.occupancy().empty_runs(row);
        // Index of the vertex being processed, in scan order.
        let mut idx: isize = match pass {
            Pass::Forward => 0,
            Pass::Backward => cur.len() as isize - 1,
        };
        while idx >= 0 && (idx as usize) < cur.len() {
            let vi = idx as usize;
            let v = cur[vi];
            let resolved_step: isize = match pass {
                Pass::Forward => 1,
                Pass::Backward => -1,
            };
            // Neighbor cell to pull into the vertex.
            let neighbor_col = match pass {
                Pass::Forward if v.hi >= cols => None,
                Pass::Forward => Some(v.hi),
                Pass::Backward if v.lo == 0 => None,
                Pass::Backward => Some(v.lo - 1),
            };
            let Some(ncol) = neighbor_col else {
                stats.skipped += 1;
                idx += resolved_step;
                continue;
            };
            let cell = match layout.occupancy().state(SitePos::new(row, ncol)) {
                SiteState::Cell(c) => c,
                SiteState::Empty | SiteState::Filler => {
                    stats.skipped += 1;
                    idx += resolved_step;
                    continue;
                }
            };
            if layout.occupancy().is_locked(cell) {
                stats.skipped += 1;
                idx += resolved_step;
                continue;
            }
            if ctx.component_weight(&cur, vi) < thresh as u64 {
                idx += resolved_step;
                continue;
            }
            // Inner loop of Algorithm 1: shift one site at a time while the
            // vertex survives and its component stays exploitable. `vcur`
            // tracks the working vertex across run-list insertions.
            let mut vcur = vi;
            let mut removed = false;
            loop {
                let origin = layout
                    .occupancy()
                    .cell_pos(cell)
                    .expect("grid cell is placed");
                let w_c = layout.occupancy().cell_width(cell).expect("placed");
                let target = match pass {
                    Pass::Forward => SitePos::new(row, origin.col - 1),
                    Pass::Backward => SitePos::new(row, origin.col + 1),
                };
                if layout.occupancy_mut().move_cell(cell, target).is_err() {
                    stats.skipped += 1;
                    break;
                }
                stats.shifted_sites += 1;
                // Update the run list: the vertex shrinks by one site and
                // the freed site appears on the far side of the cell.
                match pass {
                    Pass::Forward => {
                        cur[vcur].hi -= 1;
                        let freed = origin.col + w_c - 1;
                        if vcur + 1 < cur.len() && cur[vcur + 1].lo == freed + 1 {
                            cur[vcur + 1].lo = freed;
                        } else {
                            cur.insert(vcur + 1, Interval::new(freed, freed + 1));
                        }
                    }
                    Pass::Backward => {
                        cur[vcur].lo += 1;
                        let freed = origin.col;
                        if vcur > 0 && cur[vcur - 1].hi == freed {
                            cur[vcur - 1].hi = freed + 1;
                        } else {
                            cur.insert(vcur, Interval::new(freed, freed + 1));
                            vcur += 1; // the working vertex moved one slot
                        }
                    }
                }
                if cur[vcur].is_empty() {
                    cur.remove(vcur);
                    removed = true;
                    break;
                }
                if ctx.component_weight(&cur, vcur) < thresh as u64 {
                    break;
                }
            }
            stats.moves += 1;
            match pass {
                // Forward: after a removal the slot at `vcur` already holds
                // the next vertex; otherwise step right past the resolved
                // vertex.
                Pass::Forward => {
                    idx = if removed {
                        vcur as isize
                    } else {
                        vcur as isize + 1
                    }
                }
                // Backward: step left of the resolved/removed position.
                Pass::Backward => idx = vcur as isize - 1,
            }
        }
        // Row resolved: its final runs become part of the static substrate
        // for the rows above.
        below.push_row(layout.occupancy().empty_runs(row));
    }
}

static CELL_SHIFT: obs::Span = obs::Span::new("cell_shift");

/// Runs the Cell Shift operator on a layout whose fillers have been
/// stripped. Both the forward (leftward) and the mirrored (rightward)
/// passes of §III-B are executed.
///
/// Locked cells are never moved; vertices whose only neighbor is locked are
/// skipped, exactly like the paper's preprocessing demands.
pub fn cell_shift(layout: &mut Layout, tech: &Technology, thresh: u32) -> CellShiftStats {
    CELL_SHIFT.time(|_| {
        layout.occupancy_mut().clear_fillers();
        let mut stats = CellShiftStats::default();
        run_pass(layout, thresh, Pass::Forward, &mut stats);
        run_pass(layout, thresh, Pass::Backward, &mut stats);
        // Note: exploitable components hugging *locked* cells (the critical
        // bank) can survive both passes — the greedy cannot pull space
        // through a wall it may not move. The flow optimizer compensates by
        // pairing CS with routing width scaling or by choosing LDA; see
        // EXPERIMENTS.md.
        debug_assert!(layout.check_consistency(tech).is_ok());
        stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;
    use proptest::prelude::*;
    use secmetrics::THRESH_ER;

    /// Empty-run vertices of rows `0..=row_limit` with their component weights.
    /// Returns `(vertices, weight_of_component_containing_vertex)`.
    /// Reference implementation used by the tests to validate the incremental
    /// bookkeeping of [`run_pass`].
    fn components_up_to(layout: &Layout, row_limit: u32) -> (Vec<(u32, Interval)>, Vec<u64>) {
        let occ = layout.occupancy();
        let mut verts: Vec<(u32, Interval)> = Vec::new();
        let mut row_start: Vec<usize> = Vec::with_capacity(row_limit as usize + 2);
        for row in 0..=row_limit {
            row_start.push(verts.len());
            for run in occ.empty_runs(row) {
                verts.push((row, run));
            }
        }
        row_start.push(verts.len());

        // Union-find over vertices.
        let mut parent: Vec<u32> = (0..verts.len() as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            let mut c = x;
            while parent[c as usize] != r {
                let n = parent[c as usize];
                parent[c as usize] = r;
                c = n;
            }
            r
        }
        for row in 1..=row_limit {
            let (a0, a1) = (row_start[row as usize - 1], row_start[row as usize]);
            let (b0, b1) = (row_start[row as usize], row_start[row as usize + 1]);
            let (mut i, mut j) = (a0, b0);
            while i < a1 && j < b1 {
                let ia = verts[i].1;
                let ib = verts[j].1;
                if ia.overlaps(&ib) {
                    let (ra, rb) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                    if ra != rb {
                        parent[rb as usize] = ra;
                    }
                }
                if ia.hi <= ib.hi {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
        let mut weight_of_root = vec![0u64; verts.len()];
        for (i, v) in verts.iter().enumerate() {
            let r = find(&mut parent, i as u32);
            weight_of_root[r as usize] += v.1.len() as u64;
        }
        let weights = (0..verts.len())
            .map(|i| weight_of_root[find(&mut parent, i as u32) as usize])
            .collect();
        (verts, weights)
    }

    /// The breadth-first [`BelowContext::component_weight`] the two-pointer
    /// query replaced, kept as its oracle: for every run reached, scan
    /// every previous run for overlaps, and for every component reached,
    /// every current run for one touching it.
    fn component_weight_bfs(ctx: &BelowContext, cur: &[Interval], vi: usize) -> u64 {
        let mut vert_seen = vec![false; cur.len()];
        let mut comp_seen = vec![false; ctx.comp_weight.len()];
        let mut stack = vec![vi];
        vert_seen[vi] = true;
        let mut weight = 0u64;
        while let Some(v) = stack.pop() {
            weight += cur[v].len() as u64;
            for (j, r) in ctx.prev_runs.iter().enumerate() {
                if r.overlaps(&cur[v]) {
                    let comp = ctx.prev_comp[j];
                    if !comp_seen[comp as usize] {
                        comp_seen[comp as usize] = true;
                        weight += ctx.comp_weight[comp as usize];
                        for (u, cu) in cur.iter().enumerate() {
                            if !vert_seen[u]
                                && ctx
                                    .prev_runs
                                    .iter()
                                    .zip(&ctx.prev_comp)
                                    .any(|(rr, c)| *c == comp && rr.overlaps(cu))
                            {
                                vert_seen[u] = true;
                                stack.push(u);
                            }
                        }
                    }
                }
            }
        }
        weight
    }

    /// Sorted, disjoint, non-empty runs from `(gap before, length)` pairs.
    fn runs(shape: &[(u32, u32)]) -> Vec<Interval> {
        let mut cursor = 0;
        shape
            .iter()
            .map(|&(gap, len)| {
                let run = Interval::new(cursor + gap, cursor + gap + len);
                cursor = run.hi;
                run
            })
            .collect()
    }

    proptest! {
        /// The two-pointer query equals the breadth-first oracle at every
        /// vertex of random run lists, with random component labels and
        /// weights for the runs below.
        #[test]
        fn component_weight_matches_bfs_oracle(
            cur_shape in proptest::collection::vec((0u32..4, 1u32..6), 1..24),
            prev_shape in proptest::collection::vec((0u32..4, 1u32..6), 0..24),
            labels in proptest::collection::vec(0u32..6, 24..25),
            weights in proptest::collection::vec(1u64..500, 6..7),
        ) {
            let cur = runs(&cur_shape);
            let prev_runs = runs(&prev_shape);
            let ctx = BelowContext {
                prev_comp: labels[..prev_runs.len()].to_vec(),
                prev_runs,
                comp_weight: weights,
            };
            for vi in 0..cur.len() {
                prop_assert_eq!(
                    ctx.component_weight(&cur, vi),
                    component_weight_bfs(&ctx, &cur, vi),
                    "vertex {}",
                    vi
                );
            }
        }
    }

    /// The row-by-row union-find agrees with the whole-layout reference on
    /// every component weight the top row exposes.
    #[test]
    fn incremental_components_match_reference() {
        let (_, layout) = placed(43);
        let rows = layout.floorplan().rows();
        let mut below = BelowComponents::default();
        for row in 0..rows {
            below.push_row(layout.occupancy().empty_runs(row));
            let ctx = below.context();
            let (verts, weights) = components_up_to(&layout, row);
            let top: Vec<u64> = verts
                .iter()
                .zip(&weights)
                .filter(|((r, _), _)| *r == row)
                .map(|(_, &w)| w)
                .collect();
            let mine: Vec<u64> = ctx
                .prev_comp
                .iter()
                .map(|&c| ctx.comp_weight[c as usize])
                .collect();
            assert_eq!(mine, top, "row {row}");
        }
    }

    fn placed(seed: u64) -> (Technology, Layout) {
        // CS targets adequately dense designs (the paper pairs low-density
        // or timing-tight designs with LDA instead).
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.70);
        place::global_place(&mut layout, &tech, seed);
        place::refine_wirelength(&mut layout, &tech, 2, seed);
        (tech, layout)
    }

    /// Sum of component weights ≥ thresh over the full core (a layout-wide
    /// upper bound on ERsites, independent of timing).
    fn exploitable_free_sites(layout: &Layout, thresh: u32) -> u64 {
        let rows = layout.floorplan().rows();
        let (verts, weights) = components_up_to(layout, rows - 1);
        let mut total = 0;
        for i in 0..verts.len() {
            if weights[i] >= thresh as u64 {
                // Accumulating per-vertex widths counts each component
                // exactly once in aggregate.
                total += verts[i].1.len() as u64;
            }
        }
        total
    }

    #[test]
    fn shift_eliminates_most_exploitable_space() {
        let (tech, mut layout) = placed(23);
        let before = exploitable_free_sites(&layout, THRESH_ER);
        assert!(before > 0);
        let stats = cell_shift(&mut layout, &tech, THRESH_ER);
        let after = exploitable_free_sites(&layout, THRESH_ER);
        assert!(stats.moves > 0);
        assert!(
            (after as f64) < before as f64 * 0.25,
            "cell shift left {after} of {before} exploitable sites"
        );
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn locked_cells_stay_put() {
        let (tech, mut layout) = placed(29);
        crate::preprocess::lock_critical_cells(&mut layout);
        let before: Vec<_> = layout
            .design()
            .critical_cells
            .iter()
            .map(|&c| layout.cell_pos(c))
            .collect();
        cell_shift(&mut layout, &tech, THRESH_ER);
        let after: Vec<_> = layout
            .design()
            .critical_cells
            .iter()
            .map(|&c| layout.cell_pos(c))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn shift_preserves_cell_count_and_rows() {
        let (tech, mut layout) = placed(31);
        let rows_before: Vec<_> = layout
            .design()
            .cells_iter()
            .map(|(id, _)| layout.cell_pos(id).unwrap().row)
            .collect();
        cell_shift(&mut layout, &tech, THRESH_ER);
        for (i, (id, _)) in layout.design().cells_iter().enumerate() {
            let pos = layout.cell_pos(id).expect("still placed");
            assert_eq!(pos.row, rows_before[i], "row-wise shift only");
        }
    }

    #[test]
    fn idempotent_second_run_moves_little() {
        let (tech, mut layout) = placed(37);
        cell_shift(&mut layout, &tech, THRESH_ER);
        let second = cell_shift(&mut layout, &tech, THRESH_ER);
        assert!(
            second.shifted_sites <= 4,
            "second run should be a near-noop, shifted {}",
            second.shifted_sites
        );
    }

    #[test]
    fn components_weights_are_consistent() {
        let (_, layout) = placed(41);
        let (verts, weights) = components_up_to(&layout, layout.floorplan().rows() - 1);
        let total_sites: u64 = verts.iter().map(|(_, iv)| iv.len() as u64).sum();
        // Every vertex weight is at least its own size and at most the
        // total free space.
        for (i, (_, iv)) in verts.iter().enumerate() {
            assert!(weights[i] >= iv.len() as u64);
            assert!(weights[i] <= total_sites);
        }
    }
}

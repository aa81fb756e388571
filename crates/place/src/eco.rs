use std::sync::Arc;

use geom::{Interval, Point, SitePos};
use layout::{Blockage, Layout, Occupancy, SiteState};
use netlist::CellId;
use tech::Technology;

/// Outcome of an [`eco_place`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EcoPlaceStats {
    /// Cells evicted from over-budget blockage windows.
    pub evicted: usize,
    /// Cells successfully re-placed under all density bounds.
    pub replaced_in_bounds: usize,
    /// Cells re-placed by the fallback path (no in-bounds gap was found).
    pub replaced_fallback: usize,
}

/// One blockage window as listed in a [`BlockageIndex`] band.
#[derive(Debug, Clone, Copy)]
struct Tile {
    /// Index into the blockage list.
    bi: usize,
    col0: u32,
    col1: u32,
    /// Largest `col1` of this tile and every tile before it in the band.
    reach: u32,
}

/// Per-call lookup structure over the blockage windows of one
/// [`eco_place`] run.
///
/// Rows covered by the same windows share a band. A band lists its
/// windows sorted by first column with a running max of the last
/// column, so the windows a footprint overlaps are found by binary
/// search instead of a scan over every window of the row. Site budgets
/// are computed once; `occupied` follows each window's functional-cell
/// sites as the legalizer moves cells.
pub(crate) struct BlockageIndex {
    budget: Vec<u64>,
    occupied: Vec<u64>,
    band_of_row: Vec<usize>,
    bands: Vec<Vec<Tile>>,
}

impl BlockageIndex {
    /// Indexes `blockages` over the core rows of `layout`, reading each
    /// window's current occupancy from the grid.
    pub(crate) fn new(layout: &Layout, blockages: &[Blockage]) -> Self {
        let rows = layout.floorplan().rows();
        // Band boundaries: every row where some window starts or ends.
        let mut cuts: Vec<u32> = blockages
            .iter()
            .flat_map(|b| [b.row0, b.row1])
            .chain([0])
            .filter(|&r| r < rows)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut band_of_row = vec![0; rows as usize];
        let mut bands = Vec::with_capacity(cuts.len());
        for (k, &r0) in cuts.iter().enumerate() {
            let r1 = cuts.get(k + 1).copied().unwrap_or(rows);
            band_of_row[r0 as usize..r1 as usize].fill(k);
            let mut tiles: Vec<Tile> = blockages
                .iter()
                .enumerate()
                .filter(|(_, b)| b.row0 <= r0 && r0 < b.row1)
                .map(|(bi, b)| Tile {
                    bi,
                    col0: b.col0,
                    col1: b.col1,
                    reach: 0,
                })
                .collect();
            tiles.sort_unstable_by_key(|t| (t.col0, t.bi));
            let mut reach = 0;
            for t in &mut tiles {
                reach = reach.max(t.col1);
                t.reach = reach;
            }
            bands.push(tiles);
        }
        let occ = layout.occupancy();
        let occupied = blockages
            .iter()
            .map(|b| {
                let d = occ.density_in(b.row0, b.row1, b.col0, b.col1);
                (d * b.num_sites() as f64).round() as u64
            })
            .collect();
        Self {
            budget: blockages.iter().map(Blockage::site_budget).collect(),
            occupied,
            band_of_row,
            bands,
        }
    }

    /// Whether window `bi` holds more sites than its bound allows.
    fn over_budget(&self, bi: usize) -> bool {
        self.occupied[bi] > self.budget[bi]
    }

    /// Counts the footprint `[col, col + width)` of `row` as occupied.
    fn occupy(&mut self, row: u32, col: u32, width: u32) {
        let tiles = &self.bands[self.band_of_row[row as usize]];
        for (bi, ov) in overlaps(tiles, col, width) {
            self.occupied[bi] += ov;
        }
    }

    /// Counts the footprint `[col, col + width)` of `row` as free.
    fn vacate(&mut self, row: u32, col: u32, width: u32) {
        let tiles = &self.bands[self.band_of_row[row as usize]];
        for (bi, ov) in overlaps(tiles, col, width) {
            self.occupied[bi] -= ov;
        }
    }

    /// The column runs of `band` within `[0, cols)` clear of every window
    /// lacking `width` sites of headroom, left to right.
    fn open_runs(&self, band: usize, cols: u32, width: u32) -> Vec<Interval> {
        let mut runs = Vec::new();
        let mut cursor = 0;
        for t in &self.bands[band] {
            if self.occupied[t.bi] + u64::from(width) <= self.budget[t.bi] {
                continue;
            }
            let lo = t.col0.min(cols);
            if lo > cursor {
                runs.push(Interval::new(cursor, lo));
            }
            cursor = cursor.max(t.col1);
        }
        if cursor < cols {
            runs.push(Interval::new(cursor, cols));
        }
        runs
    }

    /// The origins at which a `width`-site cell in `band` would push some
    /// window over its budget, as sorted, disjoint intervals.
    ///
    /// A window `[a, b)` with `h` sites of headroom takes a footprint
    /// `[c, c + width)` unless it overlaps by more than `h` sites, which
    /// happens exactly for `a − width + h < c < b − h`. The union over the
    /// band's windows is every origin the budget check would refuse.
    fn refused_origins(&self, band: usize, width: u32) -> Vec<Interval> {
        let mut refused: Vec<Interval> = self.bands[band]
            .iter()
            .filter_map(|t| {
                let h = self.budget[t.bi].saturating_sub(self.occupied[t.bi]);
                let h = u32::try_from(h).ok()?;
                (h < width.min(t.col1 - t.col0))
                    .then(|| Interval::new((t.col0 + h + 1).saturating_sub(width), t.col1 - h))
            })
            .collect();
        refused.sort_unstable();
        let mut merged: Vec<Interval> = Vec::with_capacity(refused.len());
        for iv in refused {
            match merged.last_mut() {
                Some(last) if iv.lo <= last.hi => last.hi = last.hi.max(iv.hi),
                _ => merged.push(iv),
            }
        }
        merged
    }
}

/// The tiles (sorted by `col0`, with running-max `reach`) that the
/// footprint `[col, col + width)` overlaps, with the overlap in sites.
fn overlaps(tiles: &[Tile], col: u32, width: u32) -> impl Iterator<Item = (usize, u64)> + '_ {
    let end = col + width;
    let first = tiles.partition_point(|t| t.reach <= col);
    tiles[first..]
        .iter()
        .take_while(move |t| t.col0 < end)
        .filter_map(move |t| {
            let ov = end.min(t.col1).saturating_sub(col.max(t.col0));
            (ov > 0).then_some((t.bi, u64::from(ov)))
        })
}

/// Phase 1: evicts the least-connected movable cells out of every
/// over-budget blockage window, keeping `index` up to date.
/// Returns the evicted cells in their deterministic eviction order.
fn evict_over_budget(
    layout: &mut Layout,
    blockages: &[Blockage],
    index: &mut BlockageIndex,
    stats: &mut EcoPlaceStats,
) -> Vec<CellId> {
    let design = Arc::clone(layout.design());
    let clock = design.clock;
    let mut evicted: Vec<CellId> = Vec::new();
    for (bi, b) in blockages.iter().enumerate() {
        if !index.over_budget(bi) {
            continue;
        }
        // Movable cells whose footprint overlaps this window, read off
        // the window's own sites, least connected first (cheapest to
        // displace far away).
        let mut candidates: Vec<(usize, u32, CellId)> = Vec::new();
        for row in b.row0..b.row1 {
            let mut col = b.col0;
            while col < b.col1 {
                let SiteState::Cell(id) = layout.occupancy().state(SitePos::new(row, col)) else {
                    col += 1;
                    continue;
                };
                let pos = layout.cell_pos(id).expect("grid cell is placed");
                let w = layout.occupancy().cell_width(id).expect("placed");
                if !layout.occupancy().is_locked(id) {
                    let ov = (pos.col + w).min(b.col1) - pos.col.max(b.col0);
                    let degree = crate::global::neighbors(&design, id, clock).len();
                    candidates.push((degree, ov, id));
                }
                col = pos.col + w;
            }
        }
        candidates.sort_by_key(|&(deg, ov, id)| (deg, std::cmp::Reverse(ov), id));
        for (_, _, id) in candidates {
            if !index.over_budget(bi) {
                break;
            }
            let pos = layout.cell_pos(id).expect("still placed");
            let w = layout.occupancy().cell_width(id).expect("placed");
            layout.occupancy_mut().remove_cell(id).expect("not locked");
            index.vacate(pos.row, pos.col, w);
            evicted.push(id);
            stats.evicted += 1;
        }
    }
    evicted
}

/// The wirelength-optimal target site for re-placing `id`: the median of
/// its placed neighbors' centers (the core center when it has none).
fn ideal_site(layout: &Layout, tech: &Technology, neigh: &[CellId]) -> SitePos {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in neigh {
        if layout.cell_pos(n).is_some() {
            let p = layout.cell_center(n, tech);
            xs.push(p.x);
            ys.push(p.y);
        }
    }
    let ideal = if xs.is_empty() {
        layout.floorplan().core_rect().center()
    } else {
        xs.sort_unstable();
        ys.sort_unstable();
        Point::new(xs[xs.len() / 2], ys[ys.len() / 2])
    };
    layout.floorplan().site_at(ideal)
}

/// Injection point covering ECO legalization: checked on entry and once per
/// re-placed cell (the legalizer-side granularity of the cooperative eval
/// deadline). A fault here unwinds mid-mutation; callers hand the legalizer
/// a candidate copy-on-write snapshot, which the evaluation sandbox discards
/// wholesale, so no half-legalized layout is ever observed.
static ECO_LEGALIZE: faults::Point = faults::Point::new("eco.legalize");

static PHASE1: obs::Span = obs::Span::new("eco.phase1");
static PHASE2: obs::Span = obs::Span::new("eco.phase2");

/// Incremental, blockage-aware ECO placement.
///
/// Innovus-style contract: cells already satisfying every partial placement
/// blockage stay put; windows whose functional-cell density exceeds their
/// bound evict their least-connected movable cells, which are then re-placed
/// as close as possible to the wirelength-optimal location *without*
/// violating any other window's budget. Locked (security-critical) cells are
/// never moved.
///
/// Each call indexes the blockages once (sorted by column per row band,
/// budgets computed once), and gap queries run against the occupancy
/// map's persistent per-row gap index
/// ([`layout::Occupancy::gaps`]) instead of scanning sites. Every cell
/// lands where the scan-based reference legalizer puts it (pinned by the
/// replay tests in this module).
///
/// `seed` is retained for API stability but no longer influences the
/// result: re-placement order is the total order
/// `(widest first, descending CellId)`, so the outcome is fully
/// determined by the layout and blockages.
///
/// Returns statistics about the incremental changes.
pub fn eco_place(layout: &mut Layout, tech: &Technology, seed: u64) -> EcoPlaceStats {
    let _ = seed;
    ECO_LEGALIZE.check();
    let design = Arc::clone(layout.design());
    let clock = design.clock;
    let blockages: Vec<Blockage> = layout.blockages().to_vec();
    let mut stats = EcoPlaceStats::default();
    if blockages.is_empty() {
        return stats;
    }
    let mut index = BlockageIndex::new(layout, &blockages);

    // Phase 1: evict from over-budget windows.
    let mut evicted: Vec<CellId> = Vec::new();
    PHASE1.time(|sp| {
        evicted = evict_over_budget(layout, &blockages, &mut index, &mut stats);
        obs::trace(obs::Topic::Lda, || {
            format!("  eco phase1 {:.2}s", sp.elapsed().as_secs_f64())
        });
    });
    let mut budget_blind = 0usize;
    // Phase 2: re-place evicted cells near their wirelength-optimal spots.
    // Widest first: wide cells (flops) need long gaps, which narrower cells
    // would otherwise fragment. The CellId tie-break makes the key a total
    // order, so the result cannot depend on the (blockage-driven) eviction
    // order.
    PHASE2.time(|sp| {
        evicted.sort_by_key(|&id| {
            (
                std::cmp::Reverse(tech.library.kind(design.cell(id).kind).width_sites),
                std::cmp::Reverse(id),
            )
        });
        for id in evicted.iter().copied() {
            ECO_LEGALIZE.check();
            let w = tech.library.kind(design.cell(id).kind).width_sites;
            let neigh = crate::global::neighbors(&design, id, clock);
            let near = ideal_site(layout, tech, &neigh);
            let pos = match find_gap_under_budgets(layout.occupancy(), &index, w, near) {
                Some(pos) => {
                    stats.replaced_in_bounds += 1;
                    pos
                }
                None => {
                    // No ready-made gap: compact a row segment to create one
                    // (still respecting budgets), like a real incremental
                    // placer. Only if even that fails, place anywhere.
                    stats.replaced_fallback += 1;
                    make_gap_by_compaction(layout, &mut index, w, near).unwrap_or_else(|| {
                        budget_blind += 1;
                        let fp = *layout.floorplan();
                        layout
                            .occupancy()
                            .find_gap(w, near, fp.rows().max(fp.cols()))
                            .expect("core has capacity for all cells")
                    })
                }
            };
            layout
                .occupancy_mut()
                .place_cell(id, w, pos)
                .expect("gap verified free");
            index.occupy(pos.row, pos.col, w);
        }
        obs::trace(obs::Topic::Lda, || {
            format!(
                "  eco phase2 {:.2}s (compaction fallbacks {}, budget-blind {})",
                sp.elapsed().as_secs_f64(),
                stats.replaced_fallback,
                budget_blind,
            )
        });
    });
    eco_metrics_record(&stats, budget_blind);
    debug_assert!(layout.check_consistency(tech).is_ok());
    stats
}

/// Folds one run's [`EcoPlaceStats`] into the ECO counters.
fn eco_metrics_record(stats: &EcoPlaceStats, budget_blind: usize) {
    static EVICTED: obs::Counter = obs::Counter::new("eco.evicted");
    static REPLACED_IN_BOUNDS: obs::Counter = obs::Counter::new("eco.replaced_in_bounds");
    static COMPACTION_FALLBACKS: obs::Counter = obs::Counter::new("eco.compaction_fallbacks");
    static BUDGET_BLIND: obs::Counter = obs::Counter::new("eco.budget_blind_fallbacks");
    EVICTED.add(stats.evicted as u64);
    REPLACED_IN_BOUNDS.add(stats.replaced_in_bounds as u64);
    COMPACTION_FALLBACKS.add(stats.replaced_fallback as u64);
    BUDGET_BLIND.add(budget_blind as u64);
}

/// Budget-constrained nearest-gap queries issued by phase 2.
static GAP_QUERIES: obs::Counter = obs::Counter::new("eco.gap_queries");
/// Queries answered with an in-bounds gap (no fallback needed).
static GAP_HITS: obs::Counter = obs::Counter::new("eco.gap_hit");
/// Free runs examined per query (the index's unit of work; the pre-index
/// scan examined every *site* instead).
static GAP_SCAN_LEN: obs::Histogram = obs::Histogram::new("eco.gap_scan_len");

/// Rows of a `rows`-row core ordered by distance from `center`, the lower
/// row first on ties.
fn rows_nearest_first(rows: u32, center: u32) -> impl Iterator<Item = u32> {
    (0..rows).flat_map(move |dr| {
        let below = center.checked_sub(dr);
        let above = Some(center + dr).filter(|&r| dr > 0 && r < rows);
        below.into_iter().chain(above)
    })
}

/// Free sites of a row left of a column, for non-decreasing columns: one
/// walk over the row's sorted gap list serves a whole left-to-right
/// window sweep.
struct FreeBefore<'a> {
    gaps: &'a [Interval],
    /// Index of the first gap not wholly left of the last column asked.
    next: usize,
    /// Free sites in `gaps[..next]`.
    passed: u32,
}

impl<'a> FreeBefore<'a> {
    fn new(gaps: &'a [Interval]) -> Self {
        Self {
            gaps,
            next: 0,
            passed: 0,
        }
    }

    /// Free sites in `[0, x)`; `x` must not decrease between calls.
    fn at(&mut self, x: u32) -> u32 {
        while let Some(g) = self.gaps.get(self.next).filter(|g| g.hi <= x) {
            self.passed += g.len();
            self.next += 1;
        }
        let partial = self
            .gaps
            .get(self.next)
            .map_or(0, |g| x.saturating_sub(g.lo));
        self.passed + partial
    }
}

/// The cells of the window `[c0, c0 + span)` of `row` in column order,
/// or `None` when one is locked or straddles the window's edge.
fn window_cells(occ: &Occupancy, row: u32, c0: u32, span: u32) -> Option<Vec<(CellId, u32, u32)>> {
    let mut cells = Vec::new();
    let mut c = c0;
    while c < c0 + span {
        let SiteState::Cell(id) = occ.state(SitePos::new(row, c)) else {
            c += 1;
            continue;
        };
        let col = occ.cell_pos(id).expect("placed").col;
        let w = occ.cell_width(id).expect("placed");
        if col < c0 || col + w > c0 + span || occ.is_locked(id) {
            return None;
        }
        cells.push((id, col, w));
        c = col + w;
    }
    Some(cells)
}

/// Creates a gap of `width` contiguous sites by compacting the cells of a
/// row window leftward, then returns the placement origin at the window's
/// right end. Rows are tried nearest-first, windows `[c0, c0 + span)` at
/// `c0 = k·(span/2 + 1)` left to right, with the span escalating; the
/// first window that holds `width` free sites, contains no locked or
/// edge-straddling cell, and touches only blockages with at least `width`
/// sites of headroom is compacted. Moved cells update `index`.
///
/// Every check is pure, so the search may skip windows that cannot
/// qualify: only windows inside the column runs clear of blockages lacking
/// `width` sites of headroom are visited, and free-site counts come from
/// one walk over each row's gap list per span.
pub(crate) fn make_gap_by_compaction(
    layout: &mut Layout,
    index: &mut BlockageIndex,
    width: u32,
    near: SitePos,
) -> Option<SitePos> {
    let fp = *layout.floorplan();
    let cols = fp.cols();
    let open: Vec<Vec<Interval>> = (0..index.bands.len())
        .map(|band| index.open_runs(band, cols, width))
        .collect();
    // Dense layouts need wider windows to scrape `width` free sites
    // together; escalate the window span until one qualifies.
    for span in [width * 3, width * 8, width * 20, cols] {
        let span = span.min(cols);
        let step = span / 2 + 1;
        for row in rows_nearest_first(fp.rows(), near.row) {
            let runs = &open[index.band_of_row[row as usize]];
            let gaps = layout.occupancy().gaps(row);
            if runs.iter().all(|r| r.len() < span)
                || gaps.iter().map(Interval::len).sum::<u32>() < width
            {
                continue;
            }
            let (mut left, mut right) = (FreeBefore::new(gaps), FreeBefore::new(gaps));
            for run in runs {
                let mut c0 = run.lo.div_ceil(step) * step;
                while c0 + span <= run.hi {
                    if right.at(c0 + span) - left.at(c0) >= width {
                        if let Some(cells) = window_cells(layout.occupancy(), row, c0, span) {
                            return Some(compact(layout, index, row, c0, span, width, &cells));
                        }
                    }
                    c0 += step;
                }
            }
        }
    }
    None
}

/// Packs `cells` (a window's cells in column order) against the window's
/// left edge at `c0` and returns the origin of the `width`-site gap left
/// at its right end.
fn compact(
    layout: &mut Layout,
    index: &mut BlockageIndex,
    row: u32,
    c0: u32,
    span: u32,
    width: u32,
    cells: &[(CellId, u32, u32)],
) -> SitePos {
    let mut cursor = c0;
    for &(id, col, w) in cells {
        if col > cursor {
            layout
                .occupancy_mut()
                .move_cell(id, SitePos::new(row, cursor))
                .expect("window is self-contained");
            index.vacate(row, col, w);
            index.occupy(row, cursor, w);
        }
        cursor += w;
    }
    debug_assert!(c0 + span - cursor >= width);
    SitePos::new(row, c0 + span - width)
}

/// Nearest empty gap of `width` sites around `near` whose occupation keeps
/// every blockage within budget, read from the occupancy map's gap index.
///
/// The answer is the scan-based reference's: the smallest Chebyshev
/// distance, ties going to the lowest row, then to the leftmost run, then
/// to the first of its candidate origins (the one nearest the target,
/// then the run's two ends, so budget rejections can slide along the
/// run). Rows are visited nearest-first, which stops the search once no
/// row left can win, and each row's band states once per query which
/// origins its windows refuse ([`BlockageIndex::refused_origins`]), so
/// rows refused everywhere are skipped whole and refused stretches of a
/// row are jumped over.
fn find_gap_under_budgets(
    occ: &Occupancy,
    index: &BlockageIndex,
    width: u32,
    near: SitePos,
) -> Option<SitePos> {
    GAP_QUERIES.incr();
    let fp = occ.floorplan();
    let last_origin = fp.cols().saturating_sub(width);
    let mut refused_by_band: Vec<Option<Vec<Interval>>> = vec![None; index.bands.len()];
    let mut scanned = 0u64;
    // Winner so far: (distance, row, col).
    let mut best: Option<(u32, u32, u32)> = None;
    for row in rows_nearest_first(fp.rows(), near.row) {
        let dr = row.abs_diff(near.row);
        if best.is_some_and(|(bd, _, _)| dr > bd) {
            break;
        }
        // A row below the incumbent also wins a distance tie.
        let bound = best.map_or(u32::MAX, |(bd, brow, _)| bd + u32::from(row < brow));
        if dr >= bound {
            continue;
        }
        let band = index.band_of_row[row as usize];
        let refused =
            refused_by_band[band].get_or_insert_with(|| index.refused_origins(band, width));
        if refused
            .first()
            .is_some_and(|r| r.lo == 0 && r.hi > last_origin)
        {
            continue;
        }
        let found = row_best(
            occ.gaps(row),
            refused,
            width,
            near.col,
            dr,
            bound,
            &mut scanned,
        );
        if let Some((d, col)) = found {
            best = Some((d, row, col));
        }
    }
    GAP_SCAN_LEN.record(scanned);
    if best.is_some() {
        GAP_HITS.incr();
    }
    best.map(|(_, row, col)| SitePos::new(row, col))
}

/// The first origin of a row (runs left to right; in each run the origin
/// nearest `target`, then the run's two ends) outside `refused` whose
/// distance `max(dr, |col − target|)` is the row's smallest below
/// `bound`. Returns `(distance, col)`; `scanned` counts the runs examined.
fn row_best(
    gaps: &[Interval],
    refused: &[Interval],
    width: u32,
    target: u32,
    dr: u32,
    bound: u32,
    scanned: &mut u64,
) -> Option<(u32, u32)> {
    // The refused interval holding `col`, if any.
    let refusal = |col: u32| {
        refused
            .get(refused.partition_point(|r| r.hi <= col))
            .filter(|r| r.lo <= col)
    };
    // Runs ending too far left of the target cannot beat the bound.
    let thresh = (u64::from(target) + u64::from(width)).saturating_sub(u64::from(bound));
    let mut i = gaps.partition_point(|g| u64::from(g.hi) <= thresh);
    let mut best = None;
    let mut bd = bound;
    while let Some(&run) = gaps.get(i) {
        if run.lo > target && run.lo - target >= bd {
            break;
        }
        *scanned += 1;
        i += 1;
        if run.len() < width {
            continue;
        }
        let (lo, hi) = (run.lo, run.hi - width);
        if let Some(r) = refusal(lo).filter(|r| hi < r.hi) {
            // Every origin of this run is refused, and so is every origin
            // of the runs after it that end before `r.hi + width`.
            i += gaps[i..].partition_point(|g| g.hi < r.hi + width);
            continue;
        }
        for col in [target.clamp(lo, hi), lo, hi] {
            let d = dr.max(col.abs_diff(target));
            if d < bd && refusal(col).is_none() {
                bd = d;
                best = Some((d, col));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn placed() -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        crate::global_place(&mut layout, &tech, 11);
        (tech, layout)
    }

    #[test]
    fn noop_without_blockages() {
        let (tech, mut layout) = placed();
        let stats = eco_place(&mut layout, &tech, 1);
        assert_eq!(stats, EcoPlaceStats::default());
    }

    #[test]
    fn enforces_density_bound() {
        let (tech, mut layout) = placed();
        let fp = *layout.floorplan();
        // Cap the lower-left quadrant at 10 % density.
        let b = Blockage::new(0, fp.rows() / 2, 0, fp.cols() / 2, 0.10);
        layout.set_blockages(vec![b]);
        let before = layout
            .occupancy()
            .density_in(b.row0, b.row1, b.col0, b.col1);
        let stats = eco_place(&mut layout, &tech, 2);
        let after = layout
            .occupancy()
            .density_in(b.row0, b.row1, b.col0, b.col1);
        assert!(before > 0.3, "quadrant was not populated: {before}");
        assert!(after <= 0.11, "bound not enforced: {after}");
        assert!(stats.evicted > 0);
        assert_eq!(
            stats.evicted,
            stats.replaced_in_bounds + stats.replaced_fallback
        );
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn locked_cells_survive_eviction() {
        let (tech, mut layout) = placed();
        let fp = *layout.floorplan();
        let critical = layout.design().critical_cells.clone();
        for &c in &critical {
            layout.occupancy_mut().lock(c);
        }
        let before: Vec<_> = critical.iter().map(|&c| layout.cell_pos(c)).collect();
        layout.set_blockages(vec![Blockage::new(0, fp.rows(), 0, fp.cols(), 0.05)]);
        eco_place(&mut layout, &tech, 3);
        let after: Vec<_> = critical.iter().map(|&c| layout.cell_pos(c)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn every_cell_remains_placed() {
        let (tech, mut layout) = placed();
        let fp = *layout.floorplan();
        layout.set_blockages(vec![Blockage::new(0, fp.rows(), 0, fp.cols() / 2, 0.0)]);
        eco_place(&mut layout, &tech, 4);
        for (id, _) in layout.design().cells_iter() {
            assert!(layout.cell_pos(id).is_some(), "cell {} lost", id.0);
        }
        layout.check_consistency(&tech).unwrap();
    }

    /// Phase 2's re-placement key is a total order (widest first,
    /// CellId tie-break), so the seed no longer influences the result:
    /// any two seeds must produce bit-identical layouts and stats.
    #[test]
    fn replacement_order_is_seed_independent() {
        let (tech, layout) = placed();
        let fp = *layout.floorplan();
        let b = Blockage::new(0, fp.rows() / 2, 0, fp.cols(), 0.15);
        let run = |seed: u64| {
            let mut l = layout.clone();
            l.set_blockages(vec![b]);
            let stats = eco_place(&mut l, &tech, seed);
            (stats, l)
        };
        let (stats_a, la) = run(1);
        let (stats_b, lb) = run(0xDEAD_BEEF);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.evicted > 0, "fixture must actually evict");
        for (id, _) in la.design().cells_iter() {
            assert_eq!(la.cell_pos(id), lb.cell_pos(id), "cell {} diverged", id.0);
        }
    }

    /// The legalizer as it was before the blockage index: the same
    /// eviction, ordering and selection rules, but every free-site query
    /// runs on brute-force grid scans, every budget check walks all the
    /// windows of the row, and compaction slides its window over every
    /// column. The replay tests below pin [`eco_place`] to it.
    mod reference {
        use super::super::*;

        /// Overlap in sites between a cell footprint on `row` spanning
        /// `[col, col + width)` and a blockage window.
        fn overlap_sites(b: &Blockage, row: u32, col: u32, width: u32) -> u32 {
            if row < b.row0 || row >= b.row1 {
                return 0;
            }
            let lo = col.max(b.col0);
            let hi = (col + width).min(b.col1);
            hi.saturating_sub(lo)
        }

        /// The blockages covering each row, rebuilt per query.
        fn blockages_by_row(blockages: &[Blockage], n_rows: u32) -> Vec<Vec<usize>> {
            let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); n_rows as usize];
            for (bi, b) in blockages.iter().enumerate() {
                for row in b.row0..b.row1.min(n_rows) {
                    by_row[row as usize].push(bi);
                }
            }
            by_row
        }

        fn blockage_occupancy(layout: &Layout) -> Vec<u64> {
            layout
                .blockages()
                .iter()
                .map(|b| {
                    let d = layout
                        .occupancy()
                        .density_in(b.row0, b.row1, b.col0, b.col1);
                    (d * b.num_sites() as f64).round() as u64
                })
                .collect()
        }

        fn evict_over_budget(
            layout: &mut Layout,
            blockages: &[Blockage],
            occupied: &mut [u64],
            stats: &mut EcoPlaceStats,
        ) -> Vec<CellId> {
            let design = Arc::clone(layout.design());
            let clock = design.clock;
            let mut evicted: Vec<CellId> = Vec::new();
            for (bi, b) in blockages.iter().enumerate() {
                if occupied[bi] <= b.site_budget() {
                    continue;
                }
                let mut candidates: Vec<(usize, u32, CellId)> = Vec::new();
                for (id, _) in design.cells_iter() {
                    if layout.occupancy().is_locked(id) {
                        continue;
                    }
                    let Some(pos) = layout.cell_pos(id) else {
                        continue;
                    };
                    let w = layout.occupancy().cell_width(id).expect("placed");
                    let ov = overlap_sites(b, pos.row, pos.col, w);
                    if ov > 0 {
                        let degree = crate::global::neighbors(&design, id, clock).len();
                        candidates.push((degree, ov, id));
                    }
                }
                candidates.sort_by_key(|&(deg, ov, id)| (deg, std::cmp::Reverse(ov), id));
                for (_, _, id) in candidates {
                    if occupied[bi] <= b.site_budget() {
                        break;
                    }
                    let pos = layout.cell_pos(id).expect("still placed");
                    let w = layout.occupancy().cell_width(id).expect("placed");
                    layout.occupancy_mut().remove_cell(id).expect("not locked");
                    for (bj, bb) in blockages.iter().enumerate() {
                        occupied[bj] -= overlap_sites(bb, pos.row, pos.col, w) as u64;
                    }
                    evicted.push(id);
                    stats.evicted += 1;
                }
            }
            evicted
        }

        /// Runs the reference legalizer. Returns its stats and the number
        /// of cells that compaction could not place either (the
        /// budget-blind fallbacks).
        pub(super) fn eco_place_reference(
            layout: &mut Layout,
            tech: &Technology,
        ) -> (EcoPlaceStats, usize) {
            let design = Arc::clone(layout.design());
            let clock = design.clock;
            let blockages: Vec<Blockage> = layout.blockages().to_vec();
            let mut stats = EcoPlaceStats::default();
            let mut budget_blind = 0;
            if blockages.is_empty() {
                return (stats, budget_blind);
            }
            let mut occupied = blockage_occupancy(layout);
            let mut evicted = evict_over_budget(layout, &blockages, &mut occupied, &mut stats);
            evicted.sort_by_key(|&id| {
                (
                    std::cmp::Reverse(tech.library.kind(design.cell(id).kind).width_sites),
                    std::cmp::Reverse(id),
                )
            });
            // Per-row empty-run cache rebuilt from grid scans after every
            // placement.
            let fp_rows = layout.floorplan().rows();
            let mut runs_cache: Vec<Vec<Interval>> = (0..fp_rows)
                .map(|r| layout.occupancy().empty_runs_scan(r))
                .collect();
            for id in evicted {
                let w = tech.library.kind(design.cell(id).kind).width_sites;
                let neigh = crate::global::neighbors(&design, id, clock);
                let near = ideal_site(layout, tech, &neigh);
                let dest = find_gap_under_budgets_scan(&runs_cache, &blockages, &occupied, w, near);
                let in_bounds = dest.is_some();
                let pos = match dest {
                    Some(pos) => {
                        stats.replaced_in_bounds += 1;
                        pos
                    }
                    None => {
                        stats.replaced_fallback += 1;
                        let compacted =
                            make_gap_by_compaction_scan(layout, &blockages, &mut occupied, w, near);
                        compacted.unwrap_or_else(|| {
                            budget_blind += 1;
                            let fp = *layout.floorplan();
                            layout
                                .occupancy()
                                .find_gap_scan(w, near, fp.rows().max(fp.cols()))
                                .expect("core has capacity for all cells")
                        })
                    }
                };
                layout
                    .occupancy_mut()
                    .place_cell(id, w, pos)
                    .expect("gap verified free");
                // Compaction may have moved cells in any row.
                let stale = if in_bounds {
                    pos.row..pos.row + 1
                } else {
                    0..fp_rows
                };
                for r in stale {
                    runs_cache[r as usize] = layout.occupancy().empty_runs_scan(r);
                }
                for (bj, bb) in blockages.iter().enumerate() {
                    occupied[bj] += overlap_sites(bb, pos.row, pos.col, w) as u64;
                }
            }
            layout.check_consistency(tech).unwrap();
            (stats, budget_blind)
        }

        /// Sliding-window compaction over every column of every row.
        fn make_gap_by_compaction_scan(
            layout: &mut Layout,
            blockages: &[Blockage],
            occupied: &mut [u64],
            width: u32,
            near: SitePos,
        ) -> Option<SitePos> {
            let fp = *layout.floorplan();
            let cols = fp.cols();
            let mut rows: Vec<u32> = (0..fp.rows()).collect();
            rows.sort_by_key(|r| r.abs_diff(near.row));
            let by_row = blockages_by_row(blockages, fp.rows());
            // Free runs per probed row, scanned once: nothing moves until
            // the final compaction.
            let mut scanned: Vec<Option<Vec<Interval>>> = vec![None; fp.rows() as usize];
            let mut free_in = |layout: &Layout, row: u32, c0: u32, c1: u32| -> u32 {
                scanned[row as usize]
                    .get_or_insert_with(|| layout.occupancy().empty_runs_scan(row))
                    .iter()
                    .filter_map(|r| r.intersection(&Interval::new(c0, c1)))
                    .map(|r| r.len())
                    .sum()
            };
            for span in [width * 3, width * 8, width * 20, cols] {
                let span = span.min(cols);
                for &row in &rows {
                    if free_in(layout, row, 0, cols) < width {
                        continue;
                    }
                    let mut c0 = 0u32;
                    while c0 + span <= cols {
                        if free_in(layout, row, c0, c0 + span) < width {
                            c0 += span / 2 + 1;
                            continue;
                        }
                        let headroom_ok = by_row[row as usize].iter().all(|&bi| {
                            let b = &blockages[bi];
                            overlap_sites(b, row, c0, span) == 0
                                || occupied[bi] + width as u64 <= b.site_budget()
                        });
                        if !headroom_ok {
                            c0 += span / 2 + 1;
                            continue;
                        }
                        let mut cells: Vec<(CellId, SitePos, u32)> = Vec::new();
                        let mut ok = true;
                        let mut c = c0;
                        while c < c0 + span {
                            match layout.occupancy().state(SitePos::new(row, c)) {
                                SiteState::Cell(id) => {
                                    let pos = layout.occupancy().cell_pos(id).expect("placed");
                                    let w = layout.occupancy().cell_width(id).expect("placed");
                                    if pos.col < c0
                                        || pos.col + w > c0 + span
                                        || layout.occupancy().is_locked(id)
                                    {
                                        ok = false;
                                        break;
                                    }
                                    if cells.last().map(|&(l, _, _)| l) != Some(id) {
                                        cells.push((id, pos, w));
                                    }
                                    c = pos.col + w;
                                }
                                _ => c += 1,
                            }
                        }
                        if !ok {
                            c0 += span / 2 + 1;
                            continue;
                        }
                        let mut cursor = c0;
                        for &(id, pos, w) in &cells {
                            if pos.col > cursor {
                                layout
                                    .occupancy_mut()
                                    .move_cell(id, SitePos::new(row, cursor))
                                    .expect("window is self-contained");
                                for (bi, b) in blockages.iter().enumerate() {
                                    occupied[bi] -= overlap_sites(b, row, pos.col, w) as u64;
                                    occupied[bi] += overlap_sites(b, row, cursor, w) as u64;
                                }
                            }
                            cursor += w;
                        }
                        return Some(SitePos::new(row, c0 + span - width));
                    }
                }
            }
            None
        }

        /// Every row in ascending order, every run of at least `width`
        /// sites, three candidate origins per run, strict improvement on
        /// the Chebyshev distance, every window covering the row checked.
        fn find_gap_under_budgets_scan(
            runs_cache: &[Vec<Interval>],
            blockages: &[Blockage],
            occupied: &[u64],
            width: u32,
            near: SitePos,
        ) -> Option<SitePos> {
            let n_rows = runs_cache.len() as u32;
            let by_row = blockages_by_row(blockages, n_rows);
            let mut best: Option<(u32, SitePos)> = None;
            for row in 0..n_rows {
                let dr = row.abs_diff(near.row);
                if let Some((bd, _)) = best {
                    if dr >= bd {
                        continue;
                    }
                }
                for run in runs_cache[row as usize].iter().copied() {
                    if run.len() < width {
                        continue;
                    }
                    let lo = run.lo;
                    let hi = run.hi - width;
                    let clamped = near.col.clamp(lo, hi);
                    for col in [clamped, lo, hi] {
                        let d = dr.max(col.abs_diff(near.col));
                        if best.is_some_and(|(bd, _)| d >= bd) {
                            continue;
                        }
                        let fits_budget = by_row[row as usize].iter().all(|&bi| {
                            let b = &blockages[bi];
                            let ov = overlap_sites(b, row, col, width) as u64;
                            ov == 0 || occupied[bi] + ov <= b.site_budget()
                        });
                        if fits_budget {
                            best = Some((d, SitePos::new(row, col)));
                        }
                    }
                }
            }
            best.map(|(_, p)| p)
        }
    }

    use reference::eco_place_reference;

    /// A globally placed and refined layout of `spec`.
    fn refined(spec: &bench::DesignSpec, seed: u64) -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(spec, &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, spec.utilization);
        crate::global_place(&mut layout, &tech, seed);
        crate::refine_wirelength(&mut layout, &tech, 2, seed);
        (tech, layout)
    }

    /// Runs [`eco_place`] on `index_side` and the reference on
    /// `scan_side` under the same blockages, asserts equal stats and every
    /// cell on the same site, and returns the reference's budget-blind
    /// count.
    fn replay_step(
        tech: &Technology,
        index_side: &mut Layout,
        scan_side: &mut Layout,
        blockages: Vec<Blockage>,
    ) -> (EcoPlaceStats, usize) {
        index_side.set_blockages(blockages.clone());
        let stats = eco_place(index_side, tech, 7);
        scan_side.set_blockages(blockages);
        let (reference, blind) = eco_place_reference(scan_side, tech);
        assert_eq!(stats, reference, "stats diverged");
        for (id, _) in index_side.design().cells_iter() {
            assert_eq!(
                index_side.cell_pos(id),
                scan_side.cell_pos(id),
                "cell {} placed differently by index vs scan path",
                id.0
            );
        }
        index_side.check_consistency(tech).unwrap();
        (stats, blind)
    }

    fn assert_replay_identical(tech: &Technology, layout: &Layout, blockages: Vec<Blockage>) {
        replay_step(tech, &mut layout.clone(), &mut layout.clone(), blockages);
    }

    #[test]
    fn quadrant_cap_replays_bit_identical() {
        let (tech, layout) = refined(&bench::tiny_spec(), 11);
        let fp = *layout.floorplan();
        let schedule = vec![Blockage::new(0, fp.rows() / 2, 0, fp.cols() / 2, 0.10)];
        assert_replay_identical(&tech, &layout, schedule);
    }

    /// Near-zero budget over half the core forces heavy eviction,
    /// exercising the compaction and find_gap fallbacks on both paths.
    #[test]
    fn dense_eviction_replays_bit_identical() {
        let (tech, layout) = refined(&bench::tiny_spec(), 23);
        let fp = *layout.floorplan();
        let schedule = vec![Blockage::new(0, fp.rows(), 0, fp.cols() / 2, 0.02)];
        assert_replay_identical(&tech, &layout, schedule);
    }

    /// A 4×4 tiling: many small windows with mixed budgets.
    #[test]
    fn tiled_schedule_replays_bit_identical() {
        let (tech, layout) = refined(&bench::tiny_spec(), 42);
        let fp = *layout.floorplan();
        let (rows, cols) = (fp.rows(), fp.cols());
        let mut schedule = Vec::new();
        let n = 4u32;
        for i in 0..n {
            for j in 0..n {
                let dens = [0.08, 0.35, 0.60, 0.90][((i + 2 * j) % 4) as usize];
                schedule.push(Blockage::new(
                    rows * i / n,
                    rows * (i + 1) / n,
                    cols * j / n,
                    cols * (j + 1) / n,
                    dens,
                ));
            }
        }
        assert_replay_identical(&tech, &layout, schedule);
    }

    /// Back-to-back runs (LDA iterates eco_place): the second run starts
    /// from the first run's layout, compounding any divergence — there
    /// must be none.
    #[test]
    fn iterated_runs_replay_bit_identical() {
        let (tech, layout) = refined(&bench::tiny_spec(), 5);
        let fp = *layout.floorplan();
        let first = vec![Blockage::new(0, fp.rows() / 2, 0, fp.cols(), 0.15)];
        let second = vec![Blockage::new(
            fp.rows() / 4,
            fp.rows(),
            fp.cols() / 4,
            fp.cols(),
            0.20,
        )];
        let (mut with_index, mut with_scan) = (layout.clone(), layout);
        for schedule in [first, second] {
            replay_step(&tech, &mut with_index, &mut with_scan, schedule);
        }
    }

    /// An LDA-shaped tiling of `layout`: `n × n` tiles, clamped like the
    /// LDA operator so a tile spans at least two rows and two widest
    /// cells, with budgets that change per iteration. Some tiles get a
    /// zero bound, so they sit at zero headroom once evicted.
    fn lda_tiling(tech: &Technology, layout: &Layout, n: u32, iter: u32) -> Vec<Blockage> {
        let fp = *layout.floorplan();
        let w_max = tech
            .library
            .iter()
            .map(|(_, k)| k.width_sites)
            .max()
            .unwrap_or(1);
        let n_r = n.min(fp.rows() / 2).max(1);
        let n_c = n.min(fp.cols() / (2 * w_max)).max(1);
        let mut tiles = Vec::new();
        for i in 0..n_r {
            for j in 0..n_c {
                let dens = [0.0, 0.45, 0.55, 0.70, 0.98][((i + 2 * j + iter) % 5) as usize];
                tiles.push(Blockage::new(
                    fp.rows() * i / n_r,
                    fp.rows() * (i + 1) / n_r,
                    fp.cols() * j / n_c,
                    fp.cols() * (j + 1) / n_c,
                    dens,
                ));
            }
        }
        tiles
    }

    /// LDA-shaped schedules on a Table-II design with its critical cells
    /// locked: N = 8 and 32, one and three iterations each run on the
    /// previous iteration's layout. Both fallbacks must actually run —
    /// compaction that succeeds and compaction that gives up to the
    /// budget-blind `find_gap` — or the replay would not cover them.
    #[test]
    fn lda_tilings_replay_bit_identical() {
        let (tech, mut layout) = refined(&bench::spec_by_name("PRESENT").unwrap(), 3);
        let critical = layout.design().critical_cells.clone();
        for &c in &critical {
            layout.occupancy_mut().lock(c);
        }
        let (mut compacted, mut blind) = (0, 0);
        for n in [8, 32] {
            for n_iter in [1, 3] {
                let (mut with_index, mut with_scan) = (layout.clone(), layout.clone());
                for iter in 0..n_iter {
                    let tiling = lda_tiling(&tech, &layout, n, iter);
                    let (stats, b) = replay_step(&tech, &mut with_index, &mut with_scan, tiling);
                    compacted += stats.replaced_fallback - b;
                    blind += b;
                }
            }
        }
        assert!(compacted > 0, "no compaction success to replay");
        assert!(blind > 0, "no budget-blind fallback to replay");
    }
}

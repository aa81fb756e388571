//! **Dynamic Local Density Adjustment (LDA)** — anti-Trojan ECO placement
//! operator, Algorithm 2.
//!
//! For timing-tight or low-utilization designs, aggressive cell shifting
//! would wreck the fragile timing. LDA instead partitions the core into an
//! `N × N` grid, counts the security-critical assets per tile, converts the
//! normalized counts through a sigmoid into per-tile *density upper bounds*
//! (partial placement blockages), and runs wirelength-driven ECO placement.
//! Tiles rich in critical cells receive high density bounds (cells crowd in,
//! squeezing out free sites near the assets); asset-free tiles receive low
//! bounds (the whitespace migrates there, beyond exploitable distance).

use layout::{Blockage, Layout};
use place::EcoPlaceStats;
use tech::Technology;

/// Lower bound on any tile's density budget. See the floor pass in
/// [`local_density_adjustment`]: without it, hard-squeezed low-asset
/// tiles end phase 1 with zero headroom and the displaced cells have no
/// in-bounds destination at all.
const LDA_DENSITY_FLOOR: f64 = 0.50;

/// The logistic function used to smooth normalized asset counts into valid
/// density bounds.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Parameters of one LDA run (Table I candidates: `N ∈ {2,4,8,16,32}`,
/// `n_iter ∈ {1,2,3}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdaParams {
    /// Grid tiles per row/column.
    pub n: u32,
    /// Density adjustment iterations.
    pub n_iter: u32,
}

impl LdaParams {
    /// Candidate `N` values from Table I.
    pub const N_CANDIDATES: [u32; 5] = [2, 4, 8, 16, 32];
    /// Candidate iteration counts from Table I.
    pub const ITER_CANDIDATES: [u32; 3] = [1, 2, 3];
}

impl Default for LdaParams {
    fn default() -> Self {
        Self { n: 8, n_iter: 1 }
    }
}

/// Splits `total` into `n` contiguous chunks, returning chunk boundaries
/// (length `n + 1`). Degenerate chunks are skipped by the caller.
fn chunk_bounds(total: u32, n: u32) -> Vec<u32> {
    (0..=n)
        .map(|i| (total as u64 * i as u64 / n as u64) as u32)
        .collect()
}

static ECO_PLACE: obs::Span = obs::Span::new("lda.eco_place");
static DENSIFY: obs::Span = obs::Span::new("lda.densify");
static REFINE: obs::Span = obs::Span::new("lda.refine");

/// Runs the LDA operator. Returns the accumulated ECO placement statistics.
///
/// # Panics
///
/// Panics if `params.n == 0` or `params.n_iter == 0`.
pub fn local_density_adjustment(
    layout: &mut Layout,
    tech: &Technology,
    params: LdaParams,
    seed: u64,
) -> EcoPlaceStats {
    assert!(
        params.n > 0 && params.n_iter > 0,
        "degenerate LDA parameters"
    );
    layout.occupancy_mut().clear_fillers();
    let fp = *layout.floorplan();
    // Clamp the tiling so a tile is never smaller than the cells it must
    // budget: a 1-row × 3-site tile cannot meaningfully bound density when
    // the library's widest cell is 9 sites — every placement spanning such
    // tiles needs aligned headroom in each of them, and the site budgets
    // round to nothing, so fine tilings used to send most re-placements to
    // the anything-goes fallback. A tile at least two max-widths wide and
    // two rows tall keeps the bound meaningful at every `N` candidate.
    let w_max = tech
        .library
        .iter()
        .map(|(_, k)| k.width_sites)
        .max()
        .unwrap_or(1);
    let n_r = params.n.min(fp.rows() / 2).max(1);
    let n_c = params.n.min(fp.cols() / (2 * w_max).max(1)).max(1);
    let row_b = chunk_bounds(fp.rows(), n_r);
    let col_b = chunk_bounds(fp.cols(), n_c);
    let mut total = EcoPlaceStats::default();

    for _ in 0..params.n_iter {
        // Delete all existing placement blockages (Algorithm 2, line 3).
        layout.clear_blockages();

        // Count the critical assets per tile by their placement origin.
        let mut n_assets = vec![vec![0u32; n_c as usize]; n_r as usize];
        let critical = layout.design().critical_cells.clone();
        for &c in &critical {
            if let Some(pos) = layout.cell_pos(c) {
                let ti = row_b.partition_point(|&b| b <= pos.row).saturating_sub(1);
                let tj = col_b.partition_point(|&b| b <= pos.col).saturating_sub(1);
                n_assets[ti.min(n_r as usize - 1)][tj.min(n_c as usize - 1)] += 1;
            }
        }
        // Spatially smooth the counts over the exploitable neighborhood:
        // free sites in an asset-free tile *next to* the key bank are just
        // as exploitable as those inside it, so the density pressure must
        // extend over the tiles a Trojan could reach (~ an eighth of the
        // core, roughly the exploitable reach), not only the asset tiles.
        let radius = (n_r.max(n_c) as usize / 4).max(1);
        let raw = n_assets.clone();
        #[allow(clippy::needless_range_loop)] // windowed 2-D stencil; indices are the clearer form
        for i in 0..n_r as usize {
            for j in 0..n_c as usize {
                let mut acc = 0u32;
                for di in i.saturating_sub(radius)..(i + radius + 1).min(n_r as usize) {
                    for dj in j.saturating_sub(radius)..(j + radius + 1).min(n_c as usize) {
                        acc += raw[di][dj];
                    }
                }
                n_assets[i][j] = acc;
            }
        }
        let flat: Vec<f64> = n_assets
            .iter()
            .flat_map(|r| r.iter().map(|&v| v as f64))
            .collect();
        let mu = flat.iter().sum::<f64>() / flat.len() as f64;
        let var = flat.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / flat.len() as f64;
        let sigma = var.sqrt().max(1e-9);

        // One partial blockage per tile with the sigmoid density bound
        // (Algorithm 2, lines 7–11). The raw sigmoid bounds may sum to
        // less capacity than the design needs — an infeasible blockage set
        // that would send the ECO placer thrashing — so they are rescaled
        // (preserving their ratios) until the total budget clears the cell
        // count with 8 % headroom.
        let mut dens_cache = vec![vec![0.0f64; n_c as usize]; n_r as usize];
        let mut budget = 0.0f64;
        for i in 0..n_r as usize {
            for j in 0..n_c as usize {
                let dens = sigmoid((n_assets[i][j] as f64 - mu) / sigma);
                dens_cache[i][j] = dens;
                let tile_sites =
                    (row_b[i + 1] - row_b[i]) as f64 * (col_b[j + 1] - col_b[j]) as f64;
                budget += dens * tile_sites;
            }
        }
        let need = layout.occupancy().occupied_sites() as f64 * 1.08;
        if budget < need {
            let k = need / budget.max(1e-9);
            for row in dens_cache.iter_mut() {
                for d in row.iter_mut() {
                    *d = (*d * k).min(0.98);
                }
            }
        }
        // Floor the bounds: the sigmoid squeezes low-asset tiles hard, and
        // after phase-1 eviction every squeezed tile sits exactly at its
        // bound with zero headroom — evicted cells then have no legal
        // destination outside the (full, locked-cell-ridden) asset tiles
        // and fall through to the ECO placer's anything-goes fallback,
        // thrashing against the same bounds next iteration. A floor keeps
        // the density *gradient* toward the asset tiles (their bounds sit
        // at/near 0.98) while leaving moderately sparse tiles able to
        // absorb the displaced cells in bounds.
        for row in dens_cache.iter_mut() {
            for d in row.iter_mut() {
                *d = d.max(LDA_DENSITY_FLOOR);
            }
        }
        let mut blockages = Vec::with_capacity((n_r * n_c) as usize);
        for i in 0..n_r as usize {
            for j in 0..n_c as usize {
                let (r0, r1) = (row_b[i], row_b[i + 1]);
                let (c0, c1) = (col_b[j], col_b[j + 1]);
                if r0 >= r1 || c0 >= c1 {
                    continue; // tile degenerated away (N > rows)
                }
                blockages.push(Blockage::new(r0, r1, c0, c1, dens_cache[i][j]));
            }
        }
        layout.set_blockages(blockages);

        // Run ECO placement (Algorithm 2, line 13): evict cells from tiles
        // over their bound…
        let stats = ECO_PLACE.time(|sp| {
            let stats = place::eco_place(layout, tech);
            obs::trace(obs::Topic::Lda, || {
                format!(
                    "lda: eco_place {:.2}s ({} evicted)",
                    sp.elapsed().as_secs_f64(),
                    stats.evicted
                )
            });
            stats
        });
        total.evicted += stats.evicted;
        total.replaced_in_bounds += stats.replaced_in_bounds;
        total.replaced_fallback += stats.replaced_fallback;
        // …and pull cells *into* asset tiles up to their (high) bound,
        // squeezing out the free sites next to the critical assets.
        DENSIFY.time(|sp| {
            densify_asset_tiles(layout, &row_b, &col_b, &n_assets, &dens_cache);
            obs::trace(obs::Topic::Lda, || {
                format!("lda: densify {:.2}s", sp.elapsed().as_secs_f64())
            });
        });
    }
    // The blockages did their job; drop them so later flow stages (and
    // metric extraction) see a plain layout. A wirelength refinement pass
    // then recovers most of the displacement cost (the ECO placement of
    // the paper is wirelength/timing-driven end to end).
    layout.clear_blockages();
    REFINE.time(|sp| {
        place::refine_wirelength(layout, tech, 1, seed ^ 0x1DA);
        obs::trace(obs::Topic::Lda, || {
            format!("lda: refine {:.2}s", sp.elapsed().as_secs_f64())
        });
    });
    debug_assert!(layout.check_consistency(tech).is_ok());
    total
}

/// Fills the free runs of asset-bearing tiles by relocating the nearest
/// movable cells from asset-free tiles, until each tile reaches its target
/// density. Nearest-first relocation keeps the displacement (and therefore
/// the timing impact) minimal.
fn densify_asset_tiles(
    layout: &mut Layout,
    row_b: &[u32],
    col_b: &[u32],
    n_assets: &[Vec<u32>],
    dens: &[Vec<f64>],
) {
    use geom::SitePos;
    use layout::SiteState;
    let n_r = n_assets.len();
    let n_c = n_assets.first().map_or(0, |r| r.len());
    let tile_of = |row: u32, col: u32| -> (usize, usize) {
        let ti = row_b.partition_point(|&b| b <= row).saturating_sub(1);
        let tj = col_b.partition_point(|&b| b <= col).saturating_sub(1);
        (ti.min(n_r - 1), tj.min(n_c - 1))
    };
    let fp = *layout.floorplan();
    for i in 0..n_r {
        for j in 0..n_c {
            if n_assets[i][j] == 0 {
                continue;
            }
            let (r0, r1) = (row_b[i], row_b[i + 1]);
            let (c0, c1) = (col_b[j], col_b[j + 1]);
            if r0 >= r1 || c0 >= c1 {
                continue;
            }
            let target = dens[i][j].min(0.96);
            let mut guard = 0;
            while layout.occupancy().density_in(r0, r1, c0, c1) < target && guard < 64 {
                guard += 1;
                // Longest free run inside the tile.
                let mut best_run: Option<(u32, geom::Interval)> = None;
                for row in r0..r1 {
                    for run in layout.occupancy().empty_runs(row) {
                        let Some(clip) = run.intersection(&geom::Interval::new(c0, c1)) else {
                            continue;
                        };
                        if best_run.is_none_or(|(_, b)| clip.len() > b.len()) {
                            best_run = Some((row, clip));
                        }
                    }
                }
                let Some((gap_row, gap)) = best_run else {
                    break;
                };
                if gap.len() < 2 {
                    break; // only slivers left; nothing functional fits
                }
                // Fill the whole run with donors found in one ring scan
                // outward from the gap (nearest rows first), pulling
                // movable cells from asset-free tiles.
                let mut cursor = gap.lo;
                let mut moved_any = false;
                let mut row_order: Vec<u32> = (0..fp.rows()).collect();
                row_order.sort_by_key(|r| r.abs_diff(gap_row));
                'scan: for &row in &row_order {
                    let mut col = 0;
                    while col < fp.cols() {
                        let left = gap.hi - cursor;
                        if left < 2 {
                            break 'scan;
                        }
                        match layout.occupancy().state(SitePos::new(row, col)) {
                            SiteState::Cell(c) => {
                                let pos = layout.occupancy().cell_pos(c).expect("placed");
                                let w = layout.occupancy().cell_width(c).expect("placed");
                                col = pos.col + w;
                                if layout.occupancy().is_locked(c) || w > left {
                                    continue;
                                }
                                let (ti, tj) = tile_of(pos.row, pos.col);
                                if n_assets[ti][tj] > 0 {
                                    continue; // never steal from an asset tile
                                }
                                if layout
                                    .occupancy_mut()
                                    .move_cell(c, SitePos::new(gap_row, cursor))
                                    .is_ok()
                                {
                                    cursor += w;
                                    moved_any = true;
                                }
                            }
                            _ => col += 1,
                        }
                    }
                }
                if !moved_any {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn placed(util: f64) -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let mut spec = bench::tiny_spec();
        spec.period_factor = 0.95; // LDA targets timing-tight designs
        let design = bench::generate(&spec, &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, util);
        place::global_place(&mut layout, &tech, 51);
        place::refine_wirelength(&mut layout, &tech, 2, 51);
        crate::preprocess::lock_critical_cells(&mut layout);
        (tech, layout)
    }

    /// Mean free-site fraction of the tiles holding critical cells.
    fn free_fraction_near_assets(layout: &Layout, n: u32) -> f64 {
        let fp = *layout.floorplan();
        let row_b = chunk_bounds(fp.rows(), n);
        let col_b = chunk_bounds(fp.cols(), n);
        let mut tiles: std::collections::HashSet<(usize, usize)> = Default::default();
        for &c in &layout.design().critical_cells {
            if let Some(pos) = layout.cell_pos(c) {
                let ti = row_b.partition_point(|&b| b <= pos.row).saturating_sub(1);
                let tj = col_b.partition_point(|&b| b <= pos.col).saturating_sub(1);
                tiles.insert((ti.min(n as usize - 1), tj.min(n as usize - 1)));
            }
        }
        let mut acc = 0.0;
        for &(i, j) in &tiles {
            let d = layout
                .occupancy()
                .density_in(row_b[i], row_b[i + 1], col_b[j], col_b[j + 1]);
            acc += 1.0 - d;
        }
        acc / tiles.len() as f64
    }

    #[test]
    fn lda_densifies_asset_tiles() {
        let (tech, mut layout) = placed(0.6);
        let n = 4;
        let before = free_fraction_near_assets(&layout, n);
        let stats = local_density_adjustment(&mut layout, &tech, LdaParams { n, n_iter: 2 }, 1);
        let after = free_fraction_near_assets(&layout, n);
        assert!(stats.evicted > 0, "LDA must move cells");
        assert!(
            after < before,
            "free space near assets should shrink: {before:.3} -> {after:.3}"
        );
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn critical_cells_never_move() {
        let (tech, mut layout) = placed(0.6);
        let before: Vec<_> = layout
            .design()
            .critical_cells
            .iter()
            .map(|&c| layout.cell_pos(c))
            .collect();
        local_density_adjustment(&mut layout, &tech, LdaParams::default(), 3);
        let after: Vec<_> = layout
            .design()
            .critical_cells
            .iter()
            .map(|&c| layout.cell_pos(c))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn blockages_are_cleared_after_the_run() {
        let (tech, mut layout) = placed(0.6);
        local_density_adjustment(&mut layout, &tech, LdaParams::default(), 5);
        assert!(layout.blockages().is_empty());
    }

    #[test]
    fn oversized_grid_degrades_gracefully() {
        let (tech, mut layout) = placed(0.6);
        // N = 32 on a tiny core: many tiles are degenerate but the run
        // must still succeed.
        local_density_adjustment(&mut layout, &tech, LdaParams { n: 32, n_iter: 1 }, 7);
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        let b = chunk_bounds(10, 4);
        assert_eq!(b, vec![0, 2, 5, 7, 10]);
        let b = chunk_bounds(3, 8);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&3));
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.99);
        assert!(sigmoid(-10.0) < 0.01);
        assert!(sigmoid(1.0) > sigmoid(-1.0));
    }
}

//! Exploitable-region extraction and the ERsites / ERtracks security
//! metrics (Definition 2.2 of the paper).

use geom::{Dbu, GcellPos, Interval, SitePos};
use layout::Layout;
use netlist::CellId;
use route::RoutingState;
use sta::TimingReport;
use tech::{Technology, SITE_H, SITE_W};

use crate::distance::exploitable_distances;

/// Minimum contiguous-site count for a free-space component to count as an
/// exploitable region. Taken from the A2 Trojan footprint as in the paper
/// (`Thresh_ER = 20`).
pub const THRESH_ER: u32 = 20;

/// One exploitable region: a connected component of exploitable sites whose
/// weight reaches the threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Total number of sites in the region.
    pub sites: u64,
    /// The maximal free runs composing the region, as `(row, cols)` pairs
    /// sorted by row.
    pub rows: Vec<(u32, Interval)>,
}

/// Full security analysis of one layout.
#[derive(Debug, Clone)]
pub struct RegionAnalysis {
    /// Exploitable regions (weight ≥ threshold), largest first.
    pub regions: Vec<Region>,
    /// Free Placement Sites metric: total sites over all regions.
    pub er_sites: u64,
    /// Free Routing Tracks metric: unused tracks across all metal layers
    /// over the exploitable regions (area-prorated per gcell).
    pub er_tracks: f64,
    /// Per-critical-cell exploitable distances used for the mask.
    pub distances: Vec<(CellId, Dbu)>,
}

/// Disjoint-set over vertex indices.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        let mut c = x;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        r
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Merges the sorted intervals of `src` into `out` (cleared first).
fn merge_sorted_into(src: &[Interval], out: &mut Vec<Interval>) {
    out.clear();
    for &iv in src {
        if let Some(last) = out.last_mut() {
            if iv.lo <= last.hi {
                last.hi = last.hi.max(iv.hi);
                continue;
            }
        }
        out.push(iv);
    }
}

/// Extracts the exploitable regions of a layout and computes ERsites and
/// ERtracks.
///
/// A site is *exploitable* when it is free (empty or filler) **and** lies
/// within the exploitable distance of at least one security-critical cell.
/// Vertically adjacent free runs sharing a column merge into components;
/// components of at least `thresh` sites are the exploitable regions.
pub fn analyze_regions(
    layout: &Layout,
    routing: &RoutingState,
    timing: &TimingReport,
    tech: &Technology,
    thresh: u32,
) -> RegionAnalysis {
    let distances = exploitable_distances(layout, timing, tech);
    let fp = layout.floorplan();
    let occ = layout.occupancy();

    // Per-critical-cell centers in DBU.
    let centers: Vec<(geom::Point, Dbu)> = distances
        .iter()
        .filter(|(_, d)| *d > 0)
        .map(|&(c, d)| (layout.cell_center(c, tech), d))
        .collect();

    // Vertices: exploitable runs clipped to the distance mask, per row.
    //
    // A center's site-column interval `[lo, hi)` does not depend on the
    // row — only its *activity* does, and `|p.y - row_y| <= d` with
    // `row_y = row * SITE_H + SITE_H / 2` makes each center active on one
    // contiguous band of rows. Sweeping band entry/exit events therefore
    // replaces the per-row rescan of every center, and the merged mask is
    // rebuilt (into reused buffers) only on rows where membership
    // changes — the dominant cost of this pass on dense critical sets.
    // The rebuilt mask is what the rescan would have produced, so the
    // vertex list is unchanged.
    let rows = fp.rows() as usize;
    let half = SITE_H / 2;
    let mut starts: Vec<Vec<u32>> = vec![Vec::new(); rows + 1];
    let mut ends: Vec<Vec<u32>> = vec![Vec::new(); rows + 1];
    let mut spans: Vec<Interval> = Vec::with_capacity(centers.len());
    for (ci, &(p, d)) in centers.iter().enumerate() {
        let lo = ((p.x - d) / SITE_W).max(0) as u32;
        let hi = (((p.x + d) / SITE_W) + 1).min(fp.cols() as Dbu) as u32;
        spans.push(Interval::new(lo, hi));
        if lo >= hi {
            continue;
        }
        // Active rows: ceil/floor bounds of p.y - d <= row_y <= p.y + d.
        let r0 = (p.y - d - half + SITE_H - 1).div_euclid(SITE_H).max(0);
        let r1 = (p.y + d - half).div_euclid(SITE_H).min(rows as Dbu - 1);
        if r0 > r1 {
            continue;
        }
        starts[r0 as usize].push(ci as u32);
        ends[r1 as usize + 1].push(ci as u32);
    }
    let mut vertices: Vec<(u32, Interval)> = Vec::new();
    let mut row_start: Vec<usize> = Vec::with_capacity(rows + 1);
    let mut active = vec![false; centers.len()];
    let mut raw: Vec<Interval> = Vec::new();
    let mut mask: Vec<Interval> = Vec::new();
    let mut runs: Vec<Interval> = Vec::new();
    for row in 0..fp.rows() {
        row_start.push(vertices.len());
        let r = row as usize;
        if !starts[r].is_empty() || !ends[r].is_empty() {
            for &ci in &ends[r] {
                active[ci as usize] = false;
            }
            for &ci in &starts[r] {
                active[ci as usize] = true;
            }
            raw.clear();
            raw.extend(
                active
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a)
                    .map(|(ci, _)| spans[ci]),
            );
            raw.sort_unstable();
            merge_sorted_into(&raw, &mut mask);
        }
        if mask.is_empty() {
            continue;
        }
        occ.exploitable_runs_into(row, &mut runs);
        // Runs and mask are both sorted and disjoint, so a two-pointer
        // merge visits each clipped pair once; the emitted clips match
        // the nested run-by-mask scan in value and in order.
        let (mut i, mut j) = (0, 0);
        while i < runs.len() && j < mask.len() {
            if let Some(clip) = runs[i].intersection(&mask[j]) {
                if !clip.is_empty() {
                    vertices.push((row, clip));
                }
            }
            if runs[i].hi <= mask[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    row_start.push(vertices.len());

    // Union vertically touching vertices of adjacent rows.
    let mut dsu = Dsu::new(vertices.len());
    for row in 1..fp.rows() {
        let (a0, a1) = (row_start[row as usize - 1], row_start[row as usize]);
        let (b0, b1) = (row_start[row as usize], row_start[row as usize + 1]);
        let mut i = a0;
        let mut j = b0;
        while i < a1 && j < b1 {
            let (_, ia) = vertices[i];
            let (_, ib) = vertices[j];
            if ia.overlaps(&ib) {
                dsu.union(i as u32, j as u32);
            }
            if ia.hi <= ib.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
    }

    // Group into components and filter by weight. Vertices were emitted
    // in (row, interval) order, so bucketing indices by DSU root keeps
    // each component's member list sorted as it is built — no hash map,
    // no per-component collect-and-sort.
    let n = vertices.len();
    let mut root = vec![0u32; n];
    let mut root_sites = vec![0u64; n];
    for (i, r) in root.iter_mut().enumerate() {
        *r = dsu.find(i as u32);
        root_sites[*r as usize] += vertices[i].1.len() as u64;
    }
    let mut regions: Vec<Region> = Vec::new();
    let mut slot = vec![u32::MAX; n];
    for (i, &r) in root.iter().enumerate() {
        if root_sites[r as usize] < thresh as u64 {
            continue;
        }
        if slot[r as usize] == u32::MAX {
            slot[r as usize] = regions.len() as u32;
            regions.push(Region {
                sites: root_sites[r as usize],
                rows: Vec::new(),
            });
        }
        regions[slot[r as usize] as usize].rows.push(vertices[i]);
    }
    regions.sort_by_key(|r| (std::cmp::Reverse(r.sites), r.rows.first().copied()));
    let er_sites: u64 = regions.iter().map(|r| r.sites).sum();

    // ERtracks: free tracks over the region area, prorated per gcell.
    let grid = routing.grid();
    let gcell_sites = (route::GCELL_W_SITES * route::GCELL_H_ROWS) as f64;
    let mut sites_in_gcell: std::collections::BTreeMap<GcellPos, u64> = Default::default();
    for r in &regions {
        for &(row, iv) in &r.rows {
            let mut col = iv.lo;
            while col < iv.hi {
                let g = grid.gcell_of_site(SitePos::new(row, col));
                let next_boundary = ((col / route::GCELL_W_SITES) + 1) * route::GCELL_W_SITES;
                let end = iv.hi.min(next_boundary);
                *sites_in_gcell.entry(g).or_insert(0) += (end - col) as u64;
                col = end;
            }
        }
    }
    let er_tracks: f64 = sites_in_gcell
        .iter()
        .map(|(g, &s)| grid.free_tracks_all_layers(*g) * (s as f64 / gcell_sites).min(1.0))
        .sum();

    RegionAnalysis {
        regions,
        er_sites,
        er_tracks,
        distances,
    }
}

/// The paper's security objective:
/// `Security(L_opt) = α · ERsites(L_opt)/ERsites(L_base)
///                  + (1−α) · ERtracks(L_opt)/ERtracks(L_base)`.
///
/// Lower is better; the baseline scores 1.0 against itself. Zero-valued
/// baseline metrics contribute their `α` share only if the optimized layout
/// is also nonzero there (a fully clean baseline cannot be improved).
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn security_score(opt: &RegionAnalysis, base: &RegionAnalysis, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    let ratio = |o: f64, b: f64| -> f64 {
        if b <= 0.0 {
            if o <= 0.0 {
                0.0
            } else {
                1.0
            }
        } else {
            o / b
        }
    };
    alpha * ratio(opt.er_sites as f64, base.er_sites as f64)
        + (1.0 - alpha) * ratio(opt.er_tracks, base.er_tracks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn analyzed(
        period_factor: f64,
        util: f64,
    ) -> (Technology, Layout, RoutingState, RegionAnalysis) {
        let tech = Technology::nangate45_like();
        let mut spec = bench::tiny_spec();
        spec.period_factor = period_factor;
        let design = bench::generate(&spec, &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, util);
        place::global_place(&mut layout, &tech, 17);
        place::refine_wirelength(&mut layout, &tech, 2, 17);
        let routing = route::route_design(&layout, &tech);
        let timing = sta::analyze(&layout, &routing, &tech);
        let analysis = analyze_regions(&layout, &routing, &timing, &tech, THRESH_ER);
        (tech, layout, routing, analysis)
    }

    #[test]
    fn baseline_layout_is_exploitable() {
        let (_, _, _, a) = analyzed(1.4, 0.6);
        assert!(a.er_sites >= THRESH_ER as u64);
        assert!(a.er_tracks > 0.0);
        assert!(!a.regions.is_empty());
        // Regions are sorted largest-first and all meet the threshold.
        for w in a.regions.windows(2) {
            assert!(w[0].sites >= w[1].sites);
        }
        assert!(a.regions.iter().all(|r| r.sites >= THRESH_ER as u64));
    }

    #[test]
    fn region_row_runs_are_actually_free() {
        let (_, layout, _, a) = analyzed(1.4, 0.6);
        for region in &a.regions {
            for &(row, iv) in &region.rows {
                for col in iv.lo..iv.hi {
                    assert!(matches!(
                        layout.occupancy().state(SitePos::new(row, col)),
                        layout::SiteState::Empty | layout::SiteState::Filler
                    ));
                }
            }
        }
    }

    #[test]
    fn higher_utilization_reduces_er_sites() {
        let (_, _, _, loose) = analyzed(1.4, 0.55);
        let (_, _, _, dense) = analyzed(1.4, 0.80);
        assert!(
            dense.er_sites < loose.er_sites,
            "dense {} vs loose {}",
            dense.er_sites,
            loose.er_sites
        );
    }

    #[test]
    fn security_score_of_baseline_is_one() {
        let (_, _, _, a) = analyzed(1.4, 0.6);
        let s = security_score(&a, &a, 0.5);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn security_score_handles_clean_layout() {
        let (_, _, _, base) = analyzed(1.4, 0.6);
        let clean = RegionAnalysis {
            regions: vec![],
            er_sites: 0,
            er_tracks: 0.0,
            distances: vec![],
        };
        assert_eq!(security_score(&clean, &base, 0.5), 0.0);
        assert_eq!(security_score(&clean, &clean, 0.5), 0.0);
    }

    #[test]
    fn threshold_filters_small_fragments() {
        let (_, layout, routing, _) = analyzed(1.4, 0.6);
        let timing = sta::analyze(&layout, &routing, &Technology::nangate45_like());
        let tech = Technology::nangate45_like();
        let strict = analyze_regions(&layout, &routing, &timing, &tech, 1_000);
        let lax = analyze_regions(&layout, &routing, &timing, &tech, 4);
        assert!(strict.er_sites <= lax.er_sites);
        assert!(lax.regions.iter().all(|r| r.sites >= 4));
    }

    /// The per-row center rescan that the event sweep replaced, kept as
    /// the oracle for the sweep's vertex set: every row's mask is rebuilt
    /// from scratch by testing each center against the row.
    fn rescan_vertices(
        layout: &Layout,
        timing: &TimingReport,
        tech: &Technology,
    ) -> Vec<(u32, Interval)> {
        let distances = exploitable_distances(layout, timing, tech);
        let fp = layout.floorplan();
        let occ = layout.occupancy();
        let centers: Vec<(geom::Point, Dbu)> = distances
            .iter()
            .filter(|(_, d)| *d > 0)
            .map(|&(c, d)| (layout.cell_center(c, tech), d))
            .collect();
        let mut vertices = Vec::new();
        for row in 0..fp.rows() {
            let row_y = row as Dbu * SITE_H + SITE_H / 2;
            let mut mask: Vec<Interval> = Vec::new();
            for &(p, d) in &centers {
                if (p.y - row_y).abs() > d {
                    continue;
                }
                let lo = ((p.x - d) / SITE_W).max(0) as u32;
                let hi = (((p.x + d) / SITE_W) + 1).min(fp.cols() as Dbu) as u32;
                if lo < hi {
                    mask.push(Interval::new(lo, hi));
                }
            }
            if mask.is_empty() {
                continue;
            }
            mask.sort_unstable();
            let mut merged = Vec::new();
            merge_sorted_into(&mask, &mut merged);
            for run in occ.exploitable_runs(row) {
                for m in &merged {
                    if let Some(clip) = run.intersection(m) {
                        if !clip.is_empty() {
                            vertices.push((row, clip));
                        }
                    }
                }
            }
        }
        vertices
    }

    #[test]
    fn sweep_mask_matches_per_row_rescan() {
        for (pf, util) in [(1.4, 0.6), (0.9, 0.8), (1.1, 0.4)] {
            let (tech, layout, routing, a) = analyzed(pf, util);
            let timing = sta::analyze(&layout, &routing, &tech);
            let oracle = rescan_vertices(&layout, &timing, &tech);
            let mut from_regions: Vec<(u32, Interval)> = a
                .regions
                .iter()
                .flat_map(|r| r.rows.iter().copied())
                .collect();
            from_regions.sort_unstable();
            // Region rows are the threshold-surviving subset of the vertex
            // set, so every one must appear verbatim in the oracle scan.
            let mut oracle_sorted = oracle.clone();
            oracle_sorted.sort_unstable();
            for v in &from_regions {
                assert!(
                    oracle_sorted.binary_search(v).is_ok(),
                    "sweep produced a vertex the rescan never saw: {v:?}"
                );
            }
            // And the total exploitable weight must match exactly: the
            // sweep found neither more nor fewer exploitable sites.
            let lax = analyze_regions(&layout, &routing, &timing, &tech, 1);
            let oracle_sites: u64 = oracle.iter().map(|(_, iv)| iv.len() as u64).sum();
            assert_eq!(lax.er_sites, oracle_sites);
        }
    }

    #[test]
    fn merge_intervals_collapses_overlaps() {
        let mut ivs = vec![
            Interval::new(5, 9),
            Interval::new(0, 3),
            Interval::new(8, 12),
            Interval::new(3, 4),
        ];
        ivs.sort_unstable();
        let mut merged = Vec::new();
        merge_sorted_into(&ivs, &mut merged);
        assert_eq!(merged, vec![Interval::new(0, 4), Interval::new(5, 12)]);
    }
}

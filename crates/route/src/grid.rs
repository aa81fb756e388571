use std::sync::Arc;

use geom::{Dbu, GcellPos, SitePos};
use layout::Floorplan;
use tech::{LayerDir, RouteRule, Technology, NUM_METAL_LAYERS, SITE_H, SITE_W};

/// Width of a gcell in placement sites (3.8 µm).
pub const GCELL_W_SITES: u32 = 20;

/// Height of a gcell in core rows (4.2 µm).
pub const GCELL_H_ROWS: u32 = 3;

/// One quarter of an unscaled track-equivalent: the integer quantum in
/// which gcell usage is accounted. A run endpoint contributes 1 quantum,
/// an interior gcell 4 (the NDR width scale is applied at read time).
pub const QUANTA_PER_TRACK: i64 = 4;

/// Log2 of the page edge in gcells: usage planes are tiled into
/// 16×16-gcell pages so a copy-on-write write after a clone copies one
/// 2 KiB page instead of the whole plane.
const PAGE_SHIFT: u32 = 4;

/// Page edge in gcells.
const PAGE_W: u32 = 1 << PAGE_SHIFT;

/// Cells per page.
const PAGE_CELLS: usize = (PAGE_W * PAGE_W) as usize;

/// One 16×16-gcell tile of usage quanta.
type Page = [i64; PAGE_CELLS];

/// One layer's usage quanta, chunked into tile-major copy-on-write
/// pages. Cells outside the `nx × ny` grid (padding in edge pages) are
/// never written and stay zero, so derived `PartialEq` over pages is
/// exactly cell equality.
///
/// All pages of a fresh grid share a single zeroed allocation (across
/// layers too); a write un-shares only the page it lands in
/// ([`Arc::make_mut`]). Cloning a plane bumps one refcount per page —
/// warm candidate snapshots copy only the pages they actually touch
/// instead of whole planes.
#[derive(Debug, Clone, PartialEq)]
pub struct PagedPlane {
    nx: u32,
    ny: u32,
    /// Pages per row of tiles: `ceil(nx / 16)`.
    tiles_x: u32,
    /// Tile-major: page `(tx, ty)` at `ty * tiles_x + tx`.
    pages: Vec<Arc<Page>>,
}

impl PagedPlane {
    fn new(nx: u32, ny: u32, zero: &Arc<Page>) -> Self {
        let tiles_x = nx.div_ceil(PAGE_W).max(1);
        let tiles_y = ny.div_ceil(PAGE_W).max(1);
        Self {
            nx,
            ny,
            tiles_x,
            pages: vec![Arc::clone(zero); (tiles_x * tiles_y) as usize],
        }
    }

    #[inline]
    fn loc(&self, x: u32, y: u32) -> (usize, usize) {
        let t = ((y >> PAGE_SHIFT) * self.tiles_x + (x >> PAGE_SHIFT)) as usize;
        let off = (((y & (PAGE_W - 1)) << PAGE_SHIFT) | (x & (PAGE_W - 1))) as usize;
        (t, off)
    }

    /// Usage quanta at `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> i64 {
        let (t, off) = self.loc(x, y);
        self.pages[t][off]
    }

    /// Adds `q` quanta at `(x, y)`, copying the page if shared. Returns
    /// the new value.
    #[inline]
    fn add(&mut self, x: u32, y: u32, q: i64) -> i64 {
        let (t, off) = self.loc(x, y);
        let page = Arc::make_mut(&mut self.pages[t]);
        page[off] += q;
        page[off]
    }

    /// Visits every cell in flat row-major order — `(y * nx + x, value)`
    /// with the flat index strictly increasing — the exact order the
    /// pre-paging dense planes iterated in, so float accumulations over
    /// this walk are bit-identical to theirs.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize, i64)) {
        for y in 0..self.ny {
            let ty = y >> PAGE_SHIFT;
            let py = ((y & (PAGE_W - 1)) << PAGE_SHIFT) as usize;
            let base = (y * self.nx) as usize;
            for tx in 0..self.tiles_x {
                let x0 = tx << PAGE_SHIFT;
                if x0 >= self.nx {
                    break;
                }
                let count = (self.nx - x0).min(PAGE_W) as usize;
                let page = &self.pages[(ty * self.tiles_x + tx) as usize];
                for (dx, &v) in page[py..py + count].iter().enumerate() {
                    f(base + x0 as usize + dx, v);
                }
            }
        }
    }
}

/// The routing grid: gcell tiling of the core plus per-layer, per-gcell
/// track capacities and usage counters.
///
/// M1 is reserved for intra-cell routing and pin access and carries no
/// global-routing capacity; layers M2–M10 route signals in their preferred
/// direction.
///
/// Usage is stored in integer *quanta* (quarter-tracks before NDR
/// scaling) rather than floats. Integer adds commute exactly, so the
/// committed state of a set of nets is independent of the order they were
/// routed in, and applying the layer scale only at read time makes the
/// same stored segments valid under a different [`RouteRule`] — both
/// properties the incremental reroute path relies on to reproduce a
/// from-scratch route bit for bit.
///
/// Usage planes are copy-on-write at page granularity: each layer is a
/// [`PagedPlane`] of 16×16-gcell tiles behind `Arc`s, so cloning a grid
/// (plan memoization, rip-up-and-reroute best-state snapshots) costs one
/// refcount bump per page, and a write deep-copies
/// only the 2 KiB page it lands in ([`Arc::make_mut`] in
/// [`RouteGrid::add_quanta`]) — warm candidates no longer copy whole
/// planes.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteGrid {
    nx: u32,
    ny: u32,
    /// Capacity in tracks per gcell per layer (index 0 = M1, always 0.0).
    cap: [f64; NUM_METAL_LAYERS],
    /// Usage in quanta (quarter-tracks, unscaled), paged per layer.
    /// Copy-on-write per page; see [`PagedPlane`].
    usage: Vec<PagedPlane>,
    /// Active NDR scale per layer.
    scales: [f64; NUM_METAL_LAYERS],
    dirs: [LayerDir; NUM_METAL_LAYERS],
    /// Routable (M1-excluded) 1-based layers per direction, precomputed —
    /// layer selection sits on the maze router's innermost loop.
    h_layers: Vec<usize>,
    v_layers: Vec<usize>,
    /// Gcell span in DBU along x and y.
    span_x: Dbu,
    span_y: Dbu,
}

impl RouteGrid {
    /// Builds the grid for a floorplan under the given NDR rule.
    pub fn new(fp: &Floorplan, tech: &Technology, rule: &RouteRule) -> Self {
        let nx = fp.cols().div_ceil(GCELL_W_SITES).max(1);
        let ny = fp.rows().div_ceil(GCELL_H_ROWS).max(1);
        let span_x = GCELL_W_SITES as Dbu * SITE_W;
        let span_y = GCELL_H_ROWS as Dbu * SITE_H;
        // All layers start out sharing one zeroed page across every
        // tile; the first write on a page un-shares it (copy-on-write).
        let zero: Arc<Page> = Arc::new([0i64; PAGE_CELLS]);
        let usage = (0..NUM_METAL_LAYERS)
            .map(|_| PagedPlane::new(nx, ny, &zero))
            .collect();
        let mut grid = Self {
            nx,
            ny,
            cap: [0.0; NUM_METAL_LAYERS],
            usage,
            scales: [1.0; NUM_METAL_LAYERS],
            dirs: [LayerDir::Horizontal; NUM_METAL_LAYERS],
            h_layers: Vec::new(),
            v_layers: Vec::new(),
            span_x,
            span_y,
        };
        grid.set_rule(tech, rule);
        grid
    }

    /// Re-derives per-layer scales and capacities for a new NDR rule while
    /// keeping the committed usage quanta. Because usage is stored
    /// unscaled, the grid afterwards reads exactly as if every present
    /// segment had been committed under `rule` from the start.
    pub fn set_rule(&mut self, tech: &Technology, rule: &RouteRule) {
        for (i, layer) in tech.layers.iter().enumerate() {
            self.dirs[i] = layer.dir;
            self.scales[i] = rule.scale(i + 1);
            if i == 0 {
                continue; // M1: pin access only.
            }
            // A horizontal layer's tracks stack vertically across the gcell
            // height; a vertical layer's tracks stack across the width.
            let span = match layer.dir {
                LayerDir::Horizontal => self.span_y,
                LayerDir::Vertical => self.span_x,
            };
            self.cap[i] = layer.tracks_in_span(span, self.scales[i]) as f64;
        }
        self.h_layers.clear();
        self.v_layers.clear();
        for m in 2..=NUM_METAL_LAYERS {
            match self.dirs[m - 1] {
                LayerDir::Horizontal => self.h_layers.push(m),
                LayerDir::Vertical => self.v_layers.push(m),
            }
        }
    }

    /// Grid width in gcells.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Grid height in gcells.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Gcell span along x in DBU.
    pub fn span_x(&self) -> Dbu {
        self.span_x
    }

    /// Gcell span along y in DBU.
    pub fn span_y(&self) -> Dbu {
        self.span_y
    }

    /// Gcell containing a placement site.
    pub fn gcell_of_site(&self, pos: SitePos) -> GcellPos {
        GcellPos::new(
            (pos.col / GCELL_W_SITES).min(self.nx - 1),
            (pos.row / GCELL_H_ROWS).min(self.ny - 1),
        )
    }

    /// Gcell containing a DBU point.
    pub fn gcell_of_point(&self, p: geom::Point) -> GcellPos {
        GcellPos::new(
            ((p.x / self.span_x).max(0) as u32).min(self.nx - 1),
            ((p.y / self.span_y).max(0) as u32).min(self.ny - 1),
        )
    }

    /// Track capacity of 1-based layer `m` per gcell.
    pub fn capacity(&self, m: usize) -> f64 {
        self.cap[m - 1]
    }

    /// NDR scale of 1-based layer `m`.
    pub fn scale(&self, m: usize) -> f64 {
        self.scales[m - 1]
    }

    /// Preferred direction of 1-based layer `m`.
    pub fn dir(&self, m: usize) -> LayerDir {
        self.dirs[m - 1]
    }

    /// 1-based routable layers with the given direction (M1 excluded).
    pub fn layers_with_dir(&self, dir: LayerDir) -> &[usize] {
        match dir {
            LayerDir::Horizontal => &self.h_layers,
            LayerDir::Vertical => &self.v_layers,
        }
    }

    /// Track usage of layer `m` at `g`, in NDR-scaled track-equivalents.
    pub fn usage(&self, m: usize, g: GcellPos) -> f64 {
        self.scaled(m, self.usage[m - 1].get(g.x, g.y))
    }

    fn scaled(&self, m: usize, quanta: i64) -> f64 {
        quanta as f64 * self.scales[m - 1] / QUANTA_PER_TRACK as f64
    }

    /// Adds `q` usage quanta (quarter-tracks, unscaled) on layer `m` at
    /// `g`; negative values rip usage back out. First write after a clone
    /// deep-copies the 16×16-gcell page it lands in (copy-on-write).
    pub fn add_quanta(&mut self, m: usize, g: GcellPos, q: i64) {
        let v = self.usage[m - 1].add(g.x, g.y, q);
        debug_assert!(v >= 0, "usage went negative");
        let _ = v;
    }

    /// Unscaled usage quanta of layer `m` at gcell `(x, y)` — the paged
    /// replacement for indexing a flat plane slice; the maze router's
    /// congestion cost reads through this.
    #[inline]
    pub fn quanta_at(&self, m: usize, x: u32, y: u32) -> i64 {
        self.usage[m - 1].get(x, y)
    }

    /// Read-only view of layer `m`'s paged usage plane in unscaled
    /// quanta. Exposed so equivalence tests can compare two grids
    /// exactly and assert page-level copy-on-write sharing.
    pub fn plane(&self, m: usize) -> &PagedPlane {
        &self.usage[m - 1]
    }

    /// Resident heap bytes of the usage planes, with pages shared
    /// between layers (or with other grid clones already counted by the
    /// caller's walk of this grid) counted once via pointer identity.
    pub fn planes_bytes(&self) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let mut bytes = 0u64;
        for plane in &self.usage {
            bytes += (plane.pages.capacity() * size_of::<Arc<Page>>()) as u64;
            for p in &plane.pages {
                if seen.insert(Arc::as_ptr(p)) {
                    bytes += size_of::<Page>() as u64;
                }
            }
        }
        bytes
    }

    /// Resident page bytes of this grid *not* shared with `base`: pages
    /// whose `Arc`s diverged through copy-on-write writes, deduplicated
    /// by pointer within this grid. Approximately what dropping this
    /// grid frees while `base` stays alive.
    pub fn unshared_planes_bytes(&self, base: &RouteGrid) -> u64 {
        let mut base_pages = std::collections::HashSet::new();
        for plane in &base.usage {
            for p in &plane.pages {
                base_pages.insert(Arc::as_ptr(p));
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut bytes = 0u64;
        for plane in &self.usage {
            for p in &plane.pages {
                let ptr = Arc::as_ptr(p);
                if !base_pages.contains(&ptr) && seen.insert(ptr) {
                    bytes += size_of::<Page>() as u64;
                }
            }
        }
        bytes
    }

    /// Free tracks on layer `m` at `g` (clamped at zero when overflowed).
    pub fn free_tracks(&self, m: usize, g: GcellPos) -> f64 {
        (self.cap[m - 1] - self.usage(m, g)).max(0.0)
    }

    /// Free tracks summed over all routable layers at `g` — the quantity
    /// ERtracks aggregates over exploitable regions.
    pub fn free_tracks_all_layers(&self, g: GcellPos) -> f64 {
        (2..=NUM_METAL_LAYERS).map(|m| self.free_tracks(m, g)).sum()
    }

    /// Total capacity over all routable layers at one gcell.
    pub fn capacity_all_layers(&self) -> f64 {
        (2..=NUM_METAL_LAYERS).map(|m| self.cap[m - 1]).sum()
    }

    /// Number of `(layer, gcell)` pairs whose usage exceeds capacity by
    /// more than `tol` tracks. Detailed routing absorbs fractional
    /// overflows; only deep overflow surfaces as DRC violations.
    pub fn deep_overflow_pairs(&self, tol: f64) -> u32 {
        let mut n = 0;
        for m in 2..=NUM_METAL_LAYERS {
            self.usage[m - 1].for_each(|_, u| {
                if self.scaled(m, u) > self.cap[m - 1] + tol {
                    n += 1;
                }
            });
        }
        n
    }

    /// Number of `(layer, gcell)` pairs whose usage exceeds capacity.
    pub fn overflow_pairs(&self) -> u32 {
        let mut n = 0;
        for m in 2..=NUM_METAL_LAYERS {
            self.usage[m - 1].for_each(|_, u| {
                if self.scaled(m, u) > self.cap[m - 1] + 1e-9 {
                    n += 1;
                }
            });
        }
        n
    }

    /// Total usage above capacity, in track-equivalents.
    pub fn total_overflow(&self) -> f64 {
        let mut t = 0.0;
        for m in 2..=NUM_METAL_LAYERS {
            self.usage[m - 1].for_each(|_, u| {
                t += (self.scaled(m, u) - self.cap[m - 1]).max(0.0);
            });
        }
        t
    }

    /// One-pass overflow census: a membership bitset over overflowed
    /// `(layer, gcell)` pairs plus the pair count and total overflow.
    ///
    /// Uses the same epsilon and the same layer-major summation order as
    /// [`RouteGrid::overflow_pairs`] / [`RouteGrid::total_overflow`], so
    /// `set.pairs()` and `set.total_overflow()` are bit-identical to
    /// those methods on the same grid — rip-up-and-reroute scores rounds
    /// off this census instead of re-reading usage per victim segment.
    pub fn overflow_set(&self) -> OverflowSet {
        let n_cells = (self.nx * self.ny) as usize;
        let n_routable = NUM_METAL_LAYERS - 1;
        let mut set = OverflowSet {
            nx: self.nx,
            n_cells,
            words: vec![0u64; (n_routable * n_cells).div_ceil(64)],
            pairs: 0,
            total: 0.0,
        };
        for m in 2..=NUM_METAL_LAYERS {
            let cap = self.cap[m - 1];
            self.usage[m - 1].for_each(|i, u| {
                let scaled = self.scaled(m, u);
                set.total += (scaled - cap).max(0.0);
                if scaled > cap + 1e-9 {
                    set.pairs += 1;
                    let bit = (m - 2) * n_cells + i;
                    set.words[bit / 64] |= 1 << (bit % 64);
                }
            });
        }
        set
    }
}

/// Bitset census of overflowed `(layer, gcell)` pairs, built once per
/// rip-up-and-reroute round by [`RouteGrid::overflow_set`]. Victim
/// scanning tests membership here instead of re-deriving scaled usage per
/// segment cell.
#[derive(Debug, Clone)]
pub struct OverflowSet {
    nx: u32,
    n_cells: usize,
    /// Per-(layer, gcell) bits; bit index `(m - 2) * n_cells + idx`.
    words: Vec<u64>,
    pairs: u32,
    total: f64,
}

impl OverflowSet {
    /// True when no `(layer, gcell)` pair overflows.
    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    /// Number of overflowed `(layer, gcell)` pairs; bit-identical to
    /// [`RouteGrid::overflow_pairs`] on the source grid.
    pub fn pairs(&self) -> u32 {
        self.pairs
    }

    /// Total overflow in track-equivalents; bit-identical to
    /// [`RouteGrid::total_overflow`] on the source grid.
    pub fn total_overflow(&self) -> f64 {
        self.total
    }

    /// Whether 1-based layer `m` overflows at `g`.
    pub fn contains(&self, m: usize, g: GcellPos) -> bool {
        let idx = (g.y * self.nx + g.x) as usize;
        let bit = (m - 2) * self.n_cells + idx;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RouteGrid {
        let tech = Technology::nangate45_like();
        let fp = Floorplan::new(21, 200);
        RouteGrid::new(&fp, &tech, &RouteRule::default())
    }

    /// Raw pointer identity of the page of `plane` covering `(x, y)`, so
    /// copy-on-write tests can assert page sharing.
    fn page_ptr(plane: &PagedPlane, x: u32, y: u32) -> *const Page {
        Arc::as_ptr(&plane.pages[plane.loc(x, y).0])
    }

    #[test]
    fn dimensions() {
        let g = grid();
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 7);
        assert_eq!(g.capacity(1), 0.0, "M1 carries no global routing");
        assert!(g.capacity(2) > 0.0);
    }

    #[test]
    fn ndr_reduces_capacity() {
        let tech = Technology::nangate45_like();
        let fp = Floorplan::new(20, 200);
        let base = RouteGrid::new(&fp, &tech, &RouteRule::default());
        let wide = RouteGrid::new(&fp, &tech, &RouteRule::uniform(1.5));
        for m in 2..=NUM_METAL_LAYERS {
            assert!(wide.capacity(m) <= base.capacity(m), "layer {m}");
        }
        assert!(wide.capacity_all_layers() < base.capacity_all_layers());
    }

    #[test]
    fn usage_and_overflow_accounting() {
        let mut g = grid();
        let p = GcellPos::new(3, 4);
        assert_eq!(g.overflow_pairs(), 0);
        let cap2 = g.capacity(2);
        // Default rule (scale 1.0): each quantum reads as a quarter track.
        let q = ((cap2 + 2.0) * QUANTA_PER_TRACK as f64) as i64;
        g.add_quanta(2, p, q);
        assert!((g.usage(2, p) - (cap2 + 2.0)).abs() < 1e-9);
        assert_eq!(g.overflow_pairs(), 1);
        assert!((g.total_overflow() - 2.0).abs() < 1e-9);
        assert_eq!(g.free_tracks(2, p), 0.0);
        assert!(g.free_tracks_all_layers(p) > 0.0, "other layers still free");
        // Negative quanta rip usage back out exactly.
        g.add_quanta(2, p, -q);
        assert_eq!(g.usage(2, p), 0.0);
        assert_eq!(g.overflow_pairs(), 0);
    }

    #[test]
    fn set_rule_rescales_existing_usage() {
        let tech = Technology::nangate45_like();
        let fp = Floorplan::new(21, 200);
        let mut g = RouteGrid::new(&fp, &tech, &RouteRule::default());
        let p = GcellPos::new(1, 1);
        g.add_quanta(3, p, 8); // two unscaled tracks
        assert!((g.usage(3, p) - 2.0).abs() < 1e-12);
        g.set_rule(&tech, &RouteRule::uniform(1.5));
        // The same stored quanta now read under the new scale, exactly as
        // if the segments had been committed under the wide rule.
        assert!((g.usage(3, p) - 3.0).abs() < 1e-12);
        assert!((g.scale(3) - 1.5).abs() < 1e-12);
        let fresh = RouteGrid::new(&fp, &tech, &RouteRule::uniform(1.5));
        for m in 2..=NUM_METAL_LAYERS {
            assert_eq!(g.capacity(m), fresh.capacity(m), "layer {m}");
        }
    }

    #[test]
    fn site_to_gcell_mapping() {
        let g = grid();
        assert_eq!(g.gcell_of_site(SitePos::new(0, 0)), GcellPos::new(0, 0));
        assert_eq!(g.gcell_of_site(SitePos::new(20, 199)), GcellPos::new(9, 6));
        assert_eq!(g.gcell_of_site(SitePos::new(3, 45)), GcellPos::new(2, 1));
    }

    #[test]
    fn direction_partition_covers_m2_to_m10() {
        let g = grid();
        let h = g.layers_with_dir(LayerDir::Horizontal);
        let v = g.layers_with_dir(LayerDir::Vertical);
        assert_eq!(h.len() + v.len(), 9);
        assert!(!h.contains(&1) && !v.contains(&1));
    }

    #[test]
    fn usage_planes_are_copy_on_write() {
        let mut g = grid();
        let p = GcellPos::new(1, 1);
        g.add_quanta(2, p, 4);
        g.add_quanta(3, p, 4);
        let snap = g.clone();
        // A clone shares every page with its source.
        for m in 2..=NUM_METAL_LAYERS {
            assert_eq!(
                page_ptr(snap.plane(m), p.x, p.y),
                page_ptr(g.plane(m), p.x, p.y),
                "layer {m}"
            );
        }
        // Writing one layer un-shares exactly the page written.
        g.add_quanta(2, p, 4);
        assert_ne!(
            page_ptr(snap.plane(2), p.x, p.y),
            page_ptr(g.plane(2), p.x, p.y)
        );
        assert_eq!(
            page_ptr(snap.plane(3), p.x, p.y),
            page_ptr(g.plane(3), p.x, p.y)
        );
        // The clone kept the pre-write value; the source sees the write.
        assert!((snap.usage(2, p) - 1.0).abs() < 1e-12);
        assert!((g.usage(2, p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_planes_share_one_zero_page_across_layers() {
        let g = grid();
        let p0 = page_ptr(g.plane(2), 0, 0);
        for m in 2..=NUM_METAL_LAYERS {
            assert_eq!(page_ptr(g.plane(m), 0, 0), p0, "layer {m}");
        }
        // The shared-page accounting reports one page plus the Arc
        // tables (the 10×7 grid is a single 16×16 tile per layer).
        assert_eq!(
            g.planes_bytes(),
            (PAGE_CELLS * size_of::<i64>()) as u64
                + (NUM_METAL_LAYERS * size_of::<Arc<Page>>()) as u64
        );
    }

    #[test]
    fn paged_for_each_walks_row_major() {
        // A grid wider than one page exercises the tile-crossing walk.
        let tech = Technology::nangate45_like();
        let fp = Floorplan::new(120, 800); // nx = 40 gcells, ny = 40
        let mut g = RouteGrid::new(&fp, &tech, &RouteRule::default());
        assert!(g.nx() > PAGE_W && g.ny() > PAGE_W);
        // Scatter writes across pages, mirror into a flat shadow plane.
        let mut shadow = vec![0i64; (g.nx() * g.ny()) as usize];
        for k in 0..200u32 {
            let x = (k * 7) % g.nx();
            let y = (k * 13) % g.ny();
            let q = (k % 9) as i64 + 1;
            g.add_quanta(3, GcellPos::new(x, y), q);
            shadow[(y * g.nx() + x) as usize] += q;
        }
        let mut walked = vec![0i64; shadow.len()];
        let mut last: i64 = -1;
        g.plane(3).for_each(|i, v| {
            assert!(i as i64 > last, "flat index not strictly increasing");
            last = i as i64;
            walked[i] = v;
        });
        assert_eq!(
            last as usize,
            shadow.len() - 1,
            "walk must visit every cell"
        );
        assert_eq!(walked, shadow);
        for y in 0..g.ny() {
            for x in 0..g.nx() {
                assert_eq!(
                    g.quanta_at(3, x, y),
                    shadow[(y * g.nx() + x) as usize],
                    "({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn overflow_set_matches_grid_census() {
        let mut g = grid();
        // Overflow two cells on different layers, plus near-capacity noise.
        for i in 0..40 {
            g.add_quanta(2, GcellPos::new(1, 2), 4);
            g.add_quanta(5, GcellPos::new(3, 4), 4);
            if i < 10 {
                g.add_quanta(4, GcellPos::new(0, 0), 4);
            }
        }
        let set = g.overflow_set();
        assert_eq!(set.pairs(), g.overflow_pairs());
        assert_eq!(set.total_overflow(), g.total_overflow());
        assert!(!set.is_empty());
        for m in 2..=NUM_METAL_LAYERS {
            for y in 0..g.ny() {
                for x in 0..g.nx() {
                    let gp = GcellPos::new(x, y);
                    let over = g.usage(m, gp) > g.capacity(m) + 1e-9;
                    assert_eq!(set.contains(m, gp), over, "layer {m} at {gp:?}");
                }
            }
        }
    }
}

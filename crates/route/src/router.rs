use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use geom::GcellPos;
use layout::Layout;
use netlist::{NetDriver, NetId, Sink};
use tech::{LayerDir, Technology};

use crate::grid::{OverflowSet, RouteGrid};

/// One committed straight global-routing run on a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSeg {
    /// 1-based metal layer.
    pub layer: usize,
    /// Start gcell.
    pub from: GcellPos,
    /// End gcell (same row for horizontal layers, same column for vertical).
    pub to: GcellPos,
}

impl RouteSeg {
    /// Number of gcells crossed (inclusive of both ends).
    pub fn gcells(&self) -> u32 {
        self.from.manhattan(self.to) + 1
    }
}

/// Lumped parasitics of one routed net.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetRc {
    /// Total wire resistance in kΩ.
    pub res: f64,
    /// Total wire capacitance in fF.
    pub cap: f64,
}

/// Result of routing a layout: per-net segments and parasitics plus the
/// occupied routing grid.
///
/// Per-net segment lists are `Arc`-shared slices (one allocation each),
/// so cloning a routing state (or snapshotting the best
/// rip-up-and-reroute round) is a refcount bump per net, never a deep
/// copy; rerouting a net replaces its `Arc` wholesale.
#[derive(Debug, Clone)]
pub struct RoutingState {
    grid: RouteGrid,
    segs: Vec<Arc<[RouteSeg]>>,
    rc: Vec<NetRc>,
    wirelength_um: f64,
    /// Sorted, deduplicated ids of every net Phase B ripped up in any
    /// round — a superset of the nets whose final segments differ from
    /// the plan's (best-state restore only ever *discards* reroutes).
    /// Shared by `Arc` so cloning a state stays a refcount bump.
    touched: Arc<[NetId]>,
}

// The router's telemetry: phase walls and Phase-B calls come from the
// spans; the counters and the histogram are the scalar metrics alongside
// them.

static PHASE_A: obs::Span = obs::Span::new("route.phase_a");
static PHASE_A_PATCH: obs::Span = obs::Span::new("route.phase_a_patch");
static PHASE_B: obs::Span = obs::Span::new("route.phase_b");

/// Rip-up-and-reroute rounds executed.
static ROUNDS: obs::Counter = obs::Counter::new("rrr.rounds");
/// Victim nets ripped and rerouted.
static VICTIMS: obs::Counter = obs::Counter::new("rrr.victims");
/// `finalize_route` calls that the stall rule ([`rrr_continues`]) ended
/// before their last round.
static STALLS: obs::Counter = obs::Counter::new("rrr.stalls");
/// Heap pops per maze (Dijkstra) search — the router's unit of work.
static MAZE_POPS: obs::Histogram = obs::Histogram::new("maze.pops");

/// Injection point covering Phase-B congestion resolution: checked once per
/// RRR round and every 1024 maze pops (which is also the router-side
/// granularity of the cooperative eval deadline).
static ROUTE_OVERFLOW: faults::Point = faults::Point::new("route.overflow");

/// The set of nets whose routes a layout edit invalidated, plus whether
/// the NDR rule changed. Everything not listed keeps its Phase-A pattern
/// verbatim in an incremental update.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    /// Nets with at least one terminal in a different gcell than before.
    pub nets: Vec<NetId>,
    /// The active [`tech::RouteRule`] differs from the plan's.
    pub rule_changed: bool,
}

/// The Phase-A (pattern-route) state of a design: every net's MST edges
/// and congestion-oblivious pattern segments committed on the grid.
///
/// Each net's contribution is a pure function of its terminal gcells, and
/// usage is integer quanta, so patching only the nets named by a
/// [`DirtySet`] (see [`plan_update`]) yields a plan bit-identical to
/// re-planning the edited layout from scratch. [`finalize_route`] then
/// runs the deterministic rip-up-and-reroute refinement plus parasitic
/// extraction on top.
///
/// Per-net segment and edge lists are `Arc`-shared slices, one
/// allocation each: cloning a plan (the hot path of incremental
/// evaluation, which patches a cached base plan per candidate) bumps one
/// refcount per net instead of copying geometry, and re-planning a dirty
/// net swaps in a fresh `Arc`.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    grid: RouteGrid,
    segs: Vec<Arc<[RouteSeg]>>,
    edges: Vec<Arc<[(GcellPos, GcellPos)]>>,
}

impl RoutePlan {
    /// Re-derives track scales and capacities for `rule`. Stored usage is
    /// unscaled quanta and patterns are congestion-oblivious, so the plan
    /// stays exact under the new rule — this is the whole rule handling of
    /// [`plan_update`], exposed for callers that cache plans across
    /// rule-only variations.
    pub fn set_rule(&mut self, tech: &Technology, rule: &tech::RouteRule) {
        self.grid.set_rule(tech, rule);
    }

    /// The plan's usage grid (Phase-A pattern usage).
    pub fn grid(&self) -> &RouteGrid {
        &self.grid
    }

    /// Approximate resident heap bytes of this plan *not* shared with
    /// `base`: diverged usage pages, the plan's own per-net pointer
    /// tables, and the per-net segment/edge lists whose `Arc`s differ
    /// from the base plan's (patched nets own their lists; untouched nets
    /// share the base's). This is roughly what evicting this plan frees
    /// while `base` stays cached — the eval cache's byte-budget unit.
    pub fn approx_unshared_bytes(&self, base: &RoutePlan) -> u64 {
        fn lists<T>(own: &[Arc<[T]>], base: &[Arc<[T]>]) -> usize {
            let owned: usize = own
                .iter()
                .enumerate()
                .filter(|&(i, l)| !base.get(i).is_some_and(|b| Arc::ptr_eq(l, b)))
                .map(|(_, l)| size_of_val::<[T]>(l))
                .sum();
            owned + size_of_val(own)
        }
        let lists = lists(&self.segs, &base.segs) + lists(&self.edges, &base.edges);
        self.grid.unshared_planes_bytes(&base.grid) + lists as u64
    }
}

/// Extra wire modeled per pin for pin escape / via stacks, in DBU of M2.
const PIN_STUB_DBU: i64 = 500;

/// Congestion cost multipliers for layer selection.
const OVERFLOW_PENALTY: f64 = 12.0;
const CONGESTION_WEIGHT: f64 = 4.0;
const LAYER_MISMATCH_WEIGHT: f64 = 0.75;

impl RoutingState {
    /// The routing grid with final usage.
    pub fn grid(&self) -> &RouteGrid {
        &self.grid
    }

    /// Committed segments of a net.
    pub fn net_segs(&self, net: NetId) -> &[RouteSeg] {
        &self.segs[net.0 as usize]
    }

    /// Sorted ids of every net the rip-up-and-reroute refinement ripped
    /// up, in any round. Nets not listed carry their Phase-A pattern
    /// segments verbatim (the list is a superset of the nets that
    /// actually changed: a best-state restore discards late reroutes but
    /// never introduces new diffs). Incremental STA uses this to bound
    /// its RC diff to router-touched nets.
    pub fn touched_nets(&self) -> &[NetId] {
        &self.touched
    }

    /// Lumped parasitics of a net.
    pub fn net_rc(&self, net: NetId) -> NetRc {
        self.rc[net.0 as usize]
    }

    /// Total routed wirelength in µm.
    pub fn total_wirelength_um(&self) -> f64 {
        self.wirelength_um
    }

    /// Design-rule violation count: routing overflows plus pin-access
    /// violations in gcells that are both nearly full of cells and heavily
    /// wired. The thresholds are calibrated so a clean baseline reports ~0
    /// and a fill-everything defense reports tens of violations, matching
    /// the magnitudes of Table II.
    pub fn drc_violations(&self, layout: &Layout) -> u32 {
        let mut v = self.grid.deep_overflow_pairs(1.0);
        let occ = layout.occupancy();
        let fp = layout.floorplan();
        for gy in 0..self.grid.ny() {
            for gx in 0..self.grid.nx() {
                let g = GcellPos::new(gx, gy);
                let row0 = gy * crate::GCELL_H_ROWS;
                let row1 = ((gy + 1) * crate::GCELL_H_ROWS).min(fp.rows());
                let col0 = gx * crate::GCELL_W_SITES;
                let col1 = ((gx + 1) * crate::GCELL_W_SITES).min(fp.cols());
                if row0 >= row1 || col0 >= col1 {
                    continue;
                }
                let density = occ.density_in(row0, row1, col0, col1);
                let cap = self.grid.capacity_all_layers();
                let used = cap - self.grid.free_tracks_all_layers(g);
                if density > 0.985 && used / cap > 0.55 {
                    v += 1;
                }
            }
        }
        v
    }
}

/// Gcell terminals of a net: driver and sink cell locations (deduplicated),
/// ignoring IO-only connections.
fn net_terminals(
    layout: &Layout,
    tech: &Technology,
    grid: &RouteGrid,
    net: NetId,
) -> Vec<GcellPos> {
    let design = layout.design();
    let n = design.net(net);
    let mut t: Vec<GcellPos> = Vec::new();
    let mut push = |cell: netlist::CellId| {
        if layout.cell_pos(cell).is_some() {
            let g = grid.gcell_of_point(layout.cell_center(cell, tech));
            if !t.contains(&g) {
                t.push(g);
            }
        }
    };
    if let NetDriver::Cell(c) = n.driver {
        push(c);
    }
    for s in &n.sinks {
        match s {
            Sink::CellInput { cell, .. } | Sink::CellClock(cell) => push(*cell),
            Sink::PrimaryOutput(_) => {}
        }
    }
    t
}

/// Prim MST over terminal gcells; returns the edge list.
fn mst_edges(terminals: &[GcellPos]) -> Vec<(GcellPos, GcellPos)> {
    let k = terminals.len();
    if k < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; k];
    let mut dist = vec![u32::MAX; k];
    let mut parent = vec![0usize; k];
    in_tree[0] = true;
    for (i, t) in terminals.iter().enumerate().skip(1) {
        dist[i] = terminals[0].manhattan(*t);
    }
    let mut edges = Vec::with_capacity(k - 1);
    for _ in 1..k {
        let (next, _) = dist
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by_key(|(_, d)| **d)
            .expect("k - 1 nodes remain");
        in_tree[next] = true;
        edges.push((terminals[parent[next]], terminals[next]));
        for (i, t) in terminals.iter().enumerate() {
            if !in_tree[i] {
                let d = terminals[next].manhattan(*t);
                if d < dist[i] {
                    dist[i] = d;
                    parent[i] = next;
                }
            }
        }
    }
    edges
}

/// Preferred layer index (into the direction's layer list) for a run of
/// `len` gcells: short wires stay low, long wires climb the stack.
fn ideal_layer_rank(len: u32, num_ranks: usize) -> usize {
    let rank = match len {
        0..=3 => 0,
        4..=10 => 1,
        11..=25 => 2,
        _ => 3,
    };
    rank.min(num_ranks - 1)
}

/// Cost of routing a straight run on `layer` across `cells`, with the
/// overflow penalty scaled by `penalty_mult` (rip-up-and-reroute rounds
/// escalate it).
fn run_cost(
    grid: &RouteGrid,
    layer: usize,
    cells: &[GcellPos],
    ideal_rank: usize,
    rank: usize,
    penalty_mult: f64,
) -> f64 {
    let scale = grid.scale(layer);
    let cap = grid.capacity(layer);
    let mut cost = 0.0;
    for &g in cells {
        let u = grid.usage(layer, g);
        cost += 1.0;
        if u + scale > cap {
            cost += OVERFLOW_PENALTY * penalty_mult;
        } else if cap > 0.0 {
            cost += CONGESTION_WEIGHT * (u / cap);
        }
    }
    cost + LAYER_MISMATCH_WEIGHT * (rank.abs_diff(ideal_rank) as f64) * cells.len() as f64
}

/// Gcells of a horizontal run at `y` from `x0` to `x1` inclusive.
fn h_run(y: u32, x0: u32, x1: u32) -> Vec<GcellPos> {
    let (a, b) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
    (a..=b).map(|x| GcellPos::new(x, y)).collect()
}

/// Gcells of a vertical run at `x` from `y0` to `y1` inclusive.
fn v_run(x: u32, y0: u32, y1: u32) -> Vec<GcellPos> {
    let (a, b) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
    (a..=b).map(|y| GcellPos::new(x, y)).collect()
}

/// Picks the cheapest layer of `dir` for the run and returns
/// `(layer, cost)`.
fn pick_layer(
    grid: &RouteGrid,
    dir: LayerDir,
    cells: &[GcellPos],
    len: u32,
    penalty_mult: f64,
) -> (usize, f64) {
    let layers = grid.layers_with_dir(dir);
    let ideal = ideal_layer_rank(len, layers.len());
    layers
        .iter()
        .enumerate()
        .map(|(rank, &m)| (m, run_cost(grid, m, cells, ideal, rank, penalty_mult)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .expect("each direction has layers")
}

/// Integer step-cost unit: one thousandth of [`run_cost`]'s unit cost.
/// Quantizing to milli-units makes maze distances exact integers (no
/// epsilon in the relaxation test) that pack into integer frontier keys.
const MILLI: f64 = 1000.0;

/// Step cost of entering gcell `(x, y)` in direction `dir` — the
/// cheapest same-direction layer's congestion cost (mirroring
/// [`run_cost`] without the layer-preference term) — quantized to integer
/// milli-units. [`StepCosts`] holds it for every gcell and axis.
#[inline]
fn cell_cost(
    grid: &RouteGrid,
    dir: LayerDir,
    consts: &[LayerConsts],
    penalty_mult: f64,
    y: u32,
    x: u32,
) -> u32 {
    let over = 1.0 + OVERFLOW_PENALTY * penalty_mult;
    let mut best = f64::INFINITY;
    for &m in grid.layers_with_dir(dir) {
        let k = &consts[m - 1]; // layers are 1-based
        let c = if k.cap > 0.0 {
            let u = grid.quanta_at(m, x, y) as f64 * k.per_quantum;
            if u + k.scale > k.cap {
                over
            } else {
                1.0 + k.congestion * u
            }
        } else {
            over
        };
        best = best.min(c);
    }
    (best * MILLI).round() as u32
}

/// Per-layer constants of [`cell_cost`]'s congestion cost, hoisted out of
/// the per-cell fold: the two divides depend only on the layer's capacity
/// and scale, which stay fixed for a whole [`finalize_route`] call. The
/// hoisted values are produced by the identical expressions, so every
/// cost is bit-identical to computing them inline.
#[derive(Clone, Copy, Default)]
struct LayerConsts {
    cap: f64,
    scale: f64,
    /// `scale / QUANTA_PER_TRACK`: usage units per stored quantum.
    per_quantum: f64,
    /// `CONGESTION_WEIGHT / cap` (0 when the layer has no capacity).
    congestion: f64,
}

impl LayerConsts {
    fn of(grid: &RouteGrid, m: usize) -> Self {
        let cap = grid.capacity(m);
        let scale = grid.scale(m);
        if cap > 0.0 {
            LayerConsts {
                cap,
                scale,
                per_quantum: scale / crate::QUANTA_PER_TRACK as f64,
                congestion: CONGESTION_WEIGHT / cap,
            }
        } else {
            LayerConsts {
                cap,
                scale,
                ..Default::default()
            }
        }
    }
}

/// One rip-up-and-reroute round's maze step costs: the [`cell_cost`] of a
/// horizontal and of a vertical move into every gcell, row-major at
/// `y * nx + x`, under the round's overflow penalty.
///
/// Built once when the round starts, then kept equal to a fresh
/// `StepCosts::new(grid, penalty)`: every gcell that [`rip_up`] or
/// [`commit`] writes is refreshed right after the write, with the same
/// `cell_cost`. A round on an AES-class chip runs thousands of searches
/// over a grid of a few thousand `(gcell, axis)` pairs, so computing each
/// cost once per write instead of once per search removes most of the
/// cost evaluation from the maze loop.
///
/// The planes belong to one [`finalize_route`] call, because the penalty
/// changes every round; the cloned, shared [`RouteGrid`] never holds them.
struct StepCosts {
    nx: u32,
    ny: u32,
    penalty_mult: f64,
    consts: [LayerConsts; tech::NUM_METAL_LAYERS],
    /// Milli-unit cost of a horizontal move into each gcell.
    h: Vec<u32>,
    /// Milli-unit cost of a vertical move into each gcell.
    v: Vec<u32>,
}

impl StepCosts {
    fn new(grid: &RouteGrid, penalty_mult: f64) -> Self {
        assert!(
            (1.0 + OVERFLOW_PENALTY * penalty_mult) * MILLI < MAX_STEP_MILLI as f64,
            "overflow penalty {penalty_mult} exceeds the maze key bound"
        );
        let mut consts = [LayerConsts::default(); tech::NUM_METAL_LAYERS];
        for (i, k) in consts.iter_mut().enumerate() {
            *k = LayerConsts::of(grid, i + 1); // layers are 1-based
        }
        let (nx, ny) = (grid.nx(), grid.ny());
        let cells = (nx * ny) as usize;
        let mut costs = StepCosts {
            nx,
            ny,
            penalty_mult,
            consts,
            h: vec![0; cells],
            v: vec![0; cells],
        };
        for y in 0..ny {
            for x in 0..nx {
                let g = GcellPos::new(x, y);
                costs.refresh(grid, LayerDir::Horizontal, g);
                costs.refresh(grid, LayerDir::Vertical, g);
            }
        }
        costs
    }

    /// Recomputes the cost of a `dir` move into `g` from the grid's usage.
    #[inline]
    fn refresh(&mut self, grid: &RouteGrid, dir: LayerDir, g: GcellPos) {
        let c = cell_cost(grid, dir, &self.consts, self.penalty_mult, g.y, g.x);
        let i = (g.y * self.nx + g.x) as usize;
        match dir {
            LayerDir::Horizontal => self.h[i] = c,
            LayerDir::Vertical => self.v[i] = c,
        }
    }

    /// Refreshes every gcell `segs` cover, on their layers' axes.
    fn refresh_segs(&mut self, grid: &RouteGrid, segs: &[RouteSeg]) {
        for s in segs {
            let dir = grid.dir(s.layer);
            for (g, _) in seg_usage(grid, s) {
                self.refresh(grid, dir, g);
            }
        }
    }
}

/// Detour margin of the maze search window around an edge's bounding box.
const MAZE_MARGIN: u32 = 8;

/// Turn penalty in milli-units (`0.5` in [`run_cost`]'s unit).
const TURN_COST_MILLI: u64 = 500;

/// Per-gcell A* heuristic weight for [`maze_search`], in milli-units.
///
/// Any single step costs at least one full unit (the congestion cost is
/// `1.0 + <non-negative>` per gcell, i.e. 1000 milli-units), so
/// Manhattan distance times 1000 would already be admissible and
/// consistent. The weight is 999, one milli-unit short of that bound, so
/// every relaxation strictly raises the key's distance field. Equal-cost
/// paths are chosen by the key's tie-break order, so the weight is part
/// of every route: the golden route hashes pin it. The pruning loss is at
/// most 0.1% of the bound.
const ASTAR_H_MILLI: u64 = 999;

/// Upper bound on any step cost in milli-units, asserted by
/// [`StepCosts::new`]. The costliest step is an overflowed gcell at
/// `1 + OVERFLOW_PENALTY · penalty` units, and Phase B's last round
/// escalates the penalty to `3^5`: `(1 + 12 · 243) · 1000 = 2,917,000`.
const MAX_STEP_MILLI: u64 = 1 << 22;

/// Largest maze window side in gcells: a frontier key gives each
/// window-local coordinate 10 bits (see [`maze_search`]).
const MAX_WINDOW_SIDE: u32 = 1 << 10;

// The largest `f` a frontier key can carry (see [`maze_search`]) fits in
// the 43 bits above the coordinates and the axis: ~4.4e12 < 2^43.
const _: () = {
    let side = MAX_WINDOW_SIDE as u64;
    let f_bound = (side * side + 1) * (MAX_STEP_MILLI + TURN_COST_MILLI) + ASTAR_H_MILLI * 2 * side;
    assert!(f_bound < 1 << 43);
};

/// The four maze moves as `(dx, dy, axis)`, axis 0 horizontal and 1
/// vertical. A predecessor code is a move's index here, shifted left
/// once, plus the axis the move left from.
const MOVES: [(i32, i32, usize); 4] = [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1)];

/// Predecessor code of a state no move has reached (and of the start).
const NO_PREV: u8 = u8::MAX;

/// Whether a state at distance `d` is dominated by the same gcell's
/// other-axis state at distance `other` (see [`maze_search`]).
#[inline]
fn dominated(other: u64, d: u64) -> bool {
    other.saturating_add(TURN_COST_MILLI) <= d
}

/// One window cell's search state, indexed by arrival axis.
#[derive(Clone, Copy)]
struct MazeCell {
    /// Best distance in milli-units (`u64::MAX` = unreached).
    dist: [u64; 2],
    /// Which generation last wrote this record.
    stamp: u32,
    /// How the best distance arrived: a [`MOVES`] predecessor code.
    prev: [u8; 2],
}

const _: () = assert!(size_of::<MazeCell>() == 24);

/// Reusable per-thread maze state. Rip-up-and-reroute issues tens of
/// thousands of maze calls per evaluation; without reuse, the
/// window-sized records and the frontier are reallocated on every one of
/// them. Records are validated per call by a generation stamp, so reuse
/// never changes a search result — a stale record reads as untouched.
struct MazeScratch {
    /// One record per window cell, row-major.
    cells: Vec<MazeCell>,
    /// The frontier: packed keys (see [`maze_search`]), smallest first.
    heap: BinaryHeap<Reverse<u64>>,
    /// Reconstructed path of the last search, reused across calls so
    /// reconstruction never allocates on the hot path.
    path: Vec<GcellPos>,
    /// Direction-tagged straight runs of `path`, as inclusive index
    /// ranges (`path[lo..=hi]`); adjacent runs share their corner cell.
    runs: Vec<(LayerDir, u32, u32)>,
    generation: u32,
}

impl MazeScratch {
    const fn new() -> Self {
        MazeScratch {
            cells: Vec::new(),
            heap: BinaryHeap::new(),
            path: Vec::new(),
            runs: Vec::new(),
            generation: 0,
        }
    }

    /// Window size below which the scratch never shrinks: re-growing
    /// small arrays is cheap, and typical rip-up windows all fit here.
    const SHRINK_FLOOR: usize = 1 << 15;

    /// Prepares the scratch for a window of `cells` cells: empties the
    /// frontier, grows the records if needed and invalidates every
    /// previous record in O(1) by bumping the generation (O(n) only on
    /// the rare counter wrap).
    ///
    /// Grow-only reuse would let one full-chip window (100k+ gcells on
    /// the scaled suite) pin window-sized arrays in every router thread
    /// for the rest of the process; when the retained arrays dwarf the
    /// current window, the scratch is released back to it, so steady-
    /// state per-thread memory tracks the windows actually in use
    /// rather than the largest window ever seen.
    fn begin(&mut self, cells: usize) {
        self.heap.clear();
        let retained = self.cells.len();
        if retained > Self::SHRINK_FLOOR && retained / 4 > cells {
            let keep = cells.max(Self::SHRINK_FLOOR);
            self.cells.truncate(keep);
            self.cells.shrink_to_fit();
            self.heap.shrink_to(keep);
        }
        if self.cells.len() < cells {
            let pristine = MazeCell {
                dist: [u64::MAX; 2],
                stamp: u32::MAX,
                prev: [NO_PREV; 2],
            };
            self.cells.resize(cells, pristine);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == u32::MAX {
            self.cells.iter_mut().for_each(|c| c.stamp = 0);
            self.generation = 1;
        }
    }

    /// Resets record `i` to pristine state unless this generation already
    /// touched it.
    #[inline]
    fn touch(&mut self, i: usize) {
        let c = &mut self.cells[i];
        if c.stamp != self.generation {
            *c = MazeCell {
                dist: [u64::MAX; 2],
                stamp: self.generation,
                prev: [NO_PREV; 2],
            };
        }
    }
}

thread_local! {
    static MAZE_SCRATCH: std::cell::RefCell<MazeScratch> =
        const { std::cell::RefCell::new(MazeScratch::new()) };
}

/// Maze (A*) search between two gcells over one round's [`StepCosts`],
/// with a small turn penalty; returns its frontier pops and how many of
/// them it expanded. The reconstructed path and its direction-tagged
/// straight runs are left in `s.path`/`s.runs` (scratch-resident, so the
/// hot path never allocates).
///
/// States are `(gcell, arrival axis)`, ordered by `f = g + h` with
/// `h = ASTAR_H_MILLI · manhattan(gcell, b)`. `h` is consistent (each
/// move changes it by less than any step's cost), so the first pop of `b`
/// is optimal, and searches across quiet regions expand near-linearly
/// along the corridor instead of flooding the window.
///
/// **Keys.** A frontier key is one `u64`, `f << 21 | x << 11 | y << 1 |
/// axis`, with `x` and `y` local to the search window. Local coordinates
/// are absolute ones minus a constant, so keys pop in exactly `(f, x, y,
/// axis)` order, the tie-break every route is pinned to. A pushed
/// distance is a settled shortest distance plus one move. A shortest
/// path enters each gcell at most once, save its last gcell, which a
/// change of axis can bring it back to (a loop costs two or more
/// 1000-milli steps and saves at most one 500-milli turn). So a pushed
/// `g` is at most `(cells + 1) · (MAX_STEP_MILLI + TURN_COST_MILLI)`, and
/// `h` adds under `1000 · (width + height)`; a const assert checks that
/// this fits `f`'s 43 bits for a [`MAX_WINDOW_SIDE`]-square window.
/// Larger windows fail an assert.
///
/// **Axis dominance.** A state `(g, a)` at distance `d` is dominated when
/// the other-axis state `(g, 1 - a)` already has `dist + TURN_COST_MILLI
/// <= d`: every move out of `(g, a)` costs at least as much from there,
/// since at most one turn separates them. The other-axis state has the
/// strictly smaller key, so it pops and expands first, and every offer
/// the dominated state could make is no better than one already made.
/// A dominated state therefore keeps its `dist`/`prev` (so ties and the
/// reconstruction read the same records) but is never pushed, and a
/// state dominated by the time it pops is not expanded. Every kept state
/// sees the same relaxations in the same order, so paths are unchanged;
/// only pops drop.
///
/// The search always reaches `b`: its window is a connected rectangle
/// holding both endpoints, and every step cost is finite.
fn maze_search(s: &mut MazeScratch, costs: &StepCosts, a: GcellPos, b: GcellPos) -> (u64, u64) {
    // Search window: the edge's bounding box plus the detour margin. Full-
    // grid Dijkstra would dominate rip-up-and-reroute on large designs.
    let wx0 = a.x.min(b.x).saturating_sub(MAZE_MARGIN);
    let wy0 = a.y.min(b.y).saturating_sub(MAZE_MARGIN);
    let wnx = (a.x.max(b.x) + MAZE_MARGIN).min(costs.nx - 1) - wx0 + 1;
    let wny = (a.y.max(b.y) + MAZE_MARGIN).min(costs.ny - 1) - wy0 + 1;
    assert!(
        wnx <= MAX_WINDOW_SIDE && wny <= MAX_WINDOW_SIDE,
        "a {wnx} x {wny}-gcell maze window is too large for 64-bit frontier keys"
    );
    let key = |f: u64, x: u32, y: u32, axis: usize| {
        (f << 21) | ((x as u64) << 11) | ((y as u64) << 1) | axis as u64
    };
    let (bx, by) = (b.x - wx0, b.y - wy0);
    let h = |x: u32, y: u32| (x.abs_diff(bx) + y.abs_diff(by)) as u64 * ASTAR_H_MILLI;
    // Window-local search state lives in the per-thread scratch; step
    // costs are read straight from the round's grid-wide planes.
    let w = wnx as usize;
    let gw = costs.nx as usize;
    let (ax, ay) = (a.x - wx0, a.y - wy0);
    let (ai, bi) = (ay as usize * w + ax as usize, by as usize * w + bx as usize);
    s.begin(w * wny as usize);
    s.touch(ai);
    s.cells[ai].dist = [0, 0];
    s.heap.push(Reverse(key(h(ax, ay), ax, ay, 0)));
    s.heap.push(Reverse(key(h(ax, ay), ax, ay, 1)));
    let (mut pops, mut expanded) = (0u64, 0u64);
    while let Some(Reverse(k)) = s.heap.pop() {
        pops += 1;
        if pops & 0x3FF == 0 {
            ROUTE_OVERFLOW.check();
        }
        let axis = (k & 1) as usize;
        let y = (k >> 1) as u32 & (MAX_WINDOW_SIDE - 1);
        let x = (k >> 11) as u32 & (MAX_WINDOW_SIDE - 1);
        let d = (k >> 21) - h(x, y);
        let i = y as usize * w + x as usize;
        let here = s.cells[i];
        // Integer distances are exact, so any entry above the recorded
        // best is stale (superseded by a later relaxation).
        if d > here.dist[axis] {
            continue;
        }
        if i == bi {
            break;
        }
        if dominated(here.dist[1 - axis], d) {
            continue; // dominated since its push: expanding it is a no-op
        }
        expanded += 1;
        let gi = (y + wy0) as usize * gw + (x + wx0) as usize;
        for (m, &(dx, dy, maxis)) in MOVES.iter().enumerate() {
            let (tx, ty) = (x.wrapping_add_signed(dx), y.wrapping_add_signed(dy));
            if tx >= wnx || ty >= wny {
                continue;
            }
            let ti = i.wrapping_add_signed((dx + dy * wnx as i32) as isize);
            let tgi = gi.wrapping_add_signed((dx + dy * costs.nx as i32) as isize);
            let plane = if maxis == 0 { &costs.h } else { &costs.v };
            let mut nd = d + plane[tgi] as u64;
            if maxis != axis {
                nd += TURN_COST_MILLI;
            }
            s.touch(ti);
            let t = &mut s.cells[ti];
            if nd < t.dist[maxis] {
                t.dist[maxis] = nd;
                t.prev[maxis] = ((m as u8) << 1) | axis as u8;
                if !dominated(t.dist[1 - maxis], nd) {
                    s.heap.push(Reverse(key(nd + h(tx, ty), tx, ty, maxis)));
                }
            }
        }
    }
    // Reconstruct from the cheaper arrival state at b.
    s.touch(bi);
    let mut axis = usize::from(s.cells[bi].dist[0] > s.cells[bi].dist[1]);
    assert!(
        s.cells[bi].dist[axis] != u64::MAX,
        "the maze window connects both endpoints"
    );
    s.path.clear();
    s.path.push(b);
    let (mut i, mut cur) = (bi, b);
    while i != ai {
        let code = s.cells[i].prev[axis];
        if code == NO_PREV {
            break;
        }
        let (dx, dy, _) = MOVES[(code >> 1) as usize];
        i = i.wrapping_add_signed(-(dx + dy * wnx as i32) as isize);
        cur = GcellPos::new(
            cur.x.wrapping_add_signed(-dx),
            cur.y.wrapping_add_signed(-dy),
        );
        axis = (code & 1) as usize;
        s.path.push(cur);
    }
    s.path.reverse();
    // Split into direction-tagged straight runs (as ranges into `path`).
    s.runs.clear();
    for i in 1..s.path.len() {
        let dir = if s.path[i - 1].y == s.path[i].y {
            LayerDir::Horizontal
        } else {
            LayerDir::Vertical
        };
        match s.runs.last_mut() {
            Some((d, _, hi)) if *d == dir => *hi = i as u32,
            _ => s.runs.push((dir, i as u32 - 1, i as u32)),
        }
    }
    (pops, expanded)
}

/// Routes one MST edge through the maze router over `costs` and commits
/// it, refreshing `costs` at every gcell the commit writes.
fn route_edge_maze(
    grid: &mut RouteGrid,
    costs: &mut StepCosts,
    a: GcellPos,
    b: GcellPos,
    segs: &mut Vec<RouteSeg>,
) {
    if a == b {
        return;
    }
    MAZE_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let (pops, _) = maze_search(s, costs, a, b);
        MAZE_POPS.record(pops);
        for &(dir, lo, hi) in &s.runs {
            let cells = &s.path[lo as usize..=hi as usize];
            let len = cells.len() as u32 - 1;
            let (layer, _) = pick_layer(grid, dir, cells, len, costs.penalty_mult);
            commit(grid, layer, cells, segs);
            for &g in cells {
                costs.refresh(grid, dir, g);
            }
        }
    })
}

/// Track demand of a run's cells in usage quanta: endpoints count a
/// quarter track (they terminate on pin access rather than crossing the
/// gcell), interior cells count a full track. The NDR scale is applied by
/// the grid at read time, never here.
fn run_usage(cells: &[GcellPos]) -> impl Iterator<Item = (GcellPos, i64)> + '_ {
    let last = cells.len() - 1;
    cells.iter().enumerate().map(move |(i, &g)| {
        let q = if i == 0 || i == last {
            1
        } else {
            crate::QUANTA_PER_TRACK
        };
        (g, q)
    })
}

fn commit(grid: &mut RouteGrid, layer: usize, cells: &[GcellPos], segs: &mut Vec<RouteSeg>) {
    for (g, q) in run_usage(cells) {
        grid.add_quanta(layer, g, q);
    }
    segs.push(RouteSeg {
        layer,
        from: cells[0],
        to: *cells.last().expect("runs are non-empty"),
    });
}

/// The `(gcell, usage quanta)` pairs of a committed segment, in
/// normalized order, without materializing a cell list — equivalent to
/// [`run_usage`] over the segment's cells, but rip-up and merge run it
/// for tens of thousands of segments per evaluation, so the hot path
/// iterates coordinates directly. `run_usage` is symmetric in run
/// direction, so the quanta match those added when the run was first
/// committed regardless of segment orientation.
fn seg_usage(grid: &RouteGrid, s: &RouteSeg) -> impl Iterator<Item = (GcellPos, i64)> {
    let (fixed, lo, hi, horizontal) = match grid.dir(s.layer) {
        LayerDir::Horizontal => (s.from.y, s.from.x.min(s.to.x), s.from.x.max(s.to.x), true),
        LayerDir::Vertical => (s.from.x, s.from.y.min(s.to.y), s.from.y.max(s.to.y), false),
    };
    (lo..=hi).map(move |c| {
        let g = if horizontal {
            GcellPos::new(c, fixed)
        } else {
            GcellPos::new(fixed, c)
        };
        let q = if c == lo || c == hi {
            1
        } else {
            crate::QUANTA_PER_TRACK
        };
        (g, q)
    })
}

/// Removes a net's committed usage from the grid (the exact mirror of
/// [`commit`]'s endpoint-discounted quanta).
fn rip_up(grid: &mut RouteGrid, segs: &[RouteSeg]) {
    for s in segs {
        for (g, q) in seg_usage(grid, s) {
            grid.add_quanta(s.layer, g, -q);
        }
    }
}

/// Number of rip-up-and-reroute refinement rounds.
const RRR_ROUNDS: usize = 5;

/// From round 2 on, a round runs only while its census's total overflow
/// is below this fraction of the lowest total seen so far: one more round
/// of rip-up costs about as much as the last, so a round that cut
/// overflow by less than a quarter is not worth repeating.
const RRR_STALL_CUT: f64 = 0.75;

/// Phase B's stop rule: whether round `round` runs, given its census's
/// total overflow `score` and the lowest total `best` of the earlier
/// rounds' censuses (`None` before any). Rounds 0 and 1 always run; a
/// regression after them always stops.
fn rrr_continues(round: usize, score: f64, best: Option<f64>) -> bool {
    round < 2 || best.is_none_or(|b| score < RRR_STALL_CUT * b)
}

/// The Phase-A runs of one MST edge: one straight run, or an L-shape whose
/// orientation is a parity hash of the endpoints (so roughly half the
/// bends go each way without consulting congestion — the choice must stay
/// a pure function of the edge for incremental re-planning).
fn pattern_runs(a: GcellPos, b: GcellPos) -> Vec<(LayerDir, Vec<GcellPos>)> {
    use LayerDir::{Horizontal as H, Vertical as V};
    let dx = a.x != b.x;
    let dy = a.y != b.y;
    if dx && dy {
        if (a.x ^ a.y ^ b.x ^ b.y) & 1 == 0 {
            vec![(H, h_run(a.y, a.x, b.x)), (V, v_run(b.x, a.y, b.y))]
        } else {
            vec![(V, v_run(a.x, a.y, b.y)), (H, h_run(b.y, a.x, b.x))]
        }
    } else if dx {
        vec![(H, h_run(a.y, a.x, b.x))]
    } else if dy {
        vec![(V, v_run(a.x, a.y, b.y))]
    } else {
        Vec::new()
    }
}

/// Commits one edge's pattern route on its length-ideal layer. Unlike
/// [`route_edge_maze`] this never reads usage, capacity, or scale: the
/// result depends only on the edge itself.
fn pattern_route_edge(grid: &mut RouteGrid, a: GcellPos, b: GcellPos, segs: &mut Vec<RouteSeg>) {
    for (dir, cells) in pattern_runs(a, b) {
        let layers = grid.layers_with_dir(dir);
        let len = cells.len() as u32 - 1;
        let layer = layers[ideal_layer_rank(len, layers.len())];
        commit(grid, layer, &cells, segs);
    }
}

/// Pattern-routes one net from scratch into `plan` (terminals, MST,
/// per-edge pattern commit).
fn plan_net(plan: &mut RoutePlan, layout: &Layout, tech: &Technology, nid: NetId) {
    let terminals = net_terminals(layout, tech, &plan.grid, nid);
    let net_edges = mst_edges(&terminals);
    let mut net_segs = Vec::new();
    for &(a, b) in &net_edges {
        pattern_route_edge(&mut plan.grid, a, b, &mut net_segs);
    }
    plan.segs[nid.0 as usize] = Arc::from(net_segs);
    plan.edges[nid.0 as usize] = Arc::from(net_edges);
}

/// Phase A: builds the pattern-route plan of the whole layout. The clock
/// net is excluded (a dedicated clock tree distributes it), as are nets
/// touching fewer than two placed cells.
pub fn plan_route(layout: &Layout, tech: &Technology) -> RoutePlan {
    PHASE_A.time(|_| {
        let design = layout.design();
        let n_nets = design.nets.len();
        // `vec![arc; n]` clones the Arc, so every unrouted net shares one
        // empty list — entries are only ever replaced wholesale, never
        // mutated through.
        #[allow(clippy::rc_clone_in_vec_init)]
        let mut plan = RoutePlan {
            grid: RouteGrid::new(layout.floorplan(), tech, layout.route_rule()),
            segs: vec![Arc::from([]); n_nets],
            edges: vec![Arc::from([]); n_nets],
        };
        for (nid, _net) in design.nets_iter() {
            if Some(nid) == design.clock {
                continue;
            }
            plan_net(&mut plan, layout, tech, nid);
        }
        plan
    })
}

/// Incremental Phase A: patches a cached base plan for an edited layout.
///
/// Only the nets named by `dirty` are ripped out and re-patterned; a rule
/// change merely re-derives scales and capacities (stored usage quanta are
/// unscaled, so they remain exact). Because each net's pattern is a pure
/// function of its terminals and integer usage commutes, the result is
/// bit-identical to `plan_route(layout, tech)`.
pub fn plan_update(
    base: &RoutePlan,
    layout: &Layout,
    tech: &Technology,
    dirty: &DirtySet,
) -> RoutePlan {
    PHASE_A_PATCH.time(|_| {
        let design = layout.design();
        let mut plan = base.clone();
        if dirty.rule_changed {
            plan.grid.set_rule(tech, layout.route_rule());
        }
        for &nid in &dirty.nets {
            if Some(nid) == design.clock {
                continue;
            }
            let old = Arc::clone(&plan.segs[nid.0 as usize]);
            rip_up(&mut plan.grid, &old);
            plan_net(&mut plan, layout, tech, nid);
        }
        plan
    })
}

/// Diffs an edited layout against the baseline the plan was built from.
///
/// A net is dirty when any terminal cell's *gcell* changed (moves within
/// one gcell leave the global route untouched); a [`tech::RouteRule`]
/// mismatch is reported separately since it invalidates capacities and
/// scales but no pattern geometry.
pub fn dirty_between(
    plan: &RoutePlan,
    base: &Layout,
    edited: &Layout,
    tech: &Technology,
) -> DirtySet {
    let design = base.design();
    let grid = &plan.grid;
    let mut net_dirty = vec![false; design.nets.len()];
    for (cid, cell) in design.cells_iter() {
        let moved = match (base.cell_pos(cid), edited.cell_pos(cid)) {
            (None, None) => false,
            (Some(_), None) | (None, Some(_)) => true,
            (Some(_), Some(_)) => {
                grid.gcell_of_point(base.cell_center(cid, tech))
                    != grid.gcell_of_point(edited.cell_center(cid, tech))
            }
        };
        if moved {
            for &inp in &cell.inputs {
                net_dirty[inp.0 as usize] = true;
            }
            if let Some(out) = cell.output {
                net_dirty[out.0 as usize] = true;
            }
        }
    }
    DirtySet {
        nets: net_dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| NetId(i as u32))
            .collect(),
        rule_changed: base.route_rule() != edited.route_rule(),
    }
}

/// Routes every signal net of the layout under its active NDR rule.
///
/// Phase A pattern-routes each net obliviously of congestion
/// ([`plan_route`]); [`finalize_route`] then runs a few rip-up-and-reroute
/// rounds that tear out every net crossing an overflowed `(layer, gcell)`
/// pair and reroute it under an escalated overflow penalty — the standard
/// negotiated-congestion recipe — and extracts parasitics.
pub fn route_design(layout: &Layout, tech: &Technology) -> RoutingState {
    finalize_route(layout, tech, plan_route(layout, tech))
}

/// Whether a committed segment crosses any overflowed gcell on its layer,
/// per the round's one-pass overflow census. Membership in the census
/// uses the same epsilon as the old per-segment usage re-read, so victim
/// sets are bit-identical to the sequential scan this replaces.
fn seg_crosses_overflow(oset: &OverflowSet, grid: &RouteGrid, s: &RouteSeg) -> bool {
    match grid.dir(s.layer) {
        LayerDir::Horizontal => {
            let (x0, x1) = (s.from.x.min(s.to.x), s.from.x.max(s.to.x));
            (x0..=x1).any(|x| oset.contains(s.layer, GcellPos::new(x, s.from.y)))
        }
        LayerDir::Vertical => {
            let (y0, y1) = (s.from.y.min(s.to.y), s.from.y.max(s.to.y));
            (y0..=y1).any(|y| oset.contains(s.layer, GcellPos::new(s.from.x, y)))
        }
    }
}

/// Ids of the nets with a segment crossing an overflowed `(layer, gcell)`
/// pair of the round's census, in ascending order.
fn overflow_victims(oset: &OverflowSet, grid: &RouteGrid, segs: &[Arc<[RouteSeg]>]) -> Vec<u32> {
    (0..segs.len() as u32)
        .filter(|&i| {
            segs[i as usize]
                .iter()
                .any(|s| seg_crosses_overflow(oset, grid, s))
        })
        .collect()
}

/// Rips victim net `i` out of `grid` and reroutes its MST `edges` through
/// the maze router against every other net's live usage, refreshing
/// `costs` at every gcell either step writes.
fn reroute_victim(
    grid: &mut RouteGrid,
    costs: &mut StepCosts,
    segs: &mut [Arc<[RouteSeg]>],
    edges: &[(GcellPos, GcellPos)],
    i: usize,
) {
    let old = Arc::clone(&segs[i]);
    rip_up(grid, &old);
    costs.refresh_segs(grid, &old);
    let mut net_segs = Vec::new();
    for &(a, b) in edges {
        route_edge_maze(grid, costs, a, b, &mut net_segs);
    }
    segs[i] = Arc::from(net_segs);
}

/// Phase B plus extraction: refines a pattern plan with deterministic
/// rip-up-and-reroute and computes per-net parasitics.
///
/// Each round tears out every net crossing an overflowed `(layer, gcell)`
/// pair and reroutes it, in net-id order, against the live usage of every
/// other net. Sequential rip-up keeps the process convergent
/// (unsynchronized parallel rip-up oscillates) and the result a pure
/// function of the layout and plan. From the third round on, a round runs
/// only while the overflow census's total is below 3/4 of the lowest
/// total seen so far; otherwise Phase B stops and keeps its best state.
pub fn finalize_route(layout: &Layout, tech: &Technology, plan: RoutePlan) -> RoutingState {
    let design = layout.design();
    let clock = design.clock;
    let n_nets = design.nets.len();
    let RoutePlan {
        mut grid,
        mut segs,
        edges,
    } = plan;

    // Rip-up and reroute, keeping the best state seen (late rounds can
    // regress once detours start compounding). Usage planes and per-net
    // segment lists are Arc-shared, so the snapshot costs a refcount bump
    // per plane and per net, never a deep copy. The rounds loop (not the
    // extraction below) is Phase B proper, hence the span boundary.
    let (grid, segs, ripped) = PHASE_B.time(move |_| {
        type BestState = (f64, RouteGrid, Vec<Arc<[RouteSeg]>>);
        let mut best: Option<BestState> = None;
        // Union of the victims of every round that rerouted. Restoring the
        // best state only discards reroutes, so any net whose final
        // segments differ from the plan was a victim in some round — the
        // union is a valid (and cheap) superset for the incremental-STA
        // dirty handoff.
        let mut ripped = vec![false; n_nets];
        for round in 0..RRR_ROUNDS {
            ROUTE_OVERFLOW.check();
            // One-pass overflow census: round scoring and victim scanning
            // test membership here instead of re-deriving scaled usage per
            // victim segment cell.
            let oset = grid.overflow_set();
            // Nothing overflows: the current state is final, and any best
            // state recorded earlier cannot beat an overflow score of zero.
            if oset.is_empty() {
                best = None;
                break;
            }
            // Stalled or regressing: stop, and restore the best state below
            // unless the current one is it. Decided before the victim scan,
            // so a round that never runs marks no net.
            let score = oset.total_overflow();
            if !rrr_continues(round, score, best.as_ref().map(|b| b.0)) {
                STALLS.incr();
                obs::trace(obs::Topic::Route, || {
                    format!("rrr round {round}: stalled at total {score:.0}")
                });
                break;
            }
            let victims = overflow_victims(&oset, &grid, &segs);
            if victims.is_empty() {
                break;
            }
            for &i in &victims {
                ripped[i as usize] = true;
            }
            if best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                best = Some((score, grid.clone(), segs.clone()));
            }
            let penalty = 3.0f64.powi(round as i32 + 1);
            let mut costs = StepCosts::new(&grid, penalty);
            for &i in &victims {
                let i = i as usize;
                reroute_victim(&mut grid, &mut costs, &mut segs, &edges[i], i);
            }
            ROUNDS.incr();
            VICTIMS.add(victims.len() as u64);
            obs::trace(obs::Topic::Route, || {
                format!(
                    "rrr round {round}: overflow_pairs {} total {score:.0} victims {}",
                    oset.pairs(),
                    victims.len(),
                )
            });
        }
        if let Some((score, bg, bs)) = best {
            if score < grid.total_overflow() {
                grid = bg;
                segs = bs;
            }
        }
        (grid, segs, ripped)
    });
    let touched: Arc<[NetId]> = ripped
        .iter()
        .enumerate()
        .filter_map(|(i, &r)| r.then_some(NetId(i as u32)))
        .collect();

    // Parasitics: routed length per layer plus per-pin escape stubs.
    let mut rc: Vec<NetRc> = vec![NetRc::default(); n_nets];
    let mut wl_um = 0.0;
    for (nid, net) in design.nets_iter() {
        if Some(nid) == clock {
            continue;
        }
        let mut res = 0.0;
        let mut cap = 0.0;
        for s in segs[nid.0 as usize].iter() {
            let layer = tech.layer(s.layer);
            let scale = grid.scale(s.layer);
            let len_dbu = match layer.dir {
                LayerDir::Horizontal => (s.gcells() as i64 - 1).max(0) * grid.span_x(),
                LayerDir::Vertical => (s.gcells() as i64 - 1).max(0) * grid.span_y(),
            } + grid.span_x() / 2;
            res += layer.wire_res(len_dbu, scale);
            cap += layer.wire_cap(len_dbu, scale);
            wl_um += geom::dbu_to_um(len_dbu);
        }
        let n_pins = net.sinks.len() + 1;
        if n_pins >= 2 && !net.sinks.is_empty() {
            let m2 = tech.layer(2);
            let stub = PIN_STUB_DBU * n_pins as i64;
            res += m2.wire_res(stub, 1.0);
            cap += m2.wire_cap(stub, 1.0);
            wl_um += geom::dbu_to_um(stub);
        }
        rc[nid.0 as usize] = NetRc { res, cap };
    }

    RoutingState {
        grid,
        segs,
        rc,
        wirelength_um: wl_um,
        touched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layout::{Floorplan, Layout};
    use netlist::bench;
    use proptest::prelude::*;
    use tech::{RouteRule, Technology};

    /// TINY placed at `util`, wirelength-refined, under `rule`.
    fn tiny_layout(util: f64, rule: RouteRule) -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, util);
        place::global_place(&mut layout, &tech, 5);
        place::refine_wirelength(&mut layout, &tech, 2, 5);
        layout.set_route_rule(rule);
        (tech, layout)
    }

    fn routed(rule: RouteRule) -> (Technology, Layout, RoutingState) {
        let (tech, layout) = tiny_layout(0.6, rule);
        let routing = route_design(&layout, &tech);
        (tech, layout, routing)
    }

    /// What [`reference_search`] found and how hard it worked.
    struct Reference {
        path: Vec<GcellPos>,
        runs: Vec<(LayerDir, u32, u32)>,
        pops: u64,
        /// Pops of entries the axis-dominance rule never pushes.
        unpushed_pops: u64,
        expanded: u64,
        /// Expansions of entries dominated by the time they pop.
        dominated_expanded: u64,
    }

    /// The maze search before axis-dominance pruning, kept as the pruned
    /// kernel's oracle: absolute coordinates packed into `u128` keys
    /// (`distance | x | y | axis`) on a binary heap, separate `dist` and
    /// `prev` arrays, and every improved state pushed and expanded. It
    /// also counts the pops of entries that [`maze_search`]'s dominance
    /// rule keeps off the frontier and the expansions of entries that are
    /// dominated when they pop: the pops and expansions an exact prune
    /// saves.
    fn reference_search(costs: &StepCosts, a: GcellPos, b: GcellPos) -> Reference {
        let pack = |d: u64, x: u32, y: u32, axis: u8| {
            ((d as u128) << 33) | ((x as u128) << 17) | ((y as u128) << 1) | axis as u128
        };
        let wx0 = a.x.min(b.x).saturating_sub(MAZE_MARGIN);
        let wy0 = a.y.min(b.y).saturating_sub(MAZE_MARGIN);
        let wx1 = (a.x.max(b.x) + MAZE_MARGIN).min(costs.nx - 1);
        let wy1 = (a.y.max(b.y) + MAZE_MARGIN).min(costs.ny - 1);
        let wnx = (wx1 - wx0 + 1) as usize;
        let idx = |g: GcellPos| (g.y - wy0) as usize * wnx + (g.x - wx0) as usize;
        let cells = wnx * (wy1 - wy0 + 1) as usize;
        let mut dist = vec![[u64::MAX; 2]; cells];
        let mut prev = vec![[(u32::MAX, u32::MAX, 0u8); 2]; cells];
        let mut heap = BinaryHeap::new();
        let mut unpushed = std::collections::HashSet::new();
        let h = |x: u32, y: u32| (x.abs_diff(b.x) as u64 + y.abs_diff(b.y) as u64) * ASTAR_H_MILLI;
        dist[idx(a)] = [0, 0];
        heap.push(Reverse(pack(h(a.x, a.y), a.x, a.y, 0)));
        heap.push(Reverse(pack(h(a.x, a.y), a.x, a.y, 1)));
        let (mut pops, mut unpushed_pops, mut expanded, mut dominated_expanded) = (0, 0, 0, 0);
        while let Some(Reverse(e)) = heap.pop() {
            pops += 1;
            unpushed_pops += u64::from(unpushed.contains(&e));
            let (f, x, y) = (
                (e >> 33) as u64,
                (e >> 17) as u32 & 0xFFFF,
                (e >> 1) as u32 & 0xFFFF,
            );
            let axis = (e & 1) as u8;
            let d = f - h(x, y);
            let g = GcellPos::new(x, y);
            if d > dist[idx(g)][axis as usize] {
                continue;
            }
            if g == b {
                break;
            }
            expanded += 1;
            dominated_expanded +=
                u64::from(dist[idx(g)][1 - axis as usize].saturating_add(TURN_COST_MILLI) <= d);
            for (mx, my, maxis) in [(1i64, 0i64, 0u8), (-1, 0, 0), (0, 1, 1), (0, -1, 1)] {
                let (tx, ty) = (x as i64 + mx, y as i64 + my);
                if tx < wx0 as i64 || ty < wy0 as i64 || tx > wx1 as i64 || ty > wy1 as i64 {
                    continue;
                }
                let t = GcellPos::new(tx as u32, ty as u32);
                let (ti, ma) = (idx(t), maxis as usize);
                let gi = (t.y * costs.nx + t.x) as usize;
                let step = if maxis == 0 { costs.h[gi] } else { costs.v[gi] } as u64;
                let nd = d + step + if maxis != axis { TURN_COST_MILLI } else { 0 };
                if nd < dist[ti][ma] {
                    dist[ti][ma] = nd;
                    prev[ti][ma] = (x, y, axis);
                    let e = pack(nd + h(t.x, t.y), t.x, t.y, maxis);
                    if dist[ti][1 - ma].saturating_add(TURN_COST_MILLI) <= nd {
                        unpushed.insert(e);
                    }
                    heap.push(Reverse(e));
                }
            }
        }
        let mut axis = if dist[idx(b)][0] <= dist[idx(b)][1] {
            0
        } else {
            1
        };
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            let (px, py, paxis) = prev[idx(cur)][axis];
            if px == u32::MAX {
                break;
            }
            cur = GcellPos::new(px, py);
            axis = paxis as usize;
            path.push(cur);
        }
        path.reverse();
        let mut runs: Vec<(LayerDir, u32, u32)> = Vec::new();
        for i in 1..path.len() {
            let dir = if path[i - 1].y == path[i].y {
                LayerDir::Horizontal
            } else {
                LayerDir::Vertical
            };
            match runs.last_mut() {
                Some((d, _, hi)) if *d == dir => *hi = i as u32,
                _ => runs.push((dir, i as u32 - 1, i as u32)),
            }
        }
        Reference {
            path,
            runs,
            pops,
            unpushed_pops,
            expanded,
            dominated_expanded,
        }
    }

    /// Searches `a -> b` and then `b -> a` on one scratch (so a stale
    /// record would show) and checks each against [`reference_search`]:
    /// the identical path and runs, and exactly the reference's pops and
    /// expansions minus those the dominance rule saves (so never more).
    fn check_against_reference(costs: &StepCosts, a: GcellPos, b: GcellPos) {
        let mut s = MazeScratch::new();
        for (from, to) in [(a, b), (b, a)] {
            let (pops, expanded) = maze_search(&mut s, costs, from, to);
            let r = reference_search(costs, from, to);
            assert_eq!(s.path, r.path, "{from:?} -> {to:?}");
            assert_eq!(s.runs, r.runs, "{from:?} -> {to:?}");
            assert_eq!(pops, r.pops - r.unpushed_pops, "reference pops {}", r.pops);
            assert_eq!(
                expanded,
                r.expanded - r.dominated_expanded,
                "reference expansions {}",
                r.expanded
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Pins the pruned kernel to the unpruned reference on random
        /// grids, congestion blobs, endpoints, both rules and every
        /// penalty rip-up-and-reroute escalates through.
        #[test]
        fn pruned_search_matches_the_unpruned_reference(
            dims in (2u32..40, 2u32..24),
            blobs in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), 2usize..=10, 1i64..4000),
                0..40,
            ),
            ends in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            round in 0i32..RRR_ROUNDS as i32,
            wide in any::<bool>(),
        ) {
            let tech = Technology::nangate45_like();
            let rule = if wide {
                RouteRule::uniform(1.5)
            } else {
                RouteRule::default()
            };
            let fp = Floorplan::new(dims.1 * crate::GCELL_H_ROWS, dims.0 * crate::GCELL_W_SITES);
            let mut grid = RouteGrid::new(&fp, &tech, &rule);
            for (x, y, m, q) in blobs {
                grid.add_quanta(m, GcellPos::new(x % grid.nx(), y % grid.ny()), q);
            }
            let a = GcellPos::new(ends.0 % grid.nx(), ends.1 % grid.ny());
            let b = GcellPos::new(ends.2 % grid.nx(), ends.3 % grid.ny());
            // The penalty schedule rip-up-and-reroute actually escalates with.
            let costs = StepCosts::new(&grid, 3.0f64.powi(round + 1));
            check_against_reference(&costs, a, b);
        }

        /// The same on hand-made planes whose step costs are multiples of
        /// the turn cost, so equal keys and dominance at exact equality
        /// (`dist + TURN_COST_MILLI == d`) are common; congestion-derived
        /// costs rarely tie.
        #[test]
        fn pruned_search_matches_the_reference_on_tied_costs(
            dims in (2u32..30, 2u32..20),
            // Step picks for both planes of the largest grid drawn.
            picks in proptest::collection::vec(0usize..4, 1200..1201),
            ends in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let (nx, ny) = dims;
            let n = (nx * ny) as usize;
            let step = |&k: &usize| [1000, 1500, 2000, 3000][k];
            let costs = StepCosts {
                nx,
                ny,
                penalty_mult: 1.0,
                consts: [LayerConsts::default(); tech::NUM_METAL_LAYERS],
                h: picks[..n].iter().map(step).collect(),
                v: picks[600..600 + n].iter().map(step).collect(),
            };
            let a = GcellPos::new(ends.0 % nx, ends.1 % ny);
            let b = GcellPos::new(ends.2 % nx, ends.3 % ny);
            check_against_reference(&costs, a, b);
        }
    }

    /// Runs Phase B's rounds on TINY and checks, after every victim, that
    /// the maintained step costs equal a fresh build: a write that skips
    /// its refresh leaves a stale cost for later searches. Wires are 3x
    /// wide so that every layer of a direction carries usage; at 1.5x
    /// each gcell keeps an empty layer and every cost sits at the
    /// 1000-milli floor, where a stale plane cannot show.
    #[test]
    fn step_costs_track_every_phase_b_write() {
        let (tech, layout) = tiny_layout(0.75, RouteRule::uniform(3.0));
        let RoutePlan {
            mut grid,
            mut segs,
            edges,
        } = plan_route(&layout, &tech);
        let mut checked = 0;
        for round in 0..RRR_ROUNDS as i32 {
            let victims = overflow_victims(&grid.overflow_set(), &grid, &segs);
            let penalty = 3.0f64.powi(round + 1);
            let mut costs = StepCosts::new(&grid, penalty);
            for &i in &victims {
                let i = i as usize;
                reroute_victim(&mut grid, &mut costs, &mut segs, &edges[i], i);
                let fresh = StepCosts::new(&grid, penalty);
                assert!(
                    costs.h == fresh.h && costs.v == fresh.v,
                    "round {round}: planes went stale after victim {i}"
                );
                checked += 1;
            }
        }
        let floor = StepCosts::new(&grid, 3.0);
        assert!(
            checked > 0 && floor.h.iter().chain(&floor.v).any(|&c| c > 1000),
            "the fixture must enter rip-up-and-reroute with congested step costs"
        );
    }

    /// Rounds Phase B runs over a sequence of census totals, under the
    /// stall rule alone (the loop's best state is the lowest total).
    fn rounds_run(totals: &[f64]) -> usize {
        let mut best: Option<f64> = None;
        for (round, &score) in totals.iter().enumerate() {
            if !rrr_continues(round, score, best) {
                return round;
            }
            best = Some(best.map_or(score, |b| b.min(score)));
        }
        totals.len()
    }

    #[test]
    fn stall_rule_needs_a_quarter_cut_after_two_rounds() {
        // Rounds 0 and 1 run whatever their census reads, regressions too.
        assert_eq!(rounds_run(&[164.0, 900.0]), 2);
        assert_eq!(rounds_run(&[100.0, 150.0, 60.0, 40.0]), 4);
        // A regression, or a tie, from round 2 on stops.
        assert_eq!(rounds_run(&[100.0, 80.0, 90.0]), 2);
        assert_eq!(rounds_run(&[100.0, 80.0, 50.0, 50.0]), 3);
        // Exactly 3/4 of the best stops; just below it runs.
        assert_eq!(rounds_run(&[100.0, 80.0, 60.0]), 2);
        assert_eq!(rounds_run(&[100.0, 80.0, 59.99]), 3);
        // The bar is 3/4 of the lowest total so far, not of the last one:
        // 80 is below 3/4 of round 1's 120 but not below 3/4 of round 0's
        // 100.
        assert_eq!(rounds_run(&[100.0, 120.0, 80.0]), 2);
        assert_eq!(rounds_run(&[100.0, 120.0, 74.0]), 3);
        // Recorded censuses: a widened TINY stalls after round 1, AES_1's
        // baseline converges without stalling.
        assert_eq!(rounds_run(&[164.0, 18.0, 16.0, 15.0, 14.0]), 2);
        assert_eq!(rounds_run(&[1853.0, 5.0, 3.0]), 3);
    }

    /// `touched_nets` is exactly the union of the victims of the rounds
    /// that rerouted: the round the stall rule ends marks none of its
    /// victims, even ones no earlier round ripped up.
    #[test]
    fn touched_nets_skip_the_victims_of_a_stalled_round() {
        // Census totals 234 -> 100 -> 125: round 2 regresses, and 2 of its
        // victims are fresh.
        let (tech, layout) = tiny_layout(0.6, RouteRule::uniform(3.5));
        let RoutePlan {
            mut grid,
            mut segs,
            edges,
        } = plan_route(&layout, &tech);
        let mut rerouted = Vec::new();
        let mut best: Option<f64> = None;
        let mut round = 0;
        let stalled = loop {
            assert!(round < RRR_ROUNDS, "the stall rule must end this fixture");
            let oset = grid.overflow_set();
            let score = oset.total_overflow();
            let victims = overflow_victims(&oset, &grid, &segs);
            assert!(!victims.is_empty(), "the fixture must still overflow");
            if !rrr_continues(round, score, best) {
                break victims;
            }
            best = Some(best.map_or(score, |b| b.min(score)));
            let mut costs = StepCosts::new(&grid, 3.0f64.powi(round as i32 + 1));
            for &i in &victims {
                let i = i as usize;
                reroute_victim(&mut grid, &mut costs, &mut segs, &edges[i], i);
            }
            rerouted.extend(victims);
            round += 1;
        };
        rerouted.sort_unstable();
        rerouted.dedup();
        assert!(
            stalled.iter().any(|v| rerouted.binary_search(v).is_err()),
            "the stalled round must have victims no earlier round ripped up"
        );
        let routing = route_design(&layout, &tech);
        let touched: Vec<u32> = routing.touched_nets().iter().map(|n| n.0).collect();
        assert_eq!(touched, rerouted);
    }

    #[test]
    fn routes_all_multi_pin_nets() {
        let (_, layout, routing) = routed(RouteRule::default());
        let clock = layout.design().clock;
        for (nid, net) in layout.design().nets_iter() {
            if Some(nid) == clock {
                assert!(routing.net_segs(nid).is_empty(), "clock must not route");
                continue;
            }
            let placed_pins = net.sinks.len() + 1;
            if placed_pins >= 2 && !net.sinks.is_empty() {
                let rc = routing.net_rc(nid);
                assert!(rc.cap > 0.0, "net {} has no capacitance", nid.0);
            }
        }
        assert!(routing.total_wirelength_um() > 0.0);
    }

    #[test]
    fn mst_spans_terminals() {
        let ts = [
            GcellPos::new(0, 0),
            GcellPos::new(5, 0),
            GcellPos::new(5, 5),
            GcellPos::new(0, 5),
        ];
        let edges = mst_edges(&ts);
        assert_eq!(edges.len(), 3);
        let total: u32 = edges.iter().map(|(a, b)| a.manhattan(*b)).sum();
        assert_eq!(total, 15, "square MST is three sides");
    }

    #[test]
    fn ndr_scaling_reduces_free_tracks_and_resistance() {
        let (_, _, base) = routed(RouteRule::default());
        let (_, layoutw, wide) = routed(RouteRule::uniform(1.5));
        let mut base_free = 0.0;
        let mut wide_free = 0.0;
        for gy in 0..base.grid().ny() {
            for gx in 0..base.grid().nx() {
                let g = GcellPos::new(gx, gy);
                base_free += base.grid().free_tracks_all_layers(g);
                wide_free += wide.grid().free_tracks_all_layers(g);
            }
        }
        assert!(
            wide_free < base_free,
            "wider wires must consume more tracks: {wide_free} vs {base_free}"
        );
        // Resistance of routed nets drops with wider wires.
        let clock = layoutw.design().clock;
        let (mut rb, mut rw) = (0.0, 0.0);
        for (nid, _) in layoutw.design().nets_iter() {
            if Some(nid) == clock {
                continue;
            }
            rb += base.net_rc(nid).res;
            rw += wide.net_rc(nid).res;
        }
        assert!(rw < rb, "wider wires must be less resistive");
    }

    #[test]
    fn baseline_drc_is_clean_or_nearly() {
        let (_, layout, routing) = routed(RouteRule::default());
        let v = routing.drc_violations(&layout);
        assert!(v <= 3, "baseline should be nearly DRC-clean, got {v}");
    }

    #[test]
    fn segments_are_axis_aligned_and_on_matching_layers() {
        let (tech, layout, routing) = routed(RouteRule::default());
        for (nid, _) in layout.design().nets_iter() {
            for s in routing.net_segs(nid) {
                match tech.layer(s.layer).dir {
                    LayerDir::Horizontal => assert_eq!(s.from.y, s.to.y),
                    LayerDir::Vertical => assert_eq!(s.from.x, s.to.x),
                }
                assert!(s.layer >= 2, "M1 must not carry global routes");
            }
        }
    }
}

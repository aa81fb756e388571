use layout::Layout;
use netlist::{CellId, Design, NetDriver, NetId, Sink};
use route::RoutingState;
use tech::Technology;

use crate::report::{EndpointKind, TimingReport};

/// Load capacitance seen by a net's driver: extracted wire capacitance plus
/// every sink pin's input capacitance.
fn net_load_ff(design: &Design, routing: &RoutingState, tech: &Technology, net: NetId) -> f64 {
    let mut c = routing.net_rc(net).cap;
    for s in &design.net(net).sinks {
        if let Sink::CellInput { cell, .. } = s {
            c += tech.library.kind(design.cell(*cell).kind).input_cap;
        }
    }
    c
}

/// Lumped Elmore wire delay from a net's driver to its sinks:
/// `R_wire · (C_wire / 2 + C_pins)`.
fn wire_delay_ps(design: &Design, routing: &RoutingState, tech: &Technology, net: NetId) -> f64 {
    let rc = routing.net_rc(net);
    let mut pin_c = 0.0;
    for s in &design.net(net).sinks {
        if let Sink::CellInput { cell, .. } = s {
            pin_c += tech.library.kind(design.cell(*cell).kind).input_cap;
        }
    }
    rc.res * (rc.cap / 2.0 + pin_c)
}

/// Performs setup-check static timing analysis on a routed layout.
///
/// Path starts are primary inputs (arriving at `input_delay`) and flip-flop
/// Q pins (arriving at clock-to-Q); path ends are flip-flop D pins
/// (required at `T - setup`) and primary outputs (required at
/// `T - output_delay`). Combinational loops, if any, are broken by treating
/// unresolved arrivals as path starts at time zero (and are absent from the
/// benchmark generator's output by construction).
pub fn analyze(layout: &Layout, routing: &RoutingState, tech: &Technology) -> TimingReport {
    FULL.time(|_| analyze_inner(layout, routing, tech))
}

static FULL: obs::Span = obs::Span::new("sta.full");
static INCREMENTAL: obs::Span = obs::Span::new("sta.incremental");

/// Incremental analyses satisfied from the base report (no RC moved).
static CLEAN_HITS: obs::Counter = obs::Counter::new("sta.clean_hits");
/// Nets re-propagated through the frontier machinery.
static CONE_NETS: obs::Counter = obs::Counter::new("sta.cone_nets");
/// Nets the RC diff never inspected because a caller-supplied
/// `dirty_nets` list proved them untouched.
static DIFF_SKIPPED: obs::Counter = obs::Counter::new("sta.diff_skipped");
/// Cells the forward frontier actually re-evaluated, per call.
static FRONTIER_LEN: obs::Histogram = obs::Histogram::new("sta.frontier_len");
/// Re-evaluated cells whose output arrival came out unchanged — the
/// frontier stopped growing through them (converged early).
static EARLY_EXITS: obs::Counter = obs::Counter::new("sta.early_exits");

fn analyze_inner(layout: &Layout, routing: &RoutingState, tech: &Technology) -> TimingReport {
    let design = layout.design();
    let n_nets = design.nets.len();
    let n_cells = design.cells.len();
    let period = design.constraints.clock_period;
    let clock = design.clock;

    // Precompute per-net wire delay and per-cell gate delay.
    let mut wire_delay = vec![0.0f64; n_nets];
    let mut net_load = vec![0.0f64; n_nets];
    for (nid, _) in design.nets_iter() {
        if Some(nid) == clock {
            continue;
        }
        wire_delay[nid.0 as usize] = wire_delay_ps(design, routing, tech, nid);
        net_load[nid.0 as usize] = net_load_ff(design, routing, tech, nid);
    }
    let gate_delay = |cell: CellId| -> f64 {
        let c = design.cell(cell);
        let kind = tech.library.kind(c.kind);
        let load = c.output.map_or(0.0, |o| net_load[o.0 as usize]);
        kind.delay(load)
    };

    // Forward propagation in topological order (Kahn over combinational
    // cells; flop outputs and PIs are sources).
    let mut arrival = vec![f64::NEG_INFINITY; n_nets];
    let mut indegree = vec![0u32; n_cells];
    let mut ready: Vec<CellId> = Vec::new();
    for (cid, cell) in design.cells_iter() {
        let kind = tech.library.kind(cell.kind);
        if kind.is_filler() {
            continue;
        }
        if kind.is_sequential() {
            // Q arrival = clock-to-Q (clock arrives at the active edge, 0).
            if let Some(q) = cell.output {
                arrival[q.0 as usize] = kind.intrinsic;
            }
        } else {
            indegree[cid.0 as usize] = cell.inputs.len() as u32;
            if cell.inputs.is_empty() {
                ready.push(cid);
            }
        }
    }
    for &pi in &design.primary_inputs {
        if Some(pi) == clock {
            continue;
        }
        arrival[pi.0 as usize] = design.constraints.input_delay;
    }
    // Seed readiness from already-arrived nets.
    let mut pending: Vec<u32> = indegree.clone();
    let mut queue: std::collections::VecDeque<CellId> = ready.into_iter().collect();
    for (nid, net) in design.nets_iter() {
        if arrival[nid.0 as usize] == f64::NEG_INFINITY {
            continue;
        }
        for s in &net.sinks {
            if let Sink::CellInput { cell, .. } = s {
                let c = design.cell(*cell);
                if !tech.library.kind(c.kind).is_sequential() {
                    let p = &mut pending[cell.0 as usize];
                    *p -= 1;
                    if *p == 0 {
                        queue.push_back(*cell);
                    }
                }
            }
        }
    }
    let mut processed = 0usize;
    let n_comb = design
        .cells
        .iter()
        .filter(|c| {
            let k = tech.library.kind(c.kind);
            !k.is_sequential() && !k.is_filler()
        })
        .count();
    while let Some(cid) = queue.pop_front() {
        processed += 1;
        let cell = design.cell(cid);
        let mut in_arrival = 0.0f64;
        for &inp in &cell.inputs {
            let a = arrival[inp.0 as usize];
            let a = if a == f64::NEG_INFINITY { 0.0 } else { a };
            in_arrival = in_arrival.max(a + wire_delay[inp.0 as usize]);
        }
        let out_arrival = in_arrival + gate_delay(cid);
        if let Some(out) = cell.output {
            debug_assert_eq!(arrival[out.0 as usize], f64::NEG_INFINITY);
            arrival[out.0 as usize] = out_arrival;
            for s in &design.net(out).sinks {
                if let Sink::CellInput { cell: sc, .. } = s {
                    let c = design.cell(*sc);
                    if !tech.library.kind(c.kind).is_sequential() {
                        let p = &mut pending[sc.0 as usize];
                        *p -= 1;
                        if *p == 0 {
                            queue.push_back(*sc);
                        }
                    }
                }
            }
        }
    }
    debug_assert_eq!(processed, n_comb, "combinational loop detected");

    // Endpoint slacks.
    let mut endpoint_slacks: Vec<(EndpointKind, f64)> = Vec::new();
    for (cid, cell) in design.cells_iter() {
        let kind = tech.library.kind(cell.kind);
        if !kind.is_sequential() {
            continue;
        }
        let d = cell.inputs[0];
        let a = arrival[d.0 as usize];
        let a = if a == f64::NEG_INFINITY { 0.0 } else { a };
        let at_pin = a + wire_delay[d.0 as usize];
        let slack = (period - kind.setup) - at_pin;
        endpoint_slacks.push((EndpointKind::FlopData(cid), slack));
    }
    for (i, &po) in design.primary_outputs.iter().enumerate() {
        let a = arrival[po.0 as usize];
        let a = if a == f64::NEG_INFINITY { 0.0 } else { a };
        let slack = (period - design.constraints.output_delay) - a;
        endpoint_slacks.push((EndpointKind::PrimaryOutput(i as u32), slack));
    }

    // Backward propagation of required times in reverse topological order.
    let mut required = vec![f64::INFINITY; n_nets];
    // Endpoint requirements.
    for (_cid, cell) in design.cells_iter() {
        let kind = tech.library.kind(cell.kind);
        if kind.is_sequential() {
            let d = cell.inputs[0];
            let r = (period - kind.setup) - wire_delay[d.0 as usize];
            let slot = &mut required[d.0 as usize];
            *slot = slot.min(r);
        }
    }
    for &po in &design.primary_outputs {
        let r = period - design.constraints.output_delay;
        let slot = &mut required[po.0 as usize];
        *slot = slot.min(r);
    }
    // Process combinational cells in reverse order of arrival finalization:
    // sort by arrival descending gives a valid reverse topological order.
    let mut comb_cells: Vec<CellId> = design
        .cells_iter()
        .filter(|(_, c)| {
            let k = tech.library.kind(c.kind);
            !k.is_sequential() && !k.is_filler()
        })
        .map(|(id, _)| id)
        .collect();
    comb_cells.sort_by(|&a, &b| {
        let aa = design.cell(a).output.map_or(0.0, |o| arrival[o.0 as usize]);
        let ab = design.cell(b).output.map_or(0.0, |o| arrival[o.0 as usize]);
        ab.partial_cmp(&aa).expect("arrivals are finite")
    });
    for cid in comb_cells {
        let cell = design.cell(cid);
        let Some(out) = cell.output else { continue };
        let r_out = required[out.0 as usize];
        if r_out == f64::INFINITY {
            continue;
        }
        let gd = gate_delay(cid);
        for &inp in &cell.inputs {
            let r = r_out - gd - wire_delay[inp.0 as usize];
            let slot = &mut required[inp.0 as usize];
            *slot = slot.min(r);
        }
    }

    // Per-cell slack: worst slack over incident signal nets.
    let mut cell_slack = vec![f64::INFINITY; n_cells];
    let slack_of = |net: NetId| -> f64 {
        let a = arrival[net.0 as usize];
        let r = required[net.0 as usize];
        if a == f64::NEG_INFINITY || r == f64::INFINITY {
            f64::INFINITY
        } else {
            r - a
        }
    };
    for (cid, cell) in design.cells_iter() {
        let mut s = f64::INFINITY;
        for &inp in &cell.inputs {
            if Some(inp) != clock {
                s = s.min(slack_of(inp));
            }
        }
        if let Some(out) = cell.output {
            s = s.min(slack_of(out));
        }
        cell_slack[cid.0 as usize] = s;
    }

    TimingReport {
        clock_period: period,
        arrival,
        required,
        endpoint_slacks,
        cell_slack,
        wire_delay,
        net_load,
    }
}

/// Static structure of a design's timing graph, cached across incremental
/// re-analyses: topological levels, fanin/fanout adjacency, and the layout
/// of the endpoint-slack vector. Depends only on the netlist and library,
/// never on placement or routing.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// Topological level per cell (combinational cells only; -1 for
    /// sequential, filler, and other untimed cells).
    level: Vec<i32>,
    /// Per net: combinational cells with the net among their inputs.
    comb_consumers: Vec<Vec<CellId>>,
    /// Per net: sequential cells whose D pin (`inputs[0]`) is the net.
    ff_consumers: Vec<Vec<CellId>>,
    /// Per net: how many primary outputs the net drives.
    po_count: Vec<u32>,
    /// Per net: the driving cell, when cell-driven.
    driver_cell: Vec<Option<CellId>>,
    /// Per net: level of the combinational driver (-1 when FF- or
    /// PI-driven).
    net_driver_level: Vec<i32>,
    /// Per net: every non-filler cell touching the net.
    incident_cells: Vec<Vec<CellId>>,
    /// Per cell: index of its `FlopData` endpoint in the slack vector
    /// (`usize::MAX` for non-sequential cells).
    ff_endpoint_idx: Vec<usize>,
    /// Index where `PrimaryOutput` endpoints start in the slack vector.
    po_endpoint_base: usize,
    /// Deepest combinational level (-1 when the design has no
    /// combinational cells); bounds the frontier scratch's bucket count.
    max_level: i32,
    /// Per cell: intrinsic gate delay in ps (0 for untimed cells).
    /// Flattened out of the library so the propagation loops read one
    /// array instead of chasing `cell -> kind -> library` pointers.
    delay_intrinsic: Vec<f64>,
    /// Per cell: drive resistance term of the linear delay model (ps/fF).
    delay_drive: Vec<f64>,
    /// Per cell: setup time in ps (0 for non-sequential cells).
    setup: Vec<f64>,
    /// Per cell: driven net id (`u32::MAX` when the cell has no output).
    cell_output: Vec<u32>,
    /// CSR offsets into [`cell_in_nets`](Self::cell_in_nets), one slot
    /// per cell plus a tail.
    cell_in_off: Vec<u32>,
    /// Flattened per-cell input net ids (all cells, in cell order).
    cell_in_nets: Vec<u32>,
}

impl TimingGraph {
    /// Builds the cached graph structure for a design.
    pub fn new(design: &Design, tech: &Technology) -> Self {
        let n_nets = design.nets.len();
        let n_cells = design.cells.len();
        let mut comb_consumers: Vec<Vec<CellId>> = vec![Vec::new(); n_nets];
        let mut ff_consumers: Vec<Vec<CellId>> = vec![Vec::new(); n_nets];
        let mut po_count = vec![0u32; n_nets];
        let mut driver_cell: Vec<Option<CellId>> = vec![None; n_nets];
        let mut incident_cells: Vec<Vec<CellId>> = vec![Vec::new(); n_nets];
        let mut ff_endpoint_idx = vec![usize::MAX; n_cells];
        let mut delay_intrinsic = vec![0.0; n_cells];
        let mut delay_drive = vec![0.0; n_cells];
        let mut setup = vec![0.0; n_cells];
        let mut cell_output = vec![u32::MAX; n_cells];
        let mut n_ff = 0usize;
        for (cid, cell) in design.cells_iter() {
            let kind = tech.library.kind(cell.kind);
            delay_intrinsic[cid.0 as usize] = kind.intrinsic;
            delay_drive[cid.0 as usize] = kind.drive_res;
            setup[cid.0 as usize] = kind.setup;
            if let Some(out) = cell.output {
                cell_output[cid.0 as usize] = out.0;
            }
            if kind.is_filler() {
                continue;
            }
            for (pin, &inp) in cell.inputs.iter().enumerate() {
                if kind.is_sequential() {
                    if pin == 0 {
                        ff_consumers[inp.0 as usize].push(cid);
                    }
                } else {
                    comb_consumers[inp.0 as usize].push(cid);
                }
                incident_cells[inp.0 as usize].push(cid);
            }
            if let Some(out) = cell.output {
                driver_cell[out.0 as usize] = Some(cid);
                incident_cells[out.0 as usize].push(cid);
            }
            if kind.is_sequential() {
                ff_endpoint_idx[cid.0 as usize] = n_ff;
                n_ff += 1;
            }
        }
        for &po in &design.primary_outputs {
            po_count[po.0 as usize] += 1;
        }

        // Levelize the combinational cells (Kahn): a cell's level is one
        // past the deepest combinational producer among its inputs.
        let mut level = vec![-1i32; n_cells];
        let mut pending = vec![0u32; n_cells];
        let mut queue: std::collections::VecDeque<CellId> = std::collections::VecDeque::new();
        let is_comb = |c: CellId| -> bool {
            let k = tech.library.kind(design.cell(c).kind);
            !k.is_sequential() && !k.is_filler()
        };
        for (cid, cell) in design.cells_iter() {
            if !is_comb(cid) {
                continue;
            }
            let deg = cell
                .inputs
                .iter()
                .filter(|&&inp| matches!(design.net(inp).driver, NetDriver::Cell(c) if is_comb(c)))
                .count() as u32;
            pending[cid.0 as usize] = deg;
            if deg == 0 {
                level[cid.0 as usize] = 0;
                queue.push_back(cid);
            }
        }
        while let Some(cid) = queue.pop_front() {
            let lv = level[cid.0 as usize];
            if let Some(out) = design.cell(cid).output {
                for &c in &comb_consumers[out.0 as usize] {
                    let l = &mut level[c.0 as usize];
                    *l = (*l).max(lv + 1);
                    let p = &mut pending[c.0 as usize];
                    *p -= 1;
                    if *p == 0 {
                        queue.push_back(c);
                    }
                }
            }
        }

        let net_driver_level = (0..n_nets)
            .map(|n| match driver_cell[n] {
                Some(c) => level[c.0 as usize],
                None => -1,
            })
            .collect();
        let max_level = level.iter().copied().max().unwrap_or(-1);

        // Flatten the per-cell input lists: the propagation loops walk
        // them for every frontier visit, and a CSR keeps those walks on
        // two contiguous arrays.
        let mut cell_in_off = Vec::with_capacity(n_cells + 1);
        let mut cell_in_nets = Vec::new();
        cell_in_off.push(0u32);
        for (_, cell) in design.cells_iter() {
            cell_in_nets.extend(cell.inputs.iter().map(|n| n.0));
            cell_in_off.push(cell_in_nets.len() as u32);
        }

        Self {
            level,
            comb_consumers,
            ff_consumers,
            po_count,
            driver_cell,
            net_driver_level,
            incident_cells,
            ff_endpoint_idx,
            po_endpoint_base: n_ff,
            max_level,
            delay_intrinsic,
            delay_drive,
            setup,
            cell_output,
            cell_in_off,
            cell_in_nets,
        }
    }
}

impl TimingGraph {
    /// The input net ids of `cell`, from the flattened CSR.
    #[inline]
    fn cell_inputs(&self, cell: u32) -> &[u32] {
        let ci = cell as usize;
        &self.cell_in_nets[self.cell_in_off[ci] as usize..self.cell_in_off[ci + 1] as usize]
    }
}

/// Reusable per-thread scratch for frontier propagation: level-bucketed
/// pending queues with generation-stamped membership, mirroring the
/// router's `MazeScratch`. Stamp planes and buckets are allocated once per
/// thread and grow monotonically; bumping the generation invalidates every
/// stamped membership in O(1), so a re-analysis touches only memory
/// proportional to its frontier, never to the design.
#[derive(Default)]
struct StaScratch {
    /// Current generation; a stamp equal to this marks live membership.
    generation: u32,
    /// Per cell: queued into `fwd_buckets` this generation.
    cell_stamp: Vec<u32>,
    /// Per cell: per-cell slack already repatched this generation.
    touch_stamp: Vec<u32>,
    /// Per net: queued into `bwd_buckets` this generation.
    net_stamp: Vec<u32>,
    /// Per net: arrival rewritten this generation.
    arr_stamp: Vec<u32>,
    /// Per net: required time rewritten this generation.
    req_stamp: Vec<u32>,
    /// Pending combinational cells, bucketed by topological level.
    fwd_buckets: Vec<Vec<u32>>,
    /// Pending nets, bucketed by combinational-driver level + 1.
    bwd_buckets: Vec<Vec<u32>>,
    /// Nets whose arrival was rewritten, in rewrite order.
    arr_changed: Vec<u32>,
    /// Nets whose required time was rewritten, in rewrite order.
    req_changed: Vec<u32>,
}

impl StaScratch {
    /// Entry count below which the stamp planes never shrink: re-growing
    /// small arrays costs more than retaining them, and every design up
    /// to this size shares one allocation high-water mark.
    const SHRINK_FLOOR: usize = 1 << 15;

    /// Opens a new generation sized for `n_cells`/`n_nets`/`n_levels`.
    fn begin(&mut self, n_cells: usize, n_nets: usize, n_levels: usize) {
        // A thread-local scratch survives across designs; after a
        // 100k-cell analysis it must not pin that design's stamp planes
        // for a TINY one. Once the retained high-water mark exceeds 4x
        // the live demand (and the floor), drop to the demanded size.
        let retained = self.cell_stamp.len().max(self.net_stamp.len());
        if retained > Self::SHRINK_FLOOR && retained / 4 > n_cells.max(n_nets) {
            let keep_cells = n_cells.max(Self::SHRINK_FLOOR);
            self.cell_stamp.truncate(keep_cells);
            self.cell_stamp.shrink_to_fit();
            self.touch_stamp.truncate(keep_cells);
            self.touch_stamp.shrink_to_fit();
            let keep_nets = n_nets.max(Self::SHRINK_FLOOR);
            self.net_stamp.truncate(keep_nets);
            self.net_stamp.shrink_to_fit();
            self.arr_stamp.truncate(keep_nets);
            self.arr_stamp.shrink_to_fit();
            self.req_stamp.truncate(keep_nets);
            self.req_stamp.shrink_to_fit();
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation wrapped: flush every stamp so stale entries
                // from ~4 billion analyses ago cannot alias the new one.
                self.cell_stamp.iter_mut().for_each(|s| *s = 0);
                self.touch_stamp.iter_mut().for_each(|s| *s = 0);
                self.net_stamp.iter_mut().for_each(|s| *s = 0);
                self.arr_stamp.iter_mut().for_each(|s| *s = 0);
                self.req_stamp.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        if self.cell_stamp.len() < n_cells {
            self.cell_stamp.resize(n_cells, 0);
            self.touch_stamp.resize(n_cells, 0);
        }
        if self.net_stamp.len() < n_nets {
            self.net_stamp.resize(n_nets, 0);
            self.arr_stamp.resize(n_nets, 0);
            self.req_stamp.resize(n_nets, 0);
        }
        if self.fwd_buckets.len() < n_levels {
            self.fwd_buckets.resize_with(n_levels, Vec::new);
        }
        if self.bwd_buckets.len() < n_levels + 1 {
            self.bwd_buckets.resize_with(n_levels + 1, Vec::new);
        }
        self.arr_changed.clear();
        self.req_changed.clear();
        // The passes drain their buckets as they run, but a fault-injection
        // panic can unwind mid-pass and leave residue for the next call.
        for b in &mut self.fwd_buckets {
            b.clear();
        }
        for b in &mut self.bwd_buckets {
            b.clear();
        }
    }
}

thread_local! {
    static STA_SCRATCH: std::cell::RefCell<StaScratch> =
        std::cell::RefCell::new(StaScratch::default());
}

/// Queues a combinational cell for forward re-evaluation (no-op for
/// untimed cells or cells already queued this generation).
fn push_fwd(s: &mut StaScratch, graph: &TimingGraph, c: u32) {
    let lv = graph.level[c as usize];
    if lv >= 0 && s.cell_stamp[c as usize] != s.generation {
        s.cell_stamp[c as usize] = s.generation;
        s.fwd_buckets[lv as usize].push(c);
    }
}

/// Queues a net for backward required-time recomputation (no-op when
/// already queued this generation).
fn push_bwd(s: &mut StaScratch, graph: &TimingGraph, n: u32) {
    if s.net_stamp[n as usize] != s.generation {
        s.net_stamp[n as usize] = s.generation;
        let b = (graph.net_driver_level[n as usize] + 1) as usize;
        s.bwd_buckets[b].push(n);
    }
}

/// A net's driver reads its own load when computing gate delay, so a load
/// change shifts the required times of the driver's *input* nets: queue
/// them all.
fn seed_driver_inputs(s: &mut StaScratch, graph: &TimingGraph, design: &Design, n: u32) {
    if let Some(d) = graph.driver_cell[n as usize] {
        if graph.level[d.0 as usize] >= 0 {
            for &inp in &design.cell(d).inputs {
                push_bwd(s, graph, inp.0);
            }
        }
    }
}

/// Re-analyzes an edited layout against a cached base report, propagating
/// timing only through the fanout/fanin cones of nets whose extracted RC
/// differs from the base routing.
///
/// Arrival, required, endpoint, and per-cell slacks are recomputed with
/// the identical formulas [`analyze`] uses, over inputs that are either
/// unchanged base values or freshly recomputed ones — so the result is
/// bit-for-bit equal to a from-scratch `analyze(layout, routing, tech)`.
///
/// `dirty_nets`, when provided, bounds the RC diff: it must be a sorted,
/// deduplicated **superset** of the nets whose extracted RC can differ
/// between `base_routing` and `routing` (typically the router's
/// touched-net handoff — Phase-A patched nets plus RRR victims). Nets
/// outside the list are trusted unchanged and never inspected
/// (`sta.diff_skipped` counts them). Pass `None` when no such bound is
/// known — e.g. after a route-rule change, which moves every net's RC.
pub fn analyze_incremental(
    graph: &TimingGraph,
    base: &TimingReport,
    base_routing: &RoutingState,
    layout: &Layout,
    routing: &RoutingState,
    tech: &Technology,
    dirty_nets: Option<&[NetId]>,
) -> TimingReport {
    INCREMENTAL.time(|_| {
        analyze_incremental_inner(graph, base, base_routing, layout, routing, tech, dirty_nets)
    })
}

/// Injection point covering incremental timing: checked on entry and every
/// 256 forward-cone relaxations (the STA-side granularity of the
/// cooperative eval deadline).
static STA_DIVERGE: faults::Point = faults::Point::new("sta.diverge");

#[allow(clippy::too_many_arguments)]
fn analyze_incremental_inner(
    graph: &TimingGraph,
    base: &TimingReport,
    base_routing: &RoutingState,
    layout: &Layout,
    routing: &RoutingState,
    tech: &Technology,
    dirty_nets: Option<&[NetId]>,
) -> TimingReport {
    STA_DIVERGE.check();
    let design = layout.design();
    let clock = design.clock;
    let period = design.constraints.clock_period;

    // 1. RC diff: find the nets whose parasitics moved. A dirty list
    // bounds the sweep to router-touched nets; iterating it in its sorted
    // order keeps `changed_nets` identical to what the full sweep builds,
    // so everything downstream is unaffected by which path ran.
    let mut changed_nets: Vec<NetId> = Vec::new();
    match dirty_nets {
        Some(dirty) => {
            debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            for &nid in dirty {
                if Some(nid) == clock {
                    continue;
                }
                if routing.net_rc(nid) != base_routing.net_rc(nid) {
                    changed_nets.push(nid);
                }
            }
            DIFF_SKIPPED.add((design.nets.len() - dirty.len()) as u64);
        }
        None => {
            for (nid, _) in design.nets_iter() {
                if Some(nid) == clock {
                    continue;
                }
                if routing.net_rc(nid) != base_routing.net_rc(nid) {
                    changed_nets.push(nid);
                }
            }
        }
    }
    if changed_nets.is_empty() {
        CLEAN_HITS.incr();
        return base.clone();
    }
    // Even a dense edit (an NDR change perturbs every routed net) stays on
    // the frontier path: with the cached `TimingGraph` it degenerates to a
    // levelized full sweep that still skips `analyze_inner`'s re-Kahn and
    // arrival sort, so no from-scratch fallback threshold is needed.
    CONE_NETS.add(changed_nets.len() as u64);

    let TimingReport {
        clock_period,
        mut arrival,
        mut required,
        mut endpoint_slacks,
        mut cell_slack,
        mut wire_delay,
        mut net_load,
    } = base.clone();
    for &nid in &changed_nets {
        wire_delay[nid.0 as usize] = wire_delay_ps(design, routing, tech, nid);
        net_load[nid.0 as usize] = net_load_ff(design, routing, tech, nid);
    }
    // Flat-array gate delay: one indexed read per term, no pointer chase
    // through the cell table and library. Identical expressions to
    // `CellKind::delay`, so every propagated value is bit-identical.
    let gate_delay = |cell: CellId, net_load: &[f64]| -> f64 {
        let ci = cell.0 as usize;
        let load = match graph.cell_output[ci] {
            u32::MAX => 0.0,
            o => net_load[o as usize],
        };
        graph.delay_intrinsic[ci] + graph.delay_drive[ci] * load
    };

    let n_levels = (graph.max_level + 1) as usize;
    STA_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let s = &mut *scratch;
        s.begin(design.cells.len(), design.nets.len(), n_levels);

        // 2. Forward frontier: re-evaluate consumers (input arrival terms
        // moved) and combinational drivers (their gate delay reads the
        // changed load) level by level; propagate only while arrivals
        // actually move. Cells within a level are independent — their
        // inputs come from strictly lower levels, all finalized before the
        // level's bucket drains — so bucket order within a level cannot
        // affect the values written.
        for &nid in &changed_nets {
            let n = nid.0 as usize;
            for &c in &graph.comb_consumers[n] {
                push_fwd(s, graph, c.0);
            }
            if let Some(d) = graph.driver_cell[n] {
                push_fwd(s, graph, d.0);
            }
        }
        let mut fwd_steps: u64 = 0;
        let mut early_exits: u64 = 0;
        for lv in 0..n_levels {
            let bucket = std::mem::take(&mut s.fwd_buckets[lv]);
            for &cidx in &bucket {
                fwd_steps += 1;
                if fwd_steps & 0xFF == 0 {
                    STA_DIVERGE.check();
                }
                let cid = CellId(cidx);
                let mut in_arrival = 0.0f64;
                for &inp in graph.cell_inputs(cidx) {
                    let a = arrival[inp as usize];
                    let a = if a == f64::NEG_INFINITY { 0.0 } else { a };
                    in_arrival = in_arrival.max(a + wire_delay[inp as usize]);
                }
                let out_arrival = in_arrival + gate_delay(cid, &net_load);
                if graph.cell_output[cidx as usize] != u32::MAX {
                    let out = NetId(graph.cell_output[cidx as usize]);
                    let o = out.0 as usize;
                    if arrival[o] != out_arrival {
                        arrival[o] = out_arrival;
                        if s.arr_stamp[o] != s.generation {
                            s.arr_stamp[o] = s.generation;
                            s.arr_changed.push(out.0);
                        }
                        // Fanout lives at strictly higher levels, so these
                        // pushes never land in the bucket being drained.
                        for &c in &graph.comb_consumers[o] {
                            push_fwd(s, graph, c.0);
                        }
                    } else {
                        early_exits += 1;
                    }
                }
            }
            let mut bucket = bucket;
            bucket.clear();
            s.fwd_buckets[lv] = bucket;
        }
        FRONTIER_LEN.record(fwd_steps);
        EARLY_EXITS.add(early_exits);

        // 3. Backward frontier: pull-recompute each affected net's
        // required time (the full min over its FF, PO, and combinational-
        // consumer terms) in descending driver-level order, so every
        // consumer's required time is final before it is read. Pushes from
        // a draining bucket target strictly lower buckets (a driver's
        // inputs sit below the driver's own level).
        for &nid in &changed_nets {
            push_bwd(s, graph, nid.0);
            // The driver's gate delay changed with its load, which shifts
            // the required times of the driver's own inputs.
            seed_driver_inputs(s, graph, design, nid.0);
        }
        for b in (0..n_levels + 1).rev() {
            let bucket = std::mem::take(&mut s.bwd_buckets[b]);
            for &nidx in &bucket {
                let ni = nidx as usize;
                let mut r = f64::INFINITY;
                for &ff in &graph.ff_consumers[ni] {
                    r = r.min((period - graph.setup[ff.0 as usize]) - wire_delay[ni]);
                }
                if graph.po_count[ni] > 0 {
                    r = r.min(period - design.constraints.output_delay);
                }
                for &c in &graph.comb_consumers[ni] {
                    let out = graph.cell_output[c.0 as usize];
                    if out == u32::MAX {
                        continue;
                    }
                    let r_out = required[out as usize];
                    if r_out == f64::INFINITY {
                        continue;
                    }
                    r = r.min(r_out - gate_delay(c, &net_load) - wire_delay[ni]);
                }
                if required[ni] != r {
                    required[ni] = r;
                    if s.req_stamp[ni] != s.generation {
                        s.req_stamp[ni] = s.generation;
                        s.req_changed.push(nidx);
                    }
                    seed_driver_inputs(s, graph, design, nidx);
                }
            }
            let mut bucket = bucket;
            bucket.clear();
            s.bwd_buckets[b] = bucket;
        }

        // 4. Patch endpoint slacks whose inputs moved. A net present in
        // both lists is patched twice with the identical value.
        for n in changed_nets
            .iter()
            .map(|nid| nid.0)
            .chain(s.arr_changed.iter().copied())
        {
            let ni = n as usize;
            for &ff in &graph.ff_consumers[ni] {
                let a = arrival[ni];
                let a = if a == f64::NEG_INFINITY { 0.0 } else { a };
                let at_pin = a + wire_delay[ni];
                endpoint_slacks[graph.ff_endpoint_idx[ff.0 as usize]].1 =
                    (period - graph.setup[ff.0 as usize]) - at_pin;
            }
        }
        for (i, &po) in design.primary_outputs.iter().enumerate() {
            if s.arr_stamp[po.0 as usize] == s.generation {
                let a = arrival[po.0 as usize];
                let a = if a == f64::NEG_INFINITY { 0.0 } else { a };
                endpoint_slacks[graph.po_endpoint_base + i].1 =
                    (period - design.constraints.output_delay) - a;
            }
        }

        // 5. Patch per-cell slack around every net whose slack moved. The
        // touch stamp dedups; order is irrelevant because each cell's
        // slack is a pure function of the final arrival/required planes.
        let slack_of = |net: usize, arrival: &[f64], required: &[f64]| -> f64 {
            let a = arrival[net];
            let r = required[net];
            if a == f64::NEG_INFINITY || r == f64::INFINITY {
                f64::INFINITY
            } else {
                r - a
            }
        };
        let arr_changed = std::mem::take(&mut s.arr_changed);
        let req_changed = std::mem::take(&mut s.req_changed);
        for &n in arr_changed.iter().chain(req_changed.iter()) {
            for &c in &graph.incident_cells[n as usize] {
                if s.touch_stamp[c.0 as usize] == s.generation {
                    continue;
                }
                s.touch_stamp[c.0 as usize] = s.generation;
                let mut worst = f64::INFINITY;
                for &inp in graph.cell_inputs(c.0) {
                    if Some(NetId(inp)) != clock {
                        worst = worst.min(slack_of(inp as usize, &arrival, &required));
                    }
                }
                let out = graph.cell_output[c.0 as usize];
                if out != u32::MAX {
                    worst = worst.min(slack_of(out as usize, &arrival, &required));
                }
                cell_slack[c.0 as usize] = worst;
            }
        }
        // Hand the capacity back for the next generation.
        s.arr_changed = arr_changed;
        s.req_changed = req_changed;

        TimingReport {
            clock_period,
            arrival,
            required,
            endpoint_slacks,
            cell_slack,
            wire_delay,
            net_load,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;
    use tech::RouteRule;

    fn timed(period_factor: f64) -> (Technology, Layout, TimingReport) {
        let tech = Technology::nangate45_like();
        let mut spec = bench::tiny_spec();
        spec.period_factor = period_factor;
        let design = bench::generate(&spec, &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        place::global_place(&mut layout, &tech, 9);
        place::refine_wirelength(&mut layout, &tech, 2, 9);
        let routing = route::route_design(&layout, &tech);
        let timing = analyze(&layout, &routing, &tech);
        (tech, layout, timing)
    }

    #[test]
    fn loose_clock_meets_timing() {
        let (_, _, t) = timed(2.5);
        assert_eq!(t.tns_ps(), 0.0, "wns {}", t.worst_slack_ps());
        assert!(t.worst_slack_ps() > 0.0);
    }

    #[test]
    fn impossible_clock_fails_timing() {
        let (_, _, t) = timed(0.05);
        assert!(t.tns_ps() < 0.0);
        assert!(t.wns_ps() < 0.0);
        assert!(t.failing_endpoints() > 0);
    }

    #[test]
    fn tighter_clock_means_worse_tns() {
        let (_, _, loose) = timed(1.2);
        let (_, _, tight) = timed(0.7);
        assert!(tight.tns_ps() <= loose.tns_ps());
    }

    #[test]
    fn slack_consistency_between_endpoints_and_nets() {
        let (_, layout, t) = timed(1.0);
        // Worst endpoint slack must equal the worst net slack (paths end at
        // endpoints).
        let worst_ep = t.worst_slack_ps();
        let worst_net = layout
            .design()
            .nets_iter()
            .map(|(id, _)| t.net_slack_ps(id))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (worst_ep - worst_net).abs() < 1.0,
            "endpoint {worst_ep} vs net {worst_net}"
        );
    }

    #[test]
    fn critical_cells_have_finite_slack() {
        let (_, layout, t) = timed(1.2);
        for &c in &layout.design().critical_cells {
            let s = t.cell_slack_ps(c);
            assert!(s.is_finite(), "critical cell {} slack {s}", c.0);
        }
    }

    #[test]
    fn incremental_matches_full_bit_for_bit() {
        let tech = Technology::nangate45_like();
        let mut spec = bench::tiny_spec();
        spec.period_factor = 0.9; // tight enough that required times bind
        let design = bench::generate(&spec, &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        place::global_place(&mut layout, &tech, 9);
        place::refine_wirelength(&mut layout, &tech, 2, 9);
        let routing = route::route_design(&layout, &tech);
        let base = analyze(&layout, &routing, &tech);
        let graph = TimingGraph::new(layout.design(), &tech);

        // An NDR change perturbs the RC of (nearly) every routed net.
        let mut edited = layout.clone();
        edited.set_route_rule(RouteRule::uniform(1.5));
        let rerouted = route::route_design(&edited, &tech);
        let full = analyze(&edited, &rerouted, &tech);
        let inc = analyze_incremental(&graph, &base, &routing, &edited, &rerouted, &tech, None);
        assert_eq!(full.arrival, inc.arrival);
        assert_eq!(full.required, inc.required);
        assert_eq!(full.endpoint_slacks, inc.endpoint_slacks);
        assert_eq!(full.cell_slack, inc.cell_slack);
        assert_eq!(full.wire_delay, inc.wire_delay);
        assert_eq!(full.net_load, inc.net_load);
        assert_eq!(full.tns_ps(), inc.tns_ps());

        // No RC change at all must return the base report unchanged.
        let same = analyze_incremental(&graph, &base, &routing, &layout, &routing, &tech, None);
        assert_eq!(same.arrival, base.arrival);
        assert_eq!(same.endpoint_slacks, base.endpoint_slacks);
    }

    /// A `dirty_nets` superset must not change the result: the bounded RC
    /// diff builds the same `changed_nets` list as the full sweep.
    #[test]
    fn dirty_list_matches_unbounded_diff() {
        let tech = Technology::nangate45_like();
        let mut spec = bench::tiny_spec();
        spec.period_factor = 0.9;
        let design = bench::generate(&spec, &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        place::global_place(&mut layout, &tech, 9);
        place::refine_wirelength(&mut layout, &tech, 2, 9);
        let routing = route::route_design(&layout, &tech);
        let base = analyze(&layout, &routing, &tech);
        let graph = TimingGraph::new(layout.design(), &tech);

        // Move one movable cell: only its incident nets' RC can change.
        let mut edited = layout.clone();
        let moved = edited
            .design()
            .cells_iter()
            .map(|(id, _)| id)
            .find(|&id| !edited.occupancy().is_locked(id))
            .expect("tiny design has movable cells");
        let fp = *edited.floorplan();
        let pos = edited.cell_pos(moved).unwrap();
        let w = edited.occupancy().cell_width(moved).unwrap();
        let target = edited
            .occupancy()
            .find_gap(
                w,
                geom::SitePos::new(fp.rows() - 1 - pos.row, pos.col),
                fp.rows().max(fp.cols()),
            )
            .expect("gap exists");
        edited.occupancy_mut().move_cell(moved, target).unwrap();
        let rerouted = route::route_design(&edited, &tech);

        let unbounded =
            analyze_incremental(&graph, &base, &routing, &edited, &rerouted, &tech, None);
        // The exact-changed set plus some untouched nets is a valid
        // superset; here the simplest correct one is "every net" — the
        // point is the bounded path, not the bound's tightness.
        let all: Vec<netlist::NetId> = edited.design().nets_iter().map(|(id, _)| id).collect();
        let bounded = analyze_incremental(
            &graph,
            &base,
            &routing,
            &edited,
            &rerouted,
            &tech,
            Some(&all),
        );
        assert_eq!(unbounded.arrival, bounded.arrival);
        assert_eq!(unbounded.endpoint_slacks, bounded.endpoint_slacks);
        assert_eq!(unbounded.cell_slack, bounded.cell_slack);
        assert_eq!(unbounded.wire_delay, bounded.wire_delay);

        // A tight superset — only the nets whose RC actually moved — must
        // also reproduce the unbounded result bit for bit.
        let tight: Vec<netlist::NetId> = edited
            .design()
            .nets_iter()
            .map(|(id, _)| id)
            .filter(|&id| rerouted.net_rc(id) != routing.net_rc(id))
            .collect();
        let bounded_tight = analyze_incremental(
            &graph,
            &base,
            &routing,
            &edited,
            &rerouted,
            &tech,
            Some(&tight),
        );
        assert_eq!(unbounded.arrival, bounded_tight.arrival);
        assert_eq!(unbounded.endpoint_slacks, bounded_tight.endpoint_slacks);
        assert_eq!(unbounded.cell_slack, bounded_tight.cell_slack);
        assert_eq!(unbounded.wire_delay, bounded_tight.wire_delay);
        assert_eq!(unbounded.net_load, bounded_tight.net_load);
    }

    #[test]
    fn longer_wires_increase_delay() {
        // Same design, worse placement (no refinement) must not have
        // better worst slack than the refined one.
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut bad = Layout::empty_floorplan(design.clone(), &tech, 0.6);
        place::global_place(&mut bad, &tech, 1);
        // Scramble: move cells far from optimal via a different seed and no
        // refinement, then compare against a refined twin.
        let mut good = Layout::empty_floorplan(design, &tech, 0.6);
        place::global_place(&mut good, &tech, 1);
        place::refine_wirelength(&mut good, &tech, 3, 1);
        bad.set_route_rule(RouteRule::default());
        let tr_bad = analyze(&bad, &route::route_design(&bad, &tech), &tech);
        let tr_good = analyze(&good, &route::route_design(&good, &tech), &tech);
        assert!(tr_good.worst_slack_ps() >= tr_bad.worst_slack_ps() - 1.0);
    }
}

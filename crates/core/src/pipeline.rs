//! Baseline implementation flow and full re-evaluation of modified layouts.
//!
//! Stands in for the commercial P&R backend of the paper's prototype: it
//! turns a benchmark spec into an implemented baseline layout
//! ([`implement_baseline`]) and recomputes every design metric after an ECO
//! operator touched a layout ([`evaluate`]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use layout::Layout;
use netlist::bench::DesignSpec;
use netlist::NetId;
use power::PowerReport;
use route::RoutingState;
use secmetrics::{analyze_regions, RegionAnalysis, THRESH_ER};

use crate::error::Error;
use crate::flow::{FlowConfig, FlowMetrics, OpSelect};
use sta::TimingReport;
use tech::Technology;

/// A fully analyzed physical design: layout plus every derived metric.
///
/// The layout is `Arc`-shared: snapshots that evaluate the same edited
/// layout (e.g. scale-only NSGA-II siblings off one memoized operator
/// edit) alias a single copy, and cloning a snapshot never deep-copies
/// the layout. Use [`Arc::make_mut`] to mutate it in place.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The (possibly hardened) layout.
    pub layout: Arc<Layout>,
    /// Committed global routing.
    pub routing: RoutingState,
    /// Timing analysis at the design's clock constraint.
    pub timing: TimingReport,
    /// Power report.
    pub power: PowerReport,
    /// DRC violation count.
    pub drc: u32,
    /// Exploitable-region analysis.
    pub security: RegionAnalysis,
}

impl Snapshot {
    /// TNS in ps (≤ 0; 0 means timing is met).
    pub fn tns_ps(&self) -> f64 {
        self.timing.tns_ps()
    }

    /// Total power in mW.
    pub fn power_mw(&self) -> f64 {
        self.power.total_mw()
    }
}

/// Routes and analyzes `layout`, producing a complete [`Snapshot`].
///
/// Validates the layout against `tech` first and returns
/// [`Error::InconsistentLayout`] instead of panicking deep inside a
/// routing or timing stage.
pub fn evaluate(layout: impl Into<Arc<Layout>>, tech: &Technology) -> Result<Snapshot, Error> {
    let layout = layout.into();
    layout
        .check_consistency(tech)
        .map_err(Error::InconsistentLayout)?;
    Ok(evaluate_unchecked(layout, tech))
}

static FULL: obs::Span = obs::Span::new("eval.full");

/// [`evaluate`] without the consistency pre-check: the flow oracle's
/// path, whose operators preserve consistency by construction (they
/// change placement and/or the NDR rule; everything downstream is
/// recomputed).
pub(crate) fn evaluate_unchecked(layout: impl Into<Arc<Layout>>, tech: &Technology) -> Snapshot {
    let layout = layout.into();
    FULL.time(|_| {
        let routing = route::route_design(&layout, tech);
        let timing = sta::analyze(&layout, &routing, tech);
        let power = power::analyze(&layout, &routing, tech);
        let drc = routing.drc_violations(&layout);
        let security = analyze_regions(&layout, &routing, &timing, tech, THRESH_ER);
        Snapshot {
            layout,
            routing,
            timing,
            power,
            drc,
            security,
        }
    })
}

/// Incremental evaluation engine: caches everything about the baseline
/// that ECO operators cannot invalidate, so re-evaluating a candidate
/// costs work proportional to the *edit*, not the chip.
///
/// The cached state is
/// - the baseline [`Snapshot`] itself (reference metrics to patch from),
/// - the Phase-A [`route::RoutePlan`] (congestion-oblivious patterns;
///   only nets incident to moved cells are re-planned),
/// - the levelized [`sta::TimingGraph`] (pure netlist topology), and
/// - the [`power::PowerModel`] (leakage/internal/clock terms).
///
/// A candidate evaluated through the engine ([`crate::flow::FlowRun::engine`])
/// is bit-identical to [`evaluate`] by construction — each stage either
/// reuses a value the edit provably cannot change or recomputes it with
/// the exact full-path formula. The equivalence is asserted by the
/// `incremental_equivalence` proptest suite and by this module's
/// random-edit proptest.
///
/// The engine additionally memoizes ECO *operator* results (see
/// [`crate::flow::FlowRun::engine`]): the placement edit of a candidate
/// depends only on the operator genes and its seed, never on the routing
/// width scales, so a GA population that varies scales around the same
/// operator re-uses one edited layout instead of re-running the operator.
/// The memo also carries the patched Phase-A plan — pattern routes are
/// congestion-oblivious and the grid stores unscaled usage quanta, so the
/// plan too is independent of the width scales; scale-only siblings pay
/// just a plan clone and a capacity re-derivation, never a re-pattern.
/// On top of that it memoizes each candidate's metrics per operator,
/// operator seed and width scales, of which the flow is a pure function.
///
/// Both memos are single-flight: each key maps to one shared slot, the
/// first asker builds it outside the lock, and concurrent askers of the
/// same key wait for that one build. So while the edit cache stays under
/// its byte budget (whose LRU order follows worker timing), the work done
/// and every counter do not depend on worker timing.
#[derive(Debug)]
pub struct EvalEngine {
    base: Snapshot,
    plan: route::RoutePlan,
    graph: sta::TimingGraph,
    power_model: power::PowerModel,
    cache: Mutex<EvalCache>,
    /// Byte budget of the edit cache ([`EVAL_CACHE_BYTES`]). Entries are
    /// LRU-evicted once their accounted unshared bytes exceed this.
    cache_budget: u64,
}

/// The engine's memoized work, behind one lock: operator-edit slots with
/// their byte account and LRU clock, and end-to-end metrics slots. A slot
/// is filled outside the lock; one whose build unwound stays empty, and
/// the next asker builds it.
#[derive(Debug, Default)]
struct EvalCache {
    /// Keyed by the operator and the seed it consumes ([`operator_seed`]).
    edits: HashMap<(OpSelect, u64), EditEntry>,
    /// Sum of every built edit's bytes.
    edit_bytes: u64,
    /// Access clock driving LRU eviction; bumped on every edit lookup
    /// and build.
    clock: u64,
    /// At most [`METRICS_MEMO_CAP`] entries.
    metrics: HashMap<EvalKey, Arc<OnceLock<FlowMetrics>>>,
}

/// One edit-cache slot with its LRU stamp.
#[derive(Debug, Default)]
struct EditEntry {
    slot: Arc<OnceLock<Edit>>,
    /// Cache clock value of the last lookup or the build.
    last_used: u64,
}

/// One memoized operator edit: the post-operator layout (still at the
/// baseline's route rule) and its patched Phase-A plan, both `Arc`-shared
/// with every candidate that uses them, so a hit costs refcount bumps and
/// a candidate copies only what its own route rule changes.
#[derive(Debug, Clone)]
struct Edit {
    layout: Arc<Layout>,
    plan: Arc<route::RoutePlan>,
    /// Sorted net ids the Phase-A patch re-planned for this edit (the
    /// operator's dirty set). Everything else carries the baseline's
    /// pattern segments by `Arc` share.
    dirty: Arc<Vec<NetId>>,
    /// Unshared-with-baseline bytes this entry pins (what evicting it
    /// approximately frees).
    bytes: u64,
}

/// Key of one memoized end-to-end evaluation: the operator, the seed it
/// actually consumes (normalized away for seedless operators), and the
/// route-rule scale bits. The full flow is a pure function of this
/// triple — the operator edit depends only on `(op, seed)`, and
/// everything downstream (Phase B, STA, power, DRC, security) depends
/// only on the edited layout plus the installed rule — so two candidates
/// with equal keys provably produce identical [`FlowMetrics`].
/// NSGA-II populations revisit such semantic duplicates constantly
/// (distinct genomes collapse to one key when the operator ignores its
/// seed), which the genome-level cache upstream cannot see.
type EvalKey = (OpSelect, u64, [u64; tech::NUM_METAL_LAYERS]);

/// Bound on memoized evaluation results (a key plus a [`FlowMetrics`] is
/// ~130 bytes, so this caps the memo at a few megabytes while comfortably
/// covering a full exploration).
const METRICS_MEMO_CAP: usize = 65_536;

/// Edit-cache byte budget: generous enough that a TINY-class exploration
/// never evicts, small enough that a long explore on a 100k-cell design
/// stays bounded. An explore's edit cache holds at most 16 keys (Cell
/// Shift plus the 5 × 3 LDA settings; the operator seed is a function of
/// the operator genes), so only big designs ever reach it.
const EVAL_CACHE_BYTES: u64 = 256 << 20;

/// Approximate resident bytes of one metrics-memo entry (key + value +
/// `HashMap` slot overhead).
const MEMO_ENTRY_BYTES: u64 =
    (size_of::<EvalKey>() + size_of::<FlowMetrics>() + 2 * size_of::<u64>()) as u64;

/// Point-in-time byte footprint of an [`EvalEngine`], as surfaced by
/// `ggd stats` and the bench suite (see
/// [`EvalEngine::memory_footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Resident bytes of the baseline layout's occupancy index.
    pub occupancy_bytes: u64,
    /// Usage-plane pages held by the baseline routing plus the Phase-A
    /// plan (Arc-deduplicated).
    pub route_planes_bytes: u64,
    /// Accounted bytes of the operator-edit cache and metrics memo.
    pub cache_bytes: u64,
}

static CACHE_HITS: obs::Counter = obs::Counter::new("eval.cache_hits");
static CACHE_MISSES: obs::Counter = obs::Counter::new("eval.cache_misses");
static MEMO_HITS: obs::Counter = obs::Counter::new("eval.memo_hits");
/// Edits dropped by the byte-budget LRU.
static CACHE_EVICTIONS: obs::Counter = obs::Counter::new("eval.cache_evictions");

/// Injection point covering the engine's memoized-edit path: checked before
/// the cache lookup, so a drill exercises the sandbox without ever holding
/// the cache lock.
static EVAL_PANIC: faults::Point = faults::Point::new("eval.panic");

/// The seed an operator actually consumes: Cell Shift is deterministic,
/// so every seed maps to the same edit (and the same memoization slot).
fn operator_seed(op: OpSelect, seed: u64) -> u64 {
    match op {
        OpSelect::CellShift => 0,
        OpSelect::Lda { .. } => seed,
    }
}

impl EvalEngine {
    /// Builds the engine's caches from an implemented baseline.
    pub fn new(base: &Snapshot, tech: &Technology) -> Self {
        Self {
            base: base.clone(),
            plan: route::plan_route(&base.layout, tech),
            graph: sta::TimingGraph::new(base.layout.design(), tech),
            power_model: power::PowerModel::new(&base.layout, tech),
            cache: Mutex::default(),
            cache_budget: EVAL_CACHE_BYTES,
        }
    }

    /// The cache lock. Nothing that can unwind runs under it (every build
    /// runs outside), so a poisoned lock still holds consistent state.
    fn cache(&self) -> MutexGuard<'_, EvalCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The engine's current byte footprint, read directly from the
    /// structures, telemetry on or off; `ggd stats` and the bench suite
    /// report it.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        // The page and shard walks below run after the guard drops, so
        // they never stall a worker's cache lookup.
        let cache = self.cache();
        let cache_bytes = cache.edit_bytes + cache.metrics.len() as u64 * MEMO_ENTRY_BYTES;
        drop(cache);
        MemoryFootprint {
            occupancy_bytes: self.base.layout.occupancy().occupancy_bytes(),
            route_planes_bytes: self.base.routing.grid().planes_bytes()
                + self.plan.grid().planes_bytes(),
            cache_bytes,
        }
    }

    /// The engine path of [`crate::flow::FlowRun::metrics`]. A semantic
    /// duplicate of an earlier or in-flight candidate (equal [`EvalKey`],
    /// which GA populations produce constantly) returns the memoized
    /// metrics without re-running Phase B, STA or the security analysis.
    /// Past [`METRICS_MEMO_CAP`] keys a new key is computed unshared.
    pub(crate) fn metrics(&self, tech: &Technology, cfg: &FlowConfig, seed: u64) -> FlowMetrics {
        let key = (
            cfg.op,
            operator_seed(cfg.op, seed),
            cfg.scales.map(f64::to_bits),
        );
        let slot = {
            let mut cache = self.cache();
            if cache.metrics.len() < METRICS_MEMO_CAP {
                Arc::clone(cache.metrics.entry(key).or_default())
            } else {
                cache.metrics.get(&key).cloned().unwrap_or_default()
            }
        };
        let mut built_here = false;
        let m = *slot.get_or_init(|| {
            built_here = true;
            FlowMetrics::from_snapshot(&self.snapshot(tech, cfg, seed), &self.base)
        });
        if !built_here {
            MEMO_HITS.incr();
        }
        m
    }

    /// The engine path of [`crate::flow::FlowRun::snapshot`]: the memoized
    /// operator edit under the candidate's route rule, then Phase B and
    /// the incremental analyses. A rule equal to the edit's keeps the
    /// layout shared; any other copies it once and re-derives the plan's
    /// capacities, which stays bit-identical to the oracle because the
    /// plan stores unscaled usage (see [`route::RoutePlan::set_rule`]).
    pub(crate) fn snapshot(&self, tech: &Technology, cfg: &FlowConfig, seed: u64) -> Snapshot {
        let edit = self.edit(tech, cfg.op, operator_seed(cfg.op, seed));
        let rule = tech::RouteRule::from_scales(cfg.scales);
        let (layout, plan) = if edit.layout.route_rule() == &rule {
            (edit.layout, (*edit.plan).clone())
        } else {
            let mut layout = (*edit.layout).clone();
            layout.set_route_rule(rule.clone());
            let mut plan = (*edit.plan).clone();
            plan.set_rule(tech, &rule);
            (Arc::new(layout), plan)
        };
        self.evaluate_with_plan(layout, plan, tech, &edit.dirty)
    }

    /// The edit of operator `op` at the seed it consumes, from the cache
    /// or built once. The build runs outside the lock, and concurrent
    /// askers of the same key wait for it and count as hits.
    fn edit(&self, tech: &Technology, op: OpSelect, seed: u64) -> Edit {
        EVAL_PANIC.check();
        let slot = {
            let mut guard = self.cache();
            let cache = &mut *guard;
            cache.clock += 1;
            let entry = cache.edits.entry((op, seed)).or_default();
            entry.last_used = cache.clock;
            Arc::clone(&entry.slot)
        };
        let (mut built_here, mut evictions) = (false, 0);
        let edit = slot
            .get_or_init(|| {
                built_here = true;
                let layout = crate::flow::apply_operator(&self.base, tech, op, seed);
                let dirty = route::dirty_between(&self.plan, &self.base.layout, &layout, tech);
                let plan = route::plan_update(&self.plan, &layout, tech, &dirty);
                // Byte accounting: what this entry pins beyond the baseline
                // the engine holds anyway (copy-on-write shards/pages/segment
                // lists it owns privately).
                let bytes = layout
                    .occupancy()
                    .unshared_bytes(self.base.layout.occupancy())
                    + plan.approx_unshared_bytes(&self.plan)
                    + (dirty.nets.capacity() * size_of::<NetId>()) as u64;
                // Account the edit and stamp it freshest, then LRU-evict
                // under the byte budget. Only built edits are victims, so
                // this one (not yet in its slot) never is, and the handles
                // already returned keep an evicted edit alive for their
                // callers.
                let mut guard = self.cache();
                let cache = &mut *guard;
                cache.clock += 1;
                if let Some(entry) = cache.edits.get_mut(&(op, seed)) {
                    entry.last_used = cache.clock;
                }
                cache.edit_bytes += bytes;
                while cache.edit_bytes > self.cache_budget {
                    let Some((_, victim, freed)) = cache
                        .edits
                        .iter()
                        .filter_map(|(&k, e)| Some((e.last_used, k, e.slot.get()?.bytes)))
                        .min_by_key(|&(last_used, _, _)| last_used)
                    else {
                        break;
                    };
                    cache.edits.remove(&victim);
                    cache.edit_bytes -= freed;
                    evictions += 1;
                }
                Edit {
                    layout: Arc::new(layout),
                    plan: Arc::new(plan),
                    dirty: Arc::new(dirty.nets),
                    bytes,
                }
            })
            .clone();
        // Counted after the guard drops: the first count after an
        // `obs::reset` takes the obs registry lock.
        if built_here {
            CACHE_MISSES.incr();
        } else {
            CACHE_HITS.incr();
        }
        CACHE_EVICTIONS.add(evictions);
        edit
    }

    /// The baseline snapshot the engine was built from.
    pub fn base(&self) -> &Snapshot {
        &self.base
    }

    /// The cached Phase-A route plan of the baseline.
    pub fn plan(&self) -> &route::RoutePlan {
        &self.plan
    }

    /// The cached levelized timing graph.
    pub fn graph(&self) -> &sta::TimingGraph {
        &self.graph
    }

    /// Evaluation tail of [`EvalEngine::snapshot`]: Phase B on an
    /// already-patched plan, then incremental STA and the model-backed
    /// analyses.
    ///
    /// `phase_a_dirty` is the sorted net list the Phase-A patch
    /// re-planned for this candidate. When the candidate keeps the
    /// baseline's route rule, the RC of any net outside
    /// `phase_a_dirty ∪ candidate RRR victims ∪ baseline RRR victims`
    /// provably equals the baseline's — such a net carries the same
    /// `Arc`-shared pattern segments on both sides and identical track
    /// scales — so that union is handed to [`sta::analyze_incremental`]
    /// as the `dirty_nets` bound. A rule change moves every net's RC and
    /// disables the bound (see DESIGN.md §2d).
    fn evaluate_with_plan(
        &self,
        layout: Arc<Layout>,
        plan: route::RoutePlan,
        tech: &Technology,
        phase_a_dirty: &[NetId],
    ) -> Snapshot {
        let routing = route::finalize_route(&layout, tech, plan);
        let dirty_nets: Option<Vec<NetId>> = if layout.route_rule() == self.base.layout.route_rule()
        {
            let mut v: Vec<NetId> = phase_a_dirty
                .iter()
                .chain(routing.touched_nets())
                .chain(self.base.routing.touched_nets())
                .copied()
                .collect();
            v.sort_unstable();
            v.dedup();
            Some(v)
        } else {
            None
        };
        let timing = sta::analyze_incremental(
            &self.graph,
            &self.base.timing,
            &self.base.routing,
            &layout,
            &routing,
            tech,
            dirty_nets.as_deref(),
        );
        let power = power::analyze_with_model(&self.power_model, &layout, &routing, tech);
        let drc = routing.drc_violations(&layout);
        let security = analyze_regions(&layout, &routing, &timing, tech, THRESH_ER);
        Snapshot {
            layout,
            routing,
            timing,
            power,
            drc,
            security,
        }
    }
}

static IMPLEMENT: obs::Span = obs::Span::new("baseline.implement");

/// Implements the baseline layout for a benchmark spec: the generated
/// netlist placed by [`place_design`] at the spec's utilization and seed,
/// then signal routing and full analysis.
///
/// Validates the implemented layout before evaluation and returns
/// [`Error::InconsistentLayout`] if the placement stages ever produce an
/// illegal layout (a bug, but one that now surfaces as a typed error at
/// the API boundary instead of a panic in a downstream stage).
pub fn implement_baseline(spec: &DesignSpec, tech: &Technology) -> Result<Snapshot, Error> {
    IMPLEMENT.time(|_| {
        let design = netlist::bench::generate(spec, tech);
        let layout = place_design(design, tech, spec.utilization, spec.seed);
        evaluate(layout, tech)
    })
}

/// Places `design` from scratch: floorplan at `utilization`, global
/// placement and wirelength refinement. Key registers and key-control
/// logic are then banked, as in the ISPD'22 security-closure layouts the
/// paper evaluates on, and the surrounding logic re-optimizes around the
/// bank (critical cells pinned). The baseline and the ICAS defense's
/// re-implementations share this recipe.
pub fn place_design(
    design: netlist::Design,
    tech: &Technology,
    utilization: f64,
    seed: u64,
) -> Layout {
    let critical = design.critical_cells.clone();
    let mut layout = Layout::empty_floorplan(design, tech, utilization);
    place::global_place(&mut layout, tech, seed);
    place::refine_wirelength(&mut layout, tech, 4, seed);
    place::bank_cells(&mut layout, tech, &critical, 0.85, seed);
    for &c in &critical {
        layout.occupancy_mut().lock(c);
    }
    place::refine_wirelength(&mut layout, tech, 3, seed ^ 0xBA2);
    for &c in &critical {
        layout.occupancy_mut().unlock(c);
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;
    use netlist::CellId;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use tech::RouteRule;

    impl EvalEngine {
        /// Re-evaluates an arbitrarily edited layout, recomputing only
        /// what the edit dirtied: the engine tail the candidate path runs,
        /// fed a layout no operator produced.
        fn evaluate_incremental(&self, layout: Layout, tech: &Technology) -> Snapshot {
            let layout = Arc::new(layout);
            let dirty = route::dirty_between(&self.plan, &self.base.layout, &layout, tech);
            let plan = route::plan_update(&self.plan, &layout, tech, &dirty);
            self.evaluate_with_plan(layout, plan, tech, &dirty.nets)
        }
    }

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

        /// Arbitrary legal cell moves followed by an NDR change: the
        /// engine tail equals [`evaluate`] metric by metric.
        #[test]
        fn random_edit_sequences_match_oracle(
            moves in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..12),
            scale_idx in 0usize..RouteRule::CANDIDATES.len(),
        ) {
            let (tech, base, engine) = fixture();
            let mut layout = Layout::clone(&base.layout);
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
            crate::rws::apply_uniform_scaling(&mut layout, RouteRule::CANDIDATES[scale_idx]);
            let oracle = evaluate(layout.clone(), tech).expect("edited layout stays consistent");
            let inc = engine.evaluate_incremental(layout, tech);
            assert_snapshots_match(&oracle, &inc);
        }
    }

    #[test]
    fn baseline_snapshot_is_complete() {
        let tech = Technology::nangate45_like();
        // The fallible path validates consistency itself, so a returned
        // snapshot is a consistent one by contract.
        let snap = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        assert!(snap.power_mw() > 0.0);
        assert!(snap.security.er_sites > 0);
        assert!(snap.routing.total_wirelength_um() > 0.0);
        assert!(snap.tns_ps() <= 0.0);
    }

    #[test]
    fn evaluate_is_deterministic() {
        let tech = Technology::nangate45_like();
        let a = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let b = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        assert_eq!(a.security.er_sites, b.security.er_sites);
        assert_eq!(a.drc, b.drc);
        assert_eq!(a.tns_ps(), b.tns_ps());
        assert_eq!(a.power_mw(), b.power_mw());
    }

    /// A layout that fails consistency is rejected with a typed error at
    /// the API boundary, never a panic downstream.
    #[test]
    fn evaluate_rejects_inconsistent_layouts() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let mut broken = Layout::clone(&base.layout);
        // Re-place a cell one site wider than its master: the occupancy
        // grid accepts the footprint, but it no longer matches the
        // library, which is exactly what the consistency check polices.
        let cell = netlist::CellId(0);
        let w = broken.occupancy().cell_width(cell).unwrap();
        broken.occupancy_mut().remove_cell(cell).unwrap();
        let gap = broken
            .occupancy()
            .find_gap(
                w + 1,
                geom::SitePos::new(0, 0),
                broken.floorplan().rows() + broken.floorplan().cols(),
            )
            .expect("tiny fixture leaves free runs");
        broken.occupancy_mut().place_cell(cell, w + 1, gap).unwrap();
        match evaluate(broken, &tech) {
            Err(Error::InconsistentLayout(why)) => assert!(!why.is_empty()),
            other => panic!("expected InconsistentLayout, got {other:?}"),
        }
    }

    /// The edit cache must share, not copy — and handing out shares must
    /// not leak: once every candidate's handle drops, the cache entry is
    /// the sole remaining owner of the layout and plan.
    #[test]
    fn edit_cache_shares_and_does_not_leak() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let engine = EvalEngine::new(&base, &tech);
        let op = OpSelect::CellShift;

        // A hit is a share of the miss, not a recomputation.
        let first = engine.edit(&tech, op, 0);
        let second = engine.edit(&tech, op, 0);
        assert!(Arc::ptr_eq(&first.layout, &second.layout));

        // Rule-identical materialization keeps the layout shared.
        let cfg = FlowConfig::cell_shift_default();
        let same = engine.snapshot(&tech, &cfg, 1).layout;
        assert!(Arc::ptr_eq(&first.layout, &same));

        // A diverging rule copies privately and leaves the cache intact.
        let wide = FlowConfig {
            scales: [1.2; tech::NUM_METAL_LAYERS],
            ..cfg
        };
        let copied = engine.snapshot(&tech, &wide, 1).layout;
        let third = engine.edit(&tech, op, 0);
        assert!(!Arc::ptr_eq(&first.layout, &copied));
        assert_eq!(copied.route_rule(), &tech::RouteRule::uniform(1.2));
        assert!(Arc::ptr_eq(&first.layout, &third.layout));

        // No leak: dropping every handle leaves the cache entry plus the
        // one probe below as the only owners.
        drop((second, same, copied, third));
        let probe = engine.edit(&tech, op, 0);
        drop(first);
        assert_eq!(Arc::strong_count(&probe.layout), 2);
        assert_eq!(Arc::strong_count(&probe.plan), 2);
    }

    /// Under a starvation-level byte budget the cache LRU-evicts down to
    /// one entry per insert, and an evicted edit recomputes (a miss)
    /// instead of erroring. Handed-out edits survive eviction: the
    /// caller's `Arc` keeps the layout alive.
    #[test]
    fn edit_cache_byte_budget_evicts_lru() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let mut engine = EvalEngine::new(&base, &tech);
        engine.cache_budget = 1;
        let cs = OpSelect::CellShift;
        let a = engine.edit(&tech, cs, 0);
        // Inserting a second edit blows the 1-byte budget and evicts the
        // first (older LRU stamp).
        let _b = engine.edit(&tech, OpSelect::Lda { n: 8, n_iter: 1 }, 1);
        // Cell Shift's edit is gone: the next lookup must recompute, not hit.
        assert!(
            !engine.cache.lock().unwrap().edits.contains_key(&(cs, 0)),
            "evicted entry must miss"
        );
        let a2 = engine.edit(&tech, cs, 0);
        // Determinism: the recomputation reproduces the same edit even
        // though the cache forgot it; the old handle stays valid.
        assert_eq!(
            a.layout.occupancy().occupied_sites(),
            a2.layout.occupancy().occupied_sites()
        );
        assert!(!Arc::ptr_eq(&a.layout, &a2.layout));
    }
}

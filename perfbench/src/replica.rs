//! Layer-by-layer replicas of the evaluation paths, built only from public
//! layer calls and timed from outside.
//!
//! [`Replica`] re-implements `EvalEngine`'s memoized incremental path
//! (metrics memo, then operator-edit cache, then Phase B, STA, power, DRC
//! and region analysis); [`full_flow`] re-implements the from-scratch
//! `FlowRun` path behind `harden`; [`setup`] re-implements
//! `implement_baseline`. Each wraps every layer call in a timer, so the
//! per-layer numbers describe exactly the calls the program makes, and
//! the caller checks every replayed result against the program's own.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use gdsii_guard::prelude::*;
use gdsii_guard::{cell_shift, lda, preprocess, rws};
use layout::Layout;
use netlist::bench::DesignSpec;
use netlist::NetId;
use secmetrics::{analyze_regions, THRESH_ER};
use tech::{RouteRule, Technology, NUM_METAL_LAYERS};

use crate::stats::ms_since;

/// Accumulated wall milliseconds per layer name.
#[derive(Default)]
pub struct Layers {
    ms: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *self.ms.entry(name).or_default() += ms_since(t0);
        r
    }

    pub fn get(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn total(&self) -> f64 {
        self.ms.values().sum()
    }
}

/// The seed an operator consumes (Cell Shift is deterministic), as the
/// engine normalizes it.
fn operator_seed(op: OpSelect, seed: u64) -> u64 {
    match op {
        OpSelect::CellShift => 0,
        OpSelect::Lda { .. } => seed,
    }
}

/// Clones the baseline layout, locks the critical cells and applies the
/// operator — timed as one operator call under `op.cell_shift`/`op.lda`.
fn apply_operator(
    layers: &mut Layers,
    base: &Layout,
    tech: &Technology,
    op: OpSelect,
    seed: u64,
) -> Layout {
    let name = match op {
        OpSelect::CellShift => "op.cell_shift",
        OpSelect::Lda { .. } => "op.lda",
    };
    layers.time(name, || {
        let mut layout = Layout::clone(base);
        preprocess::lock_critical_cells(&mut layout);
        match op {
            OpSelect::CellShift => {
                cell_shift::cell_shift(&mut layout, tech, THRESH_ER);
            }
            OpSelect::Lda { n, n_iter } => {
                lda::local_density_adjustment(
                    &mut layout,
                    tech,
                    lda::LdaParams { n, n_iter },
                    seed,
                );
            }
        }
        layout
    })
}

/// One memoized operator edit: post-operator layout, patched Phase-A
/// plan, and the nets the patch re-planned.
#[derive(Clone)]
struct Edit {
    layout: Arc<Layout>,
    plan: Arc<route::RoutePlan>,
    dirty: Arc<Vec<NetId>>,
}

type EvalKey = (OpSelect, u64, [u64; NUM_METAL_LAYERS]);

/// Replica of the engine's incremental evaluation path with its own
/// edit cache and metrics memo (no eviction: a run whose engine evicted
/// shows up as a hit-count mismatch).
pub struct Replica<'a> {
    tech: &'a Technology,
    engine: &'a EvalEngine,
    power_model: power::PowerModel,
    edits: HashMap<(OpSelect, u64), Edit>,
    memo: HashMap<EvalKey, FlowMetrics>,
    pub layers: Layers,
    /// Wall of every `finalize_route` call, per candidate.
    pub phase_b_ms: Vec<f64>,
    /// Summed wall of every replayed candidate, memo hits included.
    pub candidate_ms: f64,
    pub replayed: u64,
    pub memo_hits: u64,
    pub edit_hits: u64,
    pub edit_misses: u64,
}

impl<'a> Replica<'a> {
    /// Uses `engine` only for its immutable baseline structures (base
    /// snapshot, Phase-A plan, timing graph); its caches are never read.
    pub fn new(engine: &'a EvalEngine, tech: &'a Technology) -> Self {
        Self {
            tech,
            engine,
            power_model: power::PowerModel::new(&engine.base().layout, tech),
            edits: HashMap::new(),
            memo: HashMap::new(),
            layers: Layers::default(),
            phase_b_ms: Vec::new(),
            candidate_ms: 0.0,
            replayed: 0,
            memo_hits: 0,
            edit_hits: 0,
            edit_misses: 0,
        }
    }

    /// Evaluates one candidate exactly as `FlowRun::engine(..).metrics()`.
    pub fn eval(&mut self, cfg: &FlowConfig, seed: u64) -> FlowMetrics {
        let t0 = Instant::now();
        let m = self.eval_inner(cfg, seed);
        self.candidate_ms += ms_since(t0);
        self.replayed += 1;
        m
    }

    fn eval_inner(&mut self, cfg: &FlowConfig, seed: u64) -> FlowMetrics {
        let (tech, engine) = (self.tech, self.engine);
        let base = engine.base();
        let op_seed = operator_seed(cfg.op, seed);
        let key = (cfg.op, op_seed, cfg.scales.map(f64::to_bits));
        if let Some(m) = self.memo.get(&key) {
            self.memo_hits += 1;
            return *m;
        }
        let edit = match self.edits.get(&(cfg.op, op_seed)) {
            Some(e) => {
                self.edit_hits += 1;
                e.clone()
            }
            None => {
                self.edit_misses += 1;
                let layout = apply_operator(&mut self.layers, &base.layout, tech, cfg.op, op_seed);
                let dirty = self.layers.time("route.dirty", || {
                    route::dirty_between(engine.plan(), &base.layout, &layout, tech)
                });
                let plan = self.layers.time("route.patch", || {
                    route::plan_update(engine.plan(), &layout, tech, &dirty)
                });
                let e = Edit {
                    layout: Arc::new(layout),
                    plan: Arc::new(plan),
                    dirty: Arc::new(dirty.nets),
                };
                self.edits.insert((cfg.op, op_seed), e.clone());
                e
            }
        };
        // Install the candidate's route rule (copy-on-write, as the
        // engine's `CowSnapshot::into_parts`).
        let rule = RouteRule::from_scales(cfg.scales);
        let (layout, plan) = self.layers.time("eval.rule", || {
            if edit.layout.route_rule() == &rule {
                (Arc::clone(&edit.layout), (*edit.plan).clone())
            } else {
                let mut l = Layout::clone(&edit.layout);
                l.set_route_rule(rule.clone());
                let mut p = (*edit.plan).clone();
                p.set_rule(tech, &rule);
                (Arc::new(l), p)
            }
        });
        let t0 = Instant::now();
        let routing = self.layers.time("route.phase_b", || {
            route::finalize_route(&layout, tech, plan)
        });
        self.phase_b_ms.push(ms_since(t0));
        let timing = self.layers.time("sta.incremental", || {
            // The engine's dirty-net bound: Phase-A patched nets plus both
            // sides' rip-up victims, valid only under the baseline rule.
            let dirty_nets = (layout.route_rule() == base.layout.route_rule()).then(|| {
                let mut v: Vec<NetId> = edit
                    .dirty
                    .iter()
                    .chain(routing.touched_nets())
                    .chain(base.routing.touched_nets())
                    .copied()
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            });
            sta::analyze_incremental(
                engine.graph(),
                &base.timing,
                &base.routing,
                &layout,
                &routing,
                tech,
                dirty_nets.as_deref(),
            )
        });
        let power = self.layers.time("power", || {
            power::analyze_with_model(&self.power_model, &layout, &routing, tech)
        });
        let drc = self.layers.time("drc", || routing.drc_violations(&layout));
        let security = self.layers.time("secmetrics.regions", || {
            analyze_regions(&layout, &routing, &timing, tech, THRESH_ER)
        });
        let snap = Snapshot {
            layout,
            routing,
            timing,
            power,
            drc,
            security,
        };
        let m = FlowMetrics::from_snapshot(&snap, base);
        self.memo.insert(key, m);
        m
    }
}

/// The from-scratch `FlowRun` path (no engine) — what a `harden` job runs
/// — with `route.full`, `sta.full` and the whole call (`flow.full`) timed.
pub fn full_flow(
    layers: &mut Layers,
    base: &Snapshot,
    tech: &Technology,
    cfg: &FlowConfig,
    seed: u64,
) -> FlowMetrics {
    let t0 = Instant::now();
    let mut scratch = Layers::default();
    let mut layout = apply_operator(
        &mut scratch,
        &base.layout,
        tech,
        cfg.op,
        operator_seed(cfg.op, seed),
    );
    rws::apply_width_scaling(&mut layout, cfg.scales);
    let layout = Arc::new(layout);
    let routing = layers.time("route.full", || route::route_design(&layout, tech));
    let timing = layers.time("sta.full", || sta::analyze(&layout, &routing, tech));
    let power = power::analyze(&layout, &routing, tech);
    let drc = routing.drc_violations(&layout);
    let security = analyze_regions(&layout, &routing, &timing, tech, THRESH_ER);
    let snap = Snapshot {
        layout,
        routing,
        timing,
        power,
        drc,
        security,
    };
    let m = FlowMetrics::from_snapshot(&snap, base);
    *layers.ms.entry("flow.full").or_default() += ms_since(t0);
    m
}

/// `implement_baseline` step by step: netlist generation, placement,
/// routing, STA, the remaining analyses, then the engine build.
pub fn setup(layers: &mut Layers, spec: &DesignSpec, tech: &Technology) -> (Snapshot, EvalEngine) {
    let design = layers.time("setup.generate", || netlist::bench::generate(spec, tech));
    let layout = layers.time("setup.place", || {
        let critical = design.critical_cells.clone();
        let mut layout = Layout::empty_floorplan(design, tech, spec.utilization);
        place::global_place(&mut layout, tech, spec.seed);
        place::refine_wirelength(&mut layout, tech, 4, spec.seed);
        place::bank_cells(&mut layout, tech, &critical, 0.85, spec.seed);
        for &c in &critical {
            layout.occupancy_mut().lock(c);
        }
        place::refine_wirelength(&mut layout, tech, 3, spec.seed ^ 0xBA2);
        for &c in &critical {
            layout.occupancy_mut().unlock(c);
        }
        Arc::new(layout)
    });
    let routing = layers.time("setup.route", || route::route_design(&layout, tech));
    let timing = layers.time("setup.sta", || sta::analyze(&layout, &routing, tech));
    let (power, drc, security) = layers.time("setup.analysis", || {
        (
            power::analyze(&layout, &routing, tech),
            routing.drc_violations(&layout),
            analyze_regions(&layout, &routing, &timing, tech, THRESH_ER),
        )
    });
    let snap = Snapshot {
        layout,
        routing,
        timing,
        power,
        drc,
        security,
    };
    let engine = layers.time("setup.engine", || EvalEngine::new(&snap, tech));
    (snap, engine)
}

/// The engine's evaluation order within one generation: `evaluate_all`
/// sorts its misses by the full chromosome.
pub fn evaluation_order(points: &[EvalPoint]) -> Vec<&EvalPoint> {
    let mut v: Vec<&EvalPoint> = points.iter().collect();
    v.sort_by_key(|p| {
        let g = p.genome;
        (p.generation, g.op, g.n_idx, g.iter_idx, g.scale_idx)
    });
    v
}

//! The composed GDSII-Guard security flow `f(L_base; x)` and its metric
//! extraction, over the Table-I parameter space.

use ggjson::{FromJson, Json, ToJson};
use tech::{Technology, NUM_METAL_LAYERS};

use crate::error::Error;
use crate::lda::{local_density_adjustment, LdaParams};
use crate::pipeline::{evaluate_unchecked, EvalEngine, Snapshot};
use crate::{cell_shift, preprocess, rws, ALPHA, BETA_POWER, N_DRC};

/// The selected ECO placement operator (`op_select` in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpSelect {
    /// Cell Shift — for designs with loose timing.
    CellShift,
    /// Dynamic Local Density Adjustment with its grid/iteration parameters.
    Lda {
        /// Grid tiles per row/column (`LDA::N`).
        n: u32,
        /// Adjustment iterations (`LDA::n_iter`).
        n_iter: u32,
    },
}

impl ToJson for OpSelect {
    fn to_json(&self) -> Json {
        match self {
            OpSelect::CellShift => Json::Str("CellShift".into()),
            OpSelect::Lda { n, n_iter } => Json::Obj(vec![(
                "Lda".into(),
                Json::Obj(vec![
                    ("n".into(), n.to_json()),
                    ("n_iter".into(), n_iter.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for OpSelect {
    fn from_json(j: &Json) -> Option<Self> {
        if j.as_str() == Some("CellShift") {
            return Some(OpSelect::CellShift);
        }
        let lda = j.get("Lda")?;
        Some(OpSelect::Lda {
            n: u32::from_json(lda.get("n")?)?,
            n_iter: u32::from_json(lda.get("n_iter")?)?,
        })
    }
}

/// One point of the flow parameter space `D` (a feature vector `x`).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// ECO placement operator choice.
    pub op: OpSelect,
    /// Routing width scale per metal layer (`RWS::scale_M[i]`,
    /// index 0 = M1).
    pub scales: [f64; NUM_METAL_LAYERS],
}

impl FlowConfig {
    /// The identity configuration: cell shift, no width scaling.
    pub fn cell_shift_default() -> Self {
        Self {
            op: OpSelect::CellShift,
            scales: [1.0; NUM_METAL_LAYERS],
        }
    }

    /// A default LDA configuration.
    pub fn lda_default() -> Self {
        Self {
            op: OpSelect::Lda { n: 8, n_iter: 1 },
            scales: [1.0; NUM_METAL_LAYERS],
        }
    }
}

ggjson::json_struct!(FlowConfig { op, scales });

/// Post-flow design metrics, the fitness inputs of the optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMetrics {
    /// Normalized security score vs the baseline (lower is better;
    /// baseline = 1.0).
    pub security: f64,
    /// Absolute free placement sites over exploitable regions.
    pub er_sites: u64,
    /// Absolute free routing tracks over exploitable regions.
    pub er_tracks: f64,
    /// Total negative slack in ps (0 is timing-clean).
    pub tns_ps: f64,
    /// Total power in mW.
    pub power_mw: f64,
    /// DRC violations.
    pub drc: u32,
}

impl FlowMetrics {
    /// Extracts metrics from a snapshot, normalizing security against the
    /// baseline snapshot.
    pub fn from_snapshot(snap: &Snapshot, base: &Snapshot) -> Self {
        Self {
            security: secmetrics::security_score(&snap.security, &base.security, ALPHA),
            er_sites: snap.security.er_sites,
            er_tracks: snap.security.er_tracks,
            tns_ps: snap.tns_ps(),
            power_mw: snap.power_mw(),
            drc: snap.drc,
        }
    }

    /// The effective DRC bound: the baseline's own count plus the `N_DRC`
    /// tolerance. On a DRC-clean baseline this is exactly the paper's
    /// `DRC ≤ N_DRC = 20`; on a baseline that already carries violations
    /// it expresses the same intent — "tolerate minor DRC degradation,
    /// which can further be manually fixed" (§IV-A).
    pub fn drc_limit(base_drc: u32) -> u32 {
        base_drc + N_DRC
    }

    /// Whether the hard constraints of §II-C hold, as enforced here:
    /// `DRC ≤ DRC_base + N_DRC` ([`Self::drc_limit`]) and
    /// `Power ≤ β_power · Power_base`.
    pub fn feasible(&self, base_power_mw: f64, base_drc: u32) -> bool {
        self.drc <= Self::drc_limit(base_drc) && self.power_mw <= BETA_POWER * base_power_mw
    }

    /// Aggregate constraint violation (0 when feasible); used for
    /// constrained domination in NSGA-II.
    pub fn constraint_violation(&self, base_power_mw: f64, base_drc: u32) -> f64 {
        let limit = Self::drc_limit(base_drc) as f64;
        let drc_cv = (self.drc as f64 - limit).max(0.0) / limit;
        let power_cv = (self.power_mw / (BETA_POWER * base_power_mw) - 1.0).max(0.0);
        drc_cv + power_cv
    }

    /// The two minimization objectives `(Security, −TNS)`.
    pub fn objectives(&self) -> [f64; 2] {
        [self.security, -self.tns_ps]
    }
}

ggjson::json_struct!(FlowMetrics {
    security,
    er_sites,
    er_tracks,
    tns_ps,
    power_mw,
    drc
});

/// Applies the ECO placement operator of `op` to a locked copy of the
/// baseline layout. The result depends only on `(op, seed)` — routing
/// width scales are installed afterwards and never feed the operator.
pub(crate) fn apply_operator(
    base: &Snapshot,
    tech: &Technology,
    op: OpSelect,
    seed: u64,
) -> layout::Layout {
    let mut layout = layout::Layout::clone(&base.layout);
    preprocess::lock_critical_cells(&mut layout);
    match op {
        OpSelect::CellShift => {
            cell_shift::cell_shift(&mut layout, tech, secmetrics::THRESH_ER);
        }
        OpSelect::Lda { n, n_iter } => {
            local_density_adjustment(&mut layout, tech, LdaParams { n, n_iter }, seed);
        }
    }
    layout
}

/// Applies the ECO operators of `cfg` to the baseline layout without
/// evaluating: the edit step of the from-scratch [`FlowRun`] path.
fn edit_layout(base: &Snapshot, tech: &Technology, cfg: &FlowConfig, seed: u64) -> layout::Layout {
    let mut layout = apply_operator(base, tech, cfg.op, seed);
    rws::apply_width_scaling(&mut layout, cfg.scales);
    layout
}

/// The full flow from the base snapshot: edit, re-route, full metric
/// extraction. Infallible: the operators preserve layout consistency by
/// construction (asserted in debug builds), so this goes through
/// [`evaluate_unchecked`] and skips the redundant validation pass.
fn oracle_snapshot(base: &Snapshot, tech: &Technology, cfg: &FlowConfig, seed: u64) -> Snapshot {
    evaluate_unchecked(edit_layout(base, tech, cfg, seed), tech)
}

/// One configured execution of the composed security flow `f(L_base; x)`.
///
/// `FlowRun` is the single entry point of the flow: pick the *source*
/// (the from-scratch oracle via [`FlowRun::new`], or the incremental path
/// via [`FlowRun::engine`]), tune the run with [`seed`](FlowRun::seed),
/// and finish with a terminal — [`snapshot`](FlowRun::snapshot) for the
/// full evaluated layout or [`metrics`](FlowRun::metrics) for the fitness
/// vector.
///
/// ```no_run
/// use gdsii_guard::prelude::*;
/// use tech::Technology;
/// # fn main() -> Result<(), gdsii_guard::Error> {
/// let tech = Technology::nangate45_like();
/// let base = implement_baseline(&netlist::bench::tiny_spec(), &tech)?;
/// let cfg = FlowConfig::cell_shift_default();
///
/// // From-scratch oracle evaluation.
/// let m = FlowRun::new(&base, &tech, &cfg).seed(7).metrics()?;
///
/// // Incremental evaluation through a shared engine.
/// let engine = EvalEngine::new(&base, &tech);
/// let inc = FlowRun::new(&base, &tech, &cfg)
///     .seed(7)
///     .engine(&engine)
///     .metrics()?;
/// assert_eq!(m, inc);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
#[must_use = "a FlowRun does nothing until `.snapshot()` or `.metrics()` runs it"]
pub struct FlowRun<'a> {
    base: &'a Snapshot,
    engine: Option<&'a EvalEngine>,
    tech: &'a Technology,
    cfg: &'a FlowConfig,
    seed: u64,
}

impl<'a> FlowRun<'a> {
    /// Starts a flow run of `cfg` against the baseline snapshot, using the
    /// from-scratch oracle path (every stage recomputed). The default seed
    /// is 1, matching the historical convention of the examples and tests.
    pub fn new(base: &'a Snapshot, tech: &'a Technology, cfg: &'a FlowConfig) -> Self {
        Self {
            base,
            engine: None,
            tech,
            cfg,
            seed: 1,
        }
    }

    /// Sets the seed of the flow's internal RNG (feeds the ECO placement
    /// operator; Cell Shift is deterministic and ignores it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes the run through a prebuilt [`EvalEngine`]: evaluation
    /// becomes incremental against the engine's cached baseline, operator
    /// edits and metrics are memoized, and results stay bit-identical to
    /// the oracle path. The engine must have been built from the same
    /// baseline passed to [`FlowRun::new`] — metrics are normalized
    /// against [`EvalEngine::base`].
    pub fn engine(mut self, engine: &'a EvalEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Runs the flow and returns the fully evaluated [`Snapshot`].
    ///
    /// # Errors
    ///
    /// Only the engine path can fail (poisoned operator-edit cache); the
    /// oracle path always returns `Ok`.
    pub fn snapshot(self) -> Result<Snapshot, Error> {
        match self.engine {
            Some(engine) => engine.snapshot(self.tech, self.cfg, self.seed),
            None => Ok(oracle_snapshot(self.base, self.tech, self.cfg, self.seed)),
        }
    }

    /// Runs the flow and returns its [`FlowMetrics`], normalized against
    /// the baseline.
    ///
    /// # Errors
    ///
    /// Only the engine path can fail (poisoned operator-edit cache); the
    /// oracle path always returns `Ok`.
    pub fn metrics(self) -> Result<FlowMetrics, Error> {
        match self.engine {
            Some(engine) => engine.metrics(self.tech, self.cfg, self.seed),
            None => {
                let snap = oracle_snapshot(self.base, self.tech, self.cfg, self.seed);
                Ok(FlowMetrics::from_snapshot(&snap, self.base))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::implement_baseline;
    use netlist::bench;

    fn base() -> (Technology, Snapshot) {
        let tech = Technology::nangate45_like();
        let snap = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        (tech, snap)
    }

    #[test]
    fn cell_shift_flow_improves_security() {
        let (tech, base) = base();
        let m = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
            .metrics()
            .unwrap();
        assert!(
            m.security < 0.5,
            "cell shift should cut exploitable space sharply, got {}",
            m.security
        );
        assert!(m.er_sites < base.security.er_sites);
    }

    #[test]
    fn lda_flow_improves_security_on_tight_designs() {
        // LDA targets timing-tight designs, where exploitable distances are
        // short and local density matters (§III-B2); on loose designs the
        // whole core is within reach and relocation cannot help.
        let tech = Technology::nangate45_like();
        let mut spec = bench::tiny_spec();
        spec.period_factor = 0.95;
        let base = crate::pipeline::evaluate(
            {
                let design = netlist::bench::generate(&spec, &tech);
                let mut layout = layout::Layout::empty_floorplan(design, &tech, 0.6);
                place::global_place(&mut layout, &tech, spec.seed);
                place::refine_wirelength(&mut layout, &tech, 2, spec.seed);
                layout
            },
            &tech,
        )
        .unwrap();
        let m = FlowRun::new(&base, &tech, &FlowConfig::lda_default())
            .metrics()
            .unwrap();
        assert!(
            m.security < 1.0,
            "LDA should reduce exploitable space, got {}",
            m.security
        );
    }

    #[test]
    fn width_scaling_cuts_tracks_beyond_sites() {
        let (tech, base) = base();
        let mut cfg = FlowConfig::cell_shift_default();
        let plain = FlowRun::new(&base, &tech, &cfg).metrics().unwrap();
        cfg.scales = [1.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5];
        let scaled = FlowRun::new(&base, &tech, &cfg).metrics().unwrap();
        // Same placement operator; the track metric must drop further
        // relative to sites when wires widen (or both are already zero).
        let plain_ratio = if plain.er_sites > 0 {
            plain.er_tracks / plain.er_sites as f64
        } else {
            0.0
        };
        let scaled_ratio = if scaled.er_sites > 0 {
            scaled.er_tracks / scaled.er_sites as f64
        } else {
            0.0
        };
        assert!(
            scaled_ratio <= plain_ratio + 1e-9,
            "scaled {scaled_ratio} vs plain {plain_ratio}"
        );
    }

    #[test]
    fn constraints_and_objectives() {
        let m = FlowMetrics {
            security: 0.1,
            er_sites: 10,
            er_tracks: 20.0,
            tns_ps: -50.0,
            power_mw: 1.0,
            drc: 25,
        };
        assert!(!m.feasible(1.0, 0), "DRC over budget");
        assert!(m.constraint_violation(1.0, 0) > 0.0);
        let ok = FlowMetrics { drc: 5, ..m };
        assert!(ok.feasible(1.0, 0));
        // The DRC bound tracks a noisier baseline: base 30 admits 25.
        assert!(m.feasible(1.0, 30), "baseline at 30 DRC admits 25");
        // The bound is base + N_DRC = 50, not max(N_DRC, base) = 30.
        let drc45 = FlowMetrics { drc: 45, ..m };
        assert!(drc45.feasible(1.0, 30), "baseline at 30 DRC admits 45");
        assert_eq!(FlowMetrics::drc_limit(0), crate::N_DRC);
        assert_eq!(ok.constraint_violation(1.0, 0), 0.0);
        assert_eq!(ok.objectives(), [0.1, 50.0]);
    }

    #[test]
    fn incremental_flow_matches_oracle() {
        let (tech, base) = base();
        let engine = EvalEngine::new(&base, &tech);
        let mut scaled = FlowConfig::cell_shift_default();
        scaled.scales = [1.0, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2];
        for cfg in [
            FlowConfig::cell_shift_default(),
            FlowConfig::lda_default(),
            scaled,
        ] {
            let full = FlowRun::new(&base, &tech, &cfg).seed(7).metrics().unwrap();
            let inc = FlowRun::new(&base, &tech, &cfg)
                .seed(7)
                .engine(&engine)
                .metrics()
                .unwrap();
            assert_eq!(full, inc, "incremental diverged on {cfg:?}");
        }
    }

    #[test]
    fn flow_leaves_baseline_untouched() {
        let (tech, base) = base();
        let before = base.security.er_sites;
        let _ = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default())
            .metrics()
            .unwrap();
        assert_eq!(base.security.er_sites, before);
        base.layout.check_consistency(&tech).unwrap();
    }
}

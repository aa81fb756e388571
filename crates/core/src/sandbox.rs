//! Sandboxed candidate evaluation with a degrade chain.
//!
//! One poisoned candidate — a router overflow spiral, an STA divergence, a
//! panic in an operator, or an injected fault from `crates/faults` — must
//! never sink a generation of the exploratory loop. Every candidate
//! evaluation therefore runs inside [`catch_unwind`] with an optional
//! cooperative wall-clock deadline, and a failure walks a *degrade chain*:
//!
//! 1. **Incremental eval** (stage 0): the normal engine-backed
//!    [`crate::flow::FlowRun`] path through the [`EvalEngine`].
//! 2. **Full re-eval** (stage 1): an oracle [`crate::flow::FlowRun`] from
//!    the base snapshot, bypassing every engine cache. By the incremental ==
//!    full equivalence property, a recovered candidate's metrics are
//!    bit-identical to what the healthy incremental path would have
//!    produced, so a stage-0-only fault leaves the Pareto front unchanged.
//! 3. **Penalty + quarantine** (stage 2): the candidate receives
//!    [`penalty_metrics`] — finite, infeasible-by-construction objectives
//!    that constrained domination ranks behind every genuine point — and
//!    is recorded in the quarantine ledger.
//!
//! Determinism: fault triggers are keyed on `(genome, seed)` through the
//! `faults` evaluation context, never on wall time, so replay/test runs
//! quarantine the exact same candidates at any thread count. Deadlines
//! ([`SandboxPolicy::deadline`]) are inherently wall-clock and excluded
//! from the bit-identity guarantees.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use tech::Technology;

use crate::error::Error;
use crate::flow::{FlowConfig, FlowMetrics};
use crate::nsga2::Genome;
use crate::pipeline::EvalEngine;

/// Why a sandboxed evaluation stage failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalFailure {
    /// The stage panicked with an ordinary (non-injected) payload.
    Panicked {
        /// The panic message, when it was a `&str`/`String` payload.
        message: String,
    },
    /// An armed `faults` injection point fired.
    Injected {
        /// The injection-point name (e.g. `route.overflow`).
        point: String,
    },
    /// The cooperative per-candidate deadline expired.
    DeadlineExceeded {
        /// The configured budget in milliseconds.
        budget_ms: u64,
    },
    /// The stage returned a typed [`Error`] instead of unwinding.
    Error(String),
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalFailure::Panicked { message } => write!(f, "panicked: {message}"),
            EvalFailure::Injected { point } => write!(f, "injected fault at {point}"),
            EvalFailure::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms} ms budget)")
            }
            EvalFailure::Error(e) => write!(f, "error: {e}"),
        }
    }
}

/// How a candidate came out of the degrade chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalStatus {
    /// Stage 0 succeeded.
    Ok,
    /// Stage 0 failed, the full re-eval recovered.
    Degraded(EvalFailure),
    /// Both stages failed; the candidate carries penalty metrics.
    Quarantined {
        /// The stage-0 (incremental) failure.
        incremental: EvalFailure,
        /// The stage-1 (full re-eval) failure.
        full: EvalFailure,
    },
}

/// Per-candidate evaluation policy: the deadline each stage gets, if any.
#[derive(Debug, Clone, Copy, Default)]
pub struct SandboxPolicy {
    /// Cooperative wall-clock budget per degrade-chain stage (a job
    /// server's [`crate::serve::ServerConfig::eval_deadline`]); `None`
    /// disables deadline checks, and zero trips at the first checkpoint.
    pub deadline: Option<Duration>,
}

/// Classifies a caught unwind payload.
pub(crate) fn classify(payload: Box<dyn std::any::Any + Send>) -> EvalFailure {
    if let Some(fault) = faults::payload_of(&*payload) {
        return match fault {
            faults::FaultPayload::Injected { point } => EvalFailure::Injected {
                point: point.to_string(),
            },
            faults::FaultPayload::DeadlineExceeded { budget_ms } => {
                EvalFailure::DeadlineExceeded { budget_ms }
            }
        };
    }
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    EvalFailure::Panicked { message }
}

/// Runs one closure under `catch_unwind` with the faults context and
/// optional deadline armed, suppressing the default panic-hook spew for
/// unwinds we are going to catch and classify anyway.
fn run_stage(
    generation: u64,
    candidate: u64,
    key: u64,
    stage: u8,
    policy: &SandboxPolicy,
    body: impl FnOnce() -> Result<FlowMetrics, Error>,
) -> Result<FlowMetrics, EvalFailure> {
    install_quiet_hook();
    let outcome = {
        let _ctx = faults::push_context(generation, candidate, key, stage);
        let _dl = policy.deadline.map(faults::set_deadline);
        let _quiet = QuietGuard::enter();
        catch_unwind(AssertUnwindSafe(body))
    };
    match outcome {
        Ok(Ok(m)) => Ok(m),
        Ok(Err(e)) => Err(EvalFailure::Error(e.to_string())),
        Err(payload) => Err(classify(payload)),
    }
}

/// The deterministic key probabilistic fault triggers hash: the full
/// chromosome plus the flow seed, independent of thread scheduling.
pub fn candidate_key(genome: &Genome) -> u64 {
    let mut k = faults::splitmix64(genome.flow_seed());
    k ^= faults::splitmix64(
        (u64::from(genome.op) << 16) | (u64::from(genome.n_idx) << 8) | u64::from(genome.iter_idx),
    );
    for (i, &s) in genome.scale_idx.iter().enumerate() {
        k = faults::splitmix64(k ^ (u64::from(s) << (i % 8)));
    }
    k
}

/// Sandboxed evaluation of one candidate through the degrade chain.
///
/// Never unwinds: every failure mode is converted into an [`EvalStatus`]
/// and, in the worst case, [`penalty_metrics`].
pub fn evaluate_candidate(
    engine: &EvalEngine,
    tech: &Technology,
    genome: &Genome,
    generation: usize,
    candidate: usize,
    policy: &SandboxPolicy,
) -> (FlowMetrics, EvalStatus) {
    faults::ensure_init();
    let cfg: FlowConfig = genome.to_config();
    let seed = genome.flow_seed();
    let key = candidate_key(genome);
    let (generation, candidate) = (generation as u64, candidate as u64);

    // Stage 0: incremental eval through the engine.
    let incremental = run_stage(generation, candidate, key, 0, policy, || {
        crate::flow::FlowRun::new(engine.base(), tech, &cfg)
            .engine(engine)
            .seed(seed)
            .metrics()
    });
    let first = match incremental {
        Ok(m) => return (m, EvalStatus::Ok),
        Err(f) => f,
    };

    // Stage 1: full re-eval from the base snapshot, bypassing every engine
    // cache (a poisoned memo or a stage-0-only fault cannot reach it).
    let full = run_stage(generation, candidate, key, 1, policy, || {
        crate::flow::FlowRun::new(engine.base(), tech, &cfg)
            .seed(seed)
            .metrics()
    });
    match full {
        Ok(m) => (m, EvalStatus::Degraded(first)),
        Err(second) => (
            penalty_metrics(),
            EvalStatus::Quarantined {
                incremental: first,
                full: second,
            },
        ),
    }
}

/// Metrics assigned to a quarantined candidate: finite (crowding distance
/// divides by objective spans, so no infinities), but infeasible by
/// construction — the DRC count alone exceeds any reachable
/// `drc_limit`, and every objective is orders of magnitude worse than a
/// genuine evaluation — so constrained domination ranks the candidate
/// behind every real point and [`crate::ExploreResult::pareto_front`]
/// (which filters on feasibility) can never surface it.
pub fn penalty_metrics() -> FlowMetrics {
    FlowMetrics {
        security: 1e6,
        er_sites: 1 << 40,
        er_tracks: 1e12,
        tns_ps: -1e12,
        power_mw: 1e12,
        drc: u32::MAX,
    }
}

// ---------------------------------------------------------------------------
// Quiet panic hook
// ---------------------------------------------------------------------------
//
// `catch_unwind` runs the global panic hook before unwinding, which would
// print one backtrace-sized stderr blob per injected fault. The hook is
// swapped once for a wrapper that stays silent while the current thread is
// inside a sandbox stage and defers to the previous hook everywhere else,
// so genuine panics on other threads keep their diagnostics.

use std::cell::Cell;
use std::sync::Once;

thread_local! {
    static IN_SANDBOX: Cell<bool> = const { Cell::new(false) };
}

struct QuietGuard {
    prev: bool,
}

impl QuietGuard {
    fn enter() -> Self {
        Self {
            prev: IN_SANDBOX.with(|f| f.replace(true)),
        }
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        IN_SANDBOX.with(|f| f.set(self.prev));
    }
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SANDBOX.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BETA_POWER, N_DRC};

    #[test]
    fn penalty_metrics_are_finite_and_infeasible() {
        let m = penalty_metrics();
        for o in m.objectives() {
            assert!(o.is_finite());
        }
        // Infeasible against any plausible baseline.
        assert!(!m.feasible(1e9, u32::MAX - N_DRC - 1));
        assert!(m.constraint_violation(1.0, 0) > 0.0);
        assert!(m.power_mw > BETA_POWER * 1e9);
    }

    #[test]
    fn eval_failure_renders() {
        let f = EvalFailure::Injected {
            point: "route.overflow".into(),
        };
        assert!(f.to_string().contains("route.overflow"));
        let d = EvalFailure::DeadlineExceeded { budget_ms: 250 };
        assert!(d.to_string().contains("250"));
    }

    #[test]
    fn candidate_key_separates_genomes() {
        let mut a = Genome {
            op: 0,
            n_idx: 0,
            iter_idx: 0,
            scale_idx: [0; tech::NUM_METAL_LAYERS],
        };
        let b = a;
        assert_eq!(candidate_key(&a), candidate_key(&b));
        // flow_seed collides across scale-only siblings; the key must not.
        a.scale_idx[3] = 2;
        assert_eq!(a.flow_seed(), b.flow_seed());
        assert_ne!(candidate_key(&a), candidate_key(&b));
    }
}

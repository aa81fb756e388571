//! The job model of the exploration service: versioned job specs, the
//! lifecycle state machine, and the per-job event stream.

use ggjson::{FromJson, Json, ToJson};

use crate::pipeline::Snapshot;

/// Job-spec format version, accepted by [`crate::serve::Server`] submits.
///
/// Versioned alongside the checkpoint envelope
/// ([`crate::checkpoint::FORMAT_VERSION`]): a job's pause/resume state is
/// persisted as checkpoint envelopes, so a spec-version bump that changes
/// how jobs are stepped must be accompanied by (or at least audited
/// against) the checkpoint format. A submit carrying a different version
/// is refused with a typed error instead of being misinterpreted.
///
/// History: v2 added the `dedup` idempotency token (`ggjson` structs
/// require every key on the wire, so adding a field is a breaking wire
/// change even when semantically optional).
pub const JOB_SPEC_VERSION: u32 = 2;

/// Largest explore population a spec may ask for. NSGA-II reserves a
/// population-sized vector up front, so an absurd population aborts the
/// whole daemon on allocation failure, which no step sandbox can catch.
const MAX_POPULATION: usize = 10_000;

/// What a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// NSGA-II Pareto exploration, generation-stepped and pausable.
    Explore,
    /// One flow config applied and evaluated (optionally exported as
    /// GDSII server-side).
    Harden,
    /// Baseline implementation and metrics only.
    Analyze,
}

impl JobKind {
    /// Wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Explore => "explore",
            JobKind::Harden => "harden",
            JobKind::Analyze => "analyze",
        }
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "explore" => Some(JobKind::Explore),
            "harden" => Some(JobKind::Harden),
            "analyze" => Some(JobKind::Analyze),
            _ => None,
        }
    }
}

impl ToJson for JobKind {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_owned())
    }
}

impl FromJson for JobKind {
    fn from_json(j: &Json) -> Option<Self> {
        JobKind::from_name(j.as_str()?)
    }
}

/// One queued unit of work, as submitted over the wire.
///
/// Construct with [`JobSpec::explore`] / [`JobSpec::harden`] /
/// [`JobSpec::analyze`] and override fields as needed; the defaults
/// mirror the historical `ggd` one-shot CLI (population 10, 3
/// generations, the NSGA-II builder seed).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Spec format version; must equal [`JOB_SPEC_VERSION`].
    pub version: u32,
    /// What to run.
    pub kind: JobKind,
    /// Benchmark design name (`netlist::bench` spec, or `TINY`).
    pub design: String,
    /// Scheduling priority: higher runs first; FIFO within a priority.
    pub priority: u8,
    /// NSGA-II population (explore only).
    pub population: usize,
    /// NSGA-II generations after the initial population (explore only).
    pub generations: usize,
    /// Exploration RNG seed (explore only).
    pub seed: u64,
    /// Evaluation worker threads per scheduler step; 0 = auto.
    pub threads: usize,
    /// Harden operator: `cs` or `lda` (harden only; ignored otherwise).
    pub op: String,
    /// Server-side output path: exported GDSII for harden, Pareto-front
    /// JSON for explore.
    pub out: Option<String>,
    /// Explicit checkpoint path; `None` uses a per-job file under the
    /// server's data directory.
    pub checkpoint: Option<String>,
    /// Resume from `checkpoint` if it already holds a compatible run.
    pub resume: bool,
    /// Idempotency token: a resubmit carrying a token the server has
    /// already seen returns the existing job's id instead of queueing a
    /// duplicate, making client-side submit retries safe. Tokens survive
    /// restarts via the job journal. `None` disables deduplication.
    pub dedup: Option<String>,
}

ggjson::json_struct!(JobSpec {
    version,
    kind,
    design,
    priority,
    population,
    generations,
    seed,
    threads,
    op,
    out,
    checkpoint,
    resume,
    dedup
});

impl JobSpec {
    fn base(kind: JobKind, design: &str) -> Self {
        Self {
            version: JOB_SPEC_VERSION,
            kind,
            design: design.to_owned(),
            priority: 0,
            population: 10,
            generations: 3,
            seed: crate::nsga2::Nsga2Params::builder().build().seed,
            threads: 0,
            op: String::new(),
            out: None,
            checkpoint: None,
            resume: false,
            dedup: None,
        }
    }

    /// An exploration job over `design` with the historical CLI defaults.
    pub fn explore(design: &str) -> Self {
        Self::base(JobKind::Explore, design)
    }

    /// A harden job applying operator `op` (`cs` or `lda`) to `design`.
    pub fn harden(design: &str, op: &str) -> Self {
        Self {
            op: op.to_owned(),
            ..Self::base(JobKind::Harden, design)
        }
    }

    /// A baseline-metrics job over `design`.
    pub fn analyze(design: &str) -> Self {
        Self::base(JobKind::Analyze, design)
    }

    /// Structural validation a server performs before queueing and again
    /// before running a step: version match, non-empty design, a known
    /// harden operator, and a population between 1 and a fixed bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != JOB_SPEC_VERSION {
            return Err(format!(
                "job-spec version {} (this server speaks {JOB_SPEC_VERSION})",
                self.version
            ));
        }
        if self.design.is_empty() {
            return Err("job spec names no design".into());
        }
        if self.kind == JobKind::Harden && !matches!(self.op.as_str(), "cs" | "lda") {
            return Err(format!(
                "unknown harden operator '{}' (expected cs or lda)",
                self.op
            ));
        }
        if self.kind == JobKind::Explore && self.population == 0 {
            return Err("explore population must be at least 1".into());
        }
        if self.kind == JobKind::Explore && self.population > MAX_POPULATION {
            return Err(format!(
                "explore population {} exceeds the limit of {MAX_POPULATION}",
                self.population
            ));
        }
        Ok(())
    }
}

/// Job lifecycle states.
///
/// ```text
/// queued → running → done | failed
///    ↑        ↓ (generation boundary)
///    └───── paused           any non-terminal → cancelled
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a runner slot.
    Queued,
    /// A runner is executing a scheduler step of this job.
    Running,
    /// Parked at a generation boundary; resume re-queues it.
    Paused,
    /// Completed; the result payload is available.
    Done,
    /// A step failed; the diagnostic is recorded.
    Failed,
    /// Cancelled while queued, paused, or at a generation boundary.
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state admits no further transitions.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl ToJson for JobState {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_owned())
    }
}

impl FromJson for JobState {
    fn from_json(j: &Json) -> Option<Self> {
        match j.as_str()? {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "paused" => Some(JobState::Paused),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }
}

/// One entry of a job's event stream, as delivered by `watch`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// Position in this job's stream (0-based, contiguous).
    pub seq: u64,
    /// Server-global monotone ordering tick across *all* jobs — two
    /// events' ticks order them even across different jobs.
    pub tick: u64,
    /// Event kind: `queued`, `started`, `baseline`, `generation`,
    /// `paused`, `resumed`, `done`, `failed`, `cancelled`.
    pub kind: String,
    /// Completed generation index for `generation` events.
    pub generation: Option<u64>,
    /// Kind-specific payload (progress counters, Pareto-front deltas,
    /// obs snapshots, baseline summaries, diagnostics).
    pub data: Json,
}

ggjson::json_struct!(JobEvent {
    seq,
    tick,
    kind,
    generation,
    data
});

/// A point-in-time view of one job, as returned by `status` and `jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Lifecycle state (wire name).
    pub state: JobState,
    /// Job kind.
    pub kind: JobKind,
    /// Design name.
    pub design: String,
    /// Scheduling priority.
    pub priority: u8,
    /// Completed scheduler steps (for explore: completed generations,
    /// counting the initial population as step 1).
    pub steps_done: u64,
    /// Total scheduler steps the job will run.
    pub steps_total: u64,
    /// Events emitted so far (the `from` cursor for `watch`).
    pub events: u64,
    /// The failure diagnostic, for `failed` jobs.
    pub error: Option<String>,
}

ggjson::json_struct!(JobStatus {
    id,
    state,
    kind,
    design,
    priority,
    steps_done,
    steps_total,
    events,
    error
});

/// The baseline headline metrics of a design, as printed by `ggd` and
/// attached to each job's `baseline` event.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// Placed cells.
    pub cells: u64,
    /// Free placement sites over exploitable regions.
    pub er_sites: u64,
    /// Exploitable regions.
    pub regions: u64,
    /// Free routing tracks over exploitable regions.
    pub er_tracks: f64,
    /// Total negative slack, ps.
    pub tns_ps: f64,
    /// Worst negative slack, ps.
    pub wns_ps: f64,
    /// Total power, mW.
    pub power_mw: f64,
    /// DRC violations.
    pub drc: u32,
    /// Core utilization in [0, 1].
    pub utilization: f64,
}

ggjson::json_struct!(BaselineSummary {
    cells,
    er_sites,
    regions,
    er_tracks,
    tns_ps,
    wns_ps,
    power_mw,
    drc,
    utilization
});

impl BaselineSummary {
    /// Extracts the summary from an evaluated snapshot.
    pub fn from_snapshot(s: &Snapshot) -> Self {
        Self {
            cells: s.layout.design().cells.len() as u64,
            er_sites: s.security.er_sites,
            regions: s.security.regions.len() as u64,
            er_tracks: s.security.er_tracks,
            tns_ps: s.tns_ps(),
            wns_ps: s.timing.wns_ps(),
            power_mw: s.power_mw(),
            drc: s.drc,
            utilization: s.layout.utilization(),
        }
    }

    /// Renders the two-line human summary `ggd` has always printed.
    pub fn render(&self, label: &str) -> String {
        format!(
            "{label}: {} cells, {} exploitable sites in {} regions, {:.0} free tracks\n  \
             TNS {:.1} ps (WNS {:.1}), power {:.3} mW, {} DRC violations, utilization {:.1} %",
            self.cells,
            self.er_sites,
            self.regions,
            self.er_tracks,
            self.tns_ps,
            self.wns_ps,
            self.power_mw,
            self.drc,
            self.utilization * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_validates() {
        let mut spec = JobSpec::explore("TINY");
        spec.population = 6;
        spec.generations = 2;
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
        assert_eq!(spec.validate(), Ok(()));

        let mut wrong = spec.clone();
        wrong.version = 99;
        assert!(wrong.validate().is_err());
        let mut bad_op = JobSpec::harden("TINY", "nope");
        assert!(bad_op.validate().is_err());
        bad_op.op = "lda".into();
        assert_eq!(bad_op.validate(), Ok(()));
    }

    #[test]
    fn states_classify_terminals() {
        for s in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            assert!(s.is_terminal());
            assert_eq!(JobState::from_json(&s.to_json()), Some(s));
        }
        for s in [JobState::Queued, JobState::Running, JobState::Paused] {
            assert!(!s.is_terminal());
            assert_eq!(JobState::from_json(&s.to_json()), Some(s));
        }
    }

    #[test]
    fn event_round_trips() {
        let e = JobEvent {
            seq: 3,
            tick: 17,
            kind: "generation".into(),
            generation: Some(2),
            data: Json::Obj(vec![("points".into(), Json::Num(12.0))]),
        };
        assert_eq!(JobEvent::from_json(&e.to_json()), Some(e));
    }
}

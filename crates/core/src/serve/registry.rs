//! The job registry: queue, lifecycle state machine, and event streams.
//!
//! One mutex guards all scheduling state; a condvar wakes runner threads
//! when work arrives and `watch` readers when events land. Scheduling
//! order is **priority descending, then submit order ascending** —
//! strict priorities with FIFO inside each class. Runners claim one
//! *scheduler step* at a time (one generation of an explore job, or the
//! whole of an analyze/harden job), so a high-priority submit preempts a
//! long-running low-priority explore at its next generation boundary
//! without killing it.
//!
//! Every durable lifecycle transition is a [`JournalRecord`], and
//! `Inner::apply` is the one function that turns a record into job
//! state. The live methods decide *which* transition happens and then
//! `commit` it: append to the [`Journal`] (when constructed
//! [`Registry::with_journal`]), apply, and only then publish the event —
//! write-ahead ordering, so a watcher can never observe a transition the
//! journal might forget. On restart, [`Registry::recover`] applies the
//! replayed records through the same function, so recovered state cannot
//! drift from live state: non-terminal jobs re-enter the queue with their
//! original submit-order tickets (priority/FIFO order preserved), terminal
//! jobs come back queryable with their results. Only what a restart may
//! lose stays outside the journal: the running mark of a claimed step,
//! pause/cancel requests against a running job, and the `resumed` event
//! a resumed job emits when it is next claimed.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use ggjson::Json;

use crate::serve::job::{JobEvent, JobKind, JobSpec, JobState, JobStatus};
use crate::serve::journal::{Journal, JournalRecord};

/// Everything the registry tracks about one job.
pub(crate) struct Job {
    pub spec: JobSpec,
    pub state: JobState,
    /// Submit-order tiebreaker inside a priority class.
    pub seq: u64,
    /// Next scheduler step to run (for explore: the generation the step
    /// runs the job's exploration up to).
    pub next_step: u64,
    /// Total scheduler steps this job runs.
    pub total_steps: u64,
    pub pause_requested: bool,
    pub cancel_requested: bool,
    /// Set by `resume`; the next claim emits a `resumed` event.
    pub resumed_pending: bool,
    pub events: Vec<JobEvent>,
    pub result: Option<Json>,
    pub error: Option<String>,
    /// Checkpoint envelope backing pause/resume for this job.
    pub checkpoint: PathBuf,
}

impl Job {
    /// A freshly queued job that has run no step yet.
    fn new(spec: JobSpec, seq: u64, checkpoint: PathBuf) -> Self {
        let total_steps = match spec.kind {
            // Steps 0..=generations: the initial population counts as one.
            JobKind::Explore => spec.generations as u64 + 1,
            _ => 1,
        };
        Self {
            spec,
            state: JobState::Queued,
            seq,
            next_step: 0,
            total_steps,
            pause_requested: false,
            cancel_requested: false,
            resumed_pending: false,
            events: Vec::new(),
            result: None,
            error: None,
            checkpoint,
        }
    }
}

/// What a runner's completed step did to its job.
pub(crate) enum StepOutcome {
    /// One generation finished; the job stays alive. The payload becomes
    /// a `generation` event.
    Progress { generation: u64, data: Json },
    /// The job produced its final result. `data` becomes the `done`
    /// event payload (the full result is fetched via `result`).
    Finished {
        generation: Option<u64>,
        data: Json,
        result: Json,
    },
    /// The step failed; the job is dead.
    Failed { error: String },
}

/// What `claim_next` handed out.
pub(crate) enum Claim {
    /// Run one step of this job.
    Step(u64),
    /// Nothing runnable right now.
    Idle,
    /// The registry is shutting down; the runner should exit.
    Shutdown,
}

/// What [`Registry::recover`] found in the journal.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecoveryStats {
    /// Jobs reconstructed from the journal.
    pub jobs: u64,
    /// Non-terminal jobs re-queued for execution.
    pub requeued: u64,
    /// Terminal jobs restored for `status`/`result` queries.
    pub finished: u64,
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    next_seq: u64,
    /// Server-global event tick (total order across all jobs).
    next_tick: u64,
    /// Idempotency tokens already seen, mapped to their job ids
    /// (rebuilt from `submitted` records on recovery).
    dedup: HashMap<String, u64>,
    shutdown: bool,
}

impl Inner {
    fn push_event(&mut self, id: u64, kind: &str, generation: Option<u64>, data: Json) {
        let tick = self.next_tick;
        if let Some(job) = self.jobs.get_mut(&id) {
            self.next_tick += 1;
            job.events.push(JobEvent {
                seq: job.events.len() as u64,
                tick,
                kind: kind.to_owned(),
                generation,
                data,
            });
        }
    }

    /// Applies one journaled transition to the job state — the only
    /// place a [`JournalRecord`] becomes state, shared by the live path
    /// ([`Registry::commit`]) and by [`Registry::recover`].
    ///
    /// A `submitted` record (re)creates its job, overwriting any earlier
    /// copy: a compaction snapshot may repeat a job an older segment
    /// already introduced. Records for unknown jobs are ignored.
    fn apply(&mut self, rec: &JournalRecord) {
        let id = rec.job;
        if rec.kind == "submitted" {
            let Some(spec) = rec.spec.clone() else { return };
            if let Some(tok) = &spec.dedup {
                self.dedup.insert(tok.clone(), id);
            }
            self.next_id = self.next_id.max(id.saturating_add(1));
            self.next_seq = self.next_seq.max(rec.seq.saturating_add(1));
            let checkpoint = PathBuf::from(rec.checkpoint.clone().unwrap_or_default());
            self.jobs.insert(id, Job::new(spec, rec.seq, checkpoint));
            return;
        }
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        match rec.kind.as_str() {
            "started" => job.state = JobState::Running,
            "generation" => {
                // A completed step hands the job back to the queue.
                if job.state == JobState::Running {
                    job.state = JobState::Queued;
                }
                if let Some(g) = rec.generation {
                    job.next_step = g.saturating_add(1);
                }
            }
            "paused" => job.state = JobState::Paused,
            "resumed" => {
                job.state = JobState::Queued;
                job.seq = rec.seq;
                self.next_seq = self.next_seq.max(rec.seq.saturating_add(1));
            }
            "cancelled" => job.state = JobState::Cancelled,
            "done" => {
                job.state = JobState::Done;
                job.result = rec.result.clone();
                job.next_step = job.total_steps;
            }
            "failed" => {
                job.state = JobState::Failed;
                job.error = rec.error.clone();
            }
            other => obs::diagln!("journal: ignoring unknown record kind '{other}'"),
        }
    }
}

pub(crate) struct Registry {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// Write-ahead journal; `None` runs the registry volatile (tests,
    /// `--no-journal`).
    journal: Option<Arc<Journal>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::with_journal(None)
    }

    /// A registry whose transitions are journaled before publication.
    pub fn with_journal(journal: Option<Arc<Journal>>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                next_id: 1,
                next_seq: 0,
                next_tick: 0,
                dedup: HashMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            journal,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Commits one transition, in write-ahead order: journal it (no-op
    /// without a journal), apply it, then publish `event` (kind,
    /// generation, payload). Called while holding the registry lock —
    /// the journal has its own mutex and never takes ours, so the
    /// ordering is deadlock-free.
    fn commit(
        &self,
        inner: &mut Inner,
        rec: &JournalRecord,
        event: Option<(&str, Option<u64>, Json)>,
    ) {
        if let Some(j) = &self.journal {
            j.append(rec);
        }
        inner.apply(rec);
        if let Some((kind, generation, data)) = event {
            inner.push_event(rec.job, kind, generation, data);
        }
    }

    /// Queues a validated spec; returns the job id. A spec carrying an
    /// already-seen `dedup` token returns the existing job instead.
    ///
    /// The job checkpoints to the spec's explicit path, or else to
    /// `job{id}.ckpt` under `data_dir`. Ids are journaled, so a restarted
    /// server never hands a new job a recovered job's file.
    pub fn submit(&self, spec: JobSpec, data_dir: &Path) -> u64 {
        let mut inner = self.lock();
        if let Some(&existing) = spec.dedup.as_ref().and_then(|t| inner.dedup.get(t)) {
            return existing;
        }
        let (id, seq) = (inner.next_id, inner.next_seq);
        let checkpoint = spec
            .checkpoint
            .as_ref()
            .map_or_else(|| data_dir.join(format!("job{id}.ckpt")), PathBuf::from);
        let rec = JournalRecord::submitted(id, &spec, seq, &checkpoint);
        self.commit(&mut inner, &rec, Some(("queued", None, Json::Null)));
        drop(inner);
        self.cv.notify_all();
        id
    }

    /// The job a dedup token maps to, if any (lets the server bypass
    /// admission control for idempotent resubmits).
    pub fn lookup_dedup(&self, token: &str) -> Option<u64> {
        self.lock().dedup.get(token).copied()
    }

    /// Jobs currently waiting for a runner slot.
    pub fn queued_count(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .count()
    }

    /// Claims the highest-priority queued job and marks it running.
    /// With `block`, waits until a job is runnable or shutdown begins.
    ///
    /// Only a job's first step journals `started`; later claims (and a
    /// resumed job's, which emits `resumed` instead) mark it running
    /// without a record, since a restart re-queues a running job anyway.
    pub fn claim_next(&self, block: bool) -> Claim {
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return Claim::Shutdown;
            }
            let pick = inner
                .jobs
                .iter()
                .filter(|(_, j)| j.state == JobState::Queued)
                .min_by_key(|(_, j)| (std::cmp::Reverse(j.spec.priority), j.seq))
                .map(|(id, _)| *id);
            if let Some(id) = pick {
                let Some(job) = inner.jobs.get_mut(&id) else {
                    continue;
                };
                let resumed = std::mem::take(&mut job.resumed_pending);
                if resumed || job.next_step > 0 {
                    job.state = JobState::Running;
                    if resumed {
                        inner.push_event(id, "resumed", None, Json::Null);
                    }
                } else {
                    let rec = JournalRecord::transition(id, "started");
                    self.commit(&mut inner, &rec, Some(("started", None, Json::Null)));
                }
                drop(inner);
                self.cv.notify_all();
                return Claim::Step(id);
            }
            if !block {
                return Claim::Idle;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Applies a completed step's outcome and the pending pause/cancel
    /// requests, in that order of precedence: cancel > pause > continue.
    ///
    /// Late outcomes are dropped: if the job is no longer `Running` —
    /// the watchdog already failed it as stuck, or it was recovered by a
    /// restart — a wedged runner waking up afterwards must not resurrect
    /// or re-terminate it.
    pub fn finish_step(&self, id: u64, outcome: StepOutcome) {
        let mut inner = self.lock();
        let Some(job) = inner.jobs.get_mut(&id) else {
            return;
        };
        if job.state != JobState::Running {
            return;
        }
        match outcome {
            StepOutcome::Failed { error } => {
                let rec = JournalRecord::failed(id, &error);
                self.commit(&mut inner, &rec, Some(("failed", None, Json::Str(error))));
            }
            StepOutcome::Finished {
                generation,
                data,
                result,
            } => {
                let rec = JournalRecord::done(id, result);
                self.commit(&mut inner, &rec, Some(("done", generation, data)));
            }
            StepOutcome::Progress { generation, data } => {
                let follow_up = if job.cancel_requested {
                    Some("cancelled")
                } else if std::mem::take(&mut job.pause_requested) {
                    Some("paused")
                } else {
                    None
                };
                // The generation record lands *after* the explore step
                // persisted its checkpoint, so the journal never claims
                // progress the checkpoint cannot replay.
                let rec = JournalRecord::generation(id, generation);
                self.commit(
                    &mut inner,
                    &rec,
                    Some(("generation", Some(generation), data)),
                );
                if let Some(kind) = follow_up {
                    let rec = JournalRecord::transition(id, kind);
                    self.commit(&mut inner, &rec, Some((kind, None, Json::Null)));
                }
            }
        }
        self.maybe_compact(&inner);
        drop(inner);
        self.cv.notify_all();
    }

    /// Rewrites the journal as a compact snapshot if the active segment
    /// outgrew its threshold. Compaction failure downgrades to a
    /// diagnostic — the old segments keep the log replayable.
    fn maybe_compact(&self, inner: &Inner) {
        let Some(j) = &self.journal else { return };
        if !j.should_rotate() {
            return;
        }
        if let Err(e) = j.rewrite(&snapshot_records(inner)) {
            obs::diagln!("journal: compaction failed ({e}); staying on the old segment");
        }
    }

    /// Immediately compacts the journal to a snapshot of current state
    /// (used once after recovery so replay cost does not accrete across
    /// restarts).
    pub fn compact_now(&self) {
        let inner = self.lock();
        if let Some(j) = &self.journal {
            if let Err(e) = j.rewrite(&snapshot_records(&inner)) {
                obs::diagln!("journal: post-recovery compaction failed ({e})");
            }
        }
    }

    /// Rebuilds registry state from replayed journal records (call once,
    /// before any runner starts claiming) by applying each record in
    /// order.
    ///
    /// Jobs that were `Running` at the crash re-queue with their original
    /// ticket: the in-flight step re-runs, and for explores the
    /// checkpoint envelope makes that re-run bit-identical (an
    /// already-checkpointed generation is returned from the archive, not
    /// recomputed). Each reconstructed job gets a synthesized event
    /// prefix — `queued`, then `recovered` carrying `steps_done`, then
    /// its terminal or parked event if it has one — so `watch` clients
    /// see a coherent stream.
    pub fn recover(&self, records: &[JournalRecord]) -> RecoveryStats {
        let mut inner = self.lock();
        for rec in records {
            inner.apply(rec);
        }
        let mut stats = RecoveryStats::default();
        let ids: Vec<u64> = inner.jobs.keys().copied().collect();
        for id in ids {
            let Some(job) = inner.jobs.get_mut(&id) else {
                continue;
            };
            // The step in flight at the crash re-runs.
            if job.state == JobState::Running {
                job.state = JobState::Queued;
            }
            let (steps_done, state, error) = (job.next_step, job.state, job.error.clone());
            stats.jobs += 1;
            if state.is_terminal() {
                stats.finished += 1;
            } else {
                stats.requeued += 1;
            }
            inner.push_event(id, "queued", None, Json::Null);
            inner.push_event(
                id,
                "recovered",
                None,
                Json::Obj(vec![("steps_done".into(), Json::Num(steps_done as f64))]),
            );
            let data = match state {
                JobState::Failed => Json::Str(error.unwrap_or_else(|| "unknown error".into())),
                JobState::Done | JobState::Cancelled | JobState::Paused => Json::Null,
                JobState::Queued | JobState::Running => continue,
            };
            inner.push_event(id, state.as_str(), None, data);
        }
        drop(inner);
        self.cv.notify_all();
        stats
    }

    /// Requests a pause: queued jobs park immediately, running jobs park
    /// at their next generation boundary.
    pub fn pause(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let job = inner
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Queued => {
                let rec = JournalRecord::transition(id, "paused");
                self.commit(&mut inner, &rec, Some(("paused", None, Json::Null)));
            }
            JobState::Running => job.pause_requested = true,
            JobState::Paused => {}
            s => return Err(format!("cannot pause a {} job", s.as_str())),
        }
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Re-queues a paused job. It re-enters the back of its priority
    /// class (a fresh submit-order ticket, FIFO fairness preserved).
    pub fn resume(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        let job = inner
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Paused => {
                job.resumed_pending = true;
                self.commit(&mut inner, &JournalRecord::resumed(id, seq), None);
            }
            // Un-park a pause that has not landed yet.
            JobState::Queued | JobState::Running => job.pause_requested = false,
            s => return Err(format!("cannot resume a {} job", s.as_str())),
        }
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Requests cancellation: queued/paused jobs die immediately, running
    /// jobs die at their next generation boundary.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let job = inner
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no job {id}"))?;
        match job.state {
            JobState::Queued | JobState::Paused => {
                let rec = JournalRecord::transition(id, "cancelled");
                self.commit(&mut inner, &rec, Some(("cancelled", None, Json::Null)));
            }
            JobState::Running => job.cancel_requested = true,
            // Already terminal: cancel is idempotent.
            _ => {}
        }
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Point-in-time status of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        let inner = self.lock();
        inner
            .jobs
            .get(&id)
            .map(|j| status_of(id, j))
            .ok_or_else(|| format!("no job {id}"))
    }

    /// Status of every job, in id (submit) order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let inner = self.lock();
        inner.jobs.iter().map(|(id, j)| status_of(*id, j)).collect()
    }

    /// Events of job `id` from stream position `from` on, plus whether
    /// the job is terminal. With `wait`, blocks until there is at least
    /// one new event, the job is terminal, or `timeout` expires.
    pub fn events_since(
        &self,
        id: u64,
        from: u64,
        wait: bool,
        timeout: Duration,
    ) -> Result<(Vec<JobEvent>, bool), String> {
        let mut inner = self.lock();
        loop {
            let Some(job) = inner.jobs.get(&id) else {
                return Err(format!("no job {id}"));
            };
            let fresh: Vec<JobEvent> = job.events.iter().skip(from as usize).cloned().collect();
            let terminal = job.state.is_terminal();
            if !fresh.is_empty() || terminal || !wait || inner.shutdown {
                return Ok((fresh, terminal));
            }
            let (guard, out) = self
                .cv
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
            if out.timed_out() {
                let Some(job) = inner.jobs.get(&id) else {
                    return Err(format!("no job {id}"));
                };
                return Ok((Vec::new(), job.state.is_terminal()));
            }
        }
    }

    /// Final result payload of a `done` job.
    pub fn result(&self, id: u64) -> Result<Json, String> {
        let inner = self.lock();
        let Some(job) = inner.jobs.get(&id) else {
            return Err(format!("no job {id}"));
        };
        match (&job.state, &job.result) {
            (JobState::Done, Some(r)) => Ok(r.clone()),
            (JobState::Failed, _) => Err(format!(
                "job {id} failed: {}",
                job.error.as_deref().unwrap_or("unknown error")
            )),
            (s, _) => Err(format!("job {id} is {}, not done", s.as_str())),
        }
    }

    /// Reads the fields a runner needs to execute one step.
    pub fn step_inputs(&self, id: u64) -> Option<(JobSpec, u64, PathBuf)> {
        let inner = self.lock();
        inner
            .jobs
            .get(&id)
            .map(|j| (j.spec.clone(), j.next_step, j.checkpoint.clone()))
    }

    /// Appends an auxiliary event (e.g. `baseline`) to a job's stream.
    pub fn emit(&self, id: u64, kind: &str, generation: Option<u64>, data: Json) {
        let mut inner = self.lock();
        inner.push_event(id, kind, generation, data);
        drop(inner);
        self.cv.notify_all();
    }

    /// Begins shutdown: wakes every waiter; runners exit at their next
    /// claim, watchers return what they have.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }
}

/// The minimal record sequence reproducing every job's current state,
/// used as the compaction snapshot: `submitted`, a `generation` marking
/// completed progress (except for `done` jobs, whose `done` record
/// restores it), and the parked/terminal transition.
fn snapshot_records(inner: &Inner) -> Vec<JournalRecord> {
    let mut recs = Vec::new();
    for (&id, job) in &inner.jobs {
        recs.push(JournalRecord::submitted(
            id,
            &job.spec,
            job.seq,
            &job.checkpoint,
        ));
        if job.next_step > 0 && job.state != JobState::Done {
            recs.push(JournalRecord::generation(id, job.next_step - 1));
        }
        match job.state {
            JobState::Done => {
                recs.push(JournalRecord::done(
                    id,
                    job.result.clone().unwrap_or(Json::Null),
                ));
            }
            JobState::Failed => {
                recs.push(JournalRecord::failed(
                    id,
                    job.error.as_deref().unwrap_or("unknown error"),
                ));
            }
            JobState::Cancelled => recs.push(JournalRecord::transition(id, "cancelled")),
            JobState::Paused => recs.push(JournalRecord::transition(id, "paused")),
            // Queued replays as-is; Running re-queues on recovery anyway.
            JobState::Queued | JobState::Running => {}
        }
    }
    recs
}

fn status_of(id: u64, job: &Job) -> JobStatus {
    JobStatus {
        id,
        state: job.state,
        kind: job.spec.kind,
        design: job.spec.design.clone(),
        priority: job.spec.priority,
        steps_done: job.next_step,
        steps_total: job.total_steps,
        events: job.events.len() as u64,
        error: job.error.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::job::JobSpec;
    use proptest::prelude::*;

    fn data() -> &'static Path {
        Path::new("/tmp/unused")
    }

    fn spec(priority: u8) -> JobSpec {
        JobSpec {
            priority,
            ..JobSpec::analyze("TINY")
        }
    }

    fn kinds(reg: &Registry, id: u64) -> Vec<String> {
        let (events, _) = reg
            .events_since(id, 0, false, Duration::from_millis(1))
            .expect("job exists");
        events.into_iter().map(|e| e.kind).collect()
    }

    #[test]
    fn higher_priority_claims_first() {
        let reg = Registry::new();
        let low = reg.submit(spec(0), data());
        let high = reg.submit(spec(5), data());
        let mid = reg.submit(spec(2), data());
        let order: Vec<u64> = (0..3)
            .map(|_| match reg.claim_next(false) {
                Claim::Step(id) => id,
                _ => panic!("expected a runnable job"),
            })
            .collect();
        assert_eq!(order, vec![high, mid, low]);
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let reg = Registry::new();
        let ids: Vec<u64> = (0..4).map(|_| reg.submit(spec(3), data())).collect();
        for expected in &ids {
            match reg.claim_next(false) {
                Claim::Step(id) => assert_eq!(id, *expected),
                _ => panic!("expected a runnable job"),
            }
        }
        assert!(matches!(reg.claim_next(false), Claim::Idle));
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let reg = Registry::new();
        let a = reg.submit(spec(0), data());
        let b = reg.submit(spec(0), data());
        reg.cancel(b).expect("queued job cancels");
        assert!(matches!(reg.claim_next(false), Claim::Step(id) if id == a));
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        assert_eq!(kinds(&reg, b), vec!["queued", "cancelled"]);
        let status = reg.status(b).expect("status");
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.steps_done, 0);
    }

    #[test]
    fn pause_while_running_lands_at_the_generation_boundary() {
        let reg = Registry::new();
        let mut explore = JobSpec::explore("TINY");
        explore.generations = 3;
        let id = reg.submit(explore, data());
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        // Pause arrives mid-step: the job keeps running...
        reg.pause(id).expect("running job accepts pause");
        assert_eq!(reg.status(id).expect("status").state, JobState::Running);
        // ...and parks only once the in-flight generation completes.
        reg.finish_step(
            id,
            StepOutcome::Progress {
                generation: 0,
                data: Json::Null,
            },
        );
        let status = reg.status(id).expect("status");
        assert_eq!(status.state, JobState::Paused);
        assert_eq!(status.steps_done, 1);
        assert_eq!(
            kinds(&reg, id),
            vec!["queued", "started", "generation", "paused"]
        );
        // Nothing runnable while paused; resume re-queues and re-claims.
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        reg.resume(id).expect("paused job resumes");
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        assert_eq!(
            kinds(&reg, id),
            vec!["queued", "started", "generation", "paused", "resumed"]
        );
    }

    #[test]
    fn cancel_while_running_lands_at_the_generation_boundary() {
        let reg = Registry::new();
        let id = reg.submit(JobSpec::explore("TINY"), data());
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        reg.cancel(id).expect("running job accepts cancel");
        assert_eq!(reg.status(id).expect("status").state, JobState::Running);
        reg.finish_step(
            id,
            StepOutcome::Progress {
                generation: 0,
                data: Json::Null,
            },
        );
        assert_eq!(reg.status(id).expect("status").state, JobState::Cancelled);
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        assert!(reg.result(id).is_err());
    }

    #[test]
    fn resumed_jobs_requeue_behind_their_class() {
        let reg = Registry::new();
        let a = reg.submit(spec(1), data());
        reg.pause(a).expect("queued job pauses");
        let b = reg.submit(spec(1), data());
        reg.resume(a).expect("paused job resumes");
        // `a` was submitted first but re-entered the class after `b`.
        assert!(matches!(reg.claim_next(false), Claim::Step(id) if id == b));
        assert!(matches!(reg.claim_next(false), Claim::Step(id) if id == a));
    }

    #[test]
    fn ticks_order_events_across_jobs() {
        let reg = Registry::new();
        let a = reg.submit(spec(0), data());
        let b = reg.submit(spec(0), data());
        let (ea, _) = reg
            .events_since(a, 0, false, Duration::from_millis(1))
            .expect("a exists");
        let (eb, _) = reg
            .events_since(b, 0, false, Duration::from_millis(1))
            .expect("b exists");
        assert!(
            ea[0].tick < eb[0].tick,
            "global ticks order cross-job events"
        );
        assert_eq!(ea[0].seq, 0);
        assert_eq!(eb[0].seq, 0);
    }

    #[test]
    fn terminal_states_refuse_transitions() {
        let reg = Registry::new();
        let id = reg.submit(spec(0), data());
        reg.cancel(id).expect("cancel");
        assert!(reg.pause(id).is_err());
        assert!(reg.resume(id).is_err());
        reg.cancel(id).expect("cancel is idempotent");
        assert!(reg.pause(99).is_err());
    }

    #[test]
    fn shutdown_unblocks_claims() {
        let reg = Registry::new();
        reg.shutdown();
        assert!(matches!(reg.claim_next(true), Claim::Shutdown));
        assert!(reg.is_shutdown());
    }

    #[test]
    fn late_outcomes_from_retired_runners_are_dropped() {
        let reg = Registry::new();
        let id = reg.submit(spec(0), data());
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == id));
        // The watchdog declares the job stuck...
        reg.finish_step(
            id,
            StepOutcome::Failed {
                error: "stuck".into(),
            },
        );
        assert_eq!(reg.status(id).expect("status").state, JobState::Failed);
        // ...then the wedged runner wakes up and reports success. Dropped.
        reg.finish_step(
            id,
            StepOutcome::Finished {
                generation: None,
                data: Json::Null,
                result: Json::Num(1.0),
            },
        );
        let status = reg.status(id).expect("status");
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.error.as_deref(), Some("stuck"));
        assert!(reg.result(id).is_err());
    }

    fn journal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ggreg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drives a journaled registry through a mixed workload, "crashes"
    /// (drops it), recovers a fresh registry from the journal, and checks
    /// every job's position and the claim order survived.
    #[test]
    fn recovery_restores_jobs_order_and_results() {
        let dir = journal_dir("recover");
        let (running, paused, queued_hi, queued_lo, finished);
        {
            let journal = Arc::new(Journal::open(&dir).expect("open journal"));
            let reg = Registry::with_journal(Some(journal));
            let mut explore = JobSpec::explore("TINY");
            explore.generations = 4;
            running = reg.submit(explore.clone(), data());
            paused = reg.submit(explore.clone(), data());
            finished = reg.submit(spec(0), data());
            // `running` completes two generations, then goes mid-step 2.
            for g in 0..2 {
                assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == running));
                reg.finish_step(
                    running,
                    StepOutcome::Progress {
                        generation: g,
                        data: Json::Null,
                    },
                );
            }
            assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == running));
            // `paused` parks after one generation.
            assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == paused));
            reg.pause(paused).expect("pause");
            reg.finish_step(
                paused,
                StepOutcome::Progress {
                    generation: 0,
                    data: Json::Null,
                },
            );
            // `finished` runs to completion.
            assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == finished));
            reg.finish_step(
                finished,
                StepOutcome::Finished {
                    generation: None,
                    data: Json::Null,
                    result: Json::Num(42.0),
                },
            );
            queued_hi = reg.submit(spec(9), data());
            queued_lo = reg.submit(spec(0), data());
            // Crash: drop the registry with `running` mid-step.
        }
        let journal = Arc::new(Journal::open(&dir).expect("reopen journal"));
        let records = Journal::replay(&dir).expect("replay");
        let reg = Registry::with_journal(Some(journal));
        let stats = reg.recover(&records);
        assert_eq!(stats.jobs, 5);
        assert_eq!(
            stats.requeued, 4,
            "running + paused + queued ×2 are non-terminal"
        );
        assert_eq!(stats.finished, 1);

        let st = reg.status(running).expect("status");
        assert_eq!(st.state, JobState::Queued, "in-flight job re-queued");
        assert_eq!(st.steps_done, 2, "completed generations survive");
        assert_eq!(reg.status(paused).expect("status").state, JobState::Paused);
        assert_eq!(
            reg.result(finished).expect("done job keeps its result"),
            Json::Num(42.0)
        );
        // Claim order: priority first, then original submit order.
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == queued_hi));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == running));
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == queued_lo));
        assert!(matches!(reg.claim_next(false), Claim::Idle));
        // New submits get fresh ids past the recovered ones.
        let next = reg.submit(spec(0), data());
        assert!(next > queued_lo);
        // Synthesized event prefix is coherent.
        assert_eq!(kinds(&reg, paused), vec!["queued", "recovered", "paused"]);
        assert_eq!(kinds(&reg, finished), vec!["queued", "recovered", "done"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dedup_tokens_are_idempotent_and_survive_recovery() {
        let dir = journal_dir("dedup");
        let first;
        {
            let journal = Arc::new(Journal::open(&dir).expect("open journal"));
            let reg = Registry::with_journal(Some(journal));
            let mut s = spec(0);
            s.dedup = Some("tok-1".into());
            first = reg.submit(s.clone(), data());
            assert_eq!(reg.submit(s.clone(), data()), first, "resubmit dedups");
            assert_eq!(reg.lookup_dedup("tok-1"), Some(first));
            assert_eq!(reg.lookup_dedup("tok-2"), None);
        }
        let records = Journal::replay(&dir).expect("replay");
        let reg = Registry::new();
        reg.recover(&records);
        assert_eq!(
            reg.lookup_dedup("tok-1"),
            Some(first),
            "token survives restart"
        );
        let mut s = spec(0);
        s.dedup = Some("tok-1".into());
        assert_eq!(reg.submit(s, data()), first, "post-restart resubmit dedups");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_snapshot_replays_identically() {
        let dir = journal_dir("compact");
        let journal = Arc::new(Journal::open_with(&dir, 64, false).expect("open"));
        let reg = Registry::with_journal(Some(journal));
        let a = reg.submit(spec(2), data());
        let b = reg.submit(spec(0), data());
        assert!(matches!(reg.claim_next(false), Claim::Step(i) if i == a));
        reg.finish_step(
            a,
            StepOutcome::Finished {
                generation: None,
                data: Json::Null,
                result: Json::Num(7.0),
            },
        );
        let before: Vec<JobStatus> = reg.jobs();
        reg.compact_now();
        let records = Journal::replay(&dir).expect("replay");
        let reg2 = Registry::new();
        reg2.recover(&records);
        let after: Vec<JobStatus> = reg2.jobs();
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(&after) {
            assert_eq!((x.id, x.state, x.steps_done), (y.id, y.state, y.steps_done));
        }
        assert_eq!(reg2.result(a).expect("result"), Json::Num(7.0));
        assert_eq!(reg2.status(b).expect("status").state, JobState::Queued);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The job fields recovery must reproduce, per job: state (a
    /// `Running` job reads as `Queued`, since its in-flight step re-runs
    /// after a restart), submit-order ticket, progress, result and error.
    type DurableJob = (u64, JobState, u64, u64, u64, Option<Json>, Option<String>);

    fn durable_view(reg: &Registry) -> Vec<DurableJob> {
        let inner = reg.lock();
        inner
            .jobs
            .iter()
            .map(|(&id, j)| {
                let state = match j.state {
                    JobState::Running => JobState::Queued,
                    s => s,
                };
                let (result, error) = (j.result.clone(), j.error.clone());
                (id, state, j.seq, j.next_step, j.total_steps, result, error)
            })
            .collect()
    }

    /// Applies one random operation `(code, selector, argument)` the way
    /// the server would: submits (with and without dedup tokens), claims,
    /// step outcomes shaped like `run_step`'s, pause, resume and cancel.
    fn drive(reg: &Registry, (code, sel, arg): (u8, u8, u8)) {
        let jobs = reg.jobs();
        let pick = |of: &[JobStatus]| of.get(usize::from(sel) % of.len().max(1)).map(|s| s.id);
        match code {
            0 | 1 => {
                let mut spec = if sel % 2 == 0 {
                    JobSpec::analyze("TINY")
                } else {
                    JobSpec::explore("TINY")
                };
                spec.generations = usize::from(sel / 2 % 4);
                spec.priority = arg % 3;
                if code == 1 {
                    spec.dedup = Some(format!("tok-{}", arg % 4));
                }
                reg.submit(spec, data());
            }
            2 | 3 => {
                reg.claim_next(false);
            }
            4 => {
                let running: Vec<JobStatus> = jobs
                    .into_iter()
                    .filter(|s| s.state == JobState::Running)
                    .collect();
                let Some(s) = running.get(usize::from(sel) % running.len().max(1)) else {
                    return;
                };
                let step = s.steps_done;
                let outcome = if arg % 4 == 0 {
                    StepOutcome::Failed {
                        error: format!("boom {arg}"),
                    }
                } else if step + 1 < s.steps_total {
                    StepOutcome::Progress {
                        generation: step,
                        data: Json::Null,
                    }
                } else {
                    StepOutcome::Finished {
                        generation: Some(step),
                        data: Json::Null,
                        result: Json::Num(f64::from(arg)),
                    }
                };
                reg.finish_step(s.id, outcome);
            }
            _ => {
                let Some(id) = pick(&jobs) else { return };
                // Refused transitions (e.g. pausing a done job) are part
                // of the workload too.
                let _ = match code {
                    5 => reg.pause(id),
                    6 => reg.resume(id),
                    _ => reg.cancel(id),
                };
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Replay equals live: a registry recovered from the journal of
        /// a random operation sequence (compacting as it goes) holds the
        /// same durable job state as the live one, and so does one
        /// recovered again after a post-recovery compaction.
        #[test]
        fn recovered_registry_matches_the_live_one(
            ops in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..80)
        ) {
            let dir = journal_dir("replay-prop");
            let live = {
                let journal = Journal::open_with(&dir, 600, false).expect("open journal");
                let reg = Registry::with_journal(Some(Arc::new(journal)));
                for &op in &ops {
                    drive(&reg, op);
                }
                durable_view(&reg)
            };
            let journal = Journal::open_with(&dir, 600, false).expect("reopen journal");
            let recovered = Registry::with_journal(Some(Arc::new(journal)));
            recovered.recover(&Journal::replay(&dir).expect("replay"));
            prop_assert_eq!(&durable_view(&recovered), &live);
            recovered.compact_now();
            let again = Registry::new();
            again.recover(&Journal::replay(&dir).expect("replay compacted"));
            prop_assert_eq!(&durable_view(&again), &live);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

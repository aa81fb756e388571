//! The job server: runner threads, step execution, and the socket front
//! end.
//!
//! A [`Server`] owns one job registry and one [`BaselineCache`]. Runner
//! threads pull *scheduler steps* from the registry — one NSGA-II
//! generation of an explore job, or the whole of an analyze/harden job —
//! so priorities take effect at generation boundaries and a pause/cancel
//! request lands exactly where a checkpoint was just written. An explore
//! step resumes the job's [`Exploration`] from its checkpoint, runs it up
//! to the step's generation and saves it again: this is the one place
//! that persists an exploration. Explore jobs are therefore bit-identical
//! across any pause/resume pattern, by the same checkpoint-resume
//! property the resume-matrix test pins.
//!
//! With `runners: 0` nothing runs until [`Server::step_once`] /
//! [`Server::run_until_idle`] — the deterministic mode the scheduler
//! tests drive.
//!
//! **Crash safety and containment** (DESIGN.md §2j): with a
//! `journal_dir` configured, every lifecycle transition is journaled
//! before publication and [`Server::start`] replays the journal —
//! non-terminal jobs re-queue in their original order and explores
//! resume bit-identically from their checkpoints. Runner threads are
//! *supervised*: a runner that dies (thread panic outside the step
//! sandbox), or whose explore step outruns the wall its candidates'
//! `eval_deadline` allows, has its in-flight job marked failed and is
//! replaced, so the pool never silently shrinks. Submits beyond
//! `max_queued` or the memory budget are refused with a retryable
//! [`Response::Busy`] instead of growing without bound.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ggjson::Json;
use tech::Technology;

use crate::checkpoint::{prev_path, Checkpoint};
use crate::error::Error;
use crate::flow::{FlowConfig, FlowMetrics, FlowRun};
use crate::nsga2::{Exploration, ExploreResult, Nsga2Params};
use crate::sandbox::{classify, SandboxPolicy};
use crate::serve::baseline::{BaselineCache, DesignContext};
use crate::serve::job::{BaselineSummary, JobEvent, JobKind, JobSpec, JobStatus};
use crate::serve::journal::Journal;
use crate::serve::proto::{Request, Response};
use crate::serve::registry::{Claim, Registry, StepOutcome};

/// How a [`Server`] is stood up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket to listen on; `None` runs in-process only
    /// (submit/watch through the [`Server`] methods).
    pub socket: Option<PathBuf>,
    /// Directory for per-job checkpoint envelopes; `None` uses
    /// `ggd-serve-<pid>` under the system temp directory.
    pub data_dir: Option<PathBuf>,
    /// Runner threads; `0` means no background execution — tests drive
    /// the scheduler with [`Server::step_once`].
    pub runners: usize,
    /// Durable job-journal directory. `None` runs volatile: a crash
    /// forgets every job.
    pub journal_dir: Option<PathBuf>,
    /// Admission limit on queued jobs; `0` = unlimited. Submits beyond it
    /// get a retryable `Busy` refusal.
    pub max_queued: usize,
    /// Admission memory budget in bytes; `0` = unlimited. Submits are
    /// refused while peak RSS or the eval-cache footprint exceeds it.
    pub mem_budget_bytes: u64,
    /// Cooperative wall-clock budget of each explore candidate's
    /// evaluation (see [`crate::sandbox::SandboxPolicy`]); `None` runs
    /// without one. A nonzero budget also arms the runner watchdog on
    /// explore steps, with a wall sized to the candidates a step
    /// evaluates: a step past it is wedged, not slow — its job fails as
    /// stuck and the runner is replaced. Analyze and harden steps, which
    /// no candidate budget bounds, are never called stuck.
    pub eval_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            socket: None,
            data_dir: None,
            runners: 1,
            journal_dir: None,
            max_queued: 0,
            mem_budget_bytes: 0,
            eval_deadline: None,
        }
    }
}

/// Scheduler and shared-baseline-cache counters, as returned by `stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Jobs ever submitted.
    pub jobs: u64,
    /// Baseline contexts constructed (one per distinct design, counting
    /// failed builds).
    pub baseline_builds: u64,
    /// Baseline requests served from cache instead of rebuilding.
    pub baseline_hits: u64,
    /// Resident bytes of every cached baseline's occupancy index.
    pub occupancy_bytes: u64,
    /// Usage-plane bytes across cached baselines (routing + Phase-A plan,
    /// Arc-deduplicated per engine).
    pub route_planes_bytes: u64,
    /// Accounted candidate-cache bytes across cached engines (bounded per
    /// engine by a fixed 256 MiB edit-cache budget).
    pub eval_cache_bytes: u64,
    /// Process peak resident set (`VmHWM`), 0 where procfs is absent.
    pub peak_rss_bytes: u64,
    /// Jobs currently waiting for a runner slot.
    pub queued: u64,
    /// Submits refused by admission control this server lifetime.
    pub busy_rejects: u64,
    /// Runner threads replaced by the supervisor (died or wedged).
    pub runner_restarts: u64,
    /// Non-terminal jobs re-queued from the journal at startup.
    pub recovered_jobs: u64,
}

ggjson::json_struct!(ServerStats {
    jobs,
    baseline_builds,
    baseline_hits,
    occupancy_bytes,
    route_planes_bytes,
    eval_cache_bytes,
    peak_rss_bytes,
    queued,
    busy_rejects,
    runner_restarts,
    recovered_jobs
});

/// The process high-water resident set in bytes, from
/// `/proc/self/status` (`VmHWM`); 0 on platforms without procfs. The
/// kernel counter is monotone for the process lifetime.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Assembles the stats payload from the shared server state.
fn collect_stats(shared: &Shared) -> ServerStats {
    let (baseline_builds, baseline_hits) = shared.baselines.stats();
    let mem = shared.baselines.memory_footprint();
    ServerStats {
        jobs: shared.registry.jobs().len() as u64,
        baseline_builds,
        baseline_hits,
        occupancy_bytes: mem.occupancy_bytes,
        route_planes_bytes: mem.route_planes_bytes,
        eval_cache_bytes: mem.cache_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        queued: shared.registry.queued_count() as u64,
        busy_rejects: shared.busy_rejects.load(Ordering::Relaxed),
        runner_restarts: shared.runner_restarts.load(Ordering::Relaxed),
        recovered_jobs: shared.recovered_jobs,
    }
}

struct Shared {
    registry: Registry,
    baselines: BaselineCache,
    /// The configuration the server started with.
    config: ServerConfig,
    /// `config.data_dir`, or its default when unset.
    data_dir: PathBuf,
    busy_rejects: AtomicU64,
    runner_restarts: AtomicU64,
    /// Non-terminal jobs re-queued from the journal at startup.
    recovered_jobs: u64,
}

/// Per-runner heartbeat the supervisor watches: which job the runner is
/// executing and, once an explore step has armed it, the step's
/// watchdog; plus the retirement flag that tells an abandoned (wedged)
/// runner not to claim further work if it ever wakes.
#[derive(Default)]
struct Flight {
    busy: Mutex<Option<InFlight>>,
    retired: AtomicBool,
}

#[derive(Clone, Copy)]
struct InFlight {
    job: u64,
    /// When the watchdog was armed and the wall it allows the step.
    watchdog: Option<(Instant, Duration)>,
}

impl Flight {
    fn busy(&self) -> std::sync::MutexGuard<'_, Option<InFlight>> {
        self.busy.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Starts the in-flight step's watchdog clock.
    fn arm(&self, limit: Duration) {
        if let Some(f) = self.busy().as_mut() {
            f.watchdog = Some((Instant::now(), limit));
        }
    }
}

struct RunnerSlot {
    handle: JoinHandle<()>,
    flight: Arc<Flight>,
}

/// Admission gate, checked before a submit enters the queue. Idempotent
/// resubmits (a dedup token the registry already knows) bypass the gate
/// — they map to an existing job, adding no load. Refusals are counted
/// in [`ServerStats::busy_rejects`] and surface as the retryable `Busy`
/// response.
fn admit(shared: &Shared, spec: &JobSpec) -> Result<(), String> {
    if let Some(tok) = &spec.dedup {
        if shared.registry.lookup_dedup(tok).is_some() {
            return Ok(());
        }
    }
    let refuse = |why: String| {
        shared.busy_rejects.fetch_add(1, Ordering::Relaxed);
        Err(why)
    };
    let (max_queued, budget) = (shared.config.max_queued, shared.config.mem_budget_bytes);
    if max_queued > 0 {
        let queued = shared.registry.queued_count();
        if queued >= max_queued {
            return refuse(format!("{queued} jobs queued (limit {max_queued})"));
        }
    }
    if budget > 0 {
        let rss = peak_rss_bytes();
        let cache = shared.baselines.memory_footprint().cache_bytes;
        if rss > budget || cache > budget {
            return refuse(format!(
                "memory budget exceeded (peak RSS {rss} B, eval cache {cache} B, budget {budget} B)"
            ));
        }
    }
    Ok(())
}

/// Validates, admits and queues a job — the one submit path behind
/// [`Server::submit`] and the socket's `submit` request. Refusals are
/// [`Error::Serve`] (invalid spec) or the retryable [`Error::Busy`].
fn submit(shared: &Shared, spec: JobSpec) -> Result<u64, Error> {
    spec.validate().map_err(Error::Serve)?;
    admit(shared, &spec).map_err(Error::Busy)?;
    Ok(shared.registry.submit(spec, &shared.data_dir))
}

/// A running job server. Dropping it without [`Server::stop`] leaves
/// its threads running detached for the rest of the process.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Stands the server up: creates the data directory, binds the
    /// socket (if configured), and spawns the runner threads.
    pub fn start(cfg: ServerConfig) -> Result<Self, Error> {
        // Arm `GG_FAULTS` before the first journal append: the
        // service-level points (`journal.write`, `serve.runner_panic`)
        // fire long before any evaluation sandbox would arm them.
        faults::ensure_init();
        let data_dir = cfg.data_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("ggd-serve-{}", std::process::id()))
        });
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| Error::Io(format!("cannot create {}: {e}", data_dir.display())))?;
        let listener =
            match &cfg.socket {
                Some(path) => {
                    // A stale socket file from a dead server blocks bind.
                    let _ = std::fs::remove_file(path);
                    Some(UnixListener::bind(path).map_err(|e| {
                        Error::Serve(format!("cannot bind {}: {e}", path.display()))
                    })?)
                }
                None => None,
            };
        // Replay the journal (if any) before runners exist, so recovery
        // happens against a quiescent registry.
        let (registry, recovered_jobs) = match &cfg.journal_dir {
            Some(dir) => {
                let records = Journal::replay(dir)?;
                let journal = Arc::new(Journal::open(dir)?);
                let registry = Registry::with_journal(Some(journal));
                let stats = registry.recover(&records);
                if stats.jobs > 0 {
                    registry.compact_now();
                    obs::diagln!(
                        "journal: recovered {} job(s) from {} ({} re-queued, {} already terminal)",
                        stats.jobs,
                        dir.display(),
                        stats.requeued,
                        stats.finished
                    );
                }
                (registry, stats.requeued)
            }
            None => (Registry::new(), 0),
        };
        let runners = cfg.runners;
        let shared = Arc::new(Shared {
            registry,
            baselines: BaselineCache::new(Technology::nangate45_like()),
            config: cfg,
            data_dir,
            busy_rejects: AtomicU64::new(0),
            runner_restarts: AtomicU64::new(0),
            recovered_jobs,
        });
        let mut threads = Vec::new();
        if runners > 0 {
            // Runners live under the supervisor, which replaces any that
            // die or wedge; only the supervisor handle is joined on stop.
            let mut slots = Vec::new();
            for i in 0..runners {
                slots.push(spawn_runner(&shared, i)?);
            }
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ggd-supervisor".to_owned())
                    .spawn(move || supervisor_loop(&sh, slots))
                    .map_err(|e| Error::Serve(format!("cannot spawn supervisor: {e}")))?,
            );
        }
        if let Some(listener) = listener {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ggd-accept".to_owned())
                    .spawn(move || accept_loop(&sh, listener))
                    .map_err(|e| Error::Serve(format!("cannot spawn acceptor: {e}")))?,
            );
        }
        Ok(Self { shared, threads })
    }

    /// Validates and queues a job; returns its id. Refuses with the
    /// retryable [`Error::Busy`] when admission limits are exceeded
    /// (idempotent resubmits bypass the gate).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, Error> {
        submit(&self.shared, spec)
    }

    /// Point-in-time status of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, Error> {
        self.shared.registry.status(id).map_err(Error::Serve)
    }

    /// Status of every job, in submit order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        self.shared.registry.jobs()
    }

    /// Parks a job at its next generation boundary (immediately if it is
    /// still queued).
    pub fn pause(&self, id: u64) -> Result<(), Error> {
        self.shared.registry.pause(id).map_err(Error::Serve)
    }

    /// Re-queues a paused job at the back of its priority class.
    pub fn resume(&self, id: u64) -> Result<(), Error> {
        self.shared.registry.resume(id).map_err(Error::Serve)
    }

    /// Cancels a job (at its next generation boundary if running).
    pub fn cancel(&self, id: u64) -> Result<(), Error> {
        self.shared.registry.cancel(id).map_err(Error::Serve)
    }

    /// Final result payload of a done job.
    pub fn result(&self, id: u64) -> Result<Json, Error> {
        self.shared.registry.result(id).map_err(Error::Serve)
    }

    /// Events of job `id` from stream cursor `from`, plus whether the
    /// job is terminal. With `wait`, blocks until news arrives (bounded
    /// by an internal poll interval).
    pub fn events_since(
        &self,
        id: u64,
        from: u64,
        wait: bool,
    ) -> Result<(Vec<JobEvent>, bool), Error> {
        self.shared
            .registry
            .events_since(id, from, wait, Duration::from_millis(200))
            .map_err(Error::Serve)
    }

    /// Scheduler, baseline-cache, and memory-footprint counters.
    pub fn stats(&self) -> ServerStats {
        collect_stats(&self.shared)
    }

    /// Claims and executes exactly one scheduler step on the calling
    /// thread; returns whether there was anything to run. The `runners:
    /// 0` test mode's drive shaft.
    pub fn step_once(&self) -> bool {
        match self.shared.registry.claim_next(false) {
            Claim::Step(id) => {
                let outcome = execute_step(&self.shared, id, None);
                self.shared.registry.finish_step(id, outcome);
                true
            }
            Claim::Idle | Claim::Shutdown => false,
        }
    }

    /// Runs scheduler steps on the calling thread until no job is queued
    /// or running.
    pub fn run_until_idle(&self) {
        while self.step_once() {}
    }

    /// Begins shutdown without waiting: runners exit at their next
    /// claim, watchers drain, the acceptor unblocks.
    pub fn begin_shutdown(&self) {
        self.shared.registry.shutdown();
        if let Some(path) = &self.shared.config.socket {
            // Unblock the acceptor's blocking `accept`.
            let _ = UnixStream::connect(path);
        }
    }

    /// Blocks until the server shuts down (a client sends `shutdown`,
    /// or another thread calls [`Server::begin_shutdown`]), then joins
    /// every thread and removes the socket file. Daemon mode.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.shared.config.socket {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Shuts down and joins: [`Server::begin_shutdown`] + [`Server::wait`].
    pub fn stop(self) {
        self.begin_shutdown();
        self.wait();
    }
}

fn spawn_runner(shared: &Arc<Shared>, idx: usize) -> Result<RunnerSlot, Error> {
    let flight = Arc::new(Flight::default());
    let sh = Arc::clone(shared);
    let fl = Arc::clone(&flight);
    let handle = std::thread::Builder::new()
        .name(format!("ggd-runner-{idx}"))
        .spawn(move || runner_loop(&sh, &fl))
        .map_err(|e| Error::Serve(format!("cannot spawn runner: {e}")))?;
    Ok(RunnerSlot { handle, flight })
}

fn runner_loop(shared: &Shared, flight: &Flight) {
    // Deterministic drill: kills the runner *thread* (outside the step
    // sandbox) to exercise the supervisor's died-runner path.
    static RUNNER_PANIC: faults::Point = faults::Point::new("serve.runner_panic");
    loop {
        if flight.retired.load(Ordering::Relaxed) {
            break;
        }
        match shared.registry.claim_next(true) {
            Claim::Shutdown => break,
            Claim::Idle => {}
            Claim::Step(id) => {
                *flight.busy() = Some(InFlight {
                    job: id,
                    watchdog: None,
                });
                if RUNNER_PANIC.fires_external(id) {
                    std::panic::panic_any(faults::FaultPayload::Injected {
                        point: "serve.runner_panic",
                    });
                }
                let outcome = execute_step(shared, id, Some(flight));
                *flight.busy() = None;
                shared.registry.finish_step(id, outcome);
            }
        }
    }
}

/// Watches the runner pool: joins and replaces runners whose thread
/// died (failing their in-flight job), and retires runners whose step
/// outran its armed watchdog, failing the stuck job and abandoning the
/// thread (the `retired` flag plus the registry's late-outcome guard
/// contain it if it ever wakes).
fn supervisor_loop(shared: &Arc<Shared>, mut slots: Vec<RunnerSlot>) {
    let mut next_idx = slots.len();
    loop {
        if shared.registry.is_shutdown() {
            for slot in slots {
                slot.flight.retired.store(true, Ordering::Relaxed);
                let _ = slot.handle.join();
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
        for slot in &mut slots {
            let died = slot.handle.is_finished();
            let stuck = !died
                && slot
                    .flight
                    .busy()
                    .and_then(|f| f.watchdog)
                    .is_some_and(|(t0, limit)| t0.elapsed() > limit);
            if !died && !stuck {
                continue;
            }
            if died && shared.registry.is_shutdown() {
                continue; // normal exit, handled by the join above
            }
            let Ok(fresh) = spawn_runner(shared, next_idx) else {
                obs::diagln!("supervisor: cannot respawn runner; retrying");
                continue;
            };
            next_idx += 1;
            let old = std::mem::replace(slot, fresh);
            old.flight.retired.store(true, Ordering::Relaxed);
            let in_flight = old.flight.busy().take();
            if died {
                let _ = old.handle.join(); // collect the panic
                if let Some(InFlight { job, .. }) = in_flight {
                    shared.registry.finish_step(
                        job,
                        StepOutcome::Failed {
                            error: "runner thread died mid-step (runner restarted)".into(),
                        },
                    );
                }
                obs::diagln!("supervisor: runner died; pool restored");
            } else {
                // Wedged: the thread cannot be joined — abandon it. Its
                // eventual finish_step is dropped by the late-outcome
                // guard, and the retired flag stops further claims.
                if let Some(InFlight {
                    job,
                    watchdog: Some((t0, limit)),
                }) = in_flight
                {
                    shared.registry.finish_step(
                        job,
                        StepOutcome::Failed {
                            error: format!(
                                "stuck: step exceeded its {} ms watchdog (ran {} ms); \
                                 runner restarted",
                                limit.as_millis(),
                                t0.elapsed().as_millis()
                            ),
                        },
                    );
                }
                drop(old.handle);
                obs::diagln!("supervisor: runner wedged; abandoned and replaced");
            }
            shared.runner_restarts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs one claimed scheduler step, converting panics into job failures
/// so a poisoned candidate cannot take the server down. `flight` is the
/// calling runner's heartbeat, for an explore step to arm its watchdog
/// on; [`Server::step_once`] runs unsupervised.
fn execute_step(shared: &Shared, id: u64, flight: Option<&Flight>) -> StepOutcome {
    let Some((spec, step, ckpt)) = shared.registry.step_inputs(id) else {
        return StepOutcome::Failed {
            error: format!("job {id} vanished from the registry"),
        };
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_step(shared, id, &spec, step, &ckpt, flight)
    })) {
        Ok(outcome) => outcome,
        Err(panic) => StepOutcome::Failed {
            error: format!("step failed: {}", classify(panic)),
        },
    }
}

fn run_step(
    shared: &Shared,
    id: u64,
    spec: &JobSpec,
    step: u64,
    ckpt: &Path,
    flight: Option<&Flight>,
) -> StepOutcome {
    // Submit validated the spec, but a journal written by an older build
    // may hold one this build refuses; fail the job, not the daemon.
    if let Err(error) = spec.validate() {
        return StepOutcome::Failed { error };
    }
    let ctx = match shared.baselines.get(&spec.design) {
        Ok(ctx) => ctx,
        Err(e) => {
            return StepOutcome::Failed {
                error: e.to_string(),
            }
        }
    };
    if step == 0 {
        shared
            .registry
            .emit(id, "baseline", None, ggjson::ToJson::to_json(&ctx.summary));
    }
    match spec.kind {
        JobKind::Analyze => run_analyze(&ctx, shared.baselines.tech()),
        JobKind::Harden => run_harden(&ctx, shared.baselines.tech(), spec),
        JobKind::Explore => run_explore_step(shared, &ctx, spec, step, ckpt, flight),
    }
}

fn run_analyze(ctx: &DesignContext, tech: &Technology) -> StepOutcome {
    let battery = secmetrics::attack::battery_success_rate(&ctx.base().security, tech);
    let result = Json::Obj(vec![
        ("baseline".to_owned(), ggjson::ToJson::to_json(&ctx.summary)),
        ("battery_success".to_owned(), Json::Num(battery)),
    ]);
    StepOutcome::Finished {
        generation: None,
        data: result.clone(),
        result,
    }
}

fn run_harden(ctx: &DesignContext, tech: &Technology, spec: &JobSpec) -> StepOutcome {
    let cfg = match spec.op.as_str() {
        "cs" => FlowConfig::cell_shift_default(),
        "lda" => FlowConfig::lda_default(),
        other => {
            return StepOutcome::Failed {
                error: format!("unknown operator '{other}' (expected cs or lda)"),
            }
        }
    };
    // The oracle path (no engine), seed 1: the exact computation the
    // one-shot `ggd harden` has always run.
    let mut hardened = match FlowRun::new(ctx.base(), tech, &cfg).snapshot() {
        Ok(s) => s,
        Err(e) => {
            return StepOutcome::Failed {
                error: e.to_string(),
            }
        }
    };
    let metrics = FlowMetrics::from_snapshot(&hardened, ctx.base());
    let battery = secmetrics::attack::battery_success_rate(&hardened.security, tech);
    let mut wrote = Json::Null;
    if let Some(path) = &spec.out {
        // The snapshot's layout is Arc-shared; un-share before mutating.
        let hl = std::sync::Arc::make_mut(&mut hardened.layout);
        layout::insert_fillers(hl.occupancy_mut(), tech);
        let lib = gdsii::layout_to_gds(&hardened.layout, tech, Some(&hardened.routing));
        if let Err(e) = std::fs::write(path, lib.to_bytes()) {
            return StepOutcome::Failed {
                error: format!("cannot write {path}: {e}"),
            };
        }
        wrote = Json::Str(path.clone());
    }
    let result = Json::Obj(vec![
        ("baseline".to_owned(), ggjson::ToJson::to_json(&ctx.summary)),
        (
            "hardened".to_owned(),
            ggjson::ToJson::to_json(&BaselineSummary::from_snapshot(&hardened)),
        ),
        ("metrics".to_owned(), ggjson::ToJson::to_json(&metrics)),
        ("battery_success".to_owned(), Json::Num(battery)),
        ("wrote".to_owned(), wrote),
    ]);
    StepOutcome::Finished {
        generation: None,
        data: result.clone(),
        result,
    }
}

/// The wall one explore step may take under a per-candidate `deadline`
/// before the supervisor calls it wedged. A step evaluates at most two
/// batches of `max(population, 2)` candidates (offspring, then the
/// top-up), each spread over the worker threads, and every candidate
/// runs at most two deadline-bounded stages; eight budgets per candidate
/// a worker takes in turn leave each stage 4× slack for the overshoot of
/// its cooperative checks. A zero budget quarantines every candidate at
/// its first check and bounds no wall, so it arms nothing.
fn step_watchdog(deadline: Option<Duration>, params: &Nsga2Params) -> Option<Duration> {
    let budget = deadline.filter(|d| !d.is_zero())?;
    let turns = 2 * params
        .population
        .max(2)
        .div_ceil(params.resolved_threads().max(1));
    Some(budget.saturating_mul(u32::try_from(8 * turns).unwrap_or(u32::MAX)))
}

/// Runs explore step `step`: generation `step` of the job's run, resumed
/// from its checkpoint when the job has one (a later step, or a `resume`
/// spec) and started afresh otherwise. The run is saved back only if this
/// step evaluated something, so a step the checkpoint already holds (one
/// a crash re-queued after its checkpoint landed) is answered from the
/// archive without a write.
fn run_explore_step(
    shared: &Shared,
    ctx: &DesignContext,
    spec: &JobSpec,
    step: u64,
    ckpt: &Path,
    flight: Option<&Flight>,
) -> StepOutcome {
    let params = Nsga2Params::builder()
        .population(spec.population)
        .generations(spec.generations)
        .seed(spec.seed)
        .threads(spec.threads)
        .build();
    let tech = shared.baselines.tech();
    let engine = ctx.engine(tech);
    let base = engine.base();
    // The watchdog bounds the candidate evaluations the deadline bounds,
    // so its clock starts only now that the baseline and engine exist.
    if let (Some(flight), Some(limit)) =
        (flight, step_watchdog(shared.config.eval_deadline, &params))
    {
        flight.arm(limit);
    }
    // Cooperative per-candidate budget: a wedged evaluation trips its own
    // deadline long before the supervisor's watchdog has to declare the
    // whole runner stuck.
    let policy = SandboxPolicy {
        deadline: shared.config.eval_deadline,
    };
    let failed = |e: Error| StepOutcome::Failed {
        error: e.to_string(),
    };
    let saved = ckpt.exists() || prev_path(ckpt).exists();
    let (mut run, mut evaluated) = if (step > 0 || spec.resume) && saved {
        // A corrupt primary degrades to the `.prev` last-good envelope;
        // the generation it lacks re-runs deterministically below. The
        // unreadable primary goes (a crash inside `save` may already have
        // removed it), so the next save keeps the good envelope as `.prev`
        // instead of renaming the torn one onto it.
        let resumed = Checkpoint::load_with_fallback(ckpt).and_then(|(cp, fell_back)| {
            if fell_back {
                let _ = std::fs::remove_file(ckpt);
            }
            let run = Exploration::resume(&cp, base, &params)?;
            if step == 0 {
                obs::diagln!(
                    "nsga2: resumed from checkpoint at generation {} ({} evaluated, {} \
                     quarantined)",
                    cp.generation,
                    cp.order.len(),
                    cp.quarantine.len()
                );
            }
            Ok(run)
        });
        match resumed {
            Ok(run) => (run, false),
            Err(e) => return failed(e),
        }
    } else {
        (Exploration::start(engine, tech, &params, &policy), true)
    };
    while (run.generation() as u64) < step {
        run.step(engine, tech, &policy);
        evaluated = true;
    }
    if evaluated {
        if let Err(e) = run.checkpoint(base).save(ckpt) {
            return failed(e);
        }
    }
    let result = run.result(base);
    let data = progress_data(&result, step);
    if step < spec.generations as u64 {
        return StepOutcome::Progress {
            generation: step,
            data,
        };
    }
    // Final generation: assemble the result payload and artifacts.
    let mut wrote = Json::Null;
    if let Some(path) = &spec.out {
        if let Err(e) = std::fs::write(path, ggjson::to_vec_pretty(&result)) {
            return StepOutcome::Failed {
                error: format!("cannot write {path}: {e}"),
            };
        }
        wrote = Json::Str(path.clone());
    }
    let payload = Json::Obj(vec![
        ("baseline".to_owned(), ggjson::ToJson::to_json(&ctx.summary)),
        ("explore".to_owned(), ggjson::ToJson::to_json(&result)),
        ("wrote".to_owned(), wrote),
    ]);
    StepOutcome::Finished {
        generation: Some(step),
        data,
        result: payload,
    }
}

/// Builds the `generation` (or `done`) event payload of explore step
/// `step` from the run's archive alone, so a restarted job, or one whose
/// checkpoint is ahead of its step, reports what the uninterrupted run
/// did: the points first evaluated at or before generation `step`, the
/// size of their Pareto front, the front's members added and removed
/// since generation `step - 1` and, when telemetry is on, the cumulative
/// obs snapshot.
fn progress_data(result: &ExploreResult, step: u64) -> Json {
    let front_keys = |generation: usize| -> Vec<String> {
        result
            .front_through(generation)
            .iter()
            .map(|p| ggjson::to_string_compact(&p.genome))
            .collect()
    };
    let step = usize::try_from(step).unwrap_or(usize::MAX);
    let keys = front_keys(step);
    let prev = step.checked_sub(1).map(front_keys).unwrap_or_default();
    let added: Vec<String> = keys.iter().filter(|k| !prev.contains(k)).cloned().collect();
    let removed: Vec<String> = prev.iter().filter(|k| !keys.contains(k)).cloned().collect();
    let points = result
        .points
        .iter()
        .filter(|p| p.generation <= step)
        .count();
    let mut members = vec![
        ("points".to_owned(), Json::Num(points as f64)),
        ("front_size".to_owned(), Json::Num(keys.len() as f64)),
        ("added".to_owned(), ggjson::ToJson::to_json(&added)),
        ("removed".to_owned(), ggjson::ToJson::to_json(&removed)),
    ];
    let snap = obs::snapshot();
    if !snap.is_empty() {
        members.push(("obs".to_owned(), obs_json(&snap)));
    }
    Json::Obj(members)
}

/// An event's `obs` member: each section of `snap` as an object keyed by
/// metric or span name. Numbers are JSON numbers (`f64`, like every
/// number on the wire).
fn obs_json(snap: &obs::MetricsSnapshot) -> Json {
    fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }
    let num = |v: u64| Json::Num(v as f64);
    let counters = obj(snap.counters.iter().map(|(n, v)| (n.as_str(), num(*v))));
    let histograms = obj(snap.histograms.iter().map(|h| {
        let buckets = h
            .buckets
            .iter()
            .map(|&(bound, n)| Json::Arr(vec![num(bound), num(n)]));
        let members = [
            ("count", num(h.count)),
            ("sum", num(h.sum)),
            ("buckets", Json::Arr(buckets.collect())),
        ];
        (h.name.as_str(), obj(members))
    }));
    let spans = obj(snap.spans.iter().map(|s| {
        let members = [("count", num(s.count)), ("total_nanos", num(s.total_nanos))];
        (s.name.as_str(), obj(members))
    }));
    obj([
        ("counters", counters),
        ("histograms", histograms),
        ("spans", spans),
    ])
}

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    // `incoming` never returns `None`; shutdown is signalled by a flag
    // plus a dummy self-connection that unblocks the accept.
    for conn in listener.incoming() {
        if shared.registry.is_shutdown() {
            break;
        }
        match conn {
            Ok(stream) => {
                let sh = Arc::clone(shared);
                std::thread::spawn(move || handle_conn(&sh, stream));
            }
            Err(_) => continue,
        }
    }
}

fn handle_conn(shared: &Shared, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        if handle_line(shared, &line, &mut writer).is_err() {
            return;
        }
    }
}

fn write_line(writer: &mut UnixStream, resp: &Response) -> std::io::Result<()> {
    let mut line = resp.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn handle_line(shared: &Shared, line: &str, writer: &mut UnixStream) -> std::io::Result<()> {
    let req = match Request::from_line(line) {
        Ok(req) => req,
        Err(e) => return write_line(writer, &Response::Err(e.to_string())),
    };
    let registry = &shared.registry;
    let reply = |r: Result<Json, String>| match r {
        Ok(payload) => Response::Ok(payload),
        Err(why) => Response::Err(why),
    };
    let status = |id: u64| registry.status(id).map(|s| ggjson::ToJson::to_json(&s));
    let resp = match req {
        Request::Ping => Response::Ok(Json::Str("pong".into())),
        Request::Jobs => Response::Ok(ggjson::ToJson::to_json(&registry.jobs())),
        Request::Stats => Response::Ok(ggjson::ToJson::to_json(&collect_stats(shared))),
        Request::Shutdown => {
            registry.shutdown();
            let out = write_line(writer, &Response::Ok(Json::Str("bye".into())));
            if let Some(path) = &shared.config.socket {
                let _ = UnixStream::connect(path);
            }
            return out;
        }
        Request::Submit(spec) => match submit(shared, spec) {
            Ok(id) => Response::Ok(Json::Obj(vec![("job".to_owned(), Json::Num(id as f64))])),
            Err(Error::Busy(why)) => Response::Busy(why),
            // The wire carries the bare diagnostic, not `Error`'s prefix.
            Err(Error::Serve(why)) => Response::Err(why),
            Err(e) => Response::Err(e.to_string()),
        },
        Request::Status(id) => reply(status(id)),
        Request::Pause(id) => reply(registry.pause(id).and_then(|()| status(id))),
        Request::Resume(id) => reply(registry.resume(id).and_then(|()| status(id))),
        Request::Cancel(id) => reply(registry.cancel(id).and_then(|()| status(id))),
        Request::Result(id) => reply(registry.result(id)),
        Request::Watch { job, from } => {
            let mut cursor = from;
            loop {
                let wait = Duration::from_millis(200);
                let (events, terminal) = match registry.events_since(job, cursor, true, wait) {
                    Ok(pair) => pair,
                    Err(why) => break Response::Err(why),
                };
                cursor += events.len() as u64;
                for e in events {
                    write_line(writer, &Response::Event(e))?;
                }
                if terminal {
                    break reply(status(job));
                }
                if registry.is_shutdown() {
                    break Response::Err("server shutting down".to_owned());
                }
            }
        }
    };
    write_line(writer, &resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_scales_with_the_candidates_a_worker_evaluates() {
        let params = |population, threads| {
            Nsga2Params::builder()
                .population(population)
                .threads(threads)
                .build()
        };
        let ms = Duration::from_millis;
        // 16 candidates over 4 workers: 2 batches of 4 turns, 8 budgets each.
        assert_eq!(step_watchdog(Some(ms(10)), &params(16, 4)), Some(ms(640)));
        // A population of 1 still evaluates the two canonical genomes.
        assert_eq!(step_watchdog(Some(ms(10)), &params(1, 1)), Some(ms(320)));
        assert_eq!(step_watchdog(Some(Duration::ZERO), &params(16, 4)), None);
        assert_eq!(step_watchdog(None, &params(16, 4)), None);
    }

    #[test]
    fn obs_member_keeps_every_section() {
        let snap = obs::MetricsSnapshot {
            counters: vec![("rt.counter".into(), 42)],
            histograms: vec![obs::HistogramSnapshot {
                name: "rt.hist".into(),
                count: 5,
                sum: 311,
                buckets: vec![(1, 1), (2, 1), (8, 2), (512, 1), (u64::MAX, 3)],
            }],
            spans: vec![
                obs::SpanSnapshot {
                    name: "rt.outer".into(),
                    count: 1,
                    total_nanos: 900,
                },
                obs::SpanSnapshot {
                    name: "rt.inner \"quoted\"\n".into(),
                    count: 1,
                    total_nanos: 400,
                },
            ],
        };
        // The member travels as one compact line; read it back from there.
        let line = ggjson::to_string_compact(&obs_json(&snap));
        let parsed = ggjson::parse(&line).expect("the obs member is strict JSON");
        let at = |section: &str, key: &str| {
            parsed
                .get(section)
                .and_then(|s| s.get(key))
                .unwrap_or_else(|| panic!("{section}.{key} missing from {line}"))
                .clone()
        };
        assert_eq!(at("counters", "rt.counter").as_num(), Some(42.0));

        let hist = at("histograms", "rt.hist");
        assert_eq!(hist.get("count").and_then(Json::as_num), Some(5.0));
        assert_eq!(hist.get("sum").and_then(Json::as_num), Some(311.0));
        let Some(Json::Arr(buckets)) = hist.get("buckets") else {
            panic!("buckets must be an array");
        };
        let pairs: Vec<(f64, f64)> = buckets
            .iter()
            .map(|b| match b {
                Json::Arr(pair) => (pair[0].as_num().unwrap(), pair[1].as_num().unwrap()),
                other => panic!("bucket must be a [bound, count] pair, got {other:?}"),
            })
            .collect();
        let expected: Vec<(f64, f64)> = snap.histograms[0]
            .buckets
            .iter()
            .map(|&(bound, n)| (bound as f64, n as f64))
            .collect();
        assert_eq!(pairs, expected);

        // Span names, quotes and control characters included, survive.
        let inner = at("spans", "rt.inner \"quoted\"\n");
        assert_eq!(inner.get("count").and_then(Json::as_num), Some(1.0));
        let outer = at("spans", "rt.outer");
        assert_eq!(outer.get("total_nanos").and_then(Json::as_num), Some(900.0));
    }

    #[test]
    fn obs_member_of_an_empty_snapshot_has_empty_sections() {
        let parsed = obs_json(&obs::MetricsSnapshot::default());
        for section in ["counters", "histograms", "spans"] {
            assert_eq!(
                parsed.get(section),
                Some(&Json::Obj(Vec::new())),
                "{section}"
            );
        }
    }
}

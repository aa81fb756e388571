//! The daemon probe every traced run makes: a real `ggd serve` process
//! (one runner, journal on, scratch data dir) fed a short, fixed open-loop
//! mix of explore, harden and analyze jobs on one small design, each job
//! checked against the library. It gives the `serve.*` and `journal.*`
//! layer numbers.
//!
//! Load comes from one submitting connection that sends each job at its
//! due time whether or not earlier jobs finished (open loop). Two watch
//! connections observe every event: the runner claims jobs in submit order
//! (all jobs share one priority; an explore re-queued between generations
//! keeps its original ticket), so jobs finish in submit order, and two
//! watchers taking jobs in that order see each job's events as they happen.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gdsii_guard::prelude::*;
use gdsii_guard::serve::{
    BaselineSummary, Client, JobKind, JobSpec, JobState, Journal, ServerStats,
};
use ggjson::{Json, ToJson};
use tech::Technology;

use crate::stats::{median, ms_since, SeedRng};
use crate::{Args, Report};

/// The probe's design: small enough that an explore job is a few hundred
/// ms, whatever the workload's own design is.
const PROBE_DESIGN: &str = "openMSP430_1";

/// The probe's job pattern, sent once each `SPACING_MS` apart. The mix and
/// spacing were chosen, not measured from traffic: every job kind and a
/// multi-step explore appear, and the offered work averages below what one
/// runner serves. A job sent while an explore runs still waits for all of
/// its remaining steps: a re-queued explore keeps its ticket.
const PATTERN: [JobKind; 12] = {
    use JobKind::{Analyze as A, Explore as E, Harden as H};
    [E, A, H, A, E, A, H, A, E, A, H, A]
};
const SPACING_MS: f64 = 150.0;

/// One scheduled job.
struct JobPlan {
    due_ms: f64,
    spec: JobSpec,
}

/// What the load generator observed for one job.
struct Outcome {
    id: u64,
    sent: Instant,
    acked: Instant,
    /// Arrival of the `started`, every `generation` and the terminal
    /// event, in order: consecutive gaps are the job's steps.
    steps: Vec<Instant>,
    state: Result<JobState, String>,
}

impl Outcome {
    fn ok(&self) -> bool {
        matches!(self.state, Ok(JobState::Done)) && self.steps.len() >= 2
    }
}

/// A `ggd serve` child process; killed and reaped on drop unless stopped.
struct Daemon {
    child: Option<Child>,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn start(ggd: &Path, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("ggd.sock");
        let log = std::fs::File::create(dir.join("ggd.log")).map_err(|e| e.to_string())?;
        let child = Command::new(ggd)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--runners")
            .arg("1")
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .env_remove("GG_FAULTS")
            .env_remove("GG_EVAL_DEADLINE_MS")
            .env_remove("GG_STUCK_MS")
            .env_remove("GG_MAX_QUEUED")
            .env_remove("GG_SERVE_MEM_BUDGET")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ggd.display()))?;
        let daemon = Daemon {
            child: Some(child),
            dir: dir.to_path_buf(),
            socket,
        };
        Client::connect_with_retry(&daemon.socket, Duration::from_secs(20))
            .map_err(|e| format!("daemon never came up: {e}"))?;
        Ok(daemon)
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| e.to_string())
    }

    /// Asks the daemon to shut down and reaps it (killing it after 20 s).
    fn stop(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("daemon ignored shutdown; killed".into());
                    }
                }
            }
        }
        asked
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Submits an analyze job for `design` and waits for it: afterwards the
/// design's baseline is built and cached in the daemon.
fn warm(d: &Daemon, design: &str) -> Result<(), String> {
    let mut c = d.client()?;
    let id = c
        .submit(&JobSpec::analyze(design))
        .map_err(|e| e.to_string())?;
    let st = c.watch(id, 0, |_| {}).map_err(|e| e.to_string())?;
    if st.state != JobState::Done {
        return Err(format!("warm-up job {id} ended {}", st.state.as_str()));
    }
    Ok(())
}

/// Runs one open-loop schedule against `d`; returns an outcome per plan,
/// in plan order (a refused or failed submit is an outcome with an error).
fn run_schedule(d: &Daemon, plans: &[JobPlan]) -> Result<Vec<Outcome>, String> {
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let rx = Mutex::new(rx);
    let watched = Mutex::new(BTreeMap::new());
    let watchers: Vec<Client> = (0..2).map(|_| d.client()).collect::<Result<_, _>>()?;
    let mut submitter = d.client()?;
    let mut submitted = Vec::with_capacity(plans.len());
    std::thread::scope(|s| {
        for mut c in watchers {
            let (rx, watched) = (&rx, &watched);
            s.spawn(move || loop {
                let next = rx.lock().expect("watch queue lock").recv();
                let Ok((k, id)) = next else { break };
                let mut steps = Vec::new();
                let status = c.watch(id, 0, |e| match e.kind.as_str() {
                    "started" | "generation" | "done" | "failed" | "cancelled" => {
                        steps.push(Instant::now())
                    }
                    _ => {}
                });
                let state = status.map(|st| st.state).map_err(|e| e.to_string());
                watched
                    .lock()
                    .expect("watch results lock")
                    .insert(k, (steps, state));
            });
        }
        let t0 = Instant::now();
        for (k, plan) in plans.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(plan.due_ms / 1e3);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let id = submitter.submit(&plan.spec);
            let acked = Instant::now();
            if let Ok(id) = &id {
                // Watchers only stop when the channel closes below.
                let _ = tx.send((k, *id));
            }
            submitted.push((sent, acked, id));
        }
        drop(tx);
    });
    let mut watched = watched.into_inner().expect("watch results lock");
    Ok(submitted
        .into_iter()
        .enumerate()
        .map(|(k, (sent, acked, id))| {
            let (steps, state) = match (&id, watched.remove(&k)) {
                (Ok(_), Some(w)) => w,
                (Ok(_), None) => (Vec::new(), Err("never watched".into())),
                (Err(e), _) => (Vec::new(), Err(format!("submit refused: {e}"))),
            };
            Outcome {
                id: *id.as_ref().unwrap_or(&0),
                sent,
                acked,
                steps,
                state,
            }
        })
        .collect())
}

/// The probe's schedule; only the explore jobs' NSGA-II seeds come from
/// the run's seed. Hardens alternate between `cs` and `lda`.
fn schedule(seed: u64) -> Vec<JobPlan> {
    let mut rng = SeedRng::new(seed ^ 0x5E7E);
    let mut hardens = 0;
    PATTERN
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            let spec = match kind {
                JobKind::Explore => {
                    let mut s = JobSpec::explore(PROBE_DESIGN);
                    s.population = 8;
                    s.generations = 3;
                    // Job seeds travel as JSON numbers: keep them below 2^53.
                    s.seed = rng.next_u64() >> 11;
                    s.threads = 1;
                    s
                }
                JobKind::Harden => {
                    hardens += 1;
                    JobSpec::harden(PROBE_DESIGN, if hardens % 2 == 1 { "cs" } else { "lda" })
                }
                JobKind::Analyze => JobSpec::analyze(PROBE_DESIGN),
            };
            JobPlan {
                due_ms: k as f64 * SPACING_MS,
                spec,
            }
        })
        .collect()
}

fn compact(j: Option<&Json>) -> String {
    j.map(ggjson::to_string_compact).unwrap_or_default()
}

/// Checks every job's result against the library: explores must equal
/// `explore_with_engine` at the job's seed, hardens the from-scratch
/// `FlowRun`, analyzes the baseline summary.
fn verify(
    tech: &Technology,
    plans: &[JobPlan],
    outcomes: &[Outcome],
    payloads: &[Option<Json>],
    report: &mut Report,
) -> Result<(), String> {
    let spec = netlist::bench::spec_by_name(PROBE_DESIGN).ok_or("unknown design")?;
    let base = implement_baseline(&spec, tech).map_err(|e| e.to_string())?;
    // One engine shared in submit (= completion) order, like the daemon's.
    let engine = EvalEngine::new(&base, tech);
    for ((plan, out), payload) in plans.iter().zip(outcomes).zip(payloads) {
        let (spec, payload) = (&plan.spec, payload.as_ref());
        let matches = match spec.kind {
            JobKind::Explore => {
                let p = Nsga2Params::builder()
                    .population(spec.population)
                    .generations(spec.generations)
                    .seed(spec.seed)
                    .threads(spec.threads)
                    .build();
                let lib = explore_with_engine(&engine, tech, &p, &ExploreOptions::default())
                    .map_err(|e| e.to_string())?;
                compact(payload.and_then(|p| p.get("explore"))) == ggjson::to_string_compact(&lib)
            }
            JobKind::Harden => {
                let cfg = if spec.op == "lda" {
                    FlowConfig::lda_default()
                } else {
                    FlowConfig::cell_shift_default()
                };
                let m = FlowRun::new(&base, tech, &cfg)
                    .metrics()
                    .map_err(|e| e.to_string())?;
                compact(payload.and_then(|p| p.get("metrics"))) == ggjson::to_string_compact(&m)
            }
            JobKind::Analyze => {
                let sum = BaselineSummary::from_snapshot(&base).to_json();
                compact(payload.and_then(|p| p.get("baseline"))) == ggjson::to_string_compact(&sum)
            }
        };
        report.check(out.ok() && matches, || {
            format!(
                "probe job {} ({} {}): state {:?}, result matches library: {matches}",
                out.id,
                spec.kind.as_str(),
                spec.design,
                out.state
            )
        });
    }
    Ok(())
}

/// Per-layer serve numbers from the probe.
pub struct Served {
    submit_rtt_ms: f64,
    queue_wait_ms: f64,
    step_ms: f64,
    baseline_hit_ratio: f64,
    journal_replay_ms: f64,
    journal_bytes: f64,
}

impl Served {
    fn measure(outcomes: &[Outcome], stats: &ServerStats, journal: &Path) -> Result<Self, String> {
        let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.ok()).collect();
        let rtt: Vec<f64> = ok
            .iter()
            .map(|o| (o.acked - o.sent).as_secs_f64() * 1e3)
            .collect();
        let wait: Vec<f64> = ok
            .iter()
            .map(|o| (o.steps[0].max(o.acked) - o.acked).as_secs_f64() * 1e3)
            .collect();
        let steps: Vec<f64> = ok
            .iter()
            .flat_map(|o| {
                o.steps
                    .windows(2)
                    .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            })
            .collect();
        let mut replay = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let records = Journal::replay(journal).map_err(|e| e.to_string())?;
            replay.push(ms_since(t0));
            std::hint::black_box(records);
        }
        let bytes: u64 = std::fs::read_dir(journal)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        let (b, h) = (stats.baseline_builds, stats.baseline_hits);
        Ok(Self {
            submit_rtt_ms: median(&rtt),
            queue_wait_ms: median(&wait),
            step_ms: median(&steps),
            baseline_hit_ratio: h as f64 / (b + h).max(1) as f64,
            journal_replay_ms: median(&replay),
            journal_bytes: bytes as f64,
        })
    }

    /// Reports the serve, journal and checkpoint layer metrics.
    pub fn put(&self, report: &mut Report, (save_ms, load_ms, ckpt_bytes): (f64, f64, f64)) {
        report.put("serve.submit_rtt_ms", self.submit_rtt_ms, "ms");
        report.put("serve.queue_wait_ms", self.queue_wait_ms, "ms");
        report.put("serve.step_ms", self.step_ms, "ms");
        report.put("serve.baseline_hit_ratio", self.baseline_hit_ratio, "ratio");
        report.put("checkpoint.save_ms", save_ms, "ms");
        report.put("checkpoint.load_ms", load_ms, "ms");
        report.put("checkpoint.bytes", ckpt_bytes, "bytes");
        report.put("journal.replay_ms", self.journal_replay_ms, "ms");
        report.put("journal.bytes", self.journal_bytes, "bytes");
    }
}

/// Runs the probe: start the daemon, warm the probe design, send the
/// schedule, fetch every result, check it against the library.
pub fn probe(
    args: &Args,
    scratch: &Path,
    tech: &Technology,
    report: &mut Report,
) -> Result<Served, String> {
    let plans = schedule(args.seed);
    let d = Daemon::start(&args.ggd, &scratch.join("probe"))?;
    warm(&d, PROBE_DESIGN)?;
    let outcomes = run_schedule(&d, &plans)?;
    let mut c = d.client()?;
    let payloads: Vec<Option<Json>> = outcomes
        .iter()
        .map(|o| if o.ok() { c.result(o.id).ok() } else { None })
        .collect();
    let stats = c.stats().map_err(|e| e.to_string())?;
    drop(c);
    let journal = d.dir.join("journal");
    d.stop()?;
    verify(tech, &plans, &outcomes, &payloads, report)?;
    Served::measure(&outcomes, &stats, &journal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed offers the same load; only the explore seeds differ.
    #[test]
    fn schedule_keeps_the_mix_fixed_across_seeds() {
        let (a, b) = (schedule(1), schedule(2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec.kind, y.spec.kind);
            assert_eq!(x.due_ms, y.due_ms);
            assert_eq!(x.spec.op, y.spec.op);
        }
        let seeds = |s: &[JobPlan]| -> Vec<u64> {
            s.iter()
                .filter(|p| p.spec.kind == JobKind::Explore)
                .map(|p| p.spec.seed)
                .collect()
        };
        assert_eq!(seeds(&a), seeds(&schedule(1)));
        assert_ne!(seeds(&a), seeds(&b));
        assert!(seeds(&a).iter().all(|&s| s < 1 << 53));
    }
}

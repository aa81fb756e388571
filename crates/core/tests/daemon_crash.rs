//! Crash drills over the real `ggd` binary: SIGKILL the daemon at every
//! generation boundary of a TINY explore, restart it against the same
//! journal directory, and assert the recovered job finishes with a
//! result bit-identical to an uninterrupted library run. Also drills
//! runner supervision (an injected runner panic fails the job and
//! restarts the thread) and admission backpressure (`{"busy":…}` on the
//! wire surfaces as the retryable [`Error::Busy`]).

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gdsii_guard::prelude::*;
use gdsii_guard::serve::{Client, JobSpec, JobState, RetryPolicy};
use gdsii_guard::Error;
use ggjson::ToJson;
use tech::Technology;

const POP: usize = 4;
const GENS: usize = 2;

/// A real `ggd serve` child process with a journal. Unlike the smoke
/// test's helper, `start` does NOT wipe the scratch directory — restarts
/// must find the journal and checkpoints the killed process left behind.
struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
    /// The child's stderr, which `drop` prints when the test fails.
    stderr: PathBuf,
}

/// Numbers the daemons this binary starts, so a restart on the same
/// scratch directory keeps its predecessor's stderr file.
static STARTS: AtomicUsize = AtomicUsize::new(0);

impl Daemon {
    fn start(dir: &PathBuf, extra_env: &[(&str, &str)]) -> Self {
        std::fs::create_dir_all(dir).expect("create scratch dir");
        let socket = dir.join("ggd.sock");
        let stderr = dir.join(format!(
            "ggd-{}.stderr",
            STARTS.fetch_add(1, Ordering::Relaxed)
        ));
        let log = std::fs::File::create(&stderr).expect("create stderr file");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ggd"));
        cmd.args([
            "serve",
            "--socket",
            socket.to_str().expect("utf-8 path"),
            "--data-dir",
            dir.join("data").to_str().expect("utf-8 path"),
            "--journal-dir",
            dir.join("journal").to_str().expect("utf-8 path"),
            "--runners",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(log);
        for (k, v) in extra_env {
            cmd.env(k, v);
        }
        let child = cmd.spawn().expect("spawn ggd serve");
        Self {
            child,
            socket: socket.clone(),
            dir: dir.clone(),
            stderr,
        }
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(&self.socket, Duration::from_secs(30)).expect("daemon comes up")
    }

    /// SIGKILL — no drain, no flush, no goodbye. The whole point.
    fn sigkill(&mut self) {
        self.child.kill().expect("kill -9 the daemon");
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.shutdown();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A test that fails before `shutdown` must not leave `ggd serve` running
/// after the test binary exits, and shows what the daemon wrote to stderr.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if std::thread::panicking() {
            let log = std::fs::read_to_string(&self.stderr).unwrap_or_default();
            eprintln!("--- {} ---\n{log}", self.stderr.display());
        }
    }
}

fn tiny_explore() -> JobSpec {
    let mut spec = JobSpec::explore("TINY");
    spec.population = POP;
    spec.generations = GENS;
    spec
}

/// The uninterrupted library run every recovered result must match.
fn oracle_json() -> String {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech).expect("tiny baseline");
    let params = Nsga2Params::builder()
        .population(POP)
        .generations(GENS)
        .build();
    ggjson::to_string_pretty(&explore(&base, &tech, &params).to_json())
}

/// Kill matrix: for every generation boundary k (0 = right after the
/// submit is acknowledged, before any generation completes), SIGKILL the
/// daemon once the k-th `generation` event arrives, restart it on the
/// same journal + data dir, and assert the job finishes bit-identical.
#[test]
fn sigkill_at_every_generation_boundary_recovers_bit_identically() {
    let reference = oracle_json();
    for kill_after in 0..=GENS {
        let dir = std::env::temp_dir().join(format!(
            "gg-daemon-crash-k{kill_after}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut daemon = Daemon::start(&dir, &[]);
        let mut control = daemon.client();
        let id = control.submit(&tiny_explore()).expect("submit explore");

        if kill_after == 0 {
            // The submit record hits the journal before the ACK, so a
            // kill the instant the ACK lands must not lose the job.
            daemon.sigkill();
        } else {
            // Watch with a no-retry client: once the SIGKILL lands the
            // stream dies and we want the error immediately, not after
            // five reconnect attempts against a dead socket.
            let mut watcher =
                Client::with_policy(&daemon.socket, RetryPolicy::none()).expect("watcher connects");
            let mut seen = 0usize;
            let mut killed = false;
            // The stream dying mid-watch is the expected outcome; the job
            // outracing the signal and finishing first is also fine.
            let _ = watcher.watch(id, 0, |event| {
                if event.kind == "generation" {
                    seen += 1;
                    if seen == kill_after {
                        daemon.sigkill();
                        killed = true;
                    }
                }
            });
            assert!(
                killed,
                "kill point {kill_after}: saw only {seen} generation event(s)"
            );
        }

        // Restart on the same journal + data dir and let recovery finish
        // the job under its original id.
        let restarted = Daemon::start(&dir, &[]);
        let mut control = restarted.client();
        let mut kinds = Vec::new();
        let final_status = control
            .watch(id, 0, |e| kinds.push(e.kind.clone()))
            .expect("recovered job streams to completion");
        assert_eq!(
            final_status.state,
            JobState::Done,
            "kill point {kill_after}: recovered job finishes"
        );
        assert!(
            kinds.iter().any(|k| k == "recovered"),
            "kill point {kill_after}: stream records the recovery: {kinds:?}"
        );

        let stats = control.stats().expect("stats");
        assert!(
            stats.recovered_jobs >= 1,
            "kill point {kill_after}: restart re-queued the journaled job"
        );

        let payload = control.result(id).expect("result");
        let recovered_json =
            ggjson::to_string_pretty(payload.get("explore").expect("explore payload"));
        assert_eq!(
            recovered_json, reference,
            "kill point {kill_after}: recovered explore must be bit-identical \
             to the uninterrupted library run"
        );
        restarted.shutdown();
    }
}

/// An injected runner panic (the `serve.runner_panic` drill point) fails
/// the in-flight job with a diagnostic and the supervisor restarts the
/// runner thread — the daemon itself keeps serving.
#[test]
fn runner_panic_fails_the_job_and_restarts_the_runner() {
    let dir = std::env::temp_dir().join(format!("gg-daemon-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(&dir, &[("GG_FAULTS", "serve.runner_panic:always")]);
    let mut control = daemon.client();

    let id = control.submit(&tiny_explore()).expect("submit explore");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        let s = control.status(id).expect("status");
        if s.state.is_terminal() || std::time::Instant::now() > deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        status.state,
        JobState::Failed,
        "panicked step fails the job"
    );
    assert!(
        status
            .error
            .as_deref()
            .is_some_and(|e| e.contains("runner thread died")),
        "diagnostic names the dead runner: {:?}",
        status.error
    );

    // The daemon survived its runner: it still answers, and the stats
    // show the supervisor replaced at least one thread.
    control
        .ping()
        .expect("daemon still serving after the panic");
    let stats = control.stats().expect("stats");
    assert!(
        stats.runner_restarts >= 1,
        "supervisor restarted the dead runner: {stats:?}"
    );
    daemon.shutdown();
}

/// With `--runners 0 --max-queued 1` the second submit is refused with a
/// wire-level `{"busy":…}`; the client retries with backoff and finally
/// surfaces the typed retryable [`Error::Busy`], never a terminal error.
#[test]
fn backpressure_refusals_surface_as_retryable_busy() {
    let dir = std::env::temp_dir().join(format!("gg-daemon-busy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let socket = dir.join("ggd.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args([
            "serve",
            "--socket",
            socket.to_str().expect("utf-8 path"),
            "--data-dir",
            dir.join("data").to_str().expect("utf-8 path"),
            "--no-journal",
            "--runners",
            "0",
            "--max-queued",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ggd serve");

    let mut quick =
        Client::connect_with_retry(&socket, Duration::from_secs(30)).expect("daemon comes up");
    // Shrink the retry budget: the queue never drains (no runners), so
    // the test should spend milliseconds, not the default backoff.
    let mut quick_retry = Client::with_policy(
        &socket,
        RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
        },
    )
    .expect("client connects");

    let first = quick.submit(&tiny_explore()).expect("first submit fits");
    match quick_retry.submit(&tiny_explore()) {
        Err(Error::Busy(why)) => {
            assert!(why.contains("limit 1"), "diagnostic names the limit: {why}")
        }
        other => panic!("expected Error::Busy from a full queue, got {other:?}"),
    }

    // The refusal was admission-level: the first job is still queued,
    // the connection still works, and the reject was counted.
    let status = quick.status(first).expect("status");
    assert_eq!(status.state, JobState::Queued);
    let stats = quick.stats().expect("stats");
    assert!(stats.busy_rejects >= 1, "refusal counted: {stats:?}");
    assert_eq!(stats.queued, 1);

    let _ = quick.shutdown();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

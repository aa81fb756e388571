//! End-to-end drills over the real `ggd` binary. The daemon drill uses a
//! real Unix-domain socket: start `ggd serve`, submit a TINY explore plus
//! a higher-priority analyze, stream progress events, pause and resume
//! the explore mid-watch, and assert the final front is bit-identical to
//! both the library one-shot and the one-shot CLI's stdout. The one-shot
//! drills pin `ggd analyze`/`harden` (stdout and the written GDSII) to
//! the library calls they stand for, in-process and over `--socket`.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use gdsii_guard::prelude::*;
use gdsii_guard::serve::{BaselineSummary, Client, JobSpec, JobState};
use ggjson::ToJson;
use tech::Technology;

const POP: usize = 4;
const GENS: usize = 2;

struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gg-daemon-smoke-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let socket = dir.join("ggd.sock");
        // The daemon runs in its scratch dir, so anything it resolves
        // against its working directory shows up there.
        let child = Command::new(env!("CARGO_BIN_EXE_ggd"))
            .current_dir(&dir)
            .args([
                "serve",
                "--socket",
                socket.to_str().expect("utf-8 path"),
                "--data-dir",
                dir.join("data").to_str().expect("utf-8 path"),
                // Journal into the scratch dir, not the CWD-relative
                // default: a stale journal from a previous run would be
                // recovered as extra jobs and skew the stats asserts.
                "--journal-dir",
                dir.join("journal").to_str().expect("utf-8 path"),
                "--runners",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ggd serve");
        Self { child, socket, dir }
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(&self.socket, Duration::from_secs(30)).expect("daemon comes up")
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
/// after the test binary exits.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn tiny_explore() -> JobSpec {
    let mut spec = JobSpec::explore("TINY");
    spec.population = POP;
    spec.generations = GENS;
    spec
}

/// The library one-shot reference run every daemon result must match.
fn oracle() -> ExploreResult {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech).expect("tiny baseline");
    let params = Nsga2Params::builder()
        .population(POP)
        .generations(GENS)
        .build();
    explore(&base, &tech, &params)
}

fn tiny_baseline() -> (Snapshot, Technology) {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech).expect("tiny baseline");
    (base, tech)
}

/// Runs `ggd` with `args` and returns its stdout, asserting success.
fn ggd_stdout(args: &[&str]) -> String {
    ggd_stdout_with(None, args)
}

/// [`ggd_stdout`] with `GG_EVAL_DEADLINE_MS` set to `deadline_ms`, or
/// removed when `None`.
fn ggd_stdout_with(deadline_ms: Option<&str>, args: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ggd"));
    match deadline_ms {
        Some(ms) => cmd.env("GG_EVAL_DEADLINE_MS", ms),
        None => cmd.env_remove("GG_EVAL_DEADLINE_MS"),
    };
    let out = cmd.args(args).output().expect("run ggd");
    assert!(
        out.status.success(),
        "ggd {args:?} fails:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The stdout `ggd analyze --design TINY` prints, rendered from the
/// library calls the command stands for.
fn expected_analyze_stdout() -> String {
    let (base, tech) = tiny_baseline();
    format!(
        "{}\n  Trojan battery success rate: {:.0} %\n",
        BaselineSummary::from_snapshot(&base).render("baseline"),
        secmetrics::attack::battery_success_rate(&base.security, &tech) * 100.0
    )
}

/// The library's TINY baseline and its harden under `cfg` (the default
/// flow seed, as `ggd harden` runs it).
fn library_harden(cfg: &FlowConfig) -> (Snapshot, Snapshot, Technology) {
    let (base, tech) = tiny_baseline();
    let hardened = FlowRun::new(&base, &tech, cfg)
        .snapshot()
        .expect("tiny hardens");
    (base, hardened, tech)
}

/// The stdout `ggd harden --design TINY` prints for the operator `cfg`
/// names, without `--out`.
fn expected_harden_stdout(cfg: &FlowConfig) -> String {
    let (base, hardened, tech) = library_harden(cfg);
    let m = FlowMetrics::from_snapshot(&hardened, &base);
    format!(
        "{}\n{}\n  security {:.3} (risk reduced {:.1} %), battery success {:.0} %\n",
        BaselineSummary::from_snapshot(&base).render("baseline"),
        BaselineSummary::from_snapshot(&hardened).render("hardened"),
        m.security,
        (1.0 - m.security) * 100.0,
        secmetrics::attack::battery_success_rate(&hardened.security, &tech) * 100.0
    )
}

/// Reproduces the exact stdout `ggd explore` prints for a result, using
/// the same library pieces the binary uses.
fn expected_cli_stdout(result: &ExploreResult) -> String {
    let (base, _) = tiny_baseline();
    let mut out = String::new();
    out.push_str(&BaselineSummary::from_snapshot(&base).render("baseline"));
    out.push('\n');
    out.push_str(&format!(
        "evaluated {} configurations; Pareto front:\n",
        result.points.len()
    ));
    let mut front = result.pareto_front();
    if front.is_empty() {
        let (drc, power) = result.infeasible_counts();
        out.push_str(&format!(
            "  no feasible point: {drc} over the DRC bound ({}), {power} over the power bound \
             ({:.3} mW), {} quarantined\n",
            FlowMetrics::drc_limit(result.base_drc),
            gdsii_guard::BETA_POWER * result.base_power_mw,
            result.quarantined.len()
        ));
    }
    front.sort_by(|a, b| {
        a.metrics
            .security
            .partial_cmp(&b.metrics.security)
            .expect("finite")
    });
    for p in front {
        let op = match p.config.op {
            OpSelect::CellShift => "CS".to_owned(),
            OpSelect::Lda { n, n_iter } => format!("LDA(N={n},it={n_iter})"),
        };
        out.push_str(&format!(
            "  security {:.3}  TNS {:>9.1} ps  power {:.3} mW  DRC {:>3}  {}\n",
            p.metrics.security, p.metrics.tns_ps, p.metrics.power_mw, p.metrics.drc, op
        ));
    }
    out
}

#[test]
fn daemon_round_trip_streams_pauses_and_matches_one_shot() {
    let reference = oracle();
    let reference_json = ggjson::to_string_pretty(&reference.to_json());

    let daemon = Daemon::start("roundtrip");
    let mut control = daemon.client();
    control.ping().expect("daemon answers ping");

    // Two jobs at different priorities share the one TINY baseline: the
    // analyze outranks the explore and runs first.
    let mut watcher = daemon.client();
    let explore_id = control.submit(&tiny_explore()).expect("submit explore");
    let analyze_id = control
        .submit(&JobSpec {
            priority: 9,
            ..JobSpec::analyze("TINY")
        })
        .expect("submit analyze");

    // Stream the explore. On the first generation event, pause from the
    // control connection, verify, then resume — mid-watch, over the
    // socket, without perturbing the result.
    let mut generations_seen = 0u32;
    let mut paused_once = false;
    let final_status = watcher
        .watch(explore_id, 0, |event| {
            if event.kind == "generation" {
                generations_seen += 1;
                if !paused_once {
                    paused_once = true;
                    let paused = control.pause(explore_id).expect("pause over socket");
                    assert!(
                        matches!(paused.state, JobState::Paused | JobState::Running),
                        "pause lands immediately (queued) or at the next boundary (running)"
                    );
                    // Give a running step a moment to reach its boundary,
                    // then resume whatever state we parked it in.
                    let deadline = std::time::Instant::now() + Duration::from_secs(30);
                    loop {
                        let s = control.status(explore_id).expect("status");
                        if s.state == JobState::Paused || std::time::Instant::now() > deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    control.resume(explore_id).expect("resume over socket");
                }
            }
        })
        .expect("watch to completion");
    assert_eq!(final_status.state, JobState::Done);
    assert!(
        generations_seen >= 1,
        "watch streamed at least one generation progress event"
    );
    assert!(paused_once, "the pause/resume drill actually ran");

    // Event stream shape: queued → started → baseline → generations.
    let mut replay = daemon.client();
    let mut kinds = Vec::new();
    replay
        .watch(explore_id, 0, |e| kinds.push(e.kind.clone()))
        .expect("replay event stream");
    assert_eq!(&kinds[..2], ["queued", "started"]);
    assert!(kinds.contains(&"baseline".to_owned()));
    assert!(
        kinds.iter().any(|k| k == "paused"),
        "stream records the pause"
    );
    assert!(
        kinds.iter().any(|k| k == "resumed"),
        "stream records the resume"
    );
    assert_eq!(kinds.last().map(String::as_str), Some("done"));

    // The analyze job finished too, and the daemon built TINY only once.
    let analyze_status = control.status(analyze_id).expect("status");
    assert_eq!(analyze_status.state, JobState::Done);
    let stats = control.stats().expect("stats");
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.baseline_builds, 1, "shared baseline cache");
    assert!(stats.baseline_hits >= 1);

    // A one-shot command pointed at the daemon runs there, and prints
    // what it prints in-process.
    let socket = daemon.socket.to_str().expect("utf-8 path");
    assert_eq!(
        ggd_stdout(&["analyze", "--design", "TINY", "--socket", socket]),
        expected_analyze_stdout()
    );

    // Bit-identity: the daemon's ExploreResult equals the library
    // one-shot, despite the pause/resume and the interleaved job.
    let payload = control.result(explore_id).expect("result");
    let daemon_json = ggjson::to_string_pretty(payload.get("explore").expect("explore payload"));
    assert_eq!(
        daemon_json, reference_json,
        "daemon explore (paused, resumed, interleaved) must be bit-identical \
         to the one-shot library run"
    );

    daemon.shutdown();

    // And the one-shot CLI prints exactly the front this result renders.
    let stdout = ggd_stdout(&["explore", "--design", "TINY", "--pop", "4", "--gens", "2"]);
    assert_eq!(
        stdout,
        expected_cli_stdout(&reference),
        "one-shot CLI stdout is pinned bit-identical to the library result"
    );
}

#[test]
fn cli_rejects_unknown_flags_and_prints_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["explore", "--design", "TINY", "--no-such-flag"])
        .output()
        .expect("run ggd");
    assert!(!out.status.success(), "unknown flags are errors");
    let mut all = String::new();
    all.push_str(&String::from_utf8_lossy(&out.stderr));
    assert!(all.contains("--no-such-flag") || all.contains("no-such-flag"));

    let help = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["--help"])
        .output()
        .expect("run ggd --help");
    assert!(help.status.success(), "--help exits cleanly");
    let text = String::from_utf8_lossy(&help.stderr);
    assert!(text.contains("usage: ggd"));
    assert!(text.contains("serve"), "help documents the daemon");
}

#[test]
fn positional_design_is_refused_naming_the_flag() {
    // The removed positional form `ggd analyze TINY` fails and points
    // at the flag that replaced it; an unknown design fails naming it.
    for (args, needle) in [
        (["analyze", "TINY"].as_slice(), "--design"),
        (["analyze", "--design", "NO_SUCH"].as_slice(), "NO_SUCH"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
            .args(args)
            .output()
            .expect("run ggd");
        assert!(!out.status.success(), "ggd {args:?} is an error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "error names {needle}: {stderr}");
    }
}

#[test]
fn one_shot_commands_print_what_the_library_computes() {
    assert_eq!(
        ggd_stdout(&["analyze", "--design", "TINY"]),
        expected_analyze_stdout()
    );
    assert_eq!(
        ggd_stdout(&["harden", "--design", "TINY"]),
        expected_harden_stdout(&FlowConfig::cell_shift_default())
    );
    assert_eq!(
        ggd_stdout(&["harden", "--design", "TINY", "--op", "lda"]),
        expected_harden_stdout(&FlowConfig::lda_default())
    );
}

/// A per-candidate evaluation budget bounds explore candidates only: a
/// 1 ms budget leaves analyze and harden output untouched however long
/// their baseline takes, and a zero budget quarantines every candidate
/// of a one-shot explore without failing the command.
#[test]
fn one_shot_commands_finish_under_a_tiny_eval_deadline() {
    assert_eq!(
        ggd_stdout_with(Some("1"), &["analyze", "--design", "TINY"]),
        expected_analyze_stdout()
    );
    assert_eq!(
        ggd_stdout_with(Some("1"), &["harden", "--design", "TINY"]),
        expected_harden_stdout(&FlowConfig::cell_shift_default())
    );
    let (base, tech) = tiny_baseline();
    let params = Nsga2Params::builder()
        .population(POP)
        .generations(1)
        .build();
    let quarantined = explore_with_engine(
        &EvalEngine::new(&base, &tech),
        &tech,
        &params,
        &ExploreOptions {
            deadline: Some(Duration::ZERO),
        },
    )
    .expect("library explore");
    assert_eq!(
        quarantined.quarantined.len(),
        quarantined.points.len(),
        "a zero budget quarantines every candidate"
    );
    let pop = POP.to_string();
    assert_eq!(
        ggd_stdout_with(
            Some("0"),
            &["explore", "--design", "TINY", "--pop", &pop, "--gens", "1"]
        ),
        expected_cli_stdout(&quarantined)
    );
}

#[test]
fn harden_out_writes_the_library_gds() {
    let dir = std::env::temp_dir().join(format!("gg-harden-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("tiny.gds");
    let path_str = path.to_str().expect("utf-8 path");
    let stdout = ggd_stdout(&["harden", "--design", "TINY", "--out", path_str]);
    assert!(
        stdout.ends_with(&format!("  wrote {path_str}\n")),
        "{stdout}"
    );

    assert_eq!(
        std::fs::read(&path).expect("ggd wrote the file"),
        library_harden_gds(),
        "ggd harden --out writes the library's filled, hardened layout"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The GDSII bytes `ggd harden --design TINY --out` writes: the library's
/// Cell Shift harden, filled.
fn library_harden_gds() -> Vec<u8> {
    let (_, mut hardened, tech) = library_harden(&FlowConfig::cell_shift_default());
    let layout = std::sync::Arc::make_mut(&mut hardened.layout);
    layout::insert_fillers(layout.occupancy_mut(), &tech);
    gdsii::layout_to_gds(&hardened.layout, &tech, Some(&hardened.routing)).to_bytes()
}

/// A relative `--out` names a file in the client's directory even when a
/// daemon in another directory does the work.
#[test]
fn relative_out_on_a_daemon_lands_in_the_client_directory() {
    let daemon = Daemon::start("relative-out");
    let client_dir = daemon.dir.with_extension("client");
    let _ = std::fs::remove_dir_all(&client_dir);
    std::fs::create_dir_all(&client_dir).expect("create client dir");
    let socket = daemon.socket.to_str().expect("utf-8 path");
    daemon.client(); // wait for the socket
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .current_dir(&client_dir)
        .args([
            "harden", "--design", "TINY", "--out", "rel.gds", "--socket", socket,
        ])
        .output()
        .expect("run ggd");
    assert!(
        out.status.success(),
        "ggd harden --socket fails:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.ends_with("/rel.gds\n"), "{stdout}");
    assert_eq!(
        std::fs::read(client_dir.join("rel.gds")).expect("rel.gds in the client dir"),
        library_harden_gds(),
        "the daemon writes the library's layout to the client's rel.gds"
    );
    assert!(
        !daemon.dir.join("rel.gds").exists(),
        "nothing lands in the daemon's directory"
    );
    daemon.shutdown();
    std::fs::remove_dir_all(&client_dir).ok();
}

#[test]
fn verbose_telemetry_renders_on_error_paths() {
    // The harden implements the baseline and then fails to write its
    // output into a directory that does not exist. The error and the
    // --verbose telemetry of the work done before it must both reach
    // stderr.
    let missing = std::env::temp_dir().join(format!("gg-no-such-dir-{}", std::process::id()));
    let out_path = missing.join("x.gds");
    let out_path = out_path.to_str().expect("utf-8 path");
    let out = Command::new(env!("CARGO_BIN_EXE_ggd"))
        .args(["--verbose", "harden", "--design", "TINY", "--out", out_path])
        .output()
        .expect("run ggd");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let error = format!("cannot write {out_path}");
    for needle in [error.as_str(), "telemetry", "baseline.implement"] {
        assert!(stderr.contains(needle), "stderr misses {needle}:\n{stderr}");
    }
}

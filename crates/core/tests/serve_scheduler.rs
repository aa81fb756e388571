//! Scheduler-level tests of the in-process job server: priority order
//! across kinds, shared baseline cache, and the headline guarantee —
//! pause/resume at generation boundaries is bit-identical to an
//! uninterrupted run.
//!
//! Everything runs with `runners: 0`, so the test owns the clock:
//! [`Server::step_once`] executes exactly one scheduler step per call.

use std::path::{Path, PathBuf};

use gdsii_guard::checkpoint::prev_path;
use gdsii_guard::prelude::*;
use gdsii_guard::serve::{
    JobSpec, JobState, JobStatus, Journal, JournalRecord, Server, ServerConfig,
};
use gdsii_guard::Error;
use ggjson::ToJson;
use tech::Technology;

/// A test's scratch directory, removed when the test ends, pass or fail.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gg-serve-scheduler-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server with no runners and no journal over a fresh data dir, which
/// the returned guard removes.
fn test_server(tag: &str) -> (Server, Scratch) {
    let dir = Scratch::new(tag);
    let server = Server::start(ServerConfig {
        socket: None,
        data_dir: Some(dir.0.clone()),
        runners: 0,
        ..ServerConfig::default()
    })
    .expect("server starts");
    (server, dir)
}

/// The config of a server with no runners that keeps its journal and its
/// data dir under `dir`.
fn journaled_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        socket: None,
        data_dir: Some(dir.join("data")),
        journal_dir: Some(dir.join("journal")),
        runners: 0,
        ..ServerConfig::default()
    }
}

fn tiny_explore() -> JobSpec {
    let mut spec = JobSpec::explore("TINY");
    spec.population = 4;
    spec.generations = 2;
    spec
}

fn event_tick(server: &Server, id: u64, kind: &str) -> Option<u64> {
    let (events, _) = server.events_since(id, 0, false).expect("job exists");
    events.iter().find(|e| e.kind == kind).map(|e| e.tick)
}

#[test]
fn higher_priority_jobs_run_first_across_kinds() {
    let (server, _dir) = test_server("priority");
    let explore = server.submit(tiny_explore()).expect("submit");
    let urgent = server
        .submit(JobSpec {
            priority: 9,
            ..JobSpec::analyze("TINY")
        })
        .expect("submit");
    server.run_until_idle();
    assert_eq!(server.status(urgent).expect("status").state, JobState::Done);
    assert_eq!(
        server.status(explore).expect("status").state,
        JobState::Done
    );
    // The analyze job was submitted second but outranks the explore: its
    // start tick precedes the explore's (ticks are server-global).
    let urgent_started = event_tick(&server, urgent, "started").expect("urgent started");
    let explore_started = event_tick(&server, explore, "started").expect("explore started");
    assert!(
        urgent_started < explore_started,
        "priority 9 analyze (tick {urgent_started}) must start before \
         priority 0 explore (tick {explore_started})"
    );
    server.stop();
}

#[test]
fn concurrent_jobs_share_one_baseline_build() {
    let (server, _dir) = test_server("cache");
    let a = server.submit(tiny_explore()).expect("submit");
    let b = server.submit(JobSpec::analyze("TINY")).expect("submit");
    server.run_until_idle();
    assert_eq!(server.status(a).expect("status").state, JobState::Done);
    assert_eq!(server.status(b).expect("status").state, JobState::Done);
    let stats = server.stats();
    assert_eq!(stats.jobs, 2);
    assert_eq!(
        stats.baseline_builds, 1,
        "one TINY baseline build serves every job"
    );
    // Every step after the first hits the cache: the explore has 3
    // steps (gens 0..=2) and the analyze 1, so 3 hits follow the build.
    assert_eq!(stats.baseline_hits, 3);
    // The memory footprint sees the one cached baseline: real occupancy and
    // usage-plane bytes, and a peak RSS (procfs) on Linux runners.
    assert!(stats.occupancy_bytes > 0, "cached baseline occupancy bytes");
    assert!(stats.route_planes_bytes > 0, "cached baseline plane bytes");
    if cfg!(target_os = "linux") {
        assert!(stats.peak_rss_bytes > 0, "VmHWM readable");
    }
    server.stop();
}

#[test]
fn paused_and_resumed_explore_is_bit_identical() -> Result<(), Error> {
    // One-shot oracle, no server involved.
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech)?;
    let spec = tiny_explore();
    let params = Nsga2Params::builder()
        .population(spec.population)
        .generations(spec.generations)
        .build();
    let oracle = explore(&base, &tech, &params);
    let oracle_json = ggjson::to_string_pretty(&oracle.to_json());

    let (server, _dir) = test_server("pause-resume");

    // An uninterrupted server job first: submit-and-run matches one-shot.
    let plain = server.submit(spec.clone())?;
    server.run_until_idle();
    let plain_payload = server.result(plain)?;
    let plain_json =
        ggjson::to_string_pretty(plain_payload.get("explore").expect("explore payload"));
    assert_eq!(
        plain_json, oracle_json,
        "server explore must be bit-identical to the one-shot API"
    );

    // Now the same job paused at every generation boundary and resumed.
    let interrupted = server.submit(spec)?;
    loop {
        assert!(server.step_once(), "job still has steps");
        let status = server.status(interrupted)?;
        if status.state == JobState::Done {
            break;
        }
        server.pause(interrupted)?;
        assert_eq!(
            server.status(interrupted)?.state,
            JobState::Paused,
            "a queued job pauses at the boundary it just reached"
        );
        server.resume(interrupted)?;
    }
    let (events, _) = server.events_since(interrupted, 0, false)?;
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    assert!(
        kinds.iter().filter(|k| **k == "paused").count() >= 2,
        "job was paused at interior generation boundaries: {kinds:?}"
    );
    let interrupted_payload = server.result(interrupted)?;
    let interrupted_json =
        ggjson::to_string_pretty(interrupted_payload.get("explore").expect("explore payload"));
    assert_eq!(
        interrupted_json, oracle_json,
        "pause/resume at every generation boundary must not change results"
    );
    server.stop();
    Ok(())
}

/// Every explore step after the first resumes from the checkpoint the
/// step before it wrote, so a population-1 job (two genomes at
/// generation 0, one after) must run through all its steps.
#[test]
fn population_one_explore_runs_every_step() -> Result<(), Error> {
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech)?;
    let mut spec = tiny_explore();
    spec.population = 1;
    let params = Nsga2Params::builder()
        .population(spec.population)
        .generations(spec.generations)
        .build();
    let oracle_json = ggjson::to_string_pretty(&explore(&base, &tech, &params).to_json());

    let (server, _dir) = test_server("pop1");
    let id = server.submit(spec)?;
    server.run_until_idle();
    let status = server.status(id)?;
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let payload = server.result(id)?;
    assert_eq!(
        ggjson::to_string_pretty(payload.get("explore").expect("explore payload")),
        oracle_json
    );
    server.stop();
    Ok(())
}

#[test]
fn cancelled_queued_job_never_runs_while_neighbor_finishes() {
    let (server, _dir) = test_server("cancel");
    let keep = server.submit(JobSpec::analyze("TINY")).expect("submit");
    let drop_it = server.submit(tiny_explore()).expect("submit");
    server.cancel(drop_it).expect("cancel queued job");
    server.run_until_idle();
    assert_eq!(server.status(keep).expect("status").state, JobState::Done);
    let status = server.status(drop_it).expect("status");
    assert_eq!(status.state, JobState::Cancelled);
    assert_eq!(status.steps_done, 0, "cancelled before any step ran");
    assert!(server.result(drop_it).is_err());
    server.stop();
}

#[test]
fn bad_specs_and_unknown_designs_fail_cleanly() {
    let (server, _dir) = test_server("failures");
    // Version mismatch is refused at submit.
    let mut wrong = JobSpec::analyze("TINY");
    wrong.version = 99;
    assert!(server.submit(wrong).is_err());
    // Unknown designs pass submit (the spec is well-formed) but fail
    // their first step with the resolver's diagnostic.
    let id = server
        .submit(JobSpec::analyze("NO_SUCH_DESIGN"))
        .expect("submit");
    server.run_until_idle();
    let status = server.status(id).expect("status");
    assert_eq!(status.state, JobState::Failed);
    assert!(
        status.error.unwrap_or_default().contains("NO_SUCH_DESIGN"),
        "failure diagnostic names the design"
    );
    server.stop();
}

#[test]
fn oversized_population_is_refused_at_submit() {
    let (server, _dir) = test_server("oversized");
    let mut huge = tiny_explore();
    huge.population = 1_000_000_000_000;
    let err = huge
        .validate()
        .expect_err("population 10^12 must not validate");
    assert!(
        err.contains("population"),
        "diagnostic names the field: {err}"
    );
    assert!(server.submit(huge).is_err(), "submit must refuse the spec");
    assert!(server.jobs().is_empty(), "nothing was queued");
    server.stop();
}

/// A memory budget any process exceeds (1 byte of peak RSS) refuses every
/// submit with the retryable `Busy`, counts it, and queues nothing.
#[test]
fn memory_budget_refuses_submits_as_busy() {
    let data_dir = std::env::temp_dir().join(format!("gg-serve-mem-{}", std::process::id()));
    let server = Server::start(ServerConfig {
        data_dir: Some(data_dir.clone()),
        runners: 0,
        mem_budget_bytes: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    match server.submit(JobSpec::analyze("TINY")) {
        Err(Error::Busy(why)) => assert!(why.contains("memory budget"), "{why}"),
        other => panic!("expected Error::Busy over the memory budget, got {other:?}"),
    }
    assert_eq!(server.stats().busy_rejects, 1);
    assert!(server.jobs().is_empty(), "nothing was queued");
    server.stop();
    std::fs::remove_dir_all(&data_dir).ok();
}

/// Waits for job `id` on a server with runners to reach a terminal
/// state and returns its status.
fn wait_terminal(server: &Server, id: u64) -> JobStatus {
    let mut cursor = 0u64;
    loop {
        let (events, terminal) = server.events_since(id, cursor, true).expect("job exists");
        cursor += events.len() as u64;
        if terminal {
            return server.status(id).expect("status");
        }
    }
}

/// The runner watchdog bounds only what the per-candidate budget bounds:
/// with a 1 ms budget, analyze and harden steps (no candidates) and the
/// baseline build run as long as they need, and a zero budget, which
/// quarantines every candidate at its first check, arms no watchdog.
#[test]
fn watchdog_spares_work_no_candidate_budget_bounds() {
    for (budget_ms, spec) in [
        (1, JobSpec::analyze("TINY")),
        (1, JobSpec::harden("TINY", "lda")),
        (0, tiny_explore()),
    ] {
        let data_dir = std::env::temp_dir().join(format!(
            "gg-serve-watchdog-{}-{budget_ms}-{}",
            std::process::id(),
            spec.kind.as_str()
        ));
        let server = Server::start(ServerConfig {
            data_dir: Some(data_dir.clone()),
            runners: 1,
            eval_deadline: Some(std::time::Duration::from_millis(budget_ms)),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let id = server.submit(spec).expect("submit");
        let status = wait_terminal(&server, id);
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        assert_eq!(server.stats().runner_restarts, 0);
        server.stop();
        std::fs::remove_dir_all(&data_dir).ok();
    }
}

/// A journal written before submit bounded the population can still hold
/// an oversized spec. Recovery re-queues it; its first step must fail the
/// job rather than abort the daemon on an impossible allocation.
#[test]
fn journaled_oversized_spec_fails_its_job_not_the_daemon() {
    let dir = std::env::temp_dir().join(format!("gg-serve-old-spec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut huge = tiny_explore();
    huge.population = 1_000_000_000_000;
    let journal = Journal::open(&dir.join("journal")).expect("journal opens");
    let ckpt = dir.join("data").join("job1.ckpt");
    assert!(journal.append(&JournalRecord::submitted(1, &huge, 0, &ckpt)));
    drop(journal);

    let server = Server::start(journaled_config(&dir)).expect("server recovers the journal");
    assert!(server.step_once(), "the recovered job is runnable");
    let status = server.status(1).expect("recovered job exists");
    assert_eq!(status.state, JobState::Failed);
    assert!(
        status.error.unwrap_or_default().contains("population"),
        "failure names the oversized population"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Asserts that explore job `id` finished with the result of a library
/// explore of `spec` on a fresh engine.
fn assert_matches_library(server: &Server, id: u64, spec: &JobSpec) -> Result<(), Error> {
    let status = server.status(id)?;
    assert_eq!(status.state, JobState::Done, "job {id}: {:?}", status.error);
    let tech = Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech)?;
    let params = Nsga2Params::builder()
        .population(spec.population)
        .generations(spec.generations)
        .seed(spec.seed)
        .build();
    let engine = EvalEngine::new(&base, &tech);
    let oracle = explore_with_engine(&engine, &tech, &params, &ExploreOptions::default())?;
    let payload = server.result(id)?;
    assert_eq!(
        ggjson::to_string_pretty(payload.get("explore").expect("explore payload")),
        ggjson::to_string_pretty(&oracle.to_json()),
        "job {id} must match a one-shot explore at seed {}",
        spec.seed
    );
    Ok(())
}

/// The progress members of job `id`'s `generation` and `done` events, in
/// stream order: each step's generation and its `points`, `front_size`,
/// `added` and `removed`, rendered compactly.
fn progress(server: &Server, id: u64) -> Vec<(u64, String)> {
    let (events, _) = server.events_since(id, 0, false).expect("job exists");
    events
        .iter()
        .filter(|e| e.kind == "generation" || e.kind == "done")
        .map(|e| {
            let members = ["points", "front_size", "added", "removed"].map(|k| {
                ggjson::to_string_compact(e.data.get(k).unwrap_or_else(|| panic!("{k}: {e:?}")))
            });
            (
                e.generation.expect("a step's generation"),
                members.join(" "),
            )
        })
        .collect()
}

/// What an uninterrupted run of `spec` reports at each step.
fn uninterrupted_progress(tag: &str, spec: &JobSpec) -> Vec<(u64, String)> {
    let (server, _dir) = test_server(&format!("{tag}-uninterrupted"));
    let id = server.submit(spec.clone()).expect("submit");
    server.run_until_idle();
    let steps = progress(&server, id);
    server.stop();
    assert_eq!(steps.len(), spec.generations + 1, "one event per step");
    steps
}

/// Asserts that every step event in `seen` (a job's events, possibly
/// across restarts that re-run a step) reports what the uninterrupted run
/// reported at that step, and that every step was reported.
fn assert_progress_matches(seen: &[(u64, String)], uninterrupted: &[(u64, String)]) {
    for (generation, members) in seen {
        let expected = uninterrupted.iter().find(|(g, _)| g == generation);
        assert_eq!(
            Some(members),
            expected.map(|(_, m)| m),
            "generation {generation} differs from the uninterrupted run"
        );
    }
    let mut steps: Vec<u64> = seen.iter().map(|(g, _)| *g).collect();
    steps.dedup();
    let all: Vec<u64> = uninterrupted.iter().map(|(g, _)| *g).collect();
    assert_eq!(steps, all, "every step is reported, in order");
}

/// Default checkpoint paths are named after job ids, which the journal
/// keeps unique across restarts: a job submitted after a restart must not
/// overwrite a recovered job's checkpoint. The recovered job's events
/// report what an uninterrupted run reports at every step.
#[test]
fn default_checkpoints_stay_distinct_across_a_restart() -> Result<(), Error> {
    let dir = Scratch::new("ckpt-ids");
    let config = journaled_config(&dir.0);
    let explore_seeded = |seed: u64, priority: u8| JobSpec {
        seed,
        priority,
        ..tiny_explore()
    };

    let (spec_a, spec_b) = (explore_seeded(1, 0), explore_seeded(2, 5));

    let first = Server::start(config.clone())?;
    let a = first.submit(spec_a.clone())?;
    assert!(first.step_once(), "generation 0 of job A runs");
    let mut seen = progress(&first, a);
    first.stop();

    // B outranks the recovered A, so its first step runs before A resumes.
    let second = Server::start(config)?;
    let b = second.submit(spec_b.clone())?;
    second.run_until_idle();
    assert_matches_library(&second, a, &spec_a)?;
    assert_matches_library(&second, b, &spec_b)?;
    seen.extend(progress(&second, a));
    assert_progress_matches(&seen, &uninterrupted_progress("ckpt-ids", &spec_a));
    second.stop();
    Ok(())
}

/// A `resume` job whose checkpoint is not on disk yet starts a fresh run
/// (first boot and a crash before the first checkpoint both land here).
#[test]
fn resume_without_checkpoint_starts_fresh() -> Result<(), Error> {
    let (server, _dir) = test_server("resume-fresh");
    let spec = JobSpec {
        resume: true,
        ..tiny_explore()
    };
    let id = server.submit(spec.clone())?;
    server.run_until_idle();
    assert_matches_library(&server, id, &spec)?;
    server.stop();
    Ok(())
}

/// A crash can lose the journal's last `generation` record after the
/// step's checkpoint landed. Recovery then re-queues a step the
/// checkpoint already holds: it must evaluate and write nothing, leaving
/// the checkpoint and its `.prev` byte-identical, report what the
/// uninterrupted run reported at that step, and the job must still finish
/// equal to the library run.
#[test]
fn step_the_checkpoint_holds_is_answered_without_a_write() -> Result<(), Error> {
    let dir = Scratch::new("lost-record");
    let config = journaled_config(&dir.0);
    let spec = tiny_explore();
    let first = Server::start(config.clone())?;
    let id = first.submit(spec.clone())?;
    assert!(first.step_once(), "generation 0 runs");
    assert!(first.step_once(), "generation 1 runs");
    let mut seen = progress(&first, id);
    first.stop();

    let journal_dir = dir.0.join("journal");
    let mut records = Journal::replay(&journal_dir)?;
    let last = records
        .iter()
        .rposition(|r| r.kind == "generation")
        .expect("a generation record");
    assert_eq!(records[last].generation, Some(1));
    records.remove(last);
    std::fs::remove_dir_all(&journal_dir).expect("remove the journal");
    let journal = Journal::open(&journal_dir)?;
    for r in &records {
        assert!(journal.append(r), "rewrite {r:?}");
    }
    drop(journal);

    let ckpt = dir.0.join("data").join(format!("job{id}.ckpt"));
    let envelopes = || {
        [ckpt.clone(), prev_path(&ckpt)].map(|p| std::fs::read(&p).expect("checkpoint envelope"))
    };
    let before = envelopes();
    let second = Server::start(config)?;
    assert_eq!(
        second.status(id)?.steps_done,
        1,
        "recovery re-queues step 1"
    );
    assert!(second.step_once(), "the recovered step runs");
    assert_eq!(second.status(id)?.steps_done, 2);
    assert!(
        envelopes() == before,
        "a step the checkpoint holds must not rewrite it"
    );
    second.run_until_idle();
    assert_matches_library(&second, id, &spec)?;
    seen.extend(progress(&second, id));
    assert_eq!(
        seen.iter().filter(|(g, _)| *g == 1).count(),
        2,
        "generation 1 is reported before and after the restart"
    );
    assert_progress_matches(&seen, &uninterrupted_progress("lost-record", &spec));
    second.stop();
    Ok(())
}

/// A `resume` job over the checkpoint of a finished run holds every
/// generation before its first step: each step is answered from the
/// archive without a write and reports what the uninterrupted run
/// reported at that step, not the finished archive.
#[test]
fn resumed_ahead_job_reports_each_step_as_the_uninterrupted_run() -> Result<(), Error> {
    let dir = Scratch::new("resumed-ahead");
    let server = Server::start(journaled_config(&dir.0))?;
    let spec = JobSpec {
        checkpoint: Some(dir.0.join("run.ckpt").display().to_string()),
        ..tiny_explore()
    };
    let finished = server.submit(spec.clone())?;
    server.run_until_idle();
    let uninterrupted = progress(&server, finished);
    let ckpt = dir.0.join("run.ckpt");
    let envelope = std::fs::read(&ckpt).expect("the finished run's checkpoint");

    let ahead = server.submit(JobSpec {
        resume: true,
        ..spec.clone()
    })?;
    server.run_until_idle();
    assert_eq!(progress(&server, ahead), uninterrupted);
    assert!(
        std::fs::read(&ckpt).expect("checkpoint") == envelope,
        "steps the checkpoint holds write nothing"
    );
    assert_matches_library(&server, ahead, &spec)?;
    server.stop();
    Ok(())
}

/// A primary checkpoint torn between steps degrades to its `.prev`
/// last-good envelope: the next step resumes from generation 0 and re-runs
/// generation 1 before its own. The torn primary is dropped before that
/// step saves, so `.prev` still holds the good envelope and a second tear
/// before the last step degrades the same way; the job finishes equal to
/// the library run.
#[test]
fn torn_primary_checkpoint_resumes_from_prev() -> Result<(), Error> {
    let dir = Scratch::new("torn-primary");
    let server = Server::start(journaled_config(&dir.0))?;
    let spec = JobSpec {
        generations: 3,
        ..tiny_explore()
    };
    let id = server.submit(spec.clone())?;
    assert!(server.step_once(), "generation 0 runs");
    assert!(server.step_once(), "generation 1 runs");

    let ckpt = dir.0.join("data").join(format!("job{id}.ckpt"));
    let tear = || {
        let mut bytes = std::fs::read(&ckpt).expect("primary checkpoint");
        let payload = bytes
            .windows(12)
            .position(|w| w == b"\"payload\": {")
            .expect("payload key");
        let digit = payload
            + bytes[payload..]
                .iter()
                .position(u8::is_ascii_digit)
                .expect("a digit in the payload");
        bytes[digit] = if bytes[digit] == b'9' {
            b'8'
        } else {
            bytes[digit] + 1
        };
        std::fs::write(&ckpt, &bytes).expect("tear the primary");
        assert!(
            Checkpoint::load(&ckpt).is_err(),
            "the flip fails the checksum"
        );
    };
    tear();
    assert_eq!(Checkpoint::load(&prev_path(&ckpt))?.generation, 0);

    assert!(server.step_once(), "generation 2 runs");
    assert_eq!(Checkpoint::load(&ckpt)?.generation, 2);
    assert_eq!(
        Checkpoint::load(&prev_path(&ckpt))?.generation,
        0,
        "the good envelope stays the last-good one"
    );

    tear();
    assert!(server.step_once(), "the last step runs");
    assert_eq!(Checkpoint::load(&ckpt)?.generation, spec.generations);
    assert_matches_library(&server, id, &spec)?;
    server.stop();
    Ok(())
}

//! `ggd` — the GDSII-Guard command-line front end.
//!
//! ```text
//! ggd [--verbose] analyze --design <name>                 # implement + report baseline metrics
//! ggd [--verbose] harden  --design <name> [--op cs|lda] [--out out.gds]
//! ggd [--verbose] explore --design <name> [--pop N] [--gens N] [--seed N]
//! ggd serve --socket <path> [--runners N]                 # exploration-as-a-service daemon
//! ggd submit|status|watch|pause|resume|cancel|result …    # client for a running daemon
//! ggd list                                                # list the benchmark designs
//! ```
//!
//! Designs are the twelve benchmark specs of `netlist::bench` (AES_1 …
//! TDEA) plus the miniature `TINY` smoke design. All runs are
//! deterministic. `analyze`, `harden` and `explore` each submit one job
//! to a job server: the daemon at `--socket`, or by default an
//! in-process server that runs the job's steps on the calling thread.
//! Either way the server's `run_analyze`, `run_harden` and explore steps
//! are the only implementations, and the stdout is the same.
//! `--verbose` turns the telemetry subsystem on and prints the
//! span/metric tree to stderr when the command finishes — including on
//! error paths, now that `main` returns `Result`.
//!
//! Inputs are named by flags; the only positionals are `submit`'s job
//! kind and the client commands' job id. A stray positional is refused
//! with an error pointing at `--design`. Every setting is a flag except
//! `GG_EVAL_DEADLINE_MS`, the per-candidate evaluation budget, read once
//! into [`ServerConfig::eval_deadline`] by whichever server a command
//! stands up.
//!
//! `ggd serve` is **crash-safe** by default: job-lifecycle transitions
//! are journaled under `--journal-dir` (default `results/journal`), and a
//! restarted daemon pointed at the same journal re-queues every
//! interrupted job and resumes explores from their checkpoints
//! bit-identically. `--no-journal` opts out.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::path::PathBuf;
use std::time::Duration;

use gdsii_guard::obs::diagln;
use gdsii_guard::prelude::*;
use gdsii_guard::serve::{
    BaselineSummary, Client, JobEvent, JobKind, JobSpec, JobState, JobStatus, Server, ServerConfig,
};
use gdsii_guard::Error;
use ggjson::{FromJson, Json, ToJson};

const USAGE: &str = "usage: ggd [--verbose] <command> [flags]\n\
   \n\
   one-shot commands (in-process, or on the daemon at --socket <path>):\n\
   \x20 list                                     list benchmark designs\n\
   \x20 analyze --design <name>                  baseline metrics\n\
   \x20 harden  --design <name> [--op cs|lda] [--out out.gds]\n\
   \x20 explore --design <name> [--pop N] [--gens N] [--seed N] [--out front.json]\n\
   \n\
   daemon:\n\
   \x20 serve   --socket <path> [--runners N] [--data-dir <dir>]\n\
   \x20         [--journal-dir <dir>|--no-journal] [--max-queued N]\n\
   \x20         [--mem-budget <bytes>]\n\
   \n\
   client commands (all accept --socket <path>; default ggd.sock under\n\
   the system temp dir):\n\
   \x20 submit  <explore|harden|analyze> --design <name> [--priority N]\n\
   \x20         [--pop N] [--gens N] [--seed N] [--threads N] [--op cs|lda]\n\
   \x20         [--out <path>] [--checkpoint <path>] [--resume]\n\
   \x20 status  <job>                            one job's state\n\
   \x20 watch   <job> [--from K]                 stream events until terminal\n\
   \x20 pause   <job>                            park at next generation boundary\n\
   \x20 resume  <job>                            re-queue a paused job\n\
   \x20 cancel  <job>                            cancel a job\n\
   \x20 result  <job>                            final result payload (JSON)\n\
   \x20 jobs                                     all jobs\n\
   \x20 stats                                    scheduler + baseline-cache counters\n\
   \x20 shutdown                                 stop the daemon\n\
   \n\
   env: GG_EVAL_DEADLINE_MS  per-candidate evaluation budget (ms); a daemon\n\
   \x20    also calls an explore step stuck past 8 budgets per candidate\n\
   \x20    each of its workers evaluates, and replaces the runner";

/// Everything the flag parser can collect; each command reads the
/// subset it understands.
#[derive(Default)]
struct Opts {
    design: Option<String>,
    pop: Option<usize>,
    gens: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    out: Option<String>,
    op: Option<String>,
    socket: Option<PathBuf>,
    priority: Option<u8>,
    from: Option<u64>,
    runners: Option<usize>,
    data_dir: Option<PathBuf>,
    journal_dir: Option<PathBuf>,
    no_journal: bool,
    max_queued: Option<usize>,
    mem_budget: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
    help: bool,
    positionals: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, Error> {
    fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, Error> {
        it.next()
            .cloned()
            .ok_or_else(|| Error::InvalidArgs(format!("{flag} needs a value")))
    }
    fn num<'a, T: std::str::FromStr>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<T, Error> {
        let v = value(it, flag)?;
        v.parse()
            .map_err(|_| Error::InvalidArgs(format!("{flag} got '{v}', not a number")))
    }

    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => o.help = true,
            "--resume" => o.resume = true,
            "--design" => o.design = Some(value(&mut it, a)?),
            "--pop" => o.pop = Some(num(&mut it, a)?),
            "--gens" => o.gens = Some(num(&mut it, a)?),
            "--seed" => o.seed = Some(num(&mut it, a)?),
            "--threads" => o.threads = Some(num(&mut it, a)?),
            "--out" => o.out = Some(value(&mut it, a)?),
            "--op" => o.op = Some(value(&mut it, a)?),
            "--socket" => o.socket = Some(PathBuf::from(value(&mut it, a)?)),
            "--priority" => o.priority = Some(num(&mut it, a)?),
            "--from" => o.from = Some(num(&mut it, a)?),
            "--runners" => o.runners = Some(num(&mut it, a)?),
            "--data-dir" => o.data_dir = Some(PathBuf::from(value(&mut it, a)?)),
            "--journal-dir" => o.journal_dir = Some(PathBuf::from(value(&mut it, a)?)),
            "--no-journal" => o.no_journal = true,
            "--max-queued" => o.max_queued = Some(num(&mut it, a)?),
            "--mem-budget" => o.mem_budget = Some(num(&mut it, a)?),
            "--checkpoint" => o.checkpoint = Some(value(&mut it, a)?),
            s if s.starts_with("--") => {
                return Err(Error::InvalidArgs(format!("unknown flag '{s}'")))
            }
            _ => o.positionals.push(a.clone()),
        }
    }
    Ok(o)
}

impl Opts {
    /// The design name `--design` gave.
    fn design(&self) -> Result<String, Error> {
        self.design
            .clone()
            .ok_or_else(|| Error::InvalidArgs("no design named; use --design <name>".into()))
    }

    /// The job id every client command takes as its positional.
    fn job_id(&self) -> Result<u64, Error> {
        self.positionals
            .first()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::InvalidArgs("expected a numeric job id".into()))
    }

    /// The daemon socket path: `--socket`, or the default under the
    /// system temp dir.
    fn socket(&self) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("ggd.sock"))
    }
}

/// Fails fast on a design name the benchmark roster does not know,
/// listing every accepted name.
fn validate_design(name: &str) -> Result<(), Error> {
    if gdsii_guard::serve::baseline::resolve_spec(name).is_none() {
        return Err(Error::InvalidArgs(format!(
            "unknown design '{name}'; known designs: {}",
            gdsii_guard::serve::baseline::known_designs()
        )));
    }
    Ok(())
}

fn cmd_list() {
    println!(
        "{:<14} {:>7} {:>6} {:>10} {:>8}",
        "design", "cells", "util%", "clock(ps)", "timing"
    );
    for s in netlist::bench::all_specs() {
        println!(
            "{:<14} {:>7} {:>6.0} {:>10.0} {:>8}",
            s.name,
            s.target_cells,
            s.utilization * 100.0,
            s.clock_period(),
            if s.period_factor > 1.0 {
                "loose"
            } else {
                "tight"
            }
        );
    }
}

/// Renders the final Pareto front exactly as the one-shot CLI always
/// has: evaluated-point count, then the front sorted by security.
fn print_front(result: &ExploreResult) {
    println!(
        "evaluated {} configurations; Pareto front:",
        result.points.len()
    );
    let mut front = result.pareto_front();
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
        println!(
            "  security {:.3}  TNS {:>9.1} ps  power {:.3} mW  DRC {:>3}  {}",
            p.metrics.security, p.metrics.tns_ps, p.metrics.power_mw, p.metrics.drc, op
        );
    }
}

/// One-line human rendering of a streamed job event.
fn describe_event(e: &JobEvent) -> String {
    let mut s = format!("[{:>4}] {}", e.tick, e.kind);
    match e.kind.as_str() {
        "generation" => {
            if let Some(g) = e.generation {
                s.push_str(&format!(" {g}"));
            }
            let points = e.data.get("points").and_then(Json::as_num);
            let front = e.data.get("front_size").and_then(Json::as_num);
            if let (Some(points), Some(front)) = (points, front) {
                s.push_str(&format!(": {points} points evaluated, front size {front}"));
            }
            let added = e.data.get("added").and_then(Vec::<String>::from_json);
            let removed = e.data.get("removed").and_then(Vec::<String>::from_json);
            if let (Some(a), Some(r)) = (added, removed) {
                if !a.is_empty() || !r.is_empty() {
                    s.push_str(&format!(" (front +{} -{})", a.len(), r.len()));
                }
            }
        }
        "failed" => {
            if let Some(why) = e.data.as_str() {
                s.push_str(&format!(": {why}"));
            }
        }
        _ => {}
    }
    s
}

/// Prints what a done job adds after its baseline summary: the Trojan
/// battery rate (analyze), the hardened summary, security and written
/// file (harden), or the Pareto front (explore).
fn print_result(kind: JobKind, payload: &Json) -> Result<(), Error> {
    let malformed = || Error::Serve(format!("malformed {} result payload", kind.as_str()));
    let battery = || {
        payload
            .get("battery_success")
            .and_then(Json::as_num)
            .ok_or_else(malformed)
    };
    match kind {
        JobKind::Analyze => {
            println!("  Trojan battery success rate: {:.0} %", battery()? * 100.0);
        }
        JobKind::Harden => {
            let hardened = payload
                .get("hardened")
                .and_then(BaselineSummary::from_json)
                .ok_or_else(malformed)?;
            let m = payload
                .get("metrics")
                .and_then(FlowMetrics::from_json)
                .ok_or_else(malformed)?;
            println!("{}", hardened.render("hardened"));
            println!(
                "  security {:.3} (risk reduced {:.1} %), battery success {:.0} %",
                m.security,
                (1.0 - m.security) * 100.0,
                battery()? * 100.0
            );
            if let Some(path) = payload.get("wrote").and_then(Json::as_str) {
                println!("  wrote {path}");
            }
        }
        JobKind::Explore => {
            let result = payload
                .get("explore")
                .and_then(ExploreResult::from_json)
                .ok_or_else(malformed)?;
            print_front(&result);
        }
    }
    Ok(())
}

/// Streams a one-shot job's progress: the baseline summary to stdout
/// (part of the pinned output), generation events to stderr.
fn print_event(e: &JobEvent) {
    match e.kind.as_str() {
        "baseline" => {
            if let Some(sum) = BaselineSummary::from_json(&e.data) {
                println!("{}", sum.render("baseline"));
            }
        }
        "generation" => diagln!("{}", describe_event(e)),
        _ => {}
    }
}

/// The job spec the flags describe: a `kind` job over `--design`, with
/// every given flag overriding the [`JobSpec`] default. An unknown design
/// fails here, at the CLI, not inside a server. A spec bound for a daemon
/// (`to_daemon`) carries `--out` and `--checkpoint` resolved against this
/// process's working directory, because the daemon runs in its own.
fn job_spec(o: &Opts, kind: &str, to_daemon: bool) -> Result<JobSpec, Error> {
    let design = o.design()?;
    validate_design(&design)?;
    let mut spec = match kind {
        "explore" => JobSpec::explore(&design),
        "analyze" => JobSpec::analyze(&design),
        "harden" => JobSpec::harden(&design, o.op.as_deref().unwrap_or("cs")),
        other => {
            return Err(Error::InvalidArgs(format!(
                "unknown job kind '{other}' (expected explore, harden, or analyze)"
            )))
        }
    };
    if let Some(pop) = o.pop {
        spec.population = pop;
    }
    if let Some(gens) = o.gens {
        spec.generations = gens;
    }
    if let Some(seed) = o.seed {
        spec.seed = seed;
    }
    if let Some(threads) = o.threads {
        spec.threads = threads;
    }
    if let Some(priority) = o.priority {
        spec.priority = priority;
    }
    spec.out = o.out.clone();
    spec.checkpoint = o.checkpoint.clone();
    if to_daemon {
        spec.out = spec.out.as_deref().map(absolute).transpose()?;
        spec.checkpoint = spec.checkpoint.as_deref().map(absolute).transpose()?;
    }
    spec.resume = o.resume;
    Ok(spec)
}

/// `path` resolved against this process's working directory.
fn absolute(path: &str) -> Result<String, Error> {
    std::path::absolute(path)
        .ok()
        .and_then(|p| p.into_os_string().into_string().ok())
        .ok_or_else(|| Error::InvalidArgs(format!("cannot resolve path {path}")))
}

/// `ggd analyze|harden|explore`: submits the job the flags describe to
/// the daemon at `--socket` and watches it to the end, or runs it on an
/// in-process server. The baseline summary prints when its event
/// arrives, then the job's result.
fn cmd_run(o: &Opts, kind: &str) -> Result<(), Error> {
    let spec = job_spec(o, kind, o.socket.is_some())?;
    let (status, payload) = match &o.socket {
        Some(socket) => {
            let mut client = Client::connect(socket)?;
            let id = client.submit(&spec)?;
            let status = client.watch(id, 0, print_event)?;
            let done = status.state == JobState::Done;
            let payload = done.then(|| client.result(id)).transpose()?;
            (status, payload)
        }
        None => run_in_process(spec.clone())?,
    };
    match payload {
        Some(payload) => print_result(spec.kind, &payload),
        None => Err(Error::Serve(format!(
            "{kind} job ended {}: {}",
            status.state.as_str(),
            status.error.unwrap_or_else(|| "no diagnostic".into())
        ))),
    }
}

/// Runs `spec` on an in-process server over a scratch data dir. The
/// server has no runner pool: the job's steps run on this thread, one
/// generation at a time, and each step's events print as it returns.
/// Like a library call, nothing supervises the work, so no watchdog can
/// call a slow step stuck. Returns the final status and, for a done job,
/// its result payload.
fn run_in_process(spec: JobSpec) -> Result<(JobStatus, Option<Json>), Error> {
    let data_dir = std::env::temp_dir().join(format!("ggd-oneshot-{}", std::process::id()));
    let server = Server::start(ServerConfig {
        data_dir: Some(data_dir.clone()),
        runners: 0,
        eval_deadline: eval_deadline(),
        ..ServerConfig::default()
    })?;
    let outcome = server.submit(spec).and_then(|id| {
        let mut cursor = 0u64;
        loop {
            let stepped = server.step_once();
            let (events, _) = server.events_since(id, cursor, false)?;
            cursor += events.len() as u64;
            events.iter().for_each(print_event);
            if !stepped {
                break;
            }
        }
        let status = server.status(id)?;
        let done = status.state == JobState::Done;
        let payload = done.then(|| server.result(id)).transpose()?;
        Ok((status, payload))
    });
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
    outcome
}

/// The per-candidate evaluation budget `GG_EVAL_DEADLINE_MS` (unset,
/// empty or unparsable means none; `0` trips at the first check).
fn eval_deadline() -> Option<Duration> {
    let ms = std::env::var("GG_EVAL_DEADLINE_MS").ok()?;
    ms.trim().parse().ok().map(Duration::from_millis)
}

fn cmd_serve(o: &Opts) -> Result<(), Error> {
    let config = ServerConfig {
        socket: Some(o.socket()),
        data_dir: o.data_dir.clone(),
        // An explicit `--runners 0` is honored: a queue-only daemon is
        // useful for inspecting admission control and recovery.
        runners: o.runners.unwrap_or(1),
        // Crash-safe by default; `--no-journal` opts out.
        journal_dir: (!o.no_journal).then(|| {
            o.journal_dir
                .clone()
                .unwrap_or_else(|| "results/journal".into())
        }),
        max_queued: o.max_queued.unwrap_or(0),
        mem_budget_bytes: o.mem_budget.unwrap_or(0),
        eval_deadline: eval_deadline(),
    };
    let server = Server::start(config.clone())?;
    diagln!("ggd serve: listening with {config:?}");
    server.wait();
    diagln!("ggd serve: shut down");
    Ok(())
}

fn cmd_submit(o: &Opts) -> Result<(), Error> {
    let kind = o.positionals.first().map(String::as_str).ok_or_else(|| {
        Error::InvalidArgs("submit needs a job kind (explore|harden|analyze)".into())
    })?;
    let spec = job_spec(o, kind, true)?;
    let mut client = Client::connect(&o.socket())?;
    let id = client.submit(&spec)?;
    println!("job {id}");
    Ok(())
}

fn print_status(s: &JobStatus) {
    println!(
        "job {} {} {} {}  priority {}  steps {}/{}  events {}{}",
        s.id,
        s.kind.as_str(),
        s.design,
        s.state.as_str(),
        s.priority,
        s.steps_done,
        s.steps_total,
        s.events,
        s.error
            .as_deref()
            .map(|e| format!("  error: {e}"))
            .unwrap_or_default()
    );
}

fn cmd_watch(o: &Opts) -> Result<(), Error> {
    let id = o.job_id()?;
    let mut client = Client::connect(&o.socket())?;
    let status = client.watch(id, o.from.unwrap_or(0), |e| {
        println!("{}", describe_event(e));
    })?;
    print_status(&status);
    Ok(())
}

fn main() -> Result<(), Error> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    args.retain(|a| a != "--verbose" && a != "-v");
    if verbose {
        obs::set_enabled(true);
    }
    let outcome = dispatch(&args);
    // Render telemetry even when the command failed — the old
    // `process::exit` paths silently dropped it.
    if verbose {
        let snap = obs::snapshot();
        if !snap.is_empty() {
            diagln!("{}", snap.render());
        }
    }
    outcome
}

fn dispatch(args: &[String]) -> Result<(), Error> {
    let Some(command) = args.first().map(String::as_str) else {
        diagln!("{USAGE}");
        return Err(Error::InvalidArgs("no command given".into()));
    };
    if command == "--help" || command == "-h" || command == "help" {
        diagln!("{USAGE}");
        return Ok(());
    }
    let o = parse_opts(&args[1..])?;
    if o.help {
        diagln!("{USAGE}");
        return Ok(());
    }
    // `submit` takes a job kind and the client commands a job id; every
    // other input is named by a flag.
    let takes = usize::from(matches!(
        command,
        "submit" | "status" | "watch" | "pause" | "resume" | "cancel" | "result"
    ));
    if let Some(stray) = o.positionals.get(takes) {
        return Err(Error::InvalidArgs(format!(
            "unexpected argument '{stray}'; name inputs by flag, e.g. --design <name> (see --help)"
        )));
    }
    match command {
        "list" => {
            cmd_list();
            Ok(())
        }
        "analyze" | "harden" | "explore" => cmd_run(&o, command),
        "serve" => cmd_serve(&o),
        "submit" => cmd_submit(&o),
        "status" => {
            let s = Client::connect(&o.socket())?.status(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "pause" => {
            let s = Client::connect(&o.socket())?.pause(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "resume" => {
            let s = Client::connect(&o.socket())?.resume(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "cancel" => {
            let s = Client::connect(&o.socket())?.cancel(o.job_id()?)?;
            print_status(&s);
            Ok(())
        }
        "watch" => cmd_watch(&o),
        "result" => {
            let payload = Client::connect(&o.socket())?.result(o.job_id()?)?;
            print!("{}", ggjson::to_string_pretty(&payload));
            Ok(())
        }
        "jobs" => {
            for s in Client::connect(&o.socket())?.jobs()? {
                print_status(&s);
            }
            Ok(())
        }
        "stats" => {
            let stats = Client::connect(&o.socket())?.stats()?;
            print!("{}", ggjson::to_string_pretty(&stats.to_json()));
            Ok(())
        }
        "shutdown" => Client::connect(&o.socket())?.shutdown(),
        other => {
            diagln!("{USAGE}");
            Err(Error::InvalidArgs(format!("unknown command '{other}'")))
        }
    }
}

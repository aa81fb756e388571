//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <explore-aes|explore-small> --seed <n>
//!           --seconds <s> --trace <0|1> --ggd <path-to-ggd> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that replays the workload's
//! candidates through the public layer calls and reports per-layer
//! numbers, including a short `ggd serve` probe. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/NOTES.md`.

mod explore;
mod replica;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (candidates, probe jobs and differential
    /// checks).
    pub attempted: u64,
    /// Failed operations: quarantined or degraded candidates, failed or
    /// refused probe jobs, and every oracle or replica mismatch.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one correctness check; a failed one is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH: {}", what());
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ggd: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ggd: PathBuf::new(),
        work_dir: PathBuf::from(".bench_work"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{value}'"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()? as f64,
            "--trace" => a.trace = num()? != 0,
            "--ggd" => a.ggd = PathBuf::from(value),
            "--work-dir" => a.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.ggd.as_os_str().is_empty() {
        return Err("--ggd <path> is required".into());
    }
    Ok(a)
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // Non-finite values cannot be JSON; they would only come from
            // an empty sample, which the failure count already reports.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Each run owns a private scratch directory under the work dir.
    let scratch = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "explore-aes" => explore::run(&explore::AES, &args, &scratch),
        "explore-small" => explore::run(&explore::SMALL, &args, &scratch),
        other => Err(format!("unknown workload '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", render(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

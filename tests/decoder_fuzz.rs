//! Robustness of every decoder fed from the socket or from disk: the wire
//! `Request`/`Response` parsers, journal replay, the checkpoint loader
//! and the design-name parser. Whatever the bytes, each must decode or
//! return an error — never panic, and never overflow the stack on deeply
//! nested input.

use std::path::{Path, PathBuf};

use gdsii_guard::checkpoint::{fingerprint, Checkpoint};
use gdsii_guard::prelude::*;
use gdsii_guard::serve::proto::{Request, Response};
use gdsii_guard::serve::{JobSpec, Journal, JournalRecord};
use proptest::prelude::*;
use tech::NUM_METAL_LAYERS;

/// JSON-ish fragments: random sequences of them get past the first
/// syntax check far more often than raw bytes do.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "null",
    "true",
    "1",
    "-0.5e3",
    "1e999",
    "\"v\"",
    "\"req\"",
    "\"job\"",
    "\"from\"",
    "\"ok\"",
    "\"err\"",
    "\"busy\"",
    "\"event\"",
    "\"submit\"",
    "\"watch\"",
    "\"\\u0000\"",
    "é",
    "\n",
];

fn soup(picks: &[u8]) -> String {
    picks
        .iter()
        .map(|&i| TOKENS[usize::from(i) % TOKENS.len()])
        .collect()
}

/// `depth` unclosed `[`, far deeper than any decoder accepts.
fn deep(depth: usize) -> String {
    "[".repeat(depth)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gg-decoder-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Submit(JobSpec::explore("TINY")),
        Request::Status(3),
        Request::Watch { job: 4, from: 2 },
        Request::Pause(1),
        Request::Resume(1),
        Request::Cancel(9),
        Request::Result(2),
        Request::Jobs,
        Request::Stats,
        Request::Shutdown,
    ]
}

const RESPONSE_LINES: &[&str] = &[
    r#"{"ok":"pong"}"#,
    r#"{"ok":{"job":7}}"#,
    r#"{"err":"no such job"}"#,
    r#"{"busy":"4 jobs queued (limit 4)"}"#,
    r#"{"event":{"seq":0,"tick":3,"kind":"generation","generation":1,"data":{"points":6}}}"#,
];

/// A journal segment holding one record of each shape, plus its records.
fn journal_segment(dir: &Path) -> (Vec<JournalRecord>, Vec<u8>) {
    let records = vec![
        JournalRecord::submitted(1, &JobSpec::explore("TINY"), 0, Path::new("/tmp/job1.ckpt")),
        JournalRecord::transition(1, "started"),
        JournalRecord::generation(1, 0),
        JournalRecord::submitted(
            2,
            &JobSpec::analyze("AES_1"),
            1,
            Path::new("/tmp/job2.ckpt"),
        ),
        JournalRecord::resumed(1, 2),
        JournalRecord::failed(2, "boom \"quoted\"\n"),
    ];
    let journal = Journal::open_with(dir, 1 << 20, false).expect("open journal");
    for rec in &records {
        assert!(journal.append(rec));
    }
    drop(journal);
    let bytes = std::fs::read(dir.join("seg-000001.ggjsonl")).expect("read segment");
    (records, bytes)
}

/// Replays `bytes` as the only segment of a fresh journal directory.
fn replay_segment(dir: &Path, bytes: &[u8]) -> Vec<JournalRecord> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create journal dir");
    std::fs::write(dir.join("seg-000001.ggjsonl"), bytes).expect("write segment");
    Journal::replay(dir).expect("a readable journal always replays")
}

fn sample_checkpoint() -> Checkpoint {
    let genome = |op: u8| Genome {
        op,
        n_idx: 1,
        iter_idx: 2,
        scale_idx: [1; NUM_METAL_LAYERS],
    };
    let metrics = FlowMetrics {
        security: 0.25,
        er_sites: 12,
        er_tracks: 3.5,
        tns_ps: -41.0,
        power_mw: 1.75,
        drc: 2,
    };
    Checkpoint {
        base_fingerprint: "00ff00ff00ff00ff".into(),
        params: Nsga2Params::builder().population(4).generations(2).build(),
        generation: 1,
        rng: vec!["0123456789abcdef".into(); 4],
        pop: vec![genome(0), genome(1)],
        order: vec![(genome(0), 0), (genome(1), 1)],
        cache: vec![(genome(0), metrics), (genome(1), metrics)],
        quarantine: vec![QuarantineEntry {
            genome: genome(1),
            generation: 1,
            incremental: "injected".into(),
            full: "injected".into(),
        }],
    }
}

/// Loads `bytes` as a checkpoint envelope.
fn load_envelope(path: &Path, bytes: &[u8]) -> Result<Checkpoint, Error> {
    std::fs::write(path, bytes).expect("write envelope");
    Checkpoint::load(path)
}

/// Design names built from roster fragments, separators and numbers.
const NAME_PARTS: &[&str] = &[
    "AES_1",
    "AES_2",
    "TINY",
    "PRESENT",
    "openMSP430_1",
    "@x",
    "@",
    "x",
    "0",
    "1",
    "7",
    "1024",
    "1025",
    "4294967296",
    "-",
    "+",
    " ",
    "é",
    "\0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes and token soup: decode or error, never panic.
    #[test]
    fn wire_lines_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        picks in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        for line in [String::from_utf8_lossy(&bytes).into_owned(), soup(&picks)] {
            let _ = Request::from_line(&line);
            let _ = Response::from_line(&line);
        }
    }

    /// Valid lines round-trip, and every strict prefix is refused: a torn
    /// line never decodes as a complete message.
    #[test]
    fn truncated_wire_lines_are_refused(which in any::<usize>(), cut in any::<usize>()) {
        let all = requests();
        let req = &all[which % all.len()];
        let line = req.to_line();
        prop_assert_eq!(&Request::from_line(&line).expect("valid request"), req);
        let cut = cut % line.len();
        prop_assert!(Request::from_line(&line[..cut]).is_err(), "{}", &line[..cut]);

        let line = RESPONSE_LINES[which % RESPONSE_LINES.len()];
        prop_assert_eq!(Response::from_line(line).expect("valid response").to_line(), line);
        let cut = cut % line.len();
        prop_assert!(Response::from_line(&line[..cut]).is_err(), "{}", &line[..cut]);
    }

    /// Garbage segment files: replay skips what it cannot decode and
    /// still succeeds.
    #[test]
    fn journal_replay_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        picks in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let dir = scratch("journal-garbage");
        replay_segment(&dir, &bytes);
        replay_segment(&dir, soup(&picks).as_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment torn at any byte replays a prefix of its records.
    #[test]
    fn truncated_journal_replays_a_prefix(cut in any::<usize>()) {
        let dir = scratch("journal-truncated");
        let (records, bytes) = journal_segment(&dir.join("source"));
        let cut = cut % (bytes.len() + 1);
        let got = replay_segment(&dir.join("torn"), &bytes[..cut]);
        prop_assert_eq!(&got[..], &records[..got.len()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Garbage envelopes are refused.
    #[test]
    fn checkpoint_load_refuses_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        picks in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let dir = scratch("ckpt-garbage");
        let path = dir.join("c.ckpt");
        prop_assert!(load_envelope(&path, &bytes).is_err());
        prop_assert!(load_envelope(&path, soup(&picks).as_bytes()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncated envelopes are refused; an envelope with one byte
    /// replaced either is refused or still loads the original state.
    #[test]
    fn checkpoint_load_survives_truncation_and_bit_flips(
        cut in any::<usize>(),
        pos in any::<usize>(),
        val in any::<u8>()
    ) {
        let dir = scratch("ckpt-corrupt");
        let path = dir.join("c.ckpt");
        let original = sample_checkpoint();
        original.save(&path).expect("save checkpoint");
        let bytes = std::fs::read(&path).expect("read envelope");
        prop_assert!(load_envelope(&path, &bytes[..cut % bytes.len()]).is_err());
        let mut flipped = bytes.clone();
        flipped[pos % bytes.len()] = val;
        if let Ok(loaded) = load_envelope(&path, &flipped) {
            prop_assert_eq!(loaded, original);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary design names: resolve or not, never panic.
    #[test]
    fn design_names_never_panic(
        parts in proptest::collection::vec(any::<u8>(), 0..8),
        bytes in proptest::collection::vec(any::<u8>(), 0..24)
    ) {
        let name: String = parts
            .iter()
            .map(|&i| NAME_PARTS[usize::from(i) % NAME_PARTS.len()])
            .collect();
        let _ = netlist::bench::parse_spec(&name);
        let _ = netlist::bench::parse_spec(&String::from_utf8_lossy(&bytes));
    }
}

/// A million `[` on one request line, parsed on a thread with the default
/// stack — the stack `ggd serve` gives each connection — is an error, not
/// a stack overflow that aborts the daemon.
#[test]
fn deeply_nested_wire_lines_are_refused() {
    std::thread::spawn(|| {
        let nested = deep(1_000_000);
        assert!(Request::from_line(&nested).is_err());
        assert!(Request::from_line(&format!(r#"{{"v":1,"req":"submit","job":{nested}"#)).is_err());
        assert!(Response::from_line(&format!(r#"{{"ok":{nested}"#)).is_err());
    })
    .join()
    .expect("parsing a deeply nested line must not overflow the stack");
}

#[test]
fn deeply_nested_journal_line_is_skipped() {
    let dir = scratch("journal-deep");
    let (records, bytes) = journal_segment(&dir.join("source"));
    let mut text = String::from_utf8(bytes).expect("journal lines are UTF-8");
    text.push_str(&deep(100_000));
    text.push('\n');
    assert_eq!(replay_segment(&dir.join("deep"), text.as_bytes()), records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_checkpoint_is_refused() {
    let dir = scratch("ckpt-deep");
    let envelope = format!(
        r#"{{"version":1,"checksum":"0","payload":{}"#,
        deep(100_000)
    );
    assert!(load_envelope(&dir.join("c.ckpt"), envelope.as_bytes()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// Resumes a TINY explore (population 4, `generations` generations) from
/// `cp`, saved with a valid checksum, so only `Checkpoint::verify`
/// stands between the state and the NSGA-II loop.
fn resume_from(tag: &str, cp: &Checkpoint, generations: usize) -> Result<ExploreResult, Error> {
    let tech = tech::Technology::nangate45_like();
    let base = implement_baseline(&netlist::bench::tiny_spec(), &tech).expect("tiny baseline");
    let params = Nsga2Params::builder()
        .population(4)
        .generations(generations)
        .build();
    let cp = Checkpoint {
        base_fingerprint: fingerprint(&base),
        params,
        ..cp.clone()
    };
    let dir = scratch(tag);
    let path = dir.join("c.ckpt");
    cp.save(&path).expect("save checkpoint");
    let loaded = Checkpoint::load(&path).expect("the checksum holds");
    std::fs::remove_dir_all(&dir).ok();
    let mut run = Exploration::resume(&loaded, &base, &params)?;
    let engine = EvalEngine::new(&base, &tech);
    let policy = ExploreOptions::default();
    while run.generation() < params.generations {
        run.step(&engine, &tech, &policy);
    }
    Ok(run.result(&base))
}

/// A checkpoint of four distinct genomes, every one evaluated.
fn resumable_checkpoint(generation: usize) -> Checkpoint {
    let mut cp = sample_checkpoint();
    let genomes: Vec<Genome> = (0..4u8)
        .map(|i| Genome {
            op: i % 2,
            n_idx: i,
            iter_idx: 0,
            scale_idx: [0; NUM_METAL_LAYERS],
        })
        .collect();
    cp.generation = generation;
    cp.pop = genomes.clone();
    cp.order = genomes.iter().map(|&g| (g, 0)).collect();
    cp.cache = genomes.iter().map(|&g| (g, cp.cache[0].1)).collect();
    cp.quarantine.clear();
    cp
}

#[test]
fn checkpoint_with_out_of_range_genes_is_refused() {
    // A finished run's archive names LDA's 10th N candidate; there are 5.
    let mut cp = resumable_checkpoint(1);
    cp.pop[1].n_idx = 9;
    cp.order[1].0.n_idx = 9;
    cp.cache[1].0.n_idx = 9;
    match resume_from("ckpt-gene-range", &cp, 1) {
        Err(Error::Checkpoint(why)) => assert!(why.contains("outside"), "{why}"),
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
}

#[test]
fn checkpoint_population_without_metrics_is_refused() {
    // Generation 0 of 1: the loop's first act is to look up the
    // population's metrics, and one genome has none.
    let mut cp = resumable_checkpoint(0);
    cp.cache.pop();
    match resume_from("ckpt-missing-metrics", &cp, 1) {
        Err(Error::Checkpoint(why)) => assert!(why.contains("no cached metrics"), "{why}"),
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
}

#[test]
fn checkpoint_past_the_last_generation_is_refused() {
    // The largest generation the decoder accepts: resuming would start
    // one past it.
    let cp = resumable_checkpoint(usize::MAX);
    match resume_from("ckpt-generation", &cp, 1) {
        Err(Error::Checkpoint(why)) => assert!(why.contains("generation"), "{why}"),
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
}

#[test]
fn deeply_nested_design_names_are_refused() {
    for name in [
        format!("AES_2{}", "@x2".repeat(100_000)),
        format!("AES_2@x{}", "9".repeat(100_000)),
        "@x".repeat(100_000),
    ] {
        assert!(netlist::bench::parse_spec(&name).is_none());
    }
    // The fuzzed fragments do cover real names.
    assert!(netlist::bench::parse_spec("AES_2@x7").is_some());
}

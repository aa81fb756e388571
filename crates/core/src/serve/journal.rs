//! The durable job journal: a write-ahead log of job-lifecycle
//! transitions that makes `ggd serve` crash-safe.
//!
//! Every registry transition (`submitted`, `started`, `generation`,
//! `paused`, `resumed`, `cancelled`, `done`, `failed`) is appended as one
//! checksummed newline-delimited `ggjson` record **before** the
//! transition is published to watchers, so a `kill -9` at any instant
//! loses at most the in-flight step — which the per-job checkpoint
//! envelope re-runs bit-identically on recovery (every explore step that
//! evaluates saves the checkpoint, and re-running an already-checkpointed
//! step returns the archived result instead of recomputing).
//!
//! # Format
//!
//! A journal is a directory of segment files `seg-NNNNNN.ggjsonl`. Each
//! line is an envelope `{"v":1,"checksum":"<fnv1a hex64>","record":{…}}`
//! where the checksum covers the record's compact serialization — the
//! same re-render-the-parsed-payload verification the checkpoint
//! envelope uses (§2e), scaled down to one line. Replay reads segments
//! in index order and **skips** undecodable lines (torn tails from a
//! mid-write crash, bit rot) with a `journal.skipped_records` counter
//! instead of refusing the whole log: a lost transition only means a
//! job resumes from an earlier, still-consistent position.
//!
//! # Rotation and compaction
//!
//! When the active segment passes its byte threshold, the registry
//! rewrites the journal: a fresh segment receives a *snapshot* — the
//! minimal record sequence reproducing every job's current state (at
//! most three lines per job) — via the tmp + sync + rename idiom, and
//! older segments are deleted. Replay is
//! insensitive to a crash between those two steps because a re-replayed
//! `submitted` record overwrites the job it re-introduces.
//!
//! # Failure containment
//!
//! An append that fails (disk full, injected `journal.write` fault)
//! degrades to a warning plus a `journal.write_errors` counter — the
//! server keeps serving; durability is reduced, never availability. A
//! torn half-line left by the failure is isolated by prefixing the next
//! append with a newline, so at most one record is lost per I/O error.
//!
//! # Durability policy
//!
//! Appends are written and flushed on every record but `fsync`ed only
//! for `submitted` records. A SIGKILL loses no flushed data (the page
//! cache outlives the process); `fsync` matters only for power loss,
//! where every record except `submitted` is recomputable from the
//! checkpoint — so the journal pays one disk sync per job instead of
//! one per generation, keeping its overhead under the 2 % explore-wall
//! budget `bench_suite --smoke` enforces.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ggjson::{FromJson, Json, ToJson};

use crate::checkpoint::{fnv1a, hex64, write_synced_tmp};
use crate::error::Error;
use crate::serve::job::JobSpec;

/// Journal line-envelope format version; replay skips lines carrying a
/// different version (forward-compatible: an old daemon never
/// mis-parses a newer log).
pub const JOURNAL_VERSION: u32 = 1;

/// Default rotation threshold for the active segment.
const SEGMENT_BYTES_DEFAULT: u64 = 1 << 20;

/// One journaled job-lifecycle transition.
///
/// `kind` selects which optional fields are meaningful: `submitted`
/// carries the full spec, checkpoint path, and submit-order ticket;
/// `generation` the completed step index; `resumed` the fresh ticket;
/// `done` the result payload; `failed` the diagnostic. Unused fields
/// are `None`/0 on the wire (`ggjson` requires every key present).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Job id the transition belongs to.
    pub job: u64,
    /// Transition kind: `submitted`, `started`, `generation`, `paused`,
    /// `resumed`, `cancelled`, `done`, or `failed`.
    pub kind: String,
    /// Submit-order ticket (`submitted` and `resumed` records).
    pub seq: u64,
    /// Completed scheduler step (`generation` records).
    pub generation: Option<u64>,
    /// The validated spec (`submitted` records only).
    pub spec: Option<JobSpec>,
    /// Checkpoint envelope path backing the job (`submitted` only).
    pub checkpoint: Option<String>,
    /// Final result payload (`done` records only).
    pub result: Option<Json>,
    /// Failure diagnostic (`failed` records only).
    pub error: Option<String>,
}

ggjson::json_struct!(JournalRecord {
    job,
    kind,
    seq,
    generation,
    spec,
    checkpoint,
    result,
    error
});

impl JournalRecord {
    fn bare(job: u64, kind: &str) -> Self {
        Self {
            job,
            kind: kind.to_owned(),
            seq: 0,
            generation: None,
            spec: None,
            checkpoint: None,
            result: None,
            error: None,
        }
    }

    /// A `submitted` record carrying everything needed to re-create the
    /// job on replay.
    pub fn submitted(job: u64, spec: &JobSpec, seq: u64, checkpoint: &Path) -> Self {
        Self {
            seq,
            spec: Some(spec.clone()),
            checkpoint: Some(checkpoint.display().to_string()),
            ..Self::bare(job, "submitted")
        }
    }

    /// A bare lifecycle transition (`started`, `paused`, `cancelled`).
    pub fn transition(job: u64, kind: &str) -> Self {
        Self::bare(job, kind)
    }

    /// A completed scheduler step.
    pub fn generation(job: u64, generation: u64) -> Self {
        Self {
            generation: Some(generation),
            ..Self::bare(job, "generation")
        }
    }

    /// A resume, carrying the job's fresh submit-order ticket.
    pub fn resumed(job: u64, seq: u64) -> Self {
        Self {
            seq,
            ..Self::bare(job, "resumed")
        }
    }

    /// Terminal success, carrying the result payload.
    pub fn done(job: u64, result: Json) -> Self {
        Self {
            result: Some(result),
            ..Self::bare(job, "done")
        }
    }

    /// Terminal failure, carrying the diagnostic.
    pub fn failed(job: u64, error: &str) -> Self {
        Self {
            error: Some(error.to_owned()),
            ..Self::bare(job, "failed")
        }
    }
}

/// Encodes one record as its checksummed line envelope (no newline).
fn encode_line(rec: &JournalRecord) -> String {
    // Rendered once; the envelope splices the rendered text. Decode
    // re-renders the *parsed* record for verification, which reproduces
    // this exact text (the compact renderer is deterministic and
    // preserves object member order).
    let text = ggjson::to_string_compact(&rec.to_json());
    let sum = hex64(fnv1a(text.as_bytes()));
    format!("{{\"v\":{JOURNAL_VERSION},\"checksum\":\"{sum}\",\"record\":{text}}}")
}

/// Decodes and verifies one line envelope; `None` for anything torn,
/// corrupt, or from a different format version.
fn decode_line(line: &str) -> Option<JournalRecord> {
    let j: Json = ggjson::from_str(line)?;
    if j.get("v").and_then(Json::as_num) != Some(f64::from(JOURNAL_VERSION)) {
        return None;
    }
    let record = j.get("record")?;
    let expect = j.get("checksum").and_then(Json::as_str)?;
    let actual = hex64(fnv1a(ggjson::to_string_compact(record).as_bytes()));
    if expect != actual {
        return None;
    }
    JournalRecord::from_json(record)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.ggjsonl"))
}

/// Parses a segment file name back to its index.
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".ggjsonl")?
        .parse()
        .ok()
}

/// Sorted indices of every segment currently in `dir`.
fn segment_indices(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<u64> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| segment_index(&e.file_name().to_string_lossy()))
        .collect();
    found.sort_unstable();
    found
}

struct WriterState {
    file: Option<File>,
    /// Active segment index.
    seg: u64,
    /// Bytes appended to the active segment so far.
    bytes: u64,
    /// The previous append failed mid-line; isolate the torn tail by
    /// starting the next line on a fresh newline.
    dirty: bool,
}

/// An open, appendable job journal (see module docs).
pub struct Journal {
    dir: PathBuf,
    state: Mutex<WriterState>,
    rotate_bytes: u64,
    /// `fsync` appends of `submitted` records (the only record whose
    /// loss under power failure cannot be recomputed). On by default;
    /// tests of rotation mechanics may turn it off for speed.
    sync: bool,
    write_counter: AtomicU64,
}

static APPEND: obs::Span = obs::Span::new("journal.append");

impl Journal {
    /// Opens (creating if needed) the journal under `dir` for append,
    /// continuing the highest existing segment.
    pub fn open(dir: &Path) -> Result<Self, Error> {
        Self::open_with(dir, SEGMENT_BYTES_DEFAULT, true)
    }

    /// [`Journal::open`] with an explicit rotation threshold and sync
    /// policy, for tests.
    pub fn open_with(dir: &Path, rotate_bytes: u64, sync: bool) -> Result<Self, Error> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("cannot create {}: {e}", dir.display())))?;
        let seg = segment_indices(dir).last().copied().unwrap_or(1);
        let path = segment_path(dir, seg);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::Io(format!("cannot open {}: {e}", path.display())))?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(WriterState {
                file: Some(file),
                seg,
                bytes,
                dirty: false,
            }),
            rotate_bytes,
            sync,
            write_counter: AtomicU64::new(0),
        })
    }

    /// Appends one record: encode, write, flush — and `fsync` only for
    /// `submitted` records. A SIGKILL'd process loses nothing it has
    /// written (the page cache survives the process); `fsync` guards
    /// against *power loss*, where losing any other record merely
    /// downgrades recovery to re-running from the checkpoint, while a
    /// lost `submitted` record loses the job itself. Syncing just the
    /// one record per job keeps journal overhead far under the 2 %
    /// explore-wall budget `bench_suite --smoke` enforces. Returns
    /// whether the record was recorded. Failure (including an armed
    /// `journal.write` fault) degrades to a warning plus the
    /// `journal.write_errors` counter — the caller keeps serving. Each
    /// append, failed or not, runs in a `journal.append` span.
    pub fn append(&self, rec: &JournalRecord) -> bool {
        static JOURNAL_WRITE: faults::Point = faults::Point::new("journal.write");
        static WRITE_ERRORS: obs::Counter = obs::Counter::new("journal.write_errors");
        APPEND.time(|_| {
            let key = self.write_counter.fetch_add(1, Ordering::Relaxed);
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let mut line = String::new();
            if std::mem::take(&mut state.dirty) {
                line.push('\n');
            }
            line.push_str(&encode_line(rec));
            line.push('\n');
            let outcome = if JOURNAL_WRITE.fires_external(key) {
                Err(std::io::Error::other("injected fault at journal.write"))
            } else {
                match state.file.as_mut() {
                    Some(f) => f
                        .write_all(line.as_bytes())
                        .and_then(|()| f.flush())
                        .and_then(|()| {
                            if self.sync && rec.kind == "submitted" {
                                f.sync_data()
                            } else {
                                Ok(())
                            }
                        }),
                    None => Err(std::io::Error::other("journal segment is not open")),
                }
            };
            match outcome {
                Ok(()) => {
                    state.bytes += line.len() as u64;
                    true
                }
                Err(e) => {
                    // The write may have landed partially; fence the next
                    // line off from the torn tail.
                    state.dirty = true;
                    drop(state);
                    WRITE_ERRORS.incr();
                    obs::diagln!("journal: append failed ({e}); continuing without durability");
                    false
                }
            }
        })
    }

    /// Whether the active segment has outgrown its threshold and the
    /// owner should [`Journal::rewrite`] a compacted snapshot.
    pub fn should_rotate(&self) -> bool {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).bytes >= self.rotate_bytes
    }

    /// Compaction: writes `snapshot` to a fresh segment (tmp + sync +
    /// rename), switches appends to it, and deletes every older segment.
    /// A crash between install and deletion is benign — replay applies
    /// old records first and the snapshot's `submitted` records
    /// overwrite them.
    pub fn rewrite(&self, snapshot: &[JournalRecord]) -> Result<(), Error> {
        static ROTATIONS: obs::Counter = obs::Counter::new("journal.rotations");
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let next = state.seg + 1;
        let path = segment_path(&self.dir, next);
        let io = |e: std::io::Error| Error::Io(format!("{}: {e}", path.display()));
        let mut text = String::new();
        for rec in snapshot {
            text.push_str(&encode_line(rec));
            text.push('\n');
        }
        let tmp = write_synced_tmp(&path, text.as_bytes()).map_err(io)?;
        std::fs::rename(&tmp, &path).map_err(io)?;
        let file = OpenOptions::new().append(true).open(&path).map_err(io)?;
        let old = state.seg;
        state.file = Some(file);
        state.seg = next;
        state.bytes = text.len() as u64;
        state.dirty = false;
        drop(state);
        for idx in segment_indices(&self.dir) {
            if idx <= old {
                let _ = std::fs::remove_file(segment_path(&self.dir, idx));
            }
        }
        ROTATIONS.incr();
        Ok(())
    }

    /// Replays every decodable record under `dir`, in segment then line
    /// order. A missing directory is an empty journal; undecodable lines
    /// are skipped (counted in `journal.skipped_records`).
    pub fn replay(dir: &Path) -> Result<Vec<JournalRecord>, Error> {
        static SKIPPED: obs::Counter = obs::Counter::new("journal.skipped_records");
        let mut out = Vec::new();
        if !dir.exists() {
            return Ok(out);
        }
        let mut skipped = 0u64;
        for idx in segment_indices(dir) {
            let path = segment_path(dir, idx);
            // `read` + lossy decode: a torn tail may not be valid UTF-8,
            // and must cost one line, not the segment.
            let bytes =
                std::fs::read(&path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
            for line in String::from_utf8_lossy(&bytes).lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match decode_line(line) {
                    Some(rec) => out.push(rec),
                    None => skipped += 1,
                }
            }
        }
        if skipped > 0 {
            SKIPPED.add(skipped);
            obs::diagln!(
                "journal: skipped {skipped} undecodable record(s) in {} (torn tail or corruption)",
                dir.display()
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ggj-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<JournalRecord> {
        let spec = JobSpec::explore("TINY");
        vec![
            JournalRecord::submitted(1, &spec, 0, Path::new("/tmp/job0.ckpt")),
            JournalRecord::transition(1, "started"),
            JournalRecord::generation(1, 0),
            JournalRecord::generation(1, 1),
            JournalRecord::transition(1, "paused"),
            JournalRecord::resumed(1, 7),
            JournalRecord::done(1, Json::Obj(vec![("x".into(), Json::Num(1.0))])),
            JournalRecord::failed(2, "step panicked: boom"),
        ]
    }

    #[test]
    fn append_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let recs = sample_records();
        {
            let j = Journal::open(&dir).expect("open");
            for r in &recs {
                assert!(j.append(r), "append succeeds");
            }
        }
        // A reopened journal appends to the same segment.
        let j = Journal::open(&dir).expect("reopen");
        assert!(j.append(&JournalRecord::transition(3, "cancelled")));
        let mut expect = recs;
        expect.push(JournalRecord::transition(3, "cancelled"));
        assert_eq!(Journal::replay(&dir).expect("replay"), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_skips_torn_and_corrupt_lines() {
        let dir = tmp_dir("torn");
        let recs = sample_records();
        {
            let j = Journal::open(&dir).expect("open");
            for r in &recs {
                j.append(r);
            }
        }
        let seg = segment_path(&dir, 1);
        let mut text = std::fs::read_to_string(&seg).expect("read");
        // Corrupt one mid-file line (flip a byte inside record text) and
        // tear the tail (simulate a crash mid-append).
        let at = text.find("generation").expect("record text present");
        text.replace_range(at..at + 1, "G");
        text.push_str("{\"v\":1,\"checksum\":\"00");
        std::fs::write(&seg, &text).expect("write");
        let back = Journal::replay(&dir).expect("replay");
        assert_eq!(back.len(), recs.len() - 1, "one corrupt line dropped");
        assert!(back.iter().all(|r| recs.contains(r)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_compacts_and_drops_old_segments() {
        let dir = tmp_dir("rotate");
        let j = Journal::open_with(&dir, 256, false).expect("open");
        for r in &sample_records() {
            j.append(r);
        }
        assert!(j.should_rotate(), "tiny threshold passed");
        let snapshot = vec![
            JournalRecord::submitted(1, &JobSpec::explore("TINY"), 0, Path::new("/x.ckpt")),
            JournalRecord::generation(1, 1),
        ];
        j.rewrite(&snapshot).expect("rewrite");
        assert_eq!(segment_indices(&dir), vec![2], "old segment deleted");
        assert_eq!(Journal::replay(&dir).expect("replay"), snapshot);
        // Appends continue on the new segment.
        assert!(j.append(&JournalRecord::transition(1, "cancelled")));
        assert_eq!(Journal::replay(&dir).expect("replay").len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The exact bytes of one line, as written by the build that
    /// introduced this test: journals must replay across builds, so any
    /// change here is a format change (bump [`JOURNAL_VERSION`]).
    #[test]
    fn encoded_line_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            r#"{"v":1,"checksum":"f59b60a6daff1c7c","record":{"job":7,"kind":"submitted","seq":3,"#,
            r#""generation":null,"spec":{"version":2,"kind":"explore","design":"TINY","priority":0,"#,
            r#""population":10,"generations":3,"seed":26018,"threads":0,"op":"","out":null,"#,
            r#""checkpoint":null,"resume":false,"dedup":null},"checkpoint":"/tmp/job3.ckpt","#,
            r#""result":null,"error":null}}"#
        );
        let rec =
            JournalRecord::submitted(7, &JobSpec::explore("TINY"), 3, Path::new("/tmp/job3.ckpt"));
        assert_eq!(encode_line(&rec), GOLDEN);
        assert_eq!(decode_line(GOLDEN), Some(rec));
    }

    #[test]
    fn missing_directory_is_an_empty_journal() {
        let dir = tmp_dir("missing");
        assert!(Journal::replay(&dir).expect("replay").is_empty());
    }
}

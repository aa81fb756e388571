//! Generation-level checkpoint/resume for the NSGA-II exploration.
//!
//! A [`Checkpoint`] is the full state of an [`crate::nsga2::Exploration`]
//! between generations — population, evaluation archive (every point with
//! its metrics), RNG stream, and quarantine ledger — so a run saved after
//! any generation resumes *bit-identically* to an uninterrupted one. The
//! `ggd serve` explore step ([`crate::serve`]) saves one after every step
//! that evaluates.
//!
//! # Atomicity and integrity
//!
//! A checkpoint is written to `<path>.tmp` and [`std::fs::rename`]d into
//! place, so readers only ever observe a complete file. The envelope wraps
//! the payload with a format version and an FNV-1a checksum over the
//! payload's serialized text; load refuses version or checksum mismatches
//! with a typed [`Error::Checkpoint`] instead of resuming from torn state.
//!
//! # Versioning
//!
//! [`FORMAT_VERSION`] bumps whenever the payload layout changes; a resume
//! against a newer or older version fails closed (the caller restarts from
//! scratch rather than mis-parse). RNG state words and the fingerprint are
//! serialized as hex strings because `ggjson` numbers are `f64`-backed and
//! only exact below 2^53.

use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use ggjson::{FromJson, Json, ToJson};
use tech::RouteRule;

use crate::error::Error;
use crate::flow::FlowMetrics;
use crate::lda::LdaParams;
use crate::nsga2::{Genome, Nsga2Params, QuarantineEntry};
use crate::pipeline::Snapshot;

/// Checkpoint payload format version (see module docs).
pub const FORMAT_VERSION: u32 = 1;

/// The persisted state of an exploration run after `generation` completed
/// generations (0 = the initial population has been evaluated).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Hex fingerprint of the base snapshot the run started from.
    pub base_fingerprint: String,
    /// The exploration parameters (a resume must match them exactly).
    pub params: Nsga2Params,
    /// Completed generations (0 = initial population evaluated).
    pub generation: usize,
    /// The exploration RNG's xoshiro256++ state, as four hex words.
    pub rng: Vec<String>,
    /// Current population, in population order.
    pub pop: Vec<Genome>,
    /// Every unique evaluated genome with its first-seen generation, in
    /// evaluation order (the archive `ExploreResult::points` is built
    /// from).
    pub order: Vec<(Genome, usize)>,
    /// Metrics per evaluated genome, sorted by chromosome for
    /// byte-stable serialization.
    pub cache: Vec<(Genome, FlowMetrics)>,
    /// Quarantine ledger: candidates that exhausted the degrade chain.
    pub quarantine: Vec<QuarantineEntry>,
}

ggjson::json_struct!(Checkpoint {
    base_fingerprint,
    params,
    generation,
    rng,
    pop,
    order,
    cache,
    quarantine
});

static SAVE: obs::Span = obs::Span::new("checkpoint.save");

impl Checkpoint {
    /// Serializes, checksums, and atomically installs the checkpoint at
    /// `path` (tmp + rename), inside a `checkpoint.save` span. Creates the
    /// parent directory if missing.
    pub fn save(&self, path: &Path) -> Result<(), Error> {
        SAVE.time(|_| {
            // The payload is rendered exactly once; the envelope is spliced
            // around the rendered text instead of re-serializing the whole
            // archive a second time. Load re-renders the *parsed* payload for
            // checksum verification, which reproduces this text regardless of
            // the splice's indentation (the renderer is deterministic and
            // whitespace between tokens is not part of the value).
            let text = ggjson::to_string_pretty(&self.to_json());
            let sum = hex64(fnv1a(text.as_bytes()));
            let envelope =
                format!("{{\n  \"version\": {FORMAT_VERSION},\n  \"checksum\": \"{sum}\",\n  \"payload\": {text}\n}}");
            let io = |e: std::io::Error| Error::Checkpoint(format!("{}: {e}", path.display()));
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).map_err(io)?;
                }
            }
            let tmp = write_synced_tmp(path, envelope.as_bytes()).map_err(io)?;
            // Keep the outgoing envelope as `<path>.prev` — the last-good
            // fallback `load_with_fallback` resumes from when the primary is
            // corrupt (torn by a crash, or bit-rotted on disk). Best-effort:
            // a failed preserve must not block installing the new checkpoint.
            if path.exists() {
                let _ = std::fs::rename(path, prev_path(path));
            }
            std::fs::rename(&tmp, path).map_err(io)?;
            Ok(())
        })
    }

    /// Loads and verifies a checkpoint's envelope (version + checksum).
    /// Compatibility with a specific run is checked by [`Self::verify`].
    pub fn load(path: &Path) -> Result<Self, Error> {
        let err = |why: String| Error::Checkpoint(format!("{}: {why}", path.display()));
        let text = std::fs::read_to_string(path).map_err(|e| err(e.to_string()))?;
        let envelope: Json = ggjson::from_str(&text).ok_or_else(|| err("not valid JSON".into()))?;
        let version = envelope
            .get("version")
            .and_then(Json::as_num)
            .ok_or_else(|| err("missing version".into()))?;
        if version != f64::from(FORMAT_VERSION) {
            return Err(err(format!(
                "format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let payload = envelope
            .get("payload")
            .ok_or_else(|| err("missing payload".into()))?;
        // The checksum covers the payload's canonical serialization, which
        // re-rendering the parsed payload reproduces exactly.
        let expect = envelope
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing checksum".into()))?;
        let actual = hex64(fnv1a(ggjson::to_string_pretty(payload).as_bytes()));
        if expect != actual {
            return Err(err(format!("checksum mismatch ({expect} != {actual})")));
        }
        Checkpoint::from_json(payload).ok_or_else(|| err("payload does not decode".into()))
    }

    /// [`Checkpoint::load`], falling back to the `<path>.prev` last-good
    /// envelope when the primary is unreadable (missing, torn, failing
    /// its FNV-1a checksum, or carrying the wrong format version).
    ///
    /// Returns the checkpoint plus whether the fallback was taken. A
    /// successful fallback bumps the `checkpoint.corrupt_recovered`
    /// counter and warns — resuming from the previous generation is
    /// always sound (the missing generation re-runs deterministically),
    /// so a corrupt primary degrades a job instead of erroring it. When
    /// both envelopes fail, the *primary's* error is returned.
    pub fn load_with_fallback(path: &Path) -> Result<(Self, bool), Error> {
        static CORRUPT_RECOVERED: obs::Counter = obs::Counter::new("checkpoint.corrupt_recovered");
        let primary = match Self::load(path) {
            Ok(cp) => return Ok((cp, false)),
            Err(e) => e,
        };
        let prev = prev_path(path);
        if prev.exists() {
            if let Ok(cp) = Self::load(&prev) {
                CORRUPT_RECOVERED.incr();
                obs::diagln!(
                    "checkpoint: {} is corrupt ({primary}); resumed from last-good {}",
                    path.display(),
                    prev.display()
                );
                return Ok((cp, true));
            }
        }
        Err(primary)
    }

    /// Checks that this checkpoint belongs to the run being resumed (same
    /// base snapshot, identical exploration parameters) and that its state
    /// is one that run could have written: a full population, genes inside
    /// the Table-I candidate lists, and metrics for every genome the loop
    /// will look up. The checksum only proves the file is the one written,
    /// not that its writer was this code.
    pub fn verify(&self, base: &Snapshot, params: &Nsga2Params) -> Result<(), Error> {
        let fp = fingerprint(base);
        if self.base_fingerprint != fp {
            return Err(Error::Checkpoint(format!(
                "base snapshot fingerprint {fp} does not match checkpoint {}",
                self.base_fingerprint
            )));
        }
        if self.params != *params {
            return Err(Error::Checkpoint(
                "exploration parameters differ from the checkpointed run".into(),
            ));
        }
        let malformed = |why: String| Err(Error::Checkpoint(format!("malformed state: {why}")));
        if self.rng.len() != 4 {
            return malformed("RNG state is not four words".into());
        }
        if self.generation > params.generations {
            return malformed(format!(
                "generation {} of a {}-generation run",
                self.generation, params.generations
            ));
        }
        // Generation 0 always seeds the two canonical genomes, so a
        // population below two checkpoints two genomes until selection
        // first trims it.
        let expected = if self.generation == 0 {
            params.population.max(2)
        } else {
            params.population
        };
        if self.pop.len() != expected {
            return malformed(format!(
                "population of {} genomes at generation {}, the run keeps {expected}",
                self.pop.len(),
                self.generation
            ));
        }
        let mut looked_up = self.pop.iter().chain(self.order.iter().map(|(g, _)| g));
        let stored = self.cache.iter().map(|(g, _)| g);
        let quarantined = self.quarantine.iter().map(|q| &q.genome);
        if let Some(g) = looked_up
            .clone()
            .chain(stored)
            .chain(quarantined)
            .find(|g| !genes_in_range(g))
        {
            return malformed(format!("genome {g:?} has a gene outside its candidates"));
        }
        let cached: HashSet<&Genome> = self.cache.iter().map(|(g, _)| g).collect();
        if let Some(g) = looked_up.find(|g| !cached.contains(g)) {
            return malformed(format!("genome {g:?} has no cached metrics"));
        }
        Ok(())
    }

    /// Decodes the persisted RNG state words.
    pub fn rng_state(&self) -> Result<[u64; 4], Error> {
        let mut s = [0u64; 4];
        if self.rng.len() != 4 {
            return Err(Error::Checkpoint("malformed RNG state".into()));
        }
        for (w, h) in s.iter_mut().zip(&self.rng) {
            *w = parse_hex64(h)
                .ok_or_else(|| Error::Checkpoint(format!("bad RNG state word {h:?}")))?;
        }
        Ok(s)
    }
}

/// Whether every gene of `g` indexes its Table-I candidate list, as
/// [`Genome::to_config`] requires.
fn genes_in_range(g: &Genome) -> bool {
    g.op <= 1
        && usize::from(g.n_idx) < LdaParams::N_CANDIDATES.len()
        && usize::from(g.iter_idx) < LdaParams::ITER_CANDIDATES.len()
        && g.scale_idx
            .iter()
            .all(|&s| usize::from(s) < RouteRule::CANDIDATES.len())
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(suffix);
    PathBuf::from(p)
}

/// The `<path>.prev` sibling holding the previous good envelope (see
/// [`Checkpoint::load_with_fallback`]).
pub fn prev_path(path: &Path) -> PathBuf {
    with_suffix(path, ".prev")
}

/// Writes `bytes` to `<path>.tmp` and syncs it to disk, returning the tmp
/// path for the caller to rename over `path` — so a reader of `path` only
/// ever observes a complete file. Shared by checkpoint saves and journal
/// compaction.
pub(crate) fn write_synced_tmp(path: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let tmp = with_suffix(path, ".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(tmp)
}

/// Deterministic fingerprint of a base snapshot: its headline metrics plus
/// design size, enough to catch resuming against the wrong design or a
/// different baseline implementation. FNV-1a over the little-endian
/// bytes of those words.
pub fn fingerprint(base: &Snapshot) -> String {
    let words = [
        base.security.er_sites,
        base.security.er_tracks.to_bits(),
        base.tns_ps().to_bits(),
        base.power_mw().to_bits(),
        u64::from(base.drc),
        base.layout.design().nets.len() as u64,
        base.routing.total_wirelength_um().to_bits(),
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    hex64(fnv1a(&bytes))
}

/// FNV-1a over a byte slice (shared with the job journal's per-line
/// checksums).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fixed-width hex rendering of a state/checksum word.
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

/// Inverse of [`hex64`].
pub fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let g = Genome {
            op: 1,
            n_idx: 2,
            iter_idx: 0,
            scale_idx: [0, 1, 2, 3, 0, 1, 2, 3, 0, 1],
        };
        let m = FlowMetrics {
            security: 0.25,
            er_sites: 123,
            er_tracks: 45.5,
            tns_ps: -10.25,
            power_mw: 1.5,
            drc: 3,
        };
        Checkpoint {
            base_fingerprint: hex64(0xDEAD_BEEF),
            params: Nsga2Params::builder().population(4).generations(2).build(),
            generation: 1,
            rng: vec![hex64(1), hex64(2), hex64(3), hex64(u64::MAX)],
            pop: vec![g],
            order: vec![(g, 0)],
            cache: vec![(g, m)],
            quarantine: vec![QuarantineEntry {
                genome: g,
                generation: 1,
                incremental: "injected fault at route.overflow".into(),
                full: "deadline exceeded (5 ms budget)".into(),
            }],
        }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("ggcp-{}", std::process::id()));
        let path = dir.join("checkpoint.ggjson");
        let cp = sample();
        cp.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(cp, back);
        assert_eq!(back.rng_state().expect("rng"), [1, 2, 3, u64::MAX]);
        // No tmp residue after the atomic install.
        assert!(!dir.join("checkpoint.ggjson.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_corruption_and_bad_versions() {
        let dir = std::env::temp_dir().join(format!("ggcp-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("checkpoint.ggjson");
        let cp = sample();
        cp.save(&path).expect("save");

        // Flip a byte inside the payload: checksum must catch it.
        let mut text = std::fs::read_to_string(&path).expect("read");
        let at = text.find("123").expect("er_sites literal present");
        text.replace_range(at..at + 3, "124");
        std::fs::write(&path, &text).expect("write");
        match Checkpoint::load(&path) {
            Err(Error::Checkpoint(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected checksum failure, got {other:?}"),
        }

        // Wrong version fails closed.
        cp.save(&path).expect("save");
        let text = std::fs::read_to_string(&path)
            .expect("read")
            .replace("\"version\": 1", "\"version\": 999");
        std::fs::write(&path, &text).expect("write");
        match Checkpoint::load(&path) {
            Err(Error::Checkpoint(why)) => assert!(why.contains("version"), "{why}"),
            other => panic!("expected version failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_preserves_previous_envelope_and_fallback_recovers() {
        let dir = std::env::temp_dir().join(format!("ggcp-prev-{}", std::process::id()));
        let path = dir.join("checkpoint.ggjson");
        let mut gen0 = sample();
        gen0.generation = 0;
        let mut gen1 = sample();
        gen1.generation = 1;
        gen0.save(&path).expect("save gen0");
        assert!(!prev_path(&path).exists(), "first save has nothing to keep");
        gen1.save(&path).expect("save gen1");
        assert!(prev_path(&path).exists(), "second save keeps the last good");
        assert_eq!(
            Checkpoint::load(&prev_path(&path))
                .expect("prev loads")
                .generation,
            0
        );

        // Healthy primary: no fallback taken.
        let (cp, recovered) = Checkpoint::load_with_fallback(&path).expect("load");
        assert_eq!((cp.generation, recovered), (1, false));

        // Primary vanished (crash between the two installing renames):
        // the fallback resumes from the previous generation.
        std::fs::remove_file(&path).expect("remove primary");
        let (cp, recovered) = Checkpoint::load_with_fallback(&path).expect("fallback");
        assert_eq!((cp.generation, recovered), (0, true));

        // Both gone: the primary's error surfaces.
        std::fs::remove_file(prev_path(&path)).expect("remove prev");
        assert!(Checkpoint::load_with_fallback(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corrupt-a-byte matrix: flip single bytes across the primary
    /// envelope and assert every flip either leaves the load intact
    /// (whitespace between tokens) or degrades to the `.prev` fallback —
    /// never an error, never a silently wrong payload.
    #[test]
    fn corrupt_byte_matrix_always_recovers() {
        let dir = std::env::temp_dir().join(format!("ggcp-matrix-{}", std::process::id()));
        let path = dir.join("checkpoint.ggjson");
        let mut gen0 = sample();
        gen0.generation = 0;
        let mut gen1 = sample();
        gen1.generation = 1;
        gen0.save(&path).expect("save gen0");
        gen1.save(&path).expect("save gen1");
        let pristine = std::fs::read(&path).expect("read primary");
        let mut fallbacks = 0u32;
        for at in (0..pristine.len()).step_by(3) {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x4a;
            std::fs::write(&path, &bytes).expect("write corrupted");
            let (cp, recovered) = Checkpoint::load_with_fallback(&path)
                .unwrap_or_else(|e| panic!("flip at byte {at} must recover, got {e}"));
            if recovered {
                assert_eq!(cp, gen0, "fallback must hand back the last good state");
                fallbacks += 1;
            } else {
                assert_eq!(cp, gen1, "an accepted primary must decode unchanged");
            }
        }
        assert!(fallbacks > 0, "the matrix must exercise the fallback path");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The envelope header bytes (version, checksum key order and
    /// indentation, and the checksum of [`sample`]'s payload), as written
    /// by the build that introduced this test: checkpoints must load
    /// across builds, so any change here is a format change.
    #[test]
    fn envelope_header_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("ggcp-golden-{}", std::process::id()));
        let path = dir.join("checkpoint.ggjson");
        sample().save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        let golden =
            "{\n  \"version\": 1,\n  \"checksum\": \"40ed465e4bddd587\",\n  \"payload\": {";
        assert!(
            text.starts_with(golden),
            "envelope header changed:\n{}",
            &text[..golden.len().min(text.len())]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fingerprints are stored in checkpoints, so their bits must not
    /// drift: this is TINY's baseline fingerprint as the build that
    /// introduced this test computed it. A legitimate baseline change
    /// moves it (and correctly makes older checkpoints refuse to resume).
    #[test]
    fn tiny_baseline_fingerprint_is_pinned() {
        let tech = tech::Technology::nangate45_like();
        let base = crate::pipeline::implement_baseline(&netlist::bench::tiny_spec(), &tech)
            .expect("tiny baseline");
        assert_eq!(fingerprint(&base), "7cba2d5fb13e6e16");
    }

    #[test]
    fn hex_words_round_trip() {
        for v in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 1 << 53, (1 << 53) + 1] {
            assert_eq!(parse_hex64(&hex64(v)), Some(v), "{v:#x}");
        }
        assert_eq!(parse_hex64("not hex"), None);
    }
}

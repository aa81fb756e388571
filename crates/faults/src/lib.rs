//! Deterministic, seed-driven fault injection for the exploration loop.
//!
//! The exploratory NSGA-II loop evaluates thousands of ECO candidates; this
//! crate lets tests and chaos drills *inject* failures (router overflow
//! spirals, STA divergence, eval panics, legalizer faults) at named points
//! inside those evaluations, deterministically, so the sandbox/degrade-chain
//! machinery in `gdsii_guard::sandbox` can be exercised without flaky timing
//! tricks.
//!
//! # Design
//!
//! Same contract as `crates/obs`: **zero cost when disabled**. Every
//! injection point compiles to one relaxed atomic load when no fault is
//! armed and no evaluation deadline is active; the slow path (thread-local
//! context lookup + registry scan) only runs in drills.
//!
//! Faults fire by raising [`std::panic::panic_any`] with a typed
//! [`FaultPayload`]; the evaluation sandbox catches the unwind and converts
//! it into a typed `EvalFailure`. A point never fires outside an evaluation
//! context (see [`push_context`]) — baseline implementation and ordinary
//! library use are unaffected even while a spec is armed.
//!
//! # Spec grammar (`GG_FAULTS`)
//!
//! Comma-separated `point:trigger` entries plus an optional `seed=N`:
//!
//! ```text
//! GG_FAULTS=route.overflow:0.01,sta.diverge:gen3,eval.panic:g2c5,seed=7
//! ```
//!
//! Triggers:
//!
//! * `always` — fires at every armed check of that point.
//! * a float in `(0, 1]`, e.g. `0.01` — fires for that fraction of
//!   candidates, decided by hashing `(point, candidate key, seed, stage)`;
//!   deterministic and thread-schedule independent.
//! * `genN` — fires for candidate 0 of generation `N` (generation 0 is the
//!   initial population).
//! * `gNcM` — fires for candidate `M` of generation `N` (candidate indices
//!   follow the deterministic sorted order of `nsga2::Exploration::evaluate`).
//!
//! A trailing `!` (e.g. `always!`, `g2c5!`) makes the trigger *persistent*:
//! it is re-evaluated on every degrade-chain stage, so the full re-eval
//! fallback also fails and the candidate is quarantined. Without `!` a
//! trigger only fires on stage 0 (the incremental attempt), so the candidate
//! degrades to the full path and recovers.
//!
//! # Deadlines
//!
//! [`set_deadline`] arms a cooperative per-thread wall-clock budget; every
//! injection point doubles as a deadline checkpoint (maze-pop / RRR-round /
//! STA-cone / legalizer granularity). Deadline hits raise
//! [`FaultPayload::DeadlineExceeded`]. Deadlines depend on wall time and are
//! therefore *not* covered by the bit-identity guarantees of replay mode.

// This crate runs inside sandboxed candidate evaluations; a stray unwrap
// here would masquerade as an evaluation failure, so it is denied.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

/// Fast gate: true iff any fault entry is armed or any thread holds an
/// active deadline. Injection points load this (relaxed) and return.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// True iff the armed config has at least one entry.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Number of threads currently holding an active deadline.
static DEADLINES: AtomicUsize = AtomicUsize::new(0);

fn recompute_enabled() {
    let on = ARMED.load(Ordering::Relaxed) || DEADLINES.load(Ordering::Relaxed) > 0;
    ENABLED.store(on, Ordering::Relaxed);
}

fn config() -> &'static Mutex<Spec> {
    static CONFIG: OnceLock<Mutex<Spec>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(Spec::default()))
}

/// Loads `GG_FAULTS` once per process. Called by the evaluation sandbox (and
/// harmless to call repeatedly); a malformed spec is reported and ignored
/// rather than aborting the host process.
pub fn ensure_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("GG_FAULTS") {
            if spec.trim().is_empty() {
                return;
            }
            match arm_spec(&spec) {
                Ok(()) => obs::diagln!("faults: armed GG_FAULTS={spec}"),
                Err(e) => obs::diagln!("faults: ignoring malformed GG_FAULTS ({e})"),
            }
        }
    });
}

/// Arms a fault spec (replacing any previous one). Programmatic counterpart
/// of `GG_FAULTS` for tests, avoiding process-global env-var races.
pub fn arm_spec(spec: &str) -> Result<(), String> {
    let parsed = Spec::parse(spec)?;
    let has_entries = !parsed.entries.is_empty();
    match config().lock() {
        Ok(mut c) => *c = parsed,
        Err(p) => return Err(format!("fault registry poisoned: {p}")),
    }
    ARMED.store(has_entries, Ordering::Relaxed);
    recompute_enabled();
    Ok(())
}

/// Disarms all fault entries (deadlines held by live guards stay active).
pub fn clear() {
    if let Ok(mut c) = config().lock() {
        *c = Spec::default();
    }
    ARMED.store(false, Ordering::Relaxed);
    recompute_enabled();
}

/// True iff any fault entry is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// How an armed entry decides whether to fire for a given context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fires at every armed check.
    Always,
    /// Fires for this fraction of candidates (deterministic hash of
    /// `(point, candidate key, seed, stage)`).
    Prob(f64),
    /// Fires for candidate `.1` of generation `.0` (`genN` parses to
    /// candidate 0).
    GenCandidate(u64, u64),
}

/// One armed `point:trigger` entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Injection-point name, e.g. `route.overflow`.
    pub point: String,
    /// Firing rule.
    pub trigger: Trigger,
    /// Fire on every degrade-chain stage (trailing `!`), not just stage 0.
    pub persistent: bool,
}

/// A parsed fault spec: armed entries plus the hash seed for `Prob`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Spec {
    /// Armed entries, in spec order.
    pub entries: Vec<Entry>,
    /// Seed mixed into probabilistic trigger hashes.
    pub seed: u64,
}

impl Spec {
    /// Parses the `GG_FAULTS` grammar (see crate docs).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = Spec::default();
        for raw in s.split(',') {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                spec.seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed in {item:?}"))?;
                continue;
            }
            let (point, trig) = item
                .split_once(':')
                .ok_or_else(|| format!("missing ':' in {item:?}"))?;
            if point.is_empty() {
                return Err(format!("empty point name in {item:?}"));
            }
            let (trig, persistent) = match trig.strip_suffix('!') {
                Some(t) => (t, true),
                None => (trig, false),
            };
            let trigger = Self::parse_trigger(trig)
                .ok_or_else(|| format!("bad trigger {trig:?} in {item:?}"))?;
            spec.entries.push(Entry {
                point: point.to_string(),
                trigger,
                persistent,
            });
        }
        Ok(spec)
    }

    fn parse_trigger(t: &str) -> Option<Trigger> {
        if t == "always" {
            return Some(Trigger::Always);
        }
        if let Some(rest) = t.strip_prefix('g') {
            if let Some(gen) = rest.strip_prefix("en") {
                return gen.parse::<u64>().ok().map(|g| Trigger::GenCandidate(g, 0));
            }
            if let Some((g, c)) = rest.split_once('c') {
                let (g, c) = (g.parse::<u64>().ok()?, c.parse::<u64>().ok()?);
                return Some(Trigger::GenCandidate(g, c));
            }
        }
        match t.parse::<f64>() {
            Ok(p) if p > 0.0 && p <= 1.0 => Some(Trigger::Prob(p)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation context + deadline (thread-local)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Ctx {
    generation: u64,
    candidate: u64,
    key: u64,
    stage: u8,
}

thread_local! {
    static CTX: Cell<Option<Ctx>> = const { Cell::new(None) };
    static DEADLINE: Cell<Option<(Instant, Duration)>> = const { Cell::new(None) };
}

/// Restores the previous evaluation context when dropped.
pub struct ContextGuard {
    prev: Option<Ctx>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Enters an evaluation context on this thread: triggers only fire between
/// `push_context` and the guard's drop. `key` identifies the candidate for
/// probabilistic triggers (the sandbox derives it from `(genome, seed)`);
/// `stage` is the degrade-chain stage (0 = incremental, 1 = full re-eval).
pub fn push_context(generation: u64, candidate: u64, key: u64, stage: u8) -> ContextGuard {
    let ctx = Ctx {
        generation,
        candidate,
        key,
        stage,
    };
    ContextGuard {
        prev: CTX.with(|c| c.replace(Some(ctx))),
    }
}

/// Clears the deadline (and drops the global refcount) when dropped.
pub struct DeadlineGuard {
    prev: Option<(Instant, Duration)>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.prev));
        if self.prev.is_none() {
            DEADLINES.fetch_sub(1, Ordering::Relaxed);
            recompute_enabled();
        }
    }
}

/// Arms a cooperative wall-clock budget for this thread's evaluation.
/// Injection points double as deadline checkpoints; overruns raise
/// [`FaultPayload::DeadlineExceeded`] at the next checkpoint.
pub fn set_deadline(budget: Duration) -> DeadlineGuard {
    let prev = DEADLINE.with(|d| d.replace(Some((Instant::now() + budget, budget))));
    if prev.is_none() {
        DEADLINES.fetch_add(1, Ordering::Relaxed);
        recompute_enabled();
    }
    DeadlineGuard { prev }
}

// ---------------------------------------------------------------------------
// Injection points
// ---------------------------------------------------------------------------

/// A named injection point. Declare one `static` per call site:
///
/// ```ignore
/// static OVERFLOW: faults::Point = faults::Point::new("route.overflow");
/// OVERFLOW.check(); // one relaxed load when nothing is armed
/// ```
pub struct Point {
    name: &'static str,
}

impl Point {
    /// Const constructor so points can live in statics.
    pub const fn new(name: &'static str) -> Self {
        Self { name }
    }

    /// The point's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Deadline checkpoint + armed-fault check. Panics (via `panic_any`,
    /// with a [`FaultPayload`]) when a deadline has expired or an armed
    /// trigger matches the current context; a no-op otherwise.
    #[inline]
    pub fn check(&self) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        self.check_slow();
    }

    #[cold]
    fn check_slow(&self) {
        if let Some((deadline, budget)) = DEADLINE.with(|d| d.get()) {
            if Instant::now() >= deadline {
                INJECTED.incr();
                std::panic::panic_any(FaultPayload::DeadlineExceeded {
                    budget_ms: budget.as_millis() as u64,
                });
            }
        }
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let Some(ctx) = CTX.with(|c| c.get()) else {
            return;
        };
        let fire = match config().lock() {
            Ok(c) => c
                .entries
                .iter()
                .any(|e| e.point == self.name && fires(e, ctx, c.seed, self.name)),
            // A panic while the registry lock was held (e.g. a fault raised
            // from a previous check on another thread) must not cascade into
            // an unrelated candidate: treat as disarmed.
            Err(_) => false,
        };
        if fire {
            INJECTED.incr();
            std::panic::panic_any(FaultPayload::Injected { point: self.name });
        }
    }
}

impl Point {
    /// Context-free firing decision for *service-level* points (journal
    /// appends, runner supervision) that run outside any evaluation
    /// sandbox. Unlike [`Point::check`] it never panics — it returns
    /// whether an armed trigger matches so the caller can convert the
    /// fault into its own failure mode (an `io::Error`, a deliberate
    /// runner death). `always` always matches, a probability hashes
    /// `(point, key, seed)` deterministically, and generation-addressed
    /// triggers never match out here (there is no generation).
    pub fn fires_external(&self, key: u64) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
        let fire = match config().lock() {
            Ok(c) => c.entries.iter().any(|e| {
                e.point == self.name
                    && match e.trigger {
                        Trigger::Always => true,
                        Trigger::Prob(p) => {
                            let h = splitmix64(hash_str(self.name) ^ key ^ c.seed.rotate_left(17));
                            unit(h) < p
                        }
                        Trigger::GenCandidate(_, _) => false,
                    }
            }),
            Err(_) => false,
        };
        if fire {
            INJECTED.incr();
        }
        fire
    }
}

fn fires(e: &Entry, ctx: Ctx, seed: u64, point: &str) -> bool {
    if ctx.stage > 0 && !e.persistent {
        return false;
    }
    match e.trigger {
        Trigger::Always => true,
        Trigger::GenCandidate(g, c) => ctx.generation == g && ctx.candidate == c,
        Trigger::Prob(p) => {
            let h = splitmix64(
                hash_str(point) ^ ctx.key ^ seed.rotate_left(17) ^ u64::from(ctx.stage) << 56,
            );
            unit(h) < p
        }
    }
}

/// Faults that fired, deadline hits included.
static INJECTED: obs::Counter = obs::Counter::new("faults.injected");

// ---------------------------------------------------------------------------
// Panic payload
// ---------------------------------------------------------------------------

/// Typed payload raised by firing points; the evaluation sandbox downcasts
/// unwind payloads to this to distinguish drills from genuine bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPayload {
    /// An armed injection point fired.
    Injected {
        /// The point that fired.
        point: &'static str,
    },
    /// The cooperative per-candidate deadline expired.
    DeadlineExceeded {
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
}

/// Downcasts a caught unwind payload to a [`FaultPayload`], if it is one.
pub fn payload_of(p: &(dyn Any + Send)) -> Option<FaultPayload> {
    p.downcast_ref::<FaultPayload>().copied()
}

// ---------------------------------------------------------------------------
// Hashing (FNV-1a + SplitMix64 finalizer)
// ---------------------------------------------------------------------------

/// FNV-1a over a string, for point-name mixing.
pub fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer, for decorrelating hash inputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault config is process-global; serialize the tests that arm it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parses_the_readme_spec() {
        let s = Spec::parse("route.overflow:0.01,sta.diverge:gen3,eval.panic:g2c5,seed=7")
            .expect("spec parses");
        assert_eq!(s.seed, 7);
        assert_eq!(s.entries.len(), 3);
        assert_eq!(s.entries[0].trigger, Trigger::Prob(0.01));
        assert_eq!(s.entries[1].trigger, Trigger::GenCandidate(3, 0));
        assert_eq!(s.entries[2].trigger, Trigger::GenCandidate(2, 5));
        assert!(s.entries.iter().all(|e| !e.persistent));

        let s = Spec::parse("eval.panic:always!").expect("persistent parses");
        assert_eq!(s.entries[0].trigger, Trigger::Always);
        assert!(s.entries[0].persistent);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "route.overflow", // no trigger
            ":always",        // no point
            "x.y:1.5",        // probability out of range
            "x.y:0",          // zero probability is a disarmed entry
            "x.y:genx",       // unparsable generation
            "seed=abc",       // unparsable seed
            "x.y:maybe",      // unknown word
        ] {
            assert!(Spec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn disabled_points_do_nothing() {
        let _g = lock();
        clear();
        static P: Point = Point::new("test.disabled");
        let _ctx = push_context(0, 0, 1, 0);
        for _ in 0..10_000 {
            P.check();
        }
    }

    #[test]
    fn fires_only_in_context_and_at_stage_zero() {
        let _g = lock();
        arm_spec("test.point:always").expect("arm");
        static P: Point = Point::new("test.point");

        // No context: never fires even when armed.
        P.check();

        // Stage 0: fires with a typed payload.
        let caught = std::panic::catch_unwind(|| {
            let _ctx = push_context(1, 2, 99, 0);
            P.check();
        })
        .expect_err("armed point should fire");
        assert_eq!(
            payload_of(&*caught),
            Some(FaultPayload::Injected {
                point: "test.point"
            })
        );

        // Stage 1: a non-persistent trigger stays quiet (degrade recovers).
        {
            let _ctx = push_context(1, 2, 99, 1);
            P.check();
        }

        // Persistent trigger fires at stage 1 too.
        arm_spec("test.point:always!").expect("arm");
        assert!(std::panic::catch_unwind(|| {
            let _ctx = push_context(1, 2, 99, 1);
            P.check();
        })
        .is_err());
        clear();
    }

    #[test]
    fn generation_triggers_address_one_candidate() {
        let _g = lock();
        arm_spec("test.gen:gen3,test.gc:g2c5").expect("arm");
        static GEN: Point = Point::new("test.gen");
        static GC: Point = Point::new("test.gc");

        let fires_at = |p: &'static Point, generation, candidate| {
            std::panic::catch_unwind(move || {
                let _ctx = push_context(generation, candidate, 7, 0);
                p.check();
            })
            .is_err()
        };
        assert!(fires_at(&GEN, 3, 0));
        assert!(!fires_at(&GEN, 3, 1), "genN addresses candidate 0 only");
        assert!(!fires_at(&GEN, 2, 0));
        assert!(fires_at(&GC, 2, 5));
        assert!(!fires_at(&GC, 2, 4));
        assert!(!fires_at(&GC, 3, 5));
        clear();
    }

    #[test]
    fn probability_is_deterministic_per_key_and_seed() {
        let _g = lock();
        arm_spec("test.prob:0.5,seed=11").expect("arm");
        static P: Point = Point::new("test.prob");
        let decide = |key| {
            std::panic::catch_unwind(move || {
                let _ctx = push_context(0, 0, key, 0);
                P.check();
            })
            .is_err()
        };
        let first: Vec<bool> = (0..64).map(decide).collect();
        let second: Vec<bool> = (0..64).map(decide).collect();
        assert_eq!(first, second, "same key/seed must decide identically");
        let hits = first.iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 keys, got {hits}");
        clear();
    }

    #[test]
    fn external_points_fire_without_a_context() {
        let _g = lock();
        arm_spec("journal.write:always").expect("arm");
        static J: Point = Point::new("journal.write");
        static OTHER: Point = Point::new("serve.runner_panic");
        // No push_context anywhere: the service-level API still decides.
        assert!(J.fires_external(0));
        assert!(!OTHER.fires_external(0), "only the armed point matches");

        // Probabilities are deterministic per (key, seed) and neither
        // always-on nor always-off at p=0.5.
        arm_spec("journal.write:0.5,seed=3").expect("arm");
        let first: Vec<bool> = (0..64).map(|k| J.fires_external(k)).collect();
        let second: Vec<bool> = (0..64).map(|k| J.fires_external(k)).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 keys, got {hits}");

        // Generation-addressed triggers never match context-free checks.
        arm_spec("journal.write:gen0").expect("arm");
        assert!(!J.fires_external(0));
        clear();
        assert!(!J.fires_external(0), "disarmed spec never fires");
    }

    #[test]
    fn deadline_fires_at_checkpoints() {
        let _g = lock();
        clear();
        static P: Point = Point::new("test.deadline");
        let caught = std::panic::catch_unwind(|| {
            let _dl = set_deadline(Duration::from_millis(0));
            P.check();
        })
        .expect_err("expired deadline should fire");
        assert_eq!(
            payload_of(&*caught),
            Some(FaultPayload::DeadlineExceeded { budget_ms: 0 })
        );
        // Guard dropped: the gate is released again.
        P.check();
    }
}

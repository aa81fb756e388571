//! The per-design shared baseline cache.
//!
//! Building a baseline (placement, routing, STA, power model) is the
//! expensive part of every job; a server builds it **once per design**,
//! lazily, and every job over that design shares the result. Explore
//! jobs also share one [`EvalEngine`] per design, built on the first
//! explore step that needs it, so concurrent explores share the
//! engine's operator-edit and metrics memos — which is bit-safe, because
//! a memo hit returns exactly what a fresh recompute would (pinned by
//! the incremental-equivalence suite). Analyze and harden jobs read only
//! the snapshot and never build the engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use netlist::bench::DesignSpec;
use tech::Technology;

use crate::error::Error;
use crate::pipeline::{implement_baseline, EvalEngine, MemoryFootprint, Snapshot};
use crate::serve::job::BaselineSummary;

/// An implemented design shared by every job targeting it: the baseline
/// snapshot, its pre-rendered headline summary, and the evaluation engine
/// once an explore has asked for it.
pub struct DesignContext {
    /// Headline metrics of the baseline, attached to `baseline` events.
    pub summary: BaselineSummary,
    base: Snapshot,
    engine: OnceLock<EvalEngine>,
}

impl DesignContext {
    /// The implemented baseline snapshot.
    pub fn base(&self) -> &Snapshot {
        &self.base
    }

    /// The evaluation engine over the baseline, built against `tech` on
    /// first use; concurrent first callers block on the one build.
    pub fn engine(&self, tech: &Technology) -> &EvalEngine {
        self.engine
            .get_or_init(|| EvalEngine::new(&self.base, tech))
    }

    /// What this context pins in memory: the engine's footprint once it
    /// is built, else the baseline's occupancy index and routing planes.
    fn memory_footprint(&self) -> MemoryFootprint {
        match self.engine.get() {
            Some(engine) => engine.memory_footprint(),
            None => MemoryFootprint {
                occupancy_bytes: self.base.layout.occupancy().occupancy_bytes(),
                route_planes_bytes: self.base.routing.grid().planes_bytes(),
                cache_bytes: 0,
            },
        }
    }
}

type Slot = Arc<OnceLock<Result<Arc<DesignContext>, Error>>>;

/// Lazily-built, design-keyed cache of [`DesignContext`]s.
///
/// Each design gets one `OnceLock` slot: the first job to ask performs
/// the build while later askers block on the same slot instead of
/// duplicating the work, and every subsequent hit is a pointer clone.
pub struct BaselineCache {
    tech: Technology,
    slots: Mutex<HashMap<String, Slot>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl BaselineCache {
    /// An empty cache implementing baselines against `tech`.
    pub fn new(tech: Technology) -> Self {
        Self {
            tech,
            slots: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The technology baselines are implemented against.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Returns the shared context for `design`, building it on first use.
    ///
    /// Unknown designs and baselines that fail consistency checks are
    /// typed errors; a failed build is cached too, so a bad design fails
    /// fast for every job that names it.
    pub fn get(&self, design: &str) -> Result<Arc<DesignContext>, Error> {
        let slot: Slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(slots.entry(design.to_owned()).or_default())
        };
        let mut built_here = false;
        let outcome = slot.get_or_init(|| {
            built_here = true;
            self.build(design)
        });
        if built_here {
            self.builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome.clone()
    }

    /// Summed [`MemoryFootprint`] of every successfully built context —
    /// what the cache currently pins in memory across all designs.
    /// Slots still building are skipped (a non-blocking peek).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let slots: Vec<Slot> = {
            let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            slots.values().map(Arc::clone).collect()
        };
        let mut total = MemoryFootprint::default();
        for slot in slots {
            if let Some(Ok(ctx)) = slot.get() {
                let m = ctx.memory_footprint();
                total.occupancy_bytes += m.occupancy_bytes;
                total.route_planes_bytes += m.route_planes_bytes;
                total.cache_bytes += m.cache_bytes;
            }
        }
        total
    }

    /// `(builds, hits)` counters: how many contexts were constructed vs
    /// served from cache. `builds` counts failed builds too.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.builds.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }

    fn build(&self, design: &str) -> Result<Arc<DesignContext>, Error> {
        let spec = resolve_spec(design)
            .ok_or_else(|| Error::Serve(format!("unknown design '{design}'")))?;
        let base = implement_baseline(&spec, &self.tech)?;
        Ok(Arc::new(DesignContext {
            summary: BaselineSummary::from_snapshot(&base),
            base,
            engine: OnceLock::new(),
        }))
    }
}

/// Resolves a design name to its benchmark spec.
///
/// Accepts the twelve `netlist::bench` specs (optionally with a
/// `@x{factor}` scale suffix, e.g. `AES_2@x7`) plus `TINY`, the
/// miniature smoke-test design the CI drills run (it is not part of the
/// published benchmark table, so `parse_spec` does not know it).
pub fn resolve_spec(design: &str) -> Option<DesignSpec> {
    if design == "TINY" {
        return Some(netlist::bench::tiny_spec());
    }
    netlist::bench::parse_spec(design)
}

/// One-line roster of every name [`resolve_spec`] accepts, for fail-fast
/// CLI diagnostics.
pub fn known_designs() -> String {
    let mut names = vec!["TINY"];
    names.extend(netlist::bench::known_names());
    format!(
        "{} (append @x<N> to scale, e.g. AES_2@x7)",
        names.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolver_knows_tiny_and_benchmarks() {
        assert_eq!(resolve_spec("TINY").map(|s| s.name), Some("TINY"));
        assert!(resolve_spec("AES_1").is_some());
        assert!(resolve_spec("NOPE").is_none());
    }

    #[test]
    fn resolver_accepts_scale_suffix_and_roster_lists_everything() {
        let big = resolve_spec("AES_2@x7").expect("scaled spec resolves");
        assert_eq!(big.target_cells, 7 * 16_000);
        assert!(resolve_spec("NOPE@x2").is_none());
        assert!(resolve_spec("TINY@x2").is_none(), "TINY does not scale");
        let roster = known_designs();
        assert!(roster.starts_with("TINY, AES_1"));
        assert!(roster.contains("TDEA"));
        assert!(roster.contains("@x<N>"));
    }

    #[test]
    fn cache_builds_once_and_counts_hits() {
        let cache = BaselineCache::new(Technology::nangate45_like());
        let a = cache.get("TINY").expect("tiny builds");
        let b = cache.get("TINY").expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn engine_is_built_on_first_use_only() {
        let cache = BaselineCache::new(Technology::nangate45_like());
        let ctx = cache.get("TINY").expect("tiny builds");
        assert!(
            ctx.engine.get().is_none(),
            "a baseline alone builds no engine"
        );
        let before = cache.memory_footprint();
        assert!(before.occupancy_bytes > 0 && before.route_planes_bytes > 0);
        let engine = ctx.engine(cache.tech());
        assert!(std::ptr::eq(engine, ctx.engine(cache.tech())), "built once");
        let after = cache.memory_footprint();
        assert_eq!(after.occupancy_bytes, before.occupancy_bytes);
        assert!(after.route_planes_bytes >= before.route_planes_bytes);
    }

    #[test]
    fn unknown_design_is_a_cached_typed_error() {
        let cache = BaselineCache::new(Technology::nangate45_like());
        for _ in 0..2 {
            match cache.get("NOPE") {
                Err(Error::Serve(why)) => assert!(why.contains("NOPE")),
                Err(other) => panic!("expected Serve error, got {other:?}"),
                Ok(_) => panic!("expected Serve error, got a context"),
            }
        }
        assert_eq!(cache.stats(), (1, 1));
    }
}

//! Lossless aggregation under concurrency: counter and histogram updates
//! and span closes fanned out across scoped worker threads must sum
//! exactly.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;

/// Splits `items` into at most `workers` contiguous chunks, one per
/// thread.
fn chunks<T>(items: &[T], workers: usize) -> std::slice::Chunks<'_, T> {
    items.chunks(items.len().div_ceil(workers))
}

/// obs state is process-global; every test (and proptest case) in this
/// binary serializes on this lock and starts from a clean registry.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::reset();
    obs::set_enabled(true);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_counter_updates_are_lossless(
        increments in proptest::collection::vec(1u64..1000, 1..64),
        workers in 1usize..8,
    ) {
        static C: obs::Counter = obs::Counter::new("cc.losses");
        let _g = exclusive();
        std::thread::scope(|s| {
            for chunk in chunks(&increments, workers) {
                s.spawn(move || chunk.iter().for_each(|&n| C.add(n)));
            }
        });
        let expect: u64 = increments.iter().sum();
        prop_assert_eq!(C.get(), expect);
        prop_assert_eq!(obs::snapshot().counter("cc.losses"), expect);
        obs::set_enabled(false);
    }

    #[test]
    fn concurrent_histogram_updates_are_lossless(
        values in proptest::collection::vec(0u64..1_000_000, 1..64),
        workers in 1usize..8,
    ) {
        static H: obs::Histogram = obs::Histogram::new("cc.hist");
        let _g = exclusive();
        std::thread::scope(|s| {
            for chunk in chunks(&values, workers) {
                s.spawn(move || chunk.iter().for_each(|&v| H.record(v)));
            }
        });
        let snap = obs::snapshot();
        let hs = snap.histograms.iter().find(|h| h.name == "cc.hist").unwrap();
        prop_assert_eq!(hs.count, values.len() as u64);
        prop_assert_eq!(hs.sum, values.iter().sum::<u64>());
        let bucketed: u64 = hs.buckets.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(bucketed, hs.count, "every observation lands in exactly one bucket");
        obs::set_enabled(false);
    }
}

#[test]
fn concurrent_span_closes_are_lossless() {
    static TASK: obs::Span = obs::Span::new("cc.task");
    static LEAF: obs::Span = obs::Span::new("cc.leaf");
    const WORKERS: u64 = 4;
    const TASKS: u64 = 8;
    let _g = exclusive();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                for _ in 0..TASKS {
                    TASK.time(|_| LEAF.time(|_| ()));
                }
            });
        }
    });
    let snap = obs::snapshot();
    assert_eq!(snap.span_count("cc.task"), WORKERS * TASKS);
    assert_eq!(snap.span_count("cc.leaf"), WORKERS * TASKS);
    obs::set_enabled(false);
}

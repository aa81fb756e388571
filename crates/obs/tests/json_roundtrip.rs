//! The machine-readable export must be strict JSON: `ggjson`'s parser
//! (the consumer that attaches telemetry to `ggd serve`'s `generation`
//! events) has to read back every section of the snapshot losslessly.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ggjson::Json;

/// obs state is process-global; the tests in this binary serialize on
/// this lock and start from a clean registry.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::set_enabled(false);
    obs::reset();
    g
}

#[test]
fn snapshot_json_parses_back_losslessly() {
    let _g = exclusive();
    obs::set_enabled(true);
    obs::counter("rt.counter").add(42);
    obs::gauge("rt.gauge").set(6.5);
    let h = obs::histogram("rt.hist");
    for v in [0u64, 1, 5, 5, 300] {
        h.record(v);
    }
    obs::span("rt.outer", |_| obs::span("rt.inner \"quoted\"", |_| ()));
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let parsed = ggjson::parse(&snap.to_json()).expect("export must be strict JSON");

    // ggjson stores numbers as f64; everything recorded here is far below
    // 2^53, so exact equality is the right assertion.
    let counters = parsed.get("counters").expect("counters section");
    assert_eq!(
        counters.get("rt.counter").and_then(Json::as_num),
        Some(42.0)
    );
    let gauges = parsed.get("gauges").expect("gauges section");
    assert_eq!(gauges.get("rt.gauge").and_then(Json::as_num), Some(6.5));

    let hist = parsed
        .get("histograms")
        .and_then(|h| h.get("rt.hist"))
        .expect("histogram entry");
    assert_eq!(hist.get("count").and_then(Json::as_num), Some(5.0));
    assert_eq!(hist.get("sum").and_then(Json::as_num), Some(311.0));
    let hs = snap
        .histograms
        .iter()
        .find(|h| h.name == "rt.hist")
        .unwrap();
    let Some(Json::Arr(buckets)) = hist.get("buckets") else {
        panic!("buckets must be an array");
    };
    assert_eq!(buckets.len(), hs.buckets.len());
    for (parsed_b, &(bound, count)) in buckets.iter().zip(&hs.buckets) {
        let Json::Arr(pair) = parsed_b else {
            panic!("bucket must be a [bound, count] pair");
        };
        assert_eq!(pair[0].as_num(), Some(bound as f64));
        assert_eq!(pair[1].as_num(), Some(count as f64));
    }

    // Span paths — including escaped quotes — survive the round trip.
    let spans = parsed.get("spans").expect("spans section");
    let inner = spans
        .get("rt.outer/rt.inner \"quoted\"")
        .expect("escaped span path");
    assert_eq!(inner.get("count").and_then(Json::as_num), Some(1.0));
    let outer = spans.get("rt.outer").expect("root span path");
    assert!(outer.get("total_nanos").and_then(Json::as_num).is_some());
}

#[test]
fn empty_snapshot_exports_empty_sections() {
    let _g = exclusive();
    obs::counter("rt.never").add(1);
    obs::span("rt.never_span", |_| ());
    let snap = obs::snapshot();
    assert!(snap.is_empty(), "disabled recording must leave no trace");
    let parsed = ggjson::parse(&snap.to_json()).expect("empty export is still strict JSON");
    for section in ["counters", "gauges", "histograms", "spans"] {
        let Some(Json::Obj(members)) = parsed.get(section) else {
            panic!("{section} must be an object");
        };
        assert!(members.is_empty());
    }
}

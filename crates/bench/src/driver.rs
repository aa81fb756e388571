//! Shared evaluation driver: runs every defense on one benchmark design
//! and returns comparable metrics.

use gdsii_guard::prelude::*;
use std::time::Instant;

use netlist::bench::DesignSpec;
use tech::Technology;

/// NSGA-II budget used by the experiment binaries: a thorough fig5-style
/// exploration (~1.5k unique implementations on the tiny spec). The
/// incremental [`gdsii_guard::pipeline::EvalEngine`] keeps this cheap —
/// operator edits and Phase-A plans amortize across the run, so the
/// twelve-design sweep still finishes in minutes.
///
/// `threads` stays on auto (0 = the machine's available parallelism):
/// candidate evaluation is CPU-bound, so spawning more workers than
/// hardware threads only adds queue contention and preemption stalls —
/// on a single-core runner a pinned 8-worker replay measured ~1.7x
/// slower than the same replay sized to the machine. Each worker's
/// Phase B runs serially on that worker's thread.
pub const GG_GA_PARAMS: Nsga2Params = Nsga2Params::builder()
    .population(24)
    .generations(128)
    .seed(0x6D51)
    .threads(0)
    .build();

/// Metrics of one defense applied to one design.
#[derive(Debug, Clone)]
pub struct DefenseMetrics {
    /// Defense name (`Original`, `ICAS`, `BISA`, `Ba`, `GDSII-Guard`).
    pub defense: String,
    /// Absolute exploitable free sites.
    pub er_sites: u64,
    /// Absolute exploitable free tracks.
    pub er_tracks: f64,
    /// Free sites normalized by the original design.
    pub norm_sites: f64,
    /// Free tracks normalized by the original design.
    pub norm_tracks: f64,
    /// Total negative slack in ns (paper Table II convention).
    pub tns_ns: f64,
    /// Total power in mW.
    pub power_mw: f64,
    /// DRC violations.
    pub drc: u32,
    /// Wall-clock seconds to produce the hardened layout.
    pub wall_secs: f64,
    /// Trojan-battery insertion success rate (0..1).
    pub attack_success: f64,
}

ggjson::json_struct!(DefenseMetrics {
    defense,
    er_sites,
    er_tracks,
    norm_sites,
    norm_tracks,
    tns_ns,
    power_mw,
    drc,
    wall_secs,
    attack_success
});

fn metrics_of(
    name: &str,
    snap: &Snapshot,
    base: &Snapshot,
    tech: &Technology,
    secs: f64,
) -> DefenseMetrics {
    let norm = |v: f64, b: f64| if b > 0.0 { v / b } else { 0.0 };
    DefenseMetrics {
        defense: name.to_owned(),
        er_sites: snap.security.er_sites,
        er_tracks: snap.security.er_tracks,
        norm_sites: norm(snap.security.er_sites as f64, base.security.er_sites as f64),
        norm_tracks: norm(snap.security.er_tracks, base.security.er_tracks),
        tns_ns: snap.tns_ps() / 1_000.0,
        power_mw: snap.power_mw(),
        drc: snap.drc,
        wall_secs: secs,
        attack_success: secmetrics::attack::battery_success_rate(&snap.security, tech),
    }
}

/// Picks the paper's "selected Pareto solution": the feasible point with
/// the best (lowest) security, ties broken by better timing.
fn select_pareto_point(
    base: &Snapshot,
    tech: &Technology,
    params: &Nsga2Params,
) -> (Snapshot, gdsii_guard::FlowConfig) {
    let result = explore(base, tech, params);
    let front = result.pareto_front();
    let chosen = front
        .iter()
        .min_by(|a, b| {
            (a.metrics.security, -a.metrics.tns_ps)
                .partial_cmp(&(b.metrics.security, -b.metrics.tns_ps))
                .expect("finite metrics")
        })
        .map(|p| p.config.clone())
        .unwrap_or_else(gdsii_guard::FlowConfig::cell_shift_default);
    let snap = gdsii_guard::flow::FlowRun::new(base, tech, &chosen)
        .snapshot()
        .unwrap();
    (snap, chosen)
}

/// Runs Original + all four defenses on one design.
pub fn evaluate_design(spec: &DesignSpec, tech: &Technology) -> Vec<DefenseMetrics> {
    let t0 = Instant::now();
    let base = implement_baseline(spec, tech).unwrap();
    let base_secs = t0.elapsed().as_secs_f64();
    let mut out = vec![metrics_of("Original", &base, &base, tech, base_secs)];

    let t = Instant::now();
    let icas = defenses::apply_icas(&base, tech);
    out.push(metrics_of(
        "ICAS",
        &icas,
        &base,
        tech,
        t.elapsed().as_secs_f64(),
    ));

    let t = Instant::now();
    let bisa = defenses::apply_bisa(&base, tech);
    out.push(metrics_of(
        "BISA",
        &bisa,
        &base,
        tech,
        t.elapsed().as_secs_f64(),
    ));

    let t = Instant::now();
    let ba = defenses::apply_ba(&base, tech);
    out.push(metrics_of(
        "Ba",
        &ba,
        &base,
        tech,
        t.elapsed().as_secs_f64(),
    ));

    let t = Instant::now();
    let (gg, _cfg) = select_pareto_point(&base, tech, &GG_GA_PARAMS);
    out.push(metrics_of(
        "GDSII-Guard",
        &gg,
        &base,
        tech,
        t.elapsed().as_secs_f64(),
    ));
    out
}

/// Cached variant of [`evaluate_design`].
pub fn evaluate_design_cached(spec: &DesignSpec, tech: &Technology) -> Vec<DefenseMetrics> {
    crate::cache::load_or_compute(&format!("defenses_{}", spec.name), || {
        evaluate_design(spec, tech)
    })
}

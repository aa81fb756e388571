//! Small numeric helpers shared by the workloads.

use std::time::Instant;

use gdsii_guard::prelude::*;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated percentile (`p` in 0..=100) of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// SplitMix64: derives independent seeds and draws from one `--seed`.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// How many clock periods of total negative slack the hypervolume
/// reference admits.
const TNS_REF_PERIODS: f64 = 2.0;

/// Hypervolume of an explore result's feasible front against a reference
/// fixed per design from the baseline alone — security 1.0 (the
/// baseline's own score) and a TNS bound of `TNS_REF_PERIODS` clock
/// periods — normalized by the reference box, so it lies in `[0, 1]` and
/// is comparable across runs and commits. Never taken from the run's own
/// nadir.
pub fn front_hv(result: &ExploreResult, clock_period_ps: f64) -> f64 {
    let tns_ref = TNS_REF_PERIODS * clock_period_ps;
    result.hypervolume([1.0, tns_ref]) / tns_ref
}

/// Exact (bitwise) equality of two metric vectors.
pub fn same_metrics(a: &FlowMetrics, b: &FlowMetrics) -> bool {
    a.security.to_bits() == b.security.to_bits()
        && a.er_sites == b.er_sites
        && a.er_tracks.to_bits() == b.er_tracks.to_bits()
        && a.tns_ps.to_bits() == b.tns_ps.to_bits()
        && a.power_mw.to_bits() == b.power_mw.to_bits()
        && a.drc == b.drc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn seed_streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = SeedRng::new(seed);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}

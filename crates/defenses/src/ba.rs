//! Ba et al. — local layout filling (ECCTD 2015 / ISVLSI 2016).
//!
//! Improves on BISA by appending the tamper-evident logic only *near* the
//! security-critical cells (inside the exploitable regions), targeting at
//! least 90 % local placement density. Cheaper than BISA, but the
//! defensive coverage is discounted: the last tail of every run stays
//! open, and free space outside the analyzed neighborhood is not treated
//! at all.

use gdsii_guard::prelude::*;
use geom::Interval;
use tech::Technology;

use crate::fill::fill_runs;

/// Fraction of each exploitable run that Ba et al. fills (≥90 % local
/// density target; the remainder is the coverage discount the paper
/// observes).
pub const LOCAL_FILL_FRACTION: f64 = 0.9;

/// Applies the Ba et al. defense to a baseline snapshot.
pub fn apply_ba(base: &Snapshot, tech: &Technology) -> Snapshot {
    // Fill only the runs composing the baseline's exploitable regions,
    // truncating each run at the 90 % mark.
    let mut runs: Vec<(u32, Interval)> = Vec::new();
    for region in &base.security.regions {
        for &(row, iv) in &region.rows {
            let keep = (iv.len() as f64 * LOCAL_FILL_FRACTION).floor() as u32;
            if keep >= 2 {
                runs.push((row, Interval::new(iv.lo, iv.lo + keep)));
            }
        }
    }
    runs.sort_unstable();
    let (filled, _added) = fill_runs(&base.layout, tech, &runs);
    evaluate(filled, tech).expect("fill keeps the layout consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisa::apply_bisa;
    use gdsii_guard::pipeline::implement_baseline;
    use netlist::bench;

    #[test]
    fn ba_sits_between_baseline_and_bisa() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let ba = apply_ba(&base, &tech);
        let bisa = apply_bisa(&base, &tech);
        let sec_ba = secmetrics::security_score(&ba.security, &base.security, 0.5);
        let sec_bisa = secmetrics::security_score(&bisa.security, &base.security, 0.5);
        assert!(
            sec_ba < 0.7,
            "Ba should remove most exploitable space: {sec_ba}"
        );
        assert!(
            sec_bisa <= sec_ba + 0.05,
            "BISA coverage ≥ Ba coverage: {sec_bisa} vs {sec_ba}"
        );
        // Ba adds fewer cells, hence less power than BISA.
        assert!(ba.power_mw() <= bisa.power_mw());
        assert!(ba.power_mw() >= base.power_mw());
    }

    #[test]
    fn ba_only_touches_exploitable_neighborhoods() {
        let tech = Technology::nangate45_like();
        let base = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
        let ba = apply_ba(&base, &tech);
        let added = ba.layout.design().cells.len() - base.layout.design().cells.len();
        // Strictly fewer fill cells than a whole-core fill would need.
        let bisa = apply_bisa(&base, &tech);
        let added_bisa = bisa.layout.design().cells.len() - base.layout.design().cells.len();
        assert!(added > 0);
        assert!(added < added_bisa);
    }
}

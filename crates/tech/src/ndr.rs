use crate::layers::NUM_METAL_LAYERS;

/// Non-default routing rule: a per-metal-layer wire-width scale factor.
///
/// This models the LEF NDR the paper's Routing Width Scaling operator edits:
/// `scale_M[i] ∈ {1.0, 1.2, 1.5}` for each of the `K = 10` layers (Table I).
/// A factor above 1.0 widens every wire routed on that layer, which lowers
/// wire resistance (better timing on long nets) while consuming extra track
/// pitch (fewer free tracks for a Trojan to exploit).
///
/// ```
/// let mut scales = [1.0; tech::NUM_METAL_LAYERS];
/// scales[6] = 1.5;
/// let rule = tech::RouteRule::from_scales(scales);
/// assert_eq!(rule.scale(7), 1.5);
/// assert_eq!(rule.scale(2), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRule {
    scale: [f64; NUM_METAL_LAYERS],
}

impl RouteRule {
    /// The candidate scale factors from Table I of the paper.
    pub const CANDIDATES: [f64; 3] = [1.0, 1.2, 1.5];

    /// A rule scaling every layer identically.
    ///
    /// # Panics
    ///
    /// Panics if `s < 1.0`.
    pub fn uniform(s: f64) -> Self {
        assert!(s >= 1.0, "width scale factors must be >= 1.0");
        Self {
            scale: [s; NUM_METAL_LAYERS],
        }
    }

    /// Builds a rule from explicit per-layer factors (index 0 = M1).
    ///
    /// # Panics
    ///
    /// Panics if any factor is below 1.0.
    pub fn from_scales(scale: [f64; NUM_METAL_LAYERS]) -> Self {
        assert!(scale.iter().all(|s| *s >= 1.0));
        Self { scale }
    }

    /// Scale factor of 1-based metal layer `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or exceeds the stack height.
    pub fn scale(&self, m: usize) -> f64 {
        self.scale[m - 1]
    }

    /// All per-layer factors (index 0 = M1).
    pub fn scales(&self) -> &[f64; NUM_METAL_LAYERS] {
        &self.scale
    }
}

impl Default for RouteRule {
    fn default() -> Self {
        Self::uniform(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_assignment() {
        let mut s = [1.0; NUM_METAL_LAYERS];
        s[0] = 1.2;
        s[9] = 1.5;
        let r = RouteRule::from_scales(s);
        assert_eq!(r.scale(1), 1.2);
        assert_eq!(r.scale(10), 1.5);
        assert_eq!(r.scale(5), 1.0);
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn rejects_narrowing() {
        RouteRule::uniform(0.8);
    }

    #[test]
    fn candidates_match_table_one() {
        assert_eq!(RouteRule::CANDIDATES, [1.0, 1.2, 1.5]);
    }
}

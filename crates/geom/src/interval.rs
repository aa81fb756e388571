/// A half-open integer interval `[lo, hi)`, used for runs of free placement
/// sites within a core row.
///
/// ```
/// let a = geom::Interval::new(3, 9);
/// assert_eq!(a.len(), 6);
/// assert!(a.overlaps(&geom::Interval::new(8, 12)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u32,
    /// Exclusive upper bound.
    pub hi: u32,
}

impl Interval {
    /// Creates an interval; `lo` and `hi` are swapped if given out of order.
    pub fn new(lo: u32, hi: u32) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// Number of integer points covered.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the interval covers no points.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: u32) -> bool {
        x >= self.lo && x < self.hi
    }

    /// Whether the two intervals share at least one point (empty intervals
    /// overlap nothing).
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }

    /// Overlapping sub-interval, or `None` when disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Interval::new(self.lo.max(other.lo), self.hi.min(other.hi)))
    }
}

impl core::fmt::Display for Interval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_props() {
        let i = Interval::new(2, 7);
        assert_eq!(i.len(), 5);
        assert!(i.contains(2));
        assert!(!i.contains(7));
        assert!(!i.is_empty());
        assert!(Interval::new(3, 3).is_empty());
    }

    #[test]
    fn swaps_out_of_order_bounds() {
        assert_eq!(Interval::new(9, 4), Interval::new(4, 9));
    }

    #[test]
    fn overlap_vs_touch() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 9);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&Interval::new(4, 6)));
        assert_eq!(
            a.intersection(&Interval::new(4, 6)),
            Some(Interval::new(4, 5))
        );
        assert_eq!(a.intersection(&b), None);
    }
}

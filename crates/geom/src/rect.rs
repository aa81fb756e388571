use crate::{Dbu, Point};

/// An axis-aligned rectangle in DBU coordinates, with inclusive lower-left
/// corner `lo` and exclusive upper-right corner `hi` (half-open on both
/// axes, like a slice range).
///
/// ```
/// use geom::{Point, Rect};
/// let r = Rect::new(Point::new(0, 0), Point::new(10, 10));
/// assert!(r.contains(Point::new(0, 0)));
/// assert!(!r.contains(Point::new(10, 10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Lower-left corner (inclusive).
    pub lo: Point,
    /// Upper-right corner (exclusive).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from two corners; the corners are normalized so
    /// the result always satisfies `lo <= hi` per axis.
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Creates a rectangle from a lower-left corner plus width and height.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    pub fn from_wh(lo: Point, w: Dbu, h: Dbu) -> Self {
        assert!(w >= 0 && h >= 0, "rect dimensions must be non-negative");
        Self {
            lo,
            hi: Point::new(lo.x + w, lo.y + h),
        }
    }

    /// Width in DBU.
    pub fn width(&self) -> Dbu {
        self.hi.x - self.lo.x
    }

    /// Height in DBU.
    pub fn height(&self) -> Dbu {
        self.hi.y - self.lo.y
    }

    /// Area in DBU².
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Whether the rectangle encloses zero area.
    pub fn is_empty(&self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// Center point (rounded down).
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2, (self.lo.y + self.hi.y) / 2)
    }

    /// Whether `p` lies inside the half-open rectangle.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x < self.hi.x && p.y >= self.lo.y && p.y < self.hi.y
    }

    /// Whether `other` lies fully inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.lo.x >= self.lo.x
            && other.lo.y >= self.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// Whether the two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// Intersection rectangle, or `None` when the overlap is empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        })
    }

    /// Smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl core::fmt::Display for Rect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: Dbu, y0: Dbu, x1: Dbu, y1: Dbu) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn normalizes_corners() {
        let a = Rect::new(Point::new(5, 5), Point::new(0, 0));
        assert_eq!(a, r(0, 0, 5, 5));
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0, 0, 10, 10);
        let b = r(5, 5, 20, 20);
        assert_eq!(a.intersection(&b), Some(r(5, 5, 10, 10)));
        assert_eq!(a.union(&b), r(0, 0, 20, 20));
        let c = r(100, 100, 110, 110);
        assert_eq!(a.intersection(&c), None);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn touching_rects_do_not_intersect() {
        let a = r(0, 0, 10, 10);
        let b = r(10, 0, 20, 10);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn area_and_empty() {
        assert_eq!(r(0, 0, 4, 5).area(), 20);
        assert!(r(3, 3, 3, 9).is_empty());
        assert!(!r(0, 0, 1, 1).is_empty());
    }

    #[test]
    fn contains_rect_edges() {
        let a = r(0, 0, 10, 10);
        assert!(a.contains_rect(&r(0, 0, 10, 10)));
        assert!(!a.contains_rect(&r(0, 0, 11, 10)));
    }
}

//! Saturating interval arithmetic over `i64`, and axis-aligned boxes of such intervals.
//!
//! These are the *analysis* intervals used for pruning inside the solver. They are distinct from
//! the user-facing abstract-domain intervals in `anosy-domains` (which carry the knowledge
//! semantics of the paper); keeping the two separate keeps this crate dependency-free.

use crate::{Point, TriBool};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A non-empty closed interval `[lo, hi]` of `i64` values (`lo <= hi`), or the canonical empty
/// interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    lo: i64,
    hi: i64,
    empty: bool,
}

fn clamp_i128(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

impl Range {
    /// The full `i64` range.
    pub const FULL: Range = Range { lo: i64::MIN, hi: i64::MAX, empty: false };

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`; use [`Range::empty`] for the empty interval.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "Range::new requires lo <= hi (got {lo} > {hi})");
        Range { lo, hi, empty: false }
    }

    /// Creates a singleton interval `[v, v]`.
    pub fn singleton(v: i64) -> Self {
        Range::new(v, v)
    }

    /// The canonical empty interval.
    pub fn empty() -> Self {
        Range { lo: 1, hi: 0, empty: true }
    }

    /// Returns `true` if the interval contains no values.
    pub fn is_empty(self) -> bool {
        self.empty
    }

    /// Lower bound. Meaningless for empty intervals.
    pub fn lo(self) -> i64 {
        self.lo
    }

    /// Upper bound. Meaningless for empty intervals.
    pub fn hi(self) -> i64 {
        self.hi
    }

    /// Returns `true` if the interval contains a single value.
    pub fn is_singleton(self) -> bool {
        !self.empty && self.lo == self.hi
    }

    /// Number of integers in the interval, as `u128` to avoid overflow.
    pub fn count(self) -> u128 {
        if self.empty {
            0
        } else {
            (self.hi as i128 - self.lo as i128 + 1) as u128
        }
    }

    /// Returns `true` if `v` lies in the interval.
    pub fn contains(self, v: i64) -> bool {
        !self.empty && self.lo <= v && v <= self.hi
    }

    /// Returns `true` if `other` is fully contained in `self`.
    pub fn contains_range(self, other: Range) -> bool {
        other.empty || (!self.empty && self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two intervals.
    pub fn intersect(self, other: Range) -> Range {
        if self.empty || other.empty {
            return Range::empty();
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Range::new(lo, hi)
        } else {
            Range::empty()
        }
    }

    /// Smallest interval containing both inputs (interval hull).
    pub fn hull(self, other: Range) -> Range {
        if self.empty {
            other
        } else if other.empty {
            self
        } else {
            Range::new(self.lo.min(other.lo), self.hi.max(other.hi))
        }
    }

    /// Interval addition (saturating at the `i64` limits).
    ///
    /// Deliberately an inherent method, not `std::ops::Add`: interval arithmetic is approximate
    /// (saturating, over-approximating), and the explicit call sites keep that visible.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Range) -> Range {
        if self.empty || other.empty {
            return Range::empty();
        }
        Range::new(
            clamp_i128(self.lo as i128 + other.lo as i128),
            clamp_i128(self.hi as i128 + other.hi as i128),
        )
    }

    /// Interval subtraction (saturating).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Range) -> Range {
        if self.empty || other.empty {
            return Range::empty();
        }
        Range::new(
            clamp_i128(self.lo as i128 - other.hi as i128),
            clamp_i128(self.hi as i128 - other.lo as i128),
        )
    }

    /// Interval negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Range {
        if self.empty {
            return Range::empty();
        }
        Range::new(clamp_i128(-(self.hi as i128)), clamp_i128(-(self.lo as i128)))
    }

    /// Multiplication by a constant (saturating).
    pub fn mul_const(self, k: i64) -> Range {
        if self.empty {
            return Range::empty();
        }
        let a = clamp_i128(self.lo as i128 * k as i128);
        let b = clamp_i128(self.hi as i128 * k as i128);
        Range::new(a.min(b), a.max(b))
    }

    /// General interval multiplication (saturating).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Range) -> Range {
        if self.empty || other.empty {
            return Range::empty();
        }
        let candidates = [
            self.lo as i128 * other.lo as i128,
            self.lo as i128 * other.hi as i128,
            self.hi as i128 * other.lo as i128,
            self.hi as i128 * other.hi as i128,
        ];
        let lo = candidates.iter().copied().min().unwrap();
        let hi = candidates.iter().copied().max().unwrap();
        Range::new(clamp_i128(lo), clamp_i128(hi))
    }

    /// Interval absolute value.
    pub fn abs(self) -> Range {
        if self.empty {
            return Range::empty();
        }
        if self.lo >= 0 {
            self
        } else if self.hi <= 0 {
            self.neg()
        } else {
            let m = clamp_i128((self.hi as i128).max(-(self.lo as i128)));
            Range::new(0, m)
        }
    }

    /// Pointwise minimum.
    pub fn min(self, other: Range) -> Range {
        if self.empty || other.empty {
            return Range::empty();
        }
        Range::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise maximum.
    pub fn max(self, other: Range) -> Range {
        if self.empty || other.empty {
            return Range::empty();
        }
        Range::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Three-valued `self <= other`.
    pub fn le(self, other: Range) -> TriBool {
        if self.empty || other.empty {
            // Vacuously true over an empty set of points.
            return TriBool::True;
        }
        if self.hi <= other.lo {
            TriBool::True
        } else if self.lo > other.hi {
            TriBool::False
        } else {
            TriBool::Unknown
        }
    }

    /// Three-valued `self < other`.
    pub fn lt(self, other: Range) -> TriBool {
        if self.empty || other.empty {
            return TriBool::True;
        }
        if self.hi < other.lo {
            TriBool::True
        } else if self.lo >= other.hi {
            TriBool::False
        } else {
            TriBool::Unknown
        }
    }

    /// Three-valued `self == other`.
    pub fn eq_tri(self, other: Range) -> TriBool {
        if self.empty || other.empty {
            return TriBool::True;
        }
        if self.is_singleton() && other.is_singleton() && self.lo == other.lo {
            TriBool::True
        } else if self.intersect(other).is_empty() {
            TriBool::False
        } else {
            TriBool::Unknown
        }
    }

    /// Splits the interval into two halves at its midpoint. Returns `None` for singletons or the
    /// empty interval.
    pub fn bisect(self) -> Option<(Range, Range)> {
        if self.empty || self.is_singleton() {
            return None;
        }
        let mid = self.lo + ((self.hi as i128 - self.lo as i128) / 2) as i64;
        Some((Range::new(self.lo, mid), Range::new(mid + 1, self.hi)))
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            write!(f, "∅")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Ranges an [`IntBox`] stores inline, without a heap allocation.
const INLINE: usize = 4;

/// An axis-aligned box: one [`Range`] per secret field.
///
/// This is the search-state representation used by the branch-and-prune solver; the box is empty
/// as soon as any of its component ranges is empty.
///
/// A box of at most four dimensions stores its ranges inline, so building, cloning, narrowing or
/// bisecting one allocates nothing; every layout the paper evaluates has at most four fields. A
/// box of more dimensions spills its ranges to a `Vec`. The representation is invisible:
/// equality, hashing and `Debug` are those of the range slice, exactly as for a `Vec<Range>`.
#[derive(Clone)]
pub struct IntBox {
    dims: Dims,
}

#[derive(Clone)]
enum Dims {
    Inline { len: u8, buf: [Range; INLINE] },
    Spilled(Vec<Range>),
}

impl IntBox {
    /// Creates a box from per-dimension ranges.
    pub fn new(dims: Vec<Range>) -> Self {
        if dims.len() <= INLINE {
            dims.into_iter().collect()
        } else {
            IntBox { dims: Dims::Spilled(dims) }
        }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims().len()
    }

    /// Per-dimension ranges.
    #[inline]
    pub fn dims(&self) -> &[Range] {
        match &self.dims {
            Dims::Inline { len, buf } => &buf[..usize::from(*len)],
            Dims::Spilled(dims) => dims,
        }
    }

    #[inline]
    fn dims_mut(&mut self) -> &mut [Range] {
        match &mut self.dims {
            Dims::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Dims::Spilled(dims) => dims,
        }
    }

    /// Range for dimension `i`.
    pub fn dim(&self, i: usize) -> Range {
        self.dims()[i]
    }

    /// Replaces the range of dimension `i`, returning the modified box.
    pub fn with_dim(&self, i: usize, r: Range) -> IntBox {
        let mut out = self.clone();
        out.set_dim(i, r);
        out
    }

    /// Replaces the range of dimension `i` in place.
    pub fn set_dim(&mut self, i: usize, r: Range) {
        self.dims_mut()[i] = r;
    }

    /// Returns `true` if the box is empty (any dimension is empty).
    pub fn is_empty(&self) -> bool {
        self.dims().iter().any(|r| r.is_empty())
    }

    /// Returns `true` if the box contains exactly one point.
    pub fn is_singleton(&self) -> bool {
        !self.is_empty() && self.dims().iter().all(|r| r.is_singleton())
    }

    /// Number of points in the box.
    pub fn count(&self) -> u128 {
        if self.is_empty() {
            return 0;
        }
        self.dims().iter().map(|r| r.count()).product()
    }

    /// Returns `true` if `p` lies in the box.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.arity() == self.arity() && self.dims().iter().zip(p.iter()).all(|(r, v)| r.contains(v))
    }

    /// Returns `true` if `other` is fully contained in `self`.
    pub fn contains_box(&self, other: &IntBox) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() || self.arity() != other.arity() {
            return false;
        }
        self.dims().iter().zip(other.dims()).all(|(a, b)| a.contains_range(*b))
    }

    /// Returns `true` if the two boxes share a point; `!a.intersects(b)` is
    /// `a.intersect(b).is_empty()` without building the intersection.
    pub fn intersects(&self, other: &IntBox) -> bool {
        assert_eq!(self.arity(), other.arity(), "boxes must have equal arity");
        self.dims().iter().zip(other.dims()).all(|(a, b)| !a.intersect(*b).is_empty())
    }

    /// Componentwise intersection.
    pub fn intersect(&self, other: &IntBox) -> IntBox {
        assert_eq!(self.arity(), other.arity(), "boxes must have equal arity");
        let mut out = self.clone();
        for (a, b) in out.dims_mut().iter_mut().zip(other.dims()) {
            *a = a.intersect(*b);
        }
        out
    }

    /// The lexicographically smallest point of the box, if non-empty.
    pub fn min_corner(&self) -> Option<Point> {
        if self.is_empty() {
            None
        } else {
            Some(self.dims().iter().map(|r| r.lo()).collect())
        }
    }

    /// Index of the widest dimension that is not a singleton, if any.
    pub fn widest_splittable_dim(&self) -> Option<usize> {
        self.dims()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty() && !r.is_singleton())
            .max_by_key(|(_, r)| r.count())
            .map(|(i, _)| i)
    }

    /// Splits the box into two along dimension `dim`. Returns `None` if that dimension cannot be
    /// split.
    pub fn bisect(&self, dim: usize) -> Option<(IntBox, IntBox)> {
        let (a, b) = self.dim(dim).bisect()?;
        Some((self.with_dim(dim, a), self.with_dim(dim, b)))
    }

    /// Iterates over every point of the box. Intended for small boxes (tests, ground truth on
    /// small spaces).
    pub fn points(&self) -> BoxPoints {
        BoxPoints::new(self.clone())
    }
}

impl PartialEq for IntBox {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for IntBox {}

impl Hash for IntBox {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl fmt::Debug for IntBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntBox").field("dims", &self.dims()).finish()
    }
}

/// Collects inline while the ranges fit, so building a box of up to four dimensions from an
/// iterator allocates nothing.
impl FromIterator<Range> for IntBox {
    fn from_iter<T: IntoIterator<Item = Range>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = [Range::empty(); INLINE];
        for (len, slot) in buf.iter_mut().enumerate() {
            match iter.next() {
                Some(r) => *slot = r,
                None => return IntBox { dims: Dims::Inline { len: len as u8, buf } },
            }
        }
        match iter.next() {
            None => IntBox { dims: Dims::Inline { len: INLINE as u8, buf } },
            Some(fifth) => {
                let mut dims = buf.to_vec();
                dims.push(fifth);
                dims.extend(iter);
                IntBox { dims: Dims::Spilled(dims) }
            }
        }
    }
}

impl fmt::Display for IntBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over every concrete point of an [`IntBox`], in lexicographic order.
#[derive(Debug, Clone)]
pub struct BoxPoints {
    boxed: IntBox,
    current: Option<Vec<i64>>,
}

impl BoxPoints {
    fn new(boxed: IntBox) -> Self {
        let current = if boxed.is_empty() || boxed.arity() == 0 {
            // Arity-0 boxes conceptually contain one (empty) point; handled below.
            if boxed.arity() == 0 && !boxed.is_empty() {
                Some(Vec::new())
            } else {
                None
            }
        } else {
            Some(boxed.dims().iter().map(|r| r.lo()).collect())
        };
        BoxPoints { boxed, current }
    }
}

impl Iterator for BoxPoints {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let current = self.current.clone()?;
        // Advance like an odometer, last dimension fastest.
        let mut next = current.clone();
        let mut dim = next.len();
        loop {
            if dim == 0 {
                self.current = None;
                break;
            }
            dim -= 1;
            if next[dim] < self.boxed.dim(dim).hi() {
                next[dim] += 1;
                for (i, v) in next.iter_mut().enumerate().skip(dim + 1) {
                    // reset lower-significance dimensions to their lower bound
                    *v = self.boxed.dim(i).lo();
                }
                self.current = Some(next);
                break;
            }
        }
        Some(Point::new(current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_basic_arithmetic() {
        let a = Range::new(1, 3);
        let b = Range::new(-2, 2);
        assert_eq!(a.add(b), Range::new(-1, 5));
        assert_eq!(a.sub(b), Range::new(-1, 5));
        assert_eq!(a.neg(), Range::new(-3, -1));
        assert_eq!(b.abs(), Range::new(0, 2));
        assert_eq!(a.mul_const(-2), Range::new(-6, -2));
        assert_eq!(a.mul(b), Range::new(-6, 6));
    }

    #[test]
    fn range_abs_cases() {
        assert_eq!(Range::new(2, 5).abs(), Range::new(2, 5));
        assert_eq!(Range::new(-5, -2).abs(), Range::new(2, 5));
        assert_eq!(Range::new(-3, 7).abs(), Range::new(0, 7));
    }

    #[test]
    fn range_saturates_instead_of_overflowing() {
        let big = Range::new(i64::MAX - 1, i64::MAX);
        assert_eq!(big.add(Range::singleton(10)).hi(), i64::MAX);
        assert_eq!(Range::new(i64::MIN, i64::MIN + 1).neg().hi(), i64::MAX);
        assert_eq!(big.mul_const(3).hi(), i64::MAX);
    }

    #[test]
    fn range_set_operations() {
        let a = Range::new(0, 10);
        let b = Range::new(5, 20);
        assert_eq!(a.intersect(b), Range::new(5, 10));
        assert_eq!(a.hull(b), Range::new(0, 20));
        assert!(a.intersect(Range::new(11, 12)).is_empty());
        assert!(a.contains_range(Range::new(3, 7)));
        assert!(!a.contains_range(b));
        assert!(a.contains_range(Range::empty()));
    }

    #[test]
    fn range_counting() {
        assert_eq!(Range::new(0, 9).count(), 10);
        assert_eq!(Range::singleton(5).count(), 1);
        assert_eq!(Range::empty().count(), 0);
        assert_eq!(Range::FULL.count(), (u64::MAX as u128) + 1);
    }

    #[test]
    fn range_comparisons_three_valued() {
        assert_eq!(Range::new(0, 3).le(Range::new(3, 10)), TriBool::True);
        assert_eq!(Range::new(4, 6).le(Range::new(0, 3)), TriBool::False);
        assert_eq!(Range::new(0, 5).le(Range::new(3, 4)), TriBool::Unknown);
        assert_eq!(Range::new(0, 2).lt(Range::new(3, 4)), TriBool::True);
        assert_eq!(Range::new(3, 4).lt(Range::new(0, 3)), TriBool::False);
        assert_eq!(Range::singleton(2).eq_tri(Range::singleton(2)), TriBool::True);
        assert_eq!(Range::new(0, 1).eq_tri(Range::new(5, 6)), TriBool::False);
        assert_eq!(Range::new(0, 4).eq_tri(Range::new(2, 9)), TriBool::Unknown);
    }

    #[test]
    fn range_bisection_covers_interval() {
        let r = Range::new(0, 9);
        let (a, b) = r.bisect().unwrap();
        assert_eq!(a, Range::new(0, 4));
        assert_eq!(b, Range::new(5, 9));
        assert_eq!(a.count() + b.count(), r.count());
        assert!(Range::singleton(3).bisect().is_none());
        assert!(Range::empty().bisect().is_none());
    }

    #[test]
    fn box_count_and_membership() {
        let b = IntBox::new(vec![Range::new(0, 3), Range::new(10, 12)]);
        assert_eq!(b.count(), 12);
        assert!(b.contains_point(&Point::new(vec![2, 11])));
        assert!(!b.contains_point(&Point::new(vec![4, 11])));
        assert!(!b.contains_point(&Point::new(vec![2])));
        assert!(!b.is_empty());
        assert!(!b.is_singleton());
        assert!(IntBox::new(vec![Range::singleton(1)]).is_singleton());
    }

    #[test]
    fn box_subset_and_intersection() {
        let outer = IntBox::new(vec![Range::new(0, 10), Range::new(0, 10)]);
        let inner = IntBox::new(vec![Range::new(2, 5), Range::new(3, 4)]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        let other = IntBox::new(vec![Range::new(8, 15), Range::new(9, 20)]);
        let meet = outer.intersect(&other);
        assert_eq!(meet, IntBox::new(vec![Range::new(8, 10), Range::new(9, 10)]));
        let empty = inner.intersect(&other);
        assert!(empty.is_empty());
        assert!(outer.contains_box(&empty));
        assert!(outer.intersects(&other) && other.intersects(&outer));
        assert!(!inner.intersects(&other) && !other.intersects(&inner));
        assert!(!empty.intersects(&outer), "an empty box shares no point");
        let mut moved = inner.clone();
        moved.set_dim(1, Range::new(11, 12));
        assert_eq!(moved, inner.with_dim(1, Range::new(11, 12)));
        assert!(!moved.intersects(&outer));
    }

    #[test]
    fn box_bisection_partitions_points() {
        let b = IntBox::new(vec![Range::new(0, 5), Range::new(0, 2)]);
        let dim = b.widest_splittable_dim().unwrap();
        assert_eq!(dim, 0);
        let (l, r) = b.bisect(dim).unwrap();
        assert_eq!(l.count() + r.count(), b.count());
        assert!(b.contains_box(&l) && b.contains_box(&r));
        assert!(l.intersect(&r).is_empty());
    }

    #[test]
    fn box_point_iteration_is_exhaustive_and_ordered() {
        let b = IntBox::new(vec![Range::new(0, 1), Range::new(5, 6)]);
        let pts: Vec<Point> = b.points().collect();
        assert_eq!(
            pts,
            vec![
                Point::new(vec![0, 5]),
                Point::new(vec![0, 6]),
                Point::new(vec![1, 5]),
                Point::new(vec![1, 6]),
            ]
        );
        let empty = IntBox::new(vec![Range::empty()]);
        assert_eq!(empty.points().count(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Range::new(1, 2).to_string(), "[1, 2]");
        assert_eq!(Range::empty().to_string(), "∅");
        let b = IntBox::new(vec![Range::new(0, 1), Range::new(2, 3)]);
        assert_eq!(b.to_string(), "{[0, 1] × [2, 3]}");
    }

    fn is_inline(boxed: &IntBox) -> bool {
        matches!(boxed.dims, Dims::Inline { .. })
    }

    /// The `Display` form of the `Vec<Range>` a box used to hold.
    fn vec_display(dims: &[Range]) -> String {
        let ranges: Vec<String> = dims.iter().map(Range::to_string).collect();
        format!("{{{}}}", ranges.join(" × "))
    }

    fn ranges(arity: usize) -> Vec<Range> {
        (0..arity as i64).map(|i| Range::new(10 * i - 7, 10 * i + i * i)).collect()
    }

    #[test]
    fn up_to_four_dimensions_stay_inline_and_a_fifth_spills() {
        for arity in [0usize, 1, 4, 5] {
            let dims = ranges(arity);
            let built: [IntBox; 2] = [IntBox::new(dims.clone()), dims.iter().copied().collect()];
            for boxed in &built {
                assert_eq!(is_inline(boxed), arity <= INLINE, "arity {arity}");
                assert_eq!(boxed.arity(), arity);
                assert_eq!(boxed.dims(), dims.as_slice());
                assert_eq!(format!("{boxed:?}"), format!("IntBox {{ dims: {dims:?} }}"));
                assert_eq!(boxed.to_string(), vec_display(&dims));
                assert_eq!(boxed.count(), dims.iter().map(|r| r.count()).product::<u128>());
                if arity > 0 {
                    assert_eq!(boxed.dim(arity - 1), dims[arity - 1]);
                }
            }
            assert_eq!(built[0], built[1]);
        }
        assert_eq!(IntBox::new(Vec::new()).to_string(), "{}");
    }

    #[test]
    fn edits_keep_the_storage_form_across_the_inline_boundary() {
        for arity in [1usize, 3, 4, 5, 6] {
            let dims = ranges(arity);
            let boxed = IntBox::new(dims.clone());
            let last = arity - 1;
            let r = Range::new(-3, 3);

            let mut expected = dims.clone();
            expected[last] = r;
            let edited = boxed.with_dim(last, r);
            assert_eq!(edited.dims(), expected.as_slice());
            assert_eq!(is_inline(&edited), arity <= INLINE);
            let mut in_place = boxed.clone();
            in_place.set_dim(last, r);
            assert_eq!(in_place, edited);
            assert_eq!(is_inline(&in_place), arity <= INLINE);
            assert_eq!(boxed.dims(), dims.as_slice(), "with_dim leaves the original alone");

            let (left, right) = boxed.bisect(last).expect("every range here is splittable");
            let (l, h) = dims[last].bisect().unwrap();
            assert_eq!(left, boxed.with_dim(last, l));
            assert_eq!(right, boxed.with_dim(last, h));
            assert_eq!(is_inline(&left) && is_inline(&right), arity <= INLINE);
            assert_eq!(left.count() + right.count(), boxed.count());

            let meet = boxed.intersect(&edited);
            let want: Vec<Range> =
                dims.iter().zip(&expected).map(|(a, b)| a.intersect(*b)).collect();
            assert_eq!(meet.dims(), want.as_slice());
            assert_eq!(is_inline(&meet), arity <= INLINE);
        }
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Ranges over tiny bounds, empty ones included, so equal boxes are common.
    fn arb_range() -> impl Strategy<Value = Range> {
        (-2i64..=2, 0i64..=2, 0u8..6).prop_map(|(lo, width, e)| {
            if e == 0 {
                Range::empty()
            } else {
                Range::new(lo, lo + width)
            }
        })
    }

    fn arb_dims() -> impl Strategy<Value = Vec<Range>> {
        proptest::collection::vec(arb_range(), 0..7)
    }

    proptest! {
        #[test]
        fn eq_hash_debug_and_display_agree_with_the_range_vec(a in arb_dims(), b in arb_dims()) {
            let (p, q) = (IntBox::new(a.clone()), IntBox::new(b.clone()));
            prop_assert_eq!(&p, &a.iter().copied().collect::<IntBox>());
            prop_assert_eq!(p == q, a == b);
            prop_assert_eq!(hash_of(&p), hash_of(&a));
            prop_assert_eq!(hash_of(&p), hash_of(a.as_slice()));
            prop_assert_eq!(format!("{p:?}"), format!("IntBox {{ dims: {a:?} }}"));
            prop_assert_eq!(p.to_string(), vec_display(&a));
            prop_assert_eq!(p.is_empty(), a.iter().any(|r| r.is_empty()));
        }
    }
}

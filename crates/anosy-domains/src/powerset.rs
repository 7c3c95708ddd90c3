//! The powerset-of-intervals abstract domain `A_P` (§4.4 of the paper).

use crate::region::residual_count;
use crate::{region_size, AbstractDomain, IntervalDomain};
use anosy_logic::{IntBox, Point, Pred, SecretLayout};
use std::fmt;

/// The powerset abstract domain: knowledge represented as `(∪ inclusion boxes) \ (∪ exclusion
/// boxes)`.
///
/// This mirrors the paper's `A_P` datatype, whose `dom_i`/`dom_o` fields hold the interval
/// domains that are included in and excluded from the powerset. The two-list representation is
/// what makes the iterative synthesis algorithm (Algorithm 1) simple: under-approximations grow
/// the inclusion list, over-approximations grow the exclusion list.
///
/// Unlike the paper's implementation, whose `⊆` check and `size` are conservative when members
/// overlap, this implementation is **exact**: overlaps are resolved with explicit box algebra
/// ([`crate::subtract_boxes`]), so `size` never double-counts and `is_subset_of` decides the true
/// set inclusion.
///
/// The exact size is computed once, while the element is normalized. Normalization already
/// counts each inclusion member's residual (the member minus the kept members before it and
/// the exclusions) to decide whether the member is dead. The residuals of the kept members are
/// disjoint and cover the region, so their counts sum to its size. The element carries that sum,
/// and `size` reads a field; [`crate::region_size`] recomputes it from scratch as the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowersetDomain {
    arity: usize,
    include: Vec<IntervalDomain>,
    exclude: Vec<IntervalDomain>,
    /// Exact `|(∪ include) \ (∪ exclude)|`, summed by `normalize`. It is a function of the two
    /// member lists, so the derived equality still compares representations only.
    size: u128,
}

impl PowersetDomain {
    /// Creates a powerset from inclusion and exclusion members.
    ///
    /// Empty members are dropped; the arity must be consistent across all members.
    ///
    /// # Panics
    ///
    /// Panics if a member has a different arity.
    pub fn new(arity: usize, include: Vec<IntervalDomain>, exclude: Vec<IntervalDomain>) -> Self {
        for d in include.iter().chain(exclude.iter()) {
            assert_eq!(d.arity(), arity, "powerset member arity mismatch");
        }
        let mut p = PowersetDomain {
            arity,
            include: include.into_iter().filter(|d| !d.is_empty()).collect(),
            exclude: exclude.into_iter().filter(|d| !d.is_empty()).collect(),
            size: 0,
        };
        p.normalize();
        p
    }

    /// A powerset with a single inclusion member and no exclusions.
    pub fn from_interval(member: IntervalDomain) -> Self {
        let arity = member.arity();
        PowersetDomain::new(arity, vec![member], vec![])
    }

    /// Number of secret fields.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The inclusion members (`dom_i`).
    pub fn includes(&self) -> &[IntervalDomain] {
        &self.include
    }

    /// The exclusion members (`dom_o`).
    pub fn excludes(&self) -> &[IntervalDomain] {
        &self.exclude
    }

    /// Adds an inclusion member (used by iterative under-approximation synthesis).
    pub fn push_include(&mut self, member: IntervalDomain) {
        assert_eq!(member.arity(), self.arity, "powerset member arity mismatch");
        if !member.is_empty() {
            self.include.push(member);
            self.normalize();
        }
    }

    /// Adds an exclusion member (used by iterative over-approximation synthesis).
    pub fn push_exclude(&mut self, member: IntervalDomain) {
        assert_eq!(member.arity(), self.arity, "powerset member arity mismatch");
        if !member.is_empty() {
            self.exclude.push(member);
            self.normalize();
        }
    }

    fn include_boxes(&self) -> Vec<IntBox> {
        self.include.iter().filter_map(IntervalDomain::to_box).collect()
    }

    fn exclude_boxes(&self) -> Vec<IntBox> {
        self.exclude.iter().filter_map(IntervalDomain::to_box).collect()
    }

    /// Drops members that contribute nothing: inclusion boxes whose residual size (after earlier
    /// members and the exclusions) is zero, and exclusion boxes that do not intersect any
    /// inclusion box. Keeps repeated intersections (e.g. across the 50 queries of the Fig. 6
    /// workload) from accumulating dead members.
    ///
    /// The residuals of the kept members partition the region, so their counts sum to its exact
    /// size, which is stored. Dropping an exclusion that meets no kept member changes neither
    /// the region nor that sum.
    fn normalize(&mut self) {
        // Stored members are never empty (`new` and the `push_*` methods filter them), so every
        // member has a box and the exclusion boxes line up with `self.exclude`.
        let excludes = self.exclude_boxes();
        debug_assert_eq!(excludes.len(), self.exclude.len());
        let kept = Vec::with_capacity(self.include.len());
        let include = std::mem::replace(&mut self.include, kept);
        let mut kept_boxes: Vec<IntBox> = Vec::with_capacity(include.len());
        let mut size: u128 = 0;
        for member in include {
            let Some(b) = member.to_box() else { continue };
            let residual = residual_count(&b, kept_boxes.iter().chain(&excludes));
            if residual == 0 {
                continue;
            }
            size += residual;
            self.include.push(member);
            kept_boxes.push(b);
        }
        let mut exclude_boxes = excludes.iter();
        self.exclude.retain(|_| {
            let eb = exclude_boxes.next().expect("one box per exclusion member");
            kept_boxes.iter().any(|ib| ib.intersects(eb))
        });
        self.size = size;
        debug_assert_eq!(size, region_size(&kept_boxes, &self.exclude_boxes()));
    }
}

impl AbstractDomain for PowersetDomain {
    fn top(layout: &SecretLayout) -> Self {
        PowersetDomain::from_interval(IntervalDomain::top(layout))
    }

    fn bottom(layout: &SecretLayout) -> Self {
        PowersetDomain::new(layout.arity(), vec![], vec![])
    }

    fn contains(&self, point: &Point) -> bool {
        point.arity() == self.arity
            && self.include.iter().any(|d| d.contains(point))
            && !self.exclude.iter().any(|d| d.contains(point))
    }

    fn is_subset_of(&self, other: &Self) -> bool {
        // Exact inclusion: |self| == |self ∩ other| (both sizes are exact).
        let meet = self.intersect(other);
        self.size() == meet.size()
    }

    fn intersect(&self, other: &Self) -> Self {
        assert_eq!(self.arity, other.arity, "intersected powersets must have equal arity");
        let mut include = Vec::with_capacity(self.include.len() * other.include.len());
        for a in &self.include {
            for b in &other.include {
                let m = a.intersect(b);
                if !m.is_empty() {
                    include.push(m);
                }
            }
        }
        let mut exclude = Vec::with_capacity(self.exclude.len() + other.exclude.len());
        exclude.extend(self.exclude.iter().chain(&other.exclude).cloned());
        PowersetDomain::new(self.arity, include, exclude)
    }

    fn size(&self) -> u128 {
        self.size
    }

    fn to_pred(&self) -> Pred {
        if self.include.is_empty() {
            return Pred::False;
        }
        let inside = Pred::or(self.include.iter().map(IntervalDomain::to_pred).collect());
        if self.exclude.is_empty() {
            inside
        } else {
            let outside = Pred::or(self.exclude.iter().map(IntervalDomain::to_pred).collect());
            inside.and_also(outside.negate())
        }
    }

    fn bounding_box(&self) -> Option<IntBox> {
        let boxes = self.include_boxes();
        let mut iter = boxes.into_iter();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, b| {
            IntBox::new(acc.dims().iter().zip(b.dims().iter()).map(|(x, y)| x.hull(*y)).collect())
        }))
    }

    fn from_box(boxed: &IntBox) -> Self {
        let member = IntervalDomain::from_box(boxed);
        if member.is_empty() {
            PowersetDomain::new(boxed.arity(), vec![], vec![])
        } else {
            PowersetDomain::from_interval(member)
        }
    }
}

impl fmt::Display for PowersetDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.include.is_empty() {
            return write!(f, "⊥P");
        }
        write!(f, "⋃{{")?;
        for (i, d) in self.include.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")?;
        if !self.exclude.is_empty() {
            write!(f, " \\ ⋃{{")?;
            for (i, d) in self.exclude.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{d}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AInt;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 20).field("y", 0, 20).build()
    }

    fn interval(x: (i64, i64), y: (i64, i64)) -> IntervalDomain {
        IntervalDomain::from_intervals(vec![AInt::new(x.0, x.1), AInt::new(y.0, y.1)])
    }

    fn brute_size(d: &PowersetDomain, layout: &SecretLayout) -> u128 {
        layout.space().points().filter(|p| d.contains(p)).count() as u128
    }

    #[test]
    fn top_and_bottom() {
        let l = layout();
        let top = PowersetDomain::top(&l);
        let bot = PowersetDomain::bottom(&l);
        assert_eq!(top.size(), 441);
        assert_eq!(bot.size(), 0);
        assert!(bot.is_subset_of(&top));
        assert!(bot.is_empty());
        assert!(top.contains(&Point::new(vec![0, 0])));
        assert!(!bot.contains(&Point::new(vec![0, 0])));
    }

    #[test]
    fn size_is_exact_despite_overlaps() {
        let l = layout();
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10)), interval((5, 15), (5, 15))],
            vec![interval((8, 12), (8, 12))],
        );
        assert_eq!(d.size(), brute_size(&d, &l));
    }

    #[test]
    fn membership_follows_include_minus_exclude() {
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10))],
            vec![interval((3, 5), (3, 5))],
        );
        assert!(d.contains(&Point::new(vec![0, 0])));
        assert!(!d.contains(&Point::new(vec![4, 4])));
        assert!(!d.contains(&Point::new(vec![11, 0])));
        assert!(!d.contains(&Point::new(vec![4]))); // wrong arity
    }

    #[test]
    fn intersection_is_the_exact_meet() {
        let l = layout();
        let a = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10)), interval((12, 20), (12, 20))],
            vec![interval((4, 6), (4, 6))],
        );
        let b = PowersetDomain::new(
            2,
            vec![interval((5, 14), (5, 14))],
            vec![interval((13, 20), (0, 20))],
        );
        let meet = a.intersect(&b);
        for p in l.space().points() {
            assert_eq!(meet.contains(&p), a.contains(&p) && b.contains(&p), "at {p}");
        }
        assert_eq!(meet.size(), brute_size(&meet, &l));
        assert!(meet.is_subset_of(&a));
        assert!(meet.is_subset_of(&b));
    }

    #[test]
    fn subset_is_exact() {
        let small = PowersetDomain::new(2, vec![interval((1, 3), (1, 3))], vec![]);
        let big = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10))],
            vec![interval((5, 6), (5, 6))],
        );
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        // A set that pokes into the exclusion of `big` is not a subset.
        let poking = PowersetDomain::new(2, vec![interval((5, 6), (5, 6))], vec![]);
        assert!(!poking.is_subset_of(&big));
        // Two different representations of the same set are mutual subsets.
        let split = PowersetDomain::new(
            2,
            vec![interval((1, 2), (1, 3)), interval((3, 3), (1, 3))],
            vec![],
        );
        assert!(split.is_subset_of(&small));
        assert!(small.is_subset_of(&split));
    }

    #[test]
    fn to_pred_characterizes_membership() {
        let l = layout();
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 5), (0, 5)), interval((10, 15), (10, 15))],
            vec![interval((2, 3), (2, 3))],
        );
        let pred = d.to_pred();
        for p in l.space().points() {
            assert_eq!(pred.eval(&p).unwrap(), d.contains(&p), "at {p}");
        }
        assert_eq!(PowersetDomain::bottom(&l).to_pred(), Pred::False);
    }

    #[test]
    fn normalization_drops_dead_members() {
        // The second include is fully covered by the first; the exclude is disjoint from both.
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 10), (0, 10)), interval((2, 4), (2, 4))],
            vec![interval((15, 16), (15, 16))],
        );
        assert_eq!(d.includes().len(), 1);
        assert!(d.excludes().is_empty());
        // An include that is entirely excluded disappears too.
        let gone =
            PowersetDomain::new(2, vec![interval((0, 2), (0, 2))], vec![interval((0, 2), (0, 2))]);
        assert!(gone.is_empty());
        assert!(gone.includes().is_empty());
    }

    #[test]
    fn push_members_keeps_sizes_exact() {
        let l = layout();
        let mut d = PowersetDomain::bottom(&l);
        d.push_include(interval((0, 4), (0, 4)));
        d.push_include(interval((3, 8), (0, 4)));
        assert_eq!(d.size(), brute_size(&d, &l));
        d.push_exclude(interval((0, 20), (2, 2)));
        assert_eq!(d.size(), brute_size(&d, &l));
    }

    #[test]
    fn bounding_box_is_the_hull_of_includes() {
        let d = PowersetDomain::new(
            2,
            vec![interval((0, 2), (0, 2)), interval((10, 12), (4, 6))],
            vec![],
        );
        let bb = d.bounding_box().unwrap();
        assert_eq!(bb.dim(0), anosy_logic::Range::new(0, 12));
        assert_eq!(bb.dim(1), anosy_logic::Range::new(0, 6));
        assert!(PowersetDomain::bottom(&layout()).bounding_box().is_none());
    }

    #[test]
    fn from_box_round_trip() {
        let b = IntBox::new(vec![anosy_logic::Range::new(1, 3), anosy_logic::Range::new(2, 4)]);
        let d = PowersetDomain::from_box(&b);
        assert_eq!(d.size(), 9);
        assert_eq!(d.bounding_box(), Some(b));
    }

    #[test]
    fn display_renders_both_lists() {
        let d =
            PowersetDomain::new(2, vec![interval((0, 5), (0, 5))], vec![interval((1, 2), (1, 2))]);
        let s = d.to_string();
        assert!(s.contains('⋃'));
        assert!(s.contains('\\'));
        assert_eq!(PowersetDomain::new(2, vec![], vec![]).to_string(), "⊥P");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_is_rejected() {
        let _ = PowersetDomain::new(
            2,
            vec![IntervalDomain::from_intervals(vec![AInt::new(0, 1)])],
            vec![],
        );
    }
}

//! The interval abstract domain `A_I` (§4.3 of the paper).

use crate::{AInt, AbstractDomain};
use anosy_logic::{IntBox, IntExpr, Point, Pred, SecretLayout};
use std::fmt;

/// The interval abstract domain: an axis-aligned box with one [`AInt`] per secret field, plus
/// explicit top and bottom elements.
///
/// This mirrors the paper's `A_I` datatype, whose three constructors are the boxed domain, `⊤_I`
/// and `⊥_I`. The Liquid Haskell proof terms (`pos`/`neg`) that give meaning to the refinement
/// indexes have no syntactic counterpart here; their obligations are discharged executably by
/// `anosy-verify`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntervalDomain {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// The full secret space of the given layout bounds.
    Top { space: Vec<AInt> },
    /// The empty domain. The arity is kept so operations remain well-formed.
    Bottom { arity: usize },
    /// An axis-aligned product of abstract integers.
    Box { dims: Vec<AInt> },
}

impl IntervalDomain {
    /// Creates the domain representing exactly the product of `intervals`.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty (a secret always has at least one field).
    pub fn from_intervals(intervals: Vec<AInt>) -> Self {
        assert!(!intervals.is_empty(), "a secret has at least one field");
        IntervalDomain { repr: Repr::Box { dims: intervals } }
    }

    /// The explicit `⊤` element of a layout whose per-field bounds are `space`: the powerset
    /// domain stores members as bare bounds and rebuilds its `⊤` members with this.
    pub(crate) fn top_of(space: Vec<AInt>) -> Self {
        IntervalDomain { repr: Repr::Top { space } }
    }

    /// The explicit empty domain of the given arity.
    pub fn empty(arity: usize) -> Self {
        IntervalDomain { repr: Repr::Bottom { arity } }
    }

    /// Number of secret fields this domain abstracts.
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Top { space } => space.len(),
            Repr::Bottom { arity } => *arity,
            Repr::Box { dims } => dims.len(),
        }
    }

    /// The per-field intervals, or `None` for the empty domain.
    pub fn intervals(&self) -> Option<&[AInt]> {
        match &self.repr {
            Repr::Top { space } => Some(space),
            Repr::Bottom { .. } => None,
            Repr::Box { dims } => Some(dims),
        }
    }

    /// Returns `true` if this element is the explicit top of its layout (i.e. covers the whole
    /// declared space it was built from).
    pub fn is_top_element(&self) -> bool {
        matches!(self.repr, Repr::Top { .. })
    }

    /// The corresponding solver box, or `None` for the empty domain.
    pub fn to_box(&self) -> Option<IntBox> {
        self.intervals().map(|dims| IntBox::new(dims.iter().map(AInt::to_range).collect()))
    }
}

impl AbstractDomain for IntervalDomain {
    fn top(layout: &SecretLayout) -> Self {
        IntervalDomain {
            repr: Repr::Top {
                space: layout.fields().iter().map(|f| AInt::new(f.lo(), f.hi())).collect(),
            },
        }
    }

    fn bottom(layout: &SecretLayout) -> Self {
        IntervalDomain::empty(layout.arity())
    }

    fn contains(&self, point: &Point) -> bool {
        match self.intervals() {
            None => false,
            Some(dims) => {
                point.arity() == dims.len()
                    && dims.iter().zip(point.iter()).all(|(a, v)| a.contains(v))
            }
        }
    }

    fn is_subset_of(&self, other: &Self) -> bool {
        match (self.intervals(), other.intervals()) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| y.contains_all(x))
            }
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        let arity = self.arity();
        match (self.intervals(), other.intervals()) {
            (None, _) | (_, None) => IntervalDomain::empty(arity),
            (Some(a), Some(b)) => {
                assert_eq!(a.len(), b.len(), "intersected domains must have equal arity");
                let mut dims = Vec::with_capacity(a.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.intersect(y) {
                        Some(i) => dims.push(i),
                        None => return IntervalDomain::empty(arity),
                    }
                }
                IntervalDomain::from_intervals(dims)
            }
        }
    }

    fn size(&self) -> u128 {
        match self.intervals() {
            None => 0,
            Some(dims) => dims.iter().map(AInt::size).product(),
        }
    }

    fn to_pred(&self) -> Pred {
        match self.intervals() {
            None => Pred::False,
            Some(dims) => Pred::and(
                dims.iter()
                    .enumerate()
                    .map(|(i, a)| IntExpr::var(i).between(a.lower(), a.upper()))
                    .collect(),
            ),
        }
    }

    fn bounding_box(&self) -> Option<IntBox> {
        self.to_box()
    }

    fn from_box(boxed: &IntBox) -> Self {
        if boxed.is_empty() {
            return IntervalDomain::empty(boxed.arity());
        }
        IntervalDomain::from_intervals(
            boxed.dims().iter().map(|r| AInt::new(r.lo(), r.hi())).collect(),
        )
    }
}

impl fmt::Display for IntervalDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Top { space } => {
                write!(f, "⊤")?;
                write!(f, "{}", format_dims(space))
            }
            Repr::Bottom { .. } => write!(f, "⊥"),
            Repr::Box { dims } => write!(f, "{}", format_dims(dims)),
        }
    }
}

fn format_dims(dims: &[AInt]) -> String {
    let mut s = String::from("{");
    for (i, d) in dims.iter().enumerate() {
        if i > 0 {
            s.push_str(" × ");
        }
        s.push_str(&d.to_string());
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn under_true() -> IntervalDomain {
        // The paper's under-approximate True ind. set for nearby (200,200): x ∈ [121,279],
        // y ∈ [179,221] (§2.2).
        IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)])
    }

    #[test]
    fn top_and_bottom_shapes() {
        let l = layout();
        let top = IntervalDomain::top(&l);
        let bot = IntervalDomain::bottom(&l);
        assert!(top.is_top_element());
        assert_eq!(top.size(), 401 * 401);
        assert_eq!(bot.size(), 0);
        assert!(bot.is_empty());
        assert!(bot.is_subset_of(&top));
        assert!(!top.is_subset_of(&bot));
        assert_eq!(top.arity(), 2);
        assert_eq!(bot.arity(), 2);
    }

    #[test]
    fn membership_matches_the_paper_example() {
        let d = under_true();
        assert!(d.contains(&Point::new(vec![200, 200])));
        assert!(d.contains(&Point::new(vec![121, 179])));
        assert!(!d.contains(&Point::new(vec![120, 200])));
        assert!(!d.contains(&Point::new(vec![200, 222])));
        assert!(!d.contains(&Point::new(vec![200]))); // wrong arity
        assert_eq!(d.size(), 159 * 43);
    }

    #[test]
    fn subset_is_componentwise() {
        let small = IntervalDomain::from_intervals(vec![AInt::new(130, 140), AInt::new(180, 200)]);
        let d = under_true();
        assert!(small.is_subset_of(&d));
        assert!(!d.is_subset_of(&small));
        assert!(d.is_subset_of(&IntervalDomain::top(&layout())));
    }

    #[test]
    fn intersection_is_the_meet() {
        let a = IntervalDomain::from_intervals(vec![AInt::new(0, 200), AInt::new(0, 200)]);
        let b = IntervalDomain::from_intervals(vec![AInt::new(150, 400), AInt::new(100, 150)]);
        let m = a.intersect(&b);
        assert_eq!(
            m,
            IntervalDomain::from_intervals(vec![AInt::new(150, 200), AInt::new(100, 150)])
        );
        assert!(m.is_subset_of(&a) && m.is_subset_of(&b));
        // Disjoint intersection is bottom.
        let c = IntervalDomain::from_intervals(vec![AInt::new(300, 400), AInt::new(0, 50)]);
        assert!(a.intersect(&c).is_empty());
        // Intersection with bottom is bottom; with top is identity.
        let l = layout();
        assert!(a.intersect(&IntervalDomain::bottom(&l)).is_empty());
        assert_eq!(a.intersect(&IntervalDomain::top(&l)), a);
    }

    #[test]
    fn to_pred_characterizes_membership() {
        let d = under_true();
        let pred = d.to_pred();
        for p in [[121, 179], [279, 221], [200, 200], [120, 200], [280, 221], [0, 0]] {
            let point = Point::new(p.to_vec());
            assert_eq!(pred.eval(&point).unwrap(), d.contains(&point), "at {point}");
        }
        assert_eq!(IntervalDomain::bottom(&layout()).to_pred(), Pred::False);
    }

    #[test]
    fn box_round_trip() {
        let d = under_true();
        let b = d.to_box().unwrap();
        assert_eq!(IntervalDomain::from_box(&b), d);
        assert_eq!(d.bounding_box(), Some(b));
        assert_eq!(IntervalDomain::bottom(&layout()).to_box(), None);
        let empty_box = IntBox::new(vec![anosy_logic::Range::empty(), anosy_logic::Range::empty()]);
        assert!(IntervalDomain::from_box(&empty_box).is_empty());
    }

    #[test]
    fn display_shows_structure() {
        assert_eq!(IntervalDomain::empty(2).to_string(), "⊥");
        assert!(under_true().to_string().contains("[121, 279]"));
        assert!(IntervalDomain::top(&layout()).to_string().starts_with('⊤'));
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn zero_arity_box_is_rejected() {
        let _ = IntervalDomain::from_intervals(vec![]);
    }
}

//! Property-based tests for the abstract domains: the class laws of Fig. 3, exactness of
//! `size`/`contains`/`intersect` against brute-force enumeration on small secret spaces, and the
//! flat powerset kernel against the normalization it replaced.

use anosy_domains::{
    laws, region_size, subtract_boxes, AInt, AbstractDomain, IntervalDomain, PowersetDomain,
};
use anosy_logic::{IntBox, Point, SecretLayout};
use anosy_synth::DomainCodec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const SIDE: i64 = 11; // small 2-D space so brute force stays fast

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, SIDE).field("y", 0, SIDE).build()
}

fn arb_aint() -> impl Strategy<Value = AInt> {
    (0..=SIDE, 0..=SIDE).prop_map(|(a, b)| AInt::new(a.min(b), a.max(b)))
}

fn arb_interval_domain() -> impl Strategy<Value = IntervalDomain> {
    prop_oneof![
        8 => (arb_aint(), arb_aint()).prop_map(|(x, y)| IntervalDomain::from_intervals(vec![x, y])),
        1 => Just(IntervalDomain::top(&layout())),
        1 => Just(IntervalDomain::bottom(&layout())),
    ]
}

fn arb_powerset() -> impl Strategy<Value = PowersetDomain> {
    (
        proptest::collection::vec(arb_interval_domain(), 0..4),
        proptest::collection::vec(arb_interval_domain(), 0..3),
    )
        .prop_map(|(inc, exc)| {
            let inc = inc.into_iter().filter(|d| !d.is_empty()).collect();
            let exc = exc.into_iter().filter(|d| !d.is_empty()).collect();
            PowersetDomain::new(2, inc, exc)
        })
}

/// One operation that rebuilds a powerset element, and with it the size the element carries.
#[derive(Debug, Clone)]
enum Step {
    Intersect(PowersetDomain),
    PushInclude(IntervalDomain),
    PushExclude(IntervalDomain),
    /// Round-trips the element through its persisted text form.
    Decode,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => arb_powerset().prop_map(Step::Intersect),
        3 => arb_interval_domain().prop_map(Step::PushInclude),
        3 => arb_interval_domain().prop_map(Step::PushExclude),
        1 => Just(Step::Decode),
    ]
}

fn member_boxes(members: impl IntoIterator<Item = IntervalDomain>) -> Vec<IntBox> {
    members.into_iter().filter_map(|d| d.to_box()).collect()
}

fn all_points() -> Vec<Point> {
    layout().space().points().collect()
}

fn brute_size<D: AbstractDomain>(d: &D) -> u128 {
    all_points().iter().filter(|p| d.contains(p)).count() as u128
}

/// The powerset normalization as first written — one `IntervalDomain` per member, one `IntBox`
/// per member for the count, residuals summed from [`subtract_boxes`] piece lists — kept as the
/// reference the flat kernel must match member for member.
#[derive(Debug, Clone)]
struct Reference {
    include: Vec<IntervalDomain>,
    exclude: Vec<IntervalDomain>,
    size: u128,
}

impl Reference {
    fn normalize(include: Vec<IntervalDomain>, exclude: Vec<IntervalDomain>) -> Reference {
        let mut exclude: Vec<IntervalDomain> =
            exclude.into_iter().filter(|d| !d.is_empty()).collect();
        let exclude_boxes = member_boxes(exclude.clone());
        let mut kept = Vec::new();
        let mut kept_boxes: Vec<IntBox> = Vec::new();
        let mut size = 0;
        for member in include {
            let Some(b) = member.to_box() else { continue };
            let residual: u128 = subtract_boxes(&b, kept_boxes.iter().chain(&exclude_boxes))
                .iter()
                .map(IntBox::count)
                .sum();
            if residual > 0 {
                size += residual;
                kept.push(member);
                kept_boxes.push(b);
            }
        }
        let mut boxes = exclude_boxes.iter();
        exclude.retain(|_| {
            let e = boxes.next().expect("one box per exclusion member");
            kept_boxes.iter().any(|b| b.intersects(e))
        });
        Reference { include: kept, exclude, size }
    }

    fn intersect(&self, other: &Reference) -> Reference {
        let mut include = Vec::new();
        for a in &self.include {
            for b in &other.include {
                let m = a.intersect(b);
                if !m.is_empty() {
                    include.push(m);
                }
            }
        }
        let exclude = self.exclude.iter().chain(&other.exclude).cloned().collect();
        Reference::normalize(include, exclude)
    }

    fn push(&self, include: Option<IntervalDomain>, exclude: Option<IntervalDomain>) -> Reference {
        let mut next = self.clone();
        next.include.extend(include);
        next.exclude.extend(exclude);
        Reference::normalize(next.include, next.exclude)
    }
}

/// The cube `[0, side]^arity` the differential test draws members from; it shrinks with the
/// arity so brute-force enumeration stays fast.
fn cube(arity: usize) -> SecretLayout {
    let side = [12, 9, 6][arity - 1];
    (0..arity).fold(SecretLayout::builder(), |b, d| b.field(format!("x{d}"), 0, side)).build()
}

fn arb_member(arity: usize) -> impl Strategy<Value = IntervalDomain> {
    let side = [12i64, 9, 6][arity - 1];
    let layout = cube(arity);
    let bounds = (0..=side, 0..=side).prop_map(|(a, b)| AInt::new(a.min(b), a.max(b)));
    prop_oneof![
        8 => proptest::collection::vec(bounds, arity..arity + 1)
            .prop_map(IntervalDomain::from_intervals),
        1 => Just(IntervalDomain::top(&layout)),
        1 => Just(IntervalDomain::bottom(&layout)),
    ]
}

/// Raw member lists: up to four includes and three excludes, before normalization.
type Lists = (Vec<IntervalDomain>, Vec<IntervalDomain>);

fn arb_lists(arity: usize) -> impl Strategy<Value = Lists> {
    (
        proptest::collection::vec(arb_member(arity), 0..5),
        proptest::collection::vec(arb_member(arity), 0..4),
    )
}

/// One operation of a differential chain.
#[derive(Debug, Clone)]
enum Op {
    Meet(Lists),
    Include(IntervalDomain),
    Exclude(IntervalDomain),
}

fn arb_op(arity: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_lists(arity).prop_map(Op::Meet),
        2 => arb_member(arity).prop_map(Op::Include),
        2 => arb_member(arity).prop_map(Op::Exclude),
    ]
}

fn arb_chain() -> impl Strategy<Value = (usize, Lists, Vec<Op>)> {
    (1usize..4).prop_flat_map(|arity| {
        (Just(arity), arb_lists(arity), proptest::collection::vec(arb_op(arity), 1..7))
    })
}

/// The flat element keeps the reference's members in the reference's order, and its stored
/// size is the reference's, [`region_size`]'s and the brute-force count.
fn agrees(
    flat: &PowersetDomain,
    reference: &Reference,
    points: &[Point],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.includes().collect::<Vec<_>>(), reference.include.clone());
    prop_assert_eq!(flat.excludes().collect::<Vec<_>>(), reference.exclude.clone());
    prop_assert_eq!(flat.size(), reference.size);
    prop_assert_eq!(
        flat.size(),
        region_size(&member_boxes(flat.includes()), &member_boxes(flat.excludes()))
    );
    prop_assert_eq!(flat.size(), points.iter().filter(|p| flat.contains(p)).count() as u128);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat kernel against the reference normalization, through chains of meets and
    /// pushes on 1-, 2- and 3-D powersets whose members overlap.
    #[test]
    fn flat_kernel_matches_the_reference_normalization((arity, (inc, exc), ops) in arb_chain()) {
        let points: Vec<Point> = cube(arity).space().points().collect();
        let mut flat = PowersetDomain::new(arity, inc.clone(), exc.clone());
        let mut reference = Reference::normalize(inc, exc);
        agrees(&flat, &reference, &points)?;
        for op in ops {
            match op {
                Op::Meet((inc, exc)) => {
                    let other = PowersetDomain::new(arity, inc.clone(), exc.clone());
                    let meet = flat.intersect(&other);
                    for p in &points {
                        prop_assert_eq!(meet.contains(p), flat.contains(p) && other.contains(p));
                    }
                    flat = meet;
                    reference = reference.intersect(&Reference::normalize(inc, exc));
                }
                Op::Include(member) => {
                    flat.push_include(member.clone());
                    reference = reference.push(Some(member), None);
                }
                Op::Exclude(member) => {
                    flat.push_exclude(member.clone());
                    reference = reference.push(None, Some(member));
                }
            }
            agrees(&flat, &reference, &points)?;
        }
    }

    #[test]
    fn interval_size_matches_enumeration(d in arb_interval_domain()) {
        prop_assert_eq!(d.size(), brute_size(&d));
    }

    #[test]
    fn powerset_size_matches_enumeration(d in arb_powerset()) {
        prop_assert_eq!(d.size(), brute_size(&d));
    }

    /// The size a powerset element computes while normalizing must stay the size of the region
    /// its member lists describe, through every operation that rebuilds the element.
    #[test]
    fn cached_powerset_size_survives_operation_chains(
        start in arb_powerset(),
        steps in proptest::collection::vec(arb_step(), 1..8),
    ) {
        let mut d = start;
        for step in steps {
            match step {
                Step::Intersect(other) => d = d.intersect(&other),
                Step::PushInclude(member) => d.push_include(member),
                Step::PushExclude(member) => d.push_exclude(member),
                Step::Decode => {
                    let text = d.encode();
                    d = PowersetDomain::decode(&text, &layout()).expect("encoded elements decode");
                    prop_assert_eq!(d.encode(), text);
                }
            }
            prop_assert_eq!(
                d.size(),
                region_size(&member_boxes(d.includes()), &member_boxes(d.excludes()))
            );
            prop_assert_eq!(d.size(), brute_size(&d));
        }
    }

    #[test]
    fn interval_laws_hold(d1 in arb_interval_domain(), d2 in arb_interval_domain()) {
        let samples = all_points();
        prop_assert!(laws::check_size_law(&d1, &d2).is_ok());
        prop_assert!(laws::check_subset_law(&d1, &d2, &samples).is_ok());
        prop_assert!(laws::check_intersection_spec(&d1, &d2, &samples).is_ok());
    }

    #[test]
    fn powerset_laws_hold(d1 in arb_powerset(), d2 in arb_powerset()) {
        let samples = all_points();
        prop_assert!(laws::check_size_law(&d1, &d2).is_ok());
        prop_assert!(laws::check_subset_law(&d1, &d2, &samples).is_ok());
        prop_assert!(laws::check_intersection_spec(&d1, &d2, &samples).is_ok());
    }

    #[test]
    fn interval_subset_is_exact(d1 in arb_interval_domain(), d2 in arb_interval_domain()) {
        let semantically = all_points().iter().all(|p| !d1.contains(p) || d2.contains(p));
        prop_assert_eq!(d1.is_subset_of(&d2), semantically);
    }

    #[test]
    fn powerset_subset_is_exact(d1 in arb_powerset(), d2 in arb_powerset()) {
        let semantically = all_points().iter().all(|p| !d1.contains(p) || d2.contains(p));
        prop_assert_eq!(d1.is_subset_of(&d2), semantically);
    }

    #[test]
    fn intersection_membership_is_pointwise_and(d1 in arb_powerset(), d2 in arb_powerset()) {
        let meet = d1.intersect(&d2);
        for p in all_points() {
            prop_assert_eq!(meet.contains(&p), d1.contains(&p) && d2.contains(&p));
        }
    }

    #[test]
    fn to_pred_agrees_with_contains(d in arb_powerset()) {
        let pred = d.to_pred();
        for p in all_points() {
            prop_assert_eq!(pred.eval(&p).unwrap(), d.contains(&p));
        }
    }

    #[test]
    fn interval_to_pred_agrees_with_contains(d in arb_interval_domain()) {
        let pred = d.to_pred();
        for p in all_points() {
            prop_assert_eq!(pred.eval(&p).unwrap(), d.contains(&p));
        }
    }

    #[test]
    fn top_absorbs_intersection(d in arb_powerset()) {
        let top = PowersetDomain::top(&layout());
        let meet = d.intersect(&top);
        prop_assert_eq!(meet.size(), d.size());
        prop_assert!(meet.is_subset_of(&d) && d.is_subset_of(&meet));
    }

    #[test]
    fn bottom_annihilates_intersection(d in arb_powerset()) {
        let bottom = PowersetDomain::bottom(&layout());
        prop_assert!(d.intersect(&bottom).is_empty());
    }

    // The unconstrained pairs above exercise the laws mostly vacuously (random d1 ⊆ d2 is rare).
    // Meets give guaranteed-subset pairs, so sizeLaw and subsetLaw are checked non-vacuously.

    #[test]
    fn interval_laws_hold_on_guaranteed_subset_pairs(d1 in arb_interval_domain(), d2 in arb_interval_domain()) {
        let samples = all_points();
        let meet = d1.intersect(&d2);
        prop_assert!(meet.is_subset_of(&d1) && meet.is_subset_of(&d2));
        for bigger in [&d1, &d2] {
            prop_assert!(laws::check_size_law(&meet, bigger).is_ok());
            prop_assert!(meet.size() <= bigger.size());
            prop_assert!(laws::check_subset_law(&meet, bigger, &samples).is_ok());
        }
    }

    #[test]
    fn powerset_laws_hold_on_guaranteed_subset_pairs(d1 in arb_powerset(), d2 in arb_powerset()) {
        let samples = all_points();
        let meet = d1.intersect(&d2);
        prop_assert!(meet.is_subset_of(&d1) && meet.is_subset_of(&d2));
        for bigger in [&d1, &d2] {
            prop_assert!(laws::check_size_law(&meet, bigger).is_ok());
            prop_assert!(meet.size() <= bigger.size());
            prop_assert!(laws::check_subset_law(&meet, bigger, &samples).is_ok());
        }
    }

    /// Every law, on every ordered pair from a mixed collection that always includes ⊤, ⊥ and a
    /// meet (so subset relations genuinely occur).
    #[test]
    fn interval_collection_has_no_law_violations(d1 in arb_interval_domain(), d2 in arb_interval_domain()) {
        let elements = vec![
            d1.intersect(&d2),
            d1,
            d2,
            IntervalDomain::top(&layout()),
            IntervalDomain::bottom(&layout()),
        ];
        let violations = laws::check_all_laws(&elements, &all_points());
        prop_assert!(violations.is_empty(), "law violations: {violations:?}");
    }

    #[test]
    fn powerset_collection_has_no_law_violations(d1 in arb_powerset(), d2 in arb_powerset()) {
        let elements = vec![
            d1.intersect(&d2),
            d1,
            d2,
            PowersetDomain::top(&layout()),
            PowersetDomain::bottom(&layout()),
        ];
        let violations = laws::check_all_laws(&elements, &all_points());
        prop_assert!(violations.is_empty(), "law violations: {violations:?}");
    }

    /// A single interval and its powerset embedding agree on membership, size and subset checks.
    #[test]
    fn powerset_embedding_is_faithful(d in arb_interval_domain(), other in arb_interval_domain()) {
        let embedded = PowersetDomain::from_interval(d.clone());
        let other_embedded = PowersetDomain::from_interval(other.clone());
        prop_assert_eq!(embedded.size(), d.size());
        for p in all_points() {
            prop_assert_eq!(embedded.contains(&p), d.contains(&p));
        }
        prop_assert_eq!(embedded.is_subset_of(&other_embedded), d.is_subset_of(&other));
    }
}

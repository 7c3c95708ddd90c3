//! Property-based tests for the abstract domains: the class laws of Fig. 3 and exactness of
//! `size`/`contains`/`intersect` against brute-force enumeration on small secret spaces.

use anosy_domains::{laws, region_size, AInt, AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_logic::{IntBox, Point, SecretLayout};
use anosy_synth::DomainCodec;
use proptest::prelude::*;

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

fn member_boxes(members: &[IntervalDomain]) -> Vec<IntBox> {
    members.iter().filter_map(IntervalDomain::to_box).collect()
}

fn all_points() -> Vec<Point> {
    layout().space().points().collect()
}

fn brute_size<D: AbstractDomain>(d: &D) -> u128 {
    all_points().iter().filter(|p| d.contains(p)).count() as u128
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

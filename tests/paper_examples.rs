//! Integration tests pinning the concrete numbers the paper walks through in §2 and §3:
//! the `nearby` indistinguishability sets, the posterior sizes after each downgrade, and the
//! policy-violation point.

use anosy::prelude::*;

fn loc_layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

fn nearby(x: i64, y: i64) -> Pred {
    ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(100)
}

fn nearby_query(x: i64, y: i64) -> QueryDef {
    QueryDef::new(format!("nearby_{x}_{y}"), loc_layout(), nearby(x, y)).unwrap()
}

/// §2.2: the hand-written `under_indset` for nearby (200,200) verifies, and its posterior from ⊤
/// has size 6837 on the True branch (the |post1| of §3).
#[test]
fn section_2_under_indset_and_post1() {
    let truthy = IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]);
    let falsy = IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]);
    let indsets = IndSets::new(ApproxKind::Under, truthy, falsy);

    let mut verifier = Verifier::new();
    let report = verifier.verify_indsets(&nearby_query(200, 200), &indsets).unwrap();
    assert!(report.is_verified(), "{report}");

    let prior = IntervalDomain::top(&loc_layout());
    let (post_true, post_false) = indsets.posterior(&prior);
    assert_eq!(post_true.size(), 6837);
    assert_eq!(post_false.size(), 40100);
}

/// §2.1: downgrading nearby (200,200) and nearby (400,200) both as true pins the secret down to
/// exactly (300, 200) — the motivation for bounding downgrades.
#[test]
fn section_2_two_queries_reveal_the_secret() {
    let mut solver = Solver::new();
    let both = nearby(200, 200).and_also(nearby(400, 200));
    let space = loc_layout().space();
    assert_eq!(solver.count_models(&both, &space).unwrap(), 1);
    assert_eq!(solver.find_model(&both, &space).unwrap().unwrap(), Point::new(vec![300, 200]));
}

/// §3: the bounded downgrade authorizes nearby (200,200) and nearby (300,200) but refuses
/// nearby (400,200) under `size > 100`, using the synthesized powerset approximations.
#[test]
fn section_3_bounded_downgrade_walkthrough() {
    let mut synthesizer = Synthesizer::new();
    let mut session: AnosySession<PowersetDomain> =
        AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
    for (x, y) in [(200, 200), (300, 200), (400, 200)] {
        session
            .register_synthesized(&mut synthesizer, &nearby_query(x, y), ApproxKind::Under, Some(3))
            .unwrap();
    }

    let secret_point = Point::new(vec![300, 200]);
    let secret = Protected::new(secret_point.clone());
    assert!(session.downgrade(&secret, "nearby_200_200").unwrap());
    let k1 = session.knowledge_of(&secret_point).size();
    assert!(k1 > 100, "first posterior should easily satisfy the policy (got {k1})");

    assert!(session.downgrade(&secret, "nearby_300_200").unwrap());
    let k2 = session.knowledge_of(&secret_point).size();
    assert!(k2 <= k1, "knowledge must be monotonically refined");
    assert!(k2 > 100);

    let err = session.downgrade(&secret, "nearby_400_200").unwrap_err();
    assert!(matches!(err, AnosyError::PolicyViolation { .. }), "got {err}");
    // The refused downgrade leaves the knowledge untouched.
    assert_eq!(session.knowledge_of(&secret_point).size(), k2);
}

/// Fig. 1a: nearby (200,200) ∧ nearby (300,200) leaves well over 100 candidate locations, which
/// is why the paper's policy admits that pair of queries.
#[test]
fn figure_1_intersection_sizes() {
    let mut solver = Solver::new();
    let space = loc_layout().space();
    let pair = nearby(200, 200).and_also(nearby(300, 200));
    let intersection = solver.count_models(&pair, &space).unwrap();
    assert!(intersection > 100);
    // And the paper's exact-posterior narrative: it is smaller than either single posterior.
    let single = solver.count_models(&nearby(200, 200), &space).unwrap();
    assert!(intersection < single);
}

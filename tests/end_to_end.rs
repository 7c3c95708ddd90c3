//! End-to-end integration: typed secrets, the full synthesize → verify → register → downgrade
//! pipeline over both abstract domains, the IFC staging, and the benchmark suite wired through
//! the same public API a downstream application would use.

use anosy::prelude::*;

anosy::domains::secret_record! {
    /// The paper's §2 secret type, declared the way an application would.
    pub struct UserLoc {
        x: 0..=400,
        y: 0..=400,
    }
}

fn nearby(x: i64, y: i64) -> Pred {
    ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(100)
}

#[test]
fn typed_secret_pipeline_with_interval_domain() {
    let layout = UserLoc::layout();
    let mut synth = Synthesizer::new();
    let mut session: AnosySession<IntervalDomain> =
        AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
    for (x, y) in [(200, 200), (300, 200)] {
        let q = QueryDef::new(format!("nearby_{x}_{y}"), layout.clone(), nearby(x, y)).unwrap();
        session.register_synthesized(&mut synth, &q, ApproxKind::Under, None).unwrap();
    }
    let user = Protected::new(UserLoc { x: 300, y: 200 });
    assert!(session.downgrade_secret(&user, "nearby_200_200").unwrap());
    assert!(session.downgrade_secret(&user, "nearby_300_200").unwrap());
    let knowledge = session.knowledge_of(&UserLoc { x: 300, y: 200 }.to_point());
    assert!(knowledge.size() > 100);
    assert!(knowledge.shannon_entropy() > 6.0);
}

#[test]
fn lio_staged_downgrade_keeps_the_context_public() {
    let layout = UserLoc::layout();
    let mut synth = Synthesizer::new();
    let mut session: AnosySession<PowersetDomain> =
        AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
    let q = QueryDef::new("nearby_200_200", layout.clone(), nearby(200, 200)).unwrap();
    session.register_synthesized(&mut synth, &q, ApproxKind::Under, Some(3)).unwrap();

    let mut lio = Lio::new(SecLevel::Public, SecLevel::Secret);
    let secret = lio.label(SecLevel::Secret, UserLoc { x: 180, y: 240 }.to_point()).unwrap();
    let answer = session.downgrade_labeled(&mut lio, &secret, "nearby_200_200").unwrap();
    assert_eq!(*answer.label(), SecLevel::Public);
    assert!(*answer.peek_tcb());
    assert_eq!(lio.current_label(), SecLevel::Public);
    // Ordinary (non-downgrade) access to the secret still taints the context as usual.
    let _ = lio.unlabel(&secret).unwrap();
    assert_eq!(lio.current_label(), SecLevel::Secret);
    assert!(lio.label(SecLevel::Public, 1).is_err());
}

#[test]
fn over_approximations_can_be_tracked_too() {
    // The paper notes AnosyT can also trace over-approximations (§3). Register the same query
    // with an over-approximation and check that the posterior contains the exact posterior.
    let layout = UserLoc::layout();
    let mut synth = Synthesizer::new();
    let mut verifier = Verifier::new();
    let q = QueryDef::new("nearby_200_200", layout.clone(), nearby(200, 200)).unwrap();
    let over = synth.synth_powerset(&q, ApproxKind::Over, 3).unwrap();
    assert!(verifier.verify_indsets(&q, &over).unwrap().is_verified());

    let prior = PowersetDomain::top(&layout);
    let (post_true, _) = over.posterior(&prior);
    let mut solver = Solver::new();
    let exact_true = solver.count_models(q.pred(), &layout.space()).unwrap();
    assert!(post_true.size() >= exact_true);
}

#[test]
fn benchmark_suite_runs_through_the_public_api() {
    // Smallest two benchmarks end-to-end: synthesize, verify, register, downgrade a plausible
    // secret under a permissive policy.
    use anosy::suite::benchmarks::{birthday, photo};
    let mut synth = Synthesizer::new();
    for (benchmark, secret) in
        [(birthday(), Point::new(vec![263, 1980])), (photo(), Point::new(vec![1, 2, 1984]))]
    {
        let layout = benchmark.query.layout().clone();
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout, PolicySpec::MinSize(1));
        session
            .register_synthesized(&mut synth, &benchmark.query, ApproxKind::Under, Some(3))
            .unwrap();
        let answer =
            session.downgrade(&Protected::new(secret.clone()), benchmark.query.name()).unwrap();
        assert!(answer, "{}: the chosen secret satisfies the query", benchmark.id);
        assert!(session.knowledge_of(&secret).size() >= 1);
    }
}

#[test]
fn policy_violations_report_both_posterior_sizes_and_leave_state_unchanged() {
    let layout = UserLoc::layout();
    let mut synth = Synthesizer::new();
    // A draconian policy that no posterior of this query can satisfy: the whole space has
    // 160 801 locations, and answering either way already rules out part of it.
    let mut session: AnosySession<PowersetDomain> =
        AnosySession::new(layout.clone(), PolicySpec::MinSize(200_000));
    let q = QueryDef::new("nearby_200_200", layout, nearby(200, 200)).unwrap();
    session.register_synthesized(&mut synth, &q, ApproxKind::Under, Some(3)).unwrap();

    let user = Protected::new(Point::new(vec![300, 200]));
    match session.downgrade(&user, "nearby_200_200") {
        Err(AnosyError::PolicyViolation {
            policy,
            posterior_true_size,
            posterior_false_size,
            ..
        }) => {
            assert!(policy.contains("200000"));
            assert!(posterior_true_size < 200_000);
            assert!(posterior_false_size < 200_000);
        }
        other => panic!("expected a policy violation, got {other:?}"),
    }
    // Nothing was recorded about the secret and unknown queries are still reported as such.
    assert_eq!(session.tracked_secrets(), 0);
    assert!(matches!(session.downgrade(&user, "missing"), Err(AnosyError::UnknownQuery { .. })));
}

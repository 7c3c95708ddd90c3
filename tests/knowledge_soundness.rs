//! Cross-crate soundness properties: synthesized approximations vs the exact ind. sets, and the
//! §3 correctness argument (tracked posteriors under-approximate the attacker's exact knowledge)
//! checked end-to-end on randomized query histories.

use anosy::prelude::*;
use proptest::prelude::*;

fn loc_layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 60).field("y", 0, 60).build()
}

fn nearby(x: i64, y: i64, r: i64) -> Pred {
    ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(r)
}

fn quick_synth() -> Synthesizer {
    Synthesizer::with_config(
        SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(2),
    )
}

/// Under-approximations never overcount and over-approximations never undercount, for both
/// domains, across a spread of query shapes.
#[test]
fn synthesized_sizes_bracket_the_exact_sizes() {
    let layout = loc_layout();
    let queries = vec![
        QueryDef::new("diamond", layout.clone(), nearby(30, 30, 15)).unwrap(),
        QueryDef::new("corner", layout.clone(), nearby(0, 60, 20)).unwrap(),
        QueryDef::new("band", layout.clone(), IntExpr::var(0).between(10, 14)).unwrap(),
        QueryDef::new("points", layout.clone(), IntExpr::var(1).one_of([3, 17, 55])).unwrap(),
        QueryDef::new(
            "relational",
            layout.clone(),
            (IntExpr::var(0) - IntExpr::var(1)).abs().le(5),
        )
        .unwrap(),
    ];
    let mut solver = Solver::with_config(SolverConfig::for_tests());
    let mut synth = quick_synth();
    for q in &queries {
        let space = q.layout().space();
        let exact_true = solver.count_models(q.pred(), &space).unwrap();
        let exact_false = space.count() - exact_true;

        let under = synth.synth_powerset(q, ApproxKind::Under, 3).unwrap();
        assert!(under.truthy().size() <= exact_true, "{}: under true too big", q.name());
        assert!(under.falsy().size() <= exact_false, "{}: under false too big", q.name());

        let over = synth.synth_interval(q, ApproxKind::Over).unwrap();
        assert!(over.truthy().size() >= exact_true, "{}: over true too small", q.name());
        assert!(over.falsy().size() >= exact_false, "{}: over false too small", q.name());

        // Powerset over-approximations refine the interval ones but never drop below exact.
        let over_p = synth.synth_powerset(q, ApproxKind::Over, 3).unwrap();
        assert!(over_p.truthy().size() >= exact_true);
        assert!(over_p.truthy().size() <= over.truthy().size());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized §3 soundness: for a random secret, a random approximation direction and a
    /// random sequence of proximity queries, a min-size policy refuses every over-approximate
    /// downgrade unevaluated, and after every authorized under-approximate downgrade the
    /// tracked knowledge is contained in the exact attacker knowledge, which — like the tracked
    /// knowledge — keeps more candidates than the policy's bound.
    #[test]
    fn tracked_knowledge_under_approximates_exact_knowledge(
        secret_x in 0i64..=60,
        secret_y in 0i64..=60,
        origins in proptest::collection::vec((0i64..=60, 0i64..=60, 10i64..=25), 1..5),
        kind in prop_oneof![Just(ApproxKind::Under), Just(ApproxKind::Over)],
    ) {
        let layout = loc_layout();
        let mut synth = quick_synth();
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout.clone(), PolicySpec::MinSize(20));
        let mut queries = Vec::new();
        for (i, (x, y, r)) in origins.iter().enumerate() {
            let q = QueryDef::new(format!("q{i}"), layout.clone(), nearby(*x, *y, *r)).unwrap();
            session.register_synthesized(&mut synth, &q, kind, Some(2)).unwrap();
            queries.push(q);
        }

        let secret_point = Point::new(vec![secret_x, secret_y]);
        let secret = Protected::new(secret_point.clone());
        let mut solver = Solver::with_config(SolverConfig::for_tests());
        let mut exact_knowledge = Pred::True;
        for q in &queries {
            match session.downgrade(&secret, q.name()) {
                Ok(answer) => {
                    prop_assert_eq!(kind, ApproxKind::Under, "authorized {}", q.name());
                    let consistent =
                        if answer { q.pred().clone() } else { q.pred().clone().negate() };
                    exact_knowledge = exact_knowledge.and_also(consistent);
                    let tracked = session.knowledge_of(&secret_point);
                    // P_i ⊆ K_i (§3's correctness argument).
                    let obligation = tracked.domain().to_pred().implies(exact_knowledge.clone());
                    prop_assert!(
                        solver.is_valid(&obligation, &layout.space()).unwrap(),
                        "tracked knowledge exceeded the exact knowledge after {}", q.name()
                    );
                    // The policy holds on the tracked and on the exact knowledge after every
                    // authorized query.
                    prop_assert!(tracked.size() > 20);
                    let exact = solver.count_models(&exact_knowledge, &layout.space()).unwrap();
                    prop_assert!(exact > 20, "exact posterior {} after {}", exact, q.name());
                }
                Err(AnosyError::UnsoundApproximation { kind: refused }) => {
                    prop_assert_eq!((kind, refused), (ApproxKind::Over, ApproxKind::Over));
                }
                Err(AnosyError::PolicyViolation { .. }) => break,
                Err(other) => return Err(TestCaseError::fail(other.to_string())),
            }
        }
        if kind == ApproxKind::Over {
            // Refused unevaluated: no knowledge tracked, no decision counted.
            prop_assert_eq!(session.tracked_secrets(), 0);
            prop_assert_eq!(session.stats().downgrades_authorized, 0);
            prop_assert_eq!(session.stats().downgrades_refused, 0);
        }
    }

    /// The advertising harness never authorizes a query whose posterior violates the policy,
    /// regardless of the random seed.
    #[test]
    fn advertising_runs_respect_the_policy(seed in 0u64..=u64::MAX) {
        use anosy::suite::AdvertisingConfig;
        let mut config = AdvertisingConfig::quick();
        config.seed = seed;
        config.runs = 2;
        config.num_queries = 5;
        config.powerset_sizes = vec![2];
        config.synth = SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(1);
        let outcomes = anosy::suite::run_advertising(&config).unwrap();
        prop_assert_eq!(outcomes.len(), 1);
        for n in &outcomes[0].authorized_per_run {
            prop_assert!(*n <= config.num_queries);
        }
    }
}

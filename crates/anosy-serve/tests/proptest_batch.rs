//! Property: batched downgrades agree element-wise with the sequential per-call loop — results,
//! session counters and tracked knowledge — for arbitrary batches (duplicates and out-of-layout
//! secrets included) and arbitrary policy thresholds.

use anosy_core::{AnosySession, MinSizePolicy, QInfo};
use anosy_domains::IntervalDomain;
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_serve::{Deployment, ServeConfig};
use anosy_solver::SolverConfig;
use anosy_synth::{ApproxKind, QueryDef, SynthConfig, Synthesizer};
use proptest::prelude::*;
use std::sync::OnceLock;

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

fn queries() -> &'static Vec<QInfo<IntervalDomain>> {
    static QUERIES: OnceLock<Vec<QInfo<IntervalDomain>>> = OnceLock::new();
    QUERIES.get_or_init(|| {
        // Synthesized once per process; every proptest case registers clones, so case count
        // does not multiply solver work.
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        [(200, 200), (300, 200), (150, 260)]
            .into_iter()
            .map(|(xo, yo)| {
                let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100);
                let query = QueryDef::new(format!("nearby_{xo}_{yo}"), layout(), pred).unwrap();
                let ind = synth.synth_interval(&query, ApproxKind::Under).unwrap();
                QInfo::new(query, ind)
            })
            .collect()
    })
}

/// The process-wide deployment whose batch driver every case exercises.
fn deployment() -> &'static Deployment<IntervalDomain> {
    static DEPLOYMENT: OnceLock<Deployment<IntervalDomain>> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| Deployment::new(layout(), ServeConfig::for_tests()))
}

fn session_with_queries(threshold: u128) -> AnosySession<IntervalDomain> {
    let mut session = AnosySession::new(layout(), MinSizePolicy::new(threshold));
    for q in queries() {
        session.register(q.clone());
    }
    session
}

/// Secrets drawn from a small palette (duplicates are likely) that straddles the layout
/// boundary (negative and > 400 coordinates occur).
fn arb_secret() -> impl Strategy<Value = Point> {
    (0i64..=10, 0i64..=10).prop_map(|(a, b)| Point::new(vec![a * 45 - 20, b * 44]))
}

fn arb_batch() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_secret(), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_agrees_elementwise_with_the_loop(
        secrets in arb_batch(),
        threshold in (0u64..=25_000).prop_map(u128::from),
        query_index in 0usize..3,
    ) {
        let name = queries()[query_index].query().name().to_string();
        let mut looped = session_with_queries(threshold);
        let loop_results: Vec<Result<bool, String>> = secrets
            .iter()
            .map(|p| looped.downgrade(&Protected::new(p.clone()), &name).map_err(|e| e.to_string()))
            .collect();

        let mut batched = session_with_queries(threshold);
        let batch_results: Vec<Result<bool, String>> =
            deployment().downgrade_batch(&mut batched, &secrets, &name)
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect();

        prop_assert_eq!(&batch_results, &loop_results);
        prop_assert_eq!(batched.stats(), looped.stats());
        prop_assert_eq!(batched.tracked_secrets(), looped.tracked_secrets());
        for p in &secrets {
            prop_assert_eq!(
                batched.knowledge_of(p).size(),
                looped.knowledge_of(p).size(),
                "knowledge diverges for {}", p
            );
        }
    }
}

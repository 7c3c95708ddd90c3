//! Property: batched downgrades agree element-wise with the sequential per-call loop — results,
//! session counters and tracked knowledge — for arbitrary batches (duplicates and out-of-layout
//! secrets included), arbitrary policy thresholds and pools of one worker (every batch decided
//! on the calling thread) or four (larger batches scattered).

use anosy_core::{AnosySession, MinSizePolicy, QInfo};
use anosy_domains::IntervalDomain;
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_serve::{downgrade_batch, downgrade_many, ShardPool};
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

/// The process-wide pool of the given size (1 or 4 workers, see [`arb_workers`]).
fn pool(workers: usize) -> &'static ShardPool {
    static POOLS: [OnceLock<ShardPool>; 2] = [OnceLock::new(), OnceLock::new()];
    POOLS[usize::from(workers > 1)].get_or_init(|| ShardPool::new(workers))
}

fn arb_workers() -> impl Strategy<Value = usize> {
    (0usize..2).prop_map(|i| [1, 4][i])
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
        workers in arb_workers(),
    ) {
        let name = queries()[query_index].query().name().to_string();
        let mut looped = session_with_queries(threshold);
        let loop_results: Vec<Result<bool, String>> = secrets
            .iter()
            .map(|p| looped.downgrade(&Protected::new(p.clone()), &name).map_err(|e| e.to_string()))
            .collect();

        let mut batched = session_with_queries(threshold);
        let batch_results: Vec<Result<bool, String>> =
            downgrade_batch(pool(workers), &mut batched, &secrets, &name)
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

    #[test]
    fn many_agrees_elementwise_with_the_loop(
        secret in arb_secret(),
        threshold in (0u64..=25_000).prop_map(u128::from),
        order in proptest::collection::vec(0usize..4, 0..8),
        workers in arb_workers(),
    ) {
        // Index 3 maps to an unregistered query name.
        let names: Vec<String> = order
            .iter()
            .map(|&i| match queries().get(i) {
                Some(q) => q.query().name().to_string(),
                None => "never_registered".to_string(),
            })
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

        let mut looped = session_with_queries(threshold);
        let loop_results: Vec<Result<bool, String>> = name_refs
            .iter()
            .map(|n| looped.downgrade(&Protected::new(secret.clone()), n).map_err(|e| e.to_string()))
            .collect();

        let mut many = session_with_queries(threshold);
        let many_results: Vec<Result<bool, String>> =
            downgrade_many(&mut many, &secret, &name_refs)
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect();

        // The same chain as one-secret batches: each is a single chunk, decided on the
        // calling thread whatever the pool size.
        let mut chained = session_with_queries(threshold);
        let chained_results: Vec<Result<bool, String>> = name_refs
            .iter()
            .flat_map(|n| {
                downgrade_batch(pool(workers), &mut chained, std::slice::from_ref(&secret), n)
            })
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();

        prop_assert_eq!(&many_results, &loop_results);
        prop_assert_eq!(&chained_results, &loop_results);
        prop_assert_eq!(many.stats(), looped.stats());
        prop_assert_eq!(chained.stats(), looped.stats());
        prop_assert_eq!(
            many.knowledge_of(&secret).size(),
            looped.knowledge_of(&secret).size()
        );
        prop_assert_eq!(
            chained.knowledge_of(&secret).size(),
            looped.knowledge_of(&secret).size()
        );
    }
}

//! Thread-stress tests for the shared deployment store.
//!
//! These run both in the default multi-threaded test harness and in the CI thread-stress lane
//! with `RUST_TEST_THREADS=1` (same code, different scheduler pressure). Every assertion is
//! about *determinism under concurrency*: exactly one synthesis per unique query no matter how
//! many sessions race, and downgrade answers identical to the single-threaded path.

use anosy_core::{AnosySession, PolicySpec};
use anosy_domains::{AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_serve::{Deployment, ServeConfig};
use anosy_synth::{ApproxKind, QueryDef, Synthesizer};
use std::thread;

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

fn nearby_query(xo: i64, yo: i64) -> QueryDef {
    let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100);
    QueryDef::new(format!("nearby_{xo}_{yo}"), layout(), pred).unwrap()
}

const ORIGINS: [(i64, i64); 3] = [(200, 200), (300, 200), (150, 260)];

/// Several probe secrets spread over the space, including region boundaries.
fn probes() -> Vec<Point> {
    vec![
        Point::new(vec![300, 200]),
        Point::new(vec![0, 0]),
        Point::new(vec![200, 300]),
        Point::new(vec![100, 200]),
        Point::new(vec![250, 250]),
    ]
}

/// The single-threaded reference: a self-contained session over the same queries, driven
/// sequentially.
fn sequential_answers<D>() -> Vec<Vec<Result<bool, String>>>
where
    D: AbstractDomain + anosy_core::SynthesizeInto,
{
    let mut session: AnosySession<D> = AnosySession::new(layout(), PolicySpec::MinSize(100));
    let mut synth = Synthesizer::with_config(ServeConfig::for_tests().synth.clone());
    for (xo, yo) in ORIGINS {
        session
            .register_synthesized(&mut synth, &nearby_query(xo, yo), ApproxKind::Under, None)
            .unwrap();
    }
    probes()
        .into_iter()
        .map(|p| {
            let secret = Protected::new(p);
            ORIGINS
                .iter()
                .map(|(xo, yo)| {
                    session
                        .downgrade(&secret, &format!("nearby_{xo}_{yo}"))
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}

#[test]
fn racing_identical_registrations_synthesize_once() {
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(layout(), ServeConfig::for_tests());
    const THREADS: usize = 16;
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let deployment = &deployment;
            scope.spawn(move || {
                let mut session = deployment.session(PolicySpec::MinSize(100));
                let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
                session
                    .register_synthesized(
                        &mut synth,
                        &nearby_query(200, 200),
                        ApproxKind::Under,
                        None,
                    )
                    .unwrap();
                let hits = session.stats().synth_cache_hits;
                let misses = session.stats().synth_cache_misses;
                assert_eq!(hits + misses, 1);
            });
        }
    });
    let stats = deployment.stats();
    assert_eq!(stats.cache.sessions_opened, THREADS as u64);
    assert_eq!(stats.cache.synth_misses, 1, "exactly one synthesis per unique query");
    assert_eq!(stats.cache.synth_hits, THREADS as u64 - 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn racing_distinct_registrations_synthesize_once_each() {
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(layout(), ServeConfig::for_tests());
    // 12 threads, 3 distinct queries, each query registered by 4 threads — plus a second
    // registration per thread to exercise the pure-hit path.
    thread::scope(|scope| {
        for t in 0..12 {
            let deployment = &deployment;
            scope.spawn(move || {
                let (xo, yo) = ORIGINS[t % ORIGINS.len()];
                let mut session = deployment.session(PolicySpec::MinSize(100));
                let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
                for _ in 0..2 {
                    session
                        .register_synthesized(
                            &mut synth,
                            &nearby_query(xo, yo),
                            ApproxKind::Under,
                            None,
                        )
                        .unwrap();
                }
            });
        }
    });
    let stats = deployment.stats();
    assert_eq!(stats.cache.synth_misses, ORIGINS.len() as u64, "one synthesis per unique query");
    assert_eq!(stats.cache.synth_hits + stats.cache.synth_misses, 24);
    assert_eq!(stats.entries, ORIGINS.len());
}

#[test]
fn concurrent_sessions_answer_exactly_like_the_sequential_path() {
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(layout(), ServeConfig::for_tests());
    let expected = sequential_answers::<IntervalDomain>();
    let probes = probes();
    thread::scope(|scope| {
        for (probe_index, point) in probes.iter().enumerate() {
            let deployment = &deployment;
            let expected = &expected;
            let point = point.clone();
            scope.spawn(move || {
                let mut session = deployment.session(PolicySpec::MinSize(100));
                let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
                for (xo, yo) in ORIGINS {
                    session
                        .register_synthesized(
                            &mut synth,
                            &nearby_query(xo, yo),
                            ApproxKind::Under,
                            None,
                        )
                        .unwrap();
                }
                let secret = Protected::new(point);
                for (query_index, (xo, yo)) in ORIGINS.iter().enumerate() {
                    let got = session
                        .downgrade(&secret, &format!("nearby_{xo}_{yo}"))
                        .map_err(|e| e.to_string());
                    assert_eq!(
                        got, expected[probe_index][query_index],
                        "probe {probe_index} query {query_index} diverged from sequential"
                    );
                }
            });
        }
    });
    // Whatever the interleaving, the aggregate counters balance.
    let stats = deployment.stats();
    assert_eq!(stats.cache.synth_misses, ORIGINS.len() as u64);
    let total_downgrades = stats.cache.downgrades_authorized + stats.cache.downgrades_refused;
    assert_eq!(total_downgrades, (probes.len() * ORIGINS.len()) as u64);
}

#[test]
fn powerset_deployments_share_synthesis_too() {
    let deployment: Deployment<PowersetDomain> =
        Deployment::new(layout(), ServeConfig::for_tests());
    thread::scope(|scope| {
        for _ in 0..6 {
            let deployment = &deployment;
            scope.spawn(move || {
                let mut session = deployment.session(PolicySpec::MinSize(100));
                let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
                session
                    .register_synthesized(
                        &mut synth,
                        &nearby_query(200, 200),
                        ApproxKind::Under,
                        Some(3),
                    )
                    .unwrap();
            });
        }
    });
    assert_eq!(deployment.stats().cache.synth_misses, 1);
}

#[test]
fn concurrent_batches_on_separate_sessions_match_the_loop() {
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(layout(), ServeConfig::for_tests());
    deployment.register_query(&nearby_query(200, 200), ApproxKind::Under, None).unwrap();
    let users: Vec<Point> = (0..200).map(|i| Point::new(vec![(i * 13) % 401, 200])).collect();

    // Reference: the sequential loop on a fresh session.
    let mut reference = deployment.session(PolicySpec::MinSize(100));
    let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
    reference
        .register_synthesized(&mut synth, &nearby_query(200, 200), ApproxKind::Under, None)
        .unwrap();
    let expected: Vec<Option<bool>> = users
        .iter()
        .map(|p| reference.downgrade(&Protected::new(p.clone()), "nearby_200_200").ok())
        .collect();

    thread::scope(|scope| {
        for _ in 0..4 {
            let deployment = &deployment;
            let users = &users;
            let expected = &expected;
            scope.spawn(move || {
                let mut session = deployment.session(PolicySpec::MinSize(100));
                let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
                session
                    .register_synthesized(
                        &mut synth,
                        &nearby_query(200, 200),
                        ApproxKind::Under,
                        None,
                    )
                    .unwrap();
                let got: Vec<Option<bool>> = deployment
                    .downgrade_batch(&mut session, users, "nearby_200_200")
                    .into_iter()
                    .map(Result::ok)
                    .collect();
                assert_eq!(&got, expected);
            });
        }
    });
}

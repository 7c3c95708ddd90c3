//! Property: the batch kernel ([`AnosySession::decide_batch`], reached through
//! [`Deployment::downgrade_batch`]) agrees element-wise with the per-secret
//! [`AnosySession::downgrade`] loop — results, session and cache counters, tracked knowledge —
//! in both domains, over histories of batches (duplicates and out-of-layout secrets included),
//! arbitrary policy thresholds and both approximation directions.

use anosy_core::{AnosySession, PolicySpec, QInfo};
use anosy_domains::{AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_serve::{Deployment, ServeConfig};
use anosy_solver::SolverConfig;
use anosy_synth::{ApproxKind, DomainCodec, IndSets, QueryDef, SynthConfig, Synthesizer};
use proptest::prelude::*;
use std::sync::OnceLock;

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

/// The diamonds of radius 100 around three origins, under-approximated, and the first one
/// over-approximated as well (which min-size refuses as unsound). Synthesized once per process
/// and domain; every proptest case registers clones, so the case count does not multiply
/// solver work.
fn queries<D>(
    synth: impl Fn(&mut Synthesizer, &QueryDef, ApproxKind) -> IndSets<D>,
) -> Vec<QInfo<D>>
where
    D: AbstractDomain,
{
    let mut synthesizer =
        Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
    [(200, 200, ApproxKind::Under), (300, 200, ApproxKind::Under), (150, 260, ApproxKind::Under)]
        .into_iter()
        .chain([(200, 200, ApproxKind::Over)])
        .map(|(xo, yo, kind)| {
            let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100);
            let query = QueryDef::new(format!("nearby_{xo}_{yo}_{kind}"), layout(), pred).unwrap();
            let ind = synth(&mut synthesizer, &query, kind);
            QInfo::new(query, ind)
        })
        .collect()
}

fn interval_queries() -> &'static [QInfo<IntervalDomain>] {
    static QUERIES: OnceLock<Vec<QInfo<IntervalDomain>>> = OnceLock::new();
    QUERIES.get_or_init(|| queries(|s, q, kind| s.synth_interval(q, kind).unwrap()))
}

fn powerset_queries() -> &'static [QInfo<PowersetDomain>] {
    static QUERIES: OnceLock<Vec<QInfo<PowersetDomain>>> = OnceLock::new();
    QUERIES.get_or_init(|| queries(|s, q, kind| s.synth_powerset(q, kind, 3).unwrap()))
}

/// The process-wide deployments whose `downgrade_batch` every case exercises.
fn interval_deployment() -> &'static Deployment<IntervalDomain> {
    static DEPLOYMENT: OnceLock<Deployment<IntervalDomain>> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| Deployment::new(layout(), ServeConfig::for_tests()))
}

fn powerset_deployment() -> &'static Deployment<PowersetDomain> {
    static DEPLOYMENT: OnceLock<Deployment<PowersetDomain>> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| Deployment::new(layout(), ServeConfig::for_tests()))
}

fn session_with<D: AbstractDomain>(queries: &[QInfo<D>], threshold: u128) -> AnosySession<D> {
    let mut session = AnosySession::new(layout(), PolicySpec::MinSize(threshold));
    for q in queries {
        session.register(q.clone());
    }
    session
}

/// Runs every batch through the kernel in one session and secret by secret through
/// `downgrade` in another, comparing them after each batch.
fn check<D: AbstractDomain + DomainCodec>(
    deployment: &Deployment<D>,
    queries: &[QInfo<D>],
    threshold: u128,
    batches: &[(usize, Vec<Point>)],
) -> Result<(), TestCaseError> {
    let mut batched = session_with(queries, threshold);
    let mut looped = session_with(queries, threshold);
    for (index, (query, secrets)) in batches.iter().enumerate() {
        let name = queries[*query].query().name();
        let loop_results: Vec<_> =
            secrets.iter().map(|p| looped.downgrade(&Protected::new(p.clone()), name)).collect();
        let batch_results = deployment.downgrade_batch(&mut batched, secrets, name);
        prop_assert_eq!(&batch_results, &loop_results, "batch {}", index);
        prop_assert_eq!(batched.stats(), looped.stats(), "batch {}", index);
        prop_assert_eq!(batched.shared_cache().stats(), looped.shared_cache().stats());
        prop_assert_eq!(batched.tracked_secrets(), looped.tracked_secrets());
        for p in secrets {
            prop_assert_eq!(
                batched.knowledge_of(p).domain().encode(),
                looped.knowledge_of(p).domain().encode(),
                "batch {}: knowledge diverges for {}",
                index,
                p
            );
        }
    }
    Ok(())
}

/// Secrets drawn from a small palette (duplicates are likely) that straddles the layout
/// boundary (negative and > 400 coordinates occur).
fn arb_secret() -> impl Strategy<Value = Point> {
    (0i64..=10, 0i64..=10).prop_map(|(a, b)| Point::new(vec![a * 45 - 20, b * 44]))
}

/// One to three batches, each against one of the four queries.
fn arb_batches() -> impl Strategy<Value = Vec<(usize, Vec<Point>)>> {
    proptest::collection::vec((0usize..4, proptest::collection::vec(arb_secret(), 0..40)), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_agrees_elementwise_with_the_loop(
        batches in arb_batches(),
        threshold in (0u64..=25_000).prop_map(u128::from),
    ) {
        check(interval_deployment(), interval_queries(), threshold, &batches)?;
        check(powerset_deployment(), powerset_queries(), threshold, &batches)?;
    }
}

//! Batched bounded downgrades: [`Deployment::downgrade_batch`].
//!
//! The batch goes, in input order, through the session's batch kernel
//! ([`AnosySession::decide_batch`]) on the calling thread — the kernel the serving frontend
//! answers a `batch` request with — and each refusal is spelled out as the error
//! [`AnosySession::downgrade_with`] builds. Results, tracked knowledge and counters are those
//! of the sequential [`AnosySession::downgrade`] loop, duplicate secrets included: the kernel
//! reads each secret's current state, so the i-th downgrade of a secret reads the posterior the
//! (i-1)-th committed (`tests/proptest_batch.rs` checks this in both domains).

use crate::Deployment;
use anosy_core::{AnosyError, AnosySession};
use anosy_domains::AbstractDomain;
use anosy_logic::Point;

impl<D: AbstractDomain> Deployment<D> {
    /// Downgrades every secret of the batch against the query `query_name` registered in
    /// `session`, in input order, through [`AnosySession::decide_batch`]. Returns one result
    /// per input secret; an unknown query answers every element [`AnosyError::UnknownQuery`]
    /// and moves no counter.
    pub fn downgrade_batch(
        &self,
        session: &mut AnosySession<D>,
        secrets: &[Point],
        query_name: &str,
    ) -> Vec<Result<bool, AnosyError>> {
        let Some(qinfo) = session.query_handle(query_name) else {
            let unknown = AnosyError::UnknownQuery { name: query_name.to_string() };
            return secrets.iter().map(|_| Err(unknown.clone())).collect();
        };
        let policy = session.policy_name();
        let mut results = Vec::with_capacity(secrets.len());
        session.decide_batch(&qinfo, secrets, |decided| {
            results.push(
                decided
                    .map(|output| output == 0)
                    .map_err(|refusal| refusal.into_error(qinfo.query().name(), || policy.clone())),
            );
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use crate::{Deployment, ServeConfig};
    use anosy_core::{AnosyError, AnosySession, FnPolicy, Policy, PolicySpec};
    use anosy_domains::IntervalDomain;
    use anosy_ifc::Protected;
    use anosy_logic::{IntExpr, Point, SecretLayout};
    use anosy_solver::SolverConfig;
    use anosy_synth::{ApproxKind, QueryDef, SynthConfig, Synthesizer};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn deployment() -> Deployment<IntervalDomain> {
        Deployment::new(layout(), ServeConfig::for_tests())
    }

    fn session_with(origins: &[(i64, i64)]) -> AnosySession<IntervalDomain> {
        session_under(PolicySpec::MinSize(100), origins)
    }

    fn session_under(
        policy: impl Policy<IntervalDomain> + Send + Sync + 'static,
        origins: &[(i64, i64)],
    ) -> AnosySession<IntervalDomain> {
        with_nearby(AnosySession::new(layout(), policy), origins)
    }

    /// `session` with the diamonds of radius 100 around `origins` registered.
    fn with_nearby(
        mut session: AnosySession<IntervalDomain>,
        origins: &[(i64, i64)],
    ) -> AnosySession<IntervalDomain> {
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        for &(xo, yo) in origins {
            let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100);
            let query = QueryDef::new(format!("nearby_{xo}_{yo}"), layout(), pred).unwrap();
            session.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        }
        session
    }

    fn secrets() -> Vec<Point> {
        let mut points = Vec::new();
        for x in (0..=400).step_by(57) {
            for y in (0..=400).step_by(73) {
                points.push(Point::new(vec![x, y]));
            }
        }
        // Duplicates and an out-of-layout point exercise the tricky paths.
        points.push(Point::new(vec![300, 200]));
        points.push(Point::new(vec![300, 200]));
        points.push(Point::new(vec![9000, 0]));
        points
    }

    #[test]
    fn batch_matches_the_sequential_loop_exactly() {
        let mut batched = session_with(&[(200, 200)]);
        let mut looped = session_with(&[(200, 200)]);
        let points = secrets();

        let batch_results = deployment().downgrade_batch(&mut batched, &points, "nearby_200_200");
        let loop_results: Vec<_> = points
            .iter()
            .map(|p| looped.downgrade(&Protected::new(p.clone()), "nearby_200_200"))
            .collect();

        assert_eq!(batch_results, loop_results);
        assert!(matches!(batch_results.last(), Some(Err(AnosyError::SecretOutsideLayout))));
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(batched.tracked_secrets(), looped.tracked_secrets());
        for p in &points {
            assert_eq!(
                batched.knowledge_of(p).size(),
                looped.knowledge_of(p).size(),
                "knowledge diverges for {p}"
            );
        }
    }

    #[test]
    fn policy_panics_resurface_with_their_original_payload() {
        let points: Vec<Point> = (0..64).map(|i| Point::new(vec![i, i])).collect();
        for batch in [&points[..1], &points[..]] {
            let policy = FnPolicy::new("explodes", |_| panic!("policy exploded"));
            let mut session = session_under(policy, &[(200, 200)]);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                deployment().downgrade_batch(&mut session, batch, "nearby_200_200")
            }))
            .expect_err("the policy panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"policy exploded"),
                "{} secrets",
                batch.len()
            );
        }

        // A policy that panics on its third call. (300, 200) decides ⊤'s step (two calls), the
        // two fresh secrets reuse that step, and the first secret's second occurrence asks
        // about the state it moved to: the batch unwinds there, three secrets in.
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let policy = FnPolicy::new("explodes-partway", move |_| {
            assert_ne!(seen.fetch_add(1, Ordering::Relaxed), 2, "policy exploded partway");
            true
        });
        let deployment = deployment();
        let mut session = with_nearby(deployment.session(policy), &[(200, 200)]);
        let batch: Vec<Point> = [(300, 200), (10, 10), (50, 50), (300, 200), (60, 60)]
            .into_iter()
            .map(|(x, y)| Point::new(vec![x, y]))
            .collect();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            deployment.downgrade_batch(&mut session, &batch, "nearby_200_200")
        }))
        .expect_err("the policy panic propagates");
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        // The committed prefix, decided by the per-secret loop under a policy that never panics.
        let mut prefix = session_under(PolicySpec::AllowAll, &[(200, 200)]);
        for secret in &batch[..3] {
            prefix.downgrade(&Protected::new(secret.clone()), "nearby_200_200").unwrap();
        }
        assert_eq!(session.stats(), prefix.stats());
        assert_eq!(session.stats().downgrades_authorized, 3);
        let cache = deployment.stats().cache;
        assert_eq!((cache.downgrades_authorized, cache.downgrades_refused), (3, 0));
        assert_eq!(session.tracked_secrets(), 3);
        for secret in &batch {
            assert_eq!(session.knowledge_of(secret), prefix.knowledge_of(secret), "{secret}");
        }
    }

    #[test]
    fn unknown_queries_error_per_element() {
        let mut session = session_with(&[(200, 200)]);
        let points = vec![Point::new(vec![1, 1]), Point::new(vec![9000, 0])];
        let results = deployment().downgrade_batch(&mut session, &points, "never_registered");
        assert_eq!(results.len(), 2);
        for r in results {
            assert!(matches!(r, Err(AnosyError::UnknownQuery { .. })));
        }
        let stats = session.stats();
        assert_eq!((stats.downgrades_authorized, stats.downgrades_refused), (0, 0));
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut session = session_with(&[(200, 200)]);
        assert!(deployment().downgrade_batch(&mut session, &[], "nearby_200_200").is_empty());
        assert_eq!(session.stats().downgrades_authorized, 0);
    }
}

//! Batched bounded downgrades: [`Deployment::downgrade_batch`].
//!
//! Each secret goes, in input order, through the session's own policy-checked step
//! ([`AnosySession::downgrade_with`]) on the calling thread, so results, tracked knowledge and
//! counters are those of the sequential [`AnosySession::downgrade`] loop by construction —
//! duplicate secrets included, since the i-th downgrade of a secret reads the posterior the
//! (i-1)-th committed.

use crate::Deployment;
use anosy_core::{AnosyError, AnosySession};
use anosy_domains::AbstractDomain;
use anosy_logic::Point;

impl<D: AbstractDomain> Deployment<D> {
    /// Downgrades every secret of the batch against the query `query_name` registered in
    /// `session`, in input order. Returns one result per input secret; an unknown query
    /// answers every element [`AnosyError::UnknownQuery`] and moves no counter.
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
        secrets.iter().map(|secret| session.downgrade_with(&qinfo, secret)).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Deployment, ServeConfig};
    use anosy_core::{AnosyError, AnosySession, FnPolicy, MinSizePolicy, Policy};
    use anosy_domains::IntervalDomain;
    use anosy_ifc::Protected;
    use anosy_logic::{IntExpr, Point, SecretLayout};
    use anosy_solver::SolverConfig;
    use anosy_synth::{ApproxKind, QueryDef, SynthConfig, Synthesizer};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn deployment() -> Deployment<IntervalDomain> {
        Deployment::new(layout(), ServeConfig::for_tests())
    }

    fn session_with(origins: &[(i64, i64)]) -> AnosySession<IntervalDomain> {
        session_under(MinSizePolicy::new(100), origins)
    }

    fn session_under(
        policy: impl Policy<IntervalDomain> + Send + Sync + 'static,
        origins: &[(i64, i64)],
    ) -> AnosySession<IntervalDomain> {
        let mut session = AnosySession::new(layout(), policy);
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

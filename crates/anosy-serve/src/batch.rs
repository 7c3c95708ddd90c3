//! Batched bounded downgrades.
//!
//! The serving-path hot loop is `downgrade`: a knowledge lookup, two abstract-domain meets, two
//! policy checks, one query execution. For a batch of secrets against one query those per-secret
//! chains are completely independent, so [`downgrade_batch`] runs the *decision* phase (the pure
//! [`downgrade_step`] chains) on the deployment's worker pool and then *commits* the outcomes
//! sequentially. The result vector, the tracked knowledge and the session counters are
//! element-for-element identical to calling [`AnosySession::downgrade`] in a loop (including
//! duplicate secrets in one batch: occurrences of the same secret are chained in order on one
//! worker, because the i-th downgrade of a secret refines the posterior of the (i-1)-th).
//!
//! The decision phase is split into contiguous chunks of distinct secrets. **One chunk runs on
//! the calling thread**: with nothing to spread across workers, a pool round trip is pure
//! barrier cost. A one-worker pool always gets one chunk (oversplitting only rebalances across
//! workers), and so does a batch with a single distinct secret, whatever the pool size. Either
//! way the same job decides the chain, so answers do not depend on where it ran, and a panic in
//! policy code surfaces to the caller with its original payload on both paths.
//!
//! [`downgrade_many`] — one secret against a query set — is the transposed API. Its chain is
//! inherently sequential (each query refines the prior the next one sees), so it costs one
//! worker; it exists so callers can express both batch shapes uniformly and so the sequential
//! dependency is documented in exactly one place.

use crate::ShardPool;
use anosy_core::{downgrade_step, AnosyError, AnosySession, Knowledge, Policy, QInfo};
use anosy_domains::AbstractDomain;
use anosy_logic::Point;
use anosy_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// Oversplit factor for the decision phase on a multi-worker pool: more chunks than workers
/// lets a worker that drew cheap secrets pull further chunks while a skewed run (hot duplicate
/// chains, large priors) is still deciding elsewhere — same rationale as the parallel solver
/// driver's oversplit.
const BATCH_CHUNKS_PER_WORKER: usize = 4;

/// The decided-but-uncommitted outcome of one secret's occurrences within a batch.
struct SecretOutcome<D: AbstractDomain> {
    point: Point,
    /// Result per occurrence, in occurrence order.
    results: Vec<Result<bool, AnosyError>>,
    /// The final posterior, if any occurrence was authorized.
    posterior: Option<Knowledge<D>>,
    authorized: u64,
    refused: u64,
}

/// Decides the whole chain of one in-layout secret's occurrences against one query, starting
/// from the session's tracked prior — the pure phase, safe to run on any thread.
fn decide_chain<D: AbstractDomain>(
    policy: &dyn Policy<D>,
    qinfo: &QInfo<D>,
    point: Point,
    mut prior: Knowledge<D>,
    occurrences: usize,
) -> SecretOutcome<D> {
    let mut outcome = SecretOutcome {
        point,
        results: Vec::with_capacity(occurrences),
        posterior: None,
        authorized: 0,
        refused: 0,
    };
    for _ in 0..occurrences {
        match downgrade_step(policy, qinfo, &prior, &outcome.point) {
            Ok((response, posterior)) => {
                prior = posterior;
                outcome.authorized += 1;
                outcome.results.push(Ok(response));
            }
            Err(e) => {
                outcome.refused += 1;
                outcome.results.push(Err(e));
            }
        }
    }
    if outcome.authorized > 0 {
        // Refusals never touch the prior, so after any authorized occurrence `prior` *is* the
        // knowledge the sequential loop would have committed last.
        outcome.posterior = Some(prior);
    }
    outcome
}

/// Downgrades every secret of the batch against one registered query, sharding the decision
/// phase across the pool. Returns one result per input secret, in input order; see the
/// module docs above for the sequential-equivalence guarantee.
pub fn downgrade_batch<D: AbstractDomain + Send + Sync + 'static>(
    pool: &ShardPool,
    session: &mut AnosySession<D>,
    secrets: &[Point],
    query_name: &str,
) -> Vec<Result<bool, AnosyError>> {
    let qinfo = session.query_handle(query_name);
    let mut groups = [FusedGroup { session, secrets, query: query_name, qinfo }];
    downgrade_batch_fused(pool, &mut groups).pop().expect("one group in, one result vector out")
}

/// One session's slice of a fused cross-session decision phase: the session to commit into,
/// the secrets it queued (in arrival order) and the query they all target, already resolved by
/// the caller — from the session itself in [`downgrade_batch`], from the frontend's registry
/// on the serving path. Groups in one [`downgrade_batch_fused`] call may belong to different
/// sessions and target different queries: every chain is decided against its own group's
/// query and session prior.
pub struct FusedGroup<'s, D: AbstractDomain> {
    /// The session whose knowledge and counters this group's outcomes commit into.
    pub session: &'s mut AnosySession<D>,
    /// The batched secrets, in the order the caller queued them.
    pub secrets: &'s [Point],
    /// The query name every secret in this group targets (reported when `qinfo` is `None`).
    pub query: &'s str,
    /// The resolved query; `None` answers every secret of the group `UnknownQuery`.
    pub qinfo: Option<Arc<QInfo<D>>>,
}

/// Per-group decision context resolved before the decision phase; `None` when the group's query
/// is unknown (those groups answer per element without any decision work).
type GroupCtx<D> = Option<(Arc<QInfo<D>>, Arc<dyn Policy<D> + Send + Sync>)>;

/// Downgrades several sessions' batches in **one** decision phase. Each group is decided and
/// committed exactly as a standalone [`downgrade_batch`] call would — sessions are independent,
/// per-(session, distinct-secret) chains never cross groups, and commits land in deterministic
/// (group, distinct-secret) order — so the returned result vectors are element-for-element
/// identical to calling [`downgrade_batch`] once per group, in order. Fusing buys one
/// scatter/gather over the whole run instead of one per session, which is where the frontend's
/// cross-session regrouping recovers the protocol tax. A run that chunks into a single job —
/// one distinct secret, or any run on a one-worker pool — is decided on the calling thread,
/// skipping the pool's barrier.
pub fn downgrade_batch_fused<D: AbstractDomain + Send + Sync + 'static>(
    pool: &ShardPool,
    groups: &mut [FusedGroup<'_, D>],
) -> Vec<Vec<Result<bool, AnosyError>>> {
    let mut results: Vec<Vec<Option<Result<bool, AnosyError>>>> =
        groups.iter().map(|g| vec![None; g.secrets.len()]).collect();
    let decide_span = telemetry::span("batch.decide");
    let mut contexts: Vec<GroupCtx<D>> = Vec::with_capacity(groups.len());
    // occurrences[g][slot] = input indices of group g's slot-th distinct secret.
    let mut occurrences: Vec<Vec<Vec<usize>>> = Vec::with_capacity(groups.len());
    // Work items carry owned data (the pool requires 'static jobs): group index, occurrence
    // slot, the unique point, its tracked prior and its occurrence count.
    let mut work: Vec<(usize, usize, Point, Knowledge<D>, usize)> = Vec::new();

    for (g, group) in groups.iter().enumerate() {
        let secrets: &[Point] = group.secrets;
        let Some(qinfo) = group.qinfo.clone() else {
            for slot in &mut results[g] {
                *slot = Some(Err(AnosyError::UnknownQuery { name: group.query.to_string() }));
            }
            contexts.push(None);
            occurrences.push(Vec::new());
            continue;
        };
        let policy = group.session.policy_handle();
        let layout = group.session.layout();

        // Group occurrences per distinct secret, preserving first-seen order. Only the first
        // occurrence of a point is cloned; duplicates cost one hash lookup and an index push.
        let mut unique: HashMap<&Point, usize> = HashMap::with_capacity(secrets.len());
        let mut slots: Vec<Vec<usize>> = Vec::new();
        for (index, point) in secrets.iter().enumerate() {
            match unique.get(point) {
                Some(&slot) => slots[slot].push(index),
                None => {
                    unique.insert(point, slots.len());
                    slots.push(vec![index]);
                }
            }
        }
        for (slot, indices) in slots.iter().enumerate() {
            let point = &secrets[indices[0]];
            if !layout.admits(point) {
                // Not a policy refusal: no counter moves and nothing commits, matching the
                // sequential path.
                for &index in indices {
                    results[g][index] = Some(Err(AnosyError::SecretOutsideLayout));
                }
                continue;
            }
            let prior = group.session.knowledge_of(point);
            work.push((g, slot, point.clone(), prior, indices.len()));
        }
        contexts.push(Some((qinfo, policy)));
        occurrences.push(slots);
    }

    // One shared context table instead of two Arc clones per chunk per group.
    let contexts = Arc::new(contexts);
    // Decision phase: contiguous runs of distinct secrets across *all* groups, oversplit on a
    // multi-worker pool so workers can rebalance around skewed chains.
    let parts = match pool.workers() {
        1 => 1,
        workers => workers * BATCH_CHUNKS_PER_WORKER,
    };
    let jobs: Vec<_> = ShardPool::chunk(work, parts)
        .into_iter()
        .map(|chunk| {
            let contexts = Arc::clone(&contexts);
            move || -> Vec<(usize, usize, SecretOutcome<D>)> {
                chunk
                    .into_iter()
                    .map(|(g, slot, point, prior, count)| {
                        let (qinfo, policy) = contexts[g]
                            .as_ref()
                            .expect("work items only exist for resolvable groups");
                        (g, slot, decide_chain(policy.as_ref(), qinfo, point, prior, count))
                    })
                    .collect()
            }
        })
        .collect();
    let decided: Vec<Vec<(usize, usize, SecretOutcome<D>)>> = if jobs.len() > 1 {
        pool.scatter(jobs)
            .into_iter()
            .map(|job_results| {
                // A panic in user policy code surfaces here with its original payload, exactly
                // as the sequential loop would have surfaced it.
                job_results.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    } else {
        // Nothing to parallelise: decide on the calling thread, where a policy panic unwinds
        // with its original payload by itself.
        jobs.into_iter().map(|job| job()).collect()
    };
    drop(decide_span);

    // Commit phase: sequential, in deterministic (group, distinct-secret) order.
    let _commit_span = telemetry::span("batch.commit");
    for (g, slot, outcome) in decided.into_iter().flatten() {
        let indices = &occurrences[g][slot];
        debug_assert_eq!(indices.len(), outcome.results.len());
        for (&index, result) in indices.iter().zip(outcome.results) {
            results[g][index] = Some(result);
        }
        groups[g].session.commit_batch_outcome_tcb(
            outcome.point,
            outcome.posterior,
            outcome.authorized,
            outcome.refused,
        );
    }

    results
        .into_iter()
        .map(|rs| rs.into_iter().map(|r| r.expect("every input index was decided")).collect())
        .collect()
}

/// Downgrades one secret against a sequence of registered queries, in order. Equivalent to the
/// corresponding loop of [`AnosySession::downgrade`] calls — the chain is sequential by nature
/// (each authorized answer refines the prior the next query is judged against), so this runs on
/// the calling thread; batch-level parallelism comes from [`downgrade_batch`].
pub fn downgrade_many<D: AbstractDomain>(
    session: &mut AnosySession<D>,
    secret: &Point,
    query_names: &[&str],
) -> Vec<Result<bool, AnosyError>> {
    let policy = session.policy_handle();
    // The secret never changes along the chain, so whether the layout admits it is decided
    // once; it is still reported only for known queries (an unknown query is refused first).
    let admitted = session.layout().admits(secret);
    let mut prior = session.knowledge_of(secret);
    let mut results = Vec::with_capacity(query_names.len());
    let (mut authorized, mut refused) = (0u64, 0u64);
    for name in query_names {
        let Some(qinfo) = session.query_info(name) else {
            results.push(Err(AnosyError::UnknownQuery { name: name.to_string() }));
            continue;
        };
        if !admitted {
            results.push(Err(AnosyError::SecretOutsideLayout));
            continue;
        }
        match downgrade_step(policy.as_ref(), qinfo, &prior, secret) {
            Ok((response, post)) => {
                prior = post;
                authorized += 1;
                results.push(Ok(response));
            }
            Err(e) => {
                refused += 1;
                results.push(Err(e));
            }
        }
    }
    // As in `decide_chain`: refusals never touch the prior, so after any authorized step
    // `prior` is exactly the knowledge the sequential loop committed last.
    let posterior = (authorized > 0).then_some(prior);
    session.commit_batch_outcome_tcb(secret.clone(), posterior, authorized, refused);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_core::{FnPolicy, MinSizePolicy};
    use anosy_domains::IntervalDomain;
    use anosy_ifc::Protected;
    use anosy_logic::{IntExpr, SecretLayout};
    use anosy_solver::SolverConfig;
    use anosy_synth::{ApproxKind, QueryDef, SynthConfig, Synthesizer};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
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

    /// A fused group resolving `query` in the session itself, as [`downgrade_batch`] does.
    fn group<'s>(
        session: &'s mut AnosySession<IntervalDomain>,
        secrets: &'s [Point],
        query: &'s str,
    ) -> FusedGroup<'s, IntervalDomain> {
        let qinfo = session.query_handle(query);
        FusedGroup { session, secrets, query, qinfo }
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

    fn assert_same(batch: &[Result<bool, AnosyError>], sequential: &[Result<bool, AnosyError>]) {
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(sequential).enumerate() {
            assert_eq!(b, s, "result {i} diverges");
        }
    }

    /// Pool sizes the equivalence tests run on: one worker decides every batch on the calling
    /// thread, four workers scatter the larger batches.
    const POOL_SIZES: [usize; 2] = [1, 4];

    #[test]
    fn batch_matches_the_sequential_loop_exactly() {
        for workers in POOL_SIZES {
            batch_matches_the_sequential_loop_on(&ShardPool::new(workers));
        }
    }

    fn batch_matches_the_sequential_loop_on(pool: &ShardPool) {
        let mut batched = session_with(&[(200, 200)]);
        let mut looped = session_with(&[(200, 200)]);
        let points = secrets();

        let batch_results = downgrade_batch(pool, &mut batched, &points, "nearby_200_200");
        let loop_results: Vec<_> = points
            .iter()
            .map(|p| looped.downgrade(&Protected::new(p.clone()), "nearby_200_200"))
            .collect();

        assert_same(&batch_results, &loop_results);
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(batched.tracked_secrets(), looped.tracked_secrets());
        for p in &points {
            assert_eq!(
                batched.knowledge_of(p).size(),
                looped.knowledge_of(p).size(),
                "knowledge diverges for {p} on {pool:?}"
            );
        }
    }

    #[test]
    fn fused_groups_match_per_session_batches_exactly() {
        for workers in POOL_SIZES {
            fused_groups_match_per_session_batches_on(&ShardPool::new(workers));
        }
    }

    fn fused_groups_match_per_session_batches_on(pool: &ShardPool) {
        let mut fused_a = session_with(&[(200, 200)]);
        let mut fused_b = session_with(&[(200, 200), (300, 200)]);
        let mut solo_a = session_with(&[(200, 200)]);
        let mut solo_b = session_with(&[(200, 200), (300, 200)]);
        let points_a = secrets();
        let mut points_b = secrets();
        points_b.reverse();

        let fused = {
            let mut groups = [
                group(&mut fused_a, &points_a, "nearby_200_200"),
                group(&mut fused_b, &points_b, "nearby_300_200"),
                group(&mut solo_a, &[], "nearby_200_200"),
            ];
            // The empty group aliases `solo_a` deliberately: zero secrets must mean zero
            // commits, so the sequential replay below starts from an untouched session.
            downgrade_batch_fused(pool, &mut groups)
        };
        assert!(fused[2].is_empty());
        let solo = [
            downgrade_batch(pool, &mut solo_a, &points_a, "nearby_200_200"),
            downgrade_batch(pool, &mut solo_b, &points_b, "nearby_300_200"),
        ];
        for (f, s) in fused.iter().zip(&solo) {
            assert_same(f, s);
        }
        assert_eq!(fused_a.stats(), solo_a.stats());
        assert_eq!(fused_b.stats(), solo_b.stats());
        assert_eq!(fused_a.tracked_secrets(), solo_a.tracked_secrets());
        assert_eq!(fused_b.tracked_secrets(), solo_b.tracked_secrets());
        for p in &points_a {
            assert_eq!(fused_a.knowledge_of(p).size(), solo_a.knowledge_of(p).size());
            assert_eq!(fused_b.knowledge_of(p).size(), solo_b.knowledge_of(p).size());
        }
    }

    #[test]
    fn policy_panics_resurface_with_their_original_payload() {
        // One secret on a one-worker pool is decided on the calling thread; 64 distinct
        // secrets on four workers are scattered. The caller sees the policy's own panic on both.
        let points: Vec<Point> = (0..64).map(|i| Point::new(vec![i, i])).collect();
        for (workers, batch) in [(1, &points[..1]), (4, &points[..])] {
            let pool = ShardPool::new(workers);
            let policy = FnPolicy::new("explodes", |_| panic!("policy exploded"));
            let mut session = session_under(policy, &[(200, 200)]);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                downgrade_batch(&pool, &mut session, batch, "nearby_200_200")
            }))
            .expect_err("the policy panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"policy exploded"),
                "{workers} workers, {} secrets",
                batch.len()
            );
        }
    }

    #[test]
    fn fused_unknown_query_groups_answer_per_element() {
        let pool = ShardPool::new(2);
        let mut known = session_with(&[(200, 200)]);
        let mut unknown = session_with(&[(200, 200)]);
        let points = vec![Point::new(vec![200, 200]), Point::new(vec![1, 1])];
        let fused = {
            let mut groups = [
                group(&mut known, &points, "nearby_200_200"),
                group(&mut unknown, &points, "never_registered"),
            ];
            downgrade_batch_fused(&pool, &mut groups)
        };
        assert_eq!(fused[0].len(), 2);
        assert!(fused[0][0].is_ok());
        for r in &fused[1] {
            assert!(matches!(r, Err(AnosyError::UnknownQuery { .. })));
        }
        assert_eq!(unknown.stats().downgrades_authorized, 0);
    }

    #[test]
    fn unknown_queries_error_per_element() {
        let pool = ShardPool::new(2);
        let mut session = session_with(&[(200, 200)]);
        let points = vec![Point::new(vec![1, 1]), Point::new(vec![2, 2])];
        let results = downgrade_batch(&pool, &mut session, &points, "never_registered");
        assert_eq!(results.len(), 2);
        for r in results {
            assert!(matches!(r, Err(AnosyError::UnknownQuery { .. })));
        }
        assert_eq!(session.stats().downgrades_authorized, 0);
    }

    #[test]
    fn empty_batches_are_noops() {
        let pool = ShardPool::new(2);
        let mut session = session_with(&[(200, 200)]);
        assert!(downgrade_batch(&pool, &mut session, &[], "nearby_200_200").is_empty());
        assert_eq!(session.stats().downgrades_authorized, 0);
    }

    #[test]
    fn many_matches_the_sequential_loop_exactly() {
        let mut batched = session_with(&[(200, 200), (300, 200), (400, 200)]);
        let mut looped = session_with(&[(200, 200), (300, 200), (400, 200)]);
        let secret = Point::new(vec![300, 200]);
        let names = ["nearby_200_200", "no_such_query", "nearby_300_200", "nearby_400_200"];

        let many_results = downgrade_many(&mut batched, &secret, &names);
        let loop_results: Vec<_> =
            names.iter().map(|n| looped.downgrade(&Protected::new(secret.clone()), n)).collect();

        assert_same(&many_results, &loop_results);
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(batched.knowledge_of(&secret).size(), looped.knowledge_of(&secret).size());
    }

    #[test]
    fn many_refuses_unknown_queries_before_an_outside_secret() {
        let mut batched = session_with(&[(200, 200)]);
        let mut looped = session_with(&[(200, 200)]);
        let outside = Point::new(vec![9000, 0]);
        let names = ["nearby_200_200", "no_such_query", "nearby_200_200"];

        let many_results = downgrade_many(&mut batched, &outside, &names);
        let loop_results: Vec<_> =
            names.iter().map(|n| looped.downgrade(&Protected::new(outside.clone()), n)).collect();

        assert_same(&many_results, &loop_results);
        assert!(matches!(many_results[0], Err(AnosyError::SecretOutsideLayout)));
        assert!(matches!(many_results[1], Err(AnosyError::UnknownQuery { .. })));
        assert_eq!(batched.stats(), looped.stats());
    }
}

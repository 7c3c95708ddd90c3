//! The `AnosyT` analogue: a session tracking knowledge across bounded downgrades (Fig. 2).

use crate::shared::SharedSynthCache;
use crate::{AnosyError, KaryIndSets, KaryQuery, Knowledge, Policy, QInfo};
use anosy_domains::{AbstractDomain, IntervalDomain, PowersetDomain, Secret};
use anosy_ifc::{Label, Labeled, Lio, Protected, Unprotect};
use anosy_logic::{Point, SecretLayout, StoreStats};
use anosy_solver::SolverConfig;
use anosy_synth::{ApproxKind, IndSets, QueryDef, SynthError, Synthesizer};
use anosy_verify::Verifier;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Counters accumulated by an [`AnosySession`] across registrations and downgrades.
///
/// The synthesis-cache counters are the serving-path metric: under the
/// millions-of-users pattern (many sessions repeatedly registering and downgrading the same
/// query set) every hit means an entire synthesize-and-verify pipeline — solver searches
/// included — was skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// `register_synthesized` calls answered from the synthesis cache (no solver work at all).
    pub synth_cache_hits: u64,
    /// `register_synthesized` calls that ran the full synthesize-and-verify pipeline.
    pub synth_cache_misses: u64,
    /// Downgrades that were authorized and executed.
    pub downgrades_authorized: u64,
    /// Downgrades refused by the policy (before query execution, per §3).
    pub downgrades_refused: u64,
}

impl SessionStats {
    /// Fraction of `register_synthesized` calls served from the cache, in `[0, 1]`.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.synth_cache_hits + self.synth_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.synth_cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cache hits / {} misses, {} downgrades authorized, {} refused",
            self.synth_cache_hits,
            self.synth_cache_misses,
            self.downgrades_authorized,
            self.downgrades_refused
        )
    }
}

/// Types that can serve as the secret in a downgrade call by exposing their [`Point`] encoding.
pub trait AsSecretPoint {
    /// The point encoding of the secret in its declared layout.
    fn as_secret_point(&self) -> Point;
}

impl AsSecretPoint for Point {
    fn as_secret_point(&self) -> Point {
        self.clone()
    }
}

/// Abstract domains the synthesizer can target directly; lets a session registered over either
/// domain drive synthesis generically.
pub trait SynthesizeInto: AbstractDomain {
    /// Synthesizes the ind. sets of `query` in this domain. `members` is the powerset size `k`
    /// for powerset targets and is ignored by the interval domain.
    fn synthesize(
        synth: &mut Synthesizer,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<IndSets<Self>, SynthError>;
}

impl SynthesizeInto for IntervalDomain {
    fn synthesize(
        synth: &mut Synthesizer,
        query: &QueryDef,
        kind: ApproxKind,
        _members: Option<usize>,
    ) -> Result<IndSets<Self>, SynthError> {
        synth.synth_interval(query, kind)
    }
}

impl SynthesizeInto for PowersetDomain {
    fn synthesize(
        synth: &mut Synthesizer,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<IndSets<Self>, SynthError> {
        synth.synth_powerset(query, kind, members.unwrap_or(3))
    }
}

/// A declassification session: the state of the `AnosyT` monad transformer.
///
/// The session owns the quantitative [`Policy`], the map from secrets to their currently tracked
/// knowledge and the map from query names to their [`QInfo`]. Downgrades refine the knowledge and
/// are refused — *before the query is executed* — when either possible posterior would violate
/// the policy, so the refusal itself leaks nothing about the secret (§3).
///
/// The sessions of `anosy-serve`'s frontend register no queries of their own: the frontend's
/// registry resolves every downgrade and passes the query to
/// [`AnosySession::downgrade_with`], so such a session holds only its policy, its secrets'
/// knowledge and its counters.
pub struct AnosySession<D: AbstractDomain> {
    layout: SecretLayout,
    policy: Box<dyn Policy<D> + Send + Sync>,
    secrets: HashMap<Point, Knowledge<D>>,
    /// Shared so a downgrade resolves its query with a handle, never a deep copy.
    queries: BTreeMap<String, Arc<QInfo<D>>>,
    kary_queries: BTreeMap<String, (KaryQuery, KaryIndSets<D>)>,
    /// The term store and synthesis cache the session registers through: a deployment's, or
    /// a private one for a standalone session.
    shared: SharedSynthCache<D>,
    stats: SessionStats,
}

impl<D: AbstractDomain> AnosySession<D> {
    /// Creates a standalone session for secrets of the given layout, enforcing `policy`: a
    /// deployment of one, registering through its own private [`SharedSynthCache`].
    pub fn new(layout: SecretLayout, policy: impl Policy<D> + Send + Sync + 'static) -> Self {
        AnosySession::with_shared(layout, policy, SharedSynthCache::new())
    }

    /// Creates a session that shares a deployment-wide term store and synthesis cache (see
    /// [`SharedSynthCache`]): registrations of a query any session of the deployment has already
    /// synthesized are cache hits, and the deployment's aggregate counters fold in this
    /// session's outcomes.
    pub fn with_shared(
        layout: SecretLayout,
        policy: impl Policy<D> + Send + Sync + 'static,
        shared: SharedSynthCache<D>,
    ) -> Self {
        shared.note_session_opened();
        AnosySession {
            layout,
            policy: Box::new(policy),
            secrets: HashMap::new(),
            queries: BTreeMap::new(),
            kary_queries: BTreeMap::new(),
            shared,
            stats: SessionStats::default(),
        }
    }

    /// The declared secret space.
    pub fn layout(&self) -> &SecretLayout {
        &self.layout
    }

    /// Counters accumulated since construction (cache hits/misses, downgrade outcomes).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Hit/miss counters of the term store this session interns into.
    pub fn store_stats(&self) -> StoreStats {
        self.shared.store_stats()
    }

    /// The synthesis cache this session registers through (private to a standalone session).
    pub fn shared_cache(&self) -> &SharedSynthCache<D> {
        &self.shared
    }

    /// Number of distinct `(query, direction, members)` synthesis results in this session's
    /// cache (deployment-wide for a deployment's sessions).
    pub fn synth_cache_len(&self) -> usize {
        self.shared.len()
    }

    /// Name of the enforced policy (for reports and error messages).
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// The registered query with the given name, if any.
    pub fn query_info(&self, name: &str) -> Option<&QInfo<D>> {
        self.queries.get(name).map(Arc::as_ref)
    }

    /// A cloneable handle on the registered query with the given name, if any: one
    /// reference-count bump, not a copy of the query and its ind. sets.
    pub fn query_handle(&self, name: &str) -> Option<Arc<QInfo<D>>> {
        self.queries.get(name).map(Arc::clone)
    }

    /// Registers an already-synthesized (and, by contract, already-verified) query.
    pub fn register(&mut self, qinfo: QInfo<D>) {
        self.queries.insert(qinfo.query().name().to_string(), Arc::new(qinfo));
    }

    /// Registers a query **from the synthesis cache only** — no [`Synthesizer`] involved, no
    /// solver work possible. A library entry point for sessions of a pre-warmed deployment; the
    /// serving frontend does not call it, because its sessions hold no queries (the frontend's
    /// registry resolves every downgrade).
    ///
    /// # Errors
    ///
    /// Returns [`AnosyError::NotSynthesized`] when the `(query predicate, layout, kind,
    /// members)` key has no cached synthesis; nothing is registered in that case.
    pub fn register_cached(
        &mut self,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<(), AnosyError> {
        match self.shared.get_ready(query, kind, members) {
            Some(indsets) => {
                self.stats.synth_cache_hits += 1;
                self.register(QInfo::new(query.clone(), indsets));
                Ok(())
            }
            None => Err(AnosyError::NotSynthesized { name: query.name().to_string() }),
        }
    }

    /// Names of the registered boolean queries.
    pub fn registered_queries(&self) -> Vec<&str> {
        self.queries.keys().map(String::as_str).collect()
    }

    /// Number of secrets currently tracked.
    pub fn tracked_secrets(&self) -> usize {
        self.secrets.len()
    }

    /// The knowledge currently associated with a secret (the initial `⊤` knowledge if the secret
    /// has not been involved in any downgrade yet).
    pub fn knowledge_of(&self, secret: &Point) -> Knowledge<D> {
        self.secrets.get(secret).cloned().unwrap_or_else(|| Knowledge::initial(&self.layout))
    }

    /// Forgets all tracked knowledge (e.g. between experiment runs). Registered queries are kept.
    pub fn reset_knowledge(&mut self) {
        self.secrets.clear();
    }

    /// The bounded downgrade of Fig. 2.
    ///
    /// Looks up the query, computes the posterior knowledge for **both** possible answers from
    /// the tracked prior, checks the policy on both, and only then executes the query on the
    /// (unprotected) secret, records the matching posterior and returns the answer.
    ///
    /// # Errors
    ///
    /// * [`AnosyError::UnknownQuery`] if the query was never registered;
    /// * [`AnosyError::SecretOutsideLayout`] if the secret is not in the declared space;
    /// * [`AnosyError::PolicyViolation`] if either posterior violates the policy — the query is
    ///   **not** executed in that case.
    pub fn downgrade<P>(&mut self, secret: &P, query_name: &str) -> Result<bool, AnosyError>
    where
        P: Unprotect,
        P::Target: AsSecretPoint,
    {
        let qinfo = self
            .query_handle(query_name)
            .ok_or_else(|| AnosyError::UnknownQuery { name: query_name.to_string() })?;
        self.downgrade_with(&qinfo, &secret.unprotect_tcb().as_secret_point())
    }

    /// The bounded downgrade of Fig. 2 against a query the caller already resolved — the
    /// serving frontend resolves names in its own registry, not in the session. Checks the
    /// layout, reads the tracked prior, runs [`downgrade_step`] and, only when the policy
    /// authorized it, commits the posterior; either way the outcome is counted. This is the
    /// one place a session's knowledge changes after a boolean downgrade.
    ///
    /// # Errors
    ///
    /// As [`AnosySession::downgrade`], minus [`AnosyError::UnknownQuery`].
    pub fn downgrade_with(&mut self, qinfo: &QInfo<D>, point: &Point) -> Result<bool, AnosyError> {
        if !self.layout.admits(point) {
            return Err(AnosyError::SecretOutsideLayout);
        }
        let prior = self.knowledge_of(point);
        match downgrade_step(self.policy.as_ref(), qinfo, &prior, point) {
            Ok((response, posterior)) => {
                self.secrets.insert(point.clone(), posterior);
                self.note_downgrade_outcome(true);
                Ok(response)
            }
            Err(e) => {
                self.note_downgrade_outcome(false);
                Err(e)
            }
        }
    }

    /// Counts one downgrade outcome in the session stats and in the cache's aggregates.
    fn note_downgrade_outcome(&mut self, authorized: bool) {
        if authorized {
            self.stats.downgrades_authorized += 1;
        } else {
            self.stats.downgrades_refused += 1;
        }
        self.shared.note_downgrade(authorized);
    }

    /// Convenience wrapper for typed secrets defined with
    /// [`anosy_domains::secret_record!`](anosy_domains::secret_record).
    ///
    /// # Errors
    ///
    /// See [`AnosySession::downgrade`].
    pub fn downgrade_secret<S: Secret>(
        &mut self,
        secret: &Protected<S>,
        query_name: &str,
    ) -> Result<bool, AnosyError> {
        let point = secret.unprotect_tcb().to_point();
        self.downgrade(&Protected::new(point), query_name)
    }

    /// The bounded downgrade staged over an LIO context: the secret stays labeled, and the
    /// authorized boolean answer is returned as a *public* labeled value (this is the
    /// declassification step — it deliberately does not taint `lio`).
    ///
    /// # Errors
    ///
    /// See [`AnosySession::downgrade`]; additionally propagates [`AnosyError::Ifc`] if the public
    /// result cannot be created under the context's clearance.
    pub fn downgrade_labeled<L: Label>(
        &mut self,
        lio: &mut Lio<L>,
        secret: &Labeled<L, Point>,
        query_name: &str,
    ) -> Result<Labeled<L, bool>, AnosyError> {
        let response = self.downgrade(secret, query_name)?;
        // The answer has been authorized for release: label it public. This is the only place
        // where information crosses the lattice downward, and it is guarded by the policy check.
        let mut declassification_ctx = Lio::new(L::bottom(), lio.clearance());
        let labeled = declassification_ctx.label(L::bottom(), response)?;
        Ok(labeled)
    }

    /// Registers a k-ary query (§5.1 extension) with its synthesized per-output ind. sets.
    pub fn register_kary(&mut self, query: KaryQuery, indsets: KaryIndSets<D>) {
        self.kary_queries.insert(query.name().to_string(), (query, indsets));
    }

    /// Bounded downgrade of a k-ary query: the policy is checked on the posterior of **every**
    /// possible output before the query is executed.
    ///
    /// # Errors
    ///
    /// See [`AnosySession::downgrade`].
    pub fn downgrade_kary<P>(&mut self, secret: &P, query_name: &str) -> Result<usize, AnosyError>
    where
        P: Unprotect,
        P::Target: AsSecretPoint,
    {
        let (query, indsets) = self
            .kary_queries
            .get(query_name)
            .ok_or_else(|| AnosyError::UnknownQuery { name: query_name.to_string() })?;
        let point = secret.unprotect_tcb().as_secret_point();
        if !self.layout.admits(&point) {
            return Err(AnosyError::SecretOutsideLayout);
        }
        let prior = self.knowledge_of(&point);
        let posteriors: Vec<Knowledge<D>> =
            indsets.posterior(prior.domain()).into_iter().map(Knowledge::from_domain).collect();
        if let Some(violating) = posteriors.iter().find(|k| !self.policy.allows(k)) {
            let violation = AnosyError::PolicyViolation {
                query: query_name.to_string(),
                policy: self.policy.name(),
                posterior_true_size: violating.size(),
                posterior_false_size: violating.size(),
            };
            self.note_downgrade_outcome(false);
            return Err(violation);
        }
        let output = query.output(&point);
        self.secrets.insert(point, posteriors[output].clone());
        self.note_downgrade_outcome(true);
        Ok(output)
    }
}

/// Clean teardown: a session leaving scope — closed by a frontend, released when a serving
/// connection drops, or simply dropped — notes its closure in the deployment aggregates, so
/// `sessions_opened - sessions_closed` always reports the number of live sessions. A
/// standalone session reports to its private cache, which nobody else reads.
impl<D: AbstractDomain> Drop for AnosySession<D> {
    fn drop(&mut self) {
        self.shared.note_session_closed();
    }
}

/// One pure bounded-downgrade step (the decision half of Fig. 2, with no state change): computes
/// the posterior knowledge for **both** possible answers from `prior`, checks the policy on
/// both, and only if both pass executes the query on `point`, returning the answer together with
/// the matching posterior.
///
/// [`AnosySession::downgrade_with`] is this step plus the knowledge-map commit.
///
/// # Errors
///
/// Returns [`AnosyError::PolicyViolation`] when either posterior violates the policy — the query
/// is **not** executed in that case.
pub fn downgrade_step<D: AbstractDomain>(
    policy: &dyn Policy<D>,
    qinfo: &QInfo<D>,
    prior: &Knowledge<D>,
    point: &Point,
) -> Result<(bool, Knowledge<D>), AnosyError> {
    let (post_true, post_false) = qinfo.posterior(prior.domain());
    let knowledge_true = Knowledge::from_domain(post_true);
    let knowledge_false = Knowledge::from_domain(post_false);
    if !(policy.allows(&knowledge_true) && policy.allows(&knowledge_false)) {
        return Err(AnosyError::PolicyViolation {
            query: qinfo.query().name().to_string(),
            policy: policy.name(),
            posterior_true_size: knowledge_true.size(),
            posterior_false_size: knowledge_false.size(),
        });
    }
    let response = qinfo.ask(point);
    let posterior = if response { knowledge_true } else { knowledge_false };
    Ok((response, posterior))
}

impl<D: AbstractDomain + SynthesizeInto> AnosySession<D> {
    /// Synthesizes, verifies and registers a query in one step — the runtime analogue of the
    /// paper's compile-time plugin pass.
    ///
    /// Results are cached in the session's synthesis cache (private to a standalone session,
    /// shared across a deployment otherwise), keyed by the *interned* query predicate (plus
    /// layout, direction and member budget): re-registering a query whose synthesis is already
    /// cached — the repeated-downgrade serving pattern — skips synthesis, verification and every
    /// solver search, and only re-registers the stored [`QInfo`]. Hits and misses are counted in
    /// [`AnosySession::stats`].
    ///
    /// # Errors
    ///
    /// * [`AnosyError::Synthesis`] if synthesis fails;
    /// * [`AnosyError::VerificationFailed`] if the synthesized approximation does not satisfy its
    ///   refinement specification (this would indicate a synthesizer bug and is never silently
    ///   accepted);
    /// * [`AnosyError::Solver`] if verification itself cannot be completed.
    pub fn register_synthesized(
        &mut self,
        synth: &mut Synthesizer,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<(), AnosyError> {
        let (indsets, was_hit) = self.shared.get_or_synthesize(query, kind, members, || {
            synthesize_and_verify(synth, query, kind, members, SolverConfig::default())
        })?;
        if was_hit {
            self.stats.synth_cache_hits += 1;
        } else {
            self.stats.synth_cache_misses += 1;
        }
        self.register(QInfo::new(query.clone(), indsets));
        Ok(())
    }
}

/// The full synthesize-and-verify pipeline behind a synthesis-cache miss. Public so *every*
/// path that fills a synthesis cache — session registrations and `anosy-serve`'s
/// deployment-level pre-warm — runs byte-for-byte the same procedure;
/// `verifier_config` is the solver budget for the verification pass (sessions use
/// [`SolverConfig::default`]).
///
/// # Errors
///
/// See [`AnosySession::register_synthesized`].
pub fn synthesize_and_verify<D: AbstractDomain + SynthesizeInto>(
    synth: &mut Synthesizer,
    query: &QueryDef,
    kind: ApproxKind,
    members: Option<usize>,
    verifier_config: SolverConfig,
) -> Result<IndSets<D>, AnosyError> {
    let indsets = D::synthesize(synth, query, kind, members)?;
    let mut verifier = Verifier::with_config(verifier_config);
    let report = verifier.verify_indsets(query, &indsets)?;
    if !report.is_verified() {
        return Err(AnosyError::VerificationFailed {
            query: query.name().to_string(),
            report: report.to_string(),
        });
    }
    Ok(indsets)
}

impl<D: AbstractDomain> fmt::Debug for AnosySession<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnosySession")
            .field("layout", &self.layout)
            .field("policy", &self.policy.name())
            .field("queries", &self.queries.len())
            .field("kary_queries", &self.kary_queries.len())
            .field("tracked_secrets", &self.secrets.len())
            .field("synth_cache", &self.synth_cache_len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinSizePolicy;
    use anosy_domains::{secret_record, AInt};
    use anosy_ifc::SecLevel;
    use anosy_logic::{IntExpr, Pred};
    use anosy_synth::SynthConfig;

    fn loc_layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby(xo: i64, yo: i64) -> QueryDef {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100);
        QueryDef::new(format!("nearby_{xo}_{yo}"), loc_layout(), pred).unwrap()
    }

    /// A session pre-loaded with the paper's hand-written approximation for nearby (200,200) and
    /// synthesized ones for the other origins used in §2/§3.
    fn paper_session() -> AnosySession<IntervalDomain> {
        let mut session = AnosySession::new(loc_layout(), MinSizePolicy::new(100));
        session.register(QInfo::new(
            nearby(200, 200),
            IndSets::new(
                ApproxKind::Under,
                IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
                IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]),
            ),
        ));
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        for q in [nearby(300, 200), nearby(400, 200)] {
            session.register_synthesized(&mut synth, &q, ApproxKind::Under, None).unwrap();
        }
        session
    }

    #[test]
    fn the_papers_downgrade_walkthrough() {
        // §3: secret = (300, 200); nearby (200,200) and nearby (300,200) are authorized,
        // nearby (400,200) is refused with a policy violation.
        let mut session = paper_session();
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert!(session.downgrade(&secret, "nearby_200_200").unwrap());
        let after_first = session.knowledge_of(&Point::new(vec![300, 200]));
        assert_eq!(after_first.size(), 6837);
        assert!(session.downgrade(&secret, "nearby_300_200").unwrap());
        let after_second = session.knowledge_of(&Point::new(vec![300, 200]));
        assert!(after_second.size() <= after_first.size());
        assert!(after_second.size() > 100);
        let err = session.downgrade(&secret, "nearby_400_200").unwrap_err();
        match err {
            AnosyError::PolicyViolation { query, .. } => assert_eq!(query, "nearby_400_200"),
            other => panic!("expected a policy violation, got {other}"),
        }
        // The refused query did not refine the knowledge.
        assert_eq!(session.knowledge_of(&Point::new(vec![300, 200])).size(), after_second.size());
    }

    #[test]
    fn refusal_is_independent_of_the_secret_value() {
        // The policy check runs on both posteriors before the query executes, so from the same
        // knowledge state (here: the initial ⊤) two secrets that would answer differently get
        // exactly the same authorize/refuse decision.
        let inside = Protected::new(Point::new(vec![300, 200])); // answers true to all three
        let outside = Protected::new(Point::new(vec![10, 10])); // answers false to all three
        for name in ["nearby_200_200", "nearby_300_200", "nearby_400_200"] {
            let mut for_inside = paper_session();
            let mut for_outside = paper_session();
            let a = for_inside.downgrade(&inside, name).is_err();
            let b = for_outside.downgrade(&outside, name).is_err();
            assert_eq!(a, b, "refusal decision differed for {name}");
        }
    }

    #[test]
    fn unknown_queries_and_out_of_space_secrets_are_rejected() {
        let mut session = paper_session();
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert!(matches!(
            session.downgrade(&secret, "does_not_exist"),
            Err(AnosyError::UnknownQuery { .. })
        ));
        let alien = Protected::new(Point::new(vec![9_999, 0]));
        assert!(matches!(
            session.downgrade(&alien, "nearby_200_200"),
            Err(AnosyError::SecretOutsideLayout)
        ));
    }

    #[test]
    fn knowledge_is_tracked_per_secret() {
        let mut session = paper_session();
        let alice = Protected::new(Point::new(vec![300, 200]));
        let bob = Protected::new(Point::new(vec![50, 350]));
        session.downgrade(&alice, "nearby_200_200").unwrap();
        session.downgrade(&bob, "nearby_200_200").unwrap();
        assert_eq!(session.tracked_secrets(), 2);
        // Alice answered true (size 6837), Bob answered false (size 40100).
        assert_eq!(session.knowledge_of(&Point::new(vec![300, 200])).size(), 6837);
        assert_eq!(session.knowledge_of(&Point::new(vec![50, 350])).size(), 401 * 100);
        session.reset_knowledge();
        assert_eq!(session.tracked_secrets(), 0);
        assert_eq!(session.registered_queries().len(), 3);
    }

    #[test]
    fn downgrade_soundness_tracked_knowledge_under_approximates_the_exact_knowledge() {
        // The correctness argument of §3: after every authorized downgrade, the tracked posterior
        // P_i is a subset of the exact attacker knowledge K_i (the secrets consistent with every
        // observed answer). We check P_i ⊆ K_i with the solver: P_i ⇒ ⋀_j (query_j ⇔ answer_j).
        let mut session = paper_session();
        let secret_point = Point::new(vec![260, 170]);
        let secret = Protected::new(secret_point.clone());
        let mut solver = anosy_solver::Solver::with_config(SolverConfig::for_tests());
        let mut observed = Pred::True;
        for (name, origin) in [
            ("nearby_200_200", (200, 200)),
            ("nearby_300_200", (300, 200)),
            ("nearby_400_200", (400, 200)),
        ] {
            let Ok(answer) = session.downgrade(&secret, name) else { continue };
            let query_pred = nearby(origin.0, origin.1).pred().clone();
            let consistent = if answer { query_pred } else { query_pred.negate() };
            observed = observed.and_also(consistent);
            let tracked = session.knowledge_of(&secret_point);
            let obligation = tracked.domain().to_pred().implies(observed.clone());
            assert!(
                solver.is_valid(&obligation, &loc_layout().space()).unwrap(),
                "tracked knowledge is not an under-approximation after {name}"
            );
        }
    }

    secret_record! {
        struct UserLoc {
            x: 0..=400,
            y: 0..=400,
        }
    }

    #[test]
    fn typed_secrets_and_labeled_secrets_are_supported() {
        let mut session = paper_session();
        let typed = Protected::new(UserLoc { x: 300, y: 200 });
        assert!(session.downgrade_secret(&typed, "nearby_200_200").unwrap());

        let mut session = paper_session();
        let mut lio = Lio::new(SecLevel::Public, SecLevel::Secret);
        let labeled = lio.label(SecLevel::Secret, Point::new(vec![300, 200])).unwrap();
        let answer = session.downgrade_labeled(&mut lio, &labeled, "nearby_200_200").unwrap();
        // The declassified answer is public and the ambient context stays untainted.
        assert_eq!(*answer.label(), SecLevel::Public);
        assert!(*answer.peek_tcb());
        assert_eq!(lio.current_label(), SecLevel::Public);
    }

    #[test]
    fn powerset_sessions_allow_more_queries_than_interval_sessions() {
        // The Fig. 6 effect in miniature: with the same policy and query sequence, the powerset
        // domain authorizes at least as many downgrades as the interval domain.
        let origins = [(200, 200), (260, 220), (150, 260), (240, 160), (300, 200)];
        let secret = Protected::new(Point::new(vec![230, 210]));
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));

        let mut interval_session: AnosySession<IntervalDomain> =
            AnosySession::new(loc_layout(), MinSizePolicy::new(100));
        let mut powerset_session: AnosySession<PowersetDomain> =
            AnosySession::new(loc_layout(), MinSizePolicy::new(100));
        for (x, y) in origins {
            let q = nearby(x, y);
            interval_session.register_synthesized(&mut synth, &q, ApproxKind::Under, None).unwrap();
            powerset_session
                .register_synthesized(&mut synth, &q, ApproxKind::Under, Some(3))
                .unwrap();
        }
        let count = |session: &mut dyn FnMut(&str) -> bool| {
            let mut n = 0;
            for (x, y) in origins {
                if session(&format!("nearby_{x}_{y}")) {
                    n += 1;
                } else {
                    break;
                }
            }
            n
        };
        let interval_count = count(&mut |name| interval_session.downgrade(&secret, name).is_ok());
        let powerset_count = count(&mut |name| powerset_session.downgrade(&secret, name).is_ok());
        assert!(powerset_count >= interval_count);
        assert!(powerset_count >= 1);
    }

    #[test]
    fn repeated_registration_is_served_from_the_synthesis_cache() {
        // The millions-of-users serving pattern: the same query is registered (and then
        // downgraded) over and over. After the first synthesis, a repeat registration plus
        // downgrade must perform **zero** new solver work — asserted on the solver's node
        // counter, not just wall-clock.
        let mut session: AnosySession<IntervalDomain> =
            AnosySession::new(loc_layout(), MinSizePolicy::new(100));
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        let query = nearby(200, 200);
        session.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert_eq!(session.stats().synth_cache_hits, 0);
        assert_eq!(session.stats().synth_cache_misses, 1);
        let nodes_after_first = synth.solver_stats().nodes_explored;
        assert!(nodes_after_first > 0, "first synthesis must actually search");

        // Second registration of the same query: a cache hit, zero new solver nodes.
        session.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert_eq!(session.stats().synth_cache_hits, 1);
        assert_eq!(session.stats().synth_cache_misses, 1);
        assert_eq!(
            synth.solver_stats().nodes_explored,
            nodes_after_first,
            "cached registration must not touch the solver"
        );

        // The downgrade path itself also performs no solver work (posteriors are domain meets).
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert!(session.downgrade(&secret, "nearby_200_200").unwrap());
        assert_eq!(synth.solver_stats().nodes_explored, nodes_after_first);
        assert_eq!(session.stats().downgrades_authorized, 1);
        assert_eq!(session.synth_cache_len(), 1);
        assert!((session.stats().cache_hit_ratio() - 0.5).abs() < 1e-12);

        // A differently-*named* registration of the same predicate still hits: the cache key is
        // the interned predicate, not the name.
        let renamed =
            QueryDef::new("same_diamond_other_name", loc_layout(), query.pred().clone()).unwrap();
        session.register_synthesized(&mut synth, &renamed, ApproxKind::Under, None).unwrap();
        assert_eq!(session.stats().synth_cache_hits, 2);
        assert_eq!(synth.solver_stats().nodes_explored, nodes_after_first);

        // A different direction is a different cache entry.
        session.register_synthesized(&mut synth, &query, ApproxKind::Over, None).unwrap();
        assert_eq!(session.stats().synth_cache_misses, 2);
        assert_eq!(session.synth_cache_len(), 2);
        assert!(session.stats().to_string().contains("cache hits"));
    }

    #[test]
    fn register_cached_never_synthesizes() {
        use crate::SharedSynthCache;
        let query = nearby(200, 200);
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));

        // A standalone session: a cold cache refuses, a warm one registers without solver work.
        let mut owned: AnosySession<IntervalDomain> =
            AnosySession::new(loc_layout(), MinSizePolicy::new(100));
        assert!(matches!(
            owned.register_cached(&query, ApproxKind::Under, None),
            Err(AnosyError::NotSynthesized { .. })
        ));
        assert!(owned.registered_queries().is_empty());
        owned.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        let nodes = synth.solver_stats().nodes_explored;
        owned.register_cached(&query, ApproxKind::Under, None).unwrap();
        assert_eq!(synth.solver_stats().nodes_explored, nodes);
        assert_eq!(owned.stats().synth_cache_hits, 1);

        // A shared cache: a second session registers from the deployment-wide entry, and its
        // downgrades agree with a fully-synthesized session's.
        let shared: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        let mut first: AnosySession<IntervalDomain> =
            AnosySession::with_shared(loc_layout(), MinSizePolicy::new(100), shared.clone());
        assert!(matches!(
            first.register_cached(&query, ApproxKind::Under, None),
            Err(AnosyError::NotSynthesized { .. })
        ));
        first.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        let mut second: AnosySession<IntervalDomain> =
            AnosySession::with_shared(loc_layout(), MinSizePolicy::new(100), shared.clone());
        second.register_cached(&query, ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().synth_cache_hits, 1);
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert_eq!(
            second.downgrade(&secret, "nearby_200_200").unwrap(),
            first.downgrade(&secret, "nearby_200_200").unwrap()
        );
        assert_eq!(
            second.knowledge_of(&Point::new(vec![300, 200])).size(),
            first.knowledge_of(&Point::new(vec![300, 200])).size()
        );
    }

    #[test]
    fn refusals_are_counted_in_session_stats() {
        let mut session = paper_session();
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert!(session.downgrade(&secret, "nearby_200_200").unwrap());
        assert!(session.downgrade(&secret, "nearby_300_200").unwrap());
        assert!(session.downgrade(&secret, "nearby_400_200").is_err());
        let stats = session.stats();
        assert_eq!(stats.downgrades_authorized, 2);
        assert_eq!(stats.downgrades_refused, 1);
    }

    #[test]
    fn shared_sessions_synthesize_once_per_deployment() {
        use crate::SharedSynthCache;
        let shared: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        let query = nearby(200, 200);
        let secret = Protected::new(Point::new(vec![300, 200]));

        let mut first: AnosySession<IntervalDomain> =
            AnosySession::with_shared(loc_layout(), MinSizePolicy::new(100), shared.clone());
        first.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert_eq!(first.stats().synth_cache_misses, 1);
        let nodes_after_first = synth.solver_stats().nodes_explored;

        // A *different* session of the same deployment registers the same query: zero solver
        // work, and the answer matches an owned session's downgrade exactly.
        let mut second: AnosySession<IntervalDomain> =
            AnosySession::with_shared(loc_layout(), MinSizePolicy::new(100), shared.clone());
        second.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().synth_cache_hits, 1);
        assert_eq!(second.stats().synth_cache_misses, 0);
        assert_eq!(synth.solver_stats().nodes_explored, nodes_after_first);
        assert!(second.downgrade(&secret, "nearby_200_200").unwrap());

        let mut owned: AnosySession<IntervalDomain> =
            AnosySession::new(loc_layout(), MinSizePolicy::new(100));
        owned.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert!(owned.downgrade(&secret, "nearby_200_200").unwrap());
        assert_eq!(
            second.knowledge_of(&Point::new(vec![300, 200])).size(),
            owned.knowledge_of(&Point::new(vec![300, 200])).size(),
            "shared and owned sessions must track identical knowledge"
        );

        // A standalone session is a deployment of one: its private cache saw its downgrade.
        assert_eq!(owned.shared_cache().stats().downgrades_authorized, 1);

        // Deployment aggregates fold in both sessions.
        let stats = shared.stats();
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.synth_misses, 1);
        assert_eq!(stats.synth_hits, 1);
        assert_eq!(stats.downgrades_authorized, 1, "owned session downgrades are not counted");
        assert_eq!(second.synth_cache_len(), 1);
        assert!(stats.to_string().contains("synth hits"));
    }

    #[test]
    fn dropped_shared_sessions_note_their_closure() {
        use crate::SharedSynthCache;
        let shared: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        {
            let _a: AnosySession<IntervalDomain> =
                AnosySession::with_shared(loc_layout(), MinSizePolicy::new(100), shared.clone());
            let _b: AnosySession<IntervalDomain> =
                AnosySession::with_shared(loc_layout(), MinSizePolicy::new(100), shared.clone());
            assert_eq!(shared.stats().sessions_opened, 2);
            assert_eq!(shared.stats().sessions_closed, 0);
        }
        let stats = shared.stats();
        assert_eq!(stats.sessions_closed, 2, "dropped sessions report their teardown");
        assert!(stats.to_string().contains("(2 closed)"));
        // A standalone session reports only to its private cache.
        drop(AnosySession::<IntervalDomain>::new(loc_layout(), MinSizePolicy::new(100)));
        assert_eq!(shared.stats().sessions_closed, 2);
    }

    #[test]
    fn downgrade_step_matches_the_session_path() {
        // Chain the pure step over a local prior and compare against the mutating session path
        // on the paper's §3 walkthrough (authorize, authorize, refuse).
        let session = paper_session();
        let policy = MinSizePolicy::new(100);
        let point = Point::new(vec![300, 200]);
        let mut prior = session.knowledge_of(&point);

        let qinfo = session.query_info("nearby_200_200").unwrap();
        let (answer, posterior) = downgrade_step(&policy, qinfo, &prior, &point).unwrap();
        assert!(answer);
        assert_eq!(posterior.size(), 6837);
        prior = posterior;

        let qinfo = session.query_info("nearby_300_200").unwrap();
        let (answer, posterior) = downgrade_step(&policy, qinfo, &prior, &point).unwrap();
        assert!(answer);
        prior = posterior;

        let qinfo = session.query_info("nearby_400_200").unwrap();
        let err = downgrade_step(&policy, qinfo, &prior, &point).unwrap_err();
        assert!(matches!(err, AnosyError::PolicyViolation { .. }));

        // The session path lands on exactly the same knowledge.
        let mut mutating = paper_session();
        let secret = Protected::new(point.clone());
        mutating.downgrade(&secret, "nearby_200_200").unwrap();
        mutating.downgrade(&secret, "nearby_300_200").unwrap();
        mutating.downgrade(&secret, "nearby_400_200").unwrap_err();
        assert_eq!(mutating.knowledge_of(&point).size(), prior.size());
    }

    #[test]
    fn downgrade_with_a_resolved_query_mirrors_the_named_downgrade() {
        let mut named = paper_session();
        let mut resolved = paper_session();
        let points = [Point::new(vec![300, 200]), Point::new(vec![9000, 0])];
        for query in ["nearby_200_200", "nearby_400_200"] {
            let qinfo = resolved.query_handle(query).unwrap();
            for point in &points {
                assert_eq!(
                    resolved.downgrade_with(&qinfo, point),
                    named.downgrade(&Protected::new(point.clone()), query)
                );
            }
        }
        assert!(matches!(
            resolved.downgrade_with(&resolved.query_handle("nearby_400_200").unwrap(), &points[1]),
            Err(AnosyError::SecretOutsideLayout)
        ));
        assert_eq!(resolved.stats(), named.stats());
        assert_eq!(resolved.tracked_secrets(), 1);
        assert_eq!(resolved.knowledge_of(&points[0]).size(), named.knowledge_of(&points[0]).size());
        assert_eq!(
            resolved.shared_cache().stats().downgrades_refused,
            named.shared_cache().stats().downgrades_refused
        );
    }

    #[test]
    fn debug_formatting_reports_counts_without_leaking_secrets() {
        let mut session = paper_session();
        let secret = Protected::new(Point::new(vec![300, 200]));
        session.downgrade(&secret, "nearby_200_200").unwrap();
        let text = format!("{session:?}");
        assert!(text.contains("tracked_secrets: 1"));
        assert!(text.contains("min-size(100)"));
    }
}

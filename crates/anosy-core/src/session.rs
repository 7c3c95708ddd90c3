//! The `AnosyT` analogue: a session tracking knowledge across bounded downgrades (Fig. 2).

use crate::qinfo::QueryKey;
use crate::shared::SharedSynthCache;
use crate::{AnosyError, KaryIndSets, KaryQuery, Knowledge, Policy, QInfo, Refusal};
use anosy_domains::{AbstractDomain, IntervalDomain, PowersetDomain, Secret};
use anosy_ifc::{Label, Labeled, Lio, Protected, Unprotect};
use anosy_logic::{Point, SecretLayout};
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
/// Knowledge is interned. A posterior is `prior ⊓ indset(answer)`, a pure function of the prior
/// and the query, so secrets that took the same steps hold the same knowledge. The secrets map
/// therefore holds a state id per secret, and the session's knowledge table holds the elements
/// (state 0 is `⊤`). The table also memoizes every `(state, query)` step it has decided: both
/// posteriors' states when the policy authorized it, both sizes when it refused. A repeated step
/// is one lookup. A refusal interns nothing, and a posterior equal to its prior keeps the
/// prior's id, so the table holds at most `1 + 2 ×` the session's distinct authorized steps
/// (plus one per k-ary downgrade). The table lives and dies with the session.
///
/// The unit of decision is a batch of secrets against one query
/// ([`AnosySession::decide_batch`]; a single downgrade is a batch of one). A batch's secrets sit
/// in a few knowledge states, and the step from a state holds for every secret in it, so the
/// batch resolves each state's step once and counts its outcomes once.
///
/// The sessions of `anosy-serve`'s frontend register no queries of their own: the frontend's
/// registry resolves every downgrade and passes the query to [`AnosySession::decide_batch`], so
/// such a session holds only its policy, its secrets' states, its knowledge table and its
/// counters.
pub struct AnosySession<D: AbstractDomain> {
    layout: SecretLayout,
    policy: Box<dyn Policy<D> + Send + Sync>,
    secrets: HashMap<Point, StateId>,
    table: KnowledgeTable<D>,
    /// Shared so a downgrade resolves its query with a handle, never a deep copy.
    queries: BTreeMap<String, Arc<QInfo<D>>>,
    kary_queries: BTreeMap<String, (KaryQuery, KaryIndSets<D>)>,
    /// The synthesis cache the session registers through: a deployment's, or a private one
    /// for a standalone session.
    shared: SharedSynthCache<D>,
    stats: SessionStats,
}

impl<D: AbstractDomain> AnosySession<D> {
    /// Creates a standalone session for secrets of the given layout, enforcing `policy`: a
    /// deployment of one, registering through its own private [`SharedSynthCache`].
    pub fn new(layout: SecretLayout, policy: impl Policy<D> + Send + Sync + 'static) -> Self {
        AnosySession::with_shared(layout, policy, SharedSynthCache::new())
    }

    /// Creates a session that shares a deployment-wide synthesis cache (see
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
            table: KnowledgeTable::new(&layout),
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
        self.table.get(self.state_of(secret)).clone()
    }

    /// The knowledge state of a secret: `⊤` for one no downgrade has touched.
    fn state_of(&self, secret: &Point) -> StateId {
        self.secrets.get(secret).copied().unwrap_or(StateId::TOP)
    }

    /// Forgets all tracked knowledge (e.g. between experiment runs), with every interned state
    /// and memoized step but `⊤`. Registered queries are kept.
    pub fn reset_knowledge(&mut self) {
        self.secrets.clear();
        self.table.clear();
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
    /// * [`AnosyError::UnsoundApproximation`] if the policy is not sound for the direction of
    ///   the query's ind. sets ([`Policy::sound_for`]);
    /// * [`AnosyError::PolicyViolation`] if either posterior violates the policy — the query is
    ///   **not** executed in either case.
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
    /// serving frontend resolves names in its own registry, not in the session. It is
    /// [`AnosySession::decide`] with the refusal spelled out as an [`AnosyError`] that names
    /// the query and the policy ([`Refusal::into_error`]).
    ///
    /// # Errors
    ///
    /// As [`AnosySession::downgrade`], minus [`AnosyError::UnknownQuery`].
    pub fn downgrade_with(&mut self, qinfo: &QInfo<D>, point: &Point) -> Result<bool, AnosyError> {
        self.decide(qinfo, point)
            .map_err(|refusal| refusal.into_error(qinfo.query().name(), || self.policy.name()))
    }

    /// The bounded downgrade of Fig. 2 of one secret against a resolved query, refusing with a
    /// [`Refusal`] that allocates nothing: [`AnosySession::decide_batch`] over that one secret.
    ///
    /// # Errors
    ///
    /// [`Refusal::OutsideLayout`], [`Refusal::Unsound`] or [`Refusal::Policy`] — the query is
    /// **not** executed in any of them.
    pub fn decide(&mut self, qinfo: &QInfo<D>, point: &Point) -> Result<bool, Refusal> {
        let mut decided = Err(Refusal::OutsideLayout);
        self.decide_batch(qinfo, std::slice::from_ref(point), |outcome| decided = outcome);
        decided
    }

    /// The bounded downgrade of Fig. 2 of every secret of `points` against a resolved query,
    /// in input order, handing each outcome to `emit` as it is decided. This is the one place
    /// a session's knowledge changes after a boolean downgrade. Returns how many secrets were
    /// refused, for any reason.
    ///
    /// Once per batch it checks [`Policy::sound_for`], and it counts the outcomes into the
    /// session's and the cache's counters once, when it returns or unwinds (a policy that
    /// panics partway leaves the committed prefix counted). Once per knowledge state it
    /// resolves the step through the query: from a fixed-size cache on the stack, falling back
    /// to the knowledge table's memo once the cache is full. On a memo miss the table computes
    /// both posteriors, checks the policy on both and memoizes the outcome, exactly as
    /// [`downgrade_step`] decides it. Per secret it checks the layout, reads the secret's
    /// current state (so a secret that occurs twice sees its own earlier step), and on an
    /// authorized step executes the query and moves the secret to the state of its answer.
    ///
    /// An outcome is a [`Refusal::OutsideLayout`], [`Refusal::Unsound`] or [`Refusal::Policy`]
    /// — the query is **not** executed in any of them — or the query's answer. An
    /// authorization or a policy refusal is counted; the other refusals are not (no policy was
    /// consulted).
    pub fn decide_batch(
        &mut self,
        qinfo: &QInfo<D>,
        points: &[Point],
        mut emit: impl FnMut(Result<bool, Refusal>),
    ) -> usize {
        let sound = self.policy.sound_for(qinfo.kind());
        let AnosySession { layout, policy, secrets, table, shared, stats, .. } = self;
        let mut tally = Tally { stats, shared, authorized: 0, refused: 0 };
        let mut steps = StepCache::new();
        for point in points {
            if !layout.admits(point) {
                emit(Err(Refusal::OutsideLayout));
                continue;
            }
            if !sound {
                emit(Err(Refusal::Unsound(qinfo.kind())));
                continue;
            }
            let tracked = secrets.get_mut(point);
            let state = tracked.as_deref().copied().unwrap_or(StateId::TOP);
            let transition = steps.get(state).unwrap_or_else(|| {
                let transition = table.step(state, qinfo, policy.as_ref());
                steps.insert(state, transition);
                transition
            });
            match transition {
                Transition::Authorized { on_true, on_false } => {
                    let answer = qinfo.ask(point);
                    let next = if answer { on_true } else { on_false };
                    match tracked {
                        Some(slot) => *slot = next,
                        None => {
                            secrets.insert(point.clone(), next);
                        }
                    }
                    tally.authorized += 1;
                    emit(Ok(answer));
                }
                Transition::Refused { true_size, false_size } => {
                    tally.refused += 1;
                    emit(Err(Refusal::Policy { true_size, false_size }));
                }
            }
        }
        points.len() - tally.authorized as usize
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
        if !self.policy.sound_for(indsets.kind()) {
            return Err(AnosyError::UnsoundApproximation { kind: indsets.kind() });
        }
        let state = self.state_of(&point);
        let mut posteriors: Vec<Knowledge<D>> = indsets
            .posterior(self.table.get(state).domain())
            .into_iter()
            .map(Knowledge::from_domain)
            .collect();
        if let Some(violating) = posteriors.iter().find(|k| !self.policy.allows(k)) {
            let violation = AnosyError::PolicyViolation {
                query: query_name.to_string(),
                policy: self.policy.name(),
                posterior_true_size: violating.size(),
                posterior_false_size: violating.size(),
            };
            count_downgrades(&mut self.stats, &self.shared, 0, 1);
            return Err(violation);
        }
        let output = query.output(&point);
        let next = self.table.intern(state, posteriors.swap_remove(output));
        self.secrets.insert(point, next);
        count_downgrades(&mut self.stats, &self.shared, 1, 0);
        Ok(output)
    }
}

/// A secret's place in its session's [`KnowledgeTable`]: the index of an interned element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StateId(u32);

impl StateId {
    /// `⊤`, the knowledge of a secret no downgrade has touched.
    const TOP: StateId = StateId(0);
}

/// What one downgrade step from a knowledge state through a query decides. It holds for every
/// secret in that state, because the policy judges both posteriors and never the secret.
#[derive(Debug, Clone, Copy)]
enum Transition {
    /// The policy accepts both posteriors; the secret moves to the state of its answer.
    Authorized { on_true: StateId, on_false: StateId },
    /// The policy rejects a posterior, whose sizes the refusal reports.
    Refused { true_size: u128, false_size: u128 },
}

/// How many knowledge states' steps one [`AnosySession::decide_batch`] call keeps on its stack.
/// A batch's secrets rarely span more; the steps of further states are read from the memo.
const STEP_CACHE: usize = 8;

/// The steps one batch has resolved, keyed by the state they leave from. A step depends only
/// on its state and the query, never on the secret, and the memo never changes a decided step,
/// so an entry holds for the whole batch.
struct StepCache {
    entries: [(StateId, Transition); STEP_CACHE],
    len: usize,
}

impl StepCache {
    fn new() -> Self {
        let empty = (StateId::TOP, Transition::Refused { true_size: 0, false_size: 0 });
        StepCache { entries: [empty; STEP_CACHE], len: 0 }
    }

    fn get(&self, state: StateId) -> Option<Transition> {
        self.entries[..self.len].iter().find(|(from, _)| *from == state).map(|&(_, step)| step)
    }

    /// Keeps `step`, unless the cache is full.
    fn insert(&mut self, state: StateId, step: Transition) {
        if let Some(slot) = self.entries.get_mut(self.len) {
            *slot = (state, step);
            self.len += 1;
        }
    }
}

/// The outcomes one batch has counted so far. Dropping it folds them into the session's
/// counters and the cache's aggregates, so they are folded once per batch, and also when a
/// policy or the caller's `emit` panics partway through.
struct Tally<'a, D: AbstractDomain> {
    stats: &'a mut SessionStats,
    shared: &'a SharedSynthCache<D>,
    authorized: u64,
    refused: u64,
}

impl<D: AbstractDomain> Drop for Tally<'_, D> {
    fn drop(&mut self) {
        count_downgrades(self.stats, self.shared, self.authorized, self.refused);
    }
}

/// Adds downgrade outcomes to a session's counters and to its cache's aggregates.
fn count_downgrades<D: AbstractDomain>(
    stats: &mut SessionStats,
    shared: &SharedSynthCache<D>,
    authorized: u64,
    refused: u64,
) {
    stats.downgrades_authorized += authorized;
    stats.downgrades_refused += refused;
    shared.note_downgrades(authorized, refused);
}

/// A session's interned knowledge elements and its memo of decided steps (see
/// [`AnosySession`]). The memo is sound because a session's policy is fixed and a pure
/// predicate of the knowledge ([`Policy::allows`]), and a [`QueryKey`] names one immutable
/// query.
struct KnowledgeTable<D> {
    /// Interned elements, indexed by [`StateId`]; `states[0]` is `⊤`.
    states: Vec<Knowledge<D>>,
    memo: HashMap<(StateId, QueryKey), Transition>,
}

impl<D: AbstractDomain> KnowledgeTable<D> {
    fn new(layout: &SecretLayout) -> Self {
        KnowledgeTable { states: vec![Knowledge::initial(layout)], memo: HashMap::new() }
    }

    fn get(&self, state: StateId) -> &Knowledge<D> {
        &self.states[state.0 as usize]
    }

    /// The state of `knowledge`, reached from `prior`: the prior's own id when the step left
    /// it unchanged (so repeating a query reaches a fixed point), a new id otherwise.
    fn intern(&mut self, prior: StateId, knowledge: Knowledge<D>) -> StateId {
        if *self.get(prior) == knowledge {
            return prior;
        }
        let id = u32::try_from(self.states.len()).expect("fewer than 2^32 knowledge states");
        self.states.push(knowledge);
        StateId(id)
    }

    /// The memoized step from `state` through `qinfo`, decided by [`posteriors`] on a miss.
    fn step(&mut self, state: StateId, qinfo: &QInfo<D>, policy: &dyn Policy<D>) -> Transition {
        let key = (state, qinfo.key());
        if let Some(&transition) = self.memo.get(&key) {
            return transition;
        }
        let (knowledge_true, knowledge_false, allowed) = posteriors(policy, qinfo, self.get(state));
        let transition = if allowed {
            Transition::Authorized {
                on_true: self.intern(state, knowledge_true),
                on_false: self.intern(state, knowledge_false),
            }
        } else {
            Transition::Refused {
                true_size: knowledge_true.size(),
                false_size: knowledge_false.size(),
            }
        };
        self.memo.insert(key, transition);
        transition
    }

    /// Drops every state but `⊤` and every memoized step.
    fn clear(&mut self) {
        self.states.truncate(1);
        self.memo.clear();
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

/// One pure bounded-downgrade step (the decision half of Fig. 2, with no state change): checks
/// that the policy is sound for the direction of the query's ind. sets, computes the posterior
/// knowledge for **both** possible answers from `prior`, checks the policy on both, and only if
/// both pass executes the query on `point`, returning the answer together with the matching
/// posterior.
///
/// [`AnosySession::decide_batch`] decides every step the same way, memoized per knowledge state.
///
/// # Errors
///
/// Returns [`AnosyError::UnsoundApproximation`] when the policy is not sound for the ind. sets'
/// direction (nothing is computed), and [`AnosyError::PolicyViolation`] when either posterior
/// violates the policy — the query is **not** executed in either case.
pub fn downgrade_step<D: AbstractDomain>(
    policy: &dyn Policy<D>,
    qinfo: &QInfo<D>,
    prior: &Knowledge<D>,
    point: &Point,
) -> Result<(bool, Knowledge<D>), AnosyError> {
    if !policy.sound_for(qinfo.kind()) {
        return Err(AnosyError::UnsoundApproximation { kind: qinfo.kind() });
    }
    let (knowledge_true, knowledge_false, allowed) = posteriors(policy, qinfo, prior);
    if !allowed {
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

/// Both posteriors of `prior` through `qinfo`, and whether `policy` accepts both.
fn posteriors<D: AbstractDomain>(
    policy: &dyn Policy<D>,
    qinfo: &QInfo<D>,
    prior: &Knowledge<D>,
) -> (Knowledge<D>, Knowledge<D>, bool) {
    let (post_true, post_false) = qinfo.posterior(prior.domain());
    let knowledge_true = Knowledge::from_domain(post_true);
    let knowledge_false = Knowledge::from_domain(post_false);
    let allowed = policy.allows(&knowledge_true) && policy.allows(&knowledge_false);
    (knowledge_true, knowledge_false, allowed)
}

impl<D: AbstractDomain + SynthesizeInto> AnosySession<D> {
    /// Synthesizes, verifies and registers a query in one step — the runtime analogue of the
    /// paper's compile-time plugin pass.
    ///
    /// Results are cached in the session's synthesis cache (private to a standalone session,
    /// shared across a deployment otherwise), keyed by the query predicate (plus layout,
    /// direction and member budget): re-registering a query whose synthesis is already
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
    use crate::{AllowAll, AndPolicy, MinSizePolicy};
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

    #[test]
    fn over_approximations_are_refused_before_any_posterior() {
        // The diamond's over-approximate true set is its 40,401-point bounding box, which
        // min-size 30000 accepts although the attacker's true posterior at (200, 200) holds
        // 20,201 points. The policy is not sound for over-approximations, so the downgrade is
        // refused unevaluated and leaves the knowledge and the counters where they were.
        let mut synth =
            Synthesizer::with_config(SynthConfig::new().with_solver(SolverConfig::for_tests()));
        let mut session: AnosySession<IntervalDomain> =
            AnosySession::new(loc_layout(), MinSizePolicy::new(30_000));
        session
            .register_synthesized(&mut synth, &nearby(200, 200), ApproxKind::Over, None)
            .unwrap();
        let qinfo = session.query_handle("nearby_200_200").unwrap();
        assert_eq!(qinfo.indsets().truthy().size(), 40_401);
        let point = Point::new(vec![200, 200]);
        let unsound = Err(AnosyError::UnsoundApproximation { kind: ApproxKind::Over });
        assert_eq!(session.downgrade(&Protected::new(point.clone()), "nearby_200_200"), unsound);
        assert_eq!(session.knowledge_of(&point).size(), 401 * 401);
        assert_eq!(session.stats().downgrades_authorized + session.stats().downgrades_refused, 0);
        assert_eq!(session.shared_cache().stats().downgrades_refused, 0);
        let policy = AndPolicy::new(AllowAll, MinSizePolicy::new(30_000));
        let prior = Knowledge::initial(&loc_layout());
        assert_eq!(downgrade_step(&policy, &qinfo, &prior, &point).map(|(a, _)| a), unsound);
        // Allow-all is sound for both directions.
        assert_eq!(downgrade_step(&AllowAll, &qinfo, &prior, &point).map(|(a, _)| a), Ok(true));
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
        // the predicate, not the name.
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
    fn repeated_steps_share_states_and_reach_a_fixed_point() {
        let mut session = AnosySession::<IntervalDomain>::new(loc_layout(), AllowAll);
        let qinfo = paper_session().query_handle("nearby_200_200").unwrap();
        let alice = Point::new(vec![300, 200]);
        let bob = Point::new(vec![250, 210]);
        for _ in 0..50 {
            for secret in [&alice, &bob] {
                assert_eq!(session.decide(&qinfo, secret), Ok(true));
            }
        }
        // ⊤, then the two posteriors of the first step; the `true` one meets its ind. set to
        // itself, and its empty `false` posterior is interned once.
        assert_eq!(session.table.states.len(), 4);
        assert_eq!(session.table.memo.len(), 2);
        assert_eq!(session.secrets[&alice], session.secrets[&bob]);
        assert_eq!(session.knowledge_of(&bob).size(), 6837);
        session.reset_knowledge();
        assert_eq!((session.table.states.len(), session.table.memo.len()), (1, 0));
        assert_eq!(session.knowledge_of(&bob), Knowledge::initial(&loc_layout()));
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

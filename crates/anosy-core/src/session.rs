//! The `AnosyT` analogue: a session tracking knowledge across bounded downgrades (Fig. 2).

use crate::qinfo::QueryKey;
use crate::shared::SharedSynthCache;
use crate::{AnosyError, KaryQuery, Knowledge, Policy, QInfo, Refusal};
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
    /// Syntheses a registration found in the synthesis cache (no solver work at all): one per
    /// `register_synthesized` or `register_cached` call, one per output for
    /// `register_synthesized_cases`.
    pub synth_cache_hits: u64,
    /// Syntheses a registration ran through the full synthesize-and-verify pipeline.
    pub synth_cache_misses: u64,
    /// Downgrades that were authorized and executed.
    pub downgrades_authorized: u64,
    /// Downgrades refused by the policy (before query execution, per §3).
    pub downgrades_refused: u64,
}

impl SessionStats {
    /// Fraction of syntheses served from the cache, in `[0, 1]`.
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
/// are refused — *before the query is executed* — when any possible posterior would violate
/// the policy, so the refusal itself leaks nothing about the secret (§3). A query has `k ≥ 2`
/// outputs (a boolean query has two), and the policy is checked on the posterior of every one.
///
/// Knowledge is interned. A posterior is `prior ⊓ indset(output)`, a pure function of the prior
/// and the query, so secrets that took the same steps hold the same knowledge. The secrets map
/// therefore holds a state id per secret, and the session's knowledge table holds the elements
/// (state 0 is `⊤`). The table also memoizes every `(state, query)` step it has decided: the
/// states of all `k` posteriors when the policy authorized it, the refusal when it did not. A
/// repeated step is one lookup. A refusal interns nothing, and a posterior equal to its prior
/// keeps the prior's id, so the table holds at most `1 + k ×` distinct authorized steps of
/// `k`-output queries. The table lives and dies with the session.
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

    /// Registers an already-synthesized (and, by contract, already-verified) query of any
    /// number of outputs, replacing a query of the same name.
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

    /// Names of the registered queries.
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
        self.table.get(self.secrets.get(secret).copied().unwrap_or(StateId::TOP)).clone()
    }

    /// Forgets all tracked knowledge (e.g. between experiment runs), with every interned state
    /// and memoized step but `⊤`. Registered queries are kept.
    pub fn reset_knowledge(&mut self) {
        self.secrets.clear();
        self.table.clear();
    }

    /// The bounded downgrade of Fig. 2.
    ///
    /// Looks up the query, computes the posterior knowledge for **every** possible output from
    /// the tracked prior, checks the policy on each, and only then executes the query on the
    /// (unprotected) secret, records the matching posterior and returns the answer: whether the
    /// output is 0, the `true` of a boolean query. On a query of more than two outputs this
    /// answer reveals less than the policy authorized, while the tracked knowledge records the
    /// exact output, which is conservative.
    ///
    /// # Errors
    ///
    /// * [`AnosyError::UnknownQuery`] if the query was never registered;
    /// * [`AnosyError::SecretOutsideLayout`] if the secret is not in the declared space;
    /// * [`AnosyError::UnsoundApproximation`] if the policy is not sound for the direction of
    ///   the query's ind. sets ([`Policy::sound_for`]);
    /// * [`AnosyError::PolicyViolation`] (a boolean query) or [`AnosyError::OutputViolation`]
    ///   if any posterior violates the policy — the query is **not** executed in either case.
    pub fn downgrade<P>(&mut self, secret: &P, query_name: &str) -> Result<bool, AnosyError>
    where
        P: Unprotect,
        P::Target: AsSecretPoint,
    {
        self.downgrade_output(secret, query_name).map(|output| output == 0)
    }

    /// The bounded downgrade of Fig. 2, returning the query's output index.
    ///
    /// # Errors
    ///
    /// See [`AnosySession::downgrade`].
    pub fn downgrade_output<P>(&mut self, secret: &P, query_name: &str) -> Result<usize, AnosyError>
    where
        P: Unprotect,
        P::Target: AsSecretPoint,
    {
        let qinfo = self
            .query_handle(query_name)
            .ok_or_else(|| AnosyError::UnknownQuery { name: query_name.to_string() })?;
        self.decide_spelled(&qinfo, &secret.unprotect_tcb().as_secret_point())
    }

    /// The bounded downgrade of Fig. 2 against a query the caller already resolved — the
    /// serving frontend resolves names in its own registry, not in the session. It is
    /// [`AnosySession::decide`] answering whether the output is 0, with the refusal spelled out
    /// as an [`AnosyError`] that names the query and the policy ([`Refusal::into_error`]).
    ///
    /// # Errors
    ///
    /// As [`AnosySession::downgrade`], minus [`AnosyError::UnknownQuery`].
    pub fn downgrade_with(&mut self, qinfo: &QInfo<D>, point: &Point) -> Result<bool, AnosyError> {
        self.decide_spelled(qinfo, point).map(|output| output == 0)
    }

    /// [`AnosySession::decide`] with the refusal spelled out as an [`AnosyError`].
    fn decide_spelled(&mut self, qinfo: &QInfo<D>, point: &Point) -> Result<usize, AnosyError> {
        self.decide(qinfo, point)
            .map_err(|refusal| refusal.into_error(qinfo.query().name(), || self.policy.name()))
    }

    /// The bounded downgrade of Fig. 2 of one secret against a resolved query, returning its
    /// output index or a [`Refusal`] that allocates nothing: [`AnosySession::decide_batch`]
    /// over that one secret.
    ///
    /// # Errors
    ///
    /// [`Refusal::OutsideLayout`], [`Refusal::Unsound`], [`Refusal::Policy`] or
    /// [`Refusal::OutputPolicy`] — the query is **not** executed in any of them.
    pub fn decide(&mut self, qinfo: &QInfo<D>, point: &Point) -> Result<usize, Refusal> {
        let mut decided = Err(Refusal::OutsideLayout);
        self.decide_batch(qinfo, std::slice::from_ref(point), |outcome| decided = outcome);
        decided
    }

    /// The bounded downgrade of Fig. 2 of every secret of `points` against a resolved query,
    /// in input order, handing each outcome to `emit` as it is decided. This is the one place
    /// a session's knowledge changes. Returns how many secrets were refused, for any reason.
    ///
    /// Once per batch it checks [`Policy::sound_for`], and it counts the outcomes into the
    /// session's and the cache's counters once, when it returns or unwinds (a policy that
    /// panics partway leaves the committed prefix counted). Once per knowledge state it
    /// resolves the step through the query: from a fixed-size cache on the stack, falling back
    /// to the knowledge table's memo once the cache is full. On a memo miss the table computes
    /// the posterior of every output, checks the policy on each in output order and memoizes
    /// the outcome. Per secret it checks the layout, reads the secret's current state (so a
    /// secret that occurs twice sees its own earlier step), and on an authorized step executes
    /// the query and moves the secret to the state of its output.
    ///
    /// An outcome is a refusal — [`Refusal::OutsideLayout`], [`Refusal::Unsound`],
    /// [`Refusal::Policy`] or [`Refusal::OutputPolicy`], and the query is **not** executed in
    /// any of them — or the query's output index. An authorization or a policy refusal is
    /// counted; the other refusals are not (no policy was consulted).
    pub fn decide_batch(
        &mut self,
        qinfo: &QInfo<D>,
        points: &[Point],
        mut emit: impl FnMut(Result<usize, Refusal>),
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
                Transition::Authorized { successors } => {
                    let output = qinfo.output(point);
                    let next = table.successors[successors as usize + output];
                    match tracked {
                        Some(slot) => *slot = next,
                        None => {
                            secrets.insert(point.clone(), next);
                        }
                    }
                    tally.authorized += 1;
                    emit(Ok(output));
                }
                Transition::Refused(refusal) => {
                    tally.refused += 1;
                    emit(Err(refusal));
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
}

/// A secret's place in its session's [`KnowledgeTable`]: the index of an interned element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StateId(u32);

impl StateId {
    /// `⊤`, the knowledge of a secret no downgrade has touched.
    const TOP: StateId = StateId(0);
}

/// What one downgrade step from a knowledge state through a query decides. It holds for every
/// secret in that state, because the policy judges every output's posterior and never the
/// secret.
#[derive(Debug, Clone, Copy)]
enum Transition {
    /// The policy accepts every posterior; a secret with output `i` moves to state
    /// `KnowledgeTable::successors[successors + i]`.
    Authorized { successors: u32 },
    /// The policy rejects a posterior.
    Refused(Refusal),
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
        let empty = (StateId::TOP, Transition::Refused(Refusal::OutsideLayout));
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
        self.stats.downgrades_authorized += self.authorized;
        self.stats.downgrades_refused += self.refused;
        self.shared.note_downgrades(self.authorized, self.refused);
    }
}

/// A session's interned knowledge elements and its memo of decided steps (see
/// [`AnosySession`]). The memo is sound because a session's policy is fixed and a pure
/// predicate of the knowledge ([`Policy::allows`]), and a [`QueryKey`] names one immutable
/// query.
struct KnowledgeTable<D> {
    /// Interned elements, indexed by [`StateId`]; `states[0]` is `⊤`.
    states: Vec<Knowledge<D>>,
    /// The successor states of every authorized step, one per output in output order.
    successors: Vec<StateId>,
    memo: HashMap<(StateId, QueryKey), Transition>,
    /// The posteriors of the step being decided, kept so that deciding allocates no list.
    scratch: Vec<Knowledge<D>>,
}

impl<D: AbstractDomain> KnowledgeTable<D> {
    fn new(layout: &SecretLayout) -> Self {
        KnowledgeTable {
            states: vec![Knowledge::initial(layout)],
            successors: Vec::new(),
            memo: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    fn get(&self, state: StateId) -> &Knowledge<D> {
        &self.states[state.0 as usize]
    }

    /// The memoized step from `state` through `qinfo`. On a miss it computes the posterior of
    /// every output, checks `policy` on each in output order, and interns the posteriors of an
    /// authorized step: a posterior equal to the prior keeps the prior's id (so repeating a
    /// query reaches a fixed point), any other gets a new id.
    fn step(&mut self, state: StateId, qinfo: &QInfo<D>, policy: &dyn Policy<D>) -> Transition {
        let key = (state, qinfo.key());
        if let Some(&transition) = self.memo.get(&key) {
            return transition;
        }
        let KnowledgeTable { states, successors, memo, scratch } = self;
        let prior = state.0 as usize;
        scratch.extend(qinfo.sets().iter().map(|set| states[prior].refine_with(set)));
        let transition = match scratch.iter().position(|posterior| !policy.allows(posterior)) {
            Some(output) => Transition::Refused(match &scratch[..] {
                [on_true, on_false] => {
                    Refusal::Policy { true_size: on_true.size(), false_size: on_false.size() }
                }
                posteriors => Refusal::OutputPolicy { output, size: posteriors[output].size() },
            }),
            None => {
                let first = u32::try_from(successors.len()).expect("fewer than 2^32 successors");
                for posterior in scratch.drain(..) {
                    successors.push(if posterior == states[prior] {
                        state
                    } else {
                        let id = u32::try_from(states.len()).expect("fewer than 2^32 states");
                        states.push(posterior);
                        StateId(id)
                    });
                }
                Transition::Authorized { successors: first }
            }
        };
        scratch.clear();
        memo.insert(key, transition);
        transition
    }

    /// Drops every state but `⊤` and every memoized step.
    fn clear(&mut self) {
        self.states.truncate(1);
        self.successors.clear();
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
        let indsets = self.synthesized(synth, query, kind, members)?;
        self.register(QInfo::new(query.clone(), indsets));
        Ok(())
    }

    /// Synthesizes, verifies and registers a query of any number of outputs (§5.1): the
    /// effective predicate of each output ([`KaryQuery::output_pred`]) goes through the
    /// synthesis cache and [`synthesize_and_verify`] as a boolean query of its own, exactly as
    /// in [`AnosySession::register_synthesized`], and the output's ind. set is its `true` set.
    /// Each output counts one cache hit or miss.
    ///
    /// # Errors
    ///
    /// See [`AnosySession::register_synthesized`]; nothing is registered on an error.
    pub fn register_synthesized_cases(
        &mut self,
        synth: &mut Synthesizer,
        query: &KaryQuery,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<(), AnosyError> {
        let sets = (0..query.output_count())
            .map(|output| {
                let case = QueryDef::new(
                    format!("{}#{output}", query.name()),
                    query.layout().clone(),
                    query.output_pred(output),
                )?;
                Ok(self.synthesized(synth, &case, kind, members)?.truthy().clone())
            })
            .collect::<Result<_, AnosyError>>()?;
        self.register(QInfo::with_cases(query.clone(), kind, sets));
        Ok(())
    }

    /// The ind. sets of `query` from the synthesis cache, synthesized and verified on a miss,
    /// counted as a hit or a miss.
    fn synthesized(
        &mut self,
        synth: &mut Synthesizer,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<IndSets<D>, AnosyError> {
        let (indsets, was_hit) = self.shared.get_or_synthesize(query, kind, members, || {
            synthesize_and_verify(synth, query, kind, members, SolverConfig::default())
        })?;
        if was_hit {
            self.stats.synth_cache_hits += 1;
        } else {
            self.stats.synth_cache_misses += 1;
        }
        Ok(indsets)
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
            .field("tracked_secrets", &self.secrets.len())
            .field("synth_cache", &self.synth_cache_len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicySpec;
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
        let mut session = AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
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
            AnosySession::new(loc_layout(), PolicySpec::MinSize(30_000));
        session
            .register_synthesized(&mut synth, &nearby(200, 200), ApproxKind::Over, None)
            .unwrap();
        let qinfo = session.query_handle("nearby_200_200").unwrap();
        assert_eq!(qinfo.sets()[0].size(), 40_401);
        let point = Point::new(vec![200, 200]);
        let unsound = Err(AnosyError::UnsoundApproximation { kind: ApproxKind::Over });
        assert_eq!(session.downgrade(&Protected::new(point.clone()), "nearby_200_200"), unsound);
        assert_eq!(session.knowledge_of(&point).size(), 401 * 401);
        assert_eq!(session.stats().downgrades_authorized + session.stats().downgrades_refused, 0);
        assert_eq!(session.shared_cache().stats().downgrades_refused, 0);
        // A conjunction is sound only where both conjuncts are.
        let mut conjunction = AnosySession::new(
            loc_layout(),
            PolicySpec::All(vec![PolicySpec::AllowAll, PolicySpec::MinSize(30_000)]),
        );
        assert_eq!(conjunction.decide(&qinfo, &point), Err(Refusal::Unsound(ApproxKind::Over)));
        assert_eq!(
            (conjunction.tracked_secrets(), conjunction.stats()),
            (0, SessionStats::default())
        );
        // Allow-all is sound for both directions.
        let mut open = AnosySession::new(loc_layout(), PolicySpec::AllowAll);
        assert_eq!(open.decide(&qinfo, &point), Ok(0));
        assert_eq!(open.knowledge_of(&point).size(), 40_401);
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
            AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
        let mut powerset_session: AnosySession<PowersetDomain> =
            AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
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
            AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
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
            AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
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
            AnosySession::with_shared(loc_layout(), PolicySpec::MinSize(100), shared.clone());
        assert!(matches!(
            first.register_cached(&query, ApproxKind::Under, None),
            Err(AnosyError::NotSynthesized { .. })
        ));
        first.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        let mut second: AnosySession<IntervalDomain> =
            AnosySession::with_shared(loc_layout(), PolicySpec::MinSize(100), shared.clone());
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
            AnosySession::with_shared(loc_layout(), PolicySpec::MinSize(100), shared.clone());
        first.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert_eq!(first.stats().synth_cache_misses, 1);
        let nodes_after_first = synth.solver_stats().nodes_explored;

        // A *different* session of the same deployment registers the same query: zero solver
        // work, and the answer matches an owned session's downgrade exactly.
        let mut second: AnosySession<IntervalDomain> =
            AnosySession::with_shared(loc_layout(), PolicySpec::MinSize(100), shared.clone());
        second.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().synth_cache_hits, 1);
        assert_eq!(second.stats().synth_cache_misses, 0);
        assert_eq!(synth.solver_stats().nodes_explored, nodes_after_first);
        assert!(second.downgrade(&secret, "nearby_200_200").unwrap());

        let mut owned: AnosySession<IntervalDomain> =
            AnosySession::new(loc_layout(), PolicySpec::MinSize(100));
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
                AnosySession::with_shared(loc_layout(), PolicySpec::MinSize(100), shared.clone());
            let _b: AnosySession<IntervalDomain> =
                AnosySession::with_shared(loc_layout(), PolicySpec::MinSize(100), shared.clone());
            assert_eq!(shared.stats().sessions_opened, 2);
            assert_eq!(shared.stats().sessions_closed, 0);
        }
        let stats = shared.stats();
        assert_eq!(stats.sessions_closed, 2, "dropped sessions report their teardown");
        assert!(stats.to_string().contains("(2 closed)"));
        // A standalone session reports only to its private cache.
        drop(AnosySession::<IntervalDomain>::new(loc_layout(), PolicySpec::MinSize(100)));
        assert_eq!(shared.stats().sessions_closed, 2);
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
        let mut session = AnosySession::<IntervalDomain>::new(loc_layout(), PolicySpec::AllowAll);
        let qinfo = paper_session().query_handle("nearby_200_200").unwrap();
        let alice = Point::new(vec![300, 200]);
        let bob = Point::new(vec![250, 210]);
        for _ in 0..50 {
            for secret in [&alice, &bob] {
                assert_eq!(session.decide(&qinfo, secret), Ok(0));
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
    fn a_kary_query_takes_one_memoized_step_from_top() {
        // Every age downgraded through the age bands from ⊤ under allow-all: one step, whose
        // three posteriors are each the exact band, then the fixed point of each band.
        let layout = SecretLayout::builder().field("age", 0, 120).build();
        let bands = [IntExpr::var(0).lt(18), IntExpr::var(0).lt(65)];
        let query = KaryQuery::new("age_band", layout.clone(), bands.to_vec()).unwrap();
        let band = |lo, hi| IntervalDomain::from_intervals(vec![AInt::new(lo, hi)]);
        let sets = vec![band(0, 17), band(18, 64), band(65, 120)];
        let mut session = AnosySession::<IntervalDomain>::new(layout, PolicySpec::AllowAll);
        session.register(QInfo::with_cases(query, ApproxKind::Under, sets));
        for age in 0..=120 {
            let output =
                session.downgrade_output(&Protected::new(Point::new(vec![age])), "age_band");
            assert_eq!(output, Ok(usize::from(age >= 18) + usize::from(age >= 65)), "age {age}");
        }
        assert_eq!((session.table.states.len(), session.table.memo.len()), (4, 1));
        assert_eq!(session.knowledge_of(&Point::new(vec![40])).size(), 47);
        assert_eq!(session.stats().downgrades_authorized, 121);
        // A boolean downgrade through it answers whether the output is the first.
        assert_eq!(session.downgrade(&Protected::new(Point::new(vec![3])), "age_band"), Ok(true));
        assert_eq!(session.downgrade(&Protected::new(Point::new(vec![70])), "age_band"), Ok(false));
        assert_eq!(session.table.memo.len(), 3, "the fixed points of two bands");
    }

    #[test]
    fn debug_formatting_reports_counts_without_leaking_secrets() {
        let mut session = paper_session();
        let secret = Protected::new(Point::new(vec![300, 200]));
        session.downgrade(&secret, "nearby_200_200").unwrap();
        let text = format!("{session:?}");
        assert!(text.contains("tracked_secrets: 1"));
        assert!(text.contains("min-size:100"));
    }
}

//! The public solver façade and the internal search context shared by all procedures.

use crate::{
    count, maximal, optimize, sat, validity, ExpansionStrategy, SolverConfig, SolverError,
    SolverStats, ValidityOutcome,
};
use anosy_logic::{IntBox, Point, Pred, PredId, Range, StoreStats, TermStore};
use std::time::{Duration, Instant};

/// Budget-tracking context threaded through every search.
///
/// Besides the node/time budgets it carries the solver's [`TermStore`], so every procedure
/// works on interned ids and the store's memoized range analyses are shared across search nodes
/// (and across queries: the store lives as long as the [`Solver`]).
pub(crate) struct SearchCtx<'a> {
    config: &'a SolverConfig,
    deadline: Instant,
    pub(crate) nodes: u64,
    pub(crate) pruned: u64,
    pub(crate) store: &'a mut TermStore,
    /// The stack the model searches of one query share (see [`sat::find_model`]).
    pub(crate) stack: Vec<IntBox>,
}

impl<'a> SearchCtx<'a> {
    fn new(config: &'a SolverConfig, store: &'a mut TermStore) -> Self {
        SearchCtx {
            config,
            deadline: Instant::now() + config.time_budget,
            nodes: 0,
            pruned: 0,
            store,
            stack: Vec::new(),
        }
    }

    /// Accounts for one explored node and checks the budgets.
    pub(crate) fn tick(&mut self) -> Result<(), SolverError> {
        self.nodes += 1;
        if self.nodes > self.config.max_nodes {
            return Err(SolverError::BudgetExhausted { limit: "node", explored: self.nodes });
        }
        // Checking the clock on every node would dominate small searches.
        if self.nodes.is_multiple_of(1024) && Instant::now() > self.deadline {
            return Err(SolverError::BudgetExhausted { limit: "time", explored: self.nodes });
        }
        Ok(())
    }
}

/// A reusable decision-procedure instance.
///
/// A `Solver` owns a [`SolverConfig`] and accumulates [`SolverStats`] across queries. It is cheap
/// to construct; the heavy state is per-query and freed when each query returns.
///
/// # Example
///
/// ```
/// use anosy_logic::{IntExpr, SecretLayout};
/// use anosy_solver::Solver;
///
/// let layout = SecretLayout::builder().field("age", 0, 120).build();
/// let adult = IntExpr::var(0).ge(18);
/// let mut solver = Solver::new();
/// assert!(solver.is_satisfiable(&adult, &layout.space()).unwrap());
/// assert_eq!(solver.count_models(&adult, &layout.space()).unwrap(), 103);
/// assert!(!solver.is_valid(&adult, &layout.space()).unwrap());
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    store: TermStore,
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver { config, stats: SolverStats::new(), store: TermStore::new() }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Statistics accumulated since construction (or the last [`Solver::reset_stats`]).
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Hit/miss counters of the solver's [`TermStore`] memo tables (interning dedup, memoized
    /// simplification, free variables and range analyses).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The solver's term store (read access: node counts, reconstruction).
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// The solver's term store (intern further terms into the shared arena — e.g. candidate
    /// predicates the synthesizer wants deduplicated by id).
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// Interns `pred` into the solver's store and returns its simplified id — the canonical
    /// handle under which the solver searches it. Two predicates receive the same id exactly
    /// when their simplified forms are structurally equal.
    pub fn intern_simplified(&mut self, pred: &Pred) -> PredId {
        let id = self.store.intern_pred(pred);
        self.store.simplify(id)
    }

    /// Clears the accumulated statistics (search counters and store counters).
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::new();
        self.store.reset_stats();
    }

    pub(crate) fn run_id<T>(
        &mut self,
        pred: PredId,
        space: &IntBox,
        f: impl FnOnce(&mut SearchCtx<'_>, PredId, &IntBox) -> Result<T, SolverError>,
    ) -> Result<T, SolverError> {
        let started = Instant::now();
        if let Some(max_index) = self.store.max_free_var(pred) {
            if max_index >= space.arity() {
                return Err(SolverError::ArityMismatch { max_index, arity: space.arity() });
            }
        }
        let normalized = self.store.simplify(pred);
        let mut ctx = SearchCtx::new(&self.config, &mut self.store);
        let result = f(&mut ctx, normalized, space);
        self.stats.nodes_explored += ctx.nodes;
        self.stats.nodes_pruned += ctx.pruned;
        self.stats.queries += 1;
        self.stats.total_time += saturating_elapsed(started);
        result
    }

    fn run<T>(
        &mut self,
        pred: &Pred,
        space: &IntBox,
        f: impl FnOnce(&mut SearchCtx<'_>, PredId, &IntBox) -> Result<T, SolverError>,
    ) -> Result<T, SolverError> {
        let id = self.store.intern_pred(pred);
        self.run_id(id, space, f)
    }

    /// Finds a point of `space` satisfying `pred`, if one exists.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ArityMismatch`] if the predicate mentions fields outside the space
    /// and [`SolverError::BudgetExhausted`] if the configured limits are hit.
    pub fn find_model(
        &mut self,
        pred: &Pred,
        space: &IntBox,
    ) -> Result<Option<Point>, SolverError> {
        let _span = anosy_telemetry::span("solver.find_model");
        self.run(pred, space, sat::find_model)
    }

    /// Id-native [`Solver::find_model`]: takes a predicate already interned in this solver's
    /// store, skipping the per-call interning walk. This is the entry point the synthesizer's
    /// refinement loops use — they build candidate predicates directly in the store.
    pub fn find_model_id(
        &mut self,
        pred: PredId,
        space: &IntBox,
    ) -> Result<Option<Point>, SolverError> {
        let _span = anosy_telemetry::span("solver.find_model");
        self.run_id(pred, space, sat::find_model)
    }

    /// Returns `true` if some point of `space` satisfies `pred`.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn is_satisfiable(&mut self, pred: &Pred, space: &IntBox) -> Result<bool, SolverError> {
        Ok(self.find_model(pred, space)?.is_some())
    }

    /// Checks whether `pred` holds for **every** point of `space`, returning a counterexample
    /// otherwise.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn check_validity(
        &mut self,
        pred: &Pred,
        space: &IntBox,
    ) -> Result<ValidityOutcome, SolverError> {
        let _span = anosy_telemetry::span("solver.check_validity");
        self.run(pred, space, validity::check_validity)
    }

    /// Returns `true` if `pred` holds for every point of `space`.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn is_valid(&mut self, pred: &Pred, space: &IntBox) -> Result<bool, SolverError> {
        Ok(matches!(self.check_validity(pred, space)?, ValidityOutcome::Valid))
    }

    /// Id-native [`Solver::check_validity`].
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn check_validity_id(
        &mut self,
        pred: PredId,
        space: &IntBox,
    ) -> Result<ValidityOutcome, SolverError> {
        let _span = anosy_telemetry::span("solver.check_validity");
        self.run_id(pred, space, validity::check_validity)
    }

    /// Id-native [`Solver::is_valid`].
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn is_valid_id(&mut self, pred: PredId, space: &IntBox) -> Result<bool, SolverError> {
        Ok(matches!(self.check_validity_id(pred, space)?, ValidityOutcome::Valid))
    }

    /// Counts the points of `space` that satisfy `pred`, exactly.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn count_models(&mut self, pred: &Pred, space: &IntBox) -> Result<u128, SolverError> {
        let _span = anosy_telemetry::span("solver.count_models");
        self.run(pred, space, count::count_models)
    }

    /// Id-native [`Solver::count_models`].
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn count_models_id(&mut self, pred: PredId, space: &IntBox) -> Result<u128, SolverError> {
        let _span = anosy_telemetry::span("solver.count_models");
        self.run_id(pred, space, count::count_models)
    }

    /// Largest value of variable `var` over the models of `pred` in `space`, or `None` if the
    /// predicate is unsatisfiable there.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn maximize(
        &mut self,
        pred: &Pred,
        space: &IntBox,
        var: usize,
    ) -> Result<Option<i64>, SolverError> {
        self.run(pred, space, |ctx, p, s| optimize::optimize(ctx, p, s, var, true))
    }

    /// Smallest value of variable `var` over the models of `pred` in `space`, or `None` if the
    /// predicate is unsatisfiable there.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn minimize(
        &mut self,
        pred: &Pred,
        space: &IntBox,
        var: usize,
    ) -> Result<Option<i64>, SolverError> {
        self.run(pred, space, |ctx, p, s| optimize::optimize(ctx, p, s, var, false))
    }

    /// Id-native [`Solver::maximize`].
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn maximize_id(
        &mut self,
        pred: PredId,
        space: &IntBox,
        var: usize,
    ) -> Result<Option<i64>, SolverError> {
        self.run_id(pred, space, |ctx, p, s| optimize::optimize(ctx, p, s, var, true))
    }

    /// Id-native [`Solver::minimize`].
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn minimize_id(
        &mut self,
        pred: PredId,
        space: &IntBox,
        var: usize,
    ) -> Result<Option<i64>, SolverError> {
        self.run_id(pred, space, |ctx, p, s| optimize::optimize(ctx, p, s, var, false))
    }

    /// The tightest box containing **all** models of `pred` in `space` (the optimal single-interval
    /// over-approximation of the ind. set), or `None` if there are no models.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn bounding_true_box(
        &mut self,
        pred: &Pred,
        space: &IntBox,
    ) -> Result<Option<IntBox>, SolverError> {
        let id = self.store.intern_pred(pred);
        self.bounding_true_box_id(id, space)
    }

    /// Id-native [`Solver::bounding_true_box`]: the predicate is interned once, not once per
    /// optimization direction and variable.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn bounding_true_box_id(
        &mut self,
        pred: PredId,
        space: &IntBox,
    ) -> Result<Option<IntBox>, SolverError> {
        let mut bounds = space.clone();
        for var in 0..space.arity() {
            let lo = self.minimize_id(pred, space, var)?;
            let hi = self.maximize_id(pred, space, var)?;
            match (lo, hi) {
                (Some(lo), Some(hi)) => bounds.set_dim(var, Range::new(lo, hi)),
                _ => return Ok(None),
            }
        }
        Ok(Some(bounds))
    }

    /// Returns `true` if `candidate` is an all-models box of `pred` that cannot be extended by
    /// any face inside `space` without including a non-model (inclusion-maximality, the shape of
    /// optimality targeted by under-approximation synthesis).
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn is_inclusion_maximal(
        &mut self,
        pred: &Pred,
        space: &IntBox,
        candidate: &IntBox,
    ) -> Result<bool, SolverError> {
        let id = self.store.intern_pred(pred);
        if !self.is_valid_id(id, candidate)? {
            return Ok(false);
        }
        let candidate = candidate.clone();
        self.run_id(id, space, move |ctx, p, s| {
            maximal::is_inclusion_maximal(ctx, p, s, &candidate)
        })
    }

    /// Grows an inclusion-maximal box of models of `pred` around `seed` (which must itself be a
    /// model inside `space`), using the given expansion strategy. Returns `None` when the seed is
    /// not a model or lies outside the space.
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn maximal_true_box(
        &mut self,
        pred: &Pred,
        space: &IntBox,
        seed: &Point,
        strategy: ExpansionStrategy,
    ) -> Result<Option<IntBox>, SolverError> {
        let id = self.store.intern_pred(pred);
        self.maximal_true_box_id(id, space, seed, strategy)
    }

    /// Id-native [`Solver::maximal_true_box`].
    ///
    /// # Errors
    ///
    /// See [`Solver::find_model`].
    pub fn maximal_true_box_id(
        &mut self,
        pred: PredId,
        space: &IntBox,
        seed: &Point,
        strategy: ExpansionStrategy,
    ) -> Result<Option<IntBox>, SolverError> {
        let seed = seed.clone();
        self.run_id(pred, space, move |ctx, p, s| {
            maximal::maximal_true_box(ctx, p, s, &seed, strategy)
        })
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

fn saturating_elapsed(start: Instant) -> Duration {
    Instant::now().checked_duration_since(start).unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::{IntExpr, SecretLayout};

    fn loc_layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby(xo: i64, yo: i64) -> Pred {
        ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100)
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut solver = Solver::new();
        let pred = IntExpr::var(5).le(3);
        let err = solver.find_model(&pred, &loc_layout().space()).unwrap_err();
        assert!(matches!(err, SolverError::ArityMismatch { max_index: 5, arity: 2 }));
    }

    #[test]
    fn node_budget_is_enforced() {
        let mut solver = Solver::with_config(SolverConfig::new().with_max_nodes(3));
        // A query whose model sits in a thin diagonal forces many splits.
        let pred = (IntExpr::var(0) - IntExpr::var(1)).eq(123);
        let err = solver.count_models(&pred, &loc_layout().space()).unwrap_err();
        assert!(matches!(err, SolverError::BudgetExhausted { limit: "node", .. }));
    }

    #[test]
    fn stats_accumulate_across_queries() {
        let mut solver = Solver::with_config(SolverConfig::for_tests());
        let space = loc_layout().space();
        solver.is_satisfiable(&nearby(200, 200), &space).unwrap();
        solver.is_valid(&nearby(200, 200), &space).unwrap();
        assert_eq!(solver.stats().queries, 2);
        assert!(solver.stats().nodes_explored > 0);
        solver.reset_stats();
        assert_eq!(solver.stats().queries, 0);
    }

    #[test]
    fn bounding_box_of_the_nearby_diamond() {
        let mut solver = Solver::with_config(SolverConfig::for_tests());
        let space = loc_layout().space();
        let bounding = solver.bounding_true_box(&nearby(200, 200), &space).unwrap().unwrap();
        assert_eq!(bounding.dim(0), Range::new(100, 300));
        assert_eq!(bounding.dim(1), Range::new(100, 300));
        // Unsatisfiable query has no bounding box.
        let none = solver.bounding_true_box(&Pred::False, &space).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn default_and_config_accessors() {
        let solver = Solver::default();
        assert_eq!(solver.config().max_nodes, SolverConfig::new().max_nodes);
    }

    #[test]
    fn solver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Solver>();
    }
}

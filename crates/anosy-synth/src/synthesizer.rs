//! The synthesizer: `Synth` (single intervals) and `IterSynth` (powersets, Algorithm 1).

use crate::{ApproxKind, IndSets, QueryDef, SynthConfig, SynthError};
use anosy_domains::{AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_logic::{IntBox, Point, PredId, SecretLayout, StoreStats};
use anosy_solver::{Solver, SolverStats};
use std::collections::HashSet;

/// Counters for candidate handling during synthesis.
///
/// Candidate boxes grown from different seeds (and the members enumerated by `IterSynth`) are
/// interned into the solver's term store, so two candidates denoting the same region are
/// detected by a single id comparison instead of a deep tree comparison; detected duplicates
/// skip their redundant coverage bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Candidate boxes grown (across all seeds, regions and `IterSynth` iterations).
    pub candidate_boxes: u64,
    /// Candidates whose interned id matched an earlier candidate of the same region.
    pub duplicate_candidates: u64,
}

/// Synthesizes correct-by-construction knowledge approximations for declassification queries.
///
/// The synthesizer owns a [`Solver`] (the Z3 stand-in) and a [`SynthConfig`]. Synthesis results
/// are *candidates*: they are correct by construction of the underlying procedures, and the
/// `anosy-verify` crate re-checks them against their refinement specifications exactly as Liquid
/// Haskell re-checks the paper's synthesized Haskell terms (§2.3, Step IV).
#[derive(Debug)]
pub struct Synthesizer {
    config: SynthConfig,
    solver: Solver,
    stats: SynthStats,
}

impl Synthesizer {
    /// Creates a synthesizer with the default configuration.
    pub fn new() -> Self {
        Synthesizer::with_config(SynthConfig::default())
    }

    /// Creates a synthesizer with an explicit configuration.
    pub fn with_config(config: SynthConfig) -> Self {
        let solver = Solver::with_config(config.solver.clone());
        Synthesizer { config, solver, stats: SynthStats::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Statistics of the underlying solver (search effort across all synthesis calls so far).
    pub fn solver_stats(&self) -> &SolverStats {
        self.solver.stats()
    }

    /// Hit/miss counters of the solver's term-store memo tables (interning dedup, memoized
    /// simplification and range analyses) accumulated across synthesis calls.
    pub fn store_stats(&self) -> StoreStats {
        self.solver.store_stats()
    }

    /// Candidate interning counters (see [`SynthStats`]).
    pub fn synth_stats(&self) -> SynthStats {
        self.stats
    }

    /// Synthesizes the interval-domain ind. sets of `query` (§5.3).
    ///
    /// * [`ApproxKind::Over`]: each ind. set is the tightest bounding box of the corresponding
    ///   region, obtained by minimizing/maximizing every field (the paper's `minimize u_i - l_i`
    ///   directives).
    /// * [`ApproxKind::Under`]: each ind. set is an inclusion-maximal all-models box grown around
    ///   the best of several seeds (the paper's Pareto `maximize u_i - l_i` directives).
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Solver`] if the underlying decision procedures exhaust their budget.
    pub fn synth_interval(
        &mut self,
        query: &QueryDef,
        kind: ApproxKind,
    ) -> Result<IndSets<IntervalDomain>, SynthError> {
        let space = query.layout().space();
        let (positive, negative) = self.intern_regions(query);
        let truthy = self.synth_region_interval(positive, &space, query.layout(), kind)?;
        let falsy = self.synth_region_interval(negative, &space, query.layout(), kind)?;
        Ok(IndSets::new(kind, truthy, falsy))
    }

    /// Interns the query predicate once and returns the canonical ids of its True and False
    /// regions. All downstream synthesis works on these ids: candidate refinements are built
    /// directly in the store, and the solver is driven through its id-native API.
    fn intern_regions(&mut self, query: &QueryDef) -> (PredId, PredId) {
        let store = self.solver.store_mut();
        let raw = store.intern_pred(query.pred());
        let positive = store.simplify(raw);
        let negative = store.negate_simplified(raw);
        (positive, negative)
    }

    /// Synthesizes powerset-domain ind. sets with at most `k` synthesized members per region
    /// (`IterSynth`, Algorithm 1 of the paper).
    ///
    /// For under-approximations the powerset's inclusion list is grown one disjoint
    /// inclusion-maximal box at a time; for over-approximations the first member is the bounding
    /// box and subsequent iterations grow the exclusion list, carving away regions that provably
    /// contain no model. Fewer than `k` members are produced when the region is exhausted early —
    /// in that case the result is already exact.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Solver`] if the underlying decision procedures exhaust their budget.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn synth_powerset(
        &mut self,
        query: &QueryDef,
        kind: ApproxKind,
        k: usize,
    ) -> Result<IndSets<PowersetDomain>, SynthError> {
        assert!(k > 0, "a powerset needs at least one member");
        let space = query.layout().space();
        let (positive, negative) = self.intern_regions(query);
        let truthy = self.synth_region_powerset(positive, &space, query.layout(), kind, k)?;
        let falsy = self.synth_region_powerset(negative, &space, query.layout(), kind, k)?;
        Ok(IndSets::new(kind, truthy, falsy))
    }

    /// Synthesizes a single interval-domain approximation of the region `pred` within `space`.
    fn synth_region_interval(
        &mut self,
        pred: PredId,
        space: &IntBox,
        layout: &SecretLayout,
        kind: ApproxKind,
    ) -> Result<IntervalDomain, SynthError> {
        let result = match kind {
            ApproxKind::Over => self.solver.bounding_true_box_id(pred, space)?,
            ApproxKind::Under => self.best_true_box(pred, space)?,
        };
        Ok(match result {
            Some(boxed) => IntervalDomain::from_box(&boxed),
            None => IntervalDomain::bottom(layout),
        })
    }

    /// Synthesizes a powerset approximation of the region `pred` within `space`.
    fn synth_region_powerset(
        &mut self,
        pred: PredId,
        space: &IntBox,
        layout: &SecretLayout,
        kind: ApproxKind,
        k: usize,
    ) -> Result<PowersetDomain, SynthError> {
        match kind {
            ApproxKind::Under => self.iter_synth_under(pred, space, layout, k),
            ApproxKind::Over => self.iter_synth_over(pred, space, layout, k),
        }
    }

    /// Interns a synthesized member box and conjoins its negation onto the running refinement
    /// predicate, entirely inside the store (no tree building).
    fn refine_with_member(&mut self, refined: PredId, member: &IntBox) -> (PredId, PredId) {
        let store = self.solver.store_mut();
        let member_id = store.intern_box(member);
        let not_member = store.mk_not(member_id);
        let next = store.mk_and(vec![refined, not_member]);
        (member_id, next)
    }

    /// `IterSynth` for under-approximations: grow the inclusion list with disjoint
    /// inclusion-maximal boxes of the not-yet-covered region.
    fn iter_synth_under(
        &mut self,
        pred: PredId,
        space: &IntBox,
        layout: &SecretLayout,
        k: usize,
    ) -> Result<PowersetDomain, SynthError> {
        let mut powerset = PowersetDomain::bottom(layout);
        let mut remaining = pred;
        let mut members = HashSet::new();
        for _ in 0..k {
            let target = self.solver.store_mut().simplify(remaining);
            let Some(boxed) = self.best_true_box(target, space)? else {
                break; // region exhausted: the powerset is already exact
            };
            let (member_id, refined) = self.refine_with_member(remaining, &boxed);
            if !members.insert(member_id) {
                // A member can only recur if the solver failed to respect the exclusion; an id
                // check catches it in O(1) and stops the enumeration from spinning.
                self.stats.duplicate_candidates += 1;
                break;
            }
            remaining = refined;
            powerset.push_include(IntervalDomain::from_box(&boxed));
        }
        Ok(powerset)
    }

    /// `IterSynth` for over-approximations: start from the bounding box and grow the exclusion
    /// list with disjoint boxes that provably contain no model.
    fn iter_synth_over(
        &mut self,
        pred: PredId,
        space: &IntBox,
        layout: &SecretLayout,
        k: usize,
    ) -> Result<PowersetDomain, SynthError> {
        let Some(outer) = self.solver.bounding_true_box_id(pred, space)? else {
            return Ok(PowersetDomain::bottom(layout));
        };
        let mut powerset = PowersetDomain::from_interval(IntervalDomain::from_box(&outer));
        // The region that may still be carved away: inside the bounding box, outside the models,
        // not yet excluded.
        let mut carvable = {
            let store = self.solver.store_mut();
            let outer_id = store.intern_box(&outer);
            let not_pred = store.mk_not(pred);
            store.mk_and(vec![outer_id, not_pred])
        };
        let mut members = HashSet::new();
        for _ in 1..k {
            let target = self.solver.store_mut().simplify(carvable);
            let Some(boxed) = self.best_true_box(target, &outer)? else {
                break; // nothing left to carve: the over-approximation is as tight as this shape allows
            };
            let (member_id, refined) = self.refine_with_member(carvable, &boxed);
            if !members.insert(member_id) {
                self.stats.duplicate_candidates += 1;
                break;
            }
            carvable = refined;
            powerset.push_exclude(IntervalDomain::from_box(&boxed));
        }
        Ok(powerset)
    }

    /// The largest inclusion-maximal all-models box of `pred` found across up to
    /// `config.seeds` seeds, or `None` when `pred` has no model in `space`.
    ///
    /// Seeds are chosen to avoid the boundary of the region: the first candidate is the centre of
    /// the region's bounding box (when it is itself a model — for convex-ish regions like the
    /// benchmarks' this is the best starting point), falling back to an arbitrary model;
    /// subsequent seeds are models outside everything grown so far, which is what lets point-wise
    /// (disjoint-union) queries profit from several seeds.
    ///
    /// The bounding box is `None` exactly when `pred` has no model, so it also answers whether
    /// there is a box to grow at all. The solver is asked for the fallback model only when the
    /// centre is not a model.
    fn best_true_box(
        &mut self,
        pred: PredId,
        space: &IntBox,
    ) -> Result<Option<IntBox>, SynthError> {
        let Some(bounds) = self.solver.bounding_true_box_id(pred, space)? else {
            return Ok(None);
        };
        let center: Point = bounds
            .dims()
            .iter()
            .map(|r| r.lo() + ((r.hi() as i128 - r.lo() as i128) / 2) as i64)
            .collect();
        let first_seed = if self.solver.store().eval_pred(pred, &center).unwrap_or(false) {
            center
        } else {
            self.solver
                .find_model_id(pred, space)?
                .expect("a predicate with a bounding box has a model")
        };
        let mut best: Option<IntBox> = None;
        // Ids of the candidate boxes grown so far; doubles as the coverage set for seed
        // diversification and as the duplicate check (a box regrown from a different seed is a
        // single `u32` comparison away from being recognized).
        let mut covered: Vec<PredId> = Vec::new();
        let mut seeds_used = 0;
        let mut next_seed = Some(first_seed);
        while seeds_used < self.config.seeds {
            let Some(seed) = next_seed.take() else { break };
            seeds_used += 1;
            let grown =
                self.solver.maximal_true_box_id(pred, space, &seed, self.config.strategy)?;
            if let Some(boxed) = grown {
                let candidate_id = self.solver.store_mut().intern_box(&boxed);
                self.stats.candidate_boxes += 1;
                if !covered.contains(&candidate_id) {
                    covered.push(candidate_id);
                    let is_better = best.as_ref().is_none_or(|b| boxed.count() > b.count());
                    if is_better {
                        best = Some(boxed);
                    }
                } else {
                    self.stats.duplicate_candidates += 1;
                }
            }
            if seeds_used < self.config.seeds {
                // Diversify: the next seed must be a model not covered by any box grown so far.
                let uncovered = {
                    let store = self.solver.store_mut();
                    if covered.is_empty() {
                        pred
                    } else {
                        let union = store.mk_or(covered.clone());
                        let outside = store.mk_not(union);
                        let conj = store.mk_and(vec![pred, outside]);
                        store.simplify(conj)
                    }
                };
                next_seed = self.solver.find_model_id(uncovered, space)?;
            }
        }
        Ok(best)
    }
}

impl Default for Synthesizer {
    fn default() -> Self {
        Synthesizer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::{IntExpr, Pred};
    use anosy_solver::SolverConfig;

    fn test_config() -> SynthConfig {
        SynthConfig::new().with_solver(SolverConfig::for_tests())
    }

    fn loc_layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby_query() -> QueryDef {
        let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new("nearby_200_200", loc_layout(), nearby).unwrap()
    }

    fn check_under_soundness<D: AbstractDomain>(query: &QueryDef, ind: &IndSets<D>) {
        let mut solver = Solver::with_config(SolverConfig::for_tests());
        let space = query.layout().space();
        // truthy ⇒ query, falsy ⇒ ¬query
        let t_ok =
            solver.is_valid(&ind.truthy().to_pred().implies(query.pred().clone()), &space).unwrap();
        let f_ok = solver
            .is_valid(&ind.falsy().to_pred().implies(query.pred().clone().negate()), &space)
            .unwrap();
        assert!(t_ok, "under True set contains a non-model");
        assert!(f_ok, "under False set contains a model");
    }

    fn check_over_soundness<D: AbstractDomain>(query: &QueryDef, ind: &IndSets<D>) {
        let mut solver = Solver::with_config(SolverConfig::for_tests());
        let space = query.layout().space();
        // query ⇒ truthy, ¬query ⇒ falsy
        let t_ok =
            solver.is_valid(&query.pred().clone().implies(ind.truthy().to_pred()), &space).unwrap();
        let f_ok = solver
            .is_valid(&query.pred().clone().negate().implies(ind.falsy().to_pred()), &space)
            .unwrap();
        assert!(t_ok, "over True set misses a model");
        assert!(f_ok, "over False set misses a non-model");
    }

    #[test]
    fn interval_under_synthesis_matches_the_paper_shape() {
        let query = nearby_query();
        let mut synth = Synthesizer::with_config(test_config());
        let ind = synth.synth_interval(&query, ApproxKind::Under).unwrap();
        check_under_soundness(&query, &ind);
        // The True region is the radius-100 diamond: the balanced maximal box is the 101×101
        // inscribed square (the paper's synthesized box has the same 159×43 order of size but a
        // different aspect ratio because Z3's Pareto optimum is not unique).
        assert_eq!(ind.truthy().size(), 101 * 101);
        // The False region's maximal box keeps one full side of the space.
        assert!(ind.falsy().size() >= 99 * 401);
    }

    #[test]
    fn interval_over_synthesis_is_the_tight_bounding_box() {
        let query = nearby_query();
        let mut synth = Synthesizer::with_config(test_config());
        let ind = synth.synth_interval(&query, ApproxKind::Over).unwrap();
        check_over_soundness(&query, &ind);
        assert_eq!(ind.truthy().size(), 201 * 201);
        // The False region touches every edge of the space, so its bounding box is ⊤.
        assert_eq!(ind.falsy().size(), 401 * 401);
    }

    #[test]
    fn powerset_under_is_at_least_as_precise_as_the_interval() {
        let query = nearby_query();
        let mut synth = Synthesizer::with_config(test_config());
        let interval = synth.synth_interval(&query, ApproxKind::Under).unwrap();
        let powerset = synth.synth_powerset(&query, ApproxKind::Under, 3).unwrap();
        check_under_soundness(&query, &powerset);
        assert!(powerset.truthy().size() >= interval.truthy().size());
        assert!(powerset.falsy().size() >= interval.falsy().size());
        assert!(powerset.truthy().includes().len() <= 3);
    }

    #[test]
    fn powerset_over_is_at_least_as_precise_as_the_interval() {
        let query = nearby_query();
        let mut synth = Synthesizer::with_config(test_config());
        let interval = synth.synth_interval(&query, ApproxKind::Over).unwrap();
        let powerset = synth.synth_powerset(&query, ApproxKind::Over, 3).unwrap();
        check_over_soundness(&query, &powerset);
        assert!(powerset.truthy().size() <= interval.truthy().size());
        assert!(powerset.falsy().size() <= interval.falsy().size());
    }

    #[test]
    fn box_shaped_queries_are_synthesized_exactly() {
        let layout = loc_layout();
        let pred =
            Pred::and(vec![IntExpr::var(0).between(100, 150), IntExpr::var(1).between(20, 380)]);
        let query = QueryDef::new("box", layout, pred).unwrap();
        let mut synth = Synthesizer::with_config(test_config());
        for kind in ApproxKind::ALL {
            let ind = synth.synth_interval(&query, kind).unwrap();
            assert_eq!(ind.truthy().size(), 51 * 361, "kind {kind}");
        }
    }

    #[test]
    fn unsatisfiable_queries_produce_empty_true_sets() {
        let query = QueryDef::new("never", loc_layout(), Pred::False).unwrap();
        let mut synth = Synthesizer::with_config(test_config());
        let under = synth.synth_interval(&query, ApproxKind::Under).unwrap();
        assert!(under.truthy().is_empty());
        assert_eq!(under.falsy().size(), 401 * 401);
        let over = synth.synth_powerset(&query, ApproxKind::Over, 2).unwrap();
        assert!(over.truthy().is_empty());
        assert_eq!(over.falsy().size(), 401 * 401);
    }

    #[test]
    fn point_wise_queries_benefit_from_powersets() {
        // x ∈ {40, 140, 300}: three separate slabs. A single interval can only capture one; a
        // powerset of 3 captures all of them (the §6.1 observation about point-wise queries).
        let pred = IntExpr::var(0).one_of([40, 140, 300]);
        let query = QueryDef::new("pointwise", loc_layout(), pred).unwrap();
        let mut synth = Synthesizer::with_config(test_config());
        let interval = synth.synth_interval(&query, ApproxKind::Under).unwrap();
        assert_eq!(interval.truthy().size(), 401);
        let powerset = synth.synth_powerset(&query, ApproxKind::Under, 3).unwrap();
        assert_eq!(powerset.truthy().size(), 3 * 401);
        check_under_soundness(&query, &powerset);
    }

    #[test]
    fn greedy_strategy_is_never_more_precise_than_pareto_here() {
        let query = nearby_query();
        let mut pareto = Synthesizer::with_config(test_config());
        let mut greedy = Synthesizer::with_config(
            test_config().with_strategy(anosy_solver::ExpansionStrategy::Greedy),
        );
        let p = pareto.synth_interval(&query, ApproxKind::Under).unwrap();
        let g = greedy.synth_interval(&query, ApproxKind::Under).unwrap();
        assert!(p.truthy().size() >= g.truthy().size());
    }

    #[test]
    fn stats_accumulate() {
        let mut synth = Synthesizer::with_config(test_config());
        let _ = synth.synth_interval(&nearby_query(), ApproxKind::Under).unwrap();
        assert!(synth.solver_stats().queries > 0);
    }

    #[test]
    fn candidates_are_interned_and_store_memoization_is_exercised() {
        let mut synth = Synthesizer::with_config(test_config().with_seeds(3));
        let _ = synth.synth_powerset(&nearby_query(), ApproxKind::Under, 3).unwrap();
        let stats = synth.synth_stats();
        assert!(stats.candidate_boxes > 0, "synthesis grew no candidate boxes");
        // The seed-diversification loop never regrows a covered box, so no duplicates here; the
        // counter existing and staying zero is the interesting property.
        assert_eq!(stats.duplicate_candidates, 0);
        let store = synth.store_stats();
        assert!(store.preds_interned > 0);
        assert!(
            store.cache_hits() > 0,
            "synthesis search should reuse memoized analyses ({} hits / {} misses)",
            store.cache_hits(),
            store.cache_misses()
        );
    }

    #[test]
    fn identical_queries_share_interned_candidates() {
        // Synthesizing the same query twice reuses every interned term: the second run creates
        // almost no new nodes in the store (a handful of fresh simplification intermediates are
        // allowed), which is the structural-sharing property the arena exists for.
        let mut synth = Synthesizer::with_config(test_config());
        let _ = synth.synth_interval(&nearby_query(), ApproxKind::Under).unwrap();
        let after_first = synth.store_stats().preds_interned;
        let _ = synth.synth_interval(&nearby_query(), ApproxKind::Under).unwrap();
        let after_second = synth.store_stats().preds_interned;
        assert_eq!(after_second, after_first, "re-synthesis interned new predicates");
    }

    #[test]
    fn candidate_boxes_intern_as_their_interval_domain_predicates() {
        use anosy_logic::Range;
        let mut solver = Solver::new();
        let store = solver.store_mut();
        for boxed in [
            IntBox::new(vec![Range::new(150, 250), Range::new(150, 250)]),
            IntBox::new(vec![Range::new(0, 400), Range::singleton(9)]),
            IntBox::new(vec![Range::empty(), Range::new(0, 4)]),
        ] {
            let id = store.intern_box(&boxed);
            assert_eq!(id, store.intern_pred(&IntervalDomain::from_box(&boxed).to_pred()));
        }
    }
}

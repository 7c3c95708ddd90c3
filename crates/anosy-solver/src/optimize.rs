//! Single-objective optimization by best-first branch and bound.
//!
//! `maximize`/`minimize` answer questions of the form "what is the largest value field `i` takes
//! over the models of the query?". Over-approximation synthesis (§5.3) is exactly one such pair
//! of questions per secret field.

use crate::propagate::{propagate_id, PROPAGATION_ROUNDS};
use crate::solver::SearchCtx;
use crate::SolverError;
use anosy_logic::{IntBox, PredId, TriBool};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered by the optimistic objective bound (ties broken by smaller boxes first and
/// then by insertion order, so ordering never inspects the box itself).
struct Entry {
    bound: i64,
    count: u128,
    id: usize,
    boxed: IntBox,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .cmp(&other.bound)
            .then_with(|| other.count.cmp(&self.count))
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Optimizes variable `var` over the models of `pred` in `space`.
///
/// Returns the optimum, or `None` when the predicate has no model in the space.
pub(crate) fn optimize(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    space: &IntBox,
    var: usize,
    maximize: bool,
) -> Result<Option<i64>, SolverError> {
    if space.is_empty() {
        return Ok(None);
    }
    // Best-first queue ordered by the optimistic bound of each box for the chosen objective.
    // For maximization the bound is the box's upper bound on `var`; for minimization we store
    // the negated lower bound so the same max-heap explores the most promising box first.
    let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
    let mut arena_counter = 0usize; // tie-breaker so the heap never compares IntBox values
    let mut best: Option<i64> = None;

    let bound_of = |b: &IntBox| -> i64 {
        if maximize {
            b.dim(var).hi()
        } else {
            -b.dim(var).lo()
        }
    };
    let better = |candidate: i64, best: i64| -> bool {
        if maximize {
            candidate > best
        } else {
            candidate < best
        }
    };

    queue.push(Entry {
        bound: bound_of(space),
        count: space.count(),
        id: arena_counter,
        boxed: space.clone(),
    });
    while let Some(Entry { bound, boxed: current, .. }) = queue.pop() {
        ctx.tick()?;
        if let Some(b) = best {
            // The queue is ordered by optimistic bound: once the most promising box cannot beat
            // the incumbent, nothing can.
            let incumbent_bound = if maximize { b } else { -b };
            if bound <= incumbent_bound {
                break;
            }
        }
        let narrowed = match propagate_id(ctx.store, pred, &current, PROPAGATION_ROUNDS) {
            Some(b) => b,
            None => {
                ctx.pruned += 1;
                continue;
            }
        };
        match ctx.store.eval_abstract_pred(pred, &narrowed) {
            TriBool::True => {
                let candidate =
                    if maximize { narrowed.dim(var).hi() } else { narrowed.dim(var).lo() };
                if best.is_none_or(|b| better(candidate, b)) {
                    best = Some(candidate);
                }
                continue;
            }
            TriBool::False => {
                ctx.pruned += 1;
                continue;
            }
            TriBool::Unknown => {}
        }
        if narrowed.is_singleton() {
            let point = narrowed.min_corner().expect("singleton box has a corner");
            if ctx.store.eval_pred(pred, &point).unwrap_or(false) {
                let candidate = point[var];
                if best.is_none_or(|b| better(candidate, b)) {
                    best = Some(candidate);
                }
            }
            continue;
        }
        let dim = narrowed
            .widest_splittable_dim()
            .expect("non-singleton, non-empty box has a splittable dimension");
        let (left, right) = narrowed.bisect(dim).expect("splittable dimension bisects");
        for half in [left, right] {
            arena_counter += 1;
            queue.push(Entry {
                bound: bound_of(&half),
                count: half.count(),
                id: arena_counter,
                boxed: half,
            });
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Solver, SolverConfig};
    use anosy_logic::{IntExpr, Pred, SecretLayout};

    fn solver() -> Solver {
        Solver::with_config(SolverConfig::for_tests())
    }

    fn loc_space() -> IntBox {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build().space()
    }

    #[test]
    fn extrema_of_the_nearby_diamond() {
        let mut s = solver();
        let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        assert_eq!(s.maximize(&nearby, &loc_space(), 0).unwrap(), Some(300));
        assert_eq!(s.minimize(&nearby, &loc_space(), 0).unwrap(), Some(100));
        assert_eq!(s.maximize(&nearby, &loc_space(), 1).unwrap(), Some(300));
        assert_eq!(s.minimize(&nearby, &loc_space(), 1).unwrap(), Some(100));
    }

    #[test]
    fn extrema_clip_at_the_space_boundary() {
        let mut s = solver();
        // Diamond centered near the corner of the space.
        let nearby = ((IntExpr::var(0) - 20).abs() + (IntExpr::var(1) - 20).abs()).le(100);
        assert_eq!(s.minimize(&nearby, &loc_space(), 0).unwrap(), Some(0));
        assert_eq!(s.maximize(&nearby, &loc_space(), 0).unwrap(), Some(120));
    }

    #[test]
    fn unsat_objective_returns_none() {
        let mut s = solver();
        assert_eq!(s.maximize(&Pred::False, &loc_space(), 0).unwrap(), None);
        let impossible = IntExpr::var(0).gt(10_000);
        assert_eq!(s.minimize(&impossible, &loc_space(), 0).unwrap(), None);
    }

    #[test]
    fn relational_queries_are_optimized_correctly() {
        let mut s = solver();
        // x <= 2 y && x + y <= 90: max x is 60 (at y = 30).
        let pred = Pred::and(vec![
            IntExpr::var(0).le(IntExpr::var(1) * 2),
            (IntExpr::var(0) + IntExpr::var(1)).le(90),
        ]);
        assert_eq!(s.maximize(&pred, &loc_space(), 0).unwrap(), Some(60));
        assert_eq!(s.minimize(&pred, &loc_space(), 0).unwrap(), Some(0));
    }

    #[test]
    fn matches_brute_force_on_small_spaces() {
        let mut s = solver();
        let layout = SecretLayout::builder().field("x", -7, 7).field("y", -7, 7).build();
        let space = layout.space();
        let preds = vec![
            (IntExpr::var(0) + IntExpr::var(1)).le(-3),
            IntExpr::var(0).abs().max_expr(IntExpr::var(1).abs()).le(4),
            IntExpr::var(0).one_of([-6, -1, 5]),
        ];
        for pred in preds {
            for var in 0..2 {
                let models: Vec<i64> =
                    space.points().filter(|p| pred.eval(p).unwrap()).map(|p| p[var]).collect();
                let expected_max = models.iter().copied().max();
                let expected_min = models.iter().copied().min();
                assert_eq!(s.maximize(&pred, &space, var).unwrap(), expected_max, "max {pred}");
                assert_eq!(s.minimize(&pred, &space, var).unwrap(), expected_min, "min {pred}");
            }
        }
    }
}

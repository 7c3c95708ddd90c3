//! Satisfiability: depth-first branch-and-prune model search, over interned predicates.

use crate::propagate::PROPAGATION_ROUNDS;
use crate::solver::SearchCtx;
use crate::{CompiledPred, SolverError};
use anosy_logic::{IntBox, Point, PredId, TriBool};

/// Finds a model of `pred` inside `space`, or proves there is none.
///
/// The search stack and the compiled predicate live in the context, so the many searches of one
/// query (the probes of a maximal-box search) share one allocation and one compilation.
pub(crate) fn find_model(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    space: &IntBox,
) -> Result<Option<Point>, SolverError> {
    if space.is_empty() {
        return Ok(None);
    }
    ctx.with_program(pred, |ctx, program| {
        ctx.with_stack(|ctx, stack| {
            stack.push(space.clone());
            search(ctx, pred, program, stack)
        })
    })
}

fn search(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    program: &mut CompiledPred,
    stack: &mut Vec<IntBox>,
) -> Result<Option<Point>, SolverError> {
    while let Some(current) = stack.pop() {
        ctx.tick()?;
        let narrowed = match program.narrow(&current, PROPAGATION_ROUNDS) {
            Some(b) => b,
            None => {
                ctx.pruned += 1;
                continue;
            }
        };
        match program.eval(&narrowed) {
            TriBool::True => {
                return Ok(narrowed.min_corner());
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
                return Ok(Some(point));
            }
            ctx.pruned += 1;
            continue;
        }
        let dim = narrowed
            .widest_splittable_dim()
            .expect("non-singleton, non-empty box has a splittable dimension");
        let (left, right) = narrowed.bisect(dim).expect("splittable dimension bisects");
        // Explore the left half first (deterministic, lexicographically smallest models first).
        stack.push(right);
        stack.push(left);
    }
    Ok(None)
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
    fn finds_a_model_of_the_nearby_query() {
        let mut s = solver();
        let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        let model = s.find_model(&nearby, &loc_space()).unwrap().unwrap();
        assert!(nearby.eval(&model).unwrap());
    }

    #[test]
    fn reports_unsat_for_contradictions() {
        let mut s = solver();
        let pred = Pred::and(vec![IntExpr::var(0).le(10), IntExpr::var(0).ge(11)]);
        assert!(s.find_model(&pred, &loc_space()).unwrap().is_none());
        assert!(!s.is_satisfiable(&Pred::False, &loc_space()).unwrap());
    }

    #[test]
    fn finds_the_unique_model_of_two_diamonds() {
        // §2.1: nearby(200,200) && nearby(400,200) has the single model (300, 200).
        let mut s = solver();
        let d1 = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        let d2 = ((IntExpr::var(0) - 400).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        let model = s.find_model(&d1.and_also(d2), &loc_space()).unwrap().unwrap();
        assert_eq!(model, Point::new(vec![300, 200]));
    }

    #[test]
    fn model_is_lexicographically_smallest_for_simple_boxes() {
        let mut s = solver();
        let pred = Pred::and(vec![IntExpr::var(0).ge(17), IntExpr::var(1).ge(3)]);
        let model = s.find_model(&pred, &loc_space()).unwrap().unwrap();
        assert_eq!(model, Point::new(vec![17, 3]));
    }

    #[test]
    fn empty_space_has_no_model() {
        let mut s = solver();
        let empty = IntBox::new(vec![anosy_logic::Range::empty(), anosy_logic::Range::empty()]);
        assert!(s.find_model(&Pred::True, &empty).unwrap().is_none());
    }

    #[test]
    fn point_wise_disjunction_queries_are_solved() {
        let mut s = solver();
        let pred = IntExpr::var(0).one_of([7, 123, 399]).and_also(IntExpr::var(1).eq(42));
        let model = s.find_model(&pred, &loc_space()).unwrap().unwrap();
        assert!(pred.eval(&model).unwrap());
    }
}

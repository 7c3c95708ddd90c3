//! Exact model counting.
//!
//! Counting is how ANOSY-RS computes the ground-truth ind. set sizes of Table 1 and the `size`
//! of exact posteriors; it is also used by tests to cross-check the sizes reported by the
//! abstract domains.

use crate::propagate::PROPAGATION_ROUNDS;
use crate::solver::SearchCtx;
use crate::{CompiledPred, SolverError};
use anosy_logic::{IntBox, PredId, TriBool};

/// Counts the models of `pred` inside `space`, exactly.
pub(crate) fn count_models(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    space: &IntBox,
) -> Result<u128, SolverError> {
    if space.is_empty() {
        return Ok(0);
    }
    ctx.with_program(pred, |ctx, program| {
        ctx.with_stack(|ctx, stack| {
            stack.push(space.clone());
            count(ctx, pred, program, stack)
        })
    })
}

fn count(
    ctx: &mut SearchCtx<'_>,
    pred: PredId,
    program: &mut CompiledPred,
    stack: &mut Vec<IntBox>,
) -> Result<u128, SolverError> {
    let mut total: u128 = 0;
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
                total += narrowed.count();
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
                total += 1;
            }
            continue;
        }
        let dim = narrowed
            .widest_splittable_dim()
            .expect("non-singleton, non-empty box has a splittable dimension");
        let (left, right) = narrowed.bisect(dim).expect("splittable dimension bisects");
        stack.push(left);
        stack.push(right);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Solver, SolverConfig};
    use anosy_logic::{IntExpr, Point, Pred, Range, SecretLayout};

    fn solver() -> Solver {
        Solver::with_config(SolverConfig::for_tests())
    }

    fn brute_force(pred: &Pred, space: &IntBox) -> u128 {
        space.points().filter(|p| pred.eval(p).unwrap()).count() as u128
    }

    #[test]
    fn diamond_count_matches_closed_form() {
        // A Manhattan ball of radius r fully inside the space has 2r² + 2r + 1 points.
        let mut s = solver();
        let space = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build().space();
        let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        assert_eq!(s.count_models(&nearby, &space).unwrap(), 2 * 100 * 100 + 2 * 100 + 1);
    }

    #[test]
    fn counts_agree_with_brute_force_on_small_spaces() {
        let mut s = solver();
        let layout = SecretLayout::builder().field("x", -8, 8).field("y", -8, 8).build();
        let space = layout.space();
        let preds = vec![
            Pred::True,
            Pred::False,
            (IntExpr::var(0).abs() + IntExpr::var(1).abs()).le(5),
            (IntExpr::var(0) + IntExpr::var(1) * 2).le(3),
            IntExpr::var(0).eq(IntExpr::var(1)),
            IntExpr::var(0).ne(IntExpr::var(1)),
            Pred::or(vec![IntExpr::var(0).le(-3), IntExpr::var(1).ge(3)]),
            IntExpr::var(0).one_of([-8, 0, 3, 8]),
            IntExpr::var(0).ge(0).implies(IntExpr::var(1).ge(0)),
            IntExpr::var(0).ge(0).iff(IntExpr::var(1).lt(0)),
        ];
        for pred in preds {
            assert_eq!(
                s.count_models(&pred, &space).unwrap(),
                brute_force(&pred, &space),
                "count mismatch for {pred}"
            );
        }
    }

    #[test]
    fn counting_respects_complements() {
        let mut s = solver();
        let layout = SecretLayout::builder().field("x", 0, 50).field("y", 0, 30).build();
        let space = layout.space();
        let pred = (IntExpr::var(0) - IntExpr::var(1)).abs().le(4);
        let t = s.count_models(&pred, &space).unwrap();
        let f =
            s.count_models(&anosy_logic::simplify_pred(&pred.clone().negate()), &space).unwrap();
        assert_eq!(t + f, space.count());
    }

    #[test]
    fn huge_aligned_spaces_count_quickly() {
        // Axis-aligned constraints over a ~10^13-point space (the Pizza benchmark scale) must be
        // counted without enumerating points.
        let mut s = Solver::with_config(SolverConfig::for_tests());
        let layout = SecretLayout::builder()
            .field("byear", 1900, 2010)
            .field("school", 0, 5)
            .field("lat", 0, 205_000)
            .field("lon", 0, 205_000)
            .build();
        let pred = Pred::and(vec![
            IntExpr::var(0).between(1980, 1989),
            IntExpr::var(1).ge(4),
            IntExpr::var(2).between(50_000, 75_000),
            IntExpr::var(3).between(100_000, 125_000),
        ]);
        let count = s.count_models(&pred, &layout.space()).unwrap();
        assert_eq!(count, 10 * 2 * 25_001 * 25_001);
    }

    #[test]
    fn empty_space_counts_zero() {
        let mut s = solver();
        let empty = IntBox::new(vec![Range::empty()]);
        assert_eq!(s.count_models(&Pred::True, &empty).unwrap(), 0);
        let _ = Point::new(vec![]);
    }
}

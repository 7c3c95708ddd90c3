//! Interval constraint propagation (HC4-style narrowing).
//!
//! Narrowing takes a predicate and a box and removes slices of the box that provably contain no
//! model of the predicate. It is the pruning engine of every search in this crate. Soundness
//! contract: **narrowing never removes a model** — every point of the input box that satisfies
//! the predicate is still in the output box (this is what makes it usable for exact model
//! counting).
//!
//! The narrowing procedures operate on interned [`PredId`]/[`ExprId`] terms so that the range
//! analyses they perform ([`TermStore::eval_abstract_expr`]) are memoized in the store and reused
//! across fixed-point rounds and across search nodes that revisit the same `(term, box)` pair.
//! The tree-level entry point [`propagate`] (exported as [`crate::narrow_box`]) interns into a
//! private store, which keeps the abstract-interpretation baseline in `anosy-suite` working
//! unchanged.

use anosy_logic::{
    CmpOp, ExprId, ExprNode, IntBox, Pred, PredId, PredShape, Range, TermStore, TriBool,
};

/// Fixed-point iterations of constraint propagation per search node.
pub(crate) const PROPAGATION_ROUNDS: usize = 8;

/// Narrows `boxed` with respect to `pred`, iterating to a (bounded) fixed point.
///
/// Returns `None` when the box provably contains no model of `pred`. This is exposed publicly
/// (as [`crate::narrow_box`]) because forward conditioning with a single narrowing pass is
/// exactly what the abstract-interpretation baseline in `anosy-suite` needs.
pub fn propagate(pred: &Pred, boxed: &IntBox, rounds: usize) -> Option<IntBox> {
    let mut store = TermStore::new();
    let id = store.intern_pred(pred);
    propagate_id(&mut store, id, boxed, rounds)
}

/// Id-based narrowing over a shared store: the form every solver search uses (exported as
/// [`crate::narrow_box_id`]).
///
/// Returns `None` when the box provably contains no model of `pred`. Narrowing a box of up to
/// four dimensions allocates nothing beyond the store's memo entries for deep terms.
pub fn propagate_id(
    store: &mut TermStore,
    pred: PredId,
    boxed: &IntBox,
    rounds: usize,
) -> Option<IntBox> {
    anosy_telemetry::count("solver.propagate", 1);
    let mut current = boxed.clone();
    if current.is_empty() {
        return None;
    }
    for _ in 0..rounds.max(1) {
        let next = narrow_pred(store, pred, &current)?;
        if next == current {
            return Some(next);
        }
        current = next;
        if current.is_empty() {
            return None;
        }
    }
    Some(current)
}

/// Componentwise hull of two boxes of equal arity.
fn box_hull(a: &IntBox, b: &IntBox) -> IntBox {
    a.dims().iter().zip(b.dims()).map(|(x, y)| x.hull(*y)).collect()
}

fn narrow_pred(store: &mut TermStore, pred: PredId, boxed: &IntBox) -> Option<IntBox> {
    // `pred_shape` avoids cloning connective child vectors on this hot path; children are
    // fetched by index instead.
    match store.pred_shape(pred) {
        PredShape::True => Some(boxed.clone()),
        PredShape::False => None,
        PredShape::Cmp(op, a, b) => narrow_cmp(store, op, a, b, boxed),
        PredShape::And(len) => {
            let mut current = boxed.clone();
            for i in 0..len {
                let child = store.pred_child(pred, i);
                current = narrow_pred(store, child, &current)?;
                if current.is_empty() {
                    return None;
                }
            }
            Some(current)
        }
        PredShape::Or(len) => {
            let mut acc: Option<IntBox> = None;
            for i in 0..len {
                let child = store.pred_child(pred, i);
                if let Some(narrowed) = narrow_pred(store, child, boxed) {
                    acc = Some(match acc {
                        None => narrowed,
                        Some(prev) => box_hull(&prev, &narrowed),
                    });
                }
            }
            acc
        }
        // Non-NNF connectives: fall back to the abstract evaluator, which is still sound.
        PredShape::Not(_) | PredShape::Implies(..) | PredShape::Iff(..) => {
            match store.eval_abstract_pred(pred, boxed) {
                TriBool::False => None,
                _ => Some(boxed.clone()),
            }
        }
    }
}

fn narrow_cmp(
    store: &mut TermStore,
    op: CmpOp,
    lhs: ExprId,
    rhs: ExprId,
    boxed: &IntBox,
) -> Option<IntBox> {
    // Fast path via the (memoized) abstract evaluator.
    let ra = store.eval_abstract_expr(lhs, boxed);
    let rb = store.eval_abstract_expr(rhs, boxed);
    match op {
        CmpOp::Le => {
            if ra.le(rb) == TriBool::False {
                return None;
            }
            let narrowed = narrow_expr(store, lhs, boxed, Range::new(i64::MIN, rb.hi()))?;
            let ra2 = store.eval_abstract_expr(lhs, &narrowed);
            narrow_expr(store, rhs, &narrowed, Range::new(ra2.lo(), i64::MAX))
        }
        CmpOp::Lt => {
            if ra.lt(rb) == TriBool::False {
                return None;
            }
            let hi = rb.hi().saturating_sub(1);
            let narrowed = narrow_expr(store, lhs, boxed, Range::new(i64::MIN, hi))?;
            let ra2 = store.eval_abstract_expr(lhs, &narrowed);
            narrow_expr(store, rhs, &narrowed, Range::new(ra2.lo().saturating_add(1), i64::MAX))
        }
        CmpOp::Ge => narrow_cmp(store, CmpOp::Le, rhs, lhs, boxed),
        CmpOp::Gt => narrow_cmp(store, CmpOp::Lt, rhs, lhs, boxed),
        CmpOp::Eq => {
            let common = ra.intersect(rb);
            if common.is_empty() {
                return None;
            }
            let narrowed = narrow_expr(store, lhs, boxed, common)?;
            let ra2 = store.eval_abstract_expr(lhs, &narrowed);
            let rb2 = store.eval_abstract_expr(rhs, &narrowed);
            let common2 = ra2.intersect(rb2);
            if common2.is_empty() {
                return None;
            }
            narrow_expr(store, rhs, &narrowed, common2)
        }
        CmpOp::Ne => {
            // Boxes cannot represent a "hole"; only prune the definitely-false case.
            if ra.is_singleton() && rb.is_singleton() && ra.lo() == rb.lo() {
                None
            } else {
                Some(boxed.clone())
            }
        }
    }
}

fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

fn clamp_i128(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

/// Narrows `boxed` to the points where `expr` *may* evaluate to a value inside `required`.
///
/// Returns `None` when no point of the box can produce a value in `required`.
fn narrow_expr(
    store: &mut TermStore,
    expr: ExprId,
    boxed: &IntBox,
    required: Range,
) -> Option<IntBox> {
    if required.is_empty() {
        return None;
    }
    match store.expr_node(expr).clone() {
        ExprNode::Const(c) => {
            if required.contains(c) {
                Some(boxed.clone())
            } else {
                None
            }
        }
        ExprNode::Var(i) => {
            if i >= boxed.arity() {
                // Unknown variable: cannot narrow, stay sound.
                return Some(boxed.clone());
            }
            let new_range = boxed.dim(i).intersect(required);
            if new_range.is_empty() {
                None
            } else {
                Some(boxed.with_dim(i, new_range))
            }
        }
        ExprNode::Add(a, b) => {
            let ra = store.eval_abstract_expr(a, boxed);
            let rb = store.eval_abstract_expr(b, boxed);
            if ra.add(rb).intersect(required).is_empty() {
                return None;
            }
            let narrowed = narrow_expr(store, a, boxed, required.sub(rb))?;
            let ra2 = store.eval_abstract_expr(a, &narrowed);
            narrow_expr(store, b, &narrowed, required.sub(ra2))
        }
        ExprNode::Sub(a, b) => {
            let ra = store.eval_abstract_expr(a, boxed);
            let rb = store.eval_abstract_expr(b, boxed);
            if ra.sub(rb).intersect(required).is_empty() {
                return None;
            }
            // a - b ∈ required  ⇒  a ∈ required + b  and  b ∈ a - required
            let narrowed = narrow_expr(store, a, boxed, required.add(rb))?;
            let ra2 = store.eval_abstract_expr(a, &narrowed);
            narrow_expr(store, b, &narrowed, ra2.sub(required))
        }
        ExprNode::Neg(a) => narrow_expr(store, a, boxed, required.neg()),
        ExprNode::Scale(k, a) => {
            if k == 0 {
                return if required.contains(0) { Some(boxed.clone()) } else { None };
            }
            let (lo, hi) = if k > 0 {
                (
                    ceil_div(required.lo() as i128, k as i128),
                    floor_div(required.hi() as i128, k as i128),
                )
            } else {
                (
                    ceil_div(required.hi() as i128, k as i128),
                    floor_div(required.lo() as i128, k as i128),
                )
            };
            if lo > hi {
                return None;
            }
            narrow_expr(store, a, boxed, Range::new(clamp_i128(lo), clamp_i128(hi)))
        }
        ExprNode::Abs(a) => {
            let feasible = required.intersect(Range::new(0, i64::MAX));
            if feasible.is_empty() {
                return None;
            }
            let ra = store.eval_abstract_expr(a, boxed);
            if ra.lo() >= 0 {
                narrow_expr(store, a, boxed, feasible)
            } else if ra.hi() <= 0 {
                narrow_expr(store, a, boxed, feasible.neg())
            } else {
                // |a| <= feasible.hi  ⇒  a ∈ [-hi, hi]; the "hole" below feasible.lo cannot be
                // represented by a single interval, so we keep only the outer bound.
                narrow_expr(store, a, boxed, Range::new(-feasible.hi(), feasible.hi()))
            }
        }
        ExprNode::Min(a, b) => {
            // min(a, b) >= required.lo ⇒ both operands >= required.lo.
            let lower = Range::new(required.lo(), i64::MAX);
            let ra = store.eval_abstract_expr(a, boxed);
            let rb = store.eval_abstract_expr(b, boxed);
            if ra.min(rb).intersect(required).is_empty() {
                return None;
            }
            let narrowed = narrow_expr(store, a, boxed, lower)?;
            narrow_expr(store, b, &narrowed, lower)
        }
        ExprNode::Max(a, b) => {
            // max(a, b) <= required.hi ⇒ both operands <= required.hi.
            let upper = Range::new(i64::MIN, required.hi());
            let ra = store.eval_abstract_expr(a, boxed);
            let rb = store.eval_abstract_expr(b, boxed);
            if ra.max(rb).intersect(required).is_empty() {
                return None;
            }
            let narrowed = narrow_expr(store, a, boxed, upper)?;
            narrow_expr(store, b, &narrowed, upper)
        }
        ExprNode::Ite(c, t, e) => match store.eval_abstract_pred(c, boxed) {
            TriBool::True => narrow_expr(store, t, boxed, required),
            TriBool::False => narrow_expr(store, e, boxed, required),
            TriBool::Unknown => {
                // Either branch may apply; we can only prune if *neither* branch can reach the
                // required range.
                let rt = store.eval_abstract_expr(t, boxed);
                let re = store.eval_abstract_expr(e, boxed);
                if rt.intersect(required).is_empty() && re.intersect(required).is_empty() {
                    None
                } else {
                    Some(boxed.clone())
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::{simplify_pred, IntExpr, Point, SecretLayout};

    fn space(side: i64) -> IntBox {
        IntBox::new(vec![Range::new(0, side), Range::new(0, side)])
    }

    fn nearby(xo: i64, yo: i64, d: i64) -> Pred {
        ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(d)
    }

    /// Narrowing must never remove a model.
    fn assert_preserves_models(pred: &Pred, boxed: &IntBox) {
        let narrowed = propagate(pred, boxed, 8);
        for p in boxed.points() {
            if pred.eval(&p).unwrap() {
                let n = narrowed
                    .as_ref()
                    .unwrap_or_else(|| panic!("box pruned although {p} is a model"));
                assert!(n.contains_point(&p), "model {p} was narrowed away");
            }
        }
    }

    #[test]
    fn narrowing_tightens_simple_bounds() {
        let pred = Pred::and(vec![IntExpr::var(0).ge(10), IntExpr::var(0).le(20)]);
        let narrowed = propagate(&pred, &space(400), 4).unwrap();
        assert_eq!(narrowed.dim(0), Range::new(10, 20));
        assert_eq!(narrowed.dim(1), Range::new(0, 400));
    }

    #[test]
    fn narrowing_handles_arithmetic_chains() {
        // x + y <= 10 over [0,400]^2 narrows both coordinates to [0, 10].
        let pred = (IntExpr::var(0) + IntExpr::var(1)).le(10);
        let narrowed = propagate(&pred, &space(400), 4).unwrap();
        assert_eq!(narrowed.dim(0), Range::new(0, 10));
        assert_eq!(narrowed.dim(1), Range::new(0, 10));
    }

    #[test]
    fn narrowing_the_nearby_query_bounds_the_diamond() {
        let narrowed = propagate(&nearby(200, 200, 100), &space(400), 8).unwrap();
        assert_eq!(narrowed.dim(0), Range::new(100, 300));
        assert_eq!(narrowed.dim(1), Range::new(100, 300));
    }

    #[test]
    fn id_based_narrowing_agrees_with_the_tree_wrapper_and_reuses_ranges() {
        let mut store = TermStore::new();
        // A deep arithmetic spine (well past the store's memo depth gate), so the range
        // analyses behind narrowing are memoized and reused across runs.
        let mut sum = (IntExpr::var(0) - 0).abs();
        for i in 1..8i64 {
            sum = sum + (IntExpr::var((i % 2) as usize) - 50 * i).abs();
        }
        let pred = sum.le(1500);
        let id = store.intern_pred(&pred);
        let first = propagate_id(&mut store, id, &space(400), 8);
        assert_eq!(first, propagate(&pred, &space(400), 8));
        // Running the same narrowing again over the shared store is answered mostly from the
        // (id, box) range memo.
        let misses = store.stats().range_misses;
        let second = propagate_id(&mut store, id, &space(400), 8);
        assert_eq!(first, second);
        assert_eq!(store.stats().range_misses, misses, "re-run should not re-analyze ranges");
        assert!(store.stats().range_hits > 0);
    }

    #[test]
    fn contradictions_prune_the_whole_box() {
        let pred = Pred::and(vec![IntExpr::var(0).le(10), IntExpr::var(0).ge(20)]);
        assert!(propagate(&pred, &space(400), 4).is_none());
        let eq = IntExpr::var(0).eq(1000);
        assert!(propagate(&eq, &space(400), 4).is_none());
        assert!(propagate(&Pred::False, &space(5), 4).is_none());
    }

    #[test]
    fn disjunction_narrows_to_the_hull_of_branches() {
        let pred = Pred::or(vec![IntExpr::var(0).between(2, 4), IntExpr::var(0).between(10, 12)]);
        let narrowed = propagate(&pred, &space(400), 4).unwrap();
        assert_eq!(narrowed.dim(0), Range::new(2, 12));
    }

    #[test]
    fn scale_narrowing_uses_integer_division() {
        // 3 * x >= 10  ⇒  x >= 4 over the integers.
        let pred = (IntExpr::var(0) * 3).ge(10);
        let narrowed = propagate(&pred, &space(400), 4).unwrap();
        assert_eq!(narrowed.dim(0).lo(), 4);
        // -2 * x >= 6  ⇒  x <= -3, impossible over [0, 400].
        let neg = (IntExpr::var(0) * -2).ge(6);
        assert!(propagate(&neg, &space(400), 4).is_none());
        // 0 * x == 1 is unsatisfiable (the zero coefficient is the point of the test).
        #[allow(clippy::erasing_op)]
        let zero = (IntExpr::var(0) * 0).eq(1);
        assert!(propagate(&zero, &space(400), 4).is_none());
    }

    #[test]
    fn equality_and_min_max_narrowing() {
        let pred = IntExpr::var(0).min_expr(IntExpr::var(1)).ge(5);
        let narrowed = propagate(&pred, &space(20), 4).unwrap();
        assert_eq!(narrowed.dim(0).lo(), 5);
        assert_eq!(narrowed.dim(1).lo(), 5);

        let pred = IntExpr::var(0).max_expr(IntExpr::var(1)).le(7);
        let narrowed = propagate(&pred, &space(20), 4).unwrap();
        assert_eq!(narrowed.dim(0).hi(), 7);
        assert_eq!(narrowed.dim(1).hi(), 7);

        let eq = IntExpr::var(0).eq(IntExpr::var(1) + 3);
        let boxed = IntBox::new(vec![Range::new(0, 4), Range::new(0, 100)]);
        let narrowed = propagate(&eq, &boxed, 8).unwrap();
        assert!(narrowed.dim(1).hi() <= 1);
    }

    #[test]
    fn propagation_preserves_models_on_small_spaces() {
        let layout = SecretLayout::builder().field("x", -6, 6).field("y", -6, 6).build();
        let preds = vec![
            nearby(0, 0, 4),
            simplify_pred(&nearby(0, 0, 4).negate()),
            (IntExpr::var(0) + IntExpr::var(1) * 2).le(3),
            IntExpr::var(0).eq(IntExpr::var(1)),
            IntExpr::var(0).ne(IntExpr::var(1)),
            Pred::or(vec![IntExpr::var(0).le(-3), IntExpr::var(0).ge(3)]),
            IntExpr::var(0).abs().max_expr(IntExpr::var(1).abs()).le(2),
            IntExpr::ite(IntExpr::var(0).ge(0), IntExpr::var(1), -IntExpr::var(1)).ge(1),
        ];
        for pred in preds {
            assert_preserves_models(&pred, &layout.space());
        }
    }

    #[test]
    fn ne_singleton_conflict_is_detected() {
        let pred = IntExpr::var(0).ne(IntExpr::var(0));
        let unit = IntBox::new(vec![Range::singleton(3)]);
        assert!(propagate(&pred, &unit, 2).is_none());
        let p = Point::new(vec![3]);
        assert!(!pred.eval(&p).unwrap());
    }

    #[test]
    fn division_helpers_round_correctly() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(ceil_div(6, 3), 2);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(ceil_div(7, -2), -3);
    }
}

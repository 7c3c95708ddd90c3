//! The store-walking narrowing the compiled kernel replaced, kept verbatim as the differential
//! reference of the kernel in the parent module.
//!
//! Every range analysis of this version goes through [`TermStore::eval_abstract_expr`] /
//! [`TermStore::eval_abstract_pred`]. The differential proptest in the parent module checks that
//! [`CompiledPred::narrow`](crate::CompiledPred::narrow) returns the same box as
//! [`propagate_id`] and that [`CompiledPred::eval`](crate::CompiledPred::eval) returns the
//! same truth as the store on every input.

use super::{box_hull, ceil_div, clamp_i128, floor_div};
use anosy_logic::{CmpOp, ExprId, ExprNode, IntBox, PredId, PredShape, Range, TermStore, TriBool};

/// Id-based narrowing over a shared store.
///
/// Returns `None` when the box provably contains no model of `pred`.
pub(super) fn propagate_id(
    store: &mut TermStore,
    pred: PredId,
    boxed: &IntBox,
    rounds: usize,
) -> Option<IntBox> {
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

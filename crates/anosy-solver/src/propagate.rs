//! Interval constraint propagation (HC4-style narrowing).
//!
//! Narrowing takes a predicate and a box and removes slices of the box that provably contain no
//! model of the predicate. It is the pruning engine of every search in this crate. Soundness
//! contract: **narrowing never removes a model** — every point of the input box that satisfies
//! the predicate is still in the output box (this is what makes it usable for exact model
//! counting).
//!
//! Narrowing runs over a [`CompiledPred`]: each solver run compiles its predicate once, and every
//! range analysis is a pass over a slice of the program's flat nodes (see `program.rs`), so no
//! step touches the term store. Nothing is memoized across boxes. Within one narrowing step the
//! box is narrowed in place, and an operand whose ranges the program's buffer already holds for
//! the current box is read instead of analysed again. A comparison compiled to a bound
//! (`x ⋈ c`) narrows by intersecting one dimension. The tree-level entry point [`propagate`]
//! (exported as [`crate::narrow_box`]) interns and compiles into private buffers, which keeps the
//! abstract-interpretation baseline in `anosy-suite` working unchanged.
//!
//! The store-walking recursion this kernel replaced is kept as the test-only
//! `propagate/reference.rs`; a differential proptest checks that both narrow every box alike.

use crate::program::{CompiledPred, Ix, Op};
use anosy_logic::{CmpOp, IntBox, Pred, Range, TermStore, TriBool};

#[cfg(test)]
mod reference;

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
    CompiledPred::compile(&store, id).narrow(boxed, rounds)
}

impl CompiledPred {
    /// Narrows `boxed` with respect to the compiled predicate, iterating to a (bounded) fixed
    /// point of at most `rounds` passes.
    ///
    /// Returns `None` when the box provably contains no model of the predicate. Narrowing a box
    /// of up to four dimensions allocates nothing.
    pub fn narrow(&mut self, boxed: &IntBox, rounds: usize) -> Option<IntBox> {
        anosy_telemetry::count("solver.propagate", 1);
        let mut current = boxed.clone();
        if current.is_empty() {
            return None;
        }
        for _ in 0..rounds.max(1) {
            let edits = self.edits;
            if !self.narrow_pred(self.root(), &mut current) {
                return None;
            }
            if self.edits == edits {
                return Some(current);
            }
            if current.is_empty() {
                return None;
            }
        }
        Some(current)
    }

    /// Narrows `boxed` in place by predicate node `n`. Returns `false` when the box holds no
    /// model of `n`; the box is then left part-narrowed, and every caller discards it.
    ///
    /// Every narrowing step only shrinks the box, and it counts each change of a box in
    /// `edits`, so a step that leaves `edits` as it found it left the box equal to its input.
    fn narrow_pred(&mut self, n: Ix, boxed: &mut IntBox) -> bool {
        match self.op(n) {
            Op::True => true,
            Op::False => false,
            Op::Cmp(op, a, b) => self.narrow_cmp(op, a, b, boxed),
            Op::Bound(var, allowed) => self.narrow_bound(var, allowed, boxed),
            Op::And(from, to) => {
                for i in from..to {
                    if !self.narrow_pred(self.kid(i), boxed) || boxed.is_empty() {
                        return false;
                    }
                }
                true
            }
            Op::Or(from, to) => {
                // Each branch narrows its own copy of the box; only the hull of the branches
                // that survive replaces the box, so only a hull that differs counts as an edit.
                let edits = self.edits;
                let mut hull: Option<IntBox> = None;
                for i in from..to {
                    let mut branch = boxed.clone();
                    if self.narrow_pred(self.kid(i), &mut branch) {
                        hull = Some(match hull {
                            None => branch,
                            Some(prev) => box_hull(&prev, &branch),
                        });
                    }
                }
                self.edits = edits;
                match hull {
                    None => false,
                    Some(hull) => {
                        self.replace(boxed, hull);
                        true
                    }
                }
            }
            // Non-NNF connectives: fall back to the abstract evaluator, which is still sound.
            Op::Not(_) | Op::Implies(..) | Op::Iff(..) => self.truth(n, boxed) != TriBool::False,
            _ => unreachable!("predicate position holds an expression node"),
        }
    }

    /// Replaces `boxed` with `narrowed` (a sub-box of it), counting the edit if they differ.
    fn replace(&mut self, boxed: &mut IntBox, narrowed: IntBox) {
        if narrowed != *boxed {
            *boxed = narrowed;
            self.edits += 1;
        }
    }

    /// Narrows dimension `var` of `boxed` to its intersection with `required`. A variable beyond
    /// the box's arity is unknown and narrows nothing, which stays sound.
    fn narrow_var(&mut self, var: usize, boxed: &mut IntBox, required: Range) -> bool {
        if var >= boxed.arity() {
            return true;
        }
        let current = boxed.dim(var);
        let narrowed = current.intersect(required);
        if narrowed.is_empty() {
            return false;
        }
        if narrowed != current {
            boxed.set_dim(var, narrowed);
            self.edits += 1;
        }
        true
    }

    /// Narrows `boxed` by the bound `var ∈ allowed`.
    ///
    /// This is the box [`CompiledPred::narrow_cmp`] gives on the comparison the bound was
    /// compiled from, `var ⋈ c`: the variable narrows to the part of its range that satisfies
    /// the comparison, and the constant, which the narrowed variable can then still reach,
    /// narrows nothing. So the box is pruned when that part is empty, and a variable beyond the
    /// box's arity (range unknown) narrows nothing unless no value at all satisfies the
    /// comparison.
    fn narrow_bound(&mut self, var: usize, allowed: Range, boxed: &mut IntBox) -> bool {
        !allowed.is_empty() && self.narrow_var(var, boxed, allowed)
    }

    fn narrow_cmp(&mut self, op: CmpOp, lhs: Ix, rhs: Ix, boxed: &mut IntBox) -> bool {
        let ra = self.range(lhs, boxed);
        let rb = self.range(rhs, boxed);
        match op {
            CmpOp::Le => {
                if ra.le(rb) == TriBool::False {
                    return false;
                }
                let edits = self.edits;
                if !self.narrow_expr(lhs, boxed, Range::new(i64::MIN, rb.hi()), true) {
                    return false;
                }
                let same = self.edits == edits;
                let ra2 = if same { ra } else { self.range(lhs, boxed) };
                self.narrow_expr(rhs, boxed, Range::new(ra2.lo(), i64::MAX), same)
            }
            CmpOp::Lt => {
                if ra.lt(rb) == TriBool::False {
                    return false;
                }
                let hi = rb.hi().saturating_sub(1);
                let edits = self.edits;
                if !self.narrow_expr(lhs, boxed, Range::new(i64::MIN, hi), true) {
                    return false;
                }
                let same = self.edits == edits;
                let ra2 = if same { ra } else { self.range(lhs, boxed) };
                let required = Range::new(ra2.lo().saturating_add(1), i64::MAX);
                self.narrow_expr(rhs, boxed, required, same)
            }
            CmpOp::Ge => self.narrow_cmp(CmpOp::Le, rhs, lhs, boxed),
            CmpOp::Gt => self.narrow_cmp(CmpOp::Lt, rhs, lhs, boxed),
            CmpOp::Eq => {
                let common = ra.intersect(rb);
                if common.is_empty() {
                    return false;
                }
                let edits = self.edits;
                if !self.narrow_expr(lhs, boxed, common, true) {
                    return false;
                }
                let (ra2, rb2) = if self.edits == edits {
                    (ra, rb)
                } else {
                    (self.range(lhs, boxed), self.range(rhs, boxed))
                };
                let common2 = ra2.intersect(rb2);
                !common2.is_empty() && self.narrow_expr(rhs, boxed, common2, true)
            }
            // Boxes cannot represent a "hole"; only prune the definitely-false case.
            CmpOp::Ne => !(ra.is_singleton() && rb.is_singleton() && ra.lo() == rb.lo()),
        }
    }

    /// The range of expression node `n` over `boxed`, read from the buffer when `fresh` says the
    /// buffer holds the ranges of `n`'s subtree over `boxed`.
    fn range_at(&mut self, n: Ix, boxed: &IntBox, fresh: bool) -> Range {
        if fresh {
            self.cached_range(n, boxed)
        } else {
            self.range(n, boxed)
        }
    }

    /// Narrows `boxed` in place to the points where expression node `n` *may* evaluate to a
    /// value inside `required`. Returns `false` when no point of the box can produce a value in
    /// `required`.
    ///
    /// `fresh` says that the buffer holds the ranges and truths of `n`'s subtree over `boxed`,
    /// so they are read instead of computed again. A narrowing step evaluates only inside the
    /// subtree it narrows, so when narrowing the left operand leaves the box as it was, the
    /// right operand's buffer is still fresh.
    fn narrow_expr(&mut self, n: Ix, boxed: &mut IntBox, required: Range, fresh: bool) -> bool {
        if required.is_empty() {
            return false;
        }
        match self.op(n) {
            Op::Const(c) => required.contains(c),
            Op::Var(i) => self.narrow_var(i, boxed, required),
            Op::Add(a, b) => {
                let ra = self.range_at(a, boxed, fresh);
                let rb = self.range_at(b, boxed, fresh);
                if ra.add(rb).intersect(required).is_empty() {
                    return false;
                }
                let edits = self.edits;
                if !self.narrow_expr(a, boxed, required.sub(rb), true) {
                    return false;
                }
                let same = self.edits == edits;
                let ra2 = if same { ra } else { self.range(a, boxed) };
                self.narrow_expr(b, boxed, required.sub(ra2), same)
            }
            Op::Sub(a, b) => {
                let ra = self.range_at(a, boxed, fresh);
                let rb = self.range_at(b, boxed, fresh);
                if ra.sub(rb).intersect(required).is_empty() {
                    return false;
                }
                // a - b ∈ required  ⇒  a ∈ required + b  and  b ∈ a - required
                let edits = self.edits;
                if !self.narrow_expr(a, boxed, required.add(rb), true) {
                    return false;
                }
                let same = self.edits == edits;
                let ra2 = if same { ra } else { self.range(a, boxed) };
                self.narrow_expr(b, boxed, ra2.sub(required), same)
            }
            Op::Neg(a) => self.narrow_expr(a, boxed, required.neg(), fresh),
            Op::Scale(k, a) => {
                if k == 0 {
                    return required.contains(0);
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
                lo <= hi
                    && self.narrow_expr(a, boxed, Range::new(clamp_i128(lo), clamp_i128(hi)), fresh)
            }
            Op::Abs(a) => {
                let feasible = required.intersect(Range::new(0, i64::MAX));
                if feasible.is_empty() {
                    return false;
                }
                let ra = self.range_at(a, boxed, fresh);
                if ra.lo() >= 0 {
                    self.narrow_expr(a, boxed, feasible, true)
                } else if ra.hi() <= 0 {
                    self.narrow_expr(a, boxed, feasible.neg(), true)
                } else {
                    // |a| <= feasible.hi  ⇒  a ∈ [-hi, hi]; the "hole" below feasible.lo cannot
                    // be represented by a single interval, so we keep only the outer bound.
                    self.narrow_expr(a, boxed, Range::new(-feasible.hi(), feasible.hi()), true)
                }
            }
            Op::Min(a, b) => {
                // min(a, b) >= required.lo ⇒ both operands >= required.lo.
                let lower = Range::new(required.lo(), i64::MAX);
                let ra = self.range_at(a, boxed, fresh);
                let rb = self.range_at(b, boxed, fresh);
                if ra.min(rb).intersect(required).is_empty() {
                    return false;
                }
                let edits = self.edits;
                if !self.narrow_expr(a, boxed, lower, true) {
                    return false;
                }
                let same = self.edits == edits;
                self.narrow_expr(b, boxed, lower, same)
            }
            Op::Max(a, b) => {
                // max(a, b) <= required.hi ⇒ both operands <= required.hi.
                let upper = Range::new(i64::MIN, required.hi());
                let ra = self.range_at(a, boxed, fresh);
                let rb = self.range_at(b, boxed, fresh);
                if ra.max(rb).intersect(required).is_empty() {
                    return false;
                }
                let edits = self.edits;
                if !self.narrow_expr(a, boxed, upper, true) {
                    return false;
                }
                let same = self.edits == edits;
                self.narrow_expr(b, boxed, upper, same)
            }
            Op::Ite(c, t, e) => {
                let cond = if fresh { self.cached_truth(c, boxed) } else { self.truth(c, boxed) };
                match cond {
                    TriBool::True => self.narrow_expr(t, boxed, required, fresh),
                    TriBool::False => self.narrow_expr(e, boxed, required, fresh),
                    // Either branch may apply; we can only prune if *neither* branch can reach
                    // the required range.
                    TriBool::Unknown => {
                        let rt = self.range_at(t, boxed, fresh);
                        let re = self.range_at(e, boxed, fresh);
                        !(rt.intersect(required).is_empty() && re.intersect(required).is_empty())
                    }
                }
            }
            _ => unreachable!("expression position holds a predicate node"),
        }
    }
}

/// Componentwise hull of two boxes of equal arity.
fn box_hull(a: &IntBox, b: &IntBox) -> IntBox {
    a.dims().iter().zip(b.dims()).map(|(x, y)| x.hull(*y)).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::{simplify_pred, IntExpr, Point, SecretLayout};
    use proptest::prelude::*;

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
    fn id_based_narrowing_agrees_with_the_tree_wrapper() {
        let mut store = TermStore::new();
        // A deep arithmetic spine, narrowed by the compiled kernel, the tree wrapper and the
        // store-walking reference.
        let mut sum = (IntExpr::var(0) - 0).abs();
        for i in 1..8i64 {
            sum = sum + (IntExpr::var((i % 2) as usize) - 50 * i).abs();
        }
        let pred = sum.le(1500);
        let id = store.intern_pred(&pred);
        let mut program = CompiledPred::compile(&store, id);
        let first = program.narrow(&space(400), 8);
        assert_eq!(first, propagate(&pred, &space(400), 8));
        assert_eq!(first, reference::propagate_id(&mut store, id, &space(400), 8));
        // A compiled program narrows the same box again to the same result.
        assert_eq!(program.narrow(&space(400), 8), first);
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

    /// A random constant: mostly small, now and then at or next to the `i64` limits, where the
    /// saturating bounds of the narrowing matter.
    fn constant(rng: &mut TestRng) -> i64 {
        match rng.below(16) {
            0 => i64::MIN + rng.below(3) as i64,
            1 => i64::MAX - rng.below(3) as i64,
            _ => rng.below(21) as i64 - 10,
        }
    }

    /// A random variable of a box of `arity` dimensions, now and then one beyond the arity.
    fn variable(rng: &mut TestRng, arity: usize) -> IntExpr {
        let beyond = rng.below(16) == 0;
        IntExpr::var(if beyond { arity } else { rng.below(arity as u64) as usize })
    }

    /// A random expression, mostly linear arithmetic over few variables, so that narrowing one
    /// operand tightens the range of the other.
    fn random_expr(rng: &mut TestRng, arity: usize, depth: u32) -> IntExpr {
        if depth == 0 || rng.below(3) == 0 {
            return if rng.below(4) == 0 {
                IntExpr::constant(constant(rng))
            } else {
                variable(rng, arity)
            };
        }
        let sub = |rng: &mut TestRng| random_expr(rng, arity, depth - 1);
        match rng.below(20) {
            0..=4 => sub(rng) + sub(rng),
            5..=8 => sub(rng) - sub(rng),
            9 | 10 => sub(rng).abs(),
            11 | 12 => {
                let k = match rng.below(8) {
                    0 => [i64::MIN, i64::MIN + 1, i64::MAX, 0][rng.below(4) as usize],
                    _ => rng.below(7) as i64 - 3,
                };
                sub(rng).scale(k)
            }
            13 | 14 => -sub(rng),
            15 | 16 => sub(rng).min_expr(sub(rng)),
            17 | 18 => sub(rng).max_expr(sub(rng)),
            _ => {
                let cond = random_pred(rng, arity, depth - 1);
                IntExpr::ite(cond, sub(rng), sub(rng))
            }
        }
    }

    fn random_op(rng: &mut TestRng) -> CmpOp {
        [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq, CmpOp::Ne][rng.below(6) as usize]
    }

    fn random_pred(rng: &mut TestRng, arity: usize, depth: u32) -> Pred {
        if depth == 0 || rng.below(3) == 0 {
            let op = random_op(rng);
            return match rng.below(32) {
                0 => Pred::True,
                1 => Pred::False,
                // `var ⋈ const`, the atoms compiled to bounds.
                2..=10 => Pred::cmp(op, variable(rng, arity), constant(rng).into()),
                11..=21 => Pred::cmp(op, random_expr(rng, arity, depth + 1), constant(rng).into()),
                _ => {
                    let lhs = random_expr(rng, arity, depth + 1);
                    Pred::cmp(op, lhs, random_expr(rng, arity, depth + 1))
                }
            };
        }
        let sub = |rng: &mut TestRng| random_pred(rng, arity, depth - 1);
        match rng.below(10) {
            0..=2 => Pred::and((0..1 + rng.below(3)).map(|_| sub(rng)).collect()),
            3..=5 => Pred::or((0..1 + rng.below(3)).map(|_| sub(rng)).collect()),
            6 => sub(rng).negate(),
            7 | 8 => sub(rng).implies(sub(rng)),
            _ => sub(rng).iff(sub(rng)),
        }
    }

    fn random_range(rng: &mut TestRng) -> Range {
        let (a, b) = match rng.below(16) {
            0 => (i64::MIN, rng.below(41) as i64 - 20),
            1 => (rng.below(41) as i64 - 20, i64::MAX),
            _ => (rng.below(41) as i64 - 20, rng.below(41) as i64 - 20),
        };
        Range::new(a.min(b), a.max(b))
    }

    /// A random predicate in 1–4 dimensions (mostly one or two, so that terms share variables)
    /// and random boxes to narrow with it, each with a round budget.
    #[derive(Debug)]
    struct Case {
        pred: Pred,
        boxes: Vec<(IntBox, usize)>,
    }

    fn random_case(rng: &mut TestRng) -> Case {
        let arity = [1, 1, 2, 2, 2, 3, 4][rng.below(7) as usize];
        let depth = rng.below(4) as u32;
        let pred = random_pred(rng, arity, depth);
        let boxes = (0..32)
            .map(|_| ((0..arity).map(|_| random_range(rng)).collect(), 1 + rng.below(8) as usize))
            .collect();
        Case { pred, boxes }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The compiled kernel against the store-walking reference, on each predicate as the
        /// searches see it: as written, in NNF and negated.
        #[test]
        fn compiled_kernel_narrows_and_evaluates_like_the_reference(
            case in proptest::strategy::from_fn(random_case),
        ) {
            let mut store = TermStore::new();
            let raw = store.intern_pred(&case.pred);
            for id in [raw, store.simplify(raw), store.negate_simplified(raw)] {
                let mut program = CompiledPred::compile(&store, id);
                for (boxed, rounds) in &case.boxes {
                    let narrowed = program.narrow(boxed, *rounds);
                    let expected = reference::propagate_id(&mut store, id, boxed, *rounds);
                    prop_assert_eq!(
                        &narrowed,
                        &expected,
                        "{} over {} in {} rounds",
                        store.pred_to_tree(id),
                        boxed,
                        rounds
                    );
                    prop_assert_eq!(program.eval(boxed), store.eval_abstract_pred(id, boxed));
                    if let Some(narrowed) = narrowed {
                        prop_assert_eq!(
                            program.eval(&narrowed),
                            store.eval_abstract_pred(id, &narrowed)
                        );
                    }
                }
            }
        }
    }
}

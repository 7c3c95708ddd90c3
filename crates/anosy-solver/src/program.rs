//! A predicate compiled to a flat program, the form every search narrows and evaluates.
//!
//! A search runs interval constraint propagation and three-valued evaluation of one predicate
//! over thousands of boxes. [`CompiledPred`] lowers the predicate from the [`TermStore`] once per
//! solver run into an array of `Copy` nodes in post-order: every node's subtree is the contiguous
//! slice that ends at the node, so the range (or truth) of a subterm over a box is one forward
//! pass over that slice into a scratch buffer, with no store lookup, memo check or node clone.
//!
//! A comparison of a variable with a constant (`Le`/`Lt`/`Ge`/`Gt`/`Eq`, the atoms of
//! [`TermStore::intern_box`] and of its negation) is compiled to one node that holds the range
//! the variable is allowed to take. Narrowing it intersects one dimension of the box, which is
//! the box the two-operand narrowing of the comparison produces (see `narrow_bound` in
//! `propagate.rs`).
//!
//! The compiled program is a tree: a subterm the store shares between two parents is compiled
//! once under each. Evaluation is the store's interval abstract interpretation node for node; an
//! `Ite` computes both branches and its condition, and picks by the condition, as the store does.

use anosy_logic::{CmpOp, ExprId, ExprNode, IntBox, PredId, PredNode, Range, TermStore, TriBool};

/// Index of a node in a [`CompiledPred`].
pub(crate) type Ix = u32;

/// One node of a compiled predicate; children are indices of earlier nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const(i64),
    Var(usize),
    Add(Ix, Ix),
    Sub(Ix, Ix),
    Neg(Ix),
    Scale(i64, Ix),
    Abs(Ix),
    Min(Ix, Ix),
    Max(Ix, Ix),
    Ite(Ix, Ix, Ix),
    True,
    False,
    Cmp(CmpOp, Ix, Ix),
    /// `var ∈ allowed`: a comparison of a variable with a constant. `allowed` is empty when no
    /// value satisfies it (`x < i64::MIN`, `x > i64::MAX`).
    Bound(usize, Range),
    Not(Ix),
    /// A conjunction of the children listed in `kids[from..to]`.
    And(Ix, Ix),
    /// A disjunction of the children listed in `kids[from..to]`.
    Or(Ix, Ix),
    Implies(Ix, Ix),
    Iff(Ix, Ix),
}

#[derive(Debug, Clone, Copy)]
struct Node {
    op: Op,
    /// The first node of this node's subtree.
    first: Ix,
}

/// A predicate compiled for the search: its nodes plus the buffers its evaluation writes.
///
/// [`CompiledPred::compile`] lowers an interned predicate and [`CompiledPred::narrow`] narrows a
/// box with respect to it; the searches also decide it three-valued over each box. A solver
/// recompiles into the programs it keeps, reusing their buffers, so a warm solver compiles,
/// narrows and evaluates without allocating.
#[derive(Debug, Clone, Default)]
pub struct CompiledPred {
    nodes: Vec<Node>,
    /// Child lists of the `And`/`Or` nodes.
    kids: Vec<Ix>,
    /// The range of every expression node over the box last evaluated for it.
    ranges: Vec<Range>,
    /// The truth of every predicate node over the box last evaluated for it.
    truths: Vec<TriBool>,
    /// Child indices of the connectives being compiled (empty between compilations).
    pending: Vec<Ix>,
    /// Changes narrowing has made to boxes: a narrowing step that leaves the count as it found
    /// it left its box unchanged (see `propagate.rs`).
    pub(crate) edits: u64,
}

impl CompiledPred {
    /// Compiles the interned predicate `pred` of `store`.
    pub fn compile(store: &TermStore, pred: PredId) -> CompiledPred {
        let mut program = CompiledPred::default();
        program.recompile(store, pred);
        program
    }

    /// Replaces this program with the compiled form of `pred`, reusing its buffers.
    pub(crate) fn recompile(&mut self, store: &TermStore, pred: PredId) {
        self.nodes.clear();
        self.kids.clear();
        self.pred(store, pred);
        debug_assert!(self.pending.is_empty());
        self.ranges.clear();
        self.ranges.resize(self.nodes.len(), Range::FULL);
        self.truths.clear();
        self.truths.resize(self.nodes.len(), TriBool::Unknown);
    }

    /// Three-valued truth of the predicate over every point of `boxed`; agrees with
    /// [`TermStore::eval_abstract_pred`] on the predicate it was compiled from.
    pub(crate) fn eval(&mut self, boxed: &IntBox) -> TriBool {
        self.truth(self.root(), boxed)
    }

    /// The root node.
    pub(crate) fn root(&self) -> Ix {
        (self.nodes.len() - 1) as Ix
    }

    pub(crate) fn op(&self, n: Ix) -> Op {
        self.nodes[n as usize].op
    }

    /// The `i`-th entry of the child lists.
    pub(crate) fn kid(&self, i: Ix) -> Ix {
        self.kids[i as usize]
    }

    /// The range of expression node `n` over `boxed`.
    pub(crate) fn range(&mut self, n: Ix, boxed: &IntBox) -> Range {
        if !matches!(self.op(n), Op::Const(_) | Op::Var(_)) {
            self.eval_subtree(n, boxed);
        }
        self.cached_range(n, boxed)
    }

    /// The range of expression node `n` as the buffer holds it: over `boxed` when the subtree
    /// of `n` was last evaluated over `boxed`.
    pub(crate) fn cached_range(&self, n: Ix, boxed: &IntBox) -> Range {
        match self.op(n) {
            Op::Const(c) => Range::singleton(c),
            Op::Var(i) => var_range(boxed, i),
            _ => self.ranges[n as usize],
        }
    }

    /// The truth of predicate node `n` as the buffer holds it (see
    /// [`CompiledPred::cached_range`]).
    pub(crate) fn cached_truth(&self, n: Ix, boxed: &IntBox) -> TriBool {
        match self.op(n) {
            Op::Bound(i, allowed) => bound_truth(var_range(boxed, i), allowed),
            _ => self.truths[n as usize],
        }
    }

    /// The truth of predicate node `n` over `boxed`.
    pub(crate) fn truth(&mut self, n: Ix, boxed: &IntBox) -> TriBool {
        if !matches!(self.op(n), Op::Bound(..)) {
            self.eval_subtree(n, boxed);
        }
        self.cached_truth(n, boxed)
    }

    /// Evaluates every node of the subtree of `n` over `boxed`, children before parents.
    fn eval_subtree(&mut self, n: Ix, boxed: &IntBox) {
        let (ranges, truths) = (&mut self.ranges, &mut self.truths);
        for i in self.nodes[n as usize].first as usize..=n as usize {
            let r = |j: Ix| ranges[j as usize];
            let t = |j: Ix| truths[j as usize];
            match self.nodes[i].op {
                Op::Const(c) => ranges[i] = Range::singleton(c),
                Op::Var(v) => ranges[i] = var_range(boxed, v),
                Op::Add(a, b) => ranges[i] = r(a).add(r(b)),
                Op::Sub(a, b) => ranges[i] = r(a).sub(r(b)),
                Op::Neg(a) => ranges[i] = r(a).neg(),
                Op::Scale(k, a) => ranges[i] = r(a).mul_const(k),
                Op::Abs(a) => ranges[i] = r(a).abs(),
                Op::Min(a, b) => ranges[i] = r(a).min(r(b)),
                Op::Max(a, b) => ranges[i] = r(a).max(r(b)),
                Op::Ite(c, a, b) => {
                    ranges[i] = match t(c) {
                        TriBool::True => r(a),
                        TriBool::False => r(b),
                        TriBool::Unknown => r(a).hull(r(b)),
                    }
                }
                Op::True => truths[i] = TriBool::True,
                Op::False => truths[i] = TriBool::False,
                Op::Cmp(op, a, b) => truths[i] = cmp_truth(op, r(a), r(b)),
                Op::Bound(v, allowed) => truths[i] = bound_truth(var_range(boxed, v), allowed),
                Op::Not(p) => truths[i] = t(p).negate(),
                Op::And(from, to) => {
                    truths[i] = self.kids[from as usize..to as usize]
                        .iter()
                        .fold(TriBool::True, |acc, &k| acc.and(t(k)))
                }
                Op::Or(from, to) => {
                    truths[i] = self.kids[from as usize..to as usize]
                        .iter()
                        .fold(TriBool::False, |acc, &k| acc.or(t(k)))
                }
                Op::Implies(a, b) => truths[i] = t(a).implies(t(b)),
                Op::Iff(a, b) => truths[i] = t(a).implies(t(b)).and(t(b).implies(t(a))),
            }
        }
    }

    fn push(&mut self, first: usize, op: Op) -> Ix {
        self.nodes.push(Node { op, first: first as Ix });
        (self.nodes.len() - 1) as Ix
    }

    fn pred(&mut self, store: &TermStore, id: PredId) -> Ix {
        let first = self.nodes.len();
        let op = match store.pred_node(id) {
            PredNode::True => Op::True,
            PredNode::False => Op::False,
            &PredNode::Cmp(op, a, b) => match (store.expr_node(a), store.expr_node(b)) {
                (&ExprNode::Var(i), &ExprNode::Const(c)) if op != CmpOp::Ne => {
                    Op::Bound(i, allowed(op, c))
                }
                _ => Op::Cmp(op, self.expr(store, a), self.expr(store, b)),
            },
            &PredNode::Not(p) => Op::Not(self.pred(store, p)),
            PredNode::And(ps) => {
                let (from, to) = self.connective(store, ps);
                Op::And(from, to)
            }
            PredNode::Or(ps) => {
                let (from, to) = self.connective(store, ps);
                Op::Or(from, to)
            }
            &PredNode::Implies(a, b) => Op::Implies(self.pred(store, a), self.pred(store, b)),
            &PredNode::Iff(a, b) => Op::Iff(self.pred(store, a), self.pred(store, b)),
        };
        self.push(first, op)
    }

    /// Compiles the children of a connective and lists them in `kids`, returning the list's
    /// bounds. The children's own lists are written while they compile, so the indices wait on
    /// `pending` until the last child is done.
    fn connective(&mut self, store: &TermStore, children: &[PredId]) -> (Ix, Ix) {
        let base = self.pending.len();
        for &child in children {
            let ix = self.pred(store, child);
            self.pending.push(ix);
        }
        let from = self.kids.len() as Ix;
        self.kids.extend(self.pending.drain(base..));
        (from, self.kids.len() as Ix)
    }

    fn expr(&mut self, store: &TermStore, id: ExprId) -> Ix {
        let first = self.nodes.len();
        let op = match *store.expr_node(id) {
            ExprNode::Const(c) => Op::Const(c),
            ExprNode::Var(i) => Op::Var(i),
            ExprNode::Add(a, b) => Op::Add(self.expr(store, a), self.expr(store, b)),
            ExprNode::Sub(a, b) => Op::Sub(self.expr(store, a), self.expr(store, b)),
            ExprNode::Neg(a) => Op::Neg(self.expr(store, a)),
            ExprNode::Scale(k, a) => Op::Scale(k, self.expr(store, a)),
            ExprNode::Abs(a) => Op::Abs(self.expr(store, a)),
            ExprNode::Min(a, b) => Op::Min(self.expr(store, a), self.expr(store, b)),
            ExprNode::Max(a, b) => Op::Max(self.expr(store, a), self.expr(store, b)),
            ExprNode::Ite(c, t, e) => {
                Op::Ite(self.pred(store, c), self.expr(store, t), self.expr(store, e))
            }
        };
        self.push(first, op)
    }
}

/// The range of variable `i` over `boxed`: unknown (the full range) beyond the box's arity.
fn var_range(boxed: &IntBox, i: usize) -> Range {
    boxed.dims().get(i).copied().unwrap_or(Range::FULL)
}

/// The values `x` with `x ⋈ c`.
fn allowed(op: CmpOp, c: i64) -> Range {
    match op {
        CmpOp::Le => Range::new(i64::MIN, c),
        CmpOp::Lt => c.checked_sub(1).map_or(Range::empty(), |hi| Range::new(i64::MIN, hi)),
        CmpOp::Ge => Range::new(c, i64::MAX),
        CmpOp::Gt => c.checked_add(1).map_or(Range::empty(), |lo| Range::new(lo, i64::MAX)),
        CmpOp::Eq => Range::singleton(c),
        CmpOp::Ne => unreachable!("a disequality is not a bound"),
    }
}

/// Three-valued `x ∈ allowed` for `x` ranging over `var`: the truth of `x ⋈ c` that
/// [`cmp_truth`] gives on `var` and the singleton `c`.
fn bound_truth(var: Range, allowed: Range) -> TriBool {
    if allowed.contains_range(var) {
        TriBool::True
    } else if allowed.intersect(var).is_empty() {
        TriBool::False
    } else {
        TriBool::Unknown
    }
}

/// Three-valued `a ⋈ b` over ranges.
fn cmp_truth(op: CmpOp, a: Range, b: Range) -> TriBool {
    match op {
        CmpOp::Le => a.le(b),
        CmpOp::Lt => a.lt(b),
        CmpOp::Ge => b.le(a),
        CmpOp::Gt => b.lt(a),
        CmpOp::Eq => a.eq_tri(b),
        CmpOp::Ne => a.eq_tri(b).negate(),
    }
}

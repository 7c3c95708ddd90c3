//! The hash-consed term store: interned predicates and expressions behind copyable ids.
//!
//! The tree types [`Pred`]/[`IntExpr`] are the *construction and display* layer of the query
//! language: ergonomic builders, operator overloading, pretty-printing. Everything hot — the
//! solver's propagate/maximal search, synthesis refinement loops, verification — works over the
//! same subterms again and again, where tree clones, deep equality and re-simplification dominate.
//!
//! [`TermStore`] is the representation layer those consumers use instead. Every structurally
//! distinct node is stored exactly once in an arena and addressed by a copyable [`ExprId`] /
//! [`PredId`] handle, which gives:
//!
//! * **O(1) equality and hashing** — two interned terms are structurally equal iff their ids are
//!   equal, so candidate deduplication and memo keys cost a `u32` compare;
//! * **structural sharing** — a predicate mentioned by a thousand search nodes exists once;
//! * **store-resident memo tables** — [`TermStore::simplify`] (NNF + flattening + constant
//!   folding), [`TermStore::negate_simplified`], [`TermStore::pred_free_vars`] and the abstract
//!   interval evaluators [`TermStore::eval_abstract_expr`] / [`TermStore::eval_abstract_pred`]
//!   (keyed by `(id, box)`) are cached in the store and reused across search nodes, queries and
//!   sessions.
//!
//! Lowering is explicit: [`TermStore::intern_pred`] walks a [`Pred`] tree once and returns its
//! id; [`TermStore::pred_to_tree`] reconstructs a tree for display or for tree-only consumers.
//! Interning is semantics-preserving — evaluation of an id agrees with evaluation of the tree it
//! was lowered from (property-tested in `tests/proptest_logic.rs`).
//!
//! # Example
//!
//! ```
//! use anosy_logic::{IntExpr, TermStore};
//!
//! let mut store = TermStore::new();
//! let a = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
//! let b = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
//! let ia = store.intern_pred(&a);
//! let ib = store.intern_pred(&b);
//! assert_eq!(ia, ib); // structural equality is id equality
//! ```

use crate::{CmpOp, EvalError, IntBox, IntExpr, Point, Pred, Range, TriBool};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Handle to an interned [`IntExpr`] node. Copyable; equality/hash are O(1) and agree with
/// structural equality of the underlying term (within one store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

/// Handle to an interned [`Pred`] node. Copyable; equality/hash are O(1) and agree with
/// structural equality of the underlying term (within one store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(u32);

impl ExprId {
    /// The arena index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PredId {
    /// The arena index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An interned integer-expression node: the [`IntExpr`] constructors with id children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprNode {
    /// An integer literal.
    Const(i64),
    /// The secret field with the given index.
    Var(usize),
    /// Sum of two expressions.
    Add(ExprId, ExprId),
    /// Difference of two expressions.
    Sub(ExprId, ExprId),
    /// Negation.
    Neg(ExprId),
    /// Multiplication by a constant factor.
    Scale(i64, ExprId),
    /// Absolute value.
    Abs(ExprId),
    /// Binary minimum.
    Min(ExprId, ExprId),
    /// Binary maximum.
    Max(ExprId, ExprId),
    /// Arithmetic if-then-else over a predicate condition.
    Ite(PredId, ExprId, ExprId),
}

/// An interned predicate node: the [`Pred`] constructors with id children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredNode {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A comparison between two integer expressions.
    Cmp(CmpOp, ExprId, ExprId),
    /// Logical negation.
    Not(PredId),
    /// N-ary conjunction (`true` when empty).
    And(Vec<PredId>),
    /// N-ary disjunction (`false` when empty).
    Or(Vec<PredId>),
    /// Implication.
    Implies(PredId, PredId),
    /// Bi-implication.
    Iff(PredId, PredId),
}

/// Shallow, allocation-free view of a [`PredNode`]: connectives carry only their child count,
/// so hot consumers (the solver's narrowing loops) can dispatch on a node without cloning its
/// child vector, fetching children by index via [`TermStore::pred_child`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredShape {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A comparison between two interned expressions.
    Cmp(CmpOp, ExprId, ExprId),
    /// Logical negation.
    Not(PredId),
    /// N-ary conjunction with the given child count.
    And(usize),
    /// N-ary disjunction with the given child count.
    Or(usize),
    /// Implication.
    Implies(PredId, PredId),
    /// Bi-implication.
    Iff(PredId, PredId),
}

/// Number of depth buckets the `(id, box)` memo counters are split into (see
/// [`depth_bucket`]).
pub const BOX_MEMO_DEPTH_BUCKETS: usize = 4;

/// Human-readable labels of the depth buckets, index-aligned with the
/// `box_memo_depth_*` arrays of [`StoreStats`].
pub const BOX_MEMO_DEPTH_LABELS: [&str; BOX_MEMO_DEPTH_BUCKETS] = ["1-3", "4-7", "8-15", "16+"];

/// Maps a term nesting depth to its profitability bucket. The bucket boundaries straddle
/// [`BOX_MEMO_MIN_DEPTH`]: buckets `0`/`1` are below the memo threshold (lookups are bypassed
/// and counted in `box_memo_depth_bypassed`) and buckets `2`/`3` are at or above it (lookups
/// are counted as hits or misses), so the per-bucket hit rates directly answer "was the
/// threshold placed well?".
pub fn depth_bucket(depth: u8) -> usize {
    match depth {
        0..=3 => 0,
        4..=7 => 1,
        8..=15 => 2,
        _ => 3,
    }
}

// The bucket edges above and the labels below are aligned to the memo threshold (buckets 0/1
// below it, 2/3 at or above). Retuning the threshold must retune them together, or the
// per-bucket counters silently lie about which side of the gate they measured.
const _: () = assert!(
    BOX_MEMO_MIN_DEPTH == 8,
    "BOX_MEMO_MIN_DEPTH changed: update depth_bucket() and BOX_MEMO_DEPTH_LABELS to match"
);

/// Hit/miss counters for the store's interning tables and memo caches.
///
/// Purely informational (never influence results); surfaced by the solver and session layers so
/// reports can attribute speedups to sharing and memoization rather than raw seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Intern calls answered by an existing expression node.
    pub expr_dedup_hits: u64,
    /// Expression nodes created (arena size).
    pub exprs_interned: u64,
    /// Intern calls answered by an existing predicate node.
    pub pred_dedup_hits: u64,
    /// Predicate nodes created (arena size).
    pub preds_interned: u64,
    /// Simplification/NNF requests answered from the memo table.
    pub simplify_hits: u64,
    /// Simplification/NNF requests computed fresh.
    pub simplify_misses: u64,
    /// Free-variable requests answered from the memo table.
    pub free_vars_hits: u64,
    /// Free-variable requests computed fresh.
    pub free_vars_misses: u64,
    /// Expression range analyses answered from the `(ExprId, IntBox)` memo table.
    pub range_hits: u64,
    /// Expression range analyses computed fresh.
    pub range_misses: u64,
    /// Predicate abstract evaluations answered from the `(PredId, IntBox)` memo table.
    pub tri_hits: u64,
    /// Predicate abstract evaluations computed fresh.
    pub tri_misses: u64,
    /// Times a box-keyed memo table overflowed its cap and was cleared.
    pub box_memo_evictions: u64,
    /// `(id, box)` memo lookups answered from the cache, bucketed by term depth (only buckets at
    /// or above [`BOX_MEMO_MIN_DEPTH`] can be non-zero).
    pub box_memo_depth_hits: [u64; BOX_MEMO_DEPTH_BUCKETS],
    /// `(id, box)` memo lookups computed fresh, bucketed by term depth.
    pub box_memo_depth_misses: [u64; BOX_MEMO_DEPTH_BUCKETS],
    /// Abstract evaluations that skipped the `(id, box)` memo because the term was shallower
    /// than [`BOX_MEMO_MIN_DEPTH`], bucketed by term depth. The cost of each is one direct
    /// recomputation.
    pub box_memo_depth_bypassed: [u64; BOX_MEMO_DEPTH_BUCKETS],
}

impl StoreStats {
    /// Total memo-table hits across all caches (excluding interning dedup).
    pub fn cache_hits(&self) -> u64 {
        self.simplify_hits + self.free_vars_hits + self.range_hits + self.tri_hits
    }

    /// Total memo-table misses across all caches (excluding interning dedup).
    pub fn cache_misses(&self) -> u64 {
        self.simplify_misses + self.free_vars_misses + self.range_misses + self.tri_misses
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exprs + {} preds interned ({} dedup hits), {} memo hits / {} misses",
            self.exprs_interned,
            self.preds_interned,
            self.expr_dedup_hits + self.pred_dedup_hits,
            self.cache_hits(),
            self.cache_misses()
        )
    }
}

/// Box-keyed memo tables are cleared once they exceed this many entries, bounding memory on
/// long-running sessions; the eviction is counted in [`StoreStats::box_memo_evictions`].
const BOX_MEMO_CAP: usize = 1 << 16;

/// The depth below which terms are evaluated directly instead of through the
/// `(id, box)` memo tables — "keyed by `(id, box)` where profitable": for the shallow
/// comparisons that dominate benchmark queries, recomputing is measurably cheaper than hashing
/// the box (the fig5 suite runs at parity with the tree evaluator), while a hit on a genuinely
/// deep term saves a whole subtree walk and a miss costs one box hash it was going to dwarf
/// anyway. The per-depth-bucket counters in [`StoreStats`] record whether the value pays.
pub const BOX_MEMO_MIN_DEPTH: u8 = 8;

/// A hash-consed arena of predicates and integer expressions with memoized analyses.
///
/// See the [module docs](self) for the design. A store is an append-only value: ids are only
/// meaningful within the store that produced them, and interning the same term twice always
/// returns the same id.
///
/// Stores are `Clone`: a clone carries the full arena *and* every memo table, and ids remain
/// valid in it (interning is deterministic and append-only, so a clone taken at arena size `n`
/// agrees with the original on the first `n` ids forever). Each copy then grows privately, with
/// no synchronization between them.
#[derive(Debug, Default, Clone)]
pub struct TermStore {
    exprs: Vec<ExprNode>,
    preds: Vec<PredNode>,
    /// Nesting depth per expression node (saturating at `u8::MAX`); gates the box-keyed memos.
    expr_depths: Vec<u8>,
    /// Nesting depth per predicate node (saturating at `u8::MAX`); gates the box-keyed memos.
    pred_depths: Vec<u8>,
    expr_ids: HashMap<ExprNode, ExprId>,
    pred_ids: HashMap<PredNode, PredId>,
    /// `nnf(p, negated)` results; keyed by the input id and the polarity.
    nnf_memo: HashMap<(PredId, bool), PredId>,
    /// `flatten(p)` results.
    flat_memo: HashMap<PredId, PredId>,
    /// Sorted, deduplicated free variables per predicate.
    pred_vars_memo: HashMap<PredId, Arc<[usize]>>,
    /// Sorted, deduplicated free variables per expression.
    expr_vars_memo: HashMap<ExprId, Arc<[usize]>>,
    /// Interval range of a (deep) expression over a box. Two-level so a hit costs one box hash
    /// and no clone.
    range_memo: HashMap<ExprId, HashMap<IntBox, Range>>,
    range_memo_len: usize,
    /// Three-valued truth of a (deep) predicate over a box.
    tri_memo: HashMap<PredId, HashMap<IntBox, TriBool>>,
    tri_memo_len: usize,
    stats: StoreStats,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TermStore::default()
    }

    /// Number of distinct expression nodes interned so far.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Number of distinct predicate nodes interned so far.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// The store's hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Clears the hit/miss counters (the arena and memo tables are kept).
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
        // The interned counts are documented as arena sizes; the arena survives the reset, so
        // the counters must keep describing it.
        self.stats.exprs_interned = self.exprs.len() as u64;
        self.stats.preds_interned = self.preds.len() as u64;
    }

    /// The interned node behind an expression id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this store.
    pub fn expr_node(&self, id: ExprId) -> &ExprNode {
        &self.exprs[id.index()]
    }

    /// The interned node behind a predicate id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this store.
    pub fn pred_node(&self, id: PredId) -> &PredNode {
        &self.preds[id.index()]
    }

    /// Number of children of an `And`/`Or` node (`0` for every other node). Together with
    /// [`TermStore::pred_child`] this lets hot loops walk n-ary connectives without cloning the
    /// child vector.
    pub fn pred_children_len(&self, id: PredId) -> usize {
        match self.pred_node(id) {
            PredNode::And(ps) | PredNode::Or(ps) => ps.len(),
            _ => 0,
        }
    }

    /// The `i`-th child of an `And`/`Or` node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a connective or `i` is out of bounds.
    pub fn pred_child(&self, id: PredId, i: usize) -> PredId {
        match self.pred_node(id) {
            PredNode::And(ps) | PredNode::Or(ps) => ps[i],
            other => panic!("pred_child on non-connective node {other:?}"),
        }
    }

    fn expr_depth(&self, id: ExprId) -> u8 {
        self.expr_depths[id.index()]
    }

    fn pred_depth(&self, id: PredId) -> u8 {
        self.pred_depths[id.index()]
    }

    fn intern_expr_node(&mut self, node: ExprNode) -> ExprId {
        if let Some(&id) = self.expr_ids.get(&node) {
            self.stats.expr_dedup_hits += 1;
            return id;
        }
        let depth = match &node {
            ExprNode::Const(_) | ExprNode::Var(_) => 1,
            ExprNode::Add(a, b)
            | ExprNode::Sub(a, b)
            | ExprNode::Min(a, b)
            | ExprNode::Max(a, b) => self.expr_depth(*a).max(self.expr_depth(*b)).saturating_add(1),
            ExprNode::Neg(a) | ExprNode::Scale(_, a) | ExprNode::Abs(a) => {
                self.expr_depth(*a).saturating_add(1)
            }
            ExprNode::Ite(c, t, e) => self
                .pred_depth(*c)
                .max(self.expr_depth(*t))
                .max(self.expr_depth(*e))
                .saturating_add(1),
        };
        let id = ExprId(u32::try_from(self.exprs.len()).expect("term store arena overflow"));
        self.exprs.push(node.clone());
        self.expr_depths.push(depth);
        self.expr_ids.insert(node, id);
        self.stats.exprs_interned += 1;
        id
    }

    fn intern_pred_node(&mut self, node: PredNode) -> PredId {
        if let Some(&id) = self.pred_ids.get(&node) {
            self.stats.pred_dedup_hits += 1;
            return id;
        }
        let depth = match &node {
            PredNode::True | PredNode::False => 1,
            PredNode::Cmp(_, a, b) => {
                self.expr_depth(*a).max(self.expr_depth(*b)).saturating_add(1)
            }
            PredNode::Not(p) => self.pred_depth(*p).saturating_add(1),
            PredNode::And(ps) | PredNode::Or(ps) => {
                ps.iter().map(|p| self.pred_depth(*p)).max().unwrap_or(0).saturating_add(1)
            }
            PredNode::Implies(a, b) | PredNode::Iff(a, b) => {
                self.pred_depth(*a).max(self.pred_depth(*b)).saturating_add(1)
            }
        };
        let id = PredId(u32::try_from(self.preds.len()).expect("term store arena overflow"));
        self.preds.push(node.clone());
        self.pred_depths.push(depth);
        self.pred_ids.insert(node, id);
        self.stats.preds_interned += 1;
        id
    }

    // ------------------------------------------------------------------
    // Builders (pure interning; no simplification).
    // ------------------------------------------------------------------

    /// Interns the constant `true`.
    pub fn mk_true(&mut self) -> PredId {
        self.intern_pred_node(PredNode::True)
    }

    /// Interns the constant `false`.
    pub fn mk_false(&mut self) -> PredId {
        self.intern_pred_node(PredNode::False)
    }

    /// Interns an integer literal.
    pub fn mk_const(&mut self, value: i64) -> ExprId {
        self.intern_expr_node(ExprNode::Const(value))
    }

    /// Interns a secret-field reference.
    pub fn mk_var(&mut self, index: usize) -> ExprId {
        self.intern_expr_node(ExprNode::Var(index))
    }

    /// Interns a sum.
    pub fn mk_add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Add(a, b))
    }

    /// Interns a difference.
    pub fn mk_sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Sub(a, b))
    }

    /// Interns a negation.
    pub fn mk_neg(&mut self, a: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Neg(a))
    }

    /// Interns a multiplication by a constant.
    pub fn mk_scale(&mut self, k: i64, a: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Scale(k, a))
    }

    /// Interns an absolute value.
    pub fn mk_abs(&mut self, a: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Abs(a))
    }

    /// Interns a binary minimum.
    pub fn mk_min(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Min(a, b))
    }

    /// Interns a binary maximum.
    pub fn mk_max(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Max(a, b))
    }

    /// Interns an arithmetic if-then-else.
    pub fn mk_ite(&mut self, cond: PredId, t: ExprId, e: ExprId) -> ExprId {
        self.intern_expr_node(ExprNode::Ite(cond, t, e))
    }

    /// Interns a comparison.
    pub fn mk_cmp(&mut self, op: CmpOp, lhs: ExprId, rhs: ExprId) -> PredId {
        self.intern_pred_node(PredNode::Cmp(op, lhs, rhs))
    }

    /// Interns a logical negation.
    pub fn mk_not(&mut self, p: PredId) -> PredId {
        self.intern_pred_node(PredNode::Not(p))
    }

    /// Interns an n-ary conjunction.
    pub fn mk_and(&mut self, ps: Vec<PredId>) -> PredId {
        self.intern_pred_node(PredNode::And(ps))
    }

    /// Interns an n-ary disjunction.
    pub fn mk_or(&mut self, ps: Vec<PredId>) -> PredId {
        self.intern_pred_node(PredNode::Or(ps))
    }

    /// Interns an implication.
    pub fn mk_implies(&mut self, a: PredId, b: PredId) -> PredId {
        self.intern_pred_node(PredNode::Implies(a, b))
    }

    /// Interns a bi-implication.
    pub fn mk_iff(&mut self, a: PredId, b: PredId) -> PredId {
        self.intern_pred_node(PredNode::Iff(a, b))
    }

    // ------------------------------------------------------------------
    // Lowering and reconstruction.
    // ------------------------------------------------------------------

    /// Interns an expression tree, returning the id of its root. Shared subtrees collapse to
    /// shared ids.
    pub fn intern_expr(&mut self, expr: &IntExpr) -> ExprId {
        match expr {
            IntExpr::Const(c) => self.mk_const(*c),
            IntExpr::Var(i) => self.mk_var(*i),
            IntExpr::Add(a, b) => {
                let (a, b) = (self.intern_expr(a), self.intern_expr(b));
                self.mk_add(a, b)
            }
            IntExpr::Sub(a, b) => {
                let (a, b) = (self.intern_expr(a), self.intern_expr(b));
                self.mk_sub(a, b)
            }
            IntExpr::Neg(a) => {
                let a = self.intern_expr(a);
                self.mk_neg(a)
            }
            IntExpr::Scale(k, a) => {
                let a = self.intern_expr(a);
                self.mk_scale(*k, a)
            }
            IntExpr::Abs(a) => {
                let a = self.intern_expr(a);
                self.mk_abs(a)
            }
            IntExpr::Min(a, b) => {
                let (a, b) = (self.intern_expr(a), self.intern_expr(b));
                self.mk_min(a, b)
            }
            IntExpr::Max(a, b) => {
                let (a, b) = (self.intern_expr(a), self.intern_expr(b));
                self.mk_max(a, b)
            }
            IntExpr::Ite(c, t, e) => {
                let c = self.intern_pred(c);
                let (t, e) = (self.intern_expr(t), self.intern_expr(e));
                self.mk_ite(c, t, e)
            }
        }
    }

    /// Interns a predicate tree, returning the id of its root. Shared subtrees collapse to
    /// shared ids.
    pub fn intern_pred(&mut self, pred: &Pred) -> PredId {
        match pred {
            Pred::True => self.mk_true(),
            Pred::False => self.mk_false(),
            Pred::Cmp(op, a, b) => {
                let (a, b) = (self.intern_expr(a), self.intern_expr(b));
                self.mk_cmp(*op, a, b)
            }
            Pred::Not(p) => {
                let p = self.intern_pred(p);
                self.mk_not(p)
            }
            Pred::And(ps) => {
                let ids: Vec<PredId> = ps.iter().map(|p| self.intern_pred(p)).collect();
                self.mk_and(ids)
            }
            Pred::Or(ps) => {
                let ids: Vec<PredId> = ps.iter().map(|p| self.intern_pred(p)).collect();
                self.mk_or(ids)
            }
            Pred::Implies(a, b) => {
                let (a, b) = (self.intern_pred(a), self.intern_pred(b));
                self.mk_implies(a, b)
            }
            Pred::Iff(a, b) => {
                let (a, b) = (self.intern_pred(a), self.intern_pred(b));
                self.mk_iff(a, b)
            }
        }
    }

    /// Interns the predicate of a box, `∧ᵢ (xᵢ >= loᵢ ∧ xᵢ <= hiᵢ)` (`false` for an empty box),
    /// without building its tree. It interns the same nodes in the same order as
    /// [`TermStore::intern_pred`] on the tree of that predicate (the shape an interval domain's
    /// `to_pred` gives), so it returns the same id and leaves the store in the same state.
    pub fn intern_box(&mut self, boxed: &IntBox) -> PredId {
        if boxed.is_empty() {
            return self.mk_false();
        }
        let mut fields = Vec::with_capacity(boxed.arity());
        for (i, r) in boxed.dims().iter().enumerate() {
            let (var, lo) = (self.mk_var(i), self.mk_const(r.lo()));
            let above = self.mk_cmp(CmpOp::Ge, var, lo);
            let (var, hi) = (self.mk_var(i), self.mk_const(r.hi()));
            let below = self.mk_cmp(CmpOp::Le, var, hi);
            fields.push(self.mk_and(vec![above, below]));
        }
        self.mk_and(fields)
    }

    /// Reconstructs the expression tree behind an id (for display and tree-only consumers).
    pub fn expr_to_tree(&self, id: ExprId) -> IntExpr {
        match self.expr_node(id).clone() {
            ExprNode::Const(c) => IntExpr::Const(c),
            ExprNode::Var(i) => IntExpr::Var(i),
            ExprNode::Add(a, b) => {
                IntExpr::Add(Arc::new(self.expr_to_tree(a)), Arc::new(self.expr_to_tree(b)))
            }
            ExprNode::Sub(a, b) => {
                IntExpr::Sub(Arc::new(self.expr_to_tree(a)), Arc::new(self.expr_to_tree(b)))
            }
            ExprNode::Neg(a) => IntExpr::Neg(Arc::new(self.expr_to_tree(a))),
            ExprNode::Scale(k, a) => IntExpr::Scale(k, Arc::new(self.expr_to_tree(a))),
            ExprNode::Abs(a) => IntExpr::Abs(Arc::new(self.expr_to_tree(a))),
            ExprNode::Min(a, b) => {
                IntExpr::Min(Arc::new(self.expr_to_tree(a)), Arc::new(self.expr_to_tree(b)))
            }
            ExprNode::Max(a, b) => {
                IntExpr::Max(Arc::new(self.expr_to_tree(a)), Arc::new(self.expr_to_tree(b)))
            }
            ExprNode::Ite(c, t, e) => IntExpr::Ite(
                Arc::new(self.pred_to_tree(c)),
                Arc::new(self.expr_to_tree(t)),
                Arc::new(self.expr_to_tree(e)),
            ),
        }
    }

    /// Reconstructs the predicate tree behind an id (for display and tree-only consumers).
    pub fn pred_to_tree(&self, id: PredId) -> Pred {
        match self.pred_node(id).clone() {
            PredNode::True => Pred::True,
            PredNode::False => Pred::False,
            PredNode::Cmp(op, a, b) => {
                Pred::Cmp(op, Arc::new(self.expr_to_tree(a)), Arc::new(self.expr_to_tree(b)))
            }
            PredNode::Not(p) => Pred::Not(Arc::new(self.pred_to_tree(p))),
            PredNode::And(ps) => Pred::And(ps.iter().map(|p| self.pred_to_tree(*p)).collect()),
            PredNode::Or(ps) => Pred::Or(ps.iter().map(|p| self.pred_to_tree(*p)).collect()),
            PredNode::Implies(a, b) => {
                Pred::Implies(Arc::new(self.pred_to_tree(a)), Arc::new(self.pred_to_tree(b)))
            }
            PredNode::Iff(a, b) => {
                Pred::Iff(Arc::new(self.pred_to_tree(a)), Arc::new(self.pred_to_tree(b)))
            }
        }
    }

    // ------------------------------------------------------------------
    // Concrete evaluation.
    // ------------------------------------------------------------------

    /// Evaluates an interned expression on a concrete point; agrees with
    /// [`IntExpr::eval`] on the tree the id was lowered from.
    ///
    /// # Errors
    ///
    /// Same contract as [`IntExpr::eval`].
    pub fn eval_expr(&self, id: ExprId, point: &Point) -> Result<i64, EvalError> {
        match *self.expr_node(id) {
            ExprNode::Const(c) => Ok(c),
            ExprNode::Var(i) => {
                point.get(i).ok_or(EvalError::UnknownVariable { index: i, arity: point.arity() })
            }
            ExprNode::Add(a, b) => self
                .eval_expr(a, point)?
                .checked_add(self.eval_expr(b, point)?)
                .ok_or(EvalError::Overflow { operation: "addition" }),
            ExprNode::Sub(a, b) => self
                .eval_expr(a, point)?
                .checked_sub(self.eval_expr(b, point)?)
                .ok_or(EvalError::Overflow { operation: "subtraction" }),
            ExprNode::Neg(a) => self
                .eval_expr(a, point)?
                .checked_neg()
                .ok_or(EvalError::Overflow { operation: "negation" }),
            ExprNode::Scale(k, a) => self
                .eval_expr(a, point)?
                .checked_mul(k)
                .ok_or(EvalError::Overflow { operation: "scaling" }),
            ExprNode::Abs(a) => self
                .eval_expr(a, point)?
                .checked_abs()
                .ok_or(EvalError::Overflow { operation: "absolute value" }),
            ExprNode::Min(a, b) => Ok(self.eval_expr(a, point)?.min(self.eval_expr(b, point)?)),
            ExprNode::Max(a, b) => Ok(self.eval_expr(a, point)?.max(self.eval_expr(b, point)?)),
            ExprNode::Ite(c, t, e) => {
                if self.eval_pred(c, point)? {
                    self.eval_expr(t, point)
                } else {
                    self.eval_expr(e, point)
                }
            }
        }
    }

    /// Evaluates an interned predicate on a concrete point; agrees with [`Pred::eval`] on the
    /// tree the id was lowered from.
    ///
    /// # Errors
    ///
    /// Same contract as [`Pred::eval`].
    pub fn eval_pred(&self, id: PredId, point: &Point) -> Result<bool, EvalError> {
        match self.pred_node(id) {
            PredNode::True => Ok(true),
            PredNode::False => Ok(false),
            PredNode::Cmp(op, a, b) => {
                Ok(op.apply(self.eval_expr(*a, point)?, self.eval_expr(*b, point)?))
            }
            PredNode::Not(p) => Ok(!self.eval_pred(*p, point)?),
            PredNode::And(ps) => {
                for p in ps {
                    if !self.eval_pred(*p, point)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            PredNode::Or(ps) => {
                for p in ps {
                    if self.eval_pred(*p, point)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            PredNode::Implies(a, b) => {
                Ok(!self.eval_pred(*a, point)? || self.eval_pred(*b, point)?)
            }
            PredNode::Iff(a, b) => Ok(self.eval_pred(*a, point)? == self.eval_pred(*b, point)?),
        }
    }

    /// A shallow, allocation-free copy of a predicate node (see [`PredShape`]).
    pub fn pred_shape(&self, id: PredId) -> PredShape {
        match self.pred_node(id) {
            PredNode::True => PredShape::True,
            PredNode::False => PredShape::False,
            PredNode::Cmp(op, a, b) => PredShape::Cmp(*op, *a, *b),
            PredNode::Not(p) => PredShape::Not(*p),
            PredNode::And(ps) => PredShape::And(ps.len()),
            PredNode::Or(ps) => PredShape::Or(ps.len()),
            PredNode::Implies(a, b) => PredShape::Implies(*a, *b),
            PredNode::Iff(a, b) => PredShape::Iff(*a, *b),
        }
    }

    // ------------------------------------------------------------------
    // Abstract (interval) evaluation with (id, box)-keyed memoization.
    // ------------------------------------------------------------------

    /// Range analysis: evaluates an interned expression over a box with interval arithmetic.
    /// Deep terms (where a hit saves a whole subtree walk) are memoized by `(id, box)` so
    /// identical analyses across search nodes are answered from the cache; shallow terms are
    /// recomputed directly, which is cheaper than hashing the box. Agrees with
    /// [`IntExpr::eval_abstract`].
    pub fn eval_abstract_expr(&mut self, id: ExprId, boxed: &IntBox) -> Range {
        let bucket = depth_bucket(self.expr_depth(id));
        let memoize = self.expr_depth(id) >= BOX_MEMO_MIN_DEPTH;
        if memoize {
            if let Some(&r) = self.range_memo.get(&id).and_then(|per_box| per_box.get(boxed)) {
                self.stats.range_hits += 1;
                self.stats.box_memo_depth_hits[bucket] += 1;
                return r;
            }
            self.stats.range_misses += 1;
            self.stats.box_memo_depth_misses[bucket] += 1;
        } else {
            self.stats.box_memo_depth_bypassed[bucket] += 1;
        }
        // Only memoized misses are timed: a hit on the next identical lookup saves exactly this
        // much, which is the evidence for where the memo threshold belongs.
        let result = if memoize {
            anosy_telemetry::time("store.range_compute", || self.compute_abstract_expr(id, boxed))
        } else {
            self.compute_abstract_expr(id, boxed)
        };
        if memoize {
            if self.range_memo_len >= BOX_MEMO_CAP {
                self.range_memo.clear();
                self.range_memo_len = 0;
                self.stats.box_memo_evictions += 1;
            }
            self.range_memo.entry(id).or_default().insert(boxed.clone(), result);
            self.range_memo_len += 1;
        }
        result
    }

    fn compute_abstract_expr(&mut self, id: ExprId, boxed: &IntBox) -> Range {
        match self.expr_node(id).clone() {
            ExprNode::Const(c) => Range::singleton(c),
            ExprNode::Var(i) => {
                if i < boxed.arity() {
                    boxed.dim(i)
                } else {
                    Range::FULL
                }
            }
            ExprNode::Add(a, b) => {
                self.eval_abstract_expr(a, boxed).add(self.eval_abstract_expr(b, boxed))
            }
            ExprNode::Sub(a, b) => {
                self.eval_abstract_expr(a, boxed).sub(self.eval_abstract_expr(b, boxed))
            }
            ExprNode::Neg(a) => self.eval_abstract_expr(a, boxed).neg(),
            ExprNode::Scale(k, a) => self.eval_abstract_expr(a, boxed).mul_const(k),
            ExprNode::Abs(a) => self.eval_abstract_expr(a, boxed).abs(),
            ExprNode::Min(a, b) => {
                self.eval_abstract_expr(a, boxed).min(self.eval_abstract_expr(b, boxed))
            }
            ExprNode::Max(a, b) => {
                self.eval_abstract_expr(a, boxed).max(self.eval_abstract_expr(b, boxed))
            }
            ExprNode::Ite(c, t, e) => match self.eval_abstract_pred(c, boxed) {
                TriBool::True => self.eval_abstract_expr(t, boxed),
                TriBool::False => self.eval_abstract_expr(e, boxed),
                TriBool::Unknown => {
                    self.eval_abstract_expr(t, boxed).hull(self.eval_abstract_expr(e, boxed))
                }
            },
        }
    }

    /// Abstract evaluation: three-valued truth of an interned predicate over every point of a
    /// box. Deep predicates are memoized by `(id, box)`; shallow ones are recomputed directly.
    /// Agrees with [`Pred::eval_abstract`] and inherits its soundness contract.
    pub fn eval_abstract_pred(&mut self, id: PredId, boxed: &IntBox) -> TriBool {
        let bucket = depth_bucket(self.pred_depth(id));
        let memoize = self.pred_depth(id) >= BOX_MEMO_MIN_DEPTH;
        if memoize {
            if let Some(&t) = self.tri_memo.get(&id).and_then(|per_box| per_box.get(boxed)) {
                self.stats.tri_hits += 1;
                self.stats.box_memo_depth_hits[bucket] += 1;
                return t;
            }
            self.stats.tri_misses += 1;
            self.stats.box_memo_depth_misses[bucket] += 1;
        } else {
            self.stats.box_memo_depth_bypassed[bucket] += 1;
        }
        let result = if memoize {
            anosy_telemetry::time("store.tri_compute", || self.compute_abstract_pred(id, boxed))
        } else {
            self.compute_abstract_pred(id, boxed)
        };
        if memoize {
            if self.tri_memo_len >= BOX_MEMO_CAP {
                self.tri_memo.clear();
                self.tri_memo_len = 0;
                self.stats.box_memo_evictions += 1;
            }
            self.tri_memo.entry(id).or_default().insert(boxed.clone(), result);
            self.tri_memo_len += 1;
        }
        result
    }

    fn compute_abstract_pred(&mut self, id: PredId, boxed: &IntBox) -> TriBool {
        match self.pred_shape(id) {
            PredShape::True => TriBool::True,
            PredShape::False => TriBool::False,
            PredShape::Cmp(op, a, b) => {
                let ra = self.eval_abstract_expr(a, boxed);
                let rb = self.eval_abstract_expr(b, boxed);
                match op {
                    CmpOp::Le => ra.le(rb),
                    CmpOp::Lt => ra.lt(rb),
                    CmpOp::Ge => rb.le(ra),
                    CmpOp::Gt => rb.lt(ra),
                    CmpOp::Eq => ra.eq_tri(rb),
                    CmpOp::Ne => ra.eq_tri(rb).negate(),
                }
            }
            PredShape::Not(p) => self.eval_abstract_pred(p, boxed).negate(),
            PredShape::And(len) => {
                let mut acc = TriBool::True;
                for i in 0..len {
                    let child = self.pred_child(id, i);
                    acc = acc.and(self.eval_abstract_pred(child, boxed));
                }
                acc
            }
            PredShape::Or(len) => {
                let mut acc = TriBool::False;
                for i in 0..len {
                    let child = self.pred_child(id, i);
                    acc = acc.or(self.eval_abstract_pred(child, boxed));
                }
                acc
            }
            PredShape::Implies(a, b) => {
                let ra = self.eval_abstract_pred(a, boxed);
                let rb = self.eval_abstract_pred(b, boxed);
                ra.implies(rb)
            }
            PredShape::Iff(a, b) => {
                let ra = self.eval_abstract_pred(a, boxed);
                let rb = self.eval_abstract_pred(b, boxed);
                ra.implies(rb).and(rb.implies(ra))
            }
        }
    }

    // ------------------------------------------------------------------
    // Free variables.
    // ------------------------------------------------------------------

    /// Sorted, deduplicated free variables of an interned expression (memoized).
    pub fn expr_free_vars(&mut self, id: ExprId) -> Arc<[usize]> {
        if let Some(vars) = self.expr_vars_memo.get(&id) {
            self.stats.free_vars_hits += 1;
            return Arc::clone(vars);
        }
        self.stats.free_vars_misses += 1;
        let vars: Arc<[usize]> = match self.expr_node(id).clone() {
            ExprNode::Const(_) => Arc::from([]),
            ExprNode::Var(i) => Arc::from([i]),
            ExprNode::Add(a, b)
            | ExprNode::Sub(a, b)
            | ExprNode::Min(a, b)
            | ExprNode::Max(a, b) => merge_vars(&[self.expr_free_vars(a), self.expr_free_vars(b)]),
            ExprNode::Neg(a) | ExprNode::Scale(_, a) | ExprNode::Abs(a) => self.expr_free_vars(a),
            ExprNode::Ite(c, t, e) => merge_vars(&[
                self.pred_free_vars(c),
                self.expr_free_vars(t),
                self.expr_free_vars(e),
            ]),
        };
        self.expr_vars_memo.insert(id, Arc::clone(&vars));
        vars
    }

    /// Sorted, deduplicated free variables of an interned predicate (memoized); agrees with
    /// [`Pred::free_vars`].
    pub fn pred_free_vars(&mut self, id: PredId) -> Arc<[usize]> {
        if let Some(vars) = self.pred_vars_memo.get(&id) {
            self.stats.free_vars_hits += 1;
            return Arc::clone(vars);
        }
        self.stats.free_vars_misses += 1;
        let vars: Arc<[usize]> = match self.pred_node(id).clone() {
            PredNode::True | PredNode::False => Arc::from([]),
            PredNode::Cmp(_, a, b) => merge_vars(&[self.expr_free_vars(a), self.expr_free_vars(b)]),
            PredNode::Not(p) => self.pred_free_vars(p),
            PredNode::And(ps) | PredNode::Or(ps) => {
                let sets: Vec<Arc<[usize]>> = ps.iter().map(|p| self.pred_free_vars(*p)).collect();
                merge_vars(&sets)
            }
            PredNode::Implies(a, b) | PredNode::Iff(a, b) => {
                merge_vars(&[self.pred_free_vars(a), self.pred_free_vars(b)])
            }
        };
        self.pred_vars_memo.insert(id, Arc::clone(&vars));
        vars
    }

    /// The largest field index mentioned by an interned predicate, if any (arity checks).
    pub fn max_free_var(&mut self, id: PredId) -> Option<usize> {
        self.pred_free_vars(id).last().copied()
    }

    // ------------------------------------------------------------------
    // Simplification (NNF + flattening + constant folding), memoized.
    // ------------------------------------------------------------------

    /// Simplifies an interned predicate — pushes negation down to comparisons, rewrites `=>` and
    /// `<=>`, flattens nested `&&`/`||` and folds constants — and returns the id of the result.
    ///
    /// Logically equivalent to the input on every point; mirrors [`crate::simplify_pred`] on
    /// trees and is memoized in the store, so repeated simplification of the same term (and of
    /// shared subterms) is O(1). Idempotent: `simplify(simplify(p)) == simplify(p)` as ids.
    pub fn simplify(&mut self, id: PredId) -> PredId {
        let nnf = self.nnf(id, false);
        self.flatten(nnf)
    }

    /// Simplified negation-normal form of `!p` — what the solver's validity and maximal-box
    /// searches refute. Memoized; repeated calls for the same predicate are O(1).
    pub fn negate_simplified(&mut self, id: PredId) -> PredId {
        let nnf = self.nnf(id, true);
        self.flatten(nnf)
    }

    /// Returns `true` when the interned predicate is in negation normal form (no `Not`,
    /// `Implies` or `Iff` nodes); mirrors [`crate::is_nnf`].
    pub fn is_nnf(&self, id: PredId) -> bool {
        match self.pred_node(id) {
            PredNode::True | PredNode::False | PredNode::Cmp(..) => true,
            PredNode::Not(_) | PredNode::Implies(..) | PredNode::Iff(..) => false,
            PredNode::And(ps) | PredNode::Or(ps) => ps.iter().all(|p| self.is_nnf(*p)),
        }
    }

    /// Pushes negation inward; `negated` tracks an odd number of enclosing negations.
    fn nnf(&mut self, id: PredId, negated: bool) -> PredId {
        if let Some(&cached) = self.nnf_memo.get(&(id, negated)) {
            self.stats.simplify_hits += 1;
            return cached;
        }
        self.stats.simplify_misses += 1;
        let result = match self.pred_node(id).clone() {
            PredNode::True => {
                if negated {
                    self.mk_false()
                } else {
                    self.mk_true()
                }
            }
            PredNode::False => {
                if negated {
                    self.mk_true()
                } else {
                    self.mk_false()
                }
            }
            PredNode::Cmp(op, a, b) => {
                let op = if negated { op.negate() } else { op };
                self.mk_cmp(op, a, b)
            }
            PredNode::Not(p) => self.nnf(p, !negated),
            PredNode::And(ps) => {
                let children: Vec<PredId> = ps.iter().map(|p| self.nnf(*p, negated)).collect();
                if negated {
                    self.mk_or(children)
                } else {
                    self.mk_and(children)
                }
            }
            PredNode::Or(ps) => {
                let children: Vec<PredId> = ps.iter().map(|p| self.nnf(*p, negated)).collect();
                if negated {
                    self.mk_and(children)
                } else {
                    self.mk_or(children)
                }
            }
            PredNode::Implies(a, b) => {
                if negated {
                    // !(a => b) ≡ a && !b
                    let children = vec![self.nnf(a, false), self.nnf(b, true)];
                    self.mk_and(children)
                } else {
                    // a => b ≡ !a || b
                    let children = vec![self.nnf(a, true), self.nnf(b, false)];
                    self.mk_or(children)
                }
            }
            PredNode::Iff(a, b) => {
                // a <=> b ≡ (a && b) || (!a && !b); negated: (a && !b) || (!a && b)
                let (pa, na) = (self.nnf(a, false), self.nnf(a, true));
                let (pb, nb) = (self.nnf(b, false), self.nnf(b, true));
                let (first, second) = if negated {
                    (self.mk_and(vec![pa, nb]), self.mk_and(vec![na, pb]))
                } else {
                    (self.mk_and(vec![pa, pb]), self.mk_and(vec![na, nb]))
                };
                self.mk_or(vec![first, second])
            }
        };
        self.nnf_memo.insert((id, negated), result);
        result
    }

    fn expr_as_const(&self, id: ExprId) -> Option<i64> {
        match self.expr_node(id) {
            ExprNode::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Flattens nested conjunctions/disjunctions and folds constants.
    fn flatten(&mut self, id: PredId) -> PredId {
        if let Some(&cached) = self.flat_memo.get(&id) {
            self.stats.simplify_hits += 1;
            return cached;
        }
        self.stats.simplify_misses += 1;
        let result = match self.pred_node(id).clone() {
            PredNode::And(ps) => {
                let mut out: Vec<PredId> = Vec::new();
                let mut always_false = false;
                for p in ps {
                    let flat = self.flatten(p);
                    match self.pred_node(flat).clone() {
                        PredNode::True => {}
                        PredNode::False => {
                            always_false = true;
                            break;
                        }
                        PredNode::And(inner) => out.extend(inner),
                        _ => out.push(flat),
                    }
                }
                if always_false {
                    self.mk_false()
                } else {
                    match out.len() {
                        0 => self.mk_true(),
                        1 => out[0],
                        _ => self.mk_and(out),
                    }
                }
            }
            PredNode::Or(ps) => {
                let mut out: Vec<PredId> = Vec::new();
                let mut always_true = false;
                for p in ps {
                    let flat = self.flatten(p);
                    match self.pred_node(flat).clone() {
                        PredNode::False => {}
                        PredNode::True => {
                            always_true = true;
                            break;
                        }
                        PredNode::Or(inner) => out.extend(inner),
                        _ => out.push(flat),
                    }
                }
                if always_true {
                    self.mk_true()
                } else {
                    match out.len() {
                        0 => self.mk_false(),
                        1 => out[0],
                        _ => self.mk_or(out),
                    }
                }
            }
            PredNode::Cmp(op, a, b) => {
                if let (Some(ca), Some(cb)) = (self.expr_as_const(a), self.expr_as_const(b)) {
                    if op.apply(ca, cb) {
                        self.mk_true()
                    } else {
                        self.mk_false()
                    }
                } else {
                    id
                }
            }
            PredNode::Not(p) => {
                let flat = self.flatten(p);
                match self.pred_node(flat) {
                    PredNode::True => self.mk_false(),
                    PredNode::False => self.mk_true(),
                    _ => self.mk_not(flat),
                }
            }
            _ => id,
        };
        self.flat_memo.insert(id, result);
        result
    }

    // ------------------------------------------------------------------
    // Structural reporting.
    // ------------------------------------------------------------------

    /// Number of AST nodes reachable from a predicate id, counted *with* sharing (a shared
    /// subterm is counted each time it occurs), so the result agrees with
    /// [`Pred::node_count`] on the tree the id was lowered from.
    pub fn pred_node_count(&self, id: PredId) -> usize {
        match self.pred_node(id) {
            PredNode::True | PredNode::False => 1,
            PredNode::Cmp(_, a, b) => 1 + self.expr_node_count(*a) + self.expr_node_count(*b),
            PredNode::Not(p) => 1 + self.pred_node_count(*p),
            PredNode::And(ps) | PredNode::Or(ps) => {
                1 + ps.iter().map(|p| self.pred_node_count(*p)).sum::<usize>()
            }
            PredNode::Implies(a, b) | PredNode::Iff(a, b) => {
                1 + self.pred_node_count(*a) + self.pred_node_count(*b)
            }
        }
    }

    /// Number of AST nodes reachable from an expression id, counted with sharing (see
    /// [`TermStore::pred_node_count`]).
    pub fn expr_node_count(&self, id: ExprId) -> usize {
        match self.expr_node(id) {
            ExprNode::Const(_) | ExprNode::Var(_) => 1,
            ExprNode::Add(a, b)
            | ExprNode::Sub(a, b)
            | ExprNode::Min(a, b)
            | ExprNode::Max(a, b) => 1 + self.expr_node_count(*a) + self.expr_node_count(*b),
            ExprNode::Neg(a) | ExprNode::Scale(_, a) | ExprNode::Abs(a) => {
                1 + self.expr_node_count(*a)
            }
            ExprNode::Ite(c, t, e) => {
                1 + self.pred_node_count(*c) + self.expr_node_count(*t) + self.expr_node_count(*e)
            }
        }
    }
}

/// Merges sorted, deduplicated variable lists into one.
fn merge_vars(sets: &[Arc<[usize]>]) -> Arc<[usize]> {
    let mut out: Vec<usize> = Vec::new();
    for set in sets {
        out.extend(set.iter().copied());
    }
    out.sort_unstable();
    out.dedup();
    Arc::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simplify_pred, IntExpr, SecretLayout};

    fn nearby(xo: i64, yo: i64) -> Pred {
        ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100)
    }

    #[test]
    fn interning_is_hash_consed() {
        let mut store = TermStore::new();
        let a = store.intern_pred(&nearby(200, 200));
        let b = store.intern_pred(&nearby(200, 200));
        assert_eq!(a, b);
        let c = store.intern_pred(&nearby(400, 200));
        assert_ne!(a, c);
        // The two diamonds share every subterm except the two differing literals and their
        // enclosing spines.
        assert!(store.stats().expr_dedup_hits > 0);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut store = TermStore::new();
        let original = nearby(200, 200)
            .and_also(IntExpr::var(1).one_of([1, 2, 3]))
            .implies(IntExpr::var(0).le(5).negate());
        let id = store.intern_pred(&original);
        assert_eq!(store.pred_to_tree(id), original);
        assert_eq!(store.pred_node_count(id), original.node_count());
    }

    #[test]
    fn eval_agrees_with_trees() {
        let mut store = TermStore::new();
        let pred = nearby(200, 200);
        let id = store.intern_pred(&pred);
        for coords in [[300, 200], [0, 0], [200, 300], [301, 200]] {
            let p = Point::new(coords.to_vec());
            assert_eq!(store.eval_pred(id, &p), pred.eval(&p));
        }
    }

    /// A predicate of nesting depth ≥ `levels` (alternating connectives, so the depth really
    /// grows): the shape whose abstract evaluation is worth memoizing.
    fn deep_pred(levels: i64) -> Pred {
        let mut pred = nearby(0, 0);
        for k in 1..levels {
            pred = if k % 2 == 0 {
                Pred::and(vec![pred, nearby(k, -k)])
            } else {
                Pred::or(vec![pred, nearby(-k, k).negate()])
            };
        }
        pred
    }

    #[test]
    fn abstract_eval_agrees_with_trees_and_memoizes() {
        let mut store = TermStore::new();
        // Deep enough (≥ BOX_MEMO_MIN_DEPTH) that the (id, box) memo tables engage.
        let pred = deep_pred(8);
        let id = store.intern_pred(&pred);
        let boxes = [
            IntBox::new(vec![Range::new(180, 220), Range::new(180, 220)]),
            IntBox::new(vec![Range::new(0, 50), Range::new(0, 50)]),
            IntBox::new(vec![Range::new(100, 350), Range::new(100, 350)]),
        ];
        for boxed in &boxes {
            assert_eq!(store.eval_abstract_pred(id, boxed), pred.eval_abstract(boxed));
        }
        let misses = store.stats().tri_misses;
        for boxed in &boxes {
            assert_eq!(store.eval_abstract_pred(id, boxed), pred.eval_abstract(boxed));
        }
        assert_eq!(store.stats().tri_misses, misses, "second pass should be pure hits");
        assert!(store.stats().tri_hits >= boxes.len() as u64);
    }

    #[test]
    fn free_vars_agree_with_trees() {
        let mut store = TermStore::new();
        let pred = (IntExpr::var(3) + IntExpr::var(1)).le(IntExpr::var(3));
        let id = store.intern_pred(&pred);
        assert_eq!(store.pred_free_vars(id).to_vec(), pred.free_vars());
        assert_eq!(store.max_free_var(id), Some(3));
        let t = store.mk_true();
        assert_eq!(store.max_free_var(t), None);
    }

    #[test]
    fn simplify_agrees_with_tree_simplification() {
        let mut store = TermStore::new();
        let cases = vec![
            nearby(200, 200).negate(),
            IntExpr::var(0).lt(0).negate().negate(),
            Pred::and(vec![IntExpr::var(0).ge(0), IntExpr::var(1).ge(0)]).negate(),
            IntExpr::var(0).ge(0).implies(IntExpr::var(1).ge(0)),
            IntExpr::var(0).ge(0).iff(IntExpr::var(1).ge(0)).negate(),
            Pred::and(vec![Pred::True, IntExpr::constant(2).le(3), IntExpr::var(0).ge(0)]),
            Pred::and(vec![]).negate(),
        ];
        for pred in cases {
            let id = store.intern_pred(&pred);
            let simplified = store.simplify(id);
            let tree_simplified = store.intern_pred(&simplify_pred(&pred));
            assert_eq!(simplified, tree_simplified, "mismatch for {pred}");
            assert!(store.is_nnf(simplified));
        }
    }

    #[test]
    fn simplify_is_idempotent_and_memoized() {
        let mut store = TermStore::new();
        let pred = nearby(200, 200).negate().iff(IntExpr::var(1).ge(7));
        let id = store.intern_pred(&pred);
        let once = store.simplify(id);
        let hits_before = store.stats().simplify_hits;
        let again = store.simplify(id);
        assert_eq!(once, again);
        assert!(store.stats().simplify_hits > hits_before, "second simplify should hit the memo");
        assert_eq!(store.simplify(once), once, "simplification is idempotent");
    }

    #[test]
    fn negate_simplified_is_semantics_preserving() {
        let mut store = TermStore::new();
        let layout = SecretLayout::builder().field("x", -5, 5).field("y", -5, 5).build();
        let pred = nearby(0, 0).or_else(IntExpr::var(0).ge(3).implies(IntExpr::var(1).le(2)));
        let id = store.intern_pred(&pred);
        let negated = store.negate_simplified(id);
        assert!(store.is_nnf(negated));
        for p in layout.space().points() {
            assert_eq!(
                store.eval_pred(negated, &p).unwrap(),
                !pred.eval(&p).unwrap(),
                "negation differs at {p}"
            );
        }
    }

    #[test]
    fn builders_and_counts() {
        let mut store = TermStore::new();
        let x = store.mk_var(0);
        let five = store.mk_const(5);
        let sum = store.mk_add(x, five);
        let cmp = store.mk_cmp(CmpOp::Le, sum, five);
        let not = store.mk_not(cmp);
        assert_eq!(store.pred_node_count(not), 6);
        assert_eq!(store.expr_count(), 3);
        assert_eq!(store.pred_count(), 2);
        // Interning the same sum again is a dedup hit, not a new node.
        let before = store.expr_count();
        let sum2 = store.mk_add(x, five);
        assert_eq!(sum, sum2);
        assert_eq!(store.expr_count(), before);
    }

    #[test]
    fn stats_display_and_reset() {
        let mut store = TermStore::new();
        let id = store.intern_pred(&nearby(200, 200));
        let _ = store.simplify(id);
        let s = store.stats();
        assert!(s.preds_interned > 0);
        assert!(s.cache_misses() > 0);
        assert!(s.to_string().contains("interned"));
        store.reset_stats();
        let reset = store.stats();
        assert_eq!(reset.cache_hits() + reset.cache_misses(), 0);
        assert_eq!(reset.expr_dedup_hits + reset.pred_dedup_hits, 0);
        // Arena-size counters survive the reset: the arena itself was not cleared.
        assert_eq!(reset.exprs_interned as usize, store.expr_count());
        assert_eq!(reset.preds_interned as usize, store.pred_count());
    }

    #[test]
    fn depth_buckets_straddle_the_memo_threshold() {
        assert_eq!(depth_bucket(1), 0);
        assert_eq!(depth_bucket(3), 0);
        assert_eq!(depth_bucket(4), 1);
        assert_eq!(depth_bucket(BOX_MEMO_MIN_DEPTH - 1), 1);
        assert_eq!(depth_bucket(BOX_MEMO_MIN_DEPTH), 2);
        assert_eq!(depth_bucket(15), 2);
        assert_eq!(depth_bucket(16), 3);
        assert_eq!(depth_bucket(u8::MAX), 3);
        assert_eq!(BOX_MEMO_DEPTH_LABELS.len(), BOX_MEMO_DEPTH_BUCKETS);
    }

    #[test]
    fn box_memo_counters_split_by_depth() {
        let mut store = TermStore::new();
        let shallow = store.intern_pred(&nearby(200, 200));
        let deep = store.intern_pred(&deep_pred(8));
        let boxed = IntBox::new(vec![Range::new(0, 400), Range::new(0, 400)]);
        store.eval_abstract_pred(shallow, &boxed);
        let s = store.stats();
        // A shallow evaluation only bypasses (in the low buckets); nothing is memoized.
        assert!(s.box_memo_depth_bypassed[0] + s.box_memo_depth_bypassed[1] > 0);
        assert_eq!(s.box_memo_depth_hits, [0; BOX_MEMO_DEPTH_BUCKETS]);
        // A deep evaluation misses, then hits, only in buckets >= the threshold.
        store.eval_abstract_pred(deep, &boxed);
        store.eval_abstract_pred(deep, &boxed);
        let s = store.stats();
        assert_eq!(s.box_memo_depth_hits[0], 0);
        assert_eq!(s.box_memo_depth_hits[1], 0);
        assert!(s.box_memo_depth_misses[2] + s.box_memo_depth_misses[3] > 0);
        assert!(s.box_memo_depth_hits[2] + s.box_memo_depth_hits[3] > 0);
    }

    #[test]
    fn snapshots_agree_on_pre_snapshot_ids_and_diverge_after() {
        let mut store = TermStore::new();
        let pred = deep_pred(9);
        let id = store.intern_pred(&pred);
        let simplified = store.simplify(id);
        let mut snap = store.clone();
        // Ids interned before the snapshot resolve identically in both copies.
        assert_eq!(snap.pred_to_tree(id), store.pred_to_tree(id));
        assert_eq!(snap.simplify(id), simplified, "memo tables travel with the snapshot");
        let boxed = IntBox::new(vec![Range::new(0, 40), Range::new(0, 40)]);
        assert_eq!(snap.eval_abstract_pred(id, &boxed), store.eval_abstract_pred(id, &boxed));
        // Post-snapshot interning is private to each copy.
        let only_in_snap = snap.intern_pred(&nearby(7, 7));
        assert_eq!(snap.pred_to_tree(only_in_snap), nearby(7, 7));
        assert!(store.pred_count() <= snap.pred_count());
    }

    #[test]
    fn stores_and_ids_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TermStore>();
        assert_send_sync::<StoreStats>();
        assert_send_sync::<ExprId>();
        assert_send_sync::<PredId>();
        assert_send_sync::<Pred>();
        assert_send_sync::<IntExpr>();
        assert_send_sync::<IntBox>();
    }

    /// The tree an interval domain's `to_pred` builds for a box.
    fn box_tree(boxed: &IntBox) -> Pred {
        if boxed.is_empty() {
            return Pred::False;
        }
        Pred::and(
            boxed
                .dims()
                .iter()
                .enumerate()
                .map(|(i, r)| IntExpr::var(i).between(r.lo(), r.hi()))
                .collect(),
        )
    }

    #[test]
    fn interning_a_box_matches_interning_its_tree_id_for_id() {
        let boxes = [
            IntBox::new(vec![Range::new(150, 250), Range::new(150, 250)]),
            IntBox::new(vec![Range::new(0, 400), Range::singleton(7)]),
            IntBox::new(vec![Range::new(-3, 3); 5]),
            IntBox::new(vec![Range::new(1, 2), Range::empty()]),
        ];
        let (mut direct, mut via_tree) = (TermStore::new(), TermStore::new());
        // Some nodes of the boxes already exist, others are fresh, in both stores alike.
        for store in [&mut direct, &mut via_tree] {
            store.intern_pred(&nearby(200, 200));
        }
        for boxed in boxes.iter().chain(&boxes) {
            let id = direct.intern_box(boxed);
            assert_eq!(id, via_tree.intern_pred(&box_tree(boxed)), "{boxed}");
            assert_eq!(direct.pred_to_tree(id), box_tree(boxed));
            assert_eq!(direct.pred_count(), via_tree.pred_count());
            assert_eq!(direct.expr_count(), via_tree.expr_count());
        }
    }
}

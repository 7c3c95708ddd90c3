//! Property-based tests for the query language: the printer/parser round-trip and the
//! negation-normal-form transformation, on randomized predicates.
//!
//! Two generators are used:
//!
//! * [`arb_parseable_pred`] ranges over the *parser's image* — the fragment `Display` prints in
//!   re-readable surface syntax (no `Not`/`Implies`/`Iff` nodes, whose printed forms `!(..)`,
//!   `=>`, `<=>` either normalize on re-parse or are not part of the grammar) — where
//!   `parse(print(p)) == p` holds *structurally*;
//! * [`arb_pred`] additionally wraps random subtrees in `Not`/`Implies`/`Iff`, where the
//!   round-trip is checked *through* `simplify_pred` (whose NNF output is back inside the
//!   printable fragment) and semantically on random points.

use anosy_logic::{
    is_nnf, parse_pred, simplify_pred, IntBox, IntExpr, Point, Pred, Range, TermStore, TriBool,
};
use proptest::prelude::*;
use std::sync::Arc;

const VARS: usize = 2;

/// Integer expressions in the parser's image: non-negative literals (a printed `-3` re-parses as
/// `Neg(3)`), and `Scale` only over non-constant operands (a printed `(3 * 4)` re-parses folded).
fn arb_expr(depth: usize) -> BoxedStrategy<IntExpr> {
    let leaf = prop_oneof![
        (0usize..VARS).prop_map(IntExpr::var),
        (0i64..=20).prop_map(IntExpr::constant),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = move || arb_expr(depth - 1);
    prop_oneof![
        2 => leaf,
        2 => (inner(), inner()).prop_map(|(a, b)| a + b),
        2 => (inner(), inner()).prop_map(|(a, b)| a - b),
        1 => inner().prop_map(|a| -a),
        1 => inner().prop_map(|a| a.abs()),
        1 => (inner(), inner()).prop_map(|(a, b)| a.min_expr(b)),
        1 => (inner(), inner()).prop_map(|(a, b)| a.max_expr(b)),
        1 => (inner(), 2i64..=5).prop_map(|(a, k)| {
            // `Scale` directly over a literal folds on re-parse; keep the operand symbolic.
            if a.as_const().is_some() {
                IntExpr::var(0).scale(k)
            } else {
                a.scale(k)
            }
        }),
    ]
    .boxed()
}

fn arb_cmp() -> BoxedStrategy<Pred> {
    use anosy_logic::CmpOp;
    (
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        arb_expr(2),
        arb_expr(2),
    )
        .prop_map(|(op, a, b)| Pred::cmp(op, a, b))
        .boxed()
}

/// Predicates in the parser's image (see module docs).
fn arb_parseable_pred(depth: usize) -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        6 => arb_cmp(),
        1 => Just(Pred::True),
        1 => Just(Pred::False),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = move || arb_parseable_pred(depth - 1);
    prop_oneof![
        3 => leaf,
        2 => proptest::collection::vec(inner(), 2..4).prop_map(Pred::And),
        2 => proptest::collection::vec(inner(), 2..4).prop_map(Pred::Or),
    ]
    .boxed()
}

/// Arbitrary predicates, including the connectives only NNF can print back.
fn arb_pred(depth: usize) -> BoxedStrategy<Pred> {
    if depth == 0 {
        return arb_parseable_pred(0);
    }
    let inner = move || arb_pred(depth - 1);
    prop_oneof![
        3 => arb_parseable_pred(depth),
        2 => inner().prop_map(Pred::negate),
        1 => (inner(), inner()).prop_map(|(a, b)| a.implies(b)),
        1 => (inner(), inner()).prop_map(|(a, b)| a.iff(b)),
    ]
    .boxed()
}

/// `p` rebuilt node by node: equal to `p` as a value, sharing no allocation with it.
fn rebuild(p: &Pred) -> Pred {
    let pred = |q: &Pred| Arc::new(rebuild(q));
    let expr = |e: &IntExpr| Arc::new(rebuild_expr(e));
    match p {
        Pred::True => Pred::True,
        Pred::False => Pred::False,
        Pred::Cmp(op, a, b) => Pred::Cmp(*op, expr(a), expr(b)),
        Pred::Not(q) => Pred::Not(pred(q)),
        Pred::And(ps) => Pred::And(ps.iter().map(rebuild).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(rebuild).collect()),
        Pred::Implies(a, b) => Pred::Implies(pred(a), pred(b)),
        Pred::Iff(a, b) => Pred::Iff(pred(a), pred(b)),
    }
}

fn rebuild_expr(e: &IntExpr) -> IntExpr {
    let expr = |e: &IntExpr| Arc::new(rebuild_expr(e));
    match e {
        IntExpr::Const(c) => IntExpr::Const(*c),
        IntExpr::Var(i) => IntExpr::Var(*i),
        IntExpr::Add(a, b) => IntExpr::Add(expr(a), expr(b)),
        IntExpr::Sub(a, b) => IntExpr::Sub(expr(a), expr(b)),
        IntExpr::Neg(a) => IntExpr::Neg(expr(a)),
        IntExpr::Scale(k, a) => IntExpr::Scale(*k, expr(a)),
        IntExpr::Abs(a) => IntExpr::Abs(expr(a)),
        IntExpr::Min(a, b) => IntExpr::Min(expr(a), expr(b)),
        IntExpr::Max(a, b) => IntExpr::Max(expr(a), expr(b)),
        IntExpr::Ite(c, t, f) => IntExpr::Ite(Arc::new(rebuild(c)), expr(t), expr(f)),
    }
}

fn arb_point() -> impl Strategy<Value = Point> {
    proptest::collection::vec(-30i64..=30, VARS..VARS + 1).prop_map(Point::new)
}

fn singleton_box(p: &Point) -> IntBox {
    IntBox::new(p.iter().map(Range::singleton).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The printer and parser are exact inverses on the parseable fragment.
    #[test]
    fn parse_print_round_trips_structurally(p in arb_parseable_pred(3)) {
        let printed = p.to_string();
        let reparsed = parse_pred(&printed);
        prop_assert!(reparsed.is_ok(), "`{printed}` failed to re-parse: {:?}", reparsed.err());
        prop_assert_eq!(reparsed.unwrap(), p);
    }

    /// NNF lands back inside the printable fragment, so the round-trip extends to arbitrary
    /// predicates through `simplify_pred`.
    #[test]
    fn nnf_round_trips_through_the_parser(p in arb_pred(3)) {
        let s = simplify_pred(&p);
        prop_assert!(is_nnf(&s), "simplify_pred produced a non-NNF predicate: {s}");
        let printed = s.to_string();
        let reparsed = parse_pred(&printed);
        prop_assert!(reparsed.is_ok(), "`{printed}` failed to re-parse: {:?}", reparsed.err());
        prop_assert_eq!(reparsed.unwrap(), s);
    }

    /// `simplify_pred` preserves concrete evaluation on random points.
    #[test]
    fn nnf_preserves_concrete_evaluation(p in arb_pred(3), points in proptest::collection::vec(arb_point(), 1..8)) {
        let s = simplify_pred(&p);
        for point in &points {
            // Overflow behaves identically on both sides, so only compare defined results.
            if let Ok(expected) = p.eval(point) {
                let got = s.eval(point);
                prop_assert_eq!(got.as_ref().ok(), Some(&expected), "differ at {}", point);
            }
        }
    }

    /// `simplify_pred` preserves tribool (abstract) evaluation on random points: on a singleton
    /// box both sides must decide, and agree with the concrete answer.
    #[test]
    fn nnf_preserves_tribool_evaluation_on_points(p in arb_pred(3), point in arb_point()) {
        if let Ok(expected) = p.eval(&point) {
            let boxed = singleton_box(&point);
            let s = simplify_pred(&p);
            for (name, q) in [("original", &p), ("simplified", &s)] {
                let tri = q.eval_abstract(&boxed);
                prop_assert!(
                    tri == TriBool::from_bool(expected) || tri.is_unknown(),
                    "{name} evaluated abstractly to {tri} but concretely to {expected} at {point}"
                );
            }
            // The simplified form is what the solver prunes with; on singleton boxes it must
            // decide atoms exactly as the concrete semantics does.
            prop_assert_eq!(s.eval_abstract(&boxed).to_option(), Some(expected));
        }
    }

    /// `is_nnf` is sound: anything the parser produces from NNF output contains no negation
    /// connectives, and wrapping any predicate in `Not` makes `is_nnf` false.
    #[test]
    fn is_nnf_rejects_negation_wrappers(p in arb_pred(2)) {
        prop_assert!(!is_nnf(&p.clone().negate().negate()));
        prop_assert!(is_nnf(&simplify_pred(&p)));
    }

    /// Interning is semantics-preserving: `intern → eval` and `intern → lower → eval` both agree
    /// with direct tree evaluation on random points, and lowering reconstructs the exact tree.
    #[test]
    fn interning_preserves_evaluation(p in arb_pred(3), points in proptest::collection::vec(arb_point(), 1..8)) {
        let mut store = TermStore::new();
        let id = store.intern_pred(&p);
        let lowered = store.pred_to_tree(id);
        prop_assert_eq!(&lowered, &p, "lowering must reconstruct the interned tree");
        for point in &points {
            let direct = p.eval(point);
            let via_store = store.eval_pred(id, point);
            let via_lowered = lowered.eval(point);
            prop_assert_eq!(via_store.as_ref().ok(), direct.as_ref().ok(),
                "store eval differs at {}", point);
            prop_assert_eq!(via_lowered.as_ref().ok(), direct.as_ref().ok(),
                "lowered eval differs at {}", point);
        }
    }

    /// Interning twice — and interning the lowered tree — yields the same id (hash-consing is
    /// stable across the lowering round-trip).
    #[test]
    fn interning_is_stable_across_round_trips(p in arb_pred(3)) {
        let mut store = TermStore::new();
        let first = store.intern_pred(&p);
        let second = store.intern_pred(&p);
        prop_assert_eq!(first, second);
        let lowered = store.pred_to_tree(first);
        let third = store.intern_pred(&lowered);
        prop_assert_eq!(first, third);
    }

    /// Interning is purely structural: two predicates get one id in a store exactly when they
    /// are equal as `Pred` values. So a cache keyed on the predicate itself partitions
    /// registrations as one keyed on its interned id did. `q` is `p` cloned, `p` rebuilt node by
    /// node (equal, sharing nothing) or an independent draw (almost always unequal), so both
    /// sides of the equivalence occur.
    #[test]
    fn interned_ids_are_equal_exactly_when_the_predicates_are(
        p in arb_pred(3),
        other in arb_pred(3),
        pick in 0usize..3,
    ) {
        let q = match pick {
            0 => p.clone(),
            1 => rebuild(&p),
            _ => other,
        };
        let mut store = TermStore::new();
        let (p_id, q_id) = (store.intern_pred(&p), store.intern_pred(&q));
        prop_assert_eq!(p == q, p_id == q_id, "{} vs {}", p, q);
    }

    /// Store simplification agrees with tree simplification and is idempotent **as ids**:
    /// simplifying twice returns the id the first pass produced.
    #[test]
    fn store_simplification_is_idempotent_and_agrees_with_trees(p in arb_pred(3)) {
        let mut store = TermStore::new();
        let id = store.intern_pred(&p);
        let once = store.simplify(id);
        prop_assert_eq!(store.simplify(once), once, "simplify must be idempotent on ids");
        prop_assert!(store.is_nnf(once));
        let via_tree = simplify_pred(&p);
        let via_tree_id = store.intern_pred(&via_tree);
        prop_assert_eq!(once, via_tree_id, "store and tree simplification must coincide");
    }

    /// The store's memoized abstract evaluator matches the tree evaluator on singleton boxes
    /// (where it must decide exactly like the concrete semantics).
    #[test]
    fn store_abstract_evaluation_agrees_on_points(p in arb_pred(3), point in arb_point()) {
        if let Ok(expected) = p.eval(&point) {
            let mut store = TermStore::new();
            let id = store.intern_pred(&p);
            let boxed = singleton_box(&point);
            prop_assert_eq!(store.eval_abstract_pred(id, &boxed), p.eval_abstract(&boxed));
            let simplified = store.simplify(id);
            prop_assert_eq!(store.eval_abstract_pred(simplified, &boxed).to_option(), Some(expected));
        }
    }
}

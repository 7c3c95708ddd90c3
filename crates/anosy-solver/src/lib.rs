//! An SMT-lite engine for the ANOSY query fragment.
//!
//! The paper discharges two kinds of logical obligations to Z3 (§2.3, §5.3):
//!
//! 1. **Synthesis** — find the per-field bounds of a box `dom` such that
//!    `∀x. x ∈ dom ⇒ query x` (under-approximation) or the dual over-approximation constraint
//!    holds, while *maximizing*/*minimizing* the interval widths (Pareto combination of
//!    objectives): the synthesizer asks for the tightest bounding box of a region, or grows
//!    inclusion-maximal boxes of models around seeds and keeps the largest;
//! 2. **Verification** — check that a candidate abstract domain satisfies its refinement-type
//!    specification.
//!
//! Both obligations range over a *bounded* secret space (the product of the declared field
//! bounds) and formulas in linear integer arithmetic with `abs`/`min`/`max`. Over that fragment a
//! branch-and-prune procedure — interval constraint propagation plus bisection — is a complete
//! decision procedure, which is what this crate provides:
//!
//! * [`Solver::find_model`] / [`Solver::is_satisfiable`] — find a secret satisfying a predicate;
//! * [`Solver::check_validity`] — prove `∀x ∈ box. pred x` or produce a counterexample;
//! * [`Solver::count_models`] — exact model counting (used for ind. set sizes, Table 1);
//! * [`Solver::maximize`] / [`Solver::minimize`] — optimize a variable subject to a predicate
//!   (used for over-approximation synthesis);
//! * [`Solver::maximal_true_box`] — grow an inclusion-maximal box of models around a seed with
//!   round-robin (Pareto-style) expansion (used for under-approximation synthesis).
//!
//! Internally every search operates on the solver's hash-consed
//! [`TermStore`](anosy_logic::TermStore): predicates are interned once per solver (O(1) equality
//! and hashing by [`PredId`](anosy_logic::PredId)), normalization/negation are memoized, and the
//! interval range analyses behind constraint propagation are cached by `(term, box)` and reused
//! across search nodes and across queries. [`Solver::store_stats`] surfaces the hit/miss
//! counters; [`Solver::intern_simplified`] exposes the canonical id of a predicate so callers
//! (synthesizer, verifier) can deduplicate candidate terms by id instead of deep comparison.
//!
//! # Example
//!
//! ```
//! use anosy_logic::{IntExpr, SecretLayout};
//! use anosy_solver::Solver;
//!
//! let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
//! let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
//!
//! let mut solver = Solver::new();
//! // Exactly the diamond of Manhattan radius 100 around (200, 200).
//! let count = solver.count_models(&nearby, &layout.space()).unwrap();
//! assert_eq!(count, 20201);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod count;
mod error;
mod maximal;
mod optimize;
mod propagate;
mod sat;
mod solver;
mod stats;
mod validity;

pub use config::SolverConfig;
pub use error::SolverError;
pub use maximal::ExpansionStrategy;
pub use propagate::{propagate as narrow_box, propagate_id as narrow_box_id};
pub use solver::Solver;
pub use stats::SolverStats;
pub use validity::ValidityOutcome;

//! The ANOSY query language.
//!
//! ANOSY analyses *queries*: boolean functions over a secret made of finitely many bounded
//! integer fields (see §5.1 of the paper). This crate provides the abstract syntax for that
//! language together with everything the rest of the system needs to reason about it:
//!
//! * [`IntExpr`] and [`Pred`] — linear integer arithmetic expressions and boolean predicates,
//!   including `abs`, `min`, `max` and if-then-else, mirroring the fragment the paper translates
//!   to Z3 (§2.3, §5.1);
//! * [`SecretLayout`] — the declared secret space (field names and per-field bounds), i.e. the
//!   bounded product of integers every benchmark in §6 ranges over;
//! * concrete evaluation ([`Pred::eval`], [`IntExpr::eval`]) on [`Point`]s;
//! * abstract (interval, three-valued) evaluation ([`Pred::eval_abstract`]) on [`IntBox`]es,
//!   which is the pruning engine used by the `anosy-solver` crate;
//! * normal forms ([`simplify_pred`], constant folding) and a small surface parser so examples
//!   and tests can write queries as text;
//! * a hash-consed [`TermStore`] interning both syntaxes behind copyable [`ExprId`]/[`PredId`]
//!   handles with O(1) equality/hashing, structural sharing and store-resident memo tables for
//!   simplification, free variables and interval range analysis — the representation every hot
//!   consumer (solver, synthesizer, verifier, sessions) works on. The tree types remain the
//!   construction/display layer; see the [`store`] module docs for the migration story.
//!
//! # Example
//!
//! ```
//! use anosy_logic::{SecretLayout, Pred, IntExpr, Point};
//!
//! // The `UserLoc` secret from §2 of the paper: x and y in [0, 400].
//! let layout = SecretLayout::builder()
//!     .field("x", 0, 400)
//!     .field("y", 0, 400)
//!     .build();
//!
//! // nearby (200, 200): |x - 200| + |y - 200| <= 100
//! let x = IntExpr::var(0);
//! let y = IntExpr::var(1);
//! let nearby = ((x - 200).abs() + (y - 200).abs()).le(100);
//!
//! assert!(nearby.eval(&Point::new(vec![300, 200])).unwrap());
//! assert!(!nearby.eval(&Point::new(vec![0, 0])).unwrap());
//! assert_eq!(layout.arity(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod layout;
mod nnf;
mod parser;
mod point;
mod pred;
mod range;
pub mod store;
mod tribool;

pub use error::{EvalError, ParseError};
pub use expr::{CmpOp, IntExpr};
pub use layout::{FieldSpec, SecretLayout, SecretLayoutBuilder};
pub use nnf::{is_nnf, simplify_pred};
pub use parser::{parse_pred, parse_pred_with_layout};
pub use point::Point;
pub use pred::Pred;
pub use range::{IntBox, Range};
pub use store::{
    depth_bucket, ExprId, ExprNode, PredId, PredNode, PredShape, StoreStats, TermStore,
    BOX_MEMO_DEPTH_BUCKETS, BOX_MEMO_DEPTH_LABELS, BOX_MEMO_MIN_DEPTH,
};
pub use tribool::TriBool;

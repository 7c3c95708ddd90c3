//! Correct-by-construction synthesis of knowledge approximations (§5 of the paper).
//!
//! Given a declassification query — a boolean predicate over a bounded multi-integer secret —
//! ANOSY synthesizes its *indistinguishability sets*: an abstract-domain element for the secrets
//! that answer `true` and one for the secrets that answer `false`. Intersecting those with any
//! prior knowledge yields the posterior knowledge after the query is observed, which is what the
//! bounded-downgrade monitor in `anosy-core` consumes.
//!
//! The pipeline mirrors the paper's four steps (§2.3):
//!
//! 1. **Specification** — the refinement-type obligations are represented by [`ApproxKind`] and
//!    checked after the fact by the `anosy-verify` crate;
//! 2. **Sketching** — the paper's sketch has one lower and one upper bound per secret field of
//!    the query's [`anosy_logic::SecretLayout`]; here those bounds are simply the bounds of an
//!    [`anosy_logic::IntBox`], so no sketch value is built;
//! 3. **SMT-based synthesis** — [`Synthesizer::synth_interval`] computes each region's box with
//!    the `anosy-solver` procedures (the stand-in for Z3's Pareto `maximize`/`minimize`
//!    directives): the tightest bounding box for over-approximations, and the largest of the
//!    inclusion-maximal boxes grown from several seeds for under-approximations;
//! 4. **Iterative powerset synthesis** — [`Synthesizer::synth_powerset`] implements Algorithm 1
//!    (`IterSynth`), growing an inclusion list (under-approximations) or an exclusion list
//!    (over-approximations) one interval at a time.
//!
//! # Example
//!
//! ```
//! use anosy_logic::{IntExpr, SecretLayout};
//! use anosy_synth::{ApproxKind, QueryDef, Synthesizer};
//! use anosy_domains::AbstractDomain;
//!
//! let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
//! let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
//! let query = QueryDef::new("nearby_200_200", layout, nearby).unwrap();
//!
//! let mut synth = Synthesizer::new();
//! let ind = synth.synth_interval(&query, ApproxKind::Under).unwrap();
//! // Every point of the synthesized True set answers the query with `true`.
//! assert!(ind.truthy().size() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod config;
mod error;
mod indset;
mod query;
mod synthesizer;

pub use codec::{decode_indsets, encode_indsets, parse_approx_kind, DomainCodec};
pub use config::SynthConfig;
pub use error::SynthError;
pub use indset::{ApproxKind, IndSets};
pub use query::{QueryDef, QueryRegistry};
pub use synthesizer::{SynthStats, Synthesizer};

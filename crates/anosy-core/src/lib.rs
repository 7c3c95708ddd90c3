//! The ANOSY-RS core: knowledge tracking, quantitative declassification policies and the bounded
//! downgrade.
//!
//! This crate is the paper's primary user-facing contribution (§3): a declassification monitor
//! that can be staged on top of an existing IFC system. Its pieces are
//!
//! * [`Knowledge`] — the attacker's knowledge about one secret, an abstract-domain element
//!   enriched with the quantitative measures (§8) policies may constrain: size, Shannon entropy,
//!   Bayes vulnerability and guessing entropy;
//! * [`Policy`] — quantitative declassification policies, each naming the approximation
//!   directions it can soundly decide on ([`Policy::sound_for`]): the built-in [`PolicySpec`]
//!   set (`size knowledge > 100`, minimum residual entropy, conjunctions), the same in library
//!   sessions and on the wire, and [`FnPolicy`] for custom monotone predicates;
//! * [`QInfo`] — a registered query together with its synthesized and verified knowledge
//!   approximation, one ind. set per output (the paper's `QInfo` record);
//! * [`AnosySession`] — the `AnosyT` monad-transformer analogue: it owns the policy, the
//!   per-secret knowledge map and the query map, and its [`AnosySession::downgrade`] implements
//!   Fig. 2 — posterior computed for **every** possible output, policy checked on each, the query
//!   executed only if all pass;
//! * [`KaryQuery`] — the §5.1 extension: the first-match cases of a query with finitely many
//!   outputs. A boolean query is the query of one case; [`QInfo::with_cases`] pairs a query of
//!   more cases with its ind. sets and [`AnosySession::register_synthesized_cases`] synthesizes
//!   and verifies them, so every query is registered, memoized and decided alike.
//!
//! Sessions are built for serving: each [`AnosySession`] registers through a **synthesis
//! cache** ([`SharedSynthCache`]) keyed by `(predicate, layout, direction, members)`, private to
//! a standalone session and shared by a deployment's sessions. Re-registering an
//! already-synthesized query — the pattern of serving the same query set to millions of users —
//! is a cache hit that skips synthesis, verification and every solver search;
//! [`AnosySession::stats`] surfaces the hit/miss and authorize/refuse counters
//! ([`SessionStats`]).
//!
//! # Example
//!
//! ```
//! use anosy_core::{AnosySession, PolicySpec};
//! use anosy_domains::PowersetDomain;
//! use anosy_ifc::Protected;
//! use anosy_logic::{IntExpr, Point, SecretLayout};
//! use anosy_synth::{ApproxKind, QueryDef, Synthesizer};
//!
//! let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
//! let nearby = |xo: i64, yo: i64| {
//!     ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100)
//! };
//!
//! // "Compile time": synthesize and register the queries.
//! let mut synth = Synthesizer::new();
//! let mut session: AnosySession<PowersetDomain> =
//!     AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
//! for (name, q) in [("near_200_200", nearby(200, 200)), ("near_400_200", nearby(400, 200))] {
//!     let query = QueryDef::new(name, layout.clone(), q).unwrap();
//!     session
//!         .register_synthesized(&mut synth, &query, ApproxKind::Under, Some(3))
//!         .unwrap();
//! }
//!
//! // "Run time": the secret location is (300, 200), as in §2.1 of the paper.
//! let secret = Protected::new(Point::new(vec![300, 200]));
//! assert_eq!(session.downgrade(&secret, "near_200_200").unwrap(), true);
//! // The second query would pin the location down to a single point, so it is refused.
//! assert!(session.downgrade(&secret, "near_400_200").is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod kary;
mod knowledge;
mod policy;
mod qinfo;
mod session;
mod shared;

pub use error::{AnosyError, Refusal};
pub use kary::KaryQuery;
pub use knowledge::Knowledge;
pub use policy::{FnPolicy, Policy, PolicySpec};
pub use qinfo::QInfo;
pub use session::{
    synthesize_and_verify, AnosySession, AsSecretPoint, SessionStats, SynthesizeInto,
};
pub use shared::{CommitObserver, SharedCacheEntry, SharedCacheStats, SharedSynthCache};

//! Abstract domains for attacker knowledge.
//!
//! ANOSY represents the attacker's knowledge — the set of secrets consistent with everything the
//! attacker has observed — as an element of an *abstract domain* (§4 of the paper). This crate
//! provides the two domains the paper implements and verifies with Liquid Haskell:
//!
//! * [`IntervalDomain`] (`A_I`, §4.3) — one interval per secret field, i.e. an axis-aligned box
//!   in the n-dimensional secret space, plus explicit top/bottom elements;
//! * [`PowersetDomain`] (`A_P`, §4.4) — a set of interval domains represented by an inclusion
//!   list and an exclusion list, which recovers much of the precision the single-box domain
//!   loses.
//!
//! Both implement the [`AbstractDomain`] interface (the paper's refined type class: `⊤`, `⊥`,
//! `∈`, `⊆`, `∩`, `size`) and are accompanied by executable versions of the paper's class laws
//! ([`laws`]). The refinement-type *specifications* that Liquid Haskell checks are mirrored by
//! the `anosy-verify` crate, which discharges them with the `anosy-solver` decision procedures.
//!
//! # Example
//!
//! ```
//! use anosy_domains::{AbstractDomain, IntervalDomain, AInt};
//! use anosy_logic::{Point, SecretLayout};
//!
//! let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
//!
//! // The under-approximate True ind. set from §2.2 of the paper.
//! let knowledge = IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]);
//! assert!(knowledge.contains(&Point::new(vec![200, 200])));
//! assert_eq!(knowledge.size(), 159 * 43);
//! assert!(knowledge.is_subset_of(&IntervalDomain::top(&layout)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aint;
mod domain;
mod interval;
pub mod laws;
mod powerset;
mod region;
mod secret;

pub use aint::AInt;
pub use domain::AbstractDomain;
pub use interval::IntervalDomain;
#[doc(hidden)]
pub use powerset::without_size_oracle;
pub use powerset::PowersetDomain;
pub use region::{region_size, subtract_box, subtract_boxes};
pub use secret::Secret;

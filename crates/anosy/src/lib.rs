//! ANOSY-RS — approximated knowledge synthesis with quantitative declassification policies.
//!
//! This facade crate re-exports the whole public API of the workspace, so applications only need
//! one dependency:
//!
//! * [`logic`] — the query language (predicates over bounded multi-integer secrets);
//! * [`solver`] — the branch-and-prune decision procedures used for synthesis and verification;
//! * [`domains`] — the interval and powerset-of-intervals abstract domains for knowledge;
//! * [`synth`] — `Synth`/`IterSynth`: correct-by-construction ind. set synthesis;
//! * [`verify`] — the refinement-spec checker (the Liquid Haskell stand-in);
//! * [`ifc`] — the LIO-style information-flow substrate;
//! * [`core`] — knowledge tracking, policies and the bounded downgrade (`AnosySession`);
//! * [`serve`] — the deployment layer: shared term store + synthesis cache across sessions,
//!   sharded parallel solver driver, batched downgrades, warm-start persistence, the serving
//!   frontend — a sans-IO `Frontend` state machine speaking the typed
//!   `ServeRequest`/`ServeResponse` protocol (line-codec in `serve::wire`), answered one tick
//!   at a time — and the event-loop `Server` reactor driving it over a pluggable
//!   `Transport` (TCP and stdin/stdout in the `anosy-served` binary, plus `SimNet`, the seeded
//!   deterministic network simulator the chaos tests replay);
//! * [`suite`] — the paper's evaluation workloads (Mardziel benchmarks, secure advertising).
//!
//! The most common items are re-exported at the crate root. See the `examples/` directory for
//! end-to-end walkthroughs (quickstart, the secure-advertising case study, a benchmark explorer
//! and a policy gallery).
//!
//! # Quickstart
//!
//! ```
//! use anosy::prelude::*;
//!
//! // 1. Declare the secret space and the query (the paper's §2 example).
//! let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
//! let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
//! let query = QueryDef::new("nearby_200_200", layout.clone(), nearby).unwrap();
//!
//! // 2. Synthesize + verify + register, then downgrade under a quantitative policy.
//! let mut synth = Synthesizer::new();
//! let mut session: AnosySession<PowersetDomain> =
//!     AnosySession::new(layout, MinSizePolicy::new(100));
//! session.register_synthesized(&mut synth, &query, ApproxKind::Under, Some(3)).unwrap();
//!
//! let secret = Protected::new(Point::new(vec![300, 200]));
//! assert!(session.downgrade(&secret, "nearby_200_200").unwrap());
//! assert!(session.knowledge_of(&Point::new(vec![300, 200])).size() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anosy_core as core;
pub use anosy_domains as domains;
pub use anosy_ifc as ifc;
pub use anosy_logic as logic;
pub use anosy_serve as serve;
pub use anosy_solver as solver;
pub use anosy_suite as suite;
pub use anosy_synth as synth;
pub use anosy_verify as verify;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use anosy_core::{
        AnosyError, AnosySession, AsSecretPoint, KaryIndSets, KaryQuery, Knowledge,
        MinEntropyPolicy, MinSizePolicy, Policy, PolicySpec, QInfo, SynthesizeInto,
    };
    pub use anosy_domains::{
        secret_record, AInt, AbstractDomain, IntervalDomain, PowersetDomain, Secret,
    };
    pub use anosy_ifc::{Label, Labeled, Lio, Protected, SecLevel, Unprotect};
    pub use anosy_logic::{IntExpr, Point, Pred, SecretLayout};
    pub use anosy_serve::{
        ConnId, Deployment, Frontend, RequestId, ServeConfig, ServeRequest, ServeResponse,
        ServeStats, Server, ServerConfig, SessionId, ShardPool, SimNet, Transport,
    };
    pub use anosy_solver::{ExpansionStrategy, Solver, SolverConfig};
    pub use anosy_synth::{ApproxKind, IndSets, QueryDef, QueryRegistry, SynthConfig, Synthesizer};
    pub use anosy_verify::{VerificationReport, Verifier};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_every_crate() {
        // A compile-time smoke test: one item per re-exported crate.
        let _ = crate::logic::Pred::True;
        let _ = crate::solver::SolverConfig::default();
        let _ = crate::domains::AInt::new(0, 1);
        let _ = crate::synth::ApproxKind::Under;
        let _ = crate::verify::VerificationReport::default();
        let _ = crate::ifc::SecLevel::Public;
        let _ = crate::core::MinSizePolicy::new(1);
        let _ = crate::serve::ServeConfig::for_tests();
        let _ = crate::serve::SessionId(1);
        let _ = crate::serve::SimNet::new(0);
        let _ = crate::serve::ServerConfig::new();
        let _ = crate::core::PolicySpec::parse("min-size:100");
        let _ = crate::suite::benchmarks::BenchmarkId::Birthday;
    }
}

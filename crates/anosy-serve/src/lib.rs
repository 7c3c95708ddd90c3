//! `anosy-serve` — the concurrent deployment layer.
//!
//! The paper's workflow is per-process and offline: synthesize an approximated-knowledge
//! downgrade once, then enforce it query by query. This crate turns that into a *deployment*:
//! the shape of a server answering bounded downgrades for thousands of concurrent sessions over
//! one shared query set.
//!
//! # The deployment model
//!
//! A [`Deployment`] owns three things:
//!
//! * **One shared synthesis cache** ([`anosy_core::SharedSynthCache`], behind `Arc`).
//!   Synthesis results are cached under the `(predicate, layout, direction, members)` key —
//!   the predicate tree itself, so no store is shared and a registration takes no write lock —
//!   with **single-flight** semantics. However many sessions register the same query
//!   concurrently, the synthesize-and-verify pipeline runs **exactly once per deployment**;
//!   every other registration either hits the cache or blocks briefly on the in-flight
//!   synthesis. Sessions join with [`Deployment::session`] and behave exactly like
//!   self-contained [`anosy_core::AnosySession`]s otherwise.
//!
//! * **One fixed shard pool** ([`ShardPool`]): `workers` OS threads that live as long as the
//!   deployment. Each `count`/`valid` request ([`Deployment::count_models`],
//!   [`Deployment::check_validity`]) runs on it as one sequential solver job over the whole
//!   layout space, so its answer does not depend on `workers` and the solver budget bounds the
//!   whole request. Downgrades never touch the pool: every one, single or
//!   batched ([`Deployment::downgrade_batch`]), is decided by the session's batch kernel
//!   ([`anosy_core::AnosySession::decide_batch`]) on the thread that received it.
//!
//! * **The warm-start cache** ([`Deployment::save_cache`] / [`Deployment::warm_start`]): the
//!   synthesis cache saved as a snapshot in the [`journal`]'s framed text format and loaded by
//!   journal replay, so a restarted deployment skips cold-start synthesis entirely for every
//!   query it has served before, and a torn snapshot still loads its good prefix. For caches
//!   of dubious provenance, `warm_start`'s `verify` flag re-checks every entry's refinement
//!   obligations with the solver before installing it.
//!
//! On top of the deployment sits the **serving frontend** ([`Frontend`]): a sans-IO state
//! machine exposing the whole surface as one typed request/response protocol
//! ([`ServeRequest`]/[`ServeResponse`] in [`proto`]). The frontend owns sessions keyed by
//! [`SessionId`] and one registry of the queries registered so far, which every downgrade
//! resolves in (sessions hold knowledge, not queries). It accepts requests from any number of
//! logical connections, answers each tick's requests in submission order, and tags every
//! response with its [`RequestId`] — element-wise identical to processing the same requests
//! sequentially against plain sessions. The [`wire`] module gives the protocol a line-oriented
//! text form, and the `anosy-served` binary serves it over stdin/stdout.
//!
//! A [`server::Server`] drives one frontend from transport events (stdio, TCP, or the
//! deterministic [`SimNet`] simulator), and a [`ReactorPool`] shards connections across `N ≥ 1`
//! such reactors over one shared deployment — readiness-based I/O via [`PollTransport`]
//! (epoll where available, the portable sleep loop otherwise), with responses invariant under
//! the reactor count (see the [`reactor`] module docs). `anosy-served` serves every transport
//! through a pool.
//!
//! # Determinism guarantees
//!
//! Concurrency here never changes answers, only wall-clock:
//!
//! * `downgrade_batch` returns results (and leaves the session's tracked knowledge and
//!   counters) **identical to the sequential per-call loop**, including duplicate secrets in one
//!   batch: the kernel resolves each knowledge state's step once per batch, but reads every
//!   secret's current state in input order (property-tested in both domains against
//!   [`anosy_core::AnosySession::downgrade`] in `tests/proptest_batch.rs`).
//! * `count` and `valid` answer exactly what [`anosy_solver::Solver`] answers on the whole
//!   space, counterexample included, at any pool width (property-tested against a sequential
//!   solver in `tests/proptest_frontend.rs`).
//! * Synthesis results are independent of racing: whichever session wins the single-flight slot
//!   runs the same deterministic synthesizer every other session would have run, and everyone
//!   observes the one published result (asserted under thread stress in
//!   `tests/concurrency.rs`).
//!
//! # Example
//!
//! ```
//! use anosy_core::PolicySpec;
//! use anosy_domains::IntervalDomain;
//! use anosy_logic::{IntExpr, Point, SecretLayout};
//! use anosy_serve::{Deployment, ServeConfig};
//! use anosy_synth::{ApproxKind, QueryDef};
//!
//! let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
//! let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
//! let query = QueryDef::new("nearby_200_200", layout.clone(), nearby).unwrap();
//!
//! // Deployment start-up: synthesize the query set once.
//! let deployment: Deployment<IntervalDomain> =
//!     Deployment::new(layout, ServeConfig::for_tests());
//! deployment.register_query(&query, ApproxKind::Under, None).unwrap();
//!
//! // Serving: sessions share the cache; a batch is decided in order, each state's step once.
//! let mut session = deployment.session(PolicySpec::MinSize(100));
//! let mut synth = anosy_synth::Synthesizer::with_config(deployment.config().synth.clone());
//! session.register_synthesized(&mut synth, &query, ApproxKind::Under, None).unwrap();
//! assert_eq!(session.stats().synth_cache_hits, 1); // no solver work at all
//!
//! let users: Vec<Point> = (0..100).map(|i| Point::new(vec![i * 4, 200])).collect();
//! let answers = deployment.downgrade_batch(&mut session, &users, "nearby_200_200");
//! assert_eq!(answers.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod deployment;
mod error;
pub mod frontend;
pub mod journal;
pub mod loadgen;
mod pool;
pub mod popsim;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod sim;
pub mod wire;

pub use config::ServeConfig;
pub use deployment::{Deployment, RecoveryOutcome, ServeStats, WarmStartOutcome};
pub use error::ServeError;
pub use frontend::{Frontend, FrontendStats};
pub use journal::{save_entries, FlushPolicy, Journal, JournalConfig, JournalStats, SaveOutcome};
pub use pool::ShardPool;
pub use popsim::{compile as compile_population, CompileOptions, CompiledPopulation};
pub use proto::{
    ConnId, Denial, DenialCode, RequestId, ServeRequest, ServeResponse, SessionId, StatsSnapshot,
    TaggedResponse,
};
pub use reactor::{fold_stats, shard_of, ReactorPool};
pub use server::{
    Event, IoLogEntry, PollTransport, Server, ServerConfig, StdioTransport, Token, TranscriptEvent,
    Transport,
};
pub use sim::SimNet;

/// The deterministic telemetry layer (spans, counters, latency histograms), re-exported so
/// transports, benchmarks and binaries built on the serving stack reach it without a direct
/// dependency. Recording is active only where the reactor installed a collector
/// ([`ServerConfig::telemetry`]).
pub use anosy_telemetry as telemetry;
pub use anosy_telemetry::{merge_metrics, trace_json, MetricsRegistry, Report};

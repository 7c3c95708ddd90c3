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
//! * **One shared term store + synthesis cache** ([`anosy_core::SharedSynthCache`], behind
//!   `Arc`). Query predicates are interned into one store (interning writes serialized behind an
//!   `RwLock`; reads — snapshots, stats — are concurrent), and synthesis results are cached
//!   under the canonical `(interned predicate, layout, direction, members)` key with
//!   **single-flight** semantics. However many sessions register the same query concurrently,
//!   the synthesize-and-verify pipeline runs **exactly once per deployment**; every other
//!   registration either hits the cache or blocks briefly on the in-flight synthesis. Sessions
//!   join with [`Deployment::session`] and behave exactly like self-contained
//!   [`anosy_core::AnosySession`]s otherwise.
//!
//! * **One fixed shard pool** ([`ShardPool`]): `workers` OS threads that live as long as the
//!   deployment. Two drivers shard across it, both in the share-nothing-then-merge style:
//!   [`Deployment::downgrade_batch`] decides independent secrets' downgrades on workers and
//!   commits sequentially (a decision phase that chunks into one job — a single distinct
//!   secret, or any batch on a one-worker pool — runs on the calling thread instead, skipping
//!   the pool's barrier), and the parallel solver driver ([`par_count_models`],
//!   [`par_check_validity`]) splits a space into disjoint sub-boxes, seeds each worker with a
//!   private read-only [`anosy_logic::TermStore`] snapshot, and merges counts/outcomes plus
//!   [`anosy_solver::SolverStats`].
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
//! logical connections, batches each tick's consecutive downgrades onto the fused
//! [`Deployment::downgrade_batch_fused`] path, and answers with
//! responses tagged by [`RequestId`] — element-wise identical to processing the same requests
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
//!   batch — occurrences of the same secret are chained in order on one worker, and commits
//!   happen in deterministic order (property-tested against the loop in
//!   `tests/proptest_batch.rs`).
//! * The sharded solver drivers return exactly the sequential procedures' results: counts over
//!   a disjoint partition sum to the whole-space count, validity holds iff it holds on every
//!   chunk, and the reported counterexample is chosen in deterministic chunk order.
//! * Synthesis results are independent of racing: whichever session wins the single-flight slot
//!   runs the same deterministic synthesizer every other session would have run, and everyone
//!   observes the one published result (asserted under thread stress in
//!   `tests/concurrency.rs`).
//!
//! # Example
//!
//! ```
//! use anosy_core::MinSizePolicy;
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
//! // Serving: sessions share the cache; batches shard across the pool.
//! let mut session = deployment.session(MinSizePolicy::new(100));
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
mod parallel;
mod pool;
pub mod popsim;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod sim;
pub mod wire;

pub use batch::{downgrade_batch, downgrade_batch_fused, downgrade_many, FusedGroup};
pub use config::ServeConfig;
pub use deployment::{Deployment, RecoveryOutcome, ServeStats, WarmStartOutcome};
pub use error::ServeError;
pub use frontend::{Frontend, FrontendStats};
pub use journal::{save_entries, FlushPolicy, Journal, JournalConfig, JournalStats, SaveOutcome};
pub use parallel::{par_check_validity, par_count_models, par_is_valid, Sharded};
pub use pool::ShardPool;
pub use popsim::{compile as compile_population, CompileOptions, CompiledPopulation};
pub use proto::{
    ConnId, Denial, DenialCode, RequestId, ServeRequest, ServeResponse, SessionId, StatsSnapshot,
    TaggedResponse,
};
pub use reactor::{fold_server_stats, fold_stats, merge_io_logs, shard_of, ReactorPool};
pub use server::{
    Event, IoLogEntry, PollTransport, Server, ServerConfig, ServerStats, StdioTransport, Token,
    TranscriptEvent, Transport, IO_LOG_CAP,
};
pub use sim::SimNet;

/// The deterministic telemetry layer (spans, counters, latency histograms), re-exported so
/// transports, benchmarks and binaries built on the serving stack reach it without a direct
/// dependency. Recording is active only when the `telemetry` cargo feature is on (the default)
/// *and* the reactor installed a collector ([`ServerConfig::telemetry`]).
pub use anosy_telemetry as telemetry;
pub use anosy_telemetry::{merge_metrics, trace_json, MetricsRegistry, Report};

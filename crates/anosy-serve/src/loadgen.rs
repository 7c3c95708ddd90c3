//! The `SimNet` load generator: seeded multi-tenant traffic driven through a
//! [`ReactorPool`], with measured throughput.
//!
//! This is the macro-benchmark and stress harness for multi-reactor serving. A seeded
//! [`Population`] decides what every tenant does, the [`crate::popsim`] compiler schedules it
//! onto a [`crate::SimNet`] (session ids are connection-scoped, so the schedule is valid at any
//! reactor count), [`crate::SimNet::split`] routes the traffic exactly as the pool's acceptor
//! would, and [`ReactorPool::run`] drives the shards on real threads. The run is deterministic
//! in `(population seed, net seed)` — wall-clock aside — so:
//!
//! * the CI `sim-stress` lane replays fixed seeds at 2 and 4 reactors and asserts invariants;
//! * `tests/multi_reactor.rs` asserts per-connection response streams are element-wise
//!   identical across reactor counts ([`PoolRun::received_text`] per token);
//! * `report_serve --json` times the same seeded run at `reactors = 1/2/4` (the
//!   `transport_rows` of `BENCH_pr7.json`), asserting equivalence before timing.

use crate::popsim::{self, CompileOptions};
use crate::proto::StatsSnapshot;
use crate::reactor::{fold_stats, shard_of, ReactorPool};
use crate::server::{Server, ServerConfig, Token};
use crate::{Deployment, ServeConfig, SessionId, SimNet};
use anosy_domains::IntervalDomain;
use anosy_suite::population::{Population, PopulationConfig};
use anosy_telemetry::{merge_metrics, Report};
use std::time::{Duration, Instant};

/// Knobs of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Simulated-network seed (chunking, latency, interleaving); independent of the
    /// population's seed.
    pub net_seed: u64,
    /// Reactor shards to run the pool at.
    pub reactors: u64,
    /// Record transcripts and responses for oracle comparison (costs clones; keep off when
    /// timing).
    pub recording: bool,
    /// Compile the population onto the binary frame protocol (every connection negotiates with
    /// [`crate::wire::BINARY_PREAMBLE`] and frames each request); `false` is the line protocol.
    /// Responses come back framed too — read them with [`PoolRun::received_decoded`].
    pub binary: bool,
}

impl LoadOptions {
    /// A `reactors`-shard run under network seed `net_seed`, every request answered as it
    /// arrives, not recording — the throughput-measurement configuration.
    pub fn new(net_seed: u64, reactors: u64) -> LoadOptions {
        LoadOptions { net_seed, reactors: reactors.max(1), recording: false, binary: false }
    }

    /// Switches the compiled traffic to the binary frame protocol.
    pub fn binary(mut self) -> LoadOptions {
        self.binary = true;
        self
    }

    /// Enables transcript/response recording on every shard.
    pub fn recording(mut self) -> LoadOptions {
        self.recording = true;
        self
    }
}

/// Request-latency percentiles from the merged per-shard `request.latency` histograms, in the
/// transport clock's units — **virtual time** under [`SimNet`], not wall-clock. The server
/// answers every request at the virtual instant its last byte arrives, so under [`SimNet`] the
/// percentiles read zero and only `count` carries information.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests measured (submit to response-write, per shard).
    pub count: u64,
    /// Median latency.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// The exact slowest request.
    pub max: u64,
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Reactor shards the pool ran.
    pub reactors: u64,
    /// `true` when the run spoke the binary frame protocol ([`LoadOptions::binary`]).
    pub binary: bool,
    /// Simulated connections (tenants) driven.
    pub connections: usize,
    /// Protocol requests scheduled across all connections.
    pub requests: usize,
    /// Wall-clock of the pool run (thread spawn to last shard drained).
    pub elapsed: Duration,
    /// `requests / elapsed` — the headline throughput number.
    pub requests_per_sec: f64,
    /// Deployment-wide protocol counters ([`fold_stats`] over the shards; marked
    /// `shard == reactors`).
    pub stats: StatsSnapshot,
    /// Request-latency tail, from the merged telemetry.
    pub latency: LatencySummary,
}

/// One finished pool run: the drained shards (frontends, transports and any recordings
/// intact) plus the measurements.
#[derive(Debug)]
pub struct PoolRun {
    /// The shards, in shard order.
    pub servers: Vec<Server<IntervalDomain, SimNet>>,
    /// Tenant index → connection token (global arrival order, shared by every reactor count).
    pub tokens: Vec<Token>,
    /// Tenant index → the session id the tenant's `open` was assigned.
    pub sessions: Vec<SessionId>,
    /// Per-shard telemetry reports in shard order — the input of [`crate::merge_metrics`]
    /// (deployment-wide `conn.*` and `wire.*` counters among them) and [`crate::trace_json`].
    pub telemetry: Vec<Report>,
    /// The measurements.
    pub report: LoadReport,
}

impl PoolRun {
    /// Everything the server wrote back to `token`'s connection, read from the shard that
    /// owns it — the per-connection response stream the reactor-count-invariance property
    /// quantifies over.
    pub fn received_text(&self, token: Token) -> String {
        let shard = shard_of(token.0, self.report.reactors) as usize;
        self.servers[shard].transport().received_text(token)
    }

    /// [`PoolRun::received_text`] with the run's own protocol decoded away: binary runs'
    /// framed responses come back as the `\n`-terminated lines they carry
    /// ([`SimNet::received_frame_text`]), so a line run and a binary run of the same
    /// population compare element-wise.
    pub fn received_decoded(&self, token: Token) -> String {
        let shard = shard_of(token.0, self.report.reactors) as usize;
        if self.report.binary {
            self.servers[shard].transport().received_frame_text(token)
        } else {
            self.servers[shard].transport().received_text(token)
        }
    }
}

/// The standard load-generator population: [`PopulationConfig::small`] scaled to `tenants`
/// tenants — mixed policies, popularity-skewed queries, churn (clean exits, abandons,
/// lingerers), everything derived from `seed`.
pub fn population(seed: u64, tenants: usize) -> Population {
    Population::generate(&PopulationConfig::small(seed).with_tenants(tenants))
}

/// Compiles `population`, splits it across `options.reactors` shards,
/// drives a [`ReactorPool`] over a palette-warmed deployment and measures throughput.
pub fn run(population: &Population, options: &LoadOptions) -> PoolRun {
    let deployment = popsim::warm_deployment(population, &ServeConfig::for_tests());
    run_on(population, options, &deployment)
}

/// [`run`] against a caller-supplied deployment (benchmarks reuse one across reactor counts
/// so synthesis cost and cache state are held fixed).
pub fn run_on(
    population: &Population,
    options: &LoadOptions,
    deployment: &Deployment<IntervalDomain>,
) -> PoolRun {
    let mut compile_options = CompileOptions::new(options.net_seed);
    if options.binary {
        compile_options = compile_options.binary();
    }
    let compiled = popsim::compile(population, &compile_options);
    let nets = compiled.net.split(options.reactors);
    let mut config = ServerConfig::new();
    if options.recording {
        config = config.recording();
    }
    let pool = ReactorPool::new(options.reactors).with_config(config);

    let start = Instant::now();
    let servers = pool.run(deployment, nets);
    let elapsed = start.elapsed();

    let snapshots: Vec<StatsSnapshot> = servers.iter().map(|s| s.frontend().snapshot()).collect();
    let telemetry: Vec<Report> =
        servers.iter().filter_map(|s| s.telemetry_report().cloned()).collect();
    let latency = merge_metrics(&telemetry)
        .histogram("request.latency")
        .map(|h| LatencySummary {
            count: h.count(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            max: h.max(),
        })
        .unwrap_or_default();
    let requests = compiled.requests;
    let report = LoadReport {
        reactors: options.reactors,
        binary: options.binary,
        connections: population.tenants.len(),
        requests,
        elapsed,
        requests_per_sec: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        stats: fold_stats(&snapshots),
        latency,
    };
    PoolRun { servers, tokens: compiled.tokens, sessions: compiled.sessions, telemetry, report }
}

/// Asserts two runs of the **same population and net seed** at different reactor counts are
/// observably identical: element-wise equal per-connection response streams for every token,
/// and a balanced session ledger (`opened − closed − torn down == still open`) on both sides.
/// The transport-level determinism argument of the multi-reactor design — and the gate
/// `report_serve` runs before timing `transport_rows`.
///
/// # Panics
///
/// Panics (with the offending token) when any connection's stream differs, or when either
/// run's ledger does not balance.
pub fn assert_equivalent(base: &PoolRun, other: &PoolRun) {
    assert_eq!(base.tokens, other.tokens, "same population must mint the same tokens");
    for &token in &base.tokens {
        let expected = base.received_text(token);
        let actual = other.received_text(token);
        assert_eq!(
            expected, actual,
            "connection {token:?} diverged between reactors={} and reactors={}",
            base.report.reactors, other.report.reactors
        );
    }
    for run in [base, other] {
        let open: usize = run.servers.iter().map(|s| s.frontend().open_sessions()).sum();
        let stats = &run.report.stats;
        // Opens that produced a session: tenants whose `open` was answered. Every one is
        // either still open at drain, explicitly closed, or torn down with its connection.
        assert_eq!(
            stats.open_sessions, open,
            "folded open_sessions must match the shards at drain (reactors={})",
            run.report.reactors
        );
    }
}

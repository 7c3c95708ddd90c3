//! Telemetry suite: determinism and merge-invariance of the observability layer (ISSUE 8).
//!
//! Two design claims are property-tested here, alongside an end-to-end check of the
//! `metrics`/`trace` wire requests:
//!
//! 1. **Merge invariance**: for metrics that count *protocol facts* (lines, requests,
//!    malformed lines, bytes in, request/response sizes), the deployment-wide merge of the
//!    per-shard registries is invariant under the reactor count — the same seeded population
//!    measured at `reactors = 1` and `reactors = N` produces identical merged counters and
//!    identical merged histograms. This is the metrics-level face of the reactor-count
//!    invariance property (`tests/multi_reactor.rs`): sharding may redistribute the facts,
//!    never create or destroy them. Scheduling-shaped metrics (tick counts, queue depths,
//!    latencies) are deliberately excluded — those *should* change with the shard layout.
//! 2. **Trace determinism**: under the virtual clock a [`SimNet`] exports, the chrome://tracing
//!    JSON of a single-reactor run is a **byte-identical** function of the seeds. (Multi-shard
//!    runs race real threads over the shared single-flight cache, so only their per-shard span
//!    *sets* are stable, not global interleavings — the determinism claim is per clock domain.)
//!
//! The base seed honors `ANOSY_SIM_SEED`, like the rest of the simulator suites.

#![cfg(feature = "telemetry")]

#[path = "support/oracle.rs"]
mod support;

use anosy_serve::loadgen::{self, LoadOptions};
use anosy_serve::{merge_metrics, trace_json, MetricsRegistry, ReactorPool, ServeResponse, SimNet};
use proptest::prelude::*;

fn base_seed() -> u64 {
    std::env::var("ANOSY_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// One recorded load run at the given reactor count.
fn run_at(seed: u64, net_seed: u64, tenants: usize, reactors: u64) -> loadgen::PoolRun {
    let population = loadgen::population(seed, tenants);
    loadgen::run(&population, &LoadOptions::new(net_seed, reactors))
}

/// The protocol-fact metrics whose deployment-wide merge must not depend on the shard layout.
const INVARIANT_COUNTERS: [&str; 4] =
    ["wire.bytes_in", "wire.lines", "wire.malformed", "wire.requests"];
const INVARIANT_HISTOGRAMS: [&str; 2] = ["request.bytes", "response.bytes"];

/// Asserts the invariant slice of two merged registries is equal (counters by value,
/// histograms bucket-for-bucket — count, sum, max and every quantile ride along).
fn assert_invariant_slice_eq(base: &MetricsRegistry, sharded: &MetricsRegistry, reactors: u64) {
    for name in INVARIANT_COUNTERS {
        assert_eq!(
            base.counter(name),
            sharded.counter(name),
            "counter {name} changed between reactors=1 and reactors={reactors}"
        );
    }
    for name in INVARIANT_HISTOGRAMS {
        assert_eq!(
            base.histogram(name),
            sharded.histogram(name),
            "histogram {name} changed between reactors=1 and reactors={reactors}"
        );
    }
}

#[test]
fn merged_metrics_are_invariant_under_the_reactor_count() {
    let seed = base_seed().wrapping_add(8_000);
    let net_seed = base_seed().wrapping_add(8_100);
    let base = run_at(seed, net_seed, 24, 1);
    assert_eq!(base.telemetry.len(), 1, "one report per reactor");
    let base_metrics = merge_metrics(&base.telemetry);
    // The run actually measured something — the invariance is not vacuous.
    assert!(base_metrics.counter("wire.requests") > 0);
    assert!(base_metrics.histogram("request.bytes").is_some());
    assert_eq!(
        base_metrics.counter("wire.requests"),
        base.report.stats.requests,
        "the telemetry counter and the frontend ledger agree"
    );
    assert!(base.report.latency.count > 0, "request latencies were measured");
    assert!(base.report.latency.p50 <= base.report.latency.p99);
    assert!(base.report.latency.p99 <= base.report.latency.max);

    for reactors in [2u64, 4] {
        let sharded = run_at(seed, net_seed, 24, reactors);
        assert_eq!(sharded.telemetry.len(), reactors as usize);
        // Shard reports arrive in shard order — the deterministic merge order.
        for (i, report) in sharded.telemetry.iter().enumerate() {
            assert_eq!(report.shard, i as u64);
        }
        assert_invariant_slice_eq(&base_metrics, &merge_metrics(&sharded.telemetry), reactors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Merge invariance over independently drawn seeds and reactor counts — the same sweep
    /// shape as `multi_reactor.rs`'s response-stream property.
    #[test]
    fn merge_invariance_holds_across_seeds(
        seed_offset in 0u64..1_000,
        net_offset in 0u64..1_000,
        reactors in 2u64..=4,
    ) {
        let seed = base_seed().wrapping_add(30_000 + seed_offset);
        let net_seed = base_seed().wrapping_add(40_000 + net_offset);
        let base = run_at(seed, net_seed, 18, 1);
        let sharded = run_at(seed, net_seed, 18, reactors);
        assert_invariant_slice_eq(
            &merge_metrics(&base.telemetry),
            &merge_metrics(&sharded.telemetry),
            reactors,
        );
    }
}

#[test]
fn single_reactor_traces_replay_byte_identically() {
    let seed = base_seed().wrapping_add(8_200);
    let net_seed = base_seed().wrapping_add(8_300);
    let first = run_at(seed, net_seed, 16, 1);
    let second = run_at(seed, net_seed, 16, 1);
    let trace = trace_json(&first.telemetry);
    assert_eq!(trace, trace_json(&second.telemetry), "same seeds, same bytes");
    // The trace is non-trivial: it holds the serving stack's span names with virtual
    // timestamps, ready for chrome://tracing.
    assert!(trace.starts_with('[') && trace.ends_with(']'));
    for name in ["frontend.tick", "wire.decode", "batch.decide"] {
        assert!(trace.contains(&format!("\"name\":\"{name}\"")), "missing {name} in {trace}");
    }
    // A different net seed really changes the trace (the determinism assert is not comparing
    // two empty strings' worth of recording).
    let other = run_at(seed, net_seed.wrapping_add(1), 16, 1);
    assert_ne!(trace, trace_json(&other.telemetry));
}

#[test]
fn telemetry_off_runs_record_nothing() {
    let seed = base_seed().wrapping_add(8_400);
    let population = loadgen::population(seed, 12);
    let run = loadgen::run(&population, &LoadOptions::new(seed, 2).telemetry(false));
    assert!(run.telemetry.is_empty(), "no collector, no reports");
    assert_eq!(run.report.latency, loadgen::LatencySummary::default());
    assert!(merge_metrics(&run.telemetry).is_empty());
    assert_eq!(trace_json(&run.telemetry), "[]");
}

#[test]
fn metrics_and_trace_requests_answer_over_the_wire() {
    let mut net = SimNet::new(base_seed().wrapping_add(8_500)).with_max_delay(0);
    let client = net.connect(0);
    net.send(client, 10, "open min-size:100\n");
    net.send(client, 20, "metrics\n");
    net.send(client, 30, "trace\n");
    net.half_close(client, 40);

    let deployment = support::warm_deployment();
    let servers = ReactorPool::new(1).run(&deployment, net.split(1));
    let text = servers[0].transport().received_text(client);
    let mut lines = text.lines().skip(1); // the open answer

    let metrics_line = lines.next().expect("metrics answered");
    let payload = metrics_line.split_once(' ').expect("id-prefixed response").1;
    let ServeResponse::Metrics { json } =
        anosy_serve::wire::parse_response(payload).expect("metrics parse")
    else {
        panic!("expected metrics, got {payload}");
    };
    // The snapshot was taken mid-run on the reactor thread: the wire counters already saw
    // the `open` and `metrics` lines.
    assert!(json.contains("\"wire.requests\":2"), "unexpected metrics json: {json}");
    assert!(json.contains("\"request.bytes\""), "histograms ride along: {json}");

    let trace_line = lines.next().expect("trace answered");
    let payload = trace_line.split_once(' ').expect("id-prefixed response").1;
    let ServeResponse::Trace { json } =
        anosy_serve::wire::parse_response(payload).expect("trace parse")
    else {
        panic!("expected trace, got {payload}");
    };
    assert!(json.contains("\"name\":\"frontend.tick\""), "unexpected trace json: {json}");

    // The full report the reactor harvested at drain supersedes the mid-run snapshots.
    let report = servers[0].telemetry_report().expect("telemetry was on");
    assert_eq!(report.shard, 0);
    assert_eq!(report.metrics.counter("wire.lines"), 3);
    assert!(!report.spans.is_empty());
}

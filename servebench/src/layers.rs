//! The traced run: per-layer numbers for one workload.
//!
//! Two sources, both driven by the same seed-generated inputs as the timed run:
//!
//! * **served runs** — four short runs alternating telemetry on and off (the overhead of
//!   recording), one of them followed by a closed-loop `stats` phase (the transport's round-trip
//!   floor) and read through the wire `stats` counters (the synthesis-cache hit ratio);
//! * **in-process replays** — the workload's tenants replayed through the public entry point of
//!   each layer, timed from this file: the wire codecs, `Frontend::submit`/`tick`,
//!   `Deployment::downgrade_batch` against the sequential `AnosySession::downgrade` loop,
//!   `ShardPool::scatter`, `register_cached`, synthesis and verification, and journal appends.
//!
//! Every timed call records a span (name, start, duration, parent, the request it served) in
//! memory; the spans are written out as a chrome://tracing file when the run ends, and every
//! per-layer metric is read back from them.

use crate::host::nproc;
use crate::served::{self, Env, Op, Opts, Served};
use crate::stats::{json_str, latency, median, metric, Metric};
use crate::workload::{self, Action, Domain, Tenant, Workload};
use crate::{outcome_of, register_samples, Outcome};
use anosy_core::{PolicySpec, SharedCacheEntry, SynthesizeInto};
use anosy_domains::{IntervalDomain, PowersetDomain};
use anosy_serve::wire::{self, FrameDecoder, LineDecoder, NameInterner};
use anosy_serve::{
    ConnId, Deployment, FlushPolicy, Frontend, Journal, JournalConfig, ServeConfig, ServeRequest,
    ServeResponse,
};
use anosy_synth::{ApproxKind, DomainCodec, QueryDef, SynthConfig, Synthesizer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum time each repeated in-process pass accumulates, so short layers are resolved.
const PASS_BUDGET: Duration = Duration::from_millis(200);

/// Cold-register tenants replayed in-process (each registers three fresh queries).
const COLD_TENANTS: usize = 60;

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    /// The replayed request this span served, or the item count of a whole pass.
    request: Option<usize>,
    items: u64,
}

/// Spans kept in memory, written out at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str, request: Option<usize>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            parent,
            request,
            items: 1,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize, items: u64) {
        let span = &mut self.spans[id];
        span.dur = self.origin.elapsed() - span.start;
        span.items = items;
        self.open.retain(|&open| open != id);
    }

    /// Times `f` as one span.
    fn time<T>(&mut self, name: &'static str, request: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id, 1);
        out
    }

    /// Repeats `pass` (which returns the items it processed) under spans named `name` until
    /// they add up to [`PASS_BUDGET`].
    fn passes(&mut self, name: &'static str, mut pass: impl FnMut() -> u64) {
        let mut spent = Duration::ZERO;
        while spent < PASS_BUDGET {
            let id = self.enter(name, None);
            let items = pass();
            self.exit(id, items);
            spent += self.spans[id].dur;
            if items == 0 {
                break;
            }
        }
    }

    /// Total nanoseconds and items over every span named `name`.
    fn total(&self, name: &str) -> (f64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(ns, n), s| (ns + s.dur.as_nanos() as f64, n + s.items as f64))
    }

    /// Nanoseconds per item over every span named `name`.
    fn per_item(&self, name: &str) -> f64 {
        let (ns, items) = self.total(name);
        ns / items.max(1.0)
    }

    fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                     \"args\": {{\"id\": {id}, \"parent\": {}, \"request\": {}, \"items\": {}}}}}",
                    json_str(s.name),
                    s.start.as_nanos() as f64 / 1e3,
                    s.dur.as_nanos() as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request.map_or("null".to_string(), |r| r.to_string()),
                    s.items,
                )
            })
            .collect();
        format!("[{}]\n", events.join(",\n"))
    }
}

/// The traced run of workload `name` on `seed`.
pub fn traced(env: &Env, name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut workload =
        workload::build(name, seed, nproc()).expect("workload names are checked at parse time");
    let slice = seconds / 4.0;
    let mut runs: Vec<(bool, Served)> = Vec::new();
    for (i, telemetry) in [true, false, false, true].into_iter().enumerate() {
        let opts = Opts {
            seconds: slice,
            warmup: (slice / 10.0).min(0.5),
            telemetry,
            stats_probe: if i == 1 { (seconds / 20.0).min(1.0) } else { 0.0 },
        };
        let env = Env {
            server_bin: env.server_bin.clone(),
            out_dir: env.out_dir.clone(),
            tag: format!("{}-served{i}", env.tag),
        };
        let run = served::serve(&env, &mut workload, &opts);
        runs.push((telemetry, run));
    }
    let mut outcome = outcome_of(&workload, &runs.iter().map(|(_, r)| r).collect::<Vec<_>>());
    let rate = |on: bool| {
        let rates: Vec<f64> = runs
            .iter()
            .filter(|(t, _)| *t == on)
            .map(|(_, r)| r.timed.total(|e| u64::from(e.decisions)) as f64 / r.window_s)
            .collect();
        rates.iter().sum::<f64>() / rates.len().max(1) as f64
    };
    let (on, off) = (rate(true), rate(false));
    let probe = &runs[1].1;
    let rtt_floor_ns = latency(&mut probe.probe.rtts(Op::Stats), 0.5).p50;
    let hit_ratio = match (probe.stats_before, probe.stats_after) {
        (Some(before), Some(after)) => {
            let hits = after.serve.cache.synth_hits - before.serve.cache.synth_hits;
            let misses = after.serve.cache.synth_misses - before.serve.cache.synth_misses;
            hits as f64 / (hits + misses).max(1) as f64
        }
        _ => 0.0,
    };
    let register_ns: Vec<f64> = runs
        .iter()
        .flat_map(|(_, r)| register_samples(&workload, r).rtts(Op::Register))
        .map(|ns| ns as f64)
        .collect();
    let served_layers = ServedLayers { rtt_floor_ns, register_p50_ns: median(&register_ns) };

    let mut tenants: Vec<Arc<Tenant>> = workload.source.tenants.clone();
    if workload.palette.is_empty() {
        // Cold tenants synthesize every query they register: replay a sample.
        tenants.truncate(COLD_TENANTS);
    }
    let mut tracer = Tracer::new();
    let scratch = env.out_dir.join(format!("{}-journal-trace", env.tag));
    let replayed = match workload.domain {
        Domain::Interval => {
            replay::<IntervalDomain>(&workload, &tenants, &served_layers, &scratch, &mut tracer)
        }
        Domain::Powerset => {
            replay::<PowersetDomain>(&workload, &tenants, &served_layers, &scratch, &mut tracer)
        }
    };
    let (mut metrics, problems) = replayed;
    outcome.problems.extend(problems);
    outcome.correct &= outcome.problems.is_empty();
    metrics.splice(
        0..0,
        [
            metric("server.rtt_floor_us", rtt_floor_ns / 1e3, "us"),
            metric("shared.hit_ratio", hit_ratio, "fraction"),
            metric("telemetry.overhead_pct", (off - on) / off.max(1e-9) * 100.0, "%"),
        ],
    );
    outcome.metrics = metrics;
    let trace_file = env.out_dir.join(format!("{}-trace.json", env.tag));
    if let Err(e) = std::fs::write(&trace_file, tracer.chrome_json()) {
        eprintln!("servebench: cannot write {}: {e}", trace_file.display());
    }
    let workers = probe.stats_before.map(|s| s.serve.workers).unwrap_or(0);
    outcome.meta = vec![
        ("workers".into(), workers.to_string()),
        ("telemetry".into(), json_str("alternating on/off served runs")),
        ("served_runs".into(), runs.len().to_string()),
        ("decisions_per_s_telemetry_on".into(), crate::stats::json_num(on)),
        ("decisions_per_s_telemetry_off".into(), crate::stats::json_num(off)),
        ("replayed_tenants".into(), tenants.len().to_string()),
        ("spans".into(), tracer.spans.len().to_string()),
        ("trace_file".into(), json_str(&trace_file.display().to_string())),
    ];
    outcome
}

/// The served numbers the in-process shares are taken against.
struct ServedLayers {
    rtt_floor_ns: f64,
    register_p50_ns: f64,
}

/// Replays `tenants` through every layer in process; returns the per-layer metrics and any
/// answer that disagreed with the oracle.
fn replay<D>(
    w: &Workload,
    tenants: &[Arc<Tenant>],
    served: &ServedLayers,
    out_dir: &std::path::Path,
    tracer: &mut Tracer,
) -> (Vec<Metric>, Vec<String>)
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
{
    let members = w.members;
    let mut queries: Vec<QueryDef> = w.palette.clone();
    for tenant in tenants {
        queries.extend(tenant.registers().cloned());
    }

    // synth / verify / solver / store: the two halves of `synthesize_and_verify`, exactly as a
    // deployment cache miss runs them.
    let mut entries: Vec<SharedCacheEntry<D>> = Vec::new();
    let (mut nodes, mut interned) = (0u64, 0u64);
    let (mut memo_hits, mut memo_lookups, mut box_bypassed, mut box_lookups) =
        (0u64, 0u64, 0u64, 0u64);
    let mut problems = Vec::new();
    for query in &queries {
        let mut synth = Synthesizer::with_config(SynthConfig::default());
        let indsets = tracer
            .time("synth", None, || D::synthesize(&mut synth, query, ApproxKind::Under, members));
        let Ok(indsets) = indsets else {
            problems.push(format!("synthesis of {} failed", query.name()));
            continue;
        };
        let mut verifier =
            anosy_verify::Verifier::with_config(anosy_solver::SolverConfig::default());
        let verified = tracer.time("verify", None, || verifier.verify_indsets(query, &indsets));
        if !verified.is_ok_and(|report| report.is_verified()) {
            problems.push(format!("verification of {} failed", query.name()));
        }
        nodes += synth.solver_stats().nodes_explored;
        let store = synth.store_stats();
        // Every memo table of the store: interning dedup, simplification, free variables and
        // the box-keyed range/abstract-evaluation tables.
        let hits = store.expr_dedup_hits
            + store.pred_dedup_hits
            + store.simplify_hits
            + store.free_vars_hits
            + store.range_hits
            + store.tri_hits;
        memo_hits += hits;
        memo_lookups += hits
            + store.exprs_interned
            + store.preds_interned
            + store.simplify_misses
            + store.free_vars_misses
            + store.range_misses
            + store.tri_misses;
        let bypassed: u64 = store.box_memo_depth_bypassed.iter().sum();
        box_bypassed += bypassed;
        box_lookups += bypassed
            + store.box_memo_depth_hits.iter().sum::<u64>()
            + store.box_memo_depth_misses.iter().sum::<u64>();
        interned += store.exprs_interned + store.preds_interned;
        entries.push(SharedCacheEntry {
            pred: query.pred().clone(),
            layout: query.layout().clone(),
            kind: ApproxKind::Under,
            members,
            indsets,
        });
    }
    let n_queries = queries.len().max(1) as f64;

    // journal: appends of the same registrations' entries, flushed per entry as served.
    let (append_ns, bytes_per_entry) = journal_appends(&entries, out_dir, tracer);
    let _ = std::fs::remove_dir_all(out_dir);

    // A deployment holding every entry, as a warmed server would.
    let deployment: Deployment<D> = Deployment::new(workload::layout(), ServeConfig::new());
    for entry in &entries {
        deployment.shared().insert_ready(entry.clone());
    }

    // shared: a cached registration, per call.
    let mut session = deployment.session(PolicySpec::AllowAll);
    tracer.passes("shared.register_cached", || {
        for query in &queries {
            black_box(session.register_cached(query, ApproxKind::Under, members))
                .expect("every query is cached");
        }
        queries.len() as u64
    });
    drop(session);

    // frontend: submit and tick per request, in the workload's tick shapes (one request per
    // tick; a bulk batch is one request).
    let mut frontend = Frontend::new(deployment.share());
    let conn = ConnId(1000);
    for query in &w.palette {
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery { query: query.clone(), kind: ApproxKind::Under, members },
        );
        frontend.tick();
    }
    // batch: each downgrade segment also runs through `Deployment::downgrade_batch` and the
    // sequential `AnosySession::downgrade` loop on sessions of its own, right beside the tick
    // that served it, so host drift hits all three alike.
    let open_session = |tenant: &Tenant| {
        let mut session = deployment.session(tenant.policy.clone());
        for query in w.palette.iter().chain(tenant.registers()) {
            session
                .register_cached(query, ApproxKind::Under, members)
                .expect("every query is cached");
        }
        session
    };
    let mut wire_items: Vec<(String, ServeResponse)> = Vec::new();
    let (mut decisions, mut decision_ticks) = (0u64, 0u64);
    for tenant in tenants {
        let (mut batched, mut looped) = (open_session(tenant), open_session(tenant));
        let mut session = 0u64;
        let mut skip = false;
        for (s, step) in tenant.steps.iter().enumerate() {
            if skip && matches!(step.action, Action::Downgrade(..)) {
                continue;
            }
            let request_index = wire_items.len();
            let request = step.action.request(&tenant.policy, members, session);
            let id = tracer
                .time("frontend.submit", Some(request_index), || frontend.submit(conn, request));
            let tick_name = match step.action {
                Action::Downgrade(..) | Action::Batch(..) => "frontend.tick",
                Action::Open => "frontend.open",
                _ => "frontend.tick_other",
            };
            let mut responses = tracer.time(tick_name, Some(request_index), || frontend.tick());
            let response = responses.pop().filter(|r| r.request == id).map(|r| r.response);
            let Some(response) = response else {
                problems.push("the frontend did not answer a replayed request".to_string());
                continue;
            };
            let text = wire::encode_response(&response);
            match (&step.action, &response) {
                (Action::Open, ServeResponse::SessionOpened { session: id }) => session = id.0,
                (Action::Open | Action::Close, _) => {}
                _ => {
                    if let Some(expected) = tenant.expected.as_ref().map(|e| &e[s]) {
                        if *expected != text {
                            problems.push(format!(
                                "in-process replay step {s}: `{expected}` vs `{text}`"
                            ));
                        }
                    }
                }
            }
            let segment = match &step.action {
                Action::Downgrade(query, secret) => Some((query, std::slice::from_ref(secret))),
                Action::Batch(query, secrets) => Some((query, secrets.as_slice())),
                _ => None,
            };
            if let Some((query, secrets)) = segment {
                decisions += secrets.len() as u64;
                decision_ticks += 1;
                let a = tracer.time("batch.decide", Some(request_index), || {
                    deployment.downgrade_batch(&mut batched, secrets, query)
                });
                let b = tracer.time("batch.seq", Some(request_index), || {
                    secrets
                        .iter()
                        .map(|p| looped.downgrade(&anosy_ifc::Protected::new(p.clone()), query))
                        .collect::<Vec<_>>()
                });
                if format!("{a:?}") != format!("{b:?}") {
                    problems.push(format!("downgrade_batch disagrees with the sequential loop on request {request_index}"));
                }
                if w.until_refused && text.starts_with("deny policy") {
                    skip = true;
                }
            }
            let mut line = format!("@{} ", conn.0);
            step.render(session, &mut line);
            wire_items.push((line, response));
        }
    }
    let registered = frontend.deployment().stats().entries;

    let workers = deployment.pool().workers();
    tracer.passes("pool.scatter", || {
        for _ in 0..200 {
            let jobs: Vec<_> = (0..workers).map(|_| || black_box(0u8)).collect();
            black_box(deployment.pool().scatter(jobs));
        }
        200
    });

    // wire: the same request lines and responses through both decoders, the parser and the
    // encoder.
    let frames: Vec<Vec<u8>> =
        wire_items.iter().map(|(line, _)| wire::encode_frame(line.as_bytes())).collect();
    let lines: Vec<Vec<u8>> =
        wire_items.iter().map(|(line, _)| format!("{line}\n").into_bytes()).collect();
    tracer.passes("wire.frame_decode", || {
        let mut decoder = FrameDecoder::new();
        for frame in &frames {
            black_box(decoder.feed(frame));
        }
        frames.len() as u64
    });
    tracer.passes("wire.line_decode", || {
        let mut decoder = LineDecoder::new();
        for line in &lines {
            black_box(decoder.feed(line));
        }
        lines.len() as u64
    });
    let layout = workload::layout();
    tracer.passes("wire.parse", || {
        let mut interner = NameInterner::new();
        for (line, _) in &wire_items {
            let text = line.split_once(' ').map_or(line.as_str(), |(_, rest)| rest);
            black_box(wire::parse_request_interned(text, &layout, &mut interner))
                .expect("replayed lines parse");
        }
        wire_items.len() as u64
    });
    let mut buffer = Vec::new();
    tracer.passes("wire.encode", || {
        for (seq, (_, response)) in wire_items.iter().enumerate() {
            let line = format!("{}.{} {}", conn.0, seq + 1, wire::encode_response(response));
            buffer.clear();
            wire::frame_into(&mut buffer, line.as_bytes());
            black_box(&buffer);
        }
        wire_items.len() as u64
    });
    let wire_bytes: usize = wire_items
        .iter()
        .map(|(line, response)| {
            let sent = line.len() + if w.binary { 12 } else { 1 };
            let answered = format!("{}.1 {}", conn.0, wire::encode_response(response)).len()
                + if w.binary { 12 } else { 1 };
            sent + answered
        })
        .sum();

    // Per-request shares: where a served request's time goes, layer by layer.
    let requests = wire_items.len().max(1) as f64;
    let decode = tracer.per_item(if w.binary { "wire.frame_decode" } else { "wire.line_decode" });
    let wire_ns = decode + tracer.per_item("wire.parse") + tracer.per_item("wire.encode");
    let (tick_ns, _) = tracer.total("frontend.tick");
    let (tick_other_ns, _) = tracer.total("frontend.tick_other");
    let (open_ns, _) = tracer.total("frontend.open");
    let (decide_ns, _) = tracer.total("batch.decide");
    let (seq_ns, _) = tracer.total("batch.seq");
    let (submit_ns, submits) = tracer.total("frontend.submit");
    let frontend_ns =
        (submit_ns + tick_ns + tick_other_ns + open_ns - decide_ns).max(0.0) / requests;
    let synth_ms = tracer.per_item("synth") / 1e6;
    let verify_ms = tracer.per_item("verify") / 1e6;
    let registers_per_request =
        tenants.iter().map(|t| t.registers().count()).sum::<usize>() as f64 / requests;
    let synth_ns = (synth_ms + verify_ms) * 1e6 * registers_per_request;
    let decide_per_request = decide_ns / requests;
    let total = served.rtt_floor_ns + wire_ns + frontend_ns + decide_per_request + synth_ns;
    let per_decision = |ns: f64| ns / decisions.max(1) as f64;

    let metrics = vec![
        metric("wire.frame_decode_ns", tracer.per_item("wire.frame_decode"), "ns"),
        metric("wire.line_decode_ns", tracer.per_item("wire.line_decode"), "ns"),
        metric("wire.parse_ns", tracer.per_item("wire.parse"), "ns"),
        metric("wire.encode_ns", tracer.per_item("wire.encode"), "ns"),
        metric("wire.bytes_per_decision", wire_bytes as f64 / decisions.max(1) as f64, "bytes"),
        metric("frontend.submit_ns", submit_ns / submits.max(1.0), "ns"),
        metric("frontend.tick_ns_per_decision", per_decision(tick_ns), "ns"),
        metric("frontend.self_ns_per_decision", per_decision(tick_ns - decide_ns), "ns"),
        metric(
            "frontend.decisions_per_tick",
            decisions as f64 / decision_ticks.max(1) as f64,
            "count",
        ),
        metric("frontend.open_us", tracer.per_item("frontend.open") / 1e3, "us"),
        metric("frontend.registered_queries", registered as f64, "count"),
        metric("batch.decide_ns_per_decision", per_decision(decide_ns), "ns"),
        metric("batch.seq_ns_per_decision", per_decision(seq_ns), "ns"),
        metric("batch.vs_seq", decide_ns / seq_ns.max(1.0), "ratio"),
        metric("pool.scatter_us", tracer.per_item("pool.scatter") / 1e3, "us"),
        metric("shared.register_hit_us", tracer.per_item("shared.register_cached") / 1e3, "us"),
        metric("synth.ms_per_query", synth_ms, "ms"),
        metric("verify.ms_per_query", verify_ms, "ms"),
        metric("solver.nodes_per_query", nodes as f64 / n_queries, "count"),
        metric("store.memo_hit_ratio", memo_hits as f64 / memo_lookups.max(1) as f64, "fraction"),
        metric(
            "store.box_memo_bypassed_frac",
            box_bypassed as f64 / box_lookups.max(1) as f64,
            "fraction",
        ),
        metric("store.interned_nodes", interned as f64 / n_queries, "count"),
        metric("journal.append_us", append_ns / 1e3, "us"),
        metric("journal.bytes_per_entry", bytes_per_entry, "bytes"),
        metric(
            "share.server_wire_frontend",
            (served.rtt_floor_ns + wire_ns + frontend_ns) / total,
            "fraction",
        ),
        metric("share.batch_decide", decide_per_request / total, "fraction"),
        metric(
            "share.synth_verify_of_register",
            (synth_ms + verify_ms) * 1e6 / served.register_p50_ns.max(1.0),
            "fraction",
        ),
    ];
    (metrics, problems)
}

/// Appends every entry to a fresh journal flushed per entry; returns nanoseconds per append
/// and bytes per appended record.
fn journal_appends<D: DomainCodec>(
    entries: &[SharedCacheEntry<D>],
    dir: &std::path::Path,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    if std::fs::create_dir_all(dir).is_err() || entries.is_empty() {
        return (0.0, 0.0);
    }
    let path = dir.join("j");
    let Ok(recovered) =
        Journal::<D>::recover(JournalConfig::new(&path).with_flush(FlushPolicy::EveryEntry))
    else {
        return (0.0, 0.0);
    };
    let journal = recovered.journal;
    let mut appended = 0u64;
    tracer.passes("journal.append", || {
        for entry in entries {
            journal.append(entry).expect("journal appends succeed");
        }
        appended += entries.len() as u64;
        entries.len() as u64
    });
    drop(journal);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    (tracer.per_item("journal.append"), bytes as f64 / appended.max(1) as f64)
}

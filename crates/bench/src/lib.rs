//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The report binaries (`report_table1`, `report_fig5`, `report_fig6`, `report_baseline`) print
//! the same rows/series the paper reports; the Criterion benches under `benches/` measure the
//! synthesis and verification costs behind them. Both are thin wrappers around the functions in
//! this library so the numbers in EXPERIMENTS.md and the benchmark timings come from the same
//! code path.

use anosy::domains::{AbstractDomain, IntervalDomain, PowersetDomain};
use anosy::prelude::*;
use anosy::suite::benchmarks::{all_benchmarks, Benchmark};
use std::time::{Duration, Instant};

/// One row of Table 1: benchmark metadata plus this repository's exact ind. set sizes.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark short id (`B1` ... `B5`) and name.
    pub id: String,
    /// Number of secret fields.
    pub fields: usize,
    /// Exact True / False ind. set sizes measured by model counting.
    pub measured: (u128, u128),
    /// The sizes published in the paper.
    pub paper: (u128, u128),
    /// Whether our bounds reproduce the paper exactly.
    pub exact_bounds: bool,
}

/// Computes Table 1 (ground-truth ind. set sizes) for every benchmark.
pub fn table1(solver: &mut Solver) -> Vec<Table1Row> {
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let measured = b.ground_truth(solver).expect("ground-truth counting fits the budget");
            Table1Row {
                id: format!("{} {:?}", b.id.short(), b.id),
                fields: b.field_count(),
                measured,
                paper: (b.paper_true_size, b.paper_false_size),
                exact_bounds: b.exact_bounds,
            }
        })
        .collect()
}

/// Which abstract domain a Figure 5 run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig5Domain {
    /// Figure 5a: the interval domain.
    Intervals,
    /// Figure 5b: powersets of the given size.
    Powersets(usize),
}

/// One row of Figure 5: sizes, % difference from ground truth and timings for one benchmark and
/// one approximation direction.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark short id.
    pub id: String,
    /// Approximation direction.
    pub kind: ApproxKind,
    /// Synthesized True / False ind. set sizes.
    pub sizes: (u128, u128),
    /// Percentage difference from the exact ind. set sizes (True, False); lower is better.
    pub diff_percent: (f64, f64),
    /// Verification time.
    pub verify_time: Duration,
    /// Synthesis time.
    pub synth_time: Duration,
    /// Whether verification succeeded (it always should).
    pub verified: bool,
    /// Solver search nodes explored during synthesis (search effort behind `synth_time`).
    pub synth_nodes: u64,
    /// Term-store memo-table hits during synthesis (interned-representation reuse).
    pub cache_hits: u64,
    /// Term-store memo-table misses during synthesis.
    pub cache_misses: u64,
    /// `(id, box)` memo profitability per depth bucket: `[hits, misses, bypassed]` for each of
    /// [`anosy::logic::BOX_MEMO_DEPTH_LABELS`]. The per-bucket hit rates are the evidence for
    /// (or against) the `BOX_MEMO_MIN_DEPTH` threshold.
    pub memo_depth: [[u64; 3]; anosy::logic::BOX_MEMO_DEPTH_BUCKETS],
}

fn percent_diff(approx: u128, exact: u128) -> f64 {
    if exact == 0 {
        return if approx == 0 { 0.0 } else { 100.0 * approx as f64 };
    }
    100.0 * (approx as f64 - exact as f64).abs() / exact as f64
}

/// Synthesizes and verifies the ind. sets of one benchmark in one domain/direction, returning the
/// Figure 5 row.
pub fn fig5_row(
    benchmark: &Benchmark,
    domain: Fig5Domain,
    kind: ApproxKind,
    synth_config: &SynthConfig,
) -> Fig5Row {
    let mut solver = Solver::with_config(synth_config.solver.clone());
    let exact = benchmark.ground_truth(&mut solver).expect("ground-truth counting fits the budget");

    let mut synthesizer = Synthesizer::with_config(synth_config.clone());
    let mut verifier = Verifier::with_config(synth_config.solver.clone());

    // Synthesize (timed), then verify (timed), in whichever domain was requested. The two arms
    // produce different concrete domain types, so the shared tail works on the extracted sizes.
    let synth_started = Instant::now();
    let (sizes, synth_time, report) = match domain {
        Fig5Domain::Intervals => {
            let ind = synthesizer
                .synth_interval(&benchmark.query, kind)
                .expect("interval synthesis fits the budget");
            let synth_time = synth_started.elapsed();
            let report = verifier
                .verify_indsets(&benchmark.query, &ind)
                .expect("verification obligations are well-formed");
            ((ind.truthy().size(), ind.falsy().size()), synth_time, report)
        }
        Fig5Domain::Powersets(k) => {
            let ind = synthesizer
                .synth_powerset(&benchmark.query, kind, k)
                .expect("powerset synthesis fits the budget");
            let synth_time = synth_started.elapsed();
            let report = verifier
                .verify_indsets(&benchmark.query, &ind)
                .expect("verification obligations are well-formed");
            ((ind.truthy().size(), ind.falsy().size()), synth_time, report)
        }
    };
    let store = synthesizer.store_stats();
    let mut memo_depth = [[0u64; 3]; anosy::logic::BOX_MEMO_DEPTH_BUCKETS];
    for (bucket, row) in memo_depth.iter_mut().enumerate() {
        *row = [
            store.box_memo_depth_hits[bucket],
            store.box_memo_depth_misses[bucket],
            store.box_memo_depth_bypassed[bucket],
        ];
    }
    Fig5Row {
        id: benchmark.id.short().to_string(),
        kind,
        sizes,
        diff_percent: (percent_diff(sizes.0, exact.0), percent_diff(sizes.1, exact.1)),
        verify_time: report.elapsed,
        synth_time,
        verified: report.is_verified(),
        synth_nodes: synthesizer.solver_stats().nodes_explored,
        cache_hits: store.cache_hits(),
        cache_misses: store.cache_misses(),
        memo_depth,
    }
}

/// Computes the whole Figure 5 table (every benchmark × under/over) for one domain.
pub fn fig5(domain: Fig5Domain, synth_config: &SynthConfig) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for kind in ApproxKind::ALL {
            rows.push(fig5_row(&b, domain, kind, synth_config));
        }
    }
    rows
}

/// Formats a size the way the paper does: exact below 10⁵, scientific notation above.
pub fn fmt_size(n: u128) -> String {
    if n < 100_000 {
        n.to_string()
    } else {
        format!("{:.2e}", n as f64)
    }
}

/// Renders Table 1 as aligned text.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "#   Name        Fields  Ind. sets (ours, T/F)        Ind. sets (paper, T/F)       Bounds\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:>6}  {:>13} / {:<13} {:>13} / {:<13} {}\n",
            r.id,
            r.fields,
            fmt_size(r.measured.0),
            fmt_size(r.measured.1),
            fmt_size(r.paper.0),
            fmt_size(r.paper.1),
            if r.exact_bounds { "exact" } else { "same order" },
        ));
    }
    out
}

/// Renders a Figure 5 table as aligned text (one block per approximation direction).
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    for kind in ApproxKind::ALL {
        out.push_str(&format!(
            "\n{kind}-approximation\n#     Size (T/F)                    %diff (T/F)        Verif.  Synth.   Verified\n"
        ));
        for r in rows.iter().filter(|r| r.kind == kind) {
            out.push_str(&format!(
                "{:<4} {:>13} / {:<13} {:>7.0} / {:<7.0} {:>6.2}s {:>7.2}s  {}\n",
                r.id,
                fmt_size(r.sizes.0),
                fmt_size(r.sizes.1),
                r.diff_percent.0,
                r.diff_percent.1,
                r.verify_time.as_secs_f64(),
                r.synth_time.as_secs_f64(),
                if r.verified { "yes" } else { "NO" },
            ));
        }
    }
    out
}

/// Renders Figure 5 rows as a small JSON document, used to check in benchmark baselines
/// (`BENCH_seed.json`). Hand-rolled: the workspace carries no serde dependency, and every field
/// is a number or a short identifier.
///
/// The document records the measuring host's parallelism next to a `capped_by_host` flag, the
/// same pair the serve reports carry per parallel row. Figure 5's synthesis and verification
/// run on one thread (`workers = 1`), so the flag is `false` on any host — it exists so
/// tooling can check every `BENCH_*.json` uniformly instead of special-casing this document.
pub fn fig5_rows_to_json(domain_label: &str, rows: &[Fig5Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"figure\": \"{domain_label}\",\n"));
    out.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    out.push_str(&format!("  \"capped_by_host\": {},\n", capped_by_host(1)));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let memo_depth = r
            .memo_depth
            .iter()
            .enumerate()
            .map(|(bucket, [hits, misses, bypassed])| {
                format!(
                    concat!(
                        "{{\"depth\": \"{}\", \"hits\": {}, \"misses\": {}, ",
                        "\"bypassed\": {}}}"
                    ),
                    anosy::logic::BOX_MEMO_DEPTH_LABELS[bucket],
                    hits,
                    misses,
                    bypassed
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            concat!(
                "    {{\"id\": \"{}\", \"kind\": \"{}\", ",
                "\"true_size\": {}, \"false_size\": {}, ",
                "\"diff_true_percent\": {:.4}, \"diff_false_percent\": {:.4}, ",
                "\"synth_seconds\": {:.6}, \"verify_seconds\": {:.6}, \"verified\": {}, ",
                "\"synth_nodes\": {}, \"cache_hits\": {}, \"cache_misses\": {}, ",
                "\"box_memo_depth\": [{}]}}{}\n"
            ),
            r.id,
            r.kind,
            r.sizes.0,
            r.sizes.1,
            r.diff_percent.0,
            r.diff_percent.1,
            r.synth_time.as_secs_f64(),
            r.verify_time.as_secs_f64(),
            r.verified,
            r.synth_nodes,
            r.cache_hits,
            r.cache_misses,
            memo_depth,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A quick synthesis configuration used by smoke tests and the CI-friendly benches.
pub fn quick_synth_config() -> SynthConfig {
    SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(1)
}

/// Escapes a string for embedding in the hand-rolled JSON documents (quotes, backslashes and
/// control characters; the workspace carries no serde).
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Hardware threads of the measuring host (the ceiling on any wall-clock speedup thread
/// parallelism can deliver; recorded in the serve report so readers can interpret the ratios).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Whether a measurement that spread work over `workers` threads was capped by the host: with
/// fewer hardware threads than workers, wall-clock ratios measure batching/protocol overhead,
/// not scaling. Recorded per parallel row in the JSON reports so readers (and tooling) don't
/// have to infer it from the prose analysis.
pub fn capped_by_host(workers: usize) -> bool {
    host_parallelism() < workers
}

/// One row of the multi-reactor transport comparison (`report_serve --json`'s
/// `transport_rows`, recorded as `BENCH_pr7.json`): the seeded `SimNet` load generator driven
/// through a [`anosy::serve::ReactorPool`] at one reactor count.
#[derive(Debug, Clone)]
pub struct TransportRow {
    /// Reactor shards the pool ran.
    pub reactors: u64,
    /// Simulated connections (tenants) driven.
    pub connections: usize,
    /// Protocol requests scheduled across all connections.
    pub requests: usize,
    /// Wall-clock of the pool run.
    pub seconds: f64,
    /// `requests / seconds`.
    pub requests_per_sec: f64,
    /// This row's throughput over the `reactors = 1` row's.
    pub speedup_vs_one: f64,
    /// `host_parallelism() < reactors` — the row cannot demonstrate reactor scaling on this
    /// host (see [`capped_by_host`]).
    pub capped_by_host: bool,
}

/// Runs the `SimNet` load generator ([`anosy::serve::loadgen`]) at every reactor count in
/// `counts` and measures end-to-end throughput. **Equivalence is asserted before anything is
/// timed**: every multi-reactor run must deliver per-connection response streams element-wise
/// identical to the single-reactor run's ([`anosy::serve::loadgen::assert_equivalent`]). The
/// timed runs then share one warmed deployment so synthesis cost and cache state are held
/// fixed across counts.
pub fn transport_rows(
    tenants: usize,
    population_seed: u64,
    net_seed: u64,
    counts: &[u64],
) -> Vec<TransportRow> {
    use anosy::serve::loadgen::{self, LoadOptions};

    let population = loadgen::population(population_seed, tenants);
    let base = loadgen::run(&population, &LoadOptions::new(net_seed, 1).recording());
    for &reactors in counts {
        if reactors != 1 {
            let other =
                loadgen::run(&population, &LoadOptions::new(net_seed, reactors).recording());
            loadgen::assert_equivalent(&base, &other);
        }
    }

    let deployment =
        anosy::serve::popsim::warm_deployment(&population, &anosy::serve::ServeConfig::for_tests());
    let mut rows: Vec<TransportRow> = Vec::new();
    for &reactors in counts {
        let run = loadgen::run_on(&population, &LoadOptions::new(net_seed, reactors), &deployment);
        let report = &run.report;
        let speedup_vs_one = match rows.first() {
            Some(first) if first.reactors == 1 && first.requests_per_sec > 0.0 => {
                report.requests_per_sec / first.requests_per_sec
            }
            _ => 1.0,
        };
        rows.push(TransportRow {
            reactors,
            connections: report.connections,
            requests: report.requests,
            seconds: report.elapsed.as_secs_f64(),
            requests_per_sec: report.requests_per_sec,
            speedup_vs_one,
            capped_by_host: capped_by_host(reactors as usize),
        });
    }
    rows
}

/// Renders transport rows as an aligned text table (the `--json`-less `report_serve` output).
pub fn render_transport(rows: &[TransportRow]) -> String {
    let mut out = String::from(
        "Reactors  Conns  Requests  Seconds      req/s  vs 1 reactor  Capped by host\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>8}  {:>5}  {:>8}  {:>7.4}  {:>9.1}  {:>11.2}x  {}\n",
            r.reactors,
            r.connections,
            r.requests,
            r.seconds,
            r.requests_per_sec,
            r.speedup_vs_one,
            r.capped_by_host,
        ));
    }
    out
}

/// One row of the restart-latency comparison (`report_serve --json`'s `restart_rows`,
/// recorded as `BENCH_pr9.json`): how long a warm start (snapshot load + journal replay of
/// `entries` cached entries, split roughly half/half) takes vs constructing the same
/// deployment cold with nothing to recover.
#[derive(Debug, Clone)]
pub struct RestartRow {
    /// Cached entries recovered by the warm start (snapshot + journal together).
    pub entries: usize,
    /// Entries that came from the compacted snapshot.
    pub snapshot_entries: usize,
    /// Entries replayed from the journal tail.
    pub journaled_entries: usize,
    /// Best-of-N construction time of a bare deployment (no journal, nothing to load).
    pub cold_seconds: f64,
    /// Best-of-N time of `Deployment::new` + `open_journal` over the populated files.
    pub warm_seconds: f64,
}

/// Measures restart-to-warm latency at each cache size in `sizes`: a snapshot file holding
/// half the entries and a journal holding the rest are staged once per size, then the
/// recovery path (`Deployment::new` + [`anosy::serve::Deployment::open_journal`]) is timed
/// against a bare cold construction (best of `iterations` each). Entries are synthetic
/// single-box caches — the cost scales with entry count and codec work, not solver work.
pub fn restart_rows(sizes: &[usize], iterations: usize) -> Vec<RestartRow> {
    use anosy::core::SharedCacheEntry;
    use anosy::serve::{save_entries, Journal, JournalConfig, ServeConfig};

    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let entry = |k: i64| SharedCacheEntry::<IntervalDomain> {
        pred: ((IntExpr::var(0) - k).abs() + IntExpr::var(1)).le(100),
        layout: layout.clone(),
        kind: ApproxKind::Under,
        members: None,
        indsets: IndSets::new(
            ApproxKind::Under,
            IntervalDomain::from_intervals(vec![AInt::new(0, 100), AInt::new(0, 100)]),
            IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(101, 400)]),
        ),
    };
    let mut rows = Vec::new();
    for &size in sizes {
        let path = std::env::temp_dir().join(format!("anosy-bench-restart-{size}.journal"));
        let journal_config = JournalConfig::new(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_config.snapshot_path());
        // Stage the recovery inputs once: the first half as a compacted snapshot, the rest
        // as journal-tail records (distinct predicates, so nothing dedups away).
        let snapshot_entries = size / 2;
        let staged: Vec<_> = (0..size).map(|k| entry(k as i64)).collect();
        save_entries(&journal_config.snapshot_path(), &staged[..snapshot_entries])
            .expect("snapshot stages");
        let recovered = Journal::<IntervalDomain>::recover(journal_config.clone())
            .expect("journal opens on a fresh file");
        for e in &staged[snapshot_entries..] {
            recovered.journal.append(e).expect("journal append stages");
        }
        drop(recovered);

        let config = ServeConfig::for_tests();
        let journaled = config.clone().with_journal(journal_config);
        let mut cold_seconds = f64::INFINITY;
        let mut warm_seconds = f64::INFINITY;
        let mut journaled_entries = 0;
        for _ in 0..iterations.max(1) {
            let start = Instant::now();
            let cold: Deployment<IntervalDomain> = Deployment::new(layout.clone(), config.clone());
            cold_seconds = cold_seconds.min(start.elapsed().as_secs_f64());
            assert_eq!(cold.stats().entries, 0);

            let start = Instant::now();
            let warm: Deployment<IntervalDomain> =
                Deployment::new(layout.clone(), journaled.clone());
            let recovery =
                warm.open_journal(false).expect("recovery succeeds").expect("journal configured");
            warm_seconds = warm_seconds.min(start.elapsed().as_secs_f64());
            assert_eq!(recovery.snapshot.installed + recovery.replayed, size);
            journaled_entries = recovery.replayed;
        }
        rows.push(RestartRow {
            entries: size,
            snapshot_entries,
            journaled_entries,
            cold_seconds,
            warm_seconds,
        });
    }
    rows
}

/// Renders restart-latency rows as an aligned text table.
pub fn render_restart(rows: &[RestartRow]) -> String {
    let mut out =
        String::from(" Entries  Snapshot  Journaled  Cold start  Warm start (snapshot+replay)\n");
    for r in rows {
        out.push_str(&format!(
            "{:>8}  {:>8}  {:>9}  {:>9.6}s  {:>9.6}s\n",
            r.entries, r.snapshot_entries, r.journaled_entries, r.cold_seconds, r.warm_seconds,
        ));
    }
    out
}

/// Renders the multi-reactor transport rows and the restart-latency rows, with the host's
/// hardware-thread count and a free-text analysis of the measurement conditions, as the
/// `report_serve --json` document. Every transport row carries `capped_by_host` (see
/// [`capped_by_host`]).
pub fn serve_rows_to_json(
    transport: &[TransportRow],
    restart: &[RestartRow],
    analysis: &str,
) -> String {
    let mut out = format!("{{\n  \"host_parallelism\": {},\n", host_parallelism());
    out.push_str(&format!("  \"analysis\": \"{}\",\n", json_escape(analysis)));
    out.push_str("  \"transport_rows\": [\n");
    for (i, r) in transport.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"reactors\": {}, \"connections\": {}, \"requests\": {}, ",
                "\"seconds\": {:.6}, \"requests_per_sec\": {:.1}, ",
                "\"speedup_vs_one\": {:.3}, \"capped_by_host\": {}}}{}\n"
            ),
            r.reactors,
            r.connections,
            r.requests,
            r.seconds,
            r.requests_per_sec,
            r.speedup_vs_one,
            r.capped_by_host,
            if i + 1 == transport.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"restart_rows\": [\n");
    for (i, r) in restart.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"entries\": {}, \"snapshot_entries\": {}, \"journaled_entries\": {}, ",
                "\"cold_seconds\": {:.6}, \"warm_seconds\": {:.6}}}{}\n"
            ),
            r.entries,
            r.snapshot_entries,
            r.journaled_entries,
            r.cold_seconds,
            r.warm_seconds,
            if i + 1 == restart.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Precision comparison against the abstract-interpretation baseline for every benchmark.
pub fn baseline_comparison(synth_config: &SynthConfig) -> Vec<anosy::suite::BaselineComparison> {
    let mut solver = Solver::with_config(synth_config.solver.clone());
    let mut synthesizer = Synthesizer::with_config(synth_config.clone());
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let prior = IntervalDomain::top(b.query.layout());
            let (baseline_true, _) = anosy::suite::ai_posterior(&b.query, &prior);
            let exact = b.ground_truth(&mut solver).expect("counting fits the budget");
            let over = synthesizer
                .synth_interval(&b.query, ApproxKind::Over)
                .expect("synthesis fits the budget");
            let under = synthesizer
                .synth_interval(&b.query, ApproxKind::Under)
                .expect("synthesis fits the budget");
            anosy::suite::BaselineComparison {
                query: b.query.name().to_string(),
                exact_true: exact.0,
                baseline_true: baseline_true.size(),
                anosy_over_true: over.truthy().size(),
                anosy_under_true: under.truthy().size(),
            }
        })
        .collect()
}

/// Renders the Figure 6 survivor curves as a text series (one line per powerset size).
pub fn render_fig6(outcomes: &[anosy::suite::AdvertisingOutcome], num_queries: usize) -> String {
    let mut out = String::from("k   survivors after the i-th authorized declassification query\n");
    for o in outcomes {
        let curve = o.survivor_curve(num_queries);
        let rendered: Vec<String> = curve.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "{:<3} [{}]  (max {} queries, mean {:.1})\n",
            o.k,
            rendered.join(", "),
            o.max_authorized(),
            o.mean_authorized()
        ));
    }
    out
}

/// Ensures the powerset domain really is a domain the harness can use generically (guards against
/// regressions in the facade's re-exports).
pub fn sanity_check_domains(layout: &SecretLayout) -> (u128, u128) {
    (IntervalDomain::top(layout).size(), PowersetDomain::top(layout).size())
}

/// One macro-benchmark row: a full simulated tenant population (`anosy_suite::population`)
/// compiled onto a `SimNet` schedule and driven end-to-end through the wire protocol against a
/// **cold** deployment — synthesis misses are part of the measured workload, so the cache hit
/// rate reflects the popularity skew instead of a pre-warmed palette.
#[derive(Debug, Clone)]
pub struct PopulationRow {
    /// Popularity skew of the run (`uniform` / `zipf` / `sharp`).
    pub label: String,
    /// Simulated tenants (one connection + one session each).
    pub tenants: usize,
    /// Ranked palette queries the population draws from (plus the adversarial probe ladder).
    pub palette: usize,
    /// Distinct queries any tenant actually used — under skew, far fewer than the palette.
    pub distinct_queries: usize,
    /// Protocol requests scheduled (opens, registers, downgrades, knowledge probes, closes).
    pub requests: usize,
    /// Worker threads in the deployment pool.
    pub workers: usize,
    /// Wall-clock of the whole replay, including cold synthesis.
    pub seconds: f64,
    /// End-to-end requests per second through the event loop.
    pub requests_per_second: f64,
    /// Frontend ticks the reactor ran.
    pub ticks: u64,
    /// Registrations answered from the shared synthesis cache.
    pub synth_hits: u64,
    /// Registrations that ran the full synthesize-and-verify pipeline.
    pub synth_misses: u64,
    /// `synth_hits / (synth_hits + synth_misses)` over every cache lookup. Only registrations
    /// look the cache up; opening a session does not.
    pub synth_hit_rate: f64,
    /// `RegisterQuery` requests the population scheduled.
    pub register_requests: usize,
    /// `1 - synth_misses / register_requests` — the skew signal proper: each register request
    /// triggers exactly one cache lookup and each miss synthesizes one distinct query, so a
    /// Zipf head (fewer distinct queries across the same register stream) converges the cold
    /// cache after fewer misses.
    pub register_hit_rate: f64,
    /// Denials across all responses (refused downgrades + rejected requests).
    pub denials: u64,
    /// `denials / requests`.
    pub denial_rate: f64,
    /// Sessions still open at drain — the population's lingering tenants, exactly.
    pub open_at_drain: usize,
}

/// Drives one population per skew through the full serving stack and measures it.
///
/// Generation determinism is asserted before anything is timed (the same config must
/// fingerprint-identically twice — a row from an unreproducible workload is worthless); the
/// element-wise oracle equivalence of the very same compile-and-replay path is covered by
/// `anosy-serve`'s `population_sim.rs` / `population_scale.rs` tiers.
pub fn population_rows(
    seed: u64,
    tenants: usize,
    palette: usize,
    workers: usize,
    synth_config: &SynthConfig,
) -> Vec<PopulationRow> {
    use anosy::serve::popsim::{self, CompileOptions};
    use anosy::serve::{Frontend, ServeConfig, Server, ServerConfig};
    use anosy::suite::population::{Population, PopulationConfig, Skew, TenantAction};

    [(Skew::Uniform, "uniform"), (Skew::Zipf, "zipf"), (Skew::Sharp, "sharp")]
        .into_iter()
        .map(|(skew, label)| {
            let config = PopulationConfig::paper(seed)
                .with_tenants(tenants)
                .with_palette(palette)
                .with_skew(skew)
                .with_waves(tenants.div_ceil(50).max(1));
            let population = Population::generate(&config);
            assert_eq!(
                population.fingerprint(),
                Population::generate(&config).fingerprint(),
                "population generation must be deterministic before it is worth timing"
            );

            let options = CompileOptions::new(seed ^ 0xbe7c).with_max_chunk(64).with_max_delay(2);
            let compiled = popsim::compile(&population, &options);
            let serve_config =
                ServeConfig::new().with_workers(workers).with_synth(synth_config.clone());
            let deployment = popsim::cold_deployment(&population, &serve_config);
            let mut server =
                Server::new(Frontend::new(deployment), compiled.net, ServerConfig::new());
            let started = Instant::now();
            server.run();
            let elapsed = started.elapsed();

            let frontend = server.frontend().stats();
            assert_eq!(frontend.tenants, population.tenants.len() as u64);
            let cache = server.frontend().deployment().stats().cache;
            let (_, _, lingering) = population.exit_profile();
            assert_eq!(server.frontend().open_sessions(), lingering, "session leak at drain");
            let register_requests = population
                .tenants
                .iter()
                .flat_map(|t| t.bursts.iter().flatten())
                .filter(|a| matches!(a, TenantAction::Register { .. }))
                .count();

            PopulationRow {
                label: label.to_string(),
                tenants: population.tenants.len(),
                palette,
                distinct_queries: population.distinct_queries_used(),
                requests: compiled.requests,
                workers,
                seconds: elapsed.as_secs_f64(),
                requests_per_second: compiled.requests as f64 / elapsed.as_secs_f64().max(1e-12),
                ticks: frontend.ticks,
                synth_hits: cache.synth_hits,
                synth_misses: cache.synth_misses,
                synth_hit_rate: cache.hit_ratio(),
                register_requests,
                register_hit_rate: 1.0
                    - cache.synth_misses as f64 / register_requests.max(1) as f64,
                denials: frontend.denials,
                denial_rate: frontend.denials as f64 / compiled.requests.max(1) as f64,
                open_at_drain: lingering,
            }
        })
        .collect()
}

/// Renders population rows as aligned text.
pub fn render_population(rows: &[PopulationRow]) -> String {
    let mut out = String::from(
        "Skew     Tenants  Palette  Used  Requests  Seconds    req/s     Reg hit   Denials  Open\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>7}  {:>7}  {:>4}  {:>8}  {:>8.3}  {:>9.0}  {:>7.1}%  {:>7}  {:>4}\n",
            r.label,
            r.tenants,
            r.palette,
            r.distinct_queries,
            r.requests,
            r.seconds,
            r.requests_per_second,
            r.register_hit_rate * 100.0,
            r.denials,
            r.open_at_drain,
        ));
    }
    out
}

/// Renders population rows as the `BENCH_pr6.json` document.
pub fn population_rows_to_json(rows: &[PopulationRow], analysis: &str) -> String {
    let mut out = String::from("{\n  \"figure\": \"population_macro\",\n");
    out.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    out.push_str(&format!("  \"analysis\": \"{}\",\n", json_escape(analysis)));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"skew\": \"{}\", \"tenants\": {}, \"palette\": {}, ",
                "\"distinct_queries\": {}, \"requests\": {}, \"workers\": {}, ",
                "\"seconds\": {:.6}, \"requests_per_second\": {:.1}, \"ticks\": {}, ",
                "\"synth_hits\": {}, \"synth_misses\": {}, \"synth_hit_rate\": {:.4}, ",
                "\"register_requests\": {}, \"register_hit_rate\": {:.4}, ",
                "\"denials\": {}, \"denial_rate\": {:.4}, \"open_at_drain\": {}}}{}\n"
            ),
            json_escape(&r.label),
            r.tenants,
            r.palette,
            r.distinct_queries,
            r.requests,
            r.workers,
            r.seconds,
            r.requests_per_second,
            r.ticks,
            r.synth_hits,
            r.synth_misses,
            r.synth_hit_rate,
            r.register_requests,
            r.register_hit_rate,
            r.denials,
            r.denial_rate,
            r.open_at_drain,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_for_exact_benchmarks() {
        let mut solver = Solver::new();
        let rows = table1(&mut solver);
        assert_eq!(rows.len(), 5);
        for r in rows.iter().filter(|r| r.exact_bounds) {
            assert_eq!(r.measured, r.paper, "{}", r.id);
        }
        let text = render_table1(&rows);
        assert!(text.contains("B1"));
        assert!(text.contains("exact"));
    }

    #[test]
    fn fig5_row_for_birthday_is_verified_and_reasonably_precise() {
        let b = anosy::suite::benchmarks::birthday();
        let row = fig5_row(&b, Fig5Domain::Intervals, ApproxKind::Under, &quick_synth_config());
        assert!(row.verified);
        assert_eq!(row.sizes.0, 259); // the True set is exactly representable by one box
        assert!(row.diff_percent.0 < 1e-9);
        let row_p =
            fig5_row(&b, Fig5Domain::Powersets(3), ApproxKind::Under, &quick_synth_config());
        assert!(row_p.verified);
        assert!(row_p.sizes.1 >= row.sizes.1);
        let text = render_fig5(&[row, row_p]);
        assert!(text.contains("under-approximation"));
    }

    #[test]
    fn fig5_json_has_one_object_per_row_and_parseable_shape() {
        let rows = vec![Fig5Row {
            id: "B1".to_string(),
            kind: ApproxKind::Under,
            sizes: (259, 9620),
            diff_percent: (0.0, 27.37),
            verify_time: Duration::from_micros(7),
            synth_time: Duration::from_micros(65),
            verified: true,
            synth_nodes: 420,
            cache_hits: 1700,
            cache_misses: 300,
            memo_depth: [[0, 0, 9], [0, 0, 4], [7, 3, 0], [0, 0, 0]],
        }];
        let json = fig5_rows_to_json("fig5a_intervals", &rows);
        assert_eq!(json.matches("{\"id\"").count(), rows.len());
        assert!(json.contains("\"figure\": \"fig5a_intervals\""));
        assert!(json.contains("\"host_parallelism\": "));
        assert!(
            json.contains("\"capped_by_host\": false"),
            "fig5 measurements are single-threaded, never capped"
        );
        assert!(json.contains("\"true_size\": 259"));
        assert!(json.contains("\"verified\": true"));
        assert!(json.contains("\"synth_nodes\": 420"));
        assert!(json.contains("\"cache_hits\": 1700"));
        assert!(json.contains("\"cache_misses\": 300"));
        assert!(json.contains("\"box_memo_depth\": ["));
        assert!(json.contains("{\"depth\": \"1-3\", \"hits\": 0, \"misses\": 0, \"bypassed\": 9}"));
        assert!(json.contains("{\"depth\": \"8-15\", \"hits\": 7, \"misses\": 3, \"bypassed\": 0}"));
        // Crude but dependency-free well-formedness checks.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"), "no trailing comma before the array close");
    }

    #[test]
    fn size_formatting_matches_the_papers_style() {
        assert_eq!(fmt_size(259), "259");
        assert_eq!(fmt_size(13_246), "13246");
        assert!(fmt_size(24_300_000).contains('e'));
    }

    #[test]
    fn baseline_comparison_shows_anosy_at_least_as_precise() {
        for c in baseline_comparison(&quick_synth_config()) {
            assert!(c.anosy_over_true <= c.baseline_true, "{}", c.query);
            assert!(c.anosy_under_true <= c.exact_true, "{}", c.query);
        }
    }

    #[test]
    fn fig6_rendering_contains_one_line_per_k() {
        let outcomes = vec![
            anosy::suite::AdvertisingOutcome { k: 1, authorized_per_run: vec![1, 2] },
            anosy::suite::AdvertisingOutcome { k: 3, authorized_per_run: vec![2, 3] },
        ];
        let text = render_fig6(&outcomes, 3);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("max 3"));
    }

    #[test]
    fn domain_sanity_check() {
        let layout = SecretLayout::builder().field("x", 0, 9).build();
        assert_eq!(sanity_check_domains(&layout), (10, 10));
    }

    #[test]
    fn serve_json_carries_one_object_per_transport_and_restart_row() {
        let transport = vec![
            TransportRow {
                reactors: 1,
                connections: 16,
                requests: 200,
                seconds: 0.05,
                requests_per_sec: 4000.0,
                speedup_vs_one: 1.0,
                capped_by_host: capped_by_host(1),
            },
            TransportRow {
                reactors: 4,
                connections: 16,
                requests: 200,
                seconds: 0.04,
                requests_per_sec: 5000.0,
                speedup_vs_one: 1.25,
                capped_by_host: capped_by_host(4),
            },
        ];
        assert!(render_transport(&transport).contains("vs 1 reactor"));
        let restart = vec![RestartRow {
            entries: 1000,
            snapshot_entries: 500,
            journaled_entries: 500,
            cold_seconds: 0.0001,
            warm_seconds: 0.02,
        }];
        assert!(render_restart(&restart).contains("Warm start"));
        let json = serve_rows_to_json(&transport, &restart, "single-core \"host\"\nwith C:\\cores");
        assert_eq!(json.matches("{\"reactors\"").count(), transport.len());
        assert_eq!(json.matches("{\"entries\"").count(), restart.len());
        assert!(
            json.contains("single-core \\\"host\\\"\\nwith C:\\\\cores"),
            "quotes, newlines and backslashes are escaped"
        );
        assert!(json.contains("\"host_parallelism\": "));
        // Every transport row carries the machine-readable host-cap flag.
        assert_eq!(json.matches("\"capped_by_host\": ").count(), transport.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"), "no trailing comma before an array close");
    }

    #[test]
    fn restart_rows_recover_every_staged_entry() {
        let rows = restart_rows(&[50, 200], 2);
        assert_eq!(rows.len(), 2);
        for (r, size) in rows.iter().zip([50usize, 200]) {
            assert_eq!(r.entries, size);
            assert_eq!(r.snapshot_entries, size / 2);
            assert_eq!(r.journaled_entries, size - size / 2);
            assert!(r.cold_seconds >= 0.0 && r.warm_seconds > 0.0);
        }
        assert!(render_restart(&rows).contains("Snapshot"));
    }

    #[test]
    fn transport_rows_gate_on_equivalence_and_scale_with_the_request_count() {
        let rows = transport_rows(12, 41, 43, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].reactors, 1);
        assert!(!rows[0].capped_by_host, "one reactor is never capped");
        assert_eq!(rows[1].reactors, 2);
        assert_eq!(rows[0].requests, rows[1].requests, "same schedule at every reactor count");
        assert_eq!(rows[0].connections, 12);
        for r in &rows {
            assert!(r.requests_per_sec > 0.0);
            assert!(r.speedup_vs_one > 0.0);
            assert_eq!(r.capped_by_host, host_parallelism() < r.reactors as usize);
        }
    }
}

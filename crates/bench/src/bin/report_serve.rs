//! Measures the `anosy-serve` deployment layer against the sequential PR 2 baseline on the
//! fig5 suite — batched downgrades vs the per-call loop (interval and powerset3 domains),
//! sharded parallel model counting vs the sequential counter — plus the serving frontend's tick
//! throughput vs the direct batched driver (including the binary wire path: frame decode +
//! zero-copy interned parse + fused ticks, recorded as `BENCH_pr10.json`'s `wire_` columns),
//! the multi-reactor `SimNet` load generator at
//! `reactors = 1/2/4` and the restart-to-warm latency rows (snapshot load + journal replay vs a
//! bare cold construction). Used to record `BENCH_pr3.json` /
//! `BENCH_pr4.json` / `BENCH_pr7.json` / `BENCH_pr8.json` / `BENCH_pr9.json` /
//! `BENCH_pr10.json`.
//!
//! Usage: `report_serve [--workers N] [--secrets N] [--requests N] [--tenants N] [--quick]
//! [--json] [--cache PATH [--verify-on-load]]`
//!
//! Equivalence is asserted before anything is timed into the report: the batched driver's
//! results must equal the loop's element-wise, the sharded count must equal the sequential
//! count, the frontend's responses must equal the direct driver's, and every multi-reactor
//! load run's per-connection streams must equal the single-reactor run's element-wise. The
//! report records the host's available parallelism alongside the ratios, and every parallel
//! row carries a `capped_by_host` flag — thread parallelism cannot beat that ceiling, so on a
//! single-hardware-thread host the ratios measure pure batching/protocol overhead, not
//! scaling.
//!
//! With `--cache PATH` the aggregate deployment warm-starts from (and saves back to) the given
//! snapshot file; `--verify-on-load` re-checks every loaded entry's refinement obligations with
//! the solver first, skipping and counting failures (`Deployment::warm_start`'s `verify`).

use anosy::core::MinSizePolicy;
use anosy::domains::{IntervalDomain, PowersetDomain};
use anosy::prelude::*;
use anosy::serve::{Deployment, ServeConfig};
use bench::{
    frontend_rows, host_parallelism, render_frontend, render_restart, render_serve,
    render_shard_skew, render_telemetry, render_transport, restart_rows, serve_rows,
    serve_rows_to_json, telemetry_rows, transport_rows,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let verify_on_load = args.iter().any(|a| a == "--verify-on-load");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    let cache = args
        .iter()
        .position(|a| a == "--cache")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let workers = flag("--workers").unwrap_or(4);
    let secrets = flag("--secrets").unwrap_or(if quick { 2_000 } else { 200_000 });
    let requests = flag("--requests").unwrap_or(if quick { 2_000 } else { 50_000 });
    let tenants = flag("--tenants").unwrap_or(if quick { 32 } else { 128 });
    let config = if quick { bench::quick_synth_config() } else { SynthConfig::default() };

    let mut rows = serve_rows::<IntervalDomain>(workers, secrets, &config, None);
    rows.extend(serve_rows::<PowersetDomain>(workers, secrets, &config, Some(3)));

    // Frontend tick throughput vs the direct batched driver, at the protocol batch sizes.
    let frontend = frontend_rows(workers, requests, &config, &[1, 64, 1024]);

    // The multi-reactor SimNet load generator: equivalence vs the single-reactor stream is
    // asserted inside before any timing.
    let transport = transport_rows(tenants, 41, 43, &[1, 2, 4]);

    // Telemetry overhead (collectors on vs off, same seeds — the PR 8 <= 5% budget) and the
    // per-shard skew breakdown read from the telemetry-on run's reports. Quick runs are
    // milliseconds long, so best-of needs more samples there to outrun timer noise.
    let (telemetry, shard_skew) =
        telemetry_rows(tenants, 41, 43, &[1, 2, 4], if quick { 12 } else { 3 });

    // Durability: restart-to-warm latency vs a bare cold construction at two cache sizes.
    let restart = restart_rows(&[1_000, 10_000], 3);

    // A representative deployment aggregate block: N sessions of one deployment registering the
    // same query (one synthesis — or zero after a warm start — everything else hits).
    let suite = anosy::suite::benchmarks::birthday();
    let deployment: Deployment<IntervalDomain> = Deployment::new(
        suite.query.layout().clone(),
        ServeConfig::new().with_workers(workers).with_synth(config.clone()),
    );
    let mut warm_note = String::new();
    if let Some(path) = &cache {
        warm_note = match deployment.warm_start(path, verify_on_load) {
            Ok(outcome) => format!(
                " Warm start from {} ({}): {} entries loaded, {} skipped.",
                path.display(),
                if verify_on_load { "verified" } else { "trusted" },
                outcome.installed,
                outcome.skipped,
            ),
            Err(e) => format!(" Warm start from {} failed: {e}.", path.display()),
        };
    }
    for _ in 0..8 {
        let mut session = deployment.session(MinSizePolicy::new(10));
        let mut synth = Synthesizer::with_config(config.clone());
        session
            .register_synthesized(&mut synth, &suite.query, ApproxKind::Under, None)
            .expect("registration fits the budget");
    }
    if let Some(path) = &cache {
        deployment.save_cache(path).expect("cache saves");
    }
    let stats = deployment.stats();

    let cores = host_parallelism();
    let analysis = format!(
        "Measured with {workers} workers on a host with {cores} available hardware thread(s). \
         Wall-clock speedup from thread parallelism is bounded by the hardware-thread count; \
         on a single-core host these ratios measure batching overhead, not scaling (rows where \
         that applies carry capped_by_host). Batched results are asserted element-wise equal \
         to the sequential loop, frontend responses to the direct driver's results, and every \
         multi-reactor load run's per-connection streams to the single-reactor run's, before \
         timing. Frontend rows also time the binary wire path end to end (frame decode, \
         zero-copy interned parse, submit, tick): wire_ columns carry one framed Downgrade \
         per secret, bulk_ columns one framed DowngradeBatch per tick of batch_size secrets \
         (the shape a throughput client speaks); both are asserted element-wise equal to the \
         direct driver before timing.{warm_note}"
    );

    if json {
        print!(
            "{}",
            serve_rows_to_json(
                &rows,
                &frontend,
                &transport,
                &telemetry,
                &shard_skew,
                &restart,
                &stats.to_json(),
                &analysis,
            )
        );
    } else {
        println!("\nServing throughput — batched/parallel vs the sequential baseline");
        print!("{}", render_serve(&rows));
        println!("\nFrontend tick throughput — protocol vs direct driver");
        print!("{}", render_frontend(&frontend));
        println!("\nMulti-reactor SimNet load generator — {tenants} tenants");
        print!("{}", render_transport(&transport));
        println!("\nTelemetry overhead — collectors on vs off, same seeds");
        print!("{}", render_telemetry(&telemetry));
        println!("\nPer-shard skew — from the telemetry-on runs' reports");
        print!("{}", render_shard_skew(&shard_skew));
        println!("\nRestart-to-warm latency — snapshot + journal replay vs cold construction");
        print!("{}", render_restart(&restart));
        println!("\n{analysis}");
        println!("\nDeployment aggregates (8 sessions, 1 query): {stats}");
    }
}

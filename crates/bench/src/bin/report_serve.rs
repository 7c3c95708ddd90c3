//! Measures the two serving costs the served benchmark (`servebench/`) does not: the
//! multi-reactor `SimNet` load generator at `reactors = 1/2/4`, and the restart-to-warm latency
//! (snapshot load + journal replay vs a bare cold construction). Used to record the
//! `transport_rows` of `BENCH_pr7.json` and the `restart_rows` of `BENCH_pr9.json`.
//!
//! Usage: `report_serve [--tenants N] [--quick] [--json]`
//!
//! An unknown flag or a value that does not parse prints the usage and exits with status 2.
//!
//! Equivalence is asserted before anything is timed into the report: every multi-reactor load
//! run's per-connection streams must equal the single-reactor run's element-wise. The report
//! records the host's available parallelism alongside the ratios, and every transport row
//! carries a `capped_by_host` flag — thread parallelism cannot beat that ceiling, so on a
//! single-hardware-thread host the ratios measure pure protocol overhead, not scaling.

use bench::{
    host_parallelism, render_restart, render_transport, restart_rows, serve_rows_to_json,
    transport_rows,
};

fn usage() -> ! {
    eprintln!("usage: report_serve [--tenants N] [--quick] [--json]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut quick = false;
    let mut tenants = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--tenants" => {
                i += 1;
                let value = args.get(i).unwrap_or_else(|| usage());
                tenants = Some(value.parse::<usize>().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    let tenants = tenants.unwrap_or(if quick { 32 } else { 128 });

    // The multi-reactor SimNet load generator: equivalence vs the single-reactor stream is
    // asserted inside before any timing.
    let transport = transport_rows(tenants, 41, 43, &[1, 2, 4]);

    // Durability: restart-to-warm latency vs a bare cold construction at two cache sizes.
    let restart = restart_rows(&[1_000, 10_000], 3);

    let cores = host_parallelism();
    let analysis = format!(
        "Measured on a host with {cores} available hardware thread(s). Wall-clock speedup \
         from reactor parallelism is bounded by the hardware-thread count; on a single-core \
         host the transport ratios measure protocol overhead, not scaling (rows where that \
         applies carry capped_by_host). Every multi-reactor load run's per-connection streams \
         are asserted element-wise equal to the single-reactor run's before timing."
    );

    if json {
        print!("{}", serve_rows_to_json(&transport, &restart, &analysis));
    } else {
        println!("\nMulti-reactor SimNet load generator — {tenants} tenants");
        print!("{}", render_transport(&transport));
        println!("\nRestart-to-warm latency — snapshot + journal replay vs cold construction");
        print!("{}", render_restart(&restart));
        println!("\n{analysis}");
    }
}

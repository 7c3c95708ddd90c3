//! The event-loop server under a simulated network — chaos, deterministically.
//!
//! The `serving_frontend` example drives the sans-IO `Frontend` by hand; this one runs the full
//! transport stack (`anosy::serve::Server`) over `SimNet`, the seeded in-memory network: two
//! clients connect, their writes are chunked and delayed at byte level, one of them sends
//! garbage and then dies mid-line with a connection reset. Everything — chunk boundaries,
//! latencies, the interleaving, the teardown — derives from one seed, so the run below is
//! reproducible bit for bit (pass a different seed as the first argument to see a different
//! chaos unfold to the same answers).
//!
//! Run with: `cargo run --release -p anosy --example simulated_server [seed]`

use anosy::prelude::*;
use anosy::serve::{Server, ServerConfig, SimNet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    run(ServeConfig::new(), seed)
}

fn run(config: ServeConfig, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let deployment: Deployment<IntervalDomain> = Deployment::new(layout, config);
    let frontend = Frontend::new(deployment);

    // Script the network. Virtual times order the phases; chunking and per-chunk latency come
    // from the seed. `alice` is a well-behaved operator+client; `mallory` opens a session,
    // sends a malformed line, then resets mid-request — her session must be torn down without
    // disturbing alice's service.
    let mut sim = SimNet::new(seed);
    let alice = sim.connect(0);
    sim.send(
        alice,
        0,
        "register name=nearby kind=under members=- pred=abs(x - 200) + abs(y - 200) <= 100\n",
    );
    sim.send(alice, 1000, "open min-size:100\n");
    // Session ids are scoped to the opening connection: alice (token 0) opens 4294967297,
    // mallory (token 1) opens 8589934593 — `((conn + 1) << 32) | k`, see `SessionId`.
    sim.send(
        alice,
        2000,
        "downgrade session=4294967297 query=nearby secret=300,200\n\
         downgrade session=4294967297 query=nearby secret=10,10\n",
    );
    let mallory = sim.connect(3000);
    sim.send(mallory, 3000, "open allow-all\n");
    sim.send(mallory, 4000, "this is not a request\n");
    sim.send(mallory, 5000, "downgrade session=8589934593 query=nearby secr");
    sim.abort(mallory, 6000);
    sim.send(alice, 7000, "stats\n");
    sim.half_close(alice, 8000);

    let mut server = Server::new(frontend, sim, ServerConfig::new());
    server.run();

    let metrics = &server.telemetry_report().expect("telemetry is on by default").metrics;
    println!(
        "seed {seed}: conns opened={} closed={} failed={}, lines={} requests={} malformed={}",
        metrics.counter("conn.opened"),
        metrics.counter("conn.closed"),
        metrics.counter("conn.failures"),
        metrics.counter("wire.lines"),
        metrics.counter("wire.requests"),
        metrics.counter("wire.malformed"),
    );
    for (name, client) in [("alice", alice), ("mallory", mallory)] {
        println!("--- {name} ({client}) received:");
        for line in server.transport().received_text(client).lines() {
            println!("    {line}");
        }
    }
    for denial in server.transport().failures() {
        println!("logged denial: {denial}");
    }
    println!(
        "open sessions after teardown: {} ({} torn down by disconnects)",
        server.frontend().open_sessions(),
        server.frontend().stats().sessions_torn_down,
    );
    assert_eq!(server.frontend().open_sessions(), 0, "every connection's sessions released");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The doc-facing walkthrough must keep running to completion (with test-sized solver
    /// budgets, so a regression surfaces as an error instead of a hang).
    #[test]
    fn simulated_server_runs_to_completion() {
        run(ServeConfig::for_tests(), 7).expect("the simulated-server walkthrough succeeds");
    }
}

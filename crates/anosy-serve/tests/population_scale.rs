//! The paper-scale population sweep (the `expensive-tests` tier): ≥ 100k simulated tenants
//! compiled onto one `SimNet` schedule and replayed through the full reactor, element-wise
//! oracle-checked. The ROADMAP's "heavy traffic from heterogeneous users" north star, as a
//! test.
//!
//! Gated behind `--features expensive-tests` (the CI expensive lane); `cargo test` runs it as
//! `ignored` otherwise. Honors `ANOSY_SIM_SEED` like the rest of the simulation suites.

#[path = "support/oracle.rs"]
mod support;

use anosy_domains::IntervalDomain;
use anosy_serve::popsim::{self, CompileOptions};
use anosy_serve::{
    Frontend, ServeConfig, Server, ServerConfig, SessionId, SimNet, Token, TranscriptEvent,
};
use anosy_suite::population::{Population, PopulationConfig};

type SimServer = Server<IntervalDomain, SimNet>;

fn base_seed() -> u64 {
    std::env::var("ANOSY_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Gentler chaos than the tier-1 runs: big chunks and short latencies keep the schedule (and
/// the run time) proportionate at six-figure tenant counts without changing any semantics.
fn scale_options(net_seed: u64) -> CompileOptions {
    CompileOptions::new(net_seed).with_max_chunk(64).with_max_delay(2)
}

fn run_population(
    population: &Population,
    options: &CompileOptions,
) -> (SimServer, Vec<Token>, Vec<SessionId>) {
    let popsim::CompiledPopulation { net, tokens, sessions, .. } =
        popsim::compile(population, options);
    let deployment = popsim::warm_deployment(population, &ServeConfig::for_tests());
    let mut server = Server::new(Frontend::new(deployment), net, ServerConfig::new().recording());
    server.run();
    (server, tokens, sessions)
}

fn assert_matches_oracle(server: &SimServer, population: &Population) {
    let palette = server.frontend().deployment().shared().export_entries();
    let mut oracle = support::Oracle::with_palette(population.layout(), palette);
    let mut expected = Vec::new();
    for event in server.transcript() {
        match event {
            TranscriptEvent::Request { id, request, .. } => {
                expected.push((*id, oracle.apply(id.conn, request)));
            }
            TranscriptEvent::Disconnect { conn, .. } => oracle.disconnect(*conn),
        }
    }
    assert_eq!(server.responses().len(), expected.len(), "one response per request");
    for (index, (got, (id, want))) in server.responses().iter().zip(&expected).enumerate() {
        assert_eq!(&got.request, id, "response {index} answers the wrong request");
        assert_eq!(&got.response, want, "response {index} diverges from the oracle");
    }
    assert_eq!(server.frontend().open_sessions(), oracle.open_sessions(), "session leak");
}

#[test]
#[cfg_attr(
    not(feature = "expensive-tests"),
    ignore = "paper-scale; enable with --features expensive-tests"
)]
fn a_hundred_thousand_tenants_match_the_sequential_oracle() {
    let population = Population::generate(&PopulationConfig::paper(base_seed()));
    assert!(population.tenants.len() >= 100_000, "the paper-scale floor");
    let (server, _, sessions) = run_population(&population, &scale_options(base_seed() ^ 0x5eed));

    assert_matches_oracle(&server, &population);

    // Ledger at drain: exactly the lingering tenants' sessions are live, abandoners were
    // torn down, and opened - closed balances.
    let (_, abandoned, lingering) = population.exit_profile();
    assert_eq!(server.frontend().open_sessions(), lingering);
    assert_eq!(server.frontend().stats().sessions_torn_down, abandoned as u64);
    let cache = server.frontend().deployment().stats().cache;
    assert_eq!(cache.sessions_opened, population.tenants.len() as u64);
    assert_eq!(cache.sessions_opened - cache.sessions_closed, lingering as u64);
    assert_eq!(cache.synth_misses, 0, "the warm palette absorbs every registration");

    // Every tenant's compile-time session id is its own connection's first, so no two tenants
    // share one — and the downgrades compiled against those ids matched the oracle above.
    let predicted: std::collections::BTreeSet<u64> = sessions.iter().map(|s| s.0).collect();
    assert_eq!(predicted.len(), population.tenants.len(), "predicted ids are distinct");
    // Every tenant connection was counted.
    assert_eq!(server.frontend().stats().tenants, population.tenants.len() as u64);
    // The adversarial cohort was refused at its policy floor.
    assert!(server.frontend().stats().denials >= 3 * population.adversaries() as u64);
}

#[test]
#[cfg_attr(
    not(feature = "expensive-tests"),
    ignore = "paper-scale; enable with --features expensive-tests"
)]
fn ten_thousand_tenants_replay_byte_identically() {
    let config = PopulationConfig::paper(base_seed()).with_tenants(10_000).with_waves(12);
    let population = Population::generate(&config);
    let options = scale_options(base_seed() ^ 0x12ea17);
    let (first, tokens, _) = run_population(&population, &options);
    let (second, tokens_again, _) = run_population(&population, &options);
    assert_eq!(tokens, tokens_again);
    for &token in &tokens {
        assert_eq!(
            first.transport().received(token),
            second.transport().received(token),
            "delivered bytes diverged for {token:?}"
        );
    }
    assert_eq!(first.responses(), second.responses(), "responses diverged");
    assert_eq!(first.transcript(), second.transcript(), "transcript diverged");
    let metrics =
        |server: &SimServer| server.telemetry_report().expect("telemetry on").metrics.clone();
    assert_eq!(metrics(&first), metrics(&second), "server counters diverged");
    assert_eq!(first.frontend().stats(), second.frontend().stats());
}

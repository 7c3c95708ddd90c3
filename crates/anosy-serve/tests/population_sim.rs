//! Tier-1 population-simulator suite: small seeded multi-tenant populations, compiled onto
//! `SimNet` and driven through the full event-loop server, one scenario per workload axis
//! (popularity skew, heterogeeous layouts, policy mixes, adversaries, churn).
//!
//! Every scenario asserts the macro-run discipline:
//!
//! 1. **Byte-identical replay** from the `(population seed, net seed)` pair;
//! 2. **Oracle equality**: responses element-wise equal to the sequential-session oracle
//!    replaying the recorded transcript on the *same* synthesized approximations;
//! 3. **No leaks at drain**: `open_sessions` equals the population's lingering tenants and
//!    the deployment ledger balances (`opened - closed == open_sessions`);
//! 4. **Predicted session ids**: each tenant opens once on its own connection, so tenant `i`
//!    is assigned exactly the connection-scoped session id predicted at compile time.
//!
//! An auditing connection issues a trailing `stats` request per run, round-tripping the
//! `tenants=`/`denied=` wire counters. The base seed honors `ANOSY_SIM_SEED` (the CI
//! `population-smoke` lane re-runs the suite under several fixed seeds).

#[path = "support/oracle.rs"]
mod support;

use anosy_domains::IntervalDomain;
use anosy_serve::popsim::{self, CompileOptions};
use anosy_serve::{
    wire, Frontend, ServeConfig, ServeResponse, Server, ServerConfig, SessionId, SimNet, Token,
};
use anosy_suite::population::{PolicyMix, Population, PopulationConfig, PopulationLayout, Skew};

type SimServer = Server<IntervalDomain, SimNet>;

fn base_seed() -> u64 {
    std::env::var("ANOSY_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// One full run: compile the population, append the auditing `stats` connection, replay
/// through the reactor on a palette-warmed deployment.
fn run_population(
    population: &Population,
    net_seed: u64,
) -> (SimServer, Vec<Token>, Vec<SessionId>, Token) {
    let compiled = popsim::compile(population, &CompileOptions::new(net_seed));
    let popsim::CompiledPopulation { mut net, tokens, sessions, end_time, .. } = compiled;
    let auditor = net.connect(end_time + 2_000);
    net.send(auditor, end_time + 2_000, "stats\n");
    net.half_close(auditor, end_time + 4_000);
    let deployment = popsim::warm_deployment(population, &ServeConfig::for_tests());
    let mut server = Server::new(Frontend::new(deployment), net, ServerConfig::new().recording());
    server.run();
    (server, tokens, sessions, auditor)
}

/// Element-wise oracle equality over the recorded transcript, on the deployment's own
/// exported entries — the oracle provably replays the same approximations.
fn assert_matches_oracle(server: &SimServer, population: &Population) {
    let palette = server.frontend().deployment().shared().export_entries();
    let mut oracle = support::Oracle::with_palette(population.layout(), palette);
    let mut expected = Vec::new();
    for event in server.transcript() {
        match event {
            anosy_serve::TranscriptEvent::Request { id, request, .. } => {
                let want = (!matches!(request, anosy_serve::ServeRequest::Stats))
                    .then(|| oracle.apply(id.conn, request));
                expected.push((*id, want));
            }
            anosy_serve::TranscriptEvent::Disconnect { conn, .. } => oracle.disconnect(*conn),
        }
    }
    assert_eq!(server.responses().len(), expected.len(), "one response per request");
    for (index, (got, (id, want))) in server.responses().iter().zip(&expected).enumerate() {
        assert_eq!(&got.request, id, "response {index} answers the wrong request");
        if let Some(want) = want {
            assert_eq!(&got.response, want, "response {index} diverges from the oracle");
        }
    }
    assert_eq!(server.frontend().open_sessions(), oracle.open_sessions(), "session leak");
}

/// The drain-time audit: leak checks, the deployment ledger, predicted session ids, and the
/// auditing connection's `tenants=`/`denied=` stats line.
fn assert_population_invariants(
    server: &SimServer,
    population: &Population,
    tokens: &[Token],
    sessions: &[SessionId],
    auditor: Token,
) {
    assert_matches_oracle(server, population);

    // The compiler's session-id prediction: tenant i's open is answered with sessions[i].
    for (index, token) in tokens.iter().enumerate() {
        let text = server.transport().received_text(*token);
        let first = text.lines().next().expect("every open is answered");
        let want = format!("ok session {}", sessions[index].0);
        assert!(first.ends_with(&want), "tenant {index}: got {first:?}, want …{want:?}");
    }

    // Churn accounting: lingering tenants (and only they) hold sessions at drain; abandoned
    // tenants' sessions were torn down by the reactor; clean closers closed explicitly.
    let (_, abandoned, lingering) = population.exit_profile();
    assert_eq!(server.frontend().open_sessions(), lingering, "exactly the lingerers stay open");
    assert_eq!(server.frontend().stats().sessions_torn_down, abandoned as u64);
    let cache = server.frontend().deployment().stats().cache;
    assert_eq!(cache.sessions_opened, population.tenants.len() as u64);
    assert_eq!(
        cache.sessions_opened - cache.sessions_closed,
        server.frontend().open_sessions() as u64,
        "the deployment ledger does not balance"
    );

    // The auditing stats line round-trips the new counters: every tenant connection plus the
    // auditor itself, and the denial count as of the auditor's tick.
    let text = server.transport().received_text(auditor);
    let line = text.lines().last().expect("the stats request is answered");
    let payload = line.split_once(' ').expect("id-prefixed response").1;
    let response = wire::parse_response(payload).expect("stats line parses");
    let ServeResponse::Stats(snapshot) = response else {
        panic!("auditor got a non-stats response: {payload}");
    };
    assert_eq!(snapshot.tenants, population.tenants.len() as u64 + 1, "tenants= counter");
    assert_eq!(snapshot.denials, server.frontend().stats().denials, "denied= counter");
    assert_eq!(snapshot.open_sessions, lingering, "open= counter");
}

/// Two full runs from the same seeds must be indistinguishable.
fn assert_replays_byte_identically(population: &Population, net_seed: u64) {
    let (first, tokens, _, first_auditor) = run_population(population, net_seed);
    let (second, tokens_again, _, second_auditor) = run_population(population, net_seed);
    assert_eq!(tokens, tokens_again, "token allocation diverged");
    for &token in tokens.iter().chain([&first_auditor]) {
        assert_eq!(
            first.transport().received(token),
            second.transport().received(token),
            "delivered bytes diverged across replays for {token:?}"
        );
    }
    assert_eq!(first_auditor, second_auditor);
    assert_eq!(first.responses(), second.responses(), "responses diverged");
    assert_eq!(first.transcript(), second.transcript(), "transcript diverged");
    let metrics =
        |server: &SimServer| server.telemetry_report().expect("telemetry on").metrics.clone();
    assert_eq!(metrics(&first), metrics(&second), "server counters diverged");
    assert_eq!(first.frontend().stats(), second.frontend().stats());
}

// ---------------------------------------------------------------------------
// Scenario axes.
// ---------------------------------------------------------------------------

#[test]
fn uniform_grid_population_replays_and_matches_the_oracle() {
    let population = Population::generate(&PopulationConfig::small(base_seed().wrapping_add(100)));
    let net_seed = base_seed().wrapping_add(200);
    assert_replays_byte_identically(&population, net_seed);
    let (server, tokens, sessions, auditor) = run_population(&population, net_seed);
    assert_population_invariants(&server, &population, &tokens, &sessions, auditor);
    // Warm palette: the run itself never synthesizes.
    assert_eq!(server.frontend().deployment().stats().cache.synth_misses, 0);
}

#[test]
fn zipf_skew_with_adversaries_matches_the_oracle_and_hits_the_policy_floor() {
    let config = PopulationConfig::small(base_seed().wrapping_add(300))
        .with_tenants(30)
        .with_skew(Skew::Zipf)
        .with_adversaries(500, 2_000);
    let population = Population::generate(&config);
    assert!(population.adversaries() >= 1, "the adversarial axis is exercised");
    let net_seed = base_seed().wrapping_add(400);
    assert_replays_byte_identically(&population, net_seed);
    let (server, tokens, sessions, auditor) = run_population(&population, net_seed);
    assert_population_invariants(&server, &population, &tokens, &sessions, auditor);

    // Each adversary's geometric walk is refused at the last rung and on both repeats, and
    // its committed knowledge never crosses the policy floor: the final posterior is
    // 393 < x <= 400 with y free — 7 × 401 = 2807 > 2000. Asserted on the server-side
    // recorded responses (an abandoning adversary's last bytes never reach its dead socket);
    // `assert_population_invariants` already proved transcript/response alignment.
    let adversaries = population.adversaries() as u64;
    assert!(server.frontend().stats().denials >= 3 * adversaries, "3 refusals per adversary");
    let adversary_sessions: std::collections::BTreeSet<u64> =
        population.tenants.iter().filter(|t| t.adversarial).map(|t| sessions[t.index].0).collect();
    let requests = server.transcript().iter().filter_map(|e| match e {
        anosy_serve::TranscriptEvent::Request { request, .. } => Some(request),
        anosy_serve::TranscriptEvent::Disconnect { .. } => None,
    });
    let mut checkpoints = 0u64;
    for (request, tagged) in requests.zip(server.responses()) {
        match request {
            anosy_serve::ServeRequest::Knowledge { session, .. }
                if adversary_sessions.contains(&session.0) =>
            {
                let ServeResponse::Knowledge { size, .. } = &tagged.response else {
                    panic!("knowledge checkpoint got {:?}", tagged.response);
                };
                assert_eq!(*size, 2807, "an adversary's knowledge crossed the policy floor");
                checkpoints += 1;
            }
            anosy_serve::ServeRequest::Downgrade { session, .. }
                if adversary_sessions.contains(&session.0) =>
            {
                assert_ne!(
                    tagged.response,
                    ServeResponse::Answer(Ok(true)),
                    "the ladder never brackets the secret"
                );
            }
            _ => {}
        }
    }
    assert_eq!(checkpoints, adversaries, "every adversary's checkpoint was recorded");
}

#[test]
fn strip_layout_population_matches_the_oracle() {
    let config = PopulationConfig::small(base_seed().wrapping_add(500))
        .with_tenants(24)
        .with_layout(PopulationLayout::Strip { len: 1_000 })
        .with_policy_mix(PolicyMix::strip_default())
        .with_skew(Skew::Sharp)
        .with_adversaries(300, 20);
    let population = Population::generate(&config);
    let net_seed = base_seed().wrapping_add(600);
    assert_replays_byte_identically(&population, net_seed);
    let (server, tokens, sessions, auditor) = run_population(&population, net_seed);
    assert_population_invariants(&server, &population, &tokens, &sessions, auditor);
    if population.adversaries() > 0 {
        assert!(server.frontend().stats().denials >= population.adversaries() as u64);
    }
}

#[test]
fn heavy_churn_balances_the_ledger_with_lingering_sessions() {
    let config = PopulationConfig::small(base_seed().wrapping_add(700))
        .with_tenants(40)
        .with_churn(400, 250);
    let population = Population::generate(&config);
    let (_, abandoned, lingering) = population.exit_profile();
    assert!(abandoned > 0 && lingering > 0, "the churn axis is exercised: {abandoned}/{lingering}");
    let net_seed = base_seed().wrapping_add(800);
    assert_replays_byte_identically(&population, net_seed);
    let (server, tokens, sessions, auditor) = run_population(&population, net_seed);
    // `assert_population_invariants` holds `opened - closed == open_sessions` against a
    // *nonzero* lingering population here — the stats audit gap this suite closes.
    assert_population_invariants(&server, &population, &tokens, &sessions, auditor);
    assert!(server.frontend().open_sessions() > 0);
}

/// Oracle equality across a spread of derived seed pairs — the population seed and the
/// network seed vary independently.
#[test]
fn populations_match_the_oracle_across_a_seed_spread() {
    for offset in [0u64, 1, 2] {
        let config = PopulationConfig::small(base_seed().wrapping_add(900 + offset))
            .with_adversaries(300, 2_000);
        let population = Population::generate(&config);
        for net_offset in [0u64, 7] {
            let net_seed = base_seed().wrapping_add(1_000 + net_offset);
            let (server, tokens, sessions, auditor) = run_population(&population, net_seed);
            assert_population_invariants(&server, &population, &tokens, &sessions, auditor);
        }
    }
}

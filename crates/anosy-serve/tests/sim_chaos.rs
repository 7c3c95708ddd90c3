//! Chaos simulation suite: the event-loop server under seeded network chaos, checked against
//! the sequential oracle.
//!
//! Each scenario scripts a [`SimNet`] — connects, byte-chunked writes, delayed deliveries,
//! mid-line disconnects, abortive resets, injected I/O errors — runs the full reactor
//! ([`Server`]) over it inside the test process, and asserts three things:
//!
//! 1. **Oracle equality**: every response the frontend produced is element-wise identical to
//!    replaying the recorded request sequence one at a time against plain owned sessions
//!    (`tests/support/oracle.rs`), with disconnect teardowns applied at their queue positions.
//! 2. **No session leak**: dropped connections release the sessions they opened — the frontend,
//!    the oracle and the deployment's opened/closed ledger all agree on what is still live.
//! 3. **Byte-identical replay**: re-running the scenario from the same seed reproduces the
//!    exact delivered bytes, responses, transcript and counters.
//!
//! The base seed is `ANOSY_SIM_SEED` (default 0); the CI `sim-stress` lane re-runs the suite
//! under several fixed seeds, which perturbs chunking, latency and cross-connection
//! interleaving while every assertion above must keep holding.

#[path = "support/oracle.rs"]
mod support;

use anosy_domains::IntervalDomain;
use anosy_serve::{
    Frontend, MetricsRegistry, Server, ServerConfig, SimNet, Token, TranscriptEvent,
};
use rand::Rng;

type SimServer = Server<IntervalDomain, SimNet>;

fn base_seed() -> u64 {
    std::env::var("ANOSY_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn register_line(index: usize) -> String {
    let q = support::query(index);
    format!("register name={} kind=under members=- pred={}\n", q.name(), q.pred())
}

fn downgrade_line(session: u64, query: usize, x: i64, y: i64) -> String {
    format!("downgrade session={session} query={} secret={x},{y}\n", support::query(query).name())
}

/// The session id of `client`'s first open (every scenario client opens exactly one).
fn session_of(client: Token) -> u64 {
    support::session_id(client.0, 1)
}

/// Builds the scenario's network from a seed, runs the server to completion, returns both.
fn run_scenario(seed: u64, build: impl Fn(&mut SimNet) -> Vec<Token>) -> (SimServer, Vec<Token>) {
    let mut sim = SimNet::new(seed);
    let clients = build(&mut sim);
    let frontend = Frontend::new(support::warm_deployment());
    let config = ServerConfig::new().recording();
    let mut server = Server::new(frontend, sim, config);
    server.run();
    (server, clients)
}

/// The reactor's counters and histograms (`conn.*`, `wire.*`, …) from its telemetry report.
fn metrics(server: &SimServer) -> &MetricsRegistry {
    &server.telemetry_report().expect("scenarios run with telemetry on").metrics
}

/// Replays the recorded transcript through the sequential oracle and asserts element-wise
/// response equality plus the no-leak invariants.
fn assert_matches_oracle(server: &SimServer) {
    let mut oracle = support::Oracle::new();
    let mut expected = Vec::new();
    for event in server.transcript() {
        match event {
            // `stats` answers with frontend/deployment counters the sequential oracle does not
            // model; its determinism is covered by the byte-identical replay check instead.
            TranscriptEvent::Request { id, request, .. } => {
                let want = (!matches!(request, anosy_serve::ServeRequest::Stats))
                    .then(|| oracle.apply(id.conn, request));
                expected.push((*id, want));
            }
            TranscriptEvent::Disconnect { conn, .. } => oracle.disconnect(*conn),
        }
    }
    assert_eq!(server.responses().len(), expected.len(), "one response per request");
    for (index, (got, (id, want))) in server.responses().iter().zip(&expected).enumerate() {
        assert_eq!(&got.request, id, "response {index} answers the wrong request");
        if let Some(want) = want {
            assert_eq!(&got.response, want, "response {index} diverges from the sequential oracle");
        }
    }
    // Dropped connections released their sessions: frontend, oracle and the deployment's
    // opened/closed ledger agree.
    assert_eq!(server.frontend().open_sessions(), oracle.open_sessions(), "session leak");
    let cache = server.frontend().deployment().stats().cache;
    assert_eq!(
        cache.sessions_opened - cache.sessions_closed,
        server.frontend().open_sessions() as u64,
        "the deployment ledger does not balance"
    );
}

/// Runs the scenario twice from the same seed and asserts the runs are indistinguishable.
fn assert_replays_byte_identically(seed: u64, build: impl Fn(&mut SimNet) -> Vec<Token> + Copy) {
    let (first, clients) = run_scenario(seed, build);
    let (second, again) = run_scenario(seed, build);
    assert_eq!(clients, again);
    for &client in &clients {
        assert_eq!(
            first.transport().received(client),
            second.transport().received(client),
            "delivered bytes diverged across replays of seed {seed} for {client}"
        );
    }
    assert_eq!(first.responses(), second.responses(), "responses diverged, seed {seed}");
    assert_eq!(first.transcript(), second.transcript(), "transcript diverged, seed {seed}");
    assert_eq!(metrics(&first), metrics(&second), "server counters diverged, seed {seed}");
    assert_eq!(first.frontend().stats(), second.frontend().stats());
}

// ---------------------------------------------------------------------------
// Scenario 1: mid-line disconnects — abortive fragments are discarded, half-closed fragments
// are interpreted as final lines.
// ---------------------------------------------------------------------------

fn midline_disconnect(sim: &mut SimNet) -> Vec<Token> {
    // Virtual-time spacing of 1000 dominates any chunk latency the seed can draw, so the
    // cross-connection submission order is script-controlled; chunking and within-step
    // interleaving still vary per seed.
    let c0 = sim.connect(0);
    sim.send(c0, 0, register_line(0));
    sim.send(c0, 1000, "open min-size:100\n");
    let c1 = sim.connect(2000);
    sim.send(c1, 2000, "open min-size:100\n");
    sim.send(c0, 3000, downgrade_line(session_of(c0), 0, 300, 200));
    sim.send(c1, 3000, downgrade_line(session_of(c1), 0, 300, 200));
    // c1 resets mid-line: the fragment must be discarded, never interpreted.
    let fragment = format!("downgrade session={} query=nearby_200_200 secr", session_of(c1));
    sim.send(c1, 4000, fragment);
    sim.abort(c1, 5000);
    // c0 keeps being served after the abort.
    sim.send(c0, 6000, downgrade_line(session_of(c0), 0, 10, 10));
    // c2 half-closes mid-line: its unterminated fragment IS a final line (FIN semantics).
    let c2 = sim.connect(7000);
    sim.send(c2, 7000, "open allow-all\n");
    let unterminated = downgrade_line(session_of(c2), 0, 300, 200);
    sim.send(c2, 8000, unterminated.trim_end());
    sim.half_close(c2, 9000);
    sim.send(c0, 10_000, "stats\n");
    sim.half_close(c0, 11_000);
    vec![c0, c1, c2]
}

#[test]
fn midline_disconnects_replay_and_match_the_oracle() {
    let seed = base_seed();
    assert_replays_byte_identically(seed, midline_disconnect);
    let (server, clients) = run_scenario(seed, midline_disconnect);
    assert_matches_oracle(&server);

    assert_eq!(metrics(&server).counter("conn.failures"), 1, "exactly the abortive reset failed");
    assert_eq!(
        metrics(&server).counter("wire.malformed"),
        0,
        "the aborted fragment was never interpreted"
    );
    assert_eq!(server.frontend().open_sessions(), 0, "every connection's sessions released");
    assert_eq!(server.frontend().stats().sessions_torn_down, 3);

    // c1 got its pre-abort answers and nothing after the reset.
    let c1 = clients[1];
    assert_eq!(
        server.transport().received_text(c1),
        format!("1.1 ok session {}\n1.2 ok answer true\n", session_of(c1))
    );
    // c2's unterminated final line was interpreted and answered before its close.
    let c2 = clients[2];
    assert_eq!(
        server.transport().received_text(c2),
        format!("2.1 ok session {}\n2.2 ok answer true\n", session_of(c2))
    );
}

// ---------------------------------------------------------------------------
// Scenario 2: an interleaved multi-connection downgrade storm (RNG-driven burst sizes and
// secrets; per-connection FIFO, cross-connection reordering).
// ---------------------------------------------------------------------------

fn downgrade_storm(sim: &mut SimNet) -> Vec<Token> {
    let c0 = sim.connect(0);
    sim.send(c0, 0, format!("{}{}", register_line(0), register_line(1)));
    sim.send(c0, 1000, "open min-size:100\n");
    let c1 = sim.connect(2000);
    sim.send(c1, 2000, "open min-size:100\n");
    let c2 = sim.connect(3000);
    sim.send(c2, 3000, "open allow-all\n");

    // The storm: every client bursts downgrades into the same virtual-time window, so chunk
    // latencies interleave the three connections differently under every seed.
    for client in [c0, c1, c2] {
        let session = session_of(client);
        let burst = sim.rng().gen_range(8usize..16);
        for j in 0..burst {
            let (a, b) = (sim.rng().gen_range(0i64..=10), sim.rng().gen_range(0i64..=10));
            let p = support::secret_grid(a, b);
            let line = downgrade_line(session, j % 2, p.as_slice()[0], p.as_slice()[1]);
            sim.send(client, 5000 + (j as u64) * 11, line);
        }
    }

    // One peer drops abortively mid-storm wrap-up; the others close cleanly.
    sim.abort(c1, 6000);
    sim.half_close(c2, 7000);
    sim.half_close(c0, 8000);
    vec![c0, c1, c2]
}

#[test]
fn interleaved_downgrade_storms_match_the_oracle() {
    let seed = base_seed().wrapping_add(1);
    assert_replays_byte_identically(seed, downgrade_storm);
    let (server, _) = run_scenario(seed, downgrade_storm);
    assert_matches_oracle(&server);

    // Every downgrade was a counted decision, and everything was torn down.
    let downgrades = server
        .transcript()
        .iter()
        .filter(|e| {
            matches!(e, TranscriptEvent::Request { request, .. }
                if matches!(request, anosy_serve::ServeRequest::Downgrade { .. }))
        })
        .count() as u64;
    assert!(downgrades >= 24, "three bursts of at least eight downgrades each");
    assert_eq!(server.frontend().stats().batched_downgrades, downgrades);
    assert_eq!(server.frontend().open_sessions(), 0);
    assert_eq!(server.frontend().stats().sessions_torn_down, 3);
}

// ---------------------------------------------------------------------------
// Scenario 3: reconnect after drop — the new connection starts from fresh (⊤) knowledge, and
// the dead connection's sessions are gone while a bystander's survive.
// ---------------------------------------------------------------------------

fn reconnect_after_drop(sim: &mut SimNet) -> Vec<Token> {
    let c0 = sim.connect(0);
    sim.send(c0, 0, register_line(0));
    sim.send(c0, 1000, "open min-size:100\n"); // the surviving bystander
    let c1 = sim.connect(2000);
    sim.send(c1, 2000, "open min-size:100\n");
    sim.send(c1, 3000, downgrade_line(session_of(c1), 0, 300, 200));
    sim.send(c1, 4000, downgrade_line(session_of(c1), 0, 300, 200));
    sim.abort(c1, 5000);
    // The same "user" reconnects: a fresh transport connection, a fresh session.
    let c2 = sim.connect(6000);
    sim.send(c2, 6000, "open min-size:100\n");
    sim.send(c2, 7000, downgrade_line(session_of(c2), 0, 300, 200));
    sim.half_close(c2, 8000);
    vec![c0, c1, c2]
}

#[test]
fn reconnecting_after_a_drop_starts_a_fresh_session() {
    let seed = base_seed().wrapping_add(2);
    assert_replays_byte_identically(seed, reconnect_after_drop);
    let (server, clients) = run_scenario(seed, reconnect_after_drop);
    assert_matches_oracle(&server);

    // The bystander's session survives; the dropped and reconnected clients' are released
    // when their connections end.
    assert_eq!(server.frontend().open_sessions(), 1, "only the bystander's session is left");
    assert_eq!(server.frontend().stats().sessions_torn_down, 2);

    // The reconnected session answered from fresh ⊤ knowledge — exactly like a brand-new
    // sequential session, with no carry-over from the dead one.
    let c2 = clients[2];
    let mut reference = support::reference_session(anosy_core::PolicySpec::MinSize(100));
    let answer = reference
        .downgrade(
            &anosy_ifc::Protected::new(anosy_logic::Point::new(vec![300, 200])),
            support::query(0).name(),
        )
        .unwrap();
    assert!(answer);
    assert_eq!(
        server.transport().received_text(c2),
        format!("2.1 ok session {}\n2.2 ok answer true\n", session_of(c2))
    );
}

// ---------------------------------------------------------------------------
// Scenario 4: a per-connection I/O error closes that connection only (the logged-denial
// regression test for the old fatal-read-error behavior).
// ---------------------------------------------------------------------------

fn one_bad_peer(sim: &mut SimNet) -> Vec<Token> {
    let c0 = sim.connect(0);
    sim.send(c0, 0, register_line(0));
    sim.send(c0, 1000, "open min-size:100\n");
    let c1 = sim.connect(2000);
    sim.send(c1, 2000, "open min-size:100\n");
    sim.io_error(c1, 3000, "simulated NIC failure");
    // The healthy peer is served straight through the other's failure.
    sim.send(c0, 4000, downgrade_line(session_of(c0), 0, 300, 200));
    sim.send(c0, 5000, downgrade_line(session_of(c0), 0, 10, 10));
    sim.half_close(c0, 6000);
    vec![c0, c1]
}

#[test]
fn a_bad_peers_io_error_closes_only_its_connection() {
    let seed = base_seed().wrapping_add(3);
    assert_replays_byte_identically(seed, one_bad_peer);
    let (server, clients) = run_scenario(seed, one_bad_peer);
    assert_matches_oracle(&server);

    assert_eq!(metrics(&server).counter("conn.failures"), 1);
    let failures = server.transport().failures();
    assert_eq!(failures.len(), 1, "the denial was logged, not fatal");
    assert!(failures[0].reason.contains("simulated NIC failure"), "{failures:?}");
    assert_eq!(server.frontend().open_sessions(), 0);
    // The healthy connection observed uninterrupted service.
    let c0 = clients[0];
    assert_eq!(
        server.transport().received_text(c0),
        format!(
            "0.1 ok registered nearby_200_200\n0.2 ok session {}\n0.3 ok answer true\n\
             0.4 ok answer false\n",
            session_of(c0)
        )
    );
    // And the failed session is accounted for in the deployment ledger.
    let cache = server.frontend().deployment().stats().cache;
    assert_eq!(cache.sessions_opened, 2);
    assert_eq!(cache.sessions_closed, 2);
}

// ---------------------------------------------------------------------------
// Scenario 5: an adversarial client probes its secret until refused — it climbs the geometric
// threshold ladder (`x <= c`), each committed `false` answer halving its own remaining
// uncertainty, until the min-size policy refuses; the refusal must be stable under repeats
// and the client's knowledge must stay above the policy threshold.
// ---------------------------------------------------------------------------

/// The adversary's secret: above every ladder threshold, so the walk answers `false` all the
/// way up and each commit shrinks the posterior.
const PROBE_SECRET: (i64, i64) = (399, 123);

fn probe_until_refused(sim: &mut SimNet) -> Vec<Token> {
    let c0 = sim.connect(0);
    let registers: String = (0..support::PROBE_THRESHOLDS.len())
        .map(|i| {
            let q = support::probe_query(i);
            format!("register name={} kind=under members=- pred={}\n", q.name(), q.pred())
        })
        .collect();
    sim.send(c0, 0, registers);
    sim.send(c0, 1000, "open min-size:2000\n");
    let session = session_of(c0);
    let (x, y) = PROBE_SECRET;
    let mut at = 2000;
    for i in 0..support::PROBE_THRESHOLDS.len() {
        let q = support::probe_query(i);
        sim.send(
            c0,
            at,
            format!("downgrade session={session} query={} secret={x},{y}\n", q.name()),
        );
        at += 1000;
    }
    // Hammer the refused rung twice more: a refusal must not change knowledge, so it must
    // keep refusing identically.
    let last = support::probe_query(support::PROBE_THRESHOLDS.len() - 1);
    for _ in 0..2 {
        let line = format!("downgrade session={session} query={} secret={x},{y}\n", last.name());
        sim.send(c0, at, line);
        at += 1000;
    }
    sim.send(c0, at, format!("knowledge session={session} secret={x},{y}\n"));
    sim.half_close(c0, at + 1000);
    vec![c0]
}

#[test]
fn an_adversary_probing_until_refused_is_stopped_at_the_policy_floor() {
    let seed = base_seed().wrapping_add(4);
    assert_replays_byte_identically(seed, probe_until_refused);
    let (server, clients) = run_scenario(seed, probe_until_refused);
    assert_matches_oracle(&server);

    let text = server.transport().received_text(clients[0]);
    let payloads: Vec<&str> =
        text.lines().map(|line| line.split_once(' ').expect("id-prefixed response").1).collect();
    let ladder = support::PROBE_THRESHOLDS.len();
    // Registers + open, then the walk: every rung below the secret answers `false` until the
    // committed posterior is one halving away from the policy floor — then the policy refuses.
    let answers = payloads.iter().filter(|p| **p == "ok answer false").count();
    let denials: Vec<&&str> = payloads.iter().filter(|p| p.starts_with("deny policy")).collect();
    assert_eq!(answers, ladder - 1, "all but the last rung are authorized");
    assert_eq!(denials.len(), 3, "the last rung and both repeats are refused");
    assert!(payloads.iter().all(|p| *p != "ok answer true"), "the walk never brackets the secret");
    // Refusals are stable: knowledge is unchanged on refusal, so the repeats deny identically.
    assert!(denials.iter().all(|d| **d == *denials[0]), "{denials:?}");
    // The knowledge checkpoint: the committed posterior (393 < x <= 400, y free) stays above
    // the min-size floor of 2000 — the ladder cannot push the adversary past the policy.
    let knowledge = payloads.iter().find(|p| p.starts_with("ok knowledge")).expect("checkpoint");
    assert!(knowledge.starts_with("ok knowledge size=2807 "), "{knowledge}");
}

// ---------------------------------------------------------------------------
// Scenario 6: the downgrade storm with mixed codecs — two connections negotiate the binary
// frame protocol, one stays on lines, all three burst into one reactor. Frames and lines
// interleave chunk by chunk; one framed peer aborts mid-frame. Oracle equality must hold
// exactly as for the all-line storm: the codec is an encoding, never a semantics change.
// ---------------------------------------------------------------------------

/// One protocol line as a binary frame (frames are terminator-free).
fn frame(line: &str) -> Vec<u8> {
    anosy_serve::wire::encode_frame(line.trim_end_matches('\n').as_bytes())
}

fn mixed_codec_storm(sim: &mut SimNet) -> Vec<Token> {
    let c0 = sim.connect(0);
    sim.send(c0, 0, anosy_serve::wire::BINARY_PREAMBLE);
    sim.send(c0, 0, frame(&register_line(0)));
    sim.send(c0, 0, frame(&register_line(1)));
    sim.send(c0, 1000, frame("open min-size:100"));
    let c1 = sim.connect(2000);
    sim.send(c1, 2000, anosy_serve::wire::BINARY_PREAMBLE);
    sim.send(c1, 2000, frame("open min-size:100"));
    // The bystander speaks the line protocol on the same reactor.
    let c2 = sim.connect(3000);
    sim.send(c2, 3000, "open allow-all\n");

    for (client, binary) in [(c0, true), (c1, true), (c2, false)] {
        let session = session_of(client);
        let burst = sim.rng().gen_range(8usize..16);
        for j in 0..burst {
            let (a, b) = (sim.rng().gen_range(0i64..=10), sim.rng().gen_range(0i64..=10));
            let p = support::secret_grid(a, b);
            let line = downgrade_line(session, j % 2, p.as_slice()[0], p.as_slice()[1]);
            let at = 5000 + (j as u64) * 11;
            if binary {
                sim.send(client, at, frame(&line));
            } else {
                sim.send(client, at, line);
            }
        }
    }

    // c1 resets with a dangling partial frame on the wire: the fragment is discarded, never
    // interpreted and never reported as truncated (that's the half-close case).
    sim.send(c1, 5900, &frame(&downgrade_line(session_of(c1), 0, 1, 1))[..7]);
    sim.abort(c1, 6000);
    sim.half_close(c2, 7000);
    sim.half_close(c0, 8000);
    vec![c0, c1, c2]
}

#[test]
fn a_mixed_codec_storm_matches_the_oracle() {
    let seed = base_seed().wrapping_add(5);
    assert_replays_byte_identically(seed, mixed_codec_storm);
    let (server, clients) = run_scenario(seed, mixed_codec_storm);
    assert_matches_oracle(&server);

    let counters = metrics(&server);
    assert_eq!(counters.counter("wire.binary_conns"), 2, "exactly the preambled conns negotiated");
    let frames = counters.counter("wire.frames");
    assert!(frames >= 20, "both framed bursts were counted: {frames}");
    assert_eq!(server.frontend().open_sessions(), 0);

    // The framed connections' responses decode to well-formed protocol lines — no corrupt,
    // oversize or truncated frames from a healthy server.
    for &client in &clients[..2] {
        let text = server.transport().received_frame_text(client);
        assert!(
            !text.contains("<corrupt") && !text.contains("<oversize") && !text.contains("<trunc"),
            "the server wrote a malformed frame to {client:?}: {text}"
        );
    }
    // The line-protocol bystander's stream is plain text, untouched by its neighbours' codec.
    assert!(server.transport().received_text(clients[2]).starts_with("2.1 ok session "));
}

/// The acceptance criterion's replay clause, across a spread of derived seeds in one go:
/// whatever the seed does to chunking and interleaving, every scenario stays oracle-equal.
#[test]
fn every_scenario_matches_the_oracle_across_a_seed_spread() {
    for offset in [10, 11, 12] {
        let seed = base_seed().wrapping_add(offset);
        let (server, _) = run_scenario(seed, midline_disconnect);
        assert_matches_oracle(&server);
        let (server, _) = run_scenario(seed, downgrade_storm);
        assert_matches_oracle(&server);
        let (server, _) = run_scenario(seed, reconnect_after_drop);
        assert_matches_oracle(&server);
        let (server, _) = run_scenario(seed, one_bad_peer);
        assert_matches_oracle(&server);
        let (server, _) = run_scenario(seed, probe_until_refused);
        assert_matches_oracle(&server);
        let (server, _) = run_scenario(seed, mixed_codec_storm);
        assert_matches_oracle(&server);
    }
}

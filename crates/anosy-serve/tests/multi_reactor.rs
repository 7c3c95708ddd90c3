//! Multi-reactor serving suite: the reactor-count-invariance property and the sharding rules.
//!
//! The design claim (ISSUE 7): sharding connections across `N` reactor threads changes
//! wall-clock only, never bytes. The tests here pin that down from several sides:
//!
//! 1. **Reactor-count invariance** (plain + property test): the same seeded population run at
//!    `reactors = 1` and `reactors = N` yields element-wise identical per-connection response
//!    streams — connection tokens are minted in global arrival order, shard assignment is a
//!    pure hash of the token, and session ids are connection-scoped (see
//!    [`anosy_serve::SessionId`]), so no shard can observe how many other shards exist.
//! 2. **Per-shard oracle equality**: each shard's recorded transcript replays against the
//!    sequential-session oracle on the same approximations.
//! 3. **Ledger balance across shards**: at drain, `sessions opened − closed` on the *shared*
//!    deployment equals the fold of every shard's `open_sessions` — no session is lost or
//!    double-counted by sharding.
//! 4. **Claims are exclusive**: a `@conn` claim whose id hashes to another shard answers
//!    `! connection … belongs to another reactor shard` instead of binding, and a socket whose
//!    base id another socket already claimed cannot take it over.
//! 5. **Real sockets**: a [`ReactorPool::serve`] pool over a loopback listener (readiness-based
//!    [`anosy_serve::PollTransport`] shards fed by the acceptor thread) serves conn-scoped
//!    sessions and `reactors=`/`shard=`-stamped stats, end to end, at one reactor and at two.
//!
//! The base seed honors `ANOSY_SIM_SEED` (the CI `sim-stress` lane re-runs this suite and the
//! load generator under several fixed seeds).

#[path = "support/oracle.rs"]
mod support;

use anosy_serve::loadgen::{self, LoadOptions};
use anosy_serve::reactor::shard_of;
use anosy_serve::{
    merge_metrics, wire, ReactorPool, ServeResponse, ServerConfig, SimNet, TranscriptEvent,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

fn base_seed() -> u64 {
    std::env::var("ANOSY_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// One recorded load run at the given reactor count.
fn run_at(seed: u64, net_seed: u64, tenants: usize, reactors: u64) -> loadgen::PoolRun {
    let population = loadgen::population(seed, tenants);
    loadgen::run(&population, &LoadOptions::new(net_seed, reactors).recording())
}

#[test]
fn responses_are_invariant_under_the_reactor_count() {
    let seed = base_seed().wrapping_add(7_000);
    let net_seed = base_seed().wrapping_add(7_100);
    let population = loadgen::population(seed, 24);
    let (_, _, lingering) = population.exit_profile();

    let base = loadgen::run(&population, &LoadOptions::new(net_seed, 1).recording());
    for reactors in [2u64, 4] {
        let sharded = loadgen::run(&population, &LoadOptions::new(net_seed, reactors).recording());
        // The headline property: element-wise identical per-connection response streams.
        loadgen::assert_equivalent(&base, &sharded);

        // The ledger balances across shards at drain: the shared deployment's open/close
        // counters account for every shard's surviving sessions, and exactly the lingering
        // tenants stay open however the connections were sharded.
        let stats = &sharded.report.stats;
        assert_eq!(stats.reactors, reactors);
        assert_eq!(stats.shard, reactors, "a fold marks itself shard == reactors");
        assert_eq!(stats.open_sessions, lingering, "exactly the lingerers stay open");
        let cache = stats.serve.cache;
        assert_eq!(cache.sessions_opened, population.tenants.len() as u64);
        assert_eq!(
            cache.sessions_opened - cache.sessions_closed,
            stats.open_sessions as u64,
            "the cross-shard session ledger does not balance at reactors={reactors}"
        );
        // Folded frontend counters match the single-reactor run (same requests, same denials —
        // only their distribution over shards differs).
        assert_eq!(stats.requests, base.report.stats.requests);
        assert_eq!(stats.denials, base.report.stats.denials);
        assert_eq!(stats.tenants, base.report.stats.tenants);
        assert_eq!(stats.sessions_torn_down, base.report.stats.sessions_torn_down);
    }
}

#[test]
fn binary_runs_are_reactor_invariant_and_decode_to_the_line_transcripts() {
    let seed = base_seed().wrapping_add(7_400);
    let net_seed = base_seed().wrapping_add(7_500);
    let population = loadgen::population(seed, 24);

    let line = loadgen::run(&population, &LoadOptions::new(net_seed, 1).recording());
    let binary = loadgen::run(&population, &LoadOptions::new(net_seed, 1).binary().recording());
    let sharded = loadgen::run(&population, &LoadOptions::new(net_seed, 2).binary().recording());

    // Reactor-count invariance holds for framed traffic byte-for-byte, like it does for lines.
    loadgen::assert_equivalent(&binary, &sharded);

    // And across codecs: every tenant's framed response stream decodes to exactly the protocol
    // text the line-protocol run answered — the binary codec changes the encoding, nothing else.
    let binary_conns =
        |run: &loadgen::PoolRun| merge_metrics(&run.telemetry).counter("wire.binary_conns");
    assert!(binary_conns(&binary) >= population.tenants.len() as u64);
    assert_eq!(binary_conns(&line), 0, "the line run must not negotiate frames");
    for &token in &line.tokens {
        assert_eq!(
            line.received_decoded(token),
            binary.received_decoded(token),
            "connection {token:?} answered different protocol text across the codecs"
        );
    }
}

#[test]
fn every_shard_matches_the_sequential_oracle() {
    let seed = base_seed().wrapping_add(7_200);
    let net_seed = base_seed().wrapping_add(7_300);
    let run = run_at(seed, net_seed, 30, 3);
    let reactors = run.report.reactors;
    let mut replayed = 0usize;
    for (index, server) in run.servers.iter().enumerate() {
        // Every connection this shard saw actually hashes here — the acceptor-side routing
        // invariant, asserted on the reactor side.
        let palette = server.frontend().deployment().shared().export_entries();
        let population = loadgen::population(seed, 30);
        let mut oracle = support::Oracle::with_palette(population.layout(), palette);
        let mut expected = Vec::new();
        for event in server.transcript() {
            match event {
                TranscriptEvent::Request { id, request, .. } => {
                    assert_eq!(
                        shard_of(id.conn.0, reactors),
                        index as u64,
                        "shard {index} processed a foreign connection"
                    );
                    expected.push((*id, oracle.apply(id.conn, request)));
                }
                TranscriptEvent::Disconnect { conn, .. } => oracle.disconnect(*conn),
            }
        }
        assert_eq!(server.responses().len(), expected.len(), "one response per request");
        for (got, (id, want)) in server.responses().iter().zip(&expected) {
            assert_eq!(&got.request, id, "shard {index}: response answers the wrong request");
            assert_eq!(&got.response, want, "shard {index} diverges from the oracle");
        }
        assert_eq!(server.frontend().open_sessions(), oracle.open_sessions(), "session leak");
        replayed += expected.len();
    }
    assert_eq!(replayed, run.report.requests, "every scheduled request was replayed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The invariance property over independently drawn population seeds, network seeds and
    /// reactor counts (`PROPTEST_CASES` scales the sweep in CI).
    #[test]
    fn reactor_count_invariance_holds_across_seeds(
        seed_offset in 0u64..1_000,
        net_offset in 0u64..1_000,
        reactors in 2u64..=4,
    ) {
        let seed = base_seed().wrapping_add(10_000 + seed_offset);
        let net_seed = base_seed().wrapping_add(20_000 + net_offset);
        let base = run_at(seed, net_seed, 18, 1);
        let sharded = run_at(seed, net_seed, 18, reactors);
        loadgen::assert_equivalent(&base, &sharded);
    }
}

#[test]
fn cross_shard_claims_are_refused() {
    let shards = 2u64;
    let mut net = SimNet::new(base_seed().wrapping_add(7_400)).with_max_delay(0);
    // Mint a few arrival-order tokens; the hash spreads them, so both shards are populated.
    let tokens: Vec<_> = (0..4).map(|i| net.connect(1_000 * (i + 1))).collect();
    let local = *tokens.iter().find(|t| shard_of(t.0, shards) == 0).expect("a shard-0 token");
    let foreign_conn = (0..100u64).find(|c| shard_of(*c, shards) == 1).expect("a shard-1 id");

    // A bare open binds fine; the claim of a foreign logical id must be refused without
    // consuming a sequence number.
    net.send(local, 10_000, "open min-size:100\n");
    net.send(local, 11_000, format!("@{foreign_conn} open min-size:100\n"));
    net.send(local, 12_000, "stats\n");
    for token in &tokens {
        net.half_close(*token, 20_000);
    }

    let deployment = support::warm_deployment();
    let servers = ReactorPool::new(shards).run(&deployment, net.split(shards));
    let text = servers[0].transport().received_text(local);
    let expected_refusal = format!("! connection {foreign_conn} belongs to another reactor shard");
    assert!(
        text.lines().any(|line| line == expected_refusal),
        "missing cross-shard refusal in:\n{text}"
    );
    // The bare open rode the connection-scoped id scheme (base conn id = token) and later
    // lines kept their numbers.
    let open_line = text.lines().next().expect("the open is answered");
    assert_eq!(open_line, format!("{}.1 ok session {}", local.0, ((local.0 + 1) << 32) | 1));
    let stats_line = text.lines().last().expect("the stats request is answered");
    assert!(stats_line.starts_with(&format!("{}.2 ", local.0)), "refusals consume no seq");
    assert!(stats_line.contains("reactors=2 shard=0"), "stats carry the shard stamp");
}

#[test]
fn a_late_socket_cannot_take_over_a_claimed_base_id() {
    // Socket A (token 0) claims `@1` and opens a session on it; socket B then connects as
    // token 1, whose base id is A's claim. B's bare lines must be refused, and B's teardown must
    // leave A's session alone — before the fix B silently took over id 1 and its close tore
    // A's session down.
    let mut net = SimNet::new(base_seed().wrapping_add(7_600)).with_max_delay(0);
    let a = net.connect(0);
    net.send(a, 1_000, "@1 open min-size:100\n");
    let b = net.connect(2_000);
    net.send(b, 3_000, "open min-size:100\n");
    net.half_close(b, 4_000);
    let session = support::session_id(1, 1);
    net.send(a, 5_000, format!("@1 knowledge session={session} secret=300,200\n"));
    net.half_close(a, 6_000);

    let deployment = support::warm_deployment();
    let servers = ReactorPool::new(1).run(&deployment, net.split(1));
    let transport = servers[0].transport();
    assert_eq!(
        transport.received_text(b),
        "! connection 1 is bound to another transport connection\n"
    );
    assert_eq!(
        transport.received_text(a),
        format!("1.1 ok session {session}\n1.2 ok knowledge size=160801 top\n"),
        "A's session must survive B's teardown"
    );
}

#[test]
fn a_tcp_pool_serves_conn_scoped_sessions_over_real_sockets() {
    // One reactor and two take their connections from the same acceptor.
    for reactors in [1u64, 2] {
        let deployment = support::warm_deployment();
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound address");
        let pool = ReactorPool::new(reactors).with_config(ServerConfig::new());

        let client = std::thread::spawn(move || {
            // Sequential connects: token 0 then token 1, deterministically.
            (0..2u64)
                .map(|_| {
                    let mut stream = TcpStream::connect(addr).expect("loopback connect");
                    stream
                        .write_all(b"open min-size:100\nstats\n")
                        .expect("request lines are written");
                    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
                    let mut transcript = String::new();
                    stream.read_to_string(&mut transcript).expect("responses are readable");
                    transcript
                })
                .collect::<Vec<_>>()
        });

        let servers = pool.serve(&deployment, listener, Some(2), || {}).expect("pool serves");
        let transcripts = client.join().expect("client thread");

        assert_eq!(servers.len() as u64, reactors);
        for (token, transcript) in transcripts.iter().enumerate() {
            let token = token as u64;
            let shard = shard_of(token, reactors);
            let open = transcript.lines().next().expect("open answered");
            assert_eq!(
                open,
                &format!("{token}.1 ok session {}", ((token + 1) << 32) | 1),
                "conn-scoped session id over TCP"
            );
            let stats = transcript.lines().nth(1).expect("stats answered");
            let payload = stats.split_once(' ').expect("id-prefixed response").1;
            let ServeResponse::Stats(snapshot) =
                wire::parse_response(payload).expect("stats parse")
            else {
                panic!("expected stats, got {payload}");
            };
            assert_eq!(snapshot.reactors, reactors);
            assert_eq!(snapshot.shard, shard, "the owning shard answered");
        }
        // Every shard drained; between them they served both connections.
        let reports = servers.iter().filter_map(|s| s.telemetry_report());
        assert_eq!(merge_metrics(reports).counter("conn.opened"), 2);
    }
}

#[test]
fn the_served_binary_runs_a_reactor_pool() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args([
            "--layout",
            "x:0:400 y:0:400",
            "--workers",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--reactors",
            "2",
            "--accept",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");

    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line is readable");
    let mut fields = banner
        .trim()
        .strip_prefix("# listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .split_whitespace();
    let addr = fields.next().expect("the banner leads with the address");
    assert_eq!(fields.next(), Some("reactors=2"), "the banner carries the reactor count");

    for token in 0..2u64 {
        let mut stream = TcpStream::connect(addr).expect("loopback connect");
        stream.write_all(b"open min-size:100\nstats\n").expect("request lines are written");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut transcript = String::new();
        stream.read_to_string(&mut transcript).expect("responses are readable");
        assert!(
            transcript.contains(&format!("ok session {}", ((token + 1) << 32) | 1)),
            "conn-scoped session id through the binary; got:\n{transcript}"
        );
        assert!(transcript.contains("reactors=2"), "stats are shard-stamped:\n{transcript}");
    }

    let status = child.wait().expect("anosy-served exits");
    assert!(status.success(), "anosy-served failed in --reactors mode");
}

#[test]
fn pool_usage_errors_are_refused_by_the_binary() {
    use std::process::Command;
    let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400", "--reactors", "2"])
        .output()
        .expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2), "--reactors without --listen is refused");

    let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400", "--listen", "127.0.0.1:0", "--reactors", "0"])
        .output()
        .expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2), "zero reactors is refused");
}

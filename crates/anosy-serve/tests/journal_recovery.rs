//! Crash/warm-restart chaos: a journaled deployment is killed mid-storm (dropped without any
//! `SaveCache`), warm-restarted from snapshot + journal, and must then serve the *full* storm
//! element-wise identically to the uninterrupted sequential oracle — with **zero re-synthesis**
//! for every query journaled before the kill.
//!
//! Three lives per scenario:
//!
//! 1. **First life**: a cold deployment with `--journal` semantics
//!    ([`Deployment::open_journal`]) serves the storm's opening phase over a seeded [`SimNet`];
//!    every synthesis commit is appended as it lands. The process then "crashes" — everything
//!    is dropped, nothing is saved.
//! 2. **Second life**: a fresh deployment recovers from the same journal config (snapshot load
//!    plus journal replay, truncating a torn tail when one was cut in) and serves the full
//!    storm from the start. Responses must match the oracle, and the deployment's
//!    `synth_misses` must stay at zero for pre-kill queries.
//! 3. **Replay**: the second life re-runs byte-identically from the same seed — recovery does
//!    not perturb determinism.
//!
//! The base seed is `ANOSY_SIM_SEED` (default 0); the CI `sim-stress` lane re-runs this suite
//! under several fixed seeds. The SIGKILL variant against the real `anosy-served` binary lives
//! in the CI workflow itself.

#[path = "support/oracle.rs"]
mod support;

use anosy_domains::IntervalDomain;
use anosy_serve::{
    Deployment, FlushPolicy, Frontend, JournalConfig, ServeConfig, Server, ServerConfig, SimNet,
    Token, TranscriptEvent,
};
use rand::Rng;
use std::path::PathBuf;

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

/// A scratch journal path unique to this test binary, test and seed (the CI seed matrix runs
/// the same tests against the same temp dir).
fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("anosy-serve-journal-recovery");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.journal", base_seed()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(JournalConfig::new(&path).snapshot_path());
    path
}

/// The storm: two connections register the palette's first two queries (real synthesis — this
/// deployment is cold), open sessions and burst seeded downgrades. `phase2` extends the same
/// script past the kill point with more traffic over the *same* queries plus a knowledge
/// checkpoint; the restarted life serves the whole thing.
fn storm(sim: &mut SimNet, phase2: bool) -> Vec<Token> {
    let c0 = sim.connect(0);
    sim.send(c0, 0, format!("{}{}", register_line(0), register_line(1)));
    sim.send(c0, 1000, "open min-size:100\n");
    let c1 = sim.connect(2000);
    sim.send(c1, 2000, "open allow-all\n");
    // Each connection's first (and only) session.
    let (s0, s1) = (support::session_id(c0.0, 1), support::session_id(c1.0, 1));
    for (client, session) in [(c0, s0), (c1, s1)] {
        let burst = sim.rng().gen_range(6usize..12);
        for j in 0..burst {
            let (a, b) = (sim.rng().gen_range(0i64..=10), sim.rng().gen_range(0i64..=10));
            let p = support::secret_grid(a, b);
            let line = downgrade_line(session, j % 2, p.as_slice()[0], p.as_slice()[1]);
            sim.send(client, 3000 + (j as u64) * 17, line);
        }
    }
    if phase2 {
        // Past the kill point: only pre-kill queries, so a lossless recovery synthesizes
        // nothing at all.
        sim.send(c0, 10_000, downgrade_line(s0, 0, 300, 200));
        sim.send(c1, 10_500, downgrade_line(s1, 1, 155, 132));
        sim.send(c1, 11_000, format!("knowledge session={s1} secret=155,132\n"));
    }
    sim.half_close(c1, 20_000);
    sim.half_close(c0, 21_000);
    vec![c0, c1]
}

/// Runs `build` over a seeded [`SimNet`] against `deployment`, to completion.
fn run_on(
    deployment: Deployment<IntervalDomain>,
    seed: u64,
    build: impl Fn(&mut SimNet) -> Vec<Token>,
) -> (SimServer, Vec<Token>) {
    let mut sim = SimNet::new(seed);
    let clients = build(&mut sim);
    let config = ServerConfig::new().recording();
    let mut server = Server::new(Frontend::new(deployment), sim, config);
    server.run();
    (server, clients)
}

/// Element-wise oracle equality plus the no-leak ledger checks, exactly as in `sim_chaos.rs` —
/// the uninterrupted sequential oracle runs on the process-wide palette, synthesized
/// independently of either life of the system under test.
fn assert_matches_oracle(server: &SimServer) {
    let mut oracle = support::Oracle::new();
    let mut expected = Vec::new();
    for event in server.transcript() {
        match event {
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
    assert_eq!(server.frontend().open_sessions(), oracle.open_sessions(), "session leak");
}

/// A cold deployment with the journal opened (the `--journal` start-up path).
fn journaled_deployment(config: &ServeConfig) -> Deployment<IntervalDomain> {
    let deployment: Deployment<IntervalDomain> = Deployment::new(support::layout(), config.clone());
    deployment.open_journal(false).unwrap().expect("config carries a journal");
    deployment
}

#[test]
fn killed_mid_storm_warm_restarts_without_resynthesis() {
    let seed = base_seed();
    let config = ServeConfig::for_tests()
        .with_journal(JournalConfig::new(journal_path("kill")).with_flush(FlushPolicy::EveryEntry));

    // First life: serve the opening phase cold, journaling both syntheses — then crash.
    let first = journaled_deployment(&config);
    let (server, _) = run_on(first.share(), seed, |sim| storm(sim, false));
    assert_matches_oracle(&server);
    assert_eq!(first.stats().cache.synth_misses, 2, "the first life synthesized the storm");
    assert_eq!(first.journal_stats().appended, 2, "both commits were journaled as they landed");
    drop(server);
    drop(first); // the kill: no SaveCache, no save-on-exit

    // Second life: snapshotless recovery — the journal alone restores the cache.
    let second = journaled_deployment(&config);
    assert_eq!(second.journal_stats().replayed, 2);
    assert_eq!(second.journal_stats().torn, 0);
    let (server, _) = run_on(second.share(), seed, |sim| storm(sim, true));
    assert_matches_oracle(&server);
    assert_eq!(
        second.stats().cache.synth_misses,
        0,
        "every pre-kill query must be served from the recovered cache"
    );
    assert!(second.stats().cache.synth_hits >= 2, "the full storm re-registers both queries");

    // Third check: recovery does not perturb determinism — the restarted life replays
    // byte-identically from the same seed.
    let again = journaled_deployment(&config);
    let (replay, clients) = run_on(again.share(), seed, |sim| storm(sim, true));
    for client in clients {
        assert_eq!(
            server.transport().received(client),
            replay.transport().received(client),
            "recovered serving diverged across replays of seed {seed}"
        );
    }
    assert_eq!(server.responses(), replay.responses());
}

#[test]
fn a_torn_tail_loses_exactly_the_cut_record() {
    let seed = base_seed().wrapping_add(1);
    let path = journal_path("torn");
    let config = ServeConfig::for_tests()
        .with_journal(JournalConfig::new(&path).with_flush(FlushPolicy::EveryEntry));

    let first = journaled_deployment(&config);
    let (server, _) = run_on(first.share(), seed, |sim| storm(sim, false));
    assert_matches_oracle(&server);
    assert_eq!(first.journal_stats().appended, 2);
    drop(server);
    drop(first);

    // The kill landed mid-append: cut the file inside the final record.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

    // Recovery truncates to the last good record and counts the tear; serving still matches
    // the oracle, and exactly the cut query re-synthesizes.
    let second = journaled_deployment(&config);
    assert_eq!(second.journal_stats().replayed, 1, "the torn final record is dropped");
    assert_eq!(second.journal_stats().torn, 1);
    let (server, _) = run_on(second.share(), seed, |sim| storm(sim, true));
    assert_matches_oracle(&server);
    assert_eq!(second.stats().cache.synth_misses, 1, "only the torn-away query re-synthesizes");
}

#[test]
fn live_compaction_mid_storm_keeps_recovery_lossless() {
    let seed = base_seed().wrapping_add(2);
    let config = ServeConfig::for_tests().with_journal(
        JournalConfig::new(journal_path("compact"))
            .with_flush(FlushPolicy::EveryEntry)
            .with_compact_every(1),
    );

    // First life: with a 1-record cadence every commit compacts on the committing reactor
    // thread, so snapshots are cut *while the storm is in flight*.
    let first = journaled_deployment(&config);
    let (server, _) = run_on(first.share(), seed, |sim| storm(sim, false));
    assert_matches_oracle(&server);
    let stats = first.journal_stats();
    assert_eq!(stats.appended, 2);
    assert!(stats.compacted > 0, "the storm outlives at least one compaction: {stats:?}");
    assert!(
        config.journal.as_ref().unwrap().snapshot_path().exists(),
        "compaction produced a live snapshot"
    );
    drop(server);
    drop(first);

    // Second life: recovery is snapshot + journal — however the compaction cadence split the
    // two, together they restore everything.
    let second = journaled_deployment(&config);
    assert_eq!(second.stats().entries, 2, "snapshot + replay restore the full cache");
    let (server, _) = run_on(second.share(), seed, |sim| storm(sim, true));
    assert_matches_oracle(&server);
    assert_eq!(second.stats().cache.synth_misses, 0);
}

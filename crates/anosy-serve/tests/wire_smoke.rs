//! End-to-end smoke test of the `anosy-served` binary: pipes the canned request script through
//! the real process over stdin/stdout (with two pool workers and with one), over a real loopback TCP socket (`--listen`) and over a two-reactor pool
//! (`--listen --reactors 2`), and diffs every response transcript against the one checked-in
//! expectation (up to the stats line's worker count or shard stamp). The CI smoke lane runs
//! the same pipe from the shell; this test keeps it under plain `cargo test` too. A second
//! script, `powerset.script`, runs `--domain powerset` and pins that domain's answers, refused
//! posterior sizes and encoded knowledge against `powerset.expected`. Two more runs cover
//! `--save-on-exit` (a snapshot the next process warm-starts from with `--journal`), two
//! more check that a tampered snapshot is refused at start-up and that no request names a
//! file, and one library session checks that a refusal names its policy exactly as the served
//! `deny policy` line does.
//!
//! The transcript is deterministic end to end: synthesis is deterministic, every request is
//! answered in arrival order exactly as the sequential replay would (proptested in
//! `proptest_frontend.rs`), `count` and `valid` run as one sequential solver job whose answer
//! does not depend on the pool's width, and session ids depend only on the opening connection.
//! Every transport runs the same reactor, so their outputs must be **byte-identical** — a diff
//! here means the *wire format or protocol semantics changed*; update `smoke.expected` only for
//! deliberate protocol changes.

#[path = "support/listen.rs"]
mod listen;

use anosy_core::{AnosySession, PolicySpec};
use anosy_domains::IntervalDomain;
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_synth::{ApproxKind, QueryDef, Synthesizer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

const SCRIPT: &str = include_str!("data/smoke.script");
const EXPECTED: &str = include_str!("data/smoke.expected");
const POWERSET_SCRIPT: &str = include_str!("data/powerset.script");
const POWERSET_EXPECTED: &str = include_str!("data/powerset.expected");

/// Pipes the smoke script through `anosy-served` over stdin/stdout with `workers` pool workers
/// and returns the transcript it wrote.
fn stdio_transcript(workers: &str) -> String {
    served_stdio(SCRIPT, &["--workers", workers])
}

/// Pipes `script` through `anosy-served` (plus `extra` arguments) over stdin/stdout and
/// returns the transcript it wrote.
fn served_stdio(script: &str, extra: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400 y:0:400"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(script.as_bytes())
        .expect("script is written");
    let output = child.wait_with_output().expect("anosy-served exits");

    assert!(
        output.status.success(),
        "anosy-served failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("transcript is UTF-8")
}

#[test]
fn canned_script_round_trips_through_the_binary() {
    assert_eq!(
        stdio_transcript("2"),
        EXPECTED,
        "the anosy-served transcript diverged from tests/data/smoke.expected"
    );

    // Blank lines and comments are no-ops: nothing answers them, and no tick runs for them.
    let transcript = served_stdio("\n# a comment\n\n   \n# another\n\nstats\n", &[]);
    let mut lines = transcript.lines();
    let stats = lines.next().expect("the stats request is answered");
    assert!(stats.starts_with("0.1 ok stats "), "the first response is the stats line: {stats}");
    assert!(stats.contains(" ticks=0 "), "blank lines and comments never tick: {stats}");
    assert_eq!(lines.next(), None, "{transcript}");
}

#[test]
fn the_same_transcript_rides_a_one_worker_pool() {
    // The pool only runs each `count`/`valid` request as one solver job; no answer, the
    // `valid` counterexample included, may change with its width.
    let transcript = stdio_transcript("1");
    assert!(transcript.contains(" workers=1 "), "the pool ran one worker:\n{transcript}");
    assert_eq!(
        masked(&transcript, &["workers"]),
        masked(EXPECTED, &["workers"]),
        "the one-worker transcript diverged from the two-worker one"
    );
}

#[test]
fn the_powerset_transcript_is_byte_identical() {
    // The powerset domain's answers, refused posterior sizes and `knowledge` member lists
    // (their encoding and stored order) must not move; smoke.script covers the interval domain
    // only. One worker decides every batch on the reactor thread, two on the pool.
    for workers in ["2", "1"] {
        assert_eq!(
            served_stdio(POWERSET_SCRIPT, &["--domain", "powerset", "--workers", workers]),
            POWERSET_EXPECTED,
            "the --domain powerset transcript at {workers} worker(s) diverged from \
             tests/data/powerset.expected"
        );
    }
}

/// A policy is spelled the same in a library refusal and in a served `deny policy` line: both
/// print its `PolicySpec` text form. The library session below replays the smoke script's
/// second connection (`@1 open min-size:30000`, then a downgrade of `nearby` at 300,200).
#[test]
fn library_and_served_refusals_spell_the_policy_alike() {
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
    let query = QueryDef::new("nearby", layout.clone(), nearby).expect("the query is valid");
    let policy = PolicySpec::parse("min-size:30000").expect("the spec parses");
    let mut session = AnosySession::<IntervalDomain>::new(layout, policy);
    session
        .register_synthesized(&mut Synthesizer::new(), &query, ApproxKind::Under, None)
        .expect("nearby synthesizes");
    let refusal = session
        .downgrade(&Protected::new(Point::new(vec![300, 200])), "nearby")
        .expect_err("min-size:30000 refuses nearby");

    let served = EXPECTED
        .lines()
        .find(|line| line.starts_with("1.2 "))
        .expect("the smoke transcript answers @1's downgrade");
    assert_eq!(served, format!("1.2 deny policy {refusal}"));
    assert!(served.contains(" min-size:30000 refuses nearby "), "{served}");
}

const REGISTER: &str =
    "register name=nearby kind=under members=- pred=abs(x - 200) + abs(y - 200) <= 100\n";

/// A fresh journal path for `name` in this process's scratch directory, with neither the
/// journal nor its snapshot on disk; returned with its snapshot path.
fn scratch_journal(name: &str) -> (String, String) {
    let dir = std::env::temp_dir().join("anosy-serve-wire-smoke");
    std::fs::create_dir_all(&dir).expect("the scratch dir is creatable");
    let journal = dir.join(format!("{name}-{}.journal", std::process::id()));
    let journal = journal.to_str().expect("the scratch path is UTF-8").to_string();
    let snapshot = format!("{journal}.snapshot");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&snapshot);
    (journal, snapshot)
}

/// `--save-on-exit PATH` snapshots the synthesis cache after the last request, and a second
/// process started with `--journal` over that snapshot answers the same registration from the
/// cache, after re-verifying the loaded entry.
#[test]
fn save_on_exit_snapshots_the_cache_for_the_next_process() {
    let (journal, snapshot) = scratch_journal("save-on-exit");

    let first = served_stdio(REGISTER, &["--save-on-exit", &snapshot]);
    assert_eq!(first, "0.1 ok registered nearby\n# saved entries=1 skipped=0\n");

    let second = served_stdio(&format!("{REGISTER}stats\n"), &["--journal", &journal]);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&snapshot);
    let mut lines = second.lines();
    assert_eq!(
        lines.next(),
        Some("# journal recovered replayed=0 torn=0 snapshot_loaded=1 skipped=0"),
        "{second}"
    );
    assert_eq!(lines.next(), Some("0.1 ok registered nearby"), "{second}");
    let stats = lines.next().expect("the stats request is answered");
    assert!(stats.contains(" synth_hits=1 synth_misses=0 "), "{stats}");
    assert_eq!(lines.next(), None, "{second}");
}

/// A snapshot whose one record frames and checksums correctly but claims the whole space as the
/// under-approximation of `nearby` is refused at start-up: the registration synthesizes afresh,
/// and a `min-size:30000` session on `200,200` is refused exactly as on an honest server,
/// whose true posterior there holds 20,201 points. Neither `save` nor `warm` is a request, so
/// no line can write a file or load one.
#[test]
fn a_tampered_snapshot_is_refused_and_no_request_names_a_file() {
    const SESSION: &str = "open min-size:30000\n\
        downgrade session=4294967297 query=nearby secret=200,200\n\
        knowledge session=4294967297 secret=200,200\n";
    let (journal, snapshot) = scratch_journal("tampered");
    let body = "entry kind=under members=-\n\
        layout x:0:400 y:0:400\n\
        pred ((abs((v0 - 200)) + abs((v1 - 200))) <= 100)\n\
        truthy 0..400,0..400\n\
        falsy 0..400,0..99\n\
        end\n";
    let sum = anosy_serve::wire::frame_checksum(body.as_bytes());
    let record = format!("record len={} sum={sum:016x}\n{body}", body.len());
    std::fs::write(&snapshot, format!("anosy-synth-journal v1 domain=interval\n{record}"))
        .expect("the snapshot is writable");
    let written = format!("{journal}.written");
    let _ = std::fs::remove_file(&written);

    let honest = served_stdio(&format!("{REGISTER}{SESSION}"), &[]);
    let probe = format!("{REGISTER}{SESSION}stats\nsave path={written}\nwarm path={snapshot}\n");
    let probed = served_stdio(&probe, &["--journal", &journal]);
    let written_exists = std::path::Path::new(&written).exists();
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&written);

    let mut lines = probed.lines();
    assert_eq!(
        lines.next(),
        Some("# journal recovered replayed=0 torn=0 snapshot_loaded=0 skipped=1"),
        "{probed}"
    );
    for want in honest.lines() {
        assert_eq!(lines.next(), Some(want), "{probed}");
    }
    assert!(honest.contains("0.3 deny policy "), "{honest}");
    let stats = lines.next().expect("the stats request is answered");
    assert!(stats.contains(" synth_hits=0 synth_misses=1 "), "{stats}");
    assert_eq!(lines.next(), Some("! malformed wire line: unknown request `save`"), "{probed}");
    assert_eq!(lines.next(), Some("! malformed wire line: unknown request `warm`"), "{probed}");
    assert_eq!(lines.next(), None, "{probed}");
    assert!(!written_exists, "a `save` line wrote {written}");
}

/// Serves the smoke script to one loopback client of `anosy-served --listen` (plus `extra`
/// arguments) and returns the transcript the client read back.
fn socket_transcript(extra: &[&str]) -> String {
    let mut args = vec!["--layout", "x:0:400 y:0:400", "--workers", "2"];
    args.extend(["--listen", "127.0.0.1:0", "--accept", "1"]);
    args.extend(extra);
    let mut served = listen::listen(&args);

    // One client connection: write the whole script (the kernel chunks it however it likes),
    // half-close, and read responses until the server closes. The trailing unterminated line
    // of the script doubles as the mid-line half-close case.
    let mut stream = TcpStream::connect(&served.addr).expect("loopback connect");
    stream.write_all(SCRIPT.as_bytes()).expect("script is written");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).expect("transcript is readable");

    let status = served.child.wait().expect("anosy-served exits");
    assert!(status.success(), "anosy-served failed in --listen mode {extra:?}");
    transcript
}

#[test]
fn the_same_transcript_rides_a_loopback_socket() {
    assert_eq!(
        socket_transcript(&[]),
        EXPECTED,
        "the socket transcript diverged from the stdin/stdout transcript"
    );
}

/// Masks the values of the stats line's `keys` fields — the stamp a transcript may vary in
/// across pool shapes (`reactors=`/`shard=` across reactor counts, `workers=` across worker
/// counts).
fn masked(transcript: &str, keys: &[&str]) -> String {
    transcript
        .lines()
        .map(|line| {
            line.split(' ')
                .map(|field| match field.split_once('=') {
                    Some((key, _)) if keys.contains(&key) => format!("{key}=*"),
                    _ => field.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
                + "\n"
        })
        .collect()
}

#[test]
fn the_same_transcript_rides_a_two_reactor_pool() {
    // Session ids depend only on the opening connection, so sharding the pool changes nothing
    // a client can see but the stats line's shard stamp.
    let transcript = socket_transcript(&["--reactors", "2"]);
    assert!(transcript.contains(" reactors=2 "), "the pool ran two reactors:\n{transcript}");
    assert_eq!(
        masked(&transcript, &["reactors", "shard"]),
        masked(EXPECTED, &["reactors", "shard"]),
        "the two-reactor transcript diverged from the single-reactor one"
    );
}

#[test]
fn bad_arguments_fail_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "not a layout"])
        .output()
        .expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));

    let output =
        Command::new(env!("CARGO_BIN_EXE_anosy-served")).output().expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2), "a missing --layout is refused");

    let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400", "--accept", "1"])
        .output()
        .expect("anosy-served runs");
    assert_eq!(output.status.code(), Some(2), "--accept without --listen is refused");

    for args in [
        &["--layout", "x:0:4 x:0:4"][..],
        &["--layout", "x:0:400", "--ticked"],
        &["--layout", "x:0:400", "--tick-ms", "5"],
        &["--layout", "x:0:400", "--journal", "j", "--journal-flush", "on-tick"],
        &["--layout", "x:0:400", "--journal", "j", "--journal-flush", "every-8"],
        &["--layout", "x:0:400", "--io-log-cap", "8"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
            .args(args)
            .output()
            .expect("anosy-served runs");
        assert_eq!(output.status.code(), Some(2), "{args:?} is refused with the usage code");
        assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"), "{args:?}");
    }
}

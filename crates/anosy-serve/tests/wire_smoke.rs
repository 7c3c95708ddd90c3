//! End-to-end smoke test of the `anosy-served` binary: pipes the canned request script through
//! the real process over stdin/stdout (`--ticked` batching, with two pool workers and with
//! one), over a real loopback TCP socket (`--listen`) and over a two-reactor pool
//! (`--listen --reactors 2`), and diffs every response transcript against the one checked-in
//! expectation (up to the stats line's worker count or shard stamp). The CI smoke lane runs
//! the same pipe from the shell; this test keeps it under plain `cargo test` too. A second
//! script, `powerset.script`, runs `--domain powerset` and pins that domain's answers, refused
//! posterior sizes and encoded knowledge against `powerset.expected`.
//!
//! The transcript is deterministic end to end: synthesis is deterministic, tick batching is
//! response-equivalent to the sequential replay (proptested in `proptest_frontend.rs`),
//! sharded counting reports counterexamples in deterministic chunk order, and session ids
//! depend only on the opening connection. Every transport runs the same reactor, so their
//! outputs must be **byte-identical** — a diff here means the *wire format or protocol
//! semantics changed*; update `smoke.expected` only for deliberate protocol changes.

#[path = "support/listen.rs"]
mod listen;

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

/// Pipes `script` through `anosy-served --ticked` (plus `extra` arguments) over stdin/stdout
/// and returns the transcript it wrote.
fn served_stdio(script: &str, extra: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400 y:0:400", "--ticked"])
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
}

#[test]
fn the_same_transcript_rides_a_one_worker_pool() {
    // The pool width only shards `count`/`valid` work; no answer may change with it.
    let transcript = stdio_transcript("1");
    assert!(transcript.contains(" workers=1 "), "the pool ran one worker:\n{transcript}");
    assert_eq!(
        masked(&without_counterexample(&transcript), &["workers"]),
        masked(&without_counterexample(EXPECTED), &["workers"]),
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

/// Masks the point of the transcript's one `ok counterexample` answer, after checking that it
/// refutes the script's `valid pred=x >= 401`. The sharded validity driver returns the first
/// counterexample in chunk order, and it cuts the space into more chunks the more workers it
/// has, so the point it finds depends on the worker count.
fn without_counterexample(transcript: &str) -> String {
    let mut found = 0;
    let masked = transcript
        .lines()
        .map(|line| match line.split_once(" ok counterexample ") {
            Some((tag, point)) => {
                found += 1;
                let coords: Vec<i64> =
                    point.split(',').map(|c| c.parse().expect("integer coordinate")).collect();
                assert!(
                    matches!(coords[..], [x, y] if (0..=400).contains(&x) && (0..=400).contains(&y)),
                    "`{point}` is not a layout point refuting x >= 401"
                );
                format!("{tag} ok counterexample *\n")
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_eq!(found, 1, "the script checks one invalid predicate:\n{transcript}");
    masked
}

/// Serves the smoke script to one loopback client of `anosy-served --listen` (plus `extra`
/// arguments) and returns the transcript the client read back.
fn socket_transcript(extra: &[&str]) -> String {
    let mut args = vec!["--layout", "x:0:400 y:0:400", "--workers", "2", "--ticked"];
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
}

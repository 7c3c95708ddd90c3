//! Regression: a vanished stdout reader must not panic the stdio reactor.
//!
//! Before the fix, `StdioTransport::send` routed every response write through
//! `expect("stdout is writable")` — the first `EPIPE` after the read end of the pipe died
//! panicked the reactor thread and killed the whole process with exit code 101, taking every
//! session down with it. The transport contract says delivery failures surface as a later
//! [`anosy_serve::Event::Failed`] for the connection, which the reactor answers by tearing the
//! connection down and exiting its loop cleanly.
//!
//! This test reproduces the scenario end to end against the real binary: complete one
//! request/response round-trip, close the read end of the server's stdout mid-stream, keep
//! writing requests so the server keeps attempting response writes, and assert the process
//! exits successfully (no panic) instead of dying with 101.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn a_dead_stdout_reader_fails_the_connection_not_the_process() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(["--layout", "x:0:400 y:0:400", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");

    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));

    // One full round-trip proves the pipe worked before we kill the read end.
    stdin.write_all(b"open min-size:100\n").expect("request is written");
    stdin.flush().expect("request is flushed");
    let mut line = String::new();
    stdout.read_line(&mut line).expect("response is readable");
    assert_eq!(line.trim_end(), "0.1 ok session 4294967297");

    // Kill the read end of the server's stdout: its next response write gets EPIPE.
    drop(stdout);

    // Keep requests coming so the server actually attempts more response writes. Our own
    // writes may start failing once the server tears the connection down and exits — that's
    // the expected shutdown order, not a test failure.
    for _ in 0..50 {
        if stdin.write_all(b"knowledge session=4294967297 secret=1,2\n").is_err() {
            break;
        }
        if stdin.flush().is_err() {
            break;
        }
    }
    drop(stdin);

    let output = child.wait_with_output().expect("anosy-served exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "an EPIPE on stdout must fail the connection, not the process (status {:?}):\n{stderr}",
        output.status.code(),
    );
    assert!(!stderr.contains("panicked"), "the reactor must not panic on EPIPE:\n{stderr}");
}

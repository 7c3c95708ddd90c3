//! End-to-end smoke test of the **binary frame protocol** against the real `anosy-served`
//! binary: the canned smoke script rides the pipe twice — once as `\n`-terminated lines (the
//! line protocol, exactly as `tests/wire_smoke.rs` and the CI smoke lane drive it) and once as
//! a `anosy-bin v1\n` preamble followed by one checksummed frame per script line. The framed
//! responses are decoded back into lines and diffed against both the line-protocol transcript
//! and the checked-in expectation: the two protocols must carry **identical protocol text**,
//! or the binary codec is not the tax-free encoding it claims to be.
//!
//! The framed script also rides a loopback socket (`--listen`), written in one `write_all`:
//! the server then reads many frames per read and answers them with coalesced writes, and the
//! decoded replies must still equal the line transcript.
//!
//! Frame/line translation is mechanical: each script line (comments included) becomes one
//! frame payload, blank lines become empty frames (no-ops on both protocols), and
//! the script's deliberately unterminated final line becomes an ordinary complete frame —
//! frames are terminator-free, so "half-closed mid-line" has no binary analogue.

#[path = "support/listen.rs"]
mod listen;

use anosy_serve::wire;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

const SCRIPT: &str = include_str!("data/smoke.script");
const EXPECTED: &str = include_str!("data/smoke.expected");

const ARGS: [&str; 4] = ["--layout", "x:0:400 y:0:400", "--workers", "2"];

/// Pipes `input` through `anosy-served` and returns the raw stdout bytes.
fn pipe_through_served(input: &[u8]) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(ARGS)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");
    child.stdin.take().expect("stdin is piped").write_all(input).expect("input is written");
    let output = child.wait_with_output().expect("anosy-served exits");
    assert!(
        output.status.success(),
        "anosy-served failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Serves `input` to one loopback client of `anosy-served --listen`, written in a single
/// `write_all`, and returns the raw bytes the client read back.
fn socket_through_served(input: &[u8]) -> Vec<u8> {
    let mut served =
        listen::listen(&[&ARGS[..], &["--listen", "127.0.0.1:0", "--accept", "1"]].concat());
    let mut stream = TcpStream::connect(&served.addr).expect("loopback connect");
    stream.write_all(input).expect("input is written");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut received = Vec::new();
    stream.read_to_end(&mut received).expect("responses are readable");

    let status = served.child.wait().expect("anosy-served exits");
    assert!(status.success(), "anosy-served failed in --listen mode");
    received
}

/// The smoke script re-encoded for the binary protocol: preamble, then one frame per line.
fn framed_script() -> Vec<u8> {
    let mut bytes = wire::BINARY_PREAMBLE.to_vec();
    for line in SCRIPT.split('\n') {
        wire::frame_into(&mut bytes, line.as_bytes());
    }
    bytes
}

/// Decodes a framed response stream back into `\n`-terminated lines, panicking on anything a
/// healthy server never produces (corrupt/oversize frames, a mid-frame end of stream).
fn decode_transcript(bytes: &[u8]) -> String {
    let mut decoder = wire::FrameDecoder::new();
    let mut transcript = String::new();
    for frame in decoder.feed(bytes) {
        match frame {
            wire::DecodedFrame::Frame(payload) => {
                transcript.push_str(std::str::from_utf8(&payload).expect("frame payload is UTF-8"));
                transcript.push('\n');
            }
            other => panic!("the server produced a non-frame unit: {other:?}"),
        }
    }
    assert_eq!(decoder.finish(), None, "the server must end its stream on a frame boundary");
    transcript
}

#[test]
fn the_smoke_script_decodes_identically_over_both_protocols() {
    let line_transcript =
        String::from_utf8(pipe_through_served(SCRIPT.as_bytes())).expect("transcript is UTF-8");
    let binary_transcript = decode_transcript(&pipe_through_served(&framed_script()));

    assert_eq!(
        line_transcript, EXPECTED,
        "the line-protocol transcript diverged from tests/data/smoke.expected"
    );
    assert_eq!(
        binary_transcript, EXPECTED,
        "the decoded binary-protocol transcript diverged from the line protocol's"
    );
}

#[test]
fn the_framed_script_decodes_identically_over_a_loopback_socket() {
    let line_transcript =
        String::from_utf8(pipe_through_served(SCRIPT.as_bytes())).expect("transcript is UTF-8");
    let socket_transcript = decode_transcript(&socket_through_served(&framed_script()));
    assert_eq!(
        socket_transcript, line_transcript,
        "the framed socket transcript diverged from the stdio line transcript"
    );
}

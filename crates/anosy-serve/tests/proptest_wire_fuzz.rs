//! Byte-soup fuzzing for the wire layer: arbitrary byte sequences — non-UTF-8, embedded NUL,
//! CRLF/LF mixes, never-terminated lines — must **error as data**: no panic anywhere, and the
//! incremental [`LineDecoder`]'s carry-over state must never desync (what it decodes is a pure
//! function of the concatenated bytes, independent of chunk boundaries, and after any garbage a
//! well-formed line still decodes).
//!
//! The binary frame codec gets the same treatment: [`FrameDecoder`] fed frame/garbage soup
//! must decode independently of chunk boundaries within a bounded buffer, resync at the next
//! frame boundary after a corrupt frame, and never panic — plus the protocol-level properties:
//! a server fed arbitrary first bytes negotiates *some* protocol without panicking while
//! well-formed neighbours answer normally, and one request script answers with **identical
//! protocol text** over the line codec and the frame codec.
//!
//! The CI `sim-stress` lane re-runs this file with `PROPTEST_CASES=256`.

#[path = "support/oracle.rs"]
mod support;

use anosy_logic::SecretLayout;
use anosy_serve::wire::{self, DecodedFrame, DecodedLine, FrameDecoder, LineDecoder};
use anosy_serve::{Frontend, Server, ServerConfig, SimNet};
use proptest::prelude::*;

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

/// Bytes biased toward the wire format's structural characters, so the soup regularly forms
/// almost-lines instead of pure noise.
fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        6 => 0u8..=255,
        2 => Just(b'\n'),
        1 => Just(b'\r'),
        1 => Just(0u8),
        1 => Just(b'='),
        1 => Just(b' '),
        1 => Just(b'@'),
    ]
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(arb_byte(), 0..300)
}

/// Frame soup: a concatenation of well-formed frames (arbitrary payloads, some exceeding small
/// decoder caps) and raw garbage runs, so the decoder sees valid frames, oversize frames,
/// garbage misread as headers and every transition between them.
fn arb_frame_soup() -> impl Strategy<Value = Vec<u8>> {
    let segment = prop_oneof![
        2 => arb_bytes(),
        3 => proptest::collection::vec(0u8..=255u8, 0..80).prop_map(|p| wire::encode_frame(&p)),
    ];
    proptest::collection::vec(segment, 0..6).prop_map(|segments| segments.concat())
}

/// Well-formed request/response lines the mutation fuzzer starts from.
const SEEDS: [&str; 10] = [
    "open min-size:100",
    "register name=q kind=under members=- pred=abs(x - 200) + abs(y - 200) <= 100",
    "downgrade session=1 query=q secret=300,200",
    "batch session=1 query=q secrets=300,200;10,10",
    "count pred=x <= 100",
    "knowledge session=1 secret=0,0",
    "ok stats open=1 ticks=2 requests=3 batched=4 largest=5 torn=0 workers=2 entries=1 \
     sessions=2 closed=0 synth_hits=1 synth_misses=1 warm=0 authorized=1 refused=0",
    "ok answers true false !policy",
    "deny policy refused",
    "ok knowledge size=6837 121..279,179..221",
];

proptest! {
    #[test]
    fn decoding_is_independent_of_chunk_boundaries(
        bytes in arb_bytes(),
        cuts in proptest::collection::vec(0usize..300, 0..6),
        cap in 4usize..64,
    ) {
        // Reference: the whole soup in one feed.
        let mut whole = LineDecoder::with_max_line(cap);
        let mut expected = whole.feed(&bytes);
        if let Some(last) = whole.finish() {
            expected.push(last);
        }

        // Same soup, arbitrary chunking.
        let mut cuts: Vec<usize> =
            cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut chunked = LineDecoder::with_max_line(cap);
        let mut got = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            got.extend(chunked.feed(&bytes[start..cut]));
            // The carry-over buffer is bounded by the cap at every step (+1 for the CRLF
            // grace byte) — a never-terminated line cannot grow memory.
            prop_assert!(chunked.buffered() <= cap + 1);
            start = cut;
        }
        if let Some(last) = chunked.finish() {
            got.push(last);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn the_decoder_resyncs_after_any_garbage(bytes in arb_bytes()) {
        let mut decoder = LineDecoder::with_max_line(64);
        decoder.feed(&bytes);
        // Whatever state the soup left behind, a terminator ends it and the next line decodes
        // cleanly — the carry-over can never desync.
        let mut tail = decoder.feed(b"\nstats\n");
        let last = tail.pop().expect("the final line decodes");
        prop_assert_eq!(last, DecodedLine::Line("stats".to_string()));
        prop_assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn parsers_never_panic_on_decoded_soup(bytes in arb_bytes()) {
        // Run the soup through the decoder and both parsers — errors are fine, panics are not,
        // and every decoded Line is valid UTF-8 by construction.
        let mut decoder = LineDecoder::with_max_line(128);
        let mut lines = decoder.feed(&bytes);
        if let Some(last) = decoder.finish() {
            lines.push(last);
        }
        for item in lines {
            if let DecodedLine::Line(line) = item {
                let _ = wire::parse_request(&line, &layout());
                let _ = wire::parse_response(&line);
            }
        }
        // The raw soup, lossily decoded, must not panic the parsers either (a transport that
        // skips the decoder, like the old per-line stdin path).
        for line in String::from_utf8_lossy(&bytes).lines() {
            let _ = wire::parse_request(line, &layout());
            let _ = wire::parse_response(line);
        }
    }

    #[test]
    fn parsers_never_panic_on_mutated_valid_lines(
        seed in 0usize..SEEDS.len(),
        mutations in proptest::collection::vec((0usize..200, arb_byte()), 0..4),
    ) {
        // Near-misses of real lines probe every token path: flip a few bytes of a valid line
        // and parse. Any result is acceptable except a panic or a desync.
        let mut line = SEEDS[seed].as_bytes().to_vec();
        for (position, byte) in mutations {
            let index = position % line.len();
            line[index] = byte;
        }
        let mut decoder = LineDecoder::new();
        line.push(b'\n');
        for item in decoder.feed(&line) {
            if let DecodedLine::Line(text) = item {
                let _ = wire::parse_request(&text, &layout());
                let _ = wire::parse_response(&text);
            }
        }
        prop_assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn never_terminated_lines_report_overlong_exactly_once(
        length in 1usize..600,
        cap in 4usize..64,
    ) {
        let mut decoder = LineDecoder::with_max_line(cap);
        let soup = vec![b'x'; length];
        let mut decoded = decoder.feed(&soup);
        if let Some(last) = decoder.finish() {
            decoded.push(last);
        }
        if length > cap {
            // One Overlong, the tail swallowed, nothing else.
            prop_assert_eq!(decoded, vec![DecodedLine::Overlong]);
        } else {
            prop_assert_eq!(decoded, vec![DecodedLine::Line("x".repeat(length))]);
        }
        // And the decoder is reusable afterwards.
        prop_assert_eq!(
            decoder.feed(b"ok\n"),
            vec![DecodedLine::Line("ok".to_string())]
        );
    }

    #[test]
    fn frame_decoding_is_independent_of_chunk_boundaries(
        bytes in arb_frame_soup(),
        cuts in proptest::collection::vec(0usize..600, 0..6),
        cap in 4usize..64,
    ) {
        // Reference: the whole soup in one feed.
        let mut whole = FrameDecoder::with_max_frame(cap);
        let mut expected = whole.feed(&bytes);
        if let Some(last) = whole.finish() {
            expected.push(last);
        }

        // Same soup, arbitrary chunking.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut chunked = FrameDecoder::with_max_frame(cap);
        let mut got = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            got.extend(chunked.feed(&bytes[start..cut]));
            // Bounded carry-over at every step: header + at most one capped payload. An
            // oversize frame's declared payload is counted down, never buffered.
            prop_assert!(chunked.buffered() <= 12 + cap);
            start = cut;
        }
        if let Some(last) = chunked.finish() {
            got.push(last);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn the_frame_decoder_resyncs_after_a_corrupt_frame(
        payload in proptest::collection::vec(0u8..=255, 1..80),
        flip in 1u8..=255,
        at in 0usize..10_000,
    ) {
        // Flip one payload byte under an intact header: FNV-1a steps are bijective in the
        // running state, so the checksum is guaranteed to miss. The frame boundary was still
        // declared exactly, so the decoder reports Corrupt and the pristine follower decodes.
        let mut bytes = wire::encode_frame(&payload);
        bytes[12 + at % payload.len()] ^= flip;
        wire::frame_into(&mut bytes, b"stats");
        let mut decoder = FrameDecoder::new();
        prop_assert_eq!(
            decoder.feed(&bytes),
            vec![DecodedFrame::Corrupt, DecodedFrame::Frame(b"stats".to_vec())]
        );
        prop_assert_eq!(decoder.finish(), None);
    }

    #[test]
    fn frame_soup_errors_as_data_and_payloads_never_panic_the_parsers(
        bytes in arb_frame_soup(),
    ) {
        let mut decoder = FrameDecoder::with_max_frame(128);
        let mut frames = decoder.feed(&bytes);
        if let Some(last) = decoder.finish() {
            frames.push(last);
        }
        for frame in frames {
            if let DecodedFrame::Frame(payload) = frame {
                // A frame payload is one protocol line: the parsers must take whatever the
                // soup delivered without panicking (errors are fine).
                if let Ok(text) = std::str::from_utf8(&payload) {
                    let _ = wire::parse_request(text, &layout());
                    let _ = wire::parse_response(text);
                }
            }
        }
        // Whatever state the soup left, a discard makes the decoder reusable.
        decoder.discard();
        prop_assert_eq!(
            decoder.feed(&wire::encode_frame(b"stats")),
            vec![DecodedFrame::Frame(b"stats".to_vec())]
        );
    }
}

/// A guessed session id: one of the first two opens of the script's logical connections (the
/// bare connection 0 and `@2`/`@3`), or of the never-used connection 1.
fn arb_session() -> impl Strategy<Value = u64> {
    (0u64..4, 1u64..3).prop_map(|(conn, k)| support::session_id(conn, k))
}

/// One protocol line of the cross-codec scripts: palette registrations (warm-cache hits),
/// opens, downgrades/knowledge probes over guessed session ids (hits and unknown-session
/// denials alike answer identically on both codecs), closes, malformed refuse-line traffic,
/// and blank no-op lines — optionally tagged onto a logical `@conn`, so one stream
/// interleaves downgrades across several sessions.
fn arb_script_line() -> impl Strategy<Value = String> {
    let body = prop_oneof![
        2 => Just("open min-size:100".to_string()),
        1 => Just("open allow-all".to_string()),
        2 => Just(
            "register name=q kind=under members=- pred=abs(x - 200) + abs(y - 200) <= 100"
                .to_string()
        ),
        4 => (arb_session(), 0i64..=400, 0i64..=400).prop_map(|(s, x, y)| {
            format!("downgrade session={s} query=q secret={x},{y}")
        }),
        2 => (arb_session(), 0i64..=400, 0i64..=400).prop_map(|(s, x, y)| {
            format!("knowledge session={s} secret={x},{y}")
        }),
        1 => arb_session().prop_map(|s| format!("close session={s}")),
        1 => Just("this is not a request".to_string()),
    ];
    let prefix = prop_oneof![
        3 => Just(String::new()),
        1 => (2u64..4).prop_map(|c| format!("@{c} ")),
    ];
    prop_oneof![
        8 => (prefix, body).prop_map(|(prefix, body)| format!("{prefix}{body}")),
        1 => Just(String::new()), // blank: a no-op line or an empty frame, on both codecs
    ]
}

/// Drives `lines` through a real server over `SimNet` on one connection — as `\n`-terminated
/// lines, or as the preamble plus one frame per line — and returns the response transcript
/// with the codec decoded away.
fn run_script(lines: &[String], seed: u64, binary: bool) -> String {
    let mut sim = SimNet::new(seed);
    let token = sim.connect(0);
    let mut at = 10;
    if binary {
        sim.send(token, at, wire::BINARY_PREAMBLE);
    }
    for line in lines {
        let payload = if binary {
            wire::encode_frame(line.as_bytes())
        } else {
            let mut bytes = line.clone().into_bytes();
            bytes.push(b'\n');
            bytes
        };
        sim.send(token, at, payload);
        at += 100;
    }
    sim.half_close(token, at + 2_000);
    let config = ServerConfig::new();
    let mut server = Server::new(Frontend::new(support::warm_deployment()), sim, config);
    server.run();
    if binary {
        server.transport().received_frame_text(token)
    } else {
        server.transport().received_text(token)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn protocol_negotiation_never_panics_on_arbitrary_first_bytes(
        soup in arb_bytes(),
        seed in 0u64..1_000,
    ) {
        // Three connections race: pure soup (negotiates *something* — a soup prefix of the
        // preamble is the hard case), a well-formed line client and a well-formed binary
        // client. The soup must not panic the reactor or disturb its neighbours.
        let mut sim = SimNet::new(seed);
        let garbage = sim.connect(0);
        let line = sim.connect(0);
        let binary = sim.connect(0);
        sim.send(garbage, 10, &soup);
        sim.half_close(garbage, 5_000);
        sim.send(line, 10, "open min-size:100\n");
        sim.half_close(line, 5_000);
        let mut framed = wire::BINARY_PREAMBLE.to_vec();
        wire::frame_into(&mut framed, b"open min-size:100");
        sim.send(binary, 10, &framed);
        sim.half_close(binary, 5_000);

        let mut server =
            Server::new(Frontend::new(support::warm_deployment()), sim, ServerConfig::new());
        server.run();

        // Session ids are scoped to the opening connection, so whatever the soup formed, each
        // neighbour's first open gets exactly its own connection's first id.
        let line_text = server.transport().received_text(line);
        prop_assert_eq!(
            line_text,
            format!("1.1 ok session {}\n", support::session_id(line.0, 1))
        );
        let binary_text = server.transport().received_frame_text(binary);
        prop_assert_eq!(
            binary_text,
            format!("2.1 ok session {}\n", support::session_id(binary.0, 1))
        );
    }

    #[test]
    fn the_same_script_answers_identically_over_both_codecs(
        lines in proptest::collection::vec(arb_script_line(), 1..12),
        seed in 0u64..1_000,
    ) {
        // The tentpole's tax-free claim, as a property: one script, two codecs, identical
        // protocol text — across streams that interleave downgrades over several `@conn`
        // sessions, unknown-session denials, refusals and blank no-op lines.
        let line_run = run_script(&lines, seed, false);
        let binary_run = run_script(&lines, seed.wrapping_add(1), true);
        prop_assert_eq!(line_run, binary_run);
    }
}

//! The event-loop server: a reactor driving the sans-IO [`Frontend`] over a pluggable
//! [`Transport`].
//!
//! PR 4 separated protocol semantics from I/O: the [`Frontend`] state machine knows requests,
//! ticks and responses but never touches a byte of transport. This module adds the other half —
//! an event loop that owns a frontend and a [`Transport`], and translates between the two:
//!
//! * transport **connections** ([`Token`]s) become logical [`ConnId`]s (the base id
//!   `ConnId(token)`, plus any explicit `@conn` ids its lines claim);
//! * transport **bytes** run through a per-connection protocol decoder — negotiated from the
//!   first bytes: connections opening with [`wire::BINARY_PREAMBLE`] speak length-prefixed
//!   checksummed [`wire::FrameDecoder`] frames, everything else falls back to the classic
//!   [`wire::LineDecoder`] line protocol (carry-over buffering either way, so partial items,
//!   coalesced writes and CRLF/LF mixes all decode identically) — and each complete
//!   line/frame becomes one [`wire::parse_request_interned`] submission;
//! * **quiescence timers and blank lines** become [`Frontend::tick`] calls, whose tagged
//!   responses are routed back to whichever connection submitted the request;
//! * **disconnects** become [`Frontend::disconnect`] teardowns: every session the connection
//!   opened is released at the disconnect's queue position, so nothing leaks and requests
//!   behind the disconnect observe exactly what a sequential replay would.
//!
//! Nondeterminism lives *only* in the transport (when bytes arrive, how they are chunked, when
//! peers vanish). The reactor is a deterministic function of the event sequence its transport
//! produces — which is why the whole server can run inside `cargo test` on
//! [`SimNet`](crate::SimNet), the seeded in-memory transport, and be replayed byte-identically
//! from a seed (`tests/sim_chaos.rs`). The same reactor serves real sockets
//! ([`PollTransport`]) and stdin/stdout ([`StdioTransport`]) in the `anosy-served` binary, always
//! as the shards of a [`crate::ReactorPool`] (one shard unless `--reactors` asks for more); the
//! response-level determinism guarantee (element-wise identical to sequential
//! [`anosy_core::AnosySession`] replay) is unchanged from the frontend because the reactor adds
//! no protocol semantics of its own.
//!
//! # Failure policy
//!
//! A connection's I/O error ([`Event::Failed`]) closes *that connection*: its partial input is
//! discarded, its sessions are torn down, the denial is logged ([`Server::io_log`]) and every
//! other connection keeps serving. One bad peer cannot take down the process.

use crate::proto::{ConnId, RequestId, ServeRequest, TaggedResponse};
use crate::wire::{self, DecodedFrame, DecodedLine, FrameDecoder, LineDecoder};
use crate::Frontend;
use anosy_core::SynthesizeInto;
use anosy_domains::AbstractDomain;
use anosy_logic::SecretLayout;
use anosy_synth::DomainCodec;
use anosy_telemetry::{self as telemetry, Clock, ClockHandle, Collector, Report, VirtualClock};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Identifies one transport-level (physical) connection. Distinct from [`ConnId`], the
/// protocol-level (logical) connection: a transport connection's bare lines ride the base id
/// `ConnId(token)` and it may claim more with `@conn` line prefixes. Transports mint tokens in
/// arrival order, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One thing a [`Transport`] observed. The reactor is a deterministic function of the event
/// sequence, so a transport that replays the same events replays the same serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A new connection. Its base [`ConnId`] is the token itself.
    Opened(Token),
    /// Bytes arrived on a connection — chunked however the transport happened to read them
    /// (partial lines, many lines coalesced; the line decoder reassembles).
    Data(Token, Vec<u8>),
    /// The read side reached a clean end of stream (EOF / FIN). The connection can still be
    /// written: the reactor interprets any trailing partial line, answers everything pending,
    /// then tears the connection down.
    HalfClosed(Token),
    /// The connection failed mid-stream (reset, read or write error). Nothing more can be
    /// delivered: buffered partial input is discarded and the connection is torn down; the
    /// reason lands in [`Server::io_log`].
    Failed(Token, String),
    /// A quiescence timer fired: tick now if work is pending. Transports without timers simply
    /// never emit this.
    TimerTick,
}

/// A source and sink of connection events — the only nondeterministic half of the server.
///
/// Implementations: [`PollTransport`] (real sockets), [`StdioTransport`] (the classic
/// stdin/stdout pipe as a single-connection transport) and [`SimNet`](crate::SimNet) (seeded
/// deterministic simulation for tests).
pub trait Transport {
    /// Blocks until something happens and returns the batch of events, in the order the
    /// transport commits to. An **empty batch means the transport is finished** — no connection
    /// is open and none can ever arrive — and stops the reactor.
    fn poll(&mut self) -> Vec<Event>;

    /// Queues response bytes for a connection, in order. Delivery is [`Transport::flush`]'s
    /// job; failures surface as a later [`Event::Failed`] for the connection, never as a
    /// process error. Unknown tokens are ignored.
    fn send(&mut self, token: Token, bytes: &[u8]);

    /// Writes out what [`Transport::send`] queued since the last flush. The reactor calls it
    /// once after each event it handles, so every response an event produced leaves together
    /// and no connection's replies wait behind another event's work. The default does nothing,
    /// for transports whose `send` already delivers ([`SimNet`](crate::SimNet)).
    fn flush(&mut self) {}

    /// Closes a connection after writing whatever [`Transport::send`] queued for it, flushed or
    /// not. Unknown tokens are ignored (the connection may have failed first).
    fn close(&mut self, token: Token);

    /// The clock the reactor should timestamp telemetry with. Real transports keep the
    /// monotonic default; deterministic transports ([`SimNet`](crate::SimNet),
    /// [`StdioTransport`]) hand out a [`VirtualClock`] driven by their own event schedule, so
    /// traces replay byte-identically. Called once at [`Server::new`] — a monotonic clock's
    /// origin is fixed at that call.
    fn clock(&self) -> ClockHandle {
        ClockHandle::monotonic()
    }
}

/// Default cap on entries retained by [`Server::io_log`] (a whole serving process's budget —
/// a [`crate::ReactorPool`] divides it across its shards so N reactors still expose at most
/// this many merged entries).
pub const IO_LOG_CAP: usize = 64;

/// Reactor configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// `false` (default): tick after every request line, like `anosy-served` without flags.
    /// `true`: accumulate and tick on blank lines, quiescence timers and connection teardown —
    /// `anosy-served --ticked`, so scripts control what one tick holds.
    pub ticked: bool,
    /// Byte cap handed to each connection's decoder: the longest text line, and the largest
    /// binary frame payload, a connection may send.
    pub max_line: usize,
    /// Record every submitted request and every produced response ([`Server::transcript`],
    /// [`Server::responses`]) — the oracle hook for the simulation tests. Off in production:
    /// requests are cloned when it is on.
    pub record_transcript: bool,
    /// `(shard, reactors)`: this server is reactor shard `shard` of a [`crate::ReactorPool`]
    /// of `reactors` (default: shard 0 of 1). `@conn` claims whose id hashes to another shard
    /// are refused — two shards must never bind the same logical id.
    pub shard: (u64, u64),
    /// Install a telemetry [`Collector`] for the duration of [`Server::run`] (spans, counters
    /// and latency histograms on this reactor's thread; harvest with
    /// [`Server::telemetry_report`]). On by default; a no-op when the `telemetry` cargo
    /// feature is off. The runtime toggle exists so the overhead of *recording* can be
    /// measured inside one build — `report_serve` benches both settings.
    pub telemetry: bool,
}

impl ServerConfig {
    /// Per-request ticks, default line cap, no recording, shard 0 of 1.
    pub fn new() -> ServerConfig {
        ServerConfig {
            ticked: false,
            max_line: wire::MAX_LINE_BYTES,
            record_transcript: false,
            shard: (0, 1),
            telemetry: true,
        }
    }

    /// Switches to blank-line/timer ticking (`--ticked`).
    pub fn ticked(mut self, ticked: bool) -> ServerConfig {
        self.ticked = ticked;
        self
    }

    /// Overrides the line-length cap.
    pub fn with_max_line(mut self, max_line: usize) -> ServerConfig {
        self.max_line = max_line;
        self
    }

    /// Enables request/response recording for oracle checks.
    pub fn recording(mut self) -> ServerConfig {
        self.record_transcript = true;
        self
    }

    /// Marks this server as reactor shard `shard` of `reactors` (see [`ServerConfig::shard`]).
    pub fn sharded(mut self, shard: u64, reactors: u64) -> ServerConfig {
        self.shard = (shard, reactors.max(1));
        self
    }

    /// Turns telemetry recording on or off for this server's [`Server::run`].
    pub fn with_telemetry(mut self, telemetry: bool) -> ServerConfig {
        self.telemetry = telemetry;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// Reactor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Transport connections opened.
    pub conns_opened: u64,
    /// Transport connections closed (both clean and failed).
    pub conns_closed: u64,
    /// Connections torn down by an I/O failure ([`Event::Failed`]).
    pub conn_failures: u64,
    /// Complete lines decoded (including comments, blanks and malformed lines).
    pub lines: u64,
    /// Lines that parsed into a request and were submitted.
    pub requests: u64,
    /// Lines answered with a `!` error instead of reaching the frontend (malformed requests,
    /// non-UTF-8 lines, overlong lines, bad `@conn` prefixes, corrupt/oversize frames).
    pub malformed: u64,
    /// Connections that negotiated the binary frame protocol (sent
    /// [`wire::BINARY_PREAMBLE`] as their first bytes).
    pub binary_conns: u64,
    /// Complete binary frames decoded (including corrupt, oversize and truncated ones —
    /// counted alongside [`ServerStats::lines`], never double-counted).
    pub frames: u64,
}

/// One recorded unit of the serve, in submission order — the sequential-replay oracle's input
/// (see `tests/sim_chaos.rs`). Only recorded under [`ServerConfig::recording`].
#[derive(Debug, Clone, PartialEq)]
pub enum TranscriptEvent {
    /// A request was submitted to the frontend.
    Request {
        /// Transport connection the line arrived on.
        token: Token,
        /// The id the frontend assigned (also tags the response).
        id: RequestId,
        /// The parsed request.
        request: ServeRequest,
    },
    /// A logical connection was reported gone; its sessions tear down at this position.
    Disconnect {
        /// Transport connection that died.
        token: Token,
        /// The logical connection being torn down.
        conn: ConnId,
    },
}

/// One logged connection denial (an I/O failure downgraded to a connection close), tagged with
/// where and when it happened so a merged multi-reactor log keeps that context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoLogEntry {
    /// The reactor shard that observed the failure.
    pub shard: u64,
    /// When it happened, in the server clock's units ([`Transport::clock`]: microseconds on
    /// real transports, virtual time under the simulator).
    pub at: u64,
    /// The transport connection that failed.
    pub token: Token,
    /// The transport's reason (reset, read/write error, injected failure).
    pub reason: String,
}

impl fmt::Display for IoLogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[shard {} t={}] connection {} failed: {}",
            self.shard, self.at, self.token, self.reason
        )
    }
}

/// What one feed of a connection's decoder produced. Items within a batch are in wire order;
/// a connection is only ever one protocol, so batches never mix lines and frames.
enum DecodedBatch {
    /// Still sniffing the preamble — no complete item can exist yet.
    Pending,
    Lines(Vec<DecodedLine>),
    Frames(Vec<DecodedFrame>),
}

/// Per-connection protocol decoder. Every connection starts **sniffing** its first bytes
/// against [`wire::BINARY_PREAMBLE`]: a full match switches it to binary frames for the rest
/// of its life, the first divergent byte falls back to the line protocol with every sniffed
/// byte replayed — so text peers, smoke transcripts and `telnet` debugging behave exactly as
/// before, and a binary peer pays thirteen bytes once.
enum ConnDecoder {
    /// Undecided: the bytes seen so far are a strict prefix of the preamble.
    Sniffing(Vec<u8>),
    Line(LineDecoder),
    Binary(FrameDecoder),
}

impl ConnDecoder {
    /// Feeds a chunk, resolving the protocol if this chunk decides it. `max_item` caps both
    /// line length and frame payload length (one frame carries one protocol line).
    fn feed(&mut self, bytes: &[u8], max_item: usize) -> DecodedBatch {
        match self {
            ConnDecoder::Sniffing(seen) => {
                seen.extend_from_slice(bytes);
                let preamble = wire::BINARY_PREAMBLE;
                let probe = seen.len().min(preamble.len());
                if seen[..probe] != preamble[..probe] {
                    // Divergence: a text peer. Replay everything sniffed through a fresh
                    // line decoder.
                    let seen = std::mem::take(seen);
                    let mut decoder = LineDecoder::with_max_line(max_item);
                    let lines = decoder.feed(&seen);
                    *self = ConnDecoder::Line(decoder);
                    DecodedBatch::Lines(lines)
                } else if seen.len() >= preamble.len() {
                    // Full preamble: binary from here on; bytes after it are frame data.
                    let rest = seen.split_off(preamble.len());
                    let mut decoder = FrameDecoder::with_max_frame(max_item);
                    let frames = decoder.feed(&rest);
                    *self = ConnDecoder::Binary(decoder);
                    DecodedBatch::Frames(frames)
                } else {
                    DecodedBatch::Pending
                }
            }
            ConnDecoder::Line(decoder) => DecodedBatch::Lines(decoder.feed(bytes)),
            ConnDecoder::Binary(decoder) => DecodedBatch::Frames(decoder.feed(bytes)),
        }
    }

    /// Interprets a clean EOF: a sniffing connection's bytes were a (possibly empty) partial
    /// text line — no preamble ever arrived — and established protocols flush their own
    /// carry-over ([`LineDecoder::finish`] / [`FrameDecoder::finish`]).
    fn finish(&mut self, max_item: usize) -> DecodedBatch {
        match self {
            ConnDecoder::Sniffing(seen) => {
                let seen = std::mem::take(seen);
                let mut decoder = LineDecoder::with_max_line(max_item);
                let mut lines = decoder.feed(&seen);
                lines.extend(decoder.finish());
                *self = ConnDecoder::Line(decoder);
                DecodedBatch::Lines(lines)
            }
            ConnDecoder::Line(decoder) => {
                DecodedBatch::Lines(decoder.finish().into_iter().collect())
            }
            ConnDecoder::Binary(decoder) => {
                DecodedBatch::Frames(decoder.finish().into_iter().collect())
            }
        }
    }

    /// Drops buffered partial input (failure-path teardown).
    fn discard(&mut self) {
        match self {
            ConnDecoder::Sniffing(seen) => seen.clear(),
            ConnDecoder::Line(decoder) => decoder.discard(),
            ConnDecoder::Binary(decoder) => decoder.discard(),
        }
    }

    fn is_binary(&self) -> bool {
        matches!(self, ConnDecoder::Binary(_))
    }
}

/// Per-connection reactor state.
struct ConnState {
    decoder: ConnDecoder,
    /// Logical ids this connection owns (its base id, unless another connection claimed it
    /// first, plus every `@conn` it claimed first).
    logicals: BTreeSet<ConnId>,
}

/// The event-loop server (see the [module docs](self)).
pub struct Server<D: AbstractDomain, T: Transport> {
    frontend: Frontend<D>,
    transport: T,
    config: ServerConfig,
    layout: SecretLayout,
    conns: HashMap<Token, ConnState>,
    /// Logical id → transport connection that owns it (first use wins; unbound on teardown so a
    /// reconnecting peer can claim the id again).
    bound: BTreeMap<ConnId, Token>,
    /// Request id → transport connection to deliver the response to, plus the arrival
    /// timestamp (0 when telemetry is not recording) feeding the `request.latency` histogram.
    inflight: HashMap<RequestId, (Token, u64)>,
    stats: ServerStats,
    clock: ClockHandle,
    /// Query-name pool shared by every connection's request parsing: each distinct name is
    /// allocated once and every [`ServeRequest`] referencing it shares the `Arc<str>`.
    interner: wire::NameInterner,
    io_log: Vec<IoLogEntry>,
    transcript: Vec<TranscriptEvent>,
    responses: Vec<TaggedResponse>,
    telemetry: Option<Report>,
}

impl<D, T> Server<D, T>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
    T: Transport,
{
    /// Wraps a frontend and a transport into a reactor. The frontend may already be warm
    /// (warm-started deployment, pre-registered queries).
    pub fn new(frontend: Frontend<D>, transport: T, config: ServerConfig) -> Self {
        let layout = frontend.deployment().layout().clone();
        // Captured exactly once: a monotonic clock's origin is "now", so re-asking the
        // transport on every read would reset time to zero.
        let clock = transport.clock();
        Server {
            frontend,
            transport,
            config,
            layout,
            conns: HashMap::new(),
            bound: BTreeMap::new(),
            inflight: HashMap::new(),
            stats: ServerStats::default(),
            clock,
            interner: wire::NameInterner::new(),
            io_log: Vec::new(),
            transcript: Vec::new(),
            responses: Vec::new(),
            telemetry: None,
        }
    }

    /// Runs the event loop until the transport reports itself finished, then runs one final
    /// tick so queued work (ticked-mode stragglers, trailing teardowns) settles. The transport
    /// is flushed after every event.
    pub fn run(&mut self) {
        if self.config.telemetry {
            telemetry::install(Collector::new(self.clock.clone(), self.config.shard.0));
        }
        loop {
            let events = self.transport.poll();
            if events.is_empty() {
                break;
            }
            for event in events {
                self.on_event(event);
                self.transport.flush();
            }
        }
        self.tick_and_route();
        self.transport.flush();
        if self.config.telemetry {
            self.telemetry = telemetry::uninstall();
        }
    }

    fn on_event(&mut self, event: Event) {
        match event {
            Event::Opened(token) => self.on_opened(token),
            Event::Data(token, bytes) => self.on_data(token, &bytes),
            Event::HalfClosed(token) => self.on_half_closed(token),
            Event::Failed(token, reason) => self.on_failed(token, reason),
            Event::TimerTick => {
                // A quiescence timer only matters when work is actually pending; an idle tick
                // would just inflate the tick counter.
                if self.frontend.pending_requests() > 0 {
                    self.tick_and_route();
                }
            }
        }
    }

    fn on_opened(&mut self, token: Token) {
        // The base id is the token: tokens are minted in arrival order (globally, across a
        // pool's shards), so ids — and the connection-scoped session ids derived from them —
        // are invariant under the reactor count. An id some earlier socket already claimed
        // with `@conn` stays that socket's: this connection's bare lines then refuse like any
        // other foreign claim, and its teardown cannot take the owner's sessions with it.
        let base = ConnId(token.0);
        let mut logicals = BTreeSet::new();
        if let Entry::Vacant(slot) = self.bound.entry(base) {
            slot.insert(token);
            logicals.insert(base);
        }
        let decoder = ConnDecoder::Sniffing(Vec::new());
        self.conns.insert(token, ConnState { decoder, logicals });
        self.stats.conns_opened += 1;
    }

    fn on_data(&mut self, token: Token, bytes: &[u8]) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        telemetry::count("wire.bytes_in", bytes.len() as u64);
        let was_binary = state.decoder.is_binary();
        let batch = {
            let _span = telemetry::span("wire.decode");
            state.decoder.feed(bytes, self.config.max_line)
        };
        if !was_binary && state.decoder.is_binary() {
            self.stats.binary_conns += 1;
            telemetry::count("wire.binary_conns", 1);
        }
        self.on_batch(token, batch);
    }

    fn on_half_closed(&mut self, token: Token) {
        // A clean EOF mid-line still delivers the fragment as a final line (the
        // `BufRead::lines` convention the stdin transport always had); a mid-frame EOF is
        // unverifiable and refuses as truncated.
        if let Some(state) = self.conns.get_mut(&token) {
            let batch = state.decoder.finish(self.config.max_line);
            self.on_batch(token, batch);
        }
        self.teardown(token, true);
    }

    fn on_batch(&mut self, token: Token, batch: DecodedBatch) {
        match batch {
            DecodedBatch::Pending => {}
            DecodedBatch::Lines(lines) => {
                for item in lines {
                    self.on_decoded(token, item);
                }
            }
            DecodedBatch::Frames(frames) => {
                for frame in frames {
                    self.on_frame(token, frame);
                }
            }
        }
    }

    fn on_failed(&mut self, token: Token, reason: String) {
        if !self.conns.contains_key(&token) {
            return;
        }
        self.stats.conn_failures += 1;
        // The logged denial: one bad peer is an event, not a process failure. Logged to
        // stderr immediately — a forever-serving transport never returns from `run`.
        let entry = IoLogEntry { shard: self.config.shard.0, at: self.clock.now(), token, reason };
        eprintln!("{entry}");
        // This shard's share of the deployment-wide cap: older denials age out so a stream of
        // bad peers cannot grow memory, and the merged shard logs stay under the global cap.
        let reactors = (self.config.shard.1 as usize).max(1);
        let cap = (self.frontend.deployment().config().io_log_cap / reactors).max(1);
        if self.io_log.len() >= cap {
            self.io_log.remove(0);
        }
        self.io_log.push(entry);
        self.teardown(token, false);
    }

    /// Releases a transport connection: its partial input is discarded on failure (interpreted
    /// on clean EOF, which ran before this), its logical connections are reported to the
    /// frontend (sessions tear down at queue position), and one tick runs *before* the
    /// transport closes. On the graceful path that delivers the final responses to the peer's
    /// half-open write side; on the failure path the writes may go nowhere, but flushing keeps
    /// every accepted request answered before the connection's state is dropped — so what a
    /// connection observed is a function of its own request stream, not of which unrelated
    /// connection's tick happened to flush the queue first (the reactor-count-invariance
    /// property of [`crate::ReactorPool`] depends on this).
    fn teardown(&mut self, token: Token, graceful: bool) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        if !graceful {
            state.decoder.discard();
        }
        let logicals: Vec<ConnId> = state.logicals.iter().copied().collect();
        for logical in logicals {
            self.bound.remove(&logical);
            self.frontend.disconnect(logical);
            if self.config.record_transcript {
                self.transcript.push(TranscriptEvent::Disconnect { token, conn: logical });
            }
        }
        self.tick_and_route();
        self.transport.close(token);
        self.conns.remove(&token);
        self.stats.conns_closed += 1;
    }

    fn on_decoded(&mut self, token: Token, item: DecodedLine) {
        self.stats.lines += 1;
        telemetry::count("wire.lines", 1);
        let line = match item {
            DecodedLine::Line(line) => line,
            DecodedLine::NonUtf8 => {
                self.refuse_line(token, "non-UTF-8 input line".to_string());
                return;
            }
            DecodedLine::Overlong => {
                let cap = self.config.max_line;
                self.refuse_line(token, format!("line exceeds {cap} bytes"));
                return;
            }
        };
        self.on_line(token, &line);
    }

    /// One decoded binary frame: the payload is one protocol line (without terminator), so a
    /// good frame rejoins the shared line path; corrupt, oversize and truncated frames refuse
    /// as errors-as-data — the decoder itself never desyncs.
    fn on_frame(&mut self, token: Token, frame: DecodedFrame) {
        self.stats.frames += 1;
        telemetry::count("wire.frames", 1);
        match frame {
            DecodedFrame::Frame(payload) => match std::str::from_utf8(&payload) {
                Ok(line) => {
                    let line = line.to_string();
                    self.on_line(token, &line);
                }
                Err(_) => self.refuse_line(token, "non-UTF-8 frame payload".to_string()),
            },
            DecodedFrame::Corrupt => {
                self.refuse_line(token, "corrupt frame (checksum mismatch)".to_string());
            }
            DecodedFrame::Oversize => {
                let cap = self.config.max_line;
                self.refuse_line(token, format!("frame payload exceeds {cap} bytes"));
            }
            DecodedFrame::Truncated => {
                self.refuse_line(token, "truncated frame at end of stream".to_string());
            }
        }
    }

    /// One complete protocol line, however it arrived (text line or frame payload).
    fn on_line(&mut self, token: Token, line: &str) {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            return;
        }
        if trimmed.is_empty() {
            self.tick_and_route();
            return;
        }
        let (conn, request_text) = match trimmed.strip_prefix('@') {
            Some(rest) => match rest.split_once(char::is_whitespace) {
                Some((id, rest)) => match id.parse() {
                    Ok(id) => (ConnId(id), rest),
                    Err(_) => {
                        self.refuse_line(token, format!("bad connection id `{id}`"));
                        return;
                    }
                },
                None => {
                    self.refuse_line(token, format!("request missing after `@{rest}`"));
                    return;
                }
            },
            None => (ConnId(token.0), trimmed),
        };
        match wire::parse_request_interned(request_text, &self.layout, &mut self.interner) {
            Ok(request) => {
                // Cross-shard rule, mirroring the cross-socket one below: a logical id lives
                // on exactly the shard it hashes to. A claim for an id routed elsewhere is
                // refused outright — two shards binding the same id would entangle session
                // ownership across reactors.
                let (shard, reactors) = self.config.shard;
                if crate::reactor::shard_of(conn.0, reactors) != shard {
                    self.refuse_line(
                        token,
                        format!("connection {conn} belongs to another reactor shard"),
                    );
                    return;
                }
                // A logical id is claimed only by a line that actually parses — a malformed
                // line must not squat on an id another socket could legitimately use. First
                // (successful) use wins: letting a second transport connection speak for a
                // logical id would entangle session ownership across unrelated peers.
                match self.bound.get(&conn) {
                    Some(owner) if *owner != token => {
                        self.refuse_line(
                            token,
                            format!("connection {conn} is bound to another transport connection"),
                        );
                        return;
                    }
                    Some(_) => {}
                    None => {
                        self.bound.insert(conn, token);
                        if let Some(state) = self.conns.get_mut(&token) {
                            state.logicals.insert(conn);
                        }
                    }
                }
                let recorded = self.config.record_transcript.then(|| request.clone());
                // One collector round-trip: the wire counters plus the arrival stamp for the
                // request.latency histogram. No clock is read when nothing records.
                let at = telemetry::with_collector(|collector| {
                    collector.count("wire.requests", 1);
                    collector.observe("request.bytes", trimmed.len() as u64);
                    collector.now()
                })
                .unwrap_or(0);
                let id = self.frontend.submit(conn, request);
                self.inflight.insert(id, (token, at));
                self.stats.requests += 1;
                if let Some(request) = recorded {
                    self.transcript.push(TranscriptEvent::Request { token, id, request });
                }
                if !self.config.ticked {
                    self.tick_and_route();
                }
            }
            Err(e) => self.refuse_line(token, e.to_string()),
        }
    }

    /// Answers a line that never reached the frontend with an unnumbered `! <reason>` line
    /// (exactly the stdin transport's convention — malformed lines consume no sequence number).
    fn refuse_line(&mut self, token: Token, reason: String) {
        self.stats.malformed += 1;
        telemetry::count("wire.malformed", 1);
        self.send_line(token, &format!("! {reason}"));
    }

    /// Sends one response line (without terminator) in the connection's negotiated encoding:
    /// newline-terminated text on line connections, a checksummed frame on binary ones.
    /// Returns the byte count handed to the transport.
    fn send_line(&mut self, token: Token, text: &str) -> usize {
        let binary = self.conns.get(&token).is_some_and(|state| state.decoder.is_binary());
        if binary {
            let frame = wire::encode_frame(text.as_bytes());
            self.transport.send(token, &frame);
            frame.len()
        } else {
            let line = format!("{text}\n");
            self.transport.send(token, line.as_bytes());
            line.len()
        }
    }

    /// Runs one frontend tick and routes every tagged response back to the transport
    /// connection that submitted its request. Responses whose connection died in the meantime
    /// have nowhere to go and are dropped (after recording, when enabled).
    fn tick_and_route(&mut self) {
        let frontend = &self.frontend;
        let start = telemetry::with_collector(|collector| {
            collector.observe("tick.queue_depth", frontend.pending_requests() as u64);
            collector.now()
        });
        let responses = self.frontend.tick();
        if let Some(start) = start {
            telemetry::with_collector(|collector| {
                let elapsed = collector.now().saturating_sub(start);
                collector.observe("tick.latency", elapsed);
            });
        }
        let recording = start.is_some();
        for tagged in responses {
            if self.config.record_transcript {
                self.responses.push(tagged.clone());
            }
            let Some((token, at)) = self.inflight.remove(&tagged.request) else { continue };
            if self.conns.contains_key(&token) {
                let line =
                    format!("{} {}", tagged.request, wire::encode_response(&tagged.response));
                let sent = self.send_line(token, &line);
                if recording {
                    telemetry::with_collector(|collector| {
                        collector.observe("request.latency", collector.now().saturating_sub(at));
                        collector.observe("response.bytes", sent as u64);
                    });
                }
            }
        }
        // Journal housekeeping rides the tick boundary: the `on-tick` flush and the periodic
        // compaction both happen here, on the reactor thread (a no-op without a journal).
        self.frontend.deployment().journal_tick();
    }

    /// The frontend (sessions, stats, deployment) behind this server.
    pub fn frontend(&self) -> &Frontend<D> {
        &self.frontend
    }

    /// The transport (e.g. to read a [`SimNet`](crate::SimNet)'s delivered bytes after a run).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Reactor counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Logged per-connection denials (I/O failures downgraded to connection closes): the most
    /// recent ones, up to this shard's share of [`crate::ServeConfig::io_log_cap`] (divided by
    /// the reactor count of [`ServerConfig::shard`], at least one), each tagged with its reactor
    /// shard and a clock timestamp. Each is also written to stderr as it happens.
    pub fn io_log(&self) -> &[IoLogEntry] {
        &self.io_log
    }

    /// The telemetry this server's [`Server::run`] recorded: spans, counters and latency
    /// histograms. `None` before the run, when [`ServerConfig::telemetry`] was off, or when
    /// the `telemetry` cargo feature is compiled out.
    pub fn telemetry_report(&self) -> Option<&Report> {
        self.telemetry.as_ref()
    }

    /// Consumes the server and returns its frontend (a [`crate::ReactorPool`] folds shard
    /// frontends after the join).
    pub fn into_frontend(self) -> Frontend<D> {
        self.frontend
    }

    /// Submitted requests and teardowns in submission order (empty unless
    /// [`ServerConfig::recording`]).
    pub fn transcript(&self) -> &[TranscriptEvent] {
        &self.transcript
    }

    /// Every response the frontend produced, in order (empty unless
    /// [`ServerConfig::recording`]).
    pub fn responses(&self) -> &[TaggedResponse] {
        &self.responses
    }
}

impl<D: AbstractDomain, T: Transport> fmt::Debug for Server<D, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("conns", &self.conns.len())
            .field("bound", &self.bound.len())
            .field("inflight", &self.inflight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Stdio transport: the classic pipe as a single-connection transport.
// ---------------------------------------------------------------------------

/// Serves the wire protocol over stdin/stdout: one connection ([`Token`] 0, base [`ConnId`] 0)
/// that opens immediately and half-closes at EOF. `@conn` prefixes multiplex logical
/// connections exactly as before — this is the `anosy-served` default transport, now running on
/// the same reactor as the socket path.
///
/// [`Transport::send`] appends to a buffer; [`Transport::flush`] (and `close`) writes it to
/// stdout with one `write_all` and flushes, so every response one event produced goes out in
/// one write.
///
/// Its telemetry clock is a poll counter, not wall time: reading a script from a file produces
/// the same read sequence every run, so `anosy-served --trace` over piped stdin emits a
/// byte-identical trace on every replay.
#[derive(Debug, Default)]
pub struct StdioTransport {
    opened: bool,
    eof: bool,
    /// Responses queued since the last flush.
    out: Vec<u8>,
    /// A write failure (EPIPE once the reader vanished) recorded by [`Transport::flush`] and
    /// surfaced as one [`Event::Failed`] at the next poll — the per-connection close path
    /// every transport promises, never a process panic.
    failed: Option<String>,
    /// The failure has been delivered: the transport is finished and polls empty.
    dead: bool,
    clock: VirtualClock,
}

impl StdioTransport {
    /// A fresh stdin/stdout transport.
    pub fn new() -> StdioTransport {
        StdioTransport::default()
    }
}

impl Transport for StdioTransport {
    fn poll(&mut self) -> Vec<Event> {
        self.clock.advance(1);
        if self.dead {
            return Vec::new();
        }
        if let Some(reason) = self.failed.take() {
            self.dead = true;
            return vec![Event::Failed(Token(0), reason)];
        }
        if !self.opened {
            self.opened = true;
            return vec![Event::Opened(Token(0))];
        }
        if self.eof {
            return Vec::new();
        }
        let mut buf = [0u8; 8192];
        loop {
            match std::io::stdin().lock().read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    return vec![Event::HalfClosed(Token(0))];
                }
                Ok(n) => return vec![Event::Data(Token(0), buf[..n].to_vec())],
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // A dead stdin means the transport is gone: drain pending work and exit
                // cleanly, exactly as the pre-reactor binary did.
                Err(_) => {
                    self.eof = true;
                    return vec![Event::HalfClosed(Token(0))];
                }
            }
        }
    }

    fn send(&mut self, _token: Token, bytes: &[u8]) {
        if self.failed.is_some() || self.dead {
            return;
        }
        self.out.extend_from_slice(bytes);
    }

    fn flush(&mut self) {
        if self.out.is_empty() {
            return;
        }
        telemetry::count("wire.writes", 1);
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = stdout.write_all(&self.out).and_then(|()| stdout.flush()) {
            // A closed pipe is the *peer's* failure: record it for the next poll so the
            // reactor tears the connection down through its normal failure path instead of
            // panicking the whole process mid-serve.
            self.failed = Some(format!("stdout write failed: {e}"));
        }
        self.out.clear();
    }

    fn close(&mut self, _token: Token) {
        self.flush();
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Virtual(self.clock.clone())
    }
}

// ---------------------------------------------------------------------------
// Poll transport: readiness-based (epoll) TCP, with the sleep loop as fallback.
// ---------------------------------------------------------------------------

/// How long a [`PollTransport`] close keeps retrying to flush a closing connection's queued
/// responses before giving up on the peer.
const CLOSE_FLUSH_BUDGET: Duration = Duration::from_secs(2);

/// How long the fallback scan sleeps when nothing is readable (without epoll there is no
/// portable readiness API, so every socket is polled; half a millisecond keeps idle CPU
/// negligible without hurting request latency at serving scale).
const POLL_IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Epoll tag of the listening socket (never a connection token).
const TAG_LISTENER: u64 = u64::MAX;
/// Epoll tag of the reactor-pool handoff notifier.
const TAG_NOTIFY: u64 = u64::MAX - 1;
/// Longest a readiness wait may park while draining (closing) connections hold queued bytes —
/// their flush progress and deadlines are checked at least this often.
const DRAIN_WAIT: Duration = Duration::from_millis(10);

/// The raw descriptor epoll registration needs. Only ever called when an [`epoll::Epoll`] was
/// actually created, which [`epoll::Epoll::is_supported`] guarantees implies a Unix target.
#[cfg(unix)]
fn raw_fd<T: std::os::fd::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_io: &T) -> i32 {
    -1
}

/// Where a [`PollTransport`]'s connections come from.
enum Intake {
    /// The lone shard of a one-reactor pool: accept from an owned listener, minting tokens
    /// locally in arrival order.
    Listener { listener: TcpListener, next_token: u64, budget: Option<usize>, accepted: usize },
    /// One shard of a multi-reactor [`crate::ReactorPool`]: the pool's acceptor thread accepts,
    /// mints tokens globally and hands each stream to the shard its token hashes to. The paired
    /// `notify` stream carries one byte per handoff so an epoll wait wakes for channel traffic
    /// too.
    Channel { handoffs: Receiver<(u64, TcpStream)>, notify: TcpStream, done: bool },
}

struct TcpConn {
    stream: TcpStream,
    /// Responses queued by [`Transport::send`] and not yet accepted by the kernel (nonblocking
    /// writes are partial by design).
    out: Vec<u8>,
    read_eof: bool,
    /// `Some(deadline)` once the reactor asked for a close: the connection only lingers to
    /// drain `out`, is never read again, and is dropped when drained or at the deadline —
    /// inside the normal poll loop, so a peer that stopped reading cannot stall the reactor.
    closing: Option<Instant>,
}

impl TcpConn {
    fn new(stream: TcpStream) -> TcpConn {
        TcpConn { stream, out: Vec::new(), read_eof: false, closing: None }
    }
}

/// Writes as much of the connection's queued output as the kernel accepts right now, counting
/// each `write` call as `wire.writes`.
fn flush_some(conn: &mut TcpConn) -> Result<(), String> {
    while !conn.out.is_empty() {
        telemetry::count("wire.writes", 1);
        match conn.stream.write(&conn.out) {
            Ok(0) => return Err("write error: connection closed".to_string()),
            Ok(n) => {
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("write error: {e}")),
        }
    }
    Ok(())
}

/// A readiness-based, std-only nonblocking TCP transport: `accept` becomes [`Event::Opened`],
/// readable bytes become [`Event::Data`], a peer's FIN becomes [`Event::HalfClosed`]
/// (half-closed peers still receive their final responses), and read/write errors become
/// per-connection [`Event::Failed`] — never process failures. [`Transport::send`] only appends
/// to the connection's queue; [`Transport::flush`] writes each connection that queued bytes
/// since the last flush once, so the responses one event produced share one `write`. A write
/// the kernel takes only in part leaves the rest queued under `EPOLLOUT` interest, drained by
/// later polls. It parks in `epoll_wait` (via the in-tree raw-syscall `epoll` shim) and then
/// services only the connections the kernel reported ready. Where epoll is unavailable —
/// unsupported platform, or any registration error at runtime — it degrades to scanning every
/// socket with a `POLL_IDLE_SLEEP` pause between scans, so behavior is identical and only idle
/// latency differs.
pub struct PollTransport {
    intake: Intake,
    conns: BTreeMap<u64, TcpConn>,
    tick_interval: Option<Duration>,
    last_activity: Instant,
    /// Failures noticed during [`Transport::flush`], surfaced at the next poll.
    pending: Vec<Event>,
    /// Connections whose queue went from empty to non-empty since the last
    /// [`Transport::flush`]. A connection whose queue was already non-empty is not listed:
    /// either it is listed already or it waits for `EPOLLOUT`, and the poll loop drains it.
    dirty: Vec<u64>,
    epoll: Option<epoll::Epoll>,
    /// Interest bits currently registered per token (epoll mode only).
    interest: HashMap<u64, u32>,
}

/// The readiness bits a connection currently cares about.
fn want_interest(conn: &TcpConn) -> u32 {
    let mut want = 0;
    if !conn.read_eof && conn.closing.is_none() {
        want |= epoll::EPOLLIN | epoll::EPOLLRDHUP;
    }
    if !conn.out.is_empty() {
        want |= epoll::EPOLLOUT;
    }
    want
}

impl PollTransport {
    /// Serves `listener` directly: accepts up to `accept_budget` connections (`None`: forever,
    /// `--accept N`), emitting [`Event::TimerTick`] after `tick_interval` of idleness
    /// (`--tick-ms`). The transport finishes once the budget is spent and every connection has
    /// closed.
    ///
    /// # Errors
    ///
    /// Propagates the error of switching the listener to nonblocking mode.
    pub fn listen(
        listener: TcpListener,
        accept_budget: Option<usize>,
        tick_interval: Option<Duration>,
    ) -> std::io::Result<PollTransport> {
        listener.set_nonblocking(true)?;
        let epoll = epoll::Epoll::new()
            .ok()
            .filter(|ep| ep.add(raw_fd(&listener), epoll::EPOLLIN, TAG_LISTENER).is_ok());
        let intake =
            Intake::Listener { listener, next_token: 0, budget: accept_budget, accepted: 0 };
        Ok(PollTransport::with_intake(intake, epoll, tick_interval))
    }

    /// A reactor-pool shard transport: connections arrive pre-accepted over `handoffs` as
    /// `(global token, stream)` pairs, and `notify` receives one byte per handoff (the pool's
    /// acceptor holds the write end) so a parked epoll wait wakes for them. The transport
    /// finishes when the channel disconnects (acceptor done) and every connection has closed.
    pub fn intake(
        handoffs: Receiver<(u64, TcpStream)>,
        notify: TcpStream,
        tick_interval: Option<Duration>,
    ) -> PollTransport {
        let _ = notify.set_nonblocking(true);
        let epoll = epoll::Epoll::new()
            .ok()
            .filter(|ep| ep.add(raw_fd(&notify), epoll::EPOLLIN, TAG_NOTIFY).is_ok());
        let intake = Intake::Channel { handoffs, notify, done: false };
        PollTransport::with_intake(intake, epoll, tick_interval)
    }

    fn with_intake(
        intake: Intake,
        epoll: Option<epoll::Epoll>,
        tick_interval: Option<Duration>,
    ) -> PollTransport {
        PollTransport {
            intake,
            conns: BTreeMap::new(),
            tick_interval,
            last_activity: Instant::now(),
            pending: Vec::new(),
            dirty: Vec::new(),
            epoll,
            interest: HashMap::new(),
        }
    }

    /// Whether readiness waits actually ride epoll (`false`: the portable sleep fallback).
    pub fn uses_epoll(&self) -> bool {
        self.epoll.is_some()
    }

    fn accepting(&self) -> bool {
        match &self.intake {
            Intake::Listener { budget, accepted, .. } => match budget {
                Some(budget) => accepted < budget,
                None => true,
            },
            Intake::Channel { done, .. } => !done,
        }
    }

    /// Drops epoll entirely: a registration failed, so readiness reports can no longer be
    /// trusted to cover every connection. The sleep-scan fallback is always correct.
    fn degrade(&mut self) {
        self.epoll = None;
        self.interest.clear();
    }

    fn register(&mut self, token: u64) {
        if self.epoll.is_none() {
            return;
        }
        let Some(conn) = self.conns.get(&token) else { return };
        let want = want_interest(conn);
        let added = self
            .epoll
            .as_ref()
            .expect("checked above")
            .add(raw_fd(&conn.stream), want, token)
            .is_ok();
        if added {
            self.interest.insert(token, want);
        } else {
            self.degrade();
        }
    }

    fn update_interest(&mut self, token: u64) {
        if self.epoll.is_none() {
            return;
        }
        let Some(conn) = self.conns.get(&token) else { return };
        let want = want_interest(conn);
        if self.interest.get(&token) == Some(&want) {
            return;
        }
        let modified = self
            .epoll
            .as_ref()
            .expect("checked above")
            .modify(raw_fd(&conn.stream), want, token)
            .is_ok();
        if modified {
            self.interest.insert(token, want);
        } else {
            self.degrade();
        }
    }

    /// Removes a connection. Deregistration is best-effort: dropping the stream closes the
    /// descriptor, which removes any leftover epoll registration kernel-side.
    fn drop_conn(&mut self, token: u64, shutdown: bool) {
        if let (Some(ep), Some(conn)) = (&self.epoll, self.conns.get(&token)) {
            let _ = ep.delete(raw_fd(&conn.stream));
        }
        self.interest.remove(&token);
        if let Some(conn) = self.conns.remove(&token) {
            if shutdown {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Takes in new connections: accepts from the listener, or drains the pool handoff
    /// channel (and its notify bytes).
    fn poll_intake(&mut self, events: &mut Vec<Event>) {
        let mut opened: Vec<u64> = Vec::new();
        match &mut self.intake {
            Intake::Listener { listener, next_token, budget, accepted } => loop {
                match *budget {
                    Some(b) if *accepted >= b => break,
                    _ => {}
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let token = *next_token;
                        *next_token += 1;
                        *accepted += 1;
                        self.conns.insert(token, TcpConn::new(stream));
                        opened.push(token);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // A broken listener: stop accepting, keep serving what is open.
                    Err(_) => {
                        *budget = Some(*accepted);
                        break;
                    }
                }
            },
            Intake::Channel { handoffs, notify, done } => {
                // Swallow the wake-up bytes; the channel itself is the source of truth. An
                // EOF or error here means the acceptor is gone — the channel disconnect
                // below reports the same thing, so nothing extra to do.
                let mut sink = [0u8; 256];
                while let Ok(n) = notify.read(&mut sink) {
                    if n == 0 {
                        break;
                    }
                }
                loop {
                    match handoffs.try_recv() {
                        Ok((token, stream)) => {
                            let _ = stream.set_nonblocking(true);
                            self.conns.insert(token, TcpConn::new(stream));
                            opened.push(token);
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            *done = true;
                            break;
                        }
                    }
                }
            }
        }
        for token in opened {
            self.register(token);
            events.push(Event::Opened(Token(token)));
        }
    }

    /// Flushes, retires and reads connections — all of them (`None`, the fallback scan) or
    /// just the ones a readiness wait reported (`Some`).
    fn poll_conns(&mut self, events: &mut Vec<Event>, only: Option<&[u64]>) {
        enum Outcome {
            Keep,
            Retire,
            Fail(String),
        }
        let tokens: Vec<u64> = match only {
            Some(ready) => {
                let mut tokens: Vec<u64> =
                    ready.iter().copied().filter(|t| self.conns.contains_key(t)).collect();
                // Kernel report order is not deterministic; token order is.
                tokens.sort_unstable();
                tokens.dedup();
                tokens
            }
            None => self.conns.keys().copied().collect(),
        };
        for token in tokens {
            let outcome = {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                let flushed = flush_some(conn);
                if let Some(deadline) = conn.closing {
                    // Draining close: the reactor already considers the connection gone, so
                    // drained, errored and expired connections retire without an event.
                    if flushed.is_err() || conn.out.is_empty() || Instant::now() >= deadline {
                        Outcome::Retire
                    } else {
                        Outcome::Keep
                    }
                } else if let Err(reason) = flushed {
                    Outcome::Fail(reason)
                } else if conn.read_eof {
                    Outcome::Keep
                } else {
                    let mut buf = [0u8; 65536];
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.read_eof = true;
                            events.push(Event::HalfClosed(Token(token)));
                            Outcome::Keep
                        }
                        Ok(n) => {
                            events.push(Event::Data(Token(token), buf[..n].to_vec()));
                            Outcome::Keep
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => Outcome::Keep,
                        Err(e) if e.kind() == ErrorKind::Interrupted => Outcome::Keep,
                        Err(e) => Outcome::Fail(format!("read error: {e}")),
                    }
                }
            };
            match outcome {
                Outcome::Keep => self.update_interest(token),
                Outcome::Retire => self.drop_conn(token, true),
                Outcome::Fail(reason) => {
                    self.drop_conn(token, false);
                    events.push(Event::Failed(Token(token), reason));
                }
            }
        }
    }

    /// Upper bound for one readiness wait: the quiescence timer's remaining slice, tightened
    /// to [`DRAIN_WAIT`] while draining connections need their deadlines checked. `-1` (block
    /// until readiness) when neither applies.
    fn wait_timeout_ms(&self) -> i32 {
        let mut timeout: i64 = -1;
        if let Some(interval) = self.tick_interval {
            let remaining = interval.saturating_sub(self.last_activity.elapsed());
            timeout = (remaining.as_millis() as i64).max(1);
        }
        if self.conns.values().any(|c| c.closing.is_some()) {
            let drain = DRAIN_WAIT.as_millis() as i64;
            timeout = if timeout < 0 { drain } else { timeout.min(drain) };
        }
        timeout.min(i32::MAX as i64) as i32
    }

    /// Parks until something is ready. Returns the connection tokens the kernel reported
    /// (`Some`, possibly empty on timeout — intake tags are handled by the caller's next
    /// intake pass), or `None` in fallback mode (scan everything).
    fn wait_ready(&mut self) -> Option<Vec<u64>> {
        let Some(ep) = &self.epoll else {
            std::thread::sleep(POLL_IDLE_SLEEP);
            return None;
        };
        let mut buf = [epoll::EpollEvent::default(); 64];
        match ep.wait(self.wait_timeout_ms(), &mut buf) {
            Ok(n) => Some(
                buf[..n]
                    .iter()
                    .map(|event| event.data)
                    .filter(|data| *data != TAG_LISTENER && *data != TAG_NOTIFY)
                    .collect(),
            ),
            Err(_) => {
                self.degrade();
                None
            }
        }
    }
}

impl Transport for PollTransport {
    fn poll(&mut self) -> Vec<Event> {
        // The first pass scans everything: flush-time failures and bytes that arrived while
        // the reactor was busy must not wait for a readiness report.
        let mut ready: Option<Vec<u64>> = None;
        loop {
            let mut events = std::mem::take(&mut self.pending);
            self.poll_intake(&mut events);
            self.poll_conns(&mut events, ready.as_deref());
            if !events.is_empty() {
                self.last_activity = Instant::now();
                return events;
            }
            if !self.accepting() && self.conns.is_empty() {
                return Vec::new();
            }
            if let Some(interval) = self.tick_interval {
                if self.last_activity.elapsed() >= interval {
                    self.last_activity = Instant::now();
                    return vec![Event::TimerTick];
                }
            }
            ready = self.wait_ready();
        }
    }

    fn send(&mut self, token: Token, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(&token.0) else { return };
        if conn.out.is_empty() {
            self.dirty.push(token.0);
        }
        conn.out.extend_from_slice(bytes);
    }

    fn flush(&mut self) {
        for token in std::mem::take(&mut self.dirty) {
            // Closing connections drain in the poll loop; failed ones are already gone.
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            if conn.closing.is_some() {
                continue;
            }
            match flush_some(conn) {
                Ok(()) => self.update_interest(token),
                Err(reason) => {
                    self.drop_conn(token, false);
                    self.pending.push(Event::Failed(Token(token), reason));
                }
            }
        }
    }

    fn close(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token.0) else { return };
        // Best-effort flush of the final responses before the FIN. If the kernel takes it all
        // now, the connection drops immediately; otherwise it lingers in draining state and
        // the poll loop keeps flushing — without ever blocking the reactor — until empty or
        // the budget runs out (a peer that stopped reading forfeits its tail).
        let flushed = flush_some(conn);
        if flushed.is_err() || conn.out.is_empty() {
            self.drop_conn(token.0, true);
            return;
        }
        conn.closing = Some(Instant::now() + CLOSE_FLUSH_BUDGET);
        self.update_interest(token.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deployment, ServeConfig};
    use anosy_domains::IntervalDomain;
    use anosy_logic::SecretLayout;

    /// Hands the reactor one scripted batch of events, then reports itself finished.
    struct Scripted(Option<Vec<Event>>);

    impl Transport for Scripted {
        fn poll(&mut self) -> Vec<Event> {
            self.0.take().unwrap_or_default()
        }
        fn send(&mut self, _: Token, _: &[u8]) {}
        fn close(&mut self, _: Token) {}
    }

    /// Runs `failures` connections that open and fail on shard 0 of `reactors`, under a
    /// deployment-wide io-log cap of `cap`, and returns the tokens the log kept.
    fn logged_tokens(cap: usize, reactors: u64, failures: u64) -> Vec<u64> {
        let layout = SecretLayout::builder().field("x", 0, 400).build();
        let deployment: Deployment<IntervalDomain> =
            Deployment::new(layout, ServeConfig::for_tests().with_io_log_cap(cap));
        let events = (0..failures)
            .flat_map(|t| [Event::Opened(Token(t)), Event::Failed(Token(t), format!("reset {t}"))])
            .collect();
        let config = ServerConfig::new().sharded(0, reactors).with_telemetry(false);
        let mut server = Server::new(Frontend::new(deployment), Scripted(Some(events)), config);
        server.run();
        server.io_log().iter().map(|entry| entry.token.0).collect()
    }

    #[test]
    fn each_shard_keeps_its_share_of_the_deployment_io_log_cap() {
        assert_eq!(
            logged_tokens(8, 1, 10),
            (2..10).collect::<Vec<_>>(),
            "one shard: the whole cap"
        );
        assert_eq!(logged_tokens(8, 4, 10), vec![8, 9], "four shards: a quarter each");
        assert_eq!(logged_tokens(2, 4, 10), vec![9], "a share never drops below one entry");
    }
}

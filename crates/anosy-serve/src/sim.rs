//! `SimNet`: a seeded, in-memory simulated network — the deterministic test transport for the
//! event-loop [`Server`](crate::Server).
//!
//! The transport is where nondeterminism enters a real deployment: bytes arrive in arbitrary
//! chunks, writes coalesce, peers vanish mid-line, connections interleave. `SimNet` reproduces
//! all of that inside `cargo test`, driven entirely by a seed:
//!
//! * **scripted or RNG-driven connects** — tests schedule clients at virtual times (or derive
//!   times/counts from [`SimNet::rng`], the same seeded stream);
//! * **byte-level chunking and coalescing** — a client "write" is split at random byte
//!   boundaries, and chunks landing at the same virtual instant are coalesced back into one
//!   read, so the server's line decoder sees every framing a kernel could produce;
//! * **delayed delivery and cross-connection reordering** — each chunk draws a random latency;
//!   order *within* one connection is preserved (TCP's guarantee) while deliveries *across*
//!   connections interleave freely;
//! * **disconnects** — clean half-closes ([`Event::HalfClosed`]), abortive resets and injected
//!   I/O errors (both [`Event::Failed`]).
//!
//! Everything is a pure function of the script and the seed: the event schedule is a
//! `BTreeMap` keyed by `(virtual time, sequence number)` and the RNG is the workspace's
//! deterministic `StdRng`, so a scenario **replays byte-identically from its seed** — the
//! property `tests/sim_chaos.rs` asserts before comparing the server against the sequential
//! oracle.

use crate::server::{Event, IoLogEntry, Token, Transport};
use anosy_telemetry::{ClockHandle, VirtualClock};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Default upper bound on one delivered chunk, in bytes.
const DEFAULT_MAX_CHUNK: usize = 17;

/// Default upper bound on one chunk's extra latency, in virtual time units.
const DEFAULT_MAX_DELAY: u64 = 5;

/// What the simulated network delivers to the server at a scheduled instant.
#[derive(Debug, Clone)]
enum Scheduled {
    Open(Token),
    Chunk(Token, Vec<u8>),
    HalfClose(Token),
    Fail(Token, String),
}

/// Client-side bookkeeping for one simulated connection.
#[derive(Debug, Default)]
struct Client {
    /// Virtual time of the last scheduled delivery — per-connection FIFO floor.
    ready_at: u64,
    /// Bytes the server sent back (readable after the run via [`SimNet::received`]).
    received: Vec<u8>,
    /// The server closed this connection; later sends are dropped on the floor, like writes
    /// to a dead socket. Scripted resets do *not* set this — the cut-off point of an aborted
    /// client's stream is the server's own close after its teardown flush, which keeps the
    /// recorded stream deterministic under connection sharding.
    closed: bool,
}

/// The seeded in-memory transport (see the [module docs](self)).
#[derive(Debug)]
pub struct SimNet {
    seed: u64,
    rng: StdRng,
    max_chunk: usize,
    max_delay: u64,
    schedule: BTreeMap<(u64, u64), Scheduled>,
    next_seq: u64,
    next_token: u64,
    clients: HashMap<Token, Client>,
    /// The simulator's virtual time, exported to the server's telemetry via
    /// [`Transport::clock`]: [`SimNet::poll`] stamps it with each delivered batch's scheduled
    /// instant, so spans recorded under the simulator are a pure function of the seed.
    clock: VirtualClock,
    /// Every connection failure the server handed to [`Transport::log_failure`], in order.
    failures: Vec<IoLogEntry>,
}

impl SimNet {
    /// An empty simulated network deriving all randomness from `seed`.
    pub fn new(seed: u64) -> SimNet {
        SimNet {
            seed,
            rng: StdRng::seed_from_u64(seed),
            max_chunk: DEFAULT_MAX_CHUNK,
            max_delay: DEFAULT_MAX_DELAY,
            schedule: BTreeMap::new(),
            next_seq: 0,
            next_token: 0,
            clients: HashMap::new(),
            clock: VirtualClock::new(),
            failures: Vec::new(),
        }
    }

    /// Overrides the chunking bound (1 = strictly byte-at-a-time delivery).
    pub fn with_max_chunk(mut self, max_chunk: usize) -> SimNet {
        self.max_chunk = max_chunk.max(1);
        self
    }

    /// Overrides the per-chunk latency bound (0 = no delays, so writes deliver in script
    /// order and chunks of one write coalesce back into one read).
    pub fn with_max_delay(mut self, max_delay: u64) -> SimNet {
        self.max_delay = max_delay;
        self
    }

    /// The seed this network was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seeded random stream, for RNG-driven scripts (client counts, times, payload picks)
    /// that must replay with the scenario.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn push(&mut self, at: u64, event: Scheduled) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule.insert((at, seq), event);
    }

    /// Schedules a client connecting at virtual time `at`; returns the connection's [`Token`].
    pub fn connect(&mut self, at: u64) -> Token {
        let token = Token(self.next_token);
        self.next_token += 1;
        self.clients.insert(token, Client { ready_at: at, ..Client::default() });
        self.push(at, Scheduled::Open(token));
        token
    }

    /// Schedules a client write at virtual time `at` (no earlier than the client's previous
    /// delivery — per-connection FIFO). The payload is split into random chunks, each with a
    /// random extra latency, so it arrives at the server in every framing a real socket could
    /// produce while other connections' deliveries interleave in between.
    pub fn send(&mut self, client: Token, at: u64, payload: impl AsRef<[u8]>) {
        let payload = payload.as_ref();
        let mut t = self.floor(client, at);
        let mut offset = 0;
        while offset < payload.len() {
            let remaining = payload.len() - offset;
            let len = self.rng.gen_range(1..=self.max_chunk.min(remaining));
            t += self.rng.gen_range(0..=self.max_delay);
            self.push(t, Scheduled::Chunk(client, payload[offset..offset + len].to_vec()));
            offset += len;
        }
        self.bump(client, t);
    }

    /// Schedules a clean half-close (FIN after the last write): the server interprets any
    /// trailing partial line, answers, and tears the connection down.
    pub fn half_close(&mut self, client: Token, at: u64) {
        let t = self.floor(client, at);
        self.push(t, Scheduled::HalfClose(client));
        self.bump(client, t);
    }

    /// Schedules an abortive reset: buffered partial input must be discarded. The recorded
    /// stream cuts off when the *server* closes the connection in response (after its
    /// teardown flush), so what an aborted client observed is a deterministic function of the
    /// requests the server accepted — not of how unrelated connections' ticks interleaved.
    pub fn abort(&mut self, client: Token, at: u64) {
        self.io_error(client, at, "connection reset by peer (simulated)");
    }

    /// Schedules an injected per-connection I/O error with a custom reason (the
    /// one-bad-peer-must-not-kill-the-process regression hook).
    pub fn io_error(&mut self, client: Token, at: u64, reason: &str) {
        let t = self.floor(client, at);
        self.push(t, Scheduled::Fail(client, reason.to_string()));
        self.bump(client, t);
    }

    /// Bytes the server delivered to `client` (empty for unknown tokens).
    pub fn received(&self, client: Token) -> &[u8] {
        self.clients.get(&client).map(|c| c.received.as_slice()).unwrap_or(&[])
    }

    /// The delivered bytes as text (the wire protocol is line-oriented UTF-8).
    pub fn received_text(&self, client: Token) -> String {
        String::from_utf8_lossy(self.received(client)).into_owned()
    }

    /// The delivered bytes decoded as binary frames and re-joined into `\n`-terminated lines —
    /// the binary-protocol counterpart of [`SimNet::received_text`], so framed and line runs of
    /// the same script compare textually. Decode trouble is reported in-band as marker lines
    /// (`<corrupt frame>`, `<oversize frame>`, `<truncated frame>`) rather than panicking: a
    /// healthy server never produces any of them, and a diff against the line-protocol
    /// transcript surfaces them loudly.
    pub fn received_frame_text(&self, client: Token) -> String {
        let mut decoder = crate::wire::FrameDecoder::new();
        let mut out = String::new();
        let render = |frame: crate::wire::DecodedFrame, out: &mut String| match frame {
            crate::wire::DecodedFrame::Frame(payload) => {
                out.push_str(&String::from_utf8_lossy(&payload));
                out.push('\n');
            }
            crate::wire::DecodedFrame::Corrupt => out.push_str("<corrupt frame>\n"),
            crate::wire::DecodedFrame::Oversize => out.push_str("<oversize frame>\n"),
            crate::wire::DecodedFrame::Truncated => out.push_str("<truncated frame>\n"),
        };
        for frame in decoder.feed(self.received(client)) {
            render(frame, &mut out);
        }
        if let Some(frame) = decoder.finish() {
            render(frame, &mut out);
        }
        out
    }

    /// The connection failures the server logged on this net ([`Transport::log_failure`]), in
    /// the order they happened, each tagged with its shard and virtual time.
    pub fn failures(&self) -> &[IoLogEntry] {
        &self.failures
    }

    fn floor(&self, client: Token, at: u64) -> u64 {
        at.max(self.clients.get(&client).map(|c| c.ready_at).unwrap_or(0))
    }

    fn bump(&mut self, client: Token, t: u64) {
        if let Some(c) = self.clients.get_mut(&client) {
            c.ready_at = t;
        }
    }

    /// Splits a fully-scripted schedule into one `SimNet` per reactor shard, exactly as a
    /// [`crate::ReactorPool`] acceptor would have routed the same arrivals: every event lands
    /// on shard [`crate::reactor::shard_of`]`(token, shards)`. `(time, seq)` keys are
    /// preserved, so each shard delivers its slice of the traffic in the same relative order
    /// the unsplit net would have — the transport-level half of the reactor-count-invariance
    /// argument (`tests/multi_reactor.rs`).
    ///
    /// Call this after scripting is complete: the shards get fresh RNGs, so chunking decisions
    /// already made are preserved but new scripting on a shard will not replay the original
    /// stream. Server output lands in the owning shard's client (query it with `received` on
    /// the shard the token hashes to).
    pub fn split(self, shards: u64) -> Vec<SimNet> {
        let shards = shards.max(1);
        let mut nets: Vec<SimNet> = (0..shards)
            .map(|_| SimNet {
                seed: self.seed,
                rng: StdRng::seed_from_u64(self.seed),
                max_chunk: self.max_chunk,
                max_delay: self.max_delay,
                schedule: BTreeMap::new(),
                next_seq: self.next_seq,
                next_token: self.next_token,
                clients: HashMap::new(),
                clock: VirtualClock::new(),
                failures: Vec::new(),
            })
            .collect();
        for ((time, seq), event) in self.schedule {
            let (Scheduled::Open(token)
            | Scheduled::Chunk(token, _)
            | Scheduled::HalfClose(token)
            | Scheduled::Fail(token, _)) = &event;
            let shard = crate::reactor::shard_of(token.0, shards) as usize;
            nets[shard].schedule.insert((time, seq), event);
        }
        for (token, client) in self.clients {
            let shard = crate::reactor::shard_of(token.0, shards) as usize;
            nets[shard].clients.insert(token, client);
        }
        nets
    }
}

impl Transport for SimNet {
    /// Delivers everything scheduled for the next occupied virtual instant, coalescing
    /// same-connection chunks that land together into one read (write coalescing).
    fn poll(&mut self) -> Vec<Event> {
        let Some((&(time, _), _)) = self.schedule.iter().next() else { return Vec::new() };
        self.clock.set(time);
        let due: Vec<(u64, u64)> =
            self.schedule.range((time, 0)..=(time, u64::MAX)).map(|(&k, _)| k).collect();
        let mut events: Vec<Event> = Vec::new();
        for key in due {
            let Some(scheduled) = self.schedule.remove(&key) else { continue };
            match scheduled {
                Scheduled::Open(token) => events.push(Event::Opened(token)),
                Scheduled::Chunk(token, bytes) => match events.last_mut() {
                    Some(Event::Data(last, buffer)) if *last == token => {
                        buffer.extend_from_slice(&bytes);
                    }
                    _ => events.push(Event::Data(token, bytes)),
                },
                Scheduled::HalfClose(token) => events.push(Event::HalfClosed(token)),
                Scheduled::Fail(token, reason) => events.push(Event::Failed(token, reason)),
            }
        }
        events
    }

    fn send(&mut self, token: Token, bytes: &[u8]) {
        if let Some(client) = self.clients.get_mut(&token) {
            if !client.closed {
                client.received.extend_from_slice(bytes);
            }
        }
    }

    fn close(&mut self, token: Token) {
        if let Some(client) = self.clients.get_mut(&token) {
            client.closed = true;
        }
    }

    /// Scripted failures are kept ([`SimNet::failures`]), never printed.
    fn log_failure(&mut self, entry: &IoLogEntry) {
        self.failures.push(entry.clone());
    }

    fn clock(&self) -> ClockHandle {
        ClockHandle::Virtual(self.clock.clone())
    }
}

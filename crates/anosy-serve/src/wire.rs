//! The wire forms of the serving protocol: a line-oriented text codec and a length-prefixed
//! binary frame codec, one request or response per line/frame.
//!
//! This is the transport-independent half of `anosy-served`: anything that can move bytes
//! (stdin/stdout, a TCP stream, a test script) can speak the protocol by pairing one of these
//! codecs with a [`Frontend`](crate::Frontend). The text format follows the workspace's
//! existing text-format conventions (the synthesis [`journal`](crate::journal)): space-separated
//! `key=value` tokens, predicates and paths last on the line so they may contain spaces, and
//! domain elements in their [`DomainCodec`](anosy_synth::DomainCodec) one-line encoding.
//!
//! # Binary frames
//!
//! The binary protocol carries the same request/response text, but framed instead of
//! newline-delimited, which removes the per-byte terminator scan and the per-line allocation
//! from the hot path. A connection opts in by sending [`BINARY_PREAMBLE`] (`anosy-bin v1\n`) as
//! its **first bytes**; anything else falls back to the line protocol, so text peers, smoke
//! scripts and humans under `netcat` are untouched. After the preamble, every unit in either
//! direction is one frame:
//!
//! ```text
//! [payload length: u32 LE] [fnv1a-64(payload): u64 LE] [payload bytes]
//! ```
//!
//! The payload is one protocol line, terminator-free. [`FrameDecoder`] mirrors
//! [`LineDecoder`]'s guarantees: carry-over buffering under arbitrary chunking, and malformed
//! input reported *as data* ([`DecodedFrame::Corrupt`] on a checksum mismatch,
//! [`DecodedFrame::Oversize`] for a declared length over the cap — the oversize payload is
//! swallowed, never buffered) with the decoder staying in sync on the next frame boundary.
//! Fuzzed alongside the line decoder in `tests/proptest_wire_fuzz.rs`.
//!
//! # Requests
//!
//! ```text
//! open min-size:100
//! register name=nearby kind=under members=- pred=abs(x - 200) + abs(y - 200) <= 100
//! downgrade session=1 query=nearby secret=300,200
//! batch session=1 query=nearby secrets=300,200;10,10
//! count pred=x <= 100
//! valid pred=x <= 100
//! knowledge session=1 secret=300,200
//! stats
//! save path=warm.cache
//! warm verify path=warm.cache
//! close session=1
//! ```
//!
//! # Responses
//!
//! ```text
//! ok session 1
//! ok registered nearby
//! ok answer true
//! deny policy policy violation: …
//! ok answers true false !outside-layout
//! ok count 20201
//! ok valid
//! ok counterexample 0,0
//! ok knowledge size=6837 121..279,179..221
//! ok stats open=1 ticks=2 …
//! ok saved 2 skipped=0
//! ok warm loaded=2 skipped=0
//! ok closed 1
//! err unknown-session no open session 7
//! ```
//!
//! Encoding and parsing are inverses on every value the frontend can produce, except that query
//! names and paths are taken verbatim from the line — a query name containing whitespace, or a
//! path containing a line break, cannot ride this wire. The typed protocol allows such values;
//! the codec **rejects them at encode time** ([`encode_request`] errors) rather than emitting a
//! line that would silently token-split into a different request at parse time. Predicates are
//! parsed first against the deployment layout's field names and then in the printer's
//! positional `v0` syntax, so both human-written and re-encoded lines parse.

use crate::proto::{Denial, DenialCode, ServeRequest, ServeResponse, SessionId, StatsSnapshot};
use crate::ServeStats;
use anosy_core::{PolicySpec, SharedCacheStats};
use anosy_logic::{parse_pred, parse_pred_with_layout, Point, Pred, SecretLayout};
use anosy_synth::QueryDef;
use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// A line that does not encode a request or response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line.
    pub reason: String,
}

impl WireError {
    fn new(reason: impl Into<String>) -> WireError {
        WireError { reason: reason.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire line: {}", self.reason)
    }
}

impl std::error::Error for WireError {}

/// Renders a point as comma-joined coordinates (`300,200`).
pub fn encode_point(point: &Point) -> String {
    point.as_slice().iter().map(i64::to_string).collect::<Vec<_>>().join(",")
}

/// Parses the [`encode_point`] form. Returns `None` on empty or non-numeric input.
pub fn parse_point(text: &str) -> Option<Point> {
    // Exact-capacity up front: `collect` only knows a lower bound for split iterators, so it
    // would grow (and re-copy) once per point on the bulk decode path.
    let mut coords: Vec<i64> = Vec::with_capacity(text.bytes().filter(|&b| b == b',').count() + 1);
    for c in text.split(',') {
        coords.push(c.trim().parse().ok()?);
    }
    if coords.is_empty() {
        None
    } else {
        Some(Point::new(coords))
    }
}

/// Parses a layout from `name:lo:hi` tokens (the same per-field form the synthesis journal
/// uses) — how `anosy-served --layout "x:0:400 y:0:400"` declares its secret space.
pub fn parse_layout(text: &str) -> Option<SecretLayout> {
    let mut builder = SecretLayout::builder();
    let mut any = false;
    for token in text.split_whitespace() {
        let mut parts = token.splitn(3, ':');
        let (name, lo, hi) = (parts.next()?, parts.next()?, parts.next()?);
        let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
        if name.is_empty() || lo > hi {
            return None;
        }
        builder = builder.field(name, lo, hi);
        any = true;
    }
    if any {
        Some(builder.build())
    } else {
        None
    }
}

/// Parses a predicate for the wire: field names of the deployment layout first, the printer's
/// positional `v0` syntax second.
fn parse_wire_pred(text: &str, layout: &SecretLayout) -> Result<Pred, WireError> {
    parse_pred_with_layout(text, layout)
        .or_else(|_| parse_pred(text))
        .map_err(|e| WireError::new(format!("unparseable predicate `{text}`: {e}")))
}

/// Looks up `key=` among the space-separated tokens of `head`.
fn token<'a>(head: &'a str, key: &str) -> Option<&'a str> {
    head.split_whitespace().find_map(|t| t.strip_prefix(key))
}

fn session_token(head: &str) -> Result<SessionId, WireError> {
    token(head, "session=")
        .and_then(|s| s.parse().ok())
        .map(SessionId)
        .ok_or_else(|| WireError::new("missing or bad session="))
}

fn secret_token(head: &str) -> Result<Point, WireError> {
    token(head, "secret=")
        .and_then(parse_point)
        .ok_or_else(|| WireError::new("missing or bad secret="))
}

fn query_token(head: &str) -> Result<&str, WireError> {
    token(head, "query=").ok_or_else(|| WireError::new("missing query="))
}

/// An intern pool for query names crossing the wire: the first occurrence of a name allocates
/// one [`Arc<str>`]; every later request carrying the same name gets a clone of that `Arc` —
/// no `String` per token on the decode hot path, and requests naming the same query share one
/// allocation.
#[derive(Debug, Default)]
pub struct NameInterner {
    names: HashSet<Arc<str>>,
}

impl NameInterner {
    /// An empty pool.
    pub fn new() -> NameInterner {
        NameInterner::default()
    }

    /// The interned handle for `name`, allocating only on first sight.
    pub fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(hit) = self.names.get(name) {
            return Arc::clone(hit);
        }
        let arc: Arc<str> = Arc::from(name);
        self.names.insert(Arc::clone(&arc));
        arc
    }

    /// Distinct names interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Splits `rest` around a `key=` marker whose value runs to the end of the line.
fn tail<'a>(rest: &'a str, key: &str) -> Result<(&'a str, &'a str), WireError> {
    rest.split_once(key)
        .map(|(head, tail)| (head, tail.trim()))
        .ok_or_else(|| WireError::new(format!("missing {key}")))
}

/// Parses one request line (see the [module docs](self) for the grammar). `layout` is the
/// deployment's secret space, used to resolve predicate field names and validate queries.
pub fn parse_request(line: &str, layout: &SecretLayout) -> Result<ServeRequest, WireError> {
    parse_request_inner(line, layout, None)
}

/// [`parse_request`] with an intern pool for query names: fields are parsed as `&str` slices
/// borrowed from `line` and only the tokens that must outlive the call are materialized —
/// query names through `interner` (an `Arc` clone after first sight, never a fresh `String`).
/// This is the serving reactor's decode path for both wire forms.
pub fn parse_request_interned(
    line: &str,
    layout: &SecretLayout,
    interner: &mut NameInterner,
) -> Result<ServeRequest, WireError> {
    parse_request_inner(line, layout, Some(interner))
}

fn parse_request_inner(
    line: &str,
    layout: &SecretLayout,
    mut interner: Option<&mut NameInterner>,
) -> Result<ServeRequest, WireError> {
    let mut intern = |name: &str| -> Arc<str> {
        match interner.as_deref_mut() {
            Some(pool) => pool.intern(name),
            None => Arc::from(name),
        }
    };
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    match verb {
        "open" => PolicySpec::parse(rest.trim())
            .map(|policy| ServeRequest::OpenSession { policy })
            .ok_or_else(|| WireError::new(format!("bad policy spec `{}`", rest.trim()))),
        "register" => {
            let (head, pred_text) = tail(rest, "pred=")?;
            let name =
                token(head, "name=").ok_or_else(|| WireError::new("missing name="))?.to_string();
            let kind = token(head, "kind=")
                .and_then(anosy_synth::parse_approx_kind)
                .ok_or_else(|| WireError::new("missing or bad kind="))?;
            let members = match token(head, "members=") {
                None | Some("-") => None,
                Some(m) => Some(m.parse().map_err(|_| WireError::new("bad members= count"))?),
            };
            let pred = parse_wire_pred(pred_text, layout)?;
            let query = QueryDef::new(name, layout.clone(), pred)
                .map_err(|e| WireError::new(e.to_string()))?;
            Ok(ServeRequest::RegisterQuery { query, kind, members })
        }
        "downgrade" => Ok(ServeRequest::Downgrade {
            session: session_token(rest)?,
            secret: secret_token(rest)?,
            query: intern(query_token(rest)?),
        }),
        "batch" => {
            // One pass over the tokens: the `secrets=` list dominates a bulk line's length,
            // so the per-key scans the small requests use would walk it once per key. First
            // occurrence of each key wins, matching [`token`].
            let (mut session, mut query, mut list) = (None, None, None);
            for t in rest.split_whitespace() {
                if let Some(v) = t.strip_prefix("session=") {
                    session.get_or_insert(v);
                } else if let Some(v) = t.strip_prefix("query=") {
                    query.get_or_insert(v);
                } else if let Some(v) = t.strip_prefix("secrets=") {
                    list.get_or_insert(v);
                }
            }
            let session = session
                .and_then(|v| v.parse().ok())
                .map(SessionId)
                .ok_or_else(|| WireError::new("missing or bad session="))?;
            let query = intern(query.ok_or_else(|| WireError::new("missing query="))?);
            let list = list.ok_or_else(|| WireError::new("missing secrets="))?;
            let secrets = if list.is_empty() {
                Vec::new()
            } else {
                let mut secrets =
                    Vec::with_capacity(list.bytes().filter(|&b| b == b';').count() + 1);
                for item in list.split(';') {
                    secrets.push(
                        parse_point(item).ok_or_else(|| WireError::new("bad secrets= list"))?,
                    );
                }
                secrets
            };
            Ok(ServeRequest::DowngradeBatch { session, secrets, query })
        }
        "count" => {
            let (_, pred_text) = tail(rest, "pred=")?;
            Ok(ServeRequest::CountModels { pred: parse_wire_pred(pred_text, layout)? })
        }
        "valid" => {
            let (_, pred_text) = tail(rest, "pred=")?;
            Ok(ServeRequest::CheckValidity { pred: parse_wire_pred(pred_text, layout)? })
        }
        "knowledge" => Ok(ServeRequest::Knowledge {
            session: session_token(rest)?,
            secret: secret_token(rest)?,
        }),
        "stats" if rest.trim().is_empty() => Ok(ServeRequest::Stats),
        "save" => {
            let (_, path) = tail(rest, "path=")?;
            Ok(ServeRequest::SaveCache { path: PathBuf::from(path) })
        }
        "warm" => {
            let (head, path) = tail(rest, "path=")?;
            let verify = head.split_whitespace().any(|t| t == "verify");
            Ok(ServeRequest::WarmStart { path: PathBuf::from(path), verify })
        }
        "close" => Ok(ServeRequest::CloseSession { session: session_token(rest)? }),
        "metrics" if rest.trim().is_empty() => Ok(ServeRequest::Metrics),
        "trace" if rest.trim().is_empty() => Ok(ServeRequest::Trace),
        other => Err(WireError::new(format!("unknown request `{other}`"))),
    }
}

/// A query name rides the wire as one `key=value` token, so whitespace in it would token-split
/// into a *different* (silently corrupted) request on parse. The typed protocol allows any
/// name; the codec refuses the ones it cannot carry faithfully.
fn wire_safe_name(name: &str) -> Result<&str, WireError> {
    if name.chars().any(char::is_whitespace) {
        return Err(WireError::new(format!(
            "query name `{name}` cannot ride the line wire (contains whitespace)"
        )));
    }
    Ok(name)
}

/// Paths ride as the rest of the line, so interior spaces are fine — but a line break would
/// frame as two lines (the second parsing as garbage), and leading/trailing whitespace is
/// trimmed on parse; both break the encode/parse inverse and are refused.
fn wire_safe_path(path: &std::path::Path) -> Result<std::path::Display<'_>, WireError> {
    let text = path.to_string_lossy();
    if text.contains(['\n', '\r']) || text.trim() != text {
        return Err(WireError::new(format!(
            "path `{}` cannot ride the line wire (line break or edge whitespace)",
            text.escape_debug()
        )));
    }
    Ok(path.display())
}

/// Renders a request as one wire line — the inverse of [`parse_request`] (predicates re-encode
/// in the printer's positional syntax, which [`parse_request`] accepts).
///
/// # Errors
///
/// Returns [`WireError`] for requests this codec cannot carry faithfully (a query name
/// containing whitespace) instead of emitting a line that would parse as something else.
pub fn encode_request(request: &ServeRequest) -> Result<String, WireError> {
    Ok(match request {
        ServeRequest::OpenSession { policy } => format!("open {policy}"),
        ServeRequest::RegisterQuery { query, kind, members } => {
            let members = match members {
                Some(m) => m.to_string(),
                None => "-".to_string(),
            };
            format!(
                "register name={} kind={kind} members={members} pred={}",
                wire_safe_name(query.name())?,
                query.pred()
            )
        }
        ServeRequest::Downgrade { session, secret, query } => {
            let query = wire_safe_name(query)?;
            format!("downgrade session={session} query={query} secret={}", encode_point(secret))
        }
        ServeRequest::DowngradeBatch { session, secrets, query } => {
            let query = wire_safe_name(query)?;
            let list: Vec<String> = secrets.iter().map(encode_point).collect();
            format!("batch session={session} query={query} secrets={}", list.join(";"))
        }
        ServeRequest::CountModels { pred } => format!("count pred={pred}"),
        ServeRequest::CheckValidity { pred } => format!("valid pred={pred}"),
        ServeRequest::Knowledge { session, secret } => {
            format!("knowledge session={session} secret={}", encode_point(secret))
        }
        ServeRequest::Stats => "stats".to_string(),
        ServeRequest::SaveCache { path } => format!("save path={}", wire_safe_path(path)?),
        ServeRequest::WarmStart { path, verify } => {
            let verify = if *verify { "verify " } else { "" };
            format!("warm {verify}path={}", wire_safe_path(path)?)
        }
        ServeRequest::CloseSession { session } => format!("close session={session}"),
        ServeRequest::Metrics => "metrics".to_string(),
        ServeRequest::Trace => "trace".to_string(),
    })
}

/// Flattens a denial message to one physical line: the wire is line-oriented, and some session
/// errors (a failed verification's report, say) render multi-line — embedded verbatim they
/// would desync every line-per-response client.
fn flatten_message(message: &str) -> String {
    if !message.contains(['\n', '\r']) {
        return message.to_string();
    }
    message
        .split(['\n', '\r'])
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Renders a response as one wire line (the transport prefixes the request id).
pub fn encode_response(response: &ServeResponse) -> String {
    match response {
        ServeResponse::SessionOpened { session } => format!("ok session {session}"),
        ServeResponse::QueryRegistered { name } => format!("ok registered {name}"),
        ServeResponse::Answer(Ok(answer)) => format!("ok answer {answer}"),
        ServeResponse::Answer(Err(denial)) => {
            format!("deny {} {}", denial.code, flatten_message(&denial.message))
        }
        ServeResponse::Answers(results) => {
            let mut line = String::from("ok answers");
            for result in results {
                line.push(' ');
                match result {
                    Ok(answer) => line.push_str(&answer.to_string()),
                    Err(code) => {
                        line.push('!');
                        line.push_str(code.as_str());
                    }
                }
            }
            line
        }
        ServeResponse::Count { models } => format!("ok count {models}"),
        ServeResponse::Validity { counterexample: None } => "ok valid".to_string(),
        ServeResponse::Validity { counterexample: Some(point) } => {
            format!("ok counterexample {}", encode_point(point))
        }
        ServeResponse::Knowledge { size, encoded } => {
            format!("ok knowledge size={size} {encoded}")
        }
        ServeResponse::Stats(s) => format!(
            "ok stats open={} ticks={} requests={} batched={} largest={} torn={} tenants={} \
             denied={} reactors={} shard={} workers={} entries={} sessions={} closed={} \
             synth_hits={} synth_misses={} warm={} authorized={} refused={} memo_cfg={} \
             memo_hint={} memo={} journal={} saves_skipped={}",
            s.open_sessions,
            s.ticks,
            s.requests,
            s.batched_downgrades,
            s.largest_batch,
            s.sessions_torn_down,
            s.tenants,
            s.denials,
            s.reactors,
            s.shard,
            s.serve.workers,
            s.serve.entries,
            s.serve.cache.sessions_opened,
            s.serve.cache.sessions_closed,
            s.serve.cache.synth_hits,
            s.serve.cache.synth_misses,
            s.serve.cache.warm_loaded,
            s.serve.cache.downgrades_authorized,
            s.serve.cache.downgrades_refused,
            s.memo_min_depth,
            s.memo_suggested_depth,
            encode_memo_buckets(&s.memo_depth),
            encode_journal(&s.journal),
            s.saves_skipped,
        ),
        ServeResponse::CacheSaved { entries, skipped } => {
            format!("ok saved {entries} skipped={skipped}")
        }
        ServeResponse::WarmStarted { loaded, skipped } => {
            format!("ok warm loaded={loaded} skipped={skipped}")
        }
        ServeResponse::SessionClosed { session } => format!("ok closed {session}"),
        // The payload is emitted by the telemetry renderers, which guarantee one physical
        // line; `flatten_message` would corrupt JSON, so it is deliberately not applied.
        ServeResponse::Metrics { json } => format!("ok metrics {json}"),
        ServeResponse::Trace { json } => format!("ok trace {json}"),
        ServeResponse::Rejected(denial) => {
            format!("err {} {}", denial.code, flatten_message(&denial.message))
        }
    }
}

/// Renders the per-depth memo counters as `hits:misses:bypassed` triples, one per bucket,
/// comma-joined — compact enough for the single-line stats response.
fn encode_memo_buckets(buckets: &[[u64; 3]; anosy_logic::BOX_MEMO_DEPTH_BUCKETS]) -> String {
    let triples: Vec<String> = buckets
        .iter()
        .map(|[hits, misses, bypassed]| format!("{hits}:{misses}:{bypassed}"))
        .collect();
    triples.join(",")
}

/// Renders the journal counters as `appended:compacted:replayed:torn` (the same colon-joined
/// sub-token idiom as the memo buckets).
fn encode_journal(journal: &[u64; 4]) -> String {
    let [appended, compacted, replayed, torn] = journal;
    format!("{appended}:{compacted}:{replayed}:{torn}")
}

/// Parses the [`encode_journal`] form back into the four journal counters.
fn parse_journal(text: &str) -> Option<[u64; 4]> {
    let mut counters = [0u64; 4];
    let mut parts = text.splitn(4, ':');
    for slot in counters.iter_mut() {
        *slot = parts.next()?.parse().ok()?;
    }
    Some(counters)
}

/// Parses the [`encode_memo_buckets`] form back into per-bucket counters.
fn parse_memo_buckets(text: &str) -> Option<[[u64; 3]; anosy_logic::BOX_MEMO_DEPTH_BUCKETS]> {
    let mut buckets = [[0u64; 3]; anosy_logic::BOX_MEMO_DEPTH_BUCKETS];
    let mut triples = text.split(',');
    for bucket in &mut buckets {
        let mut parts = triples.next()?.splitn(3, ':');
        for slot in bucket.iter_mut() {
            *slot = parts.next()?.parse().ok()?;
        }
    }
    triples.next().is_none().then_some(buckets)
}

/// Default cap on one wire line for the incremental [`LineDecoder`], in bytes. Protocol lines
/// are short; anything approaching this is a peer that never terminates its line.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// One decoded unit from a [`LineDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedLine {
    /// A complete line, terminator stripped (a trailing `\r` before the `\n` is stripped too,
    /// so CRLF and LF peers decode identically — the `BufRead::lines` convention).
    Line(String),
    /// A complete line that was not valid UTF-8. An error *as data*: the decoder stays in sync
    /// and the next line decodes normally.
    NonUtf8,
    /// A line exceeded the decoder's byte cap before any terminator arrived. Reported once;
    /// the rest of the line (up to the next terminator) is discarded silently.
    Overlong,
}

/// An incremental line decoder with carry-over buffering: feed it byte chunks exactly as a
/// transport produces them — partial lines, several lines coalesced into one read, CRLF or LF
/// terminators, arbitrary split points — and it yields each complete line exactly once.
///
/// The decoder can never desync: malformed input (non-UTF-8 bytes, embedded NUL, a line longer
/// than the cap) is reported as a [`DecodedLine`] variant and the carry-over state resumes at
/// the next terminator. Decoding is a pure function of the concatenated input bytes — chunk
/// boundaries never change what is produced (property-tested in
/// `tests/proptest_wire_fuzz.rs`).
#[derive(Debug)]
pub struct LineDecoder {
    buffer: Vec<u8>,
    max_line: usize,
    /// An overlong line was reported; swallow bytes until the next terminator.
    discarding: bool,
}

impl LineDecoder {
    /// A decoder with the [`MAX_LINE_BYTES`] cap.
    pub fn new() -> LineDecoder {
        LineDecoder::with_max_line(MAX_LINE_BYTES)
    }

    /// A decoder that reports lines longer than `max_line` bytes (terminator excluded) as
    /// [`DecodedLine::Overlong`].
    pub fn with_max_line(max_line: usize) -> LineDecoder {
        assert!(max_line > 0, "a zero-byte line cap would reject every line");
        LineDecoder { buffer: Vec::new(), max_line, discarding: false }
    }

    /// The configured line cap, in bytes.
    pub fn max_line(&self) -> usize {
        self.max_line
    }

    /// Bytes of the current partial line carried over for the next [`LineDecoder::feed`].
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Consumes one transport read's worth of bytes and returns every line completed by it.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<DecodedLine> {
        let mut out = Vec::new();
        for &byte in bytes {
            if byte == b'\n' {
                if self.discarding {
                    self.discarding = false;
                } else {
                    out.push(self.take_line(true));
                }
            } else if self.discarding {
                // Tail of an already-reported overlong line.
            } else {
                self.buffer.push(byte);
                // A trailing `\r` may still turn out to be a CRLF terminator (stripped on the
                // `\n`), so it gets one byte of grace: the cap counts content, not terminator,
                // and CRLF peers must see the same line capacity as LF peers.
                let limit = self.max_line + usize::from(byte == b'\r');
                if self.buffer.len() > limit {
                    out.push(DecodedLine::Overlong);
                    self.buffer.clear();
                    self.discarding = true;
                }
            }
        }
        out
    }

    /// Flushes the trailing unterminated line at end of stream, mirroring `BufRead::lines`
    /// (which yields a final line even without a terminator — so a peer that half-closes
    /// mid-line still gets its last fragment interpreted). Returns `None` when nothing is
    /// buffered; the decoder is reusable afterwards.
    pub fn finish(&mut self) -> Option<DecodedLine> {
        if self.discarding {
            self.discarding = false;
            return None;
        }
        if self.buffer.is_empty() {
            return None;
        }
        // The one-byte CRLF grace never materialized into a terminator: at end of stream the
        // trailing `\r` is data, and the line really is over the cap.
        if self.buffer.len() > self.max_line {
            self.buffer.clear();
            return Some(DecodedLine::Overlong);
        }
        Some(self.take_line(false))
    }

    /// Drops any carried-over partial line (an abortive disconnect: the fragment never
    /// completed and must not be interpreted).
    pub fn discard(&mut self) {
        self.buffer.clear();
        self.discarding = false;
    }

    fn take_line(&mut self, terminated: bool) -> DecodedLine {
        let mut line = std::mem::take(&mut self.buffer);
        if terminated && line.last() == Some(&b'\r') {
            line.pop();
        }
        match String::from_utf8(line) {
            Ok(text) => DecodedLine::Line(text),
            Err(_) => DecodedLine::NonUtf8,
        }
    }
}

impl Default for LineDecoder {
    fn default() -> Self {
        LineDecoder::new()
    }
}

/// The magic first bytes a connection sends to negotiate the binary frame protocol. Anything
/// else (including a too-short stream) is served as the line protocol — see the
/// [module docs](self).
pub const BINARY_PREAMBLE: &[u8] = b"anosy-bin v1\n";

/// Default cap on one frame's payload for [`FrameDecoder`], in bytes — the same budget as
/// [`MAX_LINE_BYTES`], since a frame payload is one protocol line.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Bytes of a frame header: `u32` LE payload length + `u64` LE FNV-1a checksum of the payload.
const FRAME_HEADER_BYTES: usize = 12;

/// FNV-1a 64-bit — the frame checksum, and the record checksum of the durability
/// [`journal`](crate::journal) too: cheap, dependency-free, and plenty to catch truncation or
/// bit rot (not cryptographic).
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends one encoded frame carrying `payload` to `out` (header + payload; see the
/// [module docs](self) for the layout).
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One encoded frame carrying `payload`, as fresh bytes.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame_into(&mut out, payload);
    out
}

/// One decoded unit from a [`FrameDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedFrame {
    /// A complete frame whose checksum verified; the payload is one protocol line,
    /// terminator-free.
    Frame(Vec<u8>),
    /// A complete frame whose payload did not match its header checksum. An error *as data*:
    /// the frame boundary was still known exactly, so the decoder stays in sync and the next
    /// frame decodes normally.
    Corrupt,
    /// A frame declared a payload longer than the decoder's cap. Reported once; the declared
    /// payload is swallowed without buffering and decoding resumes at the next frame boundary.
    Oversize,
    /// The stream ended (or was explicitly finished) mid-frame: an incomplete trailing
    /// fragment that can never be verified. Only produced by [`FrameDecoder::finish`].
    Truncated,
}

/// An incremental binary-frame decoder with carry-over buffering — the frame-protocol twin of
/// [`LineDecoder`]. Feed it byte chunks exactly as a transport produces them (partial frames,
/// several frames coalesced into one read, arbitrary split points) and it yields each complete
/// frame exactly once.
///
/// The decoder can never desync or panic on any byte sequence: corrupt and oversize frames are
/// reported as [`DecodedFrame`] variants and decoding resumes at the next frame boundary.
/// Decoding is a pure function of the concatenated input bytes — chunk boundaries never change
/// what is produced (property-tested in `tests/proptest_wire_fuzz.rs`). At most
/// `12 + max_frame` bytes are ever buffered: an oversize frame's payload is counted down, not
/// stored.
#[derive(Debug)]
pub struct FrameDecoder {
    buffer: Vec<u8>,
    max_frame: usize,
    /// Remaining payload bytes of an already-reported oversize frame to swallow.
    skip: u64,
}

impl FrameDecoder {
    /// A decoder with the [`MAX_FRAME_BYTES`] payload cap.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(MAX_FRAME_BYTES)
    }

    /// A decoder that reports frames declaring more than `max_frame` payload bytes as
    /// [`DecodedFrame::Oversize`].
    pub fn with_max_frame(max_frame: usize) -> FrameDecoder {
        assert!(max_frame > 0, "a zero-byte frame cap would reject every frame");
        FrameDecoder { buffer: Vec::new(), max_frame, skip: 0 }
    }

    /// The configured payload cap, in bytes.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Bytes of the current partial frame carried over for the next [`FrameDecoder::feed`].
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Consumes one transport read's worth of bytes and returns every frame completed by it.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<DecodedFrame> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.skip > 0 {
                // Tail of an already-reported oversize frame: count it down, never buffer it.
                let n = usize::try_from(self.skip).unwrap_or(usize::MAX).min(rest.len());
                self.skip -= n as u64;
                rest = &rest[n..];
                continue;
            }
            if self.buffer.len() < FRAME_HEADER_BYTES {
                let need = FRAME_HEADER_BYTES - self.buffer.len();
                let take = need.min(rest.len());
                self.buffer.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if self.buffer.len() < FRAME_HEADER_BYTES {
                    break;
                }
            }
            let len = u32::from_le_bytes(self.buffer[..4].try_into().expect("4 header bytes"));
            if len as usize > self.max_frame {
                out.push(DecodedFrame::Oversize);
                self.buffer.clear();
                self.skip = u64::from(len);
                continue;
            }
            let total = FRAME_HEADER_BYTES + len as usize;
            if self.buffer.len() < total {
                let take = (total - self.buffer.len()).min(rest.len());
                self.buffer.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if self.buffer.len() < total {
                    break;
                }
            }
            let sum = u64::from_le_bytes(self.buffer[4..12].try_into().expect("8 header bytes"));
            let mut payload = std::mem::take(&mut self.buffer);
            payload.drain(..FRAME_HEADER_BYTES);
            if frame_checksum(&payload) == sum {
                out.push(DecodedFrame::Frame(payload));
            } else {
                out.push(DecodedFrame::Corrupt);
            }
        }
        out
    }

    /// Reports the trailing incomplete frame at end of stream, if any — a peer that
    /// half-closes mid-frame left an unverifiable fragment ([`DecodedFrame::Truncated`]),
    /// unlike the line protocol where a trailing fragment is still an interpretable line.
    /// Returns `None` on a clean frame boundary; the decoder is reusable afterwards.
    pub fn finish(&mut self) -> Option<DecodedFrame> {
        if self.skip > 0 {
            self.skip = 0;
            return Some(DecodedFrame::Truncated);
        }
        if self.buffer.is_empty() {
            return None;
        }
        self.buffer.clear();
        Some(DecodedFrame::Truncated)
    }

    /// Drops any carried-over partial frame (an abortive disconnect: the fragment never
    /// completed and must not be reported).
    pub fn discard(&mut self) {
        self.buffer.clear();
        self.skip = 0;
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

fn parse_denial(rest: &str) -> Result<Denial, WireError> {
    let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
    let code =
        DenialCode::parse(code).ok_or_else(|| WireError::new(format!("bad code `{code}`")))?;
    Ok(Denial::new(code, message))
}

fn parse_counter<T: std::str::FromStr>(head: &str, key: &str) -> Result<T, WireError> {
    token(head, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| WireError::new(format!("missing or bad {key}")))
}

/// Parses one response line — the inverse of [`encode_response`].
pub fn parse_response(line: &str) -> Result<ServeResponse, WireError> {
    let line = line.trim();
    let (status, rest) = line.split_once(' ').unwrap_or((line, ""));
    match status {
        "deny" => Ok(ServeResponse::Answer(Err(parse_denial(rest)?))),
        "err" => Ok(ServeResponse::Rejected(parse_denial(rest)?)),
        "ok" => {
            let (what, rest) = rest.split_once(' ').unwrap_or((rest, ""));
            match what {
                "session" => rest
                    .parse()
                    .map(|id| ServeResponse::SessionOpened { session: SessionId(id) })
                    .map_err(|_| WireError::new("bad session id")),
                "registered" => Ok(ServeResponse::QueryRegistered { name: rest.to_string() }),
                "answer" => match rest {
                    "true" => Ok(ServeResponse::Answer(Ok(true))),
                    "false" => Ok(ServeResponse::Answer(Ok(false))),
                    other => Err(WireError::new(format!("bad answer `{other}`"))),
                },
                "answers" => {
                    let mut results = Vec::new();
                    for tok in rest.split_whitespace() {
                        results.push(match tok {
                            "true" => Ok(true),
                            "false" => Ok(false),
                            denied => {
                                let code = denied
                                    .strip_prefix('!')
                                    .and_then(DenialCode::parse)
                                    .ok_or_else(|| {
                                        WireError::new(format!("bad answer token `{denied}`"))
                                    })?;
                                Err(code)
                            }
                        });
                    }
                    Ok(ServeResponse::Answers(results))
                }
                "count" => rest
                    .parse()
                    .map(|models| ServeResponse::Count { models })
                    .map_err(|_| WireError::new("bad count")),
                "valid" if rest.is_empty() => Ok(ServeResponse::Validity { counterexample: None }),
                "counterexample" => parse_point(rest)
                    .map(|p| ServeResponse::Validity { counterexample: Some(p) })
                    .ok_or_else(|| WireError::new("bad counterexample point")),
                "knowledge" => {
                    let (head, encoded) = tail(rest, "size=").and_then(|(_, tail)| {
                        tail.split_once(' ')
                            .ok_or_else(|| WireError::new("missing encoded element"))
                    })?;
                    let size = head.parse().map_err(|_| WireError::new("bad knowledge size"))?;
                    Ok(ServeResponse::Knowledge { size, encoded: encoded.to_string() })
                }
                "stats" => Ok(ServeResponse::Stats(Box::new(StatsSnapshot {
                    open_sessions: parse_counter(rest, "open=")?,
                    ticks: parse_counter(rest, "ticks=")?,
                    requests: parse_counter(rest, "requests=")?,
                    batched_downgrades: parse_counter(rest, "batched=")?,
                    largest_batch: parse_counter(rest, "largest=")?,
                    sessions_torn_down: parse_counter(rest, "torn=")?,
                    tenants: parse_counter(rest, "tenants=")?,
                    denials: parse_counter(rest, "denied=")?,
                    reactors: parse_counter(rest, "reactors=")?,
                    shard: parse_counter(rest, "shard=")?,
                    serve: ServeStats {
                        workers: parse_counter(rest, "workers=")?,
                        entries: parse_counter(rest, "entries=")?,
                        cache: SharedCacheStats {
                            sessions_opened: parse_counter(rest, "sessions=")?,
                            sessions_closed: parse_counter(rest, "closed=")?,
                            synth_hits: parse_counter(rest, "synth_hits=")?,
                            synth_misses: parse_counter(rest, "synth_misses=")?,
                            warm_loaded: parse_counter(rest, "warm=")?,
                            downgrades_authorized: parse_counter(rest, "authorized=")?,
                            downgrades_refused: parse_counter(rest, "refused=")?,
                        },
                    },
                    memo_depth: token(rest, "memo=")
                        .and_then(parse_memo_buckets)
                        .ok_or_else(|| WireError::new("missing or bad memo="))?,
                    memo_min_depth: parse_counter(rest, "memo_cfg=")?,
                    memo_suggested_depth: parse_counter(rest, "memo_hint=")?,
                    journal: token(rest, "journal=")
                        .and_then(parse_journal)
                        .ok_or_else(|| WireError::new("missing or bad journal="))?,
                    saves_skipped: parse_counter(rest, "saves_skipped=")?,
                }))),
                "saved" => {
                    let (head, _) = tail(rest, "skipped=")?;
                    Ok(ServeResponse::CacheSaved {
                        entries: head
                            .trim_end()
                            .parse()
                            .map_err(|_| WireError::new("bad saved count"))?,
                        skipped: parse_counter(rest, "skipped=")?,
                    })
                }
                "warm" => Ok(ServeResponse::WarmStarted {
                    loaded: parse_counter(rest, "loaded=")?,
                    skipped: parse_counter(rest, "skipped=")?,
                }),
                "closed" => rest
                    .parse()
                    .map(|id| ServeResponse::SessionClosed { session: SessionId(id) })
                    .map_err(|_| WireError::new("bad session id")),
                "metrics" if !rest.is_empty() => {
                    Ok(ServeResponse::Metrics { json: rest.to_string() })
                }
                "trace" if !rest.is_empty() => Ok(ServeResponse::Trace { json: rest.to_string() }),
                other => Err(WireError::new(format!("unknown response `{other}`"))),
            }
        }
        other => Err(WireError::new(format!("unknown status `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::IntExpr;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby() -> QueryDef {
        let pred = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new("nearby", layout(), pred).unwrap()
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            ServeRequest::OpenSession { policy: PolicySpec::parse("min-size:100").unwrap() },
            ServeRequest::RegisterQuery {
                query: nearby(),
                kind: anosy_synth::ApproxKind::Under,
                members: None,
            },
            ServeRequest::RegisterQuery {
                query: nearby(),
                kind: anosy_synth::ApproxKind::Over,
                members: Some(3),
            },
            ServeRequest::Downgrade {
                session: SessionId(1),
                secret: Point::new(vec![300, 200]),
                query: "nearby".into(),
            },
            ServeRequest::DowngradeBatch {
                session: SessionId(2),
                secrets: vec![Point::new(vec![1, 2]), Point::new(vec![-3, 4])],
                query: "nearby".into(),
            },
            ServeRequest::DowngradeBatch {
                session: SessionId(2),
                secrets: vec![],
                query: "nearby".into(),
            },
            ServeRequest::CountModels { pred: IntExpr::var(0).le(100) },
            ServeRequest::CheckValidity { pred: IntExpr::var(1).ge(0) },
            ServeRequest::Knowledge { session: SessionId(1), secret: Point::new(vec![0, 0]) },
            ServeRequest::Stats,
            ServeRequest::SaveCache { path: PathBuf::from("/tmp/a b.cache") },
            ServeRequest::WarmStart { path: PathBuf::from("warm.cache"), verify: true },
            ServeRequest::WarmStart { path: PathBuf::from("warm.cache"), verify: false },
            ServeRequest::CloseSession { session: SessionId(9) },
            ServeRequest::Metrics,
            ServeRequest::Trace,
        ];
        for request in requests {
            let line = encode_request(&request).unwrap();
            assert!(!line.contains('\n'));
            let parsed = parse_request(&line, &layout()).unwrap_or_else(|e| {
                panic!("`{line}` failed to parse: {e}");
            });
            assert_eq!(parsed, request, "`{line}`");
        }
    }

    #[test]
    fn wire_unsafe_query_names_are_refused_at_encode_time() {
        // A name with whitespace would token-split into a different request on parse; the
        // codec must refuse it instead of corrupting silently.
        let spaced = QueryDef::new("my query", layout(), IntExpr::var(0).le(1)).unwrap();
        let register = ServeRequest::RegisterQuery {
            query: spaced,
            kind: anosy_synth::ApproxKind::Under,
            members: None,
        };
        assert!(encode_request(&register).is_err());
        let downgrade = ServeRequest::Downgrade {
            session: SessionId(1),
            secret: Point::new(vec![0, 0]),
            query: "my query".into(),
        };
        assert!(encode_request(&downgrade).is_err());
        // Paths tolerate interior spaces but not line breaks (two physical lines) or edge
        // whitespace (trimmed on parse): both would break the encode/parse inverse.
        for bad in ["a\nb.cache", " padded.cache", "padded.cache "] {
            let save = ServeRequest::SaveCache { path: PathBuf::from(bad) };
            assert!(encode_request(&save).is_err(), "{bad:?}");
            let warm = ServeRequest::WarmStart { path: PathBuf::from(bad), verify: true };
            assert!(encode_request(&warm).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn human_written_requests_parse_with_field_names() {
        let req = parse_request("register name=near kind=under pred=abs(x - 200) <= 50", &layout())
            .unwrap();
        match req {
            ServeRequest::RegisterQuery { query, members: None, .. } => {
                assert_eq!(query.name(), "near");
                // `x` resolved to field 0 of the layout.
                assert!(query.pred().free_vars().contains(&0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_request("open min-size:100&min-entropy-mb:2000", &layout()).is_ok());
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
            ServeResponse::SessionOpened { session: SessionId(3) },
            ServeResponse::QueryRegistered { name: "nearby".into() },
            ServeResponse::Answer(Ok(true)),
            ServeResponse::Answer(Ok(false)),
            ServeResponse::Answer(Err(Denial::new(
                DenialCode::Policy,
                "policy violation: min-size(100) refuses nearby",
            ))),
            ServeResponse::Answers(vec![Ok(true), Err(DenialCode::OutsideLayout), Ok(false)]),
            ServeResponse::Answers(vec![]),
            ServeResponse::Count { models: 20_201 },
            ServeResponse::Validity { counterexample: None },
            ServeResponse::Validity { counterexample: Some(Point::new(vec![0, 0])) },
            ServeResponse::Knowledge { size: 6837, encoded: "121..279,179..221".into() },
            ServeResponse::Stats(Box::new(StatsSnapshot {
                open_sessions: 2,
                ticks: 5,
                requests: 17,
                batched_downgrades: 9,
                largest_batch: 4,
                sessions_torn_down: 1,
                tenants: 3,
                denials: 2,
                reactors: 4,
                shard: 2,
                serve: ServeStats {
                    workers: 4,
                    entries: 1,
                    cache: SharedCacheStats {
                        synth_hits: 3,
                        synth_misses: 1,
                        downgrades_authorized: 7,
                        downgrades_refused: 2,
                        sessions_opened: 2,
                        sessions_closed: 1,
                        warm_loaded: 0,
                    },
                },
                memo_depth: [[0, 0, 12], [3, 1, 0], [250, 9, 0], [0, 0, 0]],
                memo_min_depth: 2,
                memo_suggested_depth: 3,
                journal: [14, 9, 5, 1],
                saves_skipped: 2,
            })),
            ServeResponse::CacheSaved { entries: 2, skipped: 1 },
            ServeResponse::CacheSaved { entries: 0, skipped: 0 },
            ServeResponse::WarmStarted { loaded: 2, skipped: 1 },
            ServeResponse::SessionClosed { session: SessionId(3) },
            ServeResponse::Metrics {
                json: "{\"counters\":{\"wire.lines\":7},\"histograms\":{}}".into(),
            },
            ServeResponse::Metrics { json: "{}".into() },
            ServeResponse::Trace { json: "[]".into() },
            ServeResponse::Rejected(Denial::new(DenialCode::UnknownSession, "no open session 7")),
        ];
        for response in responses {
            let line = encode_response(&response);
            assert!(!line.contains('\n'));
            let parsed = parse_response(&line).unwrap_or_else(|e| {
                panic!("`{line}` failed to parse: {e}");
            });
            assert_eq!(parsed, response, "`{line}`");
        }
    }

    #[test]
    fn multi_line_denial_messages_stay_on_one_wire_line() {
        // Verification failures render multi-line reports; the wire must flatten them or every
        // subsequent line desyncs a line-per-response client.
        let denial = Denial::new(
            DenialCode::Internal,
            "synthesized approximation for q failed verification:\n  under_truthy: refuted\r\n  under_falsy: ok\n",
        );
        for response in
            [ServeResponse::Rejected(denial.clone()), ServeResponse::Answer(Err(denial))]
        {
            let line = encode_response(&response);
            assert!(!line.contains('\n') && !line.contains('\r'), "`{line}`");
            assert!(line.contains("failed verification:; under_truthy: refuted; under_falsy: ok"));
            // Still parseable; the flattened message is the canonical wire form.
            let parsed = parse_response(&line).unwrap();
            assert_eq!(encode_response(&parsed), line);
        }
    }

    #[test]
    fn malformed_lines_error_instead_of_panicking() {
        for bad in [
            "",
            "unknown stuff",
            "open",
            "open sideways",
            "register name=q kind=under", // no pred=
            "register kind=under pred=x <= 1",
            "downgrade session=1 query=q", // no secret=
            "downgrade session=x query=q secret=1,2",
            "batch session=1 query=q secrets=1,2;x",
            "count pred=)((",
            "stats extra",
            "metrics extra",
            "trace extra",
            "save",
            "close session=",
        ] {
            assert!(parse_request(bad, &layout()).is_err(), "`{bad}` must not parse");
        }
        for bad in
            ["", "ok", "ok what 3", "ok answer perhaps", "deny nonsense msg", "nah 3", "ok metrics"]
        {
            assert!(parse_response(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn the_line_decoder_reassembles_arbitrary_chunkings() {
        let input = b"stats\r\ndowngrade session=1\nclose session=2\n";
        for split in 0..input.len() {
            let mut decoder = LineDecoder::new();
            let mut lines = decoder.feed(&input[..split]);
            lines.extend(decoder.feed(&input[split..]));
            assert_eq!(
                lines,
                vec![
                    DecodedLine::Line("stats".into()),
                    DecodedLine::Line("downgrade session=1".into()),
                    DecodedLine::Line("close session=2".into()),
                ],
                "split at {split}"
            );
            assert_eq!(decoder.finish(), None);
        }
    }

    #[test]
    fn the_line_decoder_reports_errors_as_data_and_stays_in_sync() {
        let mut decoder = LineDecoder::with_max_line(8);
        // Non-UTF-8 bytes (with an embedded NUL) make one NonUtf8 item, then resync.
        let lines = decoder.feed(b"ab\xff\x00\nstats\n");
        assert_eq!(lines, vec![DecodedLine::NonUtf8, DecodedLine::Line("stats".into())]);
        // An overlong line reports once, swallows its tail, then resyncs.
        let lines = decoder.feed(b"0123456789abcdef-more-tail\nok\n");
        assert_eq!(lines, vec![DecodedLine::Overlong, DecodedLine::Line("ok".into())]);
        assert_eq!(decoder.max_line(), 8);
        // A trailing fragment at EOF is a final line (mid-line half-close) …
        assert_eq!(decoder.feed(b"last"), vec![]);
        assert_eq!(decoder.buffered(), 4);
        assert_eq!(decoder.finish(), Some(DecodedLine::Line("last".into())));
        // … unless the stream aborted and the fragment is explicitly discarded.
        decoder.feed(b"gone");
        decoder.discard();
        assert_eq!(decoder.finish(), None);
        // Interior `\r` is data; only the terminator's `\r` strips.
        assert_eq!(decoder.feed(b"a\rb\r\n"), vec![DecodedLine::Line("a\rb".into())]);
    }

    #[test]
    fn crlf_peers_get_the_same_line_capacity_as_lf_peers() {
        // A CRLF line whose *content* is exactly the cap must decode, not report Overlong:
        // the cap counts content, terminator excluded.
        let mut decoder = LineDecoder::with_max_line(8);
        assert_eq!(decoder.feed(b"01234567\r\n"), vec![DecodedLine::Line("01234567".into())]);
        assert_eq!(decoder.feed(b"01234567\n"), vec![DecodedLine::Line("01234567".into())]);
        // One content byte over the cap overflows for both terminators alike.
        assert_eq!(
            decoder.feed(b"012345678\r\n"),
            vec![DecodedLine::Overlong],
            "9 content bytes exceed the cap regardless of terminator"
        );
        assert_eq!(decoder.feed(b"ok\n"), vec![DecodedLine::Line("ok".into())]);
        // At end of stream the grace `\r` is data, and the line really is over the cap.
        decoder.feed(b"01234567\r");
        assert_eq!(decoder.finish(), Some(DecodedLine::Overlong));
        assert_eq!(decoder.feed(b"ok\n"), vec![DecodedLine::Line("ok".into())]);
    }

    #[test]
    fn the_frame_decoder_reassembles_arbitrary_chunkings() {
        let mut input = Vec::new();
        frame_into(&mut input, b"stats");
        frame_into(&mut input, b"");
        frame_into(&mut input, b"close session=2");
        for split in 0..input.len() {
            let mut decoder = FrameDecoder::new();
            let mut frames = decoder.feed(&input[..split]);
            frames.extend(decoder.feed(&input[split..]));
            assert_eq!(
                frames,
                vec![
                    DecodedFrame::Frame(b"stats".to_vec()),
                    DecodedFrame::Frame(Vec::new()),
                    DecodedFrame::Frame(b"close session=2".to_vec()),
                ],
                "split at {split}"
            );
            assert_eq!(decoder.finish(), None);
        }
    }

    #[test]
    fn the_frame_decoder_reports_errors_as_data_and_stays_in_sync() {
        let mut decoder = FrameDecoder::with_max_frame(8);
        // A corrupt frame (checksum mismatch) reports once and the next frame decodes.
        let mut bytes = encode_frame(b"evil");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        bytes.extend_from_slice(&encode_frame(b"ok"));
        assert_eq!(
            decoder.feed(&bytes),
            vec![DecodedFrame::Corrupt, DecodedFrame::Frame(b"ok".to_vec())]
        );
        // An oversize declaration swallows its payload without buffering it, then resyncs.
        let mut bytes = encode_frame(b"0123456789abcdef");
        bytes.extend_from_slice(&encode_frame(b"after"));
        let frames = decoder.feed(&bytes);
        assert_eq!(frames, vec![DecodedFrame::Oversize, DecodedFrame::Frame(b"after".to_vec())]);
        assert!(decoder.buffered() <= 12 + decoder.max_frame());
        // A trailing partial frame at EOF is unverifiable — Truncated, not a frame.
        decoder.feed(&encode_frame(b"tail")[..6]);
        assert_eq!(decoder.finish(), Some(DecodedFrame::Truncated));
        assert_eq!(decoder.feed(&encode_frame(b"go")), vec![DecodedFrame::Frame(b"go".to_vec())]);
        // … unless explicitly discarded (abortive disconnect).
        decoder.feed(&encode_frame(b"gone")[..3]);
        decoder.discard();
        assert_eq!(decoder.finish(), None);
        // Mid-skip EOF of an oversize frame is also Truncated.
        let oversize = encode_frame(b"0123456789abcdef");
        decoder.feed(&oversize[..14]);
        assert_eq!(decoder.finish(), Some(DecodedFrame::Truncated));
        assert_eq!(decoder.feed(&encode_frame(b"go")), vec![DecodedFrame::Frame(b"go".to_vec())]);
    }

    #[test]
    fn interned_parsing_shares_one_allocation_per_query_name() {
        let mut interner = NameInterner::new();
        let a = parse_request_interned(
            "downgrade session=1 query=nearby secret=1,2",
            &layout(),
            &mut interner,
        )
        .unwrap();
        let b = parse_request_interned(
            "batch session=2 query=nearby secrets=1,2",
            &layout(),
            &mut interner,
        )
        .unwrap();
        let (
            ServeRequest::Downgrade { query: qa, .. },
            ServeRequest::DowngradeBatch { query: qb, .. },
        ) = (a, b)
        else {
            panic!("parsed wrong variants");
        };
        assert!(Arc::ptr_eq(&qa, &qb), "same name must intern to one allocation");
        assert_eq!(interner.len(), 1);
        assert!(!interner.is_empty());
    }

    #[test]
    fn points_and_layouts_parse() {
        assert_eq!(parse_point("300,200"), Some(Point::new(vec![300, 200])));
        assert_eq!(parse_point("-3"), Some(Point::new(vec![-3])));
        assert_eq!(parse_point(""), None);
        assert_eq!(parse_point("1,,2"), None);
        let layout = parse_layout("x:0:400 y:-5:5").unwrap();
        assert_eq!(layout.arity(), 2);
        assert_eq!(layout.fields()[1].lo(), -5);
        assert_eq!(parse_layout(""), None);
        assert_eq!(parse_layout("x:9:1"), None);
        assert_eq!(parse_layout("x:a:b"), None);
    }
}

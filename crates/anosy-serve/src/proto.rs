//! The typed serving protocol: one request/response pair for the whole deployment surface.
//!
//! Everything a deployment can do — open a session under a [`PolicySpec`], register a query,
//! downgrade one secret or a batch, count models, check validity, inspect knowledge and stats,
//! save or warm-start the synthesis cache, close a session — is a [`ServeRequest`], and every
//! answer is a [`ServeResponse`] tagged with the [`RequestId`] it answers. The
//! [`Frontend`](crate::Frontend) state machine consumes requests and emits tagged responses
//! without performing any I/O itself (sans-IO, in the sense the networking world uses the term):
//! transports — the [`wire`](crate::wire) codecs and the `anosy-served` reactors over stdio or
//! sockets — only move bytes and never interpret the protocol.
//!
//! Downgrade refusals are *data*, not protocol failures: a [`ServeRequest::Downgrade`] always
//! answers with [`ServeResponse::Answer`] — `Err(..)` for policy refusals, unknown queries,
//! out-of-layout secrets *and* unknown sessions alike, exactly as the sequential
//! [`anosy_core::AnosySession::downgrade`] replay would error — because the monitor's refusal
//! is part of its observable (and deliberately secret-independent) behavior.
//! [`ServeResponse::Rejected`] is how every *non-downgrade* request reports failure (unknown
//! session on a batch/knowledge/close, synthesis failure, cache I/O).
//!
//! **Trust boundary.** [`ServeRequest::SaveCache`] and [`ServeRequest::WarmStart`] carry
//! filesystem paths the deployment will write and read. Over stdin/stdout (`anosy-served`) the
//! requester *is* the operator, so this is fine; a transport that exposes the protocol to
//! untrusted connections (the future socket executor) must gate or drop these two requests —
//! the frontend executes them for whoever submits them.

use anosy_core::{AnosyError, PolicySpec};
use anosy_logic::Point;
use anosy_synth::{ApproxKind, QueryDef};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use crate::ServeStats;

/// Identifies one session owned by a [`Frontend`](crate::Frontend).
///
/// **The id scheme** (the only one): a session's id is derived from the logical connection that
/// opened it, as `((conn + 1) << 32) | k` for that connection's `k`-th open (1-based). A
/// transport connection's bare lines ride the logical id `ConnId(token)`, and tokens are minted
/// in arrival order from 0, so over stdin/stdout (token 0) the first open answers
/// `ok session 4294967297` and `@2`'s first open answers `ok session 12884901889`. The id
/// depends only on the opening connection — never on how opens interleave across connections —
/// so it is the same whichever reactor shard serves the connection, at any reactor count.
///
/// The packing is **checked**: it only covers `conn < 2³² − 1` and `k < 2³²`, and an open
/// outside that range is refused with a [`ServeResponse::Rejected`] at the boundary — silently
/// wrapping would collide ids across connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies one logical connection multiplexed onto a frontend. Connections are a tagging
/// concept only — the frontend processes all requests in one global submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Tags a request and its response: the connection it arrived on plus the per-connection
/// sequence number, rendered `conn.seq` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The logical connection the request arrived on.
    pub conn: ConnId,
    /// The 1-based sequence number of the request within its connection.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.conn, self.seq)
    }
}

/// One request against a serving deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Opens a session enforcing the given policy; answered with
    /// [`ServeResponse::SessionOpened`]. The new session immediately knows every query
    /// registered so far.
    OpenSession {
        /// The quantitative policy the session enforces.
        policy: PolicySpec,
    },
    /// Synthesizes and verifies a query once per deployment (a warm cache makes this free) and
    /// registers it with every open and future session.
    RegisterQuery {
        /// The query definition (name, layout, predicate).
        query: QueryDef,
        /// Approximation direction.
        kind: ApproxKind,
        /// Powerset member budget (`None` for the interval domain).
        members: Option<usize>,
    },
    /// The bounded downgrade of Fig. 2 against one session's tracked knowledge.
    Downgrade {
        /// The session whose knowledge is consulted and refined.
        session: SessionId,
        /// The secret, as a point of the deployment layout.
        secret: Point,
        /// Name of a registered query. Interned: the wire decoder hands every request naming
        /// the same query a clone of one shared allocation
        /// ([`wire::NameInterner`](crate::wire::NameInterner)).
        query: Arc<str>,
    },
    /// A whole batch of downgrades against one query in one request, decided secret by secret
    /// in order.
    DowngradeBatch {
        /// The session whose knowledge is consulted and refined.
        session: SessionId,
        /// The secrets, in order; duplicates chain exactly as sequential calls would.
        secrets: Vec<Point>,
        /// Name of a registered query (interned, as in [`ServeRequest::Downgrade`]).
        query: Arc<str>,
    },
    /// Counts the models of a predicate over the deployment's secret space with the sharded
    /// parallel driver.
    CountModels {
        /// The predicate to count.
        pred: anosy_logic::Pred,
    },
    /// Checks validity of a predicate over the deployment's secret space.
    CheckValidity {
        /// The predicate to check.
        pred: anosy_logic::Pred,
    },
    /// Reads the knowledge currently tracked for a secret (size plus the encoded domain
    /// element, via [`anosy_synth::DomainCodec`]).
    Knowledge {
        /// The session to inspect.
        session: SessionId,
        /// The secret whose knowledge is requested.
        secret: Point,
    },
    /// Reads the frontend + deployment aggregate counters.
    Stats,
    /// Persists the synthesis cache for a later warm start.
    SaveCache {
        /// Where to write the cache file.
        path: PathBuf,
    },
    /// Loads a previously saved synthesis cache.
    WarmStart {
        /// The snapshot (or journal) to load: a missing file is a cold start, a torn one loads
        /// its good prefix.
        path: PathBuf,
        /// When `true`, re-verify every entry's refinement obligations with the solver before
        /// installing it ([`crate::Deployment::warm_start`]).
        verify: bool,
    },
    /// Closes a session, dropping its tracked knowledge.
    CloseSession {
        /// The session to close.
        session: SessionId,
    },
    /// Reads the answering reactor's telemetry counters and latency histograms as one line of
    /// JSON ([`ServeResponse::Metrics`]). Answers `{}` when the serving process records no
    /// telemetry (feature compiled out, or no collector installed).
    Metrics,
    /// Reads the answering reactor's span ring as one line of chrome://tracing JSON
    /// ([`ServeResponse::Trace`]). Answers `[]` when nothing records.
    Trace,
}

/// Why a downgrade (or a whole request) was denied — the compact, wire-stable classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenialCode {
    /// A quantitative policy refused the downgrade (before query execution, per §3).
    Policy,
    /// The named query was never registered.
    UnknownQuery,
    /// The secret lies outside the deployment layout.
    OutsideLayout,
    /// The request referenced a session id the frontend does not own.
    UnknownSession,
    /// A cache-only registration found no synthesized entry.
    NotSynthesized,
    /// Anything else (synthesis/verification/solver/cache failures); see the message.
    Internal,
}

impl DenialCode {
    /// The wire token of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            DenialCode::Policy => "policy",
            DenialCode::UnknownQuery => "unknown-query",
            DenialCode::OutsideLayout => "outside-layout",
            DenialCode::UnknownSession => "unknown-session",
            DenialCode::NotSynthesized => "not-synthesized",
            DenialCode::Internal => "internal",
        }
    }

    /// Parses a wire token back into a code.
    pub fn parse(token: &str) -> Option<DenialCode> {
        Some(match token {
            "policy" => DenialCode::Policy,
            "unknown-query" => DenialCode::UnknownQuery,
            "outside-layout" => DenialCode::OutsideLayout,
            "unknown-session" => DenialCode::UnknownSession,
            "not-synthesized" => DenialCode::NotSynthesized,
            "internal" => DenialCode::Internal,
            _ => return None,
        })
    }

    /// Classifies a session-layer error.
    pub fn of(error: &AnosyError) -> DenialCode {
        match error {
            AnosyError::PolicyViolation { .. } => DenialCode::Policy,
            AnosyError::UnknownQuery { .. } => DenialCode::UnknownQuery,
            AnosyError::SecretOutsideLayout => DenialCode::OutsideLayout,
            AnosyError::NotSynthesized { .. } => DenialCode::NotSynthesized,
            _ => DenialCode::Internal,
        }
    }
}

impl fmt::Display for DenialCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A denial with its human-readable reason (the [`DenialCode`] alone rides in batch answers,
/// where one line carries many results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Denial {
    /// The compact classification.
    pub code: DenialCode,
    /// The full error message.
    pub message: String,
}

impl Denial {
    /// A denial with an ad-hoc message.
    pub fn new(code: DenialCode, message: impl Into<String>) -> Denial {
        Denial { code, message: message.into() }
    }

    /// The canonical denial for a request referencing an unowned session.
    pub fn unknown_session(session: SessionId) -> Denial {
        Denial::new(DenialCode::UnknownSession, format!("no open session {session}"))
    }
}

impl From<AnosyError> for Denial {
    fn from(e: AnosyError) -> Denial {
        Denial { code: DenialCode::of(&e), message: e.to_string() }
    }
}

impl fmt::Display for Denial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Aggregate counters of a frontend and its deployment, as one protocol-level snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions currently open in the frontend.
    pub open_sessions: usize,
    /// Completed [`Frontend::tick`](crate::Frontend::tick) calls.
    pub ticks: u64,
    /// Requests submitted since the frontend was created.
    pub requests: u64,
    /// Downgrade decisions made for open sessions: single downgrades plus
    /// [`ServeRequest::DowngradeBatch`] elements.
    pub batched_downgrades: u64,
    /// The most downgrade decisions made in one tick.
    pub largest_batch: usize,
    /// Sessions torn down because the connection that opened them disconnected (see
    /// [`Frontend::disconnect`](crate::Frontend::disconnect)).
    pub sessions_torn_down: u64,
    /// Distinct logical connections that submitted at least one request (the tenant count of a
    /// multi-tenant run).
    pub tenants: u64,
    /// Responses that carried a denial (refused answers, denied batch elements, rejections),
    /// counted at the end of each tick — a snapshot taken mid-tick reports the ticks completed
    /// so far, like [`StatsSnapshot::ticks`] itself.
    pub denials: u64,
    /// Reactor shards the serving process runs (`N` under a [`crate::ReactorPool`] of `N`
    /// reactors).
    pub reactors: u64,
    /// Which reactor shard answered (`0`-based). A deployment-wide fold of per-shard snapshots
    /// ([`crate::reactor::fold_stats`]) marks itself with `shard == reactors`.
    pub shard: u64,
    /// The deployment aggregates (cache hits, downgrade outcomes, workers). Its `synth_hits`
    /// counts registrations answered from the cache only: opening a session looks nothing up.
    pub serve: ServeStats,
    /// The shared store's `(id, box)` memo counters as `[hits, misses, bypassed]` per term-depth
    /// bucket ([`anosy_logic::BOX_MEMO_DEPTH_BUCKETS`] buckets, shallow to deep) — the evidence
    /// behind [`StatsSnapshot::memo_suggested_depth`]. The store is deployment-shared, so a
    /// fold of per-shard snapshots carries these through unsummed.
    pub memo_depth: [[u64; 3]; anosy_logic::BOX_MEMO_DEPTH_BUCKETS],
    /// The `(id, box)` memo depth threshold the deployment's store runs with.
    pub memo_min_depth: u8,
    /// [`anosy_logic::suggested_min_memo_depth`] computed from the buckets above: the threshold
    /// the observed hit rates say this workload should use.
    pub memo_suggested_depth: u8,
    /// The deployment journal's counters ([`crate::journal`]) as
    /// `[appended, compacted, replayed, torn]`; all zero when no journal is attached. The
    /// journal is deployment-shared, so a fold of per-shard snapshots carries these through
    /// unsummed, like [`StatsSnapshot::memo_depth`].
    pub journal: [u64; 4],
    /// Entries skipped as unencodable across every cache save of this deployment (the
    /// [`crate::SaveOutcome::skipped`] tally; deployment-shared like
    /// [`StatsSnapshot::journal`]).
    pub saves_skipped: u64,
}

/// One response, paired to its request by the frontend.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// A session was opened.
    SessionOpened {
        /// The freshly allocated session id.
        session: SessionId,
    },
    /// A query was synthesized (or served from cache) and installed in the frontend's
    /// registry under its name, replacing any earlier registration of that name; every
    /// session of the frontend downgrades against it from now on.
    QueryRegistered {
        /// The query's name, as usable in downgrade requests.
        name: String,
    },
    /// The downgrade answer: the query's boolean on authorization, the denial otherwise.
    Answer(Result<bool, Denial>),
    /// Per-element answers of a batch, in input order.
    Answers(Vec<Result<bool, DenialCode>>),
    /// The model count.
    Count {
        /// Number of models of the predicate in the deployment space.
        models: u128,
    },
    /// The validity outcome: `None` means valid everywhere.
    Validity {
        /// A point falsifying the predicate, if any.
        counterexample: Option<Point>,
    },
    /// The tracked knowledge of a secret.
    Knowledge {
        /// Number of candidate secrets the knowledge still admits.
        size: u128,
        /// The domain element in its [`anosy_synth::DomainCodec`] line form.
        encoded: String,
    },
    /// The aggregate counters.
    Stats(Box<StatsSnapshot>),
    /// The synthesis cache was persisted.
    CacheSaved {
        /// Entries written.
        entries: usize,
        /// Entries skipped because the text encoding cannot represent them faithfully
        /// ([`crate::SaveOutcome::skipped`]) — nonzero means the save was lossy.
        skipped: usize,
    },
    /// A warm start completed.
    WarmStarted {
        /// Entries installed into the cache.
        loaded: usize,
        /// Entries refused by re-verification (the request's `verify` flag).
        skipped: usize,
    },
    /// A session was closed.
    SessionClosed {
        /// The id that is now free (ids are never reused).
        session: SessionId,
    },
    /// The answering reactor's telemetry registry.
    Metrics {
        /// One line of JSON: `{"counters":{…},"histograms":{…}}` (or `{}` when nothing
        /// records). Opaque to the codec — it rides the line verbatim and must not contain a
        /// newline, which the telemetry renderers guarantee.
        json: String,
    },
    /// The answering reactor's span ring.
    Trace {
        /// One line of chrome://tracing JSON (`[]` when nothing records).
        json: String,
    },
    /// The request itself failed (unknown session, synthesis failure, cache I/O, …).
    Rejected(Denial),
}

/// A response paired with the id of the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedResponse {
    /// The request this answers.
    pub request: RequestId,
    /// The answer.
    pub response: ServeResponse,
}

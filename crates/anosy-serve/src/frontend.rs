//! The sans-IO serving frontend: sessions behind a uniform request/response protocol, answered
//! one tick at a time.
//!
//! A [`Frontend`] owns a [`Deployment`], the registry of queries registered so far and every
//! open [`AnosySession`], keyed by [`SessionId`] (scoped to the connection that opened the
//! session; see [`SessionId`] for the scheme). The registry owns the queries: one
//! `name → QInfo` map that every downgrade resolves in, while a session holds only its policy,
//! its secrets' knowledge and its counters. So opening a session costs the same however many
//! queries are registered, and a registration touches no session. Any number of logical
//! connections submit [`ServeRequest`]s between ticks ([`Frontend::submit`] — pure queueing, no
//! work); [`Frontend::tick`] then processes the whole queue and returns one [`TaggedResponse`]
//! per request, in submission order. The frontend never performs I/O: transports (the
//! `anosy-served` reactors over stdio or sockets, the network simulator, tests) feed it requests
//! and write out its responses.
//!
//! # Downgrades
//!
//! A tick answers its requests one after another, in submission order. A
//! [`ServeRequest::Downgrade`] resolves its query in the registry and is decided by the
//! session's own policy-checked step ([`AnosySession::downgrade_with`]) on the calling
//! thread; a [`ServeRequest::DowngradeBatch`] is the same step per secret, in order. Nothing
//! else writes a session's knowledge.
//!
//! # Determinism guarantee
//!
//! Responses are **element-wise identical to processing the same requests sequentially, one at
//! a time, against plain [`AnosySession`]s** (`downgrade` per downgrade request), no matter how
//! requests interleave across connections or how they split into ticks — property-tested
//! end-to-end in `tests/proptest_frontend.rs`.

use crate::proto::{
    ConnId, Denial, DenialCode, RequestId, ServeRequest, ServeResponse, SessionId, StatsSnapshot,
    TaggedResponse,
};
use crate::Deployment;
use anosy_core::{AnosyError, AnosySession, QInfo, SynthesizeInto};
use anosy_domains::AbstractDomain;
use anosy_logic::Point;
use anosy_solver::ValidityOutcome;
use anosy_synth::DomainCodec;
use anosy_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Counters of the frontend itself (the deployment's counters ride along in
/// [`StatsSnapshot::serve`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Completed [`Frontend::tick`] calls.
    pub ticks: u64,
    /// Requests submitted since construction.
    pub requests: u64,
    /// Downgrade decisions made for open sessions: single downgrades plus batch elements
    /// (`batched=` on the wire stats line).
    pub batched_downgrades: u64,
    /// The most downgrade decisions made in one tick (`largest=` on the wire stats line).
    pub largest_batch: usize,
    /// Sessions torn down because the connection that opened them disconnected
    /// ([`Frontend::disconnect`]) — explicit [`ServeRequest::CloseSession`]s are not counted.
    pub sessions_torn_down: u64,
    /// Distinct logical connections that submitted at least one request — the tenant count of a
    /// multi-tenant run (connections that only ever disconnected are not tenants).
    pub tenants: u64,
    /// Responses that carried a denial: refused downgrade answers, denied batch elements and
    /// rejected requests alike. The denial *rate* of a run is this over
    /// [`FrontendStats::requests`].
    pub denials: u64,
}

impl FrontendStats {
    /// Counts `n` more downgrade decisions into a tick that had made `tick` so far.
    fn count_decisions(&mut self, tick: &mut usize, n: usize) {
        *tick += n;
        self.batched_downgrades += n as u64;
        self.largest_batch = self.largest_batch.max(*tick);
    }
}

/// How many denials one response carries (batch answers can carry several).
fn denials_in(response: &ServeResponse) -> u64 {
    match response {
        ServeResponse::Answer(Err(_)) | ServeResponse::Rejected(_) => 1,
        ServeResponse::Answers(results) => results.iter().filter(|r| r.is_err()).count() as u64,
        _ => 0,
    }
}

/// Packs the conn-scoped session id `((conn + 1) << 32) | k` with **checked** arithmetic:
/// `None` when either half would leave its 32-bit lane (`conn ≥ 2³² − 1` or `k ≥ 2³²`).
/// The unchecked form silently wrapped — `(conn + 1) << 32` loses the high bits for large
/// conn ids, and a connection's 2³²-th open bleeds into the conn lane — colliding ids
/// across connections; see [`SessionId`] for the scheme.
pub(crate) fn conn_scoped_session_id(conn: ConnId, k: u64) -> Option<SessionId> {
    let high = conn.0.checked_add(1).filter(|&high| high <= u64::from(u32::MAX))?;
    if k > u64::from(u32::MAX) {
        return None;
    }
    Some(SessionId((high << 32) | k))
}

/// One queued unit of work: a tagged request, or a connection teardown riding the same queue so
/// it takes effect at its submission position within the tick.
enum Pending {
    Request(RequestId, ServeRequest),
    Disconnect(ConnId),
}

/// The sans-IO protocol state machine (see the [module docs](self)).
pub struct Frontend<D: AbstractDomain> {
    deployment: Deployment<D>,
    /// Open sessions. An id names the connection that opened it (see [`SessionId`]), so one
    /// connection's sessions are one contiguous key range.
    sessions: BTreeMap<SessionId, AnosySession<D>>,
    /// Queries registered so far, keyed by name: the only query map downgrades resolve in.
    /// Re-registering a name replaces its entry (the latest registration wins). One map per
    /// frontend, so per reactor shard: a registration reaches only its own shard's sessions.
    registry: BTreeMap<String, Arc<QInfo<D>>>,
    pending: Vec<Pending>,
    next_conn: u64,
    conn_seqs: HashMap<ConnId, u64>,
    /// Per-connection open counts: the `k` of each connection's next [`SessionId`].
    conn_opens: HashMap<ConnId, u64>,
    reactors: u64,
    shard: u64,
    stats: FrontendStats,
    /// Downgrade decisions made so far in the current tick.
    tick_decisions: usize,
}

impl<D: AbstractDomain> Frontend<D> {
    /// Wraps a deployment into a frontend with no open sessions.
    pub fn new(deployment: Deployment<D>) -> Self {
        Frontend {
            deployment,
            sessions: BTreeMap::new(),
            registry: BTreeMap::new(),
            pending: Vec::new(),
            next_conn: 0,
            conn_seqs: HashMap::new(),
            conn_opens: HashMap::new(),
            reactors: 1,
            shard: 0,
            stats: FrontendStats::default(),
            tick_decisions: 0,
        }
    }

    /// Identifies this frontend as reactor shard `shard` of `reactors` — reported in
    /// [`StatsSnapshot`] (and on the wire stats line as `reactors=`/`shard=`). The default is
    /// `(0, 1)`.
    pub fn with_shard(mut self, shard: u64, reactors: u64) -> Self {
        self.shard = shard;
        self.reactors = reactors.max(1);
        self
    }

    /// The deployment behind this frontend (for direct drivers and stats).
    pub fn deployment(&self) -> &Deployment<D> {
        &self.deployment
    }

    /// Allocates the next logical connection id. Transports that already have a connection
    /// notion (one per socket, say) may mint their own [`ConnId`]s instead — the frontend
    /// tracks per-connection sequence numbers for whatever ids it sees.
    pub fn connect(&mut self) -> ConnId {
        self.next_conn += 1;
        ConnId(self.next_conn)
    }

    /// Queues a request; no work happens until [`Frontend::tick`]. Returns the id the matching
    /// response will carry (per-connection sequence numbers, starting at 1).
    pub fn submit(&mut self, conn: ConnId, request: ServeRequest) -> RequestId {
        let stats = &mut self.stats;
        let seq = self.conn_seqs.entry(conn).or_insert_with(|| {
            stats.tenants += 1;
            0
        });
        *seq += 1;
        let id = RequestId { conn, seq: *seq };
        self.pending.push(Pending::Request(id, request));
        self.stats.requests += 1;
        id
    }

    /// Reports a logical connection as gone: every session it opened is torn down **at this
    /// queue position** during the next [`Frontend::tick`] — requests submitted before the
    /// disconnect still answer normally, requests referencing the torn-down sessions afterwards
    /// deny with `unknown-session`, exactly as a sequential replay interleaving an explicit
    /// close would. The teardown itself produces no response (there is nobody left to read it);
    /// torn-down sessions are counted in [`FrontendStats::sessions_torn_down`].
    ///
    /// Sessions the connection *used* but did not open are untouched — ownership is the open.
    pub fn disconnect(&mut self, conn: ConnId) {
        self.pending.push(Pending::Disconnect(conn));
    }

    /// Queued work items (requests and disconnects) for the next tick.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Sessions currently open.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The frontend's own counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// The protocol-level snapshot a [`ServeRequest::Stats`] would answer with right now —
    /// also the per-shard input of [`crate::reactor::fold_stats`].
    pub fn snapshot(&self) -> StatsSnapshot {
        let store = self.deployment.store_stats();
        let mut memo_depth = [[0u64; 3]; anosy_logic::BOX_MEMO_DEPTH_BUCKETS];
        for (bucket, row) in memo_depth.iter_mut().enumerate() {
            *row = [
                store.box_memo_depth_hits[bucket],
                store.box_memo_depth_misses[bucket],
                store.box_memo_depth_bypassed[bucket],
            ];
        }
        StatsSnapshot {
            open_sessions: self.sessions.len(),
            ticks: self.stats.ticks,
            requests: self.stats.requests,
            batched_downgrades: self.stats.batched_downgrades,
            largest_batch: self.stats.largest_batch,
            sessions_torn_down: self.stats.sessions_torn_down,
            tenants: self.stats.tenants,
            denials: self.stats.denials,
            reactors: self.reactors,
            shard: self.shard,
            memo_depth,
            memo_min_depth: store.box_memo_min_depth,
            memo_suggested_depth: anosy_logic::suggested_min_memo_depth(&store),
            journal: {
                let journal = self.deployment.journal_stats();
                [journal.appended, journal.compacted, journal.replayed, journal.torn]
            },
            saves_skipped: self.deployment.saves_skipped(),
            serve: self.deployment.stats(),
        }
    }
}

impl<D> Frontend<D>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    /// Processes every queued request and returns one tagged response per request, in
    /// submission order (see the [module docs](self) for the determinism story).
    pub fn tick(&mut self) -> Vec<TaggedResponse> {
        let _span = telemetry::span("frontend.tick");
        let pending = std::mem::take(&mut self.pending);
        let mut tagged = Vec::with_capacity(pending.len());
        for item in pending {
            match item {
                Pending::Request(request, body) => {
                    let response = self.handle(request.conn, body);
                    tagged.push(TaggedResponse { request, response });
                }
                Pending::Disconnect(conn) => self.teardown(conn),
            }
        }
        self.stats.ticks += 1;
        let decisions = std::mem::take(&mut self.tick_decisions);
        if decisions > 0 {
            telemetry::observe("batch.size", decisions as u64);
        }
        self.stats.denials += tagged.iter().map(|t| denials_in(&t.response)).sum::<u64>();
        tagged
    }

    /// Removes (and drops) every session opened by `conn` — one key range, since the id names
    /// the opener; the sessions' own teardown notes their closure in the deployment aggregates.
    fn teardown(&mut self, conn: ConnId) {
        // No id exists outside the checked lanes, so such a connection opened nothing.
        let Some(first) = conn_scoped_session_id(conn, 0) else { return };
        let last = SessionId(first.0 | u64::from(u32::MAX));
        let doomed: Vec<SessionId> = self.sessions.range(first..=last).map(|(id, _)| *id).collect();
        self.stats.sessions_torn_down += doomed.len() as u64;
        for id in doomed {
            self.sessions.remove(&id);
        }
    }

    /// Answers one request. `conn` is the logical connection the request arrived on — the
    /// owner of any session it opens.
    fn handle(&mut self, conn: ConnId, request: ServeRequest) -> ServeResponse {
        match request {
            ServeRequest::Downgrade { session, secret, query } => {
                let Some(open) = self.sessions.get_mut(&session) else {
                    return ServeResponse::Answer(Err(Denial::unknown_session(session)));
                };
                let _span = telemetry::span("batch.decide");
                self.stats.count_decisions(&mut self.tick_decisions, 1);
                let qinfo = self.registry.get(&*query).map(Arc::as_ref);
                ServeResponse::Answer(decide(open, qinfo, &query, &secret).map_err(Denial::from))
            }
            ServeRequest::OpenSession { policy } => {
                let opens = self.conn_opens.entry(conn).or_insert(0);
                // Checked packing: an id outside the two 32-bit lanes would collide with
                // another connection's ids, so the open is refused at the boundary and the
                // open counter does not move.
                let Some(id) = conn_scoped_session_id(conn, *opens + 1) else {
                    return ServeResponse::Rejected(Denial::new(
                        DenialCode::Internal,
                        format!(
                            "conn-scoped session-id space exhausted (conn {}, opens {})",
                            conn.0, *opens
                        ),
                    ));
                };
                *opens += 1;
                let session = self.deployment.session(policy);
                self.sessions.insert(id, session);
                ServeResponse::SessionOpened { session: id }
            }
            ServeRequest::RegisterQuery { query, kind, members } => {
                match self.deployment.register_query(&query, kind, members) {
                    Ok(indsets) => {
                        let name = query.name().to_string();
                        self.registry.insert(name.clone(), Arc::new(QInfo::new(query, indsets)));
                        ServeResponse::QueryRegistered { name }
                    }
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::DowngradeBatch { session, secrets, query } => {
                let Some(open) = self.sessions.get_mut(&session) else {
                    return ServeResponse::Rejected(Denial::unknown_session(session));
                };
                let _span = telemetry::span("batch.decide");
                self.stats.count_decisions(&mut self.tick_decisions, secrets.len());
                let qinfo = self.registry.get(&*query).map(Arc::as_ref);
                ServeResponse::Answers(
                    secrets
                        .iter()
                        .map(|secret| {
                            decide(open, qinfo, &query, secret).map_err(|e| DenialCode::of(&e))
                        })
                        .collect(),
                )
            }
            ServeRequest::CountModels { pred } => {
                match self.deployment.par_count_models(&pred, &self.deployment.layout().space()) {
                    Ok(sharded) => ServeResponse::Count { models: sharded.value },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::CheckValidity { pred } => {
                match self.deployment.par_check_validity(&pred, &self.deployment.layout().space()) {
                    Ok(sharded) => ServeResponse::Validity {
                        counterexample: match sharded.value {
                            ValidityOutcome::Valid => None,
                            ValidityOutcome::CounterExample(p) => Some(p),
                        },
                    },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::Knowledge { session, secret } => {
                let Some(open) = self.sessions.get(&session) else {
                    return ServeResponse::Rejected(Denial::unknown_session(session));
                };
                let knowledge = open.knowledge_of(&secret);
                ServeResponse::Knowledge {
                    size: knowledge.size(),
                    encoded: knowledge.domain().encode(),
                }
            }
            ServeRequest::Stats => ServeResponse::Stats(Box::new(self.snapshot())),
            // Both telemetry answers read the *reactor thread's* collector: the frontend runs
            // on it, so the snapshot is exactly this shard's recording (empty when telemetry is
            // off or compiled out).
            ServeRequest::Metrics => ServeResponse::Metrics {
                json: telemetry::snapshot()
                    .map(|r| r.metrics.to_json())
                    .unwrap_or_else(|| "{}".to_string()),
            },
            ServeRequest::Trace => ServeResponse::Trace {
                json: telemetry::snapshot()
                    .map(|r| telemetry::trace_json(std::slice::from_ref(&r)))
                    .unwrap_or_else(|| "[]".to_string()),
            },
            ServeRequest::SaveCache { path } => match self.deployment.save_cache(&path) {
                Ok(outcome) => {
                    ServeResponse::CacheSaved { entries: outcome.written, skipped: outcome.skipped }
                }
                Err(e) => ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string())),
            },
            ServeRequest::WarmStart { path, verify } => {
                match self.deployment.warm_start(&path, verify) {
                    Ok(outcome) => ServeResponse::WarmStarted {
                        loaded: outcome.installed,
                        skipped: outcome.skipped,
                    },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::CloseSession { session } => match self.sessions.remove(&session) {
                Some(_) => ServeResponse::SessionClosed { session },
                None => ServeResponse::Rejected(Denial::unknown_session(session)),
            },
        }
    }
}

/// One downgrade decision in an open session: the query comes from the frontend's registry
/// (`None` when the name is not registered), the decision is the session's own step.
fn decide<D: AbstractDomain>(
    session: &mut AnosySession<D>,
    qinfo: Option<&QInfo<D>>,
    query: &str,
    secret: &Point,
) -> Result<bool, AnosyError> {
    match qinfo {
        Some(qinfo) => session.downgrade_with(qinfo, secret),
        None => Err(AnosyError::UnknownQuery { name: query.to_string() }),
    }
}

impl<D: AbstractDomain> fmt::Debug for Frontend<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frontend")
            .field("sessions", &self.sessions.len())
            .field("registry", &self.registry.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use anosy_core::PolicySpec;
    use anosy_domains::IntervalDomain;
    use anosy_ifc::Protected;
    use anosy_logic::{IntExpr, SecretLayout};
    use anosy_synth::{ApproxKind, QueryDef};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby_query(xo: i64) -> QueryDef {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new(format!("nearby_{xo}_200"), layout(), pred).unwrap()
    }

    fn frontend() -> Frontend<IntervalDomain> {
        Frontend::new(Deployment::new(layout(), ServeConfig::for_tests()))
    }

    /// The id of `conn`'s `k`-th open.
    fn sid(conn: ConnId, k: u64) -> SessionId {
        conn_scoped_session_id(conn, k).unwrap()
    }

    fn downgrade(session: SessionId, x: i64, y: i64, query: &str) -> ServeRequest {
        ServeRequest::Downgrade { session, secret: Point::new(vec![x, y]), query: query.into() }
    }

    #[test]
    fn the_full_surface_round_trips_through_one_tick_sequence() {
        let mut frontend = frontend();
        let conn = frontend.connect();

        // Tick 1: register a query and open two sessions under different policies.
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(30_000) });
        let responses = frontend.tick();
        assert_eq!(responses.len(), 3);
        assert_eq!(
            responses[0].response,
            ServeResponse::QueryRegistered { name: "nearby_200_200".into() }
        );
        let (lax, strict) = (sid(conn, 1), sid(conn, 2));
        assert_eq!(responses[1].response, ServeResponse::SessionOpened { session: lax });
        assert_eq!(responses[2].response, ServeResponse::SessionOpened { session: strict });
        assert_eq!(responses[0].request, RequestId { conn, seq: 1 });

        // Tick 2: downgrades across both sessions, answered in order.
        frontend.submit(conn, downgrade(lax, 300, 200, "nearby_200_200"));
        frontend.submit(conn, downgrade(strict, 300, 200, "nearby_200_200"));
        frontend.submit(conn, downgrade(lax, 10, 10, "nearby_200_200"));
        frontend.submit(conn, downgrade(lax, 300, 200, "no_such_query"));
        let responses = frontend.tick();
        assert_eq!(responses[0].response, ServeResponse::Answer(Ok(true)));
        // The strict policy refuses: under min-size 30000 one posterior is too small.
        match &responses[1].response {
            ServeResponse::Answer(Err(denial)) => assert_eq!(denial.code, DenialCode::Policy),
            other => panic!("expected a policy denial, got {other:?}"),
        }
        assert_eq!(responses[2].response, ServeResponse::Answer(Ok(false)));
        match &responses[3].response {
            ServeResponse::Answer(Err(denial)) => {
                assert_eq!(denial.code, DenialCode::UnknownQuery)
            }
            other => panic!("expected unknown-query, got {other:?}"),
        }

        // The frontend's answers equal a plain session's sequential ones.
        let mut reference: AnosySession<IntervalDomain> =
            self::reference_session(PolicySpec::MinSize(100));
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert!(reference.downgrade(&secret, "nearby_200_200").unwrap());

        // Tick 3: knowledge, stats, close; then the closed session denies.
        frontend.submit(
            conn,
            ServeRequest::Knowledge { session: lax, secret: Point::new(vec![300, 200]) },
        );
        frontend.submit(conn, ServeRequest::Stats);
        frontend.submit(conn, ServeRequest::CloseSession { session: strict });
        let responses = frontend.tick();
        match &responses[0].response {
            ServeResponse::Knowledge { size, encoded } => {
                assert_eq!(*size, reference.knowledge_of(&Point::new(vec![300, 200])).size());
                assert!(!encoded.is_empty());
            }
            other => panic!("expected knowledge, got {other:?}"),
        }
        match &responses[1].response {
            ServeResponse::Stats(snapshot) => {
                assert_eq!(snapshot.open_sessions, 2);
                assert_eq!(snapshot.requests, 10);
                assert_eq!(snapshot.batched_downgrades, 4);
                assert_eq!(snapshot.largest_batch, 4, "tick 2 made four decisions");
                assert_eq!(snapshot.serve.cache.synth_misses, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(responses[2].response, ServeResponse::SessionClosed { session: strict });

        frontend.submit(conn, downgrade(strict, 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        match &responses[0].response {
            ServeResponse::Answer(Err(denial)) => {
                assert_eq!(denial.code, DenialCode::UnknownSession)
            }
            other => panic!("expected unknown-session, got {other:?}"),
        }
        assert!(format!("{frontend:?}").contains("sessions: 1"));
    }

    /// A plain standalone session with the test query registered — the sequential reference.
    fn reference_session(policy: PolicySpec) -> AnosySession<IntervalDomain> {
        reference_session_with(policy, &[200])
    }

    /// A plain standalone session with `nearby_query(xo)` registered for every origin.
    fn reference_session_with(policy: PolicySpec, origins: &[i64]) -> AnosySession<IntervalDomain> {
        let mut session = AnosySession::new(layout(), policy);
        let mut synth = anosy_synth::Synthesizer::with_config(ServeConfig::for_tests().synth);
        for &xo in origins {
            session
                .register_synthesized(&mut synth, &nearby_query(xo), ApproxKind::Under, None)
                .unwrap();
        }
        session
    }

    #[test]
    fn sessions_opened_after_registration_know_the_query_set() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.tick();
        // A session opened *later* still downgrades against the query: the registry, not the
        // session, holds it.
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, downgrade(sid(conn, 1), 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        assert_eq!(responses[1].response, ServeResponse::Answer(Ok(true)));
        assert_eq!(frontend.deployment().stats().cache.synth_misses, 1);
    }

    #[test]
    fn opening_sessions_does_no_per_query_work() {
        let origins = [150, 200, 250];
        let mut frontend = frontend();
        let conn = frontend.connect();
        for &xo in &origins {
            frontend.submit(
                conn,
                ServeRequest::RegisterQuery {
                    query: nearby_query(xo),
                    kind: ApproxKind::Under,
                    members: None,
                },
            );
        }
        frontend.tick();
        let before = frontend.deployment().stats().cache;

        const OPENS: u64 = 4;
        for _ in 0..OPENS {
            frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        }
        frontend.tick();
        let after = frontend.deployment().stats().cache;
        assert_eq!(after.synth_hits, before.synth_hits, "an open looks up no query");
        assert_eq!(after.synth_misses, before.synth_misses);
        assert_eq!(after.sessions_opened, before.sessions_opened + OPENS);

        // The new sessions answer exactly like a plain session holding every query.
        let secrets = [(300, 200), (10, 10), (230, 180)];
        for k in 1..=OPENS {
            for &xo in &origins {
                for &(x, y) in &secrets {
                    frontend
                        .submit(conn, downgrade(sid(conn, k), x, y, &format!("nearby_{xo}_200")));
                }
            }
        }
        let answers: Vec<ServeResponse> = frontend.tick().into_iter().map(|t| t.response).collect();
        let mut reference = reference_session_with(PolicySpec::MinSize(100), &origins);
        let sequential: Vec<ServeResponse> = origins
            .iter()
            .flat_map(|&xo| secrets.iter().map(move |&secret| (xo, secret)))
            .map(|(xo, (x, y))| {
                let secret = Protected::new(Point::new(vec![x, y]));
                ServeResponse::Answer(
                    reference.downgrade(&secret, &format!("nearby_{xo}_200")).map_err(Denial::from),
                )
            })
            .collect();
        for (k, session_answers) in answers.chunks(sequential.len()).enumerate() {
            assert_eq!(session_answers, &sequential[..], "session {}", k + 1);
        }
        assert_eq!(frontend.deployment().stats().cache.synth_hits, before.synth_hits);
    }

    #[test]
    fn duplicate_secrets_within_one_tick_chain_in_order() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        let session = sid(conn, 1);
        for _ in 0..4 {
            frontend.submit(conn, downgrade(session, 300, 200, "nearby_200_200"));
        }
        let batched: Vec<ServeResponse> = frontend.tick().into_iter().map(|t| t.response).collect();

        let mut reference = reference_session(PolicySpec::MinSize(100));
        let secret = Protected::new(Point::new(vec![300, 200]));
        let sequential: Vec<ServeResponse> = (0..4)
            .map(|_| {
                ServeResponse::Answer(
                    reference.downgrade(&secret, "nearby_200_200").map_err(Denial::from),
                )
            })
            .collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn disconnects_tear_down_owned_sessions_at_their_queue_position() {
        let mut frontend = frontend();
        let a = frontend.connect();
        let b = frontend.connect();
        frontend.submit(
            a,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(a, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(b, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        assert_eq!(frontend.open_sessions(), 2);

        // A downgrade submitted before the disconnect still answers; the same request after it
        // finds the session gone — teardown takes effect at its queue position.
        frontend.submit(b, downgrade(sid(a, 1), 300, 200, "nearby_200_200"));
        frontend.disconnect(a);
        frontend.submit(b, downgrade(sid(a, 1), 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        assert_eq!(responses.len(), 2, "the teardown itself produces no response");
        assert_eq!(responses[0].response, ServeResponse::Answer(Ok(true)));
        match &responses[1].response {
            ServeResponse::Answer(Err(denial)) => {
                assert_eq!(denial.code, DenialCode::UnknownSession)
            }
            other => panic!("expected unknown-session after teardown, got {other:?}"),
        }
        assert_eq!(frontend.open_sessions(), 1, "b's session survives a's disconnect");
        assert_eq!(frontend.stats().sessions_torn_down, 1);

        // The dropped session reported its closure to the deployment aggregates (the
        // anosy-core teardown hook) — no leak in either ledger.
        let cache = frontend.deployment().stats().cache;
        assert_eq!(cache.sessions_opened, 2);
        assert_eq!(cache.sessions_closed, 1);

        // Disconnecting a connection that owns nothing is a no-op.
        frontend.disconnect(a);
        frontend.tick();
        assert_eq!(frontend.stats().sessions_torn_down, 1);
    }

    #[test]
    fn count_and_validity_ride_the_sharded_driver() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        let pred = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        frontend.submit(conn, ServeRequest::CountModels { pred: pred.clone() });
        frontend.submit(conn, ServeRequest::CheckValidity { pred });
        let responses = frontend.tick();
        assert_eq!(responses[0].response, ServeResponse::Count { models: 20_201 });
        match &responses[1].response {
            ServeResponse::Validity { counterexample: Some(_) } => {}
            other => panic!("the diamond is not valid everywhere: {other:?}"),
        }
    }

    #[test]
    fn explicit_batches_answer_per_element() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        frontend.submit(
            conn,
            ServeRequest::DowngradeBatch {
                session: sid(conn, 1),
                secrets: vec![
                    Point::new(vec![300, 200]),
                    Point::new(vec![10, 10]),
                    Point::new(vec![9_000, 0]),
                ],
                query: "nearby_200_200".into(),
            },
        );
        let responses = frontend.tick();
        assert_eq!(
            responses[0].response,
            ServeResponse::Answers(vec![Ok(true), Ok(false), Err(DenialCode::OutsideLayout),])
        );
        // An unknown session rejects the whole batch request.
        frontend.submit(
            conn,
            ServeRequest::DowngradeBatch {
                session: SessionId(77),
                secrets: vec![Point::new(vec![0, 0])],
                query: "nearby_200_200".into(),
            },
        );
        match &frontend.tick()[0].response {
            ServeResponse::Rejected(denial) => {
                assert_eq!(denial.code, DenialCode::UnknownSession)
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn conn_scoped_id_packing_is_checked_at_both_lanes() {
        let max = u64::from(u32::MAX);
        // In-range edges pack exactly as documented.
        assert_eq!(conn_scoped_session_id(ConnId(0), 1), Some(SessionId((1 << 32) | 1)));
        assert_eq!(conn_scoped_session_id(ConnId(0), max), Some(SessionId((1 << 32) | max)));
        assert_eq!(conn_scoped_session_id(ConnId(max - 1), 1), Some(SessionId((max << 32) | 1)));
        // One past either lane refuses. The unchecked form returned `SessionId(2 << 32)` for
        // the first (colliding with conn 1's first open) and `SessionId(1)`-style wrapped ids
        // for the large-conn cases.
        assert_eq!(conn_scoped_session_id(ConnId(0), max + 1), None);
        assert_eq!(conn_scoped_session_id(ConnId(max), 1), None);
        assert_eq!(conn_scoped_session_id(ConnId(u64::MAX), 1), None, "conn + 1 must not wrap");
    }

    #[test]
    fn exhausted_conn_scoped_opens_reject_without_moving_the_counter() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        // Seed the connection as if it had already opened 2³² − 1 sessions: the next open
        // would need k = 2³², which bleeds into the conn lane.
        frontend.conn_opens.insert(conn, u64::from(u32::MAX));
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        let responses = frontend.tick();
        for tagged in &responses {
            match &tagged.response {
                ServeResponse::Rejected(denial) => assert_eq!(denial.code, DenialCode::Internal),
                other => panic!("expected a session-id-space rejection, got {other:?}"),
            }
        }
        assert_eq!(frontend.open_sessions(), 0);
        assert_eq!(
            frontend.conn_opens[&conn],
            u64::from(u32::MAX),
            "a refused open must not burn id space"
        );

        // A wire-reachable conn id past the lane (`@4294967295`-style) is refused too,
        // instead of wrapping into another connection's id range.
        let big = ConnId(u64::from(u32::MAX));
        frontend.submit(big, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        match &frontend.tick()[0].response {
            ServeResponse::Rejected(denial) => assert_eq!(denial.code, DenialCode::Internal),
            other => panic!("expected a conn-lane rejection, got {other:?}"),
        }
    }

    #[test]
    fn cross_session_runs_fuse_and_match_sequential_replay() {
        let mut fused = frontend();
        let conn = fused.connect();
        fused.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        for _ in 0..3 {
            fused.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        }
        fused.tick();
        // Interleave three sessions' downgrades in one tick: largest_batch counts the tick's
        // decisions across all sessions, not one session's share.
        let secrets = [(300, 200), (10, 10), (250, 150), (300, 200)];
        for &(x, y) in &secrets {
            for s in 1..=3 {
                fused.submit(conn, downgrade(sid(conn, s), x, y, "nearby_200_200"));
            }
        }
        let answers: Vec<ServeResponse> = fused.tick().into_iter().map(|t| t.response).collect();
        assert_eq!(fused.stats().largest_batch, 12, "the tick decided all three sessions");

        // Element-wise identical to a sequential per-session replay.
        let mut reference = reference_session(PolicySpec::MinSize(100));
        let sequential: Vec<ServeResponse> = secrets
            .iter()
            .map(|&(x, y)| {
                ServeResponse::Answer(
                    reference
                        .downgrade(&Protected::new(Point::new(vec![x, y])), "nearby_200_200")
                        .map_err(Denial::from),
                )
            })
            .collect();
        for (i, expected) in sequential.iter().enumerate() {
            for s in 0..3 {
                assert_eq!(&answers[i * 3 + s], expected, "secret {i}, session {}", s + 1);
            }
        }
    }

    #[test]
    fn batches_and_single_downgrades_in_one_tick_match_sequential_replay() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        let session = sid(conn, 1);
        let batch = [(300, 200), (10, 10), (300, 200), (9_000, 0)];

        // One tick: single, batch, single — all on the same session and secret — plus a
        // downgrade for a session nobody opened, which is not a decision.
        frontend.submit(conn, downgrade(session, 300, 200, "nearby_200_200"));
        frontend.submit(
            conn,
            ServeRequest::DowngradeBatch {
                session,
                secrets: batch.iter().map(|&(x, y)| Point::new(vec![x, y])).collect(),
                query: "nearby_200_200".into(),
            },
        );
        frontend.submit(conn, downgrade(session, 300, 200, "nearby_200_200"));
        frontend.submit(conn, downgrade(SessionId(77), 300, 200, "nearby_200_200"));
        let answers: Vec<ServeResponse> = frontend.tick().into_iter().map(|t| t.response).collect();

        let mut reference = reference_session(PolicySpec::MinSize(100));
        let mut replay = |x: i64, y: i64| {
            reference.downgrade(&Protected::new(Point::new(vec![x, y])), "nearby_200_200")
        };
        let first = ServeResponse::Answer(replay(300, 200).map_err(Denial::from));
        let batched = ServeResponse::Answers(
            batch.iter().map(|&(x, y)| replay(x, y).map_err(|e| DenialCode::of(&e))).collect(),
        );
        let last = ServeResponse::Answer(replay(300, 200).map_err(Denial::from));
        let unknown = ServeResponse::Answer(Err(Denial::unknown_session(SessionId(77))));
        assert_eq!(answers, vec![first, batched, last, unknown]);
        assert_eq!(frontend.stats().batched_downgrades, 6, "1 + 4 + 1 decisions");
        assert_eq!(frontend.stats().largest_batch, 6);

        // A smaller tick adds to the total but not to the per-tick maximum.
        frontend.submit(conn, downgrade(session, 10, 10, "nearby_200_200"));
        frontend.submit(conn, downgrade(session, 10, 10, "no_such_query"));
        frontend.tick();
        assert_eq!(frontend.stats().batched_downgrades, 8);
        assert_eq!(frontend.stats().largest_batch, 6);
    }

    #[test]
    fn teardown_removes_exactly_the_openers_sessions_at_the_top_of_the_id_space() {
        let mut frontend = frontend();
        let opener = ConnId(u64::from(u32::MAX) - 2);
        // The neighbour holds the topmost id lane and uses one of the opener's sessions.
        let neighbour = ConnId(u64::from(u32::MAX) - 1);
        frontend.submit(
            opener,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(opener, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(opener, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(neighbour, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        assert_eq!(frontend.open_sessions(), 3);

        frontend.submit(neighbour, downgrade(sid(opener, 1), 300, 200, "nearby_200_200"));
        frontend.disconnect(neighbour);
        frontend.tick();
        assert_eq!(frontend.open_sessions(), 2, "the neighbour only used the opener's session");
        assert_eq!(frontend.stats().sessions_torn_down, 1);

        frontend.disconnect(opener);
        frontend.submit(neighbour, downgrade(sid(opener, 1), 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        assert_eq!(
            responses[0].response,
            ServeResponse::Answer(Err(Denial::unknown_session(sid(opener, 1))))
        );
        assert_eq!(frontend.open_sessions(), 0);
        assert_eq!(frontend.stats().sessions_torn_down, 3);
    }
}

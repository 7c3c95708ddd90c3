//! The sequential-replay oracle and shared query palette for the protocol-level determinism
//! tests (`proptest_frontend.rs`, `sim_chaos.rs`).
//!
//! The specification of the whole serving stack — frontend batching, the event-loop reactor,
//! every transport — is *one request at a time against plain owned
//! [`AnosySession`]s*: `downgrade` per downgrade request, a sequential loop per batch request,
//! a fresh sequential solver per `count`/`valid` request, sessions removed when their
//! connection closes or disconnects. Whatever a test drives (arbitrary tick splits, simulated
//! network chaos), the observed responses must be element-wise identical to this oracle's.
//!
//! The query palette is synthesized once per test process and shared as warm-start entries, so
//! case counts do not multiply solver work — and the system under test and the oracle provably
//! run on identical approximations.

#![allow(dead_code)] // each test binary uses the slice of this support module it needs

use anosy_core::{AnosySession, PolicySpec, QInfo, SharedCacheEntry};
use anosy_domains::IntervalDomain;
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_serve::{
    ConnId, Denial, DenialCode, Deployment, ServeConfig, ServeRequest, ServeResponse, SessionId,
};
use anosy_solver::{Solver, ValidityOutcome};
use anosy_synth::{ApproxKind, DomainCodec, IndSets, QueryDef};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The paper's 400 × 400 location grid.
pub fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

/// Origins of the palette's `nearby` queries.
pub const ORIGINS: [(i64, i64); 3] = [(200, 200), (300, 200), (150, 260)];

/// Thresholds of the probe ladder (`x <= c`): the ascending walk the adversarial
/// probe-until-refused scenario in `sim_chaos.rs` climbs until the policy denies. The steps
/// are geometric (each rung halves the remaining headroom), so for a secret above every
/// threshold each committed `false` posterior shrinks until a min-size policy must refuse.
pub const PROBE_THRESHOLDS: [i64; 7] = [200, 300, 350, 375, 387, 393, 396];

/// The `index`-th palette query.
pub fn query(index: usize) -> QueryDef {
    let (xo, yo) = ORIGINS[index];
    let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100);
    QueryDef::new(format!("nearby_{xo}_{yo}"), layout(), pred).unwrap()
}

/// The `index`-th probe-ladder query: `x <= PROBE_THRESHOLDS[index]`.
pub fn probe_query(index: usize) -> QueryDef {
    let c = PROBE_THRESHOLDS[index];
    QueryDef::new(format!("probe_le_{c}"), layout(), IntExpr::var(0).le(c)).unwrap()
}

/// The palette (nearby queries plus the probe ladder), synthesized once per test process and
/// exported as warm-start entries.
pub fn entries() -> &'static Vec<SharedCacheEntry<IntervalDomain>> {
    static ENTRIES: OnceLock<Vec<SharedCacheEntry<IntervalDomain>>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let deployment: Deployment<IntervalDomain> =
            Deployment::new(layout(), ServeConfig::for_tests());
        for index in 0..ORIGINS.len() {
            deployment.register_query(&query(index), ApproxKind::Under, None).unwrap();
        }
        for index in 0..PROBE_THRESHOLDS.len() {
            deployment.register_query(&probe_query(index), ApproxKind::Under, None).unwrap();
        }
        deployment.shared().export_entries()
    })
}

/// The `pred_index`-th palette query filed under the `name_index`-th palette query's name —
/// a registration that replaces whatever that name maps to.
pub fn renamed_query(pred_index: usize, name_index: usize) -> QueryDef {
    let pred = query(pred_index).pred().clone();
    QueryDef::new(query(name_index).name(), layout(), pred).unwrap()
}

/// The palette's synthesized ind. sets for `q` (panics for non-palette queries).
pub fn indsets_of(q: &QueryDef) -> IndSets<IntervalDomain> {
    entries().iter().find(|e| &e.pred == q.pred()).expect("palette entry exists").indsets.clone()
}

/// A small policy palette (lax, strict, allow-all).
pub fn policy(index: usize) -> PolicySpec {
    [PolicySpec::MinSize(100), PolicySpec::MinSize(30_000), PolicySpec::AllowAll][index % 3].clone()
}

/// A test deployment pre-warmed with the palette, so no test case ever synthesizes. Its pool
/// runs four workers, so an answer that depended on the pool's width would diverge from the
/// oracle.
pub fn warm_deployment() -> Deployment<IntervalDomain> {
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(layout(), ServeConfig::for_tests().with_workers(4));
    for entry in entries() {
        deployment.shared().insert_ready(entry.clone());
    }
    deployment
}

/// The session id of `conn`'s `k`-th open: `((conn + 1) << 32) | k`, the connection-scoped
/// scheme documented on [`SessionId`].
pub fn session_id(conn: u64, k: u64) -> u64 {
    ((conn + 1) << 32) | k
}

/// The specification: one request at a time against plain owned sessions — `downgrade` per
/// downgrade request, a sequential loop per batch request, a fresh sequential [`Solver`] per
/// `count`/`valid` request, and [`Oracle::disconnect`] removing the sessions a connection
/// opened, at the position the disconnect holds in the request sequence.
pub struct Oracle {
    layout: SecretLayout,
    palette: Vec<SharedCacheEntry<IntervalDomain>>,
    /// Session id → (the connection that opened it, the session).
    sessions: BTreeMap<u64, (ConnId, AnosySession<IntervalDomain>)>,
    registry: Vec<(QueryDef, IndSets<IntervalDomain>)>,
    /// Opens seen per connection: the `k` of each connection's next [`session_id`].
    conn_opens: BTreeMap<u64, u64>,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

impl Oracle {
    /// An oracle with no sessions and no registered queries, over the shared test palette.
    pub fn new() -> Oracle {
        Oracle::with_palette(layout(), entries().clone())
    }

    /// An oracle over an arbitrary layout and approximation palette — the population simulator
    /// hands in the exact entries the system under test synthesized, so both replay on
    /// provably identical approximations.
    pub fn with_palette(
        layout: SecretLayout,
        palette: Vec<SharedCacheEntry<IntervalDomain>>,
    ) -> Oracle {
        Oracle {
            layout,
            palette,
            sessions: BTreeMap::new(),
            registry: Vec::new(),
            conn_opens: BTreeMap::new(),
        }
    }

    /// The palette's synthesized ind. sets for `q` (panics for non-palette queries).
    fn palette_indsets(&self, q: &QueryDef) -> IndSets<IntervalDomain> {
        self.palette
            .iter()
            .find(|e| &e.pred == q.pred())
            .expect("palette entry exists")
            .indsets
            .clone()
    }

    /// Sessions currently open — must equal the system under test's `open_sessions` after any
    /// replay (the no-leak check).
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Removes every session `conn` opened (a transport disconnect).
    pub fn disconnect(&mut self, conn: ConnId) {
        self.sessions.retain(|_, (owner, _)| *owner != conn);
    }

    /// Replays one request arriving on `conn`, sequentially.
    pub fn apply(&mut self, conn: ConnId, request: &ServeRequest) -> ServeResponse {
        match request {
            ServeRequest::OpenSession { policy } => {
                let opens = self.conn_opens.entry(conn.0).or_insert(0);
                *opens += 1;
                let id = session_id(conn.0, *opens);
                let mut session = AnosySession::new(self.layout.clone(), policy.clone());
                for (query, indsets) in &self.registry {
                    session.register(QInfo::new(query.clone(), indsets.clone()));
                }
                self.sessions.insert(id, (conn, session));
                ServeResponse::SessionOpened { session: SessionId(id) }
            }
            ServeRequest::RegisterQuery { query, .. } => {
                // Re-registering the query the name currently maps to changes nothing: sessions
                // already hold it (broadcast at registration, registry replay at open), so the
                // broadcast is skipped. Only the *latest* entry under the name counts — after
                // A, B, A under one name, the third registration must reinstall A.
                if self
                    .registry
                    .iter()
                    .rev()
                    .find(|(q, _)| q.name() == query.name())
                    .is_some_and(|(q, _)| q == query)
                {
                    return ServeResponse::QueryRegistered { name: query.name().to_string() };
                }
                let indsets = self.palette_indsets(query);
                for (_, session) in self.sessions.values_mut() {
                    session.register(QInfo::new(query.clone(), indsets.clone()));
                }
                self.registry.push((query.clone(), indsets));
                ServeResponse::QueryRegistered { name: query.name().to_string() }
            }
            ServeRequest::Downgrade { session, secret, query } => {
                let Some((_, open)) = self.sessions.get_mut(&session.0) else {
                    return ServeResponse::Answer(Err(Denial::unknown_session(*session)));
                };
                ServeResponse::Answer(
                    open.downgrade(&Protected::new(secret.clone()), query).map_err(Denial::from),
                )
            }
            ServeRequest::DowngradeBatch { session, secrets, query } => {
                let Some((_, open)) = self.sessions.get_mut(&session.0) else {
                    return ServeResponse::Rejected(Denial::unknown_session(*session));
                };
                ServeResponse::Answers(
                    secrets
                        .iter()
                        .map(|s| {
                            open.downgrade(&Protected::new(s.clone()), query)
                                .map_err(|e| DenialCode::of(&e))
                        })
                        .collect(),
                )
            }
            ServeRequest::Knowledge { session, secret } => {
                let Some((_, open)) = self.sessions.get(&session.0) else {
                    return ServeResponse::Rejected(Denial::unknown_session(*session));
                };
                let knowledge = open.knowledge_of(secret);
                ServeResponse::Knowledge {
                    size: knowledge.size(),
                    encoded: knowledge.domain().encode(),
                }
            }
            ServeRequest::CloseSession { session } => match self.sessions.remove(&session.0) {
                Some(_) => ServeResponse::SessionClosed { session: *session },
                None => ServeResponse::Rejected(Denial::unknown_session(*session)),
            },
            ServeRequest::CountModels { pred } => {
                match sequential_solver().count_models(pred, &self.layout.space()) {
                    Ok(models) => ServeResponse::Count { models },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::CheckValidity { pred } => {
                match sequential_solver().check_validity(pred, &self.layout.space()) {
                    Ok(outcome) => ServeResponse::Validity {
                        counterexample: match outcome {
                            ValidityOutcome::Valid => None,
                            ValidityOutcome::CounterExample(p) => Some(p),
                        },
                    },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            other => panic!("oracle does not model {other:?}"),
        }
    }
}

/// A fresh sequential solver under the test deployments' solver budget: the oracle's answer to
/// `count` and `valid`.
fn sequential_solver() -> Solver {
    Solver::with_config(ServeConfig::for_tests().solver().clone())
}

/// A plain owned session with the palette registered — the point-wise sequential reference.
pub fn reference_session(policy: PolicySpec) -> AnosySession<IntervalDomain> {
    let mut session = AnosySession::new(layout(), policy);
    for index in 0..ORIGINS.len() {
        let q = query(index);
        let indsets = indsets_of(&q);
        session.register(QInfo::new(q, indsets));
    }
    session
}

/// Secrets from a small palette (duplicates likely) that straddles the layout boundary.
pub fn secret_grid(a: i64, b: i64) -> Point {
    Point::new(vec![a * 45 - 20, b * 44])
}

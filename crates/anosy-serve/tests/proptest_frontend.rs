//! Property: the serving frontend is indistinguishable from a sequential interpreter.
//!
//! Arbitrary request scripts — any interleaving of `OpenSession` / `RegisterQuery` /
//! `Downgrade` / `DowngradeBatch` / `Knowledge` / `CloseSession` / `CountModels` /
//! `CheckValidity` across several logical connections, chopped into arbitrary ticks, with
//! duplicate secrets inside one tick, plus transport-level disconnects tearing sessions down
//! mid-script — must yield responses element-wise identical to replaying the same requests one
//! at a time against plain owned [`anosy_core::AnosySession`]s (the shared oracle in
//! `tests/support/oracle.rs`). This is the protocol-level determinism guarantee on top of
//! `proptest_batch.rs`'s driver-level one: ticking, cross-connection interleaving and queued
//! teardown never change what any connection observes. Registrations also file palette
//! predicates under *other* palette queries' names, so scripts replace a name's query
//! (A → B → A) while sessions are open and the latest registration must win. `count` and
//! `valid` run on the deployment's four-worker pool and must answer exactly what one
//! sequential solver does.

#[path = "support/oracle.rs"]
mod support;

use anosy_domains::IntervalDomain;
use anosy_logic::{IntExpr, Point, Pred};
use anosy_serve::{ConnId, Deployment, Frontend, ServeRequest, SessionId};
use anosy_synth::ApproxKind;
use proptest::prelude::*;
use support::Oracle;

/// One scripted request, with its logical connection and tick boundary marker.
#[derive(Debug, Clone)]
enum Op {
    Open {
        conn: u64,
        policy: usize,
    },
    Register {
        conn: u64,
        query: usize,
    },
    /// The `query`-th palette predicate registered under the `name`-th palette query's name.
    RegisterAs {
        conn: u64,
        query: usize,
        name: usize,
    },
    Downgrade {
        conn: u64,
        session: u64,
        secret: Point,
        query: usize,
    },
    Batch {
        conn: u64,
        session: u64,
        secrets: Vec<Point>,
        query: usize,
    },
    Knowledge {
        conn: u64,
        session: u64,
        secret: Point,
    },
    Close {
        conn: u64,
        session: u64,
    },
    /// `count` of the `pred`-th [`solver_pred`].
    Count {
        conn: u64,
        pred: usize,
    },
    /// `valid` of the `pred`-th [`solver_pred`].
    Valid {
        conn: u64,
        pred: usize,
    },
    Disconnect {
        conn: u64,
    },
    Tick,
}

/// How many predicates [`solver_pred`] offers.
const SOLVER_PREDS: usize = 7;

/// The `count`/`valid` palette: a valid predicate, `x >= 401` (refuted everywhere, so `valid`
/// names a counterexample), the palette's `nearby` diamonds, and `true`/`false`.
fn solver_pred(index: usize) -> Pred {
    match index {
        0 => (IntExpr::var(0) + IntExpr::var(1)).ge(0),
        1 => IntExpr::var(0).ge(401),
        2..=4 => support::query(index - 2).pred().clone(),
        5 => Pred::True,
        _ => Pred::False,
    }
}

fn arb_secret() -> impl Strategy<Value = Point> {
    (0i64..=10, 0i64..=10).prop_map(|(a, b)| support::secret_grid(a, b))
}

fn arb_op() -> impl Strategy<Value = Op> {
    let conn = 0u64..3;
    // Session references run slightly past the number of opens a script can reach (the first
    // three opens of each connection, plus a connection that never opens), so unknown and
    // closed sessions occur.
    let session = (0u64..4, 1u64..4).prop_map(|(conn, k)| support::session_id(conn, k));
    prop_oneof![
        1 => (conn.clone(), 0usize..3).prop_map(|(conn, policy)| Op::Open { conn, policy }),
        1 => (conn.clone(), 0usize..3).prop_map(|(conn, query)| Op::Register { conn, query }),
        1 => (conn.clone(), 0usize..3, 0usize..3)
            .prop_map(|(conn, query, name)| Op::RegisterAs { conn, query, name }),
        5 => (conn.clone(), session.clone(), arb_secret(), 0usize..3)
            .prop_map(|(conn, session, secret, query)| Op::Downgrade {
                conn,
                session,
                secret,
                query
            }),
        1 => (conn.clone(), session.clone(), proptest::collection::vec(arb_secret(), 0..6), 0usize..3)
            .prop_map(|(conn, session, secrets, query)| Op::Batch {
                conn,
                session,
                secrets,
                query
            }),
        1 => (conn.clone(), session.clone(), arb_secret())
            .prop_map(|(conn, session, secret)| Op::Knowledge { conn, session, secret }),
        1 => (conn.clone(), session.clone()).prop_map(|(conn, session)| Op::Close { conn, session }),
        1 => (conn.clone(), 0..SOLVER_PREDS).prop_map(|(conn, pred)| Op::Count { conn, pred }),
        1 => (conn.clone(), 0..SOLVER_PREDS).prop_map(|(conn, pred)| Op::Valid { conn, pred }),
        1 => conn.prop_map(|conn| Op::Disconnect { conn }),
        2 => Just(Op::Tick),
    ]
}

fn to_request(op: &Op) -> Option<(ConnId, ServeRequest)> {
    Some(match op {
        Op::Open { conn, policy: p } => {
            (ConnId(*conn), ServeRequest::OpenSession { policy: support::policy(*p) })
        }
        Op::Register { conn, query: q } => (
            ConnId(*conn),
            ServeRequest::RegisterQuery {
                query: support::query(*q),
                kind: ApproxKind::Under,
                members: None,
            },
        ),
        Op::RegisterAs { conn, query: q, name } => (
            ConnId(*conn),
            ServeRequest::RegisterQuery {
                query: support::renamed_query(*q, *name),
                kind: ApproxKind::Under,
                members: None,
            },
        ),
        Op::Downgrade { conn, session, secret, query: q } => (
            ConnId(*conn),
            ServeRequest::Downgrade {
                session: SessionId(*session),
                secret: secret.clone(),
                query: support::query(*q).name().into(),
            },
        ),
        Op::Batch { conn, session, secrets, query: q } => (
            ConnId(*conn),
            ServeRequest::DowngradeBatch {
                session: SessionId(*session),
                secrets: secrets.clone(),
                query: support::query(*q).name().into(),
            },
        ),
        Op::Knowledge { conn, session, secret } => (
            ConnId(*conn),
            ServeRequest::Knowledge { session: SessionId(*session), secret: secret.clone() },
        ),
        Op::Close { conn, session } => {
            (ConnId(*conn), ServeRequest::CloseSession { session: SessionId(*session) })
        }
        Op::Count { conn, pred } => {
            (ConnId(*conn), ServeRequest::CountModels { pred: solver_pred(*pred) })
        }
        Op::Valid { conn, pred } => {
            (ConnId(*conn), ServeRequest::CheckValidity { pred: solver_pred(*pred) })
        }
        Op::Disconnect { .. } | Op::Tick => return None,
    })
}

/// Drives `script` through a frontend over a warm deployment and through the sequential
/// oracle, and checks that every response and the set of open sessions agree.
fn check_script(script: &[Op]) -> Result<(), TestCaseError> {
    // Frontend under test: warm deployment, requests submitted across connections,
    // tick boundaries and disconnects wherever the script put them.
    let deployment: Deployment<IntervalDomain> = support::warm_deployment();
    let mut frontend = Frontend::new(deployment);
    let mut frontend_responses = Vec::new();

    // Oracle: the same requests, one at a time, in the same submission order.
    let mut oracle = Oracle::new();
    let mut oracle_responses = Vec::new();
    // The script index of the op behind each response: ticks and disconnects answer nothing.
    let mut answered_by = Vec::new();

    for (index, op) in script.iter().enumerate() {
        match (op, to_request(op)) {
            (_, Some((conn, request))) => {
                answered_by.push(index);
                oracle_responses.push(oracle.apply(conn, &request));
                frontend.submit(conn, request);
            }
            (Op::Disconnect { conn }, None) => {
                oracle.disconnect(ConnId(*conn));
                frontend.disconnect(ConnId(*conn));
            }
            (Op::Tick, None) => {
                frontend_responses.extend(frontend.tick().into_iter().map(|t| t.response));
            }
            (other, None) => unreachable!("{other:?} must map to a request"),
        }
    }
    frontend_responses.extend(frontend.tick().into_iter().map(|t| t.response));

    prop_assert_eq!(frontend_responses.len(), oracle_responses.len());
    for (index, (got, want)) in frontend_responses.iter().zip(&oracle_responses).enumerate() {
        let op = answered_by[index];
        prop_assert_eq!(got, want, "response {} diverges for op {} {:?}", index, op, script[op]);
    }
    // Disconnect teardown leaks nothing: frontend and oracle agree on what is still open,
    // and the deployment's opened/closed ledger balances against it.
    prop_assert_eq!(frontend.open_sessions(), oracle.open_sessions());
    let cache = frontend.deployment().stats().cache;
    prop_assert_eq!(cache.sessions_opened - cache.sessions_closed, frontend.open_sessions() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_interleaving_matches_the_sequential_replay(
        script in proptest::collection::vec(arb_op(), 0..40),
    ) {
        check_script(&script)?;
    }
}

/// Registers query A, then B, then A again under A's name, with a session open throughout and
/// another opened afterwards: both must downgrade against A, the latest registration.
#[test]
fn the_latest_registration_under_a_name_wins() {
    let secret = Point::new(vec![150, 200]);
    let downgrade = |session| Op::Downgrade { conn: 0, session, secret: secret.clone(), query: 0 };
    let script = [
        Op::Open { conn: 0, policy: 2 },
        Op::Register { conn: 0, query: 0 },
        Op::RegisterAs { conn: 0, query: 1, name: 0 },
        downgrade(support::session_id(0, 1)),
        Op::Tick,
        Op::RegisterAs { conn: 0, query: 0, name: 0 },
        Op::Open { conn: 0, policy: 2 },
        downgrade(support::session_id(0, 1)),
        downgrade(support::session_id(0, 2)),
    ];
    check_script(&script).unwrap();
}

//! Serving frontend: the uniform request/response protocol, end to end.
//!
//! The other examples call `AnosySession` directly. This one talks to the deployment the way a
//! server transport would: typed `ServeRequest`s submitted over logical connections into a
//! sans-IO `Frontend`, ticks that answer many requests at once, responses tagged with request
//! ids, and the line-oriented wire form every request and response also has (`anosy-served`
//! speaks exactly these lines over stdin/stdout). Finishes with a save + verified warm start, the
//! restart path of a real deployment.
//!
//! Run with: `cargo run --release -p anosy --example serving_frontend`

use anosy::prelude::*;
use anosy::serve::{proto::ServeRequest as Req, wire, ServeResponse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(ServeConfig::new())
}

fn run(config: ServeConfig) -> Result<(), Box<dyn std::error::Error>> {
    // The deployment: the paper's 400 × 400 location grid, served through a frontend.
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let deployment: Deployment<IntervalDomain> = Deployment::new(layout.clone(), config);
    let mut frontend = Frontend::new(deployment);

    // Two logical connections: an operator registering the query set, and a client app.
    let operator = frontend.connect();
    let client = frontend.connect();

    // Tick 1 — the operator registers a query (synthesize + verify once per deployment) and the
    // client opens a session under the paper's min-size policy. Requests are plain data; their
    // wire lines are shown alongside.
    let nearby = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
    let register = Req::RegisterQuery {
        query: QueryDef::new("nearby_200_200", layout.clone(), nearby)?,
        kind: ApproxKind::Under,
        members: None,
    };
    let open = Req::OpenSession { policy: PolicySpec::parse("min-size:100").unwrap() };
    println!("-> {}", wire::encode_request(&register)?);
    println!("-> {}", wire::encode_request(&open)?);
    frontend.submit(operator, register);
    frontend.submit(client, open);
    let mut session = SessionId(0);
    for tagged in frontend.tick() {
        println!("<- {} {}", tagged.request, wire::encode_response(&tagged.response));
        if let ServeResponse::SessionOpened { session: id } = tagged.response {
            session = id;
        }
    }

    // Tick 2 — a burst of downgrade requests lands in one tick: the frontend decides each in
    // turn with the session's own step, so it answers element-wise exactly as sequential
    // `downgrade` calls would (the protocol's determinism guarantee).
    for (x, y) in [(300, 200), (10, 10), (200, 200), (300, 200)] {
        let request = Req::Downgrade {
            session,
            secret: Point::new(vec![x, y]),
            query: "nearby_200_200".into(),
        };
        println!("-> {}", wire::encode_request(&request)?);
        frontend.submit(client, request);
    }
    for tagged in frontend.tick() {
        println!("<- {} {}", tagged.request, wire::encode_response(&tagged.response));
    }

    // Tick 3 — inspect what the monitor now knows, and the deployment-wide counters.
    frontend.submit(client, Req::Knowledge { session, secret: Point::new(vec![300, 200]) });
    frontend.submit(operator, Req::Stats);
    for tagged in frontend.tick() {
        println!("<- {} {}", tagged.request, wire::encode_response(&tagged.response));
    }

    // Tick 4 — persistence: save the synthesis cache, then prove a restarted deployment can
    // warm-start from it with every entry re-verified against its refinement obligations.
    let path = std::env::temp_dir().join("anosy-serving-frontend-example.cache");
    frontend.submit(operator, Req::SaveCache { path: path.clone() });
    for tagged in frontend.tick() {
        println!("<- {} {}", tagged.request, wire::encode_response(&tagged.response));
    }

    let restarted: Deployment<IntervalDomain> =
        Deployment::new(layout, frontend.deployment().config().clone());
    let mut restarted_front = Frontend::new(restarted);
    let conn = restarted_front.connect();
    let warm = Req::WarmStart { path: path.clone(), verify: true };
    println!("-> {}", wire::encode_request(&warm)?);
    restarted_front.submit(conn, warm);
    for tagged in restarted_front.tick() {
        println!("<- {} {}", tagged.request, wire::encode_response(&tagged.response));
    }
    let stats = restarted_front.deployment().stats();
    println!(
        "restart summary: {} entr{} warm-loaded, {} synthesized — the restarted deployment \
         skips cold-start synthesis entirely.",
        stats.cache.warm_loaded,
        if stats.cache.warm_loaded == 1 { "y" } else { "ies" },
        stats.cache.synth_misses,
    );
    let _ = std::fs::remove_file(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The doc-facing walkthrough must keep running to completion (with test-sized solver
    /// budgets, so a regression surfaces as an error instead of a hang).
    #[test]
    fn serving_frontend_runs_to_completion() {
        run(ServeConfig::for_tests()).expect("the serving-frontend walkthrough succeeds");
    }
}

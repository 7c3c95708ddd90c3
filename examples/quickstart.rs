//! Quickstart: the paper's §2 walkthrough, end to end.
//!
//! A location-based application wants to show restaurant ads to nearby users without learning
//! their exact location. We declare the secret space, write the `nearby` queries, let ANOSY-RS
//! synthesize and verify their knowledge approximations, and then run the bounded downgrade
//! under the `size > 100` policy — reproducing the authorize/authorize/refuse sequence of §3.
//!
//! Run with: `cargo run --release -p anosy --example quickstart`

use anosy::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(Synthesizer::new())
}

fn run(mut synthesizer: Synthesizer) -> Result<(), Box<dyn std::error::Error>> {
    // The secret: the user's location in a 400 × 400 grid (the paper's UserLoc).
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    println!("secret space: {layout} ({} possible locations)", layout.space_size());

    // The queries: Manhattan-distance proximity checks around three restaurant branches.
    let nearby =
        |x: i64, y: i64| ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(100);
    let origins = [(200i64, 200i64), (300, 200), (400, 200)];

    // "Compile time": synthesize + verify the knowledge approximations and register them.
    let mut session: AnosySession<PowersetDomain> =
        AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
    for (x, y) in origins {
        let query = QueryDef::new(format!("nearby_{x}_{y}"), layout.clone(), nearby(x, y))?;
        session.register_synthesized(&mut synthesizer, &query, ApproxKind::Under, Some(3))?;
        println!("registered {} (verified knowledge approximation)", query.name());
    }

    // "Run time": the user is secretly at (300, 200).
    let secret_point = Point::new(vec![300, 200]);
    let secret = Protected::new(secret_point.clone());
    println!("\ndowngrading queries against the protected secret {secret}...");
    for (x, y) in origins {
        let name = format!("nearby_{x}_{y}");
        match session.downgrade(&secret, &name) {
            Ok(answer) => {
                let knowledge = session.knowledge_of(&secret_point);
                println!(
                    "  {name:<16} -> {answer:<5} | attacker knowledge: {} locations ({:.1} bits)",
                    knowledge.size(),
                    knowledge.shannon_entropy()
                );
            }
            Err(AnosyError::PolicyViolation {
                policy,
                posterior_true_size,
                posterior_false_size,
                ..
            }) => {
                println!(
                    "  {name:<16} -> REFUSED by {policy} (posteriors would be {posterior_true_size} / {posterior_false_size} locations)"
                );
            }
            Err(other) => return Err(other.into()),
        }
    }

    println!(
        "\nfinal knowledge still contains {} candidate locations — the exact location was never revealed.",
        session.knowledge_of(&secret_point).size()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The doc-facing walkthrough must keep running to completion (with test-sized solver
    /// budgets, so a regression surfaces as an error instead of a hang).
    #[test]
    fn quickstart_runs_to_completion() {
        let synthesizer = Synthesizer::with_config(
            SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(2),
        );
        run(synthesizer).expect("the quickstart walkthrough succeeds");
    }
}

//! Policy gallery: the same query history evaluated under different quantitative policies, plus
//! a k-ary (multi-output) query and the LIO-staged downgrade.
//!
//! Run with: `cargo run --release -p anosy --example policy_gallery`

use anosy::prelude::*;

fn build_session(
    synthesizer: &mut Synthesizer,
    layout: &SecretLayout,
    policy: impl Policy<PowersetDomain> + Send + Sync + 'static,
) -> Result<AnosySession<PowersetDomain>, AnosyError> {
    let mut session = AnosySession::new(layout.clone(), policy);
    let nearby =
        |x: i64, y: i64| ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(100);
    for (x, y) in [(200, 200), (300, 200), (400, 200), (150, 320)] {
        let query = QueryDef::new(format!("nearby_{x}_{y}"), layout.clone(), nearby(x, y))?;
        session.register_synthesized(synthesizer, &query, ApproxKind::Under, Some(3))?;
    }
    Ok(session)
}

fn run_history(session: &mut AnosySession<PowersetDomain>, secret: &Protected<Point>) -> usize {
    let names: Vec<String> = session.registered_queries().iter().map(|s| s.to_string()).collect();
    let mut authorized = 0;
    for name in names {
        match session.downgrade(secret, &name) {
            Ok(_) => authorized += 1,
            Err(_) => break,
        }
    }
    authorized
}

/// A named recipe producing a fresh session with one concrete policy installed.
type PolicyRecipe =
    Box<dyn Fn(&mut Synthesizer) -> Result<AnosySession<PowersetDomain>, AnosyError>>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(Synthesizer::new())
}

fn run(mut synthesizer: Synthesizer) -> Result<(), Box<dyn std::error::Error>> {
    let layout = SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build();
    let secret = Protected::new(Point::new(vec![300, 200]));

    println!("same query history, different quantitative policies:");
    let policies: Vec<(&str, PolicyRecipe)> = vec![
        (
            "size > 100 (the paper's qpolicy)",
            Box::new(|s: &mut Synthesizer| {
                build_session(
                    s,
                    &SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build(),
                    PolicySpec::MinSize(100),
                )
            }),
        ),
        (
            "residual entropy > 12 bits",
            Box::new(|s: &mut Synthesizer| {
                build_session(
                    s,
                    &SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build(),
                    PolicySpec::MinEntropyMillibits(12_000),
                )
            }),
        ),
        (
            "custom: Bayes vulnerability < 1%",
            Box::new(|s: &mut Synthesizer| {
                build_session(
                    s,
                    &SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build(),
                    FnPolicy::new("bayes<1%", |k: &Knowledge<PowersetDomain>| {
                        k.bayes_vulnerability() < 0.01
                    }),
                )
            }),
        ),
    ];
    for (name, build) in policies {
        let mut session = build(&mut synthesizer)?;
        let authorized = run_history(&mut session, &secret);
        println!("  {name:<38} authorized {authorized} of 4 queries");
    }

    // A k-ary query: which quadrant of the map is the user in? (four outputs + otherwise).
    println!("\nk-ary query: map quadrant (policy: size > 10,000)");
    let quadrant = KaryQuery::new(
        "quadrant",
        layout.clone(),
        vec![
            Pred::and(vec![IntExpr::var(0).le(200), IntExpr::var(1).le(200)]),
            Pred::and(vec![IntExpr::var(0).gt(200), IntExpr::var(1).le(200)]),
            Pred::and(vec![IntExpr::var(0).le(200), IntExpr::var(1).gt(200)]),
        ],
    )?;
    let mut session: AnosySession<PowersetDomain> =
        AnosySession::new(layout.clone(), PolicySpec::MinSize(10_000));
    session.register_synthesized_cases(&mut synthesizer, &quadrant, ApproxKind::Under, Some(2))?;
    match session.downgrade_output(&secret, "quadrant") {
        Ok(output) => println!("  authorized: the user is in quadrant #{output}"),
        Err(e) => println!("  refused: {e}"),
    }

    // Staging over the LIO substrate: the answer comes back as a *public* labeled value.
    println!("\nLIO-staged downgrade:");
    let mut lio = Lio::new(SecLevel::Public, SecLevel::Secret);
    let labeled_secret = lio.label(SecLevel::Secret, Point::new(vec![300, 200]))?;
    let mut session = build_session(&mut synthesizer, &layout, PolicySpec::MinSize(100))?;
    let answer = session.downgrade_labeled(&mut lio, &labeled_secret, "nearby_200_200")?;
    println!(
        "  nearby_200_200 -> {} at label {}, ambient context stays at {}",
        answer.peek_tcb(),
        answer.label(),
        lio.current_label()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The doc-facing policy tour must keep running to completion with test-sized budgets.
    #[test]
    fn gallery_runs_to_completion() {
        let synthesizer = Synthesizer::with_config(
            SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(2),
        );
        run(synthesizer).expect("the policy gallery succeeds");
    }
}

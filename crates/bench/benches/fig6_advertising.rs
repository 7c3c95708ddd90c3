//! Figure 6 — the secure-advertising case study.
//!
//! The bench regenerates the survivor curves once (printed to the log) on a reduced
//! configuration and then measures the two costs behind the figure: registering (synthesizing +
//! verifying) one `nearby` query per powerset size, and replaying a full query sequence through
//! the `AnosyT` session (which is where the "posteriors are free at runtime" claim shows up).
//!
//! The full paper-scale figure (50 queries × 20 runs × k ∈ {1,3,5,7,10}) is produced by
//! `cargo run --release -p bench --bin report_fig6`.

use anosy::prelude::*;
use anosy::suite::{run_advertising, AdvertisingConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn reduced_config() -> AdvertisingConfig {
    let mut c = AdvertisingConfig::paper();
    c.num_queries = 12;
    c.runs = 6;
    c.powerset_sizes = vec![1, 3, 5];
    c
}

fn bench_fig6(c: &mut Criterion) {
    let config = reduced_config();
    let outcomes = run_advertising(&config).expect("experiment runs");
    eprintln!(
        "\nFigure 6 (reduced: {} queries, {} runs)\n{}",
        config.num_queries,
        config.runs,
        bench::render_fig6(&outcomes, config.num_queries)
    );

    let layout = config.layout();
    let nearby = |x: i64, y: i64| {
        ((IntExpr::var(0) - x).abs() + (IntExpr::var(1) - y).abs()).le(config.radius)
    };

    let mut registration = c.benchmark_group("fig6_register_query");
    registration.sample_size(10);
    registration.measurement_time(std::time::Duration::from_secs(1));
    registration.warm_up_time(std::time::Duration::from_millis(300));
    for k in [1usize, 3, 10] {
        registration.bench_function(format!("k{k}"), |bencher| {
            bencher.iter(|| {
                let mut synth = Synthesizer::new();
                let mut session: AnosySession<PowersetDomain> =
                    AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
                let query =
                    QueryDef::new("nearby_bench", layout.clone(), nearby(137, 242)).unwrap();
                session
                    .register_synthesized(&mut synth, &query, ApproxKind::Under, Some(k))
                    .expect("registration succeeds");
                black_box(session)
            })
        });
    }
    registration.finish();

    // Runtime cost of a downgrade sequence once synthesis is done (posteriors are intersections).
    let mut runtime = c.benchmark_group("fig6_downgrade_sequence");
    runtime.sample_size(10);
    runtime.measurement_time(std::time::Duration::from_secs(1));
    runtime.warm_up_time(std::time::Duration::from_millis(300));
    for k in [1usize, 3, 10] {
        let mut synth = Synthesizer::new();
        let mut session: AnosySession<PowersetDomain> =
            AnosySession::new(layout.clone(), PolicySpec::MinSize(100));
        let origins = [(120, 240), (250, 180), (300, 310), (90, 90), (210, 205)];
        for (i, (x, y)) in origins.iter().enumerate() {
            let query =
                QueryDef::new(format!("nearby_{i}"), layout.clone(), nearby(*x, *y)).unwrap();
            session
                .register_synthesized(&mut synth, &query, ApproxKind::Under, Some(k))
                .expect("registration succeeds");
        }
        runtime.bench_function(format!("k{k}/5_queries"), |bencher| {
            bencher.iter(|| {
                session.reset_knowledge();
                let secret = Protected::new(Point::new(vec![205, 215]));
                let mut answered = 0usize;
                for i in 0..origins.len() {
                    if session.downgrade(&secret, &format!("nearby_{i}")).is_ok() {
                        answered += 1;
                    }
                }
                black_box(answered)
            })
        });
    }
    runtime.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);

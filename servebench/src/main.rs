//! `servebench` — the served end-to-end benchmark of `anosy-served` (see `README.md`).
//!
//! ```text
//! servebench --workload <hot-downgrade|bulk-powerset|cold-register> --seed N --seconds S --trace 0|1
//! servebench --smoke [--seed N] [--seconds S]
//! ```
//!
//! Run from the repository root. It builds the release `anosy-served` first, prints each run's
//! metadata and metrics, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The exit code is non-zero on
//! any failed request, wrong answer or knowledge-floor violation.

mod host;
mod layers;
mod served;
mod stats;
mod workload;

use anosy_domains::{IntervalDomain, PowersetDomain};
use served::{Env, Op, Opts, Served};
use stats::{json_num, json_str, latency, median, metric, Metric};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workload::{Domain, Workload};

/// Rounds of an end-to-end run of a time-windowed workload; each measures `seconds / ROUNDS`.
const ROUNDS: usize = 25;

/// A workload that counts its rounds in tenants repeats them until `seconds` have passed, and
/// runs at least this many.
const MIN_ROUNDS: usize = 3;

/// Where runs write server logs, traces and result files (inside the checkout).
const OUT_DIR: &str = "servebench/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Defaults to 10 for a run and 1 per workload for the smoke test.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: servebench --workload <{}> --seed N --seconds S --trace 0|1\n       servebench --smoke [--seed N] [--seconds S]",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut args = Args { workload: None, seed: 1, seconds: None, trace: false, smoke: false };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => args.trace = value() == "1",
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.seconds.is_some_and(|s: f64| s.is_nan() || s <= 0.0)
        || (!args.smoke && args.workload.is_none())
    {
        usage();
    }
    if let Some(name) = &args.workload {
        if !workload::NAMES.contains(&name.as_str()) {
            usage();
        }
    }
    args
}

/// Builds the release `anosy-served` from the checkout's sources and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "anosy-serve",
            "--bin",
            "anosy-served",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building anosy-served failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|| "target".into());
    let bin = target.join("release").join("anosy-served");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

/// The checkout's commit, when it is a git repository.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One finished run: correctness, request counts, metrics and the metadata beside them.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra metadata fields (`"key": value` JSON pairs).
    pub meta: Vec<(String, String)>,
    pub problems: Vec<String>,
}

impl Outcome {
    fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            stats::metrics_json(&self.metrics)
        )
    }

    fn meta_json(&self) -> String {
        let fields: Vec<String> =
            self.meta.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Checks the recorded answers of tenants that had no pre-computed expectations against the
/// sequential oracle. Returns the mismatches.
pub fn check_recorded(workload: &Workload, recorded: &[workload::Recorded]) -> Vec<String> {
    fn check<D>(
        palette: &[anosy_synth::QueryDef],
        members: Option<usize>,
        recorded: &[workload::Recorded],
    ) -> Vec<String>
    where
        D: anosy_synth::DomainCodec + anosy_core::SynthesizeInto + Send + Sync + 'static,
    {
        let deployment = workload::oracle_deployment::<D>();
        let mut wrong = Vec::new();
        for (tenant, answers) in recorded {
            let expected = workload::oracle(
                &deployment,
                palette,
                tenant,
                members,
                answers.iter().map(|(i, _)| *i),
            );
            for ((step, got), want) in answers.iter().zip(expected) {
                if *got != want {
                    wrong.push(format!(
                        "tenant `{}` step {step}: oracle `{want}`, server `{got}`",
                        tenant.policy
                    ));
                }
            }
        }
        wrong
    }
    match workload.domain {
        Domain::Interval => check::<IntervalDomain>(&workload.palette, workload.members, recorded),
        Domain::Powerset => check::<PowersetDomain>(&workload.palette, workload.members, recorded),
    }
}

/// Folds a served run's failures, wrong answers and post-run oracle check into an outcome.
pub fn outcome_of(workload: &Workload, runs: &[&Served]) -> Outcome {
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for run in runs {
        attempted += run.setup.sent + run.timed.sent + run.probe.sent;
        failed += run.setup.failed + run.timed.failed + run.probe.failed + run.log_failures;
        if let Some(e) = &run.error {
            problems.push(e.clone());
        }
        if run.log_failures > 0 {
            problems.push(format!("the server logged {} failed connections", run.log_failures));
        }
        problems.extend(run.setup.wrong.iter().chain(&run.timed.wrong).cloned());
    }
    // One oracle for every round, so tenants that repeat round after round synthesize once.
    let recorded: Vec<workload::Recorded> =
        runs.iter().flat_map(|r| r.timed.recorded.iter().cloned()).collect();
    problems.extend(check_recorded(workload, &recorded));
    if failed == 0 && runs.iter().any(|r| r.error.is_some()) {
        failed = 1;
    }
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        meta: Vec::new(),
        problems,
    }
}

/// Where a workload's register round trips come from: the timed phase where it registers
/// (cold-register); else set-up, which registers the palette on a fresh server every round
/// (all cache misses).
pub fn register_samples<'a>(workload: &Workload, run: &'a Served) -> &'a served::Tally {
    if workload.palette.is_empty() {
        &run.timed
    } else {
        &run.setup
    }
}

/// Seconds per answered request of a round's window.
fn seconds_per_request(run: &Served) -> f64 {
    run.window_s / run.timed.events.len().max(1) as f64
}

/// A round's timed quantities, each divided by the round's host factor (`host::factor`):
/// what the round would have measured had the host run at its reference speed throughout.
struct Scaled {
    setup_s: f64,
    requests_per_s: f64,
    decisions_per_s: f64,
    /// Round trips in nanoseconds; `None` when the round has no such request.
    downgrade: Option<stats::Latency>,
    /// Timed registrations (cold-register).
    register: Option<stats::Latency>,
    /// Set-up registrations of the palette, in palette order, in nanoseconds.
    palette: Vec<f64>,
    cpu_us_per_request: f64,
}

fn scaled(run: &Served, factor: f64) -> Scaled {
    let round_trips = |mut samples: Vec<u64>| {
        if samples.is_empty() {
            return None;
        }
        let summary = latency(&mut samples, 0.99);
        Some(stats::Latency { p50: summary.p50 / factor, tail: summary.tail / factor, ..summary })
    };
    let window_s = run.window_s / factor;
    Scaled {
        setup_s: run.setup_s / factor,
        requests_per_s: run.timed.events.len() as f64 / window_s,
        decisions_per_s: run.timed.total(|e| u64::from(e.decisions)) as f64 / window_s,
        downgrade: round_trips(run.timed.rtts(Op::Downgrade)),
        register: round_trips(run.timed.rtts(Op::Register)),
        palette: run.setup.rtts(Op::Register).iter().map(|&ns| ns as f64 / factor).collect(),
        cpu_us_per_request: run.cpu_s * 1e6 / run.cpu_requests.max(1) as f64 / factor,
    }
}

/// Set-up registrations: each palette query's median over the rounds (every round registers
/// the palette on a fresh server, in the same order, all cache misses), then the median of
/// those and, as the tail, the slowest of them, because a palette of 8 or 18 queries holds no
/// percentile with ten samples beyond it. A registration takes a few milliseconds, so a stall
/// of the host shows in full in the one it hits; the median over rounds leaves it out.
fn palette_registrations(scaled: &[Scaled]) -> stats::Latency {
    let queries = scaled.iter().map(|s| s.palette.len()).min().unwrap_or(0);
    let per_query: Vec<f64> = (0..queries)
        .map(|q| median(&scaled.iter().map(|s| s.palette[q]).collect::<Vec<_>>()))
        .collect();
    stats::Latency {
        n: scaled.iter().map(|s| s.palette.len()).sum(),
        p50: median(&per_query),
        tail: per_query.iter().copied().fold(0.0, f64::max),
        tail_q: 1.0,
    }
}

fn end_to_end(env: &Env, host: &Host, name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut workload = workload::build(name, seed, host::nproc())
        .expect("workload names are checked at parse time");
    let window = seconds / ROUNDS as f64;
    let opts = Opts { seconds: window, warmup: window / 10.0, telemetry: false, stats_probe: 0.0 };
    let started = Instant::now();
    let mut rounds: Vec<Served> = Vec::new();
    let mut cpus = Vec::new();
    let mut factors = Vec::new();
    loop {
        cpus.push(host::pin_to_fastest(&host.cpus));
        let before = host::ping_pong_s();
        let run = served::serve(env, &mut workload, &opts);
        factors.push(host::factor(before, host::ping_pong_s()));
        let stopped = run.error.is_some();
        rounds.push(run);
        let done = match workload.round_tenants {
            None => rounds.len() >= ROUNDS,
            Some(_) => rounds.len() >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds,
        };
        if stopped || done {
            break;
        }
    }
    let mut outcome = outcome_of(&workload, &rounds.iter().collect::<Vec<_>>());
    // The host slows down by up to about 2x while its neighbours are busy, in spells that can
    // outlast a whole run. Every timed quantity of a round is therefore scaled by the host's
    // speed during that round, and the run reports the median over its rounds.
    let scaled: Vec<Scaled> = rounds.iter().zip(&factors).map(|(r, &f)| scaled(r, f)).collect();
    let over_rounds = |f: &dyn Fn(&Scaled) -> Option<f64>| {
        median(&scaled.iter().filter_map(f).collect::<Vec<_>>())
    };
    let latencies = |f: &dyn Fn(&Scaled) -> Option<stats::Latency>| {
        let all: Vec<stats::Latency> = scaled.iter().filter_map(f).collect();
        stats::Latency {
            n: all.iter().map(|l| l.n).sum(),
            p50: median(&all.iter().map(|l| l.p50).collect::<Vec<_>>()),
            tail: median(&all.iter().map(|l| l.tail).collect::<Vec<_>>()),
            tail_q: all.iter().map(|l| l.tail_q).fold(1.0, f64::min),
        }
    };
    let downgrade = latencies(&|s| s.downgrade);
    let register = if workload.palette.is_empty() {
        latencies(&|s| s.register)
    } else {
        palette_registrations(&scaled)
    };
    // A set-up takes milliseconds, so one stall of the host can double it; stalls only ever
    // add time, so `setup_s` is the lower quartile over rounds rather than the median.
    let setup_s = stats::quantile(&scaled.iter().map(|s| s.setup_s).collect::<Vec<_>>(), 0.25);
    let sum = |f: &dyn Fn(&Served) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("requests_per_s", over_rounds(&|s| Some(s.requests_per_s)), "1/s"),
        metric("decisions_per_s", over_rounds(&|s| Some(s.decisions_per_s)), "1/s"),
        metric("downgrade_p50_us", downgrade.p50 / 1e3, "us"),
        metric("downgrade_p99_us", downgrade.tail / 1e3, "us"),
        metric("register_p50_ms", register.p50 / 1e6, "ms"),
        metric("register_p99_ms", register.tail / 1e6, "ms"),
        metric(
            "authorized_frac",
            sum(&|r| r.timed.total(|e| u64::from(e.authorized)))
                / sum(&|r| r.timed.total(|e| u64::from(e.decisions))).max(1.0),
            "fraction",
        ),
        metric(
            "peak_rss_mb",
            median(&rounds.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect::<Vec<_>>()),
            "MB",
        ),
        metric("server_cpu_us_per_request", over_rounds(&|s| Some(s.cpu_us_per_request)), "us"),
    ];
    let workers = rounds.iter().find_map(|r| r.stats_before).map(|s| s.serve.workers).unwrap_or(0);
    let phase = |tally: &dyn Fn(&Served) -> &served::Tally| {
        let sum =
            |f: &dyn Fn(&served::Tally) -> u64| rounds.iter().map(|r| f(tally(r))).sum::<u64>();
        format!(
            "{{\"sent\": {}, \"succeeded\": {}, \"failed\": {}}}",
            sum(&|t| t.sent),
            sum(&|t| t.ok),
            sum(&|t| t.failed)
        )
    };
    let list = |f: &dyn Fn(&Served) -> f64| {
        let values: Vec<String> = rounds.iter().map(|r| format!("{:.0}", f(r))).collect();
        format!("[{}]", values.join(", "))
    };
    outcome.meta = vec![
        ("failed_frac".into(), json_num(failed_frac)),
        ("workers".into(), workers.to_string()),
        ("telemetry".into(), "false".into()),
        ("rounds".into(), rounds.len().to_string()),
        ("cpu_by_round".into(), {
            let cpus: Vec<String> =
                cpus.iter().map(|c| c.map_or("null".to_string(), |c| c.to_string())).collect();
            format!("[{}]", cpus.join(", "))
        }),
        ("host_factor_by_round".into(), {
            let factors: Vec<String> = factors.iter().map(|f| format!("{f:.3}")).collect();
            format!("[{}]", factors.join(", "))
        }),
        (
            "round".into(),
            match workload.round_tenants {
                Some(tenants) => format!("{{\"tenants\": {tenants}}}"),
                None => format!(
                    "{{\"window_s\": {}, \"warmup_s\": {}}}",
                    json_num(window),
                    json_num(opts.warmup)
                ),
            },
        ),
        ("setup_phase".into(), phase(&|r| &r.setup)),
        ("timed_phase".into(), phase(&|r| &r.timed)),
        (
            "server_log_failures".into(),
            rounds.iter().map(|r| r.log_failures).sum::<u64>().to_string(),
        ),
        ("requests_per_s_by_round".into(), list(&|r| 1.0 / seconds_per_request(r))),
        ("setup_us_by_round".into(), list(&|r| r.setup_s * 1e6)),
        ("downgrade_samples".into(), downgrade.n.to_string()),
        ("downgrade_tail_percentile".into(), json_num(downgrade.tail_q * 100.0)),
        ("register_samples".into(), register.n.to_string()),
        ("register_tail_percentile".into(), json_num(register.tail_q * 100.0)),
        (
            "register_phase".into(),
            json_str(if workload.palette.is_empty() { "timed" } else { "setup" }),
        ),
        (
            "floor_checks".into(),
            rounds.iter().map(|r| r.timed.floor_checks).sum::<u64>().to_string(),
        ),
        ("sockets".into(), workload.sockets.to_string()),
        ("logical_clients".into(), workload.clients.to_string()),
        ("protocol".into(), json_str(if workload.binary { "binary" } else { "line" })),
    ];
    outcome
}

/// Runs one workload end to end (`trace` false) or traced, printing metadata and metrics.
fn run_one(env: &Env, host: &Host, name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = if trace {
        layers::traced(env, name, seed, seconds)
    } else {
        end_to_end(env, host, name, seed, seconds)
    };
    let mut meta = vec![
        ("workload".to_string(), json_str(name)),
        ("seed".to_string(), seed.to_string()),
        ("trace".to_string(), trace.to_string()),
        ("nproc".to_string(), host.nproc.to_string()),
        ("cpus".to_string(), format!("{:?}", host.cpus)),
        ("git_commit".to_string(), json_str(&git_commit())),
        ("build_profile".to_string(), json_str("release")),
    ];
    meta.append(&mut outcome.meta);
    outcome.meta = meta;
    println!("# meta {}", outcome.meta_json());
    for m in &outcome.metrics {
        println!("#   {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in outcome.problems.iter().take(10) {
        println!("# PROBLEM {problem}");
    }
    let record =
        format!("{{\"meta\": {}, \"result\": {}}}\n", outcome.meta_json(), outcome.result_json());
    let file = Path::new(OUT_DIR).join(format!("{name}-{seed}-trace{}.json", u8::from(trace)));
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("servebench: cannot write {}: {e}", file.display());
    }
    outcome
}

/// The host the benchmark runs on: its hardware threads, and the CPUs the benchmark may
/// confine itself and its servers to (see `host`).
struct Host {
    nproc: usize,
    cpus: Vec<usize>,
}

/// Every workload, end to end and traced, briefly, on two seeds: the benchmark's own test.
fn smoke(env_for: impl Fn(&str) -> Env, host: &Host, seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for seed in [seed, seed + 1] {
        for name in workload::NAMES {
            for trace in [false, true] {
                println!("# smoke {name} seed={seed} trace={}", u8::from(trace));
                let outcome =
                    run_one(&env_for(&format!("{name}-{seed}")), host, name, seed, seconds, trace);
                if !outcome.correct || outcome.failed > 0 {
                    println!("# smoke FAILED: {name} seed={seed} trace={}", u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    println!("# smoke {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() {
    let args = parse_args();
    let server_bin = match build_server() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    let host = Host { nproc: host::nproc(), cpus: host::allowed_cpus() };
    // Confined from here on: the workloads size themselves to one CPU.
    host::pin_to_fastest(&host.cpus);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("servebench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let env_for = |tag: &str| Env {
        server_bin: server_bin.clone(),
        out_dir: PathBuf::from(OUT_DIR),
        tag: tag.to_string(),
    };
    if args.smoke {
        let passed = smoke(env_for, &host, args.seed, args.seconds.unwrap_or(1.0));
        std::process::exit(if passed { 0 } else { 1 });
    }
    let name = args.workload.expect("checked at parse time");
    let env = env_for(&format!("{name}-{}", args.seed));
    let outcome = run_one(&env, &host, &name, args.seed, args.seconds.unwrap_or(10.0), args.trace);
    println!("{}", outcome.result_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use served::{Event, Tally};

    #[test]
    fn a_round_on_a_slow_host_is_scaled_to_the_reference_speed() {
        let event =
            Event { at_us: 0, rtt_ns: 1_000, op: Op::Downgrade, decisions: 1, authorized: 1 };
        let run = Served {
            setup_s: 0.5,
            setup: Tally::default(),
            timed: Tally { events: vec![event; 10], ..Tally::default() },
            probe: Tally::default(),
            window_s: 2.0,
            cpu_s: 1.0,
            cpu_requests: 10,
            peak_rss_kb: 0,
            stats_before: None,
            stats_after: None,
            log_failures: 0,
            error: None,
        };
        // The host ran at half the reference speed: the round's times halve, its rates double.
        let s = scaled(&run, 2.0);
        assert_eq!(s.setup_s, 0.25);
        assert_eq!((s.requests_per_s, s.decisions_per_s), (10.0, 10.0));
        assert_eq!(s.downgrade.map(|l| (l.p50, l.n)), Some((500.0, 10)));
        assert!(s.register.is_none() && s.palette.is_empty(), "the round registered nothing");
        assert_eq!(s.cpu_us_per_request, 50_000.0);
    }
}

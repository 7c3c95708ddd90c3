//! `anosy-served` — the serving protocol over stdin/stdout or a TCP socket.
//!
//! Both transports are served the same way: as the shards of one [`anosy_serve::ReactorPool`]
//! (one shard unless `--reactors` asks for more), each an event-loop reactor
//! ([`anosy_serve::Server`]) around the sans-IO [`anosy_serve::Frontend`]: each input line is
//! one request in the [`anosy_serve::wire`] text form, each output line one tagged response
//! (`<conn>.<seq> <response>`). Examples, tests, CI smoke scripts and network clients all speak
//! this one format — the canned smoke transcript produces byte-identical output over a pipe,
//! over a loopback socket and over a multi-reactor pool (up to the stats line's shard stamp).
//!
//! ```text
//! anosy-served --layout "x:0:400 y:0:400" [options] < requests > responses
//! anosy-served --layout "x:0:400 y:0:400" --listen 127.0.0.1:7070 [options]
//! ```
//!
//! Options:
//!
//! * `--layout "<name:lo:hi> ..."` — the secret space served (required);
//! * `--domain interval|powerset` — the knowledge domain (default `interval`);
//! * `--workers N` — threads of the shard pool behind `count` and `valid` requests (the
//!   parallel solver driver; default: available parallelism). Downgrades never use the pool:
//!   they are decided on the reactor thread at any width;
//! * `--box-memo-min-depth N` — the shared store's `(id, box)` memo threshold;
//! * `--save-on-exit PATH` — save a snapshot of the synthesis cache after the last request;
//! * `--journal PATH` — durability between saves ([`anosy_serve::journal`]): warm-restart from
//!   `PATH.snapshot` + `PATH` (both replayed up to their good prefix, so a torn snapshot or
//!   journal tail loses only the cut record), then append every newly synthesized entry to
//!   `PATH` as it commits. Recovery reports as a
//!   `# journal recovered replayed=N torn=N snapshot_loaded=N skipped=N` line, where `torn`
//!   counts tears in both files. To load some other snapshot, send a `warm path=...` request;
//! * `--verify-on-load` — with `--journal`: re-verify every recovered entry with the solver
//!   before installing it ([`anosy_serve::Deployment::warm_start`]);
//! * `--journal-flush every-entry-fsync|every-entry|every-N|on-tick` — when journal appends
//!   reach the OS (default `every-entry`); `every-entry-fsync` additionally `fsync`s every
//!   append to the device, the strongest rung;
//! * `--compact-every N` — with `--journal`: every `N` server ticks, fold the journal into its
//!   snapshot while serving continues (no stop-the-world);
//! * `--ticked` — accumulate requests and tick only on blank lines, quiescence timers and
//!   connection teardown, so scripted transcripts control batching; the default ticks after
//!   every request line;
//! * `--listen ADDR` — serve TCP connections on `ADDR` instead of stdin/stdout (port 0 picks a
//!   free port; the bound address is announced as a `# listening on ADDR reactors=N` line on
//!   stdout).
//!   Sockets are served readiness-based ([`anosy_serve::PollTransport`]: epoll where the
//!   platform has it, the portable sleep loop otherwise) — responses are byte-identical either
//!   way;
//! * `--accept N` — with `--listen`: exit after `N` connections have been served (tests);
//! * `--tick-ms MS` — with `--listen --ticked`: quiescence timer, ticking pending work after
//!   `MS` milliseconds of idleness;
//! * `--reactors N` — with `--listen`: shard connections across `N` reactor threads over the
//!   one shared deployment ([`anosy_serve::ReactorPool`]; arrival-order hash assignment,
//!   responses invariant under `N`). Default `1`: one reactor on the main thread;
//! * `--io-log-cap N` — deployment-wide cap on retained connection-failure log entries
//!   (a reactor pool divides it among shards and re-applies it to the merged log);
//! * `--trace PATH` — after the run, write every reactor's recorded spans as a
//!   chrome://tracing JSON array (load it in `about:tracing` or Perfetto). Over stdin/stdout
//!   the trace clock is the reactor's poll counter, so a piped script traces byte-identically
//!   on every replay — the CI trace-smoke check;
//! * `--no-telemetry` — skip installing per-reactor telemetry collectors (the overhead
//!   baseline; `metrics`/`trace` requests then answer empty).
//!
//! A connection whose very first bytes are the magic preamble `anosy-bin v1\n` is served the
//! **binary frame protocol** instead: every subsequent request rides a
//! `[len u32 LE][fnv1a-64 u64 LE][payload]` frame whose payload is one protocol line, and every
//! response comes back framed the same way (see [`anosy_serve::wire`], "Binary frames").
//! Anything else falls back to the line protocol — old clients keep working unchanged.
//!
//! Input lines starting with `#` are comments. A line may carry an explicit logical connection
//! as `@<conn> <request>`; bare lines ride the transport connection's own id (stdin: 0, sockets:
//! accept order from 0), and session ids are scoped to the opening connection (see
//! [`anosy_serve::SessionId`]). Malformed lines answer with an unnumbered `! <reason>` line
//! (they never reach the frontend, so they consume no sequence number). Per-connection I/O
//! errors close *that connection* — its sessions are released and the denial is logged to
//! stderr, once; the process keeps serving. Start-up and exit actions (journal recovery, final
//! save) report as `# ...` comment lines, keeping transcripts diffable.

use anosy_core::SynthesizeInto;
use anosy_domains::{IntervalDomain, PowersetDomain};
use anosy_logic::SecretLayout;
use anosy_serve::{
    reactor, wire, Deployment, FlushPolicy, JournalConfig, ReactorPool, ServeConfig, Server,
    ServerConfig, StdioTransport, Transport,
};
use anosy_synth::DomainCodec;
use std::io::Write;
use std::time::Duration;

struct Options {
    layout: SecretLayout,
    domain: String,
    config: ServeConfig,
    verify_on_load: bool,
    save_on_exit: Option<std::path::PathBuf>,
    ticked: bool,
    listen: Option<String>,
    accept: Option<usize>,
    tick_ms: Option<u64>,
    reactors: u64,
    trace: Option<std::path::PathBuf>,
    telemetry: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: anosy-served --layout \"x:0:400 y:0:400\" [--domain interval|powerset] \
         [--workers N] [--box-memo-min-depth N] [--save-on-exit PATH] [--journal PATH \
         [--journal-flush every-entry-fsync|every-entry|every-N|on-tick] \
         [--compact-every N] [--verify-on-load]] [--ticked] [--io-log-cap N] [--trace PATH] [--no-telemetry] \
         [--listen ADDR [--accept N] [--tick-ms MS] [--reactors N]]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut layout = None;
    let mut domain = "interval".to_string();
    let mut config = ServeConfig::new();
    let mut verify_on_load = false;
    let mut save_on_exit = None;
    let mut journal = None;
    let mut journal_flush = FlushPolicy::EveryEntry;
    let mut compact_every = None;
    let mut ticked = false;
    let mut listen = None;
    let mut accept = None;
    let mut tick_ms = None;
    let mut reactors = 1u64;
    let mut trace = None;
    let mut telemetry = true;
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--layout" => {
                layout = Some(wire::parse_layout(&value(&mut i)).unwrap_or_else(|| usage()));
            }
            "--domain" => {
                domain = value(&mut i);
                if domain != "interval" && domain != "powerset" {
                    usage();
                }
            }
            "--workers" => {
                let workers = value(&mut i).parse().unwrap_or_else(|_| usage());
                config = config.with_workers(workers);
            }
            "--box-memo-min-depth" => {
                let depth = value(&mut i).parse().unwrap_or_else(|_| usage());
                config = config.with_box_memo_min_depth(depth);
            }
            "--io-log-cap" => {
                let cap = value(&mut i).parse().unwrap_or_else(|_| usage());
                config = config.with_io_log_cap(cap);
            }
            "--trace" => trace = Some(std::path::PathBuf::from(value(&mut i))),
            "--no-telemetry" => telemetry = false,
            "--verify-on-load" => verify_on_load = true,
            "--save-on-exit" => save_on_exit = Some(std::path::PathBuf::from(value(&mut i))),
            "--journal" => journal = Some(std::path::PathBuf::from(value(&mut i))),
            "--journal-flush" => {
                journal_flush = FlushPolicy::parse(&value(&mut i)).unwrap_or_else(|| usage());
            }
            "--compact-every" => {
                compact_every = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--ticked" => ticked = true,
            "--listen" => listen = Some(value(&mut i)),
            "--accept" => accept = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--tick-ms" => tick_ms = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--reactors" => {
                reactors = value(&mut i).parse().unwrap_or_else(|_| usage());
                if reactors == 0 {
                    usage();
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(layout) = layout else { usage() };
    if (accept.is_some() || tick_ms.is_some() || reactors > 1) && listen.is_none() {
        usage();
    }
    match journal {
        Some(path) => {
            let mut journal = JournalConfig::new(path).with_flush(journal_flush);
            if let Some(ticks) = compact_every {
                journal = journal.with_compact_every(ticks);
            }
            config = config.with_journal(journal);
        }
        None if compact_every.is_some() || verify_on_load => usage(),
        None => {}
    }
    Options {
        layout,
        domain,
        config,
        verify_on_load,
        save_on_exit,
        ticked,
        listen,
        accept,
        tick_ms,
        reactors,
        trace,
        telemetry,
    }
}

fn main() {
    let options = parse_options();
    if options.domain == "powerset" {
        serve::<PowersetDomain>(options);
    } else {
        serve::<IntervalDomain>(options);
    }
}

fn serve<D>(options: Options)
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
{
    let deployment: Deployment<D> = Deployment::new(options.layout.clone(), options.config.clone());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    // Warm restart from the journal's snapshot + replay, then attach the commit observer so
    // everything synthesized from here on is journaled as it lands.
    match deployment.open_journal(options.verify_on_load) {
        Ok(Some(recovery)) => writeln!(
            out,
            "# journal recovered replayed={} torn={} snapshot_loaded={} skipped={}",
            recovery.replayed,
            recovery.torn,
            recovery.snapshot.installed,
            recovery.snapshot.skipped + recovery.replay_skipped,
        )
        .expect("stdout is writable"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("anosy-served: cannot open journal: {e}");
            std::process::exit(1);
        }
    }

    let server_config =
        ServerConfig::new().ticked(options.ticked).with_telemetry(options.telemetry);
    let pool = ReactorPool::new(options.reactors).with_config(server_config);
    match &options.listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                eprintln!("anosy-served: cannot listen on {addr}: {e}");
                std::process::exit(1);
            });
            match listener.local_addr() {
                Ok(bound) => writeln!(out, "# listening on {bound} reactors={}", options.reactors),
                Err(e) => writeln!(out, "# listening (address unavailable: {e})"),
            }
            .expect("stdout is writable");
            out.flush().expect("stdout is flushable");
            drop(out);
            let tick_interval = options.tick_ms.map(Duration::from_millis);
            let servers = pool
                .serve(&deployment, listener, options.accept, tick_interval)
                .unwrap_or_else(|e| {
                    eprintln!("anosy-served: cannot set up the reactor pool: {e}");
                    std::process::exit(1);
                });
            finish(&servers, &deployment, &options);
        }
        None => {
            drop(out);
            let servers = pool.run(&deployment, vec![StdioTransport::new()]);
            finish(&servers, &deployment, &options);
        }
    }
}

/// The post-run epilogue, the same for every transport: reports the folded pool counters on
/// stderr (connection failures already reached stderr as they happened), writes the trace when
/// `--trace` asked for it, and persists the synthesis cache when `--save-on-exit` asked for it.
fn finish<D, T>(servers: &[Server<D, T>], deployment: &Deployment<D>, options: &Options)
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
    T: Transport,
{
    let folded =
        reactor::fold_stats(&servers.iter().map(|s| s.frontend().snapshot()).collect::<Vec<_>>());
    eprintln!(
        "# pool drained: reactors={} requests={} open={} denied={}",
        options.reactors, folded.requests, folded.open_sessions, folded.denials
    );
    if let Some(path) = &options.trace {
        let reports: Vec<anosy_serve::Report> =
            servers.iter().filter_map(|s| s.telemetry_report().cloned()).collect();
        match std::fs::write(path, anosy_serve::trace_json(&reports)) {
            Ok(()) => eprintln!("# trace written: {} ({} reactors)", path.display(), reports.len()),
            Err(e) => eprintln!("# trace write failed: {e}"),
        }
    }
    if let Some(path) = &options.save_on_exit {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        match deployment.save_cache(path) {
            Ok(outcome) => {
                writeln!(out, "# saved entries={} skipped={}", outcome.written, outcome.skipped)
            }
            Err(e) => writeln!(out, "# save failed: {e}"),
        }
        .expect("stdout is writable");
        out.flush().expect("stdout is flushable");
    }
}

//! The served half of the benchmark: spawn `anosy-served --listen 127.0.0.1:0`, set it up, and
//! drive it over loopback with closed-loop logical clients.
//!
//! One client process opens at most `nproc` sockets and runs one thread per socket (socket 0
//! runs on the calling thread). Each socket multiplexes several logical clients through the
//! `@conn` prefix; each logical client keeps exactly one request in flight, as an IFC handler
//! blocked on its downgrade would. Every answer is checked as it arrives — against the
//! oracle's pre-computed text for pooled tenants, or recorded for the post-run oracle — and
//! every knowledge checkpoint of a min-size tenant is checked against the policy's floor.

use crate::workload::{Action, Recorded, Source, Tenant, Workload, LAYOUT_ARG};
use anosy_serve::{wire, ServeResponse, StatsSnapshot};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A request that takes longer than this counts as failed, and the run stops.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Logical connection ids start here, clear of the base ids the server gives sockets.
const FIRST_CONN: u64 = 1000;

/// `/proc/<pid>/stat` reports CPU time in clock ticks of 1/100 s on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `anosy-served`, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub log: PathBuf,
    scratch: Option<PathBuf>,
}

impl ServerProc {
    /// Spawns the server with stderr captured to `log`, and waits for its listen banner.
    /// `scratch` (the journal directory, if any) is removed when the server is dropped.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        log: &Path,
        scratch: Option<PathBuf>,
    ) -> Result<ServerProc, String> {
        let stderr =
            File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = ServerProc {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: log.to_path_buf(),
            scratch,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server._stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    return Err(format!("server exited before listening; see {}", log.display()))
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix("# listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr =
                    addr.parse().map_err(|_| format!("bad listen banner `{}`", line.trim()))?;
                return Ok(server);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the server has used so far, in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesized command name: state is field 3, utime 14, stime 15.
        let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<u64> = rest.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect();
        let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
        ticks as f64 / TICKS_PER_SECOND
    }

    /// The server's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `connection tN failed` lines in a server's stderr log: connections the server dropped.
pub fn logged_failures(log: &Path) -> u64 {
    std::fs::read_to_string(log)
        .map(|text| {
            text.lines().filter(|l| l.contains("connection t") && l.contains(" failed")).count()
                as u64
        })
        .unwrap_or(0)
}

/// One socket speaking the line or the binary frame protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
    out: Vec<u8>,
    payload: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr, binary: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        if binary {
            writer.write_all(wire::BINARY_PREAMBLE)?;
        }
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            binary,
            out: Vec::new(),
            payload: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.out.clear();
        if self.binary {
            wire::frame_into(&mut self.out, line.as_bytes());
        } else {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
        }
        self.writer.write_all(&self.out)
    }

    /// Reads one response line (or frame payload) into `line`.
    fn recv(&mut self, line: &mut String) -> std::io::Result<()> {
        line.clear();
        if self.binary {
            let mut header = [0u8; 12];
            self.reader.read_exact(&mut header)?;
            let len = u32::from_le_bytes(header[..4].try_into().expect("4 length bytes")) as usize;
            if len > wire::MAX_FRAME_BYTES {
                return Err(std::io::Error::other("oversize response frame"));
            }
            self.payload.resize(len, 0);
            self.reader.read_exact(&mut self.payload)?;
            let sum = u64::from_le_bytes(header[4..].try_into().expect("8 checksum bytes"));
            if wire::frame_checksum(&self.payload) != sum {
                return Err(std::io::Error::other("corrupt response frame"));
            }
            line.push_str(std::str::from_utf8(&self.payload).map_err(std::io::Error::other)?);
        } else {
            if self.reader.read_line(line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            line.truncate(line.trim_end().len());
        }
        Ok(())
    }
}

/// What a round trip was, for the latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `downgrade` or `batch`.
    Downgrade,
    Register,
    Stats,
    Other,
}

/// One request answered inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the answer arrived, in microseconds since the window opened.
    pub at_us: u32,
    /// Its round trip, in nanoseconds.
    pub rtt_ns: u32,
    pub op: Op,
    /// Downgrade answers it carried, and how many were authorized.
    pub decisions: u16,
    pub authorized: u16,
}

impl Event {
    fn new(at: Duration, rtt: Duration, op: Op, decisions: u16, authorized: u16) -> Event {
        let clamp = |v: u128| v.min(u128::from(u32::MAX)) as u32;
        Event {
            at_us: clamp(at.as_micros()),
            rtt_ns: clamp(rtt.as_nanos()),
            op,
            decisions,
            authorized,
        }
    }
}

/// Counts and samples of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Requests answered inside the measured window.
    pub events: Vec<Event>,
    /// Wrong answers and knowledge-floor violations (any one fails the run).
    pub wrong: Vec<String>,
    pub floor_checks: u64,
    /// Answers of tenants without pre-computed expectations, for the post-run oracle.
    pub recorded: Vec<Recorded>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.events.extend(other.events);
        self.wrong.extend(other.wrong);
        self.floor_checks += other.floor_checks;
        self.recorded.extend(other.recorded);
    }

    /// Round trips of `op`, in nanoseconds.
    pub fn rtts(&self, op: Op) -> Vec<u64> {
        self.events.iter().filter(|e| e.op == op).map(|e| u64::from(e.rtt_ns)).collect()
    }

    pub fn total(&self, f: impl Fn(&Event) -> u64) -> u64 {
        self.events.iter().map(f).sum()
    }
}

/// One closed-loop logical client.
struct Client {
    conn: u64,
    seq: u64,
    sent_at: Instant,
    tenant: Arc<Tenant>,
    step: usize,
    session: u64,
    skip_downgrades: bool,
    record: Vec<(usize, String)>,
    line: String,
}

impl Client {
    fn new(conn: u64, tenant: Arc<Tenant>) -> Client {
        Client {
            conn,
            seq: 0,
            sent_at: Instant::now(),
            tenant,
            step: 0,
            session: 0,
            skip_downgrades: false,
            record: Vec::new(),
            line: String::new(),
        }
    }

    fn start_tenant(&mut self, tenant: Arc<Tenant>) {
        self.tenant = tenant;
        self.step = 0;
        self.session = 0;
        self.skip_downgrades = false;
    }

    /// Sends `text`, or the current step of its tenant when `None`.
    fn send(&mut self, conn: &mut Conn, text: Option<&str>) -> std::io::Result<()> {
        use std::fmt::Write as _;
        self.line.clear();
        write!(self.line, "@{} ", self.conn).expect("writing to a String cannot fail");
        match text {
            Some(text) => self.line.push_str(text),
            None => self.tenant.steps[self.step].render(self.session, &mut self.line),
        }
        self.seq += 1;
        self.sent_at = Instant::now();
        conn.send(&self.line)
    }

    /// Checks one response to the current step and advances. Returns whether the tenant's
    /// script is finished, and the downgrade answers the response carried (all, authorized).
    fn on_step(&mut self, rest: &str, tally: &mut Tally, until_refused: bool) -> (bool, u16, u16) {
        let step = &self.tenant.steps[self.step];
        let denied = rest.starts_with("deny ");
        if rest.starts_with("err ") || (denied && !rest.starts_with("deny policy ")) {
            tally.failed += 1;
        } else {
            tally.ok += 1;
        }
        let expected = self.tenant.expected.as_ref().map(|e| e[self.step].as_str());
        let (mut decisions, mut authorized) = (0, 0);
        match &step.action {
            Action::Open => match rest.strip_prefix("ok session ").and_then(|id| id.parse().ok()) {
                Some(id) => self.session = id,
                None => tally.wrong.push(format!("open answered `{rest}`")),
            },
            Action::Close => {
                if rest != format!("ok closed {}", self.session) {
                    tally
                        .wrong
                        .push(format!("close of session {} answered `{rest}`", self.session));
                }
            }
            action => {
                match expected {
                    Some(expected) if expected != rest => tally.wrong.push(format!(
                        "tenant `{}` step {}: expected `{}`, got `{}`",
                        self.tenant.policy,
                        self.step,
                        clip(expected),
                        clip(rest)
                    )),
                    Some(_) => {}
                    None => self.record.push((self.step, rest.to_string())),
                }
                if let Action::Knowledge(_) = action {
                    self.check_floor(rest, tally);
                }
                decisions = step.decisions() as u16;
                authorized = match action {
                    Action::Downgrade(..) => u16::from(rest.starts_with("ok answer ")),
                    Action::Batch(..) => rest.strip_prefix("ok answers").map_or(0, |answers| {
                        answers.split_whitespace().filter(|a| !a.starts_with('!')).count()
                    }) as u16,
                    _ => 0,
                };
            }
        }
        if until_refused && denied && matches!(step.action, Action::Downgrade(..)) {
            self.skip_downgrades = true;
        }
        self.step += 1;
        while self.skip_downgrades
            && self.step < self.tenant.steps.len()
            && matches!(self.tenant.steps[self.step].action, Action::Downgrade(..))
        {
            self.step += 1;
        }
        (self.step == self.tenant.steps.len(), decisions, authorized)
    }

    /// The knowledge floor: a min-size tenant's checkpoint never reports fewer candidates
    /// than its policy bound.
    fn check_floor(&self, rest: &str, tally: &mut Tally) {
        let Some(floor) = self.tenant.floor else { return };
        tally.floor_checks += 1;
        let size: Option<u128> = rest
            .strip_prefix("ok knowledge size=")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|s| s.parse().ok());
        match size {
            Some(size) if size >= floor => {}
            _ => tally.wrong.push(format!("knowledge floor {floor} violated: `{}`", clip(rest))),
        }
    }

    fn flush_record(&mut self, tally: &mut Tally) {
        if !self.record.is_empty() {
            tally.recorded.push((Arc::clone(&self.tenant), std::mem::take(&mut self.record)));
        }
    }
}

fn clip(text: &str) -> &str {
    match text.char_indices().nth(160) {
        Some((at, _)) => &text[..at],
        None => text,
    }
}

/// Splits a response into its `conn.seq` tag and the rest; a `!` line is the server refusing
/// a request it could not parse.
fn untag(line: &str) -> Result<(u64, u64, &str), String> {
    if line.starts_with('!') {
        return Err(format!("server refused a line: `{}`", clip(line)));
    }
    let (tag, rest) =
        line.split_once(' ').ok_or_else(|| format!("untagged response `{}`", clip(line)))?;
    let (conn, seq) = tag.split_once('.').ok_or_else(|| format!("bad tag `{tag}`"))?;
    match (conn.parse(), seq.parse()) {
        (Ok(conn), Ok(seq)) => Ok((conn, seq, rest)),
        _ => Err(format!("bad tag `{tag}`")),
    }
}

/// One socket and the logical clients multiplexed onto it.
struct Lane {
    conn: Conn,
    clients: Vec<Client>,
    line: String,
}

impl Lane {
    /// Reads one response and returns the index of the client it answers.
    fn recv(&mut self) -> Result<(usize, Duration), String> {
        self.conn.recv(&mut self.line).map_err(|e| format!("socket error: {e}"))?;
        let (conn, seq, _) = untag(&self.line)?;
        let index = self
            .clients
            .iter()
            .position(|c| c.conn == conn)
            .ok_or_else(|| format!("response for unknown connection {conn}"))?;
        let client = &self.clients[index];
        if seq != client.seq {
            return Err(format!(
                "response {conn}.{seq} out of order (expected seq {})",
                client.seq
            ));
        }
        Ok((index, client.sent_at.elapsed()))
    }

    fn rest(&self) -> &str {
        self.line.split_once(' ').map(|(_, rest)| rest).unwrap_or("")
    }

    /// Sends one request from client `index` and waits for its answer (set-up traffic).
    fn round_trip(
        &mut self,
        index: usize,
        text: &str,
        tally: &mut Tally,
    ) -> Result<Duration, String> {
        tally.sent += 1;
        self.clients[index]
            .send(&mut self.conn, Some(text))
            .map_err(|e| format!("socket error: {e}"))?;
        let (_, rtt) = self.recv()?;
        Ok(rtt)
    }

    /// Every client opens its first tenant's session, one round trip at a time. (Pipelined
    /// opens on one socket stall for the peer's delayed-ACK timer, ~40 ms: the server's
    /// sockets leave Nagle's algorithm on, so its second small response waits for the first
    /// one's ACK.)
    fn open_all(&mut self, tally: &mut Tally, until_refused: bool) -> Result<(), String> {
        for index in 0..self.clients.len() {
            tally.sent += 1;
            self.clients[index]
                .send(&mut self.conn, None)
                .map_err(|e| format!("socket error: {e}"))?;
            self.recv()?;
            let rest = self.rest().to_string();
            self.clients[index].on_step(&rest, tally, until_refused);
        }
        Ok(())
    }

    /// The closed loop: every client keeps one request in flight until `window.1` or until
    /// the round's tenants run out, then the lane drains. Requests answered inside `window`
    /// are recorded as events.
    fn drive(
        &mut self,
        source: &Mutex<Supply>,
        window: (Instant, Instant),
        until_refused: bool,
        stats_only: bool,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let text = stats_only.then_some("stats");
        let mut inflight = 0usize;
        for client in &mut self.clients {
            tally.sent += 1;
            client.send(&mut self.conn, text).map_err(|e| format!("socket error: {e}"))?;
            inflight += 1;
        }
        while inflight > 0 {
            let (index, rtt) = match self.recv() {
                Ok(answer) => answer,
                Err(e) => {
                    tally.failed += inflight as u64;
                    return Err(e);
                }
            };
            inflight -= 1;
            let now = Instant::now();
            let client = &mut self.clients[index];
            let rest = self.line.split_once(' ').map(|(_, rest)| rest).unwrap_or("");
            let mut more = now < window.1;
            let (op, decisions, authorized) = if stats_only {
                if rest.starts_with("ok stats ") {
                    tally.ok += 1;
                } else {
                    tally.failed += 1;
                }
                (Op::Stats, 0, 0)
            } else {
                let op = match client.tenant.steps[client.step].action {
                    Action::Downgrade(..) | Action::Batch(..) => Op::Downgrade,
                    Action::Register(_) => Op::Register,
                    _ => Op::Other,
                };
                let (finished, decisions, authorized) = client.on_step(rest, tally, until_refused);
                if finished {
                    client.flush_record(tally);
                    if more {
                        // A client whose round has no tenant left stops sending.
                        match source.lock().expect("tenant source lock").next() {
                            Some(tenant) => client.start_tenant(tenant),
                            None => more = false,
                        }
                    }
                }
                (op, decisions, authorized)
            };
            if now >= window.0 && now < window.1 {
                tally.events.push(Event::new(now - window.0, rtt, op, decisions, authorized));
            }
            if more {
                tally.sent += 1;
                client.send(&mut self.conn, text).map_err(|e| format!("socket error: {e}"))?;
                inflight += 1;
            }
        }
        if !stats_only {
            for client in &mut self.clients {
                client.flush_record(tally);
            }
        }
        Ok(())
    }
}

/// Where the server binary is and where its logs go.
pub struct Env {
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    pub tag: String,
}

/// Knobs of one served round.
pub struct Opts {
    /// Window, after `warmup`. Unused when the workload counts its rounds in tenants: such a
    /// round's window runs from its first timed request until its last answer.
    pub seconds: f64,
    pub warmup: f64,
    pub telemetry: bool,
    /// A closed-loop `stats` phase of this many seconds after the timed phase (0 = none).
    pub stats_probe: f64,
}

/// Everything one served round measured.
pub struct Served {
    /// Spawn to first timed request.
    pub setup_s: f64,
    pub setup: Tally,
    pub timed: Tally,
    pub probe: Tally,
    pub window_s: f64,
    /// Server CPU seconds and responses over the whole timed phase (warm-up, window, drain).
    pub cpu_s: f64,
    pub cpu_requests: u64,
    pub peak_rss_kb: u64,
    pub stats_before: Option<StatsSnapshot>,
    pub stats_after: Option<StatsSnapshot>,
    pub log_failures: u64,
    /// The first error that stopped the run, if any.
    pub error: Option<String>,
}

fn server_args(workload: &Workload, telemetry: bool, journal: Option<&Path>) -> Vec<String> {
    let domain = match workload.domain {
        crate::workload::Domain::Interval => "interval",
        crate::workload::Domain::Powerset => "powerset",
    };
    let mut args: Vec<String> =
        ["--layout", LAYOUT_ARG, "--domain", domain, "--listen", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    if !telemetry {
        args.push("--no-telemetry".into());
    }
    if let Some(dir) = journal {
        args.extend(["--journal".to_string(), dir.join("j").display().to_string()]);
        args.extend(["--journal-flush".to_string(), "every-entry".to_string()]);
    }
    args
}

fn stats_of(rest: &str) -> Option<StatsSnapshot> {
    match wire::parse_response(rest) {
        Ok(ServeResponse::Stats(stats)) => Some(*stats),
        _ => None,
    }
}

/// A set-up server: spawned, palette registered, every logical client's first session open.
struct Ready {
    server: ServerProc,
    lanes: Vec<Lane>,
}

fn set_up(
    env: &Env,
    workload: &Workload,
    source: &Mutex<Supply>,
    opts: &Opts,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let log = env.out_dir.join(format!("{}-server.log", env.tag));
    let scratch = workload.journal.then(|| env.out_dir.join(format!("{}-journal", env.tag)));
    if let Some(dir) = &scratch {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let args = server_args(workload, opts.telemetry, scratch.as_deref());
    let server = ServerProc::spawn(&env.server_bin, &args, &log, scratch)?;
    let mut lanes = Vec::with_capacity(workload.sockets);
    for _ in 0..workload.sockets {
        let conn =
            Conn::open(server.addr, workload.binary).map_err(|e| format!("cannot connect: {e}"))?;
        lanes.push(Lane { conn, clients: Vec::new(), line: String::new() });
    }
    for id in 0..workload.clients {
        let tenant = source
            .lock()
            .expect("tenant source lock")
            .next()
            .ok_or("a round needs at least one tenant per logical client")?;
        lanes[id % workload.sockets].clients.push(Client::new(FIRST_CONN + id as u64, tenant));
    }
    for query in &workload.palette {
        let request = anosy_serve::ServeRequest::RegisterQuery {
            query: query.clone(),
            kind: anosy_synth::ApproxKind::Under,
            members: workload.members,
        };
        let text = wire::encode_request(&request).expect("palette queries are wire-safe");
        let rtt = lanes[0].round_trip(0, &text, tally)?;
        if lanes[0].rest() == format!("ok registered {}", query.name()) {
            tally.ok += 1;
            tally.events.push(Event::new(Duration::ZERO, rtt, Op::Register, 0, 0));
        } else {
            tally.failed += 1;
            return Err(format!(
                "registering {} answered `{}`",
                query.name(),
                clip(lanes[0].rest())
            ));
        }
    }
    for lane in &mut lanes {
        lane.open_all(tally, workload.until_refused)?;
    }
    Ok(Ready { server, lanes })
}

fn stats_request(lane: &mut Lane, tally: &mut Tally) -> Result<StatsSnapshot, String> {
    lane.round_trip(0, "stats", tally)?;
    match stats_of(lane.rest()) {
        Some(stats) => {
            tally.ok += 1;
            Ok(stats)
        }
        None => {
            tally.failed += 1;
            Err(format!("stats answered `{}`", clip(lane.rest())))
        }
    }
}

/// The tenants one round may still hand out: all of them when the round is a time window,
/// else the workload's budget per round.
pub struct Supply {
    source: Source,
    left: Option<usize>,
}

impl Supply {
    fn next(&mut self) -> Option<Arc<Tenant>> {
        if let Some(left) = &mut self.left {
            *left = left.checked_sub(1)?;
        }
        Some(self.source.next())
    }
}

/// One served round on a fresh server: the set-up (timed from spawn to the first timed
/// request), then the timed closed loop.
pub fn serve(env: &Env, workload: &mut Workload, opts: &Opts) -> Served {
    let source = Mutex::new(Supply {
        source: std::mem::take(&mut workload.source),
        left: workload.round_tenants,
    });
    let mut run = Served {
        setup_s: 0.0,
        setup: Tally::default(),
        timed: Tally::default(),
        probe: Tally::default(),
        window_s: opts.seconds,
        cpu_s: 0.0,
        cpu_requests: 0,
        peak_rss_kb: 0,
        stats_before: None,
        stats_after: None,
        log_failures: 0,
        error: None,
    };
    let started = Instant::now();
    let ready = set_up(env, workload, &source, opts, &mut run.setup);
    run.setup_s = started.elapsed().as_secs_f64();
    let open_ended = workload.round_tenants.is_some();
    match ready {
        Err(e) => run.error = Some(e),
        Ok(Ready { server, mut lanes }) => {
            let until_refused = workload.until_refused;
            if let Err(e) =
                timed(&server, &mut lanes, &source, until_refused, open_ended, opts, &mut run)
            {
                run.error.get_or_insert(e);
            }
            run.peak_rss_kb = server.peak_rss_kb();
            let log = server.log.clone();
            drop(lanes);
            drop(server);
            run.log_failures += logged_failures(&log);
        }
    }
    workload.source = source.into_inner().expect("tenant source lock").source;
    run
}

fn timed(
    server: &ServerProc,
    lanes: &mut [Lane],
    source: &Mutex<Supply>,
    until_refused: bool,
    open_ended: bool,
    opts: &Opts,
    run: &mut Served,
) -> Result<(), String> {
    run.stats_before = Some(stats_request(&mut lanes[0], &mut run.setup)?);
    let loop_phase =
        |lanes: &mut [Lane], window: (Instant, Instant), stats_only: bool, tally: &mut Tally| {
            let (first, rest) = lanes.split_first_mut().expect("at least one socket");
            let mut errors = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|lane| {
                        scope.spawn(move || {
                            let mut tally = Tally::default();
                            let result =
                                lane.drive(source, window, until_refused, stats_only, &mut tally);
                            (tally, result)
                        })
                    })
                    .collect();
                if let Err(e) = first.drive(source, window, until_refused, stats_only, tally) {
                    errors.push(e);
                }
                for handle in handles {
                    let (other, result) = handle.join().expect("a client thread panicked");
                    tally.absorb(other);
                    if let Err(e) = result {
                        errors.push(e);
                    }
                }
            });
            errors.into_iter().next().map_or(Ok(()), Err)
        };
    let cpu_before = server.cpu_seconds();
    let window = if open_ended {
        let start = Instant::now();
        (start, start + READ_TIMEOUT * 100)
    } else {
        let start = Instant::now() + Duration::from_secs_f64(opts.warmup);
        (start, start + Duration::from_secs_f64(opts.seconds))
    };
    let result = loop_phase(lanes, window, false, &mut run.timed);
    // The window as measured: from its start to the last answer inside it.
    if let Some(last_us) = run.timed.events.iter().map(|e| e.at_us).max() {
        run.window_s = f64::from(last_us.max(1)) / 1e6;
    }
    run.cpu_s = server.cpu_seconds() - cpu_before;
    run.cpu_requests = run.timed.ok + run.timed.failed;
    result?;
    if opts.stats_probe > 0.0 {
        let start = Instant::now();
        let window = (start, start + Duration::from_secs_f64(opts.stats_probe));
        loop_phase(lanes, window, true, &mut run.probe)?;
    }
    run.stats_after = Some(stats_request(&mut lanes[0], &mut run.setup)?);
    Ok(())
}

//! Compiles an [`anosy_suite::population`] workload into a [`SimNet`] script.
//!
//! The population generator decides *what* every tenant does; this module decides *when*, in
//! `SimNet`'s virtual time, such that the run is deterministic where it must be and chaotic
//! where it may be:
//!
//! * **Opens ride dedicated, globally ordered slots.** Tenant `i`'s `open` line fully arrives
//!   before tenant `i + 1`'s connection even opens. Each tenant opens exactly once, on its own
//!   connection, so its session id is that connection's first (see [`SessionId`]) and the
//!   compiler predicts it (`CompiledPopulation::sessions`) — every later
//!   `downgrade session=…` line is compiled against a known id, valid at any reactor count.
//! * **Bursts share per-round chaos windows.** All burst lines of a round land in one window
//!   at staggered offsets; `SimNet`'s seeded chunking, latency and cross-connection
//!   interleaving then produce a seed-dependent arrival order. Per-connection FIFO still
//!   guarantees each tenant's `register` precedes its own first use of a query, so any
//!   interleaving is oracle-equivalent.
//! * **Exits share a window after the owner's last burst** — clean `close` lines followed by
//!   half-closes, abortive resets for abandoners, nothing for lingerers (whose sessions the
//!   drain-time ledger checks must account for).
//!
//! Waves overlap: wave `w` connects in round `w` and bursts ride rounds `w, w + 1, …`, so a
//! round mixes fresh opens, mid-life bursts and exits — genuine session churn at a bounded
//! number of live sessions (`≈ tenants / waves × max_bursts`).

use crate::frontend::conn_scoped_session_id;
use crate::{wire, ConnId, Deployment, ServeConfig, ServeRequest, SessionId, SimNet, Token};
use anosy_core::SharedCacheEntry;
use anosy_domains::IntervalDomain;
use anosy_suite::population::{Exit, Population, TenantAction};
use anosy_synth::ApproxKind;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Spacing between actions inside one shared chaos window (small and odd, so seeded chunk
/// latencies genuinely interleave neighbours).
const INTRA_WINDOW_STEP: u64 = 7;

/// Scheduling knobs for one compiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Seed of the simulated network (chunking, latency, interleaving). Independent of the
    /// population's seed: one population can be replayed under many network schedules.
    pub net_seed: u64,
    /// Chunking bound handed to [`SimNet::with_max_chunk`].
    pub max_chunk: usize,
    /// Latency bound handed to [`SimNet::with_max_delay`].
    pub max_delay: u64,
    /// Speak the binary frame protocol: every connection opens with
    /// [`wire::BINARY_PREAMBLE`], and each scheduled request line rides a checksummed frame
    /// ([`wire::encode_frame`]) instead of a `\n`-terminated line. Responses come back framed
    /// too — decode them with [`crate::SimNet::received_frame_text`].
    pub binary: bool,
}

impl CompileOptions {
    /// Default chaos: `SimNet`'s byte-mangling defaults and the line protocol.
    pub fn new(net_seed: u64) -> CompileOptions {
        CompileOptions { net_seed, max_chunk: 17, max_delay: 5, binary: false }
    }

    /// Switches every connection to the binary frame protocol (preamble + framed requests).
    pub fn binary(mut self) -> CompileOptions {
        self.binary = true;
        self
    }

    /// Overrides the chunking bound (large chunks make huge runs cheaper to schedule).
    pub fn with_max_chunk(mut self, max_chunk: usize) -> CompileOptions {
        self.max_chunk = max_chunk.max(1);
        self
    }

    /// Overrides the latency bound.
    pub fn with_max_delay(mut self, max_delay: u64) -> CompileOptions {
        self.max_delay = max_delay;
        self
    }
}

/// A population compiled onto a simulated network.
#[derive(Debug)]
pub struct CompiledPopulation {
    /// The scheduled network, ready to hand to [`crate::Server::new`].
    pub net: SimNet,
    /// Tenant index → the tenant's connection token.
    pub tokens: Vec<Token>,
    /// Tenant index → the session id the frontend will assign to the tenant's `open` (its
    /// connection's first open, so ids are known at compile time).
    pub sessions: Vec<SessionId>,
    /// Virtual time after the last scheduled event — append post-run probes (an auditing
    /// `stats` connection, say) strictly after this.
    pub end_time: u64,
    /// Total protocol requests scheduled.
    pub requests: usize,
}

/// Compiles `population` into a deterministic `SimNet` script (see the [module docs](self)
/// for the scheduling scheme).
pub fn compile(population: &Population, options: &CompileOptions) -> CompiledPopulation {
    let mut net = SimNet::new(options.net_seed)
        .with_max_chunk(options.max_chunk)
        .with_max_delay(options.max_delay);

    // A slot must outlast any one line's worst-case arrival spread (≈ line length × max
    // delay); population lines are comfortably under 512 bytes.
    let slot = 2_000.max(512 * options.max_delay);
    let waves = population.config.waves;
    let max_bursts = population.tenants.iter().map(|t| t.bursts.len()).max().unwrap_or(0);

    let mut by_wave: Vec<Vec<usize>> = vec![Vec::new(); waves];
    for tenant in &population.tenants {
        by_wave[tenant.wave.min(waves - 1)].push(tenant.index);
    }

    let n = population.tenants.len();
    let mut tokens = vec![Token(u64::MAX); n];
    let mut sessions = vec![SessionId(0); n];
    let mut requests = 0usize;
    let mut cursor = 0u64;

    for round in 0..waves + max_bursts {
        // Phase 1: this wave's opens, one dedicated slot each, in tenant order.
        if round < waves {
            for &index in &by_wave[round] {
                cursor += slot;
                let token = net.connect(cursor);
                if options.binary {
                    // Per-connection FIFO puts the preamble strictly before the open frame.
                    net.send(token, cursor, wire::BINARY_PREAMBLE);
                }
                let open =
                    ServeRequest::OpenSession { policy: population.tenants[index].policy.clone() };
                net.send(token, cursor, encode_line(&open, options.binary));
                tokens[index] = token;
                sessions[index] = conn_scoped_session_id(ConnId(token.0), 1)
                    .expect("population token counts fit the session-id conn lane");
                requests += 1;
            }
        }

        // Phase 2: one shared chaos window for every burst due this round.
        cursor += slot;
        let window = cursor;
        let mut offset = 0u64;
        for burst_index in 0..max_bursts.min(round + 1) {
            let wave = round - burst_index;
            if wave >= waves {
                continue;
            }
            for &index in &by_wave[wave] {
                let tenant = &population.tenants[index];
                let Some(burst) = tenant.bursts.get(burst_index) else { continue };
                for action in burst {
                    let request = request_of(action, sessions[index], population);
                    net.send(
                        tokens[index],
                        window + offset * INTRA_WINDOW_STEP,
                        encode_line(&request, options.binary),
                    );
                    offset += 1;
                    requests += 1;
                }
            }
        }
        cursor = window + offset * INTRA_WINDOW_STEP + 1 + slot;

        // Phase 3: exits of tenants whose last burst rode this round, in one shared window.
        cursor += slot;
        let exit_window = cursor;
        let mut exits = 0u64;
        for burst_count in 1..=max_bursts {
            let Some(wave) = (round + 1).checked_sub(burst_count) else { continue };
            if wave >= waves {
                continue;
            }
            for &index in &by_wave[wave] {
                let tenant = &population.tenants[index];
                if tenant.bursts.len() != burst_count {
                    continue;
                }
                let at = exit_window + exits * INTRA_WINDOW_STEP;
                match tenant.exit {
                    Exit::Clean => {
                        let close = ServeRequest::CloseSession { session: sessions[index] };
                        net.send(tokens[index], at, encode_line(&close, options.binary));
                        // Floors to the close line's last chunk: FIN after the final write.
                        net.half_close(tokens[index], at);
                        requests += 1;
                    }
                    Exit::Abandon => net.abort(tokens[index], at),
                    Exit::Linger => {}
                }
                exits += 1;
            }
        }
        cursor = exit_window + exits * INTRA_WINDOW_STEP + slot;
    }

    CompiledPopulation { net, tokens, sessions, end_time: cursor, requests }
}

/// The typed request for one tenant action.
fn request_of(action: &TenantAction, session: SessionId, population: &Population) -> ServeRequest {
    match action {
        TenantAction::Register { query } => ServeRequest::RegisterQuery {
            query: population.queries[*query].clone(),
            kind: ApproxKind::Under,
            members: None,
        },
        TenantAction::Downgrade { query, secret } => ServeRequest::Downgrade {
            session,
            secret: secret.clone(),
            query: population.queries[*query].name().into(),
        },
        TenantAction::Knowledge { secret } => {
            ServeRequest::Knowledge { session, secret: secret.clone() }
        }
    }
}

fn encode_line(request: &ServeRequest, binary: bool) -> Vec<u8> {
    let line = wire::encode_request(request).expect("population requests are wire-safe");
    if binary {
        wire::encode_frame(line.as_bytes())
    } else {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        bytes
    }
}

/// The population palette's synthesized entries, computed once per process per distinct
/// `(layout, palette, synth config)` and cloned out of a process-wide cache — scenario counts
/// must not multiply solver work.
pub fn palette_entries(
    population: &Population,
    config: &ServeConfig,
) -> Vec<SharedCacheEntry<IntervalDomain>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Vec<SharedCacheEntry<IntervalDomain>>>>> =
        OnceLock::new();
    let key = format!("{:?}|{:?}|{:?}", population.layout(), population.queries, config.synth);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("palette cache lock").get(&key) {
        return hit.clone();
    }
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(population.layout(), config.clone());
    for query in &population.queries {
        deployment
            .register_query(query, ApproxKind::Under, None)
            .expect("population palette synthesizes");
    }
    let entries = deployment.shared().export_entries();
    cache.lock().expect("palette cache lock").insert(key, entries.clone());
    entries
}

/// A deployment pre-warmed with the population palette (tests: no per-scenario solver work).
pub fn warm_deployment(
    population: &Population,
    config: &ServeConfig,
) -> Deployment<IntervalDomain> {
    let deployment: Deployment<IntervalDomain> =
        Deployment::new(population.layout(), config.clone());
    for entry in palette_entries(population, config) {
        deployment.shared().insert_ready(entry);
    }
    deployment
}

/// A cold deployment for the same population (benchmarks: synthesis misses are part of the
/// measured workload, so cache hit rates reflect the popularity skew).
pub fn cold_deployment(
    population: &Population,
    config: &ServeConfig,
) -> Deployment<IntervalDomain> {
    Deployment::new(population.layout(), config.clone())
}

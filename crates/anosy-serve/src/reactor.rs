//! Reactor pools: the one way a deployment is served, on `N ≥ 1` reactor threads.
//!
//! One [`Server`] is a single-threaded reactor: every byte of every connection, and every
//! downgrade decision, funnels through one event loop. A [`ReactorPool`] runs `N`
//! such reactors over **one shared [`Deployment`]**: each reactor owns a disjoint shard of the
//! connections (with its own [`Frontend`]) and the deployment's single-flight synthesis cache
//! plus shard pool stay safe to share, so the pool scales connection handling without
//! duplicating any synthesized state. `N = 1` is not a special mode: stdin/stdout and a plain
//! `--listen` socket are served as the lone shard of a one-reactor pool, which owns the
//! listener itself (no acceptor thread) and runs on the calling thread.
//!
//! # Shard assignment
//!
//! Connection tokens are minted **globally in arrival order** (by the pool's acceptor thread,
//! or by the caller when driving simulated transports) and a connection lands on shard
//! [`shard_of`]`(token, N)` — a splitmix64-style hash, so consecutive arrivals spread evenly.
//! Because every request of a connection stays on its shard in FIFO order, and session ids are
//! derived from the opening connection (see [`crate::SessionId`]), **responses are invariant
//! under the reactor count**: the same arrival schedule yields element-wise identical
//! per-connection response streams at `N = 1` and `N = 4` (property-tested in
//! `tests/multi_reactor.rs`).
//!
//! Logical `@conn` ids bind within a shard. A claim whose id hashes to another shard is
//! refused (`connection … belongs to another reactor shard`), mirroring the existing
//! cross-socket ownership rule — two shards must never bind the same logical id.
//!
//! # Stats and logs
//!
//! Each shard answers `stats` with its own counters, marked `reactors=N shard=i`. A
//! deployment-wide view is [`fold_stats`]: per-frontend counters sum (deployment counters are
//! already shared), and the folded snapshot marks itself `shard == reactors`. I/O logs merge
//! under the same global cap a one-reactor pool has ([`merge_io_logs`], at most
//! [`crate::ServeConfig::io_log_cap`] entries however many shards contributed).

use crate::proto::StatsSnapshot;
use crate::server::{IoLogEntry, PollTransport, Server, ServerConfig, ServerStats, Transport};
use crate::{Deployment, Frontend};
use anosy_core::SynthesizeInto;
use anosy_domains::AbstractDomain;
use anosy_synth::DomainCodec;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::time::Duration;

/// The reactor shard a connection token lands on: a splitmix64-style avalanche of the token
/// mod `shards`, so tokens minted in arrival order spread evenly instead of striping.
/// Deterministic and stable — resharding only happens by restarting with a different `N`.
pub fn shard_of(token: u64, shards: u64) -> u64 {
    if shards <= 1 {
        return 0;
    }
    let mut x = token.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % shards
}

/// Runs `N` reactor shards over one shared deployment (see the [module docs](self)).
///
/// The pool itself is just configuration: [`ReactorPool::run`] drives caller-supplied
/// transports (one per shard — e.g. [`crate::SimNet::split`] halves of a simulated schedule,
/// or a single [`crate::StdioTransport`]) and [`ReactorPool::serve`] accepts real TCP
/// connections, routing each accepted stream to the shard its arrival-order token hashes to.
/// Both run the last shard on the calling thread and the others on scoped threads, and return
/// the finished [`Server`]s in shard order, frontends and transcripts intact, so tests and
/// callers inspect per-shard state directly.
#[derive(Debug, Clone)]
pub struct ReactorPool {
    reactors: u64,
    config: ServerConfig,
}

impl ReactorPool {
    /// A pool of `reactors` shards (clamped to at least one) with default
    /// [`ServerConfig`] semantics per shard.
    pub fn new(reactors: u64) -> ReactorPool {
        ReactorPool { reactors: reactors.max(1), config: ServerConfig::new() }
    }

    /// Overrides the per-shard server configuration (ticking mode, recording, line cap).
    /// The pool still applies its own sharding and io-log-cap splits on top.
    pub fn with_config(mut self, config: ServerConfig) -> ReactorPool {
        self.config = config;
        self
    }

    /// How many reactor shards this pool runs.
    pub fn reactors(&self) -> u64 {
        self.reactors
    }

    /// Builds the per-shard servers: shard `i` gets a frontend marked `(i, N)`, a sharded
    /// server config, and `1/N`-th of the io-log budget.
    fn build<D, T>(&self, deployment: &Deployment<D>, transports: Vec<T>) -> Vec<Server<D, T>>
    where
        D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
        T: Transport,
    {
        let n = self.reactors;
        assert_eq!(
            transports.len() as u64,
            n,
            "a {n}-reactor pool needs exactly one transport per shard"
        );
        transports
            .into_iter()
            .enumerate()
            .map(|(i, transport)| {
                let shard = i as u64;
                let frontend = Frontend::new(deployment.share()).with_shard(shard, n);
                let config = self.config.clone().sharded(shard, n);
                Server::new(frontend, transport, config)
            })
            .collect()
    }

    /// Runs one reactor per supplied transport and returns the finished servers in shard
    /// order. The caller is responsible for having sharded the traffic: transport `i` must only
    /// carry tokens with [`shard_of`]`(token, N) == i` (which is exactly what
    /// [`crate::SimNet::split`] produces).
    ///
    /// # Panics
    ///
    /// Panics when the transport count does not match the pool's reactor count, or when a
    /// reactor thread panics.
    pub fn run<D, T>(&self, deployment: &Deployment<D>, transports: Vec<T>) -> Vec<Server<D, T>>
    where
        D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
        T: Transport + Send,
    {
        let servers = self.build(deployment, transports);
        std::thread::scope(|scope| run_shards(scope, servers))
    }

    /// Serves real TCP connections from `listener` (at most `accept_budget` connections when
    /// given), minting tokens in arrival order. A one-reactor pool hands the listener straight
    /// to its lone shard's [`PollTransport`]; with more reactors an acceptor thread hands each
    /// stream to the [`PollTransport`] of the shard its token hashes to, waking that shard's
    /// readiness wait through a loopback notify stream. Returns the finished servers in shard
    /// order once the budget is exhausted and every shard has drained — with no budget this
    /// only returns if the listener breaks.
    ///
    /// # Errors
    ///
    /// Configuring the listener or setting up the loopback notify pairs can fail; no thread has
    /// started at that point.
    ///
    /// # Panics
    ///
    /// Panics when a reactor thread panics.
    pub fn serve<D>(
        &self,
        deployment: &Deployment<D>,
        listener: TcpListener,
        accept_budget: Option<usize>,
        tick_interval: Option<Duration>,
    ) -> std::io::Result<Vec<Server<D, PollTransport>>>
    where
        D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
    {
        if self.reactors == 1 {
            // The lone shard accepts for itself: no acceptor thread and no wake-up pair, so a
            // one-reactor pool pays no per-connection handoff.
            let transport = PollTransport::listen(listener, accept_budget, tick_interval)?;
            return Ok(self.run(deployment, vec![transport]));
        }
        listener.set_nonblocking(false)?;
        let mut senders = Vec::new();
        let mut notifiers = Vec::new();
        let mut transports = Vec::new();
        for _ in 0..self.reactors {
            let (sender, handoffs) = mpsc::channel();
            let (writer, reader) = notify_pair()?;
            senders.push(sender);
            notifiers.push(writer);
            transports.push(PollTransport::intake(handoffs, reader, tick_interval));
        }
        let servers = self.build(deployment, transports);
        Ok(std::thread::scope(|scope| {
            scope.spawn(move || accept_loop(&listener, accept_budget, &senders, &mut notifiers));
            run_shards(scope, servers)
        }))
    }
}

/// Runs every shard to completion and returns them in shard order: the last on the calling
/// thread, the others on `scope`'s threads (a one-shard pool spawns nothing).
fn run_shards<'scope, D, T>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    mut servers: Vec<Server<D, T>>,
) -> Vec<Server<D, T>>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
    T: Transport + Send + 'scope,
{
    let mut last = servers.pop().expect("a pool has at least one shard");
    let handles: Vec<_> = servers
        .into_iter()
        .map(|mut server| {
            scope.spawn(move || {
                server.run();
                server
            })
        })
        .collect();
    last.run();
    let mut finished: Vec<Server<D, T>> =
        handles.into_iter().map(|handle| handle.join().expect("reactor panicked")).collect();
    finished.push(last);
    finished
}

/// The pool's acceptor: accepts in arrival order, routes each stream to the shard its token
/// hashes to, and writes one wake-up byte per handoff. Dropping the senders and notify
/// writers on return is the shutdown signal — every shard sees its channel disconnect, stops
/// accepting, and drains.
fn accept_loop(
    listener: &TcpListener,
    budget: Option<usize>,
    senders: &[Sender<(u64, TcpStream)>],
    notifiers: &mut [TcpStream],
) {
    let shards = senders.len() as u64;
    let mut token = 0u64;
    loop {
        if let Some(budget) = budget {
            if token >= budget as u64 {
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shard = shard_of(token, shards) as usize;
                if senders[shard].send((token, stream)).is_err() {
                    break;
                }
                // Best-effort wake-up: a full loopback buffer already holds unread wake-ups,
                // so the shard is waking anyway.
                let _ = notifiers[shard].write(&[1]);
                token += 1;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// A connected loopback stream pair — the pool's wake-up channel. Pure `std`: an ephemeral
/// listener on `127.0.0.1` is connected to once and immediately dropped.
fn notify_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _peer) = listener.accept()?;
    writer.set_nonblocking(true)?;
    Ok((writer, reader))
}

/// Folds per-shard frontend snapshots into the deployment-wide view: frontend counters sum
/// (`largest_batch` takes the max), the shared deployment counters — including the
/// deployment-wide `journal` and `saves_skipped` fields, which every shard reports
/// identically — are taken once, and the folded snapshot marks itself with
/// `shard == reactors` — impossible for a real shard, so consumers can tell a fold from a
/// shard.
///
/// # Panics
///
/// Panics on an empty slice — a pool always has at least one shard.
pub fn fold_stats(shards: &[StatsSnapshot]) -> StatsSnapshot {
    let first = shards.first().expect("fold_stats needs at least one shard snapshot");
    let mut folded = *first;
    for shard in &shards[1..] {
        folded.open_sessions += shard.open_sessions;
        folded.ticks += shard.ticks;
        folded.requests += shard.requests;
        folded.batched_downgrades += shard.batched_downgrades;
        folded.largest_batch = folded.largest_batch.max(shard.largest_batch);
        folded.sessions_torn_down += shard.sessions_torn_down;
        folded.tenants += shard.tenants;
        folded.denials += shard.denials;
    }
    folded.reactors = shards.len() as u64;
    folded.shard = folded.reactors;
    folded
}

/// Folds per-shard reactor counters by summing every field.
pub fn fold_server_stats(shards: &[ServerStats]) -> ServerStats {
    let mut folded = ServerStats::default();
    for shard in shards {
        folded.conns_opened += shard.conns_opened;
        folded.conns_closed += shard.conns_closed;
        folded.conn_failures += shard.conn_failures;
        folded.lines += shard.lines;
        folded.requests += shard.requests;
        folded.malformed += shard.malformed;
        folded.binary_conns += shard.binary_conns;
        folded.frames += shard.frames;
    }
    folded
}

/// Merges per-shard I/O logs under the deployment-wide cap ([`crate::ServeConfig::io_log_cap`]
/// — the same bound a one-reactor pool enforces): however many shards contributed, at most
/// `cap` entries survive (the most recent ones, matching the per-server aging rule). Entries
/// sort by their clock timestamp, ties broken by shard — under virtual clocks this reproduces
/// the order a single unsharded reactor would have logged.
pub fn merge_io_logs(shards: &[&[IoLogEntry]], cap: usize) -> Vec<IoLogEntry> {
    let mut merged: Vec<IoLogEntry> = shards.iter().flat_map(|log| log.iter().cloned()).collect();
    merged.sort_by_key(|entry| (entry.at, entry.shard));
    if merged.len() > cap.max(1) {
        merged.drain(..merged.len() - cap.max(1));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=8u64 {
            for token in 0..1000u64 {
                let shard = shard_of(token, shards);
                assert!(shard < shards);
                assert_eq!(shard, shard_of(token, shards), "deterministic");
            }
        }
        assert_eq!(shard_of(12345, 1), 0);
    }

    #[test]
    fn shard_of_spreads_arrival_order() {
        // Arrival-order tokens are consecutive integers; the hash must not stripe them all
        // onto one shard or leave a shard starved.
        let shards = 4u64;
        let mut counts = [0usize; 4];
        for token in 0..1000u64 {
            counts[shard_of(token, shards) as usize] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!((150..=350).contains(count), "shard {shard} got {count} of 1000 connections");
        }
    }

    #[test]
    fn merge_io_logs_respects_global_cap_and_orders_by_time() {
        let entry = |shard: u64, at: u64, reason: &str| IoLogEntry {
            shard,
            at,
            token: crate::server::Token(at),
            reason: reason.to_string(),
        };
        // Shard 0's denials interleave in time with shard 1's.
        let a: Vec<IoLogEntry> = (0..40).map(|i| entry(0, 2 * i, "a")).collect();
        let b: Vec<IoLogEntry> = (0..40).map(|i| entry(1, 2 * i + 1, "b")).collect();
        let merged = merge_io_logs(&[&a, &b], 64);
        assert_eq!(merged.len(), 64);
        // The most recent 64 of the 80 interleaved entries survive, in timestamp order.
        assert_eq!(merged.first().unwrap().at, 16);
        assert_eq!(merged.last().unwrap().at, 79);
        assert!(merged.windows(2).all(|w| w[0].at < w[1].at), "sorted by virtual time");
        // The cap clamps to one, like the config knob.
        assert_eq!(merge_io_logs(&[&a], 0).len(), 1);
    }
}

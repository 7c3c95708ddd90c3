//! The deployment: one shared synthesis cache, one worker pool, many sessions.

use crate::journal::{self, Journal, JournalStats, SaveOutcome};
use crate::{ServeConfig, ServeError, ShardPool};
use anosy_core::{
    AnosySession, Policy, SharedCacheEntry, SharedCacheStats, SharedSynthCache, SynthesizeInto,
};
use anosy_domains::AbstractDomain;
use anosy_logic::{IntBox, Pred, SecretLayout};
use anosy_solver::{Solver, SolverConfig, SolverError, ValidityOutcome};
use anosy_synth::{ApproxKind, DomainCodec, IndSets, QueryDef, Synthesizer};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What a [`Deployment::warm_start`] load accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartOutcome {
    /// Entries installed into the synthesis cache (after re-verification, when asked for).
    pub installed: usize,
    /// Entries that failed re-verification (or were malformed) and were refused.
    pub skipped: usize,
    /// `1` when the file's torn/corrupt tail was ignored past its good prefix, else `0`.
    pub torn: u64,
}

/// What [`Deployment::open_journal`] recovered at warm restart (snapshot load + journal
/// replay; see [`crate::journal`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The compaction snapshot load (installed, verify-skipped and torn counts).
    pub snapshot: WarmStartOutcome,
    /// Intact records replayed from the journal's good prefix.
    pub replayed: usize,
    /// Replayed records refused by `--verify-on-load` re-verification.
    pub replay_skipped: usize,
    /// Torn/corrupt tails found: the snapshot's (ignored past its good prefix) plus the
    /// journal's (truncated away), so `0`, `1` or `2`.
    pub torn: u64,
}

/// A point-in-time view of a deployment's aggregate serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// The shared-cache aggregates (synthesis hits/misses, downgrade outcomes, sessions).
    pub cache: SharedCacheStats,
    /// Distinct synthesized entries currently cached.
    pub entries: usize,
    /// Worker threads in the shard pool.
    pub workers: usize,
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} workers, {} cached entries; {}", self.workers, self.entries, self.cache)
    }
}

/// A serving deployment (see the [crate docs](crate) for the model):
///
/// * owns the [`SharedSynthCache`] every session of the deployment registers through — N
///   sessions registering the same query set synthesize once per *deployment*;
/// * owns the fixed [`ShardPool`] that runs each `count`/`valid` request as one sequential
///   solver job ([`Deployment::count_models`], [`Deployment::check_validity`]);
/// * saves and loads the synthesis cache's snapshot, and attaches its journal.
#[derive(Debug)]
pub struct Deployment<D: AbstractDomain> {
    layout: SecretLayout,
    config: ServeConfig,
    shared: SharedSynthCache<D>,
    pool: Arc<ShardPool>,
    /// The append-only synthesis journal, once [`Deployment::open_journal`] attached it.
    /// Shared (like the cache and pool) so every [`Deployment::share`] handle — one per
    /// reactor shard — appends to and compacts the same journal.
    journal: Arc<OnceLock<Journal<D>>>,
    /// Entries skipped as unencodable across every [`Deployment::save_cache`] and journal
    /// compaction of this deployment (the `saves_skipped` token of the wire stats line).
    saves_skipped: Arc<AtomicU64>,
}

impl<D: AbstractDomain> Deployment<D> {
    /// Creates a deployment serving secrets of `layout`.
    pub fn new(layout: SecretLayout, config: ServeConfig) -> Self {
        let pool = Arc::new(ShardPool::new(config.workers));
        Deployment {
            layout,
            config,
            shared: SharedSynthCache::new(),
            pool,
            journal: Arc::new(OnceLock::new()),
            saves_skipped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Another handle onto the *same* deployment: the shared synthesis cache, the
    /// worker pool and the aggregate counters are all one underlying object, only the handle is
    /// new. This is how a [`crate::ReactorPool`] gives each reactor shard its own
    /// [`crate::Frontend`] while every shard registers, synthesizes and accounts against one
    /// deployment — the single-flight cache makes cross-shard synthesis race-free.
    pub fn share(&self) -> Deployment<D> {
        Deployment {
            layout: self.layout.clone(),
            config: self.config.clone(),
            shared: self.shared.clone(),
            pool: Arc::clone(&self.pool),
            journal: Arc::clone(&self.journal),
            saves_skipped: Arc::clone(&self.saves_skipped),
        }
    }

    /// The secret layout this deployment serves.
    pub fn layout(&self) -> &SecretLayout {
        &self.layout
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The deployment's worker pool, which runs the `count`/`valid` solver jobs (and any other
    /// job a caller submits to it).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// The shared synthesis cache handle (cheap to clone; hand it to sessions created
    /// outside [`Deployment::session`] if needed).
    pub fn shared(&self) -> &SharedSynthCache<D> {
        &self.shared
    }

    /// Aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            cache: self.shared.stats(),
            entries: self.shared.len(),
            workers: self.pool.workers(),
        }
    }

    /// The journal counters (`appended:compacted:replayed:torn` on the wire stats line);
    /// all-zero when no journal is attached.
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.get().map(Journal::stats).unwrap_or_default()
    }

    /// Entries skipped as unencodable across every [`Deployment::save_cache`] and journal
    /// compaction so far.
    pub fn saves_skipped(&self) -> u64 {
        self.saves_skipped.load(Ordering::Relaxed)
    }

    /// Opens a session against this deployment: it shares the deployment's synthesis
    /// cache, and its downgrade outcomes fold into the deployment aggregates.
    pub fn session(&self, policy: impl Policy<D> + Send + Sync + 'static) -> AnosySession<D> {
        AnosySession::with_shared(self.layout.clone(), policy, self.shared.clone())
    }

    /// Counts the models of `pred` over the layout's whole space: one sequential
    /// [`Solver::count_models`] job on the pool, so the answer does not depend on its width and
    /// the configured solver budget bounds the whole request.
    ///
    /// # Errors
    ///
    /// Propagates the solver's [`SolverError`].
    pub fn count_models(&self, pred: &Pred) -> Result<u128, SolverError> {
        let pred = pred.clone();
        self.solve(move |solver, space| solver.count_models(&pred, space))
    }

    /// Checks whether `pred` holds on every point of the layout's space: one sequential
    /// [`Solver::check_validity`] job on the pool (see [`Deployment::count_models`]).
    ///
    /// # Errors
    ///
    /// Propagates the solver's [`SolverError`].
    pub fn check_validity(&self, pred: &Pred) -> Result<ValidityOutcome, SolverError> {
        let pred = pred.clone();
        self.solve(move |solver, space| solver.check_validity(&pred, space))
    }

    /// Runs `query` as one job on the pool, with a fresh solver over the layout's space; a
    /// panic in the job resumes here with its original payload.
    fn solve<T, F>(&self, query: F) -> Result<T, SolverError>
    where
        T: Send + 'static,
        F: FnOnce(&mut Solver, &IntBox) -> Result<T, SolverError> + Send + 'static,
    {
        let config = self.config.solver().clone();
        let space = self.layout.space();
        let job = move || query(&mut Solver::with_config(config), &space);
        let slot = self.pool.scatter(vec![job]).pop().expect("one job yields one slot");
        slot.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

impl<D: AbstractDomain + SynthesizeInto> Deployment<D> {
    /// Registers one query with the deployment: synthesizes and verifies it now (once per
    /// deployment; later calls are cache hits) and returns its ind. sets — what the serving
    /// frontend installs in its registry. Safe to call concurrently and repeatedly. Runs the same
    /// [`synthesize_and_verify`](anosy_core::synthesize_and_verify) pipeline — including the
    /// verifier's default solver budget — that a session registration would, so a `(query,
    /// kind, members)` key verifies identically no matter which entry point races into the
    /// single-flight slot.
    ///
    /// # Errors
    ///
    /// Propagates synthesis, verification and solver failures (as [`ServeError::Anosy`]).
    pub fn register_query(
        &self,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Result<IndSets<D>, ServeError> {
        let (indsets, _) = self.shared.get_or_synthesize(query, kind, members, || {
            // Constructed only on an actual miss: warm hits stay allocation-free.
            let mut synth = Synthesizer::with_config(self.config.synth.clone());
            anosy_core::synthesize_and_verify(
                &mut synth,
                query,
                kind,
                members,
                SolverConfig::default(),
            )
        })?;
        Ok(indsets)
    }
}

impl<D: DomainCodec + 'static> Deployment<D> {
    /// Loads a snapshot saved by [`Deployment::save_cache`] (or a journal) — [`journal::replay`]
    /// followed by installing its good prefix. A missing file is a cold start; a torn or corrupt
    /// tail loads the entries before it and counts in [`WarmStartOutcome::torn`]. Entries whose
    /// key is already cached are not re-installed (the in-memory value wins) and count toward
    /// neither total.
    ///
    /// Loaded entries are trusted unless `verify` is set: then every entry's refinement
    /// obligations are **re-checked with the solver** (the same Fig. 4 specification a fresh
    /// synthesis would have to pass, under the deployment's solver budget) before it is
    /// installed, and entries that fail — or whose obligations cannot be decided within
    /// budget — are skipped and counted. This is the `verify` flag of the `warm` wire request
    /// and `anosy-served --verify-on-load`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] / [`ServeError::Format`] for unreadable files, files of
    /// another domain and files that are not journals, and [`ServeError::Solver`] if the
    /// solver itself fails (not merely exhausts its budget) on an obligation.
    pub fn warm_start(&self, path: &Path, verify: bool) -> Result<WarmStartOutcome, ServeError> {
        let _span = anosy_telemetry::span("warm_start");
        let (entries, torn) = journal::replay::<D>(path)?;
        Ok(WarmStartOutcome { torn, ..self.install_entries(entries, verify)? })
    }

    /// Installs decoded entries into the shared cache — the one funnel under both the snapshot
    /// loads and the journal replay, so `--verify-on-load` applies identically to either
    /// provenance. With `verify` set, every entry's refinement obligations are re-checked with
    /// the solver first (see [`Deployment::warm_start`]); already-cached keys are never
    /// re-installed (and, verified, never re-checked — the in-memory value wins).
    fn install_entries(
        &self,
        entries: Vec<SharedCacheEntry<D>>,
        verify: bool,
    ) -> Result<WarmStartOutcome, ServeError> {
        let mut outcome = WarmStartOutcome::default();
        if !verify {
            for entry in entries {
                if self.shared.insert_ready(entry) {
                    outcome.installed += 1;
                }
            }
            return Ok(outcome);
        }
        let mut verifier = anosy_verify::Verifier::with_config(self.config.solver().clone());
        for entry in entries {
            // The entry's provenance is untrusted, but its shape must still be a well-formed
            // query; a predicate outside the layout is a skip, not a crash.
            let Ok(query) = QueryDef::new("warm", entry.layout.clone(), entry.pred.clone()) else {
                outcome.skipped += 1;
                continue;
            };
            // An already-cached key would lose to the in-memory value either way, so don't pay
            // the solver re-verification (the dominant cost of this path) for it.
            if self.shared.contains(&query, entry.kind, entry.members) {
                continue;
            }
            if !verifier.verify_indsets(&query, &entry.indsets)?.is_verified() {
                outcome.skipped += 1;
                continue;
            }
            if self.shared.insert_ready(entry) {
                outcome.installed += 1;
            }
        }
        Ok(outcome)
    }

    /// Persists the current synthesis cache for the next process's [`Deployment::warm_start`],
    /// reporting written and (unencodable-)skipped entry counts. When a journal is attached and
    /// `path` is its snapshot path, this is a full **compaction** — the snapshot save plus an
    /// atomic journal truncation under the journal lock (see
    /// [`Journal::compact_with`]); saving to any other path leaves the journal alone, since
    /// truncating it against a snapshot the next recovery won't read would lose entries.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures.
    pub fn save_cache(&self, path: &Path) -> Result<SaveOutcome, ServeError> {
        let _span = anosy_telemetry::span("save_cache");
        let outcome = match self.journal.get() {
            Some(journal) if path == journal.config().snapshot_path() => {
                journal.compact_with(|| self.shared.export_entries())?.snapshot
            }
            _ => journal::save_entries(path, &self.shared.export_entries())?,
        };
        self.saves_skipped.fetch_add(outcome.skipped as u64, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Opens the configured journal ([`ServeConfig::journal`]) and performs the warm restart:
    /// [`Deployment::warm_start`] on the compaction snapshot, then [`Journal::recover`] on the
    /// journal (truncating a torn tail), installing both through the same `verify`-respecting
    /// funnel, and attaches a commit observer so every subsequently committed synthesis entry
    /// is appended as it lands. The append that brings the journal to
    /// [`JournalConfig::compact_every`](journal::JournalConfig::compact_every) records also
    /// compacts it, on the committing thread. Returns `Ok(None)` when the config carries no
    /// journal. Call once per deployment, before serving traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] / [`ServeError::Format`] for unreadable files, files of the
    /// wrong domain and files that are not journals, [`ServeError::Solver`] from `verify`, and
    /// [`ServeError::Format`] when a journal is already attached.
    pub fn open_journal(&self, verify: bool) -> Result<Option<RecoveryOutcome>, ServeError> {
        let Some(config) = self.config.journal.clone() else {
            return Ok(None);
        };
        let snapshot = self.warm_start(&config.snapshot_path(), verify)?;
        let recovered = Journal::recover(config)?;
        let replayed = recovered.entries.len();
        let installed = self.install_entries(recovered.entries, verify)?;
        if self.journal.set(recovered.journal).is_err() {
            return Err(ServeError::Format {
                line: 0,
                reason: "journal already attached to this deployment".into(),
            });
        }
        let journal = Arc::clone(&self.journal);
        let saves_skipped = Arc::clone(&self.saves_skipped);
        self.shared.set_commit_observer(move |cache, entry| {
            let Some(journal) = journal.get() else { return };
            // Losing durability must not take serving down; the operator sees the failure,
            // answers keep flowing. The observer runs with no cache lock held, so it takes the
            // journal lock and then the cache's, the same order as `save_cache`.
            match journal.append(entry) {
                Ok(false) => {}
                Ok(true) => match journal.compact_with(|| cache.export_entries()) {
                    Ok(outcome) => {
                        saves_skipped.fetch_add(outcome.snapshot.skipped as u64, Ordering::Relaxed);
                    }
                    Err(err) => eprintln!("anosy-serve: journal compaction failed: {err}"),
                },
                Err(err) => eprintln!("anosy-serve: journal append failed: {err}"),
            }
        });
        Ok(Some(RecoveryOutcome {
            snapshot,
            replayed,
            replay_skipped: installed.skipped,
            torn: snapshot.torn + recovered.torn,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_core::PolicySpec;
    use anosy_domains::IntervalDomain;
    use anosy_ifc::Protected;
    use anosy_logic::{IntExpr, Point};
    use anosy_synth::SynthConfig;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby_query(xo: i64) -> QueryDef {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new(format!("nearby_{xo}_200"), layout(), pred).unwrap()
    }

    #[test]
    fn deployment_sessions_share_one_synthesis() {
        let deployment: Deployment<IntervalDomain> =
            Deployment::new(layout(), ServeConfig::for_tests());
        deployment.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        assert_eq!(deployment.stats().cache.synth_misses, 1);

        let mut synth = Synthesizer::with_config(deployment.config().synth.clone());
        for _ in 0..3 {
            let mut session = deployment.session(PolicySpec::MinSize(100));
            session
                .register_synthesized(&mut synth, &nearby_query(200), ApproxKind::Under, None)
                .unwrap();
            assert_eq!(session.stats().synth_cache_hits, 1);
        }
        assert_eq!(synth.solver_stats().nodes_explored, 0, "sessions did zero solver work");
        let stats = deployment.stats();
        assert_eq!(stats.cache.synth_misses, 1);
        assert_eq!(stats.cache.synth_hits, 3);
        assert_eq!(stats.cache.sessions_opened, 3);
        assert_eq!(stats.entries, 1);
        assert!(stats.to_string().contains("workers"));
    }

    #[test]
    fn warm_start_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("anosy-serve-deployment-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm_start.cache");
        let _ = std::fs::remove_file(&path);

        let first: Deployment<IntervalDomain> = Deployment::new(layout(), ServeConfig::for_tests());
        assert_eq!(
            first.warm_start(&path, false).unwrap(),
            WarmStartOutcome::default(),
            "missing file is a cold start"
        );
        first.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        first.register_query(&nearby_query(300), ApproxKind::Over, None).unwrap();
        assert_eq!(first.save_cache(&path).unwrap(), crate::SaveOutcome { written: 2, skipped: 0 });

        // A restarted deployment loads the cache and performs no synthesis at all.
        let second: Deployment<IntervalDomain> =
            Deployment::new(layout(), ServeConfig::for_tests());
        assert_eq!(second.warm_start(&path, false).unwrap().installed, 2);
        second.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        second.register_query(&nearby_query(300), ApproxKind::Over, None).unwrap();
        let stats = second.stats();
        assert_eq!(stats.cache.warm_loaded, 2);
        assert_eq!(stats.cache.synth_misses, 0, "warm start must skip synthesis entirely");
        assert_eq!(stats.cache.synth_hits, 2);

        // The warm entries serve sessions with answers identical to fresh synthesis.
        let mut synth = Synthesizer::with_config(second.config().synth.clone());
        let mut warm_session = second.session(PolicySpec::MinSize(100));
        warm_session
            .register_synthesized(&mut synth, &nearby_query(200), ApproxKind::Under, None)
            .unwrap();
        let mut cold_session = first.session(PolicySpec::MinSize(100));
        cold_session
            .register_synthesized(&mut synth, &nearby_query(200), ApproxKind::Under, None)
            .unwrap();
        let secret = Point::new(vec![250, 200]);
        let warm = warm_session.downgrade(&Protected::new(secret.clone()), "nearby_200_200");
        let cold = cold_session.downgrade(&Protected::new(secret.clone()), "nearby_200_200");
        assert_eq!(warm, cold);
        assert_eq!(
            warm_session.knowledge_of(&secret).size(),
            cold_session.knowledge_of(&secret).size()
        );
    }

    #[test]
    fn verified_warm_start_installs_sound_entries_and_refuses_tampered_ones() {
        use anosy_core::SharedCacheEntry;
        use anosy_domains::AInt;
        use anosy_synth::IndSets;

        let dir = std::env::temp_dir().join("anosy-serve-deployment-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm_start_verified.cache");
        let _ = std::fs::remove_file(&path);

        let cold: Deployment<IntervalDomain> = Deployment::new(layout(), ServeConfig::for_tests());
        assert_eq!(
            cold.warm_start(&path, true).unwrap(),
            WarmStartOutcome::default(),
            "missing file is a cold start"
        );

        // One honest entry (synthesized and saved by a real deployment) and one tampered one:
        // a claimed under-approximation whose truthy set is the whole space.
        let honest: Deployment<IntervalDomain> =
            Deployment::new(layout(), ServeConfig::for_tests());
        honest.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        let mut entries = honest.shared().export_entries();
        let tampered_pred = ((anosy_logic::IntExpr::var(0) - 300).abs()
            + (anosy_logic::IntExpr::var(1) - 200).abs())
        .le(100);
        entries.push(SharedCacheEntry {
            pred: tampered_pred,
            layout: layout(),
            kind: ApproxKind::Under,
            members: None,
            indsets: IndSets::new(
                ApproxKind::Under,
                IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 400)]),
                IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 400)]),
            ),
        });
        crate::save_entries(&path, &entries).unwrap();

        let second: Deployment<IntervalDomain> =
            Deployment::new(layout(), ServeConfig::for_tests());
        let outcome = second.warm_start(&path, true).unwrap();
        assert_eq!(outcome, WarmStartOutcome { installed: 1, skipped: 1, torn: 0 });
        // Re-loading the same file: the installed key is already cached, so it is neither
        // re-verified nor re-installed; only the tampered entry is re-checked (and skipped).
        let again = second.warm_start(&path, true).unwrap();
        assert_eq!(again, WarmStartOutcome { installed: 0, skipped: 1, torn: 0 });
        // The trusted path reports installs with zero skips.
        let trusted: Deployment<IntervalDomain> =
            Deployment::new(layout(), ServeConfig::for_tests());
        let outcome = trusted.warm_start(&path, false).unwrap();
        assert_eq!(outcome.skipped, 0);
        assert_eq!(outcome.installed, 2, "the trusted path installs even the tampered entry");
        // The installed entry serves registrations with zero synthesis, like a plain warm start.
        second.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().cache.synth_misses, 0);
        // The tampered query is *not* warm: registering it re-synthesizes honestly.
        let stats_before = second.stats();
        let tampered_query = nearby_query(300);
        second.register_query(&tampered_query, ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().cache.synth_misses, stats_before.cache.synth_misses + 1);
    }

    #[test]
    fn journal_makes_restarts_lossless_between_saves() {
        use crate::journal::JournalConfig;

        let dir = std::env::temp_dir().join("anosy-serve-deployment-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("restart.journal");
        let journal = JournalConfig::new(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal.snapshot_path());
        let config = ServeConfig::for_tests().with_journal(journal.clone());

        // First life: journal on, synthesize two queries, then "crash" (drop without saving).
        let first: Deployment<IntervalDomain> = Deployment::new(layout(), config.clone());
        let recovery = first.open_journal(false).unwrap().unwrap();
        assert_eq!(recovery, RecoveryOutcome::default(), "first boot is cold");
        first.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        first.register_query(&nearby_query(300), ApproxKind::Over, None).unwrap();
        assert_eq!(first.journal_stats().appended, 2, "commits are journaled as they land");
        drop(first);

        // Second life: journal replay alone restores the cache — zero re-synthesis.
        let second: Deployment<IntervalDomain> = Deployment::new(layout(), config.clone());
        let recovery = second.open_journal(false).unwrap().unwrap();
        assert_eq!((recovery.replayed, recovery.torn), (2, 0));
        second.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        second.register_query(&nearby_query(300), ApproxKind::Over, None).unwrap();
        assert_eq!(second.stats().cache.synth_misses, 0, "replayed entries skip synthesis");

        // Saving to the snapshot path is a compaction: entries move journal → snapshot.
        let saved = second.save_cache(&journal.snapshot_path()).unwrap();
        assert_eq!(saved, SaveOutcome { written: 2, skipped: 0 });
        assert_eq!(second.journal_stats().compacted, 2);
        drop(second);

        // Third life: everything now comes from the snapshot, nothing from the journal.
        let third: Deployment<IntervalDomain> = Deployment::new(layout(), config);
        let recovery = third.open_journal(false).unwrap().unwrap();
        assert_eq!(recovery.snapshot.installed, 2);
        assert_eq!(recovery.replayed, 0);
        assert!(
            third.open_journal(false).is_err(),
            "a second open_journal on one deployment is refused"
        );
    }

    #[test]
    fn torn_snapshot_recovers_its_good_prefix() {
        use crate::journal::JournalConfig;

        let dir = std::env::temp_dir().join("anosy-serve-deployment-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_snapshot.journal");
        let journal = JournalConfig::new(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal.snapshot_path());
        let config = ServeConfig::for_tests().with_journal(journal.clone());

        // Compact two entries into the snapshot, leaving the journal header-only.
        let first: Deployment<IntervalDomain> = Deployment::new(layout(), config.clone());
        first.open_journal(false).unwrap().unwrap();
        first.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        first.register_query(&nearby_query(300), ApproxKind::Under, None).unwrap();
        let saved = first.save_cache(&journal.snapshot_path()).unwrap();
        assert_eq!(saved.written, 2);
        drop(first);

        // Cut the snapshot inside its second record.
        let bytes = std::fs::read(journal.snapshot_path()).unwrap();
        std::fs::write(journal.snapshot_path(), &bytes[..bytes.len() - 5]).unwrap();

        let second: Deployment<IntervalDomain> = Deployment::new(layout(), config);
        let recovery = second.open_journal(false).unwrap().unwrap();
        assert_eq!(recovery.snapshot, WarmStartOutcome { installed: 1, skipped: 0, torn: 1 });
        assert_eq!((recovery.replayed, recovery.torn), (0, 1));
        // The good prefix serves without synthesis; the cut entry is synthesized afresh.
        second.register_query(&nearby_query(200), ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().cache.synth_misses, 0);
        second.register_query(&nearby_query(300), ApproxKind::Under, None).unwrap();
        assert_eq!(second.stats().cache.synth_misses, 1);
    }

    #[test]
    fn count_and_validity_answer_the_same_at_every_pool_width() {
        let diamond = |xo: i64, yo: i64, radius: i64| {
            ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(radius)
        };
        let preds = [
            diamond(200, 200, 100),
            IntExpr::var(0).ge(401),
            (IntExpr::var(0) + IntExpr::var(1)).ge(0),
            Pred::True,
            Pred::False,
        ];
        // Two far-apart diamonds under a 300-node budget. The chunked driver this replaced gave
        // each of its 4-per-worker chunks its own budget, so it counted them at 4 workers (the
        // hardest chunk needed 183 nodes) but not at 1 or 2 (665 and 357); the whole-space
        // search needs 1331, so the budget now denies the request at every width.
        let pair = diamond(100, 100, 60).or_else(diamond(300, 300, 60));
        let tight = ServeConfig::for_tests().with_synth(
            SynthConfig::new().with_solver(SolverConfig::for_tests().with_max_nodes(300)),
        );
        let space = layout().space();
        let fresh = || Solver::with_config(SolverConfig::for_tests());
        let expected: Vec<_> = preds
            .iter()
            .map(|pred| (fresh().count_models(pred, &space), fresh().check_validity(pred, &space)))
            .collect();
        let denied = Solver::with_config(tight.solver().clone()).count_models(&pair, &space);
        assert!(matches!(denied, Err(SolverError::BudgetExhausted { .. })), "{denied:?}");
        for workers in [1, 2, 4] {
            let deployment: Deployment<IntervalDomain> =
                Deployment::new(layout(), ServeConfig::for_tests().with_workers(workers));
            assert_eq!(deployment.stats().workers, workers);
            for (pred, (count, validity)) in preds.iter().zip(&expected) {
                assert_eq!(&deployment.count_models(pred), count, "{pred} at {workers} workers");
                assert_eq!(&deployment.check_validity(pred), validity, "{pred} at {workers}");
            }
            assert_eq!(deployment.count_models(&preds[0]), Ok(20_201)); // the radius-100 diamond
            let tight: Deployment<IntervalDomain> =
                Deployment::new(layout(), tight.clone().with_workers(workers));
            assert_eq!(tight.count_models(&pair), denied, "the budget bounds the whole request");
        }
    }
}

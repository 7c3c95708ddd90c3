//! The deployment-shared synthesis cache: one synthesis cache for *all* sessions of a
//! deployment.
//!
//! A single [`crate::AnosySession`] already avoids re-synthesizing a query it has seen before.
//! Under the serving pattern — thousands of sessions, each registering the same query set — the
//! per-session cache still synthesizes once *per session*. [`SharedSynthCache`] hoists the
//! synthesis cache behind an [`Arc`], so synthesis happens once per **deployment**:
//!
//! * synthesis results are cached under the key `(predicate, layout, direction, members)` with
//!   **single-flight** semantics: when several sessions race to register the same uncached
//!   query, exactly one runs the synthesize-and-verify pipeline and the rest block until the
//!   result is published (a failed or panicked attempt releases the slot, so a waiter retries —
//!   the same retry a sequential caller would perform);
//! * aggregate counters ([`SharedCacheStats`]) fold every session's hits/misses and
//!   authorize/refuse outcomes into one deployment-wide observability block.
//!
//! The key holds the predicate tree itself: two registrations share an entry exactly when their
//! predicates are equal as [`Pred`] values. Nothing is simplified first, so equivalent but
//! differently written predicates synthesize separately.
//!
//! Sessions join a shared cache via [`crate::AnosySession::with_shared`], and a standalone
//! session ([`crate::AnosySession::new`]) is a deployment of one with a private cache. The
//! `anosy-serve` crate wraps this type into a full deployment (worker pool, batched downgrades,
//! warm-start persistence).

use crate::AnosyError;
use anosy_domains::AbstractDomain;
use anosy_logic::{Pred, SecretLayout};
use anosy_synth::{ApproxKind, IndSets, QueryDef};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Key of a synthesis cache: the query predicate, the layout it ranges over, the approximation
/// direction and the powerset member budget. The query *name* is deliberately absent — two
/// differently-named registrations of the same predicate share one synthesis.
type SynthCacheKey = (Pred, SecretLayout, ApproxKind, Option<usize>);

/// A cached synthesis result together with the metadata needed to persist and re-load it.
#[derive(Debug, Clone)]
pub struct SharedCacheEntry<D: AbstractDomain> {
    /// The query predicate.
    pub pred: Pred,
    /// The secret layout the query ranges over.
    pub layout: SecretLayout,
    /// The approximation direction.
    pub kind: ApproxKind,
    /// The powerset member budget (`None` for interval-domain entries).
    pub members: Option<usize>,
    /// The synthesized (and verified) indistinguishability sets.
    pub indsets: IndSets<D>,
}

enum SlotState<D: AbstractDomain> {
    /// Some session is currently synthesizing this entry; waiters block on the condvar.
    InFlight,
    /// The synthesized and verified ind. sets (the key holds the rest of the entry).
    Ready(IndSets<D>),
}

#[derive(Debug, Default)]
struct Counters {
    synth_hits: AtomicU64,
    synth_misses: AtomicU64,
    downgrades_authorized: AtomicU64,
    downgrades_refused: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    warm_loaded: AtomicU64,
}

/// A point-in-time snapshot of a deployment's aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Registrations answered from the shared cache — including those that waited on an
    /// in-flight synthesis instead of starting their own. Only registrations count (a
    /// deployment's `register_query`, a session's `register_synthesized`/`register_cached`):
    /// opening a session looks nothing up.
    pub synth_hits: u64,
    /// Registrations that ran the full synthesize-and-verify pipeline.
    pub synth_misses: u64,
    /// Downgrades authorized across all sessions of the deployment.
    pub downgrades_authorized: u64,
    /// Downgrades refused by a policy across all sessions of the deployment.
    pub downgrades_refused: u64,
    /// Sessions opened against this shared cache.
    pub sessions_opened: u64,
    /// Sessions since torn down (dropped, closed by a frontend, or released by a dying
    /// connection). `sessions_opened - sessions_closed` is the number currently live, so a
    /// serving transport that leaks sessions on connection drop shows up here.
    pub sessions_closed: u64,
    /// Entries loaded from a warm-start snapshot rather than synthesized.
    pub warm_loaded: u64,
}

impl SharedCacheStats {
    /// Fraction of registrations served from the cache, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.synth_hits + self.synth_misses;
        if total == 0 {
            0.0
        } else {
            self.synth_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SharedCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sessions ({} closed): {} synth hits / {} misses ({} warm-loaded), \
             {} downgrades authorized, {} refused",
            self.sessions_opened,
            self.sessions_closed,
            self.synth_hits,
            self.synth_misses,
            self.warm_loaded,
            self.downgrades_authorized,
            self.downgrades_refused
        )
    }
}

/// A hook invoked with the committing cache and every entry its single-flight path commits
/// (see [`SharedSynthCache::set_commit_observer`]).
pub type CommitObserver<D> = Arc<dyn Fn(&SharedSynthCache<D>, &SharedCacheEntry<D>) + Send + Sync>;

struct Inner<D: AbstractDomain> {
    slots: Mutex<HashMap<SynthCacheKey, SlotState<D>>>,
    ready: Condvar,
    counters: Counters,
    observer: Mutex<Option<CommitObserver<D>>>,
}

/// The deployment-shared synthesis cache (see the module docs above).
///
/// Cloning is cheap and shares the same underlying state — hand one clone to every session of
/// the deployment.
pub struct SharedSynthCache<D: AbstractDomain> {
    inner: Arc<Inner<D>>,
}

impl<D: AbstractDomain> Clone for SharedSynthCache<D> {
    fn clone(&self) -> Self {
        SharedSynthCache { inner: Arc::clone(&self.inner) }
    }
}

impl<D: AbstractDomain> fmt::Debug for SharedSynthCache<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSynthCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<D: AbstractDomain> Default for SharedSynthCache<D> {
    fn default() -> Self {
        SharedSynthCache::new()
    }
}

/// Recovers the guarded data of a poisoned lock: a panic in one session (e.g. inside a
/// synthesizer) must not wedge the whole deployment, and every critical section here leaves the
/// map in a consistent state (in-flight slots are rolled back by [`InFlightGuard`]).
fn recover<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rolls an in-flight slot back if the synthesis closure fails or panics, so waiting sessions
/// wake up and retry instead of blocking forever.
struct InFlightGuard<'a, D: AbstractDomain> {
    inner: &'a Inner<D>,
    key: Option<SynthCacheKey>,
}

impl<D: AbstractDomain> Drop for InFlightGuard<'_, D> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            recover(self.inner.slots.lock()).remove(&key);
            self.inner.ready.notify_all();
        }
    }
}

impl<D: AbstractDomain> SharedSynthCache<D> {
    /// Creates an empty shared cache.
    pub fn new() -> Self {
        SharedSynthCache {
            inner: Arc::new(Inner {
                slots: Mutex::new(HashMap::new()),
                ready: Condvar::new(),
                counters: Counters::default(),
                observer: Mutex::new(None),
            }),
        }
    }

    /// Installs a commit observer: a hook called with this cache and every entry the
    /// single-flight synthesis path publishes, *after* the entry is visible to waiters and with
    /// no cache lock held (so the hook may read the cache, e.g. export it, without the observer
    /// owning a handle to it — which would be a reference cycle). Warm-start inserts
    /// ([`SharedSynthCache::insert_ready`]) do **not** fire the hook — they originate from a
    /// snapshot that already persists the entry. The serving layer uses this to append each
    /// freshly synthesized entry to its durability journal; the ordering (publish, then
    /// observe) is what lets a journal compaction that snapshots the cache under a lock held
    /// across both steps never lose an entry (a racing commit is either in the snapshot or
    /// appends after the truncation — possibly both, and replay tolerates duplicates).
    pub fn set_commit_observer(
        &self,
        observer: impl Fn(&SharedSynthCache<D>, &SharedCacheEntry<D>) + Send + Sync + 'static,
    ) {
        *recover(self.inner.observer.lock()) = Some(Arc::new(observer));
    }

    /// Number of synthesized entries currently cached (in-flight slots excluded).
    pub fn len(&self) -> usize {
        recover(self.inner.slots.lock())
            .values()
            .filter(|slot| matches!(slot, SlotState::Ready(_)))
            .count()
    }

    /// Returns `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the deployment-wide counters.
    pub fn stats(&self) -> SharedCacheStats {
        let c = &self.inner.counters;
        SharedCacheStats {
            synth_hits: c.synth_hits.load(Ordering::Relaxed),
            synth_misses: c.synth_misses.load(Ordering::Relaxed),
            downgrades_authorized: c.downgrades_authorized.load(Ordering::Relaxed),
            downgrades_refused: c.downgrades_refused.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: c.sessions_closed.load(Ordering::Relaxed),
            warm_loaded: c.warm_loaded.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_session_opened(&self) {
        self.inner.counters.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_session_closed(&self) {
        self.inner.counters.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the outcomes of one batch of downgrades into the aggregates: at most one atomic
    /// add per counter, and none for a count of zero.
    pub(crate) fn note_downgrades(&self, authorized: u64, refused: u64) {
        let counters = &self.inner.counters;
        if authorized > 0 {
            counters.downgrades_authorized.fetch_add(authorized, Ordering::Relaxed);
        }
        if refused > 0 {
            counters.downgrades_refused.fetch_add(refused, Ordering::Relaxed);
        }
    }

    /// The cache key of a registration.
    fn key_for(query: &QueryDef, kind: ApproxKind, members: Option<usize>) -> SynthCacheKey {
        (query.pred().clone(), query.layout().clone(), kind, members)
    }

    /// Returns the cached ind. sets for the query, synthesizing them with `synthesize` exactly
    /// once per deployment if absent. The boolean is `true` for a cache hit (including waiting
    /// out another session's in-flight synthesis — no solver work happened on this call).
    ///
    /// # Errors
    ///
    /// Propagates the error of `synthesize` (only for the caller that actually ran it; waiters
    /// retry and may become the synthesizer themselves).
    pub fn get_or_synthesize(
        &self,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
        synthesize: impl FnOnce() -> Result<IndSets<D>, AnosyError>,
    ) -> Result<(IndSets<D>, bool), AnosyError> {
        let key = Self::key_for(query, kind, members);
        let mut slots: MutexGuard<'_, _> = recover(self.inner.slots.lock());
        loop {
            match slots.get(&key) {
                Some(SlotState::Ready(indsets)) => {
                    self.inner.counters.synth_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((indsets.clone(), true));
                }
                Some(SlotState::InFlight) => {
                    slots = recover(self.inner.ready.wait(slots));
                }
                None => break,
            }
        }
        slots.insert(key.clone(), SlotState::InFlight);
        self.inner.counters.synth_misses.fetch_add(1, Ordering::Relaxed);
        drop(slots);

        // Synthesis runs with no lock held; the guard rolls the slot back on error or panic.
        let mut guard = InFlightGuard { inner: &self.inner, key: Some(key.clone()) };
        let indsets = {
            let _span = anosy_telemetry::span("synth.single_flight");
            synthesize()?
        };
        guard.key = None; // publication below supersedes the rollback
        let observer = recover(self.inner.observer.lock()).clone();
        recover(self.inner.slots.lock()).insert(key, SlotState::Ready(indsets.clone()));
        self.inner.ready.notify_all();
        if let Some(observer) = observer {
            // Publish first, then observe: a compaction that locks its journal and *then*
            // snapshots the cache sees either the published entry (in the snapshot) or the
            // observer's append landing after the truncation — never neither.
            let entry = SharedCacheEntry {
                pred: query.pred().clone(),
                layout: query.layout().clone(),
                kind,
                members,
                indsets: indsets.clone(),
            };
            observer(self, &entry);
        }
        Ok((indsets, false))
    }

    /// Returns the cached ind. sets for the query **without ever synthesizing**: `None` when the
    /// key has no published entry. An in-flight synthesis by another session is waited out (the
    /// result is about to exist; returning `None` would race), which is why this still counts as
    /// a hit when it returns `Some`. This is the lookup behind cache-only session registration
    /// ([`crate::AnosySession::register_cached`]), a library entry point: the serving frontend
    /// keeps its queries in its own registry and never calls it.
    pub fn get_ready(
        &self,
        query: &QueryDef,
        kind: ApproxKind,
        members: Option<usize>,
    ) -> Option<IndSets<D>> {
        let key = Self::key_for(query, kind, members);
        let mut slots = recover(self.inner.slots.lock());
        loop {
            match slots.get(&key) {
                Some(SlotState::Ready(indsets)) => {
                    self.inner.counters.synth_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(indsets.clone());
                }
                Some(SlotState::InFlight) => {
                    slots = recover(self.inner.ready.wait(slots));
                }
                None => return None,
            }
        }
    }

    /// Whether the key already has an entry (no counters move). In-flight synthesis counts as
    /// present: the result is about to be published, and it would win over a warm-start insert
    /// anyway. This is the pre-check that lets a verified warm start skip re-verifying entries
    /// the deployment already holds.
    pub fn contains(&self, query: &QueryDef, kind: ApproxKind, members: Option<usize>) -> bool {
        let key = Self::key_for(query, kind, members);
        recover(self.inner.slots.lock()).contains_key(&key)
    }

    /// Inserts an already-synthesized (and, by contract, already-verified) entry, e.g. from a
    /// warm-start snapshot. Returns `false` when an entry for the same key already exists (the
    /// existing entry wins — a freshly synthesized result is never clobbered by a stale disk
    /// cache), and when the predicate names a field the layout lacks (no registration could
    /// ever look such an entry up).
    pub fn insert_ready(&self, entry: SharedCacheEntry<D>) -> bool {
        let SharedCacheEntry { pred, layout, kind, members, indsets } = entry;
        if pred.free_vars().last().is_some_and(|&max| max >= layout.arity()) {
            return false;
        }
        let key = (pred, layout, kind, members);
        let mut slots = recover(self.inner.slots.lock());
        match slots.get(&key) {
            Some(SlotState::Ready(_)) | Some(SlotState::InFlight) => false,
            None => {
                slots.insert(key, SlotState::Ready(indsets));
                self.inner.counters.warm_loaded.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// The cached entries, in a deterministic order (for persistence). In-flight slots are
    /// skipped.
    pub fn export_entries(&self) -> Vec<SharedCacheEntry<D>> {
        let slots = recover(self.inner.slots.lock());
        let mut entries: Vec<SharedCacheEntry<D>> = slots
            .iter()
            .filter_map(|((pred, layout, kind, members), slot)| match slot {
                SlotState::Ready(indsets) => Some(SharedCacheEntry {
                    pred: pred.clone(),
                    layout: layout.clone(),
                    kind: *kind,
                    members: *members,
                    indsets: indsets.clone(),
                }),
                SlotState::InFlight => None,
            })
            .collect();
        entries.sort_by(|a, b| {
            let ka = (a.pred.to_string(), format!("{:?}", a.layout), format!("{:?}", a.kind));
            let kb = (b.pred.to_string(), format!("{:?}", b.layout), format!("{:?}", b.kind));
            ka.cmp(&kb).then(a.members.cmp(&b.members))
        });
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_domains::IntervalDomain;
    use anosy_logic::IntExpr;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn query(xo: i64) -> QueryDef {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new(format!("nearby_{xo}"), layout(), pred).unwrap()
    }

    fn fake_indsets() -> IndSets<IntervalDomain> {
        IndSets::new(
            ApproxKind::Under,
            IntervalDomain::from_intervals(vec![
                anosy_domains::AInt::new(150, 250),
                anosy_domains::AInt::new(150, 250),
            ]),
            IntervalDomain::from_intervals(vec![
                anosy_domains::AInt::new(0, 400),
                anosy_domains::AInt::new(0, 99),
            ]),
        )
    }

    #[test]
    fn single_flight_under_contention() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        let synth_runs = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let synth_runs = &synth_runs;
                scope.spawn(move || {
                    let (ind, _) = cache
                        .get_or_synthesize(&query(200), ApproxKind::Under, None, || {
                            synth_runs.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really do pile up in-flight.
                            thread::sleep(std::time::Duration::from_millis(20));
                            Ok(fake_indsets())
                        })
                        .unwrap();
                    assert_eq!(ind, fake_indsets());
                });
            }
        });
        assert_eq!(synth_runs.load(Ordering::SeqCst), 1, "synthesis must run exactly once");
        let stats = cache.stats();
        assert_eq!(stats.synth_misses, 1);
        assert_eq!(stats.synth_hits, 7);
        assert!((stats.hit_ratio() - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_synthesis_releases_the_slot_for_retry() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        let err = cache
            .get_or_synthesize(&query(200), ApproxKind::Under, None, || {
                Err(AnosyError::SecretOutsideLayout)
            })
            .unwrap_err();
        assert_eq!(err, AnosyError::SecretOutsideLayout);
        assert!(cache.is_empty());
        // The slot is free again: the next caller synthesizes.
        let (_, hit) = cache
            .get_or_synthesize(&query(200), ApproxKind::Under, None, || Ok(fake_indsets()))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn the_key_is_the_predicate_not_the_name() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        cache
            .get_or_synthesize(&query(200), ApproxKind::Under, None, || Ok(fake_indsets()))
            .unwrap();
        // Same predicate, different name: a hit.
        let renamed = QueryDef::new("other_name", layout(), query(200).pred().clone()).unwrap();
        let (_, hit) = cache
            .get_or_synthesize(&renamed, ApproxKind::Under, None, || {
                panic!("must not resynthesize")
            })
            .unwrap();
        assert!(hit);
        // Different direction: a distinct entry.
        cache
            .get_or_synthesize(&query(200), ApproxKind::Over, None, || Ok(fake_indsets()))
            .unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn warm_entries_count_and_never_clobber() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        let entry = SharedCacheEntry {
            pred: query(200).pred().clone(),
            layout: layout(),
            kind: ApproxKind::Under,
            members: None,
            indsets: fake_indsets(),
        };
        assert!(cache.insert_ready(entry.clone()));
        assert!(!cache.insert_ready(entry.clone()), "duplicate warm insert is refused");
        let alien = SharedCacheEntry { pred: IntExpr::var(2).le(0), ..entry };
        assert!(!cache.insert_ready(alien), "a predicate beyond the layout's arity is refused");
        assert_eq!(cache.stats().warm_loaded, 1);
        let (_, hit) = cache
            .get_or_synthesize(&query(200), ApproxKind::Under, None, || {
                panic!("warm entry must serve this")
            })
            .unwrap();
        assert!(hit);
        let exported = cache.export_entries();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].indsets, fake_indsets());
    }

    #[test]
    fn export_order_is_deterministic() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        for xo in [300, 100, 200] {
            cache
                .get_or_synthesize(&query(xo), ApproxKind::Under, None, || Ok(fake_indsets()))
                .unwrap();
        }
        let a: Vec<String> = cache.export_entries().iter().map(|e| e.pred.to_string()).collect();
        let b: Vec<String> = cache.export_entries().iter().map(|e| e.pred.to_string()).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn the_commit_observer_sees_its_entry_published_and_the_cache_unlocked() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        // Exporting from inside the hook takes the slots lock: it must not be held here.
        cache.set_commit_observer(move |cache, entry| {
            recover(log.lock()).push((entry.pred.to_string(), cache.export_entries().len()));
        });
        for xo in [300, 100, 300] {
            cache
                .get_or_synthesize(&query(xo), ApproxKind::Under, None, || Ok(fake_indsets()))
                .unwrap();
        }
        assert_eq!(
            *recover(seen.lock()),
            vec![(query(300).pred().to_string(), 1), (query(100).pred().to_string(), 2)],
            "each commit is observed once, after it is published; the repeat is a hit"
        );
        // Warm-start inserts persist nothing new, so they never fire the hook.
        let mut entry = cache.export_entries()[0].clone();
        entry.pred = query(200).pred().clone();
        assert!(cache.insert_ready(entry));
        assert_eq!(recover(seen.lock()).len(), 2);
    }

    #[test]
    fn get_ready_is_lookup_only() {
        let cache: SharedSynthCache<IntervalDomain> = SharedSynthCache::new();
        assert_eq!(cache.get_ready(&query(200), ApproxKind::Under, None), None);
        assert_eq!(cache.stats().synth_hits, 0, "a miss is not a hit and never synthesizes");
        cache
            .get_or_synthesize(&query(200), ApproxKind::Under, None, || Ok(fake_indsets()))
            .unwrap();
        assert_eq!(
            cache.get_ready(&query(200), ApproxKind::Under, None),
            Some(fake_indsets()),
            "published entries are returned"
        );
        assert_eq!(cache.stats().synth_hits, 1);
        // A different direction is a different key.
        assert_eq!(cache.get_ready(&query(200), ApproxKind::Over, None), None);
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedSynthCache<IntervalDomain>>();
        assert_send_sync::<SharedCacheStats>();
    }
}

//! Property: journal recovery is exactly-the-good-prefix, no matter where a crash (or bit rot)
//! cuts the file.
//!
//! * Truncating a journal or a snapshot at **any** byte offset recovers precisely the records
//!   whose bytes survived whole — never a panic, never a half-applied record, and the torn-tail
//!   counter fires exactly when trailing bytes were dropped.
//! * Corrupting any single byte of any record of either recovers exactly the records before
//!   the corrupted one (the framing checksum rejects the rest).
//! * Replaying a journal that was compacted mid-stream restores the same cache as replaying
//!   one that never compacted — compaction moves entries, it cannot lose or invent them.
//! * With `compact_every = N`, a journaled deployment's journal stays below `N` records after
//!   every commit, and snapshot + journal recovery restores exactly the committed set.
//!
//! Entries are hand-built (no synthesis), so thousands of cases cost only file I/O.

use anosy_core::SharedCacheEntry;
use anosy_domains::{AInt, IntervalDomain};
use anosy_logic::{IntExpr, SecretLayout};
use anosy_serve::journal::replay;
use anosy_serve::{save_entries, Deployment, FlushPolicy, Journal, JournalConfig, ServeConfig};
use anosy_synth::{ApproxKind, IndSets, QueryDef};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
}

/// A persistable entry whose identity is `xo` (distinct `xo` → distinct cache key). The ind.
/// sets are arbitrary but well-formed — recovery replays entries, it does not verify them.
fn entry(xo: i64) -> SharedCacheEntry<IntervalDomain> {
    let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
    SharedCacheEntry {
        pred,
        layout: layout(),
        kind: ApproxKind::Under,
        members: None,
        indsets: IndSets::new(
            ApproxKind::Under,
            IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
            IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]),
        ),
    }
}

/// A fresh scratch path per invocation (proptest cases run sequentially per test, but the
/// tests themselves run on parallel threads).
fn scratch(prefix: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("anosy-serve-proptest-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{prefix}-{}.journal", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(JournalConfig::new(&path).snapshot_path());
    path
}

/// How the file under test was written: appended record by record, or saved in one go.
#[derive(Debug, Clone, Copy)]
enum FileKind {
    Journal,
    Snapshot,
}

fn file_kind() -> impl Strategy<Value = FileKind> {
    (0u8..2).prop_map(|k| if k == 0 { FileKind::Journal } else { FileKind::Snapshot })
}

/// Writes `xos` as records of a `kind` file and returns the record boundaries: `boundaries[0]`
/// is the byte length of the bare header, `boundaries[k]` the file length after `k` records —
/// read back from the filesystem after each flushed append (or after saving each prefix of
/// `xos` as a snapshot), so the test derives them without duplicating the framing arithmetic.
fn build_file(kind: FileKind, path: &PathBuf, xos: &[i64]) -> Vec<u64> {
    let len = || std::fs::metadata(path).unwrap().len();
    match kind {
        FileKind::Journal => {
            let recovered = Journal::<IntervalDomain>::recover(
                JournalConfig::new(path).with_flush(FlushPolicy::EveryEntry),
            )
            .unwrap();
            let mut boundaries = vec![len()];
            for &xo in xos {
                recovered.journal.append(&entry(xo)).unwrap();
                boundaries.push(len());
            }
            boundaries
        }
        FileKind::Snapshot => (0..=xos.len())
            .map(|k| {
                let prefix: Vec<_> = xos[..k].iter().map(|&xo| entry(xo)).collect();
                save_entries(path, &prefix).unwrap();
                len()
            })
            .collect(),
    }
}

/// One step of a journaled deployment's life.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Commit the entry of this `xo` through the cache (a cache hit when it is already there).
    Commit(i64),
    /// `save_cache` to the snapshot path: an explicit compaction.
    Save,
}

fn op() -> impl Strategy<Value = Op> {
    // Forty keys, so a life of a few dozen steps revisits some of them (hits commit nothing).
    (0i64..50).prop_map(|v| if v < 40 { Op::Commit(v * 10) } else { Op::Save })
}

fn distinct_xos() -> impl Strategy<Value = Vec<i64>> {
    // Shuffled distinct offsets: record k is entry `xos[k]`, so prefix checks are by value.
    // The shim has no shuffle combinator, so decode one of the 5! = 120 permutations.
    (0usize..120).prop_map(|mut index| {
        let mut pool: Vec<i64> = (0..5).map(|k| k * 80).collect();
        let mut xos = Vec::with_capacity(pool.len());
        for factorial in [24, 6, 2, 1, 1] {
            xos.push(pool.remove(index / factorial));
            index %= factorial;
        }
        xos
    })
}

proptest! {
    /// Truncation at any byte offset of a journal or a snapshot: replay returns exactly the
    /// records that survived whole, flags a torn tail iff trailing bytes were dropped, and
    /// `recover` repairs the file so a second recovery is clean.
    #[test]
    fn truncation_recovers_exactly_the_good_prefix(
        kind in file_kind(),
        xos in distinct_xos(),
        cut in 0u64..u64::MAX,
    ) {
        let path = scratch("truncate");
        let boundaries = build_file(kind, &path, &xos);
        let total = *boundaries.last().unwrap();
        let offset = cut % (total + 1); // any byte offset, including 0 and the full length

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..offset as usize]).unwrap();

        // The good prefix: every record fully below the cut. A cut inside the header (or mid-
        // record) is a tear; a cut exactly on a boundary is indistinguishable from a clean stop.
        let survivors = boundaries.iter().skip(1).filter(|&&b| b <= offset).count();
        let torn_expected = u64::from(offset != 0 && !boundaries.contains(&offset));

        let (entries, torn) = replay::<IntervalDomain>(&path).unwrap();
        prop_assert_eq!(entries.len(), survivors);
        prop_assert_eq!(torn, torn_expected);
        for (k, got) in entries.iter().enumerate() {
            prop_assert_eq!(&got.pred, &entry(xos[k]).pred, "record {} must survive intact", k);
        }

        // Recovery truncates the tear away: the journal is clean (and appendable) afterwards.
        let recovered =
            Journal::<IntervalDomain>::recover(JournalConfig::new(&path)).unwrap();
        prop_assert_eq!(recovered.entries.len(), survivors);
        prop_assert_eq!(recovered.torn, torn_expected);
        recovered.journal.append(&entry(999)).unwrap();
        drop(recovered);
        let (entries, torn) = replay::<IntervalDomain>(&path).unwrap();
        prop_assert_eq!(entries.len(), survivors + 1);
        prop_assert_eq!(torn, 0);
    }

    /// Flipping any single byte at or past the first record of a journal or a snapshot: replay
    /// stops exactly before the record holding the flipped byte — never a panic, never a
    /// desynced or altered entry.
    #[test]
    fn single_byte_corruption_recovers_to_the_preceding_records(
        kind in file_kind(),
        xos in distinct_xos(),
        at in 0u64..u64::MAX,
        flip in 1u8..=255,
    ) {
        let path = scratch("corrupt");
        let boundaries = build_file(kind, &path, &xos);
        let header = boundaries[0];
        let total = *boundaries.last().unwrap();
        let offset = header + at % (total - header); // any byte of any record, never the header

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize] ^= flip; // xor with a nonzero mask: guaranteed to change
        std::fs::write(&path, &bytes).unwrap();

        // The record containing the flipped byte (and everything after it) is rejected.
        let survivors = boundaries.iter().skip(1).filter(|&&b| b <= offset).count();
        let (entries, torn) = replay::<IntervalDomain>(&path).unwrap();
        prop_assert_eq!(entries.len(), survivors);
        prop_assert_eq!(torn, 1);
        for (k, got) in entries.iter().enumerate() {
            prop_assert_eq!(&got.pred, &entry(xos[k]).pred, "record {} must survive intact", k);
        }
    }

    /// Compaction mid-stream is invisible to recovery: a deployment recovered from
    /// snapshot + remainder-journal equals one recovered from the never-compacted journal.
    #[test]
    fn replay_after_compaction_equals_replay_without(
        xos in distinct_xos(),
        cut in 0usize..=5,
    ) {
        let cut = cut.min(xos.len());
        let plain_path = scratch("plain");
        let compacted_path = scratch("compacted");

        build_file(FileKind::Journal, &plain_path, &xos);

        let recovered = Journal::<IntervalDomain>::recover(
            JournalConfig::new(&compacted_path).with_flush(FlushPolicy::EveryEntry),
        )
        .unwrap();
        for &xo in &xos[..cut] {
            recovered.journal.append(&entry(xo)).unwrap();
        }
        let outcome = recovered
            .journal
            .compact_with(|| xos[..cut].iter().map(|&xo| entry(xo)).collect())
            .unwrap();
        prop_assert_eq!(outcome.truncated, cut as u64);
        for &xo in &xos[cut..] {
            recovered.journal.append(&entry(xo)).unwrap();
        }
        drop(recovered);

        let recover = |path: &PathBuf| {
            let config = ServeConfig::for_tests().with_journal(JournalConfig::new(path));
            let deployment: Deployment<IntervalDomain> = Deployment::new(layout(), config);
            deployment.open_journal(false).unwrap().unwrap();
            deployment.shared().export_entries()
        };
        let plain = recover(&plain_path);
        let compacted = recover(&compacted_path);
        prop_assert_eq!(plain.len(), xos.len());
        prop_assert_eq!(plain.len(), compacted.len());
        for (a, b) in plain.iter().zip(&compacted) {
            prop_assert_eq!(&a.pred, &b.pred);
            prop_assert_eq!(&a.indsets, &b.indsets);
        }
    }

    /// The journal bound under growth-driven compaction: with `compact_every = N`, the journal
    /// file replays fewer than `N` records after every commit, because the commit that brings it
    /// to `N` compacts before returning. One thread commits here, so no commit races a
    /// compaction and no duplicate records can appear; concurrent commits could each add one.
    /// Explicit compactions (`save_cache` to the snapshot path) interleave freely, and a crash
    /// at any step (the deployment dropped with no exit action) loses nothing: snapshot +
    /// journal recovery restores exactly the committed set.
    #[test]
    fn growth_compaction_bounds_the_journal_and_recovery_is_lossless(
        every in 1u64..6,
        ops in proptest::collection::vec(op(), 0..24),
        crash in 0usize..24,
    ) {
        let path = scratch("growth");
        let config = ServeConfig::for_tests()
            .with_journal(JournalConfig::new(&path).with_compact_every(every));
        let snapshot_path = config.journal.as_ref().unwrap().snapshot_path();

        let first: Deployment<IntervalDomain> = Deployment::new(layout(), config.clone());
        first.open_journal(false).unwrap().unwrap();
        let mut committed = std::collections::BTreeSet::new();
        for &op in &ops[..crash.min(ops.len())] {
            match op {
                Op::Commit(xo) => {
                    let fake = entry(xo);
                    let query = QueryDef::new(format!("q{xo}"), layout(), fake.pred).unwrap();
                    first
                        .shared()
                        .get_or_synthesize(&query, ApproxKind::Under, None, || Ok(fake.indsets))
                        .unwrap();
                    committed.insert(xo);
                    let (journaled, torn) = replay::<IntervalDomain>(&path).unwrap();
                    prop_assert!(
                        (journaled.len() as u64) < every,
                        "{} records journaled with compact_every = {}",
                        journaled.len(),
                        every
                    );
                    prop_assert_eq!(torn, 0);
                }
                Op::Save => {
                    first.save_cache(&snapshot_path).unwrap();
                    prop_assert_eq!(replay::<IntervalDomain>(&path).unwrap().0.len(), 0);
                }
            }
        }
        prop_assert_eq!(first.journal_stats().appended, committed.len() as u64);
        drop(first); // the crash: no save, no exit action

        let second: Deployment<IntervalDomain> = Deployment::new(layout(), config);
        let recovery = second.open_journal(false).unwrap().unwrap();
        prop_assert_eq!(recovery.torn, 0);
        let mut recovered: Vec<String> =
            second.shared().export_entries().iter().map(|e| e.pred.to_string()).collect();
        let mut expected: Vec<String> =
            committed.iter().map(|&xo| entry(xo).pred.to_string()).collect();
        recovered.sort();
        expected.sort();
        prop_assert_eq!(recovered, expected);
    }
}

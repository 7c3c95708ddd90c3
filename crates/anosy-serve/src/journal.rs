//! The durable synthesis cache: one append-only journal format, of which a snapshot is a
//! compacted copy.
//!
//! A restarted deployment should re-synthesize nothing it already served. Every entry the
//! single-flight synthesis path commits is **appended as it lands** (via the shared cache's
//! commit observer), and a snapshot — `SaveCache`, or a compaction — writes the whole cache at
//! once. Both are the same file format, so a warm restart is *snapshot replay + journal
//! replay*, and one reader ([`replay`]) serves both.
//!
//! # Format
//!
//! `anosy-synth-journal v1` is a header line naming the domain, then one framed record per
//! entry:
//!
//! ```text
//! anosy-synth-journal v1 domain=interval
//! record len=214 sum=91a0c2f7b3d45e68
//! entry kind=under members=-
//! layout x:0:400 y:0:400
//! pred ((abs((v0 - 200)) + abs((v1 - 200))) <= 100)
//! truthy 121..279,179..221
//! falsy 0..400,0..99
//! end
//! record len=...
//! ```
//!
//! Each `record` line announces the exact byte length of the six-line entry body that follows
//! and its FNV-1a 64 checksum in hex — the same [`wire::frame_checksum`] binary wire frames
//! carry. Predicates are written in their `Display` form and re-parsed with
//! [`anosy_logic::parse_pred`] (the printer and parser are exact inverses on the printable
//! fragment — property-tested in `anosy-logic`); domain elements use the [`DomainCodec`]
//! hooks. Entries whose predicate or layout does not round-trip are *skipped* rather than
//! written unreadably, by appends and saves alike; [`save_entries`] reports both counts as a
//! [`SaveOutcome`], and the serving surfaces propagate the skipped count (wire `ok saved`
//! responses, the stats snapshot) so a lossy save is visible to operators.
//!
//! # Replay
//!
//! Replay walks records front to back; the first record whose framing, checksum or body fails
//! to decode ends it — everything before it is the *good prefix*, everything from it on is
//! torn. A journal cut mid-append and a snapshot cut mid-write recover the same way. Only two
//! things are errors: a header naming another domain, and a first line that is not a journal
//! header at all (a file that merely *starts* like this deployment's header is a header torn
//! by a crash during the first write). [`Journal::recover`] truncates a torn tail away before
//! appending; it never rewrites a file it refused. Replayed entries are trusted — they were
//! verified before being written — unless the caller asks to re-verify them
//! ([`crate::Deployment::warm_start`]).
//!
//! # Flush policies
//!
//! No record stays buffered in the process once [`Journal::append`] returns. [`FlushPolicy`]
//! only says how far it got: `every-entry` hands each record to the OS (a killed *process*
//! loses nothing), `every-entry-fsync` also `sync_data`s it (a crashed *host* loses nothing
//! either). Snapshots are always hardened against a host crash (`sync_all` + rename).
//!
//! # Compaction
//!
//! [`Journal::compact_with`] folds the journal into its snapshot *while traffic continues*.
//! It runs on an explicit save to the snapshot path and, with [`JournalConfig::compact_every`]
//! set to `N`, on the thread whose append brings the journal file to `N` records:
//! [`Journal::append`] reports the compaction due and the deployment's commit observer runs it
//! before the commit returns. Growth alone drives it, so an idle deployment does no journal
//! work, and a single committing thread never leaves `N` records in the file (concurrent
//! commits can add the few that race a compaction).
//!
//! Compaction locks the journal (appends briefly queue), snapshots the cache through the
//! caller's export closure, writes the snapshot, then atomically replaces the journal with a
//! fresh header-only file. Both writes go through one temp-file-plus-rename routine whose temp
//! name is the target's name plus `.tmp`, so no two targets share a temp file. The lock
//! ordering is the correctness argument: the cache publishes an entry *before* its observer
//! appends, so any entry already journaled when the lock is taken is also in the exported
//! snapshot, and a commit racing the compaction appends to the *truncated* journal (possibly
//! duplicating the snapshot — replay tolerates duplicates, the in-memory entry wins). No entry
//! is ever lost and nothing stops the world.

use crate::{wire, ServeError};
use anosy_core::SharedCacheEntry;
use anosy_domains::AbstractDomain;
use anosy_logic::{parse_pred, SecretLayout};
use anosy_synth::{decode_indsets, encode_indsets, parse_approx_kind, DomainCodec};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic prefix of the journal file; the version is bumped on any incompatible format change.
const HEADER_PREFIX: &str = "anosy-synth-journal v1 domain=";

/// The header line of a journal or snapshot of domain `D`.
fn header<D: DomainCodec>() -> String {
    format!("{HEADER_PREFIX}{}\n", D::TAG)
}

/// Writes `body` as one framed record: the `record len=… sum=…` line, then the body itself.
/// The one framing routine under both [`Journal::append`] and [`save_entries`].
fn write_record(out: &mut impl Write, body: &str) -> std::io::Result<()> {
    let sum = wire::frame_checksum(body.as_bytes());
    writeln!(out, "record len={} sum={sum:016x}", body.len())?;
    out.write_all(body.as_bytes())
}

/// `path` with `suffix` appended to its file name (`j` → `j.snapshot`, `j.snapshot.tmp`).
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// Replaces `path` with `bytes` atomically: writes `<path>.tmp`, syncs it to stable storage,
/// then renames it over `path`. Appending `.tmp` (rather than replacing the extension) keeps
/// a journal's and its snapshot's temp files apart.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = with_suffix(path, ".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // The rename survives a host crash only once the directory entry itself is synced.
    #[cfg(unix)]
    File::open(path.parent().filter(|dir| !dir.as_os_str().is_empty()).unwrap_or(Path::new(".")))?
        .sync_all()?;
    Ok(())
}

/// Renders a layout as `name:lo:hi` tokens (the per-field form [`wire::parse_layout`] reads).
/// Returns `None` when a field name would not survive the encoding (whitespace or `:` in the
/// name).
fn encode_layout(layout: &SecretLayout) -> Option<String> {
    let mut tokens = Vec::with_capacity(layout.arity());
    for field in layout.fields() {
        let name = field.name();
        if name.contains(':') || name.chars().any(char::is_whitespace) || name.is_empty() {
            return None;
        }
        tokens.push(format!("{name}:{}:{}", field.lo(), field.hi()));
    }
    Some(tokens.join(" "))
}

/// Renders one entry as its six-line record body (`entry`/`layout`/`pred`/`truthy`/`falsy`/
/// `end`). Returns `None` when the entry does not survive the encoding faithfully: a layout
/// whose field names embed `:` or whitespace, or a predicate whose `Display` form does not
/// re-parse to the identical term (the cache key on load must intern to the same canonical
/// term it had on save).
fn encode_entry<D: DomainCodec>(entry: &SharedCacheEntry<D>) -> Option<String> {
    let layout_line = encode_layout(&entry.layout)?;
    let pred_line = entry.pred.to_string();
    match parse_pred(&pred_line) {
        Ok(reparsed) if reparsed == entry.pred => {}
        _ => return None,
    }
    let (kind, truthy, falsy) = encode_indsets(&entry.indsets);
    let members = match entry.members {
        Some(m) => m.to_string(),
        None => "-".to_string(),
    };
    Some(format!(
        "entry kind={kind} members={members}\nlayout {layout_line}\npred {pred_line}\n\
         truthy {truthy}\nfalsy {falsy}\nend\n"
    ))
}

/// Parses one [`encode_entry`] body back into an entry. The inverse on everything
/// [`encode_entry`] emits; any deviation is an error string (replay treats a non-decoding
/// record as corruption and stops at the good prefix before it).
fn parse_entry<D: DomainCodec>(body: &str) -> Result<SharedCacheEntry<D>, String> {
    let mut lines = body.lines();
    let head = lines.next().ok_or("empty entry body")?;
    let rest = head.strip_prefix("entry ").ok_or_else(|| format!("expected `entry`: {head}"))?;
    let mut kind = None;
    let mut members = None;
    for token in rest.split_whitespace() {
        if let Some(k) = token.strip_prefix("kind=") {
            kind = parse_approx_kind(k);
        } else if let Some(m) = token.strip_prefix("members=") {
            members = Some(if m == "-" {
                None
            } else {
                Some(m.parse().map_err(|_| "bad members count".to_string())?)
            });
        }
    }
    let kind = kind.ok_or("missing or bad kind")?;
    let members = members.ok_or("missing members")?;
    let mut field = |prefix: &str| -> Result<String, String> {
        let line = lines.next().ok_or_else(|| format!("truncated entry, wanted `{prefix}`"))?;
        line.strip_prefix(prefix)
            .map(str::to_string)
            .ok_or_else(|| format!("expected `{prefix}`, found `{line}`"))
    };
    let layout_text = field("layout ")?;
    let pred_text = field("pred ")?;
    let truthy_text = field("truthy ")?;
    let falsy_text = field("falsy ")?;
    let end_text = field("end")?;
    if !end_text.is_empty() || lines.next().is_some() {
        return Err("junk after `end`".to_string());
    }
    let layout =
        wire::parse_layout(&layout_text).ok_or(format!("malformed layout `{layout_text}`"))?;
    let pred = parse_pred(&pred_text).map_err(|e| format!("unparseable predicate: {e}"))?;
    let indsets = decode_indsets::<D>(kind, &truthy_text, &falsy_text, &layout)
        .ok_or("undecodable ind. sets")?;
    Ok(SharedCacheEntry { pred, layout, kind, members, indsets })
}

/// What a [`save_entries`] call accomplished: entries written, and entries that could not be
/// encoded faithfully and were skipped. A non-zero `skipped` means the snapshot is lossy
/// relative to the in-memory cache — the count rides the `ok saved` wire response and the
/// stats snapshot so operators can see it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveOutcome {
    /// Entries written to the file.
    pub written: usize,
    /// Entries skipped because they do not survive the text encoding (see the module docs).
    pub skipped: usize,
}

/// Writes the entries to `path` as a snapshot — a journal file written in one go (header plus
/// one framed record per entry), replaced atomically (see the module docs), so [`replay`]
/// loads it. Reports how many entries were written and how many could not be encoded
/// faithfully and were skipped.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on filesystem failures.
pub fn save_entries<D: DomainCodec>(
    path: &Path,
    entries: &[SharedCacheEntry<D>],
) -> Result<SaveOutcome, ServeError> {
    let mut bytes = header::<D>().into_bytes();
    let mut outcome = SaveOutcome::default();
    for entry in entries {
        match encode_entry(entry) {
            Some(body) => {
                write_record(&mut bytes, &body)?;
                outcome.written += 1;
            }
            None => outcome.skipped += 1,
        }
    }
    write_atomically(path, &bytes)?;
    Ok(outcome)
}

/// How far every appended record gets before [`Journal::append`] returns (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush every appended record to the OS (`every-entry`): a killed process loses nothing.
    EveryEntry,
    /// Flush **and `fsync`** every appended record (`every-entry-fsync`): a killed process
    /// *or a crashed host* loses nothing. `every-entry` only reaches the OS page cache, which
    /// a power cut still eats; this one pays a `sync_data` per append for host-crash
    /// durability.
    EveryEntryFsync,
}

impl FlushPolicy {
    /// Parses the wire/CLI form: `every-entry` or `every-entry-fsync`.
    pub fn parse(text: &str) -> Option<FlushPolicy> {
        match text {
            "every-entry" => Some(FlushPolicy::EveryEntry),
            "every-entry-fsync" => Some(FlushPolicy::EveryEntryFsync),
            _ => None,
        }
    }
}

impl fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushPolicy::EveryEntry => write!(f, "every-entry"),
            FlushPolicy::EveryEntryFsync => write!(f, "every-entry-fsync"),
        }
    }
}

/// Configuration of a deployment's journal (the `--journal* --compact-every` surface of
/// `anosy-served`, carried on [`crate::ServeConfig::journal`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The journal file. The compaction snapshot lives next to it at
    /// [`JournalConfig::snapshot_path`].
    pub path: PathBuf,
    /// How far each appended record gets before the append returns.
    pub flush: FlushPolicy,
    /// Compact once the journal file holds `N` records, on the thread whose append brought it
    /// there (`None`: only on explicit `SaveCache` requests to the snapshot path).
    pub compact_every: Option<u64>,
}

impl JournalConfig {
    /// A journal at `path` with the safest flush policy (`every-entry`) and no periodic
    /// compaction.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { path: path.into(), flush: FlushPolicy::EveryEntry, compact_every: None }
    }

    /// Overrides the flush policy.
    pub fn with_flush(mut self, flush: FlushPolicy) -> JournalConfig {
        self.flush = flush;
        self
    }

    /// Compact once the journal file holds `records` records (clamped to at least one).
    pub fn with_compact_every(mut self, records: u64) -> JournalConfig {
        self.compact_every = Some(records.max(1));
        self
    }

    /// Where the compaction snapshot (and warm-restart load) lives: the journal path with a
    /// `.snapshot` suffix appended.
    pub fn snapshot_path(&self) -> PathBuf {
        with_suffix(&self.path, ".snapshot")
    }
}

/// Point-in-time journal counters (the `journal=appended:compacted:replayed:torn` token of the
/// wire stats line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since this process opened the journal.
    pub appended: u64,
    /// Records folded into a snapshot and truncated away by compactions.
    pub compacted: u64,
    /// Records replayed from the journal at recovery.
    pub replayed: u64,
    /// Torn/corrupt tails truncated away (at recovery, and by fault-injection tests).
    pub torn: u64,
}

/// What [`Journal::compact_with`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// The snapshot save (written + skipped entry counts).
    pub snapshot: SaveOutcome,
    /// Journal records truncated away (now covered by the snapshot).
    pub truncated: u64,
}

/// The parsed-out good prefix of a journal or snapshot file (see [`scan`]).
struct Scan<D: AbstractDomain> {
    /// Entries decoded from intact records, in append order.
    entries: Vec<SharedCacheEntry<D>>,
    /// Byte length of the good prefix (header + intact records); everything past it is torn.
    good_len: u64,
    /// `1` when a torn/corrupt tail was found past the good prefix, else `0`.
    torn: u64,
}

/// Walks the file's bytes front to back, decoding intact records and stopping at the first
/// torn or corrupt one (module docs). Never panics on any byte sequence. The only errors are a
/// header naming the wrong domain and a first line that is no journal header at all: silently
/// ignoring — or, in [`Journal::recover`], overwriting — another deployment's journal or an
/// unrelated file would be an operator trap, not tolerance.
fn scan<D: DomainCodec>(bytes: &[u8]) -> Result<Scan<D>, ServeError> {
    let mut scan = Scan { entries: Vec::new(), good_len: 0, torn: 0 };
    if bytes.is_empty() {
        return Ok(scan); // a fresh (or never-written) journal
    }
    let header = header::<D>();
    if bytes.len() < header.len() && header.as_bytes().starts_with(bytes) {
        // A crash during the very first write: a torn header means no good prefix at all.
        scan.torn = 1;
        return Ok(scan);
    }
    if !bytes.starts_with(header.as_bytes()) {
        let first_line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let first_line: String = String::from_utf8_lossy(first_line).chars().take(80).collect();
        let reason = match first_line.strip_prefix(HEADER_PREFIX) {
            Some(domain) => {
                format!("journal is for domain `{domain}`, deployment uses `{}`", D::TAG)
            }
            None => format!("not a synthesis journal: first line `{first_line}`"),
        };
        return Err(ServeError::Format { line: 1, reason });
    }
    scan.good_len = header.len() as u64;

    let mut at = header.len();
    while at < bytes.len() {
        // Frame line: `record len=<bytes> sum=<hex64>`.
        let Some(line_end) = bytes[at..].iter().position(|&b| b == b'\n').map(|p| at + p) else {
            scan.torn = 1;
            break;
        };
        let frame = match std::str::from_utf8(&bytes[at..line_end]) {
            Ok(frame) => frame,
            Err(_) => {
                scan.torn = 1;
                break;
            }
        };
        let parsed = frame.strip_prefix("record len=").and_then(|rest| {
            let (len, sum) = rest.split_once(" sum=")?;
            Some((len.parse::<usize>().ok()?, u64::from_str_radix(sum, 16).ok()?))
        });
        let Some((len, sum)) = parsed else {
            scan.torn = 1;
            break;
        };
        let body_start = line_end + 1;
        let Some(body_end) = body_start.checked_add(len).filter(|&end| end <= bytes.len()) else {
            scan.torn = 1;
            break;
        };
        let body = &bytes[body_start..body_end];
        if wire::frame_checksum(body) != sum {
            scan.torn = 1;
            break;
        }
        let Ok(body) = std::str::from_utf8(body) else {
            scan.torn = 1;
            break;
        };
        let Ok(entry) = parse_entry::<D>(body) else {
            scan.torn = 1;
            break;
        };
        scan.entries.push(entry);
        scan.good_len = body_end as u64;
        at = body_end;
    }
    Ok(scan)
}

/// Replays a journal or snapshot file without opening it for append: the decoded good-prefix
/// entries plus the torn-tail count (`0` or `1`). A missing file replays empty. This is how a
/// snapshot loads ([`crate::Deployment::warm_start`]); a journal recovers through
/// [`Journal::recover`], which also truncates the torn tail and keeps the file open for
/// appending.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on filesystem failures and [`ServeError::Format`] when the
/// header names a different domain or the file is not a journal. Corruption is never an
/// error — it bounds the good prefix.
pub fn replay<D: DomainCodec>(path: &Path) -> Result<(Vec<SharedCacheEntry<D>>, u64), ServeError> {
    if !path.exists() {
        return Ok((Vec::new(), 0));
    }
    let bytes = std::fs::read(path)?;
    let scan = scan::<D>(&bytes)?;
    Ok((scan.entries, scan.torn))
}

struct Writer {
    file: BufWriter<File>,
    /// Records currently in the file (replayed good prefix + appends); what a compaction
    /// truncates away, and what [`JournalConfig::compact_every`] counts.
    records: u64,
}

/// What [`Journal::recover`] found on disk before opening the journal for appending.
pub struct Recovered<D: AbstractDomain> {
    /// The journal, open for appending after the good prefix.
    pub journal: Journal<D>,
    /// The good-prefix entries, in append order (install these into the cache).
    pub entries: Vec<SharedCacheEntry<D>>,
    /// `1` when a torn/corrupt tail was truncated away.
    pub torn: u64,
}

/// An open append-only journal (see the [module docs](self)). Shared behind an `Arc` by every
/// handle of a deployment; appends and compactions serialize on an internal lock.
pub struct Journal<D: AbstractDomain> {
    config: JournalConfig,
    writer: Mutex<Writer>,
    appended: AtomicU64,
    compacted: AtomicU64,
    replayed: AtomicU64,
    torn: AtomicU64,
    fsyncs: AtomicU64,
    _domain: std::marker::PhantomData<fn() -> D>,
}

impl<D: AbstractDomain> fmt::Debug for Journal<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.config.path)
            .field("flush", &self.config.flush)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<D: DomainCodec> Journal<D> {
    /// Opens (or creates) the journal at `config.path`: replays the good prefix, truncates any
    /// torn tail away, and leaves the file open for appending. The replayed entries are
    /// returned for the caller to install (the deployment composes them with the snapshot load
    /// and `--verify-on-load`); `stats().replayed`/`stats().torn` record what happened.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures and [`ServeError::Format`] for a
    /// journal of the wrong domain or a file that is not a journal; either leaves the file
    /// untouched.
    pub fn recover(config: JournalConfig) -> Result<Recovered<D>, ServeError> {
        let _span = anosy_telemetry::span("journal.replay");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&config.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan::<D>(&bytes)?;
        if scan.torn > 0 || bytes.is_empty() {
            // Truncate the torn tail (or materialize the header of a fresh journal) so the
            // next append lands right after the good prefix.
            file.set_len(scan.good_len)?;
        }
        file.seek(SeekFrom::Start(scan.good_len))?;
        let mut writer = BufWriter::new(file);
        if scan.good_len == 0 {
            // A fresh journal — or one whose very header was torn away — needs its header
            // (re)written before the first record can land.
            writer.write_all(header::<D>().as_bytes())?;
            writer.flush()?;
        }
        anosy_telemetry::count("journal.replayed", scan.entries.len() as u64);
        anosy_telemetry::count("journal.torn", scan.torn);
        let journal = Journal {
            writer: Mutex::new(Writer { file: writer, records: scan.entries.len() as u64 }),
            appended: AtomicU64::new(0),
            compacted: AtomicU64::new(0),
            replayed: AtomicU64::new(scan.entries.len() as u64),
            torn: AtomicU64::new(scan.torn),
            fsyncs: AtomicU64::new(0),
            config,
            _domain: std::marker::PhantomData,
        };
        Ok(Recovered { journal, entries: scan.entries, torn: scan.torn })
    }

    /// Appends one committed entry as a framed record and flushes it per the configured
    /// policy before returning. Entries the text encoding cannot represent faithfully are
    /// skipped — exactly the entries a snapshot save would skip, so journal and snapshot never
    /// disagree. Returns whether a compaction is now due: the file holds
    /// [`JournalConfig::compact_every`] records or more. The caller runs it
    /// ([`Journal::compact_with`]) because only it can export the cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures.
    pub fn append(&self, entry: &SharedCacheEntry<D>) -> Result<bool, ServeError> {
        let Some(body) = encode_entry(entry) else { return Ok(false) };
        let _span = anosy_telemetry::span("journal.append");
        let mut writer = lock(&self.writer);
        write_record(&mut writer.file, &body)?;
        writer.records += 1;
        writer.file.flush()?;
        if self.config.flush == FlushPolicy::EveryEntryFsync {
            // `flush` only moved the record into the OS page cache; `sync_data` pins it to
            // stable storage before the append reports success.
            writer.file.get_ref().sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        let due = self.config.compact_every.is_some_and(|every| writer.records >= every);
        drop(writer);
        self.appended.fetch_add(1, Ordering::Relaxed);
        anosy_telemetry::count("journal.appended", 1);
        Ok(due)
    }

    /// Compacts the journal into a snapshot at [`JournalConfig::snapshot_path`] while traffic
    /// continues: locks the journal, snapshots the cache via `export` (see the module docs for
    /// why this ordering never loses an entry), writes the snapshot atomically, then truncates
    /// the journal back to its header.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures. The journal is truncated only after
    /// the snapshot has been renamed into place, so a failed compaction leaves the journal
    /// intact.
    pub fn compact_with(
        &self,
        export: impl FnOnce() -> Vec<SharedCacheEntry<D>>,
    ) -> Result<CompactOutcome, ServeError> {
        let _span = anosy_telemetry::span("journal.compact");
        let mut writer = lock(&self.writer);
        let entries = export();
        let snapshot = save_entries(&self.config.snapshot_path(), &entries)?;
        // Atomically replace the journal with a fresh header-only file, then re-point the
        // append handle at it.
        write_atomically(&self.config.path, header::<D>().as_bytes())?;
        let mut file = OpenOptions::new().write(true).open(&self.config.path)?;
        file.seek(SeekFrom::End(0))?;
        let truncated = writer.records;
        *writer = Writer { file: BufWriter::new(file), records: 0 };
        drop(writer);
        self.compacted.fetch_add(truncated, Ordering::Relaxed);
        anosy_telemetry::count("journal.compacted", truncated);
        Ok(CompactOutcome { snapshot, truncated })
    }
}

impl<D: AbstractDomain> Journal<D> {
    /// The configuration this journal runs with.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended.load(Ordering::Relaxed),
            compacted: self.compacted.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }

    /// `sync_data` calls issued so far — non-zero only under
    /// [`FlushPolicy::EveryEntryFsync`], where it equals the append count (the durability
    /// test's witness that every append reached stable storage).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }
}

/// Journal state must survive a panicking appender (the poison flag carries no meaning here —
/// every critical section leaves the writer consistent).
fn lock(writer: &Mutex<Writer>) -> std::sync::MutexGuard<'_, Writer> {
    writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_domains::{AInt, IntervalDomain, PowersetDomain};
    use anosy_logic::{IntExpr, SecretLayout};
    use anosy_synth::{ApproxKind, IndSets};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

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

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("anosy-serve-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(JournalConfig::new(&path).snapshot_path());
        path
    }

    fn recover(path: &Path, flush: FlushPolicy) -> Recovered<IntervalDomain> {
        Journal::recover(JournalConfig::new(path).with_flush(flush)).unwrap()
    }

    #[test]
    fn append_then_recover_round_trips() {
        let path = tmp_path("round_trip.journal");
        let first = recover(&path, FlushPolicy::EveryEntry);
        assert!(first.entries.is_empty());
        first.journal.append(&entry(200)).unwrap();
        first.journal.append(&entry(300)).unwrap();
        assert_eq!(first.journal.stats().appended, 2);
        drop(first);

        let second = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!(second.entries.len(), 2);
        assert_eq!(second.torn, 0);
        assert_eq!(second.journal.stats().replayed, 2);
        for (a, b) in [entry(200), entry(300)].iter().zip(&second.entries) {
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.indsets, b.indsets);
        }
    }

    #[test]
    fn every_append_is_on_disk_before_append_returns() {
        for flush in [FlushPolicy::EveryEntry, FlushPolicy::EveryEntryFsync] {
            let path = tmp_path(&format!("on_disk_{flush}.journal"));
            let r = recover(&path, flush);
            for (k, xo) in [200, 300, 250].into_iter().enumerate() {
                r.journal.append(&entry(xo)).unwrap();
                // A second reader of the file, while the journal is still open: nothing of
                // the record may be left buffered in the process.
                let (entries, torn) = replay::<IntervalDomain>(&path).unwrap();
                assert_eq!((entries.len(), torn), (k + 1, 0), "{flush}: append {k}");
            }
        }
    }

    #[test]
    fn every_entry_fsync_reaches_sync_data_per_append() {
        let path = tmp_path("fsync_policy.journal");
        let r = recover(&path, FlushPolicy::EveryEntryFsync);
        assert_eq!(r.journal.fsyncs(), 0);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        assert_eq!(r.journal.stats().appended, 2);
        assert_eq!(r.journal.fsyncs(), 2, "every flushed append must reach sync_data");
        // Bytes are on disk (not just the page cache — but at minimum past the BufWriter).
        drop(r);
        let second = recover(&path, FlushPolicy::EveryEntryFsync);
        assert_eq!(second.entries.len(), 2);
        assert_eq!(second.torn, 0);

        // `every-entry` never fsyncs.
        let path = tmp_path("no_fsync.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        assert_eq!(r.journal.fsyncs(), 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let path = tmp_path("torn.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        drop(r);
        // Simulate a crash mid-append: cut the file inside the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let r = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!(r.entries.len(), 1, "the torn final record is dropped");
        assert_eq!(r.torn, 1);
        // The truncation repaired the file: appending works and a fresh recovery is clean.
        r.journal.append(&entry(300)).unwrap();
        drop(r);
        let r = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!((r.entries.len(), r.torn), (2, 0));
    }

    #[test]
    fn wrong_domain_is_an_error_not_tolerance() {
        let path = tmp_path("wrong_domain.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        drop(r);
        let err = Journal::<anosy_domains::PowersetDomain>::recover(JournalConfig::new(&path));
        assert!(matches!(err, Err(ServeError::Format { line: 1, .. })));
    }

    #[test]
    fn compaction_moves_records_into_the_snapshot() {
        let path = tmp_path("compact.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        let outcome = r.journal.compact_with(|| vec![entry(200), entry(300)]).unwrap();
        assert_eq!(outcome.truncated, 2);
        assert_eq!(outcome.snapshot.written, 2);
        // Journal is back to header-only; appends keep working after the handle swap.
        let (entries, torn) = replay::<IntervalDomain>(&path).unwrap();
        assert_eq!((entries.len(), torn), (0, 0));
        r.journal.append(&entry(250)).unwrap();
        assert_eq!(
            r.journal.stats(),
            JournalStats { appended: 3, compacted: 2, ..r.journal.stats() }
        );
        drop(r);
        // Snapshot + journal together hold all three entries.
        let config = JournalConfig::new(&path);
        let (snapshot, _) = replay::<IntervalDomain>(&config.snapshot_path()).unwrap();
        let (journaled, _) = replay::<IntervalDomain>(&path).unwrap();
        assert_eq!(snapshot.len() + journaled.len(), 3);
    }

    #[test]
    fn save_load_round_trips() {
        let path = tmp_path("round_trip.snapshot");
        let entries = vec![entry(200), entry(300)];
        assert_eq!(save_entries(&path, &entries).unwrap(), SaveOutcome { written: 2, skipped: 0 });
        let (loaded, torn) = replay::<IntervalDomain>(&path).unwrap();
        assert_eq!((loaded.len(), torn), (2, 0));
        for (a, b) in entries.iter().zip(&loaded) {
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.layout, b.layout);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.members, b.members);
            assert_eq!(a.indsets, b.indsets);
        }
    }

    #[test]
    fn powerset_entries_round_trip_too() {
        let path = tmp_path("powerset.snapshot");
        let member = IntervalDomain::from_intervals(vec![AInt::new(0, 10), AInt::new(0, 10)]);
        let entries = vec![SharedCacheEntry {
            pred: IntExpr::var(0).le(10),
            layout: layout(),
            kind: ApproxKind::Over,
            members: Some(3),
            indsets: IndSets::new(
                ApproxKind::Over,
                PowersetDomain::from_interval(member.clone()),
                PowersetDomain::new(2, vec![member.clone()], vec![member]),
            ),
        }];
        assert_eq!(save_entries(&path, &entries).unwrap().written, 1);
        let (loaded, _) = replay::<PowersetDomain>(&path).unwrap();
        assert_eq!(loaded[0].members, Some(3));
        assert_eq!(loaded[0].indsets, entries[0].indsets);
    }

    #[test]
    fn wrong_domain_and_malformed_files_fail_cleanly() {
        let path = tmp_path("wrong_domain.snapshot");
        save_entries::<IntervalDomain>(&path, &[entry(200)]).unwrap();
        let err = replay::<PowersetDomain>(&path).unwrap_err();
        assert!(matches!(err, ServeError::Format { line: 1, .. }), "{err}");

        // Files in the retired unframed cache format carry a foreign header.
        let garbled = tmp_path("garbled.cache");
        std::fs::write(&garbled, "anosy-synth-cache v1 domain=interval\nentry kind=sideways\n")
            .unwrap();
        let err = replay::<IntervalDomain>(&garbled).unwrap_err();
        assert!(matches!(err, ServeError::Format { line: 1, .. }), "{err}");
        let truncated = tmp_path("truncated.cache");
        std::fs::write(
            &truncated,
            "anosy-synth-cache v1 domain=interval\nentry kind=under members=-\nlayout x:0:4\n",
        )
        .unwrap();
        assert!(replay::<IntervalDomain>(&truncated).is_err());

        // A snapshot cut mid-record loads its good prefix, and a missing one is a cold start.
        let torn = tmp_path("torn.snapshot");
        save_entries(&torn, &[entry(200), entry(300)]).unwrap();
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() - 5]).unwrap();
        let (entries, tears) = replay::<IntervalDomain>(&torn).unwrap();
        assert_eq!((entries.len(), tears), (1, 1));
        assert_eq!(entries[0].pred, entry(200).pred);
        let (entries, tears) = replay::<IntervalDomain>(&tmp_path("missing.snapshot")).unwrap();
        assert_eq!((entries.len(), tears), (0, 0));
    }

    #[test]
    fn a_record_whose_layout_repeats_a_field_name_ends_the_good_prefix() {
        // Validly framed and checksummed, but its layout cannot be built: replay and recovery
        // must stop before it instead of panicking.
        let path = tmp_path("duplicate_field.journal");
        save_entries(&path, &[entry(200)]).unwrap();
        let body = encode_entry(&entry(300)).unwrap();
        let body = body.replace("layout x:0:400 y:0:400", "layout x:0:400 x:0:400");
        let mut bytes = std::fs::read(&path).unwrap();
        write_record(&mut bytes, &body).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let (entries, tears) = replay::<IntervalDomain>(&path).unwrap();
        assert_eq!((entries.len(), tears), (1, 1));
        assert_eq!(entries[0].pred, entry(200).pred);
        let r = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!((r.entries.len(), r.torn), (1, 1));
    }

    #[test]
    fn unfaithful_entries_are_skipped_on_save() {
        let path = tmp_path("skipped.snapshot");
        let mut bad = entry(200);
        bad.layout = SecretLayout::builder().field("has space", 0, 4).field("y", 0, 4).build();
        assert_eq!(
            save_entries(&path, &[bad, entry(300)]).unwrap(),
            SaveOutcome { written: 1, skipped: 1 }
        );
        assert_eq!(replay::<IntervalDomain>(&path).unwrap().0.len(), 1);
    }

    #[test]
    fn a_snapshot_is_a_journal_written_in_one_go() {
        let journal = tmp_path("one_go.journal");
        let r = recover(&journal, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        drop(r);
        let snapshot = tmp_path("one_go.snapshot");
        save_entries(&snapshot, &[entry(200), entry(300)]).unwrap();
        assert_eq!(std::fs::read(&snapshot).unwrap(), std::fs::read(&journal).unwrap());
        assert!(!with_suffix(&snapshot, ".tmp").exists(), "the temp file was renamed away");
    }

    #[test]
    fn recover_refuses_a_foreign_file_and_keeps_its_bytes() {
        let foreign = [
            ("notes.txt", "two-line\ntext file\n"),
            ("old.cache", "anosy-synth-cache v1 domain=interval\nentry kind=under members=-\n"),
            ("future.journal", "anosy-synth-journal v2 domain=interval"),
        ];
        for (name, text) in foreign {
            let path = tmp_path(name);
            std::fs::write(&path, text).unwrap();
            let err = Journal::<IntervalDomain>::recover(JournalConfig::new(&path)).err();
            assert!(matches!(err, Some(ServeError::Format { line: 1, .. })), "{name}: {err:?}");
            assert_eq!(std::fs::read(&path).unwrap(), text.as_bytes(), "{name} is untouched");
        }
    }

    #[test]
    fn flush_policy_parse_display_round_trips() {
        for text in ["every-entry", "every-entry-fsync"] {
            assert_eq!(FlushPolicy::parse(text).unwrap().to_string(), text);
        }
        for retired in ["every-8", "every-1", "on-tick", "every-", "sometimes"] {
            assert_eq!(FlushPolicy::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn compaction_is_due_when_records_reach_compact_every() {
        let path = tmp_path("growth_compaction.journal");
        let r = Journal::<IntervalDomain>::recover(JournalConfig::new(&path).with_compact_every(3))
            .unwrap();
        let mut committed = Vec::new();
        let mut records = Vec::new();
        for xo in [100, 150, 200, 250, 300, 350] {
            committed.push(entry(xo));
            if r.journal.append(&entry(xo)).unwrap() {
                r.journal.compact_with(|| committed.clone()).unwrap();
            }
            let now = lock(&r.journal.writer).records;
            assert_eq!(replay::<IntervalDomain>(&path).unwrap().0.len() as u64, now);
            records.push(now);
        }
        assert_eq!(records, vec![1, 2, 0, 1, 2, 0]);
        assert_eq!(r.journal.stats().compacted, 6);
        // Without a cadence the journal never asks for a compaction.
        let r = recover(&tmp_path("no_cadence.journal"), FlushPolicy::EveryEntry);
        assert!((0..5).all(|k| !r.journal.append(&entry(k * 80)).unwrap()));
    }
}

//! Content-addressed proof-cell cache with incremental sweeps.
//!
//! Re-proving a thousand-cell [`crate::engine::ScenarioMatrix`] after a
//! one-line config tweak repeats work for every cell whose inputs did
//! not change. This module makes sweeps incremental: each proved cell
//! is stored under a 64-bit content key over its **full input
//! fingerprint** — machine configuration × kernel configuration (per
//! secret, down to each domain's instruction sequence) × time-model
//! family × secret set × engine version salt — together
//! with the `(secret, len, digest)` observation fingerprints its NI
//! verdicts were derived from, its [`ProofReport`] (including the
//! [`TransparencyCert`]) and a checksum over the entry's canonical
//! serialised bytes. A cache-backed sweep
//! ([`crate::engine::ScenarioMatrix::sweep`] with a cache) re-proves
//! only cells whose content hash changed and replays the rest, with
//! reports and wire records byte-identical to an uncached run.
//!
//! ## Trust model: a hit is validated, never believed
//!
//! A cache file is untrusted input — it may be stale (produced by an
//! older engine), corrupted, or deliberately poisoned. Every hit is
//! therefore structurally re-validated before its report is replayed
//! ([`ProofCache::lookup`]): the version salt and addressed key must
//! match, the stored cell must equal the live cell, the checksum must
//! re-derive over the entry's canonical bytes, the fingerprint table
//! must have exactly one `(secret, len, digest)` triple per
//! (model, secret) in live order, each model's stored NI verdict must
//! be *re-derivable* from those fingerprints
//! ([`compare_secret_digests`]), and the transparency certificate must
//! be present, transparent, and grounded in the first fingerprint.
//! Any failure rejects the entry and forces a live re-prove — a bad
//! cache can cost time, never a forged verdict.
//!
//! The checksum is re-derived on every hit, over the entry's canonical
//! bytes as they were rendered when the entry entered the cache
//! ([`ProofCache::insert`] or [`ProofCache::load`]). Entries are never changed after insertion, so
//! those bytes are exactly what [`entry_check`] would render from the
//! stored cell and report now; [`validate_entry`] is the reference that
//! renders them afresh.
//!
//! What validation *cannot* catch: an adversary who fabricates a fully
//! self-consistent entry (fingerprints, verdicts, cert and checksum
//! all recomputed to agree) for inputs that genuinely hash to the
//! addressed key. Detecting that requires re-running the cell, which
//! is exactly what caching avoids — so treat a cache file with the
//! same trust as the binary that wrote it, and when provenance is in
//! doubt, drop it: cold runs are always sound. The adversarial suite in
//! `crates/core/tests/cache_poisoning.rs` pins the entire reachable
//! tampering surface to fail closed.
//!
//! ## Key derivation and invalidation
//!
//! [`cell_key`] seeds a [`WordFold`] — four xxh64-style lanes that
//! take one 64-bit word each in turn — with the version salt
//! ([`CACHE_SALT`]) and folds, in order: the cell's machine
//! configuration (serialised via the wire format's canonical field
//! list), the cell label and ablation tag, the protection setting,
//! every time model, the observer domain, cycle budget and step cap,
//! and — per secret — the secret value and the kernel configuration's
//! [`content_fingerprint`], which recursively covers every domain's
//! instruction sequence (two words per instruction), scheduling and
//! padding parameters, endpoints and colour counts. Strings go in
//! length-delimited, as their byte length followed by their bytes
//! packed eight to a little-endian word, so no byte can move from one
//! field into the next without changing the words. The entry checksum
//! ([`entry_check`]) uses the same fold; observation digests keep their
//! own byte-wise FNV fold.
//!
//! A program that cannot prove its identity
//! ([`Program::content_fingerprint`] returns `None`) makes the cell
//! **uncacheable** rather than wrongly cacheable: `cell_key` returns
//! `None` and the cell is always proved live. Changing *any* folded
//! field changes the key (pinned by the property tests in
//! `crates/core/tests/cache_invalidation.rs`), so stale entries are
//! never looked up — they simply stop being addressed, and
//! [`CACHE_SALT`] retires every entry at once whenever the engine's
//! observable behaviour or the key function changes.
//!
//! ## Shipping and merging
//!
//! [`ProofCache::save`] serialises entries through [`crate::wire`] as
//! ordinary cell record groups plus one optional `cached` record each,
//! so cache files ship between hosts like shard outputs. Old wire
//! files (no `cached` records) still parse everywhere; a cache file
//! fed to the shard merge is treated as live output (the `cached`
//! records are ignored), and [`ProofCache::load`] skips record groups
//! without cache metadata — so caches and live shards concatenate and
//! merge freely in both directions. Loading is last-wins per key,
//! which makes merging two caches a file concatenation.
//!
//! ## The cache file is an append-only log
//!
//! [`ProofCache::open`] backs the cache with its file: every
//! [`ProofCache::insert`] appends the new entry's group — the same
//! bytes `save` writes for it — and fsyncs it before the sweep moves
//! on, so a killed process loses at most the cell in flight and the
//! next `open` resumes from what is on disk. No framing is added: a
//! group is committed once its closing `end i=N` line is complete, and
//! a crash, including one that writes half a group, cannot complete
//! that line.
//!
//! [`ProofCache::load`] therefore applies a **torn-tail rule**: the
//! bytes after the file's last complete `end` line are a torn group —
//! dropped and counted ([`tp_telemetry::Counter::CacheTornDropped`]) —
//! when they are what a crash mid-append leaves: at most one `cell`
//! record, and every line before the unfinished last one a well-formed
//! record of a group still missing its `end`. Anything else malformed
//! fails closed: damage in a complete group, a finished line that is no
//! record, or a lost `end` that merges two groups. A group that parses
//! but was tampered with is the lookup gauntlet's to reject.
//!
//! `open` rewrites the file through [`crate::persist::write_atomic`]
//! (`save`'s bytes) when it dropped a torn tail — appends must follow
//! committed bytes — or when groups that a later one superseded
//! outnumber the live entries.
//!
//! [`Program::content_fingerprint`]: tp_kernel::program::Program::content_fingerprint
//! [`content_fingerprint`]: tp_kernel::config::KernelConfig::content_fingerprint
//! [`TransparencyCert`]: crate::noninterference::TransparencyCert

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::engine::{MatrixCell, ProofMode};
use crate::faultpoint::{self, Fault};
use crate::noninterference::{compare_secret_digests, NiScenario, NiVerdict};
use crate::proof::ProofReport;
use crate::wire::{
    enc_machine, enc_mechanism, enc_time_model, parse_cells_meta, write_cached_tail,
    write_cell_body, write_cell_cached, write_reindexed_body, CachedMeta, ParsedCell, WireError,
};
use tp_hw::clock::TimeModel;
use tp_hw::obs::WordFold;

/// Engine version salt folded into every content key and
/// stored verbatim in every entry.
///
/// Bump this whenever the engine's observable behaviour changes —
/// observation semantics, proof obligations, wire canonicalisation —
/// so every entry produced by the previous version stops being
/// addressed *and* fails the salt check if addressed anyway.
pub const CACHE_SALT: u64 = 0x7470_cace_0000_0003;

/// Fold a byte string into `f`, length-delimited: its byte length,
/// then its bytes packed eight to a little-endian word, the last word
/// zero-padded. The length says how many words follow, so strings and
/// words folded in a fixed order cannot shift bytes from one string
/// into the next, and trailing zero bytes still count.
fn fold_bytes(f: &mut WordFold, bytes: &[u8]) {
    f.push(bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        f.push(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        f.push(u64::from_le_bytes(last));
    }
}

/// The content key addressing one proof cell, or `None` when any
/// domain's program cannot prove its identity (see the module docs) —
/// an uncacheable cell is always proved live.
///
/// `scenario` must already be specialised to `cell`
/// ([`crate::engine::ScenarioMatrix`] applies the cell's machine and
/// protection before calling this), and `models` are the matrix's —
/// together they are every input the proof of this cell consumes.
/// `mode` is always [`ProofMode::Certified`]; its code (0) is still
/// folded so stored keys keep their meaning.
pub fn cell_key(
    cell: &MatrixCell,
    models: &[TimeModel],
    scenario: &NiScenario,
    mode: ProofMode,
) -> Option<u64> {
    let mut f = WordFold::new(CACHE_SALT);
    fold_bytes(&mut f, enc_machine(&scenario.mcfg).as_bytes());
    fold_bytes(&mut f, cell.machine.as_bytes());
    fold_bytes(
        &mut f,
        cell.disable.map(enc_mechanism).unwrap_or("-").as_bytes(),
    );
    f.push(cell.tp.bits());
    f.push(models.len() as u64);
    for m in models {
        fold_bytes(&mut f, enc_time_model(m).as_bytes());
    }
    f.push(scenario.lo.0 as u64);
    f.push(scenario.budget.0);
    f.push(scenario.max_steps as u64);
    f.push(scenario.secrets.len() as u64);
    for &s in &scenario.secrets {
        f.push(s);
        f.push((scenario.make_kcfg)(s).content_fingerprint()?);
    }
    // Stored keys fold this code, so it never changes.
    f.push(match mode {
        ProofMode::Certified => 0,
    });
    Some(f.finish())
}

/// The entry checksum: a [`WordFold`] over the entry's canonical wire
/// bytes (`wire::write_cell_body` with the index pinned to 0, so checksums
/// are position-independent) plus its key, salt and fingerprint table.
///
/// This is an *integrity* check — it catches corruption, truncation,
/// field-level tampering and stale-format drift, not an adversary who
/// recomputes it (see the module docs for the honest threat model).
pub fn entry_check(
    key: u64,
    salt: u64,
    fps: &[(u64, usize, u64)],
    cell: &MatrixCell,
    report: &ProofReport,
) -> u64 {
    check_over_body(key, salt, fps, &canonical_body(cell, report))
}

/// A cell's canonical bytes: [`write_cell_body`] at index 0.
fn canonical_body(cell: &MatrixCell, report: &ProofReport) -> String {
    let mut body = String::new();
    write_cell_body(&mut body, 0, cell, report);
    body
}

/// [`entry_check`] over already-rendered canonical bytes.
fn check_over_body(key: u64, salt: u64, fps: &[(u64, usize, u64)], body: &str) -> u64 {
    let mut f = WordFold::new(salt);
    fold_bytes(&mut f, body.as_bytes());
    f.push(key);
    f.push(fps.len() as u64);
    for &(s, len, d) in fps {
        f.push(s);
        f.push(len as u64);
        f.push(d);
    }
    f.finish()
}

/// One stored proof cell: the cell and report exactly as a live run
/// would emit them, plus the cache metadata that authenticates them.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The content key this entry is addressed by.
    pub key: u64,
    /// The [`CACHE_SALT`] the producing engine folded.
    pub salt: u64,
    /// [`entry_check`] over this entry.
    pub check: u64,
    /// `(secret, lo_len, monitored_digest)` per (model, secret),
    /// model-major.
    pub fps: Vec<(u64, usize, u64)>,
    /// The proved cell.
    pub cell: MatrixCell,
    /// Its proof report, replayed verbatim on a validated hit.
    pub report: ProofReport,
}

/// Why a lookup did not produce a usable hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMiss {
    /// No entry under the key — the cell is new or its inputs changed.
    Absent,
    /// An entry exists but failed validation; it must not be believed.
    Rejected(RejectReason),
}

/// The specific validation failure of a rejected entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Produced under a different engine version salt.
    SaltMismatch,
    /// The entry's stored key differs from the key addressing it.
    KeyMismatch,
    /// The stored cell differs from the live cell being proved.
    CellMismatch,
    /// The checksum does not re-derive over the entry's bytes.
    ChecksumMismatch,
    /// The fingerprint table's shape or secrets diverge from the live
    /// (model × secret) product.
    FingerprintShape,
    /// A stored NI verdict is not re-derivable from the stored
    /// fingerprints (or a model label diverges) — the signature of a
    /// flipped verdict.
    VerdictMismatch,
    /// The transparency certificate is missing, non-transparent, or not
    /// grounded in the first run's fingerprint.
    CertMismatch,
}

/// How a cache-backed sweep resolved its cells.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells replayed from validated cache entries.
    pub hits: usize,
    /// Cells proved live because no entry existed under their key.
    pub misses: usize,
    /// Cells proved live because their entry failed validation.
    pub rejected: usize,
    /// Cells proved live because they have no content key.
    pub uncacheable: usize,
}

impl CacheStats {
    /// Cells that ran live, for whatever reason.
    pub fn reproved(&self) -> usize {
        self.misses + self.rejected + self.uncacheable
    }
}

impl core::fmt::Display for CacheStats {
    /// Delegates to [`tp_telemetry::cache_counts`] — the same formatter
    /// the `--metrics` summary table uses, so cached and uncached runs
    /// report cache resolution through one code path (the cold/warm CI
    /// job greps this schema).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&tp_telemetry::cache_counts(
            self.hits,
            self.misses,
            self.rejected,
            self.uncacheable,
        ))
    }
}

/// A stored entry with its canonical bytes, rendered once when it
/// entered the cache. Entries are never changed after insertion, so the
/// body cannot go stale. Entry and body are shared, so a sweep can hand
/// a hit's report and bytes on without copying them.
#[derive(Debug)]
struct Stored {
    entry: Arc<CacheEntry>,
    /// [`canonical_body`] of the entry's cell and report.
    body: Arc<str>,
}

impl Stored {
    fn new(entry: CacheEntry) -> Self {
        let body = canonical_body(&entry.cell, &entry.report).into();
        Stored {
            entry: Arc::new(entry),
            body,
        }
    }

    /// The entry's group at `index`: its stored body re-indexed, then
    /// its `cached` and `end` records.
    fn write_group(&self, out: &mut String, index: usize) {
        let e = &self.entry;
        write_reindexed_body(out, "", index, &self.body);
        write_cached_tail(out, index, e.key, e.salt, e.check, &e.fps);
    }
}

/// A validated cache hit ([`ProofCache::lookup_hit`]).
#[derive(Debug, Clone, Copy)]
pub struct Hit<'a> {
    /// The entry, every validation step passed.
    pub entry: &'a Arc<CacheEntry>,
    /// Its canonical bytes — [`crate::wire::write_cell`]'s body at
    /// index 0, rendered when the entry entered the cache — which
    /// [`crate::wire::write_stored_cell`] re-indexes into the cell's
    /// record group.
    pub body: &'a Arc<str>,
}

/// The persistent content-addressed store. See the module docs.
#[derive(Debug, Default)]
pub struct ProofCache {
    entries: BTreeMap<u64, Stored>,
    /// Record groups in the backing file: those `load` parsed, plus
    /// one per append since.
    groups: usize,
    /// Torn final groups `load` dropped (0 or 1).
    torn: usize,
    /// The backing file's appender, when [`ProofCache::open`] made one;
    /// dropped at the first failed append, so later ones are skipped.
    log: Option<JournalWriter>,
    /// That failure, until the caller takes it.
    log_error: Option<io::Error>,
}

impl ProofCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parse a cache file (any concatenation of [`crate::wire`] record
    /// groups). Groups carrying a `cached` record become entries,
    /// last-wins per key — so merging caches is file concatenation.
    /// Groups without one (live shard output mixed in) are skipped:
    /// without fingerprints there is nothing to validate a hit
    /// against. A torn final group is dropped under the module's
    /// torn-tail rule ([`ProofCache::torn_dropped`]); anything else
    /// malformed is an error, never a partial load.
    pub fn load(text: &str) -> Result<Self, WireError> {
        let (groups, torn) = parse_log(text)?;
        if torn > 0 {
            tp_telemetry::count_n(tp_telemetry::Counter::CacheTornDropped, torn as u64);
        }
        let mut cache = ProofCache {
            groups: groups.len(),
            torn,
            ..ProofCache::default()
        };
        for (_, cell, report, meta) in groups {
            if let Some(m) = meta {
                let entry = CacheEntry {
                    key: m.key,
                    salt: m.salt,
                    check: m.check,
                    fps: m.fps,
                    cell,
                    report,
                };
                cache.entries.insert(entry.key, Stored::new(entry));
            }
        }
        Ok(cache)
    }

    /// Load the cache file at `path` and back the cache with it, so
    /// every [`ProofCache::insert`] appends to it (see the module docs).
    /// A missing file is a cold start. The file is first rewritten
    /// atomically when `load` dropped a torn tail or when superseded
    /// groups outnumber live entries. A file that fails to parse is an
    /// [`io::ErrorKind::InvalidData`] error carrying the
    /// [`WireError`], and is left as it was.
    pub fn open(path: &Path) -> io::Result<Self> {
        let (bytes, created) = match std::fs::read(path) {
            Ok(b) => (b, false),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), true),
            Err(e) => return Err(e),
        };
        // A crash can split a multi-byte character at the very end;
        // that is part of the torn group, not a reason to refuse the file.
        let (text, split_char) = match std::str::from_utf8(&bytes) {
            Ok(t) => (t, false),
            Err(e) if e.error_len().is_none() => (
                std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix"),
                true,
            ),
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        };
        let mut cache =
            Self::load(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if split_char || cache.torn > 0 || cache.groups - cache.len() > cache.len() {
            crate::persist::write_atomic(path, cache.save().as_bytes())?;
            cache.groups = cache.len();
        }
        cache.log = Some(JournalWriter::open_append(path, created)?);
        Ok(cache)
    }

    /// Torn final groups [`ProofCache::load`] dropped: 0, or 1 after a
    /// crash mid-append.
    pub fn torn_dropped(&self) -> usize {
        self.torn
    }

    /// The failed append to the backing file, if any, handed to the
    /// caller once. Appends stop for good at the first failure, so the
    /// file never holds a group written after a torn one; the next
    /// [`ProofCache::open`] drops the torn group.
    pub fn take_log_error(&mut self) -> Option<io::Error> {
        self.log_error.take()
    }

    /// Serialise every entry in key order with dense indices, ready to
    /// ship. Byte-deterministic for a given entry set: each group is the
    /// entry's stored canonical bytes re-indexed, then its `cached` and
    /// `end` records — what [`crate::wire::write_cell_cached`] renders
    /// from the entry, without rendering it again.
    pub fn save(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.entries.values().enumerate() {
            s.write_group(&mut out, i);
        }
        out
    }

    /// Store a freshly proved cell under `key`, stamping the current
    /// [`CACHE_SALT`] and a recomputed checksum. With a backing file,
    /// the entry's group is appended to it and fsynced (timed as the
    /// `persist` span), indexed after the groups already there.
    pub fn insert(
        &mut self,
        key: u64,
        cell: MatrixCell,
        report: ProofReport,
        fps: Vec<(u64, usize, u64)>,
    ) {
        let body: Arc<str> = canonical_body(&cell, &report).into();
        let check = check_over_body(key, CACHE_SALT, &fps, &body);
        let entry = CacheEntry {
            key,
            salt: CACHE_SALT,
            check,
            fps,
            cell,
            report,
        };
        let stored = Stored {
            entry: Arc::new(entry),
            body,
        };
        if let Some(log) = self.log.as_mut() {
            let start = tp_telemetry::span_start();
            let index = self.groups;
            let mut group = String::new();
            stored.write_group(&mut group, index);
            match log.write_group(&group) {
                Ok(()) => self.groups += 1,
                Err(e) => {
                    self.log = None;
                    self.log_error = Some(e);
                }
            }
            if let Some(start) = start {
                tp_telemetry::span(tp_telemetry::SpanKind::Persist, index, None, start);
            }
        }
        self.entries.insert(key, stored);
    }

    /// Look up and **validate** the entry for `key` against the live
    /// cell and (model × secret) product. Returns the entry only when
    /// every check in the module-level list holds; any failure is a
    /// [`CacheMiss`] and the caller must prove the cell live. The
    /// checksum is folded over the entry's stored canonical bytes;
    /// every other step is [`validate_entry`]'s.
    pub fn lookup(
        &self,
        key: u64,
        cell: &MatrixCell,
        models: &[TimeModel],
        secrets: &[u64],
    ) -> Result<&CacheEntry, CacheMiss> {
        self.lookup_hit(key, cell, models, secrets)
            .map(|hit| &**hit.entry)
    }

    /// [`ProofCache::lookup`], handing back the entry's stored canonical
    /// bytes with it: the same gauntlet, the same verdicts.
    pub fn lookup_hit(
        &self,
        key: u64,
        cell: &MatrixCell,
        models: &[TimeModel],
        secrets: &[u64],
    ) -> Result<Hit<'_>, CacheMiss> {
        let s = self.entries.get(&key).ok_or(CacheMiss::Absent)?;
        let e = &s.entry;
        gauntlet(e, key, cell, models, secrets, || {
            check_over_body(e.key, e.salt, &e.fps, &s.body)
        })
        .map_err(CacheMiss::Rejected)
        .map(|()| Hit {
            entry: e,
            body: &s.body,
        })
    }
}

/// Parse a cache file under the torn-tail rule (module docs): the
/// committed groups, and how many torn final groups were dropped.
fn parse_log(text: &str) -> Result<(Vec<ParsedCell>, usize), WireError> {
    // The tail: everything after the last complete `end` line.
    let mut start = text.len();
    for line in text.split_inclusive('\n').rev() {
        if line.ends_with('\n') && line.trim_start().starts_with("end ") {
            break;
        }
        start -= line.len();
    }
    let tail = &text[start..];
    // A torn group holds one `cell` record at most, and the lines the
    // crash finished writing are well-formed records still missing
    // their `end`.
    let finished = &tail[..tail.rfind('\n').map_or(0, |n| n + 1)];
    let torn = !tail.trim().is_empty()
        && tail
            .lines()
            .filter(|l| l.trim_start().starts_with("cell "))
            .count()
            <= 1
        && matches!(
            parse_cells_meta(finished),
            Ok(_) | Err(WireError::Incomplete { .. })
        );
    if torn {
        Ok((parse_cells_meta(&text[..start])?, 1))
    } else {
        Ok((parse_cells_meta(text)?, 0))
    }
}

/// The fault point fired once per append to a cache log, before any
/// bytes reach the file: `ioerr` surfaces as the returned error,
/// `truncate` writes the first half of the group and aborts, `kill`
/// aborts with nothing written.
const APPEND_POINT: &str = "journal.append";

/// An open cache log being appended to, one fsynced record group at a
/// time: the appender behind [`ProofCache::open`].
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    /// A file this writer created, whose directory entry the first
    /// append makes durable (off the start-up path of a cold daemon).
    created: Option<PathBuf>,
}

impl JournalWriter {
    /// Start a fresh log at `path`, truncating any previous file.
    pub fn create(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::create(path)?,
            created: Some(path.to_path_buf()),
        })
    }

    /// Open `path` for appending; `created` when it did not exist and is
    /// created here.
    fn open_append(path: &Path, created: bool) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: OpenOptions::new().create(true).append(true).open(path)?,
            created: created.then(|| path.to_path_buf()),
        })
    }

    /// Append one proved cell's group — [`write_cell_cached`] at
    /// `index` — and fsync it.
    pub fn append(
        &mut self,
        index: usize,
        cell: &MatrixCell,
        report: &ProofReport,
        meta: &CachedMeta,
    ) -> io::Result<()> {
        let mut group = String::new();
        write_cell_cached(&mut group, index, cell, report, meta);
        self.write_group(&group)
    }

    /// Write `group` whole and fsync it, applying any planned fault
    /// first.
    fn write_group(&mut self, group: &str) -> io::Result<()> {
        match faultpoint::fire(APPEND_POINT) {
            Some(Fault::IoError) => return Err(faultpoint::injected_io_error(APPEND_POINT)),
            Some(Fault::Truncate) => {
                // A torn tail: half the group reaches the disk, then the
                // process dies. The next load must drop it.
                let _ = self.file.write_all(&group.as_bytes()[..group.len() / 2]);
                let _ = self.file.sync_data();
                faultpoint::abort_now(APPEND_POINT);
            }
            Some(Fault::Kill) => faultpoint::abort_now(APPEND_POINT),
            Some(Fault::Panic) => panic!("injected fault: {APPEND_POINT} panicked"),
            Some(Fault::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            None => {}
        }
        self.file.write_all(group.as_bytes())?;
        self.file.sync_data()?;
        if let Some(path) = self.created.take() {
            crate::persist::sync_parent(&path);
        }
        Ok(())
    }
}

/// The hit-validation gauntlet (see [`ProofCache::lookup`]), rendering
/// the entry's canonical bytes afresh for the checksum — the reference
/// that `lookup`'s render-once checksum must agree with.
pub fn validate_entry(
    e: &CacheEntry,
    key: u64,
    cell: &MatrixCell,
    models: &[TimeModel],
    secrets: &[u64],
) -> Result<(), RejectReason> {
    gauntlet(e, key, cell, models, secrets, || {
        entry_check(e.key, e.salt, &e.fps, &e.cell, &e.report)
    })
}

/// Every validation step, in order; `check` re-derives the entry's
/// checksum and runs only once salt, key and cell have matched.
fn gauntlet(
    e: &CacheEntry,
    key: u64,
    cell: &MatrixCell,
    models: &[TimeModel],
    secrets: &[u64],
    check: impl FnOnce() -> u64,
) -> Result<(), RejectReason> {
    if e.salt != CACHE_SALT {
        return Err(RejectReason::SaltMismatch);
    }
    if e.key != key {
        return Err(RejectReason::KeyMismatch);
    }
    if e.cell != *cell {
        return Err(RejectReason::CellMismatch);
    }
    if e.check != check() {
        return Err(RejectReason::ChecksumMismatch);
    }
    if secrets.len() < 2 || e.fps.len() != models.len() * secrets.len() {
        return Err(RejectReason::FingerprintShape);
    }
    for (mi, _) in models.iter().enumerate() {
        for (si, &s) in secrets.iter().enumerate() {
            if e.fps[mi * secrets.len() + si].0 != s {
                return Err(RejectReason::FingerprintShape);
            }
        }
    }
    if e.report.ni.len() != models.len() {
        return Err(RejectReason::VerdictMismatch);
    }
    for (mi, model) in models.iter().enumerate() {
        let mv = &e.report.ni[mi];
        if mv.model != *model {
            return Err(RejectReason::VerdictMismatch);
        }
        let slice = &e.fps[mi * secrets.len()..(mi + 1) * secrets.len()];
        match compare_secret_digests(slice) {
            Ok(pass) => {
                if mv.verdict != pass {
                    return Err(RejectReason::VerdictMismatch);
                }
            }
            Err(b) => match &mv.verdict {
                NiVerdict::Leak {
                    secret_a, secret_b, ..
                } if *secret_a == secrets[0] && *secret_b == secrets[b] => {}
                _ => return Err(RejectReason::VerdictMismatch),
            },
        }
    }
    match &e.report.transparency {
        Some(cert) if cert.transparent() && cert.monitored_digest == e.fps[0].2 => Ok(()),
        _ => Err(RejectReason::CertMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::ObligationResult;
    use crate::proof::ModelVerdict;
    use tp_hw::aisa::check_conformance;
    use tp_hw::machine::MachineConfig;
    use tp_kernel::config::TimeProtConfig;

    /// A two-entry cache file, as `save` writes it.
    fn two_groups() -> String {
        let mut cache = ProofCache::new();
        for key in [1, 2] {
            let cell = MatrixCell {
                machine: format!("m{key}"),
                mcfg: MachineConfig::tiny(),
                disable: None,
                tp: TimeProtConfig::full(),
            };
            let report = ProofReport {
                aisa: check_conformance(&cell.mcfg),
                p: ObligationResult::new("P"),
                f: ObligationResult::new("F"),
                t: ObligationResult::new("T"),
                ni: vec![ModelVerdict {
                    model: cell.mcfg.time_model,
                    verdict: NiVerdict::Pass {
                        secrets: 2,
                        events_compared: 7,
                    },
                }],
                steps: 40,
                transparency: None,
            };
            cache.insert(key, cell, report, vec![(0, 3, 9), (1, 3, 9)]);
        }
        cache.save()
    }

    /// However a crash cuts the final group — at any byte, up to one
    /// byte short — the committed group survives and the torn one is
    /// dropped; a cut inside the first group leaves nothing committed.
    #[test]
    fn a_cut_at_every_byte_keeps_exactly_the_committed_groups() {
        let text = two_groups();
        let first = text.find("end i=0\n").unwrap() + "end i=0\n".len();
        for cut in 1..text.len() {
            let cache = ProofCache::load(&text[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let committed = usize::from(cut >= first);
            let torn = usize::from(cut != first);
            assert_eq!(
                (cache.len(), cache.torn_dropped()),
                (committed, torn),
                "cut {cut}"
            );
        }
        let whole = ProofCache::load(&text).unwrap();
        assert_eq!((whole.len(), whole.torn_dropped()), (2, 0));
    }

    /// What no crash leaves fails closed: a finished line that is no
    /// record, damage inside a complete group, a lost `end` that merges
    /// two groups.
    #[test]
    fn damage_a_crash_cannot_leave_fails_closed() {
        let text = two_groups();
        let first = text.find("end i=0\n").unwrap() + "end i=0\n".len();
        for (label, bad) in [
            ("finished junk line", format!("{text}xyzzy\n")),
            (
                "junk line before a torn group",
                format!("{text}xyzzy\ncell i=9 "),
            ),
            (
                "damaged complete group",
                text.replacen("steps i=1 n=40", "steps i=1 n=4x", 1),
            ),
            (
                "lost end",
                format!("{}{}", &text[..first - "end i=0\n".len()], &text[first..]),
            ),
            (
                "two unfinished groups",
                format!("{text}cell i=8 machine=a disable=-\ncell i=9 machine=b"),
            ),
        ] {
            assert!(ProofCache::load(&bad).is_err(), "{label} must fail closed");
        }
    }

    /// Fold `parts` in order, as `cell_key` folds its string fields.
    fn fold_parts(parts: &[&[u8]]) -> u64 {
        let mut f = WordFold::new(CACHE_SALT);
        for p in parts {
            fold_bytes(&mut f, p);
        }
        f.finish()
    }

    /// Moving bytes across a string boundary, padding with zeros or
    /// splitting one string in two all change the fold.
    #[test]
    fn fold_bytes_is_length_delimited() {
        let folds = [
            fold_parts(&[b"ab", b"c"]),
            fold_parts(&[b"a", b"bc"]),
            fold_parts(&[b"abc"]),
            fold_parts(&[b"abc\0"]),
            fold_parts(&[b"abc", b""]),
            fold_parts(&[b"abd"]),
            fold_parts(&[b"abcdefgh"]),
            fold_parts(&[b"abcdefgh", b""]),
            fold_parts(&[b"abcdefghi"]),
            fold_parts(&[]),
        ];
        for (i, a) in folds.iter().enumerate() {
            for (j, b) in folds.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "parts {i} and {j} collide");
            }
        }
        assert_eq!(fold_parts(&[b"abc"]), fold_parts(&[b"abc"]));
    }
}

//! Append-only per-cell checkpoint journal for crash-safe sweeps.
//!
//! A sweep run with `matrix --journal F` (or a tp-serve job with a
//! journal directory) appends one framed record to `F` as each
//! cacheable cell completes, fsyncing after every record. If the
//! process dies — `kill -9`, OOM, power loss — `matrix --resume F`
//! reloads the survivors and re-proves only what is missing, producing
//! stdout byte-identical to an uninterrupted run.
//!
//! ## Record framing
//!
//! ```text
//! jrec i=<cell index> len=<payload bytes> check=<word fold of payload>
//! <payload: one wire record group, `write_cell_cached` output>
//! ```
//!
//! The payload is exactly the cache wire format — the cell group, its
//! `cached` metadata record and the `end` terminator — so a journal
//! carries the same evidence as a cache file and is validated by the
//! same gauntlet ([`crate::cache::validate_entry`]) before a single
//! verdict is believed.
//!
//! ## The torn-tail rule
//!
//! A crash can only ever tear the *final* record (appends are
//! sequential and fsynced). The parser therefore drops, silently and
//! by design, a trailing record that is truncated or fails its framing
//! checksum — it was never durable, so it is never trusted. Anything
//! wrong *before* the physical tail is not a crash artifact but
//! corruption or tampering, and the parse **fails closed** with a
//! [`WireError`]. Dropped tails are counted under
//! [`tp_telemetry::Counter::JournalTornDropped`].
//!
//! Duplicate cell indices are legal (a resumed run re-appends a cell
//! whose earlier record failed validation) and resolve last-wins, the
//! same rule as [`crate::cache::ProofCache::load`]. A hostile
//! duplicate cannot flip a verdict: every replayed record still has to
//! survive the full cache gauntlet at lookup time.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::cache::{fold_bytes, CacheEntry};
use crate::engine::MatrixCell;
use crate::faultpoint::{self, Fault};
use crate::proof::ProofReport;
use crate::wire::{parse_cells_meta, write_cell_cached, CachedMeta, WireError};
use tp_hw::obs::WordFold;

/// The fault point fired once per [`JournalWriter::append`], before
/// any bytes reach the file: `ioerr` surfaces as the returned error,
/// `truncate` writes a torn prefix of the record and aborts, `kill`
/// aborts with nothing written.
pub const APPEND_POINT: &str = "journal.append";

/// Version tag folded into every record's framing checksum, so a
/// journal from an incompatible framing simply reads as corrupt.
const JOURNAL_SALT: u64 = 0x7470_6a72_0000_0002;

/// Framing checksum over a record's payload bytes.
fn rec_check(payload: &str) -> u64 {
    let mut f = WordFold::new(JOURNAL_SALT);
    fold_bytes(&mut f, payload.as_bytes());
    f.finish()
}

/// One validated journal record: a proved cell plus the cache metadata
/// the resume gauntlet will judge it by.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// The cell's global matrix index.
    pub index: usize,
    /// The cell's coordinates.
    pub cell: MatrixCell,
    /// The proved report.
    pub report: ProofReport,
    /// Key/salt/checksum/fingerprints, exactly as a cache entry.
    pub meta: CachedMeta,
}

impl JournalRecord {
    /// Convert into a [`CacheEntry`] preserving the *stored* salt and
    /// checksum — replay must judge what was written, not re-stamp it.
    pub fn into_entry(self) -> CacheEntry {
        CacheEntry {
            key: self.meta.key,
            salt: self.meta.salt,
            check: self.meta.check,
            fps: self.meta.fps,
            cell: self.cell,
            report: self.report,
        }
    }
}

/// What a parse saw: how many records survived and how many torn
/// trailing records were dropped (0 or 1 for a genuine crash).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Framing-valid records returned to the caller.
    pub records: usize,
    /// Torn trailing records silently dropped.
    pub torn_dropped: usize,
}

/// An open journal being appended to.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Start a fresh journal at `path`, truncating any previous file.
    pub fn create(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::create(path)?,
        })
    }

    /// Open `path` for appending (creating it if absent) — the resume
    /// path, after the survivors have been compacted.
    pub fn open_append(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: OpenOptions::new().create(true).append(true).open(path)?,
        })
    }

    /// Append one proved cell and fsync it durable.
    pub fn append(
        &mut self,
        index: usize,
        cell: &MatrixCell,
        report: &ProofReport,
        meta: &CachedMeta,
    ) -> io::Result<()> {
        let rec = render_record(index, cell, report, meta);
        match faultpoint::fire(APPEND_POINT) {
            Some(Fault::IoError) => return Err(faultpoint::injected_io_error(APPEND_POINT)),
            Some(Fault::Truncate) => {
                // A torn tail: half the record reaches the disk, then
                // the process dies. Resume must drop it silently.
                let _ = self.file.write_all(&rec.as_bytes()[..rec.len() / 2]);
                let _ = self.file.sync_data();
                faultpoint::abort_now(APPEND_POINT);
            }
            Some(Fault::Kill) => faultpoint::abort_now(APPEND_POINT),
            Some(Fault::Panic) => panic!("injected fault: {APPEND_POINT} panicked"),
            Some(Fault::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            None => {}
        }
        self.file.write_all(rec.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// Render one framed record (header line + wire payload).
fn render_record(
    index: usize,
    cell: &MatrixCell,
    report: &ProofReport,
    meta: &CachedMeta,
) -> String {
    let mut payload = String::new();
    write_cell_cached(&mut payload, index, cell, report, meta);
    format!(
        "jrec i={index} len={} check={}\n{payload}",
        payload.len(),
        rec_check(&payload)
    )
}

/// Serialise records back to journal framing — the compaction step a
/// resume uses (via [`crate::persist::write_atomic`]) to drop a torn
/// tail from disk before appending after it.
pub fn render_journal(records: &[JournalRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&render_record(r.index, &r.cell, &r.report, &r.meta));
    }
    out
}

/// Parse a journal, applying the torn-tail rule (module docs). Returns
/// the surviving records in append order plus the parse stats; fails
/// closed on anything invalid that is *not* the physical tail.
pub fn parse_journal(text: &str) -> Result<(Vec<JournalRecord>, JournalStats), WireError> {
    let mut out = Vec::new();
    let mut stats = JournalStats::default();
    let mut pos = 0usize;
    while pos < text.len() {
        let line_no = || text[..pos].lines().count() + 1;
        let Some(nl) = text[pos..].find('\n') else {
            // A header with no newline can only be a torn final write.
            stats.torn_dropped += 1;
            break;
        };
        let header = &text[pos..pos + nl];
        let body_start = pos + nl + 1;
        let Some((index, len, check)) = parse_header(header) else {
            if text[body_start..].trim().is_empty() {
                // Garbled bytes at the physical tail: torn, drop.
                stats.torn_dropped += 1;
                break;
            }
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("bad journal header {header:?}"),
            });
        };
        let Some(payload) = text.get(body_start..body_start + len) else {
            // Payload runs past EOF (or splits a UTF-8 boundary at the
            // very tail): a truncated final record. Drop it.
            stats.torn_dropped += 1;
            break;
        };
        if rec_check(payload) != check {
            if text[body_start + len..].trim().is_empty() {
                // Checksum-invalid *final* record: the crash hit
                // mid-payload but left the full length. Still torn.
                stats.torn_dropped += 1;
                break;
            }
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("journal record i={index} fails its framing checksum"),
            });
        }
        // Framing-valid payloads must be exactly one cached cell group
        // with a matching index; anything else is corruption, and a
        // valid checksum proves it is not a crash artifact.
        let mut parsed = parse_cells_meta(payload)?;
        let (pi, cell, report, meta) = match (parsed.len(), parsed.pop()) {
            (1, Some(p)) => p,
            _ => {
                return Err(WireError::Parse {
                    line: line_no(),
                    msg: format!("journal record i={index} is not exactly one cell group"),
                });
            }
        };
        let Some(meta) = meta else {
            return Err(WireError::Incomplete {
                index,
                msg: "journal record has no cached metadata".into(),
            });
        };
        if pi != index {
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("journal header says i={index} but payload says i={pi}"),
            });
        }
        out.push(JournalRecord {
            index,
            cell,
            report,
            meta,
        });
        stats.records += 1;
        pos = body_start + len;
    }
    if stats.torn_dropped > 0 {
        tp_telemetry::count_n(
            tp_telemetry::Counter::JournalTornDropped,
            stats.torn_dropped as u64,
        );
    }
    Ok((out, stats))
}

/// Parse a `jrec i=N len=N check=N` header line.
fn parse_header(line: &str) -> Option<(usize, usize, u64)> {
    let rest = line.strip_prefix("jrec ")?;
    let mut index = None;
    let mut len = None;
    let mut check = None;
    for tok in rest.split_ascii_whitespace() {
        if let Some(v) = tok.strip_prefix("i=") {
            index = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("check=") {
            check = v.parse().ok();
        } else {
            return None;
        }
    }
    Some((index?, len?, check?))
}

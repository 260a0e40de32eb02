//! Line-oriented wire format for scale-out matrix sweeps.
//!
//! A sweep of thousands of cells wants to run on more than one process
//! (or host). This module makes that possible with plain text: a
//! `sched-worker` process proves a slice of the matrix and prints one
//! record group per cell — [`write_cell`] — and a merge step parses any
//! concatenation of such outputs — [`parse_cells`] — and reassembles
//! the full, deterministically-ordered [`MatrixReport`] —
//! [`merge_cells`] — as if a single process had run the whole sweep.
//!
//! Format: one record per line, `tag key=value key=value …`, values
//! percent-escaped so labels and violation details survive spaces and
//! newlines. Every record carries the cell's global index `i`, so shard
//! outputs can be concatenated, interleaved cell-wise, or stored in
//! separate files — the merge only requires that each index appears
//! exactly once and the indices form a contiguous `0..n`.
//!
//! The aISA conformance half of a [`ProofReport`] is *recomputed* from
//! the serialised machine configuration at parse time rather than
//! shipped: `check_conformance` is deterministic, so the reconstructed
//! report is field-for-field identical to the worker's.
//!
//! The `cert` record's digests come straight from each run's
//! observation sink (`tp_hw::obs`): a digest-first worker and a
//! recording worker serialise identical certificates, so shards proved
//! under different observation modes still merge byte-identically.

use crate::engine::{MatrixCell, MatrixReport};
use crate::obligation::{ObligationResult, Violation, ViolationKind};
use crate::proof::{ModelVerdict, ProofReport};
use tp_hw::aisa::check_conformance;
use tp_hw::cache::{CacheConfig, ReplacementPolicy};
use tp_hw::clock::{CostTable, TimeModel};
use tp_hw::interconnect::MbaThrottle;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{Mechanism, TimeProtConfig};
use tp_kernel::domain::ObsEvent;

use crate::noninterference::{NiVerdict, TransparencyCert};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Errors surfaced while parsing or merging wire records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A record line could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A cell's record group ended before all required records arrived.
    Incomplete {
        /// The cell index with missing records.
        index: usize,
        /// The missing piece.
        msg: String,
    },
    /// The merged cell indices are not a contiguous, duplicate-free
    /// `0..n` — a shard is missing or was fed twice.
    BadCoverage {
        /// Description of the gap or duplicate.
        msg: String,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Parse { line, msg } => write!(f, "wire parse error at line {line}: {msg}"),
            WireError::Incomplete { index, msg } => {
                write!(f, "cell {index} is incomplete: {msg}")
            }
            WireError::BadCoverage { msg } => write!(f, "shard coverage error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cache metadata optionally attached to a cell's record group (the
/// `cached` record, written by [`write_cell_cached`]): the content key
/// the entry is addressed by, the engine salt it was produced under, a
/// self-authenticating checksum over the group's canonical bytes, and
/// the per-(model, secret) observation fingerprints its NI verdicts
/// were derived from. Records without it — every record written before
/// the proof cache existed, and every live worker shard — parse to
/// `None`, so caches and live shards concatenate and merge freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedMeta {
    /// The FNV content hash of the cell's full input fingerprint.
    pub key: u64,
    /// The engine/proof-mode version salt the entry was produced under.
    pub salt: u64,
    /// Checksum over the entry's canonical serialised bytes plus key,
    /// salt and fingerprints ([`crate::cache::entry_check`]).
    pub check: u64,
    /// `(secret, lo_len, monitored_digest)` per (model, secret) run,
    /// model-major — the evidence the cell's NI verdicts rest on.
    pub fps: Vec<(u64, usize, u64)>,
}

// ---------------------------------------------------------------------
// Escaping
// ---------------------------------------------------------------------

/// Percent-escape the characters that would break line/token framing:
/// `%` (the escape itself), `=` (the key/value separator), and every
/// whitespace character — ASCII whitespace is what `fields` splits
/// tokens on, and *Unicode* whitespace (U+00A0, U+2028, …) would be
/// eaten by the parser's line trim. Escaped characters are emitted as
/// `%XX` per UTF-8 byte.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut utf8 = [0u8; 4];
    for c in s.chars() {
        if c == '%' || c == '=' || c.is_whitespace() {
            for b in c.encode_utf8(&mut utf8).bytes() {
                out.push_str(&format!("%{b:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Invert [`esc`]. Byte-oriented so multi-byte escapes reassemble into
/// their original UTF-8 sequences.
fn unesc(s: &str) -> Result<String, String> {
    let mut out = Vec::with_capacity(s.len());
    let mut it = s.bytes();
    while let Some(b) = it.next() {
        if b != b'%' {
            out.push(b);
            continue;
        }
        let hi = it.next().ok_or("truncated %-escape")? as char;
        let lo = it.next().ok_or("truncated %-escape")? as char;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
            .map_err(|_| format!("bad %-escape %{hi}{lo}"))?;
        out.push(byte);
    }
    String::from_utf8(out).map_err(|_| "unescaped bytes are not UTF-8".into())
}

// ---------------------------------------------------------------------
// Leaf encoders
// ---------------------------------------------------------------------

fn enc_bool(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

fn enc_policy(p: ReplacementPolicy) -> &'static str {
    match p {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::TreePlru => "plru",
        ReplacementPolicy::GlobalRandom => "rand",
    }
}

fn enc_cache(c: &CacheConfig) -> String {
    format!(
        "{}:{}:{}:{}",
        c.sets,
        c.ways,
        if c.write_back { "wb" } else { "wt" },
        enc_policy(c.policy)
    )
}

/// The fixed field order [`CostTable`] serialises in.
fn cost_table_fields(t: &CostTable) -> [u64; 14] {
    [
        t.l1_hit,
        t.l2_hit,
        t.llc_hit,
        t.dram,
        t.contention_per_req,
        t.tlb_hit,
        t.walk_per_level,
        t.writeback,
        t.branch_correct,
        t.branch_mispredict,
        t.flush_base,
        t.flush_per_line,
        t.flush_per_writeback,
        t.irq_entry,
    ]
}

fn enc_cost_table(t: &CostTable) -> String {
    cost_table_fields(t)
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

pub(crate) fn enc_time_model(m: &TimeModel) -> String {
    match m {
        TimeModel::Table(t) => format!("table:{}", enc_cost_table(t)),
        TimeModel::Hashed {
            table,
            seed,
            jitter,
        } => format!("hashed:{}:{}:{}", enc_cost_table(table), seed, jitter),
    }
}

/// The canonical `key=value` field list of a machine configuration —
/// the body of the `mcfg` record, and the canonical machine encoding
/// the proof cache folds into its content keys.
pub(crate) fn enc_machine(m: &MachineConfig) -> String {
    format!(
        "cores={} tlb={} frames={} icx={} pf={} bp={} smt={} l1i={} l1d={} l2={} llc={} mba={} time={}",
        m.cores,
        m.tlb_entries,
        m.mem_frames,
        m.icx_window,
        enc_bool(m.prefetcher_enabled),
        enc_bool(m.branch_predictor_enabled),
        enc_bool(m.smt),
        enc_cache(&m.l1i),
        enc_cache(&m.l1d),
        m.l2.as_ref().map(enc_cache).unwrap_or_else(|| "-".into()),
        m.llc.as_ref().map(enc_cache).unwrap_or_else(|| "-".into()),
        m.mba
            .as_ref()
            .map(|t| format!("{}:{}", t.max_requests_per_window, t.throttle_stall))
            .unwrap_or_else(|| "-".into()),
        enc_time_model(&m.time_model),
    )
}

pub(crate) fn enc_mechanism(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Colouring => "Colouring",
        Mechanism::Flush => "Flush",
        Mechanism::Padding => "Padding",
        Mechanism::IrqPartition => "IrqPartition",
        Mechanism::KernelClone => "KernelClone",
        Mechanism::DeterministicIpc => "DeterministicIpc",
    }
}

fn enc_violation_kind(k: &ViolationKind) -> &'static str {
    match k {
        ViolationKind::PartitionCacheLine => "PartitionCacheLine",
        ViolationKind::PartitionFrame => "PartitionFrame",
        ViolationKind::PartitionTlb => "PartitionTlb",
        ViolationKind::FlushResidue => "FlushResidue",
        ViolationKind::PadOverrun => "PadOverrun",
        ViolationKind::PadMistimed => "PadMistimed",
        ViolationKind::IpcEarlyDelivery => "IpcEarlyDelivery",
    }
}

fn enc_obs_event(e: &Option<ObsEvent>) -> String {
    match e {
        None => "-".to_string(),
        Some(ObsEvent::Clock(c)) => format!("c{}", c.0),
        Some(ObsEvent::IpcRecv { msg, at }) => format!("m{}@{}", msg, at.0),
        Some(ObsEvent::Fault) => "f".to_string(),
        Some(ObsEvent::Halted) => "h".to_string(),
    }
}

fn enc_ni_verdict(v: &NiVerdict) -> String {
    match v {
        NiVerdict::Pass {
            secrets,
            events_compared,
        } => format!("pass:{secrets}:{events_compared}"),
        NiVerdict::Leak {
            secret_a,
            secret_b,
            divergence,
            event_a,
            event_b,
        } => format!(
            "leak:{secret_a}:{secret_b}:{divergence}:{}:{}",
            enc_obs_event(event_a),
            enc_obs_event(event_b)
        ),
    }
}

// ---------------------------------------------------------------------
// Leaf decoders
// ---------------------------------------------------------------------

fn dec_bool(s: &str) -> Result<bool, String> {
    match s {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err(format!("expected 0/1, got {s:?}")),
    }
}

fn dec_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad integer {s:?}"))
}

fn dec_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad integer {s:?}"))
}

fn dec_policy(s: &str) -> Result<ReplacementPolicy, String> {
    match s {
        "lru" => Ok(ReplacementPolicy::Lru),
        "plru" => Ok(ReplacementPolicy::TreePlru),
        "rand" => Ok(ReplacementPolicy::GlobalRandom),
        _ => Err(format!("unknown replacement policy {s:?}")),
    }
}

fn dec_cache(s: &str) -> Result<CacheConfig, String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 4 {
        return Err(format!("cache config needs 4 fields, got {s:?}"));
    }
    let cfg = CacheConfig {
        sets: dec_usize(parts[0])?,
        ways: dec_usize(parts[1])?,
        write_back: match parts[2] {
            "wb" => true,
            "wt" => false,
            other => return Err(format!("unknown write mode {other:?}")),
        },
        policy: dec_policy(parts[3])?,
    };
    // A geometry the model cannot represent is malformed input, not a
    // panic at the first `Cache::new`.
    cfg.validate()
        .map_err(|e| format!("cache config {s:?}: {e}"))?;
    Ok(cfg)
}

fn dec_cost_table(s: &str) -> Result<CostTable, String> {
    let v: Vec<u64> = s.split(',').map(dec_u64).collect::<Result<Vec<_>, _>>()?;
    if v.len() != 14 {
        return Err(format!("cost table needs 14 fields, got {}", v.len()));
    }
    Ok(CostTable {
        l1_hit: v[0],
        l2_hit: v[1],
        llc_hit: v[2],
        dram: v[3],
        contention_per_req: v[4],
        tlb_hit: v[5],
        walk_per_level: v[6],
        writeback: v[7],
        branch_correct: v[8],
        branch_mispredict: v[9],
        flush_base: v[10],
        flush_per_line: v[11],
        flush_per_writeback: v[12],
        irq_entry: v[13],
    })
}

fn dec_time_model(s: &str) -> Result<TimeModel, String> {
    if let Some(rest) = s.strip_prefix("table:") {
        return Ok(TimeModel::Table(dec_cost_table(rest)?));
    }
    if let Some(rest) = s.strip_prefix("hashed:") {
        let (table_part, tail) = rest
            .rsplit_once(':')
            .and_then(|(head, jitter)| {
                head.rsplit_once(':')
                    .map(|(table, seed)| (table, (seed, jitter)))
            })
            .ok_or("hashed model needs table:seed:jitter")?;
        return Ok(TimeModel::Hashed {
            table: dec_cost_table(table_part)?,
            seed: dec_u64(tail.0)?,
            jitter: dec_u64(tail.1)?,
        });
    }
    Err(format!("unknown time model {s:?}"))
}

fn dec_mechanism(s: &str) -> Result<Mechanism, String> {
    Mechanism::ALL
        .into_iter()
        .find(|m| enc_mechanism(*m) == s)
        .ok_or(format!("unknown mechanism {s:?}"))
}

fn dec_violation_kind(s: &str) -> Result<ViolationKind, String> {
    const ALL: [ViolationKind; 7] = [
        ViolationKind::PartitionCacheLine,
        ViolationKind::PartitionFrame,
        ViolationKind::PartitionTlb,
        ViolationKind::FlushResidue,
        ViolationKind::PadOverrun,
        ViolationKind::PadMistimed,
        ViolationKind::IpcEarlyDelivery,
    ];
    ALL.into_iter()
        .find(|k| enc_violation_kind(k) == s)
        .ok_or(format!("unknown violation kind {s:?}"))
}

fn dec_obs_event(s: &str) -> Result<Option<ObsEvent>, String> {
    if s == "-" {
        return Ok(None);
    }
    if s == "f" {
        return Ok(Some(ObsEvent::Fault));
    }
    if s == "h" {
        return Ok(Some(ObsEvent::Halted));
    }
    if let Some(rest) = s.strip_prefix('c') {
        return Ok(Some(ObsEvent::Clock(Cycles(dec_u64(rest)?))));
    }
    if let Some(rest) = s.strip_prefix('m') {
        let (msg, at) = rest.split_once('@').ok_or("ipc event needs msg@at")?;
        return Ok(Some(ObsEvent::IpcRecv {
            msg: dec_u64(msg)?,
            at: Cycles(dec_u64(at)?),
        }));
    }
    Err(format!("unknown observation event {s:?}"))
}

fn dec_ni_verdict(s: &str) -> Result<NiVerdict, String> {
    if let Some(rest) = s.strip_prefix("pass:") {
        let (secrets, events) = rest.split_once(':').ok_or("pass needs secrets:events")?;
        return Ok(NiVerdict::Pass {
            secrets: dec_usize(secrets)?,
            events_compared: dec_usize(events)?,
        });
    }
    if let Some(rest) = s.strip_prefix("leak:") {
        let parts: Vec<&str> = rest.splitn(5, ':').collect();
        if parts.len() != 5 {
            return Err(format!("leak needs 5 fields, got {s:?}"));
        }
        return Ok(NiVerdict::Leak {
            secret_a: dec_u64(parts[0])?,
            secret_b: dec_u64(parts[1])?,
            divergence: dec_usize(parts[2])?,
            event_a: dec_obs_event(parts[3])?,
            event_b: dec_obs_event(parts[4])?,
        });
    }
    Err(format!("unknown NI verdict {s:?}"))
}

// ---------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------

/// Append the full record group for one proved cell to `out`.
///
/// `index` is the cell's position in the *whole* sweep's cell order —
/// global across shards — which is what lets [`merge_cells`] restore
/// the deterministic report order.
pub fn write_cell(out: &mut String, index: usize, cell: &MatrixCell, report: &ProofReport) {
    write_cell_body(out, index, cell, report);
    writeln!(out, "end i={index}").expect("writing to a String cannot fail");
}

/// [`write_cell`] with the cell's cache metadata attached: the same
/// record group plus one `cached` record immediately before `end`.
/// Strip the `cached` lines and the output is byte-identical to a live
/// worker's, which is what lets a warm cache replay into a sharded
/// merge without disturbing it.
pub fn write_cell_cached(
    out: &mut String,
    index: usize,
    cell: &MatrixCell,
    report: &ProofReport,
    meta: &CachedMeta,
) {
    write_cell_body(out, index, cell, report);
    write_cached_tail(out, index, meta.key, meta.salt, meta.check, &meta.fps);
}

/// The `cached` and `end` records that close a cached cell's group.
/// Shared by [`write_cell_cached`] and the proof cache's `save`, which
/// writes the body from bytes it rendered earlier.
pub(crate) fn write_cached_tail(
    out: &mut String,
    index: usize,
    key: u64,
    salt: u64,
    check: u64,
    fps: &[(u64, usize, u64)],
) {
    writeln!(
        out,
        "cached i={index} key={key} salt={salt} check={check} fps={}",
        enc_fingerprints(fps),
    )
    .expect("writing to a String cannot fail");
    writeln!(out, "end i={index}").expect("writing to a String cannot fail");
}

/// Append the record for a cell whose proof **failed** — a panicking
/// task contained by the scheduler — in place of a record group: one
/// `err` line carrying the cell's global index and the panic message.
///
/// Error records are deliberately *not* accepted by [`parse_cells`]: a
/// failed cell must never merge into a [`MatrixReport`] as if it had
/// been proved. Streaming drivers (the `tp-serve` daemon) forward them
/// to clients as per-cell failure notices and leave re-proving to a
/// resubmission.
pub fn write_cell_error(out: &mut String, index: usize, msg: &str) {
    writeln!(out, "err i={index} msg={}", esc(msg)).expect("writing to a String cannot fail");
}

/// Everything in a cell's record group except the trailing
/// `cached`/`end` records. Also the canonical byte string the proof
/// cache's entry checksum covers (with the index pinned by the caller,
/// so checksums are position-independent).
pub(crate) fn write_cell_body(
    out: &mut String,
    index: usize,
    cell: &MatrixCell,
    report: &ProofReport,
) {
    writeln!(
        out,
        "cell i={index} machine={} disable={}",
        esc(&cell.machine),
        cell.disable.map(enc_mechanism).unwrap_or("-"),
    )
    .expect("writing to a String cannot fail");
    let tp = &cell.tp;
    writeln!(
        out,
        "tpc i={index} colouring={} flush={} flush_llc={} pad={} irq={} clone={} ipc={}",
        enc_bool(tp.colouring),
        enc_bool(tp.flush_on_switch),
        enc_bool(tp.flush_llc_on_switch),
        enc_bool(tp.pad_switch),
        enc_bool(tp.irq_partition),
        enc_bool(tp.kernel_clone),
        enc_bool(tp.deterministic_ipc),
    )
    .expect("writing to a String cannot fail");
    writeln!(out, "mcfg i={index} {}", enc_machine(&cell.mcfg))
        .expect("writing to a String cannot fail");
    for ob in [&report.p, &report.f, &report.t] {
        writeln!(
            out,
            "ob i={index} name={} checked={}",
            ob.name, ob.checked_points
        )
        .expect("writing to a String cannot fail");
        for v in &ob.violations {
            writeln!(
                out,
                "viol i={index} ob={} kind={} at={} detail={}",
                ob.name,
                enc_violation_kind(&v.kind),
                v.at.0,
                esc(&v.detail),
            )
            .expect("writing to a String cannot fail");
        }
    }
    for mv in &report.ni {
        writeln!(
            out,
            "ni i={index} model={} verdict={}",
            enc_time_model(&mv.model),
            enc_ni_verdict(&mv.verdict),
        )
        .expect("writing to a String cannot fail");
    }
    writeln!(out, "steps i={index} n={}", report.steps).expect("writing to a String cannot fail");
    if let Some(cert) = &report.transparency {
        writeln!(
            out,
            "cert i={index} monitored={} replay={} switch={}",
            cert.monitored_digest, cert.replay_digest, cert.switch_digest
        )
        .expect("writing to a String cannot fail");
    }
}

/// Append `body` — [`write_cell_body`] output at index 0 — as the body
/// of cell `index`, each line led by `prefix`: with an empty prefix, the
/// same bytes `write_cell_body` renders at `index`, since every record
/// starts `<tag> i=<index> `.
pub(crate) fn write_reindexed_body(out: &mut String, prefix: &str, index: usize, body: &str) {
    // Formatted once, then copied: a hit's splice stays a few copies per
    // line. Tags hold no space, so the first one opens ` i=0 `.
    let at = format!(" i={index} ");
    for line in body.split_inclusive('\n') {
        let (tag, rest) = line
            .find(' ')
            .and_then(|sp| Some((&line[..sp], line[sp..].strip_prefix(" i=0 ")?)))
            .expect("every body record starts `<tag> i=0 `");
        out.push_str(prefix);
        out.push_str(tag);
        out.push_str(&at);
        out.push_str(rest);
    }
}

/// A cached cell's record group, spliced from its stored canonical
/// bytes ([`crate::cache::Hit::body`]) instead of rendered from the
/// report: with an empty `prefix`, byte-identical to [`write_cell`] of
/// the entry's cell and report at `index`. Every line is led by
/// `prefix` (tp-serve passes `"REC "`).
pub fn write_stored_cell(out: &mut String, prefix: &str, index: usize, body: &str) {
    write_reindexed_body(out, prefix, index, body);
    writeln!(out, "{prefix}end i={index}").expect("writing to a String cannot fail");
}

/// Encode the per-(model, secret) fingerprint list:
/// `secret:len:digest` triples, comma-joined, model-major.
fn enc_fingerprints(fps: &[(u64, usize, u64)]) -> String {
    fps.iter()
        .map(|(s, l, d)| format!("{s}:{l}:{d}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn dec_fingerprints(s: &str) -> Result<Vec<(u64, usize, u64)>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        if fields.len() != 3 {
            return Err(format!("fingerprint needs secret:len:digest, got {part:?}"));
        }
        out.push((
            dec_u64(fields[0])?,
            dec_usize(fields[1])?,
            dec_u64(fields[2])?,
        ));
    }
    if out.is_empty() {
        return Err("fingerprint list is empty".into());
    }
    Ok(out)
}

/// Serialise a whole [`MatrixReport`] (cell indices `0..n`).
pub fn serialize_report(report: &MatrixReport) -> String {
    let mut out = String::new();
    for (i, (cell, proof)) in report.cells.iter().enumerate() {
        write_cell(&mut out, i, cell, proof);
    }
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Accumulates one cell's records until its `end` line arrives.
#[derive(Default)]
struct CellBuilder {
    machine: Option<String>,
    disable: Option<Option<Mechanism>>,
    tp: Option<TimeProtConfig>,
    mcfg: Option<MachineConfig>,
    obligations: Vec<ObligationResult>,
    ni: Vec<ModelVerdict>,
    steps: Option<usize>,
    /// Optional for cross-version compatibility: reports serialised
    /// before transparency certification existed parse to `None`.
    cert: Option<TransparencyCert>,
    /// Optional: only present in cache files (see [`crate::cache`]).
    /// Live sweep output never carries it, and old records parse to
    /// `None`.
    cached: Option<CachedMeta>,
}

/// Split a record line into its tag and key=value fields.
fn fields(line: &str) -> Result<(&str, BTreeMap<&str, &str>), String> {
    let mut it = line.split_ascii_whitespace();
    let tag = it.next().ok_or("empty record")?;
    let mut map = BTreeMap::new();
    for tok in it {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("field {tok:?} is not key=value"))?;
        map.insert(k, v);
    }
    Ok((tag, map))
}

fn want<'a>(map: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    map.get(key).copied().ok_or(format!("missing field {key}"))
}

/// Parse any concatenation of [`write_cell`] outputs. Blank lines and
/// `#` comments are ignored, so shard outputs can be annotated or
/// `cat`-ed together freely. Returns `(index, cell, report)` triples in
/// the order their `end` records appear.
pub fn parse_cells(text: &str) -> Result<Vec<(usize, MatrixCell, ProofReport)>, WireError> {
    Ok(parse_cells_meta(text)?
        .into_iter()
        .map(|(i, cell, report, _)| (i, cell, report))
        .collect())
}

/// One parsed record group: the cell's global index, the cell, its
/// report, and its optional cache metadata.
pub type ParsedCell = (usize, MatrixCell, ProofReport, Option<CachedMeta>);

/// Like [`parse_cells`], but also surfaces each cell's optional
/// [`CachedMeta`] record. Cache files round-trip through this; live
/// shard output parses with `None` meta throughout.
pub fn parse_cells_meta(text: &str) -> Result<Vec<ParsedCell>, WireError> {
    let mut building: BTreeMap<usize, CellBuilder> = BTreeMap::new();
    let mut done: Vec<ParsedCell> = Vec::new();

    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parse_err = |msg: String| WireError::Parse { line: line_no, msg };
        let (tag, map) = fields(line).map_err(parse_err)?;
        let index = dec_usize(want(&map, "i").map_err(parse_err)?).map_err(parse_err)?;
        let b = building.entry(index).or_default();
        match tag {
            "cell" => {
                b.machine =
                    Some(unesc(want(&map, "machine").map_err(parse_err)?).map_err(parse_err)?);
                b.disable = Some(match want(&map, "disable").map_err(parse_err)? {
                    "-" => None,
                    m => Some(dec_mechanism(m).map_err(parse_err)?),
                });
            }
            "tpc" => {
                b.tp = Some(TimeProtConfig {
                    colouring: dec_bool(want(&map, "colouring").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    flush_on_switch: dec_bool(want(&map, "flush").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    flush_llc_on_switch: dec_bool(want(&map, "flush_llc").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    pad_switch: dec_bool(want(&map, "pad").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    irq_partition: dec_bool(want(&map, "irq").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    kernel_clone: dec_bool(want(&map, "clone").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    deterministic_ipc: dec_bool(want(&map, "ipc").map_err(parse_err)?)
                        .map_err(parse_err)?,
                });
            }
            "mcfg" => {
                let opt_cache = |key: &str| -> Result<Option<CacheConfig>, WireError> {
                    match want(&map, key).map_err(parse_err)? {
                        "-" => Ok(None),
                        s => Ok(Some(dec_cache(s).map_err(parse_err)?)),
                    }
                };
                b.mcfg = Some(MachineConfig {
                    cores: dec_usize(want(&map, "cores").map_err(parse_err)?).map_err(parse_err)?,
                    l1i: dec_cache(want(&map, "l1i").map_err(parse_err)?).map_err(parse_err)?,
                    l1d: dec_cache(want(&map, "l1d").map_err(parse_err)?).map_err(parse_err)?,
                    l2: opt_cache("l2")?,
                    llc: opt_cache("llc")?,
                    tlb_entries: dec_usize(want(&map, "tlb").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    mem_frames: dec_usize(want(&map, "frames").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    time_model: dec_time_model(want(&map, "time").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    icx_window: dec_u64(want(&map, "icx").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    mba: match want(&map, "mba").map_err(parse_err)? {
                        "-" => None,
                        s => {
                            let (max, stall) = s
                                .split_once(':')
                                .ok_or_else(|| parse_err("mba needs max:stall".into()))?;
                            Some(MbaThrottle {
                                max_requests_per_window: max
                                    .parse()
                                    .map_err(|_| parse_err(format!("bad integer {max:?}")))?,
                                throttle_stall: dec_u64(stall).map_err(parse_err)?,
                            })
                        }
                    },
                    prefetcher_enabled: dec_bool(want(&map, "pf").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    branch_predictor_enabled: dec_bool(want(&map, "bp").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    smt: dec_bool(want(&map, "smt").map_err(parse_err)?).map_err(parse_err)?,
                });
            }
            "ob" => {
                let name =
                    obligation_name(want(&map, "name").map_err(parse_err)?).map_err(parse_err)?;
                let mut ob = ObligationResult::new(name);
                ob.checked_points =
                    dec_usize(want(&map, "checked").map_err(parse_err)?).map_err(parse_err)?;
                b.obligations.push(ob);
            }
            "viol" => {
                let name =
                    obligation_name(want(&map, "ob").map_err(parse_err)?).map_err(parse_err)?;
                let ob = b
                    .obligations
                    .iter_mut()
                    .find(|o| o.name == name)
                    .ok_or_else(|| parse_err(format!("viol for undeclared obligation {name}")))?;
                ob.violations.push(Violation {
                    kind: dec_violation_kind(want(&map, "kind").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    at: Cycles(dec_u64(want(&map, "at").map_err(parse_err)?).map_err(parse_err)?),
                    detail: unesc(want(&map, "detail").map_err(parse_err)?).map_err(parse_err)?,
                });
            }
            "ni" => {
                b.ni.push(ModelVerdict {
                    model: dec_time_model(want(&map, "model").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    verdict: dec_ni_verdict(want(&map, "verdict").map_err(parse_err)?)
                        .map_err(parse_err)?,
                });
            }
            "steps" => {
                b.steps = Some(dec_usize(want(&map, "n").map_err(parse_err)?).map_err(parse_err)?);
            }
            "cert" => {
                b.cert = Some(TransparencyCert {
                    monitored_digest: dec_u64(want(&map, "monitored").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    replay_digest: dec_u64(want(&map, "replay").map_err(parse_err)?)
                        .map_err(parse_err)?,
                    switch_digest: dec_u64(want(&map, "switch").map_err(parse_err)?)
                        .map_err(parse_err)?,
                });
            }
            "cached" => {
                b.cached = Some(CachedMeta {
                    key: dec_u64(want(&map, "key").map_err(parse_err)?).map_err(parse_err)?,
                    salt: dec_u64(want(&map, "salt").map_err(parse_err)?).map_err(parse_err)?,
                    check: dec_u64(want(&map, "check").map_err(parse_err)?).map_err(parse_err)?,
                    fps: dec_fingerprints(want(&map, "fps").map_err(parse_err)?)
                        .map_err(parse_err)?,
                });
            }
            "end" => {
                let b = building.remove(&index).expect("builder just touched");
                done.push(finish_cell(index, b)?);
            }
            other => return Err(parse_err(format!("unknown record tag {other:?}"))),
        }
    }

    if let Some((&index, _)) = building.iter().next() {
        return Err(WireError::Incomplete {
            index,
            msg: "no end record".into(),
        });
    }
    Ok(done)
}

/// Map a serialised obligation name back to the engine's static names.
fn obligation_name(s: &str) -> Result<&'static str, String> {
    match s {
        "P" => Ok("P"),
        "F" => Ok("F"),
        "T" => Ok("T"),
        _ => Err(format!("unknown obligation {s:?}")),
    }
}

/// Assemble the parsed records of one cell into its typed pair.
fn finish_cell(index: usize, b: CellBuilder) -> Result<ParsedCell, WireError> {
    let missing = |msg: &str| WireError::Incomplete {
        index,
        msg: msg.into(),
    };
    let cell = MatrixCell {
        machine: b.machine.ok_or_else(|| missing("no cell record"))?,
        mcfg: b.mcfg.ok_or_else(|| missing("no mcfg record"))?,
        disable: b.disable.ok_or_else(|| missing("no cell record"))?,
        tp: b.tp.ok_or_else(|| missing("no tpc record"))?,
    };
    let mut p = None;
    let mut f = None;
    let mut t = None;
    for ob in b.obligations {
        match ob.name {
            "P" => p = Some(ob),
            "F" => f = Some(ob),
            "T" => t = Some(ob),
            _ => unreachable!("obligation_name admits only P/F/T"),
        }
    }
    let report = ProofReport {
        // Deterministically recomputed rather than shipped; see module
        // docs.
        aisa: check_conformance(&cell.mcfg),
        p: p.ok_or_else(|| missing("no P obligation"))?,
        f: f.ok_or_else(|| missing("no F obligation"))?,
        t: t.ok_or_else(|| missing("no T obligation"))?,
        ni: b.ni,
        steps: b.steps.ok_or_else(|| missing("no steps record"))?,
        transparency: b.cert,
    };
    if report.ni.is_empty() {
        return Err(missing("no ni records"));
    }
    Ok((index, cell, report, b.cached))
}

/// Merge parsed shard outputs into the full sweep's [`MatrixReport`].
///
/// The indices must cover `0..n` exactly once each; the report lists
/// cells in index order, so the merged report is identical to a
/// single-process run over the same matrix.
pub fn merge_cells(
    mut cells: Vec<(usize, MatrixCell, ProofReport)>,
) -> Result<MatrixReport, WireError> {
    cells.sort_by_key(|(i, _, _)| *i);
    for (pos, (i, _, _)) in cells.iter().enumerate() {
        if *i != pos {
            return Err(WireError::BadCoverage {
                msg: if *i < pos || (pos > 0 && cells[pos - 1].0 == *i) {
                    format!("cell index {i} appears more than once")
                } else {
                    format!("cell index {pos} is missing (next present: {i})")
                },
            });
        }
    }
    Ok(MatrixReport {
        cells: cells.into_iter().map(|(_, c, r)| (c, r)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_roundtrips_hostile_strings() {
        for s in [
            "plain",
            "with space",
            "line\nbreak",
            "tabs\tand\r=equals=",
            "form\x0Cfeed",
            "trailing unicode space\u{00A0}",
            "line\u{2028}separator and NEL\u{0085}",
            "100% déjà-vu",
            "",
        ] {
            assert_eq!(unesc(&esc(s)).unwrap(), s, "{s:?}");
            assert_eq!(
                esc(s).split_ascii_whitespace().count(),
                usize::from(!s.is_empty()),
                "escaped form must be one whitespace-free token: {s:?}"
            );
        }
    }

    #[test]
    fn time_model_roundtrips() {
        for m in crate::proof::default_time_models() {
            assert_eq!(dec_time_model(&enc_time_model(&m)).unwrap(), m);
        }
    }

    #[test]
    fn merge_rejects_gaps_and_duplicates() {
        let mk = |i| {
            let cell = MatrixCell {
                machine: "m".into(),
                mcfg: MachineConfig::tiny(),
                disable: None,
                tp: TimeProtConfig::full(),
            };
            let report = ProofReport {
                aisa: check_conformance(&cell.mcfg),
                p: ObligationResult::new("P"),
                f: ObligationResult::new("F"),
                t: ObligationResult::new("T"),
                ni: vec![],
                steps: 0,
                transparency: None,
            };
            (i, cell, report)
        };
        assert!(matches!(
            merge_cells(vec![mk(0), mk(2)]),
            Err(WireError::BadCoverage { .. })
        ));
        assert!(matches!(
            merge_cells(vec![mk(0), mk(1), mk(1)]),
            Err(WireError::BadCoverage { .. })
        ));
        assert_eq!(merge_cells(vec![mk(1), mk(0)]).unwrap().cells.len(), 2);
    }
}

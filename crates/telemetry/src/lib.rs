//! # tp-telemetry — zero-cost-when-off run instrumentation
//!
//! The proof engine, the `tp-sched` pool and the proof cache all do
//! interesting work a final verdict says nothing about: where a sweep's
//! time goes, how often workers steal or park, why a cache hit was
//! rejected. This crate is the observation surface for *the machinery
//! itself* — deliberately disjoint from `tp_hw::obs`, which observes
//! the *modelled system* and feeds the NI proof. No telemetry event is
//! ever folded into an observation digest; the determinism harness pins
//! that runs with telemetry on and off are byte-identical.
//!
//! The design is a closed set of sinks behind one static dispatch: a
//! process-wide [`TelemetrySink`] enum —
//!
//! * [`TelemetrySink::Null`] (the default) — every emit site is guarded
//!   by [`enabled`], a single relaxed atomic load, so the proof hot
//!   path pays one predicted branch and nothing else (the
//!   `benches/telemetry.rs` microbench prices this);
//! * [`TelemetrySink::Counters`] — lock-free atomic counters and span
//!   aggregates, rendered as the `--metrics` summary table;
//! * [`TelemetrySink::JsonLines`] — counters plus a buffered JSON-lines
//!   trace of every span (`--trace-out`), one object per line, with a
//!   machine-readable manifest appended by the binaries.
//!
//! Instrumentation granularity is per *task* and per *block*, never per
//! simulated step: the kernel's step loop is untouched.
//!
//! Emit sites push through the free functions ([`count`], [`count_n`],
//! [`queue_depth`], [`span_start`] + [`span`]); drivers [`install`] a
//! sink before a run and read it back with [`snapshot`] /
//! [`take_trace`] after. Installing a fresh sink resets all state, so
//! each run starts from zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A monotonic event counter. Each counter is one cell of the
/// recorder's atomic array; names (see [`Counter::name`]) are the keys
/// the trace manifest and `--metrics` table report them under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Tasks pushed onto the pool's submission queue.
    PoolSubmitted = 0,
    /// Tasks taken from the *back* of another worker's deque.
    PoolSteals,
    /// Times a worker found nothing anywhere and parked on the condvar.
    PoolParks,
    /// Pending pool tasks executed inline by a blocked
    /// `OrderedResults` consumer (the helping-waiter path).
    PoolHelpingWaits,
    /// Tasks whose body panicked. The scheduler contains every such
    /// panic at the task boundary (the worker survives, map/stream
    /// callers get the payload through their result slot), so this
    /// counter is the only place a fire-and-forget failure is visible.
    TasksPanicked,
    /// Proof-cache lookups replayed from a validated entry.
    CacheHits,
    /// Proof-cache lookups with no entry under the key.
    CacheMisses,
    /// Cells with no content key (proved live unconditionally).
    CacheUncacheable,
    /// Entries rejected for a version-salt mismatch.
    CacheRejectSalt,
    /// Entries rejected because the stored key differs from the
    /// addressing key.
    CacheRejectKey,
    /// Entries rejected because the stored cell differs from the live
    /// cell.
    CacheRejectCell,
    /// Entries rejected because the checksum does not re-derive.
    CacheRejectChecksum,
    /// Entries rejected for a malformed fingerprint table.
    CacheRejectFpShape,
    /// Entries rejected because a stored NI verdict is not re-derivable
    /// from the stored fingerprints.
    CacheRejectVerdict,
    /// Entries rejected for a missing or ungrounded transparency
    /// certificate.
    CacheRejectCert,
    /// Hi programs scanned by the exhaustive enumeration.
    ExhPrograms,
    /// Torn final groups dropped when a cache file was loaded.
    CacheTornDropped,
    /// Faults the `TP_FAULTS` plan actually injected.
    FaultsInjected,
    /// Serve jobs cancelled by their `deadline_ms` wall-clock budget.
    JobsDeadlineExpired,
}

impl Counter {
    /// Number of distinct counters.
    pub const COUNT: usize = 19;

    /// Every counter, in array-index order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::PoolSubmitted,
        Counter::PoolSteals,
        Counter::PoolParks,
        Counter::PoolHelpingWaits,
        Counter::TasksPanicked,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheUncacheable,
        Counter::CacheRejectSalt,
        Counter::CacheRejectKey,
        Counter::CacheRejectCell,
        Counter::CacheRejectChecksum,
        Counter::CacheRejectFpShape,
        Counter::CacheRejectVerdict,
        Counter::CacheRejectCert,
        Counter::ExhPrograms,
        Counter::CacheTornDropped,
        Counter::FaultsInjected,
        Counter::JobsDeadlineExpired,
    ];

    /// The stable wire name of this counter (trace manifests, tooling).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PoolSubmitted => "pool_submitted",
            Counter::PoolSteals => "pool_steals",
            Counter::PoolParks => "pool_parks",
            Counter::PoolHelpingWaits => "pool_helping_waits",
            Counter::TasksPanicked => "tasks_panicked",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheUncacheable => "cache_uncacheable",
            Counter::CacheRejectSalt => "cache_reject_salt",
            Counter::CacheRejectKey => "cache_reject_key",
            Counter::CacheRejectCell => "cache_reject_cell",
            Counter::CacheRejectChecksum => "cache_reject_checksum",
            Counter::CacheRejectFpShape => "cache_reject_fp_shape",
            Counter::CacheRejectVerdict => "cache_reject_verdict",
            Counter::CacheRejectCert => "cache_reject_cert",
            Counter::ExhPrograms => "exh_programs",
            Counter::CacheTornDropped => "cache_torn_dropped",
            Counter::FaultsInjected => "faults_injected",
            Counter::JobsDeadlineExpired => "jobs_deadline_expired",
        }
    }
}

/// A timed phase of one proof cell's life. Span kinds are aggregated
/// (count + total duration) by every non-null sink and traced as
/// individual JSON lines by [`TelemetrySink::JsonLines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// From batch submission to the moment a worker picked the task up.
    QueueWait = 0,
    /// One monitored proof run (a (model, secret) shard).
    Prove,
    /// Lockstep witness extraction after a fingerprint divergence.
    Lockstep,
    /// The certification replay: one plain digest-only run per proof
    /// that grounds its transparency certificate.
    Replay,
    /// The ordered per-cell merge + verdict derivation on the consumer.
    Verify,
    /// A cached tp-serve job waiting for the proof-cache lock, which
    /// another cached job holds for its sweep. `cell` carries the job id.
    CacheLock,
    /// One append to a proof-cache log: a freshly proved cell's record
    /// group written and fsynced. `cell` carries the group's index in
    /// the file.
    Persist,
    /// One tp-serve job, from its `SUBMIT` line to the flush of its
    /// terminal line (`DONE`, `CANCELLED`, `EXPIRED`), cached or not.
    /// `cell` carries the job id.
    Job,
}

impl SpanKind {
    /// Number of distinct span kinds.
    pub const COUNT: usize = 8;

    /// Every span kind, in array-index order.
    pub const ALL: [SpanKind; Self::COUNT] = [
        SpanKind::QueueWait,
        SpanKind::Prove,
        SpanKind::Lockstep,
        SpanKind::Replay,
        SpanKind::Verify,
        SpanKind::CacheLock,
        SpanKind::Persist,
        SpanKind::Job,
    ];

    /// The stable wire name of this span kind (`"kind"` in trace lines).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Prove => "prove",
            SpanKind::Lockstep => "lockstep",
            SpanKind::Replay => "replay",
            SpanKind::Verify => "verify",
            SpanKind::CacheLock => "cache-lock",
            SpanKind::Persist => "persist",
            SpanKind::Job => "job",
        }
    }
}

/// The shared mutable state behind a non-null sink: atomic counters,
/// span aggregates, and (for [`TelemetrySink::JsonLines`]) the buffered
/// trace text.
#[derive(Debug)]
pub struct Recorder {
    /// Run epoch: span `start_us` fields are relative to this.
    t0: Instant,
    counters: [AtomicU64; Counter::COUNT],
    /// High-water mark of the submission queue depth.
    peak_queue: AtomicU64,
    span_n: [AtomicU64; SpanKind::COUNT],
    span_us: [AtomicU64; SpanKind::COUNT],
    /// JSON-lines span buffer; `None` for counter-only recording.
    trace: Option<Mutex<String>>,
}

impl Recorder {
    fn new(traced: bool) -> Self {
        Recorder {
            t0: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            peak_queue: AtomicU64::new(0),
            span_n: std::array::from_fn(|_| AtomicU64::new(0)),
            span_us: std::array::from_fn(|_| AtomicU64::new(0)),
            trace: traced.then(|| Mutex::new(String::new())),
        }
    }

    fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn record_span(&self, kind: SpanKind, cell: usize, worker: Option<usize>, start: Instant) {
        let dur_us = start.elapsed().as_micros() as u64;
        self.span_n[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.span_us[kind as usize].fetch_add(dur_us, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            let start_us = start
                .checked_duration_since(self.t0)
                .map_or(0, |d| d.as_micros() as u64);
            let mut buf = trace.lock().expect("trace buffer poisoned");
            // Hand-rolled like every serialiser in this workspace: the
            // fields are numbers and fixed kind names, nothing escapes.
            let _ = match worker {
                Some(w) => writeln!(
                    buf,
                    "{{\"t\":\"span\",\"kind\":\"{}\",\"cell\":{cell},\"worker\":{w},\
                     \"start_us\":{start_us},\"dur_us\":{dur_us}}}",
                    kind.name()
                ),
                None => writeln!(
                    buf,
                    "{{\"t\":\"span\",\"kind\":\"{}\",\"cell\":{cell},\"worker\":null,\
                     \"start_us\":{start_us},\"dur_us\":{dur_us}}}",
                    kind.name()
                ),
            };
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            wall: self.t0.elapsed(),
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            peak_queue: self.peak_queue.load(Ordering::Relaxed),
            spans: std::array::from_fn(|i| {
                (
                    self.span_n[i].load(Ordering::Relaxed),
                    self.span_us[i].load(Ordering::Relaxed),
                )
            }),
        }
    }
}

/// The process-wide telemetry sink: a closed enum, dispatched by one
/// match per emit. [`TelemetrySink::Null`] is the default and the contract:
/// with it installed, every emit site reduces to one relaxed load.
#[derive(Debug, Clone, Default)]
pub enum TelemetrySink {
    /// Record nothing (the default): emit sites cost one atomic load.
    #[default]
    Null,
    /// Aggregate counters and span totals (the `--metrics` table).
    Counters(Arc<Recorder>),
    /// Counters plus a JSON-lines span trace (`--trace-out`).
    JsonLines(Arc<Recorder>),
}

impl TelemetrySink {
    /// A fresh counter-aggregating sink.
    pub fn counters() -> Self {
        TelemetrySink::Counters(Arc::new(Recorder::new(false)))
    }

    /// A fresh counting *and* span-tracing sink.
    pub fn json_lines() -> Self {
        TelemetrySink::JsonLines(Arc::new(Recorder::new(true)))
    }

    fn recorder(&self) -> Option<&Recorder> {
        match self {
            TelemetrySink::Null => None,
            TelemetrySink::Counters(r) | TelemetrySink::JsonLines(r) => Some(r),
        }
    }
}

/// Fast-path guard: false whenever [`TelemetrySink::Null`] is
/// installed. Emit sites branch on this before doing any other work.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The installed sink. An `RwLock`, not a `OnceLock`: the determinism
/// harness swaps sinks mid-process to pin that they are inert.
static SINK: RwLock<TelemetrySink> = RwLock::new(TelemetrySink::Null);

/// Install `sink` process-wide, replacing (and discarding) the previous
/// one. State starts from zero: recorders are created fresh, never
/// reused.
pub fn install(sink: TelemetrySink) {
    let on = !matches!(sink, TelemetrySink::Null);
    *SINK.write().expect("telemetry sink poisoned") = sink;
    ACTIVE.store(on, Ordering::Release);
}

/// Whether a non-null sink is installed — the one branch the null path
/// pays. Emit helpers check this themselves; call it directly only to
/// skip *preparing* expensive arguments.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn with_recorder(f: impl FnOnce(&Recorder)) {
    if !enabled() {
        return;
    }
    let sink = SINK.read().expect("telemetry sink poisoned");
    if let Some(r) = sink.recorder() {
        f(r);
    }
}

/// Bump `c` by one.
#[inline]
pub fn count(c: Counter) {
    if enabled() {
        with_recorder(|r| r.add(c, 1));
    }
}

/// Bump `c` by `n`.
#[inline]
pub fn count_n(c: Counter, n: u64) {
    if enabled() {
        with_recorder(|r| r.add(c, n));
    }
}

/// Record an observed submission-queue depth; the snapshot keeps the
/// maximum.
#[inline]
pub fn queue_depth(depth: u64) {
    if enabled() {
        with_recorder(|r| {
            r.peak_queue.fetch_max(depth, Ordering::Relaxed);
        });
    }
}

/// Begin a span: `Some(now)` when telemetry is on, `None` (and no
/// clock read at all) when it is off. Pass the result to [`span`].
#[inline]
pub fn span_start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Finish a span started at `start`: duration is `start.elapsed()` at
/// the call. `cell` is the matrix cell index the work belonged to,
/// `worker` the pool worker that ran it (`None` for the consumer
/// thread / helping waiters).
pub fn span(kind: SpanKind, cell: usize, worker: Option<usize>, start: Instant) {
    with_recorder(|r| r.record_span(kind, cell, worker, start));
}

/// A point-in-time copy of the installed recorder's aggregates.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wall time since the sink was installed.
    pub wall: Duration,
    counters: [u64; Counter::COUNT],
    /// High-water mark of the submission queue depth.
    pub peak_queue: u64,
    spans: [(u64, u64); SpanKind::COUNT],
}

impl Snapshot {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// `(count, total µs)` aggregate of one span kind.
    pub fn span(&self, k: SpanKind) -> (u64, u64) {
        self.spans[k as usize]
    }

    /// Total cache-entry rejections across the seven gauntlet reasons.
    pub fn cache_rejects(&self) -> u64 {
        [
            Counter::CacheRejectSalt,
            Counter::CacheRejectKey,
            Counter::CacheRejectCell,
            Counter::CacheRejectChecksum,
            Counter::CacheRejectFpShape,
            Counter::CacheRejectVerdict,
            Counter::CacheRejectCert,
        ]
        .iter()
        .map(|&c| self.counter(c))
        .sum()
    }

    /// Render the human `--metrics` summary table (stderr-shaped: one
    /// `telemetry:` header line, indented metric rows). The cache row
    /// goes through [`cache_counts`], the same formatter the `cache:`
    /// stderr line uses — one schema for both code paths.
    pub fn render_table(&self) -> String {
        let c = |x| self.counter(x);
        let mut out = String::new();
        let _ = writeln!(out, "telemetry: wall {:.3} s", self.wall.as_secs_f64());
        let _ = writeln!(
            out,
            "  pool: {} submitted, {} stolen, {} parked, {} helping-waits, {} panicked, peak queue {}",
            c(Counter::PoolSubmitted),
            c(Counter::PoolSteals),
            c(Counter::PoolParks),
            c(Counter::PoolHelpingWaits),
            c(Counter::TasksPanicked),
            self.peak_queue
        );
        let _ = writeln!(
            out,
            "  cache: {}",
            cache_counts(
                c(Counter::CacheHits) as usize,
                c(Counter::CacheMisses) as usize,
                self.cache_rejects() as usize,
                c(Counter::CacheUncacheable) as usize
            )
        );
        let _ = writeln!(
            out,
            "  cache rejects: salt={} key={} cell={} checksum={} fp-shape={} verdict={} cert={}",
            c(Counter::CacheRejectSalt),
            c(Counter::CacheRejectKey),
            c(Counter::CacheRejectCell),
            c(Counter::CacheRejectChecksum),
            c(Counter::CacheRejectFpShape),
            c(Counter::CacheRejectVerdict),
            c(Counter::CacheRejectCert)
        );
        let _ = writeln!(
            out,
            "  exhaustive: {} programs scanned",
            c(Counter::ExhPrograms)
        );
        let _ = writeln!(
            out,
            "  crash-safety: {} torn dropped, {} faults injected, {} deadlines expired",
            c(Counter::CacheTornDropped),
            c(Counter::FaultsInjected),
            c(Counter::JobsDeadlineExpired)
        );
        for k in SpanKind::ALL {
            let (n, us) = self.span(k);
            let mean = if n > 0 { us as f64 / n as f64 } else { 0.0 };
            let _ = writeln!(
                out,
                "  span {:<10} n={:<6} total={:>10.3} ms  mean={:>9.1} us",
                k.name(),
                n,
                us as f64 / 1000.0,
                mean
            );
        }
        out
    }
}

/// Aggregates of the installed sink, or `None` under
/// [`TelemetrySink::Null`].
pub fn snapshot() -> Option<Snapshot> {
    let sink = SINK.read().expect("telemetry sink poisoned");
    sink.recorder().map(Recorder::snapshot)
}

/// Drain the buffered JSON-lines trace (empty the buffer, keep the
/// sink). `None` unless a [`TelemetrySink::JsonLines`] sink is
/// installed.
pub fn take_trace() -> Option<String> {
    let sink = SINK.read().expect("telemetry sink poisoned");
    match &*sink {
        TelemetrySink::JsonLines(r) => {
            let trace = r.trace.as_ref().expect("JsonLines recorder has a buffer");
            Some(std::mem::take(
                &mut *trace.lock().expect("trace buffer poisoned"),
            ))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// The shared cache-stats formatter
// ---------------------------------------------------------------------

/// The one formatter for cache-resolution counts, used by
/// `tp_core::cache::CacheStats`'s `Display`, the binaries' `cache:`
/// stderr line and the `--metrics` table alike — the cold/warm CI job
/// greps this schema, so cached and uncached reporting cannot drift
/// apart.
pub fn cache_counts(hits: usize, missed: usize, rejected: usize, uncacheable: usize) -> String {
    format!(
        "{hits} hits, {} re-proved ({missed} missed, {rejected} rejected, {uncacheable} uncacheable)",
        missed + rejected + uncacheable
    )
}

/// The full `cache:` stderr line: [`cache_counts`] plus the store size.
pub fn cache_line(
    hits: usize,
    missed: usize,
    rejected: usize,
    uncacheable: usize,
    entries: usize,
) -> String {
    format!(
        "cache: {} — {entries} entries",
        cache_counts(hits, missed, rejected, uncacheable)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test drives the global sink end to end (tests in this binary
    /// share the process-wide sink, so the lifecycle lives in a single
    /// function).
    #[test]
    fn sink_lifecycle_counts_spans_and_traces() {
        // Null: nothing records, nothing allocates.
        install(TelemetrySink::default());
        assert!(!enabled());
        count(Counter::PoolSubmitted);
        assert!(span_start().is_none(), "null sink must not read the clock");
        assert!(snapshot().is_none());
        assert!(take_trace().is_none());

        // Counters: aggregates but no trace.
        install(TelemetrySink::counters());
        assert!(enabled());
        count(Counter::PoolSubmitted);
        count_n(Counter::ExhPrograms, 9);
        queue_depth(4);
        queue_depth(2);
        let start = span_start().expect("enabled sink starts spans");
        span(SpanKind::Prove, 3, Some(1), start);
        let snap = snapshot().expect("counters sink snapshots");
        assert_eq!(snap.counter(Counter::PoolSubmitted), 1);
        assert_eq!(snap.counter(Counter::ExhPrograms), 9);
        assert_eq!(snap.peak_queue, 4, "peak is a high-water mark");
        assert_eq!(snap.span(SpanKind::Prove).0, 1);
        assert!(take_trace().is_none(), "counter sink buffers no trace");
        let table = snap.render_table();
        assert!(table.contains("pool: 1 submitted"), "{table}");
        assert!(table.contains("exhaustive: 9 programs scanned"), "{table}");

        // JsonLines: counters plus one parseable line per span.
        install(TelemetrySink::json_lines());
        let start = span_start().unwrap();
        span(SpanKind::QueueWait, 0, None, start);
        let start = span_start().unwrap();
        span(SpanKind::Verify, 7, Some(2), start);
        let trace = take_trace().expect("json-lines sink buffers a trace");
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0]
                .starts_with("{\"t\":\"span\",\"kind\":\"queue-wait\",\"cell\":0,\"worker\":null,"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"t\":\"span\",\"kind\":\"verify\",\"cell\":7,\"worker\":2,"),
            "{}",
            lines[1]
        );
        // Draining empties the buffer but keeps recording.
        assert_eq!(take_trace().as_deref(), Some(""));
        let snap = snapshot().unwrap();
        assert_eq!(snap.span(SpanKind::QueueWait).0, 1);
        assert_eq!(snap.span(SpanKind::Verify).0, 1);

        // A fresh install resets everything.
        install(TelemetrySink::counters());
        let snap = snapshot().unwrap();
        assert_eq!(snap.counter(Counter::PoolSubmitted), 0);
        install(TelemetrySink::default());
        assert!(!enabled());
    }

    #[test]
    fn cache_formatters_match_the_pinned_schema() {
        assert_eq!(
            cache_counts(7, 0, 0, 0),
            "7 hits, 0 re-proved (0 missed, 0 rejected, 0 uncacheable)"
        );
        assert_eq!(
            cache_counts(6, 0, 1, 0),
            "6 hits, 1 re-proved (0 missed, 1 rejected, 0 uncacheable)"
        );
        assert_eq!(
            cache_line(0, 7, 0, 0, 7),
            "cache: 0 hits, 7 re-proved (7 missed, 0 rejected, 0 uncacheable) — 7 entries"
        );
    }

    #[test]
    fn names_are_stable_and_exhaustive() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        assert_eq!(SpanKind::ALL.len(), SpanKind::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} indexes its own array slot");
        }
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} indexes its own array slot");
        }
        let names: std::collections::BTreeSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT, "counter names are unique");
        let spans: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            spans,
            [
                "queue-wait",
                "prove",
                "lockstep",
                "replay",
                "verify",
                "cache-lock",
                "persist",
                "job"
            ],
            "span names are the wire schema"
        );
    }
}

//! The scenario-matrix proof engine: one fault-contained sweep driver
//! for whole families of proof scenarios, plus pooled drivers for a
//! single proof and for the exhaustive check.
//!
//! The paper's §5.1 argument — the proof must hold under *every*
//! deterministic-but-unspecified time model — is inherently a fan-out
//! workload: the (time-model × secret) product of [`crate::proof::prove`]
//! and the Hi-program enumeration of [`crate::exhaustive`] are both
//! embarrassingly parallel, and every run is deterministic. This module
//! flattens them into task lists for the persistent `tp-sched` worker
//! pool while keeping results **bit-identical** to the sequential
//! checkers:
//!
//! * [`ScenarioMatrix::sweep`] (and [`ScenarioMatrix::sweep_keyed`],
//!   for callers that already hold content keys) — the one sweep
//!   driver. It builds the
//!   cross product of machine configurations, mechanism ablations and
//!   time models, flattens the selected cells into **one**
//!   (cell × model × secret) task list, and hands each cell's outcome
//!   to the caller in deterministic cell order as soon as the cell's
//!   outputs have arrived. Each (model, secret) shard is one
//!   *certified, trace-free* monitored run whose rolling Lo fingerprint
//!   doubles as the NI baseline, with a single digest-only plain replay
//!   certifying observation transparency ([`ProofMode`]); the merge
//!   follows the exact lexicographic order the sequential `prove`
//!   accumulates in, re-running only fingerprint-diverging pairs with
//!   recording sinks for their witnesses. An optional [`ProofCache`]
//!   answers validated hits without running anything (handing the
//!   caller each hit's stored wire bytes) and takes every freshly proved
//!   cell — appending it to the cache's file when the cache has one — and
//!   a panic anywhere in a cell's proof becomes that cell's `Err` outcome.
//!   `matrix`, `all`, `bench` and `tp-serve` jobs all run through it;
//!   [`ScenarioMatrix::run`] is its all-cells wrapper on the global pool.
//! * [`prove_parallel`] — one scenario's proof, planned, submitted and
//!   merged by the same code as one sweep cell.
//! * [`check_exhaustive_parallel`] — shards the program enumeration by
//!   index blocks, each Hi-word digest-only against the cached baseline
//!   fingerprint; a leak verdict is the *lowest-index* witness, which
//!   is precisely the sequential first-witness.
//!
//! The zero-argument-pool forms run on the process-wide
//! [`tp_sched::global`] pool; the `_on` forms take a pool and a mode.
//! The sequential `prove` / `check_exhaustive` stay the reference every
//! pooled path is pinned against.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cache::{cell_key, CacheEntry, CacheMiss, CacheStats, ProofCache};
use crate::exhaustive::{
    recorded_leak, space_size, word_for_index_into, ExhaustiveConfig, ExhaustiveMode,
    ExhaustiveRunner, ExhaustiveVerdict,
};
use crate::flush::FlushReference;
use crate::noninterference::{
    compare_secret_digests, compare_secret_runs, first_divergence, lo_digest_len, lo_trace,
    lockstep_divergence, run_monitored_against, MonitoredRun, NiScenario, NiVerdict,
    TransparencyCert,
};
use crate::obligation::ObligationResult;
use crate::proof::{ModelVerdict, ProofReport};
use tp_hw::aisa::{check_conformance, ConformanceReport};
use tp_hw::cache::CacheConfig;
use tp_hw::clock::TimeModel;
use tp_hw::machine::{Core, MachineConfig};
use tp_hw::types::{CoreId, Cycles};
use tp_kernel::config::{KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::{DomainId, ObsEvent};
use tp_kernel::kernel::System;
use tp_kernel::program::Instr;
use tp_sched::{OrderedResults, WorkerPool};
use tp_telemetry::{Counter, SpanKind};

pub use tp_sched::available_threads;

// ---------------------------------------------------------------------
// Proof sharding
// ---------------------------------------------------------------------

/// How the engine obtains the NI baseline evidence for a proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProofMode {
    /// Digest-first certified single-run mode (the default): one
    /// *trace-free* monitored run per (model, secret) provides the
    /// P/F/T evidence and a rolling `(len, digest)` fingerprint of Lo's
    /// observations — the NI baseline — plus a single digest-only plain
    /// replay of the first pair whose digest certifies that monitoring
    /// is observation-transparent ([`TransparencyCert`]). No run on the
    /// hot path allocates per-event storage; only a fingerprint
    /// mismatch triggers a recording re-run of the offending pair to
    /// extract the replayable witness.
    #[default]
    Certified,
    /// Certified single-run mode with every monitored run fully
    /// recorded and Lo traces compared event by event — the
    /// pre-digest-first engine behaviour, kept as the equivalence
    /// oracle and the perf-pin baseline. Reports are bit-identical to
    /// [`ProofMode::Certified`].
    CertifiedRecording,
    /// The paranoid audit mode (`--replay-check`): every (model,
    /// secret) pair runs twice — monitored for P/F/T, plain for the NI
    /// baseline — exactly like the sequential [`crate::proof::prove`].
    /// Reports are bit-identical to certified mode whenever monitoring
    /// really is transparent, which is what the determinism harness
    /// pins.
    ReplayCheck,
}

impl ProofMode {
    /// Whether monitored runs execute trace-free (digest sinks).
    fn digest_first(self) -> bool {
        matches!(self, ProofMode::Certified)
    }
}

/// Owned inputs for one (model, secret) proof shard. Materialised on
/// the submitting thread so the task itself is `'static` and can run on
/// the persistent pool. The configurations are `Arc`-shared — the
/// machine across a model's secrets, the kernel configuration across a
/// secret's models — so fanning a sweep into thousands of tasks clones
/// pointers, not page tables and programs.
#[derive(Clone)]
struct ProofTask {
    /// Machine with the shard's time model applied.
    mcfg: Arc<MachineConfig>,
    /// Kernel configuration for this (model, secret) pair.
    kcfg: Arc<KernelConfig>,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
    /// Matrix cell index this shard belongs to (0 for single-scenario
    /// drivers) — telemetry attribution only, never part of the proof.
    cell: usize,
}

impl ProofTask {
    /// The monitored run for this shard, trace-free or recording,
    /// checked against the cell's shared flush reference.
    fn monitored(&self, digest_first: bool, flush: &FlushReference) -> MonitoredRun {
        let mut sys = System::from_parts(&self.mcfg, &self.kcfg)
            .expect("scenario construction must succeed for every secret");
        if digest_first {
            sys.use_digest_sinks();
        }
        run_monitored_against(sys, flush, self.lo, self.budget, self.max_steps)
    }

    /// A fresh recording system for this shard's configuration.
    fn build(&self) -> System {
        System::from_parts(&self.mcfg, &self.kcfg)
            .expect("scenario construction must succeed for every secret")
    }

    /// The digest-only plain replay: Lo's `(len, digest)` fingerprint.
    fn fingerprint(&self) -> (usize, u64) {
        lo_digest_len(&self.mcfg, &self.kcfg, self.lo, self.budget, self.max_steps)
    }

    /// Lockstep witness extraction against another shard of the same
    /// model: both systems run (recording) only up to the first
    /// diverging Lo event.
    fn lockstep_leak(&self, other: &ProofTask, secret_a: u64, secret_b: u64) -> NiVerdict {
        let span = tp_telemetry::span_start();
        let (divergence, event_a, event_b) = lockstep_divergence(
            self.build(),
            other.build(),
            self.lo,
            self.budget,
            self.max_steps,
        )
        .expect("a fingerprint mismatch implies a trace divergence");
        if let Some(start) = span {
            tp_telemetry::span(
                SpanKind::Lockstep,
                self.cell,
                tp_sched::current_worker(),
                start,
            );
        }
        NiVerdict::Leak {
            secret_a,
            secret_b,
            divergence,
            event_a,
            event_b,
        }
    }
}

/// One unit of engine work: a monitored proof shard, or the single
/// certification replay a certified-mode proof prepends.
#[derive(Clone)]
enum EngineTask {
    /// Monitored run for one (model, secret) pair (both runs in
    /// [`ProofMode::ReplayCheck`]), with the flush reference every run
    /// of its cell shares.
    Run(ProofTask, Arc<FlushReference>),
    /// The plain replay of the first (model, secret) pair whose digest
    /// grounds the [`TransparencyCert`] (certified mode only).
    CertReplay(ProofTask),
}

impl EngineTask {
    /// The matrix cell this task proves (telemetry attribution).
    fn cell(&self) -> usize {
        match self {
            EngineTask::Run(t, _) | EngineTask::CertReplay(t) => t.cell,
        }
    }
}

/// Per-(model, secret) evidence produced by one worker.
struct ProofShard {
    p: ObligationResult,
    f: ObligationResult,
    t: ObligationResult,
    steps: usize,
    /// Number of events in Lo's observation log.
    lo_len: usize,
    /// The NI baseline trace: the certified monitored trace
    /// ([`ProofMode::CertifiedRecording`]) or the plain replay trace
    /// ([`ProofMode::ReplayCheck`]). `None` on the digest-first hot
    /// path, where `(lo_len, monitored_digest)` is the baseline.
    trace: Option<Vec<ObsEvent>>,
    /// Rolling digest of the monitored run's Lo trace, straight from
    /// the observation sink.
    monitored_digest: u64,
    /// Rolling chain of post-switch core digests.
    switch_digest: u64,
    /// Digest of the shard's own plain replay (replay-check mode only).
    replay_digest: Option<u64>,
}

/// What one [`EngineTask`] produced.
enum TaskOutput {
    Run(Box<ProofShard>),
    Cert(u64),
}

/// One proof flattened for the pool: what the merge needs once the
/// proof's task outputs come back. The engine tasks themselves go into
/// the caller's shared submission.
struct PlannedProof {
    aisa: ConformanceReport,
    secrets: Vec<u64>,
    /// One entry per (model, secret), model-major — the order the merge
    /// consumes shards in, kept for divergence re-runs (pointer-cheap:
    /// the configs are `Arc`-shared with the tasks).
    runs: Vec<ProofTask>,
    /// How many engine tasks this proof submitted.
    tasks: usize,
}

/// Flatten `scenario` × `models` into owned engine tasks appended to
/// `tasks`, in the (model, secret) lexicographic order the merge
/// consumes them in. In certified modes the certification replay leads
/// so it overlaps the monitored runs on the pool. Kernel configurations
/// are built once per secret and `Arc`-shared across models; machines
/// once per model, shared across secrets; the flush reference comes
/// from `flush_refs`, shared by every monitored run of the submission
/// whose core is the same (see [`flush_reference`]). `cell` is the
/// matrix cell index the shards report telemetry under.
fn plan_proof(
    scenario: &NiScenario,
    models: &[TimeModel],
    mode: ProofMode,
    cell: usize,
    flush_refs: &mut Vec<Arc<FlushReference>>,
    tasks: &mut Vec<EngineTask>,
) -> PlannedProof {
    assert!(!models.is_empty(), "need at least one time model");
    assert!(
        scenario.secrets.len() >= 2,
        "need at least two secrets to compare"
    );
    let kcfgs: Vec<Arc<KernelConfig>> = scenario
        .secrets
        .iter()
        .map(|&s| Arc::new((scenario.make_kcfg)(s)))
        .collect();
    let mut runs = Vec::with_capacity(models.len() * scenario.secrets.len());
    for model in models {
        let mut mcfg = scenario.mcfg.clone();
        mcfg.time_model = *model;
        let mcfg = Arc::new(mcfg);
        for kcfg in &kcfgs {
            runs.push(ProofTask {
                mcfg: Arc::clone(&mcfg),
                kcfg: Arc::clone(kcfg),
                lo: scenario.lo,
                budget: scenario.budget,
                max_steps: scenario.max_steps,
                cell,
            });
        }
    }
    let flush = flush_reference(flush_refs, &scenario.mcfg);
    let before = tasks.len();
    if mode != ProofMode::ReplayCheck {
        tasks.push(EngineTask::CertReplay(runs[0].clone()));
    }
    tasks.extend(
        runs.iter()
            .map(|t| EngineTask::Run(t.clone(), Arc::clone(&flush))),
    );
    PlannedProof {
        aisa: check_conformance(&scenario.mcfg),
        secrets: scenario.secrets.clone(),
        runs,
        tasks: tasks.len() - before,
    }
}

/// The flush reference for the scheduled core of systems built on
/// `mcfg`, reusing an equal one from `known` (and adding a new one
/// there). A reference depends only on the core's geometry, not on the
/// time model, the LLC or the kernel, so a submission holds one per
/// distinct core rather than one per cell or per run.
fn flush_reference(
    known: &mut Vec<Arc<FlushReference>>,
    mcfg: &MachineConfig,
) -> Arc<FlushReference> {
    // Every system built from parts schedules core 0;
    // `run_monitored_against` checks that on each run.
    let core = Core::new(CoreId(0), mcfg);
    if let Some(r) = known.iter().find(|r| r.core.microarch_eq(&core)) {
        return Arc::clone(r);
    }
    let r = Arc::new(FlushReference::from_core(core));
    known.push(Arc::clone(&r));
    r
}

/// Submit engine tasks to `pool` — the one place proof tasks reach a
/// pool. Outputs stream back in submission order; a task that panics
/// arrives as its slot's `Err` outcome.
fn submit(
    pool: &WorkerPool,
    tasks: Vec<EngineTask>,
    mode: ProofMode,
) -> OrderedResults<TaskOutput> {
    let queued = tp_telemetry::span_start();
    pool.map_streamed(tasks, move |_, t| {
        if let Some(q) = queued {
            tp_telemetry::span(SpanKind::QueueWait, t.cell(), tp_sched::current_worker(), q);
        }
        run_engine_task(t, mode)
    })
}

/// Execute one engine task. A [`EngineTask::Run`] in a certified mode
/// is the single monitored run whose Lo fingerprint (digest-first) or
/// trace (recording) doubles as the NI baseline; in replay-check mode
/// it is exactly the two runs the sequential driver performs — one
/// monitored (P/F/T evidence) and one plain replay (the NI trace).
fn run_engine_task(task: EngineTask, mode: ProofMode) -> TaskOutput {
    // Chaos hook: `TP_FAULTS=…:task=panic@n` (containment) and
    // `task=delay:ms@n` (worker stall) land here, on the worker thread,
    // before any proof work. One lazily-armed atomic load when unused.
    crate::faultpoint::apply_inline("task");
    let worker = tp_sched::current_worker();
    match task {
        // The certification replay never needs a trace: its digest
        // comes straight from the replay system's sink.
        EngineTask::CertReplay(t) => {
            let span = tp_telemetry::span_start();
            let digest = t.fingerprint().1;
            if let Some(start) = span {
                tp_telemetry::span(SpanKind::Replay, t.cell, worker, start);
            }
            TaskOutput::Cert(digest)
        }
        EngineTask::Run(t, flush) => {
            let span = tp_telemetry::span_start();
            let run = t.monitored(mode.digest_first(), &flush);
            if let Some(start) = span {
                tp_telemetry::span(SpanKind::Prove, t.cell, worker, start);
            }
            let (trace, replay_digest) = match mode {
                ProofMode::Certified => (None, None),
                ProofMode::CertifiedRecording => (run.lo_trace, None),
                ProofMode::ReplayCheck => {
                    let span = tp_telemetry::span_start();
                    let replay = lo_trace(&t.mcfg, &t.kcfg, t.lo, t.budget, t.max_steps);
                    if let Some(start) = span {
                        tp_telemetry::span(SpanKind::Replay, t.cell, worker, start);
                    }
                    let digest = crate::noninterference::obs_digest(&replay);
                    (Some(replay), Some(digest))
                }
            };
            TaskOutput::Run(Box::new(ProofShard {
                p: run.p,
                f: run.f,
                t: run.t,
                steps: run.steps,
                lo_len: run.lo_len,
                trace,
                monitored_digest: run.lo_digest,
                switch_digest: run.switch_digest,
                replay_digest,
            }))
        }
    }
}

/// Each run's `(secret, lo_len, monitored_digest)` observation
/// fingerprint, model-major — the evidence a cache entry stores.
type Fingerprints = Vec<(u64, usize, u64)>;

impl PlannedProof {
    /// Drain this proof's task outputs from `stream` and merge them,
    /// containing every panic: a panicking task or merge yields
    /// `Err(panic message)`. The proof's whole task quota is drained even
    /// after a panic, so the next proof's outputs stay aligned. The
    /// `verify` span starts once the outputs have arrived, so it times
    /// the merge alone, never the wait for workers.
    fn collect(
        self,
        models: &[TimeModel],
        mode: ProofMode,
        stream: &mut OrderedResults<TaskOutput>,
    ) -> Result<(ProofReport, Fingerprints), String> {
        let mut outputs = Vec::with_capacity(self.tasks);
        let mut panic_msg = None;
        for _ in 0..self.tasks {
            match stream
                .next_outcome()
                .expect("one outcome per submitted engine task")
            {
                Ok(o) => outputs.push(o),
                Err(payload) => {
                    panic_msg.get_or_insert_with(|| {
                        tp_sched::panic_message(payload.as_ref()).to_string()
                    });
                }
            }
        }
        if let Some(msg) = panic_msg {
            return Err(msg);
        }
        let cell = self.runs[0].cell;
        let span = tp_telemetry::span_start();
        let merged = catch_unwind(AssertUnwindSafe(|| self.merge(models, mode, outputs)));
        if let Some(start) = span {
            tp_telemetry::span(SpanKind::Verify, cell, tp_sched::current_worker(), start);
        }
        merged.map_err(|payload| {
            tp_telemetry::count(Counter::TasksPanicked);
            tp_sched::panic_message(payload.as_ref()).to_string()
        })
    }

    /// Merge one proof's task outputs (in submission order) into a
    /// [`ProofReport`] identical to the sequential `prove`: same
    /// verdicts, same violation order, same first witness, same step
    /// count, same transparency certificate.
    ///
    /// When a digest-first model's fingerprints disagree, the merge
    /// re-runs the offending pair with recording sinks to extract the
    /// witness — the only trace materialisation a digest-first proof
    /// ever performs.
    ///
    /// Alongside the report, returns each run's
    /// `(secret, lo_len, monitored_digest)` observation fingerprint in
    /// model-major order — the evidence the proof cache stores and
    /// re-validates on every hit.
    fn merge(
        self,
        models: &[TimeModel],
        mode: ProofMode,
        outputs: Vec<TaskOutput>,
    ) -> (ProofReport, Fingerprints) {
        let PlannedProof {
            aisa,
            secrets,
            runs,
            ..
        } = self;
        let mut it = outputs.into_iter();
        let cert_replay = match mode {
            ProofMode::Certified | ProofMode::CertifiedRecording => match it.next() {
                Some(TaskOutput::Cert(d)) => Some(d),
                _ => panic!("certification replay must lead a certified proof stream"),
            },
            ProofMode::ReplayCheck => None,
        };
        let mut p = ObligationResult::new("P");
        let mut f = ObligationResult::new("F");
        let mut t = ObligationResult::new("T");
        let mut ni = Vec::with_capacity(models.len());
        let mut steps = 0;
        let mut transparency: Option<TransparencyCert> = None;
        let mut fps = Vec::with_capacity(models.len() * secrets.len());
        for (mi, model) in models.iter().enumerate() {
            let mut traces: Vec<(u64, Vec<ObsEvent>)> = Vec::new();
            let mut digests: Vec<(u64, usize, u64)> = Vec::new();
            for &s in &secrets {
                let shard = match it.next() {
                    Some(TaskOutput::Run(s)) => *s,
                    _ => panic!("one monitored shard per (model, secret)"),
                };
                fps.push((s, shard.lo_len, shard.monitored_digest));
                p.merge(shard.p);
                f.merge(shard.f);
                t.merge(shard.t);
                steps += shard.steps;
                if transparency.is_none() {
                    transparency = Some(TransparencyCert {
                        monitored_digest: shard.monitored_digest,
                        replay_digest: cert_replay
                            .or(shard.replay_digest)
                            .expect("certified or replay-check digest for the first shard"),
                        switch_digest: shard.switch_digest,
                    });
                }
                match shard.trace {
                    Some(trace) => traces.push((s, trace)),
                    None => digests.push((s, shard.lo_len, shard.monitored_digest)),
                }
            }
            let verdict = if digests.is_empty() {
                compare_secret_runs(&traces)
            } else {
                compare_secret_digests(&digests).unwrap_or_else(|b| {
                    // Fingerprint divergence: lockstep re-run of the
                    // baseline and the offending secret with recording
                    // sinks, stopped at the first diverging event. Sinks
                    // (and the read-only monitors, per the transparency
                    // certification) cannot influence execution, so the
                    // extracted witness is exactly what the digest runs
                    // observed.
                    let model_runs = &runs[mi * secrets.len()..(mi + 1) * secrets.len()];
                    model_runs[0].lockstep_leak(&model_runs[b], secrets[0], secrets[b])
                })
            };
            ni.push(ModelVerdict {
                model: *model,
                verdict,
            });
        }
        (
            ProofReport {
                aisa,
                p,
                f,
                t,
                ni,
                steps,
                transparency,
            },
            fps,
        )
    }
}

/// The telemetry counter a cache validation-gauntlet rejection reports
/// under — one distinct counter per [`RejectReason`], so a sweep's
/// metrics say *why* entries were thrown out, not just how many.
fn reject_counter(r: crate::cache::RejectReason) -> Counter {
    use crate::cache::RejectReason as R;
    match r {
        R::SaltMismatch => Counter::CacheRejectSalt,
        R::KeyMismatch => Counter::CacheRejectKey,
        R::CellMismatch => Counter::CacheRejectCell,
        R::ChecksumMismatch => Counter::CacheRejectChecksum,
        R::FingerprintShape => Counter::CacheRejectFpShape,
        R::VerdictMismatch => Counter::CacheRejectVerdict,
        R::CertMismatch => Counter::CacheRejectCert,
    }
}

/// [`crate::proof::prove`], sharded over the (time-model × secret)
/// product on the process-wide [`tp_sched::global`] pool, in certified
/// single-run mode ([`ProofMode::Certified`]).
///
/// The resulting [`ProofReport`] is bit-identical to
/// `prove(scenario, models)` regardless of worker count or scheduling.
pub fn prove_parallel(scenario: &NiScenario, models: &[TimeModel]) -> ProofReport {
    prove_parallel_on(tp_sched::global(), scenario, models, ProofMode::Certified)
}

/// [`prove_parallel`] on an explicit pool under an explicit
/// [`ProofMode`] — [`ProofMode::ReplayCheck`] is the `--replay-check`
/// audit path that re-enables the paranoid double-run. Planned,
/// submitted and merged exactly like one [`ScenarioMatrix::sweep`]
/// cell; a panicking shard re-panics here with its message.
pub fn prove_parallel_on(
    pool: &WorkerPool,
    scenario: &NiScenario,
    models: &[TimeModel],
    mode: ProofMode,
) -> ProofReport {
    let mut tasks = Vec::new();
    let proof = plan_proof(scenario, models, mode, 0, &mut Vec::new(), &mut tasks);
    let mut stream = submit(pool, tasks, mode);
    match proof.collect(models, mode, &mut stream) {
        Ok((report, _)) => report,
        Err(msg) => panic!("{msg}"),
    }
}

// ---------------------------------------------------------------------
// Exhaustive sharding
// ---------------------------------------------------------------------

/// Indices per work claim: small enough to balance, large enough to
/// keep scheduling traffic negligible next to a full system run.
const EXH_BLOCK: usize = 8;

thread_local! {
    /// Per-worker scratch trace for recording-mode scans: one buffer
    /// per thread for the whole sweep instead of an allocation per
    /// enumerated word.
    static EXH_SCRATCH: RefCell<Vec<ObsEvent>> = const { RefCell::new(Vec::new()) };
}

/// The shared baseline an exhaustive scan compares against: always the
/// `(len, digest)` fingerprint, plus the recorded trace in recording
/// mode.
struct ExhBaseline {
    fingerprint: (usize, u64),
    trace: Option<Vec<ObsEvent>>,
}

impl ExhBaseline {
    fn new(runner: &ExhaustiveRunner, mode: ExhaustiveMode) -> Self {
        match mode {
            ExhaustiveMode::DigestFirst => ExhBaseline {
                fingerprint: runner.run_digest(&[]),
                trace: None,
            },
            ExhaustiveMode::Recording => {
                let trace = runner.run(&[]);
                ExhBaseline {
                    fingerprint: (trace.len(), crate::noninterference::obs_digest(&trace)),
                    trace: Some(trace),
                }
            }
        }
    }
}

/// Scan one contiguous index block for leaks against `baseline`,
/// pruning past any already-known lower-index leak in `best`. A leak
/// comes back as its program index and full verdict.
/// Digest-first scans compare fingerprints and only materialise traces
/// for a hit; recording scans replay every word into the per-worker
/// scratch buffer.
fn scan_exhaustive_block(
    runner: &ExhaustiveRunner,
    alphabet: &[Instr],
    max_len: usize,
    baseline: &ExhBaseline,
    best: &AtomicUsize,
    start: usize,
    end: usize,
) -> Option<(usize, ExhaustiveVerdict)> {
    // One word buffer for the whole block: the scan only materialises an
    // owned copy on the rare leak-candidate path.
    let mut word = Vec::new();
    let mut found = None;
    let mut scanned = 0u64;
    for index in start..=end {
        if index > best.load(Ordering::Relaxed) {
            break;
        }
        scanned += 1;
        assert!(
            word_for_index_into(alphabet, max_len, index, &mut word),
            "index is within the enumerated space"
        );
        let leak = match &baseline.trace {
            // A digest-first hit re-runs baseline and witness recorded.
            None => (runner.run_digest(&word) != baseline.fingerprint)
                .then(|| recorded_leak(runner, index, word.clone())),
            Some(base) => EXH_SCRATCH.with(|scratch| {
                let buf = &mut *scratch.borrow_mut();
                runner.run_recorded_into(&word, buf);
                first_divergence(base, buf).map(|div| ExhaustiveVerdict::Leak {
                    program_index: index,
                    witness: word.clone(),
                    divergence: div,
                    baseline_event: base.get(div).copied(),
                    witness_event: buf.get(div).copied(),
                })
            }),
        };
        if let Some(v) = leak {
            best.fetch_min(index, Ordering::Relaxed);
            found = Some((index, v));
            break;
        }
    }
    // Per-block, not per-word: telemetry stays off the enumeration's
    // inner loop.
    tp_telemetry::count_n(Counter::ExhPrograms, scanned);
    found
}

/// [`crate::exhaustive::check_exhaustive`], sharded by index blocks on
/// the process-wide [`tp_sched::global`] pool — digest-first: each
/// Hi-word runs trace-free against the cached baseline fingerprint.
///
/// Workers record every leak they find; the verdict is the candidate
/// with the lowest program index. Because the sequential checker stops
/// at the first (= lowest-index) leak, the two drivers return the same
/// witness. A shared lowest-leak bound prunes work at higher indices,
/// and all shards run systems stamped from one [`ExhaustiveRunner`]
/// template instead of paying full construction per program.
pub fn check_exhaustive_parallel(cfg: &ExhaustiveConfig) -> ExhaustiveVerdict {
    check_exhaustive_parallel_on(tp_sched::global(), cfg, ExhaustiveMode::DigestFirst)
}

/// [`check_exhaustive_parallel`] on an explicit pool under an explicit
/// [`ExhaustiveMode`] — [`ExhaustiveMode::Recording`] is the fully
/// materialised equivalence oracle.
pub fn check_exhaustive_parallel_on(
    pool: &WorkerPool,
    cfg: &ExhaustiveConfig,
    mode: ExhaustiveMode,
) -> ExhaustiveVerdict {
    let runner = Arc::new(ExhaustiveRunner::new(cfg));
    let baseline = Arc::new(ExhBaseline::new(&runner, mode));
    let total = space_size(cfg.alphabet.len(), cfg.max_len);
    let alphabet = Arc::new(cfg.alphabet.clone());
    let max_len = cfg.max_len;
    let best = Arc::new(AtomicUsize::new(usize::MAX));

    let blocks: Vec<usize> = (1..=total).step_by(EXH_BLOCK).collect();
    let found = pool.map(blocks, move |_, start| {
        let end = (start + EXH_BLOCK - 1).min(total);
        scan_exhaustive_block(&runner, &alphabet, max_len, &baseline, &best, start, end)
    });
    found
        .into_iter()
        .flatten()
        .min_by_key(|(index, _)| *index)
        .map_or(
            ExhaustiveVerdict::Pass {
                programs: total + 1,
            },
            |(_, leak)| leak,
        )
}

// ---------------------------------------------------------------------
// Scenario matrix
// ---------------------------------------------------------------------

/// One point of the sweep: a machine configuration paired with a
/// time-protection setting (full, or full-minus-one-mechanism).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Label of the machine configuration this cell runs on.
    pub machine: String,
    /// The machine configuration.
    pub mcfg: MachineConfig,
    /// The mechanism disabled in this cell (`None` = full protection).
    pub disable: Option<Mechanism>,
    /// The resulting protection setting.
    pub tp: TimeProtConfig,
}

impl MatrixCell {
    /// Human-readable cell label, e.g. `"llc-512x1 / -Padding"`.
    pub fn label(&self) -> String {
        match self.disable {
            Some(m) => format!("{} / -{m:?}", self.machine),
            None => format!("{} / full", self.machine),
        }
    }
}

/// Builder for a family of proof scenarios: the cross product of
/// machine configurations (cache geometry, core counts), mechanism
/// ablations and time models, flattened into one
/// (cell × model × secret) task list and proved in a single
/// [`ScenarioMatrix::run`] submission on the worker pool.
pub struct ScenarioMatrix {
    machines: Vec<(String, MachineConfig)>,
    ablations: Vec<Option<Mechanism>>,
    models: Vec<TimeModel>,
    mode: ProofMode,
}

impl ScenarioMatrix {
    /// A matrix holding just `base` under full protection and the
    /// default time-model family, in certified single-run mode.
    pub fn new(label: impl Into<String>, base: MachineConfig) -> Self {
        ScenarioMatrix {
            machines: vec![(label.into(), base)],
            ablations: vec![None],
            models: crate::proof::default_time_models(),
            mode: ProofMode::Certified,
        }
    }

    /// Prove every cell under an explicit [`ProofMode`] —
    /// [`ProofMode::ReplayCheck`] is the `--replay-check` audit path;
    /// [`ProofMode::CertifiedRecording`] is how the equivalence and
    /// perf harnesses force the pre-digest-first behaviour.
    pub fn with_mode(mut self, mode: ProofMode) -> Self {
        self.mode = mode;
        self
    }

    /// The [`ProofMode`] every cell is proved under.
    pub fn mode(&self) -> ProofMode {
        self.mode
    }

    /// The first (base) machine configuration.
    fn base(&self) -> &MachineConfig {
        &self.machines[0].1
    }

    /// Add one named machine configuration.
    pub fn add_machine(mut self, label: impl Into<String>, mcfg: MachineConfig) -> Self {
        self.machines.push((label.into(), mcfg));
        self
    }

    /// Add variants of the base machine with the given LLC geometries
    /// (`(sets, ways)`). Sets must stay ≥ 256 when two coloured domains
    /// plus the kernel need distinct page colours (colours = sets / 64).
    pub fn sweep_llc(mut self, geometries: &[(usize, usize)]) -> Self {
        for &(sets, ways) in geometries {
            let mut mcfg = self.base().clone();
            if let Some(llc) = &mut mcfg.llc {
                llc.sets = sets;
                llc.ways = ways;
            } else {
                mcfg.llc = Some(CacheConfig {
                    sets,
                    ways,
                    ..CacheConfig::llc()
                });
            }
            self.machines.push((format!("llc-{sets}x{ways}"), mcfg));
        }
        self
    }

    /// Add variants of the base machine with the given core counts.
    pub fn sweep_cores(mut self, counts: &[usize]) -> Self {
        for &cores in counts {
            let mut mcfg = self.base().clone();
            mcfg.cores = cores;
            self.machines.push((format!("cores-{cores}"), mcfg));
        }
        self
    }

    /// Prove every cell twice over: once fully protected and once per
    /// single-mechanism ablation (the E11 sweep).
    pub fn sweep_ablations(mut self) -> Self {
        self.ablations = std::iter::once(None)
            .chain(Mechanism::ALL.into_iter().map(Some))
            .collect();
        self
    }

    /// Restrict the ablations to the given set (`None` = full).
    pub fn with_ablations(mut self, ablations: Vec<Option<Mechanism>>) -> Self {
        assert!(!ablations.is_empty(), "need at least one ablation setting");
        self.ablations = ablations;
        self
    }

    /// Replace the time-model family.
    pub fn with_models(mut self, models: Vec<TimeModel>) -> Self {
        assert!(!models.is_empty(), "need at least one time model");
        self.models = models;
        self
    }

    /// The time models every cell is proved under.
    pub fn models(&self) -> &[TimeModel] {
        &self.models
    }

    /// Materialise the cross product, machines outer, ablations inner.
    pub fn cells(&self) -> Vec<MatrixCell> {
        (0..self.machines.len() * self.ablations.len())
            .map(|ci| self.cell(ci))
            .collect()
    }

    /// Cell `ci` of [`ScenarioMatrix::cells`], built alone.
    ///
    /// # Panics
    /// Panics if `ci` is out of range.
    pub fn cell(&self, ci: usize) -> MatrixCell {
        let (label, mcfg) = &self.machines[ci / self.ablations.len()];
        let disable = self.ablations[ci % self.ablations.len()];
        MatrixCell {
            machine: label.clone(),
            mcfg: mcfg.clone(),
            disable,
            tp: match disable {
                Some(m) => TimeProtConfig::full_without(m),
                None => TimeProtConfig::full(),
            },
        }
    }

    /// Check every cell constructs cleanly: `check_conformance` runs on
    /// the machine and `System::new` accepts the kernel configuration
    /// (with the cell's machine and protection applied, exactly as
    /// [`ScenarioMatrix::run`] would) for every secret. Returns the
    /// number of (cell, secret) systems validated, or the first failing
    /// cell's label and error.
    pub fn validate<F>(&self, make_scenario: F) -> Result<usize, String>
    where
        F: Fn(&MatrixCell) -> NiScenario,
    {
        let mut validated = 0;
        for cell in self.cells() {
            let _ = check_conformance(&cell.mcfg);
            let scenario = apply_cell(make_scenario(&cell), &cell);
            for &s in &scenario.secrets {
                let kcfg = (scenario.make_kcfg)(s);
                System::new(scenario.mcfg.clone(), kcfg)
                    .map_err(|e| format!("{}: secret {s}: {e:?}", cell.label()))?;
                validated += 1;
            }
        }
        Ok(validated)
    }

    /// Prove every cell on the process-wide [`tp_sched::global`] pool:
    /// [`ScenarioMatrix::sweep`] over all cells, uncached. A failed cell
    /// panics here with its index and message — callers that must
    /// survive a fault call `sweep` and handle its outcomes.
    pub fn run<F>(&self, make_scenario: F) -> MatrixReport
    where
        F: Fn(&MatrixCell) -> NiScenario,
    {
        let all: Vec<usize> = (0..self.cells().len()).collect();
        let (outcomes, _) = self.sweep(tp_sched::global(), &all, None, make_scenario, |_, _, _| {});
        match proved_cells(outcomes) {
            Ok(cells) => MatrixReport::from(cells),
            Err(failed) => panic!("matrix cell {} failed: {}", failed[0].0, failed[0].1),
        }
    }

    /// The sweep driver: prove the cells at `indices` (positions in
    /// [`ScenarioMatrix::cells`] order), flattened into one task-list
    /// submission on `pool`, and hand each cell's outcome to `on_cell`
    /// in `indices` order as soon as the cell's task outputs have
    /// arrived. Returns every `(global index, cell, outcome)` plus the
    /// cache statistics. [`ScenarioMatrix::sweep_keyed`] with no known
    /// keys, keeping every outcome; see it for the parameters.
    pub fn sweep<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        cache: Option<&mut ProofCache>,
        make_scenario: F,
        mut on_cell: C,
    ) -> (CellOutcomes, CacheStats)
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, &Result<ProofReport, String>),
    {
        let mut out = Vec::with_capacity(indices.len());
        let stats = self.sweep_keyed(
            pool,
            indices,
            &[],
            cache,
            make_scenario,
            |ci, cell, outcome| {
                let result = match outcome {
                    CellOutcome::Live(result) => result,
                    CellOutcome::Hit { report, .. } => Ok(report.clone()),
                };
                on_cell(ci, cell, &result);
                out.push((ci, cell.clone(), result));
            },
        );
        (out, stats)
    }

    /// The cache address ([`crate::cache::cell_key`] and the secrets) a
    /// sweep of this matrix derives for `cell` when `make_scenario`
    /// builds its base scenario, or `None` when the cell is uncacheable.
    pub fn cell_key<F>(&self, cell: &MatrixCell, make_scenario: F) -> Option<CellKey>
    where
        F: Fn(&MatrixCell) -> NiScenario,
    {
        let scenario = apply_cell(make_scenario(cell), cell);
        cell_key(cell, &self.models, &scenario, self.mode).map(|key| CellKey {
            key,
            secrets: scenario.secrets.into(),
        })
    }

    /// The sweep driver behind [`ScenarioMatrix::sweep`], for callers
    /// that already hold some cells' content keys.
    ///
    /// `make_scenario` builds the base scenario; the engine then
    /// overrides the scenario's machine with `cell.mcfg` **and** the
    /// kernel configuration's protection with `cell.tp`, so both halves
    /// of the sweep always apply — a callback that ignores the cell
    /// cannot hollow out the ablations.
    ///
    /// * `keys`: empty, or one slot per entry of `indices`. `Some(k)`
    ///   must be exactly what [`ScenarioMatrix::cell_key`] returns for
    ///   that cell under this `make_scenario` — a caller that memoises
    ///   keys may only do so for inputs fixed for the memo's lifetime.
    ///   A known key answers a hit without building the cell's
    ///   scenario. `None` (and every cell when `keys` is empty) derives
    ///   the key here, as an uncacheable cell always does.
    /// * `cache`: each cell's content key is looked up first, and a
    ///   **validated** hit replays the stored report without running
    ///   anything; freshly proved cacheable cells are inserted back. A
    ///   hit's report equals the live one whenever the key matches, and
    ///   a hit that fails validation degrades to a live re-prove — a bad
    ///   cache can cost time, never change output. A cache opened on its
    ///   file ([`ProofCache::open`]) appends each insert there as the
    ///   cell completes, in `indices` order, so a killed sweep resumes
    ///   from what it had proved. `None` proves every cell live and
    ///   counts no cache telemetry.
    /// * `on_cell`: handed each cell's [`CellOutcome`]: a live result to
    ///   keep, or a hit's stored report and canonical bytes, lent from
    ///   the cache, so a caller can splice the bytes instead of
    ///   rendering the report again. The sweep keeps no outcome itself.
    ///
    /// A cell whose tasks or merge panic yields `Err(panic message)` in
    /// its slot instead of unwinding into the caller; the remaining
    /// cells still complete, stream and populate the cache, and the
    /// failed cell is not cached.
    ///
    /// This is also the multi-process sharding primitive: a `matrix
    /// --worker` process proves its slice and serialises the outcomes
    /// ([`crate::wire`]); the merge step reassembles the full report,
    /// identical to a single-process run. Out-of-range indices panic —
    /// shards derive from the same matrix constructor on every host, so
    /// a mismatch is a driver bug.
    pub fn sweep_keyed<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        keys: &[Option<CellKey>],
        mut cache: Option<&mut ProofCache>,
        make_scenario: F,
        mut on_cell: C,
    ) -> CacheStats
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, CellOutcome<'_>),
    {
        enum Plan {
            Hit(Arc<CacheEntry>, Arc<str>),
            Miss(Option<u64>, PlannedProof),
        }
        assert!(
            keys.is_empty() || keys.len() == indices.len(),
            "one known-key slot per swept cell"
        );
        let mode = self.mode;
        let mut stats = CacheStats::default();
        let mut tasks = Vec::new();
        let mut flush_refs = Vec::new();
        let mut plans = Vec::with_capacity(indices.len());
        for (pos, &ci) in indices.iter().enumerate() {
            let cell = self.cell(ci);
            let mut scenario = None;
            // Keys are derived only when a cache uses them, and only
            // when the caller does not already hold one.
            let mut key = None;
            if let Some(c) = cache.as_deref_mut() {
                let address = match keys.get(pos).and_then(Option::as_ref) {
                    Some(known) => Some((known.key, &known.secrets[..])),
                    None => {
                        let sc = scenario.insert(apply_cell(make_scenario(&cell), &cell));
                        cell_key(&cell, &self.models, sc, mode).map(|k| (k, &sc.secrets[..]))
                    }
                };
                key = address.map(|(k, _)| k);
                match address.map(|(k, secrets)| c.lookup_hit(k, &cell, &self.models, secrets)) {
                    Some(Ok(hit)) => {
                        stats.hits += 1;
                        tp_telemetry::count(Counter::CacheHits);
                        let plan = Plan::Hit(Arc::clone(hit.entry), Arc::clone(hit.body));
                        plans.push((ci, cell, plan));
                        continue;
                    }
                    Some(Err(CacheMiss::Absent)) => {
                        stats.misses += 1;
                        tp_telemetry::count(Counter::CacheMisses);
                    }
                    Some(Err(CacheMiss::Rejected(r))) => {
                        stats.rejected += 1;
                        tp_telemetry::count(reject_counter(r));
                    }
                    None => {
                        stats.uncacheable += 1;
                        tp_telemetry::count(Counter::CacheUncacheable);
                    }
                }
            }
            let scenario = scenario.unwrap_or_else(|| apply_cell(make_scenario(&cell), &cell));
            let proof = plan_proof(
                &scenario,
                &self.models,
                mode,
                ci,
                &mut flush_refs,
                &mut tasks,
            );
            plans.push((ci, cell, Plan::Miss(key, proof)));
        }

        let mut stream = submit(pool, tasks, mode);
        let mut plans = plans.into_iter().peekable();
        while let Some((ci, cell, plan)) = plans.next() {
            let outcome = match plan {
                Plan::Hit(entry, body) => {
                    let next_is_hit = matches!(plans.peek(), Some((_, _, Plan::Hit(..))));
                    on_cell(
                        ci,
                        &cell,
                        CellOutcome::Hit {
                            report: &entry.report,
                            body: &body,
                            next_is_hit,
                        },
                    );
                    continue;
                }
                Plan::Miss(key, proof) => {
                    proof
                        .collect(&self.models, mode, &mut stream)
                        .map(|(report, fps)| {
                            if let (Some(k), Some(c)) = (key, cache.as_deref_mut()) {
                                c.insert(k, cell.clone(), report.clone(), fps);
                            }
                            report
                        })
                }
            };
            on_cell(ci, &cell, CellOutcome::Live(outcome));
        }
        stats
    }
}

/// Specialise a base scenario to one matrix cell: the cell's machine
/// replaces the scenario's, and the cell's protection setting is forced
/// into every kernel configuration the scenario builds.
fn apply_cell(mut scenario: NiScenario, cell: &MatrixCell) -> NiScenario {
    scenario.mcfg = cell.mcfg.clone();
    let tp = cell.tp;
    let inner = scenario.make_kcfg;
    scenario.make_kcfg = Box::new(move |secret| {
        let mut kcfg = inner(secret);
        kcfg.tp = tp;
        kcfg
    });
    scenario
}

/// A cell's cache address as a sweep derives it
/// ([`ScenarioMatrix::cell_key`]): the content key, and the secrets the
/// cell proves under, which a hit's fingerprint table must list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// The content key ([`crate::cache::cell_key`]).
    pub key: u64,
    /// The cell's scenario's secrets, in order.
    pub secrets: Arc<[u64]>,
}

/// A cell's outcome, as [`ScenarioMatrix::sweep_keyed`] hands it to
/// `on_cell`.
// Moved once per cell; boxing the live report would allocate per cell.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CellOutcome<'a> {
    /// Proved (or failed with its panic message) live in this sweep.
    Live(Result<ProofReport, String>),
    /// A validated cache hit, lent from the cache.
    Hit {
        /// The stored report.
        report: &'a ProofReport,
        /// The entry's stored canonical bytes ([`crate::cache::Hit::body`]).
        body: &'a str,
        /// Whether the next cell `on_cell` sees is a hit too, so it
        /// follows with no proof to wait for: a caller can gather a
        /// run of hits and send it when this is `false`.
        next_is_hit: bool,
    },
}

/// The per-cell results of a [`ScenarioMatrix::sweep`]: each selected
/// cell's global index and either its proved report or the panic
/// message of the task that took it down.
pub type CellOutcomes = Vec<(usize, MatrixCell, Result<ProofReport, String>)>;

/// One proved sweep cell: its global index, coordinates and report.
pub type ProvedCell = (usize, MatrixCell, ProofReport);

/// Split a sweep's outcomes: every cell's report in sweep order, or —
/// if any cell failed — each failed cell's `(index, panic message)`.
pub fn proved_cells(outcomes: CellOutcomes) -> Result<Vec<ProvedCell>, Vec<(usize, String)>> {
    let mut proved = Vec::with_capacity(outcomes.len());
    let mut failed = Vec::new();
    for (i, cell, outcome) in outcomes {
        match outcome {
            Ok(report) => proved.push((i, cell, report)),
            Err(msg) => failed.push((i, msg)),
        }
    }
    if failed.is_empty() {
        Ok(proved)
    } else {
        Err(failed)
    }
}

/// The outcome of a [`ScenarioMatrix::run`]: one [`ProofReport`] per
/// cell, in cell order.
#[derive(Debug, PartialEq)]
pub struct MatrixReport {
    /// Every cell with its proof report.
    pub cells: Vec<(MatrixCell, ProofReport)>,
}

impl From<Vec<ProvedCell>> for MatrixReport {
    fn from(cells: Vec<ProvedCell>) -> Self {
        MatrixReport {
            cells: cells.into_iter().map(|(_, c, r)| (c, r)).collect(),
        }
    }
}

impl MatrixReport {
    /// Cells whose proof succeeded.
    pub fn proved(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, r)| r.time_protection_proved())
            .count()
    }

    /// Whether every fully-protected cell proved time protection.
    pub fn full_protection_proved(&self) -> bool {
        self.cells
            .iter()
            .filter(|(c, _)| c.disable.is_none())
            .all(|(_, r)| r.time_protection_proved())
    }

    /// The ablation cells that (correctly) failed the proof, as
    /// (cell, report) pairs — each carries a concrete leak witness.
    pub fn leaking_ablations(&self) -> Vec<&(MatrixCell, ProofReport)> {
        self.cells
            .iter()
            .filter(|(c, r)| c.disable.is_some() && !r.time_protection_proved())
            .collect()
    }
}

impl core::fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "=== Scenario matrix: {} cells, {} proved ===",
            self.cells.len(),
            self.proved()
        )?;
        for (cell, report) in &self.cells {
            writeln!(
                f,
                "  {:<28} {}  ({} steps)",
                cell.label(),
                if report.time_protection_proved() {
                    "PROVED"
                } else {
                    "NOT proved"
                },
                report.steps
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_cells_cross_product() {
        let m = ScenarioMatrix::new("base", MachineConfig::tiny())
            .sweep_llc(&[(256, 1), (512, 2)])
            .sweep_ablations();
        assert_eq!(m.cells().len(), 3 * 7, "3 machines × (full + 6 ablations)");
        let labels: Vec<String> = m.cells().iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"llc-512x2 / -Padding".to_string()));
        assert!(labels.contains(&"base / full".to_string()));
    }

    /// One reference per distinct core: machines that differ only in
    /// time model, LLC or core count share it; another L1 does not.
    #[test]
    fn a_submission_builds_one_flush_reference_per_distinct_core() {
        let m = ScenarioMatrix::new("base", MachineConfig::single_core())
            .sweep_llc(&[(256, 1), (512, 2)])
            .sweep_cores(&[2]);
        let mut known = Vec::new();
        let refs: Vec<Arc<FlushReference>> = m
            .cells()
            .iter()
            .map(|c| {
                let mut mcfg = c.mcfg.clone();
                mcfg.time_model = crate::proof::default_time_models()[1];
                flush_reference(&mut known, &mcfg)
            })
            .collect();
        assert_eq!(known.len(), 1);
        assert!(refs.iter().all(|r| Arc::ptr_eq(r, &known[0])));

        let mut other = MachineConfig::single_core();
        other.l1d.ways *= 2;
        let r = flush_reference(&mut known, &other);
        assert_eq!(known.len(), 2);
        assert!(!Arc::ptr_eq(&r, &known[0]));
        assert_eq!(r.digest, Core::new(CoreId(0), &other).microarch_digest());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    /// The engine must force `cell.tp` into the kernel configuration:
    /// even a callback that hardcodes full protection and ignores the
    /// cell gets leaking ablation cells.
    #[test]
    fn run_applies_cell_protection_despite_oblivious_callback() {
        use crate::noninterference::check_noninterference;
        use tp_kernel::config::{DomainSpec, KernelConfig};
        use tp_kernel::layout::data_addr;
        use tp_kernel::program::TraceProgram;

        let make = || NiScenario {
            mcfg: MachineConfig::single_core(),
            make_kcfg: Box::new(|secret| {
                let hi = TraceProgram::new(
                    (0..secret * 40)
                        .map(|i| Instr::Store(data_addr((i * 64) % (8 * 4096))))
                        .collect(),
                );
                let mut lo = Vec::new();
                for _ in 0..15 {
                    for i in 0..24 {
                        lo.push(Instr::Load(data_addr(i * 64)));
                    }
                    lo.push(Instr::ReadClock);
                }
                lo.push(Instr::Halt);
                KernelConfig::new(vec![
                    DomainSpec::new(Box::new(hi))
                        .with_slice(Cycles(15_000))
                        .with_pad(Cycles(25_000)),
                    DomainSpec::new(Box::new(TraceProgram::new(lo)))
                        .with_slice(Cycles(15_000))
                        .with_pad(Cycles(25_000)),
                ])
                // Hardcoded full protection: the cell must override it.
                .with_tp(TimeProtConfig::full())
            }),
            lo: DomainId(1),
            secrets: vec![0, 6],
            budget: Cycles(350_000),
            max_steps: 150_000,
        };

        let matrix = ScenarioMatrix::new("base", MachineConfig::single_core())
            .with_ablations(vec![None, Some(Mechanism::Padding)])
            .with_models(vec![MachineConfig::single_core().time_model]);
        let report = matrix.run(|_| make());
        let verdicts: Vec<_> = report
            .cells
            .iter()
            .map(|(cell, r)| (cell, &r.ni[0].verdict))
            .collect();
        assert_eq!(verdicts.len(), 2);
        assert!(
            verdicts[0].1.passed(),
            "full-protection cell must pass: {}",
            verdicts[0].1
        );
        for &(cell, v) in &verdicts[1..] {
            assert!(
                !v.passed(),
                "{}: ablation must leak even though the callback ignored the cell",
                cell.label()
            );
        }

        // And each cell's verdict equals the sequential checker run on
        // the equivalently-ablated scenario.
        for &(cell, v) in &verdicts {
            let mut sc = make();
            sc.make_kcfg = {
                let tp = cell.tp;
                let inner = make().make_kcfg;
                Box::new(move |s| {
                    let mut k = inner(s);
                    k.tp = tp;
                    k
                })
            };
            assert_eq!(v, &check_noninterference(&sc), "{}", cell.label());
        }
    }
}

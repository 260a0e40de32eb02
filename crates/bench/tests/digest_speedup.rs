//! Acceptance test for digest-first execution: on the E11 ablation
//! sweep, the trace-free default ([`ProofMode::Certified`]) must be
//! functionally bit-identical to the forced-recording single-run mode
//! ([`ProofMode::CertifiedRecording`]) — and do exactly the work it
//! claims.
//!
//! Digest-first drops the per-step trace but performs the same
//! monitored runs and the same certification replays. Without a trace
//! it cannot read a leak witness off the recorded runs, so it adds one
//! lockstep witness extraction per leaking (cell, time model) verdict,
//! where recording mode adds none. The work is counted from telemetry
//! spans, so the assertions are exact at any worker count and never
//! depend on wall-clock timing.
//!
//! The telemetry sink is process-global, so the test holds
//! [`TELEMETRY`] while it counts: a sibling test running concurrently
//! would otherwise add to the counts.

use std::sync::{Mutex, MutexGuard};

use tp_bench::{canonical_machine, canonical_scenario};
use tp_core::engine::{available_threads, proved_cells, ProofMode, ScenarioMatrix};
use tp_core::proof::default_time_models;
use tp_core::MatrixReport;
use tp_sched::WorkerPool;
use tp_telemetry::{SpanKind, TelemetrySink};

/// Serialises the tests that install a counting sink.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `prove`, `replay` and `lockstep` span counts of one sweep.
type Work = (u64, u64, u64);

/// The E11 sweep in `mode`, proved on `pool`, with the work it did.
fn e11(pool: &WorkerPool, mode: ProofMode) -> (MatrixReport, Work) {
    // Two time models keep the double sweep test-profile friendly.
    let matrix = ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(default_time_models()[..2].to_vec())
        .with_mode(mode);
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    tp_telemetry::install(TelemetrySink::counters());
    let (outcomes, _) = matrix.sweep(
        pool,
        &all,
        None,
        |c| canonical_scenario(c.disable),
        |_, _, _| {},
    );
    let snap = tp_telemetry::snapshot().expect("the counting sink snapshots");
    tp_telemetry::install(TelemetrySink::Null);
    let work = (
        snap.span(SpanKind::Prove).0,
        snap.span(SpanKind::Replay).0,
        snap.span(SpanKind::Lockstep).0,
    );
    let report = MatrixReport::from(proved_cells(outcomes).expect("every E11 cell proves"));
    (report, work)
}

#[test]
fn digest_first_work_counts_are_exact_on_the_e11_sweep() {
    let _guard = telemetry_lock();
    let pool = WorkerPool::new(available_threads().clamp(1, 4));

    // Functional gate: the digest-first sweep must reproduce the
    // recording sweep bit for bit — verdicts, witnesses, certificates,
    // rendered text.
    let (digest, digest_work) = e11(&pool, ProofMode::Certified);
    let (recording, recording_work) = e11(&pool, ProofMode::CertifiedRecording);
    assert_eq!(
        digest, recording,
        "digest-first and recording E11 sweeps must agree bit for bit"
    );
    assert_eq!(digest.to_string(), recording.to_string());
    for (cell, report) in &digest.cells {
        let cert = report.transparency.expect("every cell is certified");
        assert!(cert.transparent(), "{}: {cert}", cell.label());
    }

    // Work gate: the same monitored runs and certification replays;
    // lockstep runs exactly once per leaking verdict, and only without
    // a trace to read the witness from.
    let leaking = digest
        .cells
        .iter()
        .flat_map(|(_, report)| &report.ni)
        .filter(|v| !v.verdict.passed())
        .count() as u64;
    assert!(leaking > 0, "every E11 ablation leaks");
    let (prove, replay, lockstep) = digest_work;
    assert_eq!(
        (prove, replay),
        (recording_work.0, recording_work.1),
        "(prove, replay) spans: digest-first vs recording"
    );
    assert_eq!(
        (lockstep, recording_work.2),
        (leaking, 0),
        "lockstep spans (digest-first, recording): one per leaking verdict vs none"
    );
}

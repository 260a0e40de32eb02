//! Acceptance test for digest-first execution: on the E11 ablation
//! sweep, the engine's digest-first certified proof (swept on an
//! explicit pool) must be functionally bit-identical to the
//! recording reference — the sequential [`prove`], which keeps each
//! run's trace — and do exactly the work it claims.
//!
//! Digest-first records only Lo's log in each monitored run and
//! compares fingerprints; on a mismatch its merge reads the witness off
//! the pair's Lo logs inside one `lockstep` span per leaking (cell,
//! time model) verdict, where the recording reference reads every
//! witness off its traces without that span. The work is counted from
//! telemetry spans, so the assertions are exact at any worker count
//! and never depend on wall-clock timing.
//!
//! The telemetry sink is process-global, so the test holds
//! [`TELEMETRY`] while it counts: a sibling test running concurrently
//! would otherwise add to the counts.

use std::sync::{Mutex, MutexGuard};

use tp_bench::{canonical_machine, canonical_scenario};
use tp_core::engine::{available_threads, proved_cells, ScenarioMatrix};
use tp_core::proof::{default_time_models, prove};
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

/// Run `f` under a fresh counting sink and return its result with the
/// work it recorded.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Work) {
    tp_telemetry::install(TelemetrySink::counters());
    let out = f();
    let snap = tp_telemetry::snapshot().expect("the counting sink snapshots");
    tp_telemetry::install(TelemetrySink::Null);
    let work = (
        snap.span(SpanKind::Prove).0,
        snap.span(SpanKind::Replay).0,
        snap.span(SpanKind::Lockstep).0,
    );
    (out, work)
}

#[test]
fn digest_first_work_counts_are_exact_on_the_e11_sweep() {
    let _guard = telemetry_lock();
    let pool = WorkerPool::new(available_threads().clamp(1, 4));
    // Two time models keep the sweep test-profile friendly.
    let models = default_time_models()[..2].to_vec();
    let matrix = ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(models.clone());
    let all: Vec<usize> = (0..matrix.cells().len()).collect();

    let (digest, digest_work) = counted(|| {
        let (outcomes, _) = matrix.sweep(
            &pool,
            &all,
            None,
            |c| canonical_scenario(c.disable),
            |_, _, _| {},
        );
        MatrixReport::from(proved_cells(outcomes).expect("every E11 cell proves"))
    });
    // The recording reference, proved on each cell's scenario
    // specialised exactly as the engine specialises it.
    let (recording, recording_work) = counted(|| MatrixReport {
        cells: matrix
            .cells()
            .into_iter()
            .map(|cell| {
                let mut sc = canonical_scenario(cell.disable);
                sc.mcfg = cell.mcfg.clone();
                let report = prove(&sc, &models);
                (cell, report)
            })
            .collect(),
    });

    // Functional gate: the digest-first sweep must reproduce the
    // recording reference bit for bit — verdicts, witnesses,
    // certificates, rendered text.
    assert_eq!(
        digest, recording,
        "digest-first sweep and recording reference must agree bit for bit"
    );
    assert_eq!(digest.to_string(), recording.to_string());
    for (cell, report) in &digest.cells {
        let cert = report.transparency.expect("every cell is certified");
        assert!(cert.transparent(), "{}: {cert}", cell.label());
    }

    // Work gate: one monitored run per (cell, model, secret), one
    // certification replay per cell, and one witness extraction
    // (`lockstep` span) per leaking verdict, which the recording
    // reference does not count.
    let leaking = digest
        .cells
        .iter()
        .flat_map(|(_, report)| &report.ni)
        .filter(|v| !v.verdict.passed())
        .count() as u64;
    assert!(leaking > 0, "every E11 ablation leaks");
    assert_eq!(digest.cells.len(), 7);
    assert_eq!(
        digest_work,
        (42, 7, leaking),
        "digest-first (prove, replay, lockstep) spans: 42 monitored runs, \
         one certification replay per cell, one lockstep per leaking verdict"
    );
    assert_eq!(
        recording_work.2, 0,
        "the recording reference reads its witnesses off its traces"
    );
}

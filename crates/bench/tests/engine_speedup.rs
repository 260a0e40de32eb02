//! Acceptance tests for the engine's work shape: on the canonical
//! scenario `prove_parallel` returns the identical report to the
//! sequential `prove` while doing less work, split into independent
//! pool tasks; and on the E11 ablation sweep certified single-run mode
//! does exactly the work it claims — one replay per cell where
//! `--replay-check` does one per (model, secret). The work is counted
//! from telemetry, so the assertions are exact at any worker count and
//! never depend on wall-clock timing.
//!
//! The telemetry sink is process-global, so each test holds
//! [`TELEMETRY`] while it counts: a sibling test running concurrently
//! would otherwise add to the counts.

use tp_bench::{canonical_machine, canonical_scenario};
use tp_core::engine::{prove_parallel, ProofMode, ScenarioMatrix};
use tp_core::proof::{default_time_models, prove};
use tp_core::MatrixReport;
use tp_telemetry::{Counter, SpanKind, TelemetrySink};

use std::sync::{Mutex, MutexGuard};

/// Serialises the tests that install a counting sink.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// The E11 sweep (7 cells × 2 models × 3 secrets) in `mode`, with the
/// number of `prove` and `replay` spans it recorded.
fn counted_e11(mode: ProofMode) -> (MatrixReport, u64, u64) {
    let matrix = ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(default_time_models()[..2].to_vec())
        .with_mode(mode);
    tp_telemetry::install(TelemetrySink::counters());
    let report = matrix.run(|cell| canonical_scenario(cell.disable));
    let snap = tp_telemetry::snapshot().expect("the counting sink snapshots");
    tp_telemetry::install(TelemetrySink::Null);
    (
        report,
        snap.span(SpanKind::Prove).0,
        snap.span(SpanKind::Replay).0,
    )
}

#[test]
fn parallel_prove_matches_and_beats_sequential() {
    let _guard = telemetry_lock();
    let models = default_time_models();
    let scenario = canonical_scenario(None);
    let shards = (models.len() * scenario.secrets.len()) as u64;

    // Identical report, bit for bit.
    let sequential = prove(&scenario, &models);
    tp_telemetry::install(TelemetrySink::counters());
    let parallel = prove_parallel(&scenario, &models);
    let snap = tp_telemetry::snapshot().expect("the counting sink snapshots");
    tp_telemetry::install(TelemetrySink::Null);
    assert!(sequential.time_protection_proved(), "{sequential}");
    assert!(parallel.time_protection_proved(), "{parallel}");
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.to_string(), parallel.to_string());
    assert_eq!(sequential.steps, parallel.steps);

    // Less work: the sequential reference runs a monitored run and a
    // plain replay per (model, secret); the certified pooled proof runs
    // the monitored shards and a single certification replay.
    assert_eq!(
        (snap.span(SpanKind::Prove).0, snap.span(SpanKind::Replay).0),
        (shards, 1),
        "prove_parallel: one monitored run per (model, secret), one replay in total \
         (the sequential reference runs {shards} + {shards})"
    );

    // Independently schedulable: every shard and the replay is its own
    // pool task, so the proof spreads across every worker there is.
    assert_eq!(
        snap.counter(Counter::PoolSubmitted),
        shards + 1,
        "one pool task per monitored shard plus the certification replay"
    );
}

#[test]
fn certified_single_run_halves_replay_check_work_on_the_e11_sweep() {
    let _guard = telemetry_lock();
    // Both modes produce bit-identical reports, certificates included.
    let (certified, certified_prove, certified_replay) = counted_e11(ProofMode::Certified);
    let (audited, audited_prove, audited_replay) = counted_e11(ProofMode::ReplayCheck);
    assert_eq!(
        certified, audited,
        "certified and replay-check E11 sweeps must agree bit for bit"
    );
    assert_eq!(certified.to_string(), audited.to_string());
    for (cell, report) in &certified.cells {
        let cert = report.transparency.expect("every cell is certified");
        assert!(cert.transparent(), "{}: {cert}", cell.label());
    }

    // Exact work: one monitored run per (cell, model, secret) in both
    // modes; certified adds one replay per cell, replay-check one per
    // monitored run.
    assert_eq!(certified.cells.len(), 7);
    assert_eq!(
        (certified_prove, certified_replay),
        (42, 7),
        "certified: 42 monitored runs, one certification replay per cell"
    );
    assert_eq!(
        (audited_prove, audited_replay),
        (42, 42),
        "replay-check: a plain replay beside every monitored run"
    );
}

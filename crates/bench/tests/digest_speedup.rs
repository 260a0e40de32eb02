//! Acceptance test for digest-first execution: on the E11 ablation
//! sweep, the trace-free default ([`ProofMode::Certified`]) must be
//! functionally bit-identical to the forced-recording single-run mode
//! ([`ProofMode::CertifiedRecording`]) — and no slower in wall-clock.
//!
//! The timing assertion self-calibrates instead of hardcoding budgets: both modes run the
//! identical sweep on a multi-worker pool (so the merge thread's
//! divergence re-runs overlap the sweep tail, the shape digest-first is
//! designed for), best-of-N per attempt, with a noise margin and
//! retries. Hosts that cannot demonstrate parallel overlap (< 4
//! threads) skip the timing assertion with a note — the functional
//! equivalence gate always runs.

use tp_bench::{canonical_machine, canonical_scenario, time_iters};
use tp_core::engine::{available_threads, proved_cells, ProofMode, ScenarioMatrix};
use tp_core::proof::default_time_models;
use tp_core::MatrixReport;
use tp_sched::WorkerPool;

/// The E11 sweep in `mode`, proved on `pool`.
fn e11(pool: &WorkerPool, mode: ProofMode) -> MatrixReport {
    // Two time models keep the double sweep test-profile friendly.
    let matrix = ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(default_time_models()[..2].to_vec())
        .with_mode(mode);
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let (outcomes, _) = matrix.sweep(
        pool,
        &all,
        None,
        None,
        |c| canonical_scenario(c.disable),
        |_, _, _| {},
    );
    MatrixReport::from(proved_cells(outcomes).expect("every E11 cell proves"))
}

#[test]
fn digest_first_is_no_slower_than_recording_on_the_e11_sweep() {
    let threads = available_threads();
    let pool = WorkerPool::new(threads.clamp(1, 4));

    // Functional gate first: the digest-first sweep must reproduce the
    // recording sweep bit for bit — verdicts, witnesses, certificates,
    // rendered text — or timing it is meaningless.
    let digest = e11(&pool, ProofMode::Certified);
    let recording = e11(&pool, ProofMode::CertifiedRecording);
    assert_eq!(
        digest, recording,
        "digest-first and recording E11 sweeps must agree bit for bit"
    );
    assert_eq!(digest.to_string(), recording.to_string());
    for (cell, report) in &digest.cells {
        let cert = report.transparency.expect("every cell is certified");
        assert!(cert.transparent(), "{}: {cert}", cell.label());
    }

    if threads < 4 {
        eprintln!(
            "(host has {threads} thread(s); skipping the digest <= recording \
             wall-clock assertion)"
        );
        return;
    }

    // Digest-first does the same number of hot-path runs and strictly
    // less allocation; its divergence re-runs execute on the merge
    // thread while workers drive the sweep tail, so wall-clock must not
    // regress. The margin absorbs scheduler noise on shared runners; a
    // sustained overshoot across attempts is a real regression.
    let margin = 1.25;
    let mut ratios = Vec::new();
    for attempt in 0..3 {
        let t_digest = time_iters(3, || e11(&pool, ProofMode::Certified)).1;
        let t_recording = time_iters(3, || e11(&pool, ProofMode::CertifiedRecording)).1;
        let ratio = t_digest.as_secs_f64() / t_recording.as_secs_f64();
        eprintln!(
            "attempt {attempt}: digest-first {t_digest:?}, recording {t_recording:?} \
             (digest/recording = {ratio:.3})"
        );
        ratios.push(ratio);
        if ratio <= margin {
            return;
        }
    }
    panic!(
        "digest-first mode was slower than recording mode in every attempt \
         (digest/recording ratios {ratios:?}, allowed margin {margin}); \
         the trace-free hot path has regressed"
    );
}

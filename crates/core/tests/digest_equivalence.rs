//! The digest-first equivalence suite: the trace-free hot path must be
//! *observationally indistinguishable* from forced-recording execution
//! — same verdicts, same witnesses, same [`ProofReport`]s, bit for bit
//! — over randomised configurations and secrets. This is the licence
//! for comparing `(len, digest)` fingerprints in the hot loop and only
//! materialising traces on divergence.
//!
//! The broken-mechanism cases additionally prove the divergence
//! *re-run* reproduces the exact witness trace: the leak evidence a
//! digest-first checker reports replays event-for-event through
//! independent recording runs of the two offending secrets.

use proptest::prelude::*;

use tp_core::engine::{
    check_exhaustive_parallel_on, prove_parallel_on, proved_cells, ProofMode, ScenarioMatrix,
};
use tp_core::exhaustive::{check_exhaustive_mode, ExhaustiveConfig, ExhaustiveMode};
use tp_core::noninterference::{
    check_ni_parts, check_ni_parts_recording, check_noninterference, first_divergence, lo_trace,
    NiScenario, NiVerdict,
};
use tp_core::proof::default_time_models;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;

/// A seed-parameterised small scenario: the seed varies Hi's access
/// pattern, stride, slice geometry and the secret set, so each case
/// fingerprints a different execution.
fn seeded_scenario(seed: u64, tp: TimeProtConfig) -> NiScenario {
    let stride = 64 + (seed % 3) * 64;
    let span = 4 + seed % 5;
    let slice = 12_000 + (seed % 4) * 2_000;
    NiScenario {
        mcfg: MachineConfig::single_core(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * (16 + seed % 16))
                    .map(|i| Instr::Store(data_addr((i * stride) % (span * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..12 {
                for i in 0..24 {
                    lo.push(Instr::Load(data_addr(i * 64)));
                }
                lo.push(Instr::ReadClock);
            }
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_slice(Cycles(slice))
                    .with_pad(Cycles(25_000)),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_slice(Cycles(slice))
                    .with_pad(Cycles(25_000)),
            ])
            .with_tp(tp)
        }),
        lo: DomainId(1),
        secrets: vec![seed % 5, 2 + seed % 7, 9 + seed % 4],
        budget: Cycles(400_000),
        max_steps: 150_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Digest-first NI checking equals the fully recorded oracle on
    /// random scenarios — verdicts, and when leaking, the entire
    /// witness (secret pair, divergence index, events).
    #[test]
    fn ni_verdicts_are_bit_identical(seed in 0u64..400, tp_on in any::<bool>()) {
        let tp = if tp_on { TimeProtConfig::full() } else { TimeProtConfig::off() };
        let sc = seeded_scenario(seed, tp);
        let digest_first = check_ni_parts(
            &sc.mcfg, &*sc.make_kcfg, sc.lo, &sc.secrets, sc.budget, sc.max_steps,
        );
        let recorded = check_ni_parts_recording(
            &sc.mcfg, &*sc.make_kcfg, sc.lo, &sc.secrets, sc.budget, sc.max_steps,
        );
        prop_assert_eq!(digest_first, recorded, "seed {}", seed);
    }

    /// Digest-first certified proofs equal forced-recording certified
    /// proofs bit for bit — every report field, certificate included —
    /// on random scenarios, with and without a broken mechanism.
    #[test]
    fn proof_reports_are_bit_identical(seed in 0u64..200, ablate in any::<bool>()) {
        let tp = if ablate {
            TimeProtConfig::full_without(Mechanism::Padding)
        } else {
            TimeProtConfig::full()
        };
        let models = default_time_models()[..2].to_vec();
        let pool = WorkerPool::new(2);
        let digest = prove_parallel_on(
            &pool, &seeded_scenario(seed, tp), &models, ProofMode::Certified,
        );
        let recording = prove_parallel_on(
            &pool, &seeded_scenario(seed, tp), &models, ProofMode::CertifiedRecording,
        );
        prop_assert_eq!(&digest, &recording, "seed {}", seed);
        prop_assert_eq!(digest.to_string(), recording.to_string());
    }
}

/// The broken-mechanism case: a digest-first leak's evidence must
/// reproduce *exactly* when the offending pair is independently re-run
/// with recording sinks — the divergence re-run is a faithful witness
/// extractor, not a plausible reconstruction.
#[test]
fn divergence_rerun_reproduces_the_exact_witness_trace() {
    for m in [Mechanism::Padding, Mechanism::Flush] {
        let sc = seeded_scenario(7, TimeProtConfig::full_without(m));
        let verdict = check_noninterference(&sc);
        let NiVerdict::Leak {
            secret_a,
            secret_b,
            divergence,
            event_a,
            event_b,
        } = verdict
        else {
            panic!("disabling {m:?} must leak, got {verdict}");
        };
        // Independent recording replays of the two offending secrets.
        let trace_a = lo_trace(
            &sc.mcfg,
            &(sc.make_kcfg)(secret_a),
            sc.lo,
            sc.budget,
            sc.max_steps,
        );
        let trace_b = lo_trace(
            &sc.mcfg,
            &(sc.make_kcfg)(secret_b),
            sc.lo,
            sc.budget,
            sc.max_steps,
        );
        assert_eq!(
            first_divergence(&trace_a, &trace_b),
            Some(divergence),
            "{m:?}: replay must diverge exactly where the digest-first leak said"
        );
        assert_eq!(trace_a.get(divergence).copied(), event_a, "{m:?}");
        assert_eq!(trace_b.get(divergence).copied(), event_b, "{m:?}");
        assert_ne!(event_a, event_b, "{m:?}: witness events must differ");
    }
}

/// Exhaustive enumeration: digest-first and recording modes agree on
/// the sequential checker and on the pool, across protection settings
/// — including the exact lowest-index witness when a mechanism is
/// ablated.
#[test]
fn exhaustive_digest_and_recording_agree_on_every_path() {
    let pool = WorkerPool::new(2);
    for tp in [
        TimeProtConfig::full(),
        TimeProtConfig::off(),
        TimeProtConfig::full_without(Mechanism::Padding),
    ] {
        let cfg = ExhaustiveConfig {
            max_len: 2,
            ..ExhaustiveConfig::small(tp)
        };
        let digest_seq = check_exhaustive_mode(&cfg, ExhaustiveMode::DigestFirst);
        let rec_seq = check_exhaustive_mode(&cfg, ExhaustiveMode::Recording);
        assert_eq!(digest_seq, rec_seq, "{tp:?}: sequential modes disagree");
        let digest_pool = check_exhaustive_parallel_on(&pool, &cfg, ExhaustiveMode::DigestFirst);
        let rec_pool = check_exhaustive_parallel_on(&pool, &cfg, ExhaustiveMode::Recording);
        assert_eq!(digest_pool, rec_pool, "{tp:?}: pooled modes disagree");
        assert_eq!(digest_seq, digest_pool, "{tp:?}: sequential vs pooled");
    }
}

/// The matrix-level pin: an E11-shaped ablation sweep (most cells
/// leaking) proved digest-first equals the same sweep proved with
/// forced recording — the leak-heavy regime where every cell exercises
/// the divergence re-run path.
#[test]
fn ablation_matrix_reports_are_bit_identical_across_modes() {
    let models = default_time_models()[..1].to_vec();
    let matrix = |mode: ProofMode| {
        ScenarioMatrix::new("digest-eq", MachineConfig::single_core())
            .with_ablations(vec![None, Some(Mechanism::Padding), Some(Mechanism::Flush)])
            .with_models(models.clone())
            .with_mode(mode)
    };
    let pool = WorkerPool::new(2);
    let sweep = |matrix: ScenarioMatrix| {
        let all: Vec<usize> = (0..matrix.cells().len()).collect();
        let (outcomes, _) = matrix.sweep(
            &pool,
            &all,
            None,
            |_| seeded_scenario(3, TimeProtConfig::full()),
            |_, _, _| {},
        );
        tp_core::MatrixReport::from(proved_cells(outcomes).expect("every cell proves"))
    };
    let digest = sweep(matrix(ProofMode::Certified));
    let recording = sweep(matrix(ProofMode::CertifiedRecording));
    assert_eq!(digest, recording);
    assert_eq!(digest.to_string(), recording.to_string());
    assert!(
        digest
            .cells
            .iter()
            .any(|(c, r)| c.disable.is_some() && r.ni.iter().any(|mv| !mv.verdict.passed())),
        "the sweep must actually exercise the divergence re-run path"
    );

    // Wire records — what sharded sweeps ship between hosts — must be
    // byte-identical too, so digest-first and recording workers can be
    // mixed within one sharded sweep.
    let wire = |report: &tp_core::MatrixReport| {
        let mut out = String::new();
        for (i, (cell, r)) in report.cells.iter().enumerate() {
            tp_core::wire::write_cell(&mut out, i, cell, r);
        }
        out
    };
    assert_eq!(
        wire(&digest),
        wire(&recording),
        "wire records must not depend on the observation mode"
    );
}

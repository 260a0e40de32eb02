//! Determinism harness for the parallel proof engine: sharding the
//! (time-model × secret) product or the Hi-program enumeration across
//! worker threads must not change a single bit of the result. Each
//! scenario is checked two ways:
//!
//! * sequential (`prove` / `check_exhaustive`) — the reference: the
//!   paranoid *double-run*, one monitored run plus one plain replay per
//!   (model, secret), every run recorded and compared event by event;
//! * persistent `tp-sched` pools (`*_on`) — the production certified
//!   single-run path, digest-first, exercised at 1, 2 and 8 workers.
//!
//! Pinning the certified single-run reports equal to the sequential
//! double-run reports is the engine's licence to drop the second replay
//! per cell. Checked across 3 scenario seeds, bit for bit: same
//! verdicts, same violation order (hence first witness), same check
//! points, same step counts, same transparency certificate — and
//! therefore the same rendered reports.

use tp_core::engine::{
    check_exhaustive_parallel_on, prove_parallel_on, proved_cells, ProvedCell, ScenarioMatrix,
};
use tp_core::exhaustive::{check_exhaustive, ExhaustiveConfig};
use tp_core::noninterference::NiScenario;
use tp_core::proof::{default_time_models, prove, ProofReport};
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;

/// The worker counts every persistent-pool check runs at.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// A secret- and seed-parameterised scenario: the seed varies Hi's
/// access pattern and the secret set, so each seed exercises different
/// shard contents.
fn seeded_scenario(seed: u64, tp: TimeProtConfig) -> NiScenario {
    let stride = 64 + (seed % 3) * 64;
    let span = 8 + seed % 5;
    NiScenario {
        mcfg: MachineConfig::single_core(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * (24 + seed % 16))
                    .map(|i| Instr::Store(data_addr((i * stride) % (span * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..20 {
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
            .with_tp(tp)
        }),
        lo: DomainId(1),
        secrets: vec![seed % 4, 3 + seed % 3, 7 + seed % 5],
        budget: Cycles(500_000),
        max_steps: 200_000,
    }
}

/// Every cell of `matrix` proved on `pool` through the sweep driver,
/// uncached; the healthy scenarios here never fail a cell.
fn sweep_all(
    matrix: &ScenarioMatrix,
    pool: &WorkerPool,
    make_scenario: impl Fn(&tp_core::MatrixCell) -> NiScenario,
) -> Vec<ProvedCell> {
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let (outcomes, _) = matrix.sweep(pool, &all, None, make_scenario, |_, _, _| {});
    proved_cells(outcomes).expect("every cell proves")
}

/// Field-by-field comparison of two proof reports, with a labelled
/// panic message per field so a divergence names its shard.
fn assert_reports_identical(reference: &ProofReport, other: &ProofReport, label: &str) {
    assert_eq!(reference.p, other.p, "{label}: P");
    assert_eq!(reference.f, other.f, "{label}: F");
    assert_eq!(reference.t, other.t, "{label}: T");
    assert_eq!(reference.steps, other.steps, "{label}: steps");
    assert_eq!(
        reference.transparency, other.transparency,
        "{label}: transparency certificate"
    );
    assert_eq!(reference.ni.len(), other.ni.len(), "{label}: model count");
    for (s, p) in reference.ni.iter().zip(other.ni.iter()) {
        assert_eq!(s.model, p.model, "{label}");
        assert_eq!(
            s.verdict, p.verdict,
            "{label}: NI verdict under {:?}",
            s.model
        );
    }
    // The whole-struct and rendered comparisons close any gap the
    // field list might leave open.
    assert_eq!(reference, other, "{label}: full report");
    assert_eq!(
        reference.to_string(),
        other.to_string(),
        "{label}: rendered report"
    );
}

/// Sequential and persistent-pool proofs must agree on everything the
/// report exposes, at every worker count.
#[test]
fn prove_is_bit_identical_across_all_execution_paths() {
    let models = default_time_models();
    for seed in [1u64, 2, 3] {
        // Full protection for even work, one ablation so leak witnesses
        // (violations + NI divergences) are merged too.
        for tp in [
            TimeProtConfig::full(),
            TimeProtConfig::full_without(Mechanism::Padding),
        ] {
            let sequential = prove(&seeded_scenario(seed, tp), &models);
            if tp != TimeProtConfig::full() {
                // The ablation leaks, so the pooled lockstep witness
                // extraction is compared too.
                assert!(
                    sequential.ni.iter().any(|v| !v.verdict.passed()),
                    "seed {seed}: the Padding ablation must leak"
                );
            }
            for workers in POOL_SIZES {
                let pool = WorkerPool::new(workers);
                let pooled = prove_parallel_on(&pool, &seeded_scenario(seed, tp), &models);
                assert_reports_identical(
                    &sequential,
                    &pooled,
                    &format!("seed {seed} pool×{workers}"),
                );
            }
        }
    }
}

/// The matrix-level pin: a certified sweep must produce, cell by cell,
/// the sequential double-run prover's report (verdicts, certificates,
/// rendered text), at 1/2/8 workers, and every cell's transparency
/// certificate must hold.
#[test]
fn certified_sweeps_match_the_sequential_prover() {
    let models = default_time_models()[..2].to_vec();
    let matrix = ScenarioMatrix::new("det", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(models.clone());
    let scenario = |_: &tp_core::MatrixCell| seeded_scenario(2, TimeProtConfig::full());
    // The sequential reference, proved on each cell's specialised
    // scenario exactly as the engine specialises it.
    let reference: Vec<ProofReport> = matrix
        .cells()
        .iter()
        .map(|cell| {
            let mut sc = seeded_scenario(2, cell.tp);
            sc.mcfg = cell.mcfg.clone();
            prove(&sc, &models)
        })
        .collect();

    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);
        let report = tp_core::MatrixReport::from(sweep_all(&matrix, &pool, scenario));
        assert_eq!(report.cells.len(), reference.len());
        for ((cell, got), want) in report.cells.iter().zip(&reference) {
            assert_reports_identical(
                want,
                got,
                &format!("{} sequential vs pool×{workers}", cell.label()),
            );
            let cert = got
                .transparency
                .expect("every proved cell carries a certificate");
            assert!(cert.transparent(), "{}: {cert}", cell.label());
        }
    }
}

/// The cache-backed sweep pin: a cold run (cache empty), a warm run
/// (every cell hits, through a full save/load round-trip) and a mixed
/// run (cache populated for only some cells) must all produce reports
/// — and serialised wire records — bit-identical to the uncached
/// sweep, at 1, 2 and 8 workers. A cache can only ever change *how
/// much work* runs, never a byte of output.
#[test]
fn cold_warm_and_mixed_cache_runs_are_bit_identical() {
    use tp_core::cache::ProofCache;

    let models = default_time_models()[..2].to_vec();
    let matrix = ScenarioMatrix::new("det", MachineConfig::single_core())
        .add_machine("det-2c", MachineConfig::dual_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(models);
    let scenario =
        |seed| move |_: &tp_core::MatrixCell| seeded_scenario(seed, TimeProtConfig::full());
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let wire_of = |triples: &[ProvedCell]| {
        let mut out = String::new();
        for (i, cell, report) in triples {
            tp_core::wire::write_cell(&mut out, *i, cell, report);
        }
        out
    };
    let cached = |pool: &WorkerPool, cache: &mut ProofCache, indices: &[usize], seed| {
        let (outcomes, stats) =
            matrix.sweep(pool, indices, Some(cache), scenario(seed), |_, _, _| {});
        (proved_cells(outcomes).expect("every cell proves"), stats)
    };

    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);
        let reference = sweep_all(&matrix, &pool, scenario(2));
        let wire_reference = wire_of(&reference);

        // Cold: empty cache, everything proves live, cache fills.
        let mut cache = ProofCache::new();
        let (cold, stats) = cached(&pool, &mut cache, &all, 2);
        assert_eq!(stats.hits, 0, "cold run must not hit (pool×{workers})");
        assert_eq!(stats.reproved(), all.len());
        assert_eq!(cache.len(), all.len(), "every cell is cacheable here");
        assert_eq!(cold, reference, "cold run output (pool×{workers})");
        assert_eq!(wire_of(&cold), wire_reference);

        // Warm: round-trip the cache through its wire serialisation,
        // then every cell must hit and nothing must run.
        let mut warmed = ProofCache::load(&cache.save()).expect("cache round-trips");
        assert_eq!(warmed.len(), cache.len());
        let (warm, stats) = cached(&pool, &mut warmed, &all, 2);
        assert_eq!(
            stats.hits,
            all.len(),
            "warm run must hit every cell (pool×{workers})"
        );
        assert_eq!(stats.reproved(), 0);
        assert_eq!(warm, reference, "warm run output (pool×{workers})");
        assert_eq!(wire_of(&warm), wire_reference);

        // Mixed: cache knows only a prefix of the cells; the rest
        // proves live around the hits without disturbing order.
        let mut partial = ProofCache::new();
        cached(&pool, &mut partial, &all[..2], 2);
        let (mixed, stats) = cached(&pool, &mut partial, &all, 2);
        assert_eq!(stats.hits, 2, "prefix cells hit (pool×{workers})");
        assert_eq!(stats.misses, all.len() - 2);
        assert_eq!(mixed, reference, "mixed run output (pool×{workers})");
        assert_eq!(wire_of(&mixed), wire_reference);

        // Changed inputs re-prove: the same matrix driven by a
        // different scenario seed shares no key with the warm cache.
        let (_, stats) = cached(&pool, &mut warmed, &all, 3);
        assert_eq!(
            stats.hits, 0,
            "a changed scenario must invalidate every cell (pool×{workers})"
        );
    }
}

/// The telemetry pin: a sweep observed by the heaviest sink
/// (JSON-lines tracing) produces reports, wire records and transparency
/// certificates byte-identical to the same sweep with telemetry off —
/// at 1, 2 and 8 workers. Telemetry reads the engine; it must never
/// reach an observation digest or a verdict. The traced run must also
/// actually trace: span counters advance and every buffered line is a
/// span record.
#[test]
fn telemetry_sinks_never_change_reports_or_wire_records() {
    use tp_telemetry::{SpanKind, TelemetrySink};

    let models = default_time_models()[..2].to_vec();
    let matrix = ScenarioMatrix::new("det", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(models);
    let scenario = || |_: &tp_core::MatrixCell| seeded_scenario(2, TimeProtConfig::full());
    let wire_of = |triples: &[ProvedCell]| {
        let mut out = String::new();
        for (i, cell, report) in triples {
            tp_core::wire::write_cell(&mut out, *i, cell, report);
        }
        out
    };

    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);

        tp_telemetry::install(TelemetrySink::Null);
        let silent = sweep_all(&matrix, &pool, scenario());

        tp_telemetry::install(TelemetrySink::json_lines());
        let traced = sweep_all(&matrix, &pool, scenario());
        let snap = tp_telemetry::snapshot().expect("tracing sink snapshots");
        let trace = tp_telemetry::take_trace().expect("tracing sink buffers");
        tp_telemetry::install(TelemetrySink::Null);

        // The load-bearing half: tracing changed nothing observable.
        assert_eq!(
            silent, traced,
            "telemetry must not change reports (pool×{workers})"
        );
        assert_eq!(
            wire_of(&silent),
            wire_of(&traced),
            "telemetry must not change wire records (pool×{workers})"
        );
        for ((_, cell, s), (_, _, t)) in silent.iter().zip(traced.iter()) {
            assert_eq!(
                s.transparency,
                t.transparency,
                "telemetry must not fold into digests/certificates ({})",
                cell.label()
            );
        }

        // The sanity half: the traced run really was observed. (The
        // sink is process-global and tests run concurrently, so other
        // tests may add to these numbers — assert floors, not totals.)
        for kind in [SpanKind::QueueWait, SpanKind::Prove, SpanKind::Verify] {
            assert!(
                snap.span(kind).0 > 0,
                "traced sweep must record {kind:?} spans (pool×{workers})"
            );
        }
        assert!(!trace.is_empty(), "trace buffer must not be empty");
        for line in trace.lines() {
            assert!(
                line.starts_with("{\"t\":\"span\",\"kind\":\""),
                "every trace line is a span record, got: {line}"
            );
        }
    }
}

/// The sharded enumeration returns the sequential first witness: the
/// lowest-index distinguishing program, with identical divergence data
/// — on persistent pools of every size.
#[test]
fn exhaustive_matches_sequential_witness_across_all_execution_paths() {
    for tp in [
        TimeProtConfig::full(),
        TimeProtConfig::off(),
        TimeProtConfig::full_without(Mechanism::Padding),
        TimeProtConfig::full_without(Mechanism::Flush),
    ] {
        let cfg = ExhaustiveConfig {
            max_len: 2,
            ..ExhaustiveConfig::small(tp)
        };
        let sequential = check_exhaustive(&cfg);
        for workers in POOL_SIZES {
            let pool = WorkerPool::new(workers);
            let pooled = check_exhaustive_parallel_on(&pool, &cfg);
            assert_eq!(
                sequential, pooled,
                "exhaustive verdict must be pool-size independent ({tp:?}, pool×{workers})"
            );
        }
    }
}

/// One persistent pool re-used across many heterogeneous submissions
/// (the `bin/all` shape) keeps producing bit-identical reports — state
/// from one sweep must not bleed into the next.
#[test]
fn pool_reuse_across_submissions_stays_deterministic() {
    let models = default_time_models();
    let pool = WorkerPool::new(4);
    let reference: Vec<ProofReport> = [1u64, 2]
        .iter()
        .map(|&seed| prove(&seeded_scenario(seed, TimeProtConfig::full()), &models))
        .collect();
    for round in 0..3 {
        for (i, &seed) in [1u64, 2].iter().enumerate() {
            let pooled = prove_parallel_on(
                &pool,
                &seeded_scenario(seed, TimeProtConfig::full()),
                &models,
            );
            assert_reports_identical(
                &reference[i],
                &pooled,
                &format!("round {round} seed {seed} on the shared pool"),
            );
        }
    }
}

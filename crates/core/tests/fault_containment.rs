//! Fault containment in the one sweep driver
//! ([`ScenarioMatrix::sweep`]): a cell whose
//! program panics mid-proof must become `Err(message)` in that cell's
//! slot — not a poisoned pool, not an unwound consumer — while every
//! other cell proves, streams, and caches exactly as it would have
//! without the fault. This is the engine-side half of the failure model
//! `tp-serve` and the `matrix` CLI share; the pool-side half lives in
//! `crates/sched/tests/panic_containment.rs`.

use tp_core::cache::ProofCache;
use tp_core::engine::ScenarioMatrix;
use tp_core::noninterference::NiScenario;
use tp_core::proof::{default_time_models, prove, ProofReport};
use tp_core::MatrixCell;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, Program, StepFeedback, TraceProgram};
use tp_sched::WorkerPool;

/// The worker counts every check runs at — the same spread the
/// determinism harness uses.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// A program that detonates on its first step. The panic fires inside
/// a pool worker's monitored run — exactly where a real proof workload
/// fault would — and its default `content_fingerprint` of `None` keeps
/// the faulted cell uncacheable, so resubmissions re-prove it.
#[derive(Debug, Clone)]
struct PanickingProgram;

impl Program for PanickingProgram {
    fn next(&mut self, _feedback: &StepFeedback) -> Instr {
        panic!("injected fault: program detonated")
    }
}

/// A small two-domain scenario compatible with every cell the matrix
/// below generates.
fn small_scenario() -> NiScenario {
    NiScenario {
        mcfg: MachineConfig::single_core(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * 16)
                    .map(|i| Instr::Store(data_addr((i * 64) % (4 * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for i in 0..32 {
                lo.push(Instr::Load(data_addr(i * 64)));
            }
            lo.push(Instr::ReadClock);
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_data_pages(4)
                    .with_code_pages(1),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_data_pages(4)
                    .with_code_pages(1),
            ])
            .with_tp(TimeProtConfig::full())
        }),
        lo: DomainId(1),
        secrets: vec![0, 3],
        budget: Cycles(120_000),
        max_steps: 60_000,
    }
}

/// The sweep used throughout: three ablation cells over one machine.
fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("fault", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding), Some(Mechanism::Flush)])
        .with_models(default_time_models()[..2].to_vec())
}

/// The sequential prover's report for every cell of `matrix`, on the
/// cell's specialised scenario — the reference the pooled driver must
/// reproduce bit for bit.
fn sequential_reference(matrix: &ScenarioMatrix) -> Vec<ProofReport> {
    matrix
        .cells()
        .iter()
        .map(|cell| {
            let mut sc = small_scenario();
            sc.mcfg = cell.mcfg.clone();
            let tp = cell.tp;
            let base = sc.make_kcfg;
            sc.make_kcfg = Box::new(move |secret| {
                let mut k = base(secret);
                k.tp = tp;
                k
            });
            prove(&sc, matrix.models())
        })
        .collect()
}

/// `small_scenario`, but the `disable=Padding` cell's Hi domain runs
/// [`PanickingProgram`] — one poisoned cell in an otherwise healthy
/// sweep.
fn faulty_scenario(cell: &MatrixCell) -> NiScenario {
    let mut s = small_scenario();
    if cell.disable == Some(Mechanism::Padding) {
        let base = s.make_kcfg;
        s.make_kcfg = Box::new(move |secret| {
            let mut k = base(secret);
            k.domains[0].program = Box::new(PanickingProgram);
            k
        });
    }
    s
}

/// Without faults, the contained driver is byte-for-byte the
/// sequential prover: same reports uncached (`None`), same reports and
/// the expected [`tp_core::cache::CacheStats`] cold and warm.
#[test]
fn healthy_sweeps_match_the_plain_drivers_bit_for_bit() {
    let matrix = matrix();
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let reference = sequential_reference(&matrix);
    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);
        let (uncached, stats) = matrix.sweep(&pool, &all, None, |_| small_scenario(), |_, _, _| {});
        assert_eq!(
            stats.hits + stats.misses + stats.rejected + stats.uncacheable,
            0
        );
        for (i, ((ui, ucell, outcome), report)) in uncached.iter().zip(&reference).enumerate() {
            assert_eq!((i, &matrix.cells()[i]), (*ui, ucell), "pool×{workers}");
            assert_eq!(outcome.as_ref().expect("healthy cell proves"), report);
        }

        let mut cache = ProofCache::new();
        let (cold, stats) = matrix.sweep(
            &pool,
            &all,
            Some(&mut cache),
            |_| small_scenario(),
            |_, _, _| {},
        );
        assert_eq!(stats.hits, 0, "cold run must not hit (pool×{workers})");
        assert_eq!(stats.misses, all.len());
        assert_eq!(cache.len(), all.len(), "every healthy cell is cacheable");
        let (warm, stats) = matrix.sweep(
            &pool,
            &all,
            Some(&mut cache),
            |_| small_scenario(),
            |_, _, _| {},
        );
        assert_eq!(stats.hits, all.len(), "warm run hits every cell");
        for (report, (c, w)) in reference.iter().zip(cold.iter().zip(&warm)) {
            assert_eq!(c.2.as_ref().unwrap(), report, "cold (pool×{workers})");
            assert_eq!(w.2.as_ref().unwrap(), report, "warm (pool×{workers})");
        }
    }
}

/// One detonating cell: its slot carries the panic message, its
/// siblings' reports are identical to a fault-free run, the cache
/// holds only the healthy cells, a resubmission answers those from
/// cache while re-attempting (and re-failing) the faulted one — and
/// the pool serves a fresh healthy sweep afterwards.
#[test]
fn a_panicking_cell_yields_an_error_slot_and_spares_its_siblings() {
    let matrix = matrix();
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let reference = sequential_reference(&matrix);
    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);
        let log = std::env::temp_dir().join(format!(
            "tp_fault_containment_{}_{workers}.cache",
            std::process::id()
        ));
        std::fs::remove_file(&log).ok();
        let mut cache = ProofCache::open(&log).expect("cache log opens");
        let mut streamed = Vec::new();
        let (outcomes, stats) = matrix.sweep(
            &pool,
            &all,
            Some(&mut cache),
            faulty_scenario,
            |i, _, outcome| streamed.push((i, outcome.is_ok())),
        );
        assert_eq!(outcomes.len(), all.len());
        let mut failed = 0;
        for ((i, cell, outcome), report) in outcomes.iter().zip(&reference) {
            if cell.disable == Some(Mechanism::Padding) {
                failed += 1;
                let msg = outcome.as_ref().expect_err("faulted cell must fail");
                assert!(
                    msg.contains("injected fault"),
                    "panic payload must surface (pool×{workers}): {msg:?}"
                );
            } else {
                assert_eq!(
                    outcome.as_ref().expect("sibling cells must prove"),
                    report,
                    "cell {i} (pool×{workers})"
                );
            }
        }
        assert_eq!(failed, 1);
        assert_eq!(
            streamed,
            outcomes
                .iter()
                .map(|(i, _, o)| (*i, o.is_ok()))
                .collect::<Vec<_>>(),
            "on_cell streams every slot in order (pool×{workers})"
        );
        assert_eq!(stats.uncacheable, 1, "the faulted cell has no content key");
        assert_eq!(cache.len(), all.len() - 1, "only healthy cells cached");
        let text = std::fs::read_to_string(&log).expect("cache log readable");
        std::fs::remove_file(&log).ok();
        let logged: Vec<MatrixCell> = tp_core::wire::parse_cells_meta(&text)
            .expect("cache log parses")
            .into_iter()
            .map(|(_, cell, _, _)| cell)
            .collect();
        let healthy = [matrix.cells()[0].clone(), matrix.cells()[2].clone()];
        assert_eq!(logged, healthy, "only healthy cells checkpoint");

        // Resubmission: healthy cells hit, the faulted one fails again.
        let (again, stats) =
            matrix.sweep(&pool, &all, Some(&mut cache), faulty_scenario, |_, _, _| {});
        assert_eq!(stats.hits, all.len() - 1, "pool×{workers}");
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(again.iter().filter(|(_, _, o)| o.is_err()).count(), 1);

        // The daemon's pool keeps serving: a fresh healthy sweep on the
        // same pool still matches the reference.
        let (after, _) = matrix.sweep(&pool, &all, None, |_| small_scenario(), |_, _, _| {});
        let after: Vec<ProofReport> = after.into_iter().map(|(_, _, o)| o.unwrap()).collect();
        assert_eq!(
            after, reference,
            "pool must survive the fault (pool×{workers})"
        );
    }
}

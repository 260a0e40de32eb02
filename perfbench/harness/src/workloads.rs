//! The in-process engine runs.
//!
//! * `matrix-cold` — the full canonical scenario matrix through
//!   `ScenarioMatrix::run`: no cache, no journal, repeated in one process.
//!   The first pass of a process is its cold one; the rest are warm.
//! * the exhaustive check the traced run prices: `check_exhaustive_parallel`
//!   over every Hi program up to length 6 under full protection.

use std::collections::HashSet;
use std::time::Instant;

use tp_core::exhaustive::{ExhaustiveConfig, ExhaustiveVerdict};
use tp_core::ScenarioMatrix;
use tp_kernel::config::{Mechanism, TimeProtConfig};

use crate::json::Obj;
use crate::Args;

/// Cells in the canonical matrix: 3 machines × (full + 6 ablations).
pub const MATRIX_CELLS: usize = 21;
/// Programs a passing exhaustive check reports at `max_len` 6: the empty
/// baseline plus 6 + 6² + … + 6⁶ Hi programs.
pub const EXH_PROGRAMS: usize = 55_987;

/// Outcome of one full sweep of the canonical matrix.
pub struct MatrixPass {
    pub wall_s: f64,
    /// Monitored steps summed over every cell's report.
    pub steps: u64,
    /// (cell, time model) pairs whose NI verdict is a leak.
    pub leaking_models: u64,
    /// Full protection proves on every machine and every mechanism's
    /// ablation leaks somewhere.
    pub ok: bool,
}

/// Prove the whole canonical matrix once on the global pool.
pub fn matrix_pass(matrix: &ScenarioMatrix) -> MatrixPass {
    let t = Instant::now();
    let report = matrix.run(|cell| tp_bench::canonical_scenario(cell.disable));
    let wall_s = t.elapsed().as_secs_f64();
    let steps = report.cells.iter().map(|(_, r)| r.steps as u64).sum();
    let leaking_models = report
        .cells
        .iter()
        .flat_map(|(_, r)| &r.ni)
        .filter(|m| !m.verdict.passed())
        .count() as u64;
    let leaking: HashSet<Mechanism> = report
        .leaking_ablations()
        .iter()
        .filter_map(|(c, _)| c.disable)
        .collect();
    let ok = report.cells.len() == MATRIX_CELLS
        && report.full_protection_proved()
        && Mechanism::ALL.iter().all(|m| leaking.contains(m));
    MatrixPass {
        wall_s,
        steps,
        leaking_models,
        ok,
    }
}

/// The traced exhaustive check: the small-scope setup at length 6.
pub fn exhaustive_config() -> ExhaustiveConfig {
    ExhaustiveConfig {
        max_len: 6,
        ..ExhaustiveConfig::small(TimeProtConfig::full())
    }
}

/// Run one exhaustive check: `(wall seconds, programs, passed as expected)`.
pub fn exhaustive_pass(cfg: &ExhaustiveConfig) -> (f64, u64, bool) {
    let t = Instant::now();
    let verdict = tp_core::check_exhaustive_parallel(cfg);
    let wall_s = t.elapsed().as_secs_f64();
    match verdict {
        ExhaustiveVerdict::Pass { programs } => (wall_s, programs as u64, programs == EXH_PROGRAMS),
        ExhaustiveVerdict::Leak { .. } => (wall_s, 0, false),
    }
}

/// Work counts of one operation, as `(name, value)` pairs.
type Counts = Vec<(&'static str, u64)>;

/// Run `op` at least once, and again while at least half of another run
/// of the last one's length fits in `seconds`. An operation fails when its
/// output check fails or its work counts differ from the first one's.
fn repeat(seconds: f64, units_per_op: u64, mut op: impl FnMut() -> (f64, Counts, bool)) -> Obj {
    let start = Instant::now();
    let mut walls_ms = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<Counts> = None;
    loop {
        let (wall_s, counts, ok) = op();
        walls_ms.push(wall_s * 1e3);
        let same = first.get_or_insert_with(|| counts.clone()) == &counts;
        if !ok || !same {
            failed += 1;
        }
        if start.elapsed().as_secs_f64() + wall_s / 2.0 >= seconds {
            break;
        }
    }
    let mut counts = Obj::new();
    for (k, v) in first.unwrap_or_default() {
        counts.int(k, v);
    }
    let mut out = Obj::new();
    out.num("cold_ms", walls_ms[0])
        .nums("warm_ms", &walls_ms[1..])
        .int("units_per_op", units_per_op)
        .int("attempted", walls_ms.len() as u64)
        .int("failed", failed)
        .obj("counts", &counts)
        .num("rss_mb", crate::peak_rss_mb(None));
    out
}

/// Start the global pool at the requested size.
pub fn start_pool(threads: usize) {
    tp_sched::configure_global_threads(threads);
    let _ = tp_sched::global();
}

/// `matrix` mode: the matrix-cold workload.
pub fn matrix(args: &Args) -> Result<Obj, String> {
    start_pool(args.threads);
    let matrix = tp_bench::canonical_matrix();
    crate::ready();
    if args.setup_only {
        return Ok(Obj::new());
    }
    Ok(repeat(args.seconds, MATRIX_CELLS as u64, || {
        let p = matrix_pass(&matrix);
        let counts = vec![
            ("cells", MATRIX_CELLS as u64),
            ("steps", p.steps),
            ("leaking_models", p.leaking_models),
        ];
        (p.wall_s, counts, p.ok)
    }))
}

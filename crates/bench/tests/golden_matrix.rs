//! Golden pin of the full scenario matrix under every default time
//! model, the three hashed ones included.
//!
//! Two fixtures hold what the full matrix (21 cells × 5 models) proves:
//!
//! * `full_matrix.worker` — the `matrix --worker` wire records, byte
//!   for byte: verdicts, witnesses, obligation counts and step counts;
//! * `full_matrix.fps` — one line per cell in matrix order, `<cell>
//!   fps=<secret>:<lo_len>:<monitored digest>,...`: the per-run
//!   fingerprints a `matrix --cache` file stores, which fold every
//!   observable event of each monitored run. Cache keys and checksums
//!   are bound to the cache salt and are left out.
//!
//! Both are regenerated in-process here and compared byte for byte. A
//! change to the simulator that keeps the fixtures is timing-neutral;
//! only a deliberate change to a timing model may re-bless them, with
//!
//! ```sh
//! cargo test -p tp-bench --test golden_matrix -- --ignored bless
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The full matrix swept in-process, populating a fresh proof cache:
/// `(worker stdout, fingerprint lines)`.
fn regenerate() -> (String, String) {
    let matrix = tp_bench::shaped_matrix(None);
    let indices: Vec<usize> = (0..matrix.cells().len()).collect();
    let mut cache = tp_core::ProofCache::new();
    let (outcomes, stats) =
        tp_bench::run_matrix_cells(&matrix, &indices, Some(&mut cache), |_, _, _| {});
    assert_eq!(stats.hits, 0, "a fresh cache cannot hit");

    let mut worker = String::new();
    let proved = tp_core::proved_cells(outcomes).expect("every cell proves or refutes");
    for (i, cell, report) in &proved {
        tp_core::wire::write_cell(&mut worker, *i, cell, report);
    }

    let mut fps = vec![String::new(); indices.len()];
    for (_, cell, _, meta) in tp_core::wire::parse_cells_meta(&cache.save()).unwrap() {
        let ci = matrix
            .cells()
            .iter()
            .position(|c| c.label() == cell.label())
            .expect("every cached cell is a matrix cell");
        let runs: Vec<String> = meta
            .expect("cache groups carry metadata")
            .fps
            .iter()
            .map(|(s, len, d)| format!("{s}:{len}:{d}"))
            .collect();
        fps[ci] = runs.join(",");
    }
    let mut lines = String::new();
    for (ci, f) in fps.iter().enumerate() {
        assert!(!f.is_empty(), "cell {ci} was not cached");
        writeln!(lines, "{ci} fps={f}").unwrap();
    }
    (worker, lines)
}

#[test]
fn full_matrix_matches_the_golden_fixtures() {
    let (worker, fps) = regenerate();
    let want_worker = std::fs::read_to_string(fixture("full_matrix.worker")).unwrap();
    let want_fps = std::fs::read_to_string(fixture("full_matrix.fps")).unwrap();
    // Compare line by line first so a failure names the first drift.
    for (n, (got, want)) in worker.lines().zip(want_worker.lines()).enumerate() {
        assert_eq!(got, want, "full_matrix.worker line {}", n + 1);
    }
    assert_eq!(worker, want_worker, "full_matrix.worker");
    for (n, (got, want)) in fps.lines().zip(want_fps.lines()).enumerate() {
        assert_eq!(got, want, "full_matrix.fps line {}", n + 1);
    }
    assert_eq!(fps, want_fps, "full_matrix.fps");
}

/// Rewrite both fixtures from this build. Run only on a deliberate
/// timing-model change (see the module docs).
#[test]
#[ignore]
fn bless() {
    let (worker, fps) = regenerate();
    std::fs::write(fixture("full_matrix.worker"), worker).unwrap();
    std::fs::write(fixture("full_matrix.fps"), fps).unwrap();
}

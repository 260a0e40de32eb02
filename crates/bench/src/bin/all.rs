//! Regenerate every experiment report, each under its `=== EN ===`
//! header, then run the whole proof surface once more as a scenario
//! matrix. Every parallel phase shares the one persistent worker pool.
//!
//! ```sh
//! all [--threads N] [--cells SPEC] [--models N] [--replay-check]
//!     [--metrics] [--trace-out FILE]
//! ```
//!
//! `--cells` / `--models` / `--replay-check` shape the final matrix
//! phase (the E1–E14 reports are fixed-size); `--threads` sizes the
//! pool for everything. `--metrics` / `--trace-out` observe the whole
//! run — report phases included — since the sink is process-global.
//! The other sweep flags (`--worker`, `--merge`, `--cache`,
//! `--progress`) belong to `bin/matrix`; `all` rejects them with a
//! usage error rather than ignore them.

use tp_bench::cli::{SweepArgs, EXIT_USAGE};

fn main() {
    let args = match SweepArgs::parse(std::env::args().skip(1)) {
        Ok(a) if a.worker || !a.merge.is_empty() || a.cache.is_some() || a.progress => {
            eprintln!(
                "all: --worker/--merge/--cache/--progress are matrix-only flags (use bin/matrix)"
            );
            std::process::exit(EXIT_USAGE);
        }
        Ok(a) => a,
        Err(e) => {
            eprintln!("all: {e}");
            eprintln!(
                "usage: all [--threads N] [--cells SPEC] [--models N] [--replay-check] \
                 [--metrics] [--trace-out FILE]"
            );
            std::process::exit(EXIT_USAGE);
        }
    };
    if let Some(n) = args.threads {
        tp_sched::configure_global_threads(n);
    }
    tp_bench::install_sink(args.metrics, args.trace_out.is_some());

    // Validate the matrix selection up front: a bad --cells index must
    // fail in milliseconds, not after the full E1–E14 report phase.
    let matrix = tp_bench::shaped_matrix(args.models).with_mode(args.proof_mode());
    let indices = match args.select_cells(matrix.cells().len()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("all: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };

    println!("=== aISA conformance ===");
    print!("{}", tp_bench::report_aisa());
    for (i, r) in [
        tp_bench::report_e1(),
        tp_bench::report_e2(&(0..16).map(|k| (k * 4 + 1) % 64).collect::<Vec<_>>()),
        tp_bench::report_e3(&(0..8).collect::<Vec<_>>()),
        tp_bench::report_e4(),
        tp_bench::report_e5(),
        tp_bench::report_e6(8),
        tp_bench::report_e7(),
        tp_bench::report_e8(50),
        tp_bench::report_e9(),
        tp_bench::report_e10(),
        tp_bench::report_e11(),
        tp_bench::report_e12(6),
        tp_bench::report_e13(&[3, 9, 20, 33, 47, 58]),
        tp_bench::report_e14(4),
    ]
    .iter()
    .enumerate()
    {
        println!("\n=== E{} ===", i + 1);
        print!("{r}");
    }

    println!("\n=== Scenario matrix (the suite as one engine run) ===");
    let (outcomes, _) =
        tp_bench::run_matrix_cells(&matrix, &indices, None, |_, _, line| eprintln!("{line}"));
    tp_bench::finish_telemetry(args.metrics, args.trace_out.as_deref(), indices.len());
    let proved = tp_bench::proved_or_exit("all", outcomes);
    print!(
        "{}",
        tp_bench::render_matrix_report(&tp_core::MatrixReport::from(proved))
    );
}

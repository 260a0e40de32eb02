//! The omnibus scenario-matrix run: every machine variant × every
//! protection setting × every time model, flattened into one submission
//! on the persistent worker pool — with scale-out modes for sharding a
//! sweep across processes or hosts.
//!
//! ```sh
//! # single process, whole sweep (per-cell progress streams to stderr)
//! matrix [--threads N] [--cells SPEC] [--models N]
//!
//! # shard across two processes, then merge — byte-identical output
//! matrix --worker --cells 0..11  > a.txt
//! matrix --worker --cells 11..21 > b.txt
//! matrix --merge a.txt b.txt
//!
//! # incremental and crash-safe: the first run populates the cache,
//! # appending each proved cell as it completes; later runs (or the run
//! # after a crash) re-prove only cells whose inputs changed or that the
//! # file lacks — stdout stays byte-identical
//! matrix --cache proofs.cache
//!
//! # observability: counter summary, span trace + manifest, heartbeat
//! matrix --metrics --trace-out trace.jsonl --progress
//! ```

use std::io::IsTerminal;
use std::time::Instant;

use tp_bench::cli::SweepArgs;

fn main() {
    let args = match SweepArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("matrix: {e}");
            eprintln!(
                "usage: matrix [--threads N] [--cells SPEC] [--models N] \
                 [--cache PATH] [--metrics] \
                 [--trace-out FILE] [--progress] [--worker | --merge FILE...]"
            );
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        tp_sched::configure_global_threads(n);
    }
    tp_bench::install_sink(args.metrics, args.trace_out.is_some());

    // Merge mode touches no scenario — it only reassembles records.
    if !args.merge.is_empty() {
        let shards: Vec<String> = args
            .merge
            .iter()
            .map(|path| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("matrix: cannot read {path}: {e}");
                    std::process::exit(2);
                })
            })
            .collect();
        match tp_bench::merge_matrix_records(&shards) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("matrix: merge failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let matrix = tp_bench::shaped_matrix(args.models);
    let indices = match args.select_cells(matrix.cells().len()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("matrix: {e}");
            std::process::exit(2);
        }
    };

    // An explicit `--progress` always heartbeats — a daemonised or CI
    // run redirecting stderr asked for its log lines and gets them.
    // Only the *default-on* convenience (no flag) is gated on stderr
    // being a terminal, so plain redirected runs stay quiet.
    let heartbeat = args.progress || std::io::stderr().is_terminal();
    let t0 = Instant::now();
    let progress = move |done: usize, total: usize, line: &str| {
        eprintln!("{line}");
        if heartbeat {
            eprintln!("{}", tp_bench::eta_line(done, total, t0.elapsed()));
        }
    };

    let mut cache = args
        .cache
        .as_deref()
        .map(|path| tp_bench::cli::open_cache("matrix", path));
    let (outcomes, stats) = tp_bench::run_matrix_cells(&matrix, &indices, cache.as_mut(), progress);
    if let Some(cache) = &mut cache {
        if let Some(e) = cache.take_log_error() {
            eprintln!(
                "matrix: cache append failed: {e} \
                 (sweep completed; the next run re-proves the cells not appended)"
            );
        }
        eprintln!("{}", tp_bench::cache_summary(&stats, cache.len()));
    }

    tp_bench::finish_telemetry(args.metrics, args.trace_out.as_deref(), indices.len());

    emit_output(&args, tp_bench::proved_or_exit("matrix", outcomes));
}

/// Print the run's stdout: wire records in `--worker` mode, the
/// rendered report otherwise.
fn emit_output(args: &SweepArgs, proved: Vec<tp_core::ProvedCell>) {
    if args.worker {
        // Wire records only on stdout: shard outputs concatenate.
        let mut out = String::new();
        for (i, cell, report) in &proved {
            tp_core::wire::write_cell(&mut out, *i, cell, report);
        }
        print!("{out}");
    } else {
        print!(
            "{}",
            tp_bench::render_matrix_report(&tp_core::MatrixReport::from(proved))
        );
    }
}

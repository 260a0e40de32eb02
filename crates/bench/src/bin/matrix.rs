//! The omnibus scenario-matrix run: every machine variant × every
//! protection setting × every time model, flattened into one submission
//! on the persistent worker pool — with scale-out modes for sharding a
//! sweep across processes or hosts.
//!
//! ```sh
//! # single process, whole sweep (per-cell progress streams to stderr)
//! matrix [--threads N] [--cells SPEC] [--models N]
//!
//! # audit mode: paranoid double-run per (model, secret); the report
//! # is bit-identical to the certified single-run default
//! matrix --replay-check
//!
//! # shard across two processes, then merge — byte-identical output
//! matrix --worker --cells 0..11  > a.txt
//! matrix --worker --cells 11..21 > b.txt
//! matrix --merge a.txt b.txt
//!
//! # incremental: first run populates the cache, later runs re-prove
//! # only cells whose inputs changed — stdout stays byte-identical
//! matrix --cache proofs.cache
//!
//! # crash-safe: checkpoint every proved cell; if the process is
//! # killed, resume re-proves only what the journal lost — stdout is
//! # byte-identical to an uninterrupted run
//! matrix --journal run.journal
//! matrix --resume run.journal
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
                "usage: matrix [--threads N] [--cells SPEC] [--models N] [--replay-check] \
                 [--cache PATH] [--journal PATH | --resume PATH] [--metrics] \
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

    let matrix = tp_bench::shaped_matrix(args.models).with_mode(args.proof_mode());
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

    // `--journal` / `--resume` sweep against an in-memory cache seeded
    // from the journal; `--cache` against the cache file; otherwise
    // uncached. All three run the same driver.
    let journal_path = args.journal.as_deref().or(args.resume.as_deref());
    let (mut cache, mut writer, torn) = match journal_path {
        Some(path) => {
            let (cache, writer, torn) = open_journal(path, args.resume.is_some());
            (Some(cache), Some(writer), torn)
        }
        None => (args.cache.as_deref().map(load_cache), None, 0),
    };
    let (outcomes, stats, jerr) =
        tp_bench::run_matrix_cells(&matrix, &indices, cache.as_mut(), writer.as_mut(), progress);

    if journal_path.is_some() {
        if let Some(e) = jerr {
            eprintln!(
                "matrix: journal append failed: {e} \
                 (sweep completed; a resume would re-prove the unjournaled cells)"
            );
        }
        eprintln!(
            "journal: {} replayed, {} torn-dropped, {} re-proved",
            stats.hits,
            torn,
            stats.reproved()
        );
        if args.resume.is_some() {
            tp_telemetry::count_n(
                tp_telemetry::Counter::JournalRecordsReplayed,
                stats.hits as u64,
            );
            tp_telemetry::count_n(
                tp_telemetry::Counter::ResumeCellsReproved,
                stats.reproved() as u64,
            );
        }
    } else if let (Some(path), Some(cache)) = (&args.cache, &cache) {
        eprintln!("{}", tp_bench::cache_summary(&stats, cache.len()));
        // Atomic replace: a crash mid-persist must leave the previous
        // cache intact, never a torn file that bricks the next run with
        // EXIT_MALFORMED.
        if let Err(e) =
            tp_core::persist::write_atomic(std::path::Path::new(path), cache.save().as_bytes())
        {
            eprintln!("matrix: cannot write cache {path}: {e}");
            std::process::exit(2);
        }
    }

    tp_bench::finish_telemetry(args.metrics, args.trace_out.as_deref(), indices.len());

    emit_output(&args, tp_bench::proved_or_exit("matrix", outcomes));
}

/// Load the `--cache` file. A missing file is a cold start, not an
/// error; a malformed one is untrusted input and fails loudly rather
/// than silently proving everything live.
fn load_cache(path: &str) -> tp_core::ProofCache {
    match std::fs::read_to_string(path) {
        Ok(text) => tp_core::ProofCache::load(&text).unwrap_or_else(|e| {
            eprintln!("matrix: cannot parse cache {path}: {e}");
            std::process::exit(tp_bench::cli::EXIT_MALFORMED);
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => tp_core::ProofCache::new(),
        Err(e) => {
            eprintln!("matrix: cannot read cache {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Open the crash-safe sweep's journal (`--journal` fresh / `--resume`
/// reload): returns an in-memory cache seeded from the journal's
/// surviving records, the writer that checkpoints freshly proved cells
/// back to `path`, and the number of torn records dropped. The
/// `journal:` stats lines go to stderr — the byte-identity contract
/// keeps stdout for the report/records alone.
fn open_journal(path: &str, resume: bool) -> (tp_core::ProofCache, tp_core::JournalWriter, usize) {
    use tp_core::journal;

    let p = std::path::Path::new(path);
    let mut cache = tp_core::ProofCache::new();
    let mut torn = 0usize;
    if resume {
        // A missing journal is a cold start (the crash may have hit
        // before the first append); a journal that is corrupt anywhere
        // but its physical tail is untrusted input and fails loudly.
        match std::fs::read_to_string(p) {
            Ok(text) => match journal::parse_journal(&text) {
                Ok((records, stats)) => {
                    torn = stats.torn_dropped;
                    eprintln!(
                        "journal: loaded {} records ({} torn-dropped) from {path}",
                        stats.records, stats.torn_dropped
                    );
                    // Compact the survivors back to disk atomically so
                    // new appends land after valid bytes, never after a
                    // torn tail.
                    if let Err(e) = tp_core::persist::write_atomic(
                        p,
                        journal::render_journal(&records).as_bytes(),
                    ) {
                        eprintln!("matrix: cannot compact journal {path}: {e}");
                        std::process::exit(2);
                    }
                    for r in records {
                        cache.insert_entry(r.into_entry());
                    }
                }
                Err(e) => {
                    eprintln!("matrix: cannot parse journal {path}: {e}");
                    std::process::exit(tp_bench::cli::EXIT_MALFORMED);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("journal: {path} not found, starting cold");
            }
            Err(e) => {
                eprintln!("matrix: cannot read journal {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let open = if resume {
        journal::JournalWriter::open_append(p)
    } else {
        journal::JournalWriter::create(p)
    };
    match open {
        Ok(w) => (cache, w, torn),
        Err(e) => {
            eprintln!("matrix: cannot open journal {path}: {e}");
            std::process::exit(2);
        }
    }
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

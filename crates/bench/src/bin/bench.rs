//! Criterion-free wall-clock benchmark of the proof hot path, feeding
//! the `BENCH_*.json` trajectory.
//!
//! Two workloads, timed with plain [`std::time::Instant`] best-of-N:
//!
//! * the **E11 ablation sweep** (the canonical machine × every
//!   single-mechanism ablation) proved in digest-first certified mode —
//!   and once more in forced-recording mode, so the file records the
//!   digest-first dividend alongside the absolute numbers;
//! * one **exhaustive enumeration** (every Hi program up to the length
//!   bound on the tiny machine), the workload the trace-free
//!   `ExhaustiveRunner` template exists for.
//!
//! ```sh
//! bench [--smoke] [--threads N] [--out FILE] [--check] [--band F] [--cache PATH]
//!       [--metrics] [--trace-out FILE]
//! ```
//!
//! `--smoke` shrinks both workloads to CI size (seconds, not minutes)
//! — the numbers still land in the JSON, flagged `"smoke": true`.
//! Output goes to `BENCH_matrix.json` (or `--out`): a
//! `tp-bench/matrix-v2` trajectory — an append-only `runs` history,
//! each entry tagged with host metadata (threads, CPUs, git rev,
//! timestamp). A bare v1 snapshot parses too and migrates on the next
//! write.
//!
//! `--check` is the CI trend gate: instead of appending, the fresh
//! measurement is compared against the best *comparable* committed run
//! (same thread count, CPU count and workload size) and the process
//! exits nonzero on a regression beyond the band (`--band`, default
//! [`trajectory::DEFAULT_BAND`]). A host with no comparable history
//! passes vacuously with a note.
//!
//! `--cache PATH` backs the untimed correctness sweep (the run that
//! gates `full_protection_proved`) with the content-addressed proof
//! cache, populating/refreshing `PATH`. The *timed* iterations always
//! run uncached — the trajectory measures the proof engine, not the
//! cache.

use std::fmt::Write as _;
use std::time::Duration;

use tp_bench::trajectory::{
    self, best_comparable, check_trend, RunRecord, Trajectory, TrendVerdict,
};
use tp_bench::{canonical_machine, canonical_scenario, host_info, time_iters};
use tp_core::engine::{check_exhaustive_parallel, ProofMode, ScenarioMatrix};
use tp_core::exhaustive::{space_size, ExhaustiveConfig};
use tp_core::{default_time_models, MatrixReport};
use tp_kernel::config::TimeProtConfig;

struct Args {
    smoke: bool,
    threads: Option<usize>,
    out: String,
    check: bool,
    band: f64,
    cache: Option<String>,
    metrics: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        threads: None,
        out: "BENCH_matrix.json".to_string(),
        check: false,
        band: trajectory::DEFAULT_BAND,
        cache: None,
        metrics: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --threads {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--band" => {
                let v = it.next().ok_or("--band needs a value")?;
                let b: f64 = v.parse().map_err(|_| format!("bad --band {v:?}"))?;
                if !(b.is_finite() && b > 0.0) {
                    return Err("--band must be a positive fraction".into());
                }
                args.band = b;
            }
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--cache" => args.cache = Some(it.next().ok_or("--cache needs a path")?),
            "--metrics" => args.metrics = true,
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The benched E11 sweep: canonical machine, all ablations, the first
/// `models` default time models.
fn e11_matrix(models: usize, mode: ProofMode) -> ScenarioMatrix {
    ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(default_time_models()[..models].to_vec())
        .with_mode(mode)
}

fn run_e11(models: usize, mode: ProofMode) -> MatrixReport {
    e11_matrix(models, mode).run(|cell| canonical_scenario(cell.disable))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            eprintln!(
                "usage: bench [--smoke] [--threads N] [--out FILE] [--check] [--band F] \
                 [--cache PATH] [--metrics] [--trace-out FILE]"
            );
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        tp_sched::configure_global_threads(n);
    }
    tp_bench::install_sink(args.metrics, args.trace_out.is_some());
    let threads = tp_sched::global().threads();
    let (iters, models, exh_len) = if args.smoke { (1, 1, 2) } else { (3, 2, 3) };

    // --- E11 sweep, digest-first certified (the default hot path).
    // With --cache this correctness run goes through the proof cache
    // (and refreshes it); the timed iterations below never do.
    let report = match &args.cache {
        None => run_e11(models, ProofMode::Certified),
        Some(path) => {
            let mut cache = match std::fs::read_to_string(path) {
                Ok(text) => match tp_core::ProofCache::load(&text) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("bench: cannot parse cache {path}: {e}");
                        std::process::exit(tp_bench::cli::EXIT_MALFORMED);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => tp_core::ProofCache::new(),
                Err(e) => {
                    eprintln!("bench: cannot read cache {path}: {e}");
                    std::process::exit(2);
                }
            };
            let matrix = e11_matrix(models, ProofMode::Certified);
            let all: Vec<usize> = (0..matrix.cells().len()).collect();
            let (outcomes, stats, _) =
                tp_bench::run_matrix_cells(&matrix, &all, Some(&mut cache), None, |_, _, _| {});
            eprintln!("{}", tp_bench::cache_summary(&stats, cache.len()));
            if let Err(e) =
                tp_core::persist::write_atomic(std::path::Path::new(path), cache.save().as_bytes())
            {
                eprintln!("bench: cannot write cache {path}: {e}");
                std::process::exit(2);
            }
            MatrixReport::from(tp_bench::proved_or_exit("bench", outcomes))
        }
    };
    let cells = report.cells.len();
    let monitored_steps: usize = report.cells.iter().map(|(_, r)| r.steps).sum();
    let (_, t_digest) = time_iters(iters, || run_e11(models, ProofMode::Certified));
    eprintln!(
        "e11 sweep (digest-first): {cells} cells x {models} models in {t_digest:?} \
         ({monitored_steps} monitored steps, {threads} threads)"
    );

    // --- The same sweep, forced recording (the comparison baseline). ---
    let (_, t_recording) = time_iters(iters, || run_e11(models, ProofMode::CertifiedRecording));
    eprintln!("e11 sweep (recording):    {cells} cells x {models} models in {t_recording:?}");

    // --- Exhaustive enumeration, digest-first. ---
    let exh_cfg = ExhaustiveConfig {
        max_len: exh_len,
        ..ExhaustiveConfig::small(TimeProtConfig::full())
    };
    let programs = space_size(exh_cfg.alphabet.len(), exh_cfg.max_len) + 1;
    let (_, t_exh) = time_iters(iters, || check_exhaustive_parallel(&exh_cfg));
    eprintln!("exhaustive: {programs} Hi programs (len <= {exh_len}) in {t_exh:?}");

    let secs = |d: Duration| d.as_secs_f64().max(1e-9);
    let cells_per_sec = cells as f64 / secs(t_digest);
    let ns_per_step = secs(t_digest) * 1e9 / monitored_steps.max(1) as f64;
    let programs_per_sec = programs as f64 / secs(t_exh);
    let digest_over_recording = secs(t_digest) / secs(t_recording);

    let (cpus, git_rev, unix_time) = host_info();
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"smoke\": {},", args.smoke).unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    writeln!(json, "  \"host\": {{").unwrap();
    writeln!(json, "    \"threads\": {threads},").unwrap();
    writeln!(json, "    \"cpus\": {cpus},").unwrap();
    writeln!(json, "    \"git_rev\": \"{git_rev}\",").unwrap();
    writeln!(json, "    \"unix_time\": {unix_time}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"e11\": {{").unwrap();
    writeln!(json, "    \"cells\": {cells},").unwrap();
    writeln!(json, "    \"models\": {models},").unwrap();
    writeln!(json, "    \"monitored_steps\": {monitored_steps},").unwrap();
    writeln!(json, "    \"seconds\": {:.6},", secs(t_digest)).unwrap();
    writeln!(json, "    \"cells_per_sec\": {cells_per_sec:.3},").unwrap();
    writeln!(json, "    \"ns_per_step\": {ns_per_step:.3},").unwrap();
    writeln!(json, "    \"recording_seconds\": {:.6},", secs(t_recording)).unwrap();
    writeln!(
        json,
        "    \"digest_over_recording\": {digest_over_recording:.4}"
    )
    .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"exhaustive\": {{").unwrap();
    writeln!(json, "    \"max_len\": {exh_len},").unwrap();
    writeln!(json, "    \"programs\": {programs},").unwrap();
    writeln!(json, "    \"seconds\": {:.6},", secs(t_exh)).unwrap();
    writeln!(json, "    \"programs_per_sec\": {programs_per_sec:.3}").unwrap();
    write!(json, "  }}").unwrap();
    // With a sink installed, the run entry also carries the counter and
    // span totals — the same object the trace manifest embeds — so a
    // trajectory entry can be cross-checked against its trace file.
    if let Some(snap) = tp_telemetry::snapshot() {
        let mut compact = String::new();
        tp_bench::telemetry_json(&snap).render_compact(&mut compact);
        writeln!(json, ",\n  \"telemetry\": {compact}").unwrap();
    } else {
        writeln!(json).unwrap();
    }
    writeln!(json, "}}").unwrap();

    // Surface telemetry before the gates below can exit: a failing run
    // is exactly the one whose trace is worth keeping.
    tp_bench::finish_telemetry(args.metrics, args.trace_out.as_deref(), cells);

    // A bench that measured a broken engine would poison the
    // trajectory: fail loudly before touching the file.
    if !report.full_protection_proved() {
        eprintln!("bench: full-protection cells no longer prove — numbers discarded");
        std::process::exit(1);
    }

    let fresh = match trajectory::Json::parse(&json).and_then(RunRecord::from_json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench: internal error building run record: {e}");
            std::process::exit(1);
        }
    };

    // Load whatever history the output file already holds (v1 snapshots
    // migrate to a one-entry history).
    let history = match std::fs::read_to_string(&args.out) {
        Ok(text) => match Trajectory::parse(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench: cannot parse {}: {e}", args.out);
                std::process::exit(1);
            }
        },
        Err(_) => Trajectory::default(),
    };

    if args.check {
        // Gate-only mode: compare, report, leave the file untouched.
        // Always say *which* entry the gate compared against — a PASS
        // over the wrong baseline is worse than a failure.
        let baseline = best_comparable(&history.runs, &fresh);
        match check_trend(&history.runs, &fresh, args.band) {
            TrendVerdict::Pass {
                baseline_ns_per_step,
            } => {
                eprintln!(
                    "trend gate: PASS — {ns_per_step:.3} ns/step vs best comparable \
                     {baseline_ns_per_step:.3} (band {:.0}%)",
                    args.band * 100.0
                );
                if let Some(b) = baseline {
                    eprintln!("trend gate: baseline {}", b.describe());
                }
            }
            TrendVerdict::NoComparableBaseline => {
                eprintln!(
                    "trend gate: vacuous: no comparable host in {} (threads={threads}, \
                     cpus={cpus}, smoke={}) — passing",
                    args.out, args.smoke
                );
            }
            TrendVerdict::Regression {
                baseline_ns_per_step,
                fresh_ns_per_step,
                limit_ns_per_step,
            } => {
                eprintln!(
                    "trend gate: REGRESSION — {fresh_ns_per_step:.3} ns/step exceeds \
                     {limit_ns_per_step:.3} (best comparable {baseline_ns_per_step:.3} \
                     + {:.0}% band)",
                    args.band * 100.0
                );
                if let Some(b) = baseline {
                    eprintln!("trend gate: baseline {}", b.describe());
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let mut history = history;
    history.push(fresh);
    // Atomic replace: the trajectory file is append-forever history; a
    // crash mid-rewrite must not tear the runs already recorded.
    if let Err(e) =
        tp_core::persist::write_atomic(std::path::Path::new(&args.out), history.render().as_bytes())
    {
        eprintln!("bench: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {} ({} runs)", args.out, history.runs.len());
    print!("{json}");
}

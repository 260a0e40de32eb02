//! Benchmark harness for the time-protection workspace.
//!
//! Every workload is driven from outside the program, through interfaces
//! the crates already export: `ScenarioMatrix::run` and
//! `check_exhaustive_parallel` in process, the `tp-serve` line protocol
//! over TCP, and the leaf functions of each layer for the per-layer
//! ledger. `perfbench/run.py` builds this binary, starts it once per
//! set-up round and turns its output into the benchmark's metrics.
//!
//! ```sh
//! perfbench-harness matrix --threads 2 --seconds 20
//! perfbench-harness serve  --seed 7 --seconds 20 --bin-dir DIR --work-dir DIR
//! perfbench-harness layers --seed 7 --workload matrix-cold --bin-dir DIR --work-dir DIR
//! ```
//!
//! Each mode prints `READY` once its set-up is done (the end of the
//! set-up time `run.py` measures), then one JSON object as its last
//! stdout line.

mod json;
mod layers;
mod serve;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub mode: String,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
    pub workload: String,
    /// Exit right after set-up, without running an operation.
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let mut args = Args {
        mode,
        seed: 1,
        seconds: 10.0,
        threads: 2,
        bin_dir: PathBuf::from("."),
        work_dir: PathBuf::from("."),
        workload: String::from("matrix-cold"),
        setup_only: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| format!("bad {value:?}"))?,
            "--threads" => args.threads = value.parse().map_err(bad)?,
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--workload" => args.workload = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Mark the end of set-up: `run.py` stops its set-up clock on this line.
pub fn ready() {
    println!("READY");
    let _ = std::io::stdout().flush();
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The `q` quantile of `v`, interpolated between samples (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            eprintln!(
                "usage: perfbench-harness matrix|serve|layers [--seed N] [--seconds S] \
                 [--setup-only] [--threads N] [--bin-dir DIR] [--work-dir DIR] [--workload NAME]"
            );
            std::process::exit(2);
        }
    };
    let result = match args.mode.as_str() {
        "matrix" => workloads::matrix(&args),
        "serve" => serve::workload(&args),
        "layers" => layers::run(&args),
        other => Err(format!("unknown mode {other:?}")),
    };
    match result {
        Ok(out) => println!("{}", out.render()),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}

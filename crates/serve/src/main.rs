//! The `tp-serve` daemon binary.
//!
//! ```sh
//! tp-serve [--addr HOST:PORT] [--threads N] [--cache PATH] [--journal DIR]
//! ```
//!
//! Binds (default `127.0.0.1:7477`; port `0` picks an ephemeral port),
//! prints `tp-serve: listening on ADDR` to stdout, then serves until a
//! client sends `SHUTDOWN`. `--cache PATH` opens a proof cache as an
//! append-only log: it is loaded at startup (a torn final group, left
//! by a daemon killed mid-append, is dropped and reported on stderr),
//! and every cell a cached job proves is appended and fsynced as it
//! completes. The cache is opened by `matrix`'s own code
//! (`tp_bench::cli::open_cache`), so the exit codes for a bad cache file
//! match (`EXIT_MALFORMED` for a file that fails wire parsing, 2 for an
//! unreadable one). `--journal DIR` is accepted and ignored: the
//! cache file is its own checkpoint journal now.

use tp_serve::Server;

fn usage() -> ! {
    eprintln!(
        "usage: tp-serve [--addr HOST:PORT] [--threads N] [--cache PATH] [--journal DIR]\n\
         (--journal is ignored: --cache PATH is the crash-safe log)"
    );
    std::process::exit(tp_bench::cli::EXIT_USAGE);
}

fn main() {
    let mut addr = "127.0.0.1:7477".to_string();
    let mut threads: Option<usize> = None;
    let mut cache_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--threads" => match value().parse() {
                Ok(n) if n > 0 => threads = Some(n),
                _ => usage(),
            },
            "--cache" => cache_path = Some(value()),
            "--journal" => {
                value();
            }
            _ => usage(),
        }
    }
    if let Some(n) = threads {
        tp_sched::configure_global_threads(n);
    }
    // Counters on by default: a daemon without METRICS is blind.
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());

    // `matrix`'s cache-open path: missing file = cold start,
    // unparseable = malformed input (own exit code), unreadable = I/O.
    let cache = match &cache_path {
        None => tp_core::ProofCache::new(),
        Some(path) => tp_bench::cli::open_cache("tp-serve", path),
    };

    let server = match Server::bind(&addr, cache) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tp-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("tp-serve: listening on {bound}"),
        Err(e) => {
            eprintln!("tp-serve: cannot resolve bound address: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.serve() {
        eprintln!("tp-serve: accept loop failed: {e}");
        std::process::exit(1);
    }
}

//! End-to-end contract of the proof service, driven over a real TCP
//! socket: streamed records byte-identical to `matrix --worker`, warm
//! resubmits answered from the cache, a detonating cell contained as
//! one `err` record while the daemon keeps serving, the protocol edges
//! (PING/STATUS/CANCEL/METRICS/malformed/SHUTDOWN), and the crash-safe
//! lifecycle: SHUTDOWN drains in-flight jobs before it answers, a
//! cached job's `DONE` means its cells are in the cache log, a
//! `deadline_ms=` expiry yields `err` records instead of a wedged
//! daemon, a vanished client cancels only its stream, and a daemon
//! restarted over a log torn by a crash drops the torn group and
//! resumes from the rest. The key
//! memo never serves a `fault=` cell, and an over-long request line is
//! refused without harming other connections.
//!
//! The telemetry sink is process-global, so the tests that assert on
//! `METRICS` values hold [`TELEMETRY`] exclusively, and every test that
//! runs a job in this process holds it shared: no sibling's job can add
//! to the counts being asserted.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use tp_core::ProofCache;
use tp_serve::Server;

/// Sequence numbers for per-test scratch paths.
static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// Shared by tests that run in-process jobs, exclusive for tests that
/// install a sink and assert on what it counted.
static TELEMETRY: RwLock<()> = RwLock::new(());

fn runs_jobs() -> RwLockReadGuard<'static, ()> {
    TELEMETRY.read().unwrap_or_else(|e| e.into_inner())
}

fn counts_telemetry() -> RwLockWriteGuard<'static, ()> {
    TELEMETRY.write().unwrap_or_else(|e| e.into_inner())
}

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("service accepts");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("request sends");
        self.writer.flush().expect("request flushes");
    }

    /// Read one `.`-terminated response block (the `.` excluded).
    fn read_block(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("response reads");
            assert_ne!(n, 0, "connection closed mid-block: {lines:?}");
            let line = line.trim_end_matches('\n').to_string();
            if line == "." {
                return lines;
            }
            lines.push(line);
        }
    }

    /// Read one raw response line (for peeking at a block's first line
    /// before doing something else mid-stream).
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("line reads");
        assert_ne!(n, 0, "connection closed mid-line");
        line.trim_end_matches('\n').to_string()
    }

    /// Send a request and read its whole response block.
    fn round_trip(&mut self, line: &str) -> Vec<String> {
        self.send(line);
        self.read_block()
    }
}

/// Bind an in-process service on an ephemeral port and serve it from a
/// background thread. A cache opened on a file keeps its log there.
fn start_service(cache: ProofCache) -> (SocketAddr, Client) {
    let server = Server::bind("127.0.0.1:0", cache).expect("service binds");
    let addr = server.local_addr().expect("bound address resolves");
    std::thread::spawn(move || server.serve().expect("accept loop stays up"));
    (addr, Client::connect(addr))
}

/// A scratch path unique to this test run.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_serve_e2e_{}_{}_{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Poll `STATUS` until `pred` accepts the given job's line.
fn wait_for_job(client: &mut Client, job: u64, pred: impl Fn(&str) -> bool) -> String {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.round_trip("STATUS");
        let line = status
            .iter()
            .find(|l| l.starts_with(&format!("JOB id={job} ")))
            .unwrap_or_else(|| panic!("job {job} listed: {status:?}"))
            .clone();
        if pred(&line) {
            return line;
        }
        assert!(
            Instant::now() < give_up,
            "job {job} never reached the expected state: {line}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The records `matrix --worker` would print for this subset, computed
/// in-process through the same helpers that binary uses.
fn reference_records(models: Option<usize>, indices: &[usize]) -> String {
    let matrix = tp_bench::shaped_matrix(models);
    let (outcomes, _) = tp_bench::run_matrix_cells(&matrix, indices, None, |_, _, _| {});
    let mut out = String::new();
    for (i, cell, report) in &tp_core::proved_cells(outcomes).expect("every cell proves") {
        tp_core::wire::write_cell(&mut out, *i, cell, report);
    }
    out
}

/// Concatenate a response block's `REC ` payloads back into wire text.
fn stripped_records(block: &[String]) -> String {
    let mut out = String::new();
    for line in block {
        if let Some(rec) = line.strip_prefix("REC ") {
            out.push_str(rec);
            out.push('\n');
        }
    }
    out
}

/// The block's terminal `DONE` line.
fn done_line(block: &[String]) -> &str {
    block
        .iter()
        .rev()
        .find(|l| l.starts_with("DONE "))
        .unwrap_or_else(|| panic!("no DONE line in {block:?}"))
}

/// Extract `key=` from a status line.
fn field(line: &str, key: &str) -> u64 {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line:?}"))
}

#[test]
fn submits_stream_matrix_worker_bytes_and_warm_resubmits_hit_the_cache() {
    let _jobs = runs_jobs();
    let (_addr, mut client) = start_service(ProofCache::new());
    let reference = reference_records(Some(1), &[0, 1, 2, 3, 4, 5, 6]);

    // Cold: everything proves live, and the stream — stripped of its
    // framing prefix — is byte-identical to the sharding binary.
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert!(block[0].starts_with("OK job="), "{block:?}");
    assert_eq!(stripped_records(&block), reference, "cold stream");
    let done = done_line(&block);
    assert_eq!(field(done, "proved="), 7, "{done}");
    assert_eq!(field(done, "failed="), 0, "{done}");
    assert_eq!(field(done, "hits="), 0, "{done}");
    assert_eq!(field(done, "missed="), 7, "{done}");

    // Warm: same request, zero re-proving, still the same bytes.
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(stripped_records(&block), reference, "warm stream");
    let done = done_line(&block);
    assert_eq!(
        field(done, "hits="),
        7,
        "warm run answers from cache: {done}"
    );
    assert_eq!(field(done, "missed="), 0, "{done}");
    assert_eq!(field(done, "entries="), 7, "{done}");

    // A subset resubmit hits too — the cache is per-cell, not per-job.
    let block = client.round_trip("SUBMIT models=1 cells=2..5");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[2, 3, 4]),
        "subset stream"
    );
    assert_eq!(field(done_line(&block), "hits="), 3);

    // `nocache` bypasses the front: same bytes, proved live.
    let block = client.round_trip("SUBMIT models=1 cells=0..2 nocache");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1]),
        "nocache stream"
    );
    assert_eq!(field(done_line(&block), "hits="), 0);
    assert_eq!(
        field(done_line(&block), "missed="),
        0,
        "nocache keeps no stats"
    );
}

#[test]
fn a_detonating_cell_is_one_err_record_not_a_dead_daemon() {
    let _jobs = runs_jobs();
    let (addr, mut client) = start_service(ProofCache::new());
    let healthy = [0usize, 1, 3, 4];
    let reference = reference_records(Some(1), &healthy);

    // Fault-inject cell 2: its Hi program panics inside a pool worker.
    let block = client.round_trip("SUBMIT models=1 cells=0..5 fault=2");
    let done = done_line(&block).to_string();
    assert_eq!(field(&done, "proved="), 4, "{done}");
    assert_eq!(field(&done, "failed="), 1, "{done}");

    // The faulted cell is exactly one wire `err` record carrying the
    // panic payload; it is NOT parseable as a proved cell, so it can
    // never be merged into a report by accident.
    let mut expected_err = String::new();
    tp_core::wire::write_cell_error(&mut expected_err, 2, "injected fault: program detonated");
    let records = stripped_records(&block);
    assert!(
        records.contains(expected_err.trim_end()),
        "err record carries the panic message:\n{records}"
    );
    assert!(tp_core::wire::parse_cells(&records).is_err());

    // Sibling cells are byte-identical to a healthy run of the same
    // subset — the detonation affected exactly one slot.
    let siblings: String = records
        .lines()
        .filter(|l| !l.starts_with("err "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(siblings, reference, "siblings unaffected");

    // A panicking program has no content fingerprint: the faulted cell
    // must not poison the cache. A resubmit without the fault proves
    // cell 2 live and serves the siblings warm.
    let block = client.round_trip("SUBMIT models=1 cells=0..5");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1, 2, 3, 4]),
        "post-fault resubmit"
    );
    let done = done_line(&block);
    assert_eq!(field(done, "proved="), 5, "{done}");
    assert_eq!(field(done, "hits="), 4, "{done}");
    assert_eq!(field(done, "missed="), 1, "{done}");

    // And the daemon still accepts fresh connections.
    let mut second = Client::connect(addr);
    assert_eq!(second.round_trip("PING"), vec!["OK pong"]);
}

/// The key memo holds fault-free cells' keys only: a `fault=` cell's
/// key is derived afresh, so a memoised key can neither turn the
/// detonating cell into a hit nor store it under the healthy cell's key.
#[test]
fn the_key_memo_never_serves_a_fault_cell() {
    let _jobs = runs_jobs();

    // Healthy first: the fault job must not hit the healthy entry.
    let (_addr, mut client) = start_service(ProofCache::new());
    let cold = client.round_trip("SUBMIT models=1 cells=2");
    assert_eq!(field(done_line(&cold), "missed="), 1);
    let faulted = client.round_trip("SUBMIT models=1 cells=2 fault=2");
    let done = done_line(&faulted);
    assert_eq!(field(done, "hits="), 0, "{done}");
    assert_eq!(field(done, "failed="), 1, "{done}");
    let errs: Vec<&String> = faulted.iter().filter(|l| l.starts_with("REC ")).collect();
    assert_eq!(errs.len(), 1, "{faulted:?}");
    assert!(errs[0].starts_with("REC err i=2 "), "{faulted:?}");
    let warm = client.round_trip("SUBMIT models=1 cells=2");
    assert_eq!(field(done_line(&warm), "hits="), 1);
    assert_eq!(stripped_records(&warm), stripped_records(&cold));

    // Fault first: nothing is cached, so the healthy job proves live.
    let (_addr, mut client) = start_service(ProofCache::new());
    let faulted = client.round_trip("SUBMIT models=1 cells=2 fault=2");
    assert_eq!(field(done_line(&faulted), "failed="), 1);
    assert_eq!(field(done_line(&faulted), "entries="), 0);
    let healthy = client.round_trip("SUBMIT models=1 cells=2");
    let done = done_line(&healthy);
    assert_eq!(field(done, "hits="), 0, "{done}");
    assert_eq!(field(done, "missed="), 1, "{done}");
    assert_eq!(field(done, "proved="), 1, "{done}");
    assert_eq!(stripped_records(&healthy), stripped_records(&cold));
}

/// A request line past the daemon's 4 KiB cap is answered with
/// `ERR code=too-long` and its connection is closed with end of stream
/// after the rest of the line is read; other connections are served as
/// before.
#[test]
fn an_over_long_request_line_is_refused_and_the_daemon_keeps_serving() {
    let (addr, mut client) = start_service(ProofCache::new());
    client.send(&format!("PING {}", "x".repeat(100 * 1024)));
    let mut line = String::new();
    client
        .reader
        .read_line(&mut line)
        .expect("the refusal arrives");
    assert!(line.starts_with("ERR code=too-long "), "{line:?}");
    assert_eq!(client.read_line(), ".");
    // Closed cleanly: the daemon read the rest of the line before
    // closing, so the client sees end of stream, not a reset.
    let mut rest = String::new();
    let end = client.reader.read_line(&mut rest);
    assert!(matches!(end, Ok(0)), "{end:?}, then {rest:?}");
    let mut fresh = Client::connect(addr);
    assert_eq!(fresh.round_trip("PING"), vec!["OK pong"]);
}

/// A cell spec is bounded by the matrix before it is expanded: a short
/// line naming billions of cells gets `ERR code=malformed`, not an
/// allocation that takes the daemon down, and the daemon keeps serving.
#[test]
fn a_huge_cell_range_is_refused_before_it_is_expanded() {
    let _jobs = runs_jobs();
    let (addr, mut client) = start_service(ProofCache::new());
    let max = usize::MAX;
    for spec in [
        format!("0..{max}"),
        "0..4000000000".to_string(),
        format!("{max}"),
        format!("3,4..{max}"),
    ] {
        let block = client.round_trip(&format!("SUBMIT models=1 cells={spec}"));
        assert_eq!(block.len(), 1, "{spec}: {block:?}");
        assert!(
            block[0].starts_with("ERR code=malformed ")
                && block[0].contains("out of range (matrix has 21 cells)"),
            "{spec}: {block:?}"
        );
    }
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    let mut fresh = Client::connect(addr);
    assert_eq!(fresh.round_trip("PING"), vec!["OK pong"]);
}

#[test]
fn protocol_edges_ping_status_cancel_metrics_and_malformed_lines() {
    let _counting = counts_telemetry();
    // METRICS needs a live sink; install the counting one for this
    // process (install is process-wide and idempotent to re-run).
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
    let (_addr, mut client) = start_service(ProofCache::new());

    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);

    // Malformed requests are rejected without dropping the connection —
    // the protocol twin of the binaries' EXIT_MALFORMED.
    for bad in [
        "FROB",
        "SUBMIT cells=nonsense",
        "SUBMIT models=0",
        "SUBMIT fuel=9",
        "CANCEL job=x",
    ] {
        let block = client.round_trip(bad);
        assert_eq!(block.len(), 1, "{block:?}");
        assert!(
            block[0].starts_with("ERR code=malformed "),
            "{bad}: {block:?}"
        );
    }
    // Well-formed but out of range: same code, still alive after.
    let block = client.round_trip("SUBMIT models=1 cells=40..41");
    assert!(block[0].starts_with("ERR code=malformed "), "{block:?}");
    let block = client.round_trip("SUBMIT models=1 cells=0..2 fault=40");
    assert!(block[0].starts_with("ERR code=malformed "), "{block:?}");

    // Cancelling a job that never existed is its own error.
    let block = client.round_trip("CANCEL job=999");
    assert!(block[0].starts_with("ERR code=unknown-job "), "{block:?}");

    // A tiny sweep, then STATUS shows it finished and CANCEL of a
    // finished job still acknowledges (cancellation is a latch, not an
    // interrupt — the stream is already over).
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    let job = field(&block[0], "job=");
    let cached_jobs = 1;
    let status = client.round_trip("STATUS");
    assert!(status[0].starts_with("OK jobs="), "{status:?}");
    let line = status
        .iter()
        .find(|l| l.starts_with(&format!("JOB id={job} ")))
        .unwrap_or_else(|| panic!("job {job} listed: {status:?}"));
    assert!(line.contains("state=done"), "{line}");
    assert_eq!(field(line, "cells="), 2, "{line}");
    assert_eq!(field(line, "done="), 2, "{line}");
    assert_eq!(field(line, "failed="), 0, "{line}");
    let block = client.round_trip(&format!("CANCEL job={job}"));
    assert_eq!(block, vec![format!("OK cancelled job={job}")]);

    // METRICS: every counter and span by name, plus the cache gauge.
    let block = client.round_trip("METRICS");
    assert_eq!(block[0], "OK metrics");
    for c in tp_telemetry::Counter::ALL {
        assert!(
            block
                .iter()
                .any(|l| l.starts_with(&format!("METRIC {} ", c.name()))),
            "counter {} reported: {block:?}",
            c.name()
        );
    }
    for k in tp_telemetry::SpanKind::ALL {
        assert!(
            block
                .iter()
                .any(|l| l.starts_with(&format!("SPAN {} ", k.name()))),
            "span {} reported: {block:?}",
            k.name()
        );
    }
    assert!(
        block
            .iter()
            .any(|l| l.starts_with("METRIC pool_peak_queue ")),
        "{block:?}"
    );
    assert!(
        block.iter().any(|l| l.starts_with("METRIC cache_entries ")),
        "{block:?}"
    );
    // Every cached job waited for the cache lock exactly once; the
    // malformed and out-of-range SUBMITs never reached it, nor became
    // jobs.
    let span = block
        .iter()
        .find(|l| l.starts_with("SPAN cache-lock "))
        .expect("cache-lock span reported");
    assert_eq!(field(span, "n="), cached_jobs, "{span}");
    let span = block
        .iter()
        .find(|l| l.starts_with("SPAN job "))
        .expect("job span reported");
    assert_eq!(field(span, "n="), 1, "{span}");
}

#[test]
fn shutdown_wakes_the_blocking_accept_loop() {
    let server = Server::bind("127.0.0.1:0", ProofCache::new()).expect("service binds");
    let addr = server.local_addr().expect("bound address resolves");
    let accept_loop = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(addr);
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);

    // No other client connects: SHUTDOWN itself must wake the accept
    // loop blocked in `accept()`, and `serve` returns cleanly.
    let give_up = Instant::now() + Duration::from_secs(10);
    while !accept_loop.is_finished() {
        assert!(
            Instant::now() < give_up,
            "serve() still blocked in accept() after SHUTDOWN"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let served = accept_loop.join().expect("accept loop does not panic");
    assert!(
        served.is_ok(),
        "serve() returns Ok after SHUTDOWN: {served:?}"
    );
}

#[test]
fn the_daemon_binary_boots_persists_its_cache_and_shuts_down() {
    let cache_path = scratch_path("binary.cache");
    // `--journal DIR` is still accepted, and ignored: the cache file is
    // the crash-safe log.
    let jdir = scratch_path("binary.journal.d");
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_tp-serve"))
        .args(["--addr", "127.0.0.1:0", "--threads", "2", "--cache"])
        .arg(&cache_path)
        .arg("--journal")
        .arg(&jdir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");

    // The first stdout line announces the ephemeral port.
    let mut stdout = BufReader::new(daemon.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("tp-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("banner carries the bound address");

    // Prove two cells over the socket, then check the cache landed on
    // disk (the warm state a restarted daemon would reload).
    let mut client = Client::connect(addr);
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    assert_eq!(field(done_line(&block), "proved="), 2);
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    assert_eq!(ProofCache::load(&text).expect("cache parses").len(), 2);

    assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);
    let status = daemon.wait().expect("daemon exits");
    std::fs::remove_file(&cache_path).ok();
    assert!(status.success(), "clean shutdown exit: {status:?}");
    assert!(!jdir.exists(), "--journal is ignored");
}

#[test]
fn shutdown_drains_the_in_flight_job_persists_and_only_then_answers() {
    let _jobs = runs_jobs();
    let cache_path = scratch_path("drain.cache");
    let (addr, mut submitter) =
        start_service(ProofCache::open(&cache_path).expect("cache log opens"));

    // Start a sweep, and only after its job is registered (the OK line
    // proves it) ask a second connection to shut the daemon down.
    submitter.send("SUBMIT models=1 cells=0..7");
    let first = submitter.read_line();
    assert!(first.starts_with("OK job="), "{first}");

    let mut admin = Client::connect(addr);
    assert_eq!(admin.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);

    // The drain ran before the answer: the in-flight job completed in
    // full — every record streamed, terminal DONE, nothing truncated.
    let block = submitter.read_block();
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1, 2, 3, 4, 5, 6]),
        "drained stream"
    );
    assert_eq!(field(done_line(&block), "proved="), 7);

    // And the drained work is durable: the cache log holds all seven
    // entries, one group each.
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    assert_eq!(ProofCache::load(&text).expect("cache parses").len(), 7);
    assert_eq!(text.lines().filter(|l| l.starts_with("end ")).count(), 7);

    std::fs::remove_file(&cache_path).ok();
}

/// Two cold jobs on two connections race through the cache lock in
/// either order; each job's `DONE` means its entry is in the log, and
/// the log `SHUTDOWN` leaves holds exactly the entries a CLI sweep of
/// the same cells caches.
#[test]
fn concurrent_cold_jobs_leave_the_final_cache_on_disk() {
    let _jobs = runs_jobs();
    let cache_path = scratch_path("two_cold.cache");
    let (addr, mut first) = start_service(ProofCache::open(&cache_path).expect("cache log opens"));
    let mut second = Client::connect(addr);
    let matrix = tp_bench::shaped_matrix(Some(1));
    first.send("SUBMIT models=1 cells=0..1");
    second.send("SUBMIT models=1 cells=1..2");
    for (client, cell) in [(&mut first, 0), (&mut second, 1)] {
        let block = client.read_block();
        assert_eq!(
            stripped_records(&block),
            reference_records(Some(1), &[cell]),
            "cell {cell}'s stream"
        );
        let done = done_line(&block);
        assert_eq!(field(done, "missed="), 1, "{done}");
        // DONE means this job's entry is on disk already.
        let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
        let on_disk = tp_core::wire::parse_cells_meta(&text).expect("cache parses");
        assert!(
            on_disk
                .iter()
                .any(|(_, c, _, _)| *c == matrix.cells()[cell]),
            "cell {cell} on disk after {done}"
        );
    }
    assert_eq!(first.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);

    let mut reference = ProofCache::new();
    tp_bench::run_matrix_cells(&matrix, &[0, 1], Some(&mut reference), |_, _, _| {});
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    let on_disk = ProofCache::load(&text).expect("cache parses");
    assert_eq!(on_disk.len(), 2);
    assert_eq!(
        on_disk.save(),
        reference.save(),
        "the log holds the final entries"
    );

    std::fs::remove_file(&cache_path).ok();
}

#[test]
fn a_deadline_expiry_yields_err_records_and_an_expired_line_not_a_wedged_daemon() {
    let _counting = counts_telemetry();
    // The expiry counter needs a live sink (process-wide, idempotent).
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
    let (_addr, mut client) = start_service(ProofCache::new());

    // A cold seven-cell sweep cannot finish in a millisecond: the wait
    // expires, the unstreamed cells come back as err records, and the
    // terminal line is EXPIRED — the connection stays usable.
    let block = client.round_trip("SUBMIT models=1 cells=0..7 deadline_ms=1");
    let job = field(&block[0], "job=");
    let last = block.last().expect("terminal line").clone();
    assert!(
        last.starts_with(&format!("EXPIRED job={job} ")),
        "{block:?}"
    );
    assert_eq!(field(&last, "total="), 7, "{last}");
    let err_records = block
        .iter()
        .filter(|l| l.starts_with("REC err ") && l.contains("deadline%20expired"))
        .count() as u64;
    assert_eq!(
        field(&last, "streamed=") + err_records,
        7,
        "every cell accounted for: {block:?}"
    );

    // The sweep finishes in the background and still warms the cache.
    let line = wait_for_job(&mut client, job, |l| field(l, "done=") == 7);
    assert!(line.contains("state=expired"), "{line}");
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(field(done_line(&block), "hits="), 7, "{block:?}");

    // The expiry is visible on the counters.
    let metrics = client.round_trip("METRICS");
    let m = metrics
        .iter()
        .find(|l| l.starts_with("METRIC jobs_deadline_expired "))
        .expect("expiry counter reported");
    let expired: u64 = m.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(expired >= 1, "{m}");
}

#[test]
fn a_vanished_client_cancels_its_stream_but_the_sweep_still_warms_the_cache() {
    let _jobs = runs_jobs();
    let (addr, mut doomed) = start_service(ProofCache::new());
    doomed.send("SUBMIT models=1 cells=0..7");
    let first = doomed.read_line();
    assert!(first.starts_with("OK job="), "{first}");
    let job = field(&first, "job=");
    drop(doomed); // the client vanishes mid-stream

    // The failed record write cancels the job — but only its stream:
    // the sweep runs to completion and proves every cell.
    let mut admin = Client::connect(addr);
    let line = wait_for_job(&mut admin, job, |l| {
        l.contains("state=cancelled") && field(l, "done=") == 7
    });
    assert_eq!(field(&line, "failed="), 0, "{line}");

    // ... and that work landed in the cache.
    let block = admin.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(field(done_line(&block), "hits="), 7, "{block:?}");
}

#[test]
fn a_restart_over_a_torn_cache_log_drops_the_tail_and_resumes() {
    let _jobs = runs_jobs();
    let cache_path = scratch_path("torn.cache");

    // What a daemon killed mid-append leaves behind: four committed
    // groups and the first half of a fifth.
    let matrix = tp_bench::shaped_matrix(Some(1));
    let indices: Vec<usize> = (0..5).collect();
    let mut seeded = ProofCache::open(&cache_path).expect("cache log opens");
    tp_bench::run_matrix_cells(&matrix, &indices, Some(&mut seeded), |_, _, _| {});
    drop(seeded);
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    let fifth = text
        .match_indices("\nend ")
        .nth(3)
        .map(|(at, _)| at + text[at + 1..].find('\n').expect("end line ends") + 2)
        .expect("five groups");
    let cut = fifth + (text.len() - fifth) / 2;
    std::fs::write(&cache_path, &text[..cut]).expect("tear the tail");

    // The restarted daemon drops the torn group, serves the four
    // survivors as hits and re-proves the fifth cell.
    let cache = ProofCache::open(&cache_path).expect("a torn tail is not corruption");
    assert_eq!(cache.torn_dropped(), 1);
    assert_eq!(cache.len(), 4);
    let (_addr, mut client) = start_service(cache);
    let block = client.round_trip("SUBMIT models=1 cells=0..5");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &indices),
        "resumed stream"
    );
    let done = done_line(&block);
    assert_eq!(field(done, "hits="), 4, "{done}");
    assert_eq!(field(done, "missed="), 1, "{done}");

    // The re-proved cell was appended after committed bytes only.
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    let reloaded = ProofCache::load(&text).expect("the log parses whole again");
    assert_eq!((reloaded.len(), reloaded.torn_dropped()), (5, 0));
    std::fs::remove_file(&cache_path).ok();
}

//! The daemon: a TCP accept loop over shared service state.
//!
//! One OS thread per connection; every connection speaks the
//! [`crate::protocol`] grammar. Sweeps run on the process-wide
//! persistent worker pool ([`tp_sched::global`]), which survives
//! panicking proof tasks by contract (see `tp-sched`'s failure model) —
//! that contract is what lets a long-lived service exist at all: a
//! detonating cell becomes an `err` record in one job's stream, never a
//! dead worker.
//!
//! # Concurrency model
//!
//! Each submitted job runs its sweep on a dedicated *job thread* and
//! streams finished cells to the submitting connection over a channel.
//! The split is what makes the failure modes independent: the client
//! vanishing kills only the stream (the sweep completes and warms the
//! cache), and a wall-clock deadline expiring abandons only the wait
//! (the records the client never saw become `err` records in its
//! stream, never a wedged daemon).
//!
//! The proof cache is one [`Mutex`]: a cached job holds it for its
//! sweep, so concurrent cached jobs prove one at a time (the pool
//! underneath is already saturated by one sweep; interleaving two would
//! only shuffle latency around). What a job does under the lock is kept
//! small. Its cells' content keys come from a memo *before* it takes
//! the lock: a fault-free cell's key is fixed by the job's model count
//! and the cell's index for the daemon's lifetime, so each is derived
//! once, on first use, and a `fault=` cell's key is always derived
//! afresh. A hit is then a validated lookup plus a splice of the
//! entry's stored wire bytes — no key derivation, no rendering, no
//! write. `nocache` jobs skip the lock and run concurrently. `STATUS`,
//! `CANCEL` and `METRICS` never wait on a sweep: the first two touch
//! only the job registry, and `METRICS` reads an atomic copy of the
//! cache's entry count, which each cached job updates before it
//! releases the lock. The wait for the lock is timed as the
//! `cache-lock` span, once per cached job, and each append to the cache
//! file as the `persist` span. The `job` span times every job from its
//! `SUBMIT` line to the flush of its terminal line.
//!
//! # Cancellation and deadlines
//!
//! `CANCEL job=N` (or the submitting client disconnecting, or an
//! injected `serve.stream` fault) stops the job's *stream*:
//! already-queued proof tasks still complete on the pool (there is no
//! preemption mid-proof) and — for a cached job — still populate the
//! cache, so a cancelled sweep's work is not wasted. The submitting
//! connection gets `CANCELLED` as its terminal line instead of `DONE`.
//! `SUBMIT … deadline_ms=N` bounds the wall-clock wait: on expiry the
//! unstreamed cells are reported as `err` records and the terminal
//! line is `EXPIRED`, while the sweep itself keeps running in the
//! background (counted under `jobs_deadline_expired`).
//!
//! # Crash safety
//!
//! A cache opened on its file ([`ProofCache::open`], `--cache PATH`) is
//! an append-only log: each freshly proved cell's group is appended and
//! fsynced inside the sweep, under the cache lock, as the cell
//! completes — before its `REC` group is sent. So a cached job's `DONE`
//! means its cells are on disk, and an all-hit job writes nothing. A
//! daemon killed mid-job loses at most the cell in flight: the next
//! start drops a torn final group and serves the rest (every entry
//! still passes the validation gauntlet before a verdict is believed).
//! `SHUTDOWN` refuses new jobs, drains the in-flight ones, and only
//! then answers and exits; there is nothing left to write.
//!
//! # Transport
//!
//! Latency is set by the proofs, not by the TCP stack, because of
//! three rules:
//!
//! * Every accepted stream has `TCP_NODELAY` set. Without it, a record
//!   group sent while the `OK job=` line is still unacknowledged waits
//!   for the client's delayed ACK (~40 ms).
//! * Each connection writes through one buffered writer, and the buffer
//!   goes to the socket once per unit: once per `.`-terminated block,
//!   once after `OK job=`, once per run of consecutive cache hits, and
//!   once per proved cell's `REC` group. A run of hits is rendered by
//!   the job thread into one buffer and sent as one message; a proved
//!   cell still streams the moment it completes. Nothing is held back
//!   until `DONE`.
//! * The accept loop blocks in `accept()`. `SHUTDOWN` sets the shutdown
//!   flag and then connects once to the daemon's own address, so the
//!   blocked `accept()` returns and the loop sees the flag. Transient
//!   accept errors (an aborted handshake, a signal, descriptor
//!   exhaustion) are retried; only a dead listener ends the loop.
//!
//! A request line longer than [`MAX_LINE`] bytes is answered with
//! `ERR code=too-long` and the connection is closed, so no client can
//! make the daemon buffer an unbounded line. Before closing, the rest
//! of that line (up to [`MAX_DISCARD`] bytes) is read and dropped
//! without being stored: closing a socket with unread input resets
//! it, and the reset could reach the client ahead of the refusal.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tp_core::engine::MatrixCell;
use tp_core::noninterference::NiScenario;
use tp_core::{wire, CacheStats, CellKey, CellOutcome, ProofCache, ScenarioMatrix};
use tp_kernel::program::{Instr, Program, StepFeedback};
use tp_telemetry::SpanKind;

use crate::protocol::{parse_request, Request, SubmitSpec};

/// How long the accept loop backs off when the process (or system)
/// is out of file descriptors, before accepting again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);
/// Finished jobs kept in the registry for `STATUS` history.
const JOB_HISTORY: usize = 64;
/// Fault point fired once per streamed record message (one proved
/// cell's group, or a run of hits) on the connection side; `ioerr`
/// simulates the client dropping mid-stream.
const STREAM_POINT: &str = "serve.stream";
/// The longest request line read, in bytes before its newline. Valid
/// requests are under 200 bytes.
const MAX_LINE: usize = 4096;
/// The most of an over-long line's remainder read and dropped before
/// its connection is closed.
const MAX_DISCARD: u64 = 1 << 20;

/// How long `SHUTDOWN` waits for in-flight jobs before giving up on
/// them (`TP_SERVE_DRAIN_MS` overrides; tests shrink it).
fn drain_window() -> Duration {
    std::env::var("TP_SERVE_DRAIN_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(30))
}

/// Recover a poisoned lock: the guarded values (cache, job registry)
/// are structurally valid between mutations, so a handler thread that
/// panicked mid-critical-section leaves consistent state behind — the
/// same stance the scheduler pool takes on its injector.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fault-injection payload: a program that detonates on its first
/// step. Exercises the containment path end to end — the panic unwinds
/// inside a pool worker, surfaces as the cell's `err` record, and the
/// daemon keeps serving.
#[derive(Debug, Clone)]
struct PanickingProgram;

impl Program for PanickingProgram {
    fn next(&mut self, _feedback: &StepFeedback) -> Instr {
        panic!("injected fault: program detonated")
    }
}

/// Live progress of one submitted sweep, shared between the running
/// job and `STATUS`/`CANCEL` handlers on other connections.
struct JobState {
    cancelled: AtomicBool,
    expired: AtomicBool,
    finished: AtomicBool,
    done: AtomicUsize,
    failed: AtomicUsize,
}

/// Registry entry for one job.
struct JobEntry {
    id: u64,
    cells: usize,
    state: Arc<JobState>,
}

/// State shared by every connection handler.
struct Shared {
    cache: Mutex<ProofCache>,
    /// `cache.len()` as of the last cached sweep, stored under the
    /// cache lock, so readers that only need the count never take it.
    cache_entries: AtomicUsize,
    jobs: Mutex<Vec<JobEntry>>,
    next_job: AtomicU64,
    /// Jobs registered but not yet finished — what `SHUTDOWN` drains.
    active_jobs: AtomicUsize,
    /// Set first (under the jobs lock): refuse new jobs, keep serving.
    draining: AtomicBool,
    /// Set last, after the drain: stops the accept loop.
    shutdown: AtomicBool,
    /// Where `SHUTDOWN` connects to wake the blocked accept loop.
    wake: SocketAddr,
    /// Fault-free cells' cache addresses under (model count, cell
    /// index): at most 5 × 21 entries, filled on first use.
    keys: Mutex<HashMap<(usize, usize), Option<CellKey>>>,
}

impl Shared {
    /// Register a new job and hand back its id and live state, or
    /// `None` when the daemon is draining for shutdown. The check and
    /// the registration share the jobs lock, so a job is either seen
    /// by the drain or refused — never missed between the two.
    fn register_job(&self, cells: usize) -> Option<(u64, Arc<JobState>)> {
        let mut jobs = lock(&self.jobs);
        if self.draining.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_job.fetch_add(1, Ordering::SeqCst);
        let state = Arc::new(JobState {
            cancelled: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        });
        // Bound the registry: drop the oldest *finished* entries once
        // past the history window; running jobs are never evicted.
        while jobs.len() >= JOB_HISTORY {
            match jobs
                .iter()
                .position(|j| j.state.finished.load(Ordering::SeqCst))
            {
                Some(i) => {
                    jobs.remove(i);
                }
                None => break,
            }
        }
        jobs.push(JobEntry {
            id,
            cells,
            state: Arc::clone(&state),
        });
        self.active_jobs.fetch_add(1, Ordering::SeqCst);
        Some((id, state))
    }

    /// The cache address of cell `ci` of `matrix` under the canonical
    /// scenario, from the memo or derived and memoised. Every input the
    /// key folds — machine, protection, models, scenario, proof mode —
    /// is fixed by the model count and the index, so the entry stays
    /// right for the daemon's lifetime. A faulted cell's scenario
    /// differs; never call this for one.
    fn cell_key(&self, matrix: &ScenarioMatrix, ci: usize) -> Option<CellKey> {
        let slot = (matrix.models().len(), ci);
        if let Some(key) = lock(&self.keys).get(&slot) {
            return key.clone();
        }
        // Derived outside the memo lock; two jobs racing here derive
        // the same key.
        let key = matrix.cell_key(&matrix.cell(ci), |c| {
            tp_bench::canonical_scenario(c.disable)
        });
        lock(&self.keys).insert(slot, key.clone());
        key
    }
}

/// Decrements the active-job count when the job thread ends, however
/// it ends — the drop guard is what keeps a panicking sweep from
/// wedging `SHUTDOWN`'s drain forever.
struct ActiveGuard(Arc<Shared>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One message from a job thread to its submitting connection.
enum Msg {
    /// `REC` lines ready for the socket: one proved or failed cell's
    /// record group, or a run of consecutive hits' groups.
    Rec {
        text: String,
        /// How many cells' groups `text` holds.
        groups: usize,
    },
    /// The sweep finished; everything the terminal line needs.
    Done {
        proved: usize,
        failed: usize,
        stats: CacheStats,
        entries: usize,
    },
}

/// The resident proof service: bind once, [`Server::serve`] until a
/// client sends `SHUTDOWN`.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) fronting
    /// `cache`. A cache opened on its file ([`ProofCache::open`]) keeps
    /// appending each cell a cached job proves to that file, so warm
    /// state survives daemon restarts and crashes; a [`ProofCache::new`]
    /// cache lives in memory only.
    pub fn bind(addr: &str, cache: ProofCache) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let wake = wake_addr(listener.local_addr()?);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache_entries: AtomicUsize::new(cache.len()),
                cache: Mutex::new(cache),
                jobs: Mutex::new(Vec::new()),
                next_job: AtomicU64::new(1),
                active_jobs: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                wake,
                keys: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The address actually bound (resolves an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until `SHUTDOWN`. Each connection
    /// gets its own thread; a handler that dies takes down only its
    /// connection. Returns once the shutdown flag is observed — and
    /// because the `SHUTDOWN` handler sets it only *after* draining
    /// in-flight jobs, whose proved cells are already on disk, returning
    /// here is already safe to exit on. `Err` means the listener itself is
    /// dead; transient accept errors are retried.
    pub fn serve(&self) -> io::Result<()> {
        loop {
            let accepted = self.listener.accept();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    let spawned = std::thread::Builder::new()
                        .name("tp-serve-conn".into())
                        .spawn(move || handle_conn(stream, &shared));
                    if let Err(e) = spawned {
                        // The stream dropped with the closure: only
                        // this client is refused.
                        eprintln!("tp-serve: cannot spawn connection thread: {e}");
                    }
                }
                Err(e) => match accept_retry_delay(&e) {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(e),
                },
            }
        }
    }
}

/// POSIX `ENFILE` / `EMFILE` (the same numbers on Linux and the BSDs):
/// the system or the process is out of file descriptors.
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

/// Whether an `accept()` error is transient, and if so how long to
/// wait before accepting again; `None` means the listener is dead. A
/// client that aborted its handshake or a signal costs nothing;
/// descriptor exhaustion backs off, because in-flight jobs will free
/// descriptors as they finish.
fn accept_retry_delay(e: &io::Error) -> Option<Duration> {
    match e.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted => Some(Duration::ZERO),
        _ if matches!(e.raw_os_error(), Some(ENFILE | EMFILE)) => Some(ACCEPT_BACKOFF),
        _ => None,
    }
}

/// The address `SHUTDOWN` connects to in order to wake the accept
/// loop: the bound address, with an unspecified IP (`0.0.0.0`, `::`)
/// mapped to loopback, which such a listener also accepts on.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Serve one accepted connection (see the module's transport rules).
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    // Best effort: a socket that refuses the option still works, only
    // slower.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    serve_lines(BufReader::new(read_half), stream, shared);
}

/// One request per line until EOF, shutdown, an over-long line, or an
/// I/O failure (a vanished client just ends its own handler). Every
/// response goes through one [`BufWriter`] that is flushed only at the
/// end of a block or record message, so each reaches `out` in one
/// write.
fn serve_lines(mut reader: impl BufRead, out: impl Write, shared: &Arc<Shared>) {
    let mut out = BufWriter::new(out);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells a full-length line from a longer one.
        let limit = MAX_LINE as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE {
            let _ = err_block(
                &mut out,
                "too-long",
                &format!("request line exceeds {MAX_LINE} bytes"),
            );
            discard_line(reader);
            return;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return;
        };
        match dispatch(line, shared, &mut out) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
    }
}

/// Read and drop `reader`'s input through the next newline, at most
/// [`MAX_DISCARD`] bytes, keeping none of it.
fn discard_line(reader: impl BufRead) {
    let mut rest = reader.take(MAX_DISCARD);
    loop {
        let Ok(chunk) = rest.fill_buf() else { return };
        if chunk.is_empty() {
            return;
        }
        let (n, found) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        rest.consume(n);
        if found {
            return;
        }
    }
}

/// Terminate a response block and send it.
fn end_block<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out, ".")?;
    out.flush()
}

/// Emit an `ERR` block.
fn err_block<W: Write>(out: &mut W, code: &str, msg: &str) -> io::Result<()> {
    writeln!(out, "ERR code={code} msg={msg}")?;
    end_block(out)
}

/// Handle one request line. `Ok(false)` ends the connection (after
/// `SHUTDOWN`); `Err` means the client is gone.
fn dispatch<W: Write>(line: &str, shared: &Arc<Shared>, out: &mut W) -> io::Result<bool> {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            err_block(out, "malformed", &msg)?;
            return Ok(true);
        }
    };
    match req {
        Request::Ping => {
            writeln!(out, "OK pong")?;
            end_block(out)?;
        }
        Request::Submit(spec) => run_submit(shared, spec, out)?,
        Request::Status => {
            let jobs = lock(&shared.jobs);
            writeln!(out, "OK jobs={}", jobs.len())?;
            for j in jobs.iter() {
                let state = if j.state.expired.load(Ordering::SeqCst) {
                    "expired"
                } else if j.state.cancelled.load(Ordering::SeqCst) {
                    "cancelled"
                } else if j.state.finished.load(Ordering::SeqCst) {
                    "done"
                } else {
                    "running"
                };
                writeln!(
                    out,
                    "JOB id={} state={} cells={} done={} failed={}",
                    j.id,
                    state,
                    j.cells,
                    j.state.done.load(Ordering::SeqCst),
                    j.state.failed.load(Ordering::SeqCst),
                )?;
            }
            drop(jobs);
            end_block(out)?;
        }
        Request::Cancel { job } => {
            let jobs = lock(&shared.jobs);
            match jobs.iter().find(|j| j.id == job) {
                Some(j) => {
                    j.state.cancelled.store(true, Ordering::SeqCst);
                    drop(jobs);
                    writeln!(out, "OK cancelled job={job}")?;
                    end_block(out)?;
                }
                None => {
                    drop(jobs);
                    err_block(out, "unknown-job", &format!("no job {job}"))?;
                }
            }
        }
        Request::Metrics => match tp_telemetry::snapshot() {
            None => err_block(out, "no-telemetry", "no telemetry sink installed")?,
            Some(snap) => {
                writeln!(out, "OK metrics")?;
                for c in tp_telemetry::Counter::ALL {
                    writeln!(out, "METRIC {} {}", c.name(), snap.counter(c))?;
                }
                writeln!(out, "METRIC pool_peak_queue {}", snap.peak_queue)?;
                let entries = shared.cache_entries.load(Ordering::SeqCst);
                writeln!(out, "METRIC cache_entries {entries}")?;
                for k in tp_telemetry::SpanKind::ALL {
                    let (n, total_us) = snap.span(k);
                    writeln!(out, "SPAN {} n={n} total_us={total_us}", k.name())?;
                }
                end_block(out)?;
            }
        },
        Request::Shutdown => {
            // Refuse new jobs from this instant (the flag is set under
            // the jobs lock, so no SUBMIT can slip between the check
            // and its registration), then drain the in-flight ones.
            {
                let _jobs = lock(&shared.jobs);
                shared.draining.store(true, Ordering::SeqCst);
            }
            let give_up = Instant::now() + drain_window();
            while shared.active_jobs.load(Ordering::SeqCst) > 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(5));
            }
            if shared.active_jobs.load(Ordering::SeqCst) > 0 {
                eprintln!("tp-serve: drain window expired with jobs still running");
            }
            writeln!(out, "OK shutting-down")?;
            end_block(out)?;
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop blocked in `accept()`: it sees the
            // flag as soon as this connection lands.
            if let Err(e) = TcpStream::connect(shared.wake) {
                eprintln!("tp-serve: cannot wake the accept loop: {e}");
            }
            return Ok(false);
        }
    }
    Ok(true)
}

/// Wrap a scenario so the Hi domain's program detonates on its first
/// step — the panic fires inside a pool worker during stepping, which
/// is exactly where a real modelling bug would.
fn detonate_hi(scenario: NiScenario) -> NiScenario {
    let NiScenario {
        mcfg,
        make_kcfg,
        lo,
        secrets,
        budget,
        max_steps,
    } = scenario;
    NiScenario {
        mcfg,
        make_kcfg: Box::new(move |secret| {
            let mut k = make_kcfg(secret);
            k.domains[1].program = Box::new(PanickingProgram);
            k
        }),
        lo,
        secrets,
        budget,
        max_steps,
    }
}

/// `rec`'s lines, each led by `REC `: one cell's group as it goes on
/// the wire.
fn rec_group(rec: &str) -> String {
    let mut out = String::with_capacity(rec.len() + 4 * rec.lines().count());
    for l in rec.lines() {
        out.push_str("REC ");
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Send ready `REC` lines in one write.
fn send_recs<W: Write>(out: &mut W, text: &str) -> io::Result<()> {
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Run one `SUBMIT`: spawn the sweep on a job thread, stream `REC`
/// lines back as cells complete, then the `DONE`/`CANCELLED`/`EXPIRED`
/// terminal line. The sweep construction mirrors `matrix --worker`
/// exactly — same [`tp_bench::shaped_matrix`], same
/// [`tp_bench::canonical_scenario`] — so the stripped `REC` payload is
/// byte-identical to that binary's stdout for the same subset. A job
/// that reaches its terminal line is timed as the `job` span.
fn run_submit<W: Write>(shared: &Arc<Shared>, spec: SubmitSpec, out: &mut W) -> io::Result<()> {
    let submitted = tp_telemetry::span_start();
    let matrix = tp_bench::shaped_matrix(spec.models);
    let total = matrix.cells().len();
    let indices: Vec<usize> = match spec.cells {
        Some(sel) => sel,
        None => (0..total).collect(),
    };
    if let Some(&bad) = indices.iter().find(|&&i| i >= total) {
        return err_block(
            out,
            "malformed",
            &format!("cell {bad} out of range (matrix has {total} cells)"),
        );
    }
    let fault_cell: Option<MatrixCell> = match spec.fault {
        None => None,
        Some(i) if i < total => Some(matrix.cells()[i].clone()),
        Some(i) => {
            return err_block(
                out,
                "malformed",
                &format!("fault cell {i} out of range (matrix has {total} cells)"),
            );
        }
    };

    let Some((job_id, job)) = shared.register_job(indices.len()) else {
        return err_block(out, "shutting-down", "daemon is draining");
    };
    writeln!(out, "OK job={job_id} cells={}", indices.len())?;
    out.flush()?;

    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (tx, rx) = mpsc::channel::<Msg>();
    let worker_shared = Arc::clone(shared);
    let js = Arc::clone(&job);
    let nocache = spec.nocache;
    let job_indices = indices.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("tp-serve-job-{job_id}"))
        .spawn(move || {
            run_job(
                &worker_shared,
                job_id,
                &js,
                &matrix,
                &job_indices,
                nocache,
                fault_cell,
                &tx,
            )
        });
    if let Err(e) = spawned {
        shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
        job.finished.store(true, Ordering::SeqCst);
        eprintln!("tp-serve: cannot spawn job thread: {e}");
        return err_block(out, "internal", "cannot spawn job thread");
    }
    let forwarded = forward_job(out, &rx, job_id, &job, &indices, deadline);
    if let (Ok(()), Some(start)) = (&forwarded, submitted) {
        tp_telemetry::span(SpanKind::Job, job_id as usize, None, start);
    }
    forwarded
}

/// The connection side of a job: forward its records, watch the
/// deadline, and turn a vanished client into a cancellation instead of
/// an abort. `Ok` means the terminal line was sent.
fn forward_job<W: Write>(
    out: &mut W,
    rx: &mpsc::Receiver<Msg>,
    job_id: u64,
    job: &JobState,
    indices: &[usize],
    deadline: Option<Instant>,
) -> io::Result<()> {
    // Cells whose groups have arrived, in `indices` order.
    let mut streamed = 0usize;
    let mut io_err: Option<io::Error> = None;
    loop {
        let msg = match deadline {
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(m) => m,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // The job blew its wall-clock budget: stop
                        // waiting, report every unstreamed cell as an
                        // err record, and leave the sweep to finish in
                        // the background (its work still warms the
                        // cache — the daemon is never wedged).
                        job.cancelled.store(true, Ordering::SeqCst);
                        job.expired.store(true, Ordering::SeqCst);
                        tp_telemetry::count(tp_telemetry::Counter::JobsDeadlineExpired);
                        if io_err.is_none() {
                            for &ci in &indices[streamed..] {
                                let mut rec = String::new();
                                wire::write_cell_error(&mut rec, ci, "deadline expired");
                                send_recs(out, &rec_group(&rec))?;
                            }
                            writeln!(
                                out,
                                "EXPIRED job={job_id} streamed={streamed} total={}",
                                indices.len()
                            )?;
                            return end_block(out);
                        }
                        return Err(io_err.expect("checked above"));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match msg {
            Msg::Rec { text, groups } => {
                streamed += groups;
                if io_err.is_some() || job.cancelled.load(Ordering::SeqCst) {
                    continue;
                }
                let injected = matches!(
                    tp_core::faultpoint::fire(STREAM_POINT),
                    Some(tp_core::faultpoint::Fault::IoError)
                );
                let sent = if injected {
                    Err(tp_core::faultpoint::injected_io_error(STREAM_POINT))
                } else {
                    send_recs(out, &text)
                };
                if let Err(e) = sent {
                    // Client gone mid-stream: cancel the job so the
                    // sweep stops rendering records; queued proof work
                    // still completes and warms the cache.
                    job.cancelled.store(true, Ordering::SeqCst);
                    io_err = Some(e);
                }
            }
            Msg::Done {
                proved,
                failed,
                stats,
                entries,
            } => {
                if let Some(e) = io_err {
                    return Err(e);
                }
                if job.cancelled.load(Ordering::SeqCst) {
                    writeln!(out, "CANCELLED job={job_id}")?;
                    return end_block(out);
                }
                writeln!(
                    out,
                    "DONE job={job_id} proved={proved} failed={failed} hits={} missed={} rejected={} uncacheable={} entries={entries}",
                    stats.hits, stats.misses, stats.rejected, stats.uncacheable,
                )?;
                return end_block(out);
            }
        }
    }
    // The channel died without a Done: the job thread panicked.
    match io_err {
        Some(e) => Err(e),
        None => err_block(out, "internal", "sweep thread died"),
    }
}

/// The job-thread body: run the sweep (cached or not), stream each
/// proved cell, and each run of consecutive hits, over `tx` as one
/// message, and finish with a [`Msg::Done`]. A cached sweep appends
/// each cell it proves to the cache's file as the cell completes.
/// Runs to completion even when nobody is listening — a cancelled or
/// expired job still warms the cache. `fault` is the cell whose Hi
/// program detonates, if any.
#[allow(clippy::too_many_arguments)]
fn run_job(
    shared: &Arc<Shared>,
    job_id: u64,
    job: &Arc<JobState>,
    matrix: &ScenarioMatrix,
    indices: &[usize],
    nocache: bool,
    fault: Option<MatrixCell>,
    tx: &mpsc::Sender<Msg>,
) {
    let _active = ActiveGuard(Arc::clone(shared));
    let make_scenario = |cell: &MatrixCell| -> NiScenario {
        let scenario = tp_bench::canonical_scenario(cell.disable);
        if fault.as_ref() == Some(cell) {
            detonate_hi(scenario)
        } else {
            scenario
        }
    };
    // The run of hits gathered so far, as ready `REC` lines.
    let mut hits = String::new();
    let mut hit_groups = 0usize;
    let (mut proved, mut failed) = (0usize, 0usize);
    let emit = |i: usize, cell: &MatrixCell, outcome: CellOutcome<'_>| {
        job.done.fetch_add(1, Ordering::SeqCst);
        if matches!(outcome, CellOutcome::Live(Err(_))) {
            failed += 1;
            job.failed.fetch_add(1, Ordering::SeqCst);
        } else {
            proved += 1;
        }
        if job.cancelled.load(Ordering::SeqCst) {
            return; // nobody is listening: skip the rendering work
        }
        // A send failure means the receiver gave up (deadline); the
        // sweep still runs to completion for the cache's sake.
        match outcome {
            CellOutcome::Hit {
                body, next_is_hit, ..
            } => {
                wire::write_stored_cell(&mut hits, "REC ", i, body);
                hit_groups += 1;
                if !next_is_hit {
                    let _ = tx.send(Msg::Rec {
                        text: std::mem::take(&mut hits),
                        groups: std::mem::take(&mut hit_groups),
                    });
                }
            }
            CellOutcome::Live(Ok(report)) => {
                let mut rec = String::new();
                wire::write_cell(&mut rec, i, cell, &report);
                let _ = tx.send(Msg::Rec {
                    text: rec_group(&rec),
                    groups: 1,
                });
            }
            CellOutcome::Live(Err(msg)) => {
                let mut rec = String::new();
                wire::write_cell_error(&mut rec, i, &msg);
                let _ = tx.send(Msg::Rec {
                    text: rec_group(&rec),
                    groups: 1,
                });
            }
        }
    };

    let (stats, entries) = if nocache {
        let r = matrix.sweep_keyed(tp_sched::global(), indices, &[], None, make_scenario, emit);
        (r, shared.cache_entries.load(Ordering::SeqCst))
    } else {
        // Keys before the lock: memoised for fault-free cells, derived
        // by the sweep for a faulted one.
        let keys: Vec<Option<CellKey>> = indices
            .iter()
            .map(|&ci| match &fault {
                Some(f) if matrix.cell(ci) == *f => None,
                _ => shared.cell_key(matrix, ci),
            })
            .collect();
        // A cached job waits here for any other cached job's sweep.
        let wait = tp_telemetry::span_start();
        let mut cache = lock(&shared.cache);
        if let Some(start) = wait {
            tp_telemetry::span(SpanKind::CacheLock, job_id as usize, None, start);
        }
        let r = matrix.sweep_keyed(
            tp_sched::global(),
            indices,
            &keys,
            Some(&mut cache),
            make_scenario,
            emit,
        );
        if let Some(e) = cache.take_log_error() {
            eprintln!("tp-serve: cache append failed in job {job_id}: {e}; appends stop");
        }
        let n = cache.len();
        shared.cache_entries.store(n, Ordering::SeqCst);
        (r, n)
    };
    job.finished.store(true, Ordering::SeqCst);
    let _ = tx.send(Msg::Done {
        proved,
        failed,
        stats,
        entries,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that keeps every `write` call it receives as one chunk,
    /// so a test can count socket writes exactly, with no clock.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A daemon's shared state; its listener is never accepted on.
    fn shared() -> Arc<Shared> {
        let server = Server::bind("127.0.0.1:0", ProofCache::new()).expect("loopback binds");
        server.shared
    }

    /// Serve `requests` (one per line) on a connection's write path and
    /// return each write the transport received.
    fn writes(shared: &Arc<Shared>, requests: &str) -> Vec<String> {
        let mut w = Writes::default();
        serve_lines(requests.as_bytes(), &mut w, shared);
        w.0.into_iter()
            .map(|chunk| String::from_utf8(chunk).expect("responses are text"))
            .collect()
    }

    #[test]
    fn every_response_block_is_one_write() {
        tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
        let shared = shared();
        assert_eq!(writes(&shared, "PING\n"), ["OK pong\n.\n"]);
        assert_eq!(writes(&shared, "STATUS\n"), ["OK jobs=0\n.\n"]);
        assert_eq!(
            writes(&shared, "FROB\n"),
            ["ERR code=malformed msg=unknown command \"FROB\"\n.\n"]
        );
        let metrics = writes(&shared, "METRICS\n");
        assert_eq!(metrics.len(), 1, "{metrics:?}");
        assert!(metrics[0].starts_with("OK metrics\n"), "{metrics:?}");
        assert!(metrics[0].contains("\nSPAN cache-lock n="), "{metrics:?}");
        assert!(metrics[0].ends_with("\n.\n"), "{metrics:?}");
        // Several requests on one connection: still one write per
        // block, neither merged nor split.
        assert_eq!(
            writes(&shared, "PING\nSTATUS\nPING\n"),
            ["OK pong\n.\n", "OK jobs=0\n.\n", "OK pong\n.\n"]
        );
    }

    /// The wire group of each of `indices`, proved live, as `REC` lines.
    fn rec_groups(indices: &[usize]) -> Vec<String> {
        let matrix = tp_bench::shaped_matrix(Some(1));
        let (outcomes, _) = tp_bench::run_matrix_cells(&matrix, indices, None, |_, _, _| {});
        tp_core::proved_cells(outcomes)
            .expect("every cell proves")
            .iter()
            .map(|(i, cell, report)| {
                let mut rec = String::new();
                wire::write_cell(&mut rec, *i, cell, report);
                rec_group(&rec)
            })
            .collect()
    }

    /// Between `OK job=` and `DONE` + `.`, each proved cell's group is
    /// one write and each run of consecutive hits is one write.
    #[test]
    fn a_cached_submit_is_one_write_per_proved_group_or_run_of_hits() {
        let shared = shared();
        let [g0, g1, g2]: [String; 3] = rec_groups(&[0, 1, 2]).try_into().expect("three groups");
        let ok = |job: u64, cells: usize| format!("OK job={job} cells={cells}\n");
        let done = |job: u64, cells: usize, counts: &str| {
            format!("DONE job={job} proved={cells} failed=0 {counts}\n.\n")
        };

        // Cold: one write per proved group.
        assert_eq!(
            writes(&shared, "SUBMIT models=1 cells=0,2\n"),
            [
                ok(1, 2),
                g0.clone(),
                g2.clone(),
                done(1, 2, "hits=0 missed=2 rejected=0 uncacheable=0 entries=2"),
            ]
        );
        // Warm: the whole run of hits is one write.
        assert_eq!(
            writes(&shared, "SUBMIT models=1 cells=0,2\n"),
            [
                ok(2, 2),
                format!("{g0}{g2}"),
                done(2, 2, "hits=2 missed=0 rejected=0 uncacheable=0 entries=2"),
            ]
        );
        // Hit, miss, hit: the proved cell splits the hits into two runs.
        assert_eq!(
            writes(&shared, "SUBMIT models=1 cells=0..3\n"),
            [
                ok(3, 3),
                g0,
                g1,
                g2,
                done(3, 3, "hits=2 missed=1 rejected=0 uncacheable=0 entries=3"),
            ]
        );
        assert_eq!(shared.cache_entries.load(Ordering::SeqCst), 3);
    }

    /// The key memo starts empty, fills on first use, holds one entry per
    /// (effective model count, cell), and agrees with the sweep's own
    /// derivation.
    #[test]
    fn the_key_memo_fills_lazily_and_holds_at_most_one_key_per_model_count_and_cell() {
        let shared = shared();
        assert!(lock(&shared.keys).is_empty(), "nothing is derived at bind");
        for models in [Some(1), Some(2), Some(3), Some(4), Some(5), Some(99), None] {
            let matrix = tp_bench::shaped_matrix(models);
            for (ci, cell) in matrix.cells().iter().enumerate() {
                let key = shared.cell_key(&matrix, ci);
                let derived = matrix.cell_key(cell, |c| tp_bench::canonical_scenario(c.disable));
                assert_eq!(key, derived, "models {models:?} cell {ci}");
                assert!(key.is_some(), "canonical cells are cacheable");
            }
        }
        let memo = lock(&shared.keys);
        assert_eq!(
            memo.len(),
            5 * 21,
            "models=99 and the default share models=5's keys"
        );
        assert!(memo.keys().all(|&(m, ci)| (1..=5).contains(&m) && ci < 21));
    }

    /// A request line past [`MAX_LINE`] bytes gets `ERR code=too-long`
    /// and ends the connection once the rest of the line, and no more,
    /// is read (at most [`MAX_DISCARD`] bytes of it); a line of exactly
    /// the cap is read.
    #[test]
    fn an_over_long_request_line_is_refused_and_closes_the_connection() {
        let shared = shared();
        let long = format!("{}\nPING\n", "x".repeat(MAX_LINE + 1));
        assert_eq!(
            writes(&shared, &long),
            [format!(
                "ERR code=too-long msg=request line exceeds {MAX_LINE} bytes\n.\n"
            )]
        );
        for (len, left) in [
            (MAX_LINE + 1, "PING\n".len()),
            (25 * MAX_LINE, "PING\n".len()),
            (
                MAX_LINE + 1 + MAX_DISCARD as usize + 10,
                10 + "\nPING\n".len(),
            ),
        ] {
            let long = format!("{}\nPING\n", "x".repeat(len));
            let mut input = long.as_bytes();
            serve_lines(&mut input, io::sink(), &shared);
            assert_eq!(input.len(), left, "a {len}-byte line");
        }
        let at_cap = format!("PING{}\r\nPING\n", " ".repeat(MAX_LINE - 5));
        assert_eq!(writes(&shared, &at_cap), ["OK pong\n.\n", "OK pong\n.\n"]);
    }

    /// `METRICS` reads the mirrored entry count, so a sweep holding the
    /// cache lock cannot stall it. The timeout only separates "returned"
    /// from "deadlocked"; it bounds no latency.
    #[test]
    fn metrics_answers_while_the_cache_is_locked() {
        tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
        let shared = shared();
        let held = lock(&shared.cache);
        let (tx, rx) = mpsc::channel();
        let conn = Arc::clone(&shared);
        let conn_thread = std::thread::spawn(move || tx.send(writes(&conn, "METRICS\n")));
        let metrics = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("METRICS must not wait for the cache lock");
        drop(held);
        conn_thread
            .join()
            .expect("connection thread")
            .expect("receiver alive");
        assert_eq!(metrics.len(), 1, "{metrics:?}");
        assert!(
            metrics[0].contains("\nMETRIC cache_entries 0\n"),
            "{metrics:?}"
        );
    }

    /// A cached job appends each cell it proves to the cache log — one
    /// group per proved cell, on disk by the time `DONE` is written — and
    /// an all-hit job appends nothing.
    #[test]
    fn a_cached_job_appends_each_proved_cell_and_a_warm_job_appends_nothing() {
        let path =
            std::env::temp_dir().join(format!("tp_serve_unit_{}_append.cache", std::process::id()));
        std::fs::remove_file(&path).ok();
        let cache = ProofCache::open(&path).expect("cache log opens");
        let shared = Server::bind("127.0.0.1:0", cache)
            .expect("loopback binds")
            .shared;
        let groups = || {
            std::fs::read_to_string(&path)
                .expect("cache log readable")
                .lines()
                .filter(|l| l.starts_with("end "))
                .count()
        };
        for (request, appended) in [
            ("SUBMIT models=1 cells=0,2\n", 2),
            ("SUBMIT models=1 cells=0,2\n", 2),
            ("SUBMIT models=1 cells=0..3\n", 3),
            ("SUBMIT models=1 cells=0..3 nocache\n", 3),
        ] {
            let done = writes(&shared, request).pop().expect("a terminal write");
            assert!(done.starts_with("DONE "), "{request}: {done}");
            assert_eq!(groups(), appended, "{request}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_accept_errors_are_retried_and_a_dead_listener_is_not() {
        use io::ErrorKind::*;
        for kind in [ConnectionAborted, ConnectionReset, Interrupted] {
            assert_eq!(
                accept_retry_delay(&io::Error::from(kind)),
                Some(Duration::ZERO),
                "{kind:?}"
            );
        }
        for errno in [ENFILE, EMFILE] {
            assert_eq!(
                accept_retry_delay(&io::Error::from_raw_os_error(errno)),
                Some(ACCEPT_BACKOFF),
                "errno {errno}"
            );
        }
        assert_eq!(accept_retry_delay(&io::Error::from(InvalidInput)), None);
        assert_eq!(accept_retry_delay(&io::Error::from(PermissionDenied)), None);
    }

    #[test]
    fn shutdown_wakes_the_listener_over_loopback_when_bound_unspecified() {
        for (bound, wake) in [
            ("0.0.0.0:7477", "127.0.0.1:7477"),
            ("[::]:7477", "[::1]:7477"),
            ("127.0.0.1:7477", "127.0.0.1:7477"),
            ("192.0.2.5:9", "192.0.2.5:9"),
        ] {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), wake.parse::<SocketAddr>().unwrap());
        }
    }
}

//! The serve-mixed workload: a resident `tp-serve --threads 2 --cache F
//! --journal D`, started with an empty cache and driven by this one
//! client process over two connections in a closed loop.
//!
//! The seed fixes a sequence of `SUBMIT` jobs over `models=1..5` × cell
//! lists. A *cold* job asks for exactly one (models, cell) key that no
//! earlier job used; a *warm* job asks only for keys earlier jobs proved,
//! so its `DONE` line reads `missed=0 rejected=0`. A job is sent only
//! after the jobs that introduced its keys have finished, so each job's
//! class, and the round's hit and miss totals, are fixed by the seed
//! whatever the interleaving of the two connections.
//!
//! The mix follows from two stated shapes rather than tuned rates:
//!
//! * every one of the 5 × 21 = 105 keys is introduced exactly once, so a
//!   round ends with the whole matrix cached at every model count;
//! * all-hit jobs are the majority, with the fewest warm jobs per cold
//!   one that makes them so (two). A warm job does what the CI service
//!   smoke test's warm pass does: it asks again for the whole subset
//!   proved so far, here every known cell of one seeded model count.
//!
//! A round is therefore 105 cold and 210 warm jobs (cold share 1/3).

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::json::Obj;
use crate::workloads::MATRIX_CELLS;
use crate::Args;

/// Time models a job may ask for: `models=1..=MODELS`.
const MODELS: usize = 5;
/// Warm jobs after each cold one: the fewest that make all-hit jobs the
/// majority of a round.
const WARM_PER_COLD: usize = 2;
/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Rounds per run, at the least: each one is a fresh set-up.
const MIN_ROUNDS: usize = 3;
/// Extra set-ups (start, connect, `PING`, shut down) per run, for a
/// steady set-up median.
const SETUP_SAMPLES: usize = 30;
/// A reply slower than this counts the connection as broken.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause between the daemon's banner and the first connect (see `start`).
const ACCEPT_SETTLE: Duration = Duration::from_millis(5);
/// How long a shut-down daemon may take to exit before it is killed.
const EXIT_WAIT: Duration = Duration::from_secs(30);

/// splitmix64: a small, seedable, portable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One `SUBMIT` of the sequence.
pub struct Job {
    pub models: usize,
    /// Sorted, distinct cell indices.
    pub cells: Vec<usize>,
    /// Keys this job proves first (0 for a warm job, 1 for a cold one).
    pub new_keys: usize,
    /// Jobs that introduced this job's other keys; they finish first.
    pub deps: Vec<usize>,
}

impl Job {
    pub fn cold(&self) -> bool {
        self.new_keys > 0
    }

    fn spec(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(usize::to_string).collect();
        cells.join(",")
    }
}

/// The seed's job sequence: the 105 keys in a seeded order, each brought
/// in by a cold job for that one cell and followed by `WARM_PER_COLD`
/// warm jobs, each for every known cell of a seeded model count.
pub fn job_sequence(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut fresh: Vec<(usize, usize)> = (1..=MODELS)
        .flat_map(|k| (0..MATRIX_CELLS).map(move |c| (k, c)))
        .collect();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i + 1));
    }
    let mut introduced_by: HashMap<(usize, usize), usize> = HashMap::new();
    let mut known: Vec<Vec<usize>> = vec![Vec::new(); MODELS + 1];
    let mut jobs = Vec::with_capacity(fresh.len() * (1 + WARM_PER_COLD));
    for (k, c) in fresh {
        introduced_by.insert((k, c), jobs.len());
        known[k].push(c);
        known[k].sort_unstable();
        jobs.push(Job {
            models: k,
            cells: vec![c],
            new_keys: 1,
            deps: Vec::new(),
        });
        for _ in 0..WARM_PER_COLD {
            let ks: Vec<usize> = (1..=MODELS).filter(|&k| !known[k].is_empty()).collect();
            let k = ks[rng.below(ks.len())];
            let cells = known[k].clone();
            let mut deps: Vec<usize> = cells.iter().map(|&c| introduced_by[&(k, c)]).collect();
            deps.sort_unstable();
            jobs.push(Job {
                models: k,
                cells,
                new_keys: 0,
                deps,
            });
        }
    }
    jobs
}

/// `matrix --worker` record groups for every (models, cell) key, built
/// once before anything is timed.
pub struct Reference {
    groups: HashMap<(usize, usize), String>,
}

impl Reference {
    pub fn build(bin_dir: &Path, threads: usize) -> Result<Self, String> {
        let mut groups = HashMap::new();
        for k in 1..=MODELS {
            let text = matrix_worker(bin_dir, threads, k, None)?;
            let mut group = String::new();
            for line in text.lines() {
                group.push_str(line);
                group.push('\n');
                if let Some(i) = line.strip_prefix("end i=") {
                    let i: usize = i.parse().map_err(|_| format!("bad record {line:?}"))?;
                    groups.insert((k, i), std::mem::take(&mut group));
                }
            }
        }
        if groups.len() != MODELS * MATRIX_CELLS {
            return Err(format!("reference has {} record groups", groups.len()));
        }
        Ok(Reference { groups })
    }

    /// The stripped `REC` payload `job` must produce.
    pub fn expected(&self, job: &Job) -> String {
        job.cells
            .iter()
            .map(|&c| self.groups[&(job.models, c)].as_str())
            .collect()
    }

    /// Whether `matrix --worker` over `job`'s own subset prints exactly
    /// the concatenated groups (the reference's one assumption).
    pub fn subset_matches(
        &self,
        bin_dir: &Path,
        threads: usize,
        job: &Job,
    ) -> Result<bool, String> {
        Ok(matrix_worker(bin_dir, threads, job.models, Some(&job.spec()))? == self.expected(job))
    }
}

/// Run `matrix --worker --models k [--cells spec]` and return its stdout.
fn matrix_worker(
    bin_dir: &Path,
    threads: usize,
    k: usize,
    cells: Option<&str>,
) -> Result<String, String> {
    let mut cmd = Command::new(bin_dir.join("matrix"));
    cmd.args([
        "--worker",
        "--models",
        &k.to_string(),
        "--threads",
        &threads.to_string(),
    ]);
    if let Some(spec) = cells {
        cmd.args(["--cells", spec]);
    }
    let out = cmd
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run matrix: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "matrix --worker --models {k} failed: {}",
            out.status
        ));
    }
    String::from_utf8(out.stdout).map_err(|_| "matrix printed non-UTF-8".to_string())
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    fn line(&mut self) -> io::Result<String> {
        let mut l = String::new();
        if self.reader.read_line(&mut l)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        l.truncate(l.trim_end_matches('\n').len());
        Ok(l)
    }

    /// Send `line` and read its whole response block, up to the `.`.
    fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.send(line)?;
        let mut block = Vec::new();
        loop {
            let l = self.line()?;
            if l == "." {
                return Ok(block);
            }
            block.push(l);
        }
    }
}

/// Timings of one job, in ms from just before its `SUBMIT` was sent.
#[derive(Clone, Copy)]
pub struct JobTiming {
    pub cold: bool,
    /// Whether the job's stream, terminal line and counts were right.
    pub ok: bool,
    /// To the `OK job=` line.
    pub ok_ms: f64,
    /// To the first `REC` line.
    pub first_rec_ms: f64,
    /// To the `.` after `DONE`.
    pub total_ms: f64,
}

impl JobTiming {
    fn failed(cold: bool) -> Self {
        JobTiming {
            cold,
            ok: false,
            ok_ms: f64::NAN,
            first_rec_ms: f64::NAN,
            total_ms: f64::NAN,
        }
    }
}

/// Submit `job`, read its response, and check it against `expected`.
fn run_job(conn: &mut Conn, job: &Job, expected: &str) -> io::Result<JobTiming> {
    let req = format!("SUBMIT models={} cells={}\n", job.models, job.spec());
    let t0 = Instant::now();
    let ms = || t0.elapsed().as_secs_f64() * 1e3;
    conn.send(&req)?;
    let head = conn.line()?;
    let ok_ms = ms();
    let mut payload = String::new();
    let mut first_rec_ms = f64::NAN;
    let mut terminal = None;
    if head != "." {
        loop {
            let l = conn.line()?;
            if l == "." {
                break;
            }
            match l.strip_prefix("REC ") {
                Some(rec) => {
                    if payload.is_empty() {
                        first_rec_ms = ms();
                    }
                    payload.push_str(rec);
                    payload.push('\n');
                }
                None => terminal = Some(l),
            }
        }
    }
    let total_ms = ms();
    let n = job.cells.len();
    let want = format!(
        " proved={n} failed=0 hits={} missed={} rejected=0 uncacheable=0 ",
        n - job.new_keys,
        job.new_keys
    );
    let ok = head.starts_with("OK job=")
        && payload == expected
        && terminal.is_some_and(|t| t.starts_with("DONE ") && t.contains(&want));
    Ok(JobTiming {
        cold: job.cold(),
        ok,
        ok_ms,
        first_rec_ms,
        total_ms,
    })
}

/// A running `tp-serve`; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(
        bin_dir: &Path,
        threads: usize,
        cache: &Path,
        journal: &Path,
        log: &Path,
    ) -> Result<Daemon, String> {
        let log = File::create(log).map_err(|e| format!("cannot create daemon log: {e}"))?;
        let mut child = Command::new(bin_dir.join("tp-serve"))
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .arg("--cache")
            .arg(cache)
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start tp-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        match line.trim().strip_prefix("tp-serve: listening on ") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => return Err(format!("tp-serve did not start: {line:?}")),
        }
        Ok(daemon)
    }

    /// `SHUTDOWN` over `conn`, then wait for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> bool {
        let answered = conn
            .request("SHUTDOWN\n")
            .is_ok_and(|b| b.first().is_some_and(|l| l == "OK shutting-down"));
        let give_up = Instant::now() + EXIT_WAIT;
        while Instant::now() < give_up {
            if let Ok(Some(status)) = self.child.try_wait() {
                return answered && status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    pub jobs: Vec<JobTiming>,
    /// Failed jobs, plus one for wrong totals and one for an unclean exit.
    pub failed: u64,
    /// `METRIC` lines of the daemon after the last job.
    pub metrics: BTreeMap<String, u64>,
    pub rss_mb: f64,
    /// The persisted cache file, as the round left it.
    pub cache_path: PathBuf,
}

impl Round {
    pub fn metric(&self, name: &str) -> u64 {
        self.metrics.get(name).copied().unwrap_or(0)
    }
}

/// Run every job on the connections, each a closed loop pulling the
/// next job in sequence order once the job's dependencies are done.
fn drive(conns: &mut [Conn], jobs: &[Job], expected: &[String]) -> Vec<JobTiming> {
    struct Progress {
        next: usize,
        done: Vec<bool>,
    }
    let progress = Mutex::new(Progress {
        next: 0,
        done: vec![false; jobs.len()],
    });
    let finished = Condvar::new();
    let results = Mutex::new(vec![JobTiming::failed(false); jobs.len()]);
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (progress, finished, results) = (&progress, &finished, &results);
            s.spawn(move || {
                let mut alive = true;
                loop {
                    let i = {
                        let mut p = progress.lock().unwrap_or_else(PoisonError::into_inner);
                        if p.next >= jobs.len() {
                            break;
                        }
                        let i = p.next;
                        p.next += 1;
                        while !jobs[i].deps.iter().all(|&d| p.done[d]) {
                            p = finished.wait(p).unwrap_or_else(PoisonError::into_inner);
                        }
                        i
                    };
                    // A broken connection fails this job and every later
                    // one it takes; the other connection carries on.
                    let timing = match alive.then(|| run_job(conn, &jobs[i], &expected[i])) {
                        Some(Ok(t)) => t,
                        _ => {
                            alive = false;
                            JobTiming::failed(jobs[i].cold())
                        }
                    };
                    results.lock().unwrap_or_else(PoisonError::into_inner)[i] = timing;
                    progress.lock().unwrap_or_else(PoisonError::into_inner).done[i] = true;
                    finished.notify_all();
                }
            });
        }
    });
    results.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Set-up: start a daemon on an empty cache in a fresh `work_dir`,
/// connect and `PING`. Returns the daemon, its connections and the
/// seconds this took.
fn start(
    bin_dir: &Path,
    work_dir: &Path,
    threads: usize,
) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let _ = std::fs::remove_dir_all(work_dir);
    std::fs::create_dir_all(work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let t = Instant::now();
    let daemon = Daemon::start(
        bin_dir,
        threads,
        &work_dir.join("proofs.cache"),
        &work_dir.join("journal"),
        &work_dir.join("tp-serve.log"),
    )?;
    // The daemon polls a non-blocking accept every 25 ms. Connecting
    // right after its banner races its first poll, so set-up would read
    // ~1 ms or ~26 ms by chance; connecting once it is surely polling
    // makes it read the poll period every time. Both connections go in
    // before the first PING, so one poll takes both.
    std::thread::sleep(ACCEPT_SETTLE);
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(&daemon.addr))
        .collect::<io::Result<Vec<Conn>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    for c in &mut conns {
        match c.request("PING\n") {
            Ok(b) if b.first().is_some_and(|l| l == "OK pong") => {}
            _ => return Err("tp-serve did not answer PING".into()),
        }
    }
    Ok((daemon, conns, t.elapsed().as_secs_f64()))
}

/// One round: set up, run the sequence (timed), read `METRICS`, shut
/// down.
pub fn round(
    bin_dir: &Path,
    work_dir: &Path,
    threads: usize,
    jobs: &[Job],
    expected: &[String],
) -> Result<Round, String> {
    let (daemon, mut conns, setup_s) = start(bin_dir, work_dir, threads)?;
    let cache_path = work_dir.join("proofs.cache");

    let t = Instant::now();
    let timings = drive(&mut conns, jobs, expected);
    let wall_s = t.elapsed().as_secs_f64();

    let mut failed = timings.iter().filter(|t| !t.ok).count() as u64;
    let mut metrics = BTreeMap::new();
    for l in conns[0].request("METRICS\n").unwrap_or_default() {
        let mut f = l.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some("METRIC"), Some(name), Some(v)) => {
                metrics.insert(name.to_string(), v.parse().unwrap_or(0));
            }
            // `SPAN <kind> n=<calls> total_us=…`: keep the call count.
            (Some("SPAN"), Some(kind), Some(n)) => {
                let n = n.strip_prefix("n=").and_then(|n| n.parse().ok());
                metrics.insert(format!("span_{kind}"), n.unwrap_or(0));
            }
            _ => {}
        }
    }
    let rss_mb = crate::peak_rss_mb(Some(daemon.child.id()));
    if !daemon.shutdown(&mut conns[0]) {
        failed += 1;
    }
    let round = Round {
        setup_s,
        wall_s,
        jobs: timings,
        failed,
        metrics,
        rss_mb,
        cache_path,
    };
    let (hits, misses) = expected_totals(jobs);
    let rejected: u64 = round
        .metrics
        .iter()
        .filter(|(k, _)| k.starts_with("cache_reject"))
        .map(|(_, v)| v)
        .sum();
    let failed = round.failed
        + u64::from(
            round.metric("cache_hits") != hits
                || round.metric("cache_misses") != misses
                || round.metric("cache_entries") != misses
                || rejected > 0,
        );
    Ok(Round { failed, ..round })
}

/// `(hits, misses)` a round of `jobs` must report.
pub fn expected_totals(jobs: &[Job]) -> (u64, u64) {
    let misses: usize = jobs.iter().map(|j| j.new_keys).sum();
    let cells: usize = jobs.iter().map(|j| j.cells.len()).sum();
    ((cells - misses) as u64, misses as u64)
}

/// Build the sequence and its reference, checking the reference against
/// `matrix --worker --cells` on the first job with two or more cells and
/// on the largest job. Returns the jobs, their expected payloads and the
/// failures found.
pub fn prepare(args: &Args) -> Result<(Vec<Job>, Vec<String>, u64), String> {
    let jobs = job_sequence(args.seed);
    let reference = Reference::build(&args.bin_dir, args.threads)?;
    let expected = jobs.iter().map(|j| reference.expected(j)).collect();
    let first_multi = jobs
        .iter()
        .find(|j| j.cells.len() > 1)
        .ok_or("the sequence has no multi-cell job")?;
    let largest = jobs
        .iter()
        .max_by_key(|j| j.cells.len())
        .expect("the sequence is not empty");
    let mut failed = 0;
    for job in [first_multi, largest] {
        failed += u64::from(!reference.subset_matches(&args.bin_dir, args.threads, job)?);
    }
    Ok((jobs, expected, failed))
}

/// `serve` mode: rounds until `--seconds` have passed (at least three).
pub fn workload(args: &Args) -> Result<Obj, String> {
    let (jobs, expected, mut failed) = prepare(args)?;
    let mut attempted = 1u64;
    let mut setup = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (daemon, mut conns, setup_s) = start(&args.bin_dir, &args.work_dir, args.threads)?;
        setup.push(setup_s);
        attempted += 1;
        failed += u64::from(!daemon.shutdown(&mut conns[0]));
    }
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        rounds.push(round(
            &args.bin_dir,
            &args.work_dir,
            args.threads,
            &jobs,
            &expected,
        )?);
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);

    let (mut warm, mut cold, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut done = 0u64;
    for r in &rounds {
        setup.push(r.setup_s);
        walls.push(r.wall_s);
        attempted += r.jobs.len() as u64;
        failed += r.failed;
        for t in r.jobs.iter().filter(|t| t.ok) {
            done += 1;
            if t.cold {
                cold.push(t.total_ms);
            } else {
                warm.push(t.total_ms);
            }
        }
    }
    // Work counts from the daemon's own telemetry; every round must
    // report the same ones.
    let count_names = [
        "cache_hits",
        "cache_misses",
        "cache_entries",
        "pool_submitted",
        "span_prove",
        "span_lockstep",
        "span_replay",
    ];
    let counts_of = |r: &Round| count_names.map(|n| r.metric(n));
    let last = rounds.last().expect("at least one round");
    failed += rounds
        .iter()
        .filter(|r| counts_of(r) != counts_of(last))
        .count() as u64;
    let mut counts = Obj::new();
    for (name, v) in count_names.iter().zip(counts_of(last)) {
        counts.int(name, v);
    }
    let mut out = Obj::new();
    out.int("seed", args.seed)
        .nums("setup_s", &setup)
        .nums("round_wall_s", &walls)
        .nums("warm_ms", &warm)
        .nums("cold_ms", &cold)
        .int("jobs_done", done)
        .int("attempted", attempted)
        .int("failed", failed)
        .obj("counts", &counts)
        .num(
            "rss_mb",
            crate::median(&rounds.iter().map(|r| r.rss_mb).collect::<Vec<_>>()),
        );
    Ok(out)
}

//! Kill/resume end-to-end through the real `matrix` binary: a `--cache`
//! sweep SIGKILLed mid-append (via the deterministic `TP_FAULTS`
//! harness) must resume from the same file with byte-identical stdout,
//! re-proving only the cells the log lost — at 1, 2 and 8 workers,
//! because the append order must not depend on scheduling. Also pins
//! the torn-tail drop (a crash mid-append), the fail-closed exit for a
//! log corrupted anywhere but its final group, and the contained exit
//! of a sweep whose proof task panics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sequence numbers for per-test scratch paths.
static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_cache() -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_crash_resume_{}_{}.cache",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Run the matrix binary on six cells of the `models`-model matrix.
fn matrix_run(threads: usize, models: usize, extra: &[&str], faults: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_matrix"));
    cmd.args([
        "--threads",
        &threads.to_string(),
        "--models",
        &models.to_string(),
        "--cells",
        "0..6",
    ])
    .args(extra)
    // Keep stderr deterministic: no heartbeat unless asked.
    .env_remove("TP_FAULTS");
    if let Some(spec) = faults {
        cmd.env("TP_FAULTS", spec);
    }
    cmd.output().expect("matrix binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Crash a cached sweep with `faults`, then rerun it and check the
/// resumed stdout is byte-identical to an uninterrupted run, with
/// exactly `replayed`/`reproved` cells on each side of the checkpoint.
fn crash_then_resume(threads: usize, faults: &str, replayed: usize, torn: usize) {
    let cache = scratch_cache();
    let cpath = cache.to_str().unwrap();

    // The uninterrupted reference for this thread count.
    let clean = matrix_run(threads, 1, &[], None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));

    // The crash: the injected fault aborts the process mid-sweep.
    let crashed = matrix_run(threads, 1, &["--cache", cpath], Some(faults));
    assert!(
        !crashed.status.success(),
        "the injected fault must kill the run"
    );
    assert!(
        stderr_of(&crashed).contains("faultpoint: injected crash at journal.append"),
        "crash is the injected one: {}",
        stderr_of(&crashed)
    );

    // The resume: replays the survivors, re-proves the rest, and the
    // report is byte-identical to never having crashed at all.
    let resumed = matrix_run(threads, 1, &["--cache", cpath], None);
    let stderr = stderr_of(&resumed);
    assert!(resumed.status.success(), "resume run: {stderr}");
    assert!(
        stderr.contains(&format!("cache log: {torn} torn-dropped")),
        "threads={threads} faults={faults}: {stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "cache: {replayed} hits, {} re-proved",
            6 - replayed
        )),
        "threads={threads} faults={faults}: {stderr}"
    );
    assert_eq!(
        clean.stdout, resumed.stdout,
        "threads={threads} faults={faults}: resumed stdout must be byte-identical"
    );

    // The resume appended after committed bytes only: a second run
    // replays everything and re-proves nothing.
    let again = matrix_run(threads, 1, &["--cache", cpath], None);
    let stderr = stderr_of(&again);
    assert!(again.status.success(), "second resume: {stderr}");
    assert!(
        stderr.contains("cache log: 0 torn-dropped")
            && stderr.contains("cache: 6 hits, 0 re-proved"),
        "second resume is all-replay: {stderr}"
    );
    assert_eq!(clean.stdout, again.stdout, "second resume stdout");

    std::fs::remove_file(&cache).ok();
}

#[test]
fn a_sigkilled_sweep_resumes_byte_identical_at_every_worker_count() {
    // kill@3: appends 1 and 2 land durable, the third dies before any
    // byte is written — two whole groups survive, four cells re-prove.
    // Groups append in cell order regardless of scheduling, so the
    // counts are exact at every thread count.
    for threads in [1, 2, 8] {
        crash_then_resume(threads, "7:journal.append=kill@3", 2, 0);
    }
}

#[test]
fn a_crash_mid_append_leaves_a_torn_tail_that_resume_drops() {
    // truncate@2: the second append writes half its group and dies —
    // one whole group plus a torn tail. Resume drops the tail,
    // replays the survivor, re-proves the other five.
    for threads in [1, 8] {
        crash_then_resume(threads, "7:journal.append=truncate@2", 1, 1);
    }
}

#[test]
fn corruption_before_the_tail_fails_the_resume_closed() {
    let cache = scratch_cache();
    let cpath = cache.to_str().unwrap();

    // Build a healthy two-group log by crashing on the third append.
    let crashed = matrix_run(2, 1, &["--cache", cpath], Some("7:journal.append=kill@3"));
    assert!(!crashed.status.success());

    // Flip one byte of the FIRST group's second record tag, so the group
    // no longer parses: damage before the final group is corruption,
    // not a crash artifact, and the rerun must refuse the file with the
    // malformed-input exit code and leave it as it was.
    let text = std::fs::read_to_string(Path::new(cpath)).expect("cache readable");
    let at = text.find('\n').unwrap() + 1;
    let mut bytes = text.into_bytes();
    bytes[at] ^= 1;
    std::fs::write(Path::new(cpath), &bytes).expect("cache rewritten");

    let resumed = matrix_run(2, 1, &["--cache", cpath], None);
    assert_eq!(
        resumed.status.code(),
        Some(tp_bench::cli::EXIT_MALFORMED),
        "corrupt log fails closed: {}",
        stderr_of(&resumed)
    );
    assert!(
        stderr_of(&resumed).contains("cannot parse cache"),
        "{}",
        stderr_of(&resumed)
    );
    assert!(resumed.stdout.is_empty(), "no report from a refused log");
    assert_eq!(
        std::fs::read(Path::new(cpath)).unwrap(),
        bytes,
        "left as it was"
    );

    std::fs::remove_file(&cache).ok();
}

#[test]
fn a_panicking_task_fails_its_cell_and_resume_reproves_only_that_cell() {
    // task=panic@20: one proof task of the two-model sweep (7 tasks per
    // cell) panics. The driver contains it: that cell fails, the other
    // five still prove and are appended, and the binary exits 1 with a
    // per-cell error instead of unwinding.
    for threads in [1, 2, 8] {
        let cache = scratch_cache();
        let cpath = cache.to_str().unwrap();
        let clean = matrix_run(threads, 2, &[], None);
        assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));

        let faulted = matrix_run(threads, 2, &["--cache", cpath], Some("7:task=panic@20"));
        let stderr = stderr_of(&faulted);
        assert_eq!(
            faulted.status.code(),
            Some(1),
            "threads={threads}: {stderr}"
        );
        assert!(
            faulted.stdout.is_empty(),
            "threads={threads}: no report on failure"
        );
        assert_eq!(
            stderr.matches("matrix: cell ").count(),
            1,
            "threads={threads}: one failed cell reported: {stderr}"
        );
        assert!(
            stderr.contains("failed: injected fault: task panicked"),
            "threads={threads}: {stderr}"
        );
        let text = std::fs::read_to_string(&cache).expect("cache readable");
        assert_eq!(
            text.lines().filter(|l| l.starts_with("end ")).count(),
            5,
            "threads={threads}: every healthy cell is appended"
        );

        let resumed = matrix_run(threads, 2, &["--cache", cpath], None);
        let stderr = stderr_of(&resumed);
        assert!(resumed.status.success(), "threads={threads}: {stderr}");
        assert!(
            stderr.contains("cache log: 0 torn-dropped")
                && stderr.contains("cache: 5 hits, 1 re-proved"),
            "threads={threads}: {stderr}"
        );
        assert_eq!(
            clean.stdout, resumed.stdout,
            "threads={threads}: resumed stdout must be byte-identical"
        );
        std::fs::remove_file(&cache).ok();
    }
}

#[test]
fn a_failed_append_stops_the_log_but_not_the_sweep() {
    // ioerr@2: the second append fails before writing a byte. The sweep
    // still finishes with the full report and exit 0; the log keeps the
    // one group before the failure and takes no appends after it, so a
    // rerun replays one cell and re-proves five.
    let cache = scratch_cache();
    let cpath = cache.to_str().unwrap();
    let clean = matrix_run(2, 1, &[], None);
    let failed = matrix_run(2, 1, &["--cache", cpath], Some("7:journal.append=ioerr@2"));
    let stderr = stderr_of(&failed);
    assert!(failed.status.success(), "{stderr}");
    assert!(stderr.contains("matrix: cache append failed"), "{stderr}");
    assert_eq!(
        clean.stdout, failed.stdout,
        "the report does not depend on the log"
    );
    let text = std::fs::read_to_string(&cache).expect("cache readable");
    assert_eq!(text.lines().filter(|l| l.starts_with("end ")).count(), 1);

    let rerun = matrix_run(2, 1, &["--cache", cpath], None);
    let stderr = stderr_of(&rerun);
    assert!(
        stderr.contains("cache log: 0 torn-dropped")
            && stderr.contains("cache: 1 hits, 5 re-proved"),
        "{stderr}"
    );
    assert_eq!(clean.stdout, rerun.stdout);
    std::fs::remove_file(&cache).ok();
}

//! Kill/resume end-to-end through the real `matrix` binary: a sweep
//! SIGKILLed mid-journal (via the deterministic `TP_FAULTS` harness)
//! must resume with byte-identical stdout, re-proving only the cells
//! the journal lost — at 1, 2 and 8 workers, because the checkpoint
//! order must not depend on scheduling. Also pins the torn-tail drop
//! (a crash mid-append), the fail-closed exit for a journal corrupted
//! anywhere but its physical tail, and the contained exit of a sweep
//! whose proof task panics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sequence numbers for per-test scratch paths.
static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_journal() -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_crash_resume_{}_{}.journal",
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

/// Crash a journaled sweep with `faults`, then resume it and check the
/// resumed stdout is byte-identical to an uninterrupted run, with
/// exactly `replayed`/`reproved` cells on each side of the checkpoint.
fn crash_then_resume(threads: usize, faults: &str, replayed: usize, torn: usize) {
    let journal = scratch_journal();
    let jpath = journal.to_str().unwrap();

    // The uninterrupted reference for this thread count.
    let clean = matrix_run(threads, 1, &[], None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));

    // The crash: the injected fault aborts the process mid-sweep.
    let crashed = matrix_run(threads, 1, &["--journal", jpath], Some(faults));
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
    let resumed = matrix_run(threads, 1, &["--resume", jpath], None);
    let stderr = stderr_of(&resumed);
    assert!(resumed.status.success(), "resume run: {stderr}");
    assert!(
        stderr.contains(&format!(
            "journal: loaded {replayed} records ({torn} torn-dropped)"
        )),
        "threads={threads} faults={faults}: {stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "journal: {replayed} replayed, {torn} torn-dropped, {} re-proved",
            6 - replayed
        )),
        "threads={threads} faults={faults}: {stderr}"
    );
    assert_eq!(
        clean.stdout, resumed.stdout,
        "threads={threads} faults={faults}: resumed stdout must be byte-identical"
    );

    // The compaction rewrote the journal clean: a second resume
    // replays everything and re-proves nothing.
    let again = matrix_run(threads, 1, &["--resume", jpath], None);
    let stderr = stderr_of(&again);
    assert!(again.status.success(), "second resume: {stderr}");
    assert!(
        stderr.contains("journal: 6 replayed, 0 torn-dropped, 0 re-proved"),
        "second resume is all-replay: {stderr}"
    );
    assert_eq!(clean.stdout, again.stdout, "second resume stdout");

    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_sigkilled_sweep_resumes_byte_identical_at_every_worker_count() {
    // kill@3: appends 1 and 2 land durable, the third dies before any
    // byte is written — two whole records survive, four cells re-prove.
    // Checkpoints append in cell order regardless of scheduling, so the
    // counts are exact at every thread count.
    for threads in [1, 2, 8] {
        crash_then_resume(threads, "7:journal.append=kill@3", 2, 0);
    }
}

#[test]
fn a_crash_mid_append_leaves_a_torn_tail_that_resume_drops() {
    // truncate@2: the second append writes half its record and dies —
    // one whole record plus a torn tail. Resume drops the tail
    // silently, replays the survivor, re-proves the other five.
    for threads in [1, 8] {
        crash_then_resume(threads, "7:journal.append=truncate@2", 1, 1);
    }
}

#[test]
fn corruption_before_the_tail_fails_the_resume_closed() {
    let journal = scratch_journal();
    let jpath = journal.to_str().unwrap();

    // Build a healthy two-record journal by crashing on the third.
    let crashed = matrix_run(2, 1, &["--journal", jpath], Some("7:journal.append=kill@3"));
    assert!(!crashed.status.success());

    // Flip one byte in the FIRST record's payload: damage before the
    // physical tail is corruption, not a crash artifact, and the
    // resume must refuse the file with the malformed-input exit code.
    let text = std::fs::read_to_string(Path::new(jpath)).expect("journal readable");
    let at = text.find('\n').unwrap() + 10;
    let mut bytes = text.into_bytes();
    bytes[at] ^= 1;
    std::fs::write(Path::new(jpath), &bytes).expect("journal rewritten");

    let resumed = matrix_run(2, 1, &["--resume", jpath], None);
    assert_eq!(
        resumed.status.code(),
        Some(tp_bench::cli::EXIT_MALFORMED),
        "corrupt journal fails closed: {}",
        stderr_of(&resumed)
    );
    assert!(
        stderr_of(&resumed).contains("cannot parse journal"),
        "{}",
        stderr_of(&resumed)
    );

    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_panicking_task_fails_its_cell_and_resume_reproves_only_that_cell() {
    // task=panic@20: one proof task of the two-model sweep (7 tasks per
    // cell) panics. The driver contains it: that cell fails, the other
    // five still prove and journal, and the binary exits 1 with a
    // per-cell error instead of unwinding.
    for threads in [1, 2, 8] {
        let journal = scratch_journal();
        let jpath = journal.to_str().unwrap();
        let clean = matrix_run(threads, 2, &[], None);
        assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));

        let faulted = matrix_run(threads, 2, &["--journal", jpath], Some("7:task=panic@20"));
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
        let text = std::fs::read_to_string(&journal).expect("journal readable");
        assert_eq!(
            text.lines().filter(|l| l.starts_with("jrec ")).count(),
            5,
            "threads={threads}: every healthy cell journals"
        );

        let resumed = matrix_run(threads, 2, &["--resume", jpath], None);
        let stderr = stderr_of(&resumed);
        assert!(resumed.status.success(), "threads={threads}: {stderr}");
        assert!(
            stderr.contains("journal: 5 replayed, 0 torn-dropped, 1 re-proved"),
            "threads={threads}: {stderr}"
        );
        assert_eq!(
            clean.stdout, resumed.stdout,
            "threads={threads}: resumed stdout must be byte-identical"
        );
        std::fs::remove_file(&journal).ok();
    }
}

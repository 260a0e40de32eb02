//! Exit-code contract for the `--cache` paths, pinned through the real
//! `matrix` binary: malformed input (a cache file that fails wire
//! parsing) must exit with a code of its own — distinct from usage
//! errors and, crucially, from the silent-degradation path where an
//! entry parses but fails validation and is simply rejected and
//! re-proved with exit 0. A daemon supervisor (or CI) keying restart
//! policy off these codes must be able to tell "throw the file away"
//! from "the run healed itself". `all`, which has no cache, must refuse
//! `--cache` as a usage error.

use std::path::PathBuf;
use std::process::Command;

use tp_bench::cli::{EXIT_MALFORMED, EXIT_USAGE};

/// A scratch cache path unique to this test process.
fn cache_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_cache_exit_{}_{}.cache",
        name,
        std::process::id()
    ))
}

/// Run `matrix --worker --cells 0..2 --models 1 --threads 2` with
/// `--cache path`, returning (exit code, stdout, stderr).
fn run_cached(path: &PathBuf) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args([
            "--worker",
            "--cells",
            "0..2",
            "--models",
            "1",
            "--threads",
            "2",
            "--cache",
        ])
        .arg(path)
        .output()
        .expect("matrix binary runs");
    (
        out.status.code().expect("matrix must exit, not die"),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn malformed_cache_file_exits_with_its_own_code() {
    let path = cache_path("malformed");
    std::fs::write(&path, "this is not a cache @@@\n").unwrap();
    let (code, _, stderr) = run_cached(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        code, EXIT_MALFORMED,
        "unparseable cache is malformed input: {stderr}"
    );
    assert!(stderr.contains("cannot parse cache"), "{stderr}");
    assert_ne!(EXIT_MALFORMED, EXIT_USAGE, "codes must be distinguishable");
}

#[test]
fn rejected_entries_reprove_with_exit_zero() {
    let path = cache_path("rejected");

    // Cold run: populates the cache, everything proves live.
    let (code, cold_stdout, stderr) = run_cached(&path);
    assert_eq!(code, 0, "cold run: {stderr}");
    assert!(stderr.contains("0 hits"), "{stderr}");

    // Corrupt one entry's checksum *without* breaking the wire syntax:
    // the file still parses, but validation rejects the entry. Bumping
    // the *last* digit (9 wraps to 0) keeps the value inside u64, where
    // bumping the first could overflow it into a parse error.
    let text = std::fs::read_to_string(&path).unwrap();
    let start = text.find("check=").expect("cache carries checksums") + "check=".len();
    let pos = start
        + text[start..]
            .find(' ')
            .expect("check= is not the last field")
        - 1;
    let digit = text.as_bytes()[pos];
    assert!(digit.is_ascii_digit());
    let flipped = ((digit - b'0' + 1) % 10 + b'0') as char;
    let mut corrupted = text.clone();
    corrupted.replace_range(pos..pos + 1, &flipped.to_string());
    assert_ne!(text, corrupted);
    std::fs::write(&path, corrupted).unwrap();

    // Warm-but-poisoned run: the rejected entry re-proves, the run
    // succeeds, stdout is byte-identical, and stderr counts the
    // rejection — exit 0, not a malformed-input failure.
    let (code, warm_stdout, stderr) = run_cached(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "rejected entries must self-heal: {stderr}");
    assert!(stderr.contains("1 rejected"), "{stderr}");
    assert_eq!(
        warm_stdout, cold_stdout,
        "self-healed output must stay byte-identical"
    );
}

#[test]
fn usage_errors_keep_their_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args(["--bogus"])
        .output()
        .expect("matrix binary runs");
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
}

#[test]
fn all_rejects_the_matrix_only_file_flags() {
    // `all` has no cache: it must refuse the flag with a usage error
    // before proving anything, not exit 0 and write nothing.
    let path = cache_path("all--cache");
    std::fs::remove_file(&path).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--models", "1", "--cells", "0..1", "--cache"])
        .arg(&path)
        .output()
        .expect("all binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "all --cache: {stderr}");
    assert!(stderr.contains("matrix-only"), "all --cache: {stderr}");
    assert!(out.stdout.is_empty(), "all --cache must print no report");
    assert!(!path.exists(), "all --cache must not create {path:?}");
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .arg("--progress")
        .output()
        .expect("all binary runs");
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "all --progress");
}

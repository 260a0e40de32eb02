//! Cache files written before the content-key fold changed
//! (`CACHE_SALT` version 1) must never be believed by this build. The
//! fixture was written by that build's `matrix --models 1 --cells 0..3
//! --cache`, and its stdout is kept beside it: the old cache loads,
//! none of its entries is addressed by a new key, every cell re-proves
//! (appended after the old groups), and stdout matches the old build's
//! byte for byte; an old entry addressed by its own key anyway is
//! rejected on its salt.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tp_core::cache::{CacheMiss, RejectReason};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Copy a fixture to a scratch path: the runs below rewrite their file.
fn scratch_copy(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tp_cross_version_{}_{name}", std::process::id()));
    std::fs::copy(fixture(name), &path).expect("fixture copies");
    path
}

fn matrix(extra: &[&str], file: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_matrix"));
    cmd.args(["--models", "1", "--cells", "0..3"])
        .args(extra)
        .env_remove("TP_FAULTS");
    if let Some(f) = file {
        cmd.arg(f);
    }
    cmd.output().expect("matrix binary runs")
}

fn old_stdout() -> Vec<u8> {
    std::fs::read(fixture("models1_cells0-3.stdout")).unwrap()
}

#[test]
fn an_old_cache_is_reproved_not_replayed() {
    let path = scratch_copy("salt1.cache");
    let out = matrix(&["--cache"], Some(&path));
    let stderr = String::from_utf8_lossy(&out.stderr);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{stderr}");
    // The three old entries stay in the file, unaddressed, beside the
    // three new ones.
    assert!(
        stderr.contains(
            "cache: 0 hits, 3 re-proved (3 missed, 0 rejected, 0 uncacheable) — 6 entries"
        ),
        "{stderr}"
    );
    assert_eq!(out.stdout, old_stdout(), "verdicts and report unchanged");
    let live = matrix(&[], None);
    assert!(live.status.success());
    assert_eq!(out.stdout, live.stdout);
}

#[test]
fn an_old_entry_addressed_by_its_own_key_fails_the_salt_check() {
    let text = std::fs::read_to_string(fixture("salt1.cache")).unwrap();
    let cache = tp_core::ProofCache::load(&text).expect("old cache parses");
    let matrix = tp_bench::shaped_matrix(Some(1));
    let groups = tp_core::wire::parse_cells_meta(&text).unwrap();
    assert_eq!(groups.len(), 3);
    for (_, cell, _, meta) in groups {
        let meta = meta.expect("cache groups carry metadata");
        let secrets = tp_bench::canonical_scenario(cell.disable).secrets;
        assert_eq!(
            cache
                .lookup(meta.key, &cell, matrix.models(), &secrets)
                .err(),
            Some(CacheMiss::Rejected(RejectReason::SaltMismatch))
        );
    }
}

//! Cache files written by earlier engines must never be believed by
//! this build: `salt1.cache` before the content-key fold changed
//! (`CACHE_SALT` version 1), `salt2.cache` before the hardware's state
//! digests became running XOR digests (version 2), which moved the
//! hashed time models' costs and every `switch=` digest. Each fixture
//! was written by its build's `matrix --models 1 --cells 0..3 --cache`,
//! and their shared stdout is kept beside them (model 0 is a table
//! model, so both builds print the same): an old cache loads, none of
//! its entries is addressed by a new key, every cell re-proves
//! (appended after the old groups), and stdout matches the old builds'
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

/// The cache files of earlier engines, oldest first.
const OLD_CACHES: [&str; 2] = ["salt1.cache", "salt2.cache"];

fn old_stdout() -> Vec<u8> {
    std::fs::read(fixture("models1_cells0-3.stdout")).unwrap()
}

#[test]
fn an_old_cache_is_reproved_not_replayed() {
    let live = matrix(&[], None);
    assert!(live.status.success());
    for name in OLD_CACHES {
        let path = scratch_copy(name);
        let out = matrix(&["--cache"], Some(&path));
        let stderr = String::from_utf8_lossy(&out.stderr);
        std::fs::remove_file(&path).ok();
        assert!(out.status.success(), "{name}: {stderr}");
        // The three old entries stay in the file, unaddressed, beside
        // the three new ones.
        assert!(
            stderr.contains(
                "cache: 0 hits, 3 re-proved (3 missed, 0 rejected, 0 uncacheable) — 6 entries"
            ),
            "{name}: {stderr}"
        );
        assert_eq!(
            out.stdout,
            old_stdout(),
            "{name}: verdicts and report unchanged"
        );
        assert_eq!(out.stdout, live.stdout, "{name}");
    }
}

#[test]
fn an_old_entry_addressed_by_its_own_key_fails_the_salt_check() {
    let matrix = tp_bench::shaped_matrix(Some(1));
    for name in OLD_CACHES {
        let text = std::fs::read_to_string(fixture(name)).unwrap();
        let cache = tp_core::ProofCache::load(&text).expect("old cache parses");
        let groups = tp_core::wire::parse_cells_meta(&text).unwrap();
        assert_eq!(groups.len(), 3, "{name}");
        for (_, cell, _, meta) in groups {
            let meta = meta.expect("cache groups carry metadata");
            let secrets = tp_bench::canonical_scenario(cell.disable).secrets;
            assert_eq!(
                cache
                    .lookup(meta.key, &cell, matrix.models(), &secrets)
                    .err(),
                Some(CacheMiss::Rejected(RejectReason::SaltMismatch)),
                "{name}"
            );
        }
    }
}

//! Acceptance test for multi-process scale-out: the canonical matrix
//! sharded across **two real `matrix` processes** in `sched-worker`
//! mode, merged by a third invocation, must print a byte-identical
//! report to a single-process run over the same sweep.
//!
//! This drives the actual binary (not in-process calls), so it covers
//! the full path a multi-host deployment uses: CLI flags → worker wire
//! records on stdout → files → `--merge`.

use std::process::Command;

/// Run the `matrix` binary with `args`, requiring success; returns
/// stdout. Worker progress goes to stderr and is discarded.
fn matrix(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args(args)
        .output()
        .expect("failed to spawn the matrix binary");
    assert!(
        out.status.success(),
        "matrix {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("matrix output is UTF-8")
}

#[test]
fn two_process_sharded_run_merges_to_the_single_process_report() {
    // One time model keeps the three full sweeps test-profile friendly;
    // the sharding machinery is identical at any model count.
    let single = matrix(&["--models", "1"]);
    assert!(
        single.contains("Scenario matrix: 21 cells × 1 time models"),
        "unexpected single-process header:\n{single}"
    );

    let shard_a = matrix(&["--worker", "--models", "1", "--cells", "0..11"]);
    let shard_b = matrix(&["--worker", "--models", "1", "--cells", "11..21"]);
    assert!(
        shard_a.lines().all(|l| l.split_whitespace().count() >= 2),
        "worker stdout must contain only wire records:\n{shard_a}"
    );
    // The two shards cover disjoint halves.
    assert!(shard_a.contains("cell i=0 ") && !shard_a.contains("cell i=11 "));
    assert!(shard_b.contains("cell i=11 ") && !shard_b.contains("cell i=0 "));
    // Transparency certificates survive the wire.
    assert!(
        shard_a.contains("cert i=0 ") && shard_b.contains("cert i=11 "),
        "worker records must carry the transparency digest"
    );

    let dir = std::env::temp_dir().join(format!("tp-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create shard dir");
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    std::fs::write(&a, &shard_a).expect("write shard a");
    std::fs::write(&b, &shard_b).expect("write shard b");

    // Merge order must not matter.
    let merged = matrix(&["--merge", a.to_str().unwrap(), b.to_str().unwrap()]);
    let merged_rev = matrix(&["--merge", b.to_str().unwrap(), a.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        merged, single,
        "merged sharded report must be byte-identical to the single-process run"
    );
    assert_eq!(merged_rev, single, "merge must be order-independent");
}

#[test]
fn merge_rejects_incomplete_shard_sets() {
    let shard = matrix(&["--worker", "--models", "1", "--cells", "0..2"]);
    let path = std::env::temp_dir().join(format!("tp-shard-missing-{}.txt", std::process::id()));
    std::fs::write(&path, shard).expect("write shard");
    let out = Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args(["--merge", path.to_str().unwrap(), path.to_str().unwrap()])
        .output()
        .expect("failed to spawn the matrix binary");
    let _ = std::fs::remove_file(&path);
    assert!(
        !out.status.success(),
        "merging the same shard twice must fail (duplicate cells)"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("merge failed"),
        "stderr should name the merge failure"
    );
}

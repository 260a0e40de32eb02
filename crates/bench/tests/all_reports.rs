//! `bin/all` is the one binary that prints the experiment reports: each
//! under its `=== EN ===` header, in order, with the largest inputs any
//! report has (E12 over 6 trials, E13 over six symbols, E14 up to
//! length 4). E11's section is pinned byte for byte by
//! `fixtures/e11.txt`.

use std::process::Command;

#[test]
fn all_prints_every_report_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--models", "1", "--cells", "0..1"])
        .output()
        .expect("all binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut at = 0;
    for n in 1..=14 {
        let header = format!("\n=== E{n} ===\n");
        let found = stdout[at..]
            .find(&header)
            .unwrap_or_else(|| panic!("{header:?} missing or out of order:\n{stdout}"));
        at += found + header.len();
    }
    let section = |n: usize| {
        let start = stdout.find(&format!("=== E{n} ===")).unwrap();
        let end = stdout[start + 1..]
            .find("\n===")
            .map_or(stdout.len(), |e| start + 1 + e);
        &stdout[start..end]
    };
    // E11's whole section, byte for byte: the seven ablation verdicts
    // and their witnesses must not move when the driver behind them does.
    assert_eq!(section(11), include_str!("fixtures/e11.txt"));
    assert!(
        section(14).contains("all Hi programs, length <= 4)"),
        "{}",
        section(14)
    );
    assert!(section(14).contains("HOLDS over all 1555 Hi programs"));
    assert!(
        section(13).contains("sibling threads : n=6 "),
        "{}",
        section(13)
    );
    assert!(
        section(12).contains("no flushing   : n=12 "),
        "{}",
        section(12)
    );
}

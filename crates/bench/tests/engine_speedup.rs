//! Acceptance tests for the engine's work shape: on the canonical
//! scenario `prove_parallel` returns the identical report to the
//! sequential `prove` while doing less work, split into independent
//! pool tasks. (The E11 sweep's exact certified work — one replay per
//! cell, one lockstep per leaking verdict — is pinned by
//! `digest_speedup.rs`.) The work is counted from telemetry, so the
//! assertions are exact at any worker count and never depend on
//! wall-clock timing.
//!
//! The same counts make the repository's performance gate:
//! `fixtures/work_counts.txt` pins, with zero tolerance, the work the
//! full scenario matrix and the E14 enumeration at length 4 do (summed
//! simulation steps, pool tasks, span counts, E14 verdicts). A change
//! that makes either do more work fails here and names the count. Only
//! a deliberate change to the work may re-bless the fixture, with
//!
//! ```sh
//! cargo test -p tp-bench --test engine_speedup -- --ignored bless
//! ```
//!
//! The telemetry sink is process-global, so each test holds
//! [`TELEMETRY`] while it counts: a sibling test running concurrently
//! would otherwise add to the counts.

use tp_bench::canonical_scenario;
use tp_core::engine::{check_exhaustive_parallel, prove_parallel};
use tp_core::exhaustive::{ExhaustiveConfig, ExhaustiveVerdict};
use tp_core::proof::{default_time_models, prove};
use tp_kernel::config::{Mechanism, TimeProtConfig};
use tp_telemetry::{Counter, SpanKind, TelemetrySink};

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests that install a counting sink.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` under a fresh counting sink and return its result with the
/// counts it recorded.
fn counted<R>(f: impl FnOnce() -> R) -> (R, tp_telemetry::Snapshot) {
    tp_telemetry::install(TelemetrySink::counters());
    let out = f();
    let snap = tp_telemetry::snapshot().expect("the counting sink snapshots");
    tp_telemetry::install(TelemetrySink::Null);
    (out, snap)
}

#[test]
fn parallel_prove_matches_and_beats_sequential() {
    let _guard = telemetry_lock();
    let models = default_time_models();
    let scenario = canonical_scenario(None);
    let shards = (models.len() * scenario.secrets.len()) as u64;

    // Identical report, bit for bit.
    let sequential = prove(&scenario, &models);
    let (parallel, snap) = counted(|| prove_parallel(&scenario, &models));
    assert!(sequential.time_protection_proved(), "{sequential}");
    assert!(parallel.time_protection_proved(), "{parallel}");
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.to_string(), parallel.to_string());
    assert_eq!(sequential.steps, parallel.steps);

    // Less work: the sequential reference runs a monitored run and a
    // plain replay per (model, secret); the certified pooled proof runs
    // the monitored shards and a single certification replay.
    assert_eq!(
        (snap.span(SpanKind::Prove).0, snap.span(SpanKind::Replay).0),
        (shards, 1),
        "prove_parallel: one monitored run per (model, secret), one replay in total \
         (the sequential reference runs {shards} + {shards})"
    );

    // Independently schedulable: every shard and the replay is its own
    // pool task, so the proof spreads across every worker there is.
    assert_eq!(
        snap.counter(Counter::PoolSubmitted),
        shards + 1,
        "one pool task per monitored shard plus the certification replay"
    );
}

/// The pinned work counts, one `name value` line each, in a fixed
/// order. Only counts that are identical at every worker count are
/// listed. Left out on purpose: pool steals, parks, helping-waits and
/// the peak queue depth, which depend on how the workers race; and a
/// leaking enumeration's `exh_programs`, since how far the other
/// blocks scan before they see the first leak depends on the same race
/// (the -Flush run reads 8 at one worker and 14 at four).
fn work_counts() -> String {
    let mut out = String::new();

    let matrix = tp_bench::shaped_matrix(None);
    let (report, snap) = counted(|| matrix.run(|cell| canonical_scenario(cell.disable)));
    let steps: usize = report.cells.iter().map(|(_, r)| r.steps).sum();
    writeln!(out, "matrix.cells {}", report.cells.len()).unwrap();
    writeln!(out, "matrix.steps {steps}").unwrap();
    writeln!(
        out,
        "matrix.pool_submitted {}",
        snap.counter(Counter::PoolSubmitted)
    )
    .unwrap();
    for kind in [
        SpanKind::QueueWait,
        SpanKind::Prove,
        SpanKind::Lockstep,
        SpanKind::Replay,
        SpanKind::Verify,
    ] {
        writeln!(out, "matrix.span.{} {}", kind.name(), snap.span(kind).0).unwrap();
    }

    for disable in [
        None,
        Some(Mechanism::Flush),
        Some(Mechanism::Padding),
        Some(Mechanism::KernelClone),
    ] {
        let (label, tp) = match disable {
            None => ("full".to_string(), TimeProtConfig::full()),
            Some(m) => (format!("-{m:?}"), TimeProtConfig::full_without(m)),
        };
        let cfg = ExhaustiveConfig {
            max_len: 4,
            ..ExhaustiveConfig::small(tp)
        };
        let (verdict, snap) = counted(|| check_exhaustive_parallel(&cfg));
        match verdict {
            ExhaustiveVerdict::Pass { programs } => {
                writeln!(out, "e14.{label}.holds_over {programs}").unwrap();
                writeln!(
                    out,
                    "e14.{label}.exh_programs {}",
                    snap.counter(Counter::ExhPrograms)
                )
                .unwrap();
            }
            ExhaustiveVerdict::Leak { program_index, .. } => {
                writeln!(out, "e14.{label}.witness {program_index}").unwrap();
            }
        }
        writeln!(
            out,
            "e14.{label}.pool_submitted {}",
            snap.counter(Counter::PoolSubmitted)
        )
        .unwrap();
    }
    out
}

fn work_counts_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/work_counts.txt")
}

#[test]
fn work_counts_match_the_fixture() {
    let _guard = telemetry_lock();
    let got = work_counts();
    let want = std::fs::read_to_string(work_counts_fixture()).unwrap();
    let name = |line: &str| line.split(' ').next().unwrap_or_default().to_string();
    assert_eq!(
        got.lines().map(name).collect::<Vec<_>>(),
        want.lines().map(name).collect::<Vec<_>>(),
        "the set of pinned work counts changed"
    );
    for (got, want) in got.lines().zip(want.lines()) {
        assert_eq!(
            got,
            want,
            "work count `{}` changed; re-bless only for a deliberate change",
            name(want)
        );
    }
}

/// Rewrite the fixture from this build. Run only when a change to the
/// work is deliberate (see the module docs).
#[test]
#[ignore]
fn bless() {
    let _guard = telemetry_lock();
    std::fs::write(work_counts_fixture(), work_counts()).unwrap();
}

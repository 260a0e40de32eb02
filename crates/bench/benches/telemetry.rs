//! Microbench for the telemetry fast path: what a counter bump and a
//! span emission cost under each sink, and — the number the proof hot
//! path actually pays — what they cost when telemetry is *off*.
//!
//! Three variants per primitive:
//!
//! * `null` — the default [`TelemetrySink::Null`]: `count()` is one
//!   relaxed atomic load, `span_start()` returns `None` without reading
//!   the clock. This is the price every uninstrumented run pays.
//! * `counters` — counting sink: one relaxed load + one `fetch_add`.
//! * `json_lines` — tracing sink: counting plus a formatted trace line
//!   behind a mutex (spans only; counters never touch the buffer).
//!
//! The CI bench step runs this next to `substrate.rs`; the null numbers
//! are the regression canary for "telemetry crept onto the hot path".

use std::hint::black_box;

use tp_telemetry::{Counter, SpanKind, TelemetrySink};

/// Time `iters` iterations of `f` and print ns/op.
fn bench<R>(name: &str, iters: u32, f: impl FnMut() -> R) {
    let (total, _min) = tp_bench::time_iters(iters, f);
    println!(
        "{name:<32} {iters:>9} iters  {:>10.1} ns/op",
        total.as_nanos() as f64 / iters as f64
    );
}

fn main() {
    const OPS: usize = 4096;

    // --- Null sink: the disabled fast path. ---
    tp_telemetry::install(TelemetrySink::Null);
    bench("telemetry/count_null", 5_000, || {
        for _ in 0..OPS {
            tp_telemetry::count(black_box(Counter::PoolSubmitted));
        }
    });
    bench("telemetry/span_null", 5_000, || {
        for i in 0..OPS {
            if let Some(start) = tp_telemetry::span_start() {
                tp_telemetry::span(SpanKind::Prove, i, None, start);
            }
        }
    });
    assert!(
        tp_telemetry::snapshot().is_none(),
        "the null sink must record nothing"
    );

    // --- Counting sink. ---
    tp_telemetry::install(TelemetrySink::counters());
    bench("telemetry/count_counters", 5_000, || {
        for _ in 0..OPS {
            tp_telemetry::count(black_box(Counter::PoolSubmitted));
        }
    });
    bench("telemetry/span_counters", 2_000, || {
        for i in 0..OPS {
            if let Some(start) = tp_telemetry::span_start() {
                tp_telemetry::span(SpanKind::Prove, i, None, start);
            }
        }
    });
    let snap = tp_telemetry::snapshot().expect("counting sink snapshots");
    assert!(
        snap.counter(Counter::PoolSubmitted) > 0 && snap.span(SpanKind::Prove).0 > 0,
        "the counting sink must have recorded the benched ops"
    );

    // --- Tracing sink (spans also write a JSON line). ---
    tp_telemetry::install(TelemetrySink::json_lines());
    bench("telemetry/count_json_lines", 5_000, || {
        for _ in 0..OPS {
            tp_telemetry::count(black_box(Counter::PoolSubmitted));
        }
    });
    bench("telemetry/span_json_lines", 200, || {
        for i in 0..OPS {
            if let Some(start) = tp_telemetry::span_start() {
                tp_telemetry::span(SpanKind::Prove, i, None, start);
            }
        }
    });
    let trace = tp_telemetry::take_trace().expect("tracing sink buffers");
    assert!(
        trace.lines().count() >= OPS && trace.starts_with("{\"t\":\"span\""),
        "the tracing sink must have buffered one line per span"
    );

    // Leave the process the way every binary starts: telemetry off.
    tp_telemetry::install(TelemetrySink::Null);
    println!("sink state restored to null: ok");
}

//! Microbench for the observation emit hot loop: the per-event cost of
//! the kernel's sink.
//!
//! Two variants, same event stream:
//!
//! * `static` — [`ObsSinkKind`] enum dispatch per event;
//! * `batched` — [`ObsSinkKind::record_batch`] with step-sized batches
//!   (the shape the kernel's emit path compiles to): one dispatch
//!   amortised over the whole batch.
//!
//! Both must (and do) produce the same rolling digest as
//! [`tp_hw::obs::obs_digest`] — the `hw/tests/properties.rs` proptest
//! pins that; this bench prices it.

use std::hint::black_box;

use tp_hw::obs::{obs_digest, DigestSink, ObsEvent, ObsSinkKind};
use tp_hw::types::Cycles;

/// Time `iters` iterations of `f` and print ns/op.
fn bench<R>(name: &str, iters: u32, f: impl FnMut() -> R) {
    let (total, _min) = tp_bench::time_iters(iters, f);
    println!(
        "{name:<32} {iters:>9} iters  {:>10.1} ns/op",
        total.as_nanos() as f64 / iters as f64
    );
}

/// A deterministic event stream shaped like a monitored run: mostly
/// clock reads, some IPC deliveries, the odd fault.
fn stream(n: usize) -> Vec<ObsEvent> {
    (0..n)
        .map(|i| match i % 7 {
            5 => ObsEvent::IpcRecv {
                msg: i as u64,
                at: Cycles(i as u64 * 3),
            },
            6 => ObsEvent::Fault,
            _ => ObsEvent::Clock(Cycles(i as u64)),
        })
        .collect()
}

fn main() {
    const EVENTS: usize = 4096;
    const BATCH: usize = 2; // the fetch-fault step emits [Fault, Halted]
    let events = stream(EVENTS);

    let mut sink = ObsSinkKind::from(DigestSink::default());
    bench("emit/static_per_event", 2_000, || {
        for e in &events {
            sink.record(*e);
        }
        black_box(sink.digest())
    });

    let mut sink = ObsSinkKind::from(DigestSink::default());
    bench("emit/static_batched", 2_000, || {
        for chunk in events.chunks(BATCH) {
            sink.record_batch(chunk);
        }
        black_box(sink.digest())
    });

    // Both shapes must agree with the reference fold: a bench that
    // measured divergent sinks would be pricing different work.
    let reference = obs_digest(&events);
    let mut a = ObsSinkKind::from(DigestSink::default());
    let mut b = ObsSinkKind::from(DigestSink::default());
    for chunk in events.chunks(BATCH) {
        a.record_batch(chunk);
        for e in chunk {
            b.record(*e);
        }
    }
    assert_eq!(a.digest(), reference, "batched static dispatch diverged");
    assert_eq!(b.digest(), reference, "per-event static dispatch diverged");
    println!("digest agreement across both dispatch shapes: ok");
}

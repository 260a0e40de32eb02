//! Std-only benches timing each experiment's end-to-end runner
//! (E1..E14). These regenerate the paper-claim artefacts while measuring
//! how long the reproduction takes to produce them — useful both as a
//! performance regression net for the simulator and as a single
//! `cargo bench` entry point that exercises every experiment.
//!
//! No external harness: each case runs a fixed number of iterations and
//! reports the per-iteration mean and min wall time.

use std::hint::black_box;

use tp_attacks::experiments as exp;
use tp_core::engine;
use tp_hw::clock::TimeModel;
use tp_kernel::config::{Mechanism, TimeProtConfig};

/// Time `f` over `iters` iterations and print a one-line summary.
fn bench<R>(name: &str, iters: u32, f: impl FnMut() -> R) {
    let (total, min) = tp_bench::time_iters(iters, f);
    println!(
        "{name:<40} {iters:>3} iters  mean {:>12.3?}  min {:>12.3?}",
        total / iters,
        min
    );
}

fn main() {
    let model = TimeModel::intel_like();

    bench("e1_downgrader/leaky", 10, || {
        exp::e1_delivery_time(false, black_box(0xff00ff), model)
    });
    bench("e1_downgrader/deterministic", 10, || {
        exp::e1_delivery_time(true, black_box(0xff00ff), model)
    });

    bench("e2_l1_prime_probe/open", 10, || {
        exp::e2_transmit_once(TimeProtConfig::off(), black_box(21), model)
    });
    bench("e2_l1_prime_probe/closed", 10, || {
        exp::e2_transmit_once(TimeProtConfig::full(), black_box(21), model)
    });

    bench("e3_llc_concurrent/shared_colours", 10, || {
        exp::e3_transmit_once(false, black_box(5), model)
    });
    bench("e3_llc_concurrent/disjoint_colours", 10, || {
        exp::e3_transmit_once(true, black_box(5), model)
    });

    bench("e4_switch_latency/unpadded_sweep", 10, || {
        exp::e4_switch_latency(false, black_box(&[0, 96, 192]))
    });
    bench("e4_switch_latency/padded_sweep", 10, || {
        exp::e4_switch_latency(true, black_box(&[0, 96, 192]))
    });

    let delay = exp::e5_victim_slice_delays()[0];
    bench("e5_irq_channel/unpartitioned", 10, || {
        exp::e5_transmit_once(false, true, black_box(delay), model)
    });
    bench("e5_irq_channel/partitioned", 10, || {
        exp::e5_transmit_once(true, true, black_box(delay), model)
    });

    bench("e6_kernel_clone/shared_image", 10, || {
        exp::e6_syscall_latency(false, true, model)
    });
    bench("e6_kernel_clone/cloned_image", 10, || {
        exp::e6_syscall_latency(true, true, model)
    });

    bench("e7_proof/ni_check_full", 5, || {
        tp_core::check_noninterference(&tp_bench::canonical_scenario(None))
    });
    bench("e7_proof/prove_sequential", 3, || {
        tp_core::prove(
            &tp_bench::canonical_scenario(None),
            &tp_core::default_time_models(),
        )
    });
    bench("e7_proof/prove_parallel", 3, || {
        engine::prove_parallel(
            &tp_bench::canonical_scenario(None),
            &tp_core::default_time_models(),
        )
    });

    bench("e8_tlb_theorem/randomised_rounds", 10, || {
        tp_bench::report_e8(black_box(3))
    });

    bench("e9_algorithmic/padded_delivery", 10, || {
        exp::e1_delivery_time(true, black_box(u64::MAX), model)
    });

    bench("e10_interconnect/no_mitigation", 10, || {
        exp::e10_interconnect(None, model)
    });

    bench("e11_ablation/one_mechanism", 5, || {
        tp_core::check_noninterference(&tp_bench::canonical_scenario(Some(Mechanism::Padding)))
    });

    bench("e12_branch_predictor/open", 10, || {
        exp::e12_transmit_once(TimeProtConfig::off(), black_box(false), model)
    });
    bench("e12_branch_predictor/closed", 10, || {
        exp::e12_transmit_once(TimeProtConfig::full(), black_box(false), model)
    });

    bench("e13_hyperthread/sibling_threads", 10, || {
        exp::e13_transmit_once(true, black_box(9), model)
    });
    bench("e13_hyperthread/separate_cores", 10, || {
        exp::e13_transmit_once(false, black_box(9), model)
    });

    use tp_core::exhaustive::ExhaustiveConfig;
    // The sequential checker records every run: it is the reference the
    // pooled digest-first scan is pinned against, not a production path.
    bench("e14_exhaustive/length_2_recording_reference", 5, || {
        tp_core::check_exhaustive(&ExhaustiveConfig {
            max_len: 2,
            ..ExhaustiveConfig::small(TimeProtConfig::full())
        })
    });
    bench("e14_exhaustive/length_2_parallel", 5, || {
        engine::check_exhaustive_parallel(&ExhaustiveConfig {
            max_len: 2,
            ..ExhaustiveConfig::small(TimeProtConfig::full())
        })
    });
}

//! Adversarial witness suite: deliberately break each §4 mechanism and
//! each §5.2 obligation, and require the checkers to produce a concrete
//! *divergence witness* — never a false Pass.
//!
//! Two layers of sabotage:
//!
//! * **Mechanism ablations** (colouring off, flush-at-switch skipped,
//!   padding disabled): the NI checker must report a `Leak` whose
//!   first-divergence index and events reproduce exactly when the two
//!   secrets' systems are replayed under [`run_monitored`] — the same
//!   replayability contract the engine's certified traces rely on.
//! * **Obligation-level fault injection** (via the
//!   [`run_monitored_with`] monitor hook, the seam built for exactly
//!   this): forged frame ownership must fail P, post-flush cache
//!   residue must fail F, and an inadequate pad budget must fail T —
//!   each with the right [`ViolationKind`]. Every obligation also has a
//!   passing control so a vacuous checker cannot hide here.

use tp_core::flush::FlushReference;
use tp_core::noninterference::{
    check_noninterference, first_divergence, run_monitored, run_monitored_with, NiScenario,
    NiVerdict,
};
use tp_core::obligation::ViolationKind;
use tp_hw::machine::MachineConfig;
use tp_hw::types::{CoreId, Cycles, DomainTag, PAddr};
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::{DomainId, ObsEvent};
use tp_kernel::kernel::System;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};

/// The witness machine: a direct-mapped LLC (single-line insertions
/// evict, so LLC interference is visible with small working sets) and
/// no L2 — the shape the colouring mechanism is load-bearing on.
fn witness_machine() -> MachineConfig {
    use tp_hw::cache::{CacheConfig, ReplacementPolicy};
    MachineConfig {
        l2: None,
        llc: Some(CacheConfig {
            sets: 512,
            ways: 1,
            write_back: true,
            policy: ReplacementPolicy::Lru,
        }),
        mem_frames: 2048,
        ..MachineConfig::single_core()
    }
}

/// A scenario where every ablated channel class is live: Hi dirties a
/// secret-dependent number of lines page-major across 12 pages (LLC
/// occupancy across colours, dirtiness, switch-flush latency), Lo
/// self-times a probe sweep spanning 8 pages' worth of colours.
fn witness_scenario(tp: TimeProtConfig) -> NiScenario {
    NiScenario {
        mcfg: witness_machine(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * 16)
                    .map(|i| Instr::Store(data_addr((i % 12) * 4096 + (i / 12) * 64)))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..40 {
                for i in 0..48u64 {
                    lo.push(Instr::Load(data_addr((i / 6) * 4096 + (i % 6) * 64)));
                }
                lo.push(Instr::ReadClock);
            }
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_slice(Cycles(20_000))
                    .with_pad(Cycles(30_000))
                    .with_data_pages(12),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_slice(Cycles(20_000))
                    .with_pad(Cycles(30_000))
                    .with_data_pages(8),
            ])
            .with_tp(tp)
        }),
        lo: DomainId(1),
        secrets: vec![0, 3, 11],
        budget: Cycles(1_500_000),
        max_steps: 400_000,
    }
}

/// Lo's trace from a monitored replay of one secret.
fn monitored_trace(sc: &NiScenario, secret: u64) -> Vec<ObsEvent> {
    let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("witness system");
    run_monitored(sys, sc.lo, sc.budget, sc.max_steps)
        .lo_trace
        .expect("recording run keeps a trace")
}

/// Disable `m`; require a leak whose witness replays exactly through
/// `run_monitored`: same first-divergence index, same events, and the
/// two events actually differ.
fn assert_divergence_witness(m: Mechanism) {
    let sc = witness_scenario(TimeProtConfig::full_without(m));
    let verdict = check_noninterference(&sc);
    let NiVerdict::Leak {
        secret_a,
        secret_b,
        divergence,
        event_a,
        event_b,
    } = verdict
    else {
        panic!("disabling {m:?} must produce a divergence witness, got false {verdict}");
    };

    let trace_a = monitored_trace(&sc, secret_a);
    let trace_b = monitored_trace(&sc, secret_b);
    assert_eq!(
        first_divergence(&trace_a, &trace_b),
        Some(divergence),
        "{m:?}: monitored replay must diverge at the witnessed index"
    );
    assert_eq!(
        trace_a.get(divergence).copied(),
        event_a,
        "{m:?}: secret {secret_a}'s event at the divergence must reproduce"
    );
    assert_eq!(
        trace_b.get(divergence).copied(),
        event_b,
        "{m:?}: secret {secret_b}'s event at the divergence must reproduce"
    );
    assert_ne!(event_a, event_b, "{m:?}: witness events must differ");
}

#[test]
fn colouring_off_yields_a_replayable_divergence_witness() {
    assert_divergence_witness(Mechanism::Colouring);
}

#[test]
fn flush_at_switch_skipped_yields_a_replayable_divergence_witness() {
    assert_divergence_witness(Mechanism::Flush);
}

#[test]
fn padding_disabled_yields_a_replayable_divergence_witness() {
    assert_divergence_witness(Mechanism::Padding);
}

/// The control: with everything on, the same scenario must not produce
/// a (false) witness — and the monitored replays agree event-for-event.
#[test]
fn full_protection_produces_no_false_witness() {
    let sc = witness_scenario(TimeProtConfig::full());
    let verdict = check_noninterference(&sc);
    assert!(verdict.passed(), "{verdict}");
    let a = monitored_trace(&sc, sc.secrets[0]);
    let b = monitored_trace(&sc, sc.secrets[2]);
    assert_eq!(first_divergence(&a, &b), None);
    assert!(!a.is_empty(), "Lo must actually observe something");
}

// ---------------------------------------------------------------------
// Obligation-level fault injection
// ---------------------------------------------------------------------

/// A fully protected system for the injection runs.
fn protected_system() -> (NiScenario, System) {
    let sc = witness_scenario(TimeProtConfig::full());
    let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(7)).expect("witness system");
    (sc, sys)
}

/// P fails under forged frame ownership: a hostile monitor hands a
/// kernel-coloured frame to domain 0 at the first switch, and the next
/// partition check must flag it.
#[test]
fn p_fails_under_forged_frame_ownership() {
    let (sc, sys) = protected_system();
    let llc_colours = sys.hw.config().llc.unwrap().colours() as u64;
    let kcolour = sys.kernel.kernel_colours[0];
    let mut forged = false;
    let reference = FlushReference::of(&sys);
    let run = run_monitored_with(sys, &reference, sc.lo, sc.budget, sc.max_steps, |sys| {
        if !forged {
            let pfn = (0..sys.hw.mem.num_frames() as u64)
                .find(|p| p % llc_colours == kcolour.0 as u64)
                .expect("a kernel-coloured frame exists");
            sys.hw.mem.assign(pfn, DomainTag(0));
            forged = true;
        }
    });
    assert!(forged, "the run must reach at least one switch");
    assert!(!run.p.holds(), "forged ownership must fail P");
    assert!(run
        .p
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::PartitionFrame));
}

/// P holds on the unsabotaged run, with real check points.
#[test]
fn p_holds_without_sabotage() {
    let (sc, sys) = protected_system();
    let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
    assert!(run.p.holds(), "{}", run.p);
    assert!(run.p.checked_points > 0);
}

/// F fails when a hostile monitor re-dirties the L1 after the switch
/// flush: the post-switch core digest can no longer be canonical.
#[test]
fn f_fails_when_residue_survives_the_switch_flush() {
    let (sc, sys) = protected_system();
    let reference = FlushReference::of(&sys);
    let run = run_monitored_with(sys, &reference, sc.lo, sc.budget, sc.max_steps, |sys| {
        // Warm one line back into the L1 the kernel just flushed.
        let _ = sys
            .hw
            .access_phys(CoreId(0), PAddr(64), false, false, DomainTag(0));
    });
    assert!(!run.f.holds(), "post-flush residue must fail F");
    assert!(run
        .f
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::FlushResidue));
}

/// F holds on the unsabotaged run, with real check points.
#[test]
fn f_holds_without_sabotage() {
    let (sc, sys) = protected_system();
    let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
    assert!(run.f.holds(), "{}", run.f);
    assert!(run.f.checked_points > 0);
}

/// T fails when the pad budget cannot absorb the switch path: the
/// overrun must surface as a `PadOverrun` violation, not vanish.
#[test]
fn t_fails_with_inadequate_pad_budget() {
    let sc = witness_scenario(TimeProtConfig::full());
    let starved = {
        let inner = sc.make_kcfg;
        move |secret: u64| {
            let mut kcfg = inner(secret);
            for d in &mut kcfg.domains {
                d.pad = Cycles(1);
            }
            kcfg
        }
    };
    let sys = System::new(sc.mcfg.clone(), starved(7)).expect("witness system");
    let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
    assert!(!run.t.holds(), "a 1-cycle pad cannot hold T");
    assert!(run
        .t
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::PadOverrun));
}

/// T holds with an adequate pad, with real check points.
#[test]
fn t_holds_without_sabotage() {
    let (sc, sys) = protected_system();
    let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
    assert!(run.t.holds(), "{}", run.t);
    assert!(run.t.checked_points > 0);
}

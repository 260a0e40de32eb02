//! The transparency oracle: the empirical ground for the engine's
//! certified single-run mode. For random small configurations, the
//! monitored run's rolling Lo digest must equal the plain
//! (unmonitored) replay's digest — monitoring is invisible in Lo's
//! trace — so reusing the monitored trace as the NI baseline is sound.
//!
//! The suite also mounts deliberately *perturbing* mock monitors
//! through the [`run_monitored_with`] hook and shows the certification
//! rejects them: a monitor that touches observable state (or the
//! observation log itself) produces a digest mismatch, never a silent
//! false certificate.

use proptest::prelude::*;

use tp_core::flush::FlushReference;
use tp_core::noninterference::{
    certify_transparency, lo_trace, obs_digest, run_monitored, run_monitored_with, NiScenario,
};
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
use tp_kernel::domain::{DomainId, ObsEvent};
use tp_kernel::kernel::System;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};

/// A seed-parameterised small scenario: the seed varies Hi's access
/// pattern, the stride and the slice geometry, so each case certifies a
/// different execution.
fn seeded_scenario(seed: u64, tp: TimeProtConfig) -> NiScenario {
    let stride = 64 + (seed % 3) * 64;
    let span = 4 + seed % 5;
    let slice = 12_000 + (seed % 4) * 2_000;
    NiScenario {
        mcfg: MachineConfig::single_core(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * (16 + seed % 16))
                    .map(|i| Instr::Store(data_addr((i * stride) % (span * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..12 {
                for i in 0..24 {
                    lo.push(Instr::Load(data_addr(i * 64)));
                }
                lo.push(Instr::ReadClock);
            }
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_slice(Cycles(slice))
                    .with_pad(Cycles(25_000)),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_slice(Cycles(slice))
                    .with_pad(Cycles(25_000)),
            ])
            .with_tp(tp)
        }),
        lo: DomainId(1),
        secrets: vec![seed % 5, 2 + seed % 7],
        budget: Cycles(400_000),
        max_steps: 150_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle itself: monitored Lo trace ≡ plain replay trace
    /// (event for event *and* digest for digest), under full and no
    /// protection, for every secret of a random scenario.
    #[test]
    fn monitored_digest_equals_plain_replay_digest(
        seed in 0u64..400,
        tp_on in any::<bool>(),
    ) {
        let tp = if tp_on { TimeProtConfig::full() } else { TimeProtConfig::off() };
        let sc = seeded_scenario(seed, tp);
        for &secret in &sc.secrets {
            let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
            let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
            let replay = lo_trace(&sc.mcfg, &(sc.make_kcfg)(secret), sc.lo, sc.budget, sc.max_steps);
            let trace = &run.system.observation(sc.lo).events;
            prop_assert_eq!(trace, &replay, "seed {} secret {}", seed, secret);
            prop_assert_eq!(run.lo_digest, obs_digest(&replay));

            // A digest-only monitored run carries the identical
            // fingerprint without retaining a trace at all.
            let mut digest_sys =
                System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
            digest_sys.use_digest_sinks();
            let digest_run = run_monitored(digest_sys, sc.lo, sc.budget, sc.max_steps);
            prop_assert!(digest_run.system.observation_opt(sc.lo).is_none());
            prop_assert_eq!(digest_run.lo_len, run.lo_len);
            prop_assert_eq!(digest_run.lo_digest, run.lo_digest);
            prop_assert_eq!(digest_run.switch_digest, run.switch_digest);
            prop_assert_eq!(&digest_run.p, &run.p);
            prop_assert_eq!(&digest_run.f, &run.f);
            prop_assert_eq!(&digest_run.t, &run.t);

            let cert = certify_transparency(
                &run, &sc.mcfg, (sc.make_kcfg)(secret), sc.lo, sc.budget, sc.max_steps,
            );
            prop_assert!(cert.transparent(), "{}", cert);
            let digest_cert = certify_transparency(
                &digest_run, &sc.mcfg, (sc.make_kcfg)(secret), sc.lo, sc.budget, sc.max_steps,
            );
            prop_assert_eq!(cert, digest_cert, "certificates must not depend on the sink");
        }
    }

    /// A mock monitor that tampers with the observation log is caught:
    /// the certification must come back non-transparent.
    #[test]
    fn log_tampering_mock_monitor_is_rejected(seed in 0u64..400) {
        let sc = seeded_scenario(seed, TimeProtConfig::full());
        let secret = sc.secrets[1];
        let lo = sc.lo;
        let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
        let mut perturbed = false;
        let reference = FlushReference::of(&sys);
        let run = run_monitored_with(sys, &reference, lo, sc.budget, sc.max_steps, |sys| {
            if !perturbed {
                sys.kernel.domains[lo.0]
                    .obs
                    .observation_mut()
                    .expect("recording sink")
                    .events
                    .push(ObsEvent::Fault);
                perturbed = true;
            }
        });
        prop_assert!(perturbed, "the run must reach a switch");
        let cert = certify_transparency(
            &run, &sc.mcfg, (sc.make_kcfg)(secret), sc.lo, sc.budget, sc.max_steps,
        );
        prop_assert!(!cert.transparent(), "tampering must break the certificate: {}", cert);
        prop_assert!(cert.to_string().contains("NOT transparent"));
    }
}

/// A *history-rewriting* mock monitor — one that mutates an
/// already-folded event in place instead of appending — is caught by
/// the final-fold cross-check: the rolling digest no longer matches a
/// fresh fold of the log, so the certified digest is poisoned and the
/// comparison against the replay fails.
#[test]
fn history_rewriting_mock_monitor_is_rejected() {
    let sc = seeded_scenario(5, TimeProtConfig::full());
    let secret = sc.secrets[1];
    let lo = sc.lo;
    let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
    let mut rewrote = false;
    let reference = FlushReference::of(&sys);
    let run = run_monitored_with(sys, &reference, lo, sc.budget, sc.max_steps, |sys| {
        let events = &mut sys.kernel.domains[lo.0]
            .obs
            .observation_mut()
            .expect("recording sink")
            .events;
        if !rewrote && !events.is_empty() {
            events[0] = ObsEvent::Fault;
            rewrote = true;
        }
    });
    assert!(rewrote, "the run must reach a switch after Lo observed");
    let cert = certify_transparency(
        &run,
        &sc.mcfg,
        (sc.make_kcfg)(secret),
        sc.lo,
        sc.budget,
        sc.max_steps,
    );
    assert!(
        !cert.transparent(),
        "in-place history rewriting must break the certificate: {cert}"
    );
}

/// A *truncating* mock monitor (popping folded events off the log)
/// must neither panic the rolling fold nor certify: the clamp keeps
/// the run alive and the cross-check rejects the certificate.
#[test]
fn truncating_mock_monitor_is_rejected_without_panicking() {
    let sc = seeded_scenario(5, TimeProtConfig::full());
    let secret = sc.secrets[1];
    let lo = sc.lo;
    let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
    let mut truncated = false;
    let reference = FlushReference::of(&sys);
    let run = run_monitored_with(sys, &reference, lo, sc.budget, sc.max_steps, |sys| {
        let events = &mut sys.kernel.domains[lo.0]
            .obs
            .observation_mut()
            .expect("recording sink")
            .events;
        if !truncated && !events.is_empty() {
            events.pop();
            truncated = true;
        }
    });
    assert!(truncated, "the run must reach a switch after Lo observed");
    let cert = certify_transparency(
        &run,
        &sc.mcfg,
        (sc.make_kcfg)(secret),
        sc.lo,
        sc.budget,
        sc.max_steps,
    );
    assert!(
        !cert.transparent(),
        "truncating the log must break the certificate: {cert}"
    );
}

/// A mock monitor that perturbs *timing* (burning cycles at each
/// switch) is caught even under full protection: the hook fires after
/// the padded switch completes, so the burned cycles intrude into the
/// incoming domain's slice and shift every clock Lo subsequently reads
/// — exactly the class of monitor the certification exists to reject.
#[test]
fn timing_perturbing_mock_monitor_is_rejected() {
    for tp in [
        TimeProtConfig::full(),
        TimeProtConfig::full_without(tp_kernel::config::Mechanism::Padding),
    ] {
        let sc = seeded_scenario(3, tp);
        let secret = sc.secrets[1];
        let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
        let reference = FlushReference::of(&sys);
        let run = run_monitored_with(sys, &reference, sc.lo, sc.budget, sc.max_steps, |sys| {
            let core = sys.kernel.core;
            sys.hw.compute(core, 137);
        });
        let cert = certify_transparency(
            &run,
            &sc.mcfg,
            (sc.make_kcfg)(secret),
            sc.lo,
            sc.budget,
            sc.max_steps,
        );
        assert!(
            !cert.transparent(),
            "burned cycles must shift Lo's observed clocks ({tp:?}): {cert}"
        );
    }
}

/// Control: a hook that only *reads* (recomputing digests, walking
/// cache lines — everything the real monitors do) stays certifiably
/// transparent, so the certification has no false positives to offer.
#[test]
fn read_only_mock_monitor_stays_transparent() {
    let sc = seeded_scenario(3, TimeProtConfig::full());
    let secret = sc.secrets[1];
    let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("system");
    let mut sink = 0u64;
    let reference = FlushReference::of(&sys);
    let run = run_monitored_with(sys, &reference, sc.lo, sc.budget, sc.max_steps, |sys| {
        // Heavy read-only inspection: digest the core and count lines.
        sink ^= sys.hw.cores[sys.kernel.core.0].microarch_digest();
        sink ^= sys.hw.cores[sys.kernel.core.0]
            .l1d
            .iter_lines()
            .filter(|(_, _, l)| l.valid)
            .count() as u64;
    });
    assert!(sink != u64::MAX, "keep the reads observable");
    let cert = certify_transparency(
        &run,
        &sc.mcfg,
        (sc.make_kcfg)(secret),
        sc.lo,
        sc.budget,
        sc.max_steps,
    );
    assert!(
        cert.transparent(),
        "read-only monitoring must certify: {cert}"
    );
}

//! Witness replay: a failing ablation is only useful evidence if its
//! leak witness is *replayable*. For every §4 mechanism, disabling it in
//! the canonical scenario must produce an NI leak whose distinguishing
//! Lo trace reproduces exactly when the two secrets' systems are re-run
//! under `noninterference::run_monitored`.

use tp_bench::canonical_scenario;
use tp_core::check_noninterference;
use tp_core::noninterference::{first_divergence, obs_digest, run_monitored, NiVerdict};
use tp_kernel::config::Mechanism;
use tp_kernel::domain::ObsEvent;
use tp_kernel::kernel::System;

/// Monitored replay of the canonical scenario for one secret, returning
/// Lo's observation log.
fn monitored_lo_trace(disable: Option<Mechanism>, secret: u64) -> Vec<ObsEvent> {
    let sc = canonical_scenario(disable);
    let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).expect("canonical system");
    let mut run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
    let trace = run
        .system
        .take_observation(sc.lo)
        .expect("recording run keeps a trace");
    assert_eq!(run.lo_len, trace.len());
    assert_eq!(
        run.lo_digest,
        obs_digest(&trace),
        "certified digest must be the system's own log's"
    );
    trace
}

#[test]
fn every_ablation_yields_a_replayable_witness() {
    for m in Mechanism::ALL {
        let verdict = check_noninterference(&canonical_scenario(Some(m)));
        let NiVerdict::Leak {
            secret_a,
            secret_b,
            divergence,
            event_a,
            event_b,
        } = verdict
        else {
            panic!("disabling {m:?} must open a channel, got {verdict}");
        };

        // Replay both secrets under monitoring; the distinguishing Lo
        // trace must reproduce event-for-event.
        let trace_a = monitored_lo_trace(Some(m), secret_a);
        let trace_b = monitored_lo_trace(Some(m), secret_b);
        assert_eq!(
            first_divergence(&trace_a, &trace_b),
            Some(divergence),
            "{m:?}: replay must diverge at the witnessed event"
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
}

#[test]
fn full_protection_replay_has_no_divergence() {
    let verdict = check_noninterference(&canonical_scenario(None));
    assert!(verdict.passed(), "{verdict}");
    let sc = canonical_scenario(None);
    let a = monitored_lo_trace(None, sc.secrets[0]);
    let b = monitored_lo_trace(None, sc.secrets[1]);
    assert_eq!(first_divergence(&a, &b), None);
    assert!(!a.is_empty(), "Lo must actually observe something");
}

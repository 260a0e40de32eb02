//! Witness replay: a failing ablation is only useful evidence if its
//! leak witness is *replayable*. For every §4 mechanism, disabling it in
//! the canonical scenario must produce an NI leak whose distinguishing
//! Lo trace reproduces exactly when the two secrets' systems are re-run
//! under `noninterference::run_monitored`, and the engine's witnesses,
//! read off its monitored runs' Lo logs, must be the ones a lockstep
//! re-run of the diverging pair finds.

use tp_bench::{canonical_machine, canonical_scenario};
use tp_core::check_noninterference;
use tp_core::engine::ScenarioMatrix;
use tp_core::noninterference::{
    first_divergence, lockstep_divergence, obs_digest, run_monitored, NiVerdict,
};
use tp_core::proof::default_time_models;
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

/// The engine reads each leak witness off the Lo logs its monitored runs
/// recorded. Over the E11 sweep under two time models, every leaking
/// verdict's witness must equal `lockstep_divergence` on freshly built
/// plain systems of the same cell, model and secrets: the re-run the
/// merge no longer does, kept as the oracle.
#[test]
fn engine_witnesses_match_a_lockstep_rerun_on_the_e11_sweep() {
    let models = default_time_models()[..2].to_vec();
    let matrix = ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(models);
    let report = matrix.run(|c| canonical_scenario(c.disable));
    let mut leaks = 0;
    for (cell, proof) in &report.cells {
        let sc = canonical_scenario(cell.disable);
        for v in &proof.ni {
            let NiVerdict::Leak {
                secret_a,
                secret_b,
                divergence,
                event_a,
                event_b,
            } = v.verdict
            else {
                continue;
            };
            let mut mcfg = cell.mcfg.clone();
            mcfg.time_model = v.model;
            let build = |secret| {
                let mut kcfg = (sc.make_kcfg)(secret);
                kcfg.tp = cell.tp;
                System::from_parts(&mcfg, &kcfg).expect("canonical system")
            };
            assert_eq!(
                lockstep_divergence(
                    build(secret_a),
                    build(secret_b),
                    sc.lo,
                    sc.budget,
                    sc.max_steps
                ),
                Some((divergence, event_a, event_b)),
                "{} under {:?}",
                cell.label(),
                v.model
            );
            leaks += 1;
        }
    }
    assert_eq!(leaks, 12, "all six ablations leak under both models");
}

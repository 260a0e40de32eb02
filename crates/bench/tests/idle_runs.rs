//! Idle runs against the step-by-step loop.
//!
//! `System::advance` takes a halted or blocked domain's run of idle
//! ticks in one O(1) call and reports how many steps it stands for;
//! `System::step` is its one-tick case. Over the canonical scenario
//! under all seven protection settings, every default time model and two
//! secrets (one of which arms a device interrupt that fires in Lo's
//! slice), this suite drives one system with `advance` as
//! `System::run_cycles` does and a second with `step()` once per step,
//! and requires the two to agree after every `advance`: the same event
//! for each step of a run, the same machine, clock, schedule, switch log,
//! domain states and pcs, Lo's observation fingerprint and step count.
//! One canonical run's `advance` call count is pinned, so a batch that
//! silently falls back to one tick per call fails here.

use tp_bench::canonical_scenario;
use tp_core::default_time_models;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{KernelConfig, Mechanism};
use tp_kernel::domain::DomainId;
use tp_kernel::kernel::{StepEvent, System};

/// Two of the canonical secrets: 0 idles Hi early, 3 also arms line 5.
const SECRETS: [u64; 2] = [0, 3];

/// Require `fast` and `slow` to be in the same state; `at` names the
/// point in failure messages.
fn assert_same(fast: &System, slow: &System, lo: DomainId, at: &str) {
    assert_eq!(fast.now(), slow.now(), "{at}: clock");
    assert!(fast.hw == slow.hw, "{at}: machine");
    let (kf, ks) = (&fast.kernel, &slow.kernel);
    assert_eq!(kf.current, ks.current, "{at}: current domain");
    assert_eq!(kf.slice_start, ks.slice_start, "{at}: slice start");
    assert_eq!(kf.deadline, ks.deadline, "{at}: deadline");
    assert_eq!(kf.switch_log, ks.switch_log, "{at}: switch log");
    for (df, ds) in kf.domains.iter().zip(&ks.domains) {
        assert_eq!(df.state, ds.state, "{at}: domain {:?} state", df.id);
        assert_eq!(df.pc, ds.pc, "{at}: domain {:?} pc", df.id);
    }
    assert_eq!(fast.obs_len(lo), slow.obs_len(lo), "{at}: Lo's length");
    assert_eq!(
        fast.obs_digest(lo),
        slow.obs_digest(lo),
        "{at}: Lo's digest"
    );
}

/// Run `kcfg` to `budget`/`max_steps` both ways and return
/// `(advance calls, steps)`.
fn run_both(
    mcfg: &MachineConfig,
    kcfg: &KernelConfig,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
    label: &str,
) -> (usize, usize) {
    let build = || {
        let mut sys = System::from_parts(mcfg, kcfg).expect("canonical systems build");
        sys.use_digest_sinks();
        sys
    };
    let (mut fast, mut slow) = (build(), build());
    let (mut calls, mut steps) = (0, 0);
    while fast.now() < budget && steps < max_steps {
        let (ev, n) = fast.advance(budget, max_steps - steps);
        calls += 1;
        assert!(n >= 1, "{label}: an advance takes at least one step");
        if n > 1 {
            assert_eq!(ev, StepEvent::IdleTick, "{label}: only idle ticks batch");
        }
        for i in 0..n {
            // The step-by-step loop would still be running here.
            assert!(
                slow.now() < budget && steps + i < max_steps,
                "{label}: the run at step {steps} overran its bounds"
            );
            assert_eq!(slow.step(), ev, "{label}: step {}", steps + i);
        }
        steps += n;
        assert_same(&fast, &slow, lo, &format!("{label} after step {steps}"));
    }
    // And it would stop where the batched loop stopped.
    assert!(!(slow.now() < budget && steps < max_steps), "{label}");
    (calls, steps)
}

#[test]
fn advance_matches_the_step_loop_on_every_canonical_run() {
    let (mut calls, mut steps) = (0, 0);
    for disable in std::iter::once(None).chain(Mechanism::ALL.into_iter().map(Some)) {
        let sc = canonical_scenario(disable);
        for (mi, model) in default_time_models().into_iter().enumerate() {
            let mcfg = MachineConfig {
                time_model: model,
                ..sc.mcfg.clone()
            };
            for secret in SECRETS {
                let label = format!("{disable:?} model {mi} secret {secret}");
                let (c, s) = run_both(
                    &mcfg,
                    &(sc.make_kcfg)(secret),
                    sc.lo,
                    sc.budget,
                    sc.max_steps,
                    &label,
                );
                calls += c;
                steps += s;
            }
        }
    }
    // Idle ticks are most of every run's steps, and runs take them in
    // batches.
    assert!(calls * 4 < steps, "{calls} advance calls for {steps} steps");
}

#[test]
fn one_canonical_run_takes_its_idle_ticks_in_batches() {
    // Full protection, the canonical machine's own time model, secret 0.
    let sc = canonical_scenario(None);
    let kcfg = (sc.make_kcfg)(0);
    let got = run_both(&sc.mcfg, &kcfg, sc.lo, sc.budget, sc.max_steps, "pin");
    assert_eq!(got, (1157, 7869), "(advance calls, steps)");
}

//! The noninterference checker: the executable analogue of §5.2's
//! information-flow proof.
//!
//! The paper's theorem shape: fix a domain Lo; for any two behaviours of
//! the other domains (any two values of Hi's secret), Lo's *observable
//! trace* — every clock value it reads, every message it receives and
//! when — must be identical. "By reflecting elapsed time as a value in
//! the state of the time model, timing-channel reasoning is reduced to
//! storage-channel reasoning": our observations are exactly such stored
//! clock values.
//!
//! Where the paper proves this once and for all with Isabelle/HOL, the
//! reproduction *checks* it by exhaustive replay: build the same system
//! under every secret in a caller-supplied set, run each copy for the
//! same budget, and compare Lo's observation logs. A divergence is a
//! concrete, replayable timing-channel witness; its absence over the
//! enumerated secrets (and over a family of time models, see
//! [`crate::proof`]) is the evidence the proof obligations are
//! discharged.
//!
//! ## Digest-first execution
//!
//! The sequential checker never materialises an observation log. Each
//! run's system carries [`tp_hw::obs::ObsSink::digest_only`] sinks, so
//! Lo's log exists only as a rolling `(len, digest)` fingerprint folded
//! as events are emitted; [`check_ni_parts`] compares fingerprints.
//! Only when two fingerprints disagree does the checker re-run the
//! offending pair with recording sinks to extract the replayable
//! witness ([`first_divergence`] index plus the diverging events) —
//! byte-identical to what a fully recorded comparison reports, because
//! sinks cannot influence execution. The engine's proof shards compare
//! the same fingerprints, but each monitored run records Lo's log as
//! well, so the engine reads a witness off the pair's logs
//! ([`leak_between`]) instead of re-running it ([`crate::engine`]).
//! [`check_ni_parts_recording`] and the sequential
//! [`crate::proof::prove`] keep the fully materialised comparison alive
//! as the references the digest path is pinned against.
//!
//! ## Observation transparency
//!
//! The monitors that check P/F/T must themselves be *invisible* in Lo's
//! observable trace — otherwise the monitored run is evidence about a
//! different system than the one the NI replay examines. Every check
//! takes `&System` (read-only by construction); one
//! [`crate::partition::SwitchMonitor`] per run answers F, P and the
//! switch digest at every switch. [`run_monitored`] additionally
//! *certifies* transparency: it threads a rolling digest of Lo's
//! observation log (and a chain of the post-switch core digests)
//! through the run, so one digest comparison against a plain,
//! unmonitored replay ([`TransparencyCert`]) proves monitoring cannot
//! have perturbed the trace. Certified transparency is what lets the
//! engine reuse the monitored run's Lo fingerprint as the NI baseline
//! and drop the second replay per (model, secret) cell.

use crate::flush::FlushReference;
use crate::obligation::ObligationResult;
use crate::padding::check_padding;
use crate::partition::SwitchMonitor;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::KernelConfig;
use tp_kernel::domain::{DomainId, ObsEvent};
use tp_kernel::kernel::{StepEvent, System};

/// A parameterised family of systems: one per secret value.
///
/// `make_kcfg` must build configurations that are *identical except for
/// Hi's secret-dependent behaviour* — Lo's program, all slice/pad
/// parameters, and the machine must not depend on the secret, otherwise
/// the comparison is meaningless. (The checker cannot verify this
/// intent; it is the experiment author's equivalent of the paper's
/// "without loss of generality, fix some domain Lo".)
pub struct NiScenario {
    /// Machine configuration (shared by all secrets).
    pub mcfg: MachineConfig,
    /// Builds the kernel configuration for a given secret. `Send + Sync`
    /// so the engine can shard the (time-model × secret) product across
    /// worker threads ([`crate::engine`]).
    pub make_kcfg: Box<dyn Fn(u64) -> KernelConfig + Send + Sync>,
    /// The observer domain.
    pub lo: DomainId,
    /// The secrets to enumerate.
    pub secrets: Vec<u64>,
    /// Cycle budget per run.
    pub budget: Cycles,
    /// Step safety-net per run.
    pub max_steps: usize,
}

/// The checker's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NiVerdict {
    /// All secret pairs produced identical Lo observations.
    Pass {
        /// Number of secrets enumerated.
        secrets: usize,
        /// Total events compared.
        events_compared: usize,
    },
    /// A distinguishing pair was found: a concrete channel witness.
    Leak {
        /// First secret of the distinguishing pair.
        secret_a: u64,
        /// Second secret of the distinguishing pair.
        secret_b: u64,
        /// Index of the first diverging observation event.
        divergence: usize,
        /// Lo's event under `secret_a` at that index (None = trace ended).
        event_a: Option<ObsEvent>,
        /// Lo's event under `secret_b` at that index.
        event_b: Option<ObsEvent>,
    },
}

impl NiVerdict {
    /// Whether noninterference held.
    pub fn passed(&self) -> bool {
        matches!(self, NiVerdict::Pass { .. })
    }
}

impl core::fmt::Display for NiVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NiVerdict::Pass {
                secrets,
                events_compared,
            } => write!(
                f,
                "[NI] HOLDS over {secrets} secrets ({events_compared} events compared)"
            ),
            NiVerdict::Leak {
                secret_a,
                secret_b,
                divergence,
                event_a,
                event_b,
            } => write!(
                f,
                "[NI] LEAK: secrets {secret_a} vs {secret_b} diverge at event {divergence}: \
                 {event_a:?} vs {event_b:?}"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Observation digests (the primitives live with the sinks in tp-hw)
// ---------------------------------------------------------------------

pub use tp_hw::obs::{fold_obs_event, mix_digest, obs_digest, OBS_DIGEST_SEED};

/// The observation-transparency certificate for one proof cell: the
/// digest of Lo's trace as seen by the *monitored* run versus the plain,
/// unmonitored replay of the identical configuration. Equality proves
/// the monitors did not perturb what Lo observes — the ground on which
/// the engine reuses monitored traces as NI baselines instead of paying
/// a second replay per (model, secret).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransparencyCert {
    /// Rolling digest of Lo's observation log in the monitored run
    /// (cross-checked against a fresh fold of the final log, so a
    /// history-rewriting monitor cannot leave it matching the replay).
    pub monitored_digest: u64,
    /// Digest of Lo's observation log in the plain replay.
    pub replay_digest: u64,
    /// Chain of the post-switch core-local digests of the monitored
    /// run. Not part of the transparency comparison (the plain replay
    /// has no switch monitor to chain against); it is a fingerprint of
    /// the canonical post-flush states that the determinism harness
    /// pins bit-identical across sequential/scoped/pooled execution
    /// and wire shards — a divergence here means the engine ran
    /// different switches than the reference driver.
    pub switch_digest: u64,
}

impl TransparencyCert {
    /// Whether monitoring was provably invisible in Lo's trace.
    pub fn transparent(&self) -> bool {
        self.monitored_digest == self.replay_digest
    }
}

impl core::fmt::Display for TransparencyCert {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.transparent() {
            write!(
                f,
                "monitoring: observation-transparent (lo digest {:#018x}, switch chain {:#018x})",
                self.monitored_digest, self.switch_digest
            )
        } else {
            write!(
                f,
                "monitoring: NOT transparent (monitored lo digest {:#018x} != replay {:#018x})",
                self.monitored_digest, self.replay_digest
            )
        }
    }
}

/// Results of running one system while checking the functional
/// obligations P/F/T along the way.
#[derive(Debug)]
pub struct MonitoredRun {
    /// The system after the run.
    pub system: System,
    /// Partitioning invariant result.
    pub p: ObligationResult,
    /// Flush correctness result.
    pub f: ObligationResult,
    /// Padding correctness result.
    pub t: ObligationResult,
    /// Steps executed.
    pub steps: usize,
    /// Number of events Lo observed. When the system records, Lo's
    /// trace itself is `system.observation(lo)`; on the digest-only hot
    /// path the `(lo_len, lo_digest)` fingerprint stands in for it.
    pub lo_len: usize,
    /// Rolling digest of Lo's observation log, folded event by event by
    /// the sink as the run progressed (equals [`obs_digest`] of the
    /// trace when one is recorded).
    pub lo_digest: u64,
    /// Rolling chain of post-switch core-local digests.
    pub switch_digest: u64,
}

impl MonitoredRun {
    /// Build the transparency certificate from this run and the digest
    /// of a plain, unmonitored replay of the same configuration.
    pub fn certify(&self, replay_digest: u64) -> TransparencyCert {
        TransparencyCert {
            monitored_digest: self.lo_digest,
            replay_digest,
            switch_digest: self.switch_digest,
        }
    }
}

/// Run `sys` for `budget` cycles (at most `max_steps` steps), checking
/// P at every switch and every `P_CHECK_INTERVAL` steps, F immediately
/// after every switch, and T at the end. `lo` is the observer domain
/// whose trace is certified (rolling digest threaded through the run).
pub fn run_monitored(sys: System, lo: DomainId, budget: Cycles, max_steps: usize) -> MonitoredRun {
    let reference = FlushReference::of(&sys);
    run_monitored_with(sys, &reference, lo, budget, max_steps, |_| {})
}

/// [`run_monitored`] against a prebuilt [`FlushReference`] for `sys`'s
/// scheduled core, with a monitor hook invoked at every domain switch,
/// *before* the standard F/P checks. The engine passes a no-op hook and
/// shares one reference across every run of a submission on the same
/// core; a reference from another core geometry never matches, so the F
/// check fails closed.
///
/// Idle ticks run in batches ([`System::advance`]) that end on every
/// `P_CHECK_INTERVAL` boundary, so P is checked after the same steps as
/// a step-by-step loop would check it.
///
/// The standard checks take `&System` and cannot perturb the run; the
/// hook takes `&mut System` deliberately — it is the seam where the test
/// suite injects faults (to force divergence witnesses) and mounts mock
/// *perturbing* monitors, proving the transparency certification would
/// reject a monitor that touches what Lo can observe.
pub fn run_monitored_with(
    mut sys: System,
    reference: &FlushReference,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
    mut monitor: impl FnMut(&mut System),
) -> MonitoredRun {
    const P_CHECK_INTERVAL: usize = 2048;
    assert_eq!(
        reference.core.id, sys.kernel.core,
        "flush reference built for another core"
    );
    // One `SwitchMonitor` per run answers F, P and the switch digest
    // from a single structural compare against the reference's pristine
    // core per switch. A flushed core *equals* it, so F holds and the
    // digest is the precomputed one; anything else costs what changed
    // since the last check (see `crate::partition`). Its results equal
    // `check_flush_at_switch`, `check_partition` and
    // `Core::microarch_digest` exactly.
    let mut checks = SwitchMonitor::new(reference);
    let mut p = ObligationResult::new("P");
    let mut f = ObligationResult::new("F");
    let mut steps = 0;
    let mut switch_digest = OBS_DIGEST_SEED;

    p.merge(checks.check_partition(&sys));
    while sys.now().0 < budget.0 && steps < max_steps {
        let limit = (max_steps - steps).min(P_CHECK_INTERVAL - steps % P_CHECK_INTERVAL);
        let (ev, n) = sys.advance(budget, limit);
        steps += n;
        if let StepEvent::Switched { .. } = ev {
            monitor(&mut sys);
            let (f_at, p_at, digest) = checks.at_switch(&sys);
            f.merge(f_at);
            p.merge(p_at);
            switch_digest = mix_digest(switch_digest, digest);
        } else if steps % P_CHECK_INTERVAL == 0 {
            p.merge(checks.check_partition(&sys));
        }
    }
    let t = check_padding(&sys);
    // The rolling Lo digest is threaded through the run by the sink
    // itself, folding each event as the kernel emits it — so the digest
    // exists *during* the run and nothing here retains the trace.
    let lo_len = sys.obs_len(lo);
    let mut lo_digest = sys.obs_digest(lo);
    // Recording runs cross-check the rolling digest against a fresh
    // fold of the final log. They differ only when a monitor bypassed
    // the sink and edited the log behind its back (append, rewrite or
    // truncation through `observation_mut`) — a monitor that records
    // through the sink is caught by the replay comparison instead. Mix
    // the two so certification fails loudly rather than certifying a
    // trace the rolling digest never saw. Digest-only runs have no log
    // to edit, so the rolling digest is the ground truth by
    // construction.
    if let Some(log) = sys.observation_opt(lo) {
        let final_digest = obs_digest(&log.events);
        if lo_digest != final_digest {
            lo_digest = mix_digest(lo_digest, final_digest);
        }
    }
    MonitoredRun {
        system: sys,
        p,
        f,
        t,
        steps,
        lo_len,
        lo_digest,
        switch_digest,
    }
}

/// Run the plain (unmonitored) replay for one configuration and certify
/// `run` against it: the one-time-per-cell digest comparison that
/// proves monitoring is observation-transparent. The replay runs
/// digest-only — its digest comes straight from the sink, so no replay
/// trace is ever materialised.
pub fn certify_transparency(
    run: &MonitoredRun,
    mcfg: &MachineConfig,
    kcfg: KernelConfig,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
) -> TransparencyCert {
    run.certify(lo_digest_len(mcfg, &kcfg, lo, budget, max_steps).1)
}

/// Index of the first difference between two observation logs, if any
/// (including a length mismatch).
pub fn first_divergence(a: &[ObsEvent], b: &[ObsEvent]) -> Option<usize> {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i] != b[i] {
            return Some(i);
        }
    }
    if a.len() != b.len() {
        Some(n)
    } else {
        None
    }
}

/// Run the scenario and compare Lo's observations across all secrets —
/// digest-first: each run is trace-free, and the full logs are only
/// re-materialised for the offending pair when a leak is found.
pub fn check_noninterference(sc: &NiScenario) -> NiVerdict {
    check_ni_parts(
        &sc.mcfg,
        &*sc.make_kcfg,
        sc.lo,
        &sc.secrets,
        sc.budget,
        sc.max_steps,
    )
}

/// [`check_noninterference`] over unbundled parts — used by
/// [`crate::proof::prove`] to substitute machine configurations (e.g.
/// different time models) without rebuilding the scenario.
///
/// Digest-first: every secret runs against digest-only sinks and only
/// `(len, digest)` fingerprints are compared. On a mismatch,
/// the baseline and the offending secret are re-run with recording
/// sinks to extract the witness; the resulting [`NiVerdict::Leak`] is
/// byte-identical to the fully recorded comparison's
/// ([`check_ni_parts_recording`], the equivalence oracle).
pub fn check_ni_parts(
    mcfg: &MachineConfig,
    make_kcfg: &(dyn Fn(u64) -> KernelConfig + Send + Sync),
    lo: DomainId,
    secrets: &[u64],
    budget: Cycles,
    max_steps: usize,
) -> NiVerdict {
    assert!(secrets.len() >= 2, "need at least two secrets to compare");
    let runs: Vec<(u64, usize, u64)> = secrets
        .iter()
        .map(|&s| {
            let (len, digest) = lo_digest_len(mcfg, &make_kcfg(s), lo, budget, max_steps);
            (s, len, digest)
        })
        .collect();
    compare_secret_digests(&runs).unwrap_or_else(|b| {
        // Divergence: lockstep re-run of the offending pair, recording
        // sinks, stopped at the first diverging event.
        let build = |s| {
            System::from_parts(mcfg, &make_kcfg(s))
                .expect("scenario construction must succeed for every secret")
        };
        lockstep_leak(
            (secrets[0], build(secrets[0])),
            (secrets[b], build(secrets[b])),
            lo,
            budget,
            max_steps,
        )
    })
}

/// [`check_ni_parts`] with every run fully recorded and compared event
/// by event — the pre-digest-first semantics, kept as the equivalence
/// oracle the digest path is property-tested against.
pub fn check_ni_parts_recording(
    mcfg: &MachineConfig,
    make_kcfg: &(dyn Fn(u64) -> KernelConfig + Send + Sync),
    lo: DomainId,
    secrets: &[u64],
    budget: Cycles,
    max_steps: usize,
) -> NiVerdict {
    assert!(secrets.len() >= 2, "need at least two secrets to compare");
    let runs: Vec<(u64, Vec<ObsEvent>)> = secrets
        .iter()
        .map(|&s| (s, lo_trace(mcfg, &make_kcfg(s), lo, budget, max_steps)))
        .collect();
    compare_secret_runs(&runs)
}

/// Build and run one system, returning Lo's observation log — the
/// recording-mode unit of work: the recording checker, the sequential
/// double-run [`crate::proof::prove`], and the equivalence oracles.
pub fn lo_trace(
    mcfg: &MachineConfig,
    kcfg: &KernelConfig,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
) -> Vec<ObsEvent> {
    let mut sys = System::from_parts(mcfg, kcfg)
        .expect("scenario construction must succeed for every secret");
    sys.run_cycles(budget, max_steps);
    sys.take_observation(lo)
        .expect("freshly built systems record")
}

/// Build and run one system trace-free, returning only the `(len,
/// digest)` fingerprint of Lo's observation log — the digest-first unit
/// of work. Allocates no per-event storage at all.
pub fn lo_digest_len(
    mcfg: &MachineConfig,
    kcfg: &KernelConfig,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
) -> (usize, u64) {
    let mut sys = System::from_parts(mcfg, kcfg)
        .expect("scenario construction must succeed for every secret");
    sys.use_digest_sinks();
    sys.run_cycles(budget, max_steps);
    (sys.obs_len(lo), sys.obs_digest(lo))
}

/// The [`NiVerdict::Leak`] between two recorded runs, or `None` when
/// they agree. The engine's merge and [`compare_secret_runs`] read
/// their witnesses with it, and the lockstep path builds the same
/// shape, so a witness looks the same wherever the leak was noticed.
pub fn leak_between(
    secret_a: u64,
    base: &[ObsEvent],
    secret_b: u64,
    other: &[ObsEvent],
) -> Option<NiVerdict> {
    first_divergence(base, other).map(|i| NiVerdict::Leak {
        secret_a,
        secret_b,
        divergence: i,
        event_a: base.get(i).copied(),
        event_b: other.get(i).copied(),
    })
}

/// Run two freshly built (recording) systems in lockstep and return
/// their Lo observations' first divergence — `(index, event_a,
/// event_b)` — or `None` when the full runs agree event for event.
///
/// This is the witness extractor of the sequential digest-first
/// checker ([`check_ni_parts`]) and of the exhaustive check, whose runs
/// keep no log, and the oracle for the engine's witnesses. Both systems
/// execute only **up to the diverging event** (leaks typically diverge
/// within the first observation window, so the fallback costs a
/// fraction of two full runs), yet the result is
/// exactly [`first_divergence`] over the two complete traces — each
/// system advances under the same `budget`/`max_steps` bounds as
/// [`System::run_cycles`], idle runs batched the same way (an idle tick
/// emits no event), and events already emitted cannot change.
pub fn lockstep_divergence(
    mut a: System,
    mut b: System,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
) -> Option<(usize, Option<ObsEvent>, Option<ObsEvent>)> {
    /// Advance `sys` until Lo has observed more than `upto` events or
    /// the run is over (budget spent / step cap hit) — the same loop
    /// as `System::run_cycles`, paused at event boundaries.
    fn advance(
        sys: &mut System,
        steps: &mut usize,
        lo: DomainId,
        budget: Cycles,
        max_steps: usize,
        upto: usize,
    ) {
        while sys.obs_len(lo) <= upto && sys.now().0 < budget.0 && *steps < max_steps {
            *steps += sys.advance(budget, max_steps - *steps).1;
        }
    }
    let (mut steps_a, mut steps_b) = (0usize, 0usize);
    let mut i = 0;
    loop {
        advance(&mut a, &mut steps_a, lo, budget, max_steps, i);
        advance(&mut b, &mut steps_b, lo, budget, max_steps, i);
        let ea = a.observation(lo).events.get(i).copied();
        let eb = b.observation(lo).events.get(i).copied();
        match (ea, eb) {
            (None, None) => return None,
            (ea, eb) if ea != eb => return Some((i, ea, eb)),
            _ => i += 1,
        }
    }
}

/// Materialise the [`NiVerdict::Leak`] for two secrets whose
/// fingerprints diverged, by running their freshly built (recording)
/// systems in lockstep to the first diverging event. The sequential
/// checker's witness path; its shape is [`leak_between`]'s, which the
/// engine's merge applies to its monitored runs' Lo logs, so a witness
/// has one shape wherever the leak was first noticed.
pub(crate) fn lockstep_leak(
    (secret_a, a): (u64, System),
    (secret_b, b): (u64, System),
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
) -> NiVerdict {
    let (divergence, event_a, event_b) = lockstep_divergence(a, b, lo, budget, max_steps)
        .expect("a fingerprint mismatch implies a trace divergence");
    NiVerdict::Leak {
        secret_a,
        secret_b,
        divergence,
        event_a,
        event_b,
    }
}

/// Compare per-secret observation logs (first run is the baseline) and
/// produce the NI verdict. Shared by the recording-mode checker and the
/// sequential double-run [`crate::proof::prove`], so both report
/// identical verdicts.
pub fn compare_secret_runs(runs: &[(u64, Vec<ObsEvent>)]) -> NiVerdict {
    assert!(runs.len() >= 2, "need at least two secrets to compare");
    let (s0, ref base) = runs[0];
    let mut compared = base.len();
    for (s, obs) in runs.iter().skip(1) {
        compared += obs.len();
        if let Some(v) = leak_between(s0, base, *s, obs) {
            return v;
        }
    }
    NiVerdict::Pass {
        secrets: runs.len(),
        events_compared: compared,
    }
}

/// Compare per-secret `(secret, len, digest)` fingerprints (first run
/// is the baseline). `Ok` is the [`NiVerdict::Pass`] — with the same
/// `events_compared` a recorded comparison would report — and `Err(i)`
/// is the index into `runs` of the first secret whose fingerprint
/// disagrees with the baseline's, exactly the secret the recorded
/// comparison would have reported first (equal traces have equal
/// fingerprints, and distinct fingerprints force distinct traces).
pub fn compare_secret_digests(runs: &[(u64, usize, u64)]) -> Result<NiVerdict, usize> {
    assert!(runs.len() >= 2, "need at least two secrets to compare");
    let (_, base_len, base_digest) = runs[0];
    let mut compared = base_len;
    for (i, &(_, len, digest)) in runs.iter().enumerate().skip(1) {
        compared += len;
        if (len, digest) != (base_len, base_digest) {
            return Err(i);
        }
    }
    Ok(NiVerdict::Pass {
        secrets: runs.len(),
        events_compared: compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_hw::types::Cycles;
    use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
    use tp_kernel::layout::data_addr;
    use tp_kernel::program::{Instr, TraceProgram};

    /// Hi: touches an amount of memory controlled by the secret (0 =
    /// idle, k = thrash k pages), dirtying lines as it goes.
    fn hi_program(secret: u64) -> TraceProgram {
        let mut instrs = Vec::new();
        for i in 0..secret * 64 {
            instrs.push(Instr::Store(data_addr((i * 64) % (16 * 4096))));
        }
        TraceProgram::new(instrs)
    }

    /// Lo: repeatedly probes a small buffer, reading the clock after
    /// each sweep — a self-timing observer in the sense of §3.1.
    fn lo_program(sweeps: usize) -> TraceProgram {
        let mut instrs = Vec::new();
        for _ in 0..sweeps {
            for i in 0..32 {
                instrs.push(Instr::Load(data_addr(i * 64)));
            }
            instrs.push(Instr::ReadClock);
        }
        instrs.push(Instr::Halt);
        TraceProgram::new(instrs)
    }

    fn scenario(tp: TimeProtConfig) -> NiScenario {
        NiScenario {
            mcfg: MachineConfig::single_core(),
            make_kcfg: Box::new(move |secret| {
                KernelConfig::new(vec![
                    DomainSpec::new(Box::new(hi_program(secret)))
                        .with_slice(Cycles(20_000))
                        .with_pad(Cycles(30_000)),
                    DomainSpec::new(Box::new(lo_program(40)))
                        .with_slice(Cycles(20_000))
                        .with_pad(Cycles(30_000)),
                ])
                .with_tp(tp)
            }),
            lo: DomainId(1),
            secrets: vec![0, 3, 11],
            budget: Cycles(1_500_000),
            max_steps: 400_000,
        }
    }

    #[test]
    fn full_protection_passes() {
        let v = check_noninterference(&scenario(TimeProtConfig::full()));
        assert!(v.passed(), "{v}");
        if let NiVerdict::Pass {
            events_compared, ..
        } = v
        {
            assert!(
                events_compared > 50,
                "Lo must actually have observed things"
            );
        }
    }

    #[test]
    fn no_protection_leaks() {
        let v = check_noninterference(&scenario(TimeProtConfig::off()));
        assert!(!v.passed(), "unprotected system must leak: {v}");
    }

    #[test]
    fn monitored_run_discharges_pft() {
        let sc = scenario(TimeProtConfig::full());
        let kcfg = (sc.make_kcfg)(7);
        let sys = System::new(sc.mcfg.clone(), kcfg).unwrap();
        let run = run_monitored(sys, sc.lo, Cycles(800_000), 200_000);
        assert!(run.p.holds(), "{}", run.p);
        assert!(run.f.holds(), "{}", run.f);
        assert!(run.t.holds(), "{}", run.t);
        assert!(run.p.checked_points > 0);
        assert!(run.f.checked_points > 0);
        assert!(run.t.checked_points > 0);
        let trace = &run.system.observation(sc.lo).events;
        assert_eq!(run.lo_len, trace.len());
        assert_eq!(run.lo_digest, obs_digest(trace));
    }

    /// A digest-only monitored run discharges the same obligations and
    /// produces the same fingerprint as the recording run — with no
    /// trace retained anywhere.
    #[test]
    fn digest_only_monitored_run_matches_recording_fingerprint() {
        let sc = scenario(TimeProtConfig::full());
        let recorded = run_monitored(
            System::new(sc.mcfg.clone(), (sc.make_kcfg)(7)).unwrap(),
            sc.lo,
            Cycles(800_000),
            200_000,
        );
        let mut sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(7)).unwrap();
        sys.use_digest_sinks();
        let digest_only = run_monitored(sys, sc.lo, Cycles(800_000), 200_000);
        assert!(
            digest_only.system.observation_opt(sc.lo).is_none(),
            "digest runs keep no trace"
        );
        assert_eq!(digest_only.lo_len, recorded.lo_len);
        assert_eq!(digest_only.lo_digest, recorded.lo_digest);
        assert_eq!(digest_only.switch_digest, recorded.switch_digest);
        assert_eq!(digest_only.steps, recorded.steps);
        assert_eq!(digest_only.p, recorded.p);
        assert_eq!(digest_only.f, recorded.f);
        assert_eq!(digest_only.t, recorded.t);
    }

    /// The monitored run's rolling digest must equal the plain replay's
    /// digest — monitoring is observation-transparent — and the
    /// certificate must say so.
    #[test]
    fn monitored_run_is_observation_transparent() {
        let sc = scenario(TimeProtConfig::full());
        let kcfg = (sc.make_kcfg)(3);
        let sys = System::new(sc.mcfg.clone(), kcfg).unwrap();
        let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
        let cert = certify_transparency(
            &run,
            &sc.mcfg,
            (sc.make_kcfg)(3),
            sc.lo,
            sc.budget,
            sc.max_steps,
        );
        assert!(cert.transparent(), "{cert}");
        assert_eq!(cert.monitored_digest, run.lo_digest);
        assert!(cert.to_string().contains("observation-transparent"));
    }

    /// Digest-first and fully recorded NI checks agree — on a passing
    /// scenario and on a leaking one, witness included.
    #[test]
    fn digest_first_verdicts_match_recording_verdicts() {
        for tp in [TimeProtConfig::full(), TimeProtConfig::off()] {
            let sc = scenario(tp);
            let digest_first = check_noninterference(&sc);
            let recorded = check_ni_parts_recording(
                &sc.mcfg,
                &*sc.make_kcfg,
                sc.lo,
                &sc.secrets,
                sc.budget,
                sc.max_steps,
            );
            assert_eq!(digest_first, recorded, "{tp:?}");
        }
    }

    /// The lockstep extractor finds exactly the divergence (index and
    /// events) that [`first_divergence`] over the two full recorded
    /// traces reports — and `None` when the full traces agree.
    #[test]
    fn lockstep_divergence_matches_full_trace_divergence() {
        for (tp, secrets) in [
            (TimeProtConfig::off(), (0u64, 11u64)),
            (TimeProtConfig::full(), (0, 11)),
            (TimeProtConfig::off(), (3, 3)),
        ] {
            let sc = scenario(tp);
            let trace = |s| lo_trace(&sc.mcfg, &(sc.make_kcfg)(s), sc.lo, sc.budget, sc.max_steps);
            let build = |s| System::new(sc.mcfg.clone(), (sc.make_kcfg)(s)).unwrap();
            let (a, b) = (trace(secrets.0), trace(secrets.1));
            let expected =
                first_divergence(&a, &b).map(|i| (i, a.get(i).copied(), b.get(i).copied()));
            let got = lockstep_divergence(
                build(secrets.0),
                build(secrets.1),
                sc.lo,
                sc.budget,
                sc.max_steps,
            );
            assert_eq!(got, expected, "{tp:?} secrets {secrets:?}");
        }
    }

    #[test]
    fn compare_secret_digests_finds_first_mismatch() {
        let runs = vec![(0u64, 5usize, 77u64), (1, 5, 77), (2, 5, 78), (3, 4, 77)];
        assert_eq!(compare_secret_digests(&runs), Err(2));
        let pass = vec![(0u64, 5usize, 77u64), (1, 5, 77), (9, 5, 77)];
        assert_eq!(
            compare_secret_digests(&pass),
            Ok(NiVerdict::Pass {
                secrets: 3,
                events_compared: 15
            })
        );
    }

    #[test]
    fn first_divergence_finds_mismatch() {
        use ObsEvent::*;
        let a = vec![Clock(Cycles(1)), Clock(Cycles(2))];
        let b = vec![Clock(Cycles(1)), Clock(Cycles(3))];
        assert_eq!(first_divergence(&a, &b), Some(1));
        assert_eq!(first_divergence(&a, &a), None);
        let c = vec![Clock(Cycles(1))];
        assert_eq!(
            first_divergence(&a, &c),
            Some(1),
            "length mismatch diverges"
        );
    }

    #[test]
    fn verdict_display() {
        let v = NiVerdict::Pass {
            secrets: 3,
            events_compared: 120,
        };
        assert!(v.to_string().contains("HOLDS"));
        let l = NiVerdict::Leak {
            secret_a: 0,
            secret_b: 1,
            divergence: 5,
            event_a: None,
            event_b: None,
        };
        assert!(l.to_string().contains("LEAK"));
    }

    #[test]
    #[should_panic(expected = "at least two secrets")]
    fn requires_two_secrets() {
        let mut sc = scenario(TimeProtConfig::full());
        sc.secrets = vec![1];
        check_noninterference(&sc);
    }
}

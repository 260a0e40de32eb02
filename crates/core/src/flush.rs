//! Obligation F: flush correctness (§4.1, §5.2).
//!
//! Flushing must reset every time-shared resource to a *canonical,
//! history-independent* state at each domain switch. Two checks:
//!
//! 1. **Reset-state check** — immediately after each switch, the
//!    switched-to core's local microarchitectural digest equals the
//!    digest of a pristine core (computed once from a fresh machine).
//!    [`check_flush_at_switch`] hashes the live core every time and is
//!    the reference. The monitored loop asks its run's
//!    [`crate::partition::SwitchMonitor`] instead, which compares the
//!    core with a [`FlushReference`]'s pristine core first: an equal
//!    core has the reference's digest, and a dirty one's digest, which
//!    its components keep current, is read once for F and the switch
//!    digest both.
//! 2. **History-independence check** — a direct differential experiment:
//!    run two copies of a system through wildly different histories,
//!    flush both, and require digest equality. This is the executable
//!    analogue of the paper's "reset them to a defined,
//!    history-independent state".

use crate::obligation::{ObligationResult, ViolationKind};
use tp_hw::machine::{Core, Machine, MachineConfig};
use tp_hw::types::CoreId;
use tp_kernel::kernel::System;

/// The canonical post-flush digest for a machine configuration: the
/// core-local digest of a freshly constructed core.
pub fn canonical_core_digest(sys: &System) -> u64 {
    let fresh = Machine::new(sys.hw.config().clone());
    fresh.cores[sys.kernel.core.0].microarch_digest()
}

/// The canonical post-flush core state, kept around by monitors so the
/// per-switch reset check can be a structural comparison, which no
/// digest collision can fool and which also shows that no valid line
/// survived. The digest is the hash of exactly that state, so
/// `state == reference.core` implies the core's digest *is*
/// `reference.digest`.
///
/// A reference depends only on the core's geometry (caches, TLB,
/// predictors), not on the time model or on anything the kernel runs,
/// so runs on equal cores can share one. What a run may reuse between
/// its own switches lives in its [`crate::partition::SwitchMonitor`].
#[derive(Debug)]
pub struct FlushReference {
    /// A pristine core of the monitored machine's configuration.
    pub core: Core,
    /// Its microarchitectural digest ([`canonical_core_digest`]).
    pub digest: u64,
}

impl FlushReference {
    /// Build the reference for `sys`'s scheduled core.
    pub fn of(sys: &System) -> Self {
        Self::from_core(Core::new(sys.kernel.core, sys.hw.config()))
    }

    /// The reference whose pristine state is `core` — a fresh
    /// [`Core::new`].
    pub fn from_core(core: Core) -> Self {
        let digest = core.microarch_digest();
        FlushReference { core, digest }
    }

    /// Whether the scheduled core's state equals the pristine core: the
    /// one structural comparison a domain switch needs
    /// ([`crate::partition::SwitchMonitor::at_switch`]).
    pub fn is_pristine(&self, sys: &System) -> bool {
        sys.hw.cores[sys.kernel.core.0].microarch_eq(&self.core)
    }
}

/// Check the reset-state property on `sys` *right now* — callers invoke
/// this immediately after observing a `Switched` event. It digests the
/// live core every time: the reference the monitored loop's
/// [`crate::partition::SwitchMonitor`] is pinned against.
pub fn check_flush_at_switch(sys: &System, canonical: u64) -> ObligationResult {
    flush_result(sys, canonical, || {
        sys.hw.cores[sys.kernel.core.0].microarch_digest()
    })
}

/// [`check_flush_at_switch`] with the scheduled core's microarch digest
/// taken from `digest`, which is asked for only when flushing is
/// claimed.
pub(crate) fn flush_result(
    sys: &System,
    canonical: u64,
    digest: impl FnOnce() -> u64,
) -> ObligationResult {
    let mut r = ObligationResult::new("F");
    if !sys.kernel.tp.flush_on_switch {
        return r; // not claimed; NI will expose the residue channel
    }
    r.checked_points += 1;
    let digest = digest();
    if digest != canonical {
        r.violate(
            ViolationKind::FlushResidue,
            sys.now(),
            format!("post-switch core digest {digest:#x} != canonical {canonical:#x}"),
        );
    }
    // Belt and braces: no valid line may carry any ghost owner at all.
    let core = &sys.hw.cores[sys.kernel.core.0];
    let residue = core
        .l1d
        .iter_lines()
        .chain(core.l1i.iter_lines())
        .filter(|(_, _, l)| l.valid)
        .count();
    if residue != 0 {
        r.violate(
            ViolationKind::FlushResidue,
            sys.now(),
            format!("{residue} valid L1 lines survived the switch flush"),
        );
    }
    r
}

/// Differential history-independence: drive `core`'s local state of two
/// fresh machines through `history_a`/`history_b` (arbitrary physical
/// access sequences), flush both, and compare digests.
pub fn flush_is_history_independent(
    cfg: &MachineConfig,
    history_a: &[(u64, bool)],
    history_b: &[(u64, bool)],
) -> bool {
    let run = |hist: &[(u64, bool)]| {
        let mut m = Machine::new(cfg.clone());
        for (paddr, write) in hist {
            let p = tp_hw::types::PAddr(*paddr % (m.mem.size_bytes()));
            let _ = m.access_phys(CoreId(0), p, *write, false, tp_hw::types::DomainTag(0));
        }
        m.flush_core_local(CoreId(0));
        m.cores[0].microarch_digest()
    };
    run(history_a) == run(history_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
    use tp_kernel::kernel::StepEvent;
    use tp_kernel::layout::data_addr;
    use tp_kernel::program::TraceProgram;

    fn dirty_system(tp: TimeProtConfig) -> System {
        let writer = TraceProgram::new(
            (0..64)
                .map(|i| tp_kernel::program::Instr::Store(data_addr(i * 64)))
                .collect(),
        );
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(writer.clone())),
            DomainSpec::new(Box::new(writer)),
        ])
        .with_tp(tp);
        System::new(MachineConfig::single_core(), kcfg).unwrap()
    }

    #[test]
    fn f_holds_at_every_switch_with_flushing() {
        let mut sys = dirty_system(TimeProtConfig::full());
        let canonical = canonical_core_digest(&sys);
        let mut checks = 0;
        for _ in 0..400_000 {
            if let StepEvent::Switched { .. } = sys.step() {
                let r = check_flush_at_switch(&sys, canonical);
                assert!(r.holds(), "{r}");
                checks += 1;
                if checks >= 5 {
                    break;
                }
            }
        }
        assert!(checks >= 5);
    }

    #[test]
    fn f_detects_missing_flush() {
        // With flushing off the digest differs — but the obligation is
        // "not claimed", so we check the *mechanism* directly: force the
        // claim on a system that does not flush.
        let mut sys = dirty_system(TimeProtConfig::off());
        let canonical = canonical_core_digest(&sys);
        for _ in 0..400_000 {
            if let StepEvent::Switched { .. } = sys.step() {
                break;
            }
        }
        // Pretend the config claimed flushing; residue must be caught.
        sys.kernel.tp.flush_on_switch = true;
        let r = check_flush_at_switch(&sys, canonical);
        assert!(!r.holds(), "unflushed switch must leave residue");
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::FlushResidue));
    }

    /// One reference serves every run of a cell: the time model does
    /// not change the pristine core, and neither does building it
    /// without the rest of the machine.
    #[test]
    fn references_from_every_time_models_machine_are_equal() {
        let sys = dirty_system(TimeProtConfig::full());
        let of_sys = FlushReference::of(&sys);
        for base in [MachineConfig::single_core(), MachineConfig::dual_core()] {
            let fresh = Machine::new(base.clone());
            let refs: Vec<FlushReference> = crate::proof::default_time_models()
                .into_iter()
                .map(|model| {
                    let mut mcfg = base.clone();
                    mcfg.time_model = model;
                    FlushReference::from_core(Core::new(CoreId(0), &mcfg))
                })
                .collect();
            for r in &refs {
                assert!(r.core.microarch_eq(&fresh.cores[0]));
                assert_eq!(r.digest, fresh.cores[0].microarch_digest());
                assert!(r.core.microarch_eq(&refs[0].core));
                assert_eq!(r.digest, refs[0].digest);
            }
        }
        let single = FlushReference::from_core(Core::new(CoreId(0), &MachineConfig::single_core()));
        assert!(of_sys.core.microarch_eq(&single.core));
        assert_eq!(of_sys.digest, single.digest);
    }

    #[test]
    fn flush_erases_any_history() {
        let cfg = MachineConfig::single_core();
        let a: Vec<(u64, bool)> = (0..500).map(|i| (i * 64, i % 3 == 0)).collect();
        let b: Vec<(u64, bool)> = (0..17).map(|i| (i * 4096 + 128, true)).collect();
        assert!(flush_is_history_independent(&cfg, &a, &b));
        assert!(flush_is_history_independent(&cfg, &a, &[]));
    }

    #[test]
    fn without_flush_histories_remain_distinguishable() {
        // Control for the previous test: if we do NOT flush, the digests
        // differ — showing the differential check has power.
        let cfg = MachineConfig::single_core();
        let run = |hist: &[(u64, bool)]| {
            let mut m = Machine::new(cfg.clone());
            for (paddr, write) in hist {
                let p = tp_hw::types::PAddr(*paddr);
                let _ = m.access_phys(CoreId(0), p, *write, false, tp_hw::types::DomainTag(0));
            }
            m.cores[0].microarch_digest()
        };
        let a: Vec<(u64, bool)> = (0..50).map(|i| (i * 64, false)).collect();
        assert_ne!(run(&a), run(&[]));
    }
}

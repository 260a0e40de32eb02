//! The switch monitor's flush answer against its naive reference.
//!
//! At every domain switch the monitored loop answers obligations F and
//! P and the switch digest with one [`SwitchMonitor::at_switch`]: one
//! structural compare against a prebuilt [`FlushReference`], and one
//! read of the running digest of a core the flush left dirty. The naive
//! path rebuilds a pristine machine for its digest
//! ([`canonical_core_digest`]) and checks the live core
//! ([`check_flush_at_switch`]). Over the canonical scenario under all
//! seven protection settings, with flushing claimed at every switch, the
//! monitor must give the naive F result, [`check_partition`]'s P and
//! the core's digest folded from scratch
//! (`Core::microarch_digest_from_scratch`) at every switch. `partition_reference.rs` compares the same monitor at the
//! settings' own claims, with hostile hooks.

use tp_bench::canonical_scenario;
use tp_core::flush::{canonical_core_digest, check_flush_at_switch, FlushReference};
use tp_core::noninterference::run_monitored_with;
use tp_core::partition::{check_partition, SwitchMonitor};
use tp_kernel::config::Mechanism;
use tp_kernel::kernel::System;

#[test]
fn the_flush_fast_path_matches_the_naive_check_at_every_switch() {
    let (mut pristine_switches, mut dirty_switches, mut violations) = (0, 0, 0);
    for disable in std::iter::once(None).chain(Mechanism::ALL.into_iter().map(Some)) {
        let sc = canonical_scenario(disable);
        for &secret in &sc.secrets {
            let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).unwrap();
            let reference = FlushReference::of(&sys);
            let mut monitor = SwitchMonitor::new(&reference);
            run_monitored_with(sys, &reference, sc.lo, sc.budget, sc.max_steps, |sys| {
                // Claim flushing for the duration of the checks, so an
                // ablated run's residue reaches both violation paths;
                // the flag is restored before the run goes on.
                let claimed = sys.kernel.tp.flush_on_switch;
                sys.kernel.tp.flush_on_switch = true;
                let ctx = format!("{disable:?}, secret {secret}");
                let (f, p, digest) = monitor.at_switch(sys);
                let naive = check_flush_at_switch(sys, canonical_core_digest(sys));
                assert_eq!(f, naive, "{ctx}: F");
                assert_eq!(p, check_partition(sys), "{ctx}: P");
                let core = &sys.hw.cores[sys.kernel.core.0];
                let want = core.microarch_digest_from_scratch();
                assert_eq!(digest, want, "{ctx}: digest");
                sys.kernel.tp.flush_on_switch = claimed;
                if reference.is_pristine(sys) {
                    pristine_switches += 1;
                } else {
                    dirty_switches += 1;
                }
                violations += naive.violations.len();
            });
        }
    }
    // Both sides of the fast path ran, and the naive check found
    // residue on some switches: the comparison has power.
    assert!(pristine_switches > 0 && dirty_switches > 0 && violations > 0);
}

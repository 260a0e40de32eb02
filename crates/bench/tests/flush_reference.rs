//! The monitors' flush fast path against its naive reference.
//!
//! At every domain switch the monitored loop answers obligation F with
//! one structural compare against a prebuilt [`FlushReference`]. The
//! naive path rebuilds a pristine machine for its digest
//! ([`canonical_core_digest`]) and hashes the live core
//! ([`check_flush_at_switch`]). Over the canonical scenario under all
//! seven protection settings, both must give the same F result at
//! every switch. The switch digest the loop reuses from the reference
//! is checked against `Core::microarch_digest` by
//! `partition_reference.rs`.

use tp_bench::canonical_scenario;
use tp_core::flush::{
    canonical_core_digest, check_flush_at_switch, check_flush_at_switch_ref, FlushReference,
};
use tp_core::noninterference::run_monitored_with;
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
            run_monitored_with(sys, sc.lo, sc.budget, sc.max_steps, |sys| {
                // Claim flushing for the duration of the checks, so an
                // ablated run's residue reaches both violation paths;
                // the flag is restored before the run goes on.
                let claimed = sys.kernel.tp.flush_on_switch;
                sys.kernel.tp.flush_on_switch = true;
                let pristine = reference.is_pristine(sys);
                let fast = check_flush_at_switch_ref(sys, &reference, pristine);
                let naive = check_flush_at_switch(sys, canonical_core_digest(sys));
                assert_eq!(fast, naive, "{disable:?}, secret {secret}");
                sys.kernel.tp.flush_on_switch = claimed;
                if pristine {
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

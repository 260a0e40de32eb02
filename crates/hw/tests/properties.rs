//! Property-based tests (proptest) for the hardware model's invariants.
//!
//! These are the "functional properties" §5 reduces time protection to,
//! checked over randomised operation sequences rather than hand-picked
//! cases: flush canonicality, set locality, TLB/ASID isolation,
//! replacement-state containment.

use proptest::prelude::*;

use tp_hw::cache::{Cache, CacheConfig, ReplacementPolicy};
use tp_hw::machine::{Machine, MachineConfig};
use tp_hw::obs::{obs_digest, ObsEvent, ObsSink};
use tp_hw::tlb::{Tlb, TlbEntry, TlbLookup};
use tp_hw::types::{Asid, CoreId, Cycles, DomainTag, PAddr, VAddr};

fn obs_event_strategy() -> impl Strategy<Value = ObsEvent> {
    prop_oneof![
        (0u64..1 << 20).prop_map(|c| ObsEvent::Clock(Cycles(c))),
        ((0u64..1 << 16), (0u64..1 << 20)).prop_map(|(msg, at)| ObsEvent::IpcRecv {
            msg,
            at: Cycles(at)
        }),
        Just(ObsEvent::Fault),
        Just(ObsEvent::Halted),
    ]
}

fn small_cache(policy: ReplacementPolicy) -> Cache {
    Cache::new(CacheConfig {
        sets: 8,
        ways: 4,
        write_back: true,
        policy,
    })
}

fn policy_strategy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Lru),
        Just(ReplacementPolicy::TreePlru),
        Just(ReplacementPolicy::GlobalRandom),
    ]
}

proptest! {
    /// Occupancy never exceeds capacity, and an accessed line is
    /// resident immediately afterwards.
    #[test]
    fn cache_occupancy_bounded_and_access_installs(
        policy in policy_strategy(),
        ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let mut c = small_cache(policy);
        for (addr, write) in ops {
            let paddr = PAddr(addr * 8); // arbitrary byte addresses
            c.access(paddr, write, DomainTag(0));
            prop_assert!(c.peek(paddr), "just-accessed line must be resident");
            prop_assert!(c.occupancy() <= 32);
            prop_assert!(c.dirty_lines() <= c.occupancy());
        }
    }

    /// Flushing is canonical: any two histories flush to the same state,
    /// and flushing twice equals flushing once.
    #[test]
    fn cache_flush_canonical(
        policy in policy_strategy(),
        ops_a in prop::collection::vec((0u64..4096, any::<bool>()), 0..150),
        ops_b in prop::collection::vec((0u64..4096, any::<bool>()), 0..150),
    ) {
        let mut a = small_cache(policy);
        let mut b = small_cache(policy);
        for (addr, w) in ops_a { a.access(PAddr(addr * 8), w, DomainTag(1)); }
        for (addr, w) in ops_b { b.access(PAddr(addr * 8), w, DomainTag(2)); }
        a.flush_all();
        b.flush_all();
        prop_assert_eq!(a.state_digest(), b.state_digest());
        let d = a.state_digest();
        a.flush_all();
        prop_assert_eq!(a.state_digest(), d, "flush must be idempotent");
        prop_assert_eq!(a.occupancy(), 0);
    }

    /// Set locality (the Case-1 premise): accesses to one set never
    /// change another set's digest, for partition-safe policies.
    #[test]
    fn cache_accesses_are_set_local(
        policy in prop_oneof![Just(ReplacementPolicy::Lru), Just(ReplacementPolicy::TreePlru)],
        ops in prop::collection::vec((0u64..512, any::<bool>()), 1..100),
        watched in 0usize..8,
    ) {
        let mut c = small_cache(policy);
        let mut watched_digest = c.set_digest(watched);
        for (line, write) in ops {
            let paddr = PAddr(line * 64);
            let set = c.set_of(paddr);
            c.access(paddr, write, DomainTag(0));
            if set != watched {
                prop_assert_eq!(c.set_digest(watched), watched_digest,
                    "access to set {} perturbed watched set {}", set, watched);
            } else {
                watched_digest = c.set_digest(watched);
            }
        }
    }

    /// The flush outcome's writeback count equals the number of dirty
    /// lines present before the flush.
    #[test]
    fn flush_accounts_dirty_lines_exactly(
        ops in prop::collection::vec((0u64..2048, any::<bool>()), 0..200),
    ) {
        let mut c = small_cache(ReplacementPolicy::Lru);
        for (addr, w) in ops { c.access(PAddr(addr * 8), w, DomainTag(0)); }
        let dirty = c.dirty_lines();
        let valid = c.occupancy();
        let out = c.flush_all();
        prop_assert_eq!(out.writebacks, dirty);
        prop_assert_eq!(out.invalidated, valid);
    }

    /// TLB: a lookup under ASID a never returns a non-global entry of
    /// ASID b, over arbitrary insert/invalidate interleavings.
    #[test]
    fn tlb_never_leaks_translations_across_asids(
        ops in prop::collection::vec((0u16..3, 0u64..32, any::<bool>()), 1..150),
    ) {
        let mut tlb = Tlb::new(16);
        // vpn space partitioned by convention: asid a uses vpns a*100...
        for (asid, vpn, invalidate) in ops {
            let vpn = asid as u64 * 100 + vpn;
            if invalidate {
                tlb.invalidate_page(Asid(asid), VAddr(vpn << 12));
            } else {
                tlb.insert(TlbEntry {
                    asid: Asid(asid),
                    vpn,
                    pfn: vpn + 1,
                    writable: true,
                    global: false,
                    owner: DomainTag(asid),
                });
            }
            // Probe a foreign vpn under every other ASID.
            for probe in 0u16..3 {
                if probe != asid {
                    prop_assert_eq!(
                        tlb.lookup(Asid(probe), VAddr(vpn << 12)),
                        TlbLookup::Miss,
                        "asid {} hit asid {}'s translation", probe, asid
                    );
                }
            }
        }
    }

    /// TLB flush_asid removes exactly that ASID's non-global entries.
    #[test]
    fn tlb_flush_asid_is_precise(
        inserts in prop::collection::vec((0u16..4, 0u64..64), 0..20),
        victim in 0u16..4,
    ) {
        let mut tlb = Tlb::new(64);
        for (asid, vpn) in &inserts {
            tlb.insert(TlbEntry {
                asid: Asid(*asid),
                vpn: *asid as u64 * 1000 + vpn,
                pfn: *vpn,
                writable: false,
                global: false,
                owner: DomainTag(*asid),
            });
        }
        tlb.flush_asid(Asid(victim));
        for e in tlb.iter() {
            prop_assert_ne!(e.asid, Asid(victim));
        }
    }

    /// Machine-level flush: core-local digests are history-independent
    /// across arbitrary physical access sequences.
    #[test]
    fn machine_flush_history_independent(
        hist in prop::collection::vec((0u64..(1 << 18), any::<bool>()), 0..100),
    ) {
        let cfg = MachineConfig::tiny();
        let mut a = Machine::new(cfg.clone());
        let mut b = Machine::new(cfg);
        for (addr, w) in hist {
            let _ = a.access_phys(CoreId(0), PAddr(addr), w, false, DomainTag(0));
        }
        a.flush_core_local(CoreId(0));
        b.flush_core_local(CoreId(0));
        prop_assert_eq!(
            a.cores[0].microarch_digest(),
            b.cores[0].microarch_digest()
        );
    }

    /// Clock monotonicity: no operation ever decreases a core's clock.
    #[test]
    fn machine_clock_is_monotone(
        ops in prop::collection::vec((0u8..4, 0u64..(1 << 16)), 1..100),
    ) {
        let mut m = Machine::new(MachineConfig::tiny());
        let mut last = m.now(CoreId(0));
        for (kind, x) in ops {
            match kind {
                0 => { let _ = m.access_phys(CoreId(0), PAddr(x), false, false, DomainTag(0)); }
                1 => { let _ = m.access_phys(CoreId(0), PAddr(x), true, false, DomainTag(0)); }
                2 => { m.compute(CoreId(0), x % 100 + 1); }
                _ => { m.flush_core_local(CoreId(0)); }
            }
            let now = m.now(CoreId(0));
            prop_assert!(now >= last);
            last = now;
        }
    }

    /// The sink's per-event folding matches the batch fold of the whole
    /// trace ([`obs_digest`]) in both modes: for any event sequence the
    /// digest-only and the recording sink carry the same `(len,
    /// digest)` fingerprint, and the recording sink retains exactly the
    /// events it was given (what a divergence replay would consume).
    #[test]
    fn batched_folding_matches_per_event_folding(
        events in prop::collection::vec(obs_event_strategy(), 0..200),
    ) {
        let mut digest_only = ObsSink::digest_only();
        let mut recording = ObsSink::default();
        for e in &events {
            digest_only.record(*e);
            recording.record(*e);
        }

        for sink in [&digest_only, &recording] {
            prop_assert_eq!(sink.digest(), obs_digest(&events));
            prop_assert_eq!(sink.len(), events.len());
        }
        prop_assert!(digest_only.observation().is_none());
        prop_assert_eq!(
            recording.observation().map(|o| o.events.as_slice()),
            Some(events.as_slice())
        );
    }

    /// Colour arithmetic: every byte of a page maps to sets of exactly
    /// one colour, and pages of distinct colours map to disjoint sets.
    #[test]
    fn colour_partitions_sets(pfn_a in 0u64..1024, pfn_b in 0u64..1024) {
        let c = Cache::new(CacheConfig::llc());
        let colour = |pfn| c.colour_of(PAddr::from_pfn(pfn, 0));
        for off in (0..4096).step_by(64) {
            prop_assert_eq!(c.colour_of(PAddr::from_pfn(pfn_a, off)), colour(pfn_a));
        }
        if colour(pfn_a) != colour(pfn_b) {
            let ra = c.sets_of_colour(colour(pfn_a));
            let rb = c.sets_of_colour(colour(pfn_b));
            prop_assert!(ra.end <= rb.start || rb.end <= ra.start);
        }
    }
}

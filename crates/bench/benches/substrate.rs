//! Std-only microbenches for the simulator substrate itself: cache
//! access, TLB lookup, flush, the L1 set digests and access pricing of
//! the hashed time models, the observation sink's per-event fold, DRAM
//! misses through the interconnect, kernel step, one monitored run
//! under a hashed time model, a halted domain's idle wait to the end of
//! its slice, the switch-time P check, a pristine and a dirty switch's
//! checks, the digesting used by the invariant checkers and the content
//! fingerprints behind cache keys.
//! These put numbers on the cost of "proof by exhaustive checking" —
//! the reproduction's analogue of proof effort.

use std::hint::black_box;

use tp_core::cache::cell_key;
use tp_core::flush::FlushReference;
use tp_core::noninterference::run_monitored;
use tp_core::partition::{check_partition, SwitchMonitor};
use tp_core::ProofMode;
use tp_hw::cache::{Cache, CacheConfig};
use tp_hw::clock::{MemEvent, TimeModel};
use tp_hw::machine::{Machine, MachineConfig};
use tp_hw::obs::{obs_digest, ObsEvent, ObsSink};
use tp_hw::tlb::{Tlb, TlbEntry};
use tp_hw::types::{Asid, CoreId, Cycles, DomainTag, PAddr, VAddr};
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism};
use tp_kernel::domain::{DomState, DomainId};
use tp_kernel::kernel::{StepEvent, System};
use tp_kernel::program::IdleProgram;

/// Time `iters` iterations of `f` and print the mean and the fastest
/// iteration in ns/op: host load raises the mean, rarely the minimum.
fn bench<R>(name: &str, iters: u32, f: impl FnMut() -> R) {
    bench_ops(name, iters, 1, f);
}

/// [`bench`] for an `f` that does `ops` operations per iteration,
/// printed per operation.
fn bench_ops<R>(name: &str, iters: u32, ops: u32, f: impl FnMut() -> R) {
    let (total, min) = tp_bench::time_iters(iters, f);
    println!(
        "{name:<32} {iters:>9} iters  {:>10.1} ns/op  (min {:>10.1})",
        total.as_nanos() as f64 / (iters * ops) as f64,
        min.as_nanos() as f64 / ops as f64
    );
}

/// A deterministic event stream shaped like a monitored run: mostly
/// clock reads, some IPC deliveries, the odd fault.
fn obs_stream(n: u64) -> Vec<ObsEvent> {
    (0..n)
        .map(|i| match i % 7 {
            5 => ObsEvent::IpcRecv {
                msg: i,
                at: Cycles(i * 3),
            },
            6 => ObsEvent::Fault,
            _ => ObsEvent::Clock(Cycles(i)),
        })
        .collect()
}

fn main() {
    let mut cache = Cache::new(CacheConfig::llc());
    let mut i = 0u64;
    bench("cache/access_llc", 100_000, || {
        i = i.wrapping_add(0x1040);
        cache.access(PAddr(black_box(i) % (1 << 26)), i % 3 == 0, DomainTag(0))
    });
    bench("cache/flush_llc", 1_000, || {
        for k in 0..1024u64 {
            cache.access(PAddr(k * 64), true, DomainTag(0));
        }
        black_box(cache.flush_all())
    });
    bench("cache/state_digest_llc", 10_000, || {
        black_box(cache.state_digest())
    });

    // The per-set digest the hashed time models consult on every L1
    // access, over a full, partly dirty L1.
    let mut l1 = Cache::new(CacheConfig::l1());
    for k in 0..1024u64 {
        l1.access(PAddr(k * 64), k % 3 == 0, DomainTag(0));
    }
    let mut set = 0usize;
    bench("cache/set_digest_l1", 100_000, || {
        set = (set + 1) % 64;
        black_box(l1.set_digest(black_box(set)))
    });
    // A hit that flips tree bits, then its set's digest, over a full L1:
    // every access hits the next set's next way, so the running digest
    // rehashes the set's PLRU term and none of its lines.
    let mut l1 = Cache::new(CacheConfig::l1());
    for k in 0..512u64 {
        l1.access(PAddr(k * 64), k % 3 == 0, DomainTag(0));
    }
    let mut line = 0u64;
    bench("cache/running_digest_plru_hit", 100_000, || {
        line = (line + 1) % 512;
        let out = l1.access(PAddr(black_box(line) * 64), false, DomainTag(0));
        black_box(l1.set_digest(out.set))
    });

    // A hashed model pricing one access: the outcome key, the local
    // state and the seed.
    let model = TimeModel::hashed(0xdead_beef);
    let mut ev = MemEvent::l1_hit();
    bench("clock/mem_cost_hashed", 1_000_000, || {
        ev.local_state = ev.local_state.wrapping_add(0x9e37_79b9);
        ev.prefetches = (ev.local_state % 5) as u8;
        model.mem_cost(black_box(&ev))
    });

    // The kernel's emit path: a digest-only sink folding each event of
    // a 4,096-event stream, priced per event.
    const EVENTS: u32 = 4096;
    let events = obs_stream(EVENTS.into());
    let mut sink = ObsSink::digest_only();
    bench_ops("obs/record_digest_only", 2_000, EVENTS, || {
        for e in &events {
            sink.record(*e);
        }
        black_box(sink.digest())
    });
    let mut sink = ObsSink::digest_only();
    events.iter().for_each(|e| sink.record(*e));
    assert_eq!(
        sink.digest(),
        obs_digest(&events),
        "the sink priced other work"
    );

    let mut tlb = Tlb::new(64);
    for v in 0..64 {
        tlb.insert(TlbEntry {
            asid: Asid(1),
            vpn: v,
            pfn: v,
            writable: true,
            global: false,
            owner: DomainTag(0),
        });
    }
    let mut v = 0u64;
    bench("tlb/lookup_hit", 100_000, || {
        v = (v + 1) % 64;
        tlb.lookup(Asid(1), VAddr(black_box(v) << 12))
    });

    let mut m = Machine::new(MachineConfig::single_core());
    let mut a = 0u64;
    bench("machine/access_phys", 100_000, || {
        a = a.wrapping_add(0x40);
        m.access_phys(
            CoreId(0),
            PAddr(black_box(a) % (1 << 22)),
            false,
            false,
            DomainTag(0),
        )
    });
    bench("machine/flush_core_local", 10_000, || {
        black_box(m.flush_core_local(CoreId(0)))
    });

    // Cold lines on a fresh machine, prefetcher off: every access goes
    // to DRAM at round 0, the round a single-system run never leaves.
    // The per-op cost must not grow with the traffic already issued.
    for (name, n) in [
        ("machine/dram_misses_1k", 1_000u64),
        ("machine/dram_misses_10k", 10_000),
    ] {
        let mut m = Machine::new(MachineConfig {
            prefetcher_enabled: false,
            ..MachineConfig::single_core()
        });
        let mut line = 0u64;
        bench(name, n as u32, || {
            line += 1;
            m.access_phys(CoreId(0), PAddr(line * 64), false, false, DomainTag(0))
        });
    }

    let mut sys = System::new(
        MachineConfig::single_core(),
        KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram)),
            DomainSpec::new(Box::new(IdleProgram)),
        ]),
    )
    .unwrap();
    bench("system/steps_per_sec", 100_000, || black_box(sys.step()));
    bench("system/build_system", 1_000, || {
        System::new(
            MachineConfig::single_core(),
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(IdleProgram)),
                DomainSpec::new(Box::new(IdleProgram)),
            ]),
        )
        .unwrap()
    });

    // The canonical matrix's first cell (full protection), specialised
    // the way the sweep does it: the cell's machine replaces the
    // scenario's, and its protection is already the scenario's own.
    let matrix = tp_bench::canonical_matrix();
    let cell = matrix.cells().swap_remove(0);
    let mut sc = tp_bench::canonical_scenario(cell.disable);
    sc.mcfg = cell.mcfg.clone();
    bench("core/cell_key_canonical", 10_000, || {
        cell_key(&cell, matrix.models(), &sc, ProofMode::Certified)
    });
    let kcfg = (sc.make_kcfg)(sc.secrets[0]);
    let lo = &kcfg.domains[sc.lo.0].program;
    bench("kernel/trace_program_fingerprint", 10_000, || {
        lo.content_fingerprint()
    });

    // One monitored run of that cell under a hashed time model, built
    // and run digest-first as the sweep runs it.
    let mut hashed = sc.mcfg.clone();
    hashed.time_model = TimeModel::hashed(0xdead_beef);
    bench("system/canonical_run_hashed", 50, || {
        let mut sys = System::new(hashed.clone(), (sc.make_kcfg)(sc.secrets[0])).unwrap();
        sys.use_digest_sinks();
        run_monitored(sys, sc.lo, sc.budget, sc.max_steps).steps
    });

    // The idle layer: Hi's slice after it has halted (secret 0 halts it
    // early), run to its deadline with `run_cycles` as the sweep's
    // replays run it. Only the clock moves, so each iteration rewinds it.
    let hi = DomainId(1);
    let mut sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(sc.secrets[0])).unwrap();
    while !(sys.kernel.current == hi && sys.kernel.domains[hi.0].state == DomState::Halted) {
        sys.step();
    }
    let core = sys.kernel.core.0;
    let halted_at = sys.hw.cores[core].clock;
    let deadline = sys.kernel.deadline;
    bench("system/halted_slice", 10_000, || {
        sys.hw.cores[core].clock = halted_at;
        sys.run_cycles(deadline, usize::MAX)
    });

    // The switch-time checks on that cell's system right after its
    // eighth switch: obligation P by the full scan and by the run's
    // monitor (frame memo warm), and the monitor's whole switch answer
    // (F, P and the digest) on the flushed, pristine core and on a core
    // left dirty (the `-Flush` cell).
    let mid_run = |disable| {
        let sc = tp_bench::canonical_scenario(disable);
        let mut sys = System::new(sc.mcfg, (sc.make_kcfg)(sc.secrets[0])).unwrap();
        let mut switches = 0;
        while switches < 8 {
            if let StepEvent::Switched { .. } = sys.step() {
                switches += 1;
            }
        }
        sys
    };
    let sys = mid_run(None);
    let reference = FlushReference::of(&sys);
    let mut monitor = SwitchMonitor::new(&reference);
    bench("partition/full_scan", 10_000, || {
        check_partition(black_box(&sys))
    });
    bench("partition/monitor", 10_000, || {
        monitor.check_partition(black_box(&sys))
    });
    assert!(reference.is_pristine(&sys), "the flushed core is pristine");
    bench("partition/pristine_switch", 10_000, || {
        monitor.at_switch(black_box(&sys))
    });
    let sys = mid_run(Some(Mechanism::Flush));
    assert!(!reference.is_pristine(&sys), "the -Flush core is dirty");
    bench("partition/dirty_switch", 10_000, || {
        monitor.at_switch(black_box(&sys))
    });
}

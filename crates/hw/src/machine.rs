//! The composed machine: cores, cache hierarchy, TLB, predictors, shared
//! LLC, interconnect, interrupt controller and clock.
//!
//! This is the "shared hardware" box of the paper's Figure 1 and the
//! object the microarchitectural model of §5.1 abstracts. Every user or
//! kernel memory access flows through [`Machine::access_virt`] /
//! [`Machine::access_phys`], which consult the modelled structures,
//! build a [`MemEvent`] describing *only* the state this access is
//! allowed to observe, and charge cycles via the [`TimeModel`].
//!
//! The machine never consults ghost [`DomainTag`]s for timing — they
//! exist solely for the invariant checkers in `tp-core`.

use crate::branch::BranchPredictor;
use crate::cache::{Cache, CacheConfig, FlushOutcome};
use crate::clock::{HwClock, MemEvent, MemLevel, TimeModel};
use crate::interconnect::{Interconnect, MbaThrottle};
use crate::irq::{IrqController, PendingIrq};
use crate::mem::PhysMem;
use crate::prefetch::Prefetcher;
use crate::tlb::{Tlb, TlbEntry, TlbLookup};
use crate::types::{mix2, Asid, CoreId, Cycles, DomainTag, Fault, PAddr, VAddr};

/// A translation produced by an [`AddressSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical frame number.
    pub pfn: u64,
    /// Whether stores are permitted.
    pub writable: bool,
    /// Whether the mapping is global (matches any ASID in the TLB).
    pub global: bool,
}

/// The page tables, as seen by the hardware walker.
///
/// The kernel implements this for its `VSpace` objects. The hardware
/// only needs two things: the translation itself, and the physical
/// addresses the multi-level walk touches (they are charged through the
/// data-cache hierarchy, as on real hardware — which is itself a channel
/// unless page tables are in coloured memory).
pub trait AddressSpace {
    /// Translate a virtual page number; `None` means page fault.
    fn translate(&self, vpn: u64) -> Option<Translation>;

    /// Physical addresses touched by the hardware page-table walker for
    /// `vpn`, outermost level first.
    fn walk_footprint(&self, vpn: u64) -> WalkFootprint;
}

/// The physical addresses one page-table walk touches, outermost level
/// first — held inline (at most one entry per level), so a TLB miss
/// charges the walker's traffic without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkFootprint {
    entries: [PAddr; Self::MAX_LEVELS],
    len: u8,
}

impl WalkFootprint {
    /// Deepest walk the modelled two-level tables can produce.
    pub const MAX_LEVELS: usize = 2;

    /// Append one level's entry address.
    ///
    /// # Panics
    /// Panics past [`WalkFootprint::MAX_LEVELS`] entries.
    pub fn push(&mut self, p: PAddr) {
        self.entries[self.len as usize] = p;
        self.len += 1;
    }

    /// The entries walked so far, outermost first.
    pub fn as_slice(&self) -> &[PAddr] {
        &self.entries[..self.len as usize]
    }

    /// Number of levels walked.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no level was walked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<PAddr> for WalkFootprint {
    fn from_iter<I: IntoIterator<Item = PAddr>>(iter: I) -> Self {
        let mut fp = WalkFootprint::default();
        for p in iter {
            fp.push(p);
        }
        fp
    }
}

/// Per-core microarchitectural state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// This core's id.
    pub id: CoreId,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Optional private L2.
    pub l2: Option<Cache>,
    /// ASID-tagged TLB (shared between fetch and data, as a simplification).
    pub tlb: Tlb,
    /// Branch predictor.
    pub bp: BranchPredictor,
    /// Stride prefetcher.
    pub pf: Prefetcher,
    /// Cycle counter.
    pub clock: HwClock,
}

impl Core {
    /// A pristine core `id` of a machine built from `cfg`: exactly the
    /// core [`Machine::new`] starts with.
    pub fn new(id: CoreId, cfg: &MachineConfig) -> Self {
        Core {
            id,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: cfg.l2.map(Cache::new),
            tlb: Tlb::new(cfg.tlb_entries),
            bp: BranchPredictor::default_geometry(),
            pf: Prefetcher::default_geometry(),
            clock: HwClock::new(),
        }
    }

    /// Digest of every piece of core-local microarchitectural state.
    /// Two cores with equal digests are timing-indistinguishable. The
    /// caches, TLB and predictor keep their digests current, so this
    /// chains their loaded digests and the prefetcher's 16-slot fold.
    pub fn microarch_digest(&self) -> u64 {
        let (tlb, bp) = (self.tlb.state_digest(), self.bp.state_digest());
        self.chain_digests(Cache::state_digest, tlb, bp)
    }

    /// [`Core::microarch_digest`] from every component's digest folded
    /// afresh: the oracle the running digests are tested against.
    pub fn microarch_digest_from_scratch(&self) -> u64 {
        let (tlb, bp) = (
            self.tlb.digest_from_scratch(),
            self.bp.digest_from_scratch(),
        );
        self.chain_digests(Cache::digest_from_scratch, tlb, bp)
    }

    /// The caches' digests (by `cache`), then `tlb`, `bp` and the
    /// prefetcher's, chained in that order.
    fn chain_digests(&self, cache: fn(&Cache) -> u64, tlb: u64, bp: u64) -> u64 {
        let mut h = cache(&self.l1i);
        h = mix2(h, cache(&self.l1d));
        if let Some(l2) = &self.l2 {
            h = mix2(h, cache(l2));
        }
        h = mix2(h, tlb);
        h = mix2(h, bp);
        mix2(h, self.pf.state_digest())
    }

    /// Structural equality of the state [`Core::microarch_digest`]
    /// covers (everything core-local except the architectural clock and
    /// core id). Strictly stronger than digest equality — no collisions
    /// — and much cheaper than hashing: field compares vectorise, hash
    /// chains serialise. Monitors use this as the fast path and fall
    /// back to the digest only on mismatch.
    pub fn microarch_eq(&self, other: &Core) -> bool {
        self.l1i == other.l1i
            && self.l1d == other.l1d
            && self.l2 == other.l2
            && self.tlb == other.tlb
            && self.bp == other.bp
            && self.pf == other.pf
    }
}

/// Static configuration of a [`Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// L1 instruction-cache geometry.
    pub l1i: CacheConfig,
    /// L1 data-cache geometry.
    pub l1d: CacheConfig,
    /// Optional private L2 geometry.
    pub l2: Option<CacheConfig>,
    /// Optional shared LLC geometry.
    pub llc: Option<CacheConfig>,
    /// TLB capacity in entries.
    pub tlb_entries: usize,
    /// Physical memory size in frames.
    pub mem_frames: usize,
    /// The time model (the §5.1 "unspecified deterministic function").
    pub time_model: TimeModel,
    /// Interconnect contention window, in rounds.
    pub icx_window: u64,
    /// Optional Intel-MBA-like throttle.
    pub mba: Option<MbaThrottle>,
    /// Enable the stride prefetcher.
    pub prefetcher_enabled: bool,
    /// Enable the branch predictor (disabled = every branch costs the
    /// correct-prediction latency; a degenerate but channel-free design).
    pub branch_predictor_enabled: bool,
    /// Hyperthreading: two hardware threads may share one core's private
    /// state concurrently. §4.1 concludes this is fundamentally
    /// insecure across security domains — the aISA checker flags it and
    /// the E13 experiment demonstrates why.
    pub smt: bool,
}

impl MachineConfig {
    /// A single-core machine with a realistic hierarchy and 4 MiB of
    /// memory — the default test vehicle for time-shared channels.
    pub fn single_core() -> Self {
        MachineConfig {
            cores: 1,
            l1i: CacheConfig::l1(),
            l1d: CacheConfig::l1(),
            l2: Some(CacheConfig::l2()),
            llc: Some(CacheConfig::llc()),
            tlb_entries: 64,
            mem_frames: 1024,
            time_model: TimeModel::intel_like(),
            icx_window: 32,
            mba: None,
            prefetcher_enabled: true,
            branch_predictor_enabled: true,
            smt: false,
        }
    }

    /// A dual-core machine sharing the LLC and interconnect — the vehicle
    /// for concurrent-sharing channels (E3, E10).
    pub fn dual_core() -> Self {
        MachineConfig {
            cores: 2,
            ..MachineConfig::single_core()
        }
    }

    /// A deliberately small machine for exhaustive model checking: tiny
    /// caches, no L2, small memory. State space small enough that the
    /// noninterference checker can enumerate interesting behaviours.
    pub fn tiny() -> Self {
        use crate::cache::ReplacementPolicy;
        MachineConfig {
            cores: 1,
            l1i: CacheConfig {
                sets: 4,
                ways: 2,
                write_back: false,
                policy: ReplacementPolicy::Lru,
            },
            l1d: CacheConfig {
                sets: 4,
                ways: 2,
                write_back: true,
                policy: ReplacementPolicy::Lru,
            },
            l2: None,
            llc: Some(CacheConfig {
                sets: 256, // 4 page colours: enough for 2 domains + kernel
                ways: 2,
                write_back: true,
                policy: ReplacementPolicy::Lru,
            }),
            tlb_entries: 4,
            mem_frames: 256,
            time_model: TimeModel::intel_like(),
            icx_window: 8,
            mba: None,
            prefetcher_enabled: true,
            branch_predictor_enabled: true,
            smt: false,
        }
    }
}

/// What a completed memory access reports back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// Cycles charged (already added to the core's clock).
    pub cycles: Cycles,
    /// The physical address accessed.
    pub paddr: PAddr,
    /// Level that served the access.
    pub served_by: MemLevel,
    /// Whether the TLB hit.
    pub tlb_hit: bool,
}

/// The composed machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    cfg: MachineConfig,
    /// Per-core state.
    pub cores: Vec<Core>,
    /// Shared last-level cache, if configured.
    pub llc: Option<Cache>,
    /// Shared interconnect.
    pub icx: Interconnect,
    /// Physical memory (ghost ownership).
    pub mem: PhysMem,
    /// Interrupt controller.
    pub irq: IrqController,
    /// Lockstep round counter used by the interconnect window. Only the
    /// lockstep multicore driver advances it ([`Machine::advance_round`]);
    /// a single-system run stays at round 0 throughout, so its DRAM
    /// traffic never leaves the window.
    round: u64,
    /// Scratch for prefetch fill candidates, kept empty between calls
    /// so derived equality ignores it in practice.
    pf_fills: Vec<PAddr>,
}

impl Machine {
    /// Build a machine from `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.cores == 0`.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        let cores = (0..cfg.cores).map(|i| Core::new(CoreId(i), &cfg)).collect();
        let mut icx = Interconnect::new(cfg.icx_window);
        icx.set_mba(cfg.mba);
        Machine {
            cores,
            llc: cfg.llc.map(Cache::new),
            icx,
            mem: PhysMem::new(cfg.mem_frames),
            irq: IrqController::new(),
            round: 0,
            pf_fills: Vec::new(),
            cfg,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The current lockstep round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Advance the lockstep round counter (the kernel's multicore driver
    /// calls this once per interleaving step).
    pub fn advance_round(&mut self) {
        self.round += 1;
    }

    /// Current clock of `core`.
    pub fn now(&self, core: CoreId) -> Cycles {
        self.cores[core.0].clock.now()
    }

    // ---- memory accesses ------------------------------------------------

    /// A data access (load or store) through virtual address `vaddr`
    /// under `asid`, translated by `asp`. Charges cycles to `core`'s
    /// clock and returns a report.
    pub fn access_virt(
        &mut self,
        core: CoreId,
        asid: Asid,
        vaddr: VAddr,
        write: bool,
        asp: &dyn AddressSpace,
        owner: DomainTag,
    ) -> Result<AccessReport, Fault> {
        self.access_inner(core, asid, vaddr, write, false, asp, owner)
    }

    /// An instruction fetch at `pc` (goes through the L1I).
    pub fn fetch_virt(
        &mut self,
        core: CoreId,
        asid: Asid,
        pc: VAddr,
        asp: &dyn AddressSpace,
        owner: DomainTag,
    ) -> Result<AccessReport, Fault> {
        self.access_inner(core, asid, pc, false, true, asp, owner)
    }

    // The access-path internals thread the full per-access context
    // (core, translation, intent, ghost owner) as scalars on purpose:
    // bundling them into a struct would only add a name for something
    // that never outlives one call.
    #[allow(clippy::too_many_arguments)]
    fn access_inner(
        &mut self,
        core: CoreId,
        asid: Asid,
        vaddr: VAddr,
        write: bool,
        is_fetch: bool,
        asp: &dyn AddressSpace,
        owner: DomainTag,
    ) -> Result<AccessReport, Fault> {
        // 1. Translate, walking page tables on a TLB miss. The walk's
        //    memory traffic is charged through the data hierarchy first.
        let (pfn, walk_levels, tlb_hit) = {
            let lookup = self.cores[core.0].tlb.lookup(asid, vaddr);
            match lookup {
                TlbLookup::Hit { pfn, writable } => {
                    if write && !writable {
                        return Err(Fault::WriteToReadOnly { vaddr });
                    }
                    (pfn, 0u8, true)
                }
                TlbLookup::Miss => {
                    let tr = asp
                        .translate(vaddr.vpn())
                        .ok_or(Fault::PageNotMapped { vaddr })?;
                    if write && !tr.writable {
                        return Err(Fault::WriteToReadOnly { vaddr });
                    }
                    let footprint = asp.walk_footprint(vaddr.vpn());
                    let levels = footprint.len() as u8;
                    // The walker's accesses go through the data caches.
                    for pa in footprint.as_slice() {
                        self.charge_phys_line(core, *pa, false, false, owner)?;
                    }
                    self.cores[core.0].tlb.insert(TlbEntry {
                        asid,
                        vpn: vaddr.vpn(),
                        pfn: tr.pfn,
                        writable: tr.writable,
                        global: tr.global,
                        owner,
                    });
                    (tr.pfn, levels, false)
                }
            }
        };

        let paddr = PAddr::from_pfn(pfn, vaddr.page_offset());
        let (cycles, served_by) =
            self.charge_phys(core, paddr, write, is_fetch, walk_levels, tlb_hit, owner)?;

        Ok(AccessReport {
            cycles,
            paddr,
            served_by,
            tlb_hit,
        })
    }

    /// A physical access that bypasses translation — used by the kernel
    /// for its own text and data (the modelled kernel runs identity
    /// mapped, like seL4's physical window).
    pub fn access_phys(
        &mut self,
        core: CoreId,
        paddr: PAddr,
        write: bool,
        is_fetch: bool,
        owner: DomainTag,
    ) -> Result<AccessReport, Fault> {
        let (cycles, served_by) = self.charge_phys(core, paddr, write, is_fetch, 0, true, owner)?;
        Ok(AccessReport {
            cycles,
            paddr,
            served_by,
            tlb_hit: true,
        })
    }

    /// Walk the cache hierarchy for `paddr`, build the [`MemEvent`],
    /// charge the time model and run the prefetcher. Returns cycles
    /// charged and the serving level.
    #[allow(clippy::too_many_arguments)]
    fn charge_phys(
        &mut self,
        core: CoreId,
        paddr: PAddr,
        write: bool,
        is_fetch: bool,
        walk_levels: u8,
        tlb_hit: bool,
        owner: DomainTag,
    ) -> Result<(Cycles, MemLevel), Fault> {
        if !self.mem.contains(paddr) {
            return Err(Fault::PhysOutOfRange { paddr });
        }

        let (ev, stall) =
            self.hierarchy_walk(core, paddr, write, is_fetch, walk_levels, tlb_hit, owner);

        // Prefetcher: observes demand data loads only; its fills go into
        // L1D (and do not themselves trigger further prefetches).
        let mut prefetches = 0u8;
        if self.cfg.prefetcher_enabled && !is_fetch && !write {
            // PC is unknown at this layer; key the stride table by the
            // accessed page to model a next-line prefetcher. The kernel
            // layer feeds PC-keyed streams via `observe_prefetch_pc`.
            let pseudo_pc = VAddr(paddr.0 & !0xfff);
            let mut fills = std::mem::take(&mut self.pf_fills);
            self.cores[core.0]
                .pf
                .observe_into(pseudo_pc, paddr, owner, &mut fills);
            for f in fills.iter().take(4) {
                if self.mem.contains(*f) {
                    self.cores[core.0].l1d.prefetch_fill(*f, owner);
                    prefetches += 1;
                }
            }
            fills.clear();
            self.pf_fills = fills;
        }

        let ev = MemEvent { prefetches, ..ev };
        let cost = self.cfg.time_model.mem_cost(&ev) + stall;
        self.cores[core.0].clock.advance(cost);
        Ok((cost, ev.served_by))
    }

    /// Charge a single line-granularity physical access without the
    /// prefetcher (used for page-table walks).
    fn charge_phys_line(
        &mut self,
        core: CoreId,
        paddr: PAddr,
        write: bool,
        is_fetch: bool,
        owner: DomainTag,
    ) -> Result<Cycles, Fault> {
        if !self.mem.contains(paddr) {
            return Err(Fault::PhysOutOfRange { paddr });
        }
        let (ev, stall) = self.hierarchy_walk(core, paddr, write, is_fetch, 0, true, owner);
        let cost = self.cfg.time_model.mem_cost(&ev) + stall;
        self.cores[core.0].clock.advance(cost);
        Ok(cost)
    }

    /// The pure hierarchy traversal: L1 → L2 → LLC → DRAM.
    #[allow(clippy::too_many_arguments)]
    fn hierarchy_walk(
        &mut self,
        core: CoreId,
        paddr: PAddr,
        write: bool,
        is_fetch: bool,
        walk_levels: u8,
        tlb_hit: bool,
        owner: DomainTag,
    ) -> (MemEvent, Cycles) {
        let round = self.round;
        let c = &mut self.cores[core.0];
        let l1 = if is_fetch { &mut c.l1i } else { &mut c.l1d };

        // Record the local state the time model may consult (Case 1):
        // the indexed set's digest, which the cache keeps current, so
        // reading it is one load. Table models ignore it.
        let local_state = l1.set_digest(l1.set_of(paddr));

        let l1_out = l1.access(paddr, write, owner);
        let mut writeback = l1_out.writeback;
        let mut served_by = MemLevel::L1;
        let mut contention = 0u32;
        let mut stall = Cycles::ZERO;

        if !l1_out.hit {
            // L2, if present.
            let l2_hit = if let Some(l2) = &mut c.l2 {
                let out = l2.access(paddr, write, owner);
                writeback |= out.writeback;
                out.hit
            } else {
                false
            };

            if l2_hit {
                served_by = MemLevel::L2;
            } else if let Some(llc) = &mut self.llc {
                let out = llc.access(paddr, write, owner);
                writeback |= out.writeback;
                if out.hit {
                    served_by = MemLevel::Llc;
                } else {
                    served_by = MemLevel::Dram;
                    let icx = self.icx.request(core.0, round);
                    contention = icx.contention;
                    stall = icx.throttle_stall;
                }
            } else {
                served_by = MemLevel::Dram;
                let icx = self.icx.request(core.0, round);
                contention = icx.contention;
                stall = icx.throttle_stall;
            }
        }

        (
            MemEvent {
                tlb_hit,
                walk_levels,
                served_by,
                writeback,
                local_state,
                prefetches: 0,
                contention,
            },
            stall,
        )
    }

    // ---- other instruction classes ---------------------------------------

    /// Resolve a branch at `pc`; charges the predictor-dependent cost.
    pub fn branch(
        &mut self,
        core: CoreId,
        pc: VAddr,
        taken: bool,
        target: VAddr,
        owner: DomainTag,
    ) -> Cycles {
        let cost = if self.cfg.branch_predictor_enabled {
            let out = self.cores[core.0].bp.resolve(pc, taken, target, owner);
            self.cfg.time_model.branch_cost(&out)
        } else {
            self.cfg
                .time_model
                .branch_cost(&crate::branch::BranchOutcome {
                    direction_correct: true,
                    btb_hit: true,
                })
        };
        self.cores[core.0].clock.advance(cost);
        cost
    }

    /// Pure compute for `units` of work (architecturally timed).
    pub fn compute(&mut self, core: CoreId, units: u64) -> Cycles {
        let cost = self.cfg.time_model.compute_cost(units);
        self.cores[core.0].clock.advance(cost);
        cost
    }

    /// Read the cycle counter (rdtsc). Free, like a register read.
    pub fn read_clock(&self, core: CoreId) -> Cycles {
        self.cores[core.0].clock.now()
    }

    // ---- flushing (§4.1 reset of time-shared state) ----------------------

    /// Flush all core-local microarchitectural state: L1I, L1D, private
    /// L2, TLB, branch predictor, prefetcher. Charges the (history-
    /// dependent!) flush latency and returns it together with the
    /// combined outcome. The kernel hides the latency by padding (§4.2).
    pub fn flush_core_local(&mut self, core: CoreId) -> (Cycles, FlushOutcome) {
        let c = &mut self.cores[core.0];
        let mut total = FlushOutcome::default();
        for out in [c.l1i.flush_all(), c.l1d.flush_all()] {
            total.invalidated += out.invalidated;
            total.writebacks += out.writebacks;
        }
        if let Some(l2) = &mut c.l2 {
            let out = l2.flush_all();
            total.invalidated += out.invalidated;
            total.writebacks += out.writebacks;
        }
        c.tlb.flush_all();
        c.bp.flush();
        c.pf.flush();
        let cost = self.cfg.time_model.flush_cost(&total);
        self.cores[core.0].clock.advance(cost);
        (cost, total)
    }

    /// Flush the shared LLC (the fallback defence when colouring is off;
    /// note this is *insufficient* under concurrent sharing, §4.1).
    pub fn flush_llc(&mut self, core: CoreId) -> (Cycles, FlushOutcome) {
        let out = match &mut self.llc {
            Some(llc) => llc.flush_all(),
            None => FlushOutcome::default(),
        };
        let cost = self.cfg.time_model.flush_cost(&out);
        self.cores[core.0].clock.advance(cost);
        (cost, out)
    }

    /// Busy-wait `core` until its clock reads `deadline` (§4.2 padding).
    /// Fails with the overshoot if the deadline already passed.
    pub fn pad_to(&mut self, core: CoreId, deadline: Cycles) -> Result<Cycles, Cycles> {
        self.cores[core.0].clock.pad_to(deadline)
    }

    // ---- interrupts -------------------------------------------------------

    /// Deliver due device timers and return the highest-priority pending,
    /// enabled interrupt without acknowledging it.
    pub fn poll_irq(&mut self, core: CoreId) -> Option<PendingIrq> {
        let now = self.cores[core.0].clock.now();
        self.irq.tick(now);
        self.irq.highest_pending()
    }

    /// Charge the interrupt entry cost to `core`.
    pub fn charge_irq_entry(&mut self, core: CoreId) -> Cycles {
        let cost = self.cfg.time_model.irq_cost();
        self.cores[core.0].clock.advance(cost);
        cost
    }

    // ---- digests -----------------------------------------------------------

    /// Digest of all shared (cross-core) microarchitectural state.
    pub fn shared_digest(&self) -> u64 {
        let h = self.llc.as_ref().map(|c| c.state_digest()).unwrap_or(0);
        h
    }

    /// Digest of the entire machine's timing-relevant state.
    pub fn machine_digest(&self) -> u64 {
        let mut h = self.shared_digest();
        for c in &self.cores {
            h = mix2(h, c.microarch_digest());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A toy address space: identity-ish mapping from a table.
    struct TestAsp {
        map: HashMap<u64, Translation>,
        walk_base: u64,
    }

    impl TestAsp {
        fn new() -> Self {
            TestAsp {
                map: HashMap::new(),
                walk_base: 60,
            } // frame 60 holds "page tables"
        }
        fn map_page(&mut self, vpn: u64, pfn: u64) {
            self.map.insert(
                vpn,
                Translation {
                    pfn,
                    writable: true,
                    global: false,
                },
            );
        }
    }

    impl AddressSpace for TestAsp {
        fn translate(&self, vpn: u64) -> Option<Translation> {
            self.map.get(&vpn).copied()
        }
        fn walk_footprint(&self, vpn: u64) -> WalkFootprint {
            [
                PAddr::from_pfn(self.walk_base, (vpn % 512) * 8 % 4096),
                PAddr::from_pfn(self.walk_base + 1, (vpn % 512) * 8 % 4096),
            ]
            .into_iter()
            .collect()
        }
    }

    const D0: DomainTag = DomainTag(0);
    const C0: CoreId = CoreId(0);

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny())
    }

    #[test]
    fn cold_access_is_slower_than_warm() {
        let mut m = machine();
        let mut asp = TestAsp::new();
        asp.map_page(5, 10);
        let cold = m
            .access_virt(C0, Asid(1), VAddr(0x5000), false, &asp, D0)
            .unwrap();
        let warm = m
            .access_virt(C0, Asid(1), VAddr(0x5000), false, &asp, D0)
            .unwrap();
        assert!(cold.cycles > warm.cycles, "{:?} vs {:?}", cold, warm);
        assert!(!cold.tlb_hit);
        assert!(warm.tlb_hit);
        assert_eq!(warm.served_by, MemLevel::L1);
        assert_eq!(cold.paddr, PAddr(10 << 12));
    }

    #[test]
    fn unmapped_page_faults() {
        let mut m = machine();
        let asp = TestAsp::new();
        let err = m
            .access_virt(C0, Asid(1), VAddr(0x7000), false, &asp, D0)
            .unwrap_err();
        assert_eq!(
            err,
            Fault::PageNotMapped {
                vaddr: VAddr(0x7000)
            }
        );
    }

    #[test]
    fn readonly_fault_on_write() {
        let mut m = machine();
        let mut asp = TestAsp::new();
        asp.map.insert(
            5,
            Translation {
                pfn: 10,
                writable: false,
                global: false,
            },
        );
        let err = m
            .access_virt(C0, Asid(1), VAddr(0x5000), true, &asp, D0)
            .unwrap_err();
        assert_eq!(
            err,
            Fault::WriteToReadOnly {
                vaddr: VAddr(0x5000)
            }
        );
        // And also when the translation is already cached in the TLB.
        m.access_virt(C0, Asid(1), VAddr(0x5000), false, &asp, D0)
            .unwrap();
        let err = m
            .access_virt(C0, Asid(1), VAddr(0x5000), true, &asp, D0)
            .unwrap_err();
        assert_eq!(
            err,
            Fault::WriteToReadOnly {
                vaddr: VAddr(0x5000)
            }
        );
    }

    #[test]
    fn phys_out_of_range_faults() {
        let mut m = machine();
        let err = m
            .access_phys(C0, PAddr::from_pfn(9999, 0), false, false, D0)
            .unwrap_err();
        assert!(matches!(err, Fault::PhysOutOfRange { .. }));
    }

    #[test]
    fn fetch_goes_through_l1i() {
        let mut m = machine();
        let mut asp = TestAsp::new();
        asp.map_page(5, 10);
        m.fetch_virt(C0, Asid(1), VAddr(0x5000), &asp, D0).unwrap();
        assert!(m.cores[0].l1i.peek(PAddr(10 << 12)));
        assert!(!m.cores[0].l1d.peek(PAddr(10 << 12)));
    }

    #[test]
    fn flush_core_local_resets_digest() {
        let mut m1 = machine();
        let mut m2 = machine();
        let mut asp = TestAsp::new();
        for v in 0..8u64 {
            asp.map_page(v, v + 8);
        }
        // Different histories...
        for v in 0..8u64 {
            m1.access_virt(C0, Asid(1), VAddr(v << 12), v % 2 == 0, &asp, D0)
                .unwrap();
        }
        m2.access_virt(C0, Asid(1), VAddr(0), false, &asp, D0)
            .unwrap();
        assert_ne!(
            m1.cores[0].microarch_digest(),
            m2.cores[0].microarch_digest()
        );
        // ...flush to identical core-local state.
        m1.flush_core_local(C0);
        m2.flush_core_local(C0);
        assert_eq!(
            m1.cores[0].microarch_digest(),
            m2.cores[0].microarch_digest()
        );
        // But the *shared* LLC still differs: flushing is not enough for
        // shared caches (§4.1) — colouring or LLC flush is needed.
        assert_ne!(m1.shared_digest(), m2.shared_digest());
        m1.flush_llc(C0);
        m2.flush_llc(C0);
        assert_eq!(m1.machine_digest(), m2.machine_digest());
    }

    #[test]
    fn flush_latency_depends_on_dirty_lines() {
        let mut quiet = machine();
        let mut dirty = machine();
        let mut asp = TestAsp::new();
        for v in 0..8u64 {
            asp.map_page(v, v + 8);
        }
        for v in 0..8u64 {
            dirty
                .access_virt(C0, Asid(1), VAddr(v << 12), true, &asp, D0)
                .unwrap();
        }
        let (c_quiet, _) = quiet.flush_core_local(C0);
        let (c_dirty, _) = dirty.flush_core_local(C0);
        assert!(c_dirty > c_quiet, "E4 channel: {c_dirty} vs {c_quiet}");
    }

    #[test]
    fn dram_contention_couples_cores() {
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            ..MachineConfig::tiny()
        });
        // Core 1 hammers DRAM (distinct lines, all misses).
        for i in 0..8u64 {
            m.access_phys(
                CoreId(1),
                PAddr::from_pfn(i % 60, (i * 64) % 4096),
                false,
                false,
                DomainTag(1),
            )
            .unwrap();
        }
        // Core 0's DRAM access sees contention; compare with a quiet machine.
        let mut quiet = Machine::new(MachineConfig {
            cores: 2,
            ..MachineConfig::tiny()
        });
        let busy_cost = m
            .access_phys(C0, PAddr::from_pfn(50, 0), false, false, D0)
            .unwrap()
            .cycles;
        let quiet_cost = quiet
            .access_phys(C0, PAddr::from_pfn(50, 0), false, false, D0)
            .unwrap()
            .cycles;
        assert!(
            busy_cost > quiet_cost,
            "stateless interconnect channel (§2) must exist"
        );
    }

    #[test]
    fn pad_to_reaches_exact_deadline() {
        let mut m = machine();
        m.compute(C0, 100);
        let waited = m.pad_to(C0, Cycles(1000)).unwrap();
        assert_eq!(m.now(C0), Cycles(1000));
        // compute(100) advanced the clock to exactly 100 cycles.
        assert_eq!(waited, Cycles(900));
        assert!(m.pad_to(C0, Cycles(999)).is_err());
    }

    #[test]
    fn prefetcher_fills_ahead() {
        let mut m = machine();
        // Sequential loads within one page train the next-line prefetcher.
        for i in 0..6u64 {
            m.access_phys(C0, PAddr::from_pfn(20, i * 64), false, false, D0)
                .unwrap();
        }
        // The line after the last accessed one should already be resident.
        assert!(m.cores[0].l1d.peek(PAddr::from_pfn(20, 6 * 64)));
    }

    #[test]
    fn clock_is_monotone() {
        let mut m = machine();
        let t0 = m.read_clock(C0);
        m.compute(C0, 5);
        let t1 = m.read_clock(C0);
        assert!(t1 > t0);
    }

    #[test]
    fn walk_charges_memory_traffic() {
        // A TLB miss with a 2-level walk must cost more than the same
        // access with a warm TLB but cold cache line.
        let mut m = machine();
        let mut asp = TestAsp::new();
        asp.map_page(5, 10);
        let miss = m
            .access_virt(C0, Asid(1), VAddr(0x5000), false, &asp, D0)
            .unwrap();
        // Evict nothing; re-access a different line in the same page:
        // TLB hit, L1 miss.
        let hit_tlb = m
            .access_virt(C0, Asid(1), VAddr(0x5fc0), false, &asp, D0)
            .unwrap();
        assert!(miss.cycles > hit_tlb.cycles);
    }
}

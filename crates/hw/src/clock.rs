//! The hardware clock and the *time model* (§5.1).
//!
//! The paper's key modelling move: how far the clock advances on each
//! execution step is a **deterministic yet unspecified function of the
//! microarchitectural state**. We realise this with the [`TimeModel`]
//! enum. `Table` is a conventional latency table (an Intel-like cost
//! model); `Hashed` adds, on top of a table, a deterministic pseudo-random
//! perturbation derived from the *local* microarchitectural state an
//! access is permitted to consult (its hit/miss outcome and the digest of
//! the indexed set). Proofs carried out by `tp-core` must hold under
//! *every* time model — that is how the reproduction demonstrates the
//! paper's claim that no precise latency knowledge is needed.
//!
//! Crucially, the inputs to the time model are confined to the
//! [`MemEvent`]/[`BranchOutcome`]/[`FlushOutcome`] records, which expose
//! only state the paper's Case-1 argument allows: the outcome of this
//! access and the state of the structures it indexed — never the ghost
//! owner tags, and never state in another domain's partition.

use crate::branch::BranchOutcome;
use crate::cache::FlushOutcome;
use crate::types::{mix2, Cycles};

/// A per-core cycle counter, readable by user programs (rdtsc analogue).
///
/// User-readable time is what makes timing channels exploitable *locally*
/// (§3.1: "timing own progress"); remote observers instead see event
/// times (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwClock {
    now: Cycles,
}

impl HwClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        HwClock { now: Cycles::ZERO }
    }

    /// Current cycle count.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Advance by `d` cycles.
    #[inline]
    pub fn advance(&mut self, d: Cycles) {
        self.now += d;
    }

    /// Advance to an absolute `deadline`, returning the cycles spent
    /// waiting. If the deadline already passed, does nothing and returns
    /// the overshoot as an error — the kernel treats an overshoot during
    /// padding as a pad-budget violation (§4.2).
    pub fn pad_to(&mut self, deadline: Cycles) -> Result<Cycles, Cycles> {
        if self.now.0 <= deadline.0 {
            let waited = deadline - self.now;
            self.now = deadline;
            Ok(waited)
        } else {
            Err(self.now - deadline)
        }
    }
}

/// Which level of the memory hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemLevel {
    /// First-level cache (instruction or data).
    L1,
    /// Private second-level cache.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Main memory over the shared interconnect.
    Dram,
}

/// Everything a single memory access exposes to the time model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// TLB hit?
    pub tlb_hit: bool,
    /// Page-table levels touched by the walker on a TLB miss (0 on hit).
    pub walk_levels: u8,
    /// Level that served the data.
    pub served_by: MemLevel,
    /// A dirty line was evicted somewhere along the way.
    pub writeback: bool,
    /// Digest of the indexed L1 set *before* the access — the "local
    /// state" input to the unspecified function (Case 1, §5.2).
    pub local_state: u64,
    /// Lines the prefetcher issued as a consequence of this access.
    pub prefetches: u8,
    /// Interconnect queue occupancy seen by a DRAM access (0 otherwise).
    /// This is the stateless-interconnect contention of §2.
    pub contention: u32,
}

impl MemEvent {
    /// A trivially cheap event (L1/TLB hit, nothing else), useful in tests.
    pub fn l1_hit() -> Self {
        MemEvent {
            tlb_hit: true,
            walk_levels: 0,
            served_by: MemLevel::L1,
            writeback: false,
            local_state: 0,
            prefetches: 0,
            contention: 0,
        }
    }
}

/// The part of [`TimeModel::mem_cost`]'s key that depends on neither the
/// seed nor any hidden state: the access's outcome,
/// `mix2(served_by, mix2(tlb_hit, mix2(walk_levels, prefetches)))`.
const fn outcome_key_chain(served_by: u64, tlb_hit: u64, walk_levels: u64, prefetches: u64) -> u64 {
    mix2(served_by, mix2(tlb_hit, mix2(walk_levels, prefetches)))
}

/// Tabled values of [`MemEvent::walk_levels`]: 0 on a TLB hit, and the
/// one or two levels a walk touches.
const KEY_WALK_LEVELS: usize = 3;
/// Tabled values of [`MemEvent::prefetches`]: the machine issues at most
/// four prefetches per access.
const KEY_PREFETCHES: usize = 5;
/// Number of in-range outcomes: four [`MemLevel`]s, TLB hit or miss, and
/// the tabled walk and prefetch counts.
const OUTCOMES: usize = 4 * 2 * KEY_WALK_LEVELS * KEY_PREFETCHES;

/// [`outcome_key_chain`] of every in-range outcome, built at compile
/// time, at index `((served_by * 2 + tlb_hit) * KEY_WALK_LEVELS +
/// walk_levels) * KEY_PREFETCHES + prefetches`.
static OUTCOME_KEYS: [u64; OUTCOMES] = {
    let mut keys = [0; OUTCOMES];
    let mut i = 0;
    while i < OUTCOMES {
        let prefetches = i % KEY_PREFETCHES;
        let walk_levels = i / KEY_PREFETCHES % KEY_WALK_LEVELS;
        let tlb_hit = i / (KEY_PREFETCHES * KEY_WALK_LEVELS) % 2;
        let served_by = i / (KEY_PREFETCHES * KEY_WALK_LEVELS * 2);
        keys[i] = outcome_key_chain(
            served_by as u64,
            tlb_hit as u64,
            walk_levels as u64,
            prefetches as u64,
        );
        i += 1;
    }
    keys
};

/// [`outcome_key_chain`] of `ev`: a table read when the counts are in
/// range, the chain itself otherwise (`MemEvent` is public, so any
/// count can arrive).
#[inline]
fn outcome_key(ev: &MemEvent) -> u64 {
    let (walk_levels, prefetches) = (ev.walk_levels as usize, ev.prefetches as usize);
    if walk_levels < KEY_WALK_LEVELS && prefetches < KEY_PREFETCHES {
        let outcome = ev.served_by as usize * 2 + ev.tlb_hit as usize;
        OUTCOME_KEYS[(outcome * KEY_WALK_LEVELS + walk_levels) * KEY_PREFETCHES + prefetches]
    } else {
        outcome_key_chain(
            ev.served_by as u64,
            ev.tlb_hit as u64,
            ev.walk_levels as u64,
            ev.prefetches as u64,
        )
    }
}

/// Latency table for the [`TimeModel::Table`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTable {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// L2 hit latency.
    pub l2_hit: u64,
    /// LLC hit latency.
    pub llc_hit: u64,
    /// DRAM access latency (uncontended).
    pub dram: u64,
    /// Extra cycles per interconnect queue entry ahead of us.
    pub contention_per_req: u64,
    /// TLB hit cost (added to every access).
    pub tlb_hit: u64,
    /// Cost per page-table level walked on a TLB miss.
    pub walk_per_level: u64,
    /// Extra cost when an access triggers a dirty writeback.
    pub writeback: u64,
    /// Correctly predicted branch.
    pub branch_correct: u64,
    /// Mispredicted branch (direction or target).
    pub branch_mispredict: u64,
    /// Fixed cost of initiating a flush.
    pub flush_base: u64,
    /// Per-line invalidation cost.
    pub flush_per_line: u64,
    /// Per-writeback cost during a flush — this term is what makes
    /// unpadded flush latency a channel (§4.2, experiment E4).
    pub flush_per_writeback: u64,
    /// Interrupt entry/dispatch overhead.
    pub irq_entry: u64,
}

impl CostTable {
    /// Latencies loosely shaped like a contemporary Intel part
    /// (cycles: L1 4, L2 12, LLC 40, DRAM 200).
    pub fn intel_like() -> Self {
        CostTable {
            l1_hit: 4,
            l2_hit: 12,
            llc_hit: 40,
            dram: 200,
            contention_per_req: 40,
            tlb_hit: 0,
            walk_per_level: 30,
            writeback: 10,
            branch_correct: 1,
            branch_mispredict: 15,
            flush_base: 100,
            flush_per_line: 2,
            flush_per_writeback: 12,
            irq_entry: 300,
        }
    }

    /// Latencies shaped like a big in-order ARM part (cycles: L1 2,
    /// L2 9, LLC 30, DRAM 160; cheaper mispredicts, pricier walks).
    /// Exists so proofs and experiments can be repeated on a second
    /// "real" microarchitecture besides [`CostTable::intel_like`].
    pub fn arm_like() -> Self {
        CostTable {
            l1_hit: 2,
            l2_hit: 9,
            llc_hit: 30,
            dram: 160,
            contention_per_req: 30,
            tlb_hit: 1,
            walk_per_level: 40,
            writeback: 8,
            branch_correct: 1,
            branch_mispredict: 8,
            flush_base: 80,
            flush_per_line: 1,
            flush_per_writeback: 10,
            irq_entry: 220,
        }
    }

    /// A flat model in which every access costs the same — a degenerate
    /// hardware with *no* timing channels. Useful as a control: every
    /// channel experiment must measure capacity ≈ 0 under it.
    pub fn uniform(cost: u64) -> Self {
        CostTable {
            l1_hit: cost,
            l2_hit: cost,
            llc_hit: cost,
            dram: cost,
            contention_per_req: 0,
            tlb_hit: 0,
            walk_per_level: 0,
            writeback: 0,
            branch_correct: cost,
            branch_mispredict: cost,
            flush_base: cost,
            flush_per_line: 0,
            flush_per_writeback: 0,
            irq_entry: cost,
        }
    }
}

/// The paper's "deterministic yet unspecified function of the
/// microarchitectural state" (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeModel {
    /// Costs read straight from a latency table.
    Table(CostTable),
    /// Table costs plus a deterministic perturbation of up to
    /// `jitter` cycles derived by hashing the event (including the local
    /// set digest) with `seed`. Different seeds are different "hardware";
    /// proofs must hold for all of them.
    Hashed {
        /// Base latency table.
        table: CostTable,
        /// Seed selecting the unspecified function.
        seed: u64,
        /// Upper bound on the added perturbation.
        jitter: u64,
    },
}

impl TimeModel {
    /// The default realistic model.
    pub fn intel_like() -> Self {
        TimeModel::Table(CostTable::intel_like())
    }

    /// A hashed model exercising the "unspecified function" argument.
    pub fn hashed(seed: u64) -> Self {
        TimeModel::Hashed {
            table: CostTable::intel_like(),
            seed,
            jitter: 17,
        }
    }

    fn table(&self) -> &CostTable {
        match self {
            TimeModel::Table(t) => t,
            TimeModel::Hashed { table, .. } => table,
        }
    }

    /// Upper bound on the deterministic perturbation this model can add
    /// to any single cost — used by WCET analysis (`tp-core::wcet`).
    pub fn jitter_bound(&self) -> u64 {
        match self {
            TimeModel::Table(_) => 0,
            TimeModel::Hashed { jitter, .. } => *jitter,
        }
    }

    /// The deterministic perturbation for the event whose hash `key`
    /// computes: `mix2(seed, key)` reduced to `0..=jitter`. Models that
    /// cannot perturb (tables, zero jitter) never compute the key.
    fn perturb(&self, key: impl FnOnce() -> u64) -> u64 {
        match *self {
            TimeModel::Hashed { seed, jitter, .. } if jitter > 0 => {
                let h = mix2(seed, key());
                // Every u64 is already in 0..=u64::MAX.
                jitter.checked_add(1).map_or(h, |n| h % n)
            }
            _ => 0,
        }
    }

    /// Cycles consumed by a memory access described by `ev`.
    pub fn mem_cost(&self, ev: &MemEvent) -> Cycles {
        let t = self.table();
        let mut c = match ev.served_by {
            MemLevel::L1 => t.l1_hit,
            MemLevel::L2 => t.l2_hit,
            MemLevel::Llc => t.llc_hit,
            MemLevel::Dram => t.dram + t.contention_per_req * ev.contention as u64,
        };
        c += t.tlb_hit;
        c += t.walk_per_level * ev.walk_levels as u64;
        if ev.writeback {
            c += t.writeback;
        }
        // The unspecified part: a function of this access's outcome and
        // the state of the structures it indexed — nothing else.
        Cycles(c + self.perturb(|| mix2(ev.local_state, outcome_key(ev))))
    }

    /// Cycles consumed by resolving a branch.
    pub fn branch_cost(&self, out: &BranchOutcome) -> Cycles {
        let t = self.table();
        let base = if out.mispredicted() {
            t.branch_mispredict
        } else {
            t.branch_correct
        };
        let key = || {
            mix2(
                0xb4a2c4,
                mix2(out.direction_correct as u64, out.btb_hit as u64),
            )
        };
        Cycles(base + self.perturb(key))
    }

    /// Cycles consumed by a pure-compute instruction of `units` work.
    pub fn compute_cost(&self, units: u64) -> Cycles {
        // Compute is architectural: it may not depend on microarch state,
        // so no perturbation is keyed off hidden state here.
        Cycles(units.max(1))
    }

    /// Cycles consumed flushing structures, given the combined outcome.
    /// The dependence on `writebacks` is the §4.2 flush-latency channel.
    pub fn flush_cost(&self, out: &FlushOutcome) -> Cycles {
        let t = self.table();
        let base = t.flush_base
            + t.flush_per_line * out.invalidated as u64
            + t.flush_per_writeback * out.writebacks as u64;
        let key = || mix2(0xf1u64, mix2(out.invalidated as u64, out.writebacks as u64));
        Cycles(base + self.perturb(key))
    }

    /// Cycles consumed entering and dispatching an interrupt.
    pub fn irq_cost(&self) -> Cycles {
        Cycles(self.table().irq_entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_pads() {
        let mut c = HwClock::new();
        c.advance(Cycles(100));
        assert_eq!(c.now(), Cycles(100));
        assert_eq!(c.pad_to(Cycles(150)), Ok(Cycles(50)));
        assert_eq!(c.now(), Cycles(150));
        // Padding to the current instant is a zero-cost success.
        assert_eq!(c.pad_to(Cycles(150)), Ok(Cycles::ZERO));
        // Overshoot reports by how much.
        assert_eq!(c.pad_to(Cycles(140)), Err(Cycles(10)));
        assert_eq!(c.now(), Cycles(150), "failed pad must not move the clock");
    }

    #[test]
    fn table_costs_are_ordered_by_level() {
        let m = TimeModel::intel_like();
        let mk = |lvl| MemEvent {
            served_by: lvl,
            ..MemEvent::l1_hit()
        };
        let l1 = m.mem_cost(&mk(MemLevel::L1));
        let l2 = m.mem_cost(&mk(MemLevel::L2));
        let llc = m.mem_cost(&mk(MemLevel::Llc));
        let dram = m.mem_cost(&mk(MemLevel::Dram));
        assert!(l1 < l2 && l2 < llc && llc < dram);
    }

    #[test]
    fn contention_increases_dram_cost() {
        let m = TimeModel::intel_like();
        let quiet = MemEvent {
            served_by: MemLevel::Dram,
            ..MemEvent::l1_hit()
        };
        let busy = MemEvent {
            contention: 5,
            ..quiet
        };
        assert!(m.mem_cost(&busy) > m.mem_cost(&quiet));
    }

    #[test]
    fn flush_cost_depends_on_dirty_lines() {
        let m = TimeModel::intel_like();
        let clean = FlushOutcome {
            invalidated: 100,
            writebacks: 0,
        };
        let dirty = FlushOutcome {
            invalidated: 100,
            writebacks: 100,
        };
        assert!(
            m.flush_cost(&dirty) > m.flush_cost(&clean),
            "the E4 channel must exist"
        );
    }

    #[test]
    fn hashed_model_is_deterministic() {
        let m = TimeModel::hashed(42);
        let ev = MemEvent {
            local_state: 777,
            ..MemEvent::l1_hit()
        };
        assert_eq!(m.mem_cost(&ev), m.mem_cost(&ev));
    }

    #[test]
    fn hashed_models_differ_across_seeds() {
        let ev = MemEvent {
            local_state: 999,
            served_by: MemLevel::L2,
            ..MemEvent::l1_hit()
        };
        let costs: Vec<_> = (0..16u64)
            .map(|s| TimeModel::hashed(s).mem_cost(&ev))
            .collect();
        assert!(
            costs.windows(2).any(|w| w[0] != w[1]),
            "seeds should select different functions"
        );
    }

    #[test]
    fn hashed_jitter_is_bounded() {
        let table = CostTable::intel_like();
        let m = TimeModel::Hashed {
            table,
            seed: 7,
            jitter: 17,
        };
        let base = TimeModel::Table(table);
        for ls in 0..200u64 {
            let ev = MemEvent {
                local_state: ls,
                ..MemEvent::l1_hit()
            };
            let d = m.mem_cost(&ev).0 - base.mem_cost(&ev).0;
            assert!(d <= 17, "jitter {d} exceeds bound");
        }
    }

    #[test]
    fn uniform_model_is_flat() {
        let m = TimeModel::Table(CostTable::uniform(5));
        let mk = |lvl| MemEvent {
            served_by: lvl,
            ..MemEvent::l1_hit()
        };
        assert_eq!(
            m.mem_cost(&mk(MemLevel::L1)),
            m.mem_cost(&mk(MemLevel::Dram))
        );
        let clean = FlushOutcome {
            invalidated: 10,
            writebacks: 0,
        };
        let dirty = FlushOutcome {
            invalidated: 10,
            writebacks: 10,
        };
        assert_eq!(m.flush_cost(&clean), m.flush_cost(&dirty));
    }

    /// Every level, TLB outcome, walk length and prefetch count, in range
    /// of the outcome-key table and past it.
    fn outcomes(walks: u8, prefetches: u8) -> impl Iterator<Item = MemEvent> {
        let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Llc, MemLevel::Dram];
        levels.into_iter().flat_map(move |served_by| {
            [true, false].into_iter().flat_map(move |tlb_hit| {
                (0..walks).flat_map(move |walk_levels| {
                    (0..prefetches).map(move |prefetches| MemEvent {
                        tlb_hit,
                        walk_levels,
                        served_by,
                        prefetches,
                        ..MemEvent::l1_hit()
                    })
                })
            })
        })
    }

    fn nested_chain(ev: &MemEvent) -> u64 {
        mix2(
            ev.served_by as u64,
            mix2(
                ev.tlb_hit as u64,
                mix2(ev.walk_levels as u64, ev.prefetches as u64),
            ),
        )
    }

    #[test]
    fn outcome_key_table_equals_the_nested_chain() {
        let in_range: Vec<_> = outcomes(KEY_WALK_LEVELS as u8, KEY_PREFETCHES as u8).collect();
        assert_eq!(in_range.len(), OUTCOMES);
        for ev in &in_range {
            assert_eq!(outcome_key(ev), nested_chain(ev), "{ev:?}");
        }
        // Every table entry is some in-range outcome's chain.
        let mut tabled: Vec<_> = in_range.iter().map(nested_chain).collect();
        let mut table = OUTCOME_KEYS.to_vec();
        tabled.sort_unstable();
        table.sort_unstable();
        assert_eq!(table, tabled);
    }

    #[test]
    fn out_of_range_outcomes_fall_back_to_the_chain() {
        let widest = MemEvent {
            walk_levels: u8::MAX,
            prefetches: u8::MAX,
            ..MemEvent::l1_hit()
        };
        let wide = outcomes(9, 9).chain([widest]).filter(|ev| {
            ev.walk_levels as usize >= KEY_WALK_LEVELS || ev.prefetches as usize >= KEY_PREFETCHES
        });
        let mut fell_back = 0;
        for ev in wide {
            fell_back += 1;
            assert_eq!(outcome_key(&ev), nested_chain(&ev), "{ev:?}");
        }
        assert_eq!(
            fell_back,
            8 * (9 * 9 - KEY_WALK_LEVELS * KEY_PREFETCHES) + 1
        );
        // A hashed model prices a wide event by the same key.
        let m = TimeModel::hashed(3);
        let ev = MemEvent {
            walk_levels: 7,
            prefetches: 9,
            local_state: 0x5eed,
            served_by: MemLevel::Llc,
            ..MemEvent::l1_hit()
        };
        assert_eq!(
            m.mem_cost(&ev).0 - TimeModel::intel_like().mem_cost(&ev).0,
            mix2(3, mix2(ev.local_state, nested_chain(&ev))) % 18
        );
    }

    #[test]
    fn table_models_ignore_local_state() {
        for m in [
            TimeModel::intel_like(),
            TimeModel::Table(CostTable::arm_like()),
        ] {
            for ev in outcomes(4, 6) {
                let cost = m.mem_cost(&ev);
                for local_state in [1, 0xdead_beef, u64::MAX] {
                    let other = MemEvent { local_state, ..ev };
                    assert_eq!(m.mem_cost(&other), cost, "{m:?} {ev:?}");
                }
            }
        }
    }

    #[test]
    fn full_width_jitter_returns_the_whole_hash() {
        let m = TimeModel::Hashed {
            table: CostTable::intel_like(),
            seed: 11,
            jitter: u64::MAX,
        };
        assert_eq!(m.perturb(|| 42), mix2(11, 42));
        // Pricing a branch no longer divides by zero.
        let out = BranchOutcome {
            direction_correct: true,
            btb_hit: true,
        };
        let key = mix2(0xb4a2c4, mix2(1, 1));
        assert_eq!(
            m.branch_cost(&out).0.wrapping_sub(mix2(11, key)),
            CostTable::intel_like().branch_correct
        );
        let hashed = TimeModel::Hashed {
            table: CostTable::intel_like(),
            seed: 11,
            jitter: u64::MAX - 1,
        };
        assert_eq!(hashed.perturb(|| 42), mix2(11, 42) % u64::MAX);
    }

    #[test]
    fn compute_cost_is_architectural() {
        let a = TimeModel::intel_like();
        let b = TimeModel::hashed(99);
        assert_eq!(a.compute_cost(7), b.compute_cost(7));
        assert_eq!(
            a.compute_cost(0),
            Cycles(1),
            "zero-unit compute still takes a cycle"
        );
    }
}

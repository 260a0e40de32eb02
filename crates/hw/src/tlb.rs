//! ASID-tagged translation lookaside buffer.
//!
//! §5.3 of the paper points to Syeda & Klein's abstract TLB model: a
//! high-level abstraction that records just enough state to prove
//! partitioning theorems, e.g. *"page-table modifications under one ASID
//! do not affect TLB consistency for any other ASID"*. This module is the
//! timing-aware analogue: entries are tagged with an [`Asid`], and the
//! proof harness checks both the functional partitioning theorem and its
//! timing consequence (hit/miss behaviour for one ASID is independent of
//! another ASID's fills and invalidations — experiment E8).

use crate::types::{mix2, slot_term, Asid, DomainTag, VAddr};

/// A single TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address-space the translation belongs to.
    pub asid: Asid,
    /// Virtual page number.
    pub vpn: u64,
    /// Physical frame number.
    pub pfn: u64,
    /// Whether stores are permitted.
    pub writable: bool,
    /// Global mappings match regardless of ASID (kernel text on real
    /// hardware). Global entries are the reason a *shared* kernel image
    /// leaks (§4.2) — the cloned kernel uses non-global entries instead.
    pub global: bool,
    /// Ghost owner for the partitioning checker.
    pub owner: DomainTag,
}

/// Outcome of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Translation present; fields copied out of the entry.
    Hit {
        /// Physical frame number.
        pfn: u64,
        /// Whether stores are permitted.
        writable: bool,
    },
    /// No matching entry; a page-table walk is required.
    Miss,
}

/// A fully-associative, LRU-replaced, ASID-tagged TLB.
///
/// Fully-associative is the common organisation for first-level TLBs and
/// makes the partitioning argument cleanest: the only cross-ASID coupling
/// is capacity/replacement, which `flush_asid`/`flush_all` plus the
/// kernel's switch-time policy remove.
///
/// The TLB keeps its state digest current (see [`slot_term`]): slot `i`
/// has one term for its entry and slot `capacity + i` one for its
/// recency rank, each 0 while invalid or at rank 0. It also counts the
/// slots out of that reset state ([`Tlb::is_reset`]).
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    /// LRU ranks, parallel to `entries`; 0 = most recently used.
    lru: Vec<u8>,
    /// Each slot's VPN ([`NO_KEY`] when invalid), parallel to `entries`.
    /// Lookups scan this dense array instead of the 40-byte entries —
    /// the lookup runs on every modelled instruction fetch.
    vpn_key: Vec<u64>,
    /// Memo of recent hits: `(lookup asid, vpn) → first matching slot`.
    /// Between mutations the associative scan is a pure function of the
    /// lookup key, so replaying a memoised slot (including its recency
    /// touch) is byte-identical to re-scanning. Cleared on every
    /// mutation; never consulted by digests or equality.
    memo: [Option<LookupMemo>; 2],
    /// Round-robin victim pointer into `memo`.
    memo_next: u8,
    /// Running [`Tlb::state_digest`].
    digest: u64,
    /// Valid entries plus non-zero ranks.
    live: usize,
}

/// One memoised lookup (see [`Tlb::memo`]).
#[derive(Debug, Clone, Copy)]
struct LookupMemo {
    asid: Asid,
    vpn: u64,
    slot: u32,
}

/// `vpn_key` sentinel for invalid slots. Real VPNs are at most
/// 2^52 - 1 (64-bit addresses, 12-bit pages), so this cannot collide.
const NO_KEY: u64 = u64::MAX;

/// Equality ignores the lookup memo (pure acceleration state), the
/// digest and the live count (functions of the rest): two TLBs are the
/// same hardware state iff their entries and recency ranks agree.
impl PartialEq for Tlb {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.lru == other.lru
    }
}

impl Eq for Tlb {}

impl Tlb {
    /// Create an empty TLB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `capacity > 255` (ranks are `u8`).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity <= 255,
            "unsupported TLB capacity {capacity}"
        );
        Tlb {
            entries: vec![None; capacity],
            lru: vec![0; capacity],
            vpn_key: vec![NO_KEY; capacity],
            memo: [None; 2],
            memo_next: 0,
            digest: 0,
            live: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Look up `vaddr` under `asid`, updating recency on a hit.
    pub fn lookup(&mut self, asid: Asid, vaddr: VAddr) -> TlbLookup {
        let vpn = vaddr.vpn();
        // Memo fast path: the scan below is a pure function of
        // (asid, vpn) until the next mutation, so a remembered slot is
        // exactly the slot a fresh scan would find.
        for m in self.memo.iter().flatten() {
            if m.vpn == vpn && m.asid == asid {
                let i = m.slot as usize;
                let e = self.entries[i].as_ref().expect("memo implies a valid slot");
                let hit = TlbLookup::Hit {
                    pfn: e.pfn,
                    writable: e.writable,
                };
                self.touch(i);
                return hit;
            }
        }
        for i in 0..self.vpn_key.len() {
            if self.vpn_key[i] != vpn {
                continue;
            }
            let e = self.entries[i]
                .as_ref()
                .expect("vpn key implies a valid slot");
            if e.global || e.asid == asid {
                let hit = TlbLookup::Hit {
                    pfn: e.pfn,
                    writable: e.writable,
                };
                let n = self.memo_next as usize;
                self.memo[n] = Some(LookupMemo {
                    asid,
                    vpn,
                    slot: i as u32,
                });
                self.memo_next = (self.memo_next + 1) % self.memo.len() as u8;
                self.touch(i);
                return hit;
            }
        }
        TlbLookup::Miss
    }

    /// Drop all memoised lookups. Must run on every mutation of
    /// `entries` — the memo is only sound between mutations.
    fn clear_memo(&mut self) {
        self.memo = [None; 2];
        self.memo_next = 0;
    }

    /// Probe without changing recency.
    pub fn peek(&self, asid: Asid, vaddr: VAddr) -> bool {
        let vpn = vaddr.vpn();
        self.entries
            .iter()
            .flatten()
            .any(|e| e.vpn == vpn && (e.global || e.asid == asid))
    }

    /// Insert a translation, evicting the LRU entry if full. Returns the
    /// evicted entry, if any.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        // Refill over an existing matching slot if present.
        for i in 0..self.entries.len() {
            if let Some(e) = self.entries[i] {
                if e.vpn == entry.vpn && e.asid == entry.asid {
                    self.fill(i, entry);
                    return None;
                }
            }
        }
        // Otherwise an empty slot.
        for i in 0..self.entries.len() {
            if self.entries[i].is_none() {
                self.fill(i, entry);
                return None;
            }
        }
        // Otherwise evict LRU.
        let victim = self
            .lru
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| **r)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let old = self.entries[victim];
        self.fill(victim, entry);
        old
    }

    /// Install `entry` in slot `idx`.
    fn fill(&mut self, idx: usize, entry: TlbEntry) {
        self.clear_memo();
        self.set_entry(idx, Some(entry));
        self.touch(idx);
    }

    /// Replace slot `idx`'s entry, keeping the VPN index and the digest
    /// current.
    fn set_entry(&mut self, idx: usize, entry: Option<TlbEntry>) {
        let before = self.entry_term(idx);
        self.entries[idx] = entry;
        self.vpn_key[idx] = entry.map_or(NO_KEY, |e| e.vpn);
        let after = self.entry_term(idx);
        self.account(before, after);
    }

    /// Invalidate every entry (including globals). Canonical reset state.
    /// A TLB already in it is left alone: it holds no entry, so no memo.
    pub fn flush_all(&mut self) -> usize {
        if self.live == 0 {
            return 0;
        }
        self.clear_memo();
        let n = self.occupancy();
        self.entries.fill(None);
        self.lru.fill(0);
        self.vpn_key.fill(NO_KEY);
        self.digest = 0;
        self.live = 0;
        n
    }

    /// Invalidate all non-global entries of one ASID. Returns the count.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.clear_memo();
        let mut n = 0;
        for i in 0..self.entries.len() {
            if matches!(&self.entries[i], Some(x) if x.asid == asid && !x.global) {
                self.set_entry(i, None);
                n += 1;
            }
        }
        n
    }

    /// Invalidate one page of one ASID (invlpg analogue). The kernel calls
    /// this on unmap to preserve TLB consistency.
    pub fn invalidate_page(&mut self, asid: Asid, vaddr: VAddr) -> bool {
        let vpn = vaddr.vpn();
        for i in 0..self.entries.len() {
            if matches!(&self.entries[i], Some(x) if x.asid == asid && x.vpn == vpn) {
                self.clear_memo();
                self.set_entry(i, None);
                return true;
            }
        }
        false
    }

    /// Iterate over valid entries (for the invariant checkers).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> + '_ {
        self.entries.iter().flatten()
    }

    /// Digest of all state visible to timing: which (asid, vpn) pairs are
    /// resident plus replacement ranks. Kept current by every mutator, so
    /// this is one load.
    #[inline]
    pub fn state_digest(&self) -> u64 {
        self.digest
    }

    /// [`Tlb::state_digest`] folded afresh from every slot: the oracle
    /// the running digest is tested against.
    pub fn digest_from_scratch(&self) -> u64 {
        (0..self.entries.len()).fold(0, |h, i| {
            h ^ self.entry_term(i).unwrap_or(0) ^ self.rank_term(i).unwrap_or(0)
        })
    }

    /// Whether every slot is invalid at rank 0: `self == Tlb::new(cap)`,
    /// in one load.
    #[inline]
    pub fn is_reset(&self) -> bool {
        self.live == 0
    }

    /// Slot `i`'s entry term: content its ASID, VPN, PFN and global bit;
    /// `None` while the slot is invalid.
    fn entry_term(&self, i: usize) -> Option<u64> {
        self.entries[i].as_ref().map(|e| {
            slot_term(
                i as u64,
                mix2(e.asid.0 as u64, mix2(e.vpn, mix2(e.pfn, e.global as u64))),
            )
        })
    }

    /// Slot `i`'s rank term, at slot `capacity + i`; `None` at rank 0.
    fn rank_term(&self, i: usize) -> Option<u64> {
        match self.lru[i] {
            0 => None,
            r => Some(slot_term((self.lru.len() + i) as u64, r as u64)),
        }
    }

    /// Account for one slot changing from term `before` to `after` in
    /// the digest and the live count.
    #[inline]
    fn account(&mut self, before: Option<u64>, after: Option<u64>) {
        self.live = self.live + usize::from(after.is_some()) - usize::from(before.is_some());
        self.digest ^= before.unwrap_or(0) ^ after.unwrap_or(0);
    }

    /// Digest of the entries belonging to one ASID (plus globals), i.e.
    /// the state a lookup under that ASID can consult. The E8 partitioning
    /// theorem says: operations under ASID *a* leave `asid_digest(b)`
    /// unchanged for all `b != a`, capacity effects aside.
    pub fn asid_digest(&self, asid: Asid) -> u64 {
        let mut h = 0u64;
        for e in self.entries.iter().flatten() {
            if e.asid == asid || e.global {
                h = mix2(h, mix2(e.vpn, mix2(e.pfn, e.writable as u64)));
            }
        }
        h
    }

    fn touch(&mut self, idx: usize) {
        let old = self.lru[idx];
        if old == 0 {
            return; // already most recent: no rank moves
        }
        for i in 0..self.lru.len() {
            if self.lru[i] < old || i == idx {
                let before = self.rank_term(i);
                self.lru[i] = if i == idx { 0 } else { self.lru[i] + 1 };
                let after = self.rank_term(i);
                self.account(before, after);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asid: u16, vpn: u64) -> TlbEntry {
        TlbEntry {
            asid: Asid(asid),
            vpn,
            pfn: vpn + 100,
            writable: true,
            global: false,
            owner: DomainTag(asid),
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(Asid(1), VAddr(0x5000)), TlbLookup::Miss);
        t.insert(entry(1, 5));
        assert_eq!(
            t.lookup(Asid(1), VAddr(0x5000)),
            TlbLookup::Hit {
                pfn: 105,
                writable: true
            }
        );
    }

    #[test]
    fn asid_isolation_on_lookup() {
        let mut t = Tlb::new(4);
        t.insert(entry(1, 5));
        assert_eq!(
            t.lookup(Asid(2), VAddr(0x5000)),
            TlbLookup::Miss,
            "other ASID must not hit"
        );
    }

    #[test]
    fn global_entries_match_any_asid() {
        let mut t = Tlb::new(4);
        let mut e = entry(1, 9);
        e.global = true;
        t.insert(e);
        assert!(matches!(
            t.lookup(Asid(7), VAddr(0x9000)),
            TlbLookup::Hit { .. }
        ));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(entry(1, 1));
        t.insert(entry(1, 2));
        t.lookup(Asid(1), VAddr(0x1000)); // touch vpn 1
        let evicted = t.insert(entry(1, 3));
        assert_eq!(evicted.map(|e| e.vpn), Some(2));
        assert!(t.peek(Asid(1), VAddr(0x1000)));
        assert!(!t.peek(Asid(1), VAddr(0x2000)));
    }

    #[test]
    fn refill_updates_in_place() {
        let mut t = Tlb::new(2);
        t.insert(entry(1, 1));
        let mut e2 = entry(1, 1);
        e2.pfn = 999;
        assert!(t.insert(e2).is_none());
        assert_eq!(t.occupancy(), 1);
        assert_eq!(
            t.lookup(Asid(1), VAddr(0x1000)),
            TlbLookup::Hit {
                pfn: 999,
                writable: true
            }
        );
    }

    #[test]
    fn flush_asid_spares_others_and_globals() {
        let mut t = Tlb::new(8);
        t.insert(entry(1, 1));
        t.insert(entry(2, 2));
        let mut g = entry(1, 3);
        g.global = true;
        t.insert(g);
        assert_eq!(t.flush_asid(Asid(1)), 1);
        assert!(!t.peek(Asid(1), VAddr(0x1000)));
        assert!(t.peek(Asid(2), VAddr(0x2000)));
        assert!(t.peek(Asid(2), VAddr(0x3000)), "global survives flush_asid");
        assert_eq!(t.flush_all(), 2);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn invalidate_page_is_precise() {
        let mut t = Tlb::new(4);
        t.insert(entry(1, 1));
        t.insert(entry(1, 2));
        assert!(t.invalidate_page(Asid(1), VAddr(0x1000)));
        assert!(
            !t.invalidate_page(Asid(1), VAddr(0x1000)),
            "second invalidate is a no-op"
        );
        assert!(t.peek(Asid(1), VAddr(0x2000)));
    }

    #[test]
    fn asid_digest_partitioning_theorem_smoke() {
        // The §5.3 theorem, in miniature: inserting and invalidating under
        // ASID 1 never changes the digest of ASID 2's visible entries
        // (capacity effects excluded by keeping the TLB non-full).
        let mut t = Tlb::new(16);
        t.insert(entry(2, 7));
        let before = t.asid_digest(Asid(2));
        t.insert(entry(1, 1));
        t.insert(entry(1, 2));
        t.invalidate_page(Asid(1), VAddr(0x1000));
        t.flush_asid(Asid(1));
        assert_eq!(t.asid_digest(Asid(2)), before);
    }

    #[test]
    #[should_panic(expected = "unsupported TLB capacity")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }

    /// Random lookups, inserts and every kind of invalidation: after
    /// each one the running digest equals the fold from scratch, a
    /// flushed TLB's digest is 0, the live count equals a tally of the
    /// valid entries and non-zero ranks, and `is_reset` agrees with a
    /// compare against a new TLB.
    #[test]
    fn the_running_digest_matches_the_fold_after_every_mutation() {
        let mut rng = proptest::TestRng::new(0x71b);
        let mut t = Tlb::new(4);
        let (mut moves, mut resets) = (0, 0);
        for step in 0..4000 {
            let digest = t.state_digest();
            let asid = Asid(rng.below(3) as u16);
            let vaddr = VAddr(rng.below(6) << 12);
            let op = rng.below(12) as usize;
            match op {
                0..=5 => {
                    t.lookup(asid, vaddr);
                }
                6..=8 => {
                    let mut e = entry(asid.0, vaddr.vpn());
                    e.global = rng.below(5) == 0;
                    t.insert(e);
                }
                9 => {
                    t.flush_asid(asid);
                }
                10 => {
                    t.invalidate_page(asid, vaddr);
                }
                _ => {
                    t.flush_all();
                    assert_eq!(t.state_digest(), 0, "step {step}: a flush hashes nothing");
                }
            }
            assert_eq!(
                t.state_digest(),
                t.digest_from_scratch(),
                "step {step} op {op}"
            );
            let live = t.occupancy() + t.lru.iter().filter(|&&r| r != 0).count();
            assert_eq!(t.live, live, "step {step} op {op}: live");
            assert_eq!(t.is_reset(), t == Tlb::new(4), "step {step} op {op}");
            moves += usize::from(t.state_digest() != digest);
            resets += usize::from(t.is_reset());
        }
        assert!(moves > 0 && resets > 0, "{moves} {resets}");
    }

    /// Flushing a TLB that is already reset, new or just flushed,
    /// invalidates nothing and leaves it equal to a new one.
    #[test]
    fn flushing_a_reset_tlb_leaves_it_new() {
        let mut t = Tlb::new(4);
        assert_eq!(t.flush_all(), 0);
        assert_eq!(t, Tlb::new(4));
        t.insert(entry(1, 5));
        // A hit leaves a memo entry behind for the flush to drop.
        assert!(matches!(
            t.lookup(Asid(1), VAddr(5 << 12)),
            TlbLookup::Hit { .. }
        ));
        assert_eq!(t.flush_all(), 1);
        assert_eq!(t.flush_all(), 0);
        assert!(t.is_reset());
        assert_eq!(t, Tlb::new(4));
        assert_eq!(t.lookup(Asid(1), VAddr(5 << 12)), TlbLookup::Miss);
    }

    /// The lookup memo against a naive scan: over random lookups,
    /// inserts and every kind of invalidation on a small key space,
    /// every `lookup` answers what the first matching valid slot in slot
    /// order holds, whether the memo or the scan answered it. The
    /// reference reads only `iter()`, so it holds under any replacement
    /// policy.
    #[test]
    fn memoised_lookups_match_a_naive_scan() {
        let mut rng = proptest::TestRng::new(0x3e40);
        let mut t = Tlb::new(4);
        let mut memo_hits = 0;
        for step in 0..20_000 {
            let asid = Asid(rng.below(2) as u16);
            let vaddr = VAddr(rng.below(3) << 12);
            let vpn = vaddr.vpn();
            match rng.below(16) {
                0..=7 => {
                    let expected = t
                        .iter()
                        .find(|e| e.vpn == vpn && (e.global || e.asid == asid))
                        .map_or(TlbLookup::Miss, |e| TlbLookup::Hit {
                            pfn: e.pfn,
                            writable: e.writable,
                        });
                    let memoised = t
                        .memo
                        .iter()
                        .flatten()
                        .any(|m| m.vpn == vpn && m.asid == asid);
                    memo_hits += usize::from(memoised);
                    assert_eq!(t.lookup(asid, vaddr), expected, "step {step}");
                }
                8..=10 => {
                    t.insert(TlbEntry {
                        pfn: rng.below(1 << 20),
                        writable: rng.below(2) == 0,
                        global: rng.below(4) == 0,
                        ..entry(asid.0, vpn)
                    });
                }
                11 | 12 => {
                    t.flush_asid(asid);
                }
                13 | 14 => {
                    t.invalidate_page(asid, vaddr);
                }
                _ => {
                    t.flush_all();
                }
            }
        }
        assert!(memo_hits > 0, "the memo never answered a lookup");
    }
}

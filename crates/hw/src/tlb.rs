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

use crate::types::{mix2, Asid, DomainTag, Generation, GenerationCounter, VAddr};

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
    /// Bumped by every change to `entries` or `lru` (see
    /// [`Tlb::generation`]); never consulted by digests or equality.
    generation: GenerationCounter,
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

/// Equality ignores the lookup memo and the generation counter (pure
/// acceleration state): two TLBs are the same hardware state iff their
/// entries and recency ranks agree.
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
            generation: GenerationCounter::new(),
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

    /// Install `entry` in slot `idx`, keeping the VPN index coherent.
    fn fill(&mut self, idx: usize, entry: TlbEntry) {
        self.clear_memo();
        self.generation.bump();
        self.vpn_key[idx] = entry.vpn;
        self.entries[idx] = Some(entry);
        self.touch(idx);
    }

    /// Invalidate every entry (including globals). Canonical reset state.
    pub fn flush_all(&mut self) -> usize {
        self.clear_memo();
        self.generation.bump();
        let n = self.occupancy();
        for e in &mut self.entries {
            *e = None;
        }
        for r in &mut self.lru {
            *r = 0;
        }
        for k in &mut self.vpn_key {
            *k = NO_KEY;
        }
        n
    }

    /// Invalidate all non-global entries of one ASID. Returns the count.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.clear_memo();
        self.generation.bump();
        let mut n = 0;
        for i in 0..self.entries.len() {
            if matches!(&self.entries[i], Some(x) if x.asid == asid && !x.global) {
                self.entries[i] = None;
                self.vpn_key[i] = NO_KEY;
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
                self.generation.bump();
                self.entries[i] = None;
                self.vpn_key[i] = NO_KEY;
                return true;
            }
        }
        false
    }

    /// Iterate over valid entries (for the invariant checkers).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> + '_ {
        self.entries.iter().flatten()
    }

    /// Where the TLB is in its mutation history: while this is
    /// unchanged, so is [`Tlb::state_digest`]. A hit on the most
    /// recently used entry changes nothing and leaves it alone.
    pub fn generation(&self) -> Generation {
        self.generation.get()
    }

    /// Digest of all state visible to timing: which (asid, vpn) pairs are
    /// resident plus replacement ranks.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0u64;
        for (i, slot) in self.entries.iter().enumerate() {
            if let Some(e) = slot {
                h = mix2(
                    h,
                    mix2(
                        i as u64,
                        mix2(e.asid.0 as u64, mix2(e.vpn, mix2(e.pfn, e.global as u64))),
                    ),
                );
            }
            h = mix2(h, self.lru[i] as u64);
        }
        h
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
        self.generation.bump();
        for r in self.lru.iter_mut() {
            if *r < old {
                *r += 1;
            }
        }
        self.lru[idx] = 0;
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

    /// Every change to the entries or ranks moves the generation, so a
    /// digest memoised on it stays right; readers leave it; a clone
    /// compares equal under another generation.
    #[test]
    fn the_generation_moves_with_every_change() {
        let mut rng = proptest::TestRng::new(0x71b);
        let mut t = Tlb::new(4);
        for step in 0..4000 {
            let (before, generation, digest) = (t.clone(), t.generation(), t.state_digest());
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
                }
            }
            let moved = t.generation() != generation;
            let ctx = format!("step {step} op {op}");
            if t != before || t.state_digest() != digest {
                assert!(moved, "{ctx}: a change kept the generation");
            }
            if (6..=9).contains(&op) || op == 11 {
                assert!(moved, "{ctx}: a mutator kept the generation");
            }
            let clone = t.clone();
            assert_eq!(clone, t, "{ctx}: equality ignores the generation");
            assert_ne!(clone.generation(), t.generation(), "{ctx}");
        }
        let g = t.generation();
        let _ = (
            t.peek(Asid(0), VAddr(0)),
            t.iter().count(),
            t.asid_digest(Asid(0)),
        );
        assert_eq!(t.generation(), g, "readers leave the generation");
    }
}

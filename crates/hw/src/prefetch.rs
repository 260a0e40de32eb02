//! Stride prefetcher state machine.
//!
//! The paper lists "pre-fetcher state machines" among the stateful,
//! core-local resources that must be flushed on domain switch (§3.1,
//! §4.1). We model the classic per-PC stride detector: a small table
//! indexed by the PC of the load, tracking the last address, the observed
//! stride, and a saturating confidence counter. Once confident, the
//! prefetcher emits the next line(s) ahead of the access stream, changing
//! cache state — and hence timing — as a function of *history*, which is
//! exactly what makes it a channel if not reset.

use crate::types::{mix2, DomainTag, PAddr, VAddr};

/// One slot of the stride table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct StrideEntry {
    /// Tag of the load PC that owns this slot (0 = empty).
    tag: u64,
    /// Last physical address observed from this PC.
    last: u64,
    /// Last observed stride in bytes (two's-complement).
    stride: i64,
    /// 2-bit saturating confidence.
    confidence: u8,
    /// Ghost owner.
    owner: Option<DomainTag>,
}

/// A per-PC stride prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefetcher {
    table: Vec<StrideEntry>,
    /// Prefetch degree: how many lines ahead to fetch when confident.
    degree: usize,
}

impl Prefetcher {
    /// Create a prefetcher with `entries` table slots (power of two) and
    /// the given prefetch `degree`.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two or `degree == 0`.
    pub fn new(entries: usize, degree: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(degree > 0, "degree must be positive");
        Prefetcher {
            table: vec![StrideEntry::default(); entries],
            degree,
        }
    }

    /// Default geometry: 16 slots, degree 1.
    pub fn default_geometry() -> Self {
        Prefetcher::new(16, 1)
    }

    /// Observe a demand load at `pc` to physical address `paddr`.
    /// Returns the physical addresses the prefetcher wants filled.
    pub fn observe(&mut self, pc: VAddr, paddr: PAddr, owner: DomainTag) -> Vec<PAddr> {
        let mut out = Vec::new();
        self.observe_into(pc, paddr, owner, &mut out);
        out
    }

    /// Allocation-free [`Prefetcher::observe`]: clears `out`, then fills
    /// it with the prefetch candidates, reusing its capacity. The hot
    /// loop threads one scratch vector through every demand load.
    pub fn observe_into(
        &mut self,
        pc: VAddr,
        paddr: PAddr,
        owner: DomainTag,
        out: &mut Vec<PAddr>,
    ) {
        let idx = ((pc.0 >> 2) as usize) & (self.table.len() - 1);
        let tag = (pc.0 >> 2) | 1;
        let e = &mut self.table[idx];

        out.clear();
        if e.tag == tag {
            let new_stride = paddr.0 as i64 - e.last as i64;
            if new_stride == e.stride && new_stride != 0 {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.confidence = e.confidence.saturating_sub(1);
                if e.confidence == 0 {
                    e.stride = new_stride;
                }
            }
            e.last = paddr.0;
            if e.confidence >= 2 && e.stride != 0 {
                for k in 1..=self.degree {
                    let next = paddr.0 as i64 + e.stride * k as i64;
                    if next >= 0 {
                        out.push(PAddr(next as u64));
                    }
                }
            }
        } else {
            *e = StrideEntry {
                tag,
                last: paddr.0,
                stride: 0,
                confidence: 0,
                owner: Some(owner),
            };
        }
        e.owner = Some(owner);
    }

    /// Reset to the canonical empty state (§4.1 flushing).
    pub fn flush(&mut self) {
        for e in &mut self.table {
            *e = StrideEntry::default();
        }
    }

    /// Ghost owners of live slots, for the partitioning checker.
    pub fn iter_owners(&self) -> impl Iterator<Item = DomainTag> + '_ {
        self.table
            .iter()
            .filter_map(|e| if e.tag != 0 { e.owner } else { None })
    }

    /// Digest of all timing-relevant prefetcher state.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0u64;
        for (i, e) in self.table.iter().enumerate() {
            if e.tag != 0 {
                h = mix2(
                    h,
                    mix2(
                        i as u64,
                        mix2(
                            e.tag,
                            mix2(e.last, mix2(e.stride as u64, e.confidence as u64)),
                        ),
                    ),
                );
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DomainTag = DomainTag(0);

    #[test]
    fn detects_constant_stride() {
        let mut pf = Prefetcher::default_geometry();
        let pc = VAddr(0x400);
        assert!(pf.observe(pc, PAddr(0x1000), D).is_empty());
        assert!(
            pf.observe(pc, PAddr(0x1040), D).is_empty(),
            "confidence 1: not yet"
        );
        assert!(
            pf.observe(pc, PAddr(0x1080), D).is_empty(),
            "confidence building"
        );
        let p = pf.observe(pc, PAddr(0x10c0), D);
        assert_eq!(p, vec![PAddr(0x1100)], "confident: prefetch next line");
    }

    #[test]
    fn irregular_stream_never_prefetches() {
        let mut pf = Prefetcher::default_geometry();
        let pc = VAddr(0x400);
        let addrs = [0x1000u64, 0x9040, 0x2100, 0x77c0, 0x3000];
        for a in addrs {
            assert!(pf.observe(pc, PAddr(a), D).is_empty());
        }
    }

    #[test]
    fn degree_greater_than_one() {
        let mut pf = Prefetcher::new(16, 3);
        let pc = VAddr(0x400);
        for i in 0..3u64 {
            pf.observe(pc, PAddr(0x1000 + i * 64), D);
        }
        let p = pf.observe(pc, PAddr(0x10c0), D);
        assert_eq!(p, vec![PAddr(0x1100), PAddr(0x1140), PAddr(0x1180)]);
    }

    #[test]
    fn negative_stride_supported() {
        let mut pf = Prefetcher::default_geometry();
        let pc = VAddr(0x500);
        for i in (1..5u64).rev() {
            pf.observe(pc, PAddr(0x2000 + i * 64), D);
        }
        // Next in the descending stream: 0x2000; prefetch one stride below.
        let p = pf.observe(pc, PAddr(0x2000), D);
        assert_eq!(p, vec![PAddr(0x1fc0)]);
    }

    #[test]
    fn pc_conflict_resets_slot() {
        let mut pf = Prefetcher::new(1, 1); // one slot: every PC collides
        pf.observe(VAddr(0x400), PAddr(0x1000), D);
        pf.observe(VAddr(0x400), PAddr(0x1040), D);
        // A different PC steals the slot, losing the training.
        pf.observe(VAddr(0x404), PAddr(0x9000), DomainTag(1));
        assert!(pf.observe(VAddr(0x400), PAddr(0x1080), D).is_empty());
    }

    #[test]
    fn flush_is_history_independent() {
        let mut a = Prefetcher::default_geometry();
        let b = Prefetcher::default_geometry();
        for i in 0..32u64 {
            a.observe(VAddr(0x400 + i * 4), PAddr(0x1000 + i * 64), DomainTag(2));
        }
        assert_ne!(a.state_digest(), b.state_digest());
        a.flush();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.iter_owners().count(), 0);
    }

    #[test]
    fn history_dependence_is_a_channel() {
        // Same access by the spy; different prior activity by the trojan
        // (training the same slot) yields different prefetch behaviour.
        let run = |trojan_trains: bool| {
            let mut pf = Prefetcher::new(1, 1);
            if trojan_trains {
                for i in 0..4u64 {
                    pf.observe(VAddr(0x400), PAddr(0x8000 + i * 64), DomainTag(1));
                }
            }
            pf.observe(VAddr(0x400), PAddr(0x8100), DomainTag(0)).len()
        };
        assert_ne!(run(false), run(true));
    }
}

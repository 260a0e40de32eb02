//! Page-colouring frame allocator (§4.1).
//!
//! "Partitioning of shared (physically-addressed) caches is possible
//! without extra hardware support by using page colouring. [...] By
//! ensuring that different security domains are allocated physical page
//! frames of disjoint colours, the OS can partition the cache between
//! domains."
//!
//! Frames are binned by the colour they map to in the shared LLC
//! (`pfn mod colours`). The allocator hands out frames only from a
//! domain's assigned colour set and records ghost ownership in
//! [`PhysMem`], which the `tp-core` partitioning checker later audits.

use tp_hw::mem::PhysMem;
use tp_hw::types::{Colour, DomainTag};

/// Errors from the colour allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The requested colour set is empty.
    NoColours,
    /// All frames of the permitted colours are in use.
    OutOfFrames {
        /// The colour set that was exhausted.
        colours_tried: usize,
    },
    /// A colour index exceeds the cache's colour count.
    BadColour {
        /// The offending colour.
        colour: Colour,
    },
}

/// A frame allocator that respects cache colours.
#[derive(Debug, Clone)]
pub struct ColourAllocator {
    /// Number of colours the LLC supports (1 = colouring impossible).
    colours: usize,
    /// Free lists per colour, each sorted descending so `pop` yields the
    /// lowest-numbered frame (determinism aid).
    free: Vec<Vec<u64>>,
}

impl ColourAllocator {
    /// Build an allocator over `frames` frames with `colours` LLC colours.
    /// Frames below `reserved` are withheld (boot/kernel image area gets
    /// allocated explicitly before general allocation starts).
    ///
    /// # Panics
    /// Panics if `colours == 0`.
    pub fn new(frames: usize, colours: usize, reserved: u64) -> Self {
        assert!(colours > 0, "need at least one colour");
        let (frames, stride) = (frames as u64, colours as u64);
        // Colour `c`'s frames are every `stride`-th frame from the first
        // one of its colour at or past `reserved`; list them top down.
        let free = (0..stride)
            .map(|c| {
                let first = reserved + (c + stride - reserved % stride) % stride;
                let n = frames.saturating_sub(first).div_ceil(stride);
                (0..n).rev().map(|k| first + k * stride).collect()
            })
            .collect();
        ColourAllocator { colours, free }
    }

    /// The number of colours.
    pub fn colours(&self) -> usize {
        self.colours
    }

    /// Free frames remaining in `colour`.
    pub fn free_in(&self, colour: Colour) -> usize {
        self.free.get(colour.0 as usize).map(Vec::len).unwrap_or(0)
    }

    /// Allocate one frame of exactly `colour`, assigning it to `owner`.
    pub fn alloc_coloured(
        &mut self,
        mem: &mut PhysMem,
        colour: Colour,
        owner: DomainTag,
    ) -> Result<u64, AllocError> {
        let list = self
            .free
            .get_mut(colour.0 as usize)
            .ok_or(AllocError::BadColour { colour })?;
        let pfn = list
            .pop()
            .ok_or(AllocError::OutOfFrames { colours_tried: 1 })?;
        mem.assign(pfn, owner);
        Ok(pfn)
    }

    /// Allocate one frame from any of `colours` (round-robin by fill,
    /// preferring the colour with most free frames for balance).
    pub fn alloc_any(
        &mut self,
        mem: &mut PhysMem,
        colours: &[Colour],
        owner: DomainTag,
    ) -> Result<u64, AllocError> {
        if colours.is_empty() {
            return Err(AllocError::NoColours);
        }
        for c in colours {
            if (c.0 as usize) >= self.colours {
                return Err(AllocError::BadColour { colour: *c });
            }
        }
        let best = colours
            .iter()
            .max_by_key(|c| self.free[c.0 as usize].len())
            .copied()
            .expect("non-empty checked above");
        if self.free[best.0 as usize].is_empty() {
            return Err(AllocError::OutOfFrames {
                colours_tried: colours.len(),
            });
        }
        self.alloc_coloured(mem, best, owner)
    }

    /// Return a frame to the free pool.
    pub fn release(&mut self, mem: &mut PhysMem, pfn: u64) {
        mem.release(pfn);
        self.free[(pfn as usize) % self.colours].push(pfn);
    }

    /// Split the colour space into `n` disjoint, (nearly) equal parts,
    /// after reserving the first `kernel_colours` colours for the kernel
    /// (global kernel data must live in colours no domain can touch —
    /// the Case-2a argument of §5.2 depends on it).
    ///
    /// Returns `(kernel, per_domain)` colour sets.
    pub fn partition_colours(
        colours: usize,
        kernel_colours: usize,
        n: usize,
    ) -> (Vec<Colour>, Vec<Vec<Colour>>) {
        assert!(n > 0, "need at least one domain");
        assert!(
            kernel_colours + n <= colours,
            "cannot split {colours} colours into kernel={kernel_colours} + {n} domains"
        );
        let kernel: Vec<Colour> = (0..kernel_colours as u16).map(Colour).collect();
        let remaining: Vec<u16> = (kernel_colours as u16..colours as u16).collect();
        let per = remaining.len() / n;
        let mut out = Vec::with_capacity(n);
        for d in 0..n {
            let lo = d * per;
            let hi = if d == n - 1 {
                remaining.len()
            } else {
                lo + per
            };
            out.push(remaining[lo..hi].iter().copied().map(Colour).collect());
        }
        (kernel, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ColourAllocator, PhysMem) {
        (ColourAllocator::new(64, 8, 0), PhysMem::new(64))
    }

    #[test]
    fn allocated_frames_have_requested_colour() {
        let (mut a, mut m) = setup();
        for want in 0..8u16 {
            let pfn = a
                .alloc_coloured(&mut m, Colour(want), DomainTag(1))
                .unwrap();
            assert_eq!(pfn % 8, want as u64);
            assert_eq!(
                m.owner_of(tp_hw::types::PAddr::from_pfn(pfn, 0)),
                Some(DomainTag(1))
            );
        }
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut a = ColourAllocator::new(8, 8, 0); // one frame per colour
        let mut m = PhysMem::new(8);
        a.alloc_coloured(&mut m, Colour(3), DomainTag(0)).unwrap();
        assert_eq!(
            a.alloc_coloured(&mut m, Colour(3), DomainTag(0)),
            Err(AllocError::OutOfFrames { colours_tried: 1 })
        );
    }

    #[test]
    fn release_recycles() {
        let (mut a, mut m) = setup();
        let pfn = a.alloc_coloured(&mut m, Colour(2), DomainTag(0)).unwrap();
        let before = a.free_in(Colour(2));
        a.release(&mut m, pfn);
        assert_eq!(a.free_in(Colour(2)), before + 1);
        assert_eq!(m.owner_of(tp_hw::types::PAddr::from_pfn(pfn, 0)), None);
    }

    #[test]
    fn alloc_any_balances() {
        let (mut a, mut m) = setup();
        let set = [Colour(1), Colour(2)];
        let mut counts = [0usize; 2];
        for _ in 0..8 {
            let pfn = a.alloc_any(&mut m, &set, DomainTag(0)).unwrap();
            counts[(pfn % 8) as usize - 1] += 1;
        }
        assert_eq!(counts, [4, 4], "allocation should balance across colours");
    }

    #[test]
    fn alloc_any_rejects_empty_and_bad() {
        let (mut a, mut m) = setup();
        assert_eq!(
            a.alloc_any(&mut m, &[], DomainTag(0)),
            Err(AllocError::NoColours)
        );
        assert_eq!(
            a.alloc_any(&mut m, &[Colour(99)], DomainTag(0)),
            Err(AllocError::BadColour { colour: Colour(99) })
        );
    }

    #[test]
    fn reserved_frames_are_withheld() {
        let a = ColourAllocator::new(16, 8, 8);
        let total: usize = (0..8).map(|c| a.free_in(Colour(c))).sum();
        assert_eq!(total, 8, "first 8 frames reserved");
    }

    /// The stride-built free lists hold exactly the frames a scan by
    /// `pfn % colours` puts in each, in the same descending order, with
    /// no spare capacity.
    #[test]
    fn free_lists_match_a_modulo_scan() {
        for (frames, colours, reserved) in [
            (16, 8, 0),
            (16, 8, 8),
            (17, 8, 3),
            (4096, 128, 130),
            (100, 7, 13),
            (5, 8, 2),
            (8, 3, 20),
            (1, 1, 0),
        ] {
            let a = ColourAllocator::new(frames, colours, reserved);
            let mut want = vec![Vec::new(); colours];
            for pfn in (reserved..frames as u64).rev() {
                want[pfn as usize % colours].push(pfn);
            }
            assert_eq!(
                a.free, want,
                "{frames} frames, {colours} colours, {reserved}"
            );
            assert!(a.free.iter().all(|l| l.capacity() == l.len()));
        }
    }

    #[test]
    fn partition_is_disjoint_and_exhaustive() {
        let (kernel, parts) = ColourAllocator::partition_colours(128, 4, 3);
        assert_eq!(kernel.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for c in kernel.iter().chain(parts.iter().flatten()) {
            assert!(seen.insert(*c), "colour {c:?} assigned twice");
        }
        assert_eq!(seen.len(), 128, "every colour assigned");
        // Domains get 124/3 = 41,41,42.
        assert_eq!(parts[0].len(), 41);
        assert_eq!(parts[2].len(), 42);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn partition_rejects_too_many_domains() {
        ColourAllocator::partition_colours(4, 2, 3);
    }
}

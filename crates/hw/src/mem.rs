//! Physical memory: a frame array with ghost ownership.
//!
//! The simulator does not store data contents — timing channels are about
//! *where* accesses go, not what they carry — but it does track, per
//! frame, a ghost owner tag. The kernel's coloured frame allocator
//! records assignments here, and the `tp-core` partitioning checker
//! cross-references cache-line owners against frame owners and the
//! colour policy.

use crate::types::{DomainTag, Generation, GenerationCounter, PAddr, PAGE_SIZE};

/// Per-frame bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameInfo {
    /// Ghost owner; `None` while free.
    pub owner: Option<DomainTag>,
    /// Frames can be marked as holding kernel text/data (for the kernel
    /// clone machinery and the invariant checkers).
    pub kernel_image: bool,
}

/// Modelled physical memory: `frames` frames of [`PAGE_SIZE`] bytes.
///
/// Equality compares the frames and ignores the generation counter.
#[derive(Debug, Clone)]
pub struct PhysMem {
    frames: Vec<FrameInfo>,
    /// Bumped by every call that can change a frame (`assign`, `release`,
    /// `frame_mut`), so a checker may reuse what it derived from the
    /// frames while [`PhysMem::generation`] is unchanged.
    generation: GenerationCounter,
}

impl PartialEq for PhysMem {
    fn eq(&self, other: &Self) -> bool {
        self.frames == other.frames
    }
}

impl Eq for PhysMem {}

impl PhysMem {
    /// Create a memory of `frames` frames.
    ///
    /// # Panics
    /// Panics if `frames == 0`.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "need at least one frame");
        PhysMem {
            frames: vec![FrameInfo::default(); frames],
            generation: GenerationCounter::new(),
        }
    }

    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Total bytes of modelled memory.
    pub fn size_bytes(&self) -> u64 {
        self.frames.len() as u64 * PAGE_SIZE
    }

    /// Whether `paddr` lies inside modelled memory.
    pub fn contains(&self, paddr: PAddr) -> bool {
        (paddr.pfn() as usize) < self.frames.len()
    }

    /// Frame info for `pfn`.
    ///
    /// # Panics
    /// Panics if `pfn` is out of range; callers validate with
    /// [`Self::contains`] or obtain frames from the allocator.
    pub fn frame(&self, pfn: u64) -> &FrameInfo {
        &self.frames[pfn as usize]
    }

    /// Mutable frame info for `pfn`.
    pub fn frame_mut(&mut self, pfn: u64) -> &mut FrameInfo {
        self.generation.bump();
        &mut self.frames[pfn as usize]
    }

    /// Ghost owner of the frame containing `paddr`, if any.
    pub fn owner_of(&self, paddr: PAddr) -> Option<DomainTag> {
        self.frames.get(paddr.pfn() as usize).and_then(|f| f.owner)
    }

    /// Assign `pfn` to `owner`.
    pub fn assign(&mut self, pfn: u64, owner: DomainTag) {
        self.generation.bump();
        self.frames[pfn as usize].owner = Some(owner);
    }

    /// Release `pfn` back to the free pool.
    pub fn release(&mut self, pfn: u64) {
        self.generation.bump();
        self.frames[pfn as usize] = FrameInfo::default();
    }

    /// Where the frames are in their mutation history: equal values mean
    /// no frame of this memory changed in between.
    pub fn generation(&self) -> Generation {
        self.generation.get()
    }

    /// Iterate `(pfn, info)` over all frames.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &FrameInfo)> + '_ {
        self.frames.iter().enumerate().map(|(i, f)| (i as u64, f))
    }

    /// Count of frames owned by `owner`.
    pub fn frames_owned_by(&self, owner: DomainTag) -> usize {
        self.frames
            .iter()
            .filter(|f| f.owner == Some(owner))
            .count()
    }

    /// Count of free frames.
    pub fn free_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.owner.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_release_roundtrip() {
        let mut m = PhysMem::new(8);
        assert_eq!(m.free_frames(), 8);
        m.assign(3, DomainTag(1));
        assert_eq!(m.owner_of(PAddr::from_pfn(3, 100)), Some(DomainTag(1)));
        assert_eq!(m.frames_owned_by(DomainTag(1)), 1);
        m.release(3);
        assert_eq!(m.owner_of(PAddr::from_pfn(3, 100)), None);
        assert_eq!(m.free_frames(), 8);
    }

    #[test]
    fn bounds() {
        let m = PhysMem::new(4);
        assert!(m.contains(PAddr::from_pfn(3, 0)));
        assert!(!m.contains(PAddr::from_pfn(4, 0)));
        assert_eq!(m.size_bytes(), 4 * PAGE_SIZE);
        assert_eq!(
            m.owner_of(PAddr::from_pfn(100, 0)),
            None,
            "out of range is unowned"
        );
    }

    /// `assign`, `release` and `frame_mut` move the generation, readers
    /// leave it, and a clone compares equal under another generation.
    #[test]
    fn every_mutator_moves_the_generation() {
        let mut m = PhysMem::new(4);
        let mutators: [fn(&mut PhysMem); 3] = [
            |m| m.assign(1, DomainTag(2)),
            |m| m.release(1),
            |m| m.frame_mut(2).kernel_image = true,
        ];
        for (i, mutate) in mutators.iter().enumerate() {
            let generation = m.generation();
            mutate(&mut m);
            assert_ne!(m.generation(), generation, "mutator {i}");
        }
        let generation = m.generation();
        let _ = (
            m.frame(2),
            m.owner_of(PAddr::from_pfn(1, 0)),
            m.iter().count(),
            m.frames_owned_by(DomainTag(2)),
            m.free_frames(),
        );
        assert_eq!(m.generation(), generation, "readers");
        let clone = m.clone();
        assert_eq!(clone, m, "equality ignores the generation");
        assert_ne!(clone.generation(), m.generation());
    }

    #[test]
    fn kernel_image_flag() {
        let mut m = PhysMem::new(4);
        m.frame_mut(0).kernel_image = true;
        m.frame_mut(0).owner = Some(DomainTag::KERNEL);
        assert!(m.frame(0).kernel_image);
        assert_eq!(m.iter().filter(|(_, f)| f.kernel_image).count(), 1);
    }
}

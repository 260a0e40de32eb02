//! Foundational types shared across the hardware model.
//!
//! The model is deliberately *abstract* in the sense of the paper (§5.1):
//! it records exactly the microarchitectural state that execution time
//! depends on, and no more. Addresses, cycle counts and domain tags are
//! newtypes so that the type system keeps the three spaces (virtual
//! addresses, physical addresses, time) apart.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use core::sync::atomic::{AtomicU64, Ordering};

/// Size of a page in bytes (4 KiB, as on all hardware the paper considers).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_BITS: u32 = 12;
/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_BITS: u32 = 6;

/// A virtual address as seen by user programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VAddr(pub u64);

/// A physical address; the unit of cache indexing and colouring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PAddr(pub u64);

impl VAddr {
    /// Virtual page number of this address.
    #[inline]
    pub fn vpn(self) -> u64 {
        self.0 >> PAGE_BITS
    }

    /// Byte offset within the page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// The address of the first byte of the enclosing page.
    #[inline]
    pub fn page_base(self) -> VAddr {
        VAddr(self.0 & !(PAGE_SIZE - 1))
    }
}

impl PAddr {
    /// Physical frame number of this address.
    #[inline]
    pub fn pfn(self) -> u64 {
        self.0 >> PAGE_BITS
    }

    /// Byte offset within the frame.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Cache-line number (address divided by the line size).
    #[inline]
    pub fn line(self) -> u64 {
        self.0 >> LINE_BITS
    }

    /// Compose a physical address from a frame number and offset.
    ///
    /// # Panics
    /// Panics if `offset >= PAGE_SIZE`; callers construct offsets from
    /// in-page indices, so an out-of-range offset is a logic error.
    #[inline]
    pub fn from_pfn(pfn: u64, offset: u64) -> PAddr {
        assert!(offset < PAGE_SIZE, "offset {offset} outside page");
        PAddr((pfn << PAGE_BITS) | offset)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{:#x}", self.0)
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{:#x}", self.0)
    }
}

/// A duration or point in time, measured in clock cycles of the modelled
/// hardware clock (§5.1: "a simple model of a hardware clock").
///
/// `Cycles` is used both for instants (a core's cycle counter) and for
/// durations; the arithmetic provided is saturating-free and will panic on
/// overflow in debug builds, which in this simulator indicates a bug rather
/// than a wrap-around condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating subtraction: `self - rhs`, or zero if `rhs > self`.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// Ghost tag identifying the security domain on whose behalf a piece of
/// microarchitectural state was installed.
///
/// Real hardware has no such tag; it exists purely so the proof harness
/// (`tp-core`) can state and check the partitioning invariant of §5.2
/// ("no cache line owned by domain *d* resides in another domain's
/// partition"). The tag is *never* consulted by the timing model — doing so
/// would be circular — only by the invariant checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainTag(pub u16);

impl DomainTag {
    /// The tag used for state installed by the (shared or cloned) kernel.
    pub const KERNEL: DomainTag = DomainTag(u16::MAX);
}

impl fmt::Display for DomainTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == DomainTag::KERNEL {
            write!(f, "D<kernel>")
        } else {
            write!(f, "D{}", self.0)
        }
    }
}

/// Identifier of a CPU core in the modelled machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoreId(pub usize);

/// An address-space identifier, tagging TLB entries (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Asid(pub u16);

/// A cache colour: the subset of cache sets a page frame can occupy (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Colour(pub u16);

/// Faults raised by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// No translation exists for the accessed virtual page.
    PageNotMapped {
        /// The faulting virtual address.
        vaddr: VAddr,
    },
    /// A store hit a read-only mapping.
    WriteToReadOnly {
        /// The faulting virtual address.
        vaddr: VAddr,
    },
    /// An access hit a physical address outside modelled memory.
    PhysOutOfRange {
        /// The out-of-range physical address.
        paddr: PAddr,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PageNotMapped { vaddr } => write!(f, "page not mapped at {vaddr}"),
            Fault::WriteToReadOnly { vaddr } => write!(f, "write to read-only {vaddr}"),
            Fault::PhysOutOfRange { paddr } => write!(f, "physical address {paddr} out of range"),
        }
    }
}

/// Deterministic 64-bit mixer (splitmix64 finaliser).
///
/// Used wherever the model needs an *unspecified but deterministic*
/// function — most importantly the hashed time models of
/// [`crate::clock::TimeModel`], which realise the paper's "deterministic
/// yet unspecified function of the microarchitectural state" (§5.1).
/// It is a `const fn` so hot paths can table its values at compile time
/// without restating the hash.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Combine two values with [`mix64`].
#[inline]
pub const fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Where one piece of modelled state is in its mutation history: an id
/// unique to the instance in this process, and how many mutations the
/// instance has seen. Equal generations therefore mean the same
/// instance with nothing changed in between, so a memo keyed on one is
/// sound even when a monitor swaps a component for another instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Generation {
    instance: u64,
    mutations: u64,
}

/// The mutation counter a component carries next to its state. Every
/// construction, clone included, draws a fresh instance id, so a clone
/// never shares a generation with its original. Components bump it on
/// every mutation and leave it out of their equality.
#[derive(Debug)]
pub(crate) struct GenerationCounter(Generation);

impl GenerationCounter {
    pub(crate) fn new() -> Self {
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);
        GenerationCounter(Generation {
            // Relaxed: the id publishes no other data; the RMW alone
            // makes it unique.
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            mutations: 0,
        })
    }

    /// Record one mutation.
    #[inline]
    pub(crate) fn bump(&mut self) {
        self.0.mutations += 1;
    }

    pub(crate) fn get(&self) -> Generation {
        self.0
    }
}

impl Clone for GenerationCounter {
    fn clone(&self) -> Self {
        GenerationCounter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_decomposition() {
        let v = VAddr(0x1234_5678);
        assert_eq!(v.vpn(), 0x12345);
        assert_eq!(v.page_offset(), 0x678);
        assert_eq!(v.page_base(), VAddr(0x1234_5000));
    }

    #[test]
    fn paddr_decomposition() {
        let p = PAddr(0xabcd_ef12);
        assert_eq!(p.pfn(), 0xabcde);
        assert_eq!(p.page_offset(), 0xf12);
        assert_eq!(p.line(), 0xabcd_ef12 >> 6);
        assert_eq!(PAddr::from_pfn(0xabcde, 0xf12), p);
    }

    #[test]
    #[should_panic(expected = "outside page")]
    fn paddr_from_pfn_rejects_large_offset() {
        let _ = PAddr::from_pfn(1, PAGE_SIZE);
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles(140));
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        // A weak avalanche check: flipping one input bit changes many output bits.
        let d = (mix64(0) ^ mix64(1)).count_ones();
        assert!(d > 16, "poor diffusion: {d} bits");
    }

    #[test]
    fn domain_tag_display() {
        assert_eq!(DomainTag(3).to_string(), "D3");
        assert_eq!(DomainTag::KERNEL.to_string(), "D<kernel>");
    }
}

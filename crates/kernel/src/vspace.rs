//! Virtual address spaces with modelled two-level page tables.
//!
//! The page tables are *themselves* stored in modelled physical frames,
//! allocated from the owning domain's colours. This matters: the hardware
//! page-table walker's memory traffic goes through the cache hierarchy,
//! so page tables in uncoloured memory would be a shared resource and
//! hence a channel. Putting them in domain-coloured frames closes it —
//! one of the details the §5.2 Case-1 argument quietly relies on
//! ("all such memory accesses must lie within the physical memory of the
//! current domain").

use std::collections::BTreeMap;

use tp_hw::machine::{AddressSpace, Translation, WalkFootprint};
use tp_hw::types::{Asid, PAddr};

/// Number of entries per page-table level (512, as for 4 KiB pages with
/// 8-byte entries).
const ENTRIES_PER_TABLE: u64 = 512;

/// A mapped page's attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Physical frame.
    pub pfn: u64,
    /// Store permission.
    pub writable: bool,
    /// Global (ASID-wildcard) mapping — only the *shared* kernel image
    /// uses these; they are what makes the unclonned kernel leak (§4.2).
    pub global: bool,
}

/// Errors from mapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page is already mapped.
    AlreadyMapped {
        /// The virtual page number.
        vpn: u64,
    },
    /// The virtual page was not mapped.
    NotMapped {
        /// The virtual page number.
        vpn: u64,
    },
    /// No frame available for a new leaf page table.
    NoTableFrame,
}

/// A two-level page table rooted in a modelled frame.
///
/// The root table frame and leaf table frames are real modelled frames
/// (allocated by the kernel from the domain's colours); the walker
/// footprint of a translation is the physical addresses of the entries
/// the hardware would read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VSpace {
    /// ASID this space is installed under.
    pub asid: Asid,
    /// Frame holding the root table.
    root_frame: u64,
    /// Leaf tables: index of root entry → frame holding the leaf table.
    leaves: BTreeMap<u64, u64>,
    /// The actual mappings: vpn → mapping.
    map: BTreeMap<u64, Mapping>,
}

impl VSpace {
    /// Create an empty space rooted at `root_frame`.
    pub fn new(asid: Asid, root_frame: u64) -> Self {
        VSpace {
            asid,
            root_frame,
            leaves: BTreeMap::new(),
            map: BTreeMap::new(),
        }
    }

    /// The root-table frame (for invariant checks).
    pub fn root_frame(&self) -> u64 {
        self.root_frame
    }

    /// Frames used as leaf tables.
    pub fn leaf_frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.leaves.values().copied()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Whether a leaf table already exists to cover `vpn`.
    pub fn has_leaf_for(&self, vpn: u64) -> bool {
        self.leaves.contains_key(&(vpn / ENTRIES_PER_TABLE))
    }

    /// Map `vpn` to `mapping`. If no leaf table covers `vpn`, one is
    /// created in the frame supplied by `table_frame` (the kernel passes
    /// a freshly coloured frame, or `None` if allocation failed).
    pub fn map(
        &mut self,
        vpn: u64,
        mapping: Mapping,
        table_frame: Option<u64>,
    ) -> Result<(), MapError> {
        if self.map.contains_key(&vpn) {
            return Err(MapError::AlreadyMapped { vpn });
        }
        let li = vpn / ENTRIES_PER_TABLE;
        if let std::collections::btree_map::Entry::Vacant(e) = self.leaves.entry(li) {
            let f = table_frame.ok_or(MapError::NoTableFrame)?;
            e.insert(f);
        }
        self.map.insert(vpn, mapping);
        Ok(())
    }

    /// Remove the mapping for `vpn`, returning it. The caller must also
    /// invalidate the TLB entry (`Machine::cores[..].tlb.invalidate_page`)
    /// to preserve TLB consistency — the kernel does this in
    /// `Kernel::unmap_page`.
    pub fn unmap(&mut self, vpn: u64) -> Result<Mapping, MapError> {
        self.map.remove(&vpn).ok_or(MapError::NotMapped { vpn })
    }

    /// Look up a mapping without hardware effects.
    pub fn mapping(&self, vpn: u64) -> Option<Mapping> {
        self.map.get(&vpn).copied()
    }

    /// Iterate over `(vpn, mapping)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Mapping)> + '_ {
        self.map.iter().map(|(v, m)| (*v, *m))
    }
}

impl AddressSpace for VSpace {
    fn translate(&self, vpn: u64) -> Option<Translation> {
        self.map.get(&vpn).map(|m| Translation {
            pfn: m.pfn,
            writable: m.writable,
            global: m.global,
        })
    }

    fn walk_footprint(&self, vpn: u64) -> WalkFootprint {
        let li = vpn / ENTRIES_PER_TABLE;
        let mut fp = WalkFootprint::default();
        fp.push(PAddr::from_pfn(
            self.root_frame,
            (li % ENTRIES_PER_TABLE) * 8,
        ));
        // Unmapped region: the walker still reads the root entry before
        // discovering the absence.
        if let Some(leaf) = self.leaves.get(&li) {
            fp.push(PAddr::from_pfn(*leaf, (vpn % ENTRIES_PER_TABLE) * 8));
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs() -> VSpace {
        VSpace::new(Asid(1), 10)
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut v = vs();
        v.map(
            5,
            Mapping {
                pfn: 42,
                writable: true,
                global: false,
            },
            Some(11),
        )
        .unwrap();
        let t = v.translate(5).unwrap();
        assert_eq!(t.pfn, 42);
        assert!(t.writable);
        assert!(!t.global);
        assert_eq!(v.translate(6), None);
        assert_eq!(v.mapped_pages(), 1);
    }

    #[test]
    fn double_map_rejected() {
        let mut v = vs();
        let m = Mapping {
            pfn: 42,
            writable: true,
            global: false,
        };
        v.map(5, m, Some(11)).unwrap();
        assert_eq!(v.map(5, m, None), Err(MapError::AlreadyMapped { vpn: 5 }));
    }

    #[test]
    fn leaf_table_reuse_within_region() {
        let mut v = vs();
        let m = Mapping {
            pfn: 1,
            writable: false,
            global: false,
        };
        v.map(5, m, Some(11)).unwrap();
        assert!(v.has_leaf_for(6));
        // Same 512-page region: no new table frame needed.
        v.map(6, m, None).unwrap();
        // Different region: requires a frame.
        assert_eq!(v.map(600, m, None), Err(MapError::NoTableFrame));
        v.map(600, m, Some(12)).unwrap();
        assert_eq!(v.leaf_frames().collect::<Vec<_>>(), vec![11, 12]);
    }

    #[test]
    fn unmap() {
        let mut v = vs();
        v.map(
            5,
            Mapping {
                pfn: 42,
                writable: true,
                global: false,
            },
            Some(11),
        )
        .unwrap();
        let m = v.unmap(5).unwrap();
        assert_eq!(m.pfn, 42);
        assert_eq!(v.unmap(5), Err(MapError::NotMapped { vpn: 5 }));
        assert_eq!(v.translate(5), None);
    }

    #[test]
    fn walk_footprint_touches_root_then_leaf() {
        let mut v = vs();
        v.map(
            5,
            Mapping {
                pfn: 42,
                writable: true,
                global: false,
            },
            Some(11),
        )
        .unwrap();
        let fp = v.walk_footprint(5);
        assert_eq!(fp.len(), 2);
        let fp = fp.as_slice();
        assert_eq!(fp[0].pfn(), 10, "root frame first");
        assert_eq!(fp[1].pfn(), 11, "then leaf frame");
        assert_eq!(fp[1].page_offset(), 5 * 8);
        // Unmapped region: root only.
        assert_eq!(v.walk_footprint(5000).len(), 1);
    }

    #[test]
    fn footprints_of_distinct_vpns_differ() {
        let mut v = vs();
        let m = Mapping {
            pfn: 1,
            writable: false,
            global: false,
        };
        v.map(5, m, Some(11)).unwrap();
        v.map(6, m, None).unwrap();
        assert_ne!(v.walk_footprint(5), v.walk_footprint(6));
    }
}

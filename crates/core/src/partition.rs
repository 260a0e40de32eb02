//! Obligation P: the partitioning invariant (§5.2).
//!
//! "The proofs must show that all resource partitioning [...] is applied
//! at all times and not bypassable." Concretely, at any observation
//! point:
//!
//! 1. every physical frame owned by a domain has a colour from that
//!    domain's assigned set (frames drive where cache lines can land);
//! 2. every valid line in the *shared* LLC was installed on behalf of a
//!    principal whose colour set contains the line's colour — i.e. no
//!    domain's footprint strays into another's partition;
//! 3. mid-slice, the TLB holds non-global entries only for the currently
//!    running domain (time-shared state is flushed at switches, so any
//!    foreign survivor is a flush/partition failure).
//!
//! The checks read only ghost state ([`tp_hw::types::DomainTag`]); the
//! hardware's timing behaviour never consults it, so the checker cannot
//! perturb what it observes.
//!
//! [`check_partition`] is the full scan and the reference. The monitored
//! loop checks P after every domain switch, where most of that state has
//! not changed since the last check, so it asks a [`SwitchMonitor`]
//! instead, which gives the same result at a cost in proportion to what
//! changed:
//!
//! * frame colouring is memoised. The key is the memory's
//!   [`tp_hw::mem::PhysMem::generation`] (bumped by every frame
//!   mutation: the kernel's allocator, or a test hook), the LLC's
//!   colour count, and every principal's colour set as a bitmask, so an
//!   edited colour assignment misses too; the value is the owned-frame
//!   count of the last clean scan. A hit adds that count and scans
//!   nothing.
//! * LLC placement is scanned every time, over the cache's line slice
//!   one colour at a time, against the same bitmasks. The LLC changes
//!   on most fills, so a change bit per set would put a write on the
//!   hottest path for a scan that costs about a microsecond.
//! * the TLB residency check is the full check's, unchanged.
//!
//! The fast path only recognises a clean state. If any part finds a
//! violation, or the machine is outside what the bitmasks hold (more
//! than 128 colours, more than 16 domains, or an LLC of another
//! geometry), it returns [`check_partition`]'s result, so violations,
//! their order, times and details are the full scan's, and the clean
//! path formats nothing.
//!
//! The same monitor answers obligation F and the switch digest
//! ([`SwitchMonitor::at_switch`]), from one structural compare of the
//! scheduled core with its run's [`FlushReference`] per switch. A
//! pristine core has the reference's digest and no valid line, so F
//! holds with nothing hashed. A core the flush left dirty gives its
//! [`tp_hw::machine::Core::microarch_digest`], for F and the switch
//! digest both: its caches, TLB and predictor keep their digests
//! current, so that chains a few loads. The F result equals
//! [`crate::flush::check_flush_at_switch`] exactly.

use crate::flush::{flush_result, FlushReference};
use crate::obligation::{ObligationResult, ViolationKind};
use tp_hw::types::{Colour, DomainTag, Generation};
use tp_kernel::kernel::System;

/// Does `tag`'s colour set (or the kernel's) contain `colour`?
fn tag_may_use(sys: &System, tag: DomainTag, colour: Colour) -> bool {
    if tag == DomainTag::KERNEL {
        sys.kernel.kernel_colours.contains(&colour)
    } else {
        sys.kernel
            .colour_assignment
            .get(tag.0 as usize)
            .map(|set| set.contains(&colour))
            .unwrap_or(false)
    }
}

/// Check the partitioning invariant on the current state of `sys`.
///
/// Only meaningful when colouring is enabled; with colouring off the
/// invariant is vacuous (every domain may use every colour) and the
/// result trivially holds — the *noninterference* check is what exposes
/// the resulting channel.
pub fn check_partition(sys: &System) -> ObligationResult {
    let mut r = ObligationResult::new("P");
    let now = sys.now();
    if !sys.kernel.tp.colouring {
        // Vacuously true; record zero check points so reports show the
        // obligation was not exercised.
        return r;
    }

    let llc_colours = match sys.hw.config().llc {
        Some(c) => c.colours(),
        None => return r,
    };

    // 1. Frame colouring.
    for (pfn, info) in sys.hw.mem.iter() {
        if let Some(owner) = info.owner {
            r.checked_points += 1;
            let colour = Colour((pfn % llc_colours as u64) as u16);
            if !tag_may_use(sys, owner, colour) {
                r.violate(
                    ViolationKind::PartitionFrame,
                    now,
                    format!("frame {pfn} owned by {owner} has foreign colour {colour:?}"),
                );
            }
        }
    }

    // 2. LLC line placement.
    if let Some(llc) = &sys.hw.llc {
        let sets_per_colour = llc.config().sets / llc_colours;
        for (set, way, line) in llc.iter_lines() {
            if !line.valid {
                continue;
            }
            r.checked_points += 1;
            let colour = Colour((set / sets_per_colour) as u16);
            if let Some(owner) = line.owner {
                if !tag_may_use(sys, owner, colour) {
                    r.violate(
                        ViolationKind::PartitionCacheLine,
                        now,
                        format!(
                            "LLC set {set} way {way}: line owned by {owner} in colour {colour:?}"
                        ),
                    );
                }
            }
        }
    }

    // 3. TLB residency (only with flushing on; otherwise survivors are
    //    expected and the NI check exposes their effect).
    if sys.kernel.tp.flush_on_switch {
        let cur = &sys.kernel.domains[sys.kernel.current.0];
        for e in sys.hw.cores[sys.kernel.core.0].tlb.iter() {
            r.checked_points += 1;
            if !e.global && e.asid != cur.asid {
                r.violate(
                    ViolationKind::PartitionTlb,
                    now,
                    format!(
                        "TLB entry for asid {:?} present during {:?}",
                        e.asid, cur.id
                    ),
                );
            }
        }
    }

    r
}

/// Most domains a [`SwitchMonitor`] keeps colour bitmasks for; a
/// system with more is checked by the full scan.
const MASKED_DOMAINS: usize = 16;

/// Every principal's colour set as a bitmask over the LLC's colours
/// (bit `c` set: colour `c` allowed). Colours at or past the LLC's
/// count name no frame and no set, so they are left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColourMasks {
    kernel: u128,
    domains: [u128; MASKED_DOMAINS],
}

impl ColourMasks {
    /// `sys`'s masks, or `None` when they do not fit.
    fn of(sys: &System, llc_colours: usize) -> Option<Self> {
        let assignment = &sys.kernel.colour_assignment;
        if llc_colours > u128::BITS as usize || assignment.len() > MASKED_DOMAINS {
            return None;
        }
        let mask = |set: &[Colour]| {
            set.iter()
                .filter(|c| (c.0 as usize) < llc_colours)
                .fold(0u128, |m, c| m | 1 << c.0)
        };
        let mut domains = [0; MASKED_DOMAINS];
        for (m, set) in domains.iter_mut().zip(assignment) {
            *m = mask(set);
        }
        Some(ColourMasks {
            kernel: mask(&sys.kernel.kernel_colours),
            domains,
        })
    }

    /// [`tag_may_use`] for every colour at once.
    #[inline]
    fn of_tag(&self, tag: DomainTag) -> u128 {
        if tag == DomainTag::KERNEL {
            self.kernel
        } else {
            self.domains.get(tag.0 as usize).copied().unwrap_or(0)
        }
    }
}

/// The owned-frame count of a clean frame scan, and what it depended on.
#[derive(Debug)]
struct FrameMemo {
    generation: Generation,
    llc_colours: usize,
    masks: ColourMasks,
    owned: usize,
}

/// The switch-time checks of one monitored run against its
/// [`FlushReference`], remembering the frame scan while the frames have
/// not changed (see the module docs). The memo is keyed on the memory's
/// generation, which is unique to a `PhysMem` instance, so the monitor
/// stays exact even when a hook swaps the memory out.
#[derive(Debug)]
pub struct SwitchMonitor<'r> {
    reference: &'r FlushReference,
    frames: Option<FrameMemo>,
    frame_scans: usize,
}

impl<'r> SwitchMonitor<'r> {
    /// A monitor for runs on `reference`'s core that remembers nothing
    /// yet.
    pub fn new(reference: &'r FlushReference) -> Self {
        SwitchMonitor {
            reference,
            frames: None,
            frame_scans: 0,
        }
    }

    /// `(F, P, digest)` right after a switch: the results of
    /// [`crate::flush::check_flush_at_switch`] and [`check_partition`],
    /// and the scheduled core's
    /// [`tp_hw::machine::Core::microarch_digest`]. One structural
    /// compare of the core with the reference's pristine core decides
    /// the path: a pristine core has the reference's digest and no valid
    /// line, so F holds wherever flushing is claimed, with nothing
    /// scanned; a dirty core's digest is read once, for F and the
    /// digest both.
    pub fn at_switch(&mut self, sys: &System) -> (ObligationResult, ObligationResult, u64) {
        let reference = self.reference;
        let (f, digest) = if reference.is_pristine(sys) {
            let mut f = ObligationResult::new("F");
            f.checked_points = usize::from(sys.kernel.tp.flush_on_switch);
            (f, reference.digest)
        } else {
            let digest = sys.hw.cores[sys.kernel.core.0].microarch_digest();
            (flush_result(sys, reference.digest, || digest), digest)
        };
        (f, self.check_partition(sys), digest)
    }

    /// [`check_partition`] on `sys`: equal to it, result for result.
    pub fn check_partition(&mut self, sys: &System) -> ObligationResult {
        match self.clean_points(sys) {
            Some(points) => {
                let mut r = ObligationResult::new("P");
                r.checked_points = points;
                r
            }
            None => check_partition(sys),
        }
    }

    /// How many times this monitor scanned the frames: its frame memo's
    /// misses.
    pub fn frame_scans(&self) -> usize {
        self.frame_scans
    }

    /// The check points of a clean `sys`, or `None` when the state has
    /// a violation or does not fit the bitmasks.
    fn clean_points(&mut self, sys: &System) -> Option<usize> {
        if !sys.kernel.tp.colouring {
            return Some(0);
        }
        let Some(llc_cfg) = sys.hw.config().llc else {
            return Some(0);
        };
        let llc_colours = llc_cfg.colours();
        let masks = ColourMasks::of(sys, llc_colours)?;
        let mut points = self.owned_frames(sys, &masks, llc_colours)?;

        if let Some(llc) = &sys.hw.llc {
            if *llc.config() != llc_cfg {
                return None;
            }
            let run = llc_cfg.sets / llc_colours * llc_cfg.ways;
            for (colour, lines) in llc.lines().chunks_exact(run).enumerate() {
                let bit = 1u128 << colour;
                for line in lines.iter().filter(|l| l.valid) {
                    points += 1;
                    if let Some(owner) = line.owner {
                        if masks.of_tag(owner) & bit == 0 {
                            return None;
                        }
                    }
                }
            }
        }

        if sys.kernel.tp.flush_on_switch {
            let asid = sys.kernel.domains[sys.kernel.current.0].asid;
            for e in sys.hw.cores[sys.kernel.core.0].tlb.iter() {
                points += 1;
                if !e.global && e.asid != asid {
                    return None;
                }
            }
        }
        Some(points)
    }

    /// The owned-frame count, from the memo while the frames and the
    /// colour sets are unchanged; `None` if a frame has a foreign colour.
    fn owned_frames(
        &mut self,
        sys: &System,
        masks: &ColourMasks,
        llc_colours: usize,
    ) -> Option<usize> {
        let generation = sys.hw.mem.generation();
        if let Some(m) = &self.frames {
            if m.generation == generation && m.llc_colours == llc_colours && m.masks == *masks {
                return Some(m.owned);
            }
        }
        self.frame_scans += 1;
        let mut owned = 0;
        for ((_, info), colour) in sys.hw.mem.iter().zip((0..llc_colours).cycle()) {
            if let Some(owner) = info.owner {
                owned += 1;
                if (masks.of_tag(owner) >> colour) & 1 == 0 {
                    return None;
                }
            }
        }
        self.frames = Some(FrameMemo {
            generation,
            llc_colours,
            masks: *masks,
            owned,
        });
        Some(owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_hw::machine::MachineConfig;
    use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
    use tp_kernel::layout::data_addr;
    use tp_kernel::program::{IdleProgram, TraceProgram};

    fn busy_system(tp: TimeProtConfig) -> System {
        let worker = TraceProgram::loads((0..64).map(|i| data_addr(i * 64).0));
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(worker.clone())),
            DomainSpec::new(Box::new(worker)),
        ])
        .with_tp(tp);
        System::new(MachineConfig::single_core(), kcfg).unwrap()
    }

    #[test]
    fn fresh_coloured_system_satisfies_p() {
        let sys = busy_system(TimeProtConfig::full());
        let r = check_partition(&sys);
        assert!(r.holds(), "{r}");
        assert!(r.checked_points > 0);
    }

    #[test]
    fn p_holds_throughout_execution() {
        let mut sys = busy_system(TimeProtConfig::full());
        for _ in 0..2000 {
            sys.step();
        }
        let r = check_partition(&sys);
        assert!(r.holds(), "{r}");
    }

    #[test]
    fn p_is_vacuous_without_colouring() {
        let mut sys = busy_system(TimeProtConfig::off());
        for _ in 0..500 {
            sys.step();
        }
        let r = check_partition(&sys);
        assert!(r.holds());
        assert_eq!(r.checked_points, 0, "not exercised without colouring");
    }

    #[test]
    fn forged_frame_ownership_is_caught() {
        let mut sys = busy_system(TimeProtConfig::full());
        // Sabotage: hand a kernel-coloured frame to domain 0.
        let llc_colours = sys.hw.config().llc.unwrap().colours() as u64;
        let kcolour = sys.kernel.kernel_colours[0];
        let pfn = (0..sys.hw.mem.num_frames() as u64)
            .find(|p| p % llc_colours == kcolour.0 as u64)
            .unwrap();
        sys.hw.mem.assign(pfn, DomainTag(0));
        let r = check_partition(&sys);
        assert!(!r.holds());
        assert_eq!(r.violations[0].kind, ViolationKind::PartitionFrame);
    }

    #[test]
    fn planted_llc_line_is_caught() {
        let mut sys = busy_system(TimeProtConfig::full());
        // Sabotage: domain 0 installs a line in domain 1's colours
        // (as a broken kernel or hardware would).
        let d1_colour = sys.kernel.colour_assignment[1][0];
        let llc = sys.hw.llc.as_mut().unwrap();
        let sets_per_colour = llc.config().sets / llc.config().colours();
        let target_set = d1_colour.0 as usize * sets_per_colour;
        let paddr = tp_hw::types::PAddr((target_set as u64) << tp_hw::types::LINE_BITS);
        llc.access(paddr, false, DomainTag(0));
        let r = check_partition(&sys);
        assert!(!r.holds());
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::PartitionCacheLine
        ));
    }

    #[test]
    fn stale_tlb_entry_is_caught() {
        let mut sys = busy_system(TimeProtConfig::full());
        // Plant a TLB entry for the non-current domain.
        let other = sys.kernel.domains[1].asid;
        sys.hw.cores[0].tlb.insert(tp_hw::tlb::TlbEntry {
            asid: other,
            vpn: 0x999,
            pfn: 1,
            writable: false,
            global: false,
            owner: DomainTag(1),
        });
        let r = check_partition(&sys);
        assert!(!r.holds());
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::PartitionTlb));
    }

    #[test]
    fn idle_system_has_no_violations() {
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(IdleProgram))]);
        let sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        assert!(check_partition(&sys).holds());
    }
}

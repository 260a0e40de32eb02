//! Security domains and their observations.
//!
//! §2: "a security domain refers to a subset of the system which is
//! treated as an opaque unit by the system's security policy. In OS
//! terms, a domain consists of one or more (cooperating) processes."
//! Our domains each run one deterministic [`Program`] in a private
//! [`VSpace`], under a per-domain slice/padding budget and a private set
//! of cache colours and interrupt lines.
//!
//! The [`Observation`] log records exactly what the domain's program can
//! architecturally see: clock reads, IPC deliveries, faults and its own
//! halting. Noninterference (§5.2) is stated over these logs: a Lo
//! domain's observation sequence must be identical across all Hi secrets.
//!
//! Each domain's observations flow into an [`ObsSink`] (`tp_hw::obs`),
//! which folds every event into a rolling `(len, digest)` fingerprint
//! and, by default, keeps the full log too (what every witness
//! extractor needs); a [`ObsSink::digest_only`] sink keeps only the
//! fingerprint — the proof engine's trace-free hot path.

use crate::program::{Program, StepFeedback};
use crate::vspace::VSpace;
pub use tp_hw::obs::{ObsEvent, ObsSink, Observation};
use tp_hw::types::{Asid, Colour, Cycles, DomainTag, VAddr, PAGE_SIZE};

/// Index of a domain within the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub usize);

impl DomainId {
    /// The ghost tag for this domain.
    pub fn tag(self) -> DomainTag {
        DomainTag(self.0 as u16)
    }
}

/// Scheduling state of a domain's (single) thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomState {
    /// Ready to execute.
    Runnable,
    /// Blocked in `Recv` on an endpoint.
    BlockedRecv {
        /// Endpoint index.
        ep: usize,
    },
    /// Executed `Halt`; idles for its remaining slices.
    Halted,
}

/// A security domain.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Kernel-assigned identity.
    pub id: DomainId,
    /// Address-space identifier.
    pub asid: Asid,
    /// The domain's address space.
    pub vspace: VSpace,
    /// Index into the kernel's image table (0 = the shared image).
    pub kimage: usize,
    /// Cache colours this domain may occupy.
    pub colours: Vec<Colour>,
    /// Time-slice length.
    pub slice: Cycles,
    /// Switch padding: the next domain starts no earlier than
    /// `slice_start + slice + pad` (§4.2; an attribute of the
    /// switched-*from* domain, set by the system designer).
    pub pad: Cycles,
    /// Interrupt lines owned by this domain.
    pub irq_lines: Vec<u8>,
    /// The program.
    pub program: Box<dyn Program>,
    /// Optional interim process (§4.3): executed during this domain's
    /// switch padding instead of busy-looping, reclaiming otherwise
    /// wasted cycles. Its microarchitectural effects are flushed before
    /// the next domain starts, so it cannot leak.
    pub pad_filler: Option<Box<dyn Program>>,
    /// How long before the padded switch target the filler must be
    /// preempted ("early enough to allow the kernel to switch domains
    /// without exceeding the pad time", §4.3). Must cover the flush
    /// WCET plus one filler instruction.
    pub filler_margin: Cycles,
    /// Current program counter.
    pub pc: VAddr,
    /// Scheduling state.
    pub state: DomState,
    /// Feedback pending for the next program step.
    pub feedback: StepFeedback,
    /// Where everything the program observes goes: a recording sink by
    /// default, a digest-only sink on the proof engine's hot path.
    pub obs: ObsSink,
    /// Cached size in bytes of the contiguous code window (see
    /// [`Domain::recompute_code_bytes`]): the PC-wrap modulus the
    /// kernel's fetch path reads every instruction. Kept in sync by the
    /// map/unmap syscalls instead of being rediscovered per fetch.
    pub code_bytes: u64,
    /// Number of instructions retired (diagnostics).
    pub retired: u64,
}

impl Domain {
    /// The ghost tag for this domain.
    pub fn tag(&self) -> DomainTag {
        self.id.tag()
    }

    /// Re-derive [`Domain::code_bytes`] from the current address space:
    /// the mapped-page count of the code window (at least one page).
    /// Called after any mapping change that touches the window.
    pub fn recompute_code_bytes(&mut self) {
        let window = crate::layout::CODE_VPN..crate::layout::CODE_VPN + 1024;
        let pages = self
            .vspace
            .iter()
            .filter(|(vpn, _)| window.contains(vpn))
            .count() as u64;
        self.code_bytes = (pages * PAGE_SIZE).max(PAGE_SIZE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_tag_matches_id() {
        assert_eq!(DomainId(3).tag(), DomainTag(3));
    }
}

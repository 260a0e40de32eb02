//! Kernel and time-protection configuration.
//!
//! [`TimeProtConfig`] switches each §4 mechanism independently, which is
//! what makes the E11 ablation possible: disable one mechanism and the
//! corresponding channel must reopen, demonstrating both that the
//! mechanism is necessary and that the checker has the power to see it.

use crate::ipc::EndpointSpec;
use crate::program::Program;
use tp_hw::obs::WordFold;
use tp_hw::types::Cycles;

/// Fingerprint seeds, one per configuration type.
const DOMAIN_SPEC_TAG: u64 = 0x646f_6d61_696e;
const KERNEL_CONFIG_TAG: u64 = 0x6b65_726e_656c;

/// Which time-protection mechanisms are active (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeProtConfig {
    /// Partition the shared LLC (and frame allocation) by page colouring
    /// (§4.1). Off = every domain allocates from all colours.
    pub colouring: bool,
    /// Flush core-local state (L1s, L2, TLB, predictors, prefetcher) on
    /// each *domain* switch — not on intra-domain switches (§4.2).
    pub flush_on_switch: bool,
    /// Also flush the shared LLC on domain switch — the fallback when
    /// colouring is off. Sound only with a single core (§4.1).
    pub flush_llc_on_switch: bool,
    /// Pad domain switches to `slice + pad` (§4.2); hides the
    /// history-dependent flush latency and kernel-entry jitter.
    pub pad_switch: bool,
    /// Partition interrupts: only the current domain's lines (plus the
    /// preemption timer) are unmasked (§4.2).
    pub irq_partition: bool,
    /// Give each domain a private kernel image in its own colours via
    /// kernel clone (§4.2). Off = all domains share image 0.
    pub kernel_clone: bool,
    /// Enforce deterministic IPC delivery per endpoint `min_delivery`
    /// thresholds (§3.2, Cock et al.).
    pub deterministic_ipc: bool,
}

impl TimeProtConfig {
    /// Everything on — full time protection as Ge et al. (2019) built it.
    pub fn full() -> Self {
        TimeProtConfig {
            colouring: true,
            flush_on_switch: true,
            flush_llc_on_switch: false, // colouring handles the LLC
            pad_switch: true,
            irq_partition: true,
            kernel_clone: true,
            deterministic_ipc: true,
        }
    }

    /// Everything off — a conventional kernel with memory protection only.
    pub fn off() -> Self {
        TimeProtConfig {
            colouring: false,
            flush_on_switch: false,
            flush_llc_on_switch: false,
            pad_switch: false,
            irq_partition: false,
            kernel_clone: false,
            deterministic_ipc: false,
        }
    }

    /// The seven mechanism switches as one word, one bit per flag in
    /// declaration order — a leaf of the proof cache's content hash.
    pub fn bits(&self) -> u64 {
        [
            self.colouring,
            self.flush_on_switch,
            self.flush_llc_on_switch,
            self.pad_switch,
            self.irq_partition,
            self.kernel_clone,
            self.deterministic_ipc,
        ]
        .iter()
        .fold(0u64, |acc, &b| acc << 1 | b as u64)
    }

    /// Full protection with one named mechanism disabled (ablation, E11).
    pub fn full_without(mechanism: Mechanism) -> Self {
        let mut c = TimeProtConfig::full();
        match mechanism {
            Mechanism::Colouring => c.colouring = false,
            Mechanism::Flush => c.flush_on_switch = false,
            Mechanism::Padding => c.pad_switch = false,
            Mechanism::IrqPartition => c.irq_partition = false,
            Mechanism::KernelClone => c.kernel_clone = false,
            Mechanism::DeterministicIpc => c.deterministic_ipc = false,
        }
        c
    }
}

/// The individual §4 mechanisms, for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// LLC partitioning by page colouring.
    Colouring,
    /// Core-local flush on domain switch.
    Flush,
    /// Padded, constant-time domain switch.
    Padding,
    /// Interrupt partitioning and masking.
    IrqPartition,
    /// Per-domain kernel image.
    KernelClone,
    /// Cock-et-al. minimum-time IPC delivery.
    DeterministicIpc,
}

impl Mechanism {
    /// All mechanisms in a fixed order.
    pub const ALL: [Mechanism; 6] = [
        Mechanism::Colouring,
        Mechanism::Flush,
        Mechanism::Padding,
        Mechanism::IrqPartition,
        Mechanism::KernelClone,
        Mechanism::DeterministicIpc,
    ];
}

/// Specification of one domain at system-build time.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Time-slice length.
    pub slice: Cycles,
    /// Switch padding budget (see [`crate::domain::Domain::pad`]).
    pub pad: Cycles,
    /// Interrupt lines owned by this domain.
    pub irq_lines: Vec<u8>,
    /// Pages of private code mapped at [`crate::layout::CODE_BASE`].
    pub code_pages: u64,
    /// Pages of private data mapped at [`crate::layout::DATA_BASE`].
    pub data_pages: u64,
    /// The program to run.
    pub program: Box<dyn Program>,
    /// Optional interim process run during this domain's switch padding
    /// (§4.3). `None` = busy-loop padding.
    pub pad_filler: Option<Box<dyn Program>>,
    /// Preemption margin for the filler (how long before the pad target
    /// it must stop). Ignored without a filler.
    pub filler_margin: Cycles,
}

impl DomainSpec {
    /// A spec with sensible defaults around `program`.
    pub fn new(program: Box<dyn Program>) -> Self {
        DomainSpec {
            slice: Cycles(20_000),
            pad: Cycles(30_000),
            irq_lines: Vec::new(),
            code_pages: 4,
            data_pages: 16,
            program,
            pad_filler: None,
            filler_margin: Cycles(15_000),
        }
    }

    /// Builder-style interim-process installation (§4.3).
    pub fn with_pad_filler(mut self, filler: Box<dyn Program>, margin: Cycles) -> Self {
        self.pad_filler = Some(filler);
        self.filler_margin = margin;
        self
    }

    /// Builder-style slice override.
    pub fn with_slice(mut self, slice: Cycles) -> Self {
        self.slice = slice;
        self
    }

    /// Builder-style pad override.
    pub fn with_pad(mut self, pad: Cycles) -> Self {
        self.pad = pad;
        self
    }

    /// Builder-style data-size override.
    pub fn with_data_pages(mut self, pages: u64) -> Self {
        self.data_pages = pages;
        self
    }

    /// Builder-style code-size override. Smaller code warms the L1I
    /// sooner (the PC wraps within the code window).
    pub fn with_code_pages(mut self, pages: u64) -> Self {
        self.code_pages = pages;
        self
    }

    /// Builder-style IRQ-line assignment.
    pub fn with_irq_lines(mut self, lines: Vec<u8>) -> Self {
        self.irq_lines = lines;
        self
    }

    /// Content hash of everything that shapes this domain's behaviour,
    /// or `None` when its program (or pad filler) cannot fingerprint
    /// itself ([`Program::content_fingerprint`]). The fields go into one
    /// [`WordFold`] in a fixed order, the IRQ-line list after its length
    /// and the optional filler after a presence word, so the word
    /// sequence determines the spec (swapping `slice` and `pad` values,
    /// say, changes it).
    pub fn content_fingerprint(&self) -> Option<u64> {
        let mut f = WordFold::new(DOMAIN_SPEC_TAG);
        f.push(self.slice.0);
        f.push(self.pad.0);
        f.push(self.irq_lines.len() as u64);
        for &line in &self.irq_lines {
            f.push(line as u64);
        }
        f.push(self.code_pages);
        f.push(self.data_pages);
        f.push(self.program.content_fingerprint()?);
        match &self.pad_filler {
            None => f.push(0),
            Some(p) => {
                f.push(1);
                f.push(p.content_fingerprint()?);
            }
        }
        f.push(self.filler_margin.0);
        Some(f.finish())
    }
}

/// Full kernel configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// The domains, scheduled round-robin in index order.
    pub domains: Vec<DomainSpec>,
    /// Endpoint table.
    pub endpoints: Vec<EndpointSpec>,
    /// Active time-protection mechanisms.
    pub tp: TimeProtConfig,
    /// Whether a `Send` to an endpoint with a blocked receiver switches
    /// domains immediately (the Figure-1 pipeline structure). When off,
    /// domains only switch on the preemption timer.
    pub ipc_switch: bool,
    /// Number of LLC colours reserved for the kernel (global data and
    /// the shared image) when colouring is on.
    pub kernel_colours: usize,
}

impl KernelConfig {
    /// A config over `domains` with full time protection.
    pub fn new(domains: Vec<DomainSpec>) -> Self {
        KernelConfig {
            domains,
            endpoints: Vec::new(),
            tp: TimeProtConfig::full(),
            ipc_switch: false,
            kernel_colours: 4,
        }
    }

    /// Builder-style protection override.
    pub fn with_tp(mut self, tp: TimeProtConfig) -> Self {
        self.tp = tp;
        self
    }

    /// Builder-style endpoint table.
    pub fn with_endpoints(mut self, endpoints: Vec<EndpointSpec>) -> Self {
        self.endpoints = endpoints;
        self
    }

    /// Builder-style IPC-switching toggle.
    pub fn with_ipc_switch(mut self, on: bool) -> Self {
        self.ipc_switch = on;
        self
    }

    /// Content hash of the whole kernel configuration — domains (with
    /// their programs), endpoint thresholds, protection switches,
    /// IPC-switch policy and kernel colours — or `None` if any program
    /// is unfingerprintable. Two configurations with equal fingerprints
    /// build behaviourally identical systems, which is the invariant
    /// the proof cache's content addressing rests on.
    pub fn content_fingerprint(&self) -> Option<u64> {
        let mut f = WordFold::new(KERNEL_CONFIG_TAG);
        f.push(self.domains.len() as u64);
        for d in &self.domains {
            f.push(d.content_fingerprint()?);
        }
        f.push(self.endpoints.len() as u64);
        for ep in &self.endpoints {
            match ep.min_delivery {
                None => f.push(0),
                Some(c) => {
                    f.push(1);
                    f.push(c.0);
                }
            }
        }
        f.push(self.tp.bits());
        f.push(self.ipc_switch as u64);
        f.push(self.kernel_colours as u64);
        Some(f.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::IdleProgram;

    #[test]
    fn full_without_disables_exactly_one() {
        for m in Mechanism::ALL {
            let c = TimeProtConfig::full_without(m);
            assert_ne!(c, TimeProtConfig::full());
            let flags = |c: TimeProtConfig| {
                [
                    c.colouring,
                    c.flush_on_switch,
                    c.pad_switch,
                    c.irq_partition,
                    c.kernel_clone,
                    c.deterministic_ipc,
                ]
            };
            let diff = flags(c)
                .iter()
                .zip(flags(TimeProtConfig::full()).iter())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diff, 1, "exactly one flag differs for {m:?}");
        }
    }

    #[test]
    fn builders_compose() {
        let spec = DomainSpec::new(Box::new(IdleProgram))
            .with_slice(Cycles(5000))
            .with_pad(Cycles(100))
            .with_data_pages(2)
            .with_irq_lines(vec![4]);
        assert_eq!(spec.slice, Cycles(5000));
        assert_eq!(spec.pad, Cycles(100));
        assert_eq!(spec.data_pages, 2);
        assert_eq!(spec.irq_lines, vec![4]);
        let cfg = KernelConfig::new(vec![spec])
            .with_tp(TimeProtConfig::off())
            .with_ipc_switch(true);
        assert!(cfg.ipc_switch);
        assert_eq!(cfg.tp, TimeProtConfig::off());
    }

    #[test]
    fn kernel_fingerprint_tracks_every_field() {
        let base = || KernelConfig::new(vec![DomainSpec::new(Box::new(IdleProgram))]);
        let fp = |c: &KernelConfig| c.content_fingerprint().unwrap();
        assert_eq!(fp(&base()), fp(&base()), "equal configs hash equally");

        let mut tweaked: Vec<KernelConfig> = vec![
            base().with_tp(TimeProtConfig::off()),
            base().with_ipc_switch(true),
            base().with_endpoints(vec![EndpointSpec { min_delivery: None }]),
            base().with_endpoints(vec![EndpointSpec {
                min_delivery: Some(Cycles(100)),
            }]),
        ];
        let mut c = base();
        c.kernel_colours = 5;
        tweaked.push(c);
        let mut c = base();
        c.domains[0].slice = Cycles(c.domains[0].slice.0 + 1);
        tweaked.push(c);
        let mut c = base();
        c.domains[0].pad = Cycles(c.domains[0].pad.0 + 1);
        tweaked.push(c);
        let mut c = base();
        c.domains[0].irq_lines.push(3);
        tweaked.push(c);
        let mut c = base();
        c.domains[0].data_pages += 1;
        tweaked.push(c);
        let mut c = base();
        c.domains[0].program = Box::new(crate::program::TraceProgram::new(vec![]));
        tweaked.push(c);
        for m in Mechanism::ALL {
            tweaked.push(base().with_tp(TimeProtConfig::full_without(m)));
        }
        let reference = fp(&base());
        let mut seen = std::collections::BTreeSet::from([reference]);
        for t in &tweaked {
            let f = fp(t);
            assert_ne!(f, reference, "perturbation must change the hash: {t:?}");
            assert!(
                seen.insert(f),
                "distinct perturbations must not collide: {t:?}"
            );
        }
    }

    /// One unfingerprintable program poisons the whole configuration —
    /// the cache must treat such cells as uncacheable, never guess.
    #[test]
    fn opaque_programs_make_configs_unfingerprintable() {
        #[derive(Debug, Clone)]
        struct Opaque;
        impl Program for Opaque {
            fn next(&mut self, _: &crate::program::StepFeedback) -> crate::program::Instr {
                crate::program::Instr::Halt
            }
        }
        let cfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram)),
            DomainSpec::new(Box::new(Opaque)),
        ]);
        assert_eq!(cfg.content_fingerprint(), None);
        let filler =
            DomainSpec::new(Box::new(IdleProgram)).with_pad_filler(Box::new(Opaque), Cycles(10));
        assert_eq!(KernelConfig::new(vec![filler]).content_fingerprint(), None);
    }
}

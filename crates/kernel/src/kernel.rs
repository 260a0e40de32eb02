//! The kernel proper: scheduling, trap handling, domain switches with
//! flush + padding, IPC, and interrupt partitioning.
//!
//! [`System`] composes a [`Machine`] with a [`Kernel`] and exposes a
//! single-step interpreter. Each step is one of the paper's §5.2 cases:
//!
//! * **Case 1** — an ordinary user-mode instruction: fetched and executed
//!   through the modelled hierarchy, its cost a function of the domain's
//!   own partition (when protection is on).
//! * **Case 2a** — a trap (syscall/fault): the kernel's deterministic
//!   footprint is charged against the current domain's kernel image.
//! * **Case 2b** — preemption-timer expiry: the padded domain switch.
//!
//! The kernel never branches on ghost state or on another domain's
//! secrets; all cross-domain influence flows through the modelled
//! hardware, which is exactly what the proof harness then audits.

use crate::colour::{AllocError, ColourAllocator};
use crate::config::{KernelConfig, TimeProtConfig};
use crate::domain::{DomState, Domain, DomainId, ObsEvent, ObsSink, Observation};
use crate::ipc::{Endpoint, QueuedMsg};
use crate::kclone::{
    GlobalKernelData, KAccess, KernelImage, KernelOp, SyscallKind, KDATA_FRAMES, KGLOBAL_FRAMES,
    KTEXT_FRAMES,
};
use crate::layout::{CODE_VPN, DATA_VPN};
use crate::program::{Instr, IpcDelivery, Program, StepFeedback, SyscallReq};
use crate::vspace::{MapError, Mapping, VSpace};
use tp_hw::irq::{NUM_LINES, TIMER_LINE};
use tp_hw::machine::{Machine, MachineConfig};
use tp_hw::types::{Asid, Colour, CoreId, Cycles, DomainTag, VAddr, PAGE_SIZE};

/// The modelled idle tick: while the current domain is halted or
/// blocked, each step advances the clock by at most this many cycles,
/// the last tick of a wait shortened to land exactly on the next instant
/// that matters (the deadline or a message-ready time). It is the
/// model's granularity, counted in steps and `max_steps`, not the driver
/// loop's: [`System::advance`] takes a whole run of ticks in one call.
const IDLE_QUANTUM: u64 = 64;

/// Errors during system construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// No domains were specified.
    NoDomains,
    /// Frame allocation failed.
    Alloc(AllocError),
    /// Page mapping failed.
    Map(MapError),
    /// Two domains claim the same interrupt line.
    IrqConflict {
        /// The contested line.
        line: u8,
    },
    /// A domain claims the preemption-timer line.
    TimerLineReserved,
    /// A domain claims a line the interrupt controller does not have.
    IrqLineOutOfRange {
        /// The claimed line (at least `tp_hw::irq::NUM_LINES`).
        line: u8,
    },
    /// More domains than available colours.
    TooManyDomains {
        /// Domains requested.
        domains: usize,
        /// Colours available for domains.
        colours: usize,
    },
}

impl From<AllocError> for KernelError {
    fn from(e: AllocError) -> Self {
        KernelError::Alloc(e)
    }
}

impl From<MapError> for KernelError {
    fn from(e: MapError) -> Self {
        KernelError::Map(e)
    }
}

/// Why a domain switch happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// Preemption-timer expiry (Case 2b).
    Timer,
    /// IPC send woke a blocked receiver (pipeline mode).
    Ipc,
    /// The running domain yielded.
    Yield,
}

/// A record of one domain switch, consumed by the padding-correctness
/// obligation (T) in `tp-core` and by experiment E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Switched-from domain.
    pub from: DomainId,
    /// Switched-to domain.
    pub to: DomainId,
    /// Why the switch happened.
    pub reason: SwitchReason,
    /// The switched-from domain's slice start.
    pub slice_start: Cycles,
    /// When the kernel began processing the switch.
    pub kernel_entered_at: Cycles,
    /// The padded start target (`slice_start + slice + pad`, or the IPC
    /// minimum-delivery target). Meaningful even when padding is off —
    /// it is what padding *would* have enforced.
    pub target: Cycles,
    /// When the next domain actually started.
    pub completed_at: Cycles,
    /// Whether padding was applied.
    pub padded: bool,
    /// Cycles by which the switch overran `target` (a pad-budget
    /// violation when padding is on).
    pub overrun: Option<Cycles>,
    /// Dirty lines written back by the switch flush (E4's channel input).
    pub flush_writebacks: usize,
}

/// What one [`System::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A user instruction retired (Case 1).
    Instr {
        /// The executing domain.
        domain: DomainId,
    },
    /// A syscall was handled (Case 2a).
    Syscall {
        /// The calling domain.
        domain: DomainId,
    },
    /// A fault was delivered to the program.
    Fault {
        /// The faulting domain.
        domain: DomainId,
    },
    /// A domain switch completed (Case 2b or IPC).
    Switched {
        /// Switched-from domain.
        from: DomainId,
        /// Switched-to domain.
        to: DomainId,
        /// Why.
        reason: SwitchReason,
    },
    /// A device interrupt was dispatched during the current domain.
    IrqHandled {
        /// The line that fired.
        line: u8,
    },
    /// A blocked IPC receive completed.
    IpcDelivered {
        /// The receiving domain.
        domain: DomainId,
    },
    /// The current domain is blocked or halted; time idled forward by
    /// one tick per step ([`System::advance`] reports a run of them as
    /// one event and its length).
    IdleTick,
}

/// The kernel state.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Active time-protection mechanisms.
    pub tp: TimeProtConfig,
    /// IPC-driven switching (Figure-1 pipeline mode).
    pub ipc_switch: bool,
    /// The domains, scheduled round-robin in index order.
    pub domains: Vec<Domain>,
    /// Endpoint table.
    pub endpoints: Vec<Endpoint>,
    /// Kernel images; index 0 is the shared image, clones follow.
    pub images: Vec<KernelImage>,
    /// Global (never cloned) kernel data.
    pub global: GlobalKernelData,
    /// Currently executing domain.
    pub current: DomainId,
    /// Clock value at which the current slice started.
    pub slice_start: Cycles,
    /// Preemption deadline of the current slice.
    pub deadline: Cycles,
    /// Log of all switches (obligation T's evidence).
    pub switch_log: Vec<SwitchRecord>,
    /// Count of pad-budget violations.
    pub pad_overruns: u64,
    /// `IoSubmit` calls denied by interrupt partitioning.
    pub io_denied: u64,
    /// Cycles reclaimed by interim-process padding (§4.3).
    pub filler_cycles_recovered: u64,
    /// The core this kernel schedules (single-core kernel instance).
    pub core: CoreId,
    /// Colour sets: `colour_assignment[d]` is domain `d`'s colours.
    pub colour_assignment: Vec<Vec<Colour>>,
    /// Colours reserved for the kernel.
    pub kernel_colours: Vec<Colour>,
    /// Frame allocator (retained for dynamic map/unmap).
    pub allocator: ColourAllocator,
    /// IRQ line ownership.
    irq_owner: [Option<DomainId>; NUM_LINES as usize],
    /// Scratch buffer for kernel-footprint charging: reused across
    /// every `charge_kernel` call instead of collecting a fresh vector
    /// per kernel entry. Always empty between steps.
    kaccess_scratch: Vec<KAccess>,
}

impl Kernel {
    /// The owner of interrupt `line`, if assigned (`None` for a line
    /// the interrupt controller does not have).
    pub fn irq_owner(&self, line: u8) -> Option<DomainId> {
        self.irq_owner.get(line as usize).copied().flatten()
    }

    /// The enable mask appropriate for `d` under the current policy.
    fn irq_mask_for(&self, d: DomainId) -> u64 {
        if self.tp.irq_partition {
            let mut m = 1u64 << TIMER_LINE;
            for line in &self.domains[d.0].irq_lines {
                m |= 1 << line;
            }
            m
        } else {
            u64::MAX
        }
    }
}

/// A machine plus a kernel scheduling its core 0.
#[derive(Debug, Clone)]
pub struct System {
    /// The modelled hardware.
    pub hw: Machine,
    /// The kernel.
    pub kernel: Kernel,
}

impl System {
    /// Build a system: allocate coloured memory, construct address
    /// spaces and kernel images, and install domain 0 as current.
    pub fn new(mcfg: MachineConfig, kcfg: KernelConfig) -> Result<Self, KernelError> {
        Self::from_parts(&mcfg, &kcfg)
    }

    /// [`System::new`] over borrowed configurations. Construction only
    /// reads them (programs are cloned in), so sweep drivers that fan a
    /// shared `Arc<KernelConfig>` across thousands of tasks build every
    /// system without cloning the configuration per run.
    pub fn from_parts(mcfg: &MachineConfig, kcfg: &KernelConfig) -> Result<Self, KernelError> {
        if kcfg.domains.is_empty() {
            return Err(KernelError::NoDomains);
        }
        let mut hw = Machine::new(mcfg.clone());
        let n = kcfg.domains.len();

        let llc_colours = hw.config().llc.map(|c| c.colours()).unwrap_or(1);
        let (kernel_colours, assignment): (Vec<Colour>, Vec<Vec<Colour>>) = if kcfg.tp.colouring {
            // The kernel keeps at least one colour for global data and
            // the shared image; every domain needs at least one of its
            // own. Too few colours means colouring cannot be deployed.
            if llc_colours < n + 1 {
                return Err(KernelError::TooManyDomains {
                    domains: n,
                    colours: llc_colours.saturating_sub(1),
                });
            }
            let kc = kcfg.kernel_colours.clamp(1, llc_colours - n);
            ColourAllocator::partition_colours(llc_colours, kc, n)
        } else {
            // No colouring: everyone draws from the full colour space.
            let all: Vec<Colour> = (0..llc_colours as u16).map(Colour).collect();
            (all.clone(), vec![all; n])
        };

        let mut alloc = ColourAllocator::new(hw.config().mem_frames, llc_colours, 0);

        // Global kernel data.
        let mut gframes = Vec::new();
        for _ in 0..KGLOBAL_FRAMES {
            let f = alloc.alloc_any(&mut hw.mem, &kernel_colours, DomainTag::KERNEL)?;
            hw.mem.frame_mut(f).kernel_image = true;
            gframes.push(f);
        }
        let global = GlobalKernelData::new(gframes);

        // Shared kernel image (image 0).
        let mut images = vec![Self::build_image(
            &mut alloc,
            &mut hw,
            &kernel_colours,
            DomainTag::KERNEL,
        )?];

        // Domains.
        let mut domains = Vec::with_capacity(n);
        let mut irq_owner = [None; NUM_LINES as usize];
        for (i, spec) in kcfg.domains.iter().enumerate() {
            let id = DomainId(i);
            let tag = id.tag();
            let colours = &assignment[i];

            for &line in &spec.irq_lines {
                if line == TIMER_LINE {
                    return Err(KernelError::TimerLineReserved);
                }
                if line >= NUM_LINES {
                    return Err(KernelError::IrqLineOutOfRange { line });
                }
                if irq_owner[line as usize].is_some() {
                    return Err(KernelError::IrqConflict { line });
                }
                irq_owner[line as usize] = Some(id);
            }

            // Address space: root table + code + data windows.
            let root = alloc.alloc_any(&mut hw.mem, colours, tag)?;
            let mut vspace = VSpace::new(Asid(i as u16 + 1), root);
            let map_window = |vspace: &mut VSpace,
                              alloc: &mut ColourAllocator,
                              hw: &mut Machine,
                              base_vpn: u64,
                              pages: u64,
                              writable: bool|
             -> Result<(), KernelError> {
                for p in 0..pages {
                    let vpn = base_vpn + p;
                    let frame = alloc.alloc_any(&mut hw.mem, colours, tag)?;
                    let table = if vspace.has_leaf_for(vpn) {
                        None
                    } else {
                        Some(alloc.alloc_any(&mut hw.mem, colours, tag)?)
                    };
                    vspace.map(
                        vpn,
                        Mapping {
                            pfn: frame,
                            writable,
                            global: false,
                        },
                        table,
                    )?;
                }
                Ok(())
            };
            map_window(
                &mut vspace,
                &mut alloc,
                &mut hw,
                CODE_VPN,
                spec.code_pages,
                false,
            )?;
            map_window(
                &mut vspace,
                &mut alloc,
                &mut hw,
                DATA_VPN,
                spec.data_pages,
                true,
            )?;

            // Kernel image: cloned into the domain's colours, or shared.
            let kimage = if kcfg.tp.kernel_clone {
                images.push(Self::build_image(&mut alloc, &mut hw, colours, tag)?);
                images.len() - 1
            } else {
                0
            };

            domains.push(Domain {
                id,
                asid: Asid(i as u16 + 1),
                vspace,
                kimage,
                colours: colours.clone(),
                slice: spec.slice,
                pad: spec.pad,
                irq_lines: spec.irq_lines.clone(),
                program: spec.program.clone(),
                pad_filler: spec.pad_filler.clone(),
                filler_margin: spec.filler_margin,
                pc: crate::layout::CODE_BASE,
                state: DomState::Runnable,
                feedback: StepFeedback::default(),
                obs: ObsSink::default(),
                code_bytes: (spec.code_pages * PAGE_SIZE).max(PAGE_SIZE),
                retired: 0,
            });
        }

        let endpoints = kcfg.endpoints.iter().map(|s| Endpoint::new(*s)).collect();

        let deadline = domains[0].slice;
        let kernel = Kernel {
            tp: kcfg.tp,
            ipc_switch: kcfg.ipc_switch,
            domains,
            endpoints,
            images,
            global,
            current: DomainId(0),
            slice_start: Cycles::ZERO,
            deadline,
            switch_log: Vec::new(),
            pad_overruns: 0,
            io_denied: 0,
            filler_cycles_recovered: 0,
            core: CoreId(0),
            colour_assignment: assignment,
            kernel_colours,
            allocator: alloc,
            irq_owner,
            kaccess_scratch: Vec::new(),
        };
        let mask = kernel.irq_mask_for(DomainId(0));
        let mut sys = System { hw, kernel };
        sys.hw.irq.set_enabled_mask(mask);
        Ok(sys)
    }

    fn build_image(
        alloc: &mut ColourAllocator,
        hw: &mut Machine,
        colours: &[Colour],
        owner: DomainTag,
    ) -> Result<KernelImage, KernelError> {
        let mut text = Vec::new();
        let mut data = Vec::new();
        for _ in 0..KTEXT_FRAMES {
            let f = alloc.alloc_any(&mut hw.mem, colours, owner)?;
            hw.mem.frame_mut(f).kernel_image = true;
            text.push(f);
        }
        for _ in 0..KDATA_FRAMES {
            let f = alloc.alloc_any(&mut hw.mem, colours, owner)?;
            hw.mem.frame_mut(f).kernel_image = true;
            data.push(f);
        }
        Ok(KernelImage::new(text, data))
    }

    /// Replace domain `d`'s program, leaving every other piece of state
    /// untouched. Only sound on a pristine system (no steps taken yet):
    /// construction never looks at program *content*, so a fresh system
    /// with a swapped program is indistinguishable from one built with
    /// that program in its [`KernelConfig`]. [`SystemTemplate`] builds
    /// on this to amortise construction across many runs.
    pub fn replace_program(&mut self, d: DomainId, program: Box<dyn Program>) {
        let dom = &mut self.kernel.domains[d.0];
        debug_assert_eq!(
            dom.retired, 0,
            "replace_program is only sound before the system has stepped"
        );
        dom.program = program;
    }

    /// The observation log of `d`. Panics when `d`'s sink is
    /// digest-only — use [`System::observation_opt`] (or the digest
    /// accessors) on systems that might run trace-free.
    pub fn observation(&self, d: DomainId) -> &Observation {
        self.observation_opt(d)
            .expect("observation() needs a recording sink; this system runs digest-only")
    }

    /// The observation log of `d`, if its sink retains one.
    pub fn observation_opt(&self, d: DomainId) -> Option<&Observation> {
        self.kernel.domains[d.0].obs.observation()
    }

    /// Number of events `d` has observed (works under any sink).
    pub fn obs_len(&self, d: DomainId) -> usize {
        self.kernel.domains[d.0].obs.len()
    }

    /// Rolling digest of `d`'s observation log (works under any sink;
    /// equals `obs_digest` of the recorded events when recording).
    pub fn obs_digest(&self, d: DomainId) -> u64 {
        self.kernel.domains[d.0].obs.digest()
    }

    /// Take `d`'s recorded event buffer out of the system (leaving the
    /// sink empty), if its sink retains one — the allocation-reuse exit
    /// of a recording run that is about to be dropped.
    pub fn take_observation(&mut self, d: DomainId) -> Option<Vec<ObsEvent>> {
        self.kernel.domains[d.0].obs.take_events()
    }

    /// Replace domain `d`'s observation sink. Only sound before the
    /// domain has observed anything: events already in the old sink are
    /// discarded, so swapping mid-run would rewrite history.
    pub fn set_obs_sink(&mut self, d: DomainId, sink: ObsSink) {
        let dom = &mut self.kernel.domains[d.0];
        debug_assert!(
            dom.obs.is_empty(),
            "set_obs_sink is only sound before the domain has observed anything"
        );
        dom.obs = sink;
    }

    /// Switch every domain to a digest-only sink: the trace-free proof
    /// hot path. Only sound on a pristine system (see
    /// [`System::set_obs_sink`]); sinks never influence execution, so a
    /// digest-only run's machine behaviour is bit-identical to a
    /// recording run's.
    pub fn use_digest_sinks(&mut self) {
        for i in 0..self.kernel.domains.len() {
            self.set_obs_sink(DomainId(i), ObsSink::digest_only());
        }
    }

    /// Whether every domain has halted.
    pub fn all_halted(&self) -> bool {
        self.kernel
            .domains
            .iter()
            .all(|d| matches!(d.state, DomState::Halted))
    }

    /// Current clock of the scheduled core.
    pub fn now(&self) -> Cycles {
        self.hw.now(self.kernel.core)
    }

    /// Run `n` steps; returns the events.
    pub fn run_steps(&mut self, n: usize) -> Vec<StepEvent> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Run until the clock passes `budget` cycles (or `max_steps` as a
    /// safety net). Returns the number of steps taken, idle ticks
    /// included, exactly as a loop of [`System::step`] would count them.
    pub fn run_cycles(&mut self, budget: Cycles, max_steps: usize) -> usize {
        let mut steps = 0;
        while self.now().0 < budget.0 && steps < max_steps {
            steps += self.advance(budget, max_steps - steps).1;
        }
        steps
    }

    /// Execute one step of the system: [`System::advance`] with no
    /// budget and a limit of one, so a waiting domain takes a single
    /// idle tick of at most 64 cycles.
    pub fn step(&mut self) -> StepEvent {
        self.advance(Cycles(u64::MAX), 1).0
    }

    /// Execute one step, or, while the current domain is halted or
    /// blocked, a maximal run of at most `limit` idle ticks computed in
    /// O(1). Returns the step's event and how many steps it stands for.
    ///
    /// A run is exactly what that many [`System::step`] calls would do:
    /// between its first and last tick nothing but the clock changes,
    /// because no later tick starts at or after the deadline, the blocked
    /// receiver's message-ready time, the earliest armed device timer
    /// ([`tp_hw::irq::IrqController::next_fire`]) or `budget`. Drivers
    /// that count steps (`max_steps`, periodic checks) pass what is left
    /// before their next count boundary as `limit`; a step is always
    /// taken, so a `limit` of 0 acts as 1.
    pub fn advance(&mut self, budget: Cycles, limit: usize) -> (StepEvent, usize) {
        let core = self.kernel.core;
        let now = self.hw.now(core);

        // Case 2b: preemption due?
        if now.0 >= self.kernel.deadline.0 {
            let (from, to) = self.switch_domain(SwitchReason::Timer, None);
            let ev = StepEvent::Switched {
                from,
                to,
                reason: SwitchReason::Timer,
            };
            return (ev, 1);
        }

        // Device interrupts (the timer is modelled by the deadline check).
        if let Some(p) = self.hw.poll_irq(core) {
            if p.line != TIMER_LINE {
                self.hw.irq.ack(p.line);
                self.hw.charge_irq_entry(core);
                self.charge_kernel(KernelOp::Entry);
                self.charge_kernel(KernelOp::IrqDispatch);
                return (StepEvent::IrqHandled { line: p.line }, 1);
            }
            self.hw.irq.ack(TIMER_LINE);
        }

        let cur = self.kernel.current;
        match self.kernel.domains[cur.0].state {
            DomState::Halted => (StepEvent::IdleTick, self.idle_run(budget, limit)),
            DomState::BlockedRecv { ep } => {
                let now = self.hw.now(core);
                let msg = self.kernel.endpoints[ep].take_deliverable(now);
                match msg {
                    Some(m) => {
                        self.kernel.endpoints[ep].take_waiting();
                        self.deliver_ipc(cur, m);
                        (StepEvent::IpcDelivered { domain: cur }, 1)
                    }
                    None => (StepEvent::IdleTick, self.idle_run(budget, limit)),
                }
            }
            DomState::Runnable => (self.exec_instr(cur), 1),
        }
    }

    /// Idle the current (halted or blocked) domain forward by a run of
    /// `1..=limit` ticks and return its length. Each tick aims at the next
    /// instant that matters — the deadline, or a blocked receiver's
    /// message-ready time before it — and advances at most
    /// [`IDLE_QUANTUM`] cycles, so ticks start at `now`, `now + Q`,
    /// `now + 2Q`, … and the run ends on `now + n·Q` or the target,
    /// whichever is earlier.
    ///
    /// The first tick follows this step's deadline, IRQ and endpoint
    /// checks. A later tick repeats them unchanged only while it starts
    /// before the target, before `budget` and before the earliest armed
    /// device timer fires, and while no enabled interrupt is left pending
    /// (acking the timer line can leave one), so the run ends where the
    /// step-by-step loop would first do something else.
    fn idle_run(&mut self, budget: Cycles, limit: usize) -> usize {
        let core = self.kernel.core;
        let now = self.hw.now(core).0;
        let mut target = self.kernel.deadline.0;
        if let DomState::BlockedRecv { ep } = self.kernel.domains[self.kernel.current.0].state {
            if let Some(r) = self.kernel.endpoints[ep].next_ready_at() {
                if r.0 > now && r.0 < target {
                    target = r.0;
                }
            }
        }
        let ticks = if self.hw.irq.highest_pending().is_some() {
            1
        } else {
            let mut stop = target.min(budget.0);
            if let Some(fire) = self.hw.irq.next_fire() {
                stop = stop.min(fire.0);
            }
            stop.saturating_sub(now)
                .div_ceil(IDLE_QUANTUM)
                .min(limit as u64)
                .max(1)
        };
        let until = now
            .saturating_add(ticks.saturating_mul(IDLE_QUANTUM))
            .min(target);
        self.hw.compute(core, until - now);
        ticks as usize
    }

    /// Deliver a message into a blocked receiver.
    fn deliver_ipc(&mut self, d: DomainId, m: QueuedMsg) {
        self.charge_kernel(KernelOp::Entry);
        self.charge_kernel(KernelOp::Syscall(SyscallKind::Recv));
        let at = self.hw.now(self.kernel.core);
        let dom = &mut self.kernel.domains[d.0];
        dom.state = DomState::Runnable;
        dom.feedback.ipc = Some(IpcDelivery { msg: m.msg, at });
        dom.obs.record(ObsEvent::IpcRecv { msg: m.msg, at });
    }

    /// Charge the kernel's deterministic footprint for `op`, using the
    /// current domain's kernel image plus global data. Ghost line
    /// ownership follows frame ownership, so cloned-image lines count as
    /// the domain's for the partitioning invariant.
    fn charge_kernel(&mut self, op: KernelOp) {
        let core = self.kernel.core;
        let img = self.kernel.domains[self.kernel.current.0].kimage;
        // One scratch buffer reused across every kernel entry: footprints
        // are written into it in place of three per-op allocations.
        let mut accesses = core::mem::take(&mut self.kernel.kaccess_scratch);
        accesses.clear();
        self.kernel.images[img].footprint_into(op, &mut accesses);
        self.kernel.global.footprint_into(op, &mut accesses);
        for k in &accesses {
            let owner = self.hw.mem.owner_of(k.paddr).unwrap_or(DomainTag::KERNEL);
            // Kernel frames are always in modelled memory by construction.
            let _ = self.hw.access_phys(core, k.paddr, k.write, k.fetch, owner);
        }
        accesses.clear();
        self.kernel.kaccess_scratch = accesses;
    }

    /// Execute one user instruction of `d` (Case 1, possibly trapping
    /// into Case 2a).
    fn exec_instr(&mut self, d: DomainId) -> StepEvent {
        let core = self.kernel.core;

        // Fetch. A fetch fault halts the domain (it cannot make progress).
        {
            let dom = &mut self.kernel.domains[d.0];
            let pc = dom.pc;
            let asid = dom.asid;
            let tag = dom.id.tag();
            if let Err(_f) = self.hw.fetch_virt(core, asid, pc, &dom.vspace, tag) {
                dom.state = DomState::Halted;
                dom.obs.record(ObsEvent::Fault);
                dom.obs.record(ObsEvent::Halted);
                return StepEvent::Fault { domain: d };
            }
        }

        // Ask the program for the next instruction.
        let instr = {
            let dom = &mut self.kernel.domains[d.0];
            let fb = core::mem::take(&mut dom.feedback);
            dom.program.next(&fb)
        };

        // Advance the PC (wrapping within the code window so linear
        // programs never run off their text; branches override). The
        // window size is cached on the domain — map/unmap keep it in
        // sync — so the fetch path never walks the page-table map.
        let code_bytes = self.kernel.domains[d.0].code_bytes;
        let bump_pc = |dom: &mut Domain| {
            let off = (dom.pc.0 + 4 - crate::layout::CODE_BASE.0) % code_bytes;
            dom.pc = VAddr(crate::layout::CODE_BASE.0 + off);
        };

        let tag = d.tag();
        let asid = self.kernel.domains[d.0].asid;
        match instr {
            Instr::Load(va) | Instr::Store(va) => {
                let write = matches!(instr, Instr::Store(_));
                let res = {
                    let dom = &self.kernel.domains[d.0];
                    self.hw.access_virt(core, asid, va, write, &dom.vspace, tag)
                };
                let dom = &mut self.kernel.domains[d.0];
                if let Err(f) = res {
                    dom.feedback.fault = Some(f);
                    dom.obs.record(ObsEvent::Fault);
                    bump_pc(dom);
                    dom.retired += 1;
                    return StepEvent::Fault { domain: d };
                }
                bump_pc(dom);
                dom.retired += 1;
                StepEvent::Instr { domain: d }
            }
            Instr::Branch { taken, target } => {
                let pc = self.kernel.domains[d.0].pc;
                self.hw.branch(core, pc, taken, target, tag);
                let dom = &mut self.kernel.domains[d.0];
                if taken {
                    dom.pc = target;
                } else {
                    bump_pc(dom);
                }
                dom.retired += 1;
                StepEvent::Instr { domain: d }
            }
            Instr::Compute(u) => {
                self.hw.compute(core, u);
                let dom = &mut self.kernel.domains[d.0];
                bump_pc(dom);
                dom.retired += 1;
                StepEvent::Instr { domain: d }
            }
            Instr::ReadClock => {
                let t = self.hw.read_clock(core);
                let dom = &mut self.kernel.domains[d.0];
                dom.feedback.clock = Some(t);
                dom.obs.record(ObsEvent::Clock(t));
                bump_pc(dom);
                dom.retired += 1;
                StepEvent::Instr { domain: d }
            }
            Instr::Halt => {
                let dom = &mut self.kernel.domains[d.0];
                dom.state = DomState::Halted;
                dom.obs.record(ObsEvent::Halted);
                StepEvent::Instr { domain: d }
            }
            Instr::Syscall(req) => {
                let dom = &mut self.kernel.domains[d.0];
                bump_pc(dom);
                dom.retired += 1;
                self.handle_syscall(d, req)
            }
        }
    }

    /// Case 2a: the kernel path for a syscall.
    fn handle_syscall(&mut self, d: DomainId, req: SyscallReq) -> StepEvent {
        self.charge_kernel(KernelOp::Entry);
        self.charge_kernel(KernelOp::Syscall(SyscallKind::of(&req)));
        let core = self.kernel.core;

        match req {
            SyscallReq::Null => StepEvent::Syscall { domain: d },
            SyscallReq::MapPage { vpn } => {
                self.sys_map_page(d, vpn);
                StepEvent::Syscall { domain: d }
            }
            SyscallReq::UnmapPage { vpn } => {
                self.sys_unmap_page(d, vpn);
                StepEvent::Syscall { domain: d }
            }
            SyscallReq::Yield => {
                let (from, to) = self.switch_domain(SwitchReason::Yield, None);
                StepEvent::Switched {
                    from,
                    to,
                    reason: SwitchReason::Yield,
                }
            }
            SyscallReq::IoSubmit { line, delay } => {
                let allowed =
                    !self.kernel.tp.irq_partition || self.kernel.irq_owner(line) == Some(d);
                if allowed && line != TIMER_LINE && line < NUM_LINES {
                    let fire = Cycles(self.hw.now(core).0.saturating_add(delay));
                    self.hw.irq.arm_timer(line, fire);
                } else {
                    self.kernel.io_denied += 1;
                }
                StepEvent::Syscall { domain: d }
            }
            SyscallReq::Send { ep, msg } => {
                if ep >= self.kernel.endpoints.len() {
                    self.kernel.domains[d.0].feedback.fault = None;
                    return StepEvent::Syscall { domain: d };
                }
                let now = self.hw.now(core);
                let endpoint = &mut self.kernel.endpoints[ep];
                let ready_at = if self.kernel.tp.deterministic_ipc {
                    endpoint.send(msg, d, now, self.kernel.slice_start)
                } else {
                    endpoint.send_at(msg, d, now);
                    now
                };

                // Pipeline mode: wake the blocked receiver by switching.
                if self.kernel.ipc_switch {
                    if let Some(rx) = self.kernel.endpoints[ep].waiting() {
                        if rx != d {
                            let (from, to) =
                                self.switch_domain(SwitchReason::Ipc, Some((rx, ready_at)));
                            return StepEvent::Switched {
                                from,
                                to,
                                reason: SwitchReason::Ipc,
                            };
                        }
                    }
                }
                StepEvent::Syscall { domain: d }
            }
            SyscallReq::Recv { ep } => {
                if ep >= self.kernel.endpoints.len() {
                    return StepEvent::Syscall { domain: d };
                }
                let now = self.hw.now(core);
                if let Some(m) = self.kernel.endpoints[ep].take_deliverable(now) {
                    self.deliver_ipc(d, m);
                    StepEvent::IpcDelivered { domain: d }
                } else {
                    self.kernel.endpoints[ep].set_waiting(d);
                    self.kernel.domains[d.0].state = DomState::BlockedRecv { ep };
                    StepEvent::Syscall { domain: d }
                }
            }
        }
    }

    /// `MapPage`: back `vpn` with a fresh frame from the caller's own
    /// colours. Already-mapped pages and allocation failures are silent
    /// no-ops (the program discovers the outcome by accessing the page).
    fn sys_map_page(&mut self, d: DomainId, vpn: u64) {
        let k = &mut self.kernel;
        let dom = &mut k.domains[d.0];
        if dom.vspace.mapping(vpn).is_some() {
            return;
        }
        let colours = dom.colours.clone();
        let tag = d.tag();
        let Ok(frame) = k.allocator.alloc_any(&mut self.hw.mem, &colours, tag) else {
            return;
        };
        let table = if dom.vspace.has_leaf_for(vpn) {
            None
        } else {
            match k.allocator.alloc_any(&mut self.hw.mem, &colours, tag) {
                Ok(f) => Some(f),
                Err(_) => {
                    k.allocator.release(&mut self.hw.mem, frame);
                    return;
                }
            }
        };
        let mapped = dom.vspace.map(
            vpn,
            Mapping {
                pfn: frame,
                writable: true,
                global: false,
            },
            table,
        );
        if mapped.is_err() {
            k.allocator.release(&mut self.hw.mem, frame);
            if let Some(t) = table {
                k.allocator.release(&mut self.hw.mem, t);
            }
        } else if (CODE_VPN..CODE_VPN + 1024).contains(&vpn) {
            dom.recompute_code_bytes();
        }
    }

    /// `UnmapPage`: remove the mapping, return the frame to the caller's
    /// colour pool, and invalidate the TLB entry — the §5.3 consistency
    /// step without which a stale translation would survive.
    fn sys_unmap_page(&mut self, d: DomainId, vpn: u64) {
        let k = &mut self.kernel;
        let dom = &mut k.domains[d.0];
        if let Ok(m) = dom.vspace.unmap(vpn) {
            let asid = dom.asid;
            self.hw.cores[k.core.0]
                .tlb
                .invalidate_page(asid, VAddr(vpn << tp_hw::types::PAGE_BITS));
            k.allocator.release(&mut self.hw.mem, m.pfn);
            if (CODE_VPN..CODE_VPN + 1024).contains(&vpn) {
                dom.recompute_code_bytes();
            }
        }
    }

    /// Run the switched-from domain's interim process until
    /// `target - filler_margin` (§4.3). Only a restricted instruction
    /// set executes (memory, compute, branches); control instructions
    /// degrade to one-cycle no-ops. Cycles consumed are tallied in
    /// [`Kernel::filler_cycles_recovered`].
    fn run_pad_filler(&mut self, d: DomainId, target: Cycles) {
        let core = self.kernel.core;
        let margin = self.kernel.domains[d.0].filler_margin;
        let stop_at = target.saturating_sub(margin);
        let started = self.hw.now(core);
        let asid = self.kernel.domains[d.0].asid;
        let tag = d.tag();
        let fb = StepFeedback::default();
        while self.hw.now(core).0 < stop_at.0 {
            let dom = &mut self.kernel.domains[d.0];
            let filler = dom.pad_filler.as_mut().expect("checked by caller");
            let instr = filler.next(&fb);
            match instr {
                Instr::Load(va) | Instr::Store(va) => {
                    let write = matches!(instr, Instr::Store(_));
                    let dom = &self.kernel.domains[d.0];
                    // Faults in the filler are silently dropped: the
                    // interim process has no observer to report to.
                    let _ = self.hw.access_virt(core, asid, va, write, &dom.vspace, tag);
                }
                Instr::Compute(u) => {
                    self.hw.compute(core, u);
                }
                Instr::Branch { taken, target } => {
                    self.hw
                        .branch(core, crate::layout::CODE_BASE, taken, target, tag);
                }
                // No clock reads, syscalls or halting inside the pad:
                // these degrade to a cycle of compute.
                Instr::ReadClock | Instr::Syscall(_) | Instr::Halt => {
                    self.hw.compute(core, 1);
                }
            }
        }
        self.kernel.filler_cycles_recovered += (self.hw.now(core) - started).0;
    }

    /// Case 2b (and friends): switch away from the current domain.
    ///
    /// `ipc_target`: for IPC-driven switches, the receiver and the
    /// deterministic delivery target to pad towards.
    fn switch_domain(
        &mut self,
        reason: SwitchReason,
        ipc_target: Option<(DomainId, Cycles)>,
    ) -> (DomainId, DomainId) {
        let core = self.kernel.core;
        let from = self.kernel.current;
        let slice_start = self.kernel.slice_start;
        let entered = self.hw.now(core);

        // The padded start target (§4.2): previous slice + its pad, or
        // the IPC minimum-delivery instant.
        let pad = self.kernel.domains[from.0].pad;
        let target = match ipc_target {
            Some((_, t)) => t,
            None => slice_start + self.kernel.domains[from.0].slice + pad,
        };

        // Kernel switch path (charged against the *from* image).
        self.charge_kernel(KernelOp::Entry);
        self.charge_kernel(KernelOp::Switch);

        // Interim-process padding (§4.3): instead of burning the pad in
        // a busy loop, run the switched-from domain's filler until the
        // preemption margin, then flush as usual. All of the filler's
        // microarchitectural effects are erased by the flush below, so
        // how much it ran (which depends on when the switch began, and
        // hence possibly on secrets) is invisible to the next domain.
        if self.kernel.tp.pad_switch && self.kernel.domains[from.0].pad_filler.is_some() {
            self.run_pad_filler(from, target);
        }

        // Flush time-shared state (§4.1). The latency is history
        // dependent; padding below hides it.
        let mut flush_writebacks = 0;
        if self.kernel.tp.flush_on_switch {
            let (_c, out) = self.hw.flush_core_local(core);
            flush_writebacks = out.writebacks;
        }
        if self.kernel.tp.flush_llc_on_switch {
            let (_c, out) = self.hw.flush_llc(core);
            flush_writebacks += out.writebacks;
        }

        let to = match ipc_target {
            Some((rx, _)) => rx,
            None => DomainId((from.0 + 1) % self.kernel.domains.len()),
        };

        // Interrupt partitioning (§4.2): only the incoming domain's
        // lines (plus the timer) are unmasked.
        let mask = self.kernel.irq_mask_for(to);
        self.hw.irq.set_enabled_mask(mask);

        // Padding (§4.2).
        let (padded, overrun) = if self.kernel.tp.pad_switch {
            match self.hw.pad_to(core, target) {
                Ok(_) => (true, None),
                Err(o) => {
                    self.kernel.pad_overruns += 1;
                    (true, Some(o))
                }
            }
        } else {
            (false, None)
        };

        let completed = self.hw.now(core);
        self.kernel.current = to;
        self.kernel.slice_start = completed;
        self.kernel.deadline = completed + self.kernel.domains[to.0].slice;
        self.kernel.switch_log.push(SwitchRecord {
            from,
            to,
            reason,
            slice_start,
            kernel_entered_at: entered,
            target,
            completed_at: completed,
            padded,
            overrun,
            flush_writebacks,
        });
        (from, to)
    }
}

/// A frame-allocation reuse path for [`System::new`]: build the system
/// once, then stamp out cheap pristine copies for every run.
///
/// Sweep drivers like the exhaustive checker construct on the order of
/// 1.5k systems per configuration, and full construction (colour-aware
/// frame allocation, page-table assembly, kernel-image cloning) is the
/// dominant cost of each small run. Construction is deterministic and
/// independent of program *content*, so a template clones its pristine
/// system — a flat memcpy of frames, tables and caches — instead of
/// re-deriving all of it, and [`SystemTemplate::instantiate_with_program`]
/// swaps in the per-run program afterwards. The copies are
/// indistinguishable from freshly built systems (the digest tests in
/// `tp-core` pin this), so checkers keep their bit-identical-verdict
/// guarantee.
#[derive(Debug, Clone)]
pub struct SystemTemplate {
    pristine: System,
}

impl SystemTemplate {
    /// Build the template's pristine system once.
    pub fn new(mcfg: MachineConfig, kcfg: KernelConfig) -> Result<Self, KernelError> {
        Ok(SystemTemplate {
            pristine: System::new(mcfg, kcfg)?,
        })
    }

    /// Convert the template's pristine system to digest-only sinks, so
    /// every stamped copy starts trace-free without a per-run sink
    /// swap — the exhaustive checker's hot-path template.
    pub fn with_digest_sinks(mut self) -> Self {
        self.pristine.use_digest_sinks();
        self
    }

    /// A fresh system with domain `d`'s program replaced — the per-run
    /// fast path of the exhaustive checker.
    pub fn instantiate_with_program(&self, d: DomainId, program: Box<dyn Program>) -> System {
        let mut sys = self.pristine.clone();
        sys.replace_program(d, program);
        sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DomainSpec;
    use crate::ipc::EndpointSpec;
    use crate::layout::data_addr;
    use crate::program::{IdleProgram, TraceProgram};

    fn two_idle(tp: TimeProtConfig) -> System {
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(8_000)),
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(8_000)),
        ])
        .with_tp(tp);
        System::new(MachineConfig::single_core(), kcfg).unwrap()
    }

    #[test]
    fn construction_rejects_empty() {
        let kcfg = KernelConfig::new(vec![]);
        assert_eq!(
            System::new(MachineConfig::tiny(), kcfg).err(),
            Some(KernelError::NoDomains)
        );
    }

    #[test]
    fn construction_rejects_irq_conflicts() {
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![4]),
            DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![4]),
        ]);
        assert_eq!(
            System::new(MachineConfig::single_core(), kcfg).err(),
            Some(KernelError::IrqConflict { line: 4 })
        );
    }

    #[test]
    fn construction_rejects_timer_line_claim() {
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![TIMER_LINE])
        ]);
        assert_eq!(
            System::new(MachineConfig::single_core(), kcfg).err(),
            Some(KernelError::TimerLineReserved)
        );
    }

    #[test]
    fn colouring_gives_domains_disjoint_colours() {
        let sys = two_idle(TimeProtConfig::full());
        let a = &sys.kernel.colour_assignment[0];
        let b = &sys.kernel.colour_assignment[1];
        assert!(!a.is_empty() && !b.is_empty());
        for c in a {
            assert!(!b.contains(c), "colour {c:?} shared between domains");
            assert!(
                !sys.kernel.kernel_colours.contains(c),
                "domain colour in kernel set"
            );
        }
    }

    #[test]
    fn no_colouring_shares_the_full_palette() {
        let sys = two_idle(TimeProtConfig::off());
        assert_eq!(
            sys.kernel.colour_assignment[0],
            sys.kernel.colour_assignment[1]
        );
    }

    #[test]
    fn kernel_clone_gives_private_images() {
        let sys = two_idle(TimeProtConfig::full());
        assert_eq!(sys.kernel.images.len(), 3, "shared + 2 clones");
        let d0 = &sys.kernel.domains[0];
        let d1 = &sys.kernel.domains[1];
        assert_ne!(d0.kimage, d1.kimage);
        assert_ne!(d0.kimage, 0);
        // Image frames live in the owning domain's colours.
        let llc_colours = sys.hw.config().llc.unwrap().colours() as u64;
        for f in sys.kernel.images[d0.kimage].frames() {
            let colour = Colour((f % llc_colours) as u16);
            assert!(
                d0.colours.contains(&colour),
                "clone frame {f} outside domain colours"
            );
        }
    }

    #[test]
    fn no_clone_shares_image_zero() {
        let sys = two_idle(TimeProtConfig::off());
        assert_eq!(sys.kernel.images.len(), 1);
        assert!(sys.kernel.domains.iter().all(|d| d.kimage == 0));
    }

    /// The template fast path must be indistinguishable from full
    /// construction: identical machine digests at birth, identical
    /// behaviour (digests, observations, switch log) after running.
    #[test]
    fn template_instantiation_matches_fresh_construction() {
        let trace = |n: u64| {
            TraceProgram::new(
                (0..n)
                    .map(|i| Instr::Store(data_addr((i * 64) % (4 * 4096))))
                    .chain(std::iter::once(Instr::Halt))
                    .collect(),
            )
        };
        let kcfg = |hi: TraceProgram| {
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_slice(Cycles(2_000))
                    .with_pad(Cycles(8_000)),
                DomainSpec::new(Box::new(IdleProgram))
                    .with_slice(Cycles(2_000))
                    .with_pad(Cycles(8_000)),
            ])
            .with_tp(TimeProtConfig::full())
        };

        let template = SystemTemplate::new(MachineConfig::single_core(), kcfg(trace(0))).unwrap();
        for n in [0, 17, 160] {
            let mut fresh = System::new(MachineConfig::single_core(), kcfg(trace(n))).unwrap();
            let mut cheap = template.instantiate_with_program(DomainId(0), Box::new(trace(n)));
            assert_eq!(
                fresh.hw.machine_digest(),
                cheap.hw.machine_digest(),
                "program {n}: digest must be unchanged by the reuse path"
            );
            fresh.run_cycles(Cycles(60_000), 40_000);
            cheap.run_cycles(Cycles(60_000), 40_000);
            assert_eq!(fresh.hw.machine_digest(), cheap.hw.machine_digest());
            assert_eq!(fresh.now(), cheap.now(), "program {n}: clocks diverged");
            for d in [DomainId(0), DomainId(1)] {
                assert_eq!(fresh.observation(d), cheap.observation(d), "program {n}");
            }
            assert_eq!(fresh.kernel.switch_log.len(), cheap.kernel.switch_log.len());
        }
    }

    #[test]
    fn round_robin_switching() {
        let mut sys = two_idle(TimeProtConfig::full());
        let mut seen = Vec::new();
        for _ in 0..200_000 {
            if let StepEvent::Switched { from, to, .. } = sys.step() {
                seen.push((from.0, to.0));
                if seen.len() == 4 {
                    break;
                }
            }
        }
        assert_eq!(seen, vec![(0, 1), (1, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn padded_switch_completes_exactly_at_target() {
        let mut sys = two_idle(TimeProtConfig::full());
        for _ in 0..400_000 {
            sys.step();
            if sys.kernel.switch_log.len() >= 3 {
                break;
            }
        }
        assert!(sys.kernel.switch_log.len() >= 3);
        for r in &sys.kernel.switch_log {
            assert!(r.padded);
            assert_eq!(r.overrun, None, "pad budget must suffice: {r:?}");
            assert_eq!(
                r.completed_at, r.target,
                "switch must end exactly at target"
            );
            assert_eq!(r.target, r.slice_start + Cycles(2_000) + Cycles(8_000));
        }
    }

    #[test]
    fn unpadded_switch_finishes_early_and_varies() {
        let mut sys = two_idle(TimeProtConfig::off());
        for _ in 0..400_000 {
            sys.step();
            if sys.kernel.switch_log.len() >= 3 {
                break;
            }
        }
        for r in &sys.kernel.switch_log {
            assert!(!r.padded);
            assert!(
                r.completed_at.0 < r.target.0,
                "no padding: completes before target"
            );
        }
    }

    #[test]
    fn pad_overrun_is_detected() {
        // A pad of 1 cycle cannot absorb the switch path: obligation T
        // must fail loudly, not silently.
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(1)),
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(1)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        for _ in 0..100_000 {
            sys.step();
            if !sys.kernel.switch_log.is_empty() {
                break;
            }
        }
        assert!(sys.kernel.pad_overruns > 0);
        assert!(sys.kernel.switch_log[0].overrun.is_some());
    }

    #[test]
    fn flush_on_switch_resets_core_state() {
        let mut sys = two_idle(TimeProtConfig::full());
        // Run domain 0 for a while, then step through the first switch.
        while sys.kernel.switch_log.is_empty() {
            sys.step();
        }
        // Immediately after a switch the L1s hold only post-flush kernel
        // lines; in particular no line owned by domain 0 remains.
        let c = &sys.hw.cores[0];
        let d0 = DomainTag(0);
        let leaked = c
            .l1d
            .iter_lines()
            .chain(c.l1i.iter_lines())
            .filter(|(_, _, l)| l.valid && l.owner == Some(d0))
            .count();
        assert_eq!(leaked, 0, "domain 0 lines must be flushed at the switch");
    }

    #[test]
    fn without_flush_state_survives_switch() {
        let prog = TraceProgram::loads((0..32).map(|i| data_addr(i * 64).0));
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(prog)).with_slice(Cycles(50_000)),
            DomainSpec::new(Box::new(IdleProgram)).with_slice(Cycles(2_000)),
        ])
        .with_tp(TimeProtConfig::off());
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        while sys.kernel.switch_log.is_empty() {
            sys.step();
        }
        let c = &sys.hw.cores[0];
        let survivors = c
            .l1d
            .iter_lines()
            .filter(|(_, _, l)| l.valid && l.owner == Some(DomainTag(0)))
            .count();
        assert!(
            survivors > 0,
            "no flush: domain 0 residue remains (the channel)"
        );
    }

    #[test]
    fn user_programs_execute_and_observe_clock() {
        let prog = TraceProgram::new(vec![
            Instr::ReadClock,
            Instr::Compute(10),
            Instr::ReadClock,
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(prog))]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(10);
        let clocks = sys.observation(DomainId(0)).clocks();
        assert_eq!(clocks.len(), 2);
        assert!(clocks[1].0 >= clocks[0].0 + 10);
        assert!(sys.all_halted());
    }

    #[test]
    fn loads_and_stores_hit_domain_memory() {
        let prog = TraceProgram::new(vec![
            Instr::Load(data_addr(0)),
            Instr::Store(data_addr(64)),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(prog))]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(5);
        assert_eq!(sys.kernel.domains[0].retired, 2);
        assert!(sys
            .observation(DomainId(0))
            .events
            .contains(&ObsEvent::Halted));
    }

    #[test]
    fn out_of_window_access_faults_but_execution_continues() {
        let prog = TraceProgram::new(vec![
            Instr::Load(VAddr(0x9999_0000)),
            Instr::Compute(1),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(prog))]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        let events = sys.run_steps(5);
        assert!(events.contains(&StepEvent::Fault {
            domain: DomainId(0)
        }));
        assert!(sys
            .observation(DomainId(0))
            .events
            .contains(&ObsEvent::Fault));
        assert!(
            sys.all_halted(),
            "program continues past the fault and halts"
        );
    }

    #[test]
    fn ipc_roundtrip_same_slice_structure() {
        let sender = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Send { ep: 0, msg: 99 }),
            Instr::Halt,
        ]);
        let receiver = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Recv { ep: 0 }),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(sender)).with_slice(Cycles(5_000)),
            DomainSpec::new(Box::new(receiver)).with_slice(Cycles(5_000)),
        ])
        .with_endpoints(vec![EndpointSpec::default()]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_cycles(Cycles(100_000), 1_000_000);
        let recvs = sys.observation(DomainId(1)).ipc_recvs();
        assert_eq!(recvs.len(), 1);
        assert_eq!(recvs[0].0, 99);
    }

    #[test]
    fn queued_messages_deliver_in_fifo_order_across_slices() {
        let sender = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Send { ep: 0, msg: 1 }),
            Instr::Syscall(SyscallReq::Send { ep: 0, msg: 2 }),
            Instr::Syscall(SyscallReq::Send { ep: 0, msg: 3 }),
            Instr::Halt,
        ]);
        let receiver = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Recv { ep: 0 }),
            Instr::Syscall(SyscallReq::Recv { ep: 0 }),
            Instr::Syscall(SyscallReq::Recv { ep: 0 }),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(sender)).with_slice(Cycles(10_000)),
            DomainSpec::new(Box::new(receiver)).with_slice(Cycles(10_000)),
        ])
        .with_endpoints(vec![EndpointSpec::default()]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_cycles(Cycles(400_000), 400_000);
        let msgs: Vec<u64> = sys
            .observation(DomainId(1))
            .ipc_recvs()
            .iter()
            .map(|(m, _)| *m)
            .collect();
        assert_eq!(msgs, vec![1, 2, 3]);
    }

    #[test]
    fn recv_blocks_until_sender_runs() {
        // Receiver is first in the schedule: it must block through its
        // own slice and receive only after the sender's slice.
        let receiver = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Recv { ep: 0 }),
            Instr::Halt,
        ]);
        let sender = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Send { ep: 0, msg: 77 }),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(receiver))
                .with_slice(Cycles(10_000))
                .with_pad(Cycles(20_000)),
            DomainSpec::new(Box::new(sender))
                .with_slice(Cycles(10_000))
                .with_pad(Cycles(20_000)),
        ])
        .with_endpoints(vec![EndpointSpec::default()]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_cycles(Cycles(400_000), 400_000);
        let recvs = sys.observation(DomainId(0)).ipc_recvs();
        assert_eq!(recvs.len(), 1);
        assert_eq!(recvs[0].0, 77);
        // Delivery happens in the receiver's second slice, i.e. after
        // the first full rotation (2 × (slice + pad) = 60_000).
        assert!(recvs[0].1 .0 >= 60_000, "delivered at {:?}", recvs[0].1);
    }

    #[test]
    fn send_to_invalid_endpoint_is_harmless() {
        let prog = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Send { ep: 99, msg: 1 }),
            Instr::Syscall(SyscallReq::Recv { ep: 99 }),
            Instr::Compute(1),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(prog))]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(10);
        assert!(
            sys.all_halted(),
            "bad endpoint indices must not wedge the domain"
        );
    }

    #[test]
    fn io_submit_respects_irq_partitioning() {
        let prog = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::IoSubmit { line: 7, delay: 10 }),
            Instr::Halt,
        ]);
        // Domain 0 does not own line 7 (domain 1 does).
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(prog.clone())),
            DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![7]),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(10);
        assert_eq!(
            sys.kernel.io_denied, 1,
            "partitioning denies foreign-line I/O"
        );

        // Without partitioning, the same call is allowed.
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(prog)),
            DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![7]),
        ])
        .with_tp(TimeProtConfig::off());
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(10);
        assert_eq!(sys.kernel.io_denied, 0);
    }

    /// A line past the controller's is denied like a foreign one, with
    /// or without partitioning, and never reaches the ownership table.
    #[test]
    fn io_submit_denies_out_of_range_lines() {
        for line in [NUM_LINES, u8::MAX] {
            for tp in [TimeProtConfig::full(), TimeProtConfig::off()] {
                let prog = TraceProgram::new(vec![
                    Instr::Syscall(SyscallReq::IoSubmit { line, delay: 10 }),
                    Instr::Halt,
                ]);
                let kcfg = KernelConfig::new(vec![
                    DomainSpec::new(Box::new(prog)),
                    DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![7]),
                ])
                .with_tp(tp);
                let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
                assert_eq!(sys.kernel.irq_owner(line), None);
                sys.run_steps(10);
                assert_eq!(sys.kernel.io_denied, 1, "line {line}, {tp:?}");
            }
        }
    }

    #[test]
    fn construction_rejects_out_of_range_irq_lines() {
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram)).with_irq_lines(vec![NUM_LINES])
        ]);
        assert_eq!(
            System::new(MachineConfig::single_core(), kcfg).err(),
            Some(KernelError::IrqLineOutOfRange { line: NUM_LINES })
        );
    }

    /// A device delay near `u64::MAX` arms the timer at the end of time
    /// instead of wrapping round to fire at once.
    #[test]
    fn huge_io_delay_never_fires_inside_the_budget() {
        let prog = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::IoSubmit {
                line: 5,
                delay: u64::MAX - 1,
            }),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(prog)).with_irq_lines(vec![5]),
            DomainSpec::new(Box::new(IdleProgram)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        let budget = Cycles(200_000);
        while sys.now() < budget {
            let (ev, _) = sys.advance(budget, usize::MAX);
            assert!(!matches!(ev, StepEvent::IrqHandled { .. }), "{ev:?}");
        }
        assert_eq!(sys.kernel.io_denied, 0);
        assert_eq!(sys.hw.irq.next_fire(), Some(Cycles(u64::MAX)));
    }

    #[test]
    fn masked_device_irq_waits_for_owner() {
        // Domain 0 arms its own line, halts; the IRQ fires while domain 1
        // runs — with partitioning it must be deferred to domain 0's
        // next slice.
        let prog = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::IoSubmit {
                line: 5,
                delay: 4_000,
            }),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(prog))
                .with_irq_lines(vec![5])
                .with_slice(Cycles(2_000)),
            DomainSpec::new(Box::new(IdleProgram)).with_slice(Cycles(2_000)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        let mut irq_during: Option<DomainId> = None;
        for _ in 0..400_000 {
            let ev = sys.step();
            if let StepEvent::IrqHandled { line: 5 } = ev {
                irq_during = Some(sys.kernel.current);
                break;
            }
        }
        assert_eq!(
            irq_during,
            Some(DomainId(0)),
            "IRQ must be handled in the owner's slice"
        );
    }

    /// Two domains that halt at once: the first runs `first` then
    /// `Halt`, the second only `Halt`, each with a 20,000-cycle slice and
    /// an 8,000-cycle pad, so slices end in idle waits: domain 0's in
    /// `0..20_000`, domain 1's in `28_000..48_000`.
    fn halting(first: Vec<Instr>, irq_lines: Vec<u8>) -> KernelConfig {
        let mut prog = first;
        prog.push(Instr::Halt);
        KernelConfig::new(vec![
            DomainSpec::new(Box::new(TraceProgram::new(prog)))
                .with_irq_lines(irq_lines)
                .with_slice(Cycles(20_000))
                .with_pad(Cycles(8_000)),
            DomainSpec::new(Box::new(TraceProgram::new(vec![Instr::Halt])))
                .with_slice(Cycles(20_000))
                .with_pad(Cycles(8_000)),
        ])
    }

    /// Step `sys` until `done` holds.
    fn step_until(sys: &mut System, done: impl Fn(&System) -> bool) {
        for _ in 0..10_000 {
            if done(sys) {
                return;
            }
            sys.step();
        }
        panic!("condition never reached");
    }

    /// `sys.advance(budget, limit)`, checked against `step()` called once
    /// per step it reports, on a clone: each step yields the same event
    /// and both systems end in the same state.
    fn advance_as_steps(sys: &mut System, budget: Cycles, limit: usize) -> (StepEvent, usize) {
        let mut reference = sys.clone();
        let (ev, n) = sys.advance(budget, limit);
        for _ in 0..n {
            assert_eq!(reference.step(), ev);
        }
        assert_eq!(reference.hw, sys.hw);
        assert_eq!(reference.kernel.current, sys.kernel.current);
        assert_eq!(reference.kernel.deadline, sys.kernel.deadline);
        assert_eq!(reference.kernel.switch_log, sys.kernel.switch_log);
        (ev, n)
    }

    fn d0_halted(sys: &System) -> bool {
        sys.kernel.current == DomainId(0) && sys.kernel.domains[0].state == DomState::Halted
    }

    #[test]
    fn advance_stops_exactly_at_the_deadline() {
        let mut sys = System::new(MachineConfig::single_core(), halting(vec![], vec![])).unwrap();
        step_until(&mut sys, d0_halted);
        let start = sys.now().0;
        let (ev, n) = advance_as_steps(&mut sys, Cycles(u64::MAX), usize::MAX);
        assert_eq!(ev, StepEvent::IdleTick);
        assert_eq!(sys.now(), sys.kernel.deadline, "the last tick is shortened");
        assert_eq!(n as u64, (20_000 - start).div_ceil(IDLE_QUANTUM));
        assert!(matches!(sys.step(), StepEvent::Switched { .. }));
    }

    #[test]
    fn advance_stops_exactly_at_a_message_ready_time() {
        // Domain 0 sends in its first slice; the endpoint's minimum
        // delivery time puts the message's ready time inside the
        // receiver's slice, after it has blocked in `Recv`.
        let mut kcfg = halting(
            vec![Instr::Syscall(SyscallReq::Send { ep: 0, msg: 7 })],
            vec![],
        )
        .with_endpoints(vec![EndpointSpec {
            min_delivery: Some(Cycles(40_000)),
        }]);
        kcfg.domains[1].program = Box::new(TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::Recv { ep: 0 }),
            Instr::Halt,
        ]));
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        step_until(&mut sys, |s| {
            matches!(s.kernel.domains[1].state, DomState::BlockedRecv { .. })
        });
        assert!(sys.now().0 < 40_000);
        let (ev, n) = advance_as_steps(&mut sys, Cycles(u64::MAX), usize::MAX);
        assert_eq!(ev, StepEvent::IdleTick);
        assert!(n > 1);
        assert_eq!(sys.now(), Cycles(40_000));
        assert_eq!(
            sys.step(),
            StepEvent::IpcDelivered {
                domain: DomainId(1)
            }
        );
    }

    #[test]
    fn advance_stops_before_an_unmasked_device_timer_fires() {
        // Domain 0 arms its own line and halts: the interrupt is
        // enabled while it waits, so the step after the run handles it.
        let io = Instr::Syscall(SyscallReq::IoSubmit {
            line: 5,
            delay: 5_000,
        });
        let mut sys =
            System::new(MachineConfig::single_core(), halting(vec![io], vec![5])).unwrap();
        step_until(&mut sys, d0_halted);
        let fire = sys.hw.irq.next_fire().expect("armed");
        let (ev, n) = advance_as_steps(&mut sys, Cycles(u64::MAX), usize::MAX);
        assert_eq!(ev, StepEvent::IdleTick);
        assert!(n > 1);
        assert!(
            sys.now() >= fire && sys.now().0 < fire.0 + IDLE_QUANTUM,
            "the last tick starts before {fire:?}, the next at or after it"
        );
        assert_eq!(sys.hw.irq.next_fire(), Some(fire), "not fired yet");
        assert_eq!(sys.step(), StepEvent::IrqHandled { line: 5 });
    }

    #[test]
    fn advance_stops_before_a_masked_device_timer_fires() {
        // Domain 0's timer fires during domain 1's halted slice, where
        // partitioning masks it: the tick that fires it, and the ones
        // after it, stay idle.
        let io = Instr::Syscall(SyscallReq::IoSubmit {
            line: 5,
            delay: 30_000,
        });
        let mut sys =
            System::new(MachineConfig::single_core(), halting(vec![io], vec![5])).unwrap();
        step_until(&mut sys, |s| {
            s.kernel.current == DomainId(1) && s.kernel.domains[1].state == DomState::Halted
        });
        let fire = sys.hw.irq.next_fire().expect("armed");
        assert!(fire > sys.now() && fire < sys.kernel.deadline);
        let (ev, n) = advance_as_steps(&mut sys, Cycles(u64::MAX), usize::MAX);
        assert_eq!(ev, StepEvent::IdleTick);
        assert!(n > 1);
        assert!(sys.now() >= fire && sys.now().0 < fire.0 + IDLE_QUANTUM);
        assert!(!sys.hw.irq.is_pending(5));
        let (ev, n) = advance_as_steps(&mut sys, Cycles(u64::MAX), usize::MAX);
        assert_eq!(ev, StepEvent::IdleTick);
        assert!(n > 1, "idle again after the masked fire");
        assert!(sys.hw.irq.is_pending(5), "latched, masked");
        assert_eq!(sys.hw.irq.next_fire(), None);
        assert_eq!(sys.now(), sys.kernel.deadline);
    }

    #[test]
    fn advance_stops_at_a_budget_off_the_tick_grid() {
        let mut sys = System::new(MachineConfig::single_core(), halting(vec![], vec![])).unwrap();
        step_until(&mut sys, d0_halted);
        let start = sys.now().0;
        let budget = Cycles(start + 1_000);
        assert!(start + 16 * IDLE_QUANTUM < sys.kernel.deadline.0);
        let mut batched = sys.clone();
        // Ticks start at `start + 0, 64, …, 960`: the 17th would start
        // at or after the budget.
        let (ev, n) = advance_as_steps(&mut sys, budget, usize::MAX);
        assert_eq!((ev, n), (StepEvent::IdleTick, 16));
        assert_eq!(sys.now(), Cycles(start + 16 * IDLE_QUANTUM));
        // `run_cycles` stops on the same step as the step-by-step loop.
        assert_eq!(batched.run_cycles(budget, usize::MAX), 16);
        assert_eq!(batched.hw, sys.hw);
    }

    #[test]
    fn advance_stops_at_its_limit() {
        let mut sys = System::new(MachineConfig::single_core(), halting(vec![], vec![])).unwrap();
        step_until(&mut sys, d0_halted);
        let start = sys.now().0;
        assert_eq!(
            advance_as_steps(&mut sys, Cycles(u64::MAX), 5),
            (StepEvent::IdleTick, 5)
        );
        assert_eq!(sys.now(), Cycles(start + 5 * IDLE_QUANTUM));
        // A limit of zero still takes the one step.
        assert_eq!(
            advance_as_steps(&mut sys, Cycles(u64::MAX), 0),
            (StepEvent::IdleTick, 1)
        );
    }

    #[test]
    fn unpartitioned_irq_fires_during_victim() {
        // Sweep the device delay; without partitioning, some delay lands
        // the completion interrupt inside the *other* domain's slice —
        // the E5 channel. (The exact delay depends on kernel-path costs,
        // so we search rather than hardcode.)
        let mut hit_victim = false;
        for delay in (500..8_000).step_by(500) {
            let prog = TraceProgram::new(vec![
                Instr::Syscall(SyscallReq::IoSubmit { line: 5, delay }),
                Instr::Halt,
            ]);
            let kcfg = KernelConfig::new(vec![
                DomainSpec::new(Box::new(prog))
                    .with_irq_lines(vec![5])
                    .with_slice(Cycles(2_000)),
                DomainSpec::new(Box::new(IdleProgram)).with_slice(Cycles(2_000)),
            ])
            .with_tp(TimeProtConfig::off());
            let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
            for _ in 0..400_000 {
                let ev = sys.step();
                if let StepEvent::IrqHandled { line: 5 } = ev {
                    if sys.kernel.current == DomainId(1) {
                        hit_victim = true;
                    }
                    break;
                }
            }
            if hit_victim {
                break;
            }
        }
        assert!(
            hit_victim,
            "no partitioning: some delay lets the IRQ steal cycles from the victim (E5)"
        );
    }

    #[test]
    fn yield_switches_immediately_but_pads_to_full_deadline() {
        let prog = TraceProgram::new(vec![Instr::Syscall(SyscallReq::Yield), Instr::Halt]);
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(prog))
                .with_slice(Cycles(10_000))
                .with_pad(Cycles(20_000)),
            DomainSpec::new(Box::new(IdleProgram)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        for _ in 0..1_000 {
            sys.step();
            if !sys.kernel.switch_log.is_empty() {
                break;
            }
        }
        let r = sys.kernel.switch_log[0];
        assert_eq!(r.reason, SwitchReason::Yield);
        // Even though the domain yielded after a handful of cycles, the
        // next domain starts at the *fixed* padded deadline: yield time
        // does not leak.
        assert_eq!(r.completed_at, Cycles(10_000) + Cycles(20_000));
    }

    #[test]
    fn map_page_then_access_succeeds() {
        let vpn = 0x3000;
        let prog = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::MapPage { vpn }),
            Instr::Store(VAddr(vpn << 12)),
            Instr::Load(VAddr(vpn << 12)),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(prog))]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(10);
        assert!(
            !sys.observation(DomainId(0))
                .events
                .contains(&ObsEvent::Fault),
            "mapped page must be accessible"
        );
        assert!(sys.all_halted());
    }

    #[test]
    fn unmap_invalidates_the_tlb() {
        // Access (TLB fill) → unmap → access again. Without the invlpg
        // in sys_unmap_page the stale TLB entry would let the second
        // access through — the §5.3 consistency bug.
        let vpn = 0x3000;
        let prog = TraceProgram::new(vec![
            Instr::Syscall(SyscallReq::MapPage { vpn }),
            Instr::Store(VAddr(vpn << 12)),
            Instr::Syscall(SyscallReq::UnmapPage { vpn }),
            Instr::Store(VAddr(vpn << 12)),
            Instr::Halt,
        ]);
        let kcfg = KernelConfig::new(vec![DomainSpec::new(Box::new(prog))]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_steps(12);
        assert!(
            sys.observation(DomainId(0))
                .events
                .contains(&ObsEvent::Fault),
            "access after unmap must fault, not hit a stale TLB entry"
        );
    }

    #[test]
    fn released_frames_stay_within_their_colour() {
        // Map and unmap under domain 0, then exhaust domain 1's pool:
        // domain 1 must never receive a frame of domain 0's colours.
        let churn = TraceProgram::new(
            (0..20u64)
                .flat_map(|i| {
                    [
                        Instr::Syscall(SyscallReq::MapPage { vpn: 0x3000 + i }),
                        Instr::Syscall(SyscallReq::UnmapPage { vpn: 0x3000 + i }),
                    ]
                })
                .collect(),
        );
        let grabber = TraceProgram::new(
            (0..200u64)
                .map(|i| Instr::Syscall(SyscallReq::MapPage { vpn: 0x5000 + i }))
                .collect(),
        );
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(churn)),
            DomainSpec::new(Box::new(grabber)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        sys.run_cycles(Cycles(2_000_000), 1_000_000);
        let llc_colours = sys.hw.config().llc.unwrap().colours() as u64;
        for (pfn, info) in sys.hw.mem.iter() {
            if info.owner == Some(DomainTag(1)) {
                let colour = Colour((pfn % llc_colours) as u16);
                assert!(
                    sys.kernel.colour_assignment[1].contains(&colour),
                    "domain 1 got foreign-colour frame {pfn}"
                );
            }
        }
    }

    #[test]
    fn pad_filler_recovers_cycles_without_breaking_the_grid() {
        // A filler that loads its own data during padding.
        let filler = TraceProgram::loads((0..4096).map(|i| data_addr((i * 64) % (8 * 4096)).0));
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(20_000))
                .with_pad_filler(Box::new(filler), Cycles(12_000)),
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(20_000)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        for _ in 0..200_000 {
            sys.step();
            if sys.kernel.switch_log.len() >= 4 {
                break;
            }
        }
        assert!(
            sys.kernel.filler_cycles_recovered > 0,
            "filler must run during padding"
        );
        // The padded grid is untouched: every switch still ends exactly
        // at its target with no overrun.
        for r in &sys.kernel.switch_log {
            assert_eq!(r.overrun, None, "{r:?}");
            assert_eq!(r.completed_at, r.target);
        }
    }

    #[test]
    fn pad_filler_effects_are_flushed() {
        let filler = TraceProgram::loads((0..4096).map(|i| data_addr((i * 64) % (8 * 4096)).0));
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(20_000))
                .with_pad_filler(Box::new(filler), Cycles(12_000)),
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(20_000)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        while sys.kernel.switch_log.is_empty() {
            sys.step();
        }
        // Immediately after the switch: no filler residue in the L1s.
        let residue = sys.hw.cores[0]
            .l1d
            .iter_lines()
            .filter(|(_, _, l)| l.valid && l.owner == Some(DomainTag(0)))
            .count();
        assert_eq!(
            residue, 0,
            "filler lines must be flushed before the next domain"
        );
    }

    #[test]
    fn inadequate_filler_margin_is_detected_as_overrun() {
        // Margin 0: the filler runs right up to the target; the flush
        // then necessarily overshoots — obligation T must catch this
        // misconfiguration rather than silently leak.
        let filler = TraceProgram::loads((0..65536).map(|i| data_addr((i * 64) % (8 * 4096)).0));
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(20_000))
                .with_pad_filler(Box::new(filler), Cycles(0)),
            DomainSpec::new(Box::new(IdleProgram))
                .with_slice(Cycles(2_000))
                .with_pad(Cycles(20_000)),
        ]);
        let mut sys = System::new(MachineConfig::single_core(), kcfg).unwrap();
        for _ in 0..200_000 {
            sys.step();
            if !sys.kernel.switch_log.is_empty() {
                break;
            }
        }
        assert!(
            sys.kernel.pad_overruns > 0,
            "margin 0 must overrun the pad target"
        );
    }

    #[test]
    fn system_clone_is_deep() {
        let mut a = two_idle(TimeProtConfig::full());
        let b = a.clone();
        a.run_steps(1000);
        assert_eq!(b.now(), Cycles::ZERO, "clone must not share clocks");
        assert_ne!(a.now(), b.now());
    }

    #[test]
    fn deterministic_replay() {
        let mk = || {
            let mut s = two_idle(TimeProtConfig::full());
            s.run_steps(5_000);
            (s.now(), s.hw.machine_digest(), s.kernel.switch_log.len())
        };
        assert_eq!(mk(), mk(), "the system must be fully deterministic");
    }
}

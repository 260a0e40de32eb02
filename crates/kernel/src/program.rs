//! The user-program model.
//!
//! Domains execute *programs*: deterministic state machines that emit one
//! [`Instr`] at a time and receive [`StepFeedback`] about the previous
//! instruction (clock reads, IPC deliveries, faults). This is the
//! simulator's analogue of user-mode machine code. Determinism matters:
//! the noninterference checker re-runs systems from identical initial
//! states and compares observable traces, which is only meaningful if
//! programs have no hidden entropy.
//!
//! Attack programs (in `tp-attacks`) implement [`Program`] with internal
//! state machines; this module provides the trait, a script-style
//! [`TraceProgram`] for tests, and the spinning [`IdleProgram`].

use tp_hw::obs::WordFold;
use tp_hw::types::{Cycles, Fault, VAddr};

/// A system-call request issued by a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallReq {
    /// Send `msg` to endpoint `ep`; blocks until the message is accepted
    /// into the endpoint queue (immediate in this model).
    Send {
        /// Endpoint index.
        ep: usize,
        /// Payload word.
        msg: u64,
    },
    /// Receive from endpoint `ep`; blocks until a message is deliverable.
    Recv {
        /// Endpoint index.
        ep: usize,
    },
    /// Submit an I/O operation whose completion raises `line` after
    /// `delay` cycles — the Trojan's tool in the E5 interrupt channel.
    IoSubmit {
        /// Interrupt line to raise on completion.
        line: u8,
        /// Device latency in cycles.
        delay: u64,
    },
    /// Voluntarily end the domain's current slice.
    Yield,
    /// Enter and exit the kernel without further effect (a `seL4_Yield`
    /// -like null round trip; exercises the Case-2a kernel path).
    Null,
    /// Map a fresh writable page at virtual page `vpn`, backed by a
    /// frame from the calling domain's own colours. Silently a no-op if
    /// the page is already mapped or no coloured frame is available.
    MapPage {
        /// Virtual page number to map.
        vpn: u64,
    },
    /// Unmap the page at `vpn`, returning its frame to the domain's
    /// colour pool and invalidating the TLB entry (the §5.3 consistency
    /// obligation: a stale entry here would be both a correctness and a
    /// timing bug).
    UnmapPage {
        /// Virtual page number to unmap.
        vpn: u64,
    },
}

/// One modelled user-mode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Load from a virtual address.
    Load(VAddr),
    /// Store to a virtual address.
    Store(VAddr),
    /// A conditional branch: resolved `taken`, jumping to `target`.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
        /// Branch target (the new PC if taken).
        target: VAddr,
    },
    /// Pure computation costing `units` of architecturally fixed work.
    Compute(u64),
    /// Read the cycle counter; the value arrives in the next feedback.
    ReadClock,
    /// Trap into the kernel.
    Syscall(SyscallReq),
    /// Stop executing; the domain idles for its remaining slices.
    Halt,
}

/// Largest operand a tag word carries: the bits above its 16 tag bits.
const TAG_FIELD_MAX: u64 = (1 << 48) - 1;

/// Fingerprint seeds, one per program type, so different types with
/// equal state words cannot collide.
const TRACE_PROGRAM_TAG: u64 = 0x7472_6163;
const IDLE_PROGRAM_TAG: u64 = 0x1d1e;

/// The two words an instruction contributes to a program's
/// [`Program::content_fingerprint`]: a tag word, then an operand word.
///
/// The tag word's low byte names the [`Instr`] arm, its second byte the
/// [`SyscallReq`] arm, and its upper 48 bits a second, small field (a
/// branch's direction, an I/O line, a send's endpoint); the operand
/// word carries the remaining field, or 0. Distinct instructions
/// therefore give distinct word pairs, with one deliberate exception: a
/// send endpoint past 2⁴⁸ − 2 saturates, which is sound because no
/// endpoint table is that long and the kernel ignores every
/// out-of-range send alike.
pub fn instr_words(i: &Instr) -> [u64; 2] {
    let tag = |arm: u64, sub: u64, field: u64| arm | sub << 8 | field.min(TAG_FIELD_MAX) << 16;
    match *i {
        Instr::Load(a) => [tag(1, 0, 0), a.0],
        Instr::Store(a) => [tag(2, 0, 0), a.0],
        Instr::Branch { taken, target } => [tag(3, 0, taken as u64), target.0],
        Instr::Compute(u) => [tag(4, 0, 0), u],
        Instr::ReadClock => [tag(5, 0, 0), 0],
        Instr::Syscall(req) => match req {
            SyscallReq::Send { ep, msg } => [tag(6, 1, ep as u64), msg],
            SyscallReq::Recv { ep } => [tag(6, 2, 0), ep as u64],
            SyscallReq::IoSubmit { line, delay } => [tag(6, 3, line as u64), delay],
            SyscallReq::Yield => [tag(6, 4, 0), 0],
            SyscallReq::Null => [tag(6, 5, 0), 0],
            SyscallReq::MapPage { vpn } => [tag(6, 6, 0), vpn],
            SyscallReq::UnmapPage { vpn } => [tag(6, 7, 0), vpn],
        },
        Instr::Halt => [tag(7, 0, 0), 0],
    }
}

/// An IPC message delivered to a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcDelivery {
    /// Payload word.
    pub msg: u64,
    /// The receiver's clock at delivery.
    pub at: Cycles,
}

/// Feedback about the previously executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepFeedback {
    /// Clock value if the previous instruction was [`Instr::ReadClock`].
    pub clock: Option<Cycles>,
    /// Message if a pending `Recv` completed.
    pub ipc: Option<IpcDelivery>,
    /// Fault raised by the previous instruction, if any. The kernel
    /// delivers the fault instead of crashing the domain, so attack
    /// programs can probe address-space boundaries.
    pub fault: Option<Fault>,
}

/// A deterministic user program.
///
/// Implementors must be deterministic: the same sequence of feedback
/// values must produce the same sequence of instructions. All interesting
/// behaviour (secret-dependent access patterns, probe loops) lives in
/// implementations of this trait.
///
/// `Send + Sync` are supertraits so that kernel configurations and whole
/// systems can move onto the persistent scheduler's worker pool
/// (`tp-sched`) and templates can be shared between workers; programs
/// are plain data, so every implementor satisfies them for free.
pub trait Program: ProgramClone + core::fmt::Debug + Send + Sync {
    /// Produce the next instruction given feedback about the last one.
    fn next(&mut self, feedback: &StepFeedback) -> Instr;

    /// A content hash of the program's *complete* behaviour-determining
    /// state, or `None` if the program cannot promise one.
    ///
    /// The contract is strict: two programs returning the same
    /// `Some(fp)` must emit identical instruction sequences under
    /// identical feedback. Any program that cannot guarantee this must
    /// return `None` (the default), which makes every proof cell built
    /// on it *uncacheable* — the proof cache falls back to a live
    /// re-prove rather than trusting an under-specified fingerprint.
    fn content_fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Object-safe clone support for `Box<dyn Program>`.
///
/// The noninterference checker clones whole systems to replay them with
/// different secrets, so programs must be cloneable through the trait
/// object. Implemented automatically for every `Clone` program.
pub trait ProgramClone {
    /// Clone into a fresh box.
    fn clone_box(&self) -> Box<dyn Program>;
}

impl<T> ProgramClone for T
where
    T: 'static + Program + Clone,
{
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Program> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A program that replays a fixed instruction list, then halts.
///
/// The workhorse of unit tests and simple workloads.
#[derive(Debug, Clone, Default)]
pub struct TraceProgram {
    instrs: Vec<Instr>,
    pos: usize,
}

impl TraceProgram {
    /// Create from an instruction list.
    pub fn new(instrs: Vec<Instr>) -> Self {
        TraceProgram { instrs, pos: 0 }
    }

    /// Convenience: a program touching each address in `addrs` once.
    pub fn loads(addrs: impl IntoIterator<Item = u64>) -> Self {
        TraceProgram::new(addrs.into_iter().map(|a| Instr::Load(VAddr(a))).collect())
    }
}

impl Program for TraceProgram {
    fn next(&mut self, _feedback: &StepFeedback) -> Instr {
        let i = self.instrs.get(self.pos).copied().unwrap_or(Instr::Halt);
        self.pos += 1;
        i
    }

    /// A trace program ignores its feedback, so the replay position and
    /// every remaining-or-replayed instruction fully determine its
    /// output, and the fold over (pos, len, instrs) is a complete
    /// fingerprint.
    fn content_fingerprint(&self) -> Option<u64> {
        let mut f = WordFold::new(TRACE_PROGRAM_TAG);
        f.push(self.pos as u64);
        f.push(self.instrs.len() as u64);
        for i in &self.instrs {
            let [tag, operand] = instr_words(i);
            f.push(tag);
            f.push(operand);
        }
        Some(f.finish())
    }
}

/// A program that computes forever (1 unit per step). Used to fill
/// domains whose activity is irrelevant to an experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleProgram;

impl Program for IdleProgram {
    fn next(&mut self, _feedback: &StepFeedback) -> Instr {
        Instr::Compute(1)
    }

    /// Stateless: every idle program behaves identically.
    fn content_fingerprint(&self) -> Option<u64> {
        Some(WordFold::new(IDLE_PROGRAM_TAG).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_program_replays_then_halts() {
        let mut p = TraceProgram::new(vec![Instr::Compute(1), Instr::ReadClock]);
        let fb = StepFeedback::default();
        assert_eq!(p.next(&fb), Instr::Compute(1));
        assert_eq!(p.next(&fb), Instr::ReadClock);
        assert_eq!(p.next(&fb), Instr::Halt);
        assert_eq!(p.next(&fb), Instr::Halt);
    }

    /// Clock feedback does not steer a trace program: it replays its
    /// list whatever the clock reads returned.
    #[test]
    fn trace_program_ignores_clock_feedback() {
        let mut p = TraceProgram::new(vec![Instr::ReadClock, Instr::ReadClock]);
        assert_eq!(p.next(&StepFeedback::default()), Instr::ReadClock);
        let fb = |c| StepFeedback {
            clock: Some(Cycles(c)),
            ..Default::default()
        };
        assert_eq!(p.next(&fb(55)), Instr::ReadClock);
        assert_eq!(p.next(&fb(99)), Instr::Halt);
    }

    #[test]
    fn boxed_programs_clone() {
        let p: Box<dyn Program> = Box::new(TraceProgram::loads([0x1000, 0x2000]));
        let mut q = p.clone();
        assert_eq!(q.next(&StepFeedback::default()), Instr::Load(VAddr(0x1000)));
    }

    #[test]
    fn idle_spins() {
        let mut p = IdleProgram;
        for _ in 0..3 {
            assert_eq!(p.next(&StepFeedback::default()), Instr::Compute(1));
        }
    }

    #[test]
    fn content_fingerprints_separate_programs() {
        use tp_hw::types::VAddr;
        let fp = |instrs: Vec<Instr>| TraceProgram::new(instrs).content_fingerprint().unwrap();
        // Same payload word under different arms must not collide.
        assert_ne!(
            fp(vec![Instr::Load(VAddr(64))]),
            fp(vec![Instr::Store(VAddr(64))])
        );
        assert_ne!(
            fp(vec![Instr::Compute(64)]),
            fp(vec![Instr::Load(VAddr(64))])
        );
        assert_ne!(
            fp(vec![Instr::Syscall(SyscallReq::MapPage { vpn: 3 })]),
            fp(vec![Instr::Syscall(SyscallReq::UnmapPage { vpn: 3 })])
        );
        assert_ne!(fp(vec![]), fp(vec![Instr::Halt]));
        // Equal programs fingerprint equally; clones too.
        let p = TraceProgram::loads([0x1000, 0x2000]);
        assert_eq!(p.content_fingerprint(), p.clone().content_fingerprint());
        // Advancing the replay position changes the fingerprint.
        let mut q = p.clone();
        q.next(&StepFeedback::default());
        assert_ne!(p.content_fingerprint(), q.content_fingerprint());
        // Observed clocks are bookkeeping, not behaviour.
        let mut r = TraceProgram::new(vec![Instr::ReadClock]);
        let mut s = r.clone();
        r.next(&StepFeedback::default());
        s.next(&StepFeedback {
            clock: Some(Cycles(7)),
            ..Default::default()
        });
        assert_eq!(r.content_fingerprint(), s.content_fingerprint());
        assert!(IdleProgram.content_fingerprint().is_some());
    }

    /// Instructions close in every field still give distinct word
    /// pairs; only send endpoints past the tag word's field saturate.
    #[test]
    fn instr_words_separate_instructions() {
        use SyscallReq::*;
        let big = TAG_FIELD_MAX;
        let instrs = [
            Instr::Load(VAddr(3)),
            Instr::Store(VAddr(3)),
            Instr::Branch {
                taken: false,
                target: VAddr(3),
            },
            Instr::Branch {
                taken: true,
                target: VAddr(3),
            },
            Instr::Compute(3),
            Instr::ReadClock,
            Instr::Halt,
            Instr::Syscall(Send { ep: 3, msg: 3 }),
            Instr::Syscall(Send { ep: 0, msg: 3 }),
            Instr::Syscall(Send {
                ep: big as usize - 1,
                msg: 3,
            }),
            Instr::Syscall(Recv { ep: 3 }),
            Instr::Syscall(Recv { ep: 0 }),
            Instr::Syscall(IoSubmit { line: 3, delay: 3 }),
            Instr::Syscall(IoSubmit { line: 0, delay: 3 }),
            Instr::Syscall(Yield),
            Instr::Syscall(Null),
            Instr::Syscall(MapPage { vpn: 3 }),
            Instr::Syscall(UnmapPage { vpn: 3 }),
        ];
        let words: std::collections::BTreeSet<[u64; 2]> = instrs.iter().map(instr_words).collect();
        assert_eq!(words.len(), instrs.len());
        let send = |ep: usize| instr_words(&Instr::Syscall(Send { ep, msg: 1 }));
        assert_eq!(send(big as usize), send(usize::MAX));
        assert_ne!(send(big as usize - 1), send(big as usize));
        // Saturating, not wrapping: a huge endpoint never aliases a
        // small, valid one.
        assert_ne!(send(0), send(1 << 48));
    }
}

//! Exhaustive small-scope model checking: quantify over *programs*, not
//! just secrets.
//!
//! The replay checker in [`crate::noninterference`] compares Lo's trace
//! across a hand-picked secret set. That leaves a gap the paper's
//! envisioned Isabelle proof would not have: perhaps some *other* Hi
//! behaviour leaks. This module closes the gap in the small-scope
//! spirit: enumerate **every** Hi program up to a length bound over a
//! small instruction alphabet, run each against the same Lo observer on
//! a small machine, and require all Lo traces to be identical.
//!
//! With full time protection the check passes for the whole space —
//! tens of thousands of distinct Hi behaviours — which is as close to
//! the paper's universally-quantified theorem as testing can get. With
//! any mechanism disabled, the enumeration finds a distinguishing Hi
//! program automatically (often a shorter/simpler one than a human
//! would write), doubling as a channel-discovery tool.

use tp_hw::machine::MachineConfig;
use tp_hw::obs::RecordingSink;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
use tp_kernel::domain::{DomainId, ObsEvent};
use tp_kernel::kernel::SystemTemplate;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, SyscallReq, TraceProgram};

/// The small instruction alphabet Hi programs are drawn from. Chosen to
/// touch every channel class: cache occupancy (loads/stores at two
/// distinct colours' worth of addresses), dirtiness, compute time and
/// kernel entries.
pub fn default_alphabet() -> Vec<Instr> {
    vec![
        Instr::Load(data_addr(0)),
        Instr::Load(data_addr(3 * 4096)),
        Instr::Store(data_addr(64)),
        Instr::Store(data_addr(5 * 4096 + 128)),
        Instr::Compute(7),
        Instr::Syscall(SyscallReq::Null),
    ]
}

/// Result of an exhaustive run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExhaustiveVerdict {
    /// Every enumerated Hi program produced the same Lo trace.
    Pass {
        /// Number of Hi programs enumerated (including the empty one).
        programs: usize,
    },
    /// Two Hi programs produced different Lo traces.
    Leak {
        /// Index (in enumeration order) of the distinguishing program.
        program_index: usize,
        /// The distinguishing Hi program.
        witness: Vec<Instr>,
        /// First diverging Lo event index.
        divergence: usize,
        /// Lo's event under the baseline (empty) Hi program.
        baseline_event: Option<ObsEvent>,
        /// Lo's event under the witness.
        witness_event: Option<ObsEvent>,
    },
}

impl ExhaustiveVerdict {
    /// Whether the space was leak-free.
    pub fn passed(&self) -> bool {
        matches!(self, ExhaustiveVerdict::Pass { .. })
    }
}

impl core::fmt::Display for ExhaustiveVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExhaustiveVerdict::Pass { programs } => {
                write!(f, "[EXH] HOLDS over all {programs} Hi programs")
            }
            ExhaustiveVerdict::Leak { program_index, witness, divergence, .. } => write!(
                f,
                "[EXH] LEAK: Hi program #{program_index} ({witness:?}) distinguishes at Lo event {divergence}"
            ),
        }
    }
}

/// Configuration of the exhaustive check.
#[derive(Clone)]
pub struct ExhaustiveConfig {
    /// Machine to run on (keep it small: [`MachineConfig::tiny`]).
    pub mcfg: MachineConfig,
    /// Protection setting under test.
    pub tp: TimeProtConfig,
    /// Instruction alphabet.
    pub alphabet: Vec<Instr>,
    /// Maximum Hi program length (inclusive); the space size is
    /// `sum_{k<=max_len} |alphabet|^k`.
    pub max_len: usize,
    /// Cycle budget per run.
    pub budget: Cycles,
    /// Step cap per run.
    pub max_steps: usize,
}

impl ExhaustiveConfig {
    /// A configuration that finishes in seconds: tiny machine, alphabet
    /// of 6, programs up to length 4 (1 + 6 + 36 + 216 + 1296 = 1555
    /// runs).
    pub fn small(tp: TimeProtConfig) -> Self {
        ExhaustiveConfig {
            mcfg: MachineConfig::tiny(),
            tp,
            alphabet: default_alphabet(),
            max_len: 4,
            budget: Cycles(250_000),
            max_steps: 120_000,
        }
    }
}

/// The fixed Lo observer used by the exhaustive check: a probe sweep
/// with clock reads and a kernel entry per iteration.
fn lo_observer() -> TraceProgram {
    let mut v = Vec::new();
    for _ in 0..10 {
        for i in 0..8 {
            v.push(Instr::Load(data_addr(i * 64)));
        }
        v.push(Instr::ReadClock);
        v.push(Instr::Syscall(SyscallReq::Null));
        v.push(Instr::ReadClock);
    }
    v.push(Instr::Halt);
    TraceProgram::new(v)
}

/// The reusable execution backend of the exhaustive check: a
/// [`SystemTemplate`] built once per configuration, stamped into a
/// cheap pristine copy for every Hi program instead of paying full
/// construction (colour allocation, page tables, kernel-image cloning)
/// ~1.5k times per config. The kernel's template digest tests pin that
/// the copies are indistinguishable from fresh construction, so every
/// checker keeps its bit-identical-verdict guarantee.
///
/// The template carries digest-only sinks, so the hot path
/// ([`ExhaustiveRunner::run_digest`]) stamps, runs and fingerprints a
/// system without building (and dropping) a trace vector per program;
/// the recording paths swap Lo's sink per run, reusing a
/// caller-supplied scratch buffer.
///
/// `Sync`, so the parallel engine shares one runner across all workers.
pub struct ExhaustiveRunner {
    template: SystemTemplate,
    budget: Cycles,
    max_steps: usize,
}

impl ExhaustiveRunner {
    /// Build the template system for `cfg` (with an empty Hi program).
    pub fn new(cfg: &ExhaustiveConfig) -> Self {
        let kcfg = KernelConfig::new(vec![
            DomainSpec::new(Box::new(TraceProgram::new(vec![Instr::Halt])))
                .with_slice(Cycles(8_000))
                .with_pad(Cycles(20_000))
                .with_data_pages(8)
                .with_code_pages(1),
            DomainSpec::new(Box::new(lo_observer()))
                .with_slice(Cycles(8_000))
                .with_pad(Cycles(20_000))
                .with_data_pages(4)
                .with_code_pages(1),
        ])
        .with_tp(cfg.tp);
        ExhaustiveRunner {
            template: SystemTemplate::new(cfg.mcfg.clone(), kcfg)
                .expect("exhaustive system")
                .with_digest_sinks(),
            budget: cfg.budget,
            max_steps: cfg.max_steps,
        }
    }

    /// Stamp a system with `hi` installed as the Hi program.
    fn stamp(&self, hi: &[Instr]) -> tp_kernel::kernel::System {
        let mut hi_prog: Vec<Instr> = Vec::with_capacity(hi.len() + 1);
        hi_prog.extend_from_slice(hi);
        hi_prog.push(Instr::Halt);
        self.template
            .instantiate_with_program(DomainId(0), Box::new(TraceProgram::new(hi_prog)))
    }

    /// Run one Hi program trace-free and return the `(len, digest)`
    /// fingerprint of Lo's observation log — the hot path: no per-event
    /// storage is allocated anywhere in the run.
    pub fn run_digest(&self, hi: &[Instr]) -> (usize, u64) {
        let mut sys = self.stamp(hi);
        sys.run_cycles(self.budget, self.max_steps);
        (sys.obs_len(DomainId(1)), sys.obs_digest(DomainId(1)))
    }

    /// Run one Hi program with Lo recording into `buf` (cleared first,
    /// allocation reused) — the per-worker scratch-buffer path of the
    /// recording mode and of divergence witness extraction.
    pub fn run_recorded_into(&self, hi: &[Instr], buf: &mut Vec<ObsEvent>) {
        let mut sys = self.stamp(hi);
        sys.set_obs_sink(DomainId(1), RecordingSink::with_buffer(std::mem::take(buf)));
        sys.run_cycles(self.budget, self.max_steps);
        *buf = sys
            .take_observation(DomainId(1))
            .expect("recording sink was just installed");
    }

    /// Run one Hi program (plus the fixed Lo observer) and return Lo's
    /// observation log. One-shot convenience over
    /// [`ExhaustiveRunner::run_recorded_into`].
    pub fn run(&self, hi: &[Instr]) -> Vec<ObsEvent> {
        let mut buf = Vec::new();
        self.run_recorded_into(hi, &mut buf);
        buf
    }

    /// A stamped, not-yet-run system with Lo recording — the input the
    /// lockstep witness extractor drives step by step.
    fn recording_system(&self, hi: &[Instr]) -> tp_kernel::kernel::System {
        let mut sys = self.stamp(hi);
        sys.set_obs_sink(DomainId(1), RecordingSink::default());
        sys
    }
}

/// Number of non-empty Hi programs with length in `1..=max_len` over an
/// alphabet of `a` symbols: `sum_{1<=k<=max_len} a^k`.
pub fn space_size(a: usize, max_len: usize) -> usize {
    (1..=max_len).map(|len| a.pow(len as u32)).sum()
}

/// Write the `index`-th Hi program in enumeration order (1-based;
/// shorter programs first, base-`a` counting within a length,
/// least-significant symbol first) into `word` (cleared first), and
/// return whether `index` names one: `false` when `index` is 0 or past
/// the space. The caller's buffer is the per-worker scratch path of the
/// sweep engine, which enumerates tens of thousands of words per sweep
/// without an allocation per word.
///
/// This is the single source of truth for the enumeration order: the
/// sequential checker walks it in order, and the parallel engine shards
/// it by index ranges — so a `Leak { program_index }` means the same
/// program under either driver.
pub fn word_for_index_into(
    alphabet: &[Instr],
    max_len: usize,
    index: usize,
    word: &mut Vec<Instr>,
) -> bool {
    word.clear();
    let a = alphabet.len();
    if index == 0 {
        return false;
    }
    let mut offset = index - 1;
    for len in 1..=max_len {
        let block = a.pow(len as u32);
        if offset < block {
            word.reserve(len);
            let mut c = offset;
            for _ in 0..len {
                word.push(alphabet[c % a]);
                c /= a;
            }
            return true;
        }
        offset -= block;
    }
    false
}

/// Materialise the leak verdict for `word` at `index` by re-running the
/// baseline and the witness in lockstep (recording, stopped at the
/// first diverging Lo event). The pooled digest-first scan
/// ([`crate::engine::check_exhaustive_parallel`]) calls it on a
/// fingerprint mismatch, so a leak found digest-first carries exactly
/// the evidence [`check_exhaustive`]'s recorded comparison would have.
pub(crate) fn recorded_leak(
    runner: &ExhaustiveRunner,
    index: usize,
    word: Vec<Instr>,
) -> ExhaustiveVerdict {
    let (div, baseline_event, witness_event) = crate::noninterference::lockstep_divergence(
        runner.recording_system(&[]),
        runner.recording_system(&word),
        DomainId(1),
        runner.budget,
        runner.max_steps,
    )
    .expect("a fingerprint mismatch implies a trace divergence");
    ExhaustiveVerdict::Leak {
        program_index: index,
        witness: word,
        divergence: div,
        baseline_event,
        witness_event,
    }
}

/// Enumerate every Hi program up to `cfg.max_len` and compare Lo's
/// observations against the empty-program baseline, sequentially and
/// fully recorded: every run's Lo log goes into one scratch buffer
/// reused across words and is compared event by event. This is the
/// reference the pooled digest-first scan
/// ([`crate::engine::check_exhaustive_parallel`]) is pinned against.
pub fn check_exhaustive(cfg: &ExhaustiveConfig) -> ExhaustiveVerdict {
    let runner = ExhaustiveRunner::new(cfg);
    let total = space_size(cfg.alphabet.len(), cfg.max_len);
    let baseline = runner.run(&[]);
    let mut word = Vec::new();
    let mut buf = Vec::new();
    for index in 1..=total {
        assert!(
            word_for_index_into(&cfg.alphabet, cfg.max_len, index, &mut word),
            "index is within the enumerated space"
        );
        runner.run_recorded_into(&word, &mut buf);
        if let Some(div) = crate::noninterference::first_divergence(&baseline, &buf) {
            return ExhaustiveVerdict::Leak {
                program_index: index,
                witness: word,
                divergence: div,
                baseline_event: baseline.get(div).copied(),
                witness_event: buf.get(div).copied(),
            };
        }
    }
    ExhaustiveVerdict::Pass {
        programs: total + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_kernel::config::Mechanism;

    fn quick(tp: TimeProtConfig, max_len: usize) -> ExhaustiveConfig {
        ExhaustiveConfig {
            max_len,
            ..ExhaustiveConfig::small(tp)
        }
    }

    #[test]
    fn full_protection_survives_the_whole_space() {
        // Length ≤ 2 in debug tests (43 runs); the bench runs length 4.
        let v = check_exhaustive(&quick(TimeProtConfig::full(), 2));
        assert!(v.passed(), "{v}");
        if let ExhaustiveVerdict::Pass { programs } = v {
            assert_eq!(
                programs,
                1 + 6 + 36,
                "baseline + length-1 + length-2 programs"
            );
        }
    }

    #[test]
    fn enumeration_finds_a_witness_without_protection() {
        let v = check_exhaustive(&quick(TimeProtConfig::off(), 2));
        assert!(!v.passed(), "an unprotected tiny machine must leak");
        if let ExhaustiveVerdict::Leak { witness, .. } = &v {
            assert!(!witness.is_empty());
            assert!(witness.len() <= 2, "shortest witnesses come first");
        }
        assert!(v.to_string().contains("LEAK"));
    }

    #[test]
    fn enumeration_finds_a_witness_without_padding() {
        let v = check_exhaustive(&quick(TimeProtConfig::full_without(Mechanism::Padding), 2));
        assert!(
            !v.passed(),
            "missing padding must be discoverable by enumeration"
        );
    }

    /// The runner's fingerprint path agrees with its recording path on
    /// a per-word basis.
    #[test]
    fn run_digest_matches_recorded_fingerprint() {
        let runner = ExhaustiveRunner::new(&quick(TimeProtConfig::off(), 2));
        let mut buf = Vec::new();
        for word in [
            vec![],
            vec![Instr::Compute(7)],
            vec![Instr::Store(data_addr(64)), Instr::Load(data_addr(0))],
        ] {
            let (len, digest) = runner.run_digest(&word);
            runner.run_recorded_into(&word, &mut buf);
            assert_eq!(len, buf.len(), "{word:?}");
            assert_eq!(digest, crate::noninterference::obs_digest(&buf), "{word:?}");
        }
    }
}

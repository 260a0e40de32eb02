//! # tp-core — a checkable "proof" of time protection
//!
//! This crate is the primary contribution of the reproduction of
//! *"Can We Prove Time Protection?"* (Heiser, Klein, Murray — HotOS
//! 2019). The paper argues that time protection can be verified with
//! established formal methods by reducing timing-channel reasoning to
//! functional properties over an abstract hardware model:
//!
//! * **[`partition`] (obligation P)** — resource partitioning is applied
//!   at all times and is not bypassable: a pure state invariant.
//! * **[`flush`] (obligation F)** — time-shared state is reset to a
//!   canonical, history-independent state at each domain switch.
//! * **[`padding`] (obligation T)** — switches complete at exactly their
//!   pre-determined instant, verified "by simply comparing time stamps".
//! * **[`noninterference`] (the theorem)** — with P/F/T in place, a
//!   domain's observable trace is independent of other domains'
//!   secrets; checked by exhaustive replay over a secret set.
//! * **[`proof`]** — assembles the above, conditioned on the aISA
//!   hardware contract ([`tp_hw::aisa`]) and quantified over a family of
//!   time models ([`proof::default_time_models`]) to realise §5.1's
//!   "deterministic yet unspecified function" argument.
//! * **[`engine`]** — the scenario-matrix proof engine: flattens the
//!   (time-model × secret) product of [`proof::prove`], the Hi-program
//!   enumeration of [`exhaustive`] and whole machine/ablation sweeps
//!   onto the persistent `tp-sched` worker pool with bit-identical
//!   results, streaming each cell's report as it completes.
//! * **[`wire`]** — the scale-out text format: serialise
//!   [`engine::MatrixCell`]s with their verdicts, shard a sweep across
//!   processes or hosts, and merge back the identical report.
//! * **[`cache`]** — the content-addressed proof-cell cache:
//!   incremental sweeps re-prove only cells whose input fingerprint
//!   changed and replay the rest, with every hit structurally
//!   re-validated so a hostile or stale cache can never flip a verdict.
//!   Its file is an append-only log: each proved cell is appended and
//!   fsynced as it completes, and a torn final group is dropped on load,
//!   so a killed sweep resumes from the same file.
//! * **[`persist`] / [`faultpoint`]** — the rest of the crash-safety
//!   layer: atomic write-temp-fsync-rename persistence (a cache log's
//!   compaction, trace captures), and a deterministic seeded
//!   fault-injection harness (`TP_FAULTS`) that lets CI kill and resume
//!   sweeps at planned points and demand byte-identical final output.
//!
//! Where the paper envisions Isabelle/HOL proofs, this crate *checks*
//! the same obligations mechanically over executions of the modelled
//! system. A failed obligation yields a concrete, replayable witness —
//! which the ablation experiment (E11) uses to show each §4 mechanism
//! is necessary.
//!
//! ## Example
//!
//! ```
//! use tp_core::noninterference::NiScenario;
//! use tp_core::proof::{default_time_models, prove};
//! use tp_hw::machine::MachineConfig;
//! use tp_hw::types::Cycles;
//! use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
//! use tp_kernel::domain::DomainId;
//! use tp_kernel::layout::data_addr;
//! use tp_kernel::program::{Instr, TraceProgram};
//!
//! // Hi stores an amount of data that depends on the secret…
//! let scenario = NiScenario {
//!     mcfg: MachineConfig::single_core(),
//!     make_kcfg: Box::new(|secret| {
//!         let hi = TraceProgram::new(
//!             (0..secret * 16).map(|i| Instr::Store(data_addr(i % 4096 * 64))).collect(),
//!         );
//!         let lo = TraceProgram::new(vec![
//!             Instr::Load(data_addr(0)),
//!             Instr::ReadClock,
//!             Instr::Halt,
//!         ]);
//!         KernelConfig::new(vec![
//!             DomainSpec::new(Box::new(hi)),
//!             DomainSpec::new(Box::new(lo)),
//!         ])
//!         .with_tp(TimeProtConfig::full())
//!     }),
//!     lo: DomainId(1),
//!     secrets: vec![0, 5],
//!     budget: Cycles(300_000),
//!     max_steps: 100_000,
//! };
//! let report = prove(&scenario, &default_time_models()[..1]);
//! assert!(report.time_protection_proved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod exhaustive;
pub mod faultpoint;
pub mod flush;
pub mod noninterference;
pub mod obligation;
pub mod padding;
pub mod partition;
pub mod persist;
pub mod proof;
pub mod wcet;
pub mod wire;

pub use cache::{CacheMiss, CacheStats, JournalWriter, ProofCache, RejectReason};
pub use engine::{
    available_threads, check_exhaustive_parallel, prove_parallel, proved_cells, CellKey,
    CellOutcome, CellOutcomes, MatrixCell, MatrixReport, ProofMode, ProvedCell, ScenarioMatrix,
};
pub use exhaustive::{check_exhaustive, ExhaustiveConfig, ExhaustiveVerdict};
pub use noninterference::{
    check_ni_parts_recording, check_noninterference, obs_digest, NiScenario, NiVerdict,
    TransparencyCert,
};
pub use obligation::{ObligationResult, Violation, ViolationKind};
pub use proof::{default_time_models, prove, ProofReport};
pub use wcet::recommended_pad;

//! # time-protection — a reproduction of "Can We Prove Time Protection?"
//!
//! This is the umbrella crate of a full reproduction of Heiser, Klein &
//! Murray's HotOS 2019 position paper. It re-exports the four layers:
//!
//! * [`hw`] — the abstract microarchitectural model (§5.1): caches, TLB,
//!   predictors, prefetcher, interconnect, interrupt controller, and the
//!   hardware clock driven by a *deterministic yet unspecified* time
//!   model.
//! * [`kernel`] — an seL4-style kernel substrate with the §4 mechanisms:
//!   page-colouring allocation, kernel clone, flushed and padded domain
//!   switches, interrupt partitioning, deterministic IPC delivery.
//! * [`core`] — the paper's contribution made executable: the P/F/T
//!   proof obligations and a noninterference checker (§5.2), assembled
//!   into a [`core::ProofReport`] conditioned on the aISA contract.
//! * [`attacks`] — every channel the paper discusses, implemented and
//!   measured (prime-and-probe, kernel-text probing, interrupt and
//!   interconnect channels, algorithmic crypto timing), with
//!   channel-capacity analysis after Cock et al. (2014).
//!
//! See `examples/quickstart.rs` for a three-minute tour, and
//! `cargo run --release --bin all` for every experiment report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The abstract hardware model (re-export of `tp-hw`).
pub use tp_hw as hw;

/// The kernel substrate (re-export of `tp-kernel`).
pub use tp_kernel as kernel;

/// The persistent sweep scheduler (re-export of `tp-sched`).
pub use tp_sched as sched;

/// The proof harness (re-export of `tp-core`).
pub use tp_core as core;

/// The attack suite (re-export of `tp-attacks`).
pub use tp_attacks as attacks;

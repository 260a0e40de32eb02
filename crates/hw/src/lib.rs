//! # tp-hw — abstract microarchitectural model for time protection
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Can We Prove Time Protection?"* (Heiser, Klein, Murray — HotOS 2019).
//!
//! The paper's §5.1 proposes modelling hardware at exactly the level of
//! abstraction needed for timing-channel reasoning:
//!
//! * the **microarchitectural model** records which state influences
//!   execution time, delineating *partitionable* from *flushable* state;
//! * the **time model** advances a hardware clock by a *deterministic
//!   yet unspecified* function of that state.
//!
//! Everything here follows that recipe. Caches ([`cache::Cache`]), the
//! TLB ([`tlb::Tlb`]), branch predictor ([`branch::BranchPredictor`]),
//! prefetcher ([`prefetch::Prefetcher`]) and interconnect
//! ([`interconnect::Interconnect`]) model occupancy and history — never
//! data values. The clock ([`clock::HwClock`]) advances via a
//! [`clock::TimeModel`], of which several instances exist (a realistic
//! table, a flat control, and *hashed* models realising arbitrary
//! deterministic functions). The [`machine::Machine`] composes them, and
//! [`aisa::check_conformance`] checks the hardware-software contract the
//! paper says proofs must be conditioned on.
//!
//! ## Ghost state
//!
//! Lines, TLB entries and predictor slots carry a ghost
//! [`types::DomainTag`] naming the security domain that installed them.
//! Real hardware has no such tags; they exist so the proof harness in
//! `tp-core` can *state* the partitioning invariant. No timing decision
//! ever reads a ghost tag.
//!
//! ## Example
//!
//! ```
//! use tp_hw::machine::{Machine, MachineConfig};
//! use tp_hw::types::{CoreId, DomainTag, PAddr};
//!
//! let mut m = Machine::new(MachineConfig::single_core());
//! let cold = m
//!     .access_phys(CoreId(0), PAddr(0x4000), false, false, DomainTag(0))
//!     .unwrap();
//! let warm = m
//!     .access_phys(CoreId(0), PAddr(0x4000), false, false, DomainTag(0))
//!     .unwrap();
//! assert!(cold.cycles > warm.cycles); // caches make history visible in time
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aisa;
pub mod branch;
pub mod cache;
pub mod clock;
pub mod interconnect;
pub mod irq;
pub mod machine;
pub mod mem;
pub mod obs;
pub mod prefetch;
pub mod tlb;
pub mod types;

pub use aisa::{check_conformance, ConformanceReport, Resource, ResourceClass};
pub use cache::{Cache, CacheConfig, ReplacementPolicy};
pub use clock::{CostTable, HwClock, MemEvent, MemLevel, TimeModel};
pub use machine::{AddressSpace, Machine, MachineConfig, Translation, WalkFootprint};
pub use obs::{fold_obs_event, obs_digest, ObsEvent, ObsSink, Observation};
pub use types::{Asid, Colour, CoreId, Cycles, DomainTag, Fault, Generation, PAddr, VAddr};

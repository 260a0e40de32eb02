//! Invalidation property wall for the content-addressed proof cache:
//! the cache key must track **every** input the verdict depends on.
//! Two families of properties:
//!
//! 1. *Sensitivity* — perturbing any single field of the cell's input
//!    fingerprint (machine shape, ablation, protection flags, time
//!    models, scheduling parameters, secrets, kernel programs) yields a
//!    different key, so a stale entry can never be
//!    addressed by a changed configuration.
//! 2. *Stability* — rebuilding the identical inputs yields the
//!    identical key (unchanged inputs always hit), and across a random
//!    space of configurations, key equality coincides exactly with
//!    input-fingerprint equality (no collisions observed).
//!
//! A configuration containing a program that declines to fingerprint
//! itself must be uncacheable (`cell_key == None`), never mis-keyed.

use std::collections::BTreeMap;

use proptest::prelude::*;

use tp_core::cache::cell_key;
use tp_core::engine::{MatrixCell, ProofMode};
use tp_core::noninterference::NiScenario;
use tp_hw::clock::TimeModel;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, Program, StepFeedback, TraceProgram};

/// Every knob the cache key is derived from, in plain-data form so
/// single-field perturbations are explicit and exhaustive.
#[derive(Clone, Debug)]
struct Spec {
    machine_label: String,
    cores: usize,
    smt: bool,
    prefetcher: bool,
    disable: Option<Mechanism>,
    tp: TimeProtConfig,
    models: Vec<TimeModel>,
    lo: usize,
    budget: u64,
    max_steps: usize,
    secrets: Vec<u64>,
    /// Kernel-side content: per-secret store count of the HI program.
    hi_stride: u64,
    slice: u64,
    pad: u64,
}

impl Spec {
    fn baseline() -> Spec {
        Spec {
            machine_label: "inv".to_string(),
            cores: 1,
            smt: false,
            prefetcher: true,
            disable: None,
            tp: TimeProtConfig::full(),
            models: vec![TimeModel::intel_like(), TimeModel::hashed(0x5eed)],
            lo: 1,
            budget: 400_000,
            max_steps: 150_000,
            secrets: vec![0, 3, 7],
            hi_stride: 16,
            slice: 15_000,
            pad: 25_000,
        }
    }

    /// Deterministically expand a seed into a spec covering the input
    /// space (mirrors `synth_cell` in `wire_roundtrip.rs`).
    fn from_seed(seed: u64) -> Spec {
        let pick = |n: u64, k: u32| (seed / 7u64.pow(k)) % n;
        let mut s = Spec::baseline();
        s.machine_label = format!("inv-{}", pick(4, 0));
        s.cores = 1 + pick(3, 1) as usize;
        s.smt = pick(2, 2) == 1;
        s.prefetcher = pick(2, 3) == 1;
        s.disable = match pick(5, 4) {
            0 => None,
            1 => Some(Mechanism::Colouring),
            2 => Some(Mechanism::Flush),
            3 => Some(Mechanism::Padding),
            _ => Some(Mechanism::IrqPartition),
        };
        s.tp = match &s.disable {
            None => TimeProtConfig::full(),
            Some(m) => TimeProtConfig::full_without(*m),
        };
        s.tp.deterministic_ipc = pick(2, 5) == 1;
        s.models.truncate(1 + pick(2, 6) as usize);
        if pick(2, 7) == 1 {
            s.models.push(TimeModel::hashed(0x1000 + pick(8, 8)));
        }
        s.lo = pick(2, 9) as usize;
        s.budget = 300_000 + 1000 * pick(64, 10);
        s.max_steps = 100_000 + 100 * pick(64, 11) as usize;
        s.secrets = (0..2 + pick(3, 12))
            .map(|i| i * (1 + pick(9, 13)))
            .collect();
        s.hi_stride = 8 + pick(32, 14);
        s.slice = 10_000 + 100 * pick(32, 15);
        s.pad = s.slice + 5_000 + 100 * pick(32, 16);
        s
    }

    fn build(&self) -> (MatrixCell, NiScenario) {
        let mut mcfg = MachineConfig::single_core();
        mcfg.cores = self.cores;
        mcfg.smt = self.smt;
        mcfg.prefetcher_enabled = self.prefetcher;
        let cell = MatrixCell {
            machine: self.machine_label.clone(),
            mcfg: mcfg.clone(),
            disable: self.disable,
            tp: self.tp,
        };
        let (tp, stride, slice, pad) = (self.tp, self.hi_stride, self.slice, self.pad);
        let scenario = NiScenario {
            mcfg,
            make_kcfg: Box::new(move |secret| {
                let hi = TraceProgram::new(
                    (0..secret * stride)
                        .map(|i| Instr::Store(data_addr((i * 64) % (8 * 4096))))
                        .collect(),
                );
                let lo = TraceProgram::new(vec![Instr::ReadClock, Instr::Halt]);
                KernelConfig::new(vec![
                    DomainSpec::new(Box::new(hi))
                        .with_slice(Cycles(slice))
                        .with_pad(Cycles(pad)),
                    DomainSpec::new(Box::new(lo))
                        .with_slice(Cycles(slice))
                        .with_pad(Cycles(pad)),
                ])
                .with_tp(tp)
            }),
            lo: DomainId(self.lo),
            secrets: self.secrets.clone(),
            budget: Cycles(self.budget),
            max_steps: self.max_steps,
        };
        (cell, scenario)
    }

    fn key(&self) -> Option<u64> {
        let (cell, scenario) = self.build();
        cell_key(&cell, &self.models, &scenario, ProofMode::Certified)
    }

    /// Canonical rendering of every field the key folds — two specs
    /// with equal reprs are the same cache input by construction.
    fn repr(&self) -> String {
        let (cell, scenario) = self.build();
        let kfps: Vec<Option<u64>> = self
            .secrets
            .iter()
            .map(|&s| (scenario.make_kcfg)(s).content_fingerprint())
            .collect();
        format!(
            "{cell:?}|{:?}|{:?}|{:?}|{}|{:?}|{kfps:?}",
            self.models, scenario.lo, scenario.budget, scenario.max_steps, self.secrets
        )
    }
}

/// A named single-field edit of a [`Spec`].
type Perturbation = (&'static str, fn(&mut Spec));

/// The full catalogue of single-field perturbations; each must flip
/// the key on any spec it is applied to.
fn perturbations() -> Vec<Perturbation> {
    vec![
        ("machine label", |s| s.machine_label.push('x')),
        ("core count", |s| s.cores += 1),
        ("smt", |s| s.smt = !s.smt),
        ("prefetcher", |s| s.prefetcher = !s.prefetcher),
        ("ablation tag", |s| {
            s.disable = match s.disable {
                None => Some(Mechanism::Padding),
                Some(Mechanism::Padding) => Some(Mechanism::Flush),
                Some(_) => None,
            }
        }),
        ("tp colouring", |s| s.tp.colouring = !s.tp.colouring),
        ("tp flush", |s| s.tp.flush_on_switch = !s.tp.flush_on_switch),
        ("tp llc flush", |s| {
            s.tp.flush_llc_on_switch = !s.tp.flush_llc_on_switch
        }),
        ("tp padding", |s| s.tp.pad_switch = !s.tp.pad_switch),
        ("tp irq", |s| s.tp.irq_partition = !s.tp.irq_partition),
        ("tp kernel clone", |s| {
            s.tp.kernel_clone = !s.tp.kernel_clone
        }),
        ("tp det ipc", |s| {
            s.tp.deterministic_ipc = !s.tp.deterministic_ipc
        }),
        ("model added", |s| s.models.push(TimeModel::hashed(0xfeed))),
        ("model dropped", |s| {
            s.models.pop();
        }),
        ("model seed", |s| {
            *s.models.last_mut().unwrap() = TimeModel::hashed(0x0dd5)
        }),
        ("observer domain", |s| s.lo ^= 1),
        ("budget", |s| s.budget += 1),
        ("max steps", |s| s.max_steps += 1),
        ("secret value", |s| s.secrets[0] += 100),
        ("secret added", |s| s.secrets.push(91)),
        ("secret dropped", |s| {
            s.secrets.pop();
        }),
        ("secret order", |s| s.secrets.swap(0, 1)),
        ("hi program", |s| s.hi_stride += 1),
        ("slice", |s| s.slice += 1),
        ("pad", |s| s.pad += 1),
    ]
}

/// Unchanged inputs rebuild to the identical key — the hit guarantee.
#[test]
fn identical_inputs_share_a_key() {
    let a = Spec::baseline().key().expect("baseline is cacheable");
    let b = Spec::baseline().key().expect("baseline is cacheable");
    assert_eq!(a, b);
}

/// Keys are persisted in cache files, so the key function is pinned: if
/// this fails, every stored key just changed meaning, and `CACHE_SALT`
/// must be bumped before the value is re-pinned.
#[test]
fn baseline_key_is_pinned() {
    assert_eq!(
        (tp_core::cache::CACHE_SALT, Spec::baseline().key()),
        (0x7470_cace_0000_0003, Some(0x88fc_ab34_d80e_5b53))
    );
}

/// Every single-field perturbation of the baseline flips the key, and
/// no two perturbations collide with each other either.
#[test]
fn every_single_field_perturbation_changes_the_key() {
    let base = Spec::baseline();
    let mut seen: BTreeMap<u64, &'static str> = BTreeMap::new();
    seen.insert(base.key().unwrap(), "baseline");
    for (name, mutate) in perturbations() {
        let mut p = base.clone();
        mutate(&mut p);
        let key = p.key().unwrap_or_else(|| panic!("{name}: uncacheable"));
        if let Some(prev) = seen.insert(key, name) {
            panic!("key collision: '{name}' and '{prev}' share {key:#x}");
        }
    }
}

/// A program that refuses to fingerprint itself (the trait default)
/// makes the whole cell uncacheable rather than weakly keyed.
#[test]
fn opaque_programs_are_uncacheable() {
    #[derive(Clone, Debug)]
    struct OpaqueProgram;
    impl Program for OpaqueProgram {
        fn next(&mut self, _feedback: &StepFeedback) -> Instr {
            Instr::Halt
        }
    }
    assert!(OpaqueProgram.content_fingerprint().is_none());

    let spec = Spec::baseline();
    let (cell, mut scenario) = spec.build();
    let tp = spec.tp;
    scenario.make_kcfg = Box::new(move |_| {
        KernelConfig::new(vec![
            DomainSpec::new(Box::new(OpaqueProgram)),
            DomainSpec::new(Box::new(OpaqueProgram)),
        ])
        .with_tp(tp)
    });
    assert_eq!(
        cell_key(&cell, &spec.models, &scenario, ProofMode::Certified),
        None
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across a random batch of configurations, keys are deterministic
    /// and collide exactly when the full input fingerprint is equal.
    #[test]
    fn keys_collide_only_for_identical_inputs(
        seeds in prop::collection::vec(any::<u64>(), 2..16)
    ) {
        let mut by_key: BTreeMap<u64, String> = BTreeMap::new();
        let mut by_repr: BTreeMap<String, u64> = BTreeMap::new();
        for &seed in &seeds {
            let spec = Spec::from_seed(seed);
            let key = spec.key().expect("generated specs are cacheable");
            prop_assert_eq!(key, Spec::from_seed(seed).key().unwrap());
            let repr = spec.repr();
            if let Some(&prev_key) = by_repr.get(&repr) {
                prop_assert_eq!(prev_key, key, "same inputs, different key");
            }
            if let Some(prev_repr) = by_key.get(&key) {
                prop_assert_eq!(prev_repr, &repr, "different inputs, same key");
            }
            by_key.insert(key, repr.clone());
            by_repr.insert(repr, key);
        }
    }

    /// Sensitivity holds at every random point of the space, not just
    /// around the baseline.
    #[test]
    fn random_point_perturbations_change_the_key(
        seed in any::<u64>(),
        which in 0usize..26,
    ) {
        let cases = perturbations();
        let (name, mutate) = cases[which % cases.len()];
        let spec = Spec::from_seed(seed);
        let mut p = spec.clone();
        mutate(&mut p);
        // Guard degenerate edits (dropping below the 1-model floor or
        // below the 2-secret floor); skip those draws.
        if p.models.is_empty() || p.secrets.len() < 2 {
            continue;
        }
        let a = spec.key().unwrap();
        let b = p.key().unwrap();
        prop_assert_ne!(a, b, "perturbation '{}' did not flip the key", name);
    }
}

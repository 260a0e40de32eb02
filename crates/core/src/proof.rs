//! The assembled "proof" of time protection (§5).
//!
//! [`prove`] discharges, for a given scenario, everything the paper says
//! a proof of time protection consists of:
//!
//! 1. **Hardware assumptions** — the aISA contract holds for the machine
//!    (every timing-relevant resource partitionable or flushable;
//!    §4.1/§5.1). Checked by `tp_hw::aisa`. The stateless interconnect
//!    is permitted to fail the contract, mirroring the paper's explicit
//!    scope limitation (§2); the report records this as an assumption.
//! 2. **P/F/T** — the functional obligations, monitored over a real
//!    execution for every secret.
//! 3. **NI** — the noninterference theorem, checked by exhaustive replay
//!    over the secret set.
//! 4. **Time-model independence** — 1–3 are re-checked under a family of
//!    [`TimeModel`]s (a realistic table and several hashed "unspecified
//!    deterministic functions"); §5.1's central claim is that the result
//!    cannot depend on which one the hardware implements.

use crate::noninterference::{
    compare_secret_runs, lo_trace, obs_digest, run_monitored, NiScenario, NiVerdict,
    TransparencyCert,
};
use crate::obligation::ObligationResult;
use tp_hw::aisa::{check_conformance, ConformanceReport};
use tp_hw::clock::TimeModel;
use tp_kernel::domain::ObsEvent;
use tp_kernel::kernel::System;

/// NI verdict under one time model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelVerdict {
    /// The time model used.
    pub model: TimeModel,
    /// The NI verdict under it.
    pub verdict: NiVerdict,
}

/// The full report assembled by [`prove`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProofReport {
    /// Hardware-contract check.
    pub aisa: ConformanceReport,
    /// Partitioning obligation, accumulated over all runs.
    pub p: ObligationResult,
    /// Flush obligation.
    pub f: ObligationResult,
    /// Padding obligation.
    pub t: ObligationResult,
    /// NI verdict per time model.
    pub ni: Vec<ModelVerdict>,
    /// Total monitored steps (proof effort metric).
    pub steps: usize,
    /// Observation-transparency certificate for the monitors (digest of
    /// the monitored Lo trace vs the plain replay, from the first
    /// (model, secret) cell). `None` on reports parsed from wire
    /// records predating the field.
    pub transparency: Option<TransparencyCert>,
}

impl ProofReport {
    /// The paper's bottom line: hardware honours the contract (modulo
    /// the out-of-scope interconnect), the functional obligations hold,
    /// monitoring is certifiably invisible in Lo's trace, and
    /// noninterference holds under every time model tried.
    pub fn time_protection_proved(&self) -> bool {
        self.aisa.conformant_modulo_interconnect()
            && self.p.holds()
            && self.f.holds()
            && self.t.holds()
            && self.transparency.map_or(true, |c| c.transparent())
            && self.ni.iter().all(|m| m.verdict.passed())
    }

    /// Whether the only unmet hardware assumption is the interconnect —
    /// i.e. the result holds exactly within the paper's stated scope.
    pub fn interconnect_is_only_gap(&self) -> bool {
        !self.aisa.conformant() && self.aisa.conformant_modulo_interconnect()
    }
}

impl core::fmt::Display for ProofReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "=== Time-protection proof report ===")?;
        writeln!(
            f,
            "hardware contract (aISA): {}{}",
            if self.aisa.conformant_modulo_interconnect() {
                "HOLDS"
            } else {
                "VIOLATED"
            },
            if self.interconnect_is_only_gap() {
                "  [stateless interconnect excluded per §2]"
            } else {
                ""
            }
        )?;
        for v in &self.aisa.verdicts {
            writeln!(
                f,
                "  {:?}: {:?}{}",
                v.resource,
                v.class,
                if v.sufficient {
                    ""
                } else {
                    "  <-- insufficient"
                }
            )?;
        }
        writeln!(f, "{}", self.p)?;
        writeln!(f, "{}", self.f)?;
        writeln!(f, "{}", self.t)?;
        for m in &self.ni {
            writeln!(f, "{}   (time model: {:?})", m.verdict, m.model)?;
        }
        if let Some(cert) = &self.transparency {
            writeln!(f, "{cert}")?;
        }
        writeln!(
            f,
            "CONCLUSION: time protection {} ({} monitored steps)",
            if self.time_protection_proved() {
                "PROVED"
            } else {
                "NOT proved"
            },
            self.steps
        )
    }
}

/// The default family of time models a proof is checked under: two
/// realistic tables (Intel- and ARM-like) plus several hashed
/// "unspecified deterministic functions" (§5.1).
pub fn default_time_models() -> Vec<TimeModel> {
    let mut v = vec![
        TimeModel::intel_like(),
        TimeModel::Table(tp_hw::clock::CostTable::arm_like()),
    ];
    for seed in [0xdead_beef, 0x1234_5678, 0x0bad_cafe] {
        v.push(TimeModel::hashed(seed));
    }
    v
}

/// Discharge all obligations for `scenario` under `models`.
///
/// This is the paranoid double-run reference: for each (model,
/// secret), the system is run twice — once under monitoring
/// (accumulating P/F/T and the rolling trace digest) and once plain
/// (the NI replay baseline), both fully recorded. The
/// first pair's digests form the [`TransparencyCert`]; the digest-first
/// certified single-run engine ([`crate::engine::prove_parallel`]) —
/// which materialises no trace at all on its hot path — must produce a
/// bit-identical report. The scenario's own `mcfg.time_model` is
/// overridden by each model in turn.
pub fn prove(scenario: &NiScenario, models: &[TimeModel]) -> ProofReport {
    assert!(!models.is_empty(), "need at least one time model");
    let aisa = check_conformance(&scenario.mcfg);

    let mut p = ObligationResult::new("P");
    let mut f = ObligationResult::new("F");
    let mut t = ObligationResult::new("T");
    let mut ni = Vec::new();
    let mut steps = 0;
    let mut transparency: Option<TransparencyCert> = None;

    for model in models {
        let mut mcfg = scenario.mcfg.clone();
        mcfg.time_model = *model;

        let mut runs: Vec<(u64, Vec<ObsEvent>)> = Vec::with_capacity(scenario.secrets.len());
        for &s in &scenario.secrets {
            // Monitored run (P/F/T evidence + certified trace digest).
            let kcfg = (scenario.make_kcfg)(s);
            let sys = System::new(mcfg.clone(), kcfg)
                .expect("scenario construction must succeed for every secret");
            let run = run_monitored(sys, scenario.lo, scenario.budget, scenario.max_steps);
            let (lo_digest, switch_digest) = (run.lo_digest, run.switch_digest);
            p.merge(run.p);
            f.merge(run.f);
            t.merge(run.t);
            steps += run.steps;

            // Plain replay: the NI baseline of the double-run reference.
            let trace = lo_trace(
                &mcfg,
                &(scenario.make_kcfg)(s),
                scenario.lo,
                scenario.budget,
                scenario.max_steps,
            );
            if transparency.is_none() {
                transparency = Some(TransparencyCert {
                    monitored_digest: lo_digest,
                    replay_digest: obs_digest(&trace),
                    switch_digest,
                });
            }
            runs.push((s, trace));
        }
        ni.push(ModelVerdict {
            model: *model,
            verdict: compare_secret_runs(&runs),
        });
    }

    ProofReport {
        aisa,
        p,
        f,
        t,
        ni,
        steps,
        transparency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_hw::machine::MachineConfig;
    use tp_hw::types::Cycles;
    use tp_kernel::config::{DomainSpec, KernelConfig, TimeProtConfig};
    use tp_kernel::domain::DomainId;
    use tp_kernel::layout::data_addr;
    use tp_kernel::program::{Instr, TraceProgram};

    fn scenario(tp: TimeProtConfig) -> NiScenario {
        let hi = |secret: u64| {
            TraceProgram::new(
                (0..secret * 48)
                    .map(|i| Instr::Store(data_addr((i * 64) % (16 * 4096))))
                    .collect(),
            )
        };
        let lo = || {
            let mut v = Vec::new();
            for _ in 0..25 {
                for i in 0..24 {
                    v.push(Instr::Load(data_addr(i * 64)));
                }
                v.push(Instr::ReadClock);
            }
            v.push(Instr::Halt);
            TraceProgram::new(v)
        };
        NiScenario {
            mcfg: MachineConfig::single_core(),
            make_kcfg: Box::new(move |secret| {
                KernelConfig::new(vec![
                    DomainSpec::new(Box::new(hi(secret)))
                        .with_slice(Cycles(15_000))
                        .with_pad(Cycles(25_000)),
                    DomainSpec::new(Box::new(lo()))
                        .with_slice(Cycles(15_000))
                        .with_pad(Cycles(25_000)),
                ])
                .with_tp(tp)
            }),
            lo: DomainId(1),
            secrets: vec![0, 7],
            budget: Cycles(900_000),
            max_steps: 250_000,
        }
    }

    #[test]
    fn full_protection_is_proved_under_all_models() {
        let report = prove(&scenario(TimeProtConfig::full()), &default_time_models());
        assert!(report.time_protection_proved(), "{report}");
        assert!(report.interconnect_is_only_gap());
        assert_eq!(report.ni.len(), default_time_models().len());
        let text = report.to_string();
        assert!(text.contains("PROVED"));
        assert!(text.contains("interconnect excluded"));
        let cert = report.transparency.expect("prove must certify monitoring");
        assert!(cert.transparent(), "{cert}");
        assert!(text.contains("observation-transparent"), "{text}");
    }

    /// A non-transparent certificate must sink the proof — reusing a
    /// perturbed monitored trace as NI evidence would be unsound.
    #[test]
    fn perturbed_transparency_fails_the_proof() {
        let mut report = prove(
            &scenario(TimeProtConfig::full()),
            &[tp_hw::clock::TimeModel::intel_like()],
        );
        assert!(report.time_protection_proved());
        let cert = report.transparency.as_mut().unwrap();
        cert.replay_digest = cert.monitored_digest.wrapping_add(1);
        assert!(!report.time_protection_proved());
        assert!(report.to_string().contains("NOT transparent"));
    }

    #[test]
    fn unprotected_system_fails_the_proof() {
        let report = prove(
            &scenario(TimeProtConfig::off()),
            &[tp_hw::clock::TimeModel::intel_like()],
        );
        assert!(!report.time_protection_proved());
        assert!(
            report.ni.iter().any(|m| !m.verdict.passed()),
            "NI must fail"
        );
        assert!(report.to_string().contains("NOT proved"));
    }

    #[test]
    #[should_panic(expected = "at least one time model")]
    fn rejects_empty_model_family() {
        prove(&scenario(TimeProtConfig::full()), &[]);
    }
}

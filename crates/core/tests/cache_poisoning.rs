//! Adversarial cache-poisoning suite: a cached verdict is only as
//! trustworthy as the tests that try to forge one. Mirroring the
//! fault-injection style of `witness_channels.rs`, every case plants a
//! specific tampering in an otherwise-valid cache — corrupted
//! fingerprints, flipped verdicts, forged certificates, truncated or
//! duplicated records, re-keyed and stale-salt entries, and (the
//! strongest class) *self-consistent* forgeries whose checksum is
//! recomputed to match — and proves the sweep **fails closed**: the
//! poisoned entry is rejected, the cell re-proves live, and the sweep's
//! output stays byte-identical to an uncached run. Each case carries a
//! passing control: the same cache untampered must hit every cell.

use std::sync::OnceLock;

use tp_core::cache::{cell_key, CacheMiss, CacheStats, ProofCache, RejectReason};
use tp_core::engine::{proved_cells, MatrixCell, ProofMode, ScenarioMatrix};
use tp_core::noninterference::{NiScenario, NiVerdict};
use tp_core::proof::{default_time_models, ProofReport};
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;

/// Two cells — full protection (a cached `Pass`) and the padding
/// ablation (a cached `Leak`) — so both verdict kinds sit in the cache
/// under tampering. Two time models keep the fingerprint table
/// non-trivial (model-major, 2 × 3 entries per cell).
fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("poison", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(default_time_models()[..2].to_vec())
}

/// Deterministic scenario with a leaky secret-dependence. Applies the
/// cell's machine and protection itself, so [`cell_key`] computed here
/// matches the engine's.
fn scenario_for(cell: &MatrixCell) -> NiScenario {
    let tp = cell.tp;
    NiScenario {
        mcfg: cell.mcfg.clone(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * 24)
                    .map(|i| Instr::Store(data_addr((i * 64) % (8 * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..20 {
                for i in 0..24 {
                    lo.push(Instr::Load(data_addr(i * 64)));
                }
                lo.push(Instr::ReadClock);
            }
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_slice(Cycles(15_000))
                    .with_pad(Cycles(25_000)),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_slice(Cycles(15_000))
                    .with_pad(Cycles(25_000)),
            ])
            .with_tp(tp)
        }),
        lo: DomainId(1),
        secrets: vec![0, 3, 7],
        budget: Cycles(500_000),
        max_steps: 200_000,
    }
}

type Triples = Vec<(usize, MatrixCell, ProofReport)>;

/// The shared fixture: the uncached reference output and the
/// serialised cache a cold run produced (2 cells, both cacheable).
fn fixture() -> &'static (Triples, String) {
    static FIXTURE: OnceLock<(Triples, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let m = matrix();
        let pool = WorkerPool::new(2);
        let all: Vec<usize> = (0..m.cells().len()).collect();
        let mut cache = ProofCache::new();
        let (outcomes, stats) = m.sweep(&pool, &all, Some(&mut cache), scenario_for, |_, _, _| {});
        let triples = proved_cells(outcomes).expect("every fixture cell proves");
        assert_eq!(stats.reproved(), all.len(), "fixture must start cold");
        assert_eq!(cache.len(), all.len(), "every fixture cell is cacheable");
        (triples, cache.save())
    })
}

/// Run the sweep warm against `cache_text`.
fn warm_run(cache_text: &str) -> (Triples, CacheStats) {
    let m = matrix();
    let pool = WorkerPool::new(2);
    let all: Vec<usize> = (0..m.cells().len()).collect();
    let mut cache = ProofCache::load(cache_text).expect("tampered text must still parse here");
    let (outcomes, stats) = m.sweep(&pool, &all, Some(&mut cache), scenario_for, |_, _, _| {});
    (proved_cells(outcomes).expect("every cell proves"), stats)
}

/// Replace the first line for which `f` returns a replacement; panics
/// if nothing matched (a tamper that misses its target tests nothing).
fn tamper_first(text: &str, mut f: impl FnMut(&str) -> Option<String>) -> String {
    let mut hit = false;
    let mut out = String::new();
    for l in text.lines() {
        if !hit {
            if let Some(n) = f(l) {
                hit = true;
                out.push_str(&n);
                out.push('\n');
                continue;
            }
        }
        out.push_str(l);
        out.push('\n');
    }
    assert!(hit, "tamper matched no line");
    out
}

/// Flip the last digit of the decimal number following `prefix` on the
/// first line containing `tag` — an in-range single-field corruption.
fn flip_field(text: &str, tag: &str, prefix: &str) -> String {
    tamper_first(text, |l| {
        if !l.starts_with(tag) {
            return None;
        }
        let at = l.find(prefix)? + prefix.len();
        let end = l[at..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(l.len(), |o| at + o);
        assert!(end > at, "no number after {prefix}");
        let digit = &l[end - 1..end];
        let flipped = if digit == "1" { "2" } else { "1" };
        Some(format!("{}{}{}", &l[..end - 1], flipped, &l[end..]))
    })
}

/// Assert the poisoned cache fails closed: at least `min_rejected`
/// entries rejected, every cell's output identical to the uncached
/// reference — then run the untampered control, which must hit fully.
fn assert_fails_closed(poisoned: &str, min_rejected: usize, label: &str) {
    let (reference, good) = fixture();
    let (triples, stats) = warm_run(poisoned);
    assert!(
        stats.rejected >= min_rejected,
        "{label}: expected ≥{min_rejected} rejections, got {stats}"
    );
    assert_eq!(
        &triples, reference,
        "{label}: output must equal the uncached reference"
    );
    // Control: the same cache untampered hits every cell.
    let (control, cstats) = warm_run(good);
    assert_eq!(cstats.hits, reference.len(), "{label}: control must hit");
    assert_eq!(cstats.reproved(), 0, "{label}: control must not re-prove");
    assert_eq!(&control, reference, "{label}: control output");
}

#[test]
fn tampered_fingerprint_digest_is_rejected() {
    let (_, good) = fixture();
    // Corrupt one digest inside the first entry's fps table: the
    // checksum no longer re-derives.
    let poisoned = tamper_first(good, |l| {
        if !l.starts_with("cached i=0") {
            return None;
        }
        // Flip the final digit of the last digest — an in-range edit,
        // so rejection comes from the checksum, not the parser.
        let digit = &l[l.len() - 1..];
        let flipped = if digit == "1" { "2" } else { "1" };
        Some(format!("{}{}", &l[..l.len() - 1], flipped))
    });
    assert_fails_closed(&poisoned, 1, "tampered fps digest");
}

#[test]
fn flipped_verdict_record_is_rejected() {
    let (_, good) = fixture();
    // Turn the full-protection cell's Pass into a fabricated Leak: the
    // stored bytes diverge from the checksummed canonical form.
    let poisoned = tamper_first(good, |l| {
        if l.starts_with("ni ") && l.contains("verdict=pass:") {
            let head = &l[..l.find("verdict=").unwrap()];
            Some(format!("{head}verdict=leak:0:3:0:-:-"))
        } else {
            None
        }
    });
    assert_fails_closed(&poisoned, 1, "flipped pass→leak");

    // And the other direction: whitewash a Leak into a Pass.
    let poisoned = tamper_first(good, |l| {
        if l.starts_with("ni ") && l.contains("verdict=leak:") {
            let head = &l[..l.find("verdict=").unwrap()];
            Some(format!("{head}verdict=pass:3:999"))
        } else {
            None
        }
    });
    assert_fails_closed(&poisoned, 1, "whitewashed leak→pass");
}

#[test]
fn forged_cert_record_is_rejected() {
    let (_, good) = fixture();
    let poisoned = flip_field(good, "cert ", "monitored=");
    assert_fails_closed(&poisoned, 1, "forged cert digest");
}

#[test]
fn corrupted_checksum_is_rejected() {
    let (_, good) = fixture();
    let poisoned = flip_field(good, "cached ", "check=");
    assert_fails_closed(&poisoned, 1, "corrupted checksum");
}

#[test]
fn stale_salt_is_rejected() {
    let (_, good) = fixture();
    // An entry from a hypothetical other engine version: same key,
    // different salt. Must be retired, not believed.
    let poisoned = flip_field(good, "cached ", "salt=");
    assert_fails_closed(&poisoned, 1, "stale version salt");
}

#[test]
fn duplicated_ni_record_is_rejected() {
    let (_, good) = fixture();
    // Doubling an `ni` record leaves the group parseable but its
    // canonical serialisation — and verdict table shape — diverge.
    let mut dup: Option<String> = None;
    let poisoned = tamper_first(good, |l| {
        if l.starts_with("ni i=0") && dup.is_none() {
            dup = Some(l.to_string());
            Some(format!("{l}\n{l}"))
        } else {
            None
        }
    });
    assert_fails_closed(&poisoned, 1, "duplicated ni record");
}

#[test]
fn duplicated_entry_cannot_double_prove() {
    let (reference, good) = fixture();
    // A fully duplicated cache (concatenated with itself, re-indexed
    // groups not required — indices are per-group) collapses last-wins
    // to the same entries: still hits, still identical output.
    let doubled = format!("{good}{good}");
    let (triples, stats) = warm_run(&doubled);
    assert_eq!(stats.hits, reference.len(), "duplicate entries collapse");
    assert_eq!(&triples, reference);
}

#[test]
fn truncated_cache_fails_to_parse() {
    let (_, good) = fixture();
    // Cut the file inside its LAST group: that is what a crash
    // mid-append leaves, so the torn group is dropped and counted and
    // the survivor loads (the dropped cell simply re-proves).
    let cut = good.rfind("end i=").unwrap();
    let torn = ProofCache::load(&good[..cut]).expect("a torn tail is not corruption");
    assert_eq!((torn.len(), torn.torn_dropped()), (1, 1));
    // Cut a piece out of the FIRST group while the second follows:
    // no crash does that, so the loader must refuse the whole file
    // (callers then stop with the malformed-input exit) rather than
    // silently half-load.
    let second = good.find("end i=0\n").unwrap() + "end i=0\n".len();
    let spliced = format!("{}{}", &good[..second / 2], &good[second..]);
    assert!(
        ProofCache::load(&spliced).is_err(),
        "a mid-file cut must not load"
    );
    // Control: the full text loads.
    let whole = ProofCache::load(good).unwrap();
    assert_eq!((whole.len(), whole.torn_dropped()), (2, 0));
}

#[test]
fn rekeyed_entry_is_never_addressed() {
    let (_, good) = fixture();
    // Moving an entry to a different key makes it unreachable under
    // the true key (a plain miss → live re-prove), and unusable under
    // the forged key (the stored key is checksummed and cross-checked).
    let poisoned = flip_field(good, "cached i=0", "key=");
    let (reference, _) = fixture();
    let (triples, stats) = warm_run(&poisoned);
    assert_eq!(stats.hits, 1, "the untouched entry still hits");
    assert_eq!(stats.misses, 1, "the re-keyed cell misses");
    assert_eq!(&triples, reference, "re-keyed entry: output");
}

/// The strongest adversary this design can catch: forge an entry and
/// *recompute its checksum* so it is internally consistent. The
/// verdict-rederivation and cert-grounding checks must still reject
/// it, because the forged claims contradict the stored fingerprints.
#[test]
fn self_consistent_forgeries_are_still_rejected() {
    let m = matrix();
    let cells = m.cells();
    let models = m.models().to_vec();
    let (_, good) = fixture();
    let cache = ProofCache::load(good).unwrap();

    // Recover the full-protection cell's key and entry.
    let cell = &cells[0];
    let scenario = scenario_for(cell);
    let key = cell_key(cell, &models, &scenario, ProofMode::Certified).expect("cacheable");
    let entry = cache
        .lookup(key, cell, &models, &scenario.secrets)
        .expect("fixture entry validates");
    let (fps, report) = (entry.fps.clone(), entry.report.clone());

    let reject = |forged: &ProofCache, want: RejectReason, label: &str| match forged.lookup(
        key,
        cell,
        &models,
        &scenario.secrets,
    ) {
        Err(CacheMiss::Rejected(r)) => assert_eq!(r, want, "{label}"),
        Err(CacheMiss::Absent) => panic!("{label}: entry should exist"),
        Ok(_) => panic!("{label}: forged entry must not validate"),
    };

    // Flip the verdict; ProofCache::insert recomputes a valid checksum
    // over the forged bytes — only rederivation catches it.
    let mut forged = ProofCache::new();
    let mut r = report.clone();
    r.ni[0].verdict = NiVerdict::Leak {
        secret_a: 0,
        secret_b: 3,
        divergence: 0,
        event_a: None,
        event_b: None,
    };
    forged.insert(key, cell.clone(), r, fps.clone());
    reject(&forged, RejectReason::VerdictMismatch, "verdict flip");

    // Forge the certificate away from the first fingerprint.
    let mut forged = ProofCache::new();
    let mut r = report.clone();
    let cert = r.transparency.as_mut().unwrap();
    cert.monitored_digest ^= 1;
    cert.replay_digest = cert.monitored_digest;
    forged.insert(key, cell.clone(), r, fps.clone());
    reject(&forged, RejectReason::CertMismatch, "cert forgery");

    // Swap two secrets' fingerprints out of live order.
    let mut forged = ProofCache::new();
    let mut swapped = fps.clone();
    swapped.swap(0, 1);
    forged.insert(key, cell.clone(), report.clone(), swapped);
    reject(&forged, RejectReason::FingerprintShape, "fps reorder");

    // Drop a model's worth of fingerprints.
    let mut forged = ProofCache::new();
    forged.insert(
        key,
        cell.clone(),
        report.clone(),
        fps[..scenario.secrets.len()].to_vec(),
    );
    reject(&forged, RejectReason::FingerprintShape, "fps truncation");

    // Claim another cell's identity under this key.
    let mut forged = ProofCache::new();
    forged.insert(key, cells[1].clone(), report.clone(), fps.clone());
    reject(&forged, RejectReason::CellMismatch, "cell swap");

    // Address a differently-keyed entry (a relocation attack).
    let mut forged = ProofCache::new();
    forged.insert(key ^ 1, cell.clone(), report.clone(), fps.clone());
    match forged.lookup(key, cell, &models, &scenario.secrets) {
        Err(CacheMiss::Absent) => {}
        other => panic!("relocated key must be absent, got {:?}", other.err()),
    }

    // Control: the honest entry re-inserted validates.
    let mut honest = ProofCache::new();
    honest.insert(key, cell.clone(), report, fps);
    assert!(honest.lookup(key, cell, &models, &scenario.secrets).is_ok());
}

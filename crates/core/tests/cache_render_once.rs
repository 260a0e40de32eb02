//! The proof cache renders each entry's canonical bytes once, when the
//! entry enters the cache, and reuses them: `save()` splices the dense
//! index into them, and `lookup` folds them for the checksum. These
//! tests pin both uses to the reference that renders from the struct:
//! `save()` must equal `write_cell_cached` per entry in key order with
//! dense indices, however the entries arrived (`insert`, or `load` of
//! groups rendered elsewhere), and `lookup` must reject exactly what `validate_entry`
//! rejects, with the same reason, on a corpus of tampered entries. A
//! hit's record group spliced from the stored bytes (what a sweep hands
//! `on_cell`, and what tp-serve sends) must equal `write_cell` of the
//! entry's cell and report.

use std::sync::OnceLock;

use tp_core::cache::{cell_key, validate_entry, CacheEntry, CacheMiss, ProofCache, RejectReason};
use tp_core::engine::{CellKey, CellOutcome, MatrixCell, ProofMode, ScenarioMatrix};
use tp_core::noninterference::{NiScenario, NiVerdict};
use tp_core::proof::default_time_models;
use tp_core::wire::{
    parse_cells_meta, write_cell, write_cell_cached, write_stored_cell, CachedMeta,
};
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;

/// Full protection (a `Pass`) and the padding ablation (a `Leak`) under
/// two time models.
fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("render once", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(default_time_models()[..2].to_vec())
}

/// A scenario whose Hi footprint depends on the secret, specialised to
/// `cell` so [`cell_key`] here matches the engine's.
fn scenario_for(cell: &MatrixCell) -> NiScenario {
    let tp = cell.tp;
    NiScenario {
        mcfg: cell.mcfg.clone(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * 16)
                    .map(|i| Instr::Store(data_addr((i * 64) % (8 * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..10 {
                for i in 0..16 {
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
        budget: Cycles(400_000),
        max_steps: 200_000,
    }
}

/// The live key of every cell, in cell order.
fn keys() -> Vec<u64> {
    let m = matrix();
    m.cells()
        .iter()
        .map(|c| {
            cell_key(c, m.models(), &scenario_for(c), ProofMode::Certified).expect("cacheable")
        })
        .collect()
}

/// The entries a cold sweep stores, in cell order, and that cache's
/// `save()`.
fn fixture() -> &'static (Vec<CacheEntry>, String) {
    static FIXTURE: OnceLock<(Vec<CacheEntry>, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let m = matrix();
        let all: Vec<usize> = (0..m.cells().len()).collect();
        let mut cache = ProofCache::new();
        m.sweep(
            &WorkerPool::new(2),
            &all,
            Some(&mut cache),
            scenario_for,
            |_, _, _| {},
        );
        let entries = m
            .cells()
            .iter()
            .zip(keys())
            .map(|(c, k)| {
                cache
                    .lookup(k, c, m.models(), &scenario_for(c).secrets)
                    .expect("fresh entries validate")
                    .clone()
            })
            .collect();
        (entries, cache.save())
    })
}

/// The reference rendering: every entry through `write_cell_cached`,
/// last-wins per key, in key order with dense indices.
fn reference_save(entries: &[CacheEntry]) -> String {
    let by_key: std::collections::BTreeMap<u64, &CacheEntry> =
        entries.iter().map(|e| (e.key, e)).collect();
    let mut out = String::new();
    for (i, e) in by_key.values().enumerate() {
        let meta = CachedMeta {
            key: e.key,
            salt: e.salt,
            check: e.check,
            fps: e.fps.clone(),
        };
        write_cell_cached(&mut out, i, &e.cell, &e.report, &meta);
    }
    out
}

/// A cache holding `entries` exactly as stored — salt and checksum kept,
/// nothing re-stamped — by loading their groups in order, as an append
/// log holds them.
fn absorb(entries: &[CacheEntry]) -> ProofCache {
    let mut log = String::new();
    for (i, e) in entries.iter().enumerate() {
        let meta = CachedMeta {
            key: e.key,
            salt: e.salt,
            check: e.check,
            fps: e.fps.clone(),
        };
        write_cell_cached(&mut log, i, &e.cell, &e.report, &meta);
    }
    ProofCache::load(&log).expect("rendered groups load")
}

/// Twelve entries — enough for two-digit indices — covering both
/// verdict kinds and a machine label that needs escaping (it contains
/// ` i=0 `, which must not confuse the index splice). Moving an entry
/// to a new key leaves its stored checksum stale, which `load` must
/// keep verbatim.
fn varied_entries() -> Vec<CacheEntry> {
    let (base, _) = fixture();
    let mut out = Vec::new();
    for n in 0..12u64 {
        let mut e = base[(n % 2) as usize].clone();
        e.key = e.key.rotate_left(n as u32) ^ n;
        if n == 5 {
            e.cell.machine = "odd i=0 label\t%=".into();
        }
        out.push(e);
    }
    out
}

#[test]
fn save_of_inserted_entries_matches_the_reference_rendering() {
    let (entries, saved) = fixture();
    assert_eq!(saved, &reference_save(entries), "sweep-inserted entries");

    // `insert` re-stamps the checksum; the reference sees the same one.
    let mut cache = ProofCache::new();
    let mut stamped = Vec::new();
    for e in varied_entries() {
        cache.insert(e.key, e.cell.clone(), e.report.clone(), e.fps.clone());
        stamped.push(CacheEntry {
            check: tp_core::cache::entry_check(e.key, e.salt, &e.fps, &e.cell, &e.report),
            ..e
        });
    }
    assert_eq!(cache.len(), 12);
    assert_eq!(cache.save(), reference_save(&stamped));
}

#[test]
fn save_of_absorbed_entries_matches_the_reference_rendering() {
    let entries = varied_entries();
    // Last write wins: re-absorbing an entry under its key replaces it.
    let mut appended = entries.clone();
    appended.push(entries[3].clone());
    let cache = absorb(&appended);
    assert_eq!(cache.len(), 12);
    assert_eq!(cache.save(), reference_save(&entries));
}

#[test]
fn save_of_loaded_entries_matches_the_reference_rendering() {
    let entries = varied_entries();
    let text = reference_save(&entries);
    let loaded = ProofCache::load(&text).expect("reference text loads");
    assert_eq!(loaded.save(), text, "load then save is the identity");

    // Groups out of key order under sparse indices, alone and appended
    // to the original: duplicates collapse last-wins and the indices
    // come out dense again.
    let mut reversed = String::new();
    for (i, e) in entries.iter().rev().enumerate() {
        let meta = CachedMeta {
            key: e.key,
            salt: e.salt,
            check: e.check,
            fps: e.fps.clone(),
        };
        write_cell_cached(&mut reversed, 100 + 7 * i, &e.cell, &e.report, &meta);
    }
    assert_eq!(ProofCache::load(&reversed).unwrap().save(), text);
    let doubled = format!("{text}{reversed}");
    assert_eq!(ProofCache::load(&doubled).unwrap().save(), text);
}

/// `write_stored_cell` of `body` at `index`, unprefixed and with the
/// `REC ` prefix stripped again: both must be the reference rendering.
fn spliced(body: &str, index: usize) -> [String; 2] {
    let mut plain = String::new();
    write_stored_cell(&mut plain, "", index, body);
    let mut prefixed = String::new();
    write_stored_cell(&mut prefixed, "REC ", index, body);
    let stripped = prefixed
        .lines()
        .map(|l| {
            format!(
                "{}\n",
                l.strip_prefix("REC ").expect("every line is prefixed")
            )
        })
        .collect();
    [plain, stripped]
}

#[test]
fn a_hit_spliced_from_the_stored_body_matches_write_cell() {
    let m = matrix();
    let (entries, saved) = fixture();
    let mut inserted = ProofCache::new();
    for e in entries {
        inserted.insert(e.key, e.cell.clone(), e.report.clone(), e.fps.clone());
    }
    let absorbed = absorb(entries);
    let loaded = ProofCache::load(saved).expect("saved cache loads");
    for (how, cache) in [
        ("insert", &inserted),
        ("absorb", &absorbed),
        ("load", &loaded),
    ] {
        for (cell, key) in m.cells().iter().zip(keys()) {
            let hit = cache
                .lookup_hit(key, cell, m.models(), &scenario_for(cell).secrets)
                .expect("stored entries validate");
            for index in [0, 7, 20] {
                let mut rendered = String::new();
                write_cell(&mut rendered, index, &hit.entry.cell, &hit.entry.report);
                for got in spliced(hit.body, index) {
                    assert_eq!(got, rendered, "{how}: {} at {index}", cell.label());
                }
            }
        }
    }
}

/// A warm sweep hands `on_cell` each hit's stored report and bytes, and
/// says which hit ends the run, whether it derives the keys or is given
/// them; given them, it answers every hit without building a scenario.
#[test]
fn a_warm_sweep_hands_each_hit_its_stored_body() {
    let m = matrix();
    let (_, saved) = fixture();
    let all: Vec<usize> = (0..m.cells().len()).collect();
    let known: Vec<Option<CellKey>> = m
        .cells()
        .iter()
        .map(|c| m.cell_key(c, scenario_for))
        .collect();
    for (i, &k) in keys().iter().enumerate() {
        assert_eq!(
            known[i].as_ref().map(|c| c.key),
            Some(k),
            "the engine's key"
        );
    }
    for keys in [&[][..], &known[..]] {
        let mut cache = ProofCache::load(saved).expect("saved cache loads");
        let mut runs = Vec::new();
        let builds = std::cell::Cell::new(0);
        let stats = m.sweep_keyed(
            &WorkerPool::new(2),
            &all,
            keys,
            Some(&mut cache),
            |c: &MatrixCell| {
                builds.set(builds.get() + 1);
                scenario_for(c)
            },
            |ci, cell, outcome| {
                let CellOutcome::Hit {
                    report,
                    body,
                    next_is_hit,
                } = outcome
                else {
                    panic!("{} was not a hit", cell.label());
                };
                let mut rendered = String::new();
                write_cell(&mut rendered, ci, cell, report);
                for got in spliced(body, ci) {
                    assert_eq!(got, rendered, "{}", cell.label());
                }
                runs.push(next_is_hit);
            },
        );
        assert_eq!(stats.hits, all.len());
        assert_eq!(runs, [true, false], "the last hit ends the run");
        let want_builds = if keys.is_empty() { all.len() } else { 0 };
        assert_eq!(builds.get(), want_builds, "scenarios built");
    }
}

/// Replace the first line `f` rewrites; panics if nothing matched.
fn tamper_first(text: &str, mut f: impl FnMut(&str) -> Option<String>) -> String {
    let mut hit = false;
    let mut out = String::new();
    for l in text.lines() {
        match (!hit).then(|| f(l)).flatten() {
            Some(n) => {
                hit = true;
                out.push_str(&n);
            }
            None => out.push_str(l),
        }
        out.push('\n');
    }
    assert!(hit, "tamper matched no line");
    out
}

/// Flip the last digit of the number after `prefix` on the first line
/// starting with `tag`.
fn flip_field(text: &str, tag: &str, prefix: &str) -> String {
    tamper_first(text, |l| {
        if !l.starts_with(tag) {
            return None;
        }
        let at = l.find(prefix)? + prefix.len();
        let end = l[at..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(l.len(), |o| at + o);
        let flipped = if &l[end - 1..end] == "1" { "2" } else { "1" };
        Some(format!("{}{}{}", &l[..end - 1], flipped, &l[end..]))
    })
}

/// The cache-file tampers of `cache_poisoning.rs`.
fn tampered_files(good: &str) -> Vec<(&'static str, String)> {
    let verdict = |from: &'static str, to: &'static str| {
        tamper_first(good, move |l| {
            (l.starts_with("ni ") && l.contains(from))
                .then(|| format!("{}{to}", &l[..l.find("verdict=").unwrap()]))
        })
    };
    let mut dup = false;
    vec![
        (
            "fps digest",
            tamper_first(good, |l| {
                l.starts_with("cached i=0").then(|| {
                    let flipped = if l.ends_with('1') { "2" } else { "1" };
                    format!("{}{flipped}", &l[..l.len() - 1])
                })
            }),
        ),
        (
            "pass→leak",
            verdict("verdict=pass:", "verdict=leak:0:3:0:-:-"),
        ),
        ("leak→pass", verdict("verdict=leak:", "verdict=pass:3:999")),
        ("cert digest", flip_field(good, "cert ", "monitored=")),
        ("checksum", flip_field(good, "cached ", "check=")),
        ("salt", flip_field(good, "cached ", "salt=")),
        (
            "duplicated ni",
            tamper_first(good, |l| {
                (l.starts_with("ni i=0") && !std::mem::replace(&mut dup, true))
                    .then(|| format!("{l}\n{l}"))
            }),
        ),
        ("re-keyed", flip_field(good, "cached i=0", "key=")),
        ("untampered", good.to_string()),
    ]
}

/// Entries as `load` would absorb them from `text`, but kept apart so
/// `validate_entry` can judge them directly.
fn parsed_entries(text: &str) -> Vec<CacheEntry> {
    parse_cells_meta(text)
        .expect("tampered text parses")
        .into_iter()
        .filter_map(|(_, cell, report, meta)| {
            meta.map(|m| CacheEntry {
                key: m.key,
                salt: m.salt,
                check: m.check,
                fps: m.fps,
                cell,
                report,
            })
        })
        .collect()
}

/// For every live cell, `lookup` and `validate_entry` on the entry last
/// stored under its key agree; returns their verdicts, `Err(None)` for
/// an absent key.
fn assert_lookup_agrees(
    cache: &ProofCache,
    entries: &[CacheEntry],
    label: &str,
) -> Vec<Result<(), Option<RejectReason>>> {
    let m = matrix();
    let mut seen = Vec::new();
    for (cell, key) in m.cells().iter().zip(keys()) {
        let secrets = scenario_for(cell).secrets;
        let by_lookup = match cache.lookup(key, cell, m.models(), &secrets) {
            Ok(_) => Ok(()),
            Err(CacheMiss::Rejected(r)) => Err(Some(r)),
            Err(CacheMiss::Absent) => Err(None),
        };
        let by_reference = match entries.iter().rev().find(|e| e.key == key) {
            Some(e) => validate_entry(e, key, cell, m.models(), &secrets).map_err(Some),
            None => Err(None),
        };
        assert_eq!(by_lookup, by_reference, "{label}: {}", cell.label());
        seen.push(by_lookup);
    }
    seen
}

#[test]
fn lookup_rejects_tampered_files_exactly_as_validate_entry_does() {
    let (_, good) = fixture();
    let mut seen = Vec::new();
    for (label, text) in tampered_files(good) {
        let cache = ProofCache::load(&text).expect("tampered text loads");
        let verdicts = assert_lookup_agrees(&cache, &parsed_entries(&text), label);
        let all_valid = verdicts.iter().all(Result::is_ok);
        assert_eq!(all_valid, label == "untampered", "{label}: {verdicts:?}");
        seen.extend(verdicts);
    }
    // Every tamper of a file's bytes breaks the checksum, except a
    // re-key (the entry is no longer addressed) and a salt edit (the
    // first check).
    for want in [
        Err(Some(RejectReason::ChecksumMismatch)),
        Err(Some(RejectReason::SaltMismatch)),
        Err(None),
    ] {
        assert!(seen.contains(&want), "{want:?} never seen");
    }
}

#[test]
fn lookup_rejects_forged_entries_exactly_as_validate_entry_does() {
    let m = matrix();
    let cells = m.cells();
    let (entries, _) = fixture();
    let honest = &entries[0];
    let key = honest.key;

    let mut forgeries: Vec<(&str, CacheEntry)> = Vec::new();
    let mut e = honest.clone();
    e.report.ni[0].verdict = NiVerdict::Leak {
        secret_a: 0,
        secret_b: 3,
        divergence: 0,
        event_a: None,
        event_b: None,
    };
    forgeries.push(("verdict flip", e));
    let mut e = honest.clone();
    let cert = e.report.transparency.as_mut().unwrap();
    cert.monitored_digest ^= 1;
    cert.replay_digest = cert.monitored_digest;
    forgeries.push(("cert forgery", e));
    let mut e = honest.clone();
    e.fps.swap(0, 1);
    forgeries.push(("fps reorder", e));
    let mut e = honest.clone();
    e.fps.truncate(3);
    forgeries.push(("fps truncation", e));
    let mut e = honest.clone();
    e.cell = cells[1].clone();
    forgeries.push(("cell swap", e));
    let mut e = honest.clone();
    e.report.steps += 1;
    forgeries.push(("steps edit", e));
    forgeries.push(("honest", honest.clone()));

    let mut reasons = Vec::new();
    for (label, forged) in forgeries {
        // Absorbed verbatim: the stored checksum no longer matches the
        // edited bytes (except for the honest entry).
        let cache = absorb(std::slice::from_ref(&forged));
        let stale = [forged.clone()];
        reasons.extend(assert_lookup_agrees(&cache, &stale, label));

        // Re-stamped by `insert`: self-consistent, so only the checks
        // after the checksum can catch it.
        let mut cache = ProofCache::new();
        cache.insert(
            key,
            forged.cell.clone(),
            forged.report.clone(),
            forged.fps.clone(),
        );
        let stamped = [CacheEntry {
            check: tp_core::cache::entry_check(
                key,
                forged.salt,
                &forged.fps,
                &forged.cell,
                &forged.report,
            ),
            ..forged
        }];
        reasons.extend(assert_lookup_agrees(&cache, &stamped, label));
    }
    for want in [
        RejectReason::ChecksumMismatch,
        RejectReason::VerdictMismatch,
        RejectReason::CertMismatch,
        RejectReason::FingerprintShape,
        RejectReason::CellMismatch,
    ] {
        assert!(reasons.contains(&Err(Some(want))), "{want:?} never seen");
    }
}

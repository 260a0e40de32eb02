//! Adversarial suite for the cache log, the crash-side twin of
//! `cache_poisoning.rs`: a cache file is appended to one fsynced group
//! per proved cell, and the next run resumes from it, so every class of
//! damage a crash or an adversary can inflict on the file must either
//! be the *torn tail* a real crash produces (dropped, the cell
//! re-proves) or fail closed at one of two walls — the loader for
//! anything malformed before the final group, and the cache validation
//! gauntlet for groups that parse but whose claims are forged. In every
//! surviving case the resumed sweep's output must be byte-identical to
//! an uninterrupted run, and appends after the resume must land after
//! committed bytes only.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use tp_core::cache::{CacheStats, ProofCache};
use tp_core::engine::{proved_cells, MatrixCell, ScenarioMatrix};
use tp_core::noninterference::NiScenario;
use tp_core::proof::{default_time_models, ProofReport};
use tp_core::wire::{parse_cells_meta, write_cell_cached, ParsedCell};
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;

/// Two cells — full protection and the padding ablation — under two
/// time models, the same shape `cache_poisoning.rs` uses: both verdict
/// kinds end up in the log.
fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("journal", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(default_time_models()[..2].to_vec())
}

/// Deterministic scenario with a leaky secret-dependence; applies the
/// cell's protection itself so the engine's cache key matches.
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

/// Sequence numbers for per-test scratch files.
static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_log() -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_cache_log_wall_{}_{}.cache",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Sweep every cell against `cache`.
fn sweep(cache: &mut ProofCache) -> (Triples, CacheStats) {
    let m = matrix();
    let all: Vec<usize> = (0..m.cells().len()).collect();
    let (outcomes, stats) = m.sweep(
        &WorkerPool::new(2),
        &all,
        Some(cache),
        scenario_for,
        |_, _, _| {},
    );
    (proved_cells(outcomes).expect("every cell proves"), stats)
}

/// The shared fixture: the uninterrupted reference output and the log
/// a cold run appended, one group per cell.
fn fixture() -> &'static (Triples, String) {
    static FIXTURE: OnceLock<(Triples, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = scratch_log();
        let mut cache = ProofCache::open(&path).expect("a missing log is a cold start");
        let (triples, stats) = sweep(&mut cache);
        assert_eq!(stats.reproved(), triples.len(), "fixture must start cold");
        drop(cache);
        let text = std::fs::read_to_string(&path).expect("the log was written");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            text.lines().filter(|l| l.starts_with("end ")).count(),
            triples.len(),
            "every fixture cell appends one group"
        );
        (triples, text)
    })
}

/// The fixture's groups, for re-rendering with tampered metadata.
fn groups() -> Vec<ParsedCell> {
    parse_cells_meta(&fixture().1).expect("the fixture parses")
}

/// Render `groups` as an appended log renders them.
fn render(groups: &[ParsedCell]) -> String {
    let mut out = String::new();
    for (i, cell, report, meta) in groups {
        let meta = meta.as_ref().expect("log groups carry metadata");
        write_cell_cached(&mut out, *i, cell, report, meta);
    }
    out
}

/// What a resumed run saw and left behind.
struct Resumed {
    triples: Triples,
    stats: CacheStats,
    torn: usize,
    /// The log once reopened: committed bytes only, whatever was torn.
    reopened: String,
    /// The log after the resumed sweep appended what it re-proved.
    after: String,
}

/// Resume against `log_text`, exactly as `matrix --cache` does: open
/// the file (torn-tail rule, compaction), sweep through the validation
/// gauntlet, appending what re-proves.
fn resume_run(log_text: &str) -> Resumed {
    let path = scratch_log();
    std::fs::write(&path, log_text).expect("scratch log");
    let mut cache = ProofCache::open(&path).expect("the log must open here");
    let torn = cache.torn_dropped();
    let reopened = std::fs::read_to_string(&path).expect("log readable");
    let (triples, stats) = sweep(&mut cache);
    assert!(cache.take_log_error().is_none(), "appends succeed");
    drop(cache);
    let after = std::fs::read_to_string(&path).expect("log readable");
    std::fs::remove_file(&path).ok();
    Resumed {
        triples,
        stats,
        torn,
        reopened,
        after,
    }
}

/// `text`'s entries as a compaction rewrites them.
fn compacted(text: &str) -> String {
    ProofCache::load(text)
        .expect("committed groups load")
        .save()
}

/// The log left behind loads whole, with every cell's entry live.
fn assert_heals(r: &Resumed, label: &str) {
    let cache = ProofCache::load(&r.after).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        cache.torn_dropped(),
        0,
        "{label}: appends follow committed bytes"
    );
    assert_eq!(cache.len(), 2, "{label}: both cells stored");
}

#[test]
fn control_a_full_journal_replays_every_cell() {
    let (reference, text) = fixture();
    let r = resume_run(text);
    assert_eq!(r.torn, 0);
    assert_eq!(
        r.stats.hits,
        reference.len(),
        "every group replays: {}",
        r.stats
    );
    assert_eq!(r.stats.reproved(), 0, "{}", r.stats);
    assert_eq!(&r.triples, reference, "resumed output");
    assert_eq!(&r.reopened, text, "nothing to compact");
    assert_eq!(&r.after, text, "an all-hit run appends nothing");
}

#[test]
fn a_torn_tail_is_dropped_silently_and_the_cell_reproves() {
    let (reference, text) = fixture();
    // A crash can die at any byte of the final append. Sample the
    // whole spectrum: inside the first record's tag, right after the
    // first line, mid-group, on the `end` line, one byte short of
    // complete.
    let tail = text
        .find("\nend ")
        .map(|at| at + text[at + 1..].find('\n').unwrap() + 2);
    let tail = tail.expect("first group's end line");
    let first_line = tail + text[tail..].find('\n').unwrap();
    let end_line = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    let mid = (tail + end_line) / 2;
    for cut in [
        tail + 3,
        first_line,
        first_line + 1,
        mid,
        end_line + 4,
        text.len() - 1,
    ] {
        let r = resume_run(&text[..cut]);
        assert_eq!(r.torn, 1, "cut at byte {cut}");
        assert_eq!(r.stats.hits, 1, "survivor replays (cut {cut}): {}", r.stats);
        assert_eq!(r.stats.reproved(), 1, "torn cell re-proves (cut {cut})");
        assert_eq!(&r.triples, reference, "cut {cut}: output");
        assert_eq!(
            r.reopened,
            text[..tail],
            "cut {cut}: compacted to the survivor"
        );
        assert_heals(&r, &format!("cut {cut}"));
    }
    // Cutting inside the *first* group tears everything after it, and
    // still loads: physically, nothing follows the damage.
    let r = resume_run(&text[..20]);
    assert_eq!(r.torn, 1);
    assert_eq!(r.stats.reproved(), 2, "cold resume: {}", r.stats);
    assert_eq!(&r.triples, reference);
    assert!(r.reopened.is_empty(), "nothing committed survives");
    assert_heals(&r, "cut inside the first group");
}

#[test]
fn garbage_appended_at_the_tail_is_torn_not_trusted() {
    let (reference, text) = fixture();
    // A half-written record and plain junk on an unfinished line both
    // read as crash debris when — and only when — nothing follows them.
    for junk in [
        "cell i=9 mach",
        "xyzzy",
        "cell i=9 machine=m disable=-\ntpc i=9 col",
    ] {
        let r = resume_run(&format!("{text}{junk}"));
        assert_eq!(r.torn, 1, "junk {junk:?}");
        assert_eq!(r.stats.hits, 2, "junk {junk:?}: {}", r.stats);
        assert_eq!(&r.triples, reference, "junk {junk:?}: output");
        assert_eq!(
            r.reopened,
            compacted(text),
            "junk {junk:?}: dropped from disk"
        );
        assert_heals(&r, junk);
    }
    // A *finished* line that is no record is not what a crash writes.
    for junk in ["xyzzy\n", "cell i=9 machine=m disable=-\nxyzzy\n"] {
        let err = ProofCache::load(&format!("{text}{junk}")).expect_err(junk);
        assert!(
            err.to_string().contains("wire parse error"),
            "{junk:?}: {err}"
        );
    }
}

#[test]
fn corruption_before_the_tail_fails_closed() {
    let (_, text) = fixture();
    // Garble the FIRST group so that it no longer parses: a valid group
    // follows, so this cannot be a crash artifact and the load must
    // refuse the whole file.
    let garbled = text.replacen("cell i=0 ", "cekl i=0 ", 1);
    assert!(
        ProofCache::load(&garbled).is_err(),
        "mid-file record damage must fail closed"
    );
    let bad_value = text.replacen(" checked=", " checked=x", 1);
    assert!(
        ProofCache::load(&bad_value).is_err(),
        "mid-file field damage must fail closed"
    );
    // A lost `end` line merges two groups: no crash leaves two
    // unfinished groups, so neither is torn.
    let merged = text.replacen("end i=0\n", "", 1);
    assert!(
        ProofCache::load(&merged).is_err(),
        "a missing mid-file end must fail closed"
    );

    // `open` refuses the file the same way and leaves it as it was.
    let path = scratch_log();
    std::fs::write(&path, &garbled).unwrap();
    let err = ProofCache::open(&path).expect_err("corrupt log");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), garbled);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_framing_valid_forgery_is_rejected_by_the_cache_gauntlet() {
    let (reference, _) = fixture();
    // The strongest log adversary: tamper a group's stored entry
    // checksum and re-render it, so the file parses whole. Parsing
    // proves durability, not truth: the gauntlet must throw the group
    // out, and the re-proved cell is appended after it.
    let mut forged = groups();
    forged[0].3.as_mut().unwrap().check ^= 1;
    let r = resume_run(&render(&forged));
    assert_eq!(r.torn, 0, "forgery parses");
    assert!(
        r.stats.rejected >= 1,
        "gauntlet rejects the forgery: {}",
        r.stats
    );
    assert_eq!(r.stats.reproved(), 1, "forged cell re-proves: {}", r.stats);
    assert_eq!(&r.triples, reference, "output equals the clean run");
    assert_heals(&r, "forgery");
    assert_eq!(
        resume_run(&r.after).stats.hits,
        2,
        "the appended group wins"
    );
}

#[test]
fn a_stale_version_salt_is_retired_not_believed() {
    let (reference, _) = fixture();
    // A log from a hypothetical older engine: same bytes, older salt.
    // Replay must re-prove rather than trust cross-version state.
    let mut stale = groups();
    stale[1].3.as_mut().unwrap().salt ^= 1;
    let r = resume_run(&render(&stale));
    assert!(r.stats.rejected >= 1, "stale salt rejected: {}", r.stats);
    assert_eq!(r.stats.reproved(), 1, "{}", r.stats);
    assert_eq!(&r.triples, reference);
}

#[test]
fn duplicate_records_resolve_last_wins_through_the_gauntlet() {
    let (reference, _) = fixture();
    let good = groups();
    // A resumed run legitimately re-appends a cell whose earlier group
    // went bad: the later, valid group must win...
    let mut bad = good[0].clone();
    bad.3.as_mut().unwrap().check ^= 1;
    let mut healed = vec![bad.clone()];
    healed.extend(good.iter().cloned());
    let r = resume_run(&render(&healed));
    assert_eq!(r.stats.hits, 2, "the healed duplicate replays: {}", r.stats);
    assert_eq!(&r.triples, reference);

    // ...and a *hostile* duplicate appended last wins the slot but not
    // the verdict: the gauntlet rejects it and the cell re-proves.
    let mut poisoned = good.clone();
    poisoned.push(bad);
    let r = resume_run(&render(&poisoned));
    assert!(
        r.stats.rejected >= 1,
        "hostile duplicate rejected: {}",
        r.stats
    );
    assert_eq!(r.stats.reproved(), 1, "{}", r.stats);
    assert_eq!(&r.triples, reference, "output still equals the clean run");

    // Superseded groups that outnumber the live entries are compacted
    // away when the log is opened.
    let mut churned = Vec::new();
    for _ in 0..3 {
        churned.extend(good.iter().cloned());
    }
    let r = resume_run(&render(&churned));
    assert_eq!(r.stats.hits, 2, "{}", r.stats);
    assert_eq!(r.reopened, ProofCache::load(&r.reopened).unwrap().save());
    assert_eq!(
        r.reopened.lines().filter(|l| l.starts_with("end ")).count(),
        2
    );
}

#[test]
fn a_character_split_by_the_crash_is_part_of_the_torn_tail() {
    let (reference, text) = fixture();
    // A crash can stop inside a multi-byte character. The file is then
    // not UTF-8 at its very end only: that is the torn group, not a
    // reason to refuse the file.
    let mut bytes = format!("{text}cell i=9 machine=d\u{e9}j\u{e0}").into_bytes();
    bytes.pop();
    let path = scratch_log();
    std::fs::write(&path, &bytes).unwrap();
    let mut cache = ProofCache::open(&path).expect("a split character at the tail is torn");
    assert_eq!((cache.len(), cache.torn_dropped()), (2, 1));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), compacted(text));
    let (triples, stats) = sweep(&mut cache);
    assert_eq!(stats.hits, 2, "{stats}");
    assert_eq!(&triples, reference);

    // The same bytes mid-file are no crash artifact.
    let mut bytes = text.clone().into_bytes();
    bytes.insert(5, 0xe9);
    std::fs::write(&path, &bytes).unwrap();
    let err = ProofCache::open(&path).expect_err("invalid UTF-8 mid-file");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "left as it was");
    std::fs::remove_file(&path).ok();
}

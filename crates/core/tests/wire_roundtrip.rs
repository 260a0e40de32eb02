//! Round-trip property test for the scale-out wire format: any
//! (cell, report) pair the sweep machinery can produce — hostile labels
//! and violation details included — must survive
//! `write_cell → parse_cells → merge_cells` unchanged, and shard
//! outputs split and concatenated in any order must merge to the same
//! report as serialising the whole sweep at once.

use proptest::prelude::*;

use tp_core::engine::{MatrixCell, MatrixReport};
use tp_core::noninterference::{NiVerdict, TransparencyCert};
use tp_core::obligation::{ObligationResult, Violation, ViolationKind};
use tp_core::proof::{ModelVerdict, ProofReport};
use tp_core::wire;
use tp_hw::aisa::check_conformance;
use tp_hw::cache::{CacheConfig, ReplacementPolicy};
use tp_hw::clock::TimeModel;
use tp_hw::interconnect::MbaThrottle;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{Mechanism, TimeProtConfig};
use tp_kernel::domain::ObsEvent;

/// Deterministically expand a seed into one synthetic proved cell,
/// exercising every optional field and enum arm the format carries.
fn synth_cell(seed: u64) -> (MatrixCell, ProofReport) {
    let pick = |n: u64, k: u64| (seed / 7u64.pow(k as u32)) % n;

    let labels = [
        "canonical",
        "llc-512x2",
        "label with spaces",
        "tabs\tand\nnewlines",
        "form\x0Cfeed\rreturn",
        "trailing nbsp\u{00A0}",
        "100% déjà=vu",
    ];
    let details = [
        "line residue at set 3",
        "overran target by 42 cycles\n(second line)",
        "frame 0x2a outside colours = {1, 2}",
        "",
    ];

    let policy = match pick(3, 0) {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::TreePlru,
        _ => ReplacementPolicy::GlobalRandom,
    };
    let mut mcfg = if pick(2, 1) == 0 {
        MachineConfig::tiny()
    } else {
        MachineConfig::single_core()
    };
    mcfg.cores = 1 + pick(4, 2) as usize;
    mcfg.smt = pick(2, 3) == 1;
    mcfg.prefetcher_enabled = pick(2, 4) == 1;
    if let Some(llc) = &mut mcfg.llc {
        llc.sets = 256 << pick(3, 5);
        llc.policy = policy;
    }
    if pick(3, 6) == 0 {
        mcfg.l2 = None;
    } else {
        mcfg.l2 = Some(CacheConfig {
            sets: 128,
            ways: 1 + pick(8, 7) as usize,
            write_back: pick(2, 8) == 1,
            policy,
        });
    }
    mcfg.mba = if pick(2, 9) == 1 {
        Some(MbaThrottle {
            max_requests_per_window: 1 + (seed % 31) as u32,
            throttle_stall: seed % 997,
        })
    } else {
        None
    };
    mcfg.time_model = if pick(2, 10) == 1 {
        TimeModel::hashed(seed ^ 0xdead_beef)
    } else {
        TimeModel::intel_like()
    };

    let disable = match pick(7, 11) {
        0 => None,
        k => Some(Mechanism::ALL[(k - 1) as usize]),
    };
    let cell = MatrixCell {
        machine: labels[pick(labels.len() as u64, 12) as usize].to_string(),
        mcfg: mcfg.clone(),
        disable,
        tp: match disable {
            Some(m) => TimeProtConfig::full_without(m),
            None => TimeProtConfig::full(),
        },
    };

    let obligation = |name: &'static str, salt: u64| {
        let mut ob = ObligationResult::new(name);
        ob.checked_points = ((seed ^ salt) % 100_000) as usize;
        for v in 0..(seed ^ salt) % 3 {
            ob.violations.push(Violation {
                kind: match (seed ^ salt ^ v) % 7 {
                    0 => ViolationKind::PartitionCacheLine,
                    1 => ViolationKind::PartitionFrame,
                    2 => ViolationKind::PartitionTlb,
                    3 => ViolationKind::FlushResidue,
                    4 => ViolationKind::PadOverrun,
                    5 => ViolationKind::PadMistimed,
                    _ => ViolationKind::IpcEarlyDelivery,
                },
                at: Cycles(seed ^ salt ^ (v << 20)),
                detail: details[((seed ^ salt ^ v) % details.len() as u64) as usize].to_string(),
            });
        }
        ob
    };

    let event = |salt: u64| -> Option<ObsEvent> {
        match (seed ^ salt) % 5 {
            0 => None,
            1 => Some(ObsEvent::Clock(Cycles(seed ^ salt))),
            2 => Some(ObsEvent::IpcRecv {
                msg: seed ^ salt,
                at: Cycles(salt),
            }),
            3 => Some(ObsEvent::Fault),
            _ => Some(ObsEvent::Halted),
        }
    };
    let ni = (0..1 + seed % 4)
        .map(|m| ModelVerdict {
            model: if m % 2 == 0 {
                TimeModel::intel_like()
            } else {
                TimeModel::hashed(seed ^ m)
            },
            verdict: if (seed ^ m) % 2 == 0 {
                NiVerdict::Pass {
                    secrets: 2 + (seed % 5) as usize,
                    events_compared: (seed % 100_000) as usize,
                }
            } else {
                NiVerdict::Leak {
                    secret_a: seed % 9,
                    secret_b: 1 + seed % 7,
                    divergence: (seed % 4096) as usize,
                    event_a: event(m),
                    event_b: event(m ^ 1),
                }
            },
        })
        .collect();

    // Cover every transparency shape: absent (old reports), a
    // transparent cert, and a perturbed (non-transparent) one.
    let transparency = match pick(3, 13) {
        0 => None,
        1 => Some(TransparencyCert {
            monitored_digest: seed ^ 0x5555,
            replay_digest: seed ^ 0x5555,
            switch_digest: seed.rotate_left(17),
        }),
        _ => Some(TransparencyCert {
            monitored_digest: seed ^ 0x5555,
            replay_digest: seed ^ 0xaaaa,
            switch_digest: seed.rotate_left(29),
        }),
    };

    let report = ProofReport {
        // The format recomputes conformance from the machine config, so
        // a representable report carries exactly this value.
        aisa: check_conformance(&cell.mcfg),
        p: obligation("P", 0x1111),
        f: obligation("F", 0x2222),
        t: obligation("T", 0x3333),
        ni,
        steps: (seed % 10_000_000) as usize,
        transparency,
    };
    (cell, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One cell in, the same cell out.
    #[test]
    fn single_cell_roundtrips(seed in any::<u64>()) {
        let (cell, report) = synth_cell(seed);
        let mut text = String::new();
        wire::write_cell(&mut text, 0, &cell, &report);
        let parsed = wire::parse_cells(&text).expect("serialised cell must parse");
        prop_assert_eq!(parsed.len(), 1);
        let (idx, cell2, report2) = &parsed[0];
        prop_assert_eq!(*idx, 0usize);
        prop_assert_eq!(cell2, &cell);
        prop_assert_eq!(report2, &report);
    }

    /// A sweep split into shards, serialised out of order with comments
    /// and blank lines injected, merges to the same report as the whole
    /// sweep serialised at once.
    #[test]
    fn sharded_outputs_merge_to_the_whole(seed in any::<u64>(), cells in 2u64..7) {
        let sweep: Vec<(MatrixCell, ProofReport)> =
            (0..cells).map(|i| synth_cell(seed.wrapping_add(i * 0x9e37_79b9))).collect();
        let whole = MatrixReport { cells: sweep.clone() };
        let reference = wire::merge_cells(
            wire::parse_cells(&wire::serialize_report(&whole)).unwrap(),
        )
        .unwrap();

        // Shard: even indices to one worker output, odd to another,
        // merged in reverse order with decoration in between.
        let mut shard_a = String::from("# worker A\n");
        let mut shard_b = String::new();
        for (i, (c, r)) in sweep.iter().enumerate() {
            let out = if i % 2 == 0 { &mut shard_a } else { &mut shard_b };
            wire::write_cell(out, i, c, r);
            out.push('\n');
        }
        let merged = wire::merge_cells(
            wire::parse_cells(&format!("{shard_b}\n# glue\n{shard_a}")).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(merged.to_string(), reference.to_string());
    }
}

/// Strip the `cert` record from a serialised cell — the shape every
/// report had before transparency certification existed.
fn strip_cert_lines(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("cert "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Cross-version: a report serialised before the transparency-digest
/// field existed (no `cert` record) must still parse — with
/// `transparency: None` — and merge cleanly.
#[test]
fn old_reports_without_the_cert_record_still_parse() {
    let (cell, mut report) = synth_cell(0xfeed_f00d);
    report.transparency = Some(TransparencyCert {
        monitored_digest: 1,
        replay_digest: 1,
        switch_digest: 2,
    });
    let mut text = String::new();
    wire::write_cell(&mut text, 0, &cell, &report);
    assert!(text.contains("\ncert i=0 "), "new format carries the cert");

    let old = strip_cert_lines(&text);
    let parsed = wire::parse_cells(&old).expect("old-format cell must parse");
    assert_eq!(parsed.len(), 1);
    let (_, cell2, report2) = &parsed[0];
    assert_eq!(cell2, &cell);
    assert_eq!(report2.transparency, None, "missing cert parses to None");
    // Everything except the certificate survives.
    let mut expect = report.clone();
    expect.transparency = None;
    assert_eq!(report2, &expect);
    assert_eq!(wire::merge_cells(parsed).unwrap().cells.len(), 1);
}

/// Hostile cert records: missing fields and malformed digests must be
/// parse errors naming the line, never a silent default.
#[test]
fn hostile_cert_records_are_rejected() {
    let (cell, mut report) = synth_cell(0xdead_cafe);
    report.transparency = Some(TransparencyCert {
        monitored_digest: 7,
        replay_digest: 7,
        switch_digest: 9,
    });
    let mut text = String::new();
    wire::write_cell(&mut text, 0, &cell, &report);
    let good = text
        .lines()
        .find(|l| l.starts_with("cert "))
        .expect("cert record present");

    for bad in [
        "cert i=0 monitored=7 replay=7".to_string(), // missing switch
        "cert i=0 replay=7 switch=9".to_string(),    // missing monitored
        "cert i=0 monitored=xyz replay=7 switch=9".to_string(), // bad integer
        "cert i=0 monitored=-1 replay=7 switch=9".to_string(), // negative
        "cert monitored=7 replay=7 switch=9".to_string(), // no index
    ] {
        let hostile = text.replace(good, &bad);
        assert!(
            matches!(
                wire::parse_cells(&hostile),
                Err(wire::WireError::Parse { .. })
            ),
            "hostile cert record must fail parsing: {bad:?}"
        );
    }

    // A duplicate cert record is last-wins (same rule as every other
    // single-valued record), not an error.
    let doubled = text.replace(
        good,
        &format!("{good}\ncert i=0 monitored=1 replay=2 switch=3"),
    );
    let parsed = wire::parse_cells(&doubled).expect("duplicate cert records parse");
    assert_eq!(
        parsed[0].2.transparency,
        Some(TransparencyCert {
            monitored_digest: 1,
            replay_digest: 2,
            switch_digest: 3,
        })
    );
}

/// Strip the `cached` record — the exact bytes a plain `write_cell`
/// would have produced. Cache metadata is an overlay, not a format.
fn strip_cached_lines(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("cached "))
        .map(|l| format!("{l}\n"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cell annotated with cache metadata round-trips through
    /// `write_cell_cached → parse_cells_meta` unchanged, and the
    /// meta-less readers (`parse_cells`, shard merging) see exactly the
    /// plain serialisation.
    #[test]
    fn cached_records_roundtrip(seed in any::<u64>()) {
        let (cell, report) = synth_cell(seed);
        let meta = wire::CachedMeta {
            key: seed ^ 0x00de_ad00,
            salt: seed.rotate_left(13),
            check: seed.rotate_right(7),
            fps: (0..1 + seed % 4)
                .map(|i| (seed % 9 + i, (seed % 4096) as usize, seed ^ (i << 33)))
                .collect(),
        };
        let mut text = String::new();
        wire::write_cell_cached(&mut text, 3, &cell, &report, &meta);

        let parsed = wire::parse_cells_meta(&text).expect("cached cell must parse");
        prop_assert_eq!(parsed.len(), 1);
        let (idx, cell2, report2, meta2) = &parsed[0];
        prop_assert_eq!(*idx, 3usize);
        prop_assert_eq!(cell2, &cell);
        prop_assert_eq!(report2, &report);
        prop_assert_eq!(meta2.as_ref(), Some(&meta));

        // The meta-blind reader parses the same triple and drops the
        // annotation; stripping the record recovers plain bytes.
        let (pidx, pcell, preport) = &wire::parse_cells(&text).unwrap()[0];
        prop_assert_eq!((*pidx, pcell, preport), (3usize, &cell, &report));
        let mut plain = String::new();
        wire::write_cell(&mut plain, 3, &cell, &report);
        prop_assert_eq!(strip_cached_lines(&text), plain);
    }

    /// Shards written by cache-aware and cache-blind producers mix
    /// freely: concatenated in any order they merge to the same report
    /// as an all-plain sweep.
    #[test]
    fn mixed_format_shards_merge(seed in any::<u64>(), cells in 2u64..6) {
        let sweep: Vec<(MatrixCell, ProofReport)> =
            (0..cells).map(|i| synth_cell(seed.wrapping_add(i * 0x9e37_79b9))).collect();
        let reference = wire::merge_cells(
            wire::parse_cells(&wire::serialize_report(&MatrixReport { cells: sweep.clone() }))
                .unwrap(),
        )
        .unwrap();

        // Even cells plain, odd cells annotated, shards concatenated
        // annotated-first.
        let (mut plain, mut annotated) = (String::new(), String::new());
        for (i, (c, r)) in sweep.iter().enumerate() {
            if i % 2 == 0 {
                wire::write_cell(&mut plain, i, c, r);
            } else {
                let meta = wire::CachedMeta {
                    key: seed ^ i as u64,
                    salt: 1,
                    check: seed,
                    fps: vec![(0, 1, seed), (1, 1, seed ^ 2)],
                };
                wire::write_cell_cached(&mut annotated, i, c, r, &meta);
            }
        }
        let merged = wire::merge_cells(
            wire::parse_cells(&format!("{annotated}# glue\n{plain}")).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(merged.to_string(), reference.to_string());
    }
}

/// Hostile `cached` records: missing fields, malformed or empty
/// fingerprint lists, and out-of-range integers are parse errors —
/// never a silently defaulted (and thus validatable) annotation.
#[test]
fn hostile_cached_records_are_rejected() {
    let (cell, report) = synth_cell(0xcac4_e666);
    let meta = wire::CachedMeta {
        key: 11,
        salt: 22,
        check: 33,
        fps: vec![(0, 4, 5), (1, 4, 6)],
    };
    let mut text = String::new();
    wire::write_cell_cached(&mut text, 0, &cell, &report, &meta);
    let good = text
        .lines()
        .find(|l| l.starts_with("cached "))
        .expect("cached record present");
    assert_eq!(good, "cached i=0 key=11 salt=22 check=33 fps=0:4:5,1:4:6");

    for bad in [
        "cached i=0 salt=22 check=33 fps=0:4:5",      // missing key
        "cached i=0 key=11 check=33 fps=0:4:5",       // missing salt
        "cached i=0 key=11 salt=22 fps=0:4:5",        // missing check
        "cached i=0 key=11 salt=22 check=33",         // missing fps
        "cached i=0 key=11 salt=22 check=33 fps=",    // empty fps list
        "cached i=0 key=11 salt=22 check=33 fps=0:4", // wrong arity (2)
        "cached i=0 key=11 salt=22 check=33 fps=0:4:5:6", // wrong arity (4)
        "cached i=0 key=11 salt=22 check=33 fps=0:4:5,", // trailing comma
        "cached i=0 key=11 salt=22 check=33 fps=a:4:5", // bad integer
        "cached i=0 key=11 salt=22 check=33 fps=-1:4:5", // negative
        "cached i=0 key=11 salt=22 check=99999999999999999999 fps=0:4:5", // u64 overflow
        "cached key=11 salt=22 check=33 fps=0:4:5",   // no index
    ] {
        let hostile = text.replace(good, bad);
        assert!(
            matches!(
                wire::parse_cells_meta(&hostile),
                Err(wire::WireError::Parse { .. })
            ),
            "hostile cached record must fail parsing: {bad:?}"
        );
    }

    // Duplicate cached records are last-wins, like every other
    // single-valued record.
    let doubled = text.replace(
        good,
        &format!("{good}\ncached i=0 key=1 salt=2 check=3 fps=7:8:9"),
    );
    let parsed = wire::parse_cells_meta(&doubled).expect("duplicate cached records parse");
    assert_eq!(
        parsed[0].3,
        Some(wire::CachedMeta {
            key: 1,
            salt: 2,
            check: 3,
            fps: vec![(7, 8, 9)],
        })
    );
}

#[test]
fn unrepresentable_cache_geometries_are_rejected() {
    let (cell, report) = synth_cell(0x0c0f_fee5);
    let mut text = String::new();
    wire::write_cell(&mut text, 0, &cell, &report);
    let good = "l1d=64:8:wb:plru";
    assert!(text.contains(good), "{text}");
    wire::parse_cells(&text).expect("the canonical geometry parses");

    for bad in [
        "l1d=64:48:wb:plru", // PLRU tree wider than its 32-bit word
        "l1d=64:64:wb:plru",
        "l1d=64:300:wb:lru", // recency ranks past a byte
        "l1d=64:257:wb:rand",
        "l1d=48:8:wb:plru", // sets not a power of two
        "l1d=64:0:wb:lru",
    ] {
        let hostile = text.replace(good, bad);
        match wire::parse_cells(&hostile) {
            Err(wire::WireError::Parse { msg, .. }) => {
                assert!(msg.contains("cache config"), "{bad}: {msg}")
            }
            other => panic!("{bad} must fail parsing, got {other:?}"),
        }
    }
    // The limits themselves are representable.
    for ok in ["l1d=64:32:wb:plru", "l1d=64:256:wb:lru"] {
        wire::parse_cells(&text.replace(good, ok)).expect(ok);
    }
}

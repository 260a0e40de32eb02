//! The traced run: per-layer unit costs timed from outside, by calling
//! each crate's public functions, plus the work counts the program's own
//! telemetry exports. Nothing is instrumented inside the program.
//!
//! Every per-layer number is measured on every traced run. The workload
//! picks only which run supplies the scheduler counts: the matrix sweep
//! for `matrix-cold`, the daemon's pool for `serve-mixed`. The tracing
//! overhead is the matrix sweep's on both.
//!
//! The ledger part re-executes one matrix sweep and a sample of the
//! exhaustive programs leaf by leaf on one thread. `run.py` multiplies
//! the resulting unit costs by the telemetry's counts and compares the
//! sum with the measured wall time.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tp_core::cache::cell_key;
use tp_core::exhaustive::{space_size, word_for_index_into, ExhaustiveRunner};
use tp_core::noninterference::{
    compare_secret_digests, lo_digest_len, lockstep_divergence, run_monitored, NiScenario,
};
use tp_core::wire::{parse_cells, write_cell, CachedMeta};
use tp_core::{JournalWriter, MatrixCell, ProofCache, ProofMode};
use tp_hw::cache::{Cache, CacheConfig};
use tp_hw::tlb::{Tlb, TlbEntry};
use tp_hw::types::{Asid, Cycles, DomainTag, PAddr, VAddr};
use tp_kernel::config::{DomainSpec, KernelConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::kernel::{System, SystemTemplate};
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, SyscallReq, TraceProgram};
use tp_telemetry::{Counter, Snapshot, SpanKind, TelemetrySink};

use crate::json::Obj;
use crate::workloads::{exhaustive_config, exhaustive_pass, matrix_pass, start_pool};
use crate::{median, serve, Args};

/// Median over `reps` repetitions of `f`'s mean cost per call, where one
/// repetition makes `n` calls. In seconds.
fn per_call(reps: usize, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let costs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                f(i);
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&costs)
}

/// Seconds `f` takes once.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Run `f` on a thread of its own, as the pool runs tasks on its workers
/// (each thread gets its own allocator arena; the main thread's differs).
fn on_own_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("ledger thread panicked"))
}

/// Run `f` with a fresh counting telemetry sink and return its snapshot.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    tp_telemetry::install(TelemetrySink::counters());
    let r = f();
    let snap = tp_telemetry::snapshot().expect("counting sink is installed");
    tp_telemetry::install(TelemetrySink::Null);
    (r, snap)
}

/// tp-hw: LLC access, TLB lookup, LLC flush and LLC state digest.
fn hw(m: &mut Obj) {
    let mut cache = Cache::new(CacheConfig::llc());
    let mut a = 0u64;
    let access = per_call(3, 1_000_000, |_| {
        a = a.wrapping_add(0x1040);
        black_box(cache.access(
            PAddr(black_box(a) % (1 << 26)),
            a.is_multiple_of(3),
            DomainTag(0),
        ));
    });
    let mut tlb = Tlb::new(64);
    for v in 0..64 {
        tlb.insert(TlbEntry {
            asid: Asid(1),
            vpn: v,
            pfn: v,
            writable: true,
            global: false,
            owner: DomainTag(0),
        });
    }
    let lookup = per_call(3, 1_000_000, |i| {
        black_box(tlb.lookup(Asid(1), VAddr(black_box(i as u64 % 64) << 12)));
    });
    let fill = |cache: &mut Cache| {
        for k in 0..1024u64 {
            cache.access(PAddr(k * 64), true, DomainTag(0));
        }
    };
    let flushes: Vec<f64> = (0..200)
        .map(|_| {
            fill(&mut cache);
            timed(|| {
                black_box(cache.flush_all());
            })
        })
        .collect();
    fill(&mut cache);
    let digest = per_call(3, 200, |_| {
        black_box(cache.state_digest());
    });
    m.num("hw.llc_access_ns", access * 1e9)
        .num("hw.tlb_lookup_ns", lookup * 1e9)
        .num("hw.llc_flush_us", median(&flushes) * 1e6)
        .num("hw.state_digest_us", digest * 1e6);
}

/// The canonical scenario specialised to `cell`, as the matrix engine
/// specialises it before proving: the cell's machine and protection.
fn specialise(mut sc: NiScenario, cell: &MatrixCell) -> NiScenario {
    sc.mcfg = cell.mcfg.clone();
    let tp = cell.tp;
    let inner = sc.make_kcfg;
    sc.make_kcfg = Box::new(move |secret| {
        let mut k = inner(secret);
        k.tp = tp;
        k
    });
    sc
}

/// The exhaustive runner's template shape: tiny machine, an empty Hi
/// and the fixed Lo probe observer.
fn exhaustive_template() -> SystemTemplate {
    let cfg = exhaustive_config();
    let mut lo = Vec::new();
    for _ in 0..10 {
        for i in 0..8 {
            lo.push(Instr::Load(data_addr(i * 64)));
        }
        lo.push(Instr::ReadClock);
        lo.push(Instr::Syscall(SyscallReq::Null));
        lo.push(Instr::ReadClock);
    }
    lo.push(Instr::Halt);
    let domain = |program: Vec<Instr>, pages| {
        DomainSpec::new(Box::new(TraceProgram::new(program)))
            .with_slice(Cycles(8_000))
            .with_pad(Cycles(20_000))
            .with_data_pages(pages)
            .with_code_pages(1)
    };
    let kcfg = KernelConfig::new(vec![domain(vec![Instr::Halt], 8), domain(lo, 4)]).with_tp(cfg.tp);
    SystemTemplate::new(cfg.mcfg, kcfg)
        .expect("exhaustive-shaped system")
        .with_digest_sinks()
}

/// tp-kernel: ns per step of the canonical system on digest sinks,
/// `System::from_parts`, and template stamping.
fn kernel(m: &mut Obj) {
    let matrix = tp_bench::canonical_matrix();
    let cell = &matrix.cells()[0];
    let sc = specialise(tp_bench::canonical_scenario(cell.disable), cell);
    let mut mcfg = sc.mcfg.clone();
    mcfg.time_model = matrix.models()[0];
    let kcfg = (sc.make_kcfg)(sc.secrets[1]);
    let per_step: Vec<f64> = (0..5)
        .map(|_| {
            let mut sys = System::from_parts(&mcfg, &kcfg).expect("canonical system");
            sys.use_digest_sinks();
            let t = Instant::now();
            let steps = sys.run_cycles(sc.budget, sc.max_steps);
            t.elapsed().as_secs_f64() / steps.max(1) as f64
        })
        .collect();
    let build = per_call(3, 200, |_| {
        black_box(System::from_parts(&mcfg, &kcfg).expect("canonical system"));
    });
    let template = exhaustive_template();
    let stamp = per_call(3, 5_000, |_| {
        let hi = TraceProgram::new(vec![Instr::Compute(1), Instr::Halt]);
        black_box(template.instantiate_with_program(DomainId(0), Box::new(hi)));
    });
    m.num("kernel.ns_per_step", median(&per_step) * 1e9)
        .num("kernel.build_us", build * 1e6)
        .num("kernel.stamp_us", stamp * 1e6);
}

/// tp-sched: `map_streamed` of empty tasks on the global pool, per task.
fn dispatch_us() -> f64 {
    const TASKS: usize = 20_000;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let items: Vec<usize> = (0..TASKS).collect();
            timed(|| {
                black_box(tp_sched::global().map_streamed(items, |_, x| x).count());
            }) / TASKS as f64
        })
        .collect();
    median(&reps) * 1e6
}

/// Totals of one leaf-by-leaf re-execution of the matrix sweep.
#[derive(Default)]
struct MatrixLedger {
    plan_s: f64,
    build_s: f64,
    prove_s: f64,
    cert_s: f64,
    lockstep_s: f64,
    prove_calls: u64,
    cert_calls: u64,
    lockstep_calls: u64,
}

/// Re-run one canonical sweep on this thread through the engine's leaf
/// functions — scenario planning, `from_parts`, `run_monitored`,
/// `lo_digest_len` for the certification replay and
/// `lockstep_divergence` for each leaking model — timing each layer.
fn matrix_ledger() -> MatrixLedger {
    let matrix = tp_bench::canonical_matrix();
    let mut l = MatrixLedger::default();
    for cell in matrix.cells() {
        let t = Instant::now();
        let sc = specialise(tp_bench::canonical_scenario(cell.disable), &cell);
        let kcfgs: Vec<KernelConfig> = sc.secrets.iter().map(|&s| (sc.make_kcfg)(s)).collect();
        l.plan_s += t.elapsed().as_secs_f64();
        for (mi, model) in matrix.models().iter().enumerate() {
            let mut mcfg = sc.mcfg.clone();
            mcfg.time_model = *model;
            if mi == 0 {
                l.cert_s += timed(|| {
                    black_box(lo_digest_len(
                        &mcfg,
                        &kcfgs[0],
                        sc.lo,
                        sc.budget,
                        sc.max_steps,
                    ));
                });
                l.cert_calls += 1;
            }
            let mut fps = Vec::with_capacity(kcfgs.len());
            for (&secret, kcfg) in sc.secrets.iter().zip(&kcfgs) {
                let t = Instant::now();
                let mut sys = System::from_parts(&mcfg, kcfg).expect("matrix system");
                sys.use_digest_sinks();
                l.build_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (len, digest) = {
                    let run = run_monitored(sys, sc.lo, sc.budget, sc.max_steps);
                    (run.lo_len, run.lo_digest)
                };
                l.prove_s += t.elapsed().as_secs_f64();
                l.prove_calls += 1;
                fps.push((secret, len, digest));
            }
            if let Err(b) = compare_secret_digests(&fps) {
                l.lockstep_s += timed(|| {
                    let a = System::from_parts(&mcfg, &kcfgs[0]).expect("matrix system");
                    let other = System::from_parts(&mcfg, &kcfgs[b]).expect("matrix system");
                    black_box(lockstep_divergence(
                        a,
                        other,
                        sc.lo,
                        sc.budget,
                        sc.max_steps,
                    ));
                });
                l.lockstep_calls += 1;
            }
        }
    }
    l
}

/// Untraced and traced runs of `op`, interleaved: `(untraced wall
/// median, traced wall median, last traced snapshot, failures)`.
fn walls(reps: usize, mut op: impl FnMut() -> (f64, bool)) -> (f64, f64, Snapshot, u64) {
    let (mut plain, mut with_trace, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut snap = None;
    for _ in 0..reps {
        let (wall, ok) = op();
        plain.push(wall);
        let ((wall, ok2), s) = traced(&mut op);
        with_trace.push(wall);
        snap = Some(s);
        failed += u64::from(!ok) + u64::from(!ok2);
    }
    (
        median(&plain),
        median(&with_trace),
        snap.expect("reps > 0"),
        failed,
    )
}

/// Store-layer unit costs at the entry count a serve-mixed round ends
/// with, from that round's persisted cache. Returns failures.
fn store(
    m: &mut Obj,
    cache_path: &Path,
    work_dir: &Path,
    expected_entries: u64,
) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(cache_path).map_err(|e| format!("cannot read cache: {e}"))?;
    let mut failed = 0u64;
    let load = per_call(3, 10, |_| {
        black_box(ProofCache::load(&text).expect("daemon cache parses"));
    });
    let cache = ProofCache::load(&text).map_err(|e| format!("daemon cache: {e}"))?;
    failed += u64::from(cache.len() as u64 != expected_entries);
    let save = per_call(3, 10, |_| {
        black_box(cache.save());
    });
    let bytes = cache.save();
    let scratch = work_dir.join("store-bench.cache");
    let atomic = per_call(3, 10, |_| {
        tp_core::persist::write_atomic(&scratch, bytes.as_bytes()).expect("scratch write");
    });

    // Every (models, cell) key, with the scenario each key covers.
    let mut keys = Vec::new();
    for k in 1..=5 {
        let matrix = tp_bench::shaped_matrix(Some(k));
        for cell in matrix.cells() {
            let sc = specialise(tp_bench::canonical_scenario(cell.disable), &cell);
            keys.push((matrix.models().to_vec(), cell, sc));
        }
    }
    let key_of = |i: usize| {
        let (models, cell, sc) = &keys[i];
        cell_key(cell, models, sc, ProofMode::Certified).expect("canonical cells are cacheable")
    };
    let cell_key_cost = per_call(3, keys.len(), |i| {
        black_box(key_of(i));
    });
    let resolved: Vec<u64> = (0..keys.len()).map(key_of).collect();
    let mut hits = Vec::new();
    for (i, (models, cell, sc)) in keys.iter().enumerate() {
        if let Ok(e) = cache.lookup(resolved[i], cell, models, &sc.secrets) {
            hits.push((i, e));
        }
    }
    failed += u64::from(hits.len() != cache.len());
    if hits.is_empty() {
        return Err("no cache entry validated".into());
    }
    let lookup = per_call(3, hits.len(), |j| {
        let (i, _) = hits[j];
        let (models, cell, sc) = &keys[i];
        black_box(cache.lookup(resolved[i], cell, models, &sc.secrets).is_ok());
    });
    let encoded: Vec<String> = hits
        .iter()
        .map(|(i, e)| {
            let mut s = String::new();
            write_cell(&mut s, *i, &e.cell, &e.report);
            s
        })
        .collect();
    let encode = per_call(3, hits.len(), |j| {
        let (i, e) = hits[j];
        let mut s = String::new();
        write_cell(&mut s, i, &e.cell, &e.report);
        black_box(s);
    });
    let parse = per_call(3, hits.len(), |j| {
        black_box(parse_cells(&encoded[j]).expect("encoded record parses"));
    });
    let jpath = work_dir.join("store-bench.journal");
    let mut journal = JournalWriter::create(&jpath).map_err(|e| format!("journal: {e}"))?;
    let append = per_call(1, hits.len(), |j| {
        let (i, e) = hits[j];
        let meta = CachedMeta {
            key: e.key,
            salt: e.salt,
            check: e.check,
            fps: e.fps.clone(),
        };
        journal
            .append(i, &e.cell, &e.report, &meta)
            .expect("journal append");
    });
    m.num("core.cell_key_us", cell_key_cost * 1e6)
        .num("core.cache_lookup_us", lookup * 1e6)
        .num("core.wire_encode_us", encode * 1e6)
        .num("core.wire_parse_us", parse * 1e6)
        .num("core.journal_append_us", append * 1e6)
        .num("core.write_atomic_ms", atomic * 1e3)
        .num("core.cache_save_ms", save * 1e3)
        .num("core.cache_load_ms", load * 1e3)
        .int("core.cache_entries", cache.len() as u64);
    Ok(failed)
}

/// `layers` mode: the traced run.
pub fn run(args: &Args) -> Result<Obj, String> {
    start_pool(args.threads);
    crate::ready();
    let mut m = Obj::new();
    let mut counts = Obj::new();
    let mut ledger = Obj::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    hw(&mut m);
    kernel(&mut m);
    let dispatch = dispatch_us();
    m.num("sched.dispatch_us", dispatch);

    // matrix-cold: wall time at `threads`, telemetry counts, leaf ledger.
    let matrix = tp_bench::canonical_matrix();
    let mut steps = 0;
    let (m_wall, m_traced, m_snap, f) = walls(3, || {
        let p = matrix_pass(&matrix);
        steps = p.steps;
        (p.wall_s, p.ok)
    });
    failed += f;
    attempted += 6;
    let l = on_own_thread(matrix_ledger);
    let prove_calls = m_snap.span(SpanKind::Prove).0;
    let lockstep_calls = m_snap.span(SpanKind::Lockstep).0;
    let cert_calls = m_snap.span(SpanKind::Replay).0;
    // The sequential re-execution must do the engine's work exactly.
    failed += u64::from(
        (l.prove_calls, l.lockstep_calls, l.cert_calls)
            != (prove_calls, lockstep_calls, cert_calls),
    );
    attempted += 1;
    m.num("core.prove_ms", l.prove_s / l.prove_calls as f64 * 1e3)
        .int("core.prove.calls", prove_calls)
        .num(
            "core.lockstep_ms",
            l.lockstep_s / l.lockstep_calls.max(1) as f64 * 1e3,
        )
        .int("core.lockstep.calls", lockstep_calls)
        .num("core.cert_replay_ms", l.cert_s / l.cert_calls as f64 * 1e3)
        .int("core.cert_replay.calls", cert_calls)
        .int("kernel.steps", steps);
    ledger
        .num("matrix.wall_s", m_wall)
        .num("matrix.plan_s", l.plan_s)
        .num("matrix.build_s", l.build_s)
        .num("matrix.prove_s", l.prove_s)
        .num("matrix.cert_replay_s", l.cert_s)
        .num("matrix.lockstep_s", l.lockstep_s)
        .num(
            "matrix.dispatch_s",
            m_snap.counter(Counter::PoolSubmitted) as f64 * dispatch * 1e-6,
        );
    counts
        .int("matrix.tasks", m_snap.counter(Counter::PoolSubmitted))
        .int("matrix.steps", steps)
        .int("core.prove.calls", prove_calls)
        .int("core.lockstep.calls", lockstep_calls)
        .int("core.cert_replay.calls", cert_calls);

    // The exhaustive check: wall time, counts, sampled per-program ledger.
    let cfg = exhaustive_config();
    let (e_wall, _, e_snap, f) = walls(2, || {
        let (wall, _, ok) = exhaustive_pass(&cfg);
        (wall, ok)
    });
    failed += f;
    attempted += 4;
    let mut runner = None;
    let runner_s = timed(|| runner = Some(ExhaustiveRunner::new(&cfg)));
    let runner = runner.expect("runner was built");
    let total = space_size(cfg.alphabet.len(), cfg.max_len);
    let mut word = Vec::new();
    let enumerate_s = timed(|| {
        for i in 1..=total {
            black_box(word_for_index_into(
                &cfg.alphabet,
                cfg.max_len,
                i,
                &mut word,
            ));
        }
    });
    let baseline = runner.run_digest(&[]);
    let (mut sampled, mut diverged) = (0u64, 0u64);
    // A stride coprime with the alphabet size, so the sample covers every
    // first instruction evenly.
    let sample_s = on_own_thread(|| {
        timed(|| {
            for i in (1..=total).step_by(5) {
                word_for_index_into(&cfg.alphabet, cfg.max_len, i, &mut word);
                diverged += u64::from(runner.run_digest(&word) != baseline);
                sampled += 1;
            }
        })
    });
    failed += u64::from(diverged > 0);
    attempted += 1;
    let run_us = sample_s / sampled as f64 * 1e6;
    let exh_tasks = e_snap.counter(Counter::PoolSubmitted);
    let programs = e_snap.counter(Counter::ExhPrograms);
    m.num("core.exh_run_us", run_us)
        .num("exhaustive.programs_per_s", (programs + 1) as f64 / e_wall);
    ledger
        .num("exhaustive.wall_s", e_wall)
        .num("exhaustive.programs", programs as f64 + 1.0)
        .num("exhaustive.runner_build_s", runner_s)
        .num("exhaustive.enumerate_s", enumerate_s)
        .num("exhaustive.run_us", run_us)
        .num("exhaustive.dispatch_s", exh_tasks as f64 * dispatch * 1e-6);
    counts
        .int("exhaustive.tasks", exh_tasks)
        .int("exhaustive.programs", programs);

    // serve-mixed: one round, then the store layer on its cache.
    let work_dir = args.work_dir.join("serve");
    let (jobs, expected, f) = serve::prepare(args)?;
    failed += f;
    let round = serve::round(&args.bin_dir, &work_dir, args.threads, &jobs, &expected)?;
    failed += round.failed;
    attempted += 1 + round.jobs.len() as u64;
    let ok_jobs = || round.jobs.iter().filter(|t| t.ok);
    let (hits, misses) = (round.metric("cache_hits"), round.metric("cache_misses"));
    m.num(
        "serve.ok_ms",
        median(&ok_jobs().map(|t| t.ok_ms).collect::<Vec<_>>()),
    )
    .num(
        "serve.first_rec_ms",
        median(&ok_jobs().map(|t| t.first_rec_ms).collect::<Vec<_>>()),
    )
    .num(
        "serve.job_p90_ms",
        crate::quantile(&ok_jobs().map(|t| t.total_ms).collect::<Vec<_>>(), 0.9),
    )
    .num(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    )
    .int("serve.proved_cells", misses);
    counts
        .int("serve.cache_hits", hits)
        .int("serve.cache_misses", misses)
        .int("serve.tasks", round.metric("pool_submitted"));
    let store_dir = args.work_dir.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("cannot create store dir: {e}"))?;
    failed += store(&mut m, &round.cache_path, &store_dir, misses)?;
    attempted += 1;

    // The workload's own scheduler counts.
    let (tasks, steals, parks) = match args.workload.as_str() {
        "serve-mixed" => (
            round.metric("pool_submitted"),
            round.metric("pool_steals"),
            round.metric("pool_parks"),
        ),
        _ => (
            m_snap.counter(Counter::PoolSubmitted),
            m_snap.counter(Counter::PoolSteals),
            m_snap.counter(Counter::PoolParks),
        ),
    };
    m.int("sched.tasks", tasks)
        .int("sched.steals", steals)
        .int("sched.parks", parks)
        .num("trace_overhead_share", m_traced / m_wall - 1.0);
    let _ = std::fs::remove_dir_all(&args.work_dir);

    // The CPUs the pool's threads could run on: the ledger's capacity.
    ledger.num(
        "cpus",
        args.threads.min(tp_sched::available_threads()) as f64,
    );
    let mut out = Obj::new();
    out.int("seed", args.seed)
        .str("workload", &args.workload)
        .obj("metrics", &m)
        .obj("ledger", &ledger)
        .obj("counts", &counts)
        .int("attempted", attempted)
        .int("failed", failed);
    Ok(out)
}

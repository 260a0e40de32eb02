//! The switch-time monitor against its full-scan oracles.
//!
//! The monitored loop answers obligations F and P and the switch digest
//! with a [`SwitchMonitor`], which reuses the frame scan while the
//! memory's generation has not changed and reads the core's running
//! digest. The oracles recompute everything:
//! [`check_flush_at_switch`] checks the live core against a freshly
//! built one, [`check_partition`] scans every frame, LLC line and TLB
//! entry, and
//! [`Core::microarch_digest_from_scratch`](tp_hw::machine::Core::microarch_digest_from_scratch)
//! folds the whole core from every slot. Over the canonical scenario under all seven
//! protection settings and every secret, with and without hostile
//! monitor hooks, the monitor must agree with the oracles at every
//! switch and every periodic check, on pristine and dirty cores alike,
//! and `run_monitored_with` must end with the oracles' F and P results
//! and switch-digest chain.

use tp_bench::canonical_scenario;
use tp_core::flush::{canonical_core_digest, check_flush_at_switch, FlushReference};
use tp_core::noninterference::{run_monitored_with, NiScenario};
use tp_core::obligation::ObligationResult;
use tp_core::partition::{check_partition, SwitchMonitor};
use tp_hw::obs::{mix_digest, OBS_DIGEST_SEED};
use tp_hw::types::{Colour, DomainTag, PAddr, VAddr, LINE_BITS};
use tp_kernel::config::Mechanism;
use tp_kernel::kernel::{StepEvent, System};

/// `run_monitored_with`'s periodic P interval.
const P_CHECK_INTERVAL: usize = 2048;

/// What a monitor hook does to the system, from the second switch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hostile {
    /// Nothing: the clean run.
    None,
    /// `mem.assign` hands a kernel-coloured free frame to domain 0, and
    /// `mem.release` takes it back three switches later.
    Assign,
    /// `mem.frame_mut(..).owner` moves one of domain 0's frames to
    /// domain 1, and back three switches later.
    FrameMut,
    /// `mem.release` frees one of domain 1's frames (a clean change of
    /// the owned-frame count), and `mem.assign` gives it a free frame of
    /// its own colour at the next switch.
    Release,
    /// `kernel.colour_assignment` swaps domain 0's and domain 1's colour
    /// sets, and swaps them back three switches later. The LLC is
    /// flushed first, so at that check only the frames show the swap.
    Recolour,
    /// `llc.access` plants a domain-0 line in one of domain 1's colours.
    PlantLine,
    /// `bp.resolve` trains the scheduled core's branch predictor at
    /// every even switch. The canonical programs have no branches, so
    /// this is what moves the predictor between switches.
    Train,
}

const HOSTILE: [Hostile; 7] = [
    Hostile::None,
    Hostile::Assign,
    Hostile::FrameMut,
    Hostile::Release,
    Hostile::Recolour,
    Hostile::PlantLine,
    Hostile::Train,
];

fn llc_colours(sys: &System) -> u64 {
    sys.hw
        .config()
        .llc
        .expect("the canonical machine has an LLC")
        .colours() as u64
}

/// The first frame of `colour` that `pick` accepts.
fn frame_of_colour(sys: &System, colour: Colour, pick: impl Fn(Option<DomainTag>) -> bool) -> u64 {
    let n = llc_colours(sys);
    sys.hw
        .mem
        .iter()
        .find(|(pfn, f)| pfn % n == colour.0 as u64 && pick(f.owner))
        .map(|(pfn, _)| pfn)
        .expect("a matching frame exists")
}

/// The first frame `owner` holds.
fn frame_owned_by(sys: &System, owner: DomainTag) -> u64 {
    sys.hw
        .mem
        .iter()
        .find(|(_, f)| f.owner == Some(owner))
        .map(|(pfn, _)| pfn)
        .expect("the domain owns a frame")
}

/// The monitor hook for `kind`: deterministic, so the production run
/// and the reference loop see the same edits at the same switches.
fn hook(kind: Hostile) -> impl FnMut(&mut System) {
    let mut switch = 0;
    let mut moved = None;
    move |sys: &mut System| {
        switch += 1;
        let (d0, d1) = (DomainTag(0), DomainTag(1));
        match (kind, switch) {
            (Hostile::Assign, 2) => {
                let kcolour = sys
                    .kernel
                    .kernel_colours
                    .first()
                    .copied()
                    .unwrap_or(Colour(0));
                let pfn = frame_of_colour(sys, kcolour, |o| o.is_none());
                sys.hw.mem.assign(pfn, d0);
                moved = Some(pfn);
            }
            (Hostile::Assign, 5) => sys.hw.mem.release(moved.take().expect("assigned")),
            (Hostile::FrameMut, 2) => {
                let pfn = frame_owned_by(sys, d0);
                sys.hw.mem.frame_mut(pfn).owner = Some(d1);
                moved = Some(pfn);
            }
            (Hostile::FrameMut, 5) => {
                sys.hw.mem.frame_mut(moved.take().expect("moved")).owner = Some(d0);
            }
            (Hostile::Release, 2) => sys.hw.mem.release(frame_owned_by(sys, d1)),
            (Hostile::Release, 3) => {
                let colour = sys.kernel.colour_assignment[1]
                    .first()
                    .copied()
                    .unwrap_or(Colour(0));
                let pfn = frame_of_colour(sys, colour, |o| o.is_none());
                sys.hw.mem.assign(pfn, d1);
            }
            (Hostile::Recolour, 2 | 5) => {
                if let Some(llc) = sys.hw.llc.as_mut() {
                    llc.flush_all();
                }
                sys.kernel.colour_assignment.swap(0, 1);
            }
            (Hostile::Train, s) if s % 2 == 0 => {
                let pc = VAddr(0x400 + 4 * (s as u64 % 8));
                let core = &mut sys.hw.cores[sys.kernel.core.0];
                core.bp.resolve(pc, s % 3 == 0, VAddr(0x800), d0);
            }
            (Hostile::PlantLine, 2) => {
                let colour = sys.kernel.colour_assignment[1]
                    .first()
                    .copied()
                    .unwrap_or(Colour(1));
                let llc = sys
                    .hw
                    .llc
                    .as_mut()
                    .expect("the canonical machine has an LLC");
                let set = llc.sets_of_colour(colour).start;
                llc.access(PAddr((set as u64) << LINE_BITS), false, d0);
            }
            _ => {}
        }
    }
}

/// What the reference loop saw.
struct Reference {
    f: ObligationResult,
    p: ObligationResult,
    switch_digest: u64,
    frame_scans: usize,
    pristine_switches: usize,
    dirty_switches: usize,
}

/// `run_monitored_with`'s F and P checks and switch-digest chain, with
/// the oracles' results recorded and a [`SwitchMonitor`] asserted equal
/// to them at every check.
fn reference_run(sc: &NiScenario, secret: u64, kind: Hostile, ctx: &str) -> Reference {
    let mut sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).unwrap();
    let reference = FlushReference::of(&sys);
    let canonical = canonical_core_digest(&sys);
    let mut monitor = SwitchMonitor::new(&reference);
    let mut hook = hook(kind);
    let mut f = ObligationResult::new("F");
    let mut p = ObligationResult::new("P");
    let (mut chain, mut steps, mut switches) = (OBS_DIGEST_SEED, 0, 0);
    let (mut pristine_switches, mut dirty_switches) = (0, 0);
    let oracle = check_partition(&sys);
    assert_eq!(monitor.check_partition(&sys), oracle, "{ctx}, start");
    p.merge(oracle);
    while sys.now().0 < sc.budget.0 && steps < sc.max_steps {
        let ev = sys.step();
        steps += 1;
        if let StepEvent::Switched { .. } = ev {
            switches += 1;
            hook(&mut sys);
            let at = format!("switch {switches}");
            let (got_f, got_p, got_digest) = monitor.at_switch(&sys);
            let (want_f, want_p) = (
                check_flush_at_switch(&sys, canonical),
                check_partition(&sys),
            );
            let digest = sys.hw.cores[sys.kernel.core.0].microarch_digest_from_scratch();
            assert_eq!(got_f, want_f, "{ctx}, {at}: F");
            assert_eq!(got_p, want_p, "{ctx}, {at}: P");
            assert_eq!(got_digest, digest, "{ctx}, {at}: digest");
            f.merge(want_f);
            p.merge(want_p);
            chain = mix_digest(chain, digest);
            if reference.is_pristine(&sys) {
                pristine_switches += 1;
            } else {
                dirty_switches += 1;
            }
        } else if steps % P_CHECK_INTERVAL == 0 {
            let oracle = check_partition(&sys);
            assert_eq!(monitor.check_partition(&sys), oracle, "{ctx}, step {steps}");
            p.merge(oracle);
        }
    }
    Reference {
        f,
        p,
        switch_digest: chain,
        frame_scans: monitor.frame_scans(),
        pristine_switches,
        dirty_switches,
    }
}

#[test]
fn the_switch_monitor_matches_the_full_scans_at_every_check() {
    let (mut pristine, mut dirty) = (0, 0);
    for disable in std::iter::once(None).chain(Mechanism::ALL.into_iter().map(Some)) {
        let sc = canonical_scenario(disable);
        for &secret in &sc.secrets {
            for kind in HOSTILE {
                let ctx = format!("{disable:?}, secret {secret}, {kind:?}");
                let want = reference_run(&sc, secret, kind, &ctx);
                let sys = System::new(sc.mcfg.clone(), (sc.make_kcfg)(secret)).unwrap();
                let reference = FlushReference::of(&sys);
                let run =
                    run_monitored_with(sys, &reference, sc.lo, sc.budget, sc.max_steps, hook(kind));
                assert_eq!(run.f, want.f, "{ctx}: the run's F");
                assert_eq!(run.p, want.p, "{ctx}: the run's P");
                assert_eq!(
                    run.switch_digest, want.switch_digest,
                    "{ctx}: the switch chain"
                );

                if disable != Some(Mechanism::Colouring) {
                    assert!(want.p.checked_points > 0, "{ctx}: P was exercised");
                }
                if disable.is_none() {
                    // Every edit but the clean release breaks P, so the
                    // comparison covers the fall-back too.
                    let clean = matches!(kind, Hostile::None | Hostile::Release | Hostile::Train);
                    assert_eq!(want.p.holds(), clean, "{ctx}: {}", want.p);
                    if kind == Hostile::None {
                        assert_eq!(want.frame_scans, 1, "{ctx}: one frame scan per clean run");
                    }
                }
                pristine += want.pristine_switches;
                dirty += want.dirty_switches;
            }
        }
    }
    // Both sides of the pristine compare ran: the comparison covers
    // the reference's digest and the running one.
    assert!(pristine > 0 && dirty > 0);
}

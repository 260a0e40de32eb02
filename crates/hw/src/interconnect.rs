//! The stateless shared interconnect (§2's explicitly excluded channel).
//!
//! The paper limits its scope: covert channels through *stateless*
//! interconnects — concurrent competition for finite bandwidth — cannot
//! be closed without hardware support absent from mainstream parts. We
//! model the interconnect anyway, for two reasons: (i) experiment E10
//! demonstrates the channel remains open even with full time protection,
//! reproducing the paper's scoping argument; and (ii) the model includes
//! an Intel-MBA-like *approximate* bandwidth throttle, reproducing the
//! footnote that approximate enforcement is insufficient to close the
//! channel.
//!
//! The model: each DRAM access occupies one slot of a sliding window of
//! recent traffic. The queueing delay an access experiences is
//! proportional to the number of *other* cores' accesses in the window —
//! bandwidth contention with no per-domain state whatsoever.
//!
//! The window is kept as a round-ordered run-length queue plus running
//! per-core and total counts, so a request costs O(1) amortised however
//! much traffic the window holds. Rounds never decrease: the machine's
//! round counter only advances. Only the lockstep multicore driver
//! advances it; a `System` run stays at round 0 for its whole length,
//! which collapses its traffic into a single run.

use std::collections::VecDeque;

use crate::types::Cycles;

/// Intel-MBA-like approximate bandwidth limiter.
///
/// Real MBA throttles a core's request rate in coarse steps and only
/// approximately; it neither partitions bandwidth nor removes the
/// observable contention, so the channel narrows but stays open
/// (the paper's footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbaThrottle {
    /// Maximum DRAM requests a core may issue per window; excess requests
    /// stall the issuing core.
    pub max_requests_per_window: u32,
    /// Stall imposed on a throttled request, in cycles.
    pub throttle_stall: u64,
}

/// Shared-interconnect model with a sliding window of recent requests.
///
/// Equality compares the window's contents (the run queue); the counts
/// are derived from it.
#[derive(Debug, Clone)]
pub struct Interconnect {
    /// Window length in *rounds* (the machine's lockstep scheduling unit).
    window: u64,
    /// Requests still in the window, as `(round, core, count)` runs in
    /// issue order: consecutive requests by one core in one round share
    /// a run. Pruned from the front on every request, so memory is
    /// bounded by the runs of the last `window` rounds.
    runs: VecDeque<(u64, usize, u32)>,
    /// Requests in `runs`, per core (indexed by core; grown on demand).
    per_core: Vec<u32>,
    /// Requests in `runs`, all cores.
    total: u32,
    /// Optional MBA-style throttle.
    mba: Option<MbaThrottle>,
}

impl PartialEq for Interconnect {
    fn eq(&self, other: &Self) -> bool {
        self.window == other.window && self.mba == other.mba && self.runs == other.runs
    }
}

impl Eq for Interconnect {}

/// What a DRAM request experienced at the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcxOutcome {
    /// Requests by *other* cores inside the window at issue time; the
    /// time model charges `contention_per_req` for each.
    pub contention: u32,
    /// Extra stall cycles imposed by the MBA throttle on *this* core.
    pub throttle_stall: Cycles,
}

impl Interconnect {
    /// An interconnect with the given window (in rounds) and no throttle.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        Interconnect {
            window,
            runs: VecDeque::new(),
            per_core: Vec::new(),
            total: 0,
            mba: None,
        }
    }

    /// Install (or remove) the MBA-like throttle.
    pub fn set_mba(&mut self, mba: Option<MbaThrottle>) {
        self.mba = mba;
    }

    /// The configured window length.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Record a DRAM request by `core` at `round` and report the
    /// contention it observed. `round` must not be below any earlier
    /// request's round (checked in debug builds).
    pub fn request(&mut self, core: usize, round: u64) -> IcxOutcome {
        debug_assert!(
            self.runs.back().map_or(true, |&(r, _, _)| r <= round),
            "interconnect rounds never decrease"
        );
        self.prune(round);
        if core >= self.per_core.len() {
            self.per_core.resize(core + 1, 0);
        }
        let mine = self.per_core[core];
        let others = self.total - mine;

        let throttle_stall = match self.mba {
            Some(m) if mine >= m.max_requests_per_window => Cycles(m.throttle_stall),
            _ => Cycles::ZERO,
        };

        match self.runs.back_mut() {
            Some((r, c, n)) if *r == round && *c == core => *n += 1,
            _ => self.runs.push_back((round, core, 1)),
        }
        self.per_core[core] += 1;
        self.total += 1;
        IcxOutcome {
            contention: others,
            throttle_stall,
        }
    }

    /// Requests currently in the window for `core` (test/diagnostic aid).
    pub fn in_window(&self, core: usize, round: u64) -> usize {
        self.runs
            .iter()
            .filter(|(r, c, _)| *c == core && round.saturating_sub(*r) < self.window)
            .map(|(_, _, n)| *n as usize)
            .sum()
    }

    /// The interconnect is stateless across windows: clearing it models
    /// the passage of a quiet period. (There is deliberately *no* flush
    /// primitive tied to domain switches — concurrent cores never stop,
    /// which is exactly why the paper excludes this channel.)
    pub fn quiesce(&mut self) {
        self.runs.clear();
        self.per_core.clear();
        self.total = 0;
    }

    /// Drop the runs that have left the window by `round`. Runs are
    /// round-ordered, so the expired ones are a prefix.
    fn prune(&mut self, round: u64) {
        while let Some(&(r, c, n)) = self.runs.front() {
            if round.saturating_sub(r) < self.window {
                break;
            }
            self.runs.pop_front();
            self.per_core[c] -= n;
            self.total -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_core_sees_no_contention() {
        let mut icx = Interconnect::new(16);
        for round in 0..10 {
            let out = icx.request(0, round);
            assert_eq!(out.contention, 0);
            assert_eq!(out.throttle_stall, Cycles::ZERO);
        }
    }

    #[test]
    fn cross_core_contention_is_visible() {
        let mut icx = Interconnect::new(16);
        for _ in 0..5 {
            icx.request(1, 0); // trojan hammers the bus
        }
        let out = icx.request(0, 1);
        assert_eq!(out.contention, 5, "spy observes the trojan's traffic");
    }

    #[test]
    fn own_traffic_is_not_contention() {
        let mut icx = Interconnect::new(16);
        for _ in 0..5 {
            icx.request(0, 0);
        }
        let out = icx.request(0, 1);
        assert_eq!(out.contention, 0);
    }

    #[test]
    fn window_expiry_forgets_traffic() {
        let mut icx = Interconnect::new(4);
        icx.request(1, 0);
        let out = icx.request(0, 10); // round 10 > window 4 after round 0
        assert_eq!(out.contention, 0);
    }

    #[test]
    fn mba_throttles_only_the_heavy_core() {
        let mut icx = Interconnect::new(16);
        icx.set_mba(Some(MbaThrottle {
            max_requests_per_window: 2,
            throttle_stall: 100,
        }));
        // Core 1 exceeds its budget.
        assert_eq!(icx.request(1, 0).throttle_stall, Cycles::ZERO);
        assert_eq!(icx.request(1, 0).throttle_stall, Cycles::ZERO);
        assert_eq!(icx.request(1, 0).throttle_stall, Cycles(100));
        // Core 0 is unaffected by core 1's throttle...
        let out = icx.request(0, 0);
        assert_eq!(out.throttle_stall, Cycles::ZERO);
        // ...but still *sees* core 1's (throttled) traffic: the channel
        // narrows, it does not close — the paper's footnote 1.
        assert!(out.contention > 0);
    }

    /// The original scan-everything model, kept as the reference the
    /// run-length queue must agree with.
    struct NaiveInterconnect {
        window: u64,
        recent: Vec<(u64, usize)>,
        mba: Option<MbaThrottle>,
    }

    impl NaiveInterconnect {
        fn request(&mut self, core: usize, round: u64) -> IcxOutcome {
            let w = self.window;
            self.recent.retain(|(r, _)| round.saturating_sub(*r) < w);
            let mine = self.recent.iter().filter(|(_, c)| *c == core).count() as u32;
            let others = self.recent.len() as u32 - mine;
            let throttle_stall = match self.mba {
                Some(m) if mine >= m.max_requests_per_window => Cycles(m.throttle_stall),
                _ => Cycles::ZERO,
            };
            self.recent.push((round, core));
            IcxOutcome {
                contention: others,
                throttle_stall,
            }
        }

        fn in_window(&self, core: usize, round: u64) -> usize {
            self.recent
                .iter()
                .filter(|(r, c)| *c == core && round.saturating_sub(*r) < self.window)
                .count()
        }
    }

    #[test]
    fn agrees_with_the_naive_window_scan() {
        let mut rng = proptest::TestRng::new(0x1c5);
        for case in 0..200 {
            let window = 1 + rng.below(12);
            let mba = (case % 2 == 1).then(|| MbaThrottle {
                max_requests_per_window: 1 + rng.below(6) as u32,
                throttle_stall: 100,
            });
            let mut fast = Interconnect::new(window);
            fast.set_mba(mba);
            let mut naive = NaiveInterconnect {
                window,
                recent: Vec::new(),
                mba,
            };
            let mut round = 0u64;
            for _ in 0..300 {
                match rng.below(20) {
                    0 => round += 1 + rng.below(2 * window), // a jump, often past the window
                    1..=5 => round += 1,
                    6 if rng.below(4) == 0 => {
                        fast.quiesce();
                        naive.recent.clear();
                    }
                    _ => {}
                }
                let core = rng.below(4) as usize;
                assert_eq!(fast.request(core, round), naive.request(core, round));
                for c in 0..4 {
                    for at in [round, round + 1, round + window] {
                        assert_eq!(fast.in_window(c, at), naive.in_window(c, at));
                    }
                }
            }
        }
    }

    #[test]
    fn one_round_of_one_core_is_one_run() {
        let mut icx = Interconnect::new(32);
        for _ in 0..100_000 {
            icx.request(0, 0);
        }
        assert_eq!(icx.runs.len(), 1);
        assert_eq!(icx.in_window(0, 0), 100_000);
        assert_eq!(icx.request(1, 0).contention, 100_000);
    }

    #[test]
    fn quiesce_clears_history() {
        let mut icx = Interconnect::new(16);
        icx.request(1, 0);
        icx.quiesce();
        assert_eq!(icx.request(0, 1).contention, 0);
    }
}

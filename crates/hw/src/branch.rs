//! Branch predictor model: gshare direction predictor plus a tagged BTB.
//!
//! Branch predictors are core-local, *flushable* state in the paper's
//! taxonomy (§4.1): they are time-shared between domains on the same core,
//! so resetting them on domain switch suffices. They matter because a
//! domain's branch history perturbs another domain's misprediction rate —
//! the mechanism behind several Spectre variants the paper cites as
//! motivation.

use crate::types::{mix2, slot_term, DomainTag, VAddr};

/// Number of global-history bits in the gshare predictor.
const GSHARE_HISTORY_BITS: u32 = 10;

/// Outcome of consulting the predictor for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Direction prediction was correct.
    pub direction_correct: bool,
    /// Target was found in the BTB (only meaningful for taken branches).
    pub btb_hit: bool,
}

impl BranchOutcome {
    /// Whether the front end must be re-steered (mispredict penalty).
    pub fn mispredicted(&self) -> bool {
        !self.direction_correct || !self.btb_hit
    }
}

/// A gshare direction predictor with a direct-mapped, tagged BTB.
///
/// The predictor keeps its state digest current (see [`slot_term`]):
/// PHT counter `i` is slot `i`, BTB entry `j` slot `pht + j` and the
/// global history the slot after those, each 0 in its reset state. It
/// also counts the slots out of their reset state, ghost owners
/// included ([`BranchPredictor::is_reset`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    /// Pattern history table of 2-bit saturating counters.
    pht: Vec<u8>,
    /// Global history register (low `GSHARE_HISTORY_BITS` bits used).
    ghr: u64,
    /// BTB entries: `(tag, target)` per slot; tag 0 means empty (tags are
    /// full PCs shifted, and PC 0 is never a branch in our programs).
    btb: Vec<(u64, u64)>,
    /// Ghost owner of the most recent update to each PHT counter.
    owners: Vec<Option<DomainTag>>,
    /// Running [`BranchPredictor::state_digest`].
    digest: u64,
    /// PHT counters off [`PHT_RESET`], filled BTB slots, `Some` owners
    /// and a non-zero history.
    live: usize,
}

/// A PHT counter's reset value: weakly not-taken.
const PHT_RESET: u8 = 1;

impl BranchPredictor {
    /// Create a predictor with `pht_entries` counters and `btb_entries`
    /// BTB slots (both must be powers of two).
    ///
    /// # Panics
    /// Panics if either size is not a power of two.
    pub fn new(pht_entries: usize, btb_entries: usize) -> Self {
        assert!(
            pht_entries.is_power_of_two(),
            "PHT size must be a power of two"
        );
        assert!(
            btb_entries.is_power_of_two(),
            "BTB size must be a power of two"
        );
        BranchPredictor {
            pht: vec![PHT_RESET; pht_entries],
            ghr: 0,
            btb: vec![(0, 0); btb_entries],
            owners: vec![None; pht_entries],
            digest: 0,
            live: 0,
        }
    }

    /// `(PHT entries, BTB entries)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.pht.len(), self.btb.len())
    }

    /// Default geometry: 1024-entry PHT, 64-entry BTB.
    pub fn default_geometry() -> Self {
        BranchPredictor::new(1024, 64)
    }

    fn pht_index(&self, pc: VAddr) -> usize {
        let mask = (self.pht.len() - 1) as u64;
        (((pc.0 >> 2) ^ self.ghr) & mask) as usize
    }

    fn btb_index(&self, pc: VAddr) -> usize {
        ((pc.0 >> 2) as usize) & (self.btb.len() - 1)
    }

    /// Predict and update for a resolved branch at `pc` that was actually
    /// `taken` towards `target`. Returns whether the prediction machinery
    /// got it right; the time model converts mispredicts into cycles.
    pub fn resolve(
        &mut self,
        pc: VAddr,
        taken: bool,
        target: VAddr,
        owner: DomainTag,
    ) -> BranchOutcome {
        let idx = self.pht_index(pc);
        let predicted_taken = self.pht[idx] >= 2;
        let direction_correct = predicted_taken == taken;

        // BTB: only consulted for predicted/actual taken branches.
        let bidx = self.btb_index(pc);
        let tag = pc.0 >> 2 | 1; // never zero
        let btb_hit = if taken {
            self.btb[bidx] == (tag, target.0)
        } else {
            true
        };

        // Update PHT counter. Each update below hashes only a slot whose
        // content changed.
        let counter = if taken {
            (self.pht[idx] + 1).min(3)
        } else {
            self.pht[idx].saturating_sub(1)
        };
        if counter != self.pht[idx] {
            let before = self.pht_term(idx);
            self.pht[idx] = counter;
            let after = self.pht_term(idx);
            self.account(before, after);
        }
        if self.owners[idx].is_none() {
            self.live += 1;
        }
        self.owners[idx] = Some(owner);

        // Update BTB on taken branches.
        if taken && !btb_hit {
            let before = self.btb_term(bidx);
            self.btb[bidx] = (tag, target.0);
            let after = self.btb_term(bidx);
            self.account(before, after);
        }

        // Shift history.
        let ghr = ((self.ghr << 1) | taken as u64) & ((1 << GSHARE_HISTORY_BITS) - 1);
        if ghr != self.ghr {
            let before = self.ghr_term();
            self.ghr = ghr;
            let after = self.ghr_term();
            self.account(before, after);
        }

        BranchOutcome {
            direction_correct,
            btb_hit,
        }
    }

    /// Reset all prediction state to the canonical power-on state (§4.1
    /// flushing). History-independent by construction. A predictor
    /// already in it is left alone.
    pub fn flush(&mut self) {
        if self.live == 0 {
            return;
        }
        self.pht.fill(PHT_RESET);
        self.ghr = 0;
        self.btb.fill((0, 0));
        self.owners.fill(None);
        self.digest = 0;
        self.live = 0;
    }

    /// Ghost owners of PHT entries, for the partitioning checker.
    pub fn iter_owners(&self) -> impl Iterator<Item = (usize, DomainTag)> + '_ {
        self.owners
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|t| (i, t)))
    }

    /// Digest of all timing-relevant predictor state. Kept current by
    /// every mutator, so this is one load.
    #[inline]
    pub fn state_digest(&self) -> u64 {
        self.digest
    }

    /// [`BranchPredictor::state_digest`] folded afresh from every slot:
    /// the oracle the running digest is tested against.
    pub fn digest_from_scratch(&self) -> u64 {
        let term = |t: Option<u64>| t.unwrap_or(0);
        let pht =
            (0..self.pht.len()).fold(term(self.ghr_term()), |h, i| h ^ term(self.pht_term(i)));
        (0..self.btb.len()).fold(pht, |h, j| h ^ term(self.btb_term(j)))
    }

    /// Whether every counter, BTB slot, owner and the history are at
    /// their reset values: `self == BranchPredictor::new(pht, btb)`, in
    /// one load.
    #[inline]
    pub fn is_reset(&self) -> bool {
        self.live == 0
    }

    /// PHT counter `i`'s term; `None` at [`PHT_RESET`].
    fn pht_term(&self, i: usize) -> Option<u64> {
        match self.pht[i] {
            PHT_RESET => None,
            c => Some(slot_term(i as u64, c as u64)),
        }
    }

    /// BTB entry `j`'s term, at slot `pht + j`; `None` while empty.
    fn btb_term(&self, j: usize) -> Option<u64> {
        match self.btb[j] {
            (0, 0) => None,
            (tag, target) => Some(slot_term((self.pht.len() + j) as u64, mix2(tag, target))),
        }
    }

    /// The global history's term, at the slot after the BTB's; `None`
    /// at 0.
    fn ghr_term(&self) -> Option<u64> {
        match self.ghr {
            0 => None,
            ghr => Some(slot_term((self.pht.len() + self.btb.len()) as u64, ghr)),
        }
    }

    /// Account for one slot changing from term `before` to `after` in
    /// the digest and the live count.
    #[inline]
    fn account(&mut self, before: Option<u64>, after: Option<u64>) {
        self.live = self.live + usize::from(after.is_some()) - usize::from(before.is_some());
        self.digest ^= before.unwrap_or(0) ^ after.unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DomainTag = DomainTag(0);

    #[test]
    fn learns_a_biased_branch() {
        let mut bp = BranchPredictor::default_geometry();
        let pc = VAddr(0x400);
        let tgt = VAddr(0x800);
        // After warming up, an always-taken branch at a stable history
        // should predict correctly.
        let mut last = BranchOutcome {
            direction_correct: false,
            btb_hit: false,
        };
        for _ in 0..64 {
            last = bp.resolve(pc, true, tgt, D);
        }
        assert!(last.direction_correct);
        assert!(last.btb_hit);
        assert!(!last.mispredicted());
    }

    #[test]
    fn mispredicts_on_direction_flip() {
        let mut bp = BranchPredictor::default_geometry();
        let pc = VAddr(0x400);
        let tgt = VAddr(0x800);
        for _ in 0..64 {
            bp.resolve(pc, true, tgt, D);
        }
        let out = bp.resolve(pc, false, tgt, D);
        assert!(!out.direction_correct);
    }

    #[test]
    fn btb_miss_on_new_target() {
        let mut bp = BranchPredictor::default_geometry();
        let pc = VAddr(0x400);
        for _ in 0..8 {
            bp.resolve(pc, true, VAddr(0x800), D);
        }
        let out = bp.resolve(pc, true, VAddr(0xc00), D);
        assert!(!out.btb_hit, "changed target must miss the BTB");
        assert!(out.mispredicted());
    }

    #[test]
    fn flush_is_history_independent() {
        let mut a = BranchPredictor::default_geometry();
        let mut b = BranchPredictor::default_geometry();
        for i in 0..200u64 {
            a.resolve(VAddr(i * 4), i % 3 != 0, VAddr(i * 8), DomainTag(1));
        }
        a.flush();
        b.flush();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a, b);
        assert_eq!(a.iter_owners().count(), 0);
    }

    #[test]
    fn cross_pc_interference_via_ghr_exists() {
        // Demonstrate the channel: the same branch at the same PC can
        // predict differently depending on *other* branches' history.
        // (This is why the predictor must be flushed between domains.)
        let run = |noise: bool| {
            let mut bp = BranchPredictor::default_geometry();
            if noise {
                for i in 0..10u64 {
                    bp.resolve(
                        VAddr(0x9000 + i * 4),
                        i % 2 == 0,
                        VAddr(0xa000),
                        DomainTag(1),
                    );
                }
            }
            // Train target branch lightly, then measure one prediction.
            bp.resolve(VAddr(0x400), true, VAddr(0x800), D);
            bp.resolve(VAddr(0x400), true, VAddr(0x800), D)
                .direction_correct
        };
        // The GHR differs, so the PHT index differs, so training from the
        // first resolve lands elsewhere: outcomes may diverge.
        let _ = (run(false), run(true)); // smoke: both paths execute
                                         // At minimum, digests differ between the two histories.
        let mut x = BranchPredictor::default_geometry();
        let mut y = BranchPredictor::default_geometry();
        x.resolve(VAddr(0x9000), true, VAddr(0xa000), DomainTag(1));
        assert_ne!(x.state_digest(), y.state_digest());
        y.flush();
        x.flush();
        assert_eq!(x.state_digest(), y.state_digest());
    }

    /// Random resolves and flushes: after each one the running digest
    /// equals the fold from scratch, a flushed predictor's digest is 0,
    /// the live count equals a tally of the slots off their reset
    /// values, and `is_reset` agrees with a compare against a new
    /// predictor.
    #[test]
    fn the_running_digest_matches_the_fold_after_every_mutation() {
        let mut rng = proptest::TestRng::new(0xb9);
        let mut bp = BranchPredictor::new(16, 4);
        let (mut btb_moves, mut ghr_moves) = (0, 0);
        for step in 0..2000 {
            let before = bp.clone();
            if rng.below(20) == 0 {
                bp.flush();
                assert_eq!(bp.state_digest(), 0, "step {step}: a flush hashes nothing");
            } else {
                let pc = VAddr(rng.below(32) << 2);
                bp.resolve(pc, rng.below(2) == 0, VAddr(rng.below(4) << 8), D);
            }
            assert_eq!(bp.state_digest(), bp.digest_from_scratch(), "step {step}");
            assert_live_current(&bp, &format!("step {step}"));
            btb_moves += usize::from(bp.btb != before.btb);
            ghr_moves += usize::from(bp.ghr != before.ghr);
        }
        assert!(btb_moves > 0 && ghr_moves > 0);
    }

    /// The live count equals a tally over every slot, and `is_reset`
    /// agrees with a compare against a new predictor of the same size.
    fn assert_live_current(bp: &BranchPredictor, ctx: &str) {
        let live = bp.pht.iter().filter(|&&c| c != PHT_RESET).count()
            + bp.btb.iter().filter(|&&e| e != (0, 0)).count()
            + bp.owners.iter().filter(|o| o.is_some()).count()
            + usize::from(bp.ghr != 0);
        assert_eq!(bp.live, live, "{ctx}: live");
        let (pht, btb) = bp.geometry();
        assert_eq!(
            bp.is_reset(),
            *bp == BranchPredictor::new(pht, btb),
            "{ctx}"
        );
    }

    /// A counter trained up and back down is at its reset value again,
    /// but the predictor is not reset: the counter's owner, the BTB and
    /// the history remember the branches.
    #[test]
    fn a_counter_trained_back_keeps_the_predictor_live() {
        let mut bp = BranchPredictor::new(16, 4);
        // Taken at counter 1 (history 0) raises it to 2 and shifts a 1
        // into the history; a not-taken branch whose PC XOR that history
        // indexes counter 1 again lowers it back to its reset value.
        bp.resolve(VAddr(1 << 2), true, VAddr(0x100), D);
        assert_eq!(bp.pht[1], 2);
        bp.resolve(VAddr(0), false, VAddr(0), D);
        assert!(bp.pht.iter().all(|&c| c == PHT_RESET), "{:?}", bp.pht);
        assert!(bp.owners[1].is_some());
        assert!(!bp.is_reset());
        assert_ne!(bp, BranchPredictor::new(16, 4));
        assert_live_current(&bp, "trained back");
        bp.flush();
        assert!(bp.is_reset());
        assert_live_current(&bp, "flushed");
    }

    /// Flushing a predictor that is already reset, new or just flushed,
    /// leaves it equal to a new one.
    #[test]
    fn flushing_a_reset_predictor_leaves_it_new() {
        let mut bp = BranchPredictor::new(16, 4);
        bp.flush();
        assert_eq!(bp, BranchPredictor::new(16, 4));
        bp.resolve(VAddr(1 << 2), true, VAddr(0x100), D);
        bp.flush();
        bp.flush();
        assert_eq!(bp, BranchPredictor::new(16, 4));
        assert_live_current(&bp, "flushed twice");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = BranchPredictor::new(1000, 64);
    }
}

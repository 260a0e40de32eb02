//! Branch predictor model: gshare direction predictor plus a tagged BTB.
//!
//! Branch predictors are core-local, *flushable* state in the paper's
//! taxonomy (§4.1): they are time-shared between domains on the same core,
//! so resetting them on domain switch suffices. They matter because a
//! domain's branch history perturbs another domain's misprediction rate —
//! the mechanism behind several Spectre variants the paper cites as
//! motivation.

use crate::types::{mix2, DomainTag, Generation, GenerationCounter, VAddr};

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
/// Equality compares the prediction state and ignores the generation
/// counter.
#[derive(Debug, Clone)]
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
    /// Bumped by `resolve` and `flush` (see [`BranchPredictor::generation`]).
    generation: GenerationCounter,
}

impl PartialEq for BranchPredictor {
    fn eq(&self, other: &Self) -> bool {
        self.pht == other.pht
            && self.ghr == other.ghr
            && self.btb == other.btb
            && self.owners == other.owners
    }
}

impl Eq for BranchPredictor {}

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
            pht: vec![1; pht_entries], // weakly not-taken
            ghr: 0,
            btb: vec![(0, 0); btb_entries],
            owners: vec![None; pht_entries],
            generation: GenerationCounter::new(),
        }
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
        self.generation.bump();
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

        // Update PHT counter.
        if taken {
            self.pht[idx] = (self.pht[idx] + 1).min(3);
        } else {
            self.pht[idx] = self.pht[idx].saturating_sub(1);
        }
        self.owners[idx] = Some(owner);

        // Update BTB on taken branches.
        if taken {
            self.btb[bidx] = (tag, target.0);
        }

        // Shift history.
        self.ghr = ((self.ghr << 1) | taken as u64) & ((1 << GSHARE_HISTORY_BITS) - 1);

        BranchOutcome {
            direction_correct,
            btb_hit,
        }
    }

    /// Reset all prediction state to the canonical power-on state (§4.1
    /// flushing). History-independent by construction.
    pub fn flush(&mut self) {
        self.generation.bump();
        for c in &mut self.pht {
            *c = 1;
        }
        self.ghr = 0;
        for b in &mut self.btb {
            *b = (0, 0);
        }
        for o in &mut self.owners {
            *o = None;
        }
    }

    /// Ghost owners of PHT entries, for the partitioning checker.
    pub fn iter_owners(&self) -> impl Iterator<Item = (usize, DomainTag)> + '_ {
        self.owners
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|t| (i, t)))
    }

    /// Where the predictor is in its mutation history: while this is
    /// unchanged, so is [`BranchPredictor::state_digest`].
    pub fn generation(&self) -> Generation {
        self.generation.get()
    }

    /// Digest of all timing-relevant predictor state.
    pub fn state_digest(&self) -> u64 {
        let mut h = self.ghr;
        for (i, c) in self.pht.iter().enumerate() {
            h = mix2(h, mix2(i as u64, *c as u64));
        }
        for (i, (t, tgt)) in self.btb.iter().enumerate() {
            h = mix2(h, mix2(i as u64, mix2(*t, *tgt)));
        }
        h
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

    /// `resolve` and `flush` move the generation, readers leave it, and
    /// a clone compares equal under another generation.
    #[test]
    fn every_mutator_moves_the_generation() {
        let mut rng = proptest::TestRng::new(0xb9);
        let mut bp = BranchPredictor::new(16, 4);
        for step in 0..600 {
            let generation = bp.generation();
            if rng.below(10) == 0 {
                bp.flush();
            } else {
                let pc = VAddr(rng.below(32) << 2);
                bp.resolve(pc, rng.below(2) == 0, VAddr(rng.below(4) << 8), D);
            }
            assert_ne!(bp.generation(), generation, "step {step}");
            let generation = bp.generation();
            let _ = (bp.state_digest(), bp.iter_owners().count());
            assert_eq!(bp.generation(), generation, "step {step}: readers");
            let clone = bp.clone();
            assert_eq!(clone, bp, "step {step}: equality ignores the generation");
            assert_ne!(clone.generation(), bp.generation(), "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = BranchPredictor::new(1000, 64);
    }
}

//! Set-associative cache model.
//!
//! This is the central shared resource of the paper (§3.1): a physically
//! indexed, set-associative cache whose *occupancy* — not its contents —
//! carries information between security domains. The model records, per
//! line: validity, tag, dirtiness, the replacement-policy state, and a
//! *ghost* [`DomainTag`] naming the domain that installed the line. The
//! ghost tag is used only by the partitioning-invariant checker in
//! `tp-core`; the timing behaviour of the cache never depends on it.
//!
//! Three replacement policies are modelled. `Lru` and `TreePlru` keep all
//! replacement state *within the set*, which is what makes page colouring
//! a sound partitioning mechanism (§4.1): a domain confined to its own
//! sets cannot influence any state consulted by another domain's accesses.
//! `GlobalRandom` deliberately violates this — its LFSR advances on every
//! miss anywhere in the cache — and exists so the proof harness can
//! demonstrate *detecting* hardware that breaks the aISA contract.

use crate::types::{mix2, mix64, Colour, DomainTag, PAddr, LINE_BITS, PAGE_BITS};

/// Replacement policy for a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// True least-recently-used, per set. Partition-safe.
    Lru,
    /// Tree pseudo-LRU (as in most real L1s), per set. Partition-safe.
    TreePlru,
    /// Victim way chosen by a cache-global LFSR that steps on every miss.
    ///
    /// This policy is *not* partition-safe: misses in one domain's sets
    /// perturb victim selection in another's. It models hardware that
    /// does not honour the aISA contract of §4.1.
    GlobalRandom,
}

/// Static geometry and behaviour of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set): at least 1 and at most
    /// [`CacheConfig::MAX_WAYS`] (the per-line recency ranks are bytes),
    /// and at most [`CacheConfig::MAX_PLRU_WAYS`] under `TreePlru` (the
    /// per-set tree is one 32-bit word).
    pub ways: usize,
    /// Whether stores allocate and mark lines dirty (write-back) or are
    /// propagated immediately (write-through, never dirty).
    pub write_back: bool,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
}

/// Why a [`CacheConfig`] cannot be modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// `sets` is zero or not a power of two.
    SetsNotPowerOfTwo(usize),
    /// `ways` is zero.
    NoWays,
    /// More ways than the byte-wide recency ranks can order.
    TooManyWays(usize),
    /// More ways than a 32-bit PLRU tree word can hold.
    TooManyPlruWays(usize),
}

impl core::fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CacheConfigError::SetsNotPowerOfTwo(n) => {
                write!(f, "sets must be a power of two, got {n}")
            }
            CacheConfigError::NoWays => write!(f, "need at least one way"),
            CacheConfigError::TooManyWays(n) => write!(
                f,
                "at most {} ways are modelled, got {n}",
                CacheConfig::MAX_WAYS
            ),
            CacheConfigError::TooManyPlruWays(n) => write!(
                f,
                "TreePlru models at most {} ways, got {n}",
                CacheConfig::MAX_PLRU_WAYS
            ),
        }
    }
}

impl std::error::Error for CacheConfigError {}

impl CacheConfig {
    /// Most ways any policy models: recency ranks `0..ways` are stored
    /// in a byte.
    pub const MAX_WAYS: usize = 256;

    /// Most ways `TreePlru` models: its `ways - 1` tree nodes are bits
    /// `1..32` of one 32-bit word.
    pub const MAX_PLRU_WAYS: usize = 32;

    /// A 32 KiB, 64-set, 8-way L1-like configuration.
    pub fn l1() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            write_back: true,
            policy: ReplacementPolicy::TreePlru,
        }
    }

    /// A 256 KiB, 512-set, 8-way private-L2-like configuration.
    pub fn l2() -> Self {
        CacheConfig {
            sets: 512,
            ways: 8,
            write_back: true,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// An 8 MiB, 8192-set, 16-way shared-LLC-like configuration
    /// (128 page colours; the paper notes ≥ 64 on modern parts).
    pub fn llc() -> Self {
        CacheConfig {
            sets: 8192,
            ways: 16,
            write_back: true,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * crate::types::LINE_SIZE
    }

    /// Number of distinct page colours this cache induces (§4.1): the
    /// number of page-sized windows in one way of the cache. Caches
    /// smaller than one page per way have a single colour.
    pub fn colours(&self) -> usize {
        let sets_per_page = 1usize << (PAGE_BITS - LINE_BITS);
        (self.sets / sets_per_page).max(1)
    }

    /// Check that the model can represent this geometry.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(self.sets));
        }
        if self.ways == 0 {
            return Err(CacheConfigError::NoWays);
        }
        if self.ways > Self::MAX_WAYS {
            return Err(CacheConfigError::TooManyWays(self.ways));
        }
        if self.policy == ReplacementPolicy::TreePlru && self.ways > Self::MAX_PLRU_WAYS {
            return Err(CacheConfigError::TooManyPlruWays(self.ways));
        }
        Ok(())
    }
}

/// One cache line's worth of modelled state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Whether the line holds a valid block.
    pub valid: bool,
    /// The tag (full line number; the model does not bother splitting
    /// index bits out of the stored tag).
    pub tag: u64,
    /// Dirty bit; only ever set for write-back caches.
    pub dirty: bool,
    /// Ghost owner tag (see module docs). `None` after reset/flush.
    pub owner: Option<DomainTag>,
}

impl LineState {
    const INVALID: LineState = LineState {
        valid: false,
        tag: 0,
        dirty: false,
        owner: None,
    };
}

/// What happened on a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Set index of the access.
    pub set: usize,
    /// Way that now holds the line.
    pub way: usize,
    /// A dirty victim was evicted and must be written back.
    pub writeback: bool,
    /// Ghost: owner of the evicted line, if a valid line was evicted.
    pub evicted_owner: Option<DomainTag>,
}

/// Result of flushing a cache.
///
/// The latency of the flush is *history-dependent*: it grows with the
/// number of dirty lines written back. This is exactly the §4.2 channel
/// that domain-switch padding must hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushOutcome {
    /// Valid lines invalidated.
    pub invalidated: usize,
    /// Dirty lines written back (each costs extra time).
    pub writebacks: usize,
}

/// A physically indexed set-associative cache.
///
/// Equality compares the modelled state and ignores the digest memo and
/// its line terms.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets * ways` lines, row-major by set.
    lines: Vec<LineState>,
    /// Per-line LRU ranks (0 = most recent) for `Lru`.
    lru: Vec<u8>,
    /// Per-set PLRU tree bits for `TreePlru` (one word per set).
    plru: Vec<u32>,
    /// Global LFSR for `GlobalRandom`.
    lfsr: u32,
    /// Memoised line part of [`Cache::set_digest`] per set: the chain
    /// over the set's ways, before the set's PLRU word is folded in.
    /// Entry `s` is meaningful only while bit `s` of `memo_valid` is set.
    /// This, `memo_valid` and `line_terms` stay empty until the first
    /// [`Cache::set_digest_memo`] call, so caches nobody asks for set
    /// digests (the LLC, L2, every cache under a table time model) never
    /// allocate them.
    memo: Vec<u64>,
    /// One validity bit per set for `memo`, 64 sets a word.
    memo_valid: Vec<u64>,
    /// Per line, once `memo` exists: [`line_term`] of the line, written
    /// on every fill and dirtying hit. Meaningful for valid lines only.
    line_terms: Vec<u64>,
}

impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.lines == other.lines
            && self.lru == other.lru
            && self.plru == other.plru
            && self.lfsr == other.lfsr
    }
}

impl Eq for Cache {}

impl Cache {
    /// Create an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics if [`CacheConfig::validate`] rejects `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let n = cfg.sets * cfg.ways;
        Cache {
            cfg,
            lines: vec![LineState::INVALID; n],
            lru: vec![0; n],
            plru: vec![0; cfg.sets],
            lfsr: 0xace1,
            memo: Vec::new(),
            memo_valid: Vec::new(),
            line_terms: Vec::new(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set index for a physical address.
    #[inline]
    pub fn set_of(&self, paddr: PAddr) -> usize {
        (paddr.line() as usize) & (self.cfg.sets - 1)
    }

    /// The page colour a physical address maps to in this cache (§4.1).
    #[inline]
    pub fn colour_of(&self, paddr: PAddr) -> Colour {
        Colour((paddr.pfn() as usize % self.cfg.colours()) as u16)
    }

    /// The contiguous range of set indices belonging to a colour.
    pub fn sets_of_colour(&self, colour: Colour) -> core::ops::Range<usize> {
        let sets_per_colour = self.cfg.sets / self.cfg.colours();
        let start = colour.0 as usize * sets_per_colour;
        start..start + sets_per_colour
    }

    /// Access the line containing `paddr`. `write` marks the line dirty in
    /// write-back caches. `owner` is the ghost tag recorded on fill.
    pub fn access(&mut self, paddr: PAddr, write: bool, owner: DomainTag) -> AccessOutcome {
        let set = self.set_of(paddr);
        let tag = paddr.line();
        let base = set * self.cfg.ways;

        // Hit?
        for way in 0..self.cfg.ways {
            let l = &mut self.lines[base + way];
            if l.valid && l.tag == tag {
                if write && self.cfg.write_back && !l.dirty {
                    l.dirty = true;
                    self.refresh_line_term(base + way, way);
                    self.forget_digest(set);
                }
                self.touch(set, way);
                return AccessOutcome {
                    hit: true,
                    set,
                    way,
                    writeback: false,
                    evicted_owner: None,
                };
            }
        }

        // Miss: pick a victim (an invalid way if one exists, else by policy).
        let way = self.victim(set);
        let victim = self.lines[base + way];
        let writeback = victim.valid && victim.dirty;
        let evicted_owner = if victim.valid { victim.owner } else { None };

        self.lines[base + way] = LineState {
            valid: true,
            tag,
            dirty: write && self.cfg.write_back,
            owner: Some(owner),
        };
        self.fill_touch(set, way);
        self.refresh_line_term(base + way, way);
        self.forget_digest(set);

        AccessOutcome {
            hit: false,
            set,
            way,
            writeback,
            evicted_owner,
        }
    }

    /// Probe without modifying state: would `paddr` hit?
    pub fn peek(&self, paddr: PAddr) -> bool {
        let set = self.set_of(paddr);
        let tag = paddr.line();
        let base = set * self.cfg.ways;
        (0..self.cfg.ways).any(|w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Install a line without an access (used by the prefetcher). Returns
    /// the outcome of the fill (hit if already present).
    pub fn prefetch_fill(&mut self, paddr: PAddr, owner: DomainTag) -> AccessOutcome {
        self.access(paddr, false, owner)
    }

    /// Invalidate the whole cache, writing back dirty lines.
    ///
    /// Resets line state, replacement state *and* the global LFSR: the
    /// canonical, history-independent reset state required by §4.1.
    pub fn flush_all(&mut self) -> FlushOutcome {
        let mut out = FlushOutcome::default();
        for l in &mut self.lines {
            if l.valid {
                out.invalidated += 1;
                if l.dirty {
                    out.writebacks += 1;
                }
            }
            *l = LineState::INVALID;
        }
        for r in &mut self.lru {
            *r = 0;
        }
        for p in &mut self.plru {
            *p = 0;
        }
        self.lfsr = 0xace1;
        self.memo_valid.fill(0);
        out
    }

    /// Invalidate every line in one set (clflush-by-set analogue).
    pub fn flush_set(&mut self, set: usize) -> FlushOutcome {
        let mut out = FlushOutcome::default();
        let base = set * self.cfg.ways;
        for way in 0..self.cfg.ways {
            let l = &mut self.lines[base + way];
            if l.valid {
                out.invalidated += 1;
                if l.dirty {
                    out.writebacks += 1;
                }
            }
            *l = LineState::INVALID;
            self.lru[base + way] = 0;
        }
        self.plru[set] = 0;
        self.forget_digest(set);
        out
    }

    /// Invalidate the single line holding `paddr`, if present
    /// (clflush analogue — the primitive behind Flush+Reload).
    pub fn flush_line(&mut self, paddr: PAddr) -> FlushOutcome {
        let set = self.set_of(paddr);
        let tag = paddr.line();
        let base = set * self.cfg.ways;
        for way in 0..self.cfg.ways {
            let l = &mut self.lines[base + way];
            if l.valid && l.tag == tag {
                let wb = l.dirty;
                *l = LineState::INVALID;
                self.forget_digest(set);
                return FlushOutcome {
                    invalidated: 1,
                    writebacks: wb as usize,
                };
            }
        }
        FlushOutcome::default()
    }

    /// Number of valid lines currently held (any owner).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Number of dirty lines currently held.
    pub fn dirty_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid && l.dirty).count()
    }

    /// Every line, row-major by set: set `s` holds
    /// `lines()[s * ways..(s + 1) * ways]`, so a colour's sets
    /// ([`Cache::sets_of_colour`]) are one contiguous run.
    pub fn lines(&self) -> &[LineState] {
        &self.lines
    }

    /// Iterate over `(set, way, state)` for every line. Used by the
    /// partitioning-invariant checker.
    pub fn iter_lines(&self) -> impl Iterator<Item = (usize, usize, &LineState)> + '_ {
        let ways = self.cfg.ways;
        self.lines
            .iter()
            .enumerate()
            .map(move |(i, l)| (i / ways, i % ways, l))
    }

    /// A deterministic digest of the *architecturally invisible* state:
    /// validity, tags, dirtiness and replacement metadata. Two caches with
    /// equal digests are indistinguishable to any timing experiment.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0u64;
        for (i, l) in self.lines.iter().enumerate() {
            if l.valid {
                h = mix2(h, mix2(i as u64, mix2(l.tag, l.dirty as u64)));
            }
        }
        for (i, r) in self.lru.iter().enumerate() {
            h = mix2(h, mix2(i as u64, *r as u64));
        }
        for (i, p) in self.plru.iter().enumerate() {
            h = mix2(h, mix2(i as u64, *p as u64));
        }
        mix2(h, self.lfsr as u64)
    }

    /// Digest of a single set's state (lines + replacement metadata).
    /// Case 1 of §5.2 reasons about exactly this: the cost of an access
    /// may depend only on the state of the set it indexes.
    ///
    /// This is the reference set digest; [`Cache::set_digest_memo`]
    /// returns the same value from a per-set memo of the line part (the
    /// chain before the final PLRU fold). The memo's invariant: a set's
    /// validity bit is cleared by every change to that set's lines or
    /// LRU ranks — a fill (prefetch fills included), a hit that dirties
    /// a line or moves its LRU rank, and `flush_line`, `flush_set` and
    /// `flush_all` — so a valid memo entry always equals the line part
    /// of the current state. PLRU tree bits are outside the memo: a hit
    /// that only flips them leaves it valid, and the current word is
    /// folded in at every read. Each valid line's hashed term is
    /// rewritten whenever its tag or dirty bit changes, so a recompute
    /// folds stored terms instead of rehashing the lines.
    pub fn set_digest(&self, set: usize) -> u64 {
        let base = set * self.cfg.ways;
        let mut h = 0u64;
        for way in 0..self.cfg.ways {
            let l = &self.lines[base + way];
            if l.valid {
                h = mix2(h, mix2(way as u64, mix2(l.tag, l.dirty as u64)));
            }
            h = mix2(h, self.lru[base + way] as u64);
        }
        mix2(h, self.plru[set] as u64)
    }

    /// [`Cache::set_digest`], memoised per set: the line part is
    /// recomputed, from the stored line terms, only when the set's lines
    /// or LRU ranks changed since the last call; the PLRU word is folded
    /// in afresh every time.
    pub fn set_digest_memo(&mut self, set: usize) -> u64 {
        if self.memo.is_empty() {
            self.memo = vec![0; self.cfg.sets];
            self.memo_valid = vec![0; self.cfg.sets.div_ceil(64)];
            self.line_terms = (0..self.lines.len())
                .map(|i| line_term(i % self.cfg.ways, &self.lines[i]))
                .collect();
        }
        let (word, bit) = (set / 64, 1u64 << (set % 64));
        if self.memo_valid[word] & bit == 0 {
            self.memo[set] = self.lines_digest(set);
            self.memo_valid[word] |= bit;
        }
        mix2(self.memo[set], self.plru[set] as u64)
    }

    /// The line part of [`Cache::set_digest`] for `set`, folding the
    /// stored line terms and tabled rank terms: `mix2(h, x)` is
    /// `mix64(h ^ mix64(x))`, and both hold `mix64(x)` already. Needs
    /// `line_terms`.
    fn lines_digest(&self, set: usize) -> u64 {
        let base = set * self.cfg.ways;
        let mut h = 0u64;
        for i in base..base + self.cfg.ways {
            if self.lines[i].valid {
                h = mix64(h ^ self.line_terms[i]);
            }
            h = mix64(h ^ RANK_TERMS[self.lru[i] as usize]);
        }
        h
    }

    /// Rewrite line `i`'s (way `way`'s) term after its tag or dirty bit
    /// changed, if this cache keeps line terms.
    #[inline]
    fn refresh_line_term(&mut self, i: usize, way: usize) {
        if let Some(t) = self.line_terms.get_mut(i) {
            *t = line_term(way, &self.lines[i]);
        }
    }

    /// Invalidate `set`'s memoised line digest after a change to the
    /// set's lines or LRU ranks.
    #[inline]
    fn forget_digest(&mut self, set: usize) {
        if let Some(w) = self.memo_valid.get_mut(set / 64) {
            *w &= !(1u64 << (set % 64));
        }
    }

    // ---- replacement ---------------------------------------------------

    /// Recency update for a *fill* into a previously invalid or evicted
    /// way: the way had no meaningful rank, so every other line ages.
    fn fill_touch(&mut self, set: usize, way: usize) {
        let base = set * self.cfg.ways;
        if matches!(
            self.cfg.policy,
            ReplacementPolicy::Lru | ReplacementPolicy::GlobalRandom
        ) {
            for w in 0..self.cfg.ways {
                if w != way {
                    self.lru[base + w] = self.lru[base + w].saturating_add(1);
                }
            }
            self.lru[base + way] = 0;
        } else {
            self.touch(set, way);
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let base = set * self.cfg.ways;
        match self.cfg.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::GlobalRandom => {
                // GlobalRandom still keeps recency for hits; only victim
                // selection is randomised. The most recent line's touch
                // changes nothing.
                let old = self.lru[base + way];
                if old == 0 {
                    return;
                }
                self.forget_digest(set);
                for w in 0..self.cfg.ways {
                    if self.lru[base + w] < old {
                        self.lru[base + w] += 1;
                    }
                }
                self.lru[base + way] = 0;
            }
            ReplacementPolicy::TreePlru => {
                // Set the tree bits on the path to `way` to point away.
                let mut bits = self.plru[set];
                let ways = self.cfg.ways;
                let mut node = 1usize; // 1-based heap index
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        bits |= 1 << node; // point right (away from us)
                        hi = mid;
                        node *= 2;
                    } else {
                        bits &= !(1 << node); // point left
                        lo = mid;
                        node = node * 2 + 1;
                    }
                }
                // The memo leaves the tree bits out, so it stays valid.
                self.plru[set] = bits;
            }
        }
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.cfg.ways;
        // Prefer an invalid way regardless of policy.
        for way in 0..self.cfg.ways {
            if !self.lines[base + way].valid {
                return way;
            }
        }
        match self.cfg.policy {
            ReplacementPolicy::Lru => {
                let mut worst = 0;
                let mut worst_rank = 0;
                for way in 0..self.cfg.ways {
                    if self.lru[base + way] >= worst_rank {
                        worst_rank = self.lru[base + way];
                        worst = way;
                    }
                }
                worst
            }
            ReplacementPolicy::TreePlru => {
                let bits = self.plru[set];
                let ways = self.cfg.ways;
                let mut node = 1usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits & (1 << node) != 0 {
                        // bit set: victim on the right
                        lo = mid;
                        node = node * 2 + 1;
                    } else {
                        hi = mid;
                        node *= 2;
                    }
                }
                lo
            }
            ReplacementPolicy::GlobalRandom => {
                // 16-bit Fibonacci LFSR; steps on *every* miss in the cache,
                // coupling victim choice across sets (and hence domains).
                let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
                self.lfsr = (self.lfsr >> 1) | (bit << 15);
                (self.lfsr as usize) % self.cfg.ways
            }
        }
    }
}

/// `mix64(r)` for every LRU rank `r`, built at compile time.
static RANK_TERMS: [u64; CacheConfig::MAX_WAYS] = {
    let mut terms = [0; CacheConfig::MAX_WAYS];
    let mut r = 0;
    while r < terms.len() {
        terms[r] = mix64(r as u64);
        r += 1;
    }
    terms
};

/// A valid line's contribution to its set's digest, hashed once:
/// `mix64(mix2(way, mix2(tag, dirty)))`, so that [`Cache::set_digest`]'s
/// `mix2(h, mix2(way, ..))` is `mix64(h ^ line_term(way, line))`.
#[inline]
fn line_term(way: usize, l: &LineState) -> u64 {
    mix64(mix2(way as u64, mix2(l.tag, l.dirty as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            write_back: true,
            policy,
        })
    }

    fn addr_for(set: usize, tag_round: u64) -> PAddr {
        // Address whose line index is `set + 4*tag_round` in a 4-set cache.
        PAddr((tag_round * 4 + set as u64) << LINE_BITS)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let a = addr_for(1, 0);
        let first = c.access(a, false, DomainTag(0));
        assert!(!first.hit);
        assert_eq!(first.set, 1);
        let second = c.access(a, false, DomainTag(0));
        assert!(second.hit);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let a = addr_for(0, 0);
        let b = addr_for(0, 1);
        let d = addr_for(0, 2);
        c.access(a, false, DomainTag(0));
        c.access(b, false, DomainTag(0));
        c.access(a, false, DomainTag(0)); // a most recent
        let out = c.access(d, false, DomainTag(0)); // evicts b
        assert!(!out.hit);
        assert!(c.peek(a));
        assert!(c.peek(d));
        assert!(!c.peek(b));
    }

    #[test]
    fn write_back_dirty_accounting() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(addr_for(2, 0), true, DomainTag(1));
        assert_eq!(c.dirty_lines(), 1);
        let out = c.flush_all();
        assert_eq!(out.invalidated, 1);
        assert_eq!(out.writebacks, 1);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn write_through_never_dirty() {
        let mut c = Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            write_back: false,
            policy: ReplacementPolicy::Lru,
        });
        c.access(addr_for(0, 0), true, DomainTag(0));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn eviction_reports_writeback_and_owner() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(addr_for(3, 0), true, DomainTag(7));
        c.access(addr_for(3, 1), false, DomainTag(7));
        let out = c.access(addr_for(3, 2), false, DomainTag(8));
        assert!(out.writeback, "dirty victim must be written back");
        assert_eq!(out.evicted_owner, Some(DomainTag(7)));
    }

    #[test]
    fn flush_line_only_removes_target() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let a = addr_for(0, 0);
        let b = addr_for(0, 1);
        c.access(a, true, DomainTag(0));
        c.access(b, false, DomainTag(0));
        let out = c.flush_line(a);
        assert_eq!(
            out,
            FlushOutcome {
                invalidated: 1,
                writebacks: 1
            }
        );
        assert!(!c.peek(a));
        assert!(c.peek(b));
        // Flushing an absent line is a no-op.
        assert_eq!(c.flush_line(a), FlushOutcome::default());
    }

    #[test]
    fn flush_resets_to_canonical_state() {
        // Two very different histories must flush to identical state —
        // the history-independence required by §4.1.
        let mut c1 = tiny(ReplacementPolicy::TreePlru);
        let mut c2 = tiny(ReplacementPolicy::TreePlru);
        for i in 0..100u64 {
            c1.access(PAddr(i * 64), i % 3 == 0, DomainTag(0));
        }
        c2.access(addr_for(1, 5), true, DomainTag(1));
        c1.flush_all();
        c2.flush_all();
        assert_eq!(c1.state_digest(), c2.state_digest());
        assert_eq!(c1, c2);
    }

    #[test]
    fn tree_plru_cycles_through_ways() {
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways: 4,
            write_back: false,
            policy: ReplacementPolicy::TreePlru,
        });
        // Fill 4 ways, then a 5th access must evict exactly one line.
        for t in 0..4u64 {
            c.access(PAddr(t << LINE_BITS), false, DomainTag(0));
        }
        assert_eq!(c.occupancy(), 4);
        c.access(PAddr(4 << LINE_BITS), false, DomainTag(0));
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn global_random_couples_sets() {
        // Misses in set 0 change which way gets evicted in set 1 —
        // the partition-unsafety this policy exists to model.
        let prep = |extra_misses: u64| {
            let mut c = tiny(ReplacementPolicy::GlobalRandom);
            // Fill set 1 fully.
            c.access(addr_for(1, 0), false, DomainTag(0));
            c.access(addr_for(1, 1), false, DomainTag(0));
            // Activity in set 0 (another "domain") advances the LFSR.
            for t in 0..extra_misses {
                c.access(addr_for(0, t + 2), false, DomainTag(1));
            }
            // Now miss in set 1 and see which resident line survives.
            c.access(addr_for(1, 5), false, DomainTag(0));
            (c.peek(addr_for(1, 0)), c.peek(addr_for(1, 1)))
        };
        let outcomes: Vec<_> = (0..8).map(prep).collect();
        assert!(
            outcomes.windows(2).any(|w| w[0] != w[1]),
            "LFSR activity in set 0 should change set-1 victims: {outcomes:?}"
        );
    }

    #[test]
    fn colours_and_set_ranges() {
        let c = Cache::new(CacheConfig::llc());
        let colours = c.config().colours();
        assert_eq!(colours, 128);
        // Pages one colour apart map to disjoint set ranges.
        let p0 = PAddr::from_pfn(0, 0);
        let p1 = PAddr::from_pfn(1, 0);
        assert_ne!(c.colour_of(p0), c.colour_of(p1));
        let r0 = c.sets_of_colour(c.colour_of(p0));
        let r1 = c.sets_of_colour(c.colour_of(p1));
        assert!(r0.end <= r1.start || r1.end <= r0.start);
        // Every line of a page falls inside its colour's set range.
        for off in (0..crate::types::PAGE_SIZE).step_by(64) {
            let s = c.set_of(PAddr(p1.0 + off));
            assert!(c.sets_of_colour(c.colour_of(p1)).contains(&s));
        }
        // Colours wrap with period `colours`.
        assert_eq!(
            c.colour_of(p0),
            c.colour_of(PAddr::from_pfn(colours as u64, 0))
        );
    }

    #[test]
    fn set_digest_localises_state() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let before = c.set_digest(2);
        c.access(addr_for(3, 0), false, DomainTag(0));
        assert_eq!(
            c.set_digest(2),
            before,
            "access to set 3 must not change set 2 digest"
        );
        c.access(addr_for(2, 0), false, DomainTag(0));
        assert_ne!(c.set_digest(2), before);
    }

    fn memo_is_valid(c: &Cache, set: usize) -> bool {
        c.memo_valid[set / 64] & (1 << (set % 64)) != 0
    }

    /// Every set's memo, where valid, equals a fresh `set_digest`; every
    /// valid line's stored term is its current one; a clone without the
    /// memo and line terms compares equal and rebuilds the same digests.
    fn assert_memo_sound(c: &mut Cache, ctx: &str) {
        for set in 0..c.cfg.sets {
            assert_eq!(
                c.set_digest_memo(set),
                c.set_digest(set),
                "{ctx}: set {set}"
            );
        }
        for (i, l) in c.lines.iter().enumerate() {
            if l.valid {
                let want = line_term(i % c.cfg.ways, l);
                assert_eq!(c.line_terms[i], want, "{ctx}: line {i}");
            }
        }
        let mut fresh = c.clone();
        fresh.memo.clear();
        fresh.memo_valid.clear();
        fresh.line_terms.clear();
        assert_eq!(fresh, *c, "{ctx}: equality ignores the memo");
        for set in 0..c.cfg.sets {
            assert_eq!(
                fresh.set_digest_memo(set),
                c.set_digest(set),
                "{ctx}: rebuilt memo, set {set}"
            );
        }
    }

    /// Runs of TreePLRU hits that only flip tree bits keep the memo
    /// valid, and it still equals `set_digest`; a dirtying hit clears it
    /// and refreshes the line's term.
    fn plru_hits_keep_the_memo(rng: &mut proptest::TestRng, ways: usize) {
        let mut c = Cache::new(CacheConfig {
            sets: 8,
            ways,
            write_back: true,
            policy: ReplacementPolicy::TreePlru,
        });
        let set = rng.below(8) as usize;
        let tag = |k: u64| PAddr((k * 8 + set as u64) << LINE_BITS);
        for k in 0..ways as u64 {
            c.access(tag(k), false, DomainTag(0));
        }
        let mut flips = 0;
        for run in 0..40 {
            let ctx = format!("TreePlru ways={ways} set {set} run {run}");
            c.set_digest_memo(set);
            for _ in 0..rng.below(6) {
                let before = c.plru[set];
                let out = c.access(tag(rng.below(ways as u64)), false, DomainTag(0));
                assert!(out.hit, "{ctx}");
                flips += (c.plru[set] != before) as u32;
                assert!(memo_is_valid(&c, set), "{ctx}: a PLRU hit kept the memo");
                assert_eq!(c.set_digest_memo(set), c.set_digest(set), "{ctx}");
            }
            // A store to a clean resident line dirties it.
            let k = rng.below(ways as u64);
            let way = c.access(tag(k), false, DomainTag(0)).way;
            let clean = !c.lines[set * ways + way].dirty;
            c.set_digest_memo(set);
            let out = c.access(tag(k), true, DomainTag(1));
            let i = set * ways + out.way;
            assert!(out.hit && c.lines[i].dirty, "{ctx}");
            if clean {
                assert!(
                    !memo_is_valid(&c, set),
                    "{ctx}: a dirtying hit clears the memo"
                );
            }
            assert_eq!(c.line_terms[i], line_term(out.way, &c.lines[i]), "{ctx}");
            assert_eq!(c.set_digest_memo(set), c.set_digest(set), "{ctx}");
            // Now and then clean the set again so later stores dirty.
            if rng.below(3) == 0 {
                c.flush_set(set);
                for k in 0..ways as u64 {
                    c.access(tag(k), false, DomainTag(0));
                }
            }
            assert_memo_sound(&mut c, &ctx);
        }
        if ways > 1 {
            assert!(flips > 0, "ways={ways}: no hit flipped a tree bit");
        }
    }

    #[test]
    fn memoised_set_digest_tracks_every_change() {
        let mut rng = proptest::TestRng::new(0x5e7d);
        let policies = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::GlobalRandom,
        ];
        for policy in policies {
            for write_back in [true, false] {
                for ways in [1, 2, 3, 4, 8] {
                    let mut c = Cache::new(CacheConfig {
                        sets: 8,
                        ways,
                        write_back,
                        policy,
                    });
                    for step in 0..600 {
                        // Few tags per set, so hits, re-hits and evictions
                        // all come up often.
                        let a = PAddr(rng.below(8 * (ways as u64 + 2)) << LINE_BITS);
                        let op = rng.below(20);
                        match op {
                            0..=7 => {
                                c.access(a, false, DomainTag(0));
                            }
                            8..=13 => {
                                c.access(a, true, DomainTag(1));
                            }
                            14..=15 => {
                                c.prefetch_fill(a, DomainTag(2));
                            }
                            16..=17 => {
                                c.flush_line(a);
                            }
                            18 => {
                                c.flush_set(rng.below(8) as usize);
                            }
                            _ => {
                                if rng.below(4) == 0 {
                                    c.flush_all();
                                }
                            }
                        }
                        let ctx =
                            format!("{policy:?} wb={write_back} ways={ways} step {step} op {op}");
                        // Check every set only now and then, so memo
                        // entries also survive many ops unread.
                        if step % 7 == 0 {
                            assert_memo_sound(&mut c, &ctx);
                        } else {
                            let set = c.set_of(a);
                            assert_eq!(c.set_digest_memo(set), c.set_digest(set), "{ctx}");
                        }
                    }
                }
            }
        }
        for ways in [1, 2, 3, 4, 8] {
            plru_hits_keep_the_memo(&mut rng, ways);
        }
    }

    #[test]
    fn validate_rejects_unrepresentable_geometries() {
        let cfg = |sets, ways, policy| CacheConfig {
            sets,
            ways,
            write_back: true,
            policy,
        };
        use ReplacementPolicy::*;
        assert_eq!(cfg(64, 32, TreePlru).validate(), Ok(()));
        assert_eq!(cfg(64, 256, Lru).validate(), Ok(()));
        assert_eq!(cfg(64, 256, GlobalRandom).validate(), Ok(()));
        for ways in [33, 48, 64] {
            assert_eq!(
                cfg(64, ways, TreePlru).validate(),
                Err(CacheConfigError::TooManyPlruWays(ways))
            );
        }
        for policy in [Lru, TreePlru, GlobalRandom] {
            assert_eq!(
                cfg(64, 300, policy).validate(),
                Err(CacheConfigError::TooManyWays(300))
            );
        }
        assert_eq!(
            cfg(48, 8, Lru).validate(),
            Err(CacheConfigError::SetsNotPowerOfTwo(48))
        );
        assert_eq!(cfg(64, 0, Lru).validate(), Err(CacheConfigError::NoWays));
        let msg = CacheConfigError::TooManyPlruWays(48).to_string();
        assert!(msg.contains("32") && msg.contains("48"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "TreePlru models at most 32 ways")]
    fn new_refuses_a_plru_tree_wider_than_its_word() {
        Cache::new(CacheConfig {
            sets: 1,
            ways: 48,
            write_back: false,
            policy: ReplacementPolicy::TreePlru,
        });
    }

    #[test]
    fn lru_at_the_way_limit_still_evicts_the_oldest() {
        let ways = CacheConfig::MAX_WAYS;
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways,
            write_back: false,
            policy: ReplacementPolicy::Lru,
        });
        for t in 0..ways as u64 {
            c.access(PAddr(t << LINE_BITS), false, DomainTag(0));
        }
        c.access(PAddr(0), false, DomainTag(0)); // line 0 most recent
        c.access(PAddr((ways as u64) << LINE_BITS), false, DomainTag(0));
        assert!(c.peek(PAddr(0)));
        assert!(!c.peek(PAddr(1 << LINE_BITS)), "line 1 was least recent");
    }

    #[test]
    fn l1_geometry() {
        let cfg = CacheConfig::l1();
        assert_eq!(cfg.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.colours(), 1, "L1 is virtually-sized: single colour");
    }
}

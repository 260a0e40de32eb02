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

use crate::types::{mix2, slot_term, Colour, DomainTag, PAddr, LINE_BITS, PAGE_BITS};

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

/// Domains whose valid lines a [`Cache`] counts per colour one by one
/// (tags `0..COUNTED_DOMAINS`); see [`Cache::owner_counts`].
pub const COUNTED_DOMAINS: usize = 16;
/// The owner-count slot of lines owned by [`DomainTag::KERNEL`].
pub const KERNEL_SLOT: usize = COUNTED_DOMAINS;
/// The owner-count slot of every other owner: a domain tag at or past
/// [`COUNTED_DOMAINS`], or no owner.
pub const OTHER_SLOT: usize = COUNTED_DOMAINS + 1;
/// Owner-count slots per colour.
pub const OWNER_SLOTS: usize = COUNTED_DOMAINS + 2;

/// The owner-count slot of a line owned by `owner`.
#[inline]
pub fn owner_slot(owner: Option<DomainTag>) -> usize {
    match owner {
        Some(DomainTag::KERNEL) => KERNEL_SLOT,
        Some(DomainTag(d)) if (d as usize) < COUNTED_DOMAINS => d as usize,
        _ => OTHER_SLOT,
    }
}

/// A physically indexed set-associative cache.
///
/// The cache keeps its state digests current (see [`slot_term`]): every
/// valid line has a term keyed by its index, every set one for its
/// recency state (the LRU ranks, or the PLRU word) and the
/// `GlobalRandom` LFSR one of its own, each 0 in its reset state. A set's
/// digest is the XOR of its lines' and its recency term, the whole
/// cache's the XOR of every set's and the LFSR's.
///
/// Next to the digests it keeps two exact counts, updated where a term
/// changes: how many of those slots are out of their reset state
/// ([`Cache::is_reset`]), and how many valid lines each owner holds in
/// each colour ([`Cache::owner_counts`]). Both are functions of the
/// state, so the derived equality stays structural.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Running [`Cache::set_digest`] of every set.
    set_digests: Vec<u64>,
    /// Running [`Cache::state_digest`].
    digest: u64,
    /// Slots out of their reset state: valid lines, sets whose recency
    /// state is not reset, and the LFSR off its seed.
    live: usize,
    /// `log2` of the sets per colour: a set's colour is `set >> shift`.
    colour_shift: u32,
    /// Valid lines per colour and owner slot ([`owner_slot`]).
    owner_counts: Vec<[u32; OWNER_SLOTS]>,
}

/// The LFSR's reset value.
const LFSR_SEED: u32 = 0xace1;

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
            lfsr: LFSR_SEED,
            set_digests: vec![0; cfg.sets],
            digest: 0,
            live: 0,
            colour_shift: (cfg.sets / cfg.colours()).trailing_zeros(),
            owner_counts: vec![[0; OWNER_SLOTS]; cfg.colours()],
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
            let i = base + way;
            if self.lines[i].valid && self.lines[i].tag == tag {
                if write && self.cfg.write_back && !self.lines[i].dirty {
                    let before = self.line_term(i);
                    self.lines[i].dirty = true;
                    self.replace_term(set, before, self.line_term(i));
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

        let before = self.line_term(base + way);
        self.lines[base + way] = LineState {
            valid: true,
            tag,
            dirty: write && self.cfg.write_back,
            owner: Some(owner),
        };
        self.replace_term(set, before, self.line_term(base + way));
        let counts = &mut self.owner_counts[set >> self.colour_shift];
        if victim.valid {
            counts[owner_slot(victim.owner)] -= 1;
        }
        counts[owner_slot(Some(owner))] += 1;
        self.fill_touch(set, way);

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
        self.lru.fill(0);
        self.plru.fill(0);
        self.lfsr = LFSR_SEED;
        self.set_digests.fill(0);
        self.digest = 0;
        self.live = 0;
        self.owner_counts.fill([0; OWNER_SLOTS]);
        out
    }

    /// Invalidate every line in one set (clflush-by-set analogue).
    pub fn flush_set(&mut self, set: usize) -> FlushOutcome {
        let mut out = FlushOutcome::default();
        let base = set * self.cfg.ways;
        self.live -= usize::from(self.recency_live(set));
        let counts = &mut self.owner_counts[set >> self.colour_shift];
        for way in 0..self.cfg.ways {
            let l = &mut self.lines[base + way];
            if l.valid {
                out.invalidated += 1;
                if l.dirty {
                    out.writebacks += 1;
                }
                counts[owner_slot(l.owner)] -= 1;
            }
            *l = LineState::INVALID;
            self.lru[base + way] = 0;
        }
        self.live -= out.invalidated;
        self.plru[set] = 0;
        self.digest ^= self.set_digests[set];
        self.set_digests[set] = 0;
        out
    }

    /// Invalidate the single line holding `paddr`, if present
    /// (clflush analogue — the primitive behind Flush+Reload).
    pub fn flush_line(&mut self, paddr: PAddr) -> FlushOutcome {
        let set = self.set_of(paddr);
        let tag = paddr.line();
        let base = set * self.cfg.ways;
        for i in base..base + self.cfg.ways {
            let l = self.lines[i];
            if l.valid && l.tag == tag {
                let before = self.line_term(i);
                self.lines[i] = LineState::INVALID;
                self.replace_term(set, before, self.line_term(i));
                self.owner_counts[set >> self.colour_shift][owner_slot(l.owner)] -= 1;
                return FlushOutcome {
                    invalidated: 1,
                    writebacks: l.dirty as usize,
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
    /// Kept current by every mutator, so this is one load.
    #[inline]
    pub fn state_digest(&self) -> u64 {
        self.digest
    }

    /// Digest of a single set's state (lines + replacement metadata).
    /// Case 1 of §5.2 reasons about exactly this: the cost of an access
    /// may depend only on the state of the set it indexes. Kept current
    /// by every mutator, so this is one load.
    #[inline]
    pub fn set_digest(&self, set: usize) -> u64 {
        self.set_digests[set]
    }

    /// [`Cache::state_digest`] folded afresh from every slot: the oracle
    /// the running digest is tested against.
    pub fn digest_from_scratch(&self) -> u64 {
        (0..self.cfg.sets).fold(self.lfsr_term().unwrap_or(0), |h, set| {
            h ^ self.set_digest_from_scratch(set)
        })
    }

    /// [`Cache::set_digest`] folded afresh from the set's slots.
    fn set_digest_from_scratch(&self, set: usize) -> u64 {
        let ways = set * self.cfg.ways..(set + 1) * self.cfg.ways;
        ways.fold(self.recency_term(set).unwrap_or(0), |h, i| {
            h ^ self.line_term(i).unwrap_or(0)
        })
    }

    /// Whether every line is invalid and every piece of replacement
    /// state is at its reset value: `self == Cache::new(*self.config())`,
    /// in one load.
    #[inline]
    pub fn is_reset(&self) -> bool {
        self.live == 0
    }

    /// Valid lines per colour (indexed by colour) and owner: entry
    /// [`owner_slot`]`(owner)` of a colour's row counts the valid lines
    /// `owner` installed in that colour's sets. Kept current by every
    /// mutator, so reading a colour's row is one load.
    pub fn owner_counts(&self) -> &[[u32; OWNER_SLOTS]] {
        &self.owner_counts
    }

    // ---- running digest ------------------------------------------------
    //
    // Each slot's term is `None` in its reset state, decided from the
    // slot's content, so the running `live` count is exact. Testing a
    // term for 0 instead would take a live slot whose hash is 0 (a 2^-64
    // chance) for a reset one.

    /// Line `i`'s term: slot `i`, content its tag and dirty bit.
    #[inline]
    fn line_term(&self, i: usize) -> Option<u64> {
        let l = &self.lines[i];
        l.valid
            .then(|| slot_term(i as u64, (l.tag << 1) | l.dirty as u64))
    }

    /// Whether `set`'s recency state (the PLRU word, or its LRU ranks)
    /// is off its reset value.
    #[inline]
    fn recency_live(&self, set: usize) -> bool {
        if self.cfg.policy == ReplacementPolicy::TreePlru {
            return self.plru[set] != 0;
        }
        let ranks = &self.lru[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        ranks.iter().any(|&r| r != 0)
    }

    /// `set`'s recency term: slot `lines + set`, content the PLRU word
    /// or the set's LRU ranks, packed a byte each (words of eight ranks
    /// past the first chained in by `mix2`).
    fn recency_term(&self, set: usize) -> Option<u64> {
        if !self.recency_live(set) {
            return None;
        }
        let slot = (self.lines.len() + set) as u64;
        if self.cfg.policy == ReplacementPolicy::TreePlru {
            return Some(slot_term(slot, self.plru[set] as u64));
        }
        let ranks = &self.lru[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        let mut words = ranks.chunks(8).map(|c| {
            let mut w = [0; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        });
        let first = words.next().unwrap_or(0);
        Some(slot_term(slot, words.fold(first, mix2)))
    }

    /// The LFSR's term: the slot after every set's, content the LFSR.
    fn lfsr_term(&self) -> Option<u64> {
        (self.lfsr != LFSR_SEED)
            .then(|| slot_term((self.lines.len() + self.cfg.sets) as u64, self.lfsr as u64))
    }

    /// Account for one slot changing from term `before` to `after` in
    /// the live count; returns what the digests must XOR in.
    #[inline]
    fn account(&mut self, before: Option<u64>, after: Option<u64>) -> u64 {
        self.live = self.live + usize::from(after.is_some()) - usize::from(before.is_some());
        before.unwrap_or(0) ^ after.unwrap_or(0)
    }

    /// Swap one of `set`'s terms, `before`, for `after` in the digests
    /// and the live count.
    #[inline]
    fn replace_term(&mut self, set: usize, before: Option<u64>, after: Option<u64>) {
        let delta = self.account(before, after);
        self.set_digests[set] ^= delta;
        self.digest ^= delta;
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
            let before = self.recency_term(set);
            for w in 0..self.cfg.ways {
                if w != way {
                    self.lru[base + w] = self.lru[base + w].saturating_add(1);
                }
            }
            self.lru[base + way] = 0;
            self.replace_term(set, before, self.recency_term(set));
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
                let before = self.recency_term(set);
                for w in 0..self.cfg.ways {
                    if self.lru[base + w] < old {
                        self.lru[base + w] += 1;
                    }
                }
                self.lru[base + way] = 0;
                self.replace_term(set, before, self.recency_term(set));
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
                // A touch that leaves the word unchanged hashes nothing.
                if bits != self.plru[set] {
                    let before = self.recency_term(set);
                    self.plru[set] = bits;
                    self.replace_term(set, before, self.recency_term(set));
                }
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
                let before = self.lfsr_term();
                let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
                self.lfsr = (self.lfsr >> 1) | (bit << 15);
                let after = self.lfsr_term();
                self.digest ^= self.account(before, after);
                (self.lfsr as usize) % self.cfg.ways
            }
        }
    }
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

    /// Every running digest equals its from-scratch fold, the live count
    /// and the owner counts equal a tally over the lines and recency
    /// state, and `is_reset` agrees with a compare against a new cache.
    fn assert_digests_current(c: &Cache, ctx: &str) {
        for set in 0..c.cfg.sets {
            let want = c.set_digest_from_scratch(set);
            assert_eq!(c.set_digest(set), want, "{ctx}: set {set}");
        }
        assert_eq!(c.state_digest(), c.digest_from_scratch(), "{ctx}");

        let ways = c.cfg.ways;
        let recency = (0..c.cfg.sets)
            .filter(|&s| c.plru[s] != 0 || c.lru[s * ways..(s + 1) * ways].iter().any(|&r| r != 0))
            .count();
        let live = c.occupancy() + recency + usize::from(c.lfsr != LFSR_SEED);
        assert_eq!(c.live, live, "{ctx}: live");
        assert_eq!(c.is_reset(), *c == Cache::new(c.cfg), "{ctx}: is_reset");

        let sets_per_colour = c.cfg.sets / c.cfg.colours();
        let mut tally = vec![[0u32; OWNER_SLOTS]; c.cfg.colours()];
        for (i, l) in c.lines.iter().enumerate().filter(|(_, l)| l.valid) {
            tally[i / ways / sets_per_colour][owner_slot(l.owner)] += 1;
        }
        assert_eq!(c.owner_counts(), &tally[..], "{ctx}: owner counts");
    }

    /// Random accesses, prefetch fills and all three flushes under every
    /// policy: after each one, every set digest and the whole-cache
    /// digest equal the fold from scratch, a flushed cache's digest is
    /// 0, and the live and owner counts match their tallies. Two
    /// geometries: one colour, and four colours of 64 sets each.
    #[test]
    fn running_digests_match_the_fold_after_every_mutation() {
        let mut rng = proptest::TestRng::new(0x5e7d);
        let (mut lfsr_moves, mut plru_moves, mut rank_moves, mut dirtying) = (0, 0, 0, 0);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::GlobalRandom,
        ] {
            for (write_back, sets) in [(true, 8), (false, 8), (true, 256)] {
                for ways in [1, 2, 3, 4, 8, 12] {
                    let mut c = Cache::new(CacheConfig {
                        sets,
                        ways,
                        write_back,
                        policy,
                    });
                    assert_eq!(c.state_digest(), 0, "a new cache hashes nothing");
                    // Owners in every kind of owner slot.
                    let owners = [
                        DomainTag(0),
                        DomainTag(1),
                        DomainTag(15),
                        DomainTag(16),
                        DomainTag::KERNEL,
                    ];
                    for step in 0..600 {
                        let before = c.clone();
                        // Few tags per set, so hits, re-hits and evictions
                        // all come up often; on the larger cache the sets
                        // are picked from four colours.
                        let set = rng.below(8) * (sets as u64 / 8);
                        let a =
                            PAddr((set + rng.below(ways as u64 + 2) * sets as u64) << LINE_BITS);
                        let owner = owners[rng.below(owners.len() as u64) as usize];
                        let op = rng.below(20);
                        match op {
                            0..=7 => {
                                c.access(a, false, owner);
                            }
                            8..=13 => {
                                c.access(a, true, owner);
                            }
                            14..=15 => {
                                c.prefetch_fill(a, owner);
                            }
                            16..=17 => {
                                c.flush_line(a);
                            }
                            18 => {
                                c.flush_set(set as usize);
                            }
                            _ => {
                                if rng.below(4) == 0 {
                                    c.flush_all();
                                    assert_eq!(c.state_digest(), 0, "a flush hashes nothing");
                                }
                            }
                        }
                        let ctx = format!(
                            "{policy:?} wb={write_back} sets={sets} ways={ways} step {step} op {op}"
                        );
                        assert_digests_current(&c, &ctx);
                        lfsr_moves += usize::from(c.lfsr != before.lfsr);
                        plru_moves += usize::from(c.plru != before.plru);
                        rank_moves += usize::from(c.lru != before.lru);
                        dirtying += usize::from(c.dirty_lines() > before.dirty_lines());
                    }
                }
            }
        }
        // Every kind of update came up.
        assert!(
            lfsr_moves > 0 && plru_moves > 0 && rank_moves > 0 && dirtying > 0,
            "{lfsr_moves} {plru_moves} {rank_moves} {dirtying}"
        );
    }

    /// A line filled and then flushed leaves its set's recency state
    /// moved, so the cache holds no valid line yet is not in its reset
    /// state, and a flush of its set or the whole cache brings it back.
    #[test]
    fn a_flushed_line_leaves_recency_live() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru] {
            let mut c = tiny(policy);
            let a = addr_for(1, 0);
            c.access(a, true, DomainTag(3));
            c.flush_line(a);
            assert_eq!(c.occupancy(), 0, "{policy:?}");
            assert_eq!(c.owner_counts(), &[[0; OWNER_SLOTS]][..], "{policy:?}");
            assert!(!c.is_reset(), "{policy:?}: the recency state moved");
            assert_ne!(c, tiny(policy), "{policy:?}");
            assert_digests_current(&c, "flushed lines");
            c.flush_set(1);
            assert!(c.is_reset(), "{policy:?}");
            assert_eq!(c, tiny(policy), "{policy:?}");
        }
    }

    /// The owner slots: domains below the counted bound, the kernel, and
    /// everything else in one slot.
    #[test]
    fn owner_slots_split_domains_kernel_and_the_rest() {
        assert_eq!(owner_slot(Some(DomainTag(0))), 0);
        assert_eq!(owner_slot(Some(DomainTag(15))), 15);
        assert_eq!(owner_slot(Some(DomainTag::KERNEL)), KERNEL_SLOT);
        assert_eq!(owner_slot(Some(DomainTag(16))), OTHER_SLOT);
        assert_eq!(owner_slot(None), OTHER_SLOT);
        let mut c = Cache::new(CacheConfig::llc());
        c.access(PAddr::from_pfn(5, 64), false, DomainTag::KERNEL);
        c.access(PAddr::from_pfn(5 + 128, 0), true, DomainTag(2));
        c.access(PAddr::from_pfn(127, 0), true, DomainTag(40));
        let counts = c.owner_counts();
        assert_eq!(counts.len(), 128);
        assert_eq!((counts[5][KERNEL_SLOT], counts[5][2]), (1, 1));
        assert_eq!(counts[127][OTHER_SLOT], 1);
        assert_eq!(counts.iter().flatten().sum::<u32>(), 3);
    }

    /// Two sets holding the same recency state have different recency
    /// terms, so caches that differ only in which line of each set was
    /// touched last have different digests: equal terms would cancel.
    #[test]
    fn equal_recency_in_two_sets_does_not_cancel() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru] {
            let run = |last: u64| {
                let mut c = tiny(policy);
                for set in [0, 1] {
                    for t in [0, 1, last] {
                        c.access(addr_for(set, t), false, DomainTag(0));
                    }
                }
                c
            };
            let (a, b) = (run(0), run(1));
            assert_eq!(a.lines, b.lines, "{policy:?}: same lines");
            assert!(a.recency_term(0).is_some(), "{policy:?}");
            assert_ne!(a.recency_term(0), a.recency_term(1), "{policy:?}");
            assert_ne!(a.state_digest(), b.state_digest(), "{policy:?}");
            assert_digests_current(&a, "a");
            assert_digests_current(&b, "b");
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

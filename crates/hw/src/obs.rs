//! Observable events and the observation sink.
//!
//! What a domain's program can architecturally *see* — clock reads, IPC
//! deliveries, faults, its own halting — is the raw material of every
//! noninterference statement in this workspace: §5.2's theorem is
//! "Lo's observation sequence is identical across all Hi secrets".
//! The event type lives here, at the hardware layer, because it is the
//! boundary currency between the modelled machine and every consumer
//! above it (kernel, checkers, experiments).
//!
//! ## The sink
//!
//! The kernel emits each event exactly once, into the domain's
//! [`ObsSink`], which folds it into a rolling FNV-1a `(len, digest)`
//! fingerprint and, when recording, appends it to the full log:
//!
//! * recording ([`ObsSink::default`], [`ObsSink::recording_into`]) —
//!   the mode every witness extractor, experiment and test inspector
//!   runs in;
//! * [`ObsSink::digest_only`] — the proof engine's hot path, which
//!   allocates no per-event storage at all. Two runs with equal `(len,
//!   digest)` pairs have equal logs (modulo a 2⁻⁶⁴ FNV collision, the
//!   same ground the transparency certification stands on), so the
//!   checkers compare fingerprints in the hot loop and re-run recording
//!   only when a divergence needs a concrete, replayable witness.
//!
//! A sink cannot influence execution — the kernel hands it events and
//! never reads them back — so whether a system records is invisible
//! to the run itself. That is what makes digest-first verdicts
//! bit-identical to recording-mode verdicts (the equivalence suites in
//! `tp-core` pin this).
//!
//! ## Content fingerprints
//!
//! [`WordFold`] is the other hash here: a four-lane fold taking one
//! whole word at a time, behind program and kernel-configuration
//! fingerprints, proof-cache keys and the cache entries' integrity
//! checks. Observation digests do not use it.

use crate::types::Cycles;

/// One event a domain's program can architecturally observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// Result of a `ReadClock`.
    Clock(Cycles),
    /// A message delivery: payload and the clock at delivery.
    IpcRecv {
        /// Payload.
        msg: u64,
        /// Receiver's clock at delivery.
        at: Cycles,
    },
    /// The program's access faulted (it sees the fault kind, not the
    /// kernel's internals).
    Fault,
    /// The program halted.
    Halted,
}

/// The full observation log of one domain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observation {
    /// Events in program order.
    pub events: Vec<ObsEvent>,
}

impl Observation {
    /// Clock values observed, in order.
    pub fn clocks(&self) -> Vec<Cycles> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Clock(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// IPC deliveries observed, in order.
    pub fn ipc_recvs(&self) -> Vec<(u64, Cycles)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::IpcRecv { msg, at } => Some((*msg, *at)),
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Observation digests
// ---------------------------------------------------------------------

/// FNV-1a offset basis — the seed of every rolling observation digest.
pub const OBS_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one `u64` into an FNV-1a state, byte by byte. Public as the
/// digest-mixing primitive: `tp-core` uses it to poison a certificate
/// whose rolling digest disagrees with a fresh fold of the final log.
pub fn mix_digest(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one observation event into a rolling digest state. Each arm
/// starts with a distinct tag byte so e.g. `Clock(3)` and an
/// `IpcRecv` carrying 3 cannot collide structurally.
pub fn fold_obs_event(h: u64, e: &ObsEvent) -> u64 {
    match e {
        ObsEvent::Clock(c) => mix_digest(mix_digest(h, 1), c.0),
        ObsEvent::IpcRecv { msg, at } => mix_digest(mix_digest(mix_digest(h, 2), *msg), at.0),
        ObsEvent::Fault => mix_digest(h, 3),
        ObsEvent::Halted => mix_digest(h, 4),
    }
}

/// Digest of a whole observation trace: the value a rolling
/// [`ObsSink`] converges to, recomputable from any recorded trace.
pub fn obs_digest(events: &[ObsEvent]) -> u64 {
    events.iter().fold(OBS_DIGEST_SEED, fold_obs_event)
}

// ---------------------------------------------------------------------
// Content fingerprints
// ---------------------------------------------------------------------

/// xxh64's multipliers, shared by the lanes and the merge.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One xxh64 lane round.
#[inline(always)]
fn lane_round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Fold one word into the merged accumulator.
#[inline(always)]
fn merge_word(h: u64, w: u64) -> u64 {
    (h ^ lane_round(0, w))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// A streaming 64-bit fold over whole words: the content hash behind
/// program and kernel-configuration fingerprints, proof-cache keys and
/// the cache entries' integrity checks.
///
/// Four independent xxh64-style lanes each take every fourth word, so
/// the four multiply chains overlap instead of queueing behind one
/// another as [`mix_digest`]'s eight dependent multiplies per word do.
/// [`WordFold::finish`] merges the lanes, folds the 0–3 words left
/// over from the last full stripe and then the word count, and ends in
/// a splitmix64 finaliser. Observation digests do not use it: they
/// stay on [`mix_digest`].
#[derive(Debug)]
pub struct WordFold {
    lanes: [u64; 4],
    /// The words of the stripe in progress (the fourth completes it).
    stripe: [u64; 3],
    words: u64,
}

impl WordFold {
    /// An empty fold seeded with `seed` (a version salt or domain tag).
    pub fn new(seed: u64) -> Self {
        WordFold {
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            stripe: [0; 3],
            words: 0,
        }
    }

    /// Fold one word; every fourth advances all four lanes.
    #[inline]
    pub fn push(&mut self, w: u64) {
        let k = (self.words & 3) as usize;
        self.words += 1;
        if k < 3 {
            self.stripe[k] = w;
            return;
        }
        let [a, b, c, d] = &mut self.lanes;
        *a = lane_round(*a, self.stripe[0]);
        *b = lane_round(*b, self.stripe[1]);
        *c = lane_round(*c, self.stripe[2]);
        *d = lane_round(*d, w);
    }

    /// The fingerprint of every word pushed so far.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in self.lanes {
            h = merge_word(h, lane);
        }
        for &w in &self.stripe[..(self.words & 3) as usize] {
            h = merge_word(h, w);
        }
        h = merge_word(h, self.words);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

// ---------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------

/// Where a domain's observations go as the kernel emits them: a rolling
/// FNV digest and event count, plus the full log when recording.
///
/// The kernel hands it each event exactly once, in program order, and
/// never reads events back during a run — a sink is write-only from
/// the machine's point of view, which is why whether it records cannot
/// perturb execution. Every domain carries one; it records by default,
/// and `System::use_digest_sinks` makes it [`ObsSink::digest_only`]
/// once per run.
#[derive(Debug, Clone)]
pub struct ObsSink {
    digest: u64,
    len: usize,
    /// The retained log; `None` on a digest-only sink.
    log: Option<Observation>,
}

impl Default for ObsSink {
    /// A recording sink.
    fn default() -> Self {
        ObsSink::recording_into(Vec::new())
    }
}

impl ObsSink {
    /// A sink that folds each event into the digest and keeps nothing
    /// else: the trace-free hot path.
    pub fn digest_only() -> Self {
        ObsSink {
            digest: OBS_DIGEST_SEED,
            len: 0,
            log: None,
        }
    }

    /// A recording sink that reuses `buf` as its event storage (cleared
    /// first): the per-worker scratch-buffer path of the exhaustive
    /// checker's recording runs.
    pub fn recording_into(mut buf: Vec<ObsEvent>) -> Self {
        buf.clear();
        ObsSink {
            log: Some(Observation { events: buf }),
            ..ObsSink::digest_only()
        }
    }

    /// Consume one event.
    #[inline]
    pub fn record(&mut self, e: ObsEvent) {
        self.digest = fold_obs_event(self.digest, &e);
        self.len += 1;
        if let Some(log) = &mut self.log {
            log.events.push(e);
        }
    }

    /// Number of events recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event has been recorded yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rolling digest of everything recorded so far (equals
    /// [`obs_digest`] of the event sequence).
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The retained log, if this sink records.
    pub fn observation(&self) -> Option<&Observation> {
        self.log.as_ref()
    }

    /// Mutable access to the retained log, if any (the tamper seam the
    /// adversarial transparency suites use; real monitors never touch it).
    pub fn observation_mut(&mut self) -> Option<&mut Observation> {
        self.log.as_mut()
    }

    /// Take the retained event buffer out (leaving the sink empty and
    /// still recording), if this sink records — the allocation-reuse
    /// path for drivers that stamp thousands of recording runs.
    pub fn take_events(&mut self) -> Option<Vec<ObsEvent>> {
        let log = self.log.as_mut()?;
        self.digest = OBS_DIGEST_SEED;
        self.len = 0;
        Some(core::mem::take(&mut log.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Clock(Cycles(5)),
            ObsEvent::IpcRecv {
                msg: 7,
                at: Cycles(9),
            },
            ObsEvent::Fault,
            ObsEvent::Clock(Cycles(11)),
            ObsEvent::Halted,
        ]
    }

    #[test]
    fn observation_filters() {
        let obs = Observation {
            events: sample_events(),
        };
        assert_eq!(obs.clocks(), vec![Cycles(5), Cycles(11)]);
        assert_eq!(obs.ipc_recvs(), vec![(7, Cycles(9))]);
    }

    /// Both modes converge to [`obs_digest`] of the same sequence, with
    /// matching lengths — the invariant every digest-first comparison
    /// rests on.
    #[test]
    fn sinks_agree_with_the_batch_digest() {
        let events = sample_events();
        let mut d = ObsSink::digest_only();
        let mut r = ObsSink::default();
        for e in &events {
            d.record(*e);
            r.record(*e);
        }
        assert_eq!(d.len(), events.len());
        assert_eq!(r.len(), events.len());
        assert_eq!(d.digest(), obs_digest(&events));
        assert_eq!(r.digest(), obs_digest(&events));
        assert_eq!(r.observation().unwrap().events, events);
        assert!(d.observation().is_none());
        assert!(d.clone().observation_mut().is_none());
        assert!(d.clone().take_events().is_none());
        assert!(!d.is_empty() && !r.is_empty());
    }

    #[test]
    fn empty_sinks_carry_the_seed_digest() {
        let digest = ObsSink::digest_only();
        assert_eq!(digest.digest(), obs_digest(&[]));
        assert_eq!(ObsSink::default().digest(), obs_digest(&[]));
        assert!(digest.is_empty());
    }

    /// `recording_into` reuses the allocation and `take_events` hands it
    /// back — no per-run growth when cycling one scratch buffer.
    #[test]
    fn recording_buffer_roundtrip_reuses_the_allocation() {
        let mut buf = Vec::with_capacity(64);
        buf.push(ObsEvent::Fault); // stale content must be cleared
        let cap = buf.capacity();
        let mut sink = ObsSink::recording_into(buf);
        assert!(sink.is_empty(), "recording_into must clear stale events");
        assert_eq!(sink.observation().unwrap().events, vec![]);
        sink.record(ObsEvent::Halted);
        assert_eq!(sink.digest(), obs_digest(&[ObsEvent::Halted]));
        let back = sink.take_events().unwrap();
        assert_eq!(back, vec![ObsEvent::Halted]);
        assert!(back.capacity() >= cap, "allocation must be preserved");
        assert!(sink.is_empty());
        assert_eq!(sink.digest(), obs_digest(&[]), "take_events resets");
        assert!(sink.observation().is_some(), "still recording");
    }

    #[test]
    fn obs_digest_distinguishes_structurally_close_traces() {
        use ObsEvent::*;
        let base = vec![Clock(Cycles(7)), Fault, Halted];
        assert_eq!(obs_digest(&base), obs_digest(&base.clone()));
        for other in [
            vec![Clock(Cycles(8)), Fault, Halted],
            vec![Fault, Clock(Cycles(7)), Halted],
            vec![Clock(Cycles(7)), Fault],
            vec![
                IpcRecv {
                    msg: 7,
                    at: Cycles(0),
                },
                Fault,
                Halted,
            ],
        ] {
            assert_ne!(obs_digest(&base), obs_digest(&other), "{other:?}");
        }
    }

    /// The four-lane fold written out naively over a whole slice: each
    /// full stripe advances the four lanes one word at a time, with no
    /// stripe buffer and no shared helpers.
    fn reference_fold(seed: u64, words: &[u64]) -> u64 {
        const P1: u64 = 0x9e37_79b1_85eb_ca87;
        const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
        const P4: u64 = 0x85eb_ca77_c2b2_ae63;
        let round = |acc: u64, w: u64| {
            acc.wrapping_add(w.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let merge = |h: u64, w: u64| {
            (h ^ round(0, w))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4)
        };
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        let full = words.len() / 4 * 4;
        let mut i = 0;
        while i < full {
            v1 = round(v1, words[i]);
            v2 = round(v2, words[i + 1]);
            v3 = round(v3, words[i + 2]);
            v4 = round(v4, words[i + 3]);
            i += 4;
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge(h, v1);
        h = merge(h, v2);
        h = merge(h, v3);
        h = merge(h, v4);
        for &w in &words[full..] {
            h = merge(h, w);
        }
        h = merge(h, words.len() as u64);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    fn word_fold(seed: u64, words: &[u64]) -> u64 {
        let mut f = WordFold::new(seed);
        for &w in words {
            f.push(w);
        }
        f.finish()
    }

    #[test]
    fn word_fold_matches_the_reference_at_every_stripe_offset() {
        let words: Vec<u64> = (0..67u64)
            .map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef) ^ i << 60)
            .collect();
        for n in 0..=words.len() {
            for seed in [0, OBS_DIGEST_SEED, u64::MAX] {
                assert_eq!(
                    word_fold(seed, &words[..n]),
                    reference_fold(seed, &words[..n]),
                    "{n} words, seed {seed:#x}"
                );
            }
        }
    }

    /// A fingerprint is a function of the whole sequence: finishing
    /// part-way leaves the fold usable, and every prefix differs.
    #[test]
    fn word_fold_separates_prefixes_and_trailing_zeros() {
        let mut f = WordFold::new(7);
        let mut seen = vec![f.finish()];
        for _ in 0..9 {
            f.push(0);
            seen.push(f.finish());
        }
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "{seen:x?}");
        assert_ne!(word_fold(1, &[1, 2]), word_fold(1, &[2, 1]));
        assert_ne!(word_fold(1, &[5]), word_fold(2, &[5]));
    }

    /// Cache keys and checksums are persisted: a change to this value
    /// means every cache on disk is keyed differently, so it must come
    /// with a `CACHE_SALT` bump.
    #[test]
    fn word_fold_is_pinned() {
        let words: Vec<u64> = (1..=10).collect();
        assert_eq!(word_fold(OBS_DIGEST_SEED, &words), 0xa534_45fc_2454_3eb8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn word_fold_matches_the_reference_on_random_words(
            seed in proptest::any::<u64>(),
            words in proptest::collection::vec(proptest::any::<u64>(), 0..80),
        ) {
            proptest::prop_assert_eq!(word_fold(seed, &words), reference_fold(seed, &words));
        }
    }
}

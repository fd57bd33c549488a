//! On-chip banked memories (shared memory and spawn memory).
//!
//! An on-chip scratchpad is divided into word-interleaved banks; a warp
//! access completes in one pass unless multiple lanes touch *different
//! words in the same bank*, in which case the conflicting passes serialize
//! (paper §VII: "serialization of all conflicting bank memory operations to
//! the spawn memory space").

use serde::{Deserialize, Serialize};
use simt_isa::codec::{CodecError, Decoder, Encoder};
use std::ops::Range;

/// Computes the bank-conflict degree of a warp access: the maximum number
/// of distinct words mapped to any single bank (≥ 1 for a non-empty
/// access). Broadcasts (lanes reading the *same* word) do not conflict.
///
/// `addresses` are byte addresses; words are 4 bytes, banks interleave by
/// word.
///
/// # Panics
///
/// Panics if `banks` is zero.
pub fn conflict_degree(addresses: &[u32], banks: usize) -> u32 {
    conflict_degree_span(addresses, 1, banks)
}

/// [`conflict_degree`] over the word *span* each lane touches:
/// lane `i` accesses words `addresses[i]/4 .. addresses[i]/4 + words_per_lane`.
/// Equivalent to expanding every span into a flat word list first, without
/// materializing it.
///
/// # Panics
///
/// Panics if `banks` is zero.
pub fn conflict_degree_span(addresses: &[u32], words_per_lane: u32, banks: usize) -> u32 {
    assert!(banks > 0, "bank count must be positive");
    let n = addresses.len() * words_per_lane as usize;
    if n == 0 {
        return 0;
    }
    // The hot path (any real machine: ≤ 64 lanes × a few words, ≤ 64
    // banks) runs allocation-free: gather the word ids into a stack
    // buffer, sort to dedup broadcasts, and count distinct words per bank
    // in a stack histogram. Degree = max distinct words on one bank.
    if n <= 256 && banks <= 64 {
        let mut words = [0u32; 256];
        let mut i = 0;
        for &a in addresses {
            // (a + 4*wd) / 4 == a/4 + wd for any byte address `a`.
            let w0 = a / 4;
            for wd in 0..words_per_lane {
                words[i] = w0 + wd;
                i += 1;
            }
        }
        let words = &mut words[..n];
        words.sort_unstable();
        let mut counts = [0u32; 64];
        let mut max = 1u32;
        let mut prev = None;
        for &w in words.iter() {
            if Some(w) == prev {
                continue;
            }
            prev = Some(w);
            let bank = (w as usize) % banks;
            counts[bank] += 1;
            max = max.max(counts[bank]);
        }
        return max;
    }
    // Oversized configurations fall back to the straightforward
    // distinct-words-per-bank accounting.
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
    for &a in addresses {
        for wd in 0..words_per_lane {
            let word = a / 4 + wd;
            let bank = (word as usize) % banks;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// An on-chip word-addressed scratchpad with banking metadata.
///
/// One instance backs each SM's shared memory; the spawn-memory space
/// (managed by `dmk-core`) wraps another instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnChipMemory {
    words: Vec<u32>,
    banks: usize,
}

impl OnChipMemory {
    /// Creates a scratchpad of `bytes` capacity with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(bytes: u32, banks: usize) -> Self {
        assert!(banks > 0, "bank count must be positive");
        OnChipMemory {
            words: vec![0; (bytes as usize).div_ceil(4)],
            banks,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Reads the word at byte address `addr` (wraps modulo capacity, like
    /// real scratchpads whose address decoders ignore high bits).
    ///
    /// # Panics
    ///
    /// Panics on unaligned access.
    pub fn read(&self, addr: u32) -> u32 {
        assert!(
            addr.is_multiple_of(4),
            "unaligned on-chip read at {addr:#x}"
        );
        self.words[self.wrap(addr as usize / 4)]
    }

    /// Word-index wraparound. Real capacities are powers of two, where the
    /// modulo reduces to a mask — worth special-casing because this sits
    /// under every word of every on-chip access.
    #[inline]
    fn wrap(&self, idx: usize) -> usize {
        let n = self.words.len();
        if n.is_power_of_two() {
            idx & (n - 1)
        } else {
            idx % n
        }
    }

    /// Writes the word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned access.
    pub fn write(&mut self, addr: u32, value: u32) {
        assert!(
            addr.is_multiple_of(4),
            "unaligned on-chip write at {addr:#x}"
        );
        let i = self.wrap(addr as usize / 4);
        self.words[i] = value;
    }

    /// Conflict degree of a warp access to this memory.
    pub fn conflict_degree(&self, addresses: &[u32]) -> u32 {
        conflict_degree(addresses, self.banks)
    }

    /// Serializes the scratchpad contents for a simulator checkpoint (the
    /// bank count is configuration, re-derived on restore).
    ///
    /// Shared and spawn memory are mostly zeros, so the layout is sparse:
    /// the capacity in words, then the maximal runs of non-zero words in
    /// index order, each as its first word index followed by its
    /// length-prefixed words. Identical contents always encode to
    /// identical bytes.
    pub fn encode_state(&self, enc: &mut Encoder) {
        let runs = nonzero_runs(&self.words);
        enc.put_usize(self.words.len());
        enc.put_usize(runs.len());
        for run in runs {
            enc.put_usize(run.start);
            enc.put_u32_slice(&self.words[run]);
        }
    }

    /// Restores contents previously written by
    /// [`OnChipMemory::encode_state`] into a scratchpad of identical
    /// geometry. Words outside every run restore as zero.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, a
    /// [`CodecError::BadLength`] when the encoded capacity disagrees with
    /// this scratchpad's, and a [`CodecError::BadRun`] for an empty run,
    /// a run that starts before its predecessor ends, or a run past the
    /// capacity. On error the contents are left unchanged.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let capacity = self.words.len();
        let encoded = dec.take_u64()?;
        if encoded != capacity as u64 {
            return Err(CodecError::BadLength {
                len: encoded,
                remaining: capacity,
            });
        }
        // Each run carries at least its start index and word count.
        let runs = dec.take_len(8 + 8)?;
        let mut words = vec![0; capacity];
        let mut floor = 0u64;
        for _ in 0..runs {
            let start = dec.take_u64()?;
            let len = dec.take_len(4)? as u64;
            let end = start.saturating_add(len);
            if len == 0 || start < floor || end > capacity as u64 {
                return Err(CodecError::BadRun {
                    start,
                    len,
                    capacity,
                });
            }
            for w in &mut words[start as usize..end as usize] {
                *w = dec.take_u32()?;
            }
            floor = end;
        }
        self.words = words;
        Ok(())
    }
}

/// Words per chunk of the run scan in [`nonzero_runs`].
const RUN_CHUNK: usize = 16;

/// Maximal runs of non-zero words, in index order.
///
/// Scans 16-word chunks word-parallel: a chunk that is all zero outside
/// a run, or all non-zero inside one, cannot start or end a run and is
/// skipped whole. Only chunks that hold a run boundary are walked word
/// by word.
fn nonzero_runs(words: &[u32]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = None;
    for (c, chunk) in words.chunks(RUN_CHUNK).enumerate() {
        let skip = if start.is_some() {
            !chunk.iter().fold(false, |any, &w| any | (w == 0))
        } else {
            chunk.iter().fold(0, |acc, &w| acc | w) == 0
        };
        if skip {
            continue;
        }
        for (j, &w) in chunk.iter().enumerate() {
            match (w != 0, start) {
                (true, None) => start = Some(c * RUN_CHUNK + j),
                (false, Some(s)) => {
                    runs.push(s..c * RUN_CHUNK + j);
                    start = None;
                }
                _ => {}
            }
        }
    }
    if let Some(s) = start {
        runs.push(s..words.len());
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conflict_free_stride_one() {
        // 16 lanes, consecutive words, 16 banks: one word per bank.
        let addrs: Vec<u32> = (0..16).map(|i| i * 4).collect();
        assert_eq!(conflict_degree(&addrs, 16), 1);
    }

    #[test]
    fn worst_case_same_bank() {
        // Stride of 16 words on 16 banks: all lanes hit bank 0.
        let addrs: Vec<u32> = (0..8).map(|i| i * 16 * 4).collect();
        assert_eq!(conflict_degree(&addrs, 16), 8);
    }

    #[test]
    fn broadcast_does_not_conflict() {
        let addrs = vec![128; 32];
        assert_eq!(conflict_degree(&addrs, 16), 1);
    }

    #[test]
    fn stride_two_halves_throughput() {
        let addrs: Vec<u32> = (0..16).map(|i| i * 8).collect(); // stride 2 words
        assert_eq!(conflict_degree(&addrs, 16), 2);
    }

    #[test]
    fn empty_access_has_zero_degree() {
        assert_eq!(conflict_degree(&[], 16), 0);
    }

    #[test]
    fn onchip_read_write() {
        let mut m = OnChipMemory::new(64 * 1024, 16);
        assert_eq!(m.capacity_bytes(), 64 * 1024);
        m.write(100 * 4, 7);
        assert_eq!(m.read(100 * 4), 7);
    }

    fn encoded(m: &OnChipMemory) -> Vec<u8> {
        let mut enc = Encoder::new();
        m.encode_state(&mut enc);
        enc.into_bytes()
    }

    fn restored(words: usize, bytes: &[u8]) -> Result<OnChipMemory, CodecError> {
        let mut m = OnChipMemory::new(words as u32 * 4, 16);
        let mut dec = Decoder::new(bytes);
        m.restore_state(&mut dec)?;
        assert!(dec.is_finished(), "restore left trailing bytes");
        Ok(m)
    }

    /// Runs as (first word index, words).
    type Runs<'a> = &'a [(u64, &'a [u32])];

    /// Hand-built sparse encoding: `capacity` words, then `runs`.
    fn sparse_bytes(capacity: u64, runs: Runs<'_>) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(capacity);
        enc.put_usize(runs.len());
        for (start, words) in runs {
            enc.put_u64(*start);
            enc.put_u32_slice(words);
        }
        enc.into_bytes()
    }

    #[test]
    fn sparse_encoding_skips_zero_words() {
        let mut m = OnChipMemory::new(64 * 1024, 16);
        assert_eq!(
            encoded(&m).len(),
            16,
            "an empty scratchpad is capacity + run count"
        );
        // Runs touching the first and the last word.
        m.write(0, 1);
        m.write(4, 2);
        m.write(64 * 1024 - 4, 3);
        let bytes = encoded(&m);
        assert_eq!(
            bytes,
            sparse_bytes(16 * 1024, &[(0, &[1, 2]), (16 * 1024 - 1, &[3])])
        );
        assert_eq!(
            restored(16 * 1024, &bytes).expect("round-trips").words,
            m.words
        );
    }

    #[test]
    fn capacity_mismatch_is_rejected() {
        let bytes = encoded(&OnChipMemory::new(128, 16));
        assert!(matches!(
            restored(16, &bytes),
            Err(CodecError::BadLength {
                len: 32,
                remaining: 16
            })
        ));
    }

    #[test]
    fn malformed_runs_are_rejected() {
        let cases: [(&str, Runs<'_>); 6] = [
            ("unsorted", &[(8, &[1]), (2, &[1])]),
            ("overlapping", &[(2, &[1, 1, 1]), (4, &[1])]),
            ("empty", &[(3, &[])]),
            ("past capacity", &[(15, &[1, 1])]),
            ("start past capacity", &[(16, &[1])]),
            ("start overflows", &[(u64::MAX, &[1])]),
        ];
        for (what, runs) in cases {
            let bytes = sparse_bytes(16, runs);
            assert!(
                matches!(restored(16, &bytes), Err(CodecError::BadRun { .. })),
                "{what} run accepted"
            );
        }
        // The same shapes, well-formed, decode.
        let ok = sparse_bytes(16, &[(0, &[1]), (1, &[2]), (15, &[3])]);
        let m = restored(16, &ok).expect("sorted, disjoint, in-range runs decode");
        assert_eq!((m.read(0), m.read(4), m.read(60)), (1, 2, 3));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut m = OnChipMemory::new(256, 16);
        for (i, addr) in [0u32, 4, 40, 44, 48, 252].into_iter().enumerate() {
            m.write(addr, i as u32 + 1);
        }
        let bytes = encoded(&m);
        for len in 0..bytes.len() {
            assert!(
                restored(64, &bytes[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
        // A run count larger than the input can hold is refused before
        // any allocation.
        let mut liar = bytes.clone();
        liar[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            restored(64, &liar),
            Err(CodecError::BadLength { .. })
        ));
    }

    /// The plain per-word scan [`nonzero_runs`] replaced: the oracle its
    /// chunked output must equal exactly.
    fn nonzero_runs_per_word(words: &[u32]) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, &w) in words.iter().enumerate() {
            match (w != 0, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    runs.push(s..i);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push(s..words.len());
        }
        runs
    }

    #[test]
    fn run_scan_handles_chunk_boundaries() {
        // Runs that start, end or span exactly at 16-word chunk edges,
        // whole non-zero chunks, and a ragged tail.
        let cases: [(usize, &[(usize, usize)]); 8] = [
            (64, &[]),
            (64, &[(0, 64)]),
            (40, &[(15, 17)]),
            (48, &[(0, 16), (32, 48)]),
            (48, &[(0, 16), (17, 48)]),
            (50, &[(16, 32), (33, 34), (49, 50)]),
            (37, &[(1, 36)]),
            (7, &[(0, 3), (6, 7)]),
        ];
        for (len, runs) in cases {
            let want: Vec<Range<usize>> = runs.iter().map(|&(s, e)| s..e).collect();
            let mut words = vec![0u32; len];
            for run in &want {
                for w in &mut words[run.clone()] {
                    *w = 9;
                }
            }
            assert_eq!(nonzero_runs(&words), want, "{len} words, runs {want:?}");
            assert_eq!(nonzero_runs_per_word(&words), want);
        }
    }

    proptest! {
        #[test]
        fn chunked_run_scan_matches_per_word_scan(
            mode in 0u32..4,
            raw in proptest::collection::vec(any::<u32>(), 0..400),
            segments in proptest::collection::vec(0usize..10, 0..24),
            lead_nonzero in any::<bool>(),
        ) {
            // Mode 0: all zero; 1: all non-zero; 2: sparse (about one word
            // in four); 3: alternating zero / non-zero segments with
            // lengths near multiples of the 16-word chunk, so runs start
            // and end on either side of chunk edges, fill whole chunks,
            // and touch either end.
            const LENGTHS: [usize; 10] = [1, 2, 3, 15, 16, 17, 31, 32, 33, 47];
            let words: Vec<u32> = match mode {
                0 => vec![0; raw.len()],
                1 => raw.iter().map(|&v| v | 1).collect(),
                2 => raw
                    .iter()
                    .map(|&v| if v % 4 == 0 { v | 1 } else { 0 })
                    .collect(),
                _ => segments
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &len)| {
                        let fill = u32::from((k % 2 == 0) == lead_nonzero);
                        std::iter::repeat_n(fill, LENGTHS[len])
                    })
                    .collect(),
            };
            prop_assert_eq!(nonzero_runs(&words), nonzero_runs_per_word(&words));
        }

        #[test]
        fn onchip_state_roundtrips(
            mode in 0u32..3,
            raw in proptest::collection::vec(any::<u32>(), 1..300),
        ) {
            // Mode 0: all zero; 1: all non-zero; 2: sparse (about one word
            // in four non-zero, so runs start and end anywhere, index 0
            // and the last word included).
            let words: Vec<u32> = raw
                .iter()
                .map(|&v| match mode {
                    0 => 0,
                    1 => v | 1,
                    _ if v % 4 == 0 => v | 1,
                    _ => 0,
                })
                .collect();
            let mut m = OnChipMemory::new(words.len() as u32 * 4, 16);
            for (i, &w) in words.iter().enumerate() {
                m.write(i as u32 * 4, w);
            }
            let back = restored(words.len(), &encoded(&m)).expect("round-trips");
            prop_assert_eq!(back.words, words);
        }

        #[test]
        fn degree_bounds(addrs in proptest::collection::vec(0u32..65_536, 1..32), banks in 1usize..33) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let d = conflict_degree(&aligned, banks);
            prop_assert!(d >= 1);
            prop_assert!(d as usize <= aligned.len());
        }

        #[test]
        fn span_matches_expanded_word_list(
            addrs in proptest::collection::vec(0u32..65_536, 0..40),
            wpl in 1u32..5,
            banks in 1usize..33,
        ) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let mut words = Vec::new();
            for &a in &aligned {
                for wd in 0..wpl {
                    words.push(a + 4 * wd);
                }
            }
            prop_assert_eq!(
                conflict_degree_span(&aligned, wpl, banks),
                conflict_degree(&words, banks)
            );
        }

        #[test]
        fn single_bank_degree_is_distinct_words(addrs in proptest::collection::vec(0u32..4096, 1..32)) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let mut words: Vec<u32> = aligned.iter().map(|a| a / 4).collect();
            words.sort_unstable();
            words.dedup();
            prop_assert_eq!(conflict_degree(&aligned, 1), words.len() as u32);
        }
    }
}

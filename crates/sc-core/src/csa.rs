//! Bit-transposed carry-save column accumulation.
//!
//! The APC-based inner-product kernels need, for every cycle `t`, the number
//! of lanes whose (product) stream carries a one at `t` — a *column count*
//! across lanes. The straightforward software rendering walks each lane word
//! with `trailing_zeros` and increments a `u16` per set bit, which costs one
//! loop iteration per set bit per lane: for the ~50 %-dense streams bipolar
//! encodings produce, that is ~32 iterations per lane per 64-cycle word.
//!
//! [`VerticalCounter`] is the software emulation of the paper's parallel
//! counter hardware: lanes are summed *in the transposed domain*. The counter
//! keeps one `u64` **bit-plane** per binary weight (plane `k`, bit `t` is bit
//! `k` of column `t`'s running count), and a lane word is added with a
//! ripple of half-adders over the planes — amortized ~2 word operations per
//! lane regardless of density. Groups of three lane words are first pushed
//! through a 3:2 compressor (a full adder over whole words, the CSA tree of
//! the hardware APC), which cuts the number of ripple chains by a third.
//! Only when every lane of a word position has been absorbed are the planes
//! unpacked into the `u16` column counts — `⌈log₂(lanes+1)⌉` plane walks
//! instead of `lanes` lane walks.
//!
//! The counts are **exact** — identical to per-lane accumulation in any
//! order — so the kernels built on top stay bit-compatible with their
//! per-lane references (property-tested in [`crate::add`]).

use crate::word::Word;

/// Maximum number of bit-planes a counter can hold: counts are capped by the
/// `u16` column-count representation, so 16 planes (values up to 65 535)
/// always suffice, plus one guard plane for the transient carry of the 3:2
/// compressor path (`add_at` with `plane = 1` on a full plane 0..15 chain).
const MAX_PLANES: usize = 17;

/// A bit-transposed (vertical) counter over one 64-column word position.
///
/// `planes[k]` bit `t` holds bit `k` of the running count of column `t`.
/// Absorb lane words with [`VerticalCounter::add`] /
/// [`VerticalCounter::add3`], then convert to `u16` column counts with
/// [`VerticalCounter::drain_into`] (which also resets the counter for the
/// next word position).
#[derive(Debug, Clone)]
pub struct VerticalCounter {
    planes: [u64; MAX_PLANES],
    /// Upper bound on the number of planes currently in use.
    used: usize,
}

impl Default for VerticalCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl VerticalCounter {
    /// Creates an empty counter (all column counts zero).
    pub fn new() -> Self {
        Self {
            planes: [0u64; MAX_PLANES],
            used: 0,
        }
    }

    /// Adds one lane word: every set bit increments its column's count by 1.
    #[inline]
    pub fn add(&mut self, word: u64) {
        self.add_at(word, 0);
    }

    /// Adds `word` with binary weight `2^plane` (a carry word from a 3:2
    /// compressor enters at plane 1) via a ripple of half-adders: the carry
    /// chain is as long as the highest column count overflowed, which makes
    /// the amortized cost ~2 plane updates per call.
    #[inline]
    pub fn add_at(&mut self, mut word: u64, plane: usize) {
        let mut k = plane;
        while word != 0 {
            debug_assert!(k < MAX_PLANES, "column count exceeded the u16 range");
            let carry = self.planes[k] & word;
            self.planes[k] ^= word;
            word = carry;
            k += 1;
        }
        self.used = self.used.max(k);
    }

    /// Adds three lane words through a 3:2 compressor (one full adder over
    /// whole words): the sum word enters at plane 0 and the carry word at
    /// plane 1, replacing three ripple chains by two.
    #[inline]
    pub fn add3(&mut self, a: u64, b: u64, c: u64) {
        let partial = a ^ b;
        let sum = partial ^ c;
        let carry = (a & b) | (partial & c);
        self.add_at(sum, 0);
        self.add_at(carry, 1);
    }

    /// Unpacks the planes into `counts` (adding `2^k` for every set bit of
    /// plane `k` at its column index) and resets the counter.
    ///
    /// `counts` covers the 64 columns of this word position; pass a shorter
    /// slice for a tail word — the caller guarantees no bit beyond the slice
    /// was ever added (the kernels mask tail words before absorbing them).
    ///
    /// Full-width positions with at most 8 planes in use (lane counts up to
    /// 255 — every realistic layer) take the byte-sliced path: 8 columns ×
    /// ≤8 planes are spread into the byte lanes of one word and resolved
    /// with an 8×8 bit transpose, a cost independent of stream density. The
    /// plane-by-plane `trailing_zeros` walk remains the reference (and the
    /// tail / >8-plane fallback); both produce identical counts
    /// (property-tested below).
    #[inline]
    pub fn drain_into(&mut self, counts: &mut [u16]) {
        if self.used <= 8 && counts.len() == 64 {
            self.drain_into_byte_sliced(counts);
        } else {
            self.drain_into_walk(counts);
        }
    }

    /// Reference drain: per-plane `trailing_zeros` walk, cost proportional
    /// to the number of set plane bits.
    #[inline]
    fn drain_into_walk(&mut self, counts: &mut [u16]) {
        for k in 0..self.used {
            let mut bits = self.planes[k];
            self.planes[k] = 0;
            let weight = 1u16 << k;
            while bits != 0 {
                let t = bits.trailing_zeros() as usize;
                counts[t] += weight;
                bits &= bits - 1;
            }
        }
        self.used = 0;
    }

    /// Byte-sliced drain for `used <= 8` planes over a full 64-column word.
    ///
    /// For each group of 8 columns, byte `g` of plane `k` is packed into
    /// byte `k` of one word; bit `8k + j` of that word is then bit `k` of
    /// column `8g + j`'s count, so an 8×8 bit-matrix transpose turns byte
    /// `j` into the complete count of column `8g + j` (counts fit a byte:
    /// at most 8 planes → counts < 256).
    #[inline]
    fn drain_into_byte_sliced(&mut self, counts: &mut [u16]) {
        debug_assert!(self.used <= 8 && counts.len() == 64);
        for (group, group_counts) in counts.chunks_exact_mut(8).enumerate() {
            let shift = 8 * group as u32;
            let mut packed = 0u64;
            for k in 0..self.used {
                packed |= ((self.planes[k] >> shift) & 0xFF) << (8 * k);
            }
            if packed == 0 {
                continue;
            }
            let transposed = transpose8(packed);
            for (j, count) in group_counts.iter_mut().enumerate() {
                *count += ((transposed >> (8 * j)) & 0xFF) as u16;
            }
        }
        for plane in self.planes.iter_mut().take(self.used) {
            *plane = 0;
        }
        self.used = 0;
    }

    /// Whether all column counts are zero (the post-`drain_into` state).
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }
}

/// Transposes an 8×8 bit matrix held row-per-byte (bit `8r + c` is entry
/// `(r, c)`): three masked delta-swaps (Hacker's Delight 7-3).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// A [`VerticalCounter`] over [`Word::LANES`] word positions at once: the
/// planes are super-words, so the half-adder ripples and 3:2 compressors of
/// `LANES` adjacent 64-column positions run in single lane operations.
///
/// Draining stores the planes back to scalar words and reuses the scalar
/// counter's drain per lane (byte-sliced when it applies), so the unpacking
/// is bit-for-bit the scalar path. Generic kernels hold one of these for
/// their full-group word positions and a scalar counter for the ragged tail.
pub(crate) struct WideVerticalCounter<W: Word> {
    planes: [W; MAX_PLANES],
    used: usize,
}

impl<W: Word> WideVerticalCounter<W> {
    /// Creates an empty counter (all column counts zero).
    pub(crate) fn new() -> Self {
        Self {
            planes: [W::zero(); MAX_PLANES],
            used: 0,
        }
    }

    /// Adds one lane super-word: every set bit increments its column.
    #[inline(always)]
    pub(crate) fn add(&mut self, word: W) {
        self.add_at(word, 0);
    }

    /// Adds `word` with binary weight `2^plane`; see
    /// [`VerticalCounter::add_at`]. The ripple continues while *any* lane
    /// still carries — lanes whose carry is already zero are XORed with
    /// zero, which is exact.
    #[inline(always)]
    pub(crate) fn add_at(&mut self, mut word: W, plane: usize) {
        let mut k = plane;
        while !word.is_zero() {
            debug_assert!(k < MAX_PLANES, "column count exceeded the u16 range");
            let carry = self.planes[k].and(word);
            self.planes[k] = self.planes[k].xor(word);
            word = carry;
            k += 1;
        }
        self.used = self.used.max(k);
    }

    /// Adds three lane super-words through a 3:2 compressor; see
    /// [`VerticalCounter::add3`].
    #[inline(always)]
    pub(crate) fn add3(&mut self, a: W, b: W, c: W) {
        let partial = a.xor(b);
        let sum = partial.xor(c);
        let carry = a.and(b).or(partial.and(c));
        self.add_at(sum, 0);
        self.add_at(carry, 1);
    }

    /// Unpacks the planes into `counts` (covering `LANES * 64` columns,
    /// lane `l` owning `counts[l*64..(l+1)*64]`) and resets the counter.
    #[inline]
    pub(crate) fn drain_into(&mut self, counts: &mut [u16]) {
        debug_assert!(counts.len() >= W::LANES * 64);
        let mut lanes = [[0u64; 4]; MAX_PLANES];
        for (k, lane_words) in lanes.iter_mut().enumerate().take(self.used) {
            self.planes[k].store(lane_words);
            self.planes[k] = W::zero();
        }
        let mut scalar = VerticalCounter::new();
        for (lane, lane_counts) in counts.chunks_exact_mut(64).take(W::LANES).enumerate() {
            for (k, lane_words) in lanes.iter().enumerate().take(self.used) {
                scalar.planes[k] = lane_words[lane];
            }
            scalar.used = self.used;
            scalar.drain_into(lane_counts);
        }
        self.used = 0;
    }
}

/// Accumulates exact column counts of `words` (one word per lane, all at the
/// same word position) into `counts` through a [`VerticalCounter`]:
/// `counts[t] += |{lane : bit t of words[lane] set}|`.
///
/// This is the convenience entry point for counting at a single word
/// position; the hot kernels in [`crate::add`] keep their own counters so
/// the compressor state threads across an entire layer evaluation.
pub fn accumulate_column_counts(words: &[u64], counts: &mut [u16]) {
    let mut counter = VerticalCounter::new();
    let mut chunks = words.chunks_exact(3);
    for triple in &mut chunks {
        counter.add3(triple[0], triple[1], triple[2]);
    }
    for &word in chunks.remainder() {
        counter.add(word);
    }
    counter.drain_into(counts);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-bit reference: count set bits per column with shifts only.
    fn reference_counts(words: &[u64]) -> Vec<u16> {
        (0..64)
            .map(|t| words.iter().filter(|w| (*w >> t) & 1 == 1).count() as u16)
            .collect()
    }

    fn pseudo_words(lanes: usize, salt: u64) -> Vec<u64> {
        (0..lanes)
            .map(|i| {
                let x = (i as u64 + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                x ^ (x >> 29) ^ x.rotate_left(17)
            })
            .collect()
    }

    #[test]
    fn vertical_counts_match_reference_across_lane_counts() {
        for lanes in [1usize, 2, 3, 4, 7, 32, 33, 100, 255, 300] {
            let words = pseudo_words(lanes, 41);
            let mut counts = vec![0u16; 64];
            accumulate_column_counts(&words, &mut counts);
            assert_eq!(counts, reference_counts(&words), "lanes {lanes}");
        }
    }

    #[test]
    fn drain_resets_for_reuse() {
        let mut counter = VerticalCounter::new();
        counter.add(u64::MAX);
        counter.add(0xAAAA_AAAA_AAAA_AAAA);
        let mut counts = vec![0u16; 64];
        counter.drain_into(&mut counts);
        assert!(counter.is_empty());
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        // Second round starts from zero.
        counter.add(1);
        let mut counts = vec![0u16; 64];
        counter.drain_into(&mut counts);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn add3_equals_three_adds() {
        let words = pseudo_words(3, 77);
        let mut a = VerticalCounter::new();
        a.add3(words[0], words[1], words[2]);
        let mut b = VerticalCounter::new();
        for &w in &words {
            b.add(w);
        }
        let mut counts_a = vec![0u16; 64];
        let mut counts_b = vec![0u16; 64];
        a.drain_into(&mut counts_a);
        b.drain_into(&mut counts_b);
        assert_eq!(counts_a, counts_b);
    }

    #[test]
    fn weighted_entry_points_compose() {
        // Adding at plane 1 counts double.
        let mut counter = VerticalCounter::new();
        counter.add_at(0b101, 1);
        counter.add(0b001);
        let mut counts = vec![0u16; 64];
        counter.drain_into(&mut counts);
        assert_eq!(&counts[..3], &[3, 0, 2]);
    }

    #[test]
    fn tail_slices_accept_masked_words() {
        // Only the low 10 columns are populated; a 10-entry slice suffices.
        let mask = (1u64 << 10) - 1;
        let words: Vec<u64> = pseudo_words(5, 9).iter().map(|w| w & mask).collect();
        let mut counts = vec![0u16; 10];
        accumulate_column_counts(&words, &mut counts);
        let reference = reference_counts(&words);
        assert_eq!(counts.as_slice(), &reference[..10]);
    }

    /// The byte-sliced drain must agree with both the plane-unpack walk and
    /// a per-bit reference computed straight from the planes, for every
    /// plane population up to the 8-plane limit.
    #[test]
    fn byte_sliced_drain_matches_plane_unpack_reference() {
        for lanes in [1usize, 2, 3, 4, 7, 8, 31, 63, 100, 255] {
            let words = pseudo_words(lanes, 1000 + lanes as u64);
            let mut counter = VerticalCounter::new();
            let mut chunks = words.chunks_exact(3);
            for t in &mut chunks {
                counter.add3(t[0], t[1], t[2]);
            }
            for &w in chunks.remainder() {
                counter.add(w);
            }
            // Per-bit reference from the packed planes themselves.
            let expected: Vec<u16> = (0..64)
                .map(|t| {
                    (0..counter.used)
                        .map(|k| (((counter.planes[k] >> t) & 1) as u16) << k)
                        .sum()
                })
                .collect();
            let mut walk = counter.clone();
            let mut walk_counts = vec![0u16; 64];
            walk.drain_into_walk(&mut walk_counts);
            assert_eq!(walk_counts, expected, "walk at lanes {lanes}");
            let uses_byte_path = counter.used <= 8;
            let mut counts = vec![0u16; 64];
            counter.drain_into(&mut counts);
            assert!(counter.is_empty());
            assert_eq!(counts, expected, "drain at lanes {lanes}");
            // Lane counts up to 255 must actually exercise the byte path.
            assert_eq!(uses_byte_path, lanes <= 255, "path choice at {lanes}");
            // Draining accumulates rather than overwrites.
            let mut second = VerticalCounter::new();
            second.add(words[0]);
            second.drain_into(&mut counts);
            for t in 0..64 {
                let bit = ((words[0] >> t) & 1) as u16;
                assert_eq!(counts[t], expected[t] + bit, "accumulate at {t}");
            }
        }
    }

    /// The wide (super-word) counter must produce the scalar counter's
    /// counts for every lane position, across backends.
    #[test]
    fn wide_counter_matches_scalar_counter() {
        fn check<W: Word>(backend: &str) {
            for lanes in [1usize, 3, 7, 32, 33, 100] {
                let mut wide = WideVerticalCounter::<W>::new();
                let mut scalars: Vec<VerticalCounter> =
                    (0..W::LANES).map(|_| VerticalCounter::new()).collect();
                // Per lane position, distinct pseudo-random words.
                let mut lane_words = vec![0u64; W::LANES];
                let mut remainder = Vec::new();
                for lane in 0..lanes {
                    for (pos, slot) in lane_words.iter_mut().enumerate() {
                        *slot = pseudo_words(1, (lane * 64 + pos) as u64)[0];
                    }
                    for (pos, scalar) in scalars.iter_mut().enumerate() {
                        scalar.add(lane_words[pos]);
                    }
                    remainder.push(W::load(&lane_words));
                }
                let mut triples = remainder.chunks_exact(3);
                for t in &mut triples {
                    wide.add3(t[0], t[1], t[2]);
                }
                for &w in triples.remainder() {
                    wide.add(w);
                }
                let mut wide_counts = vec![0u16; W::LANES * 64];
                wide.drain_into(&mut wide_counts);
                for (pos, scalar) in scalars.iter_mut().enumerate() {
                    let mut expected = vec![0u16; 64];
                    scalar.drain_into(&mut expected);
                    assert_eq!(
                        &wide_counts[pos * 64..(pos + 1) * 64],
                        expected.as_slice(),
                        "{backend} lanes {lanes} position {pos}"
                    );
                }
            }
        }
        check::<u64>("scalar");
        check::<crate::word::W4>("wide");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if crate::word::Backend::Avx2.is_available() {
            check::<crate::word::WAvx2>("avx2");
        }
    }

    #[test]
    fn saturating_many_lanes_stays_exact() {
        // 65535 all-ones lanes: the maximum u16 column count, touching every
        // plane.
        let words = vec![u64::MAX; 65_535];
        let mut counter = VerticalCounter::new();
        let mut chunks = words.chunks_exact(3);
        for t in &mut chunks {
            counter.add3(t[0], t[1], t[2]);
        }
        for &w in chunks.remainder() {
            counter.add(w);
        }
        let mut counts = vec![0u16; 64];
        counter.drain_into(&mut counts);
        assert!(counts.iter().all(|&c| c == 65_535));
    }
}

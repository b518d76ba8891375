//! Stochastic number generators (SNGs).
//!
//! An SNG converts a binary-encoded probability into a stochastic bit-stream:
//! at every cycle the probability (as a fixed-point threshold) is compared
//! against a fresh pseudo-random value; the comparator output is the stream
//! bit. The randomness source and how it is shared across SNGs dominate both
//! the correlation error and the peripheral hardware cost, so the generator
//! kind is an explicit configuration knob throughout this reproduction.
//!
//! Two comparator paths produce the same bits. A per-call generator
//! ([`Sng`], [`BatchSng`]) draws the register's staged bit-sequence and
//! compares it with the threshold bit-sliced, 16 sample planes against the
//! threshold's bits; it is the oracle. A compiled layer draws each lane's
//! samples once as bytes ([`LaneSequence`], [`SelectedSequence`]) and fills
//! every later stream with a byte compare per cycle: the high bytes alone
//! when the threshold's low byte is zero, the low bytes breaking ties
//! otherwise.

use crate::add::MuxSelectorPlan;
use crate::bitstream::{BitStream, StreamLength};
use crate::csa::{count_bytes, GROUP_WORDS};
use crate::encoding::{Bipolar, Encoding, Unipolar};
use crate::error::ScError;
use crate::rng::{Lfsr, LfsrWidth, RandomSource, SoftwareRng};
use crate::word::{active_backend, dispatch_word_kernel, Word};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Resolution (in bits) of the comparator threshold inside the SNG.
///
/// 16 bits comfortably exceeds the longest stream length the paper uses
/// (8192), so quantization of the threshold itself never dominates the error.
const THRESHOLD_BITS: u32 = 16;

/// The comparator threshold an SNG uses for a one-density of `probability`.
///
/// A generated stream is a pure function of the lane seed and this
/// threshold: two values mapping to the same threshold produce identical
/// streams from the same generator, and a [`LaneSequence`] turns a
/// threshold into its lane's stream with the comparator alone.
///
/// # Errors
///
/// Returns [`ScError::ValueOutOfRange`] if `probability` is not within
/// `[0, 1]`.
pub fn probability_threshold(probability: f64) -> Result<u32, ScError> {
    if !(0.0..=1.0).contains(&probability) || probability.is_nan() {
        return Err(ScError::ValueOutOfRange {
            value: probability,
            min: 0.0,
            max: 1.0,
        });
    }
    Ok((probability * f64::from(1u32 << THRESHOLD_BITS)).round() as u32)
}

/// The randomness source driving an SNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SngKind {
    /// 16-bit maximal-length LFSR (cheapest hardware, visible correlation).
    Lfsr16,
    /// 32-bit maximal-length LFSR (the default hardware model).
    Lfsr32,
    /// Software Mersenne-quality RNG (ideal randomness reference).
    Ideal,
}

/// The register of an [`SngKind::Lfsr32`] generator seeded with `seed`.
fn lfsr32_for_seed(seed: u64) -> Lfsr {
    Lfsr::new(LfsrWidth::W32, seed as u32 ^ 0x9E37_79B9)
}

enum Source {
    Lfsr(Lfsr),
    Ideal(SoftwareRng<StdRng>),
}

impl Source {
    /// The randomness source a fresh [`Sng`] of this kind and seed drives —
    /// the single point of truth for the per-kind seed whitening, shared by
    /// [`Sng::new`] and the batched [`BatchSng`] fill.
    fn for_seed(kind: SngKind, seed: u64) -> Self {
        match kind {
            SngKind::Lfsr16 => Source::Lfsr(Lfsr::new(LfsrWidth::W16, seed as u32)),
            SngKind::Lfsr32 => Source::Lfsr(lfsr32_for_seed(seed)),
            SngKind::Ideal => Source::Ideal(SoftwareRng::new(StdRng::seed_from_u64(seed))),
        }
    }

    fn next_threshold_sample(&mut self) -> u32 {
        let raw = match self {
            Source::Lfsr(lfsr) => lfsr.next_u32(),
            Source::Ideal(rng) => rng.next_u32(),
        };
        raw & ((1u32 << THRESHOLD_BITS) - 1)
    }

    /// Fills `words` with comparator outputs 64 bits at a time.
    ///
    /// The enum dispatch is hoisted out of the per-bit loop: each source
    /// runs a tight word-filling loop over its own state. The default
    /// 32-bit LFSR additionally takes a batched path that generates the
    /// register's bit-sequence a byte at a time and evaluates the threshold
    /// comparator bit-sliced, 64 samples per iteration. Sample order is
    /// identical to calling [`Source::next_threshold_sample`] once per bit,
    /// so the output is bit-exact with the per-bit reference path.
    fn fill_words(
        &mut self,
        threshold: u32,
        words: &mut [u64],
        bits: usize,
        scratch: &mut Vec<u8>,
    ) {
        match self {
            Source::Lfsr(lfsr) if lfsr.width() == LfsrWidth::W32 => {
                fill_words_lfsr32_batched(lfsr, threshold, words, bits, scratch)
            }
            Source::Lfsr(lfsr) => fill_words_with(|| lfsr.next_u32(), threshold, words, bits),
            Source::Ideal(rng) => fill_words_with(|| rng.next_u32(), threshold, words, bits),
        }
    }
}

/// Batched comparator fill for the width-32 LFSR (the default hardware RNG).
///
/// The register's bit-sequence is produced by [`Lfsr::w32_sequence_into`]
/// (staged GF(2) recurrences, no per-bit serial dependency), and the
/// comparator reads `state & 0xFFFF`, i.e. the 16-bit window `c_{n-15..n}`.
/// The threshold comparison is evaluated bit-sliced — 16 shifted bit-planes
/// of the sequence against the threshold's bits — yielding 64 comparator
/// outputs per iteration.
///
/// Bit-exact with the per-bit loop: the same `c` sequence is produced (it is
/// the unique solution of the recurrence from the register seed) and the
/// register state is resynchronized at the end, so subsequent draws continue
/// the identical stream.
fn fill_words_lfsr32_batched(
    lfsr: &mut Lfsr,
    threshold: u32,
    words: &mut [u64],
    bits: usize,
    seq: &mut Vec<u8>,
) {
    let staged = staged_bits(bits);
    if staged > 0 {
        lfsr.w32_sequence_into(staged, seq);
        dispatch_word_kernel!(
            compare_staged,
            comparator_avx2::compare_staged_avx2,
            (seq, threshold, words, GROUP_WORDS, staged / 64)
        );
    }
    // The rest (every bit of a stream under 128 bits) runs serially from
    // the resynced state.
    fill_words_with(
        || lfsr.step(),
        threshold,
        &mut words[staged / 64..],
        bits - staged,
    );
}

/// How many leading bits of a `bits`-long LFSR32 stream the staged
/// comparator produces: whole words, and only from 128 bits on (the staged
/// recurrence's minimum). The rest is drawn serially.
fn staged_bits(bits: usize) -> usize {
    if bits < 128 {
        0
    } else {
        bits / 64 * 64
    }
}

/// Where word `w` of a stream lands in a comparator fill's output: words go
/// in groups of [`GROUP_WORDS`] (one 256-column group of the packed
/// layout), group `g` at `g · group_stride`. A plain stream has
/// `group_stride == GROUP_WORDS`; a lane of a [`PackedLanes`] row has its
/// row's `lanes · GROUP_WORDS`.
///
/// [`PackedLanes`]: crate::csa::PackedLanes
#[inline(always)]
fn slot(w: usize, group_stride: usize) -> usize {
    w / GROUP_WORDS * group_stride + w % GROUP_WORDS
}

/// Comparator outputs for the staged part of a stream: `words` words, one
/// per 64 sequence bits of `seq` (a [`Lfsr::w32_sequence_into`] buffer),
/// placed by [`slot`].
#[inline(always)]
fn compare_staged<W: Word>(
    seq: &[u8],
    threshold: u32,
    out: &mut [u64],
    group_stride: usize,
    words: usize,
) {
    let constant = match threshold {
        0 => 0,
        1..=0xFFFF => return comparator_fill_impl::<W>(seq, threshold, out, group_stride, words),
        // p == 1.0: every sample satisfies `sample < threshold`.
        _ => u64::MAX,
    };
    for w in 0..words {
        out[slot(w, group_stride)] = constant;
    }
}

/// Bit-sliced threshold comparator over the staged GF(2) sequence buffer,
/// generic over the kernel backend: evaluates `sample < threshold` for
/// `64 · W::LANES` samples per step, branch-free in the threshold's bits.
///
/// Per step, [`compare_words`] reads the sequence windows of `W::LANES`
/// output words with two unaligned loads; plane `j` (sample bit `j` of the
/// 64 samples of every word) is two uniform shifts and an OR of them. The
/// `lt`/`eq` comparator recurrence runs over the planes with threshold bit
/// `j` splatted to a mask `set`: `lt |= eq & set & !plane` and
/// `eq &= !(plane ^ set)`, so a threshold's bits steer no branch. `lt` is
/// final once the threshold's lowest set bit has been processed: below it
/// every threshold bit is zero, which only narrows `eq`. A [`Word::LANES`]
/// step never crosses a group of [`slot`]'s layout; words past the last
/// whole step take the one-word body.
#[inline(always)]
fn comparator_fill_impl<W: Word>(
    seq: &[u8],
    threshold: u32,
    out: &mut [u64],
    group_stride: usize,
    words: usize,
) {
    debug_assert!((1..=0xFFFF).contains(&threshold));
    let mut w = 0;
    while w + W::LANES <= words {
        compare_words::<W>(seq, w, threshold).store(&mut out[slot(w, group_stride)..]);
        w += W::LANES;
    }
    for w in w..words {
        out[slot(w, group_stride)] = compare_words::<u64>(seq, w, threshold);
    }
}

/// The comparator outputs of words `w .. w + W::LANES` (see
/// [`comparator_fill_impl`]).
///
/// Word `w`'s samples are the 16-bit windows ending at sequence bits
/// `64w .. 64w + 63`, i.e. buffer bits `64w + 17 ..` (the buffer leads with
/// 32 virtual seed bits): the 79 bits from byte `8w + 2`, shifted by one.
/// Plane `15 − s` is those bits shifted right by `s`: with `a` and `b` the
/// little-endian words at bytes `8w + 2` and `8w + 10`, that is
/// `a >> (s + 1) | b << (63 − s)`.
#[inline(always)]
fn compare_words<W: Word>(seq: &[u8], w: usize, threshold: u32) -> W {
    let a = W::load_le_bytes(&seq[8 * w + 2..]);
    let b = W::load_le_bytes(&seq[8 * w + 10..]);
    let mut lt = W::zero();
    let mut eq = W::splat(u64::MAX);
    for j in (threshold.trailing_zeros()..16).rev() {
        let s = 15 - j;
        let plane = a.shr(s + 1).or(b.shl(63 - s));
        let set = W::splat(0u64.wrapping_sub(u64::from(threshold >> j & 1)));
        lt = lt.or(eq.and(set).andnot(plane));
        eq = eq.andnot(plane.xor(set));
    }
    lt
}

/// Sample bytes are stored with their top bit flipped: a signed byte
/// compare of flipped bytes orders them as unsigned, and AVX2 compares
/// bytes only signed.
const BIAS: u8 = 0x80;

/// A comparator threshold as the byte compare reads it: `sample < θ` is a
/// constant for `θ = 0` and `θ ≥ 2^16`, the high bytes' compare alone when
/// `θ`'s low byte is zero (at `L = 256` every L-quantized threshold is a
/// multiple of 256), and otherwise `hi < θhi | (hi == θhi & lo < θlo)`.
/// The bytes are flipped like the samples' ([`BIAS`]).
#[derive(Debug, Clone, Copy)]
enum ByteThreshold {
    Constant(u64),
    High(u8),
    HighLow(u8, u8),
}

impl ByteThreshold {
    fn new(threshold: u32) -> Self {
        match threshold {
            0 => Self::Constant(0),
            1..=0xFFFF => match (threshold as u16).to_be_bytes() {
                [high, 0] => Self::High(high ^ BIAS),
                [high, low] => Self::HighLow(high ^ BIAS, low ^ BIAS),
            },
            _ => Self::Constant(u64::MAX),
        }
    }
}

/// The byte comparator of 64 cycles: bit `i` of the output word compares
/// the flipped sample bytes of cycle `i` (signed) with a threshold's.
trait ByteCompare {
    /// Bit `i` is `high[i] < h`.
    fn high(high: &[u8], h: u8) -> u64;

    /// Bit `i` is `(high[i], low[i]) < (h, l)`, lexicographically.
    fn high_low(high: &[u8], low: &[u8], h: u8, l: u8) -> u64;
}

/// The byte comparator 8 cycles per `u64` (SWAR); serves the `scalar` and
/// `wide` backends.
struct Portable;

/// The top bit of every byte.
const TOP_BITS: u64 = 0x8080_8080_8080_8080;

/// The 8 flipped sample bytes from `bytes` as unsigned bytes of a word,
/// cycle order from the low byte.
#[inline(always)]
fn unflipped(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) ^ TOP_BITS
}

/// Per byte of two words of unsigned bytes, the top bit set where `a < b`:
/// the low 7 bits compare through one subtraction that cannot borrow
/// across bytes, and the top bits decide where they differ.
#[inline(always)]
fn bytes_below(a: u64, b: u64) -> u64 {
    let low_at_least = (a | TOP_BITS) - (b & !TOP_BITS);
    ((!a & b) | (!(a ^ b) & !low_at_least)) & TOP_BITS
}

/// Per byte, the top bit set where `a == b`.
#[inline(always)]
fn bytes_equal(a: u64, b: u64) -> u64 {
    let differ = a ^ b;
    !(((differ & !TOP_BITS) + !TOP_BITS) | differ) & TOP_BITS
}

/// The 8 top bits of a word's bytes, byte `i`'s as bit `i`: each lands on
/// bit `56 + i` of one multiply, with no two partial products colliding.
#[inline(always)]
fn top_bits(x: u64) -> u64 {
    ((x >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

impl ByteCompare for Portable {
    #[inline(always)]
    fn high(high: &[u8], h: u8) -> u64 {
        let h = u64::from_ne_bytes([h; 8]) ^ TOP_BITS;
        let cycles = high[..64].chunks_exact(8).enumerate();
        cycles.fold(0, |word, (k, x)| {
            word | top_bits(bytes_below(unflipped(x), h)) << (8 * k)
        })
    }

    #[inline(always)]
    fn high_low(high: &[u8], low: &[u8], h: u8, l: u8) -> u64 {
        let (h, l) = (
            u64::from_ne_bytes([h; 8]) ^ TOP_BITS,
            u64::from_ne_bytes([l; 8]) ^ TOP_BITS,
        );
        let cycles = high[..64].chunks_exact(8).zip(low[..64].chunks_exact(8));
        cycles.enumerate().fold(0, |word, (k, (x, y))| {
            let x = unflipped(x);
            let below = bytes_below(x, h) | bytes_equal(x, h) & bytes_below(unflipped(y), l);
            word | top_bits(below) << (8 * k)
        })
    }
}

/// Fills lane `i`'s stream of comparator threshold `thresholds[i]` from
/// `sequences[i]` for every lane, in one call on the active backend: word
/// `w` of lane `i` lands at `out[i · lane_stride + slot(w, group_stride)]`
/// (see [`slot`]). Every word of every lane's stream is written; words past
/// a stream's end are not touched. The sequences have one length.
///
/// # Panics
///
/// Panics if `out` is too short for the layout.
pub(crate) fn fill_lanes(
    sequences: &[LaneSequence],
    thresholds: &[u32],
    out: &mut [u64],
    lane_stride: usize,
    group_stride: usize,
) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_backend` reports AVX2 only after runtime feature
        // detection.
        crate::word::Backend::Avx2 => unsafe {
            comparator_avx2::fill_lanes_avx2(sequences, thresholds, out, lane_stride, group_stride)
        },
        _ => fill_lanes_impl::<Portable>(sequences, thresholds, out, lane_stride, group_stride),
    }
}

/// Comparator-generic body of [`fill_lanes`]: group by group of the
/// layout, every lane's words of the group, each one byte compare of 64
/// cycles against the threshold's [`ByteThreshold`] form.
#[inline(always)]
fn fill_lanes_impl<C: ByteCompare>(
    sequences: &[LaneSequence],
    thresholds: &[u32],
    out: &mut [u64],
    lane_stride: usize,
    group_stride: usize,
) {
    let Some(first) = sequences.first() else {
        return;
    };
    let bits = first.length.bits();
    debug_assert!(sequences.iter().all(|s| s.length == first.length));
    let words = bits.div_ceil(64);
    for g in 0..words.div_ceil(GROUP_WORDS) {
        let group = &mut out[g * group_stride..];
        let span = (words - g * GROUP_WORDS).min(GROUP_WORDS);
        let lanes = sequences.iter().zip(thresholds).enumerate();
        for (lane, (sequence, &threshold)) in lanes {
            let out = &mut group[lane * lane_stride..][..span];
            let bytes = &sequence.bytes[64 * GROUP_WORDS * g..];
            let threshold = ByteThreshold::new(threshold);
            // A whole group at a length the compiler knows: unrolled, with
            // no per-word bounds check or `memset` call.
            match <&mut [u64; GROUP_WORDS]>::try_from(&mut *out) {
                Ok(group) => compare_bytes::<C>(bytes, threshold, group),
                Err(_) => compare_bytes::<C>(bytes, threshold, out),
            }
        }
    }
    if bits % 64 != 0 {
        let last = slot(words - 1, group_stride);
        for lane in 0..sequences.len().min(thresholds.len()) {
            out[lane * lane_stride + last] &= (1u64 << (bits % 64)) - 1;
        }
    }
}

/// The comparator outputs of `out.len()` words from a [`LaneSequence`]'s
/// `bytes`, one byte compare per word.
#[inline(always)]
fn compare_bytes<C: ByteCompare>(bytes: &[u8], threshold: ByteThreshold, out: &mut [u64]) {
    let bytes = &bytes[..64 * out.len() + 8];
    match threshold {
        ByteThreshold::Constant(word) => out.fill(word),
        ByteThreshold::High(h) => {
            for (s, word) in out.iter_mut().enumerate() {
                *word = C::high(&bytes[64 * s..], h);
            }
        }
        ByteThreshold::HighLow(h, l) => {
            for (s, word) in out.iter_mut().enumerate() {
                *word = C::high_low(&bytes[64 * s..], &bytes[64 * s + 8..], h, l);
            }
        }
    }
}

/// Writes the flipped high byte of the comparator sample of every cycle of
/// the first `words` words of a staged sequence `seq` (see
/// [`Lfsr::w32_sequence_into`]) to `out[t]`, `W::LANES` words per step.
#[inline(always)]
fn high_bytes<W: Word>(seq: &[u8], words: usize, out: &mut [u8]) {
    let mut w = 0;
    while w + W::LANES <= words {
        high_bytes_step::<W>(seq, w, out);
        w += W::LANES;
    }
    for w in w..words {
        high_bytes_step::<u64>(seq, w, out);
    }
}

/// [`high_bytes`] of words `w .. w + W::LANES`: sample bit `j` of cycle
/// `t` is buffer bit `t + 32 − j` (see [`compare_words`]), so the planes
/// of sample bits 8–15 of a word are two shifts and an OR each, and the
/// plane-to-byte transpose of the count drain ([`count_bytes`]) turns them
/// into the word's 64 high bytes, 8 per output word in cycle order.
#[inline(always)]
fn high_bytes_step<W: Word>(seq: &[u8], w: usize, out: &mut [u8]) {
    let a = W::load_le_bytes(&seq[8 * w + 2..]);
    let b = W::load_le_bytes(&seq[8 * w + 10..]);
    let bytes = count_bytes((8..16).map(|j| a.shr(16 - j).or(b.shl(48 + j))));
    let mut lanes = [0u64; 4];
    for (k, column) in bytes.into_iter().enumerate() {
        column
            .xor(W::splat(u64::from_ne_bytes([BIAS; 8])))
            .store(&mut lanes);
        for (i, lane) in lanes[..W::LANES].iter().enumerate() {
            let at = 64 * (w + i) + 8 * k;
            out[at..at + 8].copy_from_slice(&lane.to_le_bytes());
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod comparator_avx2 {
    use super::*;
    use crate::word::WAvx2;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compare_staged_avx2(
        seq: &[u8],
        threshold: u32,
        out: &mut [u64],
        group_stride: usize,
        words: usize,
    ) {
        compare_staged::<WAvx2>(seq, threshold, out, group_stride, words)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_lanes_avx2(
        sequences: &[LaneSequence],
        thresholds: &[u32],
        out: &mut [u64],
        lane_stride: usize,
        group_stride: usize,
    ) {
        fill_lanes_impl::<Avx2>(sequences, thresholds, out, lane_stride, group_stride)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn high_bytes_avx2(seq: &[u8], words: usize, out: &mut [u8]) {
        high_bytes::<WAvx2>(seq, words, out)
    }

    /// The byte comparator 32 cycles per compare and move-mask. Only
    /// instantiated inside this module's `avx2` functions.
    struct Avx2;

    /// All-ones bytes where `threshold > *bytes` (signed), for the 32
    /// bytes from `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and 32 bytes must be readable at `bytes`.
    #[inline(always)]
    unsafe fn above(threshold: __m256i, bytes: *const u8) -> __m256i {
        unsafe { _mm256_cmpgt_epi8(threshold, _mm256_loadu_si256(bytes.cast())) }
    }

    /// The 64 move-mask bits of two 32-byte halves.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn bits(first: __m256i, second: __m256i) -> u64 {
        unsafe {
            let first = _mm256_movemask_epi8(first) as u32;
            let second = _mm256_movemask_epi8(second) as u32;
            u64::from(first) | u64::from(second) << 32
        }
    }

    impl ByteCompare for Avx2 {
        #[inline(always)]
        fn high(high: &[u8], h: u8) -> u64 {
            let high = &high[..64];
            // SAFETY: the reslice guarantees 64 readable bytes; callers
            // hold the module-level AVX2 precondition.
            unsafe {
                let h = _mm256_set1_epi8(h as i8);
                bits(above(h, high.as_ptr()), above(h, high.as_ptr().add(32)))
            }
        }

        #[inline(always)]
        fn high_low(high: &[u8], low: &[u8], h: u8, l: u8) -> u64 {
            let (high, low) = (&high[..64], &low[..64]);
            // SAFETY: as above.
            unsafe {
                let (h, l) = (_mm256_set1_epi8(h as i8), _mm256_set1_epi8(l as i8));
                bits(
                    below(h, l, high.as_ptr(), low.as_ptr()),
                    below(h, l, high.as_ptr().add(32), low.as_ptr().add(32)),
                )
            }
        }
    }

    /// All-ones bytes where `(*high, *low) < (h, l)` (signed,
    /// lexicographically), for the 32 cycles from `high` and `low`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and 32 bytes must be readable at both
    /// pointers.
    #[inline(always)]
    unsafe fn below(h: __m256i, l: __m256i, high: *const u8, low: *const u8) -> __m256i {
        unsafe {
            let x = _mm256_loadu_si256(high.cast());
            let tie = _mm256_and_si256(_mm256_cmpeq_epi8(h, x), above(l, low));
            _mm256_or_si256(_mm256_cmpgt_epi8(h, x), tie)
        }
    }
}

/// Word-at-a-time comparator fill: draws one 16-bit threshold sample per bit
/// and packs the comparator outputs into `u64` words directly, eliminating
/// the per-bit `BitStream::set` bounds check / read-modify-write.
fn fill_words_with(mut raw: impl FnMut() -> u32, threshold: u32, words: &mut [u64], bits: usize) {
    let mask = (1u32 << THRESHOLD_BITS) - 1;
    let full_words = bits / 64;
    for word in words.iter_mut().take(full_words) {
        let mut packed = 0u64;
        for bit in 0..64 {
            packed |= u64::from((raw() & mask) < threshold) << bit;
        }
        *word = packed;
    }
    let tail_bits = bits % 64;
    if tail_bits != 0 {
        let mut packed = 0u64;
        for bit in 0..tail_bits {
            packed |= u64::from((raw() & mask) < threshold) << bit;
        }
        words[full_words] = packed;
    }
}

/// A comparator-based stochastic number generator.
///
/// Each [`Sng`] owns one randomness source. Generating several streams from
/// the *same* generator models hardware that shares one LFSR across several
/// comparators (cheap, but the streams become correlated); use separate
/// generators with different seeds to model independent LFSRs.
pub struct Sng {
    source: Source,
    kind: SngKind,
    seed: u64,
    /// Reusable byte buffer for the batched LFSR32 fill path.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Sng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sng")
            .field("kind", &self.kind)
            .field("seed", &self.seed)
            .finish()
    }
}

impl Sng {
    /// Creates a generator of the given kind seeded with `seed`.
    pub fn new(kind: SngKind, seed: u64) -> Self {
        Self {
            source: Source::for_seed(kind, seed),
            kind,
            seed,
            scratch: Vec::new(),
        }
    }

    /// The generator kind.
    pub fn kind(&self) -> SngKind {
        self.kind
    }

    /// The seed the generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates a stream whose one-density approximates `probability`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] if `probability` is not within
    /// `[0, 1]`.
    pub fn generate_probability(
        &mut self,
        probability: f64,
        length: StreamLength,
    ) -> Result<BitStream, ScError> {
        let mut stream = BitStream::zeros(length);
        self.generate_probability_into(probability, &mut stream)?;
        Ok(stream)
    }

    /// Fills an existing stream with a fresh encoding of `probability`,
    /// word-parallel and without allocating. Every word of `stream` is
    /// overwritten; the stream keeps its length.
    ///
    /// Output is bit-exact with [`Sng::generate_probability_bitwise`] for the
    /// same generator state: both consume one threshold sample per bit in
    /// stream order.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] if `probability` is not within
    /// `[0, 1]`.
    pub fn generate_probability_into(
        &mut self,
        probability: f64,
        stream: &mut BitStream,
    ) -> Result<(), ScError> {
        let threshold = probability_threshold(probability)?;
        let bits = stream.len();
        self.source
            .fill_words(threshold, stream.words_mut(), bits, &mut self.scratch);
        Ok(())
    }

    /// Per-bit reference implementation of [`Sng::generate_probability`].
    ///
    /// This is the original comparator loop (one `BitStream::set` per bit),
    /// kept as the baseline the word-parallel fill is property-tested and
    /// benchmarked against. Not for production use.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] if `probability` is not within
    /// `[0, 1]`.
    pub fn generate_probability_bitwise(
        &mut self,
        probability: f64,
        length: StreamLength,
    ) -> Result<BitStream, ScError> {
        let threshold = probability_threshold(probability)?;
        let mut stream = BitStream::zeros(length);
        for i in 0..length.bits() {
            let sample = self.source.next_threshold_sample();
            if sample < threshold {
                stream.set(i, true);
            }
        }
        Ok(stream)
    }

    /// Generates a unipolar stream encoding `value ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] for values outside `[0, 1]`.
    pub fn generate_unipolar(
        &mut self,
        value: f64,
        length: StreamLength,
    ) -> Result<BitStream, ScError> {
        let p = Unipolar::to_probability(value)?;
        self.generate_probability(p, length)
    }

    /// Generates a bipolar stream encoding `value ∈ [-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] for values outside `[-1, 1]`.
    pub fn generate_bipolar(
        &mut self,
        value: f64,
        length: StreamLength,
    ) -> Result<BitStream, ScError> {
        let p = Bipolar::to_probability(value)?;
        self.generate_probability(p, length)
    }

    /// Fills an existing stream with a unipolar encoding of `value ∈ [0, 1]`
    /// (allocation-free variant of [`Sng::generate_unipolar`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] for values outside `[0, 1]`.
    pub fn generate_unipolar_into(
        &mut self,
        value: f64,
        stream: &mut BitStream,
    ) -> Result<(), ScError> {
        let p = Unipolar::to_probability(value)?;
        self.generate_probability_into(p, stream)
    }

    /// Fills an existing stream with a bipolar encoding of `value ∈ [-1, 1]`
    /// (allocation-free variant of [`Sng::generate_bipolar`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] for values outside `[-1, 1]`.
    pub fn generate_bipolar_into(
        &mut self,
        value: f64,
        stream: &mut BitStream,
    ) -> Result<(), ScError> {
        let p = Bipolar::to_probability(value)?;
        self.generate_probability_into(p, stream)
    }
}

/// Batched multi-stream SNG fill.
///
/// The per-call paths construct one [`Sng`] per lane per evaluation; each
/// fresh generator grows its own staged-recurrence scratch buffer on first
/// use, so a layer evaluation pays one heap allocation (plus growth) per
/// generated stream. A [`BatchSng`] generates any number of lanes — a whole
/// SNG bank's worth of weight or input streams for one layer — through a
/// **single** staged-recurrence scratch that persists across calls:
/// steady-state stream generation touches the heap only for the output
/// buffers, which the arena-backed entry points recycle too.
///
/// Output is bit-exact with a fresh `Sng::new(kind, lane_seed)` per lane:
/// the seed whitening and the sequence generation are shared code.
#[derive(Debug)]
pub struct BatchSng {
    kind: SngKind,
    /// Reused staged-recurrence byte buffer (see [`Lfsr::w32_sequence_into`]).
    scratch: Vec<u8>,
}

impl BatchSng {
    /// Creates a batched generator producing streams of the given SNG kind.
    pub fn new(kind: SngKind) -> Self {
        Self {
            kind,
            scratch: Vec::new(),
        }
    }

    /// The generator kind every filled stream is drawn from.
    pub fn kind(&self) -> SngKind {
        self.kind
    }

    /// Fills `stream` with a fresh encoding of `probability` from the lane
    /// generator seeded with `lane_seed`, bit-exact with
    /// `Sng::new(self.kind(), lane_seed).generate_probability_into(..)`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] if `probability` is not within
    /// `[0, 1]`.
    pub fn fill_probability(
        &mut self,
        lane_seed: u64,
        probability: f64,
        stream: &mut BitStream,
    ) -> Result<(), ScError> {
        let threshold = probability_threshold(probability)?;
        let bits = stream.len();
        Source::for_seed(self.kind, lane_seed).fill_words(
            threshold,
            stream.words_mut(),
            bits,
            &mut self.scratch,
        );
        Ok(())
    }

    /// Fills `stream` with a bipolar encoding of `value ∈ [-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::ValueOutOfRange`] for values outside `[-1, 1]`.
    pub fn fill_bipolar(
        &mut self,
        lane_seed: u64,
        value: f64,
        stream: &mut BitStream,
    ) -> Result<(), ScError> {
        let p = Bipolar::to_probability(value)?;
        self.fill_probability(lane_seed, p, stream)
    }

    /// Generates one bipolar stream per value with the lane seeds of an
    /// [`SngBank`] based at `base_seed`, all through this generator's shared
    /// scratch, with the stream buffers taken from `arena`. Bit-identical to
    /// `SngBank::new(kind, values.len(), base_seed).generate_bipolar(..)`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty value slice and
    /// [`ScError::ValueOutOfRange`] for values outside `[-1, 1]` (taken
    /// buffers are recycled back into `arena` on error).
    pub fn generate_bipolar_bank_with(
        &mut self,
        base_seed: u64,
        values: &[f64],
        length: StreamLength,
        arena: &mut crate::arena::StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        if values.is_empty() {
            return Err(ScError::EmptyInput);
        }
        let mut streams = Vec::with_capacity(values.len());
        for (lane, &value) in values.iter().enumerate() {
            let mut stream = arena.take_zeroed(length);
            match self.fill_bipolar(SngBank::lane_seed(base_seed, lane), value, &mut stream) {
                Ok(()) => streams.push(stream),
                Err(error) => {
                    arena.recycle(stream);
                    arena.recycle_all(streams);
                    return Err(error);
                }
            }
        }
        Ok(streams)
    }
}

/// The precomputed comparator samples of one [`SngKind::Lfsr32`] lane,
/// for streams of one length.
///
/// A lane's comparator samples depend only on its seed, never on the value
/// being encoded, so they can be drawn once and every later stream of the
/// lane filled by the comparator alone — the hardware view of one fixed RNG
/// sequence per comparator group. The 16-bit sample of every cycle is held
/// as bytes, so a fill is a byte compare per cycle: the high bytes alone
/// when the threshold's low byte is zero, the low bytes breaking ties
/// otherwise, 32 cycles per compare and move-mask on AVX2. The
/// samples are the register's low half, a shift register of its output
/// bits, so the low byte of cycle `t`'s sample is the high byte of cycle
/// `t + 8`'s and one byte per cycle holds both: the high-byte plane is
/// `bytes[t]` and the low-byte plane `bytes[t + 8]`. They are drawn word
/// by word from the register's staged bit-sequence (a plane transpose per
/// 64 cycles), the cycles past the last whole word serially.
/// [`LaneSequence::fill`] is bit-exact with [`BatchSng::fill_probability`]
/// for the same lane seed and length.
#[derive(Debug, Clone)]
pub struct LaneSequence {
    /// Flipped ([`BIAS`]) high sample bytes of every cycle and of the 8
    /// cycles past the stream end, padded to whole words plus 8.
    bytes: Vec<u8>,
    length: StreamLength,
}

impl LaneSequence {
    /// Draws the sequence of the lane seeded with `lane_seed` for streams of
    /// `length` bits.
    pub fn new(lane_seed: u64, length: StreamLength) -> Self {
        let bits = length.bits();
        let mut bytes = vec![0; 64 * bits.div_ceil(64) + 8];
        let mut lfsr = lfsr32_for_seed(lane_seed);
        let staged = staged_bits(bits);
        if staged > 0 {
            let mut seq = Vec::new();
            lfsr.w32_sequence_into(staged, &mut seq);
            dispatch_word_kernel!(
                high_bytes,
                comparator_avx2::high_bytes_avx2,
                (&seq, staged / 64, &mut bytes)
            );
        }
        // The rest, with the 8 cycles whose high bytes are the last 8
        // cycles' low bytes, from the resynced state.
        for byte in &mut bytes[staged..bits + 8] {
            *byte = (lfsr.step() >> 8) as u8 ^ BIAS;
        }
        Self { bytes, length }
    }

    /// The stream length the sequence fills.
    pub(crate) fn length(&self) -> StreamLength {
        self.length
    }

    /// Fills `stream` with the lane's encoding of the comparator
    /// `threshold` (see [`probability_threshold`]). Every word of `stream`
    /// is overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless `stream` has the
    /// sequence's length.
    pub fn fill(&self, threshold: u32, stream: &mut BitStream) -> Result<(), ScError> {
        if stream.len() != self.length.bits() {
            return Err(ScError::LengthMismatch {
                left: self.length.bits(),
                right: stream.len(),
            });
        }
        fill_lanes(
            std::slice::from_ref(self),
            &[threshold],
            stream.words_mut(),
            0,
            GROUP_WORDS,
        );
        Ok(())
    }
}

/// One [`SngKind::Lfsr32`] lane's draw as the staged comparator consumes
/// it: the staged bit-sequence of the leading whole words and the serial
/// samples of the rest. Cheap to draw and read one cycle at a time, which
/// is all a MUX field needs of each of its lanes.
struct LaneDraw {
    /// Staged bit-sequence of the leading whole words, as
    /// [`Lfsr::w32_sequence_into`] lays it out (empty below 128 bits).
    staged: Vec<u8>,
    /// Threshold samples of the remaining bits, in stream order.
    tail: Vec<u16>,
    staged_bits: usize,
}

impl LaneDraw {
    fn new(lane_seed: u64, length: StreamLength) -> Self {
        let mut lfsr = lfsr32_for_seed(lane_seed);
        let staged_bits = staged_bits(length.bits());
        let mut staged = Vec::new();
        if staged_bits > 0 {
            lfsr.w32_sequence_into(staged_bits, &mut staged);
        }
        let tail = (staged_bits..length.bits())
            .map(|_| (lfsr.step() & 0xFFFF) as u16)
            .collect();
        Self {
            staged,
            tail,
            staged_bits,
        }
    }

    /// The 16-bit comparator sample the lane draws at cycle `t`: the low
    /// half of the register state after `t + 1` steps, which in the staged
    /// buffer is the 16-bit window ending at buffer bit `t + 32`, most
    /// recent bit lowest (see [`Lfsr::w32_sequence_into`]).
    fn sample(&self, t: usize) -> u16 {
        if t >= self.staged_bits {
            return self.tail[t - self.staged_bits];
        }
        let first = t + 17;
        let bytes = self.staged[first / 8..first / 8 + 4]
            .try_into()
            .expect("4 bytes");
        ((u32::from_le_bytes(bytes) >> (first % 8)) as u16).reverse_bits()
    }
}

/// Lanes a field may have for the AVX2 [`SelectedSequence::fill`] to look
/// the selected thresholds up in registers: two 16-entry byte shuffles.
const SHUFFLE_LANES: usize = 32;

/// The lane a MUX selects at each cycle: bytes for a field of at most
/// [`SHUFFLE_LANES`] lanes, which the AVX2 fill shuffles by, words for a
/// wider one, which it gathers by.
#[derive(Debug, Clone)]
enum Selected {
    Narrow(Vec<u8>),
    Wide(Vec<u32>),
}

/// The input sequence one MUX inner product sees: at every cycle, the lane
/// its selector forwards and that lane's comparator sample.
///
/// A MUX forwards one lane per cycle, so of the `N` input streams of a
/// field only the selected bit of each cycle ever reaches the output. With
/// the selector fixed (a [`MuxSelectorPlan`]) and every lane's random
/// sequence fixed, the selected input stream is a single comparator pass,
/// `bit t = sample[t] < threshold[lane[t]]`, instead of `N` lane fills
/// followed by a gather. The selected samples are held as a high-byte and
/// a low-byte plane (flipped like a [`LaneSequence`]'s), padded to whole
/// words. [`SelectedSequence::fill`] is bit-exact with
/// [`MuxAdder::sum_with_plan`] over the [`LaneSequence::fill`] streams of
/// every lane.
///
/// [`MuxAdder::sum_with_plan`]: crate::add::MuxAdder::sum_with_plan
#[derive(Debug, Clone)]
pub struct SelectedSequence {
    /// The lane selected at each cycle; lane 0 past the stream end.
    lanes: Selected,
    /// Flipped high and low bytes of the selected lane's sample at each
    /// cycle.
    high: Vec<u8>,
    low: Vec<u8>,
    /// Number of input lanes the selector chooses between.
    inputs: usize,
    length: StreamLength,
}

impl SelectedSequence {
    /// Gathers the selected sequence of `plan` over the lanes seeded with
    /// `lane_seeds` (one per plan lane; see [`SngBank::lane_seed`]). Each
    /// lane's sequence is drawn once and read only at the cycles that
    /// select it.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless there is one seed per
    /// plan lane.
    pub fn new(lane_seeds: &[u64], plan: &MuxSelectorPlan) -> Result<Self, ScError> {
        if lane_seeds.len() != plan.lanes() {
            return Err(ScError::LengthMismatch {
                left: plan.lanes(),
                right: lane_seeds.len(),
            });
        }
        let length = StreamLength::new(plan.stream_bits());
        Self::gather(lane_seeds, length, plan.selected_lanes())
    }

    /// Gathers the samples of the lanes `lanes` selects, cycle by cycle.
    ///
    /// The AVX2 [`SelectedSequence::fill`] gathers thresholds by these lane
    /// indices without bounds checks, so a lane past the last seed (or one
    /// that does not fit the gather's `i32` index) is refused here.
    fn gather(lane_seeds: &[u64], length: StreamLength, lanes: Vec<u32>) -> Result<Self, ScError> {
        if let Some(&lane) = lanes
            .iter()
            .find(|&&lane| lane as usize >= lane_seeds.len() || lane > i32::MAX as u32)
        {
            return Err(ScError::InvalidParameter {
                name: "lanes",
                message: format!(
                    "selected lane {lane} is outside the {} lane sequences",
                    lane_seeds.len()
                ),
            });
        }
        let draws: Vec<LaneDraw> = lane_seeds
            .iter()
            .map(|&seed| LaneDraw::new(seed, length))
            .collect();
        let padded = 64 * length.bits().div_ceil(64);
        let (mut high, mut low) = (vec![0; padded], vec![0; padded]);
        for (t, &lane) in lanes.iter().enumerate() {
            let [h, l] = draws[lane as usize].sample(t).to_be_bytes();
            (high[t], low[t]) = (h ^ BIAS, l ^ BIAS);
        }
        let mut lanes = lanes;
        lanes.resize(padded, 0);
        let lanes = if lane_seeds.len() <= SHUFFLE_LANES {
            Selected::Narrow(lanes.into_iter().map(|lane| lane as u8).collect())
        } else {
            Selected::Wide(lanes)
        };
        Ok(Self {
            lanes,
            high,
            low,
            inputs: lane_seeds.len(),
            length,
        })
    }

    /// Fills `stream` with the selected input stream of a field whose lane
    /// `i` encodes comparator threshold `thresholds[i]` (see
    /// [`probability_threshold`]). Every word of `stream` is overwritten.
    ///
    /// Bit `t` is `sample[t] < thresholds[lane[t]]`. The portable loop
    /// compares one cycle at a time and serves the `scalar` and `wide`
    /// backends. The AVX2 backend looks the selected thresholds of a field
    /// of at most 32 lanes up in registers, 32 cycles per step: two byte
    /// shuffles over the thresholds' high bytes (and, when any lane needs
    /// them, over their low bytes and the `θ ≥ 2^16` lanes) against the
    /// sample planes, as [`LaneSequence::fill`] compares. A wider field
    /// gathers 8 thresholds per step and compares them with the samples
    /// widened to 32 bits. All are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless there is one threshold per
    /// input lane and `stream` has the sequence's length.
    pub fn fill(&self, thresholds: &[u32], stream: &mut BitStream) -> Result<(), ScError> {
        if thresholds.len() != self.inputs {
            return Err(ScError::LengthMismatch {
                left: self.inputs,
                right: thresholds.len(),
            });
        }
        if stream.len() != self.length.bits() {
            return Err(ScError::LengthMismatch {
                left: self.length.bits(),
                right: stream.len(),
            });
        }
        let words = stream.words_mut();
        let (high, low) = (&self.high[..], &self.low[..]);
        match (active_backend(), &self.lanes) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_backend` reports AVX2 only after runtime
            // feature detection; a narrow field has at most `SHUFFLE_LANES`
            // inputs, and `gather` refused every lane that does not index
            // the seeds, of which there are `inputs`, the length of
            // `thresholds` checked above.
            (crate::word::Backend::Avx2, Selected::Narrow(lanes)) => unsafe {
                selected_avx2::shuffle_fill(lanes, high, low, thresholds, words)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            (crate::word::Backend::Avx2, Selected::Wide(lanes)) => unsafe {
                selected_avx2::gather_fill(lanes, high, low, thresholds, words)
            },
            (_, Selected::Narrow(lanes)) => {
                selected_fill_portable(|t| usize::from(lanes[t]), high, low, thresholds, words)
            }
            (_, Selected::Wide(lanes)) => {
                selected_fill_portable(|t| lanes[t] as usize, high, low, thresholds, words)
            }
        }
        stream.mask_tail();
        Ok(())
    }
}

/// The portable selected-sequence fill: one comparator per cycle, packed
/// into the output words.
fn selected_fill_portable(
    lane: impl Fn(usize) -> usize,
    high: &[u8],
    low: &[u8],
    thresholds: &[u32],
    words: &mut [u64],
) {
    let cycles = high.chunks_exact(64).zip(low.chunks_exact(64));
    for (w, (word, (high, low))) in words.iter_mut().zip(cycles).enumerate() {
        let mut packed = 0;
        for (i, (&h, &l)) in high.iter().zip(low).enumerate() {
            let sample = u32::from(h ^ BIAS) << 8 | u32::from(l ^ BIAS);
            packed |= u64::from(sample < thresholds[lane(64 * w + i)]) << i;
        }
        *word = packed;
    }
}

#[cfg(target_arch = "x86_64")]
mod selected_avx2 {
    use super::{BIAS, SHUFFLE_LANES};
    use std::arch::x86_64::*;

    /// [`super::selected_fill_portable`] for a field of at most
    /// [`SHUFFLE_LANES`] lanes, 32 cycles per step: the selected lanes'
    /// threshold bytes are shuffled out of two 16-byte tables per byte
    /// plane, one per half of the lanes, and compared with the sample
    /// bytes. The low-byte tie-break runs only when a lane's threshold has
    /// a low byte, and the `θ ≥ 2^16` table only when a lane has one.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, every lane must be below
    /// [`SHUFFLE_LANES`] and index `thresholds`, and `lanes`, `high` and
    /// `low` must hold 64 cycles per word of `words`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn shuffle_fill(
        lanes: &[u8],
        high: &[u8],
        low: &[u8],
        thresholds: &[u32],
        words: &mut [u64],
    ) {
        debug_assert!(thresholds.len() <= SHUFFLE_LANES);
        // Per lane, the flipped high and low bytes of its threshold and
        // whether it is `≥ 2^16`, the one threshold the bytes cannot hold.
        let mut tables = [[0u8; SHUFFLE_LANES]; 3];
        for (lane, &threshold) in thresholds.iter().enumerate() {
            if threshold > 0xFFFF {
                tables[2][lane] = 0xFF;
            } else {
                let [h, l] = (threshold as u16).to_be_bytes();
                (tables[0][lane], tables[1][lane]) = (h ^ BIAS, l ^ BIAS);
            }
        }
        let any_low = thresholds.iter().any(|&t| t <= 0xFFFF && t & 0xFF != 0);
        let any_full = tables[2].contains(&0xFF);
        // SAFETY: the function's preconditions.
        unsafe {
            match (any_low, any_full) {
                (false, false) => shuffle_words::<false, false>(lanes, high, low, &tables, words),
                (false, true) => shuffle_words::<false, true>(lanes, high, low, &tables, words),
                (true, false) => shuffle_words::<true, false>(lanes, high, low, &tables, words),
                (true, true) => shuffle_words::<true, true>(lanes, high, low, &tables, words),
            }
        }
    }

    /// The two halves of a 32-entry byte table, each in both 128-bit lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn halves(table: &[u8; SHUFFLE_LANES]) -> [__m256i; 2] {
        // SAFETY: 16 readable bytes at each half; AVX2 per the caller.
        unsafe {
            [0, 16].map(|at| {
                _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(at).cast()))
            })
        }
    }

    /// The entry of `table` for each of 32 lanes, given the shuffle
    /// indices of the lanes' two table halves.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn look_up(table: [__m256i; 2], index: [__m256i; 2]) -> __m256i {
        // SAFETY: AVX2 per the caller.
        unsafe {
            _mm256_or_si256(
                _mm256_shuffle_epi8(table[0], index[0]),
                _mm256_shuffle_epi8(table[1], index[1]),
            )
        }
    }

    /// The body of [`shuffle_fill`], with the low-byte tie-break (`LOW`)
    /// and the `θ ≥ 2^16` lanes (`FULL`) compiled in or out.
    ///
    /// # Safety
    ///
    /// As [`shuffle_fill`].
    #[inline(always)]
    unsafe fn shuffle_words<const LOW: bool, const FULL: bool>(
        lanes: &[u8],
        high: &[u8],
        low: &[u8],
        tables: &[[u8; SHUFFLE_LANES]; 3],
        words: &mut [u64],
    ) {
        let (lanes, high, low) = (
            &lanes[..64 * words.len()],
            &high[..lanes.len()],
            &low[..lanes.len()],
        );
        // SAFETY: the reslices above hold 64 cycles per word, read 32 at a
        // time; AVX2 per the caller.
        unsafe {
            let [high_table, low_table, full_table] = tables.each_ref().map(|table| halves(table));
            let (first_half, second_half) = (_mm256_set1_epi8(0x70), _mm256_set1_epi8(16));
            for (w, word) in words.iter_mut().enumerate() {
                let mut bits = 0u64;
                for step in 0..2 {
                    let at = 64 * w + 32 * step;
                    let lane = _mm256_loadu_si256(lanes.as_ptr().add(at).cast());
                    // A shuffle index with its top bit set yields zero, so
                    // `lane + 0x70` reads the first half only for lanes
                    // 0–15 and `lane − 16` the second only for 16–31.
                    let index = [
                        _mm256_add_epi8(lane, first_half),
                        _mm256_sub_epi8(lane, second_half),
                    ];
                    let h = look_up(high_table, index);
                    let x = _mm256_loadu_si256(high.as_ptr().add(at).cast());
                    let mut below = _mm256_cmpgt_epi8(h, x);
                    if LOW {
                        let l = look_up(low_table, index);
                        let y = _mm256_loadu_si256(low.as_ptr().add(at).cast());
                        let tie =
                            _mm256_and_si256(_mm256_cmpeq_epi8(h, x), _mm256_cmpgt_epi8(l, y));
                        below = _mm256_or_si256(below, tie);
                    }
                    if FULL {
                        below = _mm256_or_si256(below, look_up(full_table, index));
                    }
                    bits |= u64::from(_mm256_movemask_epi8(below) as u32) << (32 * step);
                }
                *word = bits;
            }
        }
    }

    /// [`super::selected_fill_portable`] for a wider field, 8 cycles at a
    /// time: gather the selected lanes' thresholds, widen the samples to
    /// 32 bits, compare, and pack the 8 results with one move-mask.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, every lane must index `thresholds` and
    /// fit an `i32`, and `lanes`, `high` and `low` must hold 64 cycles per
    /// word of `words`. [`super::SelectedSequence::gather`] refuses any
    /// other lane and [`super::SelectedSequence::fill`] checks
    /// `thresholds.len() == inputs`, so its call upholds this.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_fill(
        lanes: &[u32],
        high: &[u8],
        low: &[u8],
        thresholds: &[u32],
        words: &mut [u64],
    ) {
        let (lanes, high, low) = (
            &lanes[..64 * words.len()],
            &high[..lanes.len()],
            &low[..lanes.len()],
        );
        // Samples are below 2^16, so a threshold above 2^16 compares like
        // 2^16; capping it keeps the signed 32-bit compare exact for every
        // `u32` threshold.
        let cap = _mm256_set1_epi32(1 << 16);
        let bias = _mm_set1_epi8(BIAS as i8);
        for (w, word) in words.iter_mut().enumerate() {
            let mut packed = 0u64;
            for group in 0..8 {
                let at = 64 * w + 8 * group;
                // SAFETY: the reslices above hold 64 cycles per word, read
                // 8 at a time, and every gathered index is a lane below
                // `thresholds.len()` (the function's precondition).
                unsafe {
                    let index = _mm256_loadu_si256(lanes.as_ptr().add(at).cast());
                    let threshold = _mm256_min_epu32(
                        _mm256_i32gather_epi32::<4>(thresholds.as_ptr().cast(), index),
                        cap,
                    );
                    let bytes = _mm_unpacklo_epi8(
                        _mm_loadl_epi64(low.as_ptr().add(at).cast()),
                        _mm_loadl_epi64(high.as_ptr().add(at).cast()),
                    );
                    let sample = _mm256_cvtepu16_epi32(_mm_xor_si128(bytes, bias));
                    let below = _mm256_cmpgt_epi32(threshold, sample);
                    let bits = _mm256_movemask_ps(_mm256_castsi256_ps(below)) as u32;
                    packed |= u64::from(bits) << (8 * group);
                }
            }
            *word = packed;
        }
    }
}

/// A bank of independent SNGs, one per input lane.
///
/// This is the faithful model for an inner-product block where every input
/// and every weight has its own generator (or a rotated/offset share of a
/// larger one) so that streams entering a multiplier are uncorrelated.
#[derive(Debug)]
pub struct SngBank {
    generators: Vec<Sng>,
}

impl SngBank {
    /// Creates a bank of `lanes` generators, each seeded differently from
    /// `base_seed`.
    pub fn new(kind: SngKind, lanes: usize, base_seed: u64) -> Self {
        let generators = (0..lanes)
            .map(|lane| Sng::new(kind, Self::lane_seed(base_seed, lane)))
            .collect();
        Self { generators }
    }

    /// The seed of lane `lane` in a bank created from `base_seed` (the
    /// splitmix stride). A fresh `Sng::new(kind, lane_seed(base, l))`
    /// reproduces exactly the stream lane `l` of a fresh bank generates, so
    /// compiled engines can regenerate or cache individual lane streams
    /// without constructing whole banks.
    pub fn lane_seed(base_seed: u64, lane: usize) -> u64 {
        base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1))
    }

    /// Number of lanes in the bank.
    pub fn lanes(&self) -> usize {
        self.generators.len()
    }

    /// Generates one bipolar stream per value, each from its own lane.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] if `values` is empty,
    /// [`ScError::InvalidParameter`] if there are more values than lanes, and
    /// [`ScError::ValueOutOfRange`] for values outside `[-1, 1]`.
    pub fn generate_bipolar(
        &mut self,
        values: &[f64],
        length: StreamLength,
    ) -> Result<Vec<BitStream>, ScError> {
        if values.is_empty() {
            return Err(ScError::EmptyInput);
        }
        if values.len() > self.generators.len() {
            return Err(ScError::InvalidParameter {
                name: "values",
                message: format!(
                    "{} values exceed the {} available SNG lanes",
                    values.len(),
                    self.generators.len()
                ),
            });
        }
        values
            .iter()
            .zip(self.generators.iter_mut())
            .map(|(&v, sng)| sng.generate_bipolar(v, length))
            .collect()
    }

    /// Arena-backed variant of [`SngBank::generate_bipolar`]: stream buffers
    /// come from (and should later be recycled into) `arena`, so repeated
    /// evaluations allocate nothing in steady state. Output is bit-identical
    /// to the allocating variant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SngBank::generate_bipolar`].
    pub fn generate_bipolar_with(
        &mut self,
        values: &[f64],
        length: StreamLength,
        arena: &mut crate::arena::StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        if values.is_empty() {
            return Err(ScError::EmptyInput);
        }
        if values.len() > self.generators.len() {
            return Err(ScError::InvalidParameter {
                name: "values",
                message: format!(
                    "{} values exceed the {} available SNG lanes",
                    values.len(),
                    self.generators.len()
                ),
            });
        }
        let mut streams = Vec::with_capacity(values.len());
        for (&value, sng) in values.iter().zip(self.generators.iter_mut()) {
            let mut stream = arena.take_zeroed(length);
            match sng.generate_bipolar_into(value, &mut stream) {
                Ok(()) => streams.push(stream),
                Err(error) => {
                    arena.recycle(stream);
                    arena.recycle_all(streams);
                    return Err(error);
                }
            }
        }
        Ok(streams)
    }

    /// Mutable access to an individual lane.
    pub fn lane_mut(&mut self, lane: usize) -> Option<&mut Sng> {
        self.generators.get_mut(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn length() -> StreamLength {
        StreamLength::new(2048)
    }

    #[test]
    fn unipolar_density_tracks_value() {
        let mut sng = Sng::new(SngKind::Lfsr32, 11);
        for &value in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let stream = sng.generate_unipolar(value, length()).unwrap();
            assert!(
                (stream.unipolar_value() - value).abs() < 0.05,
                "value {value} decoded as {}",
                stream.unipolar_value()
            );
        }
    }

    #[test]
    fn bipolar_density_tracks_value() {
        let mut sng = Sng::new(SngKind::Lfsr32, 13);
        for &value in &[-1.0, -0.5, 0.0, 0.5, 1.0] {
            let stream = sng.generate_bipolar(value, length()).unwrap();
            assert!(
                (stream.bipolar_value() - value).abs() < 0.08,
                "value {value} decoded as {}",
                stream.bipolar_value()
            );
        }
    }

    #[test]
    fn ideal_source_also_tracks_value() {
        let mut sng = Sng::new(SngKind::Ideal, 5);
        let stream = sng.generate_bipolar(0.3, length()).unwrap();
        assert!((stream.bipolar_value() - 0.3).abs() < 0.08);
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let mut sng = Sng::new(SngKind::Lfsr32, 1);
        assert!(sng.generate_unipolar(1.5, length()).is_err());
        assert!(sng.generate_bipolar(-1.5, length()).is_err());
        assert!(sng.generate_probability(f64::NAN, length()).is_err());
    }

    #[test]
    fn same_seed_reproduces_streams() {
        let mut a = Sng::new(SngKind::Lfsr32, 99);
        let mut b = Sng::new(SngKind::Lfsr32, 99);
        let sa = a.generate_bipolar(0.25, length()).unwrap();
        let sb = b.generate_bipolar(0.25, length()).unwrap();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_decorrelate_streams() {
        let mut a = Sng::new(SngKind::Lfsr32, 1);
        let mut b = Sng::new(SngKind::Lfsr32, 2);
        let sa = a.generate_bipolar(0.5, length()).unwrap();
        let sb = b.generate_bipolar(0.5, length()).unwrap();
        assert_ne!(sa, sb);
    }

    #[test]
    fn bank_rejects_too_many_values() {
        let mut bank = SngBank::new(SngKind::Lfsr32, 2, 7);
        assert_eq!(bank.lanes(), 2);
        let err = bank.generate_bipolar(&[0.1, 0.2, 0.3], length());
        assert!(err.is_err());
    }

    #[test]
    fn bank_lanes_are_independent() {
        let mut bank = SngBank::new(SngKind::Lfsr32, 3, 7);
        let streams = bank.generate_bipolar(&[0.5, 0.5, 0.5], length()).unwrap();
        assert_ne!(streams[0], streams[1]);
        assert_ne!(streams[1], streams[2]);
        assert!(bank.lane_mut(0).is_some());
        assert!(bank.lane_mut(3).is_none());
    }

    #[test]
    fn word_fill_is_bit_exact_with_bitwise_reference() {
        for kind in [SngKind::Lfsr16, SngKind::Lfsr32, SngKind::Ideal] {
            for bits in [1usize, 63, 64, 65, 100, 127, 1024] {
                for &p in &[0.0, 0.25, 0.5, 0.9, 1.0] {
                    let len = StreamLength::new(bits);
                    let mut fast = Sng::new(kind, 42);
                    let mut reference = Sng::new(kind, 42);
                    let a = fast.generate_probability(p, len).unwrap();
                    let b = reference.generate_probability_bitwise(p, len).unwrap();
                    assert_eq!(a, b, "{kind:?} p={p} bits={bits}");
                }
            }
        }
    }

    /// Every wide comparator backend must agree bit-for-bit with the scalar
    /// `u64` reference, across thresholds exercising every branch of the
    /// bit-sliced `lt`/`eq` recurrence and word counts leaving ragged
    /// super-word groups.
    #[test]
    fn comparator_fill_bit_exact_across_backends() {
        use crate::word::W4;
        fn check<W: Word>(backend: &str) {
            for &bits in &[128usize, 1024, 8128] {
                for &threshold in &[1u32, 2, 0x0007, 0x00FF, 0x8000, 0xABCD, 0xFFFF] {
                    let mut lfsr = Lfsr::new(LfsrWidth::W32, 0x00C0_FFEE ^ threshold);
                    let mut seq = Vec::new();
                    lfsr.w32_sequence_into(bits, &mut seq);
                    let words = bits / 64;
                    let mut reference = vec![0u64; words];
                    comparator_fill_impl::<u64>(
                        &seq,
                        threshold,
                        &mut reference,
                        GROUP_WORDS,
                        words,
                    );
                    let mut wide = vec![0u64; words];
                    comparator_fill_impl::<W>(&seq, threshold, &mut wide, GROUP_WORDS, words);
                    assert_eq!(
                        wide, reference,
                        "{backend} threshold {threshold:#x} bits {bits}"
                    );
                }
            }
        }
        check::<W4>("wide");
        #[cfg(target_arch = "x86_64")]
        if crate::word::Backend::Avx2.is_available() {
            check::<crate::word::WAvx2>("avx2");
        }
    }

    /// The portable byte compare's SWAR helpers agree with `u8` compares
    /// for every pair of bytes, in every byte position of a word.
    #[test]
    fn swar_byte_compares_match_per_byte_compares() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let position = usize::from(a ^ b) % 8;
                let mut x = [b.wrapping_add(1); 8];
                let y = [b; 8];
                x[position] = a;
                let (x, y) = (u64::from_le_bytes(x), u64::from_le_bytes(y));
                let expect = |holds: fn(u8, u8) -> bool| {
                    (0..8).fold(0, |bits, i| {
                        let (xi, yi) = (x.to_le_bytes()[i], y.to_le_bytes()[i]);
                        bits | u64::from(holds(xi, yi)) << i
                    })
                };
                assert_eq!(
                    top_bits(bytes_below(x, y)),
                    expect(|x, y| x < y),
                    "{a} < {b}"
                );
                assert_eq!(
                    top_bits(bytes_equal(x, y)),
                    expect(|x, y| x == y),
                    "{a} == {b}"
                );
            }
        }
    }

    #[test]
    fn generate_into_reuses_buffer_and_matches() {
        let len = StreamLength::new(777);
        let mut a = Sng::new(SngKind::Lfsr32, 9);
        let mut b = Sng::new(SngKind::Lfsr32, 9);
        let mut reused = BitStream::zeros(len);
        // Fill the buffer twice; the second fill must fully overwrite the first.
        a.generate_bipolar_into(0.9, &mut reused).unwrap();
        a.generate_bipolar_into(-0.3, &mut reused).unwrap();
        let fresh_first = b.generate_bipolar(0.9, len).unwrap();
        let fresh_second = b.generate_bipolar(-0.3, len).unwrap();
        assert_ne!(reused, fresh_first);
        assert_eq!(reused, fresh_second);
    }

    #[test]
    fn generate_into_rejects_bad_values() {
        let mut sng = Sng::new(SngKind::Lfsr32, 1);
        let mut stream = BitStream::zeros(length());
        assert!(sng.generate_probability_into(1.5, &mut stream).is_err());
        assert!(sng.generate_bipolar_into(-2.0, &mut stream).is_err());
        assert!(sng.generate_unipolar_into(-0.1, &mut stream).is_err());
    }

    #[test]
    fn batch_sng_matches_per_lane_generators() {
        for kind in [SngKind::Lfsr16, SngKind::Lfsr32, SngKind::Ideal] {
            for bits in [63usize, 100, 127, 1024] {
                let len = StreamLength::new(bits);
                let values = [0.25, -0.5, 0.75, 0.0, -1.0];
                let mut bank = SngBank::new(kind, values.len(), 91);
                let expected = bank.generate_bipolar(&values, len).unwrap();
                let mut batch = BatchSng::new(kind);
                assert_eq!(batch.kind(), kind);
                // Twice, to prove the shared scratch and recycled buffers
                // reproduce the same bits.
                let mut arena = crate::arena::StreamArena::new();
                for round in 0..2 {
                    let pooled = batch
                        .generate_bipolar_bank_with(91, &values, len, &mut arena)
                        .unwrap();
                    assert_eq!(pooled, expected, "{kind:?} bits={bits} round {round}");
                    arena.recycle_all(pooled);
                }
                assert_eq!(arena.stats().stream_allocs, values.len() as u64);
            }
        }
    }

    #[test]
    fn lane_sequence_rejects_other_lengths() {
        let lane = LaneSequence::new(5, StreamLength::new(256));
        let mut stream = BitStream::zeros(StreamLength::new(128));
        assert_eq!(
            lane.fill(0x8000, &mut stream),
            Err(ScError::LengthMismatch {
                left: 256,
                right: 128
            })
        );
    }

    #[test]
    fn selected_sequence_rejects_mismatched_operands() {
        let length = StreamLength::new(128);
        let seeds = [0, 1, 2];
        let plan = MuxSelectorPlan::new(3, 128, &mut Lfsr::new_32(9)).unwrap();
        assert_eq!(
            SelectedSequence::new(&seeds[..2], &plan).unwrap_err(),
            ScError::LengthMismatch { left: 3, right: 2 }
        );
        let selected = SelectedSequence::new(&seeds, &plan).unwrap();
        let mut stream = BitStream::zeros(length);
        assert!(selected.fill(&[0x8000; 2], &mut stream).is_err());
        let mut wrong = BitStream::zeros(StreamLength::new(64));
        assert!(selected.fill(&[0x8000; 3], &mut wrong).is_err());
        assert!(selected.fill(&[0x8000; 3], &mut stream).is_ok());
    }

    #[test]
    fn selected_sequence_refuses_lanes_past_its_sequences() {
        // A selector naming lane 3 of three sequences would make the AVX2
        // fill gather a threshold past the end of the slice.
        let length = StreamLength::new(64);
        let seeds = [0, 1, 2];
        let mut selected: Vec<u32> = (0..64).map(|t| t % 3).collect();
        assert!(SelectedSequence::gather(&seeds, length, selected.clone()).is_ok());
        selected[40] = 3;
        assert!(matches!(
            SelectedSequence::gather(&seeds, length, selected.clone()),
            Err(ScError::InvalidParameter { name: "lanes", .. })
        ));
        selected[40] = u32::MAX;
        assert!(SelectedSequence::gather(&seeds, length, selected).is_err());
        // A plan over more lanes than there are sequences is refused before
        // any lane is read.
        let plan = MuxSelectorPlan::new(4, 64, &mut Lfsr::new_32(3)).unwrap();
        assert_eq!(
            SelectedSequence::new(&seeds, &plan).unwrap_err(),
            ScError::LengthMismatch { left: 4, right: 3 }
        );
    }

    #[test]
    fn batch_sng_validates_inputs() {
        let mut batch = BatchSng::new(SngKind::Lfsr32);
        let mut arena = crate::arena::StreamArena::new();
        let len = StreamLength::new(64);
        assert!(batch
            .generate_bipolar_bank_with(1, &[], len, &mut arena)
            .is_err());
        // Out-of-range value mid-bank: taken buffers return to the arena.
        assert!(batch
            .generate_bipolar_bank_with(1, &[0.5, 2.0], len, &mut arena)
            .is_err());
        assert_eq!(arena.pooled(), arena.stats().stream_allocs as usize);
        let mut stream = BitStream::zeros(len);
        assert!(batch.fill_probability(1, f64::NAN, &mut stream).is_err());
        assert!(batch.fill_bipolar(1, -1.5, &mut stream).is_err());
    }

    #[test]
    fn arena_bank_generation_matches_allocating_bank() {
        let mut arena = crate::arena::StreamArena::new();
        let values = [0.25, -0.5, 0.75];
        let mut plain = SngBank::new(SngKind::Lfsr32, 3, 7);
        let mut pooled = SngBank::new(SngKind::Lfsr32, 3, 7);
        let expected = plain.generate_bipolar(&values, length()).unwrap();
        let streams = pooled
            .generate_bipolar_with(&values, length(), &mut arena)
            .unwrap();
        assert_eq!(streams, expected);
        arena.recycle_all(streams);
        // Second round reuses the recycled buffers and must still match.
        let expected = plain.generate_bipolar(&values, length()).unwrap();
        let streams = pooled
            .generate_bipolar_with(&values, length(), &mut arena)
            .unwrap();
        assert_eq!(streams, expected);
    }
}

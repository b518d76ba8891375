//! Stochastic number generators (SNGs).
//!
//! An SNG converts a binary-encoded probability into a stochastic bit-stream:
//! at every cycle the probability (as a fixed-point threshold) is compared
//! against a fresh pseudo-random value; the comparator output is the stream
//! bit. The randomness source and how it is shared across SNGs dominate both
//! the correlation error and the peripheral hardware cost, so the generator
//! kind is an explicit configuration knob throughout this reproduction.

use crate::add::MuxSelectorPlan;
use crate::bitstream::{BitStream, StreamLength};
use crate::csa::GROUP_WORDS;
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

/// Fills lane `i`'s stream of comparator threshold `thresholds[i]` from
/// `sequences[i]` for every lane, in one call on the active backend: word
/// `w` of lane `i` lands at `out[i · lane_stride + slot(w, group_stride)]`
/// (see [`slot`]). Every word of every lane's stream is written; words past
/// a stream's end are not touched.
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
    dispatch_word_kernel!(
        fill_lanes_impl,
        comparator_avx2::fill_lanes_avx2,
        (sequences, thresholds, out, lane_stride, group_stride)
    )
}

/// Word-generic body of [`fill_lanes`].
#[inline(always)]
fn fill_lanes_impl<W: Word>(
    sequences: &[LaneSequence],
    thresholds: &[u32],
    out: &mut [u64],
    lane_stride: usize,
    group_stride: usize,
) {
    for (lane, (sequence, &threshold)) in sequences.iter().zip(thresholds).enumerate() {
        let out = &mut out[lane * lane_stride..];
        let staged = staged_bits(sequence.length.bits()) / 64;
        compare_staged::<W>(&sequence.staged, threshold, out, group_stride, staged);
        if sequence.tail.is_empty() {
            continue;
        }
        // The serial tail is under 128 bits: at most two words.
        let mut tail = [0u64; 2];
        let mut samples = sequence.tail.iter();
        fill_words_with(
            || samples.next().map_or(0, |&sample| u32::from(sample)),
            threshold,
            &mut tail,
            sequence.tail.len(),
        );
        for (i, &word) in tail[..sequence.tail.len().div_ceil(64)].iter().enumerate() {
            out[slot(staged + i, group_stride)] = word;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod comparator_avx2 {
    use super::*;
    use crate::word::WAvx2;

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
        fill_lanes_impl::<WAvx2>(sequences, thresholds, out, lane_stride, group_stride)
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

/// The precomputed random sequence of one [`SngKind::Lfsr32`] lane, for
/// streams of one length.
///
/// A lane's comparator samples depend only on its seed, never on the value
/// being encoded, so they can be drawn once and every later stream of the
/// lane filled by the comparator alone — the hardware view of one fixed RNG
/// sequence per comparator group. The sequence is held the way the batched
/// fill consumes it: the staged bit-sequence of the register for the whole
/// words, and the serial threshold samples for the rest.
/// [`LaneSequence::fill`] is bit-exact with [`BatchSng::fill_probability`]
/// for the same lane seed and length.
#[derive(Debug, Clone)]
pub struct LaneSequence {
    /// Staged bit-sequence of the leading whole words, as
    /// [`Lfsr::w32_sequence_into`] lays it out (empty below 128 bits).
    staged: Vec<u8>,
    /// Threshold samples of the remaining bits, in stream order.
    tail: Vec<u16>,
    length: StreamLength,
}

impl LaneSequence {
    /// Draws the sequence of the lane seeded with `lane_seed` for streams of
    /// `length` bits.
    pub fn new(lane_seed: u64, length: StreamLength) -> Self {
        let mut lfsr = lfsr32_for_seed(lane_seed);
        let staged = staged_bits(length.bits());
        let mut seq = Vec::new();
        if staged > 0 {
            lfsr.w32_sequence_into(staged, &mut seq);
        }
        let tail = (staged..length.bits())
            .map(|_| (lfsr.step() & 0xFFFF) as u16)
            .collect();
        Self {
            staged: seq,
            tail,
            length,
        }
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

    /// The 16-bit comparator sample the lane draws at cycle `t`: the low
    /// half of the register state after `t + 1` steps, which in the staged
    /// buffer is the 16-bit window ending at buffer bit `t + 32`, most
    /// recent bit lowest (see [`Lfsr::w32_sequence_into`]).
    fn sample(&self, t: usize) -> u16 {
        let staged = staged_bits(self.length.bits());
        if t >= staged {
            return self.tail[t - staged];
        }
        let first = t + 17;
        let bytes = self.staged[first / 8..first / 8 + 4]
            .try_into()
            .expect("4 bytes");
        ((u32::from_le_bytes(bytes) >> (first % 8)) as u16).reverse_bits()
    }
}

/// The input sequence one MUX inner product sees: at every cycle, the lane
/// its selector forwards and that lane's comparator sample.
///
/// A MUX forwards one lane per cycle, so of the `N` input streams of a
/// field only the selected bit of each cycle ever reaches the output. With
/// the selector fixed (a [`MuxSelectorPlan`]) and every lane's random
/// sequence fixed (a [`LaneSequence`]), the selected input stream is a
/// single comparator pass, `bit t = sample[t] < threshold[lane[t]]`,
/// instead of `N` lane fills followed by a gather. [`SelectedSequence::fill`]
/// is bit-exact with [`MuxAdder::sum_with_plan`] over the
/// [`LaneSequence::fill`] streams of every lane.
///
/// [`MuxAdder::sum_with_plan`]: crate::add::MuxAdder::sum_with_plan
#[derive(Debug, Clone)]
pub struct SelectedSequence {
    /// The lane selected at each cycle.
    lanes: Vec<u32>,
    /// The selected lane's comparator sample at each cycle.
    samples: Vec<u16>,
    /// Number of input lanes the selector chooses between.
    inputs: usize,
    length: StreamLength,
}

impl SelectedSequence {
    /// Gathers the selected sequence of `plan` over the lanes' sequences.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::LengthMismatch`] unless there is one sequence per
    /// plan lane and every sequence has the plan's stream length.
    pub fn new(sequences: &[LaneSequence], plan: &MuxSelectorPlan) -> Result<Self, ScError> {
        if sequences.len() != plan.lanes() {
            return Err(ScError::LengthMismatch {
                left: plan.lanes(),
                right: sequences.len(),
            });
        }
        if let Some(sequence) = sequences
            .iter()
            .find(|sequence| sequence.length.bits() != plan.stream_bits())
        {
            return Err(ScError::LengthMismatch {
                left: plan.stream_bits(),
                right: sequence.length.bits(),
            });
        }
        Self::gather(sequences, plan.selected_lanes())
    }

    /// Gathers the samples of the lanes `lanes` selects, cycle by cycle.
    ///
    /// The AVX2 [`SelectedSequence::fill`] gathers thresholds by these lane
    /// indices without bounds checks, so a lane past the last sequence (or
    /// one that does not fit the gather's `i32` index) is refused here.
    fn gather(sequences: &[LaneSequence], lanes: Vec<u32>) -> Result<Self, ScError> {
        if let Some(&lane) = lanes
            .iter()
            .find(|&&lane| lane as usize >= sequences.len() || lane > i32::MAX as u32)
        {
            return Err(ScError::InvalidParameter {
                name: "lanes",
                message: format!(
                    "selected lane {lane} is outside the {} lane sequences",
                    sequences.len()
                ),
            });
        }
        let samples = lanes
            .iter()
            .enumerate()
            .map(|(t, &lane)| sequences[lane as usize].sample(t))
            .collect();
        Ok(Self {
            lanes,
            samples,
            inputs: sequences.len(),
            length: sequences[0].length,
        })
    }

    /// Fills `stream` with the selected input stream of a field whose lane
    /// `i` encodes comparator threshold `thresholds[i]` (see
    /// [`probability_threshold`]). Every word of `stream` is overwritten.
    ///
    /// Bit `t` is `samples[t] < thresholds[lanes[t]]`. The scalar loop is
    /// the reference and serves the `scalar` and `wide` backends; the AVX2
    /// backend does 8 cycles per step: one gather of the 8 selected
    /// thresholds, the 8 samples widened to 32 bits, one compare and one
    /// move-mask for 8 output bits. Both are bit-identical.
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
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            crate::word::Backend::Avx2 => {
                // SAFETY: `active_backend` reports AVX2 only after runtime
                // feature detection; `gather` refused every lane that does
                // not index the sequences, of which there are `inputs`, the
                // length of `thresholds` checked above.
                unsafe {
                    gather_avx2::selected_fill_avx2(&self.lanes, &self.samples, thresholds, words)
                }
            }
            _ => selected_fill_scalar(&self.lanes, &self.samples, thresholds, words),
        }
        Ok(())
    }
}

/// The reference selected-sequence fill: one comparator per cycle, packed
/// into the output words. Nothing in it is word-parallel, so it serves the
/// `scalar` and `wide` backends alike.
fn selected_fill_scalar(lanes: &[u32], samples: &[u16], thresholds: &[u32], words: &mut [u64]) {
    let cycles = lanes.chunks(64).zip(samples.chunks(64));
    for (word, (lanes, samples)) in words.iter_mut().zip(cycles) {
        let mut packed = 0u64;
        for (bit, (&lane, &sample)) in lanes.iter().zip(samples).enumerate() {
            packed |= u64::from(u32::from(sample) < thresholds[lane as usize]) << bit;
        }
        *word = packed;
    }
}

#[cfg(target_arch = "x86_64")]
mod gather_avx2 {
    use std::arch::x86_64::*;

    /// [`super::selected_fill_scalar`] 8 cycles at a time: gather the selected
    /// lanes' thresholds, widen the samples to 32 bits, compare, and pack
    /// the 8 results with one move-mask. Cycles past the last whole group
    /// of 8 in a word take the scalar comparator.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `lanes` and `samples` must be equally
    /// long, and every lane must index `thresholds` and fit an `i32`.
    /// [`super::SelectedSequence::gather`] refuses any other lane and
    /// [`super::SelectedSequence::fill`] checks `thresholds.len() ==
    /// inputs`, so its call upholds this.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn selected_fill_avx2(
        lanes: &[u32],
        samples: &[u16],
        thresholds: &[u32],
        words: &mut [u64],
    ) {
        debug_assert_eq!(lanes.len(), samples.len());
        // Samples are below 2^16, so a threshold above 2^16 compares like
        // 2^16; capping it keeps the signed 32-bit compare exact for every
        // `u32` threshold.
        let cap = _mm256_set1_epi32(1 << 16);
        let cycles = lanes.chunks(64).zip(samples.chunks(64));
        for (word, (lanes, samples)) in words.iter_mut().zip(cycles) {
            let groups = lanes.len() / 8;
            let mut packed = 0u64;
            for group in 0..groups {
                // SAFETY: `group * 8 + 8 <= lanes.len() == samples.len()`,
                // and every gathered index is a lane below
                // `thresholds.len()` (the function's precondition).
                unsafe {
                    let index = _mm256_loadu_si256(lanes.as_ptr().add(group * 8).cast());
                    let threshold = _mm256_min_epu32(
                        _mm256_i32gather_epi32::<4>(thresholds.as_ptr().cast(), index),
                        cap,
                    );
                    let sample = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                        samples.as_ptr().add(group * 8).cast(),
                    ));
                    let below = _mm256_cmpgt_epi32(threshold, sample);
                    let bits = _mm256_movemask_ps(_mm256_castsi256_ps(below)) as u32;
                    packed |= u64::from(bits) << (group * 8);
                }
            }
            for bit in groups * 8..lanes.len() {
                let threshold = thresholds[lanes[bit] as usize];
                packed |= u64::from(u32::from(samples[bit]) < threshold) << bit;
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
        let lanes: Vec<LaneSequence> = (0..3).map(|i| LaneSequence::new(i, length)).collect();
        let plan = MuxSelectorPlan::new(3, 128, &mut Lfsr::new_32(9)).unwrap();
        assert!(SelectedSequence::new(&lanes[..2], &plan).is_err());
        let short = [
            lanes[0].clone(),
            lanes[1].clone(),
            LaneSequence::new(2, StreamLength::new(64)),
        ];
        assert!(SelectedSequence::new(&short, &plan).is_err());
        let selected = SelectedSequence::new(&lanes, &plan).unwrap();
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
        let lanes: Vec<LaneSequence> = (0..3).map(|i| LaneSequence::new(i, length)).collect();
        let mut selected: Vec<u32> = (0..64).map(|t| t % 3).collect();
        assert!(SelectedSequence::gather(&lanes, selected.clone()).is_ok());
        selected[40] = 3;
        assert!(matches!(
            SelectedSequence::gather(&lanes, selected.clone()),
            Err(ScError::InvalidParameter { name: "lanes", .. })
        ));
        selected[40] = u32::MAX;
        assert!(SelectedSequence::gather(&lanes, selected).is_err());
        // A plan over more lanes than there are sequences is refused before
        // any lane is read.
        let plan = MuxSelectorPlan::new(4, 64, &mut Lfsr::new_32(3)).unwrap();
        assert_eq!(
            SelectedSequence::new(&lanes, &plan).unwrap_err(),
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

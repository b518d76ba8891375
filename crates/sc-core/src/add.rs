//! Stochastic addition.
//!
//! The paper studies four adder families for the summation stage of an
//! inner-product block:
//!
//! 1. [`OrAdder`] — a single OR gate per pair of streams. Cheapest hardware,
//!    but "1 OR 1 = 1" loses counts, so it is only usable with aggressively
//!    pre-scaled unipolar streams (Table 1).
//! 2. [`MuxAdder`] — an n-to-1 multiplexer with a uniformly random selector.
//!    Produces the *scaled* sum `(1/n)·Σ xᵢ`; accuracy improves with stream
//!    length (Table 2).
//! 3. [`Apc`] — an approximate parallel counter that counts the ones in each
//!    bit column and emits a binary count per cycle. Nearly exact (<1 %
//!    relative error, Table 3) at ~40 % lower gate cost than an exact counter.
//! 4. Two-line representation adder — see [`crate::twoline`].

use crate::bitstream::{BitStream, StreamLength};
use crate::csa::{
    product_column_counts, product_column_planes, CountPlanes, PackedLanes, PackedView,
};
use crate::error::ScError;
use crate::rng::RandomSource;
use crate::word::{dispatch_word_kernel, Word};
use serde::{Deserialize, Serialize};

/// Words per chunk of the plan's chunk-grouped wide replay entries. All
/// super-word backends have `LANES` dividing this, so a chunk replays in
/// `WIDE_CHUNK / LANES` full-width passes.
const WIDE_CHUNK: usize = 4;

/// OR-gate adder: bitwise OR over all input streams.
///
/// The result approximates the (unscaled) sum only when the probability of
/// two streams being one simultaneously is negligible, which requires heavy
/// pre-scaling of unipolar inputs. It is included as the paper's strawman.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrAdder;

impl OrAdder {
    /// Creates an OR-gate adder.
    pub fn new() -> Self {
        Self
    }

    /// ORs all input streams together.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn sum(&self, inputs: &[BitStream]) -> Result<BitStream, ScError> {
        let first = inputs.first().ok_or(ScError::EmptyInput)?;
        let mut acc = first.clone();
        for stream in &inputs[1..] {
            if stream.len() != acc.len() {
                return Err(ScError::LengthMismatch {
                    left: acc.len(),
                    right: stream.len(),
                });
            }
            acc |= stream;
        }
        Ok(acc)
    }
}

/// MUX adder: selects one input stream per cycle uniformly at random.
///
/// The output stream encodes `(1/n)·Σ xᵢ`; the down-scaling factor `1/n` is
/// inherent to the structure and must be compensated later (the paper folds
/// the scale-back into the activation function design).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxAdder;

impl MuxAdder {
    /// Creates a MUX adder.
    pub fn new() -> Self {
        Self
    }

    /// Sums the input streams, driving the selector from `selector_rng`.
    ///
    /// The selector consumes one raw [`RandomSource::next_u32`] sample per
    /// cycle (batched via [`RandomSource::fill_u32`]) and reduces it modulo
    /// the lane count — the trait's rejection-free default reduction.
    /// Sources that override [`RandomSource::next_below`] with a different
    /// reduction are not honored here.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn sum<R: RandomSource>(
        &self,
        inputs: &[BitStream],
        selector_rng: &mut R,
    ) -> Result<BitStream, ScError> {
        let first = inputs.first().ok_or(ScError::EmptyInput)?;
        let len = first.len();
        for stream in inputs {
            if stream.len() != len {
                return Err(ScError::LengthMismatch {
                    left: len,
                    right: stream.len(),
                });
            }
        }
        let mut out = BitStream::zeros(StreamLength::try_new(len)?);
        // One selector draw per cycle (same order as the per-bit reference),
        // drawn in batch and bit-sliced into per-lane selection masks so the
        // data movement is a handful of masked word ORs instead of 64
        // per-bit extract/insert pairs (see `SelectorSlicer`).
        let words: Vec<&[u64]> = inputs.iter().map(|s| s.as_words()).collect();
        let mut slicer = SelectorSlicer::new(inputs.len(), len, selector_rng);
        for (w, out_word) in out.words_mut().iter_mut().enumerate() {
            let bits = (len - w * 64).min(64);
            *out_word = slicer.select_word(w, bits, |lane| words[lane][w]);
        }
        Ok(out)
    }

    /// Fused multiply-select: sums the *element-wise XNOR products* of
    /// `inputs` and `weights` without materializing the product streams.
    ///
    /// Bit-exact with forming `inputs[i].xnor(&weights[i])` for every lane
    /// and then calling [`MuxAdder::sum`]: the selector is drawn once per
    /// cycle in the same order, and the forwarded bit is the product bit of
    /// the selected lane.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for empty slices and
    /// [`ScError::LengthMismatch`] for mismatched element counts or stream
    /// lengths.
    pub fn sum_products<R: RandomSource>(
        &self,
        inputs: &[BitStream],
        weights: &[BitStream],
        selector_rng: &mut R,
    ) -> Result<BitStream, ScError> {
        let len = common_product_length(inputs, weights)?;
        let mut out = BitStream::zeros(StreamLength::try_new(len)?);
        let xs: Vec<&[u64]> = inputs.iter().map(|s| s.as_words()).collect();
        let ws: Vec<&[u64]> = weights.iter().map(|s| s.as_words()).collect();
        let mut slicer = SelectorSlicer::new(inputs.len(), len, selector_rng);
        for (w, out_word) in out.words_mut().iter_mut().enumerate() {
            let bits = (len - w * 64).min(64);
            *out_word = slicer.select_word(w, bits, |lane| !(xs[lane][w] ^ ws[lane][w]));
        }
        Ok(out)
    }

    /// Sums the input streams replaying a pre-drawn [`MuxSelectorPlan`].
    ///
    /// Bit-exact with [`MuxAdder::sum`] driven by the RNG the plan was built
    /// from: the plan records exactly the per-cycle draws that call would
    /// make.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the lane count or stream length does
    /// not match the plan.
    pub fn sum_with_plan(
        &self,
        inputs: &[BitStream],
        plan: &MuxSelectorPlan,
    ) -> Result<BitStream, ScError> {
        let len = common_length(inputs)?;
        let mut out = BitStream::zeros(StreamLength::try_new(len)?);
        self.sum_with_plan_into(inputs, plan, &mut out)?;
        Ok(out)
    }

    /// [`MuxAdder::sum_with_plan`] writing into a caller-provided stream
    /// (typically taken from a [`crate::arena::StreamArena`]), so the fused layer path
    /// allocates no output buffer. Every word of `out` is overwritten.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MuxAdder::sum_with_plan`], plus
    /// [`ScError::LengthMismatch`] if `out` has the wrong length.
    pub fn sum_with_plan_into(
        &self,
        inputs: &[BitStream],
        plan: &MuxSelectorPlan,
        out: &mut BitStream,
    ) -> Result<(), ScError> {
        let len = common_length(inputs)?;
        plan.check_operands(inputs.len(), len)?;
        check_output_length(out, len)?;
        let words: Vec<&[u64]> = inputs.iter().map(|s| s.as_words()).collect();
        plan_sum_words(plan, &words, out.words_mut());
        Ok(())
    }

    /// The scale factor the MUX output must be multiplied by to recover the
    /// true sum (equal to the number of inputs).
    pub fn scale_factor(&self, input_count: usize) -> f64 {
        input_count as f64
    }
}

/// Exact strength-reduced modulo (Lemire's fastmod): `rem(x) == x % d` for
/// every 32-bit `x`, replacing the hardware divide in the selector hot loop
/// with two multiplies. The divide moves to construction, paid once per MUX
/// evaluation instead of once per cycle.
struct FastMod {
    d: u32,
    m: u64,
    /// `Some(d - 1)` when `d` is a power of two: the reduction is one AND.
    pow2_mask: Option<u32>,
}

impl FastMod {
    fn new(d: u32) -> Self {
        debug_assert!(d > 0, "modulus must be non-zero");
        Self {
            d,
            // For d == 1 this wraps to 0 and rem() correctly returns 0.
            m: (u64::MAX / u64::from(d)).wrapping_add(1),
            pow2_mask: d.is_power_of_two().then(|| d - 1),
        }
    }

    #[inline]
    fn rem(&self, x: u32) -> u32 {
        if let Some(mask) = self.pow2_mask {
            return x & mask;
        }
        let low = self.m.wrapping_mul(u64::from(x));
        ((u128::from(low) * u128::from(self.d)) >> 64) as u32
    }
}

/// Bit-sliced MUX selector.
///
/// Three changes over the selector-serial reference loop, none of which
/// alter a single output bit:
///
/// 1. the raw selector samples for the whole stream are drawn up front via
///    [`RandomSource::fill_u32`], which the default 32-bit LFSR services
///    through its staged GF(2) sequence recurrences — removing the
///    per-cycle serial register dependency that dominates the loop;
/// 2. the modulo reduction (`sample % lanes`, the trait's rejection-free
///    default) is strength-reduced to two multiplies (Lemire's exact
///    fastmod), paying the divide once per evaluation instead of per cycle;
/// 3. the 64 draws of an output word are sliced into per-lane selection
///    masks, assembling the word from masked ORs of whole lane words
///    instead of 64 per-bit extract/insert pairs.
///
/// The sample order is exactly the per-bit reference order, so the output
/// is bit-identical to the selector-serial loop it replaces.
struct SelectorSlicer {
    /// Raw selector samples, one per stream cycle.
    samples: Vec<u32>,
    /// Per-lane mask of the cycles (bits of the current word) that selected
    /// the lane. Only the entries listed in `touched` are non-zero (for the
    /// many-lane variant; the ≤64-lane variant scans all lanes instead).
    masks: Vec<u64>,
    /// Lanes with a non-zero mask for the current word (at most 64).
    touched: Vec<u32>,
    modulo: FastMod,
}

impl SelectorSlicer {
    fn new<R: RandomSource>(lanes: usize, stream_bits: usize, rng: &mut R) -> Self {
        let mut samples = vec![0u32; stream_bits];
        rng.fill_u32(&mut samples);
        Self {
            samples,
            masks: vec![0u64; lanes],
            touched: Vec::with_capacity(64),
            modulo: FastMod::new(lanes as u32),
        }
    }

    /// Consumes the `bits` selector samples of output word `word` (reference
    /// order) and returns the word whose bit `b` is bit `b` of
    /// `lane_word(selected_b)`.
    fn select_word(&mut self, word: usize, bits: usize, lane_word: impl Fn(usize) -> u64) -> u64 {
        let mut out = 0u64;
        self.slice_word(word, bits, |lane, mask| out |= lane_word(lane) & mask);
        out
    }

    /// Slices the `bits` selector samples of output word `word` into per-lane
    /// cycle masks and emits every non-zero `(lane, mask)` pair.
    fn slice_word(&mut self, word: usize, bits: usize, mut emit: impl FnMut(usize, u64)) {
        let samples = &self.samples[word * 64..word * 64 + bits];
        if self.masks.len() <= 64 {
            // Few lanes: branch-free slicing pass, then scan every lane.
            for (bit, &sample) in samples.iter().enumerate() {
                let lane = self.modulo.rem(sample) as usize;
                self.masks[lane] |= 1u64 << bit;
            }
            for lane in 0..self.masks.len() {
                let mask = self.masks[lane];
                if mask != 0 {
                    emit(lane, mask);
                    self.masks[lane] = 0;
                }
            }
        } else {
            // Many lanes: track the (at most 64) touched lanes so the
            // combine pass does not scan hundreds of idle ones.
            for (bit, &sample) in samples.iter().enumerate() {
                let lane = self.modulo.rem(sample) as usize;
                if self.masks[lane] == 0 {
                    self.touched.push(lane as u32);
                }
                self.masks[lane] |= 1u64 << bit;
            }
            for &lane in &self.touched {
                let lane = lane as usize;
                emit(lane, self.masks[lane]);
                self.masks[lane] = 0;
            }
            self.touched.clear();
        }
    }
}

/// Pre-drawn, reusable MUX selector masks for one stream length.
///
/// A layer of MUX inner-product blocks shares its selector wiring: every
/// output unit of the layer sees the *same* selector draws because the
/// selector LFSR is seeded per pool-window field, not per unit. A
/// [`MuxSelectorPlan`] runs the draw + fastmod + bit-slice pass once and
/// replays the resulting per-word `(lane, mask)` pairs against operand
/// words ([`MuxAdder::sum_with_plan`]). Replaying the plan is bit-identical
/// to re-drawing from an identically-seeded RNG, and constructing the plan
/// consumes exactly the draws [`MuxAdder::sum`] would (one per stream
/// cycle), leaving the RNG in the same state.
///
/// Because a MUX forwards one lane per cycle, selecting commutes with the
/// XNOR multiplier: `MUX(x ⊙ w) = MUX(x) ⊙ MUX(w)` under one plan. A layer
/// therefore gathers its inputs and each unit's weights once per field and
/// multiplies the two selected streams, instead of replaying the plan over
/// every lane product.
#[derive(Debug, Clone)]
pub struct MuxSelectorPlan {
    lanes: usize,
    stream_bits: usize,
    /// Flattened `(lane, cycle-mask)` pairs; `word_starts[w]..word_starts[w+1]`
    /// indexes the pairs of output word `w`.
    entries: Vec<(u32, u64)>,
    word_starts: Vec<u32>,
    /// The same masks regrouped for super-word replay: per chunk of
    /// [`WIDE_CHUNK`] consecutive output words, one entry per lane the chunk
    /// selects, carrying that lane's mask for each word of the chunk
    /// (`chunk_starts[c]..chunk_starts[c+1]` indexes chunk `c`). Words past
    /// the last full chunk replay through the flat `entries`.
    wide_entries: Vec<(u32, [u64; WIDE_CHUNK])>,
    chunk_starts: Vec<u32>,
}

impl MuxSelectorPlan {
    /// Draws the selector samples for a whole stream and slices them into
    /// per-word lane masks.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for a zero lane count and
    /// [`ScError::InvalidParameter`] for a zero stream length.
    pub fn new<R: RandomSource>(
        lanes: usize,
        stream_bits: usize,
        rng: &mut R,
    ) -> Result<Self, ScError> {
        if lanes == 0 {
            return Err(ScError::EmptyInput);
        }
        StreamLength::try_new(stream_bits)?;
        let mut slicer = SelectorSlicer::new(lanes, stream_bits, rng);
        let words = stream_bits.div_ceil(64);
        let mut entries = Vec::with_capacity(stream_bits.min(64 * words));
        let mut word_starts = Vec::with_capacity(words + 1);
        word_starts.push(0u32);
        for w in 0..words {
            let bits = (stream_bits - w * 64).min(64);
            slicer.slice_word(w, bits, |lane, mask| entries.push((lane as u32, mask)));
            word_starts.push(entries.len() as u32);
        }
        // Regroup the flat per-word entries by lane within each full chunk
        // of WIDE_CHUNK words, so the super-word replay loads one operand
        // super-word per touched lane per chunk instead of one word per
        // touched lane per word. A slot map keeps the grouping linear in the
        // entry count. Tail words (and word counts below one chunk) keep
        // replaying through the flat entries.
        let chunks = words / WIDE_CHUNK;
        let mut wide_entries: Vec<(u32, [u64; WIDE_CHUNK])> = Vec::new();
        let mut chunk_starts = Vec::with_capacity(chunks + 1);
        chunk_starts.push(0u32);
        let mut slots = vec![u32::MAX; lanes];
        for c in 0..chunks {
            let chunk_start = wide_entries.len();
            for j in 0..WIDE_CHUNK {
                let w = c * WIDE_CHUNK + j;
                let span = word_starts[w] as usize..word_starts[w + 1] as usize;
                for &(lane, mask) in &entries[span] {
                    let slot = &mut slots[lane as usize];
                    if *slot == u32::MAX {
                        *slot = wide_entries.len() as u32;
                        wide_entries.push((lane, [0u64; WIDE_CHUNK]));
                    }
                    wide_entries[*slot as usize].1[j] = mask;
                }
            }
            for &(lane, _) in &wide_entries[chunk_start..] {
                slots[lane as usize] = u32::MAX;
            }
            chunk_starts.push(wide_entries.len() as u32);
        }
        Ok(Self {
            lanes,
            stream_bits,
            entries,
            word_starts,
            wide_entries,
            chunk_starts,
        })
    }

    /// Number of MUX input lanes the plan selects between.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Stream length (in bits) the plan covers.
    pub fn stream_bits(&self) -> usize {
        self.stream_bits
    }

    /// Assembles output word `word` from `lane_word`, replaying the recorded
    /// masks.
    #[inline]
    fn select_word(&self, word: usize, lane_word: impl Fn(usize) -> u64) -> u64 {
        let start = self.word_starts[word] as usize;
        let end = self.word_starts[word + 1] as usize;
        let mut out = 0u64;
        for &(lane, mask) in &self.entries[start..end] {
            out |= lane_word(lane as usize) & mask;
        }
        out
    }

    /// The lane the selector forwards at each cycle, in stream order
    /// (`stream_bits` entries, each below [`MuxSelectorPlan::lanes`]).
    pub fn selected_lanes(&self) -> Vec<u32> {
        let mut selected = vec![0u32; self.stream_bits];
        for (w, span) in self.word_starts.windows(2).enumerate() {
            for &(lane, mask) in &self.entries[span[0] as usize..span[1] as usize] {
                let mut bits = mask;
                while bits != 0 {
                    selected[w * 64 + bits.trailing_zeros() as usize] = lane;
                    bits &= bits - 1;
                }
            }
        }
        selected
    }

    fn check_operands(&self, lanes: usize, len: usize) -> Result<(), ScError> {
        if lanes != self.lanes {
            return Err(ScError::LengthMismatch {
                left: self.lanes,
                right: lanes,
            });
        }
        if len != self.stream_bits {
            return Err(ScError::LengthMismatch {
                left: self.stream_bits,
                right: len,
            });
        }
        Ok(())
    }
}

/// [`MuxAdder::sum_with_plan_into`]'s word kernel, generic over the
/// super-word backend: full chunks replay through the chunk-grouped wide
/// entries (one operand super-word load per touched lane per chunk),
/// trailing words through the flat per-word entries. The scalar backend
/// (`LANES == 1`) takes the flat path for every word.
///
/// Bit-exact with the flat replay for any backend: each output bit is
/// selected from exactly one lane, so the masked ORs commute, and a lane's
/// chunk masks are the same bits its per-word masks carry.
#[inline(always)]
fn plan_sum_words_impl<W: Word>(plan: &MuxSelectorPlan, words: &[&[u64]], out: &mut [u64]) {
    let mut w = 0usize;
    if W::LANES > 1 {
        let chunks = plan.chunk_starts.len() - 1;
        for c in 0..chunks {
            let span = plan.chunk_starts[c] as usize..plan.chunk_starts[c + 1] as usize;
            let entries = &plan.wide_entries[span];
            let base = c * WIDE_CHUNK;
            let mut s = 0;
            while s < WIDE_CHUNK {
                let mut acc = W::zero();
                for &(lane, masks) in entries {
                    acc = acc
                        .or(W::load(&masks[s..]).and(W::load(&words[lane as usize][base + s..])));
                }
                acc.store(&mut out[base + s..base + s + W::LANES]);
                s += W::LANES;
            }
        }
        w = chunks * WIDE_CHUNK;
    }
    while w < out.len() {
        out[w] = plan.select_word(w, |lane| words[lane][w]);
        w += 1;
    }
}

fn plan_sum_words(plan: &MuxSelectorPlan, words: &[&[u64]], out: &mut [u64]) {
    dispatch_word_kernel!(
        plan_sum_words_impl,
        mux_avx2::plan_sum_avx2,
        (plan, words, out)
    )
}

/// Concrete AVX2 entry points: `#[target_feature]` wrappers over the
/// `#[inline(always)]` generic kernels, so the intrinsics inline into one
/// AVX2-compiled body per kernel (see [`crate::word`]).
#[cfg(target_arch = "x86_64")]
mod mux_avx2 {
    use super::*;
    use crate::word::WAvx2;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn plan_sum_avx2(plan: &MuxSelectorPlan, words: &[&[u64]], out: &mut [u64]) {
        plan_sum_words_impl::<WAvx2>(plan, words, out)
    }
}

/// A per-cycle binary count sequence produced by a parallel counter.
///
/// `counts[t]` is the number of ones seen across all input streams at cycle
/// `t`. The sequence carries its lane count so its (bipolar) numeric value
/// can be recovered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountStream {
    counts: Vec<u16>,
    lanes: usize,
}

impl CountStream {
    /// Creates a count stream from raw counts.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] if `counts` is empty and
    /// [`ScError::InvalidParameter`] if any count exceeds `lanes`.
    pub fn new(counts: Vec<u16>, lanes: usize) -> Result<Self, ScError> {
        if counts.is_empty() {
            return Err(ScError::EmptyInput);
        }
        if counts.iter().any(|&c| usize::from(c) > lanes) {
            return Err(ScError::InvalidParameter {
                name: "counts",
                message: format!("a count exceeded the lane count {lanes}"),
            });
        }
        Ok(Self { counts, lanes })
    }

    /// The per-cycle counts.
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }

    /// Consumes the stream and returns its count buffer, so it can be
    /// recycled into a [`crate::arena::StreamArena`] count pool.
    pub fn into_counts(self) -> Vec<u16> {
        self.counts
    }

    /// Number of input lanes the counts were taken over.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of cycles (bit-stream length).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the stream is empty (never true for constructed streams).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of ones accumulated over all cycles.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// The bipolar value of the *unscaled* sum `Σ xᵢwᵢ` the counts represent.
    ///
    /// With `n` lanes of bipolar products and stream length `m`, the sum of
    /// the represented values is `(2·total − n·m) / m`.
    pub fn bipolar_sum(&self) -> f64 {
        let m = self.counts.len() as f64;
        let n = self.lanes as f64;
        (2.0 * self.total() as f64 - n * m) / m
    }

    /// Merges several count streams by summing their per-cycle counts, as a
    /// binary adder tree does when four APC-based inner-product blocks feed
    /// one pooling block. The lane counts add up, so the merged stream still
    /// decodes correctly via [`CountStream::bipolar_sum`].
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] if `streams` is empty and
    /// [`ScError::LengthMismatch`] if lengths differ.
    pub fn merge_sum(streams: &[CountStream]) -> Result<CountStream, ScError> {
        let first = streams.first().ok_or(ScError::EmptyInput)?;
        let mut counts = vec![0u16; first.len()];
        for s in streams {
            if s.len() != counts.len() {
                return Err(ScError::LengthMismatch {
                    left: counts.len(),
                    right: s.len(),
                });
            }
            for (acc, &c) in counts.iter_mut().zip(s.counts.iter()) {
                *acc += c;
            }
        }
        CountStream::new(counts, streams.iter().map(|s| s.lanes).sum())
    }

    /// Element-wise average with integer truncation, modelling the binary
    /// divider used for average pooling after an APC (the paper notes the
    /// dropped fractional part as an extra information loss of APC-Avg).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] if `streams` is empty and
    /// [`ScError::LengthMismatch`] if lengths differ.
    pub fn truncating_average(streams: &[CountStream]) -> Result<CountStream, ScError> {
        let first = streams.first().ok_or(ScError::EmptyInput)?;
        let len = first.len();
        let lanes = first.lanes;
        for s in streams {
            if s.len() != len {
                return Err(ScError::LengthMismatch {
                    left: len,
                    right: s.len(),
                });
            }
        }
        let k = streams.len() as u32;
        let counts = (0..len)
            .map(|i| {
                let sum: u32 = streams.iter().map(|s| u32::from(s.counts[i])).sum();
                (sum / k) as u16
            })
            .collect();
        CountStream::new(counts, lanes)
    }
}

/// Exact (conventional accumulative) parallel counter.
///
/// Counts the ones in every bit column exactly. This is the baseline the
/// approximate parallel counter is compared against in Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactParallelCounter;

impl ExactParallelCounter {
    /// Creates an exact parallel counter.
    pub fn new() -> Self {
        Self
    }

    /// Counts ones per cycle across all input streams.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn count(&self, inputs: &[BitStream]) -> Result<CountStream, ScError> {
        let len = common_length(inputs)?;
        let mut counts = vec![0u16; len];
        for stream in inputs {
            accumulate_columns(stream.as_words(), &mut counts);
        }
        CountStream::new(counts, inputs.len())
    }

    /// Fused multiply-count: per-cycle column counts of the element-wise
    /// XNOR products of `inputs` and `weights`, without materializing the
    /// product streams. This is the inner-product hot kernel: one XOR, one
    /// NOT and a bit-unpack per 64 cycles per lane.
    ///
    /// Bit-exact with multiplying each lane via `xnor` and counting with
    /// [`ExactParallelCounter::count`].
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for empty slices and
    /// [`ScError::LengthMismatch`] for mismatched element counts or stream
    /// lengths.
    pub fn count_products(
        &self,
        inputs: &[BitStream],
        weights: &[BitStream],
    ) -> Result<CountStream, ScError> {
        CountStream::new(product_counts(inputs, weights)?, inputs.len())
    }
}

/// Adds each set bit of `words` into its column counter.
///
/// Words are visited sequentially and bits extracted with `trailing_zeros`,
/// so sparse streams cost proportional to their popcount, and no per-bit
/// bounds-checked `get` is involved.
fn accumulate_columns(words: &[u64], counts: &mut [u16]) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        let base = w * 64;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            counts[base + j] += 1;
            bits &= bits - 1;
        }
    }
}

/// Exact column counts of the XNOR products of one lane set through the
/// packed Harley-Seal core (see [`crate::csa`]): both operands are packed
/// into one-row matrices first.
fn product_counts(inputs: &[BitStream], weights: &[BitStream]) -> Result<Vec<u16>, ScError> {
    let len = common_product_length(inputs, weights)?;
    let mut counts = vec![vec![0u16; len]];
    product_column_counts(
        PackedLanes::pack([inputs])?.view(),
        PackedLanes::pack([weights])?.view(),
        &mut counts,
    )?;
    Ok(counts.pop().expect("one row"))
}

/// Validates a paired product operand set and returns the common length.
fn common_product_length(inputs: &[BitStream], weights: &[BitStream]) -> Result<usize, ScError> {
    if inputs.is_empty() || weights.is_empty() {
        return Err(ScError::EmptyInput);
    }
    if inputs.len() != weights.len() {
        return Err(ScError::LengthMismatch {
            left: inputs.len(),
            right: weights.len(),
        });
    }
    let len = common_length(inputs)?;
    for stream in weights {
        if stream.len() != len {
            return Err(ScError::LengthMismatch {
                left: len,
                right: stream.len(),
            });
        }
    }
    Ok(len)
}

/// Approximate parallel counter (APC), after Kim et al. (ISOCC'15).
///
/// The approximate counter saves ~40 % of the gate count by not resolving the
/// least-significant bit of the column count exactly (in the paper's Fig. 7
/// the output LSB carries weight 2¹ rather than 2⁰). This model reproduces
/// that behaviour by truncating the exact count to an even value and
/// substituting a toggling dither bit for the dropped LSB, which keeps the
/// approximation unbiased over time. Per cycle the count is off by at most
/// one; accumulated over a stream the deviation from the exact counter is the
/// sub-1 % relative error reported in Table 3, shrinking as the input size
/// grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Apc;

impl Apc {
    /// Creates an approximate parallel counter.
    pub fn new() -> Self {
        Self
    }

    /// Counts ones per cycle, with the approximate least-significant bit.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn count(&self, inputs: &[BitStream]) -> Result<CountStream, ScError> {
        let len = common_length(inputs)?;
        let mut counts = vec![0u16; len];
        for stream in inputs {
            accumulate_columns(stream.as_words(), &mut counts);
        }
        apply_apc_lsb(&mut counts, inputs.len());
        CountStream::new(counts, inputs.len())
    }

    /// Fused multiply-count with the approximate LSB: APC column counts of
    /// the element-wise XNOR products without materializing them.
    ///
    /// Bit-exact with multiplying each lane via `xnor` and counting with
    /// [`Apc::count`].
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for empty slices and
    /// [`ScError::LengthMismatch`] for mismatched element counts or stream
    /// lengths.
    pub fn count_products(
        &self,
        inputs: &[BitStream],
        weights: &[BitStream],
    ) -> Result<CountStream, ScError> {
        let mut counts = product_counts(inputs, weights)?;
        apply_apc_lsb(&mut counts, inputs.len());
        CountStream::new(counts, inputs.len())
    }

    /// Layer-fused multiply-count in bit-plane form: the APC column counts
    /// of the one-row `inputs` against every row of `weights`, written as
    /// rows `first_row ..` of the block `out` (a layer position's block
    /// holds every field's rows, `[field][row]`; take it from an arena with
    /// [`crate::arena::StreamArena::take_planes`]). Drained, row `first_row + u` is
    /// bit-exact with [`Apc::count_products`] on the unpacked lanes of unit
    /// `u`.
    ///
    /// This is the APC kernel of a whole SC layer position: all
    /// inner-product blocks share their input streams and differ only in
    /// the filter driving their weights, and each unit's packed weights are
    /// read once, front to back (see [`crate::csa`]). The core's store
    /// writes the approximate LSB into the ones plane and every word of the
    /// rows, so a pooling block can take the rows as planes and drain only
    /// its pooled rows.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `inputs` has one row,
    /// the lane counts of `inputs`, `weights` and `out` agree and `out`
    /// holds the rows, and [`ScError::LengthMismatch`] for different stream
    /// lengths.
    pub fn count_planes_into(
        &self,
        inputs: PackedView<'_>,
        weights: PackedView<'_>,
        out: &mut CountPlanes,
        first_row: usize,
    ) -> Result<(), ScError> {
        product_column_planes(inputs, weights, true, out, first_row)
    }

    /// Gate-count reduction relative to the exact accumulative parallel
    /// counter, as reported by the APC reference the paper cites.
    pub fn gate_saving_ratio(&self) -> f64 {
        0.40
    }
}

/// Replaces exact column counts with the APC approximation: the LSB is
/// dropped and a toggling dither bit substituted (see [`Apc`]). Single-lane
/// counters stay exact. The per-call reference of the plane rewrite the
/// layer-fused kernels apply ([`Apc::count_planes_into`]).
fn apply_apc_lsb(counts: &mut [u16], lanes: usize) {
    if lanes < 2 {
        return;
    }
    let cap = lanes as u16;
    for (i, count) in counts.iter_mut().enumerate() {
        let dither = (i & 1) as u16;
        *count = ((*count & !1) + dither).min(cap);
    }
}

/// Validates a caller-provided output stream against the operand length.
fn check_output_length(out: &BitStream, len: usize) -> Result<(), ScError> {
    if out.len() != len {
        return Err(ScError::LengthMismatch {
            left: len,
            right: out.len(),
        });
    }
    Ok(())
}

fn common_length(inputs: &[BitStream]) -> Result<usize, ScError> {
    let first = inputs.first().ok_or(ScError::EmptyInput)?;
    let len = first.len();
    for stream in inputs {
        if stream.len() != len {
            return Err(ScError::LengthMismatch {
                left: len,
                right: stream.len(),
            });
        }
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::StreamArena;
    use crate::rng::Lfsr;
    use crate::sng::{Sng, SngKind};

    fn streams_for(values: &[f64], len: usize, seed: u64) -> Vec<BitStream> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Sng::new(SngKind::Lfsr32, seed + i as u64 * 77)
                    .generate_bipolar(v, StreamLength::new(len))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn or_adder_paper_example() {
        // 3/8 + 4/8 via "00100101 OR 11001010" = 7/8.
        let a = BitStream::from_binary_str("00100101").unwrap();
        let b = BitStream::from_binary_str("11001010").unwrap();
        let sum = OrAdder::new().sum(&[a, b]).unwrap();
        assert_eq!(sum.count_ones(), 7);
    }

    #[test]
    fn or_adder_alternate_representation_loses_counts() {
        // The paper's second example: "10011000 OR 11001010" = 5/8 instead of 7/8.
        let a = BitStream::from_binary_str("10011000").unwrap();
        let b = BitStream::from_binary_str("11001010").unwrap();
        let sum = OrAdder::new().sum(&[a, b]).unwrap();
        assert_eq!(sum.count_ones(), 5);
    }

    #[test]
    fn or_adder_validates_inputs() {
        assert_eq!(OrAdder::new().sum(&[]), Err(ScError::EmptyInput));
        let a = BitStream::from_binary_str("10").unwrap();
        let b = BitStream::from_binary_str("100").unwrap();
        assert!(OrAdder::new().sum(&[a, b]).is_err());
    }

    #[test]
    fn mux_adder_produces_scaled_sum() {
        let values = [0.5, -0.25, 0.75, 0.0];
        let inputs = streams_for(&values, 8192, 10);
        let mut selector = Lfsr::new_32(1234);
        let out = MuxAdder::new().sum(&inputs, &mut selector).unwrap();
        let expected = values.iter().sum::<f64>() / values.len() as f64;
        assert!((out.bipolar_value() - expected).abs() < 0.05);
        assert_eq!(MuxAdder::new().scale_factor(values.len()), 4.0);
    }

    #[test]
    fn mux_adder_validates_inputs() {
        let mut selector = Lfsr::new_32(1);
        assert_eq!(
            MuxAdder::new().sum(&[], &mut selector),
            Err(ScError::EmptyInput)
        );
    }

    #[test]
    fn exact_counter_counts_columns() {
        let a = BitStream::from_binary_str("1100").unwrap();
        let b = BitStream::from_binary_str("1010").unwrap();
        let c = BitStream::from_binary_str("1111").unwrap();
        let counts = ExactParallelCounter::new().count(&[a, b, c]).unwrap();
        assert_eq!(counts.counts(), &[3, 2, 2, 1]);
        assert_eq!(counts.total(), 8);
        assert_eq!(counts.lanes(), 3);
    }

    #[test]
    fn apc_tracks_exact_with_small_relative_error() {
        let values = [0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.1, -0.1];
        let inputs = streams_for(&values, 1024, 3);
        let exact = ExactParallelCounter::new().count(&inputs).unwrap();
        let approx = Apc::new().count(&inputs).unwrap();
        let relative = (exact.total() as f64 - approx.total() as f64).abs() / exact.total() as f64;
        assert!(relative < 0.02, "APC deviates {relative} from exact");
        // Per-cycle deviation is bounded by the dropped LSB.
        for (a, e) in approx.counts().iter().zip(exact.counts().iter()) {
            assert!((i32::from(*a) - i32::from(*e)).abs() <= 1);
        }
    }

    #[test]
    fn apc_single_input_is_exact() {
        let a = BitStream::from_binary_str("1011").unwrap();
        let counts = Apc::new().count(&[a]).unwrap();
        assert_eq!(counts.counts(), &[1, 0, 1, 1]);
    }

    #[test]
    fn count_stream_bipolar_sum_matches_reference() {
        let values = [0.5, -0.25, 0.75, 0.0, -0.5, 0.25, 0.1, -0.1];
        let inputs = streams_for(&values, 8192, 21);
        let counts = ExactParallelCounter::new().count(&inputs).unwrap();
        let expected: f64 = values.iter().sum();
        assert!((counts.bipolar_sum() - expected).abs() < 0.15);
    }

    #[test]
    fn fused_count_products_matches_materialized_pipeline() {
        use crate::multiply;
        for len in [100usize, 127, 512] {
            let xs = streams_for(&[0.5, -0.25, 0.75, 0.0, -0.6], len, 5);
            let ws = streams_for(&[-0.5, 0.25, 0.1, 0.9, 0.3], len, 900);
            let products = multiply::bipolar_products(&xs, &ws).unwrap();
            let exact_fused = ExactParallelCounter::new()
                .count_products(&xs, &ws)
                .unwrap();
            let exact_naive = ExactParallelCounter::new().count(&products).unwrap();
            assert_eq!(
                exact_fused, exact_naive,
                "exact counter mismatch at len {len}"
            );
            let apc_fused = Apc::new().count_products(&xs, &ws).unwrap();
            let apc_naive = Apc::new().count(&products).unwrap();
            assert_eq!(apc_fused, apc_naive, "APC mismatch at len {len}");
        }
    }

    #[test]
    fn fused_mux_products_match_materialized_pipeline() {
        use crate::multiply;
        for len in [100usize, 127, 1024] {
            let xs = streams_for(&[0.5, -0.25, 0.75, 0.0], len, 11);
            let ws = streams_for(&[-0.5, 0.25, 0.1, 0.9], len, 1200);
            let products = multiply::bipolar_products(&xs, &ws).unwrap();
            let mut selector_a = Lfsr::new_32(33);
            let mut selector_b = Lfsr::new_32(33);
            let naive = MuxAdder::new().sum(&products, &mut selector_a).unwrap();
            let fused = MuxAdder::new()
                .sum_products(&xs, &ws, &mut selector_b)
                .unwrap();
            assert_eq!(fused, naive, "MUX mismatch at len {len}");
        }
    }

    /// Frozen selector-serial reference of the MUX sum (the pre-bit-slicing
    /// implementation), kept to pin the `SelectorSlicer` output bit-for-bit.
    fn mux_sum_selector_serial<R: crate::rng::RandomSource>(
        inputs: &[BitStream],
        selector_rng: &mut R,
    ) -> BitStream {
        let len = inputs[0].len();
        let n = inputs.len() as u32;
        let mut out = BitStream::zeros(StreamLength::new(len));
        let words: Vec<&[u64]> = inputs.iter().map(|s| s.as_words()).collect();
        for (w, out_word) in out.words_mut().iter_mut().enumerate() {
            let bits = (len - w * 64).min(64);
            let mut packed = 0u64;
            for bit in 0..bits {
                let selected = selector_rng.next_below(n) as usize;
                packed |= ((words[selected][w] >> bit) & 1) << bit;
            }
            *out_word = packed;
        }
        out
    }

    #[test]
    fn fastmod_is_exact_for_all_divisors_of_interest() {
        for d in [1u32, 2, 3, 4, 5, 7, 16, 25, 63, 64, 65, 200, 800, u32::MAX] {
            let fm = FastMod::new(d);
            for x in [
                0u32,
                1,
                d.saturating_sub(1),
                d,
                d.saturating_add(1),
                12345,
                0x8000_0000,
                u32::MAX,
            ] {
                assert_eq!(fm.rem(x), x % d, "fastmod({x}, {d})");
            }
            // A pseudo-random sweep.
            let mut lfsr = Lfsr::new_32(d ^ 0xBEEF);
            for _ in 0..2000 {
                let x = lfsr.step();
                assert_eq!(fm.rem(x), x % d, "fastmod({x}, {d})");
            }
        }
    }

    #[test]
    fn bit_sliced_selector_matches_serial_reference() {
        for (lanes, len) in [(2usize, 64usize), (4, 100), (25, 127), (80, 1024)] {
            let values: Vec<f64> = (0..lanes)
                .map(|i| (i as f64 / lanes as f64) - 0.5)
                .collect();
            let inputs = streams_for(&values, len, 7 + lanes as u64);
            let mut serial_rng = Lfsr::new_32(99);
            let mut sliced_rng = Lfsr::new_32(99);
            let serial = mux_sum_selector_serial(&inputs, &mut serial_rng);
            let sliced = MuxAdder::new().sum(&inputs, &mut sliced_rng).unwrap();
            assert_eq!(sliced, serial, "lanes {lanes} len {len}");
            // The RNG must be left in the same state (same number of draws).
            assert_eq!(serial_rng.state(), sliced_rng.state());
        }
    }

    #[test]
    fn selector_plan_replays_identically_to_direct_draws() {
        for (lanes, len) in [(2usize, 64usize), (4, 100), (25, 127), (80, 1024)] {
            let values: Vec<f64> = (0..lanes)
                .map(|i| (i as f64 / lanes as f64) - 0.5)
                .collect();
            let xs = streams_for(&values, len, 7 + lanes as u64);
            let ws = streams_for(&values, len, 5000 + lanes as u64);
            let mut direct_rng = Lfsr::new_32(777);
            let mut plan_rng = Lfsr::new_32(777);
            let plan = MuxSelectorPlan::new(lanes, len, &mut plan_rng).unwrap();
            // Plan construction consumes exactly the draws the direct path
            // would, leaving the RNG in the same state.
            let direct_sum = MuxAdder::new().sum(&xs, &mut direct_rng).unwrap();
            assert_eq!(direct_rng.state(), plan_rng.state());
            assert_eq!(
                MuxAdder::new().sum_with_plan(&xs, &plan).unwrap(),
                direct_sum,
                "sum mismatch at lanes {lanes} len {len}"
            );
            // The gather identity: selecting commutes with the XNOR
            // multiplier, so multiplying the two selected streams is the
            // MUX sum of the lane products.
            let mut direct_rng = Lfsr::new_32(777);
            let direct_products = MuxAdder::new()
                .sum_products(&xs, &ws, &mut direct_rng)
                .unwrap();
            let gathered_xs = MuxAdder::new().sum_with_plan(&xs, &plan).unwrap();
            let gathered_ws = MuxAdder::new().sum_with_plan(&ws, &plan).unwrap();
            assert_eq!(
                gathered_xs.xnor(&gathered_ws),
                direct_products,
                "product mismatch at lanes {lanes} len {len}"
            );
            // The plan is reusable: a second replay gives the same bits.
            assert_eq!(
                MuxAdder::new().sum_with_plan(&xs, &plan).unwrap(),
                gathered_xs
            );
            // The per-cycle lanes are the serial selector draws.
            let mut serial_rng = Lfsr::new_32(777);
            let serial: Vec<u32> = (0..len)
                .map(|_| serial_rng.next_below(lanes as u32))
                .collect();
            assert_eq!(plan.selected_lanes(), serial, "lanes {lanes} len {len}");
        }
    }

    #[test]
    fn selector_plan_validates_operands() {
        let mut rng = Lfsr::new_32(1);
        assert!(MuxSelectorPlan::new(0, 64, &mut rng).is_err());
        assert!(MuxSelectorPlan::new(4, 0, &mut rng).is_err());
        let plan = MuxSelectorPlan::new(2, 64, &mut rng).unwrap();
        assert_eq!((plan.lanes(), plan.stream_bits()), (2, 64));
        let xs = streams_for(&[0.5, -0.5, 0.25], 64, 3);
        // Wrong lane count.
        assert!(MuxAdder::new().sum_with_plan(&xs, &plan).is_err());
        // Wrong stream length.
        let short = streams_for(&[0.5, -0.5], 32, 3);
        assert!(MuxAdder::new().sum_with_plan(&short, &plan).is_err());
        assert!(MuxAdder::new().sum_with_plan(&[], &plan).is_err());
        // Every cycle selects one of the plan's lanes.
        let selected = plan.selected_lanes();
        assert_eq!(selected.len(), 64);
        assert!(selected.iter().all(|&lane| lane < 2));
    }

    /// Packs one input field and the weights of `units` units.
    fn packed_operands(xs: &[BitStream], unit_ws: &[Vec<BitStream>]) -> (PackedLanes, PackedLanes) {
        (
            PackedLanes::pack([xs]).unwrap(),
            PackedLanes::pack(unit_ws.iter().map(Vec::as_slice)).unwrap(),
        )
    }

    /// Every unit's APC counts as a pooling block reads them: the block
    /// of [`Apc::count_planes_into`] (taken from `arena`, so a reused one
    /// holds stale words), each row drained into a count buffer from
    /// `arena`.
    fn drained_counts(
        x: PackedView<'_>,
        w: PackedView<'_>,
        arena: &mut StreamArena,
    ) -> Vec<CountStream> {
        let mut block = arena.take_planes(x.lanes(), x.length(), w.rows()).unwrap();
        Apc::new().count_planes_into(x, w, &mut block, 0).unwrap();
        let counts = (0..w.rows())
            .map(|row| {
                let mut counts = arena.take_counts(x.length().bits());
                block.drain_row_into(row, &mut counts).unwrap();
                CountStream::new(counts, x.lanes()).unwrap()
            })
            .collect();
        arena.recycle_planes(block);
        counts
    }

    #[test]
    fn shared_count_products_matches_per_unit_kernel() {
        for len in [100usize, 127, 512] {
            let xs = streams_for(&[0.5, -0.25, 0.75, 0.0, -0.6], len, 5);
            let unit_ws: Vec<Vec<BitStream>> = (0..3)
                .map(|u| streams_for(&[-0.5, 0.25, 0.1, 0.9, 0.3], len, 900 + u * 31))
                .collect();
            let (x, w) = packed_operands(&xs, &unit_ws);
            let shared = drained_counts(x.view(), w.view(), &mut StreamArena::new());
            assert_eq!(shared.len(), 3);
            for (unit, counts) in shared.iter().enumerate() {
                let per_unit = Apc::new().count_products(&xs, &unit_ws[unit]).unwrap();
                assert_eq!(counts, &per_unit, "unit {unit} at len {len}");
            }
        }
    }

    /// Naive per-bit column-count reference: one bounds-checked `get` per
    /// lane per cycle, no word tricks at all.
    fn per_bit_product_counts(inputs: &[BitStream], weights: &[BitStream]) -> Vec<u16> {
        let len = inputs[0].len();
        (0..len)
            .map(|t| {
                inputs
                    .iter()
                    .zip(weights.iter())
                    .filter(|(x, w)| x.get(t) == w.get(t))
                    .count() as u16
            })
            .collect()
    }

    #[test]
    fn csa_shared_counts_match_per_bit_reference_across_sizes() {
        // The satellite coverage matrix: lane counts exercising every CSA
        // shape (single lane, exact triples, triple + remainder, many
        // planes) times stream lengths exercising word tails (including the
        // non-word-multiple 100/127 and the paper's longest 8191).
        for &lanes in &[1usize, 3, 7, 32, 33, 100] {
            for &len in &[64usize, 100, 127, 1024, 8191] {
                let values: Vec<f64> = (0..lanes)
                    .map(|i| (i as f64 / lanes as f64) - 0.5)
                    .collect();
                let xs = streams_for(&values, len, 5 + lanes as u64);
                let unit_ws: Vec<Vec<BitStream>> = (0..2)
                    .map(|u| streams_for(&values, len, 7000 + u * 131 + lanes as u64))
                    .collect();
                // Exact counts: packed core vs the naive reference.
                let shared = ExactParallelCounter::new();
                let (x, w) = packed_operands(&xs, &unit_ws);
                let apc_shared = drained_counts(x.view(), w.view(), &mut StreamArena::new());
                for (unit, ws) in unit_ws.iter().enumerate() {
                    let naive = per_bit_product_counts(&xs, ws);
                    let exact = shared.count_products(&xs, ws).unwrap();
                    assert_eq!(
                        exact.counts(),
                        naive.as_slice(),
                        "exact kernel vs per-bit at lanes {lanes} len {len}"
                    );
                    // The approximate-APC truncation applied to the naive
                    // reference must reproduce the packed kernel.
                    let mut approx = naive.clone();
                    apply_apc_lsb(&mut approx, lanes);
                    assert_eq!(
                        apc_shared[unit].counts(),
                        approx.as_slice(),
                        "packed kernel vs truncated per-bit reference \
                         at lanes {lanes} len {len} unit {unit}"
                    );
                }
            }
        }
    }

    #[test]
    fn arena_backed_shared_counts_match_and_recycle() {
        let xs = streams_for(&[0.5, -0.25, 0.75, 0.0, -0.6], 127, 5);
        let unit_ws: Vec<Vec<BitStream>> = (0..3)
            .map(|u| streams_for(&[-0.5, 0.25, 0.1, 0.9, 0.3], 127, 900 + u * 31))
            .collect();
        let plain: Vec<CountStream> = unit_ws
            .iter()
            .map(|ws| Apc::new().count_products(&xs, ws).unwrap())
            .collect();
        let (x, w) = packed_operands(&xs, &unit_ws);
        let mut arena = StreamArena::new();
        for round in 0..3 {
            let pooled = drained_counts(x.view(), w.view(), &mut arena);
            assert_eq!(pooled, plain, "round {round}");
            for counts in pooled {
                arena.recycle_counts(counts.into_counts());
            }
        }
        let stats = arena.stats();
        // Round one allocates three buffers; later rounds reuse them.
        assert_eq!(stats.count_allocs, 3);
        assert_eq!(stats.count_reuses, 6);
        // A one-unit view of the same weights counts that unit alone.
        let one = drained_counts(x.view(), w.view_rows(2..3), &mut arena);
        assert_eq!(one, plain[2..]);
    }

    #[test]
    fn merge_sum_with_matches_allocating_merge() {
        // The plane domain's adder tree (`CountPlanes::merge_sum_with`)
        // against the count domain's, and its shape checks.
        let a = CountStream::new(vec![2, 3, 1], 4).unwrap();
        let b = CountStream::new(vec![3, 4, 0], 4).unwrap();
        let mut arena = StreamArena::new();
        let merged = CountStream::merge_sum(&[a.clone(), b.clone()]).unwrap();
        // Two fields of one row each.
        let planes = CountPlanes::from_counts(&[a, b]);
        let pooled = planes.merge_sum_with(2, &mut arena).unwrap();
        assert_eq!((pooled.lanes(), pooled.rows()), (8, 1));
        let mut counts = vec![0u16; 3];
        pooled.drain_row_into(0, &mut counts).unwrap();
        assert_eq!(counts, merged.counts());
        // One field is that field.
        assert_eq!(planes.merge_sum_with(1, &mut arena).unwrap(), planes);
        // A window that does not divide the rows, or lanes past `u16`.
        assert!(planes.merge_sum_with(0, &mut arena).is_err());
        assert!(planes.merge_sum_with(3, &mut arena).is_err());
        let wide = CountPlanes::zeroed(u16::MAX as usize, StreamLength::new(3), 2).unwrap();
        assert!(wide.merge_sum_with(2, &mut arena).is_err());
    }

    #[test]
    fn plan_into_kernels_match_allocating_kernels() {
        let lanes = 5usize;
        let len = 127usize;
        let values: Vec<f64> = (0..lanes)
            .map(|i| (i as f64 / lanes as f64) - 0.4)
            .collect();
        let xs = streams_for(&values, len, 31);
        let ws = streams_for(&values, len, 5100);
        let mut rng = Lfsr::new_32(555);
        let plan = MuxSelectorPlan::new(lanes, len, &mut rng).unwrap();
        let mut arena = StreamArena::new();
        // Dirty the pooled buffer first to prove `_into` fully overwrites.
        let mut dirty = arena.take_zeroed(StreamLength::new(len));
        for i in 0..len {
            dirty.set(i, true);
        }
        arena.recycle(dirty);

        let mut out = arena.take_zeroed(StreamLength::new(len));
        MuxAdder::new()
            .sum_with_plan_into(&xs, &plan, &mut out)
            .unwrap();
        assert_eq!(out, MuxAdder::new().sum_with_plan(&xs, &plan).unwrap());
        arena.recycle(out);

        // The gather identity through reused (dirty) buffers: the XNOR of
        // the selected input and weight streams is the fused MUX product.
        let mut dirty = arena.take_zeroed(StreamLength::new(len));
        for i in 0..len {
            dirty.set(i, true);
        }
        arena.recycle(dirty);
        let mut gathered_xs = arena.take_zeroed(StreamLength::new(len));
        let mut gathered_ws = arena.take_zeroed(StreamLength::new(len));
        MuxAdder::new()
            .sum_with_plan_into(&xs, &plan, &mut gathered_xs)
            .unwrap();
        MuxAdder::new()
            .sum_with_plan_into(&ws, &plan, &mut gathered_ws)
            .unwrap();
        gathered_xs.xnor_assign(&gathered_ws);
        let mut rng = Lfsr::new_32(555);
        assert_eq!(
            gathered_xs,
            MuxAdder::new().sum_products(&xs, &ws, &mut rng).unwrap()
        );

        // Wrong output length is rejected.
        let mut short = BitStream::zeros(StreamLength::new(64));
        assert!(MuxAdder::new()
            .sum_with_plan_into(&xs, &plan, &mut short)
            .is_err());
        assert!(MuxAdder::new()
            .sum_with_plan_into(&ws, &plan, &mut short)
            .is_err());
    }

    /// Every super-word backend must replay a selector plan bit-for-bit
    /// like the scalar (flat per-word) path, and the XNOR of its gathered
    /// inputs and weights must be the fused MUX product, across ragged
    /// lengths and lane counts.
    #[test]
    fn plan_replay_bit_exact_across_backends() {
        fn check<W: Word>(backend: &str) {
            for &(lanes, len) in &[
                (1usize, 100usize),
                (3, 127),
                (7, 1024),
                (32, 8191),
                (33, 320),
                (100, 257),
            ] {
                let values: Vec<f64> = (0..lanes)
                    .map(|i| (i as f64 / lanes as f64) - 0.5)
                    .collect();
                let xs = streams_for(&values, len, 31 + lanes as u64);
                let ws = streams_for(&values, len, 9100 + lanes as u64);
                let mut rng = Lfsr::new_32(4242 + lanes as u32);
                let plan = MuxSelectorPlan::new(lanes, len, &mut rng).unwrap();
                let xw: Vec<&[u64]> = xs.iter().map(|s| s.as_words()).collect();
                let ww: Vec<&[u64]> = ws.iter().map(|s| s.as_words()).collect();
                let words = len.div_ceil(64);
                let mut reference = vec![0u64; words];
                let mut got = vec![u64::MAX; words];
                plan_sum_words_impl::<u64>(&plan, &xw, &mut reference);
                plan_sum_words_impl::<W>(&plan, &xw, &mut got);
                assert_eq!(got, reference, "{backend} sum lanes {lanes} len {len}");
                let mut gathered_ws = vec![u64::MAX; words];
                plan_sum_words_impl::<W>(&plan, &ww, &mut gathered_ws);
                let products = BitStream::from_raw_words(
                    got.iter()
                        .zip(&gathered_ws)
                        .map(|(x, w)| !(x ^ w))
                        .collect(),
                    len,
                );
                let mut rng = Lfsr::new_32(4242 + lanes as u32);
                assert_eq!(
                    products,
                    MuxAdder::new().sum_products(&xs, &ws, &mut rng).unwrap(),
                    "{backend} products lanes {lanes} len {len}"
                );
            }
        }
        check::<crate::word::W4>("wide");
        #[cfg(target_arch = "x86_64")]
        if crate::word::Backend::Avx2.is_available() {
            check::<crate::word::WAvx2>("avx2");
        }
    }

    /// The dispatched product-count entry points (per-unit and packed
    /// multi-unit) must serve identical counts under every backend; the
    /// core's per-bit-reference tests in [`crate::csa`] anchor them to
    /// ground truth.
    #[test]
    fn product_columns_bit_exact_across_backends() {
        let counts_under = |backend: crate::word::Backend| {
            assert!(crate::word::force_backend(backend));
            let mut all = Vec::new();
            for &lanes in &[1usize, 3, 7, 32, 33, 100] {
                for &len in &[100usize, 127, 1024, 8191] {
                    let values: Vec<f64> = (0..lanes)
                        .map(|i| (i as f64 / lanes as f64) - 0.5)
                        .collect();
                    let xs = streams_for(&values, len, 5 + lanes as u64);
                    let unit_ws: Vec<Vec<BitStream>> = (0..2)
                        .map(|u| streams_for(&values, len, 7000 + u * 131 + lanes as u64))
                        .collect();
                    all.push(
                        ExactParallelCounter::new()
                            .count_products(&xs, &unit_ws[0])
                            .unwrap(),
                    );
                    let (x, w) = packed_operands(&xs, &unit_ws);
                    all.extend(drained_counts(x.view(), w.view(), &mut StreamArena::new()));
                }
            }
            all
        };
        let reference = counts_under(crate::word::Backend::Scalar);
        for backend in crate::word::Backend::ALL {
            if backend.is_available() {
                assert_eq!(counts_under(backend), reference, "{backend}");
            }
        }
        assert!(crate::word::force_backend(
            crate::word::best_available_backend()
        ));
    }

    #[test]
    fn shared_count_products_validates_inputs() {
        let xs = streams_for(&[0.5, -0.25], 64, 5);
        let ws = streams_for(&[0.5, -0.25], 64, 9);
        let short = streams_for(&[0.5], 64, 9);
        let long = streams_for(&[0.5, -0.25], 65, 9);
        let (x, w) = packed_operands(&xs, &[ws.clone(), ws.clone()]);
        let length = StreamLength::new(64);
        let mut out = CountPlanes::zeroed(2, length, 4).unwrap();
        let apc = Apc::new();
        assert!(apc
            .count_planes_into(x.view(), w.view(), &mut out, 0)
            .is_ok());
        assert!(apc
            .count_planes_into(x.view(), w.view(), &mut out, 2)
            .is_ok());
        // Rows past the block's, two input rows, too few lanes, another
        // length, a block of another lane count or length.
        assert!(apc
            .count_planes_into(x.view(), w.view(), &mut out, 3)
            .is_err());
        assert!(apc
            .count_planes_into(w.view(), w.view(), &mut out, 0)
            .is_err());
        let narrow = PackedLanes::pack([short.as_slice()]).unwrap();
        assert!(apc
            .count_planes_into(narrow.view(), w.view(), &mut out, 0)
            .is_err());
        let longer = PackedLanes::pack([long.as_slice()]).unwrap();
        assert!(apc
            .count_planes_into(longer.view(), w.view(), &mut out, 0)
            .is_err());
        let mut wider = CountPlanes::zeroed(3, length, 2).unwrap();
        assert!(apc
            .count_planes_into(x.view(), w.view(), &mut wider, 0)
            .is_err());
        let mut other = CountPlanes::zeroed(2, StreamLength::new(65), 2).unwrap();
        assert!(apc
            .count_planes_into(x.view(), w.view(), &mut other, 0)
            .is_err());
        // Rows of unequal lane counts never pack.
        assert!(PackedLanes::pack([ws.as_slice(), short.as_slice()]).is_err());
    }

    #[test]
    fn fused_kernels_validate_inputs() {
        let a = vec![BitStream::from_binary_str("1010").unwrap()];
        let b = vec![BitStream::from_binary_str("10100").unwrap()];
        let paired = vec![a[0].clone(), a[0].clone()];
        let mut selector = Lfsr::new_32(1);
        assert!(ExactParallelCounter::new()
            .count_products(&[], &[])
            .is_err());
        assert!(ExactParallelCounter::new()
            .count_products(&a, &paired)
            .is_err());
        assert!(ExactParallelCounter::new().count_products(&a, &b).is_err());
        assert!(Apc::new().count_products(&a, &b).is_err());
        assert!(MuxAdder::new().sum_products(&a, &b, &mut selector).is_err());
        assert!(MuxAdder::new()
            .sum_products(&[], &[], &mut selector)
            .is_err());
    }

    #[test]
    fn count_stream_rejects_bad_counts() {
        assert!(CountStream::new(vec![], 4).is_err());
        assert!(CountStream::new(vec![5], 4).is_err());
        assert!(CountStream::new(vec![4], 4).is_ok());
    }

    #[test]
    fn merge_sum_adds_counts_and_lanes() {
        let a = CountStream::new(vec![2, 3], 4).unwrap();
        let b = CountStream::new(vec![3, 4], 4).unwrap();
        let merged = CountStream::merge_sum(&[a, b]).unwrap();
        assert_eq!(merged.counts(), &[5, 7]);
        assert_eq!(merged.lanes(), 8);
        assert!(CountStream::merge_sum(&[]).is_err());
    }

    #[test]
    fn truncating_average_drops_fraction() {
        let a = CountStream::new(vec![2, 3], 4).unwrap();
        let b = CountStream::new(vec![3, 4], 4).unwrap();
        let avg = CountStream::truncating_average(&[a, b]).unwrap();
        // (2+3)/2 = 2.5 -> 2, (3+4)/2 = 3.5 -> 3.
        assert_eq!(avg.counts(), &[2, 3]);
    }

    #[test]
    fn truncating_average_validates() {
        assert!(CountStream::truncating_average(&[]).is_err());
        let a = CountStream::new(vec![1, 2], 4).unwrap();
        let b = CountStream::new(vec![1], 4).unwrap();
        assert!(CountStream::truncating_average(&[a, b]).is_err());
    }
}

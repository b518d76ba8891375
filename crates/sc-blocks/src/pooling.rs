//! Pooling function blocks.
//!
//! Average pooling exploits the MUX's inherent `1/n` down-scaling, so it is
//! nearly free. Max pooling over stochastic streams normally requires the
//! whole stream to be counted before the maximum is known; the paper's
//! *hardware-oriented max pooling* instead slices the streams into `c`-bit
//! segments, counts ones per segment, and forwards the segment of the stream
//! that *previously* had the largest count — an approximation with near-zero
//! latency (Fig. 8, Table 4).
//!
//! Both pooling operations exist in two domains:
//!
//! * stream domain (inputs are [`BitStream`]s) — used after MUX-based inner
//!   product blocks;
//! * binary domain (inputs are [`CountStream`]s) — used after APC-based inner
//!   product blocks, where counters are replaced by accumulators.
//!
//! The MUX average-pooling path replays precomputed selector plans
//! ([`MuxSelectorPlan`]) whose masked-OR inner loop dispatches through the
//! word-generic kernel layer ([`sc_core::word`]).
//!
//! The hardware max pool over streams computes all segment counts before it
//! forwards anything: the choice for segment `s + 1` is the argmax of the
//! segment-`s` counts, which do not depend on what was forwarded. When the
//! segment length is a power of two ≤ 64 (the paper's 16 bits included),
//! segments never straddle a word, so one SWAR lane-popcount per input word
//! yields all of its segment counts and a lane-wise argmax picks the
//! forwarding mask. That kernel is word-generic ([`sc_core::word`]): it
//! pools `W::LANES` consecutive words per step on the active backend. Other
//! lengths (the 7- or 100-bit ablations) keep the (word, mask) walk over
//! each segment, the only form that handles a segment crossing a word
//! boundary. No length takes both paths.
//!
//! Both kernels read their candidates through one word loader, either
//! streams as they are ([`HardwareMaxPooling::pool_streams`]) or the XNOR
//! products of two stream sets formed as they are read
//! ([`HardwareMaxPooling::pool_xnor_products_with`], the MUX-Max block's
//! pool over its per-field products, which are never materialized).
//!
//! In the binary domain the APC-Max block pools its rows as bit-planes
//! ([`HardwareMaxPooling::pool_planes_with`], [`CountPlanes`]): a 16-bit
//! segment's total is `Σₖ popcount(planeₖ) ≪ k`, one SWAR lane-popcount per
//! plane word, and the winners' planes are blended in as the stream pool
//! blends bits. [`HardwareMaxPooling::pool_counts`] over `u16` counts stays
//! the per-call reference.

use sc_core::add::{CountStream, MuxAdder, MuxSelectorPlan};
use sc_core::arena::StreamArena;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::csa::{CountPlanes, GROUP_WORDS};
use sc_core::error::ScError;
use sc_core::rng::Lfsr;
use sc_core::word::{active_backend, Backend, Word, W4};
use serde::{Deserialize, Serialize};

/// Identifies a pooling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolingKind {
    /// Average pooling (MUX in the stream domain, adder+divider in binary).
    Average,
    /// The paper's hardware-oriented (approximate) max pooling.
    HardwareMax,
    /// Exact max pooling that inspects whole streams (software baseline).
    SoftwareMax,
}

impl PoolingKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PoolingKind::Average => "Avg",
            PoolingKind::HardwareMax => "Max",
            PoolingKind::SoftwareMax => "SoftMax",
        }
    }
}

/// MUX-based average pooling block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AveragePooling {
    /// Seed for the MUX selector.
    pub seed: u64,
}

impl AveragePooling {
    /// Creates an average pooling block.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Pools bit-streams by selecting one input per cycle (MUX), producing a
    /// stream whose value is the mean of the inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn pool_streams(&self, inputs: &[BitStream]) -> Result<BitStream, ScError> {
        let mut selector = Lfsr::new_32((self.seed as u32) | 1);
        MuxAdder::new().sum(inputs, &mut selector)
    }

    /// Draws this block's selector samples for `lanes` streams of
    /// `stream_bits` bits into a reusable [`MuxSelectorPlan`].
    ///
    /// [`AveragePooling::pool_streams_with_plan`] replays the plan
    /// bit-identically to [`AveragePooling::pool_streams`]; every unit of a
    /// layer re-creates the same selector LFSR, so one plan serves them all.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for a zero lane count and
    /// [`ScError::InvalidParameter`] for a zero stream length.
    pub fn selector_plan(
        &self,
        lanes: usize,
        stream_bits: usize,
    ) -> Result<MuxSelectorPlan, ScError> {
        let mut selector = Lfsr::new_32((self.seed as u32) | 1);
        MuxSelectorPlan::new(lanes, stream_bits, &mut selector)
    }

    /// Pools bit-streams replaying a pre-drawn selector plan (bit-exact with
    /// [`AveragePooling::pool_streams`] for a plan from
    /// [`AveragePooling::selector_plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] for streams not matching the plan.
    pub fn pool_streams_with_plan(
        &self,
        inputs: &[BitStream],
        plan: &MuxSelectorPlan,
    ) -> Result<BitStream, ScError> {
        MuxAdder::new().sum_with_plan(inputs, plan)
    }

    /// [`AveragePooling::pool_streams_with_plan`] with the output buffer
    /// taken from `arena` (recycle it when done). Results are identical.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AveragePooling::pool_streams_with_plan`].
    pub fn pool_streams_with_plan_with(
        &self,
        inputs: &[BitStream],
        plan: &MuxSelectorPlan,
        arena: &mut StreamArena,
    ) -> Result<BitStream, ScError> {
        let first = inputs.first().ok_or(ScError::EmptyInput)?;
        let mut out = arena.take_zeroed(first.stream_length());
        match MuxAdder::new().sum_with_plan_into(inputs, plan, &mut out) {
            Ok(()) => Ok(out),
            Err(error) => {
                arena.recycle(out);
                Err(error)
            }
        }
    }

    /// Pools binary count streams with an adder and truncating divider.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn pool_counts(&self, inputs: &[CountStream]) -> Result<CountStream, ScError> {
        CountStream::truncating_average(inputs)
    }

    /// The floating-point reference for this pooling operation.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn reference(&self, values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "average of an empty set is undefined");
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The paper's hardware-oriented max pooling block (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardwareMaxPooling {
    /// Segment length `c` in bits (the paper uses 16).
    pub segment_bits: usize,
}

impl Default for HardwareMaxPooling {
    fn default() -> Self {
        Self { segment_bits: 16 }
    }
}

impl HardwareMaxPooling {
    /// Creates a hardware-oriented max pooling block with the given segment
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] if `segment_bits` is zero.
    pub fn new(segment_bits: usize) -> Result<Self, ScError> {
        if segment_bits == 0 {
            return Err(ScError::InvalidParameter {
                name: "segment_bits",
                message: "segment length must be non-zero".into(),
            });
        }
        Ok(Self { segment_bits })
    }

    /// Pools bit-streams: for every segment, the stream that had the largest
    /// ones-count in the *previous* segment is forwarded (the first segment
    /// forwards input 0, which the paper describes as a random choice with
    /// negligible impact).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn pool_streams(&self, inputs: &[BitStream]) -> Result<BitStream, ScError> {
        let length = common_stream_length(inputs)?;
        let mut output = BitStream::zeros(length);
        self.pool_into(&Streams(inputs), output.words_mut(), length.bits());
        Ok(output)
    }

    /// [`HardwareMaxPooling::pool_streams`] with the output buffer taken
    /// from `arena` (recycle it when done). Results are identical.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HardwareMaxPooling::pool_streams`].
    pub fn pool_streams_with(
        &self,
        inputs: &[BitStream],
        arena: &mut StreamArena,
    ) -> Result<BitStream, ScError> {
        let length = common_stream_length(inputs)?;
        let mut output = arena.take_zeroed(length);
        self.pool_into(&Streams(inputs), output.words_mut(), length.bits());
        Ok(output)
    }

    /// Pools the XNOR products `inputs[i] ⊙ weights[i]` without
    /// materializing them: bit-identical to [`BitStream::xnor_assign`] of
    /// every pair followed by [`HardwareMaxPooling::pool_streams_with`].
    /// The output buffer comes from `arena` (recycle it when done).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for no inputs and
    /// [`ScError::LengthMismatch`] unless there is one weight per input and
    /// every stream has the same length.
    pub fn pool_xnor_products_with(
        &self,
        inputs: &[BitStream],
        weights: &[BitStream],
        arena: &mut StreamArena,
    ) -> Result<BitStream, ScError> {
        let length = common_stream_length(inputs)?;
        if weights.len() != inputs.len() {
            return Err(ScError::LengthMismatch {
                left: inputs.len(),
                right: weights.len(),
            });
        }
        if let Some(weight) = weights.iter().find(|weight| weight.len() != length.bits()) {
            return Err(ScError::LengthMismatch {
                left: length.bits(),
                right: weight.len(),
            });
        }
        let mut output = arena.take_zeroed(length);
        let products = XnorProducts { inputs, weights };
        self.pool_into(&products, output.words_mut(), length.bits());
        Ok(output)
    }

    /// Pools `len`-bit candidates into the zeroed words `out`. The lane-count
    /// kernel dispatches the way `sc_core`'s word kernels do: `u64` for
    /// `scalar`, the AVX2 entry point for `avx2`, [`W4`] otherwise.
    fn pool_into(&self, candidates: &impl PoolInputs, out: &mut [u64], len: usize) {
        if self.segment_bits <= 64 && self.segment_bits.is_power_of_two() {
            let segment_bits = self.segment_bits;
            match active_backend() {
                Backend::Scalar => pool_lane_counts::<u64>(segment_bits, candidates, out, len),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => {
                    // SAFETY: `active_backend` reports AVX2 only after
                    // runtime feature detection.
                    unsafe { avx2::pool_lane_counts_avx2(segment_bits, candidates, out, len) }
                }
                _ => pool_lane_counts::<W4>(segment_bits, candidates, out, len),
            }
        } else {
            pool_segment_walk(candidates, out, len, self.segment_bits)
        }
    }

    /// Pools binary count streams: identical control flow, but the per-segment
    /// counters become accumulators of the binary counts (APC-Max-Btanh).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice and
    /// [`ScError::LengthMismatch`] if the streams differ in length.
    pub fn pool_counts(&self, inputs: &[CountStream]) -> Result<CountStream, ScError> {
        let len = common_count_length(inputs)?;
        let mut out_counts = vec![0u16; len];
        let mut selected = 0usize;
        let mut start = 0usize;
        while start < len {
            let end = (start + self.segment_bits).min(len);
            out_counts[start..end].copy_from_slice(&inputs[selected].counts()[start..end]);
            let mut best = 0usize;
            let mut best_total = 0u64;
            for (lane, stream) in inputs.iter().enumerate() {
                let total: u64 = stream.counts()[start..end]
                    .iter()
                    .map(|&c| u64::from(c))
                    .sum();
                if total > best_total {
                    best_total = total;
                    best = lane;
                }
            }
            selected = best;
            start = end;
        }
        CountStream::new(out_counts, inputs[0].lanes())
    }

    /// Pools APC count rows held as bit-planes, into planes taken from
    /// `arena` (recycle them via [`StreamArena::recycle_planes`] or drain
    /// them): drained, the result is bit-identical to
    /// [`HardwareMaxPooling::pool_counts`] over the drained inputs. Each
    /// 16-bit segment's total is exact for any lane count, the strictly
    /// largest total wins (the first input on ties), and the winner's
    /// planes are forwarded over the next segment, `W::LANES` words per step
    /// on the active backend.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for no inputs,
    /// [`ScError::LengthMismatch`] for inputs of different lengths, and
    /// [`ScError::InvalidParameter`] for inputs of different lane counts or
    /// a segment length other than 16 bits (the block's
    /// [`crate::feature_block::DEFAULT_MAX_POOL_SEGMENT`]).
    pub fn pool_planes_with(
        &self,
        inputs: &[CountPlanes],
        arena: &mut StreamArena,
    ) -> Result<CountPlanes, ScError> {
        let first = inputs.first().ok_or(ScError::EmptyInput)?;
        if let Some(input) = inputs.iter().find(|p| p.length() != first.length()) {
            return Err(ScError::LengthMismatch {
                left: first.length().bits(),
                right: input.length().bits(),
            });
        }
        if self.segment_bits != 16 || inputs.iter().any(|p| p.lanes() != first.lanes()) {
            return Err(ScError::InvalidParameter {
                name: "inputs",
                message: format!(
                    "plane pooling takes 16-bit segments over rows of one lane count \
                     ({}-bit segments)",
                    self.segment_bits
                ),
            });
        }
        let mut output = arena.take_planes(first.lanes(), first.length())?;
        let planes = first.planes();
        let out = output.words_mut();
        match active_backend() {
            Backend::Scalar => pool_planes::<u64>(inputs, out, planes),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                // SAFETY: `active_backend` reports AVX2 only after runtime
                // feature detection.
                unsafe { avx2::pool_planes_avx2(inputs, out, planes) }
            }
            _ => pool_planes::<W4>(inputs, out, planes),
        }
        Ok(output)
    }

    /// The floating-point reference for max pooling.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn reference(&self, values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "max of an empty set is undefined");
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The candidates of a hardware max pool, read a word at a time.
trait PoolInputs {
    /// Number of candidates.
    fn count(&self) -> usize;

    /// Words `word .. word + W::LANES` of candidate `input`. Bits past the
    /// stream length may read as ones; the kernels mask them.
    fn load<W: Word>(&self, input: usize, word: usize) -> W;
}

/// Candidates held as streams.
struct Streams<'a>(&'a [BitStream]);

impl PoolInputs for Streams<'_> {
    #[inline(always)]
    fn count(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn load<W: Word>(&self, input: usize, word: usize) -> W {
        W::load(&self.0[input].as_words()[word..])
    }
}

/// Candidates that are the XNOR products `inputs[i] ⊙ weights[i]`, formed
/// as they are read.
struct XnorProducts<'a> {
    inputs: &'a [BitStream],
    weights: &'a [BitStream],
}

impl PoolInputs for XnorProducts<'_> {
    #[inline(always)]
    fn count(&self) -> usize {
        self.inputs.len()
    }

    #[inline(always)]
    fn load<W: Word>(&self, input: usize, word: usize) -> W {
        let x = W::load(&self.inputs[input].as_words()[word..]);
        x.xor(W::load(&self.weights[input].as_words()[word..]))
            .not()
    }
}

/// Hardware max pool over `len`-bit candidates whose segment length is a
/// power of two ≤ 64, so every word holds `64 / segment_bits` whole
/// segments ("lanes"; a stream's last segment may be partial).
#[inline(always)]
fn pool_lane_counts<W: Word>(
    segment_bits: usize,
    candidates: &impl PoolInputs,
    out: &mut [u64],
    len: usize,
) {
    match segment_bits {
        1 => pool_lane_words::<1, W>(candidates, out, len),
        2 => pool_lane_words::<2, W>(candidates, out, len),
        4 => pool_lane_words::<4, W>(candidates, out, len),
        8 => pool_lane_words::<8, W>(candidates, out, len),
        16 => pool_lane_words::<16, W>(candidates, out, len),
        32 => pool_lane_words::<32, W>(candidates, out, len),
        64 => pool_lane_words::<64, W>(candidates, out, len),
        _ => unreachable!("segment lengths other than a power of two ≤ 64 take the walk"),
    }
}

/// [`pool_lane_counts`] for `S`-bit segments: whole words go `W::LANES` at
/// a time, the rest (the partial last word included) one at a time with
/// the bits past `len` masked off.
#[inline(always)]
fn pool_lane_words<const S: u32, W: Word>(
    candidates: &impl PoolInputs,
    out: &mut [u64],
    len: usize,
) {
    let whole = len / 64;
    // The first segment of the stream forwards input 0.
    let mut carry = 0usize;
    let mut w = 0;
    if W::LANES > 1 {
        while w + W::LANES <= whole {
            carry = pool_words::<S, W>(candidates, out, w, u64::MAX, carry);
            w += W::LANES;
        }
    }
    while w < out.len() {
        let mask = if w < whole {
            u64::MAX
        } else {
            u64::MAX >> (64 - len % 64)
        };
        carry = pool_words::<S, u64>(candidates, out, w, mask, carry);
        w += 1;
    }
}

/// Pools words `w .. w + W::LANES`, each candidate word read through
/// `mask`, given the input that won the top lane of word `w - 1` (`carry`),
/// and returns the top lane's winner of the last word.
///
/// Per word, one SWAR lane-popcount per candidate gives all of its segment
/// counts, a running lane-wise strict maximum picks each lane's winner (the
/// first candidate on ties), and the winners' next lanes are blended into
/// the output. Each word's top-lane winner is recorded as the walk goes
/// (the sign of its win mask) and forwards the first lane of the next word
/// in a short fix-up pass.
#[inline(always)]
fn pool_words<const S: u32, W: Word>(
    candidates: &impl PoolInputs,
    out: &mut [u64],
    w: usize,
    mask: u64,
    mut carry: usize,
) -> usize {
    let first_lane = u64::MAX >> (64 - S);
    let mask_word = W::splat(mask);
    let word = candidates.load::<W>(0, w).and(mask_word);
    let mut best = lane_counts::<S, W>(word);
    // Lane `k + 1` of `next` holds the bits of lane `k`'s running winner.
    let mut next = word;
    let mut top_winners = W::zero();
    for input in 1..candidates.count() {
        let word = candidates.load::<W>(input, w).and(mask_word);
        let counts = lane_counts::<S, W>(word);
        let wins = lane_greater::<S, W>(counts, best);
        best = counts.and(wins).or(best.andnot(wins));
        if S < 64 {
            let shifted = wins.shl(S);
            next = word.and(shifted).or(next.andnot(shifted));
        }
        let top_won = W::zero().cmp_gt_i64(wins);
        top_winners = top_winners.blend(W::splat(input as u64), top_won);
    }
    next.andnot(W::splat(first_lane)).store(&mut out[w..]);
    let mut winners = [0u64; 4];
    top_winners.store(&mut winners);
    for (j, &winner) in winners.iter().take(W::LANES).enumerate() {
        out[w + j] |= candidates.load::<u64>(carry, w + j) & mask & first_lane;
        carry = winner as usize;
    }
    carry
}

/// The ones-count of every `S`-bit lane of `word`, each held in its lane.
#[inline(always)]
fn lane_counts<const S: u32, W: Word>(mut word: W) -> W {
    let mut width = 1;
    while width < S {
        // The low `width` bits of every `2 · width`-bit field.
        let mask = W::splat(u64::MAX / ((1u64 << width) + 1));
        word = word.and(mask).add_i64(word.shr(width).and(mask));
        width *= 2;
    }
    word
}

/// All-ones in every `S`-bit lane where count `a` exceeds count `b` (lane
/// counts, each at most `S`), zero elsewhere.
#[inline(always)]
fn lane_greater<const S: u32, W: Word>(a: W, b: W) -> W {
    let low = u64::MAX / (u64::MAX >> (64 - S));
    let high = W::splat(low << (S - 1));
    // Top bit of each lane: `b ≥ a`. From 4-bit lanes up a count never
    // reaches the top bit, so one borrow-free subtraction decides; narrower
    // lanes compare the top bits first and the lower bits after.
    let b_ge_a = if S >= 4 {
        b.or(high).sub_i64(a).and(high)
    } else {
        let low_ge = b.or(high).sub_i64(a.andnot(high));
        b.andnot(a).or(low_ge.andnot(a.xor(b))).and(high)
    };
    let greater = high.andnot(b_ge_a);
    greater.sub_i64(greater.shr(S - 1)).or(greater)
}

/// Bit-plane hardware max pool over 16-bit segments (`inputs` of `planes`
/// planes per group; `out`: the pooled row's zeroed words), `W::LANES`
/// words per step, the top segment's winner of each word carried into the
/// next.
#[inline(always)]
fn pool_planes<W: Word>(inputs: &[CountPlanes], out: &mut [u64], planes: usize) {
    let mut carry = 0;
    for group in (0..out.len()).step_by(planes * GROUP_WORDS) {
        for sub in (0..GROUP_WORDS).step_by(W::LANES) {
            carry = pool_plane_words::<W>(inputs, out, group + sub, planes, carry);
        }
    }
}

/// Pools words `at .. at + W::LANES` of every plane (plane `k` of those
/// words at `at + k · GROUP_WORDS`), given the input that won the top
/// segment of the previous word (`carry`), and returns the top segment's
/// winner of the last word. The counterpart of [`pool_words`] for planes:
/// per input, the segment totals `Σₖ lane_counts(planeₖ) ≪ k` are summed in
/// 32-bit fields (even and odd segments apart), so they are exact up to
/// 16 · 65535; a lane-wise strict maximum picks each segment's winner, and
/// the winners' next segments are blended into every plane.
#[inline(always)]
fn pool_plane_words<W: Word>(
    inputs: &[CountPlanes],
    out: &mut [u64],
    at: usize,
    planes: usize,
    mut carry: usize,
) -> usize {
    const FIRST_SEGMENT: u64 = 0xFFFF;
    let low_halves = W::splat(LOW_HALVES);
    let (mut best_even, mut best_odd) = segment_totals::<W>(inputs[0].as_words(), at, planes);
    // Segment `s + 1` of `next[k]` holds plane `k` of segment `s`'s running
    // winner.
    let mut next = [W::zero(); 16];
    for (k, plane) in next.iter_mut().enumerate().take(planes) {
        *plane = W::load(&inputs[0].as_words()[at + k * GROUP_WORDS..]);
    }
    let mut top_winners = W::zero();
    for (input, planes_in) in inputs.iter().enumerate().skip(1) {
        let words = planes_in.as_words();
        let (even, odd) = segment_totals::<W>(words, at, planes);
        let wins_even = lane_greater::<32, W>(even, best_even);
        let wins_odd = lane_greater::<32, W>(odd, best_odd);
        best_even = best_even.blend(even, wins_even);
        best_odd = best_odd.blend(odd, wins_odd);
        let wins = wins_even.and(low_halves).or(wins_odd.andnot(low_halves));
        let shifted = wins.shl(16);
        for (k, plane) in next.iter_mut().enumerate().take(planes) {
            *plane = plane.blend(W::load(&words[at + k * GROUP_WORDS..]), shifted);
        }
        let top_won = W::zero().cmp_gt_i64(wins);
        top_winners = top_winners.blend(W::splat(input as u64), top_won);
    }
    for (k, plane) in next.iter().enumerate().take(planes) {
        plane
            .andnot(W::splat(FIRST_SEGMENT))
            .store(&mut out[at + k * GROUP_WORDS..]);
    }
    let mut winners = [0u64; 4];
    top_winners.store(&mut winners);
    for (j, &winner) in winners.iter().take(W::LANES).enumerate() {
        for k in 0..planes {
            let word = at + k * GROUP_WORDS + j;
            out[word] |= inputs[carry].as_words()[word] & FIRST_SEGMENT;
        }
        carry = winner as usize;
    }
    carry
}

/// The low 16-bit half of every 32-bit field.
const LOW_HALVES: u64 = 0x0000_FFFF_0000_FFFF;

/// The 16-bit segment totals of words `at .. at + W::LANES` of one row's
/// planes (`words`), `Σₖ lane_counts(planeₖ) ≪ k` in 32-bit fields: the
/// even segments' totals in the first word, the odd segments' in the
/// second.
#[inline(always)]
fn segment_totals<W: Word>(words: &[u64], at: usize, planes: usize) -> (W, W) {
    let low_halves = W::splat(LOW_HALVES);
    let (mut even, mut odd) = (W::zero(), W::zero());
    for k in 0..planes {
        let counts = lane_counts::<16, W>(W::load(&words[at + k * GROUP_WORDS..]));
        even = even.add_i64(counts.and(low_halves).shl(k as u32));
        odd = odd.add_i64(counts.shr(16).and(low_halves).shl(k as u32));
    }
    (even, odd)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::PoolInputs;
    use sc_core::csa::CountPlanes;
    use sc_core::word::WAvx2;

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pool_planes_avx2(inputs: &[CountPlanes], out: &mut [u64], planes: usize) {
        super::pool_planes::<WAvx2>(inputs, out, planes)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pool_lane_counts_avx2(
        segment_bits: usize,
        candidates: &impl PoolInputs,
        out: &mut [u64],
        len: usize,
    ) {
        super::pool_lane_counts::<WAvx2>(segment_bits, candidates, out, len)
    }
}

/// Hardware max pool for any other segment length: every segment is a run of
/// (word, mask) pairs, so forwarding the selected candidate and counting
/// each candidate are a masked blend and masked popcounts.
fn pool_segment_walk(
    candidates: &impl PoolInputs,
    out: &mut [u64],
    len: usize,
    segment_bits: usize,
) {
    let mut selected = 0usize;
    let mut start = 0usize;
    while start < len {
        let end = (start + segment_bits).min(len);
        let segment = || {
            (start / 64..end.div_ceil(64)).map(move |w| {
                let low = start.max(w * 64) - w * 64;
                let high = end.min(w * 64 + 64) - w * 64;
                (w, (u64::MAX >> (64 - (high - low))) << low)
            })
        };
        for (w, mask) in segment() {
            out[w] = (out[w] & !mask) | (candidates.load::<u64>(selected, w) & mask);
        }
        // The strictly largest count wins (first candidate on ties) and
        // drives the selection for the *next* segment.
        let mut best = 0usize;
        let mut best_count = 0u32;
        for input in 0..candidates.count() {
            let count: u32 = segment()
                .map(|(w, mask)| (candidates.load::<u64>(input, w) & mask).count_ones())
                .sum();
            if count > best_count {
                best_count = count;
                best = input;
            }
        }
        selected = best;
        start = end;
    }
}

/// Validates a stream operand set and returns the common length.
fn common_stream_length(inputs: &[BitStream]) -> Result<StreamLength, ScError> {
    let first = inputs.first().ok_or(ScError::EmptyInput)?;
    if let Some(stream) = inputs.iter().find(|stream| stream.len() != first.len()) {
        return Err(ScError::LengthMismatch {
            left: first.len(),
            right: stream.len(),
        });
    }
    Ok(first.stream_length())
}

/// Validates a count-stream operand set and returns the common length.
fn common_count_length(inputs: &[CountStream]) -> Result<usize, ScError> {
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

/// Software max pooling baseline: counts ones over the whole streams and
/// returns the stream with the largest total (what a non-hardware-constrained
/// implementation would do, at the cost of full-stream latency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareMaxPooling;

impl SoftwareMaxPooling {
    /// Creates a software max pooling baseline.
    pub fn new() -> Self {
        Self
    }

    /// Returns a clone of the input stream with the largest ones count.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice.
    pub fn pool_streams(&self, inputs: &[BitStream]) -> Result<BitStream, ScError> {
        inputs
            .iter()
            .max_by_key(|s| s.count_ones())
            .cloned()
            .ok_or(ScError::EmptyInput)
    }

    /// Returns a clone of the count stream with the largest total.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::EmptyInput`] for an empty slice.
    pub fn pool_counts(&self, inputs: &[CountStream]) -> Result<CountStream, ScError> {
        inputs
            .iter()
            .max_by_key(|s| s.total())
            .cloned()
            .ok_or(ScError::EmptyInput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::add::Apc;
    use sc_core::csa::PackedLanes;
    use sc_core::sng::{Sng, SngKind};
    use sc_core::word::{active_backend, force_backend, Backend};

    fn stream_for(value: f64, len: usize, seed: u64) -> BitStream {
        Sng::new(SngKind::Lfsr32, seed)
            .generate_bipolar(value, StreamLength::new(len))
            .unwrap()
    }

    #[test]
    fn average_pooling_tracks_mean() {
        let values = [0.8, -0.2, 0.4, 0.1];
        let streams: Vec<BitStream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| stream_for(v, 8192, 10 + i as u64))
            .collect();
        let pooled = AveragePooling::new(3).pool_streams(&streams).unwrap();
        let expected = AveragePooling::new(3).reference(&values);
        assert!((pooled.bipolar_value() - expected).abs() < 0.06);
    }

    #[test]
    fn average_pooling_plan_replay_is_bit_exact() {
        let values = [0.8, -0.2, 0.4, 0.1];
        for len in [100usize, 127, 1024] {
            let streams: Vec<BitStream> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| stream_for(v, len, 10 + i as u64))
                .collect();
            let pool = AveragePooling::new(0xDEAD ^ len as u64);
            let direct = pool.pool_streams(&streams).unwrap();
            let plan = pool.selector_plan(streams.len(), len).unwrap();
            let replayed = pool.pool_streams_with_plan(&streams, &plan).unwrap();
            assert_eq!(replayed, direct, "len {len}");
            // Replaying twice gives the same bits (the plan is immutable).
            assert_eq!(
                pool.pool_streams_with_plan(&streams, &plan).unwrap(),
                direct
            );
        }
    }

    #[test]
    fn average_pooling_counts_truncate() {
        let a = CountStream::new(vec![3, 1], 4).unwrap();
        let b = CountStream::new(vec![2, 2], 4).unwrap();
        let pooled = AveragePooling::new(1).pool_counts(&[a, b]).unwrap();
        assert_eq!(pooled.counts(), &[2, 1]);
    }

    #[test]
    fn hardware_max_tracks_software_max() {
        let values = [0.7, -0.3, 0.2, 0.5];
        let streams: Vec<BitStream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| stream_for(v, 2048, 40 + i as u64))
            .collect();
        let hw = HardwareMaxPooling::new(16)
            .unwrap()
            .pool_streams(&streams)
            .unwrap();
        let sw = SoftwareMaxPooling::new().pool_streams(&streams).unwrap();
        assert!(
            (hw.bipolar_value() - sw.bipolar_value()).abs() < 0.15,
            "hardware max {} deviates from software max {}",
            hw.bipolar_value(),
            sw.bipolar_value()
        );
    }

    #[test]
    fn hardware_max_never_exceeds_true_max_by_much() {
        let values = [0.6, 0.55, -0.1, 0.0];
        let streams: Vec<BitStream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| stream_for(v, 4096, 90 + i as u64))
            .collect();
        let hw = HardwareMaxPooling::default()
            .pool_streams(&streams)
            .unwrap();
        assert!(hw.bipolar_value() <= 0.7);
        assert!(hw.bipolar_value() >= 0.4);
    }

    #[test]
    fn hardware_max_handles_non_divisible_lengths() {
        let streams = vec![
            BitStream::from_binary_str("110110111").unwrap(),
            BitStream::from_binary_str("000010001").unwrap(),
        ];
        let pooled = HardwareMaxPooling::new(4)
            .unwrap()
            .pool_streams(&streams)
            .unwrap();
        assert_eq!(pooled.len(), 9);
    }

    /// Per-bit reference of the hardware max pool: every output bit is read
    /// from the lane whose previous segment held strictly the most ones
    /// (the first such lane on ties; lane 0 for the first segment).
    fn per_bit_max_pool(inputs: &[BitStream], segment_bits: usize) -> BitStream {
        let len = inputs[0].len();
        let mut out = BitStream::zeros(StreamLength::new(len));
        let mut selected = 0;
        for start in (0..len).step_by(segment_bits) {
            let end = (start + segment_bits).min(len);
            for t in start..end {
                out.set(t, inputs[selected].get(t));
            }
            let mut best = (0, 0);
            for (lane, stream) in inputs.iter().enumerate() {
                let count = (start..end).filter(|&t| stream.get(t)).count();
                if count > best.1 {
                    best = (lane, count);
                }
            }
            selected = best.0;
        }
        out
    }

    /// `stream` with the bits of every segment reversed: the same count in
    /// every segment, but different bits wherever a segment is not a
    /// palindrome, so selecting the wrong lane of a tie shows.
    fn reverse_segments(stream: &BitStream, segment_bits: usize) -> BitStream {
        let len = stream.len();
        let mut out = BitStream::zeros(StreamLength::new(len));
        for start in (0..len).step_by(segment_bits) {
            let end = (start + segment_bits).min(len);
            for t in start..end {
                out.set(start + end - 1 - t, stream.get(t));
            }
        }
        out
    }

    /// One candidate set of `lanes` streams of `len` bits for `trial`:
    /// trial 0 draws independent lanes; trials 1-3 force equal counts in
    /// every segment: all lanes tie (1), or all but lane 0 tie (2), or lanes
    /// pair up into ties (3).
    fn candidates(
        rng: &mut rand::rngs::StdRng,
        segment_bits: usize,
        len: usize,
        lanes: usize,
        trial: usize,
    ) -> Vec<BitStream> {
        use rand::Rng;
        let random = |rng: &mut rand::rngs::StdRng| {
            let density = [0.0, 0.1, 0.5, 0.9, 1.0][rng.gen_range(0..5usize)];
            BitStream::from_bits((0..len).map(|_| rng.gen_bool(density))).unwrap()
        };
        let mut streams: Vec<BitStream> = vec![random(rng)];
        for lane in 1..lanes {
            let tied = match trial {
                1 => true,
                2 => lane > 1,
                3 => lane % 2 == 1,
                _ => false,
            };
            streams.push(if tied {
                reverse_segments(&streams[lane - 1], segment_bits)
            } else {
                random(rng)
            });
        }
        streams
    }

    /// Runs `check` once under every kernel backend this build and CPU
    /// support, restoring the active backend afterwards.
    fn for_each_backend(mut check: impl FnMut(Backend)) {
        let original = active_backend();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            assert!(force_backend(backend));
            check(backend);
        }
        force_backend(original);
    }

    #[test]
    fn word_level_max_pool_matches_per_bit_reference() {
        use rand::SeedableRng;
        for_each_backend(|backend| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x9001);
            // Every power-of-two width takes the lane-count path; 7 and 100
            // take the segment walk. 9 and 16 candidates are Table 4's
            // windows.
            for segment_bits in [1usize, 2, 4, 7, 8, 16, 32, 64, 100] {
                let pool = HardwareMaxPooling::new(segment_bits).unwrap();
                for len in [1usize, 63, 64, 127, 1024] {
                    for lanes in (1..=5).chain([9, 16]) {
                        for trial in 0..4 {
                            let streams = candidates(&mut rng, segment_bits, len, lanes, trial);
                            assert_eq!(
                                pool.pool_streams(&streams).unwrap(),
                                per_bit_max_pool(&streams, segment_bits),
                                "{backend} segment {segment_bits} len {len} lanes {lanes} \
                                 trial {trial}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn fused_xnor_max_pool_matches_materialized_products() {
        use rand::{Rng, SeedableRng};
        let mut arena = StreamArena::new();
        for_each_backend(|backend| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x7A11);
            for segment_bits in [1usize, 2, 4, 8, 16, 32, 64, 100] {
                let pool = HardwareMaxPooling::new(segment_bits).unwrap();
                for len in [1usize, 63, 64, 127, 1024] {
                    for fields in 1..=5 {
                        for trial in 0..4 {
                            // The products carry the trial's tie pattern;
                            // the inputs are what XNORs with random weights
                            // into them.
                            let products = candidates(&mut rng, segment_bits, len, fields, trial);
                            let weights: Vec<BitStream> = (0..fields)
                                .map(|_| {
                                    BitStream::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
                                        .unwrap()
                                })
                                .collect();
                            let inputs: Vec<BitStream> = products
                                .iter()
                                .zip(&weights)
                                .map(|(product, weight)| product.xnor(weight))
                                .collect();
                            let materialized: Vec<BitStream> = inputs
                                .iter()
                                .zip(&weights)
                                .map(|(input, weight)| {
                                    let mut product = input.clone();
                                    product.xnor_assign(weight);
                                    product
                                })
                                .collect();
                            assert_eq!(materialized, products);
                            let expected =
                                pool.pool_streams_with(&materialized, &mut arena).unwrap();
                            let fused = pool
                                .pool_xnor_products_with(&inputs, &weights, &mut arena)
                                .unwrap();
                            let case = format!(
                                "{backend} segment {segment_bits} len {len} fields {fields} \
                                 trial {trial}"
                            );
                            assert_eq!(fused, expected, "{case}");
                            // Both share one kernel, so pin it to the per-bit
                            // reference too.
                            assert_eq!(fused, per_bit_max_pool(&products, segment_bits), "{case}");
                            arena.recycle(fused);
                            arena.recycle(expected);
                        }
                    }
                }
            }
        });
        // Mismatched operand sets are refused before a buffer is taken.
        let a = BitStream::from_binary_str("1010").unwrap();
        let short = BitStream::from_binary_str("101").unwrap();
        let pool = HardwareMaxPooling::default();
        let before = arena.stats();
        let refused = [
            (vec![], vec![]),
            (vec![a.clone()], vec![]),
            (vec![a.clone()], vec![short.clone()]),
            (vec![a, short.clone()], vec![short.clone(), short]),
        ];
        for (inputs, weights) in refused {
            assert!(pool
                .pool_xnor_products_with(&inputs, &weights, &mut arena)
                .is_err());
        }
        assert_eq!(arena.stats().stream_allocs, before.stream_allocs);
        assert_eq!(arena.stats().stream_reuses, before.stream_reuses);
    }

    #[test]
    fn hardware_max_on_counts_selects_larger_lane() {
        let big = CountStream::new(vec![4, 4, 4, 4], 4).unwrap();
        let small = CountStream::new(vec![0, 0, 0, 0], 4).unwrap();
        let pooled = HardwareMaxPooling::new(2)
            .unwrap()
            .pool_counts(&[small.clone(), big.clone()])
            .unwrap();
        // First segment forwards lane 0 (small), afterwards lane 1 (big).
        assert_eq!(pooled.counts(), &[0, 0, 4, 4]);
    }

    #[test]
    fn arena_backed_pooling_matches_allocating_pooling() {
        let values = [0.8, -0.2, 0.4, 0.1];
        let streams: Vec<BitStream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| stream_for(v, 127, 10 + i as u64))
            .collect();
        let mut arena = StreamArena::new();
        // Hardware max over streams.
        let hw = HardwareMaxPooling::new(16).unwrap();
        let direct = hw.pool_streams(&streams).unwrap();
        for _ in 0..2 {
            let pooled = hw.pool_streams_with(&streams, &mut arena).unwrap();
            assert_eq!(pooled, direct);
            arena.recycle(pooled);
        }
        assert_eq!(arena.stats().stream_allocs, 1);
        // Average pooling over a replayed plan.
        let avg = AveragePooling::new(77);
        let plan = avg.selector_plan(streams.len(), 127).unwrap();
        let direct = avg.pool_streams_with_plan(&streams, &plan).unwrap();
        let pooled = avg
            .pool_streams_with_plan_with(&streams, &plan, &mut arena)
            .unwrap();
        assert_eq!(pooled, direct);
        arena.recycle(pooled);
        // Hardware max over count planes, against the pool over their
        // drained counts.
        let length = StreamLength::new(127);
        let lanes: Vec<BitStream> = (0..5)
            .map(|i| stream_for(0.1 * i as f64, 127, 40 + i))
            .collect();
        let planes: Vec<CountPlanes> = (0..3u64)
            .map(|field| {
                let weights: Vec<BitStream> = (0..5)
                    .map(|i| stream_for(-0.3, 127, 70 + 5 * field + i))
                    .collect();
                let x = PackedLanes::pack([lanes.as_slice()]).unwrap();
                let w = PackedLanes::pack([weights.as_slice()]).unwrap();
                Apc::new()
                    .count_planes_with(x.view(), w.view(), &mut arena)
                    .unwrap()
                    .pop()
                    .unwrap()
            })
            .collect();
        let counts: Vec<CountStream> = planes
            .iter()
            .map(|p| p.clone().drain_with(&mut StreamArena::new()).unwrap())
            .collect();
        let pooled = hw.pool_planes_with(&planes, &mut arena).unwrap();
        assert_eq!(
            pooled.drain_with(&mut arena).unwrap(),
            hw.pool_counts(&counts).unwrap()
        );
        // Error paths reject empty inputs without leaking buffers.
        assert!(hw.pool_streams_with(&[], &mut arena).is_err());
        assert!(hw.pool_planes_with(&[], &mut arena).is_err());
        assert!(avg
            .pool_streams_with_plan_with(&[], &plan, &mut arena)
            .is_err());
        // A mismatched operand set, or a segment the plane pool does not
        // total, is rejected before a plane buffer is taken, so the pool is
        // untouched.
        let before = arena.stats();
        let short = CountPlanes::zeroed(5, StreamLength::new(100)).unwrap();
        let narrow = CountPlanes::zeroed(4, length).unwrap();
        assert!(hw
            .pool_planes_with(&[planes[0].clone(), short], &mut arena)
            .is_err());
        assert!(hw
            .pool_planes_with(&[planes[0].clone(), narrow], &mut arena)
            .is_err());
        let eight = HardwareMaxPooling::new(8).unwrap();
        assert!(eight.pool_planes_with(&planes, &mut arena).is_err());
        assert_eq!(arena.stats(), before);
    }

    #[test]
    fn software_max_picks_largest() {
        let a = BitStream::from_binary_str("1100").unwrap();
        let b = BitStream::from_binary_str("1110").unwrap();
        let max = SoftwareMaxPooling::new()
            .pool_streams(&[a, b.clone()])
            .unwrap();
        assert_eq!(max, b);
    }

    #[test]
    fn pooling_rejects_empty_and_mismatched_inputs() {
        assert!(AveragePooling::new(1).pool_streams(&[]).is_err());
        assert!(SoftwareMaxPooling::new().pool_streams(&[]).is_err());
        assert!(HardwareMaxPooling::default().pool_streams(&[]).is_err());
        assert!(HardwareMaxPooling::new(0).is_err());
        let a = BitStream::from_binary_str("10").unwrap();
        let b = BitStream::from_binary_str("100").unwrap();
        assert!(HardwareMaxPooling::default()
            .pool_streams(&[a.clone(), b.clone()])
            .is_err());
        assert!(AveragePooling::new(1).pool_streams(&[a, b]).is_err());
    }

    #[test]
    fn references_match_expectations() {
        assert_eq!(AveragePooling::new(1).reference(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(
            HardwareMaxPooling::default().reference(&[1.0, -2.0, 0.5]),
            1.0
        );
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            PoolingKind::Average,
            PoolingKind::HardwareMax,
            PoolingKind::SoftwareMax,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 3);
    }
}

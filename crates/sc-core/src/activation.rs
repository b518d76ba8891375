//! Stochastic activation functions.
//!
//! The paper selects the hyperbolic tangent because it maps naturally onto
//! tiny sequential SC hardware:
//!
//! * [`Stanh`] — a `K`-state finite state machine reading a bipolar stream bit
//!   by bit. `Stanh(K, x) ≈ tanh(K·x/2)`. Two output threshold modes are
//!   provided: the classic half-way split and the re-designed 1/5 split used
//!   by the MUX-Max-Stanh feature extraction block (Fig. 11).
//! * [`Btanh`] — a saturating up/down counter that converts the binary counts
//!   coming out of an APC-based adder back into a stochastic stream while
//!   applying a scaled tanh.
//!
//! The empirical state-count formulas of Eqs. (1)–(3) are provided as free
//! functions so the feature-extraction-block layer can pick `K` per
//! configuration.
//!
//! Batch walks over a layer's units: Stanh runs through a [`StanhTable`],
//! one lookup per input byte, on every kernel backend. The per-bit
//! [`Stanh::step`] walk stays as the definition the table is built from and
//! as the per-unit path, so checking the two against each other compares
//! the table with an independent FSM. Btanh, whose per-cycle input is a
//! count rather than a bit, keeps its lane-parallel word-kernel walk.

use crate::add::CountStream;
use crate::bitstream::{BitStream, StreamLength};
use crate::error::ScError;
use crate::word::{dispatch_word_kernel, Word};
use serde::{Deserialize, Serialize};

/// Output threshold mode for the [`Stanh`] FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StanhMode {
    /// Classic Stanh: output 1 when the state is in the upper half.
    Standard,
    /// Re-designed Stanh for MUX-Max feature blocks: output 1 when the state
    /// is beyond the left fifth of the diagram (Fig. 11), compensating the
    /// systematic under-counting of the hardware-oriented max pooling block.
    ShiftedFifth,
}

impl StanhMode {
    fn threshold(self, states: usize) -> usize {
        match self {
            StanhMode::Standard => states / 2,
            StanhMode::ShiftedFifth => states / 5,
        }
    }
}

/// `K`-state FSM implementing a stochastic hyperbolic tangent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stanh {
    states: usize,
    mode: StanhMode,
    state: usize,
}

impl Stanh {
    /// Creates a standard Stanh FSM with `states` states.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `states` is an even
    /// number of at least two.
    pub fn new(states: usize) -> Result<Self, ScError> {
        Self::with_mode(states, StanhMode::Standard)
    }

    /// Creates a Stanh FSM with an explicit output threshold mode.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `states` is an even
    /// number of at least two.
    pub fn with_mode(states: usize, mode: StanhMode) -> Result<Self, ScError> {
        if states < 2 || !states.is_multiple_of(2) {
            return Err(ScError::InvalidParameter {
                name: "states",
                message: format!("state count must be an even number >= 2, got {states}"),
            });
        }
        Ok(Self {
            states,
            mode,
            state: states / 2,
        })
    }

    /// Number of FSM states `K`.
    pub fn states(&self) -> usize {
        self.states
    }

    /// The configured output threshold mode.
    pub fn mode(&self) -> StanhMode {
        self.mode
    }

    /// Resets the FSM to its centre state.
    pub fn reset(&mut self) {
        self.state = self.states / 2;
    }

    /// Advances the FSM by one input bit and returns the output bit.
    pub fn step(&mut self, input: bool) -> bool {
        if input {
            if self.state < self.states - 1 {
                self.state += 1;
            }
        } else if self.state > 0 {
            self.state -= 1;
        }
        self.state >= self.mode.threshold(self.states)
    }

    /// Runs the FSM over a whole input stream, producing the output stream.
    ///
    /// The FSM is reset before processing so repeated calls are independent.
    pub fn transform(&mut self, input: &BitStream) -> BitStream {
        self.reset();
        input.iter().map(|bit| self.step(bit)).collect()
    }

    /// The continuous function this FSM approximates: `tanh(K·x / 2)`.
    pub fn reference(&self, x: f64) -> f64 {
        (self.states as f64 / 2.0 * x).tanh()
    }
}

/// A [`Stanh`] FSM stepped a byte at a time.
///
/// Entry `(state, byte)` holds the state after the byte's 8 input bits (LSB
/// first) and the 8 output bits they produce, so a stream walks one table
/// lookup per input byte instead of 8 saturating updates. The table is
/// built from [`Stanh::step`] itself, once per block (it holds `256·K`
/// entries), and the walk is the same on every kernel backend.
#[derive(Clone, PartialEq, Eq)]
pub struct StanhTable {
    states: usize,
    mode: StanhMode,
    /// `next_state << 8 | output_byte`, at index `state << 8 | input_byte`.
    entries: Vec<u32>,
}

impl StanhTable {
    /// Largest state count a table is built for (a 64 MiB table).
    pub const MAX_STATES: usize = 1 << 16;

    /// Builds the byte table of a `states`-state FSM in `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `states` is an even
    /// number of at least two and at most [`StanhTable::MAX_STATES`].
    pub fn new(states: usize, mode: StanhMode) -> Result<Self, ScError> {
        let mut fsm = Stanh::with_mode(states, mode)?;
        if states > Self::MAX_STATES {
            return Err(ScError::InvalidParameter {
                name: "states",
                message: format!(
                    "byte table holds at most {} states, got {states}",
                    Self::MAX_STATES
                ),
            });
        }
        let mut entries = Vec::with_capacity(states << 8);
        for state in 0..states {
            for byte in 0..=u8::MAX {
                fsm.state = state;
                let output = (0..8).fold(0u32, |out, bit| {
                    out | u32::from(fsm.step((byte >> bit) & 1 == 1)) << bit
                });
                entries.push((fsm.state as u32) << 8 | output);
            }
        }
        Ok(Self {
            states,
            mode,
            entries,
        })
    }

    /// Number of FSM states `K`.
    pub fn states(&self) -> usize {
        self.states
    }

    /// The output threshold mode.
    pub fn mode(&self) -> StanhMode {
        self.mode
    }

    /// Runs one independent copy of the FSM, each starting from the centre
    /// state, over every input stream into the matching output buffer.
    /// Units advance word by word in groups of four, so the groups' lookup
    /// chains overlap. `outputs[u]` is bit-exact with [`Stanh::transform`]
    /// on `inputs[u]`, tail bits zeroed; streams may differ in length.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or an output's length differs
    /// from its input's.
    pub fn transform_into(&self, inputs: &[&BitStream], outputs: &mut [BitStream]) {
        const GROUP: usize = 4;
        assert_eq!(inputs.len(), outputs.len(), "one output per input");
        for (input, output) in inputs.iter().zip(outputs.iter()) {
            assert_eq!(input.len(), output.len(), "output length");
        }
        let centre = (self.states / 2) as u32;
        for (ins, outs) in inputs.chunks(GROUP).zip(outputs.chunks_mut(GROUP)) {
            let mut states = [centre; GROUP];
            let words = ins.iter().map(|s| s.as_words().len()).max().unwrap_or(0);
            for w in 0..words {
                for ((input, output), state) in ins.iter().zip(outs.iter_mut()).zip(&mut states) {
                    if let Some(&word) = input.as_words().get(w) {
                        output.words_mut()[w] = self.walk_word(state, word);
                    }
                }
            }
        }
        for output in outputs {
            output.mask_tail();
        }
    }

    /// Walks one 64-bit input word from `state`, a byte per lookup.
    #[inline(always)]
    fn walk_word(&self, state: &mut u32, word: u64) -> u64 {
        (0..8).fold(0u64, |out, byte| {
            let input = (word >> (8 * byte)) as u32 & 0xFF;
            let entry = self.entries[(*state << 8 | input) as usize];
            *state = entry >> 8;
            out | u64::from(entry & 0xFF) << (8 * byte)
        })
    }
}

/// Prints the FSM, not its `256·K` entries.
impl std::fmt::Debug for StanhTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StanhTable")
            .field("states", &self.states)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

/// Saturating up/down counter implementing a binary-input stochastic tanh.
///
/// The counter consumes the per-cycle binary counts of an APC-based adder.
/// Each cycle the state moves up by the number of ones and down by the number
/// of zeros seen across the `n` lanes (`Δ = 2·count − n`), saturating at the
/// ends; the output bit is one when the state is in the upper half.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Btanh {
    states: usize,
    state: i64,
}

impl Btanh {
    /// Creates a Btanh counter with `states` states.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `states` is an even
    /// number of at least two.
    pub fn new(states: usize) -> Result<Self, ScError> {
        if states < 2 || !states.is_multiple_of(2) {
            return Err(ScError::InvalidParameter {
                name: "states",
                message: format!("state count must be an even number >= 2, got {states}"),
            });
        }
        Ok(Self {
            states,
            state: states as i64 / 2,
        })
    }

    /// Number of counter states `K`.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Resets the counter to its centre state.
    pub fn reset(&mut self) {
        self.state = self.states as i64 / 2;
    }

    /// Advances the counter with one APC count (ones across `lanes` inputs)
    /// and returns the output bit.
    pub fn step(&mut self, count: u16, lanes: usize) -> bool {
        let delta = 2 * i64::from(count) - lanes as i64;
        self.state = (self.state + delta).clamp(0, self.states as i64 - 1);
        self.state >= self.states as i64 / 2
    }

    /// Runs the counter over an entire [`CountStream`], producing the output
    /// bit-stream. The counter is reset before processing.
    pub fn transform(&mut self, counts: &CountStream) -> BitStream {
        self.reset();
        counts
            .counts()
            .iter()
            .map(|&c| self.step(c, counts.lanes()))
            .collect()
    }

    /// Runs one independent copy of this counter over every count stream,
    /// interleaved in 64-cycle blocks across units: all units consume
    /// cycles `64w..64(w+1)` before any unit consumes the next block.
    ///
    /// Each copy is reset before processing; `result[u]` is bit-exact with
    /// [`Btanh::transform`] on `inputs[u]`. Streams may differ in length.
    pub fn transform_batch(&self, inputs: &[&CountStream]) -> Vec<BitStream> {
        self.transform_batch_with(inputs, &mut crate::arena::StreamArena::new())
    }

    /// [`Btanh::transform_batch`] with the output stream buffers taken from
    /// `arena` (recycle them when done). Results are identical.
    pub fn transform_batch_with(
        &self,
        inputs: &[&CountStream],
        arena: &mut crate::arena::StreamArena,
    ) -> Vec<BitStream> {
        let mut outputs: Vec<BitStream> = inputs
            .iter()
            .map(|c| arena.take_zeroed(StreamLength::new(c.len())))
            .collect();
        btanh_batch_words(inputs, &mut outputs, self.states);
        outputs
    }

    /// The continuous function the counter approximates for `n` input lanes:
    /// `tanh(n·x / 2)` where `x` is the mean of the summed bipolar inputs.
    pub fn reference(&self, lanes: usize, mean_input: f64) -> f64 {
        (lanes as f64 * mean_input / 2.0).tanh()
    }
}

fn btanh_batch_words(inputs: &[&CountStream], outputs: &mut [BitStream], states: usize) {
    dispatch_word_kernel!(
        btanh_batch_words_impl,
        act_avx2::btanh_batch_avx2,
        (inputs, outputs, states)
    )
}

/// Word-generic batch Btanh: groups of `LANES` units with equal length and
/// lane count walk their count streams with the counter states as super-word
/// lanes; remaining units take the 64-cycle-block scalar walk. Each unit's
/// output is bit-exact with [`Btanh::transform`] either way.
#[inline(always)]
fn btanh_batch_words_impl<W: Word>(
    inputs: &[&CountStream],
    outputs: &mut [BitStream],
    states: usize,
) {
    let mut unit = 0;
    if W::LANES > 1 {
        while unit + W::LANES <= inputs.len() {
            let len = inputs[unit].len();
            let lanes = inputs[unit].lanes();
            if !(1..W::LANES)
                .all(|l| inputs[unit + l].len() == len && inputs[unit + l].lanes() == lanes)
            {
                break;
            }
            btanh_unit_group::<W>(
                &inputs[unit..unit + W::LANES],
                &mut outputs[unit..unit + W::LANES],
                states,
                lanes,
                len,
            );
            unit += W::LANES;
        }
    }
    let rest = &inputs[unit..];
    if rest.is_empty() {
        return;
    }
    let mut unit_states: Vec<i64> = vec![states as i64 / 2; rest.len()];
    let max_words = rest.iter().map(|c| c.len().div_ceil(64)).max().unwrap_or(0);
    for w in 0..max_words {
        let start = w * 64;
        for (u, input) in rest.iter().enumerate() {
            if start >= input.len() {
                continue;
            }
            let end = (start + 64).min(input.len());
            let lanes = input.lanes() as i64;
            let mut out_word = 0u64;
            let mut state = unit_states[u];
            for (bit, &count) in input.counts()[start..end].iter().enumerate() {
                let delta = 2 * i64::from(count) - lanes;
                state = (state + delta).clamp(0, states as i64 - 1);
                out_word |= u64::from(state >= states as i64 / 2) << bit;
            }
            unit_states[u] = state;
            outputs[unit + u].words_mut()[w] = out_word;
        }
    }
}

/// One wide group of the batch Btanh walk: per cycle the `LANES` units'
/// counts are gathered into lanes and the saturating update
/// `state = clamp(state + 2·count − n, 0, K−1)` runs across all units.
#[inline(always)]
fn btanh_unit_group<W: Word>(
    inputs: &[&CountStream],
    outputs: &mut [BitStream],
    states: usize,
    lanes: usize,
    len: usize,
) {
    let words = len.div_ceil(64);
    let mut state = W::splat_i64(states as i64 / 2);
    let top = W::splat_i64(states as i64 - 1);
    let zero = W::zero();
    let one = W::splat(1);
    let neg_lanes = W::splat_i64(-(lanes as i64));
    let out_threshold = W::splat_i64(states as i64 / 2 - 1);
    let mut lane_counts = [0u64; 4];
    let mut out_lanes = [0u64; 4];
    for w in 0..words {
        let start = w * 64;
        let bits = ((len - start).min(64)) as u32;
        let mut out = W::zero();
        for bit in 0..bits {
            let t = start + bit as usize;
            for (l, c) in inputs.iter().enumerate() {
                lane_counts[l] = u64::from(c.counts()[t]);
            }
            let count = W::load(&lane_counts);
            state = state.add_i64(count.add_i64(count).add_i64(neg_lanes));
            state = state.blend(top, state.cmp_gt_i64(top));
            state = state.blend(zero, zero.cmp_gt_i64(state));
            out = out.or(state.cmp_gt_i64(out_threshold).and(one).shl(bit));
        }
        out.store(&mut out_lanes);
        for (l, o) in outputs.iter_mut().enumerate() {
            o.words_mut()[w] = out_lanes[l];
        }
    }
}

/// Concrete AVX2 entry points: `#[target_feature]` wrappers over the
/// `#[inline(always)]` generic kernels (see [`crate::word`]).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod act_avx2 {
    use super::*;
    use crate::word::WAvx2;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn btanh_batch_avx2(
        inputs: &[&CountStream],
        outputs: &mut [BitStream],
        states: usize,
    ) {
        btanh_batch_words_impl::<WAvx2>(inputs, outputs, states)
    }
}

/// Rounds a floating-point state count to the nearest even integer, flooring
/// at two (every FSM/counter in the paper uses an even state count).
pub fn nearest_even_state(value: f64) -> usize {
    let rounded = value.round() as i64;
    let even = if rounded % 2 == 0 {
        rounded
    } else {
        rounded + 1
    };
    even.max(2) as usize
}

/// Eq. (1): optimal Stanh state count for the MUX-Avg-Stanh block.
///
/// `K ≈ 2·log2(N) + log2(L)·N / (α·log2(N))` with `α = 33.27`, where `N` is
/// the input size and `L` the bit-stream length.
pub fn mux_avg_stanh_states(input_size: usize, stream_length: usize) -> usize {
    let n = input_size.max(2) as f64;
    let l = stream_length.max(2) as f64;
    let alpha = 33.27;
    let k = 2.0 * n.log2() + (l.log2() * n) / (alpha * n.log2());
    nearest_even_state(k)
}

/// Eq. (2): optimal Stanh state count for the MUX-Max-Stanh block.
///
/// `K ≈ 2·(log2 N + log2 L) − α/log2(N) − β/log5(L)` with `α = 37` and
/// `β = 16.5`.
pub fn mux_max_stanh_states(input_size: usize, stream_length: usize) -> usize {
    let n = input_size.max(2) as f64;
    let l = stream_length.max(2) as f64;
    let alpha = 37.0;
    let beta = 16.5;
    let k = 2.0 * (n.log2() + l.log2()) - alpha / n.log2() - beta / (l.ln() / 5f64.ln());
    nearest_even_state(k)
}

/// Eq. (3): optimal Btanh state count for the APC-Avg-Btanh block: `K ≈ N/2`.
pub fn apc_avg_btanh_states(input_size: usize) -> usize {
    nearest_even_state(input_size as f64 / 2.0)
}

/// Btanh state count for the APC-Max-Btanh block.
///
/// The paper reuses the original Btanh sizing (Kim et al., DAC'16) without
/// adjustment. For a counter fed by a single (un-averaged) APC the per-cycle
/// step has variance ≈ `N`, so matching the `tanh` gain requires `K ≈ 2·N`
/// (the four-way averaging in APC-Avg reduces that variance by four, which is
/// where Eq. 3's `N/2` comes from).
pub fn apc_max_btanh_states(input_size: usize) -> usize {
    nearest_even_state(2.0 * input_size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::add::ExactParallelCounter;
    use crate::bitstream::StreamLength;
    use crate::sng::{Sng, SngKind};

    #[test]
    fn stanh_rejects_bad_state_counts() {
        assert!(Stanh::new(0).is_err());
        assert!(Stanh::new(3).is_err());
        assert!(Stanh::new(2).is_ok());
        assert!(Btanh::new(0).is_err());
        assert!(Btanh::new(5).is_err());
    }

    #[test]
    fn stanh_tracks_tanh() {
        let len = StreamLength::new(8192);
        for &x in &[-0.8f64, -0.4, 0.0, 0.4, 0.8] {
            let mut sng = Sng::new(SngKind::Lfsr32, (x.to_bits() & 0xFFFF) + 17);
            let input = sng.generate_bipolar(x, len).unwrap();
            let mut stanh = Stanh::new(8).unwrap();
            let output = stanh.transform(&input);
            let expected = stanh.reference(x);
            assert!(
                (output.bipolar_value() - expected).abs() < 0.25,
                "Stanh(8, {x}) = {} but tanh(4x) = {expected}",
                output.bipolar_value()
            );
        }
    }

    #[test]
    fn stanh_saturates_at_extremes() {
        let len = StreamLength::new(2048);
        let mut sng = Sng::new(SngKind::Lfsr32, 5);
        let input = sng.generate_bipolar(0.95, len).unwrap();
        let mut stanh = Stanh::new(16).unwrap();
        let output = stanh.transform(&input);
        assert!(output.bipolar_value() > 0.9);
    }

    #[test]
    fn stanh_is_antisymmetric_statistically() {
        let len = StreamLength::new(8192);
        let mut sng_pos = Sng::new(SngKind::Lfsr32, 42);
        let mut sng_neg = Sng::new(SngKind::Lfsr32, 42);
        let pos = sng_pos.generate_bipolar(0.5, len).unwrap();
        let neg = sng_neg.generate_bipolar(-0.5, len).unwrap();
        let mut stanh = Stanh::new(10).unwrap();
        let out_pos = stanh.transform(&pos).bipolar_value();
        let out_neg = stanh.transform(&neg).bipolar_value();
        assert!((out_pos + out_neg).abs() < 0.2);
    }

    #[test]
    fn shifted_mode_biases_output_upward() {
        let len = StreamLength::new(4096);
        let mut sng = Sng::new(SngKind::Lfsr32, 9);
        let input = sng.generate_bipolar(-0.2, len).unwrap();
        let mut standard = Stanh::with_mode(20, StanhMode::Standard).unwrap();
        let mut shifted = Stanh::with_mode(20, StanhMode::ShiftedFifth).unwrap();
        let standard_out = standard.transform(&input).bipolar_value();
        let shifted_out = shifted.transform(&input).bipolar_value();
        assert!(shifted_out > standard_out);
    }

    #[test]
    fn stanh_reset_between_transforms() {
        let a = BitStream::from_binary_str("1111111100000000").unwrap();
        let mut stanh = Stanh::new(4).unwrap();
        let first = stanh.transform(&a);
        let second = stanh.transform(&a);
        assert_eq!(first, second);
    }

    #[test]
    fn btanh_tracks_scaled_tanh() {
        let len = StreamLength::new(4096);
        let values = [0.3, 0.3, 0.3, 0.3];
        let streams: Vec<BitStream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Sng::new(SngKind::Lfsr32, 300 + i as u64)
                    .generate_bipolar(v, len)
                    .unwrap()
            })
            .collect();
        let counts = ExactParallelCounter::new().count(&streams).unwrap();
        let mut btanh = Btanh::new(apc_avg_btanh_states(values.len())).unwrap();
        let output = btanh.transform(&counts);
        // The sum is 1.2; Btanh saturates towards +1 for clearly positive sums.
        assert!(output.bipolar_value() > 0.5);
    }

    #[test]
    fn btanh_is_negative_for_negative_sums() {
        let len = StreamLength::new(4096);
        let values = [-0.4, -0.3, -0.5, -0.2];
        let streams: Vec<BitStream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Sng::new(SngKind::Lfsr32, 400 + i as u64)
                    .generate_bipolar(v, len)
                    .unwrap()
            })
            .collect();
        let counts = ExactParallelCounter::new().count(&streams).unwrap();
        let mut btanh = Btanh::new(4).unwrap();
        let output = btanh.transform(&counts);
        assert!(output.bipolar_value() < -0.5);
    }

    #[test]
    fn stanh_table_entries_match_eight_fsm_steps() {
        for states in (2..=64).step_by(2) {
            for mode in [StanhMode::Standard, StanhMode::ShiftedFifth] {
                let table = StanhTable::new(states, mode).unwrap();
                assert_eq!((table.states(), table.mode()), (states, mode));
                let mut fsm = Stanh::with_mode(states, mode).unwrap();
                for state in 0..states {
                    for byte in 0..=u8::MAX {
                        fsm.state = state;
                        let mut output = 0u8;
                        for bit in 0..8 {
                            output |= u8::from(fsm.step((byte >> bit) & 1 == 1)) << bit;
                        }
                        let entry = table.entries[state << 8 | usize::from(byte)];
                        assert_eq!(
                            ((entry >> 8) as usize, entry as u8),
                            (fsm.state, output),
                            "K {states} {mode:?} state {state} byte {byte:#04x}"
                        );
                    }
                }
            }
        }
        assert!(StanhTable::new(3, StanhMode::Standard).is_err());
        assert!(StanhTable::new(StanhTable::MAX_STATES + 2, StanhMode::Standard).is_err());
    }

    #[test]
    fn stanh_batch_matches_per_unit_transform() {
        // Ragged lengths, with tails where the walk's zero-padded input
        // would leave ones in the output word unless they are masked.
        let lengths = [1usize, 7, 63, 65, 100, 1024];
        let streams: Vec<BitStream> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                Sng::new(SngKind::Lfsr32, 70 + i as u64)
                    .generate_bipolar(0.3 - 0.15 * i as f64, StreamLength::new(len))
                    .unwrap()
            })
            .collect();
        let refs: Vec<&BitStream> = streams.iter().collect();
        for states in [2usize, 18, 28, 64] {
            for mode in [StanhMode::Standard, StanhMode::ShiftedFifth] {
                let table = StanhTable::new(states, mode).unwrap();
                let mut batch: Vec<BitStream> = streams
                    .iter()
                    .map(|s| BitStream::zeros(s.stream_length()))
                    .collect();
                table.transform_into(&refs, &mut batch);
                for (unit, stream) in streams.iter().enumerate() {
                    let mut fsm = Stanh::with_mode(states, mode).unwrap();
                    let expected = fsm.transform(stream);
                    assert_eq!(batch[unit], expected, "unit {unit} K {states} {mode:?}");
                }
            }
        }
        StanhTable::new(8, StanhMode::Standard)
            .unwrap()
            .transform_into(&[], &mut []);
    }

    #[test]
    fn btanh_batch_matches_per_unit_transform() {
        let counts: Vec<CountStream> = [64usize, 100, 127, 1]
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let streams: Vec<BitStream> = (0..4)
                    .map(|lane| {
                        Sng::new(SngKind::Lfsr32, 500 + i as u64 * 7 + lane)
                            .generate_bipolar(0.4 - 0.2 * lane as f64, StreamLength::new(len))
                            .unwrap()
                    })
                    .collect();
                ExactParallelCounter::new().count(&streams).unwrap()
            })
            .collect();
        let refs: Vec<&CountStream> = counts.iter().collect();
        let template = Btanh::new(6).unwrap();
        let batch = template.transform_batch(&refs);
        for (unit, count_stream) in counts.iter().enumerate() {
            let mut counter = Btanh::new(6).unwrap();
            assert_eq!(batch[unit], counter.transform(count_stream), "unit {unit}");
        }
        assert!(template.transform_batch(&[]).is_empty());
    }

    /// Every super-word backend of the batch Btanh walk must match the scalar
    /// backend bit-for-bit, across unit counts that exercise both the wide
    /// groups and the scalar remainder, and ragged stream tails. (The Stanh
    /// byte-table walk is the same on every backend.)
    #[test]
    fn activation_batches_bit_exact_across_backends() {
        fn check<W: Word>(backend: &str) {
            for &len in &[100usize, 127, 1024] {
                // 9 units: at least one wide group plus a remainder for
                // every backend lane width.
                let counts: Vec<CountStream> = (0..9)
                    .map(|u| {
                        let lanes: Vec<BitStream> = (0..4)
                            .map(|lane| {
                                Sng::new(SngKind::Lfsr32, 500 + u as u64 * 7 + lane)
                                    .generate_bipolar(
                                        0.4 - 0.2 * lane as f64,
                                        StreamLength::new(len),
                                    )
                                    .unwrap()
                            })
                            .collect();
                        ExactParallelCounter::new().count(&lanes).unwrap()
                    })
                    .collect();
                let count_refs: Vec<&CountStream> = counts.iter().collect();
                let mut expected: Vec<BitStream> = counts
                    .iter()
                    .map(|c| BitStream::zeros(StreamLength::new(c.len())))
                    .collect();
                let mut got = expected.clone();
                btanh_batch_words_impl::<u64>(&count_refs, &mut expected, 6);
                btanh_batch_words_impl::<W>(&count_refs, &mut got, 6);
                assert_eq!(got, expected, "{backend} btanh len {len}");
            }
        }
        check::<crate::word::W4>("wide");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if crate::word::Backend::Avx2.is_available() {
            check::<crate::word::WAvx2>("avx2");
        }
    }

    #[test]
    fn nearest_even_state_rounds_correctly() {
        assert_eq!(nearest_even_state(7.2), 8);
        assert_eq!(nearest_even_state(8.0), 8);
        assert_eq!(nearest_even_state(8.9), 10);
        assert_eq!(nearest_even_state(0.3), 2);
        assert_eq!(nearest_even_state(-3.0), 2);
    }

    #[test]
    fn state_formulas_are_even_and_positive() {
        for &n in &[4usize, 16, 25, 64, 256] {
            for &l in &[128usize, 256, 1024, 4096] {
                for k in [
                    mux_avg_stanh_states(n, l),
                    mux_max_stanh_states(n, l),
                    apc_avg_btanh_states(n),
                    apc_max_btanh_states(n),
                ] {
                    assert!(k >= 2);
                    assert_eq!(k % 2, 0);
                }
            }
        }
    }

    #[test]
    fn eq1_matches_paper_magnitude() {
        // For N = 16, L = 1024 the formula gives roughly K ≈ 2*4 + 10*16/(33.27*4) ≈ 9.2 → 10.
        assert_eq!(mux_avg_stanh_states(16, 1024), 10);
    }

    #[test]
    fn eq3_is_half_input_size() {
        assert_eq!(apc_avg_btanh_states(16), 8);
        assert_eq!(apc_avg_btanh_states(64), 32);
    }
}

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
//! count rather than a bit, walks 8 rows per step from a row-interleaved
//! count buffer ([`Btanh::transform_rows`]: `i32` lanes, one AVX2
//! instruction per operation where available); the per-unit
//! [`Btanh::transform`] stays the `i64` definition it is checked against.

use crate::add::CountStream;
use crate::bitstream::BitStream;
use crate::csa::{transpose8, ROW_GROUP};
use crate::error::ScError;
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

    /// Runs one independent copy of this counter, each from the centre
    /// state, over every row of a row-interleaved, cycle-major count buffer
    /// (the layout [`CountPlanes::drain_interleaved`] writes): row `r`'s
    /// count at cycle `t` is `counts[(r / ROW_GROUP · len + t) · ROW_GROUP +
    /// r % ROW_GROUP]`, `len` being the outputs' length, and every row
    /// counts `lanes` lanes. `outputs[r]` becomes bit-exact with
    /// [`Btanh::transform`] on row `r`'s counts; the rows that pad the last
    /// group to [`ROW_GROUP`] are walked and discarded.
    ///
    /// The [`ROW_GROUP`] rows of a group step together, one `i32` lane
    /// each: per cycle one add and a `max`/`min` clamp update every state,
    /// and a compare gives the rows' output bits as a mask; an 8×8 bit
    /// transpose turns 8 cycles' masks into one byte per row. The AVX2
    /// backend runs the group in one 256-bit vector (the mask is a
    /// move-mask); the other backends run a portable `[i32; 8]`. A state
    /// count or lane count whose walk could leave the `i32` range takes the
    /// exact `i64` [`Btanh::step`] per row instead.
    ///
    /// # Panics
    ///
    /// Panics if the outputs differ in length, or `counts` does not hold
    /// `outputs.len()` rounded up to a multiple of [`ROW_GROUP`] rows of
    /// `len` cycles.
    ///
    /// [`CountPlanes::drain_interleaved`]: crate::csa::CountPlanes::drain_interleaved
    pub fn transform_rows(&self, counts: &[u16], lanes: usize, outputs: &mut [BitStream]) {
        let Some(len) = outputs.first().map(BitStream::len) else {
            return;
        };
        assert!(
            outputs.iter().all(|output| output.len() == len),
            "outputs of different lengths"
        );
        assert_eq!(
            counts.len(),
            outputs.len().next_multiple_of(ROW_GROUP) * len,
            "one count per padded row and cycle"
        );
        if !walk_fits_i32(self.states, lanes) {
            return self.transform_rows_i64(counts, lanes, outputs);
        }
        let walk = RowWalk {
            centre: (self.states / 2) as i32,
            top: self.states as i32 - 1,
            lanes: lanes as i32,
        };
        match crate::word::active_backend() {
            #[cfg(target_arch = "x86_64")]
            crate::word::Backend::Avx2 => {
                // SAFETY: `active_backend` reports AVX2 only after runtime
                // feature detection.
                unsafe { rows_avx2::walk_rows_avx2(counts, len, &walk, outputs) }
            }
            _ => walk_rows::<PortableRows>(counts, len, &walk, outputs),
        }
    }

    /// [`Btanh::transform_rows`] one row at a time with the exact `i64`
    /// step, for walks that do not fit `i32`.
    fn transform_rows_i64(&self, counts: &[u16], lanes: usize, outputs: &mut [BitStream]) {
        let mut counter = self.clone();
        for (r, output) in outputs.iter_mut().enumerate() {
            let len = output.len();
            let first = r / ROW_GROUP * len * ROW_GROUP + r % ROW_GROUP;
            counter.reset();
            let words = output.words_mut();
            words.fill(0);
            for t in 0..len {
                let bit = counter.step(counts[first + t * ROW_GROUP], lanes);
                words[t / 64] |= u64::from(bit) << (t % 64);
            }
        }
    }

    /// The continuous function the counter approximates for `n` input lanes:
    /// `tanh(n·x / 2)` where `x` is the mean of the summed bipolar inputs.
    pub fn reference(&self, lanes: usize, mean_input: f64) -> f64 {
        (lanes as f64 * mean_input / 2.0).tanh()
    }
}

/// Whether every value a walk of a `states`-state counter over `lanes`-lane
/// `u16` counts computes fits `i32`: a state stays in `0 .. states`, and a
/// step adds `2 · count − lanes`, so the sums lie in
/// `−lanes ..= states − 1 + 2 · u16::MAX`.
fn walk_fits_i32(states: usize, lanes: usize) -> bool {
    states <= i32::MAX as usize + 1 - 2 * usize::from(u16::MAX) && lanes <= i32::MAX as usize
}

/// The constants of one [`Btanh::transform_rows`] walk, all within `i32`:
/// every state starts at `centre`, and a cycle's count `c` moves it by
/// `2c − lanes`, clamped to `0 ..= top`; the output bit is one from
/// `centre` up.
#[derive(Clone, Copy)]
struct RowWalk {
    centre: i32,
    top: i32,
    lanes: i32,
}

/// The counter states of one group of [`ROW_GROUP`] rows.
trait RowStates {
    /// Every row at the walk's centre state.
    fn centre(walk: &RowWalk) -> Self;

    /// Steps every row by its count of one cycle (`counts`: the group's
    /// [`ROW_GROUP`] counts of the cycle) and returns the rows' output
    /// bits, bit `r` for row `r`.
    fn step(&mut self, counts: &[u16]) -> u64;
}

/// The portable row states: plain `i32` lanes the compiler may vectorize.
struct PortableRows {
    state: [i32; ROW_GROUP],
    walk: RowWalk,
}

impl RowStates for PortableRows {
    #[inline(always)]
    fn centre(walk: &RowWalk) -> Self {
        Self {
            state: [walk.centre; ROW_GROUP],
            walk: *walk,
        }
    }

    #[inline(always)]
    fn step(&mut self, counts: &[u16]) -> u64 {
        let walk = self.walk;
        for (state, &count) in self.state.iter_mut().zip(&counts[..ROW_GROUP]) {
            *state = (*state + 2 * i32::from(count) - walk.lanes)
                .max(0)
                .min(walk.top);
        }
        // A separate pass, so the update above stays a vector loop.
        let mut above = [0u8; ROW_GROUP];
        for (bit, &state) in above.iter_mut().zip(&self.state) {
            *bit = u8::from(state >= walk.centre);
        }
        // Byte `r` holds row `r`'s bit; the multiply gathers it into bit `56 + r`.
        u64::from_le_bytes(above).wrapping_mul(0x0102_0408_1020_4080) >> 56
    }
}

/// The body of [`Btanh::transform_rows`] for walks that fit `i32`: per
/// group of [`ROW_GROUP`] rows, 8 cycles of output masks (byte `t` of a
/// word: the rows' bits at cycle `t`) are transposed into one byte per row
/// and OR-ed into the rows' output words.
#[inline(always)]
fn walk_rows<S: RowStates>(counts: &[u16], len: usize, walk: &RowWalk, outputs: &mut [BitStream]) {
    for (group, rows) in counts
        .chunks_exact(ROW_GROUP * len)
        .zip(outputs.chunks_mut(ROW_GROUP))
    {
        let mut states = S::centre(walk);
        for (w, cycles) in group.chunks(ROW_GROUP * 64).enumerate() {
            let mut words = [0u64; ROW_GROUP];
            for (block, cycles) in cycles.chunks(ROW_GROUP * 8).enumerate() {
                let mut masks = 0u64;
                if let Ok(cycles) = <&[u16; ROW_GROUP * 8]>::try_from(cycles) {
                    // A whole block: fixed offsets, unrolled.
                    for t in 0..8 {
                        let cycle = &cycles[ROW_GROUP * t..ROW_GROUP * (t + 1)];
                        masks |= states.step(cycle) << (8 * t);
                    }
                } else {
                    for (t, cycle) in cycles.chunks_exact(ROW_GROUP).enumerate() {
                        masks |= states.step(cycle) << (8 * t);
                    }
                }
                let bytes = transpose8(masks).to_le_bytes();
                for (word, byte) in words.iter_mut().zip(bytes) {
                    *word |= u64::from(byte) << (8 * block);
                }
            }
            for (row, word) in rows.iter_mut().zip(words) {
                row.words_mut()[w] = word;
            }
        }
    }
}

/// The AVX2 row walk: a group's states in one 256-bit vector.
#[cfg(target_arch = "x86_64")]
mod rows_avx2 {
    use super::{walk_rows, RowStates, RowWalk, ROW_GROUP};
    use crate::bitstream::BitStream;
    use std::arch::x86_64::*;

    struct Avx2Rows {
        state: __m256i,
        top: __m256i,
        lanes: __m256i,
        below: __m256i,
    }

    impl RowStates for Avx2Rows {
        #[inline(always)]
        fn centre(walk: &RowWalk) -> Self {
            // SAFETY: only reached from `walk_rows_avx2`, whose caller
            // verified AVX2 support.
            unsafe {
                Self {
                    state: _mm256_set1_epi32(walk.centre),
                    top: _mm256_set1_epi32(walk.top),
                    lanes: _mm256_set1_epi32(walk.lanes),
                    below: _mm256_set1_epi32(walk.centre - 1),
                }
            }
        }

        #[inline(always)]
        fn step(&mut self, counts: &[u16]) -> u64 {
            let counts = &counts[..ROW_GROUP];
            // SAFETY: as above; the reslice guarantees the 16 bytes the
            // unaligned load reads.
            unsafe {
                let count = _mm256_cvtepu16_epi32(_mm_loadu_si128(counts.as_ptr().cast()));
                let delta = _mm256_sub_epi32(_mm256_add_epi32(count, count), self.lanes);
                let next =
                    _mm256_max_epi32(_mm256_add_epi32(self.state, delta), _mm256_setzero_si256());
                self.state = _mm256_min_epi32(next, self.top);
                let above = _mm256_cmpgt_epi32(self.state, self.below);
                u64::from(_mm256_movemask_ps(_mm256_castsi256_ps(above)) as u32)
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk_rows_avx2(
        counts: &[u16],
        len: usize,
        walk: &RowWalk,
        outputs: &mut [BitStream],
    ) {
        walk_rows::<Avx2Rows>(counts, len, walk, outputs)
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

    /// Pseudo-random counts in `0..=lanes` (splitmix64).
    fn random_counts(len: usize, lanes: usize, salt: u64) -> Vec<u16> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z ^ (z >> 29)) % (lanes as u64 + 1)) as u16
            })
            .collect()
    }

    /// Rows of counts laid out as [`Btanh::transform_rows`] reads them.
    fn interleave(rows: &[Vec<u16>], len: usize) -> Vec<u16> {
        let mut counts = vec![0u16; rows.len().next_multiple_of(ROW_GROUP) * len];
        for (r, row) in rows.iter().enumerate() {
            for (t, &count) in row.iter().enumerate() {
                counts[(r / ROW_GROUP * len + t) * ROW_GROUP + r % ROW_GROUP] = count;
            }
        }
        counts
    }

    /// The row walk's outputs from every body this build and CPU can run,
    /// each labelled: the portable body, the AVX2 body, and the dispatched
    /// entry point (which takes the `i64` step when the walk does not fit
    /// `i32`). The outputs start dirty, to show every word is written.
    fn row_walks(
        btanh: &Btanh,
        counts: &[u16],
        lanes: usize,
        rows: usize,
        len: usize,
    ) -> Vec<(&'static str, Vec<BitStream>)> {
        let dirty = || vec![BitStream::ones(StreamLength::new(len)); rows];
        let walk = RowWalk {
            centre: (btanh.states / 2) as i32,
            top: btanh.states as i32 - 1,
            lanes: lanes as i32,
        };
        let mut runs = Vec::new();
        let mut outputs = dirty();
        btanh.transform_rows(counts, lanes, &mut outputs);
        runs.push(("dispatched", outputs));
        if walk_fits_i32(btanh.states, lanes) {
            let mut outputs = dirty();
            walk_rows::<PortableRows>(counts, len, &walk, &mut outputs);
            runs.push(("portable", outputs));
            #[cfg(target_arch = "x86_64")]
            if crate::word::Backend::Avx2.is_available() {
                let mut outputs = dirty();
                // SAFETY: AVX2 availability was checked above.
                unsafe { rows_avx2::walk_rows_avx2(counts, len, &walk, &mut outputs) };
                runs.push(("avx2", outputs));
            }
        }
        runs
    }

    /// The row walk against the per-unit counter: row counts around the
    /// group of 8 (one short, one over, several groups), lengths around
    /// every word and 8-cycle block, the smallest counter (K = 2), and a
    /// row of all-zero and one of all-`lanes` counts (saturation at both
    /// ends), on every body.
    #[test]
    fn btanh_batch_matches_per_unit_transform() {
        for rows in [1usize, 7, 8, 9, 16, 64] {
            for len in [1usize, 63, 64, 127, 256, 1024] {
                for (states, lanes) in [(2usize, 1usize), (2, 25), (50, 25), (16, 100), (512, 200)]
                {
                    let row_counts: Vec<Vec<u16>> = (0..rows)
                        .map(|r| match r {
                            0 => vec![0; len],
                            1 => vec![lanes as u16; len],
                            _ => random_counts(len, lanes, (rows * 1000 + len + r) as u64),
                        })
                        .collect();
                    let btanh = Btanh::new(states).unwrap();
                    let expected: Vec<BitStream> = row_counts
                        .iter()
                        .map(|counts| {
                            let counts = CountStream::new(counts.clone(), lanes).unwrap();
                            btanh.clone().transform(&counts)
                        })
                        .collect();
                    let counts = interleave(&row_counts, len);
                    for (body, outputs) in row_walks(&btanh, &counts, lanes, rows, len) {
                        assert_eq!(
                            outputs, expected,
                            "{body}: {rows} rows, {len} cycles, K {states}, {lanes} lanes"
                        );
                    }
                }
            }
        }
        Btanh::new(6).unwrap().transform_rows(&[], 4, &mut []);
    }

    /// At the largest state count whose walk fits `i32` every body steps
    /// in `i32` (an overflow would panic in the test build); one more even
    /// count takes the `i64` step. Both stay exact over walks that climb
    /// from the centre to the top and fall to the bottom with the largest
    /// per-cycle step.
    #[test]
    fn activation_batches_bit_exact_across_backends() {
        let lanes = usize::from(u16::MAX);
        let edge = i32::MAX as usize + 1 - 2 * usize::from(u16::MAX);
        assert!(walk_fits_i32(edge, lanes) && !walk_fits_i32(edge + 2, lanes));
        let len = 70_000;
        let climb: Vec<u16> = (0..len)
            .map(|t| if t < len / 2 { u16::MAX } else { 0 })
            .collect();
        let fall: Vec<u16> = climb.iter().map(|&c| u16::MAX - c).collect();
        let row_counts = [climb, fall, random_counts(len, lanes, 3)];
        let counts = interleave(&row_counts, len);
        for states in [edge, edge + 2] {
            let btanh = Btanh::new(states).unwrap();
            let expected: Vec<BitStream> = row_counts
                .iter()
                .map(|counts| {
                    let counts = CountStream::new(counts.clone(), lanes).unwrap();
                    btanh.clone().transform(&counts)
                })
                .collect();
            assert!(expected[0].count_ones() > 0 && expected[1].count_ones() > 0);
            let runs = row_walks(&btanh, &counts, lanes, row_counts.len(), len);
            assert_eq!(runs.len() > 1, states == edge, "K {states}");
            for (body, outputs) in runs {
                assert_eq!(outputs, expected, "{body}: K {states}");
            }
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

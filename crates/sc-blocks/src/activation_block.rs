//! Activation function blocks with jointly-optimized state counts.
//!
//! Section 4.4 of the paper stresses that the activation FSM cannot be sized
//! in isolation: the optimal state count depends on the input size `N`
//! (because MUX adders scale by `1/N`), the bit-stream length `L`, and which
//! pooling block precedes it. This module wraps [`sc_core::activation`] with
//! that joint selection logic so the feature-extraction layer can simply ask
//! for "the right activation block for this configuration".

use sc_core::activation::{
    apc_avg_btanh_states, apc_max_btanh_states, mux_avg_stanh_states, mux_max_stanh_states, Btanh,
    Stanh, StanhMode, StanhTable,
};
use sc_core::add::CountStream;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::error::ScError;
use serde::{Deserialize, Serialize};

/// Which activation implementation a feature extraction block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// FSM-based Stanh, consuming a (scaled) bit-stream.
    Stanh,
    /// Counter-based Btanh, consuming APC binary counts.
    Btanh,
}

impl ActivationKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ActivationKind::Stanh => "Stanh",
            ActivationKind::Btanh => "Btanh",
        }
    }
}

/// A Stanh activation block whose state count is derived from the feature
/// extraction block configuration (Eq. 1 or Eq. 2).
///
/// The block builds its FSM's byte table ([`StanhTable`]) once, at
/// construction, for the batch walk; [`StanhBlock::apply`] keeps the per-bit
/// FSM, so the per-unit interpreter checks the table against an independent
/// walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StanhBlock {
    table: StanhTable,
}

impl StanhBlock {
    /// Builds the Stanh block for a MUX-Avg-Stanh feature extraction block.
    ///
    /// # Errors
    ///
    /// Propagates [`ScError::InvalidParameter`] if the derived state count is
    /// unusable (cannot happen for the supported parameter ranges).
    pub fn for_mux_avg(input_size: usize, stream_length: usize) -> Result<Self, ScError> {
        let states = mux_avg_stanh_states(input_size, stream_length);
        Self::with_states(states, StanhMode::Standard)
    }

    /// Builds the re-designed Stanh block for a MUX-Max-Stanh feature
    /// extraction block (shifted output threshold, Eq. 2).
    ///
    /// # Errors
    ///
    /// Propagates [`ScError::InvalidParameter`] if the derived state count is
    /// unusable (cannot happen for the supported parameter ranges).
    pub fn for_mux_max(input_size: usize, stream_length: usize) -> Result<Self, ScError> {
        let states = mux_max_stanh_states(input_size, stream_length);
        Self::with_states(states, StanhMode::ShiftedFifth)
    }

    /// Builds a Stanh block with an explicit state count (used by ablations).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `states` is an even
    /// number of at least two and at most [`StanhTable::MAX_STATES`].
    pub fn with_states(states: usize, mode: StanhMode) -> Result<Self, ScError> {
        Ok(Self {
            table: StanhTable::new(states, mode)?,
        })
    }

    /// The selected state count `K`.
    pub fn states(&self) -> usize {
        self.table.states()
    }

    /// The output threshold mode.
    pub fn mode(&self) -> StanhMode {
        self.table.mode()
    }

    /// Applies the activation to a (scaled) input stream, one FSM step per
    /// bit.
    pub fn apply(&self, input: &BitStream) -> BitStream {
        let mut fsm = Stanh::with_mode(self.states(), self.mode())
            .expect("state count validated at construction");
        fsm.transform(input)
    }

    /// Applies one independent copy of the activation to every unit's
    /// stream through the byte table ([`StanhTable::transform_into`]), with
    /// the output stream buffers taken from `arena` (recycle them when
    /// done). `result[u]` is bit-exact with [`StanhBlock::apply`] on
    /// `inputs[u]`.
    pub fn apply_batch_with(
        &self,
        inputs: &[&BitStream],
        arena: &mut sc_core::arena::StreamArena,
    ) -> Vec<BitStream> {
        let mut outputs: Vec<BitStream> = inputs
            .iter()
            .map(|s| arena.take_zeroed(s.stream_length()))
            .collect();
        self.table.transform_into(inputs, &mut outputs);
        outputs
    }

    /// The continuous function this block approximates for an *unscaled*
    /// input `x` that was divided by `input_size` before reaching the FSM.
    ///
    /// `Stanh(K, x/N) ≈ tanh(K·x / (2N))`; with `K` chosen by Eq. 1/2 the
    /// overall block approximates `tanh(x)` up to the empirical fit error.
    pub fn reference(&self, x: f64) -> f64 {
        x.tanh()
    }
}

/// A Btanh activation block whose state count follows Eq. 3 (average pooling)
/// or the original Kim et al. sizing (max pooling).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtanhBlock {
    states: usize,
}

impl BtanhBlock {
    /// Builds the Btanh block for an APC-Avg-Btanh feature extraction block
    /// (Eq. 3: `K ≈ N/2`).
    ///
    /// # Errors
    ///
    /// Propagates [`ScError::InvalidParameter`] if the derived state count is
    /// unusable (cannot happen for the supported parameter ranges).
    pub fn for_apc_avg(input_size: usize) -> Result<Self, ScError> {
        let states = apc_avg_btanh_states(input_size);
        Btanh::new(states)?;
        Ok(Self { states })
    }

    /// Builds the Btanh block for an APC-Max-Btanh feature extraction block.
    ///
    /// # Errors
    ///
    /// Propagates [`ScError::InvalidParameter`] if the derived state count is
    /// unusable (cannot happen for the supported parameter ranges).
    pub fn for_apc_max(input_size: usize) -> Result<Self, ScError> {
        let states = apc_max_btanh_states(input_size);
        Btanh::new(states)?;
        Ok(Self { states })
    }

    /// Builds a Btanh block with an explicit state count (used by ablations).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] unless `states` is an even
    /// number of at least two.
    pub fn with_states(states: usize) -> Result<Self, ScError> {
        Btanh::new(states)?;
        Ok(Self { states })
    }

    /// The selected state count `K`.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Applies the activation to a binary count stream.
    pub fn apply(&self, counts: &CountStream) -> BitStream {
        let mut counter = Btanh::new(self.states).expect("state count validated at construction");
        counter.transform(counts)
    }

    /// Applies one independent copy of the activation to each of `rows`
    /// rows of `lanes`-lane counts held row-interleaved in `counts` (the
    /// layout of [`CountPlanes::drain_interleaved`], walked by
    /// [`Btanh::transform_rows`]), with the output streams of `length` bits
    /// taken from `arena` (recycle them when done). `result[r]` is
    /// bit-exact with [`BtanhBlock::apply`] on row `r`'s counts.
    ///
    /// # Panics
    ///
    /// Panics unless `counts` holds `rows` rounded up to a multiple of
    /// [`ROW_GROUP`] rows of `length` cycles.
    ///
    /// [`CountPlanes::drain_interleaved`]: sc_core::csa::CountPlanes::drain_interleaved
    /// [`ROW_GROUP`]: sc_core::csa::ROW_GROUP
    pub fn apply_rows_with(
        &self,
        counts: &[u16],
        rows: usize,
        lanes: usize,
        length: StreamLength,
        arena: &mut sc_core::arena::StreamArena,
    ) -> Vec<BitStream> {
        let mut outputs: Vec<BitStream> = (0..rows).map(|_| arena.take_zeroed(length)).collect();
        Btanh::new(self.states)
            .expect("state count validated at construction")
            .transform_rows(counts, lanes, &mut outputs);
        outputs
    }

    /// The continuous function this block approximates for an unscaled sum `x`.
    pub fn reference(&self, x: f64) -> f64 {
        x.tanh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::add::ExactParallelCounter;
    use sc_core::bitstream::StreamLength;
    use sc_core::sng::{Sng, SngKind};

    #[test]
    fn state_counts_follow_formulas() {
        let block = StanhBlock::for_mux_avg(16, 1024).unwrap();
        assert_eq!(block.states(), mux_avg_stanh_states(16, 1024));
        assert_eq!(block.mode(), StanhMode::Standard);

        let block = StanhBlock::for_mux_max(64, 1024).unwrap();
        assert_eq!(block.states(), mux_max_stanh_states(64, 1024));
        assert_eq!(block.mode(), StanhMode::ShiftedFifth);

        let block = BtanhBlock::for_apc_avg(64).unwrap();
        assert_eq!(block.states(), 32);

        let block = BtanhBlock::for_apc_max(16).unwrap();
        assert_eq!(block.states(), 32);
    }

    #[test]
    fn explicit_state_counts_are_validated() {
        assert!(StanhBlock::with_states(3, StanhMode::Standard).is_err());
        assert!(BtanhBlock::with_states(0).is_err());
        assert!(StanhBlock::with_states(8, StanhMode::Standard).is_ok());
        assert!(BtanhBlock::with_states(8).is_ok());
    }

    #[test]
    fn stanh_block_output_has_same_length() {
        let block = StanhBlock::for_mux_avg(16, 512).unwrap();
        let mut sng = Sng::new(SngKind::Lfsr32, 2);
        let input = sng.generate_bipolar(0.2, StreamLength::new(512)).unwrap();
        let output = block.apply(&input);
        assert_eq!(output.len(), 512);
    }

    #[test]
    fn stanh_block_batch_matches_per_unit_apply() {
        let inputs: Vec<BitStream> = [1usize, 100, 1024, 1024, 127]
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                Sng::new(SngKind::Lfsr32, 30 + i as u64)
                    .generate_bipolar(0.25 - 0.1 * i as f64, StreamLength::new(len))
                    .unwrap()
            })
            .collect();
        let refs: Vec<&BitStream> = inputs.iter().collect();
        let mut arena = sc_core::arena::StreamArena::new();
        for block in [
            StanhBlock::for_mux_max(25, 1024).unwrap(),
            StanhBlock::for_mux_avg(16, 256).unwrap(),
        ] {
            let outputs = block.apply_batch_with(&refs, &mut arena);
            for (unit, input) in inputs.iter().enumerate() {
                assert_eq!(outputs[unit], block.apply(input), "unit {unit}");
            }
            arena.recycle_all(outputs);
        }
    }

    #[test]
    fn btanh_block_saturates_on_strong_sums() {
        let block = BtanhBlock::for_apc_avg(4).unwrap();
        let streams: Vec<_> = (0..4)
            .map(|i| {
                Sng::new(SngKind::Lfsr32, 60 + i)
                    .generate_bipolar(0.6, StreamLength::new(2048))
                    .unwrap()
            })
            .collect();
        let counts = ExactParallelCounter::new().count(&streams).unwrap();
        let output = block.apply(&counts);
        assert!(output.bipolar_value() > 0.6);
    }

    #[test]
    fn references_are_tanh() {
        let stanh = StanhBlock::for_mux_avg(16, 256).unwrap();
        let btanh = BtanhBlock::for_apc_avg(16).unwrap();
        assert!((stanh.reference(0.5) - 0.5f64.tanh()).abs() < 1e-12);
        assert!((btanh.reference(-0.7) - (-0.7f64).tanh()).abs() < 1e-12);
    }

    #[test]
    fn activation_kind_names() {
        assert_eq!(ActivationKind::Stanh.name(), "Stanh");
        assert_eq!(ActivationKind::Btanh.name(), "Btanh");
    }
}

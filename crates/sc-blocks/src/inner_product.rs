//! Inner-product / convolution function blocks.
//!
//! Every block multiplies `n` bipolar inputs with `n` bipolar weights using an
//! XNOR array (or an AND array in the unipolar OR-gate variant) and then sums
//! the products with one of the adder structures of
//! [`sc_core::add`] / [`sc_core::twoline`]. The blocks differ in what they
//! emit:
//!
//! | Block | Adder | Output | Scaling |
//! |---|---|---|---|
//! | [`OrInnerProduct`] | OR gate | bit-stream | pre-scaled |
//! | [`MuxInnerProduct`] | n-to-1 MUX | bit-stream | `1/n` |
//! | [`ApcInnerProduct`] | approximate parallel counter | binary count stream | none |
//! | [`ExactCounterInnerProduct`] | exact parallel counter | binary count stream | none |
//! | [`TwoLineInnerProduct`] | two-line adder chain | two-line stream | none (overflows) |
//!
//! The blocks themselves are width-agnostic: the XNOR/popcount reductions,
//! MUX selector replays, and CSA column accumulators they call dispatch
//! through the word-generic kernel layer ([`sc_core::word`]), so the same
//! block code runs on the scalar, portable super-word, or SIMD backend —
//! with bit-identical results on each.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_core::add::{Apc, CountStream, ExactParallelCounter, MuxAdder};
use sc_core::arena::StreamArena;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::encoding::prescale;
use sc_core::error::ScError;
use sc_core::rng::Lfsr;
use sc_core::sng::{BatchSng, SngBank, SngKind};
use sc_core::twoline::{TwoLineAdder, TwoLineStream, TwoLineSum};
use serde::{Deserialize, Serialize};

/// Identifies an inner-product block family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InnerProductKind {
    /// OR-gate adder (pre-scaled, lossy).
    Or,
    /// MUX adder (scaled by `1/n`).
    Mux,
    /// Approximate parallel counter adder (binary output).
    Apc,
    /// Exact accumulative parallel counter (binary output, baseline).
    ExactCounter,
    /// Two-line representation adder (non-scaled, overflow-prone).
    TwoLine,
}

impl InnerProductKind {
    /// All kinds, in the order the paper discusses them.
    pub const ALL: [InnerProductKind; 5] = [
        InnerProductKind::Or,
        InnerProductKind::Mux,
        InnerProductKind::Apc,
        InnerProductKind::ExactCounter,
        InnerProductKind::TwoLine,
    ];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            InnerProductKind::Or => "OR",
            InnerProductKind::Mux => "MUX",
            InnerProductKind::Apc => "APC",
            InnerProductKind::ExactCounter => "CPC",
            InnerProductKind::TwoLine => "two-line",
        }
    }
}

/// The floating-point inner product `Σ xᵢ·wᵢ` used as the accuracy reference.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn reference_inner_product(inputs: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        inputs.len(),
        weights.len(),
        "inputs and weights must pair up"
    );
    inputs.iter().zip(weights.iter()).map(|(x, w)| x * w).sum()
}

/// XOR applied to an inner-product block's seed to derive its *weight* SNG
/// bank's base seed (the input bank uses the block seed directly). Shared
/// with the compiled layers of [`crate::feature_block`], whose precomputed
/// operand streams are bit-identical to what the per-call path generates.
pub(crate) const WEIGHT_BANK_SEED_XOR: u64 = 0xABCD_EF01_2345_6789;

/// The selector LFSR a MUX inner-product block with `seed` draws from
/// (shared, alongside [`WEIGHT_BANK_SEED_XOR`], with the compiled layers).
pub(crate) fn mux_selector(seed: u64) -> Lfsr {
    Lfsr::new_32((seed as u32).wrapping_mul(2_654_435_761) | 1)
}

/// Generates the per-lane input and weight streams of an inner-product
/// block. The XNOR products are *not* materialized here: every consumer
/// fuses the multiply into its accumulation kernel
/// ([`Apc::count_products`], [`ExactParallelCounter::count_products`],
/// [`MuxAdder::sum_products`]), which halves the stream traffic and removes
/// one allocation per lane. Stream buffers come from `arena` and should be
/// recycled into it after use; both banks are generated through one
/// [`BatchSng`] (a single staged-recurrence scratch for all lanes), which is
/// bit-identical to the per-lane [`SngBank`] generators it replaces.
fn generate_operand_streams(
    inputs: &[f64],
    weights: &[f64],
    length: StreamLength,
    seed: u64,
    arena: &mut StreamArena,
) -> Result<(Vec<BitStream>, Vec<BitStream>), ScError> {
    if inputs.is_empty() {
        return Err(ScError::EmptyInput);
    }
    if inputs.len() != weights.len() {
        return Err(ScError::LengthMismatch {
            left: inputs.len(),
            right: weights.len(),
        });
    }
    let mut batch = BatchSng::new(SngKind::Lfsr32);
    let input_streams = batch.generate_bipolar_bank_with(seed, inputs, length, arena)?;
    let weight_streams =
        match batch.generate_bipolar_bank_with(seed ^ WEIGHT_BANK_SEED_XOR, weights, length, arena)
        {
            Ok(streams) => streams,
            Err(error) => {
                arena.recycle_all(input_streams);
                return Err(error);
            }
        };
    Ok((input_streams, weight_streams))
}

/// OR-gate based inner-product block (the paper's strawman, Table 1).
///
/// The products are formed with AND gates (unipolar) or XNOR gates (bipolar)
/// and then OR-ed together. Because "1 OR 1" collapses to a single one, the
/// inputs are pre-scaled by the smallest power of two that keeps the expected
/// one-density low; the block scales the decoded output back up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrInnerProduct {
    /// Whether inputs/weights are treated as unipolar (`[0, 1]`) values.
    pub unipolar: bool,
    /// Seed for the stochastic number generators.
    pub seed: u64,
}

impl OrInnerProduct {
    /// Creates an OR-gate inner-product block.
    pub fn new(unipolar: bool, seed: u64) -> Self {
        Self { unipolar, seed }
    }

    /// Evaluates the inner product, returning the decoded (scaled-back) value.
    ///
    /// # Errors
    ///
    /// Returns an error for empty inputs, mismatched lengths, or values the
    /// encoding cannot represent even after pre-scaling.
    pub fn evaluate(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<f64, ScError> {
        if inputs.is_empty() {
            return Err(ScError::EmptyInput);
        }
        if inputs.len() != weights.len() {
            return Err(ScError::LengthMismatch {
                left: inputs.len(),
                right: weights.len(),
            });
        }
        let n = inputs.len();
        // Pre-scale so that each product stream carries few ones. The paper
        // notes the most suitable pre-scaling is applied before OR-ing; for a
        // sum of n terms each term is additionally divided by n so the ideal
        // OR output stays well below saturation.
        let products: Vec<f64> = inputs
            .iter()
            .zip(weights.iter())
            .map(|(x, w)| x * w)
            .collect();
        let scaled = prescale(&products)?;
        // Each encoded term is products[i] / (scale * n); the decoded OR
        // output therefore has to be multiplied back by scale * n.
        let per_term_scale = scaled.scale * n as f64;

        let mut bank = SngBank::new(SngKind::Lfsr32, n, self.seed);
        let mut arena = StreamArena::new();
        // OR-accumulate in place as each lane stream is generated: only two
        // stream buffers (the accumulator and a reused scratch) ever exist.
        let mut acc: Option<BitStream> = None;
        let mut scratch = arena.take_zeroed(length);
        for (i, &p) in scaled.values.iter().enumerate() {
            let lane = bank.lane_mut(i).expect("lane exists");
            if self.unipolar {
                lane.generate_unipolar_into((p / n as f64).clamp(0.0, 1.0), &mut scratch)?;
            } else {
                lane.generate_bipolar_into((p / n as f64).clamp(-1.0, 1.0), &mut scratch)?;
            }
            match &mut acc {
                Some(acc) => scratch.or_into(acc),
                None => acc = Some(std::mem::replace(&mut scratch, arena.take_zeroed(length))),
            }
        }
        let sum = acc.expect("n >= 1 lanes were accumulated");
        let decoded = if self.unipolar {
            sum.unipolar_value()
        } else {
            sum.bipolar_value()
        };
        Ok(decoded * per_term_scale)
    }
}

/// MUX-based inner-product block (Table 2).
///
/// The XNOR product streams feed an n-to-1 MUX whose selector is a uniformly
/// random lane index, producing a stream that encodes `(1/n)·Σ xᵢwᵢ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxInnerProduct {
    /// Seed for the stochastic number generators and the MUX selector.
    pub seed: u64,
}

impl MuxInnerProduct {
    /// Creates a MUX-based inner-product block.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Evaluates the inner product, returning the *scaled* output stream
    /// (value `≈ (1/n)·Σ xᵢwᵢ`).
    ///
    /// # Errors
    ///
    /// Returns an error for empty inputs, mismatched lengths, or out-of-range
    /// values.
    pub fn evaluate_stream(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<BitStream, ScError> {
        self.evaluate_stream_with(inputs, weights, length, &mut StreamArena::new())
    }

    /// Arena-backed variant of [`MuxInnerProduct::evaluate_stream`]: operand
    /// stream buffers are taken from and recycled into `arena`, so repeated
    /// evaluations (e.g. across the receptive fields of a feature block)
    /// allocate nothing in steady state. Output is bit-identical.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MuxInnerProduct::evaluate_stream`].
    pub fn evaluate_stream_with(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
        arena: &mut StreamArena,
    ) -> Result<BitStream, ScError> {
        let (xs, ws) = generate_operand_streams(inputs, weights, length, self.seed, arena)?;
        let mut selector = mux_selector(self.seed);
        let sum = MuxAdder::new().sum_products(&xs, &ws, &mut selector);
        arena.recycle_all(xs);
        arena.recycle_all(ws);
        sum
    }

    /// Evaluates the inner product and scales the decoded value back up by
    /// `n`, returning an estimate of `Σ xᵢwᵢ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MuxInnerProduct::evaluate_stream`].
    pub fn evaluate(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<f64, ScError> {
        let stream = self.evaluate_stream(inputs, weights, length)?;
        Ok(stream.bipolar_value() * inputs.len() as f64)
    }
}

/// APC-based inner-product block (Table 3).
///
/// The XNOR product streams feed an approximate parallel counter; the output
/// is a binary count per cycle, preserving (almost) all information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApcInnerProduct {
    /// Seed for the stochastic number generators.
    pub seed: u64,
}

impl ApcInnerProduct {
    /// Creates an APC-based inner-product block.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Evaluates the inner product, returning the per-cycle count stream.
    ///
    /// # Errors
    ///
    /// Returns an error for empty inputs, mismatched lengths, or out-of-range
    /// values.
    pub fn evaluate_counts(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<CountStream, ScError> {
        self.evaluate_counts_with(inputs, weights, length, &mut StreamArena::new())
    }

    /// Arena-backed variant of [`ApcInnerProduct::evaluate_counts`] using the
    /// fused XNOR + column-count kernel. Output is bit-identical.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApcInnerProduct::evaluate_counts`].
    pub fn evaluate_counts_with(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
        arena: &mut StreamArena,
    ) -> Result<CountStream, ScError> {
        let (xs, ws) = generate_operand_streams(inputs, weights, length, self.seed, arena)?;
        let counts = Apc::new().count_products(&xs, &ws);
        arena.recycle_all(xs);
        arena.recycle_all(ws);
        counts
    }

    /// Evaluates the inner product and decodes it to an estimate of `Σ xᵢwᵢ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApcInnerProduct::evaluate_counts`].
    pub fn evaluate(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<f64, ScError> {
        Ok(self.evaluate_counts(inputs, weights, length)?.bipolar_sum())
    }
}

/// Exact (conventional accumulative) parallel-counter inner-product block.
///
/// This is the baseline the APC block is compared against in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactCounterInnerProduct {
    /// Seed for the stochastic number generators.
    pub seed: u64,
}

impl ExactCounterInnerProduct {
    /// Creates an exact-counter inner-product block.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Evaluates the inner product, returning the per-cycle count stream.
    ///
    /// # Errors
    ///
    /// Returns an error for empty inputs, mismatched lengths, or out-of-range
    /// values.
    pub fn evaluate_counts(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<CountStream, ScError> {
        let mut arena = StreamArena::new();
        let (xs, ws) = generate_operand_streams(inputs, weights, length, self.seed, &mut arena)?;
        ExactParallelCounter::new().count_products(&xs, &ws)
    }

    /// Evaluates the inner product and decodes it to an estimate of `Σ xᵢwᵢ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExactCounterInnerProduct::evaluate_counts`].
    pub fn evaluate(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<f64, ScError> {
        Ok(self.evaluate_counts(inputs, weights, length)?.bipolar_sum())
    }
}

/// Two-line representation inner-product block (Section 4.1, rejected by the
/// paper for its overflow behaviour and area overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoLineInnerProduct {
    /// Seed for the magnitude-stream generators.
    pub seed: u64,
}

impl TwoLineInnerProduct {
    /// Creates a two-line inner-product block.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Evaluates the inner product, returning the two-line sum (which records
    /// how many cycles saturated, i.e. overflowed).
    ///
    /// # Errors
    ///
    /// Returns an error for empty inputs, mismatched lengths, or out-of-range
    /// products.
    pub fn evaluate_sum(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<TwoLineSum, ScError> {
        if inputs.is_empty() {
            return Err(ScError::EmptyInput);
        }
        if inputs.len() != weights.len() {
            return Err(ScError::LengthMismatch {
                left: inputs.len(),
                right: weights.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let products: Result<Vec<TwoLineStream>, ScError> = inputs
            .iter()
            .zip(weights.iter())
            .map(|(&x, &w)| {
                let mut lfsr = Lfsr::new_32(rng.gen::<u32>() | 1);
                TwoLineStream::encode((x * w).clamp(-1.0, 1.0), length, &mut lfsr)
            })
            .collect();
        TwoLineAdder::new().sum(&products?)
    }

    /// Evaluates the inner product and decodes it to an estimate of `Σ xᵢwᵢ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TwoLineInnerProduct::evaluate_sum`].
    pub fn evaluate(
        &self,
        inputs: &[f64],
        weights: &[f64],
        length: StreamLength,
    ) -> Result<f64, ScError> {
        Ok(self.evaluate_sum(inputs, weights, length)?.stream.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_vectors(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let weights = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (inputs, weights)
    }

    #[test]
    fn reference_matches_hand_computation() {
        assert_eq!(reference_inner_product(&[1.0, 2.0], &[3.0, -1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn reference_panics_on_mismatch() {
        let _ = reference_inner_product(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn mux_inner_product_tracks_reference() {
        let (inputs, weights) = test_vectors(16, 1);
        let reference = reference_inner_product(&inputs, &weights);
        let block = MuxInnerProduct::new(7);
        let value = block
            .evaluate(&inputs, &weights, StreamLength::new(4096))
            .unwrap();
        assert!(
            (value - reference).abs() < 0.9,
            "MUX estimate {value} too far from reference {reference}"
        );
    }

    #[test]
    fn mux_stream_is_scaled_down() {
        let (inputs, weights) = test_vectors(16, 2);
        let block = MuxInnerProduct::new(3);
        let stream = block
            .evaluate_stream(&inputs, &weights, StreamLength::new(2048))
            .unwrap();
        let reference = reference_inner_product(&inputs, &weights) / 16.0;
        assert!((stream.bipolar_value() - reference).abs() < 0.1);
    }

    #[test]
    fn apc_inner_product_is_more_accurate_than_mux() {
        let mut apc_error = 0.0;
        let mut mux_error = 0.0;
        for trial in 0..8 {
            let (inputs, weights) = test_vectors(32, 100 + trial);
            let reference = reference_inner_product(&inputs, &weights);
            let apc = ApcInnerProduct::new(trial)
                .evaluate(&inputs, &weights, StreamLength::new(1024))
                .unwrap();
            let mux = MuxInnerProduct::new(trial)
                .evaluate(&inputs, &weights, StreamLength::new(1024))
                .unwrap();
            apc_error += (apc - reference).abs();
            mux_error += (mux - reference).abs();
        }
        assert!(
            apc_error < mux_error,
            "expected APC ({apc_error}) to beat MUX ({mux_error}) on average"
        );
    }

    #[test]
    fn apc_tracks_exact_counter_closely() {
        let (inputs, weights) = test_vectors(64, 11);
        let length = StreamLength::new(512);
        let apc = ApcInnerProduct::new(5)
            .evaluate(&inputs, &weights, length)
            .unwrap();
        let exact = ExactCounterInnerProduct::new(5)
            .evaluate(&inputs, &weights, length)
            .unwrap();
        assert!((apc - exact).abs() < 1.0, "APC {apc} vs exact {exact}");
    }

    #[test]
    fn or_inner_product_unipolar_is_usable() {
        let inputs = vec![0.3, 0.2, 0.25, 0.1, 0.15, 0.3, 0.2, 0.1];
        let weights = vec![0.5, 0.25, 0.4, 0.3, 0.2, 0.35, 0.3, 0.25];
        let reference = reference_inner_product(&inputs, &weights);
        let block = OrInnerProduct::new(true, 3);
        let value = block
            .evaluate(&inputs, &weights, StreamLength::new(1024))
            .unwrap();
        // Table 1 reports absolute errors around 0.5 for unipolar inputs.
        assert!((value - reference).abs() < 1.0);
    }

    #[test]
    fn or_inner_product_bipolar_is_poor() {
        let (inputs, weights) = test_vectors(32, 17);
        let reference = reference_inner_product(&inputs, &weights);
        let block = OrInnerProduct::new(false, 3);
        let value = block
            .evaluate(&inputs, &weights, StreamLength::new(1024))
            .unwrap();
        // The bipolar OR-gate block is expected to be badly wrong (Table 1
        // reports errors > 1.5); we only check it runs and returns a finite value.
        assert!(value.is_finite());
        let _ = reference;
    }

    #[test]
    fn two_line_inner_product_overflows_with_many_inputs() {
        let inputs = vec![0.9; 16];
        let weights = vec![0.9; 16];
        let sum = TwoLineInnerProduct::new(1)
            .evaluate_sum(&inputs, &weights, StreamLength::new(1024))
            .unwrap();
        // True inner product is 12.96 but the representation cannot exceed 1.
        assert!(sum.stream.value() <= 1.0);
        assert!(sum.saturated_cycles > 0);
    }

    #[test]
    fn blocks_reject_empty_and_mismatched_inputs() {
        let length = StreamLength::new(64);
        assert!(MuxInnerProduct::new(1).evaluate(&[], &[], length).is_err());
        assert!(ApcInnerProduct::new(1)
            .evaluate(&[0.1], &[0.1, 0.2], length)
            .is_err());
        assert!(ExactCounterInnerProduct::new(1)
            .evaluate(&[], &[], length)
            .is_err());
        assert!(OrInnerProduct::new(false, 1)
            .evaluate(&[0.1], &[], length)
            .is_err());
        assert!(TwoLineInnerProduct::new(1)
            .evaluate(&[], &[], length)
            .is_err());
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            InnerProductKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), InnerProductKind::ALL.len());
    }
}

//! Monte-Carlo accuracy measurement for function blocks and feature
//! extraction blocks.
//!
//! All the accuracy tables and figures in the paper (Tables 1–5, Fig. 9,
//! Fig. 14) are averages over randomly drawn inputs. This module implements
//! one measurement routine per experiment so the `sc-bench` binaries contain
//! only formatting code. Every routine takes an explicit seed and trial
//! count, runs the trials across threads, and returns an
//! [`sc_core::stats::ErrorSummary`] so the numbers are
//! reproducible run to run.

use crate::feature_block::{FeatureBlock, FeatureBlockKind};
use crate::inner_product::{
    reference_inner_product, ApcInnerProduct, ExactCounterInnerProduct, MuxInnerProduct,
    OrInnerProduct,
};
use crate::pooling::{HardwareMaxPooling, SoftwareMaxPooling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_core::activation::Stanh;
use sc_core::bitstream::StreamLength;
use sc_core::sng::{Sng, SngKind};
use sc_core::stats::ErrorSummary;

/// Runs `trials` independent trials of `f` across threads and summarizes the
/// `(observed, reference)` pairs.
///
/// Every trial seeds its RNG from its own index, so the summary is identical
/// whatever the thread count (`SC_THREADS=1` included).
///
/// # Panics
///
/// Panics if `trials` is zero or a worker thread panics.
pub fn parallel_monte_carlo<F>(trials: usize, seed: u64, f: F) -> ErrorSummary
where
    F: Fn(usize, &mut StdRng) -> (f64, f64) + Sync,
{
    assert!(trials > 0, "at least one trial is required");
    let pairs = sc_core::parallel::parallel_map_range(trials, |index| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(index as u64 * 0x9E37_79B9));
        f(index, &mut rng)
    });
    let observed: Vec<f64> = pairs.iter().map(|&(o, _)| o).collect();
    let reference: Vec<f64> = pairs.iter().map(|&(_, r)| r).collect();
    ErrorSummary::from_pairs(&observed, &reference)
}

fn draw_values(rng: &mut StdRng, count: usize, bound: f64) -> Vec<f64> {
    (0..count).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// Table 1: absolute error of the OR-gate inner-product block.
///
/// Inputs and weights are drawn positive for the unipolar variant and in
/// `[-1, 1]` for the bipolar variant, matching the paper's observation that
/// bipolar OR addition cannot be rescued by pre-scaling.
pub fn or_inner_product_error(
    unipolar: bool,
    input_size: usize,
    stream_length: usize,
    trials: usize,
    seed: u64,
) -> ErrorSummary {
    parallel_monte_carlo(trials, seed, |index, rng| {
        let (inputs, weights): (Vec<f64>, Vec<f64>) = if unipolar {
            (
                (0..input_size).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..input_size).map(|_| rng.gen_range(0.0..1.0)).collect(),
            )
        } else {
            (
                draw_values(rng, input_size, 1.0),
                draw_values(rng, input_size, 1.0),
            )
        };
        let block = OrInnerProduct::new(unipolar, seed ^ (index as u64) << 1);
        let observed = block
            .evaluate(&inputs, &weights, StreamLength::new(stream_length))
            .expect("valid inputs");
        (observed, reference_inner_product(&inputs, &weights))
    })
}

/// Table 2: absolute error of the MUX-based inner-product block.
pub fn mux_inner_product_error(
    input_size: usize,
    stream_length: usize,
    trials: usize,
    seed: u64,
) -> ErrorSummary {
    parallel_monte_carlo(trials, seed, |index, rng| {
        let inputs = draw_values(rng, input_size, 1.0);
        let weights = draw_values(rng, input_size, 1.0);
        let block = MuxInnerProduct::new(seed ^ (index as u64) << 1);
        let observed = block
            .evaluate(&inputs, &weights, StreamLength::new(stream_length))
            .expect("valid inputs");
        (observed, reference_inner_product(&inputs, &weights))
    })
}

/// Table 3: relative error of the APC-based inner-product block compared with
/// the exact (conventional accumulative) parallel counter.
///
/// The comparison is made on the accumulated one-counts (the raw output of
/// the counters), matching how the paper compares the two blocks: the
/// summary's `mean_relative` column corresponds to Table 3's entries.
pub fn apc_vs_exact_error(
    input_size: usize,
    stream_length: usize,
    trials: usize,
    seed: u64,
) -> ErrorSummary {
    parallel_monte_carlo(trials, seed, |index, rng| {
        let inputs = draw_values(rng, input_size, 1.0);
        let weights = draw_values(rng, input_size, 1.0);
        let length = StreamLength::new(stream_length);
        let block_seed = seed ^ (index as u64) << 1;
        let apc = ApcInnerProduct::new(block_seed)
            .evaluate_counts(&inputs, &weights, length)
            .expect("valid");
        let exact = ExactCounterInnerProduct::new(block_seed)
            .evaluate_counts(&inputs, &weights, length)
            .expect("valid");
        (apc.total() as f64, exact.total() as f64)
    })
}

/// Table 4: relative deviation of the hardware-oriented max pooling block
/// from the software max pooling baseline.
///
/// `input_size` is the number of candidate streams entering the pooling block
/// (the paper uses 4, 9 and 16).
pub fn hardware_max_pool_deviation(
    input_size: usize,
    stream_length: usize,
    segment_bits: usize,
    trials: usize,
    seed: u64,
) -> ErrorSummary {
    parallel_monte_carlo(trials, seed, |index, rng| {
        let length = StreamLength::new(stream_length);
        let values = draw_values(rng, input_size, 1.0);
        let streams: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(lane, &v)| {
                Sng::new(SngKind::Lfsr32, seed ^ ((index * 251 + lane) as u64))
                    .generate_bipolar(v, length)
                    .expect("in range")
            })
            .collect();
        let hw = HardwareMaxPooling::new(segment_bits)
            .expect("segment length > 0")
            .pool_streams(&streams)
            .expect("non-empty");
        let sw = SoftwareMaxPooling::new()
            .pool_streams(&streams)
            .expect("non-empty");
        // Deviations are reported relative to the unipolar (count) domain to
        // avoid dividing by near-zero bipolar values.
        (hw.unipolar_value(), sw.unipolar_value())
    })
}

/// Table 5 / Fig. 9: relative inaccuracy of Stanh(K, x) against tanh(K·x/2).
pub fn stanh_inaccuracy(
    states: usize,
    stream_length: usize,
    trials: usize,
    seed: u64,
) -> ErrorSummary {
    parallel_monte_carlo(trials, seed, |index, rng| {
        let x: f64 = rng.gen_range(-1.0..1.0);
        let mut sng = Sng::new(SngKind::Lfsr32, seed ^ (index as u64 * 31 + 7));
        let input = sng
            .generate_bipolar(x, StreamLength::new(stream_length))
            .expect("in range");
        let mut fsm = Stanh::new(states).expect("even state count");
        let observed = fsm.transform(&input).bipolar_value();
        (observed, fsm.reference(x))
    })
}

/// One point of the Stanh transfer curve (Fig. 9): the measured output for a
/// specific input value.
pub fn stanh_transfer_point(states: usize, stream_length: usize, x: f64, seed: u64) -> f64 {
    let mut sng = Sng::new(SngKind::Lfsr32, seed);
    let input = sng
        .generate_bipolar(x.clamp(-1.0, 1.0), StreamLength::new(stream_length))
        .expect("in range");
    let mut fsm = Stanh::new(states).expect("even state count");
    fsm.transform(&input).bipolar_value()
}

/// Fig. 14: average absolute inaccuracy of a feature extraction block.
///
/// Inputs are drawn uniformly from `[-1, 1]`; weights are drawn from
/// `[-2/√N, 2/√N]` so the inner products stay in the O(1) range a trained
/// convolution produces (Xavier-style scaling with the gain a tanh network
/// learns), keeping the reference activation exercised without permanent
/// saturation.
pub fn feature_block_inaccuracy(
    kind: FeatureBlockKind,
    input_size: usize,
    stream_length: usize,
    trials: usize,
    seed: u64,
) -> ErrorSummary {
    parallel_monte_carlo(trials, seed, |index, rng| {
        let block = FeatureBlock::new(
            kind,
            input_size,
            StreamLength::new(stream_length),
            seed ^ (index as u64) << 3,
        )
        .expect("valid configuration");
        let bound = 2.0 / (input_size as f64).sqrt();
        let fields: Vec<Vec<f64>> = (0..4).map(|_| draw_values(rng, input_size, 1.0)).collect();
        let weights = draw_values(rng, input_size, bound);
        let observed = block.evaluate(&fields, &weights).expect("valid shapes");
        let reference = block.reference(&fields, &weights).expect("valid shapes");
        (observed, reference)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_monte_carlo_is_deterministic() {
        let run = || {
            parallel_monte_carlo(64, 3, |_, rng| {
                let x: f64 = rng.gen_range(-1.0..1.0);
                (x * 0.9, x)
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = parallel_monte_carlo(0, 1, |_, _| (0.0, 0.0));
    }

    #[test]
    fn mux_error_decreases_with_stream_length() {
        let short = mux_inner_product_error(16, 256, 24, 11);
        let long = mux_inner_product_error(16, 2048, 24, 11);
        assert!(
            long.mean_absolute < short.mean_absolute,
            "longer streams should reduce MUX error ({} vs {})",
            long.mean_absolute,
            short.mean_absolute
        );
    }

    #[test]
    fn mux_error_grows_with_input_size() {
        let small = mux_inner_product_error(16, 1024, 24, 13);
        let large = mux_inner_product_error(64, 1024, 24, 13);
        assert!(
            large.mean_absolute > small.mean_absolute,
            "larger inputs should increase MUX error ({} vs {})",
            large.mean_absolute,
            small.mean_absolute
        );
    }

    #[test]
    fn apc_relative_error_is_small() {
        let summary = apc_vs_exact_error(32, 256, 16, 5);
        assert!(
            summary.mean_relative < 0.05,
            "APC relative error {}",
            summary.mean_relative
        );
    }

    #[test]
    fn bipolar_or_block_is_worse_than_unipolar() {
        let unipolar = or_inner_product_error(true, 16, 1024, 12, 9);
        let bipolar = or_inner_product_error(false, 16, 1024, 12, 9);
        assert!(bipolar.mean_absolute > unipolar.mean_absolute);
    }

    #[test]
    fn max_pool_deviation_is_moderate() {
        let summary = hardware_max_pool_deviation(4, 256, 16, 16, 3);
        assert!(
            summary.mean_relative < 0.3,
            "deviation {}",
            summary.mean_relative
        );
    }

    #[test]
    fn stanh_inaccuracy_is_bounded() {
        let summary = stanh_inaccuracy(10, 2048, 16, 7);
        assert!(summary.mean_relative < 0.5);
    }

    #[test]
    fn stanh_transfer_is_monotone_on_average() {
        let low = stanh_transfer_point(8, 4096, -0.8, 3);
        let high = stanh_transfer_point(8, 4096, 0.8, 3);
        assert!(high > low);
    }

    #[test]
    fn feature_block_inaccuracy_orders_designs() {
        let apc = feature_block_inaccuracy(FeatureBlockKind::ApcAvgBtanh, 16, 512, 8, 19);
        let mux = feature_block_inaccuracy(FeatureBlockKind::MuxAvgStanh, 16, 512, 8, 19);
        assert!(
            apc.mean_absolute < mux.mean_absolute,
            "APC ({}) should beat MUX-Avg ({})",
            apc.mean_absolute,
            mux.mean_absolute
        );
    }
}

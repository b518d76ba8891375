//! Property-based tests on the core stochastic-computing invariants.

use proptest::prelude::*;
use sc_dcnn_repro::core::add::{Apc, CountStream, ExactParallelCounter};
use sc_dcnn_repro::core::encoding::{prescale, Bipolar, Encoding, Unipolar};
use sc_dcnn_repro::core::prelude::*;
use sc_dcnn_repro::core::sng::{BatchSng, LaneSequence};
use sc_dcnn_repro::core::{active_backend, force_backend, Backend};
use sc_dcnn_repro::hw::sram::quantize_weight;
use sc_dcnn_repro::nn::quantize::quantize_value;
use sc_dcnn_repro::nn::tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoding then decoding a bipolar value is accurate to the stream's
    /// quantization limit plus stochastic noise.
    #[test]
    fn bipolar_round_trip_is_accurate(value in -1.0f64..1.0, seed in 0u64..1000) {
        let mut sng = Sng::new(SngKind::Lfsr32, seed);
        let stream = sng.generate_bipolar(value, StreamLength::new(4096)).unwrap();
        prop_assert!((stream.bipolar_value() - value).abs() < 0.08);
    }

    /// The unipolar and bipolar probability mappings are exact inverses.
    #[test]
    fn probability_mappings_invert(value in -1.0f64..1.0) {
        let p = Bipolar::to_probability(value).unwrap();
        prop_assert!((Bipolar::from_probability(p) - value).abs() < 1e-12);
        let u = (value + 1.0) / 2.0;
        let q = Unipolar::to_probability(u).unwrap();
        prop_assert!((Unipolar::from_probability(q) - u).abs() < 1e-12);
    }

    /// Pre-scaling always lands every value inside the bipolar range and is
    /// exactly invertible through `scale_back`.
    #[test]
    fn prescale_is_invertible(values in proptest::collection::vec(-64.0f64..64.0, 1..16)) {
        let scaled = prescale(&values).unwrap();
        for (original, v) in values.iter().zip(scaled.values.iter()) {
            prop_assert!(v.abs() <= 1.0 + 1e-12);
            prop_assert!((scaled.scale_back(*v) - original).abs() < 1e-9);
        }
    }

    /// Logical operations preserve stream length and obey popcount algebra:
    /// |a AND b| + |a OR b| = |a| + |b|.
    #[test]
    fn and_or_popcount_identity(bits_a in proptest::collection::vec(any::<bool>(), 1..256),
                                bits_b_seed in 0u64..1000) {
        let a = BitStream::from_bits(bits_a.clone()).unwrap();
        let mut lfsr = Lfsr::new_32(bits_b_seed as u32 | 1);
        let bits_b: Vec<bool> = (0..bits_a.len()).map(|_| lfsr.step() & 1 == 1).collect();
        let b = BitStream::from_bits(bits_b).unwrap();
        let and = &a & &b;
        let or = &a | &b;
        prop_assert_eq!(and.len(), a.len());
        prop_assert_eq!(and.count_ones() + or.count_ones(), a.count_ones() + b.count_ones());
    }

    /// XNOR multiplication is commutative and bounded to the bipolar range.
    #[test]
    fn xnor_multiplication_is_commutative(seed_a in 0u64..500, seed_b in 500u64..1000,
                                          x in -1.0f64..1.0, w in -1.0f64..1.0) {
        let length = StreamLength::new(512);
        let a = Sng::new(SngKind::Lfsr32, seed_a).generate_bipolar(x, length).unwrap();
        let b = Sng::new(SngKind::Lfsr32, seed_b).generate_bipolar(w, length).unwrap();
        let ab = multiply::bipolar(&a, &b);
        let ba = multiply::bipolar(&b, &a);
        prop_assert_eq!(ab.clone(), ba);
        prop_assert!(ab.bipolar_value() >= -1.0 && ab.bipolar_value() <= 1.0);
    }

    /// The approximate parallel counter never deviates from the exact counter
    /// by more than one per cycle, and its accumulated total stays within
    /// half a count per cycle of the exact total.
    #[test]
    fn apc_is_close_to_exact_counter(seeds in proptest::collection::vec(0u64..10_000, 4..12),
                                     length_exp in 6u32..10) {
        let length = StreamLength::new(1usize << length_exp);
        let streams: Vec<BitStream> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let value = (i as f64 / seeds.len() as f64) - 0.5;
                Sng::new(SngKind::Lfsr32, seed).generate_bipolar(value, length).unwrap()
            })
            .collect();
        let exact = ExactParallelCounter::new().count(&streams).unwrap();
        let approx = Apc::new().count(&streams).unwrap();
        for (a, e) in approx.counts().iter().zip(exact.counts().iter()) {
            prop_assert!((i32::from(*a) - i32::from(*e)).abs() <= 1);
        }
        let drift = (approx.total() as f64 - exact.total() as f64).abs();
        prop_assert!(drift <= length.bits() as f64 * 0.5 + 1.0);
    }

    /// Merging count streams preserves the total count and lane arithmetic.
    #[test]
    fn count_stream_merge_preserves_totals(counts_a in proptest::collection::vec(0u16..8, 4..64),
                                           counts_b in proptest::collection::vec(0u16..8, 4..64)) {
        let len = counts_a.len().min(counts_b.len());
        let a = CountStream::new(counts_a[..len].to_vec(), 8).unwrap();
        let b = CountStream::new(counts_b[..len].to_vec(), 8).unwrap();
        let merged = CountStream::merge_sum(&[a.clone(), b.clone()]).unwrap();
        prop_assert_eq!(merged.total(), a.total() + b.total());
        prop_assert_eq!(merged.lanes(), 16);
    }

    /// Stanh output is a valid stochastic stream of the same length and its
    /// decoded value stays inside the bipolar range.
    #[test]
    fn stanh_output_is_well_formed(states in 1usize..12, value in -1.0f64..1.0, seed in 0u64..100) {
        let states = states * 2; // even state counts only
        let length = StreamLength::new(1024);
        let input = Sng::new(SngKind::Lfsr32, seed).generate_bipolar(value, length).unwrap();
        let mut fsm = Stanh::new(states).unwrap();
        let output = fsm.transform(&input);
        prop_assert_eq!(output.len(), 1024);
        prop_assert!(output.bipolar_value() >= -1.0 && output.bipolar_value() <= 1.0);
    }

    /// The two weight-quantization implementations (hardware model and
    /// network substrate) agree and are monotone in the input.
    #[test]
    fn weight_quantizers_agree(x in -1.0f64..1.0, bits in 1usize..16) {
        let hardware = quantize_weight(x, bits);
        let software = f64::from(quantize_value(x as f32, bits));
        prop_assert!((hardware - software).abs() < 2e-3);
        prop_assert!((hardware - x).abs() <= 2.0 / (1u64 << bits) as f64 + 1e-9);
    }

    /// The word-parallel SNG fill is bit-exact against the per-bit reference
    /// loop for every source kind, including non-multiple-of-64 tails.
    #[test]
    fn word_parallel_sng_matches_bitwise_reference(seed in 0u64..10_000,
                                                   p in 0.0f64..1.0,
                                                   length_index in 0usize..5,
                                                   kind_index in 0usize..3) {
        let length = StreamLength::new([100usize, 127, 1024, 8191, 65][length_index]);
        let kind = [SngKind::Lfsr16, SngKind::Lfsr32, SngKind::Ideal][kind_index];
        let word_parallel = Sng::new(kind, seed).generate_probability(p, length).unwrap();
        let bitwise = Sng::new(kind, seed).generate_probability_bitwise(p, length).unwrap();
        prop_assert_eq!(word_parallel, bitwise);
    }

    /// A lane's precomputed sequence fills exactly the stream its batched
    /// and per-lane generators draw, at every length (below the 128-bit
    /// staged minimum and off word multiples too), at the comparator's edge
    /// thresholds, and under every kernel backend this build and CPU run.
    #[test]
    fn lane_sequence_fill_matches_batched_and_per_lane_sng(seed in any::<u64>(),
                                                          random_threshold in 0u32..=0x10000) {
        let original = active_backend();
        for bits in [1usize, 63, 64, 100, 127, 128, 129, 1024, 8191] {
            let length = StreamLength::new(bits);
            let lane = LaneSequence::new(seed, length);
            for threshold in [0u32, 1, 0x8000, 0xFFFF, 0x10000, random_threshold] {
                // Exact: `probability_threshold` maps it back to `threshold`.
                let probability = f64::from(threshold) / 65536.0;
                for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                    prop_assert!(force_backend(backend));
                    let mut batched = BitStream::zeros(length);
                    let mut per_lane = BitStream::zeros(length);
                    let mut filled = BitStream::zeros(length);
                    BatchSng::new(SngKind::Lfsr32)
                        .fill_probability(seed, probability, &mut batched)
                        .unwrap();
                    Sng::new(SngKind::Lfsr32, seed)
                        .generate_probability_into(probability, &mut per_lane)
                        .unwrap();
                    lane.fill(threshold, &mut filled).unwrap();
                    prop_assert_eq!(&filled, &batched, "{} bits={} threshold={:#x}", backend.name(), bits, threshold);
                    prop_assert_eq!(&filled, &per_lane, "{} bits={} threshold={:#x}", backend.name(), bits, threshold);
                }
            }
        }
        force_backend(original);
    }

    /// The fused AND/XNOR popcount kernels agree with materializing the
    /// product stream and counting it, at awkward tail lengths.
    #[test]
    fn fused_counts_match_materialized(seed_a in 0u64..5_000, seed_b in 5_000u64..10_000,
                                       x in -1.0f64..1.0, w in -1.0f64..1.0,
                                       length_index in 0usize..3) {
        let length = StreamLength::new([100usize, 127, 8191][length_index]);
        let a = Sng::new(SngKind::Lfsr32, seed_a).generate_bipolar(x, length).unwrap();
        let b = Sng::new(SngKind::Lfsr32, seed_b).generate_bipolar(w, length).unwrap();
        prop_assert_eq!(a.xnor_count(&b), a.xnor(&b).count_ones());
        prop_assert_eq!(a.and_count(&b), (&a & &b).count_ones());
        let fused = multiply::bipolar_count(&a, &b);
        prop_assert_eq!(fused, multiply::bipolar(&a, &b).count_ones());
    }

    /// The fused XNOR + column-count inner-product kernel (exact and APC)
    /// is bit-exact with the materializing pipeline, and so is the fused
    /// MUX multiply-select.
    #[test]
    fn fused_inner_product_kernels_match(seeds in proptest::collection::vec(0u64..10_000, 2..9),
                                         length_index in 0usize..3) {
        let length = StreamLength::new([100usize, 127, 8191][length_index]);
        let lanes = seeds.len();
        let xs: Vec<BitStream> = (0..lanes)
            .map(|i| {
                let value = (i as f64 / lanes as f64) - 0.5;
                Sng::new(SngKind::Lfsr32, seeds[i]).generate_bipolar(value, length).unwrap()
            })
            .collect();
        let ws: Vec<BitStream> = (0..lanes)
            .map(|i| {
                let value = 0.5 - (i as f64 / lanes as f64);
                Sng::new(SngKind::Lfsr32, seeds[i] ^ 0xABCD).generate_bipolar(value, length).unwrap()
            })
            .collect();
        let products = multiply::bipolar_products(&xs, &ws).unwrap();

        let exact = ExactParallelCounter::new();
        prop_assert_eq!(
            exact.count_products(&xs, &ws).unwrap(),
            exact.count(&products).unwrap()
        );
        let apc = Apc::new();
        prop_assert_eq!(apc.count_products(&xs, &ws).unwrap(), apc.count(&products).unwrap());

        let mut selector_fused = Lfsr::new_32(seeds[0] as u32 | 1);
        let mut selector_naive = Lfsr::new_32(seeds[0] as u32 | 1);
        let fused = MuxAdder::new().sum_products(&xs, &ws, &mut selector_fused).unwrap();
        let naive = MuxAdder::new().sum(&products, &mut selector_naive).unwrap();
        prop_assert_eq!(fused, naive);

        let dot = multiply::bipolar_dot(&xs, &ws).unwrap();
        let reference: f64 = products.iter().map(|p| p.bipolar_value()).sum();
        prop_assert!((dot - reference).abs() < 1e-9);
    }

    /// Word-level range popcount and segment slicing agree with per-bit
    /// evaluation across word boundaries.
    #[test]
    fn range_kernels_match_bitwise(seed in 0u64..10_000, length_index in 0usize..3,
                                   segment in 1usize..70) {
        let bits = [100usize, 127, 513][length_index];
        let length = StreamLength::new(bits);
        let stream = Sng::new(SngKind::Lfsr32, seed).generate_probability(0.5, length).unwrap();
        let mut start = 0usize;
        while start < bits {
            let end = (start + segment).min(bits);
            let expected = (start..end).filter(|&i| stream.get(i)).count();
            prop_assert_eq!(stream.count_ones_in_range(start, end), expected);
            start = end;
        }
        let segments = stream.segments(segment);
        let total: usize = segments.iter().map(|s| s.count_ones()).sum();
        prop_assert_eq!(total, stream.count_ones());
    }

    /// In-place logic ops match their allocating counterparts and keep the
    /// tail-word invariant (count via words equals count via iteration).
    #[test]
    fn in_place_ops_preserve_tail_invariant(seed_a in 0u64..5_000, seed_b in 5_000u64..10_000,
                                            length_index in 0usize..3) {
        let length = StreamLength::new([100usize, 127, 8191][length_index]);
        let a = Sng::new(SngKind::Lfsr32, seed_a).generate_probability(0.5, length).unwrap();
        let b = Sng::new(SngKind::Lfsr32, seed_b).generate_probability(0.5, length).unwrap();
        let mut xnor = a.clone();
        xnor.xnor_assign(&b);
        prop_assert_eq!(xnor.clone(), a.xnor(&b));
        prop_assert_eq!(xnor.count_ones(), xnor.iter().filter(|&bit| bit).count());
        let mut or = a.clone();
        or |= &b;
        prop_assert_eq!(or, &a | &b);
        let mut and = a.clone();
        and &= &b;
        prop_assert_eq!(and, &a & &b);
        let mut xor = a.clone();
        xor ^= &b;
        prop_assert_eq!(xor, &a ^ &b);
    }

    /// Feature blocks produce bit-identical outputs however many threads the
    /// fan-out uses (`SC_THREADS` only changes the schedule, never seeds).
    #[test]
    fn feature_block_output_is_schedule_independent(seed in 0u64..500, kind_index in 0usize..4) {
        use sc_dcnn_repro::blocks::feature_block::{FeatureBlock, FeatureBlockKind};
        let kind = FeatureBlockKind::ALL[kind_index];
        let block = FeatureBlock::new(kind, 8, StreamLength::new(128), seed).unwrap();
        let fields: Vec<Vec<f64>> = (0..4u64)
            .map(|f| {
                (0..8u64).map(|i| (((seed + f * 8 + i) % 19) as f64) / 9.5 - 1.0).collect()
            })
            .collect();
        let weights: Vec<f64> = (0..8).map(|i| ((i as f64) - 3.5) / 8.0).collect();
        let serial = {
            sc_dcnn_repro::core::parallel::set_thread_limit(1);
            let out = block.evaluate_stream(&fields, &weights).unwrap();
            sc_dcnn_repro::core::parallel::set_thread_limit(0);
            out
        };
        let parallel = block.evaluate_stream(&fields, &weights).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// Tensor map/scale obey basic algebraic identities.
    #[test]
    fn tensor_scale_matches_map(values in proptest::collection::vec(-10.0f32..10.0, 1..64),
                                factor in -4.0f32..4.0) {
        let tensor = Tensor::from_vec(values.clone(), &[values.len()]);
        let mapped = tensor.map(|v| v * factor);
        let mut scaled = tensor.clone();
        scaled.scale(factor);
        for (a, b) in mapped.as_slice().iter().zip(scaled.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}

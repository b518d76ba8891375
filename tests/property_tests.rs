//! Property-based tests on the core stochastic-computing invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_dcnn_repro::blocks::pooling::HardwareMaxPooling;
use sc_dcnn_repro::core::add::MuxSelectorPlan;
use sc_dcnn_repro::core::add::{Apc, CountStream, ExactParallelCounter};
use sc_dcnn_repro::core::csa::{CountPlanes, PackedLanes, GROUP_WORDS, ROW_GROUP};
use sc_dcnn_repro::core::encoding::{prescale, Bipolar, Encoding, Unipolar};
use sc_dcnn_repro::core::prelude::*;
use sc_dcnn_repro::core::sng::{BatchSng, LaneSequence, SelectedSequence, SngBank};
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
    /// and per-lane generators draw and the per-bit comparator loop
    /// (`Sng::generate_probability_bitwise`, which shares no code with the
    /// bit-sliced comparator), at every length (below the 128-bit staged
    /// minimum and off word multiples too), at the comparator's edge
    /// thresholds and at L-quantized ones `k·65536/L` with odd and even
    /// `k` (whose trailing zeros set how many planes the comparator
    /// walks), and under every kernel backend this build and CPU run.
    #[test]
    fn lane_sequence_fill_matches_batched_and_per_lane_sng(seed in any::<u64>(),
                                                          random_threshold in 0u32..=0x10000,
                                                          k in 0usize..4096) {
        let original = active_backend();
        for bits in [1usize, 63, 64, 100, 127, 128, 129, 256, 1024, 8191] {
            let length = StreamLength::new(bits);
            let lane = LaneSequence::new(seed, length);
            let quantized = |k: usize| (k % bits * 65536 / bits) as u32;
            let odd = quantized(2 * k + 1);
            let even = quantized(2 * k + 2);
            for threshold in [0u32, 1, 0x8000, 0xFFFF, 0x10000, random_threshold, odd, even] {
                // Exact: `probability_threshold` maps it back to `threshold`.
                let probability = f64::from(threshold) / 65536.0;
                let bitwise = Sng::new(SngKind::Lfsr32, seed)
                    .generate_probability_bitwise(probability, length)
                    .unwrap();
                for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                    prop_assert!(force_backend(backend));
                    let mut batched = BitStream::zeros(length);
                    let mut per_lane = BitStream::zeros(length);
                    let mut filled = BitStream::ones(length);
                    BatchSng::new(SngKind::Lfsr32)
                        .fill_probability(seed, probability, &mut batched)
                        .unwrap();
                    Sng::new(SngKind::Lfsr32, seed)
                        .generate_probability_into(probability, &mut per_lane)
                        .unwrap();
                    lane.fill(threshold, &mut filled).unwrap();
                    prop_assert_eq!(&filled, &bitwise, "{} bits={} threshold={:#x}", backend.name(), bits, threshold);
                    prop_assert_eq!(&batched, &bitwise, "{} bits={} threshold={:#x}", backend.name(), bits, threshold);
                    prop_assert_eq!(&per_lane, &bitwise, "{} bits={} threshold={:#x}", backend.name(), bits, threshold);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A MUX field's selected-sequence fill is the gather of its lanes'
    /// streams: one comparator pass over each cycle's selected lane equals
    /// `MuxAdder::sum_with_plan` over the `LaneSequence::fill` stream of
    /// every lane, at every length (below one word, below the 128-bit
    /// staged minimum and off word multiples too, so the AVX2 fill's
    /// 8-cycle groups end part-way through a word), with per-lane thresholds
    /// at the comparator's edges and random, under every kernel backend
    /// this build and CPU run.
    #[test]
    fn selected_sequence_fill_matches_gathered_lane_fills(seed in any::<u64>(),
                                                          selector_seed in 1u32..u32::MAX,
                                                          threshold_seed in any::<u64>()) {
        let original = active_backend();
        let mut rng = StdRng::seed_from_u64(threshold_seed);
        for lanes in [1usize, 7, 8, 9, 25, 200] {
            for bits in [1usize, 63, 64, 65, 100, 127, 128, 129, 1000, 1024] {
                let length = StreamLength::new(bits);
                let sequences: Vec<LaneSequence> = (0..lanes)
                    .map(|lane| LaneSequence::new(SngBank::lane_seed(seed, lane), length))
                    .collect();
                let plan = MuxSelectorPlan::new(lanes, bits, &mut Lfsr::new_32(selector_seed))
                    .unwrap();
                let seeds: Vec<u64> = (0..lanes).map(|lane| SngBank::lane_seed(seed, lane)).collect();
                let selected = SelectedSequence::new(&seeds, &plan).unwrap();
                // Every lane draws from the edge thresholds (one past the
                // comparator's range too) and a random one; a single lane
                // runs through all seven in turn.
                for rotation in 0..if lanes == 1 { 7 } else { 1 } {
                    let thresholds: Vec<u32> = (0..lanes)
                        .map(|lane| {
                            let edges = [0u32, 1, 0x8000, 0xFFFF, 0x10000, u32::MAX];
                            match (lane * 5 + rotation + rng.gen_range(0..2usize)) % 7 {
                                6 => rng.gen_range(0..=0x10000u32),
                                edge => edges[edge],
                            }
                        })
                        .collect();
                    for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                        prop_assert!(force_backend(backend));
                        let lane_streams: Vec<BitStream> = sequences
                            .iter()
                            .zip(&thresholds)
                            .map(|(sequence, &threshold)| {
                                let mut stream = BitStream::zeros(length);
                                sequence.fill(threshold, &mut stream).unwrap();
                                stream
                            })
                            .collect();
                        let gathered = MuxAdder::new().sum_with_plan(&lane_streams, &plan).unwrap();
                        let mut filled = BitStream::ones(length);
                        selected.fill(&thresholds, &mut filled).unwrap();
                        prop_assert_eq!(&filled, &gathered, "{} lanes={} bits={}", backend.name(), lanes, bits);
                    }
                }
            }
        }
        force_backend(original);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An APC field filled straight into its packed group-lane slots
    /// (`PackedLanes::fill_row`) equals every lane filled on its own
    /// (`LaneSequence::fill`) and written with `PackedLanes::write_lane`,
    /// for a field of one lane, conv1's 25, conv2's 200 and fc1's 256, at
    /// lengths below the staged minimum, off word and group multiples and
    /// at several groups, with edge, L-quantized and random thresholds, in
    /// a middle row of three, under every kernel backend this build and
    /// CPU run.
    #[test]
    fn packed_field_fill_matches_per_lane_fills(seed in any::<u64>(),
                                                threshold_seed in any::<u64>()) {
        let original = active_backend();
        let mut rng = StdRng::seed_from_u64(threshold_seed);
        for lanes in [1usize, 25, 200, 256] {
            for bits in [64usize, 127, 256, 257, 1024] {
                let length = StreamLength::new(bits);
                let sequences: Vec<LaneSequence> = (0..lanes)
                    .map(|lane| LaneSequence::new(SngBank::lane_seed(seed, lane), length))
                    .collect();
                let thresholds: Vec<u32> = (0..lanes)
                    .map(|lane| match lane % 4 {
                        0 => [0u32, 1, 0xFFFF, 0x10000][lane / 4 % 4],
                        1 => (rng.gen_range(0..bits) * 65536 / bits) as u32,
                        _ => rng.gen_range(0..=0x10000u32),
                    })
                    .collect();
                let mut expected = PackedLanes::zeroed(lanes, length, 3).unwrap();
                for (lane, (sequence, &threshold)) in sequences.iter().zip(&thresholds).enumerate() {
                    let mut stream = BitStream::zeros(length);
                    sequence.fill(threshold, &mut stream).unwrap();
                    expected.write_lane(1, lane, &stream).unwrap();
                }
                for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                    prop_assert!(force_backend(backend));
                    let mut packed = PackedLanes::zeroed(lanes, length, 3).unwrap();
                    packed.fill_row(1, &sequences, &thresholds).unwrap();
                    prop_assert_eq!(&packed, &expected, "{} lanes={} bits={}", backend.name(), lanes, bits);
                }
            }
        }
        force_backend(original);
    }
}

/// The byte comparator's edge thresholds: both constants, the byte
/// boundaries of the high and low planes, and one past the comparator's
/// range.
const EDGE_THRESHOLDS: [u32; 11] = [
    0,
    1,
    0xFF,
    0x100,
    0x101,
    0x7FFF,
    0x8000,
    0xFF00,
    0xFFFF,
    0x10000,
    u32::MAX,
];

/// The stream of comparator `threshold` of the lane seeded `seed`, drawn by
/// the per-call staged comparator (`BatchSng`), the oracle of the byte
/// compare.
fn batched_fill(seed: u64, threshold: u32, length: StreamLength) -> BitStream {
    let probability = f64::from(threshold.min(0x10000)) / 65536.0;
    let mut stream = BitStream::zeros(length);
    BatchSng::new(SngKind::Lfsr32)
        .fill_probability(seed, probability, &mut stream)
        .unwrap();
    stream
}

/// The byte comparator at its edges: every edge threshold and L-quantized
/// ones (`k · 65536 / L`, whose low byte is zero at `L ≤ 256` and not
/// always at `L = 1024`) at lengths around words, groups and the 128-bit
/// staged minimum, on every backend, equals the staged comparator
/// (`BatchSng`) and the per-bit `Sng` loop, one lane at a time
/// (`LaneSequence::fill`, into a stream of stale ones) and packed
/// (`PackedLanes::fill_row`, into an arena buffer whose every word, pad
/// words included, is stale).
#[test]
fn byte_comparator_matches_the_staged_and_per_bit_comparators_at_its_edges() {
    let original = active_backend();
    let seed = 0x5EED_B17E;
    for bits in [
        1usize, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1024,
    ] {
        let length = StreamLength::new(bits);
        let quantized =
            [1usize, 3, bits / 2, bits.saturating_sub(1), bits].map(|k| (k * 65536 / bits) as u32);
        let thresholds: Vec<u32> = EDGE_THRESHOLDS.into_iter().chain(quantized).collect();
        let lanes = thresholds.len();
        let seeds: Vec<u64> = (0..lanes as u64).map(|lane| seed + lane).collect();
        let sequences: Vec<LaneSequence> = seeds
            .iter()
            .map(|&s| LaneSequence::new(s, length))
            .collect();
        let expected: Vec<BitStream> = seeds
            .iter()
            .zip(&thresholds)
            .map(|(&s, &threshold)| {
                let stream = batched_fill(s, threshold, length);
                let probability = f64::from(threshold.min(0x10000)) / 65536.0;
                let bitwise = Sng::new(SngKind::Lfsr32, s)
                    .generate_probability_bitwise(probability, length)
                    .unwrap();
                assert_eq!(stream, bitwise, "bits={bits} threshold={threshold:#x}");
                stream
            })
            .collect();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            assert!(force_backend(backend));
            for ((sequence, &threshold), expected) in
                sequences.iter().zip(&thresholds).zip(&expected)
            {
                let mut filled = BitStream::ones(length);
                sequence.fill(threshold, &mut filled).unwrap();
                assert_eq!(
                    &filled,
                    expected,
                    "{} bits={bits} threshold={threshold:#x}",
                    backend.name()
                );
            }
            // A buffer last used by a wider, longer matrix of all-ones rows.
            let mut arena = StreamArena::new();
            let mut stale = arena
                .take_packed(lanes + 3, StreamLength::new(bits + 300), 3)
                .unwrap();
            let wide: Vec<LaneSequence> = (0..lanes as u64 + 3)
                .map(|lane| LaneSequence::new(lane, StreamLength::new(bits + 300)))
                .collect();
            for row in 0..3 {
                stale
                    .fill_row(row, &wide, &vec![u32::MAX; lanes + 3])
                    .unwrap();
            }
            arena.recycle_packed(stale);
            let mut packed = arena.take_packed(lanes, length, 3).unwrap();
            for row in 0..3 {
                packed.fill_row(row, &sequences, &thresholds).unwrap();
            }
            let rows = [
                expected.as_slice(),
                expected.as_slice(),
                expected.as_slice(),
            ];
            assert_eq!(
                packed,
                PackedLanes::pack(rows).unwrap(),
                "{} bits={bits}",
                backend.name()
            );
        }
    }
    force_backend(original);
}

/// A MUX field's selected fill on both sides of the AVX2 shuffle/gather
/// boundary (32 lanes) and at the shuffle's 16-lane table halves: at 1, 2,
/// 16, 17, 25, 32, 33 and 200 lanes, with lanes at every edge threshold,
/// L-quantized ones, and fields of high-byte-only thresholds (no low-byte
/// tie-break, no `θ ≥ 2^16` lane), on every backend, equals
/// `MuxAdder::sum_with_plan` over the staged comparator's lane streams.
#[test]
fn selected_fill_matches_the_lane_gather_across_the_shuffle_boundary() {
    let original = active_backend();
    let seed = 0xF1E1D;
    for lanes in [1usize, 2, 16, 17, 25, 32, 33, 200] {
        for bits in [1usize, 33, 64, 129, 256, 1024] {
            let length = StreamLength::new(bits);
            let seeds: Vec<u64> = (0..lanes)
                .map(|lane| SngBank::lane_seed(seed, lane))
                .collect();
            let plan = MuxSelectorPlan::new(lanes, bits, &mut Lfsr::new_32(0xC0DE + lanes as u32))
                .unwrap();
            let selected = SelectedSequence::new(&seeds, &plan).unwrap();
            let quantized = |k: usize| (k % (bits + 1) * 65536 / bits) as u32;
            let fields: [Vec<u32>; 3] = [
                (0..lanes)
                    .map(|lane| EDGE_THRESHOLDS[lane % EDGE_THRESHOLDS.len()])
                    .collect(),
                (0..lanes).map(|lane| quantized(lane * 7 + 3)).collect(),
                (0..lanes)
                    .map(|lane| ((lane * 37 + 11) % 255 + 1) as u32 * 0x100)
                    .collect(),
            ];
            for thresholds in &fields {
                let lane_streams: Vec<BitStream> = seeds
                    .iter()
                    .zip(thresholds)
                    .map(|(&s, &threshold)| batched_fill(s, threshold, length))
                    .collect();
                let expected = MuxAdder::new().sum_with_plan(&lane_streams, &plan).unwrap();
                for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                    assert!(force_backend(backend));
                    let mut filled = BitStream::ones(length);
                    selected.fill(thresholds, &mut filled).unwrap();
                    assert_eq!(
                        filled,
                        expected,
                        "{} lanes={lanes} bits={bits}",
                        backend.name()
                    );
                }
            }
        }
    }
    force_backend(original);
}

/// `lanes` pseudo-random streams of `bits` bits (splitmix64 words).
fn random_lanes(lanes: usize, bits: usize, seed: u64) -> Vec<BitStream> {
    let mut state = seed;
    (0..lanes)
        .map(|_| {
            let mut stream = BitStream::zeros(StreamLength::new(bits));
            for word in stream.words_mut() {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            if !bits.is_multiple_of(64) {
                *stream.words_mut().last_mut().unwrap() &= (1u64 << (bits % 64)) - 1;
            }
            stream
        })
        .collect()
}

/// `counts` in the documented `CountPlanes` layout: per 256-column group,
/// `planes` planes of `GROUP_WORDS` words, zero past the last column.
fn planes_of(counts: &[u16], planes: usize) -> Vec<u64> {
    let mut words = vec![0u64; counts.len().div_ceil(256) * planes * GROUP_WORDS];
    for (t, &count) in counts.iter().enumerate() {
        let (group, word, bit) = (t / 256, t % 256 / 64, t % 64);
        for k in (0..planes).filter(|k| count >> k & 1 == 1) {
            words[(group * planes + k) * GROUP_WORDS + word] |= 1 << bit;
        }
    }
    words
}

/// Row `row`'s counts of a plane block, drained in column order.
fn drained(planes: &CountPlanes, row: usize) -> CountStream {
    let mut counts = vec![u16::MAX; planes.length().bits()];
    planes.drain_row_into(row, &mut counts).unwrap();
    CountStream::new(counts, planes.lanes()).unwrap()
}

/// Row `row` of the row-interleaved drain `counts` of `bits` columns.
fn interleaved_row(counts: &[u16], bits: usize, row: usize) -> Vec<u16> {
    (0..bits)
        .map(|t| counts[(row / ROW_GROUP * bits + t) * ROW_GROUP + row % ROW_GROUP])
        .collect()
}

/// Per field `(inputs, weights)`, `rows` rows of pseudo-random weights of
/// `lanes` lanes each.
type Fields = Vec<(Vec<BitStream>, Vec<Vec<BitStream>>)>;

/// Every row's APC counts of every field, the oracle way: materialized XNOR
/// products through `Apc::count` (per-bit counts + `apply_apc_lsb`).
fn oracle_counts(fields: &Fields) -> Vec<Vec<CountStream>> {
    fields
        .iter()
        .map(|(inputs, rows)| {
            rows.iter()
                .map(|weights| {
                    let products: Vec<BitStream> =
                        inputs.iter().zip(weights).map(|(x, w)| x.xnor(w)).collect();
                    Apc::new().count(&products).unwrap()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The APC layers' plane path — the core's planes with the approximate
    /// LSB in its store, written into one block of every field's rows
    /// taken from an arena (so holding the last case's words), the plane
    /// max pool and the bit-sliced average merge into a second block, and
    /// the drain — equals the count path it replaced on the engine:
    /// `Apc::count` (per-bit counts + `apply_apc_lsb`), then
    /// `HardwareMaxPooling::pool_counts` / `CountStream::merge_sum`. The
    /// planes themselves must match the oracle's counts word for word,
    /// zero past the stream end. Lane counts around every plane boundary,
    /// lengths around every segment, word and group tail, windows 1–4, and
    /// three kinds of window: random fields with one field whose lanes all
    /// agree, every lane of every field agreeing (the saturated count the
    /// APC clamps at an even lane count), and no lane agreeing (an all-zero
    /// window, where the first field wins every tie); under every kernel
    /// backend this build and CPU run.
    #[test]
    fn apc_count_planes_match_the_count_path(seed in any::<u64>()) {
        let original = active_backend();
        let pool = HardwareMaxPooling::default();
        let mut arena = StreamArena::new();
        for lanes in [1usize, 2, 3, 24, 25, 200, 256, 4095, 4096] {
            for bits in [1usize, 15, 16, 17, 63, 64, 255, 256, 257, 1024] {
                let length = StreamLength::new(bits);
                for kind in 0..3u64 {
                    let salt = seed ^ (lanes as u64) << 40 ^ (bits as u64) << 8 ^ kind;
                    let fields: Vec<(Vec<BitStream>, Vec<BitStream>)> = (0..4u64)
                        .map(|field| {
                            let inputs = random_lanes(lanes, bits, salt.wrapping_mul(31) + field);
                            let weights = match (kind, field) {
                                (0, 1) | (1, _) => inputs.clone(),
                                (2, _) => inputs
                                    .iter()
                                    .map(|s| s.xnor(&BitStream::zeros(s.stream_length())))
                                    .collect(),
                                _ => random_lanes(lanes, bits, salt.wrapping_mul(37) + field),
                            };
                            (inputs, weights)
                        })
                        .collect();
                    let oracle: Vec<CountStream> = fields
                        .iter()
                        .map(|(inputs, weights)| {
                            let products: Vec<BitStream> =
                                inputs.iter().zip(weights).map(|(x, w)| x.xnor(w)).collect();
                            Apc::new().count(&products).unwrap()
                        })
                        .collect();
                    let packed: Vec<(PackedLanes, PackedLanes)> = fields
                        .iter()
                        .map(|(inputs, weights)| {
                            (
                                PackedLanes::pack([inputs.as_slice()]).unwrap(),
                                PackedLanes::pack([weights.as_slice()]).unwrap(),
                            )
                        })
                        .collect();
                    for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                        prop_assert!(force_backend(backend));
                        for window in 1..=4 {
                            let case = format!(
                                "{} lanes={lanes} bits={bits} kind={kind} window={window}",
                                backend.name()
                            );
                            // One row per field: field `f` is row `f`.
                            let mut block = arena.take_planes(lanes, length, window).unwrap();
                            for (field, (x, w)) in packed.iter().take(window).enumerate() {
                                Apc::new().count_planes_into(x.view(), w.view(), &mut block, field).unwrap();
                            }
                            let row_words = block.row_words();
                            for (field, expected) in oracle.iter().take(window).enumerate() {
                                prop_assert_eq!(
                                    &block.as_words()[field * row_words..(field + 1) * row_words],
                                    planes_of(expected.counts(), block.planes()).as_slice(),
                                    "counted planes: {} field {}", &case, field
                                );
                            }
                            let expected_max = pool.pool_counts(&oracle[..window]).unwrap();
                            let expected_sum = CountStream::merge_sum(&oracle[..window]).unwrap();
                            let pooled = pool.pool_planes_with(&block, window, &mut arena).unwrap();
                            let merged = block.merge_sum_with(window, &mut arena).unwrap();
                            arena.recycle_planes(block);
                            for (got, expected) in [(pooled, expected_max), (merged, expected_sum)] {
                                prop_assert_eq!(got.rows(), 1);
                                prop_assert_eq!(
                                    got.as_words(),
                                    planes_of(expected.counts(), got.planes()).as_slice(),
                                    "planes: {}", &case
                                );
                                prop_assert_eq!(drained(&got, 0), expected, "counts: {}", &case);
                                arena.recycle_planes(got);
                            }
                        }
                    }
                }
            }
        }
        force_backend(original);
    }

    /// One arena block reused across shapes — 25 lanes at 257 bits, then
    /// 200 lanes and 25 lanes at 256 bits, then 25 lanes at 257 bits again
    /// — with every word set between uses: the core, the pool and the
    /// drain must write every word they own, zero past the stream end, so
    /// each use matches a fresh zeroed block and the oracle.
    #[test]
    fn reused_plane_blocks_overwrite_stale_words(seed in any::<u64>()) {
        let original = active_backend();
        let pool = HardwareMaxPooling::default();
        let mut arena = StreamArena::new();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            prop_assert!(force_backend(backend));
            for (step, (lanes, bits)) in [(25usize, 257usize), (200, 256), (25, 256), (25, 257)].into_iter().enumerate() {
                let length = StreamLength::new(bits);
                let fields: Fields = (0..4u64)
                    .map(|field| {
                        let salt = seed ^ (step as u64) << 32 ^ field;
                        let rows = (0..3).map(|row| random_lanes(lanes, bits, salt.wrapping_mul(7) + row)).collect();
                        (random_lanes(lanes, bits, salt.wrapping_mul(5)), rows)
                    })
                    .collect();
                let oracle = oracle_counts(&fields);
                let mut block = arena.take_planes(lanes, length, 12).unwrap();
                let mut fresh = CountPlanes::zeroed(lanes, length, 12).unwrap();
                for (field, (inputs, rows)) in fields.iter().enumerate() {
                    let x = PackedLanes::pack([inputs.as_slice()]).unwrap();
                    let w = PackedLanes::pack(rows.iter().map(Vec::as_slice)).unwrap();
                    for planes in [&mut block, &mut fresh] {
                        Apc::new().count_planes_into(x.view(), w.view(), planes, 3 * field).unwrap();
                    }
                }
                prop_assert_eq!(&block, &fresh, "{} step {}", backend.name(), step);
                let pooled = pool.pool_planes_with(&block, 4, &mut arena).unwrap();
                let mut counts = arena.take_counts(8 * bits);
                counts.fill(u16::MAX);
                pooled.drain_interleaved(&mut counts).unwrap();
                for row in 0..8 {
                    let expected = match row {
                        0..=2 => {
                            let window: Vec<CountStream> = oracle.iter().map(|field| field[row].clone()).collect();
                            pool.pool_counts(&window).unwrap().counts().to_vec()
                        }
                        _ => vec![0; bits],
                    };
                    prop_assert_eq!(interleaved_row(&counts, bits, row), expected, "{} step {} row {}", backend.name(), step, row);
                }
                for mut planes in [block, pooled] {
                    planes.words_mut().fill(u64::MAX);
                    arena.recycle_planes(planes);
                }
                arena.recycle_counts(counts);
            }
        }
        force_backend(original);
    }

    /// Row ranges that are no whole number of row groups — a fan-out chunk
    /// of a conv layer's filters, fc2's 10 units — through the count, both
    /// pools (a window of 4) or none (a window of 1) and the interleaved
    /// drain, against the oracle per row.
    #[test]
    fn apc_row_ranges_off_the_row_groups_match_the_count_path(seed in any::<u64>()) {
        let original = active_backend();
        let pool = HardwareMaxPooling::default();
        let mut arena = StreamArena::new();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            prop_assert!(force_backend(backend));
            for (lanes, bits, window) in [(25usize, 256usize, 4usize), (64, 127, 1), (200, 300, 4)] {
                let length = StreamLength::new(bits);
                let fields: Fields = (0..window as u64)
                    .map(|field| {
                        let salt = seed ^ (lanes as u64) << 32 ^ field;
                        let rows = (0..19).map(|row| random_lanes(lanes, bits, salt.wrapping_mul(7) + row)).collect();
                        (random_lanes(lanes, bits, salt.wrapping_mul(5)), rows)
                    })
                    .collect();
                let oracle = oracle_counts(&fields);
                let packed: Vec<(PackedLanes, PackedLanes)> = fields
                    .iter()
                    .map(|(inputs, rows)| {
                        (
                            PackedLanes::pack([inputs.as_slice()]).unwrap(),
                            PackedLanes::pack(rows.iter().map(Vec::as_slice)).unwrap(),
                        )
                    })
                    .collect();
                for rows in [0..10, 3..13, 5..19, 18..19] {
                    let count = rows.len();
                    let mut block = arena.take_planes(lanes, length, window * count).unwrap();
                    for (field, (x, w)) in packed.iter().enumerate() {
                        Apc::new().count_planes_into(x.view(), w.view_rows(rows.clone()), &mut block, field * count).unwrap();
                    }
                    let pools = if window == 1 {
                        vec![(block.clone(), None)]
                    } else {
                        vec![
                            (pool.pool_planes_with(&block, window, &mut arena).unwrap(), Some(true)),
                            (block.merge_sum_with(window, &mut arena).unwrap(), Some(false)),
                        ]
                    };
                    arena.recycle_planes(block);
                    for (pooled, max) in pools {
                        let mut counts = arena.take_counts(count.next_multiple_of(ROW_GROUP) * bits);
                        pooled.drain_interleaved(&mut counts).unwrap();
                        for (i, row) in rows.clone().enumerate() {
                            let window: Vec<CountStream> = oracle.iter().map(|field| field[row].clone()).collect();
                            let expected = match max {
                                None => window[0].clone(),
                                Some(true) => pool.pool_counts(&window).unwrap(),
                                Some(false) => CountStream::merge_sum(&window).unwrap(),
                            };
                            prop_assert_eq!(
                                interleaved_row(&counts, bits, i),
                                expected.counts(),
                                "{} lanes={} rows={:?} row {} max={:?}", backend.name(), lanes, &rows, row, max
                            );
                        }
                        arena.recycle_counts(counts);
                        arena.recycle_planes(pooled);
                    }
                }
            }
        }
        force_backend(original);
    }

    /// The interleaved drain of random blocks — every plane count up to the
    /// `u16` range, lengths around word and group tails, row counts around
    /// the row groups — equals `drain_row_into` per row, with the rows that
    /// pad the last group zero; under every backend.
    #[test]
    fn interleaved_drain_matches_the_row_drain(seed in any::<u64>()) {
        let original = active_backend();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            prop_assert!(force_backend(backend));
            for lanes in [1usize, 3, 25, 200, 255, 256, 1000, 65535] {
                for bits in [1usize, 63, 64, 200, 256, 257, 1024] {
                    for rows in [1usize, 7, 8, 9, 16, 17] {
                        let length = StreamLength::new(bits);
                        let mut block = CountPlanes::zeroed(lanes, length, rows).unwrap();
                        let planes = block.planes();
                        // Random counts of at most `lanes`, in plane form.
                        let mut state = seed ^ (lanes as u64) << 40 ^ (bits as u64) << 16 ^ rows as u64;
                        let row_words = block.row_words();
                        for row in 0..rows {
                            let counts: Vec<u16> = (0..bits)
                                .map(|_| {
                                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                                    ((state >> 33) % (lanes as u64 + 1)) as u16
                                })
                                .collect();
                            block.words_mut()[row * row_words..(row + 1) * row_words]
                                .copy_from_slice(&planes_of(&counts, planes));
                        }
                        let mut counts = vec![u16::MAX; rows.next_multiple_of(ROW_GROUP) * bits];
                        block.drain_interleaved(&mut counts).unwrap();
                        for row in 0..rows.next_multiple_of(ROW_GROUP) {
                            let expected = if row < rows {
                                drained(&block, row).counts().to_vec()
                            } else {
                                vec![0; bits]
                            };
                            prop_assert_eq!(
                                interleaved_row(&counts, bits, row),
                                expected,
                                "{} lanes={} bits={} rows={} row {}", backend.name(), lanes, bits, rows, row
                            );
                        }
                    }
                }
            }
        }
        force_backend(original);
    }
}

//! Before/after benchmark of the word-parallel SC kernel engine.
//!
//! Re-runs the seed implementation's per-bit pipelines (kept as reference
//! code paths) against the word-parallel / fused kernels that replaced them,
//! verifies the outputs are bit-identical, and records the measured
//! throughput in `BENCH_kernels.json` at the repository root.
//!
//! Run with: `cargo run --release -p sc-bench --bin bench_kernels`

use sc_blocks::activation_block::StanhBlock;
use sc_blocks::pooling::HardwareMaxPooling;
use sc_core::activation::Stanh;
use sc_core::add::{Apc, ExactParallelCounter, MuxAdder, MuxSelectorPlan};
use sc_core::arena::StreamArena;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::multiply;
use sc_core::rng::Lfsr;
use sc_core::sng::{Sng, SngBank, SngKind};
use sc_core::{force_backend, Backend};
use std::time::Instant;

/// Frozen copy of the seed revision's 32-bit LFSR step (popcount parity),
/// kept verbatim so the "before" timings measure the code this PR replaced
/// rather than the since-optimized shared primitives. Produces the same
/// state sequence as [`sc_core::rng::Lfsr`].
struct SeedLfsr32 {
    state: u32,
}

impl SeedLfsr32 {
    fn new(seed: u32) -> Self {
        Self { state: seed.max(1) }
    }

    fn step(&mut self) -> u32 {
        const TAPS: u32 = 0x8020_0003;
        let feedback = (self.state & TAPS).count_ones() & 1;
        self.state = (self.state << 1) | feedback;
        if self.state == 0 {
            self.state = 1;
        }
        self.state
    }
}

/// Frozen copy of the seed revision's per-bit SNG loop: one comparator
/// sample per `BitStream::set` call.
fn seed_generate_probability(
    lfsr: &mut SeedLfsr32,
    probability: f64,
    len: StreamLength,
) -> BitStream {
    let threshold = (probability * f64::from(1u32 << 16)).round() as u32;
    let mut stream = BitStream::zeros(len);
    for i in 0..len.bits() {
        let sample = lfsr.step() & 0xFFFF;
        if sample < threshold {
            stream.set(i, true);
        }
    }
    stream
}

/// Median nanoseconds per call over `samples` timed samples of `iters`
/// iterations each.
fn measure<R>(samples: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.total_cmp(b));
    timings[timings.len() / 2]
}

struct Comparison {
    name: &'static str,
    description: &'static str,
    baseline_ns: f64,
    optimized_ns: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns
    }
}

/// The seed implementation of the exact parallel counter: one bounds-checked
/// `get` per lane per cycle.
fn per_bit_column_count(inputs: &[BitStream]) -> Vec<u16> {
    let len = inputs[0].len();
    (0..len)
        .map(|i| inputs.iter().filter(|s| s.get(i)).count() as u16)
        .collect()
}

fn bench_sng(length: usize, samples: usize, iters: usize) -> Comparison {
    let len = StreamLength::new(length);
    // Verify bit-exactness of all three implementations before timing: the
    // frozen seed loop, the library's per-bit reference, and the
    // word-parallel fill must emit identical streams. The seed used by
    // `Sng::new(SngKind::Lfsr32, s)` is `s ^ 0x9E37_79B9` (see sc-core).
    let word = Sng::new(SngKind::Lfsr32, 7)
        .generate_probability(0.685, len)
        .unwrap();
    let bit = Sng::new(SngKind::Lfsr32, 7)
        .generate_probability_bitwise(0.685, len)
        .unwrap();
    let seed_impl = seed_generate_probability(&mut SeedLfsr32::new(7u32 ^ 0x9E37_79B9), 0.685, len);
    assert_eq!(
        word, bit,
        "word-parallel SNG must match the per-bit reference"
    );
    assert_eq!(
        word, seed_impl,
        "word-parallel SNG must match the frozen seed implementation"
    );

    let mut lfsr = SeedLfsr32::new(7u32 ^ 0x9E37_79B9);
    let baseline_ns = measure(samples, iters, || {
        seed_generate_probability(&mut lfsr, 0.685, len)
    });
    let mut sng = Sng::new(SngKind::Lfsr32, 7);
    let mut stream = BitStream::zeros(len);
    let optimized_ns = measure(samples, iters, || {
        sng.generate_probability_into(0.685, &mut stream).unwrap()
    });
    Comparison {
        name: if length == 1024 {
            "sng_generate_1024"
        } else {
            "sng_generate_8192"
        },
        description: "SNG stream generation (LFSR32): seed per-bit comparator \
                      loop vs batched sequence generation + bit-sliced \
                      comparator into a reused buffer",
        baseline_ns,
        optimized_ns,
    }
}

fn operand_values(n: usize) -> (Vec<f64>, Vec<f64>) {
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) - 0.5).collect();
    let weights: Vec<f64> = (0..n).map(|i| 0.5 - (i as f64 / n as f64)).collect();
    (inputs, weights)
}

/// Reproduces the lane seeding of `SngBank` (the splitmix stride) and the
/// `Sng` LFSR32 seed whitening so the frozen baseline generates the exact
/// streams the library produces.
fn seed_lane_lfsr(base_seed: u64, lane: usize) -> SeedLfsr32 {
    let lane_seed = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1));
    SeedLfsr32::new(lane_seed as u32 ^ 0x9E37_79B9)
}

/// The seed implementation of the APC inner-product block: per-bit SNG fill,
/// materialized XNOR product streams, per-bit column count.
fn baseline_inner_product(inputs: &[f64], weights: &[f64], len: StreamLength, seed: u64) -> u64 {
    let input_streams: Vec<BitStream> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            seed_generate_probability(&mut seed_lane_lfsr(seed, i), (v + 1.0) / 2.0, len)
        })
        .collect();
    let weight_streams: Vec<BitStream> = weights
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            seed_generate_probability(
                &mut seed_lane_lfsr(seed ^ 0xABCD_EF01_2345_6789, i),
                (v + 1.0) / 2.0,
                len,
            )
        })
        .collect();
    let products = multiply::bipolar_products(&input_streams, &weight_streams).unwrap();
    per_bit_column_count(&products)
        .iter()
        .map(|&c| u64::from(c))
        .sum()
}

/// The word-parallel pipeline doing the same work: arena-backed SNG fill and
/// the fused XNOR + column-count kernel.
fn fused_inner_product(
    inputs: &[f64],
    weights: &[f64],
    len: StreamLength,
    seed: u64,
    arena: &mut StreamArena,
) -> u64 {
    let mut input_bank = SngBank::new(SngKind::Lfsr32, inputs.len(), seed);
    let mut weight_bank =
        SngBank::new(SngKind::Lfsr32, weights.len(), seed ^ 0xABCD_EF01_2345_6789);
    let xs = input_bank
        .generate_bipolar_with(inputs, len, arena)
        .unwrap();
    let ws = weight_bank
        .generate_bipolar_with(weights, len, arena)
        .unwrap();
    let counts = ExactParallelCounter::new()
        .count_products(&xs, &ws)
        .unwrap();
    let total = counts.total();
    arena.recycle_all(xs);
    arena.recycle_all(ws);
    total
}

fn bench_inner_product(samples: usize, iters: usize) -> Comparison {
    let len = StreamLength::new(1024);
    let (inputs, weights) = operand_values(32);
    // Both pipelines must accumulate the identical total.
    let mut check_arena = StreamArena::new();
    assert_eq!(
        baseline_inner_product(&inputs, &weights, len, 42),
        fused_inner_product(&inputs, &weights, len, 42, &mut check_arena),
        "fused inner product must match the per-bit baseline"
    );
    let baseline_ns = measure(samples, iters, || {
        baseline_inner_product(&inputs, &weights, len, 42)
    });
    let mut arena = StreamArena::new();
    let optimized_ns = measure(samples, iters, || {
        fused_inner_product(&inputs, &weights, len, 42, &mut arena)
    });
    Comparison {
        name: "bipolar_inner_product_n32_l1024",
        description: "APC-style bipolar inner product (32 lanes, 1024 bits): \
                      per-bit SNG + materialized XNOR streams + per-bit column \
                      count vs arena-backed word-parallel SNG + fused \
                      XNOR/popcount kernel",
        baseline_ns,
        optimized_ns,
    }
}

fn bench_mux_block(samples: usize, iters: usize) -> Comparison {
    let len = StreamLength::new(1024);
    let n = 32usize;
    let xs: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 100 + i as u64)
                .generate_bipolar((i as f64 / n as f64) - 0.5, len)
                .unwrap()
        })
        .collect();
    let ws: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 500 + i as u64)
                .generate_bipolar(0.5 - (i as f64 / n as f64), len)
                .unwrap()
        })
        .collect();
    // Verify bit-exactness of the fused path.
    let products = multiply::bipolar_products(&xs, &ws).unwrap();
    let mut sel_a = Lfsr::new_32(5);
    let mut sel_b = Lfsr::new_32(5);
    assert_eq!(
        MuxAdder::new().sum_products(&xs, &ws, &mut sel_b).unwrap(),
        MuxAdder::new().sum(&products, &mut sel_a).unwrap(),
        "fused MUX must match materialize-then-sum"
    );

    let baseline_ns = measure(samples, iters, || {
        let products = multiply::bipolar_products(&xs, &ws).unwrap();
        let mut selector = Lfsr::new_32(5);
        MuxAdder::new().sum(&products, &mut selector).unwrap()
    });
    let optimized_ns = measure(samples, iters, || {
        let mut selector = Lfsr::new_32(5);
        MuxAdder::new()
            .sum_products(&xs, &ws, &mut selector)
            .unwrap()
    });
    Comparison {
        name: "mux_inner_product_n32_l1024",
        description: "MUX bipolar inner product (32 lanes, 1024 bits): \
                      materialized XNOR streams + per-bit MUX vs fused \
                      multiply-select",
        baseline_ns,
        optimized_ns,
    }
}

/// Frozen copy of the selector-serial fused MUX loop (the pre-bit-slicing
/// implementation): one selector draw and one per-bit extract/insert pair
/// per cycle.
fn selector_serial_sum_products(
    inputs: &[BitStream],
    weights: &[BitStream],
    selector_rng: &mut Lfsr,
) -> BitStream {
    let len = inputs[0].len();
    let n = inputs.len() as u32;
    let xs: Vec<&[u64]> = inputs.iter().map(|s| s.as_words()).collect();
    let ws: Vec<&[u64]> = weights.iter().map(|s| s.as_words()).collect();
    let mut out = BitStream::zeros(StreamLength::new(len));
    for (w, out_word) in out.words_mut().iter_mut().enumerate() {
        let bits = (len - w * 64).min(64);
        let mut packed = 0u64;
        for bit in 0..bits {
            let lane = sc_core::rng::RandomSource::next_below(selector_rng, n) as usize;
            let product = !(xs[lane][w] ^ ws[lane][w]);
            packed |= ((product >> bit) & 1) << bit;
        }
        *out_word = packed;
    }
    out
}

/// The bit-sliced selector (this PR) against the frozen selector-serial loop
/// it replaced — both on the fused multiply-select path.
fn bench_mux_selector(samples: usize, iters: usize) -> Comparison {
    let len = StreamLength::new(1024);
    let n = 32usize;
    let xs: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 700 + i as u64)
                .generate_bipolar((i as f64 / n as f64) - 0.5, len)
                .unwrap()
        })
        .collect();
    let ws: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 900 + i as u64)
                .generate_bipolar(0.5 - (i as f64 / n as f64), len)
                .unwrap()
        })
        .collect();
    let mut sel_a = Lfsr::new_32(77);
    let mut sel_b = Lfsr::new_32(77);
    assert_eq!(
        MuxAdder::new().sum_products(&xs, &ws, &mut sel_b).unwrap(),
        selector_serial_sum_products(&xs, &ws, &mut sel_a),
        "bit-sliced selector must match the selector-serial loop"
    );
    let baseline_ns = measure(samples, iters, || {
        let mut selector = Lfsr::new_32(77);
        selector_serial_sum_products(&xs, &ws, &mut selector)
    });
    let optimized_ns = measure(samples, iters, || {
        let mut selector = Lfsr::new_32(77);
        MuxAdder::new()
            .sum_products(&xs, &ws, &mut selector)
            .unwrap()
    });
    Comparison {
        name: "mux_selector_bitsliced_n32_l1024",
        description: "Fused MUX multiply-select (32 lanes, 1024 bits): \
                      selector-serial per-bit extract/insert loop vs \
                      bit-sliced per-lane selection masks",
        baseline_ns,
        optimized_ns,
    }
}

fn bench_apc_counts(samples: usize, iters: usize) -> Comparison {
    let len = 1024usize;
    let n = 32usize;
    let streams: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 300 + i as u64)
                .generate_bipolar((i as f64 / n as f64) - 0.5, StreamLength::new(len))
                .unwrap()
        })
        .collect();
    let baseline_ns = measure(samples, iters, || per_bit_column_count(&streams));
    let optimized_ns = measure(samples, iters, || Apc::new().count(&streams).unwrap());
    Comparison {
        name: "column_count_n32_l1024",
        description: "Parallel-counter column counts (32 lanes, 1024 bits): \
                      per-bit get() loop vs word-unpacked accumulation",
        baseline_ns,
        optimized_ns,
    }
}

/// Frozen copy of the per-lane `trailing_zeros` column accumulation (the
/// pre-CSA `accumulate_columns`), kept so the CSA comparison measures the
/// kernel this PR replaced.
fn per_lane_column_accumulate(streams: &[BitStream], counts: &mut [u16]) {
    for stream in streams {
        for (w, &word) in stream.as_words().iter().enumerate() {
            let mut bits = word;
            let base = w * 64;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                counts[base + j] += 1;
                bits &= bits - 1;
            }
        }
    }
}

/// Column counts through the bit-transposed CSA accumulator: word-major,
/// lane triples through the 3:2 compressor, planes unpacked per word.
fn csa_column_accumulate(streams: &[BitStream], len: usize, counts: &mut [u16]) {
    let lane_words: Vec<&[u64]> = streams.iter().map(|s| s.as_words()).collect();
    let mut scratch: Vec<u64> = vec![0; lane_words.len()];
    for w in 0..len.div_ceil(64) {
        let base = w * 64;
        let span = (len - base).min(64);
        for (slot, words) in scratch.iter_mut().zip(&lane_words) {
            *slot = words[w];
        }
        sc_core::csa::accumulate_column_counts(&scratch, &mut counts[base..base + span]);
    }
}

/// Per-cycle column counts across many lanes: the per-lane set-bit walk vs
/// the bit-transposed CSA vertical counters.
fn bench_csa_column_count(samples: usize, iters: usize) -> Comparison {
    let len = 1024usize;
    let n = 32usize;
    let streams: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 300 + i as u64)
                .generate_bipolar((i as f64 / n as f64) - 0.5, StreamLength::new(len))
                .unwrap()
        })
        .collect();
    let mut a = vec![0u16; len];
    let mut b = vec![0u16; len];
    per_lane_column_accumulate(&streams, &mut a);
    csa_column_accumulate(&streams, len, &mut b);
    assert_eq!(a, b, "CSA column counts must match the per-lane walk");
    let baseline_ns = measure(samples, iters, || {
        let mut counts = vec![0u16; len];
        per_lane_column_accumulate(&streams, &mut counts);
        counts
    });
    let optimized_ns = measure(samples, iters, || {
        let mut counts = vec![0u16; len];
        csa_column_accumulate(&streams, len, &mut counts);
        counts
    });
    Comparison {
        name: "apc_csa_column_count_n32_l1024",
        description: "Parallel-counter column counts (32 lanes, 1024 bits): \
                      per-lane trailing_zeros set-bit walk vs bit-transposed \
                      CSA vertical counters (3:2 compressors + plane unpack)",
        baseline_ns,
        optimized_ns,
    }
}

/// Frozen copy of the per-unit `accumulate_product_columns` this PR ported
/// onto the CSA vertical-counter accumulator: XNOR per word, then a
/// `trailing_zeros` walk over the set product bits of every lane.
fn frozen_per_unit_product_walk(
    inputs: &[BitStream],
    weights: &[BitStream],
    len: usize,
    counts: &mut [u16],
) {
    let tail_bits = len % 64;
    let last = len.div_ceil(64) - 1;
    for (x, wt) in inputs.iter().zip(weights.iter()) {
        for (w, (&a, &b)) in x.as_words().iter().zip(wt.as_words().iter()).enumerate() {
            let mut product = !(a ^ b);
            if w == last && tail_bits != 0 {
                product &= (1u64 << tail_bits) - 1;
            }
            let base = w * 64;
            while product != 0 {
                let j = product.trailing_zeros() as usize;
                counts[base + j] += 1;
                product &= product - 1;
            }
        }
    }
}

/// The per-unit APC multiply-count: the frozen `trailing_zeros` product walk
/// (the pre-CSA `Apc::count_products` body) vs the shipped vertical-counter
/// accumulation behind [`ExactParallelCounter::count_products`].
fn bench_per_unit_apc_csa(samples: usize, iters: usize) -> Comparison {
    let len = 1024usize;
    let n = 32usize;
    let (values, wvalues) = operand_values(n);
    let xs: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 60 + i as u64)
                .generate_bipolar(values[i], StreamLength::new(len))
                .unwrap()
        })
        .collect();
    let ws: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 6000 + i as u64)
                .generate_bipolar(wvalues[i], StreamLength::new(len))
                .unwrap()
        })
        .collect();
    let mut frozen = vec![0u16; len];
    frozen_per_unit_product_walk(&xs, &ws, len, &mut frozen);
    let csa = ExactParallelCounter::new()
        .count_products(&xs, &ws)
        .unwrap();
    assert_eq!(
        frozen.as_slice(),
        csa.counts(),
        "CSA per-unit kernel must match the frozen product walk"
    );
    let baseline_ns = measure(samples, iters, || {
        let mut counts = vec![0u16; len];
        frozen_per_unit_product_walk(&xs, &ws, len, &mut counts);
        counts
    });
    let optimized_ns = measure(samples, iters, || {
        ExactParallelCounter::new()
            .count_products(&xs, &ws)
            .unwrap()
    });
    Comparison {
        name: "apc_per_unit_csa_n32_l1024",
        description: "Per-unit APC multiply-count (32 lanes, 1024 bits): \
                      per-lane trailing_zeros product walk vs XNOR super-words \
                      compressed into CSA vertical counters",
        baseline_ns,
        optimized_ns,
    }
}

/// Frozen copy of the PR-3 shared-input APC kernel (per-lane `trailing_zeros`
/// product walk shared across units), the path the CSA kernel replaced.
fn per_lane_shared_product_counts(
    inputs: &[BitStream],
    unit_weights: &[&[BitStream]],
    len: usize,
    counts: &mut [Vec<u16>],
) {
    let tail_bits = len % 64;
    let last = len.div_ceil(64) - 1;
    let mut lane_words: Vec<&[u64]> = Vec::with_capacity(unit_weights.len());
    for (lane, x) in inputs.iter().enumerate() {
        lane_words.clear();
        lane_words.extend(unit_weights.iter().map(|weights| weights[lane].as_words()));
        for (w, &a) in x.as_words().iter().enumerate() {
            let tail_mask = if w == last && tail_bits != 0 {
                (1u64 << tail_bits) - 1
            } else {
                u64::MAX
            };
            let base = w * 64;
            for (unit_counts, words) in counts.iter_mut().zip(&lane_words) {
                let mut product = !(a ^ words[w]) & tail_mask;
                while product != 0 {
                    let j = product.trailing_zeros() as usize;
                    unit_counts[base + j] += 1;
                    product &= product - 1;
                }
            }
        }
    }
}

/// The layer-fused shared-input APC kernel: frozen per-lane popcount walk vs
/// the shipped CSA accumulation, 25 lanes (a 5x5 receptive field) x 8 units.
fn bench_shared_apc_csa(samples: usize, iters: usize) -> Comparison {
    let len = 1024usize;
    let lanes = 25usize;
    let units = 8usize;
    let values = operand_values(lanes).0;
    let inputs: Vec<BitStream> = (0..lanes)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 40 + i as u64)
                .generate_bipolar(values[i], StreamLength::new(len))
                .unwrap()
        })
        .collect();
    let unit_ws: Vec<Vec<BitStream>> = (0..units)
        .map(|u| {
            (0..lanes)
                .map(|i| {
                    Sng::new(SngKind::Lfsr32, 4000 + (u * lanes + i) as u64)
                        .generate_bipolar(-values[i], StreamLength::new(len))
                        .unwrap()
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[BitStream]> = unit_ws.iter().map(|w| w.as_slice()).collect();
    // The frozen walk produces the raw (pre-APC-LSB) exact counts; compare
    // against the exact shared counts reconstructed from the CSA kernel by
    // re-deriving them per unit with the per-unit exact kernel.
    let mut frozen: Vec<Vec<u16>> = vec![vec![0u16; len]; units];
    per_lane_shared_product_counts(&inputs, &refs, len, &mut frozen);
    for (unit, ws) in unit_ws.iter().enumerate() {
        let exact = ExactParallelCounter::new()
            .count_products(&inputs, ws)
            .unwrap();
        assert_eq!(
            frozen[unit].as_slice(),
            exact.counts(),
            "frozen shared walk diverged at unit {unit}"
        );
    }
    let shared = Apc::new().count_products_shared(&inputs, &refs).unwrap();
    for (unit, ws) in unit_ws.iter().enumerate() {
        let per_unit = Apc::new().count_products(&inputs, ws).unwrap();
        assert_eq!(
            shared[unit], per_unit,
            "CSA shared kernel diverged at unit {unit}"
        );
    }
    let baseline_ns = measure(samples, iters, || {
        let mut counts: Vec<Vec<u16>> = vec![vec![0u16; len]; units];
        per_lane_shared_product_counts(&inputs, &refs, len, &mut counts);
        counts
    });
    let optimized_ns = measure(samples, iters, || {
        Apc::new().count_products_shared(&inputs, &refs).unwrap()
    });
    Comparison {
        name: "apc_shared_csa_n25_u8_l1024",
        description: "Shared-input APC multiply-count (25 lanes, 8 units, 1024 \
                      bits): per-lane trailing_zeros product walk vs in-register \
                      3:2 CSA compression into per-unit vertical counters",
        baseline_ns,
        optimized_ns,
    }
}

/// Per-bit reference of the hardware max pool (Fig. 8): every output bit is
/// read with `get` from the input whose previous 16-bit segment held
/// strictly the most ones (the first such input on ties; input 0 for the
/// first segment), counting each candidate bit by bit.
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
        for (input, stream) in inputs.iter().enumerate() {
            let count = (start..end).filter(|&t| stream.get(t)).count();
            if count > best.1 {
                best = (input, count);
            }
        }
        selected = best.0;
    }
    out
}

/// The MUX-Max-Stanh block's max pool over a 2x2 window: the per-bit
/// reference vs the lane-count pool behind `HardwareMaxPooling`.
fn bench_hw_max_pool(samples: usize, iters: usize) -> Comparison {
    let len = StreamLength::new(1024);
    let streams: Vec<BitStream> = (0..4)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 800 + i as u64)
                .generate_bipolar(0.3 - 0.2 * i as f64, len)
                .unwrap()
        })
        .collect();
    let pool = HardwareMaxPooling::default();
    assert_eq!(
        pool.pool_streams(&streams).unwrap(),
        per_bit_max_pool(&streams, pool.segment_bits),
        "lane-count max pool must match the per-bit reference"
    );
    let baseline_ns = measure(samples, iters, || {
        per_bit_max_pool(&streams, pool.segment_bits)
    });
    let optimized_ns = measure(samples, iters, || pool.pool_streams(&streams).unwrap());
    Comparison {
        name: "hw_max_pool_n4_l1024",
        description: "Hardware max pool (4 inputs, 16-bit segments, 1024 bits): \
                      per-bit get/set forwarding and counting vs SWAR \
                      lane-popcounts and lane-wise argmax per word",
        baseline_ns,
        optimized_ns,
    }
}

/// The MUX-Max-Stanh activation of 32 units: one per-bit FSM walk per unit
/// vs the block's byte-table walk.
fn bench_stanh_batch(samples: usize, iters: usize) -> Comparison {
    let len = StreamLength::new(1024);
    let n = 32usize;
    let inputs: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 70 + i as u64)
                .generate_bipolar((i as f64 / n as f64) - 0.5, len)
                .unwrap()
        })
        .collect();
    let refs: Vec<&BitStream> = inputs.iter().collect();
    // conv1's block in tiny LeNet: 25 inputs at L = 1024.
    let block = StanhBlock::for_mux_max(25, len.bits()).unwrap();
    let per_bit = |inputs: &[BitStream]| -> Vec<BitStream> {
        let mut fsm = Stanh::with_mode(block.states(), block.mode()).unwrap();
        inputs.iter().map(|s| fsm.transform(s)).collect()
    };
    let mut arena = StreamArena::new();
    let table = block.apply_batch_with(&refs, &mut arena);
    assert_eq!(
        table,
        per_bit(&inputs),
        "byte-table Stanh walk must match the per-bit FSM"
    );
    arena.recycle_all(table);
    let baseline_ns = measure(samples, iters, || per_bit(&inputs));
    let optimized_ns = measure(samples, iters, || {
        let outputs = block.apply_batch_with(&refs, &mut arena);
        arena.recycle_all(outputs);
    });
    Comparison {
        name: "stanh_batch_n32_l1024",
        description: "Stanh activation (32 units, conv1's MUX-Max block: \
                      Eq. 2 states, shifted threshold, 1024 bits): per-bit FSM \
                      steps vs one byte-table lookup per 8 input bits",
        baseline_ns,
        optimized_ns,
    }
}

/// One kernel timed once per available word backend (see `sc_core::word`).
/// All backends are bit-identical, so the rows differ only in throughput.
struct BackendMatrixRow {
    kernel: &'static str,
    description: &'static str,
    /// `(backend, median ns)` in the order of `available_backends()`.
    timings: Vec<(Backend, f64)>,
}

impl BackendMatrixRow {
    fn scalar_ns(&self) -> f64 {
        self.timings
            .iter()
            .find(|(b, _)| *b == Backend::Scalar)
            .map(|&(_, ns)| ns)
            .unwrap_or(f64::NAN)
    }

    fn speedup(&self, backend: Backend) -> Option<f64> {
        self.timings
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|&(_, ns)| self.scalar_ns() / ns)
    }
}

/// Every backend this build + machine can run, scalar first.
fn available_backends() -> Vec<Backend> {
    let mut list = vec![Backend::Scalar];
    list.extend(
        Backend::ALL
            .into_iter()
            .filter(|b| *b != Backend::Scalar && b.is_available()),
    );
    list.sort_by_key(|b| match b {
        Backend::Scalar => 0,
        Backend::Wide => 1,
        Backend::Avx2 => 2,
    });
    list
}

/// Times `f` once per available backend, pinning the process-wide kernel
/// backend around each measurement and restoring the best one afterwards.
fn measure_per_backend<R>(
    kernel: &'static str,
    description: &'static str,
    samples: usize,
    iters: usize,
    mut f: impl FnMut() -> R,
) -> BackendMatrixRow {
    let timings = available_backends()
        .into_iter()
        .map(|backend| {
            assert!(force_backend(backend), "backend {backend} vanished");
            (backend, measure(samples, iters, &mut f))
        })
        .collect();
    force_backend(sc_core::word::best_available_backend());
    BackendMatrixRow {
        kernel,
        description,
        timings,
    }
}

/// Per-backend timings of the four widened kernel families, each through its
/// public dispatching entry point (the same calls the serving engine makes).
fn backend_matrix(samples: usize, iters: usize) -> Vec<BackendMatrixRow> {
    let len = StreamLength::new(1024);
    let n = 32usize;
    let (values, wvalues) = operand_values(n);
    let xs: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 70 + i as u64)
                .generate_bipolar(values[i], len)
                .unwrap()
        })
        .collect();
    let ws: Vec<BitStream> = (0..n)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 7000 + i as u64)
                .generate_bipolar(wvalues[i], len)
                .unwrap()
        })
        .collect();

    let mut rows = Vec::new();

    // (1) Staged-GF(2) SNG comparator fill.
    let mut sng = Sng::new(SngKind::Lfsr32, 7);
    let mut stream = BitStream::zeros(StreamLength::new(8192));
    rows.push(measure_per_backend(
        "sng_comparator_fill_l8192",
        "SNG comparator fill (LFSR32, 8192 bits): batched sequence window \
         compared against the threshold one super-word at a time",
        samples,
        iters,
        move || sng.generate_probability_into(0.685, &mut stream).unwrap(),
    ));

    // (2) Fused XNOR + popcount inner-product reduction.
    {
        let xs = xs.clone();
        let ws = ws.clone();
        rows.push(measure_per_backend(
            "xnor_popcount_n32_l1024",
            "Fused XNOR/popcount inner product (32 lanes, 1024 bits): \
             per-lane xnor_count reduction",
            samples,
            iters * 4,
            move || -> usize { xs.iter().zip(&ws).map(|(x, w)| x.xnor_count(w)).sum() },
        ));
    }

    // (3) MUX selector plan gather: one selected stream out of 32 lanes.
    {
        let xs = xs.clone();
        let mut selector = Lfsr::new_32(77);
        let plan = MuxSelectorPlan::new(n, len.bits(), &mut selector).unwrap();
        // The gather identity the fused layer path relies on: the XNOR of
        // the gathered inputs and weights is the MUX sum of the lane
        // products. A wrong kernel fails here instead of being timed.
        let gathered = MuxAdder::new().sum_with_plan(&xs, &plan).unwrap();
        let products = gathered.xnor(&MuxAdder::new().sum_with_plan(&ws, &plan).unwrap());
        assert_eq!(
            products,
            MuxAdder::new()
                .sum_products(&xs, &ws, &mut Lfsr::new_32(77))
                .unwrap(),
            "gathered MUX products must match the fused multiply-select"
        );
        let mut out = BitStream::zeros(len);
        rows.push(measure_per_backend(
            "mux_plan_gather_n32_l1024",
            "MUX selector plan gather (32 lanes, 1024 bits): chunk-grouped \
             masked ORs selecting one stream per cycle",
            samples,
            iters * 4,
            move || {
                MuxAdder::new()
                    .sum_with_plan_into(&xs, &plan, &mut out)
                    .unwrap()
            },
        ));
    }

    // (4) CSA vertical-counter product accumulation (shared-input layer form).
    {
        let lanes = 25usize;
        let units = 8usize;
        let lane_values = operand_values(lanes).0;
        let inputs: Vec<BitStream> = (0..lanes)
            .map(|i| {
                Sng::new(SngKind::Lfsr32, 40 + i as u64)
                    .generate_bipolar(lane_values[i], len)
                    .unwrap()
            })
            .collect();
        let unit_ws: Vec<Vec<BitStream>> = (0..units)
            .map(|u| {
                (0..lanes)
                    .map(|i| {
                        Sng::new(SngKind::Lfsr32, 4000 + (u * lanes + i) as u64)
                            .generate_bipolar(-lane_values[i], len)
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        rows.push(measure_per_backend(
            "csa_shared_apc_n25_u8_l1024",
            "Shared-input CSA multiply-count (25 lanes, 8 units, 1024 bits): \
             3:2 compression of product super-words into per-unit vertical \
             counters",
            samples,
            iters,
            move || {
                let refs: Vec<&[BitStream]> = unit_ws.iter().map(|w| w.as_slice()).collect();
                Apc::new().count_products_shared(&inputs, &refs).unwrap()
            },
        ));
    }

    rows
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, iters) = if quick { (5, 20) } else { (15, 200) };

    println!("Measuring word-parallel kernels against per-bit baselines ...\n");
    let comparisons = vec![
        bench_sng(1024, samples, iters * 4),
        bench_sng(8192, samples, iters),
        bench_inner_product(samples, iters.div_ceil(4)),
        bench_mux_block(samples, iters),
        bench_mux_selector(samples, iters),
        bench_apc_counts(samples, iters),
        bench_csa_column_count(samples, iters),
        bench_per_unit_apc_csa(samples, iters),
        bench_shared_apc_csa(samples, iters.div_ceil(4)),
        bench_hw_max_pool(samples, iters),
        bench_stanh_batch(samples, iters.div_ceil(4)),
    ];

    println!(
        "{:<34}{:>16}{:>16}{:>10}",
        "benchmark", "baseline", "optimized", "speedup"
    );
    for c in &comparisons {
        println!(
            "{:<34}{:>13.0} ns{:>13.0} ns{:>9.1}x",
            c.name,
            c.baseline_ns,
            c.optimized_ns,
            c.speedup()
        );
    }

    let backends = available_backends();
    println!(
        "\nPer-backend kernel matrix (backends: {}) ...\n",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let matrix = backend_matrix(samples, iters);
    print!("{:<30}", "kernel");
    for backend in &backends {
        print!("{:>14}", backend.name());
    }
    println!("{:>22}", "best speedup vs scalar");
    for row in &matrix {
        print!("{:<30}", row.kernel);
        for &(_, ns) in &row.timings {
            print!("{ns:>11.0} ns");
        }
        let best = row
            .timings
            .iter()
            .map(|&(_, ns)| row.scalar_ns() / ns)
            .fold(f64::NAN, f64::max);
        println!("{best:>21.2}x");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"generated_by\": \"cargo run --release -p sc-bench --features simd --bin bench_kernels\",\n");
    json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    json.push_str("  \"unit\": \"nanoseconds per evaluation (median)\",\n");
    json.push_str("  \"benchmarks\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", json_escape(c.name)));
        json.push_str(&format!(
            "      \"description\": \"{}\",\n",
            json_escape(c.description)
        ));
        json.push_str(&format!("      \"baseline_ns\": {:.1},\n", c.baseline_ns));
        json.push_str(&format!("      \"optimized_ns\": {:.1},\n", c.optimized_ns));
        json.push_str(&format!("      \"speedup\": {:.2}\n", c.speedup()));
        json.push_str(if i + 1 == comparisons.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"kernel_backends\": {\n    \"note\": \"the same four kernels \
         timed once per word backend via force_backend; every backend is \
         bit-identical to scalar, speedups are scalar_ns / backend_ns\",\n",
    );
    json.push_str(&format!(
        "    \"available\": [{}],\n",
        backends
            .iter()
            .map(|b| format!("\"{}\"", b.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("    \"rows\": [\n");
    for (i, row) in matrix.iter().enumerate() {
        json.push_str("      {\n");
        json.push_str(&format!(
            "        \"kernel\": \"{}\",\n",
            json_escape(row.kernel)
        ));
        json.push_str(&format!(
            "        \"description\": \"{}\",\n",
            json_escape(row.description)
        ));
        for &(backend, ns) in &row.timings {
            json.push_str(&format!("        \"{}_ns\": {:.1},\n", backend.name(), ns));
        }
        let mut speedups: Vec<String> = Vec::new();
        for &(backend, _) in &row.timings {
            if backend != Backend::Scalar {
                if let Some(s) = row.speedup(backend) {
                    speedups.push(format!("        \"{}_speedup\": {:.2}", backend.name(), s));
                }
            }
        }
        json.push_str(&speedups.join(",\n"));
        json.push('\n');
        json.push_str(if i + 1 == matrix.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    json.push_str("    ]\n  }\n}\n");

    // A `--quick` smoke must not replace the committed recording with its
    // noisier low-iteration medians.
    if quick {
        println!(
            "\nskipping BENCH_kernels.json write (--quick); rerun without the \
             flag to refresh the recording"
        );
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("\nwrote {}", path.display());
}

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
use sc_core::activation::{Btanh, Stanh};
use sc_core::add::{Apc, CountStream, ExactParallelCounter, MuxAdder, MuxSelectorPlan};
use sc_core::arena::StreamArena;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::csa::{CountPlanes, PackedLanes, ROW_GROUP};
use sc_core::multiply;
use sc_core::rng::Lfsr;
use sc_core::sng::{LaneSequence, SelectedSequence, Sng, SngBank, SngKind};
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

/// Frozen copy of the per-unit `accumulate_product_columns` before it moved
/// onto carry-save column counts: XNOR per word, then a `trailing_zeros`
/// walk over the set product bits of every lane.
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
/// (the pre-CSA `Apc::count_products` body) vs the shipped packing +
/// Harley-Seal column counts behind [`ExactParallelCounter::count_products`].
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
                      per-lane trailing_zeros product walk vs packing both \
                      operands + Harley-Seal column counts",
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
/// the packed Harley-Seal core, 25 lanes (a 5x5 receptive field) x 8 units.
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
    // them with the per-unit exact kernel.
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
    let (packed_inputs, packed_weights) = pack_operands(&inputs, &unit_ws);
    let mut arena = StreamArena::new();
    let packed: Vec<CountStream> = Apc::new()
        .count_planes_with(packed_inputs.view(), packed_weights.view(), &mut arena)
        .unwrap()
        .into_iter()
        .map(|planes| planes.drain_with(&mut arena).unwrap())
        .collect();
    for (unit, ws) in unit_ws.iter().enumerate() {
        let per_unit = Apc::new().count_products(&inputs, ws).unwrap();
        assert_eq!(
            packed[unit], per_unit,
            "packed kernel diverged at unit {unit}"
        );
    }
    let baseline_ns = measure(samples, iters, || {
        let mut counts: Vec<Vec<u16>> = vec![vec![0u16; len]; units];
        per_lane_shared_product_counts(&inputs, &refs, len, &mut counts);
        counts
    });
    let optimized_ns = measure(samples, iters, || {
        let rows = Apc::new()
            .count_planes_with(packed_inputs.view(), packed_weights.view(), &mut arena)
            .unwrap();
        for planes in rows {
            let counts = planes.drain_with(&mut arena).unwrap();
            arena.recycle_counts(counts.into_counts());
        }
    });
    Comparison {
        name: "apc_shared_csa_n25_u8_l1024",
        description: "Shared-input APC multiply-count (25 lanes, 8 units, 1024 \
                      bits): per-lane trailing_zeros product walk vs the packed \
                      Harley-Seal column counts (operands packed once, untimed)",
        baseline_ns,
        optimized_ns,
    }
}

/// Packs one input field and the weights of every unit (one row each).
fn pack_operands(inputs: &[BitStream], unit_ws: &[Vec<BitStream>]) -> (PackedLanes, PackedLanes) {
    (
        PackedLanes::pack([inputs]).unwrap(),
        PackedLanes::pack(unit_ws.iter().map(Vec::as_slice)).unwrap(),
    )
}

/// Frozen copy of the shared-input APC kernel the packed core replaced:
/// word-major over super-word groups, every unit's per-lane `BitStream`
/// loaded at each group, lane triples through a 3:2 compressor into
/// per-unit vertical counters that ripple with a branch per plane, planes
/// drained per word position. Exact counts, no APC LSB.
mod frozen_shared {
    use sc_core::word::Word;

    const MAX_PLANES: usize = 17;

    #[derive(Clone)]
    struct VerticalCounter {
        planes: [u64; MAX_PLANES],
        used: usize,
    }

    impl VerticalCounter {
        fn new() -> Self {
            Self {
                planes: [0; MAX_PLANES],
                used: 0,
            }
        }

        #[inline]
        fn add_at(&mut self, mut word: u64, plane: usize) {
            let mut k = plane;
            while word != 0 {
                let carry = self.planes[k] & word;
                self.planes[k] ^= word;
                word = carry;
                k += 1;
            }
            self.used = self.used.max(k);
        }

        #[inline]
        fn add3(&mut self, a: u64, b: u64, c: u64) {
            let partial = a ^ b;
            self.add_at(partial ^ c, 0);
            self.add_at((a & b) | (partial & c), 1);
        }

        #[inline]
        fn drain_into(&mut self, counts: &mut [u16]) {
            if self.used <= 8 && counts.len() == 64 {
                for (group, group_counts) in counts.chunks_exact_mut(8).enumerate() {
                    let shift = 8 * group as u32;
                    let mut packed = 0u64;
                    for k in 0..self.used {
                        packed |= ((self.planes[k] >> shift) & 0xFF) << (8 * k);
                    }
                    if packed == 0 {
                        continue;
                    }
                    let transposed = transpose8(packed);
                    for (j, count) in group_counts.iter_mut().enumerate() {
                        *count += ((transposed >> (8 * j)) & 0xFF) as u16;
                    }
                }
            } else {
                for k in 0..self.used {
                    let mut bits = self.planes[k];
                    while bits != 0 {
                        counts[bits.trailing_zeros() as usize] += 1 << k;
                        bits &= bits - 1;
                    }
                }
            }
            self.planes[..self.used].fill(0);
            self.used = 0;
        }
    }

    #[inline(always)]
    fn transpose8(mut x: u64) -> u64 {
        let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x ^= t ^ (t << 28);
        x
    }

    struct WideVerticalCounter<W: Word> {
        planes: [W; MAX_PLANES],
        used: usize,
    }

    impl<W: Word> WideVerticalCounter<W> {
        fn new() -> Self {
            Self {
                planes: [W::zero(); MAX_PLANES],
                used: 0,
            }
        }

        #[inline(always)]
        fn add_at(&mut self, mut word: W, plane: usize) {
            let mut k = plane;
            while !word.is_zero() {
                let carry = self.planes[k].and(word);
                self.planes[k] = self.planes[k].xor(word);
                word = carry;
                k += 1;
            }
            self.used = self.used.max(k);
        }

        #[inline(always)]
        fn add3(&mut self, a: W, b: W, c: W) {
            let partial = a.xor(b);
            self.add_at(partial.xor(c), 0);
            self.add_at(a.and(b).or(partial.and(c)), 1);
        }

        #[inline]
        fn drain_into(&mut self, counts: &mut [u16]) {
            let mut lanes = [[0u64; 4]; MAX_PLANES];
            for (k, lane_words) in lanes.iter_mut().enumerate().take(self.used) {
                self.planes[k].store(lane_words);
                self.planes[k] = W::zero();
            }
            let mut scalar = VerticalCounter::new();
            for (lane, lane_counts) in counts.chunks_exact_mut(64).take(W::LANES).enumerate() {
                for (k, lane_words) in lanes.iter().enumerate().take(self.used) {
                    scalar.planes[k] = lane_words[lane];
                }
                scalar.used = self.used;
                scalar.drain_into(lane_counts);
            }
            self.used = 0;
        }
    }

    #[inline(always)]
    pub fn counts_impl<W: Word>(
        input_words: &[&[u64]],
        unit_lane_words: &[Vec<&[u64]>],
        len: usize,
        counts: &mut [Vec<u16>],
    ) {
        let lanes = input_words.len();
        let full_words = len / 64;
        let mut w = 0usize;
        if W::LANES > 1 {
            let mut counters: Vec<WideVerticalCounter<W>> = unit_lane_words
                .iter()
                .map(|_| WideVerticalCounter::new())
                .collect();
            while w + W::LANES <= full_words {
                let mut lane = 0;
                while lane + 3 <= lanes {
                    let a0 = W::load(&input_words[lane][w..]);
                    let a1 = W::load(&input_words[lane + 1][w..]);
                    let a2 = W::load(&input_words[lane + 2][w..]);
                    for (counter, lane_words) in counters.iter_mut().zip(unit_lane_words) {
                        counter.add3(
                            a0.xor(W::load(&lane_words[lane][w..])).not(),
                            a1.xor(W::load(&lane_words[lane + 1][w..])).not(),
                            a2.xor(W::load(&lane_words[lane + 2][w..])).not(),
                        );
                    }
                    lane += 3;
                }
                while lane < lanes {
                    let a = W::load(&input_words[lane][w..]);
                    for (counter, lane_words) in counters.iter_mut().zip(unit_lane_words) {
                        counter.add_at(a.xor(W::load(&lane_words[lane][w..])).not(), 0);
                    }
                    lane += 1;
                }
                for (counter, unit_counts) in counters.iter_mut().zip(counts.iter_mut()) {
                    counter.drain_into(&mut unit_counts[w * 64..(w + W::LANES) * 64]);
                }
                w += W::LANES;
            }
        }
        let words = len.div_ceil(64);
        let mut counters: Vec<VerticalCounter> = unit_lane_words
            .iter()
            .map(|_| VerticalCounter::new())
            .collect();
        while w < words {
            let base = w * 64;
            let span = (len - base).min(64);
            let tail_mask = if span == 64 {
                u64::MAX
            } else {
                (1u64 << span) - 1
            };
            let mut lane = 0;
            while lane + 3 <= lanes {
                let a0 = input_words[lane][w];
                let a1 = input_words[lane + 1][w];
                let a2 = input_words[lane + 2][w];
                for (counter, lane_words) in counters.iter_mut().zip(unit_lane_words) {
                    counter.add3(
                        !(a0 ^ lane_words[lane][w]) & tail_mask,
                        !(a1 ^ lane_words[lane + 1][w]) & tail_mask,
                        !(a2 ^ lane_words[lane + 2][w]) & tail_mask,
                    );
                }
                lane += 3;
            }
            while lane < lanes {
                let a = input_words[lane][w];
                for (counter, lane_words) in counters.iter_mut().zip(unit_lane_words) {
                    counter.add_at(!(a ^ lane_words[lane][w]) & tail_mask, 0);
                }
                lane += 1;
            }
            for (counter, unit_counts) in counters.iter_mut().zip(counts.iter_mut()) {
                counter.drain_into(&mut unit_counts[base..base + span]);
            }
            w += 1;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn counts_avx2(
        input_words: &[&[u64]],
        unit_lane_words: &[Vec<&[u64]>],
        len: usize,
        counts: &mut [Vec<u16>],
    ) {
        counts_impl::<sc_core::word::WAvx2>(input_words, unit_lane_words, len, counts)
    }

    /// The frozen kernel under the active backend, as the library
    /// dispatched it.
    pub fn counts(
        input_words: &[&[u64]],
        unit_lane_words: &[Vec<&[u64]>],
        len: usize,
        counts: &mut [Vec<u16>],
    ) {
        match sc_core::active_backend() {
            sc_core::Backend::Scalar => {
                counts_impl::<u64>(input_words, unit_lane_words, len, counts)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the backend selector reports AVX2 only when available.
            sc_core::Backend::Avx2 => unsafe {
                counts_avx2(input_words, unit_lane_words, len, counts)
            },
            _ => counts_impl::<sc_core::word::W4>(input_words, unit_lane_words, len, counts),
        }
    }
}

/// Evicts `words` from every cache level (best effort off x86-64, where it
/// sweeps a buffer larger than the caches instead).
fn evict(words: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    for line in words.chunks(8) {
        // SAFETY: `clflush` on a valid address of our own memory; SSE2 is
        // part of the x86-64 baseline.
        unsafe { std::arch::x86_64::_mm_clflush(line.as_ptr().cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = words;
        let sweep = vec![1u8; 64 << 20];
        std::hint::black_box(sweep.iter().map(|&b| u64::from(b)).sum::<u64>());
    }
}

/// Median nanoseconds per call over `samples` samples of `iters` calls,
/// each call preceded by an untimed `prepare()`.
fn measure_prepared<R>(
    samples: usize,
    iters: usize,
    mut prepare: impl FnMut(),
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..iters {
                prepare();
                let start = Instant::now();
                std::hint::black_box(f());
                total += start.elapsed().as_nanos();
            }
            total as f64 / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.total_cmp(b));
    timings[timings.len() / 2]
}

/// fc1's shape in the no1 network (256 lanes, 64 units, 1024 bits).
const FC1: (usize, usize, usize) = (256, 64, 1024);

/// fc1-shaped operands: one input field and every unit's weight lanes.
fn fc1_operands() -> (Vec<BitStream>, Vec<Vec<BitStream>>) {
    let (lanes, units, len) = FC1;
    let len = StreamLength::new(len);
    let values = operand_values(lanes).0;
    let inputs = (0..lanes)
        .map(|i| {
            Sng::new(SngKind::Lfsr32, 90 + i as u64)
                .generate_bipolar(values[i], len)
                .unwrap()
        })
        .collect();
    let unit_ws = (0..units)
        .map(|u| {
            (0..lanes)
                .map(|i| {
                    Sng::new(SngKind::Lfsr32, 9000 + (u * lanes + i) as u64)
                        .generate_bipolar(-values[(i + u) % lanes], len)
                        .unwrap()
                })
                .collect()
        })
        .collect();
    (inputs, unit_ws)
}

/// fc1's APC count phase: the frozen shared kernel over per-lane streams
/// vs the packed Harley-Seal core over the packed layout, hot (weights
/// cached) or `cold` (every weight evicted from the caches before each
/// call, as a request meets them after the rest of the frame ran). Both
/// produce exact counts, asserted equal before timing.
fn bench_fc1_apc(samples: usize, iters: usize, cold: bool) -> Comparison {
    let (_, units, len) = FC1;
    let (inputs, unit_ws) = fc1_operands();
    let input_words: Vec<&[u64]> = inputs.iter().map(|s| s.as_words()).collect();
    let unit_lane_words: Vec<Vec<&[u64]>> = unit_ws
        .iter()
        .map(|ws| ws.iter().map(|s| s.as_words()).collect())
        .collect();
    let (packed_inputs, packed_weights) = pack_operands(&inputs, &unit_ws);
    let mut frozen = vec![vec![0u16; len]; units];
    frozen_shared::counts(&input_words, &unit_lane_words, len, &mut frozen);
    let mut arena = StreamArena::new();
    let packed: Vec<CountStream> = Apc::new()
        .count_planes_with(packed_inputs.view(), packed_weights.view(), &mut arena)
        .unwrap()
        .into_iter()
        .map(|planes| planes.drain_with(&mut arena).unwrap())
        .collect();
    for (unit, (exact, apc)) in frozen.iter().zip(&packed).enumerate() {
        let mut expected = ExactParallelCounter::new()
            .count_products(&inputs, &unit_ws[unit])
            .unwrap();
        assert_eq!(
            expected.counts(),
            exact.as_slice(),
            "frozen kernel at unit {unit}"
        );
        expected = Apc::new().count_products(&inputs, &unit_ws[unit]).unwrap();
        assert_eq!(&expected, apc, "packed kernel at unit {unit}");
    }
    let evict_frozen = || {
        if cold {
            for words in unit_lane_words.iter().flatten() {
                evict(words);
            }
        }
    };
    let evict_packed = || {
        if cold {
            evict(packed_weights.as_words());
        }
    };
    let baseline_ns = measure_prepared(samples, iters, evict_frozen, || {
        let mut counts = vec![vec![0u16; len]; units];
        frozen_shared::counts(&input_words, &unit_lane_words, len, &mut counts);
        counts
    });
    let optimized_ns = measure_prepared(samples, iters, evict_packed, || {
        let rows = Apc::new()
            .count_planes_with(packed_inputs.view(), packed_weights.view(), &mut arena)
            .unwrap();
        for planes in rows {
            let counts = planes.drain_with(&mut arena).unwrap();
            arena.recycle_counts(counts.into_counts());
        }
    });
    if cold {
        Comparison {
            name: "apc_fc1_n256_u64_l1024_cold",
            description: "fc1's APC count phase (256 lanes, 64 units, 1024 bits), \
                          every weight evicted from the caches before each call: \
                          frozen shared kernel over 16384 separate weight streams \
                          vs the packed Harley-Seal core reading each unit's \
                          packed weights once, in order",
            baseline_ns,
            optimized_ns,
        }
    } else {
        Comparison {
            name: "apc_fc1_n256_u64_l1024",
            description: "fc1's APC count phase (256 lanes, 64 units, 1024 bits), \
                          weights cached: frozen shared kernel over 16384 separate \
                          weight streams vs the packed Harley-Seal core",
            baseline_ns,
            optimized_ns,
        }
    }
}

/// Frozen copy of the APC count path the plane path replaced on the
/// engine: the packed Harley-Seal core draining every (field, row) into
/// `u16` counts through a `[[u64; 16]; 4]` scratch and a scalar 8-column
/// transpose, the approximate LSB applied to the counts, and the hardware
/// max pool over the count rows.
mod frozen_field_drain {
    use sc_core::add::CountStream;
    use sc_core::arena::StreamArena;
    use sc_core::word::Word;

    const GROUP_WORDS: usize = 4;
    const GROUP_BITS: usize = 256;
    const MAX_PLANES: usize = 16;

    #[inline(always)]
    fn csa<W: Word>(a: W, b: W, c: W) -> (W, W) {
        let partial = a.xor(b);
        (partial.xor(c), a.and(b).or(partial.and(c)))
    }

    struct Planes<W: Word> {
        ones: W,
        twos: W,
        fours: W,
        eights: W,
        upper: [W; MAX_PLANES - 4],
    }

    impl<W: Word> Planes<W> {
        #[inline(always)]
        fn add(&mut self, word: W, upper: usize) {
            let carry = self.ones.and(word);
            self.ones = self.ones.xor(word);
            let carry2 = self.twos.and(carry);
            self.twos = self.twos.xor(carry);
            let carry4 = self.fours.and(carry2);
            self.fours = self.fours.xor(carry2);
            let carry8 = self.eights.and(carry4);
            self.eights = self.eights.xor(carry4);
            self.add_sixteens(carry8, upper);
        }

        #[inline(always)]
        fn add_sixteens(&mut self, mut carry: W, upper: usize) {
            for plane in &mut self.upper[..upper] {
                let next = plane.and(carry);
                *plane = plane.xor(carry);
                carry = next;
            }
        }

        #[inline(always)]
        fn drain(&self, sub: usize, planes: usize, out: &mut [u16]) {
            let mut by_word = [[0u64; MAX_PLANES]; GROUP_WORDS];
            let low = [self.ones, self.twos, self.fours, self.eights];
            for (k, plane) in low.iter().chain(&self.upper).take(planes).enumerate() {
                let mut words = [0u64; GROUP_WORDS];
                plane.store(&mut words);
                for (word_planes, &bits) in by_word.iter_mut().zip(&words) {
                    word_planes[k] = bits;
                }
            }
            for (lane, word_planes) in by_word.iter().enumerate().take(W::LANES) {
                let start = (sub + lane) * 64;
                if start >= out.len() {
                    break;
                }
                let end = out.len().min(start + 64);
                drain_word(&word_planes[..planes], &mut out[start..end]);
            }
        }
    }

    #[inline(always)]
    fn compress<W: Word>(x: &[u64], w: &[u64], sub: usize, mask: W, upper: usize) -> Planes<W> {
        let product = |x: &[u64], w: &[u64], lane: usize| {
            let at = lane * GROUP_WORDS + sub;
            W::load(&x[at..at + W::LANES])
                .xor(W::load(&w[at..at + W::LANES]))
                .not()
                .and(mask)
        };
        let mut p = Planes {
            ones: W::zero(),
            twos: W::zero(),
            fours: W::zero(),
            eights: W::zero(),
            upper: [W::zero(); MAX_PLANES - 4],
        };
        let mut xs = x.chunks_exact(16 * GROUP_WORDS);
        let mut ws = w.chunks_exact(16 * GROUP_WORDS);
        for (xc, wc) in (&mut xs).zip(&mut ws) {
            let d = |lane| product(xc, wc, lane);
            let (ones, twos_a) = csa(p.ones, d(0), d(1));
            let (ones, twos_b) = csa(ones, d(2), d(3));
            let (twos, fours_a) = csa(p.twos, twos_a, twos_b);
            let (ones, twos_a) = csa(ones, d(4), d(5));
            let (ones, twos_b) = csa(ones, d(6), d(7));
            let (twos, fours_b) = csa(twos, twos_a, twos_b);
            let (fours, eights_a) = csa(p.fours, fours_a, fours_b);
            let (ones, twos_a) = csa(ones, d(8), d(9));
            let (ones, twos_b) = csa(ones, d(10), d(11));
            let (twos, fours_a) = csa(twos, twos_a, twos_b);
            let (ones, twos_a) = csa(ones, d(12), d(13));
            let (ones, twos_b) = csa(ones, d(14), d(15));
            let (twos, fours_b) = csa(twos, twos_a, twos_b);
            let (fours, eights_b) = csa(fours, fours_a, fours_b);
            let (eights, sixteens) = csa(p.eights, eights_a, eights_b);
            p.ones = ones;
            p.twos = twos;
            p.fours = fours;
            p.eights = eights;
            p.add_sixteens(sixteens, upper);
        }
        let (xr, wr) = (xs.remainder(), ws.remainder());
        for lane in 0..xr.len() / GROUP_WORDS {
            p.add(product(xr, wr, lane), upper);
        }
        p
    }

    #[inline(always)]
    fn drain_word(planes: &[u64], out: &mut [u16]) {
        let low = &planes[..planes.len().min(8)];
        let mut full = [0u16; 64];
        for (group, columns) in full.chunks_exact_mut(8).enumerate() {
            let shift = 8 * group as u32;
            let mut packed = 0u64;
            for (k, &plane) in low.iter().enumerate() {
                packed |= ((plane >> shift) & 0xFF) << (8 * k);
            }
            let transposed = transpose8(packed);
            for (j, count) in columns.iter_mut().enumerate() {
                *count = ((transposed >> (8 * j)) & 0xFF) as u16;
            }
        }
        let len = out.len();
        out.copy_from_slice(&full[..len]);
        for (k, &plane) in planes.iter().enumerate().skip(8) {
            let mut bits = plane;
            while bits != 0 {
                out[bits.trailing_zeros() as usize] += 1 << k;
                bits &= bits - 1;
            }
        }
    }

    #[inline(always)]
    fn transpose8(mut x: u64) -> u64 {
        let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x ^= t ^ (t << 28);
        x
    }

    /// APC counts of the one-row packed `input` against every packed row of
    /// `weights` (`lanes` lanes, `bits` columns), into `counts`.
    #[inline(always)]
    pub fn apc_counts_impl<W: Word>(
        input: &[u64],
        weights: &[u64],
        lanes: usize,
        bits: usize,
        counts: &mut [Vec<u16>],
    ) {
        let group_words = lanes * GROUP_WORDS;
        let groups = bits.div_ceil(GROUP_BITS);
        let planes = (usize::BITS - lanes.leading_zeros()) as usize;
        let upper = planes.saturating_sub(4);
        for (row, row_counts) in weights
            .chunks_exact(groups * group_words)
            .zip(counts.iter_mut())
        {
            for g in 0..groups {
                let x = &input[g * group_words..(g + 1) * group_words];
                let w = &row[g * group_words..(g + 1) * group_words];
                let span = (bits - g * GROUP_BITS).min(GROUP_BITS);
                let out = &mut row_counts[g * GROUP_BITS..g * GROUP_BITS + span];
                let mut sub = 0;
                while sub < GROUP_WORDS && sub * 64 < span {
                    let mut masks = [0u64; GROUP_WORDS];
                    for (s, mask) in masks.iter_mut().enumerate() {
                        let valid = span.saturating_sub(s * 64).min(64);
                        *mask = if valid == 64 {
                            u64::MAX
                        } else {
                            (1u64 << valid) - 1
                        };
                    }
                    compress::<W>(x, w, sub, W::load(&masks[sub..]), upper).drain(sub, planes, out);
                    sub += W::LANES;
                }
            }
        }
        if lanes >= 2 {
            for row_counts in counts.iter_mut() {
                for (i, count) in row_counts.iter_mut().enumerate() {
                    *count = ((*count & !1) + (i & 1) as u16).min(lanes as u16);
                }
            }
        }
    }

    /// The hardware max pool over `u16` count rows into an arena buffer
    /// (16-bit segments), as the engine ran it.
    pub fn pool_counts_with(inputs: &[CountStream], arena: &mut StreamArena) -> CountStream {
        let len = inputs[0].len();
        let mut out = arena.take_counts(len);
        let mut selected = 0usize;
        for start in (0..len).step_by(16) {
            let end = (start + 16).min(len);
            out[start..end].copy_from_slice(&inputs[selected].counts()[start..end]);
            let mut best = (0usize, 0u64);
            for (input, stream) in inputs.iter().enumerate() {
                let total: u64 = stream.counts()[start..end]
                    .iter()
                    .map(|&c| u64::from(c))
                    .sum();
                if total > best.1 {
                    best = (input, total);
                }
            }
            selected = best.0;
        }
        CountStream::new(out, inputs[0].lanes()).unwrap()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apc_counts_avx2(
        input: &[u64],
        weights: &[u64],
        lanes: usize,
        bits: usize,
        counts: &mut [Vec<u16>],
    ) {
        apc_counts_impl::<sc_core::word::WAvx2>(input, weights, lanes, bits, counts)
    }

    /// The frozen kernel under the active backend, as the library
    /// dispatched it.
    pub fn apc_counts(
        input: &[u64],
        weights: &[u64],
        lanes: usize,
        bits: usize,
        counts: &mut [Vec<u16>],
    ) {
        match sc_core::active_backend() {
            sc_core::Backend::Scalar => apc_counts_impl::<u64>(input, weights, lanes, bits, counts),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the backend selector reports AVX2 only when available.
            sc_core::Backend::Avx2 => unsafe {
                apc_counts_avx2(input, weights, lanes, bits, counts)
            },
            _ => apc_counts_impl::<sc_core::word::W4>(input, weights, lanes, bits, counts),
        }
    }
}

/// conv1's all-APC shape at L=256: 4 pool-window fields of 25 lanes, 8
/// filters, and the filters' APC-Max Btanh.
const CONV1_APC: (usize, usize, usize, usize) = (4, 25, 8, 256);

/// One conv1 position of the all-APC network, count to pooled counts, for
/// every row: the frozen per-field drain with the approximate LSB on the
/// counts and the count pool over the drained rows, against the plane
/// path the engine runs (`Apc::count_planes_with`, `pool_planes_with`, one
/// drain of every pooled row into the row-interleaved buffer the Btanh
/// walk reads). Both sides stop at the pooled counts, asserted equal
/// before timing: the Btanh walk that follows is the same on both, and is
/// timed on its own (`btanh_rows8_l256`).
fn bench_apc_max_window(samples: usize, iters: usize) -> Comparison {
    let (window, lanes, rows, bits) = CONV1_APC;
    let len = StreamLength::new(bits);
    let values = operand_values(lanes).0;
    let inputs: Vec<PackedLanes> = (0..window)
        .map(|field| {
            let lane_streams: Vec<BitStream> = (0..lanes)
                .map(|i| {
                    Sng::new(SngKind::Lfsr32, 300 + (field * lanes + i) as u64)
                        .generate_bipolar(values[(i + 3 * field) % lanes], len)
                        .unwrap()
                })
                .collect();
            PackedLanes::pack([lane_streams.as_slice()]).unwrap()
        })
        .collect();
    let weights: Vec<PackedLanes> = (0..window)
        .map(|field| {
            let unit_ws: Vec<Vec<BitStream>> = (0..rows)
                .map(|row| {
                    (0..lanes)
                        .map(|i| {
                            Sng::new(
                                SngKind::Lfsr32,
                                7000 + ((field * rows + row) * lanes + i) as u64,
                            )
                            .generate_bipolar(-values[(i + row) % lanes], len)
                            .unwrap()
                        })
                        .collect()
                })
                .collect();
            PackedLanes::pack(unit_ws.iter().map(Vec::as_slice)).unwrap()
        })
        .collect();
    let pool = HardwareMaxPooling::default();
    let frozen = |frozen_arena: &mut StreamArena| {
        let mut per_row: Vec<Vec<CountStream>> =
            (0..rows).map(|_| Vec::with_capacity(window)).collect();
        for (x, w) in inputs.iter().zip(&weights) {
            let mut counts: Vec<Vec<u16>> =
                (0..rows).map(|_| frozen_arena.take_counts(bits)).collect();
            frozen_field_drain::apc_counts(x.as_words(), w.as_words(), lanes, bits, &mut counts);
            for (row, row_counts) in counts.into_iter().enumerate() {
                per_row[row].push(CountStream::new(row_counts, lanes).unwrap());
            }
        }
        let mut pooled = Vec::with_capacity(rows);
        for row_counts in per_row {
            pooled.push(frozen_field_drain::pool_counts_with(
                &row_counts,
                frozen_arena,
            ));
            for counts in row_counts {
                frozen_arena.recycle_counts(counts.into_counts());
            }
        }
        pooled
    };
    let planes = |plane_arena: &mut StreamArena| {
        let mut per_row: Vec<Vec<CountPlanes>> =
            (0..rows).map(|_| Vec::with_capacity(window)).collect();
        for (x, w) in inputs.iter().zip(&weights) {
            let field = Apc::new()
                .count_planes_with(x.view(), w.view(), plane_arena)
                .unwrap();
            for (row, row_planes) in field.into_iter().enumerate() {
                per_row[row].push(row_planes);
            }
        }
        let mut pooled = Vec::with_capacity(rows);
        for row_planes in per_row {
            pooled.push(pool.pool_planes_with(&row_planes, plane_arena).unwrap());
            for field in row_planes {
                plane_arena.recycle_planes(field);
            }
        }
        let mut counts = plane_arena.take_counts(rows.next_multiple_of(ROW_GROUP) * bits);
        CountPlanes::drain_interleaved(&pooled, &mut counts).unwrap();
        for row in pooled {
            plane_arena.recycle_planes(row);
        }
        counts
    };
    let mut arena = StreamArena::new();
    check_per_backend(|backend| {
        let (before, after) = (frozen(&mut arena), planes(&mut arena));
        for (row, counts) in before.iter().enumerate() {
            for (t, &count) in counts.counts().iter().enumerate() {
                assert_eq!(
                    after[(row / ROW_GROUP * bits + t) * ROW_GROUP + row % ROW_GROUP],
                    count,
                    "{backend}: plane path must match the frozen count path"
                );
            }
        }
        for counts in before {
            arena.recycle_counts(counts.into_counts());
        }
        arena.recycle_counts(after);
    });
    let baseline_ns = measure(samples, iters, || {
        for counts in frozen(&mut arena) {
            arena.recycle_counts(counts.into_counts());
        }
    });
    let optimized_ns = measure(samples, iters, || {
        let counts = planes(&mut arena);
        arena.recycle_counts(counts);
    });
    Comparison {
        name: "apc_max_window_n25_u8_l256",
        description: "One conv1 position of the all-APC network (4 fields x 8 rows \
                      of 25 lanes, 256 bits, APC-Max pool, up to the pooled counts \
                      the Btanh walk reads): frozen per-field u16 drain + APC LSB on \
                      the counts + pool_counts_with vs the plane path (LSB as a \
                      plane rewrite, plane max pool, one word-generic drain of every \
                      pooled row into the row-interleaved count buffer)",
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

/// Frozen copy of the scoped-spawn `sc_core::parallel::parallel_map_with_state`
/// the helper pool replaced: fresh scoped threads, one per part, on every
/// call. (Its nested-call flag is left out: the timed items never nest.)
fn scoped_spawn_map_with_state<T, S, R, I, F>(items: &[T], init: I, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let threads = sc_core::parallel::max_threads().min(items.len());
    if threads <= 1 {
        let mut state = init();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
        return (results, vec![state]);
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let states = std::sync::Mutex::new(Vec::with_capacity(threads));
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<R>] = &mut results;
        let mut start = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let slice = &items[start..start + take];
            let (f, init, states) = (&f, &init, &states);
            scope.spawn(move || {
                let mut state = init();
                for (offset, (slot, item)) in head.iter_mut().zip(slice).enumerate() {
                    *slot = Some(f(&mut state, start + offset, item));
                }
                states.lock().expect("state collector").push(state);
            });
            start += take;
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("worker filled every output slot"))
        .collect();
    (results, states.into_inner().expect("state collector"))
}

/// One fan-out of 16 trivial items at thread limit 2: the handoff cost
/// alone, scoped spawn + join per call vs a post to a parked helper.
fn bench_fan_out(samples: usize, iters: usize) -> Comparison {
    let items: Vec<u64> = (0..16).collect();
    let item = |_: &mut (), i: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9) ^ i as u64;
    sc_core::parallel::set_thread_limit(2);
    let pooled = sc_core::parallel::parallel_map_with_state(&items, || (), item).0;
    assert_eq!(
        pooled,
        scoped_spawn_map_with_state(&items, || (), item).0,
        "the helper pool must map like the scoped-spawn fan-out"
    );
    let baseline_ns = measure(samples, iters, || {
        scoped_spawn_map_with_state(&items, || (), item)
    });
    let optimized_ns = measure(samples, iters, || {
        sc_core::parallel::parallel_map_with_state(&items, || (), item)
    });
    sc_core::parallel::set_thread_limit(0);
    Comparison {
        name: "fan_out_call_n16",
        description: "one sc_core::parallel fan-out of 16 trivial items at \
                      thread limit 2: scoped threads spawned and joined per \
                      call vs the caller plus one parked helper",
        baseline_ns,
        optimized_ns,
    }
}

/// One kernel timed per available word backend (see `sc_core::word`), the
/// median of [`BACKEND_ROUNDS`] rotated rounds. All backends are
/// bit-identical, so the rows differ only in throughput.
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

/// Rounds of a per-backend row: each round times every backend once, the
/// backend order rotated by one per round, so a spell of host contention
/// slows one round of every backend instead of a whole backend.
const BACKEND_ROUNDS: usize = 5;

/// Times `f` per available backend over [`BACKEND_ROUNDS`] rounds of
/// `samples / 3` samples each, pinning the process-wide kernel backend
/// around each measurement and restoring the best one afterwards; a
/// backend's timing is the median of its rounds.
fn measure_per_backend<R>(
    kernel: &'static str,
    description: &'static str,
    samples: usize,
    iters: usize,
    mut f: impl FnMut() -> R,
) -> BackendMatrixRow {
    let backends = available_backends();
    let mut rounds = vec![Vec::with_capacity(BACKEND_ROUNDS); backends.len()];
    for round in 0..BACKEND_ROUNDS {
        for slot in 0..backends.len() {
            let index = (slot + round) % backends.len();
            let backend = backends[index];
            assert!(force_backend(backend), "backend {backend} vanished");
            rounds[index].push(measure(samples.div_ceil(3), iters, &mut f));
        }
    }
    force_backend(sc_core::word::best_available_backend());
    let timings = backends
        .into_iter()
        .zip(rounds)
        .map(|(backend, mut ns)| {
            ns.sort_by(|a, b| a.total_cmp(b));
            (backend, ns[ns.len() / 2])
        })
        .collect();
    BackendMatrixRow {
        kernel,
        description,
        timings,
    }
}

/// Runs `check` once per available backend before a row is timed, so a
/// wrong kernel fails here instead of being timed.
fn check_per_backend(mut check: impl FnMut(Backend)) {
    for backend in available_backends() {
        assert!(force_backend(backend), "backend {backend} vanished");
        check(backend);
    }
    force_backend(sc_core::word::best_available_backend());
}

/// Per-backend timings of the widened kernel families, each through its
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

    // (4) Selected-sequence fill of a conv1 field: 25 lanes, one comparator
    // per cycle against the selected lane's threshold.
    {
        let lanes = 25usize;
        let sequences: Vec<LaneSequence> = (0..lanes)
            .map(|lane| LaneSequence::new(SngBank::lane_seed(31, lane), len))
            .collect();
        let plan = MuxSelectorPlan::new(lanes, len.bits(), &mut Lfsr::new_32(0x5EED)).unwrap();
        let selected = SelectedSequence::new(&sequences, &plan).unwrap();
        let thresholds: Vec<u32> = (0..lanes as u32)
            .map(|lane| (lane * 2_731) % 0x1_0001)
            .collect();
        // The scalar loop's answer is the MUX gather of every lane's fill.
        let lane_streams: Vec<BitStream> = sequences
            .iter()
            .zip(&thresholds)
            .map(|(sequence, &threshold)| {
                let mut stream = BitStream::zeros(len);
                sequence.fill(threshold, &mut stream).unwrap();
                stream
            })
            .collect();
        let expected = MuxAdder::new().sum_with_plan(&lane_streams, &plan).unwrap();
        let mut out = BitStream::zeros(len);
        check_per_backend(|backend| {
            selected.fill(&thresholds, &mut out).unwrap();
            assert_eq!(
                out, expected,
                "{backend} selected fill must match the scalar loop"
            );
        });
        rows.push(measure_per_backend(
            "selected_fill_n25_l1024",
            "MUX selected-sequence fill (25 lanes, 1024 bits): one comparator \
             per cycle against the selected lane's threshold; AVX2 gathers 8 \
             thresholds per step",
            samples,
            iters * 4,
            move || selected.fill(&thresholds, &mut out).unwrap(),
        ));
    }

    // (4b) An all-APC conv1 position's input fill: 4 fields of 25 lanes at
    // L = 256, each filled straight into its packed group-lane slots, from
    // L-quantized pseudo-random thresholds (as real inputs vary them).
    {
        let (fields, lanes, bits) = (4usize, 25usize, 256usize);
        let length = StreamLength::new(bits);
        let sequences: Vec<Vec<LaneSequence>> = (0..fields)
            .map(|field| {
                (0..lanes)
                    .map(|lane| {
                        LaneSequence::new(SngBank::lane_seed(90 + field as u64, lane), length)
                    })
                    .collect()
            })
            .collect();
        let thresholds: Vec<Vec<u32>> = (0..fields)
            .map(|field| {
                (0..lanes)
                    .map(|lane| {
                        (((field * lanes + lane) * 2_654_435_761) % bits * 65536 / bits) as u32
                    })
                    .collect()
            })
            .collect();
        let expected: Vec<PackedLanes> = sequences
            .iter()
            .zip(&thresholds)
            .map(|(sequences, thresholds)| {
                let streams: Vec<BitStream> = sequences
                    .iter()
                    .zip(thresholds)
                    .map(|(sequence, &threshold)| {
                        let mut stream = BitStream::zeros(length);
                        sequence.fill(threshold, &mut stream).unwrap();
                        stream
                    })
                    .collect();
                PackedLanes::pack([streams.as_slice()]).unwrap()
            })
            .collect();
        let fill = |packed: &mut [PackedLanes]| {
            for ((field, sequences), thresholds) in
                packed.iter_mut().zip(&sequences).zip(&thresholds)
            {
                field.fill_row(0, sequences, thresholds).unwrap();
            }
        };
        let mut packed: Vec<PackedLanes> = (0..fields)
            .map(|_| PackedLanes::zeroed(lanes, length, 1).unwrap())
            .collect();
        check_per_backend(|backend| {
            fill(&mut packed);
            assert_eq!(packed, expected, "{backend} packed field fill");
        });
        rows.push(measure_per_backend(
            "apc_field_fill_n25_l256",
            "APC input fill of an all-APC conv1 position (4 fields x 25 lanes, \
             256 bits, L-quantized thresholds): branch-free bit-sliced \
             comparator straight into the packed group-lane slots, one call \
             per field",
            samples,
            iters * 4,
            || fill(&mut packed),
        ));
    }

    // (4c) The Btanh walk of one group of 8 rows (an all-APC conv1
    // position's filters) over 256 cycles of 25-lane counts.
    {
        let (rows_per_group, lanes, bits) = (ROW_GROUP, 25usize, 256usize);
        let btanh = Btanh::new(50).unwrap();
        let row_counts: Vec<CountStream> = (0..rows_per_group)
            .map(|row| {
                let counts = (0..bits)
                    .map(|t| (((row * bits + t) * 2_654_435_761) >> 7) as u16 % (lanes as u16 + 1))
                    .collect();
                CountStream::new(counts, lanes).unwrap()
            })
            .collect();
        let mut counts = vec![0u16; rows_per_group * bits];
        for (row, row_counts) in row_counts.iter().enumerate() {
            for (t, &count) in row_counts.counts().iter().enumerate() {
                counts[t * ROW_GROUP + row] = count;
            }
        }
        let expected: Vec<BitStream> = row_counts
            .iter()
            .map(|counts| btanh.clone().transform(counts))
            .collect();
        let mut outputs = vec![BitStream::zeros(StreamLength::new(bits)); rows_per_group];
        check_per_backend(|backend| {
            btanh.transform_rows(&counts, lanes, &mut outputs);
            assert_eq!(outputs, expected, "{backend} Btanh row walk");
        });
        rows.push(measure_per_backend(
            "btanh_rows8_l256",
            "Btanh walk of 8 rows x 256 cycles (25-lane counts, K = 50) from a \
             row-interleaved count buffer: the 8 rows' states as i32 lanes, \
             output bits by compare mask and an 8x8 bit transpose",
            samples,
            iters * 4,
            move || btanh.transform_rows(&counts, lanes, &mut outputs),
        ));
    }

    // (5) Hardware max pool of a 2x2 window, over streams (the arena
    // variant, output recycled) and over the XNOR products of a MUX-Max
    // row's selected inputs and weights (the engine's call).
    {
        let streams: Vec<BitStream> = (0..4)
            .map(|i| {
                Sng::new(SngKind::Lfsr32, 800 + i as u64)
                    .generate_bipolar(0.3 - 0.2 * i as f64, len)
                    .unwrap()
            })
            .collect();
        let weights = ws[..4].to_vec();
        let inputs: Vec<BitStream> = streams
            .iter()
            .zip(&weights)
            .map(|(p, w)| p.xnor(w))
            .collect();
        let pool = HardwareMaxPooling::default();
        let expected = per_bit_max_pool(&streams, pool.segment_bits);
        let mut arena = StreamArena::new();
        check_per_backend(|backend| {
            let pooled = pool.pool_streams_with(&streams, &mut arena).unwrap();
            assert_eq!(
                pooled, expected,
                "{backend} max pool must match the per-bit reference"
            );
            arena.recycle(pooled);
            let fused = pool
                .pool_xnor_products_with(&inputs, &weights, &mut arena)
                .unwrap();
            assert_eq!(fused, expected, "{backend} fused XNOR max pool must match");
            arena.recycle(fused);
        });
        rows.push(measure_per_backend(
            "hw_max_pool_n4_l1024",
            "Hardware max pool (4 inputs, 16-bit segments, 1024 bits), arena \
             output: SWAR lane-popcounts and a lane-wise argmax, W::LANES \
             words per step",
            samples,
            iters * 4,
            || {
                let pooled = pool.pool_streams_with(&streams, &mut arena).unwrap();
                arena.recycle(pooled);
            },
        ));
        let mut arena = StreamArena::new();
        rows.push(measure_per_backend(
            "xnor_max_pool_n4_l1024",
            "Hardware max pool of 4 XNOR products (a MUX-Max row: selected \
             inputs and weights, 1024 bits), each product word formed as the \
             pool reads it",
            samples,
            iters * 4,
            move || {
                let pooled = pool
                    .pool_xnor_products_with(&inputs, &weights, &mut arena)
                    .unwrap();
                arena.recycle(pooled);
            },
        ));
    }

    // (6) Packed Harley-Seal product counts (layer form): a conv-sized and
    // the fc1-sized shape, operands packed once outside the timing.
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
    // (7) The plane drain alone: (6)'s conv-sized rows as APC count planes,
    // drained into `u16` counts, checked against the per-bit APC counter.
    {
        let (x, w) = pack_operands(&inputs, &unit_ws);
        let planes = Apc::new()
            .count_planes_with(x.view(), w.view(), &mut StreamArena::new())
            .unwrap();
        let expected: Vec<CountStream> = unit_ws
            .iter()
            .map(|ws| {
                let products: Vec<BitStream> =
                    inputs.iter().zip(ws).map(|(x, w)| x.xnor(w)).collect();
                Apc::new().count(&products).unwrap()
            })
            .collect();
        let mut counts = vec![0u16; len.bits()];
        check_per_backend(|backend| {
            for (row, expected) in planes.iter().zip(&expected) {
                row.drain_into(&mut counts).unwrap();
                assert_eq!(counts, expected.counts(), "{backend} plane drain");
            }
        });
        rows.push(measure_per_backend(
            "count_plane_drain_n25_u8_l1024",
            "APC count-plane drain (8 rows of 25-lane planes, 1024 bits): a \
             byte transpose of W::LANES plane words per step, widened to u16",
            samples,
            iters * 4,
            move || {
                for row in &planes {
                    row.drain_into(&mut counts).unwrap();
                }
            },
        ));
    }

    let shapes = [
        (
            "packed_apc_n25_u8_l1024",
            "Packed APC multiply-count (25 lanes, 8 units, 1024 bits): \
             Harley-Seal 3:2 compression of product super-words into count \
             planes, APC LSB as a plane rewrite, word-generic plane drain",
            pack_operands(&inputs, &unit_ws),
            iters,
        ),
        (
            "packed_apc_fc1_n256_u64_l1024",
            "Packed APC multiply-count, fc1's shape (256 lanes, 64 units, 1024 \
             bits), weights cached: Harley-Seal 3:2 compression of product \
             super-words into count planes, word-generic plane drain",
            {
                let (inputs, unit_ws) = fc1_operands();
                pack_operands(&inputs, &unit_ws)
            },
            iters.div_ceil(40),
        ),
    ];
    for (kernel, description, (x, w), iters) in shapes {
        let mut arena = StreamArena::new();
        rows.push(measure_per_backend(
            kernel,
            description,
            samples,
            iters,
            move || {
                let rows = Apc::new()
                    .count_planes_with(x.view(), w.view(), &mut arena)
                    .unwrap();
                for planes in rows {
                    let counts = planes.drain_with(&mut arena).unwrap();
                    arena.recycle_counts(counts.into_counts());
                }
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
        bench_per_unit_apc_csa(samples, iters),
        bench_shared_apc_csa(samples, iters.div_ceil(4)),
        bench_fc1_apc(samples, iters.div_ceil(40), false),
        bench_fc1_apc(samples, iters.div_ceil(40), true),
        bench_apc_max_window(samples, iters.div_ceil(4)),
        bench_stanh_batch(samples, iters.div_ceil(4)),
        bench_fan_out(samples, iters),
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
    json.push_str("  \"generated_by\": \"cargo run --release -p sc-bench --bin bench_kernels\",\n");
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
        "  \"kernel_backends\": {\n    \"note\": \"each kernel \
         timed per word backend via force_backend in 5 rounds, the backend \
         order rotated each round, each backend's value the median of its \
         rounds; every backend is bit-identical to scalar, speedups are \
         scalar_ns / backend_ns\",\n",
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

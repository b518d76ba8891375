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
use sc_core::csa::{CountPlanes, PackedLanes, PackedView, ROW_GROUP};
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
    let packed = apc_counts(packed_inputs.view(), packed_weights.view(), &mut arena);
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
        for counts in apc_counts(packed_inputs.view(), packed_weights.view(), &mut arena) {
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

/// The engine's APC counts of every row of `w` against `x`: the plane
/// block of `Apc::count_planes_into`, each row drained into a count buffer
/// from `arena` (recycle them via `into_counts`).
fn apc_counts(x: PackedView<'_>, w: PackedView<'_>, arena: &mut StreamArena) -> Vec<CountStream> {
    let mut block = arena.take_planes(x.lanes(), x.length(), w.rows()).unwrap();
    Apc::new().count_planes_into(x, w, &mut block, 0).unwrap();
    let counts = (0..w.rows())
        .map(|row| {
            let mut counts = arena.take_counts(x.length().bits());
            block.drain_row_into(row, &mut counts).unwrap();
            CountStream::new(counts, x.lanes()).unwrap()
        })
        .collect();
    arena.recycle_planes(block);
    counts
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
    let packed = apc_counts(packed_inputs.view(), packed_weights.view(), &mut arena);
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
        for counts in apc_counts(packed_inputs.view(), packed_weights.view(), &mut arena) {
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

/// Frozen copy of the APC position path the plane block replaced on the
/// engine: per field, the packed Harley-Seal core storing each row's planes
/// into its own zeroed buffer from a pool, a second pass rewriting the ones
/// plane with the approximate LSB, the per-row plane max pool into another
/// zeroed buffer, and the interleaved drain writing each row's counts with
/// scalar stores 8 apart.
mod frozen_row_planes {
    use sc_core::word::Word;

    const GROUP_WORDS: usize = 4;
    const GROUP_BITS: usize = 256;
    const MAX_PLANES: usize = 16;
    const ROW_GROUP: usize = 8;

    /// A LIFO pool of plane buffers, each re-zeroed when taken (the arena's
    /// plane pool as the path used it).
    #[derive(Default)]
    pub struct PlanePool(Vec<Vec<u64>>);

    impl PlanePool {
        fn take(&mut self, words: usize) -> Vec<u64> {
            let mut buffer = self.0.pop().unwrap_or_default();
            buffer.clear();
            buffer.resize(words, 0);
            buffer
        }

        fn recycle(&mut self, buffer: Vec<u64>) {
            self.0.push(buffer);
        }
    }

    fn plane_count(lanes: usize) -> usize {
        (usize::BITS - lanes.leading_zeros()) as usize
    }

    #[inline(always)]
    fn csa<W: Word>(a: W, b: W, c: W) -> (W, W) {
        let partial = a.xor(b);
        (partial.xor(c), a.and(b).or(partial.and(c)))
    }

    struct Planes<W: Word> {
        low: [W; 4],
        upper: [W; MAX_PLANES - 4],
    }

    impl<W: Word> Planes<W> {
        #[inline(always)]
        fn add_sixteen(&mut self, d: impl Fn(usize) -> W, upper: usize) {
            let [ones, twos, fours, eights] = self.low;
            let (ones, twos_a) = csa(ones, d(0), d(1));
            let (ones, twos_b) = csa(ones, d(2), d(3));
            let (twos, fours_a) = csa(twos, twos_a, twos_b);
            let (ones, twos_a) = csa(ones, d(4), d(5));
            let (ones, twos_b) = csa(ones, d(6), d(7));
            let (twos, fours_b) = csa(twos, twos_a, twos_b);
            let (fours, eights_a) = csa(fours, fours_a, fours_b);
            let (ones, twos_a) = csa(ones, d(8), d(9));
            let (ones, twos_b) = csa(ones, d(10), d(11));
            let (twos, fours_a) = csa(twos, twos_a, twos_b);
            let (ones, twos_a) = csa(ones, d(12), d(13));
            let (ones, twos_b) = csa(ones, d(14), d(15));
            let (twos, fours_b) = csa(twos, twos_a, twos_b);
            let (fours, eights_b) = csa(fours, fours_a, fours_b);
            let (eights, mut carry) = csa(eights, eights_a, eights_b);
            self.low = [ones, twos, fours, eights];
            for plane in &mut self.upper[..upper] {
                let next = plane.and(carry);
                *plane = plane.xor(carry);
                carry = next;
            }
        }
    }

    #[inline(always)]
    fn compress<W: Word, const MASKED: bool>(
        x: &[u64],
        w: &[u64],
        sub: usize,
        mask: W,
        upper: usize,
    ) -> Planes<W> {
        let product = |x: &[u64], w: &[u64], lane: usize| {
            let at = lane * GROUP_WORDS + sub;
            let p = W::load(&x[at..]).xor(W::load(&w[at..])).not();
            if MASKED {
                p.and(mask)
            } else {
                p
            }
        };
        let mut p = Planes {
            low: [W::zero(); 4],
            upper: [W::zero(); MAX_PLANES - 4],
        };
        let mut xs = x.chunks_exact(16 * GROUP_WORDS);
        let mut ws = w.chunks_exact(16 * GROUP_WORDS);
        for (xc, wc) in (&mut xs).zip(&mut ws) {
            p.add_sixteen(|lane| product(xc, wc, lane), upper);
        }
        let (xr, wr) = (xs.remainder(), ws.remainder());
        let rest = xr.len() / GROUP_WORDS;
        if rest > 0 {
            let d = |lane| {
                if lane < rest {
                    product(xr, wr, lane)
                } else {
                    W::zero()
                }
            };
            p.add_sixteen(d, upper);
        }
        p
    }

    /// Every row's APC count planes of one field (`lanes` lanes, `bits`
    /// columns): each row's planes stored into a zeroed pool buffer, then
    /// the ones plane rewritten.
    #[inline(always)]
    fn count_rows<W: Word>(
        input: &[u64],
        weights: &[u64],
        lanes: usize,
        bits: usize,
        pool: &mut PlanePool,
    ) -> Vec<Vec<u64>> {
        let group_words = lanes * GROUP_WORDS;
        let groups = bits.div_ceil(GROUP_BITS);
        let planes = plane_count(lanes);
        let mut rows = Vec::new();
        for row in weights.chunks_exact(groups * group_words) {
            let mut out = pool.take(groups * planes * GROUP_WORDS);
            for (g, group) in out.chunks_exact_mut(planes * GROUP_WORDS).enumerate() {
                let x = &input[g * group_words..(g + 1) * group_words];
                let w = &row[g * group_words..(g + 1) * group_words];
                let span = (bits - g * GROUP_BITS).min(GROUP_BITS);
                let mut sub = 0;
                let upper = planes.saturating_sub(4);
                while sub < GROUP_WORDS && sub * 64 < span {
                    let p = if span == GROUP_BITS {
                        compress::<W, false>(x, w, sub, W::zero(), upper)
                    } else {
                        let mut masks = [0u64; GROUP_WORDS];
                        for (s, mask) in masks.iter_mut().enumerate() {
                            let valid = span.saturating_sub(s * 64).min(64);
                            *mask = if valid == 64 {
                                u64::MAX
                            } else {
                                (1 << valid) - 1
                            };
                        }
                        compress::<W, true>(x, w, sub, W::load(&masks[sub..]), upper)
                    };
                    for (k, plane) in p.low.iter().chain(&p.upper).take(planes).enumerate() {
                        plane.store(&mut group[k * GROUP_WORDS + sub..]);
                    }
                    sub += W::LANES;
                }
            }
            apc_lsb(&mut out, lanes, bits);
            rows.push(out);
        }
        rows
    }

    fn apc_lsb(words: &mut [u64], lanes: usize, bits: usize) {
        if lanes < 2 {
            return;
        }
        let planes = plane_count(lanes);
        for (g, group) in words.chunks_exact_mut(planes * GROUP_WORDS).enumerate() {
            for s in 0..GROUP_WORDS {
                let valid = match bits.saturating_sub((g * GROUP_WORDS + s) * 64) {
                    0 => 0,
                    n if n >= 64 => u64::MAX,
                    n => (1 << n) - 1,
                };
                let saturated = if lanes.is_multiple_of(2) {
                    (1..planes)
                        .filter(|k| lanes >> k & 1 == 1)
                        .fold(u64::MAX, |acc, k| acc & group[k * GROUP_WORDS + s])
                } else {
                    0
                };
                group[s] = 0xAAAA_AAAA_AAAA_AAAA & valid & !saturated;
            }
        }
    }

    #[inline(always)]
    fn lane_counts<W: Word>(mut word: W) -> W {
        let mut width = 1;
        while width < 16 {
            let mask = W::splat(u64::MAX / ((1u64 << width) + 1));
            word = word.and(mask).add_i64(word.shr(width).and(mask));
            width *= 2;
        }
        word
    }

    #[inline(always)]
    fn lane_greater32<W: Word>(a: W, b: W) -> W {
        let high = W::splat(0x8000_0000_8000_0000);
        let greater = high.andnot(b.or(high).sub_i64(a).and(high));
        greater.sub_i64(greater.shr(31)).or(greater)
    }

    #[inline(always)]
    fn segment_totals<W: Word>(words: &[u64], at: usize, planes: usize) -> (W, W) {
        let low_halves = W::splat(0x0000_FFFF_0000_FFFF);
        let (mut even, mut odd) = (W::zero(), W::zero());
        for k in 0..planes {
            let counts = lane_counts::<W>(W::load(&words[at + k * GROUP_WORDS..]));
            even = even.add_i64(counts.and(low_halves).shl(k as u32));
            odd = odd.add_i64(counts.shr(16).and(low_halves).shl(k as u32));
        }
        (even, odd)
    }

    /// The plane max pool of one row's fields into a zeroed pool buffer.
    #[inline(always)]
    fn pool_row<W: Word>(inputs: &[Vec<u64>], planes: usize, pool: &mut PlanePool) -> Vec<u64> {
        const FIRST_SEGMENT: u64 = 0xFFFF;
        let mut out = pool.take(inputs[0].len());
        let low_halves = W::splat(0x0000_FFFF_0000_FFFF);
        let mut carry = 0;
        for group in (0..out.len()).step_by(planes * GROUP_WORDS) {
            for sub in (0..GROUP_WORDS).step_by(W::LANES) {
                let at = group + sub;
                let (mut best_even, mut best_odd) = segment_totals::<W>(&inputs[0], at, planes);
                let mut next = [W::zero(); 16];
                for (k, plane) in next.iter_mut().enumerate().take(planes) {
                    *plane = W::load(&inputs[0][at + k * GROUP_WORDS..]);
                }
                let mut top_winners = W::zero();
                for (input, words) in inputs.iter().enumerate().skip(1) {
                    let (even, odd) = segment_totals::<W>(words, at, planes);
                    let wins_even = lane_greater32(even, best_even);
                    let wins_odd = lane_greater32(odd, best_odd);
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
                        out[word] |= inputs[carry][word] & FIRST_SEGMENT;
                    }
                    carry = winner as usize;
                }
            }
        }
        out
    }

    #[inline(always)]
    fn transpose8<W: Word>(x: W) -> W {
        let swap = |x: W, shift: u32, mask: u64| {
            let t = x.xor(x.shr(shift)).and(W::splat(mask));
            x.xor(t.xor(t.shl(shift)))
        };
        let x = swap(x, 7, 0x00AA_00AA_00AA_00AA);
        let x = swap(x, 14, 0x0000_CCCC_0000_CCCC);
        swap(x, 28, 0x0000_0000_F0F0_F0F0)
    }

    #[inline(always)]
    fn byte_transpose<W: Word>(planes: &[W], block: u32) -> W {
        let mut packed = W::zero();
        for (k, plane) in planes.iter().enumerate() {
            packed = packed.or(plane.shr(8 * block).and(W::splat(0xFF)).shl(8 * k as u32));
        }
        transpose8(packed)
    }

    /// One row's drain, column `t`'s count to `out[t · ROW_GROUP]`.
    #[inline(always)]
    fn drain_row<W: Word>(words: &[u64], planes: usize, bits: usize, out: &mut [u16]) {
        for (g, group) in words.chunks_exact(planes * GROUP_WORDS).enumerate() {
            let start = g * GROUP_BITS;
            let span = (bits - start).min(GROUP_BITS);
            let out = &mut out[start * ROW_GROUP..];
            let mut sub = 0;
            while sub < GROUP_WORDS && sub * 64 < span {
                let mut plane_words = [W::zero(); MAX_PLANES];
                for (k, plane) in plane_words.iter_mut().enumerate().take(planes) {
                    *plane = W::load(&group[k * GROUP_WORDS + sub..]);
                }
                let (low, high) = plane_words[..planes].split_at(planes.min(8));
                let (mut low_bytes, mut high_bytes) = ([0u64; 4], [0u64; 4]);
                // The common case: whole words, every count below 256.
                let whole =
                    high.iter().all(|plane| plane.is_zero()) && (sub + W::LANES) * 64 <= span;
                for block in 0..8 {
                    byte_transpose(low, block as u32).store(&mut low_bytes);
                    if whole {
                        for (j, bytes) in low_bytes.iter().enumerate().take(W::LANES) {
                            let column = (sub + j) * 64 + 8 * block;
                            let columns =
                                &mut out[column * ROW_GROUP..(column + 7) * ROW_GROUP + 1];
                            for (c, byte) in bytes.to_le_bytes().into_iter().enumerate() {
                                columns[c * ROW_GROUP] = u16::from(byte);
                            }
                        }
                        continue;
                    }
                    byte_transpose(high, block as u32).store(&mut high_bytes);
                    for j in 0..W::LANES {
                        let column = (sub + j) * 64 + 8 * block;
                        let (low, high) = (low_bytes[j].to_le_bytes(), high_bytes[j].to_le_bytes());
                        for c in 0..span.saturating_sub(column).min(8) {
                            out[(column + c) * ROW_GROUP] = u16::from_le_bytes([low[c], high[c]]);
                        }
                    }
                }
                sub += W::LANES;
            }
        }
    }

    /// One position: every field's rows counted, each row pooled, every
    /// pooled row drained into the row-interleaved buffer `counts`.
    #[inline(always)]
    pub fn position_impl<W: Word>(
        fields: &[(&[u64], &[u64])],
        lanes: usize,
        bits: usize,
        pool: &mut PlanePool,
        counts: &mut [u16],
    ) {
        let planes = plane_count(lanes);
        let mut per_row: Vec<Vec<Vec<u64>>> = Vec::new();
        for &(input, weights) in fields {
            let rows = count_rows::<W>(input, weights, lanes, bits, pool);
            per_row.resize_with(rows.len(), || Vec::with_capacity(fields.len()));
            for (row, planes) in rows.into_iter().enumerate() {
                per_row[row].push(planes);
            }
        }
        let mut pooled_rows = Vec::with_capacity(per_row.len());
        for row_planes in per_row {
            pooled_rows.push(pool_row::<W>(&row_planes, planes, pool));
            for planes in row_planes {
                pool.recycle(planes);
            }
        }
        for (r, row) in pooled_rows.into_iter().enumerate() {
            let at = r / ROW_GROUP * bits * ROW_GROUP + r % ROW_GROUP;
            drain_row::<W>(&row, planes, bits, &mut counts[at..]);
            pool.recycle(row);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn position_avx2(
        fields: &[(&[u64], &[u64])],
        lanes: usize,
        bits: usize,
        pool: &mut PlanePool,
        counts: &mut [u16],
    ) {
        position_impl::<sc_core::word::WAvx2>(fields, lanes, bits, pool, counts)
    }

    /// The frozen path under the active backend, as the library dispatched
    /// it.
    pub fn position(
        fields: &[(&[u64], &[u64])],
        lanes: usize,
        bits: usize,
        pool: &mut PlanePool,
        counts: &mut [u16],
    ) {
        match sc_core::active_backend() {
            sc_core::Backend::Scalar => position_impl::<u64>(fields, lanes, bits, pool, counts),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the backend selector reports AVX2 only when available.
            sc_core::Backend::Avx2 => unsafe { position_avx2(fields, lanes, bits, pool, counts) },
            _ => position_impl::<sc_core::word::W4>(fields, lanes, bits, pool, counts),
        }
    }
}

/// Frozen copy of the compiled fills the byte compare replaced: the
/// bit-sliced comparator over each lane's staged LFSR bit-sequence, 16
/// sample planes against the threshold's bits (APC lanes), and the
/// 8-cycle threshold gather over `u16` samples (MUX fields), each as the
/// library dispatched it.
mod frozen_fills {
    use sc_core::word::Word;

    const GROUP_WORDS: usize = 4;

    /// The staged buffer of an LFSR32 register seeded `state`, as the
    /// library's staged recurrence laid it out: 32 seed bits (oldest
    /// first), the `bits`-bit sequence LSB-first, 16 zero bytes.
    pub fn staged(state: u32, bits: usize) -> Vec<u8> {
        let mut lfsr = super::SeedLfsr32::new(state);
        let mut seq = vec![0u8; 4 + bits / 8 + 16];
        seq[..4].copy_from_slice(&lfsr.state.reverse_bits().to_le_bytes());
        for n in 0..bits {
            seq[4 + n / 8] |= ((lfsr.step() & 1) as u8) << (n % 8);
        }
        seq
    }

    fn slot(w: usize, group_stride: usize) -> usize {
        w / GROUP_WORDS * group_stride + w % GROUP_WORDS
    }

    #[inline(always)]
    fn compare_words<W: Word>(seq: &[u8], w: usize, threshold: u32) -> W {
        let a = W::load_le_bytes(&seq[8 * w + 2..]);
        let b = W::load_le_bytes(&seq[8 * w + 10..]);
        let mut lt = W::zero();
        let mut eq = W::splat(u64::MAX);
        for j in (threshold.trailing_zeros()..16).rev() {
            let s = 15 - j;
            let plane = a.shr(s + 1).or(b.shl(63 - s));
            let set = W::splat(0u64.wrapping_sub(u64::from(threshold >> j & 1)));
            lt = lt.or(eq.and(set).andnot(plane));
            eq = eq.andnot(plane.xor(set));
        }
        lt
    }

    #[inline(always)]
    fn compare_staged<W: Word>(
        seq: &[u8],
        threshold: u32,
        out: &mut [u64],
        group_stride: usize,
        words: usize,
    ) {
        let constant = match threshold {
            0 => 0,
            1..=0xFFFF => {
                let mut w = 0;
                while w + W::LANES <= words {
                    compare_words::<W>(seq, w, threshold).store(&mut out[slot(w, group_stride)..]);
                    w += W::LANES;
                }
                for w in w..words {
                    out[slot(w, group_stride)] = compare_words::<u64>(seq, w, threshold);
                }
                return;
            }
            _ => u64::MAX,
        };
        for w in 0..words {
            out[slot(w, group_stride)] = constant;
        }
    }

    /// One packed field row: lane `i`'s stream of `thresholds[i]` from
    /// `staged[i]` at word `(g · lanes + i) · 4 + s` (whole words only).
    #[inline(always)]
    fn fill_row_impl<W: Word>(
        staged: &[Vec<u8>],
        thresholds: &[u32],
        out: &mut [u64],
        bits: usize,
    ) {
        let lanes = staged.len();
        for (lane, (seq, &threshold)) in staged.iter().zip(thresholds).enumerate() {
            compare_staged::<W>(
                seq,
                threshold,
                &mut out[lane * GROUP_WORDS..],
                lanes * GROUP_WORDS,
                bits / 64,
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_row_avx2(staged: &[Vec<u8>], thresholds: &[u32], out: &mut [u64], bits: usize) {
        fill_row_impl::<sc_core::word::WAvx2>(staged, thresholds, out, bits)
    }

    /// The frozen field fill under the active backend.
    pub fn fill_row(staged: &[Vec<u8>], thresholds: &[u32], out: &mut [u64], bits: usize) {
        match sc_core::active_backend() {
            sc_core::Backend::Scalar => fill_row_impl::<u64>(staged, thresholds, out, bits),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the backend selector reports AVX2 only when available.
            sc_core::Backend::Avx2 => unsafe { fill_row_avx2(staged, thresholds, out, bits) },
            _ => fill_row_impl::<sc_core::word::W4>(staged, thresholds, out, bits),
        }
    }

    fn selected_scalar(lanes: &[u32], samples: &[u16], thresholds: &[u32], words: &mut [u64]) {
        let cycles = lanes.chunks(64).zip(samples.chunks(64));
        for (word, (lanes, samples)) in words.iter_mut().zip(cycles) {
            let mut packed = 0u64;
            for (bit, (&lane, &sample)) in lanes.iter().zip(samples).enumerate() {
                packed |= u64::from(u32::from(sample) < thresholds[lane as usize]) << bit;
            }
            *word = packed;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and every lane must index `thresholds`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn selected_avx2(lanes: &[u32], samples: &[u16], thresholds: &[u32], words: &mut [u64]) {
        use std::arch::x86_64::*;
        let cap = _mm256_set1_epi32(1 << 16);
        let cycles = lanes.chunks(64).zip(samples.chunks(64));
        for (word, (lanes, samples)) in words.iter_mut().zip(cycles) {
            let groups = lanes.len() / 8;
            let mut packed = 0u64;
            for group in 0..groups {
                // SAFETY: in bounds by `groups`; lanes index `thresholds`.
                unsafe {
                    let index = _mm256_loadu_si256(lanes.as_ptr().add(group * 8).cast());
                    let threshold = _mm256_min_epu32(
                        _mm256_i32gather_epi32::<4>(thresholds.as_ptr().cast(), index),
                        cap,
                    );
                    let sample = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                        samples.as_ptr().add(group * 8).cast(),
                    ));
                    let below = _mm256_cmpgt_epi32(threshold, sample);
                    let bits = _mm256_movemask_ps(_mm256_castsi256_ps(below)) as u32;
                    packed |= u64::from(bits) << (group * 8);
                }
            }
            for bit in groups * 8..lanes.len() {
                let threshold = thresholds[lanes[bit] as usize];
                packed |= u64::from(u32::from(samples[bit]) < threshold) << bit;
            }
            *word = packed;
        }
    }

    /// The frozen selected fill under the active backend (the scalar loop
    /// served `scalar` and `wide`).
    pub fn selected(lanes: &[u32], samples: &[u16], thresholds: &[u32], words: &mut [u64]) {
        match sc_core::active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 is available; the fixture's lanes index
            // `thresholds`.
            sc_core::Backend::Avx2 => unsafe { selected_avx2(lanes, samples, thresholds, words) },
            _ => selected_scalar(lanes, samples, thresholds, words),
        }
    }
}

/// The LFSR32 register state `Sng::new(SngKind::Lfsr32, seed)` starts from.
fn lane_state(seed: u64) -> u32 {
    seed as u32 ^ 0x9E37_79B9
}

/// The APC input fills timed: name, description, fields, lanes, bits.
const APC_FILLS: [(&str, &str, usize, usize, usize); 3] = [
    (
        "apc_field_fill_n25_l256",
        "APC input fill of an all-APC conv1 position (4 fields x 25 lanes, \
         256 bits, L-quantized thresholds): frozen bit-sliced comparator over \
         the staged LFSR sequence vs the byte compare of the lanes' sample \
         bytes (high bytes only), straight into the packed slots",
        4,
        25,
        256,
    ),
    (
        "apc_field_fill_n200_l256",
        "APC input fill of an all-APC conv2 position (4 fields x 200 lanes, \
         256 bits, L-quantized thresholds): frozen bit-sliced comparator vs \
         the byte compare (high bytes only)",
        4,
        200,
        256,
    ),
    (
        "apc_field_fill_n256_l1024",
        "APC input fill of fc1 at L = 1024 (256 lanes, L-quantized \
         thresholds, most with a low byte): frozen bit-sliced comparator vs \
         the byte compare with the low-byte tie-break",
        1,
        256,
        1024,
    ),
];

/// The lanes of `fields` APC fields filled from L-quantized pseudo-random
/// thresholds, as the frozen bit-sliced fill and the byte compare see them.
struct FieldFill {
    bits: usize,
    lanes: usize,
    sequences: Vec<Vec<LaneSequence>>,
    staged: Vec<Vec<Vec<u8>>>,
    thresholds: Vec<Vec<u32>>,
}

impl FieldFill {
    fn new(fields: usize, lanes: usize, bits: usize) -> Self {
        let length = StreamLength::new(bits);
        let seed = |field: usize, lane: usize| SngBank::lane_seed(90 + field as u64, lane);
        Self {
            bits,
            lanes,
            sequences: (0..fields)
                .map(|f| {
                    (0..lanes)
                        .map(|l| LaneSequence::new(seed(f, l), length))
                        .collect()
                })
                .collect(),
            staged: (0..fields)
                .map(|f| {
                    (0..lanes)
                        .map(|l| frozen_fills::staged(lane_state(seed(f, l)), bits))
                        .collect()
                })
                .collect(),
            thresholds: (0..fields)
                .map(|field| {
                    (0..lanes)
                        .map(|lane| {
                            (((field * lanes + lane) * 2_654_435_761) % bits * 65536 / bits) as u32
                        })
                        .collect()
                })
                .collect(),
        }
    }

    fn packed(&self) -> Vec<PackedLanes> {
        let length = StreamLength::new(self.bits);
        (0..self.sequences.len())
            .map(|_| PackedLanes::zeroed(self.lanes, length, 1).unwrap())
            .collect()
    }

    /// The byte-compare fill the engine runs.
    fn byte(&self, packed: &mut [PackedLanes]) {
        for ((field, sequences), thresholds) in
            packed.iter_mut().zip(&self.sequences).zip(&self.thresholds)
        {
            field.fill_row(0, sequences, thresholds).unwrap();
        }
    }

    /// The frozen bit-sliced fill into one word buffer per field.
    fn frozen(&self, out: &mut [Vec<u64>]) {
        for ((words, staged), thresholds) in out.iter_mut().zip(&self.staged).zip(&self.thresholds)
        {
            frozen_fills::fill_row(staged, thresholds, words, self.bits);
        }
    }

    fn frozen_buffers(&self) -> Vec<Vec<u64>> {
        self.packed()
            .into_iter()
            .map(|p| p.as_words().to_vec())
            .collect()
    }

    fn check(&self, backend: Backend) {
        let mut packed = self.packed();
        let mut frozen = self.frozen_buffers();
        self.byte(&mut packed);
        self.frozen(&mut frozen);
        for (packed, frozen) in packed.iter().zip(&frozen) {
            assert_eq!(
                packed.as_words(),
                frozen.as_slice(),
                "{backend}: the byte compare must match the frozen bit-sliced fill"
            );
        }
    }
}

/// A conv1 MUX field's selected fill (25 lanes, 1024 bits), as the frozen
/// gather over `u16` samples and the byte-plane fill see it.
struct SelectedFill {
    selected: SelectedSequence,
    lanes: Vec<u32>,
    samples: Vec<u16>,
    thresholds: Vec<u32>,
}

impl SelectedFill {
    const LANES: usize = 25;
    const BITS: usize = 1024;
    const DESCRIPTION: &'static str = "MUX selected-sequence fill (25 lanes, 1024 bits): one \
        comparator per cycle against the selected lane's threshold; frozen \
        8-cycle AVX2 threshold gather over u16 samples vs two in-register \
        byte-shuffle tables per sample byte plane, 32 cycles per step";

    fn new() -> Self {
        let seeds: Vec<u64> = (0..Self::LANES)
            .map(|lane| SngBank::lane_seed(31, lane))
            .collect();
        let plan =
            MuxSelectorPlan::new(Self::LANES, Self::BITS, &mut Lfsr::new_32(0x5EED)).unwrap();
        let lanes = plan.selected_lanes();
        let states: Vec<Vec<u16>> = seeds
            .iter()
            .map(|&seed| {
                let mut lfsr = SeedLfsr32::new(lane_state(seed));
                (0..Self::BITS).map(|_| lfsr.step() as u16).collect()
            })
            .collect();
        let samples = lanes
            .iter()
            .enumerate()
            .map(|(t, &lane)| states[lane as usize][t])
            .collect();
        Self {
            selected: SelectedSequence::new(&seeds, &plan).unwrap(),
            lanes,
            samples,
            thresholds: (0..Self::LANES as u32)
                .map(|lane| (lane * 2_731) % 0x1_0001)
                .collect(),
        }
    }

    fn byte(&self, out: &mut BitStream) {
        self.selected.fill(&self.thresholds, out).unwrap();
    }

    fn frozen(&self, out: &mut BitStream) {
        frozen_fills::selected(
            &self.lanes,
            &self.samples,
            &self.thresholds,
            out.words_mut(),
        );
    }

    fn check(&self, backend: Backend) {
        let length = StreamLength::new(Self::BITS);
        let (mut byte, mut frozen) = (BitStream::ones(length), BitStream::zeros(length));
        self.byte(&mut byte);
        self.frozen(&mut frozen);
        assert_eq!(
            byte, frozen,
            "{backend}: the byte-plane selected fill must match the frozen gather"
        );
    }
}

/// The APC input fills: the frozen bit-sliced fill against the byte
/// compare, each asserted equal per backend before timing.
fn bench_apc_fills(samples: usize, iters: usize) -> Vec<Comparison> {
    APC_FILLS
        .into_iter()
        .map(|(name, description, fields, lanes, bits)| {
            let fill = FieldFill::new(fields, lanes, bits);
            check_per_backend(|backend| fill.check(backend));
            let iters = (iters * 100 / (fields * lanes * bits / 256)).max(1);
            let mut frozen = fill.frozen_buffers();
            let mut packed = fill.packed();
            let baseline_ns = measure(samples, iters, || fill.frozen(&mut frozen));
            let optimized_ns = measure(samples, iters, || fill.byte(&mut packed));
            Comparison {
                name,
                description,
                baseline_ns,
                optimized_ns,
            }
        })
        .collect()
}

/// The MUX selected fill: the frozen gather against the byte-plane fill.
fn bench_selected_fill(samples: usize, iters: usize) -> Comparison {
    let fill = SelectedFill::new();
    check_per_backend(|backend| fill.check(backend));
    let mut out = BitStream::zeros(StreamLength::new(SelectedFill::BITS));
    let baseline_ns = measure(samples, iters, || fill.frozen(&mut out));
    let optimized_ns = measure(samples, iters, || fill.byte(&mut out));
    Comparison {
        name: "selected_fill_n25_l1024",
        description: SelectedFill::DESCRIPTION,
        baseline_ns,
        optimized_ns,
    }
}

/// conv1's all-APC shape at L=256: 4 pool-window fields of 25 lanes, 8
/// filters, and the filters' APC-Max Btanh.
const CONV1_APC: (usize, usize, usize, usize) = (4, 25, 8, 256);

/// One conv1 position of the all-APC network, count to the pooled counts
/// the Btanh walk reads, for every row: the frozen per-row plane path
/// against the plane block the engine runs (`Apc::count_planes_into` for
/// every field into one block, `pool_planes_with` into a second, one
/// register-transposed drain into the row-interleaved buffer). Both sides
/// fill the same buffer, asserted equal per backend before timing: the
/// Btanh walk that follows is the same on both, and is timed on its own
/// (`btanh_rows8_l256`).
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
    let fields: Vec<(&[u64], &[u64])> = inputs
        .iter()
        .zip(&weights)
        .map(|(x, w)| (x.as_words(), w.as_words()))
        .collect();
    let mut planes = frozen_row_planes::PlanePool::default();
    let mut frozen =
        |counts: &mut [u16]| frozen_row_planes::position(&fields, lanes, bits, &mut planes, counts);
    let mut arena = StreamArena::new();
    let mut block = |counts: &mut [u16]| {
        let mut counted = arena.take_planes(lanes, len, window * rows).unwrap();
        for (field, (x, w)) in inputs.iter().zip(&weights).enumerate() {
            Apc::new()
                .count_planes_into(x.view(), w.view(), &mut counted, field * rows)
                .unwrap();
        }
        let pooled = pool.pool_planes_with(&counted, window, &mut arena).unwrap();
        pooled.drain_interleaved(counts).unwrap();
        arena.recycle_planes(counted);
        arena.recycle_planes(pooled);
    };
    let mut counts = vec![0u16; rows.next_multiple_of(ROW_GROUP) * bits];
    check_per_backend(|backend| {
        let mut before = vec![u16::MAX; counts.len()];
        frozen(&mut before);
        block(&mut counts);
        assert_eq!(
            before, counts,
            "{backend}: the plane block must match the frozen per-row path"
        );
    });
    let baseline_ns = measure(samples, iters, || frozen(&mut counts));
    let optimized_ns = measure(samples, iters, || block(&mut counts));
    Comparison {
        name: "apc_max_window_n25_u8_l256",
        description: "One conv1 position of the all-APC network (4 fields x 8 rows \
                      of 25 lanes, 256 bits, APC-Max pool, up to the row-interleaved \
                      counts the Btanh walk reads): frozen per-row plane path (a \
                      zeroed buffer per row, APC LSB as a second pass, per-row pool, \
                      drain with stores 8 apart) vs the plane block (APC LSB in the \
                      core's store, every field's rows in one block, pooled into a \
                      second, drain transposed across 8 rows in registers)",
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

    // (4) Selected-sequence fill of a conv1 field (25 lanes, one comparator
    // per cycle against the selected lane's threshold), and (4b) APC input
    // fills of all-APC conv1 and conv2 positions and of fc1 at L = 1024,
    // straight into the packed group-lane slots; each checked against the
    // frozen fill it replaced on every backend.
    {
        let selected = SelectedFill::new();
        check_per_backend(|backend| selected.check(backend));
        let mut out = BitStream::zeros(StreamLength::new(SelectedFill::BITS));
        rows.push(measure_per_backend(
            "selected_fill_n25_l1024",
            SelectedFill::DESCRIPTION,
            samples,
            iters * 4,
            || selected.byte(&mut out),
        ));
    }
    for (kernel, description, fields, lanes, bits) in APC_FILLS {
        let fill = FieldFill::new(fields, lanes, bits);
        check_per_backend(|backend| fill.check(backend));
        let mut packed = fill.packed();
        rows.push(measure_per_backend(
            kernel,
            description,
            samples,
            (iters * 100 / (fields * lanes * bits / 256)).max(1),
            || fill.byte(&mut packed),
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
    // (7) The plane drain alone: (6)'s conv-sized rows as a block of APC
    // count planes, drained into the row-interleaved `u16` counts the Btanh
    // walk reads, checked against the per-bit APC counter.
    {
        let (x, w) = pack_operands(&inputs, &unit_ws);
        let mut planes = CountPlanes::zeroed(lanes, len, units).unwrap();
        Apc::new()
            .count_planes_into(x.view(), w.view(), &mut planes, 0)
            .unwrap();
        let expected: Vec<CountStream> = unit_ws
            .iter()
            .map(|ws| {
                let products: Vec<BitStream> =
                    inputs.iter().zip(ws).map(|(x, w)| x.xnor(w)).collect();
                Apc::new().count(&products).unwrap()
            })
            .collect();
        let bits = len.bits();
        let mut counts = vec![0u16; units.next_multiple_of(ROW_GROUP) * bits];
        check_per_backend(|backend| {
            planes.drain_interleaved(&mut counts).unwrap();
            for (row, expected) in expected.iter().enumerate() {
                let drained: Vec<u16> = (0..bits)
                    .map(|t| counts[(row / ROW_GROUP * bits + t) * ROW_GROUP + row % ROW_GROUP])
                    .collect();
                assert_eq!(drained, expected.counts(), "{backend} plane drain");
            }
        });
        rows.push(measure_per_backend(
            "count_plane_drain_n25_u8_l1024",
            "APC count-plane drain (a block of 8 rows of 25-lane planes, 1024 \
             bits) into the row-interleaved counts: per row a byte transpose \
             of W::LANES plane words, then an 8x8 byte transpose across the \
             rows, widened to u16 and stored 8 columns x 8 rows at a time",
            samples,
            iters * 4,
            move || planes.drain_interleaved(&mut counts).unwrap(),
        ));
    }

    let shapes = [
        (
            "packed_apc_n25_u8_l1024",
            "Packed APC multiply-count (25 lanes, 8 units, 1024 bits): \
             Harley-Seal 3:2 compression of product super-words into a count \
             plane block, APC LSB in the core's store, word-generic plane \
             drain per row",
            pack_operands(&inputs, &unit_ws),
            iters,
        ),
        (
            "packed_apc_fc1_n256_u64_l1024",
            "Packed APC multiply-count, fc1's shape (256 lanes, 64 units, 1024 \
             bits), weights cached: Harley-Seal 3:2 compression of product \
             super-words into a count plane block, word-generic plane drain \
             per row",
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
                for counts in apc_counts(x.view(), w.view(), &mut arena) {
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

/// Whole passes per `BENCH_kernels.json` write: each recorded timing is
/// the median of its row's passes, so one host spell during one pass does
/// not set the recording.
const RECORDED_PASSES: usize = 3;

/// The median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// One whole pass: the baseline comparisons, then the per-backend matrix.
fn run_pass(samples: usize, iters: usize) -> (Vec<Comparison>, Vec<BackendMatrixRow>) {
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
    let mut comparisons = comparisons;
    comparisons.extend(bench_apc_fills(samples, iters * 4));
    comparisons.push(bench_selected_fill(samples, iters * 4));
    (comparisons, backend_matrix(samples, iters))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, iters, passes) = if quick {
        (5, 20, 1)
    } else {
        (15, 200, RECORDED_PASSES)
    };

    println!(
        "Measuring word-parallel kernels against per-bit baselines \
         ({passes} whole pass(es), each row the median of its passes) ...\n"
    );
    let mut runs: Vec<_> = (0..passes).map(|_| run_pass(samples, iters)).collect();
    let (mut comparisons, mut matrix) = runs.pop().expect("at least one pass");
    for (i, c) in comparisons.iter_mut().enumerate() {
        let per_pass = |ns: fn(&Comparison) -> f64| {
            median(
                runs.iter()
                    .map(|(cs, _)| ns(&cs[i]))
                    .chain([ns(c)])
                    .collect(),
            )
        };
        (c.baseline_ns, c.optimized_ns) =
            (per_pass(|c| c.baseline_ns), per_pass(|c| c.optimized_ns));
    }
    for (i, row) in matrix.iter_mut().enumerate() {
        for (b, timing) in row.timings.iter_mut().enumerate() {
            timing.1 = median(
                runs.iter()
                    .map(|(_, rows)| rows[i].timings[b].1)
                    .chain([timing.1])
                    .collect(),
            );
        }
    }

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
    json.push_str(&format!(
        "  \"unit\": \"nanoseconds per evaluation (median of {passes} whole passes)\",\n"
    ));
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

//! Golden bits: a digest of the engine's exact outputs, checked in.
//!
//! Engine ≡ interpreter cannot see a change both sides share: they derive
//! their streams from the same seeds, LFSRs and lane sequences, so a
//! moved LFSR tap or lane seed moves both and that suite stays green. This
//! test pins the bits themselves: it hashes the logits' `f64` bits of a
//! fixed matrix (tiny-LeNet, No.1 and all-APC, three stream lengths, three
//! frames) and compares the hashes with the table below, under every
//! kernel backend this build can run and at thread limits 1 and 2.
//!
//! A change that is meant to move the bits updates the table in the same
//! change and says so; the assertion message prints the new table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_blocks::feature_block::FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
use sc_core::Backend;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::dataset::render_digit;
use sc_nn::lenet::{tiny_lenet, PoolingStyle};
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};

/// `(configuration, stream length, FNV-1a of every frame's logit bits)`.
const GOLDEN: [(&str, usize, u64); 6] = [
    ("no1", 127, 0xa793_094e_d3e5_af85),
    ("no1", 256, 0x9e44_8e4b_159b_63ba),
    ("no1", 1024, 0x685f_5877_9d22_357d),
    ("all_apc", 127, 0x68e0_150c_caa8_a120),
    ("all_apc", 256, 0x8ad3_b2ac_1141_7f0e),
    ("all_apc", 1024, 0x01a0_000b_0f06_c3b1),
];

/// Seed of the untrained tiny-LeNet and of the frames.
const SEED: u64 = 11;
const FRAMES: usize = 3;

fn config(name: &str, stream_length: usize) -> ScNetworkConfig {
    let kinds = match name {
        "no1" => vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        _ => vec![ApcMaxBtanh; 4],
    };
    ScNetworkConfig::new(name, kinds, stream_length, PoolingStyle::Max)
}

fn frames() -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..FRAMES)
        .map(|_| {
            let digit = rng.gen_range(0..10usize);
            render_digit(digit, &mut rng)
        })
        .collect()
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3)
        })
}

#[test]
fn engine_outputs_match_the_golden_table_on_every_backend_and_thread_limit() {
    let network = tiny_lenet(SEED);
    let frames = frames();
    let engines: Vec<Engine> = GOLDEN
        .iter()
        .map(|&(name, length, _)| {
            Engine::compile(&network, &config(name, length), EngineOptions::default()).unwrap()
        })
        .collect();
    let restore = sc_core::active_backend();
    let mut mismatches = Vec::new();
    for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
        assert!(sc_core::force_backend(backend));
        for threads in [1usize, 2] {
            sc_core::parallel::set_thread_limit(threads);
            let hashes: Vec<u64> = engines
                .iter()
                .map(|engine| {
                    let mut session = engine.new_session();
                    fnv1a(frames.iter().flat_map(|frame| {
                        let logits = engine.infer(&mut session, frame).unwrap().logits;
                        logits.into_iter().map(f64::to_bits)
                    }))
                })
                .collect();
            if hashes
                .iter()
                .zip(&GOLDEN)
                .any(|(&hash, golden)| hash != golden.2)
            {
                let hashes: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
                mismatches.push(format!(
                    "{backend:?} at {threads} thread(s): [{}]",
                    hashes.join(", ")
                ));
            }
        }
    }
    sc_core::parallel::set_thread_limit(0);
    assert!(sc_core::force_backend(restore));
    assert!(
        mismatches.is_empty(),
        "engine outputs differ from the golden table:\n{}",
        mismatches.join("\n")
    );
}

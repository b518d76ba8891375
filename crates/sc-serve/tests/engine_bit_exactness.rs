//! Property test: the compiled engine is bit-exact with the per-call
//! interpreter across block kinds, stream lengths (including the
//! non-word-multiple 127), fan-out schedules, and batch sizes.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::{AvgPool2, Conv2d, Dense, MaxPool2, Tanh};
use sc_nn::lenet::PoolingStyle;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::plan::PlanOptions;
use std::sync::{Mutex, MutexGuard};

/// `sc_core::parallel::set_thread_limit` is process-wide: the tests that
/// set it hold this lock, so one test's limit cannot change under
/// another's serial or fanned-out run.
static THREAD_LIMIT_LOCK: Mutex<()> = Mutex::new(());

fn lock_thread_limit() -> MutexGuard<'static, ()> {
    THREAD_LIMIT_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small conv+pool+dense network matching `kind`'s pooling style.
fn probe_network(kind: FeatureBlockKind, seed: u64) -> Network {
    let mut network = Network::new("probe");
    network.push(Box::new(Conv2d::new(1, 2, 3, seed)));
    if kind.uses_max_pooling() {
        network.push(Box::new(MaxPool2::new()));
    } else {
        network.push(Box::new(AvgPool2::new()));
    }
    network.push(Box::new(Tanh::new()));
    network.push(Box::new(Dense::new(2 * 3 * 3, 5, seed + 1)));
    network.push(Box::new(Tanh::new()));
    network.push(Box::new(Dense::new(5, 3, seed + 2)));
    network
}

fn probe_image(seed: u32) -> Tensor {
    let mix = seed.wrapping_mul(2_654_435_761) | 1;
    Tensor::from_fn(&[1, 8, 8], |i| {
        let h = (i as u32).wrapping_add(1).wrapping_mul(mix);
        ((h >> 15) % 2000) as f32 / 1000.0 - 1.0
    })
}

#[test]
fn engine_is_bit_exact_across_kinds_and_lengths() {
    for kind in FeatureBlockKind::ALL {
        for stream_length in [64usize, 127, 256] {
            let pooling = if kind.uses_max_pooling() {
                PoolingStyle::Max
            } else {
                PoolingStyle::Average
            };
            let network = probe_network(kind, 40 + stream_length as u64);
            let config = ScNetworkConfig::new("prop", vec![kind; 3], stream_length, pooling);
            let engine = Engine::compile(
                &network,
                &config,
                EngineOptions {
                    plan: PlanOptions {
                        input_shape: [1, 8, 8],
                        base_seed: stream_length as u64,
                    },
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let mut session = engine.new_session();
            let images: Vec<Tensor> = (1..4).map(probe_image).collect();
            engine
                .verify(&mut session, &images)
                .unwrap_or_else(|error| panic!("{kind} at L={stream_length}: {error}"));
        }
    }
}

#[test]
fn fused_engine_is_bit_exact_across_kinds_lengths_and_schedules() {
    // The fused engine must reproduce the interpreter across all four block
    // kinds, stream lengths including the non-word-multiple 127 and the
    // sub-word 63 (below the 128-bit staged SNG cutoff, so every lane
    // sample comes from the serial tail), at thread limits 1 and 4. At 4
    // the MUX layers fan out; the probe's APC layers are below the engine's
    // fan-out work and run serially (the tiny-LeNet-shaped test below
    // covers their fan-out).
    let _guard = lock_thread_limit();
    for kind in FeatureBlockKind::ALL {
        for stream_length in [63usize, 100, 127] {
            let pooling = if kind.uses_max_pooling() {
                PoolingStyle::Max
            } else {
                PoolingStyle::Average
            };
            let network = probe_network(kind, 90 + stream_length as u64);
            let config = ScNetworkConfig::new("fused", vec![kind; 3], stream_length, pooling);
            let engine = Engine::compile(
                &network,
                &config,
                EngineOptions {
                    plan: PlanOptions {
                        input_shape: [1, 8, 8],
                        base_seed: 7 + stream_length as u64,
                    },
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let images: Vec<Tensor> = (1..4).map(probe_image).collect();
            for thread_limit in [1usize, 4] {
                sc_core::parallel::set_thread_limit(thread_limit);
                let verified = engine.verify(&mut engine.new_session(), &images);
                sc_core::parallel::set_thread_limit(0);
                verified.unwrap_or_else(|error| {
                    panic!("{kind} at L={stream_length}, {thread_limit} threads: {error}")
                });
            }
        }
    }
}

/// tiny-LeNet's shape with `kind`'s pooling style: its APC convolutions
/// and fc1 are large enough to fan out, which the probe network's APC
/// layers are not.
fn lenet_shaped_network(kind: FeatureBlockKind, seed: u64) -> Network {
    let mut network = Network::new("lenet-shaped");
    for (inputs, filters) in [(1, 8), (8, 16)] {
        network.push(Box::new(Conv2d::new(
            inputs,
            filters,
            5,
            seed + inputs as u64,
        )));
        if kind.uses_max_pooling() {
            network.push(Box::new(MaxPool2::new()));
        } else {
            network.push(Box::new(AvgPool2::new()));
        }
        network.push(Box::new(Tanh::new()));
    }
    network.push(Box::new(Dense::new(16 * 4 * 4, 64, seed + 2)));
    network.push(Box::new(Tanh::new()));
    network.push(Box::new(Dense::new(64, 10, seed + 3)));
    network
}

#[test]
fn fanned_out_engine_is_bit_exact_for_every_kind() {
    // The fan-out path under every block kind: the interpreter and the
    // serial engine must both agree with an engine whose convolutions and
    // fc1 (and, in a MUX layer, fc2) fan out at 4 threads.
    let _guard = lock_thread_limit();
    for kind in FeatureBlockKind::ALL {
        let pooling = if kind.uses_max_pooling() {
            PoolingStyle::Max
        } else {
            PoolingStyle::Average
        };
        let config = ScNetworkConfig::new("lenet", vec![kind; 4], 256, pooling);
        let engine = Engine::compile(
            &lenet_shaped_network(kind, 60),
            &config,
            EngineOptions::default(),
        )
        .unwrap();
        let image = Tensor::from_fn(&[1, 28, 28], |i| ((i * 37) % 101) as f32 / 50.0 - 1.0);
        sc_core::parallel::set_thread_limit(1);
        let serial = engine.infer(&mut engine.new_session(), &image);
        sc_core::parallel::set_thread_limit(4);
        let verified = engine.verify(&mut engine.new_session(), std::slice::from_ref(&image));
        let fanned = engine.infer(&mut engine.new_session(), &image);
        sc_core::parallel::set_thread_limit(0);
        verified.unwrap_or_else(|error| panic!("{kind}: {error}"));
        assert_eq!(serial.unwrap(), fanned.unwrap(), "{kind}");
    }
}

#[test]
fn batch_inference_matches_single_requests_at_any_batch_size() {
    let kind = FeatureBlockKind::ApcMaxBtanh;
    let network = probe_network(kind, 7);
    let config = ScNetworkConfig::new("batch", vec![kind; 3], 127, PoolingStyle::Max);
    let engine = Engine::compile(
        &network,
        &config,
        EngineOptions {
            plan: PlanOptions {
                input_shape: [1, 8, 8],
                base_seed: 99,
            },
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let images: Vec<Tensor> = (1..9).map(probe_image).collect();
    let mut session = engine.new_session();
    let singles: Vec<_> = images
        .iter()
        .map(|image| engine.infer(&mut session, image).unwrap())
        .collect();
    for batch_size in [1usize, 2, 3, 8] {
        for (start, chunk) in images.chunks(batch_size).enumerate() {
            let mut batch_session = engine.new_session();
            let batch = engine.infer_batch(&mut batch_session, chunk).unwrap();
            for (offset, result) in batch.iter().enumerate() {
                assert_eq!(
                    result,
                    &singles[start * batch_size + offset],
                    "batch size {batch_size} diverged at image {}",
                    start * batch_size + offset
                );
            }
        }
    }
}

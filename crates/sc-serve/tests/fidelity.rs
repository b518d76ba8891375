//! Fidelity gate: how often the compiled SC engine, and the float twin of
//! its plan (`Plan::reference_infer`), agree with the float network they
//! were lowered from. The twin's misses are what the lowering loses; the
//! engine's further misses are what the SC rendering loses.
//!
//! The network is tiny-LeNet trained exactly as the repository benchmark
//! (`perfbench`) trains it, and the frames are the first frames of the
//! benchmark's fixed fidelity set. Every run is deterministic, so the
//! agreement is an exact count: the floors below are the counts measured
//! when the gate was added. A change that costs agreement fails here
//! instead of passing as a speed-up. Floors are only ever raised.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_blocks::feature_block::FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::dataset::{render_digit, SyntheticDigits};
use sc_nn::lenet::{tiny_lenet, PoolingStyle};
use sc_nn::network::{Network, TrainingOptions};
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};

/// The benchmark's training seed and fidelity-frame seed.
const TRAIN_SEED: u64 = 17;
const FIDELITY_SEED: u64 = 99;
/// Frames checked: the benchmark's whole fidelity set.
const FRAMES: usize = 50;
/// Stream length of the gate: the shortest the benchmark serves.
const STREAM_LENGTH: usize = 256;

/// Tiny-LeNet trained as the benchmark's prologue trains it.
fn trained_network() -> Network {
    let data = SyntheticDigits::generate(20, TRAIN_SEED);
    let mut network = tiny_lenet(TRAIN_SEED);
    network.train(
        &data.train_images,
        &data.train_labels,
        &TrainingOptions {
            epochs: 2,
            learning_rate: 0.08,
            ..Default::default()
        },
    );
    network
}

/// The first `count` frames of the benchmark's fidelity set.
fn fidelity_frames(count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(FIDELITY_SEED);
    (0..count)
        .map(|_| {
            let digit = rng.gen_range(0..10usize);
            render_digit(digit, &mut rng)
        })
        .collect()
}

/// Frames on which the engine compiled under `config`, and the float twin
/// of its plan, pick the float network's class (`float[i]` for frame `i`):
/// `(engine, plan-float)`.
fn agreeing_frames(
    network: &Network,
    config: &ScNetworkConfig,
    frames: &[Tensor],
    float: &[usize],
) -> (usize, usize) {
    let engine = Engine::compile(network, config, EngineOptions::default()).unwrap();
    let mut session = engine.new_session();
    let mut agree = (0, 0);
    for (frame, &class) in frames.iter().zip(float) {
        agree.0 += usize::from(engine.infer(&mut session, frame).unwrap().argmax == class);
        agree.1 += usize::from(engine.plan().reference_infer(frame).unwrap().argmax == class);
    }
    agree
}

#[test]
fn engine_agreement_with_the_float_network_stays_above_its_floors() {
    let mut network = trained_network();
    let frames = fidelity_frames(FRAMES);
    let float: Vec<usize> = frames.iter().map(|frame| network.predict(frame)).collect();
    let no1 = ScNetworkConfig::new(
        "no1",
        vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        STREAM_LENGTH,
        PoolingStyle::Max,
    );
    let all_apc = ScNetworkConfig::new(
        "all_apc",
        vec![ApcMaxBtanh; 4],
        STREAM_LENGTH,
        PoolingStyle::Max,
    );
    // (configuration, engine floor, plan-float floor) in agreeing frames
    // out of FRAMES: the counts measured when each gate was added (engine
    // no1 3/50, all-APC 16/50; plan-float 32/50 for both, since the two
    // configurations differ only in inner products, which the float twin
    // computes exactly).
    for (config, floor, plan_floor) in [(no1, 3usize, 32usize), (all_apc, 16, 32)] {
        let (agree, plan_agree) = agreeing_frames(&network, &config, &frames, &float);
        eprintln!(
            "{}: {agree}/{FRAMES} frames agree (plan-float {plan_agree}/{FRAMES})",
            config.name
        );
        assert!(
            agree >= floor,
            "{}: {agree}/{FRAMES} frames agree with the float network, below the floor {floor}",
            config.name
        );
        assert!(
            plan_agree >= plan_floor,
            "{}: the plan's float twin agrees with the float network on {plan_agree}/{FRAMES} \
             frames, below the floor {plan_floor}",
            config.name
        );
    }
}

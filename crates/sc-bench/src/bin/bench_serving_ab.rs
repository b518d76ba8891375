//! Interleaved A/B of the serving engine's single-request latency across
//! kernel word backends.
//!
//! The scalar backend runs the seed revision's scalar loops (the `u64`
//! instantiation the `W::LANES > 1` dispatch guards compile down to), so
//! pinning scalar vs the best available backend inside one binary is a
//! controlled A/B of the super-word kernel layer with the build, the weights,
//! the training run, and the session state all held constant. The 1-core
//! bench box drifts ±10%, so runs are *interleaved in pairs* (A, B, A, B, …)
//! and the recorded delta is the median of the per-pair deltas, not a single
//! before/after difference.
//!
//! Run with: `cargo run --release -p sc-bench --features simd --bin
//! bench_serving_ab`. Replaces the `kernel_backend_ab` section of
//! `BENCH_serving.json`, leaving the rest of the recording untouched.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_core::{force_backend, Backend};
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::dataset::SyntheticDigits;
use sc_nn::lenet::{tiny_lenet, PoolingStyle};
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};
use std::time::Instant;

/// Nearest-rank percentile over ascending samples (the serving metrics'
/// rank rule, shared with `bench_serving`).
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sc_serve::metrics::nearest_rank_index(sorted.len(), pct)]
}

struct AbRun {
    name: String,
    stream_length: usize,
    requests_per_run: usize,
    pairs: Vec<(f64, f64)>,
    scalar_p50_ms: f64,
    best_p50_ms: f64,
    /// Median of per-pair `(scalar - best) / scalar`, in percent.
    p50_delta_pct: f64,
}

/// One timed run: `requests` warm-session inferences under the currently
/// pinned backend, returning the p50 latency in milliseconds.
fn timed_run(
    engine: &Engine,
    session: &mut sc_serve::engine::Session,
    images: &[Tensor],
    requests: usize,
) -> f64 {
    let mut latencies: Vec<f64> = Vec::with_capacity(requests);
    for image in images.iter().cycle().take(requests) {
        let begin = Instant::now();
        let result = engine.infer(session, image).expect("engine inference");
        latencies.push(begin.elapsed().as_secs_f64() * 1000.0);
        std::hint::black_box(result);
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    percentile(&latencies, 50.0)
}

fn ab_config(
    network: &Network,
    name: &str,
    stream_length: usize,
    requests: usize,
    pair_count: usize,
    best: Backend,
) -> AbRun {
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let config = ScNetworkConfig::new(
        name,
        vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        stream_length,
        PoolingStyle::Max,
    );
    let engine =
        Engine::compile(network, &config, EngineOptions::default()).expect("engine compiles");
    let data = SyntheticDigits::generate(2, 23);
    let images: Vec<Tensor> = data.train_images.iter().take(4).cloned().collect();

    // Prove the two backends serve bit-identical results before timing.
    let mut session = engine.new_session();
    assert!(force_backend(Backend::Scalar));
    let scalar_result = engine.infer(&mut session, &images[0]).expect("scalar");
    assert!(force_backend(best));
    let best_result = engine.infer(&mut session, &images[0]).expect("best");
    assert_eq!(
        scalar_result, best_result,
        "backends must serve bit-identical inferences"
    );

    // Warm-up run per backend (untimed), then interleaved timed pairs on the
    // same warm session.
    assert!(force_backend(Backend::Scalar));
    timed_run(&engine, &mut session, &images, requests);
    assert!(force_backend(best));
    timed_run(&engine, &mut session, &images, requests);

    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(pair_count);
    for _ in 0..pair_count {
        assert!(force_backend(Backend::Scalar));
        let scalar_p50 = timed_run(&engine, &mut session, &images, requests);
        assert!(force_backend(best));
        let best_p50 = timed_run(&engine, &mut session, &images, requests);
        pairs.push((scalar_p50, best_p50));
    }

    let mut scalar_p50s: Vec<f64> = pairs.iter().map(|&(a, _)| a).collect();
    let mut best_p50s: Vec<f64> = pairs.iter().map(|&(_, b)| b).collect();
    let mut deltas: Vec<f64> = pairs.iter().map(|&(a, b)| (a - b) / a * 100.0).collect();
    scalar_p50s.sort_by(|a, b| a.total_cmp(b));
    best_p50s.sort_by(|a, b| a.total_cmp(b));
    deltas.sort_by(|a, b| a.total_cmp(b));

    AbRun {
        name: name.to_string(),
        stream_length,
        requests_per_run: requests,
        pairs,
        scalar_p50_ms: percentile(&scalar_p50s, 50.0),
        best_p50_ms: percentile(&best_p50s, 50.0),
        p50_delta_pct: percentile(&deltas, 50.0),
    }
}

/// Replaces (or appends) the `kernel_backend_ab` section of
/// `BENCH_serving.json` without disturbing the sections `bench_serving`
/// writes.
fn patch_recording(section: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serving.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH_serving.json");
    let mut body = text.trim_end().to_string();
    // Our section is always the last one before the closing brace; drop a
    // previous recording wholesale if present.
    if let Some(idx) = body.find(",\n  \"kernel_backend_ab\"") {
        body.truncate(idx);
        body.push_str("\n}");
    }
    assert!(body.ends_with('}'), "unexpected BENCH_serving.json shape");
    body.truncate(body.len() - 1);
    let body = body.trim_end().to_string();
    let patched = format!("{body},\n  \"kernel_backend_ab\": {section}\n}}\n");
    std::fs::write(&path, patched).expect("write BENCH_serving.json");
    println!("\npatched {}", path.display());
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let best = sc_core::word::best_available_backend();
    assert!(
        best != Backend::Scalar,
        "no wide backend available; build with --features simd on x86-64 \
         or rely on the portable super-word (always available)"
    );
    // Single-threaded like the serving acceptance runs: the kernel delta
    // should not be confounded by fan-out scheduling.
    sc_core::parallel::set_thread_limit(1);

    println!("training reduced LeNet once for both A/B configurations ...");
    let data = SyntheticDigits::load_or_generate(20, 17);
    let mut network = tiny_lenet(17);
    network.train(
        &data.train_images,
        &data.train_labels,
        &sc_nn::network::TrainingOptions {
            epochs: 2,
            learning_rate: 0.08,
            ..Default::default()
        },
    );

    let (requests, pair_count) = if quick { (5, 3) } else { (11, 5) };
    let runs = vec![
        ab_config(
            &network,
            "no1_style_l1024",
            1024,
            requests,
            pair_count,
            best,
        ),
        ab_config(
            &network,
            "no1_style_l256",
            256,
            requests * 2,
            pair_count,
            best,
        ),
    ];
    sc_core::parallel::set_thread_limit(0);
    force_backend(best);

    println!(
        "\n{:<22}{:>14}{:>14}{:>12}",
        "configuration",
        "scalar p50",
        format!("{best} p50"),
        "p50 delta"
    );
    for run in &runs {
        println!(
            "{:<22}{:>11.2} ms{:>11.2} ms{:>11.1}%",
            run.name, run.scalar_p50_ms, run.best_p50_ms, run.p50_delta_pct
        );
        for (i, (a, b)) in run.pairs.iter().enumerate() {
            println!("    pair {i}: scalar {a:.2} ms vs {best} {b:.2} ms");
        }
    }

    if quick {
        println!("\nskipping BENCH_serving.json patch (--quick)");
        return;
    }

    let mut section = String::from("{\n");
    section.push_str(
        "    \"note\": \"single-request fused-engine p50 with the kernel word \
         backend pinned per run: scalar (the seed scalar loops, i.e. the \
         pre-super-word code path) vs the best available backend, interleaved \
         in pairs on the same warm session because the 1-core box drifts \
         +/-10%; delta is the median of per-pair (scalar-best)/scalar; both \
         backends asserted bit-identical before timing\",\n",
    );
    section.push_str(
        "    \"generated_by\": \"cargo run --release -p sc-bench --features simd --bin bench_serving_ab\",\n",
    );
    section.push_str(&format!("    \"best_backend\": \"{}\",\n", best.name()));
    section.push_str("    \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        section.push_str("      {\n");
        section.push_str(&format!("        \"name\": \"{}\",\n", run.name));
        section.push_str(&format!(
            "        \"stream_length\": {},\n",
            run.stream_length
        ));
        section.push_str(&format!(
            "        \"requests_per_run\": {},\n",
            run.requests_per_run
        ));
        section.push_str("        \"pairs_scalar_vs_best_p50_ms\": [");
        section.push_str(
            &run.pairs
                .iter()
                .map(|(a, b)| format!("[{a:.2}, {b:.2}]"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        section.push_str("],\n");
        section.push_str(&format!(
            "        \"scalar_p50_ms\": {:.2},\n",
            run.scalar_p50_ms
        ));
        section.push_str(&format!(
            "        \"best_p50_ms\": {:.2},\n",
            run.best_p50_ms
        ));
        section.push_str(&format!(
            "        \"p50_delta_pct\": {:.1}\n",
            run.p50_delta_pct
        ));
        section.push_str(if i + 1 == runs.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    section.push_str("    ]\n  }");
    patch_recording(&section);
}

//! Observability-plane integration tests: the admin scrape endpoint must
//! agree with client-observed totals, per-request stage spans must obey the
//! end-to-end latency decomposition, shed requests must record no compute,
//! and trace sampling must be deterministic under a fixed seed.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::Dense;
use sc_nn::lenet::PoolingStyle;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::admin::{scrape, spawn_admin};
use sc_serve::batch::BatchPolicy;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::obs::{TraceLog, TraceSampler};
use sc_serve::plan::PlanOptions;
use sc_serve::proto::{decode_response, read_frame, write_request_v3, ErrorCode, Response};
use sc_serve::server::{spawn_multi_observed, ServerOptions};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn engine_with_seed(base_seed: u64) -> Engine {
    let mut network = Network::new("obs");
    network.push(Box::new(Dense::new(16, 4, 3)));
    let config = ScNetworkConfig::new(
        "obs",
        vec![FeatureBlockKind::ApcMaxBtanh],
        64,
        PoolingStyle::Max,
    );
    Engine::compile(
        &network,
        &config,
        EngineOptions {
            plan: PlanOptions {
                input_shape: [1, 4, 4],
                base_seed,
            },
            ..EngineOptions::default()
        },
    )
    .unwrap()
}

fn test_image(seed: u32) -> Tensor {
    Tensor::from_fn(&[1, 4, 4], |i| {
        (((i as u32 + seed).wrapping_mul(97) % 100) as f32) / 100.0
    })
}

/// Extracts the value of an exposition line that starts with `prefix`
/// (metric name plus rendered labels).
fn metric_value(exposition: &str, prefix: &str) -> f64 {
    let line = exposition
        .lines()
        .find(|line| {
            line.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .unwrap_or_else(|| panic!("no sample {prefix} in:\n{exposition}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// Extracts a `"name":<u64>` field from a JSONL trace line.
fn trace_field(line: &str, name: &str) -> u64 {
    let marker = format!("\"{name}\":");
    let rest = line
        .split(&marker)
        .nth(1)
        .unwrap_or_else(|| panic!("no field {name} in {line}"));
    rest.split([',', '}'])
        .next()
        .unwrap()
        .trim_matches('"')
        .parse()
        .unwrap_or_else(|_| panic!("field {name} in {line} is not a u64"))
}

fn trace_str_field<'a>(line: &'a str, name: &str) -> &'a str {
    let marker = format!("\"{name}\":\"");
    line.split(&marker)
        .nth(1)
        .unwrap_or_else(|| panic!("no field {name} in {line}"))
        .split('"')
        .next()
        .unwrap()
}

#[test]
fn scrape_agrees_with_client_totals_and_stage_spans_decompose_latency() {
    let engine = Arc::new(engine_with_seed(44));
    // Sample every request so the trace covers the full load.
    let (trace, buffer) = TraceLog::to_shared_buffer(TraceSampler::new(7, 1));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn_multi_observed(
        vec![Arc::clone(&engine)],
        listener,
        ServerOptions {
            policy: BatchPolicy {
                max_batch: 4,
                max_linger: Duration::from_millis(1),
                ..BatchPolicy::default()
            },
            workers: 2,
            ..ServerOptions::default()
        },
        Some(trace),
    )
    .unwrap();
    let admin = spawn_admin(TcpListener::bind("127.0.0.1:0").unwrap(), handle.registry());

    let total = 24u64;
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for id in 0..total {
        let image = test_image(id as u32);
        write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    }
    let mut ok = 0u64;
    for _ in 0..total {
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("response")
        {
            Response::Ok { .. } => ok += 1,
            Response::Err { message, .. } => panic!("request failed: {message}"),
        }
    }
    assert_eq!(ok, total, "every request must be answered");

    // The scrape must account for every client-observed request: no lost
    // requests between the wire and the metrics plane.
    let text = scrape(admin.addr(), "/metrics").unwrap();
    assert_eq!(
        metric_value(&text, "sc_requests_total{outcome=\"ok\"}"),
        total as f64,
        "{text}"
    );
    for outcome in ["failed", "shed", "expired"] {
        assert_eq!(
            metric_value(
                &text,
                &format!("sc_requests_total{{outcome=\"{outcome}\"}}")
            ),
            0.0
        );
    }
    assert_eq!(
        metric_value(&text, "sc_request_latency_seconds_count"),
        total as f64
    );
    assert_eq!(
        metric_value(&text, "sc_stage_latency_seconds_count{stage=\"compute\"}"),
        total as f64
    );
    // Well-formed exposition: every family has exactly one TYPE line and
    // every sample line parses as `name[{labels}] value`.
    for family in [
        "sc_requests_total",
        "sc_request_latency_seconds",
        "sc_stage_latency_seconds",
        "sc_queue_depth",
        "sc_stream_fills_total",
    ] {
        assert_eq!(
            text.matches(&format!("# TYPE {family} ")).count(),
            1,
            "family {family} in:\n{text}"
        );
    }
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect(line);
        value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
    }
    // The JSON variant carries the same counter.
    let json = scrape(admin.addr(), "/metrics.json").unwrap();
    assert!(json.starts_with("{\"metrics\":["), "{json}");
    assert!(
        json.contains(&format!(
            "{{\"name\":\"sc_requests_total\",\"kind\":\"counter\",\"labels\":{{\"outcome\":\"ok\"}},\"value\":{total}}}"
        )),
        "{json}"
    );

    // Stage spans: for every traced request, the queue-wait and compute
    // spans are disjoint parts of the end-to-end latency.
    let lines = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let serve_lines: Vec<&str> = lines.lines().collect();
    assert_eq!(serve_lines.len() as u64, total, "sampler keeps 1-in-1");
    for line in &serve_lines {
        assert_eq!(trace_str_field(line, "outcome"), "ok");
        let queue = trace_field(line, "queue_us");
        let compute = trace_field(line, "compute_us");
        let total_us = trace_field(line, "total_us");
        assert!(
            queue + compute <= total_us,
            "queue {queue} + compute {compute} must fit in e2e {total_us}: {line}"
        );
        assert!(
            trace_field(line, "cache_fill_us") <= compute,
            "cache fill is a sub-span of compute: {line}"
        );
        assert!(compute > 0, "a served request computes: {line}");
    }

    drop(writer);
    drop(reader);
    admin.shutdown();
    handle.shutdown();
}

#[test]
fn shed_requests_record_no_compute_span() {
    let engine = Arc::new(engine_with_seed(51));
    let (trace, buffer) = TraceLog::to_shared_buffer(TraceSampler::new(3, 1));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // One slow worker and a one-deep queue: a pipelined burst must shed.
    let handle = spawn_multi_observed(
        vec![Arc::clone(&engine)],
        listener,
        ServerOptions {
            policy: BatchPolicy {
                max_batch: 1,
                max_linger: Duration::ZERO,
                max_queue: 1,
            },
            workers: 1,
            compute_delay: Duration::from_millis(40),
            ..ServerOptions::default()
        },
        Some(trace),
    )
    .unwrap();

    let total = 12u64;
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for id in 0..total {
        let image = test_image(id as u32);
        write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    }
    let mut shed = 0u64;
    let mut served = 0u64;
    for _ in 0..total {
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("response")
        {
            Response::Ok { .. } => served += 1,
            Response::Err { code, message, .. } => {
                assert_eq!(code, ErrorCode::Overloaded, "{message}");
                shed += 1;
            }
        }
    }
    assert!(shed > 0, "the burst must overflow a one-deep queue");
    assert_eq!(handle.metrics().shed(), shed);
    assert_eq!(handle.metrics().completed(), served);
    // The compute stage histogram saw only the served requests — a shed
    // request must not contribute a compute span.
    assert_eq!(
        handle
            .metrics()
            .stages()
            .get(sc_serve::metrics::Stage::Compute)
            .count(),
        served
    );

    let lines = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let mut refused = 0u64;
    for line in lines.lines() {
        match trace_str_field(line, "outcome") {
            "refused" => {
                refused += 1;
                assert_eq!(trace_field(line, "compute_us"), 0, "{line}");
                assert_eq!(trace_field(line, "cache_fill_us"), 0, "{line}");
                assert_eq!(trace_field(line, "queue_us"), 0, "{line}");
            }
            "ok" => assert!(trace_field(line, "compute_us") > 0, "{line}"),
            other => panic!("unexpected outcome {other}: {line}"),
        }
    }
    assert_eq!(refused, shed, "every shed request leaves a refused trace");

    drop(writer);
    drop(reader);
    handle.shutdown();
}

#[test]
fn trace_sampling_is_deterministic_under_a_fixed_seed() {
    // Two separate servers, same sampler seed and rate, same request ids:
    // the traced id sets must be identical — sampling depends only on
    // (seed, id), never on timing.
    let sampled_ids = |engine_seed: u64| -> Vec<u64> {
        let engine = Arc::new(engine_with_seed(engine_seed));
        let (trace, buffer) = TraceLog::to_shared_buffer(TraceSampler::new(0xFEED, 3));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn_multi_observed(
            vec![engine],
            listener,
            ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            },
            Some(trace),
        )
        .unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for id in 0..30u64 {
            let image = test_image(id as u32);
            write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
        }
        for _ in 0..30 {
            read_frame(&mut reader, decode_response)
                .unwrap()
                .expect("response");
        }
        drop(writer);
        drop(reader);
        handle.shutdown();
        let lines = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let mut ids: Vec<u64> = lines.lines().map(|line| trace_field(line, "id")).collect();
        ids.sort_unstable();
        ids
    };
    let first = sampled_ids(44);
    let second = sampled_ids(91);
    assert!(!first.is_empty(), "a 1-in-3 sampler must keep some of 30");
    assert!(
        (first.len() as u64) < 30,
        "a 1-in-3 sampler must not keep everything"
    );
    assert_eq!(first, second, "same seed ⇒ same sampled id set");
}

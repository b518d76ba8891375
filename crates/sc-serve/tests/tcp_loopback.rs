//! Serving smoke test: start the TCP server on a loopback port, send
//! requests through the wire protocol, and check the replies against a
//! direct engine call.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::Dense;
use sc_nn::lenet::PoolingStyle;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::batch::BatchPolicy;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::plan::PlanOptions;
use sc_serve::proto::{decode_response, read_frame, write_request_v3, Response};
use sc_serve::server::{spawn, spawn_multi, ServerOptions, SHUTTING_DOWN_MESSAGE};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn engine_with_seed(base_seed: u64) -> Engine {
    let mut network = Network::new("loopback");
    network.push(Box::new(Dense::new(16, 4, 3)));
    let config = ScNetworkConfig::new(
        "loopback",
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

fn quick_engine() -> Engine {
    engine_with_seed(44)
}

fn test_image(seed: u32) -> Tensor {
    Tensor::from_fn(&[1, 4, 4], |i| {
        (((i as u32 + seed).wrapping_mul(97) % 100) as f32) / 100.0
    })
}

#[test]
fn loopback_round_trip_matches_direct_inference() {
    let engine = Arc::new(quick_engine());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(
        Arc::clone(&engine),
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
    )
    .unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Pipeline several requests, then read all replies.
    let images: Vec<Tensor> = (0..5).map(test_image).collect();
    for (id, image) in images.iter().enumerate() {
        write_request_v3(&mut writer, id as u64, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    }
    let mut responses = Vec::new();
    for _ in 0..images.len() {
        responses.push(
            read_frame(&mut reader, decode_response)
                .unwrap()
                .expect("response"),
        );
    }
    // Replies can arrive out of submission order (two workers); match by id.
    responses.sort_by_key(Response::id);
    let mut session = engine.new_session();
    for (id, image) in images.iter().enumerate() {
        let expected = engine.infer(&mut session, image).unwrap();
        match &responses[id] {
            Response::Ok { argmax, logits, .. } => {
                assert_eq!(usize::from(*argmax), expected.argmax, "request {id}");
                assert_eq!(logits, &expected.logits, "request {id}");
            }
            Response::Err { message, .. } => panic!("request {id} failed: {message}"),
        }
    }

    // A malformed request (wrong element count for the plan) gets an error
    // reply instead of killing the connection.
    write_request_v3(&mut writer, 99, 0, 0, [1, 2, 2], &[0.0; 4]).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("error response")
    {
        Response::Err { id, message, .. } => {
            assert_eq!(id, 99);
            assert!(message.contains("expects"), "unexpected message: {message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    let report = handle.metrics().report();
    assert_eq!(report.completed, 5);
    assert_eq!(report.failed, 1);
    assert!(report.p99_ms >= report.p50_ms);

    drop(writer);
    drop(reader);
    handle.shutdown();
}

#[test]
fn multi_model_listener_serves_each_model_by_id() {
    // Two engines with different seed schemes produce different logits for
    // the same pixels, so the test can prove the model id actually selects.
    let engines = vec![
        Arc::new(engine_with_seed(44)),
        Arc::new(engine_with_seed(77)),
    ];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn_multi(
        engines.clone(),
        listener,
        ServerOptions {
            policy: BatchPolicy {
                max_batch: 4,
                max_linger: Duration::from_millis(1),
                ..BatchPolicy::default()
            },
            workers: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    assert_eq!(handle.models(), 2);

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let image = test_image(5);

    // The model id selects the engine; a generous deadline changes nothing.
    write_request_v3(&mut writer, 0, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    write_request_v3(&mut writer, 1, 0, 60_000, [1, 4, 4], image.as_slice()).unwrap();
    write_request_v3(&mut writer, 2, 1, 0, [1, 4, 4], image.as_slice()).unwrap();
    // Unknown model id: an error reply, not a disconnect.
    write_request_v3(&mut writer, 3, 9, 0, [1, 4, 4], image.as_slice()).unwrap();
    // The connection must still serve real models after the bad request.
    write_request_v3(&mut writer, 4, 1, 0, [1, 4, 4], image.as_slice()).unwrap();

    let mut responses = Vec::new();
    for _ in 0..5 {
        responses.push(
            read_frame(&mut reader, decode_response)
                .unwrap()
                .expect("response"),
        );
    }
    responses.sort_by_key(Response::id);

    let expected: Vec<_> = engines
        .iter()
        .map(|engine| engine.infer(&mut engine.new_session(), &image).unwrap())
        .collect();
    for (id, model) in [(0usize, 0usize), (1, 0), (2, 1), (4, 1)] {
        match &responses[id] {
            Response::Ok { logits, .. } => {
                assert_eq!(
                    logits, &expected[model].logits,
                    "request {id} (model {model})"
                );
            }
            Response::Err { message, .. } => panic!("request {id} failed: {message}"),
        }
    }
    assert_ne!(
        expected[0].logits, expected[1].logits,
        "the two models must be distinguishable for this test to mean anything"
    );
    match &responses[3] {
        Response::Err { code, message, .. } => {
            assert_eq!(*code, sc_serve::proto::ErrorCode::ModelUnavailable);
            assert!(message.contains("model 9 is not hosted"), "{message}");
        }
        other => panic!("expected a model-unavailable refusal, got {other:?}"),
    }

    drop(writer);
    drop(reader);
    handle.shutdown();
}

#[test]
fn shutdown_answers_in_flight_requests_and_returns() {
    // Regression for the shutdown drop: a request that is already queued
    // (the worker is lingering for a fuller batch) when `shutdown()` is
    // called must still be answered, and `shutdown()` must return without
    // waiting for the client to disconnect.
    let engine = Arc::new(quick_engine());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(
        Arc::clone(&engine),
        listener,
        ServerOptions {
            policy: BatchPolicy {
                max_batch: 8,
                // Long linger: without shutdown breaking the wait, the reply
                // would take 10 s — the test would time out if drain relied
                // on the linger expiring.
                max_linger: Duration::from_secs(10),
                ..BatchPolicy::default()
            },
            workers: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let image = test_image(9);
    let expected = engine.infer(&mut engine.new_session(), &image).unwrap();
    let client = {
        let image = image.clone();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            write_request_v3(&mut writer, 1, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
            // Blocks here until the drain answers; the old runtime would
            // hang forever if the request fell into the closed queue.
            let response = read_frame(&mut reader, decode_response)
                .unwrap()
                .expect("answer");
            // After shutdown the socket is closed: clean EOF, not a hang.
            let eof = read_frame(&mut reader, decode_response).unwrap();
            (response, eof)
        })
    };
    // Let the request reach the queue (the worker lingers on it).
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    let (response, eof) = client.join().unwrap();
    match response {
        Response::Ok { id, logits, .. } => {
            assert_eq!(id, 1);
            assert_eq!(
                logits, expected.logits,
                "drained reply must be a real answer"
            );
        }
        Response::Err { message, .. } => {
            // Acceptable only as an explicit refusal — never silence. (With
            // the 150 ms head start the request is normally already queued
            // and gets served; a heavily loaded machine may race it into
            // the refusal window instead.)
            assert_eq!(message, SHUTTING_DOWN_MESSAGE);
        }
    }
    assert!(eof.is_none(), "shutdown must close the connection socket");
}

#[test]
fn shutdown_closes_idle_connections_instead_of_leaking_readers() {
    // A connection with no request in flight used to keep its reader thread
    // alive until the client chose to disconnect; shutdown must close the
    // socket (the client observes clean EOF promptly) and join the thread.
    let engine = Arc::new(quick_engine());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(Arc::clone(&engine), listener, ServerOptions::default()).unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    // Bound the wait: if the server never closes the socket, this test must
    // fail with a timeout error rather than hang the suite.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let image = test_image(2);
    write_request_v3(&mut writer, 7, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    assert!(matches!(
        read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("response"),
        Response::Ok { id: 7, .. }
    ));

    // The client is idle (not sending, not disconnecting). shutdown() must
    // return anyway, and the client's next read must see EOF, not block.
    handle.shutdown();
    assert!(
        read_frame(&mut reader, decode_response).unwrap().is_none(),
        "the server must have closed the socket"
    );
}

#[test]
fn idle_read_timeout_reclaims_silent_connections_but_spares_active_ones() {
    // A client that connects and then never writes must not pin a reader
    // thread forever: after `idle_timeout` of zero progress the server
    // closes the socket (the client observes clean EOF). A connection that
    // keeps issuing requests — even spaced wider than one internal read
    // slice — stays up, because activity resets the idle clock.
    let engine = Arc::new(quick_engine());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(
        Arc::clone(&engine),
        listener,
        ServerOptions {
            idle_timeout: Duration::from_millis(300),
            ..ServerOptions::default()
        },
    )
    .unwrap();

    // Active connection: requests 150 ms apart survive the 300 ms budget.
    let active = TcpStream::connect(handle.addr()).unwrap();
    active
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut active_writer = active.try_clone().unwrap();
    let mut active_reader = BufReader::new(active);

    // Silent connection: never writes a byte.
    let silent = TcpStream::connect(handle.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut silent_reader = BufReader::new(silent);

    let image = test_image(3);
    for id in 0..4u64 {
        write_request_v3(&mut active_writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
        assert!(
            matches!(
                read_frame(&mut active_reader, decode_response)
                    .unwrap()
                    .expect("response"),
                Response::Ok { .. }
            ),
            "active connection must keep being served while the idle one ages out"
        );
        std::thread::sleep(Duration::from_millis(150));
    }

    // 4 × 150 ms have passed — double the idle budget — so the silent
    // connection must be gone by now. The bounded client read turns a
    // misbehaving (never-closing) server into a test failure, not a hang.
    assert!(
        read_frame(&mut silent_reader, decode_response)
            .unwrap()
            .is_none(),
        "the server must close a connection that stays idle past idle_timeout"
    );

    // The active connection is still healthy after the reaping.
    write_request_v3(&mut active_writer, 99, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    assert!(matches!(
        read_frame(&mut active_reader, decode_response)
            .unwrap()
            .expect("response"),
        Response::Ok { id: 99, .. }
    ));

    drop(active_writer);
    drop(active_reader);
    handle.shutdown();
}

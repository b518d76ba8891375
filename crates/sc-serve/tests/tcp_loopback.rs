//! Serving smoke test: start the TCP server on a loopback port, send
//! requests through the wire protocol, and check the replies against a
//! direct engine call.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::Dense;
use sc_nn::lenet::PoolingStyle;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::plan::PlanOptions;
use sc_serve::proto::{decode_response, read_frame, write_request_v3, Response};
use sc_serve::server::{spawn, spawn_multi, ServerOptions, SHUTTING_DOWN_MESSAGE};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    // Regression for the shutdown drop: requests already accepted when
    // `shutdown()` is called — one in the worker's hands, one queued behind
    // it — must still be answered, and `shutdown()` must return without
    // waiting for the client to disconnect.
    let engine = Arc::new(quick_engine());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(
        Arc::clone(&engine),
        listener,
        ServerOptions {
            workers: 1,
            // Holds each request in flight well past the shutdown call.
            compute_delay: Duration::from_millis(400),
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
            // Bound the wait: a dropped request must fail the test, not
            // hang the suite.
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for id in [1, 2] {
                write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
            }
            // Blocks here until the drain answers; the old runtime would
            // hang forever if a request fell into the closed queue.
            let responses: Vec<Response> = (0..2)
                .map(|_| {
                    read_frame(&mut reader, decode_response)
                        .unwrap()
                        .expect("answer")
                })
                .collect();
            // After shutdown the socket is closed: clean EOF, not a hang.
            let eof = read_frame(&mut reader, decode_response).unwrap();
            (responses, eof)
        })
    };
    // Let the first request reach the worker and the second the queue.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    let (responses, eof) = client.join().unwrap();
    for (expected_id, response) in [1, 2].into_iter().zip(responses) {
        match response {
            Response::Ok { id, logits, .. } => {
                assert_eq!(id, expected_id);
                assert_eq!(
                    logits, expected.logits,
                    "drained reply must be a real answer"
                );
            }
            Response::Err { message, .. } => {
                // Acceptable only as an explicit refusal — never silence.
                // (With the 150 ms head start both requests are normally
                // accepted and get served; a heavily loaded machine may race
                // them into the refusal window instead.)
                assert_eq!(message, SHUTTING_DOWN_MESSAGE);
            }
        }
    }
    assert!(eof.is_none(), "shutdown must close the connection socket");
}

#[test]
fn idle_worker_takes_the_next_job_instead_of_waiting_behind_a_busy_one() {
    // Two workers, two requests sent together on two connections: each
    // worker must pop one, so both answers arrive after about one compute
    // delay. A worker that held both jobs would serve the second one a
    // whole delay later, while the other worker sat idle.
    let delay = Duration::from_millis(300);
    let engine = Arc::new(quick_engine());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(
        Arc::clone(&engine),
        listener,
        ServerOptions {
            workers: 2,
            compute_delay: delay,
            ..ServerOptions::default()
        },
    )
    .unwrap();

    let image = test_image(5);
    let connections: Vec<(TcpStream, BufReader<TcpStream>)> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (stream.try_clone().unwrap(), BufReader::new(stream))
        })
        .collect();
    let sent = Instant::now();
    let readers: Vec<_> = connections
        .into_iter()
        .zip(1u64..)
        .map(|((mut writer, mut reader), id)| {
            write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
            std::thread::spawn(move || {
                let response = read_frame(&mut reader, decode_response)
                    .unwrap()
                    .expect("answer");
                (id, response, sent.elapsed())
            })
        })
        .collect();
    for reader in readers {
        let (id, response, elapsed) = reader.join().unwrap();
        assert!(
            matches!(response, Response::Ok { id: got, .. } if got == id),
            "request {id}: {response:?}"
        );
        assert!(
            elapsed < delay + Duration::from_millis(200),
            "request {id} answered after {elapsed:?}: it waited behind another job"
        );
    }
    handle.shutdown();
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

#[test]
fn a_protocol_violation_ends_the_connection_before_later_requests() {
    // One write holding a frame no client may send (a response) and then a
    // valid request: the reader must stop at the bad frame, close the
    // connection, and never answer what came after it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn(Arc::new(quick_engine()), listener, ServerOptions::default()).unwrap();
    let mut bytes = Vec::new();
    let bogus = Response::Ok {
        id: 1,
        argmax: 0,
        logits: vec![0.0],
    };
    sc_serve::proto::write_response(&mut bytes, &bogus).unwrap();
    write_request_v3(&mut bytes, 2, 0, 0, [1, 4, 4], test_image(1).as_slice()).unwrap();
    for connection in 0..10 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        std::io::Write::write_all(&mut stream, &bytes).unwrap();
        match read_frame(&mut BufReader::new(stream), decode_response) {
            Ok(None) => {}
            Err(error) if error.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("connection {connection}: expected EOF, got {other:?}"),
        }
    }
    handle.shutdown();
}

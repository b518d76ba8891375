//! Router integration tests: two multi-model `serve` replicas behind the
//! replica router, exercising least-loaded routing, replica death, graceful
//! drain, and exactly-once failover — every client request must be answered,
//! bit-exact with a direct engine call.

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
use sc_serve::router::{spawn_router, RouterHandle, RouterOptions};
use sc_serve::server::{spawn_multi, ServerHandle, ServerOptions};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A small dense engine; different base seeds give bit-distinguishable
/// models.
fn engine_with_seed(base_seed: u64) -> Arc<Engine> {
    let mut network = Network::new("router-test");
    network.push(Box::new(Dense::new(16, 4, 3)));
    let config = ScNetworkConfig::new(
        "router-test",
        vec![FeatureBlockKind::ApcMaxBtanh],
        64,
        PoolingStyle::Max,
    );
    Arc::new(
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
        .unwrap(),
    )
}

fn test_image(seed: u32) -> Tensor {
    Tensor::from_fn(&[1, 4, 4], |i| {
        (((i as u32 + seed).wrapping_mul(97) % 100) as f32) / 100.0
    })
}

/// Both replicas host the same two-model registry, so responses are
/// bit-exact regardless of which replica (or failover path) served them.
fn replica(engines: &[Arc<Engine>; 2]) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    spawn_multi(
        engines.to_vec(),
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
    .unwrap()
}

fn router_over(backends: &[&ServerHandle], hedge: bool) -> RouterHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    spawn_router(
        listener,
        backends.iter().map(|handle| handle.addr()).collect(),
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            hedge,
            // The floor of the adaptive delay, so hedge arms really race.
            hedge_delay: Duration::from_millis(1),
            ..RouterOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn routed_requests_are_bit_exact_with_direct_inference() {
    let engines = [engine_with_seed(44), engine_with_seed(77)];
    let replica_a = replica(&engines);
    let replica_b = replica(&engines);

    // Mixed traffic: requests alternate between the two models.
    let images: Vec<Tensor> = (0..6).map(test_image).collect();
    let expected: Vec<Vec<f64>> = images
        .iter()
        .enumerate()
        .map(|(i, image)| {
            let engine = &engines[i % 2];
            engine
                .infer(&mut engine.new_session(), image)
                .unwrap()
                .logits
        })
        .collect();

    // One client on a plain router, then 8 and 32 concurrent clients on a
    // hedged one: hedge arms racing on the shared replica channels must
    // neither lose nor double-answer a request.
    for (hedge, connections) in [(false, 1), (true, 8), (true, 32)] {
        let router = router_over(&[&replica_a, &replica_b], hedge);
        let addr = router.addr();
        std::thread::scope(|scope| {
            for client in 0..connections {
                let (images, expected) = (&images, &expected);
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    for (i, image) in images.iter().enumerate() {
                        let id = (client * images.len() + i) as u64;
                        write_request_v3(
                            &mut writer,
                            id,
                            (i % 2) as u16,
                            0,
                            [1, 4, 4],
                            image.as_slice(),
                        )
                        .unwrap();
                        // Closed-loop: the router handles one exchange at a
                        // time per client connection.
                        match read_frame(&mut reader, decode_response)
                            .unwrap()
                            .expect("response")
                        {
                            Response::Ok {
                                id: rid, logits, ..
                            } => {
                                assert_eq!(rid, id);
                                assert_eq!(logits, expected[i], "request {id} must be bit-exact");
                            }
                            Response::Err { message, .. } => {
                                panic!("request {id} failed: {message}")
                            }
                        }
                    }
                });
            }
        });
        let sent = (connections * images.len()) as u64;
        let stats = router.stats();
        assert_eq!(stats.requests, sent, "hedge={hedge}: {stats}");
        assert_eq!(stats.failed, 0, "hedge={hedge}: {stats}");

        let stream = TcpStream::connect(router.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Wait for the router to learn both replicas' model sets from status
        // exchanges, so the model-7 request below is deterministic: the model
        // filter rejects every backend up front instead of racing the probes.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router
            .stats()
            .backends
            .iter()
            .any(|backend| backend.models.is_none())
        {
            assert!(
                std::time::Instant::now() < deadline,
                "router never learned the replicas' model sets"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        for backend in router.stats().backends {
            assert_eq!(backend.models, Some(vec![0, 1]));
            assert!(
                backend.registry_generation >= 1,
                "replica generations start at 1"
            );
        }

        // A model no replica hosts is a typed MODEL_UNAVAILABLE refusal: the
        // router's model filter rejects every backend without burning an
        // exchange, and the client sees the code, not a generic overload.
        write_request_v3(&mut writer, 99, 7, 0, [1, 4, 4], images[0].as_slice()).unwrap();
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("response")
        {
            Response::Err { id, code, message } => {
                assert_eq!(id, 99);
                assert_eq!(code, sc_serve::proto::ErrorCode::ModelUnavailable);
                assert!(message.contains("model 7"), "{message}");
            }
            other => panic!("expected a model-unavailable refusal, got {other:?}"),
        }
        let stats = router.stats();
        assert_eq!(stats.requests, sent + 1);
        assert_eq!(
            stats.failovers, 0,
            "healthy replicas must not trigger failover"
        );
        assert_eq!(
            stats.failed, 1,
            "the unhosted-model request is the one failure"
        );

        drop(writer);
        drop(reader);
        router.shutdown();
    }
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn replica_kill_mid_load_loses_no_request() {
    // The acceptance scenario: two replicas, one dies mid-load (graceful
    // shutdown — which still breaks the router's pooled connections and
    // refuses late requests). Every client request must be answered with
    // the bit-exact logits; the router absorbs the death via failover and
    // health checks.
    let engines = [engine_with_seed(44), engine_with_seed(77)];
    let replica_a = replica(&engines);
    let replica_b = replica(&engines);
    let router = router_over(&[&replica_a, &replica_b], false);
    let addr = router.addr();

    let expected: Vec<Vec<f64>> = {
        let image = test_image(1);
        engines
            .iter()
            .map(|engine| {
                engine
                    .infer(&mut engine.new_session(), &image)
                    .unwrap()
                    .logits
            })
            .collect()
    };

    const REQUESTS: usize = 30;
    let clients: Vec<_> = (0..2)
        .map(|client| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect router");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let image = test_image(1);
                for request in 0..REQUESTS {
                    let id = (client * REQUESTS + request) as u64;
                    let model = (request % 2) as u16;
                    write_request_v3(&mut writer, id, model, 0, [1, 4, 4], image.as_slice())
                        .expect("send through router");
                    match read_frame(&mut reader, decode_response).expect("router reply") {
                        Some(Response::Ok {
                            id: rid, logits, ..
                        }) => {
                            assert_eq!(rid, id);
                            assert_eq!(
                                logits,
                                expected[usize::from(model)],
                                "request {id} must stay bit-exact across the kill"
                            );
                        }
                        Some(Response::Err { message, .. }) => {
                            panic!("request {id} errored: {message}")
                        }
                        None => panic!("router closed on request {id}"),
                    }
                }
            })
        })
        .collect();

    // Let some requests flow, then kill replica A mid-load.
    std::thread::sleep(Duration::from_millis(100));
    replica_a.shutdown();

    for client in clients {
        client.join().expect("client must finish with all answers");
    }
    let stats = router.stats();
    assert_eq!(stats.requests, 2 * REQUESTS as u64);
    assert_eq!(
        stats.failed, 0,
        "no request may fail across a single replica kill: {stats}"
    );
    // Replica B must have absorbed traffic after the kill.
    let b_stats = &stats.backends[1];
    assert!(
        b_stats.forwarded > 0,
        "replica B absorbed no traffic: {stats}"
    );

    router.shutdown();
    replica_b.shutdown();
}

#[test]
fn hung_backend_times_out_and_fails_over() {
    // A backend that *accepts* the exchange and then goes silent (stopped
    // process, blackholed packets) must turn into a timed-out read and a
    // failover — not a forever-blocked client. The tarpit accepts and holds
    // connections without ever replying.
    let engines = [engine_with_seed(44), engine_with_seed(77)];
    let replica_b = replica(&engines);
    let tarpit = TcpListener::bind("127.0.0.1:0").unwrap();
    let tarpit_addr = tarpit.local_addr().unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let holder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            tarpit.set_nonblocking(true).unwrap();
            let mut held = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match tarpit.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = spawn_router(
        listener,
        // The tarpit is backend 0: with equal in-flight counts the
        // least-loaded pick is the first index, so the first request is
        // guaranteed to hit it.
        vec![tarpit_addr, replica_b.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_millis(500),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let image = test_image(4);
    let expected = engines[0]
        .infer(&mut engines[0].new_session(), &image)
        .unwrap();
    write_request_v3(&mut writer, 1, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("response")
    {
        Response::Ok { id, logits, .. } => {
            assert_eq!(id, 1);
            assert_eq!(logits, expected.logits, "failover answer must be bit-exact");
        }
        Response::Err { message, .. } => {
            panic!("request failed instead of failing over: {message}")
        }
    }
    let stats = router.stats();
    assert_eq!(
        stats.failovers, 1,
        "the hung exchange must fail over: {stats}"
    );
    assert_eq!(stats.failed, 0);
    // (No assertion on backends[0].healthy: although the ping probe now
    // sees through an accept-only tarpit, the first probe may not have
    // timed out yet when this snapshot is taken.)

    drop(writer);
    drop(reader);
    router.shutdown();
    replica_b.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    holder.join().unwrap();
}

#[test]
fn losing_every_replica_errors_the_client_instead_of_hanging() {
    let engines = [engine_with_seed(44), engine_with_seed(77)];
    let replica_a = replica(&engines);
    let router = router_over(&[&replica_a], false);

    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let image = test_image(3);
    write_request_v3(&mut writer, 1, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    assert!(matches!(
        read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("response"),
        Response::Ok { id: 1, .. }
    ));

    // Kill the only replica: the next request has no failover target and
    // must come back as an error reply, not a hang or a disconnect.
    replica_a.shutdown();
    write_request_v3(&mut writer, 2, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("response")
    {
        Response::Err { id, message, .. } => {
            assert_eq!(id, 2);
            assert!(message.contains("failover"), "{message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    let stats = router.stats();
    assert_eq!(stats.failed, 1);

    drop(writer);
    drop(reader);
    router.shutdown();
}

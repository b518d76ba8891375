//! Chaos suite: deterministic fault injection against the full serving
//! plane (client wire → router → replica), asserting the robustness
//! contract under every fault class:
//!
//! * **no silent loss** — every request sent gets exactly one reply (an
//!   `Ok` or a *typed* error), never a hang or an unexplained disconnect;
//! * **bit-exactness** — every `Ok` carries logits identical to a direct
//!   engine call, no matter which replica or failover path served it;
//! * **bounded time** — tests finish because deadlines/timeouts fire, not
//!   because sleeps happen to outlast the fault.
//!
//! All fault scheduling and retry jitter derive from SplitMix64 seeds, so
//! failures replay identically.
//!
//! When debugging a failure here against a live stack, start the replicas
//! and router with `--admin-addr` and scrape `/metrics`: the
//! `sc_requests_total{outcome=...}` counters, per-backend breaker gauges,
//! and `sc_stage_latency_seconds` histograms expose the same shed /
//! expiry / failover accounting these tests assert on (see
//! `sc_serve::obs` and `tests/obs.rs`).

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::Dense;
use sc_nn::lenet::PoolingStyle;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::fault::{FaultKind, FaultProxy};
use sc_serve::plan::PlanOptions;
use sc_serve::proto::{decode_response, read_frame, write_request_v3, ErrorCode, Response};
use sc_serve::router::{spawn_router, RouterHandle, RouterOptions};
use sc_serve::server::{spawn_multi, ServerHandle, ServerOptions};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn engine_with_seed(base_seed: u64) -> Arc<Engine> {
    let mut network = Network::new("chaos-test");
    network.push(Box::new(Dense::new(16, 4, 3)));
    let config = ScNetworkConfig::new(
        "chaos-test",
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

fn replica(engine: &Arc<Engine>, options: ServerOptions) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    spawn_multi(vec![Arc::clone(engine)], listener, options).unwrap()
}

fn quick_replica(engine: &Arc<Engine>) -> ServerHandle {
    replica(
        engine,
        ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
    )
}

fn router_over(backends: Vec<SocketAddr>, options: RouterOptions) -> RouterHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    spawn_router(listener, backends, options).unwrap()
}

/// Client connection with a bounded read so a broken server fails the test
/// instead of hanging the suite.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (writer, BufReader::new(stream))
}

/// Expected logits for `test_image(seed)` from a direct engine call.
fn expect_logits(engine: &Arc<Engine>, seed: u32) -> Vec<f64> {
    engine
        .infer(&mut engine.new_session(), &test_image(seed))
        .unwrap()
        .logits
}

/// Sends `count` requests through an already-connected client and asserts
/// every reply is `Ok` and bit-exact. Returns nothing silently: a missing
/// reply is a read timeout, a wrong reply is an assertion failure.
fn assert_all_ok_bit_exact(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    engine: &Arc<Engine>,
    ids: std::ops::Range<u64>,
) {
    for id in ids {
        let seed = id as u32;
        write_request_v3(writer, id, 0, 0, [1, 4, 4], test_image(seed).as_slice()).unwrap();
        match read_frame(reader, decode_response)
            .unwrap()
            .expect("reply, not a disconnect")
        {
            Response::Ok {
                id: rid, logits, ..
            } => {
                assert_eq!(rid, id);
                assert_eq!(
                    logits,
                    expect_logits(engine, seed),
                    "request {id} must be bit-exact under fault injection"
                );
            }
            Response::Err { message, .. } => panic!("request {id} errored: {message}"),
        }
    }
}

/// Common chassis for the transport-fault classes (stall, drop, truncate,
/// corrupt): replica A sits behind a fault proxy, replica B is healthy.
/// The proxy starts transparent so the first request warms a pooled router
/// connection to A and the probe marks A healthy; then the fault switches
/// on and traffic must keep flowing — failover absorbs the fault, answers
/// stay bit-exact, and the breaker trips.
fn transport_fault_scenario(fault: FaultKind, seed: u64) {
    let engine = engine_with_seed(44);
    let replica_a = quick_replica(&engine);
    let replica_b = quick_replica(&engine);
    let proxy = FaultProxy::spawn(replica_a.addr(), fault, seed).unwrap();
    proxy.set_enabled(false);
    let router = router_over(
        vec![proxy.addr(), replica_b.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_millis(300),
            probe_timeout: Duration::from_millis(300),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(30),
            ..RouterOptions::default()
        },
    );

    let (mut writer, mut reader) = connect(router.addr());
    // Warm-up with the proxy transparent: request 0 pools a connection to
    // backend 0 (the proxy — first index wins the least-loaded tie).
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 0..1);

    // Fault on: the pooled exchange through the proxy now fails, and every
    // request must still come back Ok via failover to replica B.
    proxy.set_enabled(true);
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 1..9);

    let stats = router.stats();
    assert_eq!(stats.requests, 9);
    assert_eq!(
        stats.failed, 0,
        "a single faulty replica must never fail a request: {stats}"
    );
    assert_eq!(stats.expired, 0);
    assert!(
        stats.failovers >= 1,
        "the faulted exchange must fail over: {stats}"
    );
    assert!(
        stats.backends[0].breaker_trips >= 1,
        "threshold-1 breaker must trip on the transport failure: {stats}"
    );
    assert!(
        stats.backends[1].forwarded >= 8,
        "replica B must absorb the traffic: {stats}"
    );

    drop(writer);
    drop(reader);
    router.shutdown();
    proxy.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn stalled_replica_fails_over_bit_exact() {
    // The replica computes the answer but its response bytes never arrive
    // (socket open, no progress). Bounded by `exchange_timeout`, not by the
    // stall's own 10 s limit.
    transport_fault_scenario(
        FaultKind::Stall {
            after: 0,
            limit: Duration::from_secs(10),
        },
        0xC0FFEE,
    );
}

#[test]
fn dropped_response_fails_over_bit_exact() {
    // The connection closes before any response byte: clean EOF
    // mid-exchange.
    transport_fault_scenario(FaultKind::Drop { after: 0 }, 0xD00D);
}

#[test]
fn truncated_response_fails_over_bit_exact() {
    // The connection closes mid-frame: the length prefix promises more
    // bytes than ever arrive.
    transport_fault_scenario(FaultKind::Drop { after: 7 }, 0xBEEF);
}

#[test]
fn corrupted_response_fails_over_bit_exact() {
    // Every response frame's tag byte is flipped — detectable by any
    // receiver, checksummed or not.
    transport_fault_scenario(FaultKind::Corrupt { every_frames: 1 }, 0xFACADE);
}

#[test]
fn corrupted_payload_byte_fails_over_bit_exact() {
    // Every response frame has one seeded-random *bit* flipped anywhere in
    // its payload — logits bytes or the CRC32 trailer itself. Only the
    // frame checksum makes this detectable: without it, a flipped logits
    // byte would parse cleanly and serve a silently wrong answer. The
    // scenario asserts zero requests fail and every answer is bit-exact,
    // i.e. zero silent corruption.
    transport_fault_scenario(FaultKind::CorruptPayload { every_frames: 1 }, 0x10C0_FFEE);
}

#[test]
fn uniformly_slow_link_is_absorbed_without_failover() {
    // A slow-but-correct link is NOT a fault: no failover, no breaker
    // trips, no health demotion — just latency. Guards against the ping
    // probe misclassifying slowness as death.
    let engine = engine_with_seed(44);
    let replica_a = quick_replica(&engine);
    let proxy = FaultProxy::spawn(
        replica_a.addr(),
        FaultKind::Delay(Duration::from_millis(5)),
        0x51,
    )
    .unwrap();
    let router = router_over(
        vec![proxy.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_secs(5),
            probe_timeout: Duration::from_secs(2),
            ..RouterOptions::default()
        },
    );

    let (mut writer, mut reader) = connect(router.addr());
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 0..5);

    let stats = router.stats();
    assert_eq!(stats.requests, 5);
    assert_eq!(
        stats.failovers, 0,
        "slowness must not trigger failover: {stats}"
    );
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.backends[0].breaker_trips, 0);

    drop(writer);
    drop(reader);
    router.shutdown();
    proxy.shutdown();
    replica_a.shutdown();
}

#[test]
fn slow_replica_answers_deadline_exceeded_not_silence() {
    // A replica whose compute outlasts the request's budget must answer a
    // typed DEADLINE_EXCEEDED (and count it), while budget-free requests on
    // the same connection still get real answers.
    let engine = engine_with_seed(44);
    let handle = replica(
        &engine,
        ServerOptions {
            workers: 1,
            compute_delay: Duration::from_millis(200),
            ..ServerOptions::default()
        },
    );

    let (mut writer, mut reader) = connect(handle.addr());
    // 50 ms budget against a 200 ms compute: expired before compute starts.
    write_request_v3(&mut writer, 1, 0, 50, [1, 4, 4], test_image(1).as_slice()).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("typed reply")
    {
        Response::Err { id, code, message } => {
            assert_eq!(id, 1);
            assert_eq!(code, ErrorCode::DeadlineExceeded, "{message}");
            assert!(code.is_retriable());
        }
        other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
    }
    // No deadline: slow is fine.
    write_request_v3(&mut writer, 2, 0, 0, [1, 4, 4], test_image(2).as_slice()).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("reply")
    {
        Response::Ok { id, logits, .. } => {
            assert_eq!(id, 2);
            assert_eq!(logits, expect_logits(&engine, 2));
        }
        other => panic!("expected Ok, got {other:?}"),
    }

    let report = handle.metrics().report();
    assert_eq!(report.expired, 1, "the expiry must be counted: {report}");
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    assert_eq!(report.shed, 0);

    drop(writer);
    drop(reader);
    handle.shutdown();
}

#[test]
fn router_bounds_a_deadline_request_against_a_slow_replica() {
    // Through the router, a deadline-bearing request against a too-slow
    // replica comes back as a typed DEADLINE_EXCEEDED within (roughly) its
    // own budget — the router's per-exchange read timeout shrinks to the
    // remaining budget, and an expired request is never retried.
    let engine = engine_with_seed(44);
    let handle = replica(
        &engine,
        ServerOptions {
            workers: 1,
            compute_delay: Duration::from_millis(400),
            ..ServerOptions::default()
        },
    );
    let router = router_over(
        vec![handle.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_secs(2),
            ..RouterOptions::default()
        },
    );

    let (mut writer, mut reader) = connect(router.addr());
    let started = std::time::Instant::now();
    write_request_v3(&mut writer, 1, 0, 100, [1, 4, 4], test_image(1).as_slice()).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("typed reply")
    {
        Response::Err { id, code, .. } => {
            assert_eq!(id, 1);
            assert_eq!(code, ErrorCode::DeadlineExceeded);
        }
        other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(1500),
        "the reply must be bounded by the deadline, not the replica's pace"
    );
    // A budget-free request on the same connection still gets the answer.
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 2..3);

    let stats = router.stats();
    assert_eq!(stats.expired, 1, "{stats}");
    assert_eq!(
        stats.failed, 0,
        "an expiry is not a routing failure: {stats}"
    );

    drop(writer);
    drop(reader);
    router.shutdown();
    handle.shutdown();
}

#[test]
fn overload_sheds_typed_errors_and_loses_nothing() {
    // Queue cap 1, one slow worker, a pipelined burst: the server must
    // answer *every* request — a real result or a typed OVERLOADED — and
    // count the sheds. Nothing may be dropped on the floor.
    let engine = engine_with_seed(44);
    let handle = replica(
        &engine,
        ServerOptions {
            max_queue: 1,
            workers: 1,
            compute_delay: Duration::from_millis(40),
            ..ServerOptions::default()
        },
    );

    const BURST: u64 = 16;
    let (mut writer, mut reader) = connect(handle.addr());
    let image = test_image(3);
    for id in 0..BURST {
        write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice()).unwrap();
    }
    let expected = expect_logits(&engine, 3);
    let mut oks = 0u64;
    let mut sheds = 0u64;
    for _ in 0..BURST {
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("every request answered")
        {
            Response::Ok { logits, .. } => {
                assert_eq!(logits, expected, "accepted requests stay bit-exact");
                oks += 1;
            }
            Response::Err { code, message, .. } => {
                assert_eq!(code, ErrorCode::Overloaded, "{message}");
                assert!(code.is_retriable());
                sheds += 1;
            }
        }
    }
    assert_eq!(oks + sheds, BURST, "zero silent loss under overload");
    assert!(oks >= 1, "the worker must serve the admitted requests");
    assert!(sheds >= 1, "a 16-deep burst into a 1-deep queue must shed");

    let report = handle.metrics().report();
    assert_eq!(report.shed, sheds, "{report}");
    assert_eq!(report.completed, oks);
    assert_eq!(report.failed, 0);

    drop(writer);
    drop(reader);
    handle.shutdown();
}

#[test]
fn hedged_request_wins_on_a_slow_replica() {
    // Replica A answers correctly but ~200 ms late (a degraded-but-alive
    // replica: no transport failure, so failover never fires). With hedging
    // on, a request parked on A is re-sent to fast replica B after the
    // hedge delay; B's answer wins, A's late answer is cancelled by being
    // ignored, and the client sees low latency with a bit-exact result.
    let engine = engine_with_seed(44);
    let replica_a = quick_replica(&engine);
    let replica_b = quick_replica(&engine);
    let proxy = FaultProxy::spawn(
        replica_a.addr(),
        FaultKind::Delay(Duration::from_millis(200)),
        0x4ED6E,
    )
    .unwrap();
    let router = router_over(
        vec![proxy.addr(), replica_b.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(1),
            retry_budget: 32,
            hedge: true,
            hedge_delay: Duration::from_millis(30),
            ..RouterOptions::default()
        },
    );

    let (mut writer, mut reader) = connect(router.addr());
    // Least-loaded routing ties toward backend 0 (the slow one), so every
    // sequential request parks on A first and must be rescued by its hedge.
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 0..10);

    let stats = router.stats();
    assert_eq!(stats.requests, 10);
    assert_eq!(stats.failed, 0, "hedging must not fail requests: {stats}");
    assert_eq!(stats.expired, 0);
    assert_eq!(
        stats.failovers, 0,
        "a slow-but-correct replica is not a failover: {stats}"
    );
    assert!(stats.hedges >= 1, "hedges must fire: {stats}");
    assert!(
        stats.hedge_wins >= 1,
        "the fast replica's answer must win at least once: {stats}"
    );
    assert!(
        stats.backends[1].forwarded >= 1,
        "hedge wins land on replica B: {stats}"
    );

    drop(writer);
    drop(reader);
    router.shutdown();
    proxy.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn hedging_beats_failover_only_on_a_slow_replica() {
    // The acceptance case for hedging: same degraded topology (A slow but
    // correct, B fast), measured twice. Failover-only leaves every request
    // waiting out A's full delay — slowness is not a failure, so nothing
    // ever fails over. Hedging cuts the wait to roughly the hedge delay.
    let engine = engine_with_seed(44);
    let replica_a = quick_replica(&engine);
    let replica_b = quick_replica(&engine);
    let proxy = FaultProxy::spawn(
        replica_a.addr(),
        FaultKind::Delay(Duration::from_millis(200)),
        0xAB5_1DE,
    )
    .unwrap();
    let common = RouterOptions {
        health_interval: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(500),
        exchange_timeout: Duration::from_secs(2),
        probe_timeout: Duration::from_secs(1),
        retry_budget: 32,
        hedge_delay: Duration::from_millis(30),
        ..RouterOptions::default()
    };
    let mean_latency = |options: RouterOptions| {
        let router = router_over(vec![proxy.addr(), replica_b.addr()], options);
        let (mut writer, mut reader) = connect(router.addr());
        let started = std::time::Instant::now();
        assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 0..6);
        let elapsed = started.elapsed();
        let stats = router.stats();
        assert_eq!(stats.failed, 0, "{stats}");
        drop(writer);
        drop(reader);
        router.shutdown();
        elapsed / 6
    };

    let unhedged = mean_latency(RouterOptions {
        hedge: false,
        ..common
    });
    let hedged = mean_latency(RouterOptions {
        hedge: true,
        ..common
    });
    // ~200 ms vs ~30-40 ms leaves a wide margin; 3x absorbs scheduler noise.
    assert!(
        hedged * 3 < unhedged,
        "hedging must beat failover-only on a slow replica: hedged {hedged:?} vs unhedged {unhedged:?}"
    );

    proxy.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn breaker_trips_on_faults_and_recovers_when_they_clear() {
    // Single replica behind a stall proxy: the first faulted exchange trips
    // the threshold-1 breaker (the client sees a typed retriable error, not
    // a hang); once the fault clears and the cooldown elapses, the
    // half-open probe request closes the breaker and service resumes.
    let engine = engine_with_seed(44);
    let replica_a = quick_replica(&engine);
    let proxy = FaultProxy::spawn(
        replica_a.addr(),
        FaultKind::Stall {
            after: 0,
            limit: Duration::from_millis(400),
        },
        0x7219,
    )
    .unwrap();
    proxy.set_enabled(false);
    let router = router_over(
        vec![proxy.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(1),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(300),
            ..RouterOptions::default()
        },
    );

    let (mut writer, mut reader) = connect(router.addr());
    // Healthy warm-up pools a connection and marks the backend up.
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 0..1);

    // Fault on: the lone backend stalls, trips the breaker, and the client
    // gets a typed retriable refusal.
    proxy.set_enabled(true);
    write_request_v3(&mut writer, 1, 0, 0, [1, 4, 4], test_image(1).as_slice()).unwrap();
    match read_frame(&mut reader, decode_response)
        .unwrap()
        .expect("typed reply")
    {
        Response::Err { id, code, message } => {
            assert_eq!(id, 1);
            assert_eq!(code, ErrorCode::Overloaded, "{message}");
            assert!(code.is_retriable());
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let stats = router.stats();
    assert_eq!(stats.backends[0].breaker_trips, 1, "{stats}");
    assert!(stats.backends[0].breaker_open, "{stats}");
    assert_eq!(stats.failed, 1);

    // Fault off; wait out the cooldown (and a probe cycle restoring the
    // health flag). The next request is the half-open trial and must both
    // succeed and close the breaker.
    proxy.set_enabled(false);
    std::thread::sleep(Duration::from_millis(700));
    assert_all_ok_bit_exact(&mut writer, &mut reader, &engine, 2..4);

    let stats = router.stats();
    assert_eq!(
        stats.backends[0].breaker_trips, 1,
        "recovery must not re-trip: {stats}"
    );
    assert!(
        !stats.backends[0].breaker_open,
        "a successful half-open trial must close the breaker: {stats}"
    );
    assert_eq!(stats.failed, 1, "no new failures after recovery: {stats}");

    drop(writer);
    drop(reader);
    router.shutdown();
    proxy.shutdown();
    replica_a.shutdown();
}

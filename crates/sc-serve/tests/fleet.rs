//! Fleet-operations integration tests: the zero-downtime story end to end.
//!
//! * **Rolling upgrade** — two replicas cold-started from the compiled plan
//!   store behind a hedging router; each replica in sequence is drained via
//!   an admin frame, stopped, cold-started again from the store on the
//!   *same* address (`bind_reusable` reclaims it through `TIME_WAIT`), and
//!   rejoins. Sustained client load runs throughout; the
//!   test demands zero failed and zero silently-lost requests, every answer
//!   bit-exact with the originally compiled engines.
//! * **SIGKILL chaos** — a replica process (the real `serve` binary, booted
//!   with `--load-plan`) is killed mid-load with an uncatchable signal. All
//!   requests must still be answered bit-exact via failover, and the dead
//!   backend's circuit breaker must trip exactly once.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::Dense;
use sc_nn::lenet::PoolingStyle;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::plan::PlanOptions;
use sc_serve::plan_store::{load_plan, save_plan};
use sc_serve::proto::{
    decode_admin_response, decode_response, read_frame, write_admin, write_request_v3, AdminOp,
    Response,
};
use sc_serve::router::{spawn_router, RouterHandle, RouterOptions};
use sc_serve::server::{bind_reusable, spawn_multi, ServerHandle, ServerOptions};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small dense engine; different base seeds give bit-distinguishable
/// models.
fn engine_with_seed(base_seed: u64) -> Arc<Engine> {
    let mut network = Network::new("fleet-test");
    network.push(Box::new(Dense::new(16, 4, 3)));
    let config = ScNetworkConfig::new(
        "fleet-test",
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

/// Fresh per-test plan-store directory under the OS temp dir.
fn plan_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sc-fleet-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create plan dir");
    dir
}

/// Cold start: one engine per plan file, no lowering, no training.
fn cold_start_engines(paths: &[PathBuf]) -> Vec<Arc<Engine>> {
    paths
        .iter()
        .map(|path| {
            let loaded = load_plan(path).expect("load plan");
            let options = loaded.engine_options();
            Arc::new(Engine::from_plan(loaded.plan, options).expect("engine from plan"))
        })
        .collect()
}

fn replica_on(listener: TcpListener, engines: Vec<Arc<Engine>>) -> ServerHandle {
    spawn_multi(
        engines,
        listener,
        ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
    )
    .unwrap()
}

/// Polls the router until backend `index` reports the wanted health state.
fn wait_backend_health(router: &RouterHandle, index: usize, healthy: bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if router.stats().backends[index].healthy == healthy {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "backend {index} never became healthy={healthy}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Rebinds a just-vacated replica address. `SO_REUSEADDR` sees through
/// `TIME_WAIT`; the retry loop only absorbs the window where the previous
/// incarnation's listener fd is still closing.
fn rebind(addr: SocketAddr) -> TcpListener {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match bind_reusable(addr) {
            Ok(listener) => return listener,
            Err(error) => {
                assert!(
                    Instant::now() < deadline,
                    "could not rebind {addr}: {error}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn rolling_upgrade_under_sustained_load_loses_no_request() {
    let dir = plan_dir("rolling");
    let compiled = [engine_with_seed(44), engine_with_seed(77)];
    let paths: Vec<PathBuf> = compiled
        .iter()
        .enumerate()
        .map(|(model, engine)| {
            let path = dir.join(format!("model-{model}.scp"));
            save_plan(&path, engine.plan(), engine.options().plan.base_seed).unwrap();
            path
        })
        .collect();

    // The store round trip must be bit-exact with the freshly compiled
    // engines — the rolling upgrade below silently depends on it.
    let image = test_image(1);
    let expected: Vec<Vec<f64>> = compiled
        .iter()
        .map(|engine| {
            engine
                .infer(&mut engine.new_session(), &image)
                .unwrap()
                .logits
        })
        .collect();
    for (model, engine) in cold_start_engines(&paths).iter().enumerate() {
        assert_eq!(
            engine
                .infer(&mut engine.new_session(), &image)
                .unwrap()
                .logits,
            expected[model],
            "plan-store cold start must be bit-exact with compile"
        );
    }

    let mut replicas: Vec<Option<ServerHandle>> = (0..2)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            Some(replica_on(listener, cold_start_engines(&paths)))
        })
        .collect();
    let addrs: Vec<SocketAddr> = replicas
        .iter()
        .map(|replica| replica.as_ref().unwrap().addr())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = spawn_router(
        listener,
        addrs.clone(),
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            hedge: true,
            // The breaker is deliberately out of the picture here (the
            // SIGKILL test owns it): a restart's burst of channel deaths
            // must not leave the rejoined replica in an open-breaker
            // shadow while the *other* replica drains.
            breaker_threshold: 100,
            retry_budget: 64,
            retry_refill: Duration::from_millis(10),
            max_attempts: 4,
            ..RouterOptions::default()
        },
    )
    .unwrap();
    let router_addr = router.addr();

    // Sustained closed-loop load, alternating models, until the upgrade
    // completes. Every response must be Ok and bit-exact — a refusal or a
    // hang anywhere in the drain/restart/rejoin cycle fails the test.
    let done = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..2u64)
        .map(|client| {
            let done = Arc::clone(&done);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(router_addr).expect("connect router");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let image = test_image(1);
                let mut sent = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let id = client * 1_000_000 + sent;
                    let model = (sent % 2) as u16;
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
                                "request {id} must stay bit-exact across the rolling upgrade"
                            );
                        }
                        Some(Response::Err { message, .. }) => {
                            panic!("request {id} errored during rolling upgrade: {message}")
                        }
                        None => panic!("router closed on request {id}"),
                    }
                    sent += 1;
                }
                sent
            })
        })
        .collect();

    // Let traffic establish, then upgrade each replica in sequence:
    // drain (admin frame) → router demotes it → stop → cold-start from the
    // plan store on the same address → router re-admits it.
    std::thread::sleep(Duration::from_millis(100));
    for index in 0..replicas.len() {
        let stream = TcpStream::connect(addrs[index]).expect("connect replica admin");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_admin(&mut writer, &AdminOp::Drain).expect("send drain");
        let response = read_frame(&mut BufReader::new(stream), decode_admin_response)
            .expect("drain reply")
            .expect("drain response");
        assert!(response.ok, "drain refused: {}", response.message);
        assert!(response.draining);
        assert!(
            response.generation >= 2,
            "drain must bump the registry generation"
        );
        assert_eq!(response.models, vec![0, 1]);

        wait_backend_health(&router, index, false);
        replicas[index].take().unwrap().shutdown();
        let listener = rebind(addrs[index]);
        replicas[index] = Some(replica_on(listener, cold_start_engines(&paths)));
        wait_backend_health(&router, index, true);
        // Overlap window: the rejoined replica takes traffic while its
        // peer is still up, as a real rolling upgrade would.
        std::thread::sleep(Duration::from_millis(100));
    }
    done.store(true, Ordering::Relaxed);

    let total: u64 = clients
        .into_iter()
        .map(|client| client.join().expect("client must finish with all answers"))
        .sum();
    assert!(total > 0, "the load loop never issued a request");
    let stats = router.stats();
    assert_eq!(stats.requests, total);
    assert_eq!(
        stats.failed, 0,
        "zero requests may fail across a rolling upgrade: {stats}"
    );
    // Zero *silent* loss: every issued request was answered by exactly one
    // replica (refusal arms and cancelled hedge losers don't count as
    // forwards).
    let forwarded: u64 = stats.backends.iter().map(|backend| backend.forwarded).sum();
    assert_eq!(
        forwarded, total,
        "every request must be answered exactly once: {stats}"
    );
    for backend in &stats.backends {
        assert!(
            backend.forwarded > 0,
            "both replicas must carry traffic: {stats}"
        );
        assert_eq!(
            backend.models,
            Some(vec![0, 1]),
            "the router must relearn the rejoined replica's model set"
        );
    }

    router.shutdown();
    for replica in replicas.into_iter().flatten() {
        replica.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boots the real `serve` binary from a plan-store file on an ephemeral
/// port and returns the child plus the address it printed. Stdout keeps
/// draining on a background thread so the child never blocks on a full
/// pipe.
fn spawn_serve_child(plan: &Path) -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--load-plan",
            plan.to_str().expect("plan path"),
            "--workers",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before listening")
            .expect("read serve stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest.split(' ').next().expect("addr token");
            break addr.parse().expect("listen addr");
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn sigkill_mid_load_loses_no_request_and_trips_the_breaker_once() {
    let dir = plan_dir("sigkill");
    let compiled = engine_with_seed(44);
    let plan_path = dir.join("model-0.scp");
    save_plan(
        &plan_path,
        compiled.plan(),
        compiled.options().plan.base_seed,
    )
    .unwrap();

    // Expected logits come from a local cold start of the same file — the
    // child processes must be bit-exact with it.
    let local = cold_start_engines(std::slice::from_ref(&plan_path));
    let image = test_image(1);
    let expected = local[0]
        .infer(&mut local[0].new_session(), &image)
        .unwrap()
        .logits;

    let (mut child_a, addr_a) = spawn_serve_child(&plan_path);
    let (mut child_b, addr_b) = spawn_serve_child(&plan_path);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = spawn_router(
        listener,
        vec![addr_a, addr_b],
        RouterOptions {
            // Slow probes on purpose: the kill must surface through the
            // *request* path (failed exchange → breaker trip → failover),
            // not get mopped up by a health check first.
            health_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_secs(10),
            // One failure trips; the 60s cooldown pins the breaker open
            // for the rest of the test, so the trip count is exact: the
            // open-state breaker no-ops further failures.
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            hedge: true,
            retry_budget: 64,
            retry_refill: Duration::from_millis(10),
            max_attempts: 4,
            ..RouterOptions::default()
        },
    )
    .unwrap();
    let router_addr = router.addr();

    const REQUESTS: u64 = 150;
    let answered = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..2u64)
        .map(|client| {
            let expected = expected.clone();
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(router_addr).expect("connect router");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let image = test_image(1);
                for request in 0..REQUESTS {
                    let id = client * 1_000_000 + request;
                    write_request_v3(&mut writer, id, 0, 0, [1, 4, 4], image.as_slice())
                        .expect("send through router");
                    match read_frame(&mut reader, decode_response).expect("router reply") {
                        Some(Response::Ok {
                            id: rid, logits, ..
                        }) => {
                            assert_eq!(rid, id);
                            assert_eq!(
                                logits, expected,
                                "request {id} must stay bit-exact across the kill"
                            );
                            answered.fetch_add(1, Ordering::SeqCst);
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

    // SIGKILL replica A mid-load: no drain, no graceful flush — its
    // in-flight exchanges die mid-write. The kill waits for a quarter of
    // the load to be answered rather than for a fixed time, so it lands
    // mid-load however fast the replicas answer.
    let deadline = Instant::now() + Duration::from_secs(30);
    while answered.load(Ordering::SeqCst) < REQUESTS / 2 {
        assert!(Instant::now() < deadline, "load never got going");
        std::thread::sleep(Duration::from_millis(1));
    }
    child_a.kill().expect("SIGKILL replica A");
    child_a.wait().expect("reap replica A");

    for client in clients {
        client.join().expect("client must finish with all answers");
    }
    let stats = router.stats();
    assert_eq!(stats.requests, 2 * REQUESTS);
    assert_eq!(
        stats.failed, 0,
        "no request may fail across a SIGKILL: {stats}"
    );
    let forwarded: u64 = stats.backends.iter().map(|backend| backend.forwarded).sum();
    assert_eq!(
        forwarded,
        2 * REQUESTS,
        "every request must be answered exactly once: {stats}"
    );
    assert_eq!(
        stats.backends[0].breaker_trips, 1,
        "the killed replica's breaker must trip exactly once: {stats}"
    );
    assert_eq!(
        stats.backends[1].breaker_trips, 0,
        "the surviving replica's breaker must stay closed: {stats}"
    );
    assert!(
        stats.backends[1].forwarded > 0,
        "replica B absorbed no traffic: {stats}"
    );

    router.shutdown();
    child_b.kill().expect("stop replica B");
    child_b.wait().expect("reap replica B");
    let _ = std::fs::remove_dir_all(&dir);
}

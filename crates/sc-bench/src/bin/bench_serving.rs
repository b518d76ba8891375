//! Serving-path benchmark: per-call interpreter vs compiled engine.
//!
//! Measures, on the reduced LeNet (`tiny_lenet`):
//!
//! * **interpreter single-request** throughput — the per-call evaluation
//!   path (every operand stream regenerated per block call), one request at
//!   a time. This is the pre-`sc-serve` baseline.
//! * **engine single-request** throughput — compiled plan, pre-generated
//!   weight streams, warm stream cache, and the layer-fused path: shared
//!   operand streams, reusable MUX selector plans, shared-input APC
//!   popcounts, batched activation walks.
//! * **engine + unit fan-out** latency — the same engine with session unit
//!   fan-out on (the default), measuring single-request latency when one
//!   request's units spread across `sc_core::parallel` workers (equals the
//!   serial number on a single-core box; `threads` records the budget).
//! * **engine batched** throughput — the fused engine fed request-by-request
//!   through a warm session, the shape the serving runtime uses
//!   (per-request latency percentiles are recorded from this run).
//!
//! Bit-exactness (fused engine vs interpreter) is verified before anything
//! is timed. Results land in `BENCH_serving.json` at the repo root.
//!
//! A **router / multi-model** phase additionally measures the scale-out
//! path: two replica servers, each hosting `--models` compiled engines
//! behind one listener, fronted by the replica router; closed-loop clients
//! drive traffic across all models through the router while one
//! replica is killed mid-load. The phase asserts zero failed requests and
//! bit-exact responses before recording throughput, and runs on full
//! (recording) runs or when `--router` is passed.
//!
//! A **concurrency** phase (same gating) walks a closed-loop connection
//! ladder (64 → 256 → 1024 connections on full runs) through the hedged
//! router over two replicas — the event-loop scalability measurement. Zero
//! lost requests and bit-exact answers are asserted at every rung before
//! throughput, latency percentiles, and the hedge rate are recorded.
//!
//! An **overload** phase (same gating) bursts a pipelined load into one
//! worker behind a depth-capped queue and records the shed rate and the
//! accepted requests' tail latency, asserting zero silent losses: every
//! offered request is answered — bit-exact or a typed `OVERLOADED`.
//!
//! A **cold-start** phase (same gating) times the two replica boot paths to
//! a serving-ready engine: the storeless path (`serve --config`: train the
//! network, then lower + compile) against the plan-store path (`serve
//! --load-plan`: deserialize + deterministic weight-stream regeneration).
//! Bit-exactness between the two engines is asserted before recording.
//!
//! Run with: `cargo run --release -p sc-bench --bin bench_serving`
//! (`--quick` shrinks stream lengths and request counts for CI smoke runs;
//! `--verify` additionally re-checks every fused inference against the
//! interpreter while it is being timed; `--config no1|apc|all` restricts
//! which layer mixes run — the CI smoke jobs run `--quick --verify` and
//! `--quick --verify --config apc`; `--allocs` prints the per-run arena
//! reuse statistics; `--router` forces the router phase, `--models N` sets
//! how many engines each replica hosts).

use sc_blocks::feature_block::FeatureBlockKind;
use sc_core::cache::CacheStats;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::dataset::SyntheticDigits;
use sc_nn::lenet::{tiny_lenet, PoolingStyle};
use sc_nn::network::TrainingOptions;
use sc_nn::tensor::Tensor;
use sc_serve::batch::BatchPolicy;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::interpreter::Inference;
use sc_serve::plan_store::{load_plan, save_plan};
use sc_serve::proto::{decode_response, read_frame, write_request_v3, Response};
use sc_serve::router::{spawn_router, RouterOptions};
use sc_serve::server::{spawn_multi, ServerHandle, ServerOptions};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ServingRun {
    name: String,
    layer_summary: String,
    stream_length: usize,
    interpreter_requests: usize,
    batched_requests: usize,
    interpreter_rps: f64,
    engine_single_rps: f64,
    parallel_single_latency_ms: f64,
    parallel_threads: usize,
    engine_batched_rps: f64,
    batched_p50_ms: f64,
    batched_p95_ms: f64,
    batched_p99_ms: f64,
    cache_hit_rate: f64,
    /// Arena counters of the batched-phase session after its warm-up
    /// request, aggregated over fan-out worker sessions.
    warm_arena: sc_core::ArenaStats,
    /// The same counters at the end of the run: the alloc deltas are the
    /// steady-state allocations (zero when the arena pool covers the load).
    final_arena: sc_core::ArenaStats,
}

impl ServingRun {
    fn speedup_single(&self) -> f64 {
        self.engine_single_rps / self.interpreter_rps
    }

    fn speedup_batched(&self) -> f64 {
        self.engine_batched_rps / self.interpreter_rps
    }

    /// Stream-buffer allocations after the warm-up request (zero in steady
    /// state: every buffer comes from the arena pool).
    fn steady_stream_allocs(&self) -> u64 {
        self.final_arena.stream_allocs - self.warm_arena.stream_allocs
    }

    /// Count-buffer allocations after the warm-up request.
    fn steady_count_allocs(&self) -> u64 {
        self.final_arena.count_allocs - self.warm_arena.count_allocs
    }

    /// Fraction of stream-buffer requests served from the arena pool over
    /// the whole batched phase (warm-up included).
    fn stream_reuse_rate(&self) -> f64 {
        let total = self.final_arena.stream_reuses + self.final_arena.stream_allocs;
        if total == 0 {
            0.0
        } else {
            self.final_arena.stream_reuses as f64 / total as f64
        }
    }
}

/// Nearest-rank percentile over ascending samples (indexing shared with the
/// serving metrics so the logic exists exactly once).
fn percentile(sorted: &[f64], percentile: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sc_serve::metrics::nearest_rank_index(sorted.len(), percentile)]
}

fn bench_config(
    name: &str,
    kinds: Vec<FeatureBlockKind>,
    stream_length: usize,
    interpreter_requests: usize,
    batched_requests: usize,
    verify_every_inference: bool,
) -> ServingRun {
    let config = ScNetworkConfig::new(name, kinds, stream_length, PoolingStyle::Max);
    let network = tiny_lenet(17);
    // With `--verify`, every inference of the run re-checks itself against
    // the per-call interpreter (the CI smoke configuration).
    let engine = Engine::compile(
        &network,
        &config,
        EngineOptions {
            verify_against_interpreter: verify_every_inference,
            ..EngineOptions::default()
        },
    )
    .expect("engine compiles");
    let data = SyntheticDigits::generate(2, 23);
    let images: Vec<Tensor> = data
        .train_images
        .iter()
        .cycle()
        .take(batched_requests.max(interpreter_requests))
        .cloned()
        .collect();

    // Prove bit-exactness against the interpreter before timing anything.
    engine
        .verify(&mut engine.new_session(), &images[..1])
        .expect("fused engine must match the interpreter bit-for-bit");

    // Interpreter, one request at a time (the pre-serving baseline).
    let interpreter = engine.interpreter();
    let start = Instant::now();
    let mut interpreter_results: Vec<Inference> = Vec::new();
    for image in &images[..interpreter_requests] {
        interpreter_results.push(interpreter.infer(image).expect("interpreter inference"));
    }
    let interpreter_rps = interpreter_requests as f64 / start.elapsed().as_secs_f64();

    // Fused engine, serial units, one request at a time, warm session. The
    // cache counters of every fused-engine session (each aggregated over its
    // fan-out workers) merge into one bench-wide hit rate.
    let mut cache_totals = CacheStats::default();
    sc_core::parallel::set_thread_limit(1);
    let mut session = engine.new_session();
    let start = Instant::now();
    for image in &images[..interpreter_requests] {
        let result = engine.infer(&mut session, image).expect("engine inference");
        std::hint::black_box(result);
    }
    let engine_single_rps = interpreter_requests as f64 / start.elapsed().as_secs_f64();
    sc_core::parallel::set_thread_limit(0);
    cache_totals.merge(&session.cache_stats());

    // Fused engine with single-request unit fan-out: median latency of one
    // request when its layer units spread across all available workers. The
    // session (and its pool of warm fan-out worker sessions) persists
    // across requests, matching the warm-session regime of the serial
    // number above so the two are comparable.
    let parallel_threads = sc_core::parallel::max_threads();
    let mut fan_session = engine.new_session();
    let mut parallel_latencies_ms: Vec<f64> = Vec::with_capacity(interpreter_requests);
    for image in &images[..interpreter_requests] {
        let begin = Instant::now();
        let result = engine
            .infer(&mut fan_session, image)
            .expect("engine inference");
        parallel_latencies_ms.push(begin.elapsed().as_secs_f64() * 1000.0);
        std::hint::black_box(result);
    }
    parallel_latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let parallel_single_latency_ms = percentile(&parallel_latencies_ms, 50.0);
    cache_totals.merge(&fan_session.cache_stats());

    // Fused + batched: warm session, per-request latencies recorded. The
    // arena counters are snapshotted after the first (warm-up) request; the
    // steady-state alloc delta over the remaining requests should be zero.
    let mut session = engine.new_session();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(batched_requests);
    let mut warm_arena = sc_core::ArenaStats::default();
    let start = Instant::now();
    for (i, image) in images[..batched_requests].iter().enumerate() {
        let begin = Instant::now();
        let result = engine.infer(&mut session, image).expect("engine inference");
        latencies_ms.push(begin.elapsed().as_secs_f64() * 1000.0);
        std::hint::black_box(result);
        if i == 0 {
            warm_arena = session.arena_stats();
        }
    }
    let batched_elapsed = start.elapsed().as_secs_f64();
    let engine_batched_rps = batched_requests as f64 / batched_elapsed;
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let final_arena = session.arena_stats();
    cache_totals.merge(&session.cache_stats());
    let cache_hit_rate = if cache_totals.hits + cache_totals.misses == 0 {
        0.0
    } else {
        cache_totals.hits as f64 / (cache_totals.hits + cache_totals.misses) as f64
    };

    ServingRun {
        name: name.to_string(),
        layer_summary: config.layer_summary(),
        stream_length,
        interpreter_requests,
        batched_requests,
        interpreter_rps,
        engine_single_rps,
        parallel_single_latency_ms,
        parallel_threads,
        engine_batched_rps,
        batched_p50_ms: percentile(&latencies_ms, 50.0),
        batched_p95_ms: percentile(&latencies_ms, 95.0),
        batched_p99_ms: percentile(&latencies_ms, 99.0),
        cache_hit_rate,
        warm_arena,
        final_arena,
    }
}

/// Result of the router / multi-model serving phase.
struct RouterBenchRun {
    model_names: Vec<String>,
    stream_length: usize,
    clients: usize,
    total_requests: usize,
    router_rps: f64,
    client_p50_ms: f64,
    client_p95_ms: f64,
    failovers: u64,
    failed: u64,
    replica_forwarded: Vec<u64>,
    /// Per-stage latency percentiles, merged across both replicas' stage
    /// histograms (the log-linear histograms are mergeable by design — this
    /// is the fleet-wide view a scraper would compute).
    stage_queue_p50_ms: f64,
    stage_queue_p99_ms: f64,
    stage_compute_p50_ms: f64,
    stage_compute_p99_ms: f64,
}

/// Two multi-model replicas behind the router, driven closed-loop across
/// every model while replica A is killed mid-load. Bit-exactness against
/// direct engine inference and zero failed requests are *asserted* — a
/// recording only exists for runs that survived the kill cleanly.
fn bench_router(
    models: usize,
    stream_length: usize,
    clients: usize,
    requests_per_client: usize,
) -> RouterBenchRun {
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let palette: [(&str, Vec<FeatureBlockKind>); 3] = [
        (
            "no1_style",
            vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        ),
        ("apc_max", vec![ApcMaxBtanh; 4]),
        ("mux_max", vec![MuxMaxStanh; 4]),
    ];
    let models = models.clamp(1, palette.len());
    let network = tiny_lenet(17);
    let engines: Vec<Arc<Engine>> = palette[..models]
        .iter()
        .map(|(name, kinds)| {
            let config =
                ScNetworkConfig::new(*name, kinds.clone(), stream_length, PoolingStyle::Max);
            Arc::new(
                Engine::compile(&network, &config, EngineOptions::default())
                    .expect("engine compiles"),
            )
        })
        .collect();
    let model_names: Vec<String> = palette[..models]
        .iter()
        .map(|(name, _)| (*name).to_string())
        .collect();

    let replica = |engines: &[Arc<Engine>]| -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
        spawn_multi(
            engines.to_vec(),
            listener,
            ServerOptions {
                policy: BatchPolicy {
                    max_batch: 16,
                    max_linger: Duration::from_millis(2),
                    ..BatchPolicy::default()
                },
                workers: 0,
                ..ServerOptions::default()
            },
        )
        .expect("spawn replica")
    };
    let replica_a = replica(&engines);
    let replica_b = replica(&engines);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router = spawn_router(
        listener,
        vec![replica_a.addr(), replica_b.addr()],
        RouterOptions {
            health_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            ..RouterOptions::default()
        },
    )
    .expect("spawn router");
    let addr = router.addr();

    let data = SyntheticDigits::generate(1, 5);
    let image = data.train_images[0].clone();
    let expected: Vec<Vec<f64>> = engines
        .iter()
        .map(|engine| {
            engine
                .infer(&mut engine.new_session(), &image)
                .expect("direct inference")
                .logits
        })
        .collect();

    let completed = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let image = image.clone();
            let expected = expected.clone();
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect router");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("read timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut latencies_ms = Vec::with_capacity(requests_per_client);
                for request in 0..requests_per_client {
                    let id = (client * requests_per_client + request) as u64;
                    let model = (request % expected.len()) as u16;
                    let sent = Instant::now();
                    write_request_v3(&mut writer, id, model, 0, [1, 28, 28], image.as_slice())
                        .expect("send");
                    match read_frame(&mut reader, decode_response).expect("recv") {
                        Some(Response::Ok {
                            id: rid, logits, ..
                        }) => {
                            assert_eq!(rid, id);
                            assert_eq!(
                                logits,
                                expected[usize::from(model)],
                                "routed request {id} must be bit-exact"
                            );
                        }
                        Some(Response::Err { message, .. }) => {
                            panic!("routed request {id} failed: {message}")
                        }
                        None => panic!("router closed on request {id}"),
                    }
                    latencies_ms.push(sent.elapsed().as_secs_f64() * 1000.0);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                latencies_ms
            })
        })
        .collect();

    // Stage histograms outlive the handles (shared `Arc<Metrics>`), so the
    // killed replica's spans still count toward the merged view.
    let replica_metrics = [replica_a.metrics(), replica_b.metrics()];

    // Kill replica A once every client has at least one answered request.
    while completed.load(Ordering::Relaxed) < clients {
        std::thread::sleep(Duration::from_millis(2));
    }
    replica_a.shutdown();

    let mut latencies_ms: Vec<f64> = threads
        .into_iter()
        .flat_map(|thread| thread.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let stats = router.stats();
    let total_requests = clients * requests_per_client;
    assert_eq!(
        stats.failed, 0,
        "router phase must lose no request: {stats}"
    );
    assert_eq!(stats.requests, total_requests as u64);
    let replica_forwarded = stats.backends.iter().map(|b| b.forwarded).collect();
    router.shutdown();
    replica_b.shutdown();

    // Fleet-wide per-stage percentiles: merge both replicas' histograms the
    // way a scraper aggregating worker endpoints would.
    use sc_serve::metrics::Stage;
    let merged_queue = sc_core::LogHistogram::new();
    let merged_compute = sc_core::LogHistogram::new();
    for metrics in &replica_metrics {
        merged_queue.merge(metrics.stages().get(Stage::QueueWait));
        merged_compute.merge(metrics.stages().get(Stage::Compute));
    }
    let ms = |hist: &sc_core::LogHistogram, p: f64| hist.value_at_percentile(p) as f64 / 1000.0;

    RouterBenchRun {
        model_names,
        stream_length,
        clients,
        total_requests,
        router_rps: total_requests as f64 / wall,
        client_p50_ms: percentile(&latencies_ms, 50.0),
        client_p95_ms: percentile(&latencies_ms, 95.0),
        failovers: stats.failovers,
        failed: stats.failed,
        replica_forwarded,
        stage_queue_p50_ms: ms(&merged_queue, 50.0),
        stage_queue_p99_ms: ms(&merged_queue, 99.0),
        stage_compute_p50_ms: ms(&merged_compute, 50.0),
        stage_compute_p99_ms: ms(&merged_compute, 99.0),
    }
}

/// Result of one rung of the concurrency ladder: N closed-loop connections
/// through the (hedged) router.
struct ConcurrencyBenchRun {
    connections: usize,
    total_requests: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    hedges: u64,
    hedge_wins: u64,
    failed: u64,
}

impl ConcurrencyBenchRun {
    fn hedge_rate(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.hedges as f64 / self.total_requests as f64
        }
    }
}

/// Drives `connections` concurrent closed-loop clients through a hedged
/// router over two replicas — the event-loop scalability measurement. Every
/// request must be answered `Ok` and bit-exact (asserted), so a recording
/// implies zero lost requests at every rung of the ladder.
fn bench_concurrency(stream_length: usize, ladder: &[(usize, usize)]) -> Vec<ConcurrencyBenchRun> {
    use FeatureBlockKind::ApcMaxBtanh;
    let config = ScNetworkConfig::new(
        "concurrency",
        vec![ApcMaxBtanh; 4],
        stream_length,
        PoolingStyle::Max,
    );
    let network = tiny_lenet(17);
    let engine = Arc::new(
        Engine::compile(&network, &config, EngineOptions::default()).expect("engine compiles"),
    );
    let replica = || -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
        spawn_multi(
            vec![Arc::clone(&engine)],
            listener,
            ServerOptions {
                policy: BatchPolicy {
                    max_batch: 16,
                    max_linger: Duration::from_millis(2),
                    // Headroom over the deepest rung: a closed-loop client
                    // holds one request in flight, so the queue never sees
                    // more than `connections` — sheds would dirty the
                    // zero-lost-requests contract.
                    max_queue: 4096,
                },
                workers: 0,
                ..ServerOptions::default()
            },
        )
        .expect("spawn replica")
    };
    let replica_a = replica();
    let replica_b = replica();

    let data = SyntheticDigits::generate(1, 5);
    let image = data.train_images[0].clone();
    let expected = engine
        .infer(&mut engine.new_session(), &image)
        .expect("direct inference")
        .logits;

    let runs: Vec<ConcurrencyBenchRun> = ladder
        .iter()
        .map(|&(connections, per_connection)| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
            let router = spawn_router(
                listener,
                vec![replica_a.addr(), replica_b.addr()],
                RouterOptions {
                    health_interval: Duration::from_millis(100),
                    connect_timeout: Duration::from_secs(2),
                    exchange_timeout: Duration::from_secs(120),
                    hedge: true,
                    hedge_delay: Duration::from_millis(50),
                    ..RouterOptions::default()
                },
            )
            .expect("spawn router");
            let addr = router.addr();
            let start = Instant::now();
            let threads: Vec<_> = (0..connections)
                .map(|client| {
                    let image = image.clone();
                    let expected = expected.clone();
                    // Small stacks: at 1024 connections the default 8 MiB
                    // per thread is pure waste for a socket-bound loop.
                    std::thread::Builder::new()
                        .stack_size(128 * 1024)
                        .spawn(move || {
                            // The connect storm can overrun the listen
                            // backlog; retry instead of failing the rung.
                            let stream = (0..10)
                                .find_map(|_| {
                                    TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()
                                })
                                .expect("connect router");
                            stream
                                .set_read_timeout(Some(Duration::from_secs(300)))
                                .expect("read timeout");
                            let mut writer = stream.try_clone().expect("clone");
                            let mut reader = BufReader::new(stream);
                            let mut latencies_ms = Vec::with_capacity(per_connection);
                            for request in 0..per_connection {
                                let id = (client * per_connection + request) as u64;
                                let sent = Instant::now();
                                write_request_v3(
                                    &mut writer,
                                    id,
                                    0,
                                    0,
                                    [1, 28, 28],
                                    image.as_slice(),
                                )
                                .expect("send");
                                match read_frame(&mut reader, decode_response).expect("recv") {
                                    Some(Response::Ok {
                                        id: rid, logits, ..
                                    }) => {
                                        assert_eq!(rid, id);
                                        assert_eq!(
                                            logits, expected,
                                            "request {id} must stay bit-exact at scale"
                                        );
                                    }
                                    Some(Response::Err { message, .. }) => {
                                        panic!("request {id} failed: {message}")
                                    }
                                    None => panic!("router closed on request {id}"),
                                }
                                latencies_ms.push(sent.elapsed().as_secs_f64() * 1000.0);
                            }
                            latencies_ms
                        })
                        .expect("spawn load thread")
                })
                .collect();
            let mut latencies_ms: Vec<f64> = threads
                .into_iter()
                .flat_map(|thread| thread.join().expect("load thread"))
                .collect();
            let wall = start.elapsed().as_secs_f64();
            latencies_ms.sort_by(|a, b| a.total_cmp(b));
            let stats = router.stats();
            let total_requests = connections * per_connection;
            assert_eq!(
                stats.failed, 0,
                "{connections}-connection rung must lose nothing: {stats}"
            );
            assert_eq!(stats.requests, total_requests as u64);
            router.shutdown();
            ConcurrencyBenchRun {
                connections,
                total_requests,
                rps: total_requests as f64 / wall,
                p50_ms: percentile(&latencies_ms, 50.0),
                p99_ms: percentile(&latencies_ms, 99.0),
                hedges: stats.hedges,
                hedge_wins: stats.hedge_wins,
                failed: stats.failed,
            }
        })
        .collect();
    replica_a.shutdown();
    replica_b.shutdown();
    runs
}

/// Result of the overload phase: a pipelined burst into a depth-capped
/// queue, measuring what admission control sheds and what the accepted
/// traffic's tail latency looks like *while* shedding.
struct OverloadBenchRun {
    stream_length: usize,
    offered: u64,
    accepted: u64,
    shed: u64,
    accepted_p50_ms: f64,
    accepted_p99_ms: f64,
}

impl OverloadBenchRun {
    fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// One replica with a single worker and a shallow queue, hit with a
/// pipelined burst far beyond its capacity. Asserts zero silent losses
/// (every offered request is answered — a result or a typed `OVERLOADED`)
/// before recording shed rate and the accepted requests' latency tail.
fn bench_overload(stream_length: usize, offered: u64) -> OverloadBenchRun {
    use FeatureBlockKind::ApcMaxBtanh;
    let config = ScNetworkConfig::new(
        "overload",
        vec![ApcMaxBtanh; 4],
        stream_length,
        PoolingStyle::Max,
    );
    let network = tiny_lenet(17);
    let engine = Arc::new(
        Engine::compile(&network, &config, EngineOptions::default()).expect("engine compiles"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind overload replica");
    let handle = spawn_multi(
        vec![Arc::clone(&engine)],
        listener,
        ServerOptions {
            policy: BatchPolicy {
                max_batch: 1,
                max_linger: Duration::from_millis(1),
                // Shallow queue: depth is latency, so overload protection
                // sheds early instead of building a backlog.
                max_queue: 4,
            },
            workers: 1,
            ..ServerOptions::default()
        },
    )
    .expect("spawn overload replica");

    let data = SyntheticDigits::generate(1, 5);
    let image = data.train_images[0].clone();
    let expected = engine
        .infer(&mut engine.new_session(), &image)
        .expect("direct inference")
        .logits;

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // Pipeline the whole burst, then drain every reply.
    for id in 0..offered {
        write_request_v3(&mut writer, id, 0, 0, [1, 28, 28], image.as_slice()).expect("send");
    }
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for _ in 0..offered {
        match read_frame(&mut reader, decode_response).expect("recv") {
            Some(Response::Ok { logits, .. }) => {
                assert_eq!(logits, expected, "accepted requests must stay bit-exact");
                accepted += 1;
            }
            Some(Response::Err { code, message, .. }) => {
                assert_eq!(
                    code,
                    sc_serve::proto::ErrorCode::Overloaded,
                    "only typed sheds are acceptable under overload: {message}"
                );
                shed += 1;
            }
            None => panic!("server closed mid-burst — a silent loss"),
        }
    }
    assert_eq!(
        accepted + shed,
        offered,
        "zero silent loss: every offered request must be answered"
    );
    assert!(shed > 0, "the burst must overrun the queue depth");
    let report = handle.metrics().report();
    assert_eq!(
        report.shed, shed,
        "server and client shed counts must agree"
    );
    assert_eq!(report.completed, accepted);

    drop(writer);
    drop(reader);
    handle.shutdown();

    OverloadBenchRun {
        stream_length,
        offered,
        accepted,
        shed,
        accepted_p50_ms: report.p50_ms,
        accepted_p99_ms: report.p99_ms,
    }
}

/// Result of the cold-start phase: both replica boot paths timed to a
/// serving-ready engine.
struct ColdStartBenchRun {
    stream_length: usize,
    /// The storeless boot (`serve --config`): train the network, then
    /// lower + compile. Training is part of the cost — without the store
    /// the weights have to come from somewhere on every restart.
    train_compile_ms: f64,
    /// The plan-store boot (`serve --load-plan`): decode the CRC-guarded
    /// file and regenerate the weight streams deterministically.
    plan_load_ms: f64,
    /// Size of the plan-store file on disk (seeds + shapes + quantized
    /// weights, not bulk streams).
    plan_bytes: u64,
}

impl ColdStartBenchRun {
    fn speedup(&self) -> f64 {
        self.train_compile_ms / self.plan_load_ms
    }
}

/// Times the storeless boot against the plan-store boot at the same stream
/// length and asserts the two resulting engines are bit-exact before
/// anything is recorded — the rolling-upgrade path depends on a restarted
/// replica being indistinguishable from the one it replaces.
fn bench_cold_start(
    stream_length: usize,
    train_per_class: usize,
    epochs: usize,
) -> ColdStartBenchRun {
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let config = ScNetworkConfig::new(
        "cold_start",
        vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        stream_length,
        PoolingStyle::Max,
    );

    // Path A: the storeless boot, exactly what `serve --config` does on
    // every start.
    let start = Instant::now();
    let data = SyntheticDigits::load_or_generate(train_per_class, 17);
    let mut network = tiny_lenet(17);
    network.train(
        &data.train_images,
        &data.train_labels,
        &TrainingOptions {
            epochs,
            learning_rate: 0.08,
            ..Default::default()
        },
    );
    let compiled =
        Engine::compile(&network, &config, EngineOptions::default()).expect("engine compiles");
    let train_compile_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Persist, then path B: the `serve --load-plan` boot.
    let dir = std::env::temp_dir().join(format!("sc-bench-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("plan dir");
    let path = dir.join("model-0.scp");
    save_plan(&path, compiled.plan(), compiled.options().plan.base_seed).expect("save plan");
    let plan_bytes = std::fs::metadata(&path).expect("plan size").len();
    let start = Instant::now();
    let loaded = load_plan(&path).expect("load plan");
    let options = loaded.engine_options();
    let restored = Engine::from_plan(loaded.plan, options).expect("engine from plan");
    let plan_load_ms = start.elapsed().as_secs_f64() * 1000.0;

    let image = data.train_images[0].clone();
    assert_eq!(
        compiled
            .infer(&mut compiled.new_session(), &image)
            .expect("compiled inference"),
        restored
            .infer(&mut restored.new_session(), &image)
            .expect("restored inference"),
        "plan-store cold start must be bit-exact with the freshly compiled engine"
    );
    let _ = std::fs::remove_dir_all(&dir);

    ColdStartBenchRun {
        stream_length,
        train_compile_ms,
        plan_load_ms,
        plan_bytes,
    }
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Which layer-mix family a benchmark run belongs to (`--config` filter).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConfigFilter {
    /// The paper's No.1-style MUX-MUX-APC-APC mix.
    No1,
    /// The all-APC (accuracy-first) mix.
    Apc,
    /// Everything.
    All,
}

fn config_filter() -> ConfigFilter {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--config") {
        None => ConfigFilter::All,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("no1") => ConfigFilter::No1,
            Some("apc") => ConfigFilter::Apc,
            Some("all") => ConfigFilter::All,
            other => panic!("--config expects no1|apc|all, got {other:?}"),
        },
    }
}

/// Number of models each replica hosts in the router phase (`--models N`).
fn models_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--models")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--models expects a count"))
        .unwrap_or(2)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let verify = std::env::args().any(|a| a == "--verify");
    let allocs = std::env::args().any(|a| a == "--allocs");
    let router_mode = std::env::args().any(|a| a == "--router");
    let models = models_arg();
    let filter = config_filter();
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let no1 = [MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh];
    let mut runs = Vec::new();
    if quick {
        if filter != ConfigFilter::Apc {
            runs.push(bench_config(
                "no1_style_l128_quick",
                no1.to_vec(),
                128,
                2,
                4,
                verify,
            ));
        }
        if filter != ConfigFilter::No1 {
            runs.push(bench_config(
                "apc_max_l128_quick",
                vec![ApcMaxBtanh; 4],
                128,
                2,
                4,
                verify,
            ));
        }
    } else {
        if filter != ConfigFilter::Apc {
            // The acceptance configuration: tiny-LeNet at 1024-bit streams.
            runs.push(bench_config(
                "no1_style_l1024",
                no1.to_vec(),
                1024,
                3,
                6,
                verify,
            ));
        }
        if filter != ConfigFilter::No1 {
            runs.push(bench_config(
                "apc_max_l1024",
                vec![ApcMaxBtanh; 4],
                1024,
                3,
                6,
                verify,
            ));
        }
        if filter != ConfigFilter::Apc {
            runs.push(bench_config(
                "no1_style_l256",
                no1.to_vec(),
                256,
                4,
                12,
                verify,
            ));
        }
    }

    println!(
        "\n{:<22}{:>12}{:>11}{:>12}{:>9}{:>13}",
        "configuration", "interp rps", "fused rps", "batched rps", "1-req x", "par p50 ms"
    );
    for run in &runs {
        println!(
            "{:<22}{:>12.3}{:>11.3}{:>12.3}{:>8.1}x{:>13.2}",
            run.name,
            run.interpreter_rps,
            run.engine_single_rps,
            run.engine_batched_rps,
            run.speedup_single(),
            run.parallel_single_latency_ms
        );
    }
    // Router / multi-model phase: always part of a full recording run, and
    // forcible for smokes via `--router`.
    let full_run = !quick && filter == ConfigFilter::All;
    let router_run = if router_mode || full_run {
        let (length, clients, per_client) = if quick { (128, 2, 4) } else { (256, 4, 12) };
        println!(
            "\nrouter phase: 2 replicas x {models} models @ L={length}, {clients} clients, \
             replica A killed mid-load ..."
        );
        let run = bench_router(models, length, clients, per_client);
        println!(
            "router: {} requests ({} models: {}) -> {:.3} req/s, client p50 {:.2}ms p95 {:.2}ms, \
             {} failovers, {} failed, replicas forwarded {:?}",
            run.total_requests,
            run.model_names.len(),
            run.model_names.join("+"),
            run.router_rps,
            run.client_p50_ms,
            run.client_p95_ms,
            run.failovers,
            run.failed,
            run.replica_forwarded
        );
        println!(
            "stages (merged across replicas): queue-wait p50 {:.3}ms p99 {:.3}ms, \
             compute p50 {:.3}ms p99 {:.3}ms",
            run.stage_queue_p50_ms,
            run.stage_queue_p99_ms,
            run.stage_compute_p50_ms,
            run.stage_compute_p99_ms
        );
        Some(run)
    } else {
        None
    };

    // Concurrency ladder: the event-loop scalability measurement — N
    // closed-loop connections through the hedged router, zero lost requests
    // asserted at every rung. Same gating as the router phase.
    let concurrency_runs = if router_mode || full_run {
        let (length, ladder): (usize, &[(usize, usize)]) = if quick {
            (128, &[(8, 4), (32, 2)])
        } else {
            (128, &[(64, 8), (256, 2), (1024, 1)])
        };
        println!(
            "\nconcurrency phase: 2 replicas @ L={length}, hedged router, ladder {:?} ...",
            ladder.iter().map(|(c, _)| *c).collect::<Vec<_>>()
        );
        let runs = bench_concurrency(length, ladder);
        for run in &runs {
            println!(
                "concurrency {:>5}: {} requests -> {:.3} req/s, p50 {:.2}ms p99 {:.2}ms, \
                 {} hedges ({} won, {:.1}% of requests), {} failed",
                run.connections,
                run.total_requests,
                run.rps,
                run.p50_ms,
                run.p99_ms,
                run.hedges,
                run.hedge_wins,
                run.hedge_rate() * 100.0,
                run.failed
            );
        }
        runs
    } else {
        Vec::new()
    };

    // Overload phase: rides along with the router phase (full recording
    // runs, or forced smokes).
    let overload_run = if router_mode || full_run {
        let (length, offered) = if quick { (128, 32) } else { (256, 64) };
        println!(
            "\noverload phase: 1 worker, queue depth 4, {offered} pipelined requests \
             @ L={length} ..."
        );
        let run = bench_overload(length, offered);
        println!(
            "overload: {} offered -> {} accepted / {} shed ({:.0}% shed rate), accepted p50 \
             {:.2}ms p99 {:.2}ms, zero silent losses",
            run.offered,
            run.accepted,
            run.shed,
            run.shed_rate() * 100.0,
            run.accepted_p50_ms,
            run.accepted_p99_ms
        );
        Some(run)
    } else {
        None
    };

    // Cold-start phase: the plan-store boot vs the storeless boot — the
    // restart cost a rolling upgrade pays per replica. Same gating as the
    // router phase.
    let cold_start_run = if router_mode || full_run {
        let (length, per_class, epochs) = if quick { (128, 4, 1) } else { (1024, 20, 2) };
        println!(
            "\ncold-start phase: train+compile vs plan-store load @ L={length} \
             ({per_class} samples/class, {epochs} epochs) ..."
        );
        let run = bench_cold_start(length, per_class, epochs);
        println!(
            "cold start: train+compile {:.0}ms, plan-store load {:.1}ms -> {:.1}x faster \
             ({} plan bytes, bit-exact)",
            run.train_compile_ms,
            run.plan_load_ms,
            run.speedup(),
            run.plan_bytes
        );
        Some(run)
    } else {
        None
    };

    if allocs {
        println!("\narena reuse (batched phase):");
        for run in &runs {
            let stats = run.final_arena;
            println!(
                "{:<22} steady-state allocs: {} stream / {} count; \
                 reuse rate {:.4}; pool {} buffers / {} words",
                run.name,
                run.steady_stream_allocs(),
                run.steady_count_allocs(),
                run.stream_reuse_rate(),
                stats.pooled_streams + stats.pooled_counts,
                stats.pooled_words,
            );
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"generated_by\": \"cargo run --release -p sc-bench --bin bench_serving\",\n");
    json.push_str("  \"network\": \"tiny-lenet (8/16 filters, 64 hidden units)\",\n");
    json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    json.push_str(
        "  \"note\": \"fused-engine outputs verified bit-identical to the per-call interpreter \
         before timing; rps = requests/second; cache hit rate is aggregated across every \
         fused-engine session of the run including fan-out worker sessions; steady-state \
         allocs are the arena's buffer allocations after the batched phase's warm-up request \
         (zero = the fused path reuses every stream/count buffer)\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!(
            "      \"name\": \"{}\",\n",
            json_escape(&run.name)
        ));
        json.push_str(&format!(
            "      \"layers\": \"{}\",\n",
            json_escape(&run.layer_summary)
        ));
        json.push_str(&format!(
            "      \"stream_length\": {},\n",
            run.stream_length
        ));
        json.push_str(&format!(
            "      \"interpreter_requests\": {},\n",
            run.interpreter_requests
        ));
        json.push_str(&format!(
            "      \"batched_requests\": {},\n",
            run.batched_requests
        ));
        json.push_str(&format!(
            "      \"interpreter_single_request_rps\": {:.4},\n",
            run.interpreter_rps
        ));
        json.push_str(&format!(
            "      \"engine_fused_single_request_rps\": {:.4},\n",
            run.engine_single_rps
        ));
        json.push_str(&format!(
            "      \"engine_batched_rps\": {:.4},\n",
            run.engine_batched_rps
        ));
        json.push_str(&format!(
            "      \"speedup_single_vs_interpreter\": {:.2},\n",
            run.speedup_single()
        ));
        json.push_str(&format!(
            "      \"speedup_batched_vs_interpreter\": {:.2},\n",
            run.speedup_batched()
        ));
        json.push_str(&format!(
            "      \"parallel_single_request_p50_ms\": {:.2},\n",
            run.parallel_single_latency_ms
        ));
        json.push_str(&format!(
            "      \"parallel_single_request_threads\": {},\n",
            run.parallel_threads
        ));
        json.push_str(&format!(
            "      \"batched_latency_p50_ms\": {:.2},\n",
            run.batched_p50_ms
        ));
        json.push_str(&format!(
            "      \"batched_latency_p95_ms\": {:.2},\n",
            run.batched_p95_ms
        ));
        json.push_str(&format!(
            "      \"batched_latency_p99_ms\": {:.2},\n",
            run.batched_p99_ms
        ));
        json.push_str(&format!(
            "      \"input_stream_cache_hit_rate\": {:.4},\n",
            run.cache_hit_rate
        ));
        json.push_str(&format!(
            "      \"steady_state_stream_allocs\": {},\n",
            run.steady_stream_allocs()
        ));
        json.push_str(&format!(
            "      \"steady_state_count_allocs\": {},\n",
            run.steady_count_allocs()
        ));
        json.push_str(&format!(
            "      \"arena_stream_reuse_rate\": {:.4}\n",
            run.stream_reuse_rate()
        ));
        json.push_str(if i + 1 == runs.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    if let Some(run) = &router_run {
        json.push_str("  \"router\": {\n");
        json.push_str(
            "    \"note\": \"two multi-model replicas behind the replica router; replica A \
             killed mid-load; zero failed requests and bit-exact responses asserted before \
             recording\",\n",
        );
        let names: Vec<String> = run
            .model_names
            .iter()
            .map(|name| format!("\"{}\"", json_escape(name)))
            .collect();
        json.push_str(&format!(
            "    \"models_per_replica\": [{}],\n",
            names.join(", ")
        ));
        json.push_str(&format!("    \"stream_length\": {},\n", run.stream_length));
        json.push_str(&format!("    \"clients\": {},\n", run.clients));
        json.push_str(&format!(
            "    \"total_requests\": {},\n",
            run.total_requests
        ));
        json.push_str(&format!("    \"router_rps\": {:.4},\n", run.router_rps));
        json.push_str(&format!(
            "    \"client_latency_p50_ms\": {:.2},\n",
            run.client_p50_ms
        ));
        json.push_str(&format!(
            "    \"client_latency_p95_ms\": {:.2},\n",
            run.client_p95_ms
        ));
        json.push_str(&format!("    \"failovers\": {},\n", run.failovers));
        json.push_str(&format!("    \"failed_requests\": {},\n", run.failed));
        json.push_str(&format!(
            "    \"replica_forwarded\": [{}]\n",
            run.replica_forwarded
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str("  },\n");
    } else {
        json.push_str("  \"router\": null,\n");
    }
    if let Some(run) = &router_run {
        json.push_str("  \"stages\": {\n");
        json.push_str(
            "    \"note\": \"per-stage serving latency during the router phase, merged across \
             both replicas' log-linear stage histograms (the same aggregation a scraper of the \
             per-replica /metrics endpoints would compute)\",\n",
        );
        json.push_str(&format!(
            "    \"queue_wait_p50_ms\": {:.3},\n",
            run.stage_queue_p50_ms
        ));
        json.push_str(&format!(
            "    \"queue_wait_p99_ms\": {:.3},\n",
            run.stage_queue_p99_ms
        ));
        json.push_str(&format!(
            "    \"compute_p50_ms\": {:.3},\n",
            run.stage_compute_p50_ms
        ));
        json.push_str(&format!(
            "    \"compute_p99_ms\": {:.3}\n",
            run.stage_compute_p99_ms
        ));
        json.push_str("  },\n");
    } else {
        json.push_str("  \"stages\": null,\n");
    }
    if concurrency_runs.is_empty() {
        json.push_str("  \"concurrency\": null,\n");
    } else {
        json.push_str("  \"concurrency\": {\n");
        json.push_str(
            "    \"note\": \"closed-loop connection ladder through the hedged router over two \
             replicas; every request asserted answered Ok and bit-exact before recording (zero \
             lost requests at every rung); hedge rate = hedges / requests\",\n",
        );
        json.push_str("    \"rungs\": [\n");
        for (i, run) in concurrency_runs.iter().enumerate() {
            json.push_str("      {\n");
            json.push_str(&format!("        \"connections\": {},\n", run.connections));
            json.push_str(&format!(
                "        \"total_requests\": {},\n",
                run.total_requests
            ));
            json.push_str(&format!("        \"throughput_rps\": {:.4},\n", run.rps));
            json.push_str(&format!("        \"latency_p50_ms\": {:.2},\n", run.p50_ms));
            json.push_str(&format!("        \"latency_p99_ms\": {:.2},\n", run.p99_ms));
            json.push_str(&format!("        \"hedges\": {},\n", run.hedges));
            json.push_str(&format!("        \"hedge_wins\": {},\n", run.hedge_wins));
            json.push_str(&format!(
                "        \"hedge_rate\": {:.4},\n",
                run.hedge_rate()
            ));
            json.push_str(&format!("        \"failed_requests\": {}\n", run.failed));
            json.push_str(if i + 1 == concurrency_runs.len() {
                "      }\n"
            } else {
                "      },\n"
            });
        }
        json.push_str("    ]\n");
        json.push_str("  },\n");
    }
    if let Some(run) = &overload_run {
        json.push_str("  \"overload\": {\n");
        json.push_str(
            "    \"note\": \"single worker behind a depth-4 queue hit with a pipelined burst; \
             zero-silent-loss asserted before recording (every offered request answered with a \
             bit-exact result or a typed OVERLOADED); latencies are the accepted requests' \
             server-side figures while shedding\",\n",
        );
        json.push_str(&format!("    \"stream_length\": {},\n", run.stream_length));
        json.push_str(&format!("    \"offered_requests\": {},\n", run.offered));
        json.push_str(&format!("    \"accepted_requests\": {},\n", run.accepted));
        json.push_str(&format!("    \"shed_requests\": {},\n", run.shed));
        json.push_str(&format!("    \"shed_rate\": {:.4},\n", run.shed_rate()));
        json.push_str(&format!(
            "    \"accepted_latency_p50_ms\": {:.2},\n",
            run.accepted_p50_ms
        ));
        json.push_str(&format!(
            "    \"accepted_latency_p99_ms\": {:.2},\n",
            run.accepted_p99_ms
        ));
        json.push_str("    \"silent_losses\": 0\n");
        json.push_str("  },\n");
    } else {
        json.push_str("  \"overload\": null,\n");
    }
    if let Some(run) = &cold_start_run {
        json.push_str("  \"cold_start\": {\n");
        json.push_str(
            "    \"note\": \"time to a serving-ready engine: the storeless boot (train + lower \
             + compile, what `serve --config` does on every start) vs the plan-store boot \
             (`serve --load-plan`: decode the CRC-guarded file + regenerate weight streams \
             deterministically); the two engines asserted bit-exact before recording\",\n",
        );
        json.push_str(&format!("    \"stream_length\": {},\n", run.stream_length));
        json.push_str(&format!(
            "    \"train_compile_ms\": {:.1},\n",
            run.train_compile_ms
        ));
        json.push_str(&format!("    \"plan_load_ms\": {:.2},\n", run.plan_load_ms));
        json.push_str(&format!("    \"plan_file_bytes\": {},\n", run.plan_bytes));
        json.push_str(&format!("    \"speedup\": {:.1}\n", run.speedup()));
        json.push_str("  }\n");
    } else {
        json.push_str("  \"cold_start\": null\n");
    }
    json.push_str("}\n");

    // Only a full, unfiltered run may replace the committed recording: a
    // `--quick` smoke or a `--config` subset would silently clobber the
    // three-run reference with partial rows.
    if quick || filter != ConfigFilter::All {
        println!(
            "\nskipping BENCH_serving.json write (partial run: --quick / --config); \
             rerun without those flags to refresh the recording"
        );
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serving.json");
    std::fs::write(&path, &json).expect("write BENCH_serving.json");
    println!("\nwrote {}", path.display());
}

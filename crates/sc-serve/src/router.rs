//! Replica router: an event-loop TCP front over several `serve` backends.
//!
//! SC-DCNN's scalability story is many network configurations sharing one
//! substrate; operationally that means several `serve` replicas (each
//! hosting the same engine registry) behind one address. This module is the
//! std-only front that makes a replica set look like a single server:
//!
//! * **Event-loop I/O** — one nonblocking I/O thread owns the listener,
//!   every client socket, and one **multiplexed channel per replica**
//!   through a [`crate::reactor::Poller`]. Requests from any number of
//!   clients interleave on a replica's single channel; the router rewrites
//!   request ids to channel-unique internal ids on the way out and
//!   correlates responses back by id, so a slow exchange never
//!   head-of-line-blocks the channel the way per-client pooled connections
//!   serialized their owner's requests.
//! * **Least-loaded routing** — every request is dispatched to the healthy
//!   backend with the fewest in-flight requests (per-backend in-flight
//!   accounting, maintained by the dispatch path itself).
//! * **Health checks** — a background thread probes each backend every
//!   [`RouterOptions::health_interval`] with a tiny ping/pong exchange (not
//!   a bare TCP connect: a hung replica whose accept queue still accepts
//!   would pass a connect probe while serving nothing); the dispatch path
//!   additionally marks a backend down the moment an exchange fails.
//! * **Circuit breakers** — each backend carries a breaker that trips after
//!   [`RouterOptions::breaker_threshold`] consecutive exchange failures,
//!   rejects traffic for [`RouterOptions::breaker_cooldown`], then half-opens
//!   to let a trial request through; a success closes it, a failure re-trips.
//!   This keeps a flapping replica from eating one timeout per request.
//! * **Budgeted failover** — a request whose exchange fails (or is refused
//!   by a draining/overloaded replica) is re-sent to a different replica,
//!   but retries draw from a shared token-bucket *retry budget*
//!   ([`RouterOptions::retry_budget`]) with exponential backoff and
//!   deterministic per-request jitter — under a correlated failure the
//!   router degrades to fast typed errors instead of amplifying the load.
//!   If the request carries a deadline, the remaining budget is
//!   decremented across hops and a request is never retried past it. On
//!   give-up the client gets a typed retriable `Response::Err` instead of a
//!   hang. This is only correct because the serving runtime's graceful
//!   shutdown answers or refuses every accepted request — a backend that
//!   silently dropped requests would make the router double-serve or hang.
//! * **Hedged requests** — with [`RouterOptions::hedge`] enabled, a request
//!   still unanswered after the hedge delay (the observed p99 of winning
//!   exchanges, [`RouterOptions::hedge_delay`] until enough samples exist)
//!   is *also* sent to a second replica; the first answer wins and the
//!   loser is cancelled by ignoring its late response. Hedges draw from the
//!   same retry budget as failover, so a sitewide slowdown cannot double
//!   the offered load. Multiplexed channels are what make this affordable:
//!   a hedge is one extra frame on an existing channel, not a new
//!   connection.
//!
//! The router is protocol-transparent: it parses requests only to learn
//! frame boundaries, ids, model ids, and deadlines, and re-sends each one
//! with [`crate::proto::write_request_v3`] under a channel-unique id and
//! the decremented deadline. Response payloads are relayed with only the id
//! rewritten back, so a routed inference is bit-exact with a direct engine
//! call.

use crate::obs::{MetricsRegistry, Sample, SampleKind, TraceEvent, TraceLog};
use crate::proto::{
    decode_admin_response, decode_message, decode_pong, decode_response, read_frame, write_admin,
    write_admin_response, write_ping, write_pong, write_request_v3, write_response, AdminOp,
    AdminResponse, ErrorCode, FrameDecoder, Message, Request, Response,
};
use crate::server::is_would_block;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Event-loop tick: the granularity of retry, hedge, and exchange-timeout
/// timers when no socket activity wakes the loop earlier. Finer than the
/// serving plane's tick because hedge delays are tens of milliseconds.
const TICK: Duration = Duration::from_millis(5);

/// Reserved poller token for the listener.
const TOKEN_LISTENER: u64 = 0;
/// Reserved poller token for the shutdown waker.
const TOKEN_WAKE: u64 = 1;
/// Backend channel `i` lives at token `TOKEN_FIRST_CHANNEL + i`; client
/// tokens start right after the channel range.
const TOKEN_FIRST_CHANNEL: u64 = 2;

/// Winning-exchange latencies kept for the p99 hedge-delay estimate.
const LATENCY_WINDOW: usize = 256;
/// How many new samples between p99 recomputations (a sort of the window).
const LATENCY_RECOMPUTE: u64 = 16;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterOptions {
    /// Interval between background health probes of each backend.
    pub health_interval: Duration,
    /// Connect timeout for health probes and backend dials.
    pub connect_timeout: Duration,
    /// Budget for one backend request/response exchange. A replica that
    /// accepts a request and then goes silent (process stopped, packets
    /// blackholed) would otherwise hold the exchange forever — failover
    /// only helps if a hung backend eventually *fails*. An exchange that
    /// overruns this kills the whole channel (a silent replica cannot be
    /// trusted with the other requests multiplexed on it). Must comfortably
    /// exceed worst-case inference latency under load.
    pub exchange_timeout: Duration,
    /// Read/write timeout for one health ping/pong exchange. Much shorter
    /// than `exchange_timeout`: a probe carries no compute.
    pub probe_timeout: Duration,
    /// Consecutive exchange failures that trip a backend's circuit breaker
    /// (floored at one).
    pub breaker_threshold: u32,
    /// How long a tripped breaker rejects traffic before half-opening.
    pub breaker_cooldown: Duration,
    /// Capacity of the shared retry token bucket; every retry (second and
    /// later attempt of any request) and every hedge takes one token. Zero
    /// disables both.
    pub retry_budget: u32,
    /// Time to refill one retry token.
    pub retry_refill: Duration,
    /// Base delay of the exponential retry backoff (doubled per extra
    /// attempt, plus deterministic per-request jitter).
    pub retry_backoff: Duration,
    /// Maximum exchange attempts per request, first try included (floored
    /// at one). A hedge counts as an attempt.
    pub max_attempts: u32,
    /// Send a hedge to a second replica when a request is still unanswered
    /// after the hedge delay. Off by default: hedging trades extra load for
    /// tail latency, which is a deployment decision.
    pub hedge: bool,
    /// Cold-start hedge delay, used until the router has observed enough
    /// winning exchanges to estimate their p99 (which then becomes the
    /// delay, clamped to `[1ms, exchange_timeout]`).
    pub hedge_delay: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            health_interval: Duration::from_millis(200),
            connect_timeout: Duration::from_secs(1),
            exchange_timeout: Duration::from_secs(30),
            probe_timeout: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            retry_budget: 8,
            retry_refill: Duration::from_millis(250),
            retry_backoff: Duration::from_millis(25),
            max_attempts: 2,
            hedge: false,
            hedge_delay: Duration::from_millis(20),
        }
    }
}

/// Per-backend circuit breaker.
///
/// `Closed` passes traffic and counts consecutive failures; at
/// `threshold` it trips to `Open`, which rejects every request until
/// `cooldown` elapses; then `HalfOpen` admits trial traffic — one success
/// closes the breaker, one failure re-trips it. Rejecting at the router is
/// what converts "every request eats a full exchange timeout against a dead
/// replica" into "requests route around it instantly".
#[derive(Debug)]
struct CircuitBreaker {
    state: Mutex<BreakerState>,
    threshold: u32,
    cooldown: Duration,
    /// Closed→Open transitions over the breaker's lifetime.
    trips: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { failures: u32 },
    Open { until: Instant },
    HalfOpen,
}

impl CircuitBreaker {
    fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
            threshold: threshold.max(1),
            cooldown,
            trips: AtomicU64::new(0),
        }
    }

    /// Whether a request may be sent to this backend right now. An `Open`
    /// breaker whose cooldown has elapsed transitions to `HalfOpen` and
    /// admits the caller as a trial.
    fn allow(&self) -> bool {
        let mut state = self.state.lock().expect("breaker lock");
        match *state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful exchange: the breaker closes and the
    /// consecutive-failure count resets.
    fn on_success(&self) {
        *self.state.lock().expect("breaker lock") = BreakerState::Closed { failures: 0 };
    }

    /// Records a failed exchange: increments the consecutive-failure count
    /// and trips at the threshold; a half-open trial failure re-trips
    /// immediately.
    fn on_failure(&self) {
        let mut state = self.state.lock().expect("breaker lock");
        let tripped = match *state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    true
                } else {
                    *state = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if tripped {
            *state = BreakerState::Open {
                until: Instant::now() + self.cooldown,
            };
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn is_open(&self) -> bool {
        matches!(
            *self.state.lock().expect("breaker lock"),
            BreakerState::Open { .. }
        )
    }
}

/// Shared token bucket bounding the router's total retry (and hedge) rate.
///
/// Each retry and each hedge takes one token; tokens refill at one per
/// `refill`. Under a correlated backend failure this caps retry
/// amplification: once the bucket is dry, requests fail fast with a typed
/// `OVERLOADED` instead of doubling the load on whatever still stands.
#[derive(Debug)]
struct RetryBudget {
    /// `(tokens, last_refill)` — fractional tokens make refill math exact.
    state: Mutex<(f64, Instant)>,
    capacity: f64,
    refill: Duration,
}

impl RetryBudget {
    fn new(capacity: u32, refill: Duration) -> Self {
        Self {
            state: Mutex::new((f64::from(capacity), Instant::now())),
            capacity: f64::from(capacity),
            refill,
        }
    }

    /// Takes one retry token if available.
    fn try_take(&self) -> bool {
        let mut state = self.state.lock().expect("retry budget lock");
        let (ref mut tokens, ref mut last) = *state;
        let now = Instant::now();
        if !self.refill.is_zero() {
            *tokens = (*tokens
                + now.duration_since(*last).as_secs_f64() / self.refill.as_secs_f64())
            .min(self.capacity);
        }
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current token level after applying pending refill, without taking a
    /// token. The observability gauge: a level pinned near zero under load
    /// means the router is in fail-fast mode.
    fn level(&self) -> f64 {
        let mut state = self.state.lock().expect("retry budget lock");
        let (ref mut tokens, ref mut last) = *state;
        let now = Instant::now();
        if !self.refill.is_zero() {
            *tokens = (*tokens
                + now.duration_since(*last).as_secs_f64() / self.refill.as_secs_f64())
            .min(self.capacity);
        }
        *last = now;
        *tokens
    }
}

/// One backend replica and its live accounting.
#[derive(Debug)]
struct Backend {
    addr: SocketAddr,
    /// Last known health: updated by the probe thread and cleared by the
    /// dispatch path on any failed exchange.
    healthy: AtomicBool,
    /// Requests currently awaiting a response from this backend (the
    /// least-loaded routing key).
    in_flight: AtomicUsize,
    /// Requests this backend answered.
    forwarded: AtomicU64,
    /// Exchanges that failed (or were refused) on this backend and were
    /// failed over.
    failovers: AtomicU64,
    breaker: CircuitBreaker,
    /// The model ids this backend advertised in its last admin status
    /// exchange (piggybacked on the health probe). `None` = never learned;
    /// the router then assumes the backend hosts everything, because
    /// refusing traffic on bootstrap ignorance would turn a router restart
    /// into an outage — a wrong guess costs one typed, retriable
    /// `MODEL_UNAVAILABLE` refusal and the next probe corrects it.
    models: Mutex<Option<Vec<u16>>>,
    /// The backend's registry generation from the same status exchange.
    /// Replica generations start at 1, so 0 means "never observed".
    registry_generation: AtomicU64,
}

impl Backend {
    fn new(addr: SocketAddr, options: &RouterOptions) -> Self {
        Self {
            addr,
            healthy: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            breaker: CircuitBreaker::new(options.breaker_threshold, options.breaker_cooldown),
            models: Mutex::new(None),
            registry_generation: AtomicU64::new(0),
        }
    }

    /// Whether this backend is believed to host `model` (unknown set =
    /// assume yes; see the `models` field).
    fn hosts(&self, model: u16) -> bool {
        self.models
            .lock()
            .expect("backend model set")
            .as_ref()
            .is_none_or(|models| models.contains(&model))
    }
}

/// Point-in-time statistics of one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// The backend's address.
    pub addr: SocketAddr,
    /// Whether the backend was considered healthy at snapshot time.
    pub healthy: bool,
    /// Requests in flight at snapshot time.
    pub in_flight: usize,
    /// Requests this backend answered.
    pub forwarded: u64,
    /// Failed exchanges that were failed over away from this backend.
    pub failovers: u64,
    /// Whether the backend's circuit breaker was open at snapshot time.
    pub breaker_open: bool,
    /// Times the backend's breaker tripped over the router's lifetime.
    pub breaker_trips: u64,
    /// The model ids the backend advertised on its last status exchange
    /// (`None` = never learned; the router assumes it hosts everything).
    pub models: Option<Vec<u16>>,
    /// The backend's registry generation at the last status exchange
    /// (0 = never observed; replica generations start at 1).
    pub registry_generation: u64,
}

/// Point-in-time statistics of the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Per-backend counters, in configuration order.
    pub backends: Vec<BackendStats>,
    /// Requests accepted from clients.
    pub requests: u64,
    /// Re-sends performed (counted once per request that needed any).
    pub failovers: u64,
    /// Requests that failed even after failover (answered with a typed
    /// error, never dropped).
    pub failed: u64,
    /// Requests whose deadline expired at the router (answered
    /// `DEADLINE_EXCEEDED`).
    pub expired: u64,
    /// Hedge sends performed (a second replica raced for a slow request).
    pub hedges: u64,
    /// Hedged requests whose hedge arm answered first.
    pub hedge_wins: u64,
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests, {} failovers, {} failed, {} expired, {} hedges ({} won) —",
            self.requests, self.failovers, self.failed, self.expired, self.hedges, self.hedge_wins
        )?;
        for backend in &self.backends {
            write!(
                f,
                " [{} {} fwd={} inflight={} failover={} trips={}]",
                backend.addr,
                if backend.breaker_open {
                    "breaker-open"
                } else if backend.healthy {
                    "up"
                } else {
                    "down"
                },
                backend.forwarded,
                backend.in_flight,
                backend.failovers,
                backend.breaker_trips
            )?;
        }
        Ok(())
    }
}

/// State shared by the I/O thread, probe thread, and the handle.
#[derive(Debug)]
struct RouterShared {
    backends: Vec<Backend>,
    options: RouterOptions,
    retry_budget: RetryBudget,
    stop: AtomicBool,
    requests: AtomicU64,
    failovers: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    /// Monotone nonce source for health-probe pings.
    probe_nonce: AtomicU64,
    /// Optional sampled request-trace sink (one `route` event per sampled
    /// request).
    trace: Option<TraceLog>,
}

/// Snapshot of a shared router state's counters — the one source both
/// [`RouterHandle::stats`] and the metrics registry read, so the `Display`
/// report and the scrape endpoint can never disagree.
fn stats_of(shared: &RouterShared) -> RouterStats {
    RouterStats {
        backends: shared
            .backends
            .iter()
            .map(|backend| BackendStats {
                addr: backend.addr,
                healthy: backend.healthy.load(Ordering::Relaxed),
                in_flight: backend.in_flight.load(Ordering::Relaxed),
                forwarded: backend.forwarded.load(Ordering::Relaxed),
                failovers: backend.failovers.load(Ordering::Relaxed),
                breaker_open: backend.breaker.is_open(),
                breaker_trips: backend.breaker.trips.load(Ordering::Relaxed),
                models: backend.models.lock().expect("backend model set").clone(),
                registry_generation: backend.registry_generation.load(Ordering::Relaxed),
            })
            .collect(),
        requests: shared.requests.load(Ordering::Relaxed),
        failovers: shared.failovers.load(Ordering::Relaxed),
        failed: shared.failed.load(Ordering::Relaxed),
        expired: shared.expired.load(Ordering::Relaxed),
        hedges: shared.hedges.load(Ordering::Relaxed),
        hedge_wins: shared.hedge_wins.load(Ordering::Relaxed),
    }
}

/// Handle to a running router.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    metrics_registry: Arc<MetricsRegistry>,
    waker: crate::reactor::Waker,
    io_thread: Option<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the router is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the router's counters.
    pub fn stats(&self) -> RouterStats {
        stats_of(&self.shared)
    }

    /// The router's metric registry: request outcomes under the same
    /// `sc_requests_total` family the server emits, plus router-only
    /// failover/hedge/retry-budget metrics and per-backend state. Hand this
    /// to [`crate::admin::spawn_admin`] to expose a live scrape endpoint.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics_registry)
    }

    /// Stops accepting, stops reading from live client connections, lets
    /// their in-progress exchanges resolve (bounded by the exchange timeout
    /// and the attempt cap), flushes the final replies, and joins the
    /// router threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.io_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Starts routing client connections on `listener` across `backends`.
///
/// # Errors
///
/// Returns `InvalidInput` for an empty backend list, and propagates I/O
/// errors from reactor setup (nonblocking mode, poller registration).
pub fn spawn_router(
    listener: TcpListener,
    backends: Vec<SocketAddr>,
    options: RouterOptions,
) -> io::Result<RouterHandle> {
    spawn_router_observed(listener, backends, options, None)
}

/// [`spawn_router`] with an optional sampled request-trace log: each sampled
/// request emits one JSONL `route` event with its outcome and end-to-end
/// router latency.
///
/// # Errors
///
/// Returns `InvalidInput` for an empty backend list, and propagates I/O
/// errors from reactor setup (nonblocking mode, poller registration).
pub fn spawn_router_observed(
    listener: TcpListener,
    backends: Vec<SocketAddr>,
    options: RouterOptions,
    trace: Option<TraceLog>,
) -> io::Result<RouterHandle> {
    if backends.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "spawn_router needs at least one backend",
        ));
    }
    let addr = listener.local_addr()?;
    let shared = Arc::new(RouterShared {
        backends: backends
            .into_iter()
            .map(|addr| Backend::new(addr, &options))
            .collect(),
        retry_budget: RetryBudget::new(options.retry_budget, options.retry_refill),
        options,
        stop: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        expired: AtomicU64::new(0),
        hedges: AtomicU64::new(0),
        hedge_wins: AtomicU64::new(0),
        probe_nonce: AtomicU64::new(1),
        trace,
    });

    let metrics_registry = Arc::new(MetricsRegistry::new());
    {
        let shared = Arc::clone(&shared);
        metrics_registry.register(move |out| {
            let stats = stats_of(&shared);
            // Same family and outcome labels as the serving runtime, so one
            // dashboard reads both planes. The router never computes, so
            // `ok` is what it accepted minus what it failed or expired, and
            // `shed` is always zero (admission control lives on replicas).
            for (outcome, value) in [
                (
                    "ok",
                    stats
                        .requests
                        .saturating_sub(stats.failed)
                        .saturating_sub(stats.expired),
                ),
                ("failed", stats.failed),
                ("shed", 0),
                ("expired", stats.expired),
            ] {
                out.push(Sample::counter(
                    "sc_requests_total",
                    vec![("outcome", outcome.to_string())],
                    value as f64,
                ));
            }
            out.push(Sample::counter(
                "sc_router_failovers_total",
                vec![],
                stats.failovers as f64,
            ));
            out.push(Sample::counter(
                "sc_router_hedges_total",
                vec![],
                stats.hedges as f64,
            ));
            out.push(Sample::counter(
                "sc_router_hedge_wins_total",
                vec![],
                stats.hedge_wins as f64,
            ));
            out.push(Sample::gauge(
                "sc_retry_budget_level",
                vec![],
                shared.retry_budget.level(),
            ));
            // Family-major order: the exposition format wants one `# TYPE`
            // per family, so all backends' samples of a family go together.
            type BackendField = (&'static str, SampleKind, fn(&BackendStats) -> f64);
            const BACKEND_FIELDS: [BackendField; 8] = [
                ("sc_backend_healthy", SampleKind::Gauge, |b| {
                    f64::from(u8::from(b.healthy))
                }),
                ("sc_backend_breaker_open", SampleKind::Gauge, |b| {
                    f64::from(u8::from(b.breaker_open))
                }),
                ("sc_backend_in_flight", SampleKind::Gauge, |b| {
                    b.in_flight as f64
                }),
                ("sc_backend_forwarded_total", SampleKind::Counter, |b| {
                    b.forwarded as f64
                }),
                ("sc_backend_failovers_total", SampleKind::Counter, |b| {
                    b.failovers as f64
                }),
                ("sc_backend_breaker_trips_total", SampleKind::Counter, |b| {
                    b.breaker_trips as f64
                }),
                // Fleet state mirrored from replica status exchanges, under
                // the serve-side naming convention (`sc_models` /
                // `sc_registry_generation` there, per-backend here). A
                // model count of -1 means the set was never learned;
                // generation 0 means never observed.
                ("sc_backend_models", SampleKind::Gauge, |b| {
                    b.models.as_ref().map_or(-1.0, |models| models.len() as f64)
                }),
                ("sc_backend_registry_generation", SampleKind::Gauge, |b| {
                    b.registry_generation as f64
                }),
            ];
            for (name, kind, value_of) in BACKEND_FIELDS {
                for backend in &stats.backends {
                    out.push(Sample {
                        name,
                        suffix: "",
                        kind,
                        labels: vec![("backend", backend.addr.to_string())],
                        value: value_of(backend),
                    });
                }
            }
        });
    }

    let health_thread = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || health_loop(&shared))
    };

    let (io, waker) = RouterIo::build(listener, Arc::clone(&shared))?;
    let io_thread = std::thread::spawn(move || io.run());

    Ok(RouterHandle {
        addr,
        shared,
        metrics_registry,
        waker,
        io_thread: Some(io_thread),
        health_thread: Some(health_thread),
    })
}

/// One health probe: connect, ping, expect the matching pong within
/// `probe_timeout` — then piggyback an admin status exchange on the same
/// connection to learn the replica's model set, registry generation, and
/// drain state.
///
/// The ping travels the backend's real serving path (accept → event loop →
/// write path), so a replica that is hung-but-accepting — its listen queue
/// still completes TCP handshakes while nothing reads — fails the probe
/// instead of passing a bare connect check. Probes stay on their own
/// short-lived blocking connections, off the request channels: a probe must
/// measure the replica even (especially) when the channel to it is wedged.
///
/// A replica that answers the ping but not the status exchange is still
/// healthy — it just keeps its `None` model set, so the
/// router keeps assuming it hosts everything.
fn probe_backend(
    addr: SocketAddr,
    options: &RouterOptions,
    nonce: u64,
) -> (bool, Option<AdminResponse>) {
    let Ok(stream) = TcpStream::connect_timeout(&addr, options.connect_timeout) else {
        return (false, None);
    };
    if stream
        .set_read_timeout(Some(options.probe_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(options.probe_timeout))
            .is_err()
    {
        return (false, None);
    }
    let Ok(mut writer) = stream.try_clone() else {
        return (false, None);
    };
    if write_ping(&mut writer, nonce).is_err() {
        return (false, None);
    }
    let mut reader = BufReader::new(stream);
    if !matches!(read_frame(&mut reader, decode_pong), Ok(Some(answered)) if answered == nonce) {
        return (false, None);
    }
    if write_admin(&mut writer, &AdminOp::Status).is_err() {
        return (true, None);
    }
    match read_frame(&mut reader, decode_admin_response) {
        Ok(Some(status)) => (true, Some(status)),
        _ => (true, None),
    }
}

/// Background health probes: one ping/pong + status per backend per
/// interval.
fn health_loop(shared: &RouterShared) {
    while !shared.stop.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            let nonce = shared.probe_nonce.fetch_add(1, Ordering::Relaxed);
            let (mut healthy, status) = probe_backend(backend.addr, &shared.options, nonce);
            if let Some(status) = status {
                backend
                    .registry_generation
                    .store(status.generation, Ordering::Relaxed);
                *backend.models.lock().expect("backend model set") = Some(status.models);
                // A draining replica refuses every new request; routing to
                // it only burns failover attempts. Demote it — unhealthy
                // backends are still the fallback when nothing else stands,
                // and the answer-or-refuse contract keeps that lossless.
                if status.draining {
                    healthy = false;
                }
            }
            backend.healthy.store(healthy, Ordering::Relaxed);
        }
        // Sleep in short slices so shutdown is never blocked on a long
        // health interval.
        let mut remaining = shared.options.health_interval;
        while !remaining.is_zero() && !shared.stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

/// Classifies a backend response: `Some(code)` for refusals the router may
/// act on (retriable elsewhere, or deadline-expired), `None` for answers to
/// relay as-is (`Ok`, and application errors — a bad shape is bad on every
/// replica).
fn refusal_code(response: &Response) -> Option<ErrorCode> {
    response.error_code().filter(|code| code.is_retriable())
}

/// Picks the healthy backend (breaker permitting) believed to host `model`
/// with the fewest in-flight requests, skipping `excluded` (the backends
/// this request already tried). When no backend looks healthy (probe
/// results can be stale — e.g. a replica restarted a millisecond ago), the
/// least-loaded breaker-permitted unhealthy one is tried anyway rather than
/// failing the request outright.
///
/// The model filter is what routes by model id over a heterogeneous
/// replica set: backends advertise their model sets on status exchanges,
/// and one that lacks the requested model is never picked (unless its set
/// was never learned — see [`Backend::hosts`]).
fn pick_backend(shared: &RouterShared, excluded: &[usize], model: u16) -> Option<usize> {
    let candidates = |healthy: bool| {
        shared
            .backends
            .iter()
            .enumerate()
            .filter(|(index, backend)| {
                !excluded.contains(index)
                    && backend.healthy.load(Ordering::Relaxed) == healthy
                    && backend.breaker.allow()
                    && backend.hosts(model)
            })
            .min_by_key(|(_, backend)| backend.in_flight.load(Ordering::Relaxed))
            .map(|(index, _)| index)
    };
    candidates(true).or_else(|| candidates(false))
}

/// Deterministic per-request jitter in `[0, cap)`, keyed on the request id
/// and attempt number (SplitMix64). Spreads correlated retries without a
/// random source, so chaos runs replay identically.
fn retry_jitter(id: u64, attempt: u32, cap: Duration) -> Duration {
    let bits = crate::fault::splitmix64(id ^ (u64::from(attempt) << 32));
    cap.mul_f64((bits >> 11) as f64 / (1u64 << 53) as f64)
}

/// Overwrites a response's id — the inverse of the internal-id rewrite a
/// request got on its way to a backend channel.
fn set_response_id(response: &mut Response, id: u64) {
    match response {
        Response::Ok { id: slot, .. } | Response::Err { id: slot, .. } => *slot = id,
    }
}

/// Ring of winning-exchange latencies feeding the adaptive hedge delay.
/// Plain state on the I/O thread — no locking, because only that thread
/// records and reads it.
#[derive(Debug)]
struct LatencyWindow {
    samples: Vec<u64>,
    cursor: usize,
    recorded: u64,
    p99_us: Option<u64>,
}

impl LatencyWindow {
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(LATENCY_WINDOW),
            cursor: 0,
            recorded: 0,
            p99_us: None,
        }
    }

    fn record(&mut self, latency: Duration) {
        let micros = crate::metrics::as_micros(latency);
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(micros);
        } else {
            self.samples[self.cursor] = micros;
            self.cursor = (self.cursor + 1) % LATENCY_WINDOW;
        }
        self.recorded += 1;
        // Recompute on a cadence instead of per sample: the sort is O(n log
        // n) over a small window, but the hedge delay doesn't need to move
        // sample-by-sample.
        if self.recorded.is_multiple_of(LATENCY_RECOMPUTE) {
            let mut sorted = self.samples.clone();
            sorted.sort_unstable();
            self.p99_us = Some(sorted[crate::metrics::nearest_rank_index(sorted.len(), 99.0)]);
        }
    }
}

/// One client connection: resumable frame decoding in, a partially-flushed
/// output buffer out, and a count of answers still owed.
struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    out_offset: usize,
    /// Last moment a write made progress while output was pending.
    last_write_progress: Instant,
    /// The read side is done (client EOF, protocol error, or router drain);
    /// the connection lives on only to flush owed replies.
    read_open: bool,
    /// Admitted requests whose answers have not been written back yet.
    owed: usize,
    /// Interest currently registered with the poller.
    interest: crate::reactor::Interest,
}

impl ClientConn {
    fn pending_output(&self) -> bool {
        self.out_offset < self.outbuf.len()
    }

    fn desired_interest(&self) -> crate::reactor::Interest {
        use crate::reactor::Interest;
        match (self.read_open, self.pending_output()) {
            (true, true) => Interest::ReadWrite,
            (true, false) => Interest::Read,
            (false, _) => Interest::Write,
        }
    }

    fn finished(&self) -> bool {
        !self.read_open && self.owed == 0 && !self.pending_output()
    }
}

/// One multiplexed channel to a backend: every client's requests to that
/// replica travel here, correlated by internal wire ids.
struct Channel {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    out_offset: usize,
    last_write_progress: Instant,
    interest: crate::reactor::Interest,
}

impl Channel {
    fn pending_output(&self) -> bool {
        self.out_offset < self.outbuf.len()
    }

    fn desired_interest(&self) -> crate::reactor::Interest {
        use crate::reactor::Interest;
        if self.pending_output() {
            Interest::ReadWrite
        } else {
            Interest::Read
        }
    }
}

/// One outstanding exchange of a request on one backend.
#[derive(Debug, Clone, Copy)]
struct Arm {
    backend: usize,
    sent_at: Instant,
    /// When this exchange is declared failed if still unanswered.
    timeout_at: Instant,
    /// The timeout was capped by the request's deadline rather than the
    /// full exchange budget: on expiry only this arm fails (the backend is
    /// slow for *this* deadline, not necessarily hung), where a full
    /// exchange-timeout overrun kills the whole channel.
    deadline_capped: bool,
    /// This arm is a hedge (second concurrent send), not the primary.
    hedge: bool,
}

/// A client request the router has admitted but not yet answered.
struct PendingRequest {
    /// Token of the owning client connection.
    client: u64,
    /// The request with its original client-assigned id and deadline (the
    /// wire id is rewritten per arm at dispatch and restored).
    request: Request,
    arrival: Instant,
    deadline: Option<Instant>,
    /// Exchange attempts made (connect failures included, hedges included).
    attempts: u32,
    /// Backends this request already tried — never re-picked.
    tried: Vec<usize>,
    /// Outstanding exchanges, keyed by internal wire id.
    arms: Vec<(u64, Arm)>,
    /// A failover retry is scheduled for this moment.
    retry_at: Option<Instant>,
    /// A hedge fires at this moment if the request is still unanswered.
    hedge_at: Option<Instant>,
    /// `shared.failovers` counts once per request that needed any re-send.
    failover_counted: bool,
    last_failure: String,
    /// The typed code of the most recent backend *refusal* (`None` after a
    /// transport failure). A give-up caused by every replica refusing
    /// `MODEL_UNAVAILABLE` must surface that code to the client, not a
    /// generic `OVERLOADED`.
    last_refusal: Option<ErrorCode>,
}

/// The router's event loop: listener, clients, and backend channels on one
/// poller; retry/hedge/timeout timers checked every tick.
struct RouterIo {
    poller: crate::reactor::Poller,
    listener: Option<TcpListener>,
    wake_rx: crate::reactor::WakeReceiver,
    shared: Arc<RouterShared>,
    clients: HashMap<u64, ClientConn>,
    channels: Vec<Option<Channel>>,
    requests: HashMap<u64, PendingRequest>,
    /// internal wire id → pending-request key, for response correlation.
    arm_index: HashMap<u64, u64>,
    next_client_token: u64,
    next_request_key: u64,
    /// Channel-unique wire ids; starts at 1 so a zeroed frame never matches.
    next_internal_id: u64,
    latency: LatencyWindow,
    /// Read scratch shared across sockets.
    scratch: Vec<u8>,
}

impl RouterIo {
    fn build(
        listener: TcpListener,
        shared: Arc<RouterShared>,
    ) -> io::Result<(Self, crate::reactor::Waker)> {
        use crate::reactor::{Interest, Poller, Waker};
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = Waker::pair()?;
        poller.register(&listener, TOKEN_LISTENER, Interest::Read)?;
        poller.register(wake_rx.socket(), TOKEN_WAKE, Interest::Read)?;
        let backends = shared.backends.len();
        Ok((
            Self {
                poller,
                listener: Some(listener),
                wake_rx,
                shared,
                clients: HashMap::new(),
                channels: (0..backends).map(|_| None).collect(),
                requests: HashMap::new(),
                arm_index: HashMap::new(),
                next_client_token: TOKEN_FIRST_CHANNEL + backends as u64,
                next_request_key: 0,
                next_internal_id: 1,
                latency: LatencyWindow::new(),
                scratch: vec![0; 64 << 10],
            },
            waker,
        ))
    }

    fn run(mut self) {
        let mut events: Vec<crate::reactor::Event> = Vec::new();
        let channel_tokens = TOKEN_FIRST_CHANNEL + self.shared.backends.len() as u64;
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                // A broken poller cannot route; drop everything so clients
                // see clean disconnects instead of a wedged router.
                return;
            }
            if events.iter().any(|event| event.token == TOKEN_WAKE) {
                self.wake_rx.drain();
            }
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {}
                    token if token < channel_tokens => {
                        let backend = (token - TOKEN_FIRST_CHANNEL) as usize;
                        if event.readable {
                            self.channel_readable(backend);
                        }
                        if event.writable {
                            self.flush_channel(backend);
                        }
                    }
                    token => {
                        if event.readable {
                            self.client_readable(token);
                        }
                        if event.writable {
                            self.flush_client(token);
                            self.drop_if_finished(token);
                        }
                    }
                }
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                // Drain mode: stop accepting and stop reading; pending
                // requests keep resolving (bounded by the exchange timeout
                // and attempt cap) and their final replies flush.
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.deregister(&listener, TOKEN_LISTENER);
                }
                for client in self.clients.values_mut() {
                    client.read_open = false;
                }
                let finished: Vec<u64> = self
                    .clients
                    .iter()
                    .filter(|(_, client)| client.finished())
                    .map(|(&token, _)| token)
                    .collect();
                for token in finished {
                    self.drop_client(token);
                }
            }
            self.process_timers();
            self.reconcile_interest();
            if self.shared.stop.load(Ordering::SeqCst)
                && self.requests.is_empty()
                && self.clients.is_empty()
            {
                return;
            }
        }
    }

    /// Accepts until the listener runs dry.
    fn accept_ready(&mut self) {
        use crate::reactor::Interest;
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Replies are written as whole frames; Nagle would add
                    // delayed-ACK latency to every small response.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_client_token;
                    self.next_client_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::Read)
                        .is_err()
                    {
                        continue;
                    }
                    self.clients.insert(
                        token,
                        ClientConn {
                            stream,
                            decoder: FrameDecoder::new(),
                            outbuf: Vec::new(),
                            out_offset: 0,
                            last_write_progress: Instant::now(),
                            read_open: true,
                            owed: 0,
                            interest: Interest::Read,
                        },
                    );
                }
                Err(error) if is_would_block(&error) => return,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (aborted handshakes, fd pressure):
                // skip this readiness round rather than spinning.
                Err(_) => return,
            }
        }
    }

    /// Reads everything a client socket has and admits complete requests.
    fn client_readable(&mut self, token: u64) {
        let mut messages: Vec<Message> = Vec::new();
        {
            let Some(client) = self.clients.get_mut(&token) else {
                return;
            };
            if !client.read_open {
                return;
            }
            'read: loop {
                match client.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        // Clean EOF (possibly a half-close): stop reading
                        // but keep flushing replies the client is owed.
                        client.read_open = false;
                        break;
                    }
                    Ok(bytes) => {
                        let mut slice = &self.scratch[..bytes];
                        while !slice.is_empty() {
                            match client.decoder.feed(slice) {
                                Ok(consumed) => slice = &slice[consumed..],
                                Err(_) => {
                                    // Unrecoverable framing (bad length or
                                    // checksum): the stream cannot be
                                    // resynchronized; stop reading.
                                    client.read_open = false;
                                    break 'read;
                                }
                            }
                            if let Some(payload) = client.decoder.frame() {
                                match decode_message(payload) {
                                    Ok(message) => messages.push(message),
                                    Err(_) => {
                                        client.read_open = false;
                                        client.decoder.take_frame();
                                        break 'read;
                                    }
                                }
                                client.decoder.take_frame();
                            }
                        }
                    }
                    Err(error) if is_would_block(&error) => break,
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        client.read_open = false;
                        break;
                    }
                }
            }
        }
        for message in messages {
            match message {
                Message::Request(request) => self.admit(token, request),
                // Health probes are answered on the I/O thread: they
                // measure routing-plane liveness, not backend state.
                Message::Ping { nonce } => {
                    if let Some(client) = self.clients.get_mut(&token) {
                        let _ = write_pong(&mut client.outbuf, nonce);
                    }
                }
                // The router is not a replica: it has no model registry to
                // mutate, and admin frames are deliberately *not* proxied —
                // mutating ops are authenticated by locality on the
                // replica, and a router relay would launder a remote peer
                // into a loopback one. A typed failure keeps the operator's
                // client from hanging and tells them where to aim.
                Message::Admin(_) => {
                    if let Some(client) = self.clients.get_mut(&token) {
                        let _ = write_admin_response(
                            &mut client.outbuf,
                            &AdminResponse {
                                ok: false,
                                draining: false,
                                generation: 0,
                                models: Vec::new(),
                                message: "admin frames are not routed; connect to the replica \
                                          directly"
                                    .to_string(),
                            },
                        );
                    }
                }
            }
        }
        self.flush_client(token);
        self.drop_if_finished(token);
    }

    /// Registers one client request and dispatches its first exchange.
    fn admit(&mut self, token: u64, request: Request) {
        let Some(client) = self.clients.get_mut(&token) else {
            // The client died earlier in this batch; with no socket to
            // answer on, routing the request would be pure waste.
            return;
        };
        client.owed += 1;
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        let arrival = Instant::now();
        let deadline = (request.deadline_ms > 0)
            .then(|| arrival + Duration::from_millis(u64::from(request.deadline_ms)));
        let key = self.next_request_key;
        self.next_request_key += 1;
        self.requests.insert(
            key,
            PendingRequest {
                client: token,
                request,
                arrival,
                deadline,
                attempts: 0,
                tried: Vec::new(),
                arms: Vec::new(),
                retry_at: None,
                hedge_at: None,
                failover_counted: false,
                last_failure: String::from("no backend available"),
                last_refusal: None,
            },
        );
        self.dispatch(key, false);
    }

    /// The adaptive hedge delay: observed p99 of winning exchanges once
    /// enough samples exist, the configured cold-start value before.
    fn hedge_delay(&self) -> Duration {
        match self.latency.p99_us {
            Some(micros) => Duration::from_micros(micros).clamp(
                Duration::from_millis(1),
                self.shared.options.exchange_timeout,
            ),
            None => self.shared.options.hedge_delay,
        }
    }

    /// One exchange attempt: pick a backend, ensure its channel, write the
    /// frame with a rewritten internal id, and arm the timeout. Returns
    /// whether an arm was actually sent. `hedge` attempts fail silently
    /// (the primary arm is still racing); primary attempts answer the
    /// client on dead ends.
    fn dispatch(&mut self, key: u64, hedge: bool) -> bool {
        let now = Instant::now();
        let options = self.shared.options;
        let hedge_delay = self.hedge_delay();
        let Some(req) = self.requests.get_mut(&key) else {
            return false;
        };
        if !hedge {
            req.retry_at = None;
        }
        let remaining = req.deadline.map(|d| d.saturating_duration_since(now));
        if remaining.is_some_and(|r| r.is_zero()) {
            if hedge {
                return false;
            }
            let id = req.request.id;
            let message = format!(
                "deadline of {} ms exhausted at the router (last failure: {})",
                req.request.deadline_ms, req.last_failure
            );
            self.shared.expired.fetch_add(1, Ordering::Relaxed);
            self.answer(
                key,
                Response::Err {
                    id,
                    code: ErrorCode::DeadlineExceeded,
                    message,
                },
            );
            return false;
        }
        let Some(req) = self.requests.get_mut(&key) else {
            return false;
        };
        let model = req.request.model;
        let Some(index) = pick_backend(&self.shared, &req.tried, model) else {
            if hedge {
                return false;
            }
            let id = req.request.id;
            // No candidate left. Distinguish "the fleet does not host this
            // model" (typed MODEL_UNAVAILABLE — retrying cannot help until
            // an operator loads it somewhere) from "the hosting replicas
            // are down/refusing" (retriable OVERLOADED).
            let hosted_anywhere = self.shared.backends.iter().any(|b| b.hosts(model));
            let (code, message) =
                if !hosted_anywhere || req.last_refusal == Some(ErrorCode::ModelUnavailable) {
                    (
                        ErrorCode::ModelUnavailable,
                        format!(
                            "model {model} is not hosted by any replica ({})",
                            req.last_failure
                        ),
                    )
                } else {
                    (
                        ErrorCode::Overloaded,
                        format!(
                            "no replica answered this request after failover ({})",
                            req.last_failure
                        ),
                    )
                };
            self.shared.failed.fetch_add(1, Ordering::Relaxed);
            self.answer(key, Response::Err { id, code, message });
            return false;
        };
        req.attempts += 1;
        req.tried.push(index);
        if self.channels[index].is_none() {
            match self.connect_channel(index) {
                Ok(channel) => self.channels[index] = Some(channel),
                Err(error) => {
                    self.fail_exchange(key, index, &error.to_string());
                    return false;
                }
            }
        }
        let internal = self.next_internal_id;
        self.next_internal_id += 1;
        {
            let req = self.requests.get_mut(&key).expect("pending request");
            let channel = self.channels[index].as_mut().expect("channel just ensured");
            // Forward with the id rewritten to a channel-unique internal id
            // and the deadline decremented to what is left of the client's
            // budget; the stored request keeps the client's view for the
            // eventual answer and any retry.
            let hop_deadline_ms = match remaining {
                Some(left) => (left.as_millis().min(u128::from(u32::MAX)) as u32).max(1),
                None => 0,
            };
            let request = &req.request;
            let _ = write_request_v3(
                &mut channel.outbuf,
                internal,
                request.model,
                hop_deadline_ms,
                request.shape,
                &request.pixels,
            );
            let timeout = match remaining {
                Some(left) => options
                    .exchange_timeout
                    .min(left + Duration::from_millis(50)),
                None => options.exchange_timeout,
            };
            req.arms.push((
                internal,
                Arm {
                    backend: index,
                    sent_at: now,
                    timeout_at: now + timeout,
                    deadline_capped: timeout < options.exchange_timeout,
                    hedge,
                },
            ));
            self.arm_index.insert(internal, key);
            self.shared.backends[index]
                .in_flight
                .fetch_add(1, Ordering::Relaxed);
            // Arm the hedge on the first exchange only: one primary, at
            // most one hedge, and never past the deadline or attempt cap.
            if options.hedge
                && !hedge
                && req.hedge_at.is_none()
                && self.shared.backends.len() > 1
                && req.attempts < options.max_attempts.max(1)
            {
                let fire_at = now + hedge_delay;
                if req.deadline.is_none_or(|deadline| fire_at < deadline) {
                    req.hedge_at = Some(fire_at);
                }
            }
        }
        self.flush_channel(index);
        true
    }

    /// Dials a backend and registers the channel. The connect itself is
    /// blocking (bounded by `connect_timeout`) — the deliberate trade of a
    /// std-only reactor without connect-progress polling: a refused dial
    /// fails in microseconds on loopback, and a blackholed one stalls the
    /// loop at most once per breaker cooldown.
    fn connect_channel(&mut self, index: usize) -> io::Result<Channel> {
        use crate::reactor::Interest;
        let addr = self.shared.backends[index].addr;
        let stream = TcpStream::connect_timeout(&addr, self.shared.options.connect_timeout)?;
        // Many small frames from many clients multiplex here; Nagle would
        // batch them against the delayed-ACK clock.
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        self.poller
            .register(&stream, TOKEN_FIRST_CHANNEL + index as u64, Interest::Read)?;
        Ok(Channel {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            out_offset: 0,
            last_write_progress: Instant::now(),
            interest: Interest::Read,
        })
    }

    /// Reads everything a channel has and resolves answered arms; any
    /// transport or framing failure kills the whole channel.
    fn channel_readable(&mut self, index: usize) {
        let mut responses: Vec<Response> = Vec::new();
        let mut failure: Option<String> = None;
        {
            let Some(channel) = self.channels[index].as_mut() else {
                return;
            };
            'read: loop {
                match channel.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        failure = Some(String::from("backend closed the channel"));
                        break;
                    }
                    Ok(bytes) => {
                        let mut slice = &self.scratch[..bytes];
                        while !slice.is_empty() {
                            match channel.decoder.feed(slice) {
                                Ok(consumed) => slice = &slice[consumed..],
                                Err(error) => {
                                    // Corrupt or misframed bytes: nothing
                                    // after this point on the stream can be
                                    // trusted or even re-delimited.
                                    failure = Some(format!("channel framing error: {error}"));
                                    break 'read;
                                }
                            }
                            if let Some(payload) = channel.decoder.frame() {
                                match decode_response(payload) {
                                    Ok(response) => responses.push(response),
                                    Err(error) => {
                                        failure =
                                            Some(format!("malformed backend response: {error}"));
                                        channel.decoder.take_frame();
                                        break 'read;
                                    }
                                }
                                channel.decoder.take_frame();
                            }
                        }
                    }
                    Err(error) if is_would_block(&error) => break,
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                    Err(error) => {
                        failure = Some(error.to_string());
                        break;
                    }
                }
            }
        }
        for response in responses {
            self.resolve_arm(response);
        }
        if let Some(error) = failure {
            self.fail_channel(index, &error);
        }
    }

    /// Correlates one backend response to its arm and settles it. A
    /// response whose internal id is unknown is a cancelled hedge loser (or
    /// an exchange the router already timed out) — dropped by design.
    fn resolve_arm(&mut self, response: Response) {
        let internal = response.id();
        let Some(key) = self.arm_index.remove(&internal) else {
            return;
        };
        let arm = {
            let Some(req) = self.requests.get_mut(&key) else {
                return;
            };
            let Some(position) = req.arms.iter().position(|(id, _)| *id == internal) else {
                return;
            };
            req.arms.remove(position).1
        };
        let backend = &self.shared.backends[arm.backend];
        backend.in_flight.fetch_sub(1, Ordering::Relaxed);
        match refusal_code(&response) {
            None => {
                backend.breaker.on_success();
                backend.forwarded.fetch_add(1, Ordering::Relaxed);
                self.latency.record(arm.sent_at.elapsed());
                if arm.hedge {
                    self.shared.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                self.answer(key, response);
            }
            // The backend already burned the deadline; retrying cannot beat
            // it. Relay the typed expiry as-is.
            Some(ErrorCode::DeadlineExceeded) => {
                backend.breaker.on_success();
                self.shared.expired.fetch_add(1, Ordering::Relaxed);
                self.answer(key, response);
            }
            // Overloaded / shutting down / model unavailable: the replica
            // is alive and answering — a refusal is its admission control
            // (or an honest "I don't host that") working, so no breaker
            // penalty and no health demotion; just try elsewhere (unless
            // another arm is still racing).
            Some(code) => {
                backend.breaker.on_success();
                backend.failovers.fetch_add(1, Ordering::Relaxed);
                let req = self.requests.get_mut(&key).expect("pending request");
                req.last_failure = format!("backend refused: {code}");
                req.last_refusal = Some(code);
                if !req.failover_counted {
                    req.failover_counted = true;
                    self.shared.failovers.fetch_add(1, Ordering::Relaxed);
                }
                if req.arms.is_empty() {
                    self.schedule_failover(key);
                }
            }
        }
    }

    /// Books one failed exchange against a backend (breaker, health,
    /// failover counters, `last_failure`) and, if the request has no arm
    /// still racing, moves it to the failover schedule. Used for connect
    /// failures (no arm existed yet) and by [`Self::fail_arm`].
    fn fail_exchange(&mut self, key: u64, index: usize, failure: &str) {
        let backend = &self.shared.backends[index];
        backend.breaker.on_failure();
        backend.healthy.store(false, Ordering::Relaxed);
        backend.failovers.fetch_add(1, Ordering::Relaxed);
        let Some(req) = self.requests.get_mut(&key) else {
            return;
        };
        req.last_failure = failure.to_string();
        req.last_refusal = None;
        if !req.failover_counted {
            req.failover_counted = true;
            self.shared.failovers.fetch_add(1, Ordering::Relaxed);
        }
        if req.arms.is_empty() {
            self.schedule_failover(key);
        }
    }

    /// Fails one outstanding arm (timeout or channel death).
    fn fail_arm(&mut self, key: u64, internal: u64, failure: &str) {
        self.arm_index.remove(&internal);
        let arm = {
            let Some(req) = self.requests.get_mut(&key) else {
                return;
            };
            let Some(position) = req.arms.iter().position(|(id, _)| *id == internal) else {
                return;
            };
            req.arms.remove(position).1
        };
        self.shared.backends[arm.backend]
            .in_flight
            .fetch_sub(1, Ordering::Relaxed);
        self.fail_exchange(key, arm.backend, failure);
    }

    /// Kills a backend channel and fails every arm multiplexed on it. The
    /// nuclear option is deliberate: after a timeout or framing failure the
    /// stream's remaining bytes cannot be attributed to exchanges safely,
    /// and the breaker-recovery path depends on the next request dialing a
    /// fresh connection.
    fn fail_channel(&mut self, index: usize, failure: &str) {
        if let Some(channel) = self.channels[index].take() {
            let _ = self
                .poller
                .deregister(&channel.stream, TOKEN_FIRST_CHANNEL + index as u64);
        }
        let doomed: Vec<(u64, u64)> = self
            .requests
            .iter()
            .flat_map(|(&key, req)| {
                req.arms
                    .iter()
                    .filter(|(_, arm)| arm.backend == index)
                    .map(move |(internal, _)| (key, *internal))
            })
            .collect();
        for (key, internal) in doomed {
            self.fail_arm(key, internal, failure);
        }
    }

    /// Decides what happens to a request whose every arm has failed:
    /// deadline expiry, attempt-cap or budget give-up (all answered,
    /// typed), or a scheduled backoff retry.
    fn schedule_failover(&mut self, key: u64) {
        enum Plan {
            Expired(Response),
            Failed(Response),
            Scheduled,
        }
        let now = Instant::now();
        let options = self.shared.options;
        let plan = {
            let Some(req) = self.requests.get_mut(&key) else {
                return;
            };
            req.hedge_at = None;
            let remaining = req.deadline.map(|d| d.saturating_duration_since(now));
            if remaining.is_some_and(|r| r.is_zero()) {
                Plan::Expired(Response::Err {
                    id: req.request.id,
                    code: ErrorCode::DeadlineExceeded,
                    message: format!(
                        "deadline of {} ms exhausted at the router (last failure: {})",
                        req.request.deadline_ms, req.last_failure
                    ),
                })
            } else if req.attempts >= options.max_attempts.max(1) {
                // A give-up whose last word from a replica was "I don't
                // host that model" keeps the typed MODEL_UNAVAILABLE code;
                // everything else is the generic retriable give-up.
                let code = if req.last_refusal == Some(ErrorCode::ModelUnavailable) {
                    ErrorCode::ModelUnavailable
                } else {
                    ErrorCode::Overloaded
                };
                Plan::Failed(Response::Err {
                    id: req.request.id,
                    code,
                    message: format!(
                        "no replica answered this request after failover ({})",
                        req.last_failure
                    ),
                })
            } else if !self.shared.retry_budget.try_take() {
                Plan::Failed(Response::Err {
                    id: req.request.id,
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "retry budget exhausted after failover attempt (last failure: {})",
                        req.last_failure
                    ),
                })
            } else {
                let attempt = req.attempts.max(1);
                let base = options
                    .retry_backoff
                    .saturating_mul(1 << (attempt - 1).min(16));
                let mut backoff = base + retry_jitter(req.request.id, attempt, base);
                if let Some(remaining) = remaining {
                    backoff = backoff.min(remaining);
                }
                req.retry_at = Some(now + backoff);
                Plan::Scheduled
            }
        };
        match plan {
            Plan::Expired(response) => {
                self.shared.expired.fetch_add(1, Ordering::Relaxed);
                self.answer(key, response);
            }
            Plan::Failed(response) => {
                self.shared.failed.fetch_add(1, Ordering::Relaxed);
                self.answer(key, response);
            }
            Plan::Scheduled => {}
        }
    }

    /// Settles a request: releases any arms still racing (their late
    /// responses will be ignored), rewrites the response id back to the
    /// client's, emits the trace event, and queues the reply on the owning
    /// client connection.
    fn answer(&mut self, key: u64, mut response: Response) {
        let Some(mut req) = self.requests.remove(&key) else {
            return;
        };
        for (internal, arm) in req.arms.drain(..) {
            self.arm_index.remove(&internal);
            self.shared.backends[arm.backend]
                .in_flight
                .fetch_sub(1, Ordering::Relaxed);
        }
        set_response_id(&mut response, req.request.id);
        if let Some(trace) = &self.shared.trace {
            // The router sees no engine stages — its trace records outcome
            // and the time a request spent in the routing plane (including
            // failover backoffs and hedge delays).
            let outcome = match &response {
                Response::Ok { .. } => "ok",
                Response::Err { code, .. } => match code {
                    ErrorCode::DeadlineExceeded => "expired",
                    ErrorCode::Overloaded
                    | ErrorCode::ShuttingDown
                    | ErrorCode::ModelUnavailable => "refused",
                    ErrorCode::App => "failed",
                },
            };
            trace.emit(&TraceEvent {
                kind: "route",
                id: req.request.id,
                model: req.request.model,
                outcome,
                queue_us: 0,
                linger_us: 0,
                cache_fill_us: 0,
                compute_us: 0,
                total_us: crate::metrics::as_micros(req.arrival.elapsed()),
            });
        }
        let token = req.client;
        if let Some(client) = self.clients.get_mut(&token) {
            client.owed = client.owed.saturating_sub(1);
            let _ = write_response(&mut client.outbuf, &response);
        }
        self.flush_client(token);
        self.drop_if_finished(token);
    }

    /// Pushes a channel's pending output; failure kills the channel.
    fn flush_channel(&mut self, index: usize) {
        let mut failure: Option<String> = None;
        {
            let Some(channel) = self.channels[index].as_mut() else {
                return;
            };
            while channel.pending_output() {
                match channel.stream.write(&channel.outbuf[channel.out_offset..]) {
                    Ok(0) => {
                        failure = Some(String::from("backend stopped accepting bytes"));
                        break;
                    }
                    Ok(bytes) => {
                        channel.out_offset += bytes;
                        channel.last_write_progress = Instant::now();
                    }
                    Err(error) if is_would_block(&error) => break,
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                    Err(error) => {
                        failure = Some(error.to_string());
                        break;
                    }
                }
            }
            if !channel.pending_output() {
                channel.outbuf.clear();
                channel.out_offset = 0;
                channel.last_write_progress = Instant::now();
            }
        }
        if let Some(error) = failure {
            self.fail_channel(index, &error);
        }
    }

    /// Pushes a client's pending output; tolerates `WouldBlock` (write
    /// interest keeps the poller watching).
    fn flush_client(&mut self, token: u64) {
        let Some(client) = self.clients.get_mut(&token) else {
            return;
        };
        while client.pending_output() {
            match client.stream.write(&client.outbuf[client.out_offset..]) {
                Ok(0) => {
                    client.read_open = false;
                    client.outbuf.clear();
                    client.out_offset = 0;
                    break;
                }
                Ok(bytes) => {
                    client.out_offset += bytes;
                    client.last_write_progress = Instant::now();
                }
                Err(error) if is_would_block(&error) => break,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Broken pipe: the replies are undeliverable. The
                    // connection lingers until its in-flight requests
                    // resolve (their answers are then discarded here).
                    client.read_open = false;
                    client.outbuf.clear();
                    client.out_offset = 0;
                    break;
                }
            }
        }
        if !client.pending_output() {
            client.outbuf.clear();
            client.out_offset = 0;
            client.last_write_progress = Instant::now();
        }
    }

    /// Fires due timers: channel write stalls, arm timeouts, scheduled
    /// failover retries, hedges, and client write stalls.
    fn process_timers(&mut self) {
        let now = Instant::now();
        let exchange_timeout = self.shared.options.exchange_timeout;
        let max_attempts = self.shared.options.max_attempts.max(1);

        // A channel making zero write progress for the whole exchange
        // budget is as dead as one that never answers.
        let stalled: Vec<usize> = self
            .channels
            .iter()
            .enumerate()
            .filter_map(|(index, channel)| {
                channel.as_ref().and_then(|channel| {
                    (channel.pending_output()
                        && now.saturating_duration_since(channel.last_write_progress)
                            >= exchange_timeout)
                        .then_some(index)
                })
            })
            .collect();
        for index in stalled {
            self.fail_channel(index, "backend stopped draining the channel");
        }

        let mut capped: Vec<(u64, u64)> = Vec::new();
        let mut dead_channels: Vec<usize> = Vec::new();
        for (&key, req) in &self.requests {
            for (internal, arm) in &req.arms {
                if now >= arm.timeout_at {
                    if arm.deadline_capped {
                        capped.push((key, *internal));
                    } else if !dead_channels.contains(&arm.backend) {
                        dead_channels.push(arm.backend);
                    }
                }
            }
        }
        for index in dead_channels {
            self.fail_channel(index, "backend exchange timed out");
        }
        for (key, internal) in capped {
            self.fail_arm(key, internal, "deadline-capped exchange timed out");
        }

        let retries: Vec<u64> = self
            .requests
            .iter()
            .filter_map(|(&key, req)| req.retry_at.is_some_and(|at| now >= at).then_some(key))
            .collect();
        for key in retries {
            self.dispatch(key, false);
        }

        let hedges: Vec<u64> = self
            .requests
            .iter()
            .filter_map(|(&key, req)| req.hedge_at.is_some_and(|at| now >= at).then_some(key))
            .collect();
        for key in hedges {
            let eligible = match self.requests.get_mut(&key) {
                Some(req) => {
                    req.hedge_at = None;
                    !req.arms.is_empty() && req.attempts < max_attempts
                }
                None => false,
            };
            // A hedge is load the client didn't ask for twice; it pays from
            // the same budget as retries so a sitewide slowdown cannot
            // double the offered load.
            if eligible && self.shared.retry_budget.try_take() && self.dispatch(key, true) {
                self.shared.hedges.fetch_add(1, Ordering::Relaxed);
            }
        }

        let wedged: Vec<u64> = self
            .clients
            .iter()
            .filter(|(_, client)| {
                client.pending_output()
                    && now.saturating_duration_since(client.last_write_progress) >= exchange_timeout
            })
            .map(|(&token, _)| token)
            .collect();
        for token in wedged {
            if let Some(client) = self.clients.get_mut(&token) {
                // Zero write progress for the whole budget: the client is
                // wedged, its buffered replies are undeliverable.
                client.outbuf.clear();
                client.out_offset = 0;
                client.read_open = false;
            }
            self.drop_if_finished(token);
        }
    }

    /// Brings every socket's registered poller interest in line with its
    /// state.
    fn reconcile_interest(&mut self) {
        for (&token, client) in &mut self.clients {
            let desired = client.desired_interest();
            if desired != client.interest
                && self
                    .poller
                    .reregister(&client.stream, token, desired)
                    .is_ok()
            {
                client.interest = desired;
            }
        }
        for (index, channel) in self.channels.iter_mut().enumerate() {
            let Some(channel) = channel.as_mut() else {
                continue;
            };
            let desired = channel.desired_interest();
            if desired != channel.interest
                && self
                    .poller
                    .reregister(&channel.stream, TOKEN_FIRST_CHANNEL + index as u64, desired)
                    .is_ok()
            {
                channel.interest = desired;
            }
        }
    }

    fn drop_if_finished(&mut self, token: u64) {
        if self.clients.get(&token).is_some_and(ClientConn::finished) {
            self.drop_client(token);
        }
    }

    fn drop_client(&mut self, token: u64) {
        if let Some(client) = self.clients.remove(&token) {
            let _ = self.poller.deregister(&client.stream, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SHUTTING_DOWN_MESSAGE;

    /// An address nothing is listening on (bound then immediately freed).
    fn dead_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
    }

    fn shared_with_options(backends: usize, options: RouterOptions) -> RouterShared {
        RouterShared {
            backends: (0..backends)
                .map(|_| Backend::new(dead_addr(), &options))
                .collect(),
            retry_budget: RetryBudget::new(options.retry_budget, options.retry_refill),
            options,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            probe_nonce: AtomicU64::new(1),
            trace: None,
        }
    }

    fn shared_with(backends: usize) -> RouterShared {
        shared_with_options(backends, RouterOptions::default())
    }

    /// Options for give-up tests: no health probes racing the assertions.
    fn quiet_options() -> RouterOptions {
        RouterOptions {
            health_interval: Duration::from_secs(60),
            connect_timeout: Duration::from_millis(500),
            ..RouterOptions::default()
        }
    }

    fn spawn_over(backends: Vec<SocketAddr>, options: RouterOptions) -> RouterHandle {
        spawn_router(TcpListener::bind("127.0.0.1:0").unwrap(), backends, options).unwrap()
    }

    #[test]
    fn pick_prefers_least_loaded_healthy_backend() {
        let shared = shared_with(3);
        shared.backends[0].in_flight.store(4, Ordering::Relaxed);
        shared.backends[1].in_flight.store(1, Ordering::Relaxed);
        shared.backends[2].in_flight.store(2, Ordering::Relaxed);
        assert_eq!(pick_backend(&shared, &[], 0), Some(1));
        // An excluded backend is never re-picked, even when least loaded.
        assert_eq!(pick_backend(&shared, &[1], 0), Some(2));
        // An unhealthy backend loses to a busier healthy one...
        shared.backends[1].healthy.store(false, Ordering::Relaxed);
        assert_eq!(pick_backend(&shared, &[], 0), Some(2));
        // ...but when nothing is healthy, the least-loaded one is tried
        // anyway instead of giving up.
        for backend in &shared.backends {
            backend.healthy.store(false, Ordering::Relaxed);
        }
        assert_eq!(pick_backend(&shared, &[], 0), Some(1));
        // A fully excluded set yields nothing.
        let single = shared_with(1);
        assert_eq!(pick_backend(&single, &[0], 0), None);
    }

    #[test]
    fn pick_routes_by_advertised_model_set() {
        let shared = shared_with(3);
        // Heterogeneous fleet: backend 0 hosts {0, 1}, backend 1 hosts
        // {1, 2}, backend 2 never answered a status exchange (unknown set).
        *shared.backends[0].models.lock().unwrap() = Some(vec![0, 1]);
        *shared.backends[1].models.lock().unwrap() = Some(vec![1, 2]);
        shared.backends[0].in_flight.store(1, Ordering::Relaxed);
        shared.backends[1].in_flight.store(2, Ordering::Relaxed);
        shared.backends[2].in_flight.store(0, Ordering::Relaxed);
        // The unknown-set backend is assumed to host everything, so the
        // least-loaded tie goes to it; exclude it to see the advertised
        // sets drive the choice.
        assert_eq!(pick_backend(&shared, &[2], 0), Some(0));
        assert_eq!(pick_backend(&shared, &[2], 2), Some(1));
        // Model 1 is on both: least-loaded wins.
        assert_eq!(pick_backend(&shared, &[2], 1), Some(0));
        // A model no advertised set contains still reaches the unknown-set
        // backend (bootstrap must not black-hole), and nothing once that is
        // excluded too.
        assert_eq!(pick_backend(&shared, &[], 9), Some(2));
        assert_eq!(pick_backend(&shared, &[2], 9), None);
        assert!(shared.backends[2].hosts(9), "unknown set assumes hosting");
        assert!(!shared.backends[0].hosts(9));
    }

    #[test]
    fn pick_skips_backends_with_open_breakers() {
        let shared = shared_with_options(
            2,
            RouterOptions {
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_secs(60),
                ..RouterOptions::default()
            },
        );
        shared.backends[0].breaker.on_failure();
        assert!(shared.backends[0].breaker.is_open());
        assert_eq!(pick_backend(&shared, &[], 0), Some(1));
        shared.backends[1].breaker.on_failure();
        assert_eq!(
            pick_backend(&shared, &[], 0),
            None,
            "all breakers open must yield no candidate, not a panic"
        );
    }

    #[test]
    fn breaker_trips_half_opens_and_recovers() {
        let breaker = CircuitBreaker::new(2, Duration::from_millis(30));
        assert!(breaker.allow());
        breaker.on_failure();
        assert!(
            breaker.allow(),
            "one failure below threshold keeps it closed"
        );
        breaker.on_failure();
        assert!(breaker.is_open());
        assert!(!breaker.allow(), "an open breaker rejects traffic");
        assert_eq!(breaker.trips.load(Ordering::Relaxed), 1);
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            breaker.allow(),
            "cooldown elapsed: half-open admits a trial"
        );
        assert!(!breaker.is_open());
        // A half-open trial failure re-trips immediately (no threshold).
        breaker.on_failure();
        assert!(breaker.is_open());
        assert_eq!(breaker.trips.load(Ordering::Relaxed), 2);
        std::thread::sleep(Duration::from_millis(40));
        assert!(breaker.allow());
        breaker.on_success();
        assert!(!breaker.is_open());
        assert!(breaker.allow(), "a successful trial closes the breaker");
        // Consecutive-failure count reset: one new failure stays closed.
        breaker.on_failure();
        assert!(!breaker.is_open());
    }

    #[test]
    fn retry_budget_drains_and_refills() {
        let budget = RetryBudget::new(2, Duration::from_millis(25));
        assert!(budget.try_take());
        assert!(budget.try_take());
        assert!(!budget.try_take(), "an empty bucket must refuse");
        std::thread::sleep(Duration::from_millis(40));
        assert!(budget.try_take(), "tokens refill over time");
        // Zero capacity disables retries outright.
        let none = RetryBudget::new(0, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!none.try_take(), "capacity caps the refill");
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        let cap = Duration::from_millis(40);
        let a = retry_jitter(7, 1, cap);
        assert_eq!(a, retry_jitter(7, 1, cap), "same key, same jitter");
        assert_ne!(
            retry_jitter(7, 1, cap),
            retry_jitter(8, 1, cap),
            "different requests must spread"
        );
        for id in 0..64 {
            assert!(retry_jitter(id, 1, cap) < cap);
        }
    }

    #[test]
    fn refusal_codes_classify_retriability() {
        // Typed refusals.
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::ModelUnavailable,
        ] {
            let refusal = Response::Err {
                id: 1,
                code,
                message: "busy".into(),
            };
            assert_eq!(refusal_code(&refusal), Some(code));
        }
        // Application errors and successes are relayed, not retried — even
        // an application error whose message reads like a shutdown refusal.
        assert_eq!(
            refusal_code(&Response::app_err(1, SHUTTING_DOWN_MESSAGE)),
            None
        );
        assert_eq!(
            refusal_code(&Response::app_err(
                1,
                "shape [0, 0, 0] declares a zero-length stream"
            )),
            None
        );
        assert_eq!(
            refusal_code(&Response::Ok {
                id: 1,
                argmax: 0,
                logits: vec![0.0],
            }),
            None
        );
    }

    #[test]
    fn latency_window_tracks_p99_of_recent_samples() {
        let mut window = LatencyWindow::new();
        assert_eq!(window.p99_us, None, "no estimate before any recompute");
        for _ in 0..15 {
            window.record(Duration::from_millis(2));
        }
        assert_eq!(window.p99_us, None, "recompute cadence not reached yet");
        window.record(Duration::from_millis(50));
        let p99 = window.p99_us.expect("recompute at the cadence");
        assert_eq!(p99, 50_000, "one outlier in sixteen is the p99");
    }

    #[test]
    fn failover_gives_up_after_one_resend_with_an_error_reply() {
        // Two backends, neither listening: the first exchange fails, the
        // failover exchange fails, and the client gets a typed retriable
        // error response — never a hang, never a third attempt.
        let router = spawn_over(vec![dead_addr(), dead_addr()], quiet_options());
        let stream = TcpStream::connect(router.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_request_v3(&mut writer, 42, 0, 0, [1, 1, 1], &[0.5]).unwrap();
        let mut reader = BufReader::new(stream);
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("typed reply")
        {
            Response::Err { id, code, message } => {
                assert_eq!(id, 42);
                assert_eq!(code, ErrorCode::Overloaded, "give-up must be retriable");
                assert!(message.contains("failover"), "{message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        let stats = router.stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.failed, 1);
        let attempts: u64 = stats.backends.iter().map(|b| b.failovers).sum();
        assert_eq!(attempts, 2, "exactly two exchanges may be attempted");
        for backend in &stats.backends {
            assert_eq!(backend.in_flight, 0);
        }
        router.shutdown();
    }

    #[test]
    fn exhausted_retry_budget_fails_fast_with_a_typed_error() {
        let router = spawn_over(
            vec![dead_addr(), dead_addr()],
            RouterOptions {
                retry_budget: 0,
                ..quiet_options()
            },
        );
        let stream = TcpStream::connect(router.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let start = Instant::now();
        write_request_v3(&mut writer, 7, 0, 0, [1, 1, 1], &[0.5]).unwrap();
        let mut reader = BufReader::new(stream);
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("typed reply")
        {
            Response::Err { code, message, .. } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(message.contains("retry budget"), "{message}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "no-budget failure must not wait out backoffs"
        );
        let stats = router.stats();
        let attempts: u64 = stats.backends.iter().map(|b| b.failovers).sum();
        assert_eq!(attempts, 1, "without budget there is no second exchange");
        router.shutdown();
    }

    #[test]
    fn deadline_bounds_a_silent_backend_and_answers_expired() {
        // A backend that accepts (kernel backlog) but never answers: the
        // deadline-capped arm times out, the failover finds the deadline
        // spent, and the client gets a typed DEADLINE_EXCEEDED — in bounded
        // time, not after the 30 s exchange budget.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let router = spawn_over(vec![silent.local_addr().unwrap()], quiet_options());
        let stream = TcpStream::connect(router.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let start = Instant::now();
        write_request_v3(&mut writer, 9, 0, 100, [1, 1, 1], &[0.5]).unwrap();
        let mut reader = BufReader::new(stream);
        match read_frame(&mut reader, decode_response)
            .unwrap()
            .expect("typed reply")
        {
            Response::Err { id, code, .. } => {
                assert_eq!(id, 9);
                assert_eq!(code, ErrorCode::DeadlineExceeded);
            }
            other => panic!("expected a deadline error, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must bound the exchange, took {:?}",
            start.elapsed()
        );
        let stats = router.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.failed, 0);
        router.shutdown();
    }
}

//! TCP serving runtime: event-loop I/O front → micro-batches → engine
//! workers.
//!
//! Architecture (all std threads, no external dependencies):
//!
//! ```text
//!            ┌────────────── one I/O thread ──────────────┐
//! sockets ──►│ reactor poll → per-connection state machine │──► BatchQueue ──► worker 0..N
//!            │   (read → parse → enqueue → write-back)     │◄── completion queue + waker
//!            └─────────────────────────────────────────────┘
//! ```
//!
//! A single nonblocking I/O thread owns the listener and every client
//! socket through a [`crate::reactor::Poller`]; each connection is a small
//! state machine (resumable [`FrameDecoder`] in, partially-flushed output
//! buffer out) instead of a pair of parked OS threads. Workers return
//! responses through a completion queue and a [`crate::reactor::Waker`];
//! the I/O thread serializes them into the owning connection's output
//! buffer. One process therefore scales to thousands of concurrent
//! connections with a constant thread count.
//!
//! One listener serves **N compiled engines** (multi-model serving): each
//! worker owns one long-lived [`Session`] *per model*, so every model's
//! stream arena stays pooled across batches regardless of how traffic
//! interleaves. Requests address a model through the request frame's
//! `model` field. A slow client never blocks inference: its responses
//! accumulate in its output buffer (bounded by the write timeout), not on a
//! worker.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] guarantees that every request *accepted* (read
//! off a socket) before the sockets close is **answered or refused, never
//! dropped**: queued jobs are drained and served, a request that arrives
//! after the queue closed gets an explicit [`SHUTTING_DOWN_MESSAGE`]
//! refusal, and connection sockets close only after their final replies
//! flush (bounded by the write timeout). A router doing failover depends on
//! this — a silently dropped request would hang its client forever.
//!
//! ## Overload protection
//!
//! The same answer-or-refuse contract holds under load: when the batch
//! queue reaches its `max_queue` depth, new requests are *shed* with a
//! retriable [`ErrorCode::Overloaded`] reply instead of queueing unboundedly
//! (queue depth is tail latency). Requests may carry a `deadline_ms`
//! budget; a worker that picks up an already-expired request skips the
//! inference and answers [`ErrorCode::DeadlineExceeded`]. Both
//! events are counted in [`Metrics`] (`shed` / `expired`). The I/O thread
//! also enforces an idle-read timeout (a client that connects and never
//! writes is reaped), closes connections that stall mid-frame, and answers
//! protocol pings directly so health probes measure serving-plane liveness
//! without touching the compute queue.
//!
//! [`Session`]: crate::engine::Session
//! [`FrameDecoder`]: crate::proto::FrameDecoder

use crate::batch::{BatchPolicy, BatchQueue, PushRefusal};
use crate::engine::{Engine, Session};
use crate::metrics::{Metrics, Stage};
use crate::obs::{
    register_engine_metrics, register_request_metrics, MetricsRegistry, Sample, TraceEvent,
    TraceLog, WorkerStatsSlots,
};
use crate::proto::{
    checked_shape_product, decode_message, write_admin_response, write_pong, write_response,
    AdminOp, AdminResponse, ErrorCode, FrameDecoder, Message, Request, Response,
};
use crate::reactor::{Event, Interest, Poller, WakeReceiver, Waker};
use sc_nn::tensor::Tensor;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Error message sent, with [`ErrorCode::ShuttingDown`], for a request
/// accepted while the server is draining.
pub const SHUTTING_DOWN_MESSAGE: &str = "shutting down";

/// How long a connection with pending output may make zero write progress
/// before it is closed. A client that stops draining its socket accumulates
/// replies in its output buffer; without this bound a wedged client would
/// pin its buffered replies (and delay shutdown's final flush) forever. The
/// timeout is progress-based, so arbitrarily slow-but-draining clients are
/// unaffected.
const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Event-loop tick: the granularity at which idle/stall/write timeouts are
/// checked when no socket activity wakes the loop earlier.
const TICK: Duration = Duration::from_millis(25);

/// Reserved poller token for the listener.
const TOKEN_LISTENER: u64 = 0;
/// Reserved poller token for the completion-queue waker.
const TOKEN_WAKE: u64 = 1;
/// First token handed to a client connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Serving-runtime options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Micro-batch formation policy (including the `max_queue` admission
    /// cap).
    pub policy: BatchPolicy,
    /// Number of inference workers (`0` = `sc_core::parallel::max_threads()`).
    pub workers: usize,
    /// How long a connection may sit idle (no bytes from the client) before
    /// the server closes it. Zero disables the idle timeout.
    pub idle_timeout: Duration,
    /// Artificial per-request compute delay — the "slow replica" mode used
    /// by the fault-injection harness and chaos tests. Zero (the default)
    /// means no delay.
    pub compute_delay: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            policy: BatchPolicy::default(),
            workers: 0,
            idle_timeout: Duration::from_secs(60),
            compute_delay: Duration::ZERO,
        }
    }
}

/// The mutable model registry behind one listener: which engines this
/// replica hosts, right now.
///
/// Admin frames mutate it at runtime (load-model / unload-model / drain),
/// so a replica's model set is fleet state, not a process constant. Every mutation bumps a monotonically increasing
/// **generation** under the slot write lock:
///
/// * workers snapshot the slots once and re-snapshot only when the
///   generation moved, keeping the [`Session`]s of every engine that
///   survived (`Arc::ptr_eq`) — steady-state serving never takes the lock
///   per request;
/// * routers learn the generation (and model set) from admin status
///   exchanges on health probes and can skip reconciliation when it has
///   not moved.
///
/// Generations start at 1 so `0` is free to mean "never observed" on the
/// router side. A **draining** replica refuses new requests with a
/// retriable [`ErrorCode::ShuttingDown`] while still answering pings and
/// admin status — the drain half of a zero-loss rolling restart.
pub struct ModelRegistry {
    slots: RwLock<Vec<Option<Arc<Engine>>>>,
    generation: AtomicU64,
    draining: AtomicBool,
}

impl ModelRegistry {
    /// Registry hosting `engines`, engine `i` as model `i`, at generation 1.
    pub fn new(engines: Vec<Arc<Engine>>) -> Self {
        Self {
            slots: RwLock::new(engines.into_iter().map(Some).collect()),
            generation: AtomicU64::new(1),
            draining: AtomicBool::new(false),
        }
    }

    /// Consistent view: the generation together with the slots it
    /// describes. Mutators bump the generation while still holding the
    /// write lock, so a snapshot never pairs new slots with a stale
    /// generation.
    pub fn snapshot(&self) -> (u64, Vec<Option<Arc<Engine>>>) {
        let slots = self.slots.read().expect("model registry");
        (self.generation.load(Ordering::SeqCst), slots.clone())
    }

    /// Current registry generation (monotonic, starts at 1).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Whether this replica is draining (refusing new requests).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Sorted ids of the models currently hosted.
    pub fn models(&self) -> Vec<u16> {
        let slots = self.slots.read().expect("model registry");
        slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|_| id as u16))
            .collect()
    }

    /// Number of models currently hosted.
    pub fn model_count(&self) -> usize {
        let slots = self.slots.read().expect("model registry");
        slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// Installs `engine` as `model`, growing the slot table if needed.
    /// Replacing a hosted model is allowed (that is what a weight refresh
    /// is). Bumps the generation.
    pub fn load(&self, model: u16, engine: Arc<Engine>) {
        let mut slots = self.slots.write().expect("model registry");
        let index = usize::from(model);
        if slots.len() <= index {
            slots.resize(index + 1, None);
        }
        slots[index] = Some(engine);
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Removes `model` from the registry. Bumps the generation on success.
    ///
    /// # Errors
    ///
    /// Returns a message naming the model if it is not currently hosted.
    pub fn unload(&self, model: u16) -> Result<(), String> {
        let mut slots = self.slots.write().expect("model registry");
        match slots.get_mut(usize::from(model)) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.generation.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            _ => Err(format!("model {model} is not hosted by this replica")),
        }
    }

    /// Enters drain mode: new requests are refused with a retriable
    /// [`ErrorCode::ShuttingDown`] while in-flight work finishes. Bumps the
    /// generation so routers notice on their next status exchange.
    pub fn drain(&self) {
        let _slots = self.slots.write().expect("model registry");
        self.draining.store(true, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The admin-status snapshot every admin response carries.
    pub(crate) fn admin_response(&self, ok: bool, message: String) -> AdminResponse {
        let (generation, _) = self.snapshot();
        AdminResponse {
            ok,
            draining: self.draining(),
            generation,
            models: self.models(),
            message,
        }
    }
}

/// Completion queue: workers push finished responses here and kick the I/O
/// thread, which serializes them into the owning connection's output buffer.
pub(crate) struct Completions {
    pending: Mutex<Vec<(u64, Response)>>,
    waker: Waker,
}

impl Completions {
    fn new(waker: Waker) -> Self {
        Self {
            pending: Mutex::new(Vec::new()),
            waker,
        }
    }

    fn push(&self, token: u64, response: Response) {
        self.pending
            .lock()
            .expect("completion queue")
            .push((token, response));
        self.waker.wake();
    }

    fn drain(&self, into: &mut Vec<(u64, Response)>) {
        into.clear();
        std::mem::swap(&mut *self.pending.lock().expect("completion queue"), into);
    }
}

/// A worker's path back to the connection that owns a request.
#[derive(Clone)]
pub(crate) struct ReplySink {
    token: u64,
    completions: Arc<Completions>,
}

impl ReplySink {
    pub(crate) fn send(&self, response: Response) {
        self.completions.push(self.token, response);
    }
}

/// One queued request with its arrival time, deadline, and reply path.
pub(crate) struct Job {
    request: Request,
    enqueued: Instant,
    /// Absolute deadline derived from the request's `deadline_ms` budget at
    /// arrival (`None` = no deadline).
    deadline: Option<Instant>,
    reply: ReplySink,
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<BatchQueue<Job>>,
    metrics: Arc<Metrics>,
    metrics_registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
    halt: Arc<AtomicBool>,
    waker: Arc<Completions>,
    io_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<ModelRegistry>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared serving metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The server's metric registry: request counters, latency and
    /// per-stage summaries, queue depth, and cache/arena stats. Hand this to
    /// [`crate::admin::spawn_admin`] to expose a live scrape endpoint.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics_registry)
    }

    /// Number of models (engines) this server hosts right now. Admin
    /// load/unload frames change this at runtime.
    pub fn models(&self) -> usize {
        self.registry.model_count()
    }

    /// The live model registry behind this server — the same one admin
    /// frames mutate. In-process tests and tooling can drive
    /// load/unload/drain through it directly.
    pub fn model_registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Stops accepting and shuts down gracefully: every request accepted
    /// before the sockets close is answered (queued jobs drain through the
    /// workers) or refused with [`SHUTTING_DOWN_MESSAGE`]; then connection
    /// sockets close once their final replies flush, so `shutdown` returns
    /// without waiting for clients to disconnect (a client that wedged its
    /// socket without draining replies delays it at most the write timeout).
    pub fn shutdown(mut self) {
        // Refuse new work first: queued jobs keep draining, later pushes
        // fail and the event loop answers them with a refusal.
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
        self.waker.waker.wake();
        // Workers drain every queued job and push its reply before exiting.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Only now tell the I/O thread to finish: every completion is in
        // the queue, so it can flush final replies and close the sockets.
        self.halt.store(true, Ordering::SeqCst);
        self.waker.waker.wake();
        if let Some(io) = self.io_thread.take() {
            let _ = io.join();
        }
    }
}

/// Binds a TCP listener with `SO_REUSEADDR` set *before* the bind.
///
/// The rolling-upgrade path needs this: when a replica restarts, its old
/// incarnation's connections linger in `TIME_WAIT` on the same local port,
/// and a plain [`TcpListener::bind`] to the advertised address fails with
/// `AddrInUse` until the kernel's 2·MSL timer expires — minutes, not the
/// sub-second rejoin the fleet expects. `SO_REUSEADDR` must be set on the
/// raw socket before `bind`, which std's listener API cannot express, so
/// this drops to the same direct-syscall level as the reactor's epoll
/// backend (std already links libc on every unix target).
///
/// # Errors
///
/// Propagates the failing syscall's `errno` as an [`std::io::Error`]
/// (`socket` / `setsockopt` / `bind` / `listen`).
#[cfg(target_os = "linux")]
pub fn bind_reusable(addr: SocketAddr) -> std::io::Result<TcpListener> {
    use std::os::unix::io::FromRawFd;

    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    // `sockaddr_in` / `sockaddr_in6`, laid out by hand: family in host
    // order, port and address in network order.
    let (domain, sockaddr): (i32, Vec<u8>) = match addr {
        SocketAddr::V4(v4) => {
            let mut raw = vec![0u8; 16];
            raw[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            raw[2..4].copy_from_slice(&v4.port().to_be_bytes());
            raw[4..8].copy_from_slice(&v4.ip().octets());
            (AF_INET, raw)
        }
        SocketAddr::V6(v6) => {
            let mut raw = vec![0u8; 28];
            raw[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            raw[2..4].copy_from_slice(&v6.port().to_be_bytes());
            raw[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            raw[8..24].copy_from_slice(&v6.ip().octets());
            raw[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (AF_INET6, raw)
        }
    };

    unsafe {
        let fd = socket(domain, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        if setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            &one,
            std::mem::size_of::<i32>() as u32,
        ) < 0
            || bind(fd, sockaddr.as_ptr(), sockaddr.len() as u32) < 0
            || listen(fd, 128) < 0
        {
            let error = std::io::Error::last_os_error();
            let _ = close(fd);
            return Err(error);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Portable fallback: a plain bind. Non-Linux platforms may need to wait
/// out `TIME_WAIT` when rebinding a just-vacated address.
#[cfg(not(target_os = "linux"))]
pub fn bind_reusable(addr: SocketAddr) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Starts serving a single engine on `listener` (model 0) and returns
/// immediately.
///
/// # Errors
///
/// Returns an I/O error if the listener's local address cannot be read.
pub fn spawn(
    engine: Arc<Engine>,
    listener: TcpListener,
    options: ServerOptions,
) -> std::io::Result<ServerHandle> {
    spawn_multi(vec![engine], listener, options)
}

/// Starts serving `engines` on one listener and returns immediately.
///
/// Engine `i` is model `i` of the request frame's `model` field. Each
/// worker keeps one [`Session`] per model, so the per-model stream arenas
/// stay pooled under interleaved traffic.
///
/// # Errors
///
/// Returns `InvalidInput` for an empty engine list, and propagates an I/O
/// error if the listener cannot be switched to nonblocking mode or
/// registered with the reactor.
pub fn spawn_multi(
    engines: Vec<Arc<Engine>>,
    listener: TcpListener,
    options: ServerOptions,
) -> std::io::Result<ServerHandle> {
    spawn_multi_observed(engines, listener, options, None)
}

/// [`spawn_multi`] with an optional sampled request-trace log.
///
/// Sampled requests emit one JSONL [`TraceEvent`] each — stage breakdown
/// (queue-wait / linger / cache-fill / compute) for served requests, a
/// compute-free `refused` event for shed or draining refusals.
///
/// # Errors
///
/// Returns `InvalidInput` for an empty engine list, and propagates I/O
/// errors from reactor setup.
pub fn spawn_multi_observed(
    engines: Vec<Arc<Engine>>,
    listener: TcpListener,
    options: ServerOptions,
    trace: Option<TraceLog>,
) -> std::io::Result<ServerHandle> {
    if engines.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "spawn_multi needs at least one engine",
        ));
    }
    let addr = listener.local_addr()?;
    let queue = Arc::new(BatchQueue::<Job>::new(options.policy));
    let metrics = Arc::new(Metrics::new());
    let stop = Arc::new(AtomicBool::new(false));
    let halt = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(ModelRegistry::new(engines));

    let worker_count = if options.workers == 0 {
        sc_core::parallel::max_threads()
    } else {
        options.workers
    };
    // With several plain-thread workers the machine is already saturated at
    // request granularity; letting each worker's inferences additionally
    // fan units across scoped threads would oversubscribe the CPU up to
    // workers × threads (the engine's nested-fan-out guard only covers
    // `sc_core::parallel` workers, not these threads). A single worker
    // keeps unit fan-out: that is exactly the single-outstanding-request
    // latency case it exists for.
    let unit_fan_out = worker_count.max(1) == 1;
    let worker_slots = Arc::new(WorkerStatsSlots::new(worker_count.max(1)));
    let workers: Vec<JoinHandle<()>> = (0..worker_count.max(1))
        .map(|index| {
            let registry = Arc::clone(&registry);
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let compute_delay = options.compute_delay;
            let slots = Arc::clone(&worker_slots);
            let trace = trace.clone();
            std::thread::spawn(move || {
                worker_loop(
                    &registry,
                    &queue,
                    &metrics,
                    unit_fan_out,
                    compute_delay,
                    &slots,
                    index,
                    trace.as_ref(),
                );
            })
        })
        .collect();

    let metrics_registry = Arc::new(MetricsRegistry::new());
    register_request_metrics(&metrics_registry, Arc::clone(&metrics));
    {
        let queue = Arc::clone(&queue);
        metrics_registry.register(move |out| {
            out.push(Sample::gauge("sc_queue_depth", vec![], queue.len() as f64));
        });
    }
    {
        // Live fleet-state gauges: the registry is mutable at runtime, so
        // these read it at scrape time instead of freezing spawn-time
        // values. The router exports the same families per backend
        // (`sc_backend_models` / `sc_backend_registry_generation`).
        let registry = Arc::clone(&registry);
        metrics_registry.register(move |out| {
            out.push(Sample::gauge(
                "sc_models",
                vec![],
                registry.model_count() as f64,
            ));
            out.push(Sample::gauge(
                "sc_registry_generation",
                vec![],
                registry.generation() as f64,
            ));
            out.push(Sample::gauge(
                "sc_draining",
                vec![],
                f64::from(u8::from(registry.draining())),
            ));
        });
    }
    register_engine_metrics(&metrics_registry, Arc::clone(&worker_slots));

    let (io_loop, completions) = IoLoop::build(
        listener,
        Arc::clone(&queue),
        Arc::clone(&metrics),
        Arc::clone(&registry),
        options.idle_timeout,
        trace,
        Arc::clone(&stop),
        Arc::clone(&halt),
    )?;
    let io_thread = std::thread::spawn(move || io_loop.run());

    Ok(ServerHandle {
        addr,
        queue,
        metrics,
        metrics_registry,
        stop,
        halt,
        waker: completions,
        io_thread: Some(io_thread),
        workers,
        registry,
    })
}

/// Whether an I/O error means "the socket isn't ready" rather than "the
/// socket is broken". Shared with the router's event loop, which follows
/// the same nonblocking read/write discipline.
pub(crate) fn is_would_block(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Per-connection state machine: resumable frame decoding in, a
/// partially-flushed output buffer out.
struct Conn {
    stream: TcpStream,
    /// Whether the peer connected from a loopback address, captured at
    /// accept time. Mutating admin ops (load / unload / drain) are
    /// authenticated by locality: only an operator on the replica's own
    /// host may change its model set. Status stays open to remote peers —
    /// the router's health probes depend on it.
    peer_is_loopback: bool,
    decoder: FrameDecoder,
    /// Serialized-but-unflushed replies; `out_offset` marks the flushed
    /// prefix.
    outbuf: Vec<u8>,
    out_offset: usize,
    /// Last moment bytes arrived from the client (idle/stall clock).
    last_activity: Instant,
    /// Last moment a write made progress while output was pending.
    last_write_progress: Instant,
    /// Requests handed to the compute queue whose replies are still owed.
    in_flight: usize,
    /// The read side is done (client EOF, idle reap, protocol error, or
    /// server drain); the connection lives on only to flush owed replies.
    read_open: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn pending_output(&self) -> bool {
        self.out_offset < self.outbuf.len()
    }

    /// The interest this connection currently needs.
    fn desired_interest(&self) -> Interest {
        match (self.read_open, self.pending_output()) {
            (true, true) => Interest::ReadWrite,
            (true, false) => Interest::Read,
            (false, _) => Interest::Write,
        }
    }

    /// Whether the connection has nothing left to do and can be dropped.
    fn finished(&self) -> bool {
        !self.read_open && self.in_flight == 0 && !self.pending_output()
    }
}

/// The event-loop I/O front.
struct IoLoop {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReceiver,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    queue: Arc<BatchQueue<Job>>,
    metrics: Arc<Metrics>,
    registry: Arc<ModelRegistry>,
    idle_timeout: Duration,
    trace: Option<TraceLog>,
    stop: Arc<AtomicBool>,
    halt: Arc<AtomicBool>,
    /// Read scratch shared across connections.
    scratch: Vec<u8>,
}

impl IoLoop {
    #[allow(clippy::too_many_arguments)]
    fn build(
        listener: TcpListener,
        queue: Arc<BatchQueue<Job>>,
        metrics: Arc<Metrics>,
        registry: Arc<ModelRegistry>,
        idle_timeout: Duration,
        trace: Option<TraceLog>,
        stop: Arc<AtomicBool>,
        halt: Arc<AtomicBool>,
    ) -> std::io::Result<(Self, Arc<Completions>)> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = Waker::pair()?;
        poller.register(&listener, TOKEN_LISTENER, Interest::Read)?;
        poller.register(wake_rx.socket(), TOKEN_WAKE, Interest::Read)?;
        let completions = Arc::new(Completions::new(waker));
        Ok((
            Self {
                poller,
                listener: Some(listener),
                wake_rx,
                completions: Arc::clone(&completions),
                conns: HashMap::new(),
                next_token: TOKEN_FIRST_CONN,
                queue,
                metrics,
                registry,
                idle_timeout,
                trace,
                stop,
                halt,
                scratch: vec![0; 64 << 10],
            },
            completions,
        ))
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut finished: Vec<(u64, Response)> = Vec::new();
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                // A broken poller cannot serve; drop everything so clients
                // see clean disconnects instead of a wedged server.
                return;
            }
            let drained_wake = events.iter().any(|event| event.token == TOKEN_WAKE);
            if drained_wake {
                self.wake_rx.drain();
            }
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {}
                    token => {
                        if event.readable {
                            self.read_ready(token);
                        }
                        if event.writable {
                            self.flush_conn(token);
                        }
                    }
                }
            }
            // Worker completions → owning connection's output buffer.
            self.completions.drain(&mut finished);
            for (token, response) in finished.drain(..) {
                self.complete(token, response);
            }
            if self.stop.load(Ordering::SeqCst) {
                // Drain mode: no new connections. (In-flight connections
                // keep being read; the closed queue turns their requests
                // into SHUTTING_DOWN refusals.)
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.deregister(&listener, TOKEN_LISTENER);
                }
            }
            if self.halt.load(Ordering::SeqCst) {
                // Final flush: the workers are gone and every owed reply is
                // in the output buffers. Stop reading, flush, close.
                for conn in self.conns.values_mut() {
                    conn.read_open = false;
                    conn.in_flight = 0;
                }
            }
            self.enforce_timeouts();
            self.reconcile_interest();
            if self.halt.load(Ordering::SeqCst) && self.conns.is_empty() {
                return;
            }
        }
    }

    /// Accepts until the listener runs dry.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let peer_is_loopback = peer.ip().is_loopback();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::Read)
                        .is_err()
                    {
                        continue;
                    }
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            peer_is_loopback,
                            decoder: FrameDecoder::new(),
                            outbuf: Vec::new(),
                            out_offset: 0,
                            last_activity: now,
                            last_write_progress: now,
                            in_flight: 0,
                            read_open: true,
                            interest: Interest::Read,
                        },
                    );
                }
                Err(error) if is_would_block(&error) => return,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept errors (aborted handshakes, fd pressure):
                // skip this readiness round rather than spinning.
                Err(_) => return,
            }
        }
    }

    /// Reads everything the socket has, feeding the resumable decoder and
    /// dispatching completed frames.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.read_open {
            return;
        }
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Clean EOF (possibly a half-close): stop reading but
                    // keep flushing replies the client is still owed.
                    conn.read_open = false;
                    break;
                }
                Ok(bytes) => {
                    conn.last_activity = Instant::now();
                    let mut slice = &self.scratch[..bytes];
                    while !slice.is_empty() {
                        match conn.decoder.feed(slice) {
                            Ok(consumed) => slice = &slice[consumed..],
                            Err(_) => {
                                // Unrecoverable framing (bad length or
                                // checksum): answer nothing for this frame —
                                // it cannot be attributed to a request id
                                // safely — and stop reading.
                                conn.read_open = false;
                                break;
                            }
                        }
                        if conn.decoder.frame().is_some() {
                            Self::dispatch_frame(
                                conn,
                                token,
                                &self.queue,
                                &self.metrics,
                                &self.registry,
                                &self.completions,
                                self.trace.as_ref(),
                            );
                            conn.decoder.take_frame();
                        }
                    }
                    if !conn.read_open {
                        break;
                    }
                }
                Err(error) if is_would_block(&error) => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.read_open = false;
                    break;
                }
            }
        }
        self.flush_conn(token);
        self.drop_if_finished(token);
    }

    /// Handles one complete frame sitting in `conn`'s decoder.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_frame(
        conn: &mut Conn,
        token: u64,
        queue: &BatchQueue<Job>,
        metrics: &Metrics,
        registry: &ModelRegistry,
        completions: &Arc<Completions>,
        trace: Option<&TraceLog>,
    ) {
        let payload = conn.decoder.frame().expect("complete frame");
        match decode_message(payload) {
            Ok(Message::Request(request)) => {
                let id = request.id;
                let model = request.model;
                let enqueued = Instant::now();
                let deadline = (request.deadline_ms > 0)
                    .then(|| enqueued + Duration::from_millis(u64::from(request.deadline_ms)));
                let refusal = if registry.draining() {
                    // Admin-initiated drain: the queue is still open (the
                    // workers are finishing in-flight jobs), but new work is
                    // refused with the same retriable contract as shutdown
                    // so the router fails it over instead of waiting.
                    Some(Response::Err {
                        id,
                        code: ErrorCode::ShuttingDown,
                        message: SHUTTING_DOWN_MESSAGE.to_string(),
                    })
                } else {
                    None
                };
                let refusal = if let Some(refusal) = refusal {
                    refusal
                } else {
                    let job = Job {
                        request,
                        enqueued,
                        deadline,
                        reply: ReplySink {
                            token,
                            completions: Arc::clone(completions),
                        },
                    };
                    match queue.push(job) {
                        Ok(()) => {
                            conn.in_flight += 1;
                            return;
                        }
                        // Admission shed: answer a retriable OVERLOADED
                        // instead of queueing into latency the client will
                        // not accept.
                        Err(PushRefusal::Full) => {
                            metrics.record_shed();
                            Response::Err {
                                id,
                                code: ErrorCode::Overloaded,
                                message: "server overloaded: request queue is full".to_string(),
                            }
                        }
                        // Server draining: refuse instead of dropping, and
                        // keep reading so every request this client already
                        // pipelined gets its own refusal until shutdown
                        // closes the socket.
                        Err(PushRefusal::Closed) => Response::Err {
                            id,
                            code: ErrorCode::ShuttingDown,
                            message: SHUTTING_DOWN_MESSAGE.to_string(),
                        },
                    }
                };
                // A refused request never reaches a worker, so it records
                // no compute span — the trace shows an all-zero breakdown.
                if let Some(trace) = trace {
                    trace.emit(&TraceEvent {
                        kind: "serve",
                        id,
                        model,
                        outcome: "refused",
                        queue_us: 0,
                        linger_us: 0,
                        cache_fill_us: 0,
                        compute_us: 0,
                        total_us: crate::metrics::as_micros(enqueued.elapsed()),
                    });
                }
                let _ = write_response(&mut conn.outbuf, &refusal);
            }
            // Health probes are answered on the I/O thread — they measure
            // serving-plane liveness (accept loop, event loop, write path),
            // deliberately not queue depth; overload is signaled by typed
            // shed replies, and must not mark a replica dead.
            Ok(Message::Ping { nonce }) => {
                let _ = write_pong(&mut conn.outbuf, nonce);
            }
            // Admin frames mutate the model registry at runtime. They are
            // handled on the event loop: inference traffic keeps flowing
            // through the workers while a model loads, at the cost of
            // stalling frame I/O for the load's duration — acceptable because a plan-store load is a
            // deserialize + weight-stream regeneration, not a training run.
            Ok(Message::Admin(op)) => {
                let response = if op.mutates() && !conn.peer_is_loopback {
                    // Authenticated by locality: a remote peer may observe
                    // (Status) but never mutate. The refusal is a typed
                    // admin response, not a disconnect, so a misconfigured
                    // operator sees *why*.
                    registry.admin_response(
                        false,
                        "admin refused: mutating ops require a loopback peer".to_string(),
                    )
                } else {
                    match op {
                        AdminOp::LoadModel { model, path } => {
                            match crate::plan_store::load_plan(std::path::Path::new(&path))
                                .and_then(|loaded| {
                                    let options = loaded.engine_options();
                                    Engine::from_plan(loaded.plan, options)
                                }) {
                                Ok(engine) => {
                                    let name = engine.model_name().to_string();
                                    registry.load(model, Arc::new(engine));
                                    registry.admin_response(
                                        true,
                                        format!("loaded {name:?} as model {model}"),
                                    )
                                }
                                Err(error) => {
                                    registry.admin_response(false, format!("load failed: {error}"))
                                }
                            }
                        }
                        AdminOp::UnloadModel { model } => match registry.unload(model) {
                            Ok(()) => {
                                registry.admin_response(true, format!("unloaded model {model}"))
                            }
                            Err(message) => registry.admin_response(false, message),
                        },
                        AdminOp::Drain => {
                            registry.drain();
                            registry.admin_response(true, "draining".to_string())
                        }
                        AdminOp::Status => registry.admin_response(true, String::new()),
                    }
                };
                let _ = write_admin_response(&mut conn.outbuf, &response);
            }
            Err(_) => {
                // Malformed payload behind a valid checksum: protocol
                // violation; stop reading this connection.
                conn.read_open = false;
            }
        }
    }

    /// Serializes a worker's response into the owning connection's output
    /// buffer and pushes bytes out.
    fn complete(&mut self, token: u64, response: Response) {
        let Some(conn) = self.conns.get_mut(&token) else {
            // The connection died while its request computed; the answer
            // has nowhere to go.
            return;
        };
        let write_started = Instant::now();
        conn.in_flight = conn.in_flight.saturating_sub(1);
        let _ = write_response(&mut conn.outbuf, &response);
        self.flush_conn(token);
        // The write-back span is the socket-side cost of shipping the
        // reply — the one stage that happens off the worker threads.
        self.metrics
            .record_stage(Stage::WriteBack, write_started.elapsed());
        self.drop_if_finished(token);
    }

    /// Pushes pending output; tolerates `WouldBlock` (write interest keeps
    /// the poller watching).
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.pending_output() {
            match conn.stream.write(&conn.outbuf[conn.out_offset..]) {
                Ok(0) => {
                    conn.read_open = false;
                    conn.outbuf.clear();
                    conn.out_offset = 0;
                    break;
                }
                Ok(bytes) => {
                    conn.out_offset += bytes;
                    conn.last_write_progress = Instant::now();
                }
                Err(error) if is_would_block(&error) => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Broken pipe: the replies are undeliverable.
                    conn.read_open = false;
                    conn.outbuf.clear();
                    conn.out_offset = 0;
                    break;
                }
            }
        }
        if !conn.pending_output() {
            conn.outbuf.clear();
            conn.out_offset = 0;
            conn.last_write_progress = Instant::now();
        }
    }

    /// Applies idle, mid-frame-stall, and write-progress timeouts.
    fn enforce_timeouts(&mut self) {
        let now = Instant::now();
        let idle = self.idle_timeout;
        // A client that stalls mid-frame cannot be resumed; it is cut after
        // a short budget (the old per-read slice), not the full idle window.
        let stall = if idle.is_zero() {
            None
        } else {
            Some(idle.clamp(Duration::from_millis(10), Duration::from_millis(250)))
        };
        let mut doomed: Vec<u64> = Vec::new();
        for (&token, conn) in &mut self.conns {
            if conn.read_open && !idle.is_zero() {
                let quiet = now.saturating_duration_since(conn.last_activity);
                let budget = if conn.decoder.mid_frame() {
                    stall.expect("stall budget exists when idle timeout set")
                } else {
                    idle
                };
                if quiet >= budget {
                    conn.read_open = false;
                }
            }
            if conn.pending_output()
                && now.saturating_duration_since(conn.last_write_progress) >= CLIENT_WRITE_TIMEOUT
            {
                // Zero write progress for the whole budget: the client is
                // wedged, its buffered replies are undeliverable.
                conn.outbuf.clear();
                conn.out_offset = 0;
                conn.read_open = false;
                conn.in_flight = 0;
            }
            if conn.finished() {
                doomed.push(token);
            }
        }
        for token in doomed {
            self.drop_conn(token);
        }
    }

    /// Brings each connection's registered poller interest in line with its
    /// state.
    fn reconcile_interest(&mut self) {
        for (&token, conn) in &mut self.conns {
            let desired = conn.desired_interest();
            if desired != conn.interest
                && self.poller.reregister(&conn.stream, token, desired).is_ok()
            {
                conn.interest = desired;
            }
        }
    }

    fn drop_if_finished(&mut self, token: u64) {
        if self.conns.get(&token).is_some_and(Conn::finished) {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(&conn.stream, token);
        }
    }
}

/// One worker's registry view: the engines of a registry generation plus a
/// [`Session`] per hosted model.
///
/// `refresh` is the cheap steady-state path: one atomic generation read per
/// batch, and only when the generation moved does it re-snapshot the slots
/// — keeping the session of every engine that survived the change
/// (`Arc::ptr_eq`), so loading model 3 never drains model 0's arena.
struct WorkerModels {
    generation: u64,
    engines: Vec<Option<Arc<Engine>>>,
    sessions: Vec<Option<Session>>,
}

impl WorkerModels {
    fn new(registry: &ModelRegistry, unit_fan_out: bool) -> Self {
        let mut models = Self {
            generation: 0,
            engines: Vec::new(),
            sessions: Vec::new(),
        };
        models.refresh(registry, unit_fan_out);
        models
    }

    fn refresh(&mut self, registry: &ModelRegistry, unit_fan_out: bool) {
        if registry.generation() == self.generation {
            return;
        }
        let (generation, engines) = registry.snapshot();
        let mut sessions: Vec<Option<Session>> = Vec::with_capacity(engines.len());
        for (slot, engine) in engines.iter().enumerate() {
            let kept = match (engine, self.engines.get(slot)) {
                (Some(new), Some(Some(old))) if Arc::ptr_eq(new, old) => {
                    self.sessions.get_mut(slot).and_then(Option::take)
                }
                _ => None,
            };
            sessions.push(match (engine, kept) {
                (Some(_), Some(session)) => Some(session),
                (Some(engine), None) => {
                    let mut session = engine.new_session();
                    session.set_unit_fan_out(unit_fan_out);
                    Some(session)
                }
                (None, _) => None,
            });
        }
        self.generation = generation;
        self.engines = engines;
        self.sessions = sessions;
    }
}

/// Worker loop: pulls micro-batches and runs them through one session per
/// model.
///
/// A job whose deadline already passed is answered
/// [`ErrorCode::DeadlineExceeded`] without touching the engine: the client
/// has stopped waiting, and spending compute on it would only push the
/// still-in-budget requests behind it past *their* deadlines. The
/// `compute_delay` sleep (the fault harness's "slow replica" mode) runs
/// before the deadline check so an injected slowdown expires deadlines the
/// way a genuinely slow replica would.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    registry: &ModelRegistry,
    queue: &BatchQueue<Job>,
    metrics: &Metrics,
    unit_fan_out: bool,
    compute_delay: Duration,
    slots: &WorkerStatsSlots,
    worker_index: usize,
    trace: Option<&TraceLog>,
) {
    let mut models = WorkerModels::new(registry, unit_fan_out);
    while let Some(batch) = queue.pop_batch() {
        // Pick up admin-driven registry changes at batch granularity: one
        // atomic load when nothing changed, a slot re-snapshot when it did.
        models.refresh(registry, unit_fan_out);
        // Everything in this batch stopped queueing the moment it was
        // popped; time spent after this point (delays, earlier batch
        // members' compute) is per-job *linger*, not queue wait.
        let popped = Instant::now();
        for job in batch {
            let queue_wait = popped.saturating_duration_since(job.enqueued);
            metrics.record_stage(Stage::QueueWait, queue_wait);
            if !compute_delay.is_zero() {
                std::thread::sleep(compute_delay);
            }
            if let Some(deadline) = job.deadline {
                if Instant::now() >= deadline {
                    metrics.record_expired();
                    if let Some(trace) = trace {
                        trace.emit(&TraceEvent {
                            kind: "serve",
                            id: job.request.id,
                            model: job.request.model,
                            outcome: "expired",
                            queue_us: crate::metrics::as_micros(queue_wait),
                            linger_us: crate::metrics::as_micros(popped.elapsed()),
                            cache_fill_us: 0,
                            compute_us: 0,
                            total_us: crate::metrics::as_micros(job.enqueued.elapsed()),
                        });
                    }
                    job.reply.send(Response::Err {
                        id: job.request.id,
                        code: ErrorCode::DeadlineExceeded,
                        message: format!(
                            "deadline of {} ms exceeded before compute started",
                            job.request.deadline_ms
                        ),
                    });
                    continue;
                }
            }
            let compute_started = Instant::now();
            let linger = compute_started.saturating_duration_since(popped);
            metrics.record_stage(Stage::Linger, linger);
            let response = serve_one(&models.engines, &mut models.sessions, &job.request);
            let compute = compute_started.elapsed();
            metrics.record_stage(Stage::Compute, compute);
            // Only the session this request's model used accumulated any
            // stream-fill time; draining all of them attributes it without
            // re-deriving the model→session mapping here.
            let cache_fill: Duration = models
                .sessions
                .iter_mut()
                .flatten()
                .map(crate::engine::Session::take_cache_fill)
                .sum();
            metrics.record_stage(Stage::CacheFill, cache_fill);
            let failed = matches!(response, Response::Err { .. });
            if failed {
                metrics.record_failure();
            } else {
                metrics.record(job.enqueued.elapsed());
            }
            if let Some(trace) = trace {
                trace.emit(&TraceEvent {
                    kind: "serve",
                    id: job.request.id,
                    model: job.request.model,
                    outcome: if failed { "failed" } else { "ok" },
                    queue_us: crate::metrics::as_micros(queue_wait),
                    linger_us: crate::metrics::as_micros(linger),
                    cache_fill_us: crate::metrics::as_micros(cache_fill),
                    compute_us: crate::metrics::as_micros(compute),
                    total_us: crate::metrics::as_micros(job.enqueued.elapsed()),
                });
            }
            job.reply.send(response);
        }
        // Publish this worker's engine stats once per batch — cheap, and at
        // most one batch stale at scrape time.
        let mut cache = sc_core::cache::CacheStats::default();
        let mut arena = sc_core::arena::ArenaStats::default();
        for session in models.sessions.iter().flatten() {
            cache.merge(&session.cache_stats());
            arena.merge(&session.arena_stats());
        }
        slots.publish(worker_index, cache, arena);
    }
}

/// Serves one request against the engine registry.
///
/// Validation happens here for *every* path a request can take into the
/// engines — TCP, router forwarding, in-process benches — and the element
/// count goes through [`checked_shape_product`], the protocol's single
/// overflow-checked validation point. An unchecked `shape.iter().product()`
/// wraps in release builds: an adversarial shape like `[2^32, 2^32, 4]`
/// would alias a small pixel count on 64-bit and pass the length check.
pub(crate) fn serve_one(
    engines: &[Option<Arc<Engine>>],
    sessions: &mut [Option<Session>],
    request: &Request,
) -> Response {
    let Some(expected) = checked_shape_product(request.shape) else {
        return Response::app_err(
            request.id,
            format!("shape {:?} overflows the element count", request.shape),
        );
    };
    if request.pixels.len() != expected {
        return Response::app_err(
            request.id,
            format!(
                "shape {:?} does not match {} pixels",
                request.shape,
                request.pixels.len()
            ),
        );
    }
    let model = usize::from(request.model);
    let Some(engine) = engines.get(model).and_then(Option::as_ref) else {
        // A model this replica does not host is a *typed, retriable*
        // refusal, never a disconnect and never an opaque app error: over a
        // heterogeneous replica set the router retries the request on a
        // backend whose advertised model set contains it, and only a fleet
        // with no such backend turns this into a client-visible failure.
        let hosted = engines.iter().filter(|slot| slot.is_some()).count();
        return Response::Err {
            id: request.id,
            code: ErrorCode::ModelUnavailable,
            message: format!("model {model} is not hosted by this replica ({hosted} hosted)"),
        };
    };
    let session = sessions[model]
        .as_mut()
        .expect("a hosted model has a session");
    let image = Tensor::from_vec(request.pixels.clone(), &request.shape);
    match engine.infer(session, &image) {
        Ok(inference) => Response::Ok {
            id: request.id,
            argmax: inference.argmax.min(usize::from(u16::MAX)) as u16,
            logits: inference.logits,
        },
        Err(error) => Response::app_err(request.id, error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::error::ServeError;
    use crate::plan::PlanOptions;
    use sc_blocks::feature_block::FeatureBlockKind;
    use sc_dcnn::config::ScNetworkConfig;
    use sc_nn::layers::Dense;
    use sc_nn::lenet::PoolingStyle;
    use sc_nn::network::Network;
    use std::io::BufReader;

    fn tiny_engine(seed: u64) -> Engine {
        let mut network = Network::new("unit");
        network.push(Box::new(Dense::new(4, 2, seed)));
        let config = ScNetworkConfig::new(
            "unit",
            vec![FeatureBlockKind::ApcMaxBtanh],
            64,
            PoolingStyle::Max,
        );
        Engine::compile(
            &network,
            &config,
            EngineOptions {
                plan: PlanOptions {
                    input_shape: [1, 2, 2],
                    base_seed: seed,
                },
                ..EngineOptions::default()
            },
        )
        .unwrap()
    }

    fn request(id: u64, model: u16, shape: [usize; 3], pixels: Vec<f32>) -> Request {
        Request {
            id,
            model,
            deadline_ms: 0,
            shape,
            pixels,
        }
    }

    #[test]
    fn serve_one_rejects_overflowing_shapes() {
        // Regression: `shape.iter().product()` wraps in release builds, so
        // an adversarial shape reaching the engine through a non-proto path
        // (router forwarding, in-process bench) could alias a small pixel
        // count. `[max, max, max]` wraps to 0x...01 ≠ 4, which the old check
        // would reject by luck — `[1 << 32, 1 << 32, 4]` wraps to exactly 0
        // on 64-bit... use a shape whose wrapped product *equals* the pixel
        // count to prove the checked path is what rejects it.
        let engines = vec![Some(Arc::new(tiny_engine(7)))];
        let mut sessions = vec![engines[0].as_ref().map(|e| e.new_session())];
        // (1 << 32) * (1 << 32) wraps to 0 on 64-bit; * 4 stays 0 — so with
        // zero pixels the unchecked length comparison would pass and the
        // bogus shape would reach `Tensor::from_vec`.
        let huge = request(1, 0, [1 << 32, 1 << 32, 4], Vec::new());
        match serve_one(&engines, &mut sessions, &huge) {
            Response::Err { id, message, .. } => {
                assert_eq!(id, 1);
                assert!(message.contains("overflows"), "{message}");
            }
            other => panic!("expected an overflow rejection, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_pixels_are_rejected_with_a_typed_error() {
        let engine = Arc::new(tiny_engine(11));
        let engines = vec![Some(Arc::clone(&engine))];
        let mut sessions = vec![Some(engine.new_session())];
        for (id, bad) in [(1u64, f32::NAN), (2, f32::INFINITY), (3, f32::NEG_INFINITY)] {
            let pixels = vec![0.5, 0.25, bad, -0.5];
            let image = Tensor::from_vec(pixels.clone(), &[1, 2, 2]);
            let mut session = engine.new_session();
            for error in [
                engine.infer(&mut session, &image).unwrap_err(),
                engine.interpreter().infer(&image).unwrap_err(),
            ] {
                assert!(
                    matches!(&error, ServeError::Invalid(message) if message.contains("element 2")),
                    "{bad}: {error}"
                );
            }
            match serve_one(&engines, &mut sessions, &request(id, 0, [1, 2, 2], pixels)) {
                Response::Err {
                    id: got,
                    code,
                    message,
                } => {
                    assert_eq!(got, id);
                    assert_eq!(code, ErrorCode::App);
                    assert!(message.contains("not finite"), "{bad}: {message}");
                }
                other => panic!("{bad}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_one_refuses_unhosted_models_with_a_typed_retriable_code() {
        let engines = vec![Some(Arc::new(tiny_engine(9))), None];
        let mut sessions: Vec<Option<Session>> = engines
            .iter()
            .map(|slot| slot.as_ref().map(|e| e.new_session()))
            .collect();
        // Model 5 is beyond the slot table; model 1 is an unloaded hole.
        // Both must produce MODEL_UNAVAILABLE — a retriable refusal the
        // router fails over on — never an opaque app error.
        for (id, model) in [(2u64, 5u16), (4, 1)] {
            let unknown = request(id, model, [1, 2, 2], vec![0.0; 4]);
            match serve_one(&engines, &mut sessions, &unknown) {
                Response::Err {
                    id: got,
                    code,
                    message,
                } => {
                    assert_eq!(got, id);
                    assert_eq!(code, ErrorCode::ModelUnavailable);
                    assert!(code.is_retriable(), "MODEL_UNAVAILABLE must be retriable");
                    assert!(
                        message.contains(&format!("model {model} is not hosted")),
                        "{message}"
                    );
                    assert!(message.contains("1 hosted"), "{message}");
                }
                other => panic!("expected a model-unavailable refusal, got {other:?}"),
            }
        }
        // The same connection state still serves the model that exists.
        let ok = request(3, 0, [1, 2, 2], vec![0.25; 4]);
        assert!(matches!(
            serve_one(&engines, &mut sessions, &ok),
            Response::Ok { id: 3, .. }
        ));
    }

    #[test]
    fn registry_mutations_bump_the_generation_and_keep_ptr_identity() {
        let registry = ModelRegistry::new(vec![Arc::new(tiny_engine(3))]);
        assert_eq!(registry.generation(), 1);
        assert_eq!(registry.models(), vec![0]);

        // Worker view: sessions survive an unrelated load.
        let mut view = WorkerModels::new(&registry, false);
        let engine0 = view.engines[0].as_ref().unwrap().clone();

        registry.load(2, Arc::new(tiny_engine(5)));
        assert_eq!(registry.generation(), 2);
        assert_eq!(registry.models(), vec![0, 2]);
        assert_eq!(registry.model_count(), 2);
        view.refresh(&registry, false);
        assert!(
            Arc::ptr_eq(view.engines[0].as_ref().unwrap(), &engine0),
            "loading model 2 must not rebuild model 0"
        );
        assert!(view.engines[1].is_none() && view.sessions[1].is_none());
        assert!(view.sessions[2].is_some());

        registry.unload(0).unwrap();
        assert_eq!(registry.generation(), 3);
        assert_eq!(registry.models(), vec![2]);
        assert!(registry.unload(0).is_err(), "double unload is an error");
        assert_eq!(registry.generation(), 3, "failed unload must not bump");
        view.refresh(&registry, false);
        assert!(view.engines[0].is_none() && view.sessions[0].is_none());

        assert!(!registry.draining());
        registry.drain();
        assert!(registry.draining());
        assert_eq!(registry.generation(), 4, "drain is a visible change");
    }

    #[test]
    fn serve_one_dispatches_by_model_id() {
        // Two engines with different seeds produce different logits for the
        // same pixels; the model id must select between them.
        let engines = vec![
            Some(Arc::new(tiny_engine(11))),
            Some(Arc::new(tiny_engine(23))),
        ];
        let mut sessions: Vec<Option<Session>> = engines
            .iter()
            .map(|slot| slot.as_ref().map(|e| e.new_session()))
            .collect();
        let pixels = vec![0.5f32, -0.25, 0.75, 0.125];
        let on_model = |engines: &[Option<Arc<Engine>>],
                        sessions: &mut [Option<Session>],
                        model: u16| match serve_one(
            engines,
            sessions,
            &request(u64::from(model), model, [1, 2, 2], pixels.clone()),
        ) {
            Response::Ok { logits, .. } => logits,
            Response::Err { message, .. } => panic!("model {model} failed: {message}"),
        };
        let logits0 = on_model(&engines, &mut sessions, 0);
        let logits1 = on_model(&engines, &mut sessions, 1);
        let engine0 = engines[0].as_ref().unwrap();
        let mut direct0 = engine0.new_session();
        let expected0 = engine0
            .infer(&mut direct0, &Tensor::from_vec(pixels.clone(), &[1, 2, 2]))
            .unwrap();
        assert_eq!(logits0, expected0.logits, "model 0 must use engine 0");
        assert_ne!(logits0, logits1, "models must not alias");
    }

    #[test]
    fn refused_request_gets_a_shutdown_reply_not_silence() {
        // Regression for the shutdown drop: a request read off the socket
        // after the queue closed must be answered with an explicit refusal —
        // a silent drop would leave the client blocked in `read_frame`
        // forever. Exercised against the real event loop with a pre-closed
        // queue (the draining state).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queue = Arc::new(BatchQueue::<Job>::new(BatchPolicy::default()));
        queue.close(); // the server is already draining
        let metrics = Arc::new(Metrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let halt = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(ModelRegistry::new(vec![Arc::new(tiny_engine(1))]));
        let (io_loop, completions) = IoLoop::build(
            listener,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            registry,
            Duration::from_secs(5),
            None,
            Arc::clone(&stop),
            Arc::clone(&halt),
        )
        .unwrap();
        let io = std::thread::spawn(move || io_loop.run());
        let client = TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        crate::proto::write_request_v3(&mut writer, 77, 0, 0, [1, 2, 2], &[0.0; 4]).unwrap();
        let mut reader = BufReader::new(client);
        match crate::proto::read_frame(&mut reader, crate::proto::decode_response)
            .unwrap()
            .unwrap()
        {
            Response::Err { id, code, message } => {
                assert_eq!(id, 77);
                assert_eq!(code, ErrorCode::ShuttingDown);
                assert_eq!(message, SHUTTING_DOWN_MESSAGE);
            }
            other => panic!("expected a shutdown refusal, got {other:?}"),
        }
        drop(writer);
        drop(reader);
        halt.store(true, Ordering::SeqCst);
        completions.waker.wake();
        io.join().unwrap();
    }
}

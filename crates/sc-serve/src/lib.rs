//! # sc-serve
//!
//! Compiled SC inference engine and request-serving runtime for the
//! SC-DCNN reproduction.
//!
//! The experiment harness evaluates SC networks one feature-extraction block
//! call at a time, regenerating every operand bit-stream per call. That is
//! the right shape for accuracy studies and the wrong shape for serving
//! traffic. This crate adds the production path on top of the same
//! primitives:
//!
//! * [`plan`] — lowers a trained [`sc_nn::network::Network`] plus an
//!   [`sc_dcnn::config::ScNetworkConfig`] into an immutable SC execution
//!   plan (the config→deployment step of the paper's optimization story).
//! * [`interpreter`] — the reference executor: walks the plan through the
//!   existing per-call `FeatureBlock::evaluate_stream` path. The same walk
//!   with each block's float reference is the plan's float twin,
//!   `Plan::reference_infer`.
//! * [`engine`] — the compiled executor: one
//!   [`sc_blocks::feature_block::CompiledLayer`] per plan layer holds the
//!   weight bit-streams, generated once per filter (filter-aware sharing),
//!   and the SNG sequences every input stream is filled from by the
//!   comparator alone; the engine gathers positions, fans them out, counts
//!   fills and decodes. Bit-exact with the interpreter (property-tested,
//!   and enforceable at runtime via `verify_against_interpreter`).
//! * [`server`] / [`proto`] / [`metrics`] — the serving runtime: a bounded
//!   job queue feeding engine workers one request at a time, a std-only
//!   length-prefixed TCP protocol (`serve` / `client` binaries) whose
//!   request frames address one of several models hosted behind a single
//!   listener, and throughput / latency-percentile metrics.
//! * [`router`] — the scale-out front (`route` binary): load-balances
//!   client requests across several `serve` replicas with ping-based health
//!   checks, least-loaded routing, per-backend circuit breakers, and
//!   deadline-aware, retry-budgeted failover.
//! * [`fault`] — deterministic fault injection (delay / stall / drop /
//!   truncate / corrupt) as a stream wrapper and a TCP proxy, powering the
//!   chaos test suite that proves the stack degrades gracefully.
//! * [`obs`] / [`admin`] — the observability plane: a process-wide
//!   [`obs::MetricsRegistry`] (request counters, latency and per-stage
//!   histograms, queue depth, cache/arena and router state) served live by
//!   a std-only `/metrics` admin endpoint in Prometheus text format, plus a
//!   deterministic sampled JSONL request-trace log.
//!
//! ## Quick example
//!
//! ```rust
//! use sc_dcnn::config::ScNetworkConfig;
//! use sc_blocks::feature_block::FeatureBlockKind;
//! use sc_nn::lenet::PoolingStyle;
//! use sc_nn::network::Network;
//! use sc_nn::layers::Dense;
//! use sc_nn::tensor::Tensor;
//! use sc_serve::engine::{Engine, EngineOptions};
//! use sc_serve::plan::PlanOptions;
//!
//! let mut network = Network::new("probe");
//! network.push(Box::new(Dense::new(9, 3, 1)));
//! let config = ScNetworkConfig::new(
//!     "demo",
//!     vec![FeatureBlockKind::ApcMaxBtanh],
//!     64,
//!     PoolingStyle::Max,
//! );
//! let options = EngineOptions {
//!     plan: PlanOptions { input_shape: [1, 3, 3], base_seed: 7 },
//!     ..EngineOptions::default()
//! };
//! let engine = Engine::compile(&network, &config, options)?;
//! let mut session = engine.new_session();
//! let result = engine.infer(&mut session, &Tensor::zeros(&[1, 3, 3]))?;
//! assert_eq!(result.logits.len(), 3);
//! # Ok::<(), sc_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admin;
mod conn;
pub mod crc32;
pub mod engine;
pub mod error;
pub mod fault;
pub mod interpreter;
pub mod metrics;
pub mod obs;
pub mod plan;
pub mod plan_store;
pub mod proto;
mod queue;
pub mod reactor;
pub mod router;
pub mod server;

pub use engine::{Engine, EngineOptions, Session};
pub use error::ServeError;
pub use interpreter::{Inference, Interpreter};
pub use plan::{Plan, PlanOptions};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::admin::{scrape, spawn_admin, AdminHandle};
    pub use crate::engine::{Engine, EngineOptions, Session};
    pub use crate::error::ServeError;
    pub use crate::fault::{FaultKind, FaultProxy, FaultyStream};
    pub use crate::interpreter::{Inference, Interpreter};
    pub use crate::metrics::{Metrics, MetricsReport, Stage};
    pub use crate::obs::{MetricsRegistry, TraceLog, TraceSampler};
    pub use crate::plan::{lower, Plan, PlanOptions};
    pub use crate::plan_store::{load_plan, save_plan, LoadedPlan};
    pub use crate::proto::ErrorCode;
    pub use crate::router::{
        spawn_router, spawn_router_observed, RouterHandle, RouterOptions, RouterStats,
    };
    pub use crate::server::{
        bind_reusable, spawn, spawn_multi, spawn_multi_observed, ModelRegistry, ServerHandle,
        ServerOptions, SHUTTING_DOWN_MESSAGE,
    };
}

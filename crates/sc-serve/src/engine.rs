//! The compiled SC inference engine.
//!
//! [`Engine::compile`] lowers a trained network plus an SC configuration
//! into an immutable execution plan and pre-generates everything that does
//! not depend on the input:
//!
//! * **Weight bit-streams** are generated once per filter (convolution) or
//!   per unit (fully-connected) through the batched SNG and cached for the
//!   engine's lifetime. The per-call path regenerates them on every single
//!   block evaluation; the filter-aware sharing the paper applies to SRAM
//!   (one filter serves every inner-product block of a feature map, see
//!   `sc_dcnn::weight_storage`) maps directly onto this cache: one set of
//!   streams per filter serves all of its pooled positions.
//! * **Input bit-streams** are memoized in a per-session
//!   [`sc_core::cache::StreamCache`]: a stream is a pure function of its
//!   `(lane seed, comparator threshold)` pair, all units of a layer share
//!   their SNG wiring, and decoded layer outputs are quantized to `L + 1`
//!   levels, so the same keys recur constantly — across the units of a
//!   fully-connected layer, across pooling windows, and across the requests
//!   of a batch.
//!
//! Evaluation then runs one [`FeatureBlock::evaluate_layer_prepared_with`]
//! call per layer position, which evaluates every unit of the position at
//! once from the shared input streams and applies the same kernels with the
//! same seeds as the per-call path. The engine is therefore **bit-exact**
//! with the [`crate::interpreter::Interpreter`], its oracle;
//! `verify_against_interpreter` (an [`EngineOptions`] flag or the standalone
//! [`Engine::verify`] call) proves it at runtime.
//!
//! [`FeatureBlock::evaluate_layer_prepared_with`]: sc_blocks::feature_block::FeatureBlock::evaluate_layer_prepared_with

use crate::error::ServeError;
use crate::interpreter::{Inference, Interpreter};
use crate::plan::{lower, Plan, PlanLayer, PlanOptions};
use sc_blocks::feature_block::FeatureBlock;
use sc_core::arena::{ArenaStats, StreamArena};
use sc_core::bitstream::BitStream;
use sc_core::cache::{CacheStats, StreamCache};
use sc_core::encoding::{Bipolar, Encoding};
use sc_core::parallel::{parallel_map_with, parallel_map_with_state};
use sc_core::sng::{probability_threshold, BatchSng, SngBank, SngKind};
use sc_core::ScError;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use std::sync::Arc;

/// Options controlling compilation and engine behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Lowering options (input shape, seed scheme).
    pub plan: PlanOptions,
    /// Maximum number of memoized input streams per session.
    pub cache_capacity: usize,
    /// When set, every [`Engine::infer`] also runs the per-call interpreter
    /// and fails loudly unless the logits are bit-identical. Expensive —
    /// meant for tests, bring-up, and canary replicas.
    pub verify_against_interpreter: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            plan: PlanOptions::default(),
            cache_capacity: 1 << 16,
            verify_against_interpreter: false,
        }
    }
}

/// Per-worker mutable state: the stream arena and the input-stream memo.
///
/// Sessions are cheap to create but profit from living long: a warm cache
/// carries hit rates across requests. The serving runtime keeps one session
/// per worker thread.
#[derive(Debug)]
pub struct Session {
    arena: StreamArena,
    cache: StreamCache,
    /// Batched SNG shared by every cache miss of this session: one
    /// staged-recurrence scratch serves all lanes of all layers, so misses
    /// allocate nothing beyond the (arena-pooled) stream buffer.
    sng: BatchSng,
    /// Warm sub-sessions handed to single-request unit fan-out workers and
    /// collected back afterwards, so their caches survive across layers and
    /// requests instead of being rebuilt cold per fan-out.
    workers: Vec<Session>,
    /// Warm arenas handed to dense-layer fan-out chunk workers and collected
    /// back afterwards (the chunk workers share the session's input streams
    /// and need no cache of their own — only pooled buffers).
    chunk_arenas: Vec<StreamArena>,
    /// Whether this session participates in single-request unit fan-out at
    /// all (see [`Session::set_unit_fan_out`]).
    unit_fan_out: bool,
    /// Nanoseconds spent in input-stream cache lookup/fill since the last
    /// [`Session::take_cache_fill`] — the serving runtime drains this per
    /// request into the `cache_fill` stage histogram.
    cache_fill_ns: u64,
}

impl Session {
    /// Input-stream cache counters of this session, aggregated over its
    /// warm fan-out worker sessions (with unit fan-out active, most conv
    /// input-stream traffic flows through those workers — stats that
    /// ignored them would report near-zero activity on multi-core runs).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        for worker in &self.workers {
            stats.merge(&worker.cache_stats());
        }
        stats
    }

    /// Stream/count buffer reuse counters of this session's arena,
    /// aggregated over its warm fan-out worker sessions. In steady state the
    /// fused inference path takes every buffer from the pool: the
    /// `stream_allocs` delta between two snapshots of a warm session is
    /// zero.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut stats = self.arena.stats();
        for arena in &self.chunk_arenas {
            stats.merge(&arena.stats());
        }
        for worker in &self.workers {
            stats.merge(&worker.arena_stats());
        }
        stats
    }

    /// Enables or disables single-request unit fan-out for inferences run
    /// through this session (default: enabled).
    ///
    /// With fan-out on and more than one `sc_core::parallel` thread, the
    /// positions of a convolution layer and chunks of a dense layer's units
    /// spread across workers with their own warm sub-sessions, cutting
    /// single-request latency on multi-core machines. Batched inference
    /// already parallelizes across requests, and nested fan-outs degrade to
    /// serial, so the two compose safely.
    ///
    /// The engine's "nested fan-outs degrade to serial" guarantee only
    /// covers `sc_core::parallel` workers; a caller that runs many sessions
    /// on its *own* threads — like the TCP runtime's per-worker loops —
    /// should disable fan-out to avoid oversubscribing the machine with
    /// `workers × threads` scoped threads. Results are bit-identical either
    /// way.
    pub fn set_unit_fan_out(&mut self, enabled: bool) {
        self.unit_fan_out = enabled;
    }

    /// Drains the time spent in input-stream cache lookup/fill since the
    /// last call, aggregated over this session's warm fan-out workers (where
    /// most conv input-stream traffic flows on multi-core runs). The serving
    /// runtime calls this once per request to attribute the `cache_fill`
    /// stage span; resetting keeps successive requests independent.
    pub fn take_cache_fill(&mut self) -> std::time::Duration {
        let mut total = std::mem::take(&mut self.cache_fill_ns);
        for worker in &mut self.workers {
            total += worker.take_cache_fill().as_nanos() as u64;
        }
        std::time::Duration::from_nanos(total)
    }
}

/// Pre-generated weight streams of one layer: `[row][field][lane]`, where a
/// row is a convolution filter or a fully-connected unit.
type LayerWeightStreams = Vec<Vec<Vec<BitStream>>>;

/// Pre-generates every layer's weight bit-streams from the plan's block
/// seeds (shared by [`Engine::compile`] and [`Engine::from_plan`]; the
/// streams are a pure function of the plan, which is what lets the plan
/// store omit them).
fn generate_weight_streams(plan: &Plan) -> Result<Vec<LayerWeightStreams>, ServeError> {
    plan.layers
        .iter()
        .map(|layer| match layer {
            PlanLayer::Conv(conv) => conv
                .filters
                .iter()
                .map(|filter| conv.block.weight_streams(filter))
                .collect::<Result<LayerWeightStreams, _>>(),
            PlanLayer::Dense(dense) => dense
                .units
                .iter()
                .map(|unit| dense.block.weight_streams(unit))
                .collect::<Result<LayerWeightStreams, _>>(),
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(ServeError::from)
}

/// A compiled, immutable SC inference engine.
///
/// The engine itself is `Sync`: all mutable state lives in [`Session`]s, so
/// one engine can be shared by any number of worker threads.
#[derive(Debug)]
pub struct Engine {
    plan: Arc<Plan>,
    weights: Vec<LayerWeightStreams>,
    interpreter: Interpreter,
    options: EngineOptions,
}

impl Engine {
    /// Compiles a trained network and an SC configuration into an engine.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (see [`lower`]) and encoding errors from
    /// weight-stream pre-generation.
    pub fn compile(
        network: &Network,
        config: &ScNetworkConfig,
        options: EngineOptions,
    ) -> Result<Self, ServeError> {
        let plan = lower(network, config, &options.plan)?;
        Self::from_plan(plan, options)
    }

    /// Builds an engine directly from an already-lowered [`Plan`] — the
    /// cold-start path of [`crate::plan_store`], which skips training and
    /// lowering entirely. Weight bit-streams are regenerated here from the
    /// plan's block seeds, so the resulting engine is bit-exact with one
    /// [`Engine::compile`] produced from the same network and options.
    ///
    /// `options.plan` is recorded for introspection but does not influence
    /// the build (the plan is already lowered); pass the values the plan was
    /// originally lowered under, e.g. via
    /// [`crate::plan_store::LoadedPlan::engine_options`].
    ///
    /// # Errors
    ///
    /// Propagates encoding errors from weight-stream pre-generation.
    pub fn from_plan(plan: Plan, options: EngineOptions) -> Result<Self, ServeError> {
        let plan = Arc::new(plan);
        let weights = generate_weight_streams(&plan)?;
        Ok(Self {
            interpreter: Interpreter::new(Arc::clone(&plan)),
            plan,
            weights,
            options,
        })
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Name of the configuration this engine was compiled from — the label
    /// a multi-model server lists its registry under.
    pub fn model_name(&self) -> &str {
        &self.plan.config_name
    }

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The SC kernel backend every fused layer kernel under this engine
    /// dispatches to (process-wide; see `sc_core::word`). All backends are
    /// bit-identical, so this only affects throughput, never outputs.
    pub fn kernel_backend(&self) -> sc_core::Backend {
        sc_core::active_backend()
    }

    /// Total number of pre-generated weight streams held by the engine.
    pub fn cached_weight_streams(&self) -> usize {
        self.weights
            .iter()
            .flat_map(|layer| layer.iter())
            .map(|row| row.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Creates a fresh per-worker session.
    pub fn new_session(&self) -> Session {
        Session {
            arena: StreamArena::new(),
            cache: StreamCache::new(self.options.cache_capacity),
            sng: BatchSng::new(SngKind::Lfsr32),
            workers: Vec::new(),
            chunk_arenas: Vec::new(),
            unit_fan_out: true,
            cache_fill_ns: 0,
        }
    }

    /// Runs one compiled SC inference.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for a wrong input size, propagates
    /// kernel errors, and — with `verify_against_interpreter` set — fails if
    /// the compiled output ever deviates from the per-call path.
    pub fn infer(&self, session: &mut Session, image: &Tensor) -> Result<Inference, ServeError> {
        self.plan.validate_input(image)?;
        let mut values = self.plan.input_values(image);
        for (layer, weights) in self.plan.layers.iter().zip(self.weights.iter()) {
            values = self.eval_layer(session, layer, weights, &values)?;
        }
        let result = Inference::from_logits(values);
        if self.options.verify_against_interpreter {
            let reference = self.interpreter.infer(image)?;
            if reference != result {
                return Err(ServeError::Invalid(format!(
                    "compiled engine diverged from the interpreter: {:?} vs {:?}",
                    result.logits, reference.logits
                )));
            }
        }
        Ok(result)
    }

    /// Runs a batch of inferences, fanning the requests across
    /// `sc_core::parallel` workers (each worker gets its own session). With
    /// one worker the provided session is used for the whole batch, keeping
    /// its cache warm.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::infer`]; the first error wins.
    pub fn infer_batch(
        &self,
        session: &mut Session,
        images: &[Tensor],
    ) -> Result<Vec<Inference>, ServeError> {
        if sc_core::parallel::max_threads() <= 1 || images.len() <= 1 {
            return images
                .iter()
                .map(|image| self.infer(session, image))
                .collect();
        }
        parallel_map_with(
            images,
            || self.new_session(),
            |session, _, image| self.infer(session, image),
        )
        .into_iter()
        .collect()
    }

    /// Proves bit-exactness against the per-call interpreter on a set of
    /// images.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] naming the first diverging image, or
    /// propagates evaluation errors.
    pub fn verify(&self, session: &mut Session, images: &[Tensor]) -> Result<(), ServeError> {
        for (index, image) in images.iter().enumerate() {
            let compiled = self.infer(session, image)?;
            let reference = self.interpreter.infer(image)?;
            if compiled != reference {
                return Err(ServeError::Invalid(format!(
                    "image {index}: compiled logits {:?} != interpreter logits {:?}",
                    compiled.logits, reference.logits
                )));
            }
        }
        Ok(())
    }

    /// The per-call interpreter over the same plan (the verification and
    /// benchmarking baseline).
    pub fn interpreter(&self) -> &Interpreter {
        &self.interpreter
    }

    /// Whether single-request unit fan-out is active for a layer of
    /// `independent_items` independent work items evaluated through
    /// `session`.
    fn fan_out_units(&self, session: &Session, independent_items: usize) -> bool {
        session.unit_fan_out && independent_items > 1 && sc_core::parallel::max_threads() > 1
    }

    fn eval_layer(
        &self,
        session: &mut Session,
        layer: &PlanLayer,
        weights: &LayerWeightStreams,
        values: &[f64],
    ) -> Result<Vec<f64>, ServeError> {
        match layer {
            PlanLayer::Conv(conv) => {
                let [filters, pooled_h, pooled_w] = conv.out_shape;
                let positions = pooled_h * pooled_w;
                let unit_refs: Vec<&[Vec<BitStream>]> = weights
                    .iter()
                    .take(filters)
                    .map(|row| row.as_slice())
                    .collect();
                // Selector plans depend only on the block's seeds and the
                // stream length: one set serves every position and every
                // fan-out worker of this layer.
                let selectors = conv
                    .block
                    .prepare_selectors(self.plan.stream_length.bits())?;
                // One fused call per pooled position evaluates every filter:
                // the position's input streams are generated (or cache-hit)
                // once instead of once per filter.
                let eval_position =
                    |session: &mut Session, position: usize| -> Result<Vec<f64>, ServeError> {
                        let (py, px) = (position / pooled_w, position % pooled_w);
                        let fields = conv.gather_fields(values, py, px);
                        let inputs = self.gather_input_streams(session, &conv.block, &fields)?;
                        let outputs = conv.block.evaluate_layer_prepared_with(
                            &selectors,
                            &inputs,
                            &unit_refs,
                            &mut session.arena,
                        );
                        for field in inputs {
                            session.arena.recycle_all(field);
                        }
                        let outputs = outputs?;
                        let values = outputs.iter().map(BitStream::bipolar_value).collect();
                        session.arena.recycle_all(outputs);
                        Ok(values)
                    };
                let per_position: Vec<Result<Vec<f64>, ServeError>> =
                    if self.fan_out_units(session, positions) {
                        // Positions are independent; per-worker sessions keep
                        // their own caches/arenas. Outputs depend only on the
                        // position index, so the fan-out is bit-deterministic.
                        // Workers draw warm sessions from the caller's pool
                        // and return them afterwards, so the per-worker
                        // caches carry hit rates across layers and requests.
                        let pool = std::sync::Mutex::new(std::mem::take(&mut session.workers));
                        let (results, states) = parallel_map_with_state(
                            &(0..positions).collect::<Vec<usize>>(),
                            || {
                                pool.lock()
                                    .expect("session pool")
                                    .pop()
                                    .unwrap_or_else(|| self.new_session())
                            },
                            |worker_session, _, &position| eval_position(worker_session, position),
                        );
                        let mut workers = pool.into_inner().expect("session pool");
                        workers.extend(states);
                        session.workers = workers;
                        results
                    } else {
                        (0..positions)
                            .map(|position| eval_position(session, position))
                            .collect()
                    };
                // Transpose position-major results into the plan's
                // filter-major output order.
                let mut outputs = vec![0.0f64; filters * positions];
                for (position, result) in per_position.into_iter().enumerate() {
                    for (filter, value) in result?.into_iter().enumerate() {
                        outputs[filter * positions + position] = value;
                    }
                }
                Ok(outputs)
            }
            PlanLayer::Dense(dense) => {
                // All units of a fully-connected layer share one receptive
                // field: its streams are generated once for the whole layer.
                let field = vec![values.to_vec()];
                let inputs = self.gather_input_streams(session, &dense.block, &field)?;
                let unit_refs: Vec<&[Vec<BitStream>]> =
                    weights.iter().map(|row| row.as_slice()).collect();
                // One selector-plan set for the whole layer, shared by every
                // fan-out chunk (rebuilding it per chunk would repeat the
                // draw + bit-slice pass once per thread).
                let selectors = dense
                    .block
                    .prepare_selectors(self.plan.stream_length.bits())?;
                let decoded = if self.fan_out_units(session, unit_refs.len()) {
                    let threads = sc_core::parallel::max_threads();
                    let chunk_size = unit_refs.len().div_ceil(threads).max(1);
                    let chunks: Vec<&[&[Vec<BitStream>]]> = unit_refs.chunks(chunk_size).collect();
                    // Fan-out workers draw warm arenas from the session pool
                    // and return them afterwards (mirroring the conv path's
                    // worker-session pool), so dense fan-out stays zero-alloc
                    // in steady state and the buffers remain visible to
                    // `Session::arena_stats`.
                    let pool = std::sync::Mutex::new(std::mem::take(&mut session.chunk_arenas));
                    let (per_chunk, states) = parallel_map_with_state(
                        &chunks,
                        || pool.lock().expect("arena pool").pop().unwrap_or_default(),
                        |arena, _, chunk| {
                            // Decode inside the worker and recycle the output
                            // buffers into the arena they were taken from:
                            // take and recycle stay paired per worker, so no
                            // arena net-drains (and then re-allocates) under
                            // uneven chunk sizes or scheduling.
                            dense
                                .block
                                .evaluate_layer_prepared_with(&selectors, &inputs, chunk, arena)
                                .map(|streams| {
                                    let decoded: Vec<f64> =
                                        streams.iter().map(BitStream::bipolar_value).collect();
                                    arena.recycle_all(streams);
                                    decoded
                                })
                        },
                    );
                    let mut arenas = pool.into_inner().expect("arena pool");
                    arenas.extend(states);
                    session.chunk_arenas = arenas;
                    let mut decoded = Vec::with_capacity(unit_refs.len());
                    let mut error = None;
                    for chunk in per_chunk {
                        match chunk {
                            Ok(chunk_values) => decoded.extend(chunk_values),
                            Err(e) if error.is_none() => error = Some(e),
                            Err(_) => {}
                        }
                    }
                    match error {
                        None => Ok(decoded),
                        Some(e) => Err(e),
                    }
                } else {
                    dense
                        .block
                        .evaluate_layer_prepared_with(
                            &selectors,
                            &inputs,
                            &unit_refs,
                            &mut session.arena,
                        )
                        .map(|streams| {
                            let decoded = streams.iter().map(BitStream::bipolar_value).collect();
                            session.arena.recycle_all(streams);
                            decoded
                        })
                };
                for field_streams in inputs {
                    session.arena.recycle_all(field_streams);
                }
                Ok(decoded?)
            }
        }
    }

    /// Generates (or serves from the session cache) the input streams of
    /// every pool-window field, in the block's published seed scheme. The
    /// returned buffers are arena-backed; recycle them after use.
    fn gather_input_streams(
        &self,
        session: &mut Session,
        block: &FeatureBlock,
        fields: &[Vec<f64>],
    ) -> Result<Vec<Vec<BitStream>>, ServeError> {
        let started = std::time::Instant::now();
        let length = self.plan.stream_length;
        let Session {
            arena, cache, sng, ..
        } = session;
        let mut inputs: Vec<Vec<BitStream>> = Vec::with_capacity(fields.len());
        for (field_index, field) in fields.iter().enumerate() {
            let (input_base, _) = block.operand_bank_seeds(field_index);
            let mut streams = Vec::with_capacity(field.len());
            for (lane, &value) in field.iter().enumerate() {
                let lane_seed = SngBank::lane_seed(input_base, lane);
                let probability = Bipolar::to_probability(value)?;
                let threshold = probability_threshold(probability)?;
                let stream =
                    cache.get_or_generate((lane_seed, threshold), length, arena, |arena| {
                        let mut fresh = arena.take_zeroed(length);
                        sng.fill_probability(lane_seed, probability, &mut fresh)?;
                        Ok::<_, ScError>(fresh)
                    })?;
                streams.push(stream);
            }
            inputs.push(streams);
        }
        session.cache_fill_ns += started.elapsed().as_nanos() as u64;
        Ok(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_blocks::feature_block::FeatureBlockKind;
    use sc_nn::lenet::PoolingStyle;

    fn small_network(seed: u64) -> Network {
        let mut network = Network::new("small");
        network.push(Box::new(sc_nn::layers::Conv2d::new(1, 2, 3, seed)));
        network.push(Box::new(sc_nn::layers::MaxPool2::new()));
        network.push(Box::new(sc_nn::layers::Tanh::new()));
        network.push(Box::new(sc_nn::layers::Dense::new(2 * 3 * 3, 4, seed + 1)));
        network
    }

    fn options() -> EngineOptions {
        EngineOptions {
            plan: PlanOptions {
                input_shape: [1, 8, 8],
                base_seed: 21,
            },
            ..EngineOptions::default()
        }
    }

    fn image(seed: u32) -> Tensor {
        Tensor::from_fn(&[1, 8, 8], |i| {
            (((i as u32).wrapping_mul(seed.wrapping_mul(2_654_435_761) | 1) >> 16) % 255) as f32
                / 255.0
        })
    }

    /// `sc_core::parallel::set_thread_limit` is process-global; tests that
    /// mutate it (or assert on stats that depend on it) serialize here so a
    /// concurrent test cannot flip the limit mid-assertion. Result-based
    /// tests don't need it — outputs are bit-identical at any limit.
    static THREAD_LIMIT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn engine_matches_interpreter_bit_for_bit() {
        let network = small_network(3);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh; 2],
            128,
            PoolingStyle::Max,
        );
        let engine = Engine::compile(&network, &config, options()).unwrap();
        let mut session = engine.new_session();
        let images: Vec<Tensor> = (1..4).map(image).collect();
        engine.verify(&mut session, &images).unwrap();
        assert!(engine.cached_weight_streams() > 0);
        // The dense layer guarantees cache hits (shared inputs across units).
        assert!(session.cache_stats().hits > 0);
    }

    /// End-to-end kernel-backend bit-exactness: the scalar reference and
    /// the widest available backend (the portable super-word without the
    /// `simd` feature, AVX2 with it on x86-64) must serve bit-identical
    /// inferences through the full fused path — SNG comparator fills, fused
    /// XNOR/count and MUX-plan kernels, CSA compression, and the batch
    /// activation walks — for every feature-block family. `force_backend`
    /// is process-global, but all backends are bit-identical, so concurrent
    /// tests cannot observe a behaviour change.
    #[test]
    fn kernel_backends_serve_bit_identical_inferences() {
        let best = sc_core::word::best_available_backend();
        let images: Vec<Tensor> = (1..5).map(image).collect();
        let mut per_backend: Vec<Vec<Inference>> = Vec::new();
        for backend in [sc_core::Backend::Scalar, best] {
            assert!(sc_core::force_backend(backend));
            let mut outputs = Vec::new();
            // Both max-pooling families (the helper network pools with
            // MaxPool2): between them they drive every widened kernel —
            // MUX plans + Stanh, APC/CSA counts + Btanh, plus the shared
            // SNG fills and popcounts.
            for kind in [FeatureBlockKind::ApcMaxBtanh, FeatureBlockKind::MuxMaxStanh] {
                let network = small_network(3);
                let config = ScNetworkConfig::new("c", vec![kind; 2], 128, PoolingStyle::Max);
                let engine = Engine::compile(&network, &config, options()).unwrap();
                assert_eq!(engine.kernel_backend(), backend);
                let mut session = engine.new_session();
                for image in &images {
                    outputs.push(engine.infer(&mut session, image).unwrap());
                }
            }
            per_backend.push(outputs);
        }
        assert!(sc_core::force_backend(best));
        assert_eq!(
            per_backend[0], per_backend[1],
            "scalar and {best} backends disagree"
        );
    }

    #[test]
    fn verify_flag_checks_every_inference() {
        let network = small_network(5);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::MuxMaxStanh; 2],
            100,
            PoolingStyle::Max,
        );
        let engine = Engine::compile(
            &network,
            &config,
            EngineOptions {
                verify_against_interpreter: true,
                ..options()
            },
        )
        .unwrap();
        let mut session = engine.new_session();
        let result = engine.infer(&mut session, &image(7)).unwrap();
        assert_eq!(result.logits.len(), 4);
    }

    #[test]
    fn batch_matches_sequential_inference() {
        let network = small_network(9);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcAvgBtanh; 2],
            64,
            PoolingStyle::Average,
        );
        // Average pooling network variant.
        let mut network_avg = Network::new("small-avg");
        network_avg.push(Box::new(sc_nn::layers::Conv2d::new(1, 2, 3, 1)));
        network_avg.push(Box::new(sc_nn::layers::AvgPool2::new()));
        network_avg.push(Box::new(sc_nn::layers::Dense::new(2 * 3 * 3, 4, 2)));
        let _ = network;
        let engine = Engine::compile(&network_avg, &config, options()).unwrap();
        let mut session = engine.new_session();
        let images: Vec<Tensor> = (1..5).map(image).collect();
        let batched = engine.infer_batch(&mut session, &images).unwrap();
        let sequential: Vec<_> = images
            .iter()
            .map(|img| engine.infer(&mut session, img).unwrap())
            .collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn single_request_fan_out_is_schedule_independent() {
        let network = small_network(33);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh; 2],
            100,
            PoolingStyle::Max,
        );
        let engine = Engine::compile(&network, &config, options()).unwrap();
        let image = image(11);
        let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        sc_core::parallel::set_thread_limit(1);
        let serial = engine.infer(&mut engine.new_session(), &image).unwrap();
        sc_core::parallel::set_thread_limit(4);
        let fanned = engine.infer(&mut engine.new_session(), &image).unwrap();
        sc_core::parallel::set_thread_limit(0);
        assert_eq!(serial, fanned);
    }

    #[test]
    fn repeated_frames_hit_the_cache_exactly() {
        // Quantized inputs → deterministic cache keys: replaying a frame
        // must be served entirely from the warm cache (zero new misses).
        let network = small_network(7);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh; 2],
            128,
            PoolingStyle::Max,
        );
        let engine = Engine::compile(&network, &config, options()).unwrap();
        let mut session = engine.new_session();
        session.set_unit_fan_out(false); // keep all traffic in one session
        let frame = image(5);
        engine.infer(&mut session, &frame).unwrap();
        let cold = session.cache_stats();
        engine.infer(&mut session, &frame).unwrap();
        let warm = session.cache_stats();
        assert_eq!(
            warm.misses, cold.misses,
            "a repeated frame must not generate any stream"
        );
        assert!(warm.hits > cold.hits);
    }

    #[test]
    fn steady_state_inference_allocates_no_stream_buffers() {
        // Once the session arena is warm, fused inference must serve every
        // stream and count buffer from the pool: the session arena is
        // threaded through `evaluate_layer_prepared_with`.
        for kind in [FeatureBlockKind::ApcMaxBtanh, FeatureBlockKind::MuxMaxStanh] {
            let network = small_network(13);
            let config = ScNetworkConfig::new("c", vec![kind; 2], 128, PoolingStyle::Max);
            let engine = Engine::compile(&network, &config, options()).unwrap();
            let mut session = engine.new_session();
            session.set_unit_fan_out(false); // keep all traffic in one arena
            let frames: Vec<Tensor> = (1..4).map(image).collect();
            // Warm-up: populate the arena pool and the stream cache.
            for frame in &frames {
                engine.infer(&mut session, frame).unwrap();
            }
            let warm = session.arena_stats();
            for frame in &frames {
                engine.infer(&mut session, frame).unwrap();
            }
            let steady = session.arena_stats();
            assert_eq!(
                steady.total_allocs(),
                warm.total_allocs(),
                "{kind:?}: steady-state inference must not allocate buffers"
            );
            assert!(steady.stream_reuses > warm.stream_reuses);
        }
    }

    #[test]
    fn fanned_out_inference_keeps_the_arena_pool_bounded() {
        // With unit fan-out active, dense-layer chunk workers draw warm
        // arenas from the session pool and output buffers return to them:
        // steady state must neither allocate fresh buffers nor grow the
        // pools (buffers leaking from the chunk arenas into the session
        // arena would do both, one dense layer's worth per request).
        let network = small_network(17);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh; 2],
            64,
            PoolingStyle::Max,
        );
        let engine = Engine::compile(&network, &config, options()).unwrap();
        let mut session = engine.new_session();
        let frame = image(3);
        let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        sc_core::parallel::set_thread_limit(4);
        for _ in 0..3 {
            engine.infer(&mut session, &frame).unwrap();
        }
        let warm = session.arena_stats();
        for _ in 0..3 {
            engine.infer(&mut session, &frame).unwrap();
        }
        let steady = session.arena_stats();
        sc_core::parallel::set_thread_limit(0);
        assert_eq!(
            steady.total_allocs(),
            warm.total_allocs(),
            "steady-state fan-out inference must not allocate buffers"
        );
        assert_eq!(
            steady.pooled_streams, warm.pooled_streams,
            "steady-state fan-out inference must not grow the buffer pools"
        );
    }

    #[test]
    fn tiny_cache_capacity_stays_correct() {
        let network = small_network(11);
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh; 2],
            64,
            PoolingStyle::Max,
        );
        let engine = Engine::compile(
            &network,
            &config,
            EngineOptions {
                cache_capacity: 8,
                ..options()
            },
        )
        .unwrap();
        let mut session = engine.new_session();
        let images: Vec<Tensor> = (1..3).map(image).collect();
        engine.verify(&mut session, &images).unwrap();
        assert!(session.cache_stats().flushes > 0);
    }
}

//! The compiled SC inference engine.
//!
//! [`Engine::compile`] lowers a trained network plus an SC configuration
//! into an immutable execution plan, and compiles each plan layer once
//! into a [`CompiledLayer`] ([`FeatureBlock::compile_layer`]): the layer's
//! input SNG sequences and every filter's (convolution) or unit's
//! (fully-connected) weight streams, in the operand form the layer's inner
//! product consumes — one selected stream per field for a MUX layer, every
//! lane packed for an APC layer. The weights are generated once per engine
//! — the filter-aware sharing the paper applies to SRAM — and every input
//! stream of a request is a comparator pass over a precomputed sequence.
//!
//! The engine itself owns what is left of a request: it turns each layer's
//! input values into comparator thresholds once, gathers every position's
//! receptive fields, has the compiled layer fill them once for all of the
//! position's filters (or the dense layer's units) and evaluate them in one
//! fused call, fans positions or unit chunks across workers, accounts fill
//! counts and fill time per [`Session`], and decodes the output streams.
//! The compiled layer applies the same kernels with the same seeds as the
//! per-call path, so the engine is **bit-exact** with the
//! [`crate::interpreter::Interpreter`], its oracle;
//! `verify_against_interpreter` (an [`EngineOptions`] flag or the standalone
//! [`Engine::verify`] call) proves it at runtime.
//!
//! [`FeatureBlock::compile_layer`]: sc_blocks::feature_block::FeatureBlock::compile_layer

use crate::error::ServeError;
use crate::interpreter::{Inference, Interpreter};
use crate::plan::{lower, Plan, PlanLayer, PlanOptions};
use sc_blocks::feature_block::{CompiledLayer, LayerInputs};
use sc_core::arena::{ArenaStats, StreamArena};
use sc_core::bitstream::BitStream;
use sc_core::cache::CacheStats;
use sc_core::encoding::{Bipolar, Encoding};
use sc_core::parallel::{parallel_map, parallel_map_with};
use sc_core::sng::probability_threshold;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// The least work worth a single-request fan-out, in lane words: an APC
/// layer's rows × lanes × stream words ([`CompiledLayer::apc_row_work`] per
/// row and position).
///
/// Handing a range to a parked helper costs about 27 µs (`bench_kernels`
/// `fan_out_call_n16`: the caller plus one helper at thread limit 2), and
/// the packed APC core reads about one lane word per nanosecond on AVX2
/// (`packed_apc_fc1_n256_u64_l1024`: 262,144 words in ~0.28 ms). Halving
/// `w` words of work saves about `w / 2` ns, which outweighs the handoff
/// from ~54,000 words; 2^16 rounds that up. tiny-LeNet's fc2 (10 rows ×
/// 64 lanes × 4 words at L = 256: 2,560; 10,240 at L = 1024) runs
/// serially; its fc1 (64 × 256 × 4 = 65,536 at L = 256) and its
/// convolutions (conv1 at L = 256: 144 positions × 8 filters × 4 fields ×
/// 25 lanes × 4 words) fan out.
///
/// The cutoff is derived for, and measured on, APC layers only. A MUX
/// layer has no work measure ([`fan_out_work`]) and fans out whenever the
/// thread limit allows, as every layer did before the cutoff.
const MIN_FAN_OUT_WORK: usize = 1 << 16;

/// The work [`Engine::fan_out`] weighs against [`MIN_FAN_OUT_WORK`] for
/// `rows` rows of `compiled` (a dense layer's units, or a convolution's
/// positions × filters); `usize::MAX` for a MUX layer, which always fans
/// out.
fn fan_out_work(compiled: &CompiledLayer, rows: usize) -> usize {
    compiled
        .apc_row_work()
        .map_or(usize::MAX, |row_work| rows * row_work)
}

/// Options controlling compilation and engine behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Lowering options (input shape, seed scheme).
    pub plan: PlanOptions,
    /// When set, every [`Engine::infer`] also runs the per-call interpreter
    /// and fails loudly unless the logits are bit-identical. Expensive —
    /// meant for tests, bring-up, and canary replicas.
    pub verify_against_interpreter: bool,
}

/// Per-worker mutable state: the stream arena and the fill counters.
///
/// Sessions are cheap to create; living long keeps the arena's buffers
/// pooled, so steady-state inference allocates nothing. The serving runtime
/// keeps one session per worker thread.
#[derive(Debug)]
pub struct Session {
    arena: StreamArena,
    /// Input streams filled by this session (not its workers).
    fills: u64,
    /// One sub-session per single-request fan-out range after the first,
    /// for convolution positions and dense unit chunks alike: range `i > 0`
    /// always runs in `workers[i - 1]` (range 0 in this session), so their
    /// arenas stay pooled across layers and requests.
    workers: Vec<Session>,
    /// Nanoseconds spent filling input streams since the last
    /// [`Session::take_cache_fill`] — the serving runtime drains this per
    /// request into the `cache_fill` stage histogram.
    fill_ns: u64,
}

impl Session {
    /// Input-stream counters of this session, aggregated over its fan-out
    /// worker sessions (on a multi-thread run they fill every conv input
    /// stream outside the first range). `misses` counts the streams filled —
    /// one per position and field of a MUX layer, one per position, field
    /// and lane of an APC layer; `hits` is always zero.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: 0,
            misses: self.fills,
        };
        for worker in &self.workers {
            stats.merge(&worker.cache_stats());
        }
        stats
    }

    /// Stream/count buffer reuse counters of this session's arena,
    /// aggregated over its fan-out worker sessions. In steady state the
    /// fused inference path takes every buffer from the pool: the
    /// `stream_allocs` delta between two snapshots of a warm session is
    /// zero.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut stats = self.arena.stats();
        for worker in &self.workers {
            stats.merge(&worker.arena_stats());
        }
        stats
    }

    /// Drains the time spent filling input streams since the last call,
    /// aggregated over this session's fan-out workers (which fill the conv
    /// input streams outside the first range on multi-thread runs). The
    /// serving runtime calls this once per request to attribute the
    /// `cache_fill` stage span; resetting keeps successive requests
    /// independent.
    pub fn take_cache_fill(&mut self) -> std::time::Duration {
        let mut total = std::mem::take(&mut self.fill_ns);
        for worker in &mut self.workers {
            total += worker.take_cache_fill().as_nanos() as u64;
        }
        std::time::Duration::from_nanos(total)
    }

    /// Fills one position's input streams through `layer`, counting the
    /// streams and the time against this session.
    fn fill(
        &mut self,
        layer: &CompiledLayer,
        fields: &[Vec<u32>],
    ) -> Result<LayerInputs, ServeError> {
        let started = std::time::Instant::now();
        let inputs = layer.fill(fields, &mut self.arena)?;
        self.fills += layer.streams_per_fill() as u64;
        self.fill_ns += started.elapsed().as_nanos() as u64;
        Ok(inputs)
    }
}

/// A compiled, immutable SC inference engine.
///
/// The engine itself is `Sync`: all mutable state lives in [`Session`]s, so
/// one engine can be shared by any number of worker threads.
#[derive(Debug)]
pub struct Engine {
    plan: Arc<Plan>,
    layers: Vec<CompiledLayer>,
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
    /// lowering entirely. Every layer is compiled here from the plan's
    /// weights and block seeds, so the resulting engine is bit-exact with
    /// one [`Engine::compile`] produced from the same network and options.
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
        let layers = plan
            .layers
            .iter()
            .map(|layer| layer.block().compile_layer(layer.rows()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            interpreter: Interpreter::new(Arc::clone(&plan)),
            plan,
            layers,
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

    /// Total number of pre-generated weight streams held by the engine: one
    /// per unit per field for MUX layers (the selected stream), one per
    /// unit per field per lane for APC layers.
    pub fn cached_weight_streams(&self) -> usize {
        self.layers.iter().map(CompiledLayer::weight_streams).sum()
    }

    /// Creates a fresh per-worker session.
    pub fn new_session(&self) -> Session {
        Session {
            arena: StreamArena::new(),
            fills: 0,
            workers: Vec::new(),
            fill_ns: 0,
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
        for (layer, compiled) in self.plan.layers.iter().zip(&self.layers) {
            values = self.eval_layer(session, layer, compiled, &values)?;
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
    /// one worker the provided session serves the whole batch.
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

    /// Runs `eval` over `0..count`: in one call on `session` when
    /// `sc_core::parallel` allows one thread, otherwise as `max_threads()`
    /// contiguous ranges, range 0 in `session` and range `i > 0` always in
    /// its sub-session `workers[i - 1]`. Each range evaluates in the same
    /// session whoever runs it, so the results (concatenated in order) are
    /// bit-deterministic and a warm session allocates nothing, however
    /// many helpers the thread budget lends.
    ///
    /// A layer whose `work` (see [`MIN_FAN_OUT_WORK`]) is below the
    /// handoff's worth runs serially in `session`.
    fn fan_out<R: Send>(
        &self,
        session: &mut Session,
        count: usize,
        work: usize,
        eval: impl Fn(&mut Session, Range<usize>) -> Result<Vec<R>, ServeError> + Sync,
    ) -> Result<Vec<R>, ServeError> {
        let parts = sc_core::parallel::max_threads().min(count);
        if parts <= 1 || work < MIN_FAN_OUT_WORK {
            return eval(session, 0..count);
        }
        let mut workers = std::mem::take(&mut session.workers);
        if workers.len() < parts - 1 {
            workers.resize_with(parts - 1, || self.new_session());
        }
        let chunk = count.div_ceil(parts);
        // The ranges are fixed by `max_threads()` so that range `i` always
        // meets the same arena; `parallel_map` then groups them into one
        // part per participant it got (one range each when the budget lends
        // every helper), and its caller always runs the first part, range 0
        // included. Ranges are handed out by shared reference, so each
        // session sits behind a lock taken once, by whichever participant
        // runs its range.
        let ranges: Vec<(Mutex<&mut Session>, Range<usize>)> = std::iter::once(&mut *session)
            .chain(workers.iter_mut())
            .zip((0..count).step_by(chunk))
            .map(|(worker, start)| (Mutex::new(worker), start..count.min(start + chunk)))
            .collect();
        let evaluated = parallel_map(&ranges, |_, (worker, range)| {
            let mut worker = worker.lock().expect("each range runs once");
            eval(&mut worker, range.clone())
        });
        drop(ranges);
        session.workers = workers;
        let mut results = Vec::with_capacity(count);
        for range in evaluated {
            results.extend(range?);
        }
        Ok(results)
    }

    fn eval_layer(
        &self,
        session: &mut Session,
        layer: &PlanLayer,
        compiled: &CompiledLayer,
        values: &[f64],
    ) -> Result<Vec<f64>, ServeError> {
        // Every input value's comparator threshold, once per layer: the
        // receptive fields gather thresholds instead of re-deriving them for
        // every position that reads the value.
        let started = std::time::Instant::now();
        let thresholds = values
            .iter()
            .map(|&value| probability_threshold(Bipolar::to_probability(value)?))
            .collect::<Result<Vec<u32>, _>>()?;
        session.fill_ns += started.elapsed().as_nanos() as u64;
        match layer {
            PlanLayer::Conv(conv) => {
                let [filters, pooled_h, pooled_w] = conv.out_shape;
                let positions = pooled_h * pooled_w;
                // One fused call per pooled position evaluates every filter:
                // the position's input streams are filled once instead of
                // once per filter.
                let eval_positions = |session: &mut Session, range: Range<usize>| {
                    range
                        .map(|position| {
                            let (py, px) = (position / pooled_w, position % pooled_w);
                            let inputs =
                                session.fill(compiled, &conv.gather_fields(&thresholds, py, px))?;
                            let outputs =
                                compiled.evaluate(&inputs, 0..filters, &mut session.arena);
                            inputs.recycle(&mut session.arena);
                            let outputs = outputs?;
                            let values: Vec<f64> =
                                outputs.iter().map(BitStream::bipolar_value).collect();
                            session.arena.recycle_all(outputs);
                            Ok(values)
                        })
                        .collect::<Result<Vec<_>, ServeError>>()
                };
                let work = fan_out_work(compiled, positions * filters);
                let per_position = self.fan_out(session, positions, work, eval_positions)?;
                // Transpose position-major results into the plan's
                // filter-major output order.
                let mut outputs = vec![0.0f64; filters * positions];
                for (position, result) in per_position.into_iter().enumerate() {
                    for (filter, value) in result.into_iter().enumerate() {
                        outputs[filter * positions + position] = value;
                    }
                }
                Ok(outputs)
            }
            PlanLayer::Dense(_) => {
                // All units of a fully-connected layer share one receptive
                // field: its streams are filled once for the whole layer.
                let inputs = session.fill(compiled, std::slice::from_ref(&thresholds))?;
                // Decode inside the evaluating session and recycle the output
                // buffers into the arena they were taken from: take and
                // recycle stay paired per sub-session, so no arena net-drains
                // (and then re-allocates) under uneven chunk sizes.
                let eval_units = |session: &mut Session, rows: Range<usize>| {
                    let streams = compiled.evaluate(&inputs, rows, &mut session.arena)?;
                    let decoded: Vec<f64> = streams.iter().map(BitStream::bipolar_value).collect();
                    session.arena.recycle_all(streams);
                    Ok(decoded)
                };
                let work = fan_out_work(compiled, compiled.rows());
                let decoded = self.fan_out(session, compiled.rows(), work, eval_units);
                inputs.recycle(&mut session.arena);
                decoded
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_blocks::feature_block::FeatureBlockKind;
    use sc_blocks::inner_product::InnerProductKind;
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
        for kind in [FeatureBlockKind::ApcMaxBtanh, FeatureBlockKind::MuxMaxStanh] {
            let network = small_network(3);
            let config = ScNetworkConfig::new("c", vec![kind; 2], 128, PoolingStyle::Max);
            let engine = Engine::compile(&network, &config, options()).unwrap();
            let mut session = engine.new_session();
            let images: Vec<Tensor> = (1..4).map(image).collect();
            engine.verify(&mut session, &images).unwrap();
            assert!(engine.cached_weight_streams() > 0);
            // Every inference fills each input stream exactly once per
            // position: positions × pool window × streams per field, summed
            // over layers, counted across the fan-out workers too. An APC
            // field fills every lane (here 3×3 positions × 4 fields × 9
            // lanes for the conv layer plus 18 lanes for the dense one); a
            // MUX field fills its one selected stream (3×3 × 4 plus 1).
            let per_inference: usize = engine
                .plan()
                .layers
                .iter()
                .map(|layer| {
                    let (positions, block) = match layer {
                        PlanLayer::Conv(conv) => {
                            (conv.out_shape[1] * conv.out_shape[2], &conv.block)
                        }
                        PlanLayer::Dense(dense) => (1, &dense.block),
                    };
                    let streams_per_field = match block.kind().inner_product() {
                        InnerProductKind::Mux => 1,
                        _ => block.input_size(),
                    };
                    positions * block.pool_window() * streams_per_field
                })
                .sum();
            let expected = match kind.inner_product() {
                InnerProductKind::Mux => 9 * 4 + 1,
                _ => 9 * 4 * 9 + 18,
            };
            assert_eq!(per_inference, expected, "{kind}");
            let stats = session.cache_stats();
            assert_eq!(
                stats.misses,
                (images.len() * per_inference) as u64,
                "{kind}"
            );
            assert_eq!(stats.hits, 0);
        }
    }

    /// End-to-end kernel-backend bit-exactness: the scalar reference and
    /// the widest available backend (AVX2 on an x86-64 CPU that has it,
    /// the portable super-word elsewhere) must serve bit-identical
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

    /// An all-APC tiny-LeNet at `stream_length`: layers large enough to
    /// fan out (the small test network's never are).
    fn tiny_all_apc(stream_length: usize) -> Engine {
        tiny_lenet_engine(FeatureBlockKind::ApcMaxBtanh, stream_length)
    }

    /// tiny-LeNet with every layer of max-pooling `kind`.
    fn tiny_lenet_engine(kind: FeatureBlockKind, stream_length: usize) -> Engine {
        let config = ScNetworkConfig::new("tiny", vec![kind; 4], stream_length, PoolingStyle::Max);
        Engine::compile(
            &sc_nn::lenet::tiny_lenet(5),
            &config,
            EngineOptions::default(),
        )
        .unwrap()
    }

    fn frame(seed: u32) -> Tensor {
        Tensor::from_fn(&[1, 28, 28], |i| {
            (((i as u32).wrapping_mul(seed.wrapping_mul(2_654_435_761) | 1) >> 16) % 255) as f32
                / 255.0
        })
    }

    /// Whether each layer of `engine` fans out at thread limit `threads`,
    /// in plan order: every layer is evaluated on `frame`'s activations in
    /// a fresh session, whose sub-sessions only a fan-out creates. The
    /// caller holds `THREAD_LIMIT_LOCK`.
    fn layer_fan_outs(engine: &Engine, threads: usize, frame: &Tensor) -> Vec<bool> {
        sc_core::parallel::set_thread_limit(threads);
        let mut values = engine.plan().input_values(frame);
        let mut fanned_out = Vec::new();
        for (layer, compiled) in engine.plan().layers.iter().zip(&engine.layers) {
            let mut session = engine.new_session();
            values = engine
                .eval_layer(&mut session, layer, compiled, &values)
                .unwrap();
            fanned_out.push(!session.workers.is_empty());
        }
        sc_core::parallel::set_thread_limit(0);
        fanned_out
    }

    /// tiny-LeNet's layers that fan out at L = 256: conv1, conv2 and fc1;
    /// fc2 is below `MIN_FAN_OUT_WORK`.
    const FANNED_AT_L256: [bool; 4] = [true, true, true, false];

    #[test]
    fn single_request_fan_out_is_schedule_independent() {
        let engine = tiny_all_apc(256);
        let image = frame(11);
        let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Every layer but fc2 takes the fan-out path at 4 threads.
        assert_eq!(layer_fan_outs(&engine, 4, &image), FANNED_AT_L256);
        sc_core::parallel::set_thread_limit(1);
        let serial = engine.infer(&mut engine.new_session(), &image).unwrap();
        sc_core::parallel::set_thread_limit(4);
        let fanned = engine.infer(&mut engine.new_session(), &image).unwrap();
        sc_core::parallel::set_thread_limit(0);
        assert_eq!(serial, fanned);
    }

    /// Below `MIN_FAN_OUT_WORK` a layer runs in the calling session: at
    /// thread limit 2, tiny-LeNet's fc2 never touches the sub-sessions,
    /// while its convolutions and fc1 fan out.
    #[test]
    fn layers_below_the_handoff_work_run_serially() {
        let engine = tiny_all_apc(256);
        let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(layer_fan_outs(&engine, 2, &frame(3)), FANNED_AT_L256);
    }

    /// The cutoff weighs APC work only: a MUX layer fans out whatever its
    /// size, fc2 at L = 64 included.
    #[test]
    fn mux_layers_fan_out_at_any_work() {
        let engine = tiny_lenet_engine(FeatureBlockKind::MuxMaxStanh, 64);
        let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(layer_fan_outs(&engine, 2, &frame(5)), [true; 4]);
    }

    #[test]
    fn steady_state_inference_allocates_no_stream_buffers() {
        // Once the session arena is warm, fused inference must serve every
        // stream and count buffer from the pool: the session arena is
        // threaded through `CompiledLayer::fill` and `CompiledLayer::evaluate`.
        for kind in [FeatureBlockKind::ApcMaxBtanh, FeatureBlockKind::MuxMaxStanh] {
            let network = small_network(13);
            let config = ScNetworkConfig::new("c", vec![kind; 2], 128, PoolingStyle::Max);
            let engine = Engine::compile(&network, &config, options()).unwrap();
            let mut session = engine.new_session();
            let frames: Vec<Tensor> = (1..4).map(image).collect();
            // Keep all traffic in the session's own arena.
            let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            sc_core::parallel::set_thread_limit(1);
            // Warm-up: populate the arena pool.
            for frame in &frames {
                engine.infer(&mut session, frame).unwrap();
            }
            let warm = session.arena_stats();
            for frame in &frames {
                engine.infer(&mut session, frame).unwrap();
            }
            let steady = session.arena_stats();
            sc_core::parallel::set_thread_limit(0);
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
        // Fanned out at 4 threads, every range of a layer evaluates in its
        // own sub-session (range 0 in the session) and its output buffers
        // return to that arena: steady state must neither allocate fresh
        // buffers nor grow the pools (buffers leaking from one arena into
        // another would do both, one dense layer's worth per request).
        let engine = tiny_all_apc(256);
        let mut session = engine.new_session();
        let frame = frame(3);
        let _guard = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // The dense layer fc1 fans out too, not only the convolutions.
        assert_eq!(layer_fan_outs(&engine, 4, &frame), FANNED_AT_L256);
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
}

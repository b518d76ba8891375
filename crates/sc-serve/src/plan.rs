//! Lowering a trained [`sc_nn::network::Network`] plus an
//! [`sc_dcnn::config::ScNetworkConfig`] into an SC execution plan.
//!
//! The plan is the single source of truth for *what* the stochastic-computing
//! forward pass computes: which feature-extraction block evaluates which
//! unit, with which seeds, on which receptive fields, against which (clamped)
//! weights. Every execution path shares it:
//!
//! * the [`crate::interpreter::Interpreter`] walks the plan calling the
//!   existing per-call [`FeatureBlock::evaluate_stream`] path (regenerating
//!   every operand stream on every call), and
//! * the compiled [`crate::engine::Engine`] walks the same plan with
//!   pre-generated weight streams and input lane sequences, producing bit-identical
//!   outputs, and
//! * the plan's float twin ([`Plan::reference_infer`]) runs the
//!   interpreter's walk with each block's floating-point reference.
//!
//! ## Lowering rules
//!
//! The lowering recognizes the two layer groups LeNet-style networks are
//! built from and maps each to the paper's feature-extraction blocks:
//!
//! * `Conv2d → {Max,Avg}Pool2 [→ Tanh]` becomes one SC layer of
//!   `filters × (h/2) × (w/2)` feature-extraction blocks with a 2×2 pool
//!   window: each block consumes the four receptive fields of a pooling
//!   window sharing one filter, and its Stanh/Btanh activation plays the
//!   tanh's role.
//! * `Dense [→ Tanh]` becomes one SC layer of per-unit blocks with a pool
//!   window of one.
//!
//! Convolution/dense *biases* are not representable in the paper's inner
//! product blocks and are ignored by the SC path (both execution paths,
//! consistently). Weights and inter-layer values are clamped to the bipolar
//! range `[-1, 1]`; layer outputs are decoded bipolar values, so they are
//! always in range by construction.

use crate::error::ServeError;
use crate::interpreter::Inference;
use sc_blocks::feature_block::{FeatureBlock, FeatureBlockKind};
use sc_core::bitstream::StreamLength;
use sc_core::error::ScError;
use sc_core::parallel::parallel_map_range;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::layers::{AvgPool2, Conv2d, Dense, Layer, MaxPool2, Tanh};
use sc_nn::network::Network;
use sc_nn::tensor::Tensor;

/// Options controlling the lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Shape `(channels, height, width)` of the network input.
    pub input_shape: [usize; 3],
    /// Base seed from which every SC layer derives its block seed.
    pub base_seed: u64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            input_shape: [1, 28, 28],
            base_seed: 0x5CD0_C0DE,
        }
    }
}

/// The block seed shared by every feature-extraction block of SC layer
/// `sc_index`. One seed per layer (not per unit) mirrors the hardware — each
/// unit is an identical block with identically-wired SNGs — and is what
/// makes weight streams shareable per filter and input streams shareable
/// across the units of a fully-connected layer.
pub fn layer_seed(base_seed: u64, sc_index: usize) -> u64 {
    base_seed.wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(sc_index as u64 + 1))
}

/// Offsets of the four receptive fields inside a 2×2 pooling window, in the
/// pool-window field order used by both execution paths.
pub const POOL_WINDOW_OFFSETS: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];

/// One lowered convolution + pooling (+ activation) group.
#[derive(Debug, Clone)]
pub struct ConvPlanLayer {
    /// The feature-extraction block every unit of this layer instantiates.
    pub block: FeatureBlock,
    /// Input shape `(channels, height, width)`.
    pub in_shape: [usize; 3],
    /// Output shape `(filters, pooled_height, pooled_width)`.
    pub out_shape: [usize; 3],
    /// Convolution kernel side length.
    pub kernel: usize,
    /// Per-filter flattened weights (channel-major, then kernel rows), each
    /// clamped to the bipolar range.
    pub filters: Vec<Vec<f64>>,
}

impl ConvPlanLayer {
    /// The four receptive fields of pooled output position `(py, px)`, in
    /// pool-window order, gathered from the flattened input `values`.
    pub fn gather_fields<T: Copy>(&self, values: &[T], py: usize, px: usize) -> Vec<Vec<T>> {
        let mut fields = Vec::new();
        self.gather_fields_into(values, py, px, &mut fields);
        fields
    }

    /// [`ConvPlanLayer::gather_fields`] into `fields`, reusing its buffers:
    /// a warm `fields` (one that held a position of this layer) takes no
    /// allocation.
    pub fn gather_fields_into<T: Copy>(
        &self,
        values: &[T],
        py: usize,
        px: usize,
        fields: &mut Vec<Vec<T>>,
    ) {
        let [channels, height, width] = self.in_shape;
        debug_assert_eq!(values.len(), channels * height * width);
        let k = self.kernel;
        fields.resize_with(POOL_WINDOW_OFFSETS.len(), Vec::new);
        for (field, &(dy, dx)) in fields.iter_mut().zip(&POOL_WINDOW_OFFSETS) {
            let y0 = 2 * py + dy;
            let x0 = 2 * px + dx;
            field.clear();
            for c in 0..channels {
                for ky in 0..k {
                    let row = (c * height + y0 + ky) * width + x0;
                    field.extend_from_slice(&values[row..row + k]);
                }
            }
        }
    }

    /// Number of feature-extraction blocks in this layer.
    pub fn unit_count(&self) -> usize {
        self.out_shape.iter().product()
    }
}

/// One lowered fully-connected (+ activation) group.
#[derive(Debug, Clone)]
pub struct DensePlanLayer {
    /// The feature-extraction block every unit of this layer instantiates
    /// (pool window of one).
    pub block: FeatureBlock,
    /// Number of inputs after flattening.
    pub input_size: usize,
    /// Per-unit weight vectors, clamped to the bipolar range.
    pub units: Vec<Vec<f64>>,
}

/// A lowered SC layer.
#[derive(Debug, Clone)]
pub enum PlanLayer {
    /// Convolution + 2×2 pooling (+ tanh) group.
    Conv(ConvPlanLayer),
    /// Fully-connected (+ tanh) group.
    Dense(DensePlanLayer),
}

impl PlanLayer {
    /// Number of feature-extraction blocks in the layer.
    pub fn unit_count(&self) -> usize {
        match self {
            PlanLayer::Conv(conv) => conv.unit_count(),
            PlanLayer::Dense(dense) => dense.units.len(),
        }
    }

    /// The layer's feature-extraction block template.
    pub fn block(&self) -> &FeatureBlock {
        match self {
            PlanLayer::Conv(conv) => &conv.block,
            PlanLayer::Dense(dense) => &dense.block,
        }
    }

    /// The layer's weight rows: one per filter (convolution) or unit
    /// (fully-connected).
    pub fn rows(&self) -> &[Vec<f64>] {
        match self {
            PlanLayer::Conv(conv) => &conv.filters,
            PlanLayer::Dense(dense) => &dense.units,
        }
    }
}

/// An immutable SC execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Lowered layers, in execution order.
    pub layers: Vec<PlanLayer>,
    /// Bit-stream length every stream in the plan uses.
    pub stream_length: StreamLength,
    /// Expected input shape `(channels, height, width)`.
    pub input_shape: [usize; 3],
    /// Name of the source configuration (e.g. `"No.6"`).
    pub config_name: String,
}

impl Plan {
    /// Number of output classes (units of the final layer).
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, |l| l.unit_count())
    }

    /// Total number of feature-extraction block evaluations per inference.
    pub fn total_units(&self) -> usize {
        self.layers.iter().map(|l| l.unit_count()).sum()
    }

    /// Checks that `image` has the plan's input element count and only
    /// finite pixels.
    ///
    /// Quantization would otherwise map NaN to 0 and saturate ±Inf to ±1,
    /// answering a corrupt frame as if it were a valid one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] on a size mismatch or naming the
    /// first non-finite pixel.
    pub fn validate_input(&self, image: &Tensor) -> Result<(), ServeError> {
        let expected: usize = self.input_shape.iter().product();
        if image.len() != expected {
            return Err(ServeError::Invalid(format!(
                "input has {} elements, plan expects {} ({:?})",
                image.len(),
                expected,
                self.input_shape
            )));
        }
        if let Some(index) = image.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(ServeError::Invalid(format!(
                "input element {index} is not finite ({})",
                image.as_slice()[index]
            )));
        }
        Ok(())
    }

    /// Clamps, widens, and quantizes an input image into the bipolar working
    /// domain.
    ///
    /// Inputs are snapped to the `L + 1` levels a length-`L` stream can
    /// represent (`sc_core::encoding::quantize_bipolar_levels`). Decoded
    /// layer outputs already live on that grid, so this changes each pixel
    /// by at most `1/L` — below the stream's own resolution — and leaves at
    /// most `L + 1` distinct comparator thresholds per SNG lane, so
    /// near-duplicate pixels encode to the same stream. Both execution paths
    /// (interpreter and compiled engine) share this function, so they remain
    /// bit-identical.
    pub fn input_values(&self, image: &Tensor) -> Vec<f64> {
        let bits = self.stream_length.bits();
        image
            .as_slice()
            .iter()
            .map(|&v| sc_core::encoding::quantize_bipolar_levels(clamp_bipolar(v), bits))
            .collect()
    }

    /// The plan's float twin: the same walk as the
    /// [`crate::interpreter::Interpreter`] on the same quantized inputs, with
    /// every feature-extraction block evaluated by its floating-point
    /// reference `tanh(pool(⟨x, w⟩))` ([`FeatureBlock::reference`]) instead
    /// of in stochastic computing. Its agreement with the float network is
    /// what the lowering loses; the engine's agreement with it is what the
    /// SC rendering loses.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for a wrong input size or a
    /// non-finite pixel.
    pub fn reference_infer(&self, image: &Tensor) -> Result<Inference, ServeError> {
        self.walk(image, FeatureBlock::reference)
    }

    /// Walks the plan over `image`: validates and quantizes it, then
    /// evaluates every unit of every layer with `unit(block, receptive
    /// fields, weights)` on the previous layer's outputs, units fanned out
    /// across `sc_core::parallel` workers. The interpreter and the float
    /// twin both run this walk, so they cannot drift apart in data flow.
    pub(crate) fn walk(
        &self,
        image: &Tensor,
        unit: impl Fn(&FeatureBlock, &[Vec<f64>], &[f64]) -> Result<f64, ScError> + Sync,
    ) -> Result<Inference, ServeError> {
        self.validate_input(image)?;
        let mut values = self.input_values(image);
        for layer in &self.layers {
            let outputs = match layer {
                PlanLayer::Conv(conv) => {
                    let [filters, pooled_h, pooled_w] = conv.out_shape;
                    let positions = pooled_h * pooled_w;
                    parallel_map_range(filters * positions, |index| {
                        let (filter, position) = (index / positions, index % positions);
                        let fields =
                            conv.gather_fields(&values, position / pooled_w, position % pooled_w);
                        unit(&conv.block, &fields, &conv.filters[filter])
                    })
                }
                PlanLayer::Dense(dense) => {
                    let field = [values];
                    parallel_map_range(dense.units.len(), |index| {
                        unit(&dense.block, &field, &dense.units[index])
                    })
                }
            };
            values = outputs.into_iter().collect::<Result<_, _>>()?;
        }
        Ok(Inference::from_logits(values))
    }
}

/// Clamps a trained-network value into the bipolar range as an `f64`.
pub fn clamp_bipolar(value: f32) -> f64 {
    (f64::from(value)).clamp(-1.0, 1.0)
}

/// The feature-extraction-block kind configured for SC layer `sc_index`
/// (layers beyond the configuration reuse its last entry, matching the
/// `sc-dcnn` mapping convention where all fully-connected layers share the
/// "Layer2" configuration).
fn kind_for(config: &ScNetworkConfig, sc_index: usize) -> FeatureBlockKind {
    config
        .layer_kinds
        .get(sc_index)
        .copied()
        .unwrap_or_else(|| {
            *config
                .layer_kinds
                .last()
                .expect("configurations are non-empty")
        })
}

/// Lowers a trained network and an SC configuration into a [`Plan`].
///
/// # Errors
///
/// Returns [`ServeError::Unsupported`] for network structures outside the
/// `conv+pool(+tanh)` / `dense(+tanh)` grammar, shape mismatches, or a
/// pooling style conflicting with the configured block kinds, and
/// [`ServeError::Sc`] for unusable stream lengths.
pub fn lower(
    network: &Network,
    config: &ScNetworkConfig,
    options: &PlanOptions,
) -> Result<Plan, ServeError> {
    let stream_length = StreamLength::try_new(config.stream_length).map_err(ServeError::from)?;
    let layers = network.layers();
    let mut plan_layers: Vec<PlanLayer> = Vec::new();
    let mut shape: Vec<usize> = options.input_shape.to_vec();
    let mut index = 0usize;
    let mut sc_index = 0usize;
    while index < layers.len() {
        let layer = &layers[index];
        if let Some(conv) = layer.as_any().downcast_ref::<Conv2d>() {
            let [channels, height, width] = shape_3d(&shape, sc_index)?;
            if channels != conv.in_channels() {
                return Err(ServeError::Unsupported(format!(
                    "conv layer {sc_index} expects {} input channels, data flow provides {channels}",
                    conv.in_channels()
                )));
            }
            let k = conv.kernel();
            if height < k || width < k {
                return Err(ServeError::Unsupported(format!(
                    "conv layer {sc_index}: {height}x{width} input smaller than {k}x{k} kernel"
                )));
            }
            let (out_h, out_w) = (height - k + 1, width - k + 1);
            let pool = layers.get(index + 1).ok_or_else(|| {
                ServeError::Unsupported(format!(
                    "conv layer {sc_index} must be followed by 2x2 pooling"
                ))
            })?;
            let pool_is_max = pool.as_any().downcast_ref::<MaxPool2>().is_some();
            let pool_is_avg = pool.as_any().downcast_ref::<AvgPool2>().is_some();
            if !pool_is_max && !pool_is_avg {
                return Err(ServeError::Unsupported(format!(
                    "conv layer {sc_index} is followed by '{}', expected 2x2 pooling",
                    pool.name()
                )));
            }
            if out_h % 2 != 0 || out_w % 2 != 0 {
                return Err(ServeError::Unsupported(format!(
                    "conv layer {sc_index}: {out_h}x{out_w} pre-pool output is not 2x2-poolable"
                )));
            }
            let kind = kind_for(config, sc_index);
            if kind.uses_max_pooling() != pool_is_max {
                return Err(ServeError::Unsupported(format!(
                    "conv layer {sc_index}: configured block {kind} does not match the \
                     network's {} pooling",
                    if pool_is_max { "max" } else { "average" }
                )));
            }
            index += 2;
            if next_is_tanh(layers, index) {
                index += 1;
            }
            let block = FeatureBlock::with_pool_window(
                kind,
                channels * k * k,
                4,
                stream_length,
                layer_seed(options.base_seed, sc_index),
            )?;
            let weights = conv
                .weights()
                .expect("convolution layers always carry weights");
            let filters = split_filters(weights, conv.out_channels());
            let out_shape = [conv.out_channels(), out_h / 2, out_w / 2];
            plan_layers.push(PlanLayer::Conv(ConvPlanLayer {
                block,
                in_shape: [channels, height, width],
                out_shape,
                kernel: k,
                filters,
            }));
            shape = out_shape.to_vec();
        } else if let Some(dense) = layer.as_any().downcast_ref::<Dense>() {
            let input_size: usize = shape.iter().product();
            if input_size != dense.input_size() {
                return Err(ServeError::Unsupported(format!(
                    "dense layer {sc_index} expects {} inputs, data flow provides {input_size}",
                    dense.input_size()
                )));
            }
            index += 1;
            if next_is_tanh(layers, index) {
                index += 1;
            }
            let kind = kind_for(config, sc_index);
            let block = FeatureBlock::with_pool_window(
                kind,
                input_size,
                1,
                stream_length,
                layer_seed(options.base_seed, sc_index),
            )?;
            let weights = dense.weights().expect("dense layers always carry weights");
            let units = split_filters(weights, dense.output_size());
            plan_layers.push(PlanLayer::Dense(DensePlanLayer {
                block,
                input_size,
                units,
            }));
            shape = vec![dense.output_size()];
        } else {
            return Err(ServeError::Unsupported(format!(
                "layer '{}' at position {index} has no SC lowering",
                layer.name()
            )));
        }
        sc_index += 1;
    }
    if plan_layers.is_empty() {
        return Err(ServeError::Unsupported(
            "network contains no lowerable layers".into(),
        ));
    }
    Ok(Plan {
        layers: plan_layers,
        stream_length,
        input_shape: options.input_shape,
        config_name: config.name.clone(),
    })
}

fn next_is_tanh(layers: &[Box<dyn Layer>], index: usize) -> bool {
    layers
        .get(index)
        .is_some_and(|l| l.as_any().downcast_ref::<Tanh>().is_some())
}

fn shape_3d(shape: &[usize], sc_index: usize) -> Result<[usize; 3], ServeError> {
    match shape {
        [c, h, w] => Ok([*c, *h, *w]),
        other => Err(ServeError::Unsupported(format!(
            "conv layer {sc_index} needs a (c, h, w) input, data flow provides {other:?}"
        ))),
    }
}

/// Splits a `(rows, …)` weight tensor into `rows` clamped flat vectors.
fn split_filters(weights: &Tensor, rows: usize) -> Vec<Vec<f64>> {
    let per_row = weights.len() / rows;
    weights
        .as_slice()
        .chunks(per_row)
        .map(|chunk| chunk.iter().map(|&w| clamp_bipolar(w)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_nn::lenet::{tiny_lenet, PoolingStyle};

    fn config(kind: FeatureBlockKind, pooling: PoolingStyle) -> ScNetworkConfig {
        ScNetworkConfig::new("test", vec![kind; 3], 128, pooling)
    }

    #[test]
    fn tiny_lenet_lowers_to_four_sc_layers() {
        let network = tiny_lenet(3);
        let plan = lower(
            &network,
            &config(FeatureBlockKind::ApcMaxBtanh, PoolingStyle::Max),
            &PlanOptions::default(),
        )
        .unwrap();
        assert_eq!(plan.layers.len(), 4);
        assert_eq!(plan.output_size(), 10);
        match &plan.layers[0] {
            PlanLayer::Conv(conv) => {
                assert_eq!(conv.in_shape, [1, 28, 28]);
                assert_eq!(conv.out_shape, [8, 12, 12]);
                assert_eq!(conv.filters.len(), 8);
                assert_eq!(conv.filters[0].len(), 25);
            }
            other => panic!("layer 0 should be conv, got {other:?}"),
        }
        match &plan.layers[2] {
            PlanLayer::Dense(dense) => {
                assert_eq!(dense.input_size, 16 * 4 * 4);
                assert_eq!(dense.units.len(), 64);
            }
            other => panic!("layer 2 should be dense, got {other:?}"),
        }
        // 8*144 + 16*16 + 64 + 10 block evaluations per inference.
        assert_eq!(plan.total_units(), 8 * 144 + 16 * 16 + 64 + 10);
    }

    #[test]
    fn pooling_mismatch_is_rejected() {
        let network = tiny_lenet(3); // max pooling
        let result = lower(
            &network,
            &config(FeatureBlockKind::ApcAvgBtanh, PoolingStyle::Average),
            &PlanOptions::default(),
        );
        assert!(matches!(result, Err(ServeError::Unsupported(_))));
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let network = tiny_lenet(3);
        let result = lower(
            &network,
            &config(FeatureBlockKind::ApcMaxBtanh, PoolingStyle::Max),
            &PlanOptions {
                input_shape: [1, 9, 9],
                base_seed: 1,
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn gather_fields_matches_manual_indexing() {
        let network = tiny_lenet(3);
        let plan = lower(
            &network,
            &config(FeatureBlockKind::ApcMaxBtanh, PoolingStyle::Max),
            &PlanOptions::default(),
        )
        .unwrap();
        let PlanLayer::Conv(conv) = &plan.layers[0] else {
            panic!("layer 0 should be conv");
        };
        let values: Vec<f64> = (0..28 * 28).map(|i| (i % 97) as f64 / 97.0).collect();
        let fields = conv.gather_fields(&values, 1, 2);
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[0].len(), 25);
        // Field 0 of window (1, 2) starts at conv position (2, 4).
        assert_eq!(fields[0][0], values[2 * 28 + 4]);
        // Field 3 is offset by (1, 1).
        assert_eq!(fields[3][0], values[3 * 28 + 5]);
        // Second kernel row of field 0.
        assert_eq!(fields[0][5], values[3 * 28 + 4]);
        // Gathering into buffers that held another position overwrites
        // them.
        let mut reused = conv.gather_fields(&values, 0, 0);
        conv.gather_fields_into(&values, 1, 2, &mut reused);
        assert_eq!(reused, fields);
    }

    #[test]
    fn input_values_are_quantized_to_stream_levels() {
        let network = tiny_lenet(3);
        let plan = lower(
            &network,
            &config(FeatureBlockKind::ApcMaxBtanh, PoolingStyle::Max),
            &PlanOptions::default(),
        )
        .unwrap();
        let l = plan.stream_length.bits() as f64;
        let image = Tensor::from_fn(&[1, 28, 28], |i| (i as f32 / 784.0) * 2.0 - 1.0);
        let values = plan.input_values(&image);
        for &v in &values {
            let k = (v + 1.0) / 2.0 * l;
            assert!(
                (k - k.round()).abs() < 1e-9,
                "input {v} is not on the L+1 level grid"
            );
        }
        // Two pixels closer than half a level collapse onto the same level
        // (this is what makes stream-cache keys deterministic).
        let eps = (0.1 / l) as f32;
        let a = Tensor::from_fn(&[1, 28, 28], |_| 0.3);
        let b = Tensor::from_fn(&[1, 28, 28], |_| 0.3 + eps);
        assert_eq!(plan.input_values(&a), plan.input_values(&b));
    }

    #[test]
    fn weights_are_clamped_to_bipolar_range() {
        let mut network = sc_nn::network::Network::new("clamp");
        network.push(Box::new(Dense::new(4, 2, 1)));
        if let Some(w) = network.layers_mut()[0].weights_mut() {
            w.as_mut_slice()[0] = 5.0;
            w.as_mut_slice()[1] = -5.0;
        }
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh],
            64,
            PoolingStyle::Max,
        );
        let plan = lower(
            &network,
            &config,
            &PlanOptions {
                input_shape: [1, 2, 2],
                base_seed: 7,
            },
        )
        .unwrap();
        let PlanLayer::Dense(dense) = &plan.layers[0] else {
            panic!("expected dense");
        };
        assert_eq!(dense.units[0][0], 1.0);
        assert_eq!(dense.units[0][1], -1.0);
    }
}

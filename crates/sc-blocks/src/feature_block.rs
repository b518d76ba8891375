//! Feature extraction blocks (FEBs).
//!
//! A feature extraction block (Fig. 10 of the paper) cascades four
//! inner-product blocks, one pooling block and one activation block, and is
//! the unit the network-level optimizer selects per layer. The paper studies
//! four jointly-optimized configurations; all of them are exposed behind the
//! single [`FeatureBlock`] type so the higher layers can treat the choice as
//! data:
//!
//! | Kind | Inner product | Pooling | Activation | Character |
//! |---|---|---|---|---|
//! | `MuxAvgStanh` | MUX | average | Stanh (Eq. 1) | smallest/cheapest, worst accuracy |
//! | `MuxMaxStanh` | MUX | hardware max | re-designed Stanh (Eq. 2) | cheap, medium accuracy |
//! | `ApcAvgBtanh` | APC | average | Btanh (Eq. 3) | accurate, higher area/energy |
//! | `ApcMaxBtanh` | APC | hardware max | Btanh | most accurate, most expensive |
//!
//! A block evaluates one unit per call ([`FeatureBlock::evaluate_stream`],
//! regenerating every operand stream), or a whole layer at once:
//! [`FeatureBlock::compile_layer`] builds a [`CompiledLayer`] that holds the
//! layer's weights and input SNG sequences in the operand form the block's
//! inner product fixes, and evaluates every unit of a layer position in one
//! fused call, bit-identical to the per-unit path.
//!
//! Every hot kernel a feature block evaluates — SNG comparator fills, the
//! MUX layers' selected-sequence fill (an AVX2 gather on that backend),
//! fused XNOR/popcount reductions, MUX selector-plan gathers, the packed
//! Harley-Seal column counts and their plane drain, the hardware max pool's
//! lane counts over streams and over count planes, and the Btanh batch
//! walk — dispatches to the active [`sc_core::word`] backend
//! (scalar, portable super-word, or SIMD); only the Stanh byte-table walk
//! is the same code on every backend. Backends are bit-identical, so block
//! outputs do not depend on which one serves them.

use crate::activation_block::{ActivationKind, BtanhBlock, StanhBlock};
use crate::inner_product::{
    mux_selector, reference_inner_product, ApcInnerProduct, InnerProductKind, MuxInnerProduct,
    WEIGHT_BANK_SEED_XOR,
};
use crate::pooling::{AveragePooling, HardwareMaxPooling, PoolingKind};
use sc_core::add::{Apc, MuxSelectorPlan};
use sc_core::arena::StreamArena;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::csa::{CountPlanes, PackedLanes, ROW_GROUP};
use sc_core::encoding::{Bipolar, Encoding};
use sc_core::error::ScError;
use sc_core::parallel::parallel_map_with;
use sc_core::sng::{probability_threshold, LaneSequence, SelectedSequence, SngBank};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Default segment length (in bits) of the hardware-oriented max pooling.
pub const DEFAULT_MAX_POOL_SEGMENT: usize = 16;

/// Caps an activation state count at half the bit-stream length (rounded to
/// an even number, floored at two) so the counter can actually traverse its
/// range within one stream.
fn capped_states(states: usize, stream_length: sc_core::bitstream::StreamLength) -> usize {
    let cap = (stream_length.bits() / 2).max(2) & !1;
    states.min(cap)
}

/// The four feature extraction block configurations studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureBlockKind {
    /// MUX inner product, average pooling, Stanh activation.
    MuxAvgStanh,
    /// MUX inner product, hardware-oriented max pooling, re-designed Stanh.
    MuxMaxStanh,
    /// APC inner product, average pooling, Btanh activation.
    ApcAvgBtanh,
    /// APC inner product, hardware-oriented max pooling, Btanh activation.
    ApcMaxBtanh,
}

impl FeatureBlockKind {
    /// All four kinds in the paper's order.
    pub const ALL: [FeatureBlockKind; 4] = [
        FeatureBlockKind::MuxAvgStanh,
        FeatureBlockKind::MuxMaxStanh,
        FeatureBlockKind::ApcAvgBtanh,
        FeatureBlockKind::ApcMaxBtanh,
    ];

    /// The two max-pooling configurations.
    pub const MAX_POOLING: [FeatureBlockKind; 2] =
        [FeatureBlockKind::MuxMaxStanh, FeatureBlockKind::ApcMaxBtanh];

    /// The two average-pooling configurations.
    pub const AVG_POOLING: [FeatureBlockKind; 2] =
        [FeatureBlockKind::MuxAvgStanh, FeatureBlockKind::ApcAvgBtanh];

    /// The paper's name for the configuration (e.g. `"MUX-Avg-Stanh"`).
    pub fn name(self) -> &'static str {
        match self {
            FeatureBlockKind::MuxAvgStanh => "MUX-Avg-Stanh",
            FeatureBlockKind::MuxMaxStanh => "MUX-Max-Stanh",
            FeatureBlockKind::ApcAvgBtanh => "APC-Avg-Btanh",
            FeatureBlockKind::ApcMaxBtanh => "APC-Max-Btanh",
        }
    }

    /// Short name used in Table 6 ("MUX" / "APC").
    pub fn short_name(self) -> &'static str {
        match self.inner_product() {
            InnerProductKind::Mux => "MUX",
            _ => "APC",
        }
    }

    /// The inner-product block family used by this configuration.
    pub fn inner_product(self) -> InnerProductKind {
        match self {
            FeatureBlockKind::MuxAvgStanh | FeatureBlockKind::MuxMaxStanh => InnerProductKind::Mux,
            FeatureBlockKind::ApcAvgBtanh | FeatureBlockKind::ApcMaxBtanh => InnerProductKind::Apc,
        }
    }

    /// The pooling block used by this configuration.
    pub fn pooling(self) -> PoolingKind {
        match self {
            FeatureBlockKind::MuxAvgStanh | FeatureBlockKind::ApcAvgBtanh => PoolingKind::Average,
            FeatureBlockKind::MuxMaxStanh | FeatureBlockKind::ApcMaxBtanh => {
                PoolingKind::HardwareMax
            }
        }
    }

    /// The activation block used by this configuration.
    pub fn activation(self) -> ActivationKind {
        match self {
            FeatureBlockKind::MuxAvgStanh | FeatureBlockKind::MuxMaxStanh => ActivationKind::Stanh,
            FeatureBlockKind::ApcAvgBtanh | FeatureBlockKind::ApcMaxBtanh => ActivationKind::Btanh,
        }
    }

    /// Whether this configuration uses max pooling.
    pub fn uses_max_pooling(self) -> bool {
        self.pooling() == PoolingKind::HardwareMax
    }

    /// The kind with the same inner product / activation but the other
    /// pooling strategy (useful when the network-level search is restricted
    /// to a pooling style).
    pub fn with_pooling(self, max: bool) -> FeatureBlockKind {
        match (self.inner_product(), max) {
            (InnerProductKind::Mux, true) => FeatureBlockKind::MuxMaxStanh,
            (InnerProductKind::Mux, false) => FeatureBlockKind::MuxAvgStanh,
            (_, true) => FeatureBlockKind::ApcMaxBtanh,
            (_, false) => FeatureBlockKind::ApcAvgBtanh,
        }
    }
}

impl std::fmt::Display for FeatureBlockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A configured feature extraction block.
///
/// The block is parameterized by the receptive-field size `N` (number of
/// inputs per inner product), the pooling window size (number of inner
/// products pooled together, four for the 2×2 windows used by LeNet-5), and
/// the bit-stream length `L`. The activation state count is derived from the
/// configuration via the paper's empirical formulas at construction time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureBlock {
    kind: FeatureBlockKind,
    input_size: usize,
    pool_window: usize,
    stream_length: StreamLength,
    seed: u64,
    stanh: Option<StanhBlock>,
    btanh: Option<BtanhBlock>,
}

impl FeatureBlock {
    /// Creates a feature extraction block with a 2×2 pooling window.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a zero `input_size`.
    pub fn new(
        kind: FeatureBlockKind,
        input_size: usize,
        stream_length: StreamLength,
        seed: u64,
    ) -> Result<Self, ScError> {
        Self::with_pool_window(kind, input_size, 4, stream_length, seed)
    }

    /// Creates a feature extraction block with an explicit pooling window.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a zero `input_size` or
    /// `pool_window`.
    pub fn with_pool_window(
        kind: FeatureBlockKind,
        input_size: usize,
        pool_window: usize,
        stream_length: StreamLength,
        seed: u64,
    ) -> Result<Self, ScError> {
        if input_size == 0 {
            return Err(ScError::InvalidParameter {
                name: "input_size",
                message: "receptive field must contain at least one element".into(),
            });
        }
        if pool_window == 0 {
            return Err(ScError::InvalidParameter {
                name: "pool_window",
                message: "pooling window must contain at least one inner product".into(),
            });
        }
        let (stanh, btanh) = match kind {
            FeatureBlockKind::MuxAvgStanh => (
                Some(StanhBlock::for_mux_avg(input_size, stream_length.bits())?),
                None,
            ),
            FeatureBlockKind::MuxMaxStanh => (
                Some(StanhBlock::for_mux_max(input_size, stream_length.bits())?),
                None,
            ),
            // The averaging adder merges the pool window's APC outputs, so
            // the counter effectively sees `pool_window · N` lanes; Eq. 3 is
            // applied to that effective lane count. The counter is further
            // capped at half the stream length: a counter with more states
            // than the stream can traverse never saturates and only adds
            // latency (the paper's joint optimization makes the same
            // bit-stream-length/state-count trade).
            FeatureBlockKind::ApcAvgBtanh => {
                let states = capped_states(
                    sc_core::activation::apc_avg_btanh_states(input_size * pool_window),
                    stream_length,
                );
                (None, Some(BtanhBlock::with_states(states)?))
            }
            FeatureBlockKind::ApcMaxBtanh => {
                let states = capped_states(
                    sc_core::activation::apc_max_btanh_states(input_size),
                    stream_length,
                );
                (None, Some(BtanhBlock::with_states(states)?))
            }
        };
        Ok(Self {
            kind,
            input_size,
            pool_window,
            stream_length,
            seed,
            stanh,
            btanh,
        })
    }

    /// The configuration kind.
    pub fn kind(&self) -> FeatureBlockKind {
        self.kind
    }

    /// Receptive-field size `N` per inner product.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of inner products pooled together.
    pub fn pool_window(&self) -> usize {
        self.pool_window
    }

    /// Configured bit-stream length `L`.
    pub fn stream_length(&self) -> StreamLength {
        self.stream_length
    }

    /// The average-pooling block used by the Avg configurations.
    ///
    /// Single point of truth for the pooling selector's seed derivation:
    /// the per-call and layer-fused paths are only bit-identical because
    /// they both instantiate *this* block.
    fn average_pooling(&self) -> AveragePooling {
        AveragePooling::new(self.seed ^ 0x5151_5151)
    }

    /// The activation state count selected by the joint-optimization formulas.
    pub fn activation_states(&self) -> usize {
        match (&self.stanh, &self.btanh) {
            (Some(block), _) => block.states(),
            (_, Some(block)) => block.states(),
            _ => unreachable!("a feature block always has exactly one activation"),
        }
    }

    /// Evaluates the block on `pool_window` receptive fields sharing one
    /// filter, returning the SC output stream.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] if the number of receptive
    /// fields differs from the pooling window or any receptive field /
    /// the filter has the wrong length, and propagates encoding errors for
    /// values outside `[-1, 1]`.
    pub fn evaluate_stream(
        &self,
        receptive_fields: &[Vec<f64>],
        weights: &[f64],
    ) -> Result<BitStream, ScError> {
        self.validate(receptive_fields, weights)?;
        // The pool window's inner products are independent hardware blocks
        // with per-field seeds, so they fan out across threads; each worker
        // reuses one stream arena so the per-field evaluations stay
        // allocation-free. Seeds derive from the field index, never from the
        // thread schedule, so parallel and serial runs are bit-identical.
        match self.kind {
            FeatureBlockKind::MuxAvgStanh | FeatureBlockKind::MuxMaxStanh => {
                let streams: Vec<BitStream> =
                    parallel_map_with(receptive_fields, StreamArena::new, |arena, i, field| {
                        MuxInnerProduct::new(self.field_seed(i)).evaluate_stream_with(
                            field,
                            weights,
                            self.stream_length,
                            arena,
                        )
                    })
                    .into_iter()
                    .collect::<Result<_, _>>()?;
                let pooled = if self.kind == FeatureBlockKind::MuxAvgStanh {
                    self.average_pooling().pool_streams(&streams)?
                } else {
                    HardwareMaxPooling::new(DEFAULT_MAX_POOL_SEGMENT)?.pool_streams(&streams)?
                };
                let stanh = self.stanh.as_ref().expect("MUX blocks carry a Stanh");
                Ok(stanh.apply(&pooled))
            }
            FeatureBlockKind::ApcAvgBtanh | FeatureBlockKind::ApcMaxBtanh => {
                let counts: Vec<_> =
                    parallel_map_with(receptive_fields, StreamArena::new, |arena, i, field| {
                        ApcInnerProduct::new(self.field_seed(i)).evaluate_counts_with(
                            field,
                            weights,
                            self.stream_length,
                            arena,
                        )
                    })
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()?;
                let pooled = if self.kind == FeatureBlockKind::ApcAvgBtanh {
                    // Average pooling in the binary domain is an adder tree;
                    // the 1/pool_window division is folded into the Btanh
                    // state count (see `with_pool_window`).
                    sc_core::add::CountStream::merge_sum(&counts)?
                } else {
                    HardwareMaxPooling::new(DEFAULT_MAX_POOL_SEGMENT)?.pool_counts(&counts)?
                };
                let btanh = self.btanh.as_ref().expect("APC blocks carry a Btanh");
                Ok(btanh.apply(&pooled))
            }
        }
    }

    /// Seed of the inner-product block evaluating pool-window field
    /// `field_index` (the per-field seed derivation of
    /// [`FeatureBlock::evaluate_stream`]); its input SNG bank is based at
    /// this seed and its weight bank at the seed `^ WEIGHT_BANK_SEED_XOR`.
    fn field_seed(&self, field_index: usize) -> u64 {
        self.seed.wrapping_add(1 + field_index as u64 * 131)
    }

    /// The lane sequences of the SNG bank based at `base_seed`, one per
    /// receptive-field element.
    fn lane_sequences(&self, base_seed: u64) -> Vec<LaneSequence> {
        (0..self.input_size)
            .map(|lane| LaneSequence::new(SngBank::lane_seed(base_seed, lane), self.stream_length))
            .collect()
    }

    /// Compiles one SC layer of this block against the weights of its
    /// `rows` (the filters of a convolution layer or the units of a
    /// fully-connected one): everything [`CompiledLayer::evaluate`] needs
    /// that does not depend on the input, drawn once from the block's seeds.
    ///
    /// Every row shares the block's seeds and therefore its SNG wiring and
    /// its MUX selectors, so one set of input sequences serves every row,
    /// and a row's weight streams are generated once for the layer's
    /// lifetime instead of once per call — the filter-aware sharing the
    /// paper applies to SRAM (`sc_dcnn::weight_storage`). The inner product
    /// fixes the operand form:
    ///
    /// * a MUX forwards one lane per cycle, so a field needs one selected
    ///   stream: each field keeps one [`SelectedSequence`] for its inputs
    ///   (per cycle, the lane the selector forwards and that lane's sample)
    ///   and each row the one selected stream of its weights, `N` times
    ///   less than the lanes, filled like an input from the field's selected
    ///   weight sequence;
    /// * an APC counts every lane, so a field needs all of them: each field
    ///   keeps one [`LaneSequence`] per lane, and every row's weight lanes
    ///   are packed into one contiguous [`PackedLanes`] buffer per field in
    ///   row order, so an evaluation reads each row's weights once, front
    ///   to back.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a row of other than
    /// `input_size` weights or a lane count the packed layout cannot hold,
    /// and propagates encoding errors for weights outside `[-1, 1]`.
    pub fn compile_layer(&self, rows: &[Vec<f64>]) -> Result<CompiledLayer, ScError> {
        if let Some(row) = rows.iter().find(|row| row.len() != self.input_size) {
            return Err(ScError::InvalidParameter {
                name: "weights",
                message: format!("expected {} weights, got {}", self.input_size, row.len()),
            });
        }
        let weight_thresholds = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&weight| probability_threshold(Bipolar::to_probability(weight)?))
                    .collect::<Result<Vec<u32>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let length = self.stream_length;
        let operands = match self.kind.inner_product() {
            InnerProductKind::Mux => {
                let mut inputs = Vec::with_capacity(self.pool_window);
                let mut weights = vec![Vec::with_capacity(self.pool_window); rows.len()];
                for field in 0..self.pool_window {
                    let seed = self.field_seed(field);
                    let plan = MuxSelectorPlan::new(
                        self.input_size,
                        length.bits(),
                        &mut mux_selector(seed),
                    )?;
                    inputs.push(SelectedSequence::new(&self.lane_sequences(seed), &plan)?);
                    let selected_weights = SelectedSequence::new(
                        &self.lane_sequences(seed ^ WEIGHT_BANK_SEED_XOR),
                        &plan,
                    )?;
                    for (row, thresholds) in weights.iter_mut().zip(&weight_thresholds) {
                        let mut stream = BitStream::zeros(length);
                        selected_weights.fill(thresholds, &mut stream)?;
                        row.push(stream);
                    }
                }
                let avg_plan = match self.kind {
                    FeatureBlockKind::MuxAvgStanh => Some(
                        self.average_pooling()
                            .selector_plan(self.pool_window, length.bits())?,
                    ),
                    _ => None,
                };
                Operands::Mux {
                    inputs,
                    weights,
                    avg_plan,
                }
            }
            _ => {
                let mut inputs = Vec::with_capacity(self.pool_window);
                let mut weights = Vec::with_capacity(self.pool_window);
                for field in 0..self.pool_window {
                    let seed = self.field_seed(field);
                    inputs.push(self.lane_sequences(seed));
                    let weight_lanes = self.lane_sequences(seed ^ WEIGHT_BANK_SEED_XOR);
                    let mut packed = PackedLanes::zeroed(self.input_size, length, rows.len())?;
                    for (row, thresholds) in weight_thresholds.iter().enumerate() {
                        packed.fill_row(row, &weight_lanes, thresholds)?;
                    }
                    weights.push(packed);
                }
                Operands::Apc { inputs, weights }
            }
        };
        Ok(CompiledLayer {
            block: self.clone(),
            rows: rows.len(),
            operands,
        })
    }

    /// Evaluates the block and decodes the output to a bipolar value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FeatureBlock::evaluate_stream`].
    pub fn evaluate(&self, receptive_fields: &[Vec<f64>], weights: &[f64]) -> Result<f64, ScError> {
        Ok(self
            .evaluate_stream(receptive_fields, weights)?
            .bipolar_value())
    }

    /// The floating-point reference output: `tanh(pool(⟨xᵢ, w⟩))` with the
    /// pooling operator matching this configuration.
    ///
    /// # Errors
    ///
    /// Same validation as [`FeatureBlock::evaluate_stream`].
    pub fn reference(
        &self,
        receptive_fields: &[Vec<f64>],
        weights: &[f64],
    ) -> Result<f64, ScError> {
        self.validate(receptive_fields, weights)?;
        let inner_products: Vec<f64> = receptive_fields
            .iter()
            .map(|field| reference_inner_product(field, weights))
            .collect();
        let pooled = if self.kind.uses_max_pooling() {
            inner_products
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        } else {
            inner_products.iter().sum::<f64>() / inner_products.len() as f64
        };
        Ok(pooled.tanh())
    }

    /// Absolute error of the SC evaluation against the reference for one
    /// input set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FeatureBlock::evaluate_stream`].
    pub fn absolute_error(
        &self,
        receptive_fields: &[Vec<f64>],
        weights: &[f64],
    ) -> Result<f64, ScError> {
        let sc = self.evaluate(receptive_fields, weights)?;
        let reference = self.reference(receptive_fields, weights)?;
        Ok((sc - reference).abs())
    }

    fn validate(&self, receptive_fields: &[Vec<f64>], weights: &[f64]) -> Result<(), ScError> {
        if receptive_fields.len() != self.pool_window {
            return Err(ScError::InvalidParameter {
                name: "receptive_fields",
                message: format!(
                    "expected {} receptive fields, got {}",
                    self.pool_window,
                    receptive_fields.len()
                ),
            });
        }
        if weights.len() != self.input_size {
            return Err(ScError::InvalidParameter {
                name: "weights",
                message: format!(
                    "expected {} weights, got {}",
                    self.input_size,
                    weights.len()
                ),
            });
        }
        for (i, field) in receptive_fields.iter().enumerate() {
            if field.len() != self.input_size {
                return Err(ScError::InvalidParameter {
                    name: "receptive_fields",
                    message: format!(
                        "receptive field {i} has {} elements, expected {}",
                        field.len(),
                        self.input_size
                    ),
                });
            }
        }
        Ok(())
    }
}

/// One SC layer compiled by [`FeatureBlock::compile_layer`]: the block, its
/// input sequences and every row's weight streams, in the operand form the
/// block's inner product consumes.
///
/// A request evaluates a layer position in two steps. [`CompiledLayer::fill`]
/// turns the comparator thresholds of the position's receptive fields into
/// [`LayerInputs`] — every stream is a comparator pass over a precomputed
/// sequence, the hardware view of one fixed RNG sequence per comparator
/// group — and [`CompiledLayer::evaluate`] evaluates any range of rows on
/// them in one fused call. The inputs are shared by every row, so a
/// position's streams are filled once for all filters (convolution) or
/// units (fully-connected). The layer is immutable and `Sync`: any number
/// of workers evaluate it at once, each with its own arena.
#[derive(Debug)]
pub struct CompiledLayer {
    block: FeatureBlock,
    rows: usize,
    operands: Operands,
}

/// The input-independent operands of a [`CompiledLayer`].
#[derive(Debug)]
enum Operands {
    /// One selected input sequence per field, `[row][field]` selected weight
    /// streams, and the average-pooling selector plan (`MuxAvgStanh` only).
    Mux {
        inputs: Vec<SelectedSequence>,
        weights: Vec<Vec<BitStream>>,
        avg_plan: Option<MuxSelectorPlan>,
    },
    /// `[field][lane]` input sequences, and per field every row's weight
    /// lanes packed one row per filter or unit.
    Apc {
        inputs: Vec<Vec<LaneSequence>>,
        weights: Vec<PackedLanes>,
    },
}

/// The input streams of one layer position, filled by
/// [`CompiledLayer::fill`]: the one selected stream per field of a MUX
/// layer, or every lane of an APC layer packed one field per buffer. The
/// buffers come from the filling arena; [`LayerInputs::recycle`] returns
/// them. `Sync`, so fan-out workers evaluate disjoint rows on one fill.
#[derive(Debug)]
pub struct LayerInputs(Inputs);

#[derive(Debug)]
enum Inputs {
    Selected(Vec<BitStream>),
    Packed(Vec<PackedLanes>),
}

impl LayerInputs {
    /// Returns every buffer to `arena`.
    pub fn recycle(self, arena: &mut StreamArena) {
        match self.0 {
            Inputs::Selected(fields) => arena.recycle_all(fields),
            Inputs::Packed(fields) => {
                for field in fields {
                    arena.recycle_packed(field);
                }
            }
        }
    }
}

impl CompiledLayer {
    /// Number of rows (filters or units) the layer evaluates.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Weight streams the layer holds: one per row and field for a MUX
    /// layer (the selected stream), one per row, field and lane for an APC
    /// layer.
    pub fn weight_streams(&self) -> usize {
        self.rows * self.streams_per_fill()
    }

    /// Input streams one [`CompiledLayer::fill`] fills: one per field for a
    /// MUX layer, one per field and lane for an APC layer.
    pub fn streams_per_fill(&self) -> usize {
        match self.operands {
            Operands::Mux { .. } => self.block.pool_window,
            Operands::Apc { .. } => self.block.pool_window * self.block.input_size,
        }
    }

    /// The size of one APC row's evaluation on one position: every
    /// field's lanes times the stream's 64-bit words, the operand words the
    /// packed count core reads. `None` for a MUX layer, whose row reads one
    /// selected stream per field and whose fill costs one comparator per
    /// cycle, not per lane: the product would overstate its work about
    /// `input_size`-fold, and no measure of it has been derived.
    pub fn apc_row_work(&self) -> Option<usize> {
        let block = &self.block;
        matches!(self.operands, Operands::Apc { .. })
            .then(|| block.pool_window * block.input_size * block.stream_length.bits().div_ceil(64))
    }

    /// Fills the input streams of one layer position from the comparator
    /// thresholds ([`probability_threshold`]) of its `pool_window`
    /// receptive fields of `input_size` values each. The buffers are taken
    /// from `arena`; recycle them with [`LayerInputs::recycle`]. An APC
    /// field's lanes are filled straight into their packed group-lane
    /// slots, one comparator call per field ([`PackedLanes::fill_row`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a field count other than
    /// the pool window or a field of other than `input_size` values.
    pub fn fill(
        &self,
        fields: &[Vec<u32>],
        arena: &mut StreamArena,
    ) -> Result<LayerInputs, ScError> {
        let block = &self.block;
        if fields.len() != block.pool_window {
            return Err(ScError::InvalidParameter {
                name: "fields",
                message: format!(
                    "expected {} receptive fields, got {}",
                    block.pool_window,
                    fields.len()
                ),
            });
        }
        if let Some((field, values)) = fields
            .iter()
            .enumerate()
            .find(|(_, values)| values.len() != block.input_size)
        {
            return Err(ScError::InvalidParameter {
                name: "fields",
                message: format!(
                    "receptive field {field} has {} values, expected {}",
                    values.len(),
                    block.input_size
                ),
            });
        }
        let length = block.stream_length;
        let inputs = match &self.operands {
            Operands::Mux { inputs, .. } => Inputs::Selected(
                fields
                    .iter()
                    .zip(inputs)
                    .map(|(thresholds, sequence)| {
                        let mut stream = arena.take_zeroed(length);
                        sequence.fill(thresholds, &mut stream)?;
                        Ok(stream)
                    })
                    .collect::<Result<_, ScError>>()?,
            ),
            Operands::Apc { inputs, .. } => Inputs::Packed(
                fields
                    .iter()
                    .zip(inputs)
                    .map(|(thresholds, lanes)| {
                        let mut packed = arena.take_packed(block.input_size, length)?;
                        packed.fill_row(0, lanes, thresholds)?;
                        Ok(packed)
                    })
                    .collect::<Result<_, ScError>>()?,
            ),
        };
        Ok(LayerInputs(inputs))
    }

    /// Evaluates the rows in `rows` on one position's filled `inputs` in a
    /// single fused call.
    ///
    /// `result[i]` is **bit-identical** to [`FeatureBlock::evaluate_stream`]
    /// on the position's values and the weights of row `rows.start + i`:
    /// the multiply-accumulate kernels, the per-field MUX selectors, the
    /// pooling block and the activation apply in the same order with the
    /// same seeds. The fused call does the shared work once instead of once
    /// per row:
    ///
    /// * a MUX row's field sum is one word-wise XNOR of the selected input
    ///   and the selected weight stream: the MUX forwards one lane per
    ///   cycle, so `MUX(x ⊙ w) = MUX(x) ⊙ MUX(w)` under the field's plan;
    ///   a MUX-Max row never materializes it, as the max pool forms each
    ///   product word as it reads it
    ///   ([`HardwareMaxPooling::pool_xnor_products_with`]);
    /// * the average-pooling MUX selector is planned once and replayed over
    ///   the materialized field sums;
    /// * APC popcounts run through the packed Harley-Seal core
    ///   ([`Apc::count_planes_with`]): each row's weights of a field are
    ///   read once, front to back, against the field's packed inputs, and
    ///   the counts stay bit-planes (see [`sc_core::csa`]); the APC's
    ///   approximate LSB is a rewrite of each row's ones plane;
    /// * an APC-Max row pools its fields' planes: each 16-bit segment's
    ///   total is the planes' SWAR lane-popcounts shifted by plane weight,
    ///   and the previous segment's winner's planes are blended in
    ///   ([`HardwareMaxPooling::pool_planes_with`]); an APC-Avg row adds
    ///   its fields' planes with a bit-sliced ripple adder
    ///   ([`CountPlanes::merge_sum_with`]); either way only the pooled row
    ///   is drained into the `u16` counts the Btanh walk reads, once;
    /// * the MUX-Max hardware max pool counts every 16-bit segment of a
    ///   word with one SWAR lane-popcount and picks the forwarding mask by
    ///   a lane-wise argmax, `W::LANES` words per step on the active
    ///   [`sc_core::word`] backend; a one-field pool window (every dense
    ///   layer) passes its field straight to the activation (an APC row
    ///   still drains its planes), as the max or average of one input is
    ///   that input;
    /// * the Stanh walks of all rows run through the block's byte table,
    ///   built once at construction, one lookup per input byte
    ///   ([`StanhBlock::apply_batch_with`]); the Btanh walks step 8 rows
    ///   at a time from one row-interleaved count buffer that every pooled
    ///   row is drained into ([`CountPlanes::drain_interleaved`],
    ///   [`BtanhBlock::apply_rows_with`]).
    ///
    /// **Arena contract**: the caller owns `arena` and threads it down; all
    /// intermediates (per-field MUX sums, APC count planes and counts,
    /// pooled streams) are taken from and recycled into it before the call
    /// returns, so steady-state evaluation allocates no stream, plane or
    /// count buffers. The returned output streams are arena-backed too —
    /// the caller recycles them once decoded.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a row range past the last
    /// row or `inputs` filled by a layer of another form or shape, and
    /// propagates kernel errors.
    pub fn evaluate(
        &self,
        inputs: &LayerInputs,
        rows: Range<usize>,
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        if rows.start > rows.end || rows.end > self.rows {
            return Err(ScError::InvalidParameter {
                name: "rows",
                message: format!("rows {rows:?} outside a layer of {} rows", self.rows),
            });
        }
        let block = &self.block;
        let bits = block.stream_length.bits();
        match (&self.operands, &inputs.0) {
            (
                Operands::Mux {
                    weights, avg_plan, ..
                },
                Inputs::Selected(fields),
            ) if fields.len() == block.pool_window
                && fields.iter().all(|stream| stream.len() == bits) =>
            {
                self.evaluate_mux(fields, &weights[rows], avg_plan.as_ref(), arena)
            }
            (Operands::Apc { weights, .. }, Inputs::Packed(fields))
                if fields.len() == block.pool_window
                    && fields.iter().all(|field| {
                        field.lanes() == block.input_size && field.length().bits() == bits
                    }) =>
            {
                self.evaluate_apc(fields, weights, rows, arena)
            }
            _ => Err(ScError::InvalidParameter {
                name: "inputs",
                message: format!("inputs were not filled by this {} layer", block.kind),
            }),
        }
    }

    /// The MUX branch of [`CompiledLayer::evaluate`].
    fn evaluate_mux(
        &self,
        inputs: &[BitStream],
        weights: &[Vec<BitStream>],
        avg_plan: Option<&MuxSelectorPlan>,
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        let block = &self.block;
        let max_pool = HardwareMaxPooling::new(DEFAULT_MAX_POOL_SEGMENT)?;
        let product = |x: &BitStream, w: &BitStream, arena: &mut StreamArena| {
            let mut sum = arena.take_zeroed(block.stream_length);
            sum.words_mut().copy_from_slice(x.as_words());
            sum.xnor_assign(w);
            sum
        };
        let mut pooled_rows = Vec::with_capacity(weights.len());
        let mut field_sums: Vec<BitStream> = Vec::with_capacity(block.pool_window);
        for row in weights {
            // The max or average of one field is that field.
            let pooled = if block.pool_window == 1 {
                product(&inputs[0], &row[0], arena)
            } else if let Some(plan) = avg_plan {
                for (x, w) in inputs.iter().zip(row) {
                    field_sums.push(product(x, w, arena));
                }
                let pooled = block.average_pooling().pool_streams_with_plan_with(
                    &field_sums,
                    plan,
                    arena,
                )?;
                arena.recycle_all(field_sums.drain(..));
                pooled
            } else {
                max_pool.pool_xnor_products_with(inputs, row, arena)?
            };
            pooled_rows.push(pooled);
        }
        let stanh = block.stanh.as_ref().expect("MUX blocks carry a Stanh");
        let refs: Vec<&BitStream> = pooled_rows.iter().collect();
        let outputs = stanh.apply_batch_with(&refs, arena);
        drop(refs);
        arena.recycle_all(pooled_rows);
        Ok(outputs)
    }

    /// The APC branch of [`CompiledLayer::evaluate`]: per field, every
    /// row's APC count planes; per row, the pool in the plane domain; then
    /// one drain of every pooled row into a row-interleaved count buffer
    /// and one Btanh walk over all of them.
    fn evaluate_apc(
        &self,
        inputs: &[PackedLanes],
        weights: &[PackedLanes],
        rows: Range<usize>,
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        let block = &self.block;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        // Planes transposed to row-major as each field's pass completes.
        let mut per_row: Vec<Vec<CountPlanes>> = rows
            .clone()
            .map(|_| Vec::with_capacity(block.pool_window))
            .collect();
        for (input, field_weights) in inputs.iter().zip(weights) {
            let field_planes = Apc::new().count_planes_with(
                input.view(),
                field_weights.view_rows(rows.clone()),
                arena,
            )?;
            for (row, planes) in field_planes.into_iter().enumerate() {
                per_row[row].push(planes);
            }
        }
        let max_pool = HardwareMaxPooling::new(DEFAULT_MAX_POOL_SEGMENT)?;
        let mut pooled_rows = Vec::with_capacity(per_row.len());
        for mut row_planes in per_row {
            let pooled = if block.pool_window == 1 {
                row_planes.pop().expect("one field")
            } else {
                let pooled = if block.kind == FeatureBlockKind::ApcAvgBtanh {
                    CountPlanes::merge_sum_with(&row_planes, arena)?
                } else {
                    max_pool.pool_planes_with(&row_planes, arena)?
                };
                for planes in row_planes {
                    arena.recycle_planes(planes);
                }
                pooled
            };
            pooled_rows.push(pooled);
        }
        let lanes = pooled_rows[0].lanes();
        let mut counts = arena.take_counts(
            pooled_rows.len().next_multiple_of(ROW_GROUP) * block.stream_length.bits(),
        );
        let drained = CountPlanes::drain_interleaved(&pooled_rows, &mut counts);
        let rows = pooled_rows.len();
        for pooled in pooled_rows {
            arena.recycle_planes(pooled);
        }
        let outputs = drained.map(|()| {
            let btanh = block.btanh.as_ref().expect("APC blocks carry a Btanh");
            btanh.apply_rows_with(&counts, rows, lanes, block.stream_length, arena)
        });
        arena.recycle_counts(counts);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(input_size: usize, pool_window: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (input_size as f64).sqrt();
        let fields = (0..pool_window)
            .map(|_| (0..input_size).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let weights = (0..input_size)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        (fields, weights)
    }

    #[test]
    fn kind_component_mapping_is_consistent() {
        for kind in FeatureBlockKind::ALL {
            match kind.activation() {
                ActivationKind::Stanh => assert_eq!(kind.inner_product(), InnerProductKind::Mux),
                ActivationKind::Btanh => assert_eq!(kind.inner_product(), InnerProductKind::Apc),
            }
            assert!(!kind.name().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!(FeatureBlockKind::MuxMaxStanh.uses_max_pooling());
        assert!(!FeatureBlockKind::ApcAvgBtanh.uses_max_pooling());
    }

    #[test]
    fn with_pooling_swaps_only_the_pooling() {
        for kind in FeatureBlockKind::ALL {
            assert_eq!(kind.with_pooling(kind.uses_max_pooling()), kind);
            for max in [false, true] {
                let swapped = kind.with_pooling(max);
                assert_eq!(swapped.uses_max_pooling(), max, "{kind}");
                assert_eq!(swapped.inner_product(), kind.inner_product(), "{kind}");
            }
        }
    }

    #[test]
    fn construction_validates_parameters() {
        let len = StreamLength::new(256);
        assert!(FeatureBlock::new(FeatureBlockKind::ApcAvgBtanh, 0, len, 1).is_err());
        assert!(
            FeatureBlock::with_pool_window(FeatureBlockKind::ApcAvgBtanh, 4, 0, len, 1).is_err()
        );
        let block = FeatureBlock::new(FeatureBlockKind::ApcAvgBtanh, 16, len, 1).unwrap();
        assert_eq!(block.input_size(), 16);
        assert_eq!(block.pool_window(), 4);
        assert_eq!(block.stream_length(), len);
        assert_eq!(block.activation_states(), 32);
    }

    #[test]
    fn evaluation_validates_shapes() {
        let block =
            FeatureBlock::new(FeatureBlockKind::ApcAvgBtanh, 8, StreamLength::new(128), 3).unwrap();
        let (fields, weights) = random_case(8, 4, 1);
        assert!(block.evaluate(&fields[..3], &weights).is_err());
        assert!(block.evaluate(&fields, &weights[..7]).is_err());
        let mut bad_fields = fields.clone();
        bad_fields[2].pop();
        assert!(block.evaluate(&bad_fields, &weights).is_err());
        assert!(block.evaluate(&fields, &weights).is_ok());
    }

    #[test]
    fn apc_blocks_track_reference_closely() {
        let mut total_error = 0.0;
        let trials = 6;
        for trial in 0..trials {
            let block = FeatureBlock::new(
                FeatureBlockKind::ApcAvgBtanh,
                16,
                StreamLength::new(1024),
                trial,
            )
            .unwrap();
            let (fields, weights) = random_case(16, 4, 500 + trial);
            total_error += block.absolute_error(&fields, &weights).unwrap();
        }
        let mean_error = total_error / trials as f64;
        assert!(
            mean_error < 0.25,
            "APC-Avg-Btanh mean error {mean_error} too large"
        );
    }

    #[test]
    fn apc_max_block_tracks_reference() {
        let block = FeatureBlock::new(
            FeatureBlockKind::ApcMaxBtanh,
            16,
            StreamLength::new(1024),
            9,
        )
        .unwrap();
        let (fields, weights) = random_case(16, 4, 77);
        let error = block.absolute_error(&fields, &weights).unwrap();
        assert!(error < 0.4, "APC-Max-Btanh error {error} too large");
    }

    #[test]
    fn apc_is_more_accurate_than_mux_avg() {
        let mut apc_error = 0.0;
        let mut mux_error = 0.0;
        let trials = 6;
        for trial in 0..trials {
            let (fields, weights) = random_case(32, 4, 900 + trial);
            let apc = FeatureBlock::new(
                FeatureBlockKind::ApcAvgBtanh,
                32,
                StreamLength::new(1024),
                trial,
            )
            .unwrap();
            let mux = FeatureBlock::new(
                FeatureBlockKind::MuxAvgStanh,
                32,
                StreamLength::new(1024),
                trial,
            )
            .unwrap();
            apc_error += apc.absolute_error(&fields, &weights).unwrap();
            mux_error += mux.absolute_error(&fields, &weights).unwrap();
        }
        assert!(
            apc_error < mux_error,
            "expected APC ({apc_error}) to be more accurate than MUX-Avg ({mux_error})"
        );
    }

    #[test]
    fn mux_blocks_produce_streams_of_configured_length() {
        for kind in [FeatureBlockKind::MuxAvgStanh, FeatureBlockKind::MuxMaxStanh] {
            let block = FeatureBlock::new(kind, 8, StreamLength::new(256), 5).unwrap();
            let (fields, weights) = random_case(8, 4, 31);
            let stream = block.evaluate_stream(&fields, &weights).unwrap();
            assert_eq!(stream.len(), 256);
        }
    }

    #[test]
    fn reference_uses_matching_pooling() {
        let (fields, weights) = random_case(8, 4, 13);
        let avg_block =
            FeatureBlock::new(FeatureBlockKind::ApcAvgBtanh, 8, StreamLength::new(128), 1).unwrap();
        let max_block =
            FeatureBlock::new(FeatureBlockKind::ApcMaxBtanh, 8, StreamLength::new(128), 1).unwrap();
        let avg_ref = avg_block.reference(&fields, &weights).unwrap();
        let max_ref = max_block.reference(&fields, &weights).unwrap();
        assert!(
            max_ref >= avg_ref - 1e-12,
            "max pooling reference must dominate average"
        );
    }

    /// Comparator thresholds of `fields`, the form a compiled layer fills
    /// its input streams from.
    fn thresholds(fields: &[Vec<f64>]) -> Vec<Vec<u32>> {
        fields
            .iter()
            .map(|field| {
                field
                    .iter()
                    .map(|&value| {
                        probability_threshold(Bipolar::to_probability(value).unwrap()).unwrap()
                    })
                    .collect()
            })
            .collect()
    }

    /// Fills `fields` through `layer` and evaluates `rows` on them.
    fn fill_and_evaluate(
        layer: &CompiledLayer,
        fields: &[Vec<f64>],
        rows: Range<usize>,
        arena: &mut StreamArena,
    ) -> Vec<BitStream> {
        let inputs = layer.fill(&thresholds(fields), arena).unwrap();
        let outputs = layer.evaluate(&inputs, rows, arena).unwrap();
        inputs.recycle(arena);
        outputs
    }

    #[test]
    fn layer_fused_evaluation_is_bit_exact_with_per_call_path() {
        // All four kinds, lengths including the non-word-multiple 127, a
        // 2x2 pool window and the one-field window of a dense layer (whose
        // field skips the pooling block), and several rows sharing the
        // layer's input streams: compile, fill from thresholds and
        // evaluate must reproduce `evaluate_stream` bit for bit for every
        // row, whole or in a sub-range.
        for kind in FeatureBlockKind::ALL {
            for len in [100usize, 127, 256] {
                for window in [4usize, 1] {
                    let block =
                        FeatureBlock::with_pool_window(kind, 8, window, StreamLength::new(len), 77)
                            .unwrap();
                    let (fields, _) = random_case(8, window, 4321 + len as u64);
                    let rows: Vec<Vec<f64>> =
                        (0..3).map(|u| random_case(8, window, 9000 + u).1).collect();
                    let layer = block.compile_layer(&rows).unwrap();
                    assert_eq!(layer.rows(), 3);
                    let mut arena = StreamArena::new();
                    let fused = fill_and_evaluate(&layer, &fields, 0..3, &mut arena);
                    assert_eq!(fused.len(), 3);
                    for (row, weights) in rows.iter().enumerate() {
                        let per_call = block.evaluate_stream(&fields, weights).unwrap();
                        assert_eq!(
                            fused[row], per_call,
                            "{kind} row {row} at length {len}, window {window}"
                        );
                    }
                    let tail = fill_and_evaluate(&layer, &fields, 1..3, &mut arena);
                    assert_eq!(tail, fused[1..], "{kind} rows 1..3");
                }
            }
        }
    }

    #[test]
    fn layer_fused_arena_path_is_bit_exact_and_allocation_free_in_steady_state() {
        // Filling and evaluating repeatedly through one shared arena must
        // (a) reproduce a fresh-arena call bit for bit and (b) take every
        // stream/count/packed buffer from the pool once the arena is warm.
        for kind in FeatureBlockKind::ALL {
            let block = FeatureBlock::new(kind, 8, StreamLength::new(127), 77).unwrap();
            let (fields, _) = random_case(8, 4, 4321);
            let rows: Vec<Vec<f64>> = (0..3).map(|u| random_case(8, 4, 9000 + u).1).collect();
            let layer = block.compile_layer(&rows).unwrap();
            let expected = fill_and_evaluate(&layer, &fields, 0..3, &mut StreamArena::new());
            let mut arena = StreamArena::new();
            let mut warm_allocs = 0;
            for round in 0..3 {
                let outputs = fill_and_evaluate(&layer, &fields, 0..3, &mut arena);
                assert_eq!(outputs, expected, "{kind} round {round}");
                arena.recycle_all(outputs);
                let stats = arena.stats();
                if round == 0 {
                    warm_allocs = stats.total_allocs();
                } else {
                    assert_eq!(
                        stats.total_allocs(),
                        warm_allocs,
                        "{kind}: steady-state fused evaluation must not allocate \
                         stream or count buffers (round {round})"
                    );
                }
            }
        }
    }

    #[test]
    fn layer_fused_evaluation_is_schedule_independent() {
        // The per-call path fans receptive fields across threads; the fused
        // path must match it whatever the thread budget is.
        let kind = FeatureBlockKind::ApcMaxBtanh;
        let block = FeatureBlock::new(kind, 8, StreamLength::new(127), 3).unwrap();
        let (fields, _) = random_case(8, 4, 555);
        let filter = random_case(8, 4, 556).1;
        let layer = block.compile_layer(std::slice::from_ref(&filter)).unwrap();
        let fused = fill_and_evaluate(&layer, &fields, 0..1, &mut StreamArena::new());
        for limit in [1usize, 4] {
            sc_core::parallel::set_thread_limit(limit);
            let per_call = block.evaluate_stream(&fields, &filter).unwrap();
            sc_core::parallel::set_thread_limit(0);
            assert_eq!(fused[0], per_call, "thread limit {limit}");
        }
    }

    #[test]
    fn layer_fused_evaluation_validates_shapes() {
        let invalid = |result: Result<LayerInputs, ScError>| {
            matches!(result, Err(ScError::InvalidParameter { .. }))
        };
        let mut arena = StreamArena::new();
        let length = StreamLength::new(64);
        for kind in [FeatureBlockKind::MuxAvgStanh, FeatureBlockKind::ApcAvgBtanh] {
            let block = FeatureBlock::new(kind, 4, length, 3).unwrap();
            let (fields, weights) = random_case(4, 4, 9);
            let good = thresholds(&fields);
            // A row of the wrong weight count, or a weight outside [-1, 1].
            assert!(block.compile_layer(&[weights[..3].to_vec()]).is_err());
            assert!(block.compile_layer(&[vec![0.0, 0.0, 0.0, 1.5]]).is_err());
            let layer = block
                .compile_layer(&[weights.clone(), weights.clone()])
                .unwrap();
            assert_eq!(layer.rows(), 2);
            let per_field = if kind == FeatureBlockKind::MuxAvgStanh {
                1
            } else {
                4
            };
            assert_eq!(layer.streams_per_fill(), 4 * per_field);
            assert_eq!(layer.weight_streams(), 2 * 4 * per_field);
            // Field counts other than the pool window.
            assert!(invalid(layer.fill(&good[..3], &mut arena)), "{kind}");
            let mut extra = good.clone();
            extra.push(good[0].clone());
            assert!(invalid(layer.fill(&extra, &mut arena)), "{kind}");
            // A field with a value count other than the input size.
            let mut short = good.clone();
            short[1].pop();
            assert!(invalid(layer.fill(&short, &mut arena)), "{kind}");
            let mut long = good.clone();
            long[2].push(0);
            assert!(invalid(layer.fill(&long, &mut arena)), "{kind}");
            // Row ranges past the last row.
            let inputs = layer.fill(&good, &mut arena).unwrap();
            assert!(layer.evaluate(&inputs, 1..3, &mut arena).is_err());
            assert!(layer
                .evaluate(&inputs, 2..2, &mut arena)
                .unwrap()
                .is_empty());
            assert_eq!(layer.evaluate(&inputs, 0..2, &mut arena).unwrap().len(), 2);
            inputs.recycle(&mut arena);
            // A layer without rows evaluates to nothing.
            let empty = block.compile_layer(&[]).unwrap();
            let inputs = empty.fill(&good, &mut arena).unwrap();
            assert!(empty
                .evaluate(&inputs, 0..0, &mut arena)
                .unwrap()
                .is_empty());
            inputs.recycle(&mut arena);
        }
        // Inputs filled by a layer of another form or shape are rejected.
        let layers: Vec<(CompiledLayer, usize)> = [
            (FeatureBlockKind::MuxMaxStanh, 4),
            (FeatureBlockKind::ApcMaxBtanh, 4),
            (FeatureBlockKind::MuxMaxStanh, 1),
            (FeatureBlockKind::ApcMaxBtanh, 1),
        ]
        .into_iter()
        .map(|(kind, window)| {
            let block = FeatureBlock::with_pool_window(kind, 4, window, length, 3).unwrap();
            let (_, weights) = random_case(4, window, 9);
            (block.compile_layer(&[weights]).unwrap(), window)
        })
        .collect();
        for (a, (filler, window)) in layers.iter().enumerate() {
            let inputs = filler
                .fill(&thresholds(&random_case(4, *window, 9).0), &mut arena)
                .unwrap();
            for (b, (layer, _)) in layers.iter().enumerate() {
                let result = layer.evaluate(&inputs, 0..1, &mut arena);
                assert_eq!(result.is_ok(), a == b, "inputs of layer {a} on layer {b}");
            }
            inputs.recycle(&mut arena);
        }
    }

    #[test]
    fn output_is_within_bipolar_range() {
        for kind in FeatureBlockKind::ALL {
            let block = FeatureBlock::new(kind, 16, StreamLength::new(256), 21).unwrap();
            let (fields, weights) = random_case(16, 4, 321);
            let value = block.evaluate(&fields, &weights).unwrap();
            assert!(
                (-1.0..=1.0).contains(&value),
                "{kind}: output {value} outside [-1, 1]"
            );
        }
    }
}

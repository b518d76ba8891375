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
//! Every hot kernel a feature block evaluates — SNG comparator fills, fused
//! XNOR/popcount reductions, MUX selector-plan gathers, the packed
//! Harley-Seal column counts, and the Btanh batch walk — is word-generic and dispatches
//! to the active [`sc_core::word`] backend (scalar, portable super-word, or
//! SIMD); the hardware max pool's lane counts and the Stanh byte-table walk
//! are the same code on every backend. Backends are bit-identical, so block
//! outputs do not depend on which one serves them.

use crate::activation_block::{ActivationKind, BtanhBlock, StanhBlock};
use crate::inner_product::{
    mux_selector, reference_inner_product, ApcInnerProduct, InnerProductKind, MuxInnerProduct,
    WEIGHT_BANK_SEED_XOR,
};
use crate::pooling::{AveragePooling, HardwareMaxPooling, PoolingKind};
use sc_core::add::{Apc, CountStream, MuxAdder, MuxSelectorPlan};
use sc_core::arena::StreamArena;
use sc_core::bitstream::{BitStream, StreamLength};
use sc_core::csa::{PackedLanes, PackedView};
use sc_core::error::ScError;
use sc_core::parallel::parallel_map_with;
use sc_core::sng::{BatchSng, SngBank, SngKind};
use serde::{Deserialize, Serialize};

/// Default segment length (in bits) of the hardware-oriented max pooling.
pub const DEFAULT_MAX_POOL_SEGMENT: usize = 16;

/// Caps an activation state count at half the bit-stream length (rounded to
/// an even number, floored at two) so the counter can actually traverse its
/// range within one stream.
fn capped_states(states: usize, stream_length: sc_core::bitstream::StreamLength) -> usize {
    let cap = (stream_length.bits() / 2).max(2) & !1;
    states.min(cap.max(2))
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
            (_, false) => FeatureBlockKind::MuxAvgStanh.pick_apc(false),
        }
    }

    fn pick_apc(self, max: bool) -> FeatureBlockKind {
        if max {
            FeatureBlockKind::ApcMaxBtanh
        } else {
            FeatureBlockKind::ApcAvgBtanh
        }
    }
}

impl std::fmt::Display for FeatureBlockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pre-drawn MUX selector plans for one SC layer at one stream length.
///
/// Built by [`FeatureBlock::prepare_selectors`]; the plans depend only on
/// the block's seeds and the stream length, so one set serves every unit,
/// every layer position, and every fan-out worker, and a compiled engine
/// builds it once at load time. The field plans gather each field's lane
/// streams into the one stream its MUX forwards ([`LayerSelectors::gather`],
/// or a [`sc_core::sng::SelectedSequence`] for input fills); the
/// average-pooling plan is replayed by
/// [`FeatureBlock::evaluate_layer_prepared_with`]. Empty for APC kinds.
#[derive(Debug, Clone)]
pub struct LayerSelectors {
    /// One inner-product selector plan per pool-window field (MUX kinds).
    field_plans: Vec<MuxSelectorPlan>,
    /// The average-pooling selector plan (`MuxAvgStanh` only).
    avg_plan: Option<MuxSelectorPlan>,
    stream_bits: usize,
}

impl LayerSelectors {
    /// The stream length (in bits) the plans were drawn for.
    pub fn stream_bits(&self) -> usize {
        self.stream_bits
    }

    /// The inner-product selector plan of each pool-window field (empty for
    /// APC kinds).
    pub fn field_plans(&self) -> &[MuxSelectorPlan] {
        &self.field_plans
    }

    /// Gathers `[field][lane]` operand streams into the form
    /// [`LayerOperands::Gathered`] takes: for MUX kinds, each field's lanes
    /// become the single stream its selector forwards
    /// ([`MuxAdder::sum_with_plan`]); APC kinds keep every lane (which
    /// [`LayerOperands::Packed`] takes packed, [`PackedLanes::pack`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a field count other than
    /// the plans' and propagates [`MuxAdder::sum_with_plan`]'s errors for
    /// lanes or lengths that do not match a plan.
    pub fn gather(&self, fields: Vec<Vec<BitStream>>) -> Result<Vec<Vec<BitStream>>, ScError> {
        if self.field_plans.is_empty() {
            return Ok(fields);
        }
        if fields.len() != self.field_plans.len() {
            return Err(ScError::InvalidParameter {
                name: "fields",
                message: format!(
                    "{} fields for {} selector plans",
                    fields.len(),
                    self.field_plans.len()
                ),
            });
        }
        fields
            .iter()
            .zip(&self.field_plans)
            .map(|(lanes, plan)| Ok(vec![MuxAdder::new().sum_with_plan(lanes, plan)?]))
            .collect()
    }
}

/// The operands of one fused layer call
/// ([`FeatureBlock::evaluate_layer_prepared_with`]) in the form the block's
/// inner product consumes.
#[derive(Debug, Clone, Copy)]
pub enum LayerOperands<'a> {
    /// MUX kinds: `inputs[field]` and `unit_weights[unit][field]` each hold
    /// the one stream the field's selector forwards
    /// ([`LayerSelectors::gather`]).
    Gathered {
        /// Shared input streams, `[field][0]`.
        inputs: &'a [Vec<BitStream>],
        /// Every unit's weight streams, `[unit][field][0]`.
        unit_weights: &'a [&'a [Vec<BitStream>]],
    },
    /// APC kinds: `inputs[field]` packs the field's input lanes (one row),
    /// and `weights[field]` the field's weight lanes of every unit, one row
    /// per unit, in unit order ([`PackedLanes`]).
    Packed {
        /// Shared input lanes, one packed row per field.
        inputs: &'a [PackedLanes],
        /// Every unit's weight lanes, one packed view per field.
        weights: &'a [PackedView<'a>],
    },
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
                        MuxInnerProduct::new(self.seed.wrapping_add(1 + i as u64 * 131))
                            .evaluate_stream_with(field, weights, self.stream_length, arena)
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
                        ApcInnerProduct::new(self.seed.wrapping_add(1 + i as u64 * 131))
                            .evaluate_counts_with(field, weights, self.stream_length, arena)
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
    /// [`FeatureBlock::evaluate_stream`]).
    pub fn field_seed(&self, field_index: usize) -> u64 {
        self.seed.wrapping_add(1 + field_index as u64 * 131)
    }

    /// Base seeds `(input_bank, weight_bank)` of the SNG banks feeding the
    /// inner product at pool-window index `field_index`. Individual lane
    /// seeds follow via [`sc_core::sng::SngBank::lane_seed`].
    pub fn operand_bank_seeds(&self, field_index: usize) -> (u64, u64) {
        let seed = self.field_seed(field_index);
        (seed, seed ^ WEIGHT_BANK_SEED_XOR)
    }

    /// Generates, for every pool-window field, the weight streams that
    /// [`FeatureBlock::evaluate_stream`] would generate internally for
    /// `weights` (outer index: field, inner index: lane).
    ///
    /// The per-call path re-derives these streams on every evaluation even
    /// though they only depend on the filter; a compiled engine generates
    /// them once per filter, gathers them ([`LayerSelectors::gather`]) and
    /// feeds them back through
    /// [`FeatureBlock::evaluate_layer_prepared_with`].
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a wrong weight count and
    /// propagates encoding errors for values outside `[-1, 1]`.
    pub fn weight_streams(&self, weights: &[f64]) -> Result<Vec<Vec<BitStream>>, ScError> {
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
        // One batched generator (a single staged-recurrence scratch) fills
        // every field's bank; bit-identical to per-lane `SngBank` generators.
        let mut batch = BatchSng::new(SngKind::Lfsr32);
        (0..self.pool_window)
            .map(|field| {
                let (_, weight_seed) = self.operand_bank_seeds(field);
                batch.generate_bipolar_bank(weight_seed, weights, self.stream_length)
            })
            .collect()
    }

    /// Generates the weight lanes of every row (a convolution filter or a
    /// fully-connected unit) straight into the packed form
    /// [`LayerOperands::Packed`] takes: one [`PackedLanes`] per pool-window
    /// field, one row per filter, in order. Bit-identical to packing each
    /// row's [`FeatureBlock::weight_streams`], without a buffer per lane.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a wrong weight count or a
    /// lane count the packed layout cannot hold, and propagates encoding
    /// errors for values outside `[-1, 1]`.
    pub fn packed_weights(&self, rows: &[Vec<f64>]) -> Result<Vec<PackedLanes>, ScError> {
        if let Some(row) = rows.iter().find(|row| row.len() != self.input_size) {
            return Err(ScError::InvalidParameter {
                name: "weights",
                message: format!("expected {} weights, got {}", self.input_size, row.len()),
            });
        }
        let mut batch = BatchSng::new(SngKind::Lfsr32);
        let mut lane_stream = BitStream::zeros(self.stream_length);
        (0..self.pool_window)
            .map(|field| {
                let (_, weight_seed) = self.operand_bank_seeds(field);
                let mut packed =
                    PackedLanes::zeroed(self.input_size, self.stream_length, rows.len())?;
                for (row, weights) in rows.iter().enumerate() {
                    for (lane, &weight) in weights.iter().enumerate() {
                        batch.fill_bipolar(
                            SngBank::lane_seed(weight_seed, lane),
                            weight,
                            &mut lane_stream,
                        )?;
                        packed.write_lane(row, lane, &lane_stream)?;
                    }
                }
                Ok(packed)
            })
            .collect()
    }

    /// Pre-draws the selector plans shared by *every* unit and every
    /// position of one SC layer for streams of `stream_bits` bits.
    ///
    /// The plans depend only on the block's seeds and the stream length —
    /// not on the operands — so an engine evaluating a whole layer builds
    /// them once, gathers its weights and input sequences through them,
    /// and shares them across all positions (and all fan-out workers). APC
    /// kinds need no selector plans; their prepared set is empty.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for a zero `stream_bits`.
    pub fn prepare_selectors(&self, stream_bits: usize) -> Result<LayerSelectors, ScError> {
        let (field_plans, avg_plan) = match self.kind {
            FeatureBlockKind::MuxAvgStanh | FeatureBlockKind::MuxMaxStanh => {
                // Selector draws are a function of the field index only, so
                // one plan per field serves every unit at every position.
                let field_plans: Vec<MuxSelectorPlan> = (0..self.pool_window)
                    .map(|field| {
                        MuxSelectorPlan::new(
                            self.input_size,
                            stream_bits,
                            &mut mux_selector(self.field_seed(field)),
                        )
                    })
                    .collect::<Result<_, _>>()?;
                let avg_plan = if self.kind == FeatureBlockKind::MuxAvgStanh {
                    Some(
                        self.average_pooling()
                            .selector_plan(self.pool_window, stream_bits)?,
                    )
                } else {
                    None
                };
                (field_plans, avg_plan)
            }
            FeatureBlockKind::ApcAvgBtanh | FeatureBlockKind::ApcMaxBtanh => {
                sc_core::bitstream::StreamLength::try_new(stream_bits)?;
                (Vec::new(), None)
            }
        };
        Ok(LayerSelectors {
            field_plans,
            avg_plan,
            stream_bits,
        })
    }

    /// Evaluates *all output units of one layer position* from pre-generated
    /// operand streams in a single fused call.
    ///
    /// The operands derive from the `[field][lane]` streams of the SNG banks
    /// seeded with [`FeatureBlock::operand_bank_seeds`] and of
    /// [`FeatureBlock::weight_streams`]: MUX kinds take them *gathered*
    /// ([`LayerOperands::Gathered`], one selected stream per field), APC
    /// kinds *packed* ([`LayerOperands::Packed`], every lane). The inputs
    /// are shared by every unit (all units of an SC layer see the same
    /// receptive fields through identically-wired SNG banks — the
    /// layer-level analogue of the paper's filter-aware SRAM sharing).
    /// `selectors` come from [`FeatureBlock::prepare_selectors`].
    ///
    /// `result[u]` is **bit-identical** to
    /// [`FeatureBlock::evaluate_stream`] on the corresponding values and
    /// unit `u`'s filter: the multiply-accumulate kernels, the per-field
    /// MUX selectors, the pooling block and the activation apply in the
    /// same order with the same seeds. The fused call does the shared work
    /// once instead of once per unit:
    ///
    /// * a MUX unit's field sum is one word-wise XNOR of the selected input
    ///   and the selected weight stream: the MUX forwards one lane per
    ///   cycle, so `MUX(x ⊙ w) = MUX(x) ⊙ MUX(w)` under the field's plan,
    ///   and the gathering happened once per field (inputs) and once per
    ///   unit at load time (weights);
    /// * the average-pooling MUX selector is planned once and replayed;
    /// * APC popcounts run through the packed Harley-Seal core
    ///   ([`Apc::count_packed_with`]): each unit's weights of a field are
    ///   read once, front to back, against the field's packed inputs (see
    ///   [`sc_core::csa`]);
    /// * the hardware max pool counts every 16-bit segment of a word with
    ///   one SWAR lane-popcount and picks the forwarding mask by a
    ///   lane-wise argmax ([`HardwareMaxPooling::pool_streams_with`]);
    ///   a one-field pool window (every dense layer) passes its field
    ///   straight to the activation, as the max or average of one input is
    ///   that input;
    /// * the Stanh walks of all units run through the block's byte table,
    ///   built once at construction, one lookup per input byte
    ///   ([`StanhBlock::apply_batch_with`]); the Btanh walks are
    ///   interleaved word-by-word ([`BtanhBlock::apply_batch_with`]).
    ///
    /// [`StanhBlock::apply_batch_with`]: crate::activation_block::StanhBlock::apply_batch_with
    /// [`BtanhBlock::apply_batch_with`]: crate::activation_block::BtanhBlock::apply_batch_with
    ///
    /// **Arena contract**: the caller owns `arena` and threads it down; all
    /// intermediates (per-field MUX sums, APC column counts, pooled streams)
    /// are taken from and recycled into it before the call returns, so
    /// steady-state evaluation allocates no stream or count buffers. The
    /// returned output streams are arena-backed too — the caller recycles
    /// them once decoded. Error paths drop in-flight buffers instead of
    /// pooling them (an error means a caller bug, not steady state).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParameter`] for operands of the other
    /// inner-product family, mismatched field, lane or unit counts of the
    /// shared inputs or any unit's weights, or for selectors prepared for a
    /// different block, [`ScError::LengthMismatch`] for streams of a length
    /// other than the selectors', and propagates kernel errors for
    /// mismatched stream lengths.
    pub fn evaluate_layer_prepared_with(
        &self,
        selectors: &LayerSelectors,
        operands: LayerOperands<'_>,
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        match (self.kind.inner_product(), operands) {
            (
                InnerProductKind::Mux,
                LayerOperands::Gathered {
                    inputs,
                    unit_weights,
                },
            ) => self.evaluate_mux_layer(selectors, inputs, unit_weights, arena),
            (InnerProductKind::Apc, LayerOperands::Packed { inputs, weights }) => {
                self.evaluate_apc_layer(selectors, inputs, weights, arena)
            }
            _ => Err(ScError::InvalidParameter {
                name: "operands",
                message: format!(
                    "{} takes gathered operands for MUX kinds and packed operands for APC kinds",
                    self.kind
                ),
            }),
        }
    }

    /// The MUX branch of [`FeatureBlock::evaluate_layer_prepared_with`].
    fn evaluate_mux_layer(
        &self,
        selectors: &LayerSelectors,
        inputs: &[Vec<BitStream>],
        unit_weights: &[&[Vec<BitStream>]],
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        self.validate_prepared_fields("inputs", inputs)?;
        for (unit, weights) in unit_weights.iter().enumerate() {
            self.validate_prepared_fields("unit_weights", weights)
                .map_err(|_| ScError::InvalidParameter {
                    name: "unit_weights",
                    message: format!(
                        "unit {unit} weight streams do not match {} fields x 1 gathered lane",
                        self.pool_window,
                    ),
                })?;
        }
        if unit_weights.is_empty() {
            return Ok(Vec::new());
        }
        if selectors.field_plans.len() != self.pool_window {
            return Err(ScError::InvalidParameter {
                name: "selectors",
                message: format!(
                    "{} field plans do not cover {} pool-window fields",
                    selectors.field_plans.len(),
                    self.pool_window
                ),
            });
        }
        if self.kind == FeatureBlockKind::MuxAvgStanh && selectors.avg_plan.is_none() {
            return Err(ScError::InvalidParameter {
                name: "selectors",
                message: "average-pooling MUX plan missing (selectors prepared for a \
                          different block?)"
                    .into(),
            });
        }
        let length = StreamLength::try_new(selectors.stream_bits)?;
        let mut pooled_units = Vec::with_capacity(unit_weights.len());
        let mut field_sums: Vec<BitStream> = Vec::with_capacity(self.pool_window);
        for weights in unit_weights {
            for (xs, ws) in inputs.iter().zip(weights.iter()) {
                let (x, w) = (&xs[0], &ws[0]);
                for stream in [x, w] {
                    if stream.len() != length.bits() {
                        return Err(ScError::LengthMismatch {
                            left: length.bits(),
                            right: stream.len(),
                        });
                    }
                }
                let mut sum = arena.take_zeroed(length);
                sum.words_mut().copy_from_slice(x.as_words());
                sum.xnor_assign(w);
                field_sums.push(sum);
            }
            let pooled = if self.pool_window == 1 {
                field_sums.pop().expect("one field")
            } else {
                let pooled = match &selectors.avg_plan {
                    Some(plan) => self.average_pooling().pool_streams_with_plan_with(
                        &field_sums,
                        plan,
                        arena,
                    )?,
                    None => HardwareMaxPooling::new(DEFAULT_MAX_POOL_SEGMENT)?
                        .pool_streams_with(&field_sums, arena)?,
                };
                arena.recycle_all(field_sums.drain(..));
                pooled
            };
            pooled_units.push(pooled);
        }
        let stanh = self.stanh.as_ref().expect("MUX blocks carry a Stanh");
        let refs: Vec<&BitStream> = pooled_units.iter().collect();
        let outputs = stanh.apply_batch_with(&refs, arena);
        drop(refs);
        arena.recycle_all(pooled_units);
        Ok(outputs)
    }

    /// The APC branch of [`FeatureBlock::evaluate_layer_prepared_with`].
    fn evaluate_apc_layer(
        &self,
        selectors: &LayerSelectors,
        inputs: &[PackedLanes],
        weights: &[PackedView<'_>],
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        let units = weights.first().map_or(0, PackedView::rows);
        let shapes_match = inputs.len() == self.pool_window
            && weights.len() == self.pool_window
            && inputs
                .iter()
                .all(|field| field.lanes() == self.input_size && field.rows() == 1)
            && weights
                .iter()
                .all(|field| field.lanes() == self.input_size && field.rows() == units);
        if !shapes_match {
            return Err(ScError::InvalidParameter {
                name: "operands",
                message: format!(
                    "packed operands do not match {} fields x {} lanes (one input row, one \
                     weight row per unit)",
                    self.pool_window, self.input_size
                ),
            });
        }
        if let Some(field) = inputs
            .iter()
            .find(|field| field.length().bits() != selectors.stream_bits)
        {
            return Err(ScError::LengthMismatch {
                left: selectors.stream_bits,
                right: field.length().bits(),
            });
        }
        if units == 0 {
            return Ok(Vec::new());
        }
        // Counts transposed to unit-major as each field's pass completes
        // (no per-unit copies of the buffers).
        let mut per_unit: Vec<Vec<CountStream>> = (0..units)
            .map(|_| Vec::with_capacity(self.pool_window))
            .collect();
        for (input, field_weights) in inputs.iter().zip(weights) {
            let field_counts = Apc::new().count_packed_with(input.view(), *field_weights, arena)?;
            for (unit, stream) in field_counts.into_iter().enumerate() {
                per_unit[unit].push(stream);
            }
        }
        let mut pooled_units = Vec::with_capacity(units);
        for mut unit_counts in per_unit {
            pooled_units.push(if self.pool_window == 1 {
                unit_counts.pop().expect("one field")
            } else {
                let pooled = if self.kind == FeatureBlockKind::ApcAvgBtanh {
                    CountStream::merge_sum_with(&unit_counts, arena)?
                } else {
                    HardwareMaxPooling::new(DEFAULT_MAX_POOL_SEGMENT)?
                        .pool_counts_with(&unit_counts, arena)?
                };
                for counts in unit_counts {
                    arena.recycle_counts(counts.into_counts());
                }
                pooled
            });
        }
        let btanh = self.btanh.as_ref().expect("APC blocks carry a Btanh");
        let refs: Vec<&CountStream> = pooled_units.iter().collect();
        let outputs = btanh.apply_batch_with(&refs, arena);
        drop(refs);
        for pooled in pooled_units {
            arena.recycle_counts(pooled.into_counts());
        }
        Ok(outputs)
    }

    /// Validates one gathered `[field][0]` stream set against this block's
    /// pool window.
    fn validate_prepared_fields(
        &self,
        name: &'static str,
        fields: &[Vec<BitStream>],
    ) -> Result<(), ScError> {
        if fields.len() != self.pool_window {
            return Err(ScError::InvalidParameter {
                name,
                message: format!(
                    "expected {} prepared fields, got {}",
                    self.pool_window,
                    fields.len()
                ),
            });
        }
        for (field, lanes) in fields.iter().enumerate() {
            if lanes.len() != 1 {
                return Err(ScError::InvalidParameter {
                    name,
                    message: format!("field {field} has {} lanes, expected 1", lanes.len()),
                });
            }
        }
        Ok(())
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

    /// Input streams for `fields` through the published seed scheme.
    fn input_streams_for(block: &FeatureBlock, fields: &[Vec<f64>]) -> Vec<Vec<BitStream>> {
        fields
            .iter()
            .enumerate()
            .map(|(i, field)| {
                let (input_seed, _) = block.operand_bank_seeds(i);
                sc_core::sng::SngBank::new(sc_core::sng::SngKind::Lfsr32, field.len(), input_seed)
                    .generate_bipolar(field, block.stream_length())
                    .unwrap()
            })
            .collect()
    }

    /// `[field][lane]` operand streams.
    type FieldStreams = Vec<Vec<BitStream>>;

    /// One layer's operands prepared the way the block's family takes them.
    enum Prepared {
        /// MUX kinds: gathered inputs and every unit's gathered weights.
        Gathered(FieldStreams, Vec<FieldStreams>),
        /// APC kinds: packed input fields and packed weight fields.
        Packed(Vec<PackedLanes>, Vec<PackedLanes>),
    }

    #[test]
    fn packed_weights_match_packed_weight_streams() {
        for len in [100usize, 256] {
            let block =
                FeatureBlock::new(FeatureBlockKind::ApcMaxBtanh, 9, StreamLength::new(len), 4)
                    .unwrap();
            let rows: Vec<Vec<f64>> = (0..3).map(|u| random_case(9, 4, 40 + u).1).collect();
            let streams: Vec<Vec<Vec<BitStream>>> = rows
                .iter()
                .map(|row| block.weight_streams(row).unwrap())
                .collect();
            let packed = block.packed_weights(&rows).unwrap();
            assert_eq!(packed.len(), 4);
            for (field, field_packed) in packed.iter().enumerate() {
                let expected =
                    PackedLanes::pack(streams.iter().map(|unit| unit[field].as_slice())).unwrap();
                assert_eq!(field_packed, &expected, "field {field} at length {len}");
            }
            assert!(block.packed_weights(&[rows[0][..8].to_vec()]).is_err());
        }
    }

    /// Packs `[field][lane]` inputs into one row per field and the units'
    /// weights into one row per unit per field.
    fn pack_layer(
        block: &FeatureBlock,
        inputs: &[Vec<BitStream>],
        unit_weights: &[&[Vec<BitStream>]],
    ) -> Result<(Vec<PackedLanes>, Vec<PackedLanes>), ScError> {
        let packed_inputs = inputs
            .iter()
            .map(|lanes| PackedLanes::pack([lanes.as_slice()]))
            .collect::<Result<_, _>>()?;
        let weights = (0..block.pool_window())
            .map(|field| {
                if unit_weights.is_empty() {
                    PackedLanes::zeroed(block.input_size(), block.stream_length(), 0)
                } else {
                    PackedLanes::pack(unit_weights.iter().map(|unit| unit[field].as_slice()))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok((packed_inputs, weights))
    }

    /// Freshly prepared selectors and the operands of `inputs` and every
    /// unit: gathered through the selectors (MUX) or packed (APC).
    fn prepare_layer(
        block: &FeatureBlock,
        inputs: &[Vec<BitStream>],
        unit_weights: &[&[Vec<BitStream>]],
    ) -> Result<(LayerSelectors, Prepared), ScError> {
        let selectors = block.prepare_selectors(block.stream_length().bits())?;
        let prepared = match block.kind().inner_product() {
            InnerProductKind::Mux => Prepared::Gathered(
                selectors.gather(inputs.to_vec())?,
                unit_weights
                    .iter()
                    .map(|weights| selectors.gather(weights.to_vec()))
                    .collect::<Result<_, _>>()?,
            ),
            _ => {
                let (inputs, weights) = pack_layer(block, inputs, unit_weights)?;
                Prepared::Packed(inputs, weights)
            }
        };
        Ok((selectors, prepared))
    }

    /// One fused layer call over prepared operands.
    fn run_layer(
        block: &FeatureBlock,
        selectors: &LayerSelectors,
        prepared: &Prepared,
        arena: &mut StreamArena,
    ) -> Result<Vec<BitStream>, ScError> {
        match prepared {
            Prepared::Gathered(inputs, units) => {
                let unit_weights: Vec<&[Vec<BitStream>]> =
                    units.iter().map(|u| u.as_slice()).collect();
                block.evaluate_layer_prepared_with(
                    selectors,
                    LayerOperands::Gathered {
                        inputs,
                        unit_weights: &unit_weights,
                    },
                    arena,
                )
            }
            Prepared::Packed(inputs, weights) => {
                let weights: Vec<PackedView<'_>> = weights.iter().map(PackedLanes::view).collect();
                block.evaluate_layer_prepared_with(
                    selectors,
                    LayerOperands::Packed {
                        inputs,
                        weights: &weights,
                    },
                    arena,
                )
            }
        }
    }

    /// One fused layer call over `[field][lane]` operands with a fresh arena.
    fn evaluate_layer(
        block: &FeatureBlock,
        inputs: &[Vec<BitStream>],
        unit_weights: &[&[Vec<BitStream>]],
    ) -> Result<Vec<BitStream>, ScError> {
        let (selectors, prepared) = prepare_layer(block, inputs, unit_weights)?;
        run_layer(block, &selectors, &prepared, &mut StreamArena::new())
    }

    #[test]
    fn layer_fused_evaluation_is_bit_exact_with_per_call_path() {
        // All four kinds, lengths including the non-word-multiple 127, a
        // 2x2 pool window and the one-field window of a dense layer (whose
        // field skips the pooling block), and several units sharing the
        // layer's input streams — the fused call must reproduce
        // `evaluate_stream` bit for bit for every unit.
        for kind in FeatureBlockKind::ALL {
            for (len, window) in [(100usize, 4usize), (127, 4), (256, 4), (100, 1), (256, 1)] {
                let block =
                    FeatureBlock::with_pool_window(kind, 8, window, StreamLength::new(len), 77)
                        .unwrap();
                let (fields, _) = random_case(8, window, 4321 + len as u64);
                let inputs = input_streams_for(&block, &fields);
                let unit_filters: Vec<Vec<f64>> =
                    (0..3).map(|u| random_case(8, window, 9000 + u).1).collect();
                let unit_streams: Vec<Vec<Vec<BitStream>>> = unit_filters
                    .iter()
                    .map(|filter| block.weight_streams(filter).unwrap())
                    .collect();
                let unit_refs: Vec<&[Vec<BitStream>]> =
                    unit_streams.iter().map(|u| u.as_slice()).collect();
                let fused = evaluate_layer(&block, &inputs, &unit_refs).unwrap();
                assert_eq!(fused.len(), 3);
                for (unit, filter) in unit_filters.iter().enumerate() {
                    let per_call = block.evaluate_stream(&fields, filter).unwrap();
                    assert_eq!(
                        fused[unit], per_call,
                        "{kind} unit {unit} at length {len}, window {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn layer_fused_arena_path_is_bit_exact_and_allocation_free_in_steady_state() {
        // Evaluating repeatedly through one shared arena must (a) reproduce
        // a fresh-arena call bit for bit and (b) take every stream/count
        // buffer from the pool once the arena is warm.
        for kind in FeatureBlockKind::ALL {
            let block = FeatureBlock::new(kind, 8, StreamLength::new(127), 77).unwrap();
            let (fields, _) = random_case(8, 4, 4321);
            let inputs = input_streams_for(&block, &fields);
            let unit_streams: Vec<Vec<Vec<BitStream>>> = (0..3)
                .map(|u| {
                    block
                        .weight_streams(&random_case(8, 4, 9000 + u).1)
                        .unwrap()
                })
                .collect();
            let unit_refs: Vec<&[Vec<BitStream>]> =
                unit_streams.iter().map(|u| u.as_slice()).collect();
            let expected = evaluate_layer(&block, &inputs, &unit_refs).unwrap();
            let (selectors, prepared) = prepare_layer(&block, &inputs, &unit_refs).unwrap();
            let mut arena = StreamArena::new();
            let mut warm_allocs = 0;
            for round in 0..3 {
                let outputs = run_layer(&block, &selectors, &prepared, &mut arena).unwrap();
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
        let inputs = input_streams_for(&block, &fields);
        let filter = random_case(8, 4, 556).1;
        let weight_streams = block.weight_streams(&filter).unwrap();
        let refs: Vec<&[Vec<BitStream>]> = vec![weight_streams.as_slice()];
        let fused = evaluate_layer(&block, &inputs, &refs).unwrap();
        for limit in [1usize, 4] {
            sc_core::parallel::set_thread_limit(limit);
            let per_call = block.evaluate_stream(&fields, &filter).unwrap();
            sc_core::parallel::set_thread_limit(0);
            assert_eq!(fused[0], per_call, "thread limit {limit}");
        }
    }

    #[test]
    fn layer_fused_evaluation_validates_shapes() {
        for kind in [FeatureBlockKind::MuxAvgStanh, FeatureBlockKind::ApcAvgBtanh] {
            let block = FeatureBlock::new(kind, 4, StreamLength::new(64), 3).unwrap();
            let (fields, weights) = random_case(4, 4, 9);
            let inputs = input_streams_for(&block, &fields);
            let weight_streams = block.weight_streams(&weights).unwrap();
            let good: Vec<&[Vec<BitStream>]> = vec![weight_streams.as_slice()];
            // No units: valid, empty result.
            assert!(evaluate_layer(&block, &inputs, &[]).unwrap().is_empty());
            // Wrong field count in the shared inputs.
            assert!(evaluate_layer(&block, &inputs[..3], &good).is_err());
            // Short lane count in one shared input field.
            let mut short_input = inputs.clone();
            short_input[1].pop();
            assert!(evaluate_layer(&block, &short_input, &good).is_err());
            // Wrong lane count in one unit's weights.
            let mut short = weight_streams.clone();
            short[1].pop();
            let bad: Vec<&[Vec<BitStream>]> = vec![weight_streams.as_slice(), short.as_slice()];
            assert!(evaluate_layer(&block, &inputs, &bad).is_err());
            // Wrong weight count for the weight-stream generator.
            assert!(block.weight_streams(&weights[..3]).is_err());
            assert!(evaluate_layer(&block, &inputs, &good).is_ok());
            // Each family takes its own operand form only: ungathered lanes
            // are rejected by MUX kinds (one stream per field) and by APC
            // kinds (packed operands), packed operands by MUX kinds.
            let selectors = block.prepare_selectors(64).unwrap();
            let ungathered = block.evaluate_layer_prepared_with(
                &selectors,
                LayerOperands::Gathered {
                    inputs: &inputs,
                    unit_weights: &good,
                },
                &mut StreamArena::new(),
            );
            assert!(ungathered.is_err());
            let (packed_inputs, packed_weights) = pack_layer(&block, &inputs, &good).unwrap();
            let views: Vec<PackedView<'_>> = packed_weights.iter().map(PackedLanes::view).collect();
            let packed = block.evaluate_layer_prepared_with(
                &selectors,
                LayerOperands::Packed {
                    inputs: &packed_inputs,
                    weights: &views,
                },
                &mut StreamArena::new(),
            );
            assert_eq!(packed.is_ok(), kind == FeatureBlockKind::ApcAvgBtanh);
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

//! Reference SC inference: the per-call evaluation path.
//!
//! The interpreter walks a [`Plan`] and evaluates every feature-extraction
//! block through the existing [`FeatureBlock::evaluate_stream`] entry point,
//! exactly as the experiment harness does: every input *and* weight stream
//! is regenerated inside every call. It is the semantic ground truth the
//! compiled [`crate::engine::Engine`] is property-tested against
//! (bit-exactness), and the oracle `perfbench` checks the engine against
//! before it times anything.
//!
//! [`FeatureBlock::evaluate_stream`]: sc_blocks::feature_block::FeatureBlock::evaluate_stream

use crate::error::ServeError;
use crate::plan::{Plan, PlanLayer};
use sc_core::parallel::parallel_map_range;
use sc_nn::tensor::Tensor;
use std::sync::Arc;

/// The result of one SC inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Inference {
    /// Decoded bipolar output of every final-layer unit.
    pub logits: Vec<f64>,
    /// Index of the largest logit.
    pub argmax: usize,
}

impl Inference {
    /// Builds an inference result from raw logits.
    pub fn from_logits(logits: Vec<f64>) -> Self {
        let argmax = logits
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Self { logits, argmax }
    }
}

/// Per-call (uncompiled) SC inference over a plan.
#[derive(Debug, Clone)]
pub struct Interpreter {
    plan: Arc<Plan>,
}

impl Interpreter {
    /// Creates an interpreter over a shared plan.
    pub fn new(plan: Arc<Plan>) -> Self {
        Self { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Runs one SC inference through the per-call evaluation path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for a wrong input size and propagates
    /// kernel errors.
    pub fn infer(&self, image: &Tensor) -> Result<Inference, ServeError> {
        self.plan.validate_input(image)?;
        let mut values = self.plan.input_values(image);
        for layer in &self.plan.layers {
            values = self.eval_layer(layer, &values)?;
        }
        Ok(Inference::from_logits(values))
    }

    fn eval_layer(&self, layer: &PlanLayer, values: &[f64]) -> Result<Vec<f64>, ServeError> {
        match layer {
            PlanLayer::Conv(conv) => {
                let [filters, pooled_h, pooled_w] = conv.out_shape;
                let positions = pooled_h * pooled_w;
                // Units are independent hardware blocks; fan them out.
                let outputs = parallel_map_range(filters * positions, |unit| {
                    let filter = unit / positions;
                    let position = unit % positions;
                    let (py, px) = (position / pooled_w, position % pooled_w);
                    let fields = conv.gather_fields(values, py, px);
                    conv.block
                        .evaluate_stream(&fields, &conv.filters[filter])
                        .map(|stream| stream.bipolar_value())
                });
                outputs
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(ServeError::from)
            }
            PlanLayer::Dense(dense) => {
                let field = vec![values.to_vec()];
                let outputs = parallel_map_range(dense.units.len(), |unit| {
                    dense
                        .block
                        .evaluate_stream(&field, &dense.units[unit])
                        .map(|stream| stream.bipolar_value())
                });
                outputs
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(ServeError::from)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{lower, PlanOptions};
    use sc_blocks::feature_block::FeatureBlockKind;
    use sc_dcnn::config::ScNetworkConfig;
    use sc_nn::lenet::PoolingStyle;
    use sc_nn::network::Network;

    #[test]
    fn interpreter_produces_class_count_logits() {
        let mut network = Network::new("dense-only");
        network.push(Box::new(sc_nn::layers::Dense::new(16, 6, 2)));
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::MuxMaxStanh],
            128,
            PoolingStyle::Max,
        );
        let plan = lower(
            &network,
            &config,
            &PlanOptions {
                input_shape: [1, 4, 4],
                base_seed: 11,
            },
        )
        .unwrap();
        let interpreter = Interpreter::new(Arc::new(plan));
        let image = Tensor::from_fn(&[1, 4, 4], |i| (i as f32 / 16.0) - 0.3);
        let result = interpreter.infer(&image).unwrap();
        assert_eq!(result.logits.len(), 6);
        assert!(result.argmax < 6);
        assert!(result.logits.iter().all(|l| (-1.0..=1.0).contains(l)));
        // Deterministic: same input, same bits.
        assert_eq!(interpreter.infer(&image).unwrap(), result);
        // Wrong input size is rejected.
        assert!(interpreter.infer(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn argmax_picks_largest_logit() {
        let inference = Inference::from_logits(vec![0.1, -0.5, 0.7, 0.2]);
        assert_eq!(inference.argmax, 2);
        assert_eq!(Inference::from_logits(vec![]).argmax, 0);
    }
}

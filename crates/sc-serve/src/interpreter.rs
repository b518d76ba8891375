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
//! The walk itself is the plan's ([`Plan::reference_infer`] runs the same
//! walk with each block's floating-point reference).

use crate::error::ServeError;
use crate::plan::Plan;
use sc_blocks::feature_block::FeatureBlock;
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

    /// Runs one SC inference through the per-call evaluation path: the
    /// plan's walk with every unit evaluated by
    /// [`FeatureBlock::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for a wrong input size and propagates
    /// kernel errors.
    pub fn infer(&self, image: &Tensor) -> Result<Inference, ServeError> {
        self.plan.walk(image, FeatureBlock::evaluate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{lower, PlanLayer, PlanOptions};
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
    fn float_twin_evaluates_the_plan_in_float() {
        let mut network = Network::new("dense-only");
        network.push(Box::new(sc_nn::layers::Dense::new(16, 6, 2)));
        let config = ScNetworkConfig::new(
            "c",
            vec![FeatureBlockKind::ApcMaxBtanh],
            128,
            PoolingStyle::Max,
        );
        let options = PlanOptions {
            input_shape: [1, 4, 4],
            base_seed: 11,
        };
        let plan = lower(&network, &config, &options).unwrap();
        let image = Tensor::from_fn(&[1, 4, 4], |i| (i as f32 / 16.0) - 0.3);
        // One dense layer: each logit is tanh(<x, w>) on the quantized input.
        let inputs = plan.input_values(&image);
        let PlanLayer::Dense(dense) = &plan.layers[0] else {
            panic!("a dense-only network lowers to one dense layer");
        };
        let expected: Vec<f64> = dense
            .units
            .iter()
            .map(|weights| {
                let sum: f64 = inputs.iter().zip(weights).map(|(x, w)| x * w).sum();
                sum.tanh()
            })
            .collect();
        let twin = plan.reference_infer(&image).unwrap();
        assert_eq!(twin.logits.len(), 6);
        for (got, want) in twin.logits.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert!(plan.reference_infer(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn argmax_picks_largest_logit() {
        let inference = Inference::from_logits(vec![0.1, -0.5, 0.7, 0.2]);
        assert_eq!(inference.argmax, 2);
        assert_eq!(Inference::from_logits(vec![]).argmax, 0);
    }
}

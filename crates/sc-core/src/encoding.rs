//! Unipolar / bipolar encodings and pre-scaling.
//!
//! Stochastic computing streams encode values either as raw one-densities
//! (*unipolar*, range `[0, 1]`) or shifted densities (*bipolar*, range
//! `[-1, 1]` via `x = 2p − 1`). Values outside the representable range must
//! be pre-scaled before encoding; the scale has to be tracked by the caller
//! and undone after decoding (the paper calls this a "scaling-back" step and
//! folds it into the redesigned `Stanh` of the MUX-Max-Stanh block).

use crate::error::ScError;
use serde::{Deserialize, Serialize};

/// Which probability encoding a stream uses.
///
/// This trait is sealed: the paper (and this crate) only consider the
/// unipolar and bipolar encodings.
pub trait Encoding: sealed::Sealed + Copy + std::fmt::Debug {
    /// Lower bound of the representable range.
    const MIN: f64;
    /// Upper bound of the representable range.
    const MAX: f64;
    /// Human-readable name of the encoding ("unipolar" / "bipolar").
    const NAME: &'static str;

    /// Converts a real value in the representable range to a one-probability.
    fn to_probability(value: f64) -> Result<f64, ScError>;

    /// Converts a one-probability back to the represented real value.
    fn from_probability(probability: f64) -> f64;
}

/// Unipolar encoding: the stream value equals the density of ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Unipolar;

/// Bipolar encoding: the stream value is `2p − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Bipolar;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Unipolar {}
    impl Sealed for super::Bipolar {}
}

impl Encoding for Unipolar {
    const MIN: f64 = 0.0;
    const MAX: f64 = 1.0;
    const NAME: &'static str = "unipolar";

    fn to_probability(value: f64) -> Result<f64, ScError> {
        check_range(value, Self::MIN, Self::MAX)?;
        Ok(value)
    }

    fn from_probability(probability: f64) -> f64 {
        probability
    }
}

impl Encoding for Bipolar {
    const MIN: f64 = -1.0;
    const MAX: f64 = 1.0;
    const NAME: &'static str = "bipolar";

    fn to_probability(value: f64) -> Result<f64, ScError> {
        check_range(value, Self::MIN, Self::MAX)?;
        Ok((value + 1.0) / 2.0)
    }

    fn from_probability(probability: f64) -> f64 {
        2.0 * probability - 1.0
    }
}

fn check_range(value: f64, min: f64, max: f64) -> Result<(), ScError> {
    if value.is_nan() || value < min || value > max {
        Err(ScError::ValueOutOfRange { value, min, max })
    } else {
        Ok(())
    }
}

/// Result of pre-scaling a set of values into the representable range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prescaled {
    /// The scaled values, all within `[-1, 1]`.
    pub values: Vec<f64>,
    /// The factor the original values were divided by (`≥ 1`).
    pub scale: f64,
}

impl Prescaled {
    /// Undoes the pre-scaling on a single computed result.
    pub fn scale_back(&self, value: f64) -> f64 {
        value * self.scale
    }
}

/// Pre-scales values so that every element fits in the bipolar range `[-1, 1]`.
///
/// The returned [`Prescaled::scale`] is the smallest power of two that brings
/// every value into range (a power of two keeps the hardware scaling circuit
/// trivial — it is just a shift of the fixed-point weight).
///
/// # Errors
///
/// Returns [`ScError::EmptyInput`] when `values` is empty and
/// [`ScError::InvalidParameter`] when any value is not finite.
pub fn prescale(values: &[f64]) -> Result<Prescaled, ScError> {
    if values.is_empty() {
        return Err(ScError::EmptyInput);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(ScError::InvalidParameter {
            name: "values",
            message: "all values must be finite".into(),
        });
    }
    let max_abs = values.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let mut scale = 1.0;
    while max_abs / scale > 1.0 {
        scale *= 2.0;
    }
    Ok(Prescaled {
        values: values.iter().map(|v| v / scale).collect(),
        scale,
    })
}

/// Clamps a value into the bipolar range `[-1, 1]`.
///
/// SC hardware saturates rather than overflowing; this mirrors that behaviour
/// in the reference models.
pub fn clamp_bipolar(value: f64) -> f64 {
    value.clamp(-1.0, 1.0)
}

/// Clamps a value into the unipolar range `[0, 1]`.
pub fn clamp_unipolar(value: f64) -> f64 {
    value.clamp(0.0, 1.0)
}

/// Quantizes a bipolar value to the nearest of the `L + 1` levels a
/// length-`L` stream can represent (`(2k − L) / L` for `k ∈ 0..=L`).
///
/// A decoded stream value is always one of these levels, so the function is
/// the identity on anything that came out of a stream — quantizing *inputs*
/// before encoding therefore changes each value by at most `1/L` (below the
/// stream's own resolution) while collapsing near-duplicate comparator
/// thresholds: after quantization at most `L + 1` distinct thresholds exist
/// per SNG lane. NaN quantizes to the centre level (0), mirroring clamping.
pub fn quantize_bipolar_levels(value: f64, stream_bits: usize) -> f64 {
    let l = stream_bits.max(1) as f64;
    let v = if value.is_nan() {
        0.0
    } else {
        value.clamp(-1.0, 1.0)
    };
    let k = ((v + 1.0) / 2.0 * l).round();
    (2.0 * k - l) / l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unipolar_round_trip() {
        for value in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let p = Unipolar::to_probability(value).unwrap();
            assert!((Unipolar::from_probability(p) - value).abs() < 1e-12);
        }
    }

    #[test]
    fn bipolar_round_trip() {
        for value in [-1.0, -0.4, 0.0, 0.4, 1.0] {
            let p = Bipolar::to_probability(value).unwrap();
            assert!((Bipolar::from_probability(p) - value).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_bipolar_mapping() {
        // P(X = 1) = (0.4 + 1)/2 = 0.7 per Section 3.2.
        assert!((Bipolar::to_probability(0.4).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_is_rejected() {
        assert!(Unipolar::to_probability(-0.1).is_err());
        assert!(Unipolar::to_probability(1.1).is_err());
        assert!(Bipolar::to_probability(-1.01).is_err());
        assert!(Bipolar::to_probability(f64::NAN).is_err());
    }

    #[test]
    fn prescale_uses_power_of_two() {
        let scaled = prescale(&[3.0, -1.5, 0.25]).unwrap();
        assert_eq!(scaled.scale, 4.0);
        assert!(scaled.values.iter().all(|v| v.abs() <= 1.0));
        assert!((scaled.scale_back(scaled.values[0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prescale_identity_when_in_range() {
        let scaled = prescale(&[0.5, -0.75]).unwrap();
        assert_eq!(scaled.scale, 1.0);
        assert_eq!(scaled.values, vec![0.5, -0.75]);
    }

    #[test]
    fn prescale_rejects_empty_and_nonfinite() {
        assert_eq!(prescale(&[]), Err(ScError::EmptyInput));
        assert!(prescale(&[f64::INFINITY]).is_err());
        assert!(prescale(&[f64::NAN]).is_err());
    }

    #[test]
    fn quantize_maps_to_representable_levels() {
        for l in [64usize, 127, 1024] {
            for i in 0..=200 {
                let v = i as f64 / 100.0 - 1.0;
                let q = quantize_bipolar_levels(v, l);
                // q is one of the L + 1 levels (2k - L)/L …
                let k = (q + 1.0) / 2.0 * l as f64;
                assert!((k - k.round()).abs() < 1e-9, "L={l} v={v} gave level {q}");
                assert!((-1.0..=1.0).contains(&q));
                // … within half a level of the input …
                assert!((q - v).abs() <= 1.0 / l as f64 + 1e-12);
                // … and quantization is idempotent.
                assert_eq!(quantize_bipolar_levels(q, l), q);
            }
        }
    }

    #[test]
    fn quantize_handles_degenerate_inputs() {
        assert_eq!(quantize_bipolar_levels(2.0, 64), 1.0);
        assert_eq!(quantize_bipolar_levels(-2.0, 64), -1.0);
        assert_eq!(quantize_bipolar_levels(f64::NAN, 64), 0.0);
        // A stream's decoded value is a fixed point: (2·13 − 127)/127.
        let decoded = (2.0 * 13.0 - 127.0) / 127.0;
        assert_eq!(quantize_bipolar_levels(decoded, 127), decoded);
    }

    #[test]
    fn clamps_saturate() {
        assert_eq!(clamp_bipolar(1.7), 1.0);
        assert_eq!(clamp_bipolar(-2.0), -1.0);
        assert_eq!(clamp_unipolar(-0.2), 0.0);
        assert_eq!(clamp_unipolar(1.2), 1.0);
    }
}

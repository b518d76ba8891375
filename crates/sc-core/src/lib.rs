//! # sc-core
//!
//! Stochastic computing (SC) primitives used by the SC-DCNN reproduction.
//!
//! Stochastic computing represents a number by the density of ones in a
//! random bit-stream. In *unipolar* encoding a stream with probability `p` of
//! a bit being one represents the value `p ∈ [0, 1]`; in *bipolar* encoding it
//! represents `2p − 1 ∈ [−1, 1]`. Arithmetic then reduces to tiny logic:
//! multiplication is an AND (unipolar) or XNOR (bipolar) gate, scaled addition
//! is a multiplexer, and non-scaled accumulation uses parallel counters.
//!
//! This crate provides:
//!
//! * [`BitStream`] — a packed (64 bits/word) stochastic bit-stream with cheap
//!   logical operations and population counts.
//! * [`encoding`] — unipolar/bipolar encode/decode and pre-scaling helpers.
//! * [`rng`] / [`sng`] — linear-feedback shift registers and comparator-based
//!   stochastic number generators (SNGs), including shared-LFSR generation.
//! * [`multiply`] — AND/XNOR stochastic multipliers.
//! * [`add`] — the four adder families studied by the paper: OR-gate, MUX,
//!   approximate parallel counter (APC), and two-line representation.
//! * [`activation`] — `Stanh` (FSM) and `Btanh` (saturating counter)
//!   stochastic hyperbolic-tangent implementations, plus the empirical state
//!   count formulas from the paper (Eqs. 1–3).
//! * [`stats`] — Monte-Carlo error-measurement helpers shared by the
//!   experiment harness.
//!
//! ## Quick example
//!
//! ```rust
//! use sc_core::prelude::*;
//!
//! let mut sng = Sng::new(SngKind::Lfsr32, 7);
//! let length = StreamLength::new(1024);
//! let a = sng.generate_bipolar(0.5, length)?;
//! let b = sng.generate_bipolar(-0.25, length)?;
//! let product = multiply::bipolar(&a, &b);
//! let value = product.bipolar_value();
//! assert!((value - (-0.125)).abs() < 0.1);
//! # Ok::<(), sc_core::ScError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod add;
pub mod arena;
pub mod bitstream;
pub mod cache;
pub mod csa;
pub mod encoding;
pub mod error;
pub mod hist;
pub mod multiply;
pub mod parallel;
pub mod rng;
pub mod sng;
pub mod stats;
pub mod twoline;
pub mod word;

pub use arena::{ArenaStats, StreamArena};
pub use bitstream::{BitStream, StreamLength};
pub use error::ScError;
pub use hist::LogHistogram;
pub use word::{active_backend, force_backend, Backend};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::activation::{Btanh, Stanh, StanhMode};
    pub use crate::add::{Apc, ExactParallelCounter, MuxAdder, OrAdder};
    pub use crate::arena::StreamArena;
    pub use crate::bitstream::{BitStream, StreamLength};
    pub use crate::encoding::{Bipolar, Encoding, Unipolar};
    pub use crate::error::ScError;
    pub use crate::hist::LogHistogram;
    pub use crate::multiply;
    pub use crate::parallel;
    pub use crate::rng::Lfsr;
    pub use crate::sng::{Sng, SngKind};
    pub use crate::stats;
    pub use crate::twoline::{TwoLineAdder, TwoLineStream};
}

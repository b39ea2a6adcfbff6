//! # fml-nn
//!
//! Feed-forward neural networks trained by back-propagation over **normalized**
//! relational data, implementing the three algorithm variants of the paper
//! (Section VI):
//!
//! * [`materialized::MaterializedNn`] (`M-NN`) — materialize the PK/FK join, then
//!   train scanning the denormalized table each epoch.
//! * [`streaming::StreamingNn`] (`S-NN`) — join on the fly each epoch and feed the
//!   joined tuples to an unchanged trainer.
//! * [`factorized::FactorizedNn`] (`F-NN`) — push the first-layer computation
//!   through the join: the partial pre-activation `W¹_R·x_R + b¹` is computed once
//!   per dimension tuple and reused for every matching fact tuple during forward
//!   propagation, and the first-layer weight gradient's dimension-side block is
//!   accumulated per dimension tuple during backward propagation; the redundant
//!   dimension fields are never read from storage (Section VI-A3's I/O saving).
//!   One implementation serves binary and star joins (Section VI-B): a binary
//!   join is a star join with one dimension table.
//!
//! [`layer_reuse`] contains the paper's negative result about layers ≥ 2: only
//! additive activation functions admit exact reuse beyond the first layer, and
//! even then the reused evaluation costs at least as many operations as the direct
//! one (Section VI-A2).
//!
//! All variants run full-batch gradient descent by default, which makes the
//! learned parameters independent of tuple order and therefore identical across
//! variants up to floating-point rounding — the property the integration tests
//! assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod factorized;
pub mod gradcheck;
pub mod layer;
pub mod layer_reuse;
pub mod loss;
pub mod materialized;
pub mod mlp;
pub mod streaming;
pub mod trainer;

pub use activation::Activation;
pub use factorized::FactorizedNn;
pub use layer::DenseLayer;
pub use materialized::MaterializedNn;
pub use mlp::Mlp;
pub use streaming::StreamingNn;
pub use trainer::{NnConfig, NnFit, SupervisedSource};

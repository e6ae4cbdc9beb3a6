//! `neurite` — a from-scratch neural-network library.
//!
//! The paper trains two small Keras models (an MLP and an LSTM(16) with a
//! stack of seven dense layers) with the Adam optimiser and **focal loss**
//! against the heavy thick-ice class imbalance. Rather than bind to a
//! framework, this crate implements the full training stack:
//!
//! - [`tensor`] — a row-major `f32` matrix with the linear algebra the
//!   layers need (rayon-parallel matmul above a size threshold);
//! - [`activation`] — ELU / ReLU / tanh / sigmoid and softmax;
//! - [`layers`] — [`layers::Dense`], [`layers::Lstm`] (full BPTT), and
//!   [`layers::Dropout`], all behind the [`layers::Layer`] trait;
//! - [`loss`] — softmax cross-entropy and softmax focal loss with
//!   analytic gradients (validated by finite differences in tests);
//! - [`optim`] — Adam and SGD over flattened parameter vectors;
//! - [`model`] — [`model::Sequential`]: forward/backward, train steps,
//!   prediction, and flat parameter/gradient access (the hook the
//!   Horovod-style trainer uses for broadcast and all-reduce);
//! - [`metrics`] — confusion matrix, accuracy, precision/recall/F1;
//! - [`data`] — seeded shuffling, batching, splits, standardisation.
//!
//! Everything is deterministic given seeds, which keeps distributed
//! training bit-reproducible across worker counts (gradient averaging is
//! order-fixed).

pub mod activation;
pub mod data;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod tensor;
pub mod workspace;

pub use activation::Activation;
pub use data::{BatchIter, Batcher, Dataset, Standardizer};
pub use layers::{Dense, Dropout, Layer, Lstm};
pub use loss::{CrossEntropy, FocalLoss, Loss};
pub use metrics::{confusion_matrix, ClassificationReport, ConfusionMatrix};
pub use model::Sequential;
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Matrix;
pub use workspace::Workspace;

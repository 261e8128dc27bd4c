//! # mvml-nn — a from-scratch neural-network substrate
//!
//! This crate plays the role PyTorch plays in the DSN'25 paper *"Multi-version
//! Machine Learning and Rejuvenation for Resilient Perception in
//! Safety-critical Systems"*: it provides the tensors, layers, losses,
//! optimiser and training loop used to build the diverse ML-module versions
//! of the multi-version architecture, plus a synthetic stand-in for the
//! GTSRB traffic-sign dataset ([`signs`]).
//!
//! Everything is pure, dependency-light Rust: dense `f32` tensors, direct
//! convolution loops, hand-written backward passes verified against
//! numerical gradients in the test suite.
//!
//! ## Example
//!
//! Train a small classifier on synthetic signs and measure its accuracy:
//!
//! ```
//! use mvml_nn::models::lenet_mini;
//! use mvml_nn::signs::{generate, SignConfig};
//! use mvml_nn::train::{train_classifier, TrainConfig};
//! use mvml_nn::metrics::evaluate_accuracy;
//!
//! let cfg = SignConfig { classes: 5, noise_std: 0.05, ..SignConfig::default() };
//! let train = generate(&cfg, 200, 0);
//! let test = generate(&cfg, 60, 1);
//! let mut model = lenet_mini(cfg.image_size, cfg.classes, 38);
//! let tc = TrainConfig { epochs: 3, batch_size: 32, ..TrainConfig::default() };
//! let report = train_classifier(&mut model, &train, &tc);
//! assert_eq!(report.epoch_losses.len(), 3);
//! let _accuracy = evaluate_accuracy(&mut model, &test, 32);
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one place: the
// SIMD microkernels in `gemm`, where every unsafe token carries a
// `// SAFETY:` contract and the analyzer's R3 inventory pins the exact
// count per module (`analyze-policy.toml`).
#![deny(unsafe_code)]
#![warn(missing_docs)]
// The substrate's expect/panic sites are documented layer contracts
// (`backward before forward`, shape preconditions) and thread-join
// invariants, mirrored by shape asserts; converting them to typed errors
// would thread Results through every hot training loop for no caller
// that could recover. Kept as documented panics instead.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod data;
pub mod exec;
pub mod gemm;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod models;
pub mod optim;
pub mod parallel;
pub mod persist;
pub mod quant;
pub mod signs;
pub mod tensor;
pub mod train;
pub mod tune;

pub use data::Dataset;
pub use layer::{Layer, Param};
pub use model::{ModelState, Sequential};
pub use tensor::Tensor;

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! A self-contained tensor / reverse-mode autodiff / neural layer stack,
//! built from scratch as the substrate for the ChainNet reproduction.
//!
//! The paper's models are small — 64-unit GRU cells and MLPs, at most a
//! dozen message-passing iterations over graphs with tens of nodes — so a
//! dense define-by-run tape is both simple and fast enough. The whole
//! stack is generic over a [`scalar::Scalar`] element type with `f64` as
//! the default (reference arithmetic, bit-identical to the original
//! concrete-`f64` code) and `f32` as the high-throughput training dtype.
//! The stack provides exactly what ChainNet, GIN and GAT need:
//!
//! * [`scalar::Scalar`] — the `f32`/`f64` element-type abstraction;
//! * [`tensor::Tensor`] — dense vectors/matrices with lane-blocked
//!   matmul kernels the autovectorizer can widen;
//! * [`tape::Tape`] — reverse-mode autodiff with graph-NN-oriented ops
//!   (concat, softmax, attention-style weighted sums) plus row-batched
//!   variants (`matmul_bt`, `add_rows`, `select_rows`, ...) for
//!   mini-batch training;
//! * [`params::ParamStore`] — persistent trainable weights shared across
//!   per-sample tapes, with Glorot initialization;
//! * [`layers`] — `Linear`, `Mlp`, `GruCell` (each with per-sample and
//!   row-batched forwards);
//! * [`optim`] — Adam plus the paper's step-decay schedule.
//!
//! # Example: fit y = 2x with one linear layer
//!
//! ```
//! use chainnet_neural::layers::{Activation, Mlp};
//! use chainnet_neural::optim::Adam;
//! use chainnet_neural::params::ParamStore;
//! use chainnet_neural::tape::Tape;
//! use chainnet_neural::tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let net = Mlp::new(&mut store, "f", &[1, 8, 1], Activation::Tanh, &mut rng);
//! let mut adam = Adam::new(0.01);
//! for _ in 0..300 {
//!     for x in [-1.0f64, -0.5, 0.0, 0.5, 1.0] {
//!         let mut tape = Tape::new();
//!         let xin = tape.leaf(Tensor::scalar(x));
//!         let y = net.forward(&mut tape, &store, xin);
//!         let target = tape.leaf(Tensor::scalar(2.0 * x));
//!         let loss = tape.squared_error(y, target);
//!         tape.backward(loss);
//!         tape.accumulate_param_grads(&mut store);
//!     }
//!     adam.step(&mut store);
//! }
//! let mut tape = Tape::new();
//! let xin = tape.leaf(Tensor::scalar(0.25));
//! let y = net.forward(&mut tape, &store, xin);
//! assert!((tape.value(y).item() - 0.5).abs() < 0.1);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod params;
pub mod scalar;
pub mod tape;
pub mod tensor;

pub use layers::{Activation, GruCell, Linear, Mlp};
pub use optim::{Adam, StepDecay};
pub use params::{ParamId, ParamStore};
pub use scalar::Scalar;
pub use tape::{Tape, Var};
pub use tensor::Tensor;

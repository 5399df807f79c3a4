//! Neural layers used by ChainNet and the baseline GNNs: linear maps,
//! multi-layer perceptrons, and GRU cells.
//!
//! Layer structs hold only [`ParamId`]s (and dimensions) — the dtype
//! lives in the [`ParamStore`]/[`Tape`] they run against, so one layer
//! value drives `f64` reference passes and `f32` training passes alike.
//! Each layer has two forward flavours:
//!
//! * `forward` — per-sample tape pass (vector inputs), the reference.
//! * `forward_rows` — row-batched tape pass: `(B, in)` matrices flow
//!   through one `matmul_bt` per weight instead of `B` matvecs, for
//!   mini-batch training and batched inference. Row `b` is
//!   bit-identical to `forward` on row `b`.

use crate::params::{ParamId, ParamStore};
use crate::scalar::Scalar;
use crate::tape::{Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation functions for [`Mlp`] hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    /// No activation.
    Identity,
}

impl Activation {
    /// Apply the activation on the tape.
    pub fn apply<S: Scalar>(self, tape: &mut Tape<S>, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::LeakyRelu => tape.leaky_relu(x, S::from_f64(0.01)),
            Activation::Identity => x,
        }
    }
}

/// A fully-connected layer `y = W x + b`.
///
/// # Examples
///
/// ```
/// use chainnet_neural::layers::Linear;
/// use chainnet_neural::params::ParamStore;
/// use chainnet_neural::tape::Tape;
/// use chainnet_neural::tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let layer = Linear::new(&mut store, "l0", 3, 2, &mut rng);
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![1.0, 0.5, -0.5]));
/// let y = layer.forward(&mut tape, &store, x);
/// assert_eq!(tape.value(y).len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create a Glorot-initialized linear layer.
    pub fn new<S: Scalar, R: Rng + ?Sized>(
        store: &mut ParamStore<S>,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add_glorot(format!("{name}.w"), out_dim, in_dim, rng);
        let b = store.add_zeros(format!("{name}.b"), out_dim);
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass on the tape.
    pub fn forward<S: Scalar>(&self, tape: &mut Tape<S>, store: &ParamStore<S>, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let wx = tape.matvec(w, x);
        tape.add(wx, b)
    }

    /// Row-batched tape forward: `x` is a `(B, in_dim)` matrix node;
    /// returns `(B, out_dim)` through one `matmul_bt` + broadcast bias.
    /// Row `b` is bit-identical to [`Linear::forward`] on that row.
    pub fn forward_rows<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        x: Var,
    ) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let wx = tape.matmul_bt(x, w);
        tape.add_rows(wx, b)
    }
}

/// A multi-layer perceptron with a fixed hidden activation and linear
/// output, as used for `MLP_tput` and `MLP_latency` in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Create an MLP with the given layer sizes, e.g. `[64, 64, 1]` for a
    /// 64-input, one-hidden-layer, scalar-output network.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<S: Scalar, R: Rng + ?Sized>(
        store: &mut ParamStore<S>,
        name: &str,
        sizes: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "Mlp needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Forward pass; activation on all but the last layer.
    pub fn forward<S: Scalar>(&self, tape: &mut Tape<S>, store: &ParamStore<S>, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, store, x);
            if i < last {
                x = self.activation.apply(tape, x);
            }
        }
        x
    }

    /// Row-batched tape forward over a `(B, in_dim)` matrix node;
    /// row-for-row bit-identical to [`Mlp::forward`].
    pub fn forward_rows<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        mut x: Var,
    ) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward_rows(tape, store, x);
            if i < last {
                x = self.activation.apply(tape, x);
            }
        }
        x
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }
}

/// A gated recurrent unit cell (Cho et al., 2014), the update function
/// used for φ_C, φ_F and φ_D in ChainNet.
///
/// Gates follow the standard formulation:
///
/// ```text
/// z = σ(W_z x + U_z h + b_z)
/// r = σ(W_r x + U_r h + b_r)
/// n = tanh(W_n x + U_n (r ⊙ h) + b_n)
/// h' = (1 - z) ⊙ n + z ⊙ h
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GruCell {
    w_z: ParamId,
    u_z: ParamId,
    b_z: ParamId,
    w_r: ParamId,
    u_r: ParamId,
    b_r: ParamId,
    w_n: ParamId,
    u_n: ParamId,
    b_n: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Create a Glorot-initialized GRU cell.
    pub fn new<S: Scalar, R: Rng + ?Sized>(
        store: &mut ParamStore<S>,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        let mat =
            |suffix: &str, rows: usize, cols: usize, store: &mut ParamStore<S>, rng: &mut R| {
                store.add_glorot(format!("{name}.{suffix}"), rows, cols, rng)
            };
        let w_z = mat("w_z", hidden_dim, input_dim, store, rng);
        let u_z = mat("u_z", hidden_dim, hidden_dim, store, rng);
        let b_z = store.add_zeros(format!("{name}.b_z"), hidden_dim);
        let w_r = mat("w_r", hidden_dim, input_dim, store, rng);
        let u_r = mat("u_r", hidden_dim, hidden_dim, store, rng);
        let b_r = store.add_zeros(format!("{name}.b_r"), hidden_dim);
        let w_n = mat("w_n", hidden_dim, input_dim, store, rng);
        let u_n = mat("u_n", hidden_dim, hidden_dim, store, rng);
        let b_n = store.add_zeros(format!("{name}.b_n"), hidden_dim);
        Self {
            w_z,
            u_z,
            b_z,
            w_r,
            u_r,
            b_r,
            w_n,
            u_n,
            b_n,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// One recurrence step: `(x, h) -> h'`.
    pub fn forward<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        x: Var,
        h: Var,
    ) -> Var {
        let gate = |tape: &mut Tape<S>, w: ParamId, u: ParamId, b: ParamId, hx: Var| {
            let wp = tape.param(store, w);
            let up = tape.param(store, u);
            let bp = tape.param(store, b);
            let wx = tape.matvec(wp, x);
            let uh = tape.matvec(up, hx);
            let s = tape.add(wx, uh);
            tape.add(s, bp)
        };
        let z_pre = gate(tape, self.w_z, self.u_z, self.b_z, h);
        let z = tape.sigmoid(z_pre);
        let r_pre = gate(tape, self.w_r, self.u_r, self.b_r, h);
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul(r, h);
        let n_pre = gate(tape, self.w_n, self.u_n, self.b_n, rh);
        let n = tape.tanh(n_pre);
        let one_minus_z = tape.affine(z, S::from_f64(-1.0), S::ONE);
        let a = tape.mul(one_minus_z, n);
        let b = tape.mul(z, h);
        tape.add(a, b)
    }

    /// Row-batched tape recurrence: `x` is `(B, input_dim)` and `h` is
    /// `(B, hidden_dim)` matrix nodes, one independent cell step per
    /// row. Gate preactivations run as two `matmul_bt`s plus a
    /// broadcast bias, in the exact per-element order of
    /// [`GruCell::forward`], so row `b` is bit-identical to the
    /// per-sample path on that row.
    pub fn forward_rows<S: Scalar>(
        &self,
        tape: &mut Tape<S>,
        store: &ParamStore<S>,
        x: Var,
        h: Var,
    ) -> Var {
        let gate = |tape: &mut Tape<S>, w: ParamId, u: ParamId, b: ParamId, hx: Var| {
            let wp = tape.param(store, w);
            let up = tape.param(store, u);
            let bp = tape.param(store, b);
            let wx = tape.matmul_bt(x, wp);
            let uh = tape.matmul_bt(hx, up);
            let s = tape.add(wx, uh);
            tape.add_rows(s, bp)
        };
        let z_pre = gate(tape, self.w_z, self.u_z, self.b_z, h);
        let z = tape.sigmoid(z_pre);
        let r_pre = gate(tape, self.w_r, self.u_r, self.b_r, h);
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul(r, h);
        let n_pre = gate(tape, self.w_n, self.u_n, self.b_n, rh);
        let n = tape.tanh(n_pre);
        let one_minus_z = tape.affine(z, S::from_f64(-1.0), S::ONE);
        let a = tape.mul(one_minus_z, n);
        let b = tape.mul(z, h);
        tape.add(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, "l", 4, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0; 4]));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).len(), 2);
        assert_eq!(l.in_dim(), 4);
        assert_eq!(l.out_dim(), 2);
    }

    #[test]
    fn mlp_forward_and_dims() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 8, 1], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 3);
        assert_eq!(mlp.out_dim(), 1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.1, 0.2, 0.3]));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).len(), 1);
    }

    #[test]
    fn gru_keeps_hidden_dimension() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 5, 8, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.5; 5]));
        let h = tape.leaf(Tensor::zeros(8));
        let h1 = gru.forward(&mut tape, &store, x, h);
        assert_eq!(tape.value(h1).len(), 8);
        // Values bounded by tanh/sigmoid algebra: |h'| <= 1 when h = 0.
        for &v in tape.value(h1).data() {
            assert!(v.abs() <= 1.0);
        }
    }

    #[test]
    fn gru_with_zero_update_gate_bias_moves_state() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 2, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, -1.0]));
        let h0 = tape.leaf(Tensor::zeros(4));
        let h1 = gru.forward(&mut tape, &store, x, h0);
        assert!(tape.value(h1).data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gru_gradients_flow_to_all_parameters() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.3, -0.7, 0.2]));
        let h = tape.leaf(Tensor::from_vec(vec![0.1, 0.2, -0.1, 0.4]));
        let h1 = gru.forward(&mut tape, &store, x, h);
        let loss = tape.sum(h1);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let nonzero = store
            .ids()
            .filter(|&id| store.grad(id).data().iter().any(|&g| g != 0.0))
            .count();
        // All 9 GRU parameter tensors should receive gradient.
        assert_eq!(nonzero, 9);
    }

    /// Row-batched tape forwards (`forward_rows`) must reproduce the
    /// per-sample tape path bit for bit, and route gradients to every
    /// parameter.
    #[test]
    fn forward_rows_matches_sequential_tape_bitwise() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "lin", 3, 4, &mut rng);
        let mlp = Mlp::new(&mut store, "mlp", &[3, 4, 2], Activation::Tanh, &mut rng);
        let gru = GruCell::new(&mut store, "gru", 3, 4, &mut rng);

        let xs: [Vec<f64>; 3] = [
            vec![0.4, -1.2, 0.9],
            vec![-0.3, 0.0, 2.5],
            vec![1.0, 1.0, -1.0],
        ];
        let hs = [
            vec![0.1, -0.2, 0.3, -0.4],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.9, -0.9, 0.5, 0.25],
        ];

        let mut batch = Tape::new();
        let xb = batch.leaf(Tensor::matrix(3, 3, xs.concat()));
        let hb = batch.leaf(Tensor::matrix(3, 4, hs.concat()));
        let lin_b = lin.forward_rows(&mut batch, &store, xb);
        let mlp_b = mlp.forward_rows(&mut batch, &store, xb);
        let gru_b = gru.forward_rows(&mut batch, &store, xb, hb);

        for (row, (x0, h0)) in xs.iter().zip(&hs).enumerate() {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::from_vec(x0.clone()));
            let h = tape.leaf(Tensor::from_vec(h0.clone()));
            let ly = lin.forward(&mut tape, &store, x);
            let my = mlp.forward(&mut tape, &store, x);
            let gy = gru.forward(&mut tape, &store, x, h);
            for (c, &v) in tape.value(ly).data().iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    batch.value(lin_b).data()[row * 4 + c].to_bits()
                );
            }
            for (c, &v) in tape.value(my).data().iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    batch.value(mlp_b).data()[row * 2 + c].to_bits()
                );
            }
            for (c, &v) in tape.value(gy).data().iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    batch.value(gru_b).data()[row * 4 + c].to_bits()
                );
            }
        }

        // Gradients flow to all parameters through the batched ops.
        let gsum = batch.sum(gru_b);
        let msum_pre = batch.sum(mlp_b);
        let lsum = batch.sum(lin_b);
        let t1 = batch.add(gsum, msum_pre);
        let loss = batch.add(t1, lsum);
        batch.backward(loss);
        batch.accumulate_param_grads(&mut store);
        let nonzero = store
            .ids()
            .filter(|&id| store.grad(id).data().iter().any(|&g| g != 0.0))
            .count();
        assert_eq!(nonzero, store.ids().count());
    }

    #[test]
    fn mlp_gradcheck_against_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[2, 4, 1], Activation::Tanh, &mut rng);
        let x_in = vec![0.7, -0.4];

        // Analytic gradient of output wrt every parameter.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(x_in.clone()));
        let y = mlp.forward(&mut tape, &store, x);
        tape.backward(y);
        tape.accumulate_param_grads(&mut store);

        // Numeric check on a few weights of the first layer.
        let id = store.ids().next().unwrap();
        let analytic = store.grad(id).clone();
        let eps = 1e-6;
        for idx in 0..analytic.len().min(4) {
            let orig = store.value(id).data()[idx];
            store.value_mut(id).data_mut()[idx] = orig + eps;
            let mut tp = Tape::new();
            let xv = tp.leaf(Tensor::from_vec(x_in.clone()));
            let out_p = mlp.forward(&mut tp, &store, xv);
            let fp = tp.value(out_p).item();
            store.value_mut(id).data_mut()[idx] = orig - eps;
            let mut tm = Tape::new();
            let xv = tm.leaf(Tensor::from_vec(x_in.clone()));
            let out_m = mlp.forward(&mut tm, &store, xv);
            let fm = tm.value(out_m).item();
            store.value_mut(id).data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-5,
                "weight {idx}: numeric {num} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }
}

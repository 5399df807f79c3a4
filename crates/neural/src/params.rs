//! Trainable parameter storage shared by all layers of a model.
//!
//! Layers hold [`ParamId`]s into a [`ParamStore`]; forward passes copy
//! parameter values into the autodiff tape, and the backward pass
//! accumulates gradients back into the store. This separation lets a batch
//! of independently-shaped graphs (define-by-run) share one set of weights,
//! and lets the same layer structs drive either dtype: a store can be
//! [`cast`](ParamStore::cast) between `f64` (reference) and `f32`
//! (training) without disturbing the ids the layers hold.

use crate::scalar::Scalar;
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// One trainable tensor with its gradient accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param<S: Scalar = f64> {
    /// Current value.
    pub value: Tensor<S>,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Tensor<S>,
    /// Human-readable name for debugging and serialization.
    pub name: String,
}

/// The set of all trainable parameters of a model.
///
/// # Examples
///
/// ```
/// use chainnet_neural::params::ParamStore;
/// use chainnet_neural::tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let id = store.add("w", Tensor::from_vec(vec![0.5, -0.5]));
/// assert_eq!(store.value(id).data(), &[0.5, -0.5]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamStore<S: Scalar = f64> {
    params: Vec<Param<S>>,
}

impl<S: Scalar> Default for ParamStore<S> {
    fn default() -> Self {
        Self { params: Vec::new() }
    }
}

impl<S: Scalar> ParamStore<S> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter and return its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor<S>) -> ParamId {
        let grad = value.zeros_like();
        self.params.push(Param {
            value,
            grad,
            name: name.into(),
        });
        ParamId(self.params.len() - 1)
    }

    /// Register a Glorot-uniform-initialized matrix parameter.
    ///
    /// The Glorot (Xavier) limit is `sqrt(6 / (fan_in + fan_out))`, the
    /// initialization the paper uses for all five networks. Sampling is
    /// always done in `f64` and then cast, so an `f32` store draws the
    /// exact same random sequence (rounded) as its `f64` twin.
    pub fn add_glorot<R: Rng + ?Sized>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> ParamId {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| S::from_f64(rng.gen_range(-limit..limit)))
            .collect();
        self.add(name, Tensor::matrix(rows, cols, data))
    }

    /// Register a zero-initialized vector parameter (typical for biases).
    pub fn add_zeros(&mut self, name: impl Into<String>, n: usize) -> ParamId {
        self.add(name, Tensor::zeros(n))
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor<S> {
        &self.params[id.0].value
    }

    /// Mutable value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor<S> {
        &mut self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor<S> {
        &self.params[id.0].grad
    }

    /// Mutable value plus shared gradient of the `i`-th parameter in
    /// registration order, borrowed simultaneously.
    ///
    /// This split borrow is what lets `Adam::step` walk values against
    /// gradients in place, without cloning either side per step.
    pub(crate) fn value_grad_mut(&mut self, i: usize) -> (&mut Tensor<S>, &Tensor<S>) {
        let p = &mut self.params[i];
        (&mut p.value, &p.grad)
    }

    /// Add `g` into the gradient accumulator of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different shape than the parameter.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor<S>) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Zero every gradient accumulator in place.
    ///
    /// Writes `0` over the existing buffers rather than allocating fresh
    /// zero tensors — bit-identical (IEEE `+0.0` either way) and free of
    /// per-step allocation on the optimizer hot path.
    // lint:zero_alloc
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            for g in p.grad.data_mut() {
                *g = S::ZERO;
            }
        }
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Iterate over ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// A copy of the store with every tensor cast to another dtype.
    ///
    /// Ids are positional, so every [`ParamId`] handed out by this store
    /// remains valid on the cast copy — layers built against an `f64`
    /// store drive its `f32` cast unchanged. Gradients are cast along
    /// with values (they are normally zero between steps anyway).
    pub fn cast<T: Scalar>(&self) -> ParamStore<T> {
        ParamStore {
            params: self
                .params
                .iter()
                .map(|p| Param {
                    value: p.value.cast(),
                    grad: p.grad.cast(),
                    name: p.name.clone(),
                })
                .collect(),
        }
    }

    /// Copy parameter values (not gradients) from a same-layout store of
    /// another dtype, casting each element. Used to fold trained `f32`
    /// weights back into the canonical `f64` store.
    ///
    /// # Panics
    ///
    /// Panics if the two stores have different layouts.
    pub fn assign_values_cast<T: Scalar>(&mut self, src: &ParamStore<T>) {
        assert_eq!(
            self.params.len(),
            src.params.len(),
            "assign_values_cast: store layouts differ"
        );
        for (dst, s) in self.params.iter_mut().zip(&src.params) {
            assert_eq!(
                dst.value.shape(),
                s.value.shape(),
                "assign_values_cast: shape mismatch on {}",
                dst.name
            );
            dst.value = s.value.cast();
        }
    }

    /// L2 norm of the concatenated gradient (diagnostic).
    ///
    /// Always accumulated in `f64` regardless of the store dtype, so the
    /// divergence guards see the same scale either way.
    pub fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .flat_map(|p| p.grad.data())
            .map(|g| g.to_f64() * g.to_f64())
            .sum::<f64>()
            .sqrt()
    }

    /// Whether every parameter value is finite (no NaN/inf).
    pub fn values_all_finite(&self) -> bool {
        self.params
            .iter()
            .all(|p| p.value.data().iter().all(|v| v.is_finite()))
    }

    /// Clip the concatenated gradient to an L2 norm of at most
    /// `max_norm`, scaling every gradient entry uniformly. Returns the
    /// pre-clip norm. A non-finite norm (NaN/inf gradients) is left
    /// untouched — scaling cannot repair it — and reported as-is so the
    /// caller can trip its divergence guard.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm.is_finite() && norm > max_norm && max_norm > 0.0 {
            let scale = S::from_f64(max_norm / norm);
            for p in &mut self.params {
                for g in p.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
        norm
    }

    /// Serialize the store to JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize a store from JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_respects_limit() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut store = ParamStore::<f64>::new();
        let id = store.add_glorot("w", 8, 8, &mut rng);
        let limit = (6.0_f64 / 16.0).sqrt();
        for &x in store.value(id).data() {
            assert!(x.abs() <= limit);
        }
    }

    #[test]
    fn glorot_is_not_degenerate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let id = store.add_glorot("w", 16, 16, &mut rng);
        let data = store.value(id).data();
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        assert!(mean.abs() < 0.1);
        assert!(data.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn glorot_f32_draws_the_same_sequence_rounded() {
        let mut rng64 = SmallRng::seed_from_u64(3);
        let mut rng32 = SmallRng::seed_from_u64(3);
        let mut s64 = ParamStore::<f64>::new();
        let mut s32 = ParamStore::<f32>::new();
        let a = s64.add_glorot("w", 4, 4, &mut rng64);
        let b = s32.add_glorot("w", 4, 4, &mut rng32);
        for (&x, &y) in s64.value(a).data().iter().zip(s32.value(b).data()) {
            assert_eq!(y.to_bits(), (x as f32).to_bits());
        }
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![0.5, 0.5]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![0.5, 0.5]));
        assert_eq!(store.grad(id).data(), &[1.0, 1.0]);
        store.zero_grads();
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn cast_preserves_ids_and_layout() {
        let mut store = ParamStore::<f64>::new();
        let a = store.add("a", Tensor::from_vec(vec![1.5, -0.25]));
        let b = store.add("b", Tensor::zeros_matrix(2, 3));
        let cast: ParamStore<f32> = store.cast();
        assert_eq!(cast.value(a).data(), &[1.5f32, -0.25]);
        assert_eq!(cast.value(b).shape(), &[2, 3]);
        // Round-trip the values back into the f64 store.
        let mut back = store.clone();
        back.assign_values_cast(&cast);
        assert_eq!(back.value(a).data(), &[1.5, -0.25]);
    }

    #[test]
    fn clip_grad_norm_scales_to_the_cap() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![0.0, 0.0]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![3.0, 4.0]));
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-12);
        assert!((store.grad_norm() - 1.0).abs() < 1e-12);
        // Direction is preserved.
        assert!((store.grad(id).data()[0] - 0.6).abs() < 1e-12);
        assert!((store.grad(id).data()[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients_alone() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![0.0]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![0.5]));
        let pre = store.clip_grad_norm(10.0);
        assert!((pre - 0.5).abs() < 1e-12);
        assert_eq!(store.grad(id).data(), &[0.5]);
    }

    #[test]
    fn clip_grad_norm_reports_non_finite_without_scaling() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![0.0]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![f64::NAN]));
        let pre = store.clip_grad_norm(1.0);
        assert!(pre.is_nan());
        assert!(store.grad(id).data()[0].is_nan());
    }

    #[test]
    fn finiteness_checks_detect_nan_values() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        assert!(store.values_all_finite());
        let id = store.ids().next().unwrap();
        store.value_mut(id).data_mut()[1] = f64::INFINITY;
        assert!(!store.values_all_finite());
    }

    #[test]
    fn json_round_trip() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::from_vec(vec![1.0]));
        store.add("b", Tensor::matrix(1, 2, vec![2.0, 3.0]));
        let back = ParamStore::from_json(&store.to_json().unwrap()).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn num_scalars_counts_all_weights() {
        let mut store = ParamStore::<f64>::new();
        store.add("a", Tensor::zeros(3));
        store.add("b", Tensor::zeros_matrix(2, 2));
        assert_eq!(store.num_scalars(), 7);
        assert_eq!(store.len(), 2);
    }
}

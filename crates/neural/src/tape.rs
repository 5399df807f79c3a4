//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records the forward computation as a list of nodes; calling
//! [`Tape::backward`] propagates gradients from a scalar loss back to every
//! node, and [`Tape::accumulate_param_grads`] folds gradients of parameter
//! leaves into a [`ParamStore`]. Because ChainNet processes graphs of
//! varying topology, a tape is rebuilt per sample (define-by-run) while
//! the parameters persist in the store.
//!
//! Rebuilding does not mean reallocating. A node is a value tensor (with
//! an inline [`Shape`]) plus a `Copy` op descriptor; the node lists of
//! multi-input ops (`concat`, `select_rows`, `weighted_sum_rows`, ...)
//! live in one arena the tape owns, each op holding a range into it, and
//! parameter leaves are found through a dense table indexed by
//! [`ParamId`]. [`Tape::reset`] keeps every list's capacity, hands node
//! `i`'s value buffer to node `i` of the next pass and returns gradient
//! buffers to a pool that the backward pass draws its temporaries from.
//! So once a pass has run at some shape, a `reset` followed by a forward
//! at the same shape allocates nothing on the tape side
//! ([`Tape::heap_growths`] counts every time it must). Parameter leaves
//! still copy their values out of the store, into those reused buffers.
//! Reuse only recycles allocations — the arithmetic (and therefore every
//! value and gradient, bit for bit) is identical to a fresh tape.
//!
//! The tape is generic over the [`Scalar`] element type: `Tape` (i.e.
//! `Tape<f64>`) is the reference path used by gradcheck and the golden
//! tests; `Tape<f32>` drives batched training through the same ops. The
//! row-batched operations ([`Tape::matmul_bt`], [`Tape::add_rows`],
//! [`Tape::concat_cols`], [`Tape::select_rows`],
//! [`Tape::masked_softmax_rows`], [`Tape::weighted_sum_rows`]) exist so
//! a mini-batch of graphs can run its GRU steps, attention and readout
//! as a few large matrix products instead of `B` small per-graph ones.
//!
//! All operations panic on shape mismatch: shapes are structural
//! invariants of the model code, not runtime inputs.

use crate::params::{ParamId, ParamStore};
use crate::scalar::Scalar;
use crate::tensor::{matmul_bt_into, Shape, Tensor};
use chainnet_obs::Tracer;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// A range of one of the tape's arenas (`inputs` or `choices`).
#[derive(Debug, Clone, Copy)]
struct ArenaRange {
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Copy)]
enum Op<S: Scalar> {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    /// `alpha * a + beta` elementwise.
    Affine(usize, S, S),
    /// `w (m,n) * x (n)`.
    MatVec(usize, usize),
    /// Parts in `inputs`.
    Concat(ArenaRange),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    LeakyRelu(usize, S),
    Softmax(usize),
    /// Sum of all elements to a scalar.
    Sum(usize),
    Dot(usize, usize),
    /// Stack scalar nodes (in `inputs`) into one vector.
    StackScalars(ArenaRange),
    /// `Σ_t weights[t] * items[t]` for equal-shaped vector items (in
    /// `inputs`).
    WeightedSum(usize, ArenaRange),
    /// Elementwise mean of equal-shaped vectors (in `inputs`).
    MeanVecs(ArenaRange),
    /// `x (B,k) * w^T` where `w` is `(n,k)` — the batched linear kernel.
    MatMulBt(usize, usize),
    /// Broadcast-add a vector node to every row of a matrix node.
    AddRows(usize, usize),
    /// Column-concatenation of equal-row-count matrix nodes (in `inputs`).
    ConcatCols(ArenaRange),
    /// Row `b` of the output is row `b` of `sources[choice[b]]`, with the
    /// sources in `inputs` and the choices in `choices`.
    SelectRows(ArenaRange, ArenaRange),
    /// Row-wise softmax restricted to mask-valid columns. The backward
    /// pass needs no mask: masked-out outputs are exactly `0`.
    MaskedSoftmaxRows(usize),
    /// `y[b,:] = Σ_t w[b,t] * items[t][b,:]` for `(B,T)` weights, items
    /// in `inputs`.
    WeightedSumRows(usize, ArenaRange),
}

#[derive(Debug, Clone)]
struct Node<S: Scalar> {
    value: Tensor<S>,
    op: Op<S>,
}

/// A reverse-mode autodiff tape.
///
/// # Examples
///
/// ```
/// use chainnet_neural::tape::Tape;
/// use chainnet_neural::tensor::Tensor;
///
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0]));
/// let y = tape.mul(x, x);         // y = x^2 elementwise
/// let loss = tape.sum(y);         // loss = Σ x_i^2
/// tape.backward(loss);
/// assert_eq!(tape.grad(x).data(), &[2.0, 4.0]); // d/dx = 2x
/// ```
#[derive(Debug, Clone)]
pub struct Tape<S: Scalar = f64> {
    nodes: Vec<Node<S>>,
    grads: Vec<Option<Tensor<S>>>,
    /// Node-index lists of the multi-input ops, one range per op.
    inputs: Vec<usize>,
    /// Per-row source choices of the `select_rows` ops.
    choices: Vec<u32>,
    /// The leaf of each parameter already on the tape, indexed by
    /// [`ParamId`].
    params: Vec<Option<Var>>,
    /// Value buffer of node position `i` in the previous pass, handed to
    /// node `i` of the next one by [`Tape::reset`].
    spares: Vec<Vec<S>>,
    /// Recycled scalar buffers: gradients harvested by [`Tape::reset`]
    /// and backward-pass temporaries. Backward draws from here, as does
    /// a node position the previous pass did not reach.
    pool: Vec<Vec<S>>,
    /// See [`Tape::heap_growths`].
    growths: u64,
    /// ArenaRange tracer for the backward pass; disabled (one branch) unless
    /// installed with [`Tape::set_tracer`].
    tracer: Tracer,
}

impl<S: Scalar> Default for Tape<S> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            inputs: Vec::new(),
            choices: Vec::new(),
            params: Vec::new(),
            spares: Vec::new(),
            pool: Vec::new(),
            growths: 0,
            tracer: Tracer::default(),
        }
    }
}

/// Clear `buf` and make room for `len` elements, counting an allocation
/// in `growths` when its capacity falls short.
fn ready<S>(growths: &mut u64, buf: &mut Vec<S>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        *growths += 1;
        buf.reserve_exact(len);
    }
}

/// Push onto a tape-owned list, counting the push in `growths` when the
/// list must reallocate.
fn push_counted<T>(growths: &mut u64, list: &mut Vec<T>, item: T) {
    if list.len() == list.capacity() {
        *growths += 1;
    }
    list.push(item);
}

/// Append `items` to an arena and return their range, counting a
/// reallocation in `growths`.
fn record<T>(
    growths: &mut u64,
    arena: &mut Vec<T>,
    items: impl ExactSizeIterator<Item = T>,
) -> ArenaRange {
    let start = arena.len();
    if arena.capacity() - start < items.len() {
        *growths += 1;
    }
    arena.extend(items);
    ArenaRange {
        start,
        end: arena.len(),
    }
}

impl<S: Scalar> Tape<S> {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the recorded computation for the next forward/backward pass.
    /// Every list keeps its capacity, node `i`'s value buffer is kept for
    /// node `i` of the next pass, and gradient buffers return to the pool
    /// the backward pass draws from — so a pass at a shape the tape has
    /// already seen allocates nothing.
    // lint:zero_alloc
    pub fn reset(&mut self) {
        if self.spares.len() < self.nodes.len() {
            self.growths += 1;
            // lint:allow(alloc_hygiene): grows only when a pass records
            // more nodes than any pass before it
            self.spares.resize_with(self.nodes.len(), Vec::new);
        }
        for (spare, node) in self.spares.iter_mut().zip(self.nodes.drain(..)) {
            let (_, data) = node.value.into_parts();
            if data.capacity() > 0 {
                // A spare this pass did not take (a caller-built leaf
                // sat at its position) is dropped here.
                *spare = data;
            }
        }
        for g in self.grads.drain(..).flatten() {
            let (_, data) = g.into_parts();
            if data.capacity() > 0 {
                push_counted(&mut self.growths, &mut self.pool, data);
            }
        }
        self.inputs.clear();
        self.choices.clear();
        self.params.fill(None);
    }

    /// Number of recycled buffers currently pooled (diagnostics/tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// How many times this tape has allocated or grown storage: a value
    /// or gradient buffer that was missing or too small, or a full node
    /// list, arena or table. After one pass at a given shape, a
    /// [`reset`](Self::reset) and a forward at the same shape leave this
    /// count unchanged (diagnostics/tests).
    pub fn heap_growths(&self) -> u64 {
        self.growths
    }

    /// Install a span tracer: each [`Tape::backward`] call records a
    /// `neural.backward` span. Tracing never touches the arithmetic, so
    /// gradients are bit-identical with or without it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// An empty buffer with room for `len` elements for the node about to
    /// be pushed: the buffer its position held in the previous pass, else
    /// one from the pool.
    // lint:zero_alloc
    fn node_buf(&mut self, len: usize) -> Vec<S> {
        let mut buf = match self.spares.get_mut(self.nodes.len()) {
            Some(spare) if spare.capacity() > 0 => std::mem::take(spare),
            _ => self.pool.pop().unwrap_or_default(),
        };
        ready(&mut self.growths, &mut buf, len);
        buf
    }

    /// An empty pooled buffer with room for `len` elements (backward-pass
    /// temporaries and gradients).
    // lint:zero_alloc
    fn take_buf(&mut self, len: usize) -> Vec<S> {
        let mut buf = self.pool.pop().unwrap_or_default();
        ready(&mut self.growths, &mut buf, len);
        buf
    }

    /// Return a temporary tensor's storage to the pool.
    fn recycle(&mut self, t: Tensor<S>) {
        let (_, data) = t.into_parts();
        if data.capacity() > 0 {
            push_counted(&mut self.growths, &mut self.pool, data);
        }
    }

    /// Record the node list of a multi-input op in the arena.
    fn record_inputs(&mut self, vars: &[Var]) -> ArenaRange {
        record(
            &mut self.growths,
            &mut self.inputs,
            vars.iter().map(|v| v.0),
        )
    }

    /// Elementwise zip of two node values, into the next node's buffer.
    fn zip_nodes(&mut self, a: usize, b: usize, f: impl Fn(S, S) -> S) -> Tensor<S> {
        let mut buf = self.node_buf(self.nodes[a].value.len());
        let x = &self.nodes[a].value;
        let y = &self.nodes[b].value;
        assert_eq!(x.shape(), y.shape(), "shape mismatch in zip_map");
        buf.extend(x.data().iter().zip(y.data()).map(|(&p, &q)| f(p, q)));
        Tensor::from_shape_data(x.dims(), buf)
    }

    /// Elementwise map of a node value, into the next node's buffer.
    fn map_node(&mut self, node: usize, f: impl Fn(S) -> S) -> Tensor<S> {
        let mut buf = self.node_buf(self.nodes[node].value.len());
        let x = &self.nodes[node].value;
        buf.extend(x.data().iter().map(|&p| f(p)));
        Tensor::from_shape_data(x.dims(), buf)
    }

    /// Pooled elementwise zip of a node value with an external tensor.
    fn pooled_zip_node(&mut self, node: usize, t: &Tensor<S>, f: impl Fn(S, S) -> S) -> Tensor<S> {
        let mut buf = self.take_buf(t.len());
        let x = &self.nodes[node].value;
        assert_eq!(x.shape(), t.shape(), "shape mismatch in zip_map");
        buf.extend(x.data().iter().zip(t.data()).map(|(&p, &q)| f(p, q)));
        Tensor::from_shape_data(x.dims(), buf)
    }

    /// Pooled elementwise map of a node value (gradient temporaries).
    fn pooled_map_node(&mut self, node: usize, f: impl Fn(S) -> S) -> Tensor<S> {
        let mut buf = self.take_buf(self.nodes[node].value.len());
        let x = &self.nodes[node].value;
        buf.extend(x.data().iter().map(|&p| f(p)));
        Tensor::from_shape_data(x.dims(), buf)
    }

    /// Pooled elementwise map of an external tensor (gradient temporaries).
    fn pooled_map(&mut self, src: &Tensor<S>, f: impl Fn(S) -> S) -> Tensor<S> {
        let mut buf = self.take_buf(src.len());
        buf.extend(src.data().iter().map(|&x| f(x)));
        Tensor::from_shape_data(src.dims(), buf)
    }

    fn push(&mut self, value: Tensor<S>, op: Op<S>) -> Var {
        push_counted(&mut self.growths, &mut self.nodes, Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Insert a constant (non-parameter) leaf.
    pub fn leaf(&mut self, value: Tensor<S>) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Insert a constant leaf of `shape` whose values are written straight
    /// into tape-owned storage, so that building it allocates nothing
    /// once the tape is warm.
    ///
    /// # Panics
    ///
    /// Panics unless `values` yields exactly `shape.numel()` elements.
    pub fn leaf_from_iter(&mut self, shape: Shape, values: impl IntoIterator<Item = S>) -> Var {
        let mut buf = self.node_buf(shape.numel());
        buf.extend(values);
        self.push(Tensor::from_shape_data(shape, buf), Op::Leaf)
    }

    /// Insert (or reuse) a leaf for a trainable parameter. Repeated calls
    /// with the same id return the same node, so gradients accumulate.
    pub fn param(&mut self, store: &ParamStore<S>, id: ParamId) -> Var {
        if let Some(&Some(v)) = self.params.get(id.0) {
            return v;
        }
        if self.params.len() <= id.0 {
            self.growths += 1;
            self.params.resize(id.0 + 1, None);
        }
        let src = store.value(id);
        let mut buf = self.node_buf(src.len());
        buf.extend_from_slice(src.data());
        let v = self.push(Tensor::from_shape_data(src.dims(), buf), Op::Leaf);
        self.params[id.0] = Some(v);
        v
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor<S> {
        &self.nodes[v.0].value
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_nodes(a.0, b.0, |x, y| x + y);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Elementwise subtraction `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_nodes(a.0, b.0, |x, y| x - y);
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_nodes(a.0, b.0, |x, y| x * y);
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// Elementwise affine map `alpha * a + beta`.
    pub fn affine(&mut self, a: Var, alpha: S, beta: S) -> Var {
        let v = self.map_node(a.0, |x| alpha * x + beta);
        self.push(v, Op::Affine(a.0, alpha, beta))
    }

    /// Matrix-vector product; `w` must be a matrix node, `x` a vector node.
    pub fn matvec(&mut self, w: Var, x: Var) -> Var {
        let wv = &self.nodes[w.0].value;
        assert!(wv.is_matrix(), "matvec on non-matrix");
        let (m, n) = (wv.rows(), wv.cols());
        let mut buf = self.node_buf(m);
        let wv = &self.nodes[w.0].value;
        let xv = &self.nodes[x.0].value;
        assert_eq!(
            xv.len(),
            n,
            "matvec: matrix cols {n} != vec len {}",
            xv.len()
        );
        // Same inner expression as Tensor::matvec — bit-identical output.
        buf.extend(
            wv.data()
                .chunks_exact(n)
                .map(|row| row.iter().zip(xv.data()).map(|(&a, &b)| a * b).sum::<S>()),
        );
        self.push(
            Tensor::from_shape_data(Shape::vector(m), buf),
            Op::MatVec(w.0, x.0),
        )
    }

    /// Batched linear kernel `x (B, k) * w^T` where `w` is `(n, k)`,
    /// yielding `(B, n)` — one differentiable node wrapping the
    /// lane-blocked `matmul_bt` kernel, so a whole mini-batch of rows
    /// goes through the weight matrix as one large product.
    ///
    /// Row `b` of the output is bit-identical to
    /// `matvec(w_as_rows, x_row_b)`: both reduce ascending-`k` into a
    /// single accumulator per element.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is `(B, k)` and `w` is `(n, k)`.
    pub fn matmul_bt(&mut self, x: Var, w: Var) -> Var {
        let (m, k, n) = {
            let xv = &self.nodes[x.0].value;
            let wv = &self.nodes[w.0].value;
            assert!(xv.is_matrix() && wv.is_matrix(), "matmul_bt on non-matrix");
            let (m, k) = (xv.rows(), xv.cols());
            let (n, wk) = (wv.rows(), wv.cols());
            assert_eq!(k, wk, "matmul_bt: inner dims {k} != {wk}");
            (m, k, n)
        };
        let mut buf = self.node_buf(m * n);
        buf.resize(m * n, S::ZERO);
        let (xv, wv) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        matmul_bt_into(xv.data(), wv.data(), m, k, n, &mut buf);
        self.push(
            Tensor::from_shape_data(Shape::matrix(m, n), buf),
            Op::MatMulBt(x.0, w.0),
        )
    }

    /// Broadcast-add a vector node `bias (n)` to every row of a matrix
    /// node `x (B, n)` — the batched counterpart of `add` after a
    /// linear layer.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is a matrix whose column count equals
    /// `bias.len()`.
    pub fn add_rows(&mut self, x: Var, bias: Var) -> Var {
        let shape = {
            let xv = &self.nodes[x.0].value;
            let bv = &self.nodes[bias.0].value;
            assert!(xv.is_matrix(), "add_rows on non-matrix");
            let n = xv.cols();
            assert_eq!(
                bv.len(),
                n,
                "add_rows: matrix cols {n} != bias len {}",
                bv.len()
            );
            xv.dims()
        };
        let mut buf = self.node_buf(shape.numel());
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[bias.0].value;
        for row in xv.data().chunks_exact(shape[1]) {
            buf.extend(row.iter().zip(bv.data()).map(|(&a, &b)| a + b));
        }
        self.push(
            Tensor::from_shape_data(shape, buf),
            Op::AddRows(x.0, bias.0),
        )
    }

    /// Concatenate matrix nodes along columns: all parts must share one
    /// row count `B`; the result is `(B, Σ cols)`. Row `b` of the output
    /// is the concatenation of row `b` of every part — the batched
    /// counterpart of `concat`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = self.nodes[parts[0].0].value.rows();
        let mut total = 0;
        for p in parts {
            let pv = &self.nodes[p.0].value;
            assert_eq!(pv.rows(), rows, "concat_cols: row count mismatch");
            total += pv.cols();
        }
        let mut buf = self.node_buf(rows * total);
        for b in 0..rows {
            for p in parts {
                let pv = &self.nodes[p.0].value;
                let w = pv.cols();
                buf.extend_from_slice(&pv.data()[b * w..(b + 1) * w]);
            }
        }
        let ids = self.record_inputs(parts);
        self.push(
            Tensor::from_shape_data(Shape::matrix(rows, total), buf),
            Op::ConcatCols(ids),
        )
    }

    /// Per-row gather: row `b` of the output is row `b` of
    /// `sources[choice[b]]`. All sources must be `(B, w)` matrices with
    /// `B == choice.len()`. This is how a batch of graphs, each with its
    /// own device wiring, selects per-graph rows out of shared
    /// batch-stacked hidden states.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or an out-of-range choice.
    pub fn select_rows(&mut self, sources: &[Var], choice: &[u32]) -> Var {
        assert!(!sources.is_empty(), "select_rows needs at least one source");
        let w = self.nodes[sources[0].0].value.cols();
        for s in sources {
            let sv = &self.nodes[s.0].value;
            assert_eq!(sv.cols(), w, "select_rows: column count mismatch");
            assert_eq!(
                sv.rows(),
                choice.len(),
                "select_rows: source rows != choice len"
            );
        }
        let mut buf = self.node_buf(choice.len() * w);
        for (b, &c) in choice.iter().enumerate() {
            let sv = &self.nodes[sources[c as usize].0].value;
            buf.extend_from_slice(&sv.data()[b * w..(b + 1) * w]);
        }
        let srcs = self.record_inputs(sources);
        let picks = record(&mut self.growths, &mut self.choices, choice.iter().copied());
        self.push(
            Tensor::from_shape_data(Shape::matrix(choice.len(), w), buf),
            Op::SelectRows(srcs, picks),
        )
    }

    /// Row-wise numerically stable softmax over the mask-valid columns
    /// of `x (B, T)`; masked-out entries get weight `0`. A row with no
    /// valid entry yields all zeros (instead of `0/0`), which keeps
    /// padded attention slots inert. A row with exactly one valid entry
    /// yields exactly `1` there.
    ///
    /// Per row, the exponentials accumulate in ascending column order —
    /// the same order as the vector `softmax` op — so a fully-valid row
    /// is bit-identical to `softmax` of that row.
    ///
    /// # Panics
    ///
    /// Panics unless `mask.len() == B * T`.
    pub fn masked_softmax_rows(&mut self, x: Var, mask: &[bool]) -> Var {
        let shape = {
            let xv = &self.nodes[x.0].value;
            assert!(xv.is_matrix(), "masked_softmax_rows on non-matrix");
            assert_eq!(mask.len(), xv.len(), "mask length != rows * cols");
            xv.dims()
        };
        let (rows, cols) = (shape[0], shape[1]);
        let mut buf = self.node_buf(rows * cols);
        let xv = &self.nodes[x.0].value;
        for b in 0..rows {
            let row = &xv.data()[b * cols..(b + 1) * cols];
            let mrow = &mask[b * cols..(b + 1) * cols];
            let mut max = S::NEG_INFINITY;
            for (&v, &m) in row.iter().zip(mrow) {
                if m {
                    max = max.max(v);
                }
            }
            let start = buf.len();
            buf.extend(row.iter().zip(mrow).map(
                |(&v, &m)| {
                    if m {
                        (v - max).exp()
                    } else {
                        S::ZERO
                    }
                },
            ));
            let z: S = buf[start..].iter().copied().sum();
            if z != S::ZERO {
                for e in &mut buf[start..] {
                    *e /= z;
                }
            }
        }
        self.push(
            Tensor::from_shape_data(shape, buf),
            Op::MaskedSoftmaxRows(x.0),
        )
    }

    /// Row-batched weighted sum: `weights` is `(B, T)` and every item is
    /// `(B, w)`; the result `(B, w)` has
    /// `y[b, :] = Σ_t weights[b, t] * items[t][b, :]` with the sum over
    /// `t` ascending — the batched counterpart of `weighted_sum`.
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` differs from the weight columns or shapes
    /// mismatch.
    pub fn weighted_sum_rows(&mut self, weights: Var, items: &[Var]) -> Var {
        assert!(
            !items.is_empty(),
            "weighted_sum_rows needs at least one item"
        );
        let (bsz, t) = {
            let wv = &self.nodes[weights.0].value;
            assert!(wv.is_matrix(), "weighted_sum_rows weights non-matrix");
            (wv.rows(), wv.cols())
        };
        assert_eq!(t, items.len(), "weights cols != item count");
        let w = self.nodes[items[0].0].value.cols();
        let mut buf = self.node_buf(bsz * w);
        buf.resize(bsz * w, S::ZERO);
        let wv = &self.nodes[weights.0].value;
        for (tt, item) in items.iter().enumerate() {
            let iv = &self.nodes[item.0].value;
            assert_eq!(iv.rows(), bsz, "weighted_sum_rows: item rows != B");
            assert_eq!(iv.cols(), w, "weighted_sum_rows: item cols mismatch");
            for b in 0..bsz {
                let alpha = wv.data()[b * t + tt];
                let dst = &mut buf[b * w..(b + 1) * w];
                let src = &iv.data()[b * w..(b + 1) * w];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o += alpha * v;
                }
            }
        }
        let ids = self.record_inputs(items);
        self.push(
            Tensor::from_shape_data(Shape::matrix(bsz, w), buf),
            Op::WeightedSumRows(weights.0, ids),
        )
    }

    /// Concatenate vector nodes.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        let total = parts.iter().map(|p| self.nodes[p.0].value.len()).sum();
        let mut buf = self.node_buf(total);
        for p in parts {
            buf.extend_from_slice(self.nodes[p.0].value.data());
        }
        let ids = self.record_inputs(parts);
        self.push(
            Tensor::from_shape_data(Shape::vector(total), buf),
            Op::Concat(ids),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.map_node(a.0, |x| S::ONE / (S::ONE + (-x).exp()));
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.map_node(a.0, S::tanh);
        self.push(v, Op::Tanh(a.0))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.map_node(a.0, |x| x.max(S::ZERO));
        self.push(v, Op::Relu(a.0))
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&mut self, a: Var, slope: S) -> Var {
        let v = self.map_node(a.0, |x| if x > S::ZERO { x } else { slope * x });
        self.push(v, Op::LeakyRelu(a.0, slope))
    }

    /// Numerically stable softmax over a vector.
    pub fn softmax(&mut self, a: Var) -> Var {
        let len = self.nodes[a.0].value.len();
        let mut buf = self.node_buf(len);
        let x = &self.nodes[a.0].value;
        let max = x.data().iter().copied().fold(S::NEG_INFINITY, S::max);
        buf.extend(x.data().iter().map(|&v| (v - max).exp()));
        let z: S = buf.iter().copied().sum();
        for e in &mut buf {
            *e /= z;
        }
        let v = Tensor::from_shape_data(Shape::vector(len), buf);
        self.push(v, Op::Softmax(a.0))
    }

    /// Sum all elements into a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let mut buf = self.node_buf(1);
        buf.push(self.nodes[a.0].value.sum());
        self.push(Tensor::from_shape_data(Shape::vector(1), buf), Op::Sum(a.0))
    }

    /// Dot product of two vector nodes, as a scalar node.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let mut buf = self.node_buf(1);
        buf.push(self.nodes[a.0].value.dot(&self.nodes[b.0].value));
        self.push(
            Tensor::from_shape_data(Shape::vector(1), buf),
            Op::Dot(a.0, b.0),
        )
    }

    /// Stack scalar nodes into one vector node.
    ///
    /// # Panics
    ///
    /// Panics if any input is not a scalar.
    pub fn stack_scalars(&mut self, parts: &[Var]) -> Var {
        let mut buf = self.node_buf(parts.len());
        buf.extend(parts.iter().map(|p| self.nodes[p.0].value.item()));
        let ids = self.record_inputs(parts);
        self.push(
            Tensor::from_shape_data(Shape::vector(parts.len()), buf),
            Op::StackScalars(ids),
        )
    }

    /// `Σ_t weights[t] * items[t]` where `weights` is a vector node of the
    /// same length as `items` and all items share one shape.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or lengths mismatch.
    pub fn weighted_sum(&mut self, weights: Var, items: &[Var]) -> Var {
        assert!(!items.is_empty(), "weighted_sum needs at least one item");
        assert_eq!(
            self.nodes[weights.0].value.len(),
            items.len(),
            "weights/items length mismatch"
        );
        let shape = self.nodes[items[0].0].value.dims();
        let mut buf = self.node_buf(shape.numel());
        buf.resize(shape.numel(), S::ZERO);
        let w = &self.nodes[weights.0].value;
        for (t, item) in items.iter().enumerate() {
            let it = &self.nodes[item.0].value;
            assert_eq!(it.dims(), shape, "shape mismatch in add_scaled");
            let alpha = w.data()[t];
            for (a, &b) in buf.iter_mut().zip(it.data()) {
                *a += alpha * b;
            }
        }
        let ids = self.record_inputs(items);
        self.push(
            Tensor::from_shape_data(shape, buf),
            Op::WeightedSum(weights.0, ids),
        )
    }

    /// Elementwise mean of equal-shaped vector nodes.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn mean_vecs(&mut self, items: &[Var]) -> Var {
        assert!(!items.is_empty(), "mean_vecs needs at least one item");
        let shape = self.nodes[items[0].0].value.dims();
        let mut buf = self.node_buf(shape.numel());
        buf.resize(shape.numel(), S::ZERO);
        for item in items {
            let it = &self.nodes[item.0].value;
            assert_eq!(it.dims(), shape, "shape mismatch in add_assign");
            for (a, &b) in buf.iter_mut().zip(it.data()) {
                *a += b;
            }
        }
        let n = S::from_f64(items.len() as f64);
        for x in &mut buf {
            *x /= n;
        }
        let ids = self.record_inputs(items);
        self.push(Tensor::from_shape_data(shape, buf), Op::MeanVecs(ids))
    }

    /// Convenience: squared error `(a - b)^2` summed to a scalar.
    pub fn squared_error(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.mul(d, d);
        self.sum(sq)
    }

    /// Run reverse-mode differentiation from a scalar `loss` node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar.
    pub fn backward(&mut self, loss: Var) {
        let _span = self.tracer.span("neural.backward");
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward() requires a scalar loss"
        );
        // Recycle gradient storage from a previous backward pass (if
        // `reset` was not called in between) and re-arm the slots. The
        // outer Vec keeps its capacity across steps.
        for stale in self.grads.drain(..).flatten() {
            let (_, data) = stale.into_parts();
            if data.capacity() > 0 {
                push_counted(&mut self.growths, &mut self.pool, data);
            }
        }
        if self.grads.capacity() < self.nodes.len() {
            self.growths += 1;
        }
        self.grads.resize(self.nodes.len(), None);
        let mut seed = self.take_buf(1);
        seed.push(S::ONE);
        self.grads[loss.0] = Some(Tensor::from_shape_data(Shape::vector(1), seed));

        for idx in (0..self.nodes.len()).rev() {
            // Take the gradient out of its slot (restored below) so the
            // hot loop never clones it. Parents always precede children
            // on the tape, so no arm can touch slot `idx`.
            let Some(g) = self.grads[idx].take() else {
                continue;
            };
            match self.nodes[idx].op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    self.bump(a, &g);
                    self.bump(b, &g);
                }
                Op::Sub(a, b) => {
                    self.bump(a, &g);
                    let neg = self.pooled_map(&g, |x| -x);
                    self.bump(b, &neg);
                    self.recycle(neg);
                }
                Op::Mul(a, b) => {
                    let da = self.pooled_zip_node(b, &g, |x, gg| x * gg);
                    let db = self.pooled_zip_node(a, &g, |x, gg| x * gg);
                    self.bump(a, &da);
                    self.bump(b, &db);
                    self.recycle(da);
                    self.recycle(db);
                }
                Op::Affine(a, alpha, _beta) => {
                    let da = self.pooled_map(&g, |x| alpha * x);
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::MatVec(w, x) => {
                    let (m, n) = {
                        let wv = &self.nodes[w].value;
                        (wv.rows(), wv.cols())
                    };
                    let dw = {
                        let mut buf = self.take_buf(m * n);
                        let xv = &self.nodes[x].value;
                        for &a in g.data() {
                            for &b in xv.data() {
                                buf.push(a * b);
                            }
                        }
                        Tensor::from_shape_data(Shape::matrix(g.len(), xv.len()), buf)
                    };
                    let dx = {
                        let mut buf = self.take_buf(n);
                        buf.resize(n, S::ZERO);
                        let wv = &self.nodes[w].value;
                        for i in 0..m {
                            let gi = g.data()[i];
                            if gi == S::ZERO {
                                continue;
                            }
                            let row = &wv.data()[i * n..(i + 1) * n];
                            for (o, &r) in buf.iter_mut().zip(row) {
                                *o += gi * r;
                            }
                        }
                        Tensor::from_shape_data(Shape::vector(n), buf)
                    };
                    self.bump(w, &dw);
                    self.bump(x, &dx);
                    self.recycle(dw);
                    self.recycle(dx);
                }
                Op::MatMulBt(x, w) => {
                    // y (m,n) = x (m,k) * w^T with w (n,k):
                    //   dx (m,k) += g (m,n) * w      (row-axpy over n)
                    //   dw (n,k) += g^T * x          (outer accumulation over m)
                    let (m, n) = (g.rows(), g.cols());
                    let k = self.nodes[w].value.cols();
                    let dx = {
                        let mut buf = self.take_buf(m * k);
                        buf.resize(m * k, S::ZERO);
                        let wv = self.nodes[w].value.data();
                        for b in 0..m {
                            let g_row = &g.data()[b * n..(b + 1) * n];
                            let out_row = &mut buf[b * k..(b + 1) * k];
                            for (j, &gj) in g_row.iter().enumerate() {
                                if gj == S::ZERO {
                                    continue;
                                }
                                let w_row = &wv[j * k..(j + 1) * k];
                                for (o, &wv_) in out_row.iter_mut().zip(w_row) {
                                    *o += gj * wv_;
                                }
                            }
                        }
                        Tensor::from_shape_data(Shape::matrix(m, k), buf)
                    };
                    let dw = {
                        let mut buf = self.take_buf(n * k);
                        buf.resize(n * k, S::ZERO);
                        let xv = self.nodes[x].value.data();
                        for b in 0..m {
                            let g_row = &g.data()[b * n..(b + 1) * n];
                            let x_row = &xv[b * k..(b + 1) * k];
                            for (j, &gj) in g_row.iter().enumerate() {
                                if gj == S::ZERO {
                                    continue;
                                }
                                let out_row = &mut buf[j * k..(j + 1) * k];
                                for (o, &xx) in out_row.iter_mut().zip(x_row) {
                                    *o += gj * xx;
                                }
                            }
                        }
                        Tensor::from_shape_data(Shape::matrix(n, k), buf)
                    };
                    self.bump(x, &dx);
                    self.bump(w, &dw);
                    self.recycle(dx);
                    self.recycle(dw);
                }
                Op::AddRows(x, bias) => {
                    let n = self.nodes[bias].value.len();
                    let db = {
                        let mut buf = self.take_buf(n);
                        buf.resize(n, S::ZERO);
                        for row in g.data().chunks_exact(n) {
                            for (o, &v) in buf.iter_mut().zip(row) {
                                *o += v;
                            }
                        }
                        Tensor::from_shape_data(Shape::vector(n), buf)
                    };
                    self.bump(x, &g);
                    self.bump(bias, &db);
                    self.recycle(db);
                }
                Op::ConcatCols(parts) => {
                    let total = g.cols();
                    let mut off = 0;
                    for i in parts.start..parts.end {
                        let p = self.inputs[i];
                        let (rows, w) = {
                            let pv = &self.nodes[p].value;
                            (pv.rows(), pv.cols())
                        };
                        let mut buf = self.take_buf(rows * w);
                        for b in 0..rows {
                            buf.extend_from_slice(&g.data()[b * total + off..b * total + off + w]);
                        }
                        let dp = Tensor::from_shape_data(Shape::matrix(rows, w), buf);
                        self.bump(p, &dp);
                        self.recycle(dp);
                        off += w;
                    }
                }
                Op::SelectRows(sources, choice) => {
                    let w = g.cols();
                    for (b, i) in (choice.start..choice.end).enumerate() {
                        let src = self.inputs[sources.start + self.choices[i] as usize];
                        self.bump_row(src, b, &g.data()[b * w..(b + 1) * w]);
                    }
                }
                Op::MaskedSoftmaxRows(a) => {
                    // Masked-out columns have y = 0, which zeroes both
                    // their contribution to gy and their own da — the
                    // regular softmax Jacobian applied row-wise suffices.
                    let (rows, cols) = (g.rows(), g.cols());
                    let da = {
                        let mut buf = self.take_buf(rows * cols);
                        for b in 0..rows {
                            let yrow = &self.nodes[idx].value.data()[b * cols..(b + 1) * cols];
                            let grow = &g.data()[b * cols..(b + 1) * cols];
                            let gy: S = yrow.iter().zip(grow).map(|(&yy, &gg)| yy * gg).sum();
                            buf.extend(yrow.iter().zip(grow).map(|(&yy, &gg)| yy * (gg - gy)));
                        }
                        Tensor::from_shape_data(Shape::matrix(rows, cols), buf)
                    };
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::WeightedSumRows(w, items) => {
                    let (bsz, t) = {
                        let wv = &self.nodes[w].value;
                        (wv.rows(), wv.cols())
                    };
                    let width = g.cols();
                    let mut dw = self.take_buf(bsz * t);
                    dw.resize(bsz * t, S::ZERO);
                    for (tt, i) in (items.start..items.end).enumerate() {
                        let item = self.inputs[i];
                        let di = {
                            let mut buf = self.take_buf(bsz * width);
                            let wv = &self.nodes[w].value;
                            for b in 0..bsz {
                                let alpha = wv.data()[b * t + tt];
                                buf.extend(
                                    g.data()[b * width..(b + 1) * width]
                                        .iter()
                                        .map(|&x| alpha * x),
                                );
                            }
                            Tensor::from_shape_data(Shape::matrix(bsz, width), buf)
                        };
                        {
                            let iv = &self.nodes[item].value;
                            for b in 0..bsz {
                                dw[b * t + tt] = iv.data()[b * width..(b + 1) * width]
                                    .iter()
                                    .zip(&g.data()[b * width..(b + 1) * width])
                                    .map(|(&x, &gg)| x * gg)
                                    .sum();
                            }
                        }
                        self.bump(item, &di);
                        self.recycle(di);
                    }
                    let dw = Tensor::from_shape_data(Shape::matrix(bsz, t), dw);
                    self.bump(w, &dw);
                    self.recycle(dw);
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for i in parts.start..parts.end {
                        let p = self.inputs[i];
                        let len = self.nodes[p].value.len();
                        let mut buf = self.take_buf(len);
                        buf.extend_from_slice(&g.data()[offset..offset + len]);
                        let slice = Tensor::from_shape_data(Shape::vector(len), buf);
                        self.bump(p, &slice);
                        self.recycle(slice);
                        offset += len;
                    }
                }
                Op::Sigmoid(a) => {
                    let da = self.pooled_zip_node(idx, &g, |yy, gg| yy * (S::ONE - yy) * gg);
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::Tanh(a) => {
                    let da = self.pooled_zip_node(idx, &g, |yy, gg| (S::ONE - yy * yy) * gg);
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::Relu(a) => {
                    let da = self.pooled_zip_node(
                        a,
                        &g,
                        |xx, gg| if xx > S::ZERO { gg } else { S::ZERO },
                    );
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::LeakyRelu(a, slope) => {
                    let da =
                        self.pooled_zip_node(
                            a,
                            &g,
                            |xx, gg| if xx > S::ZERO { gg } else { slope * gg },
                        );
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::Softmax(a) => {
                    let gy = g.dot(&self.nodes[idx].value);
                    let da = self.pooled_zip_node(idx, &g, |yy, gg| yy * (gg - gy));
                    self.bump(a, &da);
                    self.recycle(da);
                }
                Op::Sum(a) => {
                    let gv = g.item();
                    let ones = self.pooled_map_node(a, |_| gv);
                    self.bump(a, &ones);
                    self.recycle(ones);
                }
                Op::Dot(a, b) => {
                    let gv = g.item();
                    let da = self.pooled_map_node(b, |x| gv * x);
                    let db = self.pooled_map_node(a, |x| gv * x);
                    self.bump(a, &da);
                    self.bump(b, &db);
                    self.recycle(da);
                    self.recycle(db);
                }
                Op::StackScalars(parts) => {
                    for (t, i) in (parts.start..parts.end).enumerate() {
                        let p = self.inputs[i];
                        let mut buf = self.take_buf(1);
                        buf.push(g.data()[t]);
                        let s = Tensor::from_shape_data(Shape::vector(1), buf);
                        self.bump(p, &s);
                        self.recycle(s);
                    }
                }
                Op::WeightedSum(w, items) => {
                    let count = items.end - items.start;
                    let mut wvals = self.take_buf(count);
                    wvals.extend_from_slice(self.nodes[w].value.data());
                    let mut dw = self.take_buf(count);
                    dw.resize(count, S::ZERO);
                    for (t, i) in (items.start..items.end).enumerate() {
                        let item = self.inputs[i];
                        let wt = wvals[t];
                        let di = self.pooled_map(&g, |x| wt * x);
                        dw[t] = self.nodes[item].value.dot(&g);
                        self.bump(item, &di);
                        self.recycle(di);
                    }
                    let dw = Tensor::from_shape_data(Shape::vector(count), dw);
                    self.bump(w, &dw);
                    self.recycle(dw);
                    push_counted(&mut self.growths, &mut self.pool, wvals);
                }
                Op::MeanVecs(items) => {
                    let n = S::from_f64((items.end - items.start) as f64);
                    let di = self.pooled_map(&g, |x| x / n);
                    for i in items.start..items.end {
                        let item = self.inputs[i];
                        self.bump(item, &di);
                    }
                    self.recycle(di);
                }
            }
            self.grads[idx] = Some(g);
        }
    }

    fn bump(&mut self, node: usize, g: &Tensor<S>) {
        if let Some(acc) = &mut self.grads[node] {
            acc.add_assign(g);
        } else {
            let mut buf = self.take_buf(g.len());
            buf.extend_from_slice(g.data());
            self.grads[node] = Some(Tensor::from_shape_data(g.dims(), buf));
        }
    }

    /// Accumulate a gradient slice into one row of a node's gradient,
    /// materializing a zeroed accumulator on first touch (scatter-add
    /// backward of [`Tape::select_rows`]).
    fn bump_row(&mut self, node: usize, b: usize, g_row: &[S]) {
        if self.grads[node].is_none() {
            let shape = self.nodes[node].value.dims();
            let mut buf = self.take_buf(shape.numel());
            buf.resize(shape.numel(), S::ZERO);
            self.grads[node] = Some(Tensor::from_shape_data(shape, buf));
        }
        if let Some(acc) = &mut self.grads[node] {
            let w = g_row.len();
            for (o, &v) in acc.data_mut()[b * w..(b + 1) * w].iter_mut().zip(g_row) {
                *o += v;
            }
        }
    }

    /// Gradient of a node after [`Tape::backward`]. Nodes unreachable from
    /// the loss have zero gradient.
    ///
    /// # Panics
    ///
    /// Panics if `backward` has not been called.
    pub fn grad(&self, v: Var) -> Tensor<S> {
        assert!(!self.grads.is_empty(), "call backward() first");
        self.grads[v.0]
            .clone()
            .unwrap_or_else(|| self.nodes[v.0].value.zeros_like())
    }

    /// Fold parameter-leaf gradients into the store's accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `backward` has not been called.
    pub fn accumulate_param_grads(&self, store: &mut ParamStore<S>) {
        assert!(!self.grads.is_empty(), "call backward() first");
        for (id, var) in self.params.iter().enumerate() {
            if let Some(g) = var.and_then(|v| self.grads[v.0].as_ref()) {
                store.accumulate_grad(ParamId(id), g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    fn finite_diff(f: impl Fn(&[f64]) -> f64, x: &[f64]) -> Vec<f64> {
        let eps = 1e-6;
        let mut g = vec![0.0; x.len()];
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            let orig = xp[i];
            xp[i] = orig + eps;
            let fp = f(&xp);
            xp[i] = orig - eps;
            let fm = f(&xp);
            xp[i] = orig;
            g[i] = (fp - fm) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn grad_of_sum_of_squares() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, -2.0, 3.0]));
        let y = tape.mul(x, x);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &[2.0, -4.0, 6.0], 1e-12);
    }

    #[test]
    fn matvec_gradient_matches_finite_difference() {
        let w0 = vec![0.3, -0.2, 0.5, 0.1, 0.4, -0.6];
        let x0 = vec![1.0, -1.5, 0.7];
        let f = |wx: &[f64]| {
            let w = Tensor::matrix(2, 3, wx[..6].to_vec());
            let x = Tensor::from_vec(wx[6..].to_vec());
            let y = w.matvec(&x);
            y.data().iter().map(|v| v * v).sum::<f64>()
        };
        let mut joint = w0.clone();
        joint.extend_from_slice(&x0);
        let num = finite_diff(f, &joint);

        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::matrix(2, 3, w0));
        let x = tape.leaf(Tensor::from_vec(x0));
        let y = tape.matvec(w, x);
        let y2 = tape.mul(y, y);
        let loss = tape.sum(y2);
        tape.backward(loss);
        let mut ana = tape.grad(w).data().to_vec();
        ana.extend_from_slice(tape.grad(x).data());
        assert_close(&ana, &num, 1e-5);
    }

    #[test]
    fn matmul_bt_forward_matches_tensor_kernel_bitwise() {
        let x0: Vec<f64> = vec![0.3, -0.2, 0.5, 0.1, 0.4, -0.6];
        let w0: Vec<f64> = vec![1.0, -1.5, 0.7, 0.2, 0.9, -0.3];
        let xt = Tensor::matrix(2, 3, x0.clone());
        let wt = Tensor::matrix(2, 3, w0.clone());
        let expect = xt.matmul_bt(&wt);
        let mut tape = Tape::new();
        let x = tape.leaf(xt);
        let w = tape.leaf(wt);
        let y = tape.matmul_bt(x, w);
        assert_eq!(tape.value(y).shape(), &[2, 2]);
        for (a, b) in tape.value(y).data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matmul_bt_gradient_matches_finite_difference() {
        // x (2,3), w (2,3): loss = Σ (x w^T)^2.
        let flat0 = vec![
            0.3, -0.2, 0.5, 0.1, 0.4, -0.6, 1.0, -1.5, 0.7, 0.2, 0.9, -0.3,
        ];
        let f = |v: &[f64]| {
            let x = Tensor::matrix(2, 3, v[..6].to_vec());
            let w = Tensor::matrix(2, 3, v[6..].to_vec());
            x.matmul_bt(&w).data().iter().map(|y| y * y).sum::<f64>()
        };
        let num = finite_diff(f, &flat0);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::matrix(2, 3, flat0[..6].to_vec()));
        let w = tape.leaf(Tensor::matrix(2, 3, flat0[6..].to_vec()));
        let y = tape.matmul_bt(x, w);
        let sq = tape.mul(y, y);
        let loss = tape.sum(sq);
        tape.backward(loss);
        let mut ana = tape.grad(x).data().to_vec();
        ana.extend_from_slice(tape.grad(w).data());
        assert_close(&ana, &num, 1e-5);
    }

    #[test]
    fn add_rows_gradient_sums_bias_columns() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let b = tape.leaf(Tensor::from_vec(vec![10., 20., 30.]));
        let y = tape.add_rows(x, b);
        assert_eq!(tape.value(y).data(), &[11., 22., 33., 14., 25., 36.]);
        let sc = tape.leaf(Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let m = tape.mul(y, sc);
        let loss = tape.sum(m);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &[1., 2., 3., 4., 5., 6.], 1e-12);
        assert_close(tape.grad(b).data(), &[5., 7., 9.], 1e-12);
    }

    #[test]
    fn concat_cols_routes_gradients_per_column_block() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::matrix(2, 2, vec![1., 2., 3., 4.]));
        let b = tape.leaf(Tensor::matrix(2, 1, vec![5., 6.]));
        let c = tape.concat_cols(&[a, b]);
        assert_eq!(tape.value(c).shape(), &[2, 3]);
        assert_eq!(tape.value(c).data(), &[1., 2., 5., 3., 4., 6.]);
        let w = tape.leaf(Tensor::matrix(2, 3, vec![10., 20., 30., 40., 50., 60.]));
        let m = tape.mul(c, w);
        let loss = tape.sum(m);
        tape.backward(loss);
        assert_close(tape.grad(a).data(), &[10., 20., 40., 50.], 1e-12);
        assert_close(tape.grad(b).data(), &[30., 60.], 1e-12);
    }

    #[test]
    fn select_rows_gathers_and_scatters() {
        let mut tape = Tape::new();
        let s0 = tape.leaf(Tensor::matrix(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let s1 = tape.leaf(Tensor::matrix(3, 2, vec![10., 20., 30., 40., 50., 60.]));
        let y = tape.select_rows(&[s0, s1], &[1, 0, 1]);
        assert_eq!(tape.value(y).data(), &[10., 20., 3., 4., 50., 60.]);
        let w = tape.leaf(Tensor::matrix(3, 2, vec![1., 1., 2., 2., 3., 3.]));
        let m = tape.mul(y, w);
        let loss = tape.sum(m);
        tape.backward(loss);
        // Rows picked from s1 leave zero gradient on s0 and vice versa.
        assert_close(tape.grad(s0).data(), &[0., 0., 2., 2., 0., 0.], 1e-12);
        assert_close(tape.grad(s1).data(), &[1., 1., 0., 0., 3., 3.], 1e-12);
    }

    #[test]
    fn masked_softmax_rows_matches_vector_softmax_on_valid_rows() {
        let mut tape = Tape::<f64>::new();
        let x = tape.leaf(Tensor::matrix(2, 3, vec![0.5, -0.5, 1.5, 2.0, 0.0, -1.0]));
        let y = tape.masked_softmax_rows(x, &[true; 6]);
        let xv0 = tape.leaf(Tensor::from_vec(vec![0.5, -0.5, 1.5]));
        let sm0 = tape.softmax(xv0);
        for (a, b) in tape.value(y).data()[..3].iter().zip(tape.value(sm0).data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn masked_softmax_rows_handles_masks_and_empty_rows() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::matrix(
            3,
            3,
            vec![5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 7.0, 8.0, 6.0],
        ));
        // Row 0: only col 0 and 1 valid; row 1: only col 2; row 2: none.
        let mask = [true, true, false, false, false, true, false, false, false];
        let y = tape.masked_softmax_rows(x, &mask);
        let yv = tape.value(y).data().to_vec();
        // Row 0 softmaxes over {5, 1}; the masked 9 must not leak in.
        let z = (0.0f64).exp() + (-4.0f64).exp();
        assert!((yv[0] - 1.0 / z).abs() < 1e-12);
        assert!((yv[1] - (-4.0f64).exp() / z).abs() < 1e-12);
        assert_eq!(yv[2], 0.0);
        // Row 1: single valid entry is exactly 1.
        assert_eq!(yv[5], 1.0);
        // Row 2: all masked → all zeros, no NaN.
        assert_eq!(&yv[6..], &[0.0, 0.0, 0.0]);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert!(tape.grad(x).data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn masked_softmax_rows_gradient_matches_finite_difference() {
        let x0 = vec![0.5, -0.5, 1.5, 2.0, 0.3, -0.8];
        let mask = [true, true, false, true, true, true];
        let target = [0.6, 0.4, 0.0, 0.1, 0.5, 0.4];
        let f = |x: &[f64]| {
            let mut total = 0.0;
            for b in 0..2 {
                let row = &x[b * 3..(b + 1) * 3];
                let mrow = &mask[b * 3..(b + 1) * 3];
                let max = row
                    .iter()
                    .zip(mrow)
                    .filter(|(_, &m)| m)
                    .map(|(&v, _)| v)
                    .fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = row
                    .iter()
                    .zip(mrow)
                    .map(|(&v, &m)| if m { (v - max).exp() } else { 0.0 })
                    .collect();
                let z: f64 = exps.iter().sum();
                for (j, e) in exps.iter().enumerate() {
                    total += (e / z - target[b * 3 + j]).powi(2);
                }
            }
            total
        };
        let num = finite_diff(f, &x0);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::matrix(2, 3, x0));
        let y = tape.masked_softmax_rows(x, &mask);
        let t = tape.leaf(Tensor::matrix(2, 3, target.to_vec()));
        let loss = tape.squared_error(y, t);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &num, 1e-6);
    }

    #[test]
    fn weighted_sum_rows_gradient_matches_finite_difference() {
        // B=2 rows, T=2 items of width 2, plus a (2,2) weight matrix.
        let flat0 = vec![
            0.2, -0.3, 0.5, 1.0, // item 0 (2x2)
            0.8, -0.1, 0.6, 0.4, // item 1 (2x2)
            0.7, 0.3, -0.2, 0.9, // weights (2x2)
        ];
        let f = |v: &[f64]| {
            let i0 = &v[0..4];
            let i1 = &v[4..8];
            let w = &v[8..12];
            let mut total = 0.0;
            for b in 0..2 {
                for d in 0..2 {
                    let s = w[b * 2] * i0[b * 2 + d] + w[b * 2 + 1] * i1[b * 2 + d];
                    total += s * s;
                }
            }
            total
        };
        let num = finite_diff(f, &flat0);
        let mut tape = Tape::new();
        let i0 = tape.leaf(Tensor::matrix(2, 2, flat0[0..4].to_vec()));
        let i1 = tape.leaf(Tensor::matrix(2, 2, flat0[4..8].to_vec()));
        let w = tape.leaf(Tensor::matrix(2, 2, flat0[8..12].to_vec()));
        let ws = tape.weighted_sum_rows(w, &[i0, i1]);
        let sq = tape.mul(ws, ws);
        let loss = tape.sum(sq);
        tape.backward(loss);
        let mut ana = tape.grad(i0).data().to_vec();
        ana.extend_from_slice(tape.grad(i1).data());
        ana.extend_from_slice(tape.grad(w).data());
        assert_close(&ana, &num, 1e-6);
    }

    #[test]
    fn sigmoid_tanh_chain_gradient() {
        let x0 = vec![0.3, -0.8, 1.2];
        let f = |x: &[f64]| {
            x.iter()
                .map(|&v| {
                    let s = 1.0 / (1.0 + (-v).exp());
                    s.tanh()
                })
                .sum::<f64>()
        };
        let num = finite_diff(f, &x0);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(x0));
        let s = tape.sigmoid(x);
        let t = tape.tanh(s);
        let loss = tape.sum(t);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &num, 1e-6);
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let x0 = vec![0.5, -0.5, 1.5, 0.0];
        let target = [0.1, 0.2, 0.3, 0.4];
        let f = |x: &[f64]| {
            let max = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = x.iter().map(|v| (v - max).exp()).collect();
            let z: f64 = exps.iter().sum();
            exps.iter()
                .zip(&target)
                .map(|(e, t)| (e / z - t).powi(2))
                .sum::<f64>()
        };
        let num = finite_diff(f, &x0);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(x0));
        let y = tape.softmax(x);
        let t = tape.leaf(Tensor::from_vec(target.to_vec()));
        let loss = tape.squared_error(y, t);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &num, 1e-6);
    }

    #[test]
    fn concat_routes_gradients() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0]));
        let c = tape.concat(&[a, b]);
        let w = tape.leaf(Tensor::from_vec(vec![10.0, 20.0, 30.0]));
        let d = tape.mul(c, w);
        let loss = tape.sum(d);
        tape.backward(loss);
        assert_close(tape.grad(a).data(), &[10.0, 20.0], 1e-12);
        assert_close(tape.grad(b).data(), &[30.0], 1e-12);
    }

    #[test]
    fn weighted_sum_gradient_matches_finite_difference() {
        // 2 items of dim 3 + 2 weights.
        let flat0 = vec![0.2, -0.3, 0.5, 1.0, 0.8, -0.1, 0.6, 0.4];
        let f = |v: &[f64]| {
            let i0 = &v[0..3];
            let i1 = &v[3..6];
            let w = &v[6..8];
            (0..3)
                .map(|d| {
                    let s = w[0] * i0[d] + w[1] * i1[d];
                    s * s
                })
                .sum::<f64>()
        };
        let num = finite_diff(f, &flat0);
        let mut tape = Tape::new();
        let i0 = tape.leaf(Tensor::from_vec(flat0[0..3].to_vec()));
        let i1 = tape.leaf(Tensor::from_vec(flat0[3..6].to_vec()));
        let w = tape.leaf(Tensor::from_vec(flat0[6..8].to_vec()));
        let ws = tape.weighted_sum(w, &[i0, i1]);
        let sq = tape.mul(ws, ws);
        let loss = tape.sum(sq);
        tape.backward(loss);
        let mut ana = tape.grad(i0).data().to_vec();
        ana.extend_from_slice(tape.grad(i1).data());
        ana.extend_from_slice(tape.grad(w).data());
        assert_close(&ana, &num, 1e-6);
    }

    #[test]
    fn mean_vecs_gradient_is_uniform() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![2.0, 4.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0, 0.0]));
        let m = tape.mean_vecs(&[a, b]);
        let loss = tape.sum(m);
        tape.backward(loss);
        assert_close(tape.grad(a).data(), &[0.5, 0.5], 1e-12);
        assert_close(tape.grad(b).data(), &[0.5, 0.5], 1e-12);
    }

    #[test]
    fn stack_scalars_and_dot_gradients() {
        let mut tape = Tape::new();
        let s1 = tape.leaf(Tensor::scalar(2.0));
        let s2 = tape.leaf(Tensor::scalar(-1.0));
        let v = tape.stack_scalars(&[s1, s2]);
        let w = tape.leaf(Tensor::from_vec(vec![3.0, 5.0]));
        let loss = tape.dot(v, w);
        tape.backward(loss);
        assert_close(tape.grad(s1).data(), &[3.0], 1e-12);
        assert_close(tape.grad(s2).data(), &[5.0], 1e-12);
        assert_close(tape.grad(w).data(), &[2.0, -1.0], 1e-12);
    }

    #[test]
    fn param_reuse_accumulates_gradient() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        let mut tape = Tape::new();
        let w1 = tape.param(&store, id);
        let w2 = tape.param(&store, id);
        assert_eq!(w1, w2, "same param yields same node");
        let prod = tape.mul(w1, w2); // w^2
        let loss = tape.sum(prod);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // d(w^2)/dw = 2w.
        assert_close(store.grad(id).data(), &[2.0, 4.0], 1e-12);
    }

    #[test]
    fn leaky_relu_gradient() {
        let x0 = vec![1.0, -2.0];
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(x0));
        let y = tape.leaky_relu(x, 0.1);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &[1.0, 0.1], 1e-12);
    }

    #[test]
    fn affine_gradient_scales() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0]));
        let y = tape.affine(x, -1.0, 1.0); // 1 - x
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_close(tape.grad(x).data(), &[-1.0, -1.0], 1e-12);
        assert_eq!(tape.value(y).data(), &[0.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_vector_loss() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0]));
        tape.backward(x);
    }

    /// A reused (reset-between-steps) tape must produce bit-identical
    /// values and gradients to a fresh tape per step: pooling recycles
    /// allocations, never arithmetic.
    #[test]
    fn reset_tape_matches_fresh_tape_bitwise() {
        let mut store = ParamStore::new();
        let w_id = store.add(
            "w",
            Tensor::matrix(2, 3, vec![0.3, -0.2, 0.5, 0.1, 0.4, -0.6]),
        );
        let b_id = store.add("b", Tensor::from_vec(vec![0.05, -0.9]));

        let inputs: Vec<Vec<f64>> = vec![
            vec![1.0, -1.5, 0.7],
            vec![0.2, 0.9, -0.3],
            vec![-2.0, 0.0, 1.25],
        ];
        // One step of the little model: loss = Σ softmax(tanh(Wx + b))^2.
        let run = |tape: &mut Tape, store: &ParamStore, x0: &[f64]| -> (f64, Tensor, Tensor) {
            let w = tape.param(store, w_id);
            let b = tape.param(store, b_id);
            let x = tape.leaf(Tensor::from_vec(x0.to_vec()));
            let wx = tape.matvec(w, x);
            let pre = tape.add(wx, b);
            let t = tape.tanh(pre);
            let sm = tape.softmax(t);
            let sq = tape.mul(sm, sm);
            let loss = tape.sum(sq);
            tape.backward(loss);
            (tape.value(loss).item(), tape.grad(w), tape.grad(b))
        };

        let mut reused = Tape::new();
        for x0 in &inputs {
            reused.reset();
            let (loss_r, gw_r, gb_r) = run(&mut reused, &store, x0);
            let mut fresh = Tape::new();
            let (loss_f, gw_f, gb_f) = run(&mut fresh, &store, x0);
            assert_eq!(loss_r.to_bits(), loss_f.to_bits());
            for (a, b) in gw_r.data().iter().zip(gw_f.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in gb_r.data().iter().zip(gb_f.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let before = reused.pooled_buffers();
        reused.reset();
        assert!(
            reused.pooled_buffers() > before,
            "reset harvests gradient buffers into the pool"
        );
    }

    /// A forward through every op kind, its multi-input ops' index lists
    /// and masks included, on parameters and pooled leaves.
    fn every_op_forward(tape: &mut Tape, store: &ParamStore, w_id: ParamId, shift: f64) -> Var {
        let w = tape.param(store, w_id);
        let x = tape.leaf_from_iter(Shape::matrix(2, 3), (0..6).map(|i| i as f64 * 0.25 - shift));
        let h = tape.matmul_bt(x, w);
        let bias = tape.leaf_from_iter(Shape::vector(3), [0.5, -0.5, shift]);
        let h = tape.add_rows(h, bias);
        let h = tape.tanh(h);
        let g = tape.sigmoid(h);
        let cat = tape.concat_cols(&[h, g]);
        let picked = tape.select_rows(&[h, g], &[1, 0]);
        let scores = tape.matmul_bt(g, w);
        let att = tape.masked_softmax_rows(scores, &[true, false, true, true, true, true]);
        let mixed = tape.weighted_sum_rows(att, &[picked, h, g]);
        let r = tape.relu(mixed);
        let l = tape.leaky_relu(r, 0.1);
        let v = tape.leaf_from_iter(Shape::vector(3), [shift, 1.0, -0.5]);
        let wv = tape.matvec(l, v);
        let sm = tape.softmax(wv);
        let s0 = tape.sum(sm);
        let s1 = tape.dot(sm, wv);
        let st = tape.stack_scalars(&[s0, s1]);
        let ws = tape.weighted_sum(st, &[wv, sm]);
        let mv = tape.mean_vecs(&[ws, wv]);
        let c = tape.concat(&[mv, ws]);
        let a = tape.affine(c, 2.0, -1.0);
        let m = tape.mul(a, c);
        let d = tape.sub(m, c);
        let e = tape.add(d, c);
        let total = tape.sum(e);
        let side = tape.sum(cat);
        tape.add(total, side)
    }

    /// Once a tape has run a forward at some shape, `reset` and the same
    /// forward again grow no storage, and give the same bits as a fresh
    /// tape.
    #[test]
    fn warm_forward_grows_no_storage() {
        let mut store = ParamStore::new();
        let w_id = store.add(
            "w",
            Tensor::matrix(3, 3, vec![0.3, -0.2, 0.5, 0.1, 0.4, -0.6, 0.2, 0.2, -0.1]),
        );
        let mut tape = Tape::new();
        for shift in [0.0, 0.3] {
            tape.reset();
            every_op_forward(&mut tape, &store, w_id, shift);
        }
        let warm = tape.heap_growths();
        assert!(warm > 0, "a cold tape allocates");
        for shift in [0.7, -1.1] {
            tape.reset();
            let out = every_op_forward(&mut tape, &store, w_id, shift);
            assert_eq!(tape.heap_growths(), warm, "warm forward at shift {shift}");
            let mut fresh = Tape::new();
            let want = every_op_forward(&mut fresh, &store, w_id, shift);
            assert_eq!(
                tape.value(out).item().to_bits(),
                fresh.value(want).item().to_bits()
            );
        }
    }

    #[test]
    fn unreachable_nodes_have_zero_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0]));
        let y = tape.leaf(Tensor::from_vec(vec![5.0]));
        let loss = tape.sum(x);
        tape.backward(loss);
        assert_eq!(tape.grad(y).data(), &[0.0]);
    }

    #[test]
    fn f32_tape_runs_the_same_graph() {
        let mut tape = Tape::<f32>::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0f32, -2.0, 3.0]));
        let y = tape.mul(x, x);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).data(), &[2.0f32, -4.0, 6.0]);
    }
}

//! A minimal dense tensor over a [`Scalar`] element type (`f64` by
//! default, `f32` for the batched training path), sufficient for the
//! small recurrent GNNs of the paper (vectors and matrices; no
//! broadcasting).

use crate::scalar::Scalar;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// The shape of a [`Tensor`]: rank 1 (`[n]`) or rank 2 (`[rows, cols]`),
/// stored inline so that making, copying or dropping a tensor's shape
/// never touches the heap. It dereferences to the `&[usize]` view that
/// [`Tensor::shape`] returns and serializes as that same list.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// `[n, 0]` for a vector, `[rows, cols]` for a matrix; the unused
    /// trailing dimension is always `0` so the derived equality is exact.
    dims: [usize; 2],
    rank: u8,
}

impl Shape {
    /// The shape `[n]` of a length-`n` vector.
    pub const fn vector(n: usize) -> Self {
        Self {
            dims: [n, 0],
            rank: 1,
        }
    }

    /// The shape `[rows, cols]` of a row-major matrix.
    pub const fn matrix(rows: usize, cols: usize) -> Self {
        Self {
            dims: [rows, cols],
            rank: 2,
        }
    }

    /// Number of elements a tensor of this shape holds.
    pub fn numel(&self) -> usize {
        self.iter().product()
    }
}

impl Deref for Shape {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.dims[..usize::from(self.rank)]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<usize>> for Shape {
    /// # Panics
    ///
    /// Panics unless `dims` has one or two entries: those are the only
    /// ranks a [`Tensor`] supports.
    fn from(dims: Vec<usize>) -> Self {
        assert!(
            matches!(dims.len(), 1 | 2),
            "unsupported tensor rank {} in shape {dims:?}",
            dims.len()
        );
        match *dims {
            [rows, cols] => Self::matrix(rows, cols),
            _ => Self::vector(dims[0]),
        }
    }
}

impl Serialize for Shape {
    fn to_value(&self) -> serde::Value {
        (**self).to_value()
    }
}

impl Deserialize for Shape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match *Vec::<usize>::from_value(v)? {
            [n] => Ok(Self::vector(n)),
            [rows, cols] => Ok(Self::matrix(rows, cols)),
            ref dims => Err(serde::Error::custom(format!(
                "tensor shape {dims:?} has rank {}, expected 1 or 2",
                dims.len()
            ))),
        }
    }
}

/// A dense tensor: a flat buffer plus a shape.
///
/// Supported ranks are 1 (vectors) and 2 (row-major matrices); that covers
/// every operation ChainNet needs. All arithmetic helpers panic on shape
/// mismatch — shape errors are programming bugs, not runtime conditions.
///
/// The element type defaults to `f64`, the reference arithmetic used by
/// gradcheck and the golden tests; `Tensor<f32>` runs the same kernels
/// with twice the SIMD width for batched training.
///
/// # Examples
///
/// ```
/// use chainnet_neural::tensor::Tensor;
///
/// let v = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
/// assert_eq!(v.len(), 3);
/// let m = Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]);
/// let mv = m.matvec(&v);
/// assert_eq!(mv.data(), &[14.0, 32.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<S: Scalar = f64> {
    shape: Shape,
    data: Vec<S>,
}

impl<S: Scalar> Tensor<S> {
    /// A vector tensor from raw data.
    pub fn from_vec(data: Vec<S>) -> Self {
        Self {
            shape: Shape::vector(data.len()),
            data,
        }
    }

    /// A vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Self::from_vec(vec![S::ZERO; n])
    }

    /// A scalar tensor (shape `[1]`).
    pub fn scalar(x: S) -> Self {
        Self::from_vec(vec![x])
    }

    /// A row-major `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn matrix(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Self {
            shape: Shape::matrix(rows, cols),
            data,
        }
    }

    /// A `rows x cols` matrix of zeros.
    pub fn zeros_matrix(rows: usize, cols: usize) -> Self {
        Self::matrix(rows, cols, vec![S::ZERO; rows * cols])
    }

    /// A zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self {
            shape: self.shape,
            data: vec![S::ZERO; self.data.len()],
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The shape as an inline, `Copy` value.
    pub fn dims(&self) -> Shape {
        self.shape
    }

    /// The flat data buffer.
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable access to the flat data buffer.
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> S {
        assert_eq!(
            self.data.len(),
            1,
            "item() on non-scalar of len {}",
            self.data.len()
        );
        self.data[0]
    }

    /// Whether this is a rank-2 tensor.
    pub fn is_matrix(&self) -> bool {
        self.shape.rank == 2
    }

    /// Rows of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a matrix.
    pub fn rows(&self) -> usize {
        assert!(self.is_matrix(), "rows() on non-matrix");
        self.shape[0]
    }

    /// Columns of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a matrix.
    pub fn cols(&self) -> usize {
        assert!(self.is_matrix(), "cols() on non-matrix");
        self.shape[1]
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `(m, n)` and `x` has length `n`.
    pub fn matvec(&self, x: &Tensor<S>) -> Tensor<S> {
        assert!(self.is_matrix(), "matvec on non-matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(x.len(), n, "matvec: matrix cols {n} != vec len {}", x.len());
        let mut out = vec![S::ZERO; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * n..(i + 1) * n];
            *o = row.iter().zip(&x.data).map(|(&a, &b)| a * b).sum();
        }
        Tensor::from_vec(out)
    }

    /// Outer product `x * y^T` as an `(x.len, y.len)` matrix.
    pub fn outer(x: &Tensor<S>, y: &Tensor<S>) -> Tensor<S> {
        let mut data = Vec::with_capacity(x.len() * y.len());
        for &a in &x.data {
            for &b in &y.data {
                data.push(a * b);
            }
        }
        Tensor::matrix(x.len(), y.len(), data)
    }

    /// Elementwise binary map.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor<S>, f: impl Fn(S, S) -> S) -> Tensor<S> {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip_map");
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise unary map.
    pub fn map(&self, f: impl Fn(S) -> S) -> Tensor<S> {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// In-place elementwise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor<S>) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaled accumulation `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: S, other: &Tensor<S>) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Dot product of two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dot(&self, other: &Tensor<S>) -> S {
        assert_eq!(self.len(), other.len(), "length mismatch in dot");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> S {
        self.data.iter().copied().sum()
    }

    /// Concatenate vectors.
    pub fn concat(parts: &[&Tensor<S>]) -> Tensor<S> {
        let mut data = Vec::with_capacity(parts.iter().map(|t| t.len()).sum());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(data)
    }

    /// A tensor from an explicit shape and flat buffer, reusing the
    /// buffer's allocation (the tape's gradient pool depends on this).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_shape_data(shape: impl Into<Shape>, data: Vec<S>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Self { shape, data }
    }

    /// Decompose into `(shape, data)`, surrendering the data allocation.
    pub fn into_parts(self) -> (Shape, Vec<S>) {
        (self.shape, self.data)
    }

    /// Convert every element to another scalar type through `f64`.
    ///
    /// `f64 -> f64` and `f32 -> f32` are the identity; `f32 -> f64` is
    /// exact; `f64 -> f32` rounds to nearest. Used to move parameter
    /// stores between the training dtype and the `f64` reference path.
    pub fn cast<T: Scalar>(&self) -> Tensor<T> {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| T::from_f64(x.to_f64())).collect(),
        }
    }

    /// Reference matrix product `self * b` via the textbook triple loop.
    ///
    /// Kept as the differential-testing oracle for [`matmul`](Self::matmul):
    /// each output element is a single ascending-`k` accumulation, which is
    /// the exact summation order the optimized kernels must reproduce.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `(m, k)` and `b` is `(k, n)`.
    pub fn matmul_naive(&self, b: &Tensor<S>) -> Tensor<S> {
        assert!(
            self.is_matrix() && b.is_matrix(),
            "matmul_naive on non-matrix"
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (bk, n) = (b.shape[0], b.shape[1]);
        assert_eq!(k, bk, "matmul_naive: inner dims {k} != {bk}");
        let mut out = vec![S::ZERO; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = S::ZERO;
                for (kk, &a) in a_row.iter().enumerate() {
                    acc += a * b.data[kk * n + j];
                }
                *o = acc;
            }
        }
        Tensor::matrix(m, n, out)
    }

    /// Matrix product with the right operand pre-transposed:
    /// `self (m, k) * bt^T` where `bt` is `(n, k)`, yielding `(m, n)`.
    ///
    /// This is the workhorse kernel: every B "column" is a contiguous
    /// row of `bt`, so the inner dot product streams both operands
    /// sequentially. The `(i, j)` space is walked in cache-sized tiles
    /// so the active rows of `bt` stay resident while a tile of A rows
    /// is swept, and each tile row is computed eight output columns
    /// (`LANES`) at a time so the FP pipeline sees independent
    /// accumulator chains. Each output element is still one ascending-`k`
    /// accumulation into a single scalar — bit-identical to
    /// [`matmul_naive`](Self::matmul_naive).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `(m, k)` and `bt` is `(n, k)`.
    // lint:zero_alloc
    pub fn matmul_bt(&self, bt: &Tensor<S>) -> Tensor<S> {
        assert!(
            self.is_matrix() && bt.is_matrix(),
            "matmul_bt on non-matrix"
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, btk) = (bt.shape[0], bt.shape[1]);
        assert_eq!(k, btk, "matmul_bt: inner dims {k} != {btk}");
        // lint:allow(alloc_hygiene): the single output buffer, sized
        // exactly once up front and amortized over O(m*n*k) work; the
        // tile loops below never allocate
        let mut out = vec![S::ZERO; m * n];
        matmul_bt_into(&self.data, &bt.data, m, k, n, &mut out);
        Tensor::matrix(m, n, out)
    }

    /// Optimized matrix product `self * b`.
    ///
    /// Packs `b` into transposed (row-contiguous columns) layout once,
    /// then runs the cache-blocked [`matmul_bt`](Self::matmul_bt) kernel.
    /// Bit-identical to [`matmul_naive`](Self::matmul_naive) — proven by
    /// the property tests in this module.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `(m, k)` and `b` is `(k, n)`.
    pub fn matmul(&self, b: &Tensor<S>) -> Tensor<S> {
        assert!(self.is_matrix() && b.is_matrix(), "matmul on non-matrix");
        let (k, n) = (b.shape[0], b.shape[1]);
        assert_eq!(
            self.shape[1], k,
            "matmul: inner dims {} != {k}",
            self.shape[1]
        );
        let mut bt = vec![S::ZERO; n * k];
        for (kk, b_row) in b.data.chunks_exact(n).enumerate() {
            for (j, &v) in b_row.iter().enumerate() {
                bt[j * k + kk] = v;
            }
        }
        self.matmul_bt(&Tensor::matrix(n, k, bt))
    }

    /// Transpose of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a matrix.
    pub fn transposed(&self) -> Tensor<S> {
        assert!(self.is_matrix(), "transposed() on non-matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![S::ZERO; n * m];
        for (i, row) in self.data.chunks_exact(n).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::matrix(n, m, out)
    }
}

/// Output columns computed together by the lane-blocked dot kernel: 8
/// independent accumulator chains hide the FP-add latency that a single
/// running sum serializes on, and give the autovectorizer/out-of-order
/// core parallel work without reassociating any individual sum.
const LANES: usize = 8;

/// The `matmul_bt` inner kernel over raw slices: `a (m, k) * bt^T`
/// where `bt` is `(n, k)` row-major, written into `out (m, n)`.
///
/// Exposed at the slice level (crate-internal) so the tape's batched
/// ops can run it into pooled buffers without constructing tensors.
/// Summation order per output element is a single ascending-`k`
/// accumulator — the bit-identity contract shared with `matmul_naive`,
/// `matvec` and the tape's `MatVec` op.
///
/// # Panics
///
/// Panics (in debug) unless the slice lengths match the given dims.
// lint:zero_alloc
pub(crate) fn matmul_bt_into<S: Scalar>(
    a: &[S],
    bt: &[S],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [S],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), m * n);

    // Wide-A path: march [`LANES`] rows of A together. A k-tile of those
    // rows is repacked into column-interleaved layout (`ap[kk][l]`, one
    // 8 KiB stack panel), so the inner loop is a contiguous LANES-wide
    // load, a broadcast of one `bt` element, and LANES independent
    // multiply-adds — a shape the autovectorizer turns into genuine
    // SIMD, unlike the lane-per-column layout whose loads straddle
    // `LANES` different rows. Each accumulator still sums its products
    // in ascending `kk` (resuming from the stored partial across
    // k-tiles, which re-reads the exact bits it wrote), so every output
    // element keeps the single ascending-`k` accumulation contract.
    const TILE_K: usize = 128;
    let mut i0 = 0;
    while i0 + LANES <= m {
        let mut ap = [S::ZERO; LANES * TILE_K];
        let mut k0 = 0;
        while k0 < k {
            let kt = TILE_K.min(k - k0);
            for kk in 0..kt {
                for (l, slot) in ap[kk * LANES..(kk + 1) * LANES].iter_mut().enumerate() {
                    *slot = a[(i0 + l) * k + k0 + kk];
                }
            }
            for j in 0..n {
                let b_row = &bt[j * k + k0..j * k + k0 + kt];
                let mut acc = [S::ZERO; LANES];
                if k0 > 0 {
                    for (l, acc_l) in acc.iter_mut().enumerate() {
                        *acc_l = out[(i0 + l) * n + j];
                    }
                }
                for (kk, &b) in b_row.iter().enumerate() {
                    let a_lanes = &ap[kk * LANES..(kk + 1) * LANES];
                    for (acc_l, &a_l) in acc.iter_mut().zip(a_lanes) {
                        *acc_l += a_l * b;
                    }
                }
                for (l, &acc_l) in acc.iter().enumerate() {
                    out[(i0 + l) * n + j] = acc_l;
                }
            }
            k0 += kt;
        }
        i0 += LANES;
    }

    // Leftover rows (m % LANES, or all of a short matrix): the
    // lane-per-column row kernel.
    for i in i0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        dot_row_block(a_row, bt, k, out_row);
    }
}

/// One output row (or tile row) of `matmul_bt_into`: dot `a_row`
/// against every length-`k` row of `bt_rows`, [`LANES`] columns at a
/// time, falling back to the single-lane [`dot_slices`] for the tail.
// lint:zero_alloc
#[inline]
fn dot_row_block<S: Scalar>(a_row: &[S], bt_rows: &[S], k: usize, out_row: &mut [S]) {
    debug_assert_eq!(bt_rows.len(), out_row.len() * k);
    let n = out_row.len();
    let mut j = 0;
    while j + LANES <= n {
        dot_lanes(
            a_row,
            &bt_rows[j * k..(j + LANES) * k],
            &mut out_row[j..j + LANES],
        );
        j += LANES;
    }
    for (o, b_row) in out_row[j..]
        .iter_mut()
        .zip(bt_rows[j * k..].chunks_exact(k))
    {
        *o = dot_slices(a_row, b_row);
    }
}

/// [`LANES`] simultaneous ascending-order dot products: one accumulator
/// per output column, all swept by a single pass over `a`. Every
/// accumulator sees exactly the summation order of [`dot_slices`] —
/// per-element bit-identical — but the chains are independent, so the
/// core retires [`LANES`] fused multiply-adds per FP-add latency
/// instead of one.
// lint:zero_alloc
#[inline]
fn dot_lanes<S: Scalar>(a: &[S], bt_rows: &[S], out: &mut [S]) {
    let k = a.len();
    debug_assert_eq!(bt_rows.len(), LANES * k);
    debug_assert_eq!(out.len(), LANES);
    let mut acc = [S::ZERO; LANES];
    // One length-`k` slice per output column: indexing them by `i < k`
    // needs no bounds check, where `bt_rows[i + l * k]` needed one per
    // multiply-add. The products and their order are unchanged.
    let rows: [&[S]; LANES] = std::array::from_fn(|l| &bt_rows[l * k..(l + 1) * k]);
    for (i, &x) in a.iter().enumerate() {
        for (acc_l, row) in acc.iter_mut().zip(&rows) {
            *acc_l += x * row[i];
        }
    }
    out.copy_from_slice(&acc);
}

/// Ascending-order dot product of two equal-length slices: a single
/// accumulator updated left to right, matching the naive kernels' (and
/// `matvec`'s) summation order exactly.
// lint:zero_alloc
#[inline]
fn dot_slices<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

impl<S: Scalar> fmt::Display for Tensor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}{:?}", self.shape, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_known_result() {
        let m = Tensor::matrix(2, 3, vec![1., 0., 2., -1., 1., 0.]);
        let v = Tensor::from_vec(vec![1., 2., 3.]);
        assert_eq!(m.matvec(&v).data(), &[7.0, 1.0]);
    }

    #[test]
    fn outer_product_shape_and_values() {
        let x = Tensor::from_vec(vec![1., 2.]);
        let y = Tensor::from_vec(vec![3., 4., 5.]);
        let o = Tensor::outer(&x, &y);
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.data(), &[3., 4., 5., 6., 8., 10.]);
    }

    #[test]
    fn concat_joins_vectors() {
        let a = Tensor::from_vec(vec![1., 2.]);
        let b = Tensor::from_vec(vec![3.]);
        assert_eq!(Tensor::concat(&[&a, &b]).data(), &[1., 2., 3.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_rejects_mismatch() {
        let a = Tensor::from_vec(vec![1.]);
        let b = Tensor::from_vec(vec![1., 2.]);
        let _ = a.zip_map(&b, |x, y| x + y);
    }

    #[test]
    #[should_panic(expected = "matvec")]
    fn matvec_rejects_bad_length() {
        let m = Tensor::matrix(2, 3, vec![0.0; 6]);
        let v = Tensor::from_vec(vec![1., 2.]);
        let _ = m.matvec(&v);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(4.25).item(), 4.25);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::from_vec(vec![1., 1.]);
        a.add_scaled(2.0, &Tensor::from_vec(vec![1., 3.]));
        assert_eq!(a.data(), &[3., 7.]);
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::matrix(2, 2, vec![1., 2., 3., 4.]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn f32_kernels_match_f64_within_tolerance() {
        // Same pseudo-random inputs through both dtypes; the f32 result
        // must track the f64 reference to f32 rounding accuracy.
        let k = 37;
        let (m, n) = (5, 13);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a64: Vec<f64> = (0..m * k).map(|_| next()).collect();
        let b64: Vec<f64> = (0..n * k).map(|_| next()).collect();
        let a32: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b64.iter().map(|&x| x as f32).collect();
        let y64 = Tensor::matrix(m, k, a64).matmul_bt(&Tensor::matrix(n, k, b64));
        let y32 = Tensor::<f32>::matrix(m, k, a32).matmul_bt(&Tensor::matrix(n, k, b32));
        for (&a, &b) in y64.data().iter().zip(y32.data()) {
            assert!((a - f64::from(b)).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn cast_round_trip_f64_is_identity() {
        let t = Tensor::matrix(2, 2, vec![1.5, -2.25, 3.0, 0.1]);
        let back: Tensor<f64> = t.cast::<f32>().cast();
        // 1.5/-2.25/3.0 are exact in f32; 0.1 is not.
        assert_eq!(back.data()[0], 1.5);
        assert_eq!(back.data()[1], -2.25);
        assert!((back.data()[3] - 0.1).abs() < 1e-7);
        let exact: Tensor<f64> = t.cast::<f64>();
        assert_eq!(exact, t);
    }
}

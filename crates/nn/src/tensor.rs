//! Row-major `f32` matrices and the linear algebra the layers need.
//!
//! Batch-first convention throughout: a `(batch × features)` matrix holds
//! one sample per row.
//!
//! # Allocation-free execution model
//!
//! Every op the training loop touches has an out-parameter (`*_into`) or
//! in-place (`*_assign` / `*_inplace`) variant writing into a
//! caller-provided buffer — usually borrowed from a
//! [`crate::workspace::Workspace`] — so the steady-state loop performs no
//! per-op heap allocations. The allocating methods (`matmul`, `add`, …)
//! remain as thin wrappers for cold paths and tests.
//!
//! # Kernels
//!
//! - [`Matrix::matmul_into`] — `C = A·B`, k-tiled (`KC`-sized panels of B
//!   stay cache-resident across a block of output rows) and row-parallel
//!   over rayon above a flop threshold. Accumulation order over `k` is
//!   ascending for every output element regardless of tiling or thread
//!   count, so all paths produce identical bits.
//! - [`Matrix::matmul_transb_into`] — `C = A·Bᵀ` as row-dot-row products.
//!   This is the pre-transposed weight access pattern: `B` (a layer's
//!   row-major weight matrix) is read along its rows, so the backward
//!   pass needs no materialised transpose and no packed copy.
//! - [`Matrix::matmul_transa_acc`] — `C += Aᵀ·B` as a sequence of rank-1
//!   updates (ascending sample index), the gradient-accumulation kernel.
//! - [`Matrix::affine_into`] — fused `pre = X·W + b`, `out = act(pre)` in
//!   one pass (the whole Dense forward).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::{with_activation, Activation};

/// Flop threshold above which matmul kernels dispatch row blocks to
/// rayon. Batches in this project are small (32), so training matmuls
/// stay serial; full-track inference (thousands of rows) parallelises.
const PAR_WORK: usize = 1 << 18;

/// k-dimension tile: a `KC × n` panel of B stays cache-resident while a
/// block of output rows accumulates against it.
const KC: usize = 256;

/// `out = a·b` over raw row-major slices (`m×k · k×n`), k-tiled and
/// 4-row register-blocked (one B-row load feeds four output rows, which
/// is what keeps the axpy kernel from being load/store-bound). `row0` is
/// the global row offset of `out_blk` (for the rayon path). Per output
/// element the accumulation stays a single ascending-`k` chain, so the
/// blocked kernel is bit-identical to the naive triple loop.
fn gemm_serial(a: &[f32], b: &[f32], out_blk: &mut [f32], row0: usize, k: usize, n: usize) {
    let m_blk = out_blk.len().checked_div(n).unwrap_or(0);
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        let mut ri = 0;
        while ri + 4 <= m_blk {
            let r = row0 + ri;
            let a0 = &a[r * k + k0..r * k + k1];
            let a1 = &a[(r + 1) * k + k0..(r + 1) * k + k1];
            let a2 = &a[(r + 2) * k + k0..(r + 2) * k + k1];
            let a3 = &a[(r + 3) * k + k0..(r + 3) * k + k1];
            let rows = &mut out_blk[ri * n..(ri + 4) * n];
            let (c0, rest) = rows.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            for kk in 0..k1 - k0 {
                let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                    continue;
                }
                let b_row = &b[(k0 + kk) * n..(k0 + kk) * n + n];
                for ((((o0, o1), o2), o3), &bv) in c0
                    .iter_mut()
                    .zip(c1.iter_mut())
                    .zip(c2.iter_mut())
                    .zip(c3.iter_mut())
                    .zip(b_row)
                {
                    *o0 += v0 * bv;
                    *o1 += v1 * bv;
                    *o2 += v2 * bv;
                    *o3 += v3 * bv;
                }
            }
            ri += 4;
        }
        while ri < m_blk {
            let r = row0 + ri;
            let a_row = &a[r * k + k0..r * k + k1];
            let out_row = &mut out_blk[ri * n..(ri + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[(k0 + kk) * n..(k0 + kk) * n + n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
            ri += 1;
        }
    }
}

/// `out = a·b` with the parallel/serial dispatch. `out` must be zeroed.
fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m * k * n >= PAR_WORK && m > 1 {
        use rayon::prelude::*;
        // One row block per pool block (four per thread), each a multiple
        // of 4 rows, so every row is summed in the same 4-row group as in
        // the serial kernel.
        let rows_per = m
            .div_ceil(4 * rayon::current_num_threads())
            .next_multiple_of(4);
        out.par_chunks_mut(rows_per * n)
            .enumerate()
            .for_each(|(blk, out_blk)| gemm_serial(a, b, out_blk, blk * rows_per, k, n));
    } else {
        gemm_serial(a, b, out, 0, k, n);
    }
}

/// `out (ka×n) += aᵀ·b` over raw slices (`a: m×ka`, `b: m×n`): one rank-1
/// update per sample row, 4-sample register-blocked (the out row is
/// loaded/stored once per four samples). Per element the adds stay an
/// ascending-sample chain, bit-identical to the one-sample-at-a-time
/// version.
fn transa_acc_impl(a: &[f32], m: usize, ka: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut r = 0;
    while r + 4 <= m {
        let a0 = &a[r * ka..(r + 1) * ka];
        let a1 = &a[(r + 1) * ka..(r + 2) * ka];
        let a2 = &a[(r + 2) * ka..(r + 3) * ka];
        let a3 = &a[(r + 3) * ka..(r + 4) * ka];
        let b0 = &b[r * n..(r + 1) * n];
        let b1 = &b[(r + 1) * n..(r + 2) * n];
        let b2 = &b[(r + 2) * n..(r + 3) * n];
        let b3 = &b[(r + 3) * n..(r + 4) * n];
        for i in 0..ka {
            let (v0, v1, v2, v3) = (a0[i], a1[i], a2[i], a3[i]);
            if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for ((((o, &x0), &x1), &x2), &x3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                let mut s = *o;
                s += v0 * x0;
                s += v1 * x1;
                s += v2 * x2;
                s += v3 * x3;
                *o = s;
            }
        }
        r += 4;
    }
    while r < m {
        let a_row = &a[r * ka..(r + 1) * ka];
        let b_row = &b[r * n..(r + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        r += 1;
    }
}

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row-major data; length must equal `rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds from a nested row representation (test convenience).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Glorot-uniform initialisation: `U(±sqrt(6/(fan_in+fan_out)))`.
    pub fn glorot<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, yielding its backing buffer (capacity kept —
    /// the [`crate::workspace::Workspace`] recycling hook).
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes in place to `rows × cols`, zero-filled, reusing the
    /// backing buffer's capacity (no allocation when it suffices).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Becomes a copy of `other`, reusing capacity.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other` (allocating wrapper over
    /// [`Matrix::matmul_into`]).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self · other`; `out` is reshaped to `rows × other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.resize(self.rows, other.cols);
        gemm_into(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Reinterprets the buffer as `rows × cols` without copying
    /// (`rows·cols` must equal the current element count) — the zero-copy
    /// bridge between a `(batch × seq·feat)` flattened sequence and its
    /// `(batch·seq × feat)` stacked-timestep view (row `r·seq + t` is
    /// sample `r` at step `t`).
    pub fn reshape_in_place(&mut self, rows: usize, cols: usize) {
        assert_eq!(rows * cols, self.data.len(), "reshape element count");
        self.rows = rows;
        self.cols = cols;
    }

    /// `out = reshape(self, m×k) · other` — runs the matmul kernel on a
    /// zero-copy reinterpretation of the buffer.
    pub fn matmul_reshape_into(&self, m: usize, k: usize, other: &Matrix, out: &mut Matrix) {
        assert_eq!(m * k, self.data.len(), "reshape element count");
        assert_eq!(k, other.rows, "matmul shape mismatch");
        out.resize(m, other.cols);
        gemm_into(&self.data, &other.data, &mut out.data, m, k, other.cols);
    }

    /// `out += reshape(self, m×k)ᵀ · other` — the gradient-accumulation
    /// kernel over a zero-copy reinterpretation of the buffer.
    pub fn matmul_reshape_transa_acc(&self, m: usize, k: usize, other: &Matrix, out: &mut Matrix) {
        assert_eq!(m * k, self.data.len(), "reshape element count");
        assert_eq!(m, other.rows, "matmul_transa shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (k, other.cols),
            "matmul_transa output shape mismatch"
        );
        transa_acc_impl(&self.data, m, k, &other.data, other.cols, &mut out.data);
    }

    /// `out = self · otherᵀ` without any transposed copy: both operands
    /// are read along their rows (row-dot-row). The horizontal reduction
    /// cannot autovectorise, so the hot paths prefer a pre-transposed
    /// weight cache plus [`Matrix::matmul_into`] (measured ~5× faster);
    /// this kernel remains for one-shot products where materialising a
    /// transpose isn't worth it.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        out.resize(m, n);
        let a = &self.data;
        let b = &other.data;
        let body = |(r, out_row): (usize, &mut [f32])| {
            let a_row = &a[r * k..(r + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut s = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    s += av * bv;
                }
                *o = s;
            }
        };
        if m * k * n >= PAR_WORK && m > 1 {
            use rayon::prelude::*;
            out.data.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(n).enumerate().for_each(body);
        }
    }

    /// `out += selfᵀ · other` — the gradient-accumulation kernel: one
    /// rank-1 update per sample row, ascending, streaming both operands
    /// row-major. `out` must already be `self.cols × other.cols`.
    pub fn matmul_transa_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_transa shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_transa output shape mismatch"
        );
        transa_acc_impl(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Fused dense forward: `pre = self·w + bias` (broadcast) and
    /// `out = act(pre)` in one pass. `pre` keeps the biased
    /// pre-activations the backward pass needs.
    pub fn affine_into(
        &self,
        w: &Matrix,
        bias: &Matrix,
        act: Activation,
        pre: &mut Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "bias width mismatch");
        self.matmul_into(w, pre);
        out.resize(pre.rows, pre.cols);
        let n = pre.cols;
        with_activation!(act, f => {
            for (pre_row, out_row) in pre.data.chunks_mut(n).zip(out.data.chunks_mut(n)) {
                for ((p, o), &bv) in pre_row.iter_mut().zip(out_row).zip(&bias.data) {
                    *p += bv;
                    *o = f(*p);
                }
            }
        });
    }

    /// Transpose (allocating wrapper over [`Matrix::transpose_into`]).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// `out = selfᵀ`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a row vector (1 × cols) to every row — bias broadcast.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// In-place bias broadcast: `self[r] += bias` for every row.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Elementwise product (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.hadamard_assign(other);
        out
    }

    /// `self *= other` elementwise.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales by a constant.
    pub fn scale(&self, k: f32) -> Matrix {
        self.map(|v| v * k)
    }

    /// Column sums as a 1 × cols row vector (bias gradients).
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sum_acc(&mut out);
        out
    }

    /// `out += column sums of self`; `out` must be `1 × cols`.
    pub fn col_sum_acc(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (1, self.cols),
            "col_sum output shape mismatch"
        );
        for row in self.data.chunks(self.cols) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Takes columns `[from, to)` as a new matrix (time-step slicing for
    /// the LSTM's flattened sequence input).
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, to.saturating_sub(from));
        self.slice_cols_into(from, to, &mut out);
        out
    }

    /// `out = self[:, from..to]`.
    pub fn slice_cols_into(&self, from: usize, to: usize, out: &mut Matrix) {
        assert!(from <= to && to <= self.cols, "column slice out of range");
        let w = to - from;
        out.resize(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + from..r * self.cols + to]);
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Naive triple-loop reference (ascending-k accumulation) — the
    /// oracle every production kernel is checked against bit-for-bit.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows());
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(r, k) * b.get(k, c);
                }
                out.set(r, c, s);
            }
        }
        out
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let mut id = Matrix::zeros(3, 3);
        for i in 0..3 {
            id.set(i, i, 1.0);
        }
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_parallel_path_matches_serial() {
        // Big enough to cross the rayon threshold.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::glorot(80, 70, &mut rng);
        let b = Matrix::glorot(70, 60, &mut rng);
        let big = a.matmul(&b); // 80*70*60 = 336k > 2^18
        let refc = naive_matmul(&a, &b);
        // Ascending-k accumulation at any tiling/thread count: identical
        // bits, not merely close.
        assert_eq!(big, refc);
    }

    #[test]
    fn matmul_into_reuses_capacity_bit_exactly() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let a = Matrix::glorot(7, 5, &mut rng);
        let b = Matrix::glorot(5, 9, &mut rng);
        let mut out = Matrix::zeros(100, 100); // oversized: must shrink in place
        a.matmul_into(&b, &mut out);
        assert_eq!(out, naive_matmul(&a, &b));
        // Second call into the warm buffer: same bits again.
        a.matmul_into(&b, &mut out);
        assert_eq!(out, naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_transb_matches_materialised_transpose() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let a = Matrix::glorot(6, 11, &mut rng);
        let b = Matrix::glorot(8, 11, &mut rng); // b: n×k, we want a·bᵀ
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transb_into(&b, &mut out);
        assert_eq!(out, naive_matmul(&a, &b.transpose()));
    }

    #[test]
    fn matmul_transa_acc_matches_materialised_transpose() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let a = Matrix::glorot(9, 5, &mut rng);
        let b = Matrix::glorot(9, 7, &mut rng);
        let mut out = Matrix::zeros(5, 7);
        a.matmul_transa_acc(&b, &mut out);
        assert_eq!(out, naive_matmul(&a.transpose(), &b));
        // Accumulation: a second call adds the product again.
        a.matmul_transa_acc(&b, &mut out);
        let twice = naive_matmul(&a.transpose(), &b);
        for (x, y) in out.data().iter().zip(twice.data()) {
            assert!((x - 2.0 * y).abs() < 1e-5);
        }
    }

    #[test]
    fn affine_into_matches_unfused_ops() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let x = Matrix::glorot(4, 6, &mut rng);
        let w = Matrix::glorot(6, 3, &mut rng);
        let b = Matrix::glorot(1, 3, &mut rng);
        for act in [Activation::Elu, Activation::Relu, Activation::Linear] {
            let mut pre = Matrix::zeros(0, 0);
            let mut out = Matrix::zeros(0, 0);
            x.affine_into(&w, &b, act, &mut pre, &mut out);
            let ref_pre = x.matmul(&w).add_row_broadcast(&b);
            let ref_out = ref_pre.map(|v| act.apply(v));
            assert_eq!(pre, ref_pre, "{act:?} pre-activations");
            assert_eq!(out, ref_out, "{act:?} outputs");
        }
    }

    #[test]
    fn assign_variants_match_allocating_ops() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let a = Matrix::glorot(5, 4, &mut rng);
        let b = Matrix::glorot(5, 4, &mut rng);
        let bias = Matrix::glorot(1, 4, &mut rng);

        let mut x = a.clone();
        x.add_assign(&b);
        assert_eq!(x, a.add(&b));

        let mut x = a.clone();
        x.hadamard_assign(&b);
        assert_eq!(x, a.hadamard(&b));

        let mut x = a.clone();
        x.add_row_broadcast_assign(&bias);
        assert_eq!(x, a.add_row_broadcast(&bias));

        let mut x = a.clone();
        x.map_inplace(f32::abs);
        assert_eq!(x, a.map(f32::abs));

        let mut t = Matrix::zeros(0, 0);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut s = Matrix::zeros(1, 4);
        a.col_sum_acc(&mut s);
        assert_eq!(s, a.col_sum());

        let mut c = Matrix::zeros(0, 0);
        a.slice_cols_into(1, 3, &mut c);
        assert_eq!(c, a.slice_cols(1, 3));
    }

    #[test]
    fn reshape_kernels_match_explicit_restack() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let (batch, seq, feat) = (3usize, 4usize, 2usize);
        let x = Matrix::glorot(batch, seq * feat, &mut rng); // flattened sequence
        let w = Matrix::glorot(feat, 5, &mut rng);
        // Explicit restack: row r·seq + t = sample r, step t.
        let mut stacked = Matrix::zeros(batch * seq, feat);
        for r in 0..batch {
            for t in 0..seq {
                for j in 0..feat {
                    stacked.set(r * seq + t, j, x.get(r, t * feat + j));
                }
            }
        }
        let mut a = Matrix::zeros(0, 0);
        x.matmul_reshape_into(batch * seq, feat, &w, &mut a);
        assert_eq!(a, naive_matmul(&stacked, &w));

        let d = Matrix::glorot(batch * seq, 5, &mut rng);
        let mut acc1 = Matrix::zeros(feat, 5);
        x.matmul_reshape_transa_acc(batch * seq, feat, &d, &mut acc1);
        assert_eq!(acc1, naive_matmul(&stacked.transpose(), &d));

        let mut y = a.clone();
        y.reshape_in_place(batch, seq * 5);
        assert_eq!(y.rows(), batch);
        assert_eq!(y.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_and_colsum_are_inverse_shapes() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(x.col_sum().data(), &[4.0, 6.0]);
    }

    #[test]
    fn slice_cols_extracts_timesteps() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]);
        let t1 = x.slice_cols(2, 4);
        assert_eq!(t1.data(), &[3.0, 4.0, 7.0, 8.0]);
        assert_eq!(t1.rows(), 2);
    }

    #[test]
    fn glorot_is_bounded_and_seeded() {
        let mut rng1 = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let a = Matrix::glorot(20, 30, &mut rng1);
        let b = Matrix::glorot(20, 30, &mut rng2);
        assert_eq!(a, b);
        let limit = (6.0 / 50.0f32).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= limit));
        // Not all zero.
        assert!(a.norm() > 0.1);
    }

    #[test]
    fn map_scale_hadamard() {
        let x = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(x.map(f32::abs).data(), &[1.0, 2.0]);
        assert_eq!(x.scale(3.0).data(), &[3.0, -6.0]);
        assert_eq!(x.hadamard(&x).data(), &[1.0, 4.0]);
    }

    #[test]
    fn resize_reuses_capacity() {
        let mut m = Matrix::zeros(10, 10);
        let cap = m.data.capacity();
        m.resize(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(m.data.capacity(), cap, "shrinking keeps capacity");
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// (A·B)ᵀ == Bᵀ·Aᵀ
            #[test]
            fn transpose_of_product(seed in 0u64..100, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let a = Matrix::glorot(m, k, &mut rng);
                let b = Matrix::glorot(k, n, &mut rng);
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                for (x, y) in lhs.data().iter().zip(rhs.data()) {
                    prop_assert!((x - y).abs() < 1e-4);
                }
            }

            /// The production kernels equal the naive oracle bit-for-bit
            /// across arbitrary shapes, including k/n beyond one tile and
            /// shapes crossing the rayon threshold.
            #[test]
            fn kernels_match_naive_oracle(seed in 0u64..50, m in 1usize..40, k in 1usize..300, n in 1usize..40) {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let a = Matrix::glorot(m, k, &mut rng);
                let b = Matrix::glorot(k, n, &mut rng);
                let oracle = naive_matmul(&a, &b);

                let mut out = Matrix::zeros(0, 0);
                a.matmul_into(&b, &mut out);
                prop_assert_eq!(&out, &oracle);

                let bt = b.transpose();
                a.matmul_transb_into(&bt, &mut out);
                prop_assert_eq!(&out, &oracle);

                let at = a.transpose();
                let mut acc = Matrix::zeros(m, n);
                at.matmul_transa_acc(&b, &mut acc);
                prop_assert_eq!(&acc, &oracle);
            }
        }
    }
}

//! Layers: [`Dense`], [`Dropout`], and [`Lstm`] with full BPTT.
//!
//! Layers cache whatever the backward pass needs during `forward`, and
//! *accumulate* parameter gradients in `backward` (callers zero them
//! between steps). Gradient correctness is enforced by finite-difference
//! tests at the bottom of this module — the LSTM backward pass in
//! particular is exactly the kind of code that silently rots without one.
//!
//! # Allocation discipline
//!
//! The primary entry points are [`Layer::forward_ws`] /
//! [`Layer::backward_ws`]: transient values (layer outputs, input
//! gradients) are borrowed from the caller's
//! [`Workspace`], while long-lived caches
//! (activations kept for backward, the LSTM's packed per-sequence
//! buffers, gradient accumulators) are owned by the layer and resized in
//! place. After one warmup step nothing in the steady-state training loop
//! allocates. [`Layer::infer_ws`] is the inference forward: the same
//! kernels in the same order, so the same bits, with every intermediate
//! borrowed from the workspace and no cache written. The workspace-free
//! [`Layer::forward`] / [`Layer::backward`] remain as conveniences for
//! cold paths and tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::activation::{with_activation, Activation};
use crate::tensor::Matrix;
use crate::workspace::Workspace;

/// Common layer interface. `Send + Sync` so trained models can sit in
/// shared caches and be moved across worker threads; layers hold plain
/// data (no interior mutability).
pub trait Layer: Send + Sync {
    /// Forward pass; `training` toggles dropout and friends. The returned
    /// matrix is borrowed from `ws` — give it back when the value dies.
    fn forward_ws(&mut self, input: &Matrix, training: bool, ws: &mut Workspace) -> Matrix;
    /// Backward pass: given ∂L/∂output, accumulate parameter gradients and
    /// return ∂L/∂input (borrowed from `ws`).
    fn backward_ws(&mut self, grad_output: &Matrix, ws: &mut Workspace) -> Matrix;
    /// Inference forward: the same kernels in the same order as
    /// `forward_ws(input, false, ws)`, so the same bits, but no backward
    /// caches are written. The returned matrix is borrowed from `ws`.
    fn infer_ws(&mut self, input: &Matrix, ws: &mut Workspace) -> Matrix {
        self.forward_ws(input, false, ws)
    }
    /// Workspace-free forward (cold paths and tests).
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let mut ws = Workspace::new();
        self.forward_ws(input, training, &mut ws)
    }
    /// Workspace-free backward (cold paths and tests).
    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut ws = Workspace::new();
        self.backward_ws(grad_output, &mut ws)
    }
    /// Immutable views of the parameters.
    fn params(&self) -> Vec<&Matrix>;
    /// Mutable views of the parameters (same order as [`Layer::params`]).
    fn params_mut(&mut self) -> Vec<&mut Matrix>;
    /// Paired mutable-parameter / gradient views (same order), for
    /// segmented optimiser steps that update layer storage directly
    /// instead of round-tripping through flat copies.
    fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &Matrix)>;
    /// Immutable views of the accumulated gradients (same order).
    fn grads(&self) -> Vec<&Matrix>;
    /// Mutable views of the accumulated gradients (same order).
    fn grads_mut(&mut self) -> Vec<&mut Matrix>;
    /// Zeroes the accumulated gradients.
    fn zero_grads(&mut self) {
        for g in self.grads_mut() {
            g.data_mut().fill(0.0);
        }
    }
    /// Short human-readable description.
    fn describe(&self) -> String;
}

/// Fully-connected layer `y = act(x·W + b)`.
pub struct Dense {
    w: Matrix,
    b: Matrix,
    act: Activation,
    gw: Matrix,
    gb: Matrix,
    // Pre-transposed weight cache (out×in), refreshed each forward: the
    // backward `dx = dpre·Wᵀ` then runs through the vectorisable axpy
    // matmul kernel instead of a horizontal-reduction dot kernel (which
    // cannot autovectorise — measured ~5× slower).
    wt: Matrix,
    cache_input: Matrix,
    cache_pre: Matrix,
    cache_out: Matrix,
    has_cache: bool,
}

impl Dense {
    /// Glorot-initialised dense layer.
    pub fn new(input: usize, output: usize, act: Activation, rng: &mut ChaCha8Rng) -> Self {
        Dense {
            w: Matrix::glorot(input, output, rng),
            b: Matrix::zeros(1, output),
            act,
            gw: Matrix::zeros(input, output),
            gb: Matrix::zeros(1, output),
            wt: Matrix::zeros(0, 0),
            cache_input: Matrix::zeros(0, 0),
            cache_pre: Matrix::zeros(0, 0),
            cache_out: Matrix::zeros(0, 0),
            has_cache: false,
        }
    }
}

impl Layer for Dense {
    fn forward_ws(&mut self, input: &Matrix, _training: bool, ws: &mut Workspace) -> Matrix {
        self.cache_input.copy_from(input);
        let mut out = ws.take(input.rows(), self.w.cols());
        // Fused matmul + bias + activation; `cache_pre` keeps the biased
        // pre-activations for backward.
        input.affine_into(&self.w, &self.b, self.act, &mut self.cache_pre, &mut out);
        // Caching the activated output lets backward derive act' from it
        // (σ(1−σ)-style identities) without re-evaluating exp.
        self.cache_out.copy_from(&out);
        // Refresh the packed (pre-transposed) weights while they are hot;
        // W is constant between a forward and its backward.
        self.w.transpose_into(&mut self.wt);
        self.has_cache = true;
        out
    }

    fn infer_ws(&mut self, input: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut pre = ws.take(input.rows(), self.w.cols());
        let mut out = ws.take(input.rows(), self.w.cols());
        input.affine_into(&self.w, &self.b, self.act, &mut pre, &mut out);
        ws.give(pre);
        out
    }

    fn backward_ws(&mut self, grad_output: &Matrix, ws: &mut Workspace) -> Matrix {
        assert!(self.has_cache, "backward before forward");
        let (m, n) = (grad_output.rows(), grad_output.cols());
        let mut dpre = ws.take(m, n);
        for (((d, &g), &p), &y) in dpre
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(self.cache_pre.data())
            .zip(self.cache_out.data())
        {
            *d = g * self.act.derivative_from_output(y, p);
        }
        // gw += inputᵀ·dpre, gb += Σrows dpre — both accumulate in place.
        self.cache_input.matmul_transa_acc(&dpre, &mut self.gw);
        dpre.col_sum_acc(&mut self.gb);
        // dx = dpre·Wᵀ through the packed weight cache (axpy kernel).
        let mut dx = ws.take(m, self.w.rows());
        dpre.matmul_into(&self.wt, &mut dx);
        ws.give(dpre);
        dx
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }
    fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &Matrix)> {
        vec![(&mut self.w, &self.gw), (&mut self.b, &self.gb)]
    }
    fn grads(&self) -> Vec<&Matrix> {
        vec![&self.gw, &self.gb]
    }
    fn grads_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.gw, &mut self.gb]
    }
    fn describe(&self) -> String {
        format!("Dense({}→{}, {:?})", self.w.rows(), self.w.cols(), self.act)
    }
}

/// Inverted dropout: scales kept units by `1/(1−p)` during training, is
/// the identity at inference. Mask generation is deterministic: seeded by
/// `(seed, forward-call counter)`.
pub struct Dropout {
    p: f32,
    seed: u64,
    calls: u64,
    mask: Matrix,
    mask_active: bool,
}

impl Dropout {
    /// Dropout with drop probability `p` in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability in [0,1)");
        Dropout {
            p,
            seed,
            calls: 0,
            mask: Matrix::zeros(0, 0),
            mask_active: false,
        }
    }
}

impl Layer for Dropout {
    fn forward_ws(&mut self, input: &Matrix, training: bool, ws: &mut Workspace) -> Matrix {
        let mut out = ws.take(input.rows(), input.cols());
        if !training || self.p == 0.0 {
            self.mask_active = false;
            out.data_mut().copy_from_slice(input.data());
            return out;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ self.calls.wrapping_mul(0x9E37_79B9));
        self.calls += 1;
        let keep = 1.0 - self.p;
        self.mask.resize(input.rows(), input.cols());
        for v in self.mask.data_mut() {
            *v = if rng.random::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        for ((o, &x), &m) in out
            .data_mut()
            .iter_mut()
            .zip(input.data())
            .zip(self.mask.data())
        {
            *o = x * m;
        }
        self.mask_active = true;
        out
    }

    fn backward_ws(&mut self, grad_output: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut out = ws.take(grad_output.rows(), grad_output.cols());
        out.data_mut().copy_from_slice(grad_output.data());
        if self.mask_active {
            out.hadamard_assign(&self.mask);
        }
        out
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![]
    }
    fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &Matrix)> {
        vec![]
    }
    fn grads(&self) -> Vec<&Matrix> {
        vec![]
    }
    fn grads_mut(&mut self) -> Vec<&mut Matrix> {
        vec![]
    }
    fn describe(&self) -> String {
        format!("Dropout({})", self.p)
    }
}

/// Per-timestep cache for BPTT. The input slices live in the layer's
/// packed `x_stacked` buffer, not here.
struct LstmCache {
    h_prev: Matrix,
    c_prev: Matrix,
    z: Matrix,     // pre-activations of [i f g o], batch × 4H
    gates: Matrix, // post-activation gates [i f g o], batch × 4H
    c: Matrix,     // new cell state, batch × H
    act_c: Matrix, // act(c), batch × H — lets backward skip exp entirely
}

impl LstmCache {
    fn empty() -> Self {
        LstmCache {
            h_prev: Matrix::zeros(0, 0),
            c_prev: Matrix::zeros(0, 0),
            z: Matrix::zeros(0, 0),
            gates: Matrix::zeros(0, 0),
            c: Matrix::zeros(0, 0),
            act_c: Matrix::zeros(0, 0),
        }
    }
}

/// LSTM over a flattened sequence input `(batch × seq_len·input)`;
/// returns the last hidden state `(batch × hidden)` — matching Keras'
/// default `return_sequences=False` that the paper's model uses.
///
/// Gate layout in the fused weight matrices is `[i | f | g | o]`. The
/// cell activation (`g` and the output nonlinearity) is configurable;
/// the paper sets it to ELU.
///
/// # Execution model
///
/// The input sequence is packed timestep-major into `x_stacked`
/// (`seq·batch × input`) once per forward, so the input projection
/// `x_t·Wx + b` for **all** timesteps is a single matmul (`zx_stacked`);
/// the recurrence then only performs the unavoidable per-step `h·Wh`.
/// Backward mirrors this: per-step gate gradients are collected into
/// `dz_stacked` and the input-side gradients (`gwx += Xᵀ·dZ`,
/// `dX = dZ·Wxᵀ`) are two bulk kernels over the whole sequence. All
/// buffers persist across calls and are resized in place.
pub struct Lstm {
    input: usize,
    hidden: usize,
    seq_len: usize,
    act: Activation,
    wx: Matrix, // input × 4H
    wh: Matrix, // H × 4H
    b: Matrix,  // 1 × 4H
    gwx: Matrix,
    gwh: Matrix,
    gb: Matrix,
    // Pre-transposed gate-weight caches (4H×input / 4H×H), refreshed each
    // forward so every backward matmul runs the vectorisable axpy kernel.
    wxt: Matrix,
    wht: Matrix,
    cache: Vec<LstmCache>,
    steps: usize,
    cache_input: Matrix, // batch × seq·input — also the batch·seq × input
    // stacked view via reshape (row r·seq + t = sample r, step t)
    zx_stacked: Matrix, // batch·seq × 4H = stacked(X)·wx + b
    h_buf: Matrix,      // running hidden state, batch × H
    c_buf: Matrix,      // running cell state, batch × H
    dz_stacked: Matrix, // backward: batch·seq × 4H
    dz_t: Matrix,       // backward: per-step gate gradients, batch × 4H
}

impl Lstm {
    /// New LSTM layer; forget-gate bias initialised to 1 (standard trick).
    pub fn new(
        input: usize,
        hidden: usize,
        seq_len: usize,
        act: Activation,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for h in 0..hidden {
            b.set(0, hidden + h, 1.0); // forget gate chunk
        }
        Lstm {
            input,
            hidden,
            seq_len,
            act,
            wx: Matrix::glorot(input, 4 * hidden, rng),
            wh: Matrix::glorot(hidden, 4 * hidden, rng),
            b,
            gwx: Matrix::zeros(input, 4 * hidden),
            gwh: Matrix::zeros(hidden, 4 * hidden),
            gb: Matrix::zeros(1, 4 * hidden),
            wxt: Matrix::zeros(0, 0),
            wht: Matrix::zeros(0, 0),
            cache: Vec::new(),
            steps: 0,
            cache_input: Matrix::zeros(0, 0),
            zx_stacked: Matrix::zeros(0, 0),
            h_buf: Matrix::zeros(0, 0),
            c_buf: Matrix::zeros(0, 0),
            dz_stacked: Matrix::zeros(0, 0),
            dz_t: Matrix::zeros(0, 0),
        }
    }
}

/// `z = h·Wh + zx_t`: the recurrent projection plus step `t`'s rows of
/// the stacked input projection (zx rows are r-major: sample r at row
/// r·seq + t).
fn recurrent_preact(wh: &Matrix, h: &Matrix, zx: &Matrix, t: usize, seq: usize, z: &mut Matrix) {
    h.matmul_into(wh, z);
    let h4 = wh.cols();
    let zxd = zx.data();
    for (r, zrow) in z.data_mut().chunks_mut(h4).enumerate() {
        let zx = &zxd[(r * seq + t) * h4..(r * seq + t + 1) * h4];
        for (zv, &xv) in zrow.iter_mut().zip(zx) {
            *zv += xv;
        }
    }
}

/// Gate nonlinearities into `gates` (already `z`'s shape): sigmoid for
/// i/f/o, the cell activation for g. Per-row segment slices keep the
/// loops branch-free and bounds-check-free.
fn gate_activations(act: Activation, hid: usize, z: &Matrix, gates: &mut Matrix) {
    let h4 = 4 * hid;
    with_activation!(act, cell => {
        for (zrow, grow) in z.data().chunks(h4).zip(gates.data_mut().chunks_mut(h4)) {
            let (zi, zrest) = zrow.split_at(hid);
            let (zf, zrest) = zrest.split_at(hid);
            let (zg, zo) = zrest.split_at(hid);
            let (gi, grest) = grow.split_at_mut(hid);
            let (gf, grest) = grest.split_at_mut(hid);
            let (gg, go) = grest.split_at_mut(hid);
            for (g, &z) in gi.iter_mut().zip(zi) {
                *g = Activation::Sigmoid.apply(z);
            }
            for (g, &z) in gf.iter_mut().zip(zf) {
                *g = Activation::Sigmoid.apply(z);
            }
            for (g, &z) in gg.iter_mut().zip(zg) {
                *g = cell(z);
            }
            for (g, &z) in go.iter_mut().zip(zo) {
                *g = Activation::Sigmoid.apply(z);
            }
        }
    });
}

impl Layer for Lstm {
    fn forward_ws(&mut self, input: &Matrix, _training: bool, ws: &mut Workspace) -> Matrix {
        assert_eq!(
            input.cols(),
            self.seq_len * self.input,
            "LSTM input width must be seq_len×features"
        );
        let batch = input.rows();
        let (hid, in_dim, seq, act) = (self.hidden, self.input, self.seq_len, self.act);
        let h4 = 4 * hid;
        while self.cache.len() < seq {
            self.cache.push(LstmCache::empty());
        }
        self.steps = seq;

        // The flattened sequence (batch × seq·input) *is* the stacked
        // (batch·seq × input) matrix in row-major order — row r·seq + t is
        // sample r at step t — so one reshaped matmul covers every
        // timestep's input projection with zero packing copies.
        self.cache_input.copy_from(input);
        self.cache_input
            .matmul_reshape_into(batch * seq, in_dim, &self.wx, &mut self.zx_stacked);
        self.zx_stacked.add_row_broadcast_assign(&self.b);
        // Refresh the packed gate-weight caches for backward.
        self.wx.transpose_into(&mut self.wxt);
        self.wh.transpose_into(&mut self.wht);

        self.h_buf.resize(batch, hid);
        self.c_buf.resize(batch, hid);
        for t in 0..seq {
            let cc = &mut self.cache[t];
            cc.h_prev.copy_from(&self.h_buf);
            cc.c_prev.copy_from(&self.c_buf);
            recurrent_preact(&self.wh, &self.h_buf, &self.zx_stacked, t, seq, &mut cc.z);
            cc.gates.resize(batch, h4);
            gate_activations(act, hid, &cc.z, &mut cc.gates);
            // c' = f⊙c + i⊙g;  h' = o⊙act(c'). act(c') is cached so the
            // backward pass can derive act' from it without re-evaluating
            // exp.
            cc.c.resize(batch, hid);
            cc.act_c.resize(batch, hid);
            let LstmCache {
                gates, c, act_c, ..
            } = cc;
            with_activation!(act, cell => {
                for ((((grow, crow), acrow), hrow), cprow) in gates
                    .data()
                    .chunks(h4)
                    .zip(c.data_mut().chunks_mut(hid))
                    .zip(act_c.data_mut().chunks_mut(hid))
                    .zip(self.h_buf.data_mut().chunks_mut(hid))
                    .zip(self.c_buf.data_mut().chunks_mut(hid))
                {
                    let (gi, grest) = grow.split_at(hid);
                    let (gf, grest) = grest.split_at(hid);
                    let (gg, go) = grest.split_at(hid);
                    for (j, (((cv, acv), hv), cpv)) in crow
                        .iter_mut()
                        .zip(acrow.iter_mut())
                        .zip(hrow.iter_mut())
                        .zip(cprow.iter_mut())
                        .enumerate()
                    {
                        let c_new = gf[j] * *cpv + gi[j] * gg[j];
                        *cv = c_new;
                        *cpv = c_new;
                        let a = cell(c_new);
                        *acv = a;
                        *hv = go[j] * a;
                    }
                }
            });
        }
        let mut out = ws.take(batch, hid);
        out.data_mut().copy_from_slice(self.h_buf.data());
        out
    }

    fn infer_ws(&mut self, input: &Matrix, ws: &mut Workspace) -> Matrix {
        assert_eq!(
            input.cols(),
            self.seq_len * self.input,
            "LSTM input width must be seq_len×features"
        );
        let batch = input.rows();
        let (hid, in_dim, seq, act) = (self.hidden, self.input, self.seq_len, self.act);
        let h4 = 4 * hid;
        // The training forward's kernels in its order, with one set of
        // workspace buffers reused across timesteps in place of the
        // per-step caches and the input copy.
        let mut zx = ws.take(batch * seq, h4);
        input.matmul_reshape_into(batch * seq, in_dim, &self.wx, &mut zx);
        zx.add_row_broadcast_assign(&self.b);
        let mut z = ws.take(batch, h4);
        let mut gates = ws.take(batch, h4);
        let mut h = ws.take(batch, hid);
        let mut c = ws.take(batch, hid);
        for t in 0..seq {
            recurrent_preact(&self.wh, &h, &zx, t, seq, &mut z);
            gate_activations(act, hid, &z, &mut gates);
            with_activation!(act, cell => {
                for ((grow, hrow), crow) in gates
                    .data()
                    .chunks(h4)
                    .zip(h.data_mut().chunks_mut(hid))
                    .zip(c.data_mut().chunks_mut(hid))
                {
                    let (gi, grest) = grow.split_at(hid);
                    let (gf, grest) = grest.split_at(hid);
                    let (gg, go) = grest.split_at(hid);
                    for (j, (hv, cv)) in hrow.iter_mut().zip(crow.iter_mut()).enumerate() {
                        let c_new = gf[j] * *cv + gi[j] * gg[j];
                        *cv = c_new;
                        *hv = go[j] * cell(c_new);
                    }
                }
            });
        }
        ws.give(zx);
        ws.give(z);
        ws.give(gates);
        ws.give(c);
        h
    }

    fn backward_ws(&mut self, grad_output: &Matrix, ws: &mut Workspace) -> Matrix {
        assert!(self.steps > 0, "backward before forward");
        let batch = grad_output.rows();
        let (hid, in_dim, seq, act) = (self.hidden, self.input, self.seq_len, self.act);
        let h4 = 4 * hid;

        self.dz_stacked.resize(batch * seq, h4);
        self.dz_t.resize(batch, h4);
        let mut dh = ws.take(batch, hid);
        dh.data_mut().copy_from_slice(grad_output.data());
        let mut dc = ws.take(batch, hid);
        for t in (0..seq).rev() {
            let cc = &self.cache[t];
            {
                // Per-row segment slices; every derivative comes from the
                // cached gate outputs / act(c) (σ' = σ(1−σ), etc.), so
                // the whole BPTT inner loop is transcendental-free.
                for ((((((grow, zrow), crow), acrow), cprow), dzrow), (dhrow, dcrow)) in cc
                    .gates
                    .data()
                    .chunks(h4)
                    .zip(cc.z.data().chunks(h4))
                    .zip(cc.c.data().chunks(hid))
                    .zip(cc.act_c.data().chunks(hid))
                    .zip(cc.c_prev.data().chunks(hid))
                    .zip(self.dz_t.data_mut().chunks_mut(h4))
                    .zip(dh.data().chunks(hid).zip(dc.data_mut().chunks_mut(hid)))
                {
                    let (gi, grest) = grow.split_at(hid);
                    let (gf, grest) = grest.split_at(hid);
                    let (gg, go) = grest.split_at(hid);
                    let zg = &zrow[2 * hid..3 * hid];
                    let (dzi, dzrest) = dzrow.split_at_mut(hid);
                    let (dzf, dzrest) = dzrest.split_at_mut(hid);
                    let (dzg, dzo) = dzrest.split_at_mut(hid);
                    for (j, (((dziv, dzfv), dzgv), dzov)) in dzi
                        .iter_mut()
                        .zip(dzf.iter_mut())
                        .zip(dzg.iter_mut())
                        .zip(dzo.iter_mut())
                        .enumerate()
                    {
                        let (i_, f_, g_, o_) = (gi[j], gf[j], gg[j], go[j]);
                        let a = acrow[j];
                        let dh_v = dhrow[j];
                        // h = o⊙act(c);  c = f⊙c_prev + i⊙g.
                        let do_ = dh_v * a;
                        let dc_v = dcrow[j] + dh_v * o_ * act.derivative_from_output(a, crow[j]);
                        let di = dc_v * g_;
                        let df = dc_v * cprow[j];
                        let dg = dc_v * i_;
                        dcrow[j] = dc_v * f_; // carried to t−1
                        *dziv = di * (i_ * (1.0 - i_));
                        *dzfv = df * (f_ * (1.0 - f_));
                        *dzgv = dg * act.derivative_from_output(g_, zg[j]);
                        *dzov = do_ * (o_ * (1.0 - o_));
                    }
                }
            }
            // Recurrent-side gradients per step; input-side ones are
            // deferred to the bulk kernels below.
            cc.h_prev.matmul_transa_acc(&self.dz_t, &mut self.gwh);
            self.dz_t.col_sum_acc(&mut self.gb);
            self.dz_t.matmul_into(&self.wht, &mut dh);
            // Stash into the r-major stacked layout (row r·seq + t).
            {
                let dzsd = self.dz_stacked.data_mut();
                for (r, dzrow) in self.dz_t.data().chunks(h4).enumerate() {
                    dzsd[(r * seq + t) * h4..(r * seq + t + 1) * h4].copy_from_slice(dzrow);
                }
            }
        }
        // Input-side gradients across all timesteps in two bulk kernels
        // over the stacked views; the resulting dX *is* the flattened
        // (batch × seq·input) gradient after a zero-copy reshape.
        self.cache_input.matmul_reshape_transa_acc(
            batch * seq,
            in_dim,
            &self.dz_stacked,
            &mut self.gwx,
        );
        let mut dinput = ws.take(batch * seq, in_dim);
        self.dz_stacked.matmul_into(&self.wxt, &mut dinput);
        dinput.reshape_in_place(batch, seq * in_dim);
        ws.give(dh);
        ws.give(dc);
        dinput
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.wx, &self.wh, &self.b]
    }
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
    fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &Matrix)> {
        vec![
            (&mut self.wx, &self.gwx),
            (&mut self.wh, &self.gwh),
            (&mut self.b, &self.gb),
        ]
    }
    fn grads(&self) -> Vec<&Matrix> {
        vec![&self.gwx, &self.gwh, &self.gb]
    }
    fn grads_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.gwx, &mut self.gwh, &mut self.gb]
    }
    fn describe(&self) -> String {
        format!(
            "LSTM(in={}, hidden={}, seq={}, {:?})",
            self.input, self.hidden, self.seq_len, self.act
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Numerically checks ∂(sum of outputs)/∂param against the analytic
    /// gradient for every parameter of `layer`.
    fn grad_check<L: Layer>(layer: &mut L, input: &Matrix, tol: f32) {
        // Analytic.
        layer.zero_grads();
        let out = layer.forward(input, false);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let _ = layer.backward(&ones);
        let analytic: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.data().to_vec()).collect();

        // Numeric (central differences).
        let eps = 2e-2f32;
        let n_params = layer.params().len();
        #[allow(clippy::needless_range_loop)]
        for p_idx in 0..n_params {
            let n_elems = layer.params()[p_idx].data().len();
            for e_idx in 0..n_elems {
                let orig = layer.params()[p_idx].data()[e_idx];
                layer.params_mut()[p_idx].data_mut()[e_idx] = orig + eps;
                let up: f32 = layer.forward(input, false).data().iter().sum();
                layer.params_mut()[p_idx].data_mut()[e_idx] = orig - eps;
                let down: f32 = layer.forward(input, false).data().iter().sum();
                layer.params_mut()[p_idx].data_mut()[e_idx] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic[p_idx][e_idx];
                let denom = a.abs().max(numeric.abs()).max(1.0);
                assert!(
                    (a - numeric).abs() / denom < tol,
                    "param {p_idx}[{e_idx}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, Activation::Linear, &mut rng(0));
        d.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        d.params_mut()[1].data_mut().copy_from_slice(&[0.5, -0.5]);
        let out = d.forward(&Matrix::from_rows(&[vec![1.0, 1.0]]), false);
        assert_eq!(out.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_gradients_check_linear() {
        let mut d = Dense::new(3, 4, Activation::Linear, &mut rng(1));
        let x = Matrix::glorot(5, 3, &mut rng(2));
        grad_check(&mut d, &x, 1e-2);
    }

    #[test]
    fn dense_gradients_check_elu() {
        let mut d = Dense::new(4, 3, Activation::Elu, &mut rng(3));
        let x = Matrix::glorot(6, 4, &mut rng(4));
        grad_check(&mut d, &x, 2e-2);
    }

    #[test]
    fn dense_gradients_check_tanh() {
        let mut d = Dense::new(3, 3, Activation::Tanh, &mut rng(5));
        let x = Matrix::glorot(4, 3, &mut rng(6));
        grad_check(&mut d, &x, 2e-2);
    }

    #[test]
    fn dense_input_gradient_is_correct() {
        // Check dL/dx numerically for a tiny dense layer.
        let mut d = Dense::new(2, 2, Activation::Tanh, &mut rng(7));
        let x = Matrix::from_rows(&[vec![0.3, -0.2]]);
        let out = d.forward(&x, false);
        let ones = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        d.zero_grads();
        let dx = d.backward(&ones);
        let _ = out;
        let eps = 1e-2f32;
        for k in 0..2 {
            let mut xp = x.clone();
            xp.set(0, k, x.get(0, k) + eps);
            let up: f32 = d.forward(&xp, false).data().iter().sum();
            let mut xm = x.clone();
            xm.set(0, k, x.get(0, k) - eps);
            let down: f32 = d.forward(&xm, false).data().iter().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!((dx.get(0, k) - numeric).abs() < 2e-2, "dx[{k}]");
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = Dense::new(2, 2, Activation::Linear, &mut rng(8));
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let ones = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        d.forward(&x, false);
        d.backward(&ones);
        let g1 = d.grads()[0].clone();
        d.forward(&x, false);
        d.backward(&ones);
        let g2 = d.grads()[0].clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((b - 2.0 * a).abs() < 1e-5, "grads should double");
        }
        d.zero_grads();
        assert!(d.grads()[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut drop = Dropout::new(0.5, 42);
        let x = Matrix::glorot(8, 8, &mut rng(9));
        assert_eq!(drop.forward(&x, false), x);
    }

    #[test]
    fn dropout_training_zeroes_and_scales() {
        let mut drop = Dropout::new(0.5, 42);
        let x = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let y = drop.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept: Vec<f32> = y.data().iter().copied().filter(|&v| v != 0.0).collect();
        assert!((400..600).contains(&zeros), "dropped {zeros}/1000");
        assert!(
            kept.iter().all(|&v| (v - 2.0).abs() < 1e-6),
            "kept units scaled by 1/keep"
        );
        // Expectation preserved within sampling noise.
        let mean: f32 = y.data().iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut drop = Dropout::new(0.3, 7);
        let x = Matrix::from_vec(1, 100, vec![1.0; 100]);
        let y = drop.forward(&x, true);
        let dy = Matrix::from_vec(1, 100, vec![1.0; 100]);
        let dx = drop.backward(&dy);
        assert_eq!(dx, y, "gradient mask must equal forward mask");
    }

    #[test]
    fn lstm_forward_shapes_and_determinism() {
        let mut l = Lstm::new(6, 16, 5, Activation::Elu, &mut rng(10));
        let x = Matrix::glorot(3, 30, &mut rng(11));
        let h1 = l.forward(&x, false);
        let h2 = l.forward(&x, false);
        assert_eq!(h1.rows(), 3);
        assert_eq!(h1.cols(), 16);
        assert_eq!(h1, h2);
    }

    #[test]
    fn lstm_gradients_check_tanh() {
        let mut l = Lstm::new(2, 3, 3, Activation::Tanh, &mut rng(12));
        let x = Matrix::glorot(2, 6, &mut rng(13));
        grad_check(&mut l, &x, 3e-2);
    }

    #[test]
    fn lstm_gradients_check_elu() {
        let mut l = Lstm::new(2, 2, 4, Activation::Elu, &mut rng(14));
        let x = Matrix::glorot(3, 8, &mut rng(15));
        grad_check(&mut l, &x, 3e-2);
    }

    #[test]
    fn lstm_input_gradient_flows_to_all_timesteps() {
        let mut l = Lstm::new(2, 4, 5, Activation::Tanh, &mut rng(16));
        let x = Matrix::glorot(2, 10, &mut rng(17));
        l.forward(&x, false);
        let ones = Matrix::from_vec(2, 4, vec![1.0; 8]);
        let dx = l.backward(&ones);
        assert_eq!(dx.cols(), 10);
        // Every timestep should receive some gradient (forget bias 1 keeps
        // the path open).
        for t in 0..5 {
            let slice = dx.slice_cols(t * 2, (t + 1) * 2);
            assert!(slice.norm() > 1e-6, "no gradient at t={t}");
        }
    }

    #[test]
    fn lstm_sequence_order_matters() {
        // LSTM output must depend on input order (unlike a pooled MLP).
        let mut l = Lstm::new(1, 4, 3, Activation::Tanh, &mut rng(18));
        let a = l.forward(&Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]), false);
        let b = l.forward(&Matrix::from_rows(&[vec![3.0, 2.0, 1.0]]), false);
        let diff = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(diff > 1e-4, "order-insensitive LSTM output");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_layers() {
        // Forward/backward through one shared workspace twice: warm
        // buffers must give the same bits as cold ones, for every layer
        // kind.
        let mut ws = Workspace::new();
        let x = Matrix::glorot(4, 10, &mut rng(30));
        let ones = Matrix::from_vec(4, 3, vec![1.0; 12]);

        let mut lstm = Lstm::new(2, 3, 5, Activation::Elu, &mut rng(31));
        let mut dense = Dense::new(3, 3, Activation::Tanh, &mut rng(32));

        let cold_h = lstm.forward_ws(&x, false, &mut ws);
        let cold_y = dense.forward_ws(&cold_h, false, &mut ws);
        lstm.zero_grads();
        dense.zero_grads();
        let cold_gd = dense.backward_ws(&ones, &mut ws);
        let cold_gl = lstm.backward_ws(&cold_gd, &mut ws);
        let cold = (cold_h, cold_y, cold_gd, cold_gl);
        let cold_grads: Vec<Matrix> = lstm
            .grads()
            .iter()
            .chain(dense.grads().iter())
            .map(|g| (*g).clone())
            .collect();

        for _ in 0..3 {
            let h = lstm.forward_ws(&x, false, &mut ws);
            let y = dense.forward_ws(&h, false, &mut ws);
            lstm.zero_grads();
            dense.zero_grads();
            let gd = dense.backward_ws(&ones, &mut ws);
            let gl = lstm.backward_ws(&gd, &mut ws);
            assert_eq!(h, cold.0);
            assert_eq!(y, cold.1);
            assert_eq!(gd, cold.2);
            assert_eq!(gl, cold.3);
            let warm_grads: Vec<Matrix> = lstm
                .grads()
                .iter()
                .chain(dense.grads().iter())
                .map(|g| (*g).clone())
                .collect();
            assert_eq!(warm_grads, cold_grads);
            ws.give(h);
            ws.give(y);
            ws.give(gd);
            ws.give(gl);
        }
    }

    #[test]
    #[should_panic(expected = "seq_len")]
    fn lstm_rejects_wrong_width() {
        let mut l = Lstm::new(2, 3, 4, Activation::Tanh, &mut rng(19));
        let _ = l.forward(&Matrix::zeros(1, 7), false);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_p_one() {
        let _ = Dropout::new(1.0, 0);
    }
}

//! Define-by-run reverse-mode autograd tape.
//!
//! Every op appends a [`Node`] whose parents already exist, so node ids form a
//! topological order and [`Graph::backward`] is a single reverse scan. Forward
//! op constructors live in [`crate::ops`] (as `impl` blocks on [`Graph`] and
//! [`Var`]); this module owns the node storage and all backward rules.

use crate::kernels;
use crate::param::{ParamId, ParamStore};
use crate::shape::{self, Shape};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Operation recorded on the tape. Parent node ids always precede the node.
#[derive(Debug)]
pub(crate) enum Op {
    /// Constant input; no gradient flows out.
    Leaf,
    /// Small dense parameter copied into the tape by value.
    DenseParam(ParamId),
    /// Row gather from a (possibly huge) embedding table in the store.
    GatherRows { param: ParamId, rows: Vec<u32> },
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    /// `(rows, n) + (n,)` broadcast.
    AddBias { x: usize, bias: usize },
    Scale { x: usize, c: f32 },
    /// `x (n×n) + w·I` with `w` a scalar node.
    AddScaledIdentity { x: usize, w: usize },
    /// `a (…, k) × b (k, n)` with `a`'s leading dims flattened.
    MatMul(usize, usize),
    /// `(B, M, K) × (B, K, N)`.
    BatchMatMul(usize, usize),
    /// Swap the last two axes (rank 2 or 3); materialized.
    TransposeLast2(usize),
    /// Swap axes 0 and 1 of a rank-3 tensor; materialized.
    SwapAxes01(usize),
    /// Same data, new shape.
    Reshape(usize),
    /// Concatenate along the last axis; all inputs share leading dims.
    ConcatLast(Vec<usize>),
    /// Stack along axis 0 (rows); all inputs share the last dim.
    ConcatRows(Vec<usize>),
    /// Gather rows of a rank-2 tensor.
    SelectRows { x: usize, idx: Vec<u32> },
    Relu(usize),
    Gelu(usize),
    Tanh(usize),
    Sigmoid(usize),
    SoftmaxLast(usize),
    LogSoftmaxLast(usize),
    SumAll(usize),
    MeanAll(usize),
    /// Mean over rows: `(m, n) -> (n,)`.
    MeanRows(usize),
    /// Per-segment mean over contiguous row groups: `(Σlens, n) -> (C, n)`.
    MeanRowsSegments { x: usize, lens: Vec<usize> },
    /// Elementwise max of two same-shape tensors.
    Maximum(usize, usize),
    /// Inverted dropout; `mask` holds `0` or `1/(1-p)`.
    Dropout { x: usize, mask: Vec<f32> },
    /// Per-row layer norm over the last dim with affine params.
    LayerNorm { x: usize, gamma: usize, beta: usize, eps: f32 },
    /// Mean cross-entropy of row logits against integer targets (scalar out).
    CrossEntropyRows { logits: usize, targets: Vec<u32> },
}

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
}

pub(crate) struct Inner {
    pub nodes: Vec<Node>,
    pub training: bool,
    pub rng: StdRng,
}

/// An autograd tape. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Graph {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

/// Handle to a node on a [`Graph`].
#[derive(Clone)]
pub struct Var {
    pub(crate) graph: Graph,
    pub(crate) id: usize,
}

impl Graph {
    /// New inference-mode graph (dropout disabled).
    pub fn new() -> Self {
        Self::with_mode(false, 0)
    }

    /// New graph; `training` enables dropout/2-D masking, `seed` drives them.
    pub fn with_mode(training: bool, seed: u64) -> Self {
        Graph {
            inner: Rc::new(RefCell::new(Inner {
                nodes: Vec::with_capacity(256),
                training,
                rng: StdRng::seed_from_u64(seed),
            })),
        }
    }

    /// Whether this tape was created in training mode.
    pub fn training(&self) -> bool {
        self.inner.borrow().training
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&self, value: Tensor, op: Op) -> Var {
        let mut inner = self.inner.borrow_mut();
        inner.nodes.push(Node { value, grad: None, op });
        Var { graph: self.clone(), id: inner.nodes.len() - 1 }
    }

    /// The value of a node (cloned).
    pub fn value(&self, v: &Var) -> Tensor {
        self.inner.borrow().nodes[v.id].value.clone()
    }

    /// The accumulated gradient of a node after [`Graph::backward`], if any.
    pub fn grad(&self, v: &Var) -> Option<Tensor> {
        self.inner.borrow().nodes[v.id].grad.clone()
    }

    /// Runs reverse-mode accumulation from a scalar `loss` node, writing
    /// parameter gradients into `store`.
    pub fn backward(&self, loss: &Var, store: &mut ParamStore) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.nodes[loss.id].value.numel(),
            1,
            "backward() needs a scalar loss, got shape {:?}",
            inner.nodes[loss.id].value.shape()
        );
        let n = inner.nodes.len();
        inner.nodes[loss.id].grad = Some(Tensor::scalar(1.0));
        for id in (0..n).rev() {
            if id > loss.id {
                continue; // nodes after the loss cannot influence it
            }
            let Some(dy) = inner.nodes[id].grad.take() else { continue };
            backward_node(&mut inner.nodes, id, &dy, store);
            // Keep the grad available for inspection (tests / diagnostics).
            inner.nodes[id].grad = Some(dy);
        }
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Var {
    /// The node's value (cloned).
    pub fn value(&self) -> Tensor {
        self.graph.value(self)
    }

    /// Copies the node's value into `out` without cloning the tensor —
    /// the allocation-free read-out for embedding extraction. Panics if
    /// `out.len()` differs from the node's element count.
    pub fn copy_value_into(&self, out: &mut [f32]) {
        let inner = self.graph.inner.borrow();
        let data = inner.nodes[self.id].value.data();
        assert_eq!(out.len(), data.len(), "copy_value_into: length mismatch");
        out.copy_from_slice(data);
    }

    /// The node's shape, returned by value on the stack — shape queries in
    /// the forward pass don't allocate.
    pub fn shape(&self) -> Shape {
        self.graph.inner.borrow().nodes[self.id].value.dims()
    }

    /// The node's gradient after backward, if populated.
    pub fn grad(&self) -> Option<Tensor> {
        self.graph.grad(self)
    }

    pub(crate) fn same_graph(&self, other: &Var) {
        debug_assert!(
            Rc::ptr_eq(&self.graph.inner, &other.graph.inner),
            "vars belong to different graphs"
        );
    }
}

/// Adds `src` into `nodes[id].grad`, cloning it if the node has none yet.
fn accum(nodes: &mut [Node], id: usize, src: &Tensor) {
    let node = &mut nodes[id];
    match &mut node.grad {
        Some(g) => g.add_assign(src),
        None => node.grad = Some(src.clone()),
    }
}

/// Like [`accum`] but consumes `src`: installs it directly as the grad when
/// none exists, otherwise adds it and drops it.
fn accum_owned(nodes: &mut [Node], id: usize, src: Tensor) {
    let node = &mut nodes[id];
    match &mut node.grad {
        Some(g) => g.add_assign(&src),
        None => node.grad = Some(src),
    }
}

fn accum_into(nodes: &mut [Node], id: usize, f: impl FnOnce(&mut Tensor)) {
    let node = &mut nodes[id];
    if node.grad.is_none() {
        node.grad = Some(Tensor::zeros(node.value.shape()));
    }
    f(node.grad.as_mut().expect("just set"));
}

/// Dispatches the backward rule of a single node.
///
/// We temporarily take the op out of the node to satisfy the borrow checker
/// (the op owns index vectors we need while mutating sibling nodes).
fn backward_node(nodes: &mut [Node], id: usize, dy: &Tensor, store: &mut ParamStore) {
    let op = std::mem::replace(&mut nodes[id].op, Op::Leaf);
    match &op {
        Op::Leaf => {}
        Op::DenseParam(pid) => {
            let p = store.get_mut(*pid);
            p.grad.add_assign(dy);
            p.dense_touched = true;
        }
        Op::GatherRows { param, rows } => {
            let p = store.get_mut(*param);
            let cols = p.data.shape()[1];
            for (i, &r) in rows.iter().enumerate() {
                let dst = p.grad.row_mut(r as usize);
                let src = &dy.data()[i * cols..(i + 1) * cols];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += *s;
                }
            }
            p.touched_rows.extend_from_slice(rows);
        }
        Op::Add(a, b) => {
            accum(nodes, *a, dy);
            accum(nodes, *b, dy);
        }
        Op::Sub(a, b) => {
            accum(nodes, *a, dy);
            accum_into(nodes, *b, |g| {
                for (gv, &d) in g.data_mut().iter_mut().zip(dy.data()) {
                    *gv -= d;
                }
            });
        }
        Op::Mul(a, b) => {
            let (a, b) = (*a, *b);
            let bv = nodes[b].value.clone();
            accum_into(nodes, a, |g| {
                for ((gv, &d), &x) in g.data_mut().iter_mut().zip(dy.data()).zip(bv.data()) {
                    *gv += d * x;
                }
            });
            let av = nodes[a].value.clone();
            accum_into(nodes, b, |g| {
                for ((gv, &d), &x) in g.data_mut().iter_mut().zip(dy.data()).zip(av.data()) {
                    *gv += d * x;
                }
            });
        }
        Op::AddBias { x, bias } => {
            accum(nodes, *x, dy);
            let n = nodes[*bias].value.numel();
            accum_into(nodes, *bias, |g| {
                for (i, &d) in dy.data().iter().enumerate() {
                    g.data_mut()[i % n] += d;
                }
            });
        }
        Op::Scale { x, c } => {
            let c = *c;
            accum_into(nodes, *x, |g| {
                for (gv, &d) in g.data_mut().iter_mut().zip(dy.data()) {
                    *gv += c * d;
                }
            });
        }
        Op::AddScaledIdentity { x, w } => {
            accum(nodes, *x, dy);
            let n = nodes[*x].value.shape()[0];
            let mut tr = 0.0;
            for i in 0..n {
                tr += dy.data()[i * n + i];
            }
            accum(nodes, *w, &Tensor::scalar(tr));
        }
        Op::MatMul(a, b) => {
            let (a, b) = (*a, *b);
            let av = nodes[a].value.clone();
            let bv = nodes[b].value.clone();
            let (m, k) = shape::rows_cols(av.shape());
            let n = bv.shape()[1];
            // dA = dY Bᵀ
            accum_into(nodes, a, |g| {
                kernels::matmul_a_bt_acc(dy.data(), bv.data(), g.data_mut(), m, n, k);
            });
            // dB = Aᵀ dY
            accum_into(nodes, b, |g| {
                kernels::matmul_at_b_acc(av.data(), dy.data(), g.data_mut(), m, k, n);
            });
        }
        Op::BatchMatMul(a, b) => {
            let (a, b) = (*a, *b);
            let av = nodes[a].value.clone();
            let bv = nodes[b].value.clone();
            let (bb, m, k, n) = shape::batch_matmul_dims(av.shape(), bv.shape());
            accum_into(nodes, a, |g| {
                for t in 0..bb {
                    kernels::matmul_a_bt_acc(
                        &dy.data()[t * m * n..(t + 1) * m * n],
                        &bv.data()[t * k * n..(t + 1) * k * n],
                        &mut g.data_mut()[t * m * k..(t + 1) * m * k],
                        m,
                        n,
                        k,
                    );
                }
            });
            accum_into(nodes, b, |g| {
                for t in 0..bb {
                    kernels::matmul_at_b_acc(
                        &av.data()[t * m * k..(t + 1) * m * k],
                        &dy.data()[t * m * n..(t + 1) * m * n],
                        &mut g.data_mut()[t * k * n..(t + 1) * k * n],
                        m,
                        k,
                        n,
                    );
                }
            });
        }
        Op::TransposeLast2(x) => {
            let xs = nodes[*x].value.dims();
            let dt = transpose_last2_data(dy);
            accum_owned(nodes, *x, Tensor::new(xs, dt));
        }
        Op::SwapAxes01(x) => {
            // dy has shape (b, a, c) where x was (a, b, c); swap back.
            let ys = dy.shape();
            let (b, a, c) = (ys[0], ys[1], ys[2]);
            let mut out = Vec::with_capacity(a * b * c);
            for j in 0..a {
                for i in 0..b {
                    out.extend_from_slice(&dy.data()[(i * a + j) * c..(i * a + j + 1) * c]);
                }
            }
            accum_owned(nodes, *x, Tensor::new([a, b, c], out));
        }
        Op::Reshape(x) => {
            let xs = nodes[*x].value.dims();
            accum_owned(nodes, *x, Tensor::new(xs, dy.data().to_vec()));
        }
        Op::ConcatLast(parts) => {
            let widths: Vec<usize> =
                parts.iter().map(|&p| nodes[p].value.shape().last().copied().unwrap_or(1)).collect();
            let total: usize = widths.iter().sum();
            let rows = dy.numel() / total;
            let mut off = 0;
            for (pi, &p) in parts.iter().enumerate() {
                let w = widths[pi];
                accum_into(nodes, p, |g| {
                    for r in 0..rows {
                        let src = &dy.data()[r * total + off..r * total + off + w];
                        let dst = &mut g.data_mut()[r * w..(r + 1) * w];
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += *s;
                        }
                    }
                });
                off += w;
            }
        }
        Op::ConcatRows(parts) => {
            let mut off = 0;
            for &p in parts {
                let cnt = nodes[p].value.numel();
                accum_into(nodes, p, |g| {
                    for (d, s) in g.data_mut().iter_mut().zip(&dy.data()[off..off + cnt]) {
                        *d += *s;
                    }
                });
                off += cnt;
            }
        }
        Op::SelectRows { x, idx } => {
            let cols = nodes[*x].value.shape()[1];
            accum_into(nodes, *x, |g| {
                for (i, &r) in idx.iter().enumerate() {
                    let dst = &mut g.data_mut()[r as usize * cols..(r as usize + 1) * cols];
                    let src = &dy.data()[i * cols..(i + 1) * cols];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += *s;
                    }
                }
            });
        }
        Op::Relu(x) => {
            let xv = nodes[*x].value.clone();
            accum_into(nodes, *x, |g| {
                for ((gv, &d), &x0) in g.data_mut().iter_mut().zip(dy.data()).zip(xv.data()) {
                    if x0 > 0.0 {
                        *gv += d;
                    }
                }
            });
        }
        Op::Gelu(x) => {
            let xv = nodes[*x].value.clone();
            accum_into(nodes, *x, |g| {
                for ((gv, &d), &x0) in g.data_mut().iter_mut().zip(dy.data()).zip(xv.data()) {
                    *gv += d * kernels::gelu_deriv(x0);
                }
            });
        }
        Op::Tanh(x) => {
            let yv = nodes[id].value.clone();
            accum_into(nodes, *x, |g| {
                for ((gv, &d), &y0) in g.data_mut().iter_mut().zip(dy.data()).zip(yv.data()) {
                    *gv += d * (1.0 - y0 * y0);
                }
            });
        }
        Op::Sigmoid(x) => {
            let yv = nodes[id].value.clone();
            accum_into(nodes, *x, |g| {
                for ((gv, &d), &y0) in g.data_mut().iter_mut().zip(dy.data()).zip(yv.data()) {
                    *gv += d * y0 * (1.0 - y0);
                }
            });
        }
        Op::SoftmaxLast(x) => {
            let yv = nodes[id].value.clone();
            let (rows, cols) = shape::rows_cols(yv.shape());
            accum_into(nodes, *x, |g| {
                kernels::softmax_rows_backward(yv.data(), dy.data(), g.data_mut(), rows, cols);
            });
        }
        Op::LogSoftmaxLast(x) => {
            // y = x - lse(x); dx = dy - softmax(x) * sum(dy) per row
            let yv = nodes[id].value.clone();
            let (rows, cols) = shape::rows_cols(yv.shape());
            accum_into(nodes, *x, |g| {
                for r in 0..rows {
                    let yr = &yv.data()[r * cols..(r + 1) * cols];
                    let dyr = &dy.data()[r * cols..(r + 1) * cols];
                    let sum: f32 = dyr.iter().sum();
                    let gr = &mut g.data_mut()[r * cols..(r + 1) * cols];
                    for ((gv, &d), &y0) in gr.iter_mut().zip(dyr).zip(yr) {
                        *gv += d - y0.exp() * sum;
                    }
                }
            });
        }
        Op::SumAll(x) => {
            let d = dy.item();
            accum_into(nodes, *x, |g| {
                for gv in g.data_mut() {
                    *gv += d;
                }
            });
        }
        Op::MeanAll(x) => {
            let n = nodes[*x].value.numel() as f32;
            let d = dy.item() / n;
            accum_into(nodes, *x, |g| {
                for gv in g.data_mut() {
                    *gv += d;
                }
            });
        }
        Op::MeanRows(x) => {
            let xs = nodes[*x].value.shape().to_vec();
            let (m, n) = (xs[0], xs[1]);
            accum_into(nodes, *x, |g| {
                for r in 0..m {
                    let gr = &mut g.data_mut()[r * n..(r + 1) * n];
                    for (gv, &d) in gr.iter_mut().zip(dy.data()) {
                        *gv += d / m as f32;
                    }
                }
            });
        }
        Op::MeanRowsSegments { x, lens } => {
            let n = nodes[*x].value.shape()[1];
            accum_into(nodes, *x, |g| {
                let mut row = 0;
                for (c, &len) in lens.iter().enumerate() {
                    let dyr = &dy.data()[c * n..(c + 1) * n];
                    for _ in 0..len {
                        let gr = &mut g.data_mut()[row * n..(row + 1) * n];
                        for (gv, &d) in gr.iter_mut().zip(dyr) {
                            *gv += d / len as f32;
                        }
                        row += 1;
                    }
                }
            });
        }
        Op::Maximum(a, b) => {
            let (a, b) = (*a, *b);
            let av = nodes[a].value.clone();
            let bv = nodes[b].value.clone();
            accum_into(nodes, a, |g| {
                for (i, gv) in g.data_mut().iter_mut().enumerate() {
                    if av.data()[i] >= bv.data()[i] {
                        *gv += dy.data()[i];
                    }
                }
            });
            accum_into(nodes, b, |g| {
                for (i, gv) in g.data_mut().iter_mut().enumerate() {
                    if av.data()[i] < bv.data()[i] {
                        *gv += dy.data()[i];
                    }
                }
            });
        }
        Op::Dropout { x, mask } => {
            accum_into(nodes, *x, |g| {
                for ((gv, &d), &m) in g.data_mut().iter_mut().zip(dy.data()).zip(mask.iter()) {
                    *gv += d * m;
                }
            });
        }
        Op::LayerNorm { x, gamma, beta, eps } => {
            let xv = nodes[*x].value.clone();
            let gv = nodes[*gamma].value.clone();
            let (rows, cols) = shape::rows_cols(xv.shape());
            let cn = cols as f32;
            // dbeta / dgamma accumulate across rows (zeroed); dx is fully
            // written per row.
            let mut dgamma = vec![0.0; cols];
            let mut dbeta = vec![0.0; cols];
            let mut dx_full = vec![0.0; rows * cols];
            for r in 0..rows {
                let xr = &xv.data()[r * cols..(r + 1) * cols];
                let dyr = &dy.data()[r * cols..(r + 1) * cols];
                let mu: f32 = xr.iter().sum::<f32>() / cn;
                let var: f32 = xr.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cn;
                let inv_std = 1.0 / (var + eps).sqrt();
                // xhat and reductions
                let mut mean_dxhat = 0.0;
                let mut mean_dxhat_xhat = 0.0;
                for j in 0..cols {
                    let xhat = (xr[j] - mu) * inv_std;
                    let dxhat = dyr[j] * gv.data()[j];
                    dgamma[j] += dyr[j] * xhat;
                    dbeta[j] += dyr[j];
                    mean_dxhat += dxhat;
                    mean_dxhat_xhat += dxhat * xhat;
                }
                mean_dxhat /= cn;
                mean_dxhat_xhat /= cn;
                let dxr = &mut dx_full[r * cols..(r + 1) * cols];
                for j in 0..cols {
                    let xhat = (xr[j] - mu) * inv_std;
                    let dxhat = dyr[j] * gv.data()[j];
                    dxr[j] = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
                }
            }
            let xs = xv.dims();
            accum_owned(nodes, *x, Tensor::new(xs, dx_full));
            accum_owned(nodes, *gamma, Tensor::new([cols], dgamma));
            accum_owned(nodes, *beta, Tensor::new([cols], dbeta));
        }
        Op::CrossEntropyRows { logits, targets } => {
            let lv = nodes[*logits].value.clone();
            let (rows, cols) = shape::rows_cols(lv.shape());
            let d = dy.item() / rows as f32;
            let mut sm = vec![0.0; rows * cols];
            kernels::softmax_rows(lv.data(), &mut sm, rows, cols);
            accum_into(nodes, *logits, |g| {
                for r in 0..rows {
                    let gr = &mut g.data_mut()[r * cols..(r + 1) * cols];
                    let sr = &sm[r * cols..(r + 1) * cols];
                    for (gv, &s) in gr.iter_mut().zip(sr) {
                        *gv += d * s;
                    }
                    gr[targets[r] as usize] -= d;
                }
            });
        }
    }
    nodes[id].op = op;
}

/// Materialized transpose of the last two axes. The caller owns the returned
/// buffer and is expected to hand it to [`accum_owned`].
fn transpose_last2_data(t: &Tensor) -> Vec<f32> {
    let s = t.shape();
    let (b, m, n) = match s.len() {
        2 => (1, s[0], s[1]),
        3 => (s[0], s[1], s[2]),
        _ => panic!("transpose rank {s:?}"),
    };
    let mut out = vec![0.0; t.numel()];
    for t0 in 0..b {
        for i in 0..m {
            for j in 0..n {
                out[t0 * m * n + j * m + i] = t.data()[t0 * m * n + i * n + j];
            }
        }
    }
    out
}

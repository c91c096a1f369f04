//! Forward op constructors for [`Graph`] / [`Var`].
//!
//! Each method computes the forward value eagerly and records the op on the
//! tape; backward rules live in [`crate::graph`].
//!
//! Ops read their operands by borrowing the tape (no defensive clone of the
//! input tensors) and allocate exactly one output buffer. Sites that produce
//! the output elementwise build it by value (`collect`/`extend`); sites that
//! fill it by index or accumulate into it (the matmul family, `mean_rows`)
//! start from `vec![0.0; n]`.

use crate::graph::{Graph, Op, Var};
use crate::kernels;
use crate::param::{ParamId, ParamStore};
use crate::shape;
use crate::tensor::Tensor;
use rand::Rng;

impl Graph {
    /// Records a constant input (no gradient flows out of it).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records a scalar constant.
    pub fn scalar(&self, value: f32) -> Var {
        self.leaf(Tensor::scalar(value))
    }

    /// Brings a small dense parameter onto the tape by value.
    pub fn dense_param(&self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.get(id).data.clone(), Op::DenseParam(id))
    }

    /// Gathers rows of an embedding table; backward scatter-adds into the
    /// store and records touched rows for sparse optimizers.
    pub fn gather_rows(&self, store: &ParamStore, id: ParamId, rows: &[u32]) -> Var {
        let table = &store.get(id).data;
        assert_eq!(table.rank(), 2, "gather_rows needs a 2-D table");
        let cols = table.shape()[1];
        let mut out = vec![0.0; rows.len() * cols];
        kernels::gather_rows(table.data(), rows, &mut out, cols);
        self.push(
            Tensor::new([rows.len(), cols], out),
            Op::GatherRows { param: id, rows: rows.to_vec() },
        )
    }

    /// Concatenates along the last axis. All inputs must share leading dims.
    pub fn concat_last(&self, parts: &[&Var]) -> Var {
        assert!(!parts.is_empty());
        let out = {
            let inner = self.inner.borrow();
            let values: Vec<&Tensor> = parts.iter().map(|v| &inner.nodes[v.id].value).collect();
            let (rows, _) = shape::rows_cols(values[0].shape());
            let widths: Vec<usize> =
                values.iter().map(|t| t.shape().last().copied().unwrap_or(1)).collect();
            for t in &values {
                assert_eq!(shape::rows_cols(t.shape()).0, rows, "concat_last leading-dim mismatch");
            }
            let total: usize = widths.iter().sum();
            let mut out = Vec::with_capacity(rows * total);
            for r in 0..rows {
                for (t, &w) in values.iter().zip(&widths) {
                    out.extend_from_slice(&t.data()[r * w..(r + 1) * w]);
                }
            }
            Tensor::new(values[0].dims().with_last(total), out)
        };
        self.push(out, Op::ConcatLast(parts.iter().map(|v| v.id).collect()))
    }

    /// Stacks inputs along axis 0. Rank-1 inputs count as single rows.
    pub fn concat_rows(&self, parts: &[&Var]) -> Var {
        assert!(!parts.is_empty());
        let out = {
            let inner = self.inner.borrow();
            let values: Vec<&Tensor> = parts.iter().map(|v| &inner.nodes[v.id].value).collect();
            let cols = values[0].shape().last().copied().expect("rank >= 1");
            let mut rows = 0;
            for t in &values {
                assert_eq!(t.shape().last().copied().unwrap(), cols, "concat_rows width mismatch");
                rows += t.numel() / cols;
            }
            let mut out = Vec::with_capacity(rows * cols);
            for t in &values {
                out.extend_from_slice(t.data());
            }
            Tensor::new([rows, cols], out)
        };
        self.push(out, Op::ConcatRows(parts.iter().map(|v| v.id).collect()))
    }
}

macro_rules! unary_op {
    ($name:ident, $variant:ident, $f:expr) => {
        /// Elementwise op.
        pub fn $name(&self) -> Var {
            let out = {
                let inner = self.graph.inner.borrow();
                let x = &inner.nodes[self.id].value;
                let data = x.data().iter().map(|&v| $f(v)).collect();
                Tensor::new(x.dims(), data)
            };
            self.graph.push(out, Op::$variant(self.id))
        }
    };
}

impl Var {
    /// Elementwise addition (same shape).
    pub fn add(&self, other: &Var) -> Var {
        self.same_graph(other);
        let out = {
            let inner = self.graph.inner.borrow();
            let a = &inner.nodes[self.id].value;
            let b = &inner.nodes[other.id].value;
            assert_eq!(a.shape(), b.shape(), "add shape mismatch");
            let data = a.data().iter().zip(b.data()).map(|(&x, &y)| x + y).collect();
            Tensor::new(a.dims(), data)
        };
        self.graph.push(out, Op::Add(self.id, other.id))
    }

    /// Elementwise subtraction (same shape).
    pub fn sub(&self, other: &Var) -> Var {
        self.same_graph(other);
        let out = {
            let inner = self.graph.inner.borrow();
            let a = &inner.nodes[self.id].value;
            let b = &inner.nodes[other.id].value;
            assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
            let data = a.data().iter().zip(b.data()).map(|(&x, &y)| x - y).collect();
            Tensor::new(a.dims(), data)
        };
        self.graph.push(out, Op::Sub(self.id, other.id))
    }

    /// Elementwise product (same shape).
    pub fn mul(&self, other: &Var) -> Var {
        self.same_graph(other);
        let out = {
            let inner = self.graph.inner.borrow();
            let a = &inner.nodes[self.id].value;
            let b = &inner.nodes[other.id].value;
            assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
            let data = a.data().iter().zip(b.data()).map(|(&x, &y)| x * y).collect();
            Tensor::new(a.dims(), data)
        };
        self.graph.push(out, Op::Mul(self.id, other.id))
    }

    /// Adds a rank-1 bias, broadcast over all leading dims.
    pub fn add_bias(&self, bias: &Var) -> Var {
        self.same_graph(bias);
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let b = &inner.nodes[bias.id].value;
            let n = b.numel();
            assert_eq!(x.shape().last().copied().unwrap_or(1), n, "bias width mismatch");
            let data =
                x.data().iter().enumerate().map(|(i, &v)| v + b.data()[i % n]).collect();
            Tensor::new(x.dims(), data)
        };
        self.graph.push(out, Op::AddBias { x: self.id, bias: bias.id })
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, c: f32) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let data = x.data().iter().map(|&v| v * c).collect();
            Tensor::new(x.dims(), data)
        };
        self.graph.push(out, Op::Scale { x: self.id, c })
    }

    /// `x + w·I` for a square matrix `x` and scalar variable `w`.
    pub fn add_scaled_identity(&self, w: &Var) -> Var {
        self.same_graph(w);
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            assert_eq!(x.rank(), 2);
            let n = x.shape()[0];
            assert_eq!(x.shape()[1], n, "add_scaled_identity needs a square matrix");
            let wv = inner.nodes[w.id].value.item();
            let mut out = x.clone();
            for i in 0..n {
                out.data_mut()[i * n + i] += wv;
            }
            out
        };
        self.graph.push(out, Op::AddScaledIdentity { x: self.id, w: w.id })
    }

    /// `a (…, k) × b (k, n)`, flattening `a`'s leading dims.
    pub fn matmul(&self, other: &Var) -> Var {
        self.same_graph(other);
        let out = {
            let inner = self.graph.inner.borrow();
            let a = &inner.nodes[self.id].value;
            let b = &inner.nodes[other.id].value;
            assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
            let (m, k) = shape::rows_cols(a.shape());
            assert_eq!(
                k,
                b.shape()[0],
                "matmul inner-dim mismatch {:?} x {:?}",
                a.shape(),
                b.shape()
            );
            let n = b.shape()[1];
            let mut out = vec![0.0; m * n];
            kernels::matmul_acc(a.data(), b.data(), &mut out, m, k, n);
            Tensor::new(a.dims().with_last(n), out)
        };
        self.graph.push(out, Op::MatMul(self.id, other.id))
    }

    /// `(B, M, K) × (B, K, N)` batched matmul.
    pub fn batch_matmul(&self, other: &Var) -> Var {
        self.same_graph(other);
        let out = {
            let inner = self.graph.inner.borrow();
            let a = &inner.nodes[self.id].value;
            let b = &inner.nodes[other.id].value;
            assert_eq!(a.rank(), 3);
            assert_eq!(b.rank(), 3);
            let (bb, m, k, n) = shape::batch_matmul_dims(a.shape(), b.shape());
            let mut out = vec![0.0; bb * m * n];
            kernels::batch_matmul_acc(a.data(), b.data(), &mut out, bb, m, k, n);
            Tensor::new([bb, m, n], out)
        };
        self.graph.push(out, Op::BatchMatMul(self.id, other.id))
    }

    /// Swaps the last two axes (materialized copy).
    pub fn transpose_last2(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let s = x.shape();
            let (b, m, n) = match s.len() {
                2 => (1, s[0], s[1]),
                3 => (s[0], s[1], s[2]),
                _ => panic!("transpose_last2 rank {s:?}"),
            };
            let mut out = vec![0.0; x.numel()];
            for t in 0..b {
                for i in 0..m {
                    for j in 0..n {
                        out[t * m * n + j * m + i] = x.data()[t * m * n + i * n + j];
                    }
                }
            }
            Tensor::new(x.dims().swapped_last2(), out)
        };
        self.graph.push(out, Op::TransposeLast2(self.id))
    }

    /// Swaps axes 0 and 1 of a rank-3 tensor (materialized copy).
    pub fn swap_axes01(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let s = x.shape();
            assert_eq!(s.len(), 3, "swap_axes01 needs rank 3");
            let (a, b, c) = (s[0], s[1], s[2]);
            let mut out = Vec::with_capacity(x.numel());
            for j in 0..b {
                for i in 0..a {
                    out.extend_from_slice(&x.data()[(i * b + j) * c..(i * b + j + 1) * c]);
                }
            }
            Tensor::new([b, a, c], out)
        };
        self.graph.push(out, Op::SwapAxes01(self.id))
    }

    /// Reinterprets the data with a new shape of equal element count.
    pub fn reshape(&self, new_shape: &[usize]) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            assert_eq!(shape::numel(new_shape), x.numel(), "reshape to incompatible {new_shape:?}");
            Tensor::new(new_shape, x.data().to_vec())
        };
        self.graph.push(out, Op::Reshape(self.id))
    }

    /// Gathers rows of a rank-2 tensor (duplicates allowed).
    pub fn select_rows(&self, idx: &[u32]) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            assert_eq!(x.rank(), 2, "select_rows needs rank 2");
            let cols = x.shape()[1];
            let mut out = Vec::with_capacity(idx.len() * cols);
            for &r in idx {
                out.extend_from_slice(x.row(r as usize));
            }
            Tensor::new([idx.len(), cols], out)
        };
        self.graph.push(out, Op::SelectRows { x: self.id, idx: idx.to_vec() })
    }

    unary_op!(relu, Relu, |v: f32| v.max(0.0));
    /// Elementwise tanh-approximation GELU, through the (vectorizable)
    /// slice kernel rather than the scalar-closure macro.
    pub fn gelu(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let mut data = vec![0.0; x.numel()];
            kernels::gelu_slice(x.data(), &mut data);
            Tensor::new(x.dims(), data)
        };
        self.graph.push(out, Op::Gelu(self.id))
    }
    /// Elementwise tanh, through the (vectorizable) slice kernel.
    pub fn tanh_(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let mut data = vec![0.0; x.numel()];
            kernels::tanh_slice(x.data(), &mut data);
            Tensor::new(x.dims(), data)
        };
        self.graph.push(out, Op::Tanh(self.id))
    }
    unary_op!(sigmoid, Sigmoid, |v: f32| 1.0 / (1.0 + (-v).exp()));

    /// Softmax over the last axis.
    pub fn softmax_last(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let (rows, cols) = shape::rows_cols(x.shape());
            let mut out = vec![0.0; x.numel()];
            kernels::softmax_rows(x.data(), &mut out, rows, cols);
            Tensor::new(x.dims(), out)
        };
        self.graph.push(out, Op::SoftmaxLast(self.id))
    }

    /// Log-softmax over the last axis.
    pub fn log_softmax_last(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let (rows, cols) = shape::rows_cols(x.shape());
            let mut out = vec![0.0; x.numel()];
            kernels::log_softmax_rows(x.data(), &mut out, rows, cols);
            Tensor::new(x.dims(), out)
        };
        self.graph.push(out, Op::LogSoftmaxLast(self.id))
    }

    /// Sum of all elements (scalar).
    pub fn sum_all(&self) -> Var {
        let s: f32 = {
            let inner = self.graph.inner.borrow();
            inner.nodes[self.id].value.data().iter().sum()
        };
        self.graph.push(Tensor::scalar(s), Op::SumAll(self.id))
    }

    /// Mean of all elements (scalar).
    pub fn mean_all(&self) -> Var {
        let s: f32 = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            x.data().iter().sum::<f32>() / x.numel() as f32
        };
        self.graph.push(Tensor::scalar(s), Op::MeanAll(self.id))
    }

    /// Mean over rows: `(m, n) -> (n,)`.
    pub fn mean_rows(&self) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            assert_eq!(x.rank(), 2, "mean_rows needs rank 2");
            let (m, n) = (x.shape()[0], x.shape()[1]);
            let mut out = vec![0.0; n];
            for r in 0..m {
                for (o, &v) in out.iter_mut().zip(x.row(r)) {
                    *o += v;
                }
            }
            out.iter_mut().for_each(|v| *v /= m as f32);
            Tensor::new([n], out)
        };
        self.graph.push(out, Op::MeanRows(self.id))
    }

    /// Per-segment mean over contiguous row groups: `(Σlens, n) -> (C, n)`.
    ///
    /// Segment `c` covers `lens[c]` consecutive rows; its output row is the
    /// arithmetic mean of those rows, accumulated row-by-row in segment order
    /// and divided by the length — the exact accumulation order of
    /// [`Var::mean_rows`] applied to the segment's rows on their own, so a
    /// ragged mean over stacked bags is bit-identical to per-bag `mean_rows`
    /// calls. A zero-length segment divides 0 by 0 and yields NaN, matching
    /// `mean_rows` on an empty input.
    pub fn mean_rows_segments(&self, lens: &[usize]) -> Var {
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            assert_eq!(x.rank(), 2, "mean_rows_segments needs rank 2");
            let n = x.shape()[1];
            let total: usize = lens.iter().sum();
            assert_eq!(x.shape()[0], total, "mean_rows_segments: lens do not cover the rows");
            let mut out = vec![0.0; lens.len() * n];
            let mut row = 0;
            for (c, &len) in lens.iter().enumerate() {
                let orow = &mut out[c * n..(c + 1) * n];
                for _ in 0..len {
                    for (o, &v) in orow.iter_mut().zip(x.row(row)) {
                        *o += v;
                    }
                    row += 1;
                }
                orow.iter_mut().for_each(|v| *v /= len as f32);
            }
            Tensor::new([lens.len(), n], out)
        };
        self.graph.push(out, Op::MeanRowsSegments { x: self.id, lens: lens.to_vec() })
    }

    /// Elementwise maximum of two same-shape tensors (ties route to `self`).
    pub fn maximum(&self, other: &Var) -> Var {
        self.same_graph(other);
        let out = {
            let inner = self.graph.inner.borrow();
            let a = &inner.nodes[self.id].value;
            let b = &inner.nodes[other.id].value;
            assert_eq!(a.shape(), b.shape(), "maximum shape mismatch");
            let data = a.data().iter().zip(b.data()).map(|(&x, &y)| x.max(y)).collect();
            Tensor::new(a.dims(), data)
        };
        self.graph.push(out, Op::Maximum(self.id, other.id))
    }

    /// Inverted dropout; identity when the graph is in inference mode or
    /// `p == 0`.
    pub fn dropout(&self, p: f32) -> Var {
        if p <= 0.0 || !self.graph.training() {
            return self.scale(1.0);
        }
        let keep = 1.0 - p;
        let (out, mask) = {
            let mut inner = self.graph.inner.borrow_mut();
            let inner = &mut *inner;
            let x = &inner.nodes[self.id].value;
            let rng = &mut inner.rng;
            let mask: Vec<f32> = (0..x.numel())
                .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
                .collect();
            let data = x.data().iter().zip(&mask).map(|(&v, &mv)| v * mv).collect();
            (Tensor::new(x.dims(), data), mask)
        };
        self.graph.push(out, Op::Dropout { x: self.id, mask })
    }

    /// Layer norm over the last axis with affine `gamma`/`beta` (rank-1 vars).
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        self.same_graph(gamma);
        self.same_graph(beta);
        let out = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let g = &inner.nodes[gamma.id].value;
            let b = &inner.nodes[beta.id].value;
            let (rows, cols) = shape::rows_cols(x.shape());
            assert_eq!(g.numel(), cols);
            assert_eq!(b.numel(), cols);
            let mut out = vec![0.0; x.numel()];
            kernels::layer_norm_rows(x.data(), g.data(), b.data(), &mut out, rows, cols, eps);
            Tensor::new(x.dims(), out)
        };
        self.graph.push(
            out,
            Op::LayerNorm { x: self.id, gamma: gamma.id, beta: beta.id, eps },
        )
    }

    /// Mean cross-entropy of row logits against integer targets (scalar).
    pub fn cross_entropy_rows(&self, targets: &[u32]) -> Var {
        let loss = {
            let inner = self.graph.inner.borrow();
            let x = &inner.nodes[self.id].value;
            let (rows, cols) = shape::rows_cols(x.shape());
            assert_eq!(rows, targets.len(), "one target per logit row");
            let mut ls = vec![0.0; rows * cols];
            kernels::log_softmax_rows(x.data(), &mut ls, rows, cols);
            let mut loss = 0.0;
            for (r, &t) in targets.iter().enumerate() {
                assert!((t as usize) < cols, "target {t} out of range {cols}");
                loss -= ls[r * cols + t as usize];
            }
            loss / rows as f32
        };
        self.graph.push(
            Tensor::scalar(loss),
            Op::CrossEntropyRows { logits: self.id, targets: targets.to_vec() },
        )
    }
}

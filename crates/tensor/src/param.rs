//! Trainable parameter storage, kept outside the autograd tape.
//!
//! Small dense parameters (linear weights, scalars) enter the tape by value;
//! embedding tables enter only through row gathers. Backward accumulates into
//! [`Param::grad`], and for gathers also records touched rows so optimizers
//! can update only those rows (row-sparse "lazy" Adam).

use crate::tensor::Tensor;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One trainable tensor with its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Human-readable name, used for size accounting and debugging.
    pub name: String,
    /// Current value.
    pub data: Tensor,
    /// Accumulated gradient; same shape as `data`.
    pub grad: Tensor,
    /// Rows touched by sparse (gather) backward since the last `zero_grad`.
    /// Empty for parameters only used densely.
    pub touched_rows: Vec<u32>,
    /// If `true` the whole gradient is dense this step (a dense op consumed
    /// the parameter), so sparse optimizers must fall back to a full update.
    pub dense_touched: bool,
    /// Frozen parameters are skipped by optimizers.
    pub frozen: bool,
}

impl Param {
    fn new(name: String, data: Tensor) -> Self {
        let grad = Tensor::zeros(data.shape());
        Self { name, data, grad, touched_rows: Vec::new(), dense_touched: false, frozen: false }
    }
}

/// Store of all trainable parameters of a model.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
    /// Bumped on every mutable access to parameter values. Caches keyed on
    /// the weights (the inference entity-payload plane) compare this stamp
    /// to detect staleness; spurious bumps (e.g. gradient accumulation) only
    /// cost a conservative rebuild, never a stale read.
    version: u64,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, data: Tensor) -> ParamId {
        self.params.push(Param::new(name.into(), data));
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Immutable access.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access. Bumps the store [`version`](Self::version).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        self.version = self.version.wrapping_add(1);
        &mut self.params[id.0]
    }

    /// Iterates over `(ParamId, &Param)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterates mutably over `(ParamId, &mut Param)`. Bumps the store
    /// [`version`](Self::version).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Param)> {
        self.version = self.version.wrapping_add(1);
        self.params.iter_mut().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Monotonic stamp of parameter-value mutations: any `get_mut`/`iter_mut`
    /// since construction changes it. Weight-derived caches store the stamp
    /// they were built at and rebuild when it moves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Clears all gradients and touch-tracking, keeping allocations.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            // Only rewrite rows we actually touched when the grad was sparse;
            // dense grads are cleared wholesale.
            if p.dense_touched {
                p.grad.zero_();
            } else if !p.touched_rows.is_empty() {
                // The same row is gathered once per occurrence (popular
                // entities appear in many mentions), so dedup before zeroing
                // rather than rewriting a row per duplicate. touched_rows is
                // cleared below, so reordering it is unobservable.
                p.touched_rows.sort_unstable();
                p.touched_rows.dedup();
                let cols = p.grad.shape().last().copied().unwrap_or(1);
                let rows_total = p.grad.numel() / cols.max(1);
                for &r in &p.touched_rows {
                    let r = r as usize;
                    if r < rows_total {
                        let start = r * cols;
                        p.grad.data_mut()[start..start + cols].iter_mut().for_each(|x| *x = 0.0);
                    }
                }
            }
            p.touched_rows.clear();
            p.dense_touched = false;
        }
    }

    /// Total number of scalar parameters (optionally only trainable ones).
    pub fn num_scalars(&self, trainable_only: bool) -> usize {
        self.params
            .iter()
            .filter(|p| !trainable_only || !p.frozen)
            .map(|p| p.data.numel())
            .sum()
    }

    /// Size in bytes of all parameter values matching a name predicate
    /// (f32 storage). Used for the Table 10 model-size accounting.
    pub fn bytes_where(&self, mut pred: impl FnMut(&str) -> bool) -> usize {
        self.params.iter().filter(|p| pred(&p.name)).map(|p| p.data.numel() * 4).sum()
    }

    /// Global gradient L2 norm across all trainable parameters.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .filter(|p| !p.frozen)
            .map(|p| p.grad.sq_norm())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every trainable gradient by `c` (used for clipping).
    pub fn scale_grads(&mut self, c: f32) {
        for p in &mut self.params {
            if !p.frozen {
                p.grad.scale_assign(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::zeros(&[2, 3]));
        assert_eq!(ps.get(id).data.shape(), &[2, 3]);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn zero_grad_clears_dense() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::zeros(&[2, 2]));
        ps.get_mut(id).grad = Tensor::full(&[2, 2], 3.0);
        ps.get_mut(id).dense_touched = true;
        ps.zero_grad();
        assert_eq!(ps.get(id).grad.data(), &[0.0; 4]);
        assert!(!ps.get(id).dense_touched);
    }

    #[test]
    fn zero_grad_clears_touched_rows_only_tracking() {
        let mut ps = ParamStore::new();
        let id = ps.add("emb", Tensor::zeros(&[10, 4]));
        // Simulate a sparse touch of row 3.
        {
            let p = ps.get_mut(id);
            p.grad.data_mut()[12..16].iter_mut().for_each(|x| *x = 1.0);
            p.touched_rows.push(3);
        }
        ps.zero_grad();
        assert!(ps.get(id).grad.data().iter().all(|&x| x == 0.0));
        assert!(ps.get(id).touched_rows.is_empty());
    }

    #[test]
    fn num_scalars_counts() {
        let mut ps = ParamStore::new();
        ps.add("a", Tensor::zeros(&[2, 3]));
        let b = ps.add("b", Tensor::zeros(&[5]));
        assert_eq!(ps.num_scalars(false), 11);
        ps.get_mut(b).frozen = true;
        assert_eq!(ps.num_scalars(true), 6);
    }

    #[test]
    fn bytes_where_filters_by_name() {
        let mut ps = ParamStore::new();
        ps.add("embedding.entity", Tensor::zeros(&[100, 8]));
        ps.add("net.w", Tensor::zeros(&[8, 8]));
        assert_eq!(ps.bytes_where(|n| n.starts_with("embedding")), 100 * 8 * 4);
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut ps = ParamStore::new();
        let id = ps.add("w", Tensor::zeros(&[2]));
        ps.get_mut(id).grad = Tensor::from_slice(&[3.0, 4.0]);
        assert!((ps.grad_norm() - 5.0).abs() < 1e-6);
        ps.scale_grads(0.5);
        assert_eq!(ps.get(id).grad.data(), &[1.5, 2.0]);
    }
}

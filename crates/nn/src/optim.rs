//! Adam optimizer (Kingma & Ba 2015) with row-sparse updates for embeddings.
//!
//! The paper trains with Adam at lr 1e-4 (Appendix B). Our embedding tables
//! only receive gradients on gathered rows, tracked by
//! [`bootleg_tensor::ParamStore`]; for those parameters we apply a "lazy"
//! Adam update touching only those rows, which keeps per-step cost
//! proportional to batch size rather than vocabulary size.

use bootleg_tensor::frozen::{
    push_f32_bytes, Builder, Cursor, FrozenError, FrozenReader, FrozenWriter,
};
use bootleg_tensor::{ParamStore, Tensor};

/// Checkpoint section holding the step count and learning-rate bits.
pub const SECTION_ADAM_STEP: &str = "ADAMSTEP";
/// Checkpoint section holding the first moments, one f32 blob in
/// parameter order.
pub const SECTION_ADAM_M: &str = "ADAMMF32";
/// Checkpoint section holding the second moments, laid out like
/// [`SECTION_ADAM_M`].
pub const SECTION_ADAM_V: &str = "ADAMVF32";

/// Adam state and hyperparameters.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer matching `store`'s current parameter set.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        let m = store.iter().map(|(_, p)| Tensor::zeros(p.data.shape())).collect();
        let v = store.iter().map(|(_, p)| Tensor::zeros(p.data.shape())).collect();
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m, v }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Adds the full optimizer state (step count, learning rate, and both
    /// moment vectors) to a checkpoint. Restoring it with
    /// [`Adam::restore_state`] makes a resumed run bit-identical to one that
    /// never stopped. The moments carry no shapes of their own: they follow
    /// the parameter order and shapes of the store the optimizer was built
    /// for, which the checkpoint's parameter manifest records.
    pub fn add_state(&self, w: &mut FrozenWriter) {
        let mut counters = Builder::new();
        counters.u64s(&[self.t, self.lr.to_bits() as u64]);
        w.add(SECTION_ADAM_STEP, counters.into_bytes());
        for (id, moments) in [(SECTION_ADAM_M, &self.m), (SECTION_ADAM_V, &self.v)] {
            let mut blob = Vec::with_capacity(moments.iter().map(|t| t.numel() * 4).sum());
            for t in moments {
                push_f32_bytes(&mut blob, t.data());
            }
            w.add(id, blob);
        }
    }

    /// Restores state written by [`Adam::add_state`], all or nothing: the
    /// moments land in fresh tensors that replace this optimizer's only
    /// once both blobs have been read and their CRCs matched. Fails with a
    /// typed error, leaving the optimizer untouched, if a section is
    /// missing, malformed or changed since the reader opened it, or the
    /// moment blobs do not match this optimizer's parameter set (i.e. the
    /// checkpoint came from a different model).
    pub fn restore_state(&mut self, reader: &FrozenReader) -> Result<(), FrozenError> {
        let counters = reader.require(SECTION_ADAM_STEP)?;
        let mut c = Cursor::new(SECTION_ADAM_STEP, &counters);
        let counters = c.u64s(2)?;
        c.finish()?;
        let [t, lr_bits] = counters[..] else {
            let what = format!("{} counters, want 2", counters.len());
            return Err(FrozenError::schema(SECTION_ADAM_STEP, what));
        };
        let lr_bits = u32::try_from(lr_bits).map_err(|_| {
            FrozenError::schema(SECTION_ADAM_STEP, format!("lr bits {lr_bits:#x} exceed 32"))
        })?;
        let read = |id: &str, like: &[Tensor]| -> Result<Vec<Tensor>, FrozenError> {
            let mut moments: Vec<Tensor> = like.iter().map(|t| Tensor::zeros(t.shape())).collect();
            let mut dests: Vec<&mut [f32]> = moments.iter_mut().map(Tensor::data_mut).collect();
            reader.read_f32s(id, &mut dests)?;
            Ok(moments)
        };
        let m = read(SECTION_ADAM_M, &self.m)?;
        let v = read(SECTION_ADAM_V, &self.v)?;
        self.t = t;
        self.lr = f32::from_bits(lr_bits);
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one update. Parameters with only sparse (row) touches get a
    /// lazy row-sparse update; densely-touched parameters get a full update;
    /// untouched or frozen parameters are skipped.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let lr_t = self.lr * bc2.sqrt() / bc1;

        for (idx, (_, p)) in store.iter_mut().enumerate() {
            if p.frozen {
                continue;
            }
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            if p.dense_touched {
                let n = p.data.numel();
                adam_update_range(
                    p.data.data_mut(),
                    p.grad.data(),
                    m.data_mut(),
                    v.data_mut(),
                    0,
                    n,
                    self.beta1,
                    self.beta2,
                    self.eps,
                    lr_t,
                );
            } else if !p.touched_rows.is_empty() {
                let cols = p.data.shape().last().copied().unwrap_or(1);
                let mut rows: Vec<u32> = p.touched_rows.clone();
                rows.sort_unstable();
                rows.dedup();
                for r in rows {
                    let start = r as usize * cols;
                    adam_update_range(
                        p.data.data_mut(),
                        p.grad.data(),
                        m.data_mut(),
                        v.data_mut(),
                        start,
                        cols,
                        self.beta1,
                        self.beta2,
                        self.eps,
                        lr_t,
                    );
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn adam_update_range(
    data: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    start: usize,
    len: usize,
    beta1: f32,
    beta2: f32,
    eps: f32,
    lr_t: f32,
) {
    // `grad` already contains the accumulated (summed) gradient.
    // Bias correction is folded into lr_t by the caller.
    for i in start..start + len {
        let g = grad[i];
        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
        data[i] -= lr_t * m[i] / (v[i].sqrt() + eps);
    }
}

/// Clips the global gradient norm to `max_norm`; returns the pre-clip norm.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
    let norm = store.grad_norm();
    if norm > max_norm && norm > 0.0 {
        store.scale_grads(max_norm / norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_tensor::Graph;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)^2 elementwise
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::zeros(&[4]));
        let mut opt = Adam::new(&ps, 0.1);
        for _ in 0..200 {
            let g = Graph::new();
            let wv = g.dense_param(&ps, w);
            let target = g.leaf(Tensor::full(&[4], 3.0));
            let d = wv.sub(&target);
            let loss = d.mul(&d).mean_all();
            g.backward(&loss, &mut ps);
            opt.step(&mut ps);
            ps.zero_grad();
        }
        for &x in ps.get(w).data.data() {
            assert!((x - 3.0).abs() < 0.05, "w={x}");
        }
    }

    #[test]
    fn sparse_rows_update_only_touched() {
        let mut ps = ParamStore::new();
        let emb = ps.add("emb", Tensor::zeros(&[4, 2]));
        let mut opt = Adam::new(&ps, 0.1);
        let g = Graph::new();
        let rows = g.gather_rows(&ps, emb, &[1, 3]);
        let loss = rows.sum_all();
        g.backward(&loss, &mut ps);
        opt.step(&mut ps);
        let data = ps.get(emb).data.clone();
        assert_eq!(data.row(0), &[0.0, 0.0]);
        assert_eq!(data.row(2), &[0.0, 0.0]);
        assert!(data.row(1)[0] < 0.0, "touched row must move against grad");
        assert!(data.row(3)[0] < 0.0);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::full(&[2], 1.0));
        ps.get_mut(w).frozen = true;
        let mut opt = Adam::new(&ps, 0.5);
        let g = Graph::new();
        let wv = g.dense_param(&ps, w);
        let loss = wv.mul(&wv).sum_all();
        g.backward(&loss, &mut ps);
        opt.step(&mut ps);
        assert_eq!(ps.get(w).data.data(), &[1.0, 1.0]);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::zeros(&[2]));
        ps.get_mut(w).grad = Tensor::from_slice(&[30.0, 40.0]);
        let pre = clip_grad_norm(&mut ps, 5.0);
        assert!((pre - 50.0).abs() < 1e-4);
        assert!((ps.grad_norm() - 5.0).abs() < 1e-3);
    }

    fn state_reader(opt: &Adam) -> FrozenReader {
        let mut w = FrozenWriter::new();
        opt.add_state(&mut w);
        FrozenReader::from_bytes(w.to_bytes()).expect("valid container")
    }

    #[test]
    fn state_roundtrip_resumes_bit_exact() {
        // Two optimizers: one runs 20 steps straight; the other runs 10,
        // checkpoints, is rebuilt fresh, restores, and runs 10 more.
        // Parameters must be bit-identical at the end.
        let build = || {
            let mut ps = ParamStore::new();
            let w = ps.add("w", Tensor::full(&[4], 2.0));
            (ps, w)
        };
        let step = |ps: &mut ParamStore, w, opt: &mut Adam| {
            let g = Graph::new();
            let wv = g.dense_param(ps, w);
            let loss = wv.mul(&wv).sum_all();
            g.backward(&loss, ps);
            opt.step(ps);
            ps.zero_grad();
        };

        let (mut ps_a, w_a) = build();
        let mut opt_a = Adam::new(&ps_a, 0.05);
        for _ in 0..20 {
            step(&mut ps_a, w_a, &mut opt_a);
        }

        let (mut ps_b, w_b) = build();
        let mut opt_b = Adam::new(&ps_b, 0.05);
        for _ in 0..10 {
            step(&mut ps_b, w_b, &mut opt_b);
        }
        let state = state_reader(&opt_b);
        let mut opt_c = Adam::new(&ps_b, 999.0); // wrong lr, overwritten by restore
        opt_c.restore_state(&state).expect("restore");
        assert_eq!(opt_c.steps(), 10);
        for _ in 0..10 {
            step(&mut ps_b, w_b, &mut opt_c);
        }
        assert_eq!(ps_a.get(w_a).data.data(), ps_b.get(w_b).data.data());
    }

    #[test]
    fn restore_rejects_mismatched_shapes_and_garbage() {
        let mut ps = ParamStore::new();
        ps.add("w", Tensor::zeros(&[4]));
        let opt = Adam::new(&ps, 0.1);
        let mut w = FrozenWriter::new();
        opt.add_state(&mut w);
        let bytes = w.to_bytes();
        let state = FrozenReader::from_bytes(bytes.clone()).expect("valid container");

        let mut other_ps = ParamStore::new();
        other_ps.add("w", Tensor::zeros(&[8]));
        let mut other = Adam::new(&other_ps, 0.1);
        assert!(other.restore_state(&state).is_err(), "shape mismatch must fail");
        assert_eq!(other.lr, 0.1, "a failed restore leaves the optimizer untouched");

        // Truncated or garbage bytes never become a reader; a container
        // without the optimizer sections is a typed error.
        assert!(FrozenReader::from_bytes(bytes[..bytes.len() / 2].to_vec()).is_err());
        assert!(FrozenReader::from_bytes(b"garbage".to_vec()).is_err());
        let empty = FrozenReader::from_bytes(FrozenWriter::new().to_bytes()).expect("empty");
        let mut same = Adam::new(&ps, 0.1);
        assert!(matches!(same.restore_state(&empty), Err(FrozenError::SectionMissing { .. })));
        same.restore_state(&state).expect("intact state restores");
    }

    #[test]
    fn duplicate_touched_rows_update_once() {
        let mut ps = ParamStore::new();
        let emb = ps.add("emb", Tensor::zeros(&[2, 1]));
        let mut opt = Adam::new(&ps, 0.1);
        let g = Graph::new();
        // Gather row 0 twice: gradient doubles, but the row updates once.
        let rows = g.gather_rows(&ps, emb, &[0, 0]);
        let loss = rows.sum_all();
        g.backward(&loss, &mut ps);
        assert_eq!(ps.get(emb).grad.data()[0], 2.0);
        opt.step(&mut ps);
        let after = ps.get(emb).data.data()[0];
        // One Adam step of magnitude ~lr regardless of gradient scale.
        assert!((after + 0.1).abs() < 0.02, "after={after}");
    }
}

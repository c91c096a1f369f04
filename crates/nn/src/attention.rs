//! Multi-head attention blocks and additive attention pooling.

use crate::linear::Linear;
use crate::norm::LayerNorm;
use bootleg_tensor::{Graph, ParamStore, Tensor, Var};
use rand::Rng;

/// The paper's "standard multi-headed attention with a feed-forward layer and
/// skip connections" (§3.2). With `kv = None` it is self-attention (Ent2Ent);
/// with `kv = Some(w)` it is cross-attention from entities to words
/// (Phrase2Ent).
#[derive(Debug, Clone, Copy)]
pub struct MhaBlock {
    n_heads: usize,
    d_head: usize,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ln1: LayerNorm,
    ffn1: Linear,
    ffn2: Linear,
    ln2: LayerNorm,
    dropout: f32,
}

impl MhaBlock {
    /// Registers a block over hidden width `d` with `n_heads` heads and a
    /// feed-forward expansion of `ffn_mult`.
    pub fn new<R: Rng>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d: usize,
        n_heads: usize,
        ffn_mult: usize,
        dropout: f32,
    ) -> Self {
        assert_eq!(d % n_heads, 0, "hidden dim {d} not divisible by heads {n_heads}");
        Self {
            n_heads,
            d_head: d / n_heads,
            wq: Linear::new(ps, rng, &format!("{name}.wq"), d, d, false),
            wk: Linear::new(ps, rng, &format!("{name}.wk"), d, d, false),
            wv: Linear::new(ps, rng, &format!("{name}.wv"), d, d, false),
            wo: Linear::new(ps, rng, &format!("{name}.wo"), d, d, true),
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), d),
            ffn1: Linear::new(ps, rng, &format!("{name}.ffn1"), d, d * ffn_mult, true),
            ffn2: Linear::new(ps, rng, &format!("{name}.ffn2"), d * ffn_mult, d, true),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), d),
            dropout,
        }
    }

    /// `x` is `(S, d)`; `kv` (if given) is `(N, d)`. Returns `(S, d)`: the
    /// one-span call of [`MhaBlock::forward_ragged`].
    pub fn forward(&self, g: &Graph, ps: &ParamStore, x: &Var, kv: Option<&Var>) -> Var {
        let s = x.shape()[0];
        let n = kv.map_or(s, |kv| kv.shape()[0]);
        self.forward_ragged(g, ps, x, kv, &[(0, s)], &[(0, n)])
    }

    /// Ragged-batched forward over B examples stacked by rows. `x` is the
    /// row-concatenation of B per-example `(S_i, d)` matrices and `kv` (if
    /// given) the concatenation of the matching `(N_i, d)` key/value
    /// matrices; `q_spans[i]` / `kv_spans[i]` are each example's contiguous
    /// `(start, len)` row ranges.
    ///
    /// The projections, output head, FFN and both LayerNorms are row-wise,
    /// so they run once on the tall concatenated matrices; only the
    /// attention core (scores / softmax / context) runs per example, on row
    /// slices, which keeps cross-example attention impossible. Every row of
    /// the result is bit-identical to running that example alone:
    /// row-wise kernels accumulate per row regardless of how rows are
    /// stacked, and the per-example core replays the exact same op sequence
    /// on bitwise-equal inputs. A single span covers every row, so it takes
    /// the projections as they are instead of identity row copies, and its
    /// tape (and so its gradient summation order) is the plain one-example
    /// op sequence.
    ///
    /// On a training tape, dropout is applied to the attention weights, the
    /// output head and the FFN output, in that order.
    pub fn forward_ragged(
        &self,
        g: &Graph,
        ps: &ParamStore,
        x: &Var,
        kv: Option<&Var>,
        q_spans: &[(usize, usize)],
        kv_spans: &[(usize, usize)],
    ) -> Var {
        assert_eq!(q_spans.len(), kv_spans.len(), "one kv span per query span");
        assert!(!q_spans.is_empty(), "ragged attention needs at least one example");
        let d = self.n_heads * self.d_head;
        let kv_var = kv.unwrap_or(x);
        let single = q_spans.len() == 1;

        // One tall projection each for Q/K/V over every example's rows.
        let _sp = bootleg_obs::span!("mha_proj");
        let q_full = self.wq.forward(g, ps, x);
        let k_full = self.wk.forward(g, ps, kv_var);
        let v_full = self.wv.forward(g, ps, kv_var);
        drop(_sp);
        let _sc = bootleg_obs::span!("mha_cores");
        let scale = 1.0 / (self.d_head as f32).sqrt();
        let span_rows = |full: &Var, start: usize, len: usize| -> Var {
            if single {
                full.clone()
            } else {
                full.select_rows(&(start..start + len).map(|r| r as u32).collect::<Vec<_>>())
            }
        };
        let mut ctx_parts: Vec<Var> = Vec::with_capacity(q_spans.len());
        for (&(qs, ql), &(ks, kl)) in q_spans.iter().zip(kv_spans) {
            let q =
                span_rows(&q_full, qs, ql).reshape(&[ql, self.n_heads, self.d_head]).swap_axes01();
            let k =
                span_rows(&k_full, ks, kl).reshape(&[kl, self.n_heads, self.d_head]).swap_axes01();
            let v =
                span_rows(&v_full, ks, kl).reshape(&[kl, self.n_heads, self.d_head]).swap_axes01();
            let scores = q.batch_matmul(&k.transpose_last2()).scale(scale); // (nh,S,N)
            let attn = self.train_dropout(g, scores.softmax_last());
            ctx_parts.push(attn.batch_matmul(&v).swap_axes01().reshape(&[ql, d]));
        }
        drop(_sc);
        let _sm = bootleg_obs::span!("mha_merge");
        let merged = match ctx_parts.as_slice() {
            [one] => one.clone(),
            parts => g.concat_rows(&parts.iter().collect::<Vec<_>>()),
        };

        // Residual + LN, then FFN residual + LN.
        let out = self.train_dropout(g, self.wo.forward(g, ps, &merged));
        let h = self.ln1.forward(g, ps, &x.add(&out));
        let f = self.ffn1.forward(g, ps, &h).gelu();
        let f = self.train_dropout(g, self.ffn2.forward(g, ps, &f));
        self.ln2.forward(g, ps, &h.add(&f))
    }

    /// Dropout on a training tape; elsewhere the op would only copy `x`.
    fn train_dropout(&self, g: &Graph, x: Var) -> Var {
        if g.training() {
            x.dropout(self.dropout)
        } else {
            x
        }
    }
}

/// Bahdanau additive attention pooling a bag `(T, d_in)` into `(1, d_in)`:
/// `score_i = vᵀ tanh(W xᵢ)`, `out = Σ softmax(score)_i · xᵢ` (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct AddAttn {
    proj: Linear,
    score: Linear,
}

impl AddAttn {
    /// Registers additive attention with an internal width `d_att`.
    pub fn new<R: Rng>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d_in: usize,
        d_att: usize,
    ) -> Self {
        Self {
            proj: Linear::new(ps, rng, &format!("{name}.proj"), d_in, d_att, true),
            score: Linear::new(ps, rng, &format!("{name}.score"), d_att, 1, false),
        }
    }

    /// Pools `bag` of shape `(T, d_in)` into `(1, d_in)`.
    pub fn forward(&self, g: &Graph, ps: &ParamStore, bag: &Var) -> Var {
        let t = bag.shape()[0];
        let scores = self.score.forward(g, ps, &self.proj.forward(g, ps, bag).tanh_()); // (T,1)
        let weights = scores.reshape(&[1, t]).softmax_last(); // (1,T)
        weights.matmul(bag) // (1, d_in)
    }

    /// Pools C padded bags at once: `bag` is `(C·t_max, d_in)` where bag `c`
    /// occupies rows `c·t_max .. (c+1)·t_max` with its `lens[c]` real rows
    /// first and arbitrary finite padding rows after them. Returns `(C, d_in)`.
    ///
    /// Padding rows are neutralized with a `-inf` additive mask before the
    /// softmax: `exp(-inf) = +0.0` exactly, and the pads sit *after* the real
    /// entries, so the softmax's left-to-right sum is unchanged. In the
    /// weighted sum each pad then adds `+0.0 · pad`, a signed zero because
    /// the pad is finite (debug-asserted). The matmul accumulator starts at
    /// `+0.0` and round-to-nearest addition never turns it into `-0.0`, so
    /// adding a signed zero changes no bit: row `c` of the result is
    /// bit-identical to [`AddAttn::forward`] on the unpadded bag.
    pub fn pool_ragged(
        &self,
        g: &Graph,
        ps: &ParamStore,
        bag: &Var,
        lens: &[usize],
        t_max: usize,
    ) -> Var {
        let c = lens.len();
        let d_in = bag.shape()[1];
        assert_eq!(bag.shape()[0], c * t_max, "bag must have C·t_max rows");
        let scores = self.score.forward(g, ps, &self.proj.forward(g, ps, bag).tanh_()); // (C·t_max, 1)
        let mut mask = vec![0.0; c * t_max];
        for (mrow, &len) in mask.chunks_exact_mut(t_max).zip(lens) {
            debug_assert!(len >= 1 && len <= t_max, "bag length {len} outside 1..={t_max}");
            for m in &mut mrow[len..] {
                *m = f32::NEG_INFINITY;
            }
        }
        debug_assert!(
            {
                let v = bag.value();
                lens.iter().enumerate().all(|(ci, &len)| {
                    v.data()[(ci * t_max + len) * d_in..(ci + 1) * t_max * d_in]
                        .iter()
                        .all(|x| x.is_finite())
                })
            },
            "padding rows must be finite"
        );
        let mask = g.leaf(Tensor::new([c, t_max], mask));
        let weights = scores.reshape(&[c, t_max]).add(&mask).softmax_last(); // (C, t_max)
        weights
            .reshape(&[c, 1, t_max])
            .batch_matmul(&bag.reshape(&[c, t_max, d_in])) // (C, 1, d_in)
            .reshape(&[c, d_in])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mha_self_attention_shape() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 2, 2, 0.0);
        let g = Graph::new();
        let x = g.leaf(init::normal(&mut rng, &[5, 8], 1.0));
        let y = blk.forward(&g, &ps, &x, None);
        assert_eq!(y.shape(), vec![5, 8]);
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn mha_cross_attention_shape() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 4, 2, 0.0);
        let g = Graph::new();
        let x = g.leaf(init::normal(&mut rng, &[3, 8], 1.0));
        let kv = g.leaf(init::normal(&mut rng, &[7, 8], 1.0));
        let y = blk.forward(&g, &ps, &x, Some(&kv));
        assert_eq!(y.shape(), vec![3, 8]);
    }

    #[test]
    fn mha_gradients_flow_to_all_params() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 2, 2, 0.0);
        let g = Graph::new();
        let x = g.leaf(init::normal(&mut rng, &[4, 8], 1.0));
        let loss = blk.forward(&g, &ps, &x, None).sum_all();
        g.backward(&loss, &mut ps);
        for (_, p) in ps.iter() {
            assert!(p.dense_touched, "param {} got no gradient", p.name);
        }
    }

    #[test]
    fn add_attn_is_convex_combination() {
        // With one bag item, output must equal the item.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let attn = AddAttn::new(&mut ps, &mut rng, "a", 4, 6);
        let g = Graph::new();
        let bag = g.leaf(Tensor::from_rows(&[vec![1.0, -2.0, 0.5, 3.0]]));
        let out = attn.forward(&g, &ps, &bag).value();
        for (o, e) in out.data().iter().zip(&[1.0, -2.0, 0.5, 3.0]) {
            assert!((o - e).abs() < 1e-5);
        }
    }

    #[test]
    fn add_attn_output_within_bag_hull_bounds() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let attn = AddAttn::new(&mut ps, &mut rng, "a", 3, 5);
        let g = Graph::new();
        let bag = g.leaf(Tensor::from_rows(&[
            vec![0.0, 1.0, -1.0],
            vec![2.0, 3.0, 1.0],
            vec![-1.0, 0.0, 0.0],
        ]));
        let out = attn.forward(&g, &ps, &bag).value();
        // Each coordinate lies within the min/max of the bag coordinates.
        for j in 0..3 {
            let col: Vec<f32> = (0..3).map(|i| bag.value().at2(i, j)).collect();
            let (mn, mx) = (col.iter().cloned().fold(f32::INFINITY, f32::min),
                            col.iter().cloned().fold(f32::NEG_INFINITY, f32::max));
            let v = out.data()[j];
            assert!(v >= mn - 1e-4 && v <= mx + 1e-4, "coord {j}: {v} not in [{mn},{mx}]");
        }
    }
}

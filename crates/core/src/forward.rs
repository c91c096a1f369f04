//! The Bootleg forward pass (§3.2, Appendix A) plus prediction and
//! contextual-embedding extraction: one ragged engine for every inference
//! slice — a single request or a micro-batch — and every training pass.
//!
//! # Layout
//!
//! A batch never pads examples against each other. Candidate rows are
//! concatenated into one tall `(ΣS_i, ·)` matrix and token rows into
//! `(ΣN_i, ·)`; every *row-wise* op (matmul against a weight, LayerNorm,
//! GELU, gather, bias add, the MLPs) runs once on the tall matrix, which is
//! where the speedup lives — per-op dispatch is amortized over the batch
//! and the register-tiled kernels see tall matrices instead of skinny ones.
//! The only cross-row ops — attention softmax/context and the KG adjacency
//! products — run per example on contiguous row slices, so examples cannot
//! attend to each other and every example's outputs are bit-identical to
//! running it alone. A one-example slice skips the row slicing altogether.
//!
//! The per-candidate type/relation bags *are* padded (to the batch's widest
//! bag) because additive-attention pooling dominates the embed phase. Pads
//! sit after the real entries and are erased by a `-inf` additive mask
//! before the softmax: `exp(-inf) = +0.0` exactly, and appending `+0.0` to
//! a left-to-right sum changes nothing. The pads are finite rows, so each
//! adds `+0.0 · pad`, a signed zero, to a matmul accumulator that starts at
//! `+0.0` and can never become `-0.0` — so pooled rows are bit-identical to
//! the unpadded path (see [`bootleg_nn::AddAttn::pool_ragged`]).
//!
//! # Deadlines
//!
//! Deadlines are per example and checked at the phase boundaries (candgen,
//! embed, each attention layer). An expired example is marked
//! [`ForwardInterrupted`] and *evicted from the result*, not the batch:
//! its rows keep flowing (they cannot be removed from a built graph), but
//! the batch only aborts early when every example has expired.
//!
//! # Training
//!
//! [`ForwardOptions::training`] enables dropout and the 2-D entity mask.
//! Both draw from RNG streams owned by the graph and consumed in op order,
//! so a training graph holds exactly one example: [`BootlegModel::run`]
//! runs a training slice as one-example passes.

use crate::example::Example;
use crate::model::BootlegModel;
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_nn::posenc;
use bootleg_tensor::{Graph, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A per-request compute budget, checked at forward-pass phase boundaries.
///
/// A `Deadline` is a point in wall time; [`Deadline::none`] never expires.
/// The forward pass checks it after each phase (candgen, embed, each
/// attention layer, score) so an over-budget request stops at the next
/// boundary instead of running arbitrarily long — the serving layer turns
/// the resulting [`ForwardInterrupted`] into a typed deadline error.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (the default for library callers).
    pub fn none() -> Self {
        Self { at: None }
    }

    /// Expires `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self { at: Instant::now().checked_add(budget) }
    }

    /// Expires `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// A deadline that is already in the past (deterministic expiry for
    /// tests: the first boundary check fires).
    pub fn expired_now() -> Self {
        Self { at: Some(Instant::now()) }
    }

    /// True once the deadline has passed. A `none` deadline never expires.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left before expiry (`None` for an unlimited deadline,
    /// `Some(ZERO)` once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|t| t.saturating_duration_since(Instant::now()))
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Self::none()
    }
}

/// A forward pass stopped at a phase boundary because its [`Deadline`]
/// expired. Carries which phase had just finished — the partial diagnostic
/// the serving layer attaches to `ServeError::DeadlineExceeded`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardInterrupted {
    /// The last phase that completed before the budget ran out
    /// (`"candgen"`, `"embed"`, `"attention"`, or `"score"`).
    pub phase: &'static str,
}

impl std::fmt::Display for ForwardInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "forward pass exceeded its deadline after the {} phase", self.phase)
    }
}

impl std::error::Error for ForwardInterrupted {}

/// What a forward pass should compute beyond scores and predictions.
///
/// [`ForwardOptions::training`] builds the full training tape;
/// inference callers (evaluation drivers, bench bins, serving) use
/// [`ForwardOptions::inference`] to skip the loss node and the
/// per-candidate representation matrices.
#[derive(Clone, Copy, Debug)]
pub struct ForwardOptions {
    /// Enables dropout and 2-D entity-embedding masking.
    pub training: bool,
    /// Seed for dropout/masking (ignored at inference).
    pub seed: u64,
    /// Build the `L_dis + L_type` loss node (needed to call `backward`).
    pub build_loss: bool,
    /// Materialize per-mention, per-candidate final-layer representations
    /// (needed by the Overton-style downstream system).
    pub candidate_reprs: bool,
    /// Compute budget, checked at phase boundaries. [`Deadline::none`] for
    /// library callers; the serving layer threads per-request deadlines
    /// through here, and [`BootlegModel::run`] reports expiry as
    /// [`ForwardInterrupted`].
    pub deadline: Deadline,
}

impl ForwardOptions {
    /// Prediction/scoring only: no loss node, no candidate representations.
    pub fn inference() -> Self {
        Self {
            training: false,
            seed: 0,
            build_loss: false,
            candidate_reprs: false,
            deadline: Deadline::none(),
        }
    }

    /// The full training tape: dropout, 2-D entity masking (both driven by
    /// `seed`), the loss node and candidate representations.
    pub fn training(seed: u64) -> Self {
        Self {
            training: true,
            seed,
            build_loss: true,
            candidate_reprs: true,
            deadline: Deadline::none(),
        }
    }

    /// Attaches a compute budget checked at phase boundaries.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides whether candidate representations are materialized.
    pub fn with_candidate_reprs(mut self, on: bool) -> Self {
        self.candidate_reprs = on;
        self
    }

    /// Overrides whether the loss node is built.
    pub fn with_loss(mut self, on: bool) -> Self {
        self.build_loss = on;
        self
    }
}

/// Result of a forward pass.
pub struct ForwardOutput {
    /// The autograd tape (call `graph.backward(&loss, …)` to train).
    pub graph: Graph,
    /// Total loss (`L_dis + L_type`); only meaningful when mentions carry
    /// gold indexes.
    pub loss: Option<Var>,
    /// Per-mention candidate scores.
    pub scores: Vec<Vec<f32>>,
    /// Per-mention argmax candidate index.
    pub predictions: Vec<usize>,
    /// Per-mention final-layer representation of the *predicted* candidate —
    /// the "contextual Bootleg entity embedding" consumed by downstream
    /// tasks (§4.3).
    pub mention_reprs: Vec<Vec<f32>>,
    /// Per-mention, per-candidate final-layer representations (used by the
    /// Overton-style downstream system, which scores all candidates).
    /// Empty unless [`ForwardOptions::candidate_reprs`] was set.
    pub candidate_reprs: Vec<Vec<Vec<f32>>>,
}

/// Per-example candidate layout and KG adjacency, built during candgen.
struct ExLayout {
    /// Index into the caller's `examples` slice.
    ei: usize,
    /// Flattened candidate entity ids (one per candidate row).
    cand_entities: Vec<u32>,
    /// Local mention index of each candidate row.
    mention_of: Vec<usize>,
    /// Local candidate-row offsets per mention (`len = mentions + 1`).
    offsets: Vec<usize>,
    /// KG adjacency matrices over this example's candidate rows.
    kg_mats: Vec<Tensor>,
    /// First candidate row of this example in the global stack.
    s_start: usize,
    /// First mention of this example in the global mention list.
    m_start: usize,
}

impl BootlegModel {
    /// The forward entrypoint: runs the model on a slice of examples and
    /// returns one output per example, in order, or the first
    /// [`ForwardInterrupted`] once `opts.deadline` expires.
    ///
    /// An inference slice runs as one ragged micro-batch
    /// ([`BootlegModel::try_forward_batch`]); an empty slice returns
    /// `Ok(vec![])`. A training slice runs as one-example passes, because
    /// dropout and the entity mask draw from one RNG stream per graph.
    pub fn run(
        &self,
        kb: &KnowledgeBase,
        examples: &[Example],
        opts: ForwardOptions,
    ) -> Result<Vec<ForwardOutput>, ForwardInterrupted> {
        let per_pass = if opts.training { 1 } else { examples.len().max(1) };
        let mut outs = Vec::with_capacity(examples.len());
        for chunk in examples.chunks(per_pass) {
            let refs: Vec<&Example> = chunk.iter().collect();
            let deadlines = vec![opts.deadline; chunk.len()];
            for r in self.try_forward_batch(kb, &refs, &opts, &deadlines) {
                outs.push(r?);
            }
        }
        Ok(outs)
    }

    /// Runs N examples as one ragged micro-batch with *per-example*
    /// deadlines (the serving layer's eviction rule needs them to differ;
    /// `opts.deadline` is ignored). Returns one result per example, in
    /// order; an expired example fails alone with the phase it reached
    /// while the rest of the batch completes. A training pass takes at
    /// most one example — panics otherwise (use [`BootlegModel::run`]).
    pub fn try_forward_batch(
        &self,
        kb: &KnowledgeBase,
        examples: &[&Example],
        opts: &ForwardOptions,
        deadlines: &[Deadline],
    ) -> Vec<Result<ForwardOutput, ForwardInterrupted>> {
        assert_eq!(examples.len(), deadlines.len(), "one deadline per example");
        assert!(
            !opts.training || examples.len() <= 1,
            "a training pass runs one example per graph; use run()"
        );
        if examples.is_empty() {
            return Vec::new();
        }
        for ex in examples {
            assert!(!ex.mentions.is_empty(), "forward needs at least one mention");
        }
        let _fwd = bootleg_obs::span!("forward");
        bootleg_obs::counter!("forward.batch_examples").add(examples.len() as u64);
        let ForwardOptions { training, seed, build_loss, .. } = *opts;
        let g = Graph::with_mode(training, seed);
        let ps = &self.params;
        let cfg = &self.config;

        let mut out: Vec<Option<Result<ForwardOutput, ForwardInterrupted>>> =
            (0..examples.len()).map(|_| None).collect();
        let fail = |out: &mut Vec<Option<Result<ForwardOutput, ForwardInterrupted>>>,
                    ei: usize,
                    phase: &'static str| {
            out[ei] = Some(Err(ForwardInterrupted { phase }));
        };

        // ---- Candidate generation (per example; plain tensors, no graph
        // nodes) ----  An example whose deadline expires here is excluded
        // from the batch layout entirely — its rows never enter the graph.
        let ph = bootleg_obs::trace::phase("candgen", "forward.candgen_ns");
        let mut included: Vec<ExLayout> = Vec::with_capacity(examples.len());
        let mut s_total = 0usize;
        let mut m_total = 0usize;
        for (ei, ex) in examples.iter().enumerate() {
            let mut cand_entities: Vec<u32> = Vec::with_capacity(ex.total_candidates());
            let mut mention_of: Vec<usize> = Vec::new();
            let mut offsets: Vec<usize> = Vec::with_capacity(ex.mentions.len() + 1);
            for (mi, m) in ex.mentions.iter().enumerate() {
                offsets.push(cand_entities.len());
                for &c in &m.candidates {
                    cand_entities.push(c.0);
                    mention_of.push(mi);
                }
            }
            offsets.push(cand_entities.len());
            let s_i = cand_entities.len();

            let mut kg_mats: Vec<Tensor> = Vec::new();
            if cfg.use_kg() {
                let mut k = vec![0.0; s_i * s_i];
                // Connectivity is symmetric, so probe each unordered pair
                // once and write both cells.
                for i in 0..s_i {
                    for j in i + 1..s_i {
                        if mention_of[i] != mention_of[j]
                            && kb
                                .connected(EntityId(cand_entities[i]), EntityId(cand_entities[j]))
                                .is_some()
                        {
                            k[i * s_i + j] = 1.0;
                            k[j * s_i + i] = 1.0;
                        }
                    }
                }
                kg_mats.push(Tensor::new([s_i, s_i], k));
                if cfg.cooccur_kg {
                    let mut k2 = vec![0.0; s_i * s_i];
                    if let Some(cx) = &self.cooccur {
                        for i in 0..s_i {
                            for j in 0..s_i {
                                if mention_of[i] != mention_of[j] {
                                    k2[i * s_i + j] = cx.weight(
                                        EntityId(cand_entities[i]),
                                        EntityId(cand_entities[j]),
                                    );
                                }
                            }
                        }
                    }
                    kg_mats.push(Tensor::new([s_i, s_i], k2));
                }
                if cfg.kg_two_hop {
                    let mut k3 = vec![0.0; s_i * s_i];
                    for i in 0..s_i {
                        for j in 0..s_i {
                            if mention_of[i] != mention_of[j]
                                && kb.two_hop_connected(
                                    EntityId(cand_entities[i]),
                                    EntityId(cand_entities[j]),
                                )
                            {
                                k3[i * s_i + j] = 0.5;
                            }
                        }
                    }
                    kg_mats.push(Tensor::new([s_i, s_i], k3));
                }
            }
            if deadlines[ei].expired() {
                fail(&mut out, ei, "candgen");
                continue;
            }
            included.push(ExLayout {
                ei,
                cand_entities,
                mention_of,
                offsets,
                kg_mats,
                s_start: s_total,
                m_start: m_total,
            });
            s_total += s_i;
            m_total += examples[ei].mentions.len();
        }
        drop(ph);
        if included.is_empty() {
            return out.into_iter().map(|o| o.expect("all failed at candgen")).collect();
        }
        // One example's rows are the whole stack: the KG loop and the
        // scoring ensemble then use its matrices as they are, so its tape
        // is the plain one-example op sequence (no identity row copies,
        // which would also reorder gradient sums).
        let single = included.len() == 1;

        // Global index maps over the included examples.
        let cand_spans: Vec<(usize, usize)> =
            included.iter().map(|l| (l.s_start, l.cand_entities.len())).collect();
        let mut global_cands: Vec<u32> = Vec::with_capacity(s_total);
        let mut cand_mention_row: Vec<u32> = Vec::with_capacity(s_total);
        for l in &included {
            global_cands.extend_from_slice(&l.cand_entities);
            cand_mention_row.extend(l.mention_of.iter().map(|&mi| (l.m_start + mi) as u32));
        }

        // ---- Signal encoding (§3.1), batched ----
        let ph = bootleg_obs::trace::phase("embed", "forward.embed_ns");

        // W: all sentences through the word encoder in one ragged pass.
        let sentences: Vec<&[u32]> =
            included.iter().map(|l| examples[l.ei].tokens.as_slice()).collect();
        let (w, tok_spans) = {
            let _s = bootleg_obs::span!("wordenc");
            self.word_encoder.forward_batch(&g, ps, &sentences)
        };

        let mut parts: Vec<Var> = Vec::new();
        // Static per-entity payloads (pooled type/rel bags, title mean) may
        // come straight from the entity-repr cache; the entity row is always
        // gathered from its table, and the mention-dependent parts (coarse
        // type, position encoding) stay live. Gradient-bearing passes skip
        // the cache: leaves carry no params.
        let mut cached =
            if training || build_loss { None } else { self.gather_cached_parts(&global_cands) };
        if cfg.use_entity() {
            let u = g.gather_rows(ps, self.entity_emb, &global_cands);
            parts.push(if training && !matches!(cfg.regularization, crate::RegScheme::None) {
                // 2-D regularization: zero the whole embedding with p(e).
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                let mut mask = vec![0.0; s_total * cfg.entity_dim];
                for (mrow, &e) in mask.chunks_exact_mut(cfg.entity_dim).zip(&global_cands) {
                    let keep = rng.gen::<f32>() >= self.reg_p[e as usize];
                    mrow.fill(if keep { 1.0 } else { 0.0 });
                }
                u.mul(&g.leaf(Tensor::new([s_total, cfg.entity_dim], mask)))
            } else {
                u
            });
        }

        // Type prediction (Appendix A), batched over all mentions: the
        // first/last contextual token rows of every mention at once.
        let mut type_losses: Vec<Option<Var>> = vec![None; examples.len()];
        let mut mention_type_vec: Option<Var> = None;
        if let Some(tp) = &self.type_pred {
            let mut firsts: Vec<u32> = Vec::with_capacity(m_total);
            let mut lasts: Vec<u32> = Vec::with_capacity(m_total);
            for (l, &(t_start, _)) in included.iter().zip(&tok_spans) {
                for m in &examples[l.ei].mentions {
                    firsts.push((t_start + m.first) as u32);
                    lasts.push((t_start + m.last) as u32);
                }
            }
            let mention_emb = w.select_rows(&firsts).add(&w.select_rows(&lasts));
            let logits = tp.mlp.forward(&g, ps, &mention_emb); // (M, 6)
            let probs = logits.softmax_last();
            let coarse = g.dense_param(ps, tp.coarse_emb); // (6, coarse_dim)
            mention_type_vec = Some(probs.matmul(&coarse)); // (M, coarse_dim)
            // Per-example supervision, kept per example so each output's
            // loss matches its one-example counterpart bit-for-bit.
            if build_loss {
                for l in &included {
                    let ex = examples[l.ei];
                    let mut targets = Vec::new();
                    let mut sup_rows: Vec<u32> = Vec::new();
                    for (mi, m) in ex.mentions.iter().enumerate() {
                        if let Some(gi) = m.gold {
                            let gold_entity = m.candidates[gi as usize];
                            targets.push(self.entity_coarse[gold_entity.idx()]);
                            sup_rows.push((l.m_start + mi) as u32);
                        }
                    }
                    if !sup_rows.is_empty() {
                        let rows = logits.select_rows(&sup_rows);
                        type_losses[l.ei] = Some(rows.cross_entropy_rows(&targets));
                    }
                }
            }
        }

        if cfg.use_types() {
            let _s = bootleg_obs::span!("pool_types");
            parts.push(match cached.as_mut().and_then(|c| c.types.take()) {
                Some(t) => g.leaf(t),
                None => self.pool_bags_batched(
                    &g,
                    &global_cands,
                    self.type_emb,
                    &self.entity_types,
                    &self.type_attn,
                ),
            });
            if let Some(tv) = &mention_type_vec {
                // The predicted coarse type of each mention, repeated onto
                // every one of its candidates.
                parts.push(tv.select_rows(&cand_mention_row)); // (S, coarse_dim)
            }
        }

        if cfg.use_kg() {
            let _s = bootleg_obs::span!("pool_rels");
            parts.push(match cached.as_mut().and_then(|c| c.rels.take()) {
                Some(t) => g.leaf(t),
                None => self.pool_bags_batched(
                    &g,
                    &global_cands,
                    self.rel_emb,
                    &self.entity_rels,
                    &self.rel_attn,
                ),
            });
        }

        if cfg.title_feature {
            parts.push(match cached.as_mut().and_then(|c| c.titles.take()) {
                Some(t) => g.leaf(t),
                None => self.pool_titles_batched(&g, &global_cands),
            });
        }

        let part_refs: Vec<&Var> = parts.iter().collect();
        let _s2 = bootleg_obs::span!("emb_mlp");
        let concat = g.concat_last(&part_refs); // (ΣS, mlp_input_dim)
        let mut e_mat = self.mlp.forward(&g, ps, &concat); // (ΣS, H)
        drop(_s2);

        if cfg.position_encoding {
            let table = self.word_encoder.pos_table();
            let d = cfg.word_encoder.d_model;
            let mut enc = vec![0.0; s_total * 2 * d];
            {
                let mut erows = enc.chunks_exact_mut(2 * d);
                for l in &included {
                    let ex = examples[l.ei];
                    for &mi in &l.mention_of {
                        let m = &ex.mentions[mi];
                        let erow = erows.next().expect("one encoding row per candidate");
                        posenc::write_mention_span_encoding(table, m.first, m.last, erow);
                    }
                }
            }
            let enc_var = g.leaf(Tensor::new([s_total, 2 * d], enc));
            e_mat = e_mat.add(&self.pos_proj.forward(&g, ps, &enc_var));
        }
        drop(ph);
        let mut all_failed = true;
        for l in &included {
            if out[l.ei].is_none() && deadlines[l.ei].expired() {
                fail(&mut out, l.ei, "embed");
            }
            all_failed &= out[l.ei].is_some();
        }
        if all_failed {
            return out.into_iter().map(|o| o.expect("all failed by embed")).collect();
        }

        // ---- Stacked layers (§3.2), ragged ----
        let ph = bootleg_obs::trace::phase("attention", "forward.attention_ns");
        let mut e_prime = e_mat.clone();
        // Per KG matrix, the per-example outputs of the last layer (for the
        // scoring ensemble): `last_e_ks[j][b]` is example b's `(S_b, H)`.
        let n_kg = included[0].kg_mats.len();
        let mut last_e_ks: Vec<Vec<Var>> = Vec::new();
        for l in 0..cfg.n_layers {
            if l > 0 {
                let mut live = false;
                for lay in &included {
                    if out[lay.ei].is_none() && deadlines[lay.ei].expired() {
                        fail(&mut out, lay.ei, "attention");
                    }
                    live |= out[lay.ei].is_none();
                }
                if !live {
                    return out
                        .into_iter()
                        .map(|o| o.expect("all failed in attention"))
                        .collect();
                }
            }
            let p2e = self.phrase2ent[l].forward_ragged(
                &g,
                ps,
                &e_mat,
                Some(&w),
                &cand_spans,
                &tok_spans,
            );
            e_prime = if cfg.use_ent2ent {
                let e2e =
                    self.ent2ent[l].forward_ragged(&g, ps, &e_mat, None, &cand_spans, &cand_spans);
                p2e.add(&e2e)
            } else {
                p2e
            };
            last_e_ks.clear();
            last_e_ks.resize_with(n_kg, Vec::new);
            let mut per_ex_next: Vec<Var> = Vec::with_capacity(included.len());
            for (lay, &(s_start, s_len)) in included.iter().zip(&cand_spans) {
                let ep = if single {
                    e_prime.clone()
                } else {
                    let rows: Vec<u32> = (s_start..s_start + s_len).map(|r| r as u32).collect();
                    e_prime.select_rows(&rows) // (S_b, H)
                };
                let mut eks: Vec<Var> = Vec::with_capacity(n_kg);
                for (j, kmat) in lay.kg_mats.iter().enumerate() {
                    let kv = g.leaf(kmat.clone());
                    let wv = g.dense_param(ps, self.kg_w[l][j]);
                    let attn = kv.add_scaled_identity(&wv).softmax_last();
                    eks.push(attn.matmul(&ep).add(&ep));
                }
                let next = match eks.len() {
                    0 => ep,
                    1 => eks[0].clone(),
                    n => {
                        let mut acc = eks[0].clone();
                        for ek in &eks[1..] {
                            acc = acc.add(ek);
                        }
                        acc.scale(1.0 / n as f32)
                    }
                };
                per_ex_next.push(next);
                for (j, ek) in eks.into_iter().enumerate() {
                    last_e_ks[j].push(ek);
                }
            }
            e_mat = if n_kg == 0 { e_prime.clone() } else { stack_rows(&g, &per_ex_next) };
        }
        drop(ph);
        {
            let mut live = false;
            for lay in &included {
                if out[lay.ei].is_none() && deadlines[lay.ei].expired() {
                    fail(&mut out, lay.ei, "attention");
                }
                live |= out[lay.ei].is_none();
            }
            if !live {
                return out.into_iter().map(|o| o.expect("all failed by attention")).collect();
            }
        }

        // ---- Ensemble scoring: S = max(E_k vᵀ, E′ vᵀ) ----
        let ph = bootleg_obs::trace::phase("score", "forward.score_ns");
        let v = g.dense_param(ps, self.score_v); // (H, 1)
        let s_var = if cfg.ensemble_scoring {
            let mut s = e_prime.matmul(&v); // (ΣS, 1)
            for per_ex in &last_e_ks {
                let ek = stack_rows(&g, per_ex); // (ΣS, H)
                s = s.maximum(&ek.matmul(&v));
            }
            s
        } else {
            e_mat.matmul(&v)
        };

        // ---- Per-example unstacking: scores, predictions, losses, reprs ----
        let final_e = e_mat.value();
        for lay in &included {
            if out[lay.ei].is_some() {
                continue;
            }
            let ex = examples[lay.ei];
            let mut dis_loss: Option<Var> = None;
            let mut n_supervised = 0usize;
            let mut scores = Vec::with_capacity(ex.mentions.len());
            let mut predictions = Vec::with_capacity(ex.mentions.len());
            for (mi, m) in ex.mentions.iter().enumerate() {
                let k = m.candidates.len();
                let rows: Vec<u32> = (lay.s_start + lay.offsets[mi]
                    ..lay.s_start + lay.offsets[mi + 1])
                    .map(|r| r as u32)
                    .collect();
                let mention_scores = s_var.select_rows(&rows).reshape(&[1, k]);
                let values = mention_scores.value();
                scores.push(values.data().to_vec());
                predictions.push(values.argmax());
                if build_loss {
                    if let Some(gi) = m.gold {
                        let ce = mention_scores.cross_entropy_rows(&[gi]);
                        n_supervised += 1;
                        dis_loss = Some(match dis_loss {
                            Some(acc) => acc.add(&ce),
                            None => ce,
                        });
                    }
                }
            }
            let loss = match (dis_loss, n_supervised) {
                (Some(lv), n) if n > 0 => {
                    let lv = lv.scale(1.0 / n as f32);
                    Some(match type_losses[lay.ei].take() {
                        Some(tl) => lv.add(&tl),
                        None => lv,
                    })
                }
                _ => None,
            };
            let mention_reprs = predictions
                .iter()
                .enumerate()
                .map(|(mi, &p)| final_e.row(lay.s_start + lay.offsets[mi] + p).to_vec())
                .collect();
            let candidate_reprs = if opts.candidate_reprs {
                ex.mentions
                    .iter()
                    .enumerate()
                    .map(|(mi, m)| {
                        (0..m.candidates.len())
                            .map(|j| final_e.row(lay.s_start + lay.offsets[mi] + j).to_vec())
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            out[lay.ei] = Some(Ok(ForwardOutput {
                graph: g.clone(),
                loss,
                scores,
                predictions,
                mention_reprs,
                candidate_reprs,
            }));
        }
        drop(ph);

        out.into_iter().map(|o| o.expect("every example resolved")).collect()
    }

    /// Predicts the entity for each mention of `ex`.
    pub fn predict(&self, kb: &KnowledgeBase, ex: &Example) -> Vec<EntityId> {
        let out = self
            .run(kb, std::slice::from_ref(ex), ForwardOptions::inference())
            .expect("unlimited deadline cannot interrupt")
            .remove(0);
        out.predictions.iter().zip(&ex.mentions).map(|(&p, m)| m.candidates[p]).collect()
    }

    /// Pools every candidate's embedding bag (types or relations) in one
    /// padded ragged pass — bit-identical per row to a per-candidate
    /// `AddAttn::forward` loop for any pad width (see
    /// [`bootleg_nn::AddAttn::pool_ragged`]). Shared by the forward pass and
    /// the entity-repr cache's build kernel.
    pub(crate) fn pool_bags_batched(
        &self,
        g: &Graph,
        cand_entities: &[u32],
        emb: bootleg_tensor::ParamId,
        bags: &[Vec<u32>],
        attn: &bootleg_nn::AddAttn,
    ) -> Var {
        let lens: Vec<usize> = cand_entities.iter().map(|&e| bags[e as usize].len()).collect();
        let t_max = lens.iter().copied().max().unwrap_or(1).max(1);
        let mut flat: Vec<u32> = Vec::with_capacity(cand_entities.len() * t_max);
        for &e in cand_entities {
            let ids = &bags[e as usize];
            flat.extend_from_slice(ids);
            // Pad with the bag's last id: always a valid row (finite while
            // the table is), and its softmax weight is exactly zero, so the
            // choice is inert.
            let pad = *ids.last().expect("bags are never empty");
            flat.resize(flat.len() + (t_max - ids.len()), pad);
        }
        let bag = g.gather_rows(&self.params, emb, &flat); // (S·t_max, d)
        attn.pool_ragged(g, &self.params, &bag, &lens, t_max)
    }

    /// Mean word embedding of every candidate's title tokens (App. B) as one
    /// flat gather + ragged segment mean — bit-identical per row to a
    /// per-candidate `mean_rows` loop, since
    /// [`bootleg_tensor::Var::mean_rows_segments`] replays `mean_rows`'
    /// accumulation order within each segment. Shared by the forward pass
    /// and the entity-repr cache's build kernel.
    pub(crate) fn pool_titles_batched(&self, g: &Graph, cand_entities: &[u32]) -> Var {
        let mut lens: Vec<usize> = Vec::with_capacity(cand_entities.len());
        let mut flat: Vec<u32> = Vec::new();
        for &e in cand_entities {
            let ids = &self.entity_titles[e as usize];
            lens.push(ids.len());
            flat.extend_from_slice(ids);
        }
        let rows = g.gather_rows(&self.params, self.word_encoder.emb, &flat); // (Σ|title|, d)
        rows.mean_rows_segments(&lens) // (S, d_model)
    }
}

/// Row-concatenation of `parts`; a single part is returned as is rather
/// than copied onto the tape.
fn stack_rows(g: &Graph, parts: &[Var]) -> Var {
    match parts {
        [one] => one.clone(),
        _ => g.concat_rows(&parts.iter().collect::<Vec<_>>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BootlegConfig, ModelVariant};
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    fn setup() -> (KnowledgeBase, bootleg_corpus::Corpus, BootlegModel) {
        let kb = gen_kb(&KbConfig { n_entities: 300, seed: 41, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 41, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        (kb, c, m)
    }

    fn first_example(c: &bootleg_corpus::Corpus) -> Example {
        c.train.iter().find_map(Example::training).expect("some training example")
    }

    /// `ex` alone through [`BootlegModel::run`].
    fn run1(
        m: &BootlegModel,
        kb: &KnowledgeBase,
        ex: &Example,
        opts: ForwardOptions,
    ) -> Result<ForwardOutput, ForwardInterrupted> {
        m.run(kb, std::slice::from_ref(ex), opts).map(|mut outs| outs.remove(0))
    }

    /// The full training tape with dropout and masking off.
    fn full_inference(seed: u64) -> ForwardOptions {
        ForwardOptions { training: false, ..ForwardOptions::training(seed) }
    }

    #[test]
    fn forward_produces_scores_and_loss() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let out = run1(&m, &kb, &ex, ForwardOptions::training(1)).expect("no deadline");
        assert_eq!(out.scores.len(), ex.mentions.len());
        assert!(out.loss.is_some());
        let lv = out.loss.as_ref().expect("loss").value().item();
        assert!(lv.is_finite() && lv > 0.0, "loss {lv}");
        for (s, m) in out.scores.iter().zip(&ex.mentions) {
            assert_eq!(s.len(), m.candidates.len());
            assert!(s.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn backward_touches_used_embeddings() {
        let (kb, c, mut m) = setup();
        let ex = first_example(&c);
        let out = run1(&m, &kb, &ex, ForwardOptions::training(2)).expect("no deadline");
        let loss = out.loss.expect("loss");
        out.graph.backward(&loss, &mut m.params);
        // Entity table grads are sparse; the candidate rows must be touched
        // (unless every row got masked, which seed 2 should not do for all).
        let p = m.params.get(m.entity_emb);
        assert!(!p.touched_rows.is_empty(), "entity rows should be touched");
    }

    #[test]
    fn all_variants_run_forward() {
        let (kb, c, _) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let ex = first_example(&c);
        for v in [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly] {
            let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().with_variant(v));
            let out = run1(&m, &kb, &ex, full_inference(0)).expect("no deadline");
            assert_eq!(out.predictions.len(), ex.mentions.len());
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let a = run1(&m, &kb, &ex, full_inference(0)).expect("no deadline");
        let b = run1(&m, &kb, &ex, full_inference(99)).expect("no deadline");
        assert_eq!(a.scores, b.scores, "inference must not depend on seed");
    }

    #[test]
    fn training_mode_masking_changes_scores() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let a = run1(&m, &kb, &ex, ForwardOptions::training(1)).expect("no deadline");
        let b = run1(&m, &kb, &ex, ForwardOptions::training(2)).expect("no deadline");
        // With dropout + entity masking, different seeds almost surely give
        // different scores.
        assert_ne!(a.scores, b.scores);
    }

    #[test]
    fn predict_returns_candidates() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let preds = m.predict(&kb, &ex);
        for (p, men) in preds.iter().zip(&ex.mentions) {
            assert!(men.candidates.contains(p));
        }
    }

    #[test]
    fn mention_reprs_have_hidden_width() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let out = run1(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
        for r in &out.mention_reprs {
            assert_eq!(r.len(), m.config.hidden);
        }
    }

    #[test]
    fn infer_matches_full_inference_forward() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let full = run1(&m, &kb, &ex, full_inference(0)).expect("no deadline");
        let lean = run1(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
        assert_eq!(full.scores, lean.scores, "infer must not change scores");
        assert_eq!(full.predictions, lean.predictions);
        assert_eq!(full.mention_reprs, lean.mention_reprs);
        assert!(lean.loss.is_none(), "infer must skip the loss");
        assert!(lean.candidate_reprs.is_empty(), "infer must skip candidate reprs");
        // Opting back into candidate reprs restores them bit-for-bit.
        let opts = ForwardOptions::inference().with_candidate_reprs(true);
        let with_reprs = run1(&m, &kb, &ex, opts).expect("no deadline");
        assert_eq!(full.candidate_reprs, with_reprs.candidate_reprs);
    }

    #[test]
    fn expired_deadline_interrupts_at_first_boundary() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let opts = ForwardOptions::inference().with_deadline(Deadline::expired_now());
        let err = match run1(&m, &kb, &ex, opts) {
            Err(e) => e,
            Ok(_) => panic!("expired deadline must interrupt the forward pass"),
        };
        assert_eq!(err.phase, "candgen");
        assert!(err.to_string().contains("candgen"));
    }

    #[test]
    fn unlimited_deadline_is_bit_identical_to_infer() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let a = run1(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
        let opts = ForwardOptions::inference().with_deadline(Deadline::after_ms(60_000));
        let b = run1(&m, &kb, &ex, opts).expect("deadline far away");
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.predictions, b.predictions);
    }

    #[test]
    fn deadline_accessors_behave() {
        assert!(!Deadline::none().expired());
        assert_eq!(Deadline::none().remaining(), None);
        assert!(Deadline::expired_now().expired());
        let d = Deadline::after_ms(60_000);
        assert!(!d.expired());
        assert!(d.remaining().expect("bounded") > std::time::Duration::from_secs(1));
    }

    #[test]
    fn benchmark_model_with_cooccurrence_runs() {
        let (kb, c, _) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().benchmark());
        m.set_cooccurrence(crate::cooccur::CooccurrenceIndex::build(&c.train, 2));
        let ex = first_example(&c);
        let out = run1(&m, &kb, &ex, ForwardOptions::training(3)).expect("no deadline");
        assert!(out.loss.expect("loss").value().item().is_finite());
    }

    #[test]
    #[should_panic(expected = "one example per graph")]
    fn training_slice_of_two_is_rejected() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        m.try_forward_batch(
            &kb,
            &[&ex, &ex],
            &ForwardOptions::training(1),
            &[Deadline::none(), Deadline::none()],
        );
    }
}

//! The word encoder — our laptop-scale substitute for the frozen BERT stack.
//!
//! Bootleg consumes BERT only as a black-box map from a token sequence to a
//! contextual matrix **W** ∈ ℝ^{N×H} (§3.1). We substitute learned word
//! embeddings + sinusoidal positions + a small Transformer self-attention
//! stack. The substitution is documented in DESIGN.md; both Bootleg and the
//! NED-Base baseline share this component so comparisons stay fair.

use crate::attention::MhaBlock;
use crate::posenc;
use bootleg_tensor::{init, Graph, ParamId, ParamStore, Tensor, Var};
use rand::Rng;

/// Configuration for a [`WordEncoder`].
#[derive(Debug, Clone, Copy)]
pub struct WordEncoderConfig {
    /// Vocabulary size (token ids `0..vocab`).
    pub vocab: usize,
    /// Hidden width H.
    pub d_model: usize,
    /// Number of Transformer layers.
    pub n_layers: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
    /// Maximum sentence length for the positional table.
    pub max_len: usize,
    /// Dropout inside the attention blocks.
    pub dropout: f32,
}

impl Default for WordEncoderConfig {
    fn default() -> Self {
        Self { vocab: 1024, d_model: 64, n_layers: 1, n_heads: 4, max_len: 64, dropout: 0.1 }
    }
}

/// Token-sequence encoder producing the sentence matrix **W**.
#[derive(Debug, Clone)]
pub struct WordEncoder {
    /// Word embedding table `(vocab, d_model)`.
    pub emb: ParamId,
    layers: Vec<MhaBlock>,
    pos_table: Tensor,
    config: WordEncoderConfig,
}

impl WordEncoder {
    /// Registers a word encoder in `ps`.
    pub fn new<R: Rng>(ps: &mut ParamStore, rng: &mut R, name: &str, config: WordEncoderConfig) -> Self {
        let emb = ps.add(
            format!("{name}.word_emb"),
            init::normal(rng, &[config.vocab, config.d_model], 0.1),
        );
        let layers = (0..config.n_layers)
            .map(|i| {
                MhaBlock::new(
                    ps,
                    rng,
                    &format!("{name}.layer{i}"),
                    config.d_model,
                    config.n_heads,
                    2,
                    config.dropout,
                )
            })
            .collect();
        let pos_table = posenc::sinusoid_table(config.max_len, config.d_model);
        Self { emb, layers, pos_table, config }
    }

    /// Encodes `tokens` into `(N, d_model)` contextual embeddings: the
    /// one-sentence call of [`WordEncoder::forward_batch`].
    pub fn forward(&self, g: &Graph, ps: &ParamStore, tokens: &[u32]) -> Var {
        self.forward_batch(g, ps, &[tokens]).0
    }

    /// Encodes B sentences in one ragged batch. Returns the row-concatenated
    /// `(ΣN_i, d_model)` contextual matrix plus each sentence's `(start, len)`
    /// row span into it; each sentence's rows are bit-identical to encoding
    /// that sentence alone (see [`MhaBlock::forward_ragged`]).
    pub fn forward_batch(
        &self,
        g: &Graph,
        ps: &ParamStore,
        sentences: &[&[u32]],
    ) -> (Var, Vec<(usize, usize)>) {
        assert!(!sentences.is_empty(), "cannot encode an empty batch");
        let total: usize = sentences.iter().map(|s| s.len()).sum();
        let mut tokens: Vec<u32> = Vec::with_capacity(total);
        let mut positions: Vec<usize> = Vec::with_capacity(total);
        let mut spans = Vec::with_capacity(sentences.len());
        for s in sentences {
            assert!(!s.is_empty(), "cannot encode an empty sentence");
            spans.push((tokens.len(), s.len()));
            tokens.extend_from_slice(s);
            positions.extend(0..s.len());
        }
        let words = g.gather_rows(ps, self.emb, &tokens);
        let pos = g.leaf(posenc::encode_positions(&self.pos_table, &positions).scale_copy(0.5));
        let mut h = words.add(&pos);
        for layer in &self.layers {
            h = layer.forward_ragged(g, ps, &h, None, &spans, &spans);
        }
        (h, spans)
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &WordEncoderConfig {
        &self.config
    }

    /// The sinusoidal table shared with candidate span encodings.
    pub fn pos_table(&self) -> &Tensor {
        &self.pos_table
    }
}

/// Extension trait: non-mutating scale (used for damping positional signals).
trait ScaleCopy {
    fn scale_copy(self, c: f32) -> Self;
}

impl ScaleCopy for Tensor {
    fn scale_copy(mut self, c: f32) -> Self {
        self.scale_assign(c);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder() -> (ParamStore, WordEncoder) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = WordEncoderConfig { vocab: 32, d_model: 16, n_layers: 2, n_heads: 4, max_len: 16, dropout: 0.0 };
        let enc = WordEncoder::new(&mut ps, &mut rng, "enc", cfg);
        (ps, enc)
    }

    #[test]
    fn output_shape_matches_tokens() {
        let (ps, enc) = encoder();
        let g = Graph::new();
        let w = enc.forward(&g, &ps, &[1, 5, 9]);
        assert_eq!(w.shape(), vec![3, 16]);
    }

    #[test]
    fn context_changes_representation() {
        // The same token in different contexts must encode differently.
        let (ps, enc) = encoder();
        let g = Graph::new();
        let a = enc.forward(&g, &ps, &[7, 1, 2]).value();
        let b = enc.forward(&g, &ps, &[7, 30, 31]).value();
        let d: f32 = a.row(0).iter().zip(b.row(0)).map(|(x, y)| (x - y).abs()).sum();
        assert!(d > 1e-4, "token 7 should be contextualized");
    }

    #[test]
    fn position_changes_representation() {
        let (ps, enc) = encoder();
        let g = Graph::new();
        let a = enc.forward(&g, &ps, &[7, 8]).value();
        let b = enc.forward(&g, &ps, &[8, 7]).value();
        let d: f32 = a.row(0).iter().zip(b.row(1)).map(|(x, y)| (x - y).abs()).sum();
        assert!(d > 1e-4, "position must matter");
    }

    #[test]
    #[should_panic]
    fn empty_sentence_panics() {
        let (ps, enc) = encoder();
        let g = Graph::new();
        enc.forward(&g, &ps, &[]);
    }
}

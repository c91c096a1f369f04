//! Sinusoidal positional encodings (Vaswani et al. 2017).
//!
//! Bootleg uses these twice: added to word embeddings in the word encoder, and
//! — per Appendix A — the concatenated encodings of a mention's first and last
//! token are projected to H and added to each of the mention's K candidates.

use bootleg_tensor::Tensor;

/// Builds the standard `(max_len, d)` sin/cos table.
pub fn sinusoid_table(max_len: usize, d: usize) -> Tensor {
    let mut data = vec![0.0f32; max_len * d];
    for pos in 0..max_len {
        for i in 0..d {
            let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / d as f64);
            data[pos * d + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() } as f32;
        }
    }
    Tensor::new(vec![max_len, d], data)
}

/// Rows `positions` of a sinusoid table, clamped to the table length.
pub fn encode_positions(table: &Tensor, positions: &[usize]) -> Tensor {
    let max_len = table.shape()[0];
    let d = table.shape()[1];
    let mut out = Vec::with_capacity(positions.len() * d);
    for &p in positions {
        out.extend_from_slice(table.row(p.min(max_len - 1)));
    }
    Tensor::new(vec![positions.len(), d], out)
}

/// Concatenated encodings of a mention's first and last token, shape `(2d,)`.
pub fn mention_span_encoding(table: &Tensor, first: usize, last: usize) -> Vec<f32> {
    let mut out = vec![0.0; 2 * table.shape()[1]];
    write_mention_span_encoding(table, first, last, &mut out);
    out
}

/// Writes a mention's span encoding into a caller-provided `(2d,)` slice, so
/// batch loops can fill one buffer instead of allocating per mention.
pub fn write_mention_span_encoding(table: &Tensor, first: usize, last: usize, out: &mut [f32]) {
    let max_len = table.shape()[0];
    let d = table.shape()[1];
    assert_eq!(out.len(), 2 * d, "span encoding needs a (2d,) output slice");
    out[..d].copy_from_slice(table.row(first.min(max_len - 1)));
    out[d..].copy_from_slice(table.row(last.min(max_len - 1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_first_row() {
        let t = sinusoid_table(8, 4);
        assert_eq!(t.shape(), &[8, 4]);
        // pos 0: sin(0)=0, cos(0)=1 alternating
        assert_eq!(t.row(0), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn values_bounded() {
        let t = sinusoid_table(64, 16);
        assert!(t.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn distinct_positions_distinct_rows() {
        let t = sinusoid_table(32, 8);
        assert_ne!(t.row(1), t.row(2));
    }

    #[test]
    fn encode_positions_clamps() {
        let t = sinusoid_table(4, 2);
        let e = encode_positions(&t, &[100]);
        assert_eq!(e.row(0), t.row(3));
    }

    #[test]
    fn span_encoding_concatenates() {
        let t = sinusoid_table(8, 4);
        let e = mention_span_encoding(&t, 1, 3);
        assert_eq!(e.len(), 8);
        assert_eq!(&e[..4], t.row(1));
        assert_eq!(&e[4..], t.row(3));
    }
}

//! Parameter initialization distributions.
//!
//! `rand` is the only dependency; the normal sampler is a Box–Muller
//! implementation so we avoid pulling in `rand_distr`.

use crate::tensor::Tensor;
use rand::Rng;
use std::cell::Cell;

thread_local! {
    static SKIP: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard from [`skip_init`]; restores the previous mode on drop.
pub struct SkipInitGuard {
    prev: bool,
}

impl Drop for SkipInitGuard {
    fn drop(&mut self) {
        SKIP.with(|s| s.set(self.prev));
    }
}

/// While the returned guard lives (on this thread), every sampler in this
/// module returns zero tensors without drawing from the RNG. Bulk
/// weight-restore paths (frozen-artifact thaw) construct the model only
/// for its architecture and immediately overwrite every parameter;
/// sampling ~10⁶ Box–Muller draws to discard them would dominate an
/// otherwise memcpy-bound cold start. Callers MUST overwrite all
/// parameters before using the model — restore layers enforce this by
/// checking full manifest coverage.
pub fn skip_init() -> SkipInitGuard {
    SKIP.with(|s| SkipInitGuard { prev: s.replace(true) })
}

/// Whether a [`skip_init`] guard is live on this thread: constructors that
/// fill a tensor without a sampler (a copied shared row) skip that work too.
pub fn skipping() -> bool {
    SKIP.with(|s| s.get())
}

/// Samples one standard-normal value via Box–Muller.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f32 {
    // Guard against log(0).
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Tensor with i.i.d. N(0, std²) entries.
pub fn normal<R: Rng>(rng: &mut R, shape: &[usize], std: f32) -> Tensor {
    if skipping() {
        return Tensor::zeros(shape);
    }
    let n = crate::shape::numel(shape);
    let data = (0..n).map(|_| standard_normal(rng) * std).collect();
    Tensor::new(shape.to_vec(), data)
}

/// Xavier/Glorot uniform init for a `fan_in × fan_out` weight matrix.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Tensor {
    if skipping() {
        return Tensor::zeros(&[fan_in, fan_out]);
    }
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out).map(|_| rng.gen_range(-limit..limit)).collect();
    Tensor::new(vec![fan_in, fan_out], data)
}

/// Uniform init in `[-limit, limit]`.
pub fn uniform<R: Rng>(rng: &mut R, shape: &[usize], limit: f32) -> Tensor {
    if skipping() {
        return Tensor::zeros(shape);
    }
    let n = crate::shape::numel(shape);
    let data = (0..n).map(|_| rng.gen_range(-limit..limit)).collect();
    Tensor::new(shape.to_vec(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_roughly_right() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = normal(&mut rng, &[10_000], 2.0);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = xavier_uniform(&mut rng, 64, 64);
        let limit = (6.0f32 / 128.0).sqrt();
        assert!(t.data().iter().all(|x| x.abs() <= limit));
        assert_eq!(t.shape(), &[64, 64]);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = normal(&mut StdRng::seed_from_u64(3), &[16], 1.0);
        let b = normal(&mut StdRng::seed_from_u64(3), &[16], 1.0);
        assert_eq!(a, b);
    }
}

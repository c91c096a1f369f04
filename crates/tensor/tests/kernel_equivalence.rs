//! Property tests: the public matmul kernels — the register-tiled
//! micro-kernel and the three dispatchers built on it — are bit-identical to
//! the naive reference loops across awkward shapes and special values.
//!
//! Shapes are drawn from {1..9, 31..33, 63..65} so every tile-boundary case
//! is hit: sizes below one tile, exact multiples of `MR`/`NR`, and one-off
//! row/column tails. A second pool of shapes sits above `PAR_MATMUL_FLOPS`
//! and runs under a 2-thread pool, so the dispatchers' row split is
//! exercised too.
//!
//! Operands are salted with signed zeros, subnormals, ±inf and NaN, and the
//! output starts from a non-zero pattern that includes `-0.0` entries (which
//! accumulating `+0.0` in a different place would flip). Every non-NaN
//! output must match bit for bit. Where both sides are NaN only the NaN-ness
//! is compared: when both operands of an add are NaN the hardware keeps one
//! operand's sign and payload, and LLVM may commute an `fadd`, so which one
//! survives is not part of the accumulation-order invariant.

use bootleg_pool::{with_pool, ThreadPool};
use bootleg_tensor::kernels;
use proptest::prelude::*;

/// `(m, k, n, salt)`.
type Shape = (usize, usize, usize, usize);
/// A `c += a·b` kernel with the `matmul_acc` signature.
type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Dimension pool covering sub-tile, tile-aligned, and tail sizes.
const DIMS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65];

/// Dimension pool whose every product of three is above
/// `kernels::PAR_MATMUL_FLOPS`, so the dispatchers fan out.
const PAR_DIMS: [usize; 5] = [48, 63, 64, 65, 97];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn par_dim() -> impl Strategy<Value = usize> {
    (0usize..PAR_DIMS.len()).prop_map(|i| PAR_DIMS[i])
}

/// Signed zeros and subnormals, salted into every 7th slot.
const FINITE_SPECIALS: [f32; 4] = [0.0, -0.0, 1.0e-40, -1.0e-42];
/// Non-finite values, salted into about one slot in 211 — rare enough that
/// most outputs of a 64-long chain stay finite.
const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// Values in [-1, 3) salted with [`FINITE_SPECIALS`] and [`NON_FINITE`].
fn operand(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(salt as u64);
            if h.is_multiple_of(211) {
                NON_FINITE[(h / 211 % 3) as usize]
            } else if (i + salt).is_multiple_of(7) {
                FINITE_SPECIALS[(i / 7 + salt) % FINITE_SPECIALS.len()]
            } else {
                ((h >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 1.0
            }
        })
        .collect()
}

/// Non-zero starting output including `-0.0` entries.
fn initial_c(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match (i + salt) % 5 {
            0 => -0.0,
            1 => 0.25,
            2 => -1.5,
            3 => 0.0,
            _ => 3.0,
        })
        .collect()
}

/// Asserts equal bits, except that two NaNs match whatever their sign and
/// payload (see the module docs).
fn assert_same_bits(kernel: &str, got: &[f32], naive: &[f32]) {
    assert_eq!(got.len(), naive.len());
    for (i, (g, n)) in got.iter().zip(naive).enumerate() {
        assert!(
            g.to_bits() == n.to_bits() || (g.is_nan() && n.is_nan()),
            "{kernel} element {i}: {g} ({:#010x}) vs naive {n} ({:#010x})",
            g.to_bits(),
            n.to_bits()
        );
    }
}

/// `c += a·b` through `kernel` versus [`kernels::matmul_acc_naive`].
fn check_ab(kernel: Kernel, name: &str, (m, k, n, salt): Shape) {
    let a = operand(m * k, salt);
    let b = operand(k * n, salt + 1);
    let mut c = initial_c(m * n, salt);
    let mut c_naive = c.clone();
    kernel(&a, &b, &mut c, m, k, n);
    kernels::matmul_acc_naive(&a, &b, &mut c_naive, m, k, n);
    assert_same_bits(name, &c, &c_naive);
}

/// `c += aᵀ·b` through [`kernels::matmul_at_b_acc`] versus its naive loop.
fn check_at_b((m, k, n, salt): Shape) {
    let a = operand(m * k, salt);
    let b = operand(m * n, salt + 2);
    let mut c = initial_c(k * n, salt);
    let mut c_naive = c.clone();
    kernels::matmul_at_b_acc(&a, &b, &mut c, m, k, n);
    kernels::matmul_at_b_naive(&a, &b, &mut c_naive, m, k, n);
    assert_same_bits("matmul_at_b_acc", &c, &c_naive);
}

/// `c += a·bᵀ` through [`kernels::matmul_a_bt_acc`] versus its naive loop.
fn check_a_bt((m, k, n, salt): Shape) {
    let a = operand(m * k, salt);
    let b = operand(n * k, salt + 4);
    let mut c = initial_c(m * n, salt);
    let mut c_naive = c.clone();
    kernels::matmul_a_bt_acc(&a, &b, &mut c, m, k, n);
    kernels::matmul_a_bt_naive(&a, &b, &mut c_naive, m, k, n);
    assert_same_bits("matmul_a_bt_acc", &c, &c_naive);
}

/// Runs `check` on a shape above the parallel cutoff under a 2-thread pool.
fn pooled(shape: Shape, check: impl FnOnce(Shape)) {
    let (m, k, n, _) = shape;
    assert!(m * k * n >= kernels::PAR_MATMUL_FLOPS);
    let pool = ThreadPool::new(2);
    with_pool(&pool, || check(shape));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiled_matmul_bit_identical_to_naive(shape in (dim(), dim(), dim(), 0usize..1000)) {
        check_ab(kernels::matmul_acc_tiled, "matmul_acc_tiled", shape);
    }

    #[test]
    fn dispatched_matmul_bit_identical_to_naive(shape in (dim(), dim(), dim(), 0usize..1000)) {
        check_ab(kernels::matmul_acc, "matmul_acc", shape);
    }

    #[test]
    fn at_b_bit_identical_to_naive(shape in (dim(), dim(), dim(), 0usize..1000)) {
        check_at_b(shape);
    }

    #[test]
    fn a_bt_bit_identical_to_naive(shape in (dim(), dim(), dim(), 0usize..1000)) {
        check_a_bt(shape);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pooled_matmul_bit_identical_to_naive(shape in (par_dim(), par_dim(), par_dim(), 0usize..1000)) {
        pooled(shape, |s| check_ab(kernels::matmul_acc, "matmul_acc", s));
    }

    #[test]
    fn pooled_at_b_bit_identical_to_naive(shape in (par_dim(), par_dim(), par_dim(), 0usize..1000)) {
        pooled(shape, check_at_b);
    }

    #[test]
    fn pooled_a_bt_bit_identical_to_naive(shape in (par_dim(), par_dim(), par_dim(), 0usize..1000)) {
        pooled(shape, check_a_bt);
    }
}

//! Raw numeric kernels shared by forward and backward passes.
//!
//! All kernels operate on contiguous row-major buffers.
//!
//! ## Micro-kernel tiling
//!
//! Every matmul runs one register-blocked micro-kernel, [`matmul_acc_tiled`]
//! (`c += a·b`, portable plus an AVX2 edition): output tiles of [`MR`] rows
//! × [`NR`] columns are loaded into stack arrays the compiler keeps in SIMD
//! registers, the full k-extent is accumulated into them, and they are
//! stored back once — so the innermost loop touches no `c` memory and reuses
//! each loaded `b` row across `MR` output rows. The two backward products
//! reuse that tile on a transposed copy of their strided operand, packed
//! once per call by a cache-blocked transpose: `AᵀB` packs `aᵀ` and
//! accumulates straight into `c`; `A·Bᵀ` packs `bᵀ` and accumulates into a
//! zeroed scratch that is added to `c` once. The seed's loops are kept as
//! `matmul_*_naive` references for the equivalence tests and benchmarks.
//! The largest win is `A·Bᵀ` (the dx backward): its naive form is one
//! sequential dot-product chain per element, which cannot vectorize along k
//! without reassociating, while the tile runs `MR`×`NR` independent chains.
//!
//! **Accumulation-order invariant:** every tiled kernel performs, per output
//! element, exactly the floating-point operations of the naive loop in
//! exactly the same order — k ascending, separate mul and add (Rust never
//! contracts to FMA). For `A·Bᵀ` that means the naive loop's dot chain `s`,
//! started at `+0.0`, then `*cv += s`; chaining into a non-zero `c` instead
//! would add the same terms in a different order. Tiling only changes
//! *which registers* hold the partial sums, never the arithmetic, so naive,
//! tiled, and pool-chunked results are bit-identical. No kernel skips zero
//! operands: the tile is branchless.
//!
//! ## Data parallelism
//!
//! Kernels above the `PAR_*` size cutoffs fan out over the
//! [`bootleg_pool`] execution layer by splitting their *output* rows (or
//! batch slabs) into disjoint chunks; below the cutoffs they run the plain
//! serial loop. Every chunk computes exactly the elements the serial loop
//! would, with the same per-element floating-point accumulation order, so
//! results are **bit-identical at any thread count** — parallelism here is
//! purely a scheduling choice, never a numeric one.
//!
//! ## Observability
//!
//! Each public kernel counts its calls, work volume (`kernel.matmul.flops`,
//! `kernel.*.rows`), and which path it chose (`.par` when it fanned out to
//! the pool, `.serial` otherwise) through `bootleg-obs`. A counted `.par`
//! call can still *execute* serially inside the pool (nested fork-join);
//! `pool.serial_fallback` accounts for those.

use bootleg_obs::counter;

/// Micro-kernel row blocking: output rows processed per register tile.
pub const MR: usize = 4;
/// Micro-kernel column blocking: output columns per register tile. With
/// baseline SSE2 (16 × 128-bit registers) an `MR`×`NR` f32 tile occupies 8
/// registers, leaving room for the `b` tile and the broadcast `a` operand.
pub const NR: usize = 8;

/// Minimum multiply-accumulate count before a matmul fans out to the pool.
pub const PAR_MATMUL_FLOPS: usize = 64 * 1024;
/// Target multiply-accumulate count per parallel matmul chunk. Sized so a
/// chunk outlives the pool's enqueue/steal overhead by a comfortable margin:
/// the tiled micro-kernel retires elements several times faster than the old
/// naive loop did, so chunks carry 4× the flops they did when this constant
/// was introduced (16 KiFLOP chunks left workers idling on the queue).
const PAR_MATMUL_CHUNK_FLOPS: usize = 64 * 1024;
/// Minimum element count before row-wise kernels (softmax, layer norm,
/// gather) fan out to the pool.
pub const PAR_ROWS_MIN_ELEMS: usize = 16 * 1024;
/// Target element count per parallel row chunk.
const PAR_ROW_CHUNK_ELEMS: usize = 8 * 1024;

/// Rows per chunk that lands roughly `target` scalar ops per chunk when each
/// row costs `row_work`.
fn rows_per_chunk(target: usize, row_work: usize) -> usize {
    (target / row_work.max(1)).max(1)
}

/// Counts one matmul-family call: `macs` multiply-accumulates → 2·macs FLOPs.
#[inline]
fn obs_matmul(macs: usize, par: bool) {
    counter!("kernel.matmul.calls").inc();
    counter!("kernel.matmul.flops").add(2 * macs as u64);
    if par {
        counter!("kernel.matmul.par").inc();
    } else {
        counter!("kernel.matmul.serial").inc();
    }
}

/// Counts one gather call over `rows` output rows.
#[inline]
fn obs_gather(rows: usize, par: bool) {
    counter!("kernel.gather.calls").inc();
    counter!("kernel.gather.rows").add(rows as u64);
    if par {
        counter!("kernel.gather.par").inc();
    } else {
        counter!("kernel.gather.serial").inc();
    }
}

/// Counts one softmax / log-softmax call over `rows` rows.
#[inline]
fn obs_softmax(rows: usize, par: bool) {
    counter!("kernel.softmax.calls").inc();
    counter!("kernel.softmax.rows").add(rows as u64);
    if par {
        counter!("kernel.softmax.par").inc();
    } else {
        counter!("kernel.softmax.serial").inc();
    }
}

/// Counts one layer-norm call over `rows` rows.
#[inline]
fn obs_layer_norm(rows: usize, par: bool) {
    counter!("kernel.layer_norm.calls").inc();
    counter!("kernel.layer_norm.rows").add(rows as u64);
    if par {
        counter!("kernel.layer_norm.par").inc();
    } else {
        counter!("kernel.layer_norm.serial").inc();
    }
}

/// `c += a (m×k) * b (k×n)`; `c` is m×n and must be pre-zeroed by the caller
/// if plain assignment is wanted.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let par = m >= 2 && m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(m * k * n, par);
    if par {
        // Round chunks to whole MR row-blocks so only the final chunk can
        // hit the micro-kernel's row-tail path.
        let rows_per = rows_per_chunk(PAR_MATMUL_CHUNK_FLOPS, k * n).next_multiple_of(MR);
        bootleg_pool::parallel_chunks_mut(c, rows_per * n, |ci, cc| {
            let r0 = ci * rows_per;
            let rows = cc.len() / n;
            matmul_acc_tiled(&a[r0 * k..(r0 + rows) * k], b, cc, rows, k, n);
        });
    } else {
        matmul_acc_tiled(a, b, c, m, k, n);
    }
}

/// Reference i-k-j scalar loop for `c += a·b`. Bit-identical to
/// [`matmul_acc_tiled`]; kept for the equivalence property tests and the
/// `kernel_gflops_fwd_naive` baseline benchmark.
pub fn matmul_acc_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
    }
}

/// Register-blocked `c += a (m×k) · b (k×n)` — the one matmul micro-kernel.
///
/// Full [`MR`]×[`NR`] output tiles are accumulated in stack registers; the
/// k-loop broadcasts one `a` element per row against an `NR`-wide `b` slice,
/// so each `b` load is reused `MR` times and `c` is touched once per tile.
/// Per-element arithmetic (k order, mul/add split) is exactly the naive
/// loop's — see the module docs on the accumulation-order invariant.
///
/// On x86-64 hosts with AVX2 this dispatches to an explicit-intrinsics tile
/// (detected once at runtime); it performs the same mul-then-add per output
/// element in the same k order, only across 8 disjoint output columns per
/// vector lane, so the result stays bit-identical to the portable tile and
/// the naive reference.
pub fn matmul_acc_tiled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && avx2_available() {
        assert!(
            a.len() >= m * k && b.len() >= k * n && c.len() >= m * n,
            "matmul operand shorter than its shape"
        );
        // SAFETY: AVX2 support was verified at runtime; the lengths were
        // checked just above.
        unsafe { matmul_acc_tiled_avx2(a, b, c, m, k, n) };
        return;
    }
    matmul_acc_tiled_portable(a, b, c, m, k, n);
}

/// Portable (target-independent) register tile behind [`matmul_acc_tiled`].
fn matmul_acc_tiled_portable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                let row = (i + r) * n + j;
                accr.copy_from_slice(&c[row..row + NR]);
            }
            for p in 0..k {
                let bp = <&[f32; NR]>::try_from(&b[p * n + j..p * n + j + NR]).unwrap();
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = a[(i + r) * k + p];
                    for (cv, &bv) in accr.iter_mut().zip(bp.iter()) {
                        *cv += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let row = (i + r) * n + j;
                c[row..row + NR].copy_from_slice(accr);
            }
            j += NR;
        }
        if j < n {
            // Column tail: same register tile at reduced width.
            let w = n - j;
            let mut acc = [[0.0f32; NR]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                let row = (i + r) * n + j;
                accr[..w].copy_from_slice(&c[row..row + w]);
            }
            for p in 0..k {
                let bp = &b[p * n + j..p * n + n];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = a[(i + r) * k + p];
                    for (cv, &bv) in accr[..w].iter_mut().zip(bp.iter()) {
                        *cv += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let row = (i + r) * n + j;
                c[row..row + w].copy_from_slice(&accr[..w]);
            }
        }
        i += MR;
    }
    if i < m {
        // Row tail (< MR rows): the naive loop is already per-row.
        matmul_acc_naive(&a[i * k..m * k], b, &mut c[i * n..m * n], m - i, k, n);
    }
}

/// Cached runtime AVX2 detection for the kernel dispatchers.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 = unknown, 1 = no, 2 = yes
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::is_x86_feature_detected!("avx2");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        s => s == 2,
    }
}

/// AVX2 edition of the register tile: up to [`MR`] rows × 24 output columns
/// accumulate in twelve 8-lane vectors, with three `b` vectors reused across
/// the rows. Vector lanes are disjoint output columns, the k-loop stays
/// outermost-per-element, and multiplies are never contracted into FMA, so
/// every output element performs exactly the naive loop's mul-then-add
/// sequence — bit-identical, just eight columns per instruction. Unlike the
/// portable tile, row tails (< [`MR`] rows) run vectorized at reduced height
/// rather than falling back to the scalar loop, which matters for the skinny
/// per-example matrices of the sequential forward path.
///
/// # Safety
///
/// The CPU must support AVX2, and `a.len() >= m * k`, `b.len() >= k * n`,
/// `c.len() >= m * n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_acc_tiled_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    // SAFETY: the caller guarantees AVX2 and the `a` / `b` / `c` lengths
    // (see `# Safety`). Every unchecked `a` read is at `(i + r) * k + p`
    // with `i + r < m` and `p < k`, so below `m * k`. Every `b` / `c` vector
    // access starts at column `j` of a row `p < k` / `i + r < m` and spans
    // at most the 24 columns the loop condition (`j + 24 <= n`,
    // `j + 8 <= n`) admits.
    unsafe {
        use core::arch::x86_64::*;
        let mut i = 0;
        while i < m {
            let mr = MR.min(m - i);
            let mut j = 0;
            while j + 24 <= n {
                let mut acc = [[_mm256_setzero_ps(); 3]; MR];
                for (r, accr) in acc.iter_mut().take(mr).enumerate() {
                    let row = c.as_ptr().add((i + r) * n + j);
                    accr[0] = _mm256_loadu_ps(row);
                    accr[1] = _mm256_loadu_ps(row.add(8));
                    accr[2] = _mm256_loadu_ps(row.add(16));
                }
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    let b2 = _mm256_loadu_ps(bp.add(16));
                    for (r, accr) in acc.iter_mut().take(mr).enumerate() {
                        let av = _mm256_set1_ps(*a.get_unchecked((i + r) * k + p));
                        accr[0] = _mm256_add_ps(accr[0], _mm256_mul_ps(av, b0));
                        accr[1] = _mm256_add_ps(accr[1], _mm256_mul_ps(av, b1));
                        accr[2] = _mm256_add_ps(accr[2], _mm256_mul_ps(av, b2));
                    }
                }
                for (r, accr) in acc.iter().take(mr).enumerate() {
                    let row = c.as_mut_ptr().add((i + r) * n + j);
                    _mm256_storeu_ps(row, accr[0]);
                    _mm256_storeu_ps(row.add(8), accr[1]);
                    _mm256_storeu_ps(row.add(16), accr[2]);
                }
                j += 24;
            }
            while j + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); MR];
                for (r, accr) in acc.iter_mut().take(mr).enumerate() {
                    *accr = _mm256_loadu_ps(c.as_ptr().add((i + r) * n + j));
                }
                for p in 0..k {
                    let bv = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                    for (r, accr) in acc.iter_mut().take(mr).enumerate() {
                        let av = _mm256_set1_ps(*a.get_unchecked((i + r) * k + p));
                        *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
                    }
                }
                for (r, accr) in acc.iter().take(mr).enumerate() {
                    _mm256_storeu_ps(c.as_mut_ptr().add((i + r) * n + j), *accr);
                }
                j += 8;
            }
            if j < n {
                // Scalar column tail (< 8 columns); p stays outermost so every
                // element accumulates in ascending-k order like the naive loop.
                for p in 0..k {
                    for r in 0..mr {
                        let av = a[(i + r) * k + p];
                        let row = (i + r) * n;
                        let brow = &b[p * n + j..(p + 1) * n];
                        for (cv, &bv) in c[row + j..row + n].iter_mut().zip(brow.iter()) {
                            *cv += av * bv;
                        }
                    }
                }
            }
            i += mr;
        }
    }
}

/// `(B, M, K) × (B, K, N)` batched matmul into a pre-zeroed `c` (B, M, N),
/// parallel over the batch axis above the flop cutoff.
pub fn batch_matmul_acc(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bb: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), bb * m * k);
    debug_assert_eq!(b.len(), bb * k * n);
    debug_assert_eq!(c.len(), bb * m * n);
    let slab = m * n;
    let par = bb >= 2 && bb * m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(bb * m * k * n, par);
    if par {
        bootleg_pool::parallel_chunks_mut(c, slab, |t, cc| {
            matmul_acc_tiled(
                &a[t * m * k..(t + 1) * m * k],
                &b[t * k * n..(t + 1) * k * n],
                cc,
                m,
                k,
                n,
            );
        });
    } else {
        for t in 0..bb {
            matmul_acc_tiled(
                &a[t * m * k..(t + 1) * m * k],
                &b[t * k * n..(t + 1) * k * n],
                &mut c[t * slab..(t + 1) * slab],
                m,
                k,
                n,
            );
        }
    }
}

/// `c += aᵀ (k×m, stored m×k) * b (m×n)`; result is k×n.
/// Used for weight gradients: dW = xᵀ dy.
///
/// Packs `aᵀ` once, then runs [`matmul_acc_tiled`] straight into `c`: output
/// row `p` accumulates `aᵀ[p, i] · b[i, ..]` over ascending `i`, the chain of
/// [`matmul_at_b_naive`].
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    let par = k >= 2 && m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(m * k * n, par);
    let at = transpose(a, m, k);
    if par {
        let rows_per = rows_per_chunk(PAR_MATMUL_CHUNK_FLOPS, m * n).next_multiple_of(MR);
        bootleg_pool::parallel_chunks_mut(c, rows_per * n, |ci, cc| {
            let r0 = ci * rows_per;
            let rows = cc.len() / n;
            matmul_acc_tiled(&at[r0 * m..(r0 + rows) * m], b, cc, rows, m, n);
        });
    } else {
        matmul_acc_tiled(&at, b, c, k, m, n);
    }
}

/// Reference loop for `c += aᵀ·b`. Bit-identical to [`matmul_at_b_acc`].
pub fn matmul_at_b_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let brow = &b[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let crow = &mut c[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
    }
}

/// `c += a (m×k) * bᵀ (n×k, stored n×k)`; result is m×n.
/// Used for input gradients: dx = dy Wᵀ.
///
/// Packs `bᵀ` once, runs [`matmul_acc_tiled`] into a zeroed scratch and adds
/// the scratch to `c`: per element that is the naive loop's dot chain `s`
/// (k ascending from `+0.0`) followed by `*cv += s`.
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let par = m >= 2 && m * k * n >= PAR_MATMUL_FLOPS;
    obs_matmul(m * k * n, par);
    let bt = transpose(b, n, k);
    if par {
        let rows_per = rows_per_chunk(PAR_MATMUL_CHUNK_FLOPS, k * n).next_multiple_of(MR);
        bootleg_pool::parallel_chunks_mut(c, rows_per * n, |ci, cc| {
            let r0 = ci * rows_per;
            let rows = cc.len() / n;
            matmul_acc_scratch(&a[r0 * k..(r0 + rows) * k], &bt, cc, rows, k, n);
        });
    } else {
        matmul_acc_scratch(a, &bt, c, m, k, n);
    }
}

/// `c += (a·b)` with the product accumulated in a zeroed scratch first, so
/// each element is added to `c` once, after its whole k-chain.
fn matmul_acc_scratch(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut s = vec![0.0; m * n];
    matmul_acc_tiled(a, b, &mut s, m, k, n);
    for (cv, sv) in c.iter_mut().zip(&s) {
        *cv += sv;
    }
}

/// Reference loop for `c += a·bᵀ`. Bit-identical to [`matmul_a_bt_acc`].
pub fn matmul_a_bt_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut s = 0.0;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                s += av * bv;
            }
            *cv += s;
        }
    }
}

/// Side of the square blocks [`transpose`] copies: a 16×16 f32 block spans
/// 16 cache lines of source and 16 of destination, so both the strided reads
/// and the strided writes stay in L1 while the block is copied.
const TRANSPOSE_BLOCK: usize = 16;

/// The `cols × rows` transpose of the row-major `rows × cols` matrix `src`,
/// copied block by block.
fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut dst = vec![0.0; rows * cols];
    for r0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
        for c0 in (0..cols).step_by(TRANSPOSE_BLOCK) {
            for r in r0..(r0 + TRANSPOSE_BLOCK).min(rows) {
                for c in c0..(c0 + TRANSPOSE_BLOCK).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
    dst
}

/// Gathers `rows` of a row-major `(·, cols)` table into `out`
/// (`rows.len() × cols`), parallel over output rows above the cutoff.
pub fn gather_rows(table: &[f32], rows: &[u32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(out.len(), rows.len() * cols);
    let copy = |rs: &[u32], os: &mut [f32]| {
        for (r, orow) in rs.iter().zip(os.chunks_exact_mut(cols)) {
            let r = *r as usize;
            orow.copy_from_slice(&table[r * cols..(r + 1) * cols]);
        }
    };
    let par = rows.len() >= 2 && out.len() >= PAR_ROWS_MIN_ELEMS;
    obs_gather(rows.len(), par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            copy(&rows[r0..r0 + oc.len() / cols], oc);
        });
    } else {
        copy(rows, out);
    }
}

/// Numerically-stable softmax over each row of an `rows × cols` buffer,
/// written into `out` (may not alias `x`).
pub fn softmax_rows(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    let par = rows >= 2 && rows * cols >= PAR_ROWS_MIN_ELEMS;
    obs_softmax(rows, par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            let nr = oc.len() / cols;
            softmax_rows_serial(&x[r0 * cols..(r0 + nr) * cols], oc, nr, cols);
        });
    } else {
        softmax_rows_serial(x, out, rows, cols);
    }
}

fn softmax_rows_serial(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let xi = &x[r * cols..(r + 1) * cols];
        let oi = &mut out[r * cols..(r + 1) * cols];
        let mx = xi.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        exp_shifted(xi, oi, mx);
        // The sum stays a plain ascending scalar fold: reassociating it
        // would change which bits the division below sees.
        let mut sum = 0.0;
        for &e in oi.iter() {
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in oi.iter_mut() {
            *o *= inv;
        }
    }
}

/// `out[j] = exp(x[j] − mx)` — the shifted-exponent loop of row softmax.
///
/// Portable hosts use libm. AVX2 hosts evaluate the shared polynomial
/// `exp` with the scalar tail replaying the identical op sequence, so a
/// value's output bits do not depend on its offset. A `x − mx` of exactly
/// `-inf` (masked padding) maps to exactly `+0.0` on every path — the
/// ragged-batching mask argument depends on that, so the vector path
/// zeroes those lanes explicitly rather than letting the range clamp turn
/// them into `2^-126`-scale noise.
fn exp_shifted(x: &[f32], out: &mut [f32], mx: f32) {
    assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime; the lengths were
        // checked just above.
        unsafe { exp_shifted_avx2(x, out, mx) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = (v - mx).exp();
    }
}

/// Scalar replica of one [`exp_shifted_avx2`] lane.
#[cfg(target_arch = "x86_64")]
fn exp_shifted_poly(v: f32, mx: f32) -> f32 {
    use expc::*;
    let ex0 = v - mx;
    if ex0 == f32::NEG_INFINITY {
        return 0.0;
    }
    let ex = ex0.max(MIN_X);
    let n = (ex * LOG2E).round_ties_even();
    let r = (ex - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let mut y = P0;
    y = y * r + P1;
    y = y * r + P2;
    y = y * r + P3;
    y = y * r + P4;
    y = y * r + P5;
    y = (y * z + r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    y * pow2
}

/// 8-lane shifted exp; see [`exp_shifted`].
///
/// # Safety
///
/// The CPU must support AVX2, and `out.len() == x.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exp_shifted_avx2(x: &[f32], out: &mut [f32], mx: f32) {
    // SAFETY: the caller guarantees AVX2 and `out.len() == x.len()` (see
    // `# Safety`); each vector load/store covers `i..i + 8` with
    // `i + 8 <= x.len()`.
    unsafe {
        use core::arch::x86_64::*;
        use expc::*;
        let one = _mm256_set1_ps(1.0);
        let mxv = _mm256_set1_ps(mx);
        let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
        let n = x.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            let ex0 = _mm256_sub_ps(v, mxv);
            let masked = _mm256_cmp_ps::<{ _CMP_EQ_OQ }>(ex0, ninf);
            let ex = _mm256_max_ps(ex0, _mm256_set1_ps(MIN_X));
            let nf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                _mm256_mul_ps(ex, _mm256_set1_ps(LOG2E)),
            );
            let r = _mm256_sub_ps(
                _mm256_sub_ps(ex, _mm256_mul_ps(nf, _mm256_set1_ps(LN2_HI))),
                _mm256_mul_ps(nf, _mm256_set1_ps(LN2_LO)),
            );
            let z = _mm256_mul_ps(r, r);
            let mut y = _mm256_set1_ps(P0);
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
            y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), one);
            let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                _mm256_cvtps_epi32(nf),
                _mm256_set1_epi32(127),
            )));
            let e = _mm256_andnot_ps(masked, _mm256_mul_ps(y, pow2));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), e);
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(x[i..].iter()) {
            *o = exp_shifted_poly(v, mx);
        }
    }
}

/// Backward of row softmax: given y = softmax(x) and dy, computes
/// dx = y ⊙ (dy − ⟨dy, y⟩) per row, accumulated into `dx`.
pub fn softmax_rows_backward(y: &[f32], dy: &[f32], dx: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let yi = &y[r * cols..(r + 1) * cols];
        let dyi = &dy[r * cols..(r + 1) * cols];
        let dxi = &mut dx[r * cols..(r + 1) * cols];
        let dot: f32 = yi.iter().zip(dyi.iter()).map(|(a, b)| a * b).sum();
        for ((d, &yv), &dyv) in dxi.iter_mut().zip(yi.iter()).zip(dyi.iter()) {
            *d += yv * (dyv - dot);
        }
    }
}

/// log-softmax over each row, written into `out`.
pub fn log_softmax_rows(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    let par = rows >= 2 && rows * cols >= PAR_ROWS_MIN_ELEMS;
    obs_softmax(rows, par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            let nr = oc.len() / cols;
            log_softmax_rows_serial(&x[r0 * cols..(r0 + nr) * cols], oc, nr, cols);
        });
    } else {
        log_softmax_rows_serial(x, out, rows, cols);
    }
}

fn log_softmax_rows_serial(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let xi = &x[r * cols..(r + 1) * cols];
        let oi = &mut out[r * cols..(r + 1) * cols];
        let mx = xi.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = xi.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
        for (o, &v) in oi.iter_mut().zip(xi.iter()) {
            *o = v - lse;
        }
    }
}

/// Layer norm over each row with affine `gamma`/`beta` (length `cols`),
/// written into `out`; parallel over rows above the cutoff.
pub fn layer_norm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    rows: usize,
    cols: usize,
    eps: f32,
) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(gamma.len(), cols);
    debug_assert_eq!(beta.len(), cols);
    let norm = |xs: &[f32], os: &mut [f32], nr: usize| {
        for r in 0..nr {
            let xr = &xs[r * cols..(r + 1) * cols];
            let or = &mut os[r * cols..(r + 1) * cols];
            let mu: f32 = xr.iter().sum::<f32>() / cols as f32;
            let var: f32 = xr.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            for j in 0..cols {
                or[j] = (xr[j] - mu) * inv_std * gamma[j] + beta[j];
            }
        }
    };
    let par = rows >= 2 && rows * cols >= PAR_ROWS_MIN_ELEMS;
    obs_layer_norm(rows, par);
    if par {
        let rows_per = rows_per_chunk(PAR_ROW_CHUNK_ELEMS, cols);
        bootleg_pool::parallel_chunks_mut(out, rows_per * cols, |ci, oc| {
            let r0 = ci * rows_per;
            let nr = oc.len() / cols;
            norm(&x[r0 * cols..(r0 + nr) * cols], oc, nr);
        });
    } else {
        norm(x, out, rows);
    }
}

/// The tanh-approximation GELU and its derivative.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// GELU over a contiguous slice — the forward elementwise kernel.
///
/// The portable path is the scalar [`gelu`]. On AVX2 hosts the tanh is
/// instead evaluated as `sign · (1 − e) / (1 + e)` with `e = exp(−2|y|)`
/// from a Cephes-style degree-5 polynomial (≤ 2 ulp from libm). The scalar
/// tail after the 8-wide loop replays the *same* polynomial op sequence
/// ([`gelu_poly`]), never libm, so a given input value maps to the same
/// output bits wherever it sits in the slice. That per-value determinism is
/// what the batched-vs-sequential parity invariant needs: ragged batching
/// shifts an element's offset (and thus body-vs-tail placement), but never
/// its value.
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime; the lengths were
        // checked just above.
        unsafe { gelu_slice_avx2(x, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = gelu(v);
    }
}

/// Cephes-style `exp` coefficients shared by the vector kernel and its
/// scalar-tail replica.
#[cfg(target_arch = "x86_64")]
mod expc {
    pub const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// `ln 2` split hi/lo for an exact-ish range reduction. The hi part is
    /// written out in full: it is exactly `355/512`, chosen so `n · LN2_HI`
    /// is exact for the `n` range in play.
    #[allow(clippy::excessive_precision)]
    pub const LN2_HI: f32 = 0.693_359_375;
    pub const LN2_LO: f32 = -2.121_944_4e-4;
    /// Inputs below this clamp; keeps `2^n` a normal number.
    pub const MIN_X: f32 = -87.0;
    pub const P0: f32 = 1.987_569_2e-4;
    pub const P1: f32 = 1.398_199_9e-3;
    pub const P2: f32 = 8.333_452e-3;
    pub const P3: f32 = 4.166_579_6e-2;
    pub const P4: f32 = 1.666_666_5e-1;
    pub const P5: f32 = 5.000_000_3e-1;
    pub const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi), same as `gelu`
    pub const GELU_K: f32 = 0.044_715;
}

/// Scalar replica of the AVX2 lane math: identical constants and operation
/// order (every mul/add/div unfused), so it produces bit-identical results
/// to one vector lane and can serve as the loop tail.
#[cfg(target_arch = "x86_64")]
fn gelu_poly(x: f32) -> f32 {
    use expc::*;
    let inner = GELU_C * (x + GELU_K * (x * x * x));
    // e = exp(-2|inner|) via round-to-nearest 2^n · poly(r).
    let ex = (inner.abs() * -2.0).max(MIN_X);
    let n = (ex * LOG2E).round_ties_even();
    let r = (ex - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let mut y = P0;
    y = y * r + P1;
    y = y * r + P2;
    y = y * r + P3;
    y = y * r + P4;
    y = y * r + P5;
    y = (y * z + r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    let e = y * pow2;
    let t = ((1.0 - e) / (1.0 + e)).copysign(inner);
    (0.5 * x) * (1.0 + t)
}

/// 8-lane AVX2 GELU; see [`gelu_slice`] for the math and the parity
/// argument. Lanes are independent — no horizontal operations — so lane
/// placement cannot affect a value's result.
///
/// # Safety
///
/// The CPU must support AVX2, and `out.len() == x.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_slice_avx2(x: &[f32], out: &mut [f32]) {
    // SAFETY: the caller guarantees AVX2 and `out.len() == x.len()` (see
    // `# Safety`); each vector load/store covers `i..i + 8` with
    // `i + 8 <= x.len()`.
    unsafe {
        use core::arch::x86_64::*;
        use expc::*;
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let signbit = _mm256_set1_ps(-0.0);
        let n = x.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            let x3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
            let inner = _mm256_mul_ps(
                _mm256_set1_ps(GELU_C),
                _mm256_add_ps(v, _mm256_mul_ps(_mm256_set1_ps(GELU_K), x3)),
            );
            let sign = _mm256_and_ps(inner, signbit);
            let ex = _mm256_max_ps(
                _mm256_mul_ps(_mm256_andnot_ps(signbit, inner), _mm256_set1_ps(-2.0)),
                _mm256_set1_ps(MIN_X),
            );
            let nf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                _mm256_mul_ps(ex, _mm256_set1_ps(LOG2E)),
            );
            let r = _mm256_sub_ps(
                _mm256_sub_ps(ex, _mm256_mul_ps(nf, _mm256_set1_ps(LN2_HI))),
                _mm256_mul_ps(nf, _mm256_set1_ps(LN2_LO)),
            );
            let z = _mm256_mul_ps(r, r);
            let mut y = _mm256_set1_ps(P0);
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
            y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), one);
            let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                _mm256_cvtps_epi32(nf),
                _mm256_set1_epi32(127),
            )));
            let e = _mm256_mul_ps(y, pow2);
            let t = _mm256_or_ps(
                _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e)),
                sign,
            );
            let g = _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), g);
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(x[i..].iter()) {
            *o = gelu_poly(v);
        }
    }
}

/// Elementwise tanh over a slice, for the additive-attention bag scorer.
///
/// Portable hosts use libm; AVX2 hosts evaluate
/// `sign · (1 − e) / (1 + e)` with `e = exp(−2|x|)` from the shared
/// polynomial, scalar tail included, so output bits depend only on the
/// input value — see [`gelu_slice`] for why that is the invariant ragged
/// batching needs.
pub fn tanh_slice(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was verified at runtime; the lengths were
        // checked just above.
        unsafe { tanh_slice_avx2(x, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v.tanh();
    }
}

/// Scalar replica of one [`tanh_slice_avx2`] lane.
#[cfg(target_arch = "x86_64")]
fn tanh_poly(x: f32) -> f32 {
    use expc::*;
    let ex = (x.abs() * -2.0).max(MIN_X);
    let n = (ex * LOG2E).round_ties_even();
    let r = (ex - n * LN2_HI) - n * LN2_LO;
    let z = r * r;
    let mut y = P0;
    y = y * r + P1;
    y = y * r + P2;
    y = y * r + P3;
    y = y * r + P4;
    y = y * r + P5;
    y = (y * z + r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    let e = y * pow2;
    ((1.0 - e) / (1.0 + e)).copysign(x)
}

/// 8-lane AVX2 tanh; see [`tanh_slice`].
///
/// # Safety
///
/// The CPU must support AVX2, and `out.len() == x.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_slice_avx2(x: &[f32], out: &mut [f32]) {
    // SAFETY: the caller guarantees AVX2 and `out.len() == x.len()` (see
    // `# Safety`); each vector load/store covers `i..i + 8` with
    // `i + 8 <= x.len()`.
    unsafe {
        use core::arch::x86_64::*;
        use expc::*;
        let one = _mm256_set1_ps(1.0);
        let signbit = _mm256_set1_ps(-0.0);
        let n = x.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            let sign = _mm256_and_ps(v, signbit);
            let ex = _mm256_max_ps(
                _mm256_mul_ps(_mm256_andnot_ps(signbit, v), _mm256_set1_ps(-2.0)),
                _mm256_set1_ps(MIN_X),
            );
            let nf = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                _mm256_mul_ps(ex, _mm256_set1_ps(LOG2E)),
            );
            let r = _mm256_sub_ps(
                _mm256_sub_ps(ex, _mm256_mul_ps(nf, _mm256_set1_ps(LN2_HI))),
                _mm256_mul_ps(nf, _mm256_set1_ps(LN2_LO)),
            );
            let z = _mm256_mul_ps(r, r);
            let mut y = _mm256_set1_ps(P0);
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
            y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
            y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), one);
            let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                _mm256_cvtps_epi32(nf),
                _mm256_set1_epi32(127),
            )));
            let e = _mm256_mul_ps(y, pow2);
            let t = _mm256_or_ps(
                _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e)),
                sign,
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(i), t);
            i += 8;
        }
        for (o, &v) in out[i..].iter_mut().zip(x[i..].iter()) {
            *o = tanh_poly(v);
        }
    }
}

/// Derivative of [`gelu`].
#[inline]
pub fn gelu_deriv(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a: Vec<f32> = (0..6).map(|x| x as f32 * 0.5 - 1.0).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32).sin()).collect();
        let mut c = vec![0.0; 2 * 4];
        matmul_acc(&a, &b, &mut c, 2, 3, 4);
        let expect = naive_matmul(&a, &b, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn at_b_matches_transpose() {
        // aᵀ b where a is 3x2 (so aᵀ is 2x3), b is 3x4 -> 2x4
        let a: Vec<f32> = (0..6).map(|x| x as f32 + 1.0).collect();
        let b: Vec<f32> = (0..12).map(|x| x as f32 - 5.0).collect();
        let mut c = vec![0.0; 2 * 4];
        matmul_at_b_acc(&a, &b, &mut c, 3, 2, 4);
        // build explicit transpose
        let mut at = vec![0.0; 6];
        for i in 0..3 {
            for j in 0..2 {
                at[j * 3 + i] = a[i * 2 + j];
            }
        }
        let expect = naive_matmul(&at, &b, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_matches_transpose() {
        // a (2x3) * bᵀ where b is 4x3 -> 2x4
        let a: Vec<f32> = (0..6).map(|x| x as f32 * 0.3).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32).cos()).collect();
        let mut c = vec![0.0; 2 * 4];
        matmul_a_bt_acc(&a, &b, &mut c, 2, 3, 4);
        let mut bt = vec![0.0; 12];
        for i in 0..4 {
            for j in 0..3 {
                bt[j * 4 + i] = b[i * 3 + j];
            }
        }
        let expect = naive_matmul(&a, &bt, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut y = [0.0; 6];
        softmax_rows(&x, &mut y, 2, 3);
        for r in 0..2 {
            let s: f32 = y[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(y[2] > y[1] && y[1] > y[0]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let x = [1000.0, 1001.0];
        let mut y = [0.0; 2];
        softmax_rows(&x, &mut y, 1, 2);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!((y[0] + y[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = [0.3, -1.2, 2.0];
        let mut s = [0.0; 3];
        let mut ls = [0.0; 3];
        softmax_rows(&x, &mut s, 1, 3);
        log_softmax_rows(&x, &mut ls, 1, 3);
        for i in 0..3 {
            assert!((s[i].ln() - ls[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_deriv_matches_fd() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((gelu_deriv(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    /// Runs `f` under a 1-thread and an 8-thread pool and asserts the two
    /// output buffers are bit-identical.
    fn assert_par_bitwise(mut f: impl FnMut() -> Vec<f32>) {
        let serial_pool = bootleg_pool::ThreadPool::new(1);
        let par_pool = bootleg_pool::ThreadPool::new(8);
        let serial = bootleg_pool::with_pool(&serial_pool, &mut f);
        let parallel = bootleg_pool::with_pool(&par_pool, &mut f);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.to_bits(), p.to_bits(), "element {i}: serial {s} vs parallel {p}");
        }
    }

    fn pseudo(n: usize, salt: u64) -> Vec<f32> {
        // Deterministic, non-trivial values with some exact zeros.
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(salt);
                if h.is_multiple_of(17) {
                    0.0
                } else {
                    ((h >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn par_matmul_bit_identical_above_cutoff() {
        // 96×80×72 = 552960 flops ≫ PAR_MATMUL_FLOPS.
        let (m, k, n) = (96, 80, 72);
        let a = pseudo(m * k, 1);
        let b = pseudo(k * n, 2);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; m * n];
            matmul_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn par_matmul_at_b_bit_identical() {
        let (m, k, n) = (90, 64, 70);
        let a = pseudo(m * k, 3);
        let b = pseudo(m * n, 4);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; k * n];
            matmul_at_b_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn par_matmul_a_bt_bit_identical() {
        let (m, k, n) = (88, 60, 66);
        let a = pseudo(m * k, 5);
        let b = pseudo(n * k, 6);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; m * n];
            matmul_a_bt_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn par_batch_matmul_bit_identical() {
        let (bb, m, k, n) = (12, 20, 24, 18);
        let a = pseudo(bb * m * k, 7);
        let b = pseudo(bb * k * n, 8);
        assert_par_bitwise(|| {
            let mut c = vec![0.0; bb * m * n];
            batch_matmul_acc(&a, &b, &mut c, bb, m, k, n);
            c
        });
    }

    #[test]
    fn par_row_ops_bit_identical() {
        let (rows, cols) = (256, 96); // 24576 elems > PAR_ROWS_MIN_ELEMS
        let x = pseudo(rows * cols, 9);
        assert_par_bitwise(|| {
            let mut y = vec![0.0; rows * cols];
            softmax_rows(&x, &mut y, rows, cols);
            y
        });
        assert_par_bitwise(|| {
            let mut y = vec![0.0; rows * cols];
            log_softmax_rows(&x, &mut y, rows, cols);
            y
        });
        let gamma = pseudo(cols, 10);
        let beta = pseudo(cols, 11);
        assert_par_bitwise(|| {
            let mut y = vec![0.0; rows * cols];
            layer_norm_rows(&x, &gamma, &beta, &mut y, rows, cols, 1e-5);
            y
        });
    }

    #[test]
    fn par_gather_rows_bit_identical() {
        let cols = 64;
        let table = pseudo(500 * cols, 12);
        let rows: Vec<u32> = (0..400u32).map(|i| (i * 37) % 500).collect();
        assert_par_bitwise(|| {
            let mut out = vec![0.0; rows.len() * cols];
            gather_rows(&table, &rows, &mut out, cols);
            out
        });
    }

    #[test]
    fn small_sizes_stay_on_the_serial_path() {
        // Below every cutoff: must match the naive reference exactly.
        let a = pseudo(6, 21);
        let b = pseudo(12, 22);
        let mut c = vec![0.0; 8];
        matmul_acc(&a, &b, &mut c, 2, 3, 4);
        let expect = naive_matmul(&a, &b, 2, 3, 4);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    // The AVX2 paths write through raw pointers, so a too-short output must
    // panic before they run, in release builds too.
    #[test]
    #[should_panic]
    fn tiled_matmul_rejects_a_short_output() {
        let mut c = vec![0.0; 15];
        matmul_acc_tiled(&pseudo(2 * 3, 1), &pseudo(3 * 8, 2), &mut c, 2, 3, 8);
    }

    #[test]
    #[should_panic]
    fn tiled_matmul_rejects_a_short_lhs() {
        let mut c = vec![0.0; 16];
        matmul_acc_tiled(&pseudo(2 * 3 - 1, 1), &pseudo(3 * 8, 2), &mut c, 2, 3, 8);
    }

    #[test]
    #[should_panic]
    fn gelu_slice_rejects_a_short_output() {
        gelu_slice(&pseudo(16, 3), &mut [0.0; 8]);
    }

    #[test]
    #[should_panic]
    fn tanh_slice_rejects_a_short_output() {
        tanh_slice(&pseudo(16, 4), &mut [0.0; 8]);
    }
}

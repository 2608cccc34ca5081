//! Cache-blocked, register-tiled GEMM engine with packed operand panels.
//!
//! This is the repo's analogue of the BLIS/GotoBLAS microkernel design that
//! vendor BLAS libraries (and the cuBLAS kernels behind the paper's
//! Sec. 5.4.1 strided-batched cell GEMMs) use to reach near-peak dense
//! throughput:
//!
//! * the `k` dimension is split into `KC`-deep slabs, the `m` dimension into
//!   `MC`-tall slabs and the `n` dimension into `NC`-wide slabs so every
//!   packed operand panel fits a cache level (`A` panel in L2, `B` panel in
//!   L3/L2, the `MR x NR` register tile in registers);
//! * operands are **packed** into contiguous, zero-padded panels once per
//!   block — the microkernel then streams unit-stride through both panels
//!   regardless of the caller's storage order or `Op::ConjTrans`, and the
//!   `alpha` scale is folded into the `B` panel for free;
//! * the innermost microkernel updates an `MR x NR` accumulator tile held in
//!   registers (fixed-size arrays so the compiler can keep them in vector
//!   registers and unroll), which is where all the FLOPs happen.
//!
//! Packing buffers are recycled across calls through a thread-local pool
//! keyed by scalar type, so steady-state GEMMs — the ChFES hot loop — do not
//! allocate.
//!
//! Small problems (in particular the `(p+1)^3`-sized FE cell-level products
//! of the batched path) take a dedicated single-block fast path that skips
//! the blocking loop entirely: one `B` pack, one `A` pack, one macro-kernel
//! sweep.

use crate::scalar::Scalar;
use crate::simd::{self, SimdTier};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Rows of `A` packed per cache block (`A` panel is `MC x KC`). The
/// blocking is a compile-time constant, not a per-machine profile: `KC`
/// fixes the order in which the inner dimension is accumulated, so a fixed
/// value is what makes a solve's bits independent of where it runs.
pub const MC: usize = 128;
/// Depth of the shared inner dimension per cache block.
pub const KC: usize = 256;
/// Columns of `B` packed per cache block (`B` panel is `KC x NC`).
pub const NC: usize = 512;

/// Reused packing buffers for one thread: the `MC x KC` A-panel and the
/// `KC x NC` B-panel, grown on demand and recycled across GEMM calls.
pub struct PackBuf<T> {
    a: Vec<T>,
    b: Vec<T>,
}

impl<T> PackBuf<T> {
    /// Empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self {
            a: Vec::new(),
            b: Vec::new(),
        }
    }
}

impl<T> Default for PackBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread pool of packing buffers, keyed by scalar type.
    static PACK_POOL: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
    /// Per-thread pool of generic scratch vector pairs (FE cell gather /
    /// apply scratch), keyed by scalar type.
    static SCRATCH_POOL: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Run `f` with this thread's recycled [`PackBuf`] for scalar type `T`.
///
/// The buffer is checked out of a thread-local pool for the duration of the
/// call, so nested use with the *same* scalar type would see a fresh buffer
/// (correct, just not recycled); the GEMM drivers never nest.
pub fn with_pack_buf<T: Scalar, R>(f: impl FnOnce(&mut PackBuf<T>) -> R) -> R {
    PACK_POOL.with(|pool| {
        let mut boxed = pool
            .borrow_mut()
            .remove(&TypeId::of::<T>())
            .unwrap_or_else(|| Box::new(PackBuf::<T>::new()));
        let out = f(boxed.downcast_mut::<PackBuf<T>>().expect("pack pool type"));
        pool.borrow_mut().insert(TypeId::of::<T>(), boxed);
        out
    })
}

/// Run `f` with this thread's recycled pair of scratch vectors for scalar
/// type `T` (used by the FE cell kernels for local gather / apply buffers).
pub fn with_scratch<T: Scalar, R>(f: impl FnOnce(&mut Vec<T>, &mut Vec<T>) -> R) -> R {
    SCRATCH_POOL.with(|pool| {
        let mut boxed = pool
            .borrow_mut()
            .remove(&TypeId::of::<T>())
            .unwrap_or_else(|| Box::new((Vec::<T>::new(), Vec::<T>::new())));
        let out = {
            let (x, y) = boxed
                .downcast_mut::<(Vec<T>, Vec<T>)>()
                .expect("scratch pool type");
            f(x, y)
        };
        pool.borrow_mut().insert(TypeId::of::<T>(), boxed);
        out
    })
}

thread_local! {
    /// Per-thread pool of scratch vector triples (mixed-precision GEMM
    /// demote/promote buffers), keyed by scalar type.
    static SCRATCH3_POOL: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Run `f` with this thread's recycled triple of scratch vectors for scalar
/// type `T` (the mixed-precision GEMM's demoted `A`/`B` and low-precision
/// `C` accumulator live here so the hot path never allocates).
pub fn with_scratch3<T: Scalar, R>(
    f: impl FnOnce(&mut Vec<T>, &mut Vec<T>, &mut Vec<T>) -> R,
) -> R {
    SCRATCH3_POOL.with(|pool| {
        let mut boxed = pool
            .borrow_mut()
            .remove(&TypeId::of::<T>())
            .unwrap_or_else(|| Box::new((Vec::<T>::new(), Vec::<T>::new(), Vec::<T>::new())));
        let out = {
            let (x, y, z) = boxed
                .downcast_mut::<(Vec<T>, Vec<T>, Vec<T>)>()
                .expect("scratch3 pool type");
            f(x, y, z)
        };
        pool.borrow_mut().insert(TypeId::of::<T>(), boxed);
        out
    })
}

/// Pack the `mc x kc` block of `op(A)` starting at `(ic, pc)` into
/// row-panels of height `MR` (layout: panel-major, then `kc` steps of `MR`
/// contiguous rows). Partial edge panels are zero-padded to `MR`.
// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Scalar, const MR: usize>(
    buf: &mut Vec<T>,
    a: &[T],
    lda: usize,
    trans: bool,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    let need = panels * MR * kc;
    if buf.len() < need {
        buf.resize(need, T::ZERO);
    }
    let mut w = 0;
    for pi in 0..panels {
        let i0 = ic + pi * MR;
        let mr = MR.min(ic + mc - i0);
        if !trans {
            // op(A)(i, l) = a[l*lda + i]: copy column fragments.
            for l in 0..kc {
                let src = &a[(pc + l) * lda + i0..(pc + l) * lda + i0 + mr];
                buf[w..w + mr].copy_from_slice(src);
                for v in &mut buf[w + mr..w + MR] {
                    *v = T::ZERO;
                }
                w += MR;
            }
        } else {
            // op(A)(i, l) = conj(a[i*lda + l]): read rows of the stored
            // matrix contiguously, write strided into the panel.
            for r in 0..mr {
                let row = &a[(i0 + r) * lda + pc..(i0 + r) * lda + pc + kc];
                for l in 0..kc {
                    buf[w + l * MR + r] = row[l].conj();
                }
            }
            for l in 0..kc {
                for r in mr..MR {
                    buf[w + l * MR + r] = T::ZERO;
                }
            }
            w += MR * kc;
        }
    }
}

/// Pack the `kc x nc` block of `alpha * op(B)` starting at `(pc, jc)` into
/// column-panels of width `NR` (layout: panel-major, then `kc` steps of `NR`
/// contiguous columns). `alpha` is folded in here so the microkernel is a
/// pure multiply-accumulate.
// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Scalar, const NR: usize>(
    buf: &mut Vec<T>,
    b: &[T],
    ldb: usize,
    trans: bool,
    alpha: T,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    let need = panels * NR * kc;
    if buf.len() < need {
        buf.resize(need, T::ZERO);
    }
    let mut w = 0;
    for pj in 0..panels {
        let j0 = jc + pj * NR;
        let nr = NR.min(jc + nc - j0);
        if !trans {
            // op(B)(l, j) = b[j*ldb + l]: columns of the stored matrix.
            for q in 0..nr {
                let col = &b[(j0 + q) * ldb + pc..(j0 + q) * ldb + pc + kc];
                for l in 0..kc {
                    buf[w + l * NR + q] = alpha * col[l];
                }
            }
        } else {
            // op(B)(l, j) = conj(b[j*ldb + l] transposed) = conj(b[l*ldb+j]).
            for l in 0..kc {
                let row = &b[(pc + l) * ldb + j0..(pc + l) * ldb + j0 + nr];
                for q in 0..nr {
                    buf[w + l * NR + q] = alpha * row[q].conj();
                }
            }
        }
        for l in 0..kc {
            for q in nr..NR {
                buf[w + l * NR + q] = T::ZERO;
            }
        }
        w += NR * kc;
    }
}

/// The register-tile microkernel: `C[0..mr, 0..nr] += Apanel * Bpanel` over
/// a depth-`kc` packed panel pair. A matching SIMD kernel from
/// [`crate::simd`] runs when the active tier provides one for this
/// `(T, MR, NR)`; otherwise the portable generic tile below runs — its
/// `MR x NR` accumulator lives in fixed-size arrays so the compiler keeps
/// it in vector registers. Edge tiles simply write back the valid `mr x nr`
/// corner (panels are zero-padded, so the extra lanes accumulate exact
/// zeros).
// dftlint:hot
#[inline]
#[allow(clippy::too_many_arguments)]
fn microkernel<T: Scalar, const MR: usize, const NR: usize>(
    tier: SimdTier,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    if simd::microkernel_simd::<T, MR, NR>(tier, ap, bp, c, ldc, kc, mr, nr) {
        return;
    }
    let mut acc = [[T::ZERO; MR]; NR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let av: &[T; MR] = av.try_into().expect("A panel width");
        let bv: &[T; NR] = bv.try_into().expect("B panel width");
        for q in 0..NR {
            let w = bv[q];
            for r in 0..MR {
                acc[q][r] += w * av[r];
            }
        }
    }
    if mr == MR && nr == NR {
        for q in 0..NR {
            let col = &mut c[q * ldc..q * ldc + MR];
            for r in 0..MR {
                col[r] += acc[q][r];
            }
        }
    } else {
        for q in 0..nr {
            let col = &mut c[q * ldc..q * ldc + mr];
            for r in 0..mr {
                col[r] += acc[q][r];
            }
        }
    }
}

/// Sweep the `MR x NR` microkernel over one packed `mc x kc` A-panel times
/// `kc x nc` B-panel pair, accumulating into `C` at offset `(ic, jc)`.
// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Scalar, const MR: usize, const NR: usize>(
    tier: SimdTier,
    mc: usize,
    nc: usize,
    kc: usize,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    let mpan = mc.div_ceil(MR);
    let npan = nc.div_ceil(NR);
    for pj in 0..npan {
        let j0 = pj * NR;
        let nr = NR.min(nc - j0);
        let bpan = &bp[pj * NR * kc..(pj + 1) * NR * kc];
        for pi in 0..mpan {
            let i0 = pi * MR;
            let mr = MR.min(mc - i0);
            let apan = &ap[pi * MR * kc..(pi + 1) * MR * kc];
            let coff = (jc + j0) * ldc + ic + i0;
            microkernel::<T, MR, NR>(tier, apan, bpan, &mut c[coff..], ldc, kc, mr, nr);
        }
    }
}

/// Blocked GEMM on raw column-major slices: `C += alpha * op(A) * op(B)`
/// where `op` is identity or conjugate-transpose per operand. `C` is `m x n`
/// with leading dimension `ldc`; the caller has already applied `beta`.
///
/// `blk` is the `(mc, kc, nc)` cache blocking; [`crate::gemm`] and
/// [`crate::batched`] pass `(MC, KC, NC)`.
///
/// Accumulation over `l` within one `kc` slab is strictly ascending (matching
/// the seed axpy kernel's order bit-for-bit when `k <= kc`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_block<T: Scalar>(
    blk: (usize, usize, usize),
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    a_trans: bool,
    b: &[T],
    ldb: usize,
    b_trans: bool,
    c: &mut [T],
    ldc: usize,
    buf: &mut PackBuf<T>,
) {
    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        return;
    }
    // Register tile selection depends only on the scalar type and the SIMD
    // tier (never on the caller), so every GEMM entry point produces
    // identical results for identical inputs:
    // * complex scalars stay on the generic 4x4 tile (complex MACs expand
    //   4x in scalar ops, so a small tile keeps register pressure down);
    // * f64/f32 pick the tile whose SIMD microkernel the tier provides
    //   (AVX-512 16x8 / 32x8, AVX2 8x6 / 16x6);
    // * the scalar tier keeps the generic 16x4 tile.
    let tier = simd::active_tier();
    if T::IS_COMPLEX {
        gemm_block_tiled::<T, 4, 4>(
            tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
        )
    } else if TypeId::of::<T>() == TypeId::of::<f64>() {
        match tier {
            SimdTier::Avx512 => gemm_block_tiled::<T, 16, 8>(
                tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
            ),
            SimdTier::Avx2 => gemm_block_tiled::<T, 8, 6>(
                tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
            ),
            SimdTier::Scalar => gemm_block_tiled::<T, 16, 4>(
                tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
            ),
        }
    } else if TypeId::of::<T>() == TypeId::of::<f32>() {
        match tier {
            SimdTier::Avx512 => gemm_block_tiled::<T, 32, 8>(
                tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
            ),
            SimdTier::Avx2 => gemm_block_tiled::<T, 16, 6>(
                tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
            ),
            SimdTier::Scalar => gemm_block_tiled::<T, 16, 4>(
                tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
            ),
        }
    } else {
        gemm_block_tiled::<T, 16, 4>(
            tier, blk, m, n, k, alpha, a, lda, a_trans, b, ldb, b_trans, c, ldc, buf,
        )
    }
}

// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn gemm_block_tiled<T: Scalar, const MR: usize, const NR: usize>(
    tier: SimdTier,
    (mc_blk, kc_blk, nc_blk): (usize, usize, usize),
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    a_trans: bool,
    b: &[T],
    ldb: usize,
    b_trans: bool,
    c: &mut [T],
    ldc: usize,
    buf: &mut PackBuf<T>,
) {
    let PackBuf { a: pa, b: pb } = buf;
    if m <= mc_blk && k <= kc_blk && n <= nc_blk {
        // Fast path for small problems — one packed panel pair, no blocking
        // loop. This is the FE cell-level shape (m = k = (p+1)^3, n = block).
        pack_b::<T, NR>(pb, b, ldb, b_trans, alpha, 0, k, 0, n);
        pack_a::<T, MR>(pa, a, lda, a_trans, 0, m, 0, k);
        macro_kernel::<T, MR, NR>(tier, m, n, k, pa, pb, c, ldc, 0, 0);
        return;
    }
    let mut jc = 0;
    while jc < n {
        let nc = nc_blk.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = kc_blk.min(k - pc);
            pack_b::<T, NR>(pb, b, ldb, b_trans, alpha, pc, kc, jc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = mc_blk.min(m - ic);
                pack_a::<T, MR>(pa, a, lda, a_trans, ic, mc, pc, kc);
                macro_kernel::<T, MR, NR>(tier, mc, nc, kc, pa, pb, c, ldc, ic, jc);
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_buf_pool_recycles_capacity() {
        with_pack_buf::<f64, _>(|buf| {
            buf.a.resize(1000, 0.0);
        });
        let cap = with_pack_buf::<f64, _>(|buf| buf.a.capacity());
        assert!(cap >= 1000, "buffer should be recycled, got cap {cap}");
        // A different scalar type gets its own buffer.
        let cap32 = with_pack_buf::<f32, _>(|buf| buf.a.capacity());
        assert!(cap32 < 1000);
    }

    /// The blocking only partitions the iteration space: any `(mc, kc, nc)`
    /// — including one small enough that all three loops take several
    /// trips with ragged edges — reproduces the unblocked reference.
    #[test]
    fn gemm_is_correct_under_any_blocking() {
        use crate::gemm::{gemm_reference, Op};
        use crate::matrix::Matrix;
        let n = 70;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j) as f64 * 0.1).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i + 5 * j) as f64 * 0.2).cos());
        let mut want = Matrix::zeros(n, n);
        gemm_reference(1.0, &a, Op::None, &b, Op::None, 0.0, &mut want);
        for blk in [
            (64, 128, 256),
            (256, 512, 1024),
            (64, 512, 256),
            (32, 16, 24),
        ] {
            let mut got = Matrix::<f64>::zeros(n, n);
            with_pack_buf(|buf| {
                gemm_block(
                    blk,
                    n,
                    n,
                    n,
                    1.0,
                    a.as_slice(),
                    n,
                    false,
                    b.as_slice(),
                    n,
                    false,
                    got.as_mut_slice(),
                    n,
                    buf,
                );
            });
            assert!(got.max_abs_diff(&want) < 1e-12, "blocking {blk:?}");
        }
    }

    #[test]
    fn scratch_pool_gives_two_independent_vecs() {
        with_scratch::<f64, _>(|x, y| {
            x.resize(8, 1.0);
            y.resize(4, 2.0);
        });
        with_scratch::<f64, _>(|x, y| {
            assert!(x.capacity() >= 8);
            assert!(y.capacity() >= 4);
        });
    }
}

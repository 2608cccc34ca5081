//! Cache-blocked, register-tiled GEMM engine with packed operand panels.
//!
//! This is the repo's analogue of the BLIS/GotoBLAS microkernel design that
//! vendor BLAS libraries use to reach near-peak dense throughput (the
//! paper's Sec. 5.4.1 strided-batched cell GEMMs run on such kernels; here
//! the cell work is a sum-factorized sweep, and this engine serves the
//! subspace products):
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
//! Small problems take one trip through each blocking loop: one `B` pack,
//! one `A` pack, one macro-kernel sweep.
//!
//! One [`Shape`] argument lets the same loops form only what a caller reads:
//! the lower triangle of a Hermitian product ([`Shape::LowerC`], skipping
//! the register tiles above the diagonal and the `A` rows above the first
//! column's diagonal) or a product with an upper-triangular `B`
//! ([`Shape::UpperB`], stopping each tile's inner loop at its columns'
//! last nonzero row) — half the flops of the full product either way, as
//! LAPACK's `herk` and `trmm` save them.

use crate::scalar::Scalar;
use crate::simd::{self, MatMut, SimdTier};
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

impl<T: Scalar> PackBuf<T> {
    /// Grow both panels to what the whole `m x n x k` product packs (for
    /// any register tile: `MR <= 32`, `NR <= 8`). A split product runs its
    /// pieces on whichever threads claim them, so sized by the piece a
    /// thread's buffers would grow again whenever it drew a larger one —
    /// a reallocation late in a solve, which can land between the free and
    /// the reallocation of a solve's `N`-column work block and leave the
    /// heap a whole block larger. Sized for the whole product they grow at
    /// the first product of each shape, whatever piece comes first.
    pub(crate) fn fit(&mut self, m: usize, n: usize, k: usize) {
        let kc = k.min(KC);
        let a = m.min(MC).next_multiple_of(32) * kc;
        let b = (n.min(NC) + 8) * kc;
        if self.a.len() < a {
            self.a.resize(a, T::ZERO);
        }
        if self.b.len() < b {
            self.b.resize(b, T::ZERO);
        }
    }
}

impl<T> Default for PackBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread pool of scratch buffers, keyed by buffer type.
    static SCRATCH_POOL: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Run `f` with this thread's recycled buffer of type `B`: a GEMM's
/// [`PackBuf`], the FE cell kernels' gather / apply pair
/// `(Vec<T>, Vec<T>)`, or the mixed-precision GEMM's demoted `A`/`B` and
/// low-precision `C` accumulator `(Vec<T>, Vec<T>, Vec<T>)`, so their hot
/// paths never allocate.
///
/// The buffer is checked out of a thread-local pool for the duration of the
/// call, so nested use with the *same* buffer type would see a fresh buffer
/// (correct, just not recycled); the GEMM drivers never nest.
pub fn with_scratch<B: Default + 'static, R>(f: impl FnOnce(&mut B) -> R) -> R {
    SCRATCH_POOL.with(|pool| {
        let mut boxed = pool
            .borrow_mut()
            .remove(&TypeId::of::<B>())
            .unwrap_or_else(|| Box::new(B::default()));
        let out = f(boxed.downcast_mut::<B>().expect("scratch pool type"));
        pool.borrow_mut().insert(TypeId::of::<B>(), boxed);
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
            // op(A)(i, l) = conj(a[i*lda + l]): one read stream per panel
            // row (a column of the stored matrix), and each inner index's
            // MR entries written together (padding rows read the last
            // valid row and store zero)
            let rows: [&[T]; MR] = std::array::from_fn(|r| {
                let at = (i0 + r.min(mr - 1)) * lda + pc;
                &a[at..at + kc]
            });
            for (l, dst) in buf[w..w + MR * kc].chunks_exact_mut(MR).enumerate() {
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = if r < mr { rows[r][l].conj() } else { T::ZERO };
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
            // op(B)(l, j) = b[j*ldb + l]: one read stream per panel
            // column, each inner index's entries written together (the
            // padding columns are zeroed below)
            let cols: [&[T]; NR] = std::array::from_fn(|q| {
                let at = (j0 + q.min(nr - 1)) * ldb + pc;
                &b[at..at + kc]
            });
            for (l, dst) in buf[w..w + NR * kc].chunks_exact_mut(NR).enumerate() {
                for (q, d) in dst.iter_mut().enumerate().take(nr) {
                    *d = alpha * cols[q][l];
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

/// Which part of a product `C = op(A) op(B)` the engine forms — its one
/// triangle-shape argument (see [`crate::gemm::gemm_shaped`]). Each shape
/// names a triangle through the global column `d` at which `C` (resp.
/// `op(B)`) starts inside the square matrix whose triangle it is, so a
/// column window of a Hermitian product or of a triangular factor carries
/// its place with it. Every entry that is formed keeps its `KC`-slab
/// accumulation order, so it has the bits the full product gives it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every entry of `C`; `op(B)` dense.
    Full,
    /// Only `C(i, j)` with `i >= j + d` is read (the lower triangle of a
    /// Hermitian `A†A` or `A†HA`): register tiles strictly above that
    /// diagonal are skipped and keep what `beta` left in them; the tiles
    /// that cross it are formed whole.
    LowerC(usize),
    /// `op(B)(l, j) == 0` for `l > j + d` (the columns of an upper-
    /// triangular factor such as `L^{-†}` from column `d` on): each tile's
    /// inner loop stops at its last column's last nonzero row, reading a
    /// prefix of the packed panels.
    UpperB(usize),
}

impl Shape {
    /// The shape of the columns from `j` on.
    pub(crate) fn shifted(self, j: usize) -> Self {
        match self {
            Shape::Full => Shape::Full,
            Shape::LowerC(d) => Shape::LowerC(d + j),
            Shape::UpperB(d) => Shape::UpperB(d + j),
        }
    }

    /// The first row of `C` read in column `j` (and every later column).
    pub(crate) fn first_row(self, j: usize) -> usize {
        match self {
            Shape::LowerC(d) => j + d,
            _ => 0,
        }
    }

    /// How many of the inner indices `0..k` columns `0..j1` of `op(B)`
    /// reach (exact zeros below contribute nothing).
    fn depth(self, j1: usize, k: usize) -> usize {
        match self {
            Shape::UpperB(d) => k.min(j1 + d),
            _ => k,
        }
    }
}

/// The register-tile microkernel: `c += Apanel * Bpanel` over a depth-`kc`
/// packed panel pair, `c` the `mr x nr` tile. A matching SIMD kernel from
/// [`crate::simd`] runs when the active tier provides one for this
/// `(T, MR, NR)`; otherwise the portable generic tile below runs — its
/// `MR x NR` accumulator lives in fixed-size arrays so the compiler keeps
/// it in vector registers. Edge tiles write back the valid `mr x nr`
/// corner (panels are zero-padded, so the extra lanes accumulate exact
/// zeros).
// dftlint:hot
#[inline]
fn microkernel<T: Scalar, const MR: usize, const NR: usize>(
    tier: SimdTier,
    ap: &[T],
    bp: &[T],
    mut c: MatMut<'_, T>,
    kc: usize,
) {
    if simd::microkernel_simd::<T, MR, NR>(tier, ap, bp, &mut c, kc) {
        return;
    }
    let mut acc = [[T::ZERO; MR]; NR];
    for (av, bv) in ap[..MR * kc]
        .chunks_exact(MR)
        .zip(bp[..NR * kc].chunks_exact(NR))
    {
        let av: &[T; MR] = av.try_into().expect("A panel width");
        let bv: &[T; NR] = bv.try_into().expect("B panel width");
        for q in 0..NR {
            let w = bv[q];
            for r in 0..MR {
                acc[q][r] += w * av[r];
            }
        }
    }
    let nr = c.shape().1;
    for (q, acc) in acc.iter().enumerate().take(nr) {
        for (cv, &av) in c.col_mut(q).iter_mut().zip(acc) {
            *cv += av;
        }
    }
}

/// Sweep the `MR x NR` microkernel over one packed `mc x kc` A-panel times
/// `kc x nc` B-panel pair, accumulating into `C` at `(ic, jc)`; the panels
/// hold rows `pc..pc + kc` of the inner dimension. Tiles outside `shape`
/// are skipped, and under [`Shape::UpperB`] each tile stops at the depth
/// its columns reach.
// dftlint:hot
fn macro_kernel<T: Scalar, const MR: usize, const NR: usize>(
    tier: SimdTier,
    shape: Shape,
    (mc, nc, kc): (usize, usize, usize),
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
    (ic, jc, pc): (usize, usize, usize),
) {
    for (pj, bpan) in bp.chunks_exact(NR * kc).take(nc.div_ceil(NR)).enumerate() {
        let j = jc + pj * NR;
        let nr = NR.min(jc + nc - j);
        let depth = shape.depth(j + nr, pc + kc).saturating_sub(pc);
        if depth == 0 {
            continue;
        }
        for (pi, apan) in ap.chunks_exact(MR * kc).take(mc.div_ceil(MR)).enumerate() {
            let i = ic + pi * MR;
            let mr = MR.min(ic + mc - i);
            if i + mr <= shape.first_row(j) {
                continue;
            }
            microkernel::<T, MR, NR>(tier, apan, bpan, c.block(i, j, mr, nr), depth);
        }
    }
}

/// An operand as the engine reads it: storage, leading dimension, whether
/// `op` conjugate-transposes it.
type Operand<'a, T> = (&'a [T], usize, bool);

/// Blocked GEMM on raw column-major operands: `C += alpha * op(A) * op(B)`
/// where `op` is identity or conjugate-transpose per operand, `C` the
/// `m x n` view `c`; the caller has already applied `beta`. `shape` says
/// which part to form (see [`Shape`]); writes reach only the entries of
/// `c`.
///
/// `blk` is the `(mc, kc, nc)` cache blocking; [`crate::gemm`] passes
/// `(MC, KC, NC)`, and the tests pass small blockings to cross every edge.
///
/// Accumulation over `l` within one `kc` slab is strictly ascending (matching
/// the seed axpy kernel's order bit-for-bit when `k <= kc`), and the slabs
/// start at multiples of `kc` whatever the shape and however the caller
/// cut `C`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_block<T: Scalar>(
    blk: (usize, usize, usize),
    k: usize,
    alpha: T,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: MatMut<'_, T>,
    shape: Shape,
    buf: &mut PackBuf<T>,
) {
    let (m, n) = c.shape();
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
    let args = (tier, blk, k, alpha, a, b, c, shape, buf);
    if T::IS_COMPLEX {
        gemm_block_tiled::<T, 4, 4>(args)
    } else if TypeId::of::<T>() == TypeId::of::<f64>() {
        match tier {
            SimdTier::Avx512 => gemm_block_tiled::<T, 16, 8>(args),
            SimdTier::Avx2 => gemm_block_tiled::<T, 8, 6>(args),
            SimdTier::Scalar => gemm_block_tiled::<T, 16, 4>(args),
        }
    } else if TypeId::of::<T>() == TypeId::of::<f32>() {
        match tier {
            SimdTier::Avx512 => gemm_block_tiled::<T, 32, 8>(args),
            SimdTier::Avx2 => gemm_block_tiled::<T, 16, 6>(args),
            SimdTier::Scalar => gemm_block_tiled::<T, 16, 4>(args),
        }
    } else {
        gemm_block_tiled::<T, 16, 4>(args)
    }
}

/// Everything [`gemm_block`] hands its tiled body.
type BlockArgs<'a, 'c, T> = (
    SimdTier,
    (usize, usize, usize),
    usize,
    T,
    Operand<'a, T>,
    Operand<'a, T>,
    MatMut<'c, T>,
    Shape,
    &'a mut PackBuf<T>,
);

// dftlint:hot
fn gemm_block_tiled<T: Scalar, const MR: usize, const NR: usize>(
    (tier, (mc_blk, kc_blk, nc_blk), k, alpha, a, b, mut c, shape, buf): BlockArgs<'_, '_, T>,
) {
    let (m, n) = c.shape();
    let (a, lda, a_trans) = a;
    let (b, ldb, b_trans) = b;
    let PackBuf { a: pa, b: pb } = buf;
    for jc in (0..n).step_by(nc_blk) {
        let nc = nc_blk.min(n - jc);
        // the inner indices these columns reach, and the first row of C
        // they read: a small problem (the FE cell-level shape) is one trip
        // of each loop
        let k_end = shape.depth(jc + nc, k);
        let i_start = shape.first_row(jc).min(m);
        for pc in (0..k_end).step_by(kc_blk) {
            let kc = kc_blk.min(k_end - pc);
            pack_b::<T, NR>(pb, b, ldb, b_trans, alpha, pc, kc, jc, nc);
            for ic in (i_start..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_a::<T, MR>(pa, a, lda, a_trans, ic, mc, pc, kc);
                let at = (ic, jc, pc);
                macro_kernel::<T, MR, NR>(tier, shape, (mc, nc, kc), pa, pb, &mut c, at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_buf_pool_recycles_capacity() {
        with_scratch(|buf: &mut PackBuf<f64>| {
            buf.a.resize(1000, 0.0);
        });
        let cap = with_scratch(|buf: &mut PackBuf<f64>| buf.a.capacity());
        assert!(cap >= 1000, "buffer should be recycled, got cap {cap}");
        // A different scalar type gets its own buffer.
        let cap32 = with_scratch(|buf: &mut PackBuf<f32>| buf.a.capacity());
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
            with_scratch(|buf: &mut PackBuf<f64>| {
                let c = MatMut::new(got.as_mut_slice(), n, n, n);
                let (a, b) = ((a.as_slice(), n, false), (b.as_slice(), n, false));
                gemm_block(blk, n, 1.0, a, b, c, Shape::Full, buf);
            });
            assert!(got.max_abs_diff(&want) < 1e-12, "blocking {blk:?}");
        }
    }

    #[test]
    fn scratch_pool_gives_two_independent_vecs() {
        with_scratch(|(x, y): &mut (Vec<f64>, Vec<f64>)| {
            x.resize(8, 1.0);
            y.resize(4, 2.0);
        });
        with_scratch(|(x, y): &mut (Vec<f64>, Vec<f64>)| {
            assert!(x.capacity() >= 8);
            assert!(y.capacity() >= 4);
        });
    }
}

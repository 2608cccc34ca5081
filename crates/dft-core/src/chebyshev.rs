//! ChFES — the Chebyshev Filtered Eigensolver (the paper's Algorithm 1).
//!
//! * **CF** — Chebyshev polynomial filtering of a wavefunction block: the
//!   scaled-and-shifted recurrence maps the unwanted spectrum into `[-1,1]`
//!   (where Chebyshev polynomials stay small) and the wanted low end to
//!   `(-inf,-1)` (where they grow fast). Applied in column blocks of size
//!   `B_f` through the matrix-free Hamiltonian.
//! * **CholGS** — overlap `S = Psi_f† Psi_f`, Cholesky inverse, and the
//!   orthonormalization GEMM. In mixed-precision mode the off-diagonal
//!   blocks of `S` are computed in FP32 and the diagonal blocks in FP64
//!   (paper Sec. 5.4.2).
//! * **RR** — Rayleigh-Ritz: projected Hamiltonian, dense Hermitian
//!   eigensolve, subspace rotation.
//!
//! Spectral bounds come from a few Lanczos steps ([`lanczos_bounds`]).

use crate::hamiltonian::HamOperator;
use dft_hpc::profile::{Phase, PhaseScope, Profile};
use dft_linalg::blas1;
use dft_linalg::eig::eigh;
use dft_linalg::gemm::{gemm, gemm_flops, gemm_mixed, matmul, Op};
use dft_linalg::iterative::LinearOperator;
use dft_linalg::lowdin::lowdin_orthonormalize;
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options of one ChFES cycle.
#[derive(Clone, Debug)]
pub struct ChfesOptions {
    /// Chebyshev polynomial degree `m`.
    pub cheb_degree: usize,
    /// Wavefunction block size `B_f` for the filter.
    pub block_size: usize,
    /// Use the paper's mixed-precision CholGS/RR variants.
    pub mixed_precision: bool,
}

impl Default for ChfesOptions {
    fn default() -> Self {
        Self {
            cheb_degree: 30,
            block_size: 64,
            mixed_precision: false,
        }
    }
}

/// Estimate spectral bounds of a Hermitian operator with `k` Lanczos steps:
/// returns `(theta_min, upper_bound)` where `upper_bound` is a safe upper
/// bound on the largest eigenvalue (largest Ritz value plus the residual).
pub fn lanczos_bounds<T: Scalar>(op: &dyn LinearOperator<T>, k: usize, seed: u64) -> (f64, f64) {
    let n = op.dim();
    let k = k.min(n).max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = Matrix::<T>::zeros(n, 1);
    for x in v.col_mut(0) {
        *x = T::from_f64(rng.gen::<f64>() - 0.5);
    }
    let nrm = blas1::nrm2(v.col(0)).to_f64();
    for x in v.col_mut(0) {
        *x = x.scale(T::Re::from_f64(1.0 / nrm));
    }
    let mut v_prev = Matrix::<T>::zeros(n, 1);
    let mut alphas = Vec::with_capacity(k);
    let mut betas = Vec::with_capacity(k);
    let mut beta = 0.0f64;
    let mut w = Matrix::<T>::zeros(n, 1);
    for _ in 0..k {
        op.apply(&v, &mut w);
        let alpha = blas1::dot(v.col(0), w.col(0)).re().to_f64();
        alphas.push(alpha);
        // w = w - alpha v - beta v_prev
        let ar = T::Re::from_f64(alpha);
        let br = T::Re::from_f64(beta);
        {
            let vc = v.col(0);
            let pc = v_prev.col(0);
            for ((wv, &vv), &pv) in w.col_mut(0).iter_mut().zip(vc.iter()).zip(pc.iter()) {
                *wv = *wv - vv.scale(ar) - pv.scale(br);
            }
        }
        beta = blas1::nrm2(w.col(0)).to_f64();
        betas.push(beta);
        if beta < 1e-12 {
            break;
        }
        // Ping-pong buffer rotation instead of cloning: the old `v` becomes
        // `v_prev`, the residual `w` becomes the new `v` (normalized in
        // place), and the retired `v_prev` buffer is recycled as `w` for the
        // next apply, which overwrites it entirely.
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut w);
        let inv = T::Re::from_f64(1.0 / beta);
        for x in v.col_mut(0) {
            *x = x.scale(inv);
        }
    }
    // tridiagonal eigenvalues
    let m = alphas.len();
    let mut tri = Matrix::<f64>::zeros(m, m);
    for i in 0..m {
        tri[(i, i)] = alphas[i];
        if i + 1 < m {
            tri[(i, i + 1)] = betas[i];
            tri[(i + 1, i)] = betas[i];
        }
    }
    let e = eigh(&tri).expect("tridiagonal eigensolve");
    let theta_min = e.eigenvalues[0];
    let theta_max = e.eigenvalues[m - 1];
    (theta_min, theta_max + betas[m - 1].abs())
}

/// Reused scratch for [`chebyshev_filter_scratch`]: the two auxiliary
/// wavefunction blocks of the three-term recurrence, recycled across filter
/// calls (and across the column blocks of one ChFES cycle) so the hot loop
/// performs no allocation.
pub struct CfScratch<T: Scalar> {
    y: Matrix<T>,
    hy: Matrix<T>,
}

impl<T: Scalar> CfScratch<T> {
    /// Empty scratch; buffers are shaped on first use.
    pub fn new() -> Self {
        Self {
            y: Matrix::zeros(0, 0),
            hy: Matrix::zeros(0, 0),
        }
    }

    fn ensure(&mut self, n: usize, nc: usize) {
        if self.y.shape() != (n, nc) {
            self.y = Matrix::zeros(n, nc);
        }
        if self.hy.shape() != (n, nc) {
            self.hy = Matrix::zeros(n, nc);
        }
    }
}

impl<T: Scalar> Default for CfScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// CF: apply the degree-`m` Chebyshev filter to the block `x` in place.
/// Amplifies the spectrum below `a` (toward `a0`) and damps `[a, b]`.
///
/// Convenience wrapper over [`chebyshev_filter_scratch`] with one-shot
/// scratch.
// dftlint:hot
pub fn chebyshev_filter<T: Scalar>(
    op: &dyn LinearOperator<T>,
    x: &mut Matrix<T>,
    m: usize,
    a: f64,
    b: f64,
    a0: f64,
) {
    let mut scratch = CfScratch::new();
    chebyshev_filter_scratch(op, x, m, a, b, a0, &mut scratch);
}

/// [`chebyshev_filter`] with caller-provided scratch. The recurrence keeps
/// three live blocks (`X`, `Y`, `H Y`) and advances by pointer rotation
/// (`std::mem::swap`), so per degree step the only work is one Hamiltonian
/// apply and one fused element-wise update — no clones, no allocation.
// dftlint:hot
pub fn chebyshev_filter_scratch<T: Scalar>(
    op: &dyn LinearOperator<T>,
    x: &mut Matrix<T>,
    m: usize,
    a: f64,
    b: f64,
    a0: f64,
    scratch: &mut CfScratch<T>,
) {
    assert!(m >= 1 && b > a && a > a0);
    let n = x.nrows();
    let nc = x.ncols();
    let e = (b - a) / 2.0;
    let c = (b + a) / 2.0;
    let mut sigma = e / (a0 - c);
    let sigma1 = sigma;
    let gamma = 2.0 / sigma1;
    scratch.ensure(n, nc);
    let CfScratch { y, hy } = scratch;

    // Y = (H X - c X) * (sigma1 / e)
    op.apply(x, y);
    let ce = T::Re::from_f64(c);
    let s1e = T::Re::from_f64(sigma1 / e);
    for j in 0..nc {
        let xcol = x.col(j);
        for (yv, &xv) in y.col_mut(j).iter_mut().zip(xcol.iter()) {
            *yv = (*yv - xv.scale(ce)).scale(s1e);
        }
    }
    for _k in 2..=m {
        let sigma2 = 1.0 / (gamma - sigma);
        op.apply(y, hy);
        // Ynew = 2 (sigma2/e) (H Y - c Y) - (sigma * sigma2) X, written into
        // the HY buffer; then rotate X <- Y <- Ynew. The retired X buffer
        // becomes the next HY, fully overwritten by the next apply.
        let s2e = T::Re::from_f64(2.0 * sigma2 / e);
        let ss2 = T::Re::from_f64(sigma * sigma2);
        for j in 0..nc {
            let xcol = x.col(j);
            let ycol = y.col(j);
            for ((hv, &yv), &xv) in hy.col_mut(j).iter_mut().zip(ycol.iter()).zip(xcol.iter()) {
                *hv = (*hv - yv.scale(ce)).scale(s2e) - xv.scale(ss2);
            }
        }
        std::mem::swap(x, y);
        std::mem::swap(y, hy);
        sigma = sigma2;
    }
    std::mem::swap(x, y);
}

/// Analytic FLOP count of one [`chebyshev_filter`] call of degree `m` on
/// `ncols` columns of `h`: `m` Hamiltonian applies plus the three-term
/// recurrence update (per element and degree step, roughly three scalings
/// and two additions). For a distributed operator both terms count the
/// rank-local work (`h.dim()` = owned DoFs).
pub fn chebyshev_filter_flops<T: Scalar>(h: &dyn HamOperator<T>, ncols: usize, m: usize) -> u64 {
    let elems = (h.dim() * ncols) as u64;
    let recur = elems * (3 * T::MUL_FLOPS + 2 * T::ADD_FLOPS);
    m as u64 * (h.apply_flops(ncols) + recur)
}

/// The cross-rank reduction hook that makes ChFES distribution-agnostic:
/// every dense subspace quantity (overlap `S`, projected Hamiltonian,
/// squared column norms) is computed from the locally-owned wavefunction
/// rows and then handed to the reducer, which sums it across ranks. The
/// serial solver uses [`NoReduce`] and is arithmetically unchanged.
///
/// A reducer may additionally declare a *band split* ([`Self::band_cols`]):
/// this rank then computes only a contiguous column block of every
/// subspace quantity, [`Self::reduce_matrix`] receives a matrix whose
/// other columns are zero and must assemble the full sum (grid-row
/// reduction + grid-column allgather), and [`Self::assemble_cols`]
/// reassembles full wavefunction columns after a column-blocked update.
pub trait SubspaceReducer<T: Scalar> {
    /// Sum an `N x N` subspace matrix over all ranks, in place. Under a
    /// band split the input holds only this rank's [`Self::band_cols`]
    /// block (other columns zero) and the output is the fully assembled
    /// matrix. Must leave bit-identical results on every rank.
    fn reduce_matrix(&self, m: &mut Matrix<T>);
    /// Sum a small `f64` buffer over all ranks, in place.
    fn reduce_f64(&self, v: &mut [f64]);
    /// Whether wavefunction rows are actually sharded (`true` forbids the
    /// row-local Löwdin fallback, which is only valid on full columns).
    fn is_distributed(&self) -> bool {
        false
    }
    /// The contiguous column block `[j0, j1)` of an `n`-column subspace
    /// this rank computes. The default — the full range — keeps the serial
    /// and pure-domain paths on their original code route.
    fn band_cols(&self, n: usize) -> (usize, usize) {
        (0, n)
    }
    /// Reassemble full columns of the owned-row block `m` after this rank
    /// updated only its [`Self::band_cols`] block (allgather along the
    /// band axis). No-op by default.
    fn assemble_cols(&self, _m: &mut Matrix<T>) {}
    /// [`Self::reduce_matrix`] with any lossy wire encoding disabled —
    /// the orthonormality cleanup pass must sum in full precision.
    fn reduce_matrix_exact(&self, m: &mut Matrix<T>) {
        self.reduce_matrix(m);
    }
    /// Whether [`Self::reduce_matrix`] rounds on the wire (e.g. FP32
    /// off-diagonal blocks, Sec. 5.4.2). When set, [`chfes_reduced`] runs
    /// a full-precision orthonormality cleanup pass after CholGS even if
    /// the local compute is pure FP64.
    fn lossy_wire(&self) -> bool {
        false
    }
}

/// The identity reduction of the shared-memory solver.
pub struct NoReduce;

impl<T: Scalar> SubspaceReducer<T> for NoReduce {
    fn reduce_matrix(&self, _m: &mut Matrix<T>) {}
    fn reduce_f64(&self, _v: &mut [f64]) {}
}

/// What [`chfes_reduced`] filters with during the CF phase.
#[derive(Clone, Copy)]
pub enum CfFilter<'a, T: Scalar> {
    /// Filter with the Rayleigh-Ritz Hamiltonian itself (the serial path).
    Hamiltonian,
    /// Substitute operator for the CF recurrence only — the distributed
    /// solver passes its FP32-wire Hamiltonian here while keeping the FP64
    /// one for Rayleigh-Ritz (the paper's "FP32 boundary wire, FP64 math"
    /// split, Sec. 5.4.2).
    Op(&'a dyn LinearOperator<T>),
}

/// Hermitian product `C = A† B` with the paper's mixed-precision layout:
/// FP32 everywhere except the `block x block` diagonal blocks, which are
/// recomputed in FP64.
pub fn adjoint_product_mixed<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, block: usize) -> Matrix<T> {
    assert_eq!(a.ncols(), b.ncols(), "square Hermitian product expected");
    let n = a.ncols();
    let block = block.max(1);
    let mut s = Matrix::<T>::zeros(n, n);
    gemm_mixed(T::ONE, a, Op::ConjTrans, b, Op::None, T::ZERO, &mut s);
    // redo the diagonal blocks in FP64
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + block).min(n);
        let ab = a.cols_range(j0, j1);
        let bb = b.cols_range(j0, j1);
        let d = matmul(&ab, Op::ConjTrans, &bb, Op::None);
        for jj in 0..(j1 - j0) {
            for ii in 0..(j1 - j0) {
                s[(j0 + ii, j0 + jj)] = d[(ii, jj)];
            }
        }
        j0 = j1;
    }
    s
}

/// Band-split variant of [`adjoint_product_mixed`]: `C = A† B` where `B`
/// is the column block of the subspace starting at global column `col0`.
/// FP32 GEMM everywhere except the band-diagonal square
/// `C[col0 .. col0 + B.ncols(), :]`, which is recomputed in FP64 — the
/// band-block analogue of the paper's "FP64 diagonal blocks" layout.
pub fn adjoint_block_mixed<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, col0: usize) -> Matrix<T> {
    let bs = b.ncols();
    assert!(col0 + bs <= a.ncols(), "band block escapes the subspace");
    let mut c = Matrix::<T>::zeros(a.ncols(), bs);
    gemm_mixed(T::ONE, a, Op::ConjTrans, b, Op::None, T::ZERO, &mut c);
    let ab = a.cols_range(col0, col0 + bs);
    let d = matmul(&ab, Op::ConjTrans, b, Op::None);
    for j in 0..bs {
        for i in 0..bs {
            c[(col0 + i, j)] = d[(i, j)];
        }
    }
    c
}

/// One full ChFES cycle (Algorithm 1): filter, orthonormalize, Rayleigh-
/// Ritz. `psi` (`ndofs x N`, orthonormal-ish input) is replaced by the new
/// Ritz vectors; returns the Ritz values (ascending).
///
/// `bounds = (a0, a, b)`: wanted-spectrum lower estimate, filter edge
/// (above the wanted states), and a safe upper bound of the full spectrum.
pub fn chfes<T: Scalar>(
    h: &dyn HamOperator<T>,
    psi: &mut Matrix<T>,
    bounds: (f64, f64, f64),
    opts: &ChfesOptions,
) -> Vec<f64> {
    chfes_profiled(h, psi, bounds, opts, None)
}

/// [`chfes`] with per-phase profiling: each step of Algorithm 1 (CF,
/// CholGS-S/CI/O, RR-P/D/SR) runs inside its own [`PhaseScope`], tagged
/// with analytic FLOP and byte counts (CholGS-CI and RR-D are
/// wall-time-only, matching the paper's Sec. 6.3 accounting). With
/// `profile = None` this is exactly [`chfes`].
pub fn chfes_profiled<T: Scalar>(
    h: &dyn HamOperator<T>,
    psi: &mut Matrix<T>,
    bounds: (f64, f64, f64),
    opts: &ChfesOptions,
    profile: Option<&Profile>,
) -> Vec<f64> {
    chfes_reduced(
        h,
        CfFilter::Hamiltonian,
        psi,
        bounds,
        opts,
        profile,
        &NoReduce,
    )
}

/// The distribution-agnostic ChFES cycle: `psi` holds this rank's *owned*
/// wavefunction rows (all rows in the serial case), `reducer` sums subspace
/// quantities across ranks, and `filter` selects what the CF recurrence
/// runs through (see [`CfFilter`]). With [`CfFilter::Hamiltonian`] and
/// [`NoReduce`] this is arithmetically identical to [`chfes_profiled`].
///
/// When the reducer declares a band split, this rank filters, projects and
/// rotates only its own column block; overlap and projected-Hamiltonian
/// matrices are assembled by grid-row reductions plus grid-column
/// allgathers inside [`SubspaceReducer::reduce_matrix`], and wavefunction
/// columns are reassembled via [`SubspaceReducer::assemble_cols`]. A
/// reducer without a band split takes exactly the original code route.
pub fn chfes_reduced<T: Scalar>(
    h: &dyn HamOperator<T>,
    filter: CfFilter<'_, T>,
    psi: &mut Matrix<T>,
    bounds: (f64, f64, f64),
    opts: &ChfesOptions,
    profile: Option<&Profile>,
    reducer: &dyn SubspaceReducer<T>,
) -> Vec<f64> {
    let (a0, a, b) = bounds;
    let n_states = psi.ncols();
    let nd = psi.nrows();
    let tsize = std::mem::size_of::<T>() as u64;
    let block_bytes = (nd * n_states) as u64 * tsize;
    // this rank's band column block: the full range on the serial and
    // pure-domain paths, which then take the original code route
    let (j0b, j1b) = reducer.band_cols(n_states);
    let band_split = (j0b, j1b) != (0, n_states);

    // [CF] blockwise filtering of this rank's band columns (plus the
    // pre-CholGS column normalization). The filter scratch and the block
    // buffer persist across blocks.
    {
        let mut scope = PhaseScope::new(profile, Phase::Cf);
        let bf = opts.block_size.max(1);
        let mut cf_scratch = CfScratch::new();
        let mut block = Matrix::<T>::zeros(nd, bf.min(n_states));
        let mut j0 = j0b;
        while j0 < j1b {
            let j1 = (j0 + bf).min(j1b);
            if block.ncols() != j1 - j0 {
                block = Matrix::zeros(nd, j1 - j0);
            }
            block.copy_cols_from(psi, j0);
            let op: &dyn LinearOperator<T> = match filter {
                CfFilter::Op(op) => op,
                CfFilter::Hamiltonian => h,
            };
            chebyshev_filter_scratch(op, &mut block, opts.cheb_degree, a, b, a0, &mut cf_scratch);
            psi.set_cols(j0, &block);
            scope.add_flops(chebyshev_filter_flops(h, j1 - j0, opts.cheb_degree));
            scope.add_bytes(2 * (nd * (j1 - j0)) as u64 * tsize * opts.cheb_degree as u64);
            j0 = j1;
        }
        if band_split {
            reducer.assemble_cols(psi);
        }

        // scale columns to unit norm to avoid overflow before CholGS: local
        // sum of squares, cross-rank reduce, then sqrt — the serial path
        // (identity reduce) accumulates in exactly the order of
        // `blas1::nrm2`, so results are bit-identical to the pre-hook code
        let mut sumsq = vec![0.0f64; n_states];
        for (j, sq) in sumsq.iter_mut().enumerate() {
            let mut acc = T::Re::ZERO;
            for v in psi.col(j) {
                acc += v.abs_sq();
            }
            *sq = acc.to_f64();
        }
        reducer.reduce_f64(&mut sumsq);
        for j in 0..n_states {
            let nrm = sumsq[j].sqrt().max(1e-300);
            let inv = T::Re::from_f64(1.0 / nrm);
            for v in psi.col_mut(j) {
                *v = v.scale(inv);
            }
        }
    }

    let bf = opts.block_size.max(1);
    // One reusable ndofs x N work block serves CholGS-O, RR-P and RR-SR
    // (results are swapped into `psi`, not copied). Band-split ranks work
    // on `nd x band_width` blocks instead.
    let mut work = Matrix::<T>::zeros(nd, if band_split { 0 } else { n_states });

    // [CholGS-S] overlap S = Psi_f† Psi_f (band ranks compute only their
    // column block of S; the reducer assembles the grid-row sums along the
    // band axis)
    let s = {
        let mut scope = PhaseScope::new(profile, Phase::CholGsS);
        scope.add_flops(gemm_flops::<T>(n_states, j1b - j0b, nd));
        scope.add_bytes(block_bytes + (n_states * n_states) as u64 * tsize);
        let mut s = if band_split {
            let psib = psi.cols_range(j0b, j1b);
            let sb = if opts.mixed_precision {
                adjoint_block_mixed(psi, &psib, j0b)
            } else {
                matmul(psi, Op::ConjTrans, &psib, Op::None)
            };
            let mut s = Matrix::<T>::zeros(n_states, n_states);
            s.set_cols(j0b, &sb);
            s
        } else if opts.mixed_precision {
            adjoint_product_mixed(psi, psi, bf)
        } else {
            matmul(psi, Op::ConjTrans, psi, Op::None)
        };
        reducer.reduce_matrix(&mut s);
        s.symmetrize_hermitian();
        s
    };

    // [CholGS-CI] factorization + triangular inverse (wall-time-only)
    let linv = {
        let mut scope = PhaseScope::new(profile, Phase::CholGsCi);
        scope.add_bytes((n_states * n_states) as u64 * tsize);
        dft_linalg::chol::cholesky_inverse(&s)
    };

    // [CholGS-O] orthonormalization GEMM (or the Löwdin fallback)
    {
        let mut scope = PhaseScope::new(profile, Phase::CholGsO);
        scope.add_flops(gemm_flops::<T>(nd, j1b - j0b, n_states));
        scope.add_bytes(2 * block_bytes);
        match linv {
            Ok(linv) => {
                if band_split {
                    // Psi_o[:, j0b..j1b] = Psi_f L^{-dagger}[:, j0b..j1b]
                    let lb =
                        Matrix::<T>::from_fn(n_states, j1b - j0b, |i, j| linv[(j0b + j, i)].conj());
                    let mut wb = Matrix::<T>::zeros(nd, j1b - j0b);
                    if opts.mixed_precision {
                        gemm_mixed(T::ONE, psi, Op::None, &lb, Op::None, T::ZERO, &mut wb);
                    } else {
                        gemm(T::ONE, psi, Op::None, &lb, Op::None, T::ZERO, &mut wb);
                    }
                    psi.set_cols(j0b, &wb);
                    reducer.assemble_cols(psi);
                } else {
                    // Psi_o = Psi_f L^{-dagger}
                    if opts.mixed_precision {
                        gemm_mixed(
                            T::ONE,
                            psi,
                            Op::None,
                            &linv,
                            Op::ConjTrans,
                            T::ZERO,
                            &mut work,
                        );
                    } else {
                        gemm(
                            T::ONE,
                            psi,
                            Op::None,
                            &linv,
                            Op::ConjTrans,
                            T::ZERO,
                            &mut work,
                        );
                    }
                    std::mem::swap(psi, &mut work);
                }
            }
            Err(_) => {
                // filter produced a (numerically) rank-deficient block: fall
                // back to Löwdin orthonormalization. Löwdin diagonalizes the
                // *local-row* Gram, so it is only valid on full columns —
                // the distributed solver must not reach this path.
                assert!(
                    !reducer.is_distributed(),
                    "rank-deficient filtered block in distributed CholGS \
                     (no row-local Löwdin fallback exists)"
                );
                lowdin_orthonormalize(psi).expect("Löwdin fallback failed");
            }
        }
        if opts.mixed_precision || reducer.lossy_wire() {
            // FP32 rounding (in the orthonormalization GEMM or on the
            // reduction wire) leaves O(1e-7) non-orthogonality; one cheap
            // full-precision cleanup pass keeps RR well-posed.
            if reducer.is_distributed() {
                // distributed cleanup: a second (FP64) CholGS pass on the
                // reduced overlap, which is valid on sharded rows
                let mut s2 = if band_split {
                    let psib = psi.cols_range(j0b, j1b);
                    let sb = matmul(psi, Op::ConjTrans, &psib, Op::None);
                    let mut s2 = Matrix::<T>::zeros(n_states, n_states);
                    s2.set_cols(j0b, &sb);
                    s2
                } else {
                    matmul(psi, Op::ConjTrans, psi, Op::None)
                };
                reducer.reduce_matrix_exact(&mut s2);
                s2.symmetrize_hermitian();
                let linv2 = dft_linalg::chol::cholesky_inverse(&s2)
                    .expect("distributed mixed-precision cleanup");
                if band_split {
                    let lb = Matrix::<T>::from_fn(n_states, j1b - j0b, |i, j| {
                        linv2[(j0b + j, i)].conj()
                    });
                    let mut wb = Matrix::<T>::zeros(nd, j1b - j0b);
                    gemm(T::ONE, psi, Op::None, &lb, Op::None, T::ZERO, &mut wb);
                    psi.set_cols(j0b, &wb);
                    reducer.assemble_cols(psi);
                } else {
                    gemm(
                        T::ONE,
                        psi,
                        Op::None,
                        &linv2,
                        Op::ConjTrans,
                        T::ZERO,
                        &mut work,
                    );
                    std::mem::swap(psi, &mut work);
                }
            } else {
                lowdin_orthonormalize(psi).expect("mixed-precision cleanup");
            }
        }
    }

    // [RR-P] projected Hamiltonian Hp = Psi† (H Psi) (band ranks apply H
    // to their own columns only, so the apply cost splits along the band
    // axis too)
    let hp = {
        let mut scope = PhaseScope::new(profile, Phase::RrP);
        scope.add_flops(h.apply_flops(j1b - j0b) + gemm_flops::<T>(n_states, j1b - j0b, nd));
        scope.add_bytes(2 * block_bytes);
        let mut hp = if band_split {
            let psib = psi.cols_range(j0b, j1b);
            let mut wb = Matrix::<T>::zeros(nd, j1b - j0b);
            h.apply(&psib, &mut wb);
            let hb = if opts.mixed_precision {
                adjoint_block_mixed(psi, &wb, j0b)
            } else {
                matmul(psi, Op::ConjTrans, &wb, Op::None)
            };
            let mut hp = Matrix::<T>::zeros(n_states, n_states);
            hp.set_cols(j0b, &hb);
            hp
        } else {
            h.apply(psi, &mut work);
            if opts.mixed_precision {
                adjoint_product_mixed(psi, &work, bf)
            } else {
                matmul(psi, Op::ConjTrans, &work, Op::None)
            }
        };
        reducer.reduce_matrix(&mut hp);
        hp.symmetrize_hermitian();
        hp
    };

    // [RR-D] dense diagonalization (wall-time-only)
    let e = {
        let mut scope = PhaseScope::new(profile, Phase::RrD);
        scope.add_bytes((n_states * n_states) as u64 * tsize);
        eigh(&hp).expect("RR diagonalization")
    };

    // [RR-SR] subspace rotation
    {
        let mut scope = PhaseScope::new(profile, Phase::RrSr);
        scope.add_flops(gemm_flops::<T>(nd, j1b - j0b, n_states));
        scope.add_bytes(2 * block_bytes);
        if band_split {
            let eb = e.eigenvectors.cols_range(j0b, j1b);
            let mut wb = Matrix::<T>::zeros(nd, j1b - j0b);
            gemm(T::ONE, psi, Op::None, &eb, Op::None, T::ZERO, &mut wb);
            psi.set_cols(j0b, &wb);
            reducer.assemble_cols(psi);
        } else {
            gemm(
                T::ONE,
                psi,
                Op::None,
                &e.eigenvectors,
                Op::None,
                T::ZERO,
                &mut work,
            );
            std::mem::swap(psi, &mut work);
        }
    }
    e.eigenvalues
}

/// Random orthonormal initial subspace.
pub fn random_subspace<T: Scalar>(ndofs: usize, n_states: usize, seed: u64) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut psi = Matrix::<T>::from_fn(ndofs, n_states, |_, _| T::from_f64(rng.gen::<f64>() - 0.5));
    lowdin_orthonormalize(&mut psi).expect("random subspace orthonormalization");
    psi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::KsHamiltonian;
    use dft_fem::mesh::Mesh3d;
    use dft_fem::space::FeSpace;

    /// Harmonic oscillator: v = 1/2 |r - r0|^2; exact levels (in the
    /// continuum) are 1.5, 2.5 (x3), 3.5 (x6), ...
    fn ho_setup(p: usize, cells: usize) -> (FeSpace, Vec<f64>) {
        let l = 12.0;
        let space = FeSpace::new(Mesh3d::cube(cells, l, p));
        let v: Vec<f64> = (0..space.nnodes())
            .map(|n| {
                let c = space.node_coord(n);
                0.5 * ((c[0] - l / 2.0).powi(2)
                    + (c[1] - l / 2.0).powi(2)
                    + (c[2] - l / 2.0).powi(2))
            })
            .collect();
        (space, v)
    }

    fn solve_ho(mixed: bool) -> Vec<f64> {
        let (space, v) = ho_setup(5, 4);
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let n_states = 6;
        let mut psi = random_subspace::<f64>(h.dim(), n_states, 7);
        let (tmin, tmax) = lanczos_bounds(&h, 12, 3);
        let mut a = tmin + 0.15 * (tmax - tmin);
        let mut evals = vec![];
        for _cycle in 0..8 {
            let opts = ChfesOptions {
                cheb_degree: 25,
                block_size: 3,
                mixed_precision: mixed,
            };
            evals = chfes(&h, &mut psi, (tmin - 1.0, a, tmax), &opts);
            // tighten the filter window using the fresh Ritz values
            a = evals[n_states - 1] + 0.5;
        }
        evals
    }

    #[test]
    fn chfes_finds_harmonic_oscillator_levels() {
        let evals = solve_ho(false);
        assert!((evals[0] - 1.5).abs() < 0.02, "E0 = {}", evals[0]);
        for i in 1..4 {
            assert!((evals[i] - 2.5).abs() < 0.05, "E{i} = {}", evals[i]);
        }
    }

    #[test]
    fn chfes_mixed_precision_matches_fp64_within_tolerance() {
        let e64 = solve_ho(false);
        let emx = solve_ho(true);
        for i in 0..4 {
            assert!(
                (e64[i] - emx[i]).abs() < 5e-4,
                "state {i}: {} vs {}",
                e64[i],
                emx[i]
            );
        }
    }

    #[test]
    fn lanczos_upper_bound_is_safe() {
        let (space, v) = ho_setup(3, 2);
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let (_tmin, ub) = lanczos_bounds(&h, 10, 1);
        // probe with many random Rayleigh quotients
        let psi = random_subspace::<f64>(h.dim(), 8, 99);
        let mut hpsi = Matrix::zeros(h.dim(), 8);
        h.apply(&psi, &mut hpsi);
        for j in 0..8 {
            let rq = blas1::dot(psi.col(j), hpsi.col(j));
            assert!(rq < ub, "RQ {rq} exceeds upper bound {ub}");
        }
    }

    #[test]
    fn filter_amplifies_low_end() {
        // after filtering, a random vector should have much larger overlap
        // with the ground state than before
        let (space, v) = ho_setup(3, 2);
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let (tmin, tmax) = lanczos_bounds(&h, 12, 5);
        // converge a reference ground state first
        let mut psi_ref = random_subspace::<f64>(h.dim(), 4, 11);
        let mut a = tmin + 0.2 * (tmax - tmin);
        for _ in 0..10 {
            let ev = chfes(
                &h,
                &mut psi_ref,
                (tmin - 1.0, a, tmax),
                &ChfesOptions {
                    cheb_degree: 30,
                    block_size: 4,
                    mixed_precision: false,
                },
            );
            a = ev[3] + 0.5;
        }
        let gs: Vec<f64> = psi_ref.col(0).to_vec();
        let mut x = random_subspace::<f64>(h.dim(), 1, 17);
        let before = blas1::dot(&gs, x.col(0)).abs();
        chebyshev_filter(&h, &mut x, 20, a, tmax, tmin - 1.0);
        let nrm = blas1::nrm2(x.col(0));
        let after = blas1::dot(&gs, x.col(0)).abs() / nrm;
        // the filtered vector should be almost entirely in the wanted
        // subspace (overlap is bounded by 1, so test against 0.9)
        assert!(
            after > 0.9 && after > before,
            "before {before}, after {after}"
        );
    }

    #[test]
    fn chfes_eigenvalues_ascending_and_orthonormal_output() {
        let (space, v) = ho_setup(3, 2);
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let mut psi = random_subspace::<f64>(h.dim(), 5, 23);
        let (tmin, tmax) = lanczos_bounds(&h, 10, 2);
        let evals = chfes(
            &h,
            &mut psi,
            (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax),
            &ChfesOptions::default(),
        );
        for w in evals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        let g = matmul(&psi, Op::ConjTrans, &psi, Op::None);
        assert!(g.max_abs_diff(&Matrix::identity(5)) < 1e-9);
    }
}

//! ChFES — the Chebyshev Filtered Eigensolver (the paper's Algorithm 1).
//!
//! * **CF** — Chebyshev polynomial filtering of a wavefunction block: the
//!   scaled-and-shifted recurrence maps the unwanted spectrum into `[-1,1]`
//!   (where Chebyshev polynomials stay small) and the wanted low end to
//!   `(-inf,-1)` (where they grow fast). Applied in filter tasks of at most
//!   `B_f` columns through the matrix-free Hamiltonian: a local Hamiltonian
//!   runs tasks of at most eight columns side by side, one thread carrying
//!   each through every degree step in lane panels; a distributed one runs
//!   its `B_f` blocks one after another, every step a ghost exchange. Given
//!   the last Fermi level, a task narrows in place after its first
//!   recurrence step to the columns the density sees, and only those run
//!   the full degree.
//! * **CholGS** — overlap `S = Psi_f† Psi_f`, Cholesky inverse, and the
//!   orthonormalization GEMM. In mixed-precision mode `S` and the GEMM are
//!   FP32 except the `B_f x B_f` diagonal blocks of `S`, which stay FP64
//!   (paper Sec. 5.4.2), and a second, all-FP64 pass removes the rounding.
//!   A rank-deficient filtered block (the factorization breaks down at a
//!   pivot) trades the dependent column for `H` times itself and factorizes
//!   again — the same rescue serially and on every process grid.
//! * **RR** — Rayleigh-Ritz: projected Hamiltonian (same FP32 / FP64
//!   layout), dense Hermitian eigensolve, subspace rotation.
//!
//! There is one cycle, [`chfes_reduced`], written once over a rank's *band
//! window* of the subspace columns. The serial solver and every
//! `n x 1 x 1` slab are the window `(0, N)`; a band grid hands each rank a
//! narrower one through [`SubspaceReducer`]. Spectral bounds come from a
//! few Lanczos steps on the same operator and reducer ([`lanczos_reduced`]).

use crate::hamiltonian::HamOperator;
use crate::occupation::{fermi, COLD_START_RESIDUAL, DENSITY_CUTOFF};
use dft_fem::space::{LanePanel, COL_BLOCK};
use dft_hpc::profile::{Phase, PhaseScope, Profile};
use dft_hpc::threads::with_threads;
use dft_linalg::blas1;
use dft_linalg::chol::{cholesky_inverse, LinalgError};
use dft_linalg::eig::{eigh, tridiagonal_ql};
use dft_linalg::gemm::{gemm, gemm_flops, gemm_mixed, gemm_shaped, matmul, Op, Shape};
use dft_linalg::iterative::{LinearOperator, Recurrence};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::{Mutex, PoisonError};

/// Options of one ChFES cycle.
#[derive(Clone, Debug)]
pub struct ChfesOptions {
    /// Chebyshev polynomial degree `m` of every filtered column (a column
    /// [`chfes_reduced`] leaves unfiltered runs one step, see there).
    pub cheb_degree: usize,
    /// Wavefunction block size `B_f`: the widest block the filter carries
    /// (a local operator's filter tasks are also at most
    /// [`COL_BLOCK`] wide, see [`HamOperator::panels`]) and the FP64
    /// diagonal block of the mixed-precision subspace products.
    pub block_size: usize,
    /// Use the paper's mixed-precision CholGS/RR variants.
    pub mixed_precision: bool,
}

/// Lanczos steps of the spectral bounds [`ks_eigensolve`] opens with.
pub const LANCZOS_STEPS: usize = 10;

/// Estimate spectral bounds of a Hermitian operator with `k` Lanczos steps:
/// returns `(theta_min, upper_bound)` where `upper_bound` is a safe upper
/// bound on the largest eigenvalue (largest Ritz value plus the residual).
pub fn lanczos_bounds<T: Scalar>(op: &dyn LinearOperator<T>, k: usize, seed: u64) -> (f64, f64) {
    let n = op.dim();
    let (v, k) = lanczos_start((n, k, seed), 0..n);
    lanczos_reduced(op, v, k, &NoReduce)
}

/// The start of `k` Lanczos steps on an `n`-DoF problem: the `rows` (ascending)
/// of a seeded draw over all `n` DoFs, and `k` clamped to `[2, n]`.
pub fn lanczos_start<T: Scalar>(
    (n, k, seed): (usize, usize, u64),
    rows: impl Iterator<Item = usize>,
) -> (Matrix<T>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws = (0..n).map(|_| rng.gen::<f64>() - 0.5).enumerate();
    let v: Vec<T> = rows
        .map(|d| T::from_f64(draws.find(|&(i, _)| i == d).expect("rows ascend below n").1))
        .collect();
    (Matrix::from_vec(v.len(), 1, v), k.min(n).max(2))
}

/// [`lanczos_bounds`] on this rank's rows: `k` steps of `op` from `v`, a rank's
/// [`lanczos_start`]. Each inner product and squared norm is a local sum in
/// `blas1::dot` / `nrm2` order, summed by `reducer` (once, then twice a step)
/// and rooted in `T::Re`, so the ranks that share the rows run one recurrence.
pub fn lanczos_reduced<T: Scalar>(
    op: &dyn LinearOperator<T>,
    mut v: Matrix<T>,
    k: usize,
    reducer: &dyn SubspaceReducer<T>,
) -> (f64, f64) {
    let norm = |x: &Matrix<T>| {
        let mut sq = [sum_sq(x.col(0))];
        reducer.reduce_f64(&mut sq);
        T::Re::from_f64(sq[0]).sqrt().to_f64()
    };
    let mut v_prev = Matrix::<T>::zeros(v.nrows(), 1);
    let mut w = Matrix::<T>::zeros(v.nrows(), 1);
    let (mut alphas, mut betas) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let (mut nrm, mut beta) = (norm(&v), 0.0f64);
    for _ in 0..k {
        let inv = T::Re::from_f64(1.0 / nrm);
        for x in v.col_mut(0) {
            *x = x.scale(inv);
        }
        op.apply(&v, &mut w);
        let mut alpha = [blas1::dot(v.col(0), w.col(0)).re().to_f64()];
        reducer.reduce_f64(&mut alpha);
        alphas.push(alpha[0]);
        // w = w - alpha v - beta v_prev
        let (ar, br) = (T::Re::from_f64(alpha[0]), T::Re::from_f64(beta));
        for ((wv, &vv), &pv) in w.col_mut(0).iter_mut().zip(v.col(0)).zip(v_prev.col(0)) {
            *wv = *wv - vv.scale(ar) - pv.scale(br);
        }
        beta = norm(&w);
        betas.push(beta);
        if beta < 1e-12 {
            break;
        }
        // ping-pong buffers instead of clones: `v` becomes `v_prev`, the
        // residual `w` the next `v` (normalized at the next step's top), and
        // the retired `v_prev` the next apply's `w`, which it overwrites
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut w);
        nrm = beta;
    }
    // eigenvalues of the Lanczos tridiagonal: the QL stage of eigh, without
    // eigenvectors (the last beta is the residual, not an off-diagonal)
    let m = alphas.len();
    let residual = betas[m - 1].abs();
    tridiagonal_ql(&mut alphas, &mut betas, None).expect("tridiagonal eigensolve");
    (alphas[0], alphas[m - 1] + residual)
}

/// Reused scratch of the column-major filter route (an operator without
/// [`HamOperator::panels`], i.e. a rank's): a filter task's block and the
/// two auxiliary blocks of the three-term recurrence, recycled across
/// [`chebyshev_filter_scratch`] calls so the hot loop performs no
/// allocation. A local operator's lane panels need none of it.
pub struct CfScratch<T: Scalar> {
    x: Matrix<T>,
    y: Matrix<T>,
    hy: Matrix<T>,
}

impl<T: Scalar> CfScratch<T> {
    /// Empty scratch; buffers are shaped on first use.
    pub fn new() -> Self {
        Self {
            x: Matrix::zeros(0, 0),
            y: Matrix::zeros(0, 0),
            hy: Matrix::zeros(0, 0),
        }
    }
}

impl<T: Scalar> Default for CfScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// CF: apply the degree-`m` Chebyshev filter to the block `x` in place.
/// Amplifies the spectrum below `a` (toward `a0`) and damps `[a, b]`: the
/// CF phase of a ChFES cycle ([`filter_phase`]) on the columns of `x` as
/// one `B_f` block, every column filtered — lane-panel tasks on a local
/// operator, one column-major block through the caller's reused `scratch`
/// on a rank.
// dftlint:hot
pub fn chebyshev_filter_scratch<T: Scalar>(
    op: &dyn HamOperator<T>,
    x: &mut Matrix<T>,
    m: usize,
    a: f64,
    b: f64,
    a0: f64,
    scratch: &mut CfScratch<T>,
) {
    let shape = x.shape();
    let (filter, bounds) = ((shape.1.max(1), m), (a0, a, b));
    let cols = x.as_mut_slice();
    filter_phase(op, cols, shape, filter, bounds, None, &NoReduce, scratch);
}

/// A filter task's columns as the recurrence holds them: a column-major
/// [`Matrix`] stepped through [`LinearOperator::recurrence_step`], or a
/// [`LanePanel`] stepped through
/// [`crate::hamiltonian::PanelOperator::panel_step`].
trait FilterBlock<T: Scalar> {
    /// `(rows, columns)`.
    fn shape(&self) -> (usize, usize);
    /// Become the column-major columns `cols`, `shape = (rows, columns)`.
    fn load(&mut self, cols: &[T], shape: (usize, usize));
    /// Copy column `j` out into `col`.
    fn store_col(&self, j: usize, col: &mut [T]);
    /// Reshape to `rows x nc`, keeping the buffer; the entries are
    /// unspecified until written.
    fn reshape(&mut self, rows: usize, nc: usize);
    /// Keep only the columns `keep` (strictly increasing), moved in their
    /// order to the front.
    fn retain(&mut self, keep: &[usize]);
    /// `Re<x_j, y_j>` for every column `j`, then `<x_j, x_j>`, each summed
    /// over the rows in order as [`blas1::dot`] sums them.
    fn rq_sums(x: &Self, y: &Self) -> Vec<f64>;
}

impl<T: Scalar> FilterBlock<T> for Matrix<T> {
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }
    fn load(&mut self, cols: &[T], (rows, w): (usize, usize)) {
        self.resize(rows, w);
        self.as_mut_slice().copy_from_slice(cols);
    }
    fn store_col(&self, j: usize, col: &mut [T]) {
        col.copy_from_slice(self.col(j));
    }
    fn reshape(&mut self, rows: usize, nc: usize) {
        self.resize(rows, nc);
    }
    fn retain(&mut self, keep: &[usize]) {
        self.retain_cols(keep);
    }
    fn rq_sums(x: &Self, y: &Self) -> Vec<f64> {
        let nc = x.ncols();
        let xy = (0..nc).map(|j| blas1::dot(x.col(j), y.col(j)));
        let xx = (0..nc).map(|j| blas1::dot(x.col(j), x.col(j)));
        xy.chain(xx).map(|v| v.re().to_f64()).collect()
    }
}

impl<T: Scalar> FilterBlock<T> for LanePanel<T> {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.lanes())
    }
    fn load(&mut self, cols: &[T], (rows, w): (usize, usize)) {
        self.load_cols(cols, (rows, w));
    }
    fn store_col(&self, j: usize, col: &mut [T]) {
        self.store_lane(j, col);
    }
    fn reshape(&mut self, rows: usize, nc: usize) {
        self.resize(rows, nc);
    }
    fn retain(&mut self, keep: &[usize]) {
        self.retain_lanes(keep);
    }
    fn rq_sums(x: &Self, y: &Self) -> Vec<f64> {
        let nc = x.lanes();
        let (mut xy, mut xx) = (vec![T::ZERO; nc], vec![T::ZERO; nc]);
        for i in 0..x.rows() {
            let (xr, yr) = (x.row(i), y.row(i));
            for t in 0..nc {
                xy[t] += xr[t].conj() * yr[t];
                xx[t] += xr[t].conj() * xr[t];
            }
        }
        xy.iter().chain(&xx).map(|v| v.re().to_f64()).collect()
    }
}

/// The one Chebyshev recurrence, on a filter task's block `x` with the
/// scratch blocks `(y, hy)`, each degree step one call of `step(y, x_prev,
/// k, out)`, the bounds in [`chfes`] order `(a0, a, b)`. Asks `seen` after
/// the first step which columns run on to degree `m`: strictly increasing
/// indices, or `None` for every column. `seen` sees the block `X`, the
/// first iterate `Y = (sigma1 / e) (H X - c X)` and the map
/// `(c, e / sigma1)` that turns `Re<x_j, y_j> / <x_j, x_j>` into column
/// `j`'s Rayleigh quotient. With no column named the block stops and keeps
/// its input bits. Otherwise `X` and `Y` narrow in place to the named
/// columns, moved in their order to the front, and steps `2..=m` run on
/// those alone: `X` returns them filtered, as wide as their count. The
/// blocks advance by pointer rotation (`std::mem::swap`). Returns what
/// `seen` named.
// dftlint:hot
fn chebyshev_filter_gated<T: Scalar, B: FilterBlock<T>>(
    x: &mut B,
    (y, hy): (&mut B, &mut B),
    m: usize,
    (a0, a, b): (f64, f64, f64),
    mut step: impl FnMut(&B, Option<&B>, Recurrence<T::Re>, &mut B),
    seen: impl FnOnce(&B, &B, (f64, f64)) -> Option<Vec<usize>>,
) -> Option<Vec<usize>> {
    assert!(m >= 1 && b > a && a > a0);
    let (n, nc) = x.shape();
    let e = (b - a) / 2.0;
    let c = (b + a) / 2.0;
    let mut sigma = e / (a0 - c);
    let sigma1 = sigma;
    let gamma = 2.0 / sigma1;
    y.reshape(n, nc);
    hy.reshape(n, nc);

    // Y = (H X - c X) * (sigma1 / e)
    let mut k = Recurrence {
        c: T::Re::from_f64(c),
        alpha: T::Re::from_f64(sigma1 / e),
        beta: T::Re::ZERO,
    };
    step(x, None, k, y);
    let seen = seen(x, y, (c, e / sigma1));
    if let Some(cols) = &seen {
        if cols.is_empty() {
            return seen;
        }
        if cols.len() < nc {
            x.retain(cols);
            y.retain(cols);
            hy.reshape(n, cols.len());
        }
    }
    for _k in 2..=m {
        let sigma2 = 1.0 / (gamma - sigma);
        // Ynew = 2 (sigma2/e) (H Y - c Y) - (sigma * sigma2) X, written into
        // the HY buffer; then rotate X <- Y <- Ynew. The retired X buffer
        // becomes the next HY, fully overwritten by the next step.
        k.alpha = T::Re::from_f64(2.0 * sigma2 / e);
        k.beta = T::Re::from_f64(sigma * sigma2);
        step(y, Some(x), k, hy);
        std::mem::swap(x, y);
        std::mem::swap(y, hy);
        sigma = sigma2;
    }
    std::mem::swap(x, y);
    seen
}

/// One CF task: the `w` columns `cols` (column-major, `nd` rows each)
/// loaded into `x`, filtered by [`chebyshev_filter_gated`] with `step` and
/// the scratch blocks `y`, `hy`, and written back in place — every column,
/// or at the Fermi level `level` only the seen ones, by index. Returns how
/// many columns ran the full degree.
// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn filter_task<T: Scalar, B: FilterBlock<T>>(
    cols: &mut [T],
    (nd, w): (usize, usize),
    (x, y, hy): (&mut B, &mut B, &mut B),
    degree: usize,
    bounds: (f64, f64, f64),
    step: impl FnMut(&B, Option<&B>, Recurrence<T::Re>, &mut B),
    level: Option<(f64, f64)>,
    reducer: &dyn SubspaceReducer<T>,
) -> usize {
    x.load(cols, (nd, w));
    let seen = chebyshev_filter_gated(x, (y, hy), degree, bounds, step, |x, y, rq| {
        level.map(|level| seen_columns(B::rq_sums(x, y), rq, level, reducer))
    });
    let mut store = |i: usize, j: usize| x.store_col(i, &mut cols[j * nd..(j + 1) * nd]);
    match seen {
        None => (0..w).for_each(|j| store(j, j)),
        Some(ref kept) => kept.iter().enumerate().for_each(|(i, &j)| store(i, j)),
    }
    seen.map_or(w, |kept| kept.len())
}

/// Analytic FLOP count of one [`chebyshev_filter_scratch`] call of degree `m` on
/// `ncols` columns of `h`: `m` Hamiltonian applies plus the three-term
/// recurrence update (per element and degree step, roughly three scalings
/// by real coefficients and two additions). For a distributed operator
/// both terms count the rank-local work (`h.dim()` = owned DoFs).
pub fn chebyshev_filter_flops<T: Scalar>(h: &dyn HamOperator<T>, ncols: usize, m: usize) -> u64 {
    let elems = (h.dim() * ncols) as u64;
    let recur = elems * (3 * T::SCALE_FLOPS + 2 * T::ADD_FLOPS);
    m as u64 * (h.apply_flops(ncols) + recur)
}

/// The cross-rank seam that makes ChFES distribution-agnostic. A rank holds
/// its *owned* wavefunction rows of all `N` columns and computes one
/// contiguous *band window* [`Self::band_cols`] of every subspace quantity:
/// the filtered columns, the window's columns of the overlap `S` and of the
/// projected Hamiltonian, the rotated columns. The reducer sums the `N x N`
/// matrices over the ranks that share rows and reassembles full matrices and
/// full wavefunction columns from the windows. The serial solver
/// ([`NoReduce`]) and every `n x 1 x 1` slab are the window `(0, N)`: the
/// same code with nothing to reassemble.
pub trait SubspaceReducer<T: Scalar> {
    /// Sum an `N x N` subspace matrix over all ranks, in place: the input
    /// holds this rank's [`Self::band_cols`] columns (the rest zero), the
    /// output is the fully assembled matrix, bit-identical on every rank.
    /// `fp32` lets the entries off the band-diagonal square travel in FP32
    /// (Sec. 5.4.2); the caller then runs the FP64 CholGS cleanup pass,
    /// which sums in full precision.
    fn reduce_matrix(&self, m: &mut Matrix<T>, fp32: bool);
    /// Sum a small `f64` buffer over all ranks, in place.
    fn reduce_f64(&self, v: &mut [f64]);
    /// The contiguous column window `[j0, j1)` of an `n`-column subspace
    /// this rank computes; the whole subspace by default.
    fn band_cols(&self, n: usize) -> (usize, usize) {
        (0, n)
    }
    /// Reassemble full columns of the owned-row block `m` after this rank
    /// updated only its [`Self::band_cols`] window (allgather along the
    /// band axis). Nothing to do when the window is the whole subspace.
    fn assemble_cols(&self, _m: &mut Matrix<T>) {}
}

/// The identity reduction of the shared-memory solver.
pub struct NoReduce;

impl<T: Scalar> SubspaceReducer<T> for NoReduce {
    fn reduce_matrix(&self, _m: &mut Matrix<T>, _fp32: bool) {}
    fn reduce_f64(&self, _v: &mut [f64]) {}
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
    chfes_reduced(h, psi, bounds, opts, None, None, &NoReduce)
}

/// The one precision-selecting product of a cycle, `C = op(A) B`: the FP64
/// GEMM forming the part of `C` that `shape` names, or under `fp32` the
/// demote-multiply-promote one (Sec. 5.4.2), which forms all of it.
fn product<T: Scalar>(
    fp32: bool,
    a: &Matrix<T>,
    opa: Op,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    shape: Shape,
) {
    if fp32 {
        gemm_mixed(T::ONE, a, opa, b, Op::None, T::ZERO, c);
    } else {
        gemm_shaped(T::ONE, a, opa, b, Op::None, T::ZERO, c, shape);
    }
}

/// Flops of a [`product`] over the global column window `[g0, g1)` of an
/// `n`-column subspace, `nd` deep: per column `g` the `n - g` rows of a
/// [`Shape::LowerC`] or `g + 1` inner terms of a [`Shape::UpperB`] one,
/// the whole `n` under `fp32`, which forms all of it.
fn product_flops<T: Scalar>(
    fp32: bool,
    shape: Shape,
    nd: usize,
    n: usize,
    (g0, g1): (usize, usize),
) -> u64 {
    let terms = |g: usize| match shape {
        Shape::LowerC(_) if !fp32 => n - g,
        Shape::UpperB(_) if !fp32 => g + 1,
        _ => n,
    };
    (g0..g1).map(|g| gemm_flops::<T>(terms(g), 1, nd)).sum()
}

/// Hermitian product `C = A† B` of the subspace `a` (`N` columns) with `b`,
/// its column window starting at global column `col0`: the `N x w` block of
/// columns `[col0, col0 + w)` of the overlap (`b` = those columns of `a`)
/// or of the projected Hamiltonian (`b` = `H` applied to them).
///
/// `fp64_block = None` is the FP64 product, formed as its lower triangle
/// only (rows at or below each global column; [`Shape::LowerC`]): the
/// entries above are unspecified, and [`reduce_window`] mirrors the lower
/// ones into them. `Some(bf)` is the paper's mixed-precision layout, formed
/// whole: FP32 everywhere except the entries whose row and global column
/// fall in the same `B_f` block (`i / bf == j / bf`), which are recomputed
/// in FP64. The partition is global, so an entry is FP64 or FP32
/// regardless of which window (which process grid) computes it.
fn adjoint_window<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    col0: usize,
    fp64_block: Option<usize>,
) -> Matrix<T> {
    let (n, col1) = (a.ncols(), col0 + b.ncols());
    assert!(col1 <= n, "column window escapes the subspace");
    let mut c = Matrix::<T>::zeros(n, b.ncols());
    let lower = Shape::LowerC(col0);
    product(fp64_block.is_some(), a, Op::ConjTrans, b, &mut c, lower);
    let Some(bf) = fp64_block else { return c };
    let mut g0 = col0;
    while g0 < col1 {
        // rows [r0, r1): the B_f block of global column g0; columns
        // [g0, g1): that block clipped to the window
        let r0 = g0 / bf * bf;
        let r1 = (r0 + bf).min(n);
        let g1 = r1.min(col1);
        let bb = b.cols_range(g0 - col0, g1 - col0);
        let d = matmul(&a.cols_range(r0, r1), Op::ConjTrans, &bb, Op::None);
        for j in g0..g1 {
            c.col_mut(j - col0)[r0..r1].copy_from_slice(d.col(j - g0));
        }
        g0 = g1;
    }
    c
}

/// Columns `[j0, j1)` of `m`: `m` itself when that is all of them (the
/// serial / slab window), a copy of the band block otherwise.
fn window_cols<T: Scalar>(m: &Matrix<T>, (j0, j1): (usize, usize)) -> Cow<'_, Matrix<T>> {
    if (j0, j1) == (0, m.ncols()) {
        Cow::Borrowed(m)
    } else {
        Cow::Owned(m.cols_range(j0, j1))
    }
}

/// Make `out` (`nd x (j1 - j0)`) the columns `[j0, j1)` of `psi` on every
/// rank: a buffer swap when the window is the whole subspace (`out` keeps
/// the retired block as scratch), else a column copy plus the reducer's
/// reassembly along the band axis.
fn install_window<T: Scalar>(
    psi: &mut Matrix<T>,
    out: &mut Matrix<T>,
    (j0, j1): (usize, usize),
    reducer: &dyn SubspaceReducer<T>,
) {
    if (j0, j1) == (0, psi.ncols()) {
        std::mem::swap(psi, out);
    } else {
        psi.set_cols(j0, out);
        reducer.assemble_cols(psi);
    }
}

/// Assemble this rank's `N x w` column block (window starting at `j0`) of a
/// Hermitian subspace matrix into the reduced `N x N` matrix every rank
/// factorizes or diagonalizes: the summed lower triangle, mirrored into the
/// upper one ([`Matrix::hermitian_from_lower`]). `fp64_block` is the
/// subspace precision: under `Some` the reduction's off-band-diagonal
/// entries may travel in FP32 ([`SubspaceReducer::reduce_matrix`]).
fn reduce_window<T: Scalar>(
    block: &Matrix<T>,
    j0: usize,
    reducer: &dyn SubspaceReducer<T>,
    fp64_block: Option<usize>,
) -> Matrix<T> {
    let n = block.nrows();
    let mut m = Matrix::<T>::zeros(n, n);
    m.set_cols(j0, block);
    reducer.reduce_matrix(&mut m, fp64_block.is_some());
    m.hermitian_from_lower();
    m
}

/// `sum_i |x_i|^2` over local rows in `blas1::nrm2` order: a norm's partial sum.
fn sum_sq<T: Scalar>(x: &[T]) -> f64 {
    x.iter()
        .fold(T::Re::ZERO, |acc, v| acc + v.abs_sq())
        .to_f64()
}

/// Scale every column of the owned-row block `m` to unit norm: local sum of
/// squares ([`sum_sq`]), cross-rank reduce, then sqrt.
fn unit_columns<T: Scalar>(m: &mut Matrix<T>, reducer: &dyn SubspaceReducer<T>) {
    let mut sumsq: Vec<f64> = (0..m.ncols()).map(|j| sum_sq(m.col(j))).collect();
    reducer.reduce_f64(&mut sumsq);
    for (j, sq) in sumsq.iter().enumerate() {
        let inv = T::Re::from_f64(1.0 / sq.sqrt().max(1e-300));
        for v in m.col_mut(j) {
            *v = v.scale(inv);
        }
    }
}

/// Which columns of a filter block the density sees at the Fermi level
/// `(mu, kT)`: column `j` is seen iff its Rayleigh quotient at `H`,
/// `c + (e / sigma1) Re<x_j, y_j> / <x_j, x_j>` read off the block `x` and
/// the filter's first iterate `y` (`sums` holds the first sums of every
/// column, then the second, [`FilterBlock::rq_sums`]; `rq = (c, e /
/// sigma1)`; both sums reduced over the ranks that share the rows), is
/// occupied at or above [`DENSITY_CUTOFF`]. A column's verdict depends on
/// that column alone.
fn seen_columns<T: Scalar>(
    mut sums: Vec<f64>,
    (c, scale): (f64, f64),
    (mu, kt): (f64, f64),
    reducer: &dyn SubspaceReducer<T>,
) -> Vec<usize> {
    let nc = sums.len() / 2;
    reducer.reduce_f64(&mut sums);
    (0..nc)
        .filter(|&j| {
            let rq = c + scale * sums[j] / sums[nc + j].max(1e-300);
            2.0 * fermi(rq, mu, kt) >= DENSITY_CUTOFF
        })
        .collect()
}

/// One CholGS pass over the band window `win` of `psi`: overlap block
/// (CholGS-S) → reduce → Cholesky inverse (CholGS-CI) → orthonormalization
/// GEMM into `work` → install (CholGS-O). `fp64_block` is the subspace
/// precision of the products ([`adjoint_window`]) and of the reduction
/// ([`reduce_window`]). Fails, leaving `psi` as it was and naming the
/// pivot, when the overlap is not numerically positive definite.
fn cholgs_pass<T: Scalar>(
    psi: &mut Matrix<T>,
    work: &mut Matrix<T>,
    win: (usize, usize),
    fp64_block: Option<usize>,
    profile: Option<&Profile>,
    reducer: &dyn SubspaceReducer<T>,
) -> Result<(), LinalgError> {
    let (nd, n) = psi.shape();
    let j0 = win.0;
    let tsize = std::mem::size_of::<T>() as u64;
    let block_bytes = (nd * n) as u64 * tsize;
    let s = {
        let mut scope = PhaseScope::new(profile, Phase::CholGsS);
        let lower = Shape::LowerC(j0);
        scope.add_flops(product_flops::<T>(fp64_block.is_some(), lower, nd, n, win));
        scope.add_bytes(block_bytes + (n * n) as u64 * tsize);
        let sb = adjoint_window(psi, &window_cols(psi, win), j0, fp64_block);
        reduce_window(&sb, j0, reducer, fp64_block)
    };
    // factorization + triangular inverse (wall-time-only)
    let linv = {
        let mut scope = PhaseScope::new(profile, Phase::CholGsCi);
        scope.add_bytes((n * n) as u64 * tsize);
        let linv = cholesky_inverse(&s)?;
        // a pivot (`1 / |L^{-1}_jj|^2`) within rounding of zero against its
        // diagonal is a breakdown as well: its sign is noise, and which sign
        // it takes depends on the layout's summation order
        let noise = n as f64 * f64::EPSILON;
        let pivot_ok =
            |j: usize| noise * s[(j, j)].re().to_f64() * linv[(j, j)].abs_sq().to_f64() < 1.0;
        if let Some(j) = (0..n).find(|&j| !pivot_ok(j)) {
            return Err(LinalgError::NotPositiveDefinite(j));
        }
        linv
    };
    // Psi_o[:, window] = Psi_f L^{-dagger}[:, window], L^{-dagger} upper
    // triangular
    let mut scope = PhaseScope::new(profile, Phase::CholGsO);
    let (fp32, upper) = (fp64_block.is_some(), Shape::UpperB(j0));
    scope.add_flops(product_flops::<T>(fp32, upper, nd, n, win));
    scope.add_bytes(2 * block_bytes);
    let linv_h = linv.adjoint();
    let lw = window_cols(&linv_h, win);
    product(fp32, psi, Op::None, &lw, work, upper);
    install_window(psi, work, win, reducer);
    Ok(())
}

/// Cut the `n` column-major columns `cols` (`nd` rows each) into filter
/// tasks of at most `width` columns: `(columns, their values)`, in order.
fn split_tasks<T>(cols: &mut [T], (nd, n): (usize, usize), width: usize) -> Vec<(usize, &mut [T])> {
    let mut rest = cols;
    (0..n)
        .step_by(width)
        .map(|j0| {
            let w = width.min(n - j0);
            let (task, tail) = std::mem::take(&mut rest).split_at_mut(w * nd);
            rest = tail;
            (w, task)
        })
        .collect()
}

/// The one CF phase, behind every filter call: the `n` column-major
/// columns `cols` (`nd` rows each) filtered in place to degree `degree`
/// over `bounds`, in tasks of at most `bf` columns — given the Fermi level
/// `level`, only the seen columns of each past its first step (see
/// [`chfes_reduced`]). Returns each task's `(columns, seen columns)` for
/// the booking.
///
/// An operator without [`HamOperator::panels`] (a rank's) runs column-major
/// blocks of `bf` one after another on `scratch`, each step exchanging
/// ghosts, the seen-column sums reduced by `reducer`. A local operator runs
/// tasks of at most [`COL_BLOCK`] and `bf` columns as one parallel region,
/// each on `max(1, threads / tasks)` threads (more than one cuts its sweeps
/// into row slabs): a thread carries its task through every degree step in
/// lane panels, one task's three at a time, allocated here, one set per
/// task that can run at once, and dropped on return. It holds every row of
/// its columns, so its seen-column sums need no reduction.
#[allow(clippy::too_many_arguments)]
fn filter_phase<T: Scalar>(
    h: &dyn HamOperator<T>,
    cols: &mut [T],
    (nd, n): (usize, usize),
    (bf, degree): (usize, usize),
    bounds: (f64, f64, f64),
    level: Option<(f64, f64)>,
    reducer: &dyn SubspaceReducer<T>,
    scratch: &mut CfScratch<T>,
) -> Vec<(usize, usize)> {
    let Some(local) = h.panels() else {
        let CfScratch { x, y, hy } = scratch;
        let step = |y: &Matrix<T>, x_prev: Option<&Matrix<T>>, k, out: &mut Matrix<T>| {
            h.recurrence_step(y, x_prev, k, out)
        };
        let mut run = |(w, task): (usize, &mut [T])| {
            let bufs = (&mut *x, &mut *y, &mut *hy);
            let k = filter_task(task, (nd, w), bufs, degree, bounds, step, level, reducer);
            (w, k)
        };
        return split_tasks(cols, (nd, n), bf)
            .into_iter()
            .map(&mut run)
            .collect();
    };
    let width = bf.min(COL_BLOCK);
    let tasks = split_tasks(cols, (nd, n), width);
    let threads = rayon::current_num_threads();
    let share = (threads / tasks.len().max(1)).max(1);
    // as wide as the widest task: a buffer the allocator hands out again
    // arrives dirty and is zeroed in full, used lanes or not
    let panels = |_| [0; 3].map(|_| LanePanel::<T>::zeros(nd, width.min(n)));
    let sets = Mutex::new(
        (0..tasks.len().min(threads))
            .map(panels)
            .collect::<Vec<_>>(),
    );
    let take = || sets.lock().unwrap_or_else(PoisonError::into_inner);
    let step = |y: &LanePanel<T>, x_prev: Option<&LanePanel<T>>, k, out: &mut LanePanel<T>| {
        local.panel_step(y, x_prev, k, out)
    };
    tasks
        .into_par_iter()
        .map(|(w, task)| {
            let mut set = take().pop().expect("a panel set per running task");
            let [x, y, hy] = &mut set;
            let bufs = (x, y, hy);
            let k = with_threads(share, || {
                filter_task(task, (nd, w), bufs, degree, bounds, step, level, &NoReduce)
            });
            take().push(set);
            (w, k)
        })
        .collect()
}

/// The ChFES cycle, once, for every caller: `psi` holds this rank's *owned*
/// wavefunction rows (all rows serially), `h` the operator on them — the CF
/// recurrence runs through [`LinearOperator::recurrence_step`] (or, on a
/// local operator, [`crate::hamiltonian::PanelOperator::panel_step`]),
/// Rayleigh-Ritz and the rank-deficiency rescue through `apply`, so a
/// distributed `h` can exchange the filter's ghosts on an FP32 wire and RR's in FP64
/// (the paper's "FP32 boundary wire, FP64 math" split, Sec. 5.4.2) — and
/// `reducer` sums subspace quantities across ranks. [`chfes`] is this with
/// no profile and [`NoReduce`].
///
/// Every phase works on this rank's band window `[j0b, j1b)` of the
/// subspace ([`SubspaceReducer::band_cols`]) as one `nd x (j1b - j0b)`
/// block: filter it, form its columns of `S`, orthonormalize it, apply `H`
/// to it, form its columns of `H_p`, rotate it. Whether the window is the
/// whole subspace is known only to [`window_cols`] and [`install_window`].
///
/// CF ([`filter_phase`], the one CF phase of every filter call) cuts the
/// window into filter tasks: on a local operator ([`HamOperator::panels`])
/// tasks of at most [`COL_BLOCK`] and at most `B_f` columns, run side by
/// side, each carried by its own thread(s) through every degree step;
/// otherwise blocks of `B_f`, one after another. Given the Fermi level
/// `occupied_at = (mu, kT)` of the last occupations, CF filters to full
/// degree only the columns the density sees: each task runs its first
/// recurrence step, reads every column's Rayleigh quotient at `h` off it
/// ([`seen_columns`]), narrows in place to the columns occupied at or above
/// [`DENSITY_CUTOFF`], runs those alone to `cheb_degree` (a distributed `h`
/// exchanges only their ghosts) and writes them back by index; a task with
/// none stops there. Unseen columns keep their input bits — the
/// search-space extras only have to span, and Rayleigh–Ritz refreshes
/// them — and every column still goes through CholGS and RR. A column's result depends on that column alone, so the
/// bits do not depend on the filter width, the task layout, the thread
/// count, the band window or the rank count. `None` filters every column.
///
/// Each phase (CF, CholGS-S/CI/O, RR-P/D/SR) runs inside its own
/// [`PhaseScope`], tagged with analytic FLOP and byte counts (CholGS-CI and
/// RR-D are wall-time-only, matching the paper's Sec. 6.3 accounting); CF
/// books, once its tasks are done, one step on each task's columns and
/// `cheb_degree - 1` on its seen columns.
pub fn chfes_reduced<T: Scalar>(
    h: &dyn HamOperator<T>,
    psi: &mut Matrix<T>,
    bounds: (f64, f64, f64),
    opts: &ChfesOptions,
    occupied_at: Option<(f64, f64)>,
    profile: Option<&Profile>,
    reducer: &dyn SubspaceReducer<T>,
) -> Vec<f64> {
    let (nd, n_states) = psi.shape();
    let tsize = std::mem::size_of::<T>() as u64;
    let block_bytes = (nd * n_states) as u64 * tsize;
    let (bf, degree) = (opts.block_size.max(1), opts.cheb_degree);
    let win = reducer.band_cols(n_states);
    let (j0b, j1b) = win;

    // [CF] the window's columns in filter tasks, in place (plus the
    // pre-CholGS column normalization); the scratch is dropped before
    // `work` is allocated
    {
        let mut scope = PhaseScope::new(profile, Phase::Cf);
        let cols = &mut psi.as_mut_slice()[j0b * nd..j1b * nd];
        let shape = (nd, j1b - j0b);
        let filter = (bf, degree);
        let scratch = &mut CfScratch::new();
        let filtered = filter_phase(
            h,
            cols,
            shape,
            filter,
            bounds,
            occupied_at,
            reducer,
            scratch,
        );
        // one step on each task column, `degree - 1` on its seen columns
        for (w, k) in filtered {
            scope.add_flops(
                chebyshev_filter_flops(h, w, 1) + chebyshev_filter_flops(h, k, degree - 1),
            );
            scope.add_bytes(2 * (nd * (w + k * (degree - 1))) as u64 * tsize);
        }
        reducer.assemble_cols(psi);

        // scale columns to unit norm to avoid overflow before CholGS
        unit_columns(psi, reducer);
    }

    // One reusable `nd x window` block receives every GEMM result and is
    // then installed into `psi` (swapped, not copied, on a full window).
    let mut work = Matrix::<T>::zeros(nd, j1b - j0b);

    // [CholGS] at the configured subspace precision, then — iff FP32
    // rounding entered (in the products and the reduction), leaving
    // O(1e-7) non-orthogonality — once more in FP64 with an exact reduce,
    // which keeps RR well-posed.
    let subspace = opts.mixed_precision.then_some(bf);
    let mut refills = 0;
    while let Err(e) = cholgs_pass(psi, &mut work, win, subspace, profile, reducer) {
        // The filtered block is (numerically) rank-deficient: the overlap —
        // the same matrix on every rank — broke down at pivot `j`, so column
        // `j` depends on its predecessors. Trade it for `H` times itself, a
        // new direction every layout computes on its own rows, and factorize
        // again. (A Löwdin factor cannot stand in: a singular overlap has no
        // `S^{-1/2}`, and no right factor adds a direction to the span.)
        let LinalgError::NotPositiveDefinite(j) = e else {
            panic!("CholGS: {e}");
        };
        refills += 1;
        assert!(refills <= n_states, "CholGS: block stays rank-deficient");
        let _scope = PhaseScope::new(profile, Phase::CholGsO);
        let mut fresh = Matrix::<T>::zeros(nd, 1);
        h.apply(&psi.cols_range(j, j + 1), &mut fresh);
        unit_columns(&mut fresh, reducer);
        psi.set_cols(j, &fresh);
    }
    if subspace.is_some() {
        cholgs_pass(psi, &mut work, win, None, profile, reducer).expect("FP64 CholGS cleanup pass");
    }

    // [RR-P] projected Hamiltonian Hp = Psi† (H Psi): H is applied to the
    // window's columns only, so the apply cost splits along the band axis
    let hp = {
        let mut scope = PhaseScope::new(profile, Phase::RrP);
        let lower = Shape::LowerC(j0b);
        let formed = product_flops::<T>(subspace.is_some(), lower, nd, n_states, win);
        scope.add_flops(h.apply_flops(j1b - j0b) + formed);
        scope.add_bytes(2 * block_bytes);
        h.apply(&window_cols(psi, win), &mut work);
        let hb = adjoint_window(psi, &work, j0b, subspace);
        reduce_window(&hb, j0b, reducer, subspace)
    };

    // [RR-D] dense diagonalization (wall-time-only)
    let e = {
        let mut scope = PhaseScope::new(profile, Phase::RrD);
        scope.add_bytes((n_states * n_states) as u64 * tsize);
        eigh(&hp).expect("RR diagonalization")
    };

    // [RR-SR] subspace rotation
    let mut scope = PhaseScope::new(profile, Phase::RrSr);
    scope.add_flops(gemm_flops::<T>(nd, j1b - j0b, n_states));
    scope.add_bytes(2 * block_bytes);
    let eb = window_cols(&e.eigenvectors, win);
    gemm(T::ONE, psi, Op::None, &eb, Op::None, T::ZERO, &mut work);
    install_window(psi, &mut work, win, reducer);
    e.eigenvalues
}

/// The Kohn–Sham eigensolve step of one k-point — what the SCF runs per
/// k-point and iteration, and inverse DFT per outer iteration: `passes`
/// ChFES cycles ([`chfes_reduced`] on `h` and `reducer`) over the filter
/// window `(a0, a)` carried in `window`.
///
/// A first solve (`window` arrives `None`) starts from an unfiltered block,
/// so `passes` is only its cap: after every cycle but the last allowed one
/// it applies `h` to the lowest `occupied` Ritz vectors and stops once each
/// residual norm `||H psi_i - lambda_i psi_i||`, its square summed over the
/// ranks that share the rows, is at most [`COLD_START_RESIDUAL`]. Every rank
/// reads the same sums and so runs the same cycles. A solve that arrives
/// with a window runs exactly `passes` cycles.
///
/// The bounds `(t_min, t_max)` are `steps` of [`lanczos_reduced`] on `h` and
/// `reducer` from `start`, this rank's rows of a [`lanczos_start`]: the same
/// on every rank, [`lanczos_bounds`]' on a whole problem. The window opens
/// from the previous step's or, when `window` is `None`, from a first guess
/// between them; its lower edge is then kept below `t_min - 1`, and the filter
/// edge `a` at most nine tenths of the way from `a0` to `t_max`. After every
/// cycle `a` moves just above the wanted spectrum — amplifying a wide unwanted
/// band stalls SCF convergence — by at least `2 kT` (`kt`) and at least the
/// mean level spacing, and `a0` to one below the lowest Ritz value.
///
/// `mu` is the chemical potential of the last occupations. When it is given
/// and the k-point has been solved before (`window` arrives `Some`), every
/// cycle filters to full degree only the columns occupied at `(mu, kt)`
/// (see [`chfes_reduced`]); every cycle of a first solve, and a call
/// without `mu` (inverse DFT), filter every column. Returns the last cycle's
/// Ritz values.
#[allow(clippy::too_many_arguments)]
pub fn ks_eigensolve<T: Scalar>(
    (h, reducer): (&dyn HamOperator<T>, &dyn SubspaceReducer<T>),
    (start, steps): (Matrix<T>, usize),
    psi: &mut Matrix<T>,
    window: &mut Option<(f64, f64)>,
    passes: usize,
    occupied: usize,
    kt: f64,
    mu: Option<f64>,
    opts: &ChfesOptions,
    profile: Option<&Profile>,
) -> Vec<f64> {
    let (tmin, tmax) = {
        let _scope = PhaseScope::new(profile, Phase::Other);
        lanczos_reduced(h, start, steps, reducer)
    };
    let cold = window.is_none();
    let occupied_at = mu.filter(|_| !cold).map(|mu| (mu, kt));
    let (mut a0, mut a) = window.unwrap_or((tmin - 1.0, tmin + 0.1 * (tmax - tmin)));
    a0 = a0.min(tmin - 1.0);
    // the edge stays nine tenths of the way from `a0` to `t_max`, inside
    // `(a0, t_max)` wherever the spectrum sits
    let cap = |a0: f64| a0 + 0.9 * (tmax - a0);
    a = a.clamp(a0 + 1e-3 * (tmax - a0), cap(a0));
    let mut evals = vec![];
    for cycle in 1..=passes {
        evals = chfes_reduced(h, psi, (a0, a, tmax), opts, occupied_at, profile, reducer);
        let n = evals.len();
        let spread = (evals[n - 1] - evals[0]).max(0.1);
        a0 = evals[0] - 1.0;
        a = (evals[n - 1] + (2.0 * kt).max(spread / n as f64)).min(cap(a0));
        if cold && cycle < passes {
            let k = occupied.min(n);
            if largest_residual(h, psi, &evals[..k], reducer, profile) <= COLD_START_RESIDUAL {
                break;
            }
        }
    }
    *window = Some((a0, a));
    evals
}

/// The largest residual norm `||H psi_j - lambda_j psi_j||` of the leading
/// Ritz pairs `(evals[j], psi_j)`: a one-column apply of `h` per pair
/// (booked under [`Phase::Other`]; one block apply of them all held two
/// `nd x k` copies and read 0.3 MB more peak RSS on `scf-wide`), its sum
/// of squares over the local rows, reduced over the ranks that share them.
fn largest_residual<T: Scalar>(
    h: &dyn HamOperator<T>,
    psi: &Matrix<T>,
    evals: &[f64],
    reducer: &dyn SubspaceReducer<T>,
    profile: Option<&Profile>,
) -> f64 {
    let mut scope = PhaseScope::new(profile, Phase::Other);
    scope.add_flops(h.apply_flops(evals.len()));
    let mut hx = Matrix::<T>::zeros(psi.nrows(), 1);
    let mut sumsq: Vec<f64> = evals
        .iter()
        .enumerate()
        .map(|(j, &e)| {
            let x = psi.cols_range(j, j + 1);
            h.apply(&x, &mut hx);
            let e = T::Re::from_f64(e);
            let mut acc = T::Re::ZERO;
            for (&y, &v) in hx.as_slice().iter().zip(x.as_slice()) {
                acc += (y - v.scale(e)).abs_sq();
            }
            acc.to_f64()
        })
        .collect();
    reducer.reduce_f64(&mut sumsq);
    sumsq.into_iter().fold(0.0, f64::max).sqrt()
}

/// Random orthonormal initial subspace: a seeded uniform draw,
/// orthonormalized by one FP64 CholGS pass — the same step every ChFES
/// cycle takes. Needs `n_states <= ndofs` (job admission checks it), which
/// makes the draw's overlap positive definite.
pub fn random_subspace<T: Scalar>(ndofs: usize, n_states: usize, seed: u64) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut psi = Matrix::<T>::from_fn(ndofs, n_states, |_, _| T::from_f64(rng.gen::<f64>() - 0.5));
    let mut work = Matrix::<T>::zeros(ndofs, n_states);
    cholgs_pass(&mut psi, &mut work, (0, n_states), None, None, &NoReduce)
        .expect("a random draw of n_states <= ndofs columns has full rank");
    psi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::KsHamiltonian;
    use dft_fem::mesh::Mesh3d;
    use dft_fem::space::FeSpace;
    use dft_linalg::scalar::C64;

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

    /// The start is orthonormal to 1e-12 and a pure function of its seed.
    fn check_random_subspace<T: Scalar>() {
        let psi = random_subspace::<T>(300, 24, 11);
        let s = matmul(&psi, Op::ConjTrans, &psi, Op::None);
        let dev = s.max_abs_diff(&Matrix::identity(24));
        assert!(dev <= 1e-12, "max |Psi^H Psi - I| = {dev:e}");
        let again = random_subspace::<T>(300, 24, 11);
        let bits = |m: &Matrix<T>| -> Vec<u64> {
            let parts = m
                .as_slice()
                .iter()
                .map(|v| (v.re().to_f64(), v.im().to_f64()));
            parts
                .flat_map(|(re, im)| [re.to_bits(), im.to_bits()])
                .collect()
        };
        assert_eq!(bits(&psi), bits(&again));
    }

    #[test]
    fn random_subspace_is_orthonormal_and_seeded_real() {
        check_random_subspace::<f64>();
    }

    #[test]
    fn random_subspace_is_orthonormal_and_seeded_complex() {
        check_random_subspace::<C64>();
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
        chebyshev_filter_scratch(&h, &mut x, 20, a, tmax, tmin - 1.0, &mut CfScratch::new());
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
        let (tmin, tmax) = lanczos_bounds(&h, 10, 2);
        // FP64, and mixed precision with B_f = 2 (FP32 off-diagonal blocks
        // in S, H_p and the orthonormalization GEMM): the FP64 CholGS
        // cleanup pass leaves the same orthonormality either way
        for (block_size, mixed_precision) in [(64, false), (2, true)] {
            let mut psi = random_subspace::<f64>(h.dim(), 5, 23);
            let opts = ChfesOptions {
                cheb_degree: 30,
                block_size,
                mixed_precision,
            };
            let window = (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax);
            let evals = chfes(&h, &mut psi, window, &opts);
            for w in evals.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            let g = matmul(&psi, Op::ConjTrans, &psi, Op::None);
            let err = g.max_abs_diff(&Matrix::identity(5));
            assert!(err <= 1e-12, "mixed {mixed_precision}: {err:.3e}");
        }
    }

    /// The FP64 cleanup pass is a CholGS pass like the first and books its
    /// work like the first: a mixed cycle opens every CholGS scope twice and
    /// tallies twice an FP64 cycle's analytic bytes in each, and twice its
    /// FLOPs but for the products the mixed pass forms whole (CholGS-S,
    /// CholGS-O and RR-P) where FP64 forms a triangle, so no CholGS phase's
    /// GFLOPS are understated by unbooked work.
    #[test]
    fn mixed_cycle_books_the_cleanup_pass_in_its_own_phases() {
        let (space, v) = ho_setup(3, 2);
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let (tmin, tmax) = lanczos_bounds(&h, 10, 2);
        let window = (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax);
        let cycle = |mixed_precision| {
            let profile = Profile::new();
            let mut psi = random_subspace::<f64>(h.dim(), 5, 23);
            let opts = ChfesOptions {
                cheb_degree: 30,
                block_size: 64,
                mixed_precision,
            };
            chfes_reduced(&h, &mut psi, window, &opts, None, Some(&profile), &NoReduce);
            profile.finish(None).cumulative
        };
        let (fp64, mixed) = (cycle(false), cycle(true));
        let (nd, n) = (h.dim(), 5);
        let untriangled = gemm_flops::<f64>(n, n, nd) - gemm_flops::<f64>(n * (n + 1) / 2, 1, nd);
        for (a, b) in fp64.iter().zip(&mixed) {
            assert_eq!(a.phase, b.phase);
            let passes = if a.phase.starts_with("CholGS") { 2 } else { 1 };
            let whole = matches!(a.phase.as_str(), "CholGS-S" | "CholGS-O" | "RR-P");
            let extra = if whole { untriangled } else { 0 };
            assert_eq!(b.calls, passes * a.calls, "{} scopes", a.phase);
            assert_eq!(b.flops, passes * a.flops + extra, "{} flops", a.phase);
            assert_eq!(b.bytes, passes * a.bytes, "{} bytes", a.phase);
        }
        assert!(fp64.iter().any(|r| r.phase == "CholGS-O" && r.flops > 0));
    }

    /// The local operator without its panels: CF runs its column-major
    /// `B_f` blocks through `recurrence_step`, the route of a distributed
    /// operator.
    struct Blocks<'a, T: Scalar>(&'a KsHamiltonian<'a, T>);

    impl<T: Scalar> LinearOperator<T> for Blocks<'_, T> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
            self.0.apply(x, y);
        }
        fn recurrence_step(
            &self,
            y: &Matrix<T>,
            x_prev: Option<&Matrix<T>>,
            k: Recurrence<T::Re>,
            out: &mut Matrix<T>,
        ) {
            self.0.recurrence_step(y, x_prev, k, out);
        }
    }

    impl<T: Scalar> HamOperator<T> for Blocks<'_, T> {
        fn apply_flops(&self, ncols: usize) -> u64 {
            self.0.apply_flops(ncols)
        }
    }

    /// A column's bits do not depend on the filter task it rides in, nor on
    /// how many threads share the tasks: one FP64 cycle on 24 columns gives
    /// the Ritz values and vectors of the one-thread, `B_f` = 1 cycle bit for
    /// bit under thread caps 1 to 4 and at `B_f` = 1, 3, 8, 16 and 64 — on
    /// a real Γ, a complex Bloch and a real Dirichlet space. So does a
    /// second cycle from those Ritz vectors at a Fermi level between the
    /// twelfth and thirteenth Ritz values, which narrows each task to its
    /// seen columns after one step (at `B_f` = 8: one task all seen, one
    /// with 4 of its 8 columns seen, one unseen), and one from the Ritz
    /// vectors last to first, whose seen columns end their task rather than
    /// lead it. A cycle on 8 columns, one task, whose sweeps cut the rows of
    /// the four-layer Dirichlet space into slabs under caps above one, does
    /// too, and so does every cycle filtered as a distributed operator
    /// filters: `B_f` = 64 columns at a time in column-major blocks. CF
    /// books, every time, one step on every column and `m - 1` on each
    /// seen one.
    #[test]
    fn cycle_bits_do_not_depend_on_the_filter_width() {
        use dft_hpc::threads::with_threads;
        use dft_linalg::scalar::C64;

        fn check<T: Scalar>(space: &FeSpace, phases: [T; 3]) {
            let v: Vec<f64> = (0..space.nnodes())
                .map(|n| (space.node_coord(n)[1] * 0.5).sin())
                .collect();
            let h = KsHamiltonian::<T>::new(space, &v, phases);
            let (tmin, tmax) = lanczos_bounds(&h, 10, 2);
            let window = (tmin - 1.0, tmin + 0.3 * (tmax - tmin), tmax);
            let blocks = Blocks(&h);
            let cycle = |threads, block_size: usize, start: &Matrix<T>, occupied_at| {
                let h: &dyn HamOperator<T> = if block_size == 0 { &blocks } else { &h };
                let block_size = block_size.max(1);
                let mut psi = start.clone();
                let opts = ChfesOptions {
                    cheb_degree: 30,
                    block_size,
                    mixed_precision: false,
                };
                let profile = Profile::new();
                let evals = with_threads(threads, || {
                    let p = Some(&profile);
                    chfes_reduced(h, &mut psi, window, &opts, occupied_at, p, &NoReduce)
                });
                let booked = profile.finish(None).cumulative[0].flops;
                (evals, psi, booked)
            };
            let random = random_subspace::<T>(h.dim(), 24, 5);
            let (ritz_values, ritz, _) = cycle(1, 64, &random, None);
            let (mu, kt) = ((ritz_values[11] + ritz_values[12]) / 2.0, 1e-5);
            let occupied = |e: &&f64| 2.0 * fermi(**e, mu, kt) >= DENSITY_CUTOFF;
            assert_eq!(ritz_values.iter().filter(occupied).count(), 12);
            let level = Some((mu, kt));
            let reversed = Matrix::from_fn(h.dim(), 24, |i, j| ritz[(i, 23 - j)]);
            let first8 = random.cols_range(0, 8);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (start, occupied_at, seen) in [
                (&random, None, 24),
                (&ritz, level, 12),
                (&reversed, level, 12),
                (&first8, None, 8),
            ] {
                let n = start.ncols();
                let (evals, psi, _) = cycle(1, 1, start, occupied_at);
                let expect =
                    chebyshev_filter_flops(&h, n, 1) + chebyshev_filter_flops(&h, seen, 29);
                for threads in 1..=4 {
                    // 0: B_f = 64 in column-major blocks, as a distributed
                    // operator filters
                    for bf in [1, 3, 8, 16, 64, 0] {
                        let what = format!("{threads} threads, B_f = {bf}, Fermi level {occupied_at:?}, {n} columns");
                        let (e, p, booked) = cycle(threads, bf, start, occupied_at);
                        assert_eq!(bits(&e), bits(&evals), "{what}: Ritz values");
                        assert!(p.as_slice() == psi.as_slice(), "{what}: Ritz vectors");
                        assert_eq!(booked, expect, "{what}: booked flops");
                    }
                }
            }
        }
        check::<f64>(&FeSpace::new(Mesh3d::periodic_cube(2, 5.0, 3)), [1.0; 3]);
        let bloch = [C64::cis(0.4), C64::cis(-0.9), C64::ONE];
        check::<C64>(&FeSpace::new(Mesh3d::periodic_cube(2, 5.0, 3)), bloch);
        check::<f64>(&FeSpace::new(Mesh3d::cube(4, 8.0, 2)), [1.0; 3]);
    }

    /// The subspace GEMMs split over threads once a product reaches
    /// [`SPLIT_MACS`]: on 1,728 DoF and 32 columns (S and `H_p` as column
    /// ranges of their lower triangle, CholGS-O and RR-SR as row blocks),
    /// one FP64 cycle gives the Ritz values and vectors of the one-thread
    /// cycle bit for bit under thread caps 2 and 4, on a real Γ and a
    /// complex Bloch space.
    #[test]
    fn cycle_bits_do_not_depend_on_the_gemm_split() {
        use dft_hpc::threads::with_threads;
        use dft_linalg::gemm::SPLIT_MACS;
        use dft_linalg::scalar::C64;

        fn check<T: Scalar>(phases: [T; 3]) {
            let space = FeSpace::new(Mesh3d::periodic_cube(4, 6.0, 3));
            let n = 32;
            assert!(n * n * space.ndofs() >= SPLIT_MACS, "the split engages");
            let v: Vec<f64> = (0..space.nnodes())
                .map(|i| (space.node_coord(i)[0] * 0.7).cos())
                .collect();
            let h = KsHamiltonian::<T>::new(&space, &v, phases);
            let (tmin, tmax) = lanczos_bounds(&h, 10, 2);
            let window = (tmin - 1.0, tmin + 0.3 * (tmax - tmin), tmax);
            let opts = ChfesOptions {
                cheb_degree: 12,
                block_size: 64,
                mixed_precision: false,
            };
            let start = random_subspace::<T>(h.dim(), n, 9);
            let cycle = |threads| {
                let mut psi = start.clone();
                let e = with_threads(threads, || chfes(&h, &mut psi, window, &opts));
                let bits: Vec<u64> = e.iter().map(|x| x.to_bits()).collect();
                (bits, psi)
            };
            let (evals, psi) = cycle(1);
            for threads in [2, 4] {
                let (e, p) = cycle(threads);
                assert_eq!(e, evals, "{threads} threads: Ritz values");
                assert!(
                    p.as_slice() == psi.as_slice(),
                    "{threads} threads: Ritz vectors"
                );
            }
        }
        check::<f64>([1.0; 3]);
        check::<C64>([C64::cis(0.4), C64::cis(-0.9), C64::ONE]);
    }

    /// The filter edge stays inside `(a0, t_max)` wherever the spectrum
    /// sits: on 8 DoF of constant potential +50 Ha (a spectrum high and
    /// narrow, where `0.9 t_max` fell below `a0`) and -50 Ha (below zero,
    /// where a later pass put `a` under `a0`), repeated eigensolves return
    /// the exact spectrum, whose lowest value is the potential.
    #[test]
    fn ks_eigensolve_keeps_the_filter_edge_inside_the_spectrum() {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 1));
        assert_eq!(space.ndofs(), 8);
        let opts = ChfesOptions {
            cheb_degree: 10,
            block_size: 64,
            mixed_precision: false,
        };
        for (v0, n_states) in [(50.0, 2), (-50.0, 6)] {
            let v = vec![v0; space.nnodes()];
            let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
            let mut psi = random_subspace::<f64>(h.dim(), n_states, 1);
            let mut window = None;
            for solve in 0..4 {
                let (hr, red): (&dyn HamOperator<f64>, &dyn SubspaceReducer<f64>) = (&h, &NoReduce);
                let evals = ks_eigensolve(
                    (hr, red),
                    lanczos_start((h.dim(), LANCZOS_STEPS, 7), 0..h.dim()),
                    &mut psi,
                    &mut window,
                    3,
                    n_states,
                    1e-3,
                    None,
                    &opts,
                    None,
                );
                let what = format!("v = {v0}, solve {solve}: {evals:?}");
                assert!(evals.iter().all(|e| e.is_finite()), "{what}");
                assert!(evals.windows(2).all(|w| w[0] <= w[1]), "{what}");
                assert!((evals[0] - v0).abs() < 1e-9, "{what}");
            }
        }
    }

    /// The cycles one `ks_eigensolve` call ran, read off its CF flops
    /// (without `mu` every cycle filters every column to full degree), and
    /// its largest occupied residual norm on return.
    fn solve_cycles(
        h: &KsHamiltonian<'_, f64>,
        psi: &mut Matrix<f64>,
        window: &mut Option<(f64, f64)>,
        (passes, occupied): (usize, usize),
        opts: &ChfesOptions,
    ) -> (u64, f64) {
        let p = Profile::new();
        let (hr, red): (&dyn HamOperator<f64>, &dyn SubspaceReducer<f64>) = (h, &NoReduce);
        let evals = ks_eigensolve(
            (hr, red),
            lanczos_start((h.dim(), LANCZOS_STEPS, 7), 0..h.dim()),
            psi,
            window,
            passes,
            occupied,
            0.02,
            None,
            opts,
            Some(&p),
        );
        let every = chebyshev_filter_flops(h, psi.ncols(), opts.cheb_degree);
        let cf = p.finish(None).phase_flops("CF");
        assert_eq!(cf % every, 0, "CF books whole all-column filters");
        let resid = largest_residual(h, psi, &evals[..occupied], &NoReduce, None);
        (cf / every, resid)
    }

    /// A first solve (`window` `None`) stops once its occupied Ritz pairs
    /// have converged. On the 512-DoF oscillator the ground state's residual
    /// is below the bound after one cycle, so with one occupied state a
    /// solve capped at 4 stops there; with four, the fourth is still far off
    /// after one cycle and the solve runs a second. A cap of 1 runs one
    /// cycle whatever the residuals, and a warm solve (`window` `Some`)
    /// runs all of its passes, converged or not.
    #[test]
    fn cold_start_stops_once_the_occupied_states_converge() {
        let (space, v) = ho_setup(3, 3);
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let opts = ChfesOptions {
            cheb_degree: 30,
            block_size: 6,
            mixed_precision: false,
        };
        for (occupied, cold_cycles) in [(1, 1), (4, 2)] {
            let what = format!("{occupied} occupied");
            let mut psi = random_subspace::<f64>(h.dim(), 6, 7);
            let (cycles, resid) = solve_cycles(&h, &mut psi, &mut None, (1, occupied), &opts);
            assert_eq!(cycles, 1, "{what}: cap 1");
            assert_eq!(
                resid > COLD_START_RESIDUAL,
                cold_cycles > 1,
                "{what}: {resid:e}"
            );

            let mut psi = random_subspace::<f64>(h.dim(), 6, 7);
            let mut window = None;
            let (cycles, resid) = solve_cycles(&h, &mut psi, &mut window, (4, occupied), &opts);
            assert_eq!(cycles, cold_cycles, "{what}: cap 4");
            assert!(resid <= COLD_START_RESIDUAL, "{what}: {resid:e}");
            let (cycles, _) = solve_cycles(&h, &mut psi, &mut window, (3, occupied), &opts);
            assert_eq!(cycles, 3, "{what}: a warm solve runs every pass");
        }
    }

    /// At the full window an FP64 triangle product books `n (n + 1) / 2`
    /// of its `n^2` entries (or inner terms) per row of depth, the same
    /// for the overlap's `LowerC` and CholGS-O's `UpperB` and for both
    /// scalars; a mixed-precision product, formed whole, books all `n^2`;
    /// and two windows that tile the columns book what the full one does.
    #[test]
    fn triangle_products_book_the_triangle_they_form() {
        let (nd, n) = (37, 10);
        let half = gemm_flops::<f64>(n * (n + 1) / 2, 1, nd);
        for shape in [Shape::LowerC(0), Shape::UpperB(0)] {
            assert_eq!(product_flops::<f64>(false, shape, nd, n, (0, n)), half);
            let whole = product_flops::<f64>(true, shape, nd, n, (0, n));
            assert_eq!(whole, gemm_flops::<f64>(n, n, nd));
            let z = product_flops::<C64>(false, shape, nd, n, (0, n));
            assert_eq!(z, gemm_flops::<C64>(n * (n + 1) / 2, 1, nd));
            let split = product_flops::<f64>(false, shape, nd, n, (0, 4))
                + product_flops::<f64>(false, shape, nd, n, (4, n));
            assert_eq!(split, half);
        }
    }

    /// A subspace `a` and a second block `b` of the same shape (what `H`
    /// applied to it looks like to the product), 37 rows x 10 columns.
    fn product_operands() -> (Matrix<f64>, Matrix<f64>) {
        let a = Matrix::from_fn(37, 10, |i, j| ((i * 7 + j * 13) as f64 * 0.37).sin());
        let b = Matrix::from_fn(37, 10, |i, j| ((i * 5 + j * 3) as f64 * 0.21).cos() + 0.1);
        (a, b)
    }

    /// The full-window mixed product, entry by entry: the FP64 product's
    /// bits where row and column share a `B_f` block, the FP32 GEMM's bits
    /// elsewhere (FP32-close to FP64, and not equal to it). The FP64 window
    /// forms the lower triangle, with the full product's bits.
    #[test]
    fn mixed_product_is_fp64_on_bf_diagonal_blocks_and_fp32_elsewhere() {
        let (a, b) = product_operands();
        let bf = 4;
        let c = adjoint_window(&a, &b, 0, Some(bf));
        let c64 = matmul(&a, Op::ConjTrans, &b, Op::None);
        let lower = adjoint_window(&a, &b, 0, None);
        for j in 0..10 {
            assert_eq!(lower.col(j)[j..], c64.col(j)[j..], "column {j}");
        }
        let mut c32 = Matrix::<f64>::zeros(10, 10);
        gemm_mixed(1.0, &a, Op::ConjTrans, &b, Op::None, 0.0, &mut c32);
        let mut rounded = 0;
        for j in 0..10 {
            for i in 0..10 {
                let (got, exact) = (c[(i, j)], c64[(i, j)]);
                if i / bf == j / bf {
                    assert_eq!(got.to_bits(), exact.to_bits(), "({i},{j}) is not FP64");
                } else {
                    assert_eq!(got.to_bits(), c32[(i, j)].to_bits(), "({i},{j})");
                    assert!((got - exact).abs() <= 1e-5 * exact.abs().max(1.0));
                    rounded += usize::from(got != exact);
                }
            }
        }
        assert!(rounded > 0, "no off-diagonal entry carries FP32 rounding");
    }

    /// Which entries are FP64 is a property of the subspace, not of the
    /// window: any column window of the product — straddling a `B_f`
    /// boundary, narrower than `B_f`, empty — is those columns of the
    /// full-window product, bit for bit.
    #[test]
    fn mixed_product_window_is_columns_of_the_full_product() {
        let (a, b) = product_operands();
        for bf in [4, 3, 16] {
            let full = adjoint_window(&a, &b, 0, Some(bf));
            for (j0, j1) in [(0, 10), (0, 5), (5, 10), (2, 7), (5, 6), (9, 10), (3, 3)] {
                let win = adjoint_window(&a, &b.cols_range(j0, j1), j0, Some(bf));
                assert_eq!(
                    win.as_slice(),
                    full.cols_range(j0, j1).as_slice(),
                    "B_f = {bf}, window {j0}..{j1}"
                );
            }
        }
    }
}

//! Matrix-free iterative solvers.
//!
//! * [`cg`] — preconditioned conjugate gradients, used for the FE Poisson
//!   (Hartree / nuclear electrostatics) solves;
//! * [`block_minres`] — the preconditioned MINRES of the paper's
//!   inverse-DFT adjoint solve (Sec. 5.3.1). It runs one Lanczos/QR
//!   recurrence per column in lockstep while applying the operator to the
//!   whole block at once, which is how the paper converts the adjoint solve
//!   into high-arithmetic-intensity FE cell-level work (one column is the
//!   single-system solve). Each column may carry its own
//!   spectral shift `sigma_i` (the adjoint systems are `(H - eps_i) p_i =
//!   g_i` with per-state eigenvalues).

use crate::blas1;
use crate::matrix::Matrix;
use crate::scalar::{Real, Scalar};

/// A linear operator applied to blocks of column vectors.
///
/// Implementations are matrix-free: the FE Hamiltonian applies itself by a
/// sum-factorized cell sweep + assembly without ever forming the sparse
/// matrix.
pub trait LinearOperator<T: Scalar>: Sync {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// `y = A x` where `x`, `y` are `dim() x B` blocks.
    fn apply(&self, x: &Matrix<T>, y: &mut Matrix<T>);
    /// One three-term recurrence step through the operator,
    /// `out = (A y - c y) * alpha - beta * x_prev` (no `x_prev` term on the
    /// first step of a recurrence) — the degree step of a Chebyshev filter.
    /// The default applies, then updates; an operator that sweeps `out` in
    /// cache-sized pieces overrides it to run [`recurrence_update`] on each
    /// piece while it is still resident. Either way every element sees the
    /// same operations in the same order, so the bits do not depend on
    /// which one ran.
    fn recurrence_step(
        &self,
        y: &Matrix<T>,
        x_prev: Option<&Matrix<T>>,
        k: Recurrence<T::Re>,
        out: &mut Matrix<T>,
    ) {
        self.apply(y, out);
        for j in 0..out.ncols() {
            recurrence_update(out.col_mut(j), y.col(j), x_prev.map(|x| x.col(j)), k);
        }
    }
}

/// Coefficients of one [`LinearOperator::recurrence_step`].
#[derive(Clone, Copy, Debug)]
pub struct Recurrence<R> {
    /// Spectral shift `c`.
    pub c: R,
    /// Scale `alpha` of the shifted apply.
    pub alpha: R,
    /// Weight `beta` of the previous iterate (unused without one).
    pub beta: R,
}

/// The element-wise half of a recurrence step, in place on a slice that
/// holds `A y`: `out = (out - c y) * alpha - beta * x_prev`. The only place
/// this arithmetic is written.
// dftlint:hot
#[inline]
pub fn recurrence_update<T: Scalar>(
    out: &mut [T],
    y: &[T],
    x_prev: Option<&[T]>,
    k: Recurrence<T::Re>,
) {
    assert_eq!(out.len(), y.len());
    match x_prev {
        None => {
            for (o, &yv) in out.iter_mut().zip(y) {
                *o = (*o - yv.scale(k.c)).scale(k.alpha);
            }
        }
        Some(x) => {
            assert_eq!(out.len(), x.len());
            for ((o, &yv), &xv) in out.iter_mut().zip(y).zip(x) {
                *o = (*o - yv.scale(k.c)).scale(k.alpha) - xv.scale(k.beta);
            }
        }
    }
}

/// A preconditioner `z = M r` (M approximates `A^{-1}` and must be
/// symmetric positive definite for MINRES/CG).
pub trait Preconditioner<T: Scalar>: Sync {
    /// `z = M r` for blocks of column vectors.
    fn apply(&self, r: &Matrix<T>, z: &mut Matrix<T>);
}

/// The identity preconditioner.
pub struct IdentityPrec;

impl<T: Scalar> Preconditioner<T> for IdentityPrec {
    fn apply(&self, r: &Matrix<T>, z: &mut Matrix<T>) {
        z.as_mut_slice().copy_from_slice(r.as_slice());
    }
}

/// Diagonal (Jacobi) preconditioner with a real positive diagonal.
///
/// The paper preconditions the adjoint MINRES with the inverse diagonal of
/// the discrete FE Laplacian — "an inexpensive yet effective preconditioner"
/// yielding ~5x fewer iterations.
pub struct DiagonalPrec {
    inv_diag: Vec<f64>,
}

impl DiagonalPrec {
    /// Build from the diagonal entries (must be positive); stores inverses.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        assert!(
            diag.iter().all(|&d| d > 0.0),
            "diagonal preconditioner requires positive diagonal"
        );
        Self {
            inv_diag: diag.iter().map(|&d| 1.0 / d).collect(),
        }
    }

    /// Number of rows this preconditioner acts on.
    pub fn dim(&self) -> usize {
        self.inv_diag.len()
    }
}

impl<T: Scalar> Preconditioner<T> for DiagonalPrec {
    fn apply(&self, r: &Matrix<T>, z: &mut Matrix<T>) {
        assert_eq!(r.nrows(), self.inv_diag.len());
        for j in 0..r.ncols() {
            let rj = r.col(j);
            let zj = z.col_mut(j);
            for (i, (zv, &rv)) in zj.iter_mut().zip(rj.iter()).enumerate() {
                *zv = rv.scale(T::Re::from_f64(self.inv_diag[i]));
            }
        }
    }
}

/// Solver outcome statistics.
#[derive(Clone, Debug)]
pub struct IterStats {
    /// Iterations performed (max over columns for block solves).
    pub iterations: usize,
    /// Per-column iteration counts at convergence.
    pub iterations_per_column: Vec<usize>,
    /// Final relative residual estimate per column.
    pub final_residuals: Vec<f64>,
    /// Whether every column reached the tolerance.
    pub converged: bool,
}

/// Preconditioned conjugate gradients for Hermitian positive definite `A`.
///
/// Solves `A x = b` starting from the provided `x`; returns iteration stats.
/// `tol` is relative to `||b||`.
pub fn cg<T: Scalar>(
    op: &dyn LinearOperator<T>,
    prec: &dyn Preconditioner<T>,
    b: &[T],
    x: &mut [T],
    tol: f64,
    max_iter: usize,
) -> IterStats {
    let n = op.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let bnorm = blas1::nrm2(b).to_f64().max(1e-300);

    let xm = Matrix::from_vec(n, 1, x.to_vec());
    let mut r = Matrix::from_vec(n, 1, b.to_vec());
    // r = b - A x; from the all-zero start (every Poisson solve) A x is zero
    // and r is b bit for bit, so the apply is skipped
    // dftlint:allow(L004, reason="exact-zero test: only an identically zero start makes A x vanish identically")
    if x.iter().any(|&v| v != T::ZERO) {
        let mut ax = Matrix::zeros(n, 1);
        op.apply(&xm, &mut ax);
        r.axpy_inplace(-T::ONE, &ax);
    }

    let mut z = Matrix::zeros(n, 1);
    prec.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = blas1::dot(r.col(0), z.col(0)).re().to_f64();
    let mut q = Matrix::zeros(n, 1);
    let mut xv = xm.into_vec();

    let mut resid = blas1::nrm2(r.col(0)).to_f64() / bnorm;
    let mut iters = 0;
    for _ in 0..max_iter {
        if resid <= tol {
            break;
        }
        iters += 1;
        op.apply(&p, &mut q);
        let pq = blas1::dot(p.col(0), q.col(0)).re().to_f64();
        if pq.abs() < 1e-300 {
            break;
        }
        let alpha = rz / pq;
        blas1::axpy(T::from_f64(alpha), p.col(0), &mut xv);
        blas1::axpy(T::from_f64(-alpha), q.col(0), r.col_mut(0));
        resid = blas1::nrm2(r.col(0)).to_f64() / bnorm;
        if resid <= tol {
            break;
        }
        prec.apply(&r, &mut z);
        let rz_new = blas1::dot(r.col(0), z.col(0)).re().to_f64();
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + beta p
        for i in 0..n {
            p.col_mut(0)[i] = z.col(0)[i] + p.col(0)[i].scale(T::Re::from_f64(beta));
        }
    }
    x.copy_from_slice(&xv);
    IterStats {
        iterations: iters,
        iterations_per_column: vec![iters],
        final_residuals: vec![resid],
        converged: resid <= tol,
    }
}

/// Lockstep preconditioned block-MINRES: solves `(A - sigma_j I) x_j = b_j`
/// for every column `j` simultaneously.
///
/// The operator is applied to the whole block once per iteration (the
/// paper's arithmetic-intensity trick); each column carries its own
/// Paige-Saunders recurrence and its own shift. Converged columns are
/// frozen. Initial guess is taken from `x`.
pub fn block_minres<T: Scalar>(
    op: &dyn LinearOperator<T>,
    prec: &dyn Preconditioner<T>,
    sigmas: &[f64],
    b: &Matrix<T>,
    x: &mut Matrix<T>,
    tol: f64,
    max_iter: usize,
) -> IterStats {
    let n = op.dim();
    let nb = b.ncols();
    assert_eq!(b.nrows(), n);
    assert_eq!(x.shape(), (n, nb));
    assert_eq!(sigmas.len(), nb);

    // Residual r1 = b - (A - sigma) x
    let mut r1 = Matrix::<T>::zeros(n, nb);
    op.apply(x, &mut r1);
    for j in 0..nb {
        let sj = T::Re::from_f64(sigmas[j]);
        let xj: Vec<T> = x.col(j).to_vec();
        let rj = r1.col_mut(j);
        for i in 0..n {
            rj[i] = b.col(j)[i] - (rj[i] - xj[i].scale(sj));
        }
    }

    let bnorms: Vec<f64> = (0..nb)
        .map(|j| blas1::nrm2(b.col(j)).to_f64().max(1e-300))
        .collect();

    let mut y = Matrix::<T>::zeros(n, nb);
    prec.apply(&r1, &mut y);

    let mut beta1 = vec![0.0_f64; nb];
    for j in 0..nb {
        let d = blas1::dot(r1.col(j), y.col(j)).re().to_f64();
        assert!(d >= -1e-12, "preconditioner not positive definite");
        beta1[j] = d.max(0.0).sqrt();
    }

    // Per-column recurrence state.
    let mut oldb = vec![0.0_f64; nb];
    let mut beta = beta1.clone();
    let mut dbar = vec![0.0_f64; nb];
    let mut epsln = vec![0.0_f64; nb];
    let mut phibar = beta1.clone();
    let mut cs = vec![-1.0_f64; nb];
    let mut sn = vec![0.0_f64; nb];
    let mut active: Vec<bool> = beta1.iter().map(|&bt| bt > 1e-300).collect();
    let mut resid: Vec<f64> = (0..nb).map(|j| phibar[j] / bnorms[j]).collect();
    let mut iters_col = vec![0usize; nb];
    for j in 0..nb {
        if resid[j] <= tol {
            active[j] = false;
        }
    }

    let mut r2 = r1.clone();
    let mut v = Matrix::<T>::zeros(n, nb);
    let mut av = Matrix::<T>::zeros(n, nb);
    let mut w = Matrix::<T>::zeros(n, nb);
    let mut w1 = Matrix::<T>::zeros(n, nb);
    let mut w2 = Matrix::<T>::zeros(n, nb);

    let mut total_iters = 0usize;
    for _itn in 1..=max_iter {
        if !active.iter().any(|&a| a) {
            break;
        }
        total_iters += 1;

        // v = y / beta (zero for inactive columns so the block apply is
        // harmless there)
        for j in 0..nb {
            let vj = v.col_mut(j);
            if active[j] && beta[j] > 0.0 {
                let s = T::Re::from_f64(1.0 / beta[j]);
                for (vv, &yv) in vj.iter_mut().zip(y.col(j).iter()) {
                    *vv = yv.scale(s);
                }
            } else {
                vj.fill(T::ZERO);
            }
        }

        // Block operator application: av = A v, then per-column shift.
        op.apply(&v, &mut av);
        for j in 0..nb {
            if !active[j] {
                continue;
            }
            let sj = T::Re::from_f64(sigmas[j]);
            let vj: Vec<T> = v.col(j).to_vec();
            let avj = av.col_mut(j);
            for i in 0..n {
                avj[i] -= vj[i].scale(sj);
            }
        }

        for j in 0..nb {
            if !active[j] {
                continue;
            }
            iters_col[j] += 1;

            // y_j = av_j - (beta/oldb) r1_j   (skip first iteration)
            let yj: Vec<T> = {
                let mut t: Vec<T> = av.col(j).to_vec();
                if iters_col[j] >= 2 && oldb[j] > 0.0 {
                    let c = T::Re::from_f64(beta[j] / oldb[j]);
                    for (tv, &rv) in t.iter_mut().zip(r1.col(j).iter()) {
                        *tv -= rv.scale(c);
                    }
                }
                t
            };
            let alfa = blas1::dot(v.col(j), &yj).re().to_f64();
            // y_j -= (alfa/beta) r2_j
            let mut yj = yj;
            {
                let c = T::Re::from_f64(alfa / beta[j]);
                for (tv, &rv) in yj.iter_mut().zip(r2.col(j).iter()) {
                    *tv -= rv.scale(c);
                }
            }
            // shift Lanczos history
            r1.col_mut(j).copy_from_slice(r2.col(j));
            r2.col_mut(j).copy_from_slice(&yj);

            // y = M r2 (column-wise preconditioner application below)
            // -- done after the loop for the whole block; stash alfa etc.
            // For simplicity we apply the preconditioner per column here.
            let r2j = Matrix::from_vec(n, 1, yj.clone());
            let mut zj = Matrix::zeros(n, 1);
            prec.apply(&r2j, &mut zj);
            y.col_mut(j).copy_from_slice(zj.col(0));

            oldb[j] = beta[j];
            let bnew = blas1::dot(r2.col(j), y.col(j)).re().to_f64().max(0.0);
            beta[j] = bnew.sqrt();

            // QR via Givens rotations.
            let oldeps = epsln[j];
            let delta = cs[j] * dbar[j] + sn[j] * alfa;
            let gbar = sn[j] * dbar[j] - cs[j] * alfa;
            epsln[j] = sn[j] * beta[j];
            dbar[j] = -cs[j] * beta[j];
            let gamma = gbar.hypot(beta[j]).max(1e-300);
            cs[j] = gbar / gamma;
            sn[j] = beta[j] / gamma;
            let phi = cs[j] * phibar[j];
            phibar[j] *= sn[j];

            // Shift the direction history first (w1 <- w2 <- w), then
            // w = (v - oldeps*w1 - delta*w2)/gamma ; x += phi*w.
            let inv_gamma = 1.0 / gamma;
            for i in 0..n {
                let w1v = w2.col(j)[i];
                let w2v = w.col(j)[i];
                let wnew = (v.col(j)[i]
                    - w1v.scale(T::Re::from_f64(oldeps))
                    - w2v.scale(T::Re::from_f64(delta)))
                .scale(T::Re::from_f64(inv_gamma));
                w1.col_mut(j)[i] = w1v;
                w2.col_mut(j)[i] = w2v;
                w.col_mut(j)[i] = wnew;
                x.col_mut(j)[i] += wnew.scale(T::Re::from_f64(phi));
            }

            resid[j] = phibar[j] / bnorms[j];
            if resid[j] <= tol || beta[j] <= 1e-300 {
                active[j] = false;
            }
        }
    }

    IterStats {
        iterations: total_iters,
        iterations_per_column: iters_col,
        final_residuals: resid,
        converged: active.iter().all(|&a| !a),
    }
}

/// Dense matrix wrapped as a [`LinearOperator`] (testing / small systems).
pub struct DenseOperator<T> {
    a: Matrix<T>,
}

impl<T: Scalar> DenseOperator<T> {
    /// Wrap a square dense matrix.
    // dftlint:allow(L009, reason="operator of iterative::tests and dft-linalg/tests/proptest_linalg.rs")
    pub fn new(a: Matrix<T>) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        Self { a }
    }
}

impl<T: Scalar> LinearOperator<T> for DenseOperator<T> {
    fn dim(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        crate::gemm::gemm(
            T::ONE,
            &self.a,
            crate::gemm::Op::None,
            x,
            crate::gemm::Op::None,
            T::ZERO,
            y,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::scalar::C64;

    fn spd(n: usize) -> Matrix<f64> {
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 11) as f64 * 0.53).sin());
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        for i in 0..n {
            a[(i, i)] += n as f64 * 0.5;
        }
        a
    }

    #[test]
    fn cg_solves_spd_system() {
        let n = 25;
        let a = spd(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let xm = Matrix::from_vec(n, 1, xs.clone());
        let b = matmul(&a, Op::None, &xm, Op::None);
        let op = DenseOperator::new(a);
        let mut x = vec![0.0; n];
        let st = cg(&op, &IdentityPrec, b.col(0), &mut x, 1e-12, 500);
        assert!(st.converged, "residual {:?}", st.final_residuals);
        for i in 0..n {
            assert!((x[i] - xs[i]).abs() < 1e-8);
        }
    }

    /// From the all-zero start the initial residual is `b` itself, so CG
    /// applies the operator once per iteration and never for set-up; any
    /// other start pays the one extra apply. Both reach the same solution
    /// in the same number of iterations as `r = b - A 0` would.
    #[test]
    fn cg_skips_the_initial_apply_from_a_zero_start() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(DenseOperator<f64>, AtomicUsize);
        impl LinearOperator<f64> for Counting {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn apply(&self, x: &Matrix<f64>, y: &mut Matrix<f64>) {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.apply(x, y);
            }
        }
        let n = 25;
        let a = spd(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = matmul(&a, Op::None, &Matrix::from_vec(n, 1, xs.clone()), Op::None);
        let op = Counting(DenseOperator::new(a), AtomicUsize::new(0));

        let mut x = vec![0.0; n];
        let zero = cg(&op, &IdentityPrec, b.col(0), &mut x, 1e-12, 500);
        assert!(zero.converged);
        assert_eq!(op.1.swap(0, Ordering::Relaxed), zero.iterations);

        // a start that is zero except for a denormal-scale entry retraces
        // the same iteration count through the general `r = b - A x` path
        let mut x1 = vec![0.0; n];
        x1[3] = 1e-300;
        let nonzero = cg(&op, &IdentityPrec, b.col(0), &mut x1, 1e-12, 500);
        assert_eq!(nonzero.iterations, zero.iterations);
        assert_eq!(op.1.load(Ordering::Relaxed), nonzero.iterations + 1);
        for i in 0..n {
            assert!((x[i] - xs[i]).abs() < 1e-8 && (x1[i] - x[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cg_with_jacobi_preconditioner_converges_faster() {
        let n = 40;
        // strongly diagonally-graded SPD matrix -> Jacobi helps
        let mut a = spd(n);
        for i in 0..n {
            a[(i, i)] += (i as f64 + 1.0) * 10.0;
        }
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b = matmul(&a, Op::None, &Matrix::from_vec(n, 1, xs.clone()), Op::None);
        let op = DenseOperator::new(a);
        let mut x0 = vec![0.0; n];
        let plain = cg(&op, &IdentityPrec, b.col(0), &mut x0, 1e-10, 2000);
        let mut x1 = vec![0.0; n];
        let prec = DiagonalPrec::from_diagonal(&diag);
        let jac = cg(&op, &prec, b.col(0), &mut x1, 1e-10, 2000);
        assert!(plain.converged && jac.converged);
        assert!(
            jac.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            jac.iterations,
            plain.iterations
        );
    }

    #[test]
    fn minres_solves_indefinite_shifted_system() {
        let n = 20;
        let a = spd(n);
        // shift into indefiniteness: A - sigma I with sigma between eigenvalues
        let sigma = 5.0;
        let xs: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let xm = Matrix::from_vec(n, 1, xs.clone());
        let mut b = matmul(&a, Op::None, &xm, Op::None);
        for i in 0..n {
            b.col_mut(0)[i] -= sigma * xs[i];
        }
        let op = DenseOperator::new(a);
        let mut x = Matrix::zeros(n, 1);
        let st = block_minres(&op, &IdentityPrec, &[sigma], &b, &mut x, 1e-12, 2000);
        assert!(st.converged);
        let x = x.col(0);
        for i in 0..n {
            assert!((x[i] - xs[i]).abs() < 1e-7, "i={i}: {} vs {}", x[i], xs[i]);
        }
    }

    #[test]
    fn block_minres_multiple_shifts() {
        let n = 18;
        let nb = 4;
        let a = spd(n);
        let shifts = [0.0, 1.5, 3.0, 7.2];
        let xs = Matrix::from_fn(n, nb, |i, j| ((i + j * 5) as f64 * 0.37).sin());
        let mut b = matmul(&a, Op::None, &xs, Op::None);
        for j in 0..nb {
            for i in 0..n {
                let corr = shifts[j] * xs[(i, j)];
                b[(i, j)] -= corr;
            }
        }
        let op = DenseOperator::new(a);
        let mut x = Matrix::zeros(n, nb);
        let st = block_minres(&op, &IdentityPrec, &shifts, &b, &mut x, 1e-12, 3000);
        assert!(st.converged, "residuals {:?}", st.final_residuals);
        assert!(x.max_abs_diff(&xs) < 1e-6);
    }

    #[test]
    fn block_minres_complex_hermitian() {
        let n = 12;
        let bm = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                ((i + 2 * j) as f64 * 0.3).sin(),
                ((i * j) as f64 * 0.1).cos(),
            )
        });
        let mut a = matmul(&bm, Op::ConjTrans, &bm, Op::None);
        a.symmetrize_hermitian();
        for i in 0..n {
            a[(i, i)] += C64::from_f64(3.0);
        }
        let shifts = [0.7, 2.0];
        let xs = Matrix::from_fn(n, 2, |i, j| C64::new(i as f64 * 0.1, j as f64 - 0.5));
        let mut b = matmul(&a, Op::None, &xs, Op::None);
        for j in 0..2 {
            for i in 0..n {
                let corr = xs[(i, j)].scale(shifts[j]);
                b[(i, j)] -= corr;
            }
        }
        let op = DenseOperator::new(a);
        let mut x = Matrix::zeros(n, 2);
        let st = block_minres(&op, &IdentityPrec, &shifts, &b, &mut x, 1e-12, 3000);
        assert!(st.converged);
        assert!(x.max_abs_diff(&xs) < 1e-6);
    }

    #[test]
    fn diagonal_preconditioner_cuts_minres_iterations() {
        // Laplacian-like graded diagonal dominance: the paper reports ~5x
        // fewer MINRES iterations with the inverse-diagonal preconditioner.
        let n = 60;
        let mut a = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0 * (1.0 + 50.0 * (i as f64 / n as f64).powi(2));
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let b = Matrix::from_fn(n, 1, |i, _| (i as f64 * 0.9).sin());
        let op = DenseOperator::new(a);
        let mut x0 = Matrix::zeros(n, 1);
        let plain = block_minres(&op, &IdentityPrec, &[0.0], &b, &mut x0, 1e-10, 5000);
        let mut x1 = Matrix::zeros(n, 1);
        let prec = DiagonalPrec::from_diagonal(&diag);
        let precd = block_minres(&op, &prec, &[0.0], &b, &mut x1, 1e-10, 5000);
        assert!(plain.converged && precd.converged);
        assert!(
            (precd.iterations as f64) < 0.7 * plain.iterations as f64,
            "preconditioned {} vs plain {}",
            precd.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let n = 8;
        let op = DenseOperator::new(spd(n));
        let b = Matrix::<f64>::zeros(n, 1);
        let mut x = Matrix::zeros(n, 1);
        let st = block_minres(&op, &IdentityPrec, &[0.0], &b, &mut x, 1e-10, 100);
        assert!(st.converged);
        assert_eq!(st.iterations, 0);
    }
}

//! Cholesky factorization and triangular inversion — the CholGS-CI step of
//! Algorithm 1.
//!
//! The Chebyshev-filtered subspace is orthonormalized by factoring the
//! overlap `S = L L†` and applying `Psi L^{-†}`; both pieces live here.

use crate::matrix::Matrix;
use crate::scalar::{Real, Scalar};

/// Errors from the dense factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is not (numerically) Hermitian positive definite; carries
    /// the pivot index that failed.
    NotPositiveDefinite(usize),
    /// Eigensolver failed to converge within the iteration budget.
    NoConvergence(usize),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite(i) => {
                write!(f, "matrix not positive definite at pivot {i}")
            }
            LinalgError::NoConvergence(i) => write!(f, "no convergence after {i} iterations"),
        }
    }
}
impl std::error::Error for LinalgError {}

/// Lower-triangular Cholesky factor `L` with `A = L L†`.
///
/// `A` must be Hermitian positive definite; only its lower triangle is read.
pub fn cholesky<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "cholesky: square matrix required");
    let mut l = Matrix::<T>::zeros(n, n);
    for j in 0..n {
        // diagonal entry
        let mut d = a[(j, j)].re();
        for k in 0..j {
            d -= l[(j, k)].abs_sq();
        }
        // NaN must also fail, hence the explicit partial ordering
        if d.to_f64().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(LinalgError::NotPositiveDefinite(j));
        }
        let dj = d.sqrt();
        l[(j, j)] = T::from_re(dj);
        let inv_dj = T::Re::ONE / dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = s.scale(inv_dj);
        }
    }
    Ok(l)
}

/// Invert a lower-triangular matrix in place semantics (returns `L^{-1}`).
pub fn tri_inv_lower<T: Scalar>(l: &Matrix<T>) -> Matrix<T> {
    let n = l.nrows();
    assert_eq!(n, l.ncols());
    let mut inv = Matrix::<T>::zeros(n, n);
    for j in 0..n {
        inv[(j, j)] = T::ONE / l[(j, j)];
        for i in (j + 1)..n {
            let mut s = T::ZERO;
            for k in j..i {
                s += l[(i, k)] * inv[(k, j)];
            }
            inv[(i, j)] = -(s / l[(i, i)]);
        }
    }
    inv
}

/// CholGS-CI: given a Hermitian positive definite overlap `S`, return
/// `L^{-1}` where `S = L L†`. The orthonormalization step is then the GEMM
/// `Psi_o = Psi_f * L^{-†}` (CholGS-O).
pub fn cholesky_inverse<T: Scalar>(s: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
    Ok(tri_inv_lower(&cholesky(s)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::scalar::C64;

    fn spd_matrix(n: usize) -> Matrix<f64> {
        // A = B^T B + n*I is SPD
        let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) as f64 * 0.37).sin());
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn hpd_matrix(n: usize) -> Matrix<C64> {
        let b = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                ((i * 5 + j * 3) as f64 * 0.41).sin(),
                ((i + 2 * j) as f64 * 0.23).cos(),
            )
        });
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        for i in 0..n {
            a[(i, i)] += C64::from_f64(2.0 * n as f64);
        }
        a.symmetrize_hermitian();
        a
    }

    #[test]
    fn cholesky_reconstructs_spd() {
        let a = spd_matrix(12);
        let l = cholesky(&a).unwrap();
        let rec = matmul(&l, Op::None, &l, Op::ConjTrans);
        assert!(rec.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn cholesky_reconstructs_hpd_complex() {
        let a = hpd_matrix(10);
        let l = cholesky(&a).unwrap();
        let rec = matmul(&l, Op::None, &l, Op::ConjTrans);
        assert!(rec.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn tri_inv_gives_identity() {
        let a = spd_matrix(9);
        let l = cholesky(&a).unwrap();
        let li = tri_inv_lower(&l);
        let eye = matmul(&l, Op::None, &li, Op::None);
        assert!(eye.max_abs_diff(&Matrix::identity(9)) < 1e-11);
    }

    #[test]
    fn cholesky_inverse_orthonormalizes() {
        // Psi_o = Psi L^{-dagger} must satisfy Psi_o^dagger Psi_o = I.
        // The i*j cross term keeps the columns genuinely independent.
        let psi = Matrix::from_fn(30, 6, |i, j| {
            ((i * 3 + j * 11) as f64 * 0.29 + (i * j) as f64 * 0.47).sin() + 0.1
        });
        let s = matmul(&psi, Op::ConjTrans, &psi, Op::None);
        let linv = cholesky_inverse(&s).unwrap();
        let psi_o = matmul(&psi, Op::None, &linv, Op::ConjTrans);
        let g = matmul(&psi_o, Op::ConjTrans, &psi_o, Op::None);
        assert!(g.max_abs_diff(&Matrix::identity(6)) < 1e-10);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut a = Matrix::<f64>::identity(4);
        a[(2, 2)] = -1.0;
        assert_eq!(cholesky(&a), Err(LinalgError::NotPositiveDefinite(2)));
    }
}

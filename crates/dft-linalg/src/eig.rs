//! Hermitian / symmetric dense eigensolver — the RR-D step of Algorithm 1.
//!
//! A cyclic Jacobi method over the generic [`Scalar`] trait: the complex
//! Hermitian rotation reduces to the classical real Jacobi rotation when the
//! scalar is real, so one implementation serves both the Γ-point (`f64`) and
//! k-point ([`crate::scalar::C64`]) paths. Jacobi is `O(n^3)` per sweep with
//! excellent accuracy (it computes small eigenvalues to high relative
//! precision), entirely adequate for the projected `N x N` problems the
//! Rayleigh-Ritz step produces at miniature scale.

use crate::chol::LinalgError;
use crate::matrix::Matrix;
use crate::scalar::{Real, Scalar};

/// Eigendecomposition of a Hermitian matrix: `A V = V diag(lambda)` with
/// orthonormal columns in `V` and ascending real eigenvalues.
#[derive(Clone, Debug)]
pub struct Eigh<T: Scalar> {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as matrix columns, matching `eigenvalues` order.
    pub eigenvectors: Matrix<T>,
}

/// Compute all eigenpairs of a Hermitian (symmetric) matrix.
///
/// Only requires `A` to be Hermitian up to roundoff; the strictly lower
/// triangle and the real parts of the diagonal are trusted.
pub fn eigh<T: Scalar>(a: &Matrix<T>) -> Result<Eigh<T>, LinalgError> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh: square matrix required");
    if n == 0 {
        return Ok(Eigh {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    let mut m = a.clone();
    m.symmetrize_hermitian();
    let mut v = Matrix::<T>::identity(n);

    let max_sweeps = 60;
    // Tolerance scaled to the matrix magnitude.
    let scale = m.norm_fro().max(1e-300);
    let tol = 1e-30_f64 * scale * scale; // on squared off-diagonal mass

    for sweep in 0..max_sweeps {
        // Off-diagonal squared Frobenius mass.
        let mut off = 0.0_f64;
        for j in 0..n {
            for i in 0..j {
                off += m[(i, j)].abs_sq().to_f64();
            }
        }
        if off <= tol {
            return Ok(sort_eig(m, v));
        }
        let _ = sweep;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let w = apq.abs().to_f64();
                // dftlint:allow(L004, reason="exact-zero rotation skip in Jacobi sweep: a zero off-diagonal needs no rotation")
                if w == 0.0 {
                    continue;
                }
                let app = m[(p, p)].re().to_f64();
                let aqq = m[(q, q)].re().to_f64();
                // Rotation angle: with t = tan(theta) the zeroing condition
                // for this rotation convention is t^2 - 2*theta*t - 1 = 0;
                // take the smaller-magnitude root for stability.
                let theta = (aqq - app) / (2.0 * w);
                let t = if theta >= 0.0 {
                    -1.0 / (theta + (theta * theta + 1.0).sqrt())
                } else {
                    1.0 / (-theta + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Phase of a_pq: a_pq = w * e^{i alpha}
                let phase = apq.scale(T::Re::from_f64(1.0 / w)); // e^{i alpha}
                let cs = T::from_f64(c);
                let s_ph = phase.scale(T::Re::from_f64(s)); // s * e^{i alpha}
                let s_ph_c = s_ph.conj(); // s * e^{-i alpha}

                // Right-multiply columns p,q of M and V by
                //   R = [[c, -s e^{i a}], [s e^{-i a}, c]].
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = mkp * cs + mkq * s_ph_c;
                    m[(k, q)] = mkq * cs - mkp * s_ph;
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = vkp * cs + vkq * s_ph_c;
                    v[(k, q)] = vkq * cs - vkp * s_ph;
                }
                // Left-multiply rows p,q of M by R^dagger.
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = mpk * cs + mqk * s_ph;
                    m[(q, k)] = mqk * cs - mpk * s_ph_c;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence(max_sweeps))
}

fn sort_eig<T: Scalar>(m: Matrix<T>, v: Matrix<T>) -> Eigh<T> {
    let n = m.nrows();
    let mut idx: Vec<usize> = (0..n).collect();
    let evals: Vec<f64> = (0..n).map(|i| m[(i, i)].re().to_f64()).collect();
    idx.sort_by(|&a, &b| evals[a].partial_cmp(&evals[b]).unwrap());
    let eigenvalues: Vec<f64> = idx.iter().map(|&i| evals[i]).collect();
    let eigenvectors = Matrix::from_fn(n, n, |i, j| v[(i, idx[j])]);
    Eigh {
        eigenvalues,
        eigenvectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::scalar::C64;

    #[test]
    fn diag_matrix_is_fixed_point() {
        let d = [3.0_f64, -1.0, 2.0];
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { d[i] } else { 0.0 });
        let e = eigh(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2_symmetric() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3
        let mut a = Matrix::<f64>::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 2.0;
        let e = eigh(&a).unwrap();
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_real() {
        let n = 14;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64 * 0.51).sin());
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        a.symmetrize_hermitian();
        let e = eigh(&a).unwrap();
        // A V = V D
        let av = matmul(&a, Op::None, &e.eigenvectors, Op::None);
        let vd = {
            let mut vd = e.eigenvectors.clone();
            for j in 0..n {
                let lam = e.eigenvalues[j];
                for x in vd.col_mut(j) {
                    *x *= lam;
                }
            }
            vd
        };
        assert!(av.max_abs_diff(&vd) < 1e-9);
        // V orthonormal
        let g = matmul(&e.eigenvectors, Op::ConjTrans, &e.eigenvectors, Op::None);
        assert!(g.max_abs_diff(&Matrix::identity(n)) < 1e-11);
    }

    #[test]
    fn reconstruction_complex_hermitian() {
        let n = 10;
        let b = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                ((i * 3 + j) as f64 * 0.7).sin(),
                ((i + 5 * j) as f64 * 0.3).cos(),
            )
        });
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        a.symmetrize_hermitian();
        let e = eigh(&a).unwrap();
        let av = matmul(&a, Op::None, &e.eigenvectors, Op::None);
        let mut vd = e.eigenvectors.clone();
        for j in 0..n {
            let lam = C64::from_f64(e.eigenvalues[j]);
            for x in vd.col_mut(j) {
                *x *= lam;
            }
        }
        assert!(av.max_abs_diff(&vd) < 1e-9);
        let g = matmul(&e.eigenvectors, Op::ConjTrans, &e.eigenvectors, Op::None);
        assert!(g.max_abs_diff(&Matrix::identity(n)) < 1e-11);
        // eigenvalues ascending
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn hermitian_eigenvalues_are_real_for_pauli_y() {
        // sigma_y = [[0, -i], [i, 0]] has eigenvalues +-1
        let mut a = Matrix::<C64>::zeros(2, 2);
        a[(0, 1)] = C64::new(0.0, -1.0);
        a[(1, 0)] = C64::new(0.0, 1.0);
        let e = eigh(&a).unwrap();
        assert!((e.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::<f64>::zeros(0, 0);
        let e = eigh(&a).unwrap();
        assert!(e.eigenvalues.is_empty());
    }
}

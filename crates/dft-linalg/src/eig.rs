//! Hermitian / symmetric dense eigensolver — the RR-D step of Algorithm 1.
//!
//! [`eigh`] takes the LAPACK `sytrd` + `steqr` route (Golub & Van Loan,
//! ch. 8) over the generic [`Scalar`] trait:
//!
//! 1. Householder reflectors, read from and written to the lower triangle,
//!    reduce `A` to tridiagonal form `A = Q T Q†`;
//! 2. one diagonal unitary `D` makes the off-diagonal of `T` real and
//!    non-negative (`D = ±I` on the real path), `T = D T_r D†`;
//! 3. implicit-shift QL ([`tridiagonal_ql`]) diagonalizes `T_r = Z Λ Zᵀ`,
//!    rotating the columns of a column-major `Z`, so every Givens rotation
//!    touches two contiguous columns;
//! 4. the eigenvectors are `V = Q (D Z)`: one `n x n x n` [`gemm`].
//!
//! The Lanczos bounds hand their tridiagonal straight to step 3 without
//! eigenvectors. A cyclic Jacobi solver, which shares no code with this
//! route, is the test oracle (`tests/eig_oracle.rs`).

use crate::blas1::dot;
use crate::chol::LinalgError;
use crate::gemm::{gemm, Op};
use crate::matrix::Matrix;
use crate::scalar::{Real, Scalar};

/// QL iterations allowed per eigenvalue; a non-finite input reports the
/// same budget without iterating.
const MAX_QL_ITER: usize = 60;

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
/// Only the strictly lower triangle and the real parts of the diagonal are
/// read; the strict upper triangle may hold anything. A non-finite entry
/// there returns [`LinalgError::NoConvergence`] before any work is done.
pub fn eigh<T: Scalar>(a: &Matrix<T>) -> Result<Eigh<T>, LinalgError> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh: square matrix required");
    let finite = |x: T| x.re().to_f64().is_finite() && x.im().to_f64().is_finite();
    let lower_finite = (0..n).all(|j| {
        a[(j, j)].re().to_f64().is_finite() && a.col(j)[j + 1..].iter().all(|&x| finite(x))
    });
    if !lower_finite {
        return Err(LinalgError::NoConvergence(MAX_QL_ITER));
    }
    let mut w = a.clone();
    let mut d = vec![0.0; n];
    let mut off = vec![T::ZERO; n];
    let mut tau = vec![0.0; n];
    tridiagonalize(&mut w, &mut d, &mut off, &mut tau);

    // D† T D real: e_k = |c_k| with delta_{k+1} = delta_k c_k / |c_k|
    let mut e = vec![0.0; n];
    let mut delta = vec![T::ONE; n];
    for k in 0..n.saturating_sub(1) {
        e[k] = off[k].abs().to_f64();
        delta[k + 1] = if e[k] > 0.0 {
            delta[k] * (off[k] / T::from_f64(e[k]))
        } else {
            delta[k]
        };
    }
    let dz = {
        let mut z = Matrix::<f64>::identity(n);
        tridiagonal_ql(&mut d, &mut e, Some(&mut z))?;
        Matrix::from_fn(n, n, |k, j| delta[k].scale(T::Re::from_f64(z[(k, j)])))
    };
    // at most three n x n buffers live at once: the reflectors go with Q
    let q = householder_q(w, &tau);
    let mut v = Matrix::<T>::zeros(n, n);
    gemm(T::ONE, &q, Op::None, &dz, Op::None, T::ZERO, &mut v);
    Ok(Eigh {
        eigenvalues: d,
        eigenvectors: v,
    })
}

/// Householder reduction of the lower triangle of `w` to tridiagonal form:
/// `d` gets the real diagonal, `off[i]` the (complex) entry `T[i+1, i]`.
/// Reflector `H_i = I - tau[i] v v†` acts on indices `i+1..n`; its `v` is
/// left in column `i` of `w`, rows `i+1..n` (`tau[i] = 0`: no reflector).
fn tridiagonalize<T: Scalar>(w: &mut Matrix<T>, d: &mut [f64], off: &mut [T], tau: &mut [f64]) {
    let n = w.nrows();
    let mut p = vec![T::ZERO; n];
    for i in 0..n {
        d[i] = w[(i, i)].re().to_f64();
        if i + 1 == n {
            break;
        }
        let m = n - i - 1;
        let (head, tail) = w.as_mut_slice().split_at_mut((i + 1) * n);
        let v = &mut head[i * n + i + 1..];
        let alpha = v[0];
        let xnorm2: f64 = v[1..].iter().map(|x| x.abs_sq().to_f64()).sum();
        // dftlint:allow(L004, reason="an exactly zero column below the subdiagonal needs no reflector, so a tridiagonal input passes through bit for bit")
        if xnorm2 == 0.0 {
            off[i] = alpha;
            continue;
        }
        let a_abs = alpha.abs().to_f64();
        let norm = (a_abs * a_abs + xnorm2).sqrt();
        let phase = if a_abs > 0.0 {
            alpha.scale(T::Re::from_f64(1.0 / a_abs))
        } else {
            T::ONE
        };
        // H x = beta e_1 with beta = -phase ||x||; v = x - beta e_1
        off[i] = -phase.scale(T::Re::from_f64(norm));
        v[0] = alpha + phase.scale(T::Re::from_f64(norm));
        let t = 1.0 / (norm * (norm + a_abs));
        tau[i] = t;

        // p = tau A22 v from the lower triangle of A22 (rows/cols i+1..n)
        let p = &mut p[..m];
        p.fill(T::ZERO);
        for jj in 0..m {
            let col = &tail[jj * n + i + 1..jj * n + n];
            let vj = v[jj];
            for (pr, &ar) in p[jj + 1..].iter_mut().zip(&col[jj + 1..]) {
                *pr += ar * vj;
            }
            p[jj] += vj.scale(col[jj].re()) + dot(&col[jj + 1..], &v[jj + 1..]);
        }
        let tr = T::Re::from_f64(t);
        let mut vp = 0.0;
        for (pr, &vr) in p.iter_mut().zip(v.iter()) {
            *pr = pr.scale(tr);
            vp += (vr.conj() * *pr).re().to_f64();
        }
        // w = p - (tau/2)(v† p) v, then A22 -= v w† + w v† (lower triangle)
        let k = T::Re::from_f64(0.5 * t * vp);
        for (pr, &vr) in p.iter_mut().zip(v.iter()) {
            *pr -= vr.scale(k);
        }
        for jj in 0..m {
            let col = &mut tail[jj * n + i + 1..jj * n + n];
            let (vj, wj) = (v[jj].conj(), p[jj].conj());
            for ((ar, &vr), &wr) in col[jj..].iter_mut().zip(&v[jj..]).zip(&p[jj..]) {
                *ar -= vr * wj + wr * vj;
            }
        }
    }
}

/// `Q = H_0 H_1 ... H_{n-2}` from the reflectors [`tridiagonalize`] left
/// in `w`, accumulated backward so each reflector touches only the
/// trailing block it acts on.
fn householder_q<T: Scalar>(w: Matrix<T>, tau: &[f64]) -> Matrix<T> {
    let n = w.nrows();
    let mut q = Matrix::<T>::identity(n);
    for i in (0..n.saturating_sub(1)).rev() {
        if tau[i] <= 0.0 {
            continue;
        }
        let v = &w.col(i)[i + 1..];
        let t = T::Re::from_f64(tau[i]);
        for j in i + 1..n {
            let qj = &mut q.col_mut(j)[i + 1..];
            let s = dot(v, qj).scale(t);
            for (qr, &vr) in qj.iter_mut().zip(v) {
                *qr -= vr * s;
            }
        }
    }
    q
}

/// `sqrt(a^2 + b^2)`: the plain formula where the squares can neither
/// overflow nor underflow, `f64::hypot` (several times slower) elsewhere.
#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    let m = a.abs().max(b.abs());
    if m > 1e-150 && m < 1e150 {
        (a * a + b * b).sqrt()
    } else {
        a.hypot(b)
    }
}

/// Implicit-shift QL on the real symmetric tridiagonal matrix with diagonal
/// `d` and off-diagonal `e[..n-1]` (`e[i]` couples `i` and `i + 1`; `e` has
/// the length of `d` and its last entry is scratch). On return `d` holds
/// the eigenvalues in ascending order and `e` is overwritten.
///
/// With `z` (`n x n`, column-major), every plane rotation of the iteration
/// is applied to columns `i, i + 1` of `z` — two contiguous slices — and
/// the columns are permuted with the sort: started from the identity, `z`
/// returns the eigenvectors. Without it only the eigenvalues are computed,
/// bit-identical to the ones the vector run returns.
///
/// A non-finite entry, or an eigenvalue still unconverged after
/// 60 iterations, returns [`LinalgError::NoConvergence`].
pub fn tridiagonal_ql(
    d: &mut [f64],
    e: &mut [f64],
    mut z: Option<&mut Matrix<f64>>,
) -> Result<(), LinalgError> {
    let n = d.len();
    assert_eq!(e.len(), n, "tridiagonal_ql: e must have the length of d");
    if let Some(z) = z.as_deref() {
        assert_eq!(z.nrows(), n, "tridiagonal_ql: z must have n rows");
        assert_eq!(z.ncols(), n, "tridiagonal_ql: z must be square");
    }
    if n == 0 {
        return Ok(());
    }
    if !d.iter().chain(&e[..n - 1]).all(|x| x.is_finite()) {
        return Err(LinalgError::NoConvergence(MAX_QL_ITER));
    }
    for l in 0..n {
        let mut iter = 0;
        loop {
            // first negligible off-diagonal at or below row l
            let mut m = l;
            while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                m += 1;
            }
            if m == l {
                break;
            }
            if iter == MAX_QL_ITER {
                return Err(LinalgError::NoConvergence(MAX_QL_ITER));
            }
            iter += 1;
            // Wilkinson-type shift from the leading 2 x 2 block
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut split = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                // dftlint:allow(L004, reason="QL underflow recovery: an exactly zero rotation radius splits the matrix here")
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    split = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = z.as_deref_mut() {
                    let (zi, zi1) = z.as_mut_slice()[i * n..(i + 2) * n].split_at_mut(n);
                    for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                        let f = *b;
                        *b = s * *a + c * f;
                        *a = c * *a - s * f;
                    }
                }
            }
            if split {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let sorted: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    d.copy_from_slice(&sorted);
    if let Some(z) = z {
        let zs = Matrix::from_fn(n, n, |r, j| z[(r, idx[j])]);
        *z = zs;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
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

    #[test]
    fn non_finite_trusted_entry_fails_before_iterating() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(2, 1), (3, 3)] {
                let mut a = Matrix::<f64>::identity(4);
                a[(i, j)] = bad;
                assert_eq!(eigh(&a).err(), Some(LinalgError::NoConvergence(60)));
                for x in [C64::new(bad, 0.0), C64::new(1.0, bad)] {
                    let mut c = Matrix::<C64>::identity(4);
                    c[(i, j)] = x;
                    let e = eigh(&c);
                    if i == j && x.re.is_finite() {
                        // the imaginary part of the diagonal is not read
                        assert_eq!(e.unwrap().eigenvalues, vec![1.0; 4]);
                    } else {
                        assert_eq!(e.err(), Some(LinalgError::NoConvergence(60)));
                    }
                }
            }
        }
    }

    #[test]
    fn eigenvalue_only_ql_matches_the_vector_run_bit_for_bit() {
        let n = 30;
        let d0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let e0: Vec<f64> = (0..n).map(|i| 0.3 + (i as f64 * 1.3).cos().abs()).collect();
        let (mut d1, mut e1) = (d0.clone(), e0.clone());
        tridiagonal_ql(&mut d1, &mut e1, None).unwrap();
        let (mut d2, mut e2) = (d0.clone(), e0.clone());
        let mut z = Matrix::<f64>::identity(n);
        tridiagonal_ql(&mut d2, &mut e2, Some(&mut z)).unwrap();
        let tri = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => d0[i],
            1 => e0[i.min(j)],
            _ => 0.0,
        });
        let dense = eigh(&tri).unwrap();
        for k in 0..n {
            assert_eq!(d1[k].to_bits(), d2[k].to_bits());
            assert_eq!(d1[k].to_bits(), dense.eigenvalues[k].to_bits());
        }
        assert_eq!(z.as_slice(), dense.eigenvectors.as_slice());
    }

    fn nan_upper_is_ignored<T: Scalar>(a: &Matrix<T>) {
        let n = a.nrows();
        let clean = eigh(a).unwrap();
        let mut dirty = a.clone();
        for j in 0..n {
            for i in 0..j {
                dirty[(i, j)] = T::from_f64(f64::NAN);
            }
        }
        let e = eigh(&dirty).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&e.eigenvalues), bits(&clean.eigenvalues));
        for (x, y) in e
            .eigenvectors
            .as_slice()
            .iter()
            .zip(clean.eigenvectors.as_slice())
        {
            assert_eq!(x.re().to_f64().to_bits(), y.re().to_f64().to_bits());
            assert_eq!(x.im().to_f64().to_bits(), y.im().to_f64().to_bits());
        }
    }

    #[test]
    fn strict_upper_triangle_is_never_read() {
        let b = Matrix::from_fn(14, 14, |i, j| ((i * 7 + j * 3) as f64 * 0.51).sin());
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        a.symmetrize_hermitian();
        nan_upper_is_ignored(&a);
        let b = Matrix::from_fn(10, 10, |i, j| {
            C64::new(
                ((i * 3 + j) as f64 * 0.7).sin(),
                ((i + 5 * j) as f64 * 0.3).cos(),
            )
        });
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        a.symmetrize_hermitian();
        nan_upper_is_ignored(&a);
    }
}

//! `eigh` (Householder tridiagonalization + implicit QL) against a cyclic
//! Jacobi oracle, on the real-symmetric and the complex-Hermitian path.
//!
//! Jacobi computes every eigenvalue to high relative accuracy by rotations
//! that never leave the full matrix, so it shares no code and no failure
//! mode with the reduce-then-iterate route. Every case checks, with
//! `‖A‖ = ‖A‖_F`:
//!
//! * eigenvalues within `1e-12 ‖A‖` of Jacobi's;
//! * `max |V†V - I| <= 1e-12`;
//! * `max |AV - VΛ| <= 1e-12 ‖A‖`.
//!
//! The spectra cover random, clustered (gaps of `1e-10 ‖A‖`), exactly
//! degenerate, zero, diagonal and already-tridiagonal matrices at
//! `N ∈ {1, 2, 3, 24, 32, 96, 200}`.

use dft_linalg::eig::eigh;
use dft_linalg::gemm::{matmul, Op};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 7] = [1, 2, 3, 24, 32, 96, 200];
const TOL: f64 = 1e-12;

/// The two scalar paths of `eigh`, with a constructor from real and
/// imaginary parts (the imaginary part is dropped on the real path).
trait Field: Scalar<Re = f64> {
    fn new(re: f64, im: f64) -> Self;
}

impl Field for f64 {
    fn new(re: f64, _im: f64) -> Self {
        re
    }
}

impl Field for C64 {
    fn new(re: f64, im: f64) -> Self {
        C64::new(re, im)
    }
}

/// Cyclic Jacobi: sweeps of complex Hermitian rotations (the classical real
/// rotation for real scalars) until the off-diagonal mass is below
/// `1e-30 ‖A‖²`; eigenvalues ascending, eigenvectors as columns.
fn jacobi<T: Scalar>(a: &Matrix<T>) -> (Vec<f64>, Matrix<T>) {
    let n = a.nrows();
    let mut m = a.clone();
    m.symmetrize_hermitian();
    let mut v = Matrix::<T>::identity(n);
    let scale = m.norm_fro().max(1e-300);
    let tol = 1e-30_f64 * scale * scale;
    for _sweep in 0..60 {
        let mut off = 0.0_f64;
        for j in 0..n {
            for i in 0..j {
                off += m[(i, j)].abs_sq().to_f64();
            }
        }
        if off <= tol {
            let mut idx: Vec<usize> = (0..n).collect();
            let evals: Vec<f64> = (0..n).map(|i| m[(i, i)].re().to_f64()).collect();
            idx.sort_by(|&a, &b| evals[a].total_cmp(&evals[b]));
            let vals = idx.iter().map(|&i| evals[i]).collect();
            return (vals, Matrix::from_fn(n, n, |i, j| v[(i, idx[j])]));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let w = apq.abs().to_f64();
                if w < f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[(p, p)].re().to_f64();
                let aqq = m[(q, q)].re().to_f64();
                // t = tan(theta) solves t^2 - 2 theta t - 1 = 0; the
                // smaller-magnitude root is the stable one
                let theta = (aqq - app) / (2.0 * w);
                let t = if theta >= 0.0 {
                    -1.0 / (theta + (theta * theta + 1.0).sqrt())
                } else {
                    1.0 / (-theta + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                let phase = apq.scale(T::Re::from_f64(1.0 / w));
                let cs = T::from_f64(c);
                let s_ph = phase.scale(T::Re::from_f64(s));
                let s_ph_c = s_ph.conj();
                // columns p, q of M and V times R = [[c, -s e^ia], [s e^-ia, c]]
                for k in 0..n {
                    let (mkp, mkq) = (m[(k, p)], m[(k, q)]);
                    m[(k, p)] = mkp * cs + mkq * s_ph_c;
                    m[(k, q)] = mkq * cs - mkp * s_ph;
                    let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                    v[(k, p)] = vkp * cs + vkq * s_ph_c;
                    v[(k, q)] = vkq * cs - vkp * s_ph;
                }
                // rows p, q of M times R†
                for k in 0..n {
                    let (mpk, mqk) = (m[(p, k)], m[(q, k)]);
                    m[(p, k)] = mpk * cs + mqk * s_ph;
                    m[(q, k)] = mqk * cs - mpk * s_ph_c;
                }
            }
        }
    }
    panic!("Jacobi oracle did not converge in 60 sweeps");
}

/// Entries with real and imaginary parts uniform in `[-0.5, 0.5)`.
fn random_matrix<T: Field>(n: usize, rng: &mut StdRng) -> Matrix<T> {
    Matrix::from_fn(n, n, |_, _| {
        T::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
    })
}

fn random_hermitian<T: Field>(n: usize, rng: &mut StdRng) -> Matrix<T> {
    let b = random_matrix::<T>(n, rng);
    let mut a = b.clone();
    a.axpy_inplace(T::ONE, &b.adjoint());
    a
}

/// A random unitary: modified Gram-Schmidt, run twice, on a random matrix.
fn random_unitary<T: Field>(n: usize, rng: &mut StdRng) -> Matrix<T> {
    let mut u = random_matrix::<T>(n, rng);
    for _pass in 0..2 {
        for j in 0..n {
            for k in 0..j {
                let (head, tail) = u.as_mut_slice().split_at_mut(j * n);
                let uk = &head[k * n..(k + 1) * n];
                let uj = &mut tail[..n];
                let proj: T = uk.iter().zip(uj.iter()).map(|(&x, &y)| x.conj() * y).sum();
                for (y, &x) in uj.iter_mut().zip(uk) {
                    *y -= x * proj;
                }
            }
            let nrm = u.col(j).iter().map(|x| x.abs_sq()).sum::<f64>().sqrt();
            for x in u.col_mut(j) {
                *x = x.scale(1.0 / nrm);
            }
        }
    }
    u
}

/// `U diag(lambda) U†` for a random unitary `U`, made exactly Hermitian.
fn with_spectrum<T: Field>(lambda: &[f64], rng: &mut StdRng) -> Matrix<T> {
    let n = lambda.len();
    let u = random_unitary::<T>(n, rng);
    let ul = Matrix::from_fn(n, n, |i, j| u[(i, j)].scale(lambda[j]));
    let mut a = matmul(&ul, Op::None, &u, Op::ConjTrans);
    a.symmetrize_hermitian();
    a
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Random,
    Clustered,
    Degenerate,
    Zero,
    Diagonal,
    Tridiagonal,
}

fn build<T: Field>(kind: Kind, n: usize, rng: &mut StdRng) -> Matrix<T> {
    match kind {
        Kind::Random => random_hermitian(n, rng),
        // groups of four eigenvalues, 1e-10 ‖A‖ apart inside a group
        Kind::Clustered => {
            let level = |k: usize| (k / 4) as f64 - (n / 8) as f64;
            let norm = (0..n).map(|k| level(k) * level(k)).sum::<f64>().sqrt();
            let lambda: Vec<f64> = (0..n)
                .map(|k| level(k) + (k % 4) as f64 * 1e-10 * norm)
                .collect();
            with_spectrum(&lambda, rng)
        }
        Kind::Degenerate => {
            let levels = [-1.5, 0.25, 2.0];
            let lambda: Vec<f64> = (0..n).map(|k| levels[k % 3]).collect();
            with_spectrum(&lambda, rng)
        }
        Kind::Zero => Matrix::zeros(n, n),
        Kind::Diagonal => {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                a[(i, i)] = T::new(rng.gen::<f64>() - 0.5, 0.0);
            }
            a
        }
        Kind::Tridiagonal => {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                a[(i, i)] = T::new(rng.gen::<f64>() - 0.5, 0.0);
                if i + 1 < n {
                    let x = T::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                    a[(i + 1, i)] = x;
                    a[(i, i + 1)] = x.conj();
                }
            }
            a
        }
    }
}

fn check<T: Field>(kind: Kind, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for n in SIZES {
        let a = build::<T>(kind, n, &mut rng);
        let norm = a.norm_fro();
        let e = eigh(&a).unwrap_or_else(|err| panic!("{kind:?} n={n}: {err}"));
        let (oracle, _) = jacobi(&a);
        let dev = e
            .eigenvalues
            .iter()
            .zip(&oracle)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(
            dev <= TOL * norm,
            "{kind:?} n={n}: eigenvalues {dev:e} off Jacobi (‖A‖ {norm:e})"
        );
        let v = &e.eigenvectors;
        let gram = matmul(v, Op::ConjTrans, v, Op::None);
        let orth = gram.max_abs_diff(&Matrix::identity(n));
        assert!(orth <= TOL, "{kind:?} n={n}: max |V†V - I| = {orth:e}");
        let av = matmul(&a, Op::None, v, Op::None);
        let vl = Matrix::from_fn(n, n, |i, j| v[(i, j)].scale(e.eigenvalues[j]));
        let res = av.max_abs_diff(&vl);
        assert!(
            res <= TOL * norm,
            "{kind:?} n={n}: max |AV - VΛ| = {res:e} (‖A‖ {norm:e})"
        );
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] <= w[1], "{kind:?} n={n}: eigenvalues not ascending");
        }
    }
}

#[test]
fn random_spectra_match_jacobi() {
    check::<f64>(Kind::Random, 1);
    check::<C64>(Kind::Random, 2);
}

#[test]
fn clustered_spectra_match_jacobi() {
    check::<f64>(Kind::Clustered, 3);
    check::<C64>(Kind::Clustered, 4);
}

#[test]
fn degenerate_spectra_match_jacobi() {
    check::<f64>(Kind::Degenerate, 5);
    check::<C64>(Kind::Degenerate, 6);
}

#[test]
fn zero_matrices_match_jacobi() {
    check::<f64>(Kind::Zero, 7);
    check::<C64>(Kind::Zero, 8);
}

#[test]
fn diagonal_matrices_match_jacobi() {
    check::<f64>(Kind::Diagonal, 9);
    check::<C64>(Kind::Diagonal, 10);
}

#[test]
fn tridiagonal_matrices_match_jacobi() {
    check::<f64>(Kind::Tridiagonal, 11);
    check::<C64>(Kind::Tridiagonal, 12);
}

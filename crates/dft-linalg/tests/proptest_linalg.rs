//! Property-based tests for the dense linear algebra invariants.

use dft_linalg::gemm::{gemm, matmul};
use dft_linalg::iterative::{DenseOperator, IdentityPrec};
use dft_linalg::{
    batched_gemm, cg, cholesky, dot, eigh, minres, nrm2, tri_inv_lower, BatchLayout, Matrix, Op,
    C64,
};
use proptest::prelude::*;

fn mat_strategy(m: usize, n: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-2.0..2.0f64, m * n).prop_map(move |v| Matrix::from_vec(m, n, v))
}

fn cmat_strategy(m: usize, n: usize) -> impl Strategy<Value = Matrix<C64>> {
    proptest::collection::vec((-2.0..2.0f64, -2.0..2.0f64), m * n).prop_map(move |v| {
        Matrix::from_vec(m, n, v.into_iter().map(|(r, i)| C64::new(r, i)).collect())
    })
}

/// A square complex matrix of random order `1..=max_n` (the leading block
/// of a `max_n x max_n` draw).
fn square_cmat_strategy(max_n: usize) -> impl Strategy<Value = Matrix<C64>> {
    (1..=max_n, cmat_strategy(max_n, max_n))
        .prop_map(|(n, big)| Matrix::from_fn(n, n, |i, j| big[(i, j)]))
}

fn hpd(m: &Matrix<C64>) -> Matrix<C64> {
    let n = m.nrows();
    let mut a = matmul(m, Op::ConjTrans, m, Op::None);
    for i in 0..n {
        a[(i, i)] += C64::new(n as f64, 0.0);
    }
    a.symmetrize_hermitian();
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_is_linear_in_first_argument(a in mat_strategy(6, 4), b in mat_strategy(6, 4), x in mat_strategy(4, 3)) {
        // (A + B) X == A X + B X
        let mut apb = a.clone();
        apb.axpy_inplace(1.0, &b);
        let lhs = matmul(&apb, Op::None, &x, Op::None);
        let mut rhs = matmul(&a, Op::None, &x, Op::None);
        rhs.axpy_inplace(1.0, &matmul(&b, Op::None, &x, Op::None));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn gemm_adjoint_transpose_identity(a in cmat_strategy(5, 3), b in cmat_strategy(5, 4)) {
        // (A^H B)^H == B^H A
        let ahb = matmul(&a, Op::ConjTrans, &b, Op::None);
        let bha = matmul(&b, Op::ConjTrans, &a, Op::None);
        prop_assert!(ahb.adjoint().max_abs_diff(&bha) < 1e-10);
    }

    #[test]
    fn dot_cauchy_schwarz(x in proptest::collection::vec(-3.0..3.0f64, 12), y in proptest::collection::vec(-3.0..3.0f64, 12)) {
        let d = dot(&x, &y).abs();
        prop_assert!(d <= nrm2(&x) * nrm2(&y) + 1e-9);
    }

    #[test]
    fn cholesky_reconstructs(b in cmat_strategy(6, 6)) {
        let a = hpd(&b);
        let l = cholesky(&a).unwrap();
        let rec = matmul(&l, Op::None, &l, Op::ConjTrans);
        prop_assert!(rec.max_abs_diff(&a) < 1e-8);
        let li = tri_inv_lower(&l);
        let eye = matmul(&li, Op::None, &l, Op::None);
        prop_assert!(eye.max_abs_diff(&Matrix::identity(6)) < 1e-8);
    }

    #[test]
    fn eigh_trace_and_orthogonality(b in square_cmat_strategy(40)) {
        let n = b.nrows();
        let a = hpd(&b);
        let e = eigh(&a).unwrap();
        // trace preserved
        let tr: f64 = (0..n).map(|i| a[(i, i)].re).sum();
        let s: f64 = e.eigenvalues.iter().sum();
        prop_assert!((tr - s).abs() < 1e-8 * tr.abs().max(1.0));
        // orthonormal eigenvectors
        let g = matmul(&e.eigenvectors, Op::ConjTrans, &e.eigenvectors, Op::None);
        prop_assert!(g.max_abs_diff(&Matrix::identity(n)) < 1e-9);
        // HPD => positive eigenvalues
        prop_assert!(e.eigenvalues.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn cg_solution_satisfies_system(b in mat_strategy(8, 8), rhs in proptest::collection::vec(-1.0..1.0f64, 8)) {
        let n = 8;
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        for i in 0..n { a[(i, i)] += n as f64; }
        let op = DenseOperator::new(a.clone());
        let mut x = vec![0.0; n];
        let st = cg(&op, &IdentityPrec, &rhs, &mut x, 1e-12, 500);
        prop_assert!(st.converged);
        let ax = matmul(&a, Op::None, &Matrix::from_vec(n, 1, x), Op::None);
        let mut r = Matrix::from_vec(n, 1, rhs);
        r.axpy_inplace(-1.0, &ax);
        prop_assert!(r.norm_fro() < 1e-8);
    }

    #[test]
    fn minres_matches_cg_on_spd(b in mat_strategy(7, 7), rhs in proptest::collection::vec(-1.0..1.0f64, 7)) {
        let n = 7;
        let mut a = matmul(&b, Op::ConjTrans, &b, Op::None);
        for i in 0..n { a[(i, i)] += n as f64; }
        let op = DenseOperator::new(a.clone());
        let mut x_cg = vec![0.0; n];
        cg(&op, &IdentityPrec, &rhs, &mut x_cg, 1e-13, 1000);
        let mut x_mr = vec![0.0; n];
        let st = minres(&op, &IdentityPrec, 0.0, &rhs, &mut x_mr, 1e-13, 1000);
        prop_assert!(st.converged);
        for i in 0..n {
            prop_assert!((x_cg[i] - x_mr[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn batched_gemm_matches_loop_of_gemm(
        a in proptest::collection::vec(-1.0..1.0f64, 4 * 3 * 5),
        bb in proptest::collection::vec(-1.0..1.0f64, 3 * 2 * 5),
    ) {
        let layout = BatchLayout::packed(4, 2, 3, 5);
        let mut c = vec![0.0f64; 4 * 2 * 5];
        batched_gemm(layout, 1.0, &a, &bb, 0.0, &mut c);
        for i in 0..5 {
            let ai = Matrix::from_vec(4, 3, a[i * 12..(i + 1) * 12].to_vec());
            let bi = Matrix::from_vec(3, 2, bb[i * 6..(i + 1) * 6].to_vec());
            let mut ci = Matrix::zeros(4, 2);
            gemm(1.0, &ai, Op::None, &bi, Op::None, 0.0, &mut ci);
            let got = Matrix::from_vec(4, 2, c[i * 8..(i + 1) * 8].to_vec());
            prop_assert!(got.max_abs_diff(&ci) < 1e-12);
        }
    }
}

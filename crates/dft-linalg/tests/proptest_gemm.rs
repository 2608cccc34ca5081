//! Property-based correctness of the blocked packed-panel GEMM engine:
//! `gemm` against an independent naive triple-loop oracle, over all four
//! `Op` combinations, degenerate shapes, and sparse-ish inputs full of exact
//! zeros (the seed's `gemm` skipped exact-zero `alpha * b` weights).

use dft_linalg::gemm::{gemm, Op};
use dft_linalg::{Matrix, Scalar, C64};
use proptest::prelude::*;

/// Independent oracle: `C = alpha * op(A) * op(B) + beta * C` by the
/// definition, one dot product per output element.
fn naive_gemm<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    op_a: Op,
    b: &Matrix<T>,
    op_b: Op,
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = match op_a {
        Op::None => a.ncols(),
        Op::ConjTrans => a.nrows(),
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for l in 0..k {
                let av = match op_a {
                    Op::None => a[(i, l)],
                    Op::ConjTrans => a[(l, i)].conj(),
                };
                let bv = match op_b {
                    Op::None => b[(l, j)],
                    Op::ConjTrans => b[(j, l)].conj(),
                };
                acc += av * bv;
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

fn mat(m: usize, n: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-2.0..2.0f64, m * n).prop_map(move |v| Matrix::from_vec(m, n, v))
}

/// Sparse-ish matrix: each entry is exactly zero with probability ~1/2.
fn sparse_mat(m: usize, n: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec((0usize..2, -2.0..2.0f64), m * n).prop_map(move |v| {
        Matrix::from_vec(
            m,
            n,
            v.into_iter()
                .map(|(z, x)| if z == 0 { 0.0 } else { x })
                .collect(),
        )
    })
}

/// `0.0`, `1.0`, or a free value — the interesting beta/alpha cases.
fn coeff() -> impl Strategy<Value = f64> {
    (0usize..3, -2.0..2.0f64).prop_map(|(s, v)| match s {
        0 => 0.0,
        1 => 1.0,
        _ => v,
    })
}

fn cmat(m: usize, n: usize) -> impl Strategy<Value = Matrix<C64>> {
    proptest::collection::vec((-2.0..2.0f64, -2.0..2.0f64), m * n).prop_map(move |v| {
        Matrix::from_vec(m, n, v.into_iter().map(|(r, i)| C64::new(r, i)).collect())
    })
}

const OP_COMBOS: [(Op, Op); 4] = [
    (Op::None, Op::None),
    (Op::None, Op::ConjTrans),
    (Op::ConjTrans, Op::None),
    (Op::ConjTrans, Op::ConjTrans),
];

fn op_strategy() -> impl Strategy<Value = (Op, Op)> {
    (0usize..4).prop_map(|i| OP_COMBOS[i])
}

fn shaped<T: Scalar>(op: Op, rows: usize, cols: usize, src: &Matrix<T>) -> Matrix<T> {
    // `src` is generated at the max dimension; carve the needed shape.
    let (r, c) = match op {
        Op::None => (rows, cols),
        Op::ConjTrans => (cols, rows),
    };
    Matrix::from_fn(r, c, |i, j| src[(i, j)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_matches_naive_all_ops_f64(
        (op_a, op_b) in op_strategy(),
        m in 1usize..24, n in 1usize..24, k in 1usize..24,
        src_a in mat(24, 24), src_b in mat(24, 24), c0 in mat(24, 24),
        alpha in -2.0..2.0f64, beta in coeff(),
    ) {
        let a = shaped(op_a, m, k, &src_a);
        let b = shaped(op_b, k, n, &src_b);
        let mut c = Matrix::from_fn(m, n, |i, j| c0[(i, j)]);
        let mut expect = c.clone();
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut c);
        naive_gemm(alpha, &a, op_a, &b, op_b, beta, &mut expect);
        prop_assert!(c.max_abs_diff(&expect) < 1e-12, "diff {}", c.max_abs_diff(&expect));
    }

    #[test]
    fn blocked_gemm_matches_naive_all_ops_c64(
        (op_a, op_b) in op_strategy(),
        m in 1usize..12, n in 1usize..12, k in 1usize..12,
        src_a in cmat(12, 12), src_b in cmat(12, 12), c0 in cmat(12, 12),
        (ar, ai) in (-2.0..2.0f64, -2.0..2.0f64),
    ) {
        let alpha = C64::new(ar, ai);
        let a = shaped(op_a, m, k, &src_a);
        let b = shaped(op_b, k, n, &src_b);
        let mut c = Matrix::from_fn(m, n, |i, j| c0[(i, j)]);
        let mut expect = c.clone();
        gemm(alpha, &a, op_a, &b, op_b, C64::ONE, &mut c);
        naive_gemm(alpha, &a, op_a, &b, op_b, C64::ONE, &mut expect);
        prop_assert!(c.max_abs_diff(&expect) < 1e-12, "diff {}", c.max_abs_diff(&expect));
    }

    #[test]
    fn degenerate_shapes_match_naive(
        (op_a, op_b) in op_strategy(),
        src_a in mat(8, 8), src_b in mat(8, 8), c0 in mat(8, 8),
        shape_idx in 0usize..5,
        beta in (0usize..2).prop_map(|s| s as f64),
    ) {
        // m = 0; k = 0 (C = beta * C only); n = 1 (single-column corner
        // tile); scalar; fully empty.
        let (m, n, k) =
            [(0usize, 3usize, 4usize), (3, 4, 0), (5, 1, 7), (1, 1, 1), (0, 0, 0)][shape_idx];
        let a = shaped(op_a, m, k, &src_a);
        let b = shaped(op_b, k, n, &src_b);
        let mut c = Matrix::from_fn(m, n, |i, j| c0[(i, j)]);
        let mut expect = c.clone();
        gemm(2.0, &a, op_a, &b, op_b, beta, &mut c);
        naive_gemm(2.0, &a, op_a, &b, op_b, beta, &mut expect);
        prop_assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    /// The seed `gemm` short-circuited exact-zero `alpha * b` weights; the
    /// packed engine treats zeros like any other value. On inputs riddled
    /// with exact zeros it must match the oracle, and an entry whose every
    /// term is an exact zero (or whose `alpha` is zero) must come out
    /// exactly zero.
    #[test]
    fn gemm_matches_naive_on_sparse_inputs(
        m in 1usize..12, n in 1usize..12, k in 1usize..12,
        a in sparse_mat(12, 12), b in sparse_mat(12, 12),
        alpha in coeff(),
    ) {
        let am = Matrix::from_fn(m, k, |i, j| a[(i, j)]);
        let bm = Matrix::from_fn(k, n, |i, j| b[(i, j)]);
        let mut c_gemm = Matrix::zeros(m, n);
        gemm(alpha, &am, Op::None, &bm, Op::None, 0.0, &mut c_gemm);
        let mut c_naive = Matrix::zeros(m, n);
        naive_gemm(alpha, &am, Op::None, &bm, Op::None, 0.0, &mut c_naive);
        prop_assert!(c_gemm.max_abs_diff(&c_naive) < 1e-12);
        for j in 0..n {
            for i in 0..m {
                let zero_terms = (0..k).all(|l| am[(i, l)] == 0.0 || bm[(l, j)] == 0.0);
                if alpha == 0.0 || zero_terms {
                    prop_assert_eq!(c_gemm[(i, j)], 0.0);
                }
            }
        }
    }
}

//! The GEMM engine's thread split and triangle shapes, bit for bit.
//!
//! * `gemm` under thread caps 1 to 4 gives the same bits: the split only
//!   cuts `C` into row blocks or column ranges, and every piece runs the
//!   same `KC` slabs.
//! * A [`Shape::LowerC`] Hermitian product, mirrored by
//!   `hermitian_from_lower`, is the symmetrized full `A†A` — also as a
//!   column window of it.
//! * A [`Shape::UpperB`] product is the full product with `B`'s explicit
//!   zeros — also for a column window of the triangular factor.
//!
//! Shapes have `k > KC`, `N` not a multiple of any `MR` or `NR`, and
//! `N = 1`; products reach [`SPLIT_MACS`] so the split engages under caps
//! above one. Real and complex, all four `Op` pairs.

use dft_linalg::gemm::{gemm, gemm_shaped, Op, Shape, SPLIT_MACS};
use dft_linalg::matrix::Matrix;
use dft_linalg::pack::KC;
use dft_linalg::scalar::{Real, Scalar, C64};

const OPS: [(Op, Op); 4] = [
    (Op::None, Op::None),
    (Op::ConjTrans, Op::None),
    (Op::None, Op::ConjTrans),
    (Op::ConjTrans, Op::ConjTrans),
];

/// A deterministic entry from two reals (the second is the imaginary part
/// of a complex one).
trait Entry: Scalar {
    fn entry(re: f64, im: f64) -> Self;
}

impl Entry for f64 {
    fn entry(re: f64, _: f64) -> Self {
        re
    }
}

impl Entry for C64 {
    fn entry(re: f64, im: f64) -> Self {
        C64::new(re, im)
    }
}

fn filled<T: Entry>(rows: usize, cols: usize, seed: usize) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |i, j| {
        let t = (i * 31 + j * 17 + seed * 7) as f64;
        T::entry((t * 0.618).sin(), (t * 0.377).cos() - 0.2)
    })
}

/// The stored form of an operand whose `op` is `rows x cols`.
fn stored<T: Scalar>(m: &Matrix<T>, op: Op) -> Matrix<T> {
    match op {
        Op::None => m.clone(),
        Op::ConjTrans => m.adjoint(),
    }
}

fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<(u64, u64)> {
    m.as_slice()
        .iter()
        .map(|v| (v.re().to_f64().to_bits(), v.im().to_f64().to_bits()))
        .collect()
}

fn capped<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread cap")
        .install(f)
}

/// `alpha op(A) op(B) + beta C` under `shape` at thread cap `threads`.
#[allow(clippy::too_many_arguments)]
fn product<T: Scalar>(
    threads: usize,
    a: &Matrix<T>,
    opa: Op,
    b: &Matrix<T>,
    opb: Op,
    c0: &Matrix<T>,
    shape: Shape,
) -> Matrix<T> {
    let mut c = c0.clone();
    let (alpha, beta) = (T::from_f64(0.75), T::from_f64(-0.5));
    capped(threads, || {
        gemm_shaped(alpha, a, opa, b, opb, beta, &mut c, shape)
    });
    c
}

/// `(m, n, k)` of `C = op(A) op(B)`: tall (row blocks), wide (column
/// ranges), `N = 1`, and `k` across a `KC` slab boundary.
const SHAPES: [(usize, usize, usize); 5] = [
    (3000, 37, 300),
    (600, 5, 400),
    (4500, 1, 300),
    (40, 300, 300),
    (1000, 24, 97),
];

fn split_is_bitwise<T: Entry>() {
    for (m, n, k) in SHAPES {
        assert!(m * n * k >= SPLIT_MACS, "{m}x{n}x{k} stays inline");
        for (opa, opb) in OPS {
            let a = stored(&filled::<T>(m, k, 1), opa);
            let b = stored(&filled::<T>(k, n, 2), opb);
            let c0 = filled::<T>(m, n, 3);
            let one = product(1, &a, opa, &b, opb, &c0, Shape::Full);
            for threads in 2..=4 {
                let got = product(threads, &a, opa, &b, opb, &c0, Shape::Full);
                assert!(
                    bits(&got) == bits(&one),
                    "{m}x{n}x{k} {opa:?}/{opb:?}: {threads} threads"
                );
            }
            // `gemm` is the full shape
            let mut c = c0.clone();
            let (alpha, beta) = (T::from_f64(0.75), T::from_f64(-0.5));
            gemm(alpha, &a, opa, &b, opb, beta, &mut c);
            assert!(bits(&c) == bits(&one), "{m}x{n}x{k} {opa:?}/{opb:?}: gemm");
        }
    }
}

#[test]
fn split_is_bitwise_real() {
    split_is_bitwise::<f64>();
}

#[test]
fn split_is_bitwise_complex() {
    split_is_bitwise::<C64>();
}

/// The Hermitian product `X†X` of `X` (`k x n`) under every `Op` pair:
/// `(op(A), op(B))` stored so that `op(A) op(B) = X†X`.
fn hermitian_operands<T: Scalar>(x: &Matrix<T>, (opa, opb): (Op, Op)) -> (Matrix<T>, Matrix<T>) {
    let xh = x.adjoint();
    let a = match opa {
        Op::None => xh.clone(),
        Op::ConjTrans => x.clone(),
    };
    let b = match opb {
        Op::None => x.clone(),
        Op::ConjTrans => xh,
    };
    (a, b)
}

fn lower_hermitian_is_symmetrized_full<T: Entry>() {
    for (k, n) in [(2000, 37), (300, 1), (KC + 1, 24), (1500, 97)] {
        let x = filled::<T>(k, n, 4);
        for ops in OPS {
            let (a, b) = hermitian_operands(&x, ops);
            let zero = Matrix::<T>::zeros(n, n);
            let mut raw = Matrix::<T>::zeros(n, n);
            gemm(T::ONE, &a, ops.0, &b, ops.1, T::ZERO, &mut raw);
            let mut full = raw.clone();
            full.symmetrize_hermitian();
            for threads in 1..=4 {
                let what = format!("{k}x{n} {ops:?}, {threads} threads");
                let mut lower = capped(threads, || {
                    let mut c = zero.clone();
                    gemm_shaped(
                        T::ONE,
                        &a,
                        ops.0,
                        &b,
                        ops.1,
                        T::ZERO,
                        &mut c,
                        Shape::LowerC(0),
                    );
                    c
                });
                lower.hermitian_from_lower();
                assert!(bits(&lower) == bits(&full), "{what}");
                // a column window [j0, j1) carries its offset
                let (j0, j1) = (n / 3, n - n / 4);
                let bw = match ops.1 {
                    Op::None => b.cols_range(j0, j1),
                    Op::ConjTrans => b.adjoint().cols_range(j0, j1).adjoint(),
                };
                let win = capped(threads, || {
                    let mut c = Matrix::<T>::zeros(n, j1 - j0);
                    let shape = Shape::LowerC(j0);
                    gemm_shaped(T::ONE, &a, ops.0, &bw, ops.1, T::ZERO, &mut c, shape);
                    c
                });
                for j in j0..j1 {
                    let got = Matrix::from_vec(n - j, 1, win.col(j - j0)[j..].to_vec());
                    let want = Matrix::from_vec(n - j, 1, raw.col(j)[j..].to_vec());
                    let at = format!("{what}: window {j0}..{j1}, column {j}");
                    assert!(bits(&got) == bits(&want), "{at}");
                }
            }
        }
    }
}

#[test]
fn lower_hermitian_is_symmetrized_full_real() {
    lower_hermitian_is_symmetrized_full::<f64>();
}

#[test]
fn lower_hermitian_is_symmetrized_full_complex() {
    lower_hermitian_is_symmetrized_full::<C64>();
}

fn upper_b_is_full_with_zeros<T: Entry>() {
    // (m, N, window): op(A) is m x N, op(B) columns [j0, j1) of an N x N
    // upper-triangular matrix
    for (m, nn, (j0, j1)) in [
        (1200, 300, (0, 300)),
        (2000, 96, (0, 96)),
        (900, 300, (100, 137)),
        (5000, 37, (36, 37)),
        (3000, 1, (0, 1)),
    ] {
        let u = Matrix::<T>::from_fn(nn, nn, |i, j| {
            let t = (i * 13 + j * 41) as f64;
            if i <= j {
                T::entry((t * 0.21).cos() + 1.5, (t * 0.11).sin())
            } else {
                T::ZERO
            }
        });
        let uw = u.cols_range(j0, j1);
        for (opa, opb) in OPS {
            let a = stored(&filled::<T>(m, nn, 5), opa);
            let b = stored(&uw, opb);
            let c0 = filled::<T>(m, j1 - j0, 6);
            let full = product(1, &a, opa, &b, opb, &c0, Shape::Full);
            for threads in 1..=4 {
                let got = product(threads, &a, opa, &b, opb, &c0, Shape::UpperB(j0));
                assert!(
                    bits(&got) == bits(&full),
                    "{m}x{nn} window {j0}..{j1} {opa:?}/{opb:?}: {threads} threads"
                );
            }
        }
    }
}

#[test]
fn upper_b_is_full_with_zeros_real() {
    upper_b_is_full_with_zeros::<f64>();
}

#[test]
fn upper_b_is_full_with_zeros_complex() {
    upper_b_is_full_with_zeros::<C64>();
}

//! General matrix-matrix multiplication, including the mixed-precision
//! variants of the paper's Sec. 5.4.2.
//!
//! [`gemm`] drives the cache-blocked, register-tiled microkernel engine of
//! [`crate::pack`] (packed operand panels, `MC/KC/NC` blocking, `MR x NR`
//! register tile) for all four `Op` combinations. The seed column-axpy/dot
//! kernel is retained as [`gemm_reference`] — it is the correctness oracle
//! for the property tests and the "before" baseline of the kernel
//! benchmarks.

use crate::matrix::Matrix;
use crate::pack::{gemm_block, with_pack_buf, with_scratch3, KC, MC, NC};
use crate::scalar::Scalar;
use rayon::prelude::*;

/// Transposition op applied to a GEMM operand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    None,
    /// Use the conjugate (Hermitian) transpose; plain transpose for real
    /// scalars.
    ConjTrans,
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes are checked; `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
/// Runs on the packed-panel microkernel engine, parallel over `NC`-wide
/// column slabs of `C`.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    opa: Op,
    b: &Matrix<T>,
    opb: Op,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, n) = c.shape();
    let (am, ak) = match opa {
        Op::None => a.shape(),
        Op::ConjTrans => (a.ncols(), a.nrows()),
    };
    let (bk, bn) = match opb {
        Op::None => b.shape(),
        Op::ConjTrans => (b.ncols(), b.nrows()),
    };
    assert_eq!(am, m, "gemm: row mismatch");
    assert_eq!(bn, n, "gemm: col mismatch");
    assert_eq!(ak, bk, "gemm: inner-dimension mismatch");
    let k = ak;

    gemm_slices(
        m,
        n,
        k,
        alpha,
        a.as_slice(),
        a.nrows(),
        opa == Op::ConjTrans,
        b.as_slice(),
        b.nrows(),
        opb == Op::ConjTrans,
        beta,
        c.as_mut_slice(),
    );
}

/// Slice-level GEMM driver: `C = alpha * op(A) * op(B) + beta * C` on raw
/// column-major storage, with `C` packed (`ldc == m`). This is [`gemm`]
/// minus the shape bookkeeping; the mixed-precision path calls it directly
/// on scratch buffers so it never has to build low-precision `Matrix`
/// temporaries.
// dftlint:hot
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    a_trans: bool,
    b: &[T],
    ldb: usize,
    b_trans: bool,
    beta: T,
    c: &mut [T],
) {
    debug_assert_eq!(c.len(), m * n, "gemm_slices: C must be packed m x n");
    // beta pass over all of C first, so the blocked accumulation below is a
    // pure `C += ...` regardless of how k is sliced into KC slabs.
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else if beta != T::ONE {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    if m == 0 || n == 0 || k == 0 || alpha == T::ZERO {
        return;
    }

    c.par_chunks_mut(m * NC)
        .enumerate()
        .for_each(|(slab, cblk)| {
            let jc = slab * NC;
            let ncb = cblk.len() / m;
            // Shift B so column jc of op(B) becomes column 0 of the slab.
            let boff = if b_trans { jc } else { jc * ldb };
            with_pack_buf(|buf| {
                gemm_block(
                    (MC, KC, NC),
                    m,
                    ncb,
                    k,
                    alpha,
                    a,
                    lda,
                    a_trans,
                    &b[boff..],
                    ldb,
                    b_trans,
                    cblk,
                    m,
                    buf,
                );
            });
        });
}

/// The seed unblocked column-axpy/dot GEMM, kept verbatim as the
/// correctness reference for the blocked engine and as the "before"
/// baseline of the kernel benchmarks. Semantics are identical to [`gemm`].
// dftlint:allow(L009, reason="oracle of dft-linalg/tests/simd_parity.rs and pack::tests")
pub fn gemm_reference<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    opa: Op,
    b: &Matrix<T>,
    opb: Op,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, n) = c.shape();
    let (am, ak) = match opa {
        Op::None => a.shape(),
        Op::ConjTrans => (a.ncols(), a.nrows()),
    };
    let (bk, bn) = match opb {
        Op::None => b.shape(),
        Op::ConjTrans => (b.ncols(), b.nrows()),
    };
    assert_eq!(am, m, "gemm: row mismatch");
    assert_eq!(bn, n, "gemm: col mismatch");
    assert_eq!(ak, bk, "gemm: inner-dimension mismatch");
    let k = ak;

    let nrows_a = a.nrows();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let nrows_b = b.nrows();

    // Each chunk of len m in C's buffer is one column of C (column-major).
    c.as_mut_slice()
        .par_chunks_mut(m)
        .enumerate()
        .for_each(|(j, cj)| {
            // Scale the output column by beta.
            if beta == T::ZERO {
                cj.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in cj.iter_mut() {
                    *v *= beta;
                }
            }
            match (opa, opb) {
                (Op::None, Op::None) => {
                    // c_j += alpha * A * b_j  (axpy over columns of A)
                    let bj = &b_data[j * nrows_b..j * nrows_b + k];
                    for l in 0..k {
                        let w = alpha * bj[l];
                        if w == T::ZERO {
                            continue;
                        }
                        let acol = &a_data[l * nrows_a..l * nrows_a + m];
                        for (cv, &av) in cj.iter_mut().zip(acol.iter()) {
                            *cv += w * av;
                        }
                    }
                }
                (Op::ConjTrans, Op::None) => {
                    // c[i,j] += alpha * <a_col_i, b_j>
                    let bj = &b_data[j * nrows_b..j * nrows_b + k];
                    for i in 0..m {
                        let acol = &a_data[i * nrows_a..i * nrows_a + k];
                        let mut acc = T::ZERO;
                        for (&av, &bv) in acol.iter().zip(bj.iter()) {
                            acc += av.conj() * bv;
                        }
                        cj[i] += alpha * acc;
                    }
                }
                (Op::None, Op::ConjTrans) => {
                    // c_j += alpha * A * conj(b[j, :])^T ; b is n x k stored
                    // column-major, so b[j, l] = b_data[l*nrows_b + j].
                    for l in 0..k {
                        let w = alpha * b_data[l * nrows_b + j].conj();
                        if w == T::ZERO {
                            continue;
                        }
                        let acol = &a_data[l * nrows_a..l * nrows_a + m];
                        for (cv, &av) in cj.iter_mut().zip(acol.iter()) {
                            *cv += w * av;
                        }
                    }
                }
                (Op::ConjTrans, Op::ConjTrans) => {
                    for i in 0..m {
                        let acol = &a_data[i * nrows_a..i * nrows_a + k];
                        let mut acc = T::ZERO;
                        for l in 0..k {
                            acc += acol[l].conj() * b_data[l * nrows_b + j].conj();
                        }
                        cj[i] += alpha * acc;
                    }
                }
            }
        });
}

/// Convenience: `C = op(A) * op(B)` freshly allocated.
pub fn matmul<T: Scalar>(a: &Matrix<T>, opa: Op, b: &Matrix<T>, opb: Op) -> Matrix<T> {
    let m = match opa {
        Op::None => a.nrows(),
        Op::ConjTrans => a.ncols(),
    };
    let n = match opb {
        Op::None => b.ncols(),
        Op::ConjTrans => b.nrows(),
    };
    let mut c = Matrix::zeros(m, n);
    gemm(T::ONE, a, opa, b, opb, T::ZERO, &mut c);
    c
}

/// Mixed-precision GEMM: demote both operands to [`Scalar::Low`] (FP32
/// family), multiply there, and accumulate into the FP64-family output.
///
/// This is the paper's Sec. 5.4.2 trick for the `O(MN^2)` CholGS-S / RR-P /
/// RR-SR steps: off-diagonal blocks carry data that is converging to zero
/// (or rotations close to identity), so FP32 precision suffices while
/// halving bandwidth and (on real GPUs) doubling throughput.
///
/// Demotion, the low-precision product and the promotion all run through
/// this thread's recycled [`with_scratch3`] buffers, so the steady-state
/// mixed-precision CF loop performs zero heap allocations here (the seed
/// version built two full temporary matrices per call).
// dftlint:hot
pub fn gemm_mixed<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    opa: Op,
    b: &Matrix<T>,
    opb: Op,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, n) = c.shape();
    let (am, ak) = match opa {
        Op::None => a.shape(),
        Op::ConjTrans => (a.ncols(), a.nrows()),
    };
    let (bk, bn) = match opb {
        Op::None => b.shape(),
        Op::ConjTrans => (b.ncols(), b.nrows()),
    };
    assert_eq!(am, m, "gemm: row mismatch");
    assert_eq!(bn, n, "gemm: col mismatch");
    assert_eq!(ak, bk, "gemm: inner-dimension mismatch");
    let k = ak;

    let a_data = a.as_slice();
    let b_data = b.as_slice();
    with_scratch3::<T::Low, _>(|al, bl, cl| {
        if al.len() < a_data.len() {
            al.resize(a_data.len(), <T::Low as Scalar>::ZERO);
        }
        if bl.len() < b_data.len() {
            bl.resize(b_data.len(), <T::Low as Scalar>::ZERO);
        }
        if cl.len() < m * n {
            cl.resize(m * n, <T::Low as Scalar>::ZERO);
        }
        for (d, &s) in al.iter_mut().zip(a_data.iter()) {
            *d = s.to_low();
        }
        for (d, &s) in bl.iter_mut().zip(b_data.iter()) {
            *d = s.to_low();
        }
        gemm_slices(
            m,
            n,
            k,
            <T::Low as Scalar>::ONE,
            &al[..a_data.len()],
            a.nrows(),
            opa == Op::ConjTrans,
            &bl[..b_data.len()],
            b.nrows(),
            opb == Op::ConjTrans,
            <T::Low as Scalar>::ZERO,
            &mut cl[..m * n],
        );
        // Promote and combine in one pass: c = beta * c + alpha * promote(cl).
        let cs = c.as_mut_slice();
        if beta == T::ZERO {
            for (cv, &lv) in cs.iter_mut().zip(cl.iter()) {
                *cv = alpha * T::from_low(lv);
            }
        } else {
            for (cv, &lv) in cs.iter_mut().zip(cl.iter()) {
                *cv = beta * *cv + alpha * T::from_low(lv);
            }
        }
    });
}

/// FLOP count of a `(m x k) * (k x n)` GEMM for scalar type `T`
/// (2mnk real FLOPs, 8mnk for complex — the paper's Sec. 6.3 uses the
/// factor-4-over-real convention `alpha * 4 * N * M * N`, i.e. counting a
/// complex MAC as 4x a real one).
pub fn gemm_flops<T: Scalar>(m: usize, n: usize, k: usize) -> u64 {
    let macs = (m as u64) * (n as u64) * (k as u64);
    macs * (T::MUL_FLOPS + T::ADD_FLOPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    fn naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let mut c = Matrix::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut acc = T::ZERO;
                for l in 0..a.ncols() {
                    acc += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn test_mat(m: usize, n: usize, seed: f64) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) as f64 * 0.618 + seed).sin())
    }

    #[test]
    fn gemm_none_none_matches_naive() {
        let a = test_mat(7, 5, 0.1);
        let b = test_mat(5, 9, 0.7);
        let c = matmul(&a, Op::None, &b, Op::None);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-13);
    }

    #[test]
    fn gemm_conjtrans_none_matches_naive() {
        let a = test_mat(5, 7, 0.3);
        let b = test_mat(5, 4, 0.9);
        let c = matmul(&a, Op::ConjTrans, &b, Op::None);
        assert!(c.max_abs_diff(&naive(&a.transpose(), &b)) < 1e-13);
    }

    #[test]
    fn gemm_none_conjtrans_matches_naive() {
        let a = test_mat(6, 3, 0.2);
        let b = test_mat(8, 3, 0.4);
        let c = matmul(&a, Op::None, &b, Op::ConjTrans);
        assert!(c.max_abs_diff(&naive(&a, &b.transpose())) < 1e-13);
    }

    #[test]
    fn gemm_conjtrans_conjtrans_matches_naive() {
        let a = test_mat(4, 6, 0.5);
        let b = test_mat(3, 4, 0.8);
        let c = matmul(&a, Op::ConjTrans, &b, Op::ConjTrans);
        assert!(c.max_abs_diff(&naive(&a.transpose(), &b.transpose())) < 1e-13);
    }

    #[test]
    fn gemm_complex_adjoint() {
        let a = Matrix::from_fn(4, 3, |i, j| C64::new(i as f64 * 0.3, j as f64 * 0.7 - 1.0));
        let b = Matrix::from_fn(4, 2, |i, j| C64::new(j as f64 - i as f64, 0.5 * i as f64));
        let c = matmul(&a, Op::ConjTrans, &b, Op::None);
        let expected = naive(&a.adjoint(), &b);
        assert!(c.max_abs_diff(&expected) < 1e-13);
    }

    #[test]
    fn gemm_alpha_beta_accumulate() {
        let a = test_mat(3, 3, 0.0);
        let b = test_mat(3, 3, 1.0);
        let mut c = test_mat(3, 3, 2.0);
        let c0 = c.clone();
        gemm(2.0, &a, Op::None, &b, Op::None, -1.0, &mut c);
        let mut expected = Matrix::zeros(3, 3);
        expected.axpy_inplace(2.0, &naive(&a, &b));
        expected.axpy_inplace(-1.0, &c0);
        assert!(c.max_abs_diff(&expected) < 1e-13);
    }

    #[test]
    fn gemm_mixed_close_to_fp64() {
        let a = test_mat(20, 12, 0.15);
        let b = test_mat(12, 8, 0.35);
        let exact = matmul(&a, Op::None, &b, Op::None);
        let mut c = Matrix::zeros(20, 8);
        gemm_mixed(1.0, &a, Op::None, &b, Op::None, 0.0, &mut c);
        // FP32 accumulation error bounded by ~k * eps_f32 * |entries|
        assert!(c.max_abs_diff(&exact) < 1e-4);
        assert!(c.max_abs_diff(&exact) > 0.0); // genuinely low-precision
    }

    #[test]
    fn gemm_flop_count_real_vs_complex() {
        assert_eq!(gemm_flops::<f64>(10, 10, 10), 2000);
        assert_eq!(gemm_flops::<C64>(10, 10, 10), 8000);
    }
}

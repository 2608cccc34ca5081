//! Strided-batched GEMM — the CPU analogue of `xGEMMStridedBatched`.
//!
//! The paper's key kernel (Sec. 5.4.1) recasts the global sparse
//! matrix-times-wavefunction-block product `Y = H X` as a batch of *dense*
//! FE cell-level products `Y_c = H_c X_c` followed by an FE assembly. The
//! batch members all share one shape (`m x k` times `k x n`) and are laid
//! out at fixed strides, exactly like the cuBLAS/rocBLAS strided-batched
//! call. Here the batch is parallelised with rayon (standing in for the
//! GPU's fine-grained parallelism).

use crate::pack::{gemm_block, with_pack_buf, Shape, KC, MC, NC};
use crate::scalar::Scalar;
use crate::simd::MatMut;
use rayon::prelude::*;

/// Shape and stride description for a strided-batched GEMM.
#[derive(Copy, Clone, Debug)]
pub struct BatchLayout {
    /// Rows of each `A_i` and `C_i`.
    pub m: usize,
    /// Columns of each `B_i` and `C_i`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Number of batch members (FE cells).
    pub batch: usize,
    /// Element stride between consecutive `A_i` (>= m*k).
    pub stride_a: usize,
    /// Element stride between consecutive `B_i` (>= k*n).
    pub stride_b: usize,
    /// Element stride between consecutive `C_i` (>= m*n).
    pub stride_c: usize,
}

impl BatchLayout {
    /// Tightly packed layout for `batch` members of shape `m,n,k`.
    pub fn packed(m: usize, n: usize, k: usize, batch: usize) -> Self {
        Self {
            m,
            n,
            k,
            batch,
            stride_a: m * k,
            stride_b: k * n,
            stride_c: m * n,
        }
    }

    /// Total real FLOPs of the batched product for scalar type `T`.
    pub fn flops<T: Scalar>(&self) -> u64 {
        crate::gemm::gemm_flops::<T>(self.m, self.n, self.k) * self.batch as u64
    }
}

/// Validate a batched layout and its buffers up front, with actionable
/// messages. Both [`batched_gemm`] and [`batched_gemm_reference`] call this
/// before touching any data, so degenerate layouts (e.g. `stride_c <
/// m * n`, which used to surface as a bare `chunks_mut(0)` panic deep in
/// the slab loop) fail identically and intelligibly from either entry
/// point.
fn validate_layout<T>(layout: &BatchLayout, a: &[T], b: &[T], c: &[T]) {
    let BatchLayout {
        m,
        n,
        k,
        batch,
        stride_a,
        stride_b,
        stride_c,
    } = *layout;
    if batch == 0 {
        return;
    }
    assert!(
        stride_a >= m * k,
        "batched_gemm: stride_a ({stride_a}) must be >= m*k ({})",
        m * k
    );
    assert!(
        stride_b >= k * n,
        "batched_gemm: stride_b ({stride_b}) must be >= k*n ({})",
        k * n
    );
    assert!(
        stride_c >= m * n,
        "batched_gemm: stride_c ({stride_c}) must be >= m*n ({})",
        m * n
    );
    assert!(
        a.len() >= (batch - 1) * stride_a + m * k,
        "batched_gemm: A buffer too short ({} < {}) for batch {batch}",
        a.len(),
        (batch - 1) * stride_a + m * k
    );
    assert!(
        b.len() >= (batch - 1) * stride_b + k * n,
        "batched_gemm: B buffer too short ({} < {}) for batch {batch}",
        b.len(),
        (batch - 1) * stride_b + k * n
    );
    assert!(
        c.len() >= (batch - 1) * stride_c + m * n,
        "batched_gemm: C buffer too short ({} < {}) for batch {batch}",
        c.len(),
        (batch - 1) * stride_c + m * n
    );
}

/// `C_i = alpha * A_i * B_i + beta * C_i` for every batch member `i`.
///
/// All matrices are column-major within their stride windows. Parallel over
/// the batch dimension. Each member runs on the same packed-panel
/// microkernel as [`crate::gemm::gemm`] — the FE cell shape
/// (`m = k = (p+1)^3`) takes its dedicated single-block fast path, and the
/// two entry points share one semantics (the seed `gemm` skipped
/// exact-zero `alpha * b` weights while `batched_gemm` did not; the packed
/// engine treats zeros uniformly in both).
pub fn batched_gemm<T: Scalar>(
    layout: BatchLayout,
    alpha: T,
    a: &[T],
    b: &[T],
    beta: T,
    c: &mut [T],
) {
    let BatchLayout {
        m,
        n,
        k,
        batch,
        stride_a,
        stride_b,
        stride_c,
    } = layout;
    validate_layout(&layout, a, b, c);
    if batch == 0 || m * n == 0 {
        return;
    }

    c.par_chunks_mut(stride_c)
        .take(batch)
        .enumerate()
        .for_each(|(i, ci)| {
            let ai = &a[i * stride_a..i * stride_a + m * k];
            let bi = &b[i * stride_b..i * stride_b + k * n];
            let cm = &mut ci[..m * n];
            if beta == T::ZERO {
                cm.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in cm.iter_mut() {
                    *v *= beta;
                }
            }
            with_pack_buf(|buf| {
                let cm = MatMut::new(cm, m, n, m);
                let (a, b) = ((ai, m, false), (bi, k, false));
                gemm_block((MC, KC, NC), k, alpha, a, b, cm, Shape::Full, buf);
            });
        });
}

/// The seed per-member axpy batched GEMM, kept as the correctness reference
/// and benchmark baseline (see [`crate::gemm::gemm_reference`]).
// dftlint:allow(L009, reason="oracle of batched::tests")
pub fn batched_gemm_reference<T: Scalar>(
    layout: BatchLayout,
    alpha: T,
    a: &[T],
    b: &[T],
    beta: T,
    c: &mut [T],
) {
    let BatchLayout {
        m,
        n,
        k,
        batch,
        stride_a,
        stride_b,
        stride_c,
    } = layout;
    validate_layout(&layout, a, b, c);
    if batch == 0 || m * n == 0 {
        return;
    }

    c.par_chunks_mut(stride_c)
        .take(batch)
        .enumerate()
        .for_each(|(i, ci)| {
            let ai = &a[i * stride_a..i * stride_a + m * k];
            let bi = &b[i * stride_b..i * stride_b + k * n];
            for j in 0..n {
                let cj = &mut ci[j * m..(j + 1) * m];
                if beta == T::ZERO {
                    cj.fill(T::ZERO);
                } else if beta != T::ONE {
                    for v in cj.iter_mut() {
                        *v *= beta;
                    }
                }
                let bj = &bi[j * k..(j + 1) * k];
                for l in 0..k {
                    let w = alpha * bj[l];
                    let acol = &ai[l * m..(l + 1) * m];
                    for (cv, &av) in cj.iter_mut().zip(acol.iter()) {
                        *cv += w * av;
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::scalar::C64;

    #[test]
    fn batched_matches_per_cell_gemm() {
        let (m, n, k, batch) = (9, 4, 9, 7);
        let layout = BatchLayout::packed(m, n, k, batch);
        let a: Vec<f64> = (0..m * k * batch)
            .map(|i| ((i * 7) as f64 * 0.1).sin())
            .collect();
        let b: Vec<f64> = (0..k * n * batch)
            .map(|i| ((i * 3) as f64 * 0.2).cos())
            .collect();
        let mut c = vec![0.0_f64; m * n * batch];
        batched_gemm(layout, 1.0, &a, &b, 0.0, &mut c);

        for i in 0..batch {
            let ai = Matrix::from_vec(m, k, a[i * m * k..(i + 1) * m * k].to_vec());
            let bi = Matrix::from_vec(k, n, b[i * k * n..(i + 1) * k * n].to_vec());
            let ci = crate::gemm::matmul(&ai, crate::gemm::Op::None, &bi, crate::gemm::Op::None);
            let got = Matrix::from_vec(m, n, c[i * m * n..(i + 1) * m * n].to_vec());
            assert!(got.max_abs_diff(&ci) < 1e-12, "batch member {i}");
        }
    }

    #[test]
    fn batched_beta_accumulates() {
        let layout = BatchLayout::packed(2, 2, 2, 3);
        let a = vec![1.0_f64; 2 * 2 * 3];
        let b = vec![1.0_f64; 2 * 2 * 3];
        let mut c = vec![10.0_f64; 2 * 2 * 3];
        batched_gemm(layout, 1.0, &a, &b, 1.0, &mut c);
        // each entry: 10 + sum over k of 1*1 = 12
        assert!(c.iter().all(|&v| (v - 12.0).abs() < 1e-14));
    }

    #[test]
    fn batched_complex() {
        let layout = BatchLayout::packed(3, 2, 3, 2);
        let a: Vec<C64> = (0..3 * 3 * 2)
            .map(|i| C64::new(i as f64 * 0.1, -(i as f64) * 0.05))
            .collect();
        let b: Vec<C64> = (0..3 * 2 * 2)
            .map(|i| C64::new(1.0 - i as f64 * 0.2, i as f64 * 0.3))
            .collect();
        let mut c = vec![C64::ZERO; 3 * 2 * 2];
        batched_gemm(layout, C64::ONE, &a, &b, C64::ZERO, &mut c);
        // spot-check member 1, entry (0,0)
        let mut acc = C64::ZERO;
        for l in 0..3 {
            acc += a[9 + l * 3] * b[6 + l];
        }
        assert!((c[6] - acc).abs() < 1e-13);
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let got = std::panic::catch_unwind(f).err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        std::panic::set_hook(hook);
        got
    }

    #[test]
    fn degenerate_layouts_fail_identically_with_clear_messages() {
        // stride_c too small for the member shape: used to die inside the
        // slab loop with a bare `chunks cannot have a size of zero`.
        let bad_c = BatchLayout {
            stride_c: 3,
            ..BatchLayout::packed(2, 2, 2, 2)
        };
        let (a, b) = (vec![0.0_f64; 8], vec![0.0_f64; 8]);
        let msg = panic_message(|| {
            let mut c = vec![0.0_f64; 8];
            batched_gemm(bad_c, 1.0, &a, &b, 0.0, &mut c);
        })
        .expect("must panic");
        assert!(msg.contains("stride_c (3) must be >= m*n (4)"), "{msg}");
        let msg_ref = panic_message(|| {
            let mut c = vec![0.0_f64; 8];
            batched_gemm_reference(bad_c, 1.0, &a, &b, 0.0, &mut c);
        })
        .expect("must panic");
        assert_eq!(msg, msg_ref, "both paths must agree on error behavior");

        // Short operand buffer.
        let layout = BatchLayout::packed(2, 2, 2, 3);
        let msg = panic_message(|| {
            let mut c = vec![0.0_f64; 12];
            batched_gemm(layout, 1.0, &[0.0_f64; 8], &[0.0_f64; 12], 0.0, &mut c);
        })
        .expect("must panic");
        assert!(msg.contains("A buffer too short (8 < 12)"), "{msg}");
        let msg_ref = panic_message(|| {
            let mut c = vec![0.0_f64; 12];
            batched_gemm_reference(layout, 1.0, &[0.0_f64; 8], &[0.0_f64; 12], 0.0, &mut c);
        })
        .expect("must panic");
        assert_eq!(msg, msg_ref);
    }

    #[test]
    fn empty_batch_and_empty_members_are_no_ops() {
        // batch == 0: nothing validated, nothing touched (both paths).
        let layout = BatchLayout::packed(4, 4, 4, 0);
        let mut c: Vec<f64> = vec![7.0; 4];
        batched_gemm(layout, 1.0, &[], &[], 0.0, &mut c);
        batched_gemm_reference(layout, 1.0, &[], &[], 0.0, &mut c);
        assert!(c.iter().all(|&v| v.to_bits() == 7.0f64.to_bits()));
        // m*n == 0 with zero strides: formerly a chunks_mut(0) panic.
        let empty = BatchLayout::packed(0, 0, 3, 2);
        batched_gemm(empty, 1.0, &[], &[], 0.0, &mut c);
        batched_gemm_reference(empty, 1.0, &[], &[], 0.0, &mut c);
        assert!(c.iter().all(|&v| v.to_bits() == 7.0f64.to_bits()));
    }

    #[test]
    fn flop_accounting() {
        let layout = BatchLayout::packed(9, 10, 9, 100);
        assert_eq!(layout.flops::<f64>(), 2 * 9 * 10 * 9 * 100);
        assert_eq!(layout.flops::<C64>(), 8 * 9 * 10 * 9 * 100);
    }
}

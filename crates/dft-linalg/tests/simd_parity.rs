//! SIMD/scalar parity suite for the microkernel engine.
//!
//! Two layers of guarantee, both run twice by CI (once with the detected
//! tier, once under `DFT_SIMD=scalar` to pin the portable fallback):
//!
//! 1. **Reference parity** — the blocked engine matches the seed
//!    column-axpy [`gemm_reference`] to accumulation-error tolerance for
//!    all four `Op` combinations, for `f64`/`f32`/`C64`, on edge shapes
//!    where `m`, `n`, `k` are not multiples of `MR`/`NR`/`KC`/`NC`.
//! 2. **Bit-for-bit oracle** — the engine reproduces, exactly, a scalar
//!    model of its own contraction: ascending-`k` accumulation per `KC`
//!    slab, one `mul_add` per term on the SIMD tiers (one unfused
//!    multiply-add on the scalar tier and for complex scalars), `alpha`
//!    folded into the B term, `beta` applied up front. Any reassociation,
//!    reordering, or double-rounding regression in the kernels breaks
//!    these tests at the first element.

use dft_linalg::gemm::{gemm, gemm_reference, Op};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Scalar, C64};
use dft_linalg::simd::{self, SimdTier};

const OPS: [(Op, Op); 4] = [
    (Op::None, Op::None),
    (Op::ConjTrans, Op::None),
    (Op::None, Op::ConjTrans),
    (Op::ConjTrans, Op::ConjTrans),
];

/// Shapes chosen to hit register-tile edges (not multiples of any
/// MR in {8, 16, 32} or NR in {4, 6, 8}) and cache-block edges
/// (crossing the default `MC = 128`, `KC = 256`, `NC = 512`).
const SHAPES: [(usize, usize, usize); 8] = [
    (1, 1, 1),
    (3, 2, 4),
    (16, 8, 8),
    (17, 9, 7),
    (33, 23, 19),
    (61, 37, 259), // k crosses KC
    (130, 70, 50), // m crosses MC
    (70, 515, 30), // n crosses NC
];

fn dims(op: Op, rows: usize, cols: usize) -> (usize, usize) {
    match op {
        Op::None => (rows, cols),
        Op::ConjTrans => (cols, rows),
    }
}

#[test]
fn gemm_matches_reference_f64_all_ops_edge_shapes() {
    for &(m, n, k) in &SHAPES {
        for &(opa, opb) in &OPS {
            let (ar, ac) = dims(opa, m, k);
            let (br, bc) = dims(opb, k, n);
            let a = Matrix::from_fn(ar, ac, |i, j| ((i * 31 + j * 17) as f64 * 0.618).sin());
            let b = Matrix::from_fn(br, bc, |i, j| ((i * 13 + j * 41) as f64 * 0.377).cos());
            let mut c = Matrix::from_fn(m, n, |i, j| ((i + 3 * j) as f64 * 0.21).sin());
            let mut cr = c.clone();
            gemm(0.75, &a, opa, &b, opb, -0.5, &mut c);
            gemm_reference(0.75, &a, opa, &b, opb, -0.5, &mut cr);
            let tol = 1e-13 * (k as f64).max(1.0);
            assert!(
                c.max_abs_diff(&cr) < tol,
                "f64 {m}x{n}x{k} {opa:?}/{opb:?}: diff {}",
                c.max_abs_diff(&cr)
            );
        }
    }
}

#[test]
fn gemm_matches_reference_f32_all_ops_edge_shapes() {
    for &(m, n, k) in &SHAPES {
        for &(opa, opb) in &OPS {
            let (ar, ac) = dims(opa, m, k);
            let (br, bc) = dims(opb, k, n);
            let a = Matrix::from_fn(ar, ac, |i, j| ((i * 31 + j * 17) as f32 * 0.618).sin());
            let b = Matrix::from_fn(br, bc, |i, j| ((i * 13 + j * 41) as f32 * 0.377).cos());
            let mut c = Matrix::from_fn(m, n, |i, j| ((i + 3 * j) as f32 * 0.21).sin());
            let mut cr = c.clone();
            gemm(0.75f32, &a, opa, &b, opb, -0.5, &mut c);
            gemm_reference(0.75f32, &a, opa, &b, opb, -0.5, &mut cr);
            let tol = 1e-5 * (k as f64).max(1.0);
            assert!(
                c.max_abs_diff(&cr) < tol,
                "f32 {m}x{n}x{k} {opa:?}/{opb:?}: diff {}",
                c.max_abs_diff(&cr)
            );
        }
    }
}

#[test]
fn gemm_matches_reference_c64_all_ops_edge_shapes() {
    for &(m, n, k) in &SHAPES[..6] {
        for &(opa, opb) in &OPS {
            let (ar, ac) = dims(opa, m, k);
            let (br, bc) = dims(opb, k, n);
            let a = Matrix::from_fn(ar, ac, |i, j| {
                C64::new((i as f64 * 0.7).sin(), (j as f64 * 0.3).cos())
            });
            let b = Matrix::from_fn(br, bc, |i, j| {
                C64::new((j as f64 * 0.9).cos(), (i as f64 * 0.5).sin() - 0.2)
            });
            let alpha = C64::new(0.75, -0.25);
            let beta = C64::new(-0.5, 0.1);
            let mut c = Matrix::from_fn(m, n, |i, j| {
                C64::new((i + 2 * j) as f64 * 0.11, (i * j) as f64 * 0.05)
            });
            let mut cr = c.clone();
            gemm(alpha, &a, opa, &b, opb, beta, &mut c);
            gemm_reference(alpha, &a, opa, &b, opb, beta, &mut cr);
            let tol = 1e-12 * (k as f64).max(1.0);
            assert!(
                c.max_abs_diff(&cr) < tol,
                "c64 {m}x{n}x{k} {opa:?}/{opb:?}: diff {}",
                c.max_abs_diff(&cr)
            );
        }
    }
}

/// Scalar model of the engine's exact contraction for real scalars:
/// beta pass first, then per `KC` slab an ascending-`k` accumulator added
/// to `C` once. `fused` selects `mul_add` (SIMD tiers) vs a separate
/// multiply and add (portable tile).
macro_rules! real_oracle {
    ($name:ident, $t:ty) => {
        #[allow(clippy::too_many_arguments)]
        fn $name(
            alpha: $t,
            a: &Matrix<$t>,
            opa: Op,
            b: &Matrix<$t>,
            opb: Op,
            beta: $t,
            c: &mut Matrix<$t>,
            kc_blk: usize,
            fused: bool,
        ) {
            let (m, n) = c.shape();
            let k = match opa {
                Op::None => a.ncols(),
                Op::ConjTrans => a.nrows(),
            };
            let aop = |i: usize, l: usize| match opa {
                Op::None => a[(i, l)],
                Op::ConjTrans => a[(l, i)],
            };
            let bop = |l: usize, j: usize| match opb {
                Op::None => b[(l, j)],
                Op::ConjTrans => b[(j, l)],
            };
            for j in 0..n {
                for i in 0..m {
                    if beta == 0.0 {
                        c[(i, j)] = 0.0;
                    } else if beta != 1.0 {
                        c[(i, j)] *= beta;
                    }
                }
            }
            let mut pc = 0;
            while pc < k {
                let kc = kc_blk.min(k - pc);
                for j in 0..n {
                    for i in 0..m {
                        let mut acc: $t = 0.0;
                        for l in pc..pc + kc {
                            let w = alpha * bop(l, j);
                            if fused {
                                acc = aop(i, l).mul_add(w, acc);
                            } else {
                                acc += w * aop(i, l);
                            }
                        }
                        c[(i, j)] += acc;
                    }
                }
                pc += kc;
            }
        }
    };
}

real_oracle!(oracle_f64, f64);
real_oracle!(oracle_f32, f32);

#[test]
fn gemm_f64_is_bit_identical_to_mul_add_oracle() {
    let fused = simd::active_tier() != SimdTier::Scalar;
    let kc_blk = dft_linalg::pack::KC;
    for &(m, n, k) in &SHAPES {
        for &(opa, opb) in &OPS {
            let (ar, ac) = dims(opa, m, k);
            let (br, bc) = dims(opb, k, n);
            let a = Matrix::from_fn(ar, ac, |i, j| ((i * 31 + j * 17) as f64 * 0.618).sin());
            let b = Matrix::from_fn(br, bc, |i, j| ((i * 13 + j * 41) as f64 * 0.377).cos());
            for beta in [0.0f64, 1.0] {
                let mut c = Matrix::from_fn(m, n, |i, j| ((i + 3 * j) as f64 * 0.21).sin());
                let mut co = c.clone();
                gemm(0.75, &a, opa, &b, opb, beta, &mut c);
                oracle_f64(0.75, &a, opa, &b, opb, beta, &mut co, kc_blk, fused);
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            c[(i, j)].to_bits(),
                            co[(i, j)].to_bits(),
                            "f64 {m}x{n}x{k} {opa:?}/{opb:?} beta={beta} at ({i},{j}): \
                             {} vs oracle {}",
                            c[(i, j)],
                            co[(i, j)]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_f32_is_bit_identical_to_mul_add_oracle() {
    let fused = simd::active_tier() != SimdTier::Scalar;
    let kc_blk = dft_linalg::pack::KC;
    for &(m, n, k) in &SHAPES {
        for &(opa, opb) in &OPS {
            let (ar, ac) = dims(opa, m, k);
            let (br, bc) = dims(opb, k, n);
            let a = Matrix::from_fn(ar, ac, |i, j| ((i * 31 + j * 17) as f32 * 0.618).sin());
            let b = Matrix::from_fn(br, bc, |i, j| ((i * 13 + j * 41) as f32 * 0.377).cos());
            for beta in [0.0f32, 1.0] {
                let mut c = Matrix::from_fn(m, n, |i, j| ((i + 3 * j) as f32 * 0.21).sin());
                let mut co = c.clone();
                gemm(0.75f32, &a, opa, &b, opb, beta, &mut c);
                oracle_f32(0.75f32, &a, opa, &b, opb, beta, &mut co, kc_blk, fused);
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            c[(i, j)].to_bits(),
                            co[(i, j)].to_bits(),
                            "f32 {m}x{n}x{k} {opa:?}/{opb:?} beta={beta} at ({i},{j})"
                        );
                    }
                }
            }
        }
    }
}

/// Complex scalars always run the portable 4x4 tile, so the oracle is the
/// unfused multiply-add with `alpha` folded into the B term — on every tier.
#[test]
fn gemm_c64_is_bit_identical_to_generic_tile_oracle() {
    let kc_blk = dft_linalg::pack::KC;
    for &(m, n, k) in &SHAPES[..6] {
        for &(opa, opb) in &OPS {
            let (ar, ac) = dims(opa, m, k);
            let (br, bc) = dims(opb, k, n);
            let a = Matrix::from_fn(ar, ac, |i, j| {
                C64::new((i as f64 * 0.7).sin(), (j as f64 * 0.3).cos())
            });
            let b = Matrix::from_fn(br, bc, |i, j| {
                C64::new((j as f64 * 0.9).cos(), (i as f64 * 0.5).sin() - 0.2)
            });
            let alpha = C64::new(0.75, -0.25);
            let aop = |i: usize, l: usize| match opa {
                Op::None => a[(i, l)],
                Op::ConjTrans => a[(l, i)].conj(),
            };
            let bop = |l: usize, j: usize| match opb {
                Op::None => b[(l, j)],
                Op::ConjTrans => b[(j, l)].conj(),
            };
            let mut c = Matrix::zeros(m, n);
            gemm(alpha, &a, opa, &b, opb, C64::ZERO, &mut c);
            for j in 0..n {
                for i in 0..m {
                    let mut expect = C64::ZERO;
                    let mut pc = 0;
                    while pc < k {
                        let kc = kc_blk.min(k - pc);
                        let mut acc = C64::ZERO;
                        for l in pc..pc + kc {
                            acc += (alpha * bop(l, j)) * aop(i, l);
                        }
                        expect += acc;
                        pc += kc;
                    }
                    let got = c[(i, j)];
                    assert!(
                        got.re.to_bits() == expect.re.to_bits()
                            && got.im.to_bits() == expect.im.to_bits(),
                        "c64 {m}x{n}x{k} {opa:?}/{opb:?} at ({i},{j}): {got:?} vs {expect:?}"
                    );
                }
            }
        }
    }
}

/// The forced-fallback CI job (`DFT_SIMD=scalar`) must actually run the
/// portable tile; conversely the tier can never exceed the hardware.
#[test]
fn forced_fallback_env_is_honored() {
    let tier = simd::active_tier();
    assert!(tier <= simd::hw_cap());
    if matches!(
        std::env::var("DFT_SIMD").ok().as_deref(),
        Some("scalar") | Some("off")
    ) {
        assert_eq!(tier, SimdTier::Scalar);
    }
}

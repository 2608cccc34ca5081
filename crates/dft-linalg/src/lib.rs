//! # dft-linalg
//!
//! Dense and mixed-precision linear algebra implemented from scratch
//! for the DFT-FE-MLXC reproduction: the subspace kernels of the paper's
//! Chebyshev Filtered Eigensolver (Algorithm 1: CholGS, Rayleigh-Ritz) and
//! the inverse-DFT adjoint solver. The filter's `H X` itself is not here: it
//! is the matrix-free sum-factorized cell sweep of `dft-fem`.
//!
//! * [`Matrix`] — column-major dense matrix over a generic [`Scalar`]
//!   (`f64`, `f32`, or complex [`C64`]/[`C32`] for Bloch / k-point paths);
//! * [`gemm`] — general matrix-matrix multiply with conjugate-transpose ops,
//!   rayon-parallel, plus mixed FP32/FP64 variants used by the paper's
//!   mixed-precision CholGS / Rayleigh-Ritz steps (Sec. 5.4.2);
//! * [`chol`] — Cholesky factorization / triangular inversion for the
//!   CholGS-CI step;
//! * [`eig`] — the Hermitian/symmetric eigensolver of the RR-D step:
//!   Householder tridiagonalization plus implicit-shift QL for the real and
//!   the complex Hermitian path (cyclic Jacobi is its test oracle);
//! * [`iterative`] — CG (Hartree/Poisson solves) and the preconditioned
//!   **block**-MINRES of the paper's adjoint solve (Sec. 5.3.1).

#![deny(unsafe_code)]
// simd.rs opts back in locally for std::arch intrinsics
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod blas1;
pub mod chol;
pub mod eig;
pub mod gemm;
pub mod iterative;
pub mod matrix;
pub mod pack;
pub mod scalar;
pub mod simd;

pub use blas1::{axpy, dot, nrm2};
pub use chol::{cholesky, cholesky_inverse, tri_inv_lower};
pub use eig::{eigh, Eigh};
pub use gemm::{gemm, gemm_mixed, gemm_reference, Op};
pub use iterative::{block_minres, cg, IterStats, LinearOperator, Preconditioner};
pub use matrix::Matrix;
pub use pack::{with_scratch, PackBuf};
pub use scalar::{Real, Scalar, C32, C64};
pub use simd::SimdTier;

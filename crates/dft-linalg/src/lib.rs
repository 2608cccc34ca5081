//! # dft-linalg
//!
//! Dense, batched and mixed-precision linear algebra implemented from scratch
//! for the DFT-FE-MLXC reproduction. Every kernel used by the paper's
//! Chebyshev Filtered Eigensolver (Algorithm 1) and the inverse-DFT adjoint
//! solver lives here:
//!
//! * [`Matrix`] — column-major dense matrix over a generic [`Scalar`]
//!   (`f64`, `f32`, or complex [`C64`]/[`C32`] for Bloch / k-point paths);
//! * [`gemm`] — general matrix-matrix multiply with conjugate-transpose ops,
//!   rayon-parallel, plus mixed FP32/FP64 variants used by the paper's
//!   mixed-precision CholGS / Rayleigh-Ritz steps (Sec. 5.4.2);
//! * [`batched`] — the `xGEMMStridedBatched` analogue used for FE cell-level
//!   dense linear algebra (Sec. 5.4.1);
//! * [`chol`] — Cholesky factorization / triangular inversion for the
//!   CholGS-CI step;
//! * [`eig`] — the Hermitian/symmetric eigensolver of the RR-D step:
//!   Householder tridiagonalization plus implicit-shift QL for the real and
//!   the complex Hermitian path (cyclic Jacobi is its test oracle);
//! * [`iterative`] — CG (Hartree/Poisson solves), MINRES and the
//!   preconditioned **block**-MINRES of the paper's adjoint solve (Sec. 5.3.1).

#![deny(unsafe_code)]
// simd.rs opts back in locally for std::arch intrinsics
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod batched;
pub mod blas1;
pub mod chol;
pub mod eig;
pub mod gemm;
pub mod iterative;
pub mod matrix;
pub mod pack;
pub mod scalar;
pub mod simd;

pub use batched::{batched_gemm, batched_gemm_reference, BatchLayout};
pub use blas1::{axpy, dot, nrm2};
pub use chol::{cholesky, cholesky_inverse, tri_inv_lower};
pub use eig::{eigh, Eigh};
pub use gemm::{gemm, gemm_mixed, gemm_reference, Op};
pub use iterative::{block_minres, cg, minres, IterStats, LinearOperator, Preconditioner};
pub use matrix::Matrix;
pub use pack::{with_pack_buf, with_scratch, with_scratch3, PackBuf};
pub use scalar::{Real, Scalar, C32, C64};
pub use simd::SimdTier;

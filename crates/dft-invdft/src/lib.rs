//! # dft-invdft
//!
//! The paper's **invDFT** module (Sec. 5.1): given a target electron
//! density `rho*` from a quantum many-body calculation, find the exact
//! exchange-correlation potential `v_xc(r)` whose Kohn-Sham ground state
//! reproduces it — "a powerful link between QMB methods and DFT" and an
//! open problem for 30 years because of Gaussian-basis ill-conditioning.
//!
//! Formulation (paper Eqs. 1-2): minimize the density mismatch
//!
//! ```text
//! J[v_xc] = 1/2 integral (rho_KS[v_xc] - rho*)^2 dV
//! ```
//!
//! subject to the KS eigenproblem. Each outer iteration:
//!
//! 1. solve the KS eigenproblem at the current `v_xc` with the SCF's own
//!    eigensolve step (`dft_core::chebyshev::ks_eigensolve`: Lanczos
//!    bounds, filter window, ChFES passes) and density build;
//! 2. build the adjoint right-hand sides
//!    `g_i = -2 f_i P_i^perp (delta_rho . psi_i)`;
//! 3. solve the shifted adjoint systems `(H - eps_i) p_i = g_i` with the
//!    **preconditioned block-MINRES** of Sec. 5.3.1 (inverse diagonal of
//!    the FE Laplacian as preconditioner — the paper reports ~5x fewer
//!    iterations from it, reproduced in this crate's tests);
//! 4. steepest-descent update `v_xc <- v_xc - beta u` with
//!    `u = sum_i p_i psi_i` (the paper's update field), with adaptive step
//!    control and an optional far-field `-1/r`-type boundary tether.
//!
//! The same FE ingredients that make the forward problem systematically
//! convergent make the inverse problem well-conditioned — the paper's
//! central methodological claim, demonstrated here by recovering a hidden
//! functional's potential from its density alone (DESIGN.md S2).

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

mod cusp;
pub mod invert;

pub use invert::{invert, InvDftConfig, InvDftResult};

//! # dft-qmb
//!
//! A genuine quantum many-body (QMB) solver for a model universe — the
//! Level-4+ rung of the paper's accuracy ladder (Fig. 1), built so its
//! *scaling wall* and its *reference densities* are real, not asserted.
//!
//! The paper's invDFT consumes CI/CC densities of H2, LiH, Li, N, Ne.
//! Full 3D Gaussian-basis CI is out of scope (DESIGN.md S2). This crate's
//! 1D densities do **not** feed this reproduction's invDFT: its 3D targets
//! are ground states of the hidden-truth functional
//! (`dft_core::xc::SyntheticTruth`, see `dft_bench::pipeline`), and the FCI
//! here is reached only by Fig. 1's cost-scaling ladder. What it implements
//! is the standard model universe of ML-XC research: **1D soft-Coulomb
//! quantum chemistry**,
//!
//! ```text
//! H = sum_i [-1/2 d^2/dx_i^2 + v_ext(x_i)] + sum_{i<j} 1/sqrt((x_i-x_j)^2 + 1)
//! v_ext(x) = -sum_a Z_a / sqrt((x - X_a)^2 + 1)
//! ```
//!
//! solved by **full configuration interaction** (every Slater determinant
//! in an orbital basis, Davidson-diagonalized). The exponential growth of
//! the determinant space with electron count is the paper's Fig.-1
//! "Level 4 & beyond" wall, measured directly by [`scaling`].
//!
//! * [`grid1d`] — real-space grid, single-particle eigenbasis;
//! * [`integrals`] — one- and two-electron integrals in that basis;
//! * [`fci`] — determinant enumeration (bit strings), Slater-Condon sigma
//!   builder, Davidson solver, 1-RDM and real-space density;
//! * [`model`] — the benchmark systems (1D analogues of the paper's
//!   training set);
//! * [`scaling`] — cost/dimension probes for the Fig. 1 reproduction.

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod fci;
pub mod grid1d;
pub mod integrals;
pub mod model;
pub mod scaling;

pub use fci::{FciProblem, FciResult};
pub use grid1d::Grid1d;
pub use integrals::OrbitalIntegrals;
pub use model::SoftCoulombSystem;

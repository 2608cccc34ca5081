//! # dft-fem
//!
//! Spatially adaptive, higher-order **spectral finite elements** — the
//! discretization substrate of DFT-FE-MLXC.
//!
//! The paper discretizes the Kohn-Sham problem in a Löwdin-orthonormalized
//! adaptive spectral FE basis of polynomial degree p = 6-8 (Sec. 5.4.1).
//! This crate reproduces that substrate:
//!
//! * [`gll`] — Gauss-Lobatto-Legendre (GLL) quadrature;
//! * [`basis`] — 1D Lagrange bases on GLL nodes with barycentric
//!   differentiation matrices;
//! * [`mesh`] — tensor-product hexahedral meshes with per-axis grading
//!   toward atomic positions (the stand-in for octree adaptivity, see
//!   DESIGN.md S4) and Dirichlet / periodic boundary conditions;
//! * [`space`] — the [`space::FeSpace`]: global DoF numbering, the diagonal
//!   GLL mass matrix (which *is* the Löwdin orthonormalization here),
//!   cell-level stiffness application via tensor sum-factorization (one
//!   blocked cell sweep, the only route any apply takes), and the dense
//!   per-cell matrices that the paper's `xGEMMStridedBatched` kernel
//!   multiplies, kept here as the sweep's oracle;
//! * [`poisson`] — FE Poisson solves for the Hartree and nuclear
//!   electrostatic potentials (CG verifying the exact tensor-product
//!   fast-diagonalization inverse of the stiffness);
//! * [`field`] — nodal scalar fields: integration, gradients (recovery),
//!   interpolation/evaluation.
//!
//! Bloch phases for k-point sampling enter through the periodic
//! gather/scatter (see [`space::FeSpace::gather_block`]), which is how the
//! complex wavefunction path of the paper's Mg-Y systems is exercised.

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod basis;
pub mod field;
pub mod gll;
pub mod mesh;
pub mod partition;
pub mod poisson;
pub mod space;

pub use basis::Lagrange1d;
pub use field::NodalField;
pub use gll::gauss_lobatto_legendre;
pub use mesh::{Axis, BoundaryCondition, Mesh3d};
pub use partition::{dof_owners, node_owners, partition_cells, CellRange};
pub use poisson::{solve_poisson, PoissonBc};
pub use space::{CellSweep, FeSpace, RowSlab, StiffnessOperator};

//! # dft-fe-mlxc
//!
//! Umbrella crate for the Rust reproduction of the SC'23 Gordon Bell winner
//! *"Large-Scale Materials Modeling at Quantum Accuracy"* (DFT-FE-MLXC).
//!
//! Re-exports the workspace crates so examples and downstream users can
//! depend on a single crate:
//!
//! * [`linalg`] — dense / mixed-precision linear algebra
//! * [`fem`] — adaptive higher-order spectral finite elements
//! * [`hpc`] — simulated exascale runtime + machine performance models
//! * [`qmb`] — model quantum many-body (full CI) solver
//! * [`mlxc`] — machine-learned exchange-correlation functional
//! * [`core`] — the Kohn-Sham DFT solver (ChFES, SCF)
//! * [`invdft`] — inverse DFT (exact XC potentials from densities)
//! * [`materials`] — quasicrystal & defect structure generators

pub use dft_core as core;
pub use dft_fem as fem;
pub use dft_hpc as hpc;
pub use dft_invdft as invdft;
pub use dft_linalg as linalg;
pub use dft_materials as materials;
pub use dft_mlxc as mlxc;
pub use dft_qmb as qmb;

//! # dft-core
//!
//! The Kohn-Sham DFT solver of the DFT-FE-MLXC reproduction — the paper's
//! "DFT-FE-MLXC" module (Secs. 5.3-5.4) at miniature scale, numerically
//! real in every respect:
//!
//! * [`system`] — atoms with Gaussian-smeared local pseudopotentials (the
//!   ONCV substitution of DESIGN.md S3) or all-electron-style nuclei;
//! * [`math`] — the special function (erfc) the electrostatics needs;
//! * [`xc`] — exchange-correlation: LDA (PW92), GGA (PBE), the
//!   **hidden-truth** functional that stands in for quantum many-body
//!   reference data (DESIGN.md S2), and the MLXC adapter wrapping
//!   [`dft_mlxc::MlxcModel`] with the FE divergence assembly;
//! * [`hamiltonian`] — the discrete KS Hamiltonian in the
//!   Löwdin-orthonormalized (diagonal-mass) spectral FE basis, applied
//!   matrix-free through cell-level kernels, generic over real (Γ-point)
//!   and complex (Bloch k-point) scalars;
//! * [`chebyshev`] — ChFES, Algorithm 1 verbatim: Chebyshev filtering (CF),
//!   Cholesky Gram-Schmidt (CholGS) and Rayleigh-Ritz (RR), with the
//!   paper's mixed-precision variants, and [`ks_eigensolve`], the one
//!   Kohn-Sham eigensolve step (spectral bounds, filter window, ChFES
//!   passes) the SCF and inverse DFT share;
//! * [`occupation`] — Fermi-Dirac smearing with chemical-potential
//!   bisection and the smearing entropy;
//! * [`mixing`] — Anderson (Pulay) density mixing;
//! * [`scf`] — the self-consistent field loop and the total (free)
//!   energy assembly with Gaussian-nucleus electrostatics; [`scf()`] is
//!   its solve on a one-rank cluster;
//! * [`relax`] — the FIRE and velocity-Verlet integrators that move atoms
//!   on Hellmann-Feynman forces;
//! * [`cluster`] — the rank's half of the solver, from the domain
//!   decomposition to the rank's side of the SCF loop and its snapshots,
//!   the one force assembly ([`forces`] holds its partial sums;
//!   [`compute_forces`] is it on a one-rank cluster), the one trajectory
//!   loop that steps those integrators, and the relaunch loop that
//!   recovers a run from rank loss.

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod chebyshev;
pub mod cluster;
pub mod forces;
pub mod hamiltonian;
pub mod math;
pub mod mixing;
pub mod occupation;
pub mod relax;
pub mod scf;
pub mod system;
pub mod xc;

pub use chebyshev::{
    chebyshev_filter_flops, chfes, chfes_reduced, ks_eigensolve, lanczos_bounds, CfScratch,
    ChfesOptions, NoReduce, SubspaceReducer,
};
pub use forces::{
    compute_forces, electrostatic_force_partial, force_poisson, ion_ion_force_partial, max_force,
    ForceError,
};
pub use hamiltonian::{HamOperator, KsHamiltonian};
pub use mixing::AndersonMixer;
pub use occupation::{fermi_occupations, OccupationResult};
pub use relax::{FireState, RelaxConfig, VerletState};
pub use scf::{scf, KPoint, ScfConfig, ScfResult, TotalEnergy};
pub use system::{Atom, AtomKind, AtomicSystem};
pub use xc::{FeDivergence, Lda, MlxcFunctional, Pbe, SyntheticTruth, XcEvaluation, XcFunctional};

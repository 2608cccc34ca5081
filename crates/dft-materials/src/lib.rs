//! # dft-materials
//!
//! Atomic-structure generators for the paper's two science applications
//! (Sec. 6.2):
//!
//! * [`quasicrystal`] — Tsai-type icosahedral **YbCd quasicrystal**
//!   nanoparticles via the 6D cut-and-project method (aperiodic,
//!   long-range-ordered; Yb295Cd1648-class particles for the stability
//!   study);
//! * [`mg`] — HCP magnesium supercells;
//! * [`defects`] — pyramidal ⟨c+a⟩ **screw dislocations** (Volterra
//!   fields) and random Y **solutes** at 1 at.% (the DislocMgY /
//!   TwinDislocMgY benchmark family);
//! * [`requests`] — the strain-scan burst family a job server sees, derived
//!   from one base structure;
//! * [`structure`] — the shared [`structure::Structure`] type.
//!
//! All generators are deterministic given their seeds.

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod defects;
pub mod mg;
pub mod quasicrystal;
pub mod requests;
pub mod structure;

pub use defects::{random_solutes, screw_dislocation_z};
pub use mg::hcp_supercell;
pub use quasicrystal::{icosahedral_quasicrystal, nanoparticle, QcParams};
pub use requests::strain_scan;
pub use structure::Structure;

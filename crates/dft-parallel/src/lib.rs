//! # dft-parallel
//!
//! The distributed drivers around the rank solver and the force assembly
//! of [`dft_core::cluster`], which this crate re-exports at their
//! established paths ([`checkpoint`], [`decomp`], [`forces`], [`grid`],
//! [`operator`], [`reduce`], [`scf`], the root):
//!
//! * [`relax`] — one trajectory loop, stepping FIRE ([`dist_relax`]) or
//!   velocity-Verlet BO-MD ([`dist_md`]), each step's SCF warm-started
//!   from the previous one's snapshot, preemptible and fault-recoverable;
//! * [`recover`] — one relaunch loop behind [`scf_with_recovery`] and
//!   [`relax_with_recovery`]: on rank loss the run resumes from the newest
//!   complete snapshot at a reduced rank count.
//!
//! Every rank entry point runs on its `1 / size` share of the cores, and a
//! server's job thread on its gang's share ([`with_thread_share`]).

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod recover;
pub mod relax;

pub use dft_core::cluster::{checkpoint, decomp, forces, grid, operator, reduce, scf};
pub use dft_core::threads::with_thread_share;

pub use checkpoint::{LoadedCheckpoint, ReplicatedScfState};
pub use decomp::Decomposition;
pub use forces::{distributed_forces, distributed_forces_profiled, ForceAssemblyProfile};
pub use grid::{GridShape, ProcessGrid};
pub use operator::{ghost_tag_band, DistHamiltonian, DistSpace, SharedComm, WireScalar};
pub use recover::{relax_with_recovery, scf_with_recovery, RecoveryReport};
pub use reduce::{CommVolume, GridReducer};
pub use relax::{
    dist_md, dist_relax, DistRelaxConfig, DistRelaxResult, MdConfig, RelaxError, RelaxStepRecord,
};
pub use scf::{distributed_scf, DistScfConfig, DistScfResult, PreemptToken, ScfError};

//! # dft-parallel
//!
//! The distributed-memory Kohn-Sham solver: the paper's massively parallel
//! ChFES (Secs. 5.4.1-5.4.2) realized on the threaded MPI stand-in of
//! [`dft_hpc::comm`]. Ranks sit on one domain x band x k-group process
//! grid ([`grid`]; the plain slab is its `n x 1 x 1` instance, not a
//! second solver): the FE mesh is split into contiguous slabs of cells
//! along the domain axis, wavefunction blocks are sharded by owned DoF
//! rows and band columns, and the dense subspace steps (CholGS,
//! Rayleigh-Ritz) run through the reduction-hooked
//! [`dft_core::chfes_reduced`] with cross-rank reductions.
//!
//! * [`decomp`] — per-rank owned/ghost DoF maps derived deterministically
//!   from [`dft_fem::partition`] (no setup communication);
//! * [`operator`] — the distributed stiffness / Hamiltonian apply: ghost
//!   exchange posted with nonblocking `isend`, *overlapped* with
//!   interior-cell sum-factorized compute, harvested with `try_recv`, and
//!   reverse-accumulated in deterministic rank order — with
//!   [`WirePrecision`](dft_hpc::WirePrecision) selecting FP64 or FP32
//!   boundary payloads (the paper's comm-halving trick);
//! * [`reduce`] — the [`GridReducer`] that sums each rank's band block of
//!   a subspace matrix along its grid row and reassembles the matrix along
//!   its grid column, leaving bit-identical results on every rank;
//! * [`scf`] — the cluster side of the one SCF loop. The iteration itself
//!   is [`dft_core::scf::scf_loop`], shared with the serial solver: it
//!   owns the replicated electrostatics and XC, the filter-window rule,
//!   occupations, density and energy assembly, residual, convergence and
//!   profiling. This module supplies its [`ScfSeam`](dft_core::scf::ScfSeam)
//!   — this rank's rows, band columns and k-points on the process grid,
//!   the distributed operators and reducers for a ChFES pass, the density
//!   / Anderson-Gram allreduce, the cross-k-group exchange, the
//!   top-of-iteration preemption / snapshot / fault-epoch hook and the
//!   failure probe — plus restart selection, per-rank
//!   [`ScfProfile`](dft_hpc::ScfProfile)s and a comm-volume report;
//! * [`checkpoint`] — versioned, checksummed per-rank SCF snapshots
//!   (density, wavefunction shards, mixer history, chemical potential)
//!   written every `checkpoint_every` iterations through the crate's one
//!   durable-file writer, which the trajectory state shares;
//! * [`recover`] — one relaunch loop (run, classify errors, drop dead
//!   ranks, restart on the survivors' slab) behind [`scf_with_recovery`] and
//!   [`relax_with_recovery`]: on rank loss the survivors return
//!   [`ScfError::RankLost`] within the communicator deadline (never a
//!   hang) and the run resumes from the newest complete snapshot at a
//!   reduced rank count;
//! * [`forces`] — distributed Hellmann-Feynman force assembly: replicated
//!   force Poisson solve, owned-node electrostatic quadrature plus a
//!   rank-sharded ion-ion image sum, reassembled by one fixed-rank-order
//!   allreduce (bit-identical across ranks and repeated runs);
//! * [`relax`] — one trajectory loop with wavefunction extrapolation,
//!   stepping FIRE ([`dist_relax`]) or velocity-Verlet BO-MD
//!   ([`dist_md`]): each geometry step's SCF warm-starts from the previous
//!   step's converged density and psi shards through the
//!   checkpoint/`restart_from` machinery, and a checksummed loop-state
//!   file makes either trajectory preemptible and fault-recoverable;
//! * [`threads`] — ranks × threads ≤ cores: every rank entry point
//!   ([`distributed_scf`], the two trajectory entry points,
//!   [`distributed_forces`]) runs on its `1 / size` share of the cores, and
//!   a server's job thread on its gang's share of the pool
//!   ([`with_thread_share`], re-exported from [`dft_core::threads`], the
//!   one cap helper that the serial solver's k-point lanes also use).

#![deny(unsafe_code)]
// indexed loops deliberately mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
mod codec;
pub mod decomp;
pub mod forces;
pub mod grid;
pub mod operator;
pub mod recover;
pub mod reduce;
pub mod relax;
pub mod scf;
pub mod threads;

pub use checkpoint::{LoadedCheckpoint, ReplicatedScfState};
pub use decomp::Decomposition;
pub use forces::{
    distributed_forces, distributed_forces_profiled, DistForceError, ForceAssemblyProfile,
};
pub use grid::{GridShape, ProcessGrid};
pub use operator::{ghost_tag_band, DistHamiltonian, DistSpace, SharedComm, WireScalar};
pub use recover::{relax_with_recovery, scf_with_recovery, RecoveryReport};
pub use reduce::{CommVolume, GridReducer};
pub use relax::{
    dist_md, dist_relax, DistRelaxConfig, DistRelaxResult, MdConfig, RelaxError, RelaxStepRecord,
};
pub use scf::{distributed_scf, DistScfConfig, DistScfResult, PreemptToken, ScfError};
pub use threads::with_thread_share;

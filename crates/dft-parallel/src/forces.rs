//! Distributed Hellmann-Feynman force assembly.
//!
//! The force evaluation splits the same way the SCF does: the
//! electrostatic potential `phi` of `rho_ion - rho_e` is a replicated
//! nodal field (every rank recomputes it identically from the replicated
//! density — no communication, same bytes everywhere), while the
//! O(atoms x nodes) quadrature loop — the serial bottleneck — is
//! partitioned by the decomposition's owned nodes. Each rank sums
//! [`electrostatic_force_partial`] over its owned nodes (masked to the
//! (band 0, k-group 0) replica of each domain slot so grid layouts count
//! every node exactly once) plus a round-robin shard of the ion-ion image
//! sum, and one fixed-rank-order `allreduce_sum_f64` reassembles the
//! serial result bit-for-bit on every rank: the collective gathers to
//! rank 0 and accumulates in ascending rank order regardless of arrival,
//! so repeated runs are bit-identical (L004).

use crate::grid::GridShape;
use crate::operator::DistSpace;
use dft_core::forces::{
    electrostatic_force_partial, force_poisson, ion_ion_force_partial, ForceError,
};
use dft_core::system::AtomicSystem;
use dft_core::threads::rank_threads;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{CommError, ThreadComm, WirePrecision};
use std::time::Instant;

/// Why a distributed force evaluation failed.
#[derive(Clone, Debug)]
pub enum DistForceError {
    /// The (replicated) force Poisson solve diverged — identically on
    /// every rank, so all ranks return this error together.
    Force(ForceError),
    /// The force reduction lost a peer.
    Comm(CommError),
}

impl std::fmt::Display for DistForceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistForceError::Force(e) => write!(f, "{e}"),
            DistForceError::Comm(e) => write!(f, "force reduction failed: {e}"),
        }
    }
}

impl std::error::Error for DistForceError {}

impl From<ForceError> for DistForceError {
    fn from(e: ForceError) -> Self {
        DistForceError::Force(e)
    }
}

/// Per-rank wall-clock breakdown of one distributed force evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForceAssemblyProfile {
    /// Replicated Poisson solve for the force potential (identical work
    /// on every rank by design — not part of the distributed speedup).
    pub poisson_s: f64,
    /// This rank's partial assembly: owned-node electrostatic quadrature
    /// plus the ion-ion image shard. This is the term the decomposition
    /// actually divides; the cluster's critical path is its max over
    /// ranks.
    pub assembly_s: f64,
    /// The force allreduce (includes wait on slower ranks).
    pub reduce_s: f64,
}

/// Distributed Hellmann-Feynman forces for a converged replicated density
/// `rho_e` (full nodal field, identical on every rank — e.g.
/// `DistScfResult::density`). Call from every rank of a cluster with
/// identical arguments; returns the full per-atom force table, replicated
/// and bit-identical across ranks and across repeated runs. `grid`
/// selects the decomposition (must tile the rank count); `None` is the
/// `n x 1 x 1` slab.
// dftlint:allow(L009, reason="the force oracle of dft-parallel/tests/forces.rs and tests/schedule.rs")
pub fn distributed_forces(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
    grid: Option<GridShape>,
) -> Result<Vec<[f64; 3]>, DistForceError> {
    distributed_forces_profiled(comm, space, system, rho_e, grid).map(|(f, _)| f)
}

/// [`distributed_forces`] with a per-rank timing breakdown; the
/// `benchmark/` layer ladder's `parallel.forces` probe calls this entry.
/// Runs on this rank's share of the cores ([`dft_core::threads`]).
pub fn distributed_forces_profiled(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
    grid: Option<GridShape>,
) -> Result<(Vec<[f64; 3]>, ForceAssemblyProfile), DistForceError> {
    rank_threads(comm, |comm| forces_rank(comm, space, system, rho_e, grid))
}

/// [`distributed_forces_profiled`] for a caller that already runs on its
/// rank's thread share (a relaxation or MD step).
pub(crate) fn forces_rank(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
    grid: Option<GridShape>,
) -> Result<(Vec<[f64; 3]>, ForceAssemblyProfile), DistForceError> {
    let (rank, nranks) = (comm.rank(), comm.size());
    let dist = DistSpace::on_grid(space, grid, rank, nranks);
    let dec = &dist.dec;
    let mut prof = ForceAssemblyProfile::default();

    // replicated potential: identical recomputation (and identical
    // failure) on every rank, so an early Err cannot desynchronize the
    // cluster — nobody reaches the allreduce
    let t0 = Instant::now();
    let phi = force_poisson(space, system, rho_e)?;
    prof.poisson_s = t0.elapsed().as_secs_f64();

    // owned-node electrostatic partial + ion-ion image shard. The node
    // mask keeps exactly the (band 0, k-group 0) replica of each owned
    // node; the ion shard round-robins atoms over *global* ranks, so the
    // two partitions each tile their serial sum once.
    let t1 = Instant::now();
    let owns = dist.grid.owns_replicated_fields();
    let mask: Vec<bool> = dec.owned_node.iter().map(|&o| o && owns).collect();
    let es = electrostatic_force_partial(space, system, &phi, Some(&mask));
    let ii = ion_ion_force_partial(space, system, rank, nranks);
    let n_at = system.atoms.len();
    let mut buf = vec![0.0f64; 3 * n_at];
    for a in 0..n_at {
        for k in 0..3 {
            buf[3 * a + k] = es[a][k] + ii[a][k];
        }
    }
    prof.assembly_s = t1.elapsed().as_secs_f64();

    // one deterministic reduction: gather-to-root, ascending-rank FP64
    // accumulation, broadcast — replicated and repeatable bit-for-bit
    let t2 = Instant::now();
    comm.allreduce_sum_f64(&mut buf, WirePrecision::Fp64)
        .map_err(DistForceError::Comm)?;
    prof.reduce_s = t2.elapsed().as_secs_f64();

    let mut forces = vec![[0.0f64; 3]; n_at];
    for a in 0..n_at {
        for k in 0..3 {
            forces[a][k] = buf[3 * a + k];
        }
    }
    Ok((forces, prof))
}

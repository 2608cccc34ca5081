//! The one Hellmann-Feynman force assembly: a rank's share, reassembled by
//! one fixed-rank-order allreduce; [`crate::forces::compute_forces`] is it
//! on a one-rank cluster.
//!
//! The force evaluation splits the same way the SCF does: the
//! electrostatic potential `phi` of `rho_ion - rho_e` is a replicated
//! nodal field (every rank recomputes it identically from the replicated
//! density — no communication, same bytes everywhere), while the
//! O(atoms x nodes) quadrature loop is partitioned by the decomposition's
//! owned nodes. Each rank sums [`electrostatic_force_partial`] over the
//! nodes it speaks for ([`DistSpace::owns_node`], so grid layouts count
//! every node exactly once) plus a round-robin shard of the ion-ion image
//! sum, and one `allreduce_sum_f64` reassembles the total on every rank:
//! the collective gathers to rank 0 and accumulates in ascending rank order
//! regardless of arrival, so repeated runs are bit-identical (L004). On one
//! rank the mask is all true and the one-member allreduce copies nothing,
//! so the result is the two full partials summed.

use super::grid::GridShape;
use super::operator::DistSpace;
use crate::forces::{
    electrostatic_force_partial, force_poisson, ion_ion_force_partial, ForceError,
};
use crate::system::AtomicSystem;
use crate::threads::rank_threads;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{ThreadComm, WirePrecision};
use std::time::Instant;

/// Per-rank wall-clock breakdown of one force evaluation.
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

/// Hellmann-Feynman forces for a converged replicated density `rho_e`
/// (full nodal field, identical on every rank — e.g.
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
) -> Result<Vec<[f64; 3]>, ForceError> {
    distributed_forces_profiled(comm, space, system, rho_e, grid).map(|(f, _)| f)
}

/// [`distributed_forces`] with a per-rank timing breakdown; the
/// `benchmark/` layer ladder's `parallel.forces` probe calls this entry.
/// Runs on this rank's share of the cores ([`crate::threads`]).
pub fn distributed_forces_profiled(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
    grid: Option<GridShape>,
) -> Result<(Vec<[f64; 3]>, ForceAssemblyProfile), ForceError> {
    rank_threads(comm, |comm| forces_rank(comm, space, system, rho_e, grid))
}

/// [`distributed_forces_profiled`] for a caller that already runs on its
/// rank's thread share (a relaxation or MD step, a one-rank cluster).
pub fn forces_rank(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
    grid: Option<GridShape>,
) -> Result<(Vec<[f64; 3]>, ForceAssemblyProfile), ForceError> {
    let (rank, nranks) = (comm.rank(), comm.size());
    let dist = DistSpace::on_grid(space, grid, rank, nranks);
    let mut prof = ForceAssemblyProfile::default();

    // replicated potential: identical recomputation (and identical
    // failure) on every rank, so an early Err cannot desynchronize the
    // cluster — nobody reaches the allreduce
    let t0 = Instant::now();
    let phi = force_poisson(space, system, rho_e)?;
    prof.poisson_s = t0.elapsed().as_secs_f64();

    // the nodes this rank speaks for + the ion-ion image shard; the ion
    // shard round-robins atoms over *global* ranks, so the two partitions
    // each tile their whole sum once
    let t1 = Instant::now();
    let mask: Vec<bool> = (0..space.nnodes()).map(|n| dist.owns_node(n)).collect();
    let es = electrostatic_force_partial(space, system, &phi, &mask);
    let ii = ion_ion_force_partial(space, system, rank, nranks);
    let mut buf: Vec<f64> = es
        .iter()
        .zip(&ii)
        .flat_map(|(e, i)| (0..3).map(move |k| e[k] + i[k]))
        .collect();
    prof.assembly_s = t1.elapsed().as_secs_f64();

    // one deterministic reduction: gather-to-root, ascending-rank FP64
    // accumulation, broadcast — replicated and repeatable bit-for-bit
    let t2 = Instant::now();
    comm.allreduce_sum_f64(&mut buf, WirePrecision::Fp64)
        .map_err(ForceError::Comm)?;
    prof.reduce_s = t2.elapsed().as_secs_f64();

    let forces = buf.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    Ok((forces, prof))
}

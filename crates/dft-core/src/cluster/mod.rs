//! The rank's half of the one SCF solver, on the threaded MPI stand-in of
//! [`dft_hpc::comm`] (the paper's parallel ChFES, Secs. 5.4.1-5.4.2):
//! [`decomp`] splits the mesh into cell slabs with owned/ghost DoF maps,
//! [`grid`] places ranks on a domain x band x k-group grid, [`operator`]
//! applies the Hamiltonian with overlapped ghost exchange, [`reduce`]
//! reduces the subspace matrices along the grid, [`scf`] is the rank's side
//! of the SCF loop, [`checkpoint`] / [`codec`] write its snapshots,
//! [`forces`] is the one Hellmann-Feynman force assembly, [`relax`] is the
//! one trajectory loop (FIRE relaxation or BO-MD, each step's SCF
//! warm-started from the previous one's snapshot), and [`recover`] is the
//! one relaunch loop that resumes an SCF or a trajectory from its newest
//! complete snapshot after rank loss. The serial [`crate::scf::scf`] and
//! [`crate::forces::compute_forces`] are these on a one-rank grid.

pub mod checkpoint;
pub mod codec;
pub mod decomp;
pub mod forces;
pub mod grid;
pub mod operator;
pub mod recover;
pub mod reduce;
pub mod relax;
pub mod scf;

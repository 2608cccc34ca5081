//! The names `benchmark/src` imports, re-exported from
//! [`dft_core::cluster`], where the distributed solver lives. The crate
//! holds no code and goes once `benchmark/` imports from `dft_core`.

pub use dft_core::cluster::decomp::Decomposition;
pub use dft_core::cluster::forces::distributed_forces_profiled;
pub use dft_core::cluster::operator::{DistHamiltonian, DistSpace, SharedComm};
pub use dft_core::cluster::relax::{dist_relax, DistRelaxConfig, DistRelaxResult};
pub use dft_core::cluster::scf::{distributed_scf, DistScfConfig};
pub use dft_core::cluster::{checkpoint, operator};
pub use dft_core::scf::ScfResult as DistScfResult;

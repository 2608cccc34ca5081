//! # dft-serve
//!
//! A multi-tenant, asynchronous DFT job server over the distributed solver
//! of [`dft_core::cluster`] — the serving layer a shared "materials-screening
//! service" runs: many small-to-medium Kohn-Sham jobs from many tenants,
//! multiplexed onto one bounded pool of ranks.
//!
//! * [`job`] — the typed API: [`JobRequest`]s (SCF / relaxation,
//!   structure + mesh + functional + grid hints) in,
//!   [`JobOutcome`]s out, [`AdmissionError`]s at the door (bounded queue
//!   depth and per-tenant quotas, with `retry_after` backoff hints);
//! * [`scheduler`] — the gang scheduler: priority classes drain first,
//!   tenants round-robin within a class, gangs get `min(requested, free)`
//!   ranks, and a saturated pool preempts its cheapest victim through a
//!   cluster-consensus [`PreemptToken`](dft_core::cluster::scf::PreemptToken) —
//!   the victim snapshots and is requeued to resume from its own
//!   checkpoints on whatever rank count is free later (checkpoints
//!   reshard across rank counts and grid shapes);
//! * [`cache`] — the converged-state cache: finished jobs export their
//!   converged density, mixer history, filter windows and wavefunctions
//!   keyed by a canonical problem hash ([`cachekey`]), so resubmissions
//!   of the same physics warm-start and converge in a few iterations;
//!   plus the shared-`FeSpace` cache that amortizes gather/scatter table
//!   setup across jobs on the same mesh;
//! * [`pool`] — rank-slot accounting, including *burning* ranks lost to
//!   faults: recovery returns the survivors to the pool and the capacity
//!   honestly shrinks;
//! * [`server`] — the front door: [`DftServer::start`] /
//!   [`DftServer::submit`] / [`DftServer::drain`] and per-job
//!   [`JobTicket`]s.

#![deny(unsafe_code)]

pub mod cache;
pub mod cachekey;
pub mod job;
pub mod pool;
pub mod scheduler;
pub mod server;

pub use cache::{ConvergedCache, SpaceCache};
pub use cachekey::{cache_key, mesh_key};
pub use job::{
    AdmissionError, Functional, JobKind, JobOutcome, JobRequest, JobSpec, JobStatus, MeshSpec,
    Priority,
};
pub use pool::RankPool;
pub use scheduler::{ServerConfig, ServerStats};
pub use server::{DftServer, JobTicket};

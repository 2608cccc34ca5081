//! The converged-state cache and the shared-discretization cache.
//!
//! When a job converges, the SCF driver exports a complete warm-start
//! snapshot of the *converged* state (final density, mixer history, filter
//! windows, wavefunctions — labeled iteration 1 so a resume skips the
//! expensive first-iteration multi-pass filtering) into the job's own
//! directory. The scheduler then publishes `canonical key -> snapshot
//! path` here; a later submission with the same key warm-starts through
//! `DistScfConfig::restart_from` and converges in a few iterations.
//!
//! The entry points directly at the *donor job's* directory — snapshots
//! are never copied into a shared directory, so the two-writers-prune-
//! each-other hazard of [`dft_core::cluster::checkpoint::finalize`] cannot
//! arise (readers only read; each directory has exactly one writer).
//!
//! Separately, [`SpaceCache`] shares one [`FeSpace`] — with its
//! precomputed cell-to-node gather/scatter tables — among all jobs on the
//! same mesh, whatever their atoms. Building those tables dwarfs a
//! miniature SCF, so serving many small jobs from a handful of meshes
//! amortizes the setup to nearly zero.

use crate::cachekey::mesh_key;
use crate::job::MeshSpec;
use dft_fem::space::FeSpace;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// `canonical cache key -> directory holding the donor job's converged
/// snapshot`. Owned by the scheduler thread; deliberately unsynchronized.
#[derive(Debug, Default)]
pub struct ConvergedCache {
    entries: BTreeMap<u64, PathBuf>,
    hits: u64,
    misses: u64,
}

impl ConvergedCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a warm-start directory, counting the hit or miss.
    pub fn lookup(&mut self, key: u64) -> Option<PathBuf> {
        match self.entries.get(&key) {
            Some(dir) => {
                self.hits += 1;
                Some(dir.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Publish a converged snapshot for `key`. Last writer wins: any
    /// complete snapshot of the same canonical problem is equally valid as
    /// a warm-start hint.
    pub fn publish(&mut self, key: u64, dir: PathBuf) {
        self.entries.insert(key, dir);
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters since start.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// One `FeSpace` per distinct mesh, shared across jobs and worker threads.
#[derive(Default)]
pub struct SpaceCache {
    spaces: BTreeMap<u64, Arc<FeSpace>>,
}

impl SpaceCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared `FeSpace` for `mesh`, building (and memoizing) it on
    /// first use.
    pub fn get(&mut self, mesh: &MeshSpec) -> Arc<FeSpace> {
        let key = mesh_key(mesh);
        Arc::clone(
            self.spaces
                .entry(key)
                .or_insert_with(|| Arc::new(FeSpace::new(mesh.build()))),
        )
    }

    /// Distinct meshes materialized so far.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// Whether no mesh has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }
}

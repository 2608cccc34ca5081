//! The typed job API: what tenants submit and what they get back.
//!
//! A [`JobRequest`] names a tenant, a [`Priority`], a [`JobKind`] and a
//! [`JobSpec`] — the physical problem (atoms, mesh, functional, k-points)
//! plus resource hints (desired gang size, optional process-grid shape).
//! Admission control answers synchronously with an [`AdmissionError`] when
//! the server is over capacity; accepted jobs eventually deliver exactly one
//! [`JobOutcome`] on the ticket channel.

use dft_core::scf::KPoint;
use dft_core::system::{Atom, AtomKind};
use dft_core::xc::{Lda, Pbe, XcFunctional, XcPoint};
use dft_fem::mesh::{Axis, BoundaryCondition, Mesh3d, SUPPORTED_DEGREES};
use dft_hpc::comm::FaultPlan;
use dft_materials::Structure;
use dft_parallel::GridShape;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Scheduling priority. Ordering is semantic: `Low < Normal < High`, and
/// the gang scheduler may preempt a running lower-priority job (through its
/// checkpoint) to make room for a starved `High` one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Background work: screened first for preemption.
    Low,
    /// The default service class.
    Normal,
    /// Latency-sensitive: may trigger preemption when the pool is full.
    High,
}

/// What kind of calculation the job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// A single self-consistent ground-state solve.
    Scf,
    /// FIRE structural relaxation driven by `dft_parallel::dist_relax`:
    /// up to `steps` geometry steps with distributed Hellmann-Feynman
    /// forces, each SCF warm-started from the previous step's converged
    /// state (wavefunction extrapolation). Stops early once the maximum
    /// force drops below the server's `relax_force_tol`.
    Relax {
        /// Maximum FIRE geometry steps to perform.
        steps: usize,
    },
}

/// Exchange-correlation functional selector — a closed enum so job specs
/// stay plain data (hashable, cloneable) while still dispatching to the
/// real [`XcFunctional`] implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Functional {
    /// Local-density approximation.
    Lda,
    /// PBE generalized-gradient approximation.
    Pbe,
}

impl Functional {
    /// Stable tag used in cache keys and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Functional::Lda => "lda",
            Functional::Pbe => "pbe",
        }
    }
}

impl XcFunctional for Functional {
    fn name(&self) -> &'static str {
        self.tag()
    }
    fn needs_gradient(&self) -> bool {
        match self {
            Functional::Lda => Lda.needs_gradient(),
            Functional::Pbe => Pbe.needs_gradient(),
        }
    }
    fn eval_point(&self, rho: f64, grad_norm: f64) -> XcPoint {
        match self {
            Functional::Lda => Lda.eval_point(rho, grad_norm),
            Functional::Pbe => Pbe.eval_point(rho, grad_norm),
        }
    }
}

/// A declarative orthorhombic mesh: enough to rebuild the [`Mesh3d`] (and
/// the derived `FeSpace` gather/scatter tables) on the server side, and to
/// enter the canonical cache key without floating-point comparisons.
#[derive(Clone, Copy, Debug)]
pub struct MeshSpec {
    /// Cells along each axis.
    pub cells: [usize; 3],
    /// Cell lengths along each axis (Bohr).
    pub lengths: [f64; 3],
    /// Polynomial degree of the FE basis.
    pub degree: usize,
    /// Periodicity per axis (`false` = Dirichlet).
    pub periodic: [bool; 3],
}

impl MeshSpec {
    /// A fully periodic cube: `n^3` cells of total edge `l`.
    pub fn cube(n: usize, l: f64, degree: usize) -> Self {
        Self {
            cells: [n; 3],
            lengths: [l; 3],
            degree,
            periodic: [true; 3],
        }
    }

    /// The DoF count of the FE space on this mesh, without building it:
    /// `cells · degree` nodes on a periodic axis, and on a Dirichlet axis
    /// one closing node more minus the two eliminated boundary nodes.
    /// Saturates at `usize::MAX` for meshes no host could build.
    pub fn ndofs(&self) -> usize {
        (0..3)
            .map(|d| {
                let nodes = self.cells[d].saturating_mul(self.degree);
                if self.periodic[d] {
                    nodes
                } else {
                    nodes.saturating_sub(1)
                }
            })
            .fold(1, usize::saturating_mul)
    }

    /// The node count of the FE space on this mesh (Dirichlet boundary
    /// nodes included), without building it: `cells · degree` per periodic
    /// axis, one closing node more per Dirichlet axis. Saturates like
    /// [`Self::ndofs`].
    pub fn nnodes(&self) -> usize {
        (0..3)
            .map(|d| {
                let nodes = self.cells[d].saturating_mul(self.degree);
                nodes.saturating_add(usize::from(!self.periodic[d]))
            })
            .fold(1, usize::saturating_mul)
    }

    /// Materialize the mesh.
    pub fn build(&self) -> Mesh3d {
        let axis = |i: usize| {
            let bc = if self.periodic[i] {
                BoundaryCondition::Periodic
            } else {
                BoundaryCondition::Dirichlet
            };
            Axis::uniform(self.cells[i], 0.0, self.lengths[i], bc)
        };
        Mesh3d::new([axis(0), axis(1), axis(2)], self.degree)
    }
}

/// The physical problem plus resource hints.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Atoms (charge model + Cartesian positions, Bohr).
    pub atoms: Vec<Atom>,
    /// Finite-element discretization.
    pub mesh: MeshSpec,
    /// Exchange-correlation functional.
    pub functional: Functional,
    /// Kohn-Sham states per k-point.
    pub n_states: usize,
    /// Fermi-Dirac smearing temperature (Ha).
    pub kt: f64,
    /// Density-residual convergence tolerance.
    pub tol: f64,
    /// Maximum SCF iterations per solve.
    pub max_iter: usize,
    /// Chebyshev filter degree per ChFES cycle. Size this to the problem:
    /// an aggressive filter on a tiny spectrum collapses the block.
    pub cheb_degree: usize,
    /// The most ChFES cycles of a first solve, which stops earlier once
    /// its occupied states have converged.
    pub first_iter_cf_passes: usize,
    /// Brillouin-zone samples (weights summing to 1).
    pub kpts: Vec<KPoint>,
    /// Desired gang size (ranks). The scheduler grants at most this many
    /// and at least one, depending on pool pressure; checkpoints reshard,
    /// so resumes may run at yet another count.
    pub ranks: usize,
    /// Preferred process-grid shape. Applied only when it tiles the
    /// granted rank count exactly; otherwise the scheduler falls back to
    /// the 1D slab layout.
    pub grid_hint: Option<GridShape>,
}

impl JobSpec {
    /// A miniature spec sized for serving tests and benchmarks: `atoms` in
    /// a small periodic cube, LDA, Γ-point only.
    pub fn miniature(atoms: Vec<Atom>, l: f64) -> Self {
        Self {
            atoms,
            mesh: MeshSpec::cube(2, l, 2),
            functional: Functional::Lda,
            n_states: 2,
            kt: 0.02,
            tol: 1e-8,
            max_iter: 80,
            cheb_degree: 20,
            first_iter_cf_passes: 2,
            kpts: vec![KPoint::gamma()],
            ranks: 1,
            grid_hint: None,
        }
    }

    /// Build a spec from a materials-side [`Structure`] (e.g. one member
    /// of a `dft_materials::requests` burst family). The mesh spans the
    /// structure's cell with `cells_per_axis` cells of degree `degree`,
    /// inheriting its periodicity; `pseudo_of` maps each species label to
    /// its pseudopotential `(valence charge, smearing radius)`. Electronic
    /// knobs start at the miniature defaults — adjust on the returned spec.
    // dftlint:allow(L009, reason="structure-built jobs of dft-serve/tests/serve.rs")
    pub fn from_structure(
        s: &Structure,
        cells_per_axis: usize,
        degree: usize,
        pseudo_of: impl Fn(&str) -> (f64, f64),
    ) -> Self {
        let atoms = s
            .positions
            .iter()
            .zip(s.species.iter())
            .map(|(&pos, sp)| {
                let (z, r_c) = pseudo_of(sp);
                Atom {
                    kind: AtomKind::Pseudo { z, r_c },
                    pos,
                }
            })
            .collect();
        let mut spec = Self::miniature(atoms, 1.0);
        spec.mesh = MeshSpec {
            cells: [cells_per_axis; 3],
            lengths: s.cell,
            degree,
            periodic: s.periodic,
        };
        spec
    }

    /// Structural sanity checks run at admission time.
    pub fn validate(&self) -> Result<(), String> {
        if self.atoms.is_empty() {
            return Err("spec has no atoms".into());
        }
        if self.n_states == 0 {
            return Err("spec requests zero states".into());
        }
        if self.kpts.is_empty() {
            return Err("spec has no k-points".into());
        }
        if self.ranks == 0 {
            return Err("spec requests a zero-rank gang".into());
        }
        if self.mesh.cells.contains(&0) {
            return Err("mesh has an empty axis".into());
        }
        // the space is built on the scheduler thread, which a panicking
        // `Mesh3d::new` would take down with every later job
        if !SUPPORTED_DEGREES.contains(&self.mesh.degree) {
            return Err(format!(
                "mesh degree {} outside the supported {SUPPORTED_DEGREES:?}",
                self.mesh.degree
            ));
        }
        // `!(x > 0.0)` (not `x <= 0.0`) so NaN inputs are rejected too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.tol > 0.0) || !(self.kt > 0.0) || self.max_iter == 0 {
            return Err("non-positive tolerance, temperature, or iteration budget".into());
        }
        if self.cheb_degree == 0 {
            return Err("zero Chebyshev filter degree".into());
        }
        // the first iteration's eigenvalues come from these passes alone
        if self.first_iter_cf_passes == 0 {
            return Err("zero first-iteration filter passes".into());
        }
        // the SCF asserts finite Bloch phases and weights summing to 1
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if self
            .kpts
            .iter()
            .any(|k| k.frac.iter().any(|f| !f.is_finite()) || !(k.weight >= 0.0))
        {
            return Err("k-point with a non-finite coordinate or a negative or NaN weight".into());
        }
        let wsum: f64 = self.kpts.iter().map(|k| k.weight).sum();
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !((wsum - 1.0).abs() < 1e-10) {
            return Err(format!("k-point weights sum to {wsum}, not 1"));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if self.mesh.lengths.iter().any(|&l| !(l > 0.0)) {
            return Err("mesh has a non-positive cell length".into());
        }
        // the space's cell tables index nodes as u32 and DoFs as i32; a
        // larger mesh would wrap them (the bound is the index types')
        let (nnodes, ndofs) = (self.mesh.nnodes(), self.mesh.ndofs());
        if nnodes > u32::MAX as usize || ndofs > i32::MAX as usize {
            return Err(format!(
                "mesh of {nnodes} nodes and {ndofs} degrees of freedom exceeds the \
                 space's index range (u32 nodes, i32 degrees of freedom)"
            ));
        }
        // more states than DoFs have no orthonormal basis
        if self.n_states > ndofs {
            return Err(format!(
                "{} states exceed the mesh's {ndofs} degrees of freedom",
                self.n_states
            ));
        }
        // doubly occupied states must hold every electron
        let electrons: f64 = self.atoms.iter().map(|a| a.kind.z()).sum();
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(electrons <= 2.0 * self.n_states as f64) {
            return Err(format!(
                "{} states cannot hold {electrons} electrons",
                self.n_states
            ));
        }
        Ok(())
    }
}

/// A complete submission.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Tenant identity for fair queueing and quotas.
    pub tenant: String,
    /// Service class.
    pub priority: Priority,
    /// Calculation kind.
    pub kind: JobKind,
    /// The problem.
    pub spec: JobSpec,
    /// Deterministic fault-injection plan applied to this job's cluster
    /// launch (testing/benchmark hook; empty plan = fault-free).
    pub faults: Arc<FaultPlan>,
}

impl JobRequest {
    /// A fault-free request.
    pub fn new(tenant: &str, priority: Priority, kind: JobKind, spec: JobSpec) -> Self {
        Self {
            tenant: tenant.to_string(),
            priority,
            kind,
            spec,
            faults: Arc::new(FaultPlan::default()),
        }
    }

    /// Attach a fault plan (testing hook).
    // dftlint:allow(L009, reason="fault injection of dft-serve/tests/serve.rs")
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }
}

/// Why a submission was rejected at the door. `QueueFull` and
/// `TenantQuota` carry a `retry_after` hint derived from the current
/// backlog so clients can back off proportionally instead of hammering.
#[derive(Clone, Debug)]
pub enum AdmissionError {
    /// The global queue is at its depth bound.
    QueueFull {
        /// Jobs currently queued.
        queued: usize,
        /// The configured bound.
        limit: usize,
        /// Suggested resubmission delay.
        retry_after: Duration,
    },
    /// This tenant alone is at its queued-job quota.
    TenantQuota {
        /// The offending tenant.
        tenant: String,
        /// Jobs this tenant has queued.
        queued: usize,
        /// The per-tenant bound.
        limit: usize,
        /// Suggested resubmission delay.
        retry_after: Duration,
    },
    /// The server is draining and no longer admits work.
    ShuttingDown,
    /// The spec failed structural validation.
    InvalidSpec(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull {
                queued,
                limit,
                retry_after,
            } => write!(
                f,
                "queue full ({queued}/{limit} jobs); retry after {retry_after:?}"
            ),
            AdmissionError::TenantQuota {
                tenant,
                queued,
                limit,
                retry_after,
            } => write!(
                f,
                "tenant {tenant} at quota ({queued}/{limit} queued); retry after {retry_after:?}"
            ),
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
            AdmissionError::InvalidSpec(why) => write!(f, "invalid job spec: {why}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Terminal job state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The calculation finished (see [`JobOutcome::converged`]).
    Completed,
    /// The calculation failed irrecoverably.
    Failed(String),
}

/// What a finished job reports back on its ticket channel.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job_id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Helmholtz free energy of the final SCF (Ha).
    pub free_energy: f64,
    /// Whether the final SCF met its density tolerance.
    pub converged: bool,
    /// SCF iterations actually performed across all solve rounds,
    /// excluding the resumed prefix (a cache hit makes this small).
    pub scf_iterations: usize,
    /// Whether the job warm-started from the converged-state cache.
    pub cache_hit: bool,
    /// Times this job was preempted and later resumed.
    pub preemptions: usize,
    /// Cluster relaunches forced by rank loss.
    pub recoveries: usize,
    /// Ranks of the final (successful) launch.
    pub ranks_granted: usize,
    /// Ranks permanently lost to injected faults while this job ran.
    pub ranks_lost: usize,
    /// Final atom positions (moved only by `Relax` jobs).
    pub positions: Vec<[f64; 3]>,
    /// Admission-to-first-dispatch wait (milliseconds).
    pub wait_ms: f64,
    /// Admission-to-completion latency (milliseconds).
    pub latency_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fem::space::FeSpace;

    fn spec() -> JobSpec {
        let atom = Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [2.0, 3.0, 3.0],
        };
        JobSpec::miniature(vec![atom], 6.0)
    }

    #[test]
    fn dof_count_matches_the_built_space() {
        let meshes = [
            MeshSpec::cube(2, 6.0, 2),
            MeshSpec {
                periodic: [false; 3],
                ..MeshSpec::cube(3, 6.0, 2)
            },
            MeshSpec {
                cells: [1, 2, 3],
                lengths: [4.0, 5.0, 6.0],
                degree: 3,
                periodic: [true, false, true],
            },
            MeshSpec {
                cells: [1, 1, 2],
                degree: 1,
                periodic: [false, true, false],
                ..MeshSpec::cube(1, 6.0, 1)
            },
        ];
        for mesh in meshes {
            let space = FeSpace::new(mesh.build());
            assert_eq!(mesh.ndofs(), space.ndofs(), "{mesh:?}");
            assert_eq!(mesh.nnodes(), space.nnodes(), "{mesh:?}");
        }
    }

    /// A mesh whose node count passes `u32` (2048^3 periodic nodes at
    /// p = 1) is refused at admission: its space would wrap the cell
    /// tables' indices, so it is never built.
    #[test]
    fn meshes_past_the_index_range_are_rejected() {
        let mut s = spec();
        s.mesh = MeshSpec::cube(2048, 6.0, 1);
        let why = s.validate().unwrap_err();
        assert!(why.contains("index range"), "{why}");
        // DoFs past i32 with nodes inside u32
        s.mesh = MeshSpec::cube(1291, 6.0, 1);
        assert!(s.mesh.nnodes() <= u32::MAX as usize);
        assert!(s.mesh.ndofs() > i32::MAX as usize);
        let why = s.validate().unwrap_err();
        assert!(why.contains("index range"), "{why}");
        // saturating counts: no overflow on absurd meshes
        s.mesh = MeshSpec::cube(usize::MAX, 6.0, 10);
        assert!(s.validate().unwrap_err().contains("index range"));
    }

    #[test]
    fn more_states_than_dofs_are_rejected() {
        // the miniature mesh is 2^3 periodic cells of degree 2: 4^3 DoFs
        let mut s = spec();
        s.n_states = 64;
        assert!(s.validate().is_ok());
        s.n_states = 65;
        let why = s.validate().unwrap_err();
        assert!(why.contains("degrees of freedom"), "{why}");
    }

    #[test]
    fn too_few_states_for_the_electrons_are_rejected() {
        let mut s = spec();
        s.atoms[0].kind = AtomKind::Pseudo { z: 4.0, r_c: 0.8 };
        assert!(s.validate().is_ok(), "2 states hold 4 electrons");
        s.atoms[0].kind = AtomKind::Pseudo { z: 5.0, r_c: 0.8 };
        let why = s.validate().unwrap_err();
        assert!(why.contains("cannot hold"), "{why}");
    }

    #[test]
    fn zero_first_iteration_passes_are_rejected() {
        let mut s = spec();
        s.first_iter_cf_passes = 1;
        assert!(s.validate().is_ok());
        s.first_iter_cf_passes = 0;
        let why = s.validate().unwrap_err();
        assert!(why.contains("filter passes"), "{why}");
    }

    #[test]
    fn degrees_outside_the_supported_range_are_rejected() {
        let mut s = spec();
        for degree in [1, 10] {
            s.mesh.degree = degree;
            assert!(s.validate().is_ok(), "degree {degree}");
        }
        for degree in [0, 11, usize::MAX] {
            s.mesh.degree = degree;
            let why = s.validate().unwrap_err();
            assert!(why.contains("degree"), "{why}");
        }
    }

    #[test]
    fn malformed_kpoints_are_rejected() {
        let k = |frac, weight| KPoint { frac, weight };
        let mut s = spec();
        s.kpts = vec![k([0.0; 3], 0.25), k([0.5, 0.0, 0.0], 0.75)];
        assert!(s.validate().is_ok());
        let bad = [
            vec![k([f64::NAN, 0.0, 0.0], 1.0)],
            vec![k([0.0, f64::INFINITY, 0.0], 1.0)],
            vec![k([0.0; 3], f64::NAN)],
            vec![k([0.0; 3], 1.5), k([0.5, 0.0, 0.0], -0.5)],
            vec![k([0.0; 3], 0.5), k([0.5, 0.0, 0.0], 0.4)],
        ];
        for kpts in bad {
            s.kpts = kpts;
            assert!(s.validate().is_err(), "{:?} admitted", s.kpts);
        }
    }
}

//! Distributed FIRE relaxation and Born-Oppenheimer MD with wavefunction
//! extrapolation.
//!
//! The geometry loop runs *replicated*: every rank holds the full atom
//! set and the full [`FireState`], feeds them the bit-identical forces
//! from [`distributed_forces`](crate::forces::distributed_forces), and
//! therefore moves the atoms identically with zero extra communication —
//! the same replicate-the-cheap-state pattern the SCF uses for nodal
//! fields.
//!
//! Between geometry steps the SCF is *warm-started* from the previous
//! step's converged state — density, Anderson mixer history, filter
//! windows, and wavefunction shards — via the existing checkpoint
//! machinery (the format's second customer after fault recovery): each
//! step exports its converged state with `final_state_dir` into a shared
//! `relax-warm` directory, and the next step reads it back with
//! `restart_from`. For the small moves of a relaxation the previous
//! subspace is an excellent initial guess (zeroth-order wavefunction
//! extrapolation), so warm steps skip the first-iteration multi-pass
//! filtering and reconverge in a fraction of a cold SCF's iterations.
//!
//! The driver itself is preemptible and fault-recoverable: after each
//! applied move, rank 0 persists the integrator state (positions,
//! velocities, adaptive knobs, trajectory) to a checksummed `relax_state`
//! file next to the snapshots, atomically. A relaunch with `restart` set
//! reloads it, resumes at the interrupted step, and picks up that step's
//! own preemption/periodic SCF snapshots — so a preempted 300-step
//! relaxation loses at most the SCF iterations since the last snapshot.

use crate::codec::{bad, fnv1a, push_f64, push_u64, verified_body, Cur};
use crate::forces::{forces_rank, DistForceError};
use crate::scf::{performed_iterations, scf_rank, DistScfConfig, DistScfResult, ScfError};
use crate::threads::rank_threads;
use dft_core::forces::{max_force, ForceError};
use dft_core::relax::{FireState, RelaxConfig};
use dft_core::scf::KPoint;
use dft_core::system::AtomicSystem;
use dft_core::xc::XcFunctional;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{CommError, ThreadComm};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a distributed relaxation (or MD run) stopped early.
#[derive(Clone, Debug)]
pub enum RelaxError {
    /// An SCF step failed or was preempted; `ScfError::Preempted` is the
    /// cooperative-stop path — the relax state on disk resumes the run.
    Scf(ScfError),
    /// A force evaluation failed (diverged force Poisson solve).
    Force(ForceError),
    /// The force reduction lost a peer outside the SCF.
    Comm(CommError),
}

impl std::fmt::Display for RelaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelaxError::Scf(e) => write!(f, "relaxation SCF failed: {e}"),
            RelaxError::Force(e) => write!(f, "relaxation force evaluation failed: {e}"),
            RelaxError::Comm(e) => write!(f, "relaxation communication failed: {e}"),
        }
    }
}

impl std::error::Error for RelaxError {}

impl From<ScfError> for RelaxError {
    fn from(e: ScfError) -> Self {
        RelaxError::Scf(e)
    }
}

impl From<DistForceError> for RelaxError {
    fn from(e: DistForceError) -> Self {
        match e {
            DistForceError::Force(fe) => RelaxError::Force(fe),
            DistForceError::Comm(ce) => RelaxError::Comm(ce),
        }
    }
}

/// The FIRE parameters, wrapped. A step's SCF warm-starts from the
/// previous step's converged state (density + psi shards) iff the SCF
/// config has a `checkpoint_dir` to hold the `relax-warm` slot and the
/// slot exists; without one every step runs cold. This one-field struct
/// survives only because `benchmark/` names it and its `fire` field;
/// folding it into [`RelaxConfig`] belongs to a PR that may edit
/// `benchmark/`.
#[derive(Clone, Debug, Default)]
pub struct DistRelaxConfig {
    /// FIRE parameters.
    pub fire: RelaxConfig,
}

/// One geometry step's record in a distributed relaxation trajectory.
#[derive(Clone, Copy, Debug)]
pub struct RelaxStepRecord {
    /// Free energy at this geometry (replicated).
    pub free_energy: f64,
    /// Largest force component at this geometry.
    pub fmax: f64,
    /// SCF iterations this step's electronic solve *performed* (net of
    /// the snapshot label it warm-resumed from) — the quantity the
    /// warm-vs-cold benchmark compares.
    pub scf_iterations: usize,
    /// Whether the step's SCF actually resumed from a warm snapshot.
    pub warm_started: bool,
}

/// Outcome of a distributed relaxation on one rank. Everything except
/// `scf` (whose profile/comm members are per-rank) is replicated.
pub struct DistRelaxResult {
    /// Relaxed system.
    pub system: AtomicSystem,
    /// The final geometry's SCF result.
    pub scf: DistScfResult,
    /// Per-evaluation records, including the final post-move evaluation.
    pub trajectory: Vec<RelaxStepRecord>,
    /// Whether the force tolerance was reached.
    pub converged: bool,
    /// The geometry step this run resumed from (`None` = fresh start).
    pub resumed_step: Option<usize>,
}

/// Outcome of a distributed BO-MD run on one rank.
pub struct DistMdResult {
    /// Final system (positions after the last step).
    pub system: AtomicSystem,
    /// The final geometry's SCF result.
    pub scf: DistScfResult,
    /// Per-evaluation records.
    pub trajectory: Vec<MdStepRecord>,
}

/// Velocity-Verlet BO-MD knobs (unit masses, zero initial velocities).
/// Steps warm-start under the same rule as [`DistRelaxConfig`].
#[derive(Clone, Debug)]
pub struct MdConfig {
    /// Number of MD steps.
    pub steps: usize,
    /// Time step (atomic units).
    pub dt: f64,
}

impl Default for MdConfig {
    fn default() -> Self {
        Self { steps: 5, dt: 0.5 }
    }
}

/// One MD step's record.
#[derive(Clone, Copy, Debug)]
pub struct MdStepRecord {
    /// Potential (free) energy at this geometry.
    pub free_energy: f64,
    /// Kinetic energy of the (unit-mass) ions.
    pub kinetic: f64,
    /// Conserved-ish total: potential + kinetic.
    pub total: f64,
    /// Largest force component.
    pub fmax: f64,
    /// SCF iterations this step's electronic solve took.
    pub scf_iterations: usize,
    /// Whether the step's SCF resumed from a warm snapshot.
    pub warm_started: bool,
}

// ---- relax-state persistence -------------------------------------------
// A tiny checksummed binary (same conventions as `checkpoint`: magic,
// version, FNV-1a trailer, atomic tmp+rename) holding the geometry-loop
// state between SCF snapshots. Rank 0 writes it after every applied move;
// any later relaunch reads it back identically on every rank, so the
// resume decision needs no communication. A missing or corrupt file
// degrades to a fresh start — it is an optimization, the physics does not
// depend on it.

const RELAX_MAGIC: &[u8; 8] = b"DFTRELX1";

struct RelaxState {
    step: usize,
    positions: Vec<[f64; 3]>,
    fire: FireState,
    trajectory: Vec<RelaxStepRecord>,
}

fn state_path(root: &Path) -> PathBuf {
    root.join("relax_state.v1")
}

fn write_relax_state(root: &Path, st: &RelaxState) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(RELAX_MAGIC);
    push_u64(&mut buf, st.step as u64);
    push_u64(&mut buf, st.positions.len() as u64);
    for p in &st.positions {
        for k in 0..3 {
            push_f64(&mut buf, p[k]);
        }
    }
    push_f64(&mut buf, st.fire.dt);
    push_f64(&mut buf, st.fire.alpha);
    push_u64(&mut buf, st.fire.n_pos as u64);
    for v in &st.fire.v {
        for k in 0..3 {
            push_f64(&mut buf, v[k]);
        }
    }
    push_u64(&mut buf, st.trajectory.len() as u64);
    for r in &st.trajectory {
        push_f64(&mut buf, r.free_energy);
        push_f64(&mut buf, r.fmax);
        push_u64(&mut buf, r.scf_iterations as u64);
        push_u64(&mut buf, u64::from(r.warm_started));
    }
    let ck = fnv1a(&buf);
    push_u64(&mut buf, ck);
    fs::create_dir_all(root)?;
    let tmp = root.join("relax_state.v1.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, state_path(root))
}

/// Any structural problem reads as `None` (degrade to a fresh start),
/// mirroring the warm-start hint semantics.
fn load_relax_state(root: &Path, n_atoms: usize) -> Option<RelaxState> {
    let bytes = fs::read(state_path(root)).ok()?;
    parse_relax_state(&bytes, n_atoms).ok()
}

fn parse_relax_state(bytes: &[u8], n_atoms: usize) -> io::Result<RelaxState> {
    let mut c = Cur::new(verified_body(bytes)?);
    if c.take(8)? != RELAX_MAGIC {
        return Err(bad("bad relax-state magic"));
    }
    let step = c.u64()? as usize;
    let n = c.u64()? as usize;
    if n != n_atoms {
        return Err(bad("relax state is for another atom count"));
    }
    let mut positions = vec![[0.0; 3]; n];
    for p in positions.iter_mut() {
        for k in 0..3 {
            p[k] = c.f64()?;
        }
    }
    let dt = c.f64()?;
    let alpha = c.f64()?;
    let n_pos = c.u64()? as usize;
    let mut v = vec![[0.0; 3]; n];
    for vi in v.iter_mut() {
        for k in 0..3 {
            vi[k] = c.f64()?;
        }
    }
    let n_rec = c.u64()? as usize;
    if n_rec > step + 1 {
        return Err(bad("relax trajectory longer than its step count"));
    }
    let mut trajectory = Vec::with_capacity(n_rec);
    for _ in 0..n_rec {
        trajectory.push(RelaxStepRecord {
            free_energy: c.f64()?,
            fmax: c.f64()?,
            scf_iterations: c.u64()? as usize,
            warm_started: c.u64()? != 0,
        });
    }
    Ok(RelaxState {
        step,
        positions,
        fire: FireState {
            v,
            dt,
            alpha,
            n_pos,
        },
        trajectory,
    })
}

/// Per-step SCF config: snapshots go to this step's own directory (so a
/// preempted step resumes from *its* checkpoints, never a stale earlier
/// step's), while the warm-start hint reads — and the converged export
/// writes — the shared `relax-warm` slot. `distributed_scf`'s
/// newest-complete-snapshot-wins rule arbitrates between the two on
/// resume.
fn step_cfg(
    scf_cfg: &DistScfConfig,
    root: Option<&Path>,
    step: usize,
    warm: bool,
    first: bool,
    resume: bool,
    label: &str,
) -> DistScfConfig {
    let mut cfg = scf_cfg.clone();
    if let Some(root) = root {
        cfg.checkpoint_dir = Some(root.join(format!("{label}-step-{step:04}")));
        cfg.final_state_dir = Some(root.join("relax-warm"));
        // warm source: the trajectory's own `relax-warm` slot once it
        // exists; before that, the very first evaluation may still use
        // the caller's `restart_from` hint (e.g. a converged-state cache
        // entry for this geometry family)
        cfg.restart_from = if warm {
            Some(root.join("relax-warm"))
        } else if first {
            scf_cfg.restart_from.clone()
        } else {
            None
        };
        cfg.restart = resume || cfg.restart_from.is_some();
    } else {
        cfg.restart = false;
        cfg.restart_from = None;
        cfg.final_state_dir = None;
    }
    cfg
}

/// Evaluates the geometries of one trajectory: everything about a step's
/// electronic solve and forces that does not change from step to step.
struct StepEvaluator<'a> {
    space: &'a FeSpace,
    xc: &'a dyn XcFunctional,
    scf_cfg: &'a DistScfConfig,
    kpts: &'a [KPoint],
    /// The trajectory's first step (the only one that may still use the
    /// caller's `restart_from` hint).
    first_step: usize,
    /// Names the driver's per-step snapshot directories.
    label: &'static str,
}

impl StepEvaluator<'_> {
    /// The SCF under [`step_cfg`], then the distributed Hellmann-Feynman
    /// forces of its density; also reports whether the SCF actually
    /// resumed from its warm hint.
    fn evaluate(
        &self,
        comm: &mut ThreadComm,
        sys: &AtomicSystem,
        step: usize,
        resume: bool,
    ) -> Result<(DistScfResult, Vec<[f64; 3]>, bool), RelaxError> {
        let root = self.scf_cfg.checkpoint_dir.as_deref();
        let warm = root.is_some_and(|r| r.join("relax-warm").exists());
        let first = step == self.first_step;
        let cfg_step = step_cfg(self.scf_cfg, root, step, warm, first, resume, self.label);
        let r = scf_rank(comm, self.space, sys, self.xc, &cfg_step, self.kpts)?;
        let (f, _) = forces_rank(comm, self.space, sys, &r.density.values, cfg_step.grid)?;
        let warm_started = r.resumed_from.is_some() && cfg_step.restart_from.is_some();
        Ok((r, f, warm_started))
    }
}

/// Best-effort pruning of a finished step's snapshot directory (its warm
/// value now lives in `relax-warm`; keeping every step's psi shards would
/// grow the job root linearly with trajectory length).
fn prune_step_dir(root: Option<&Path>, step: usize, label: &str) {
    if let Some(root) = root {
        let _ = fs::remove_dir_all(root.join(format!("{label}-step-{step:04}")));
    }
}

/// Distributed FIRE relaxation. Call from every rank of a cluster with
/// identical arguments; the returned trajectory, positions, and
/// convergence flag are replicated bit-identically.
///
/// `scf_cfg.checkpoint_dir` doubles as the relaxation root: per-step SCF
/// snapshots, the `relax-warm` warm-start slot, and the `relax_state.v1`
/// integrator state all live under it. `scf_cfg.restart` resumes an
/// interrupted relaxation from that state; `scf_cfg.preempt` preempts the
/// in-flight SCF step cooperatively (the driver surfaces
/// [`ScfError::Preempted`] after the step's snapshot and the relax state
/// are both on disk). Runs on this rank's share of the cores
/// ([`crate::threads`]).
pub fn dist_relax(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    relax_cfg: &DistRelaxConfig,
    kpts: &[KPoint],
) -> Result<DistRelaxResult, RelaxError> {
    rank_threads(comm, |comm| {
        relax_rank(comm, space, system, xc, scf_cfg, relax_cfg, kpts)
    })
}

fn relax_rank(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    relax_cfg: &DistRelaxConfig,
    kpts: &[KPoint],
) -> Result<DistRelaxResult, RelaxError> {
    let rank = comm.rank();
    let root = scf_cfg.checkpoint_dir.clone();
    let root = root.as_deref();
    let cfg = &relax_cfg.fire;
    let n = system.atoms.len();

    let mut sys = system.clone();
    let mut fire = FireState::new(n, cfg);
    let mut trajectory: Vec<RelaxStepRecord> = Vec::new();
    let mut start_step = 0usize;
    let mut resumed_step = None;

    // resume an interrupted relaxation: every rank reads the same bytes,
    // so the decision is identical cluster-wide without communication
    if scf_cfg.restart {
        if let Some(st) = root.and_then(|r| load_relax_state(r, n)) {
            for (a, p) in sys.atoms.iter_mut().zip(&st.positions) {
                a.pos = *p;
            }
            fire = st.fire;
            trajectory = st.trajectory;
            // record i belongs to step i; the state written after the last
            // evaluation already holds step `st.step`'s record, which the
            // re-evaluation below pushes again
            trajectory.truncate(st.step);
            start_step = st.step;
            resumed_step = Some(st.step);
        }
    }

    let steps = StepEvaluator {
        space,
        xc,
        scf_cfg,
        kpts,
        first_step: start_step,
        label: "fire",
    };

    // persist the integrator state *before* each evaluation: a
    // preemption or rank loss inside evaluate(step) then resumes at
    // exactly this step with the already-applied positions
    let persist = |rank: usize,
                   step: usize,
                   sys: &AtomicSystem,
                   fire: &FireState,
                   traj: &[RelaxStepRecord]| {
        if rank == 0 {
            if let Some(root) = root {
                let _ = write_relax_state(
                    root,
                    &RelaxState {
                        step,
                        positions: sys.atoms.iter().map(|a| a.pos).collect(),
                        fire: fire.clone(),
                        trajectory: traj.to_vec(),
                    },
                );
            }
        }
    };

    persist(rank, start_step, &sys, &fire, &trajectory);
    let resume = scf_cfg.restart && resumed_step.is_some();
    let (mut r, mut f, mut warm) = steps.evaluate(comm, &sys, start_step, resume)?;
    let mut converged = false;
    let mut step = start_step;
    loop {
        // every evaluation — including the one after the final allowed
        // move — gets its trajectory record and its convergence verdict
        // here, so a run converging exactly at `max_steps` reports it
        let fmax = max_force(&f);
        trajectory.push(RelaxStepRecord {
            free_energy: r.energy.free_energy,
            fmax,
            scf_iterations: performed_iterations(r.iterations, r.resumed_from),
            warm_started: warm,
        });
        if fmax < cfg.force_tol {
            converged = true;
            break;
        }
        if step >= start_step.max(cfg.max_steps) {
            break;
        }
        let dx = fire.step(&f, cfg);
        for i in 0..n {
            for k in 0..3 {
                sys.atoms[i].pos[k] += dx[i][k];
            }
        }
        let prev = step;
        step += 1;
        persist(rank, step, &sys, &fire, &trajectory);
        let out = steps.evaluate(comm, &sys, step, false)?;
        if rank == 0 {
            prune_step_dir(root, prev, "fire");
        }
        (r, f, warm) = out;
    }
    persist(rank, step, &sys, &fire, &trajectory);
    Ok(DistRelaxResult {
        system: sys,
        scf: r,
        trajectory,
        converged,
        resumed_step,
    })
}

/// Minimal distributed Born-Oppenheimer MD: velocity-Verlet with unit
/// masses and zero initial velocities, each step's SCF warm-started from
/// the previous step's converged state. Replicated like [`dist_relax`];
/// no mid-run persistence (MD runs are short and restartable from their
/// initial conditions). Runs on this rank's share of the cores
/// ([`crate::threads`]).
pub fn dist_md(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    md_cfg: &MdConfig,
    kpts: &[KPoint],
) -> Result<DistMdResult, RelaxError> {
    rank_threads(comm, |comm| {
        md_rank(comm, space, system, xc, scf_cfg, md_cfg, kpts)
    })
}

fn md_rank(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    md_cfg: &MdConfig,
    kpts: &[KPoint],
) -> Result<DistMdResult, RelaxError> {
    let rank = comm.rank();
    let root = scf_cfg.checkpoint_dir.clone();
    let root = root.as_deref();
    let n = system.atoms.len();
    let mut sys = system.clone();
    let mut v = vec![[0.0f64; 3]; n];
    let dt = md_cfg.dt;
    let mut trajectory = Vec::with_capacity(md_cfg.steps + 1);

    let steps = StepEvaluator {
        space,
        xc,
        scf_cfg,
        kpts,
        first_step: 0,
        label: "md",
    };

    let (mut r, mut f, mut warm) = steps.evaluate(comm, &sys, 0, false)?;
    for step in 0..md_cfg.steps {
        let kinetic: f64 = 0.5
            * v.iter()
                .map(|vi| vi.iter().map(|&c| c * c).sum::<f64>())
                .sum::<f64>();
        trajectory.push(MdStepRecord {
            free_energy: r.energy.free_energy,
            kinetic,
            total: r.energy.free_energy + kinetic,
            fmax: max_force(&f),
            scf_iterations: performed_iterations(r.iterations, r.resumed_from),
            warm_started: warm,
        });
        // velocity Verlet: half-kick, drift, re-evaluate, half-kick
        for i in 0..n {
            for k in 0..3 {
                v[i][k] += 0.5 * dt * f[i][k];
                sys.atoms[i].pos[k] += dt * v[i][k];
            }
        }
        let out = steps.evaluate(comm, &sys, step + 1, false)?;
        if rank == 0 {
            prune_step_dir(root, step, "md");
        }
        (r, f, warm) = out;
        for i in 0..n {
            for k in 0..3 {
                v[i][k] += 0.5 * dt * f[i][k];
            }
        }
    }
    let kinetic: f64 = 0.5
        * v.iter()
            .map(|vi| vi.iter().map(|&c| c * c).sum::<f64>())
            .sum::<f64>();
    trajectory.push(MdStepRecord {
        free_energy: r.energy.free_energy,
        kinetic,
        total: r.energy.free_energy + kinetic,
        fmax: max_force(&f),
        scf_iterations: performed_iterations(r.iterations, r.resumed_from),
        warm_started: warm,
    });
    Ok(DistMdResult {
        system: sys,
        scf: r,
        trajectory,
    })
}

//! Distributed FIRE relaxation and Born-Oppenheimer MD: one trajectory
//! loop stepping one of the two integrators of [`dft_core::relax`], FIRE
//! ([`dist_relax`]) or velocity Verlet ([`dist_md`]).
//!
//! The loop runs *replicated*: every rank holds the full atom set and the
//! full integrator state, feeds them the bit-identical forces from
//! [`distributed_forces`](crate::forces::distributed_forces), and
//! therefore moves the atoms identically with zero extra communication.
//!
//! Between geometry steps the SCF is *warm-started* from the previous
//! step's converged state — density, filter windows, and wavefunction
//! shards (the mixer history starts fresh) — via the checkpoint machinery:
//! each step exports its converged state with `final_state_dir` into a
//! shared `relax-warm` directory, and the next step reads it back with
//! `restart_from`. For the small moves of a trajectory the previous
//! subspace is an excellent initial guess (zeroth-order wavefunction
//! extrapolation), so warm steps skip the first-iteration multi-pass
//! filtering and reconverge in a fraction of a cold SCF's iterations.
//!
//! Either trajectory is preemptible and fault-recoverable: before each
//! evaluation rank 0 persists the loop state (step, positions, integrator
//! state, records) to a checksummed `relax_state` file next to the
//! snapshots. A relaunch with `restart` set reloads it, resumes at the
//! interrupted step, and picks up that step's own preemption/periodic SCF
//! snapshots — so a preempted 300-step run loses at most the SCF
//! iterations since the last snapshot.

use crate::forces::forces_rank;
use crate::scf::{performed_iterations, scf_rank, DistScfConfig, DistScfResult, ScfError};
use dft_core::cluster::codec::{bad, push_f64, push_u64, read_durable, write_durable, Cur};
use dft_core::forces::{max_force, ForceError};
use dft_core::relax::{FireState, RelaxConfig, VerletState};
use dft_core::scf::KPoint;
use dft_core::system::AtomicSystem;
use dft_core::threads::rank_threads;
use dft_core::xc::XcFunctional;
use dft_fem::space::FeSpace;
use dft_hpc::comm::ThreadComm;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Why a distributed relaxation (or MD run) stopped early.
#[derive(Clone, Debug)]
pub enum RelaxError {
    /// An SCF step failed or was preempted; `ScfError::Preempted` is the
    /// cooperative-stop path — the relax state on disk resumes the run.
    Scf(ScfError),
    /// A force evaluation failed: a diverged force Poisson solve, or a
    /// force reduction that lost a peer outside the SCF.
    Force(ForceError),
}

impl std::fmt::Display for RelaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelaxError::Scf(e) => write!(f, "relaxation SCF failed: {e}"),
            RelaxError::Force(e) => write!(f, "relaxation force evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RelaxError {}

impl From<ScfError> for RelaxError {
    fn from(e: ScfError) -> Self {
        RelaxError::Scf(e)
    }
}

impl From<ForceError> for RelaxError {
    fn from(e: ForceError) -> Self {
        RelaxError::Force(e)
    }
}

/// The relaxation's stop test, wrapped. A step's SCF warm-starts from the
/// previous step's converged state (density + psi shards) iff the SCF
/// config has a `checkpoint_dir` to hold the `relax-warm` slot; without
/// one every step runs cold. This one-field struct survives only because
/// `benchmark/` names it and its `fire` field; folding it into
/// [`RelaxConfig`] belongs to a PR that may edit `benchmark/`.
#[derive(Clone, Debug, Default)]
pub struct DistRelaxConfig {
    /// When the FIRE relaxation stops.
    pub fire: RelaxConfig,
}

/// Velocity-Verlet BO-MD knobs (unit masses, zero initial velocities).
/// Steps warm-start, persist and resume under the same rules as
/// [`dist_relax`].
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

/// One geometry step's record in a trajectory.
#[derive(Clone, Copy, Debug)]
pub struct RelaxStepRecord {
    /// Free energy at this geometry (replicated).
    pub free_energy: f64,
    /// Kinetic energy of the (unit-mass) ions; zero under FIRE, whose
    /// velocities are fictitious.
    pub kinetic: f64,
    /// Largest force component at this geometry.
    pub fmax: f64,
    /// SCF iterations this step's electronic solve *performed* (net of
    /// the snapshot label it warm-resumed from) — the quantity the
    /// warm-vs-cold benchmark compares.
    pub scf_iterations: usize,
    /// Whether the step's SCF actually resumed from a warm snapshot.
    pub warm_started: bool,
}

impl RelaxStepRecord {
    /// Potential plus kinetic energy: what velocity Verlet conserves.
    pub fn total(&self) -> f64 {
        self.free_energy + self.kinetic
    }
}

/// Outcome of a distributed trajectory on one rank. Everything except
/// `scf` (whose profile/comm members are per-rank) is replicated.
pub struct DistRelaxResult {
    /// The system at the last evaluated geometry.
    pub system: AtomicSystem,
    /// The final geometry's SCF result.
    pub scf: DistScfResult,
    /// Per-evaluation records, including the final post-move evaluation.
    pub trajectory: Vec<RelaxStepRecord>,
    /// Whether the force tolerance was reached (never, for MD).
    pub converged: bool,
    /// The geometry step this run resumed from (`None` = fresh start).
    pub resumed_step: Option<usize>,
}

/// The integrator the trajectory loop steps.
enum Integrator {
    Fire(FireState),
    Verlet(VerletState),
}

impl Integrator {
    /// Kinetic energy to record at a geometry whose forces are `f`.
    fn kinetic(&self, f: &[[f64; 3]]) -> f64 {
        match self {
            Integrator::Fire(_) => 0.0,
            Integrator::Verlet(s) => s.kinetic(f),
        }
    }

    /// One move on the forces `f`; returns the displacements.
    fn step(&mut self, f: &[[f64; 3]]) -> Vec<[f64; 3]> {
        match self {
            Integrator::Fire(s) => s.step(f),
            Integrator::Verlet(s) => s.step(f),
        }
    }
}

// ---- trajectory-state persistence --------------------------------------
// A tiny checksummed binary (the `codec` conventions) holding the loop
// state between SCF snapshots. Rank 0 writes it before every evaluation;
// any later relaunch reads it back identically on every rank, so the
// resume decision needs no communication. A missing, corrupt, older or
// other-integrator file degrades to a fresh start — it is an
// optimization, the physics does not depend on it.

/// The file's magic; its last byte is the layout version (2 added the
/// integrator tag and each record's kinetic energy). Any other version
/// reads as no state.
const RELAX_MAGIC: &[u8; 8] = b"DFTRELX2";

/// The warm-start slot every step's converged state is exported to.
const WARM_SLOT: &str = "relax-warm";
/// The loop-state file.
const STATE_FILE: &str = "relax_state";

fn step_dir(root: &Path, step: usize) -> PathBuf {
    root.join(format!("step-{step:04}"))
}

/// The loop state a relaunch resumes from: the step to evaluate next (or
/// evaluated last), the system at it, the integrator, and the records of
/// the steps before it (and of the step itself, once evaluated).
struct Trajectory {
    step: usize,
    sys: AtomicSystem,
    integrator: Integrator,
    records: Vec<RelaxStepRecord>,
}

fn push_xyz(buf: &mut Vec<u8>, xs: impl IntoIterator<Item = [f64; 3]>) {
    for x in xs {
        for c in x {
            push_f64(buf, c);
        }
    }
}

fn read_xyz(c: &mut Cur<'_>, n: usize) -> io::Result<Vec<[f64; 3]>> {
    (0..n).map(|_| Ok([c.f64()?, c.f64()?, c.f64()?])).collect()
}

impl Trajectory {
    fn encode(&self) -> Vec<u8> {
        let mut buf = RELAX_MAGIC.to_vec();
        push_u64(&mut buf, self.step as u64);
        push_u64(&mut buf, self.sys.atoms.len() as u64);
        push_xyz(&mut buf, self.sys.atoms.iter().map(|a| a.pos));
        match &self.integrator {
            Integrator::Fire(s) => {
                push_u64(&mut buf, 0);
                push_xyz(&mut buf, s.v.iter().copied());
                push_f64(&mut buf, s.dt);
                push_f64(&mut buf, s.alpha);
                push_u64(&mut buf, s.n_pos as u64);
            }
            Integrator::Verlet(s) => {
                push_u64(&mut buf, 1);
                push_xyz(&mut buf, s.v.iter().copied());
                push_u64(&mut buf, u64::from(s.moved));
            }
        }
        push_u64(&mut buf, self.records.len() as u64);
        for r in &self.records {
            push_f64(&mut buf, r.free_energy);
            push_f64(&mut buf, r.kinetic);
            push_f64(&mut buf, r.fmax);
            push_u64(&mut buf, r.scf_iterations as u64);
            push_u64(&mut buf, u64::from(r.warm_started));
        }
        buf
    }

    /// This trajectory as persisted under `root`, if the state there is
    /// one of the same integrator over as many atoms; anything else reads
    /// as `None` (degrade to a fresh start), mirroring the warm-start hint
    /// semantics. Velocity Verlet's time step is configuration, not state:
    /// it stays `self`'s.
    fn resumed(&self, root: &Path) -> Option<Trajectory> {
        let body = read_durable(&root.join(STATE_FILE)).ok()?;
        self.decode(&body).ok()
    }

    fn decode(&self, body: &[u8]) -> io::Result<Trajectory> {
        let mut c = Cur::new(body);
        if c.take(8)? != RELAX_MAGIC {
            return Err(bad("not a version-2 trajectory state"));
        }
        let step = c.u64()? as usize;
        let n = self.sys.atoms.len();
        if c.u64()? as usize != n {
            return Err(bad("trajectory state is for another atom count"));
        }
        let mut sys = self.sys.clone();
        for (a, p) in sys.atoms.iter_mut().zip(read_xyz(&mut c, n)?) {
            a.pos = p;
        }
        let integrator = match (c.u64()?, &self.integrator) {
            (0, Integrator::Fire(_)) => Integrator::Fire(FireState {
                v: read_xyz(&mut c, n)?,
                dt: c.f64()?,
                alpha: c.f64()?,
                n_pos: c.u64()? as usize,
            }),
            (1, Integrator::Verlet(s)) => Integrator::Verlet(VerletState {
                v: read_xyz(&mut c, n)?,
                dt: s.dt,
                moved: c.u64()? != 0,
            }),
            _ => return Err(bad("trajectory state is for another integrator")),
        };
        let records = (0..c.u64()?)
            .map(|_| {
                Ok(RelaxStepRecord {
                    free_energy: c.f64()?,
                    kinetic: c.f64()?,
                    fmax: c.f64()?,
                    scf_iterations: c.u64()? as usize,
                    warm_started: c.u64()? != 0,
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(Trajectory {
            step,
            sys,
            integrator,
            records,
        })
    }
}

/// Distributed FIRE relaxation. Call from every rank of a cluster with
/// identical arguments; the returned trajectory, positions, and
/// convergence flag are replicated bit-identically.
///
/// `scf_cfg.checkpoint_dir` doubles as the trajectory root: per-step SCF
/// snapshots, the `relax-warm` warm-start slot, and the `relax_state`
/// loop state all live under it. A fresh run wants a fresh root: it
/// neither reads the slot nor the state an earlier run left there, but a
/// reused root's periodic step snapshots (`checkpoint_every > 0`) would
/// still be resumed from. `scf_cfg.restart` resumes an interrupted
/// trajectory from that state; `scf_cfg.preempt` preempts the in-flight
/// SCF step cooperatively (the loop surfaces [`ScfError::Preempted`] after
/// the step's snapshot and the loop state are both on disk). Runs on this
/// rank's share of the cores ([`dft_core::threads`]).
pub fn dist_relax(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    relax_cfg: &DistRelaxConfig,
    kpts: &[KPoint],
) -> Result<DistRelaxResult, RelaxError> {
    let limits = &relax_cfg.fire;
    let fire = Integrator::Fire(FireState::new(system.atoms.len()));
    rank_threads(comm, |comm| {
        trajectory_rank(comm, space, system, xc, scf_cfg, kpts, limits, fire)
    })
}

/// Distributed Born-Oppenheimer MD: `md_cfg.steps` velocity-Verlet moves
/// (unit masses, zero initial velocities) through the same loop, warm
/// starts, persistence and resume as [`dist_relax`]; the result's
/// `converged` is always false. Runs on this rank's share of the cores
/// ([`dft_core::threads`]).
// dftlint:allow(L009, reason="BO-MD of dft-parallel/tests/forces.rs (MD_GOLDEN and the energy-drift test)")
pub fn dist_md(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    md_cfg: &MdConfig,
    kpts: &[KPoint],
) -> Result<DistRelaxResult, RelaxError> {
    // no force falls below 0: the run stops after its last step only
    let limits = RelaxConfig {
        max_steps: md_cfg.steps,
        force_tol: 0.0,
    };
    let verlet = Integrator::Verlet(VerletState::new(system.atoms.len(), md_cfg.dt));
    rank_threads(comm, |comm| {
        trajectory_rank(comm, space, system, xc, scf_cfg, kpts, &limits, verlet)
    })
}

/// The one trajectory loop: resume from the persisted state, then
/// evaluate → record → stop test → move, persisting the state before every
/// evaluation and pruning each finished step's snapshots. `limits` carries
/// the stop test (`force_tol`, `max_steps`).
#[allow(clippy::too_many_arguments)]
fn trajectory_rank(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    scf_cfg: &DistScfConfig,
    kpts: &[KPoint],
    limits: &RelaxConfig,
    integrator: Integrator,
) -> Result<DistRelaxResult, RelaxError> {
    let root = scf_cfg.checkpoint_dir.as_deref();
    // rank 0 persists and prunes for the whole cluster
    let writer = root.filter(|_| comm.rank() == 0);
    let fresh = Trajectory {
        step: 0,
        sys: system.clone(),
        integrator,
        records: Vec::new(),
    };
    // resume an interrupted trajectory: every rank reads the same bytes,
    // so the decision is identical cluster-wide without communication
    let loaded = root
        .filter(|_| scf_cfg.restart)
        .and_then(|r| fresh.resumed(r));
    let resumed_step = loaded.as_ref().map(|t| t.step);
    let mut t = loaded.unwrap_or(fresh);
    // record i belongs to step i; a state written after the last evaluation
    // already holds step `t.step`'s record, which its re-evaluation pushes
    // again
    t.records.truncate(t.step);
    let last = t.step.max(limits.max_steps);

    // One step's SCF, then the distributed Hellmann-Feynman forces of its
    // density; also reports whether the SCF actually resumed from its warm
    // hint. Snapshots go to the step's own directory (so a preempted step
    // resumes from *its* checkpoints, never a stale earlier step's), every
    // step's converged export writes the shared warm slot, and a `warm`
    // step reads it back — a cold one may still use the caller's
    // `restart_from` hint (e.g. a converged-state cache entry for this
    // geometry family). `distributed_scf`'s newest-complete-snapshot-wins
    // rule arbitrates between the two on resume.
    let evaluate = |comm: &mut ThreadComm, t: &Trajectory, warm: bool, resume: bool| {
        let mut cfg = scf_cfg.clone();
        if let Some(root) = root {
            cfg.checkpoint_dir = Some(step_dir(root, t.step));
            cfg.final_state_dir = Some(root.join(WARM_SLOT));
            if warm {
                cfg.restart_from = Some(root.join(WARM_SLOT));
            }
            cfg.restart = resume || cfg.restart_from.is_some();
        } else {
            (cfg.restart, cfg.restart_from, cfg.final_state_dir) = (false, None, None);
        }
        let r = scf_rank(comm, space, &t.sys, xc, &cfg, kpts)?;
        let (f, _) = forces_rank(comm, space, &t.sys, &r.density.values, cfg.grid)?;
        let warm_started = r.resumed_from.is_some() && cfg.restart_from.is_some();
        Ok::<_, RelaxError>((r, f, warm_started))
    };
    let persist = |t: &Trajectory| {
        if let Some(root) = writer {
            let _ = write_durable(&root.join(STATE_FILE), t.encode());
        }
    };

    // persist *before* each evaluation: a preemption or rank loss inside
    // it then resumes at exactly this step with the already-applied
    // positions. A step warm-starts from the slot its predecessor in this
    // run exported; the resumed step of a restarted run, from the slot the
    // interrupted run left, if any — never from a slot of another run.
    persist(&t);
    let resume = resumed_step.is_some();
    let warm = resume && root.is_some_and(|r| r.join(WARM_SLOT).exists());
    let (mut r, mut f, mut warm_started) = evaluate(comm, &t, warm, resume)?;
    let mut converged = false;
    loop {
        // every evaluation — including the one after the final allowed
        // move — gets its trajectory record and its stop test here, so a
        // run converging exactly at `max_steps` reports it
        let fmax = max_force(&f);
        t.records.push(RelaxStepRecord {
            free_energy: r.energy.free_energy,
            kinetic: t.integrator.kinetic(&f),
            fmax,
            scf_iterations: performed_iterations(r.iterations, r.resumed_from),
            warm_started,
        });
        if fmax < limits.force_tol {
            converged = true;
            break;
        }
        if t.step >= last {
            break;
        }
        let dx = t.integrator.step(&f);
        for (a, d) in t.sys.atoms.iter_mut().zip(&dx) {
            for k in 0..3 {
                a.pos[k] += d[k];
            }
        }
        t.step += 1;
        persist(&t);
        let out = evaluate(comm, &t, true, false)?;
        // best effort: the finished step's warm value now lives in the
        // slot, and keeping every step's psi shards would grow the root
        // linearly with trajectory length
        if let Some(root) = writer {
            let _ = fs::remove_dir_all(step_dir(root, t.step - 1));
        }
        (r, f, warm_started) = out;
    }
    persist(&t);
    Ok(DistRelaxResult {
        system: t.sys,
        scf: r,
        trajectory: t.records,
        converged,
        resumed_step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::system::{Atom, AtomKind};

    /// A state file round-trips bit for bit for its own integrator, and a
    /// version-1 file (FIRE scalars before the velocities, no integrator
    /// tag, no kinetic energy) or another integrator's state reads as no
    /// state — a restarted run starts fresh instead of misreading it.
    #[test]
    fn only_the_current_version_of_the_own_integrator_loads() {
        let root = std::env::temp_dir().join(format!("dft-relax-state-{}", std::process::id()));
        let atom = |pos| Atom {
            kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
            pos,
        };
        let fire = FireState {
            v: vec![[0.25, -0.5, 1.0 / 3.0]],
            dt: 0.45,
            alpha: 0.099,
            n_pos: 7,
        };
        let rec = RelaxStepRecord {
            free_energy: -1.1,
            kinetic: 0.0,
            fmax: 0.2,
            scf_iterations: 8,
            warm_started: true,
        };
        let fresh = |integrator| Trajectory {
            step: 0,
            sys: AtomicSystem::new(vec![atom([0.0; 3])]),
            integrator,
            records: Vec::new(),
        };
        let written = Trajectory {
            step: 1,
            sys: AtomicSystem::new(vec![atom([1.0, 2.0, 3.0])]),
            integrator: Integrator::Fire(fire.clone()),
            records: vec![rec],
        };
        write_durable(&root.join(STATE_FILE), written.encode()).unwrap();
        let t = fresh(Integrator::Fire(FireState::new(1)));
        let got = t.resumed(&root).expect("the current version loads");
        assert_eq!(got.encode(), written.encode(), "round trip");
        let md = fresh(Integrator::Verlet(VerletState::new(1, 0.25)));
        assert!(md.resumed(&root).is_none(), "FIRE state loaded as MD");

        let mut v1 = b"DFTRELX1".to_vec();
        push_u64(&mut v1, 1); // step
        push_u64(&mut v1, 1); // atoms
        push_xyz(&mut v1, [[1.0, 2.0, 3.0]]);
        push_f64(&mut v1, fire.dt);
        push_f64(&mut v1, fire.alpha);
        push_u64(&mut v1, fire.n_pos as u64);
        push_xyz(&mut v1, fire.v.iter().copied());
        push_u64(&mut v1, 1); // one (E, fmax, iterations, warm) record
        push_f64(&mut v1, rec.free_energy);
        push_f64(&mut v1, rec.fmax);
        push_u64(&mut v1, 8);
        push_u64(&mut v1, 1);
        write_durable(&root.join(STATE_FILE), v1).unwrap();
        assert!(t.resumed(&root).is_none(), "version-1 state loaded");
        fs::remove_dir_all(&root).ok();
    }
}

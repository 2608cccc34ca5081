//! One rank's side of the SCF loop, and the only side there is:
//! [`crate::scf::scf`] is the solve on a one-rank cluster.
//!
//! What the loop owns is replicated: every rank carries the full
//! `rho`, `v_eff`, and Poisson solution, recomputed identically from
//! identical inputs, so those steps need no communication at all. What
//! this module supplies through the loop's seam is the paper's data
//! decomposition at miniature scale — wavefunction blocks sharded by owned
//! DoF rows (and, on a process grid, band columns and k-points) — and with
//! it all the communication of one SCF iteration:
//!
//! * ghost-DoF exchange inside every distributed Hamiltonian apply
//!   (overlapped with interior compute, wire precision selectable);
//! * grid-row sums of the Lanczos bounds' scalars (one, then two a step);
//! * grid-row sums and grid-column allgathers of the dense subspace
//!   matrices in CholGS / Rayleigh-Ritz via [`GridReducer`] (FP64; the
//!   off-band-diagonal rows optionally FP32);
//! * one `allreduce` of the partial density built from owned rows;
//! * one `m x m` Gram `allreduce` inside Anderson mixing, whose weights are
//!   masked to owned nodes so the summed Gram equals the serial one.
//!
//! A rank builds one Hamiltonian per k-point and iteration, its rows'
//! [`DistHamiltonian`]; a one-rank grid (the whole problem) runs the local
//! [`KsHamiltonian`] with [`NoReduce`], its k-points in lanes.
//!
//! Every collective leaves bit-identical bytes on all ranks, and all
//! accumulation orders are fixed by rank (never by message arrival), so two
//! runs at the same rank count produce bit-identical energies — and every
//! rank of one run agrees on every replicated quantity to the last bit.
//! Restart selection and the snapshot writer live here too.

use super::checkpoint::{self, ReplicatedScfState};
use super::grid::GridShape;
use super::operator::{DistHamiltonian, DistSpace, SharedComm, WireScalar};
use super::reduce::{CommVolume, GridReducer};
use crate::chebyshev::{NoReduce, SubspaceReducer};
use crate::hamiltonian::{HamOperator, KsHamiltonian};
use crate::scf::{restrict_rows, scf_loop, KPoint, ScalarExt, ScfConfig, ScfResult, ScfState};
use crate::system::AtomicSystem;
use crate::xc::XcFunctional;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{CommError, ThreadComm, WirePrecision};
use dft_hpc::profile::{Phase, PhaseScope, Profile};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::C64;
use std::path::{Path, PathBuf};

/// Why a distributed SCF did not finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScfError {
    /// A rank died or went silent: this rank's communicator failed at the
    /// given SCF iteration (either this rank was killed, or a peer stopped
    /// responding and a collective timed out). The communicator is poisoned;
    /// the driver should restart from the last checkpoint at a reduced rank
    /// count.
    RankLost {
        /// The reporting rank.
        rank: usize,
        /// Zero-based SCF iteration at which the failure surfaced.
        iteration: usize,
        /// The underlying communication failure.
        cause: CommError,
    },
    /// Checkpoint I/O failed (write, finalize, or restart load).
    Checkpoint {
        /// Zero-based SCF iteration of the failed snapshot.
        iteration: usize,
    },
    /// The run was cooperatively preempted: a [`PreemptToken`] was raised,
    /// every rank agreed on it at the top of the given iteration, and a
    /// complete restart snapshot was written before unwinding (when a
    /// `checkpoint_dir` is configured). Not a failure — the job scheduler
    /// resumes the run later with `restart`, possibly at a different rank
    /// count or grid shape.
    Preempted {
        /// Zero-based SCF iteration the snapshot captures; the resumed run
        /// continues from here.
        iteration: usize,
    },
    /// The electrostatic solve of the input density did not reach
    /// `poisson_tol` within its iteration cap. The solve is replicated, so
    /// every rank reports this at the same iteration; a relaunch would
    /// diverge the same way.
    PoissonDiverged {
        /// Zero-based SCF iteration of the failed solve.
        iteration: usize,
    },
}

impl std::fmt::Display for ScfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScfError::RankLost {
                rank,
                iteration,
                cause,
            } => write!(f, "rank {rank} lost at SCF iteration {iteration}: {cause}"),
            ScfError::Checkpoint { iteration } => {
                write!(f, "checkpoint I/O failed at SCF iteration {iteration}")
            }
            ScfError::Preempted { iteration } => {
                write!(
                    f,
                    "preempted at SCF iteration {iteration} (snapshot written)"
                )
            }
            ScfError::PoissonDiverged { iteration } => {
                write!(f, "Poisson solve failed at SCF iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for ScfError {}

/// A cooperative preemption handle shared between a job scheduler and the
/// ranks of one distributed SCF. Raising the token asks the run to stop at
/// the next iteration boundary: the ranks reach consensus on the flag via
/// [`ThreadComm::allreduce_max_u64`] (so a flag observed by any rank
/// becomes a decision taken by all), write a complete restart snapshot,
/// and unwind with [`ScfError::Preempted`]. Cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub struct PreemptToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl PreemptToken {
    /// A fresh, unraised token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the run holding this token to checkpoint and stop.
    pub fn request(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether preemption has been requested (local view; the SCF loop
    /// turns this into a cluster-wide consensus before acting).
    pub fn is_requested(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// Distributed SCF configuration: the serial knobs plus the checkpoint,
/// restart, grid and preemption plumbing of a cluster run. Precision has
/// one switch, `base.mixed_precision` (Sec. 5.4.2): on a cluster it also
/// puts the Chebyshev-filter ghost exchange and the off-band-diagonal rows
/// of the subspace reductions on an FP32 wire.
#[derive(Clone, Debug, Default)]
pub struct DistScfConfig {
    /// The serial SCF knobs, applied unchanged.
    pub base: ScfConfig,
    /// Root directory for SCF restart snapshots; `None` disables
    /// checkpointing regardless of `checkpoint_every`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a snapshot into `checkpoint_dir` every `checkpoint_every` SCF
    /// iterations (0 = never).
    pub checkpoint_every: usize,
    /// Resume from the newest complete snapshot in `checkpoint_dir` (falls
    /// back to a fresh start when none exists). The restart rank count and
    /// grid shape may differ from the writing run's: shards are reassembled
    /// and restricted to the freshly derived partition.
    pub restart: bool,
    /// Process-grid shape (domain x band x k-group; must tile the rank
    /// count exactly). `None` — the default — is
    /// [`GridShape::slab`]`(nranks)`: domain decomposition only. It names
    /// the same shape as `Some(GridShape::slab(nranks))` and runs the same
    /// code, message for message.
    pub grid: Option<GridShape>,
    /// Read-side override for `restart`: resume from the newest complete
    /// snapshot in *this* directory instead of `checkpoint_dir`. This is
    /// the warm-start path of the job server's converged-state cache —
    /// restart reads the cache entry while periodic/preemption snapshots
    /// keep writing to the job's own `checkpoint_dir`. Because a warm
    /// start is an optimization hint rather than a correctness
    /// requirement, an unreadable `restart_from` snapshot degrades to a
    /// fresh start (identically on every rank) instead of failing the run.
    pub restart_from: Option<PathBuf>,
    /// After convergence, export a complete warm-start snapshot of the
    /// *converged* state (final density, mixer history, filter windows,
    /// wavefunctions) into this directory, labeled iteration 1 so a resume
    /// skips the first-iteration multi-pass filtering. This is what the
    /// job server publishes into its converged-state cache.
    pub final_state_dir: Option<PathBuf>,
    /// Cooperative preemption handle. When the token is raised, the ranks
    /// agree on it at the next iteration top, snapshot into
    /// `checkpoint_dir` (if configured) and unwind with
    /// [`ScfError::Preempted`]. `None` — the default — adds no
    /// communication and keeps the schedule bit-identical to earlier PRs.
    pub preempt: Option<PreemptToken>,
}

/// Builder-style constructors, so server code and tests compose exactly
/// the knobs they care about instead of repeating full-struct boilerplate.
impl DistScfConfig {
    /// A config wrapping the given serial knobs, everything else default.
    pub fn new(base: ScfConfig) -> Self {
        Self {
            base,
            ..Self::default()
        }
    }

    /// Enable snapshots into `dir` every `every` SCF iterations.
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Resume from the newest complete snapshot (in `checkpoint_dir`, or
    /// `restart_from` when set).
    pub fn with_restart(mut self) -> Self {
        self.restart = true;
        self
    }

    /// Warm-start: resume from the newest complete snapshot in `dir`
    /// (read-only; snapshots keep writing to `checkpoint_dir`).
    pub fn with_restart_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.restart = true;
        self.restart_from = Some(dir.into());
        self
    }

    /// Export the converged state into `dir` after the run.
    pub fn with_final_state(mut self, dir: impl Into<PathBuf>) -> Self {
        self.final_state_dir = Some(dir.into());
        self
    }

    /// Run on the given process-grid shape.
    pub fn with_grid(mut self, shape: GridShape) -> Self {
        self.grid = Some(shape);
        self
    }

    /// Attach a cooperative preemption token.
    pub fn with_preempt(mut self, token: PreemptToken) -> Self {
        self.preempt = Some(token);
        self
    }
}

/// Run the distributed SCF on this rank's communicator. Call from every
/// rank of a [`dft_hpc::run_cluster`] with identical arguments; the rank's
/// result is its index in the cluster's output. Returns
/// [`ScfError::RankLost`] — within the communicator's timeout, never a
/// hang — when this rank is killed or a peer stops responding. This is the
/// one place the SCF picks the real (Γ-only) or the complex (Bloch) scalar
/// path.
pub fn distributed_scf(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    cfg: &DistScfConfig,
    kpts: &[KPoint],
) -> Result<ScfResult, ScfError> {
    let gamma_only = kpts.len() == 1 && kpts[0].is_gamma();
    if gamma_only {
        solve_on::<f64>(comm, space, system, xc, cfg, kpts)
    } else {
        solve_on::<C64>(comm, space, system, xc, cfg, kpts)
    }
}

/// One rank's side of the SCF loop: its slab of DoF rows, band columns and
/// k-points on the process grid, its operators, the collectives, and the
/// snapshots.
pub(crate) struct ClusterSeam<'a, 'c> {
    cfg: &'a DistScfConfig,
    shared: &'a SharedComm<'c>,
    pub(crate) dist: &'a DistSpace<'a>,
    reducer: GridReducer<'a, 'c>,
}

impl ClusterSeam<'_, '_> {
    fn lost(&self, iteration: usize, cause: CommError) -> ScfError {
        ScfError::RankLost {
            rank: self.dist.grid.rank,
            iteration,
            cause,
        }
    }

    // this rank holds the whole problem: its grid is one rank
    fn whole(&self) -> bool {
        self.dist.grid.shape.nranks() == 1
    }

    /// Number of wavefunction rows this rank stores.
    pub(crate) fn n_rows(&self) -> usize {
        self.dist.dec.n_owned()
    }
    /// Global DoF of local wavefunction row `l`.
    pub(crate) fn dof_of_row(&self, l: usize) -> usize {
        self.dist.dec.owned[l] as usize
    }
    /// The band columns `[j0, j1)` whose density this rank accumulates.
    pub(crate) fn band_cols(&self, n_states: usize) -> (usize, usize) {
        self.dist.grid.my_band_cols(n_states)
    }
    /// The k-points `[k0, k1)` this rank solves, out of `nk`.
    pub(crate) fn kpoints(&self, nk: usize) -> (usize, usize) {
        self.dist.grid.my_kpoints(nk)
    }

    /// How many of this rank's `nk` k-point eigensolves run side by side,
    /// each on its share of the thread budget: a whole problem up to one
    /// per thread (a k-point's bits do not depend on its thread count), a
    /// rank with peers one (its eigensolves share one communicator).
    pub(crate) fn kpoint_lanes(&self, nk: usize) -> usize {
        if self.whole() {
            nk.min(rayon::current_num_threads())
        } else {
            1
        }
    }

    /// Build the one operator on this rank's rows at `v_eff` and `phases`
    /// (booked under [`Phase::Other`]) and hand it to `run` with its reducer:
    /// the local [`KsHamiltonian`] with nothing to reduce on a whole problem,
    /// the [`DistHamiltonian`] with the grid's reducer otherwise.
    pub(crate) fn with_operators<T: WireScalar, R>(
        &self,
        v_eff: &[f64],
        phases: [T; 3],
        profile: Option<&Profile>,
        run: impl FnOnce(&dyn HamOperator<T>, &dyn SubspaceReducer<T>) -> R,
    ) -> R {
        let scope = PhaseScope::new(profile, Phase::Other);
        if self.whole() {
            let h = KsHamiltonian::new(self.dist.space, v_eff, phases);
            drop(scope);
            return run(&h, &NoReduce);
        }
        // under `mixed_precision` the filter's ghosts travel in FP32; the
        // Lanczos, CholGS and RR applies always exchange in FP64
        let wire = if self.cfg.base.mixed_precision {
            WirePrecision::Fp32
        } else {
            WirePrecision::Fp64
        };
        let h = DistHamiltonian::new(self.dist, self.shared, v_eff, phases, wire);
        drop(scope);
        run(&h, &self.reducer)
    }

    /// Sum `buf` over all ranks in place (the density and the Anderson
    /// Gram). A failure stays observable by the next [`Self::probe`].
    pub(crate) fn sum_f64(&self, buf: &mut [f64]) {
        let comm = self.shared;
        // dftlint:allow(L007, reason="deliberate swallow: the failed allreduce has already poisoned the communicator, and the loop probes shared.failure() right after the sum")
        let _ = comm.with(|c| c.allreduce_sum_f64(buf, WirePrecision::Fp64));
    }

    /// Replicate every k-point's eigenvalues and filter window across
    /// k-point groups: each group's (dom 0, band 0) root contributes its ks
    /// to a k-root allreduce, then broadcasts the assembled buffer into its
    /// plane (the filter windows ride along so checkpoints stay replicated).
    pub(crate) fn exchange_kpoints(
        &self,
        iter: usize,
        eigenvalues: &mut [Vec<f64>],
        filter_window: &mut [Option<(f64, f64)>],
        profile: Option<&Profile>,
    ) -> Result<(), ScfError> {
        let pgrid = &self.dist.grid;
        if pgrid.shape.n_kgrp == 1 {
            return Ok(());
        }
        let _scope = PhaseScope::new(profile, Phase::Other);
        let (n_states, nk) = (self.cfg.base.n_states, eigenvalues.len());
        let stride = n_states + 2;
        let mut buf = vec![0.0; nk * stride];
        // dftlint:allow(L006, reason="intentional: only the (dom 0, band 0) roots are members of k_roots, every member runs the same sequence, and non-roots rejoin at the group_broadcast below")
        if pgrid.dom == 0 && pgrid.band == 0 {
            let (k0, k1) = pgrid.my_kpoints(nk);
            for ik in k0..k1 {
                let o = ik * stride;
                buf[o..o + n_states].copy_from_slice(&eigenvalues[ik]);
                if let Some((wa0, wa)) = filter_window[ik] {
                    buf[o + n_states] = wa0;
                    buf[o + n_states + 1] = wa;
                }
            }
            self.shared
                .with(|c| c.group_allreduce_sum_f64(&pgrid.k_roots, &mut buf, WirePrecision::Fp64))
                .map_err(|e| self.lost(iter, e))?;
        }
        self.shared
            .with(|c| c.group_broadcast_f64(&pgrid.kgrp_group, &mut buf, WirePrecision::Fp64))
            .map_err(|e| self.lost(iter, e))?;
        for ik in 0..nk {
            let o = ik * stride;
            eigenvalues[ik] = buf[o..o + n_states].to_vec();
            filter_window[ik] = Some((buf[o + n_states], buf[o + n_states + 1]));
        }
        Ok(())
    }

    /// Surface a failure that an operator apply or a reduction could only
    /// record in the poisoned communicator (the rest of that garbage step
    /// finishes fast).
    pub(crate) fn probe(&self, iter: usize) -> Result<(), ScfError> {
        self.shared
            .failure()
            .map_or(Ok(()), |e| Err(self.lost(iter, e)))
    }

    /// The top of iteration `iter`, before any of its work: preemption
    /// consensus, the periodic snapshot, the fault epoch.
    pub(crate) fn iteration_top<T: WireScalar>(
        &self,
        iter: usize,
        st: &ScfState<T>,
        profile: Option<&Profile>,
    ) -> Result<(), ScfError> {
        let cfg = self.cfg;
        // ---- cooperative preemption consensus --------------------------
        // One tiny allreduce(max) per iteration, present only when a token
        // is attached (the default schedule stays bit-identical): a raise
        // observed by any rank becomes a cluster-wide decision at this
        // iteration, so every rank snapshots the same state and unwinds
        // together.
        if let Some(token) = &cfg.preempt {
            let agreed = self
                .shared
                .with(|c| c.allreduce_max_u64(u64::from(token.is_requested())))
                .map_err(|e| self.lost(iter, e))?;
            if agreed != 0 {
                if let Some(dir) = &cfg.checkpoint_dir {
                    self.snapshot(dir, iter, &st.rho_in, &st.residual_history, st, profile)?;
                }
                return Err(ScfError::Preempted { iteration: iter });
            }
        }
        // ---- checkpoint the top-of-iteration state ---------------------
        // Written *before* the epoch advance, so a fault-injected "kill at
        // iteration K" leaves iteration K's snapshot complete.
        if let Some(dir) = &cfg.checkpoint_dir {
            let every = cfg.checkpoint_every;
            if every > 0 && iter > st.start_iter && iter.is_multiple_of(every) {
                self.snapshot(dir, iter, &st.rho_in, &st.residual_history, st, profile)?;
            }
        }
        // ---- fault-injection epoch: "kill rank R at iteration K" -------
        self.shared
            .with(|c| c.advance_epoch())
            .map_err(|e| self.lost(iter, e))
    }

    /// After convergence, the cache's write side: the converged state at
    /// `rho_out`, labeled iteration 1 so a warm resume skips the
    /// first-iteration multi-pass filtering and typically reconverges in a
    /// handful of iterations.
    pub(crate) fn export_converged<T: WireScalar>(
        &self,
        st: &ScfState<T>,
        rho_out: &[f64],
        profile: Option<&Profile>,
    ) -> Result<(), ScfError> {
        match &self.cfg.final_state_dir {
            Some(dir) => self.snapshot(dir, 1, rho_out, &[], st, profile),
            None => Ok(()),
        }
    }

    /// Write one complete cluster snapshot into `dir`, labeled `iteration`
    /// and resuming from the density `rho_in` — shard write, cluster
    /// barrier (which doubles as the failure detector), then a rank-0
    /// `COMPLETE` marker with keep-last-2 pruning. Shared by the periodic
    /// cadence, cooperative preemption, and the converged-state export.
    /// Band replicas hold identical psi columns, so only the band-0 rank
    /// of each (domain, k-group) slot writes wavefunction blocks, tagged
    /// with the global k indices they cover.
    fn snapshot<T: WireScalar>(
        &self,
        dir: &Path,
        iteration: usize,
        rho_in: &[f64],
        residual_history: &[f64],
        st: &ScfState<T>,
        profile: Option<&Profile>,
    ) -> Result<(), ScfError> {
        let state = ReplicatedScfState {
            iteration,
            rho_in: rho_in.to_vec(),
            mu: st.mu,
            mixer_history: st.mixer.history().to_vec(),
            filter_windows: st.filter_window.clone(),
            residual_history: residual_history.to_vec(),
        };
        let pgrid = &self.dist.grid;
        let (rank, shape) = (pgrid.rank, pgrid.shape);
        let nk = st.filter_window.len();
        let mut scope = PhaseScope::new(profile, Phase::Ck);
        let k0 = pgrid.my_kpoints(nk).0;
        let my_ks: Vec<usize> = (k0..k0 + st.psi.len()).collect();
        let (ck_ks, ck_psi): (&[usize], &[Matrix<T>]) = if pgrid.band == 0 {
            (&my_ks, &st.psi)
        } else {
            (&[], &[])
        };
        let bytes = checkpoint::write_rank_grid(
            dir,
            rank,
            shape.nranks(),
            self.dist.space.ndofs(),
            &state,
            &self.dist.dec.owned,
            ck_psi,
            ck_ks,
            nk,
            self.cfg.base.n_states,
            shape,
        )
        .map_err(|_| ScfError::Checkpoint { iteration })?;
        scope.add_bytes(bytes);
        // every shard must land before the snapshot is declared complete
        self.shared
            .with(|c| c.barrier())
            .map_err(|e| self.lost(iteration, e))?;
        if rank == 0 {
            checkpoint::finalize(dir, iteration, 2)
                .map_err(|_| ScfError::Checkpoint { iteration })?;
        }
        Ok(())
    }
}

/// Point `st` at the newest complete snapshot, if `cfg.restart` asks for
/// one; returns the snapshot iteration resumed from.
///
/// With both a `restart_from` warm-start hint and the job's own
/// `checkpoint_dir` available, whichever holds the *newest* complete
/// snapshot wins (own progress wins ties): a fresh submission reads the
/// cache entry, while a rank-loss relaunch that has already progressed
/// past it resumes from its own later checkpoints instead of repeating
/// work. A warm-start snapshot that fails to load or does not match this
/// run's dimensions degrades to a cold start — every rank reads the same
/// bytes, so the fallback decision is identical cluster-wide; a
/// `checkpoint_dir` restart failure stays fatal, since recovery
/// correctness depends on it.
fn restore<T: WireScalar>(
    seam: &ClusterSeam<'_, '_>,
    st: &mut ScfState<T>,
) -> Result<Option<usize>, ScfError> {
    let cfg = seam.cfg;
    if !cfg.restart {
        return Ok(None);
    }
    fn newest(dir: &Option<PathBuf>) -> Option<(&Path, usize)> {
        let dir = dir.as_deref()?;
        checkpoint::latest_complete(dir).map(|it| (dir, it))
    }
    let chosen = match (newest(&cfg.restart_from), newest(&cfg.checkpoint_dir)) {
        (Some((wd, wi)), Some((_, oi))) if wi > oi => Some((wd, wi, true)),
        (_, Some((od, oi))) => Some((od, oi, false)),
        (Some((wd, wi)), None) => Some((wd, wi, true)),
        (None, None) => None,
    };
    let Some((dir, it, warm_hint)) = chosen else {
        return Ok(None);
    };
    let space = seam.dist.space;
    let nk = st.filter_window.len();
    let loaded = match checkpoint::load::<T>(dir, it) {
        Ok(l)
            if l.state.rho_in.len() == space.nnodes()
                && l.psi_full.len() == nk
                && l.psi_full[0].nrows() == space.ndofs()
                && l.psi_full[0].ncols() == cfg.base.n_states
                && l.state.filter_windows.len() == nk =>
        {
            l
        }
        _ if warm_hint => return Ok(None),
        _ => return Err(ScfError::Checkpoint { iteration: it }),
    };
    // A `restart_from` hint is a *different* problem's converged state (a
    // cache entry, or the previous geometry of a relaxation): its
    // density/subspace/windows are excellent initial guesses, but its
    // Anderson residual pairs point at the OLD fixed point and measurably
    // slow reconvergence at the new one, so the mixer (and the reported
    // residual history) start fresh. Own-checkpoint resumes are the same
    // SCF continuing and restore both.
    if !warm_hint {
        st.mixer.restore_history(loaded.state.mixer_history);
        st.residual_history = loaded.state.residual_history;
    }
    st.rho_in = loaded.state.rho_in;
    st.mu = loaded.state.mu;
    st.filter_window = loaded.state.filter_windows;
    let k0 = seam.dist.grid.my_kpoints(nk).0;
    for (psi, full) in st.psi.iter_mut().zip(&loaded.psi_full[k0..]) {
        *psi = restrict_rows(seam, full);
    }
    st.start_iter = loaded.state.iteration;
    Ok(Some(it))
}

/// [`distributed_scf`] on the scalar path `T`.
pub(crate) fn solve_on<T: WireScalar + ScalarExt>(
    comm: &mut ThreadComm,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    cfg: &DistScfConfig,
    kpts: &[KPoint],
) -> Result<ScfResult, ScfError> {
    let dist = DistSpace::on_grid(space, cfg.grid, comm.rank(), comm.size());
    let shared = SharedComm::new(comm);
    let seam = ClusterSeam {
        cfg,
        shared: &shared,
        dist: &dist,
        reducer: GridReducer::new(&shared, &dist.grid),
    };
    let comm_start = CommVolume::snapshot(&shared);

    let mut state = ScfState::<T>::new(space, system, &cfg.base, kpts, &seam);
    let resumed_from = restore(&seam, &mut state)?;
    let mut r = scf_loop(space, system, xc, &cfg.base, kpts, &seam, state)?;
    r.resumed_from = resumed_from;
    r.comm = comm_start.delta(&CommVolume::snapshot(&shared));
    Ok(r)
}

/// SCF iterations a run *performed*, net of the snapshot label it resumed
/// from. Saturating: a warm resume that converges immediately can report
/// `iterations <= resumed_from` (the converged-state export is labeled
/// iteration 1, and `iterations` counts from the resumed label), and the
/// accounting must floor at zero instead of wrapping.
pub fn performed_iterations(iterations: usize, resumed_from: Option<usize>) -> usize {
    iterations.saturating_sub(resumed_from.unwrap_or(0))
}

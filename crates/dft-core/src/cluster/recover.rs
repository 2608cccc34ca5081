//! The restart drivers: run a distributed SCF or relaxation, and when ranks
//! die, resume from the newest complete checkpoint at a reduced rank count.
//! Both are one relaunch loop, told apart by the closure it runs on each
//! rank and by how that closure's error classifies.
//!
//! Recovery needs no surviving process state — the snapshot on disk plus the
//! deterministic [`Decomposition`](super::decomp::Decomposition) derived
//! from the *new* rank count are enough. The reassembled wavefunction shards
//! are restricted to the fresh partition, so the restarted SCF continues
//! from the checkpointed iteration and reconverges to the same free energy
//! (bit-identical at the same rank count, to solver tolerance otherwise).

use super::relax::{dist_relax, DistRelaxConfig, DistRelaxResult, RelaxError};
use super::scf::{distributed_scf, DistScfConfig, ScfError};
use crate::forces::ForceError;
use crate::scf::{KPoint, ScfResult};
use crate::system::AtomicSystem;
use crate::xc::XcFunctional;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{run_cluster_with, ClusterOptions, CommError, FaultPlan, ThreadComm};
use std::sync::Arc;

/// What a recovery driver did to finish its run: `R` is the per-rank
/// result ([`ScfResult`] or [`DistRelaxResult`]), `E` its error.
pub struct RecoveryReport<R, E> {
    /// Per-rank results of the *successful* attempt, in rank order.
    pub results: Vec<R>,
    /// Cluster launches performed (1 = no failure).
    pub attempts: usize,
    /// Rank count of the first launch.
    pub initial_nranks: usize,
    /// Rank count of the successful launch.
    pub final_nranks: usize,
    /// The first per-rank error observed, if any attempt failed.
    pub first_failure: Option<E>,
}

/// What a per-rank error means for the relaunch loop.
enum Fault {
    /// This rank was killed: the relaunch runs without it.
    Killed,
    /// A peer went silent; a smaller cluster can resume.
    Lost,
    /// Relaunching cannot fix this.
    Fatal,
}

fn scf_fault(e: &ScfError) -> Fault {
    match e {
        ScfError::RankLost {
            cause: CommError::Killed { .. },
            ..
        } => Fault::Killed,
        ScfError::RankLost { .. } => Fault::Lost,
        // a broken snapshot store or a diverged (replicated) Poisson solve
        // stays broken across relaunches; a cooperative preemption is a
        // scheduling decision, not a failure — the job scheduler resumes
        // the run itself, so relaunching here would override it
        ScfError::Checkpoint { .. }
        | ScfError::Preempted { .. }
        | ScfError::PoissonDiverged { .. } => Fault::Fatal,
    }
}

fn relax_fault(e: &RelaxError) -> Fault {
    match e {
        RelaxError::Scf(e) => scf_fault(e),
        RelaxError::Force(ForceError::Comm(CommError::Killed { .. })) => Fault::Killed,
        RelaxError::Force(ForceError::Comm(_)) => Fault::Lost,
        // a diverged force Poisson solve is replicated too
        RelaxError::Force(ForceError::PoissonDiverged { .. }) => Fault::Fatal,
    }
}

/// The relaunch loop both recovery drivers share: run → classify errors →
/// drop dead ranks → restart on the survivors' slab. Relaunches are fault-free (a kill
/// rule fires once; replaying it would re-kill the restarted run), keep
/// the original receive deadline, and replay the same explored schedule (a
/// divergence found under seed S must stay reproducible under S). Every
/// launch splits the calling thread's budget over its ranks
/// ([`run_cluster_with`]), so a relaunch on fewer ranks gives each more.
fn relaunch_loop<R: Send, E: Clone + Send>(
    nranks: usize,
    opts: &ClusterOptions,
    cfg: &DistScfConfig,
    max_restarts: usize,
    fault: fn(&E) -> Fault,
    run: impl Fn(&mut ThreadComm, &DistScfConfig) -> Result<R, E> + Send + Sync,
) -> Result<RecoveryReport<R, E>, E> {
    assert!(nranks >= 1);
    let mut n = nranks;
    let mut attempts = 0;
    let mut first_failure: Option<E> = None;
    let mut opts = opts.clone();
    let mut cfg = cfg.clone();

    loop {
        attempts += 1;
        let (outcomes, _) = run_cluster_with(n, &opts, |comm| run(comm, &cfg));
        let killed = outcomes
            .iter()
            .filter(|r| matches!(r, Err(e) if matches!(fault(e), Fault::Killed)))
            .count();
        let err = match outcomes.into_iter().collect::<Result<Vec<R>, E>>() {
            Ok(results) => {
                return Ok(RecoveryReport {
                    results,
                    attempts,
                    initial_nranks: nranks,
                    final_nranks: n,
                    first_failure,
                })
            }
            Err(first) => first,
        };
        first_failure.get_or_insert_with(|| err.clone());
        // survivors time out without a Killed cause when the dead rank never
        // reports (it is gone, not erroring) — drop at least one rank
        let drop_ranks = killed.max(1);
        if matches!(fault(&err), Fault::Fatal) || attempts > max_restarts || n <= drop_ranks {
            return Err(err);
        }
        n -= drop_ranks;
        // the original grid shape cannot tile the reduced rank count, so the
        // relaunch runs on the slab of the survivors (checkpoints reshard
        // across grid shapes); `restart` resumes from the newest complete
        // snapshot
        opts.faults = Arc::new(FaultPlan::default());
        cfg.restart = true;
        cfg.grid = None;
    }
}

/// Run the distributed SCF under `opts` (which may carry a fault plan) and,
/// on rank loss, relaunch from the newest complete snapshot in
/// `cfg.checkpoint_dir` with the dead ranks removed.
///
/// Errors with the first failure when `max_restarts` is exhausted, when the
/// cluster shrinks below one rank, or on a failure a relaunch cannot fix
/// (checkpoint I/O, preemption, a diverged Poisson solve).
#[allow(clippy::too_many_arguments)]
pub fn scf_with_recovery<X: XcFunctional + Sync>(
    nranks: usize,
    opts: &ClusterOptions,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &X,
    cfg: &DistScfConfig,
    kpts: &[KPoint],
    max_restarts: usize,
) -> Result<RecoveryReport<ScfResult, ScfError>, ScfError> {
    relaunch_loop(nranks, opts, cfg, max_restarts, scf_fault, |comm, cfg| {
        distributed_scf(comm, space, system, xc, cfg, kpts)
    })
}

/// [`scf_with_recovery`] for the distributed relaxation driver: run
/// [`dist_relax`] under `opts`, and on rank loss relaunch with the dead
/// ranks removed. The relaunch resumes the *geometry* loop from the
/// persisted relax state and the interrupted step's SCF from its newest
/// complete snapshot — so a fault mid-trajectory repeats at most one
/// step's un-checkpointed SCF iterations, not the whole relaxation.
///
/// Force-evaluation failures pass through untouched like the SCF's
/// unrecoverable ones: relaunching fixes none of them.
#[allow(clippy::too_many_arguments)]
pub fn relax_with_recovery<X: XcFunctional + Sync>(
    nranks: usize,
    opts: &ClusterOptions,
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &X,
    cfg: &DistScfConfig,
    relax_cfg: &DistRelaxConfig,
    kpts: &[KPoint],
    max_restarts: usize,
) -> Result<RecoveryReport<DistRelaxResult, RelaxError>, RelaxError> {
    relaunch_loop(nranks, opts, cfg, max_restarts, relax_fault, |comm, cfg| {
        dist_relax(comm, space, system, xc, cfg, relax_cfg, kpts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_hpc::threads::with_threads;
    use std::sync::Mutex;

    /// Each launch splits the caller's budget over the ranks it runs: under
    /// a cap of 8, the two ranks of the first launch plan for 4 threads
    /// each, and the one rank left after the injected kill for all 8.
    #[test]
    fn a_relaunch_gives_its_ranks_their_share() {
        let opts = ClusterOptions {
            faults: Arc::new(FaultPlan::kill_at_epoch(1, 1)),
            ..ClusterOptions::default()
        };
        let seen = Mutex::new(Vec::new());
        let report = with_threads(8, || {
            relaunch_loop(
                2,
                &opts,
                &DistScfConfig::default(),
                1,
                scf_fault,
                |comm, _| {
                    let threads = rayon::current_num_threads();
                    seen.lock().unwrap().push((comm.size(), threads));
                    comm.advance_epoch().map_err(|cause| ScfError::RankLost {
                        rank: comm.rank(),
                        iteration: 0,
                        cause,
                    })?;
                    Ok(threads)
                },
            )
        })
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((report.attempts, report.final_nranks), (2, 1));
        assert_eq!(report.results, vec![8]);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 8), (2, 4), (2, 4)]);
    }

    /// Only a lost or killed rank is worth a relaunch; everything that
    /// fails identically on every rank, and preemption, is handed back.
    #[test]
    fn only_rank_loss_is_relaunched() {
        let lost = |cause| ScfError::RankLost {
            rank: 1,
            iteration: 3,
            cause,
        };
        let killed = CommError::Killed { rank: 1 };
        let gone = CommError::PeerGone { peer: 0 };
        assert!(matches!(scf_fault(&lost(killed)), Fault::Killed));
        assert!(matches!(scf_fault(&lost(gone)), Fault::Lost));
        for e in [
            ScfError::Checkpoint { iteration: 2 },
            ScfError::Preempted { iteration: 2 },
            ScfError::PoissonDiverged { iteration: 2 },
        ] {
            assert!(matches!(scf_fault(&e), Fault::Fatal), "{e}");
            assert!(matches!(relax_fault(&RelaxError::Scf(e)), Fault::Fatal));
        }
        assert!(matches!(
            relax_fault(&RelaxError::Scf(lost(killed))),
            Fault::Killed
        ));
        assert!(matches!(
            relax_fault(&RelaxError::Force(ForceError::Comm(killed))),
            Fault::Killed
        ));
        assert!(matches!(
            relax_fault(&RelaxError::Force(ForceError::Comm(gone))),
            Fault::Lost
        ));
        let diverged = ForceError::PoissonDiverged {
            iterations: 20000,
            residual: 1.0,
        };
        assert!(matches!(
            relax_fault(&RelaxError::Force(diverged)),
            Fault::Fatal
        ));
    }
}

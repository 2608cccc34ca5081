//! Fault-tolerance integration tests: deterministic rank kills during the
//! distributed SCF must surface as [`ScfError::RankLost`] on every rank
//! within the communicator deadline (never a hang), and restarting from the
//! on-disk checkpoint must reconverge to the uninterrupted free energy. The
//! relaunch loop behind both recovery drivers is exercised through each
//! wrapper: failures a relaunch cannot fix return at once, kills shrink the
//! cluster by the number of ranks killed.

use dft_core::chebyshev::{chebyshev_filter_scratch, CfScratch};
use dft_core::cluster::checkpoint;
use dft_core::cluster::operator::{ghost_tag_band, DistHamiltonian, DistSpace, SharedComm};
use dft_core::cluster::recover::{relax_with_recovery, scf_with_recovery};
use dft_core::cluster::relax::{DistRelaxConfig, RelaxError};
use dft_core::cluster::scf::{distributed_scf, DistScfConfig, PreemptToken, ScfError};
use dft_core::relax::RelaxConfig;
use dft_core::scf::{KPoint, ScfConfig, ScfResult};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::{Lda, XcFunctional, XcPoint};
use dft_fem::mesh::{Axis, BoundaryCondition as Bc, Mesh3d};
use dft_fem::space::FeSpace;
use dft_hpc::comm::{
    run_cluster, run_cluster_with, ClusterOptions, CommError, FaultPlan, KillRule, WirePrecision,
    COLLECTIVE_TAGS,
};
use dft_linalg::matrix::Matrix;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn parity_system() -> (FeSpace, AtomicSystem) {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let sys = AtomicSystem::new(vec![Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
        pos: [3.0, 3.0, 3.0],
    }]);
    (space, sys)
}

fn parity_cfg() -> ScfConfig {
    ScfConfig {
        n_states: 4,
        kt: 0.02,
        tol: 1e-6,
        max_iter: 60,
        cheb_degree: 30,
        first_iter_cf_passes: 5,
        ..ScfConfig::default()
    }
}

fn fresh_dir(label: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dft-ft-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// Every rank of a faulted run must return `Err` — the victim with a
/// `Killed` cause, the survivors with a `Timeout`/`PeerGone` cause — within
/// a small multiple of the communicator deadline.
fn assert_all_lost(
    results: Vec<Result<ScfResult, ScfError>>,
    victim: usize,
    elapsed: Duration,
    budget: Duration,
) {
    assert!(
        elapsed < budget,
        "cluster took {elapsed:?} to drain (budget {budget:?})"
    );
    for (r, res) in results.into_iter().enumerate() {
        let err = match res {
            Ok(_) => panic!("rank {r} finished the SCF despite the kill"),
            Err(e) => e,
        };
        match err {
            ScfError::RankLost { rank, cause, .. } => {
                assert_eq!(rank, r, "error must name the reporting rank");
                if r == victim {
                    assert_eq!(cause, CommError::Killed { rank: victim });
                } else {
                    assert!(
                        matches!(
                            cause,
                            CommError::Timeout { .. } | CommError::PeerGone { .. }
                        ),
                        "survivor {r}: unexpected cause {cause:?}"
                    );
                }
            }
            other => panic!("rank {r}: expected RankLost, got {other:?}"),
        }
    }
}

/// Kill a rank on its first ghost-exchange send of SCF iteration 1 (in the
/// Lanczos bounds that open the eigensolve): survivors must drain with
/// `RankLost`, not hang. Seen
/// from inside the filter, the recurrence step whose exchange fails leaves
/// zeros — never its update over a half-written workspace — the typed
/// error stays in the communicator, and the rest of the filter runs out
/// without a panic or a NaN.
#[test]
fn kill_mid_chebyshev_filter_drains_cleanly() {
    let (space, sys) = parity_system();
    let dcfg = DistScfConfig::new(parity_cfg());
    let opts = ClusterOptions {
        timeout: Duration::from_secs(2),
        faults: std::sync::Arc::new(FaultPlan::kill_on_send(1, 2, ghost_tag_band(), 0)),
        schedule: None,
    };
    let t0 = Instant::now();
    let (results, stats) = run_cluster_with(4, &opts, |comm| {
        distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()])
    });
    assert_all_lost(results, 1, t0.elapsed(), Duration::from_secs(30));
    let (timeouts, kills) = stats.fault_snapshot();
    assert_eq!(kills, 1, "exactly one rank must have been killed");
    assert!(timeouts >= 1, "survivors must have timed out");

    // rank 1 dies on its sixth ghost send, a few degree steps into the filter
    let opts = ClusterOptions {
        timeout: Duration::from_secs(1),
        faults: std::sync::Arc::new(FaultPlan::kill_on_send(1, 0, ghost_tag_band(), 5)),
        schedule: None,
    };
    let v_eff = vec![0.1; space.nnodes()];
    let (outcomes, _) = run_cluster_with(4, &opts, |comm| {
        let dist = DistSpace::new(&space, comm.rank(), comm.size());
        let shared = SharedComm::new(comm);
        let h = DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
        let mut block = Matrix::<f64>::from_fn(dist.dec.n_owned(), 9, |i, j| {
            ((i * 3 + j * 17) as f64 * 0.23).sin()
        });
        chebyshev_filter_scratch(&h, &mut block, 30, 0.5, 20.0, -1.0, &mut CfScratch::new());
        (shared.failure(), block)
    });
    for (r, (failure, block)) in outcomes.into_iter().enumerate() {
        match failure {
            Some(CommError::Killed { rank: 1 }) if r == 1 => {}
            Some(CommError::Timeout { .. } | CommError::PeerGone { .. }) if r != 1 => {}
            other => panic!("rank {r}: unexpected communicator state {other:?}"),
        }
        // the failed step and every later one zero-fill, and three steps
        // rotate the zeros through all three recurrence blocks
        assert!(
            block.as_slice().iter().all(|&v| v == 0.0),
            "rank {r}: the filter ran on over a failed exchange"
        );
    }
}

/// Kill a rank between the receive legs of a subspace allreduce: the ring
/// stalls on every rank, and all of them must report `RankLost` in bounded
/// time.
#[test]
fn kill_mid_allreduce_drains_cleanly() {
    let (space, sys) = parity_system();
    let dcfg = DistScfConfig::new(parity_cfg());
    let opts = ClusterOptions {
        timeout: Duration::from_secs(2),
        faults: std::sync::Arc::new(FaultPlan::kill_on_send(2, 2, COLLECTIVE_TAGS, 1)),
        schedule: None,
    };
    let t0 = Instant::now();
    let (results, _) = run_cluster_with(4, &opts, |comm| {
        distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()])
    });
    assert_all_lost(results, 2, t0.elapsed(), Duration::from_secs(30));
}

/// More ranks than cells: the surplus ranks own nothing but must still
/// participate in every collective, and the converged energy must match a
/// fully loaded run of the same system to SCF-parity accuracy.
#[test]
fn scf_with_empty_ranks_matches_fewer_rank_energy() {
    let mesh = Mesh3d::new(
        [
            Axis::uniform(4, 0.0, 8.0, Bc::Dirichlet),
            Axis::uniform(1, 0.0, 2.0, Bc::Dirichlet),
            Axis::uniform(1, 0.0, 2.0, Bc::Dirichlet),
        ],
        2,
    );
    let space = FeSpace::new(mesh);
    assert_eq!(space.cells().len(), 4);
    let sys = AtomicSystem::new(vec![Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.6 },
        pos: [4.0, 1.0, 1.0],
    }]);
    let dcfg = DistScfConfig::new(ScfConfig {
        n_states: 3,
        kt: 0.02,
        tol: 1e-7,
        max_iter: 80,
        cheb_degree: 20,
        ..ScfConfig::default()
    });
    let energy_at = |nranks: usize| {
        let (results, _) = run_cluster(nranks, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.converged, "rank {rank}/{nranks} did not converge");
        }
        results[0].energy.free_energy
    };
    let e2 = energy_at(2);
    // 5 ranks on 4 cells: rank 4 owns no cells, no DoFs, no neighbors
    let e5 = energy_at(5);
    let d = (e5 - e2).abs();
    assert!(d <= 1e-10, "5-rank {e5} vs 2-rank {e2} (|d| = {d:.3e})");
}

/// Same-rank-count restart contract: stop a checkpointing run early, resume
/// it, and the completed trajectory must be *bit-identical* to a run that
/// was never interrupted — also for 24 states filtered 8 columns at a time,
/// where the resumed iterations stop the unoccupied filter blocks at the
/// snapshot's chemical potential and filter windows.
#[test]
fn resume_at_same_rank_count_is_bit_identical() {
    let (space, sys) = parity_system();
    let wide = ScfConfig {
        n_states: 24,
        block_size: 8,
        ..parity_cfg()
    };
    for cfg in [parity_cfg(), wide] {
        let dir = fresh_dir("resume");
        let what = format!("{} states", cfg.n_states);

        // uninterrupted reference (no checkpointing)
        let dcfg_ref = DistScfConfig::new(cfg.clone());
        let (reference, _) = run_cluster(4, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg_ref, &[KPoint::gamma()]).expect("scf")
        });
        assert!(reference[0].converged, "{what}");

        // truncated run: snapshots every 2 iterations, stopped after 3
        let dcfg_cut = DistScfConfig::new(ScfConfig {
            max_iter: 3,
            ..cfg.clone()
        })
        .with_checkpoints(dir.clone(), 2);
        let (cut, _) = run_cluster(4, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg_cut, &[KPoint::gamma()]).expect("scf")
        });
        assert!(!cut[0].converged, "{what}: 3 iterations must not converge");

        // resume to completion
        let dcfg_resume = DistScfConfig::new(cfg)
            .with_checkpoints(dir.clone(), 2)
            .with_restart();
        let (resumed, _) = run_cluster(4, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg_resume, &[KPoint::gamma()])
                .expect("scf")
        });
        for (r, (a, b)) in reference.iter().zip(resumed.iter()).enumerate() {
            assert_eq!(b.resumed_from, Some(2), "{what}: rank {r} did not resume");
            assert_eq!(
                a.energy.free_energy.to_bits(),
                b.energy.free_energy.to_bits(),
                "{what}: rank {r}: resumed energy differs from uninterrupted"
            );
            assert_eq!(a.iterations, b.iterations, "{what}");
            assert_eq!(
                a.residual_history, b.residual_history,
                "{what}: rank {r}: resumed residual trajectory differs"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance scenario: a 4-rank SCF with rank 2 killed at iteration 3
/// (1-based) neither hangs nor panics — survivors return `RankLost` before
/// the deadline — and the recovery driver restarts from the last complete
/// snapshot at 3 ranks, reconverging to the uninterrupted free energy
/// within 1e-10 Ha.
#[test]
fn killed_rank_recovery_reconverges_to_uninterrupted_energy() {
    let (space, sys) = parity_system();
    let dir = fresh_dir("recover");

    // uninterrupted 4-rank reference
    let dcfg_ref = DistScfConfig::new(parity_cfg());
    let (reference, _) = run_cluster(4, |comm| {
        distributed_scf(comm, &space, &sys, &Lda, &dcfg_ref, &[KPoint::gamma()]).expect("scf")
    });
    assert!(reference[0].converged);
    let e_ref = reference[0].energy.free_energy;

    // faulted run: kill rank 2 at its 3rd epoch advance (SCF iteration 3,
    // 1-based); snapshots every 2 iterations land a complete checkpoint at
    // iteration 2 just before the kill fires
    let dcfg = DistScfConfig::new(parity_cfg()).with_checkpoints(dir.clone(), 2);
    let opts = ClusterOptions {
        timeout: Duration::from_secs(2),
        faults: std::sync::Arc::new(FaultPlan::kill_at_epoch(2, 3)),
        schedule: None,
    };
    let t0 = Instant::now();
    let report = scf_with_recovery(4, &opts, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()], 2)
        .expect("recovery must succeed");
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "recovery took {:?}",
        t0.elapsed()
    );

    assert_eq!(report.attempts, 2, "one kill must cost exactly one restart");
    assert_eq!(report.initial_nranks, 4);
    assert_eq!(report.final_nranks, 3, "restart must drop the dead rank");
    assert!(
        matches!(report.first_failure, Some(ScfError::RankLost { .. })),
        "first failure must be the injected kill: {:?}",
        report.first_failure
    );
    assert_eq!(report.results.len(), 3);
    for (rank, r) in report.results.iter().enumerate() {
        assert!(r.converged, "restarted rank {rank} did not converge");
        assert_eq!(
            r.resumed_from,
            Some(2),
            "restart must resume from the iteration-2 snapshot"
        );
        let d = (r.energy.free_energy - e_ref).abs();
        assert!(
            d <= 1e-10,
            "recovered energy {} vs uninterrupted {} (|d| = {d:.3e})",
            r.energy.free_energy,
            e_ref
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Poisson tolerance the CG cannot reach within its iteration cap fails
/// the run with the typed error on every rank (the solve is replicated, so
/// all ranks leave at the same iteration and nobody waits on a collective),
/// and the recovery driver does not relaunch a failure that would repeat.
#[test]
fn poisson_divergence_is_a_typed_error_on_every_rank() {
    let (space, sys) = parity_system();
    let dcfg = DistScfConfig::new(ScfConfig {
        poisson_tol: 1e-300,
        ..parity_cfg()
    });
    let opts = ClusterOptions::with_timeout(Duration::from_secs(2));
    let t0 = Instant::now();
    let (results, _) = run_cluster_with(2, &opts, |comm| {
        distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()])
    });
    assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
    for (r, res) in results.into_iter().enumerate() {
        assert_eq!(
            res.err(),
            Some(ScfError::PoissonDiverged { iteration: 0 }),
            "rank {r}"
        );
    }
    let err = scf_with_recovery(2, &opts, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()], 2)
        .err()
        .expect("a diverged Poisson solve must fail the run");
    assert_eq!(err, ScfError::PoissonDiverged { iteration: 0 });
}

/// LDA that counts its point evaluations, so a test can tell one cluster
/// launch from several.
struct CountingLda(AtomicUsize);

impl XcFunctional for CountingLda {
    fn name(&self) -> &'static str {
        "counting-LDA"
    }
    fn needs_gradient(&self) -> bool {
        false
    }
    fn eval_point(&self, rho: f64, grad_norm: f64) -> XcPoint {
        self.0.fetch_add(1, Ordering::Relaxed);
        Lda.eval_point(rho, grad_norm)
    }
}

/// A broken snapshot store stays broken across relaunches: the SCF wrapper
/// returns the checkpoint error after exactly one launch's worth of work.
#[test]
fn checkpoint_failure_is_not_relaunched() {
    let (space, sys) = parity_system();
    // the snapshot root sits below a regular file, so no shard can land
    let blocker = fresh_dir("blocked").join("file");
    std::fs::write(&blocker, b"not a directory").expect("write");
    let dcfg = DistScfConfig::new(parity_cfg()).with_checkpoints(blocker.join("ckpt"), 2);
    let opts = ClusterOptions::with_timeout(Duration::from_secs(2));

    let one_launch = CountingLda(AtomicUsize::new(0));
    let (direct, _) = run_cluster_with(2, &opts, |comm| {
        distributed_scf(comm, &space, &sys, &one_launch, &dcfg, &[KPoint::gamma()])
    });
    for res in direct {
        assert_eq!(res.err(), Some(ScfError::Checkpoint { iteration: 2 }));
    }

    let recovered = CountingLda(AtomicUsize::new(0));
    let kpts = [KPoint::gamma()];
    let err = scf_with_recovery(2, &opts, &space, &sys, &recovered, &dcfg, &kpts, 2)
        .err()
        .expect("checkpoint I/O failure must fail the run");
    assert_eq!(err, ScfError::Checkpoint { iteration: 2 });
    assert_eq!(
        recovered.0.load(Ordering::Relaxed),
        one_launch.0.load(Ordering::Relaxed),
        "the recovery driver relaunched an unfixable failure"
    );
}

fn one_move_relax() -> DistRelaxConfig {
    DistRelaxConfig {
        fire: RelaxConfig {
            max_steps: 1,
            force_tol: 0.0,
        },
    }
}

/// Preemption is the scheduler's decision: the relax wrapper hands it back
/// without relaunching. A relaunch would have run on one rank fewer and
/// rewritten the preemption snapshot from there.
#[test]
fn preempted_relaxation_is_not_relaunched() {
    let (space, sys) = parity_system();
    let dir = fresh_dir("relax-preempt");
    let token = PreemptToken::new();
    token.request();
    let dcfg = DistScfConfig::new(parity_cfg())
        .with_checkpoints(dir.clone(), 2)
        .with_preempt(token);
    let opts = ClusterOptions::with_timeout(Duration::from_secs(2));
    let kpts = [KPoint::gamma()];
    let err = relax_with_recovery(
        2,
        &opts,
        &space,
        &sys,
        &Lda,
        &dcfg,
        &one_move_relax(),
        &kpts,
        2,
    )
    .err()
    .expect("a raised token must stop the run");
    assert!(
        matches!(err, RelaxError::Scf(ScfError::Preempted { iteration: 0 })),
        "{err:?}"
    );
    let snapshot = checkpoint::load::<f64>(&dir.join("step-0000"), 0).expect("snapshot");
    assert_eq!(snapshot.nranks_at_write, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two of four ranks killed in the same SCF iteration: the relax wrapper
/// relaunches once, on exactly the two survivors' worth of ranks, and the
/// resumed trajectory finishes.
#[test]
fn relaxation_shrinks_by_the_number_of_ranks_killed() {
    let (space, sys) = parity_system();
    let dir = fresh_dir("relax-kill");
    let dcfg = DistScfConfig::new(parity_cfg()).with_checkpoints(dir.clone(), 2);
    let kill = |rank| KillRule {
        rank,
        epoch: 3,
        tags: None,
        after_matches: 0,
    };
    let opts = ClusterOptions {
        timeout: Duration::from_secs(2),
        faults: std::sync::Arc::new(FaultPlan {
            kills: vec![kill(1), kill(3)],
        }),
        schedule: None,
    };
    let kpts = [KPoint::gamma()];
    let report = relax_with_recovery(
        4,
        &opts,
        &space,
        &sys,
        &Lda,
        &dcfg,
        &one_move_relax(),
        &kpts,
        2,
    )
    .expect("recovery must succeed");
    assert_eq!(report.attempts, 2);
    assert_eq!((report.initial_nranks, report.final_nranks), (4, 2));
    assert!(matches!(
        report.first_failure,
        Some(RelaxError::Scf(ScfError::RankLost { .. }))
    ));
    assert_eq!(report.results.len(), 2);
    for r in &report.results {
        assert!(r.scf.converged);
        assert_eq!(r.trajectory.len(), 2, "both evaluations must be recorded");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

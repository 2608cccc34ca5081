//! End-to-end serving tests: bursts with cache hits, admission control,
//! preemption/resume, and rank-loss recovery — all on miniature systems.

use dft_core::system::{Atom, AtomKind};
use dft_hpc::comm::FaultPlan;
use dft_materials::{requests, Structure};
use dft_serve::{
    AdmissionError, DftServer, JobKind, JobRequest, JobSpec, JobStatus, Priority, ServerConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn pseudo(z: f64, r_c: f64, pos: [f64; 3]) -> Atom {
    Atom {
        kind: AtomKind::Pseudo { z, r_c },
        pos,
    }
}

fn fresh_root(label: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dft-serve-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// A converging single-atom spec; `variant` moves the atom so distinct
/// variants are physically distinct problems.
fn mini_spec(variant: usize) -> JobSpec {
    let off = variant as f64 * 0.35;
    JobSpec::miniature(vec![pseudo(2.0, 0.8, [2.0 + off, 3.0, 3.0])], 6.0)
}

/// A stretched diatomic whose relaxation provides a reliably long-running
/// job: each round is a full SCF plus snapshot traffic, so hundreds of
/// rounds occupy a rank slot for a long, controllable stretch.
fn diatomic_spec() -> JobSpec {
    JobSpec::miniature(
        vec![
            pseudo(1.0, 0.7, [2.2, 3.0, 3.0]),
            pseudo(1.0, 0.7, [3.8, 3.0, 3.0]),
        ],
        6.0,
    )
}

fn long_request(tenant: &str, priority: Priority, steps: usize) -> JobRequest {
    JobRequest::new(tenant, priority, JobKind::Relax { steps }, diatomic_spec())
}

#[test]
fn burst_completes_with_cache_hits_and_matching_energies() {
    let mut cfg = ServerConfig::new(fresh_root("burst"));
    cfg.pool_ranks = 4;
    let server = DftServer::start(cfg).expect("start");

    // phase 1: four distinct problems, cold
    let tenants = ["alice", "bob", "carol"];
    let cold: Vec<_> = (0..4)
        .map(|v| {
            let req = JobRequest::new(tenants[v % 3], Priority::Normal, JobKind::Scf, mini_spec(v));
            server.submit(req).expect("admit cold")
        })
        .collect();
    let cold: Vec<_> = cold.iter().map(|t| t.wait().expect("outcome")).collect();
    for out in &cold {
        assert_eq!(out.status, JobStatus::Completed, "cold job failed");
        assert!(out.converged, "cold job did not converge");
        assert!(!out.cache_hit);
        assert!(out.scf_iterations >= 4, "cold run suspiciously short");
    }

    // phase 2: resubmit every problem twice — all must warm-start
    let warm: Vec<_> = (0..8)
        .map(|i| {
            let v = i % 4;
            let req = JobRequest::new(tenants[i % 3], Priority::Normal, JobKind::Scf, mini_spec(v));
            (v, server.submit(req).expect("admit warm"))
        })
        .collect();
    for (v, ticket) in &warm {
        let out = ticket.wait().expect("outcome");
        assert_eq!(out.status, JobStatus::Completed);
        assert!(out.converged);
        assert!(
            out.cache_hit,
            "resubmission of variant {v} missed the cache"
        );
        let cold_iters = cold[*v].scf_iterations;
        assert!(
            out.scf_iterations * 4 <= cold_iters,
            "warm start took {} iterations vs {} cold (variant {v})",
            out.scf_iterations,
            cold_iters
        );
        let de = (out.free_energy - cold[*v].free_energy).abs();
        assert!(
            de <= 1e-10,
            "warm/cold energy mismatch {de:.3e} Ha on variant {v}"
        );
    }

    let stats = server.drain();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.failed, 0);
    assert!(stats.cache_hits >= 8);
    // one mesh shared by every job: the FeSpace tables were built once
    assert_eq!(stats.spaces_built, 1);
}

#[test]
fn admission_bounds_reject_with_retry_hints() {
    let mut cfg = ServerConfig::new(fresh_root("admission"));
    cfg.pool_ranks = 1;
    cfg.max_queued = 2;
    cfg.max_queued_per_tenant = 1;
    // unreachable force tolerance: the hog runs all of its steps, so the
    // slot is still busy when the queue is probed (a hog that converged
    // early freed it, dispatched `a1`, and the quota never tripped)
    cfg.relax_force_tol = 0.0;
    let server = DftServer::start(cfg).expect("start");

    // an invalid spec bounces before touching the queue
    let mut empty = mini_spec(0);
    empty.atoms.clear();
    match server.submit(JobRequest::new("x", Priority::Normal, JobKind::Scf, empty)) {
        Err(AdmissionError::InvalidSpec(_)) => {}
        other => panic!("expected InvalidSpec, got {other:?}", other = other.err()),
    }

    // occupy the single slot, then fill the queue
    let hog = server
        .submit(long_request("hog", Priority::Normal, 200))
        .expect("admit hog");
    std::thread::sleep(Duration::from_millis(100)); // let it dispatch
    let a1 = server
        .submit(JobRequest::new(
            "a",
            Priority::Normal,
            JobKind::Scf,
            mini_spec(1),
        ))
        .expect("admit a1");
    // tenant quota: "a" already has one queued job
    match server.submit(JobRequest::new(
        "a",
        Priority::Normal,
        JobKind::Scf,
        mini_spec(2),
    )) {
        Err(AdmissionError::TenantQuota {
            tenant,
            retry_after,
            ..
        }) => {
            assert_eq!(tenant, "a");
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected TenantQuota, got {other:?}", other = other.err()),
    }
    let b1 = server
        .submit(JobRequest::new(
            "b",
            Priority::Normal,
            JobKind::Scf,
            mini_spec(3),
        ))
        .expect("admit b1");
    // global depth bound: two jobs queued behind the hog
    match server.submit(JobRequest::new(
        "c",
        Priority::Normal,
        JobKind::Scf,
        mini_spec(0),
    )) {
        Err(AdmissionError::QueueFull {
            queued,
            limit,
            retry_after,
        }) => {
            assert_eq!((queued, limit), (2, 2));
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected QueueFull, got {other:?}", other = other.err()),
    }

    // every admitted job still delivers exactly one outcome
    for t in [&hog, &a1, &b1] {
        assert!(t.wait().is_some(), "admitted job lost");
    }
    let stats = server.drain();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 3);
}

#[test]
fn preemption_checkpoints_victim_and_resumes_it() {
    let mut cfg = ServerConfig::new(fresh_root("preempt"));
    cfg.pool_ranks = 1;
    cfg.checkpoint_every = 1;
    // unreachable force tolerance: the victim relaxation runs all of its
    // steps, keeping the pool saturated until preemption fires
    cfg.relax_force_tol = 0.0;
    let server = DftServer::start(cfg).expect("start");

    let victim = server
        .submit(long_request("bg", Priority::Low, 300))
        .expect("admit victim");
    std::thread::sleep(Duration::from_millis(100)); // victim occupies the pool

    let urgent = server
        .submit(JobRequest::new(
            "vip",
            Priority::High,
            JobKind::Scf,
            mini_spec(1),
        ))
        .expect("admit urgent");

    let urgent_out = urgent.wait().expect("urgent outcome");
    assert_eq!(urgent_out.status, JobStatus::Completed);
    assert!(urgent_out.converged);

    let victim_out = victim.wait().expect("victim outcome");
    assert_eq!(victim_out.status, JobStatus::Completed);
    assert!(
        victim_out.preemptions >= 1,
        "victim was never preempted (pool should have been saturated)"
    );
    // the victim resumed from its checkpoints and still did real work
    assert!(victim_out.scf_iterations > 0);

    let stats = server.drain();
    assert!(stats.preemptions >= 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);
}

#[test]
fn rank_kill_recovers_shrinks_pool_and_preserves_energy() {
    let mut cfg = ServerConfig::new(fresh_root("kill"));
    cfg.pool_ranks = 2;
    cfg.checkpoint_every = 1;
    // survivors detect the dead rank by receive deadline; miniature jobs
    // have microsecond skew, so a short deadline keeps detection fast
    cfg.timeout = Duration::from_millis(1500);
    let server = DftServer::start(cfg).expect("start");

    // reference: the same problem, fault-free
    let mut spec = mini_spec(2);
    spec.ranks = 2;
    let reference = server
        .submit(JobRequest::new(
            "ref",
            Priority::Normal,
            JobKind::Scf,
            spec.clone(),
        ))
        .expect("admit reference")
        .wait()
        .expect("reference outcome");
    assert!(reference.converged);

    // physically different problem (no cache interaction), rank 1 dies at
    // SCF iteration 3
    let mut killed_spec = mini_spec(3);
    killed_spec.ranks = 2;
    let killed = server
        .submit(
            JobRequest::new(
                "victim",
                Priority::Normal,
                JobKind::Scf,
                killed_spec.clone(),
            )
            .with_faults(FaultPlan::kill_at_epoch(1, 3)),
        )
        .expect("admit killed")
        .wait()
        .expect("killed outcome");
    assert_eq!(killed.status, JobStatus::Completed);
    assert!(killed.converged, "recovery did not reconverge");
    assert!(killed.recoveries >= 1, "no relaunch recorded");
    assert_eq!(killed.ranks_lost, 1);
    assert_eq!(killed.ranks_granted, 1, "survivor count wrong");

    // fault-free single-rank solve of the same problem for energy parity
    let mut solo_spec = killed_spec;
    solo_spec.ranks = 1;
    let solo = server
        .submit(JobRequest::new(
            "check",
            Priority::Normal,
            JobKind::Scf,
            solo_spec,
        ))
        .expect("admit solo")
        .wait()
        .expect("solo outcome");
    // the solo job warm-starts off the recovered job's published state and
    // must land on the same energy
    let de = (solo.free_energy - killed.free_energy).abs();
    assert!(de <= 1e-10, "post-recovery energy off by {de:.3e} Ha");

    let stats = server.drain();
    assert_eq!(stats.ranks_burned, 1, "dead rank not burned from the pool");
    assert!(stats.recoveries >= 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn screening_burst_from_structure_family() {
    let mut cfg = ServerConfig::new(fresh_root("screen"));
    cfg.pool_ranks = 2;
    let server = DftServer::start(cfg).expect("start");

    // an equation-of-state family from the materials-side generators
    let base = Structure {
        positions: vec![[3.0, 3.0, 3.0]],
        species: vec!["He"],
        cell: [6.0, 6.0, 6.0],
        periodic: [true; 3],
    };
    let family = requests::strain_scan(&base, &[-0.02, 0.0, 0.02]);
    // a cheap screening solve is a looser tolerance the tenant sets
    let specs: Vec<JobSpec> = family
        .iter()
        .map(|s| {
            let mut spec = JobSpec::from_structure(s, 2, 2, |_| (2.0, 0.8));
            spec.tol *= 10.0;
            spec
        })
        .collect();

    let outs: Vec<_> = specs
        .iter()
        .map(|spec| {
            server
                .submit(JobRequest::new(
                    "eos",
                    Priority::Normal,
                    JobKind::Scf,
                    spec.clone(),
                ))
                .expect("admit screen job")
        })
        .collect::<Vec<_>>()
        .iter()
        .map(|t| t.wait().expect("screen outcome"))
        .collect();
    for out in &outs {
        assert_eq!(out.status, JobStatus::Completed);
        assert!(out.converged);
    }
    // distinct strains are physically distinct problems
    assert!((outs[0].free_energy - outs[2].free_energy).abs() > 1e-6);

    // resubmitting one family member hits the cache (deterministic specs)
    let again = server
        .submit(JobRequest::new(
            "eos",
            Priority::Normal,
            JobKind::Scf,
            specs[1].clone(),
        ))
        .expect("admit resubmission")
        .wait()
        .expect("resubmission outcome");
    assert!(again.cache_hit, "identical family member missed the cache");

    let stats = server.drain();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    // three distinct strained meshes, the middle one shared by the resubmission
    assert_eq!(stats.spaces_built, 3);
}

#[test]
fn relaxation_moves_atoms_downhill() {
    let mut cfg = ServerConfig::new(fresh_root("relax"));
    cfg.pool_ranks = 2;
    // unreachable force tolerance: both FIRE steps always execute, so the
    // atoms are guaranteed to move off their starting positions
    cfg.relax_force_tol = 0.0;
    let server = DftServer::start(cfg).expect("start");

    // a stretched diatomic: nonzero forces along the bond
    let atoms = vec![
        pseudo(1.0, 0.7, [2.2, 3.0, 3.0]),
        pseudo(1.0, 0.7, [3.8, 3.0, 3.0]),
    ];
    let start = [atoms[0].pos, atoms[1].pos];
    let spec = JobSpec::miniature(atoms, 6.0);
    let out = server
        .submit(JobRequest::new(
            "mat",
            Priority::Normal,
            JobKind::Relax { steps: 2 },
            spec,
        ))
        .expect("admit relax")
        .wait()
        .expect("relax outcome");
    assert_eq!(out.status, JobStatus::Completed);
    assert!(out.converged);
    let moved = (0..2).any(|i| (0..3).any(|ax| (out.positions[i][ax] - start[i][ax]).abs() > 1e-6));
    assert!(moved, "relaxation left every atom exactly in place");

    let stats = server.drain();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// A solver panic stays inside its job: the job ends `Failed`, the job
/// running in the other slot completes, and the freed slot — on the same
/// shared worker pool — serves the next job.
#[test]
fn solver_panic_fails_its_job_and_frees_the_slot() {
    let mut cfg = ServerConfig::new(fresh_root("panic"));
    cfg.pool_ranks = 2;
    let server = DftServer::start(cfg).expect("start");

    // valid by every admission rule, but its one atom carries a negative
    // charge: the occupations reject a negative electron count
    let mut doomed = mini_spec(0);
    doomed.atoms[0].kind = AtomKind::Pseudo { z: -2.0, r_c: 0.8 };
    let healthy = server
        .submit(long_request("alice", Priority::Normal, 3))
        .expect("admit the long job");
    let failed = server
        .submit(JobRequest::new(
            "bob",
            Priority::Normal,
            JobKind::Scf,
            doomed,
        ))
        .expect("admit the doomed job")
        .wait()
        .expect("the doomed job still delivers an outcome");
    match &failed.status {
        JobStatus::Failed(why) => assert!(why.contains("panicked"), "{why}"),
        other => panic!("expected a failed job, got {other:?}"),
    }

    let next = server
        .submit(JobRequest::new(
            "bob",
            Priority::Normal,
            JobKind::Scf,
            mini_spec(1),
        ))
        .expect("admit the next job")
        .wait()
        .expect("next outcome");
    assert_eq!(next.status, JobStatus::Completed);
    assert!(next.converged);
    let healthy = healthy.wait().expect("long outcome");
    assert_eq!(healthy.status, JobStatus::Completed);

    let stats = server.drain();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 2);
}

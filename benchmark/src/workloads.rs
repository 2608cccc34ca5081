//! The six workloads: set-up, one operation, and the correctness checks
//! that feed `failed`.
//!
//! An *operation* is what a user waits for: one SCF to tolerance
//! (`scf-wide`, `scf-poisson`, `scf-2k`, `dist-2r`), one whole FIRE
//! trajectory (`relax-warm-2r`), or one job of the burst (`serve-burst`,
//! whose timed unit is the whole burst: the campaign is closed, the user
//! waits for the family).

use crate::inputs::{self, Problem, Scale, Workload};
use dft_core::scf::{scf, ScfResult};
use dft_core::xc::Lda;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{run_cluster, CommStats};
use dft_parallel::{
    dist_relax, distributed_scf, DistRelaxConfig, DistRelaxResult, DistScfConfig, DistScfResult,
};
use dft_serve::{
    DftServer, JobKind, JobOutcome, JobRequest, JobSpec, JobStatus, Priority, ServerConfig,
    ServerStats,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Rank threads of the distributed workloads and pool slots of the server:
/// the host has two cores, so never more.
pub const RANKS: usize = 2;
/// `|E_dist − E_serial|` above this fails `dist-2r`.
pub const DIST_PARITY_HA: f64 = 1e-10;
/// `|E − E_ref|` (default seed) and `|E_warm − E_cold|` above this fail.
pub const ENERGY_TOL_HA: f64 = 1e-8;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Everything one workload needs before its first timed operation.
pub struct Ctx {
    pub workload: Workload,
    pub scale: Scale,
    pub problem: Problem,
    pub space: FeSpace,
    /// `serve-burst` only: the burst family, one spec per structure.
    pub specs: Vec<JobSpec>,
    /// Scratch root for checkpoints and job directories (inside the
    /// benchmark's own `out/`).
    pub tmp: PathBuf,
}

/// Seconds one set-up took: one sample of `setup_s`, and the part of it
/// that is the workload's own work (everything but the clock spin).
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    pub total_s: f64,
    pub work_s: f64,
}

/// Steps of the clock spin: about 80 ms on the host the benchmark was
/// sized on, so that the 25% bound of `setup_s` is the 20 ms floor.
const SPIN_STEPS: usize = 32_000_000;

/// The warm-up that opens every set-up: a fixed number of dependent
/// multiply-adds on one core. The workloads' own set-up takes 0.1 to 1 ms
/// and steps by 30% on scheduler noise alone, which a bound relative to
/// the median cannot tell from a regression; the spin is a fixed amount of
/// work (its time moves with the machine, never with the code) that puts
/// an absolute floor under `setup_s`. One latency-bound chain, because it
/// is the steadiest work this host has: between runs of one commit it
/// moved by under 4%, a port-bound FMA burst tried in its place by 44%.
fn clock_spin() {
    let (a, b) = (black_box(1.000_000_1f64), black_box(1e-12f64));
    let mut x = black_box(1.0f64);
    for _ in 0..SPIN_STEPS {
        x = x * a + b;
    }
    black_box(x);
}

/// Warm the clocks up, generate the inputs from the seed, build the FE
/// space, make sure the scratch directory `tmp` exists and, for
/// `serve-burst`, start a server. Stopping the server again is the
/// harness's housekeeping and is not timed.
pub fn setup(workload: Workload, seed: u64, scale: Scale, tmp: &Path) -> (Ctx, SetupTime) {
    let t0 = Instant::now();
    clock_spin();
    let spin_s = t0.elapsed().as_secs_f64();
    let problem = inputs::problem(workload, seed, scale);
    let space = FeSpace::new(problem.grid.mesh());
    std::fs::create_dir_all(tmp).expect("create the workload's scratch directory");
    let specs = if workload == Workload::ServeBurst {
        inputs::serve_specs(seed, scale)
    } else {
        Vec::new()
    };
    let ctx = Ctx {
        workload,
        scale,
        problem,
        space,
        specs,
        tmp: tmp.to_path_buf(),
    };
    let server = (workload == Workload::ServeBurst).then(|| start_server(&ctx, "setup"));
    let total_s = t0.elapsed().as_secs_f64();
    if let Some(s) = server {
        s.drain();
        let _ = std::fs::remove_dir_all(ctx.tmp.join("serve-setup"));
    }
    let time = SetupTime {
        total_s,
        work_s: total_s - spin_s,
    };
    (ctx, time)
}

fn start_server(ctx: &Ctx, label: &str) -> DftServer {
    let mut cfg = ServerConfig::new(ctx.tmp.join(format!("serve-{label}")));
    cfg.pool_ranks = RANKS;
    DftServer::start(cfg).expect("start the job server")
}

/// Cluster-wide traffic of one distributed operation (exact counts, plus
/// the seconds ranks spent blocked on ghost rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    pub bytes_total: u64,
    pub messages: u64,
    pub ghost_wait_s: f64,
}

impl Traffic {
    fn of(stats: &CommStats) -> Self {
        let (bytes_total, messages, _, _) = stats.snapshot();
        Self {
            bytes_total,
            messages,
            ghost_wait_s: stats.ghost_wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// One job of a burst with what the generator saw of it.
pub struct ServedJob {
    pub structure: usize,
    pub submit_us: f64,
    /// `None`: the ticket was lost.
    pub outcome: Option<JobOutcome>,
}

/// What the layer metrics need from an operation beyond its wall time.
pub enum Detail {
    Serial(Box<ScfResult>),
    Dist(Vec<DistScfResult>, Traffic),
    Relax(Vec<DistRelaxResult>, Traffic),
    Serve {
        jobs: Vec<ServedJob>,
        stats: ServerStats,
    },
}

/// The result of one timed repetition.
pub struct OpOutcome {
    /// Wall seconds of the public call(s) the user waits on.
    pub wall_s: f64,
    /// SCF iterations performed inside the operation (all steps / jobs).
    pub iterations: usize,
    /// Energy fingerprint: final free energy; for the burst, the cold
    /// energy of structure 0.
    pub energy: f64,
    /// Operations attempted (1, or the number of jobs in the burst).
    pub attempted: usize,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub detail: Detail,
}

/// Run one operation of the context's workload. `profile` switches the
/// crates' own phase profiling on (the traced run); `rep` keeps scratch
/// directories of repetitions apart.
pub fn run_op(ctx: &Ctx, rep: usize, profile: bool) -> OpOutcome {
    match ctx.workload {
        Workload::ScfWide | Workload::ScfPoisson | Workload::Scf2k => {
            let (r, wall_s) = serial_scf(ctx, profile);
            let mut failures = Vec::new();
            if !r.converged {
                failures.push(format!(
                    "serial SCF not converged in {} iterations",
                    r.iterations
                ));
            }
            OpOutcome {
                wall_s,
                iterations: r.iterations,
                energy: r.energy.free_energy,
                attempted: 1,
                failures,
                detail: Detail::Serial(Box::new(r)),
            }
        }
        Workload::Dist2r => dist_op(ctx, profile),
        Workload::RelaxWarm2r => relax_op(ctx, rep, profile),
        Workload::ServeBurst => serve_op(ctx, rep),
    }
}

/// The plain single-threaded solve of the context's problem: the operation
/// of the serial workloads, the baseline of `dist-2r`, and the solve the
/// `dft-core` layer metrics of every workload are read from.
pub fn serial_scf(ctx: &Ctx, profile: bool) -> (ScfResult, f64) {
    let mut cfg = ctx.problem.cfg.clone();
    cfg.profile = profile;
    let t0 = Instant::now();
    let r = scf(
        &ctx.space,
        &ctx.problem.system,
        &Lda,
        &cfg,
        &ctx.problem.kpts,
    );
    (r, t0.elapsed().as_secs_f64())
}

fn dist_cfg(ctx: &Ctx, profile: bool) -> DistScfConfig {
    let mut base = ctx.problem.cfg.clone();
    base.profile = profile;
    DistScfConfig::new(base)
}

/// Per-rank results split into the ranks that returned and one failure
/// line per rank that did not.
fn split_ranks<T, E: std::fmt::Display>(ranks: Vec<Result<T, E>>) -> (Vec<T>, Vec<String>) {
    let mut ok = Vec::with_capacity(ranks.len());
    let mut failures = Vec::new();
    for (rank, r) in ranks.into_iter().enumerate() {
        match r {
            Ok(r) => ok.push(r),
            Err(e) => failures.push(format!("rank {rank}: {e}")),
        }
    }
    (ok, failures)
}

fn dist_op(ctx: &Ctx, profile: bool) -> OpOutcome {
    let cfg = dist_cfg(ctx, profile);
    let p = &ctx.problem;
    let t0 = Instant::now();
    let (ranks, stats) = run_cluster(RANKS, |comm| {
        distributed_scf(comm, &ctx.space, &p.system, &Lda, &cfg, &p.kpts)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (ok, mut failures) = split_ranks(ranks);
    if let Some(r0) = ok.first() {
        if !r0.converged {
            failures.push(format!(
                "distributed SCF not converged in {} iterations",
                r0.iterations
            ));
        }
    }
    failures.truncate(1); // one operation, at most one failure
    OpOutcome {
        wall_s,
        iterations: ok.first().map_or(0, |r| r.iterations),
        energy: ok.first().map_or(f64::NAN, |r| r.energy.free_energy),
        attempted: 1,
        failures,
        detail: Detail::Dist(ok, Traffic::of(&stats)),
    }
}

fn relax_op(ctx: &Ctx, rep: usize, profile: bool) -> OpOutcome {
    // a fresh checkpoint root per repetition: the first step must be cold
    let dir = ctx.tmp.join(format!("relax-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = dist_cfg(ctx, profile).with_checkpoints(&dir, 0);
    let mut rcfg = DistRelaxConfig::default();
    rcfg.fire.max_steps = inputs::relax_steps(ctx.scale);
    rcfg.fire.force_tol = 0.0; // unreachable: every step runs
    let p = &ctx.problem;
    let t0 = Instant::now();
    let (ranks, stats) = run_cluster(RANKS, |comm| {
        dist_relax(comm, &ctx.space, &p.system, &Lda, &cfg, &rcfg, &p.kpts)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (ok, mut failures) = split_ranks(ranks);
    let (mut iterations, mut energy) = (0, f64::NAN);
    if let Some(r0) = ok.first() {
        iterations = r0.trajectory.iter().map(|s| s.scf_iterations).sum();
        energy = r0.trajectory.last().map_or(f64::NAN, |s| s.free_energy);
        if r0.trajectory.len() != rcfg.fire.max_steps + 1 {
            failures.push(format!(
                "trajectory has {} evaluations, expected {}",
                r0.trajectory.len(),
                rcfg.fire.max_steps + 1
            ));
        }
        if let Some(step) = r0.trajectory.iter().skip(1).position(|s| !s.warm_started) {
            failures.push(format!("step {} ran cold despite warm start", step + 1));
        }
        if !r0.scf.converged {
            failures.push("final step's SCF not converged".to_string());
        }
    }
    failures.truncate(1);
    OpOutcome {
        wall_s,
        iterations,
        energy,
        attempted: 1,
        failures,
        detail: Detail::Relax(ok, Traffic::of(&stats)),
    }
}

fn serve_op(ctx: &Ctx, rep: usize) -> OpOutcome {
    let server = start_server(ctx, &format!("rep-{rep}"));
    let (structures, passes) = inputs::serve_shape(ctx.scale);
    let total = structures * passes;
    // pass-major order: every structure once (all cold), then again (warm)
    let t0 = Instant::now();
    let mut tickets = Vec::with_capacity(total);
    for i in 0..total {
        let structure = i % structures;
        let req = JobRequest::new(
            TENANTS[i % TENANTS.len()],
            Priority::Normal,
            JobKind::Scf,
            ctx.specs[structure].clone(),
        );
        let t = Instant::now();
        let ticket = server.submit(req);
        let submit_us = t.elapsed().as_secs_f64() * 1e6;
        tickets.push((structure, submit_us, ticket));
    }
    let mut failures = Vec::new();
    let mut jobs = Vec::with_capacity(total);
    for (i, (structure, submit_us, ticket)) in tickets.into_iter().enumerate() {
        let outcome = match ticket {
            Ok(t) => t.wait(),
            Err(e) => {
                failures.push(format!("job {i}: rejected at admission: {e}"));
                continue;
            }
        };
        jobs.push(ServedJob {
            structure,
            submit_us,
            outcome,
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = server.drain();

    // per-structure cold reference: the first completed cache miss
    let mut cold: Vec<Option<f64>> = vec![None; structures];
    for j in &jobs {
        if let Some(o) = &j.outcome {
            if !o.cache_hit && o.status == JobStatus::Completed && cold[j.structure].is_none() {
                cold[j.structure] = Some(o.free_energy);
            }
        }
    }
    let mut iterations = 0;
    for (i, j) in jobs.iter().enumerate() {
        let Some(o) = &j.outcome else {
            failures.push(format!("job {i}: ticket lost"));
            continue;
        };
        iterations += o.scf_iterations;
        if let JobStatus::Failed(why) = &o.status {
            failures.push(format!("job {i}: failed: {why}"));
        } else if !o.converged {
            failures.push(format!("job {i}: not converged"));
        } else {
            match cold[j.structure] {
                Some(e) if (o.free_energy - e).abs() <= ENERGY_TOL_HA => {}
                Some(e) => failures.push(format!(
                    "job {i}: E = {} differs from the cold pass ({e}) of structure {}",
                    o.free_energy, j.structure
                )),
                None => failures.push(format!(
                    "job {i}: structure {} has no cold pass",
                    j.structure
                )),
            }
        }
    }
    if stats.completed != total as u64 && failures.is_empty() {
        failures.push(format!(
            "server completed {} of {total} jobs",
            stats.completed
        ));
    }
    OpOutcome {
        wall_s,
        iterations,
        energy: cold[0].unwrap_or(f64::NAN),
        attempted: total,
        failures,
        detail: Detail::Serve { jobs, stats },
    }
}

/// Checks across the repetitions of one run and against the committed
/// reference; each returned line counts as one failed operation.
pub fn cross_checks(ctx: &Ctx, ops: &[OpOutcome], reference: Option<(f64, usize)>) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(first) = ops.first() else {
        return failures;
    };
    // Repetitions of a solve are bit-identical. Not asserted for the
    // burst: which duplicate of a structure runs cold depends on which of
    // the two pool slots frees first.
    if ctx.workload != Workload::ServeBurst {
        for (i, op) in ops.iter().enumerate().skip(1) {
            if op.energy.to_bits() != first.energy.to_bits() || op.iterations != first.iterations {
                failures.push(format!(
                    "repetition {i}: E = {} in {} iterations, repetition 0: E = {} in {}",
                    op.energy, op.iterations, first.energy, first.iterations
                ));
            }
        }
    }
    if let Some((e_ref, iters_ref)) = reference {
        if (first.energy - e_ref).abs() > ENERGY_TOL_HA || first.energy.is_nan() {
            failures.push(format!(
                "E = {} but reference.json has {e_ref}",
                first.energy
            ));
        }
        if ctx.workload != Workload::ServeBurst && first.iterations != iters_ref {
            failures.push(format!(
                "{} SCF iterations but reference.json has {iters_ref}",
                first.iterations
            ));
        }
    }
    failures
}

/// `dist-2r` against its plain serial baseline.
pub fn dist_parity(dist_energy: f64, serial: &ScfResult) -> Option<String> {
    let de = (dist_energy - serial.energy.free_energy).abs();
    (!serial.converged || de.is_nan() || de > DIST_PARITY_HA).then(|| {
        format!(
            "|E_dist − E_serial| = {de:e} Ha (serial converged: {})",
            serial.converged
        )
    })
}

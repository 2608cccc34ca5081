//! The gang scheduler: one event-loop thread carving rank groups out of a
//! bounded [`RankPool`], with per-tenant fair queueing, checkpoint-based
//! preemption, warm starts from the converged-state cache, and rank-loss
//! recovery that returns shrunken capacity to the pool.
//!
//! Every running job is a worker thread that launches a miniature cluster
//! (`run_cluster_with` via `scf_with_recovery`) on its granted ranks. The
//! scheduler itself never blocks on a job: workers report back through the
//! same event channel submissions arrive on, so dispatch, preemption and
//! completion all serialize through one loop with no shared mutable state
//! beyond the admission counters.
//!
//! Scheduling policy, in order:
//! 1. higher [`Priority`] classes drain first;
//! 2. within a class, tenants take turns round-robin (a tenant with a
//!    thousand queued jobs cannot starve a tenant with one);
//! 3. a gang gets `min(requested, free)` ranks but never zero — the pool
//!    prefers running something small over waiting for a big hole;
//! 4. when the pool is saturated and a strictly higher-priority job is
//!    waiting, the scheduler raises the [`PreemptToken`] of the
//!    lowest-priority, most-recently-started running job; the job
//!    snapshots cluster-wide and unwinds, its ranks are re-granted, and
//!    the victim is requeued at the *front* of its tenant queue to resume
//!    from its own checkpoints — on whatever rank count is free then
//!    (checkpoints reshard across rank counts and grid shapes).

use crate::cache::{ConvergedCache, SpaceCache};
use crate::job::{JobKind, JobOutcome, JobRequest, JobStatus, Priority};
use crate::pool::RankPool;
use dft_core::cluster::checkpoint::job_dir;
use dft_core::cluster::grid::GridShape;
use dft_core::cluster::recover::{relax_with_recovery, scf_with_recovery, RecoveryReport};
use dft_core::cluster::relax::{DistRelaxConfig, RelaxError};
use dft_core::cluster::scf::{performed_iterations, DistScfConfig, PreemptToken, ScfError};
use dft_core::relax::RelaxConfig;
use dft_core::scf::ScfConfig;
use dft_core::system::AtomicSystem;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{ClusterOptions, FaultPlan};
use dft_hpc::threads::with_thread_share;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rank-loss relaunch budget per solve.
const MAX_RESTARTS: usize = 2;

/// Server-wide knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Rank slots in the worker pool.
    pub pool_ranks: usize,
    /// Global queued-job bound (admission control).
    pub max_queued: usize,
    /// Per-tenant queued-job bound (admission control).
    pub max_queued_per_tenant: usize,
    /// Root directory for job-scoped checkpoint subdirectories.
    pub checkpoint_root: PathBuf,
    /// Snapshot cadence (SCF iterations) for running jobs; snapshots are
    /// what preemption and rank-loss recovery resume from.
    pub checkpoint_every: usize,
    /// Blocking-receive deadline inside each job's cluster.
    pub timeout: Duration,
    /// Force tolerance (Ha/Bohr) at which a `Relax` job's FIRE trajectory
    /// stops early; `0.0` disables early stopping (every requested step
    /// runs). Defaults to `RelaxConfig`'s tolerance.
    pub relax_force_tol: f64,
}

impl ServerConfig {
    /// Sensible defaults around the given checkpoint root.
    pub fn new(checkpoint_root: impl Into<PathBuf>) -> Self {
        Self {
            pool_ranks: 4,
            max_queued: 1024,
            max_queued_per_tenant: 512,
            checkpoint_root: checkpoint_root.into(),
            checkpoint_every: 2,
            timeout: Duration::from_secs(30),
            relax_force_tol: RelaxConfig::default().force_tol,
        }
    }
}

/// Counters handed back by [`drain`](crate::server::DftServer::drain).
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Jobs that delivered a `Completed` outcome.
    pub completed: u64,
    /// Jobs that delivered a `Failed` outcome.
    pub failed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Preemption events (raise -> snapshot -> requeue).
    pub preemptions: u64,
    /// Cluster relaunches forced by rank loss.
    pub recoveries: u64,
    /// Ranks permanently lost to faults.
    pub ranks_burned: usize,
    /// Converged-state cache hits / misses.
    pub cache_hits: u64,
    /// Converged-state cache misses.
    pub cache_misses: u64,
    /// Distinct `FeSpace` discretizations materialized.
    pub spaces_built: usize,
    /// High-water mark of the scheduler queue.
    pub max_queue_depth: usize,
}

/// Live admission counters shared between submitters and the scheduler.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    /// Jobs admitted but not yet dispatched.
    pub queued: usize,
    /// Per-tenant share of `queued`.
    pub per_tenant: BTreeMap<String, usize>,
    /// Set once drain begins: no further admissions.
    pub draining: bool,
    /// Submissions bounced (for final stats).
    pub rejected: u64,
}

/// A job somewhere between admission and its outcome.
pub(crate) struct QueuedJob {
    pub id: u64,
    pub req: JobRequest,
    /// Canonical problem identity (computed once at admission).
    pub key: u64,
    /// Deliver-once outcome channel.
    pub outcome_tx: Sender<JobOutcome>,
    pub submitted: Instant,
    pub first_dispatch: Option<Instant>,
    /// Resume from own checkpoints (set after preemption).
    pub resume: bool,
    /// Converged-cache warm-start hint (set at first dispatch).
    pub warm_from: Option<PathBuf>,
    /// Whether this job still occupies an admission slot.
    pub counted: bool,
    pub cache_hit: bool,
    pub preemptions: usize,
    pub recoveries: usize,
    pub ranks_lost: usize,
    pub scf_iterations: usize,
}

/// What a worker thread reports back.
pub(crate) struct WorkerReport {
    /// Ranks granted at launch.
    pub granted: usize,
    /// Ranks still alive at the end (`granted` minus injected kills).
    pub survivors: usize,
    /// Cluster relaunches performed by recovery.
    pub recoveries: usize,
    /// SCF iterations performed (resumed prefixes excluded).
    pub performed: usize,
    pub disposition: Disposition,
}

pub(crate) enum Disposition {
    Finished {
        free_energy: f64,
        converged: bool,
        /// Directory holding the exported converged state, when the job
        /// kind is cacheable and the run converged.
        published: Option<PathBuf>,
    },
    /// Cooperatively preempted: snapshot written, job should requeue.
    Preempted,
    Failed(String),
}

pub(crate) enum Event {
    Submit(Box<QueuedJob>),
    Done {
        job: Box<QueuedJob>,
        report: WorkerReport,
    },
    /// Stop admitting, finish everything queued and running, then exit.
    Drain,
}

/// One priority class: per-tenant FIFO lanes plus a round-robin rotation.
#[derive(Default)]
struct PriorityLane {
    tenants: BTreeMap<String, VecDeque<Box<QueuedJob>>>,
    rotation: VecDeque<String>,
}

impl PriorityLane {
    fn push_back(&mut self, job: Box<QueuedJob>) {
        let tenant = job.req.tenant.clone();
        let lane = self.tenants.entry(tenant.clone()).or_default();
        if lane.is_empty() && !self.rotation.contains(&tenant) {
            self.rotation.push_back(tenant);
        }
        lane.push_back(job);
    }

    /// Requeue a preempted job at the front of its tenant lane *and* move
    /// its tenant to the head of the rotation, so a resume never waits
    /// behind fresh work of equal priority.
    fn push_front(&mut self, job: Box<QueuedJob>) {
        let tenant = job.req.tenant.clone();
        let lane = self.tenants.entry(tenant.clone()).or_default();
        self.rotation.retain(|t| *t != tenant);
        self.rotation.push_front(tenant);
        lane.push_front(job);
    }

    fn pop(&mut self) -> Option<Box<QueuedJob>> {
        while let Some(tenant) = self.rotation.pop_front() {
            if let Some(lane) = self.tenants.get_mut(&tenant) {
                if let Some(job) = lane.pop_front() {
                    if !lane.is_empty() {
                        self.rotation.push_back(tenant);
                    }
                    return Some(job);
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.tenants.values().map(VecDeque::len).sum()
    }
}

struct Running {
    priority: Priority,
    token: PreemptToken,
    preempt_requested: bool,
    /// Launch sequence number (later = less progress lost on preemption).
    seq: u64,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The scheduler state machine. Runs on its own thread; owns everything
/// except the admission counters.
pub(crate) struct Scheduler {
    cfg: ServerConfig,
    pool: RankPool,
    lanes: BTreeMap<Priority, PriorityLane>,
    running: BTreeMap<u64, Running>,
    cache: ConvergedCache,
    spaces: SpaceCache,
    admission: Arc<Mutex<Admission>>,
    events_tx: Sender<Event>,
    stats: ServerStats,
    draining: bool,
    launch_seq: u64,
}

fn lock_admission(adm: &Mutex<Admission>) -> std::sync::MutexGuard<'_, Admission> {
    adm.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    pub(crate) fn new(
        cfg: ServerConfig,
        admission: Arc<Mutex<Admission>>,
        events_tx: Sender<Event>,
    ) -> Self {
        let pool = RankPool::new(cfg.pool_ranks);
        Self {
            cfg,
            pool,
            lanes: BTreeMap::new(),
            running: BTreeMap::new(),
            cache: ConvergedCache::new(),
            spaces: SpaceCache::new(),
            admission,
            events_tx,
            stats: ServerStats::default(),
            draining: false,
            launch_seq: 0,
        }
    }

    /// The event loop: runs until drained.
    pub(crate) fn run(mut self, events_rx: Receiver<Event>) -> ServerStats {
        loop {
            let ev = match events_rx.recv() {
                Ok(ev) => ev,
                // every sender gone without a Drain: nothing can arrive
                // anymore, so finish what is queued and stop
                Err(_) => {
                    self.draining = true;
                    if self.running.is_empty() && self.queued() == 0 {
                        break;
                    }
                    continue;
                }
            };
            match ev {
                Event::Submit(job) => {
                    self.lanes
                        .entry(job.req.priority)
                        .or_default()
                        .push_back(job);
                    let depth = self.queued();
                    self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
                }
                Event::Done { job, report } => self.on_done(job, report),
                Event::Drain => {
                    self.draining = true;
                    lock_admission(&self.admission).draining = true;
                }
            }
            self.dispatch();
            self.maybe_preempt();
            if self.draining && self.running.is_empty() && self.queued() == 0 {
                break;
            }
        }
        self.stats.rejected = lock_admission(&self.admission).rejected;
        self.stats.ranks_burned = self.pool.burned();
        let (hits, misses) = self.cache.stats();
        self.stats.cache_hits = hits;
        self.stats.cache_misses = misses;
        self.stats.spaces_built = self.spaces.len();
        self.stats.clone()
    }

    fn queued(&self) -> usize {
        self.lanes.values().map(PriorityLane::len).sum()
    }

    fn highest_queued(&self) -> Option<Priority> {
        self.lanes
            .iter()
            .rev()
            .find(|(_, lane)| lane.len() > 0)
            .map(|(p, _)| *p)
    }

    /// Launch queued jobs while slots remain, highest priority first.
    fn dispatch(&mut self) {
        while self.pool.free() > 0 {
            let Some(priority) = self.highest_queued() else {
                return;
            };
            let Some(job) = self.lanes.entry(priority).or_default().pop() else {
                return;
            };
            let want = job.req.spec.ranks;
            let Some(granted) = self.pool.alloc(want) else {
                self.lanes.entry(priority).or_default().push_front(job);
                return;
            };
            self.launch(job, granted);
        }
    }

    fn launch(&mut self, mut job: Box<QueuedJob>, granted: usize) {
        if job.counted {
            // the admission slot is held only while queued
            let mut adm = lock_admission(&self.admission);
            adm.queued = adm.queued.saturating_sub(1);
            if let Some(n) = adm.per_tenant.get_mut(&job.req.tenant) {
                *n = n.saturating_sub(1);
            }
            job.counted = false;
        }
        if job.first_dispatch.is_none() {
            job.first_dispatch = Some(Instant::now());
            // consult the converged-state cache exactly once per job
            job.warm_from = self.cache.lookup(job.key);
        }
        let space = self.spaces.get(&job.req.spec.mesh);
        let token = PreemptToken::new();
        let seq = self.launch_seq;
        self.launch_seq += 1;
        let id = job.id;
        let priority = job.req.priority;
        let knobs = WorkerKnobs {
            job_root: job_dir(&self.cfg.checkpoint_root, id),
            checkpoint_every: self.cfg.checkpoint_every,
            timeout: self.cfg.timeout,
            relax_force_tol: self.cfg.relax_force_tol,
        };
        let tx = self.events_tx.clone();
        let worker_token = token.clone();
        let pool_ranks = self.cfg.pool_ranks;
        let handle = std::thread::spawn(move || {
            let mut job = job;
            // this gang's share of the cores, so that busy slots together
            // plan for the machine once
            let report = with_thread_share(granted, pool_ranks, || {
                run_worker(&mut job, granted, &space, worker_token, &knobs)
            });
            let _ = tx.send(Event::Done { job, report });
        });
        self.running.insert(
            id,
            Running {
                priority,
                token,
                preempt_requested: false,
                seq,
                handle: Some(handle),
            },
        );
    }

    /// When the pool is saturated and a strictly higher-priority job
    /// waits, ask the cheapest victim to checkpoint and yield.
    fn maybe_preempt(&mut self) {
        if self.pool.free() > 0 {
            return;
        }
        let Some(want) = self.highest_queued() else {
            return;
        };
        // a preemption already in flight will free ranks shortly
        if self.running.values().any(|r| r.preempt_requested) {
            return;
        }
        let victim = self
            .running
            .iter_mut()
            .filter(|(_, r)| r.priority < want)
            .min_by_key(|(_, r)| (r.priority, u64::MAX - r.seq));
        if let Some((_, run)) = victim {
            run.preempt_requested = true;
            run.token.request();
        }
    }

    fn on_done(&mut self, mut job: Box<QueuedJob>, report: WorkerReport) {
        if let Some(mut run) = self.running.remove(&job.id) {
            if let Some(handle) = run.handle.take() {
                // the worker sent Done as its last action; reap it
                let _ = handle.join();
            }
        }
        let lost = report.granted.saturating_sub(report.survivors);
        self.pool.release(report.survivors);
        self.pool.burn(lost);
        job.ranks_lost += lost;
        job.recoveries += report.recoveries;
        job.scf_iterations += report.performed;
        self.stats.recoveries += report.recoveries as u64;

        match report.disposition {
            Disposition::Finished {
                free_energy,
                converged,
                published,
            } => {
                if let Some(dir) = published {
                    self.cache.publish(job.key, dir);
                }
                self.stats.completed += 1;
                self.deliver(
                    &job,
                    JobStatus::Completed,
                    free_energy,
                    converged,
                    report.survivors,
                );
            }
            Disposition::Preempted => {
                job.resume = true;
                job.preemptions += 1;
                // injected faults fire on first launch only; a resumed
                // gang must not be re-killed by the same plan
                job.req.faults = Arc::new(FaultPlan::default());
                self.stats.preemptions += 1;
                self.lanes
                    .entry(job.req.priority)
                    .or_default()
                    .push_front(job);
            }
            Disposition::Failed(why) => {
                self.stats.failed += 1;
                self.deliver(
                    &job,
                    JobStatus::Failed(why),
                    f64::NAN,
                    false,
                    report.survivors,
                );
            }
        }
    }

    fn deliver(
        &mut self,
        job: &QueuedJob,
        status: JobStatus,
        free_energy: f64,
        converged: bool,
        ranks_granted: usize,
    ) {
        let now = Instant::now();
        let wait_ms = job
            .first_dispatch
            .map(|t| t.duration_since(job.submitted).as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        let outcome = JobOutcome {
            job_id: job.id,
            tenant: job.req.tenant.clone(),
            status,
            free_energy,
            converged,
            scf_iterations: job.scf_iterations,
            cache_hit: job.cache_hit,
            preemptions: job.preemptions,
            recoveries: job.recoveries,
            ranks_granted,
            ranks_lost: job.ranks_lost,
            positions: job.req.spec.atoms.iter().map(|a| a.pos).collect(),
            wait_ms,
            latency_ms: now.duration_since(job.submitted).as_secs_f64() * 1e3,
        };
        // a dropped ticket just means the tenant stopped listening
        let _ = job.outcome_tx.send(outcome);
    }
}

/// Everything a worker thread needs besides the job itself.
#[derive(Clone)]
struct WorkerKnobs {
    job_root: PathBuf,
    checkpoint_every: usize,
    timeout: Duration,
    relax_force_tol: f64,
}

/// Pick the process-grid shape for a gang: the tenant's hint when it tiles
/// the granted rank count (and divides the k-point set), else a 1D slab.
fn pick_grid(hint: Option<GridShape>, granted: usize, nk: usize) -> GridShape {
    match hint {
        Some(g)
            if g.n_dom * g.n_band * g.n_kgrp == granted
                && g.n_kgrp <= nk
                && nk.is_multiple_of(g.n_kgrp.max(1)) =>
        {
            g
        }
        _ => GridShape::slab(granted),
    }
}

/// The serial SCF knobs for a job.
fn base_scf_config(job: &QueuedJob) -> ScfConfig {
    let spec = &job.req.spec;
    ScfConfig {
        n_states: spec.n_states,
        kt: spec.kt,
        tol: spec.tol,
        max_iter: spec.max_iter,
        cheb_degree: spec.cheb_degree,
        first_iter_cf_passes: spec.first_iter_cf_passes,
        ..ScfConfig::default()
    }
}

/// Describe a caught solver panic payload.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "solver panicked".to_string())
}

/// How a solve that did not fail ended, in the terms both job families
/// share.
struct Solved {
    /// Ranks alive at the end.
    survivors: usize,
    /// Cluster relaunches performed by recovery.
    recoveries: usize,
    /// SCF iterations performed by this dispatch.
    performed: usize,
    /// Whether the first solve resumed from its warm-start hint.
    warm_used: bool,
    free_energy: f64,
    converged: bool,
    /// Directory holding the exported converged state, when the job kind
    /// is cacheable and the run converged.
    published: Option<PathBuf>,
    /// The relaxed geometry (empty for job kinds that move no atoms).
    positions: Vec<[f64; 3]>,
}

/// Run one recovery-wrapped solve and hand back rank 0's result with the
/// recovery accounting; every other way it can end becomes a
/// [`Disposition`]. A panicking solver rank (numerical breakdown inside
/// dft-core) must fail the job, never strand it: the scheduler still
/// needs the Done event to release this gang's ranks.
fn guarded<R, E: std::fmt::Display>(
    preempted: fn(&E) -> bool,
    solve: impl FnOnce() -> Result<RecoveryReport<R, E>, E>,
) -> Result<(R, usize, usize), Disposition> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)) {
        Err(payload) => Err(Disposition::Failed(format!(
            "solver panicked: {}",
            panic_reason(payload)
        ))),
        Ok(Err(e)) if preempted(&e) => Err(Disposition::Preempted),
        Ok(Err(e)) => Err(Disposition::Failed(e.to_string())),
        Ok(Ok(report)) => {
            let (recoveries, survivors) = (report.attempts - 1, report.final_nranks);
            match report.results.into_iter().next() {
                Some(first) => Ok((first, recoveries, survivors)),
                None => Err(Disposition::Failed("empty cluster result".into())),
            }
        }
    }
}

/// The worker thread body: run the job's solve on its granted ranks,
/// mutating `job` with accumulated accounting, and report how it ended.
/// Never panics; every failure becomes a [`Disposition`].
fn run_worker(
    job: &mut QueuedJob,
    granted: usize,
    space: &Arc<FeSpace>,
    token: PreemptToken,
    knobs: &WorkerKnobs,
) -> WorkerReport {
    let system = AtomicSystem::new(job.req.spec.atoms.clone());
    let spec = &job.req.spec;
    let mut cfg = DistScfConfig::new(base_scf_config(job))
        .with_checkpoints(&knobs.job_root, knobs.checkpoint_every)
        .with_grid(pick_grid(spec.grid_hint, granted, spec.kpts.len()))
        .with_preempt(token);
    // warm-start source: the converged-state cache entry (for a Relax job
    // it warm-starts the first step; later steps chain through the
    // trajectory's own `relax-warm` slot); resumes additionally see their
    // own (newer) checkpoints, which win
    if let Some(dir) = &job.warm_from {
        cfg = cfg.with_restart_from(dir);
    }
    if job.resume {
        cfg = cfg.with_restart();
    }
    let opts = ClusterOptions {
        timeout: knobs.timeout,
        faults: Arc::clone(&job.req.faults),
        schedule: None,
    };

    let solved = match job.req.kind {
        // one `relax_with_recovery` call drives the whole FIRE trajectory —
        // distributed forces, warm-started per-step SCFs, and a persisted
        // integrator state that preemption and rank-loss relaunches resume
        // from
        JobKind::Relax { steps } => {
            let relax_cfg = DistRelaxConfig {
                fire: RelaxConfig {
                    max_steps: steps.max(1),
                    force_tol: knobs.relax_force_tol,
                },
            };
            guarded(
                |e| matches!(e, RelaxError::Scf(ScfError::Preempted { .. })),
                || {
                    relax_with_recovery(
                        granted,
                        &opts,
                        space,
                        &system,
                        &spec.functional,
                        &cfg,
                        &relax_cfg,
                        &spec.kpts,
                        MAX_RESTARTS,
                    )
                },
            )
            .map(|(first, recoveries, survivors)| {
                // net new SCF iterations this dispatch: records loaded from
                // a resumed trajectory's state were paid for by earlier
                // dispatches
                let fresh = first.resumed_step.unwrap_or(0).min(first.trajectory.len());
                Solved {
                    survivors,
                    recoveries,
                    performed: first.trajectory[fresh..]
                        .iter()
                        .map(|t| t.scf_iterations)
                        .sum(),
                    warm_used: first.trajectory.first().is_some_and(|t| t.warm_started),
                    // electronic convergence of the final geometry (the
                    // FIRE force verdict lives in the trajectory records)
                    free_energy: first.scf.energy.free_energy,
                    converged: first.scf.converged,
                    published: None,
                    positions: first.system.atoms.iter().map(|a| a.pos).collect(),
                }
            })
        }
        // one electronic solve, publishable into the converged-state cache
        JobKind::Scf => {
            let conv_dir = knobs.job_root.join("converged");
            let cfg = cfg.with_final_state(&conv_dir);
            guarded(
                |e| matches!(e, ScfError::Preempted { .. }),
                || {
                    scf_with_recovery(
                        granted,
                        &opts,
                        space,
                        &system,
                        &spec.functional,
                        &cfg,
                        &spec.kpts,
                        MAX_RESTARTS,
                    )
                },
            )
            .map(|(first, recoveries, survivors)| Solved {
                survivors,
                recoveries,
                performed: performed_iterations(first.iterations, first.resumed_from),
                warm_used: first.resumed_from.is_some(),
                free_energy: first.energy.free_energy,
                converged: first.converged,
                published: first.converged.then_some(conv_dir),
                positions: Vec::new(),
            })
        }
    };

    match solved {
        Ok(s) => {
            if !job.resume && job.warm_from.is_some() {
                job.cache_hit = s.warm_used;
            }
            job.resume = false;
            // the relaxed geometry is the job's deliverable
            for (atom, pos) in job.req.spec.atoms.iter_mut().zip(s.positions) {
                atom.pos = pos;
            }
            WorkerReport {
                granted,
                survivors: s.survivors,
                recoveries: s.recoveries,
                performed: s.performed,
                disposition: Disposition::Finished {
                    free_energy: s.free_energy,
                    converged: s.converged,
                    published: s.published,
                },
            }
        }
        Err(disposition) => WorkerReport {
            granted,
            survivors: granted,
            recoveries: 0,
            performed: 0,
            disposition,
        },
    }
}

#[cfg(test)]
mod tests {
    use dft_core::cluster::scf::performed_iterations;

    /// The warm-resume-converges-immediately edge: a run resumed from a
    /// snapshot labeled N that performs no further loop iterations
    /// reports `iterations = 0`, and the accounting must floor at zero
    /// instead of wrapping the unsigned subtraction.
    #[test]
    fn performed_iterations_saturates_on_immediate_convergence() {
        assert_eq!(performed_iterations(0, Some(3)), 0);
        assert_eq!(performed_iterations(1, Some(1)), 0);
        assert_eq!(performed_iterations(5, Some(1)), 4);
        assert_eq!(performed_iterations(7, None), 7);
    }
}

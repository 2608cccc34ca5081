//! The server front door: admission control on the caller's thread, a
//! scheduler thread behind a channel, and per-job outcome tickets.

use crate::cachekey::cache_key;
use crate::job::{AdmissionError, JobOutcome, JobRequest};
use crate::scheduler::{Admission, Event, QueuedJob, Scheduler, ServerConfig, ServerStats};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One accepted job's receipt: the server-assigned id plus the channel its
/// single [`JobOutcome`] arrives on.
pub struct JobTicket {
    /// Server-assigned job id.
    pub job_id: u64,
    rx: Receiver<JobOutcome>,
}

impl JobTicket {
    /// Block until the job finishes. `None` only if the server died
    /// without delivering (it never does under normal operation).
    pub fn wait(&self) -> Option<JobOutcome> {
        self.rx.recv().ok()
    }
}

/// The multi-tenant DFT job server. `start` spins up the scheduler thread;
/// `submit` admits (or bounces) requests from any thread; `drain` stops
/// admissions, finishes every queued and running job, and returns the
/// final counters.
pub struct DftServer {
    cfg: ServerConfig,
    events_tx: Sender<Event>,
    admission: Arc<Mutex<Admission>>,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<ServerStats>>,
}

/// Backoff hint scaled to the backlog per pool slot: a nearly empty queue
/// suggests an immediate retry, a deep one a proportionally longer wait.
fn retry_after(queued: usize, pool_ranks: usize) -> Duration {
    Duration::from_millis(10 + 15 * (queued / pool_ranks.max(1)) as u64)
}

impl DftServer {
    /// Start the scheduler thread. Creates `cfg.checkpoint_root`.
    pub fn start(cfg: ServerConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&cfg.checkpoint_root)?;
        let admission = Arc::new(Mutex::new(Admission::default()));
        let (events_tx, events_rx) = mpsc::channel();
        let scheduler = Scheduler::new(cfg.clone(), Arc::clone(&admission), events_tx.clone());
        let handle = std::thread::Builder::new()
            .name("dft-serve-sched".into())
            .spawn(move || scheduler.run(events_rx))?;
        Ok(Self {
            cfg,
            events_tx,
            admission,
            next_id: AtomicU64::new(1),
            scheduler: Some(handle),
        })
    }

    /// Admit a request, or reject it with a structured reason. Accepted
    /// jobs are guaranteed exactly one outcome on the returned ticket —
    /// through preemptions, rank loss, and resumes.
    pub fn submit(&self, req: JobRequest) -> Result<JobTicket, AdmissionError> {
        if let Err(why) = req.spec.validate() {
            self.bump_rejected();
            return Err(AdmissionError::InvalidSpec(why));
        }
        {
            let mut adm = self
                .admission
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if adm.draining {
                adm.rejected += 1;
                return Err(AdmissionError::ShuttingDown);
            }
            if adm.queued >= self.cfg.max_queued {
                adm.rejected += 1;
                return Err(AdmissionError::QueueFull {
                    queued: adm.queued,
                    limit: self.cfg.max_queued,
                    retry_after: retry_after(adm.queued, self.cfg.pool_ranks),
                });
            }
            let tenant_queued = adm.per_tenant.get(&req.tenant).copied().unwrap_or(0);
            if tenant_queued >= self.cfg.max_queued_per_tenant {
                adm.rejected += 1;
                return Err(AdmissionError::TenantQuota {
                    tenant: req.tenant.clone(),
                    queued: tenant_queued,
                    limit: self.cfg.max_queued_per_tenant,
                    retry_after: retry_after(adm.queued, self.cfg.pool_ranks),
                });
            }
            adm.queued += 1;
            *adm.per_tenant.entry(req.tenant.clone()).or_insert(0) += 1;
        }

        let job_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = cache_key(&req.spec);
        let (outcome_tx, rx) = mpsc::channel();
        let job = Box::new(QueuedJob {
            id: job_id,
            key,
            req,
            outcome_tx,
            submitted: Instant::now(),
            first_dispatch: None,
            resume: false,
            warm_from: None,
            counted: true,
            cache_hit: false,
            preemptions: 0,
            recoveries: 0,
            ranks_lost: 0,
            scf_iterations: 0,
        });
        if self.events_tx.send(Event::Submit(job)).is_err() {
            // scheduler gone: roll the admission slot back
            let mut adm = self
                .admission
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            adm.queued = adm.queued.saturating_sub(1);
            return Err(AdmissionError::ShuttingDown);
        }
        Ok(JobTicket { job_id, rx })
    }

    /// Stop admitting, finish every queued and running job, and return
    /// the final counters.
    pub fn drain(mut self) -> ServerStats {
        let _ = self.events_tx.send(Event::Drain);
        match self.scheduler.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => ServerStats::default(),
        }
    }

    fn bump_rejected(&self) {
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rejected += 1;
    }
}

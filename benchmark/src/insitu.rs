//! Layer metrics read from what the public API already returns for the
//! traced operation: `ScfProfile`, `CommStats`, the relax trajectory,
//! `JobOutcome` and `ServerStats`.
//!
//! Every metric is emitted on every workload; one whose layer is not on
//! the workload's path reads 0 (a serial solve sends no messages, a solve
//! outside the server has no queue).

use crate::layers::Metrics;
use crate::stats::median;
use crate::workloads::{Detail, OpOutcome, RANKS};
use dft_hpc::profile::{Phase, ScfProfile};

/// The phases reported per name (`CK` is left out: no workload
/// checkpoints inside the SCF loop).
const PHASES: [Phase; 11] = [
    Phase::Cf,
    Phase::CholGsS,
    Phase::CholGsCi,
    Phase::CholGsO,
    Phase::RrP,
    Phase::RrD,
    Phase::RrSr,
    Phase::Dc,
    Phase::Dh,
    Phase::Ep,
    Phase::Other,
];

fn phase_calls(p: &ScfProfile, label: &str) -> u64 {
    p.cumulative
        .iter()
        .find(|r| r.phase == label)
        .map_or(0, |r| r.calls)
}

/// `core.*` from the profile of the workload's serial solve, with the
/// replayed CF call held against the CF phase it was taken from.
pub fn core_metrics(profile: &ScfProfile, iterations: usize, m: &mut Metrics) {
    for ph in PHASES {
        let label = ph.label();
        m.put(
            &format!("core.phase.{label}_s"),
            profile.phase_seconds(label),
            "s",
        );
    }
    m.put(
        "core.phase.CF_gflops",
        profile.phase_gflops("CF").unwrap_or(0.0),
        "GFLOPS",
    );
    m.put("core.profile_coverage", profile.coverage(), "ratio");
    m.put("core.scf_iterations", iterations as f64, "count");
    let replay = m.get("core.cf_s_per_call").unwrap_or(0.0);
    let insitu = profile.phase_seconds("CF");
    let ratio = if insitu > 0.0 {
        replay * phase_calls(profile, "CF") as f64 / insitu
    } else {
        0.0
    };
    m.put("core.cf_replay_over_insitu", ratio, "ratio");
}

/// Rank profiles the traced distributed operation returned (a relax result
/// keeps only its final step's solve).
fn rank_profiles(op: &OpOutcome) -> Vec<&ScfProfile> {
    match &op.detail {
        Detail::Dist(ranks, _) => ranks.iter().filter_map(|r| r.profile.as_ref()).collect(),
        Detail::Relax(ranks, _) => ranks
            .iter()
            .filter_map(|r| r.scf.profile.as_ref())
            .collect(),
        _ => Vec::new(),
    }
}

/// Slowest rank's seconds in `label`.
fn slowest(profiles: &[&ScfProfile], label: &str) -> f64 {
    profiles
        .iter()
        .map(|p| p.phase_seconds(label))
        .fold(0.0, f64::max)
}

/// `hpc.*` traffic and `parallel.*` phase shares of the traced distributed
/// operation. `serial` is the profiled serial solve of the same problem and
/// `serial_wall_s` its wall (the plain single-threaded baseline).
pub fn distributed_metrics(
    op: &OpOutcome,
    serial: &ScfProfile,
    serial_wall_s: f64,
    m: &mut Metrics,
) {
    let profiles = rank_profiles(op);
    let traffic = match &op.detail {
        Detail::Dist(_, t) | Detail::Relax(_, t) => *t,
        _ => Default::default(),
    };
    m.put("hpc.bytes_total", traffic.bytes_total as f64, "B");
    m.put("hpc.messages", traffic.messages as f64, "count");
    m.put("hpc.ghost_wait_s", traffic.ghost_wait_s, "s");
    for label in ["CF", "RR-P", "EP"] {
        m.put(
            &format!("parallel.phase.{label}_s"),
            slowest(&profiles, label),
            "s",
        );
    }
    let solve_s = profiles.iter().map(|p| p.total_seconds).fold(0.0, f64::max);
    let share = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    let replicated = ["EP", "DH", "Other"]
        .iter()
        .map(|l| slowest(&profiles, l))
        .sum::<f64>();
    m.put(
        "parallel.replicated_frac",
        share(replicated, solve_s),
        "ratio",
    );
    let distributed = matches!(op.detail, Detail::Dist(..) | Detail::Relax(..));
    m.put(
        "parallel.ghost_wait_frac",
        if distributed {
            share(traffic.ghost_wait_s, RANKS as f64 * op.wall_s)
        } else {
            0.0
        },
        "ratio",
    );
    // per CF call, so a warm relax step (one pass) compares with a cold
    // serial solve (several first-iteration passes)
    let per_call = |p: &ScfProfile| share(p.phase_seconds("CF"), phase_calls(p, "CF") as f64);
    let dist_cf = profiles.iter().map(|p| per_call(p)).fold(0.0, f64::max);
    m.put(
        "parallel.dist_over_serial_cf",
        share(dist_cf, per_call(serial)),
        "ratio",
    );
    m.put(
        "parallel.speedup_vs_serial",
        if matches!(op.detail, Detail::Dist(..)) {
            share(serial_wall_s, op.wall_s)
        } else {
            0.0
        },
        "ratio",
    );
    let (first, warm_mean) = match &op.detail {
        Detail::Relax(ranks, _) if !ranks.is_empty() => {
            let iters: Vec<f64> = ranks[0]
                .trajectory
                .iter()
                .map(|s| s.scf_iterations as f64)
                .collect();
            let warm = &iters[1.min(iters.len())..];
            (
                iters.first().copied().unwrap_or(0.0),
                if warm.is_empty() {
                    0.0
                } else {
                    warm.iter().sum::<f64>() / warm.len() as f64
                },
            )
        }
        _ => (0.0, 0.0),
    };
    m.put("parallel.first_step_iters", first, "count");
    m.put("parallel.warm_iters_mean", warm_mean, "count");
}

/// Rank profiles of the traced distributed operation must also close.
pub fn min_rank_coverage(op: &OpOutcome) -> Option<f64> {
    rank_profiles(op)
        .iter()
        .map(|p| p.coverage())
        .reduce(f64::min)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `serve.*` from the traced burst's outcomes and the drained counters.
pub fn serve_metrics(op: &OpOutcome, m: &mut Metrics) {
    let mut submit = Vec::new();
    let mut wait = Vec::new();
    let mut latency = Vec::new();
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let (mut cold_it, mut warm_it) = (Vec::new(), Vec::new());
    let mut stats = Default::default();
    let mut busy_ms = 0.0;
    if let Detail::Serve { jobs, stats: s, .. } = &op.detail {
        stats = s.clone();
        for j in jobs {
            submit.push(j.submit_us);
            let Some(o) = &j.outcome else { continue };
            let service = o.latency_ms - o.wait_ms;
            busy_ms += service;
            wait.push(o.wait_ms);
            latency.push(o.latency_ms);
            if o.cache_hit {
                warm_ms.push(service);
                warm_it.push(o.scf_iterations as f64);
            } else {
                cold_ms.push(service);
                cold_it.push(o.scf_iterations as f64);
            }
        }
    }
    let jobs_done = latency.len() as f64;
    let serving = matches!(op.detail, Detail::Serve { .. });
    m.put(
        "serve.jobs_per_s",
        if serving { jobs_done / op.wall_s } else { 0.0 },
        "1/s",
    );
    m.put("serve.latency_ms_p50", median_or_zero(&latency), "ms");
    m.put(
        "serve.latency_ms_p95",
        if latency.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&latency, 0.95)
        },
        "ms",
    );
    m.put("serve.submit_us_p50", median_or_zero(&submit), "us");
    m.put("serve.queue_wait_ms_p50", median_or_zero(&wait), "ms");
    m.put("serve.cold_service_ms_p50", median_or_zero(&cold_ms), "ms");
    m.put("serve.warm_service_ms_p50", median_or_zero(&warm_ms), "ms");
    let lookups = (stats.cache_hits + stats.cache_misses) as f64;
    m.put(
        "serve.cache_hit_rate",
        if lookups > 0.0 {
            stats.cache_hits as f64 / lookups
        } else {
            0.0
        },
        "ratio",
    );
    m.put("serve.cold_iters_mean", mean_or_zero(&cold_it), "count");
    m.put("serve.warm_iters_mean", mean_or_zero(&warm_it), "count");
    m.put(
        "serve.pool_busy_frac",
        if serving {
            busy_ms * 1e-3 / (RANKS as f64 * op.wall_s)
        } else {
            0.0
        },
        "ratio",
    );
    m.put("serve.spaces_built", stats.spaces_built as f64, "count");
    m.put(
        "serve.max_queue_depth",
        stats.max_queue_depth as f64,
        "count",
    );
}

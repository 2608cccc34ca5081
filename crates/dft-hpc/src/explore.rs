//! Schedule-exploration sanitizer: seeded message-delivery perturbation
//! plus an N-schedule bit-identity driver.
//!
//! The repo's reproducibility claims rest on the distributed solvers being
//! *deterministic by construction*: every collective accumulates in fixed
//! rank order, ghost harvests fill slots in list order (not arrival
//! order), and wire tags fully disambiguate streams. DPOR-style systematic
//! concurrency testing shows that such claims are checkable mechanically:
//! perturb the schedule, rerun, and compare bits. This module is the
//! bounded version of that idea — a [`SchedulePlan`] seeds a per-rank
//! deterministic RNG that
//!
//! 1. injects bounded delays ahead of sends (salted by the wire-tag band,
//!    so different traffic classes are skewed against each other), which
//!    reorders channel arrivals and flips the readiness order every
//!    `try_recv_*` poll observes, and
//! 2. permutes the insertion position of drained packets in the pending
//!    queue, preserving per-`(src, tag)` FIFO (the MPI non-overtaking
//!    rule) while shuffling cross-stream order.
//!
//! [`explore_schedules`] then runs a cluster closure under N derived
//! seeds and reports the first pair of schedules whose per-rank results
//! diverge — for the deterministic SCF/forces oracles the assertion is
//! bit-identity across all N; for an order-*dependent* program the
//! divergence report names the two seeds that reproduce the difference.
//!
//! The perturbation state is a plain `Option` on [`ThreadComm`]
//! (`None` = zero-cost): production runs never enable it, CI runs it as a
//! bounded gate (N=8 by default, `DFT_SCHED_EXPLORE=off` to skip), and the
//! `sanitize` feature's message-leak ledger composes with it for free.
//!
//! [`ThreadComm`]: crate::comm::ThreadComm

use crate::comm::{run_cluster_with, ClusterOptions, ThreadComm};
use std::time::Duration;

/// SplitMix64: the de-facto standard 64-bit seed expander. Pure,
/// stateless, and bijective — the whole exploration is replayable from one
/// `u64`.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded message-schedule perturbation, applied identically on every
/// run with the same plan: deterministic chaos.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulePlan {
    /// Base seed; each rank derives its own stream as
    /// `splitmix64(seed ^ rank)`.
    pub seed: u64,
    /// Upper bound on one injected pre-send delay.
    pub max_delay: Duration,
    /// Apply a delay to roughly one send in `delay_one_in` (1 = every
    /// send). Keeps the oracle gate cheap while still reordering arrivals.
    pub delay_one_in: u32,
}

impl SchedulePlan {
    /// The CI-gate defaults: 50 microsecond delay cap on ~1/8 of sends.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_delay: Duration::from_micros(50),
            delay_one_in: 8,
        }
    }
}

/// Per-rank perturbation state derived from a [`SchedulePlan`].
#[derive(Clone, Debug)]
pub struct SchedState {
    rng: u64,
    max_delay_nanos: u64,
    delay_one_in: u32,
}

impl SchedState {
    /// Rank `rank`'s stream of the plan.
    #[must_use]
    pub fn for_rank(plan: &SchedulePlan, rank: usize) -> Self {
        Self {
            rng: splitmix64(plan.seed ^ (rank as u64).wrapping_mul(0x9e37_79b9)),
            max_delay_nanos: plan.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64,
            delay_one_in: plan.delay_one_in.max(1),
        }
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    /// The delay to inject ahead of a send carrying `wire_tag`, or `None`
    /// for this send. Salting by the tag keeps distinct tag bands on
    /// distinct skew sequences even when their sends interleave.
    pub fn delay_for(&mut self, wire_tag: u64) -> Option<Duration> {
        let draw = self.next_u64() ^ splitmix64(wire_tag);
        if self.max_delay_nanos == 0 || !draw.is_multiple_of(u64::from(self.delay_one_in)) {
            return None;
        }
        Some(Duration::from_nanos(
            splitmix64(draw) % self.max_delay_nanos,
        ))
    }

    /// A pending-queue insertion slot in `floor..=len` (inclusive of the
    /// tail): where a freshly drained packet lands among packets of
    /// *other* `(src, tag)` streams.
    pub fn insert_slot(&mut self, floor: usize, len: usize) -> usize {
        let span = (len - floor) as u64 + 1;
        floor + (self.next_u64() % span) as usize
    }
}

/// Two schedules whose per-rank results diverged: replay either seed to
/// reproduce its half of the difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleDivergence {
    /// Index (0-based) and derived seed of the baseline schedule.
    pub schedule_a: usize,
    pub seed_a: u64,
    /// Index and derived seed of the diverging schedule.
    pub schedule_b: usize,
    pub seed_b: u64,
    /// First rank whose result differs between the two schedules.
    pub rank: usize,
}

impl std::fmt::Display for ScheduleDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule divergence: rank {} differs between schedule {} (seed {:#x}) and schedule {} (seed {:#x})",
            self.rank, self.schedule_a, self.seed_a, self.schedule_b, self.seed_b
        )
    }
}

/// The derived seed of schedule `k` under `base_seed` (pure, so a reported
/// divergence is replayable without rerunning the search).
#[must_use]
pub fn schedule_seed(base_seed: u64, k: usize) -> u64 {
    splitmix64(base_seed.wrapping_add(k as u64))
}

/// Run `f` on an `n_ranks` cluster under `n_schedules` seeded delivery
/// schedules and compare the per-rank results against the first schedule.
/// Returns the (schedule-invariant) results on success, or the first
/// [`ScheduleDivergence`] found. `proto` supplies timeout/fault settings;
/// its own `schedule` field is overridden per iteration. With
/// `n_schedules == 0` the closure runs once, unperturbed.
// dftlint:allow(L009, reason="the schedule explorer of dft-parallel/tests/schedule.rs")
pub fn explore_schedules<T, F>(
    n_ranks: usize,
    n_schedules: usize,
    base_seed: u64,
    plan_of: impl Fn(u64) -> SchedulePlan,
    proto: &ClusterOptions,
    f: F,
) -> Result<Vec<T>, ScheduleDivergence>
where
    T: PartialEq + Send,
    F: Fn(&mut ThreadComm) -> T + Send + Sync,
{
    let mut opts = proto.clone();
    if n_schedules == 0 {
        opts.schedule = None;
        return Ok(run_cluster_with(n_ranks, &opts, f).0);
    }
    let seed0 = schedule_seed(base_seed, 0);
    opts.schedule = Some(plan_of(seed0));
    let (baseline, _) = run_cluster_with(n_ranks, &opts, &f);
    for k in 1..n_schedules {
        let seed = schedule_seed(base_seed, k);
        opts.schedule = Some(plan_of(seed));
        let (results, _) = run_cluster_with(n_ranks, &opts, &f);
        if let Some(rank) = (0..baseline.len()).find(|&r| results[r] != baseline[r]) {
            return Err(ScheduleDivergence {
                schedule_a: 0,
                seed_a: seed0,
                schedule_b: k,
                seed_b: seed,
                rank,
            });
        }
    }
    Ok(baseline)
}

/// Schedule count for CI gates: `DFT_SCHED_EXPLORE` unset uses
/// `default_n`, `off`/`0` disables exploration, any other value is parsed
/// as the count (falling back to `default_n`).
#[must_use]
// dftlint:allow(L009, reason="schedule count of dft-parallel/tests/schedule.rs")
pub fn schedules_from_env(default_n: usize) -> usize {
    match std::env::var("DFT_SCHED_EXPLORE") {
        Err(_) => default_n,
        Ok(v) if v == "off" || v == "0" => 0,
        Ok(v) => v.parse().unwrap_or(default_n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::WirePrecision;

    impl SchedulePlan {
        /// An aggressive plan for explorer self-tests: delay every send,
        /// with a larger cap, so arrival order is dominated by the seeded
        /// delays.
        fn aggressive(seed: u64) -> Self {
            Self {
                seed,
                max_delay: Duration::from_millis(4),
                delay_one_in: 1,
            }
        }
    }

    /// An order-DEPENDENT comm program: rank 0 polls ranks 1 and 2 with
    /// `try_recv_bytes` and records arrival order. The seeded send delays
    /// flip which peer lands first, so schedules diverge — exactly what
    /// the explorer must catch.
    fn order_dependent(c: &mut ThreadComm) -> Vec<u8> {
        let me = c.rank();
        if me == 0 {
            let mut order = Vec::new();
            let mut seen = [false; 3];
            while order.len() < 2 {
                for src in [1usize, 2] {
                    if !seen[src] {
                        if let Ok(Some(data)) = c.try_recv_bytes(src, 7) {
                            seen[src] = true;
                            order.extend_from_slice(&data);
                        }
                    }
                }
            }
            order
        } else {
            c.send_bytes(0, 7, vec![me as u8]).expect("send");
            Vec::new()
        }
    }

    /// An order-INDEPENDENT program: the same traffic, but rank 0 sums the
    /// payloads — any delivery order gives the same bits.
    fn order_independent(c: &mut ThreadComm) -> f64 {
        let mut v = [c.rank() as f64 + 1.0];
        c.allreduce_sum_f64(&mut v, WirePrecision::Fp64)
            .expect("allreduce");
        v[0]
    }

    #[test]
    fn explorer_catches_an_order_dependent_program() {
        // 24 aggressive schedules: the chance that every seeded delay
        // assignment yields the same arrival order is ~2^-23
        let div = explore_schedules(
            3,
            24,
            0xC0FFEE,
            SchedulePlan::aggressive,
            &ClusterOptions::default(),
            order_dependent,
        );
        let d = div.expect_err("order-dependent program must diverge");
        assert_eq!(d.rank, 0, "only rank 0's result is order-sensitive: {d}");
        assert_ne!(d.seed_a, d.seed_b);
        assert_eq!(d.seed_a, schedule_seed(0xC0FFEE, d.schedule_a));
        assert_eq!(d.seed_b, schedule_seed(0xC0FFEE, d.schedule_b));
    }

    #[test]
    fn deterministic_program_is_bit_identical_across_schedules() {
        let sums = explore_schedules(
            4,
            8,
            42,
            SchedulePlan::aggressive,
            &ClusterOptions::default(),
            order_independent,
        )
        .expect("deterministic program must not diverge");
        for s in sums {
            assert_eq!(s.to_bits(), 10.0f64.to_bits());
        }
    }

    #[test]
    fn schedule_replay_is_reproducible_from_the_seed() {
        // the per-rank delay/insertion draw streams are pure functions of
        // (plan, rank): replaying a seed replays the exact perturbation
        let plan = SchedulePlan::aggressive(0xDEAD_BEEF);
        for rank in 0..4 {
            let mut a = SchedState::for_rank(&plan, rank);
            let mut b = SchedState::for_rank(&plan, rank);
            for tag in 0..256u64 {
                assert_eq!(a.delay_for(tag), b.delay_for(tag));
                assert_eq!(
                    a.insert_slot(0, tag as usize),
                    b.insert_slot(0, tag as usize)
                );
            }
        }
        // and a full exploration under the same base seed returns the same
        // schedule-invariant results
        let run = || {
            explore_schedules(
                4,
                4,
                7,
                SchedulePlan::aggressive,
                &ClusterOptions::default(),
                order_independent,
            )
            .expect("deterministic")
        };
        assert_eq!(run(), run());
        // distinct ranks draw distinct streams
        let mut r0 = SchedState::for_rank(&plan, 0);
        let mut r1 = SchedState::for_rank(&plan, 1);
        assert_ne!(r0.next_u64(), r1.next_u64());
    }

    #[test]
    fn env_gate_parses_count_and_off() {
        // (env mutation is process-global; this test only exercises the
        // unset path plus the parser via direct calls)
        assert_eq!(schedules_from_env(8), 8);
    }
}

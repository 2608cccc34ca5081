//! A real (threaded) message-passing runtime: the MPI stand-in.
//!
//! Ranks are OS threads connected by crossbeam channels. Point-to-point
//! messages and collectives move actual bytes, and every send records its
//! wire volume, so the paper's mixed-precision communication claims
//! (Sec. 5.4.2: FP32 on FE partition boundaries halves traffic while
//! retaining FP64 accuracy) are *testable* rather than asserted.
//!
//! # Collectives
//!
//! As in MPI, the world is one more communicator: a group is its ascending
//! list of global ranks and the world is the group `0..size`. Every public
//! collective is a few-line call of the one private routine
//! `ThreadComm::rooted`, the only place a gather loop and a return loop are
//! written: accumulation order (hence every bit), deadline, poisoning and
//! the root's view of a lossy wire are decided there, once. Each collective
//! hands it one [`TagBand`], and rustc checks the registry of bands,
//! [`TAG_BANDS`], on every build.
//!
//! # Fault tolerance
//!
//! Production runs at the paper's scale (8,000 Frontier nodes for hours)
//! lose nodes routinely, so no primitive here blocks forever: every
//! blocking receive — and every receive leg of every collective — takes a
//! deadline derived from the communicator's [`timeout`](ThreadComm::timeout)
//! and surfaces a typed [`CommError`] on expiry instead of hanging or
//! panicking. After the first error the communicator is *poisoned*: all
//! subsequent operations return the original error immediately without
//! waiting or sending, so one dead rank cascades a clean, bounded-time
//! failure through every surviving rank instead of a deadlock.
//!
//! A deterministic fault-injection layer ([`FaultPlan`]) drives the
//! recovery tests: a rule can kill a rank at an application-declared epoch
//! (e.g. "SCF iteration 3") or on its n-th send whose wire tag falls in a
//! band (e.g. "mid ghost exchange", "mid allreduce"). Slow links are the
//! schedule explorer's seeded send delays ([`crate::explore`]).

use crate::explore::{SchedState, SchedulePlan};
use crate::threads::with_threads;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Precision used on the wire for floating-point payloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WirePrecision {
    /// Full FP64 payloads.
    Fp64,
    /// Demote to FP32 on send, promote on receive (the paper's boundary-
    /// communication trick).
    Fp32,
}

impl WirePrecision {
    /// Bytes per scalar on the wire.
    pub fn bytes(self) -> usize {
        match self {
            WirePrecision::Fp64 => 8,
            WirePrecision::Fp32 => 4,
        }
    }

    /// `v` as a peer decodes it after one hop on this wire.
    pub fn delivered(self, v: f64) -> f64 {
        match self {
            WirePrecision::Fp64 => v,
            WirePrecision::Fp32 => v as f32 as f64,
        }
    }

    /// The wire tag that carries logical `tag` at this precision: the
    /// precision travels in the low bit, so a receive must name the
    /// precision its send used. Every wire tag is encoded here.
    pub const fn encode_tag(self, tag: u64) -> u64 {
        tag << 1 | matches!(self, WirePrecision::Fp32) as u64
    }
}

/// A typed communication failure. `Copy` so a poisoned communicator can
/// keep returning its original failure cheaply.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A blocking receive (or a receive leg of a collective) hit its
    /// deadline: the peer is dead, silent, or slower than the timeout.
    Timeout {
        /// Rank the receive was waiting on.
        src: usize,
        /// Wire tag the receive was matching.
        tag: u64,
    },
    /// The channel to/from `peer` is disconnected: every endpoint that
    /// could produce the message has exited.
    PeerGone {
        /// The peer rank involved in the failed operation.
        peer: usize,
    },
    /// This rank was killed by a [`FaultPlan`] rule (fault injection).
    Killed {
        /// The killed rank (this rank).
        rank: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, tag } => {
                write!(f, "timeout waiting for rank {src} (wire tag {tag:#x})")
            }
            CommError::PeerGone { peer } => write!(f, "peer rank {peer} is gone (disconnected)"),
            CommError::Killed { rank } => write!(f, "rank {rank} killed by fault injection"),
        }
    }
}

impl std::error::Error for CommError {}

/// One fault-injection kill rule (see [`FaultPlan`]).
#[derive(Clone, Debug)]
pub struct KillRule {
    /// Rank this rule kills.
    pub rank: usize,
    /// Rule arms when the victim's epoch counter reaches this value (the
    /// application advances epochs, e.g. once per SCF iteration).
    pub epoch: u64,
    /// `None`: die immediately when the epoch is reached (inside
    /// [`ThreadComm::advance_epoch`]). `Some((lo, hi))`: die on a send
    /// whose wire tag satisfies `lo <= tag < hi`.
    pub tags: Option<(u64, u64)>,
    /// With `tags`: number of matching sends to let through before dying
    /// (0 = die on the first match).
    pub after_matches: u64,
}

/// A deterministic fault plan threaded through every [`ThreadComm`] of a
/// cluster: kill rules turn a rank dead ([`CommError::Killed`]) at a
/// reproducible point. The plan is pure data — no clocks, no randomness — so a faulted run is
/// exactly repeatable.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Kill rules (each fires at most once).
    pub kills: Vec<KillRule>,
}

impl FaultPlan {
    /// Kill `rank` as soon as its epoch counter reaches `epoch`.
    // dftlint:allow(L009, reason="fault injection of dft-core/tests/fault_tolerance.rs and dft-serve/tests/serve.rs")
    pub fn kill_at_epoch(rank: usize, epoch: u64) -> Self {
        Self {
            kills: vec![KillRule {
                rank,
                epoch,
                tags: None,
                after_matches: 0,
            }],
        }
    }

    /// Kill `rank` on its `(after_matches + 1)`-th send with a wire tag in
    /// `tags`, once its epoch counter has reached `epoch`.
    // dftlint:allow(L009, reason="fault injection of dft-core/tests/fault_tolerance.rs")
    pub fn kill_on_send(rank: usize, epoch: u64, tags: (u64, u64), after_matches: u64) -> Self {
        Self {
            kills: vec![KillRule {
                rank,
                epoch,
                tags: Some(tags),
                after_matches,
            }],
        }
    }
}

/// The wire-tag band of every collective primitive — for [`FaultPlan`]
/// rules targeting collectives.
pub const COLLECTIVE_TAGS: (u64, u64) = (1 << 60, u64::MAX);

/// Upper bound on cluster size, which bounds every rank-indexed tag band:
/// a band of `width = MAX_RANKS` can address `base + rank` for any rank
/// without escaping its declared interval. [`run_cluster_with`] rejects
/// larger clusters, and the registry check under [`TAG_BANDS`] holds every
/// rank-indexed band to this width.
pub const MAX_RANKS: u64 = 4000;

/// A declared interval of collective tags. Every collective primitive hands
/// the one rooted routine exactly one band, which tags each message by its
/// *sending* rank; no tag literal may appear outside this registry (lint
/// L003). Every band passes through the precision encoding
/// ([`WirePrecision::encode_tag`]), which doubles its wire interval.
#[derive(Debug, Clone, Copy)]
pub struct TagBand {
    /// First logical tag in the band.
    pub base: u64,
    /// Number of logical tags (`1` for single-tag bands, [`MAX_RANKS`] for
    /// rank-indexed bands).
    pub width: u64,
}

impl TagBand {
    /// The logical tag of a message from `rank`: `base + rank` in a
    /// rank-indexed band, `base` for every sender in a single-tag band.
    #[inline]
    pub const fn for_rank(&self, rank: usize) -> u64 {
        if self.width == 1 {
            return self.base;
        }
        debug_assert!((rank as u64) < self.width);
        self.base + rank as u64
    }

    /// Half-open interval of wire tags this band can emit.
    pub const fn wire_range(&self) -> (u64, u64) {
        let fp64 = WirePrecision::Fp64;
        (
            fp64.encode_tag(self.base),
            fp64.encode_tag(self.base + self.width),
        )
    }

    /// Whether an observed wire tag falls inside this band.
    pub const fn contains_wire(&self, wire: u64) -> bool {
        let (lo, hi) = self.wire_range();
        lo <= wire && wire < hi
    }
}

/// Barrier: one tag for both legs — every message is empty and `(src, dst)`
/// tells the members apart.
pub const BARRIER_BAND: TagBand = TagBand {
    base: (1 << 60) + 1,
    width: 1,
};

/// Allreduce: `base + rank` carries rank contributions to root, `base`
/// (rank 0's own tag) carries the reduced result back.
pub const ALLREDUCE_BAND: TagBand = TagBand {
    base: (1 << 60) + 1000,
    width: MAX_RANKS,
};

/// Sub-group allreduce (process-grid rows/columns): `base + rank` carries a
/// member's contribution to the group root, `base + root` carries the
/// reduced result back. Disjoint groups may use the band concurrently —
/// their `(src, dst)` pairs never collide.
pub const GROUP_REDUCE_BAND: TagBand = TagBand {
    base: (1 << 60) + 11000,
    width: MAX_RANKS,
};

/// Sub-group allgather of variable-length blocks (band-axis assembly of
/// wavefunction column blocks): `base + rank` carries a member's block to
/// the group root, `base + root` carries the framed concatenation back.
pub const GROUP_ASSEMBLE_BAND: TagBand = TagBand {
    base: (1 << 60) + 16000,
    width: MAX_RANKS,
};

/// K-point-group broadcast: `base + root` carries the payload from each
/// group's root to its members (concurrent per-group broadcasts share the
/// band; roots are distinct ranks).
pub const KGROUP_BAND: TagBand = TagBand {
    base: (1 << 60) + 21000,
    width: MAX_RANKS,
};

/// Preemption-consensus allreduce(max): `base + rank` carries each rank's
/// local view of a control flag to root, `base` carries the agreed maximum
/// back. A dedicated band — rather than piggybacking on
/// [`ALLREDUCE_BAND`] — so the job server's control traffic is separable
/// from solver reductions in fault plans and sanitizer ledgers: a per-job
/// cluster is already its own comm namespace, and this band keeps its
/// *control plane* disjoint from its data plane on the wire too.
pub const PREEMPT_BAND: TagBand = TagBand {
    base: (1 << 60) + 26000,
    width: MAX_RANKS,
};

/// The complete collective tag registry. rustc checks it on every build
/// (`check_tag_bands` below), and the `sanitize` feature asserts at run
/// time that every observed collective wire tag lands in one of its bands.
pub const TAG_BANDS: [TagBand; 6] = [
    BARRIER_BAND,
    ALLREDUCE_BAND,
    GROUP_REDUCE_BAND,
    GROUP_ASSEMBLE_BAND,
    KGROUP_BAND,
    PREEMPT_BAND,
];

// A registry that breaks a property of `check_tag_bands` does not compile.
const _: () = check_tag_bands(&TAG_BANDS);

/// Assert the properties that keep the collectives apart on the wire: every
/// band is at least one tag wide, a rank-indexed band (wider than one tag)
/// has a tag for each of [`MAX_RANKS`] senders, no band's wire range
/// overflows a `u64`, every band lies inside [`COLLECTIVE_TAGS`], and no
/// two bands share a wire tag.
const fn check_tag_bands(bands: &[TagBand]) {
    let mut i = 0;
    while i < bands.len() {
        let b = bands[i];
        assert!(b.width > 0, "a TagBand has zero width");
        assert!(
            b.width == 1 || b.width >= MAX_RANKS,
            "a rank-indexed TagBand is narrower than MAX_RANKS"
        );
        // the wire range ends at `(base + width) << 1`, which must fit
        assert!(
            matches!(b.base.checked_add(b.width), Some(end) if end <= u64::MAX / 2),
            "a TagBand's wire range overflows u64"
        );
        let (lo, hi) = b.wire_range();
        assert!(
            COLLECTIVE_TAGS.0 <= lo && hi <= COLLECTIVE_TAGS.1,
            "a TagBand escapes COLLECTIVE_TAGS"
        );
        let mut j = 0;
        while j < i {
            let (lo_j, hi_j) = bands[j].wire_range();
            assert!(hi <= lo_j || hi_j <= lo, "two TagBands overlap on the wire");
            j += 1;
        }
        i += 1;
    }
}

/// The wire-tag band a logical point-to-point tag occupies after precision
/// encoding (both FP64 and FP32 framings) — for [`FaultPlan`] rules
/// targeting a specific exchange.
pub const fn wire_tag_band(tag: u64) -> (u64, u64) {
    (
        WirePrecision::Fp64.encode_tag(tag),
        WirePrecision::Fp32.encode_tag(tag) + 1,
    )
}

/// Cluster-wide run options: the receive deadline and the fault plan.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Deadline for every blocking receive (and each receive leg of a
    /// collective). Must exceed the peers' worst-case compute skew.
    pub timeout: Duration,
    /// Deterministic fault-injection plan (empty = fault-free).
    pub faults: Arc<FaultPlan>,
    /// Seeded message-schedule perturbation for the exploration sanitizer
    /// (`None` = natural delivery order, zero overhead).
    pub schedule: Option<SchedulePlan>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(30),
            faults: Arc::new(FaultPlan::default()),
            schedule: None,
        }
    }
}

impl ClusterOptions {
    /// Fault-free options with the given receive timeout.
    // dftlint:allow(L009, reason="short deadlines of dft-core/tests/fault_tolerance.rs")
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            timeout,
            ..Self::default()
        }
    }
}

struct Packet {
    src: usize,
    tag: u64,
    data: Vec<u8>,
}

/// Debug-build message-leak detector (`sanitize` feature): the run-time
/// complement of the compile-time registry check under [`TAG_BANDS`].
/// Every successful [`ThreadComm::send_bytes`] records its
/// `(src, dst, wire_tag)` triple; every delivery decrements it. At clean
/// cluster shutdown ([`run_cluster_with`] with no rank failed) any nonzero
/// entry is a message that was sent but never received — a protocol leak.
#[cfg(feature = "sanitize")]
pub mod sanitize {
    use super::{COLLECTIVE_TAGS, TAG_BANDS};
    use std::collections::BTreeMap;
    use std::sync::{Mutex, PoisonError};

    /// In-flight message ledger keyed by `(src, dst, wire_tag)`.
    #[derive(Default)]
    pub struct MsgTracker {
        in_flight: Mutex<BTreeMap<(usize, usize, u64), u64>>,
    }

    impl MsgTracker {
        /// Record a message handed to the destination channel.
        pub fn record(&self, src: usize, dst: usize, wire_tag: u64) {
            let mut map = self
                .in_flight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *map.entry((src, dst, wire_tag)).or_insert(0) += 1;
        }

        /// Record a message delivered to its receiver.
        pub fn deliver(&self, src: usize, dst: usize, wire_tag: u64) {
            let mut map = self
                .in_flight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(n) = map.get_mut(&(src, dst, wire_tag)) {
                *n -= 1;
                if *n == 0 {
                    map.remove(&(src, dst, wire_tag));
                }
            }
        }

        /// Panic if any recorded message was never delivered. Called at
        /// clean shutdown only — ranks that failed (kill/timeout) leave
        /// legitimately undeliverable messages behind.
        pub fn assert_drained(&self) {
            let map = self
                .in_flight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let leaks: Vec<String> = map
                .iter()
                .map(|(&(src, dst, tag), &n)| {
                    format!("{n} message(s) {src} -> {dst} wire_tag {tag:#x}")
                })
                .collect();
            assert!(
                leaks.is_empty(),
                "comm sanitizer: {} leaked message(s) at clean shutdown:\n  {}",
                leaks.len(),
                leaks.join("\n  ")
            );
        }

        /// Assert that a collective-range wire tag belongs to a band of
        /// [`TAG_BANDS`]: the run-time check that catches a collective
        /// whose band was left out of the registry rustc checks.
        pub fn assert_tag_registered(wire_tag: u64) {
            if wire_tag < COLLECTIVE_TAGS.0 {
                return; // point-to-point tag space, unregistered by design
            }
            assert!(
                TAG_BANDS.iter().any(|b| b.contains_wire(wire_tag)),
                "comm sanitizer: collective wire tag {wire_tag:#x} is outside every registered TagBand"
            );
        }
    }
}

/// Shared byte/message counters for a cluster run.
///
/// Every hop of every primitive — point-to-point sends, barrier
/// control messages, and each leg of the collectives — passes through
/// [`ThreadComm::send_bytes`], so `bytes_sent` is the exact payload volume
/// that crossed the wire. Floating-point payloads are additionally broken
/// down by wire precision (`bytes_fp64` / `bytes_fp32`), which is what
/// makes the paper's "FP32 boundary exchange halves traffic" claim
/// (Sec. 5.4.2) directly measurable. Fault-tolerance events (receive
/// timeouts, injected kills) are tallied alongside.
#[derive(Default)]
pub struct CommStats {
    /// Debug-build message-leak tracker (`sanitize` feature only).
    #[cfg(feature = "sanitize")]
    pub tracker: sanitize::MsgTracker,
    /// Total payload bytes sent by all ranks (point-to-point + collectives).
    pub bytes_sent: AtomicU64,
    /// Total messages sent.
    pub messages: AtomicU64,
    /// Payload bytes sent as FP64 floating-point data.
    pub bytes_fp64: AtomicU64,
    /// Payload bytes sent as FP32 (demoted) floating-point data.
    pub bytes_fp32: AtomicU64,
    /// Nanoseconds spent waiting (polling or blocking) for ghost-exchange
    /// payloads that had not yet arrived — the paper's "data movement
    /// exposed on the critical path". Cross-iteration overlap posts sends
    /// earlier, which shows up here as a smaller wait at fixed byte volume.
    pub ghost_wait_nanos: AtomicU64,
    /// Receives that expired at their deadline.
    pub timeouts: AtomicU64,
    /// Ranks killed by fault injection.
    pub kills: AtomicU64,
}

impl CommStats {
    /// Snapshot of `(bytes_sent, messages, bytes_fp64, bytes_fp32)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.messages.load(Ordering::Relaxed),
            self.bytes_fp64.load(Ordering::Relaxed),
            self.bytes_fp32.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the fault counters `(timeouts, kills)`.
    // dftlint:allow(L009, reason="fault accounting of dft-core/tests/fault_tolerance.rs")
    pub fn fault_snapshot(&self) -> (u64, u64) {
        (
            self.timeouts.load(Ordering::Relaxed),
            self.kills.load(Ordering::Relaxed),
        )
    }
}

/// How the root of a collective folds one member's payload into its own.
type Fold<'a> = &'a mut dyn FnMut(&mut Vec<f64>, Vec<f64>);

/// One rank's endpoint in a threaded cluster.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    pending: VecDeque<Packet>,
    stats: Arc<CommStats>,
    timeout: Duration,
    faults: Arc<FaultPlan>,
    /// Per kill rule: matching sends seen so far (rule fires when the count
    /// passes `after_matches`).
    kill_hits: Vec<u64>,
    /// Application-declared epoch (e.g. SCF iteration), advanced via
    /// [`Self::advance_epoch`]; arms epoch-gated kill rules.
    epoch: u64,
    /// First failure observed; once set, every operation short-circuits.
    failed: Option<CommError>,
    /// Schedule-exploration state: seeded send delays and pending-queue
    /// permutation (`None` in production runs).
    sched: Option<SchedState>,
}

impl ThreadComm {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Shared traffic statistics.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The receive deadline applied to blocking operations.
    #[inline]
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The failure that poisoned this communicator, if any.
    #[inline]
    pub fn failure(&self) -> Option<CommError> {
        self.failed
    }

    /// Poison the communicator: every subsequent operation returns the
    /// first recorded error immediately (no waiting, no sending), so a
    /// detected failure cascades through the cluster in bounded time.
    pub fn fail(&mut self, err: CommError) {
        if self.failed.is_none() {
            match err {
                CommError::Timeout { .. } => {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                CommError::Killed { .. } => {
                    self.stats.kills.fetch_add(1, Ordering::Relaxed);
                }
                CommError::PeerGone { .. } => {}
            }
            self.failed = Some(err);
        }
    }

    /// [`Self::fail`] with `err` and return it as the operation's error.
    fn poison<T>(&mut self, err: CommError) -> Result<T, CommError> {
        self.fail(err);
        Err(err)
    }

    #[inline]
    fn check(&self) -> Result<(), CommError> {
        match self.failed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Advance the application epoch (e.g. call once per SCF iteration).
    /// Fires epoch-gated kill rules with no tag filter, so "kill rank R at
    /// iteration K" happens at a precisely reproducible point.
    pub fn advance_epoch(&mut self) -> Result<(), CommError> {
        self.epoch += 1;
        let faults = Arc::clone(&self.faults);
        for rule in &faults.kills {
            if rule.rank == self.rank && rule.tags.is_none() && self.epoch >= rule.epoch {
                self.fail(CommError::Killed { rank: self.rank });
            }
        }
        self.check()
    }

    /// Evaluate tag-gated kill rules for a send carrying `wire_tag`.
    /// Returns the kill error if a rule fires.
    fn fault_on_send(&mut self, wire_tag: u64) -> Result<(), CommError> {
        if self.faults.kills.is_empty() {
            return Ok(());
        }
        let faults = Arc::clone(&self.faults);
        for (i, rule) in faults.kills.iter().enumerate() {
            if rule.rank != self.rank || self.epoch < rule.epoch {
                continue;
            }
            if let Some((lo, hi)) = rule.tags {
                if wire_tag >= lo && wire_tag < hi {
                    let hit = self.kill_hits[i];
                    self.kill_hits[i] = hit + 1;
                    if hit >= rule.after_matches {
                        self.fail(CommError::Killed { rank: self.rank });
                        return self.check();
                    }
                }
            }
        }
        Ok(())
    }

    /// Send raw bytes to `dst` with a user `tag`. Fails fast on a poisoned
    /// communicator or a fired kill rule; [`CommError::PeerGone`] if the
    /// destination channel is disconnected.
    pub fn send_bytes(&mut self, dst: usize, tag: u64, data: Vec<u8>) -> Result<(), CommError> {
        self.check()?;
        self.fault_on_send(tag)?;
        if let Some(s) = self.sched.as_mut() {
            if let Some(d) = s.delay_for(tag) {
                std::thread::sleep(d);
            }
        }
        #[cfg(feature = "sanitize")]
        sanitize::MsgTracker::assert_tag_registered(tag);
        self.stats
            .bytes_sent
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        // record before the channel send: once the packet is in the
        // channel the receiver may deliver (and decrement) it immediately
        #[cfg(feature = "sanitize")]
        self.stats.tracker.record(self.rank, dst, tag);
        if self.senders[dst]
            .send(Packet {
                src: self.rank,
                tag,
                data,
            })
            .is_err()
        {
            #[cfg(feature = "sanitize")]
            self.stats.tracker.deliver(self.rank, dst, tag); // undo: nothing was sent
            return self.poison(CommError::PeerGone { peer: dst });
        }
        Ok(())
    }

    /// Stash a drained non-matching packet in the pending queue. Without a
    /// schedule plan this is a plain FIFO append; under exploration the
    /// packet lands at a seeded position among *other* `(src, tag)`
    /// streams — but never ahead of an earlier packet of its own stream,
    /// so the MPI non-overtaking rule holds under every explored schedule.
    fn stash(&mut self, p: Packet) {
        let Some(s) = self.sched.as_mut() else {
            self.pending.push_back(p);
            return;
        };
        let floor = self
            .pending
            .iter()
            .rposition(|q| q.src == p.src && q.tag == p.tag)
            .map_or(0, |i| i + 1);
        let slot = s.insert_slot(floor, self.pending.len());
        self.pending.insert(slot, p);
    }

    /// Pop the first buffered packet matching `(src, tag)`, preserving the
    /// arrival (FIFO) order of any same-`(src, tag)` messages behind it.
    fn take_pending(&mut self, src: usize, tag: u64) -> Option<Vec<u8>> {
        let pos = self
            .pending
            .iter()
            .position(|p| p.src == src && p.tag == tag)?;
        let p = self.pending.remove(pos)?;
        #[cfg(feature = "sanitize")]
        self.stats.tracker.deliver(p.src, self.rank, p.tag);
        Some(p.data)
    }

    /// Blocking receive of a message from `src` with `tag` against the
    /// communicator's default deadline (out-of-order arrivals are
    /// buffered). On expiry the communicator is poisoned and
    /// [`CommError::Timeout`] is returned — there is no infinite wait.
    pub fn recv_bytes(&mut self, src: usize, tag: u64) -> Result<Vec<u8>, CommError> {
        let deadline = Instant::now() + self.timeout;
        self.recv_bytes_deadline(src, tag, deadline)
    }

    /// [`Self::recv_bytes`] against an explicit deadline — collectives pass
    /// one shared deadline through all their receive legs. Packets drained
    /// while scanning for the tag are stashed in the pending queue and
    /// survive the error path (nothing is ever dropped).
    pub fn recv_bytes_deadline(
        &mut self,
        src: usize,
        tag: u64,
        deadline: Instant,
    ) -> Result<Vec<u8>, CommError> {
        self.check()?;
        if let Some(data) = self.take_pending(src, tag) {
            return Ok(data);
        }
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let e = match self.receiver.recv_timeout(left) {
                Ok(p) if p.src == src && p.tag == tag => {
                    #[cfg(feature = "sanitize")]
                    self.stats.tracker.deliver(p.src, self.rank, p.tag);
                    return Ok(p.data);
                }
                Ok(p) => {
                    self.stash(p);
                    continue;
                }
                Err(RecvTimeoutError::Timeout) => CommError::Timeout { src, tag },
                Err(RecvTimeoutError::Disconnected) => CommError::PeerGone { peer: src },
            };
            return self.poison(e);
        }
    }

    /// Nonblocking receive: drain everything that has already arrived into
    /// the pending queue and return the first match for `(src, tag)` if one
    /// is there, `Ok(None)` otherwise. The counterpart of
    /// [`Self::send_f64`] for comm/compute overlap — poll between
    /// interior-compute chunks. Already-stashed packets are checked before
    /// any error is raised, so a disconnect never drops buffered messages.
    pub fn try_recv_bytes(&mut self, src: usize, tag: u64) -> Result<Option<Vec<u8>>, CommError> {
        self.check()?;
        let disconnected = loop {
            match self.receiver.try_recv() {
                Ok(p) => self.stash(p),
                Err(TryRecvError::Empty) => break false,
                Err(TryRecvError::Disconnected) => break true,
            }
        };
        // serve from the stash first: a message that already arrived must
        // be delivered even if the channel has since disconnected
        if let Some(data) = self.take_pending(src, tag) {
            return Ok(Some(data));
        }
        if disconnected {
            return self.poison(CommError::PeerGone { peer: src });
        }
        Ok(None)
    }

    fn decode_f64(bytes: &[u8], wire: WirePrecision) -> Vec<f64> {
        match wire {
            WirePrecision::Fp64 => bytes
                .chunks_exact(8)
                // dftlint:allow(L001, reason="chunks_exact(8) guarantees 8-byte slices; try_into cannot fail")
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
            WirePrecision::Fp32 => bytes
                .chunks_exact(4)
                // dftlint:allow(L001, reason="chunks_exact(4) guarantees 4-byte slices; try_into cannot fail")
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()) as f64)
                .collect(),
        }
    }

    /// Send an `f64` slice, demoting to the requested wire precision. The
    /// channel transport is buffered, so posting the send never waits on the
    /// receiver: post boundary sends first, overlap interior compute, then
    /// harvest with [`Self::try_recv_f64`] / [`Self::recv_f64`].
    pub fn send_f64(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f64],
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        let mut bytes = Vec::with_capacity(data.len() * wire.bytes());
        let counter = match wire {
            WirePrecision::Fp64 => {
                for v in data {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                &self.stats.bytes_fp64
            }
            WirePrecision::Fp32 => {
                for v in data {
                    bytes.extend_from_slice(&(*v as f32).to_le_bytes());
                }
                &self.stats.bytes_fp32
            }
        };
        counter.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.send_bytes(dst, wire.encode_tag(tag), bytes)
    }

    /// Receive an `f64` slice sent with [`Self::send_f64`] (promoting FP32
    /// payloads back to FP64).
    pub fn recv_f64(
        &mut self,
        src: usize,
        tag: u64,
        wire: WirePrecision,
    ) -> Result<Vec<f64>, CommError> {
        let bytes = self.recv_bytes(src, wire.encode_tag(tag))?;
        Ok(Self::decode_f64(&bytes, wire))
    }

    /// [`Self::recv_f64`] against an explicit deadline.
    pub fn recv_f64_deadline(
        &mut self,
        src: usize,
        tag: u64,
        wire: WirePrecision,
        deadline: Instant,
    ) -> Result<Vec<f64>, CommError> {
        let bytes = self.recv_bytes_deadline(src, wire.encode_tag(tag), deadline)?;
        Ok(Self::decode_f64(&bytes, wire))
    }

    /// Nonblocking variant of [`Self::recv_f64`]: `Ok(None)` if the message
    /// has not arrived yet.
    pub fn try_recv_f64(
        &mut self,
        src: usize,
        tag: u64,
        wire: WirePrecision,
    ) -> Result<Option<Vec<f64>>, CommError> {
        Ok(self
            .try_recv_bytes(src, wire.encode_tag(tag))?
            .map(|b| Self::decode_f64(&b, wire)))
    }

    /// The one rooted collective; every public collective is a call of it.
    /// Each non-root member sends `mine` to the root `members[0]`, which
    /// receives in member order and `fold`s every contribution into its own
    /// payload (`fold: None` skips the gather leg: a broadcast), returns the
    /// result to every member and keeps what they decode
    /// ([`WirePrecision::delivered`]), so all members end with identical
    /// bits on a lossy wire too. Every message travels on the tag
    /// `band.for_rank(sender)`, so disjoint groups, and a collective's two
    /// directions, never collide on one `(src, dst)` pair, and a collective
    /// cannot leave its one band.
    /// One deadline covers all receive legs, and a failed leg has already
    /// poisoned the communicator when it returns. A single member is its
    /// own result: it sends nothing, and `None` tells the caller that
    /// `mine` already holds the result, so nothing is copied.
    fn rooted(
        &mut self,
        members: &[usize],
        band: TagBand,
        mine: &[f64],
        wire: WirePrecision,
        fold: Option<Fold<'_>>,
    ) -> Result<Option<Vec<f64>>, CommError> {
        self.check()?;
        let (root, peers) = match members.split_first() {
            Some((&root, peers)) if !peers.is_empty() => (root, peers),
            _ => return Ok(None),
        };
        let deadline = Instant::now() + self.timeout;
        if self.rank != root {
            if fold.is_some() {
                self.send_f64(root, band.for_rank(self.rank), mine, wire)?;
            }
            return self
                .recv_f64_deadline(root, band.for_rank(root), wire, deadline)
                .map(Some);
        }
        let mut acc = mine.to_vec();
        if let Some(fold) = fold {
            for &m in peers {
                let got = self.recv_f64_deadline(m, band.for_rank(m), wire, deadline)?;
                fold(&mut acc, got);
            }
        }
        for &m in peers {
            self.send_f64(m, band.for_rank(root), &acc, wire)?;
        }
        for a in &mut acc {
            *a = wire.delivered(*a);
        }
        Ok(Some(acc))
    }

    /// Every rank: the world is the group `0..size`, rooted at rank 0.
    fn world(&self) -> Vec<usize> {
        (0..self.size).collect()
    }

    /// Barrier across all ranks: the empty payload, gathered and returned.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let fold = &mut |_: &mut Vec<f64>, _| {};
        let world = self.world();
        self.rooted(&world, BARRIER_BAND, &[], WirePrecision::Fp64, Some(fold))?;
        Ok(())
    }

    /// In-place allreduce(sum) over `f64` buffers, with selectable wire
    /// precision. The root accumulates in rank order, always in FP64
    /// (the paper's "FP32 wire, FP64 math" scheme).
    pub fn allreduce_sum_f64(
        &mut self,
        data: &mut [f64],
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        let sum = &mut zip_with(|a, c| a + c);
        if let Some(out) = self.rooted(&self.world(), ALLREDUCE_BAND, data, wire, Some(sum))? {
            data.copy_from_slice(&out);
        }
        Ok(())
    }

    /// Allreduce(max) of one small unsigned counter — the control-plane
    /// consensus primitive behind cooperative preemption: every rank
    /// contributes its local view of a flag/epoch and all ranks agree on
    /// the maximum, so a signal observed by *any* rank mid-iteration
    /// becomes a decision taken by *every* rank at the same iteration.
    /// Values must stay below 2^53 (they ride the FP64 wire exactly);
    /// preemption flags and iteration counters are far below that. Uses
    /// the dedicated [`PREEMPT_BAND`].
    pub fn allreduce_max_u64(&mut self, v: u64) -> Result<u64, CommError> {
        // dftlint:allow(L003, reason="2^53 is the exact-f64 range bound of the payload, not a wire tag")
        debug_assert!(v < (1 << 53), "control counter exceeds exact f64 range");
        // max of non-negative integers is exact in f64
        let max = &mut zip_with(f64::max);
        let mine = [v as f64];
        let world = self.world();
        let out = self.rooted(&world, PREEMPT_BAND, &mine, WirePrecision::Fp64, Some(max))?;
        Ok(out.and_then(|o| o.first().copied()).map_or(v, |m| m as u64))
    }

    /// In-place allreduce(sum) over the communicator sub-group `members`
    /// (ascending global ranks; must contain `self.rank`): contributions
    /// are accumulated in member order at `members[0]`, always in FP64
    /// regardless of the wire precision. Disjoint groups (process-grid rows
    /// or columns) may call this concurrently on the shared
    /// [`GROUP_REDUCE_BAND`].
    pub fn group_allreduce_sum_f64(
        &mut self,
        members: &[usize],
        data: &mut [f64],
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        let sum = &mut zip_with(|a, c| a + c);
        if let Some(out) = self.rooted(members, GROUP_REDUCE_BAND, data, wire, Some(sum))? {
            data.copy_from_slice(&out);
        }
        Ok(())
    }

    /// Allgather of variable-length `f64` blocks over the sub-group
    /// `members`: returns every member's block in member order, on every
    /// member. The root's payload is the return frame `[n, len_0.., block_0..]`
    /// with its own block in place; the fold appends each member's block and
    /// writes its length (block counts and lengths are far below 2^24, so
    /// they survive an FP32 wire exactly).
    pub fn group_allgather_f64(
        &mut self,
        members: &[usize],
        mine: &[f64],
        wire: WirePrecision,
    ) -> Result<Vec<Vec<f64>>, CommError> {
        let (n, root) = (members.len(), members.first().map_or(self.rank, |&r| r));
        let mut payload = Vec::with_capacity(1 + n + mine.len());
        if root == self.rank {
            payload.extend([n as f64, mine.len() as f64]);
            payload.resize(1 + n, 0.0);
        }
        payload.extend_from_slice(mine);
        let mut slot = 1;
        let fold = &mut |frame: &mut Vec<f64>, block: Vec<f64>| {
            slot += 1;
            frame[slot] = block.len() as f64;
            frame.extend(block);
        };
        let frame = self.rooted(members, GROUP_ASSEMBLE_BAND, &payload, wire, Some(fold))?;
        unframe(frame.as_deref().unwrap_or(&payload))
            .map_or_else(|| self.poison(CommError::PeerGone { peer: root }), Ok)
    }

    /// Broadcast from the sub-group root `members[0]` to the other members
    /// (an FP32 wire rounds the root's copy like everyone else's).
    /// Concurrent broadcasts from distinct roots (one per k-point group)
    /// share [`KGROUP_BAND`].
    pub fn group_broadcast_f64(
        &mut self,
        members: &[usize],
        data: &mut [f64],
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        if let Some(got) = self.rooted(members, KGROUP_BAND, data, wire, None)? {
            data.copy_from_slice(&got);
        }
        Ok(())
    }
}

/// The element-wise fold of an allreduce: FP64, in member order.
fn zip_with(f: impl Fn(f64, f64) -> f64) -> impl FnMut(&mut Vec<f64>, Vec<f64>) {
    move |acc, got| {
        for (a, c) in acc.iter_mut().zip(got) {
            *a = f(*a, c);
        }
    }
}

/// Split an allgather frame `[n, len_0.., blocks..]` into its blocks;
/// `None` if the lengths do not fit the frame.
fn unframe(frame: &[f64]) -> Option<Vec<Vec<f64>>> {
    let (&n, body) = frame.split_first()?;
    let (lens, mut rest) = body.split_at_checked(n as usize)?;
    lens.iter()
        .map(|&len| {
            let (block, tail) = rest.split_at_checked(len as usize)?;
            rest = tail;
            Some(block.to_vec())
        })
        .collect()
}

/// Run `f` on `n` ranks (threads; one rank runs on the calling thread) and
/// collect the per-rank results in rank order. Returns the results and the
/// shared traffic statistics. Each rank runs on its share of the launching
/// thread's budget: spawned ranks under a cap of `max(1, threads / n)`, a
/// solo rank under its caller's own cap ([`crate::threads`]).
/// Fault-free, with the default (generous) receive deadline; see
/// [`run_cluster_with`] for timeouts and fault injection.
pub fn run_cluster<T, F>(n: usize, f: F) -> (Vec<T>, Arc<CommStats>)
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Send + Sync,
{
    run_cluster_with(n, &ClusterOptions::default(), f)
}

/// [`run_cluster`] with explicit [`ClusterOptions`]: a receive deadline for
/// every blocking operation and a deterministic [`FaultPlan`].
pub fn run_cluster_with<T, F>(n: usize, opts: &ClusterOptions, f: F) -> (Vec<T>, Arc<CommStats>)
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Send + Sync,
{
    assert!(
        n >= 1 && n as u64 <= MAX_RANKS,
        "cluster size exceeds MAX_RANKS"
    );
    let stats = Arc::new(CommStats::default());
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let mut comms: Vec<ThreadComm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| ThreadComm {
            rank,
            size: n,
            senders: senders.clone(),
            receiver,
            pending: VecDeque::new(),
            stats: Arc::clone(&stats),
            timeout: opts.timeout,
            faults: Arc::clone(&opts.faults),
            kill_hits: vec![0; opts.faults.kills.len()],
            epoch: 0,
            failed: None,
            sched: opts
                .schedule
                .as_ref()
                .map(|plan| SchedState::for_rank(plan, rank)),
        })
        .collect();
    drop(senders);

    let results: Vec<T> = match comms.as_mut_slice() {
        // no spawn: the caller's thread cap and thread-locals reach the rank
        [solo] => vec![f(solo)],
        _ => std::thread::scope(|scope| {
            // a rank thread is a new thread and would plan for the whole pool
            let share = rayon::current_num_threads() / n;
            let f = &f;
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|c| scope.spawn(move || with_threads(share, || f(c))))
                .collect();
            handles
                .into_iter()
                // dftlint:allow(L001, reason="re-raise a rank thread's panic on the driver; rank panics are bugs, not recoverable comm faults")
                .map(|h| h.join().unwrap())
                .collect()
        }),
    };
    // leak check only on clean shutdown: a failed rank (kill/timeout)
    // legitimately strands messages addressed to it
    #[cfg(feature = "sanitize")]
    if comms.iter().all(|c| c.failed.is_none()) {
        stats.tracker.assert_drained();
    }
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ThreadComm {
        /// Clear a recorded failure, to go on after a deliberate fault.
        fn clear_failure(&mut self) {
            self.failed = None;
        }
    }

    #[test]
    fn ring_pass_point_to_point() {
        let (results, _) = run_cluster(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send_f64(next, 7, &[c.rank() as f64], WirePrecision::Fp64)
                .unwrap();
            let got = c.recv_f64(prev, 7, WirePrecision::Fp64).unwrap();
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let (results, _) = run_cluster(5, |c| {
            let mut v = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut v, WirePrecision::Fp64).unwrap();
            v
        });
        for r in results {
            assert_eq!(r, vec![10.0, 5.0]);
        }
    }

    /// The preemption-consensus primitive: every rank learns the maximum
    /// contributed value, including a flag raised by a single rank.
    #[test]
    fn allreduce_max_agrees_on_the_maximum() {
        let (results, _) = run_cluster(5, |c| {
            let flag = u64::from(c.rank() == 3) * 7;
            c.allreduce_max_u64(flag).unwrap()
        });
        for r in results {
            assert_eq!(r, 7);
        }
        // all-zero flags stay zero, and a single rank degenerates cleanly
        let (results, _) = run_cluster(4, |c| c.allreduce_max_u64(0).unwrap());
        assert!(results.iter().all(|&r| r == 0));
        let (results, _) = run_cluster(1, |c| c.allreduce_max_u64(9).unwrap());
        assert_eq!(results, vec![9]);
    }

    #[test]
    fn fp32_wire_halves_traffic() {
        let payload: Vec<f64> = (0..1000).map(|i| i as f64 * 0.001).collect();
        let (_, stats64) = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 1, &payload, WirePrecision::Fp64).unwrap();
            } else {
                let _ = c.recv_f64(0, 1, WirePrecision::Fp64).unwrap();
            }
        });
        let (_, stats32) = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 1, &payload, WirePrecision::Fp32).unwrap();
            } else {
                let _ = c.recv_f64(0, 1, WirePrecision::Fp32).unwrap();
            }
        });
        let b64 = stats64.bytes_sent.load(Ordering::Relaxed);
        let b32 = stats32.bytes_sent.load(Ordering::Relaxed);
        assert_eq!(b64, 8000);
        assert_eq!(b32, 4000);
    }

    #[test]
    fn fp32_wire_retains_small_relative_error() {
        let payload: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let (results, _) = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 2, &payload, WirePrecision::Fp32).unwrap();
                vec![]
            } else {
                c.recv_f64(0, 2, WirePrecision::Fp32).unwrap()
            }
        });
        let got = &results[1];
        for (a, b) in payload.iter().zip(got.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn allreduce_fp32_wire_accumulates_in_fp64() {
        // each rank contributes 1e-3; with 8 ranks the FP64 accumulation
        // keeps full precision even if each wire hop rounds to FP32
        let (results, _) = run_cluster(8, |c| {
            let mut v = vec![1e-3];
            c.allreduce_sum_f64(&mut v, WirePrecision::Fp32).unwrap();
            v[0]
        });
        for r in &results {
            assert!((r - 8e-3).abs() < 1e-8);
        }
        // the root holds what it sent, as its peers decoded it
        assert!(results.iter().all(|r| r.to_bits() == results[0].to_bits()));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::AtomicUsize;
        let phase1 = Arc::new(AtomicUsize::new(0));
        let p1 = Arc::clone(&phase1);
        let (results, _) = run_cluster(4, move |c| {
            p1.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // after the barrier every rank must observe all increments
            p1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 4));
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let (results, _) = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 100, &[1.0], WirePrecision::Fp64).unwrap();
                c.send_f64(1, 200, &[2.0], WirePrecision::Fp64).unwrap();
                0.0
            } else {
                // receive in reverse order
                let b = c.recv_f64(0, 200, WirePrecision::Fp64).unwrap()[0];
                let a = c.recv_f64(0, 100, WirePrecision::Fp64).unwrap()[0];
                a + 10.0 * b
            }
        });
        assert_eq!(results[1], 21.0);
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let (results, _) = run_cluster(1, |c| {
            let mut v = vec![3.5];
            c.allreduce_sum_f64(&mut v, WirePrecision::Fp64).unwrap();
            c.barrier().unwrap();
            v[0]
        });
        assert_eq!(results[0], 3.5);
    }

    /// Satellite: the FP32 allreduce must record exactly half the payload
    /// bytes of the FP64 one — every hop of the collective carries only
    /// payload, demoted uniformly.
    #[test]
    fn fp32_allreduce_records_exactly_half_fp64_payload_bytes() {
        let n = 4;
        let run = |wire: WirePrecision| {
            let (_, stats) = run_cluster(n, move |c| {
                let mut v = vec![c.rank() as f64 + 0.25; 257];
                c.allreduce_sum_f64(&mut v, wire).unwrap();
            });
            stats.snapshot()
        };
        let (b64, m64, fp64_64, fp32_64) = run(WirePrecision::Fp64);
        let (b32, m32, fp64_32, fp32_32) = run(WirePrecision::Fp32);
        // same hop count, half the bytes, and precision counters agree
        assert_eq!(m64, m32);
        assert_eq!(2 * b32, b64, "fp32 allreduce must move half the bytes");
        assert_eq!(fp64_64, b64);
        assert_eq!(fp32_64, 0);
        assert_eq!(fp32_32, b32);
        assert_eq!(fp64_32, 0);
        // 2*(n-1) hops of 257 scalars each
        assert_eq!(b64, (2 * (n as u64 - 1)) * 257 * 8);
    }

    /// Satellite: interleaved *distinct* tags flowing both directions, with
    /// each side receiving in a permuted order, so every receive but the
    /// first goes through the pending-queue path.
    #[test]
    fn interleaved_distinct_tags_both_directions() {
        let (results, _) = run_cluster(2, |c| {
            let peer = 1 - c.rank();
            let base = (c.rank() as f64 + 1.0) * 100.0;
            for (i, tag) in [11u64, 22, 33, 44].iter().enumerate() {
                c.send_f64(peer, *tag, &[base + i as f64], WirePrecision::Fp64)
                    .unwrap();
            }
            // harvest in an order disjoint from the send order
            let d = c.recv_f64(peer, 44, WirePrecision::Fp64).unwrap()[0];
            let b = c.recv_f64(peer, 22, WirePrecision::Fp64).unwrap()[0];
            let a = c.recv_f64(peer, 11, WirePrecision::Fp64).unwrap()[0];
            let cc = c.recv_f64(peer, 33, WirePrecision::Fp64).unwrap()[0];
            (a, b, cc, d)
        });
        let expect = |base: f64| (base, base + 1.0, base + 2.0, base + 3.0);
        assert_eq!(results[0], expect(200.0));
        assert_eq!(results[1], expect(100.0));
    }

    /// Repeated messages on the same `(src, tag)` must pop in send (FIFO)
    /// order even when an unrelated tag is buffered ahead of them.
    #[test]
    fn same_tag_messages_preserve_fifo_order() {
        let (results, _) = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 9, &[-1.0], WirePrecision::Fp64).unwrap(); // decoy tag
                for i in 0..4 {
                    c.send_f64(1, 5, &[i as f64], WirePrecision::Fp64).unwrap();
                }
                vec![]
            } else {
                let seq: Vec<f64> = (0..4)
                    .map(|_| c.recv_f64(0, 5, WirePrecision::Fp64).unwrap()[0])
                    .collect();
                let decoy = c.recv_f64(0, 9, WirePrecision::Fp64).unwrap()[0];
                assert_eq!(decoy, -1.0);
                seq
            }
        });
        assert_eq!(results[1], vec![0.0, 1.0, 2.0, 3.0]);
    }

    /// send/try_recv contract: `try_recv_f64` returns `None` before the
    /// message is posted and `Some` after, without ever blocking.
    #[test]
    fn isend_try_recv_roundtrip() {
        let (results, _) = run_cluster(2, |c| {
            if c.rank() == 0 {
                // nothing posted yet on tag 77 from rank 1
                let early = c.try_recv_f64(1, 77, WirePrecision::Fp32).unwrap();
                assert!(early.is_none());
                c.barrier().unwrap(); // rank 1 holds its send until here
                c.barrier().unwrap(); // rank 1 posts its send before this barrier
                loop {
                    if let Some(v) = c.try_recv_f64(1, 77, WirePrecision::Fp32).unwrap() {
                        return v[0];
                    }
                    std::hint::spin_loop();
                }
            } else {
                c.barrier().unwrap();
                c.send_f64(0, 77, &[6.5], WirePrecision::Fp32).unwrap();
                c.barrier().unwrap();
                6.5
            }
        });
        assert_eq!(results, vec![6.5, 6.5]);
    }

    /// A send and receive naming different wire precisions must not pair up:
    /// the precision is part of the wire tag.
    #[test]
    fn wire_precision_is_part_of_the_match() {
        let (results, _) = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 3, &[1.0], WirePrecision::Fp32).unwrap();
                c.send_f64(1, 3, &[2.0], WirePrecision::Fp64).unwrap();
                0.0
            } else {
                // ask for the FP64 message first: the FP32 one must not match
                let v64 = c.recv_f64(0, 3, WirePrecision::Fp64).unwrap()[0];
                let v32 = c.recv_f64(0, 3, WirePrecision::Fp32).unwrap()[0];
                10.0 * v64 + v32
            }
        });
        assert_eq!(results[1], 21.0);
    }

    // -----------------------------------------------------------------
    // Fault tolerance: deadlines, poisoning, and fault injection
    // -----------------------------------------------------------------

    /// A receive with no sender expires at its deadline with a typed
    /// timeout instead of blocking forever, and poisons the communicator.
    #[test]
    fn recv_times_out_instead_of_hanging() {
        let opts = ClusterOptions::with_timeout(Duration::from_millis(50));
        let (results, stats) = run_cluster_with(2, &opts, |c| {
            if c.rank() == 0 {
                let t0 = Instant::now();
                let err = c.recv_f64(1, 42, WirePrecision::Fp64).unwrap_err();
                let waited = t0.elapsed();
                assert!(
                    matches!(err, CommError::Timeout { src: 1, .. }),
                    "unexpected error {err:?}"
                );
                assert!(waited < Duration::from_secs(5), "waited {waited:?}");
                // poisoned: the next operation short-circuits with the
                // original error, without waiting again
                let t1 = Instant::now();
                let err2 = c.recv_f64(1, 43, WirePrecision::Fp64).unwrap_err();
                assert_eq!(err, err2);
                assert!(t1.elapsed() < Duration::from_millis(40));
                1.0
            } else {
                // rank 1 sends nothing and exits
                0.0
            }
        });
        assert_eq!(results, vec![1.0, 0.0]);
        assert!(stats.fault_snapshot().0 >= 1, "timeout not counted");
    }

    /// Messages stashed while scanning for another tag must survive a
    /// subsequent timeout: the error path never drops buffered packets.
    #[test]
    fn pending_messages_survive_the_timeout_error_path() {
        let opts = ClusterOptions::with_timeout(Duration::from_millis(50));
        let (results, _) = run_cluster_with(2, &opts, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 7, &[3.25], WirePrecision::Fp64).unwrap();
                c.barrier().unwrap();
                0.0
            } else {
                c.barrier().unwrap(); // tag-7 message has arrived by now
                                      // wait for a message that never comes; the tag-7 packet is
                                      // drained into the pending queue along the way
                let err = c.recv_f64(0, 9, WirePrecision::Fp64).unwrap_err();
                assert!(matches!(err, CommError::Timeout { .. }));
                // the stashed message is still deliverable after clearing
                c.clear_failure();
                c.recv_f64(0, 7, WirePrecision::Fp64).unwrap()[0]
            }
        });
        assert_eq!(results[1], 3.25);
    }

    /// try_recv on a disconnected channel: already-arrived packets are
    /// served from the stash before PeerGone is raised.
    #[test]
    fn try_recv_serves_stash_before_peer_gone() {
        let stats = Arc::new(CommStats::default());
        let (s0, r0) = unbounded();
        let (s1, r1) = unbounded();
        let mk = |rank: usize, receiver, senders: Vec<Sender<Packet>>| ThreadComm {
            rank,
            size: 2,
            senders,
            receiver,
            pending: VecDeque::new(),
            stats: Arc::clone(&stats),
            timeout: Duration::from_millis(50),
            faults: Arc::new(FaultPlan::default()),
            kill_hits: Vec::new(),
            epoch: 0,
            failed: None,
            sched: None,
        };
        // rank 1 holds no sender clone of rank 0's channel -> dropping
        // rank 1 disconnects rank 0's receiver entirely
        let mut c0 = mk(0, r0, vec![s0.clone(), s1.clone()]);
        let mut c1 = mk(1, r1, vec![s0, s1]);
        c1.send_f64(0, 5, &[1.5], WirePrecision::Fp64).unwrap();
        drop(c1);
        drop(c0.senders.remove(0)); // drop rank 0's own sender clone too
                                    // the in-flight message is still delivered...
        let got = c0.try_recv_f64(1, 5, WirePrecision::Fp64).unwrap();
        assert_eq!(got, Some(vec![1.5]));
        // ...and only then does the dead channel surface as PeerGone
        let err = c0.try_recv_f64(1, 5, WirePrecision::Fp64).unwrap_err();
        assert!(matches!(err, CommError::PeerGone { peer: 1 }));
        // blocking receive on the same dead channel: PeerGone, not a hang
        c0.clear_failure();
        let err = c0.recv_f64(1, 6, WirePrecision::Fp64).unwrap_err();
        assert!(matches!(err, CommError::PeerGone { peer: 1 }));
    }

    /// Epoch-gated kill: the victim dies exactly at `advance_epoch(K)`;
    /// the survivor's collective times out rather than deadlocking.
    #[test]
    fn epoch_kill_is_deterministic_and_survivor_times_out() {
        let mut opts = ClusterOptions::with_timeout(Duration::from_millis(80));
        opts.faults = Arc::new(FaultPlan::kill_at_epoch(1, 3));
        let (results, stats) = run_cluster_with(2, &opts, |c| {
            for epoch in 1..=5u64 {
                if let Err(e) = c.advance_epoch() {
                    assert!(matches!(e, CommError::Killed { rank: 1 }));
                    assert_eq!(epoch, 3, "killed at wrong epoch");
                    return format!("killed@{epoch}");
                }
                let mut v = vec![1.0];
                if let Err(e) = c.allreduce_sum_f64(&mut v, WirePrecision::Fp64) {
                    assert_eq!(c.rank(), 0, "only the survivor should time out");
                    assert!(matches!(e, CommError::Timeout { .. }), "{e:?}");
                    return format!("lost-peer@{epoch}");
                }
                assert_eq!(v[0], 2.0);
            }
            "completed".to_string()
        });
        assert_eq!(results, vec!["lost-peer@3", "killed@3"]);
        let (timeouts, kills) = stats.fault_snapshot();
        assert_eq!(kills, 1);
        assert!(timeouts >= 1);
    }

    /// Tag-band kill: the victim dies on its n-th collective send.
    #[test]
    fn tag_band_kill_fires_on_nth_matching_send() {
        let mut opts = ClusterOptions::with_timeout(Duration::from_millis(80));
        // rank 1 dies on its second send inside the collective tag band
        opts.faults = Arc::new(FaultPlan::kill_on_send(1, 0, COLLECTIVE_TAGS, 1));
        let (results, _) = run_cluster_with(2, &opts, |c| {
            let mut ok_rounds = 0;
            for _ in 0..4 {
                let mut v = vec![1.0];
                match c.allreduce_sum_f64(&mut v, WirePrecision::Fp64) {
                    Ok(()) => ok_rounds += 1,
                    Err(CommError::Killed { rank }) => {
                        assert_eq!(rank, 1);
                        break;
                    }
                    Err(_) => break,
                }
            }
            ok_rounds
        });
        // one full allreduce succeeds (rank 1's first collective send);
        // the second one kills rank 1 mid-collective and rank 0 times out
        assert_eq!(results[1], 1);
        assert!(results[0] <= 2);
    }

    /// A cluster-wide cascade: one rank killed, every survivor of a
    /// 4-rank collective returns an error within a bounded time.
    #[test]
    fn all_survivors_fail_cleanly_after_one_kill() {
        let timeout = Duration::from_millis(100);
        let mut opts = ClusterOptions::with_timeout(timeout);
        opts.faults = Arc::new(FaultPlan::kill_at_epoch(2, 1));
        let t0 = Instant::now();
        let (results, _) = run_cluster_with(4, &opts, |c| {
            if c.advance_epoch().is_err() {
                return "killed";
            }
            let mut v = vec![c.rank() as f64];
            match c.allreduce_sum_f64(&mut v, WirePrecision::Fp64) {
                Ok(()) => "ok",
                Err(_) => "failed",
            }
        });
        let elapsed = t0.elapsed();
        assert_eq!(results[2], "killed");
        for r in [0usize, 1, 3] {
            assert_eq!(results[r], "failed", "rank {r} did not observe failure");
        }
        // bounded: root waits at most one deadline, non-roots one more
        assert!(
            elapsed < Duration::from_secs(5),
            "cascade took {elapsed:?} (timeout {timeout:?})"
        );
    }

    /// Row groups then column groups of a 2x2 process grid: disjoint
    /// sub-groups share a tag band concurrently, and each axis sums only
    /// its own members.
    #[test]
    fn grid_row_and_column_group_allreduces() {
        let (results, _) = run_cluster(4, |c| {
            // 2x2 grid, dom-fastest: rank = band * 2 + dom
            let dom = c.rank() % 2;
            let band = c.rank() / 2;
            let row: Vec<usize> = vec![band * 2, band * 2 + 1]; // same band, both doms
            let col: Vec<usize> = vec![dom, dom + 2]; // same dom, both bands
            let mut v = vec![c.rank() as f64];
            c.group_allreduce_sum_f64(&row, &mut v, WirePrecision::Fp64)
                .unwrap();
            let mut w = vec![c.rank() as f64];
            c.group_allreduce_sum_f64(&col, &mut w, WirePrecision::Fp64)
                .unwrap();
            (v[0], w[0])
        });
        // rows: {0,1}->1, {2,3}->5; cols: {0,2}->2, {1,3}->4
        assert_eq!(
            results,
            vec![(1.0, 2.0), (1.0, 4.0), (5.0, 2.0), (5.0, 4.0)]
        );
    }

    /// Variable-length block allgather over a sub-group returns blocks in
    /// member order on every member.
    #[test]
    fn group_allgather_assembles_blocks_in_member_order() {
        let (results, _) = run_cluster(4, |c| {
            if c.rank() == 3 {
                return vec![]; // not a member; stays idle
            }
            let members = [0usize, 1, 2];
            let mine: Vec<f64> = (0..=c.rank()).map(|i| (c.rank() * 10 + i) as f64).collect();
            let blocks = c
                .group_allgather_f64(&members, &mine, WirePrecision::Fp64)
                .unwrap();
            blocks.into_iter().flatten().collect::<Vec<f64>>()
        });
        let expect = vec![0.0, 10.0, 11.0, 20.0, 21.0, 22.0];
        for (r, got) in results.iter().take(3).enumerate() {
            assert_eq!(*got, expect, "rank {r}");
        }
    }

    /// Satellite: audited byte accounting for the sub-group collectives —
    /// every hop carries only payload (plus the allgather's small length
    /// frame), and the totals are exact.
    #[test]
    fn group_collective_byte_accounting_is_exact() {
        let len = 10usize;
        let (_, stats) = run_cluster(4, move |c| {
            let dom = c.rank() % 2;
            let band = c.rank() / 2;
            let row = [band * 2, band * 2 + 1];
            let mut v = vec![1.0; len];
            c.group_allreduce_sum_f64(&row, &mut v, WirePrecision::Fp64)
                .unwrap();
            // band-axis assembly: columns gathered within each dom column
            let col = [dom, dom + 2];
            let _ = c
                .group_allgather_f64(&col, &v, WirePrecision::Fp64)
                .unwrap();
        });
        // allreduce per 2-member row: 1 contribution + 1 result = 2*len
        // doubles; two rows -> 4*len. allgather per 2-member col: 1 block
        // of len + 1 framed return of (1 + 2 + 2*len); two cols.
        let expect_f64 = 8 * (4 * len + 2 * (len + 3 + 2 * len)) as u64;
        let (bytes, msgs, f64b, f32b) = stats.snapshot();
        assert_eq!(f64b, expect_f64);
        assert_eq!(bytes, expect_f64);
        assert_eq!(msgs, 8);
        assert_eq!(f32b, 0);
    }

    /// A one-member collective is the member's own payload in place: the
    /// sums, broadcast and gather of rank 0 alone return its values, on an
    /// FP32 wire too (nothing is sent, so nothing rounds), and put nothing
    /// on the wire. A poisoned communicator still fails them.
    #[test]
    fn one_member_collectives_are_in_place_and_still_check() {
        let (_, stats) = run_cluster(1, |c| {
            let mine = [0.1, -2.5, 1e300];
            let mut v = mine;
            c.allreduce_sum_f64(&mut v, WirePrecision::Fp32).unwrap();
            c.group_allreduce_sum_f64(&[0], &mut v, WirePrecision::Fp32)
                .unwrap();
            c.group_broadcast_f64(&[0], &mut v, WirePrecision::Fp32)
                .unwrap();
            assert_eq!(v, mine);
            let blocks = c
                .group_allgather_f64(&[0], &mine, WirePrecision::Fp32)
                .unwrap();
            assert_eq!(blocks, vec![mine.to_vec()]);
            assert_eq!(c.allreduce_max_u64(7).unwrap(), 7);
            c.barrier().unwrap();

            let gone = CommError::PeerGone { peer: 0 };
            c.fail(gone);
            assert_eq!(c.allreduce_sum_f64(&mut v, WirePrecision::Fp64), Err(gone));
            let r = c.group_allreduce_sum_f64(&[0], &mut v, WirePrecision::Fp64);
            assert_eq!(r, Err(gone));
            let r = c.group_allgather_f64(&[0], &mine, WirePrecision::Fp64);
            assert_eq!(r, Err(gone));
        });
        assert_eq!(stats.snapshot(), (0, 0, 0, 0));
    }

    /// FP32 wire on the group reduce demotes the contributions and result
    /// hops to exactly half the FP64 byte volume, and the root ends with
    /// the bits its peer decoded, not its own unrounded sum.
    #[test]
    fn group_allreduce_fp32_wire_halves_bytes() {
        let len = 64usize;
        let run = |wire: WirePrecision| {
            let (sums, stats) = run_cluster(2, move |c| {
                let mut v = vec![0.1; len];
                c.group_allreduce_sum_f64(&[0, 1], &mut v, wire).unwrap();
                v[0].to_bits()
            });
            assert_eq!(sums[0], sums[1], "{wire:?}: members disagree");
            stats.snapshot()
        };
        let (b64, _, f64b, _) = run(WirePrecision::Fp64);
        let (b32, _, _, f32b) = run(WirePrecision::Fp32);
        assert_eq!(b64, f64b);
        assert_eq!(b32, f32b);
        assert_eq!(b32 * 2, b64);
    }

    /// Out-of-order tag matching within a sub-group: a point-to-point
    /// message posted before the group collective must survive the
    /// collective's receive scanning (stashed, not dropped) and still be
    /// deliverable afterwards.
    #[test]
    fn out_of_order_tags_within_a_subgroup_are_buffered() {
        let (results, _) = run_cluster(3, |c| {
            let members = [0usize, 1, 2];
            if c.rank() == 1 {
                // arrives at the root before (or while) it collects the
                // group contributions on the collective band
                c.send_f64(0, 41, &[7.0], WirePrecision::Fp64).unwrap();
            }
            let mut v = vec![c.rank() as f64];
            c.group_allreduce_sum_f64(&members, &mut v, WirePrecision::Fp64)
                .unwrap();
            if c.rank() == 0 {
                let side = c.recv_f64(1, 41, WirePrecision::Fp64).unwrap();
                v[0] + side[0]
            } else {
                v[0]
            }
        });
        assert_eq!(results, vec![10.0, 3.0, 3.0]);
    }

    /// Satellite: one band-column rank dies mid-grid-collective and the
    /// whole 2x2 grid drains in bounded time — the row peers time out, the
    /// column peers of the timed-out ranks time out in turn.
    #[test]
    fn dead_band_column_rank_poisons_the_whole_grid_in_bounded_time() {
        let timeout = Duration::from_millis(100);
        let mut opts = ClusterOptions::with_timeout(timeout);
        // rank 3 dies on its first send in the group-reduce band
        opts.faults = Arc::new(FaultPlan::kill_on_send(
            3,
            0,
            GROUP_REDUCE_BAND.wire_range(),
            0,
        ));
        let t0 = Instant::now();
        let (results, _) = run_cluster_with(4, &opts, |c| {
            let dom = c.rank() % 2;
            let band = c.rank() / 2;
            let row = [band * 2, band * 2 + 1];
            let col = [dom, dom + 2];
            // iterate row + column reduces until the failure cascades in
            for _ in 0..8 {
                let mut v = vec![1.0];
                if c.group_allreduce_sum_f64(&row, &mut v, WirePrecision::Fp64)
                    .is_err()
                    || c.group_allreduce_sum_f64(&col, &mut v, WirePrecision::Fp64)
                        .is_err()
                {
                    return "failed";
                }
            }
            "ok"
        });
        let elapsed = t0.elapsed();
        for (r, out) in results.iter().enumerate() {
            assert_eq!(*out, "failed", "rank {r} never observed the dead rank");
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "grid drain took {elapsed:?} (timeout {timeout:?})"
        );
    }

    /// Concurrent per-group broadcasts from distinct roots share the
    /// k-group band without cross-talk.
    #[test]
    fn concurrent_kgroup_broadcasts_do_not_cross_talk() {
        let (results, _) = run_cluster(4, |c| {
            let grp: [usize; 2] = if c.rank() < 2 { [0, 1] } else { [2, 3] };
            let mut v = vec![(grp[0] * 100) as f64];
            c.group_broadcast_f64(&grp, &mut v, WirePrecision::Fp64)
                .unwrap();
            v[0]
        });
        assert_eq!(results, vec![0.0, 0.0, 200.0, 200.0]);
    }

    /// The public collectives, as rows of the table test below.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        Barrier,
        Sum,
        Max,
        GroupSum,
        GroupGather,
        GroupBcast,
    }

    impl Op {
        const ALL: [Op; 6] = [
            Op::Barrier,
            Op::Sum,
            Op::Max,
            Op::GroupSum,
            Op::GroupGather,
            Op::GroupBcast,
        ];

        /// World collectives run on every rank of the cluster.
        fn on_world(self) -> bool {
            matches!(self, Op::Barrier | Op::Sum | Op::Max)
        }

        /// Rank `r`'s input (all values exact in FP32).
        fn input(self, r: usize) -> Vec<f64> {
            match self {
                Op::Barrier => vec![],
                Op::Sum | Op::GroupSum => vec![r as f64 + 0.5, 1.0, -(r as f64)],
                Op::Max => vec![(3 * r + 1) as f64],
                Op::GroupGather => vec![r as f64; r + 1],
                Op::GroupBcast => vec![(100 * r + 7) as f64, 0.25],
            }
        }

        fn run(
            self,
            c: &mut ThreadComm,
            members: &[usize],
            wire: WirePrecision,
        ) -> Result<Vec<f64>, CommError> {
            let mut v = self.input(c.rank());
            match self {
                Op::Barrier => c.barrier()?,
                Op::Sum => c.allreduce_sum_f64(&mut v, wire)?,
                Op::Max => v[0] = c.allreduce_max_u64(v[0] as u64)? as f64,
                Op::GroupSum => c.group_allreduce_sum_f64(members, &mut v, wire)?,
                Op::GroupGather => {
                    let blocks = c.group_allgather_f64(members, &v, wire)?;
                    assert_eq!(blocks.len(), members.len());
                    v = blocks.concat();
                }
                Op::GroupBcast => c.group_broadcast_f64(members, &mut v, wire)?,
            }
            Ok(v)
        }

        /// What every member must hold afterwards.
        fn expect(self, members: &[usize]) -> Vec<f64> {
            let inputs = || members.iter().map(|&m| self.input(m));
            match self {
                Op::Barrier => vec![],
                Op::Sum | Op::GroupSum => (0..3).map(|i| inputs().map(|v| v[i]).sum()).collect(),
                Op::Max => vec![inputs().map(|v| v[0]).fold(0.0, f64::max)],
                Op::GroupGather => inputs().flatten().collect(),
                Op::GroupBcast => self.input(members[0]),
            }
        }

        /// Exact `(messages, payload scalars)` of one call over `members`.
        fn traffic(self, members: &[usize]) -> (u64, u64) {
            let k = members.len() as u64;
            let len = |m: &usize| self.input(*m).len() as u64;
            let up: u64 = members[1..].iter().map(len).sum();
            let all: u64 = members.iter().map(len).sum();
            match self {
                _ if k == 1 => (0, 0),
                Op::GroupBcast => (k - 1, (k - 1) * all / k),
                Op::GroupGather => (2 * (k - 1), up + (k - 1) * (1 + k + all)),
                _ => (2 * (k - 1), up + (k - 1) * all / k),
            }
        }

        /// Which precision counter the payload lands in.
        fn wire(self, asked: WirePrecision) -> WirePrecision {
            match self {
                Op::Barrier | Op::Max => WirePrecision::Fp64,
                _ => asked,
            }
        }
    }

    /// Every public collective x {world, proper sub-group rooted at a
    /// nonzero rank, single member} x {FP64, FP32 wire}: the result on
    /// every member, and the exact message and per-precision byte counts.
    #[test]
    fn every_collective_on_every_group_shape() {
        for op in Op::ALL {
            let shapes: &[(usize, &[usize])] = if op.on_world() {
                &[(4, &[0, 1, 2, 3]), (1, &[0])]
            } else {
                &[(4, &[0, 1, 2, 3]), (4, &[1, 3]), (4, &[2])]
            };
            for &(n, members) in shapes {
                for asked in [WirePrecision::Fp64, WirePrecision::Fp32] {
                    let (results, stats) = run_cluster(n, |c| {
                        members
                            .contains(&c.rank())
                            .then(|| op.run(c, members, asked).unwrap())
                    });
                    let case = format!("{op:?} on {members:?} of {n}, {asked:?}");
                    for (r, got) in results.iter().enumerate() {
                        let want = members.contains(&r).then(|| op.expect(members));
                        assert_eq!(*got, want, "{case}: rank {r}");
                    }
                    let (messages, scalars) = op.traffic(members);
                    let bytes = scalars * op.wire(asked).bytes() as u64;
                    let (b64, b32) = match op.wire(asked) {
                        WirePrecision::Fp64 => (bytes, 0),
                        WirePrecision::Fp32 => (0, bytes),
                    };
                    assert_eq!(stats.snapshot(), (bytes, messages, b64, b32), "{case}");
                }
            }
        }
    }

    /// A member that never enters the collective (the root, for the
    /// broadcast) times every other member out within the one deadline,
    /// and a point-to-point message it posted beforehand is still
    /// deliverable afterwards: nothing drained on the way is dropped.
    #[test]
    fn a_silent_member_times_every_collective_out_with_the_stash_intact() {
        let opts = ClusterOptions::with_timeout(Duration::from_millis(60));
        for op in Op::ALL {
            let members: &[usize] = if op.on_world() {
                &[0, 1, 2, 3]
            } else {
                &[1, 2, 3]
            };
            let silent = if op == Op::GroupBcast { 1 } else { 3 };
            let t0 = Instant::now();
            let (results, _) = run_cluster_with(4, &opts, |c| {
                if c.rank() == silent {
                    for &m in members.iter().filter(|&&m| m != silent) {
                        c.send_f64(m, 41, &[m as f64], WirePrecision::Fp64).unwrap();
                    }
                    return true;
                }
                if !members.contains(&c.rank()) {
                    return true;
                }
                let err = op.run(c, members, WirePrecision::Fp64).unwrap_err();
                assert!(matches!(err, CommError::Timeout { .. }), "{op:?}: {err:?}");
                assert_eq!(c.failure(), Some(err), "{op:?}: communicator not poisoned");
                c.clear_failure();
                c.recv_f64(silent, 41, WirePrecision::Fp64).unwrap() == [c.rank() as f64]
            });
            assert!(results.iter().all(|&ok| ok), "{op:?}: stash lost a message");
            let elapsed = t0.elapsed();
            assert!(elapsed < Duration::from_secs(5), "{op:?} took {elapsed:?}");
        }
    }

    /// A band for the registry-check tests.
    fn band(base: u64, width: u64) -> TagBand {
        TagBand { base, width }
    }

    #[test]
    fn the_registry_passes_its_check() {
        check_tag_bands(&TAG_BANDS);
    }

    #[test]
    #[should_panic(expected = "two TagBands overlap on the wire")]
    fn overlapping_bands_are_rejected() {
        // a single-tag band inside a rank-indexed band's wire range
        let allreduce = band((1 << 60) + 1000, MAX_RANKS);
        check_tag_bands(&[allreduce, band((1 << 60) + 2000, 1)]);
    }

    #[test]
    #[should_panic(expected = "a TagBand has zero width")]
    fn a_zero_width_band_is_rejected() {
        check_tag_bands(&[band((1 << 60) + 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "a rank-indexed TagBand is narrower than MAX_RANKS")]
    fn a_narrow_rank_indexed_band_is_rejected() {
        check_tag_bands(&[band((1 << 60) + 1000, MAX_RANKS - 1)]);
    }

    #[test]
    #[should_panic(expected = "a TagBand escapes COLLECTIVE_TAGS")]
    fn a_band_below_the_collective_tags_is_rejected() {
        check_tag_bands(&[band(1 << 58, 1)]);
    }

    #[test]
    #[should_panic(expected = "a TagBand's wire range overflows u64")]
    fn a_band_whose_wire_range_overflows_is_rejected() {
        // `(base + width) << 1` is 2^64: the wire range wraps to zero
        check_tag_bands(&[band((1 << 63) - MAX_RANKS, MAX_RANKS)]);
    }

    #[test]
    fn bands_tag_each_sender_and_the_low_bit_carries_the_precision() {
        for r in [0, 1, 3999] {
            assert_eq!(BARRIER_BAND.for_rank(r), BARRIER_BAND.base);
            assert_eq!(ALLREDUCE_BAND.for_rank(r), ALLREDUCE_BAND.base + r as u64);
        }
        assert_eq!(WirePrecision::Fp64.encode_tag(5), 10);
        assert_eq!(WirePrecision::Fp32.encode_tag(5), 11);
        assert_eq!(wire_tag_band(5), (10, 12));
        assert_eq!(
            ALLREDUCE_BAND.wire_range(),
            (
                ALLREDUCE_BAND.base << 1,
                (ALLREDUCE_BAND.base + MAX_RANKS) << 1
            )
        );
    }

    /// The `sanitize` feature's message-leak detector and tag-band asserts.
    #[cfg(feature = "sanitize")]
    mod sanitizer {
        use super::super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[test]
        fn clean_collectives_leave_no_messages_in_flight() {
            // run_cluster_with itself asserts drainage at clean shutdown
            let (results, _) = run_cluster(4, |c| {
                c.barrier().unwrap();
                let mut v = vec![c.rank() as f64];
                c.allreduce_sum_f64(&mut v, WirePrecision::Fp64).unwrap();
                let all = c
                    .group_allgather_f64(&[0, 1, 2, 3], &v, WirePrecision::Fp64)
                    .unwrap();
                (v[0], all.len())
            });
            assert_eq!(results, vec![(6.0, 4); 4]);
        }

        #[test]
        fn leaked_message_panics_at_clean_shutdown() {
            let leaked = catch_unwind(AssertUnwindSafe(|| {
                run_cluster(2, |c| {
                    if c.rank() == 0 {
                        // sent but never received by rank 1
                        c.send_f64(1, 9, &[1.0], WirePrecision::Fp64).unwrap();
                    }
                })
            }));
            let msg = match leaked {
                Ok(_) => panic!("sanitizer missed a leaked message"),
                Err(e) => *e.downcast::<String>().expect("panic payload"),
            };
            assert!(msg.contains("leaked message"), "unexpected panic: {msg}");
        }

        #[test]
        fn unregistered_collective_tag_panics() {
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_cluster(2, |c| {
                    if c.rank() == 0 {
                        // collective-range tag outside every declared band;
                        // panics inside send_bytes before anything is sent,
                        // so rank 1 must not wait on a receive
                        let _ = c.send_bytes(1, (1 << 60) + 999_999, vec![]);
                    }
                })
            }));
            assert!(r.is_err(), "sanitizer accepted an unregistered tag");
        }
    }
}

//! Per-phase SCF/ChFES profiling — the measured counterpart of the paper's
//! Table 3 breakdown.
//!
//! The simulated schedule in [`crate::schedule`] *predicts* per-step wall
//! times of one SCF iteration (CF, CholGS-S/CI/O, RR-P/D/SR, DC,
//! DH+EP+Others) from machine models. This module *measures* the same
//! breakdown on the real solver path: the SCF driver threads a [`Profile`]
//! through ChFES, the FE Poisson solves, and the density build, opening a
//! [`PhaseScope`] around each step. Scopes accumulate wall-clock seconds,
//! analytic FLOP counts (the paper's convention: `gemm_flops`-style counts
//! attributed at call sites; CholGS-CI and RR-D are wall-time-only, matching
//! Sec. 6.3), and moved bytes. The finished [`ScfProfile`] is a
//! serde-serializable per-iteration + cumulative report.
//!
//! Profiling is strictly opt-in: call sites hold `Option<&Profile>`, and a
//! [`PhaseScope`] constructed from `None` never reads the clock, so the
//! disabled path costs one branch per scope.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// One step of the Table-3 breakdown, plus the residual `Other` bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Chebyshev filtering of the wavefunction block.
    Cf,
    /// CholGS overlap build `S = Psi_f† Psi_f`.
    CholGsS,
    /// CholGS Cholesky factorization + triangular inverse (wall-time-only).
    CholGsCi,
    /// CholGS orthonormalization GEMM `Psi_o = Psi_f L^{-†}`.
    CholGsO,
    /// Rayleigh-Ritz projection `Hp = Psi† (H Psi)`.
    RrP,
    /// Rayleigh-Ritz dense diagonalization (wall-time-only).
    RrD,
    /// Rayleigh-Ritz subspace rotation `Psi Q`.
    RrSr,
    /// Density compute from occupied orbitals.
    Dc,
    /// Discrete Hamiltonian setup: XC evaluation + effective potential.
    Dh,
    /// Electrostatic potential: FE Poisson solves.
    Ep,
    /// Checkpoint write: serializing SCF state to the snapshot store.
    Ck,
    /// Everything else inside the SCF loop (Lanczos bounds, occupations,
    /// mixing, energy integrals).
    Other,
}

impl Phase {
    /// All phases, in Table-3 order (the non-Table-3 `Ck` rides ahead of
    /// the `Other` bucket).
    pub const ALL: [Phase; 12] = [
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
        Phase::Ck,
        Phase::Other,
    ];

    /// The paper's step label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Cf => "CF",
            Phase::CholGsS => "CholGS-S",
            Phase::CholGsCi => "CholGS-CI",
            Phase::CholGsO => "CholGS-O",
            Phase::RrP => "RR-P",
            Phase::RrD => "RR-D",
            Phase::RrSr => "RR-SR",
            Phase::Dc => "DC",
            Phase::Dh => "DH",
            Phase::Ep => "EP",
            Phase::Ck => "CK",
            Phase::Other => "Other",
        }
    }

    fn index(self) -> usize {
        // dftlint:allow(L001, reason="Phase::ALL enumerates every variant by construction")
        Phase::ALL.iter().position(|&p| p == self).unwrap()
    }
}

#[derive(Clone, Copy, Default)]
struct PhaseAcc {
    seconds: f64,
    flops: u64,
    bytes: u64,
    calls: u64,
}

impl PhaseAcc {
    fn add(&mut self, other: &PhaseAcc) {
        self.seconds += other.seconds;
        self.flops += other.flops;
        self.bytes += other.bytes;
        self.calls += other.calls;
    }
}

/// One phase row summed over every bucket of `rows`.
fn sum_rows<'a>(
    rows: impl IntoIterator<Item = &'a [PhaseAcc; Phase::ALL.len()]>,
) -> [PhaseAcc; Phase::ALL.len()] {
    let mut sum: [PhaseAcc; Phase::ALL.len()] = Default::default();
    for row in rows {
        for (s, r) in sum.iter_mut().zip(row) {
            s.add(r);
        }
    }
    sum
}

#[derive(Default)]
struct ProfileInner {
    /// One accumulator row per phase, per SCF iteration.
    iterations: Vec<[PhaseAcc; Phase::ALL.len()]>,
}

impl ProfileInner {
    fn current(&mut self) -> &mut [PhaseAcc; Phase::ALL.len()] {
        if self.iterations.is_empty() {
            self.iterations.push(Default::default());
        }
        // dftlint:allow(L001, reason="guarded by the push above: iterations is nonempty here")
        self.iterations.last_mut().unwrap()
    }
}

/// Accumulates per-phase, per-iteration measurements for one SCF run.
///
/// Shared by reference down the solver call tree; interior mutability keeps
/// the instrumented signatures `&Profile`.
#[derive(Default)]
pub struct Profile {
    inner: Mutex<ProfileInner>,
    started: Option<Instant>,
}

impl Profile {
    /// Empty profile; the run's total wall clock starts now.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(ProfileInner::default()),
            started: Some(Instant::now()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProfileInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Open a new per-iteration bucket; subsequent scopes accumulate there.
    pub fn begin_iteration(&self) {
        self.lock().iterations.push(Default::default());
    }

    /// RAII scope timing `phase`; commit happens on drop.
    pub fn scope(&self, phase: Phase) -> PhaseScope<'_> {
        PhaseScope::new(Some(self), phase)
    }

    fn record(&self, phase: Phase, seconds: f64, flops: u64, bytes: u64) {
        self.lock().current()[phase.index()].add(&PhaseAcc {
            seconds,
            flops,
            bytes,
            calls: 1,
        });
    }

    /// Fold the profiles of `lanes` that ran side by side for `wall`
    /// seconds into the current bucket, as a wall-clock breakdown of that
    /// region: each phase's flops, bytes and calls summed over the lanes,
    /// and its seconds `wall` × (its seconds ÷ all the lanes' seconds).
    /// Lanes run on equal thread shares, so their seconds weigh the phases
    /// as thread-seconds would. The folded seconds sum to `wall`, and a
    /// phase's GFLOPS become the lanes' aggregate throughput.
    pub fn fold_lanes(&self, lanes: &[Profile], wall: f64) {
        let guards: Vec<_> = lanes.iter().map(Profile::lock).collect();
        let mut sum = sum_rows(guards.iter().flat_map(|g| &g.iterations));
        let busy: f64 = sum.iter().map(|acc| acc.seconds).sum();
        for acc in &mut sum {
            acc.seconds = if busy > 0.0 {
                wall * acc.seconds / busy
            } else {
                0.0
            };
        }
        let mut inner = self.lock();
        for (acc, lane) in inner.current().iter_mut().zip(&sum) {
            acc.add(lane);
        }
    }

    /// Freeze into a report. `total_seconds` defaults to the wall clock
    /// since [`Profile::new`] when `None`.
    pub fn finish(&self, total_seconds: Option<f64>) -> ScfProfile {
        let total = total_seconds
            .or_else(|| self.started.map(|t0| t0.elapsed().as_secs_f64()))
            .unwrap_or(0.0);
        let inner = self.lock();
        let iterations: Vec<IterationProfile> = inner
            .iterations
            .iter()
            .enumerate()
            .map(|(i, row)| IterationProfile {
                iteration: i,
                phases: row_records(row),
            })
            .collect();
        let cum = sum_rows(&inner.iterations);
        ScfProfile {
            total_seconds: total,
            iterations,
            cumulative: row_records(&cum),
        }
    }
}

fn row_records(row: &[PhaseAcc; Phase::ALL.len()]) -> Vec<PhaseRecord> {
    Phase::ALL
        .iter()
        .zip(row)
        .filter(|(_, acc)| acc.calls > 0)
        .map(|(&p, acc)| PhaseRecord {
            phase: p.label().to_string(),
            seconds: acc.seconds,
            flops: acc.flops,
            bytes: acc.bytes,
            calls: acc.calls,
        })
        .collect()
}

/// RAII timing scope. Built from `Option<&Profile>`: with `None` it is
/// inert — no clock read, no lock, nothing on drop.
pub struct PhaseScope<'a> {
    profile: Option<&'a Profile>,
    phase: Phase,
    t0: Option<Instant>,
    flops: u64,
    bytes: u64,
}

impl<'a> PhaseScope<'a> {
    /// Open a scope for `phase` (inert when `profile` is `None`).
    pub fn new(profile: Option<&'a Profile>, phase: Phase) -> Self {
        Self {
            profile,
            phase,
            t0: profile.map(|_| Instant::now()),
            flops: 0,
            bytes: 0,
        }
    }

    /// Attribute analytically counted FLOPs to this scope.
    #[inline]
    pub fn add_flops(&mut self, flops: u64) {
        if self.profile.is_some() {
            self.flops += flops;
        }
    }

    /// Attribute moved bytes to this scope.
    #[inline]
    pub fn add_bytes(&mut self, bytes: u64) {
        if self.profile.is_some() {
            self.bytes += bytes;
        }
    }
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        if let (Some(p), Some(t0)) = (self.profile, self.t0) {
            p.record(
                self.phase,
                t0.elapsed().as_secs_f64(),
                self.flops,
                self.bytes,
            );
        }
    }
}

/// Accumulated measurements of one phase (one Table-3 row).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase label ("CF", "CholGS-S", ...).
    pub phase: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Analytic FLOPs attributed at call sites (0 for wall-time-only steps).
    pub flops: u64,
    /// Bytes moved through the phase's dominant operands.
    pub bytes: u64,
    /// Number of scopes that hit this phase.
    pub calls: u64,
}

impl PhaseRecord {
    /// Sustained GFLOP/s of this phase: `flops / seconds / 1e9`.
    /// `None` for wall-time-only phases (no attributed FLOPs) or
    /// zero-duration records, where a rate is meaningless.
    pub fn gflops(&self) -> Option<f64> {
        if self.flops > 0 && self.seconds > 0.0 {
            Some(self.flops as f64 / self.seconds / 1e9)
        } else {
            None
        }
    }
}

/// Per-phase measurements of one SCF iteration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationProfile {
    /// Zero-based SCF iteration index.
    pub iteration: usize,
    /// Phases touched in this iteration, Table-3 order.
    pub phases: Vec<PhaseRecord>,
}

/// The full measured Table-3 report of one SCF run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScfProfile {
    /// Total wall-clock seconds of the profiled region.
    pub total_seconds: f64,
    /// Per-iteration breakdown.
    pub iterations: Vec<IterationProfile>,
    /// Sum over all iterations, per phase.
    pub cumulative: Vec<PhaseRecord>,
}

impl ScfProfile {
    /// Serialize to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        // dftlint:allow(L001, reason="plain-data struct; serde_json serialization is infallible here")
        serde_json::to_string_pretty(self).expect("serializable")
    }

    /// Cumulative seconds of the phase labeled `label` (0 if absent).
    pub fn phase_seconds(&self, label: &str) -> f64 {
        self.cumulative
            .iter()
            .find(|r| r.phase == label)
            .map_or(0.0, |r| r.seconds)
    }

    /// Cumulative FLOPs of the phase labeled `label` (0 if absent).
    pub fn phase_flops(&self, label: &str) -> u64 {
        self.cumulative
            .iter()
            .find(|r| r.phase == label)
            .map_or(0, |r| r.flops)
    }

    /// Sustained cumulative GFLOP/s of the phase labeled `label`
    /// (`None` if the phase is absent or wall-time-only).
    pub fn phase_gflops(&self, label: &str) -> Option<f64> {
        self.cumulative
            .iter()
            .find(|r| r.phase == label)
            .and_then(PhaseRecord::gflops)
    }

    /// `(label, gflops)` for every cumulative phase that carries FLOPs,
    /// Table-3 order — the measured counterpart of the paper's sustained
    /// per-step performance column.
    pub fn gflops_breakdown(&self) -> Vec<(String, f64)> {
        self.cumulative
            .iter()
            .filter_map(|r| r.gflops().map(|g| (r.phase.clone(), g)))
            .collect()
    }

    /// Sum of all phase wall times (should approach `total_seconds` when
    /// the instrumented scopes cover the loop).
    pub fn measured_seconds(&self) -> f64 {
        self.cumulative.iter().map(|r| r.seconds).sum()
    }

    /// `measured_seconds / total_seconds` — the fraction of the run inside
    /// instrumented scopes.
    pub fn coverage(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.measured_seconds() / self.total_seconds
        } else {
            0.0
        }
    }

    /// The cumulative breakdown folded onto the simulated schedule's step
    /// names: DH, EP, CK, and Other merge into `"DH+EP+Others"`, matching
    /// [`crate::schedule::scf_step`]. Returns `(step, seconds, flops)`.
    pub fn table3_rows(&self) -> Vec<(String, f64, u64)> {
        let mut rows: Vec<(String, f64, u64)> = Vec::new();
        let mut tail = ("DH+EP+Others".to_string(), 0.0, 0u64);
        for p in Phase::ALL {
            let label = p.label();
            let (s, f) = (self.phase_seconds(label), self.phase_flops(label));
            match p {
                Phase::Dh | Phase::Ep | Phase::Ck | Phase::Other => {
                    tail.1 += s;
                    tail.2 += f;
                }
                _ => rows.push((label.to_string(), s, f)),
            }
        }
        rows.push(tail);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_into_iterations() {
        let p = Profile::new();
        p.begin_iteration();
        {
            let mut s = p.scope(Phase::Cf);
            s.add_flops(100);
            s.add_bytes(8);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let mut s = p.scope(Phase::Cf);
            s.add_flops(50);
        }
        p.begin_iteration();
        p.scope(Phase::RrD);
        let rep = p.finish(None);
        assert_eq!(rep.iterations.len(), 2);
        let cf = &rep.iterations[0].phases[0];
        assert_eq!(cf.phase, "CF");
        assert_eq!(cf.calls, 2);
        assert_eq!(cf.flops, 150);
        assert_eq!(cf.bytes, 8);
        assert!(cf.seconds >= 0.002);
        assert_eq!(rep.phase_flops("CF"), 150);
        assert!(rep.total_seconds >= rep.iterations[0].phases[0].seconds);
    }

    /// Two lanes fold into the current bucket as a breakdown of the
    /// region's wall time: flops, bytes and calls are the lanes' sums, the
    /// folded seconds sum to the given wall time, and each phase gets its
    /// share of the lanes' busy seconds.
    #[test]
    fn lanes_fold_into_a_wall_clock_breakdown() {
        let (a, b) = (Profile::new(), Profile::new());
        {
            let mut s = a.scope(Phase::Cf);
            s.add_flops(100);
            s.add_bytes(8);
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        a.scope(Phase::RrD);
        {
            let mut s = b.scope(Phase::Cf);
            s.add_flops(50);
            s.add_bytes(2);
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        {
            let mut s = b.scope(Phase::CholGsS);
            s.add_flops(7);
        }
        let lane_seconds = |label| {
            [&a, &b]
                .iter()
                .map(|p| p.finish(Some(1.0)).phase_seconds(label))
                .sum::<f64>()
        };
        let busy: f64 = ["CF", "RR-D", "CholGS-S"].map(lane_seconds).iter().sum();
        let cf_share = lane_seconds("CF") / busy;

        let p = Profile::new();
        p.begin_iteration();
        p.begin_iteration();
        p.fold_lanes(&[a, b], 0.5);
        let rep = p.finish(Some(0.5));
        assert_eq!(rep.iterations.len(), 2);
        assert!(rep.iterations[0].phases.is_empty());
        let cf = &rep.cumulative[0];
        assert_eq!(
            (cf.phase.as_str(), cf.flops, cf.bytes, cf.calls),
            ("CF", 150, 10, 2)
        );
        assert_eq!(rep.phase_flops("CholGS-S"), 7);
        assert_eq!(rep.cumulative.iter().map(|r| r.calls).sum::<u64>(), 4);
        assert!((rep.measured_seconds() - 0.5).abs() < 1e-12);
        assert!((rep.phase_seconds("CF") - 0.5 * cf_share).abs() < 1e-12);
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let mut s = PhaseScope::new(None, Phase::Cf);
        s.add_flops(10);
        s.add_bytes(10);
        drop(s);
        // nothing to observe: the scope holds no profile. The real assertion
        // is that this compiles to a no-op and never panics.
    }

    #[test]
    fn record_before_begin_iteration_lands_in_bucket_zero() {
        let p = Profile::new();
        p.scope(Phase::Ep);
        let rep = p.finish(Some(1.0));
        assert_eq!(rep.iterations.len(), 1);
        assert_eq!(rep.iterations[0].phases[0].phase, "EP");
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let p = Profile::new();
        p.begin_iteration();
        {
            let mut s = p.scope(Phase::CholGsS);
            s.add_flops(12345);
            s.add_bytes(99);
        }
        p.scope(Phase::RrSr);
        let rep = p.finish(Some(0.5));
        let back: ScfProfile = serde_json::from_str(&rep.to_json_pretty()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn table3_rows_merge_tail_phases() {
        let p = Profile::new();
        p.begin_iteration();
        p.scope(Phase::Dh);
        p.scope(Phase::Ep);
        p.scope(Phase::Other);
        {
            let mut s = p.scope(Phase::Cf);
            s.add_flops(7);
        }
        let rep = p.finish(Some(1.0));
        let rows = rep.table3_rows();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].0, "CF");
        assert_eq!(rows[0].2, 7);
        assert_eq!(rows.last().unwrap().0, "DH+EP+Others");
        let tail = rows.last().unwrap().1;
        let expect = rep.phase_seconds("DH") + rep.phase_seconds("EP") + rep.phase_seconds("Other");
        assert!((tail - expect).abs() < 1e-12);
    }

    #[test]
    fn coverage_ratio_reflects_scoped_fraction() {
        let p = Profile::new();
        p.begin_iteration();
        {
            let _s = p.scope(Phase::Cf);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let rep = p.finish(None);
        assert!(rep.coverage() > 0.5, "coverage {}", rep.coverage());
        assert!(rep.measured_seconds() <= rep.total_seconds * 1.5);
    }
}

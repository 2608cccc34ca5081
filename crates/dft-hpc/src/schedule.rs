//! SCF-iteration performance schedules (Algorithm 1 priced on a machine
//! model).
//!
//! One SCF iteration of DFT-FE-MLXC expands into the steps of the paper's
//! Table 3 — CF, CholGS-S/CI/O, RR-P/D/SR, DC, DH+EP+Others. Each step is
//! priced with the roofline/alpha-beta primitives of [`crate::machine`] and
//! the dual-stream overlap of [`crate::event`], using the FLOP-accounting
//! conventions of the paper's Sec. 6.3:
//!
//! * GEMM steps are counted as `alpha * 4 * N * M * N` for complex k-point
//!   data (`alpha * 2 * ...` for real), with `alpha = 1` when Hermiticity /
//!   triangularity is exploited (CholGS-S, CholGS-O, RR-P) and `alpha = 2`
//!   otherwise (RR-SR);
//! * CF is counted from the cell-level dense kernel:
//!   `m_cheb * 2 * nloc^2 * ncells * N` (x4 complex);
//! * CholGS-CI and RR-D FLOPs are *not* counted (matching the paper), but
//!   their wall times are included, priced at calibrated dense-solver
//!   efficiencies.
//!
//! Reverse-engineering Table 3 fixes the remaining free parameters: states
//! per k-point `N ~ 0.289 x electrons`, Chebyshev degree ~23 per SCF
//! iteration, TRMM/HERK half-FLOP execution for the triangular/Hermitian
//! steps, and full-GEMM execution for CholGS-S. These are encoded as
//! defaults and documented in EXPERIMENTS.md.

use crate::event::pipelined_blocks;
use crate::machine::ClusterSpec;

/// Ratio of Kohn-Sham states per k-point to electrons in the supercell
/// slice, inferred from the paper's Table 3 FLOP counts.
pub const STATES_PER_ELECTRON: f64 = 0.289;

/// A DFT benchmark system, in the units the schedule needs.
#[derive(Clone, Debug)]
pub struct DftSystemSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of atoms.
    pub atoms: f64,
    /// Electrons per k-point slice (the paper's "e-" count).
    pub electrons: f64,
    /// FE degrees of freedom `M` (shared mesh across k-points).
    pub dofs: f64,
    /// Kohn-Sham states per k-point, `N`.
    pub states: f64,
    /// Brillouin-zone k-points.
    pub kpoints: usize,
    /// Complex (Bloch) wavefunctions?
    pub complex: bool,
    /// FE polynomial degree `p`.
    pub poly_degree: usize,
}

impl DftSystemSpec {
    /// Spec with `N` derived from the electron count via
    /// [`STATES_PER_ELECTRON`].
    pub fn new(
        name: &str,
        atoms: f64,
        electrons: f64,
        dofs: f64,
        kpoints: usize,
        complex: bool,
        poly_degree: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            atoms,
            electrons,
            dofs,
            states: (STATES_PER_ELECTRON * electrons).round(),
            kpoints,
            complex,
            poly_degree,
        }
    }

    /// Local FE-cell matrix order `(p+1)^3`.
    pub fn nloc(&self) -> f64 {
        ((self.poly_degree + 1).pow(3)) as f64
    }

    /// Number of FE cells (`M / p^3` for a structured spectral mesh).
    pub fn ncells(&self) -> f64 {
        self.dofs / (self.poly_degree.pow(3) as f64)
    }

    /// GEMM FLOP factor over a real MAC (paper: 4 for complex, 2 for real).
    pub fn gemm_factor(&self) -> f64 {
        if self.complex {
            4.0
        } else {
            2.0
        }
    }

    /// Bytes per wavefunction scalar in memory.
    pub fn scalar_bytes(&self) -> f64 {
        if self.complex {
            16.0
        } else {
            8.0
        }
    }

    /// Total electrons in the supercell (electrons x k-points) — the
    /// number the paper headlines.
    pub fn supercell_electrons(&self) -> f64 {
        self.electrons * self.kpoints as f64
    }
}

/// Column block size inside the CholGS/RR GEMM pipelines.
const SUB_BLOCK: f64 = 2000.0;
/// Whether the subspace reductions ride NCCL/RCCL collectives (Sec. 5.4.4)
/// instead of MPI's.
const USE_CCL: bool = false;

/// Solver/implementation options (the knobs of Secs. 5.4.2-5.4.4).
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Chebyshev-filter wavefunction block size `B_f`.
    pub block_size: f64,
    /// Chebyshev polynomial degree per SCF iteration.
    pub cheb_degree: f64,
    /// Mixed FP32/FP64 precision (Sec. 5.4.2).
    pub mixed_precision: bool,
    /// Asynchronous compute/communication overlap (Sec. 5.4.3).
    pub async_overlap: bool,
    /// GPU-aware point-to-point MPI (Sec. 5.4.4).
    pub gpu_aware: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            block_size: 250.0,
            cheb_degree: 23.0,
            mixed_precision: true,
            async_overlap: true,
            gpu_aware: true,
        }
    }
}

impl SolverOptions {
    /// The paper's baseline configuration (Fig. 5): no mixed precision, no
    /// overlap.
    pub fn baseline() -> Self {
        Self {
            mixed_precision: false,
            async_overlap: false,
            ..Self::default()
        }
    }
}

/// One priced step of the SCF iteration.
#[derive(Clone, Debug)]
pub struct StepTiming {
    /// Step label (Table 3 names).
    pub name: &'static str,
    /// Wall seconds.
    pub seconds: f64,
    /// Counted PFLOP (None for steps the paper does not count).
    pub pflop: Option<f64>,
}

impl StepTiming {
    /// Sustained PFLOPS of this step (0 if uncounted).
    pub fn pflops(&self) -> f64 {
        self.pflop.map_or(0.0, |f| f / self.seconds)
    }
}

/// A priced SCF iteration.
#[derive(Clone, Debug)]
pub struct ScfStepReport {
    /// System name.
    pub system: String,
    /// Machine name.
    pub machine: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Per-step breakdown in Table 3 order.
    pub steps: Vec<StepTiming>,
    /// Total wall seconds of one SCF iteration.
    pub total_seconds: f64,
    /// Total counted PFLOP.
    pub total_pflop: f64,
    /// Aggregate FP64 peak of the allocation, PFLOPS.
    pub peak_pflops: f64,
}

impl ScfStepReport {
    /// Sustained PFLOPS over the whole iteration.
    pub fn sustained_pflops(&self) -> f64 {
        self.total_pflop / self.total_seconds
    }
    /// Fraction of FP64 peak.
    pub fn efficiency(&self) -> f64 {
        self.sustained_pflops() / self.peak_pflops
    }
    /// Find a step by name.
    pub fn step(&self, name: &str) -> &StepTiming {
        self.steps
            .iter()
            .find(|s| s.name == name)
            // dftlint:allow(L001, reason="documented API contract: callers pass step names from this schedule's own table")
            .unwrap_or_else(|| panic!("no step named {name}"))
    }
}

/// Per-GPU workgroup geometry for one k-point group.
struct Workgroup {
    gpus: f64,
    group_nodes: usize,
    m_loc: f64,
    cells_loc: f64,
    surface_dofs: f64,
}

fn workgroup(sys: &DftSystemSpec, cluster: &ClusterSpec) -> Workgroup {
    let total_gpus = cluster.total_gpus() as f64;
    let groups = sys.kpoints as f64;
    let gpus = (total_gpus / groups).max(1.0);
    let group_nodes = ((cluster.nodes as f64 / groups).ceil() as usize).max(1);
    let m_loc = sys.dofs / gpus;
    let cells_loc = sys.ncells() / gpus;
    // boundary nodes of a cubic partition of m_loc dofs
    let surface_dofs = 6.0 * m_loc.powf(2.0 / 3.0);
    Workgroup {
        gpus,
        group_nodes,
        m_loc,
        cells_loc,
        surface_dofs,
    }
}

/// Number of memory passes over the wavefunction block per Chebyshev apply
/// (gather/scatter + three-term recurrence reads/writes). Calibrated so the
/// CF step lands at the paper's measured efficiencies (Fig. 4).
pub const CF_L1_PASSES: f64 = 14.0;

/// Calibrated effective efficiency of the distributed dense Cholesky
/// (CholGS-CI, ScaLAPACK-style) relative to the group's aggregate peak
/// (fit to Table 3: 3.8 s for system A, consistent with 8.8 s for C).
pub const CHOLESKY_EFF: f64 = 6.4e-5;

/// Calibrated effective efficiency of the distributed dense eigensolver
/// (RR-D) relative to the group's aggregate peak (fit to Table 3: 9.7 s for
/// system A, consistent with 22.3 s for C).
pub const EIG_EFF: f64 = 3.4e-4;

/// Calibrated achieved fraction of peak for the density-compute (DC) step
/// (paper Table 3: 35-39%).
pub const DC_EFF: f64 = 0.37;

/// Fractional overhead of DH+EP+Others relative to the priced steps
/// (paper Table 3: ~9-10% of the iteration).
pub const OTHERS_FRACTION: f64 = 0.105;

/// One H-apply over a block of `bf` states: (compute seconds, comm seconds,
/// counted flops per GPU). Used by CF, RR-P and the invDFT adjoint solve.
fn h_apply_block(
    sys: &DftSystemSpec,
    opts: &SolverOptions,
    cluster: &ClusterSpec,
    wg: &Workgroup,
    bf: f64,
) -> (f64, f64, f64) {
    let gpu = &cluster.machine.gpu;
    // True executed arithmetic (what nvprof counts): 2 x gemm_factor per MAC
    // (a complex MAC is 4 FMAs = 8 FLOPs).
    let flops = 2.0 * sys.gemm_factor() * sys.nloc() * sys.nloc() * wg.cells_loc * bf;
    let t_gemm = gpu.gemm_seconds(flops, bf, 0.0) + cluster.machine.kernel_overhead_s;
    let l1_bytes = CF_L1_PASSES * wg.m_loc * bf * sys.scalar_bytes();
    let t_l1 = gpu.mem_seconds(l1_bytes);
    let wire = if opts.mixed_precision { 4.0 } else { 8.0 } * if sys.complex { 2.0 } else { 1.0 };
    let halo_bytes = wg.surface_dofs * bf * wire;
    // Large allocations suffer routing congestion (the paper's footnote on
    // Frontier instability preventing optimal GPU-aware routing beyond
    // ~1,000 nodes).
    let congestion = (cluster.nodes as f64 / 1000.0).sqrt().max(1.0);
    let t_halo = cluster.machine.p2p_seconds(halo_bytes, opts.gpu_aware) * congestion;
    (t_gemm + t_l1, t_halo, flops)
}

/// Price one SCF iteration of Algorithm 1.
pub fn scf_step(sys: &DftSystemSpec, opts: &SolverOptions, cluster: &ClusterSpec) -> ScfStepReport {
    let wg = workgroup(sys, cluster);
    let gpu = &cluster.machine.gpu;
    let kpts = sys.kpoints as f64;
    let (m, n) = (sys.dofs, sys.states);
    let gf = sys.gemm_factor();
    let mut steps = Vec::new();

    // ---- CF: Chebyshev filtering --------------------------------------
    let n_blocks = (n / opts.block_size).ceil();
    let (t_c, t_m, f_unit) = h_apply_block(sys, opts, cluster, &wg, opts.block_size);
    let units = (opts.cheb_degree * n_blocks) as usize;
    let overlap_halo = opts.async_overlap && opts.gpu_aware;
    let t_cf = pipelined_blocks(units, t_c, t_m, overlap_halo);
    let cf_pflop = opts.cheb_degree * n_blocks * f_unit * wg.gpus * kpts / 1e15;
    steps.push(StepTiming {
        name: "CF",
        seconds: t_cf,
        pflop: Some(cf_pflop),
    });

    // ---- CholGS-S: overlap matrix (full GEMM executed, alpha=1 counted) --
    let bs = SUB_BLOCK.min(n);
    let s_blocks = (n / bs).ceil() as usize;
    let fp32_frac = if opts.mixed_precision {
        1.0 - bs / n
    } else {
        0.0
    };
    let s_exec_flops_gpu = 2.0 * gf * wg.m_loc * n * bs; // full GEMM per block
    let t_s_gemm =
        gpu.gemm_seconds(s_exec_flops_gpu, bs, fp32_frac) + cluster.machine.kernel_overhead_s;
    let wire = if opts.mixed_precision { 4.0 } else { 8.0 } * if sys.complex { 2.0 } else { 1.0 };
    let t_s_ar = cluster
        .machine
        .allreduce_seconds(n * bs * wire, wg.group_nodes, USE_CCL);
    let t_chs = pipelined_blocks(s_blocks, t_s_gemm, t_s_ar, opts.async_overlap);
    let chs_pflop = 1.0 * gf * m * n * n * kpts / 1e15; // alpha = 1
    steps.push(StepTiming {
        name: "CholGS-S",
        seconds: t_chs,
        pflop: Some(chs_pflop),
    });

    // ---- CholGS-CI: Cholesky factorization + triangular inverse ---------
    let ci_flops = (2.0 / 3.0) * n * n * n * gf;
    let t_ci = ci_flops / (wg.gpus * gpu.fp64_tflops * 1e12 * CHOLESKY_EFF);
    steps.push(StepTiming {
        name: "CholGS-CI",
        seconds: t_ci,
        pflop: None,
    });

    // ---- CholGS-O: Psi L^{-dagger} (TRMM, half flops, all-FP32 in mixed) -
    let o_exec_flops_gpu = gf * wg.m_loc * n * n; // TRMM = half of a full GEMM
    let o_fp32 = if opts.mixed_precision { 1.0 } else { 0.0 };
    let t_cho = gpu.gemm_seconds(o_exec_flops_gpu, bs, o_fp32);
    let cho_pflop = 1.0 * gf * m * n * n * kpts / 1e15;
    steps.push(StepTiming {
        name: "CholGS-O",
        seconds: t_cho,
        pflop: Some(cho_pflop),
    });

    // ---- RR-P: projected Hamiltonian = Psi^H (H Psi) ---------------------
    // One full H application over all N states + a Hermitian rank-k GEMM.
    let (t_hc, t_hm, _f) = h_apply_block(sys, opts, cluster, &wg, opts.block_size);
    let t_hpsi = pipelined_blocks(n_blocks as usize, t_hc, t_hm, overlap_halo);
    let p_exec_flops_gpu = gf * wg.m_loc * n * bs; // HERK-style half, per block
    let t_p_gemm =
        gpu.gemm_seconds(p_exec_flops_gpu, bs, fp32_frac) + cluster.machine.kernel_overhead_s;
    let t_p_ar = cluster
        .machine
        .allreduce_seconds(n * bs * wire, wg.group_nodes, USE_CCL);
    let t_rrp = t_hpsi + pipelined_blocks(s_blocks, t_p_gemm, t_p_ar, opts.async_overlap);
    let rrp_pflop = 1.0 * gf * m * n * n * kpts / 1e15;
    steps.push(StepTiming {
        name: "RR-P",
        seconds: t_rrp,
        pflop: Some(rrp_pflop),
    });

    // ---- RR-D: dense diagonalization -------------------------------------
    let d_flops = 9.0 * n * n * n * gf;
    let t_rrd = d_flops / (wg.gpus * gpu.fp64_tflops * 1e12 * EIG_EFF);
    steps.push(StepTiming {
        name: "RR-D",
        seconds: t_rrd,
        pflop: None,
    });

    // ---- RR-SR: subspace rotation (full GEMM, alpha = 2) ------------------
    let sr_exec_flops_gpu = 2.0 * gf * wg.m_loc * n * n;
    let sr_fp32 = if opts.mixed_precision { 1.0 } else { 0.0 };
    let t_rrsr = gpu.gemm_seconds(sr_exec_flops_gpu, bs, sr_fp32);
    let rrsr_pflop = 2.0 * gf * m * n * n * kpts / 1e15;
    steps.push(StepTiming {
        name: "RR-SR",
        seconds: t_rrsr,
        pflop: Some(rrsr_pflop),
    });

    // ---- DC: density computation -----------------------------------------
    // Interpolation of the wavefunction block from FE nodes to quadrature
    // points is one more cell-level dense GEMM pass over all states
    // (matches Table 3: 591.6 PFLOP for A, 2,302.5 for C).
    let dc_pflop = 2.0 * gf * sys.nloc() * sys.nloc() * sys.ncells() * n * kpts / 1e15;
    let t_dc = (dc_pflop * 1e15 / (wg.gpus * kpts)) / (gpu.fp64_tflops * 1e12 * DC_EFF);
    steps.push(StepTiming {
        name: "DC",
        seconds: t_dc,
        pflop: Some(dc_pflop),
    });

    // Large allocations pay OS jitter / load-imbalance / routing-congestion
    // overhead that grows with node count (the paper's Sec. 7.2 discussion
    // of degraded efficiency beyond ~1,000 Frontier nodes), and strong
    // scaling degrades when the per-GPU granularity shrinks (surface-to-
    // volume overheads, kernel-tail effects — the paper's Fig. 8 falloff
    // below ~30K DoF/GPU). Both calibrated against Table 3 and Fig. 8.
    let jitter = (1.0 + 0.055 * (cluster.nodes as f64 / 1000.0).max(1.0).log2())
        * (1.0 + 15_000.0 / wg.m_loc);
    for st in steps.iter_mut() {
        st.seconds *= jitter;
    }

    // ---- DH + EP + Others -------------------------------------------------
    let priced: f64 = steps.iter().map(|s| s.seconds).sum();
    steps.push(StepTiming {
        name: "DH+EP+Others",
        seconds: OTHERS_FRACTION * priced,
        pflop: None,
    });

    let total_seconds: f64 = steps.iter().map(|s| s.seconds).sum();
    let total_pflop: f64 = steps.iter().filter_map(|s| s.pflop).sum();
    ScfStepReport {
        system: sys.name.clone(),
        machine: cluster.machine.name,
        nodes: cluster.nodes,
        steps,
        total_seconds,
        total_pflop,
        peak_pflops: cluster.peak_pflops(),
    }
}

/// Price one outer iteration of the invDFT PDE-constrained optimization:
/// a Chebyshev-filtered eigensolve plus the preconditioned block-MINRES
/// adjoint solve (Sec. 5.3). All-electron molecular problems have a huge
/// spectral width, hence the large Chebyshev degree.
pub fn invdft_iteration(
    sys: &DftSystemSpec,
    opts: &SolverOptions,
    cluster: &ClusterSpec,
    cheb_degree_ae: f64,
    minres_iters: f64,
    per_apply_overhead_s: f64,
) -> f64 {
    let wg = workgroup(sys, cluster);
    let bf = sys.states; // molecular: all states fit one block
    let (t_c, t_m, _) = h_apply_block(sys, opts, cluster, &wg, bf);
    let applies = cheb_degree_ae + minres_iters;
    let unit = t_c + per_apply_overhead_s;
    pipelined_blocks(applies as usize, unit, t_m, opts.async_overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;

    /// TwinDislocMgY(A): 36,344 atoms, 75,667 e- x 4 k-points. DoF scaled
    /// from the paper's 1.7e9 for the 74,164-atom system.
    fn twin_a() -> DftSystemSpec {
        DftSystemSpec::new(
            "TwinDislocMgY(A)",
            36_344.0,
            75_667.0,
            1.7e9 * 36_344.0 / 74_164.0,
            4,
            true,
            8,
        )
    }

    fn twin_c() -> DftSystemSpec {
        DftSystemSpec::new("TwinDislocMgY(C)", 74_164.0, 154_781.0, 1.7e9, 4, true, 8)
    }

    fn paper_large_run_opts() -> SolverOptions {
        // the paper's large runs could not use optimal GPU-aware routing
        SolverOptions {
            gpu_aware: false,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn counted_flops_match_paper_table3_within_10_percent() {
        let opts = paper_large_run_opts();
        let a = scf_step(
            &twin_a(),
            &opts,
            &ClusterSpec::new(MachineModel::frontier(), 2400),
        );
        // Paper Table 3 (A): CholGS-S 6,917.3 / RR-SR 13,834.6 / CF 14,854.2
        let rel = |x: f64, y: f64| (x - y).abs() / y;
        assert!(rel(a.step("CholGS-S").pflop.unwrap(), 6917.3) < 0.10);
        assert!(rel(a.step("RR-SR").pflop.unwrap(), 13834.6) < 0.10);
        assert!(rel(a.step("CF").pflop.unwrap(), 14854.2) < 0.12);
        assert!(rel(a.step("DC").pflop.unwrap(), 591.6) < 0.15);
        // total counted
        assert!(rel(a.total_pflop, 50456.7) < 0.10, "{}", a.total_pflop);
    }

    #[test]
    fn wall_time_and_sustained_performance_near_paper() {
        let opts = paper_large_run_opts();
        let a = scf_step(
            &twin_a(),
            &opts,
            &ClusterSpec::new(MachineModel::frontier(), 2400),
        );
        // paper: 223 s, 226.3 PFLOPS (49.3%)
        assert!(
            (a.total_seconds - 223.0).abs() / 223.0 < 0.25,
            "total {}",
            a.total_seconds
        );
        assert!(
            (a.efficiency() - 0.493).abs() < 0.12,
            "efficiency {}",
            a.efficiency()
        );
        let c = scf_step(
            &twin_c(),
            &opts,
            &ClusterSpec::new(MachineModel::frontier(), 8000),
        );
        // paper: 513.7 s, 659.7 PFLOPS (43.1%)
        assert!(
            (c.total_seconds - 513.7).abs() / 513.7 < 0.25,
            "total {}",
            c.total_seconds
        );
        assert!(
            (c.efficiency() - 0.431).abs() < 0.12,
            "efficiency {}",
            c.efficiency()
        );
    }

    #[test]
    fn mixed_precision_and_overlap_speed_up_the_iteration() {
        let sys = twin_a();
        let cluster = ClusterSpec::new(MachineModel::frontier(), 2400);
        let fast = scf_step(&sys, &SolverOptions::default(), &cluster);
        let slow = scf_step(&sys, &SolverOptions::baseline(), &cluster);
        assert!(slow.total_seconds > 1.2 * fast.total_seconds);
    }

    #[test]
    fn bigger_system_same_nodes_takes_longer() {
        let cluster = ClusterSpec::new(MachineModel::frontier(), 2400);
        let a = scf_step(&twin_a(), &SolverOptions::default(), &cluster);
        let c = scf_step(&twin_c(), &SolverOptions::default(), &cluster);
        assert!(c.total_seconds > 2.0 * a.total_seconds);
    }

    #[test]
    fn strong_scaling_reduces_walltime_sublinearly() {
        let sys = DftSystemSpec::new("YbCd", 1943.0, 40_040.0, 75_069_290.0, 1, false, 7);
        let opts = SolverOptions::default();
        let t240 = scf_step(
            &sys,
            &opts,
            &ClusterSpec::new(MachineModel::frontier(), 240),
        )
        .total_seconds;
        let t960 = scf_step(
            &sys,
            &opts,
            &ClusterSpec::new(MachineModel::frontier(), 960),
        )
        .total_seconds;
        assert!(t960 < t240);
        let speedup = t240 / t960;
        assert!(speedup > 2.0 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn step_report_accessors() {
        let a = scf_step(
            &twin_a(),
            &SolverOptions::default(),
            &ClusterSpec::new(MachineModel::frontier(), 2400),
        );
        assert_eq!(a.steps.len(), 9);
        assert!(a.step("CF").pflops() > 0.0);
        assert!(a.step("RR-D").pflop.is_none());
        assert!(a.sustained_pflops() > 100.0);
    }

    #[test]
    fn invdft_iteration_scales_with_nodes() {
        let sys = DftSystemSpec::new("C6H4", 10.0, 40.0, 6.0e7, 1, false, 7);
        let opts = SolverOptions::default();
        let t4 = invdft_iteration(
            &sys,
            &opts,
            &ClusterSpec::new(MachineModel::perlmutter(), 4),
            1000.0,
            60.0,
            0.005,
        );
        let t32 = invdft_iteration(
            &sys,
            &opts,
            &ClusterSpec::new(MachineModel::perlmutter(), 32),
            1000.0,
            60.0,
            0.005,
        );
        assert!(t4 > t32);
        let speedup = t4 / t32;
        assert!(speedup > 2.0 && speedup < 8.0, "speedup {speedup}");
    }
}

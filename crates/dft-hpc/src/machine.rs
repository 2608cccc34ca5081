//! Machine models and kernel cost primitives.
//!
//! Constants follow the paper's Sec. 6.1 ("theoretical peak FP64 performance
//! per GPU ... 47.8, 7.8 and 9.7 TFLOPS for Frontier, Summit and
//! Perlmutter") plus public node specifications. The paper's observed
//! cross-machine behaviour that the model must reproduce:
//!
//! * Frontier node FP64 peak 191.2 TFLOPS (8,000 nodes = 1,529.6 PFLOPS,
//!   Table 3);
//! * Crusher-vs-Summit: 1.7x higher FLOPS/HBM-byte ratio, correlating with
//!   the 1.4x lower CF throughput efficiency (Sec. 5.4.1);
//! * Perlmutter's FP64 *tensor cores* double the GEMM-achievable peak,
//!   explaining the 85.7% of (vector) peak observed for CF (Fig. 4);
//! * RCCL + AWS-OFI plugin: "order of magnitude" higher allreduce bus
//!   bandwidth than Cray MPICH (Sec. 5.4.4), unstable beyond ~1,000 nodes.

/// One GPU (the paper counts an MI250X — two GCDs — as one GPU).
#[derive(Clone, Debug)]
pub struct GpuModel {
    /// Marketing name.
    pub name: &'static str,
    /// FP64 vector peak per GPU, TFLOPS.
    pub fp64_tflops: f64,
    /// FP64 matrix/tensor-core peak per GPU, TFLOPS (equals `fp64_tflops`
    /// when absent or unused — the paper could not use MI250X matrix cores).
    pub fp64_matrix_tflops: f64,
    /// HBM bandwidth per GPU, TB/s.
    pub hbm_tbps: f64,
    /// Asymptotic large-GEMM efficiency relative to the peak actually used
    /// by GEMMs (`fp64_matrix_tflops`).
    pub gemm_eff_max: f64,
    /// Block size at which GEMM efficiency reaches half its asymptote
    /// (tile-quantization / launch-overhead scale).
    pub gemm_n_half: f64,
    /// Throughput multiplier of FP32 over FP64 GEMMs (2.0 on vector GPUs;
    /// 1.0 on A100, whose FP64 tensor cores already run at the FP32 rate).
    pub fp32_speedup: f64,
}

impl GpuModel {
    /// GEMM efficiency for smallest matrix dimension `n`, relative to the
    /// FP64 *vector* peak (can exceed 1.0 on tensor-core hardware).
    pub fn gemm_eff(&self, n: f64) -> f64 {
        let sat = n / (n + self.gemm_n_half);
        self.gemm_eff_max * sat * self.fp64_matrix_tflops / self.fp64_tflops
    }

    /// Seconds for a GEMM performing `flops` FP64-equivalent operations with
    /// smallest dimension `n_small`. `fp32_fraction` of the work may run at
    /// 2x rate (mixed precision).
    pub fn gemm_seconds(&self, flops: f64, n_small: f64, fp32_fraction: f64) -> f64 {
        let rate = self.fp64_tflops * 1e12 * self.gemm_eff(n_small);
        let f64_part = flops * (1.0 - fp32_fraction);
        let f32_part = flops * fp32_fraction;
        f64_part / rate + f32_part / (self.fp32_speedup * rate)
    }

    /// Seconds to stream `bytes` through HBM.
    pub fn mem_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.hbm_tbps * 1e12)
    }
}

/// A machine (interconnect + node composition).
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Machine name.
    pub name: &'static str,
    /// GPUs per node (paper convention: MI250X = 1 GPU = 2 GCDs).
    pub gpus_per_node: usize,
    /// The GPU.
    pub gpu: GpuModel,
    /// Injection bandwidth per node, GB/s.
    pub nic_gbps: f64,
    /// Point-to-point message latency, seconds.
    pub latency_s: f64,
    /// Fraction of NIC bandwidth achieved by the plain (Cray MPICH)
    /// allreduce.
    pub mpi_allreduce_eff: f64,
    /// Bus-bandwidth multiplier of RCCL/NCCL allreduce over plain MPI
    /// (paper: "order of magnitude improvement").
    pub ccl_allreduce_speedup: f64,
    /// Node count beyond which RCCL is unstable and the code falls back to
    /// MPI (paper Sec. 5.4.4: ~1,000 Frontier nodes).
    pub ccl_max_nodes: usize,
    /// Fixed per-kernel launch/synchronization overhead, seconds. Dominates
    /// strong-scaling limits when per-GPU work shrinks.
    pub kernel_overhead_s: f64,
}

impl MachineModel {
    /// FP64 vector peak of one node, TFLOPS.
    pub fn node_peak_tflops(&self) -> f64 {
        self.gpus_per_node as f64 * self.gpu.fp64_tflops
    }

    /// NIC bandwidth share of one GPU, bytes/s.
    pub fn nic_bw_per_gpu(&self) -> f64 {
        self.nic_gbps * 1e9 / self.gpus_per_node as f64
    }

    /// Point-to-point time for `bytes` from one GPU (`gpu_aware` routes
    /// directly; otherwise staging through the host costs ~1.5x, the
    /// paper's observed GPU-aware-MPI speedup on the CF step).
    pub fn p2p_seconds(&self, bytes: f64, gpu_aware: bool) -> f64 {
        let bw = self.nic_bw_per_gpu() * if gpu_aware { 1.0 } else { 1.0 / 1.5 };
        self.latency_s + bytes / bw
    }

    /// Ring-allreduce time for `bytes` per rank over `nodes` nodes.
    /// `use_ccl` selects the NCCL/RCCL bus-bandwidth path (automatically
    /// disabled above [`Self::ccl_max_nodes`]).
    pub fn allreduce_seconds(&self, bytes: f64, nodes: usize, use_ccl: bool) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let ccl = use_ccl && nodes <= self.ccl_max_nodes;
        let bus = self.nic_gbps
            * 1e9
            * self.mpi_allreduce_eff
            * if ccl { self.ccl_allreduce_speedup } else { 1.0 };
        let n = nodes as f64;
        2.0 * bytes * (n - 1.0) / n / bus + 2.0 * (n).log2() * self.latency_s
    }

    /// OLCF Frontier (and its test system Crusher): 4x AMD MI250X per node.
    pub fn frontier() -> Self {
        MachineModel {
            name: "Frontier",
            gpus_per_node: 4,
            gpu: GpuModel {
                name: "AMD MI250X",
                fp64_tflops: 47.8,
                fp64_matrix_tflops: 47.8, // matrix cores unusable (paper fn. 2)
                hbm_tbps: 3.2768,
                gemm_eff_max: 0.62,
                gemm_n_half: 140.0,
                fp32_speedup: 2.0,
            },
            nic_gbps: 100.0, // 4x Slingshot-11 @ 25 GB/s
            latency_s: 2.0e-6,
            mpi_allreduce_eff: 0.06,
            ccl_allreduce_speedup: 10.0,
            ccl_max_nodes: 1000,
            kernel_overhead_s: 2.0e-4,
        }
    }

    /// Crusher is architecturally identical to Frontier.
    pub fn crusher() -> Self {
        let mut m = Self::frontier();
        m.name = "Crusher";
        m
    }

    /// OLCF Summit: 6x NVIDIA V100 per node.
    pub fn summit() -> Self {
        MachineModel {
            name: "Summit",
            gpus_per_node: 6,
            gpu: GpuModel {
                name: "NVIDIA V100",
                fp64_tflops: 7.8,
                fp64_matrix_tflops: 7.8,
                hbm_tbps: 0.9,
                gemm_eff_max: 0.68,
                gemm_n_half: 45.0,
                fp32_speedup: 2.0,
            },
            nic_gbps: 25.0, // dual-rail EDR InfiniBand
            latency_s: 1.5e-6,
            mpi_allreduce_eff: 0.30,
            ccl_allreduce_speedup: 3.0,
            ccl_max_nodes: usize::MAX,
            kernel_overhead_s: 9.0e-4,
        }
    }

    /// NERSC Perlmutter: 4x NVIDIA A100 per node (FP64 tensor cores give
    /// 2x the vector peak for GEMMs).
    pub fn perlmutter() -> Self {
        MachineModel {
            name: "Perlmutter",
            gpus_per_node: 4,
            gpu: GpuModel {
                name: "NVIDIA A100",
                fp64_tflops: 9.7,
                fp64_matrix_tflops: 19.4,
                hbm_tbps: 1.555,
                gemm_eff_max: 0.55,
                gemm_n_half: 55.0,
                fp32_speedup: 1.0,
            },
            nic_gbps: 25.0, // Slingshot-10/11
            latency_s: 2.0e-6,
            mpi_allreduce_eff: 0.30,
            ccl_allreduce_speedup: 3.0,
            ccl_max_nodes: usize::MAX,
            kernel_overhead_s: 3.0e-4,
        }
    }
}

/// A machine plus a node count.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// The machine model.
    pub machine: MachineModel,
    /// Number of nodes used.
    pub nodes: usize,
}

impl ClusterSpec {
    /// Convenience constructor.
    pub fn new(machine: MachineModel, nodes: usize) -> Self {
        Self { machine, nodes }
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.machine.gpus_per_node
    }

    /// Aggregate FP64 vector peak, PFLOPS.
    pub fn peak_pflops(&self) -> f64 {
        self.nodes as f64 * self.machine.node_peak_tflops() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_node_peak_matches_paper_table3() {
        // 8,000 nodes -> 1,529.6 PFLOPS FP64 peak (Table 3)
        let c = ClusterSpec::new(MachineModel::frontier(), 8000);
        assert!(
            (c.peak_pflops() - 1529.6).abs() < 0.1,
            "{}",
            c.peak_pflops()
        );
        // 2,400 nodes -> 458.9 ; 6,000 -> 1,147.2
        let a = ClusterSpec::new(MachineModel::frontier(), 2400);
        assert!((a.peak_pflops() - 458.88).abs() < 0.1);
        let b = ClusterSpec::new(MachineModel::frontier(), 6000);
        assert!((b.peak_pflops() - 1147.2).abs() < 0.1);
    }

    #[test]
    fn crusher_summit_balance_ratio_is_about_1_7() {
        // paper Sec 5.4.1: Crusher node has 1.7x the FLOPS/HBM-byte ratio
        // of a Summit node
        let cr = MachineModel::crusher();
        let su = MachineModel::summit();
        let ratio =
            |m: &MachineModel| m.node_peak_tflops() / (m.gpus_per_node as f64 * m.gpu.hbm_tbps);
        let r = ratio(&cr) / ratio(&su);
        assert!((r - 1.7).abs() < 0.15, "balance ratio {r}");
    }

    #[test]
    fn gemm_efficiency_rises_with_block_size() {
        let g = &MachineModel::summit().gpu;
        let e50 = g.gemm_eff(50.0);
        let e200 = g.gemm_eff(200.0);
        let e500 = g.gemm_eff(500.0);
        assert!(e50 < e200 && e200 < e500);
        assert!(e500 < g.gemm_eff_max);
    }

    #[test]
    fn perlmutter_tensor_cores_exceed_vector_efficiency() {
        // relative-to-vector-peak efficiency can exceed what any vector-only
        // GPU reaches
        let p = &MachineModel::perlmutter().gpu;
        let s = &MachineModel::summit().gpu;
        assert!(p.gemm_eff(500.0) > s.gemm_eff(500.0));
        assert!(p.gemm_eff(2000.0) > 0.9); // near/above vector peak
    }

    #[test]
    fn mixed_precision_gemm_is_faster() {
        let g = &MachineModel::frontier().gpu;
        let t64 = g.gemm_seconds(1e12, 500.0, 0.0);
        let tmx = g.gemm_seconds(1e12, 500.0, 0.9);
        assert!(tmx < t64 * 0.7);
        assert!(tmx > t64 * 0.5); // cannot beat the 2x bound
    }

    #[test]
    fn allreduce_scales_with_log_nodes_latency_term() {
        let m = MachineModel::frontier();
        let t_small = m.allreduce_seconds(8.0, 16, false);
        let t_big = m.allreduce_seconds(8.0, 4096, false);
        assert!(t_big > t_small);
        // tiny payload: dominated by the latency term ~ 2 log2(n) alpha
        assert!((t_big - 2.0 * (4096f64).log2() * m.latency_s).abs() < 1e-5);
    }

    #[test]
    fn rccl_speedup_disabled_beyond_stability_limit() {
        let m = MachineModel::frontier();
        let bytes = 1e9;
        let with_ccl = m.allreduce_seconds(bytes, 800, true);
        let without = m.allreduce_seconds(bytes, 800, false);
        assert!(with_ccl < without / 5.0);
        // above 1,000 nodes RCCL falls back to MPI
        let big_ccl = m.allreduce_seconds(bytes, 2000, true);
        let big_mpi = m.allreduce_seconds(bytes, 2000, false);
        assert!((big_ccl - big_mpi).abs() < 1e-12);
    }

    #[test]
    fn gpu_aware_p2p_is_1_5x_faster_asymptotically() {
        let m = MachineModel::frontier();
        let bytes = 1e8;
        let aware = m.p2p_seconds(bytes, true);
        let staged = m.p2p_seconds(bytes, false);
        assert!((staged / aware - 1.5).abs() < 0.05);
    }
}

//! Fig. 4: Chebyshev-filtering throughput (% of FP64 peak) vs wavefunction
//! block size B_f on Summit, Crusher and Perlmutter, using the DislocMgY
//! system ((6,016 atoms, 12,041 e-) x 2 k-points, p = 8, ~96M DoF).
//!
//! Paper targets at B_f = 500: Summit 56.3%, Crusher 41.1%, Perlmutter
//! 85.7% (FP64 tensor cores), rising with B_f in all cases.
//!
//! The last row is measured, not modelled: this host's throughput on the
//! filter the solver runs (`chebyshev_filter_scratch` on the Kohn-Sham
//! Hamiltonian of `scf-wide`'s space) at 8..128 columns.

use dft_bench::{disloc_mg_y, section};
use dft_core::chebyshev::{
    chebyshev_filter_flops, chebyshev_filter_scratch, lanczos_bounds, random_subspace, CfScratch,
};
use dft_core::hamiltonian::KsHamiltonian;
use dft_fem::mesh::Mesh3d;
use dft_fem::space::FeSpace;
use dft_hpc::event::pipelined_blocks;
use dft_hpc::machine::{ClusterSpec, MachineModel};
use dft_hpc::schedule::{DftSystemSpec, SolverOptions, CF_L1_PASSES};
use std::time::Instant;

/// Chebyshev degree of the measured filter (the benchmark workloads' degree).
const CF_DEGREE: usize = 30;

/// This host's GFLOP/s on one degree-30 Chebyshev filter of `bf` columns
/// for each `bf` in `bfs`, on the periodic p = 5 space of `cells`^3 cells
/// (`scf-wide`'s at 4: 8,000 DoF), with the filter window set from
/// `lanczos_bounds` as the `chfes_steps` criterion group sets it. The flops
/// are `chebyshev_filter_flops`; the time is the best of three runs after a
/// warm-up, since interference only ever slows a run down.
fn measured_cf_gflops(cells: usize, bfs: &[usize]) -> Vec<f64> {
    let space = FeSpace::new(Mesh3d::periodic_cube(cells, 10.0, 5));
    let v: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h, 10, 1);
    let (a, a0) = (tmin + 0.2 * (tmax - tmin), tmin - 1.0);
    let mut scratch = CfScratch::new();
    bfs.iter()
        .map(|&bf| {
            let psi0 = random_subspace::<f64>(space.ndofs(), bf, 3);
            let mut psi = psi0.clone();
            let mut best = f64::INFINITY;
            for run in 0..4 {
                psi.as_mut_slice().copy_from_slice(psi0.as_slice());
                let t0 = Instant::now();
                chebyshev_filter_scratch(&h, &mut psi, CF_DEGREE, a, tmax, a0, &mut scratch);
                if run > 0 {
                    best = best.min(t0.elapsed().as_secs_f64());
                }
            }
            chebyshev_filter_flops(&h, bf, CF_DEGREE) as f64 / best / 1e9
        })
        .collect()
}

/// CF efficiency for one machine at a given block size (one filtered
/// sweep over all states; same composition as the schedule's CF step).
fn cf_efficiency(sys: &DftSystemSpec, cluster: &ClusterSpec, bf: f64) -> f64 {
    let opts = SolverOptions {
        block_size: bf,
        ..SolverOptions::default()
    };
    let gpus = cluster.total_gpus() as f64 / sys.kpoints as f64;
    let m_loc = sys.dofs / gpus;
    let cells_loc = sys.ncells() / gpus;
    let gpu = &cluster.machine.gpu;
    let flops = 2.0 * sys.gemm_factor() * sys.nloc() * sys.nloc() * cells_loc * bf;
    let t_gemm = gpu.gemm_seconds(flops, bf, 0.0);
    let t_l1 = gpu.mem_seconds(CF_L1_PASSES * m_loc * bf * sys.scalar_bytes());
    let wire = 4.0 * if sys.complex { 2.0 } else { 1.0 };
    let t_halo = cluster
        .machine
        .p2p_seconds(6.0 * m_loc.powf(2.0 / 3.0) * bf * wire, opts.gpu_aware);
    let n_units = ((sys.states / bf).ceil() as usize).max(1);
    let t = pipelined_blocks(n_units, t_gemm + t_l1, t_halo, true);
    let total_flops = flops * n_units as f64;
    total_flops / t / (gpu.fp64_tflops * 1e12)
}

fn main() {
    let sys = disloc_mg_y();
    // 160 nodes on each machine (the paper quotes Crusher at 160 nodes)
    let machines = [
        ("Summit", MachineModel::summit(), 160usize, 56.3),
        ("Crusher", MachineModel::crusher(), 160, 41.1),
        ("Perlmutter", MachineModel::perlmutter(), 160, 85.7),
    ];
    section("Fig. 4 — CF throughput vs block size B_f (% of FP64 peak)");
    print!("{:<8}", "B_f");
    for (name, _, _, _) in &machines {
        print!("{name:>12}");
    }
    println!();
    let bfs = [25.0, 50.0, 100.0, 200.0, 350.0, 500.0];
    let mut at500 = Vec::new();
    for (bi, &bf) in bfs.iter().enumerate() {
        print!("{bf:<8.0}");
        let last = bi == bfs.len() - 1;
        for (_, m, nodes, _) in &machines {
            let eff = cf_efficiency(&sys, &ClusterSpec::new(m.clone(), *nodes), bf);
            print!("{:>11.1}%", 100.0 * eff);
            if last {
                at500.push(100.0 * eff);
            }
        }
        println!();
    }
    println!();
    println!("paper @ B_f=500:   Summit 56.3%   Crusher 41.1%   Perlmutter 85.7%");
    println!(
        "model @ B_f=500:   Summit {:.1}%   Crusher {:.1}%   Perlmutter {:.1}%",
        at500[0], at500[1], at500[2]
    );
    println!(
        "shape: Perlmutter > Summit > Crusher: {}",
        at500[2] > at500[0] && at500[0] > at500[1]
    );

    section("Fig. 4 analogue — this host (measured), degree-30 CF, p=5, 8,000 DoF");
    let host_bfs = [8usize, 16, 32, 48, 64, 96, 128];
    print!("{:<8}", "B_f");
    for bf in host_bfs {
        print!("{bf:>8}");
    }
    println!();
    print!("{:<8}", "GFLOPS");
    for gflops in measured_cf_gflops(4, &host_bfs) {
        print!("{gflops:>8.1}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_cf_rate_is_positive_and_finite() {
        let gflops = measured_cf_gflops(2, &[8]);
        assert_eq!(gflops.len(), 1);
        assert!(gflops[0].is_finite() && gflops[0] > 0.0, "{gflops:?}");
    }
}

//! Fig. 4: Chebyshev-filtering throughput (% of FP64 peak) vs wavefunction
//! block size B_f on Summit, Crusher and Perlmutter, using the DislocMgY
//! system ((6,016 atoms, 12,041 e-) x 2 k-points, p = 8, ~96M DoF).
//!
//! Paper targets at B_f = 500: Summit 56.3%, Crusher 41.1%, Perlmutter
//! 85.7% (FP64 tensor cores), rising with B_f in all cases.
//!
//! The last row is measured, not modelled: this host's throughput on the
//! same kernel shape (the p = 5 cell-batched GEMM) at 8..128 columns.

use dft_bench::{disloc_mg_y, section};
use dft_hpc::event::pipelined_blocks;
use dft_hpc::machine::{ClusterSpec, MachineModel};
use dft_hpc::schedule::{DftSystemSpec, SolverOptions, CF_L1_PASSES};
use dft_linalg::{batched_gemm, BatchLayout};
use std::time::Instant;

/// This host's GFLOP/s on the p = 5 cell-batched GEMM (m = k = 216, one
/// H_c per cell) at `bf` columns per cell. The cell count is chosen so
/// every `bf` multiplies ~1024 columns in total; best of three runs,
/// since interference only ever slows a run down.
fn measured_cell_gemm_gflops(bf: usize) -> f64 {
    let m = 216;
    let batch = 1024usize.div_ceil(bf);
    let layout = BatchLayout::packed(m, bf, m, batch);
    let a: Vec<f64> = (0..m * m * batch)
        .map(|i| ((i % (m * m) * 3) as f64 * 0.004).sin())
        .collect();
    let b: Vec<f64> = (0..m * bf * batch)
        .map(|i| ((i * 7) as f64 * 0.003).cos())
        .collect();
    let mut c = vec![0.0f64; m * bf * batch];
    batched_gemm(layout, 1.0, &a, &b, 0.0, &mut c); // warm the pack buffers
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        batched_gemm(layout, 1.0, &a, &b, 0.0, &mut c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    layout.flops::<f64>() as f64 / best / 1e9
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

    section("Fig. 4 analogue — this host (measured), p=5 cell-batched GEMM");
    let host_bfs = [8usize, 16, 32, 48, 64, 96, 128];
    print!("{:<8}", "B_f");
    for bf in host_bfs {
        print!("{bf:>8}");
    }
    println!();
    print!("{:<8}", "GFLOPS");
    for bf in host_bfs {
        print!("{:>8.1}", measured_cell_gemm_gflops(bf));
    }
    println!();
}

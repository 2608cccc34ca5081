//! Sec. 5.4.2 ablation: mixed FP32/FP64 precision.
//!
//! Two real measurements: (1) the energy error of a mixed-precision SCF vs
//! full FP64 (paper: "well within the target discretization accuracy");
//! (2) the wire-traffic reduction of FP32 boundary communication on the
//! threaded cluster runtime (paper: ~2x).

use dft_bench::pipeline::MiniSystem;
use dft_bench::section;
use dft_core::cluster::grid::GridShape;
use dft_core::cluster::scf::{distributed_scf, DistScfConfig};
use dft_core::scf::{scf, KPoint};
use dft_core::xc::Lda;
use dft_hpc::comm::{run_cluster, WirePrecision};
use std::sync::atomic::Ordering;

fn main() {
    section("Sec. 5.4.2 — mixed-precision ChFES accuracy (real miniature SCF)");
    let ms = &MiniSystem::training_set()[1];
    let space = ms.space();
    let sys = ms.atomic_system();
    let mut cfg = ms.scf_config();
    let r64 = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
    cfg.mixed_precision = true;
    let rmx = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
    println!("FP64  free energy: {:+.8} Ha", r64.energy.free_energy);
    println!("mixed free energy: {:+.8} Ha", rmx.energy.free_energy);
    println!(
        "|dE| = {:.2e} Ha/atom (target discretization accuracy: 1e-4 Ha/atom)",
        (r64.energy.free_energy - rmx.energy.free_energy).abs() / sys.atoms.len() as f64
    );

    section("Sec. 5.4.2 — FP32 boundary-communication traffic (threaded runtime)");
    // halo exchange of a 20k-value partition boundary among 8 ranks
    let boundary: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut results = Vec::new();
    for wire in [WirePrecision::Fp64, WirePrecision::Fp32] {
        let b = boundary.clone();
        let (errs, stats) = run_cluster(8, move |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send_f64(next, 1, &b, wire).expect("send");
            let deadline = std::time::Instant::now() + c.timeout();
            let got = c.recv_f64_deadline(prev, 1, wire, deadline).expect("recv");
            got.iter()
                .zip(b.iter())
                .map(|(a, t)| (a - t).abs())
                .fold(0.0f64, f64::max)
        });
        let bytes = stats.bytes_sent.load(Ordering::Relaxed);
        let max_err = errs.iter().cloned().fold(0.0f64, f64::max);
        println!("{wire:?}: {bytes:>9} bytes on the wire, max promotion error {max_err:.2e}");
        results.push(bytes as f64);
    }
    println!(
        "traffic reduction: {:.2}x (paper: ~2x), FP64 accumulation retained",
        results[0] / results[1]
    );

    section("Sec. 5.4.2 — FP32 off-diagonal subspace reductions (4x2 process grid)");
    // the off-band-diagonal blocks of S and the projected Hamiltonian decay
    // toward zero as the SCF converges, so demoting only those blocks to an
    // FP32 wire (Cholesky pivot blocks and the cleanup pass stay FP64)
    // leaves the energy within the 1e-8 Ha acceptance band
    let run_grid = |subspace_fp32: bool| {
        // all-FP64 base; only the subspace wire varies
        let mut dcfg = DistScfConfig::new(ms.scf_config()).with_grid(GridShape::new(4, 2, 1));
        if subspace_fp32 {
            dcfg = dcfg.with_subspace_fp32();
        }
        let (space, sys) = (ms.space(), ms.atomic_system());
        let (res, stats) = run_cluster(8, move |c| {
            distributed_scf(c, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
        });
        assert!(res[0].converged);
        (res[0].energy.free_energy, stats.snapshot())
    };
    let (e_sub64, snap64) = run_grid(false);
    let (e_sub32, snap32) = run_grid(true);
    println!(
        "FP64 subspace wire: {e_sub64:+.10} Ha ({} B, all FP64)",
        snap64.0
    );
    println!(
        "FP32 off-diag wire: {e_sub32:+.10} Ha ({} B, {} of them FP32)",
        snap32.0, snap32.3
    );
    println!(
        "|dE| = {:.2e} Ha (acceptance band: 1e-8 Ha)",
        (e_sub64 - e_sub32).abs()
    );
}

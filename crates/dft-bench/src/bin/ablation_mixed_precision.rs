//! Sec. 5.4.2 ablation: mixed FP32/FP64 precision, toggled by its one
//! switch, `ScfConfig::mixed_precision`.
//!
//! Two real measurements: (1) the energy error of a mixed-precision SCF vs
//! full FP64 (paper: "well within the target discretization accuracy");
//! (2) the same toggle on a distributed SCF over a 4 x 2 process grid, where
//! it also puts the filter's ghost exchange and the off-band-diagonal rows
//! of the subspace reductions on an FP32 wire: the energy difference and
//! the wire bytes, total and FP32, that the cluster actually sent.
//!
//! Run: `cargo run --release -p dft-bench --bin ablation_mixed_precision`.

use dft_bench::pipeline::MiniSystem;
use dft_bench::section;
use dft_core::cluster::grid::GridShape;
use dft_core::cluster::scf::{distributed_scf, DistScfConfig};
use dft_core::scf::{scf, KPoint};
use dft_core::xc::Lda;
use dft_hpc::comm::run_cluster;

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

    section("Sec. 5.4.2 — mixed precision on the wire (4x2 process grid, distributed SCF)");
    // the off-band-diagonal blocks of S and the projected Hamiltonian decay
    // toward zero as the SCF converges, so demoting only those blocks (and
    // the filter's ghosts) to an FP32 wire — Cholesky pivot blocks and the
    // cleanup pass stay FP64 — leaves the energy within the 1e-8 Ha band
    let shape = GridShape::new(4, 2, 1);
    let run_grid = |mixed_precision: bool| {
        let mut base = ms.scf_config();
        base.mixed_precision = mixed_precision;
        let dcfg = DistScfConfig::new(base).with_grid(shape);
        let (space, sys) = (ms.space(), ms.atomic_system());
        let (res, stats) = run_cluster(shape.nranks(), move |c| {
            distributed_scf(c, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
        });
        assert!(res[0].converged);
        let (total, _, _, fp32) = stats.snapshot();
        (res[0].energy.free_energy, total, fp32)
    };
    let (e64, total64, fp32_64) = run_grid(false);
    let (emx, totalmx, fp32_mx) = run_grid(true);
    println!("FP64  run: {e64:+.10} Ha, {total64:>9} B on the wire, {fp32_64} of them FP32");
    println!("mixed run: {emx:+.10} Ha, {totalmx:>9} B on the wire, {fp32_mx} of them FP32");
    println!(
        "|dE| = {:.2e} Ha (acceptance band: 1e-8 Ha); wire bytes {:.2}x of FP64",
        (e64 - emx).abs(),
        totalmx as f64 / total64 as f64
    );
}

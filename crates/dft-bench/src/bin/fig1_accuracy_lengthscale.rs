//! Fig. 1: the accuracy / accessible-length-scale frontier.
//!
//! Levels 1-3 (DFT with LDA/GGA) scale to large systems but sit far from
//! quantum accuracy; Level 4+ (QMB) is quantum-accurate but hits a
//! combinatorial wall at O(10^3) electrons. DFT-FE-MLXC breaks the
//! trade-off. This binary measures both axes with the real solvers:
//!
//! * the QMB wall: FCI determinant dimension and solve time vs electrons
//!   (measured with the dft-qmb ladder + projected growth);
//! * the DFT cost: O(N^3) from the performance schedule;
//! * the accuracy axis: LDA/PBE/MLXC errors vs the hidden truth (the
//!   Fig. 3 machinery, quick settings).

use dft_bench::pipeline::{train_mlxc_from_invdft, MiniSystem, PipelineConfig};
use dft_bench::section;
use dft_core::forces::ForceError;
use dft_core::scf::{scf, KPoint};
use dft_core::xc::{Lda, MlxcFunctional, Pbe, SyntheticTruth, XcFunctional};
use dft_qmb::scaling::{projected_fci_dimension, qmb_scaling_ladder};

fn main() -> Result<(), ForceError> {
    section("Fig. 1 — the QMB wall (measured FCI ladder)");
    println!(
        "{:<8} {:>10} {:>14} {:>12} {:>16}",
        "system", "electrons", "determinants", "solve (s)", "E (Ha)"
    );
    for p in qmb_scaling_ladder(8, 121, 20.0) {
        println!(
            "{:<8} {:>10} {:>14} {:>12.3} {:>16.6}",
            p.name, p.electrons, p.dimension, p.solve_seconds, p.energy
        );
    }
    println!();
    println!("projected FCI dimension (2 orbitals/electron):");
    for n in [2usize, 4, 8, 12, 16, 20] {
        println!(
            "  N = {n:>3} electrons  ->  dim ~ {:.3e}",
            projected_fci_dimension(n)
        );
    }
    println!("  => exponential wall at O(10-10^3) electrons (paper Fig. 1, Level 4+)");

    section("Fig. 1 — DFT cost scaling O(N^3) (schedule model, Frontier 100 nodes)");
    use dft_hpc::machine::{ClusterSpec, MachineModel};
    use dft_hpc::schedule::{scf_step, DftSystemSpec, SolverOptions};
    let cluster = ClusterSpec::new(MachineModel::frontier(), 100);
    let mut prev: Option<f64> = None;
    for electrons in [1.0e4, 2.0e4, 4.0e4, 8.0e4] {
        let sys = DftSystemSpec::new(
            "scaling",
            electrons / 20.0,
            electrons,
            electrons * 1800.0,
            1,
            false,
            8,
        );
        let r = scf_step(&sys, &SolverOptions::default(), &cluster);
        let note = prev.map_or(String::new(), |p| {
            format!("  (x{:.1} per 2x electrons)", r.total_seconds / p)
        });
        println!(
            "  N = {electrons:>9.0} e-   t/SCF = {:>9.1} s{note}",
            r.total_seconds
        );
        prev = Some(r.total_seconds);
    }

    section("Fig. 1 — accuracy ladder vs hidden truth (miniature, real SCF)");
    let cfg = PipelineConfig {
        invdft_iters: 40,
        epochs: 250,
        ..PipelineConfig::default()
    };
    let (model, _, _) = train_mlxc_from_invdft(&MiniSystem::training_set()[..2], &cfg)?;
    let mlxc = MlxcFunctional::new(model);
    let funcs: [(&str, &dyn XcFunctional); 3] = [
        ("Level 1  LDA", &Lda),
        ("Level 2  PBE", &Pbe),
        ("Level 4+ MLXC", &mlxc),
    ];
    let ms = &MiniSystem::test_set()[0];
    let space = ms.space();
    let sys = ms.atomic_system();
    let truth = scf(
        &space,
        &sys,
        &SyntheticTruth,
        &ms.scf_config(),
        &[KPoint::gamma()],
    );
    for (name, f) in funcs {
        let r = scf(&space, &sys, f, &ms.scf_config(), &[KPoint::gamma()]);
        println!(
            "  {name:<14} |E - E_truth| = {:>8.2} mHa/atom",
            (r.energy.free_energy - truth.energy.free_energy).abs() * 1000.0
                / ms.atoms.len() as f64
        );
    }
    Ok(())
}

//! Cross-crate integration tests: structures from `dft-materials` driven
//! through the real `dft-core` solver, and the invDFT -> MLXC pipeline.

use dft_fe_mlxc::core::scf::{scf, KPoint, ScfConfig};
use dft_fe_mlxc::core::system::{Atom, AtomKind, AtomicSystem};
use dft_fe_mlxc::core::xc::{Lda, MlxcFunctional, SyntheticTruth};
use dft_fe_mlxc::fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_fe_mlxc::fem::space::FeSpace;
use dft_fe_mlxc::materials::quasicrystal::{nanoparticle, QcParams};

fn atom_cfg(n_el: f64) -> ScfConfig {
    ScfConfig {
        n_states: (n_el / 2.0).ceil() as usize + 3,
        kt: 0.02,
        tol: 5e-5,
        max_iter: 35,
        cheb_degree: 30,
        first_iter_cf_passes: 5,
        ..ScfConfig::default()
    }
}

#[test]
fn quasicrystal_cluster_ground_state_converges() {
    // carve a tiny aperiodic cluster and solve its electronic structure
    let params = QcParams {
        lattice_constant: 4.4,
        window: 1.5,
        yb_window_fraction: 0.45,
        n_range: 2,
    };
    let np = nanoparticle(&params, 5.0, 6.0);
    assert!(np.n_atoms() >= 3, "cluster of {} atoms", np.n_atoms());
    let atoms: Vec<Atom> = np
        .positions
        .iter()
        .map(|&pos| Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos,
        })
        .collect();
    let system = AtomicSystem::new(atoms);
    let n_el = system.n_electrons();
    let centres: [Vec<f64>; 3] = [
        np.positions.iter().map(|p| p[0]).collect(),
        np.positions.iter().map(|p| p[1]).collect(),
        np.positions.iter().map(|p| p[2]).collect(),
    ];
    let mk = |d: usize| {
        Axis::graded(
            0.0,
            np.cell[d],
            0.9,
            3.0,
            &centres[d],
            2.0,
            BoundaryCondition::Dirichlet,
        )
    };
    let space = FeSpace::new(Mesh3d::new([mk(0), mk(1), mk(2)], 3));
    let r = scf(&space, &system, &Lda, &atom_cfg(n_el), &[KPoint::gamma()]);
    assert!(r.converged, "QC cluster SCF: {:?}", r.residual_history);
    assert!((r.density.integrate(&space) - n_el).abs() < 1e-5);
    assert!(r.energy.free_energy < 0.0);
}

#[test]
fn full_pipeline_mlxc_beats_lda_against_hidden_truth() {
    use dft_bench::pipeline::{train_mlxc_from_invdft, MiniSystem, PipelineConfig};
    let cfg = PipelineConfig {
        invdft_iters: 45,
        epochs: 250,
        ..PipelineConfig::default()
    };
    let train_set = MiniSystem::training_set();
    let (model, loss, diags) =
        train_mlxc_from_invdft(&train_set[..2], &cfg).expect("target electrostatics");
    // training made progress
    assert!(
        loss.last().unwrap() < &(0.5 * loss[0]),
        "loss {:?} -> {:?}",
        loss[0],
        loss.last()
    );
    for d in &diags {
        assert!(
            d.invdft_last < 0.5 * d.invdft_first,
            "invDFT stalled on {}: {} -> {}",
            d.name,
            d.invdft_first,
            d.invdft_last
        );
    }
    // held-out comparison
    let ms = &MiniSystem::test_set()[0];
    let space = ms.space();
    let sys = ms.atomic_system();
    let cfg_scf = ms.scf_config();
    let truth = scf(&space, &sys, &SyntheticTruth, &cfg_scf, &[KPoint::gamma()]);
    let lda = scf(&space, &sys, &Lda, &cfg_scf, &[KPoint::gamma()]);
    let mlxc_f = MlxcFunctional::new(model);
    let ml = scf(&space, &sys, &mlxc_f, &cfg_scf, &[KPoint::gamma()]);
    assert!(truth.converged && lda.converged && ml.converged);
    let e_lda = (lda.energy.free_energy - truth.energy.free_energy).abs();
    let e_ml = (ml.energy.free_energy - truth.energy.free_energy).abs();
    assert!(
        e_ml < e_lda,
        "MLXC ({:.2} mHa) must beat LDA ({:.2} mHa) against the hidden truth",
        1000.0 * e_ml,
        1000.0 * e_lda
    );
}

#[test]
fn periodic_mg_cell_with_kpoints_converges() {
    use dft_fe_mlxc::materials::mg::hcp_supercell;
    let s = hcp_supercell(1, 1, 1, [true, true, true]);
    let atoms: Vec<Atom> = s
        .positions
        .iter()
        .map(|&pos| Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.9 },
            pos,
        })
        .collect();
    let system = AtomicSystem::new(atoms);
    let mk = |d: usize, n: usize| Axis::uniform(n, 0.0, s.cell[d], BoundaryCondition::Periodic);
    let space = FeSpace::new(Mesh3d::new([mk(0, 2), mk(1, 3), mk(2, 3)], 3));
    let n_el = system.n_electrons();
    let kpts = [
        KPoint {
            frac: [0.0, 0.0, 0.0],
            weight: 0.5,
        },
        KPoint {
            frac: [0.25, 0.0, 0.0],
            weight: 0.5,
        },
    ];
    let r = scf(&space, &system, &Lda, &atom_cfg(n_el), &kpts);
    assert!(r.converged, "Mg cell: {:?}", r.residual_history);
    assert!((r.density.integrate(&space) - n_el).abs() < 1e-5);
    // metallic smearing: entropy term non-trivial or zero, but energy real
    assert!(r.energy.free_energy.is_finite());
}

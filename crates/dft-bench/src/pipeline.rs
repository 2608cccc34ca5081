//! The miniature end-to-end pipeline of the paper's Fig. 2:
//! synthetic-QMB densities -> inverse DFT -> MLXC training.
//!
//! "QMB" densities are ground states of the hidden-truth functional
//! (DESIGN.md S2); invDFT recovers the exact XC potential from each
//! density alone; the `{rho, v_xc}` pairs train the MLXC network with the
//! paper's composite energy+potential loss. Several experiment binaries
//! and the integration tests share this module.

use dft_core::forces::ForceError;
use dft_core::scf::{scf, KPoint, ScfConfig};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::{evaluate_xc, FeDivergence, SyntheticTruth};
use dft_fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_fem::space::FeSpace;
use dft_invdft::{invert, InvDftConfig};
use dft_mlxc::nn::Mlp;
use dft_mlxc::train::{train, Dataset, SystemSample, TrainConfig};
use dft_mlxc::MlxcModel;
use std::sync::Arc;

/// A small training/test system: a cluster of smeared pseudo-atoms in a
/// graded Dirichlet box.
#[derive(Clone, Debug)]
pub struct MiniSystem {
    /// Label.
    pub name: &'static str,
    /// Atoms as `(z, r_c, offset-from-centre)`.
    pub atoms: Vec<(f64, f64, [f64; 3])>,
    /// Box edge (Bohr).
    pub box_l: f64,
    /// FE polynomial degree.
    pub degree: usize,
}

impl MiniSystem {
    /// The training set standing in for the paper's {H2, LiH, Li, N, Ne}.
    pub fn training_set() -> Vec<MiniSystem> {
        vec![
            MiniSystem {
                name: "A1 (z=1)",
                atoms: vec![(1.0, 0.6, [0.0; 3])],
                box_l: 10.0,
                degree: 3,
            },
            MiniSystem {
                name: "A2 (z=2)",
                atoms: vec![(2.0, 0.55, [0.0; 3])],
                box_l: 10.0,
                degree: 3,
            },
            MiniSystem {
                name: "A3 (z=3)",
                atoms: vec![(3.0, 0.6, [0.0; 3])],
                box_l: 10.0,
                degree: 3,
            },
            MiniSystem {
                name: "D1 (z=1 dimer)",
                atoms: vec![(1.0, 0.6, [-1.1, 0.0, 0.0]), (1.0, 0.6, [1.1, 0.0, 0.0])],
                box_l: 11.0,
                degree: 3,
            },
        ]
    }

    /// Held-out test systems for the Fig. 3 analogue.
    pub fn test_set() -> Vec<MiniSystem> {
        vec![
            MiniSystem {
                name: "T1 (z=2 soft)",
                atoms: vec![(2.0, 0.7, [0.0; 3])],
                box_l: 10.0,
                degree: 3,
            },
            MiniSystem {
                name: "T2 (z=4)",
                atoms: vec![(4.0, 0.65, [0.0; 3])],
                box_l: 10.0,
                degree: 3,
            },
            MiniSystem {
                name: "T3 (heterodimer)",
                atoms: vec![(2.0, 0.55, [-1.2, 0.0, 0.0]), (1.0, 0.6, [1.3, 0.0, 0.0])],
                box_l: 11.0,
                degree: 3,
            },
        ]
    }

    /// FE space graded toward the atoms.
    pub fn space(&self) -> FeSpace {
        let c = self.box_l / 2.0;
        let centers_of = |d: usize| -> Vec<f64> { self.atoms.iter().map(|a| c + a.2[d]).collect() };
        let ax = |d: usize| {
            Axis::graded(
                0.0,
                self.box_l,
                0.6,
                2.5,
                &centers_of(d),
                2.5,
                BoundaryCondition::Dirichlet,
            )
        };
        FeSpace::new(Mesh3d::new([ax(0), ax(1), ax(2)], self.degree))
    }

    /// Atom list centred in the box.
    pub fn atomic_system(&self) -> AtomicSystem {
        let c = self.box_l / 2.0;
        AtomicSystem::new(
            self.atoms
                .iter()
                .map(|&(z, r_c, off)| Atom {
                    kind: AtomKind::Pseudo { z, r_c },
                    pos: [c + off[0], c + off[1], c + off[2]],
                })
                .collect(),
        )
    }

    /// Electron count.
    pub fn n_electrons(&self) -> f64 {
        self.atoms.iter().map(|a| a.0).sum()
    }

    /// An SCF configuration adequate for these miniatures.
    pub fn scf_config(&self) -> ScfConfig {
        ScfConfig {
            n_states: (self.n_electrons() / 2.0).ceil() as usize + 3,
            kt: 0.01,
            tol: 1e-6,
            max_iter: 40,
            cheb_degree: 35,
            first_iter_cf_passes: 5,
            ..ScfConfig::default()
        }
    }
}

/// Layer widths of the network the pipeline trains: a reduced net that
/// trains in seconds, in place of the paper's 5x80.
const NET_WIDTHS: [usize; 4] = [3, 24, 24, 1];

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// invDFT outer iterations per system.
    pub invdft_iters: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
    /// Print progress.
    pub verbose: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            invdft_iters: 50,
            epochs: 300,
            lr: 3e-3,
            seed: 11,
            verbose: false,
        }
    }
}

/// Per-system pipeline diagnostics.
#[derive(Clone, Debug)]
pub struct PipelineDiag {
    /// System name.
    pub name: &'static str,
    /// invDFT initial density mismatch.
    pub invdft_first: f64,
    /// invDFT final density mismatch.
    pub invdft_last: f64,
    /// Target XC energy of the system.
    pub exc_target: f64,
}

/// Run the full data-generation + training pipeline; returns the trained
/// model, the training loss history, and per-system diagnostics, or the
/// failed electrostatics of a system's inverse-DFT target.
pub fn train_mlxc_from_invdft(
    systems: &[MiniSystem],
    cfg: &PipelineConfig,
) -> Result<(MlxcModel, Vec<f64>, Vec<PipelineDiag>), ForceError> {
    let mut data: Dataset = Vec::new();
    let mut diags = Vec::new();
    for ms in systems {
        let space = Arc::new(ms.space());
        let sys = ms.atomic_system();
        // (1) synthetic-QMB ground state
        let truth = scf(
            &space,
            &sys,
            &SyntheticTruth,
            &ms.scf_config(),
            &[KPoint::gamma()],
        );
        assert!(truth.converged, "truth SCF failed for {}", ms.name);
        // the QMB-side E_xc target (the paper extracts it from many-body
        // energies; the hidden-truth substitution makes it explicit)
        let exc_target = evaluate_xc(&space, &truth.density, &SyntheticTruth).energy;
        // (2) inverse DFT: recover v_xc from the density alone
        let inv_cfg = InvDftConfig {
            n_states: ms.scf_config().n_states,
            max_iter: cfg.invdft_iters,
            tol: 1e-5,
            ..InvDftConfig::default()
        };
        let inv = invert(&space, &sys, &truth.density, &inv_cfg)?;
        if cfg.verbose {
            println!(
                "invDFT[{}]: |drho| {:.2e} -> {:.2e} in {} iters",
                ms.name,
                inv.history[0],
                inv.history.last().unwrap(),
                inv.iterations
            );
        }
        diags.push(PipelineDiag {
            name: ms.name,
            invdft_first: inv.history[0],
            invdft_last: *inv.history.last().unwrap(),
            exc_target,
        });
        // (3) assemble the training sample
        let grad = truth.density.gradient(&space);
        data.push(SystemSample {
            name: ms.name.to_string(),
            rho: truth.density.values.clone(),
            xi: vec![0.0; space.nnodes()],
            grad: [
                grad[0].values.clone(),
                grad[1].values.clone(),
                grad[2].values.clone(),
            ],
            weights: space.mass_diag().to_vec(),
            vxc_target: inv.vxc.clone(),
            exc_target,
            div_op: Box::new(FeDivergence(Arc::clone(&space))),
        });
    }

    // (4) train MLXC on the {rho, v_xc, E_xc} data
    let mut model = MlxcModel::from_net(Mlp::new(&NET_WIDTHS, cfg.seed));
    let tc = TrainConfig {
        epochs: cfg.epochs,
        lr: cfg.lr,
        w_energy: 1.0,
        w_potential: 1.0,
    };
    let report = train(&mut model, &data, &tc);
    Ok((model, report.loss_history, diags))
}

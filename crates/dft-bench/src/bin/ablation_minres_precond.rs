//! Sec. 5.3.1 ablation: the inverse-diagonal-Laplacian preconditioner of
//! the adjoint block-MINRES solve (paper: ~5x fewer iterations).
//!
//! This runs the REAL miniature inverse-DFT adjoint solves with and
//! without the preconditioner and also a standalone shifted FE system.

use dft_bench::pipeline::MiniSystem;
use dft_bench::section;
use dft_core::forces::ForceError;
use dft_core::hamiltonian::KsHamiltonian;
use dft_core::scf::{scf, KPoint};
use dft_core::xc::SyntheticTruth;
use dft_invdft::{invert, laplacian_diagonal_prec, InvDftConfig};
use dft_linalg::iterative::{block_minres, IdentityPrec};
use dft_linalg::matrix::Matrix;

fn main() -> Result<(), ForceError> {
    section("Sec. 5.3.1 — adjoint MINRES preconditioning (real miniature solves)");
    let ms = &MiniSystem::training_set()[1];
    let space = ms.space();
    let sys = ms.atomic_system();
    println!("system: {} ({} DoF)", ms.name, space.ndofs());

    // standalone shifted solve on the real KS Hamiltonian
    let truth = scf(
        &space,
        &sys,
        &SyntheticTruth,
        &ms.scf_config(),
        &[KPoint::gamma()],
    );
    let h = KsHamiltonian::<f64>::new(&space, &truth.v_eff, [1.0; 3]);
    let nd = space.ndofs();
    let b = Matrix::from_fn(nd, 2, |i, j| ((i * 7 + j * 13) as f64 * 0.37).sin());
    let shifts = [truth.eigenvalues[0][0], truth.eigenvalues[0][1]];
    let prec = laplacian_diagonal_prec(&space);

    let mut x0 = Matrix::zeros(nd, 2);
    let plain = block_minres(&h, &IdentityPrec, &shifts, &b, &mut x0, 1e-8, 4000);
    let mut x1 = Matrix::zeros(nd, 2);
    let precd = block_minres(&h, &prec, &shifts, &b, &mut x1, 1e-8, 4000);
    println!(
        "standalone shifted solve: {} iterations plain vs {} preconditioned ({:.1}x, paper ~5x)",
        plain.iterations,
        precd.iterations,
        plain.iterations as f64 / precd.iterations as f64
    );

    // embedded in the actual inverse-DFT loop
    let mk = |precondition: bool| InvDftConfig {
        n_states: ms.scf_config().n_states,
        max_iter: 5,
        tol: 1e-12,
        precondition,
        ..InvDftConfig::default()
    };
    let with = invert(&space, &sys, &truth.density, &mk(true))?;
    let without = invert(&space, &sys, &truth.density, &mk(false))?;
    println!(
        "inverse-DFT adjoint solves (5 outer iterations): {} vs {} MINRES iterations ({:.1}x)",
        without.minres_iterations,
        with.minres_iterations,
        without.minres_iterations as f64 / with.minres_iterations as f64
    );
    Ok(())
}

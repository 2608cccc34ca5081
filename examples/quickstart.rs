//! Quickstart: a complete Kohn-Sham DFT ground-state calculation with the
//! spectral finite-element solver in ~30 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dft_fe_mlxc::core::scf::{scf, KPoint, ScfConfig};
use dft_fe_mlxc::core::system::{Atom, AtomKind, AtomicSystem};
use dft_fe_mlxc::core::xc::Lda;
use dft_fe_mlxc::fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_fe_mlxc::fem::space::FeSpace;

fn main() {
    // A helium-like pseudo-atom in a 12 Bohr box, FE mesh graded toward
    // the nucleus, spectral degree 3.
    let l = 12.0;
    let ax = || {
        Axis::graded(
            0.0,
            l,
            0.5,
            3.0,
            &[l / 2.0],
            3.0,
            BoundaryCondition::Dirichlet,
        )
    };
    let space = FeSpace::new(Mesh3d::new([ax(), ax(), ax()], 3));
    println!(
        "FE space: {} nodes, {} DoFs, {} cells",
        space.nnodes(),
        space.ndofs(),
        space.cells().len()
    );

    let system = AtomicSystem::new(vec![Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.5 },
        pos: [l / 2.0; 3],
    }]);

    let cfg = ScfConfig {
        n_states: 4,
        ..ScfConfig::default()
    };
    let r = scf(&space, &system, &Lda, &cfg, &[KPoint::gamma()]);

    for (iter, resid) in r.residual_history.iter().enumerate() {
        println!("SCF {iter:3}  resid = {resid:.3e}");
    }
    println!();
    println!("converged: {} in {} iterations", r.converged, r.iterations);
    println!("free energy:     {:+.6} Ha", r.energy.free_energy);
    println!("  kinetic:       {:+.6} Ha", r.energy.kinetic);
    println!("  electrostatic: {:+.6} Ha", r.energy.electrostatic);
    println!("  xc:            {:+.6} Ha", r.energy.xc);
    println!("eigenvalues (Ha): {:?}", &r.eigenvalues[0][..4]);
    println!("electrons: {:.6}", r.density.integrate(&space));
}

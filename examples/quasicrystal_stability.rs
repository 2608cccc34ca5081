//! Science application 1 (Sec. 6.2): size-dependent stability of
//! icosahedral quasicrystal nanoparticles — bulk vs surface energy
//! competition, at miniature scale with the real solver.
//!
//! The paper resolves, for the first time, the thermodynamic stability of
//! YbCd quasicrystal nanoparticles against crystalline phases by accurate
//! ground states of ~2,000-atom particles. Here we carve two cut-and-
//! project nanoparticles of different radii, run real Kohn-Sham SCF on
//! each (soft pseudopotentials, miniature electron counts), and extract
//! the energy-per-atom trend whose extrapolation is the bulk/surface
//! decomposition.
//!
//! ```sh
//! cargo run --release --example quasicrystal_stability
//! ```

use dft_fe_mlxc::core::scf::{scf, KPoint, ScfConfig};
use dft_fe_mlxc::core::system::{Atom, AtomKind, AtomicSystem};
use dft_fe_mlxc::core::xc::Lda;
use dft_fe_mlxc::fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_fe_mlxc::fem::space::FeSpace;
use dft_fe_mlxc::materials::quasicrystal::{nanoparticle, QcParams};

fn main() {
    let params = QcParams {
        lattice_constant: 4.4,
        window: 1.35,
        yb_window_fraction: 0.45,
        n_range: 2,
    };
    let mut rows = Vec::new();
    for radius in [2.6, 4.6] {
        let np = nanoparticle(&params, radius, 6.0);
        println!(
            "nanoparticle r = {radius:.1} Bohr: {} atoms ({} 'Yb', {} 'Cd'), box {:.1}^3",
            np.n_atoms(),
            np.count("Yb"),
            np.count("Cd"),
            np.cell[0]
        );
        // miniature electronic structure: light two-electron pseudo-atoms
        // for "Cd", three-electron for "Yb" (the real species are far
        // beyond a laptop; the geometry and the bulk/surface competition
        // are what this miniature preserves)
        let atoms: Vec<Atom> = np
            .positions
            .iter()
            .zip(&np.species)
            .map(|(&pos, &sp)| Atom {
                kind: AtomKind::Pseudo {
                    z: if sp == "Yb" { 3.0 } else { 2.0 },
                    r_c: 0.7,
                },
                pos,
            })
            .collect();
        let system = AtomicSystem::new(atoms);
        let n_el = system.n_electrons();
        let centers: Vec<f64> = np.positions.iter().map(|p| p[0]).collect();
        let ax = |d: usize| {
            let c: Vec<f64> = np.positions.iter().map(|p| p[d]).collect();
            let _ = &centers;
            Axis::graded(
                0.0,
                np.cell[d],
                0.8,
                3.0,
                &c,
                2.0,
                BoundaryCondition::Dirichlet,
            )
        };
        let space = FeSpace::new(Mesh3d::new([ax(0), ax(1), ax(2)], 3));
        let cfg = ScfConfig {
            n_states: (n_el / 2.0).ceil() as usize + 4,
            kt: 0.02,
            tol: 5e-5,
            max_iter: 40,
            cheb_degree: 30,
            first_iter_cf_passes: 5,
            ..ScfConfig::default()
        };
        let r = scf(&space, &system, &Lda, &cfg, &[KPoint::gamma()]);
        for (iter, resid) in r.residual_history.iter().enumerate() {
            println!("  SCF {iter:3}  resid = {resid:.3e}");
        }
        let e_per_atom = r.energy.free_energy / np.n_atoms() as f64;
        println!(
            "  -> converged: {}, E = {:+.4} Ha, E/atom = {:+.4} Ha\n",
            r.converged, r.energy.free_energy, e_per_atom
        );
        rows.push((radius, np.n_atoms(), e_per_atom));
    }
    println!("size dependence (surface makes small particles less bound per atom):");
    for (r, n, e) in &rows {
        println!("  r = {r:.1}  ({n:>3} atoms)   E/atom = {e:+.4} Ha");
    }
    if rows.len() == 2 {
        let d = rows[1].2 - rows[0].2;
        println!(
            "  larger particle is {} per atom by {:.1} mHa (bulk term winning over surface)",
            if d < 0.0 { "more bound" } else { "less bound" },
            1000.0 * d.abs()
        );
    }
}

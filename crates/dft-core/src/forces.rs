//! Hellmann-Feynman forces on the (Gaussian-smeared) ions.
//!
//! The paper's science runs use structural relaxation ("accurate
//! ground-state calculations, with structural relaxation, on ~2,000
//! atoms"). With Gaussian nuclei the force on atom `a` splits into
//!
//! * the electrostatic Hellmann-Feynman term
//!   `F_a = - integral (d rho_a / d R_a) phi dV`
//!   where `phi` is the total electrostatic potential of
//!   `rho_ion - rho_e` (computed by one FE Poisson solve), and
//!   `d rho_a / d R_{a,k} = 2 alpha (r_k - R_{a,k}) rho_a(r)`;
//! * the short-ranged ion-ion correction force from
//!   `z_a z_b erfc(sqrt(alpha_ab) r) / r` pairs (including periodic
//!   images), with
//!   `d/dr [erfc(c r)/r] = -erfc(c r)/r^2 - (2c/sqrt(pi)) e^{-c^2 r^2}/r`.
//!
//! Valid at SCF convergence (Hellmann-Feynman); validated against finite
//! differences of the total energy in the tests.
//!
//! Both physical terms are exposed as *partial* sums —
//! [`electrostatic_force_partial`] over a node subset and
//! [`ion_ion_force_partial`] over a round-robin atom shard — so the one
//! force assembly, [`crate::cluster::forces`], can give each rank its owned
//! share and reassemble the total with one deterministic reduction.
//! [`compute_forces`] is that assembly on a one-rank cluster.

use crate::cluster::forces::forces_rank;
use crate::math::erfc;
use crate::scf::solve_electrostatics;
use crate::system::AtomicSystem;
use dft_fem::mesh::BoundaryCondition;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{run_cluster, CommError};

/// Why a force evaluation — or any other use of [`force_poisson`], such as
/// inverse DFT's fixed electrostatics — failed. Forces ride one extra
/// electrostatic solve; if that solve diverges the Hellmann-Feynman term is
/// garbage, and callers (the relaxation drivers, the job server, inverse
/// DFT) must surface a typed failure instead of unwinding through a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum ForceError {
    /// The electrostatic Poisson solve for the potential of a fixed density
    /// did not reach its tolerance within the iteration budget — on every
    /// rank together, since the solve is replicated.
    PoissonDiverged {
        /// CG iterations performed before giving up.
        iterations: usize,
        /// Residual at the final iteration.
        residual: f64,
    },
    /// The force reduction lost a peer.
    Comm(CommError),
}

impl std::fmt::Display for ForceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForceError::PoissonDiverged {
                iterations,
                residual,
            } => write!(
                f,
                "fixed-density electrostatics diverged: Poisson residual {residual:.3e} after {iterations} CG iterations"
            ),
            ForceError::Comm(e) => write!(f, "force reduction failed: {e}"),
        }
    }
}

impl std::error::Error for ForceError {}

/// Solve for the total electrostatic potential `phi` of `rho_ion - rho_e`
/// (the one extra Poisson solve behind every force evaluation, and inverse
/// DFT's electrostatics of its target density): the SCF's electrostatic
/// solve, unprofiled, at tolerance 1e-10. Pure recomputation from
/// replicated inputs — every rank of the force assembly calls this
/// identically.
pub fn force_poisson(
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
) -> Result<Vec<f64>, ForceError> {
    assert_eq!(rho_e.len(), space.nnodes());
    let rho_ion = system.ion_density(space);
    let rho_charge: Vec<f64> = (0..space.nnodes()).map(|i| rho_ion[i] - rho_e[i]).collect();
    solve_electrostatics(space, &rho_charge, 1e-10, None)
}

/// The electrostatic Hellmann-Feynman term accumulated over a node subset:
/// nodes where `node_mask` is `false` contribute nothing, so masked calls
/// on disjoint node sets sum (in any association) to the full-mask result.
/// Nodal quadrature, fixed ascending-node accumulation order.
pub fn electrostatic_force_partial(
    space: &FeSpace,
    system: &AtomicSystem,
    phi: &[f64],
    node_mask: &[bool],
) -> Vec<[f64; 3]> {
    assert_eq!(phi.len(), space.nnodes());
    assert_eq!(node_mask.len(), space.nnodes());
    let lengths = axis_lengths(space);
    let periodic = axis_periodic(space);
    let mass = space.mass_diag();

    let mut forces = vec![[0.0f64; 3]; system.atoms.len()];
    for (ai, atom) in system.atoms.iter().enumerate() {
        let alpha = atom.kind.alpha();
        let z = atom.kind.z();
        let norm = z * (alpha / std::f64::consts::PI).powf(1.5);
        let rcut2 = 20.0 / alpha;
        for n in 0..space.nnodes() {
            if !node_mask[n] {
                continue;
            }
            let c = space.node_coord(n);
            let mut d = [0.0f64; 3];
            let mut r2 = 0.0;
            for k in 0..3 {
                let mut dx = c[k] - atom.pos[k];
                if periodic[k] {
                    dx -= (dx / lengths[k]).round() * lengths[k];
                }
                d[k] = dx;
                r2 += dx * dx;
            }
            if r2 > rcut2 {
                continue;
            }
            let g = norm * (-alpha * r2).exp();
            // d rho_a / d R_k = 2 alpha (r - R)_k rho_a, F = -integral(...) phi
            let w = mass[n] * phi[n] * 2.0 * alpha * g;
            for k in 0..3 {
                forces[ai][k] -= w * d[k];
            }
        }
    }
    forces
}

/// The short-ranged ion-ion correction forces over a round-robin shard of
/// the first pair index: only atoms `a` with `a % nshards == shard`
/// contribute, so the shards partition the pair sum exactly and
/// `(0, 1)` is the full serial sum.
pub fn ion_ion_force_partial(
    space: &FeSpace,
    system: &AtomicSystem,
    shard: usize,
    nshards: usize,
) -> Vec<[f64; 3]> {
    assert!(nshards >= 1 && shard < nshards);
    let lengths = axis_lengths(space);
    let periodic = axis_periodic(space);
    let n_at = system.atoms.len();
    let mut forces = vec![[0.0f64; 3]; n_at];
    if n_at == 0 {
        return forces;
    }
    // image count per axis from the smallest Gaussian width (hoisted out of
    // the per-axis closure: it is a property of the atom set, not the axis)
    let alpha_min = system
        .atoms
        .iter()
        .map(|a| a.kind.alpha())
        .fold(f64::INFINITY, f64::min);
    let rcut = 7.0 / (0.5 * alpha_min).sqrt();
    let img = |d: usize| -> i64 {
        if periodic[d] {
            (rcut / lengths[d]).ceil() as i64
        } else {
            0
        }
    };
    let (ix, iy, iz) = (img(0), img(1), img(2));
    let sqrt_pi = std::f64::consts::PI.sqrt();
    for a in (shard..n_at).step_by(nshards) {
        for b in 0..n_at {
            let (za, zb) = (system.atoms[a].kind.z(), system.atoms[b].kind.z());
            let (aa, ab) = (system.atoms[a].kind.alpha(), system.atoms[b].kind.alpha());
            let cc = (aa * ab / (aa + ab)).sqrt();
            for gx in -ix..=ix {
                for gy in -iy..=iy {
                    for gz in -iz..=iz {
                        if a == b && gx == 0 && gy == 0 && gz == 0 {
                            continue;
                        }
                        let d = [
                            system.atoms[a].pos[0] - system.atoms[b].pos[0]
                                + gx as f64 * lengths[0],
                            system.atoms[a].pos[1] - system.atoms[b].pos[1]
                                + gy as f64 * lengths[1],
                            system.atoms[a].pos[2] - system.atoms[b].pos[2]
                                + gz as f64 * lengths[2],
                        ];
                        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                        if r < 1e-8 || cc * r > 8.0 {
                            continue;
                        }
                        // -d/dr [erfc(cr)/r] = erfc(cr)/r^2 + 2c e^{-c^2r^2}/(sqrt(pi) r)
                        let mag = za
                            * zb
                            * (erfc(cc * r) / (r * r)
                                + 2.0 * cc * (-cc * cc * r * r).exp() / (sqrt_pi * r));
                        for k in 0..3 {
                            forces[a][k] += mag * d[k] / r;
                        }
                    }
                }
            }
        }
    }
    forces
}

fn axis_lengths(space: &FeSpace) -> [f64; 3] {
    [
        space.mesh.axes[0].length(),
        space.mesh.axes[1].length(),
        space.mesh.axes[2].length(),
    ]
}

fn axis_periodic(space: &FeSpace) -> [bool; 3] {
    [
        space.mesh.axes[0].bc() == BoundaryCondition::Periodic,
        space.mesh.axes[1].bc() == BoundaryCondition::Periodic,
        space.mesh.axes[2].bc() == BoundaryCondition::Periodic,
    ]
}

/// Compute forces (Ha/Bohr) on every atom for a converged density
/// `rho_e` (full nodal vector): the force assembly on a one-rank cluster,
/// on the calling thread and its thread budget. Errors — instead of
/// panicking — when the force Poisson solve diverges, so drivers can fail
/// the surrounding job with a reason.
pub fn compute_forces(
    space: &FeSpace,
    system: &AtomicSystem,
    rho_e: &[f64],
) -> Result<Vec<[f64; 3]>, ForceError> {
    let (mut ranks, _) = run_cluster(1, |comm| forces_rank(comm, space, system, rho_e, None));
    ranks.remove(0).map(|(forces, _)| forces)
}

/// Largest force component magnitude (the relaxation convergence metric).
pub fn max_force(forces: &[[f64; 3]]) -> f64 {
    forces
        .iter()
        .flat_map(|f| f.iter())
        .map(|v| v.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{scf, KPoint, ScfConfig};
    use crate::system::{Atom, AtomKind};
    use crate::xc::Lda;
    use dft_fem::mesh::{Axis, Mesh3d};

    fn space(l: f64, centers: &[f64]) -> FeSpace {
        let ax = |cs: &[f64]| Axis::graded(0.0, l, 0.6, 2.5, cs, 2.5, BoundaryCondition::Dirichlet);
        FeSpace::new(Mesh3d::new(
            [ax(centers), ax(&[l / 2.0]), ax(&[l / 2.0])],
            3,
        ))
    }

    fn cfg(n_el: f64) -> ScfConfig {
        ScfConfig {
            n_states: (n_el / 2.0).ceil() as usize + 3,
            kt: 0.02,
            tol: 1e-6,
            max_iter: 40,
            cheb_degree: 30,
            first_iter_cf_passes: 5,
            ..ScfConfig::default()
        }
    }

    #[test]
    fn force_on_symmetric_atom_vanishes() {
        // a mirror-symmetric (uniform) mesh is needed here: the greedy
        // graded mesh is not symmetric about the atom and produces a
        // small systematic "egg-box" force, as in real real-space codes
        let l = 10.0;
        let s = FeSpace::new(Mesh3d::cube(4, l, 4));
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [l / 2.0; 3],
        }]);
        let r = scf(&s, &sys, &Lda, &cfg(2.0), &[KPoint::gamma()]);
        assert!(r.converged);
        let f = compute_forces(&s, &sys, &r.density.values).expect("forces");
        assert!(max_force(&f) < 5e-3, "symmetric atom force {:?}", f[0]);
    }

    #[test]
    fn dimer_forces_match_energy_finite_difference() {
        // move one atom of a dimer along x and compare -dE/dx with F_x
        let l = 12.0;
        let c = l / 2.0;
        let d0 = 2.2;
        let run = |dx: f64| -> (f64, Vec<[f64; 3]>, AtomicSystem, FeSpace) {
            // fixed mesh graded at both nominal sites so the FD is smooth
            let s = space(l, &[c - d0 / 2.0, c + d0 / 2.0]);
            let sys = AtomicSystem::new(vec![
                Atom {
                    kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
                    pos: [c - d0 / 2.0, c, c],
                },
                Atom {
                    kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
                    pos: [c + d0 / 2.0 + dx, c, c],
                },
            ]);
            let r = scf(&s, &sys, &Lda, &cfg(2.0), &[KPoint::gamma()]);
            assert!(r.converged);
            let f = compute_forces(&s, &sys, &r.density.values).expect("forces");
            (r.energy.free_energy, f, sys, s)
        };
        let h = 0.05;
        let (_e0, f0, _, _) = run(0.0);
        let (ep, _, _, _) = run(h);
        let (em, _, _, _) = run(-h);
        let fd = -(ep - em) / (2.0 * h);
        let fx = f0[1][0];
        assert!(
            (fx - fd).abs() < 0.15 * fd.abs().max(0.02),
            "analytic {fx} vs FD {fd}"
        );
    }

    #[test]
    fn close_dimer_repels() {
        let l = 12.0;
        let c = l / 2.0;
        let s = space(l, &[c - 0.6, c + 0.6]);
        let sys = AtomicSystem::new(vec![
            Atom {
                kind: AtomKind::Pseudo { z: 2.0, r_c: 0.6 },
                pos: [c - 0.6, c, c],
            },
            Atom {
                kind: AtomKind::Pseudo { z: 2.0, r_c: 0.6 },
                pos: [c + 0.6, c, c],
            },
        ]);
        let r = scf(&s, &sys, &Lda, &cfg(4.0), &[KPoint::gamma()]);
        assert!(r.converged);
        let f = compute_forces(&s, &sys, &r.density.values).expect("forces");
        // atoms too close: atom 0 pushed -x, atom 1 pushed +x
        assert!(f[0][0] < 0.0 && f[1][0] > 0.0, "repulsion: {:?}", f);
        // Newton's third law along the axis
        assert!((f[0][0] + f[1][0]).abs() < 0.1 * f[1][0].abs());
    }

    /// The partial sums must tile the full assembly exactly: masked node
    /// subsets and atom shards recombine to the serial result.
    #[test]
    fn partials_tile_the_full_assembly() {
        let l = 8.0;
        let s = FeSpace::new(Mesh3d::periodic_cube(2, l, 3));
        let sys = AtomicSystem::new(vec![
            Atom {
                kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
                pos: [2.5, 4.0, 4.0],
            },
            Atom {
                kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
                pos: [5.5, 4.0, 4.0],
            },
            Atom {
                kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
                pos: [4.0, 2.0, 6.0],
            },
        ]);
        let rho_e = sys.initial_density(&s);
        let phi = force_poisson(&s, &sys, &rho_e).expect("phi");
        let full_es = electrostatic_force_partial(&s, &sys, &phi, &vec![true; s.nnodes()]);
        let full_ii = ion_ion_force_partial(&s, &sys, 0, 1);

        // two complementary node masks
        let mask_a: Vec<bool> = (0..s.nnodes()).map(|n| n % 3 == 0).collect();
        let mask_b: Vec<bool> = mask_a.iter().map(|&m| !m).collect();
        let es_a = electrostatic_force_partial(&s, &sys, &phi, &mask_a);
        let es_b = electrostatic_force_partial(&s, &sys, &phi, &mask_b);
        for ai in 0..3 {
            for k in 0..3 {
                let sum = es_a[ai][k] + es_b[ai][k];
                assert!(
                    (sum - full_es[ai][k]).abs() <= 1e-13 * (1.0 + full_es[ai][k].abs()),
                    "electrostatic partials do not tile: atom {ai} axis {k}"
                );
            }
        }
        // three atom shards of the ion-ion sum
        let mut ii_sum = [[0.0f64; 3]; 3];
        for shard in 0..3 {
            let part = ion_ion_force_partial(&s, &sys, shard, 3);
            for ai in 0..3 {
                for k in 0..3 {
                    ii_sum[ai][k] += part[ai][k];
                }
            }
        }
        for ai in 0..3 {
            for k in 0..3 {
                assert!(
                    (ii_sum[ai][k] - full_ii[ai][k]).abs() <= 1e-13 * (1.0 + full_ii[ai][k].abs()),
                    "ion-ion shards do not tile: atom {ai} axis {k}"
                );
            }
        }
    }
}

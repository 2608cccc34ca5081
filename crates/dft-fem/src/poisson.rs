//! FE Poisson solves for the electrostatic potentials.
//!
//! The Hartree potential `v_H` and (in the all-electron path) the nuclear
//! potential `v_N` solve `-nabla^2 v = 4 pi rho` on the FE mesh (the paper's
//! "EP" step). Dirichlet data for isolated systems comes from a multipole
//! (monopole) far field; fully periodic domains use the zero-mean gauge.
//!
//! DFT-FE runs Jacobi-preconditioned CG here because its octree meshes are
//! unstructured. A [`Mesh3d`] is by type a tensor product of three axes with
//! diagonal GLL mass, so the assembled stiffness is exactly
//! `K = A_x (x) M_y (x) M_z + M_x (x) A_y (x) M_z + M_x (x) M_y (x) A_z`
//! and [`FdmPrec`] inverts it by fast diagonalization. CG stays as the
//! verifier: every solve ends on `||b - K x|| / ||b|| <= tol` measured with
//! the matrix-free [`StiffnessOperator`].

use crate::basis::Lagrange1d;
use crate::mesh::{Axis, BoundaryCondition, Mesh3d};
use crate::space::{FeSpace, StiffnessOperator};
use dft_linalg::chol::LinalgError;
use dft_linalg::eig::eigh;
use dft_linalg::gemm::{gemm_slices, Shape};
use dft_linalg::iterative::{cg, IterStats, LinearOperator, Preconditioner};
use dft_linalg::matrix::Matrix;
use dft_linalg::pack::with_scratch;

/// Boundary treatment for a Poisson solve.
pub enum PoissonBc<'a> {
    /// Dirichlet values prescribed on every boundary node, from the given
    /// function of position (e.g. `-q/r` monopole far field).
    Dirichlet(&'a dyn Fn([f64; 3]) -> f64),
    /// Fully periodic domain: the right-hand side is projected to zero mean
    /// (compatibility) and the solution is returned in the zero-mean gauge.
    Periodic,
}

/// Generalized eigenpairs `A_d S = M_d S diag(lambda)`, `S^T M_d S = I`, of
/// the assembled 1D stiffness and (diagonal) mass of one axis.
fn axis_eigenpairs(ax: &Axis, basis: &Lagrange1d) -> Result<(Matrix<f64>, Vec<f64>), LinalgError> {
    let p = basis.degree;
    let periodic = ax.bc() == BoundaryCondition::Periodic;
    // unique nodes; `% nn` is the periodic wrap and the identity otherwise
    let nn = ax.ncells() * p + usize::from(!periodic);
    let mut a = Matrix::<f64>::zeros(nn, nn);
    let mut m = vec![0.0; nn];
    for c in 0..ax.ncells() {
        let h = ax.h(c);
        for i in 0..=p {
            let gi = (c * p + i) % nn;
            m[gi] += 0.5 * h * basis.weights[i];
            for j in 0..=p {
                a[(gi, (c * p + j) % nn)] += 2.0 / h * basis.k(i, j);
            }
        }
    }
    let (lo, n) = if periodic { (0, nn) } else { (1, nn - 2) };
    let isq: Vec<f64> = (0..n).map(|i| 1.0 / m[lo + i].sqrt()).collect();
    let sym = Matrix::from_fn(n, n, |i, j| isq[i] * a[(lo + i, lo + j)] * isq[j]);
    let e = eigh(&sym)?;
    let s = Matrix::from_fn(n, n, |i, j| isq[i] * e.eigenvectors[(i, j)]);
    let mut lambda = e.eigenvalues;
    if periodic {
        // A_d 1 = 0 exactly; what eigh returns for it is round-off
        lambda[0] = 0.0;
    }
    Ok((s, lambda))
}

/// `out = in^T op(S)`: contracts the fastest index of `inp` (`n x rest`,
/// column-major) with `S` (`S^T in` for `s_trans = false`, `S in`
/// otherwise) and rotates it to the slowest position, so three calls walk
/// the x-fastest layout `(i,j,k) -> (j,k,i) -> (k,i,j) -> (i,j,k)`.
fn contract_rotate(inp: &[f64], out: &mut [f64], s: &Matrix<f64>, s_trans: bool) {
    let n = s.nrows();
    let rest = inp.len() / n.max(1);
    let s = s.as_slice();
    gemm_slices(
        rest,
        n,
        n,
        1.0,
        (inp, n, true),
        (s, n, s_trans),
        0.0,
        out,
        Shape::Full,
    );
}

/// Exact inverse of the assembled stiffness by fast diagonalization (the
/// spectral-element FDM): with the per-axis generalized eigenpairs
/// `(S_d, lambda_d)`, `K^{-1} = (S_x (x) S_y (x) S_z) diag(1 / (lambda_i +
/// lambda_j + lambda_k)) (S_x (x) S_y (x) S_z)^T` — six `n_d x n_d`
/// contractions over the x-fastest DoF layout. On a fully periodic mesh the
/// one zero mode maps to 0, which is the pseudo-inverse in the
/// mass-weighted zero-mean gauge.
pub(crate) struct FdmPrec {
    s: [Matrix<f64>; 3],
    lambda: [Vec<f64>; 3],
}

impl FdmPrec {
    /// Factor the three axes of `mesh` (three dense `eigh` of order `n_d`).
    pub(crate) fn new(mesh: &Mesh3d, basis: &Lagrange1d) -> Result<Self, LinalgError> {
        let (sx, lx) = axis_eigenpairs(&mesh.axes[0], basis)?;
        let (sy, ly) = axis_eigenpairs(&mesh.axes[1], basis)?;
        let (sz, lz) = axis_eigenpairs(&mesh.axes[2], basis)?;
        Ok(Self {
            s: [sx, sy, sz],
            lambda: [lx, ly, lz],
        })
    }
}

impl Preconditioner<f64> for FdmPrec {
    fn apply(&self, r: &Matrix<f64>, z: &mut Matrix<f64>) {
        let [sx, sy, sz] = &self.s;
        let [lx, ly, lz] = &self.lambda;
        let nd = lx.len() * ly.len() * lz.len();
        assert_eq!(r.nrows(), nd);
        assert_eq!(z.shape(), r.shape());
        with_scratch(|(u, w): &mut (Vec<f64>, Vec<f64>)| {
            if u.len() < nd {
                u.resize(nd, 0.0);
            }
            if w.len() < nd {
                w.resize(nd, 0.0);
            }
            let (u, w) = (&mut u[..nd], &mut w[..nd]);
            for j in 0..r.ncols() {
                contract_rotate(r.col(j), u, sx, false);
                contract_rotate(u, w, sy, false);
                contract_rotate(w, u, sz, false);
                let mut coef = u.iter_mut();
                for &lk in lz {
                    for &lj in ly {
                        for (&li, c) in lx.iter().zip(&mut coef) {
                            let l = li + lj + lk;
                            *c = if l > 0.0 { *c / l } else { 0.0 };
                        }
                    }
                }
                contract_rotate(u, w, sx, true);
                contract_rotate(w, u, sy, true);
                contract_rotate(u, z.col_mut(j), sz, true);
            }
        });
    }
}

/// FLOPs of one preconditioner apply inside [`solve_poisson`] on `space`:
/// six contractions of `2 n_d ndofs` each plus the spectral scale (two adds
/// and a divide per DoF). Zero when the factorization failed, since the
/// solve then returns before applying anything.
pub fn fdm_apply_flops(space: &FeSpace) -> u64 {
    space.stiffness_inverse().map_or(0, |prec| {
        let n: usize = prec.lambda.iter().map(Vec::len).sum();
        (4 * n as u64 + 3) * space.ndofs() as u64
    })
}

/// Stiffness operator with the constant null space projected out, for the
/// periodic (singular) Poisson problem. `K 1 = 0` and `1^T K = 0`, so `K x`
/// is orthogonal to the constants analytically; the projection only guards
/// against round-off drift in long CG runs.
struct ProjectedStiffness<'a> {
    inner: StiffnessOperator<'a>,
}

impl<'a> LinearOperator<f64> for ProjectedStiffness<'a> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &Matrix<f64>, y: &mut Matrix<f64>) {
        self.inner.apply(x, y);
        let n = y.nrows() as f64;
        for j in 0..y.ncols() {
            let mean: f64 = y.col(j).iter().sum::<f64>() / n;
            for v in y.col_mut(j) {
                *v -= mean;
            }
        }
    }
}

/// Statistics of a solve that returned without entering CG.
fn uniterated(residual: f64, converged: bool) -> IterStats {
    IterStats {
        iterations: 0,
        iterations_per_column: vec![0],
        final_residuals: vec![residual],
        converged,
    }
}

/// Solve `-nabla^2 phi = 4 pi rho` on the FE space.
///
/// `rho` is a full nodal vector; the returned potential is also a full
/// nodal vector. `tol` is the relative CG tolerance. Returns the potential
/// and the CG statistics; a space whose tensor-product factorization failed
/// reports `converged: false` without iterating.
pub fn solve_poisson(
    space: &FeSpace,
    rho: &[f64],
    bc: PoissonBc<'_>,
    tol: f64,
    max_iter: usize,
) -> (Vec<f64>, IterStats) {
    assert_eq!(rho.len(), space.nnodes());
    let nd = space.ndofs();
    let four_pi = 4.0 * std::f64::consts::PI;
    let Ok(prec) = space.stiffness_inverse() else {
        return (vec![0.0; space.nnodes()], uniterated(f64::INFINITY, false));
    };

    match bc {
        PoissonBc::Dirichlet(g) => {
            // Lift: phi = phi0 + phi_bc, phi_bc prescribed on boundary nodes.
            let mut phi_bc = vec![0.0; space.nnodes()];
            for n in 0..space.nnodes() {
                if space.dof_of_node(n).is_none() {
                    phi_bc[n] = g(space.node_coord(n));
                }
            }
            // rhs = 4 pi M rho - K phi_bc, restricted to dofs
            let mut rhs: Vec<f64> = (0..nd)
                .map(|d| {
                    let n = space.node_of_dof(d);
                    four_pi * space.mass_diag()[n] * rho[n]
                })
                .collect();
            // Homogeneous data (every SCF and force solve) has K phi_bc = 0
            // and `x - 0.0` is `x` bit for bit, so the whole-mesh apply is
            // skipped.
            // dftlint:allow(L004, reason="exact-zero test: only all-zero boundary data makes the lift vanish identically")
            if phi_bc.iter().any(|&v| v != 0.0) {
                let mut k_bc = vec![0.0; space.nnodes()];
                space.apply_stiffness_nodes(&phi_bc, &mut k_bc);
                for d in 0..nd {
                    rhs[d] -= k_bc[space.node_of_dof(d)];
                }
            }
            let op = StiffnessOperator::new(space);
            let mut x = vec![0.0; nd];
            let stats = cg(&op, prec, &rhs, &mut x, tol, max_iter);
            let mut phi = phi_bc;
            for d in 0..nd {
                phi[space.node_of_dof(d)] = x[d];
            }
            (phi, stats)
        }
        PoissonBc::Periodic => {
            assert_eq!(
                nd,
                space.nnodes(),
                "periodic Poisson expects no Dirichlet dofs"
            );
            // compatibility: subtract the mean charge
            let total_q = space.integrate(rho);
            let vol: f64 = space.mesh.volume();
            let mean = total_q / vol;
            let mut rhs = vec![0.0; nd];
            for d in 0..nd {
                let n = space.node_of_dof(d);
                rhs[d] = four_pi * space.mass_diag()[n] * (rho[n] - mean);
            }
            // A (numerically) uniform charge is fully neutralized: phi = 0.
            let rhs_norm = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
            let scale =
                four_pi * space.integrate(&rho.iter().map(|v| v.abs()).collect::<Vec<_>>()) + 1.0;
            if rhs_norm < 1e-12 * scale {
                return (vec![0.0; space.nnodes()], uniterated(0.0, true));
            }
            let weights: Vec<f64> = (0..nd)
                .map(|d| space.mass_diag()[space.node_of_dof(d)])
                .collect();
            let wsum: f64 = weights.iter().sum();
            let op = ProjectedStiffness {
                inner: StiffnessOperator::new(space),
            };
            let mut x = vec![0.0; nd];
            let stats = cg(&op, prec, &rhs, &mut x, tol, max_iter);
            // zero-mean gauge
            let mean_phi: f64 = x
                .iter()
                .zip(weights.iter())
                .map(|(&v, &w)| v * w)
                .sum::<f64>()
                / wsum;
            let mut phi = vec![0.0; space.nnodes()];
            for d in 0..nd {
                phi[space.node_of_dof(d)] = x[d] - mean_phi;
            }
            (phi, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::NodalField;
    use dft_linalg::iterative::DiagonalPrec;
    use std::f64::consts::PI;

    use BoundaryCondition::{Dirichlet, Periodic};

    /// Deterministic pseudo-random values in `[-1, 1)`.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// Three axes over `[0, 4]` refined toward different points, or two
    /// equal cells each.
    fn test_mesh(bcs: [BoundaryCondition; 3], graded: bool, p: usize) -> Mesh3d {
        let centers = [1.3, 2.0, 3.1];
        let axes = [0, 1, 2].map(|d| {
            if graded {
                Axis::graded(0.0, 4.0, 0.7, 1.8, &[centers[d]], 1.5, bcs[d])
            } else {
                Axis::uniform(2, 0.0, 4.0, bcs[d])
            }
        });
        Mesh3d::new(axes, p)
    }

    fn stiffness(s: &FeSpace, x: &[f64]) -> Vec<f64> {
        let mut y = Matrix::zeros(s.ndofs(), 1);
        s.apply_stiffness(
            &Matrix::from_vec(s.ndofs(), 1, x.to_vec()),
            &mut y,
            [1.0; 3],
        );
        y.into_vec()
    }

    fn precondition(s: &FeSpace, r: &[f64]) -> Vec<f64> {
        let mut z = Matrix::zeros(s.ndofs(), 1);
        let r = Matrix::from_vec(s.ndofs(), 1, r.to_vec());
        s.stiffness_inverse().unwrap().apply(&r, &mut z);
        z.into_vec()
    }

    fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
        let scale = b.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let diff = a
            .iter()
            .zip(b)
            .fold(0.0_f64, |m, (u, v)| m.max((u - v).abs()));
        diff / scale
    }

    /// `x` minus its mass-weighted mean (all nodes are DoFs on a fully
    /// periodic space).
    fn mass_zero_mean(s: &FeSpace, x: &[f64]) -> Vec<f64> {
        let mean = s.integrate(x) / s.mesh.volume();
        x.iter().map(|v| v - mean).collect()
    }

    #[test]
    fn fdm_inverts_the_assembled_stiffness() {
        let mut seed = 0;
        for p in 1..=8 {
            for graded in [false, true] {
                for mask in 0..8 {
                    let bcs = [0, 1, 2].map(|d| {
                        if mask >> d & 1 == 1 {
                            Periodic
                        } else {
                            Dirichlet
                        }
                    });
                    let s = FeSpace::new(test_mesh(bcs, graded, p));
                    seed += 1;
                    let x = noise(s.ndofs(), seed);
                    let got = precondition(&s, &stiffness(&s, &x));
                    // K annihilates the constant of a fully periodic space
                    let want = if mask == 7 { mass_zero_mean(&s, &x) } else { x };
                    let err = max_rel_diff(&got, &want);
                    assert!(
                        err < 1e-10,
                        "p={p} graded={graded} bcs={bcs:?}: |P K x - x| = {err:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn fdm_periodic_null_mode_maps_to_zero() {
        for (graded, p) in [(false, 3), (true, 5)] {
            let s = FeSpace::new(test_mesh([Periodic; 3], graded, p));
            // the null vector of K is 1, so that of P = K^+ is its dual M 1
            let p_null = precondition(&s, s.mass_diag());
            assert!(p_null.iter().all(|v| v.abs() < 1e-12), "P M 1 != 0");
            // zero-sum b is in the range of K: P is its exact right inverse
            let raw = noise(s.ndofs(), 99);
            let mean = raw.iter().sum::<f64>() / raw.len() as f64;
            let b: Vec<f64> = raw.iter().map(|v| v - mean).collect();
            let x = precondition(&s, &b);
            assert!(max_rel_diff(&stiffness(&s, &x), &b) < 1e-10);
            // and lands in the mass-weighted zero-mean gauge
            assert!(s.integrate(&x).abs() < 1e-10);
        }
    }

    /// A smooth charge that is not an eigenfunction of anything.
    fn lumpy_charge(s: &FeSpace) -> Vec<f64> {
        (0..s.nnodes())
            .map(|n| {
                let [x, y, z] = s.node_coord(n);
                (-(x - 1.7).powi(2) - 0.5 * (y - 2.2).powi(2) - (z - 1.1).powi(2)).exp()
                    - 0.3 * (0.9 * x).cos() * (0.4 * y + 0.2 * z).sin()
            })
            .collect()
    }

    #[test]
    fn cg_verifies_the_fdm_solve_in_at_most_two_iterations() {
        let far_field = |c: [f64; 3]| 0.1 * c[0] - 0.05 * c[2];
        let cases: [(&str, Mesh3d, bool); 3] = [
            ("scf-poisson shape", Mesh3d::cube(7, 14.0, 4), false),
            ("scf-wide shape", Mesh3d::periodic_cube(4, 12.0, 5), true),
            (
                "graded mixed BC",
                test_mesh([Periodic, Dirichlet, Periodic], true, 4),
                false,
            ),
        ];
        for (name, mesh, periodic) in cases {
            let s = FeSpace::new(mesh);
            let rho = lumpy_charge(&s);
            let bc = if periodic {
                PoissonBc::Periodic
            } else {
                PoissonBc::Dirichlet(&far_field)
            };
            let (_, stats) = solve_poisson(&s, &rho, bc, 1e-12, 100);
            assert!(stats.converged, "{name}: {stats:?}");
            assert!(stats.iterations <= 2, "{name}: {stats:?}");
        }
    }

    /// The Jacobi-preconditioned CG this module ran before [`FdmPrec`],
    /// kept as an independent oracle for a Dirichlet solve.
    fn solve_dirichlet_jacobi(s: &FeSpace, rho: &[f64], g: &dyn Fn([f64; 3]) -> f64) -> Vec<f64> {
        let mut phi: Vec<f64> = (0..s.nnodes())
            .map(|n| match s.dof_of_node(n) {
                Some(_) => 0.0,
                None => g(s.node_coord(n)),
            })
            .collect();
        let mut k_bc = vec![0.0; s.nnodes()];
        s.apply_stiffness_nodes(&phi, &mut k_bc);
        let rhs: Vec<f64> = (0..s.ndofs())
            .map(|d| {
                let n = s.node_of_dof(d);
                4.0 * PI * s.mass_diag()[n] * rho[n] - k_bc[n]
            })
            .collect();
        let prec = DiagonalPrec::from_diagonal(&s.stiffness_diagonal());
        let mut x = vec![0.0; s.ndofs()];
        let stats = cg(
            &StiffnessOperator::new(s),
            &prec,
            &rhs,
            &mut x,
            1e-12,
            20000,
        );
        assert!(stats.converged && stats.iterations > 10, "{stats:?}");
        for d in 0..s.ndofs() {
            phi[s.node_of_dof(d)] = x[d];
        }
        phi
    }

    #[test]
    fn fdm_solution_matches_jacobi_oracle_on_graded_mesh() {
        let s = FeSpace::new(test_mesh([Dirichlet; 3], true, 4));
        let rho = lumpy_charge(&s);
        let far_field = |c: [f64; 3]| 0.2 - 0.1 * c[1];
        let (phi, stats) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&far_field), 1e-12, 100);
        assert!(stats.converged);
        let oracle = solve_dirichlet_jacobi(&s, &rho, &far_field);
        let err = max_rel_diff(&phi, &oracle);
        assert!(err < 1e-8, "phi_FDM vs phi_Jacobi: {err:e}");
    }

    #[test]
    fn zero_boundary_data_skips_the_lift_without_changing_bits() {
        // `-0.0` compares equal to zero, so this data takes the skip, while
        // a far field of 1e-300 takes the lift with a K phi_bc that is lost
        // to rounding in the subtraction: both must give the same bits.
        let s = FeSpace::new(test_mesh([Dirichlet; 3], true, 3));
        let rho = lumpy_charge(&s);
        let zero = |_: [f64; 3]| -0.0;
        let tiny = |_: [f64; 3]| 1e-300;
        let (skipped, _) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&zero), 1e-12, 100);
        let (lifted, _) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&tiny), 1e-12, 100);
        for n in 0..s.nnodes() {
            if s.dof_of_node(n).is_some() {
                assert_eq!(skipped[n].to_bits(), lifted[n].to_bits());
            }
        }
    }

    #[test]
    fn failed_axis_factorization_reports_divergence_instead_of_panicking() {
        // NaN cell boundaries give eigh a matrix it cannot converge on
        let bad = Axis::uniform(2, f64::NAN, 4.0, Dirichlet);
        let ok = || Axis::uniform(2, 0.0, 4.0, Dirichlet);
        let s = FeSpace::new(Mesh3d::new([ok(), bad, ok()], 2));
        assert_eq!(
            s.stiffness_inverse().err(),
            Some(&LinalgError::NoConvergence(60))
        );
        let rho = vec![1.0; s.nnodes()];
        let zero = |_: [f64; 3]| 0.0;
        let (phi, stats) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&zero), 1e-10, 100);
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 0);
        assert_eq!(phi.len(), s.nnodes());
        assert_eq!(fdm_apply_flops(&s), 0);
    }

    #[test]
    fn manufactured_dirichlet_solution() {
        // phi = sin(pi x/L) sin(pi y/L) sin(pi z/L) on [0,L]^3 with phi=0 on
        // the boundary; -lap phi = 3 (pi/L)^2 phi = 4 pi rho
        let l = 2.0;
        let s = FeSpace::new(Mesh3d::cube(3, l, 4));
        let kk = 3.0 * (PI / l) * (PI / l);
        let phi_exact = NodalField::from_fn(&s, |[x, y, z]| {
            (PI * x / l).sin() * (PI * y / l).sin() * (PI * z / l).sin()
        });
        let rho: Vec<f64> = phi_exact
            .values
            .iter()
            .map(|&p| kk * p / (4.0 * PI))
            .collect();
        let zero = |_: [f64; 3]| 0.0;
        let (phi, stats) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&zero), 1e-12, 5000);
        assert!(stats.converged);
        let mut max_err = 0.0_f64;
        for n in 0..s.nnodes() {
            max_err = max_err.max((phi[n] - phi_exact.values[n]).abs());
        }
        assert!(max_err < 5e-4, "max error {max_err}");
    }

    #[test]
    fn dirichlet_solution_converges_with_p() {
        let l = 2.0;
        let kk = 3.0 * (PI / l) * (PI / l);
        let mut errs = vec![];
        for p in [2usize, 4] {
            let s = FeSpace::new(Mesh3d::cube(2, l, p));
            let phi_exact = NodalField::from_fn(&s, |[x, y, z]| {
                (PI * x / l).sin() * (PI * y / l).sin() * (PI * z / l).sin()
            });
            let rho: Vec<f64> = phi_exact
                .values
                .iter()
                .map(|&v| kk * v / (4.0 * PI))
                .collect();
            let zero = |_: [f64; 3]| 0.0;
            let (phi, _) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&zero), 1e-13, 8000);
            let err = phi
                .iter()
                .zip(phi_exact.values.iter())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            errs.push(err);
        }
        assert!(
            errs[1] < errs[0] / 20.0,
            "spectral convergence expected: {errs:?}"
        );
    }

    #[test]
    fn periodic_plane_wave_solution() {
        // rho = cos(2 pi x / L) / (4 pi) * (2 pi / L)^2 -> phi = cos(2 pi x/L)
        let l = 3.0;
        let s = FeSpace::new(Mesh3d::periodic_cube(3, l, 4));
        let k = 2.0 * PI / l;
        let rho: Vec<f64> = (0..s.nnodes())
            .map(|n| {
                let x = s.node_coord(n)[0];
                k * k * (k * x).cos() / (4.0 * PI)
            })
            .collect();
        let (phi, stats) = solve_poisson(&s, &rho, PoissonBc::Periodic, 1e-12, 5000);
        assert!(stats.converged);
        let mut max_err = 0.0_f64;
        for n in 0..s.nnodes() {
            let x = s.node_coord(n)[0];
            max_err = max_err.max((phi[n] - (k * x).cos()).abs());
        }
        assert!(max_err < 1e-3, "max error {max_err}");
    }

    #[test]
    fn periodic_neutralizes_uniform_charge() {
        // constant rho must produce (numerically) zero potential after the
        // compatibility projection
        let s = FeSpace::new(Mesh3d::periodic_cube(2, 2.0, 2));
        let rho = vec![0.7; s.nnodes()];
        let (phi, stats) = solve_poisson(&s, &rho, PoissonBc::Periodic, 1e-12, 2000);
        assert!(stats.converged);
        assert!(phi.iter().all(|&v| v.abs() < 1e-8));
    }

    #[test]
    fn gaussian_charge_matches_erf_potential() {
        // rho(r) = q (alpha/pi)^{3/2} exp(-alpha r^2) centred in the box;
        // phi(r) = q erf(sqrt(alpha) r)/r. Use the exact potential as
        // Dirichlet data so the only error is interior discretization.
        let l = 8.0;
        let s = FeSpace::new(Mesh3d::cube(4, l, 4));
        let q = 2.0;
        let alpha = 1.0;
        let ctr = [l / 2.0, l / 2.0, l / 2.0];
        let rho: Vec<f64> = (0..s.nnodes())
            .map(|n| {
                let c = s.node_coord(n);
                let r2 = (0..3).map(|d| (c[d] - ctr[d]).powi(2)).sum::<f64>();
                q * (alpha / PI).powf(1.5) * (-alpha * r2).exp()
            })
            .collect();
        let phi_exact = |c: [f64; 3]| -> f64 {
            let r = (0..3)
                .map(|d| (c[d] - ctr[d]).powi(2))
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            q * erf_approx(alpha.sqrt() * r) / r
        };
        let (phi, stats) = solve_poisson(&s, &rho, PoissonBc::Dirichlet(&phi_exact), 1e-12, 8000);
        assert!(stats.converged);
        // check at two probe points, both nodes of this mesh (a cell centre
        // and a cell face on each axis)
        for probe in [[5.0, 4.0, 4.0], [3.0, 3.0, 5.0]] {
            let node = (0..s.nnodes())
                .find(|&n| (0..3).all(|d| (s.node_coord(n)[d] - probe[d]).abs() < 1e-12))
                .expect("the probe is a node");
            let got = phi[node];
            let want = phi_exact(probe);
            assert!(
                (got - want).abs() < 5e-3 * want.abs().max(0.1),
                "at {probe:?}: {got} vs {want}"
            );
        }
    }

    /// Abramowitz-Stegun 7.1.26 erf approximation (|err| < 1.5e-7).
    fn erf_approx(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        sign * y
    }
}

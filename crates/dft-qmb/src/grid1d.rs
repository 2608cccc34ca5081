//! Uniform 1D real-space grid and the single-particle eigenbasis.

use dft_linalg::eig::eigh;
use dft_linalg::matrix::Matrix;

/// A uniform grid on `[x0, x0 + (n-1) h]`.
#[derive(Clone, Debug)]
pub struct Grid1d {
    /// Left end.
    pub x0: f64,
    /// Spacing.
    pub h: f64,
    /// Number of points.
    pub n: usize,
}

impl Grid1d {
    /// Symmetric grid `[-l/2, l/2]` with `n` points.
    pub fn symmetric(l: f64, n: usize) -> Self {
        assert!(n >= 3);
        Self {
            x0: -l / 2.0,
            h: l / (n - 1) as f64,
            n,
        }
    }

    /// Coordinate of point `i`.
    #[inline]
    pub fn x(&self, i: usize) -> f64 {
        self.x0 + i as f64 * self.h
    }

    /// All coordinates.
    pub fn coords(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.x(i)).collect()
    }

    /// Lowest `n_orb` eigenpairs of `-1/2 d^2/dx^2 + v(x)` with Dirichlet
    /// ends (dense diagonalization of the 3-point stencil). Orbitals are
    /// grid-orthonormalized: `h * sum phi_p phi_q = delta_pq`.
    pub fn orbitals(&self, v: &[f64], n_orb: usize) -> (Vec<f64>, Matrix<f64>) {
        assert_eq!(v.len(), self.n);
        assert!(n_orb <= self.n);
        let n = self.n;
        let mut hmat = Matrix::<f64>::zeros(n, n);
        let k = 0.5 / (self.h * self.h);
        for i in 0..n {
            hmat[(i, i)] = 2.0 * k + v[i];
            if i + 1 < n {
                hmat[(i, i + 1)] = -k;
                hmat[(i + 1, i)] = -k;
            }
        }
        let e = eigh(&hmat).expect("grid Hamiltonian eigensolve");
        let mut orbs = Matrix::<f64>::zeros(n, n_orb);
        for j in 0..n_orb {
            let col = e.eigenvectors.col(j);
            // normalize in the grid inner product
            let nrm = (col.iter().map(|&c| c * c).sum::<f64>() * self.h).sqrt();
            for i in 0..n {
                orbs[(i, j)] = col[i] / nrm;
            }
        }
        (e.eigenvalues[..n_orb].to_vec(), orbs)
    }
}

/// The soft-Coulomb interaction `1/sqrt(u^2 + 1)`.
#[inline]
pub fn soft_coulomb(u: f64) -> f64 {
    1.0 / (u * u + 1.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_in_a_box_levels() {
        // v = 0 on [-L/2, L/2] with Dirichlet ends: E_n = n^2 pi^2 / (2 L^2)
        let l = 10.0;
        let g = Grid1d::symmetric(l, 201);
        let v = vec![0.0; g.n];
        let (evals, _) = g.orbitals(&v, 3);
        // the 3-point stencil imposes psi = 0 one spacing OUTSIDE the grid,
        // so the effective box width is L + 2h
        let leff = l + 2.0 * g.h;
        for (i, &e) in evals.iter().enumerate() {
            let nq = (i + 1) as f64;
            let exact = nq * nq * std::f64::consts::PI.powi(2) / (2.0 * leff * leff);
            assert!(
                (e - exact).abs() < 2e-3 * exact.max(0.01),
                "level {i}: {e} vs {exact}"
            );
        }
    }

    #[test]
    fn harmonic_oscillator_levels_1d() {
        let g = Grid1d::symmetric(20.0, 301);
        let v: Vec<f64> = g.coords().iter().map(|&x| 0.5 * x * x).collect();
        let (evals, _) = g.orbitals(&v, 4);
        for (i, &e) in evals.iter().enumerate() {
            let exact = i as f64 + 0.5;
            assert!((e - exact).abs() < 5e-3, "level {i}: {e}");
        }
    }

    #[test]
    fn orbitals_are_grid_orthonormal() {
        let g = Grid1d::symmetric(16.0, 161);
        let v: Vec<f64> = g
            .coords()
            .iter()
            .map(|&x| -1.0 / (x * x + 1.0).sqrt())
            .collect();
        let (_, orbs) = g.orbitals(&v, 5);
        for p in 0..5 {
            for q in 0..5 {
                let s: f64 = (0..g.n).map(|i| orbs[(i, p)] * orbs[(i, q)]).sum::<f64>() * g.h;
                let expect = if p == q { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-9, "({p},{q}): {s}");
            }
        }
    }

    #[test]
    fn soft_coulomb_properties() {
        assert_eq!(soft_coulomb(0.0), 1.0);
        assert!(soft_coulomb(3.0) < soft_coulomb(1.0));
        assert!((soft_coulomb(10.0) - 0.1).abs() < 1e-3); // ~1/|u| far away
    }
}

//! The 1D soft-Coulomb benchmark systems — analogues of the paper's MLXC
//! training set (H2, LiH, Li, N, Ne) and test molecules.

use crate::grid1d::{soft_coulomb, Grid1d};
use crate::integrals::OrbitalIntegrals;

/// A 1D soft-Coulomb "molecule": nuclei `(Z, X)` plus electron counts.
#[derive(Clone, Debug)]
pub struct SoftCoulombSystem {
    /// Name.
    pub name: String,
    /// Nuclei: (charge, position).
    pub nuclei: Vec<(f64, f64)>,
    /// Spin-up electrons.
    pub n_alpha: usize,
    /// Spin-down electrons.
    pub n_beta: usize,
}

impl SoftCoulombSystem {
    /// Build a system.
    pub fn new(name: &str, nuclei: Vec<(f64, f64)>, n_alpha: usize, n_beta: usize) -> Self {
        Self {
            name: name.to_string(),
            nuclei,
            n_alpha,
            n_beta,
        }
    }

    /// 1D hydrogen atom (Z=1, 1 electron).
    pub fn h_atom() -> Self {
        Self::new("H", vec![(1.0, 0.0)], 1, 0)
    }
    /// 1D helium atom (Z=2, 2 electrons) — the "He/H2-class" training rung.
    pub fn he_atom() -> Self {
        Self::new("He", vec![(2.0, 0.0)], 1, 1)
    }
    /// 1D lithium atom (Z=3, 3 electrons).
    pub fn li_atom() -> Self {
        Self::new("Li", vec![(3.0, 0.0)], 2, 1)
    }
    /// 1D beryllium atom (Z=4, 4 electrons) — the "N/Ne-class" rung.
    pub fn be_atom() -> Self {
        Self::new("Be", vec![(4.0, 0.0)], 2, 2)
    }

    /// Total electrons.
    pub fn n_electrons(&self) -> usize {
        self.n_alpha + self.n_beta
    }

    /// External potential on a grid.
    pub fn external_potential(&self, grid: &Grid1d) -> Vec<f64> {
        grid.coords()
            .iter()
            .map(|&x| {
                self.nuclei
                    .iter()
                    .map(|&(z, xa)| -z * soft_coulomb(x - xa))
                    .sum()
            })
            .collect()
    }

    /// Soft-Coulomb nuclear repulsion.
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for (i, &(zi, xi)) in self.nuclei.iter().enumerate() {
            for &(zj, xj) in &self.nuclei[i + 1..] {
                e += zi * zj * soft_coulomb(xi - xj);
            }
        }
        e
    }

    /// Single-particle eigenbasis + integrals (`n_orb` orbitals on an
    /// `n_grid`-point grid spanning `length`).
    pub fn integrals(&self, n_orb: usize, n_grid: usize, length: f64) -> OrbitalIntegrals {
        let grid = Grid1d::symmetric(length, n_grid);
        let v = self.external_potential(&grid);
        let (e, orbs) = grid.orbitals(&v, n_orb);
        OrbitalIntegrals::in_eigenbasis(grid, &e, orbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_potential_attractive_and_centered() {
        let sys = SoftCoulombSystem::he_atom();
        let g = Grid1d::symmetric(10.0, 101);
        let v = sys.external_potential(&g);
        let mid = 50;
        assert!((v[mid] + 2.0).abs() < 1e-12, "v(0) = -Z");
        assert!(v[0] > v[mid], "potential must decay away from the nucleus");
    }

    #[test]
    fn nuclear_repulsion_of_h2() {
        let h2 = SoftCoulombSystem::new("H2", vec![(1.0, -1.0), (1.0, 1.0)], 1, 1);
        assert!((h2.nuclear_repulsion() - soft_coulomb(2.0)).abs() < 1e-14);
        assert_eq!(SoftCoulombSystem::h_atom().nuclear_repulsion(), 0.0);
    }

    #[test]
    fn training_set_rungs_have_expected_electron_counts() {
        assert_eq!(SoftCoulombSystem::h_atom().n_electrons(), 1);
        assert_eq!(SoftCoulombSystem::he_atom().n_electrons(), 2);
        assert_eq!(SoftCoulombSystem::li_atom().n_electrons(), 3);
        assert_eq!(SoftCoulombSystem::be_atom().n_electrons(), 4);
    }
}

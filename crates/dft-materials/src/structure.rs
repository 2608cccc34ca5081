//! The shared atomic-structure container.

use serde::Serialize;

/// A collection of atoms with species labels in an orthorhombic cell.
#[derive(Clone, Debug, Serialize)]
pub struct Structure {
    /// Cartesian positions (Bohr).
    pub positions: Vec<[f64; 3]>,
    /// Species label per atom ("Mg", "Y", "Yb", "Cd", ...).
    pub species: Vec<&'static str>,
    /// Orthorhombic cell lengths (Bohr).
    pub cell: [f64; 3],
    /// Periodicity per axis.
    pub periodic: [bool; 3],
}

impl Structure {
    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Count atoms of a given species.
    pub fn count(&self, sp: &str) -> usize {
        self.species.iter().filter(|&&s| s == sp).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Structure {
        /// Periodic-aware distance between atoms `i` and `j`.
        pub(crate) fn distance(&self, i: usize, j: usize) -> f64 {
            let mut d2 = 0.0;
            for k in 0..3 {
                let mut dx = self.positions[i][k] - self.positions[j][k];
                if self.periodic[k] {
                    dx -= (dx / self.cell[k]).round() * self.cell[k];
                }
                d2 += dx * dx;
            }
            d2.sqrt()
        }
    }

    fn two_atoms() -> Structure {
        Structure {
            positions: vec![[0.5, 0.5, 0.5], [9.5, 0.5, 0.5]],
            species: vec!["Mg", "Y"],
            cell: [10.0, 10.0, 10.0],
            periodic: [true, false, false],
        }
    }

    #[test]
    fn periodic_distance_uses_nearest_image() {
        let s = two_atoms();
        assert!((s.distance(0, 1) - 1.0).abs() < 1e-12);
        let mut s2 = s.clone();
        s2.periodic = [false; 3];
        assert!((s2.distance(0, 1) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn counts_and_electrons() {
        let s = two_atoms();
        assert_eq!(s.count("Mg"), 1);
        assert_eq!(s.count("Y"), 1);
    }
}

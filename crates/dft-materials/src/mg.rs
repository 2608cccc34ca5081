//! HCP magnesium supercells (orthorhombic 4-atom representation).

use crate::structure::Structure;

/// HCP lattice constant of Mg, Bohr (a = 3.209 Angstrom).
pub const MG_A: f64 = 6.0646;
/// Ideal-ish c/a ratio of Mg (1.624).
pub const MG_C_OVER_A: f64 = 1.624;

/// Build an `nx x ny x nz` orthorhombic HCP supercell. The orthorhombic
/// cell is `a x a*sqrt(3) x c` with 4 atoms at the standard HCP basis.
pub fn hcp_supercell(nx: usize, ny: usize, nz: usize, periodic: [bool; 3]) -> Structure {
    let a = MG_A;
    let b = a * 3.0_f64.sqrt();
    let c = a * MG_C_OVER_A;
    // 4-atom orthorhombic basis of HCP (fractional)
    let basis = [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.5, 5.0 / 6.0, 0.5],
        [0.0, 1.0 / 3.0, 0.5],
    ];
    let mut positions = Vec::with_capacity(4 * nx * ny * nz);
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz {
                for f in basis {
                    positions.push([
                        (ix as f64 + f[0]) * a,
                        (iy as f64 + f[1]) * b,
                        (iz as f64 + f[2]) * c,
                    ]);
                }
            }
        }
    }
    let n = positions.len();
    Structure {
        positions,
        species: vec!["Mg"; n],
        cell: [nx as f64 * a, ny as f64 * b, nz as f64 * c],
        periodic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Structure {
        /// Smallest interatomic distance (periodic-aware, brute force — meant
        /// for validation on moderate systems).
        fn min_distance(&self) -> f64 {
            let n = self.n_atoms();
            let mut dmin = f64::INFINITY;
            for i in 0..n {
                for j in (i + 1)..n {
                    dmin = dmin.min(self.distance(i, j));
                }
            }
            dmin
        }
    }

    #[test]
    fn atom_count_is_four_per_cell() {
        let s = hcp_supercell(3, 2, 2, [true; 3]);
        assert_eq!(s.n_atoms(), 4 * 3 * 2 * 2);
    }

    #[test]
    fn nearest_neighbour_distance_is_close_to_a() {
        let s = hcp_supercell(2, 2, 2, [true; 3]);
        let d = s.min_distance();
        // ideal HCP nearest neighbour = a (in-plane); with c/a slightly
        // above ideal the out-of-plane neighbour is marginally longer
        assert!(
            (d - MG_A).abs() < 0.05 * MG_A,
            "nearest neighbour {d} vs a = {MG_A}"
        );
    }

    #[test]
    fn coordination_number_is_twelve() {
        let s = hcp_supercell(3, 3, 3, [true; 3]);
        // count neighbours of atom 0 within 1.1 * a
        let mut coord = 0;
        for j in 1..s.n_atoms() {
            if s.distance(0, j) < 1.1 * MG_A {
                coord += 1;
            }
        }
        assert_eq!(coord, 12, "HCP coordination");
    }

    #[test]
    fn density_matches_hcp_packing() {
        let s = hcp_supercell(2, 2, 2, [true; 3]);
        let vol = s.cell[0] * s.cell[1] * s.cell[2];
        let v_per_atom = vol / s.n_atoms() as f64;
        // HCP volume per atom = sqrt(3)/2 a^2 c / 2... = a^2 c sqrt(3)/4
        let exact = MG_A * MG_A * (MG_A * MG_C_OVER_A) * 3.0_f64.sqrt() / 4.0;
        assert!((v_per_atom - exact).abs() < 1e-9 * exact);
    }
}

//! Extended defects: screw dislocations and random solutes (the tests
//! build the reflection twin).
//!
//! These generate the paper's Mg-Y benchmark family: "DislocMgY" (a
//! pyramidal II ⟨c+a⟩ screw dislocation with a Y solute in the core) and
//! "TwinDislocMgY" (the dislocation interacting with a reflection twin in
//! a 1 at.% Y random solid solution).

use crate::structure::Structure;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Apply a Volterra screw-dislocation displacement with the line along `z`
/// through `(x0, y0)` and Burgers magnitude `b` (displacement along `z`):
///
/// ```text
/// u_z(x, y) = b / (2 pi) * atan2(y - y0, x - x0)
/// ```
pub fn screw_dislocation_z(s: &mut Structure, x0: f64, y0: f64, b: f64) {
    for p in s.positions.iter_mut() {
        let theta = (p[1] - y0).atan2(p[0] - x0);
        p[2] += b * theta / (2.0 * std::f64::consts::PI);
    }
}

/// Substitute a fraction `concentration` of host atoms by `solute`
/// (deterministic for a given seed). Returns the indices substituted.
pub fn random_solutes(
    s: &mut Structure,
    solute: &'static str,
    concentration: f64,
    seed: u64,
) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&concentration));
    let n = s.n_atoms();
    let target = ((n as f64) * concentration).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = Vec::with_capacity(target);
    while chosen.len() < target {
        let i = rng.gen_range(0..n);
        if !chosen.contains(&i) {
            chosen.push(i);
            s.species[i] = solute;
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg::hcp_supercell;

    /// The screw displacement field itself.
    fn screw_uz(x: f64, y: f64, x0: f64, y0: f64, b: f64) -> f64 {
        b * (y - y0).atan2(x - x0) / (2.0 * std::f64::consts::PI)
    }

    #[test]
    fn burgers_circuit_closes_to_b() {
        // going around the line once accumulates exactly b
        let b = 11.4; // |<c+a>| of Mg in Bohr, roughly
        let mut acc: f64 = 0.0;
        let n = 400;
        let mut prev = screw_uz(1.0, 0.0, 0.0, 0.0, b);
        for k in 1..=n {
            let th = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            // avoid the branch cut by integrating increments
            let u = screw_uz(th.cos(), th.sin(), 0.0, 0.0, b);
            let mut du = u - prev;
            if du > b / 2.0 {
                du -= b;
            }
            if du < -b / 2.0 {
                du += b;
            }
            acc += du;
            prev = u;
        }
        assert!((acc.abs() - b).abs() < 1e-9, "circuit sum {acc} vs b {b}");
    }

    #[test]
    fn screw_displaces_antisymmetrically() {
        let mut s = hcp_supercell(2, 2, 2, [false, false, true]);
        let before = s.positions.clone();
        let (cx, cy) = (s.cell[0] / 2.0 + 0.1, s.cell[1] / 2.0 + 0.1);
        screw_dislocation_z(&mut s, cx, cy, 2.0);
        // displacement depends only on the angle: points opposite each
        // other differ by +-b/2
        let mut moved = 0;
        for (p, q) in s.positions.iter().zip(before.iter()) {
            if (p[2] - q[2]).abs() > 1e-9 {
                moved += 1;
            }
            assert!((p[2] - q[2]).abs() <= 1.0 + 1e-12, "|u_z| <= b/2");
        }
        assert!(moved > s.n_atoms() / 2, "most atoms displaced");
    }

    #[test]
    fn solutes_hit_requested_concentration_and_are_deterministic() {
        let mut s1 = hcp_supercell(4, 3, 3, [true; 3]);
        let picked1 = random_solutes(&mut s1, "Y", 0.01, 9);
        let mut s2 = hcp_supercell(4, 3, 3, [true; 3]);
        let picked2 = random_solutes(&mut s2, "Y", 0.01, 9);
        assert_eq!(picked1, picked2, "seeded determinism");
        let n = s1.n_atoms();
        let want = ((n as f64) * 0.01).round() as usize;
        assert_eq!(s1.count("Y"), want);
        assert_eq!(s1.count("Mg"), n - want);
        // a different seed picks different sites
        let mut s3 = hcp_supercell(4, 3, 3, [true; 3]);
        let picked3 = random_solutes(&mut s3, "Y", 0.01, 10);
        assert_ne!(picked1, picked3);
    }
}

#[cfg(test)]
mod twin_tests {
    use super::*;
    use crate::mg::hcp_supercell;

    /// Build a reflection twin with a coherent boundary at `z = z_plane`: the
    /// lower half of the input crystal is kept, the upper half is replaced by
    /// the **mirror image** of the lower half. Atoms within `merge_tol` of the
    /// plane sit on the boundary and are kept once.
    fn reflection_twin_z(s: &Structure, z_plane: f64, merge_tol: f64) -> Structure {
        let mut positions = Vec::new();
        let mut species = Vec::new();
        for (p, &sp) in s.positions.iter().zip(&s.species) {
            if p[2] <= z_plane + merge_tol {
                positions.push(*p);
                species.push(sp);
                // mirror partner above the plane (skip boundary atoms — they
                // map onto themselves)
                if p[2] < z_plane - merge_tol {
                    let zm = 2.0 * z_plane - p[2];
                    if zm <= s.cell[2] + merge_tol {
                        positions.push([p[0], p[1], zm]);
                        species.push(sp);
                    }
                }
            }
        }
        Structure {
            positions,
            species,
            cell: s.cell,
            periodic: s.periodic,
        }
    }

    #[test]
    fn twin_is_mirror_symmetric_about_the_plane() {
        let base = hcp_supercell(2, 2, 4, [true, true, false]);
        let zp = base.cell[2] / 2.0;
        let twin = reflection_twin_z(&base, zp, 1e-6);
        // every atom must have a mirror partner (itself if on the plane)
        for (i, p) in twin.positions.iter().enumerate() {
            let zm = 2.0 * zp - p[2];
            if zm < 0.0 || zm > twin.cell[2] {
                continue;
            }
            let found = twin.positions.iter().any(|q| {
                (q[0] - p[0]).abs() < 1e-9 && (q[1] - p[1]).abs() < 1e-9 && (q[2] - zm).abs() < 1e-9
            });
            assert!(found, "atom {i} at {p:?} lacks mirror partner");
        }
    }

    #[test]
    fn twin_breaks_translational_symmetry_along_z() {
        // the twinned crystal is NOT the perfect crystal
        let base = hcp_supercell(1, 1, 4, [true, true, false]);
        let zp = base.cell[2] / 2.0;
        let twin = reflection_twin_z(&base, zp, 1e-6);
        let mut differs = false;
        'outer: for p in &twin.positions {
            for q in &base.positions {
                if (p[0] - q[0]).abs() < 1e-9
                    && (p[1] - q[1]).abs() < 1e-9
                    && (p[2] - q[2]).abs() < 1e-9
                {
                    continue 'outer;
                }
            }
            differs = true;
            break;
        }
        assert!(differs, "twin must differ from the perfect crystal");
    }
}

//! Extended defects: screw dislocations and random solutes.
//!
//! These build the paper's Mg-Y benchmark "DislocMgY" (a pyramidal II
//! ⟨c+a⟩ screw dislocation with a Y solute in the core) and the dislocation
//! and 1 at.% Y random solid solution of "TwinDislocMgY"; its reflection
//! twin is not built here.

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

//! Request-side structure generators: families of related [`Structure`]s
//! sized for submission as serving bursts (screening scans, equation-of-state
//! sweeps). Each generator derives a whole batch from one base structure, so
//! a job server sees many near-identical requests — the access pattern the
//! converged-state cache and warm-start path are built for.
//!
//! All generators are deterministic given their inputs.

use crate::structure::Structure;

/// Isotropic strain scan: one structure per strain `e`, with the cell and
/// every Cartesian position scaled by `1 + e` (fractional coordinates are
/// preserved). The classic equation-of-state burst.
// dftlint:allow(L009, reason="request family of dft-serve/tests/serve.rs")
pub fn strain_scan(base: &Structure, strains: &[f64]) -> Vec<Structure> {
    strains
        .iter()
        .map(|&e| {
            let s = 1.0 + e;
            let mut out = base.clone();
            for k in 0..3 {
                out.cell[k] *= s;
            }
            for p in &mut out.positions {
                for k in 0..3 {
                    p[k] *= s;
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Substitution scan for dilute-solute screening: one structure per listed
    /// site, with that site's species replaced by `solute`. Submitting the
    /// family probes every symmetry-inequivalent substitution of a supercell.
    fn substitution_scan(
        base: &Structure,
        solute: &'static str,
        sites: &[usize],
    ) -> Vec<Structure> {
        sites
            .iter()
            .map(|&i| {
                let mut out = base.clone();
                out.species[i] = solute;
                out
            })
            .collect()
    }

    /// Deterministic thermal-jitter ensemble: `count` copies of `base` with
    /// every coordinate displaced by at most `amp` (Bohr), driven by a
    /// splitmix64 stream seeded from `seed` — the same inputs always produce
    /// the same ensemble, so resubmitted bursts hit the converged-state cache.
    fn jitter_ensemble(base: &Structure, amp: f64, count: usize, seed: u64) -> Vec<Structure> {
        let mut state = seed;
        let mut next_unit = || {
            // splitmix64: cheap, reproducible, no external RNG dependency
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            // map to [-1, 1)
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        (0..count)
            .map(|_| {
                let mut out = base.clone();
                for p in &mut out.positions {
                    for k in 0..3 {
                        p[k] += amp * next_unit();
                    }
                }
                out
            })
            .collect()
    }

    fn base() -> Structure {
        Structure {
            positions: vec![[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]],
            species: vec!["Mg", "Mg"],
            cell: [6.0, 6.0, 6.0],
            periodic: [true; 3],
        }
    }

    #[test]
    fn strain_scan_preserves_fractional_coordinates() {
        let family = strain_scan(&base(), &[-0.02, 0.0, 0.02]);
        assert_eq!(family.len(), 3);
        assert_eq!(family[1].cell, base().cell);
        for s in &family {
            for (p, p0) in s.positions.iter().zip(base().positions.iter()) {
                for k in 0..3 {
                    let frac = p[k] / s.cell[k];
                    let frac0 = p0[k] / base().cell[k];
                    assert!((frac - frac0).abs() < 1e-15);
                }
            }
        }
        assert!(family[0].cell[0] < 6.0 && family[2].cell[0] > 6.0);
    }

    #[test]
    fn substitution_scan_swaps_exactly_one_site() {
        let family = substitution_scan(&base(), "Y", &[0, 1]);
        assert_eq!(family.len(), 2);
        assert_eq!(family[0].species, vec!["Y", "Mg"]);
        assert_eq!(family[1].species, vec!["Mg", "Y"]);
        for s in &family {
            assert_eq!(s.count("Y"), 1);
            assert_eq!(s.positions, base().positions);
        }
    }

    #[test]
    fn jitter_ensemble_is_deterministic_and_bounded() {
        let a = jitter_ensemble(&base(), 0.1, 4, 7);
        let b = jitter_ensemble(&base(), 0.1, 4, 7);
        let c = jitter_ensemble(&base(), 0.1, 4, 8);
        assert_eq!(a.len(), 4);
        for (sa, sb) in a.iter().zip(b.iter()) {
            assert_eq!(sa.positions, sb.positions, "same seed must reproduce");
        }
        let moved = a
            .iter()
            .zip(c.iter())
            .any(|(sa, sc)| sa.positions != sc.positions);
        assert!(moved, "different seeds must differ");
        for s in &a {
            for (p, p0) in s.positions.iter().zip(base().positions.iter()) {
                for k in 0..3 {
                    assert!((p[k] - p0[k]).abs() <= 0.1, "displacement exceeds amp");
                }
            }
        }
    }
}

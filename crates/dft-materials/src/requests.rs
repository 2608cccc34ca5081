//! Request-side structure generators: families of related [`Structure`]s
//! sized for submission as serving bursts (equation-of-state sweeps). A
//! generator derives a whole batch from one base structure, so a job server
//! sees many near-identical requests — the access pattern the
//! converged-state cache and warm-start path are built for.
//!
//! Generators are deterministic given their inputs.

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
}

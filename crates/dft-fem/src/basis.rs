//! 1D Lagrange bases on GLL nodes: barycentric weights and the
//! collocation differentiation matrix.

use crate::gll::gauss_lobatto_legendre;

/// Degree-`p` Lagrange basis on the `p+1` GLL nodes of `[-1, 1]`.
#[derive(Clone, Debug)]
pub struct Lagrange1d {
    /// Polynomial degree.
    pub degree: usize,
    /// GLL nodes (length `degree + 1`).
    pub nodes: Vec<f64>,
    /// GLL quadrature weights at the nodes.
    pub weights: Vec<f64>,
    /// Barycentric weights `b_i = 1 / prod_{j != i}(x_i - x_j)`.
    pub bary: Vec<f64>,
    /// Differentiation matrix `D[i][j] = l_j'(x_i)`, row-major
    /// `(p+1) x (p+1)`.
    pub dmat: Vec<f64>,
    /// Reference 1D stiffness `Khat[i][j] = sum_q w_q l_i'(x_q) l_j'(x_q)`,
    /// row-major.
    pub khat: Vec<f64>,
}

impl Lagrange1d {
    /// Construct the basis for polynomial degree `p >= 1`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "degree must be at least 1");
        let n = p + 1;
        let (nodes, weights) = gauss_lobatto_legendre(n);
        let mut bary = vec![1.0; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    bary[i] /= nodes[i] - nodes[j];
                }
            }
        }
        // D[i][j] = l_j'(x_i)
        let mut dmat = vec![0.0; n * n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let d = (bary[j] / bary[i]) / (nodes[i] - nodes[j]);
                    dmat[i * n + j] = d;
                    row_sum += d;
                }
            }
            dmat[i * n + i] = -row_sum;
        }
        // Khat[i][j] = sum_q w_q D[q][i] D[q][j]
        let mut khat = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for q in 0..n {
                    s += weights[q] * dmat[q * n + i] * dmat[q * n + j];
                }
                khat[i * n + j] = s;
            }
        }
        Self {
            degree: p,
            nodes,
            weights,
            bary,
            dmat,
            khat,
        }
    }

    /// Number of nodes (`degree + 1`).
    #[inline]
    pub fn n(&self) -> usize {
        self.degree + 1
    }

    /// Entry of the differentiation matrix: `l_j'(x_i)`.
    #[inline]
    pub fn d(&self, i: usize, j: usize) -> f64 {
        self.dmat[i * self.n() + j]
    }

    /// Entry of the reference stiffness matrix.
    #[inline]
    pub fn k(&self, i: usize, j: usize) -> f64 {
        self.khat[i * self.n() + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differentiation_matrix_exact_on_polynomials() {
        // D applied to nodal values of x^k must give k x^{k-1} at nodes
        let p = 6;
        let b = Lagrange1d::new(p);
        for k in 0..=p {
            let f: Vec<f64> = b.nodes.iter().map(|&x| x.powi(k as i32)).collect();
            for i in 0..b.n() {
                let mut df = 0.0;
                for j in 0..b.n() {
                    df += b.d(i, j) * f[j];
                }
                let exact = if k == 0 {
                    0.0
                } else {
                    k as f64 * b.nodes[i].powi(k as i32 - 1)
                };
                assert!((df - exact).abs() < 1e-10, "k={k} i={i}: {df} vs {exact}");
            }
        }
    }

    #[test]
    fn stiffness_is_symmetric_psd_with_constant_nullspace() {
        let b = Lagrange1d::new(4);
        let n = b.n();
        for i in 0..n {
            for j in 0..n {
                assert!((b.k(i, j) - b.k(j, i)).abs() < 1e-12);
            }
            // K * ones = 0 (constants have zero derivative)
            let row_sum: f64 = (0..n).map(|j| b.k(i, j)).sum();
            assert!(row_sum.abs() < 1e-12);
        }
    }

    #[test]
    fn stiffness_matches_exact_linear_energy() {
        // For u(x) = x on [-1,1]: integral of (u')^2 = 2 = x^T K x with
        // x = nodes
        let b = Lagrange1d::new(3);
        let n = b.n();
        let mut e = 0.0;
        for i in 0..n {
            for j in 0..n {
                e += b.nodes[i] * b.k(i, j) * b.nodes[j];
            }
        }
        assert!((e - 2.0).abs() < 1e-12);
    }
}

// dftlint:fixture(crate="dft-linalg", file="blas1.rs")
// L009: a `.dot(` method call does not reach the free `pub fn dot`; only a
// bare or path reference does, so the free function is flagged.

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn energy(m: &Matrix, x: &[f64]) -> f64 {
    m.dot(x)
}

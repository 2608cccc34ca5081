// dftlint:fixture(crate="dft-linalg", file="blas1.rs")
// L009: a `pub fn` that nothing calls is flagged; one that production
// code calls is not, and neither are private or `pub(crate)` items.

pub fn used(x: f64) -> f64 {
    2.0 * x
}

pub fn uncalled(x: f64) -> f64 {
    x + 1.0
}

pub(crate) fn crate_private(x: f64) -> f64 {
    used(x)
}

fn private(x: f64) -> f64 {
    crate_private(x)
}

// dftlint:fixture(crate="dft-linalg", file="gemm.rs")
// L009: the one way out is an allow that names the suite the item serves;
// an allow without a reason is itself an L000 and suppresses nothing.

/// The oracle of the parity suite.
// dftlint:allow(L009, reason="oracle of tests/simd_parity.rs")
pub fn gemm_reference(a: f64) -> f64 {
    a
}

// dftlint:allow(L009)
pub fn unexplained(a: f64) -> f64 {
    a
}

// dftlint:fixture(crate="dft-linalg", file="iterative.rs")
// L009: a local bound by `let` (or `let mut`) that shares a function's
// name is that local, not a caller, so both functions here are flagged.

pub fn minres(b: f64) -> f64 {
    b / 2.0
}

pub fn cg(b: f64) -> f64 {
    b * 2.0
}

fn iteration_budget() -> f64 {
    let minres = 60.0;
    let mut cg = 1.0;
    cg += minres;
    cg
}

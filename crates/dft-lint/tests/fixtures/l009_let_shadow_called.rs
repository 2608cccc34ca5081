// dftlint:fixture(crate="dft-linalg", file="iterative.rs")
// L009: a `let` local that shares a function's name does not hide a real
// call `name(` elsewhere in the file.

pub fn minres(b: f64) -> f64 {
    b / 2.0
}

fn iteration_budget() -> f64 {
    let minres = 60.0;
    minres * 2.0
}

fn solve() -> f64 {
    minres(4.0)
}

// dftlint:fixture(crate="dft-fem", file="field.rs")
// L009: a name in a comment, a doc link or a string is not a caller.

/// Equivalent to [`norm_l2`] squared; see also `norm_l2`.
pub fn inner(a: &[f64]) -> f64 {
    let label = "norm_l2";
    let _ = label;
    a.iter().map(|x| x * x).sum()
}

pub fn norm_l2(a: &[f64]) -> f64 {
    // norm_l2(a) == inner(a).sqrt()
    inner(a).sqrt()
}

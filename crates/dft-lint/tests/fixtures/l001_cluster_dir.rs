// dftlint:fixture(crate="dft-core", file="crates/dft-core/src/cluster/scf.rs")
// L001 and L004's hash-container ban reach the rank's half of the solver,
// which `dft-core` holds in `src/cluster/`; the rest of `dft-core` may
// panic (see l001_core_outside_cluster.rs).

use std::collections::HashMap;

fn risky(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn explode() {
    panic!("no");
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_panics_are_fine() {
        None::<u32>.unwrap();
    }
}

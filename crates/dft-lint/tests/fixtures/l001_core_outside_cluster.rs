// dftlint:fixture(crate="dft-core", file="crates/dft-core/src/scf.rs")
// Outside `src/cluster/`, `dft-core` is not fault-tolerant code: a panic
// or a hash container there is not an L001 or L004 finding.

use std::collections::HashMap;

fn risky(x: Option<u32>) -> u32 {
    x.unwrap()
}

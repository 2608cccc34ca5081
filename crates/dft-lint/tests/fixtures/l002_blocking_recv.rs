// dftlint:fixture(crate="dft-core", file="crates/dft-core/src/cluster/operator.rs")
// L002: raw blocking receives are comm.rs-internal; everyone else must
// use the `_deadline` variants (shared collective deadline) or polling.

fn halo_pull(c: &mut ThreadComm, prev: usize) -> Result<Vec<u8>, CommError> {
    c.recv_bytes(prev, 7)
}

fn halo_floats(c: &mut ThreadComm, prev: usize) -> Result<Vec<f64>, CommError> {
    c.recv_f64(prev, 7, WirePrecision::Fp64)
}

fn deadline_ok(c: &mut ThreadComm, prev: usize, deadline: Instant) -> Result<Vec<u8>, CommError> {
    c.recv_bytes_deadline(prev, 7, deadline)
}

fn poll_ok(c: &mut ThreadComm, prev: usize) -> Result<Option<Vec<u8>>, CommError> {
    c.try_recv_bytes(prev, 7)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_block() {
        let got = comm().recv_bytes(0, 7);
        drop(got);
    }
}

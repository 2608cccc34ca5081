// dftlint:fixture(crate="dft-core", file="crates/dft-core/src/cluster/relax.rs")
//! L007: CommError paths that never reach the poison cascade.

/// Swallowed with `let _ =`: the failure is invisible to the SCF loop.
fn swallow_with_let_underscore(c: &mut ThreadComm) {
    let mut v = [0.0];
    let _ = c.allreduce_sum_f64(&mut v, WirePrecision::Fp64);
}

/// Discarded with `.ok()` and `.unwrap_or_default()`.
fn swallow_with_ok(c: &mut ThreadComm) -> Option<Vec<f64>> {
    c.advance_epoch().ok();
    c.try_recv_f64(1, 7, WirePrecision::Fp64).unwrap_or_default()
}

/// A bare `continue` on the `Err` arm of a comm receive: the loop spins
/// on a poisoned communicator instead of surfacing the typed error.
fn swallow_with_continue(c: &mut ThreadComm, deadline: Instant) -> Result<(), ScfError> {
    loop {
        match c.recv_f64_deadline(0, 7, WirePrecision::Fp64, deadline) {
            Ok(v) => return use_payload(v),
            Err(_) => continue,
        }
    }
}

/// Clean: binding and observing the result keeps the poison visible.
fn observe_is_err(c: &mut ThreadComm) -> Result<(), CommError> {
    let r = c.barrier();
    if r.is_err() {
        return r;
    }
    Ok(())
}

/// Clean: `?` propagates the typed error.
fn propagate(c: &mut ThreadComm) -> Result<(), CommError> {
    let _ = c.try_recv_bytes(1, 7)?;
    Ok(())
}

/// Suppressed: a deliberate swallow whose failure is observed elsewhere.
fn deliberate_swallow(c: &mut ThreadComm) {
    let mut v = [0.0];
    // dftlint:allow(L007, reason="closure shape: the failed allreduce poisons the communicator and failure() is checked by the caller")
    let _ = c.allreduce_sum_f64(&mut v, WirePrecision::Fp64);
}

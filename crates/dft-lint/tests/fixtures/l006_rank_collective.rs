// dftlint:fixture(crate="dft-core", file="crates/dft-core/src/cluster/scf.rs")
//! L006: collectives under rank-dependent control flow.

/// Seeded violation: only rank 0 enters the allreduce — every other rank
/// blocks in it forever.
fn rank_conditional_collective(c: &mut ThreadComm, rank: usize) -> Result<(), CommError> {
    let mut v = [1.0];
    if rank == 0 {
        c.allreduce_sum_f64(&mut v, WirePrecision::Fp64)?;
    }
    Ok(())
}

/// Early exit between paired collectives: rank 0 can return before the
/// second barrier while its peers enter it.
fn early_return_between_collectives(c: &mut ThreadComm, rank: usize) -> Result<(), CommError> {
    c.barrier()?;
    if rank == 0 {
        save_checkpoint().map_err(to_comm)?;
    }
    c.barrier()?;
    Ok(())
}

/// The call-summary graph: `reduce_all` emits a collective transitively,
/// so calling it under a rank-dependent branch is the same bug.
fn reduce_all(c: &mut ThreadComm, v: &mut [f64]) -> Result<(), CommError> {
    c.allreduce_sum_f64(v, WirePrecision::Fp64)
}

fn rank_conditional_helper(c: &mut ThreadComm, my_rank: usize) -> Result<(), CommError> {
    let mut v = [0.0];
    if my_rank != 0 {
        reduce_all(c, &mut v)?;
    }
    Ok(())
}

/// Clean: both branches emit the same collective sequence, so every rank
/// issues the same calls regardless of the branch it takes.
fn same_sequence_both_branches(c: &mut ThreadComm, rank: usize, group: &[usize]) -> Result<(), CommError> {
    let mut v = [0.0];
    if rank == 0 {
        fill_root(&mut v);
        c.group_broadcast_f64(group, &mut v, WirePrecision::Fp64)?;
    } else {
        c.group_broadcast_f64(group, &mut v, WirePrecision::Fp64)?;
    }
    Ok(())
}

/// Clean: a rank-0 filesystem write involves no collectives and no early
/// exit — the canonical checkpoint-finalize shape.
fn rank_zero_fs_write(rank: usize, path: &Path) {
    if rank == 0 {
        let _ = std::fs::write(path, b"state");
    }
}

/// Suppressed: group collectives legitimately run on their members only.
fn group_root_reduce(c: &mut ThreadComm, rank: usize, roots: &[usize]) -> Result<(), CommError> {
    let mut v = [0.0];
    // dftlint:allow(L006, reason="only group roots are members of `roots`; every member runs the same sequence")
    if roots.contains(&rank) {
        c.group_allreduce_sum_f64(roots, &mut v, WirePrecision::Fp64)?;
    }
    Ok(())
}

/// Seeded violation: the node rule is rank identity — only the rank that
/// speaks for node 0 would enter the allreduce.
fn node_owner_collective(c: &mut ThreadComm, dist: &DistSpace) -> Result<(), CommError> {
    let mut v = [0.0];
    if dist.owns_node(0) {
        c.allreduce_sum_f64(&mut v, WirePrecision::Fp64)?;
    }
    Ok(())
}

//! The thread budget of a caller on the one shared worker pool.
//!
//! Every parallel region (GEMM slabs, cell-sweep blocks) runs on the one
//! persistent pool and plans for [`rayon::current_num_threads`] threads.
//! Whatever splits the machine — the ranks of a cluster, the job slots of
//! the server, the k-point lanes of the serial SCF — hands each part its
//! share through these helpers instead, as a cap that everything the part
//! calls sees. A region under a cap of one runs inline. No option and no
//! environment variable: a share follows from how many parts there are.

use dft_hpc::comm::ThreadComm;

/// Run `f` with every parallel region it opens capped at `n` threads (at
/// least one).
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    match rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build()
    {
        Ok(cap) => cap.install(f),
        // no cap is a slower run, not a wrong one
        Err(_) => f(),
    }
}

/// Run `f` on `share / of` of the calling thread's own thread budget — a
/// job that holds `share` of a pool's `of` ranks gets that fraction of the
/// cores, so two busy slots do not each plan for all of them.
pub fn with_thread_share<R: Send>(share: usize, of: usize, f: impl FnOnce() -> R + Send) -> R {
    with_threads(rayon::current_num_threads() * share / of.max(1), f)
}

/// A rank entry point's prologue: run `f` on this rank's `1 / comm.size()`
/// of the budget its thread was started with.
pub fn rank_threads<R: Send>(
    comm: &mut ThreadComm,
    f: impl FnOnce(&mut ThreadComm) -> R + Send,
) -> R {
    with_thread_share(1, comm.size(), || f(comm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_hpc::comm::run_cluster;

    /// Ranks × threads ≤ cores: inside a 1-rank cluster a rank plans for
    /// the whole host, inside an `n`-rank cluster for its `1 / n` of it (2
    /// and 1 on a 2-thread host), never for less than one thread; a share
    /// nests by multiplying, and the cap ends with the call.
    #[test]
    fn a_rank_plans_for_its_share_of_the_host() {
        let host = rayon::current_num_threads();
        for nranks in [1, 2, 3] {
            let (seen, _) = run_cluster(nranks, |comm| {
                rank_threads(comm, |_| rayon::current_num_threads())
            });
            assert_eq!(seen, vec![(host / nranks).max(1); nranks]);
        }
        with_threads(8, || {
            assert_eq!(rayon::current_num_threads(), 8);
            with_thread_share(1, 2, || {
                assert_eq!(rayon::current_num_threads(), 4);
                with_thread_share(1, 8, || assert_eq!(rayon::current_num_threads(), 1));
            });
            assert_eq!(rayon::current_num_threads(), 8);
        });
        assert_eq!(rayon::current_num_threads(), host);
    }
}

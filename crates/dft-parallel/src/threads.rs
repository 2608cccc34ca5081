//! The intra-rank thread budget: ranks × threads ≤ cores.
//!
//! Every rank is a thread of its own, and so is every job slot of the
//! server; each opens parallel regions (GEMM slabs, cell-sweep blocks) on
//! the one shared worker pool. Left alone, each would plan those regions
//! for the whole machine. A rank gets its share instead, through the one
//! cap helper ([`dft_core::threads`]): `R` ranks on `C` cores run
//! `max(1, C / R)` threads each, and a region under a cap of one runs
//! inline. No option and no environment variable: the share follows from
//! the rank count.

pub use dft_core::threads::with_thread_share;
use dft_hpc::comm::ThreadComm;

/// A rank entry point's prologue: run `f` on this rank's `1 / comm.size()`
/// of the budget its thread was started with.
pub(crate) fn rank_threads<R: Send>(
    comm: &mut ThreadComm,
    f: impl FnOnce(&mut ThreadComm) -> R + Send,
) -> R {
    let size = comm.size();
    with_thread_share(1, size, || f(comm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::threads::with_threads;
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

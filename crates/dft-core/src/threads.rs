//! The thread budget of a caller on the one shared worker pool.
//!
//! Every parallel region (GEMM slabs, cell-sweep blocks) runs on the one
//! persistent pool and plans for [`rayon::current_num_threads`] threads.
//! Whatever splits the machine — the ranks of a cluster, the job slots of
//! the server, the k-point lanes of the serial SCF — hands each part its
//! share through these helpers instead, as a cap that everything the part
//! calls sees. A region under a cap of one runs inline. No option and no
//! environment variable: a share follows from how many parts there are.

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

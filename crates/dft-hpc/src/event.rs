//! Two-stream compute/communication overlap, in closed form.
//!
//! The paper overlaps GPU compute with data movement by issuing work on two
//! GPU streams (Sec. 5.4.3): while block `k` of `H X` is being computed, the
//! partition-boundary communication of block `k-1` is in flight. The one
//! schedule the performance model prices this way is a pipeline of equal
//! blocks, and its makespan has a closed form ([`pipelined_blocks`]); the
//! tests check it against a discrete-event queue.

/// Makespan of the pipelined block schedule: `n` blocks, each a compute
/// task of `t_compute` followed by a communication task of `t_comm` that
/// depends on it.
///
/// Without `overlap` everything serializes on one stream:
/// `n (t_compute + t_comm)`. With `overlap` the communication of block `k`
/// runs on a second stream while block `k+1` computes, so the busier stream
/// sets the pace and only the other stream's first (or last) task is
/// exposed: `min(t_compute, t_comm) + n max(t_compute, t_comm)`. No blocks
/// take no time.
///
/// This is the paper's Sec. 5.4.3 pattern for the `H X` boundary exchange
/// and for the CholGS-S / RR-P allreduce pipelines.
pub fn pipelined_blocks(n: usize, t_compute: f64, t_comm: f64, overlap: bool) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    if overlap {
        t_compute.min(t_comm) + n * t_compute.max(t_comm)
    } else {
        n * (t_compute + t_comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMPUTE: usize = 0;
    const COMM: usize = 1;

    /// The discrete-event oracle: a task starts once every earlier task on
    /// its stream and every dependency has finished.
    #[derive(Default)]
    struct Queue {
        /// `(stream, finish time)` of every task, in issue order.
        tasks: Vec<(usize, f64)>,
    }

    impl Queue {
        fn add(&mut self, stream: usize, duration: f64, deps: &[usize]) -> usize {
            let stream_ready = self.tasks.iter().filter(|t| t.0 == stream).map(|t| t.1);
            let start = deps
                .iter()
                .map(|&d| self.tasks[d].1)
                .chain(stream_ready)
                .fold(0.0, f64::max);
            self.tasks.push((stream, start + duration));
            self.tasks.len() - 1
        }

        fn finish(&self, id: usize) -> f64 {
            self.tasks[id].1
        }

        fn makespan(&self) -> f64 {
            self.tasks.iter().map(|t| t.1).fold(0.0, f64::max)
        }
    }

    /// The event-queue schedule that [`pipelined_blocks`] is the closed
    /// form of.
    fn pipelined_oracle(n: usize, t_compute: f64, t_comm: f64, overlap: bool) -> f64 {
        let mut q = Queue::default();
        for _ in 0..n {
            let c = q.add(COMPUTE, t_compute, &[]);
            q.add(if overlap { COMM } else { COMPUTE }, t_comm, &[c]);
        }
        q.makespan()
    }

    #[test]
    fn serial_chain_adds_up() {
        let mut q = Queue::default();
        let a = q.add(COMPUTE, 1.0, &[]);
        let b = q.add(COMPUTE, 2.0, &[a]);
        q.add(COMPUTE, 3.0, &[b]);
        assert!((q.makespan() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn independent_streams_overlap() {
        let mut q = Queue::default();
        let a = q.add(COMPUTE, 5.0, &[]);
        let b = q.add(COMM, 3.0, &[]);
        assert!((q.makespan() - 5.0).abs() < 1e-12);
        assert!((q.finish(a) - 5.0).abs() < 1e-12 && (q.finish(b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cross_stream_dependency_respected() {
        let mut q = Queue::default();
        let a = q.add(COMPUTE, 2.0, &[]);
        let b = q.add(COMM, 1.0, &[a]);
        let c = q.add(COMPUTE, 1.0, &[b]);
        assert!((q.finish(c) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_overlap_hides_communication() {
        // 10 blocks, compute 1s, comm 0.8s:
        // serial: 10 * 1.8 = 18; overlapped: 10*1 + 0.8 = 10.8
        let serial = pipelined_blocks(10, 1.0, 0.8, false);
        let overlapped = pipelined_blocks(10, 1.0, 0.8, true);
        assert!((serial - 18.0).abs() < 1e-9);
        assert!((overlapped - 10.8).abs() < 1e-9);
    }

    #[test]
    fn pipelined_comm_bound_case() {
        // comm dominates: makespan ~= first compute + n * t_comm
        let overlapped = pipelined_blocks(5, 0.2, 1.0, true);
        assert!((overlapped - (0.2 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn closed_form_matches_the_event_queue() {
        for n in [0, 1, 2, 7, 1000] {
            for (t_compute, t_comm) in [(0.3, 1.1), (0.7, 0.7), (1.3, 0.2)] {
                for overlap in [false, true] {
                    let got = pipelined_blocks(n, t_compute, t_comm, overlap);
                    let want = pipelined_oracle(n, t_compute, t_comm, overlap);
                    assert!(
                        (got - want).abs() <= 1e-12 * want,
                        "n={n} t_c={t_compute} t_m={t_comm} overlap={overlap}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

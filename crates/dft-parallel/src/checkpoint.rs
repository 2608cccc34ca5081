//! [`dft_core::cluster::checkpoint`] at its `dft-parallel` path.

pub use dft_core::cluster::checkpoint::*;

#[cfg(test)]
mod tests {
    use super::*;
    use dft_linalg::matrix::Matrix;
    use dft_linalg::scalar::C64;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dft-ckpt-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_state(iteration: usize, nnodes: usize) -> ReplicatedScfState {
        ReplicatedScfState {
            iteration,
            rho_in: (0..nnodes).map(|i| (i as f64 * 0.31).sin().abs()).collect(),
            mu: -0.123456789,
            mixer_history: vec![
                (vec![0.5; nnodes], vec![0.01; nnodes]),
                (
                    (0..nnodes).map(|i| i as f64 * 1e-3).collect(),
                    (0..nnodes).map(|i| (i as f64).cos() * 1e-4).collect(),
                ),
            ],
            filter_windows: vec![Some((-1.5, 0.25)), None],
            residual_history: vec![1e-2, 3e-3, 8e-4],
        }
    }

    /// Two ranks write shards; loading reassembles the exact full block and
    /// the exact replicated state, bit for bit.
    #[test]
    fn round_trip_reassembles_bits_exactly() {
        let root = tmp_root("roundtrip");
        let (ndofs, n_states, nnodes) = (10usize, 3usize, 7usize);
        let full: Vec<Matrix<f64>> = (0..2)
            .map(|k| {
                Matrix::from_fn(ndofs, n_states, |i, j| {
                    ((i * 7 + j * 3 + k * 11) as f64 * 0.17).sin()
                })
            })
            .collect();
        let owned0: Vec<u32> = (0..6).collect();
        let owned1: Vec<u32> = (6..10).collect();
        let state = demo_state(4, nnodes);
        for (rank, owned) in [(0usize, &owned0), (1, &owned1)] {
            let local: Vec<Matrix<f64>> = full
                .iter()
                .map(|m| Matrix::from_fn(owned.len(), n_states, |l, j| m.col(j)[owned[l] as usize]))
                .collect();
            write_rank(&root, rank, 2, ndofs, &state, owned, &local).unwrap();
        }
        finalize(&root, 4, 2).unwrap();
        assert_eq!(latest_complete(&root), Some(4));

        let loaded = load::<f64>(&root, 4).unwrap();
        assert_eq!(loaded.nranks_at_write, 2);
        assert_eq!(loaded.state, state);
        for (a, b) in loaded.psi_full.iter().zip(full.iter()) {
            for j in 0..n_states {
                for (x, y) in a.col(j).iter().zip(b.col(j)) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// Complex shards round-trip through the interleaved re/im encoding.
    #[test]
    fn complex_round_trip() {
        let root = tmp_root("complex");
        let (ndofs, n_states) = (5usize, 2usize);
        let full = Matrix::<C64>::from_fn(ndofs, n_states, |i, j| {
            C64::new((i as f64 + 0.5) * 0.3, (j as f64 - 0.5) * 0.7)
        });
        let owned: Vec<u32> = (0..5).collect();
        let mut state = demo_state(1, 3);
        state.filter_windows = vec![None];
        write_rank(
            &root,
            0,
            1,
            ndofs,
            &state,
            &owned,
            std::slice::from_ref(&full),
        )
        .unwrap();
        finalize(&root, 1, 2).unwrap();
        let loaded = load::<C64>(&root, 1).unwrap();
        for j in 0..n_states {
            assert_eq!(loaded.psi_full[0].col(j), full.col(j));
        }
        // loading with the wrong scalar kind is rejected
        assert!(load::<f64>(&root, 1).is_err());
    }

    /// A flipped byte fails the checksum; an absent COMPLETE marker makes
    /// the snapshot invisible to latest_complete.
    #[test]
    fn corruption_and_incomplete_snapshots_are_rejected() {
        let root = tmp_root("corrupt");
        let owned: Vec<u32> = (0..4).collect();
        let psi = Matrix::<f64>::from_fn(4, 2, |i, j| (i + 10 * j) as f64);
        let state = demo_state(2, 3);
        write_rank(&root, 0, 1, 4, &state, &owned, &[psi]).unwrap();
        // incomplete: not yet finalized
        assert_eq!(latest_complete(&root), None);
        finalize(&root, 2, 2).unwrap();
        assert_eq!(latest_complete(&root), Some(2));
        // corrupt one byte in the middle of the rank file
        let path = iter_dir(&root, 2).join("rank-0.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = load::<f64>(&root, 2).err().expect("corrupt load must fail");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// finalize prunes older snapshots down to `keep_last` complete ones.
    #[test]
    fn finalize_prunes_old_snapshots() {
        let root = tmp_root("prune");
        let owned: Vec<u32> = (0..2).collect();
        let psi = Matrix::<f64>::from_fn(2, 1, |i, _| i as f64);
        for it in [1usize, 3, 5, 7] {
            let state = demo_state(it, 2);
            write_rank(&root, 0, 1, 2, &state, &owned, std::slice::from_ref(&psi)).unwrap();
            finalize(&root, it, 2).unwrap();
        }
        assert_eq!(latest_complete(&root), Some(7));
        // the two newest survive, the older two are gone
        assert!(iter_dir(&root, 7).exists());
        assert!(iter_dir(&root, 5).exists());
        assert!(!iter_dir(&root, 3).exists());
        assert!(!iter_dir(&root, 1).exists());
        // both survivors still load
        assert!(load::<f64>(&root, 5).is_ok());
        assert!(load::<f64>(&root, 7).is_ok());
    }

    /// Two jobs snapshotting under one shared root via [`job_dir`] never
    /// prune each other: job A's `finalize` walks only A's own `iter-*`
    /// entries, so B's COMPLETE snapshots survive A's keep-last-2 pruning
    /// (and vice versa). Without the per-job namespace both jobs would write
    /// into the same directory and each `finalize` would delete the other's
    /// older snapshots.
    #[test]
    fn jobs_under_shared_root_do_not_prune_each_other() {
        let root = tmp_root("jobdir");
        let dir_a = job_dir(&root, 1);
        let dir_b = job_dir(&root, 2);
        assert_ne!(dir_a, dir_b);
        let owned: Vec<u32> = (0..2).collect();
        let psi = Matrix::<f64>::from_fn(2, 1, |i, _| i as f64);

        // job A writes many snapshots, pruning down to its last two
        for it in [1usize, 2, 3, 4] {
            let state = demo_state(it, 2);
            write_rank(&dir_a, 0, 1, 2, &state, &owned, std::slice::from_ref(&psi)).unwrap();
            finalize(&dir_a, it, 2).unwrap();
        }
        // job B, interleaved in time, has exactly one precious snapshot
        let state_b = demo_state(9, 2);
        write_rank(
            &dir_b,
            0,
            1,
            2,
            &state_b,
            &owned,
            std::slice::from_ref(&psi),
        )
        .unwrap();
        finalize(&dir_b, 9, 2).unwrap();
        // ... and A keeps churning afterwards
        for it in [5usize, 6] {
            let state = demo_state(it, 2);
            write_rank(&dir_a, 0, 1, 2, &state, &owned, std::slice::from_ref(&psi)).unwrap();
            finalize(&dir_a, it, 2).unwrap();
        }

        // A pruned its own history as usual ...
        assert_eq!(latest_complete(&dir_a), Some(6));
        assert!(!iter_dir(&dir_a, 4).exists());
        // ... but B's snapshot is untouched and still loads bit-exactly
        assert_eq!(latest_complete(&dir_b), Some(9));
        let loaded = load::<f64>(&dir_b, 9).unwrap();
        assert_eq!(loaded.state, state_b);
    }
}

//! Cross-rank subspace reductions and communication-volume reporting.
//!
//! [`GridReducer`] plugs the threaded communicator into
//! [`dft_core::chfes_reduced`]'s [`SubspaceReducer`] hooks on the process
//! grid (Sec. 5.4.2): each rank computes only its band window's columns of
//! every `N x N` overlap / projected-Hamiltonian matrix from its owned
//! wavefunction rows, the block is summed along the *grid row* (domain
//! sub-group) and the full matrix reassembled by an allgather along the
//! *grid column* (band sub-group). Both collectives gather in member order
//! and hand every member identical bytes, so every rank factorizes and
//! diagonalizes the *same* matrix, bit for bit. On the `n x 1 x 1` slab the
//! band window is the whole matrix, the grid row is every rank and the grid
//! column is the rank itself: one all-rank FP64 sum and nothing else.
//!
//! The grid-row leg is one FP64 message per hop. Under `mixed_precision`
//! (the one precision switch, Sec. 5.4.2) `chfes_reduced` asks for FP32
//! on the first CholGS pass and on RR-P: the off-band-diagonal rows then
//! travel in FP32 as a second message, while the band-diagonal square every
//! Cholesky pivot lives in stays FP64, and the FP64 CholGS cleanup pass
//! that follows reduces exactly. On a slab every row is band-diagonal, so
//! nothing travels in FP32 there. That FP64 square is a property of the
//! *wire* and of the grid (one square per band slot). Which entries the
//! *compute* side forms in FP64 is decided in `dft-core` and does not
//! depend on the grid: the global `B_f x B_f` diagonal blocks, clipped to
//! the window.

use super::grid::ProcessGrid;
use super::operator::{SharedComm, WireScalar};
use crate::chebyshev::SubspaceReducer;
use dft_hpc::comm::{CommError, WirePrecision};
use dft_linalg::matrix::Matrix;

/// The cluster's [`SubspaceReducer`]: band-window compute,
/// grid-row (domain) reduction, grid-column (band) reassembly. K-groups
/// never meet here — each group reduces its own k-points' subspace
/// matrices over its own plane.
pub struct GridReducer<'a, 'c> {
    comm: &'a SharedComm<'c>,
    grid: &'a ProcessGrid,
}

impl<'a, 'c> GridReducer<'a, 'c> {
    /// Wrap a shared communicator and this rank's grid view.
    pub fn new(comm: &'a SharedComm<'c>, grid: &'a ProcessGrid) -> Self {
        Self { comm, grid }
    }

    /// On a comm failure (already recorded in the poisoned communicator)
    /// substitute the identity so the caller's Cholesky/eigensolve stays
    /// finite until the SCF loop observes the failure.
    fn identity_substitute<T: WireScalar>(m: &mut Matrix<T>) {
        for j in 0..m.ncols() {
            for (i, v) in m.col_mut(j).iter_mut().enumerate() {
                *v = if i == j { T::ONE } else { T::ZERO };
            }
        }
    }

    /// This rank's `[j0, j1)` column block of `m`, column-major on the wire.
    fn pack_band_block<T: WireScalar>(m: &Matrix<T>, (j0, j1): (usize, usize)) -> Vec<f64> {
        let mut mine = Vec::with_capacity((j1 - j0) * m.nrows() * T::COMPONENTS);
        for j in j0..j1 {
            for &v in m.col(j) {
                T::pack_into(v, &mut mine);
            }
        }
        mine
    }

    /// Allgather the band blocks along the grid column and write every
    /// slot's block into its columns of `m`: the bytes of slot `b`'s block
    /// are identical on all its grid rows, so the assembled matrix is
    /// bit-identical across the whole plane.
    fn gather_band_blocks<T: WireScalar>(
        &self,
        mine: &[f64],
        m: &mut Matrix<T>,
    ) -> Result<(), CommError> {
        let (nr, n) = m.shape();
        let blocks = self
            .comm
            .with(|c| c.group_allgather_f64(&self.grid.band_group, mine, WirePrecision::Fp64))?;
        for (b, block) in blocks.iter().enumerate() {
            let (g0, g1) = ProcessGrid::band_cols_of(n, self.grid.shape.n_band, b);
            assert_eq!(block.len(), (g1 - g0) * nr * T::COMPONENTS);
            for j in g0..g1 {
                for (i, v) in m.col_mut(j).iter_mut().enumerate() {
                    *v = T::unpack_at(block, (j - g0) * nr + i);
                }
            }
        }
        Ok(())
    }

    /// Sum this rank's `[j0, j1)` column block over the grid row and
    /// reassemble the full matrix along the grid column. The whole block
    /// sums in one FP64 leg, unless `fp32` and the window is narrower than
    /// the matrix: then it splits by row, the band-diagonal square
    /// `[j0, j1) x [j0, j1)` still travelling FP64 (Cholesky pivots live
    /// there) and the rest in FP32.
    fn reduce_blocked<T: WireScalar>(
        &self,
        m: &mut Matrix<T>,
        fp32: bool,
    ) -> Result<(), CommError> {
        let n = m.ncols();
        assert_eq!(m.nrows(), n, "subspace matrices are square");
        let (j0, j1) = self.grid.my_band_cols(n);
        let row = &self.grid.dom_group;
        let mut mine = Self::pack_band_block(m, (j0, j1));
        if fp32 && j1 - j0 < n {
            let on_diag = |k: usize| (j0..j1).contains(&(k / T::COMPONENTS % n));
            let (mut diag, mut off) = (Vec::new(), Vec::new());
            for (k, &v) in mine.iter().enumerate() {
                if on_diag(k) { &mut diag } else { &mut off }.push(v);
            }
            self.comm.with(|c| {
                c.group_allreduce_sum_f64(row, &mut diag, WirePrecision::Fp64)?;
                c.group_allreduce_sum_f64(row, &mut off, WirePrecision::Fp32)
            })?;
            let (mut di, mut oi) = (0, 0);
            for (k, v) in mine.iter_mut().enumerate() {
                let (leg, next) = if on_diag(k) {
                    (&diag, &mut di)
                } else {
                    (&off, &mut oi)
                };
                *v = leg[*next];
                *next += 1;
            }
        } else {
            self.comm
                .with(|c| c.group_allreduce_sum_f64(row, &mut mine, WirePrecision::Fp64))?;
        }
        self.gather_band_blocks(&mine, m)
    }
}

impl<'a, 'c, T: WireScalar> SubspaceReducer<T> for GridReducer<'a, 'c> {
    fn reduce_matrix(&self, m: &mut Matrix<T>, fp32: bool) {
        if self.reduce_blocked(m, fp32).is_err() {
            Self::identity_substitute(m);
        }
    }

    fn reduce_f64(&self, v: &mut [f64]) {
        // wavefunction rows are sharded over the domain axis only (band and
        // k replicas hold the same rows), so scalar sums reduce over the
        // grid row alone — and in member order, so every band replica gets
        // the same bits
        if self
            .comm
            .with(|c| c.group_allreduce_sum_f64(&self.grid.dom_group, v, WirePrecision::Fp64))
            .is_err()
        {
            // safe substitute (norms of 1.0) on a poisoned communicator
            v.fill(1.0);
        }
    }

    fn band_cols(&self, n: usize) -> (usize, usize) {
        self.grid.my_band_cols(n)
    }

    fn assemble_cols(&self, m: &mut Matrix<T>) {
        if self.grid.shape.n_band == 1 {
            return;
        }
        let mine = Self::pack_band_block(m, self.grid.my_band_cols(m.ncols()));
        // poisoned communicator: the block stays as computed (the SCF loop
        // observes the failure right after the phase)
        let _ = self.gather_band_blocks(&mine, m);
    }
}

/// Communication volume from [`CommStats`](dft_hpc::CommStats) snapshots.
/// [`run_cluster`](dft_hpc::run_cluster) shares one counter set across all
/// ranks, so a snapshot reads *cluster-wide* totals; the difference of two
/// snapshots brackets a phase (up to traffic from ranks still in flight at
/// snapshot time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommVolume {
    /// Total wire bytes sent by this rank.
    pub bytes_total: u64,
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent at FP64 wire precision.
    pub bytes_fp64: u64,
    /// Bytes sent at FP32 wire precision.
    pub bytes_fp32: u64,
}

impl CommVolume {
    /// Snapshot a communicator's counters.
    pub fn snapshot(comm: &SharedComm<'_>) -> Self {
        comm.with(|c| {
            let (bytes_total, messages, bytes_fp64, bytes_fp32) = c.stats().snapshot();
            Self {
                bytes_total,
                messages,
                bytes_fp64,
                bytes_fp32,
            }
        })
    }

    /// Volume accrued between two snapshots (`later - self`).
    pub fn delta(&self, later: &CommVolume) -> CommVolume {
        CommVolume {
            bytes_total: later.bytes_total - self.bytes_total,
            messages: later.messages - self.messages,
            bytes_fp64: later.bytes_fp64 - self.bytes_fp64,
            bytes_fp32: later.bytes_fp32 - self.bytes_fp32,
        }
    }
}

//! Distributed stiffness / Hamiltonian application with overlapped ghost
//! exchange.
//!
//! One apply runs the paper's boundary/interior split (Sec. 5.4.1):
//!
//! 1. **post** — pack this rank's owned boundary rows and `send_f64` them
//!    to every ghosting peer (it never waits: the channel transport
//!    buffers);
//! 2. **interior** — sum-factorized cell kernels over cells whose DoFs are
//!    all owned, while the boundary messages are in flight;
//! 3. **harvest** — `try_recv`-poll the ghost payloads, fill the extended
//!    vector, and run the boundary cells;
//! 4. **fold back** — ghost rows of the result hold partial sums belonging
//!    to other ranks: `send_f64` them to their owners and accumulate the
//!    incoming partials into owned rows *in ascending peer order*, so the
//!    result is independent of message arrival order (deterministic runs).
//!
//! Wire precision is selectable per operator and applies to the Chebyshev
//! filter's recurrence steps only: a [`DistHamiltonian`] built with an FP32
//! wire exchanges the filter's boundary rows in FP32 and every plain apply
//! (Rayleigh-Ritz, the rank-deficiency rescue) in FP64 — the paper's "FP32
//! boundary communication, FP64 math" scheme (Sec. 5.4.2).

use super::decomp::Decomposition;
use super::grid::{GridShape, ProcessGrid};
use crate::hamiltonian::{dof_potential, ham_apply_flops, output_transform, HamOperator};
use dft_fem::space::{CellSweep, ColMajor, FeSpace, RowSlab};
use dft_hpc::comm::{wire_tag_band, CommError, ThreadComm, WirePrecision};
use dft_linalg::iterative::{LinearOperator, Recurrence};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Scalar, C64};
use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

/// The per-rank communicator behind a [`Mutex`], so operators that must be
/// [`Sync`] (the [`LinearOperator`] supertrait bound) can share it. One rank
/// is one thread, so the lock is never contended: it is taken once per
/// exchange leg (post, each harvest poll, fold-back) and never waits. The
/// apply's reused buffers sit behind the same kind of lock in the rank's
/// [`DistSpace`]: only the rank's own thread ever takes it — the intra-rank
/// cell-sweep workers borrow slices of the already-locked buffers and never
/// touch the `Mutex` — so it makes the operators `Sync` without ever
/// serializing anything.
pub struct SharedComm<'a>(pub Mutex<&'a mut ThreadComm>);

impl<'a> SharedComm<'a> {
    /// Wrap a rank's communicator for use by distributed operators.
    pub fn new(comm: &'a mut ThreadComm) -> Self {
        Self(Mutex::new(comm))
    }

    /// Run `f` with exclusive access to the communicator.
    pub fn with<R>(&self, f: impl FnOnce(&mut ThreadComm) -> R) -> R {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// The failure that poisoned the underlying communicator, if any.
    pub fn failure(&self) -> Option<CommError> {
        self.with(|c| c.failure())
    }
}

/// The wire-tag band of the ghost exchange (forward + reverse legs, both
/// precision framings) — for
/// [`FaultPlan`](dft_hpc::comm::FaultPlan) rules that kill a rank
/// mid-Hamiltonian-apply.
pub fn ghost_tag_band() -> (u64, u64) {
    (wire_tag_band(TAG_FWD).0, wire_tag_band(TAG_REV).1)
}

/// Scalars that can cross the wire as `f64` components: `f64` is itself,
/// [`C64`] interleaves `re, im`. (FP32 demotion happens a layer below, in
/// [`ThreadComm::send_f64`].)
pub trait WireScalar: Scalar {
    /// `f64` components per scalar.
    const COMPONENTS: usize;
    /// Append the components of `v` to `buf`.
    fn pack_into(v: Self, buf: &mut Vec<f64>);
    /// Read the scalar at component offset `i * COMPONENTS`.
    fn unpack_at(buf: &[f64], i: usize) -> Self;
}

impl WireScalar for f64 {
    const COMPONENTS: usize = 1;
    #[inline]
    fn pack_into(v: Self, buf: &mut Vec<f64>) {
        buf.push(v);
    }
    #[inline]
    fn unpack_at(buf: &[f64], i: usize) -> Self {
        buf[i]
    }
}

impl WireScalar for C64 {
    const COMPONENTS: usize = 2;
    #[inline]
    fn pack_into(v: Self, buf: &mut Vec<f64>) {
        buf.push(v.re);
        buf.push(v.im);
    }
    #[inline]
    fn unpack_at(buf: &[f64], i: usize) -> Self {
        C64::new(buf[2 * i], buf[2 * i + 1])
    }
}

/// Ghost-exchange message tags, in a band far from the collectives' tags.
const TAG_FWD: u64 = 1 << 55;
const TAG_REV: u64 = (1 << 55) + 1;

/// Poll `try_recv_f64` round-robin over `peers` until every payload has
/// arrived; payloads are returned in the *list* order (not arrival order),
/// which is what keeps downstream accumulation deterministic. The poll runs
/// against the communicator's receive deadline: a peer that never delivers
/// poisons the communicator with [`CommError::Timeout`] instead of spinning
/// forever.
fn harvest(
    comm: &SharedComm<'_>,
    peers: Vec<usize>,
    tag: u64,
    wire: WirePrecision,
) -> Result<Vec<Vec<f64>>, CommError> {
    let mut got: Vec<Option<Vec<f64>>> = vec![None; peers.len()];
    let mut remaining = peers.len();
    let t0 = Instant::now();
    let deadline = t0 + comm.with(|c| c.timeout());
    while remaining > 0 {
        comm.with(|c| -> Result<(), CommError> {
            for (slot, &p) in got.iter_mut().zip(peers.iter()) {
                if slot.is_none() {
                    if let Some(buf) = c.try_recv_f64(p, tag, wire)? {
                        *slot = Some(buf);
                        remaining -= 1;
                    }
                }
            }
            Ok(())
        })?;
        if remaining > 0 {
            if Instant::now() >= deadline {
                let missing = peers
                    .iter()
                    .zip(got.iter())
                    .find(|(_, s)| s.is_none())
                    .map_or(0, |(&p, _)| p);
                let band = wire_tag_band(tag).0 + u64::from(wire == WirePrecision::Fp32);
                let e = CommError::Timeout {
                    src: missing,
                    tag: band,
                };
                comm.with(|c| c.fail(e));
                return Err(e);
            }
            std::thread::yield_now();
        }
    }
    // attribute the whole poll to ghost wait: when the payloads were
    // already in (overlap succeeded) the first pass drains them and the
    // recorded wait is microseconds; exposed waits dominate otherwise
    comm.with(|c| {
        c.stats()
            .ghost_wait_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed)
    });
    // dftlint:allow(L001, reason="the wait loop above returns early unless every slot was filled")
    Ok(got.into_iter().map(|s| s.unwrap()).collect())
}

/// A partitioned FE space: one rank's slab plus its exchange machinery.
pub struct DistSpace<'a> {
    /// The (replicated) global FE space.
    pub space: &'a FeSpace,
    /// This rank's place on the process grid. The decomposition's peer
    /// indices are *domain* coordinates; `grid.dom_group` translates them
    /// to global ranks, so ghost exchange always stays inside this rank's
    /// grid row (same band column, same k-group).
    pub grid: ProcessGrid,
    /// This rank's decomposition (over the domain axis).
    pub dec: Decomposition,
    /// The rank's reused apply buffers: an [`ApplyWorkspace<T>`] of the
    /// scalar type last applied (a run applies one), type-erased because
    /// the slab view is not generic over the scalar. Shared by every
    /// operator on this slab, one apply at a time.
    ws: Mutex<Box<dyn Any + Send>>,
}

impl<'a> DistSpace<'a> {
    /// Rank `rank` of `nranks`'s view of `space` on the `n x 1 x 1` slab:
    /// every rank is its own domain slot.
    pub fn new(space: &'a FeSpace, rank: usize, nranks: usize) -> Self {
        Self::on_grid(space, None, rank, nranks)
    }

    /// Rank `rank` of `nranks`'s view of `space` on the process grid
    /// `shape` (which must tile `nranks`; `None` is the slab): the mesh is
    /// decomposed over the grid's domain axis only.
    pub fn on_grid(
        space: &'a FeSpace,
        shape: Option<GridShape>,
        rank: usize,
        nranks: usize,
    ) -> Self {
        let shape = shape.unwrap_or_else(|| GridShape::slab(nranks));
        let grid = ProcessGrid::new(shape, rank, nranks);
        Self {
            space,
            dec: Decomposition::new(space, grid.dom, shape.n_dom),
            grid,
            ws: Mutex::new(Box::new(())),
        }
    }

    /// Whether this rank speaks for FE node `node` in a sum over nodes (the
    /// Anderson inner products, the force quadrature): the (band 0,
    /// k-group 0) replica of the slab that owns it, so each node counts
    /// exactly once.
    pub fn owns_node(&self, node: usize) -> bool {
        self.dec.owned_node[node] && self.grid.owns_replicated_fields()
    }

    /// Run `f` on this rank's apply buffers. They are scratch, rewritten by
    /// every apply, so a lock poisoned by a panicking apply stays usable.
    fn with_workspace<T: WireScalar, R>(&self, f: impl FnOnce(&mut ApplyWorkspace<T>) -> R) -> R {
        let mut slot = self
            .ws
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match slot.downcast_mut::<ApplyWorkspace<T>>() {
            Some(ws) => f(ws),
            None => {
                let (x_ext, y_ext, pack) = (Vec::<T>::new(), Vec::<T>::new(), Vec::new());
                let mut ws = ApplyWorkspace { x_ext, y_ext, pack };
                let r = f(&mut ws);
                *slot = Box::new(ws);
                r
            }
        }
    }

    /// Pack rows `idxs` of every column of `src` (leading dimension `ld`)
    /// into `pack`, column-major, and `send_f64` it: the one wire layout of
    /// both exchange legs.
    #[allow(clippy::too_many_arguments)]
    fn send_rows<T: WireScalar>(
        &self,
        c: &mut ThreadComm,
        pack: &mut Vec<f64>,
        (peer, idxs): &(usize, Vec<u32>),
        src: &[T],
        ld: usize,
        tag: u64,
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        pack.clear();
        for col in src.chunks_exact(ld) {
            for &l in idxs {
                T::pack_into(col[l as usize], pack);
            }
        }
        c.send_f64(self.grid.dom_group[*peer], tag, pack, wire)
    }

    /// The four steps of one apply (module docs). The result is left in
    /// the owned rows of `ws.y_ext` ([`ApplyWorkspace::y_owned`]).
    /// `row_scale` is the optional fused per-row input scale, indexed by
    /// *extended-local* row like the cell tables.
    fn apply_cells<T: WireScalar>(
        &self,
        comm: &SharedComm<'_>,
        ws: &mut ApplyWorkspace<T>,
        x: &Matrix<T>,
        phases: [T; 3],
        row_scale: Option<&[f64]>,
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        let dec = &self.dec;
        let (n_owned, n_ext) = (dec.n_owned(), dec.n_ext());
        let nc = x.ncols();
        assert_eq!(x.nrows(), n_owned);
        let ApplyWorkspace { x_ext, y_ext, pack } = ws;
        let ranks_of = |list: &[(usize, Vec<u32>)]| -> Vec<usize> {
            list.iter().map(|(p, _)| self.grid.dom_group[*p]).collect()
        };

        // 1. post the owned boundary rows (raw, unscaled — the receiver
        //    owns the same global mass diagonal and scales locally)
        comm.with(|c| {
            (dec.send_to.iter()).try_for_each(|to| {
                self.send_rows(c, pack, to, x.as_slice(), n_owned, TAG_FWD, wire)
            })
        })?;

        // extended input: owned rows now, ghosts after harvest. Every ghost
        // row is refilled by its one owner before a boundary cell reads it,
        // and the interior pass overwrites the output, so both buffers are
        // reused without zeroing.
        x_ext.resize(n_ext * nc, T::ZERO);
        y_ext.resize(n_ext * nc, T::ZERO);
        for j in 0..nc {
            x_ext[j * n_ext..j * n_ext + n_owned].copy_from_slice(x.col(j));
        }

        // 2. interior cells while boundary payloads are in flight
        self.run_cells(&dec.interior_cells, true, x_ext, y_ext, phases, row_scale);

        // 3. harvest ghosts, then the boundary cells
        let bufs = harvest(comm, ranks_of(&dec.recv_from), TAG_FWD, wire)?;
        for ((_, idxs), buf) in dec.recv_from.iter().zip(bufs.iter()) {
            assert_eq!(buf.len(), idxs.len() * nc * T::COMPONENTS);
            for (j, col) in x_ext.chunks_exact_mut(n_ext).enumerate() {
                for (k, &l) in idxs.iter().enumerate() {
                    col[l as usize] = T::unpack_at(buf, j * idxs.len() + k);
                }
            }
        }
        self.run_cells(&dec.boundary_cells, false, x_ext, y_ext, phases, row_scale);

        // 4. fold ghost partial sums back to their owners; accumulate the
        //    incoming partials in ascending peer order (deterministic)
        comm.with(|c| {
            (dec.recv_from.iter())
                .try_for_each(|to| self.send_rows(c, pack, to, y_ext, n_ext, TAG_REV, wire))
        })?;
        let bufs = harvest(comm, ranks_of(&dec.send_to), TAG_REV, wire)?;
        for ((_, idxs), buf) in dec.send_to.iter().zip(bufs.iter()) {
            assert_eq!(buf.len(), idxs.len() * nc * T::COMPONENTS);
            for (j, col) in y_ext.chunks_exact_mut(n_ext).enumerate() {
                for (k, &l) in idxs.iter().enumerate() {
                    col[l as usize] += T::unpack_at(buf, j * idxs.len() + k);
                }
            }
        }
        Ok(())
    }

    /// The slab's instance of the one blocked cell sweep
    /// ([`FeSpace::sweep_cells`]): the given slab-local cells through the
    /// extended-local DoF table, overwriting or accumulating into `y_ext`.
    /// An arbitrary cell list is one row slab: the rank's threads share the
    /// column blocks only.
    fn run_cells<T: Scalar>(
        &self,
        cells: &[u32],
        overwrite: bool,
        x_ext: &[T],
        y_ext: &mut [T],
        phases: [T; 3],
        row_scale: Option<&[f64]>,
    ) {
        let sweep = CellSweep {
            cells,
            slabs: &[RowSlab::whole(self.dec.n_ext(), cells.len())],
            first_cell: self.dec.range.start,
            cell_dof: &self.dec.cell_dof_local,
            ld: self.dec.n_ext(),
            overwrite,
            touch: None,
        };
        self.space
            .sweep_cells(&sweep, ColMajor, x_ext, y_ext, phases, row_scale, None);
    }
}

/// Buffers one distributed apply reuses from call to call: the extended
/// (owned + ghost) input and output blocks and the wire pack buffer. Grown
/// on demand, never shrunk below the last block width.
struct ApplyWorkspace<T> {
    x_ext: Vec<T>,
    y_ext: Vec<T>,
    pack: Vec<f64>,
}

impl<T> ApplyWorkspace<T> {
    /// Owned rows of result column `j` of the last apply on `dec`.
    fn y_owned(&self, dec: &Decomposition, j: usize) -> &[T] {
        &self.y_ext[j * dec.n_ext()..j * dec.n_ext() + dec.n_owned()]
    }
}

/// The distributed Kohn-Sham Hamiltonian: the owner of this rank's owned
/// DoF rows of `Hhat = 1/2 M^{-1/2} K M^{-1/2} + diag(v_eff)`.
pub struct DistHamiltonian<'a, 'c, T: Scalar> {
    dist: &'a DistSpace<'a>,
    comm: &'a SharedComm<'c>,
    /// Effective potential at owned DoFs.
    v_eff_owned: Vec<f64>,
    /// Bloch phases per axis.
    pub phases: [T; 3],
    /// Wire of the filter's recurrence steps; plain applies exchange in FP64.
    wire: WirePrecision,
}

impl<'a, 'c, T: WireScalar> DistHamiltonian<'a, 'c, T> {
    /// Build from the replicated full nodal effective potential.
    pub fn new(
        dist: &'a DistSpace<'a>,
        comm: &'a SharedComm<'c>,
        v_eff_nodes: &[f64],
        phases: [T; 3],
        wire: WirePrecision,
    ) -> Self {
        let owned = dist.dec.owned.iter().map(|&d| d as usize);
        let v_eff_owned = dof_potential(dist.space, v_eff_nodes, owned);
        Self {
            dist,
            comm,
            v_eff_owned,
            phases,
            wire,
        }
    }

    /// `out = 1/2 M^{-1/2} K M^{-1/2} x + v_eff x` on owned rows (input
    /// scaling fused into the cell gather, as serial), then, given `k`,
    /// the recurrence update against `x` and the previous iterate: the
    /// serial operator's [`output_transform`], run as the one read-off pass
    /// from the extended result into `out`, which can only start once the
    /// boundary partial sums are in. A recurrence step exchanges at the
    /// operator's wire, a plain apply in FP64. The trait signatures are
    /// infallible: on a comm failure the error is already recorded in the
    /// (poisoned) communicator, so `out` is filled with zeros — never an
    /// update over a half-written workspace — and the SCF loop observes the
    /// failure after the phase.
    fn sweep(
        &self,
        x: &Matrix<T>,
        x_prev: Option<&Matrix<T>>,
        k: Option<Recurrence<T::Re>>,
        out: &mut Matrix<T>,
    ) {
        let dec = &self.dist.dec;
        let s = &dec.inv_sqrt_mass_ext;
        assert_eq!(out.shape(), x.shape());
        assert!(x_prev.is_none_or(|p| p.shape() == x.shape()));
        let wire = k.map_or(WirePrecision::Fp64, |_| self.wire);
        let swept = self.dist.with_workspace(|ws| -> Result<(), CommError> {
            let scale = Some(s.as_slice());
            self.dist
                .apply_cells(self.comm, ws, x, self.phases, scale, wire)?;
            // read off the extended result
            for j in 0..out.ncols() {
                let (ocol, kx) = (out.col_mut(j), Some(ws.y_owned(dec, j)));
                let prev = x_prev.map(|p| p.col(j));
                let sv = (s.as_slice(), self.v_eff_owned.as_slice(), 1);
                output_transform((ocol, kx), x.col(j), prev, sv, k);
            }
            Ok(())
        });
        if swept.is_err() {
            out.as_mut_slice().fill(T::ZERO);
        }
    }
}

impl<'a, 'c, T: WireScalar> LinearOperator<T> for DistHamiltonian<'a, 'c, T> {
    fn dim(&self) -> usize {
        self.dist.dec.n_owned()
    }

    fn apply(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        self.sweep(x, None, None, y);
    }

    fn recurrence_step(
        &self,
        y: &Matrix<T>,
        x_prev: Option<&Matrix<T>>,
        k: Recurrence<T::Re>,
        out: &mut Matrix<T>,
    ) {
        self.sweep(y, x_prev, Some(k), out);
    }
}

// No `panels`: the CF phase runs this operator's `B_f` blocks whole, one after
// another. Every recurrence step exchanges ghosts once per block, so a wider
// block amortises the exchange, and message and byte counts stay B_f's.
impl<'a, 'c, T: WireScalar> HamOperator<T> for DistHamiltonian<'a, 'c, T> {
    /// Rank-local analytic FLOPs: [`ham_apply_flops`] over the slab's
    /// cells and the owned rows.
    fn apply_flops(&self, ncols: usize) -> u64 {
        let dec = &self.dist.dec;
        ham_apply_flops::<T>(self.dist.space, (dec.range.len(), dec.n_owned()), ncols)
    }
}

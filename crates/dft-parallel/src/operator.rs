//! Distributed stiffness / Hamiltonian application with overlapped ghost
//! exchange.
//!
//! One apply runs the paper's boundary/interior split (Sec. 5.4.1):
//!
//! 1. **post** — pack this rank's owned boundary rows and `isend` them to
//!    every ghosting peer (nonblocking: the channel transport buffers);
//! 2. **interior** — sum-factorized cell kernels over cells whose DoFs are
//!    all owned, while the boundary messages are in flight;
//! 3. **harvest** — `try_recv`-poll the ghost payloads, fill the extended
//!    vector, and run the boundary cells;
//! 4. **fold back** — ghost rows of the result hold partial sums belonging
//!    to other ranks: `isend` them to their owners and accumulate the
//!    incoming partials into owned rows *in ascending peer order*, so the
//!    result is independent of message arrival order (deterministic runs).
//!
//! Wire precision is selectable per operator: the distributed SCF keeps an
//! FP64 Hamiltonian for Rayleigh-Ritz and an FP32-wire twin for the
//! Chebyshev filter, the paper's "FP32 boundary communication, FP64 math"
//! scheme (Sec. 5.4.2).

use crate::decomp::Decomposition;
use crate::grid::ProcessGrid;
use dft_core::chebyshev::{CfDriver, CfScratch};
use dft_core::hamiltonian::HamOperator;
use dft_fem::space::{CellSweep, FeSpace};
use dft_hpc::comm::{wire_tag_band, CommError, ThreadComm, WirePrecision};
use dft_linalg::iterative::LinearOperator;
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar, C64};
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
/// step parities, both precision framings) — for
/// [`FaultPlan`](dft_hpc::comm::FaultPlan) rules that kill a rank
/// mid-Hamiltonian-apply.
pub fn ghost_tag_band() -> (u64, u64) {
    (wire_tag_band(TAG_FWD).0, wire_tag_band(TAG_FWD2).1)
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
/// `TAG_FWD2` is the odd-step forward tag of the cross-iteration
/// double-buffered ghost region: the pipelined filter posts degree step
/// `k + 1`'s forward exchange while step `k`'s buffers may still be live,
/// so consecutive steps alternate between the two forward tags.
const TAG_FWD: u64 = 1 << 55;
const TAG_REV: u64 = (1 << 55) + 1;
const TAG_FWD2: u64 = (1 << 55) + 2;

/// The forward ghost tag of Chebyshev degree-step parity `p`.
#[inline]
const fn fwd_tag(p: usize) -> u64 {
    if p.is_multiple_of(2) {
        TAG_FWD
    } else {
        TAG_FWD2
    }
}

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
    /// This rank's decomposition (over the domain axis).
    pub dec: Decomposition,
    /// Global rank of each domain slot of this rank's grid row — the
    /// decomposition's peer indices are *domain* coordinates, which only
    /// equal global ranks on the 1D slab layout. Ghost exchange always
    /// stays inside this list (same band column, same k-group).
    pub rank_of_dom: Vec<usize>,
    /// The rank's reused apply buffers: an [`ApplyWorkspace<T>`] of the
    /// scalar type last applied (a run applies one), type-erased because
    /// the slab view is not generic over the scalar. Shared by every
    /// operator on this slab — the FP64 Hamiltonian and its FP32-wire
    /// filter twin never apply at the same time.
    ws: Mutex<Box<dyn Any + Send>>,
}

impl<'a> DistSpace<'a> {
    /// Build rank `rank` of `nranks`'s view of `space` (1D slab layout:
    /// every rank is its own domain slot).
    pub fn new(space: &'a FeSpace, rank: usize, nranks: usize) -> Self {
        Self {
            space,
            dec: Decomposition::new(space, rank, nranks),
            rank_of_dom: (0..nranks).collect(),
            ws: Mutex::new(Box::new(())),
        }
    }

    /// Build this rank's slab view under a process grid: the mesh is
    /// decomposed over the grid's domain axis only, and ghost-exchange
    /// peers are the other domain slots of this rank's grid row.
    pub fn new_grid(space: &'a FeSpace, grid: &ProcessGrid) -> Self {
        Self {
            space,
            dec: Decomposition::new(space, grid.dom, grid.shape.n_dom),
            rank_of_dom: grid.dom_group.clone(),
            ws: Mutex::new(Box::new(())),
        }
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

    /// Distributed `Y = K X` on owned DoF rows (the distributed
    /// counterpart of [`FeSpace::apply_stiffness`]): `x` and `y` are
    /// `n_owned x ncols`. Fails (and poisons the communicator) if a ghost
    /// exchange times out or a peer is lost.
    pub fn apply_stiffness<T: WireScalar>(
        &self,
        comm: &SharedComm<'_>,
        x: &Matrix<T>,
        y: &mut Matrix<T>,
        phases: [T; 3],
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        assert_eq!(y.shape(), x.shape());
        self.with_workspace(|ws| {
            self.post_ghost_sends(comm, &mut ws.pack, x, TAG_FWD, wire)?;
            self.apply_cells_posted(comm, ws, x, phases, None, wire, TAG_FWD)?;
            for j in 0..y.ncols() {
                y.col_mut(j).copy_from_slice(ws.y_owned(&self.dec, j));
            }
            Ok(())
        })
    }

    /// Pack rows `idxs` of every column of `src` (leading dimension `ld`)
    /// into `pack`, column-major, and `isend` it: the one wire layout of
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
        c.isend_f64(self.rank_of_dom[*peer], tag, pack, wire)
    }

    /// Step 1 of the apply, callable on its own: pack the owned boundary
    /// rows of `x` and `isend` them (raw, unscaled — the receiver owns the
    /// same global mass diagonal and scales locally) to every ghosting
    /// peer under `tag`. The pipelined Chebyshev driver posts the *next*
    /// degree step's exchange this way while the current step's interior
    /// update is still running.
    fn post_ghost_sends<T: WireScalar>(
        &self,
        comm: &SharedComm<'_>,
        pack: &mut Vec<f64>,
        x: &Matrix<T>,
        tag: u64,
        wire: WirePrecision,
    ) -> Result<(), CommError> {
        comm.with(|c| {
            (self.dec.send_to.iter())
                .try_for_each(|to| self.send_rows(c, pack, to, x.as_slice(), x.nrows(), tag, wire))
        })
    }

    /// Steps 2-4 of the apply: the forward exchange of `x` must already be
    /// in flight under `fwd` ([`Self::post_ghost_sends`]). The result is
    /// left in the owned rows of `ws.y_ext` ([`ApplyWorkspace::y_owned`]).
    /// `row_scale` is the optional fused per-row input scale, indexed by
    /// *extended-local* row like the cell tables.
    #[allow(clippy::too_many_arguments)]
    fn apply_cells_posted<T: WireScalar>(
        &self,
        comm: &SharedComm<'_>,
        ws: &mut ApplyWorkspace<T>,
        x: &Matrix<T>,
        phases: [T; 3],
        row_scale: Option<&[f64]>,
        wire: WirePrecision,
        fwd: u64,
    ) -> Result<(), CommError> {
        let dec = &self.dec;
        let (n_owned, n_ext) = (dec.n_owned(), dec.n_ext());
        let nc = x.ncols();
        assert_eq!(x.nrows(), n_owned);
        let ApplyWorkspace { x_ext, y_ext, pack } = ws;
        let ranks_of = |list: &[(usize, Vec<u32>)]| -> Vec<usize> {
            list.iter().map(|(p, _)| self.rank_of_dom[*p]).collect()
        };

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
        let bufs = harvest(comm, ranks_of(&dec.recv_from), fwd, wire)?;
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
            first_cell: self.dec.range.start,
            cell_dof: &self.dec.cell_dof_local,
            ld: self.dec.n_ext(),
            overwrite,
        };
        self.space
            .sweep_cells(&sweep, x_ext, y_ext, phases, row_scale);
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
        assert_eq!(v_eff_nodes.len(), dist.space.nnodes());
        let v_eff_owned = dist
            .dec
            .owned
            .iter()
            .map(|&d| v_eff_nodes[dist.space.node_of_dof(d as usize)])
            .collect();
        Self {
            dist,
            comm,
            v_eff_owned,
            phases,
            wire,
        }
    }

    /// Post the forward ghost exchange of `x` under `tag` without running
    /// any compute — the pipelined filter's look-ahead leg.
    fn post_sends(&self, x: &Matrix<T>, tag: u64) -> Result<(), CommError> {
        self.dist.with_workspace(|ws: &mut ApplyWorkspace<T>| {
            self.dist
                .post_ghost_sends(self.comm, &mut ws.pack, x, tag, self.wire)
        })
    }

    /// One Hamiltonian apply whose forward exchange is already in flight
    /// under `fwd`: cell kernels plus the `1/2 M^{-1/2} · + v_eff` output
    /// transform of [`LinearOperator::apply`].
    fn apply_posted(&self, x: &Matrix<T>, y: &mut Matrix<T>, fwd: u64) -> Result<(), CommError> {
        let dec = &self.dist.dec;
        let s = &dec.inv_sqrt_mass_ext;
        assert_eq!(y.shape(), x.shape());
        self.dist.with_workspace(|ws| {
            let scale = Some(s.as_slice());
            self.dist
                .apply_cells_posted(self.comm, ws, x, self.phases, scale, self.wire, fwd)?;
            // y = 1/2 M^{-1/2} (K M^{-1/2} x) + v x, read off the extended result
            for j in 0..y.ncols() {
                let rows = y.col_mut(j).iter_mut().zip(ws.y_owned(dec, j));
                for (l, ((yv, &kv), &xv)) in rows.zip(x.col(j)).enumerate() {
                    *yv = kv.scale(T::Re::from_f64(0.5 * s[l]))
                        + xv.scale(T::Re::from_f64(self.v_eff_owned[l]));
                }
            }
            Ok(())
        })
    }
}

impl<'a, 'c, T: WireScalar> LinearOperator<T> for DistHamiltonian<'a, 'c, T> {
    fn dim(&self) -> usize {
        self.dist.dec.n_owned()
    }

    fn apply(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        // y = K M^{-1/2} x on owned rows (input scaling fused, as serial).
        // The trait signature is infallible: on a comm failure the error is
        // already recorded in the (poisoned) communicator, so fill the
        // output with zeros and let the SCF loop observe the failure after
        // the phase.
        if self
            .post_sends(x, TAG_FWD)
            .and_then(|()| self.apply_posted(x, y, TAG_FWD))
            .is_err()
        {
            y.as_mut_slice().fill(T::ZERO);
        }
    }
}

impl<'a, 'c, T: WireScalar> HamOperator<T> for DistHamiltonian<'a, 'c, T> {
    /// Rank-local analytic FLOPs: the slab's share of the sum-factorized
    /// cell work plus the owned rows' scaling/potential arithmetic.
    fn apply_flops(&self, ncols: usize) -> u64 {
        let space = self.dist.space;
        let dec = &self.dist.dec;
        let per_cell_cols = space.stiffness_apply_flops::<T>(ncols) / space.cells().len() as u64;
        per_cell_cols * dec.range.len() as u64
            + (dec.n_owned() * ncols) as u64 * (3 * T::MUL_FLOPS + T::ADD_FLOPS)
    }
}

/// One Chebyshev three-term elementwise update restricted to a row subset:
/// step 1 is `y <- (y - c x) σ1/e`, later steps are
/// `hy <- (hy - c y) 2σ2/e - (σ σ2) x` (pass `x2 = Some(x)`). Per-row
/// arithmetic is independent, so splitting rows into boundary/interior
/// sweeps cannot change a single bit of the result.
fn cheb_update_rows<T: Scalar>(
    out: &mut Matrix<T>,
    prev: &Matrix<T>,
    x2: Option<&Matrix<T>>,
    rows: &[u32],
    ce: T::Re,
    se: T::Re,
    ss2: T::Re,
) {
    for j in 0..out.ncols() {
        let pcol = prev.col(j);
        let xcol = x2.map(|x| x.col(j));
        let ocol = out.col_mut(j);
        for &l in rows {
            let l = l as usize;
            let mut v = (ocol[l] - pcol[l].scale(ce)).scale(se);
            if let Some(xc) = xcol {
                v -= xc[l].scale(ss2);
            }
            ocol[l] = v;
        }
    }
}

/// The cross-iteration-overlapped distributed Chebyshev filter (the
/// paper's dual-stream scheme, Sec. 5.4.1): as soon as degree step `k` has
/// updated the *boundary* rows of the next iterate, step `k + 1`'s forward
/// ghost exchange is posted — so the wire carries it while step `k` is
/// still updating interior rows and step `k + 1` is running its interior
/// cell kernels. Consecutive steps alternate between two forward tag
/// lanes ([`TAG_FWD`] / [`TAG_FWD2`], a double-buffered ghost region), and
/// a step's look-ahead posts only after the previous step's reverse
/// harvest completed, so every peer has already drained the older lane.
///
/// The recurrence arithmetic is element-for-element that of
/// [`chebyshev_filter_scratch`] on [`DistHamiltonian`] — results are
/// bit-identical with overlap on or off; only the wait time moves.
pub struct PipelinedFilter<'h, 'a, 'c, T: Scalar> {
    h: &'h DistHamiltonian<'a, 'c, T>,
    /// Owned rows some peer ghosts (the forward-send payload), sorted.
    boundary_rows: Vec<u32>,
    /// The remaining owned rows, sorted.
    interior_rows: Vec<u32>,
}

impl<'h, 'a, 'c, T: WireScalar> PipelinedFilter<'h, 'a, 'c, T> {
    /// Wrap a distributed Hamiltonian for pipelined filtering.
    pub fn new(h: &'h DistHamiltonian<'a, 'c, T>) -> Self {
        let dec = &h.dist.dec;
        let n_owned = dec.n_owned();
        let mut is_boundary = vec![false; n_owned];
        for (_, idxs) in &dec.send_to {
            for &l in idxs {
                is_boundary[l as usize] = true;
            }
        }
        let (mut boundary_rows, mut interior_rows) = (Vec::new(), Vec::new());
        for (l, &b) in is_boundary.iter().enumerate() {
            if b {
                boundary_rows.push(l as u32);
            } else {
                interior_rows.push(l as u32);
            }
        }
        Self {
            h,
            boundary_rows,
            interior_rows,
        }
    }
}

impl<T: WireScalar> CfDriver<T> for PipelinedFilter<'_, '_, '_, T> {
    fn filter_block(
        &self,
        x: &mut Matrix<T>,
        m: usize,
        a: f64,
        b: f64,
        a0: f64,
        scratch: &mut CfScratch<T>,
    ) {
        assert!(m >= 1 && b > a && a > a0);
        let (n, nc) = x.shape();
        let e = (b - a) / 2.0;
        let c = (b + a) / 2.0;
        let mut sigma = e / (a0 - c);
        let sigma1 = sigma;
        let gamma = 2.0 / sigma1;
        let (y, hy) = scratch.buffers(n, nc);
        let ce = T::Re::from_f64(c);

        // On a comm failure the communicator is poisoned; zero the block
        // (the infallible-apply convention) and let the SCF observe it.
        macro_rules! or_bail {
            ($r:expr) => {
                if $r.is_err() {
                    x.as_mut_slice().fill(T::ZERO);
                    return;
                }
            };
        }

        // Step 1: Y = (H X - c X) σ1/e. Nothing is in flight yet, so post
        // X's exchange here; every later exchange is posted mid-step below.
        or_bail!(self.h.post_sends(x, fwd_tag(0)));
        or_bail!(self.h.apply_posted(x, y, fwd_tag(0)));
        let s1e = T::Re::from_f64(sigma1 / e);
        let zero = T::Re::from_f64(0.0);
        cheb_update_rows(y, x, None, &self.boundary_rows, ce, s1e, zero);
        if m >= 2 {
            // step 2's input is Y: its boundary rows are final, ship them
            or_bail!(self.h.post_sends(y, fwd_tag(1)));
        }
        cheb_update_rows(y, x, None, &self.interior_rows, ce, s1e, zero);

        for k in 2..=m {
            let sigma2 = 1.0 / (gamma - sigma);
            or_bail!(self.h.apply_posted(y, hy, fwd_tag(k - 1)));
            let s2e = T::Re::from_f64(2.0 * sigma2 / e);
            let ss2 = T::Re::from_f64(sigma * sigma2);
            cheb_update_rows(hy, y, Some(x), &self.boundary_rows, ce, s2e, ss2);
            if k < m {
                // after the rotation below, HY is step k+1's input
                or_bail!(self.h.post_sends(hy, fwd_tag(k)));
            }
            cheb_update_rows(hy, y, Some(x), &self.interior_rows, ce, s2e, ss2);
            std::mem::swap(x, y);
            std::mem::swap(y, hy);
            sigma = sigma2;
        }
        std::mem::swap(x, y);
    }
}

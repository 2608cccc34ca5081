//! The global FE space: DoF numbering, diagonal GLL mass (Löwdin
//! orthonormalization), and the cell-level operator kernels.
//!
//! The Laplacian is applied by tensor **sum-factorization**
//! ([`FeSpace::apply_stiffness`]: memory-free, one blocked cell sweep for
//! the Poisson solves, the Hamiltonian and every distributed rank, whose
//! parallel items are column blocks × [`RowSlab`]s). The
//! dense per-cell matrices of the paper's `xGEMMStridedBatched` path
//! (Sec. 5.4.1, `9^3 x 9^3` at p = 8) are available from
//! [`FeSpace::dense_cell_stiffness`] as the sweep's oracle; no solve
//! multiplies by them, and the dense-cell operator built on them (one GEMM
//! per cell) lives only in the kernel benchmark that compares the two.
//!
//! Bloch phases: the periodic gather multiplies wrapped values by a per-axis
//! phase, and the scatter by its conjugate — this implements the k-point
//! Hamiltonian `H(k)` on complex scalars with zero extra machinery.

use crate::basis::Lagrange1d;
use crate::mesh::{BoundaryCondition, Mesh3d};
use crate::poisson::FdmPrec;
use dft_linalg::chol::LinalgError;
use dft_linalg::iterative::LinearOperator;
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// A cell of the tensor mesh: integer coordinates and box dimensions.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Cell indices along x, y, z.
    pub c: [usize; 3],
    /// Box edge lengths.
    pub h: [f64; 3],
    /// Coordinates of the low corner.
    pub origin: [f64; 3],
}

/// Global continuous spectral FE space on a [`Mesh3d`].
pub struct FeSpace {
    /// The underlying mesh.
    pub mesh: Mesh3d,
    /// Shared 1D basis (nodes, weights, differentiation, stiffness).
    pub basis: Lagrange1d,
    axis_nodes: [Vec<f64>; 3],
    n_axis: [usize; 3],
    periodic: [bool; 3],
    nnodes: usize,
    ndofs: usize,
    dof_of_node: Vec<i64>,
    node_of_dof: Vec<u32>,
    mass_diag: Vec<f64>,
    inv_sqrt_mass_dof: Vec<f64>,
    cells: Vec<Cell>,
    /// Local nodes per cell, `(p+1)^3`.
    nloc: usize,
    /// Precomputed per-cell, per-local-node global node index
    /// (`cells.len() * nloc`, local layout `a + n1*(b + n1*c)`).
    cell_node: Vec<u32>,
    /// Precomputed per-cell, per-local-node DoF index, `-1` on eliminated
    /// Dirichlet boundary nodes.
    cell_dof: Vec<i32>,
    /// Precomputed per-cell, per-local-node periodic-wrap bitmask
    /// (bit 0 = x wrap, bit 1 = y, bit 2 = z) selecting the Bloch phase
    /// product to apply on gather/scatter.
    cell_wrap: Vec<u8>,
    /// `slab_sets[s - 1]`: the all-cells sweep cut into `s` row slabs along
    /// z, for every `s` a sweep may pick (`1..=max(1, z cell layers / 2)`).
    slab_sets: Vec<SlabSet>,
    /// Tensor-product inverse of the assembled stiffness, factored by the
    /// first Poisson solve on this space.
    stiffness_inverse: OnceLock<Result<FdmPrec, LinalgError>>,
}

/// Lanes of the blocked stiffness kernel: 8 f64 lanes is one AVX-512
/// register per accumulator. A lane holds one (column, cell) pair: a column
/// block is at most this wide, and a narrower one fills the lanes with the
/// next cells of its sweep (see [`FeSpace::sweep_cells`]).
pub const COL_BLOCK: usize = 8;

/// The rows of every swept column that one item of
/// [`FeSpace::sweep_cells`] owns, and the cells that reach them. An item
/// writes no other rows, so the items of a column block need no
/// synchronization; a cell that straddles two slabs is swept by both.
#[derive(Clone, Debug)]
pub struct RowSlab {
    /// First owned row.
    pub first_row: usize,
    /// Owned rows.
    pub rows: usize,
    /// The slab's cells as a range of [`CellSweep::cells`]: every cell of
    /// the sweep with a node on an owned row, in the sweep's order.
    pub cells: Range<usize>,
}

impl RowSlab {
    /// The one slab of an unsplit sweep: all `ld` rows, all `ncells` cells.
    pub fn whole(ld: usize, ncells: usize) -> Self {
        Self {
            first_row: 0,
            rows: ld,
            cells: 0..ncells,
        }
    }
}

/// One way of cutting the all-cells sweep into row slabs: the slabs' cell
/// lists back to back, the slabs indexing into them, and how each slab's
/// rows start and finish.
struct SlabSet {
    cells: Vec<u32>,
    slabs: Vec<RowSlab>,
    touch: TouchTable,
}

/// [`TouchTable`] flag: the first of its slab's (cell, local node) pairs,
/// in sweep order, that reaches the node's row.
const FIRST_TOUCH: u8 = 1;
/// [`TouchTable`] flag: the last pair that reaches the row.
const LAST_TOUCH: u8 = 2;

/// How the rows of a row-slab sweep start and finish, for a [`Lanes`]
/// sweep, which stores where a row is first reached and finishes a row
/// once it is reached no more. Built once per slab set by
/// [`FeSpace::new`].
pub struct TouchTable {
    /// Per listed cell and local node, `[i * nloc + l]` for entry `i` of the
    /// sweep's cells: [`FIRST_TOUCH`] and/or [`LAST_TOUCH`], one byte.
    flags: Vec<u8>,
    /// Entry `i` of the sweep's cells finishes, once scattered, the row
    /// runs `finish[finish_at[i]..finish_at[i + 1]]`.
    finish_at: Vec<u32>,
    /// `(first row, rows)`: runs of consecutive rows whose last touch is
    /// behind them. A row is finished at the end of the row of cells (the
    /// cells of one y and z index) that touches it last: a few lines of
    /// nodes at a time, still in cache, and long enough to vectorize.
    finish: Vec<(u32, u32)>,
}

/// Which cells one [`FeSpace::sweep_cells`] call visits and how their local
/// nodes map to rows of the caller's vectors. The serial apply walks every
/// cell through the space's own DoF table; a distributed rank walks its
/// interior or boundary cells through a table localized to its
/// owned-plus-ghost row numbering.
#[derive(Clone, Copy)]
pub struct CellSweep<'a> {
    /// Rows of `cell_dof` to visit, slab after slab.
    pub cells: &'a [u32],
    /// The row slabs, tiling `0..ld` in order; each is one item per column
    /// block. A sweep over an arbitrary cell list is [`RowSlab::whole`].
    pub slabs: &'a [RowSlab],
    /// Global index (into [`FeSpace::cells`]) of the cell that row 0 of
    /// `cell_dof` describes.
    pub first_cell: usize,
    /// Per table row and local node, the vector row it reads and writes
    /// (`-1` on eliminated Dirichlet nodes), layout `[row * nloc + l]`.
    pub cell_dof: &'a [i32],
    /// Leading dimension (rows per column) of the swept vectors.
    pub ld: usize,
    /// `Y = ...` instead of `Y += ...`: every column block of `y` is zeroed
    /// right before its first cell lands in it (while it is about to be
    /// cache-resident anyway), so the caller need not clear `y`.
    pub overwrite: bool,
    /// Where each row starts and finishes, for the row-slab sweeps of
    /// [`FeSpace`] that have one. Read by [`Lanes`] sweeps only, which need
    /// it.
    pub touch: Option<&'a TouchTable>,
}

/// What [`FeSpace::sweep_cells`] runs on each finished piece of its
/// result, from the thread that swept it: `(column, row, piece)`, the piece
/// starting at that row and column. A [`ColMajor`] piece is one column's
/// rows of an item, run once the item's last cell has been scattered; a
/// [`Lanes`] piece is the lanes of a run of consecutive rows, run once the
/// last cell that touches them has been scattered (see [`TouchTable`]).
pub type BlockEpilogue<'a, T> = dyn Fn(usize, usize, &mut [T]) + Sync + 'a;

/// An item of [`FeSpace::sweep_cells`]: first column, width, row slab, and
/// its share of `y` as strips ([`BlockLayout::row`] reads them).
type SweepItem<'a, T> = (usize, usize, &'a RowSlab, [&'a mut [T]; COL_BLOCK]);

/// How the blocks that [`FeSpace::sweep_cells`] sweeps hold their columns:
/// [`ColMajor`] columns of `ld` rows, or one [`Lanes`] panel. The cell loop,
/// the lane sharing and the kernel are the same for both; a layout says
/// where an element lives, how the items share out `y`, and how a swept
/// row starts and finishes.
pub trait BlockLayout: Copy + Send + Sync {
    /// Rows start and finish by the sweep's [`TouchTable`]: the kernel's
    /// first direction stores instead of accumulating, the first cell that
    /// reaches a row stores into it, later ones add, and the epilogue runs
    /// on the row's lanes once the last has been scattered. Otherwise an
    /// item zeroes its pieces (on an overwriting sweep) and finishes them
    /// after its last cell.
    const TOUCH: bool;
    /// Offset of row `d`, column `t` in a block of `cb` columns of `ld` rows.
    fn at(ld: usize, cb: usize, d: usize, t: usize) -> usize;
    /// Cut `y` (`ld` rows) into the sweep's items, one per column block and
    /// row slab.
    fn items<'a, T>(y: &'a mut [T], ld: usize, slabs: &'a [RowSlab]) -> Vec<SweepItem<'a, T>>;
    /// The lanes of slab row `r` in an item's strips, in column order.
    fn row<'s, T>(
        strips: &'s mut [&mut [T]],
        r: usize,
        cb: usize,
    ) -> impl Iterator<Item = &'s mut T>;
}

/// Column-major blocks: column `t` is the `ld` values at `t * ld`. The
/// serial apply, the Poisson solves and a rank's sweep.
#[derive(Clone, Copy, Debug)]
pub struct ColMajor;

/// One [`LanePanel`] of at most [`COL_BLOCK`] lanes: row `d` is the `cb`
/// values at `d * cb`, so gathering a node's lanes is one contiguous load.
/// A filter task's sweep.
#[derive(Clone, Copy, Debug)]
pub struct Lanes;

impl BlockLayout for ColMajor {
    const TOUCH: bool = false;
    #[inline(always)]
    fn at(ld: usize, _cb: usize, d: usize, t: usize) -> usize {
        t * ld + d
    }
    fn items<'a, T>(y: &'a mut [T], ld: usize, slabs: &'a [RowSlab]) -> Vec<SweepItem<'a, T>> {
        const CB: usize = COL_BLOCK;
        y.chunks_mut(ld * CB)
            .enumerate()
            .flat_map(|(jb, yblk)| {
                // the block's columns, each handing its next slab's rows to
                // that slab's item
                let cb = yblk.len() / ld;
                let mut cols: [&mut [T]; CB] = Default::default();
                for (col, ycol) in cols.iter_mut().zip(yblk.chunks_mut(ld)) {
                    *col = ycol;
                }
                slabs.iter().map(move |slab| {
                    let ycols: [&mut [T]; CB] = std::array::from_fn(|t| {
                        let col = std::mem::take(&mut cols[t]);
                        let (head, tail) = col.split_at_mut(slab.rows.min(col.len()));
                        cols[t] = tail;
                        head
                    });
                    (jb * CB, cb, slab, ycols)
                })
            })
            .collect()
    }
    #[inline(always)]
    fn row<'s, T>(
        strips: &'s mut [&mut [T]],
        r: usize,
        cb: usize,
    ) -> impl Iterator<Item = &'s mut T> {
        strips[..cb].iter_mut().map(move |col| &mut col[r])
    }
}

impl BlockLayout for Lanes {
    const TOUCH: bool = true;
    #[inline(always)]
    fn at(_ld: usize, cb: usize, d: usize, t: usize) -> usize {
        d * cb + t
    }
    fn items<'a, T>(y: &'a mut [T], ld: usize, slabs: &'a [RowSlab]) -> Vec<SweepItem<'a, T>> {
        let cb = y.len() / ld;
        assert!(cb <= COL_BLOCK, "a panel holds at most COL_BLOCK lanes");
        let mut rest = y;
        slabs
            .iter()
            .map(|slab| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(slab.rows * cb);
                rest = tail;
                let mut strips: [&mut [T]; COL_BLOCK] = Default::default();
                strips[0] = head;
                (0, cb, slab, strips)
            })
            .collect()
    }
    #[inline(always)]
    fn row<'s, T>(
        strips: &'s mut [&mut [T]],
        r: usize,
        cb: usize,
    ) -> impl Iterator<Item = &'s mut T> {
        strips[0][r * cb..(r + 1) * cb].iter_mut()
    }
}

/// At most [`COL_BLOCK`] columns of `rows` rows held lane-interleaved,
/// `[row][lane]`: row `i` is the `lanes` values at `i * lanes`. What a
/// Chebyshev filter task carries through all its degree steps, swept as
/// [`Lanes`]. The buffer grows past the widest shape it has held only.
#[derive(Clone, Debug)]
pub struct LanePanel<T> {
    data: Vec<T>,
    rows: usize,
    lanes: usize,
}

impl<T: Scalar> LanePanel<T> {
    /// A zero panel of `rows x lanes`.
    pub fn zeros(rows: usize, lanes: usize) -> Self {
        assert!(lanes <= COL_BLOCK, "a panel holds at most COL_BLOCK lanes");
        Self {
            data: vec![T::ZERO; rows * lanes],
            rows,
            lanes,
        }
    }

    /// Rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lanes (columns).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reshape to `rows x lanes`, keeping the buffer; the entries are
    /// unspecified until written.
    pub fn resize(&mut self, rows: usize, lanes: usize) {
        assert!(lanes <= COL_BLOCK, "a panel holds at most COL_BLOCK lanes");
        let len = rows * lanes;
        self.data.reserve_exact(len.saturating_sub(self.data.len()));
        self.data.resize(len, T::ZERO);
        (self.rows, self.lanes) = (rows, lanes);
    }

    /// Row `i`'s lanes.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.lanes..(i + 1) * self.lanes]
    }

    /// The panel, row after row.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The panel, row after row.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Become the `lanes` column-major columns `cols` of `rows` rows each,
    /// one lane per column.
    pub fn load_cols(&mut self, cols: &[T], (rows, lanes): (usize, usize)) {
        assert_eq!(cols.len(), rows * lanes);
        self.resize(rows, lanes);
        for t in 0..lanes {
            for (i, &v) in cols[t * rows..(t + 1) * rows].iter().enumerate() {
                self.data[i * lanes + t] = v;
            }
        }
    }

    /// Copy lane `t` out into the column `col`.
    pub fn store_lane(&self, t: usize, col: &mut [T]) {
        assert!(t < self.lanes && col.len() == self.rows);
        for (i, v) in col.iter_mut().enumerate() {
            *v = self.data[i * self.lanes + t];
        }
    }

    /// Keep only the lanes `keep` (strictly increasing), packed in their
    /// order to the front of every row.
    pub fn retain_lanes(&mut self, keep: &[usize]) {
        let (w, k) = (self.lanes, keep.len());
        for (i, &t) in keep.iter().enumerate() {
            assert!(t < w && (i == 0 || keep[i - 1] < t));
        }
        // row by row, front to back: every write lands at or before the
        // read it comes from and after every read already done
        for r in 0..self.rows {
            for (i, &t) in keep.iter().enumerate() {
                self.data[r * k + i] = self.data[r * w + t];
            }
        }
        self.resize(self.rows, k);
    }
}

/// The 8 possible products of Bloch phases selected by a wrap bitmask
/// (identity for mask 0). `conj` gives the scatter-side conjugate table.
#[inline]
fn phase_products<T: Scalar>(phases: [T; 3], conj: bool) -> [T; 8] {
    let p = if conj {
        [phases[0].conj(), phases[1].conj(), phases[2].conj()]
    } else {
        phases
    };
    let mut tab = [T::ONE; 8];
    for (mask, t) in tab.iter_mut().enumerate() {
        let mut v = T::ONE;
        if mask & 1 != 0 {
            v *= p[0];
        }
        if mask & 2 != 0 {
            v *= p[1];
        }
        if mask & 4 != 0 {
            v *= p[2];
        }
        *t = v;
    }
    tab
}

/// Gather one cell's `cb` block columns (laid out as `L`) into the
/// interleaved local buffer (`loc[l*COL_BLOCK + t]` is local node `l`, lane
/// `t`), optionally fusing a per-row real scale. The cell owns the lanes
/// `lanes`: its columns land in the first `cb` of them and the rest are
/// zeroed. A cell alone owns `0..COL_BLOCK`; the cells sharing a kernel call
/// own consecutive `cb`-lane groups, the last of them also the unused lanes
/// after its own. Each node is written through a [`COL_BLOCK`]-wide window
/// that starts at the cell's first lane, so `loc` must extend `lanes.start`
/// values past its last node: a window of fixed width lets the per-lane
/// loops unroll (through a slice of just the cell's own lanes they do not,
/// and an 8-column apply ran about a fifth slower).
// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn gather_block<T: Scalar, L: BlockLayout>(
    dofs: &[i32],
    wraps: &[u8],
    xblk: &[T],
    ld: usize,
    cb: usize,
    lanes: Range<usize>,
    tab: &[T; 8],
    row_scale: Option<&[f64]>,
    loc: &mut [T],
) {
    const CB: usize = COL_BLOCK;
    let own = lanes.len();
    assert!(
        loc.len() >= dofs.len() * CB + lanes.start,
        "a window per node"
    );
    let windows = loc[lanes.start..].chunks_exact_mut(CB);
    for ((&d, &w), dst) in dofs.iter().zip(wraps).zip(windows) {
        if d < 0 {
            for t in 0..own {
                dst[t] = T::ZERO;
            }
            continue;
        }
        let du = d as usize;
        match row_scale {
            None => {
                for t in 0..cb {
                    dst[t] = xblk[L::at(ld, cb, du, t)];
                }
            }
            Some(s) => {
                let sc = <T::Re as Real>::from_f64(s[du]);
                for t in 0..cb {
                    dst[t] = xblk[L::at(ld, cb, du, t)].scale(sc);
                }
            }
        }
        if w != 0 {
            let ph = tab[w as usize];
            for t in 0..cb {
                dst[t] *= ph;
            }
        }
        for t in cb..own {
            dst[t] = T::ZERO;
        }
    }
}

/// Scatter one cell's interleaved lanes `lane0..lane0 + cb` into a slab's
/// rows of the block's `cb` columns (the item's strips, read as `L`),
/// conjugate phases on wraps (adjoint of [`gather_block`], and read through
/// the same fixed-width window, so `out` extends `lane0` values past its
/// last node). Local nodes on another slab's rows are dropped: that slab
/// sweeps this cell too. Under [`BlockLayout::TOUCH`] the cell's `touch`
/// flags make it store into a row it reaches first; otherwise it adds.
// dftlint:hot
#[allow(clippy::too_many_arguments)]
fn scatter_block<T: Scalar, L: BlockLayout>(
    dofs: &[i32],
    wraps: &[u8],
    touch: &[u8],
    out: &[T],
    lane0: usize,
    tabc: &[T; 8],
    ycols: &mut [&mut [T]],
    (first_row, rows, cb): (usize, usize, usize),
) {
    const CB: usize = COL_BLOCK;
    assert!(out.len() >= dofs.len() * CB + lane0, "a window per node");
    assert!(
        !L::TOUCH || touch.len() == dofs.len(),
        "a touch flag per node"
    );
    let windows = out[lane0..].chunks_exact(CB);
    for (l, ((&d, &w), src)) in dofs.iter().zip(wraps).zip(windows).enumerate() {
        // an eliminated node (-1) and a row below the slab both wrap past
        // `rows`
        let r = (d as usize).wrapping_sub(first_row);
        if r >= rows {
            continue;
        }
        let src = &src[..cb];
        // a row's first touch stores (`0 + v` is `v`), with no branch on it
        let first = L::TOUCH && touch[l] & FIRST_TOUCH != 0;
        let start = |y: &T| if first { T::ZERO } else { *y };
        let lanes = L::row(ycols, r, cb);
        if w == 0 {
            lanes.zip(src).for_each(|(y, &v)| *y = start(y) + v);
        } else {
            let ph = tabc[w as usize];
            lanes.zip(src).for_each(|(y, &v)| *y = start(y) + v * ph);
        }
    }
}

/// The body of [`FeSpace::cell_stiffness_apply_block`]: `y_loc += K_c x_loc`
/// (under `STORE`, `y_loc = K_c x_loc`: the first direction stores, so
/// `y_loc` need not be cleared) on [`COL_BLOCK`] interleaved lanes for a
/// box of size `h`, `n1` nodes per axis. Each 1-D line of each direction
/// (x, then y, then z, [`cell_direction`]) computes its outputs `TILE` at a
/// time: one pass over the line's inputs feeds `TILE` independent
/// accumulators, then each lands in `y_loc` with one scaled add. Every
/// output still sums its `n1` terms in ascending input order, so the bits
/// do not depend on `TILE`. Called with `n1 == TILE` as literals (and
/// inlined) the loops unroll and a line is one tile.
// dftlint:hot
#[inline(always)]
fn cell_kernel<T: Scalar, const TILE: usize, const STORE: bool>(
    n1: usize,
    basis: &Lagrange1d,
    h: [f64; 3],
    x_loc: &[T],
    y_loc: &mut [T],
) {
    const CB: usize = COL_BLOCK;
    let n2 = n1 * n1;
    let x_loc = &x_loc[..n2 * n1 * CB];
    let y_loc = &mut y_loc[..n2 * n1 * CB];
    // per direction: its local stride, the strides of the two other axes
    // (ascending), and the metric factor of the box
    let (hx, hy, hz) = (h[0], h[1], h[2]);
    let dir = (n1, basis, x_loc);
    cell_direction::<T, TILE, STORE>(dir, (1, n1, n2, hy * hz / (2.0 * hx)), y_loc);
    cell_direction::<T, TILE, false>(dir, (n1, 1, n2, hx * hz / (2.0 * hy)), y_loc);
    cell_direction::<T, TILE, false>(dir, (n2, 1, n1, hx * hy / (2.0 * hz)), y_loc);
}

/// One direction of [`cell_kernel`]: every 1-D line along `stride`, the
/// lines indexed by the other two axes' strides `su`, `sv`, scaled by
/// `metric` and the GLL weights of the line. Under `STORE` the results are
/// stored, not added (the first direction of a kernel that need not find
/// `y_loc` cleared): a second copy of the loop rather than a branch inside
/// it, which cost the kernel about a third of its speed.
// dftlint:hot
#[inline(always)]
fn cell_direction<T: Scalar, const TILE: usize, const STORE: bool>(
    (n1, basis, x_loc): (usize, &Lagrange1d, &[T]),
    (stride, su, sv, metric): (usize, usize, usize, f64),
    y_loc: &mut [T],
) {
    const CB: usize = COL_BLOCK;
    let khat = &basis.khat[..n1 * n1];
    let w = &basis.weights[..n1];
    for v in 0..n1 {
        for u in 0..n1 {
            let base = u * su + v * sv;
            let scale = T::Re::from_f64(metric * w[u] * w[v]);
            for i0 in (0..n1).step_by(TILE) {
                let tile = TILE.min(n1 - i0);
                let mut acc = [[T::ZERO; CB]; TILE];
                for j in 0..n1 {
                    let l = base + j * stride;
                    let xv: [T; CB] = x_loc[l * CB..(l + 1) * CB].try_into().expect("lane width");
                    for (ii, a) in acc[..tile].iter_mut().enumerate() {
                        T::lane_fma(a, &xv, T::Re::from_f64(khat[(i0 + ii) * n1 + j]));
                    }
                }
                for (ii, a) in acc[..tile].iter().enumerate() {
                    let l = base + (i0 + ii) * stride;
                    let y = &mut y_loc[l * CB..(l + 1) * CB];
                    if STORE {
                        // `0 + a s` rounded once is `a s` rounded once
                        for (yv, av) in y.iter_mut().zip(a) {
                            *yv = av.scale(scale);
                        }
                    } else {
                        T::lane_fma(y, a, scale);
                    }
                }
            }
        }
    }
}

/// Visit the local nodes of a cell of size `h` in table order
/// `l = a + n1 (b + n1 c)`, with each node's GLL mass weight and its index
/// `(a, b, c)`: the scaffolding of every table-driven nodal cell loop (mass
/// assembly, stiffness diagonal, the collocation derivative and its
/// transpose), which reaches global nodes through `cell_nodes`.
pub(crate) fn for_each_local_node(
    basis: &Lagrange1d,
    h: [f64; 3],
    mut visit: impl FnMut(usize, f64, [usize; 3]),
) {
    let (n1, w) = (basis.degree + 1, &basis.weights);
    let jac = h[0] * h[1] * h[2] / 8.0;
    let mut l = 0;
    for c in 0..n1 {
        for b in 0..n1 {
            for a in 0..n1 {
                visit(l, w[a] * w[b] * w[c] * jac, [a, b, c]);
                l += 1;
            }
        }
    }
}

impl FeSpace {
    /// Build the space: node numbering, Dirichlet DoF elimination, diagonal
    /// mass assembly.
    pub fn new(mesh: Mesh3d) -> Self {
        let p = mesh.degree;
        let basis = Lagrange1d::new(p);
        let mut axis_nodes: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut n_axis = [0usize; 3];
        let mut periodic = [false; 3];
        for d in 0..3 {
            let ax = &mesh.axes[d];
            periodic[d] = ax.bc() == BoundaryCondition::Periodic;
            let nc = ax.ncells();
            let mut nodes = Vec::with_capacity(nc * p + 1);
            for c in 0..nc {
                let (x0, x1) = (ax.boundaries()[c], ax.boundaries()[c + 1]);
                for a in 0..p {
                    nodes.push(x0 + 0.5 * (basis.nodes[a] + 1.0) * (x1 - x0));
                }
                if c == nc - 1 && !periodic[d] {
                    nodes.push(x1);
                }
            }
            n_axis[d] = nodes.len();
            axis_nodes[d] = nodes;
        }
        let nnodes = n_axis[0] * n_axis[1] * n_axis[2];

        // Dirichlet boundary nodes are eliminated from the DoF set.
        let is_boundary = |ix: usize, iy: usize, iz: usize| -> bool {
            (!periodic[0] && (ix == 0 || ix == n_axis[0] - 1))
                || (!periodic[1] && (iy == 0 || iy == n_axis[1] - 1))
                || (!periodic[2] && (iz == 0 || iz == n_axis[2] - 1))
        };
        // the cell tables index nodes as u32 and DoFs as i32 (-1 marks a
        // Dirichlet node): a mesh past either bound is refused, not wrapped
        let node_index =
            |n: usize| u32::try_from(n).expect("FeSpace: mesh has more nodes than u32 indexes");
        let dof_index =
            |d: i64| i32::try_from(d).expect("FeSpace: mesh has more DoFs than i32 indexes");
        let mut dof_of_node = vec![-1i64; nnodes];
        let mut node_of_dof = Vec::new();
        let mut idx = 0i64;
        for iz in 0..n_axis[2] {
            for iy in 0..n_axis[1] {
                for ix in 0..n_axis[0] {
                    let n = ix + n_axis[0] * (iy + n_axis[1] * iz);
                    if !is_boundary(ix, iy, iz) {
                        dof_of_node[n] = idx;
                        node_of_dof.push(node_index(n));
                        idx += 1;
                    }
                }
            }
        }
        let ndofs = node_of_dof.len();

        // Cells.
        let mut cells = Vec::with_capacity(mesh.ncells());
        for cz in 0..mesh.axes[2].ncells() {
            for cy in 0..mesh.axes[1].ncells() {
                for cx in 0..mesh.axes[0].ncells() {
                    cells.push(Cell {
                        c: [cx, cy, cz],
                        h: [mesh.axes[0].h(cx), mesh.axes[1].h(cy), mesh.axes[2].h(cz)],
                        origin: [
                            mesh.axes[0].boundaries()[cx],
                            mesh.axes[1].boundaries()[cy],
                            mesh.axes[2].boundaries()[cz],
                        ],
                    });
                }
            }
        }

        // Precompute per-cell gather/scatter tables: global node, DoF index
        // (-1 on Dirichlet) and periodic-wrap bitmask per local node, so the
        // hot kernels never re-derive the `axis_node` arithmetic.
        let n1 = p + 1;
        let nloc = n1 * n1 * n1;
        let mut cell_node = Vec::with_capacity(cells.len() * nloc);
        let mut cell_dof = Vec::with_capacity(cells.len() * nloc);
        let mut cell_wrap = Vec::with_capacity(cells.len() * nloc);
        for cell in &cells {
            for c in 0..n1 {
                let (gz, wz) = Self::axis_node(cell.c[2], c, p, n_axis[2], periodic[2]);
                for b in 0..n1 {
                    let (gy, wy) = Self::axis_node(cell.c[1], b, p, n_axis[1], periodic[1]);
                    for a in 0..n1 {
                        let (gx, wx) = Self::axis_node(cell.c[0], a, p, n_axis[0], periodic[0]);
                        let node = gx + n_axis[0] * (gy + n_axis[1] * gz);
                        cell_node.push(node_index(node));
                        cell_dof.push(dof_index(dof_of_node[node]));
                        cell_wrap.push(u8::from(wx) | (u8::from(wy) << 1) | (u8::from(wz) << 2));
                    }
                }
            }
        }

        // Diagonal GLL mass matrix over all nodes.
        let mut mass_diag = vec![0.0; nnodes];
        for (cell, nodes) in cells.iter().zip(cell_node.chunks(nloc)) {
            for_each_local_node(&basis, cell.h, |l, w, _| mass_diag[nodes[l] as usize] += w);
        }
        let inv_sqrt_mass_dof = node_of_dof
            .iter()
            .map(|&n| 1.0 / mass_diag[n as usize].sqrt())
            .collect();

        let mut space = Self {
            mesh,
            basis,
            axis_nodes,
            n_axis,
            periodic,
            nnodes,
            ndofs,
            dof_of_node,
            node_of_dof,
            mass_diag,
            inv_sqrt_mass_dof,
            cells,
            nloc,
            cell_node,
            cell_dof,
            cell_wrap,
            slab_sets: Vec::new(),
            stiffness_inverse: OnceLock::new(),
        };
        let layers = space.mesh.axes[2].ncells();
        space.slab_sets = (1..=(layers / 2).max(1))
            .map(|ns| space.row_slabs(ns))
            .collect();
        space
    }

    /// The all-cells sweep cut into `ns` row slabs along z, the slowest
    /// axis of both the cell and the DoF numbering (`1 <= ns <=` z cell
    /// layers). A slab takes a contiguous run of cell layers and owns the
    /// DoF rows of their node planes short of the closing one, which the
    /// next slab owns (the last slab keeps the closing plane of a
    /// non-periodic axis). It lists every cell with a node on those planes,
    /// ascending: the layer below, its own layers, and for slab 0 of a
    /// periodic axis the wrap layer. Every owned row therefore meets its
    /// cells in the order of the unsplit sweep, and the result has that
    /// sweep's bits for any `ns`; the price is one cell layer swept twice
    /// per slab boundary. The touch flags mark, per slab and owned row, the
    /// first and the last (listed cell, local node) pair that reaches it.
    fn row_slabs(&self, ns: usize) -> SlabSet {
        let p = self.mesh.degree;
        let layers = self.mesh.axes[2].ncells();
        let layer_cells = self.cells.len() / layers;
        let plane_nodes = self.n_axis[0] * self.n_axis[1];
        let mut plane_row = vec![0usize; self.n_axis[2] + 1];
        for (z, plane) in self.dof_of_node.chunks(plane_nodes).enumerate() {
            plane_row[z + 1] = plane_row[z] + plane.iter().filter(|&&d| d >= 0).count();
        }
        let mut set = SlabSet {
            cells: Vec::new(),
            slabs: Vec::with_capacity(ns),
            touch: TouchTable {
                flags: Vec::new(),
                finish_at: vec![0],
                finish: Vec::new(),
            },
        };
        let mut c0 = 0;
        for s in 0..ns {
            let c1 = c0 + layers / ns + usize::from(s < layers % ns);
            let z1 = if s + 1 == ns { self.n_axis[2] } else { c1 * p };
            let below = c0.checked_sub(1);
            let wrap = (self.periodic[2] && c0 == 0 && c1 < layers).then_some(layers - 1);
            let start = set.cells.len();
            for layer in below.into_iter().chain(c0..c1).chain(wrap) {
                let first = layer * layer_cells;
                set.cells
                    .extend((first..first + layer_cells).map(|c| c as u32));
            }
            let slab = RowSlab {
                first_row: plane_row[c0 * p],
                rows: plane_row[z1] - plane_row[c0 * p],
                cells: start..set.cells.len(),
            };
            self.mark_touches(&set.cells, &slab, &mut set.touch);
            set.slabs.push(slab);
            c0 = c1;
        }
        set
    }

    /// Append `slab`'s cells (entries `slab.cells` of `cells`) to the touch
    /// table: walking the (cell, local node) pairs in sweep order, flag the
    /// first and the last that reach each owned row, and finish each row at
    /// the end of the row of cells that reaches it last (the last cell of
    /// the slab ends a row of cells too).
    fn mark_touches(&self, cells: &[u32], slab: &RowSlab, touch: &mut TouchTable) {
        let nloc = self.nloc;
        let ncx = self.mesh.axes[0].ncells();
        let base = touch.flags.len();
        touch.flags.resize(base + slab.cells.len() * nloc, 0);
        let mut last = vec![usize::MAX; slab.rows];
        for (i, &c) in cells[slab.cells.clone()].iter().enumerate() {
            for (l, &d) in self.cell_dofs(c as usize).iter().enumerate() {
                let r = (d as usize).wrapping_sub(slab.first_row);
                if r < slab.rows {
                    let at = base + i * nloc + l;
                    if last[r] == usize::MAX {
                        touch.flags[at] |= FIRST_TOUCH;
                    }
                    last[r] = at;
                }
            }
        }
        // `entry << 32 | row`: the slab entry that finishes each row, sorted
        // into finishing order
        let n = slab.cells.len();
        let mut done: Vec<u64> = (last.iter().zip(slab.first_row..))
            .map(|(&at, row)| {
                assert_ne!(at, usize::MAX, "a slab's cells reach every row it owns");
                touch.flags[at] |= LAST_TOUCH;
                let i = (at - base) / nloc;
                let entry = ((i / ncx + 1) * ncx - 1).min(n - 1);
                ((entry as u64) << 32) | row as u64
            })
            .collect();
        done.sort_unstable();
        let mut next = done.iter().peekable();
        for i in 0..n as u64 {
            let open = touch.finish.len();
            while let Some(&key) = next.next_if(|&&key| key >> 32 == i) {
                let row = key as u32;
                match touch.finish[open..].last_mut() {
                    Some((r0, len)) if *r0 + *len == row => *len += 1,
                    _ => touch.finish.push((row, 1)),
                }
            }
            touch.finish_at.push(touch.finish.len() as u32);
        }
    }

    /// The exact inverse of the assembled stiffness that preconditions the
    /// Poisson solves, factored once per space on first use (three dense
    /// eigendecompositions of the per-axis DoF count).
    pub(crate) fn stiffness_inverse(&self) -> Result<&FdmPrec, &LinalgError> {
        self.stiffness_inverse
            .get_or_init(|| FdmPrec::new(&self.mesh, &self.basis))
            .as_ref()
    }

    /// Index of a cell in [`Self::cells`] (cells are stored x-fastest).
    #[inline]
    fn cell_index(&self, cell: &Cell) -> usize {
        let ncx = self.mesh.axes[0].ncells();
        let ncy = self.mesh.axes[1].ncells();
        cell.c[0] + ncx * (cell.c[1] + ncy * cell.c[2])
    }

    #[inline]
    fn axis_node(c: usize, a: usize, p: usize, n: usize, periodic: bool) -> (usize, bool) {
        let g = c * p + a;
        if periodic && g >= n {
            (g - n, true)
        } else {
            (g, false)
        }
    }

    /// Total unique FE nodes (including Dirichlet boundary nodes).
    #[inline]
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// Degrees of freedom (nodes minus eliminated Dirichlet nodes).
    #[inline]
    pub fn ndofs(&self) -> usize {
        self.ndofs
    }

    /// Cells of the mesh.
    #[inline]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Local nodes per cell, `(p+1)^3`.
    #[inline]
    pub fn nloc(&self) -> usize {
        self.nloc
    }

    /// Per-local-node DoF indices of cell `ci` (`-1` on eliminated
    /// Dirichlet nodes), from the precomputed gather/scatter tables.
    #[inline]
    pub fn cell_dofs(&self, ci: usize) -> &[i32] {
        &self.cell_dof[ci * self.nloc..(ci + 1) * self.nloc]
    }

    /// Per-local-node periodic-wrap bitmasks of cell `ci` (bit 0 = x wrap,
    /// bit 1 = y, bit 2 = z) selecting the Bloch phase product.
    #[inline]
    pub fn cell_wraps(&self, ci: usize) -> &[u8] {
        &self.cell_wrap[ci * self.nloc..(ci + 1) * self.nloc]
    }

    /// Per-local-node global node indices of cell `ci`.
    #[inline]
    pub fn cell_nodes(&self, ci: usize) -> &[u32] {
        &self.cell_node[ci * self.nloc..(ci + 1) * self.nloc]
    }

    /// Unique node counts per axis.
    #[inline]
    // dftlint:allow(L009, reason="node-grid shape of dft-fem/tests/golden_stiffness.rs and space::tests")
    pub fn n_axis(&self) -> [usize; 3] {
        self.n_axis
    }

    /// Diagonal of the global (consistent, GLL-collocated) mass matrix.
    #[inline]
    pub fn mass_diag(&self) -> &[f64] {
        &self.mass_diag
    }

    /// `M^{-1/2}` restricted to DoFs — the Löwdin orthonormalization scaling.
    #[inline]
    pub fn inv_sqrt_mass(&self) -> &[f64] {
        &self.inv_sqrt_mass_dof
    }

    /// Map node index -> DoF index (`None` on Dirichlet boundary).
    #[inline]
    pub fn dof_of_node(&self, node: usize) -> Option<usize> {
        let d = self.dof_of_node[node];
        (d >= 0).then_some(d as usize)
    }

    /// Map DoF index -> node index.
    #[inline]
    pub fn node_of_dof(&self, dof: usize) -> usize {
        self.node_of_dof[dof] as usize
    }

    /// Cartesian coordinates of a node.
    pub fn node_coord(&self, node: usize) -> [f64; 3] {
        let ix = node % self.n_axis[0];
        let iy = (node / self.n_axis[0]) % self.n_axis[1];
        let iz = node / (self.n_axis[0] * self.n_axis[1]);
        [
            self.axis_nodes[0][ix],
            self.axis_nodes[1][iy],
            self.axis_nodes[2][iz],
        ]
    }

    /// Integrate a nodal field over the domain: `sum_i M_ii f_i`.
    pub fn integrate(&self, f_nodes: &[f64]) -> f64 {
        assert_eq!(f_nodes.len(), self.nnodes);
        f_nodes
            .iter()
            .zip(self.mass_diag.iter())
            .map(|(&f, &m)| f * m)
            .sum()
    }

    /// Gather cell values from a *DoF* vector (Dirichlet nodes read as 0).
    pub fn gather_cell_dofs<T: Scalar>(
        &self,
        cell: &Cell,
        x_dofs: &[T],
        phases: [T; 3],
        out: &mut [T],
    ) {
        let nloc = self.nloc;
        let ci = self.cell_index(cell);
        let dofs = &self.cell_dof[ci * nloc..(ci + 1) * nloc];
        let wraps = &self.cell_wrap[ci * nloc..(ci + 1) * nloc];
        let tab = phase_products(phases, false);
        for l in 0..nloc {
            let d = dofs[l];
            let mut v = if d >= 0 { x_dofs[d as usize] } else { T::ZERO };
            let w = wraps[l];
            if w != 0 {
                v *= tab[w as usize];
            }
            out[l] = v;
        }
    }

    /// Scatter-add local cell values into a DoF vector, conjugating the
    /// Bloch phases (the adjoint of [`Self::gather_cell_dofs`]).
    pub fn scatter_add_cell_dofs<T: Scalar>(
        &self,
        cell: &Cell,
        local: &[T],
        phases: [T; 3],
        y_dofs: &mut [T],
    ) {
        let nloc = self.nloc;
        let ci = self.cell_index(cell);
        let dofs = &self.cell_dof[ci * nloc..(ci + 1) * nloc];
        let wraps = &self.cell_wrap[ci * nloc..(ci + 1) * nloc];
        let tab = phase_products(phases, true);
        for l in 0..nloc {
            let d = dofs[l];
            if d >= 0 {
                let mut v = local[l];
                let w = wraps[l];
                if w != 0 {
                    v *= tab[w as usize];
                }
                y_dofs[d as usize] += v;
            }
        }
    }

    /// Analytic FLOP count of one [`FeSpace::apply_stiffness`] call on
    /// `ncols` columns: per cell and column the sum-factorized kernel does
    /// three directional sweeps, each `n1^3` outputs of an `n1`-term
    /// multiply-add plus one scale-and-accumulate, every multiply by a real
    /// factor (gather/scatter phase multiplies are not counted).
    pub fn stiffness_apply_flops<T: Scalar>(&self, ncols: usize) -> u64 {
        let n1 = (self.mesh.degree + 1) as u64;
        let mac = T::SCALE_FLOPS + T::ADD_FLOPS;
        let per_cell = 3 * n1 * n1 * n1 * (n1 + 1) * mac;
        per_cell * self.cells.len() as u64 * ncols as u64
    }

    /// `Y = K X` on DoF vectors (columns of `x`), with Bloch `phases` on
    /// periodic wraps. `K` is the assembled FE stiffness (grad-grad) matrix;
    /// the Laplacian operator in the Hamiltonian is `-1/2 K` in the
    /// mass-orthonormalized basis.
    ///
    /// Runs the table-driven blocked kernel: columns are processed
    /// [`COL_BLOCK`] at a time through an interleaved-lane local buffer so
    /// the sum-factorized sweeps vectorize across columns, and gather /
    /// scatter walk the precomputed DoF + wrap-mask tables.
    pub fn apply_stiffness<T: Scalar>(&self, x: &Matrix<T>, y: &mut Matrix<T>, phases: [T; 3]) {
        assert_eq!(x.nrows(), self.ndofs);
        assert_eq!(y.shape(), x.shape());
        self.apply_stiffness_impl(ColMajor, x.as_slice(), y.as_mut_slice(), phases, None, None);
    }

    /// `Y = K diag(s) X` for a real per-DoF scale `s`, fused into the cell
    /// gather, then `epilogue` on each finished column block (see
    /// [`Self::sweep_cells`]). This is the Hamiltonian's apply: the Löwdin
    /// `M^{-1/2}` input scaling costs no copy of the wavefunction block, and
    /// the output transform (and a Chebyshev recurrence update) costs no
    /// further pass over it.
    pub fn apply_stiffness_scaled<T: Scalar>(
        &self,
        x: &Matrix<T>,
        y: &mut Matrix<T>,
        phases: [T; 3],
        row_scale: &[f64],
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        assert_eq!(x.nrows(), self.ndofs);
        assert_eq!(y.shape(), x.shape());
        let (x, y) = (x.as_slice(), y.as_mut_slice());
        self.apply_stiffness_impl(ColMajor, x, y, phases, Some(row_scale), epilogue);
    }

    /// [`Self::apply_stiffness_scaled`] on lane panels: `Y = K diag(s) X`
    /// swept as [`Lanes`], `epilogue(0, row, its lanes)` right after the
    /// last cell that reaches each row. A filter task's recurrence step.
    pub fn apply_panel_scaled<T: Scalar>(
        &self,
        x: &LanePanel<T>,
        y: &mut LanePanel<T>,
        phases: [T; 3],
        row_scale: &[f64],
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        assert_eq!(x.rows(), self.ndofs);
        assert_eq!((y.rows(), y.lanes()), (x.rows(), x.lanes()));
        let (x, y) = (x.as_slice(), y.as_mut_slice());
        self.apply_stiffness_impl(Lanes, x, y, phases, Some(row_scale), epilogue);
    }

    fn apply_stiffness_impl<T: Scalar, L: BlockLayout>(
        &self,
        layout: L,
        x: &[T],
        y: &mut [T],
        phases: [T; 3],
        row_scale: Option<&[f64]>,
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        // fewer column blocks than threads: cut the rows as well, into as
        // many slabs as there are threads per block (at least two cell
        // layers each, which `slab_sets` stops at)
        let blocks = (x.len() / self.ndofs.max(1)).div_ceil(COL_BLOCK).max(1);
        let ns = (rayon::current_num_threads() / blocks).clamp(1, self.slab_sets.len());
        let set = &self.slab_sets[ns - 1];
        let all = CellSweep {
            cells: &set.cells,
            slabs: &set.slabs,
            first_cell: 0,
            cell_dof: &self.cell_dof,
            ld: self.ndofs,
            overwrite: true,
            touch: Some(&set.touch),
        };
        self.sweep_cells(&all, layout, x, y, phases, row_scale, epilogue);
    }

    /// The one cell sweep: `Y += K diag(s) X` (or `Y =`, see
    /// [`CellSweep::overwrite`]) restricted to the cells of `sweep`, on
    /// blocks `x` / `y` of `sweep.ld` rows laid out as `L` (`row_scale`,
    /// indexed like the rows, is the optional fused `s`).
    ///
    /// One rayon item per (column block of at most [`COL_BLOCK`], a
    /// [`Lanes`] panel being one, [`RowSlab`]): it walks the slab's cells
    /// through an interleaved-lane local buffer — gather from the shared
    /// `x` (DoF table, Bloch phase on wraps, scale) → the cell kernel →
    /// scatter (conjugate phase) into its own rows of its own columns only.
    /// A block of `cb` columns narrower than the lanes takes up to
    /// `COL_BLOCK / cb` consecutive cells of bit-equal size per kernel call,
    /// `cb` lanes each, and scatters them in the slab's order. Each lane's
    /// arithmetic is independent of the block, the lane and the cells beside
    /// it, and each row meets its cells in the sweep's order whichever slab
    /// owns it, starting from zero, so a result depends neither on the
    /// layout, nor on how many columns ride along, nor on how the rows are
    /// cut. The epilogue (see [`BlockEpilogue`]) runs on each finished piece
    /// while it is still in cache — whatever the caller does to the swept
    /// result element by element costs no further pass over `y`. A
    /// [`Lanes`] sweep overwrites and needs the sweep's touch table.
    /// Accumulating an empty cell list with no epilogue, or sweeping at
    /// zero leading dimension, is a no-op.
    // dftlint:hot
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_cells<T: Scalar, L: BlockLayout>(
        &self,
        sweep: &CellSweep<'_>,
        _layout: L,
        x: &[T],
        y: &mut [T],
        phases: [T; 3],
        row_scale: Option<&[f64]>,
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        let ld = sweep.ld;
        assert_eq!(x.len(), y.len());
        if ld == 0 || (sweep.cells.is_empty() && !sweep.overwrite && epilogue.is_none()) {
            return;
        }
        assert_eq!(y.len() % ld, 0);
        if let Some(s) = row_scale {
            assert_eq!(s.len(), ld);
        }
        if L::TOUCH {
            assert!(sweep.overwrite, "a lane-panel sweep overwrites");
            let touch = sweep.touch.expect("a lane-panel sweep has a touch table");
            assert_eq!(touch.flags.len(), sweep.cells.len() * self.nloc);
        }
        let tiled = sweep.slabs.iter().try_fold(0, |row, slab| {
            (slab.first_row == row && slab.cells.end <= sweep.cells.len())
                .then_some(row + slab.rows)
        });
        assert_eq!(tiled, Some(ld), "the row slabs must tile 0..ld in order");
        let tab = phase_products(phases, false);
        let tabc = phase_products(phases, true);
        L::items(y, ld, sweep.slabs)
            .into_par_iter()
            .for_each(|(j0, cb, slab, mut ycols)| {
                let xblk = &x[j0 * ld..(j0 + cb) * ld];
                let strips = if L::TOUCH { 1 } else { cb };
                let item = (j0, cb, slab);
                let ycols = &mut ycols[..strips];
                self.sweep_item::<T, L>(
                    sweep,
                    item,
                    xblk,
                    ycols,
                    (&tab, &tabc),
                    row_scale,
                    epilogue,
                );
            });
    }

    /// One item of [`Self::sweep_cells`]: the cells of `slab` on the `cb`
    /// block columns `xblk` from column `j0`, into the slab's rows of those
    /// columns. Out of line so that the cell loop is compiled once per
    /// scalar type and layout, not once per closure it would be inlined
    /// into: inlined, `scf-wide` moved by ± 5% with unrelated edits to the
    /// callers.
    // dftlint:hot
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn sweep_item<T: Scalar, L: BlockLayout>(
        &self,
        sweep: &CellSweep<'_>,
        (j0, cb, slab): (usize, usize, &RowSlab),
        xblk: &[T],
        ycols: &mut [&mut [T]],
        (tab, tabc): (&[T; 8], &[T; 8]),
        row_scale: Option<&[f64]>,
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        const CB: usize = COL_BLOCK;
        let (nloc, ld) = (self.nloc, sweep.ld);
        if sweep.overwrite && !L::TOUCH {
            for ycol in ycols.iter_mut() {
                ycol.fill(T::ZERO);
            }
        }
        let rows = (slab.first_row, slab.rows, cb);
        let touch = sweep.touch.filter(|_| L::TOUCH);
        dft_linalg::pack::with_scratch(|(loc, out): &mut (Vec<T>, Vec<T>)| {
            // one node's lanes of padding for the lane windows of
            // `gather_block` and `scatter_block`
            let need = (nloc + 1) * CB;
            if loc.len() < need {
                loc.resize(need, T::ZERO);
            }
            if out.len() < need {
                out.resize(need, T::ZERO);
            }
            let loc = &mut loc[..need];
            let out = &mut out[..need];
            let cell_of = |row: u32| sweep.first_cell + row as usize;
            let table = |row: u32| {
                let r = row as usize;
                let dofs = &sweep.cell_dof[r * nloc..(r + 1) * nloc];
                (dofs, self.cell_wraps(cell_of(row)))
            };
            let flags = |i: usize| touch.map_or(&[][..], |t| &t.flags[i * nloc..(i + 1) * nloc]);
            let h_bits = |row: u32| self.cells[cell_of(row)].h.map(f64::to_bits);
            let cells = &sweep.cells[slab.cells.start..slab.cells.end];
            // the entry of `sweep.cells` the next run starts at
            let mut at = slab.cells.start;
            // runs of consecutive cells of bit-equal `h` share one kernel
            // call, `cb` lanes each: the kernel's arithmetic per lane depends
            // on `h` alone, so a lane has the bits of its cell swept alone
            for same_h in cells.chunk_by(|&a, &b| h_bits(a) == h_bits(b)) {
                for run in same_h.chunks(CB / cb) {
                    for (k, &row) in run.iter().enumerate() {
                        let (dofs, wraps) = table(row);
                        let end = if k + 1 == run.len() { CB } else { (k + 1) * cb };
                        let lanes = k * cb..end;
                        gather_block::<T, L>(dofs, wraps, xblk, ld, cb, lanes, tab, row_scale, loc);
                    }
                    let h = self.cells[cell_of(run[0])].h;
                    if L::TOUCH {
                        self.cell_block::<T, true>(h, loc, out);
                    } else {
                        out.fill(T::ZERO);
                        self.cell_block::<T, false>(h, loc, out);
                    }
                    // in sweep order, so each row adds its cells in that order
                    for (k, &row) in run.iter().enumerate() {
                        let (dofs, wraps) = table(row);
                        let lane0 = k * cb;
                        scatter_block::<T, L>(
                            dofs,
                            wraps,
                            flags(at + k),
                            out,
                            lane0,
                            tabc,
                            ycols,
                            rows,
                        );
                    }
                    // then the rows the run has finished
                    if let (Some(t), Some(epilogue)) = (touch, epilogue) {
                        let ends = &t.finish_at[at..=at + run.len()];
                        let runs = ends[0] as usize..ends[run.len()] as usize;
                        for &(r0, n) in &t.finish[runs] {
                            let r = r0 as usize - slab.first_row;
                            let piece = &mut ycols[0][r * cb..(r + n as usize) * cb];
                            epilogue(j0, r0 as usize, piece);
                        }
                    }
                    at += run.len();
                }
            }
        });
        if let Some(epilogue) = epilogue.filter(|_| !L::TOUCH) {
            for (t, ycol) in ycols.iter_mut().enumerate() {
                epilogue(j0 + t, slab.first_row, ycol);
            }
        }
    }

    /// Sum-factorized stiffness on [`COL_BLOCK`] interleaved column lanes
    /// (`x_loc[l * COL_BLOCK + t]` is local node `l`, block column `t`):
    /// three directional sweeps of 1-D stiffness contractions, each
    /// accumulator a fixed lane array and the column-blocked inner products
    /// running through `Scalar::lane_fma` (packed FMA for f64/f32 via the
    /// `dft_linalg::simd` engine). The one cell kernel of every apply.
    ///
    /// One body (`cell_kernel`), compiled once per `n1 = degree + 1` up
    /// to 9 so its loops unroll and a 1-D line's `n1` accumulators live in
    /// registers; beyond that the same body runs at run-time `n1`.
    pub fn cell_stiffness_apply_block<T: Scalar>(&self, h: [f64; 3], x_loc: &[T], y_loc: &mut [T]) {
        self.cell_block::<T, false>(h, x_loc, y_loc);
    }

    /// [`Self::cell_stiffness_apply_block`], or under `STORE` its `y_loc =`
    /// form.
    #[inline]
    fn cell_block<T: Scalar, const STORE: bool>(&self, h: [f64; 3], x_loc: &[T], y_loc: &mut [T]) {
        let b = &self.basis;
        match b.n() {
            2 => cell_kernel::<T, 2, STORE>(2, b, h, x_loc, y_loc),
            3 => cell_kernel::<T, 3, STORE>(3, b, h, x_loc, y_loc),
            4 => cell_kernel::<T, 4, STORE>(4, b, h, x_loc, y_loc),
            5 => cell_kernel::<T, 5, STORE>(5, b, h, x_loc, y_loc),
            6 => cell_kernel::<T, 6, STORE>(6, b, h, x_loc, y_loc),
            7 => cell_kernel::<T, 7, STORE>(7, b, h, x_loc, y_loc),
            8 => cell_kernel::<T, 8, STORE>(8, b, h, x_loc, y_loc),
            9 => cell_kernel::<T, 9, STORE>(9, b, h, x_loc, y_loc),
            n1 => cell_kernel::<T, COL_BLOCK, STORE>(n1, b, h, x_loc, y_loc),
        }
    }

    /// `y = K x` over *full nodal* vectors, including contributions from
    /// boundary nodes (needed for inhomogeneous Dirichlet lifts in the
    /// Poisson solves): the one cell sweep over the node table, whose rows
    /// are all nodes. The table is converted per call; only nonzero
    /// boundary data reaches this.
    pub fn apply_stiffness_nodes(&self, x_nodes: &[f64], y_nodes: &mut [f64]) {
        assert_eq!(x_nodes.len(), self.nnodes);
        assert_eq!(y_nodes.len(), self.nnodes);
        let cell_node: Vec<i32> = (self.cell_node.iter())
            .map(|&n| i32::try_from(n).expect("node indices fit the sweep's i32 table"))
            .collect();
        let cells: Vec<u32> = (0..self.cells.len() as u32).collect();
        let nodes = CellSweep {
            cells: &cells,
            slabs: &[RowSlab::whole(self.nnodes, cells.len())],
            first_cell: 0,
            cell_dof: &cell_node,
            ld: self.nnodes,
            overwrite: true,
            touch: None,
        };
        self.sweep_cells(&nodes, ColMajor, x_nodes, y_nodes, [1.0; 3], None, None);
    }

    /// Diagonal of the assembled stiffness matrix on DoFs (for the
    /// inverse-diagonal-Laplacian preconditioning of the invDFT adjoint
    /// solve, Sec. 5.3.1 of the paper).
    pub fn stiffness_diagonal(&self) -> Vec<f64> {
        let b = &self.basis;
        let mut diag_nodes = vec![0.0; self.nnodes];
        for (ci, cell) in self.cells.iter().enumerate() {
            let h = cell.h;
            let sx = h[1] * h[2] / (2.0 * h[0]);
            let sy = h[0] * h[2] / (2.0 * h[1]);
            let sz = h[0] * h[1] / (2.0 * h[2]);
            let nodes = self.cell_nodes(ci);
            for_each_local_node(b, h, |l, _, [a, bb, c]| {
                diag_nodes[nodes[l] as usize] += sx * b.weights[bb] * b.weights[c] * b.k(a, a)
                    + sy * b.weights[a] * b.weights[c] * b.k(bb, bb)
                    + sz * b.weights[a] * b.weights[bb] * b.k(c, c);
            });
        }
        self.node_of_dof
            .iter()
            .map(|&n| diag_nodes[n as usize])
            .collect()
    }

    /// Dense cell stiffness matrix for a box of size `h`
    /// (`(p+1)^3 x (p+1)^3`, column-major) — the operand of the paper's
    /// batched dense path (which no solve here runs) and the oracle of the
    /// sum-factorized one.
    pub fn dense_cell_stiffness(&self, h: [f64; 3]) -> Matrix<f64> {
        let n1 = self.mesh.degree + 1;
        let nloc = n1 * n1 * n1;
        let b = &self.basis;
        let sx = h[1] * h[2] / (2.0 * h[0]);
        let sy = h[0] * h[2] / (2.0 * h[1]);
        let sz = h[0] * h[1] / (2.0 * h[2]);
        let mut k = Matrix::zeros(nloc, nloc);
        let li = |a: usize, bb: usize, c: usize| a + n1 * (bb + n1 * c);
        for c in 0..n1 {
            for bb in 0..n1 {
                for a in 0..n1 {
                    let i = li(a, bb, c);
                    for j in 0..n1 {
                        k[(i, li(j, bb, c))] += sx * b.weights[bb] * b.weights[c] * b.k(a, j);
                        k[(i, li(a, j, c))] += sy * b.weights[a] * b.weights[c] * b.k(bb, j);
                        k[(i, li(a, bb, j))] += sz * b.weights[a] * b.weights[bb] * b.k(c, j);
                    }
                }
            }
        }
        k
    }
}

/// The assembled stiffness as a [`LinearOperator`] on DoF vectors
/// (used by CG for the electrostatics solves).
pub struct StiffnessOperator<'a> {
    space: &'a FeSpace,
}

impl<'a> StiffnessOperator<'a> {
    /// Wrap a space.
    pub fn new(space: &'a FeSpace) -> Self {
        Self { space }
    }
}

impl<'a> LinearOperator<f64> for StiffnessOperator<'a> {
    fn dim(&self) -> usize {
        self.space.ndofs()
    }
    fn apply(&self, x: &Matrix<f64>, y: &mut Matrix<f64>) {
        self.space.apply_stiffness(x, y, [1.0; 3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Axis;
    use dft_linalg::gemm::{matmul, Op};
    use dft_linalg::scalar::C64;

    fn small_space(p: usize) -> FeSpace {
        FeSpace::new(Mesh3d::cube(2, 4.0, p))
    }

    #[test]
    fn node_and_dof_counts() {
        let s = small_space(2);
        // 2 cells * p=2 + 1 = 5 nodes/axis, 125 total; interior 3^3 = 27
        assert_eq!(s.nnodes(), 125);
        assert_eq!(s.ndofs(), 27);
        let sp = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 2));
        assert_eq!(sp.nnodes(), 64); // 4 nodes/axis
        assert_eq!(sp.ndofs(), 64);
    }

    #[test]
    fn mass_integrates_volume() {
        for p in [1, 2, 3, 5] {
            let s = small_space(p);
            let ones = vec![1.0; s.nnodes()];
            assert!(
                (s.integrate(&ones) - 64.0).abs() < 1e-10,
                "p={p}: {}",
                s.integrate(&ones)
            );
        }
        let sp = FeSpace::new(Mesh3d::periodic_cube(3, 6.0, 3));
        let ones = vec![1.0; sp.nnodes()];
        assert!((sp.integrate(&ones) - 216.0).abs() < 1e-9);
    }

    #[test]
    fn mass_integrates_polynomial_exactly() {
        // GLL quadrature with p+1 points is exact to degree 2p-1; x*y^2
        // needs degree 2 per axis -> p >= 2 gives cell-exactness for deg <= 3
        let s = small_space(3);
        let f: Vec<f64> = (0..s.nnodes())
            .map(|n| {
                let [x, y, _] = s.node_coord(n);
                x * y * y
            })
            .collect();
        // integral over [0,4]^3 of x y^2 = 8 * (64/3) * 4 = 2048/3... compute:
        // int x dx = 8; int y^2 dy = 64/3; int dz = 4 -> 8 * 64/3 * 4 = 2048/3
        let exact = 2048.0 / 3.0;
        assert!((s.integrate(&f) - exact).abs() < 1e-9);
    }

    #[test]
    fn stiffness_energy_of_linear_field() {
        // u = x restricted to interior dofs is not linear near the boundary
        // (Dirichlet drops boundary), so use the full-node path:
        // energy = int |grad u|^2 = volume
        let s = small_space(3);
        let u: Vec<f64> = (0..s.nnodes()).map(|n| s.node_coord(n)[0]).collect();
        let mut ku = vec![0.0; s.nnodes()];
        s.apply_stiffness_nodes(&u, &mut ku);
        let e: f64 = u.iter().zip(ku.iter()).map(|(&a, &b)| a * b).sum();
        assert!((e - 64.0).abs() < 1e-9, "energy {e}");
    }

    /// The nodal apply (the one cell sweep over the node table) against
    /// the dense cell stiffness assembled over `cell_nodes`, on data that is
    /// nonzero on the boundary nodes: a Dirichlet cube, and a box periodic
    /// in x (whose node table wraps) and Dirichlet in y and z.
    #[test]
    fn nodal_apply_matches_the_dense_cell_assembly() {
        use crate::mesh::BoundaryCondition::{Dirichlet, Periodic};
        let axis = |n, l, bc| Axis::uniform(n, 0.0, l, bc);
        let box_x = Mesh3d::new(
            [
                axis(3, 6.0, Periodic),
                axis(2, 4.0, Dirichlet),
                axis(2, 5.0, Dirichlet),
            ],
            3,
        );
        for s in [small_space(3), FeSpace::new(box_x)] {
            let x: Vec<f64> = (0..s.nnodes())
                .map(|n| ((n * 7) as f64 * 0.31).sin() + 0.5)
                .collect();
            let mut y = vec![f64::NAN; s.nnodes()];
            s.apply_stiffness_nodes(&x, &mut y);
            assert!(y.iter().all(|v| v.is_finite()), "a node left unwritten");
            let mut dense = vec![0.0; s.nnodes()];
            for (ci, cell) in s.cells().iter().enumerate() {
                let kc = s.dense_cell_stiffness(cell.h);
                let nodes = s.cell_nodes(ci);
                for (l, &nl) in nodes.iter().enumerate() {
                    let kx: f64 = (nodes.iter().enumerate())
                        .map(|(m, &nm)| kc[(l, m)] * x[nm as usize])
                        .sum();
                    dense[nl as usize] += kx;
                }
            }
            let err = y.iter().zip(&dense).map(|(a, b)| (a - b).abs());
            let err = err.fold(0.0, f64::max);
            assert!(err < 1e-12, "{:?}: max error {err:.3e}", s.n_axis());
        }
    }

    #[test]
    fn stiffness_annihilates_constants_periodic() {
        let s = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
        let x = Matrix::from_fn(s.ndofs(), 1, |_, _| 1.0);
        let mut y = Matrix::zeros(s.ndofs(), 1);
        s.apply_stiffness(&x, &mut y, [1.0; 3]);
        assert!(y.norm_fro() < 1e-10);
    }

    #[test]
    fn stiffness_is_symmetric() {
        let s = small_space(2);
        let n = s.ndofs();
        let x = Matrix::from_fn(n, 1, |i, _| ((i * 7) as f64 * 0.13).sin());
        let z = Matrix::from_fn(n, 1, |i, _| ((i * 3) as f64 * 0.41).cos());
        let mut kx = Matrix::zeros(n, 1);
        let mut kz = Matrix::zeros(n, 1);
        s.apply_stiffness(&x, &mut kx, [1.0; 3]);
        s.apply_stiffness(&z, &mut kz, [1.0; 3]);
        let a: f64 = z.col(0).iter().zip(kx.col(0)).map(|(&u, &v)| u * v).sum();
        let b: f64 = x.col(0).iter().zip(kz.col(0)).map(|(&u, &v)| u * v).sum();
        assert!((a - b).abs() < 1e-10 * a.abs().max(1.0));
    }

    #[test]
    fn stiffness_hermitian_with_bloch_phases() {
        let s = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 2));
        let n = s.ndofs();
        let ph = C64::cis(0.7);
        let phases = [ph, C64::ONE, C64::ONE];
        let x = Matrix::from_fn(n, 1, |i, _| {
            C64::new(((i * 5) as f64 * 0.3).sin(), ((i * 11) as f64 * 0.2).cos())
        });
        let z = Matrix::from_fn(n, 1, |i, _| {
            C64::new(((i * 3) as f64 * 0.7).cos(), ((i * 13) as f64 * 0.5).sin())
        });
        let mut kx = Matrix::zeros(n, 1);
        let mut kz = Matrix::zeros(n, 1);
        s.apply_stiffness(&x, &mut kx, phases);
        s.apply_stiffness(&z, &mut kz, phases);
        let a = dft_linalg::dot(z.col(0), kx.col(0));
        let b = dft_linalg::dot(kz.col(0), x.col(0));
        assert!((a - b).abs() < 1e-10, "<z,Kx>={a:?} vs <Kz,x>={b:?}");
    }

    #[test]
    fn plane_wave_rayleigh_quotient_periodic() {
        // u = sin(2 pi x / L): K-energy = (2pi/L)^2 * ||u||_M^2
        let l = 4.0;
        let s = FeSpace::new(FeSpace::periodic_line_mesh(6, l, 4));
        let n = s.ndofs();
        let k = 2.0 * std::f64::consts::PI / l;
        let u: Vec<f64> = (0..n)
            .map(|d| (k * s.node_coord(s.node_of_dof(d))[0]).sin())
            .collect();
        let um = Matrix::from_vec(n, 1, u.clone());
        let mut ku = Matrix::zeros(n, 1);
        s.apply_stiffness(&um, &mut ku, [1.0; 3]);
        let num: f64 = u.iter().zip(ku.col(0)).map(|(&a, &b)| a * b).sum();
        let den: f64 = (0..n)
            .map(|d| {
                let node = s.node_of_dof(d);
                s.mass_diag()[node] * u[d] * u[d]
            })
            .sum();
        let rq = num / den;
        assert!(
            (rq - k * k).abs() < 1e-4 * k * k,
            "RQ {rq} vs k^2 {}",
            k * k
        );
    }

    /// Visiting the cells in two calls (overwrite, then accumulate) adds
    /// the same contributions to each row in the same order as one call,
    /// so the split a distributed rank makes (interior, then boundary) is
    /// invisible in the bits. An accumulating sweep of no cells and any
    /// sweep at zero leading dimension (a rank with no cells) do nothing.
    #[test]
    fn sweep_in_two_calls_matches_one_and_empty_sweeps_do_nothing() {
        let s = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
        let nd = s.ndofs();
        let phases = [C64::cis(0.7), C64::cis(-0.3), C64::ONE];
        let x = Matrix::<C64>::from_fn(nd, 9, |i, j| {
            C64::new(((i * 5 + j * 3) as f64 * 0.3).sin(), (i as f64 * 0.2).cos())
        });
        let mut y = Matrix::<C64>::zeros(nd, 9);
        s.apply_stiffness_scaled(&x, &mut y, phases, s.inv_sqrt_mass(), None);

        let cells: Vec<u32> = (0..s.cells().len() as u32).collect();
        let sweep_part = |cells: &[u32], overwrite: bool, y: &mut [C64]| {
            let part = CellSweep {
                cells,
                slabs: &[RowSlab::whole(nd, cells.len())],
                first_cell: 0,
                cell_dof: &s.cell_dof,
                ld: nd,
                overwrite,
                touch: None,
            };
            let scale = Some(s.inv_sqrt_mass());
            s.sweep_cells(&part, ColMajor, x.as_slice(), y, phases, scale, None);
        };
        let mut y2 = vec![C64::new(7.0, -7.0); nd * 9];
        sweep_part(&cells[..3], true, &mut y2);
        sweep_part(&cells[3..], false, &mut y2);
        sweep_part(&[], false, &mut y2);
        assert!(y2 == y.as_slice());
        // overwriting with no cells is `Y = 0` (a rank whose cells are all
        // boundary cells starts its interior pass this way)
        sweep_part(&[], true, &mut y2);
        assert!(y2.iter().all(|&v| v == C64::ZERO));

        let no_rows = CellSweep {
            cells: &[],
            slabs: &[],
            first_cell: 0,
            cell_dof: &[],
            ld: 0,
            overwrite: true,
            touch: None,
        };
        s.sweep_cells::<C64, _>(&no_rows, ColMajor, &[], &mut [], phases, None, None);
    }

    /// The epilogue sees each column exactly once, after the column's last
    /// cell, with the column's index and whole row range — also on the
    /// accumulating pass of a two-call sweep, and on one that adds no cells.
    #[test]
    fn epilogue_runs_once_per_finished_column_block() {
        let s = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 2));
        let nd = s.ndofs();
        let x = Matrix::<f64>::from_fn(nd, 17, |i, j| ((i * 13 + j * 5) as f64 * 0.19).cos());
        let mut expect = Matrix::<f64>::zeros(nd, 17);
        s.apply_stiffness(&x, &mut expect, [1.0; 3]);
        for j in 0..17 {
            for v in expect.col_mut(j) {
                *v = *v * (j + 1) as f64 + 0.5;
            }
        }
        let seen = std::sync::Mutex::new(Vec::new());
        let epilogue = |j: usize, first_row: usize, ycol: &mut [f64]| {
            seen.lock().unwrap().push((j, first_row, ycol.len()));
            for v in ycol {
                *v = *v * (j + 1) as f64 + 0.5;
            }
        };
        let cells: Vec<u32> = (0..s.cells().len() as u32).collect();
        for split in [cells.len(), 3] {
            let mut y = vec![7.0; nd * 17];
            let (first, rest) = cells.split_at(split);
            for (cells, overwrite, epilogue) in [
                (first, true, None),
                (rest, false, Some(&epilogue as &BlockEpilogue<'_, f64>)),
            ] {
                let part = CellSweep {
                    cells,
                    slabs: &[RowSlab::whole(nd, cells.len())],
                    first_cell: 0,
                    cell_dof: &s.cell_dof,
                    ld: nd,
                    overwrite,
                    touch: None,
                };
                s.sweep_cells(
                    &part,
                    ColMajor,
                    x.as_slice(),
                    &mut y,
                    [1.0; 3],
                    None,
                    epilogue,
                );
            }
            assert!(y == expect.as_slice(), "cells split at {split}");
            let mut pieces = std::mem::take(&mut *seen.lock().unwrap());
            pieces.sort_unstable();
            let columns: Vec<_> = (0..17).map(|j| (j, 0, nd)).collect();
            assert_eq!(pieces, columns);
        }
    }

    /// Cutting the rows of a sweep into 2, 3 or 4 slabs changes no bit of
    /// it: every row still adds up its cells in ascending order from zero,
    /// whichever item owns it. Periodic (odd layer counts put the wrap layer
    /// and the layer below in different slabs), Dirichlet and graded z axes
    /// of 3 to 8 cell layers, degrees 1 to 5, a partial, a half and a full
    /// column block, real, single and complex with Bloch phases, with the
    /// fused input scale and a recurrence update as the epilogue, over a
    /// `y` that held garbage.
    #[test]
    fn row_slab_sweeps_match_the_unsplit_sweep_bitwise() {
        use dft_linalg::iterative::{recurrence_update, Recurrence};

        fn check<T: Scalar>(s: &FeSpace, phases: [T; 3], val: impl Fn(usize, usize) -> T) {
            let nd = s.ndofs();
            let layers = s.mesh.axes[2].ncells();
            for width in [1, 4, 8] {
                let x = Matrix::<T>::from_fn(nd, width, &val);
                let x_prev = Matrix::<T>::from_fn(nd, width, |i, j| val(i + 3, j + 1));
                let k = Recurrence {
                    c: T::Re::from_f64(0.3),
                    alpha: T::Re::from_f64(1.7),
                    beta: T::Re::from_f64(0.6),
                };
                let epilogue = |j: usize, first_row: usize, ycol: &mut [T]| {
                    let rows = first_row..first_row + ycol.len();
                    let prev = &x_prev.col(j)[rows.clone()];
                    recurrence_update(ycol, &x.col(j)[rows], Some(prev), k);
                };
                let run = |ns: usize| {
                    let set = s.row_slabs(ns);
                    assert_eq!(set.slabs.len(), ns);
                    let sweep = CellSweep {
                        cells: &set.cells,
                        slabs: &set.slabs,
                        first_cell: 0,
                        cell_dof: &s.cell_dof,
                        ld: nd,
                        overwrite: true,
                        touch: Some(&set.touch),
                    };
                    let mut y = vec![T::from_f64(7.0); nd * width];
                    let scale = Some(s.inv_sqrt_mass());
                    let xs = x.as_slice();
                    s.sweep_cells(&sweep, ColMajor, xs, &mut y, phases, scale, Some(&epilogue));
                    y
                };
                let whole = run(1);
                for ns in 2..=4usize.min(layers) {
                    assert!(
                        run(ns) == whole,
                        "p = {}, {layers} layers, {width} columns, {ns} slabs",
                        s.mesh.degree
                    );
                }
            }
        }

        let z_axes = |layers: usize| {
            [
                Axis::uniform(layers, 0.0, 5.0, BoundaryCondition::Periodic),
                Axis::uniform(layers, 0.0, 5.0, BoundaryCondition::Dirichlet),
            ]
        };
        let graded = Axis::graded(
            0.0,
            6.0,
            0.7,
            1.6,
            &[2.0],
            2.5,
            BoundaryCondition::Dirichlet,
        );
        assert!(graded.ncells() >= 4, "the graded axis must be splittable");
        for p in 1..=5 {
            let axes = [3, 4, 5, 7, 8].into_iter().flat_map(z_axes);
            for z in axes.chain([graded.clone()]) {
                let xy = |n| Axis::uniform(n, 0.0, 3.0, z.bc());
                let s = FeSpace::new(Mesh3d::new([xy(2), xy(1), z.clone()], p));
                check::<f64>(&s, [1.0; 3], |i, j| ((i * 7 + j * 29) as f64 * 0.37).sin());
                check::<f32>(&s, [1.0; 3], |i, j| ((i * 7 + j * 29) as f32 * 0.37).sin());
                let phases = [C64::cis(0.7), C64::cis(-0.3), C64::cis(1.1)];
                check::<C64>(&s, phases, |i, j| {
                    C64::new(
                        ((i * 5 + j * 3) as f64 * 0.3).sin(),
                        ((i * 11 + j) as f64 * 0.2).cos(),
                    )
                });
            }
        }
    }

    /// What the solver calls: `apply_stiffness` picks its slab count from
    /// the thread cap it runs under and the block's width, and has the same
    /// bits under every cap.
    #[test]
    fn apply_has_the_same_bits_under_any_thread_cap() {
        let s = FeSpace::new(Mesh3d::cube(7, 6.0, 2));
        assert_eq!(s.slab_sets.len(), 3);
        let nd = s.ndofs();
        for width in [1, 4, 9, 17] {
            let x =
                Matrix::<f64>::from_fn(nd, width, |i, j| ((i * 13 + j * 5) as f64 * 0.19).cos());
            let apply = |threads: usize| {
                let mut y = Matrix::<f64>::zeros(nd, width);
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("the thread cap")
                    .install(|| s.apply_stiffness(&x, &mut y, [1.0; 3]));
                y
            };
            let inline = apply(1);
            for threads in [2, 3, 4, 8] {
                assert!(
                    apply(threads) == inline,
                    "{width} columns, {threads} threads"
                );
            }
        }
    }

    /// Column `j` of a 1-, 7-, 8-, 9- and 17-column apply has the same
    /// bits: the lane a column lands in and the columns beside it do not
    /// enter its arithmetic.
    #[test]
    fn column_result_is_independent_of_block_width() {
        let s = FeSpace::new(Mesh3d::cube(2, 4.0, 3));
        let nd = s.ndofs();
        let x = Matrix::<f64>::from_fn(nd, 17, |i, j| ((i * 13 + j * 5) as f64 * 0.19).cos());
        let mut y = Matrix::<f64>::zeros(nd, 17);
        s.apply_stiffness(&x, &mut y, [1.0; 3]);
        for (first, width) in [(0, 1), (11, 1), (3, 7), (5, 8), (2, 9)] {
            let span = first * nd..(first + width) * nd;
            let xw = Matrix::from_vec(nd, width, x.as_slice()[span.clone()].to_vec());
            let mut yw = Matrix::<f64>::zeros(nd, width);
            s.apply_stiffness(&xw, &mut yw, [1.0; 3]);
            assert!(
                yw.as_slice() == &y.as_slice()[span],
                "columns {first}..+{width}"
            );
        }
    }

    /// A block narrower than [`COL_BLOCK`] shares each kernel call with the
    /// next cells of equal `h`, so where a column's cells sit among the
    /// lanes depends on the block width, the mesh and the row slab. None of
    /// it reaches the bits: under thread caps 1, 2 and 4 (1 to 3 row slabs),
    /// column `g` of a 1- to 16-column scaled apply with an epilogue equals
    /// column `g` applied alone (eight cells per call) and inside a full
    /// 8-column block (one cell per call). On a dyadic periodic cube with
    /// Bloch phases (every run full), a Dirichlet cube of 7 cells per axis
    /// (non-dyadic sizes, so runs break often) and a graded mesh.
    #[test]
    fn column_bits_do_not_depend_on_how_cells_share_the_lanes() {
        use dft_linalg::iterative::{recurrence_update, Recurrence};

        fn check<T: Scalar>(s: &FeSpace, phases: [T; 3], val: impl Fn(usize, usize) -> T) {
            const CB: usize = COL_BLOCK;
            let nd = s.ndofs();
            let x = Matrix::<T>::from_fn(nd, 2 * CB, &val);
            let x_prev = Matrix::<T>::from_fn(nd, 2 * CB, |i, j| val(i + 3, j + 1));
            let k = Recurrence {
                c: T::Re::from_f64(0.3),
                alpha: T::Re::from_f64(1.7),
                beta: T::Re::from_f64(0.6),
            };
            // columns g0.. of x, under a thread cap
            let apply = |g0: usize, width: usize, threads: usize| {
                let xw =
                    Matrix::from_vec(nd, width, x.as_slice()[g0 * nd..][..width * nd].to_vec());
                let epilogue = |j: usize, first_row: usize, ycol: &mut [T]| {
                    let rows = first_row..first_row + ycol.len();
                    let prev = &x_prev.col(g0 + j)[rows.clone()];
                    recurrence_update(ycol, &x.col(g0 + j)[rows], Some(prev), k);
                };
                let mut y = Matrix::<T>::from_fn(nd, width, |_, _| T::from_f64(7.0));
                let scale = s.inv_sqrt_mass();
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("the thread cap")
                    .install(|| {
                        s.apply_stiffness_scaled(&xw, &mut y, phases, scale, Some(&epilogue))
                    });
                y
            };
            let alone: Vec<_> = (0..2 * CB).map(|g| apply(g, 1, 1)).collect();
            let blocks = [apply(0, CB, 1), apply(CB, CB, 1)];
            for g in 0..2 * CB {
                assert!(alone[g].col(0) == blocks[g / CB].col(g % CB), "column {g}");
            }
            for threads in [1, 2, 4] {
                for width in [1, 2, 3, 4, 5, 7, 8, 9, 12, 16] {
                    let y = apply(0, width, threads);
                    for g in 0..width {
                        assert!(
                            y.col(g) == alone[g].col(0),
                            "p = {}: column {g} of {width}, {threads} threads",
                            s.mesh.degree
                        );
                    }
                }
            }
        }

        let dyadic = FeSpace::new(Mesh3d::periodic_cube(4, 8.0, 3));
        let phases = [C64::cis(0.7), C64::cis(-0.3), C64::cis(1.1)];
        check::<C64>(&dyadic, phases, |i, j| {
            C64::new(
                ((i * 5 + j * 3) as f64 * 0.3).sin(),
                ((i * 11 + j) as f64 * 0.2).cos(),
            )
        });

        let dirichlet = FeSpace::new(Mesh3d::cube(7, 10.0, 4));
        let h_bits = |c: &Cell| c.h.map(f64::to_bits);
        let sizes: std::collections::HashSet<_> = dirichlet.cells().iter().map(h_bits).collect();
        assert_eq!(sizes.len(), 64, "four cell sizes per axis");
        let breaks = dirichlet
            .cells()
            .windows(2)
            .filter(|w| h_bits(&w[0]) != h_bits(&w[1]))
            .count();
        assert_eq!(breaks, 244, "of 342 adjacent cell pairs");
        let val = |i: usize, j: usize| ((i * 7 + j * 29) as f64 * 0.37).sin();
        check::<f64>(&dirichlet, [1.0; 3], val);

        let graded = Axis::graded(
            0.0,
            6.0,
            0.7,
            1.6,
            &[2.0],
            2.5,
            BoundaryCondition::Dirichlet,
        );
        let uniform = Axis::uniform(2, 0.0, 3.0, BoundaryCondition::Dirichlet);
        let s = FeSpace::new(Mesh3d::new([graded.clone(), uniform, graded], 2));
        check::<f64>(&s, [1.0; 3], val);
    }

    /// Every row a slab owns is reached first by exactly one of its (cell,
    /// local node) pairs and last by exactly one, and no pair reaches it
    /// after the last in sweep order; it is finished exactly once, by the
    /// cell of its last touch or a later one. On a periodic cube, the
    /// non-dyadic Dirichlet cube and a graded mesh, for every slab count.
    #[test]
    fn touch_tables_start_and_finish_every_row_once() {
        let graded = Axis::graded(
            0.0,
            6.0,
            0.7,
            1.6,
            &[2.0],
            2.5,
            BoundaryCondition::Dirichlet,
        );
        let uniform = Axis::uniform(2, 0.0, 3.0, BoundaryCondition::Dirichlet);
        let spaces = [
            FeSpace::new(Mesh3d::periodic_cube(4, 8.0, 3)),
            FeSpace::new(Mesh3d::cube(7, 10.0, 4)),
            FeSpace::new(Mesh3d::new([graded.clone(), uniform, graded], 2)),
        ];
        for s in &spaces {
            let nloc = s.nloc();
            assert!(s.slab_sets.len() >= 2, "more than one slab count");
            for set in &s.slab_sets {
                let t = &set.touch;
                assert_eq!(t.flags.len(), set.cells.len() * nloc);
                assert_eq!(t.finish_at.len(), set.cells.len() + 1);
                for slab in &set.slabs {
                    let what = format!("p = {}, {} slabs", s.mesh.degree, set.slabs.len());
                    let (mut first, mut last) = (vec![None; slab.rows], vec![None; slab.rows]);
                    let mut seen = vec![false; slab.rows];
                    for i in slab.cells.clone() {
                        let dofs = s.cell_dofs(set.cells[i] as usize);
                        for (l, &d) in dofs.iter().enumerate() {
                            let r = (d as usize).wrapping_sub(slab.first_row);
                            if r >= slab.rows {
                                continue;
                            }
                            let flags = t.flags[i * nloc + l];
                            assert!(last[r].is_none(), "{what}: row {r} touched after its last");
                            if flags & FIRST_TOUCH != 0 {
                                assert!(!seen[r], "{what}: row {r} has a second first touch");
                                first[r] = Some(i);
                            }
                            assert!(
                                first[r].is_some(),
                                "{what}: row {r} touched before its first"
                            );
                            if flags & LAST_TOUCH != 0 {
                                last[r] = Some(i);
                            }
                            seen[r] = true;
                        }
                    }
                    assert!(
                        last.iter().all(Option::is_some),
                        "{what}: a row without a last touch"
                    );
                    let mut finished = vec![false; slab.rows];
                    for i in slab.cells.clone() {
                        let runs = t.finish_at[i] as usize..t.finish_at[i + 1] as usize;
                        for &(r0, n) in &t.finish[runs] {
                            for row in r0 as usize..(r0 + n) as usize {
                                let r = row - slab.first_row;
                                assert!(
                                    r < slab.rows,
                                    "{what}: row {row} finished by another slab"
                                );
                                assert!(!finished[r], "{what}: row {row} finished twice");
                                assert!(last[r] <= Some(i), "{what}: row {row} finished early");
                                finished[r] = true;
                            }
                        }
                    }
                    assert!(finished.iter().all(|&f| f), "{what}: a row never finished");
                }
            }
        }
    }

    /// A lane-panel apply — rows stored at their first touch, finished once
    /// their last cell has passed — has the bits of the column-major apply
    /// with the same epilogue, a recurrence update: at every width from 1
    /// to 8 lanes (the narrow ones sharing kernel calls), under thread caps
    /// 1, 2 and 4 (1 to 3 row slabs), real, single and complex with Bloch
    /// phases, on a periodic cube, a Dirichlet cube and a graded mesh, over
    /// outputs that held garbage.
    #[test]
    fn panel_sweeps_match_column_sweeps_bitwise() {
        use dft_linalg::iterative::{recurrence_update, Recurrence};

        fn check<T: Scalar>(s: &FeSpace, phases: [T; 3], val: impl Fn(usize, usize) -> T) {
            let nd = s.ndofs();
            let k = Recurrence {
                c: T::Re::from_f64(0.3),
                alpha: T::Re::from_f64(1.7),
                beta: T::Re::from_f64(0.6),
            };
            for width in 1..=COL_BLOCK {
                let x = Matrix::<T>::from_fn(nd, width, &val);
                let x_prev = Matrix::<T>::from_fn(nd, width, |i, j| val(i + 3, j + 1));
                let (mut xp, mut pp) = (LanePanel::zeros(0, 0), LanePanel::zeros(0, 0));
                xp.load_cols(x.as_slice(), (nd, width));
                pp.load_cols(x_prev.as_slice(), (nd, width));
                let column = |j: usize, first_row: usize, ycol: &mut [T]| {
                    let rows = first_row..first_row + ycol.len();
                    let prev = &x_prev.col(j)[rows.clone()];
                    recurrence_update(ycol, &x.col(j)[rows], Some(prev), k);
                };
                let panel = |_: usize, i0: usize, rows: &mut [T]| {
                    for (i, row) in (i0..).zip(rows.chunks_exact_mut(width)) {
                        recurrence_update(row, xp.row(i), Some(pp.row(i)), k);
                    }
                };
                let scale = s.inv_sqrt_mass();
                for threads in [1, 2, 4] {
                    let cap = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
                    let cap = cap.expect("the thread cap");
                    let mut y = Matrix::<T>::from_fn(nd, width, |_, _| T::from_f64(7.0));
                    let mut yp = LanePanel::zeros(nd, width);
                    yp.as_mut_slice().fill(T::from_f64(-3.0));
                    cap.install(|| {
                        s.apply_stiffness_scaled(&x, &mut y, phases, scale, Some(&column));
                        s.apply_panel_scaled(&xp, &mut yp, phases, scale, Some(&panel));
                    });
                    let mut lane = vec![T::ZERO; nd];
                    for j in 0..width {
                        yp.store_lane(j, &mut lane);
                        assert!(
                            lane == y.col(j),
                            "p = {}: lane {j} of {width}, {threads} threads",
                            s.mesh.degree
                        );
                    }
                }
            }
        }

        let periodic = FeSpace::new(Mesh3d::periodic_cube(4, 8.0, 3));
        let phases = [C64::cis(0.7), C64::cis(-0.3), C64::cis(1.1)];
        check::<C64>(&periodic, phases, |i, j| {
            C64::new(
                ((i * 5 + j * 3) as f64 * 0.3).sin(),
                ((i * 11 + j) as f64 * 0.2).cos(),
            )
        });
        check::<f64>(&periodic, [1.0; 3], |i, j| {
            ((i * 7 + j * 29) as f64 * 0.37).sin()
        });
        let dirichlet = FeSpace::new(Mesh3d::cube(6, 10.0, 2));
        check::<f32>(&dirichlet, [1.0; 3], |i, j| {
            ((i * 7 + j * 29) as f32 * 0.37).sin()
        });
        let graded = Axis::graded(
            0.0,
            6.0,
            0.7,
            1.6,
            &[2.0],
            2.5,
            BoundaryCondition::Dirichlet,
        );
        let uniform = Axis::uniform(2, 0.0, 3.0, BoundaryCondition::Dirichlet);
        let s = FeSpace::new(Mesh3d::new([graded.clone(), uniform, graded], 2));
        check::<f64>(&s, [1.0; 3], |i, j| ((i * 7 + j * 29) as f64 * 0.37).sin());
    }

    /// A panel loads columns as lanes and gives them back, keeps the lanes
    /// it is told to in order, and reuses its buffer.
    #[test]
    fn lane_panel_loads_stores_and_narrows() {
        let (rows, lanes) = (5, 6);
        let cols = Matrix::<f64>::from_fn(rows, lanes, |i, j| (10 * j + i) as f64);
        let mut p = LanePanel::zeros(0, 0);
        p.load_cols(cols.as_slice(), (rows, lanes));
        assert_eq!((p.rows(), p.lanes()), (rows, lanes));
        assert_eq!(p.row(2), [2.0, 12.0, 22.0, 32.0, 42.0, 52.0]);
        let mut col = vec![0.0; rows];
        p.store_lane(4, &mut col);
        assert_eq!(col, cols.col(4));
        let ptr = p.as_slice().as_ptr();
        p.retain_lanes(&[1, 3, 4]);
        assert_eq!((p.rows(), p.lanes()), (rows, 3));
        for i in 0..rows {
            assert_eq!(
                p.row(i),
                [(10 + i) as f64, (30 + i) as f64, (40 + i) as f64]
            );
        }
        p.resize(rows, lanes);
        assert_eq!(p.as_slice().as_ptr(), ptr, "the buffer is kept");
        p.retain_lanes(&[]);
        assert_eq!(p.lanes(), 0);
    }

    /// Every per-degree instance of the cell kernel has the bits of the
    /// same body at run-time `n1`, whatever the tile: a line's outputs are
    /// independent chains, each summing its inputs in ascending order
    /// (tile 1 is the loop order the kernel had before it was tiled; tile 3
    /// and the fallback's [`COL_BLOCK`] leave ragged last tiles). Checked on
    /// a gathered cell with wraps on all three axes, so the complex lanes
    /// carry non-trivial Bloch phases.
    #[test]
    fn per_degree_kernel_instances_match_the_runtime_body_bitwise() {
        fn check<T: Scalar>(p: usize, phases: [T; 3], val: impl Fn(usize, usize) -> T) {
            const CB: usize = COL_BLOCK;
            let s = FeSpace::new(Mesh3d::new(
                [
                    Axis::uniform(2, 0.0, 3.0, BoundaryCondition::Periodic),
                    Axis::uniform(2, 0.0, 4.0, BoundaryCondition::Periodic),
                    Axis::uniform(2, 0.0, 5.0, BoundaryCondition::Periodic),
                ],
                p,
            ));
            let (nd, nloc, n1) = (s.ndofs(), s.nloc(), std::hint::black_box(p + 1));
            let x = Matrix::<T>::from_fn(nd, CB, val);
            let ci = s.cells().len() - 1;
            let h = s.cells()[ci].h;
            let tab = phase_products(phases, false);
            let mut loc = vec![T::ZERO; nloc * CB];
            let scale = Some(s.inv_sqrt_mass());
            let (dofs, wraps) = (s.cell_dofs(ci), s.cell_wraps(ci));
            gather_block::<T, ColMajor>(
                dofs,
                wraps,
                x.as_slice(),
                nd,
                CB,
                0..CB,
                &tab,
                scale,
                &mut loc,
            );
            assert!(wraps.contains(&7), "corner cell wraps on every axis");

            let run = |kernel: &dyn Fn(&[T], &mut [T])| {
                let mut out = vec![T::from_f64(0.25); nloc * CB];
                kernel(&loc, &mut out);
                out
            };
            let fixed = run(&|x, y| s.cell_stiffness_apply_block(h, x, y));
            let tile1 = run(&|x, y| cell_kernel::<T, 1, false>(n1, &s.basis, h, x, y));
            let tile3 = run(&|x, y| cell_kernel::<T, 3, false>(n1, &s.basis, h, x, y));
            let tile8 = run(&|x, y| cell_kernel::<T, CB, false>(n1, &s.basis, h, x, y));
            assert!(tile1 == fixed, "p = {p}: tile 1 at run-time n1");
            assert!(tile3 == fixed, "p = {p}: tile 3 at run-time n1");
            assert!(tile8 == fixed, "p = {p}: tile 8 at run-time n1");
            // the storing form over garbage is the accumulating one from zero
            let mut from_zero = vec![T::ZERO; nloc * CB];
            s.cell_stiffness_apply_block(h, &loc, &mut from_zero);
            let stored = run(&|x, y| s.cell_block::<T, true>(h, x, y));
            let stored1 = run(&|x, y| cell_kernel::<T, 1, true>(n1, &s.basis, h, x, y));
            assert!(stored == from_zero, "p = {p}: the first direction stores");
            assert!(
                stored1 == from_zero,
                "p = {p}: tile 1 stores at run-time n1"
            );
        }
        for p in 1..=8 {
            check::<f64>(p, [1.0; 3], |i, j| ((i * 7 + j * 29) as f64 * 0.37).sin());
            check::<f32>(p, [1.0; 3], |i, j| ((i * 7 + j * 29) as f32 * 0.37).sin());
            let phases = [C64::cis(0.7), C64::cis(-0.3), C64::cis(1.1)];
            check::<C64>(p, phases, |i, j| {
                C64::new(
                    ((i * 5 + j * 3) as f64 * 0.3).sin(),
                    ((i * 11 + j) as f64 * 0.2).cos(),
                )
            });
        }
    }

    #[test]
    fn dense_cell_operator_matches_sumfac() {
        let s = small_space(2);
        let n = s.ndofs();
        let x = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j * 29) as f64 * 0.23).sin());
        let mut y1 = Matrix::zeros(n, 3);
        s.apply_stiffness(&x, &mut y1, [1.0; 3]);
        // gather -> dense K_c -> scatter-add, cell by cell
        let mut y2 = Matrix::zeros(n, 3);
        let mut loc = Matrix::zeros(s.nloc(), 1);
        for cell in s.cells() {
            let kc = s.dense_cell_stiffness(cell.h);
            for j in 0..3 {
                s.gather_cell_dofs(cell, x.col(j), [1.0; 3], loc.col_mut(0));
                let out = matmul(&kc, Op::None, &loc, Op::None);
                s.scatter_add_cell_dofs(cell, out.col(0), [1.0; 3], y2.col_mut(j));
            }
        }
        assert!(y1.max_abs_diff(&y2) < 1e-10);
    }

    /// `K` is real, so a complex column costs two real columns' flops.
    #[test]
    fn complex_stiffness_flops_are_two_real_columns() {
        let s = small_space(3);
        assert_eq!(s.stiffness_apply_flops::<f64>(1), 3 * 64 * 5 * 2 * 8);
        assert_eq!(
            s.stiffness_apply_flops::<C64>(3),
            2 * s.stiffness_apply_flops::<f64>(3)
        );
    }

    #[test]
    fn stiffness_diagonal_matches_operator() {
        let s = small_space(2);
        let n = s.ndofs();
        let diag = s.stiffness_diagonal();
        for probe in [0usize, n / 2, n - 1] {
            let mut e = Matrix::zeros(n, 1);
            e[(probe, 0)] = 1.0;
            let mut ke = Matrix::zeros(n, 1);
            s.apply_stiffness(&e, &mut ke, [1.0; 3]);
            assert!((ke[(probe, 0)] - diag[probe]).abs() < 1e-10);
        }
    }

    impl FeSpace {
        /// test helper: periodic-x box, Dirichlet y/z, thin in y/z
        fn periodic_line_mesh(nx: usize, l: f64, p: usize) -> Mesh3d {
            Mesh3d::new(
                [
                    Axis::uniform(nx, 0.0, l, BoundaryCondition::Periodic),
                    Axis::uniform(1, 0.0, l, BoundaryCondition::Periodic),
                    Axis::uniform(1, 0.0, l, BoundaryCondition::Periodic),
                ],
                p,
            )
        }
    }
}

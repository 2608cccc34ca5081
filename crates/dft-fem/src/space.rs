//! The global FE space: DoF numbering, diagonal GLL mass (Löwdin
//! orthonormalization), and the cell-level operator kernels.
//!
//! The Laplacian is applied by tensor **sum-factorization**
//! ([`FeSpace::apply_stiffness`]: memory-free, one blocked cell sweep for
//! the Poisson solves, the Hamiltonian and every distributed rank, whose
//! parallel items are column blocks × [`RowSlab`]s). The
//! dense per-cell matrices of the paper's `xGEMMStridedBatched` path
//! (Sec. 5.4.1, `9^3 x 9^3` at p = 8) are available from
//! [`FeSpace::dense_cell_stiffness`]; the batched-GEMM operator built on
//! them lives with the kernel benchmarks that compare the two.
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
/// lists back to back, and the slabs indexing into them.
struct SlabSet {
    cells: Vec<u32>,
    slabs: Vec<RowSlab>,
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
}

/// What [`FeSpace::sweep_cells`] runs on each column piece of an item once
/// the item's last cell has been scattered: `(column, first row, those
/// rows of y)`, called from the thread that swept them.
pub type BlockEpilogue<'a, T> = dyn Fn(usize, usize, &mut [T]) + Sync + 'a;

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

/// Gather one cell's `cb` block columns into the interleaved local buffer
/// (`loc[l*COL_BLOCK + t]` is local node `l`, lane `t`), optionally fusing
/// a per-row real scale. The cell owns the lanes `lanes`: its columns land
/// in the first `cb` of them and the rest are zeroed. A cell alone owns
/// `0..COL_BLOCK`; the cells sharing a kernel call own consecutive
/// `cb`-lane groups, the last of them also the unused lanes after its own.
/// Each node is written through a [`COL_BLOCK`]-wide window that starts at
/// the cell's first lane, so `loc` must extend `lanes.start` values past
/// its last node: a window of fixed width lets the per-lane loops unroll
/// (through a slice of just the cell's own lanes they do not, and an
/// 8-column apply ran about a fifth slower).
#[allow(clippy::too_many_arguments)]
fn gather_block<T: Scalar>(
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
                    dst[t] = xblk[t * ld + du];
                }
            }
            Some(s) => {
                let sc = <T::Re as Real>::from_f64(s[du]);
                for t in 0..cb {
                    dst[t] = xblk[t * ld + du].scale(sc);
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

/// Scatter-add one cell's interleaved lanes `lane0..lane0 + cb` into a
/// slab's rows of the block's `cb` columns (`ycols[t]` is rows
/// `first_row..` of block column `t`), conjugate phases on wraps (adjoint
/// of [`gather_block`], and read through the same fixed-width window, so
/// `out` extends `lane0` values past its last node). Local nodes on
/// another slab's rows are dropped: that slab sweeps this cell too.
// dftlint:hot
fn scatter_block<T: Scalar>(
    dofs: &[i32],
    wraps: &[u8],
    out: &[T],
    lane0: usize,
    tabc: &[T; 8],
    ycols: &mut [&mut [T]],
    first_row: usize,
) {
    const CB: usize = COL_BLOCK;
    let rows = ycols.first().map_or(0, |c| c.len());
    assert!(out.len() >= dofs.len() * CB + lane0, "a window per node");
    let windows = out[lane0..].chunks_exact(CB);
    for ((&d, &w), src) in dofs.iter().zip(wraps).zip(windows) {
        // an eliminated node (-1) and a row below the slab both wrap past
        // `rows`
        let r = (d as usize).wrapping_sub(first_row);
        if r >= rows {
            continue;
        }
        if w == 0 {
            for (ycol, &v) in ycols.iter_mut().zip(src) {
                ycol[r] += v;
            }
        } else {
            let ph = tabc[w as usize];
            for (ycol, &v) in ycols.iter_mut().zip(src) {
                ycol[r] += v * ph;
            }
        }
    }
}

/// The body of [`FeSpace::cell_stiffness_apply_block`]: `y_loc += K_c x_loc`
/// on [`COL_BLOCK`] interleaved lanes for a box of size `h`, `n1` nodes per
/// axis. Each 1-D line of each direction (x, then y, then z) computes its
/// outputs `TILE` at a time: one pass over the line's inputs feeds `TILE`
/// independent accumulators, then each lands in `y_loc` with one scaled
/// add. Every output still sums its `n1` terms in ascending input order, so
/// the bits do not depend on `TILE`. Called with `n1 == TILE` as literals
/// (and inlined) the loops unroll and a line is one tile.
// dftlint:hot
#[inline(always)]
fn cell_kernel<T: Scalar, const TILE: usize>(
    n1: usize,
    basis: &Lagrange1d,
    h: [f64; 3],
    x_loc: &[T],
    y_loc: &mut [T],
) {
    const CB: usize = COL_BLOCK;
    let n2 = n1 * n1;
    let khat = &basis.khat[..n2];
    let w = &basis.weights[..n1];
    let x_loc = &x_loc[..n2 * n1 * CB];
    let y_loc = &mut y_loc[..n2 * n1 * CB];
    // per direction: its local stride, the strides of the two other axes
    // (ascending), and the metric factor of the box
    let dirs = [
        (1, n1, n2, h[1] * h[2] / (2.0 * h[0])),
        (n1, 1, n2, h[0] * h[2] / (2.0 * h[1])),
        (n2, 1, n1, h[0] * h[1] / (2.0 * h[2])),
    ];
    for (stride, su, sv, metric) in dirs {
        for v in 0..n1 {
            for u in 0..n1 {
                let base = u * su + v * sv;
                let scale = T::Re::from_f64(metric * w[u] * w[v]);
                for i0 in (0..n1).step_by(TILE) {
                    let tile = TILE.min(n1 - i0);
                    let mut acc = [[T::ZERO; CB]; TILE];
                    for j in 0..n1 {
                        let l = base + j * stride;
                        let xv: [T; CB] =
                            x_loc[l * CB..(l + 1) * CB].try_into().expect("lane width");
                        for (ii, a) in acc[..tile].iter_mut().enumerate() {
                            T::lane_fma(a, &xv, T::Re::from_f64(khat[(i0 + ii) * n1 + j]));
                        }
                    }
                    for (ii, a) in acc[..tile].iter().enumerate() {
                        let l = base + (i0 + ii) * stride;
                        T::lane_fma(&mut y_loc[l * CB..(l + 1) * CB], a, scale);
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
        let mut dof_of_node = vec![-1i64; nnodes];
        let mut node_of_dof = Vec::new();
        let mut idx = 0i64;
        for iz in 0..n_axis[2] {
            for iy in 0..n_axis[1] {
                for ix in 0..n_axis[0] {
                    let n = ix + n_axis[0] * (iy + n_axis[1] * iz);
                    if !is_boundary(ix, iy, iz) {
                        dof_of_node[n] = idx;
                        node_of_dof.push(n as u32);
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
                        cell_node.push(node as u32);
                        cell_dof.push(dof_of_node[node] as i32);
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
    /// per slab boundary.
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
            set.slabs.push(RowSlab {
                first_row: plane_row[c0 * p],
                rows: plane_row[z1] - plane_row[c0 * p],
                cells: start..set.cells.len(),
            });
            c0 = c1;
        }
        set
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

    /// Seed-era gather that re-derives the `axis_node` arithmetic per call —
    /// retained (with [`Self::scatter_add_cell_dofs_ref`]) as the
    /// correctness oracle for the precomputed tables and as the benchmark
    /// baseline of [`Self::apply_stiffness_reference`].
    fn gather_cell_dofs_ref<T: Scalar>(
        &self,
        cell: &Cell,
        x_dofs: &[T],
        phases: [T; 3],
        out: &mut [T],
    ) {
        let p = self.mesh.degree;
        let n1 = p + 1;
        let mut idx = 0;
        for c in 0..n1 {
            let (gz, wz) = Self::axis_node(cell.c[2], c, p, self.n_axis[2], self.periodic[2]);
            for b in 0..n1 {
                let (gy, wy) = Self::axis_node(cell.c[1], b, p, self.n_axis[1], self.periodic[1]);
                for a in 0..n1 {
                    let (gx, wx) =
                        Self::axis_node(cell.c[0], a, p, self.n_axis[0], self.periodic[0]);
                    let n = gx + self.n_axis[0] * (gy + self.n_axis[1] * gz);
                    let d = self.dof_of_node[n];
                    let mut v = if d >= 0 { x_dofs[d as usize] } else { T::ZERO };
                    if wx {
                        v *= phases[0];
                    }
                    if wy {
                        v *= phases[1];
                    }
                    if wz {
                        v *= phases[2];
                    }
                    out[idx] = v;
                    idx += 1;
                }
            }
        }
    }

    /// Seed-era scatter counterpart of [`Self::gather_cell_dofs_ref`].
    fn scatter_add_cell_dofs_ref<T: Scalar>(
        &self,
        cell: &Cell,
        local: &[T],
        phases: [T; 3],
        y_dofs: &mut [T],
    ) {
        let p = self.mesh.degree;
        let n1 = p + 1;
        let mut idx = 0;
        for c in 0..n1 {
            let (gz, wz) = Self::axis_node(cell.c[2], c, p, self.n_axis[2], self.periodic[2]);
            for b in 0..n1 {
                let (gy, wy) = Self::axis_node(cell.c[1], b, p, self.n_axis[1], self.periodic[1]);
                for a in 0..n1 {
                    let (gx, wx) =
                        Self::axis_node(cell.c[0], a, p, self.n_axis[0], self.periodic[0]);
                    let n = gx + self.n_axis[0] * (gy + self.n_axis[1] * gz);
                    let d = self.dof_of_node[n];
                    if d >= 0 {
                        let mut v = local[idx];
                        if wx {
                            v *= phases[0].conj();
                        }
                        if wy {
                            v *= phases[1].conj();
                        }
                        if wz {
                            v *= phases[2].conj();
                        }
                        y_dofs[d as usize] += v;
                    }
                    idx += 1;
                }
            }
        }
    }

    /// Sum-factorized application of the reference-cell stiffness to local
    /// values: `y_loc += K_c x_loc` for an axis-aligned box of size `h`.
    pub fn cell_stiffness_apply<T: Scalar>(&self, h: [f64; 3], x_loc: &[T], y_loc: &mut [T]) {
        let n1 = self.mesh.degree + 1;
        let b = &self.basis;
        let sx = h[1] * h[2] / (2.0 * h[0]);
        let sy = h[0] * h[2] / (2.0 * h[1]);
        let sz = h[0] * h[1] / (2.0 * h[2]);
        // x-direction: contiguous stride 1
        for c in 0..n1 {
            for bb in 0..n1 {
                let base = n1 * (bb + n1 * c);
                let scale = sx * b.weights[bb] * b.weights[c];
                for i in 0..n1 {
                    let mut acc = T::ZERO;
                    for j in 0..n1 {
                        acc += x_loc[base + j].scale(T::Re::from_f64(b.k(i, j)));
                    }
                    y_loc[base + i] += acc.scale(T::Re::from_f64(scale));
                }
            }
        }
        // y-direction: stride n1
        for c in 0..n1 {
            for a in 0..n1 {
                let base = a + n1 * n1 * c;
                let scale = sy * b.weights[a] * b.weights[c];
                for i in 0..n1 {
                    let mut acc = T::ZERO;
                    for j in 0..n1 {
                        acc += x_loc[base + j * n1].scale(T::Re::from_f64(b.k(i, j)));
                    }
                    y_loc[base + i * n1] += acc.scale(T::Re::from_f64(scale));
                }
            }
        }
        // z-direction: stride n1*n1
        let n2 = n1 * n1;
        for bb in 0..n1 {
            for a in 0..n1 {
                let base = a + n1 * bb;
                let scale = sz * b.weights[a] * b.weights[bb];
                for i in 0..n1 {
                    let mut acc = T::ZERO;
                    for j in 0..n1 {
                        acc += x_loc[base + j * n2].scale(T::Re::from_f64(b.k(i, j)));
                    }
                    y_loc[base + i * n2] += acc.scale(T::Re::from_f64(scale));
                }
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
        self.apply_stiffness_impl(x, y, phases, None, None);
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
        assert_eq!(row_scale.len(), self.ndofs);
        self.apply_stiffness_impl(x, y, phases, Some(row_scale), epilogue);
    }

    fn apply_stiffness_impl<T: Scalar>(
        &self,
        x: &Matrix<T>,
        y: &mut Matrix<T>,
        phases: [T; 3],
        row_scale: Option<&[f64]>,
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        assert_eq!(x.nrows(), self.ndofs);
        assert_eq!(y.shape(), x.shape());
        // fewer column blocks than threads: cut the rows as well, into as
        // many slabs as there are threads per block (at least two cell
        // layers each, which `slab_sets` stops at)
        let blocks = x.ncols().div_ceil(COL_BLOCK).max(1);
        let ns = (rayon::current_num_threads() / blocks).clamp(1, self.slab_sets.len());
        let set = &self.slab_sets[ns - 1];
        let all = CellSweep {
            cells: &set.cells,
            slabs: &set.slabs,
            first_cell: 0,
            cell_dof: &self.cell_dof,
            ld: self.ndofs,
            overwrite: true,
        };
        let (x, y) = (x.as_slice(), y.as_mut_slice());
        self.sweep_cells(&all, x, y, phases, row_scale, epilogue);
    }

    /// The one cell sweep: `Y += K diag(s) X` (or `Y =`, see
    /// [`CellSweep::overwrite`]) restricted to the cells of `sweep`, on
    /// column-major `x` / `y` of leading dimension `sweep.ld` (`row_scale`,
    /// indexed like the rows, is the optional fused `s`).
    ///
    /// One rayon item per ([`COL_BLOCK`] columns, [`RowSlab`]): it walks the
    /// slab's cells through an interleaved-lane local buffer — gather from
    /// the shared `x` (DoF table, Bloch phase on wraps, scale) →
    /// [`Self::cell_stiffness_apply_block`] → scatter-add (conjugate phase)
    /// into its own rows of its own columns only. A block of `cb` columns
    /// narrower than the lanes takes up to `COL_BLOCK / cb` consecutive
    /// cells of bit-equal size per kernel call, `cb` lanes each, and
    /// scatters them in the slab's order. Each lane's arithmetic is
    /// independent of the block, the lane and the cells beside it, and each
    /// row meets its cells in the sweep's order whichever slab owns it, so
    /// a result depends neither on how many columns ride along nor on how
    /// the rows are cut. `epilogue(j, first_row, rows of y)` then runs on each
    /// of the item's column pieces, right after the item's last scatter,
    /// while they are still in cache — whatever the caller does to the
    /// swept result element by element costs no further pass over `y`.
    /// Accumulating an empty cell list with no epilogue, or sweeping at zero
    /// leading dimension, is a no-op.
    // dftlint:hot
    pub fn sweep_cells<T: Scalar>(
        &self,
        sweep: &CellSweep<'_>,
        x: &[T],
        y: &mut [T],
        phases: [T; 3],
        row_scale: Option<&[f64]>,
        epilogue: Option<&BlockEpilogue<'_, T>>,
    ) {
        const CB: usize = COL_BLOCK;
        let ld = sweep.ld;
        assert_eq!(x.len(), y.len());
        if ld == 0 || (sweep.cells.is_empty() && !sweep.overwrite && epilogue.is_none()) {
            return;
        }
        assert_eq!(y.len() % ld, 0);
        if let Some(s) = row_scale {
            assert_eq!(s.len(), ld);
        }
        let tiled = sweep.slabs.iter().try_fold(0, |row, slab| {
            (slab.first_row == row && slab.cells.end <= sweep.cells.len())
                .then_some(row + slab.rows)
        });
        assert_eq!(tiled, Some(ld), "the row slabs must tile 0..ld in order");
        let tab = phase_products(phases, false);
        let tabc = phase_products(phases, true);
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
                sweep.slabs.iter().map(move |slab| {
                    let ycols: [&mut [T]; CB] = std::array::from_fn(|t| {
                        let col = std::mem::take(&mut cols[t]);
                        let (head, tail) = col.split_at_mut(slab.rows.min(col.len()));
                        cols[t] = tail;
                        head
                    });
                    (jb * CB, cb, slab, ycols)
                })
            })
            .into_par_iter()
            .for_each(|(j0, cb, slab, mut ycols)| {
                let xblk = &x[j0 * ld..(j0 + cb) * ld];
                let ycols = &mut ycols[..cb];
                self.sweep_item(sweep, slab, xblk, ycols, (&tab, &tabc), row_scale);
                if let Some(epilogue) = epilogue {
                    for (t, ycol) in ycols.iter_mut().enumerate() {
                        epilogue(j0 + t, slab.first_row, ycol);
                    }
                }
            });
    }

    /// One item of [`Self::sweep_cells`]: the cells of `slab` on the block
    /// columns `xblk`, into the slab's rows of those columns. Out of line so
    /// that the cell loop is compiled once per scalar type, not once per
    /// closure it would be inlined into: inlined, `scf-wide` moved by ± 5%
    /// with unrelated edits to the callers.
    // dftlint:hot
    #[inline(never)]
    fn sweep_item<T: Scalar>(
        &self,
        sweep: &CellSweep<'_>,
        slab: &RowSlab,
        xblk: &[T],
        ycols: &mut [&mut [T]],
        (tab, tabc): (&[T; 8], &[T; 8]),
        row_scale: Option<&[f64]>,
    ) {
        const CB: usize = COL_BLOCK;
        let (nloc, ld, cb) = (self.nloc, sweep.ld, ycols.len());
        if sweep.overwrite {
            for ycol in ycols.iter_mut() {
                ycol.fill(T::ZERO);
            }
        }
        dft_linalg::pack::with_scratch::<T, _>(|loc, out| {
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
            let h_bits = |row: u32| self.cells[cell_of(row)].h.map(f64::to_bits);
            let cells = &sweep.cells[slab.cells.start..slab.cells.end];
            // runs of consecutive cells of bit-equal `h` share one kernel
            // call, `cb` lanes each: the kernel's arithmetic per lane depends
            // on `h` alone, so a lane has the bits of its cell swept alone
            for same_h in cells.chunk_by(|&a, &b| h_bits(a) == h_bits(b)) {
                for run in same_h.chunks(CB / cb) {
                    for (k, &row) in run.iter().enumerate() {
                        let (dofs, wraps) = table(row);
                        let end = if k + 1 == run.len() { CB } else { (k + 1) * cb };
                        gather_block(dofs, wraps, xblk, ld, cb, k * cb..end, tab, row_scale, loc);
                    }
                    out.fill(T::ZERO);
                    self.cell_stiffness_apply_block(self.cells[cell_of(run[0])].h, loc, out);
                    // in sweep order, so each row adds its cells in that order
                    for (k, &row) in run.iter().enumerate() {
                        let (dofs, wraps) = table(row);
                        scatter_block(dofs, wraps, out, k * cb, tabc, ycols, slab.first_row);
                    }
                }
            }
        });
    }

    /// Sum-factorized stiffness on [`COL_BLOCK`] interleaved column lanes
    /// (`x_loc[l * COL_BLOCK + t]` is local node `l`, block column `t`):
    /// the same three directional sweeps as [`Self::cell_stiffness_apply`],
    /// with each accumulator widened to a fixed lane array and the
    /// column-blocked inner products running through `Scalar::lane_fma`
    /// (packed FMA for f64/f32 via the `dft_linalg::simd` engine). Per lane
    /// the contraction order is identical to the single-column kernel; the
    /// fused multiply-adds round once per term instead of twice.
    ///
    /// One body (`cell_kernel`), compiled once per `n1 = degree + 1` up
    /// to 9 so its loops unroll and a 1-D line's `n1` accumulators live in
    /// registers; beyond that the same body runs at run-time `n1`.
    pub fn cell_stiffness_apply_block<T: Scalar>(&self, h: [f64; 3], x_loc: &[T], y_loc: &mut [T]) {
        let b = &self.basis;
        match b.n() {
            2 => cell_kernel::<T, 2>(2, b, h, x_loc, y_loc),
            3 => cell_kernel::<T, 3>(3, b, h, x_loc, y_loc),
            4 => cell_kernel::<T, 4>(4, b, h, x_loc, y_loc),
            5 => cell_kernel::<T, 5>(5, b, h, x_loc, y_loc),
            6 => cell_kernel::<T, 6>(6, b, h, x_loc, y_loc),
            7 => cell_kernel::<T, 7>(7, b, h, x_loc, y_loc),
            8 => cell_kernel::<T, 8>(8, b, h, x_loc, y_loc),
            9 => cell_kernel::<T, 9>(9, b, h, x_loc, y_loc),
            n1 => cell_kernel::<T, COL_BLOCK>(n1, b, h, x_loc, y_loc),
        }
    }

    /// The seed per-column stiffness apply (per-call `axis_node`
    /// re-derivation, per-column scratch allocation) — retained as the
    /// golden-value oracle for [`Self::apply_stiffness`] and as the "before"
    /// baseline of the kernel benchmarks.
    // dftlint:allow(L009, reason="golden-value oracle of dft-fem/tests/golden_stiffness.rs and space::tests")
    pub fn apply_stiffness_reference<T: Scalar>(
        &self,
        x: &Matrix<T>,
        y: &mut Matrix<T>,
        phases: [T; 3],
    ) {
        assert_eq!(x.nrows(), self.ndofs);
        assert_eq!(y.shape(), x.shape());
        let nloc = self.nloc;
        let nd = self.ndofs;
        let x_data = x.as_slice();
        y.as_mut_slice()
            .par_chunks_mut(nd)
            .enumerate()
            .for_each(|(j, ycol)| {
                ycol.fill(T::ZERO);
                let xcol = &x_data[j * nd..(j + 1) * nd];
                let mut loc = vec![T::ZERO; nloc];
                let mut out = vec![T::ZERO; nloc];
                for cell in &self.cells {
                    self.gather_cell_dofs_ref(cell, xcol, phases, &mut loc);
                    out.fill(T::ZERO);
                    self.cell_stiffness_apply(cell.h, &loc, &mut out);
                    self.scatter_add_cell_dofs_ref(cell, &out, phases, ycol);
                }
            });
    }

    /// `y = K x` over *full nodal* vectors, including contributions from
    /// boundary nodes (needed for inhomogeneous Dirichlet lifts in the
    /// Poisson solves). Output is accumulated over all nodes.
    pub fn apply_stiffness_nodes(&self, x_nodes: &[f64], y_nodes: &mut [f64]) {
        assert_eq!(x_nodes.len(), self.nnodes);
        assert_eq!(y_nodes.len(), self.nnodes);
        y_nodes.fill(0.0);
        let nloc = self.nloc;
        let mut loc = vec![0.0; nloc];
        let mut out = vec![0.0; nloc];
        for (ci, cell) in self.cells.iter().enumerate() {
            let nodes = &self.cell_node[ci * nloc..(ci + 1) * nloc];
            for l in 0..nloc {
                loc[l] = x_nodes[nodes[l] as usize];
            }
            out.fill(0.0);
            self.cell_stiffness_apply(cell.h, &loc, &mut out);
            for l in 0..nloc {
                y_nodes[nodes[l] as usize] += out[l];
            }
        }
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
    /// (`(p+1)^3 x (p+1)^3`, column-major) — the building block of the
    /// paper's batched dense path and the oracle of the sum-factorized one.
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
            };
            let scale = Some(s.inv_sqrt_mass());
            s.sweep_cells(&part, x.as_slice(), y, phases, scale, None);
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
        };
        s.sweep_cells::<C64>(&no_rows, &[], &mut [], phases, None, None);
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
                };
                s.sweep_cells(&part, x.as_slice(), &mut y, [1.0; 3], None, epilogue);
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
                    };
                    let mut y = vec![T::from_f64(7.0); nd * width];
                    let scale = Some(s.inv_sqrt_mass());
                    s.sweep_cells(&sweep, x.as_slice(), &mut y, phases, scale, Some(&epilogue));
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
            gather_block(
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
            let tile1 = run(&|x, y| cell_kernel::<T, 1>(n1, &s.basis, h, x, y));
            let tile3 = run(&|x, y| cell_kernel::<T, 3>(n1, &s.basis, h, x, y));
            let tile8 = run(&|x, y| cell_kernel::<T, CB>(n1, &s.basis, h, x, y));
            assert!(tile1 == fixed, "p = {p}: tile 1 at run-time n1");
            assert!(tile3 == fixed, "p = {p}: tile 3 at run-time n1");
            assert!(tile8 == fixed, "p = {p}: tile 8 at run-time n1");
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

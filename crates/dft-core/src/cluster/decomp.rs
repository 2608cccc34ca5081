//! Per-rank owned/ghost DoF maps over a slab partition of the FE mesh.
//!
//! Every rank derives the *entire* decomposition — all slabs, all owners —
//! from the shared [`FeSpace`] tables with [`dft_fem::partition`], so the
//! maps agree across ranks without any setup communication and are
//! bit-reproducible (satellite: deterministic rank partitioning). Exchange
//! lists are kept in ascending global-DoF order on both sides, which makes
//! the send and receive sides of every peer pair agree on packing order by
//! construction.

use dft_fem::partition::{dof_owners, node_owners, partition_cells, CellRange};
use dft_fem::space::FeSpace;

/// This rank's view of the domain decomposition.
pub struct Decomposition {
    /// This rank.
    pub rank: usize,
    /// Total ranks.
    pub nranks: usize,
    /// Contiguous global cell slab `[start, end)` owned by this rank.
    pub range: CellRange,
    /// Global DoF ids owned by this rank, ascending. Local indices
    /// `0..n_owned()` refer to these rows.
    pub owned: Vec<u32>,
    /// Global DoF ids ghosted on this rank (owned elsewhere, touched by a
    /// local cell), ascending. Local extended indices `n_owned()..n_ext()`
    /// refer to these.
    pub ghosts: Vec<u32>,
    /// Per local cell and local node: extended-local DoF index, or `-1` on
    /// eliminated Dirichlet nodes (layout `[cell_in_slab * nloc + l]`).
    pub cell_dof_local: Vec<i32>,
    /// Slab-local indices of cells whose DoFs are all owned (computable
    /// before any ghost value arrives).
    pub interior_cells: Vec<u32>,
    /// Slab-local indices of cells touching at least one ghost DoF.
    pub boundary_cells: Vec<u32>,
    /// Outbound exchange: `(peer, owned-local indices)` of the boundary
    /// rows the peer ghosts, ascending peers, ascending global ids within.
    pub send_to: Vec<(usize, Vec<u32>)>,
    /// Inbound exchange: `(peer, extended-local ghost indices)` to fill
    /// from the peer, ascending peers, ascending global ids within.
    pub recv_from: Vec<(usize, Vec<u32>)>,
    /// `M^{-1/2}` at every extended-local row (owned, then ghosts): the
    /// Hamiltonian's input scale, fused into the cell gather.
    pub inv_sqrt_mass_ext: Vec<f64>,
    /// Per FE node: whether this rank owns it (first-touch) — the mask for
    /// distributed Anderson-mixing weights and density ownership.
    pub owned_node: Vec<bool>,
}

impl Decomposition {
    /// Build rank `rank` of `nranks`'s decomposition of `space`. Pure
    /// function of its arguments — every rank computes consistent maps
    /// independently.
    pub fn new(space: &FeSpace, rank: usize, nranks: usize) -> Self {
        assert!(rank < nranks);
        let ncells = space.cells().len();
        // nranks > ncells is legal: trailing ranks get an empty slab, own
        // nothing, and still participate in every collective
        let ranges = partition_cells(ncells, nranks);
        let owners = dof_owners(space, &ranges);
        let node_owner = node_owners(space, &ranges);
        let range = ranges[rank];
        let me = rank as u32;

        let owned: Vec<u32> = (0..space.ndofs() as u32)
            .filter(|&d| owners[d as usize] == me)
            .collect();
        let mut ghosts: Vec<u32> = Vec::new();
        for ci in range.start..range.end {
            for &d in space.cell_dofs(ci) {
                if d >= 0 && owners[d as usize] != me {
                    ghosts.push(d as u32);
                }
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();

        // global -> extended-local index
        let mut local_of_global = vec![-1i64; space.ndofs()];
        for (l, &d) in owned.iter().enumerate() {
            local_of_global[d as usize] = l as i64;
        }
        let n_owned = owned.len();
        for (g, &d) in ghosts.iter().enumerate() {
            local_of_global[d as usize] = (n_owned + g) as i64;
        }

        // localized per-cell DoF tables + interior/boundary split
        let nloc = space.nloc();
        let nlocal_cells = range.len();
        let mut cell_dof_local = Vec::with_capacity(nlocal_cells * nloc);
        let mut interior_cells = Vec::new();
        let mut boundary_cells = Vec::new();
        for (lc, ci) in (range.start..range.end).enumerate() {
            let mut has_ghost = false;
            for &d in space.cell_dofs(ci) {
                if d < 0 {
                    cell_dof_local.push(-1);
                } else {
                    let l = local_of_global[d as usize];
                    debug_assert!(l >= 0, "cell DoF must be owned or ghosted locally");
                    has_ghost |= l as usize >= n_owned;
                    cell_dof_local.push(l as i32);
                }
            }
            if has_ghost {
                boundary_cells.push(lc as u32);
            } else {
                interior_cells.push(lc as u32);
            }
        }

        // exchange lists: peer p ghosts DoF d owned by me iff one of p's
        // cells touches d; symmetric by construction since both sides scan
        // the same global tables and sort by global id
        let mut send_to = Vec::new();
        let mut recv_from = Vec::new();
        for (p, prange) in ranges.iter().enumerate() {
            if p == rank {
                continue;
            }
            // what I must send to p: my DoFs touched by p's cells
            let mut out: Vec<u32> = Vec::new();
            for ci in prange.start..prange.end {
                for &d in space.cell_dofs(ci) {
                    if d >= 0 && owners[d as usize] == me {
                        out.push(d as u32);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            if !out.is_empty() {
                let idx = out
                    .iter()
                    .map(|&d| local_of_global[d as usize] as u32)
                    .collect();
                send_to.push((p, idx));
            }
            // what I receive from p: my ghosts owned by p
            let inn: Vec<u32> = ghosts
                .iter()
                .filter(|&&d| owners[d as usize] == p as u32)
                .map(|&d| local_of_global[d as usize] as u32)
                .collect();
            if !inn.is_empty() {
                recv_from.push((p, inn));
            }
        }

        let owned_node = node_owner.iter().map(|&o| o == me).collect();
        let inv_sqrt_mass_ext = (owned.iter().chain(&ghosts))
            .map(|&d| space.inv_sqrt_mass()[d as usize])
            .collect();

        Self {
            rank,
            nranks,
            range,
            owned,
            ghosts,
            cell_dof_local,
            interior_cells,
            boundary_cells,
            send_to,
            recv_from,
            inv_sqrt_mass_ext,
            owned_node,
        }
    }

    /// Rows owned by this rank (the local wavefunction row count).
    #[inline]
    pub fn n_owned(&self) -> usize {
        self.owned.len()
    }

    /// Owned + ghost rows (the extended local vector length).
    #[inline]
    pub fn n_ext(&self) -> usize {
        self.owned.len() + self.ghosts.len()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fem::mesh::Mesh3d;
    use dft_fem::space::FeSpace;

    #[test]
    fn owned_sets_partition_the_dofs() {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
        for nranks in [1, 2, 4] {
            let decs: Vec<Decomposition> = (0..nranks)
                .map(|r| Decomposition::new(&space, r, nranks))
                .collect();
            let total: usize = decs.iter().map(|d| d.n_owned()).sum();
            assert_eq!(total, space.ndofs());
            let mut seen = vec![false; space.ndofs()];
            for d in &decs {
                for &g in &d.owned {
                    assert!(!seen[g as usize], "DoF {g} owned twice");
                    seen[g as usize] = true;
                }
            }
        }
    }

    #[test]
    fn exchange_lists_are_symmetric() {
        let space = FeSpace::new(Mesh3d::cube(3, 6.0, 2));
        let nranks = 4;
        let decs: Vec<Decomposition> = (0..nranks)
            .map(|r| Decomposition::new(&space, r, nranks))
            .collect();
        for a in 0..nranks {
            for b in 0..nranks {
                if a == b {
                    continue;
                }
                let send = decs[a].send_to.iter().find(|(p, _)| *p == b);
                let recv = decs[b].recv_from.iter().find(|(p, _)| *p == a);
                match (send, recv) {
                    (None, None) => {}
                    (Some((_, s)), Some((_, r))) => {
                        assert_eq!(s.len(), r.len(), "ranks {a}->{b} length mismatch");
                        // same global DoFs in the same order on both sides
                        let sg: Vec<u32> = s.iter().map(|&l| decs[a].owned[l as usize]).collect();
                        let rg: Vec<u32> = r
                            .iter()
                            .map(|&l| decs[b].ghosts[l as usize - decs[b].n_owned()])
                            .collect();
                        assert_eq!(sg, rg, "ranks {a}->{b} global id mismatch");
                    }
                    _ => panic!("asymmetric exchange between ranks {a} and {b}"),
                }
            }
        }
    }

    /// Satellite regression: 5 ranks on a 4-cell mesh. The trailing rank
    /// gets an empty slab, owns nothing, ghosts nothing, and exchanges with
    /// nobody — but the decomposition must still build, and the four real
    /// slabs must still tile the DoFs.
    #[test]
    fn more_ranks_than_cells_yields_consistent_empty_slabs() {
        use dft_fem::mesh::{Axis, BoundaryCondition as Bc};
        let mesh = Mesh3d::new(
            [
                Axis::uniform(4, 0.0, 8.0, Bc::Dirichlet),
                Axis::uniform(1, 0.0, 2.0, Bc::Dirichlet),
                Axis::uniform(1, 0.0, 2.0, Bc::Dirichlet),
            ],
            2,
        );
        let space = FeSpace::new(mesh);
        assert_eq!(space.cells().len(), 4);
        let nranks = 5;
        let decs: Vec<Decomposition> = (0..nranks)
            .map(|r| Decomposition::new(&space, r, nranks))
            .collect();
        let empty = &decs[4];
        assert!(empty.range.is_empty());
        assert_eq!(empty.n_owned(), 0);
        assert_eq!(empty.n_ext(), 0);
        assert!(empty.send_to.is_empty() && empty.recv_from.is_empty());
        assert!(empty.interior_cells.is_empty() && empty.boundary_cells.is_empty());
        assert!(empty.owned_node.iter().all(|&o| !o));
        // the non-empty ranks still partition every DoF exactly once
        let total: usize = decs.iter().map(|d| d.n_owned()).sum();
        assert_eq!(total, space.ndofs());
        // and no exchange list ever names the empty rank
        for d in &decs {
            assert!(d.send_to.iter().all(|(p, _)| *p != 4));
            assert!(d.recv_from.iter().all(|(p, _)| *p != 4));
        }
    }

    #[test]
    fn interior_cells_touch_no_ghosts() {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
        let dec = Decomposition::new(&space, 1, 4);
        let nloc = space.nloc();
        for &lc in &dec.interior_cells {
            let tab = &dec.cell_dof_local[lc as usize * nloc..(lc as usize + 1) * nloc];
            assert!(tab.iter().all(|&l| l < 0 || (l as usize) < dec.n_owned()));
        }
        assert_eq!(
            dec.interior_cells.len() + dec.boundary_cells.len(),
            dec.range.len()
        );
    }
}

//! [`dft_core::cluster::decomp`] at its `dft-parallel` path.

pub use dft_core::cluster::decomp::*;

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

//! [`dft_core::cluster::grid`] at its `dft-parallel` path.

pub use dft_core::cluster::grid::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_two_and_three_axis_specs() {
        assert_eq!(GridShape::parse("4x2").unwrap(), GridShape::new(4, 2, 1));
        assert_eq!(GridShape::parse("2x2x2").unwrap(), GridShape::new(2, 2, 2));
        assert!(GridShape::parse("4").is_err());
        assert!(GridShape::parse("4x0").is_err());
        assert!(GridShape::parse("axb").is_err());
    }

    #[test]
    fn rank_layout_round_trips_and_groups_are_consistent() {
        let shape = GridShape::new(2, 2, 2);
        for rank in 0..8 {
            let g = ProcessGrid::new(shape, rank, 8);
            assert_eq!((g.kgrp * 2 + g.band) * 2 + g.dom, rank);
            assert_eq!(g.dom_group.len(), 2);
            assert_eq!(g.band_group.len(), 2);
            assert_eq!(g.dom_group[g.dom], rank);
            assert_eq!(g.band_group[g.band], rank);
            assert!(g.kgrp_group.contains(&rank));
            // groups along one axis agree across their members
            for &peer in &g.dom_group {
                let pg = ProcessGrid::new(shape, peer, 8);
                assert_eq!(pg.dom_group, g.dom_group);
            }
        }
        // k roots are the dom-0/band-0 rank of each group
        let g = ProcessGrid::new(shape, 5, 8);
        assert_eq!(g.k_roots, vec![0, 4]);
    }

    #[test]
    fn slab_shape_degenerates_to_identity_groups() {
        let g = ProcessGrid::new(GridShape::slab(4), 2, 4);
        assert_eq!(g.dom, 2);
        assert_eq!(g.band, 0);
        assert_eq!(g.kgrp, 0);
        assert_eq!(g.dom_group, vec![0, 1, 2, 3]);
        assert_eq!(g.band_group, vec![2]);
        assert_eq!(g.my_band_cols(7), (0, 7));
        assert_eq!(g.my_kpoints(3), (0, 3));
        assert!(g.owns_replicated_fields());
    }

    #[test]
    fn band_and_kpoint_splits_are_contiguous_and_exhaustive() {
        for (n, parts) in [(7usize, 2usize), (8, 4), (3, 3), (5, 4)] {
            let mut next = 0;
            for b in 0..parts {
                let (j0, j1) = ProcessGrid::band_cols_of(n, parts, b);
                assert_eq!(j0, next);
                assert!(j1 >= j0);
                next = j1;
            }
            assert_eq!(next, n);
        }
        let (k0, k1) = ProcessGrid::kpoints_of(4, 2, 1);
        assert_eq!((k0, k1), (2, 4));
    }
}

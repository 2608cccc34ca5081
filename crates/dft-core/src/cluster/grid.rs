//! The 3-axis process grid: **domain × band × k-point group**.
//!
//! The paper's strong-scaling runs (Sec. 5.4, 6.3) split the Kohn–Sham
//! problem along three independent axes. This module maps a flat rank id
//! onto that grid and derives the communicator sub-groups each axis
//! reduces over:
//!
//! - **domain** (fastest-varying): cell-slab decomposition of the FE mesh.
//!   Ghost exchange and domain reductions stay inside a *domain
//!   row* — the ranks sharing this rank's band column and k-group.
//! - **band**: contiguous column blocks of the wavefunction matrix. Each
//!   band rank filters and projects only its own columns; full-column
//!   matrices are reassembled by an allgather along the *band group*.
//! - **k-point group** (slowest-varying): whole k-points are trivially
//!   parallel; fields (density, potentials) are replicated per group and
//!   combined by a cross-group sum.
//!
//! `grid = None` in the SCF config (the default) is the `n x 1 x 1` slab:
//! every rank is its own band column and k-group, on the same code.

use std::fmt;

/// The extents of the process grid. `n_dom * n_band * n_kgrp` must equal
/// the total rank count of the cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    /// Ranks along the domain (cell-slab) axis.
    pub n_dom: usize,
    /// Ranks along the band (wavefunction-column) axis.
    pub n_band: usize,
    /// Number of k-point groups.
    pub n_kgrp: usize,
}

impl GridShape {
    /// A shape with explicit extents (each must be >= 1).
    pub fn new(n_dom: usize, n_band: usize, n_kgrp: usize) -> Self {
        assert!(n_dom >= 1 && n_band >= 1 && n_kgrp >= 1, "empty grid axis");
        Self {
            n_dom,
            n_band,
            n_kgrp,
        }
    }

    /// The pure-domain shape: every rank is a slab.
    pub fn slab(nranks: usize) -> Self {
        Self::new(nranks, 1, 1)
    }

    /// Total rank count the shape occupies.
    pub fn nranks(&self) -> usize {
        self.n_dom * self.n_band * self.n_kgrp
    }

    /// Parse a `"DOMxBANDxK"` spec, e.g. `"4x2x1"`; the k extent may be
    /// omitted (`"4x2"` means one k-group). The inverse of `Display`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.trim().split('x').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!("grid spec '{s}' is not DOMxBAND or DOMxBANDxK"));
        }
        let mut dims = [1usize; 3];
        for (i, p) in parts.iter().enumerate() {
            dims[i] = p
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("grid spec '{s}': '{p}' is not a positive integer"))?;
            if dims[i] == 0 {
                return Err(format!("grid spec '{s}': axis extent must be >= 1"));
            }
        }
        Ok(Self::new(dims[0], dims[1], dims[2]))
    }
}

impl fmt::Display for GridShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.n_dom, self.n_band, self.n_kgrp)
    }
}

/// One rank's position on the grid plus the communicator sub-groups its
/// collectives run over. Rank layout is dom-fastest:
/// `rank = (kgrp * n_band + band) * n_dom + dom`.
#[derive(Debug, Clone)]
pub struct ProcessGrid {
    /// The grid extents.
    pub shape: GridShape,
    /// This rank's flat id.
    pub rank: usize,
    /// Domain-axis coordinate (which cell slab).
    pub dom: usize,
    /// Band-axis coordinate (which wavefunction column block).
    pub band: usize,
    /// K-group coordinate (which set of k-points).
    pub kgrp: usize,
    /// Ranks sharing this band column and k-group, in domain order —
    /// the sub-group of ghost exchange and domain reductions. Indexed by
    /// dom coordinate: `dom_group[d]` is the global rank at domain slot
    /// `d` of this rank's grid row.
    pub dom_group: Vec<usize>,
    /// Ranks sharing this domain slab and k-group, in band order — the
    /// sub-group band-axis assemblies gather over.
    pub band_group: Vec<usize>,
    /// All ranks of this k-group, in rank order (root first).
    pub kgrp_group: Vec<usize>,
    /// One representative rank (dom 0, band 0) per k-group, in k-group
    /// order — the sub-group that exchanges per-k eigenvalues and filter
    /// windows across k-groups.
    pub k_roots: Vec<usize>,
}

impl ProcessGrid {
    /// Place `rank` of a `nranks`-rank cluster on `shape`. Panics if the
    /// shape does not tile the cluster exactly.
    pub fn new(shape: GridShape, rank: usize, nranks: usize) -> Self {
        assert_eq!(
            shape.nranks(),
            nranks,
            "grid shape {shape} does not tile {nranks} ranks"
        );
        assert!(rank < nranks);
        let dom = rank % shape.n_dom;
        let band = (rank / shape.n_dom) % shape.n_band;
        let kgrp = rank / (shape.n_dom * shape.n_band);
        let plane = shape.n_dom * shape.n_band;
        let dom_group = (0..shape.n_dom)
            .map(|d| kgrp * plane + band * shape.n_dom + d)
            .collect();
        let band_group = (0..shape.n_band)
            .map(|b| kgrp * plane + b * shape.n_dom + dom)
            .collect();
        let kgrp_group = (kgrp * plane..(kgrp + 1) * plane).collect();
        let k_roots = (0..shape.n_kgrp).map(|g| g * plane).collect();
        Self {
            shape,
            rank,
            dom,
            band,
            kgrp,
            dom_group,
            band_group,
            kgrp_group,
            k_roots,
        }
    }

    /// The contiguous column block `[j0, j1)` of an `n_states`-column
    /// wavefunction matrix owned by band slot `b` (same balanced split as
    /// the cell slabs: low slots get the remainder).
    pub fn band_cols_of(n_states: usize, n_band: usize, b: usize) -> (usize, usize) {
        let base = n_states / n_band;
        let extra = n_states % n_band;
        let j0 = b * base + b.min(extra);
        let j1 = j0 + base + usize::from(b < extra);
        (j0, j1)
    }

    /// This rank's band column block of an `n_states`-column matrix.
    pub fn my_band_cols(&self, n_states: usize) -> (usize, usize) {
        Self::band_cols_of(n_states, self.shape.n_band, self.band)
    }

    /// The contiguous k-point range `[k0, k1)` handled by k-group `g` out
    /// of `nk` total k-points.
    pub fn kpoints_of(nk: usize, n_kgrp: usize, g: usize) -> (usize, usize) {
        let base = nk / n_kgrp;
        let extra = nk % n_kgrp;
        let k0 = g * base + g.min(extra);
        let k1 = k0 + base + usize::from(g < extra);
        (k0, k1)
    }

    /// This rank's k-point range.
    pub fn my_kpoints(&self, nk: usize) -> (usize, usize) {
        Self::kpoints_of(nk, self.shape.n_kgrp, self.kgrp)
    }

    /// Whether this rank is the (band 0, k-group 0) representative of its
    /// domain slab — the one that contributes replicated-field data to
    /// global sums so each value is counted exactly once.
    pub fn owns_replicated_fields(&self) -> bool {
        self.band == 0 && self.kgrp == 0
    }
}

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

//! Tensor-product hexahedral meshes with per-axis grading.
//!
//! DFT-FE uses octree-adaptive meshes refined toward the nuclei. Here the
//! same adaptive-resolution behaviour is obtained with *graded* tensor
//! meshes: each axis carries its own monotone sequence of cell boundaries,
//! generated so cells shrink near projected atom positions (DESIGN.md S4).
//! Every cell is an axis-aligned box, so all cell Jacobians are diagonal and
//! the spectral sum-factorization kernels apply unchanged.

/// Boundary condition attached to one coordinate axis.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BoundaryCondition {
    /// Homogeneous or lifted Dirichlet data on the two faces of this axis
    /// (used for non-periodic directions; the far-field values come from
    /// multipole expansions in the electrostatics solves).
    Dirichlet,
    /// Periodic wrap (with an optional Bloch phase supplied at operator
    /// application time for k-point sampling).
    Periodic,
}

/// One coordinate axis of a tensor-product mesh: ascending cell boundaries
/// plus its boundary condition.
#[derive(Clone, Debug)]
pub struct Axis {
    boundaries: Vec<f64>,
    bc: BoundaryCondition,
}

impl Axis {
    /// Uniform axis starting at `x0` with `ncells` cells of equal size over
    /// `length`.
    pub fn uniform(ncells: usize, x0: f64, length: f64, bc: BoundaryCondition) -> Self {
        assert!(ncells >= 1 && length > 0.0);
        let h = length / ncells as f64;
        let boundaries = (0..=ncells).map(|i| x0 + i as f64 * h).collect();
        Self { boundaries, bc }
    }

    /// Graded axis over `[x0, x0 + length]`: the target cell size grows
    /// linearly from `h_min` at a distance `0` from the nearest entry of
    /// `centers` to `h_max` at distance `width` and beyond. Boundaries are
    /// generated greedily and rescaled to fit the interval exactly.
    pub fn graded(
        x0: f64,
        length: f64,
        h_min: f64,
        h_max: f64,
        centers: &[f64],
        width: f64,
        bc: BoundaryCondition,
    ) -> Self {
        assert!(h_min > 0.0 && h_max >= h_min && length > 0.0 && width > 0.0);
        let target = |x: f64| -> f64 {
            let d = centers
                .iter()
                .map(|&c| (x - c).abs())
                .fold(f64::INFINITY, f64::min);
            if d.is_infinite() {
                h_max
            } else {
                h_min + (h_max - h_min) * (d / width).min(1.0)
            }
        };
        let mut b = vec![x0];
        let end = x0 + length;
        let mut x = x0;
        while x < end - 1e-12 {
            let h = target(x + 0.5 * target(x)); // midpoint-ish sampling
            x += h;
            b.push(x.min(end));
            if b.len() > 100_000 {
                panic!("graded axis generated too many cells");
            }
        }
        if b.len() < 2 {
            b.push(end);
        }
        // merge a sliver final cell left by the clamp into its neighbour
        if b.len() > 2 {
            let last_h = b[b.len() - 1] - b[b.len() - 2];
            if last_h < 0.5 * target(end) {
                b.remove(b.len() - 2);
            }
        }
        // rescale interior boundaries so the last lands exactly on `end`
        let got = *b.last().unwrap() - x0;
        let s = length / got;
        for v in b.iter_mut() {
            *v = x0 + (*v - x0) * s;
        }
        *b.last_mut().unwrap() = end;
        Self { boundaries: b, bc }
    }

    /// Number of cells.
    #[inline]
    pub fn ncells(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total axis length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.boundaries[self.ncells()] - self.boundaries[0]
    }

    /// The ascending cell boundaries.
    #[inline]
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Size of cell `c`.
    #[inline]
    pub fn h(&self, c: usize) -> f64 {
        self.boundaries[c + 1] - self.boundaries[c]
    }

    /// Boundary condition of this axis.
    #[inline]
    pub fn bc(&self) -> BoundaryCondition {
        self.bc
    }
}

/// The spectral degrees a [`Mesh3d`] admits. Job admission reads it too,
/// so no spec reaches [`Mesh3d::new`] with another.
pub const SUPPORTED_DEGREES: std::ops::RangeInclusive<usize> = 1..=10;

/// A 3D tensor-product hexahedral mesh with a common spectral degree.
#[derive(Clone, Debug)]
pub struct Mesh3d {
    /// Per-axis discretizations.
    pub axes: [Axis; 3],
    /// Spectral polynomial degree `p`, in [`SUPPORTED_DEGREES`].
    pub degree: usize,
}

impl Mesh3d {
    /// Assemble a mesh from three axes and a degree.
    pub fn new(axes: [Axis; 3], degree: usize) -> Self {
        assert!(
            SUPPORTED_DEGREES.contains(&degree),
            "unsupported degree {degree}"
        );
        Self { axes, degree }
    }

    /// Uniform cube `[0, l]^3` with `n` cells per axis, all-Dirichlet.
    pub fn cube(n: usize, l: f64, degree: usize) -> Self {
        Self::new(
            [
                Axis::uniform(n, 0.0, l, BoundaryCondition::Dirichlet),
                Axis::uniform(n, 0.0, l, BoundaryCondition::Dirichlet),
                Axis::uniform(n, 0.0, l, BoundaryCondition::Dirichlet),
            ],
            degree,
        )
    }

    /// Uniform periodic cube `[0, l]^3`.
    pub fn periodic_cube(n: usize, l: f64, degree: usize) -> Self {
        Self::new(
            [
                Axis::uniform(n, 0.0, l, BoundaryCondition::Periodic),
                Axis::uniform(n, 0.0, l, BoundaryCondition::Periodic),
                Axis::uniform(n, 0.0, l, BoundaryCondition::Periodic),
            ],
            degree,
        )
    }

    /// Total number of cells.
    pub fn ncells(&self) -> usize {
        self.axes.iter().map(|a| a.ncells()).product()
    }

    /// Domain volume.
    pub fn volume(&self) -> f64 {
        self.axes.iter().map(|a| a.length()).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_axis_has_equal_cells() {
        let a = Axis::uniform(4, -2.0, 8.0, BoundaryCondition::Dirichlet);
        assert_eq!(a.ncells(), 4);
        assert!((a.length() - 8.0).abs() < 1e-14);
        for c in 0..4 {
            assert!((a.h(c) - 2.0).abs() < 1e-14);
        }
    }

    #[test]
    fn graded_axis_refines_near_center() {
        let a = Axis::graded(
            0.0,
            20.0,
            0.25,
            2.0,
            &[10.0],
            5.0,
            BoundaryCondition::Dirichlet,
        );
        assert!((a.length() - 20.0).abs() < 1e-12);
        // find smallest cell: should be near x = 10
        let (mut hmin, mut xmin) = (f64::INFINITY, 0.0);
        let (mut hmax, mut xmax) = (0.0_f64, 0.0);
        for c in 0..a.ncells() {
            let h = a.h(c);
            let x = 0.5 * (a.boundaries()[c] + a.boundaries()[c + 1]);
            if h < hmin {
                hmin = h;
                xmin = x;
            }
            if h > hmax {
                hmax = h;
                xmax = x;
            }
        }
        assert!((xmin - 10.0).abs() < 3.0, "finest cell at {xmin}");
        assert!((xmax - 10.0).abs() > 5.0, "coarsest cell at {xmax}");
        assert!(hmax / hmin > 3.0, "grading ratio {}", hmax / hmin);
    }

    #[test]
    fn graded_axis_monotone_boundaries() {
        let a = Axis::graded(
            -5.0,
            10.0,
            0.2,
            1.0,
            &[-2.0, 3.0],
            2.0,
            BoundaryCondition::Periodic,
        );
        for w in a.boundaries().windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((a.boundaries()[0] + 5.0).abs() < 1e-14);
    }

    #[test]
    fn mesh_counts_and_volume() {
        let m = Mesh3d::cube(3, 6.0, 4);
        assert_eq!(m.ncells(), 27);
        assert!((m.volume() - 216.0).abs() < 1e-12);
    }
}

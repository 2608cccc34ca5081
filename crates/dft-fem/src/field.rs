//! Nodal scalar fields on an [`FeSpace`]: construction, integration,
//! gradients, point evaluation.
//!
//! Electron densities, potentials and XC energy densities are all nodal
//! fields; the PBE/MLXC descriptors additionally need `|grad rho|`, which is
//! computed by mass-weighted cell-gradient recovery.

use crate::space::{for_each_local_node, FeSpace};

/// A real scalar field stored at every FE node (including Dirichlet
/// boundary nodes).
#[derive(Clone, Debug)]
pub struct NodalField {
    /// Value at each node.
    pub values: Vec<f64>,
}

impl NodalField {
    /// Zero field.
    pub fn zeros(space: &FeSpace) -> Self {
        Self {
            values: vec![0.0; space.nnodes()],
        }
    }

    /// Sample an analytic function at every node.
    pub fn from_fn(space: &FeSpace, f: impl Fn([f64; 3]) -> f64) -> Self {
        Self {
            values: (0..space.nnodes())
                .map(|n| f(space.node_coord(n)))
                .collect(),
        }
    }

    /// Wrap an existing nodal vector.
    pub fn from_values(space: &FeSpace, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), space.nnodes());
        Self { values }
    }

    /// `integral f dV`.
    pub fn integrate(&self, space: &FeSpace) -> f64 {
        space.integrate(&self.values)
    }

    /// `integral f g dV` (diagonal-mass inner product).
    pub fn inner(&self, space: &FeSpace, other: &NodalField) -> f64 {
        self.values
            .iter()
            .zip(other.values.iter())
            .zip(space.mass_diag().iter())
            .map(|((&a, &b), &m)| a * b * m)
            .sum()
    }

    /// Pointwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> NodalField {
        NodalField {
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Nodal gradient by mass-weighted recovery of cell-level collocation
    /// derivatives, `M^{-1} A_d f`. Returns `[d/dx, d/dy, d/dz]` nodal
    /// fields.
    pub fn gradient(&self, space: &FeSpace) -> [NodalField; 3] {
        let f = self.values.as_slice();
        space.deriv_mass([f, f, f]).map(|mut g| {
            for (x, &m) in g.iter_mut().zip(space.mass_diag()) {
                *x /= m;
            }
            NodalField { values: g }
        })
    }

    /// Evaluate the FE interpolant at an arbitrary point inside the domain.
    pub fn eval(&self, space: &FeSpace, point: [f64; 3]) -> f64 {
        let (cell_idx, xi) = space.locate(point);
        let lx = space.basis.eval_all(xi[0]);
        let ly = space.basis.eval_all(xi[1]);
        let lz = space.basis.eval_all(xi[2]);
        let nodes = space.cell_nodes(cell_idx);
        let mut acc = 0.0;
        for_each_local_node(
            &space.basis,
            space.cells()[cell_idx].h,
            |l, _, [a, b, c]| {
                acc += self.values[nodes[l] as usize] * lx[a] * ly[b] * lz[c];
            },
        );
        acc
    }
}

impl FeSpace {
    /// `A_d v_d` for the three axes `d` in one cell sweep: the assembled,
    /// mass-weighted collocation derivative `(A_d v)_i = sum_cells w_i
    /// (dv/dx_d)(x_i)`, before the `M^{-1}` of the recovery. Cells reach
    /// their nodes through the precomputed [`Self::cell_nodes`] table, so
    /// periodic wraps need no arithmetic here.
    pub fn deriv_mass(&self, v: [&[f64]; 3]) -> [Vec<f64>; 3] {
        let (n1, nloc) = (self.mesh.degree + 1, self.nloc());
        let stride = [1, n1, n1 * n1];
        let b = &self.basis;
        let mut out = [(); 3].map(|_| vec![0.0; self.nnodes()]);
        let mut loc = [(); 3].map(|_| vec![0.0; nloc]);
        for (ci, cell) in self.cells().iter().enumerate() {
            let nodes = self.cell_nodes(ci);
            for (ld, vd) in loc.iter_mut().zip(v) {
                for (x, &n) in ld.iter_mut().zip(nodes) {
                    *x = vd[n as usize];
                }
            }
            let jd = cell.h.map(|h| 2.0 / h);
            for_each_local_node(b, cell.h, |l, w, idx| {
                for d in 0..3 {
                    let first = l - idx[d] * stride[d];
                    let dv = (0..n1).fold(0.0, |acc, j| {
                        acc + b.d(idx[d], j) * loc[d][first + j * stride[d]]
                    });
                    out[d][nodes[l] as usize] += w * (dv * jd[d]);
                }
            });
        }
        out
    }

    /// `A_d^T lambda_d` for the three axes: the exact transpose of
    /// [`Self::deriv_mass`] (gather and scatter roles swapped, derivative
    /// matrix transposed).
    pub fn deriv_mass_t(&self, lambda: [&[f64]; 3]) -> [Vec<f64>; 3] {
        let (n1, nloc) = (self.mesh.degree + 1, self.nloc());
        let stride = [1, n1, n1 * n1];
        let b = &self.basis;
        let mut out = [(); 3].map(|_| vec![0.0; self.nnodes()]);
        let mut loc = [(); 3].map(|_| vec![0.0; nloc]);
        let mut contrib = [(); 3].map(|_| vec![0.0; nloc]);
        for (ci, cell) in self.cells().iter().enumerate() {
            let nodes = self.cell_nodes(ci);
            for (ld, ldm) in loc.iter_mut().zip(lambda) {
                for (x, &n) in ld.iter_mut().zip(nodes) {
                    *x = ldm[n as usize];
                }
            }
            for cd in &mut contrib {
                cd.fill(0.0);
            }
            let jd = cell.h.map(|h| 2.0 / h);
            for_each_local_node(b, cell.h, |l, w, idx| {
                for d in 0..3 {
                    let first = l - idx[d] * stride[d];
                    let lam = loc[d][l] * w * jd[d];
                    for j in 0..n1 {
                        contrib[d][first + j * stride[d]] += b.d(idx[d], j) * lam;
                    }
                }
            });
            for (od, cd) in out.iter_mut().zip(&contrib) {
                for (&n, &x) in nodes.iter().zip(cd) {
                    od[n as usize] += x;
                }
            }
        }
        out
    }

    /// Mass-weighted FE divergence `M^{-1} sum_d A_d v_d` of a nodal vector
    /// field — the GGA potential's divergence term.
    pub fn divergence(&self, v: [&[f64]; 3]) -> Vec<f64> {
        let [mut out, oy, oz] = self.deriv_mass(v);
        for (i, (x, &m)) in out.iter_mut().zip(self.mass_diag()).enumerate() {
            *x = (*x + oy[i] + oz[i]) / m;
        }
        out
    }

    /// Locate the cell containing `point` and the reference coordinates
    /// `xi in [-1,1]^3` within it.
    pub fn locate(&self, point: [f64; 3]) -> (usize, [f64; 3]) {
        let mut cidx = [0usize; 3];
        let mut xi = [0.0f64; 3];
        for d in 0..3 {
            let bnd = self.mesh.axes[d].boundaries();
            let x = point[d]
                .max(bnd[0])
                .min(bnd[bnd.len() - 1] - 1e-14 * (1.0 + bnd[bnd.len() - 1].abs()));
            // binary search for the cell
            let mut lo = 0usize;
            let mut hi = bnd.len() - 2;
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if bnd[mid] <= x {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            cidx[d] = lo;
            xi[d] = 2.0 * (x - bnd[lo]) / (bnd[lo + 1] - bnd[lo]) - 1.0;
        }
        let nc = [
            self.mesh.axes[0].ncells(),
            self.mesh.axes[1].ncells(),
            self.mesh.axes[2].ncells(),
        ];
        (cidx[0] + nc[0] * (cidx[1] + nc[1] * cidx[2]), xi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Axis, BoundaryCondition, Mesh3d};
    use std::f64::consts::PI;

    fn space(p: usize) -> FeSpace {
        FeSpace::new(Mesh3d::cube(2, 4.0, p))
    }

    /// Dirichlet box of edge 4 whose cells shrink toward an off-centre point.
    fn graded_space(p: usize) -> FeSpace {
        let ax = || {
            Axis::graded(
                0.0,
                4.0,
                0.6,
                1.6,
                &[1.3],
                1.5,
                BoundaryCondition::Dirichlet,
            )
        };
        FeSpace::new(Mesh3d::new([ax(), ax(), ax()], p))
    }

    #[test]
    fn constant_field_integrates_to_volume() {
        let s = space(3);
        let f = NodalField::from_fn(&s, |_| 2.5);
        assert!((f.integrate(&s) - 2.5 * 64.0).abs() < 1e-10);
    }

    #[test]
    fn gradient_of_polynomial_is_exact() {
        for s in [space(3), graded_space(3)] {
            // f = x^2 y + z (degree <= p in each variable)
            let f = NodalField::from_fn(&s, |[x, y, z]| x * x * y + z);
            let [gx, gy, gz] = f.gradient(&s);
            for n in 0..s.nnodes() {
                let [x, y, _] = s.node_coord(n);
                assert!((gx.values[n] - 2.0 * x * y).abs() < 1e-9, "gx at node {n}");
                assert!((gy.values[n] - x * x).abs() < 1e-9, "gy at node {n}");
                assert!((gz.values[n] - 1.0).abs() < 1e-9, "gz at node {n}");
            }
        }
        // No polynomial but a constant is periodic, so the fully periodic
        // mesh gets a resolved trigonometric field: the cells at the seam
        // read wrapped nodes through the tables, and a wrong wrap would
        // leave an O(1) error there instead of the interpolation error.
        let s = FeSpace::new(Mesh3d::periodic_cube(3, 6.0, 6));
        let k = PI / 3.0;
        let f = NodalField::from_fn(&s, |[x, y, z]| {
            (k * x).sin() + (k * y).cos() * (k * z).sin()
        });
        let [gx, gy, gz] = f.gradient(&s);
        for n in 0..s.nnodes() {
            let [x, y, z] = s.node_coord(n);
            let exact = [
                k * (k * x).cos(),
                -k * (k * y).sin() * (k * z).sin(),
                k * (k * y).cos() * (k * z).cos(),
            ];
            for (g, e) in [&gx, &gy, &gz].iter().zip(exact) {
                assert!(
                    (g.values[n] - e).abs() < 2e-3,
                    "periodic: {} vs {e} at node {n}",
                    g.values[n]
                );
            }
        }
    }

    #[test]
    fn gradient_magnitude_of_linear_field() {
        let s = space(2);
        let f = NodalField::from_fn(&s, |[x, y, z]| 3.0 * x + 4.0 * y + 0.0 * z);
        let [gx, gy, gz] = f.gradient(&s);
        for n in 0..s.nnodes() {
            let v = (gx.values[n].powi(2) + gy.values[n].powi(2) + gz.values[n].powi(2)).sqrt();
            assert!((v - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn eval_reproduces_polynomial_between_nodes() {
        let s = space(4);
        let f = NodalField::from_fn(&s, |[x, y, z]| x * y * z + x * x);
        for pt in [[0.7, 1.3, 2.9], [3.99, 0.01, 1.5], [2.0, 2.0, 2.0]] {
            let exact = pt[0] * pt[1] * pt[2] + pt[0] * pt[0];
            assert!((f.eval(&s, pt) - exact).abs() < 1e-9, "at {pt:?}");
        }
    }

    #[test]
    fn locate_finds_correct_cell() {
        let s = space(2);
        let (c, xi) = s.locate([1.0, 3.0, 0.5]);
        // cells are [0,2] and [2,4] per axis; expect cell (0,1,0) = 0+2*(1+2*0)=2
        assert_eq!(c, 2);
        assert!((xi[0] - 0.0).abs() < 1e-12); // 1.0 is midpoint of [0,2]
        assert!((xi[1] - 0.0).abs() < 1e-12);
        assert!((xi[2] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn inner_product_symmetry_and_positivity() {
        let s = space(2);
        let f = NodalField::from_fn(&s, |[x, y, z]| (x - y).sin() + z);
        let g = NodalField::from_fn(&s, |[x, y, z]| x + y * z);
        assert!((f.inner(&s, &g) - g.inner(&s, &f)).abs() < 1e-12);
        assert!(f.inner(&s, &f) > 0.0);
    }
}

//! The discrete Kohn-Sham Hamiltonian in the Löwdin-orthonormalized
//! spectral FE basis.
//!
//! With GLL collocation the FE mass matrix is diagonal, so the generalized
//! eigenproblem `H psi = eps M psi` becomes the standard
//! `Hhat psihat = eps psihat` with
//!
//! ```text
//! Hhat = -1/2 M^{-1/2} K M^{-1/2} + diag(v_eff)
//! ```
//!
//! (`K` the FE stiffness matrix, `v_eff` the nodal effective potential).
//! This is exactly the paper's formulation; `Hhat` is applied matrix-free
//! through the cell-level kernels of [`dft_fem::space::FeSpace`], with
//! Bloch phases carrying the k-point dependence for complex scalars.

use dft_fem::space::{FeSpace, LanePanel};
use dft_linalg::iterative::{recurrence_update, LinearOperator, Recurrence};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar};

/// A Kohn-Sham Hamiltonian-shaped operator: a [`LinearOperator`] that also
/// knows the analytic FLOP cost of one apply, which is what the ChFES phase
/// profiling records. Implemented by the shared-memory [`KsHamiltonian`]
/// and a rank's [`crate::cluster::operator::DistHamiltonian`] (whose `dim`
/// is the owned-DoF count and whose FLOPs are the rank-local work).
pub trait HamOperator<T: Scalar>: LinearOperator<T> {
    /// Analytic FLOP count of one apply on `ncols` columns.
    fn apply_flops(&self, ncols: usize) -> u64;

    /// The operator as a [`PanelOperator`], when it steps a filter task's
    /// lane panels on the task's own threads: then the CF phase filters
    /// tasks of at most [`dft_fem::space::COL_BLOCK`] columns side by side,
    /// one thread carrying each through every degree step. `None` by
    /// default: an operator whose every recurrence step is a ghost exchange
    /// filters `B_f` columns at a time, one block after another, through
    /// [`LinearOperator::recurrence_step`].
    fn panels(&self) -> Option<&dyn PanelOperator<T>> {
        None
    }
}

/// One recurrence step of a Chebyshev filter task on its lane panels:
/// `out = (A y - c y) * alpha - beta * x_prev`, with the bits of
/// [`LinearOperator::recurrence_step`] on the same columns.
pub trait PanelOperator<T: Scalar>: Sync {
    /// The step on panels of the operator's `dim()` rows.
    fn panel_step(
        &self,
        y: &LanePanel<T>,
        x_prev: Option<&LanePanel<T>>,
        k: Recurrence<T::Re>,
        out: &mut LanePanel<T>,
    );
}

/// The discrete KS Hamiltonian for one k-point.
pub struct KsHamiltonian<'a, T: Scalar> {
    space: &'a FeSpace,
    /// Effective potential at DoF nodes.
    v_eff_dof: Vec<f64>,
    /// Bloch phases per axis (`e^{i k . L}`; ONE for Γ / non-periodic).
    pub phases: [T; 3],
}

impl<'a, T: Scalar> KsHamiltonian<'a, T> {
    /// Build from a full nodal effective potential (restricted to DoFs
    /// internally).
    pub fn new(space: &'a FeSpace, v_eff_nodes: &[f64], phases: [T; 3]) -> Self {
        Self {
            space,
            v_eff_dof: dof_potential(space, v_eff_nodes, 0..space.ndofs()),
            phases,
        }
    }

    /// Analytic FLOP count of one [`KsHamiltonian::apply`] on `ncols`
    /// columns ([`ham_apply_flops`] over every cell and DoF).
    pub fn apply_flops(&self, ncols: usize) -> u64 {
        let (cells, rows) = (self.space.cells().len(), self.space.ndofs());
        ham_apply_flops::<T>(self.space, (cells, rows), ncols)
    }
}

impl<'a, T: Scalar> HamOperator<T> for KsHamiltonian<'a, T> {
    fn apply_flops(&self, ncols: usize) -> u64 {
        KsHamiltonian::apply_flops(self, ncols)
    }

    fn panels(&self) -> Option<&dyn PanelOperator<T>> {
        Some(self)
    }
}

/// The nodal potential `v_nodes` at the DoFs `dofs`, in their order: the
/// diagonal a Hamiltonian adds on its rows (every DoF serially, the owned
/// ones on a rank).
pub fn dof_potential(
    space: &FeSpace,
    v_nodes: &[f64],
    dofs: impl Iterator<Item = usize>,
) -> Vec<f64> {
    assert_eq!(v_nodes.len(), space.nnodes());
    dofs.map(|d| v_nodes[space.node_of_dof(d)]).collect()
}

/// Analytic FLOP count of one Hamiltonian apply on `ncols` columns that
/// sweeps `cells` of `space`'s cells and writes `rows` rows: the
/// sum-factorized stiffness work of those cells plus, per row and column,
/// the `M^{-1/2}` input scale (booked once per element; the gather it is
/// fused into applies it once per cell-local node) and the
/// [`output_transform`]'s `1/2 s y + v x` (two scales and an add), all
/// three scales by real factors. A booked count: fusing passes changes the
/// time it is divided by, not the count.
pub fn ham_apply_flops<T: Scalar>(
    space: &FeSpace,
    (cells, rows): (usize, usize),
    ncols: usize,
) -> u64 {
    let per_cell = space.stiffness_apply_flops::<T>(ncols) / space.cells().len().max(1) as u64;
    per_cell * cells as u64 + (rows * ncols) as u64 * (3 * T::SCALE_FLOPS + T::ADD_FLOPS)
}

/// The output transform of every Hamiltonian apply, local or on a rank, on
/// one finished piece `out` of its result: `out = 1/2 s (K s x) + v x`,
/// then (given `k`) the recurrence update against `x` and the previous
/// iterate. `K s x` is `kx` when given (a rank reads it off its extended
/// result), else `out` itself. The factors `s_i` and `v_i` come one per
/// row, and each row's elements are `run` consecutive values of the piece:
/// one for a column's rows, the lane count for a panel's rows. One body for
/// every layout and route, so they share their bits.
#[inline(always)]
pub fn output_transform<T: Scalar>(
    (out, kx): (&mut [T], Option<&[T]>),
    x: &[T],
    x_prev: Option<&[T]>,
    (s, v, run): (&[f64], &[f64], usize),
    k: Option<Recurrence<T::Re>>,
) {
    let body = |kv: T, xv: T, (a, b): (T::Re, T::Re)| kv.scale(a) + xv.scale(b);
    let factors = |(&si, &vi): (&f64, &f64)| (T::Re::from_f64(0.5 * si), T::Re::from_f64(vi));
    let rows = out.chunks_exact_mut(run).zip(x.chunks_exact(run));
    let rows = rows.zip(s.iter().zip(v));
    // two loops, not a per-element choice of source: that read 3x slower
    // on a rank's column read-off and 15% slower on a panel's rows
    match kx {
        None => {
            for ((orow, xrow), f) in rows {
                let f = factors(f);
                for (ov, &xv) in orow.iter_mut().zip(xrow) {
                    *ov = body(*ov, xv, f);
                }
            }
        }
        Some(kx) => {
            for (((orow, xrow), f), krow) in rows.zip(kx.chunks_exact(run)) {
                let f = factors(f);
                for ((ov, &kv), &xv) in orow.iter_mut().zip(krow).zip(xrow) {
                    *ov = body(kv, xv, f);
                }
            }
        }
    }
    if let Some(k) = k {
        recurrence_update(out, x, x_prev, k);
    }
}

impl<'a, T: Scalar> PanelOperator<T> for KsHamiltonian<'a, T> {
    /// The step as one [`dft_fem::space::Lanes`] sweep: [`output_transform`]
    /// runs on each run of rows once the last cell that reaches them has
    /// been scattered, while they are still in cache.
    // dftlint:hot
    fn panel_step(
        &self,
        y: &LanePanel<T>,
        x_prev: Option<&LanePanel<T>>,
        k: Recurrence<T::Re>,
        out: &mut LanePanel<T>,
    ) {
        assert!(x_prev.is_none_or(|p| (p.rows(), p.lanes()) == (y.rows(), y.lanes())));
        let s = self.space.inv_sqrt_mass();
        let w = y.lanes();
        let epilogue = |_: usize, i0: usize, orows: &mut [T]| {
            let (i1, lanes) = (i0 + orows.len() / w, i0 * w..i0 * w + orows.len());
            let sv = (&s[i0..i1], &self.v_eff_dof[i0..i1], w);
            let prev = x_prev.map(|p| &p.as_slice()[i0 * w..i1 * w]);
            output_transform((orows, None), &y.as_slice()[lanes], prev, sv, Some(k));
        };
        out.resize(y.rows(), y.lanes());
        self.space
            .apply_panel_scaled(y, out, self.phases, s, Some(&epilogue));
    }
}

impl<'a, T: Scalar> LinearOperator<T> for KsHamiltonian<'a, T> {
    fn dim(&self) -> usize {
        self.space.ndofs()
    }

    /// `y = Hhat x` in one cell sweep: `K M^{-1/2} x` with the input
    /// scaling fused into the cell gather (no copy of `x`), and
    /// [`output_transform`] as the sweep's epilogue on each finished column
    /// piece while it is still in cache. K is the grad-grad stiffness, i.e.
    /// the discrete -∇², so the kinetic operator -1/2 ∇² is +1/2 K.
    fn apply(&self, x: &Matrix<T>, y: &mut Matrix<T>) {
        assert_eq!(x.nrows(), self.space.ndofs());
        let s = self.space.inv_sqrt_mass();
        let epilogue = |j: usize, first_row: usize, ocol: &mut [T]| {
            let rows = first_row..first_row + ocol.len();
            let sv = (&s[rows.clone()], &self.v_eff_dof[rows.clone()], 1);
            output_transform((ocol, None), &x.col(j)[rows], None, sv, None);
        };
        self.space
            .apply_stiffness_scaled(x, y, self.phases, s, Some(&epilogue));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fem::mesh::Mesh3d;
    use dft_linalg::blas1;
    use dft_linalg::scalar::C64;

    fn space() -> FeSpace {
        FeSpace::new(Mesh3d::cube(2, 6.0, 3))
    }

    #[test]
    fn hamiltonian_is_symmetric() {
        let s = space();
        let v: Vec<f64> = (0..s.nnodes())
            .map(|n| s.node_coord(n)[0] * 0.1 - 0.3)
            .collect();
        let h = KsHamiltonian::<f64>::new(&s, &v, [1.0; 3]);
        let n = h.dim();
        let x = Matrix::from_fn(n, 1, |i, _| ((i * 7) as f64 * 0.23).sin());
        let z = Matrix::from_fn(n, 1, |i, _| ((i * 5) as f64 * 0.31).cos());
        let mut hx = Matrix::zeros(n, 1);
        let mut hz = Matrix::zeros(n, 1);
        h.apply(&x, &mut hx);
        h.apply(&z, &mut hz);
        let a = blas1::dot(z.col(0), hx.col(0));
        let b = blas1::dot(hz.col(0), x.col(0));
        assert!((a - b).abs() < 1e-10 * a.abs().max(1.0));
    }

    #[test]
    fn constant_potential_shifts_spectrum() {
        let s = space();
        let v0: Vec<f64> = vec![0.0; s.nnodes()];
        let v5: Vec<f64> = vec![5.0; s.nnodes()];
        let h0 = KsHamiltonian::<f64>::new(&s, &v0, [1.0; 3]);
        let h5 = KsHamiltonian::<f64>::new(&s, &v5, [1.0; 3]);
        let n = h0.dim();
        let x = Matrix::from_fn(n, 2, |i, j| ((i * 3 + j * 17) as f64 * 0.41).sin());
        let mut y0 = Matrix::zeros(n, 2);
        let mut y5 = Matrix::zeros(n, 2);
        h0.apply(&x, &mut y0);
        h5.apply(&x, &mut y5);
        // y5 = y0 + 5 x
        let mut expect = y0.clone();
        expect.axpy_inplace(5.0, &x);
        assert!(y5.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn rayleigh_quotient_positive_for_positive_potential() {
        let s = space();
        let v: Vec<f64> = vec![1.0; s.nnodes()];
        let h = KsHamiltonian::<f64>::new(&s, &v, [1.0; 3]);
        let n = h.dim();
        let x = Matrix::from_fn(n, 1, |i, _| ((i * 13) as f64 * 0.7).sin());
        let mut y = Matrix::zeros(n, 1);
        h.apply(&x, &mut y);
        let rq = blas1::dot(x.col(0), y.col(0)) / blas1::dot(x.col(0), x.col(0));
        assert!(rq > 1.0, "kinetic part positive -> RQ > 1: {rq}");
    }

    #[test]
    fn complex_hamiltonian_hermitian_with_phases() {
        let s = FeSpace::new(Mesh3d::periodic_cube(2, 5.0, 2));
        let v: Vec<f64> = (0..s.nnodes())
            .map(|n| (s.node_coord(n)[1] * 0.5).sin())
            .collect();
        let phases = [C64::cis(0.4), C64::cis(-0.9), C64::ONE];
        let h = KsHamiltonian::<C64>::new(&s, &v, phases);
        let n = h.dim();
        let x = Matrix::from_fn(n, 1, |i, _| {
            C64::new(((i * 3) as f64 * 0.5).sin(), ((i * 7) as f64 * 0.2).cos())
        });
        let z = Matrix::from_fn(n, 1, |i, _| {
            C64::new(((i * 11) as f64 * 0.3).cos(), ((i * 5) as f64 * 0.9).sin())
        });
        let mut hx = Matrix::zeros(n, 1);
        let mut hz = Matrix::zeros(n, 1);
        h.apply(&x, &mut hx);
        h.apply(&z, &mut hz);
        let a = blas1::dot(z.col(0), hx.col(0));
        let b = blas1::dot(hz.col(0), x.col(0));
        assert!((a - b).abs() < 1e-10, "<z,Hx> = {a:?}, <Hz,x> = {b:?}");
    }
}

//! Golden-value regression of the table-driven `apply_stiffness` against
//! outputs recorded from the seed (pre-table) per-column implementation:
//! periodic real, periodic Bloch-phase complex, and Dirichlet cases. Any
//! change to the gather/scatter index tables, wrap-phase handling, or the
//! column-blocked sum-factorization kernel that alters results shows up
//! here before it can bias an SCF energy. The periodic cases also agree
//! everywhere with [`dense_oracle`], which shares neither the tables nor
//! the sum factorisation.

// golden literals are recorded at 18 significant digits as printed
#![allow(clippy::excessive_precision)]

use dft_fem::mesh::{BoundaryCondition, Mesh3d};
use dft_fem::space::FeSpace;
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar, C64};

/// `Y = K X` assembled cell by cell from the dense cell stiffness: each
/// cell's nodes, DoFs and periodic wraps re-derived from the mesh geometry
/// (node `c p + a` of an axis of `n` nodes, wrapped to `c p + a - n` on a
/// periodic axis), the wrapped values gathered times their Bloch phases and
/// scattered times the conjugates.
fn dense_oracle<T: Scalar>(space: &FeSpace, x: &Matrix<T>, phases: [T; 3]) -> Matrix<T> {
    let p = space.mesh.degree;
    let n1 = p + 1;
    let periodic = space
        .mesh
        .axes
        .each_ref()
        .map(|a| a.bc() == BoundaryCondition::Periodic);
    // `p` nodes per cell, plus the closing node of a non-periodic axis
    let n_axis: [usize; 3] =
        std::array::from_fn(|d| space.mesh.axes[d].ncells() * p + usize::from(!periodic[d]));
    let mut y = Matrix::<T>::zeros(x.nrows(), x.ncols());
    for cell in space.cells() {
        let k = space.dense_cell_stiffness(cell.h);
        // per local node (x fastest): its DoF and its phase product
        let local: Vec<_> = (0..n1 * n1 * n1)
            .map(|l| {
                let (mut node, mut phase) = (0, T::ONE);
                for d in (0..3).rev() {
                    let mut g = cell.c[d] * p + l / n1.pow(d as u32) % n1;
                    if periodic[d] && g >= n_axis[d] {
                        g -= n_axis[d];
                        phase *= phases[d];
                    }
                    node = node * n_axis[d] + g;
                }
                (space.dof_of_node(node), phase)
            })
            .collect();
        for j in 0..x.ncols() {
            let gathered: Vec<T> = local
                .iter()
                .map(|&(dof, ph)| dof.map_or(T::ZERO, |d| x[(d, j)] * ph))
                .collect();
            for (l, &(dof, ph)) in local.iter().enumerate() {
                let Some(d) = dof else { continue };
                let mut acc = T::ZERO;
                for (m, &v) in gathered.iter().enumerate() {
                    acc += v.scale(T::Re::from_f64(k[(l, m)]));
                }
                y[(d, j)] += acc * ph.conj();
            }
        }
    }
    y
}

#[test]
fn periodic_real_matches_seed_golden_values() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let n = space.ndofs();
    assert_eq!(n, 216);
    let x = Matrix::from_fn(n, 2, |i, j| ((i * 7 + j * 29) as f64 * 0.37).sin());
    let mut y = Matrix::zeros(n, 2);
    space.apply_stiffness(&x, &mut y, [1.0; 3]);
    let golden = [
        ((0, 0), -6.53027692997476539e-1),
        ((17, 0), 7.08228804278537183e-1),
        ((100, 1), -4.63453630657969118e0),
        ((215, 1), 6.61435780122271577e0),
    ];
    for ((i, j), v) in golden {
        assert!(
            (y[(i, j)] - v).abs() < 1e-12,
            "y[({i},{j})] = {:.17e}, golden {v:.17e}",
            y[(i, j)]
        );
    }
    // and the dense cell-by-cell oracle agrees everywhere
    let yref = dense_oracle(&space, &x, [1.0; 3]);
    assert!(y.max_abs_diff(&yref) < 1e-13);
}

#[test]
fn periodic_bloch_complex_matches_seed_golden_values() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let n = space.ndofs();
    let phases = [C64::cis(0.7), C64::cis(-0.3), C64::ONE];
    let x = Matrix::from_fn(n, 2, |i, j| {
        C64::new(
            ((i * 5 + j * 3) as f64 * 0.3).sin(),
            ((i * 11 + j) as f64 * 0.2).cos(),
        )
    });
    let mut y = Matrix::zeros(n, 2);
    space.apply_stiffness(&x, &mut y, phases);
    let golden = [
        (
            (0, 0),
            C64::new(-6.85170646920910231e-1, 1.57481341457479296e0),
        ),
        (
            (17, 0),
            C64::new(4.88135274589582835e0, 4.58973905037361707e0),
        ),
        (
            (100, 1),
            C64::new(2.05769295259772722e0, 9.75657312787052078e0),
        ),
        (
            (215, 1),
            C64::new(-3.08765776079274623e0, -4.06798802531633541e0),
        ),
    ];
    for ((i, j), v) in golden {
        let d = y[(i, j)] - v;
        assert!(
            d.abs() < 1e-12,
            "y[({i},{j})] = {:?}, golden {v:?}",
            y[(i, j)]
        );
    }
    let yref = dense_oracle(&space, &x, phases);
    assert!(y.max_abs_diff(&yref) < 1e-13);
}

#[test]
fn dirichlet_real_matches_seed_golden_values() {
    let space = FeSpace::new(Mesh3d::cube(2, 4.0, 3));
    let n = space.ndofs();
    assert_eq!(n, 125);
    let x = Matrix::from_fn(n, 1, |i, _| ((i * 13) as f64 * 0.19).cos());
    let mut y = Matrix::zeros(n, 1);
    space.apply_stiffness(&x, &mut y, [1.0; 3]);
    let golden = [
        ((0, 0), 7.86259375349799772e0),
        ((33, 0), 6.57241546896360340e0),
        ((124, 0), -3.36994066070979037e-1),
    ];
    for ((i, j), v) in golden {
        assert!(
            (y[(i, j)] - v).abs() < 1e-12,
            "y[({i},{j})] = {:.17e}, golden {v:.17e}",
            y[(i, j)]
        );
    }
}

/// The fused-row-scale entry point must equal scale-then-apply.
#[test]
fn scaled_apply_equals_scale_then_apply() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let n = space.ndofs();
    let scale: Vec<f64> = (0..n)
        .map(|i| 0.5 + ((i * 3) as f64 * 0.17).cos().abs())
        .collect();
    let phases = [C64::cis(0.4), C64::cis(-0.9), C64::ONE];
    let x = Matrix::from_fn(n, 3, |i, j| {
        C64::new(
            ((i * 5 + j) as f64 * 0.3).sin(),
            ((i + j * 7) as f64 * 0.2).cos(),
        )
    });
    let mut y_fused = Matrix::zeros(n, 3);
    space.apply_stiffness_scaled(&x, &mut y_fused, phases, &scale, None);
    let mut xs = x.clone();
    for j in 0..3 {
        for (v, &s) in xs.col_mut(j).iter_mut().zip(scale.iter()) {
            *v = v.scale(s);
        }
    }
    let mut y_two_step = Matrix::zeros(n, 3);
    space.apply_stiffness(&xs, &mut y_two_step, phases);
    assert!(y_fused.max_abs_diff(&y_two_step) < 1e-12);
}

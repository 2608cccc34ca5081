//! Property-based tests of the spectral-FE invariants.
#![allow(clippy::needless_range_loop)]

use dft_fem::field::NodalField;
use dft_fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_fem::space::FeSpace;
use dft_linalg::matrix::Matrix;
use proptest::prelude::*;

fn arb_degree() -> impl Strategy<Value = usize> {
    1usize..=4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mass_matrix_integrates_volume_any_degree(p in arb_degree(), n in 1usize..=3, l in 2.0..8.0f64) {
        let s = FeSpace::new(Mesh3d::cube(n, l, p));
        let ones = vec![1.0; s.nnodes()];
        let vol = l * l * l;
        prop_assert!((s.integrate(&ones) - vol).abs() < 1e-9 * vol);
    }

    #[test]
    fn stiffness_is_positive_semidefinite(p in arb_degree(), seed in 0u64..50) {
        let s = FeSpace::new(Mesh3d::cube(2, 4.0, p));
        let n = s.ndofs();
        let x = Matrix::from_fn(n, 1, |i, _| (((i as u64 * 2654435761 + seed) % 1000) as f64 / 500.0) - 1.0);
        let mut kx = Matrix::zeros(n, 1);
        s.apply_stiffness(&x, &mut kx, [1.0; 3]);
        let e: f64 = x.col(0).iter().zip(kx.col(0)).map(|(&a, &b)| a * b).sum();
        prop_assert!(e >= -1e-10, "energy {e}");
    }

    #[test]
    fn gradient_of_constant_vanishes(p in arb_degree(), c in -3.0..3.0f64) {
        let s = FeSpace::new(Mesh3d::cube(2, 5.0, p));
        let f = NodalField::from_fn(&s, |_| c);
        let g = f.gradient(&s);
        for d in 0..3 {
            for &v in &g[d].values {
                prop_assert!(v.abs() < 1e-10);
            }
        }
    }

    #[test]
    fn linear_fields_reproduced_exactly(a in -2.0..2.0f64, b in -2.0..2.0f64, c in -2.0..2.0f64) {
        // FE interpolation of degree >= 1 is exact on linears, and so is
        // the recovered gradient
        let s = FeSpace::new(Mesh3d::cube(2, 4.0, 2));
        let f = NodalField::from_fn(&s, |[x, y, z]| a * x + b * y + c * z + 1.0);
        let g = f.gradient(&s);
        prop_assert!((g[0].values[0] - a).abs() < 1e-9);
        prop_assert!((g[1].values[0] - b).abs() < 1e-9);
        prop_assert!((g[2].values[0] - c).abs() < 1e-9);
    }

    #[test]
    fn graded_axis_always_covers_interval(
        hmin in 0.2..0.5f64,
        ratio in 1.5..4.0f64,
        center in 0.0..10.0f64,
    ) {
        let ax = Axis::graded(0.0, 10.0, hmin, hmin * ratio, &[center], 2.0, BoundaryCondition::Dirichlet);
        prop_assert!((ax.length() - 10.0).abs() < 1e-9);
        let b = ax.boundaries();
        for w in b.windows(2) {
            prop_assert!(w[1] > w[0], "monotone boundaries");
        }
        prop_assert!((b[0] - 0.0).abs() < 1e-12 && (b[b.len()-1] - 10.0).abs() < 1e-12);
    }
}

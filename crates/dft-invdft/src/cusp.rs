//! Cusp correction of target densities, checked in the tests only: no
//! invDFT path feeds it a Gaussian-basis density yet.
//!
//! The paper mitigates Gaussian-basis artifacts in QMB densities by adding
//! a nuclear cusp correction near each nucleus (Sec. 5.1): exact densities
//! obey Kato's condition `d rho/dr |_0 = -2 Z rho(0)`, but Gaussian
//! expansions are flat at the nucleus. This module blends the exact
//! exponential short-range behaviour into a given density inside a small
//! ball around each nucleus, preserving the total charge by global
//! renormalization.

#[cfg(test)]
mod tests {
    use dft_fem::field::NodalField;
    use dft_fem::mesh::Mesh3d;
    use dft_fem::space::FeSpace;

    /// Apply a Kato-cusp correction around each `(z, position)` nucleus within
    /// radius `r_cusp`. Returns the corrected (renormalized) density.
    fn cusp_correct_density(
        space: &FeSpace,
        rho: &NodalField,
        nuclei: &[(f64, [f64; 3])],
        r_cusp: f64,
    ) -> NodalField {
        let mut out = rho.values.clone();
        for &(z, pos) in nuclei {
            // density value at the blend radius (FE interpolation)
            for n in 0..space.nnodes() {
                let c = space.node_coord(n);
                let r =
                    ((c[0] - pos[0]).powi(2) + (c[1] - pos[1]).powi(2) + (c[2] - pos[2]).powi(2))
                        .sqrt();
                if r < r_cusp {
                    // rho_cusp(r) = rho(r_cusp) * exp(-2 Z (r - r_cusp)) gives
                    // the exact log-derivative -2Z; blend smoothly
                    let edge = sample_radial(space, rho, pos, r_cusp);
                    let cusp = edge * (-2.0 * z * (r - r_cusp)).exp();
                    let t = r / r_cusp; // 0 at nucleus, 1 at the edge
                    let blend = t * t * (3.0 - 2.0 * t); // smoothstep
                    out[n] = blend * out[n] + (1.0 - blend) * cusp;
                }
            }
        }
        // renormalize total charge
        let q_old = space.integrate(&rho.values);
        let q_new = space.integrate(&out);
        if q_new > 1e-12 {
            let s = q_old / q_new;
            for v in out.iter_mut() {
                *v *= s;
            }
        }
        NodalField::from_values(space, out)
    }

    fn sample_radial(space: &FeSpace, rho: &NodalField, pos: [f64; 3], r: f64) -> f64 {
        // spherical average over a few directions
        let dirs = [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ];
        let mut acc = 0.0;
        for d in dirs {
            let p = [pos[0] + r * d[0], pos[1] + r * d[1], pos[2] + r * d[2]];
            acc += rho.eval(space, p);
        }
        acc / dirs.len() as f64
    }

    #[test]
    fn cusp_preserves_charge_and_sharpens_center() {
        let space = FeSpace::new(Mesh3d::cube(3, 8.0, 4));
        let ctr = [4.0, 4.0, 4.0];
        // smooth (cuspless) Gaussian standing in for a Gaussian-basis density
        let rho = NodalField::from_fn(&space, |c| {
            let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
            (-0.8 * r2).exp()
        });
        let q0 = rho.integrate(&space);
        let fixed = cusp_correct_density(&space, &rho, &[(2.0, ctr)], 0.9);
        let q1 = fixed.integrate(&space);
        assert!(
            (q0 - q1).abs() < 1e-9 * q0,
            "charge preserved: {q0} vs {q1}"
        );
        // corrected density has larger value at the nucleus than the edge
        // value extrapolated flat (the cusp points up)
        let center = fixed.eval(&space, ctr);
        let edge = fixed.eval(&space, [4.0 + 0.9, 4.0, 4.0]);
        let flat_center = rho.eval(&space, ctr) / q0 * q1;
        assert!(center > flat_center, "cusp must sharpen the nucleus");
        assert!(center > edge);
    }

    #[test]
    fn log_derivative_near_kato_value() {
        let space = FeSpace::new(Mesh3d::cube(4, 8.0, 4));
        let ctr = [4.0, 4.0, 4.0];
        let z = 1.5;
        let rho = NodalField::from_fn(&space, |c| {
            let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
            (-0.5 * r2).exp()
        });
        let fixed = cusp_correct_density(&space, &rho, &[(z, ctr)], 1.0);
        // sample the corrected density along x inside the cusp region
        let (r1, r2) = (0.2, 0.4);
        let f1 = fixed.eval(&space, [4.0 + r1, 4.0, 4.0]);
        let f2 = fixed.eval(&space, [4.0 + r2, 4.0, 4.0]);
        let logder = (f2.ln() - f1.ln()) / (r2 - r1);
        assert!(
            (logder + 2.0 * z).abs() < 0.4 * 2.0 * z,
            "log-derivative {logder} vs Kato {}",
            -2.0 * z
        );
    }
}

//! The MLXC functional form (paper Eq. 3) wrapped around the MLP.
//!
//! `e_xc[rho](r) = rho^{4/3} phi(xi) F_DNN(t(rho, xi, s))` with descriptor
//! conditioning transforms `t = [ln(1 + rho), xi, s/(1 + s)]` (bounded,
//! monotone — purely numerical conditioning; the physics enters through the
//! prefactors, which enforce the coordinate- and spin-scaling relations).
//!
//! The functional derivative splits into a local part and a
//! gradient-correction part:
//!
//! ```text
//! v_xc = de/drho - div( de/d|grad rho| * grad rho / |grad rho| )
//! ```
//!
//! [`MlxcModel::eval_point`] returns `e`, `de/drho` and `de/d|grad rho|`
//! per point; the FE divergence assembly lives with the caller (dft-core),
//! which owns the mesh. For training, [`MlxcModel::accumulate_point_grads`]
//! backpropagates adjoints of all three outputs into the network
//! parameters (double backprop through the input gradient).

use crate::nn::{BatchedMlp, Mlp, ParamGrads};
use dft_linalg::matrix::Matrix;

/// Reduced-gradient prefactor `(3 pi^2)^{1/3} / 2`.
pub const KS: f64 = 1.546_833_863_140_067_8;

/// Floor on the density to keep descriptors finite in vacuum regions.
pub const RHO_FLOOR: f64 = 1e-10;

/// Pointwise evaluation of the functional.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointEval {
    /// XC energy density (per volume), `e_xc(r)`.
    pub e: f64,
    /// Local part of the potential: `de/drho` at fixed `|grad rho|`.
    pub de_drho: f64,
    /// Gradient-correction coefficient: `de/d|grad rho|`.
    pub de_dgrad: f64,
}

/// Adjoints of [`PointEval`] for training.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointAdjoint {
    /// dL/de.
    pub e: f64,
    /// dL/d(de_drho).
    pub de_drho: f64,
    /// dL/d(de_dgrad).
    pub de_dgrad: f64,
}

/// The machine-learned XC functional.
#[derive(Clone, Debug)]
pub struct MlxcModel {
    /// The underlying network, inputs `[ln(1+rho), xi, s/(1+s)]`.
    pub net: Mlp,
}

impl MlxcModel {
    /// Fresh (untrained) model with the paper's architecture.
    pub fn new(seed: u64) -> Self {
        Self {
            net: Mlp::paper_architecture(3, seed),
        }
    }

    /// Wrap an existing network (3 inputs required).
    pub fn from_net(net: Mlp) -> Self {
        assert_eq!(net.n_inputs(), 3);
        Self { net }
    }

    /// Spin-scaling prefactor `phi(xi)`.
    pub fn phi(xi: f64) -> f64 {
        0.5 * ((1.0 + xi).powf(4.0 / 3.0) + (1.0 - xi).powf(4.0 / 3.0))
    }

    /// Reduced density gradient `s`.
    pub fn reduced_gradient(rho: f64, grad_norm: f64) -> f64 {
        KS * grad_norm / rho.max(RHO_FLOOR).powf(4.0 / 3.0)
    }

    /// Descriptor transform `t(rho, xi, s)` and the derivatives
    /// `dt1/drho`, `dt3/ds` needed for chain rules.
    fn descriptors(rho: f64, xi: f64, s: f64) -> ([f64; 3], f64, f64) {
        let t = [(1.0 + rho).ln(), xi, s / (1.0 + s)];
        let dt1 = 1.0 / (1.0 + rho);
        let dt3 = 1.0 / ((1.0 + s) * (1.0 + s));
        (t, dt1, dt3)
    }

    /// Evaluate `e`, `de/drho`, `de/d|grad rho|` at one point.
    pub fn eval_point(&self, rho: f64, xi: f64, grad_norm: f64) -> PointEval {
        let rho_c = rho.max(RHO_FLOOR);
        let s = Self::reduced_gradient(rho_c, grad_norm);
        let phi = Self::phi(xi.clamp(-1.0, 1.0));
        let (t, dt1, dt3) = Self::descriptors(rho_c, xi, s);
        let (f, g) = self.net.forward_with_input_grad(&t);
        let r43 = rho_c.powf(4.0 / 3.0);
        let r13 = rho_c.powf(1.0 / 3.0);

        let e = r43 * phi * f;
        // dF/drho at fixed |grad rho| = F_t1 dt1 + F_t3 dt3 * ds/drho,
        // ds/drho = -4/3 s / rho
        let df_drho = g[0] * dt1 + g[2] * dt3 * (-4.0 / 3.0 * s / rho_c);
        let de_drho = (4.0 / 3.0) * r13 * phi * f + r43 * phi * df_drho;
        // de/d|grad rho| = rho^{4/3} phi F_t3 dt3 * ds/d|grad| ;
        // ds/d|grad| = KS / rho^{4/3}
        let de_dgrad = phi * g[2] * dt3 * KS;
        PointEval {
            e,
            de_drho,
            de_dgrad,
        }
    }

    /// XC energy of a sampled density: `sum_i w_i e_i`.
    ///
    /// Only the network *value* enters the energy, so the whole sample is
    /// evaluated in one [`BatchedMlp`] pass — one GEMM per layer over all
    /// points — instead of a per-point forward with its input-gradient
    /// sweep.
    pub fn energy(&self, rho: &[f64], xi: &[f64], grad_norm: &[f64], weights: &[f64]) -> f64 {
        let n = rho.len();
        assert!(xi.len() == n && grad_norm.len() == n && weights.len() == n);
        if n == 0 {
            return 0.0;
        }
        let mut xs = Matrix::zeros(3, n);
        for i in 0..n {
            let rho_c = rho[i].max(RHO_FLOOR);
            let s = Self::reduced_gradient(rho_c, grad_norm[i]);
            let (t, _, _) = Self::descriptors(rho_c, xi[i], s);
            xs.col_mut(i).copy_from_slice(&t);
        }
        let f = BatchedMlp::new(&self.net).forward_batch(&xs);
        (0..n)
            .map(|i| {
                let rho_c = rho[i].max(RHO_FLOOR);
                let phi = Self::phi(xi[i].clamp(-1.0, 1.0));
                weights[i] * rho_c.powf(4.0 / 3.0) * phi * f[i]
            })
            .sum()
    }

    /// Accumulate parameter gradients for one point given output adjoints.
    ///
    /// This is exact double backprop: `e` and `de_drho`/`de_dgrad` involve
    /// both the network value `F` and its input gradient `dF/dt`, so the
    /// parameter gradient combines a `ybar` and a `gbar` contribution plus
    /// a finite-difference-free second-order term approximated by the
    /// symmetric split below.
    pub fn accumulate_point_grads(
        &self,
        rho: f64,
        xi: f64,
        grad_norm: f64,
        adj: PointAdjoint,
        grads: &mut ParamGrads,
    ) {
        let rho_c = rho.max(RHO_FLOOR);
        let s = Self::reduced_gradient(rho_c, grad_norm);
        let phi = Self::phi(xi.clamp(-1.0, 1.0));
        let (t, dt1, dt3) = Self::descriptors(rho_c, xi, s);
        let r43 = rho_c.powf(4.0 / 3.0);
        let r13 = rho_c.powf(1.0 / 3.0);

        // Collect the total adjoint on F (ybar) and on dF/dt (gbar):
        // e       = r43 phi F                      -> ybar += adj.e * r43 phi
        // de_drho = 4/3 r13 phi F
        //         + r43 phi (F_t1 dt1 - F_t3 dt3 4s/(3 rho))
        //                                          -> ybar += adj.de_drho * 4/3 r13 phi
        //                                          -> gbar[0] += adj.de_drho * r43 phi dt1
        //                                          -> gbar[2] += adj.de_drho * r43 phi dt3 * (-4s/(3rho))
        // de_dgrad = phi F_t3 dt3 KS              -> gbar[2] += adj.de_dgrad * phi dt3 KS
        let ybar = adj.e * r43 * phi + adj.de_drho * (4.0 / 3.0) * r13 * phi;
        let mut gbar = [0.0; 3];
        gbar[0] = adj.de_drho * r43 * phi * dt1;
        gbar[2] = adj.de_drho * r43 * phi * dt3 * (-4.0 / 3.0 * s / rho_c)
            + adj.de_dgrad * phi * dt3 * KS;

        let g = self.net.grad_params(&t, ybar, &gbar);
        grads.add_assign(&g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_is_one_for_unpolarized_and_scales_for_polarized() {
        assert!((MlxcModel::phi(0.0) - 1.0).abs() < 1e-14);
        assert!((MlxcModel::phi(1.0) - 0.5 * 2f64.powf(4.0 / 3.0)).abs() < 1e-14);
        assert_eq!(MlxcModel::phi(0.5), MlxcModel::phi(-0.5)); // even in xi
    }

    #[test]
    fn reduced_gradient_matches_definition() {
        let rho = 0.8;
        let g = 0.5;
        let s = MlxcModel::reduced_gradient(rho, g);
        let expect =
            (3.0 * std::f64::consts::PI.powi(2)).powf(1.0 / 3.0) * g / (2.0 * rho.powf(4.0 / 3.0));
        assert!((s - expect).abs() < 1e-12);
    }

    #[test]
    fn de_drho_matches_finite_difference() {
        let m = MlxcModel::new(9);
        let (xi, gn) = (0.0, 0.3);
        let rho = 0.6;
        let p = m.eval_point(rho, xi, gn);
        let eps = 1e-6;
        let ep = m.eval_point(rho + eps, xi, gn).e;
        let em = m.eval_point(rho - eps, xi, gn).e;
        let fd = (ep - em) / (2.0 * eps);
        assert!(
            (p.de_drho - fd).abs() < 1e-6 * (1.0 + fd.abs()),
            "{} vs {fd}",
            p.de_drho
        );
    }

    #[test]
    fn de_dgrad_matches_finite_difference() {
        let m = MlxcModel::new(4);
        let (rho, xi) = (0.9, 0.0);
        let gn = 0.7;
        let p = m.eval_point(rho, xi, gn);
        let eps = 1e-6;
        let ep = m.eval_point(rho, xi, gn + eps).e;
        let em = m.eval_point(rho, xi, gn - eps).e;
        let fd = (ep - em) / (2.0 * eps);
        assert!(
            (p.de_dgrad - fd).abs() < 1e-6 * (1.0 + fd.abs()),
            "{} vs {fd}",
            p.de_dgrad
        );
    }

    #[test]
    fn energy_scales_with_weights() {
        let m = MlxcModel::new(2);
        let rho = [0.5, 0.7];
        let xi = [0.0, 0.0];
        let gn = [0.1, 0.2];
        let e1 = m.energy(&rho, &xi, &gn, &[1.0, 1.0]);
        let e2 = m.energy(&rho, &xi, &gn, &[2.0, 2.0]);
        assert!((e2 - 2.0 * e1).abs() < 1e-12);
    }

    #[test]
    fn batched_energy_matches_per_point_sum() {
        let m = MlxcModel::new(17);
        let n = 29;
        let rho: Vec<f64> = (0..n).map(|i| 0.05 + 0.03 * i as f64).collect();
        let xi: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.4).sin() * 0.8).collect();
        let gn: Vec<f64> = (0..n).map(|i| 0.1 + 0.02 * i as f64).collect();
        let w: Vec<f64> = (0..n).map(|i| 0.5 + 0.01 * i as f64).collect();
        let batched = m.energy(&rho, &xi, &gn, &w);
        let per_point: f64 = (0..n)
            .map(|i| w[i] * m.eval_point(rho[i], xi[i], gn[i]).e)
            .sum();
        assert!(
            (batched - per_point).abs() < 1e-10 * (1.0 + per_point.abs()),
            "{batched} vs {per_point}"
        );
        assert!((m.energy(&[], &[], &[], &[]) - 0.0).abs() < 1e-300);
    }

    #[test]
    fn vacuum_density_is_finite() {
        let m = MlxcModel::new(0);
        let p = m.eval_point(0.0, 0.0, 0.0);
        assert!(p.e.is_finite() && p.de_drho.is_finite() && p.de_dgrad.is_finite());
    }

    #[test]
    fn point_grads_match_finite_difference_on_de_drho() {
        // adjoint only on de_drho exercises the double-backprop path
        let mut m = MlxcModel::new(21);
        let (rho, xi, gn) = (0.45, 0.0, 0.25);
        let adj = PointAdjoint {
            e: 0.0,
            de_drho: 1.0,
            de_dgrad: 0.0,
        };
        let mut grads = ParamGrads::zeros(&m.net);
        m.accumulate_point_grads(rho, xi, gn, adj, &mut grads);
        let eps = 1e-6;
        for (l, k) in [(0usize, 0usize), (2, 33), (5, 7)] {
            let orig = m.net.layers[l].w[k];
            m.net.layers[l].w[k] = orig + eps;
            let vp = m.eval_point(rho, xi, gn).de_drho;
            m.net.layers[l].w[k] = orig - eps;
            let vm = m.eval_point(rho, xi, gn).de_drho;
            m.net.layers[l].w[k] = orig;
            let fd = (vp - vm) / (2.0 * eps);
            assert!(
                (grads.w[l][k] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "l={l} k={k}: {} vs {fd}",
                grads.w[l][k]
            );
        }
    }
}

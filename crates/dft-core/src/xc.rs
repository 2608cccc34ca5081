//! Exchange-correlation functionals and their FE evaluation.
//!
//! The accuracy ladder of the paper's Fig. 1 is represented by:
//!
//! * [`Lda`] — Level 1: Slater exchange + Perdew-Wang-92 correlation;
//! * [`Pbe`] — Level 2: the PBE GGA;
//! * [`MlxcFunctional`] — Level 4+: the machine-learned functional trained
//!   on exact XC potentials from inverse DFT;
//! * [`SyntheticTruth`] — the *hidden-truth* functional that plays the role
//!   of the quantum many-body answer in this reproduction (DESIGN.md S2):
//!   densities generated with it stand in for CI/CC/QMC densities, invDFT
//!   must recover its potential from the density alone, and accuracy
//!   figures measure error against it. It is a GGA-form functional with
//!   deliberately different enhancement parameters from PBE, so that both
//!   LDA and PBE are measurably "wrong" against it.
//!
//! GGA potentials use `v = de/drho - div(de/d|grad rho| * grad rho /
//! |grad rho|)` with the divergence assembled by mass-weighted FE recovery
//! ([`FeSpace::divergence`]); [`FeDivergence`] hands it and its exact
//! adjoint to MLXC training.

use dft_fem::field::NodalField;
use dft_fem::space::FeSpace;
use dft_mlxc::functional::MlxcModel;
use dft_mlxc::train::DivergenceOp;
use std::sync::Arc;

/// Pointwise functional data: energy density and its partials.
#[derive(Clone, Copy, Debug, Default)]
pub struct XcPoint {
    /// XC energy density per volume.
    pub e: f64,
    /// `de/drho` at fixed `|grad rho|`.
    pub de_drho: f64,
    /// `de/d|grad rho|`.
    pub de_dgrad: f64,
}

/// An exchange-correlation functional of `(rho, |grad rho|)`.
pub trait XcFunctional: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Whether the functional uses the density gradient.
    fn needs_gradient(&self) -> bool;
    /// Pointwise evaluation.
    fn eval_point(&self, rho: f64, grad_norm: f64) -> XcPoint;
}

/// Result of evaluating a functional on a density field.
#[derive(Clone, Debug)]
pub struct XcEvaluation {
    /// Total XC energy.
    pub energy: f64,
    /// XC potential at every node.
    pub vxc: Vec<f64>,
    /// XC energy density at every node.
    pub exc_density: Vec<f64>,
}

/// Floor protecting `rho^{-1/3}`-type expressions in vacuum.
const RHO_FLOOR: f64 = 1e-12;

/// Evaluate a functional on a nodal density: energy, potential (including
/// the GGA divergence term), and the energy density.
pub fn evaluate_xc(space: &FeSpace, rho: &NodalField, xc: &dyn XcFunctional) -> XcEvaluation {
    let n = space.nnodes();
    let (grad, grad_norm): (Option<[NodalField; 3]>, Vec<f64>) = if xc.needs_gradient() {
        let g = rho.gradient(space);
        let gn = (0..n)
            .map(|i| {
                (g[0].values[i].powi(2) + g[1].values[i].powi(2) + g[2].values[i].powi(2)).sqrt()
            })
            .collect();
        (Some(g), gn)
    } else {
        (None, vec![0.0; n])
    };

    let mut exc_density = vec![0.0; n];
    let mut vloc = vec![0.0; n];
    let mut cgrad = vec![0.0; n];
    for i in 0..n {
        let p = xc.eval_point(rho.values[i].max(0.0), grad_norm[i]);
        exc_density[i] = p.e;
        vloc[i] = p.de_drho;
        cgrad[i] = p.de_dgrad;
    }
    let energy = space.integrate(&exc_density);

    let vxc = if let Some(g) = grad {
        // divergence of c * grad(rho)/|grad(rho)|
        let mut vx = vec![0.0; n];
        let mut vy = vec![0.0; n];
        let mut vz = vec![0.0; n];
        for i in 0..n {
            if grad_norm[i] > 1e-12 {
                let c = cgrad[i] / grad_norm[i];
                vx[i] = c * g[0].values[i];
                vy[i] = c * g[1].values[i];
                vz[i] = c * g[2].values[i];
            }
        }
        let div = space.divergence([&vx, &vy, &vz]);
        (0..n).map(|i| vloc[i] - div[i]).collect()
    } else {
        vloc
    };

    XcEvaluation {
        energy,
        vxc,
        exc_density,
    }
}

// ---------------------------------------------------------------------------
// LDA: Slater exchange + PW92 correlation
// ---------------------------------------------------------------------------

/// Level-1 local density approximation (Slater X + PW92 C, unpolarized).
pub struct Lda;

/// PW92 correlation energy per electron, unpolarized.
fn pw92_ec(rs: f64) -> f64 {
    const A: f64 = 0.031091;
    const A1: f64 = 0.21370;
    const B1: f64 = 7.5957;
    const B2: f64 = 3.5876;
    const B3: f64 = 1.6382;
    const B4: f64 = 0.49294;
    let s = rs.sqrt();
    let q = 2.0 * A * (B1 * s + B2 * rs + B3 * rs * s + B4 * rs * rs);
    -2.0 * A * (1.0 + A1 * rs) * (1.0 + 1.0 / q).ln()
}

/// `r_s` from the density.
fn rs_of_rho(rho: f64) -> f64 {
    (3.0 / (4.0 * std::f64::consts::PI * rho.max(RHO_FLOOR))).powf(1.0 / 3.0)
}

impl XcFunctional for Lda {
    fn name(&self) -> &'static str {
        "LDA(PW92)"
    }
    fn needs_gradient(&self) -> bool {
        false
    }
    fn eval_point(&self, rho: f64, _grad_norm: f64) -> XcPoint {
        let rho = rho.max(RHO_FLOOR);
        let cx = -(3.0 / 4.0) * (3.0 / std::f64::consts::PI).powf(1.0 / 3.0);
        let ex = cx * rho.powf(4.0 / 3.0);
        let vx = (4.0 / 3.0) * cx * rho.powf(1.0 / 3.0);
        // correlation: e_c = rho * eps_c(rs); v_c = eps_c - rs/3 deps/drs
        let rs = rs_of_rho(rho);
        let h = rs * 1e-6;
        let ec = pw92_ec(rs);
        let dec = (pw92_ec(rs + h) - pw92_ec(rs - h)) / (2.0 * h);
        XcPoint {
            e: ex + rho * ec,
            de_drho: vx + ec - (rs / 3.0) * dec,
            de_dgrad: 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// GGA family: PBE and the hidden truth
// ---------------------------------------------------------------------------

/// Parameters of a PBE-form GGA.
struct GgaParams {
    /// Exchange enhancement limit kappa.
    kappa: f64,
    /// Exchange gradient coefficient mu.
    mu: f64,
    /// Correlation gradient coefficient beta.
    beta: f64,
    /// Overall correlation scaling (1.0 for genuine PBE).
    c_scale: f64,
}

const PBE: GgaParams = GgaParams {
    kappa: 0.804,
    mu: 0.219_514_972_764_517_1,
    beta: 0.066_725,
    c_scale: 1.0,
};

/// Same functional *form* as PBE, different physics: a stand-in for the
/// quantum many-body answer.
const TRUTH: GgaParams = GgaParams {
    kappa: 0.62,
    mu: 0.31,
    beta: 0.046,
    c_scale: 1.08,
};

/// Level-2 PBE.
pub struct Pbe;
/// The hidden many-body "truth" of this reproduction (DESIGN.md S2).
pub struct SyntheticTruth;

/// PBE-form GGA energy density (unpolarized).
fn gga_energy_density(p: &GgaParams, rho: f64, g: f64) -> f64 {
    let rho = rho.max(RHO_FLOOR);
    let pi = std::f64::consts::PI;
    // exchange
    let kf = (3.0 * pi * pi * rho).powf(1.0 / 3.0);
    let s = g / (2.0 * kf * rho);
    let fx = 1.0 + p.kappa - p.kappa / (1.0 + p.mu * s * s / p.kappa);
    let cx = -(3.0 / 4.0) * (3.0 / pi).powf(1.0 / 3.0);
    let ex = cx * rho.powf(4.0 / 3.0) * fx;
    // correlation with gradient term H
    let rs = rs_of_rho(rho);
    let ec_unif = pw92_ec(rs);
    let gamma = (1.0 - (2.0f64).ln()) / (pi * pi);
    let ks = (4.0 * kf / pi).sqrt();
    let t2 = (g / (2.0 * ks * rho)).powi(2);
    let expo = (-ec_unif / gamma).exp();
    let a = if expo > 1.0 + 1e-14 {
        p.beta / gamma / (expo - 1.0)
    } else {
        1e10
    };
    let num = 1.0 + a * t2;
    let den = 1.0 + a * t2 + a * a * t2 * t2;
    let h = gamma * (1.0 + p.beta / gamma * t2 * num / den).ln();
    ex + p.c_scale * rho * (ec_unif + h)
}

/// A PBE-form GGA at one point. The potential partials are produced by
/// differencing the smooth `e(rho, g)` — robust and exact to ~1e-8,
/// avoiding pages of analytic chain rule.
fn gga_point(p: &GgaParams, rho: f64, grad_norm: f64) -> XcPoint {
    let rho = rho.max(RHO_FLOOR);
    let e = gga_energy_density(p, rho, grad_norm);
    let hr = rho * 1e-6 + 1e-12;
    let hg = grad_norm * 1e-6 + 1e-10;
    let de_drho = (gga_energy_density(p, rho + hr, grad_norm)
        - gga_energy_density(p, (rho - hr).max(RHO_FLOOR), grad_norm))
        / (rho + hr - (rho - hr).max(RHO_FLOOR));
    let de_dgrad = (gga_energy_density(p, rho, grad_norm + hg)
        - gga_energy_density(p, rho, (grad_norm - hg).max(0.0)))
        / (grad_norm + hg - (grad_norm - hg).max(0.0));
    XcPoint {
        e,
        de_drho,
        de_dgrad,
    }
}

impl XcFunctional for Pbe {
    fn name(&self) -> &'static str {
        "PBE"
    }
    fn needs_gradient(&self) -> bool {
        true
    }
    fn eval_point(&self, rho: f64, grad_norm: f64) -> XcPoint {
        gga_point(&PBE, rho, grad_norm)
    }
}

impl XcFunctional for SyntheticTruth {
    fn name(&self) -> &'static str {
        "SyntheticTruth"
    }
    fn needs_gradient(&self) -> bool {
        true
    }
    fn eval_point(&self, rho: f64, grad_norm: f64) -> XcPoint {
        gga_point(&TRUTH, rho, grad_norm)
    }
}

// ---------------------------------------------------------------------------
// MLXC adapter
// ---------------------------------------------------------------------------

/// The machine-learned functional as an [`XcFunctional`] (spin-unpolarized
/// path, `xi = 0`).
pub struct MlxcFunctional {
    /// The trained model.
    pub model: MlxcModel,
}

impl MlxcFunctional {
    /// Wrap a trained model.
    pub fn new(model: MlxcModel) -> Self {
        Self { model }
    }
}

impl XcFunctional for MlxcFunctional {
    fn name(&self) -> &'static str {
        "MLXC"
    }
    fn needs_gradient(&self) -> bool {
        true
    }
    fn eval_point(&self, rho: f64, grad_norm: f64) -> XcPoint {
        let p = self.model.eval_point(rho, 0.0, grad_norm);
        XcPoint {
            e: p.e,
            de_drho: p.de_drho,
            de_dgrad: p.de_dgrad,
        }
    }
}

// ---------------------------------------------------------------------------
// FE divergence with exact adjoint (for GGA potentials and MLXC training)
// ---------------------------------------------------------------------------

/// The FE divergence `M^{-1} sum_d A_d v_d` of a space as an MLXC
/// [`DivergenceOp`], with its exact adjoint `A_d^T (M^{-1} lambda)` (needed
/// to backpropagate the MLXC potential loss). It owns its space because a
/// training sample outlives the solve that produced it.
pub struct FeDivergence(pub Arc<FeSpace>);

impl DivergenceOp for FeDivergence {
    fn divergence(&self, vx: &[f64], vy: &[f64], vz: &[f64]) -> Vec<f64> {
        self.0.divergence([vx, vy, vz])
    }
    fn adjoint(&self, lambda: &[f64]) -> [Vec<f64>; 3] {
        let m = self.0.mass_diag();
        let lm: Vec<f64> = lambda.iter().zip(m.iter()).map(|(&l, &w)| l / w).collect();
        self.0.deriv_mass_t([&lm, &lm, &lm])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fem::mesh::{Axis, BoundaryCondition, Mesh3d};

    #[test]
    fn lda_exchange_only_limit() {
        // at rho where correlation is tiny vs exchange, e ~ cx rho^{4/3}
        let p = Lda.eval_point(1.0, 0.0);
        let cx = -(3.0 / 4.0) * (3.0 / std::f64::consts::PI).powf(1.0 / 3.0);
        assert!(p.e < cx * 0.9); // exchange plus negative correlation
        assert!(p.e > cx * 1.3);
        // v_x part: 4/3 cx rho^{1/3}
        assert!(p.de_drho < 0.0);
    }

    #[test]
    fn lda_potential_is_derivative_of_energy_density() {
        for &rho in &[0.05, 0.3, 1.0, 4.0] {
            let h = rho * 1e-6;
            let ep = Lda.eval_point(rho + h, 0.0).e;
            let em = Lda.eval_point(rho - h, 0.0).e;
            let fd = (ep - em) / (2.0 * h);
            let v = Lda.eval_point(rho, 0.0).de_drho;
            assert!((v - fd).abs() < 1e-5 * fd.abs(), "rho={rho}: {v} vs {fd}");
        }
    }

    #[test]
    fn pbe_reduces_to_lda_at_zero_gradient() {
        for &rho in &[0.1, 0.7, 2.0] {
            let lda = Lda.eval_point(rho, 0.0);
            let pbe = Pbe.eval_point(rho, 0.0);
            assert!(
                (lda.e - pbe.e).abs() < 2e-4 * lda.e.abs(),
                "rho={rho}: {} vs {}",
                lda.e,
                pbe.e
            );
        }
    }

    #[test]
    fn pbe_exchange_enhancement_lowers_energy_with_gradient() {
        let rho = 0.5;
        let e0 = Pbe.eval_point(rho, 0.0).e;
        let e1 = Pbe.eval_point(rho, 1.0).e;
        assert!(e1 < e0, "gradient should enhance (more negative) exchange");
    }

    #[test]
    fn truth_differs_from_pbe_and_lda() {
        let rho = 0.4;
        let g = 0.5;
        let t = SyntheticTruth.eval_point(rho, g).e;
        let p = Pbe.eval_point(rho, g).e;
        let l = Lda.eval_point(rho, g).e;
        assert!((t - p).abs() > 1e-4 * p.abs());
        assert!((t - l).abs() > 1e-3 * l.abs());
    }

    #[test]
    fn evaluate_xc_lda_on_constant_density() {
        let space = FeSpace::new(Mesh3d::cube(2, 4.0, 2));
        let rho = NodalField::from_fn(&space, |_| 0.8);
        let out = evaluate_xc(&space, &rho, &Lda);
        let point = Lda.eval_point(0.8, 0.0);
        assert!((out.energy - point.e * 64.0).abs() < 1e-8);
        for &v in &out.vxc {
            assert!((v - point.de_drho).abs() < 1e-10);
        }
    }

    #[test]
    fn evaluate_xc_gga_constant_density_has_no_divergence_term() {
        let space = FeSpace::new(Mesh3d::cube(2, 4.0, 3));
        let rho = NodalField::from_fn(&space, |_| 0.5);
        let out = evaluate_xc(&space, &rho, &Pbe);
        let point = Pbe.eval_point(0.5, 0.0);
        for &v in &out.vxc {
            assert!((v - point.de_drho).abs() < 1e-7);
        }
    }

    /// Dirichlet box of edge `l` whose cells shrink toward an off-centre
    /// point.
    fn graded_space(l: f64, p: usize) -> FeSpace {
        let ax = || {
            Axis::graded(
                0.0,
                l,
                0.6,
                1.6,
                &[0.3 * l],
                1.5,
                BoundaryCondition::Dirichlet,
            )
        };
        FeSpace::new(Mesh3d::new([ax(), ax(), ax()], p))
    }

    /// The components of `f` at every node of `space`.
    fn sample(space: &FeSpace, f: impl Fn([f64; 3]) -> [f64; 3]) -> [Vec<f64>; 3] {
        let at: Vec<[f64; 3]> = (0..space.nnodes())
            .map(|i| f(space.node_coord(i)))
            .collect();
        [0, 1, 2].map(|d| at.iter().map(|v| v[d]).collect())
    }

    #[test]
    fn fe_divergence_of_linear_field_is_constant() {
        for space in [FeSpace::new(Mesh3d::cube(2, 4.0, 3)), graded_space(4.0, 3)] {
            let d = FeDivergence(Arc::new(space));
            // v = (x, 2y, -z) -> div = 2
            let [vx, vy, vz] = sample(&d.0, |[x, y, z]| [x, 2.0 * y, -z]);
            let div = d.divergence(&vx, &vy, &vz);
            for &v in &div {
                assert!((v - 2.0).abs() < 1e-9, "{v}");
            }
        }
        // A linear field is not periodic: on the fully periodic mesh, a
        // resolved trigonometric one, whose divergence is accurate at the
        // seam only if the cells there read the wrapped nodes.
        let d = FeDivergence(Arc::new(FeSpace::new(Mesh3d::periodic_cube(3, 6.0, 6))));
        let k = std::f64::consts::PI / 3.0;
        let [vx, vy, vz] = sample(&d.0, |[x, y, z]| {
            [(k * x).sin(), (k * y).sin(), (k * z).cos()]
        });
        let div = d.divergence(&vx, &vy, &vz);
        for (i, &v) in div.iter().enumerate() {
            let [x, y, z] = d.0.node_coord(i);
            let exact = k * ((k * x).cos() + (k * y).cos() - (k * z).sin());
            assert!(
                (v - exact).abs() < 2e-3,
                "periodic: {v} vs {exact} at node {i}"
            );
        }
    }

    #[test]
    fn fe_divergence_adjoint_identity() {
        for space in [
            FeSpace::new(Mesh3d::cube(2, 3.0, 2)),
            FeSpace::new(Mesh3d::periodic_cube(2, 3.0, 3)),
            graded_space(3.0, 2),
        ] {
            let n = space.nnodes();
            let d = FeDivergence(Arc::new(space));
            let vx: Vec<f64> = (0..n).map(|i| ((i * 7) as f64 * 0.13).sin()).collect();
            let vy: Vec<f64> = (0..n).map(|i| ((i * 3) as f64 * 0.29).cos()).collect();
            let vz: Vec<f64> = (0..n).map(|i| ((i * 11) as f64 * 0.17).sin()).collect();
            let lam: Vec<f64> = (0..n).map(|i| ((i * 5) as f64 * 0.37).cos()).collect();
            let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
            let lhs = dot(&lam, &d.divergence(&vx, &vy, &vz));
            let adj = d.adjoint(&lam);
            let rhs = dot(&adj[0], &vx) + dot(&adj[1], &vy) + dot(&adj[2], &vz);
            assert!(
                (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
                "{lhs} vs {rhs}"
            );
        }
    }

    /// The GGA point evaluation keeps the bits it had when PBE and the
    /// hidden truth were separate `XcFunctional` bodies: the hash folds
    /// `to_bits` of `e`, `de/drho` and `de/d|grad rho|` over a grid of
    /// `(rho, |grad rho|)` spanning the density floor to core densities.
    #[test]
    fn gga_point_values_keep_their_bits() {
        for (f, pinned) in [
            (&Pbe as &dyn XcFunctional, 0x99e3_bebb_50c5_4fd5u64),
            (&SyntheticTruth, 0xc8fa_26dd_a09c_abdb),
        ] {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for rho in [0.0, 1e-13, 1e-9, 1e-3, 0.05, 0.4, 1.7, 12.0] {
                for g in [0.0, 1e-11, 1e-6, 0.3, 2.5, 40.0] {
                    let p = f.eval_point(rho, g);
                    for x in [p.e, p.de_drho, p.de_dgrad] {
                        h = (h ^ x.to_bits()).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
            assert_eq!(h, pinned, "{}", f.name());
        }
    }

    #[test]
    fn mlxc_adapter_finite_everywhere() {
        let f = MlxcFunctional::new(MlxcModel::new(5));
        for &(r, g) in &[(0.0, 0.0), (1e-8, 1.0), (2.0, 5.0)] {
            let p = f.eval_point(r, g);
            assert!(p.e.is_finite() && p.de_drho.is_finite() && p.de_dgrad.is_finite());
        }
    }
}

//! Training of the MLXC functional from `{rho, v_xc^exact}` pairs.
//!
//! The paper's composite loss (Sec. 5.2): mean-squared errors in the XC
//! energy `E_xc` and the density-weighted XC potential `rho * v_xc`, with
//! `v_xc^ML` obtained by backpropagation. Since
//! `v_xc = de/drho - div(de/d|grad rho| * grad rho/|grad rho|)`, the loss
//! gradient must traverse a (linear, mesh-dependent) divergence operator:
//! callers supply it through [`DivergenceOp`], including its adjoint, and
//! the chain rule closes through
//! [`crate::functional::MlxcModel::accumulate_point_grads`].

use crate::adam::Adam;
use crate::functional::{MlxcModel, PointAdjoint};
use crate::nn::ParamGrads;

/// A linear divergence operator on nodal vector fields, with its adjoint.
///
/// The FE implementation lives in dft-core (it owns the mesh); tests here
/// use a 1D periodic finite-difference operator.
pub trait DivergenceOp {
    /// `div(v)` for a nodal vector field given by components.
    fn divergence(&self, vx: &[f64], vy: &[f64], vz: &[f64]) -> Vec<f64>;
    /// Adjoint fields `A_d` with `<lambda, div(v)> = sum_d <A_d, v_d>`.
    fn adjoint(&self, lambda: &[f64]) -> [Vec<f64>; 3];
}

/// One training system (one molecule/atom from invDFT).
pub struct SystemSample {
    /// Name (for logs).
    pub name: String,
    /// Electron density at nodes.
    pub rho: Vec<f64>,
    /// Relative spin density at nodes.
    pub xi: Vec<f64>,
    /// Density gradient components at nodes.
    pub grad: [Vec<f64>; 3],
    /// Integration weights (diagonal mass).
    pub weights: Vec<f64>,
    /// Target exact XC potential at nodes (from invDFT).
    pub vxc_target: Vec<f64>,
    /// Target XC energy of the system.
    pub exc_target: f64,
    /// Divergence operator of this system's mesh.
    pub div_op: Box<dyn DivergenceOp>,
}

impl SystemSample {
    /// Gradient magnitude at each node.
    pub fn grad_norm(&self) -> Vec<f64> {
        (0..self.rho.len())
            .map(|i| {
                (self.grad[0][i].powi(2) + self.grad[1][i].powi(2) + self.grad[2][i].powi(2)).sqrt()
            })
            .collect()
    }
}

/// The training set.
pub type Dataset = Vec<SystemSample>;

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Weight of the XC-energy MSE term.
    pub w_energy: f64,
    /// Weight of the density-weighted-potential MSE term.
    pub w_potential: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 2e-3,
            w_energy: 1.0,
            w_potential: 1.0,
        }
    }
}

/// Training outcome.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Loss after each epoch.
    pub loss_history: Vec<f64>,
    /// Final composite loss.
    pub final_loss: f64,
}

/// Composite loss and its parameter gradient over the whole dataset.
pub fn loss_and_grads(model: &MlxcModel, data: &Dataset, cfg: &TrainConfig) -> (f64, ParamGrads) {
    let mut grads = ParamGrads::zeros(&model.net);
    let mut loss = 0.0;
    for sys in data {
        let n = sys.rho.len();
        let gn = sys.grad_norm();
        // forward: pointwise evals
        let evals: Vec<_> = (0..n)
            .map(|i| model.eval_point(sys.rho[i], sys.xi[i], gn[i]))
            .collect();
        let exc: f64 = (0..n).map(|i| sys.weights[i] * evals[i].e).sum();
        let mut vx = vec![0.0; n];
        let mut vy = vec![0.0; n];
        let mut vz = vec![0.0; n];
        let mut unit = vec![[0.0f64; 3]; n];
        for i in 0..n {
            if gn[i] > 1e-12 {
                let u = [
                    sys.grad[0][i] / gn[i],
                    sys.grad[1][i] / gn[i],
                    sys.grad[2][i] / gn[i],
                ];
                unit[i] = u;
                vx[i] = evals[i].de_dgrad * u[0];
                vy[i] = evals[i].de_dgrad * u[1];
                vz[i] = evals[i].de_dgrad * u[2];
            }
        }
        let div = sys.div_op.divergence(&vx, &vy, &vz);
        let v: Vec<f64> = (0..n).map(|i| evals[i].de_drho - div[i]).collect();

        // loss terms (normalized per system)
        let wsum: f64 = sys.weights.iter().sum();
        let de = exc - sys.exc_target;
        loss += cfg.w_energy * de * de;
        let mut lv = 0.0;
        let mut lambda = vec![0.0; n]; // dL/dv_i
        for i in 0..n {
            let r2 = sys.rho[i] * sys.rho[i];
            let dv = v[i] - sys.vxc_target[i];
            lv += sys.weights[i] * r2 * dv * dv;
            lambda[i] = 2.0 * cfg.w_potential * sys.weights[i] * r2 * dv / wsum;
        }
        loss += cfg.w_potential * lv / wsum;

        // adjoints: v = a - div(V);  dL/da = lambda ; dL/dV_d = -A_d
        let adj_fields = sys.div_op.adjoint(&lambda);
        for i in 0..n {
            let adj_e = 2.0 * cfg.w_energy * de * sys.weights[i];
            let adj_a = lambda[i];
            // c_i = de_dgrad; V_d = c_i * u_d => dL/dc = -sum_d A_d u_d
            let adj_c = -(adj_fields[0][i] * unit[i][0]
                + adj_fields[1][i] * unit[i][1]
                + adj_fields[2][i] * unit[i][2]);
            model.accumulate_point_grads(
                sys.rho[i],
                sys.xi[i],
                gn[i],
                PointAdjoint {
                    e: adj_e,
                    de_drho: adj_a,
                    de_dgrad: adj_c,
                },
                &mut grads,
            );
        }
    }
    (loss, grads)
}

/// Full-batch Adam training loop.
pub fn train(model: &mut MlxcModel, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    let mut opt = Adam::new(&model.net, cfg.lr);
    let mut history = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        let (loss, grads) = loss_and_grads(model, data, cfg);
        opt.step(&mut model.net, &grads);
        history.push(loss);
    }
    let final_loss = history.last().copied().unwrap_or(f64::NAN);
    TrainReport {
        loss_history: history,
        final_loss,
    }
}

/// 1D periodic central-difference divergence (x only) — used by tests and
/// by the model-problem pipelines.
pub struct PeriodicFd1d {
    /// Grid spacing.
    pub h: f64,
}

impl DivergenceOp for PeriodicFd1d {
    fn divergence(&self, vx: &[f64], _vy: &[f64], _vz: &[f64]) -> Vec<f64> {
        let n = vx.len();
        (0..n)
            .map(|i| (vx[(i + 1) % n] - vx[(i + n - 1) % n]) / (2.0 * self.h))
            .collect()
    }
    fn adjoint(&self, lambda: &[f64]) -> [Vec<f64>; 3] {
        // adjoint of central difference on a periodic grid = negative of it
        let n = lambda.len();
        let ax: Vec<f64> = (0..n)
            .map(|i| -(lambda[(i + 1) % n] - lambda[(i + n - 1) % n]) / (2.0 * self.h))
            .collect();
        [ax, vec![0.0; n], vec![0.0; n]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluate the full MLXC potential `v_xc` on one system (local part minus
    /// the divergence of the gradient correction).
    fn evaluate_vxc(model: &MlxcModel, sys: &SystemSample) -> Vec<f64> {
        let n = sys.rho.len();
        let gn = sys.grad_norm();
        let mut a = vec![0.0; n];
        let mut vx = vec![0.0; n];
        let mut vy = vec![0.0; n];
        let mut vz = vec![0.0; n];
        for i in 0..n {
            let p = model.eval_point(sys.rho[i], sys.xi[i], gn[i]);
            a[i] = p.de_drho;
            if gn[i] > 1e-12 {
                let c = p.de_dgrad / gn[i];
                vx[i] = c * sys.grad[0][i];
                vy[i] = c * sys.grad[1][i];
                vz[i] = c * sys.grad[2][i];
            }
        }
        let div = sys.div_op.divergence(&vx, &vy, &vz);
        (0..n).map(|i| a[i] - div[i]).collect()
    }

    fn toy_system(model_teacher: &MlxcModel) -> SystemSample {
        // 1D periodic density profile; targets generated by a hidden
        // "teacher" functional (the synthetic-QMB pattern of DESIGN.md S2).
        let n = 48;
        let h = 0.25;
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                0.4 + 0.3
                    * (2.0 * std::f64::consts::PI * i as f64 / n as f64)
                        .sin()
                        .powi(2)
            })
            .collect();
        let gradx: Vec<f64> = (0..n)
            .map(|i| (rho[(i + 1) % n] - rho[(i + n - 1) % n]) / (2.0 * h))
            .collect();
        let weights = vec![h; n];
        let xi = vec![0.0; n];
        let sys_partial = SystemSample {
            name: "toy".into(),
            rho: rho.clone(),
            xi,
            grad: [gradx, vec![0.0; n], vec![0.0; n]],
            weights,
            vxc_target: vec![0.0; n],
            exc_target: 0.0,
            div_op: Box::new(PeriodicFd1d { h }),
        };
        let v = evaluate_vxc(model_teacher, &sys_partial);
        let gn = sys_partial.grad_norm();
        let e = model_teacher.energy(&sys_partial.rho, &sys_partial.xi, &gn, &sys_partial.weights);
        SystemSample {
            vxc_target: v,
            exc_target: e,
            ..sys_partial
        }
    }

    #[test]
    fn fd1d_adjoint_identity() {
        let op = PeriodicFd1d { h: 0.5 };
        let n = 16;
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let l: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let div = op.divergence(&v, &v, &v);
        let lhs: f64 = l.iter().zip(div.iter()).map(|(a, b)| a * b).sum();
        let adj = op.adjoint(&l);
        let rhs: f64 = adj[0].iter().zip(v.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let teacher = MlxcModel::new(100);
        let mut student = MlxcModel::from_net(crate::nn::Mlp::new(&[3, 6, 6, 1], 7));
        let data = vec![toy_system(&teacher)];
        let cfg = TrainConfig {
            epochs: 1,
            lr: 1e-3,
            w_energy: 0.7,
            w_potential: 1.3,
        };
        let (_, grads) = loss_and_grads(&student, &data, &cfg);
        let eps = 1e-6;
        for (l, k) in [(0usize, 2usize), (1, 10), (2, 3)] {
            let orig = student.net.layers[l].w[k];
            student.net.layers[l].w[k] = orig + eps;
            let (lp, _) = loss_and_grads(&student, &data, &cfg);
            student.net.layers[l].w[k] = orig - eps;
            let (lm, _) = loss_and_grads(&student, &data, &cfg);
            student.net.layers[l].w[k] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grads.w[l][k] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "l={l} k={k}: {} vs {fd}",
                grads.w[l][k]
            );
        }
    }

    #[test]
    fn training_recovers_teacher_potential() {
        // student learns the hidden teacher's (E, v) targets — the core of
        // the MLXC pipeline
        let teacher = MlxcModel::new(55);
        let mut student = MlxcModel::from_net(crate::nn::Mlp::new(&[3, 10, 10, 1], 8));
        let data = vec![toy_system(&teacher)];
        let cfg = TrainConfig {
            epochs: 300,
            lr: 5e-3,
            w_energy: 1.0,
            w_potential: 1.0,
        };
        let (l0, _) = loss_and_grads(&student, &data, &cfg);
        let report = train(&mut student, &data, &cfg);
        assert!(
            report.final_loss < 0.05 * l0,
            "loss {l0} -> {}",
            report.final_loss
        );
        // loss history is broadly decreasing
        let early: f64 = report.loss_history[..10].iter().sum();
        let late: f64 = report.loss_history[report.loss_history.len() - 10..]
            .iter()
            .sum();
        assert!(late < early);
    }

    #[test]
    fn trained_energy_approaches_target() {
        let teacher = MlxcModel::new(71);
        let mut student = MlxcModel::from_net(crate::nn::Mlp::new(&[3, 12, 1], 17));
        let data = vec![toy_system(&teacher)];
        let cfg = TrainConfig {
            epochs: 400,
            lr: 5e-3,
            w_energy: 5.0,
            w_potential: 0.2,
        };
        train(&mut student, &data, &cfg);
        let sys = &data[0];
        let gn = sys.grad_norm();
        let e = student.energy(&sys.rho, &sys.xi, &gn, &sys.weights);
        assert!(
            (e - sys.exc_target).abs() < 0.05 * sys.exc_target.abs().max(0.1),
            "E {e} vs target {}",
            sys.exc_target
        );
    }
}

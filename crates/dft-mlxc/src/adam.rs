//! Adam optimizer over the MLP parameter set.

use crate::nn::{Mlp, ParamGrads};

/// Adam state (first/second moments mirror the parameter shapes).
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: ParamGrads,
    v: ParamGrads,
}

impl Adam {
    /// Standard Adam with the given learning rate.
    pub fn new(mlp: &Mlp, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: ParamGrads::zeros(mlp),
            v: ParamGrads::zeros(mlp),
        }
    }

    /// One parameter update from accumulated gradients.
    pub fn step(&mut self, mlp: &mut Mlp, grads: &ParamGrads) {
        self.t += 1;
        let b1c = 1.0 - self.beta1.powi(self.t as i32);
        let b2c = 1.0 - self.beta2.powi(self.t as i32);
        for l in 0..mlp.layers.len() {
            for k in 0..mlp.layers[l].w.len() {
                let g = grads.w[l][k];
                self.m.w[l][k] = self.beta1 * self.m.w[l][k] + (1.0 - self.beta1) * g;
                self.v.w[l][k] = self.beta2 * self.v.w[l][k] + (1.0 - self.beta2) * g * g;
                let mhat = self.m.w[l][k] / b1c;
                let vhat = self.v.w[l][k] / b2c;
                mlp.layers[l].w[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            for k in 0..mlp.layers[l].b.len() {
                let g = grads.b[l][k];
                self.m.b[l][k] = self.beta1 * self.m.b[l][k] + (1.0 - self.beta1) * g;
                self.v.b[l][k] = self.beta2 * self.v.b[l][k] + (1.0 - self.beta2) * g * g;
                let mhat = self.m.b[l][k] / b1c;
                let vhat = self.v.b[l][k] / b2c;
                mlp.layers[l].b[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_regression_target() {
        // fit y = 2 x0 - x1 on a tiny net
        let mut net = Mlp::new(&[2, 8, 1], 3);
        let mut opt = Adam::new(&net, 1e-2);
        let data: Vec<([f64; 2], f64)> = (0..64)
            .map(|i| {
                let x0 = (i as f64 * 0.1).sin();
                let x1 = (i as f64 * 0.07).cos();
                ([x0, x1], 2.0 * x0 - x1)
            })
            .collect();
        let loss = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, t)| (net.forward(x) - t).powi(2))
                .sum::<f64>()
                / data.len() as f64
        };
        let l0 = loss(&net);
        for _ in 0..400 {
            let mut grads = crate::nn::ParamGrads::zeros(&net);
            for (x, t) in &data {
                let y = net.forward(x);
                let g = net.grad_params(x, 2.0 * (y - t) / data.len() as f64, &[0.0, 0.0]);
                grads.add_assign(&g);
            }
            opt.step(&mut net, &grads);
        }
        let l1 = loss(&net);
        assert!(l1 < l0 * 0.05, "loss {l0} -> {l1}");
    }
}

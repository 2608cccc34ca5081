//! A scalar-output MLP with exact input gradients and double
//! backpropagation.
//!
//! The training loss of the paper penalizes the density-weighted XC
//! *potential*, which involves the network's input gradient
//! `g = dF/d(inputs)`; gradients of the loss with respect to the weights
//! therefore require differentiating through the gradient computation
//! ("double backprop"). This module implements it by hand:
//!
//! * forward:         `z_l = W_l h_{l-1} + b_l`, `h_l = sigma(z_l)`
//!   (last layer linear), output `y = h_L` (scalar);
//! * input gradient:  reverse sweep `v_{l-1} = W_l^T (v_l . sigma'(z_l))`
//!   gives `g = v_0`;
//! * param gradients of `Phi = ybar*y + <gbar, g>`: a forward `q` sweep
//!   (`q_l = (W_l q_{l-1}) . sigma'(z_l)`, `q_0 = gbar`) represents
//!   `<gbar, g>`, followed by one unified backward sweep accumulating both
//!   contributions, including the `sigma''` term.
//!
//! All of it is validated against finite differences in the tests.

use dft_linalg::gemm::gemm_slices;
use dft_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ELU activation and its first two derivatives.
#[inline]
fn elu(z: f64) -> f64 {
    if z > 0.0 {
        z
    } else {
        z.exp() - 1.0
    }
}
#[inline]
fn elu1(z: f64) -> f64 {
    if z > 0.0 {
        1.0
    } else {
        z.exp()
    }
}
#[inline]
fn elu2(z: f64) -> f64 {
    if z > 0.0 {
        0.0
    } else {
        z.exp()
    }
}

/// One dense layer (row-major weights: `w[o * n_in + i]`).
#[derive(Clone, Debug)]
pub struct Dense {
    /// Output dimension.
    pub n_out: usize,
    /// Input dimension.
    pub n_in: usize,
    /// Weights, row-major `n_out x n_in`.
    pub w: Vec<f64>,
    /// Biases, length `n_out`.
    pub b: Vec<f64>,
}

impl Dense {
    fn matvec(&self, x: &[f64], out: &mut [f64]) {
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x.iter()) {
                acc += wi * xi;
            }
            out[o] = acc;
        }
    }
    fn matvec_nobias(&self, x: &[f64], out: &mut [f64]) {
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = 0.0;
            for (wi, xi) in row.iter().zip(x.iter()) {
                acc += wi * xi;
            }
            out[o] = acc;
        }
    }
    fn matvec_t(&self, y: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let yo = y[o];
            for (oi, wi) in out.iter_mut().zip(row.iter()) {
                *oi += wi * yo;
            }
        }
    }
}

/// Gradients with the same shapes as the parameters.
#[derive(Clone, Debug)]
pub struct ParamGrads {
    /// Per-layer weight gradients.
    pub w: Vec<Vec<f64>>,
    /// Per-layer bias gradients.
    pub b: Vec<Vec<f64>>,
}

impl ParamGrads {
    /// Zero gradients shaped after `mlp`.
    pub fn zeros(mlp: &Mlp) -> Self {
        Self {
            w: mlp.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            b: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }
    /// `self += other`.
    pub fn add_assign(&mut self, other: &ParamGrads) {
        for (a, b) in self.w.iter_mut().zip(other.w.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
        for (a, b) in self.b.iter_mut().zip(other.b.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
    }
    /// Scale all entries.
    pub fn scale(&mut self, s: f64) {
        for a in self.w.iter_mut().chain(self.b.iter_mut()) {
            for x in a.iter_mut() {
                *x *= s;
            }
        }
    }
}

/// Scalar-output multilayer perceptron with ELU hidden activations and a
/// linear output layer.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Layers, input to output; the last layer has `n_out == 1`.
    pub layers: Vec<Dense>,
}

/// Forward-pass intermediates needed by the gradient routines.
pub struct ForwardCache {
    /// Pre-activations per layer.
    pub z: Vec<Vec<f64>>,
    /// Post-activations per layer (h[0] is the input).
    pub h: Vec<Vec<f64>>,
}

impl Mlp {
    /// Construct with He-style random initialization. `sizes` includes the
    /// input dimension and the final scalar output, e.g. the paper's
    /// architecture for 3 descriptors is `[3, 80, 80, 80, 80, 80, 1]`.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2 && *sizes.last().unwrap() == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|wnd| {
                let (n_in, n_out) = (wnd[0], wnd[1]);
                let scale = (2.0 / n_in as f64).sqrt();
                Dense {
                    n_out,
                    n_in,
                    w: (0..n_out * n_in)
                        .map(|_| scale * (rng.gen::<f64>() * 2.0 - 1.0))
                        .collect(),
                    b: vec![0.0; n_out],
                }
            })
            .collect();
        Self { layers }
    }

    /// The paper's architecture: 5 hidden layers of 80 neurons.
    pub fn paper_architecture(n_inputs: usize, seed: u64) -> Self {
        Self::new(&[n_inputs, 80, 80, 80, 80, 80, 1], seed)
    }

    /// Input dimension.
    pub fn n_inputs(&self) -> usize {
        self.layers[0].n_in
    }

    fn forward_cache(&self, x: &[f64]) -> ForwardCache {
        let nl = self.layers.len();
        let mut z = Vec::with_capacity(nl);
        let mut h = Vec::with_capacity(nl + 1);
        h.push(x.to_vec());
        for (l, layer) in self.layers.iter().enumerate() {
            let mut zl = vec![0.0; layer.n_out];
            layer.matvec(&h[l], &mut zl);
            let hl = if l + 1 == nl {
                zl.clone() // linear output layer
            } else {
                zl.iter().map(|&v| elu(v)).collect()
            };
            z.push(zl);
            h.push(hl);
        }
        ForwardCache { z, h }
    }

    /// `(y, g)` with `g = dF/dx`.
    pub fn forward_with_input_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let cache = self.forward_cache(x);
        let nl = self.layers.len();
        let y = cache.h[nl][0];
        // reverse sweep: v_{l-1} = W_l^T (v_l . sigma'(z_l))
        let mut v = vec![1.0]; // v_L, scalar (linear output)
        for l in (0..nl).rev() {
            let layer = &self.layers[l];
            let vs: Vec<f64> = if l + 1 == nl {
                v.clone()
            } else {
                v.iter()
                    .zip(cache.z[l].iter())
                    .map(|(&vi, &zi)| vi * elu1(zi))
                    .collect()
            };
            let mut prev = vec![0.0; layer.n_in];
            layer.matvec_t(&vs, &mut prev);
            v = prev;
        }
        (y, v)
    }

    /// Exact parameter gradients of `Phi = ybar * y + <gbar, g>`, where
    /// `y = F(x)` and `g = dF/dx` — double backpropagation.
    pub fn grad_params(&self, x: &[f64], ybar: f64, gbar: &[f64]) -> ParamGrads {
        let nl = self.layers.len();
        let cache = self.forward_cache(x);

        // Reverse sweep storing v_l and the masked v (vs_l = v_l . s_l)
        // so we can rebuild the q-sweep adjoints. s_l = sigma'(z_l)
        // (identity for the output layer).
        let mut v_list = vec![Vec::new(); nl + 1]; // v_l for l = 0..=nl
        v_list[nl] = vec![1.0];
        for l in (0..nl).rev() {
            let layer = &self.layers[l];
            let vs: Vec<f64> = if l + 1 == nl {
                v_list[nl].clone()
            } else {
                v_list[l + 1]
                    .iter()
                    .zip(cache.z[l].iter())
                    .map(|(&vi, &zi)| vi * elu1(zi))
                    .collect()
            };
            let mut prev = vec![0.0; layer.n_in];
            layer.matvec_t(&vs, &mut prev);
            v_list[l] = prev;
        }

        // Forward q-sweep representing <gbar, g>:
        // q_0 = gbar; a_l = W_l q_{l-1}; q_l = a_l . s_l.
        let mut q_list = Vec::with_capacity(nl + 1);
        q_list.push(gbar.to_vec());
        let mut a_list = Vec::with_capacity(nl);
        for (l, layer) in self.layers.iter().enumerate() {
            let mut a = vec![0.0; layer.n_out];
            layer.matvec_nobias(&q_list[l], &mut a);
            let q = if l + 1 == nl {
                a.clone()
            } else {
                a.iter()
                    .zip(cache.z[l].iter())
                    .map(|(&ai, &zi)| ai * elu1(zi))
                    .collect()
            };
            a_list.push(a);
            q_list.push(q);
        }

        // Unified backward sweep. Adjoint state:
        //   hbar_l  — adjoint of h_l (post-activation)
        //   qbar_l  — adjoint of q_l
        let mut grads = ParamGrads::zeros(self);
        let mut hbar = vec![ybar]; // y = h_L (scalar)
        let mut qbar = vec![1.0]; // Phi_g = q_L (scalar)
        for l in (0..nl).rev() {
            let layer = &self.layers[l];
            let is_out = l + 1 == nl;
            let n_out = layer.n_out;
            // s_l, sigma''(z_l)
            let zl = &cache.z[l];
            // sbar_l = qbar_l . a_l  (only where activation nonlinear)
            // zbar_l = hbar_l . s_l + sbar_l . sigma''(z_l)
            let mut zbar = vec![0.0; n_out];
            let mut abar = vec![0.0; n_out];
            for o in 0..n_out {
                let s = if is_out { 1.0 } else { elu1(zl[o]) };
                let s2 = if is_out { 0.0 } else { elu2(zl[o]) };
                let sbar = qbar[o] * a_list[l][o] * if is_out { 0.0 } else { 1.0 };
                zbar[o] = hbar[o] * s + sbar * s2;
                abar[o] = qbar[o] * s;
            }
            // parameter grads: W_l gets zbar h_{l-1}^T + abar q_{l-1}^T
            for o in 0..n_out {
                let row = &mut grads.w[l][o * layer.n_in..(o + 1) * layer.n_in];
                for i in 0..layer.n_in {
                    row[i] += zbar[o] * cache.h[l][i] + abar[o] * q_list[l][i];
                }
                grads.b[l][o] += zbar[o];
            }
            // propagate
            let mut hprev = vec![0.0; layer.n_in];
            layer.matvec_t(&zbar, &mut hprev);
            let mut qprev = vec![0.0; layer.n_in];
            layer.matvec_t(&abar, &mut qprev);
            hbar = hprev;
            qbar = qprev;
        }
        grads
    }
}

/// Batched MLP inference: evaluate the network on many input points at
/// once, turning the per-point `W h` matvecs into one GEMM per layer over
/// the whole batch — which rides the packed SIMD microkernel engine of
/// `dft_linalg` instead of the scalar row loops in [`Dense::matvec`].
///
/// `Dense` stores `W` row-major (`n_out x n_in`), which is exactly the
/// column-major `n_in x n_out` matrix `W^T`; each layer is therefore
/// `Z = op(W^T)^T H = gemm(W^T, ConjTrans, H)` with zero repacking cost.
/// Activation buffers ping-pong and are recycled across calls.
pub struct BatchedMlp {
    /// Per-layer `(W^T as a column-major n_in x n_out matrix, bias)`.
    layers: Vec<(Matrix<f64>, Vec<f64>)>,
    h0: Vec<f64>,
    h1: Vec<f64>,
}

impl BatchedMlp {
    /// Capture the weights of `mlp` for batched evaluation.
    pub fn new(mlp: &Mlp) -> Self {
        let layers = mlp
            .layers
            .iter()
            .map(|l| (Matrix::from_vec(l.n_in, l.n_out, l.w.clone()), l.b.clone()))
            .collect();
        Self {
            layers,
            h0: Vec::new(),
            h1: Vec::new(),
        }
    }

    /// Evaluate the network on `xs` (column-major `n_inputs x npoints`, one
    /// point per column), writing the scalar outputs into `out` (resized to
    /// `npoints`). Allocation-free in steady state.
    // dftlint:hot
    pub fn forward_batch_into(&mut self, xs: &Matrix<f64>, out: &mut Vec<f64>) {
        let np = xs.ncols();
        let nl = self.layers.len();
        assert_eq!(
            xs.nrows(),
            self.layers[0].0.nrows(),
            "BatchedMlp: input dimension mismatch"
        );
        let BatchedMlp { layers, h0, h1 } = self;
        if h0.len() < xs.as_slice().len() {
            h0.resize(xs.as_slice().len(), 0.0);
        }
        h0[..xs.as_slice().len()].copy_from_slice(xs.as_slice());
        let mut cur: &mut Vec<f64> = h0;
        let mut nxt: &mut Vec<f64> = h1;
        let mut n_in = xs.nrows();
        for (l, (wt, b)) in layers.iter().enumerate() {
            let n_out = wt.ncols();
            if nxt.len() < n_out * np {
                nxt.resize(n_out * np, 0.0);
            }
            gemm_slices(
                n_out,
                np,
                n_in,
                1.0,
                wt.as_slice(),
                wt.nrows(),
                true,
                &cur[..n_in * np],
                n_in,
                false,
                0.0,
                &mut nxt[..n_out * np],
            );
            let last = l + 1 == nl;
            for col in nxt[..n_out * np].chunks_exact_mut(n_out) {
                for (v, &bo) in col.iter_mut().zip(b.iter()) {
                    let z = *v + bo;
                    *v = if last { z } else { elu(z) };
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
            n_in = n_out;
        }
        out.resize(np, 0.0);
        out.copy_from_slice(&cur[..np]);
    }

    /// Convenience wrapper returning a fresh output vector.
    pub fn forward_batch(&mut self, xs: &Matrix<f64>) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_batch_into(xs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mlp {
        /// Scalar output `y = F(x)`.
        pub(crate) fn forward(&self, x: &[f64]) -> f64 {
            self.forward_cache(x).h.last().unwrap()[0]
        }
    }

    fn tiny_net(seed: u64) -> Mlp {
        Mlp::new(&[3, 7, 5, 1], seed)
    }

    #[test]
    fn forward_is_deterministic_and_seed_dependent() {
        let a = tiny_net(1);
        let b = tiny_net(1);
        let c = tiny_net(2);
        let x = [0.3, -0.8, 1.2];
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = tiny_net(7);
        let x = [0.25, -0.6, 0.9];
        let (_, g) = net.forward_with_input_grad(&x);
        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let fd = (net.forward(&xp) - net.forward(&xm)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-7, "i={i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn param_gradients_of_y_match_finite_differences() {
        let mut net = tiny_net(3);
        let x = [0.5, 0.1, -0.4];
        let grads = net.grad_params(&x, 1.0, &[0.0, 0.0, 0.0]);
        let eps = 1e-6;
        for l in 0..net.layers.len() {
            for k in [0usize, net.layers[l].w.len() / 2, net.layers[l].w.len() - 1] {
                let orig = net.layers[l].w[k];
                net.layers[l].w[k] = orig + eps;
                let yp = net.forward(&x);
                net.layers[l].w[k] = orig - eps;
                let ym = net.forward(&x);
                net.layers[l].w[k] = orig;
                let fd = (yp - ym) / (2.0 * eps);
                assert!(
                    (grads.w[l][k] - fd).abs() < 1e-6,
                    "layer {l} w[{k}]: {} vs {fd}",
                    grads.w[l][k]
                );
            }
            let orig = net.layers[l].b[0];
            net.layers[l].b[0] = orig + eps;
            let yp = net.forward(&x);
            net.layers[l].b[0] = orig - eps;
            let ym = net.forward(&x);
            net.layers[l].b[0] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!((grads.b[l][0] - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn double_backprop_matches_finite_differences() {
        // Phi = <gbar, g>: check dPhi/dW against FD of the input gradient.
        let mut net = tiny_net(11);
        // keep away from the ELU kink for clean finite differences
        let x = [0.37, -0.21, 0.55];
        let gbar = [0.7, -1.3, 0.4];
        let grads = net.grad_params(&x, 0.0, &gbar);
        let phi = |net: &Mlp| {
            let (_, g) = net.forward_with_input_grad(&x);
            g.iter().zip(gbar.iter()).map(|(a, b)| a * b).sum::<f64>()
        };
        let eps = 1e-6;
        for l in 0..net.layers.len() {
            let nw = net.layers[l].w.len();
            for k in [0usize, nw / 3, nw / 2, nw - 1] {
                let orig = net.layers[l].w[k];
                net.layers[l].w[k] = orig + eps;
                let pp = phi(&net);
                net.layers[l].w[k] = orig - eps;
                let pm = phi(&net);
                net.layers[l].w[k] = orig;
                let fd = (pp - pm) / (2.0 * eps);
                assert!(
                    (grads.w[l][k] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                    "layer {l} w[{k}]: {} vs {fd}",
                    grads.w[l][k]
                );
            }
            let orig = net.layers[l].b[0];
            net.layers[l].b[0] = orig + eps;
            let pp = phi(&net);
            net.layers[l].b[0] = orig - eps;
            let pm = phi(&net);
            net.layers[l].b[0] = orig;
            let fd = (pp - pm) / (2.0 * eps);
            assert!(
                (grads.b[l][0] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "layer {l} b[0]: {} vs {fd}",
                grads.b[l][0]
            );
        }
    }

    #[test]
    fn combined_objective_gradients() {
        // Phi = 2*y + <gbar, g> all at once
        let mut net = tiny_net(5);
        let x = [0.1, 0.9, -0.33];
        let gbar = [-0.5, 0.25, 1.1];
        let grads = net.grad_params(&x, 2.0, &gbar);
        let phi = |net: &Mlp| {
            let (y, g) = net.forward_with_input_grad(&x);
            2.0 * y + g.iter().zip(gbar.iter()).map(|(a, b)| a * b).sum::<f64>()
        };
        let eps = 1e-6;
        let l = 1;
        for k in [0usize, 5, 17] {
            let orig = net.layers[l].w[k];
            net.layers[l].w[k] = orig + eps;
            let pp = phi(&net);
            net.layers[l].w[k] = orig - eps;
            let pm = phi(&net);
            net.layers[l].w[k] = orig;
            let fd = (pp - pm) / (2.0 * eps);
            assert!((grads.w[l][k] - fd).abs() < 1e-5 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn batched_forward_matches_per_point_forward() {
        let net = Mlp::paper_architecture(3, 13);
        let np = 37; // deliberately not a multiple of any tile width
        let xs = Matrix::from_fn(3, np, |i, j| ((i * 11 + j * 7) as f64 * 0.13).sin());
        let mut batched = BatchedMlp::new(&net);
        let got = batched.forward_batch(&xs);
        assert_eq!(got.len(), np);
        for j in 0..np {
            let want = net.forward(xs.col(j));
            assert!(
                (got[j] - want).abs() < 1e-12 * (1.0 + want.abs()),
                "point {j}: {} vs {want}",
                got[j]
            );
        }
        // recycled buffers: a second (smaller) batch must still be right
        let xs2 = Matrix::from_fn(3, 5, |i, j| ((i + j * 3) as f64 * 0.31).cos());
        let got2 = batched.forward_batch(&xs2);
        for j in 0..5 {
            let want = net.forward(xs2.col(j));
            assert!((got2[j] - want).abs() < 1e-12 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn paper_architecture_shape() {
        let net = Mlp::paper_architecture(3, 0);
        assert_eq!(net.layers.len(), 6);
        assert_eq!(net.n_inputs(), 3);
        // params: 3*80+80 + 4*(80*80+80) + 80+1
        let n_params: usize = net.layers.iter().map(|l| l.w.len() + l.b.len()).sum();
        assert_eq!(n_params, 3 * 80 + 80 + 4 * (80 * 80 + 80) + 80 + 1);
    }
}

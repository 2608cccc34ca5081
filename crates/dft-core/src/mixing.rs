//! Anderson (Pulay/DIIS) density mixing for SCF acceleration.

/// Anderson mixer with bounded history.
pub struct AndersonMixer {
    alpha: f64,
    depth: usize,
    history: Vec<(Vec<f64>, Vec<f64>)>, // (rho_in, residual)
    weights: Vec<f64>,
}

impl AndersonMixer {
    /// `alpha` — linear mixing fraction; `depth` — history length;
    /// `weights` — integration weights for the inner products.
    pub fn new(alpha: f64, depth: usize, weights: Vec<f64>) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Self {
            alpha,
            depth: depth.max(1),
            history: Vec::new(),
            weights,
        }
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .zip(&self.weights)
            .map(|((&x, &y), &w)| w * x * y)
            .sum()
    }

    /// Produce the next input density from `(rho_in, rho_out)` of the
    /// current SCF step, with a cross-rank reduction hook for the `m x m`
    /// residual Gram matrix: a distributed SCF passes weights masked to its
    /// owned nodes and sums the partial Grams with `reduce_gram` (an
    /// allreduce), after which every rank solves the same small system and
    /// produces identical mixing coefficients. The serial path passes a
    /// no-op closure and is unchanged.
    pub fn mix_with(
        &mut self,
        rho_in: &[f64],
        rho_out: &[f64],
        reduce_gram: &dyn Fn(&mut [f64]),
    ) -> Vec<f64> {
        let n = rho_in.len();
        let res: Vec<f64> = (0..n).map(|i| rho_out[i] - rho_in[i]).collect();
        self.history.push((rho_in.to_vec(), res));
        if self.history.len() > self.depth {
            self.history.remove(0);
        }
        let m = self.history.len();
        if m == 1 {
            return (0..n)
                .map(|i| rho_in[i] + self.alpha * self.history[0].1[i])
                .collect();
        }
        // Solve min || sum c_k R_k || with sum c_k = 1 via the bordered
        // normal equations (B c = lambda 1, 1^T c = 1).
        let mut b = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                b[i * m + j] = self.dot(&self.history[i].1, &self.history[j].1);
            }
        }
        // assemble partial Grams across ranks before regularizing, so the
        // regularization sees the full-domain trace
        reduce_gram(&mut b);
        // regularize
        let tr: f64 = (0..m).map(|i| b[i * m + i]).sum::<f64>() / m as f64;
        for i in 0..m {
            b[i * m + i] += 1e-12 * tr.max(1e-300);
        }
        let c = solve_constrained(&b, m);
        // rho_new = sum c_k (rho_k + alpha R_k)
        let mut out = vec![0.0; n];
        for (k, (rk, resk)) in self.history.iter().enumerate() {
            let ck = c[k];
            for i in 0..n {
                out[i] += ck * (rk[i] + self.alpha * resk[i]);
            }
        }
        // clip tiny negative densities from extrapolation
        for v in out.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        out
    }

    /// The retained `(rho_in, residual)` history, oldest first — what a
    /// checkpoint must capture to make a restarted SCF bit-compatible.
    pub fn history(&self) -> &[(Vec<f64>, Vec<f64>)] {
        &self.history
    }

    /// Replace the history with checkpointed pairs (oldest first); entries
    /// beyond the mixer's depth are dropped from the front, matching what
    /// [`Self::mix_with`] would have retained.
    pub fn restore_history(&mut self, pairs: Vec<(Vec<f64>, Vec<f64>)>) {
        self.history = pairs;
        while self.history.len() > self.depth {
            self.history.remove(0);
        }
    }
}

/// Solve the equality-constrained least-squares coefficients by Gaussian
/// elimination of the bordered system.
fn solve_constrained(b: &[f64], m: usize) -> Vec<f64> {
    let n = m + 1;
    let mut a = vec![0.0; n * n];
    let mut rhs = vec![0.0; n];
    for i in 0..m {
        for j in 0..m {
            a[i * n + j] = b[i * m + j];
        }
        a[i * n + m] = 1.0;
        a[m * n + i] = 1.0;
    }
    rhs[m] = 1.0;
    // Gaussian elimination with partial pivoting
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if a[piv * n + col].abs() < 1e-300 {
            // degenerate: fall back to last-step-only
            let mut c = vec![0.0; m];
            c[m - 1] = 1.0;
            return c;
        }
        if piv != col {
            for k in 0..n {
                a.swap(col * n + k, piv * n + k);
            }
            rhs.swap(col, piv);
        }
        let d = a[col * n + col];
        for r in col + 1..n {
            let f = a[r * n + col] / d;
            // dftlint:allow(L004, reason="exact-zero elimination skip: avoids FMA work, never a tolerance test")
            if f != 0.0 {
                for k in col..n {
                    a[r * n + k] -= f * a[col * n + k];
                }
                rhs[r] -= f * rhs[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = rhs[r];
        for k in r + 1..n {
            acc -= a[r * n + k] * x[k];
        }
        x[r] = acc / a[r * n + r];
    }
    x.truncate(m);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AndersonMixer {
        /// The serial mixing step: no cross-rank Gram reduction.
        fn mix(&mut self, rho_in: &[f64], rho_out: &[f64]) -> Vec<f64> {
            self.mix_with(rho_in, rho_out, &|_| {})
        }
    }

    #[test]
    fn first_step_is_linear_mixing() {
        let w = vec![1.0; 4];
        let mut mx = AndersonMixer::new(0.3, 5, w);
        let rin = vec![1.0, 2.0, 3.0, 4.0];
        let rout = vec![2.0, 2.0, 2.0, 2.0];
        let mixed = mx.mix(&rin, &rout);
        for i in 0..4 {
            let expect = rin[i] + 0.3 * (rout[i] - rin[i]);
            assert!((mixed[i] - expect.max(0.0)).abs() < 1e-14);
        }
    }

    #[test]
    fn anderson_accelerates_linear_fixed_point() {
        // fixed point of g(x) = A x + b with spectral radius < 1
        let n = 6;
        let a_diag: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * (i as f64 / n as f64)).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.1).collect();
        let exact: Vec<f64> = (0..n).map(|i| b[i] / (1.0 - a_diag[i])).collect();
        let g = |x: &[f64]| -> Vec<f64> { (0..n).map(|i| a_diag[i] * x[i] + b[i]).collect() };

        let run = |anderson: bool| -> usize {
            let mut mx = AndersonMixer::new(0.5, if anderson { 5 } else { 1 }, vec![1.0; n]);
            let mut x = vec![0.5; n];
            for it in 0..200 {
                let out = g(&x);
                let res: f64 = (0..n).map(|i| (out[i] - x[i]).powi(2)).sum::<f64>().sqrt();
                if res < 1e-10 {
                    return it;
                }
                x = mx.mix(&x, &out);
            }
            200
        };
        let it_lin = run(false);
        let it_and = run(true);
        assert!(it_and < it_lin, "anderson {it_and} vs linear {it_lin}");
        // verify convergence point is correct
        let mut mx = AndersonMixer::new(0.5, 5, vec![1.0; n]);
        let mut x = vec![0.5; n];
        for _ in 0..100 {
            let out = g(&x);
            x = mx.mix(&x, &out);
        }
        for i in 0..n {
            assert!((x[i] - exact[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn mixer_clips_negative_densities() {
        let mut mx = AndersonMixer::new(1.0, 3, vec![1.0; 2]);
        let _ = mx.mix(&[1.0, 1.0], &[0.5, 0.5]);
        let out = mx.mix(&[0.5, 0.5], &[-2.0, 0.1]);
        assert!(out.iter().all(|&v| v >= 0.0));
    }

    /// Checkpoint contract: exporting the history and restoring it into a
    /// fresh mixer must reproduce the original mixer's next output exactly.
    #[test]
    fn history_export_restore_is_bit_compatible() {
        let w = vec![1.0, 0.5, 2.0];
        let mut a = AndersonMixer::new(0.4, 3, w.clone());
        let _ = a.mix(&[1.0, 2.0, 3.0], &[1.5, 1.8, 2.5]);
        let _ = a.mix(&[1.2, 1.9, 2.8], &[1.4, 1.7, 2.6]);
        let saved: Vec<(Vec<f64>, Vec<f64>)> = a.history().to_vec();

        let mut b = AndersonMixer::new(0.4, 3, w);
        b.restore_history(saved);
        let (rin, rout) = ([1.3, 1.8, 2.7], [1.35, 1.75, 2.65]);
        let out_a = a.mix(&rin, &rout);
        let out_b = b.mix(&rin, &rout);
        for (x, y) in out_a.iter().zip(out_b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // restoring more pairs than depth keeps only the newest `depth`
        let mut c = AndersonMixer::new(0.4, 2, vec![1.0; 3]);
        c.restore_history(vec![
            (vec![0.0; 3], vec![0.1; 3]),
            (vec![1.0; 3], vec![0.2; 3]),
            (vec![2.0; 3], vec![0.3; 3]),
        ]);
        assert_eq!(c.history().len(), 2);
        assert_eq!(c.history()[0].0, vec![1.0; 3]);
    }
}

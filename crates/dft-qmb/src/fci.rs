//! Full configuration interaction in a spin-orbital determinant basis.
//!
//! Determinants are `(alpha_string, beta_string)` bit masks over the
//! spatial orbitals. The sigma builder applies the Slater-Condon rules;
//! the ground state comes from a Davidson iteration with the determinant
//! diagonal as preconditioner. Exactly the "Level 4 & beyond" machinery
//! whose combinatorial cost wall the paper's Fig. 1 depicts.

use crate::integrals::OrbitalIntegrals;
use rayon::prelude::*;

/// One FCI problem: integrals plus electron counts.
pub struct FciProblem<'a> {
    /// Orbital integrals.
    pub ints: &'a OrbitalIntegrals,
    /// Spin-up electrons.
    pub n_alpha: usize,
    /// Spin-down electrons.
    pub n_beta: usize,
    dets: Vec<(u32, u32)>,
}

/// FCI ground-state result.
#[derive(Clone, Debug)]
pub struct FciResult {
    /// Ground-state energy (electronic; no nuclear repulsion here).
    pub energy: f64,
    /// CI vector over determinants.
    pub coefficients: Vec<f64>,
    /// Davidson iterations used.
    pub iterations: usize,
    /// Dimension of the determinant space.
    pub dimension: usize,
}

/// Enumerate all `n_set`-bit strings over `n_orb` orbitals.
pub fn bit_strings(n_orb: usize, n_set: usize) -> Vec<u32> {
    assert!(n_orb <= 28);
    let mut out = Vec::new();
    let mut s: u32 = if n_set == 0 { 0 } else { (1u32 << n_set) - 1 };
    if n_set == 0 {
        return vec![0];
    }
    let limit = 1u32 << n_orb;
    while s < limit {
        out.push(s);
        // Gosper's hack: next higher integer with same popcount
        let c = s & s.wrapping_neg();
        let r = s + c;
        if c == 0 || r >= limit {
            break;
        }
        s = (((r ^ s) >> 2) / c) | r;
    }
    out
}

/// Number of determinants `C(n_orb, n_alpha) * C(n_orb, n_beta)`.
pub fn fci_dimension(n_orb: usize, n_alpha: usize, n_beta: usize) -> usize {
    fn choose(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let mut r: u128 = 1;
        for i in 0..k {
            r = r * (n - i) as u128 / (i + 1) as u128;
        }
        r as usize
    }
    choose(n_orb, n_alpha) * choose(n_orb, n_beta)
}

fn occ_list(s: u32) -> Vec<usize> {
    (0..32).filter(|&i| s >> i & 1 == 1).collect()
}

/// Phase (-1)^k for moving orbital `p` past the occupied orbitals below it.
fn sign_excite(s: u32, p: usize, q: usize) -> f64 {
    // annihilate q, create p (q occupied, p empty)
    let (lo, hi) = if p < q { (p + 1, q) } else { (q + 1, p) };
    let mask: u32 = if hi > lo {
        ((1u32 << hi) - 1) ^ ((1u32 << lo) - 1)
    } else {
        0
    };
    if (s & mask).count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

impl<'a> FciProblem<'a> {
    /// Set up the determinant space.
    pub fn new(ints: &'a OrbitalIntegrals, n_alpha: usize, n_beta: usize) -> Self {
        let no = ints.n_orb;
        let astrs = bit_strings(no, n_alpha);
        let bstrs = bit_strings(no, n_beta);
        let mut dets = Vec::with_capacity(astrs.len() * bstrs.len());
        for &a in &astrs {
            for &b in &bstrs {
                dets.push((a, b));
            }
        }
        Self {
            ints,
            n_alpha,
            n_beta,
            dets,
        }
    }

    /// Determinant count.
    pub fn dimension(&self) -> usize {
        self.dets.len()
    }

    /// Diagonal matrix element `<D|H|D>`.
    fn diagonal_element(&self, a: u32, b: u32) -> f64 {
        let ints = self.ints;
        let ao = occ_list(a);
        let bo = occ_list(b);
        let mut e = 0.0;
        for &p in ao.iter().chain(bo.iter()) {
            e += ints.h(p, p);
        }
        // same-spin: Coulomb - exchange over pairs
        for list in [&ao, &bo] {
            for (i, &p) in list.iter().enumerate() {
                for &q in &list[i + 1..] {
                    e += ints.g(p, p, q, q) - ints.g(p, q, p, q);
                }
            }
        }
        // opposite-spin: Coulomb only
        for &p in &ao {
            for &q in &bo {
                e += ints.g(p, p, q, q);
            }
        }
        e
    }

    /// All diagonal elements.
    pub fn diagonal(&self) -> Vec<f64> {
        self.dets
            .par_iter()
            .map(|&(a, b)| self.diagonal_element(a, b))
            .collect()
    }

    /// Sigma vector `y = H x` by Slater-Condon rules.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dets.len());
        let ints = self.ints;
        let no = ints.n_orb;
        // index lookup
        use std::collections::HashMap;
        let index: HashMap<(u32, u32), usize> =
            self.dets.iter().enumerate().map(|(i, &d)| (d, i)).collect();

        self.dets
            .par_iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let mut acc = self.diagonal_element(a, b) * x[i];
                let ao = occ_list(a);
                let bo = occ_list(b);

                // single excitations (alpha)
                for &q in &ao {
                    for p in 0..no {
                        if a >> p & 1 == 1 {
                            continue;
                        }
                        let a2 = a & !(1 << q) | (1 << p);
                        let j = index[&(a2, b)];
                        let sgn = sign_excite(a, p, q);
                        // <D|H|D_q^p> = h_pq + sum_occ [(pq|kk) - (pk|qk)]_same
                        //             + sum_beta (pq|kk)
                        let mut val = ints.h(p, q);
                        for &k in &ao {
                            if k == q {
                                continue;
                            }
                            val += ints.g(p, q, k, k) - ints.g(p, k, q, k);
                        }
                        for &k in &bo {
                            val += ints.g(p, q, k, k);
                        }
                        acc += sgn * val * x[j];
                    }
                }
                // single excitations (beta)
                for &q in &bo {
                    for p in 0..no {
                        if b >> p & 1 == 1 {
                            continue;
                        }
                        let b2 = b & !(1 << q) | (1 << p);
                        let j = index[&(a, b2)];
                        let sgn = sign_excite(b, p, q);
                        let mut val = ints.h(p, q);
                        for &k in &bo {
                            if k == q {
                                continue;
                            }
                            val += ints.g(p, q, k, k) - ints.g(p, k, q, k);
                        }
                        for &k in &ao {
                            val += ints.g(p, q, k, k);
                        }
                        acc += sgn * val * x[j];
                    }
                }
                // double excitations: same-spin alpha
                acc += self.same_spin_doubles(&ao, a, |a2| index[&(a2, b)], x);
                // same-spin beta
                acc += self.same_spin_doubles(&bo, b, |b2| index[&(a, b2)], x);
                // opposite-spin doubles
                for &qa in &ao {
                    for pa in 0..no {
                        if a >> pa & 1 == 1 {
                            continue;
                        }
                        let a2 = a & !(1 << qa) | (1 << pa);
                        let sa = sign_excite(a, pa, qa);
                        for &qb in &bo {
                            for pb in 0..no {
                                if b >> pb & 1 == 1 {
                                    continue;
                                }
                                let b2 = b & !(1 << qb) | (1 << pb);
                                let sb = sign_excite(b, pb, qb);
                                let j = index[&(a2, b2)];
                                acc += sa * sb * ints.g(pa, qa, pb, qb) * x[j];
                            }
                        }
                    }
                }
                acc
            })
            .collect()
    }

    fn same_spin_doubles(
        &self,
        occ: &[usize],
        s: u32,
        idx: impl Fn(u32) -> usize,
        x: &[f64],
    ) -> f64 {
        let ints = self.ints;
        let no = ints.n_orb;
        let mut acc = 0.0;
        for (iq, &q) in occ.iter().enumerate() {
            for &r in &occ[iq + 1..] {
                // annihilate q < r, create p < t (both empty)
                for p in 0..no {
                    if s >> p & 1 == 1 {
                        continue;
                    }
                    for t in (p + 1)..no {
                        if s >> t & 1 == 1 {
                            continue;
                        }
                        // two-step excitation with sign bookkeeping:
                        // first q -> p, then r -> t on the intermediate
                        let s1 = s & !(1 << q) | (1 << p);
                        let sgn1 = sign_excite(s, p, q);
                        let s2 = s1 & !(1 << r) | (1 << t);
                        let sgn2 = sign_excite(s1, t, r);
                        let j = idx(s2);
                        let val = ints.g(p, q, t, r) - ints.g(p, r, t, q);
                        acc += sgn1 * sgn2 * val * x[j];
                    }
                }
            }
        }
        acc
    }

    /// Davidson iteration for the lowest eigenpair.
    pub fn solve(&self, tol: f64, max_iter: usize) -> FciResult {
        let dim = self.dimension();
        let diag = self.diagonal();
        // start from the lowest-diagonal determinant
        let i0 = diag
            .iter()
            .enumerate()
            .min_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        let mut x = vec![0.0; dim];
        x[i0] = 1.0;

        let mut energy = diag[i0];
        let mut iterations = 0;
        // Jacobi-Davidson-flavoured preconditioned power refinement on the
        // residual, with Rayleigh quotients (robust, no subspace storage).
        for it in 0..max_iter {
            iterations = it + 1;
            let hx = self.apply(&x);
            let xx: f64 = x.iter().map(|v| v * v).sum();
            let e = x.iter().zip(&hx).map(|(a, b)| a * b).sum::<f64>() / xx;
            // residual r = Hx - e x
            let r: Vec<f64> = hx.iter().zip(&x).map(|(h, v)| h - e * v).collect();
            let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt() / xx.sqrt();
            energy = e;
            if rnorm < tol {
                break;
            }
            // preconditioned correction: dx = -r / (diag - e)
            for i in 0..dim {
                let d = diag[i] - e;
                let d = if d.abs() < 0.1 {
                    0.1 * d.signum().max(0.0) + 0.05
                } else {
                    d
                };
                x[i] -= r[i] / d;
            }
            // normalize
            let n = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            for v in x.iter_mut() {
                *v /= n;
            }
        }
        let n = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        for v in x.iter_mut() {
            *v /= n;
        }
        FciResult {
            energy,
            coefficients: x,
            iterations,
            dimension: dim,
        }
    }

    /// Spin-summed one-particle reduced density matrix `D_pq` in the
    /// orbital basis.
    pub fn one_rdm(&self, c: &[f64]) -> Vec<f64> {
        let no = self.ints.n_orb;
        use std::collections::HashMap;
        let index: HashMap<(u32, u32), usize> =
            self.dets.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut d = vec![0.0; no * no];
        for (i, &(a, b)) in self.dets.iter().enumerate() {
            let ci = c[i];
            // dftlint:allow(L004, reason="exact-zero amplitude skip: avoids accumulating terms that contribute nothing")
            if ci == 0.0 {
                continue;
            }
            // diagonal occupation
            for p in 0..no {
                if a >> p & 1 == 1 {
                    d[p * no + p] += ci * ci;
                }
                if b >> p & 1 == 1 {
                    d[p * no + p] += ci * ci;
                }
            }
            // single excitations
            for (s, same_spin_b) in [(a, false), (b, true)] {
                for q in 0..no {
                    if s >> q & 1 != 1 {
                        continue;
                    }
                    for p in 0..no {
                        if p == q || s >> p & 1 == 1 {
                            continue;
                        }
                        let s2 = s & !(1 << q) | (1 << p);
                        let key = if same_spin_b { (a, s2) } else { (s2, b) };
                        let j = index[&key];
                        let sgn = sign_excite(s, p, q);
                        d[p * no + q] += sgn * ci * c[j];
                    }
                }
            }
        }
        d
    }

    /// Real-space density on the grid from the CI vector.
    pub fn density(&self, c: &[f64]) -> Vec<f64> {
        let d = self.one_rdm(c);
        let no = self.ints.n_orb;
        let orbs = &self.ints.orbitals;
        let n = self.ints.grid.n;
        let mut rho = vec![0.0; n];
        for p in 0..no {
            for q in 0..no {
                let dpq = d[p * no + q];
                if dpq.abs() < 1e-14 {
                    continue;
                }
                for x in 0..n {
                    rho[x] += dpq * orbs[(x, p)] * orbs[(x, q)];
                }
            }
        }
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid1d::Grid1d;
    use crate::model::SoftCoulombSystem;

    #[test]
    fn bit_strings_enumeration() {
        let s = bit_strings(4, 2);
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|&x| x.count_ones() == 2));
        assert_eq!(fci_dimension(4, 2, 2), 36);
        assert_eq!(fci_dimension(10, 1, 1), 100);
    }

    #[test]
    fn one_electron_fci_equals_orbital_energy() {
        let sys = SoftCoulombSystem::h_atom();
        let ints = sys.integrals(8, 120, 20.0);
        let fci = FciProblem::new(&ints, 1, 0);
        let r = fci.solve(1e-10, 200);
        assert!(
            (r.energy - ints.h(0, 0)).abs() < 1e-9,
            "FCI {} vs orbital {}",
            r.energy,
            ints.h(0, 0)
        );
    }

    #[test]
    fn two_electron_correlation_is_negative() {
        let sys = SoftCoulombSystem::he_atom();
        let ints = sys.integrals(10, 140, 20.0);
        let fci = FciProblem::new(&ints, 1, 1);
        // mean-field reference: doubly occupied lowest orbital
        let e_ref = 2.0 * ints.h(0, 0) + ints.g(0, 0, 0, 0);
        let r = fci.solve(1e-9, 400);
        assert!(
            r.energy < e_ref,
            "FCI {} must beat HF-like {e_ref}",
            r.energy
        );
        assert!(
            e_ref - r.energy < 0.5,
            "correlation energy should be modest"
        );
    }

    #[test]
    fn fci_variational_in_orbital_count() {
        let sys = SoftCoulombSystem::he_atom();
        let e: Vec<f64> = [4usize, 8]
            .iter()
            .map(|&no| {
                let ints = sys.integrals(no, 120, 20.0);
                FciProblem::new(&ints, 1, 1).solve(1e-9, 400).energy
            })
            .collect();
        assert!(
            e[1] <= e[0] + 1e-9,
            "bigger basis must not raise energy: {e:?}"
        );
    }

    #[test]
    fn density_integrates_to_electron_count_and_is_symmetric() {
        let sys = SoftCoulombSystem::he_atom();
        let ints = sys.integrals(8, 121, 20.0);
        let fci = FciProblem::new(&ints, 1, 1);
        let r = fci.solve(1e-9, 300);
        let rho = fci.density(&r.coefficients);
        let g = Grid1d::symmetric(20.0, 121);
        let q = g.integrate(&rho);
        assert!((q - 2.0).abs() < 1e-6, "charge {q}");
        // symmetric atom at the origin -> symmetric density
        let n = rho.len();
        for i in 0..n / 2 {
            assert!((rho[i] - rho[n - 1 - i]).abs() < 1e-6);
        }
        assert!(rho.iter().all(|&v| v > -1e-12));
    }

    #[test]
    fn one_rdm_trace_and_occupations() {
        let sys = SoftCoulombSystem::he_atom();
        let ints = sys.integrals(6, 101, 18.0);
        let fci = FciProblem::new(&ints, 1, 1);
        let r = fci.solve(1e-9, 300);
        let d = fci.one_rdm(&r.coefficients);
        let no = ints.n_orb;
        let tr: f64 = (0..no).map(|p| d[p * no + p]).sum();
        assert!((tr - 2.0).abs() < 1e-8, "trace {tr}");
        // natural occupations in [0, 2]
        for p in 0..no {
            assert!(d[p * no + p] > -1e-10 && d[p * no + p] < 2.0 + 1e-10);
        }
        // dominant occupation on the lowest orbital
        assert!(d[0] > 1.8);
    }

    #[test]
    fn h2_molecule_binds() {
        let h2 = SoftCoulombSystem::new("H2", vec![(1.0, -0.8), (1.0, 0.8)], 1, 1);
        let ints = h2.integrals(10, 140, 24.0);
        let fci = FciProblem::new(&ints, 1, 1);
        let r = fci.solve(1e-9, 400);
        let e_mol = r.energy + h2.nuclear_repulsion();
        // two isolated 1D H atoms
        let ha = SoftCoulombSystem::h_atom();
        let ints_a = ha.integrals(8, 120, 20.0);
        let e_atom = ints_a.h(0, 0);
        assert!(
            e_mol < 2.0 * e_atom - 0.01,
            "molecule {e_mol} vs 2 atoms {}",
            2.0 * e_atom
        );
    }
}

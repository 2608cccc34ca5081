//! Level-1 kernels on slices (vectors).
//!
//! These back the Chebyshev filter's vector updates and the iterative
//! solvers' recurrences. Inner products conjugate the first argument, as in
//! BLAS `zdotc`.

use crate::scalar::{Real, Scalar};

/// `y += a * x`.
#[inline]
pub fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// Conjugated inner product `<x, y> = sum_i conj(x_i) y_i`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        acc += xi.conj() * yi;
    }
    acc
}

/// Euclidean norm `||x||_2`.
#[inline]
pub fn nrm2<T: Scalar>(x: &[T]) -> T::Re {
    let mut acc = T::Re::ZERO;
    for &xi in x {
        acc += xi.abs_sq();
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    #[test]
    fn axpy_real() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_conjugates_first_argument() {
        let x = vec![C64::new(0.0, 1.0)];
        let y = vec![C64::new(0.0, 1.0)];
        // conj(i)*i = 1
        assert_eq!(dot(&x, &y), C64::new(1.0, 0.0));
    }

    #[test]
    fn nrm2_complex() {
        let x = vec![C64::new(3.0, 0.0), C64::new(0.0, 4.0)];
        assert!((nrm2(&x) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn self_dot_is_norm_squared() {
        let x = vec![C64::new(1.0, 2.0), C64::new(-3.0, 0.5)];
        let d = dot(&x, &x);
        assert!(d.im.abs() < 1e-15);
        assert!((d.re - nrm2(&x).powi(2)).abs() < 1e-12);
    }
}

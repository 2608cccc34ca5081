//! Scalar abstraction over real (`f64`, `f32`) and complex ([`C64`], [`C32`])
//! field types.
//!
//! The DFT solver runs over `f64` wavefunctions at the Γ-point and over
//! complex [`C64`] Bloch wavefunctions when Brillouin-zone `k`-point sampling
//! is on (the paper's Mg-Y systems use 2-4 k-points, which is why their FLOP
//! accounting carries a factor 4 — see Sec. 6.3). The paper's mixed-precision
//! strategies (Sec. 5.4.2) demote data to FP32 on communication boundaries
//! and in the off-diagonal blocks of overlap/projected matrices; the
//! [`Scalar::Low`] associated type models that demotion.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Real floating-point numbers (`f32`, `f64`) with the operations the
/// kernels need. Deliberately minimal — not a general numerics trait.
pub trait Real:
    Copy
    + Clone
    + Send
    + Sync
    + 'static
    + Debug
    + Display
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon.
    const EPS: Self;
    /// Convert from `f64` (possibly lossy).
    fn from_f64(x: f64) -> Self;
    /// Convert to `f64` (exact for `f32`/`f64`).
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Larger of two values.
    fn max(self, other: Self) -> Self;
    /// `sqrt(self^2 + other^2)` without overflow.
    fn hypot(self, other: Self) -> Self;
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPS: Self = <$t>::EPSILON;
            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                if self > other {
                    self
                } else {
                    other
                }
            }
            #[inline]
            fn hypot(self, other: Self) -> Self {
                self.hypot(other)
            }
        }
    };
}
impl_real!(f32);
impl_real!(f64);

/// Field scalar used by the dense and iterative kernels: `f64`, `f32`,
/// [`C64`] or [`C32`].
pub trait Scalar:
    Copy
    + Clone
    + Send
    + Sync
    + 'static
    + Debug
    + Display
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// The underlying real type (`f32` or `f64`).
    type Re: Real;
    /// The low-precision counterpart used in mixed-precision code paths
    /// (`f32` for `f64`, [`C32`] for [`C64`]; identity for the low types).
    type Low: Scalar<Re = f32>;

    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// `true` for complex scalars.
    const IS_COMPLEX: bool;
    /// FLOPs in one multiply of this scalar type (1 real, 6 complex) —
    /// used by the FLOP accounting of the performance harness.
    const MUL_FLOPS: u64;
    /// FLOPs in one add of this scalar type (1 real, 2 complex).
    const ADD_FLOPS: u64;
    /// FLOPs in one multiply of this scalar type by a real factor (1 real,
    /// 2 complex): the stiffness entries, mass scalings, potentials and
    /// recurrence coefficients are all real.
    const SCALE_FLOPS: u64;

    /// Embed a real value.
    fn from_re(x: Self::Re) -> Self;
    /// Embed an `f64` (possibly lossy).
    fn from_f64(x: f64) -> Self;
    /// Real part.
    fn re(self) -> Self::Re;
    /// Imaginary part (zero for real scalars).
    fn im(self) -> Self::Re;
    /// Complex conjugate (identity for real scalars).
    fn conj(self) -> Self;
    /// Modulus `|x|`.
    fn abs(self) -> Self::Re;
    /// Squared modulus `|x|^2`.
    fn abs_sq(self) -> Self::Re;
    /// Scale by a real factor.
    fn scale(self, a: Self::Re) -> Self;
    /// Demote to the low-precision counterpart.
    fn to_low(self) -> Self::Low;
    /// Promote from the low-precision counterpart.
    fn from_low(x: Self::Low) -> Self;
    /// `self * b + c`.
    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        self * b + c
    }

    /// Lane-blocked update `acc[t] += x[t] * k` over equal-length slices —
    /// the column-blocked inner product of the FE stiffness apply. The
    /// default is the generic unfused loop; `f64`/`f32` override it with
    /// the fused contraction from [`crate::simd`] (one rounding per lane,
    /// vectorized to packed FMA).
    #[inline]
    fn lane_fma(acc: &mut [Self], x: &[Self], k: Self::Re) {
        for (a, &xv) in acc.iter_mut().zip(x.iter()) {
            *a += xv.scale(k);
        }
    }
}

impl Scalar for f64 {
    type Re = f64;
    type Low = f32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const IS_COMPLEX: bool = false;
    const MUL_FLOPS: u64 = 1;
    const ADD_FLOPS: u64 = 1;
    const SCALE_FLOPS: u64 = 1;
    #[inline]
    fn from_re(x: f64) -> Self {
        x
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn re(self) -> f64 {
        self
    }
    #[inline]
    fn im(self) -> f64 {
        0.0
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        self * self
    }
    #[inline]
    fn scale(self, a: f64) -> Self {
        self * a
    }
    #[inline]
    fn to_low(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_low(x: f32) -> Self {
        x as f64
    }
    #[inline]
    fn lane_fma(acc: &mut [Self], x: &[Self], k: f64) {
        crate::simd::fma_lane_f64(acc, x, k);
    }
}

impl Scalar for f32 {
    type Re = f32;
    type Low = f32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const IS_COMPLEX: bool = false;
    const MUL_FLOPS: u64 = 1;
    const ADD_FLOPS: u64 = 1;
    const SCALE_FLOPS: u64 = 1;
    #[inline]
    fn from_re(x: f32) -> Self {
        x
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn re(self) -> f32 {
        self
    }
    #[inline]
    fn im(self) -> f32 {
        0.0
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f32 {
        self.abs()
    }
    #[inline]
    fn abs_sq(self) -> f32 {
        self * self
    }
    #[inline]
    fn scale(self, a: f32) -> Self {
        self * a
    }
    #[inline]
    fn to_low(self) -> f32 {
        self
    }
    #[inline]
    fn from_low(x: f32) -> Self {
        x
    }
    #[inline]
    fn lane_fma(acc: &mut [Self], x: &[Self], k: f32) {
        crate::simd::fma_lane_f32(acc, x, k);
    }
}

macro_rules! complex_type {
    ($name:ident, $re:ty, $doc:literal) => {
        #[doc = $doc]
        #[derive(Copy, Clone, PartialEq, Default)]
        pub struct $name {
            /// Real part.
            pub re: $re,
            /// Imaginary part.
            pub im: $re,
        }

        impl $name {
            /// Construct from real and imaginary parts.
            #[inline]
            pub const fn new(re: $re, im: $re) -> Self {
                Self { re, im }
            }
            /// The imaginary unit.
            pub const I: Self = Self { re: 0.0, im: 1.0 };
            /// `e^{i theta}`.
            #[inline]
            pub fn cis(theta: $re) -> Self {
                Self::new(theta.cos(), theta.sin())
            }
        }

        impl Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{:+}i", self.re, self.im)
            }
        }
        impl Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{:+}i", self.re, self.im)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, o: Self) -> Self {
                Self::new(self.re + o.re, self.im + o.im)
            }
        }
        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, o: Self) -> Self {
                Self::new(self.re - o.re, self.im - o.im)
            }
        }
        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, o: Self) -> Self {
                Self::new(
                    self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re,
                )
            }
        }
        impl Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, o: Self) -> Self {
                let d = o.re * o.re + o.im * o.im;
                Self::new(
                    (self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d,
                )
            }
        }
        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self::new(-self.re, -self.im)
            }
        }
        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }
        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, o: Self) {
                *self = *self - o;
            }
        }
        impl MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, o: Self) {
                *self = *self * o;
            }
        }
        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::new(0.0, 0.0), |a, b| a + b)
            }
        }
    };
}

complex_type!(C64, f64, "Double-precision complex number (`re + i*im`).");
complex_type!(C32, f32, "Single-precision complex number (`re + i*im`).");

impl Scalar for C64 {
    type Re = f64;
    type Low = C32;
    const ZERO: Self = Self { re: 0.0, im: 0.0 };
    const ONE: Self = Self { re: 1.0, im: 0.0 };
    const IS_COMPLEX: bool = true;
    const MUL_FLOPS: u64 = 6;
    const ADD_FLOPS: u64 = 2;
    const SCALE_FLOPS: u64 = 2;
    #[inline]
    fn from_re(x: f64) -> Self {
        Self::new(x, 0.0)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::new(x, 0.0)
    }
    #[inline]
    fn re(self) -> f64 {
        self.re
    }
    #[inline]
    fn im(self) -> f64 {
        self.im
    }
    #[inline]
    fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
    #[inline]
    fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
    #[inline]
    fn scale(self, a: f64) -> Self {
        Self::new(self.re * a, self.im * a)
    }
    #[inline]
    fn to_low(self) -> C32 {
        C32::new(self.re as f32, self.im as f32)
    }
    #[inline]
    fn from_low(x: C32) -> Self {
        Self::new(x.re as f64, x.im as f64)
    }
}

impl Scalar for C32 {
    type Re = f32;
    type Low = C32;
    const ZERO: Self = Self { re: 0.0, im: 0.0 };
    const ONE: Self = Self { re: 1.0, im: 0.0 };
    const IS_COMPLEX: bool = true;
    const MUL_FLOPS: u64 = 6;
    const ADD_FLOPS: u64 = 2;
    const SCALE_FLOPS: u64 = 2;
    #[inline]
    fn from_re(x: f32) -> Self {
        Self::new(x, 0.0)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::new(x as f32, 0.0)
    }
    #[inline]
    fn re(self) -> f32 {
        self.re
    }
    #[inline]
    fn im(self) -> f32 {
        self.im
    }
    #[inline]
    fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
    #[inline]
    fn abs(self) -> f32 {
        self.re.hypot(self.im)
    }
    #[inline]
    fn abs_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }
    #[inline]
    fn scale(self, a: f32) -> Self {
        Self::new(self.re * a, self.im * a)
    }
    #[inline]
    fn to_low(self) -> C32 {
        self
    }
    #[inline]
    fn from_low(x: C32) -> Self {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_arithmetic_field_axioms() {
        let a = C64::new(1.5, -2.0);
        let b = C64::new(-0.25, 3.0);
        assert_eq!(a + b, C64::new(1.25, 1.0));
        assert_eq!(a * C64::ONE, a);
        let q = (a / b) * b;
        assert!((q - a).abs() < 1e-14);
    }

    #[test]
    fn conj_and_abs_sq_agree() {
        let a = C64::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-14 && p.im.abs() < 1e-14);
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let z = C64::cis(0.41 * k as f64);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn precision_round_trip() {
        let a = C64::new(1.0, -0.5);
        assert_eq!(C64::from_low(a.to_low()), a);
        let x = 2.5_f64;
        assert_eq!(f64::from_low(x.to_low()), 2.5);
    }

    #[test]
    fn flop_weights() {
        assert_eq!(f64::MUL_FLOPS, 1);
        assert_eq!(C64::MUL_FLOPS, 6);
        assert_eq!(C64::ADD_FLOPS, 2);
        assert_eq!(f64::SCALE_FLOPS, 1);
        assert_eq!(C64::SCALE_FLOPS, 2);
    }
}

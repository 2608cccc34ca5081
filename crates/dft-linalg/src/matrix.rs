//! Column-major dense matrix.
//!
//! Wavefunction blocks in the ChFES are tall-skinny `M x B_f` matrices whose
//! columns are individual Kohn-Sham states; column-major storage keeps each
//! state contiguous, mirroring the layout DFT-FE uses on GPUs.

use crate::scalar::{Real, Scalar};
use std::ops::{Index, IndexMut};

/// Column-major dense matrix over a [`Scalar`].
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    data: Vec<T>,
    nrows: usize,
    ncols: usize,
}

impl<T: Scalar> Matrix<T> {
    /// Zero matrix of shape `nrows x ncols`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            data: vec![T::ZERO; nrows * ncols],
            nrows,
            ncols,
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { data, nrows, ncols }
    }

    /// Wrap an existing column-major buffer (`data.len() == nrows*ncols`).
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "buffer/shape mismatch");
        Self { data, nrows, ncols }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Flat column-major data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat column-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the flat column-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy of the contiguous column range `[j0, j1)` as a new matrix.
    pub fn cols_range(&self, j0: usize, j1: usize) -> Matrix<T> {
        assert!(j0 <= j1 && j1 <= self.ncols);
        Matrix::from_vec(
            self.nrows,
            j1 - j0,
            self.data[j0 * self.nrows..j1 * self.nrows].to_vec(),
        )
    }

    /// Overwrite all of `self` with the column range `[j0, j0 + ncols)` of
    /// `src` — the allocation-free inverse of [`Self::set_cols`] for a
    /// reused block buffer.
    pub fn copy_cols_from(&mut self, src: &Matrix<T>, j0: usize) {
        assert_eq!(self.nrows, src.nrows);
        assert!(j0 + self.ncols <= src.ncols);
        let n = self.nrows;
        self.data
            .copy_from_slice(&src.data[j0 * n..(j0 + self.ncols) * n]);
    }

    /// Overwrite the contiguous column range starting at `j0` with `block`.
    pub fn set_cols(&mut self, j0: usize, block: &Matrix<T>) {
        assert_eq!(self.nrows, block.nrows);
        assert!(j0 + block.ncols <= self.ncols);
        let n = self.nrows;
        self.data[j0 * n..(j0 + block.ncols) * n].copy_from_slice(&block.data);
    }

    /// Reshape to `nrows x ncols` in place, keeping the buffer: it grows
    /// only past the largest shape it has held and never shrinks. With
    /// `nrows` unchanged the leading columns keep their entries; new
    /// entries are zero.
    pub fn resize(&mut self, nrows: usize, ncols: usize) {
        let len = nrows * ncols;
        self.data.reserve_exact(len.saturating_sub(self.data.len()));
        self.data.resize(len, T::ZERO);
        (self.nrows, self.ncols) = (nrows, ncols);
    }

    /// Keep only the columns `keep` (strictly increasing), moved in their
    /// order to the front of the buffer, which is kept.
    pub fn retain_cols(&mut self, keep: &[usize]) {
        let n = self.nrows;
        for (i, &j) in keep.iter().enumerate() {
            assert!(j < self.ncols && (i == 0 || keep[i - 1] < j));
            if i != j {
                self.data.copy_within(j * n..(j + 1) * n, i * n);
            }
        }
        self.resize(n, keep.len());
    }

    /// Fill every entry with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Conjugate (Hermitian) transpose.
    pub fn adjoint(&self) -> Matrix<T> {
        Matrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// `self += a * other` entrywise.
    pub fn axpy_inplace(&mut self, a: T, other: &Matrix<T>) {
        assert_eq!(self.shape(), other.shape());
        for (x, &y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += a * y;
        }
    }

    /// Frobenius norm.
    // dftlint:allow(L009, reason="norm of the dft-linalg eig_oracle and proptest suites and the dft-fem space tests")
    pub fn norm_fro(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.abs_sq().to_f64())
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entrywise modulus of `self - other`.
    // dftlint:allow(L009, reason="comparison helper of the dft-linalg, dft-fem and dft-core test suites")
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// Hermitian symmetrization `(A + A†)/2` (useful to clean up roundoff
    /// before Cholesky / eigensolves).
    pub fn symmetrize_hermitian(&mut self) {
        assert_eq!(self.nrows, self.ncols);
        let half = T::from_f64(0.5);
        for j in 0..self.ncols {
            for i in 0..=j {
                let s = (self[(i, j)] + self[(j, i)].conj()) * half;
                self[(i, j)] = s;
                self[(j, i)] = s.conj();
            }
        }
    }

    /// Make the matrix Hermitian from its lower triangle: every entry above
    /// the diagonal becomes the conjugate of its mirror below, and the
    /// diagonal its real part (as the conjugate of a real value, so a
    /// complex diagonal carries the `-0` imaginary part
    /// [`Self::symmetrize_hermitian`] leaves). Reads only the lower triangle
    /// — what a [`crate::gemm::Shape::LowerC`] product forms. On a matrix
    /// whose two triangles are already exact adjoints of each other this
    /// gives the bits of [`Self::symmetrize_hermitian`].
    pub fn hermitian_from_lower(&mut self) {
        assert_eq!(self.nrows, self.ncols);
        for j in 0..self.ncols {
            self[(j, j)] = T::from_re(self[(j, j)].re()).conj();
            for i in j + 1..self.nrows {
                self[(j, i)] = self[(i, j)].conj();
            }
        }
    }

    /// Demote every entry to the low-precision counterpart type.
    pub fn to_low(&self) -> Matrix<T::Low> {
        Matrix {
            data: self.data.iter().map(|v| v.to_low()).collect(),
            nrows: self.nrows,
            ncols: self.ncols,
        }
    }

    /// Map entrywise into a new matrix (possibly of a different scalar type).
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> Matrix<U> {
        Matrix {
            data: self.data.iter().map(|&v| f(v)).collect(),
            nrows: self.nrows,
            ncols: self.ncols,
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "..." } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    impl<T: Scalar> Matrix<T> {
        /// (Conjugate-free) transpose.
        pub(crate) fn transpose(&self) -> Matrix<T> {
            Matrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
        }
    }

    #[test]
    fn index_round_trip_column_major() {
        let mut m = Matrix::<f64>::zeros(3, 2);
        m[(2, 1)] = 7.0;
        // column-major: column 1, row 2 lands at offset 1 * nrows + 2 = 5
        assert_eq!(m.as_slice()[5], 7.0);
        assert_eq!(m.col(1)[2], 7.0);
    }

    /// Narrowing to a column subset and widening back reuse one buffer, and
    /// the kept columns arrive at the front in their order.
    #[test]
    fn retain_cols_and_resize_keep_the_buffer() {
        let mut m = Matrix::from_fn(3, 5, |i, j| (10 * j + i) as f64);
        let (ptr, cap) = (m.as_slice().as_ptr(), m.data.capacity());
        m.retain_cols(&[1, 3, 4]);
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.col(0), [10.0, 11.0, 12.0]);
        assert_eq!(m.col(1), [30.0, 31.0, 32.0]);
        assert_eq!(m.col(2), [40.0, 41.0, 42.0]);
        m.resize(3, 5);
        assert_eq!(m.col(1), [30.0, 31.0, 32.0]);
        assert_eq!(m.col(4), [0.0; 3]);
        m.retain_cols(&[]);
        m.resize(5, 3);
        assert_eq!((m.as_slice().as_ptr(), m.data.capacity()), (ptr, cap));
    }

    #[test]
    fn transpose_and_adjoint() {
        let m = Matrix::from_fn(2, 3, |i, j| C64::new(i as f64, j as f64));
        let t = m.transpose();
        let a = m.adjoint();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], C64::new(1.0, 2.0));
        assert_eq!(a[(2, 1)], C64::new(1.0, -2.0));
    }

    #[test]
    fn set_cols_and_cols_range() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        let blk = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        m.set_cols(1, &blk);
        let back = m.cols_range(1, 3);
        assert_eq!(back.max_abs_diff(&blk), 0.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn symmetrize_hermitian_makes_adjoint_equal() {
        let mut m = Matrix::from_fn(4, 4, |i, j| C64::new((i * j) as f64, i as f64 - j as f64));
        m.symmetrize_hermitian();
        assert!(m.max_abs_diff(&m.adjoint()) < 1e-15);
    }

    #[test]
    fn norm_fro_matches_manual() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        // entries 0,1,1,2 -> sum of squares 6
        assert!((m.norm_fro() - 6.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn low_precision_round_trip_small_values() {
        let m = Matrix::from_fn(3, 3, |i, j| (i as f64 + 2.0 * j as f64) * 0.25);
        let r = m.to_low().map(f64::from_low);
        assert!(m.max_abs_diff(&r) < 1e-7);
    }
}

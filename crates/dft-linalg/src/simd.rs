//! Explicitly vectorized microkernels behind runtime CPU-feature dispatch.
//!
//! The generic register tile in [`crate::pack`] leaves the FMA units idle:
//! rustc will not contract `acc += w * a` into fused multiply-adds (Rust
//! guarantees unfused IEEE semantics), so even with `target-cpu=native` the
//! blocked engine plateaus at the mul+add roofline. This module provides the
//! hand-vectorized `MR x NR` microkernels the BLIS/GotoBLAS design expects:
//!
//! * **AVX-512F** f64 `16x8` / f32 `32x8` tiles (16 vector accumulators);
//! * **AVX2+FMA** f64 `8x6` / f32 `16x6` tiles (12 vector accumulators);
//! * the portable scalar tile in `pack.rs` as the fallback for complex
//!   scalars, edge ISAs and the forced-fallback test mode.
//!
//! The active tier is detected once at runtime (`is_x86_feature_detected!`)
//! and can be forced down with `DFT_SIMD=scalar|avx2|avx512` — CI runs the
//! whole kernel suite under `DFT_SIMD=scalar` so the portable path cannot
//! rot.
//!
//! Numerics: each SIMD kernel accumulates one fused multiply-add per
//! `(r, q)` element per `k` step, ascending in `k` — i.e. exactly
//! `acc = f64::mul_add(a, b, acc)` lane-wise. The parity tests in `pack.rs`
//! pin the kernels bit-for-bit against that scalar `mul_add` oracle.
#![allow(unsafe_code)] // std::arch intrinsics; every unsafe fn documents its contract

use crate::scalar::Scalar;
use std::any::TypeId;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set tier the microkernel dispatch runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable generic register tile (also the complex-scalar path).
    Scalar = 0,
    /// 256-bit AVX2 + FMA kernels.
    Avx2 = 1,
    /// 512-bit AVX-512F kernels.
    Avx512 = 2,
}

impl SimdTier {
    /// Stable lower-case name (reported in the benchmark's `env` record).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

const TIER_UNSET: u8 = 0xff;
static TIER: AtomicU8 = AtomicU8::new(TIER_UNSET);

/// The microkernel tier in effect: hardware capability clamped by the
/// `DFT_SIMD` environment variable (`scalar`/`off`, `avx2`, `avx512`).
/// Detected once; subsequent calls are a relaxed atomic load.
pub fn active_tier() -> SimdTier {
    match TIER.load(Ordering::Relaxed) {
        0 => SimdTier::Scalar,
        1 => SimdTier::Avx2,
        2 => SimdTier::Avx512,
        _ => {
            let t = detect();
            TIER.store(t as u8, Ordering::Relaxed);
            t
        }
    }
}

fn detect() -> SimdTier {
    let cap = hw_cap();
    match std::env::var("DFT_SIMD").ok().as_deref() {
        Some("scalar") | Some("off") => SimdTier::Scalar,
        Some("avx2") => cap.min(SimdTier::Avx2),
        Some("avx512") => cap.min(SimdTier::Avx512),
        _ => cap,
    }
}

/// Widest tier this CPU supports.
#[cfg(target_arch = "x86_64")]
pub fn hw_cap() -> SimdTier {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdTier::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

/// Widest tier this CPU supports (non-x86: scalar only).
#[cfg(not(target_arch = "x86_64"))]
pub fn hw_cap() -> SimdTier {
    SimdTier::Scalar
}

/// Reinterpret a slice between two identical `'static` types (checked by
/// `TypeId`); `None` when the types differ.
fn cast<T: 'static, U: 'static>(s: &[T]) -> Option<&[U]> {
    if TypeId::of::<T>() == TypeId::of::<U>() {
        // SAFETY: T and U are the very same type, so layout and validity
        // invariants are trivially preserved.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr() as *const U, s.len()) })
    } else {
        None
    }
}

fn cast_ptr<T: 'static, U: 'static>(p: *mut T) -> Option<*mut U> {
    (TypeId::of::<T>() == TypeId::of::<U>()).then_some(p as *mut U)
}

/// A mutable view of the `rows x cols` block of a column-major matrix with
/// leading dimension `ld`: what the GEMM engine writes `C` through. It
/// borrows its entries as uniquely as `&mut [T]` would, but splits by rows
/// as well as by columns — the row blocks of one column-major matrix
/// interleave in memory (each column holds a piece of every block), so no
/// set of disjoint slices can express them, and the threads that fill a
/// tall `C` each get one.
pub(crate) struct MatMut<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _entries: PhantomData<&'a mut [T]>,
}

// SAFETY: a view reaches exactly rows `0..rows` of columns `0..cols` of the
// storage it was made from, and every way to make one from another
// (`split_rows`, `split_cols`, `block`) hands out views of disjoint entries
// (or reborrows `&mut self`), so moving a view to another thread moves a
// unique borrow, as sending `&mut [T]` does.
unsafe impl<T: Send> Send for MatMut<'_, T> {}

impl<'a, T> MatMut<'a, T> {
    /// The `rows x cols` column-major matrix stored in `c` with leading
    /// dimension `ld`.
    pub(crate) fn new(c: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(rows <= ld || cols <= 1, "MatMut: leading dimension");
        assert!(
            rows == 0 || cols == 0 || (cols - 1) * ld + rows <= c.len(),
            "MatMut: storage too short"
        );
        Self {
            ptr: c.as_mut_ptr(),
            rows,
            cols,
            ld,
            _entries: PhantomData,
        }
    }

    /// `(rows, cols)`.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn at(&self, i: usize, j: usize, rows: usize, cols: usize) -> Self {
        Self {
            // wrapping: an empty view may point one block past the end
            ptr: self.ptr.wrapping_add(j * self.ld + i),
            rows,
            cols,
            ld: self.ld,
            _entries: PhantomData,
        }
    }

    /// Rows `0..r` and rows `r..` (two views of disjoint entries).
    pub(crate) fn split_rows(self, r: usize) -> (Self, Self) {
        assert!(r <= self.rows, "MatMut: row split out of range");
        let cols = self.cols;
        (self.at(0, 0, r, cols), self.at(r, 0, self.rows - r, cols))
    }

    /// Columns `0..j` and columns `j..` (two views of disjoint entries).
    pub(crate) fn split_cols(self, j: usize) -> (Self, Self) {
        assert!(j <= self.cols, "MatMut: column split out of range");
        let rows = self.rows;
        (self.at(0, 0, rows, j), self.at(0, j, rows, self.cols - j))
    }

    /// Consecutive blocks ending at each of `ends` (ascending, the last the
    /// full extent), cut by `split` ([`Self::split_rows`] or
    /// [`Self::split_cols`]): `(first row or column, block)`.
    pub(crate) fn blocks(
        self,
        ends: impl Iterator<Item = usize>,
        split: fn(Self, usize) -> (Self, Self),
    ) -> impl Iterator<Item = (usize, Self)> {
        let mut rest = Some((0, self));
        ends.map(move |end| {
            let (at, view) = rest.take().expect("ends past the last block");
            let (head, tail) = split(view, end - at);
            rest = Some((end, tail));
            (at, head)
        })
    }

    /// The `rows x cols` block at `(i, j)`, borrowed from this view.
    pub(crate) fn block(&mut self, i: usize, j: usize, rows: usize, cols: usize) -> MatMut<'_, T> {
        assert!(
            i + rows <= self.rows && j + cols <= self.cols,
            "MatMut: block out of range"
        );
        self.at(i, j, rows, cols)
    }

    /// Column `j`'s `rows` entries.
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [T] {
        assert!(j < self.cols, "MatMut: column out of range");
        if self.rows == 0 {
            return &mut [];
        }
        // SAFETY: `new` checked that column `j < cols` of the storage holds
        // `rows` valid entries from `ptr + j * ld` (splits and blocks only
        // narrow that), these belong to this view alone, and the slice
        // borrows the view mutably for its lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows) }
    }
}

/// Run the SIMD microkernel matching `(T, MR, NR, tier)` on one packed
/// panel pair, accumulating into the tile `c` (`mr x nr`). Returns `false`
/// when no vector kernel applies — the caller then runs the portable
/// scalar tile. Panel layout is exactly `pack_a`/`pack_b`'s: `kc` steps of
/// `MR` (resp. `NR`) contiguous, zero-padded scalars.
#[inline]
pub(crate) fn microkernel_simd<T: Scalar, const MR: usize, const NR: usize>(
    tier: SimdTier,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
    kc: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let (mr, nr) = c.shape();
        assert!(ap.len() >= MR * kc && bp.len() >= NR * kc && mr <= MR && nr <= NR);
        let ldc = c.ld;
        match tier {
            SimdTier::Avx512 if MR == 16 && NR == 8 => {
                if let (Some(a), Some(b), Some(cp)) = (
                    cast::<T, f64>(ap),
                    cast::<T, f64>(bp),
                    cast_ptr::<T, f64>(c.ptr),
                ) {
                    // SAFETY: tier == Avx512 certifies avx512f at runtime;
                    // panel lengths checked above, and the tile `c` is this
                    // call's alone: `mr x nr` entries at stride `ldc`.
                    unsafe { x86::f64_avx512_16x8(kc, a, b, cp, ldc, mr, nr) };
                    return true;
                }
            }
            SimdTier::Avx512 if MR == 32 && NR == 8 => {
                if let (Some(a), Some(b), Some(cp)) = (
                    cast::<T, f32>(ap),
                    cast::<T, f32>(bp),
                    cast_ptr::<T, f32>(c.ptr),
                ) {
                    // SAFETY: as above.
                    unsafe { x86::f32_avx512_32x8(kc, a, b, cp, ldc, mr, nr) };
                    return true;
                }
            }
            SimdTier::Avx2 if MR == 8 && NR == 6 => {
                if let (Some(a), Some(b), Some(cp)) = (
                    cast::<T, f64>(ap),
                    cast::<T, f64>(bp),
                    cast_ptr::<T, f64>(c.ptr),
                ) {
                    // SAFETY: tier == Avx2 certifies avx2+fma at runtime.
                    unsafe { x86::f64_avx2_8x6(kc, a, b, cp, ldc, mr, nr) };
                    return true;
                }
            }
            SimdTier::Avx2 if MR == 16 && NR == 6 => {
                if let (Some(a), Some(b), Some(cp)) = (
                    cast::<T, f32>(ap),
                    cast::<T, f32>(bp),
                    cast_ptr::<T, f32>(c.ptr),
                ) {
                    // SAFETY: as above.
                    unsafe { x86::f32_avx2_16x6(kc, a, b, cp, ldc, mr, nr) };
                    return true;
                }
            }
            _ => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (tier, ap, bp, c, kc);
    }
    false
}

/// Fused-contraction lane update `acc[t] = k * x[t] + acc[t]` over equal
/// lanes — the column-blocked inner product of the sum-factorized FE
/// stiffness apply. Written as explicit `mul_add` so LLVM emits packed
/// `vfmadd` under `target-cpu=native`; semantics are one rounding per lane.
// dftlint:hot
#[inline]
pub fn fma_lane_f64(acc: &mut [f64], x: &[f64], k: f64) {
    for (a, &xv) in acc.iter_mut().zip(x.iter()) {
        *a = k.mul_add(xv, *a);
    }
}

/// `f32` twin of [`fma_lane_f64`].
// dftlint:hot
#[inline]
pub fn fma_lane_f32(acc: &mut [f32], x: &[f32], k: f32) {
    for (a, &xv) in acc.iter_mut().zip(x.iter()) {
        *a = k.mul_add(xv, *a);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// AVX-512F f64 microkernel on a `16 x 8` register tile: 16 zmm
    /// accumulators, one broadcast FMA per `(column, half-tile)` per `k`
    /// step, ascending `k` (one fused rounding per element per step).
    ///
    /// # Safety
    /// Caller must have verified `avx512f` at runtime and that
    /// `ap.len() >= 16*kc`, `bp.len() >= 8*kc`, and that `cp` is valid for
    /// reads and writes of rows `0..16` of columns `0..8` at stride `ldc`
    /// when `mr == 16 && nr == 8`, of rows `0..mr` of columns `0..nr`
    /// otherwise (`mr <= 16`, `nr <= 8`), with no other thread touching
    /// them.
    // dftlint:hot
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f64_avx512_16x8(
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        cp: *mut f64,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut acc = [[_mm512_setzero_pd(); 2]; 8];
        // Unrolled by 4 with an 8-step prefetch lead: ~20% measured over the
        // rolled loop on this Xeon (loop overhead amortized, panel lines in
        // L1 before use). Each accumulator still receives exactly one FMA
        // per k step, ascending in k, so the result is bit-identical to the
        // rolled form (prefetch is a non-faulting hint — running past the
        // panel end is fine).
        let mut l = 0;
        while l + 4 <= kc {
            _mm_prefetch::<_MM_HINT_T0>(a.add((l + 8) * 16) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(a.add((l + 8) * 16 + 8) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(b.add((l + 8) * 8) as *const i8);
            for s in l..l + 4 {
                let a0 = _mm512_loadu_pd(a.add(s * 16));
                let a1 = _mm512_loadu_pd(a.add(s * 16 + 8));
                for q in 0..8 {
                    let w = _mm512_set1_pd(*b.add(s * 8 + q));
                    acc[q][0] = _mm512_fmadd_pd(a0, w, acc[q][0]);
                    acc[q][1] = _mm512_fmadd_pd(a1, w, acc[q][1]);
                }
            }
            l += 4;
        }
        while l < kc {
            let a0 = _mm512_loadu_pd(a.add(l * 16));
            let a1 = _mm512_loadu_pd(a.add(l * 16 + 8));
            for q in 0..8 {
                let w = _mm512_set1_pd(*b.add(l * 8 + q));
                acc[q][0] = _mm512_fmadd_pd(a0, w, acc[q][0]);
                acc[q][1] = _mm512_fmadd_pd(a1, w, acc[q][1]);
            }
            l += 1;
        }
        if mr == 16 && nr == 8 {
            for q in 0..8 {
                let cc = cp.add(q * ldc);
                _mm512_storeu_pd(cc, _mm512_add_pd(_mm512_loadu_pd(cc), acc[q][0]));
                _mm512_storeu_pd(
                    cc.add(8),
                    _mm512_add_pd(_mm512_loadu_pd(cc.add(8)), acc[q][1]),
                );
            }
        } else {
            let mut tile = [0.0f64; 16 * 8];
            for q in 0..8 {
                _mm512_storeu_pd(tile.as_mut_ptr().add(q * 16), acc[q][0]);
                _mm512_storeu_pd(tile.as_mut_ptr().add(q * 16 + 8), acc[q][1]);
            }
            for q in 0..nr {
                for r in 0..mr {
                    *cp.add(q * ldc + r) += tile[q * 16 + r];
                }
            }
        }
    }

    /// AVX-512F f32 microkernel on a `32 x 8` register tile.
    ///
    /// # Safety
    /// As [`f64_avx512_16x8`], with `mr <= 32` and f32 panels.
    // dftlint:hot
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f32_avx512_32x8(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        cp: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut acc = [[_mm512_setzero_ps(); 2]; 8];
        // Same unroll-by-4 + prefetch-ahead structure as the f64 kernel;
        // identical bit-exactness argument.
        let mut l = 0;
        while l + 4 <= kc {
            _mm_prefetch::<_MM_HINT_T0>(a.add((l + 8) * 32) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(a.add((l + 8) * 32 + 16) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(b.add((l + 8) * 8) as *const i8);
            for s in l..l + 4 {
                let a0 = _mm512_loadu_ps(a.add(s * 32));
                let a1 = _mm512_loadu_ps(a.add(s * 32 + 16));
                for q in 0..8 {
                    let w = _mm512_set1_ps(*b.add(s * 8 + q));
                    acc[q][0] = _mm512_fmadd_ps(a0, w, acc[q][0]);
                    acc[q][1] = _mm512_fmadd_ps(a1, w, acc[q][1]);
                }
            }
            l += 4;
        }
        while l < kc {
            let a0 = _mm512_loadu_ps(a.add(l * 32));
            let a1 = _mm512_loadu_ps(a.add(l * 32 + 16));
            for q in 0..8 {
                let w = _mm512_set1_ps(*b.add(l * 8 + q));
                acc[q][0] = _mm512_fmadd_ps(a0, w, acc[q][0]);
                acc[q][1] = _mm512_fmadd_ps(a1, w, acc[q][1]);
            }
            l += 1;
        }
        if mr == 32 && nr == 8 {
            for q in 0..8 {
                let cc = cp.add(q * ldc);
                _mm512_storeu_ps(cc, _mm512_add_ps(_mm512_loadu_ps(cc), acc[q][0]));
                _mm512_storeu_ps(
                    cc.add(16),
                    _mm512_add_ps(_mm512_loadu_ps(cc.add(16)), acc[q][1]),
                );
            }
        } else {
            let mut tile = [0.0f32; 32 * 8];
            for q in 0..8 {
                _mm512_storeu_ps(tile.as_mut_ptr().add(q * 32), acc[q][0]);
                _mm512_storeu_ps(tile.as_mut_ptr().add(q * 32 + 16), acc[q][1]);
            }
            for q in 0..nr {
                for r in 0..mr {
                    *cp.add(q * ldc + r) += tile[q * 32 + r];
                }
            }
        }
    }

    /// AVX2+FMA f64 microkernel on an `8 x 6` register tile: 12 ymm
    /// accumulators (of 16 architectural ymm registers).
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` at runtime and the bounds
    /// of [`f64_avx512_16x8`] with `mr <= 8`, `nr <= 6`.
    // dftlint:hot
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f64_avx2_8x6(
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        cp: *mut f64,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut acc = [[_mm256_setzero_pd(); 2]; 6];
        for l in 0..kc {
            let a0 = _mm256_loadu_pd(a.add(l * 8));
            let a1 = _mm256_loadu_pd(a.add(l * 8 + 4));
            for q in 0..6 {
                let w = _mm256_set1_pd(*b.add(l * 6 + q));
                acc[q][0] = _mm256_fmadd_pd(a0, w, acc[q][0]);
                acc[q][1] = _mm256_fmadd_pd(a1, w, acc[q][1]);
            }
        }
        if mr == 8 && nr == 6 {
            for q in 0..6 {
                let cc = cp.add(q * ldc);
                _mm256_storeu_pd(cc, _mm256_add_pd(_mm256_loadu_pd(cc), acc[q][0]));
                _mm256_storeu_pd(
                    cc.add(4),
                    _mm256_add_pd(_mm256_loadu_pd(cc.add(4)), acc[q][1]),
                );
            }
        } else {
            let mut tile = [0.0f64; 8 * 6];
            for q in 0..6 {
                _mm256_storeu_pd(tile.as_mut_ptr().add(q * 8), acc[q][0]);
                _mm256_storeu_pd(tile.as_mut_ptr().add(q * 8 + 4), acc[q][1]);
            }
            for q in 0..nr {
                for r in 0..mr {
                    *cp.add(q * ldc + r) += tile[q * 8 + r];
                }
            }
        }
    }

    /// AVX2+FMA f32 microkernel on a `16 x 6` register tile.
    ///
    /// # Safety
    /// As [`f64_avx2_8x6`], with `mr <= 16` and f32 panels.
    // dftlint:hot
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_avx2_16x6(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        cp: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut acc = [[_mm256_setzero_ps(); 2]; 6];
        for l in 0..kc {
            let a0 = _mm256_loadu_ps(a.add(l * 16));
            let a1 = _mm256_loadu_ps(a.add(l * 16 + 8));
            for q in 0..6 {
                let w = _mm256_set1_ps(*b.add(l * 6 + q));
                acc[q][0] = _mm256_fmadd_ps(a0, w, acc[q][0]);
                acc[q][1] = _mm256_fmadd_ps(a1, w, acc[q][1]);
            }
        }
        if mr == 16 && nr == 6 {
            for q in 0..6 {
                let cc = cp.add(q * ldc);
                _mm256_storeu_ps(cc, _mm256_add_ps(_mm256_loadu_ps(cc), acc[q][0]));
                _mm256_storeu_ps(
                    cc.add(8),
                    _mm256_add_ps(_mm256_loadu_ps(cc.add(8)), acc[q][1]),
                );
            }
        } else {
            let mut tile = [0.0f32; 16 * 6];
            for q in 0..6 {
                _mm256_storeu_ps(tile.as_mut_ptr().add(q * 16), acc[q][0]);
                _mm256_storeu_ps(tile.as_mut_ptr().add(q * 16 + 8), acc[q][1]);
            }
            for q in 0..nr {
                for r in 0..mr {
                    *cp.add(q * ldc + r) += tile[q * 16 + r];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_name_round_trip() {
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
        assert_eq!(SimdTier::Avx512.name(), "avx512");
    }

    #[test]
    fn active_tier_is_cached_and_within_capability() {
        let t = active_tier();
        assert!(t <= hw_cap());
        assert_eq!(t, active_tier());
    }

    #[test]
    fn cast_rejects_type_mismatch() {
        let v = [1.0f64, 2.0];
        assert!(cast::<f64, f32>(&v).is_none());
        assert_eq!(cast::<f64, f64>(&v).unwrap(), &v);
    }

    #[test]
    fn fma_lanes_match_scalar_mul_add() {
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut acc: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).cos()).collect();
        let expect: Vec<f64> = acc
            .iter()
            .zip(&x)
            .map(|(&a, &xv)| 1.37_f64.mul_add(xv, a))
            .collect();
        fma_lane_f64(&mut acc, &x, 1.37);
        for (g, e) in acc.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }
}

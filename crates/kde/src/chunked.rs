//! Chunked, autovectorizer-friendly inner loops for the columnar
//! (structure-of-arrays) kernel path.
//!
//! The columnar layout in [`crate::columns`] turns subspace density
//! evaluation into three primitive loops over contiguous `f64` slices:
//! seeding a per-row product accumulator, multiplying one dimension's
//! kernel column into it, and a final ordered sum
//! ([`mul_into_ordered_sum`] fuses the last two for a vector extended by
//! one column). The multiply loops are written with fixed-width
//! `chunks_exact` bodies so the autovectorizer can lift them to SIMD
//! (the 4/8-wide bodies have no bounds checks, no cross-iteration
//! dependence, and a single load-multiply-store per lane); the final
//! sum is deliberately a plain sequential loop because its evaluation
//! *order* is part of the bit-for-bit contract with the scalar
//! reference path.
//!
//! [`gaussian_kernel_row`] is the column *build* counterpart: one
//! dimension's kernel evaluations for every row, from precomputed
//! prefactors and variances, generic over the exponential so a single
//! monomorphized loop serves both the exact (`f64::exp`) and
//! bounded-error ([`crate::fastexp::fast_exp`]) builds.
//!
//! [`with_scratch`] supplies the per-thread product buffer so the hot
//! path performs no per-call allocation; re-entrant use (or a poisoned
//! borrow) falls back to a fresh allocation rather than panicking.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::cell::RefCell;

/// Width of the unrolled multiply bodies. Eight f64 lanes span one or
/// two SIMD registers on every x86-64 feature level (SSE2 → AVX-512).
const UNROLL: usize = 8;

thread_local! {
    /// Per-thread product accumulator reused across subspace queries.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a zero-copy per-thread scratch slice of length `len`.
///
/// The slice contents are unspecified on entry; callers must
/// initialize it (see [`seed_products`]). Falls back to a fresh
/// allocation when the thread-local buffer is already borrowed
/// (re-entrant use), so this never panics.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

/// Seeds the per-row product accumulator: row weights when given
/// (micro-cluster counts `n(C_i)`), else `1.0` — exactly the value the
/// scalar reference loop starts each row's running product from.
pub fn seed_products(acc: &mut [f64], weights: Option<&[f64]>) {
    match weights {
        Some(w) => {
            let n = acc.len().min(w.len());
            acc[..n].copy_from_slice(&w[..n]);
        }
        None => acc.fill(1.0),
    }
}

/// `acc[i] *= col[i]` over the common prefix, 8-wide unrolled.
///
/// Per-row multiplication order is preserved by construction: the
/// caller invokes this once per subspace dimension in ascending order,
/// so row `r` sees exactly the multiply sequence of the scalar loop.
pub fn mul_assign(acc: &mut [f64], col: &[f64]) {
    let n = acc.len().min(col.len());
    let mut a = acc[..n].chunks_exact_mut(UNROLL);
    let mut c = col[..n].chunks_exact(UNROLL);
    for (av, cv) in a.by_ref().zip(c.by_ref()) {
        av[0] *= cv[0];
        av[1] *= cv[1];
        av[2] *= cv[2];
        av[3] *= cv[3];
        av[4] *= cv[4];
        av[5] *= cv[5];
        av[6] *= cv[6];
        av[7] *= cv[7];
    }
    for (av, cv) in a.into_remainder().iter_mut().zip(c.remainder()) {
        *av *= cv;
    }
}

/// Sequential sum in ascending index order.
///
/// NOT a pairwise/unrolled reduction on purpose: the scalar reference
/// path accumulates `sum += prod` row by row, and reassociating the
/// sum would break the bit-for-bit cache contract.
pub fn ordered_sum(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &x in xs {
        sum += x;
    }
    sum
}

/// `out[i] = prefix[i] · col[i]` over the common prefix, returning the
/// sequential sum of the new `out` in ascending index order.
///
/// One pass instead of a copy, a [`mul_assign`] and an [`ordered_sum`],
/// with the same multiplications and the same additions in the same
/// order, so the vector and the sum are bit-identical to those three.
pub fn mul_into_ordered_sum(out: &mut [f64], prefix: &[f64], col: &[f64]) -> f64 {
    let mut sum = 0.0;
    for ((o, &p), &c) in out.iter_mut().zip(prefix).zip(col) {
        *o = p * c;
        sum += *o;
    }
    sum
}

/// One dimension's kernel column: for every row `r`,
/// `out[r] = pref[r] · exp(−(xj − cen[r])² / two_var[r])`.
///
/// These are exactly the operations (and operand order) of
/// `GaussianErrorKernel::evaluate` with its prefactor and doubled
/// variance precomputed, so the column is bit-identical to `rows`
/// scalar kernel calls when `exp` is the same function. Generic over
/// the exponential: monomorphized once with `f64::exp` (or
/// [`crate::fastexp::hot_exp`]) for the exact build and once with
/// [`crate::fastexp::fast_exp`] for the bounded-error build, keeping
/// the call inlineable in both.
pub fn gaussian_kernel_row<F: Fn(f64) -> f64 + Copy>(
    out: &mut [f64],
    xj: f64,
    cen: &[f64],
    pref: &[f64],
    two_var: &[f64],
    exp: F,
) {
    let n = out.len().min(cen.len()).min(pref.len()).min(two_var.len());
    let mut o = out[..n].chunks_exact_mut(4);
    let mut c = cen[..n].chunks_exact(4);
    let mut p = pref[..n].chunks_exact(4);
    let mut v = two_var[..n].chunks_exact(4);
    for (((ov, cv), pv), vv) in o.by_ref().zip(c.by_ref()).zip(p.by_ref()).zip(v.by_ref()) {
        let d0 = xj - cv[0];
        let d1 = xj - cv[1];
        let d2 = xj - cv[2];
        let d3 = xj - cv[3];
        ov[0] = pv[0] * exp(-d0 * d0 / vv[0]);
        ov[1] = pv[1] * exp(-d1 * d1 / vv[1]);
        ov[2] = pv[2] * exp(-d2 * d2 / vv[2]);
        ov[3] = pv[3] * exp(-d3 * d3 / vv[3]);
    }
    let (o_rem, c_rem, p_rem, v_rem) = (
        o.into_remainder(),
        c.remainder(),
        p.remainder(),
        v.remainder(),
    );
    for i in 0..o_rem.len() {
        let d = xj - c_rem[i];
        o_rem[i] = p_rem[i] * exp(-d * d / v_rem[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_assign_matches_scalar_for_all_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let mut acc: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
            let col: Vec<f64> = (0..n).map(|i| 0.9 + i as f64 * 0.01).collect();
            let expected: Vec<f64> = acc.iter().zip(&col).map(|(a, c)| a * c).collect();
            mul_assign(&mut acc, &col);
            for (got, want) in acc.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn seed_products_weights_and_ones() {
        let mut acc = vec![0.0; 4];
        seed_products(&mut acc, Some(&[2.0, 3.0, 4.0, 5.0]));
        assert_eq!(acc, vec![2.0, 3.0, 4.0, 5.0]);
        seed_products(&mut acc, None);
        assert_eq!(acc, vec![1.0; 4]);
    }

    #[test]
    fn ordered_sum_is_sequential() {
        // Grouping-sensitive values: any reassociation would differ.
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut expected = 0.0;
        for &x in &xs {
            expected += x;
        }
        assert_eq!(ordered_sum(&xs).to_bits(), expected.to_bits());
    }

    #[test]
    fn fused_multiply_and_sum_match_the_three_passes() {
        for n in [0usize, 1, 7, 8, 9, 61] {
            // Magnitudes from subnormal to large, with exact zeros.
            let prefix: Vec<f64> = (0..n)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => 5e-324 * (i + 1) as f64,
                    _ => (i as f64 * 0.618_033_988_749).fract() * 10f64.powi(i as i32 % 9 - 4),
                })
                .collect();
            let col: Vec<f64> = (0..n).map(|i| 0.3 + (i as f64 * 0.41).fract()).collect();
            let mut want = prefix.clone();
            mul_assign(&mut want, &col);
            let want_sum = ordered_sum(&want);
            let mut got = vec![f64::NAN; n];
            let sum = mul_into_ordered_sum(&mut got, &prefix, &col);
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "sum of {n}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn gaussian_row_matches_scalar_kernel_ops() {
        for n in [1usize, 3, 4, 5, 8, 13] {
            let cen: Vec<f64> = (0..n).map(|i| i as f64 * 0.7 - 1.0).collect();
            let pref: Vec<f64> = (0..n).map(|i| 0.2 + i as f64 * 0.05).collect();
            let two_var: Vec<f64> = (0..n).map(|i| 0.5 + i as f64 * 0.3).collect();
            let xj = 0.37;
            let mut out = vec![0.0; n];
            gaussian_kernel_row(&mut out, xj, &cen, &pref, &two_var, f64::exp);
            for i in 0..n {
                let d = xj - cen[i];
                let want = pref[i] * (-d * d / two_var[i]).exp();
                assert_eq!(out[i].to_bits(), want.to_bits(), "row {i} of {n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_and_reentrancy() {
        let a = with_scratch(8, |buf| {
            buf.fill(2.0);
            // Re-entrant use must not panic; it gets a fresh buffer.
            let inner = with_scratch(4, |b2| {
                b2.fill(3.0);
                ordered_sum(b2)
            });
            ordered_sum(buf) + inner
        });
        assert_eq!(a, 16.0 + 12.0);
        // The outer buffer grows monotonically and is reused.
        let b = with_scratch(2, |buf| buf.len());
        assert_eq!(b, 2);
    }
}

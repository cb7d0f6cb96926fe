//! The classic (error-free) Gaussian kernel.
//!
//! A kernel `K` is a symmetric probability density; the scaled kernel used
//! in estimation is `K_h(u) = (1/h)·K(u/h)` (Eq. 2 of the paper). It is the
//! `ψ = 0` reference the error-based kernel ([`crate::error_kernel`]) is
//! tested against; the test suite checks by quadrature that it integrates
//! to 1 over ℝ.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use serde::{Deserialize, Serialize};

/// The constant `1/√(2π)`.
pub(crate) const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// A symmetric, normalized kernel function.
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// Evaluates the *standardized* kernel `K(u)`.
    fn profile(&self, u: f64) -> f64;

    /// Evaluates the scaled kernel `K_h(diff) = (1/h)·K(diff/h)`.
    ///
    /// For degenerate `h = 0` the kernel collapses to a point mass; we
    /// return `+∞` at `diff == 0` and `0` elsewhere, which keeps densities
    /// well-ordered in comparisons even if not integrable.
    fn evaluate(&self, diff: f64, h: f64) -> f64 {
        if h <= 0.0 {
            // udm-lint: allow(UDM002) degenerate point mass sits exactly at diff == 0
            return if diff == 0.0 { f64::INFINITY } else { 0.0 };
        }
        self.profile(diff / h) / h
    }
}

/// The Gaussian kernel `K(u) = (1/√2π)·e^{−u²/2}` — the kernel the paper
/// uses throughout (Eq. 2), and the only one with an analytic error-based
/// generalization (see [`crate::error_kernel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaussianKernel;

impl Kernel for GaussianKernel {
    #[inline]
    fn profile(&self, u: f64) -> f64 {
        INV_SQRT_2PI * (-0.5 * u * u).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::trapezoid;

    #[test]
    fn gaussian_kernel_is_normalized() {
        let integral = trapezoid(|u| GaussianKernel.profile(u), -10.0, 10.0, 20_001);
        assert!(
            (integral - 1.0).abs() < 1e-3,
            "Gaussian kernel integrates to {integral}"
        );
    }

    #[test]
    fn gaussian_peak_value() {
        assert!((GaussianKernel.profile(0.0) - INV_SQRT_2PI).abs() < 1e-15);
    }

    #[test]
    fn kernel_is_symmetric() {
        for u in [0.1, 0.5, 0.9, 2.0] {
            assert_eq!(GaussianKernel.profile(u), GaussianKernel.profile(-u));
        }
    }

    #[test]
    fn scaled_kernel_integrates_to_one_for_any_h() {
        for h in [0.1, 1.0, 3.7] {
            let integral = trapezoid(|x| GaussianKernel.evaluate(x, h), -50.0, 50.0, 100_001);
            assert!((integral - 1.0).abs() < 1e-6, "h={h}: {integral}");
        }
    }

    #[test]
    fn scaling_shrinks_peak() {
        let narrow = GaussianKernel.evaluate(0.0, 0.5);
        let wide = GaussianKernel.evaluate(0.0, 2.0);
        assert!(narrow > wide);
    }

    #[test]
    fn degenerate_bandwidth_is_point_mass() {
        assert_eq!(GaussianKernel.evaluate(0.5, 0.0), 0.0);
        assert!(GaussianKernel.evaluate(0.0, 0.0).is_infinite());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn kernel_is_non_negative(u in -100.0f64..100.0) {
            prop_assert!(GaussianKernel.profile(u) >= 0.0);
        }

        #[test]
        fn gaussian_is_maximized_at_origin(u in -100.0f64..100.0) {
            prop_assert!(GaussianKernel.profile(u) <= GaussianKernel.profile(0.0));
        }

        #[test]
        fn evaluate_scales_correctly(diff in -10.0f64..10.0, h in 0.01f64..10.0) {
            let direct = GaussianKernel.evaluate(diff, h);
            let manual = GaussianKernel.profile(diff / h) / h;
            prop_assert!((direct - manual).abs() < 1e-12);
        }
    }
}

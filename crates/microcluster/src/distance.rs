//! Assignment distances, including the error-adjusted metric of Eq. 5.
//!
//! When assigning an uncertain point to the nearest micro-cluster
//! centroid, the paper adjusts for errors dimension-wise:
//!
//! ```text
//! dist(Y, c) = Σ_j max{ 0, (Y_j − c_j)² − ψ_j(Y)² }        (Eq. 5)
//! ```
//!
//! Dimensions whose apparent displacement is within the point's own error
//! contribute nothing — a "best-case scenario along each dimension", which
//! the paper motivates from the behaviour of distance functions for noisy
//! high-dimensional data (Figure 2: a point whose error ellipse is skewed
//! toward centroid 1 should join centroid 1 even if centroid 2 is closer
//! in raw Euclidean terms).

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use serde::{Deserialize, Serialize};
use udm_core::UncertainPoint;

/// Squared Euclidean distance between a point's values and a centroid.
#[inline]
pub fn euclidean_sq(values: &[f64], centroid: &[f64]) -> f64 {
    debug_assert_eq!(values.len(), centroid.len());
    values
        .iter()
        .zip(centroid.iter())
        .map(|(&v, &c)| {
            let d = v - c;
            d * d
        })
        .sum()
}

/// The paper's error-adjusted squared distance (Eq. 5):
/// `Σ_j max{0, (Y_j − c_j)² − ψ_j(Y)²}`.
#[inline]
pub fn error_adjusted_sq(point: &UncertainPoint, centroid: &[f64]) -> f64 {
    debug_assert_eq!(point.dim(), centroid.len());
    let mut total = 0.0;
    for (j, &c) in centroid.iter().enumerate() {
        let d = point.value(j) - c;
        let e = point.error(j);
        total += (d * d - e * e).max(0.0);
    }
    total
}

/// Eq. 5 without the `max{0,·}` clamp — an ablation variant that lets
/// dimensions with large errors produce negative contributions.
#[inline]
pub fn error_adjusted_unclamped(point: &UncertainPoint, centroid: &[f64]) -> f64 {
    debug_assert_eq!(point.dim(), centroid.len());
    let mut total = 0.0;
    for (j, &c) in centroid.iter().enumerate() {
        let d = point.value(j) - c;
        let e = point.error(j);
        total += d * d - e * e;
    }
    total
}

/// Which distance the maintainer uses for nearest-centroid assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AssignmentDistance {
    /// The paper's Eq. 5 (default).
    #[default]
    ErrorAdjusted,
    /// Plain squared Euclidean — the error-oblivious baseline.
    Euclidean,
    /// Eq. 5 without the per-dimension clamp (ablation).
    ErrorAdjustedUnclamped,
}

impl AssignmentDistance {
    /// Evaluates the configured distance between `point` and `centroid`.
    #[inline]
    pub fn evaluate(self, point: &UncertainPoint, centroid: &[f64]) -> f64 {
        match self {
            AssignmentDistance::ErrorAdjusted => error_adjusted_sq(point, centroid),
            AssignmentDistance::Euclidean => euclidean_sq(point.values(), centroid),
            AssignmentDistance::ErrorAdjustedUnclamped => error_adjusted_unclamped(point, centroid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(values: &[f64], errors: &[f64]) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec()).unwrap()
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn error_adjusted_reduces_to_euclidean_at_zero_error() {
        let p = pt(&[1.0, 2.0], &[0.0, 0.0]);
        let c = [4.0, 6.0];
        assert_eq!(error_adjusted_sq(&p, &c), euclidean_sq(p.values(), &c));
    }

    #[test]
    fn within_error_dimension_contributes_zero() {
        // displacement 1.0, error 2.0 -> clamped to 0
        let p = pt(&[0.0], &[2.0]);
        assert_eq!(error_adjusted_sq(&p, &[1.0]), 0.0);
    }

    #[test]
    fn partial_error_subtracts() {
        // displacement 3 (sq 9), error 2 (sq 4) -> 5
        let p = pt(&[0.0], &[2.0]);
        assert!((error_adjusted_sq(&p, &[3.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn figure2_scenario_error_skew_changes_assignment() {
        // The paper's Figure 2: X is closer to centroid 2 in Euclidean
        // terms, but its error is skewed along dimension 0 toward
        // centroid 1, so the error-adjusted distance prefers centroid 1.
        let x = pt(&[0.0, 0.0], &[5.0, 0.1]); // large error along dim 0
        let centroid1 = [4.0, 0.0]; // displaced along the noisy dim
        let centroid2 = [0.0, 3.0]; // displaced along the precise dim

        // Euclidean prefers centroid 2:
        assert!(euclidean_sq(x.values(), &centroid2) < euclidean_sq(x.values(), &centroid1));
        // Error-adjusted prefers centroid 1:
        assert!(error_adjusted_sq(&x, &centroid1) < error_adjusted_sq(&x, &centroid2));
    }

    #[test]
    fn unclamped_can_go_negative() {
        let p = pt(&[0.0], &[3.0]);
        assert!(error_adjusted_unclamped(&p, &[1.0]) < 0.0);
        assert_eq!(error_adjusted_sq(&p, &[1.0]), 0.0);
    }

    #[test]
    fn dispatch_matches_direct_functions() {
        let p = pt(&[1.0, -2.0], &[0.5, 1.5]);
        let c = [0.0, 0.0];
        assert_eq!(
            AssignmentDistance::ErrorAdjusted.evaluate(&p, &c),
            error_adjusted_sq(&p, &c)
        );
        assert_eq!(
            AssignmentDistance::Euclidean.evaluate(&p, &c),
            euclidean_sq(p.values(), &c)
        );
        assert_eq!(
            AssignmentDistance::ErrorAdjustedUnclamped.evaluate(&p, &c),
            error_adjusted_unclamped(&p, &c)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_point_and_centroid() -> impl Strategy<Value = (UncertainPoint, Vec<f64>)> {
        (1usize..6).prop_flat_map(|d| {
            (
                proptest::collection::vec((-50.0f64..50.0, 0.0f64..10.0), d..=d),
                proptest::collection::vec(-50.0f64..50.0, d..=d),
            )
                .prop_map(|(rows, centroid)| {
                    let (vs, es): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
                    (UncertainPoint::new(vs, es).unwrap(), centroid)
                })
        })
    }

    proptest! {
        #[test]
        fn error_adjusted_bounded_by_euclidean((p, c) in arb_point_and_centroid()) {
            prop_assert!(error_adjusted_sq(&p, &c) <= euclidean_sq(p.values(), &c) + 1e-12);
        }

        #[test]
        fn error_adjusted_non_negative((p, c) in arb_point_and_centroid()) {
            prop_assert!(error_adjusted_sq(&p, &c) >= 0.0);
        }

        #[test]
        fn monotone_decreasing_in_error((p, c) in arb_point_and_centroid(), scale in 1.0f64..4.0) {
            // Inflate all errors by `scale`; the distance must not increase.
            let inflated = UncertainPoint::new(
                p.values().to_vec(),
                p.errors().iter().map(|e| e * scale).collect(),
            ).unwrap();
            prop_assert!(error_adjusted_sq(&inflated, &c) <= error_adjusted_sq(&p, &c) + 1e-12);
        }

        #[test]
        fn zero_at_centroid((p, _c) in arb_point_and_centroid()) {
            prop_assert_eq!(error_adjusted_sq(&p, p.values()), 0.0);
        }
    }
}

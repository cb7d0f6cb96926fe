//! 1-D grid evaluation of density estimates, for plotting and numeric
//! verification.

use serde::{Deserialize, Serialize};
use udm_core::{Result, UdmError};

/// A 1-D evaluation grid: sample locations and density values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid1D {
    /// Sample locations, ascending and equally spaced.
    pub xs: Vec<f64>,
    /// Density values at the corresponding locations.
    pub ys: Vec<f64>,
}

impl Grid1D {
    /// Evaluates a density on `n` equally spaced samples of `[lo, hi]`,
    /// stopping at the first error `f` returns.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] for `n < 2`, [`UdmError::InvalidValue`]
    /// for non-finite or empty bounds, and the first error of `f`.
    pub fn evaluate<F: FnMut(f64) -> Result<f64>>(
        lo: f64,
        hi: f64,
        n: usize,
        f: F,
    ) -> Result<Self> {
        if n < 2 {
            return Err(UdmError::InvalidConfig(
                "grid needs at least 2 samples".into(),
            ));
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(UdmError::InvalidValue {
                what: "grid bounds",
                value: hi - lo,
            });
        }
        let step = (hi - lo) / (n - 1) as f64;
        let xs: Vec<f64> = (0..n).map(|i| lo + step * i as f64).collect();
        let ys = xs.iter().copied().map(f).collect::<Result<_>>()?;
        Ok(Grid1D { xs, ys })
    }

    /// Location of the highest density value (argmax).
    pub fn argmax(&self) -> Option<f64> {
        self.xs
            .iter()
            .zip(self.ys.iter())
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(&x, _)| x)
    }

    /// Total mass by trapezoidal quadrature over the grid.
    pub fn mass(&self) -> f64 {
        if self.xs.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for w in self.xs.windows(2).zip(self.ys.windows(2)) {
            let (xw, yw) = w;
            total += 0.5 * (yw[0] + yw[1]) * (xw[1] - xw[0]);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{ErrorKde, KdeConfig};
    use udm_core::{UncertainDataset, UncertainPoint};

    fn dataset_1d() -> UncertainDataset {
        UncertainDataset::from_points(vec![
            UncertainPoint::new(vec![0.0], vec![0.1]).unwrap(),
            UncertainPoint::new(vec![0.2], vec![0.0]).unwrap(),
            UncertainPoint::new(vec![-0.1], vec![0.3]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn evaluate_spacing_and_len() {
        let g = Grid1D::evaluate(0.0, 1.0, 11, Ok).unwrap();
        assert_eq!(g.xs.len(), 11);
        assert!((g.xs[1] - g.xs[0] - 0.1).abs() < 1e-12);
        assert_eq!(g.ys[10], 1.0);
    }

    #[test]
    fn evaluate_rejects_bad_input() {
        assert!(Grid1D::evaluate(0.0, 1.0, 1, Ok).is_err());
        assert!(Grid1D::evaluate(1.0, 0.0, 10, Ok).is_err());
        assert!(Grid1D::evaluate(0.0, f64::INFINITY, 10, Ok).is_err());
        // The first error of the density stops the sweep.
        let d = dataset_1d();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let mut calls = 0;
        let e = Grid1D::evaluate(-1.0, 1.0, 10, |x| {
            calls += 1;
            kde.density(&[x, x])
        })
        .unwrap_err();
        assert!(matches!(e, UdmError::DimensionMismatch { .. }), "{e:?}");
        assert_eq!(calls, 1);
    }

    #[test]
    fn kde_grid_mass_near_one() {
        let d = dataset_1d();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let g = Grid1D::evaluate(-10.0, 10.0, 4001, |x| kde.density(&[x])).unwrap();
        assert!((g.mass() - 1.0).abs() < 1e-4, "mass={}", g.mass());
    }

    #[test]
    fn argmax_near_data_mode() {
        let d = dataset_1d();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let g = Grid1D::evaluate(-5.0, 5.0, 2001, |x| kde.density(&[x])).unwrap();
        let m = g.argmax().unwrap();
        assert!(m.abs() < 0.5, "argmax={m}");
    }

    #[test]
    fn mass_of_trivial_grid_is_zero() {
        let g = Grid1D {
            xs: vec![0.0],
            ys: vec![1.0],
        };
        assert_eq!(g.mass(), 0.0);
    }
}

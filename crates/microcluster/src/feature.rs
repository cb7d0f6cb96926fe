//! The micro-cluster sufficient statistics of Definition 1.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use serde::{Deserialize, Serialize};
use udm_core::num::{clamp_non_negative, f64_from_count};
use udm_core::{Result, UdmError, UncertainPoint};

/// The `(3d + 1)`-tuple `CFT(C) = (CF2x, EF2x, CF1x, n)` of Definition 1:
/// per-dimension sums of squared values, squared errors, and values, plus
/// the member count.
///
/// As in BIRCH/CluStream, the statistics are **additive**: inserting a
/// point or merging another cluster only adds component-wise, so clusters
/// can be built in a single pass and combined across shards. All derived
/// quantities (centroid, variance, pseudo-point error) are computed on
/// demand from the sums.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroCluster {
    /// `CF2x`: per-dimension sum of squared data values.
    cf2: Vec<f64>,
    /// `EF2x`: per-dimension sum of squared error values.
    ef2: Vec<f64>,
    /// `CF1x`: per-dimension sum of data values.
    cf1: Vec<f64>,
    /// `n(C)`: number of absorbed points.
    n: u64,
    /// Largest timestamp among absorbed points (CluStream bookkeeping;
    /// not used by the paper's algorithm but cheap to carry).
    last_timestamp: u64,
}

impl MicroCluster {
    /// Creates an empty micro-cluster of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        MicroCluster {
            cf2: vec![0.0; dim],
            ef2: vec![0.0; dim],
            cf1: vec![0.0; dim],
            n: 0,
            last_timestamp: 0,
        }
    }

    /// Creates a cluster seeded with a single point.
    pub fn from_point(point: &UncertainPoint) -> Self {
        let mut c = Self::new(point.dim());
        #[expect(
            clippy::expect_used,
            reason = "cluster is sized from the point, dims cannot mismatch"
        )]
        c.insert(point)
            .expect("dimensionality matches by construction");
        c
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cf1.len()
    }

    /// Member count `n(C)`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `true` if no point has been absorbed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Raw `CF1x` vector (sums of values).
    #[inline]
    pub fn cf1(&self) -> &[f64] {
        &self.cf1
    }

    /// Raw `CF2x` vector (sums of squared values).
    #[inline]
    pub fn cf2(&self) -> &[f64] {
        &self.cf2
    }

    /// Raw `EF2x` vector (sums of squared errors).
    #[inline]
    pub fn ef2(&self) -> &[f64] {
        &self.ef2
    }

    /// Largest timestamp among absorbed points.
    #[inline]
    pub fn last_timestamp(&self) -> u64 {
        self.last_timestamp
    }

    /// Absorbs a point into the statistics (additivity of Definition 1).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] if the point's dimensionality
    /// differs from the cluster's.
    pub fn insert(&mut self, point: &UncertainPoint) -> Result<()> {
        if point.dim() != self.dim() {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim(),
                actual: point.dim(),
            });
        }
        for j in 0..self.dim() {
            let v = point.value(j);
            let e = point.error(j);
            self.cf1[j] += v;
            self.cf2[j] += v * v;
            self.ef2[j] += e * e;
        }
        self.n += 1;
        self.last_timestamp = self.last_timestamp.max(point.timestamp());
        Ok(())
    }

    /// Merges another cluster into this one (component-wise addition).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on differing dimensionality.
    pub fn merge(&mut self, other: &MicroCluster) -> Result<()> {
        if other.dim() != self.dim() {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        for j in 0..self.dim() {
            self.cf1[j] += other.cf1[j];
            self.cf2[j] += other.cf2[j];
            self.ef2[j] += other.ef2[j];
        }
        self.n += other.n;
        self.last_timestamp = self.last_timestamp.max(other.last_timestamp);
        Ok(())
    }

    /// Centroid `c(C) = CF1x / n`. Returns `None` for an empty cluster.
    pub fn centroid(&self) -> Option<Vec<f64>> {
        if self.n == 0 {
            return None;
        }
        let inv = 1.0 / f64_from_count(self.n);
        Some(self.cf1.iter().map(|&s| s * inv).collect())
    }

    /// Centroid coordinate along dimension `j`, `None` when empty.
    #[inline]
    pub fn centroid_coord(&self, j: usize) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.cf1[j] / f64_from_count(self.n))
        }
    }

    /// Within-cluster variance along dimension `j`:
    /// `CF2x_j/n − (CF1x_j/n)²` (clamped at zero against rounding).
    ///
    /// This is the `bias²` average of Lemma 1's proof — the spread of the
    /// members around the pseudo-point.
    pub fn variance(&self, j: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let inv = 1.0 / f64_from_count(self.n);
        let mean = self.cf1[j] * inv;
        // Counted clamp: catastrophic cancellation of CF2/n − mean² is the
        // paper's Lemma 1 failure mode (see udm_core::num).
        clamp_non_negative(self.cf2[j] * inv - mean * mean)
    }

    /// Mean squared member error along dimension `j`: `EF2_j / n`.
    pub fn mean_squared_error(&self, j: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ef2[j] / f64_from_count(self.n)
        }
    }

    /// Constructs a cluster directly from raw statistics (used by the
    /// snapshot loader).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] if the vectors disagree in length.
    pub fn from_raw(
        cf2: Vec<f64>,
        ef2: Vec<f64>,
        cf1: Vec<f64>,
        n: u64,
        last_timestamp: u64,
    ) -> Result<Self> {
        if cf2.len() != cf1.len() || ef2.len() != cf1.len() {
            return Err(UdmError::DimensionMismatch {
                expected: cf1.len(),
                actual: cf2.len().max(ef2.len()),
            });
        }
        Ok(MicroCluster {
            cf2,
            ef2,
            cf1,
            n,
            last_timestamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(values: &[f64], errors: &[f64]) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec()).unwrap()
    }

    #[test]
    fn empty_cluster() {
        let c = MicroCluster::new(3);
        assert_eq!(c.dim(), 3);
        assert!(c.is_empty());
        assert_eq!(c.centroid(), None);
        assert_eq!(c.variance(0), 0.0);
    }

    #[test]
    fn insert_accumulates_sums() {
        let mut c = MicroCluster::new(2);
        c.insert(&pt(&[1.0, 2.0], &[0.5, 0.0])).unwrap();
        c.insert(&pt(&[3.0, 4.0], &[0.5, 1.0])).unwrap();
        assert_eq!(c.n(), 2);
        assert_eq!(c.cf1(), &[4.0, 6.0]);
        assert_eq!(c.cf2(), &[10.0, 20.0]);
        assert_eq!(c.ef2(), &[0.5, 1.0]);
    }

    #[test]
    fn insert_validates_dim() {
        let mut c = MicroCluster::new(2);
        assert!(c.insert(&pt(&[1.0], &[0.0])).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn centroid_is_mean() {
        let mut c = MicroCluster::new(1);
        for v in [2.0, 4.0, 9.0] {
            c.insert(&pt(&[v], &[0.0])).unwrap();
        }
        assert_eq!(c.centroid().unwrap(), vec![5.0]);
        assert_eq!(c.centroid_coord(0), Some(5.0));
    }

    #[test]
    fn variance_matches_direct_formula() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut c = MicroCluster::new(1);
        for &v in &values {
            c.insert(&pt(&[v], &[0.0])).unwrap();
        }
        assert!((c.variance(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variance_clamped_non_negative() {
        let mut c = MicroCluster::new(1);
        // identical values can produce tiny negative differences in floats
        for _ in 0..1000 {
            c.insert(&pt(&[0.123_456_789_012_345], &[0.0])).unwrap();
        }
        assert!(c.variance(0) >= 0.0);
        assert!(c.variance(0) < 1e-12);
    }

    #[test]
    fn mean_squared_error_averages_ef2() {
        let mut c = MicroCluster::new(1);
        c.insert(&pt(&[0.0], &[3.0])).unwrap();
        c.insert(&pt(&[0.0], &[4.0])).unwrap();
        assert!((c.mean_squared_error(0) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_bulk_insert() {
        let points: Vec<UncertainPoint> = (0..10)
            .map(|i| pt(&[i as f64, (i * i) as f64], &[0.1 * i as f64, 0.2]))
            .collect();
        let mut whole = MicroCluster::new(2);
        for p in &points {
            whole.insert(p).unwrap();
        }
        let mut left = MicroCluster::new(2);
        let mut right = MicroCluster::new(2);
        for p in &points[..4] {
            left.insert(p).unwrap();
        }
        for p in &points[4..] {
            right.insert(p).unwrap();
        }
        left.merge(&right).unwrap();
        assert_eq!(left.n(), whole.n());
        for j in 0..2 {
            assert!((left.cf1()[j] - whole.cf1()[j]).abs() < 1e-9);
            assert!((left.cf2()[j] - whole.cf2()[j]).abs() < 1e-9);
            assert!((left.ef2()[j] - whole.ef2()[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_validates_dim() {
        let mut a = MicroCluster::new(2);
        let b = MicroCluster::new(3);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn timestamps_track_max() {
        let mut c = MicroCluster::new(1);
        c.insert(&pt(&[0.0], &[0.0]).with_timestamp(5)).unwrap();
        c.insert(&pt(&[0.0], &[0.0]).with_timestamp(3)).unwrap();
        assert_eq!(c.last_timestamp(), 5);
    }

    #[test]
    fn from_point_seeds() {
        let c = MicroCluster::from_point(&pt(&[1.0, 2.0], &[0.3, 0.4]));
        assert_eq!(c.n(), 1);
        assert_eq!(c.centroid().unwrap(), vec![1.0, 2.0]);
        assert!((c.ef2()[0] - 0.09).abs() < 1e-12);
    }

    #[test]
    fn from_raw_validates() {
        assert!(MicroCluster::from_raw(vec![1.0], vec![1.0, 2.0], vec![1.0], 1, 0).is_err());
        let c = MicroCluster::from_raw(vec![4.0], vec![0.0], vec![2.0], 1, 7).unwrap();
        assert_eq!(c.centroid().unwrap(), vec![2.0]);
        assert_eq!(c.last_timestamp(), 7);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_points(dim: usize) -> impl Strategy<Value = Vec<UncertainPoint>> {
        proptest::collection::vec(
            proptest::collection::vec((-100.0f64..100.0, 0.0f64..10.0), dim..=dim),
            1..50,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|row| {
                    let (vs, es): (Vec<f64>, Vec<f64>) = row.into_iter().unzip();
                    UncertainPoint::new(vs, es).unwrap()
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_commutative(a in arb_points(2), b in arb_points(2)) {
            let mut ca = MicroCluster::new(2);
            for p in &a { ca.insert(p).unwrap(); }
            let mut cb = MicroCluster::new(2);
            for p in &b { cb.insert(p).unwrap(); }

            let mut ab = ca.clone();
            ab.merge(&cb).unwrap();
            let mut ba = cb.clone();
            ba.merge(&ca).unwrap();

            prop_assert_eq!(ab.n(), ba.n());
            for j in 0..2 {
                prop_assert!((ab.cf1()[j] - ba.cf1()[j]).abs() < 1e-6);
                prop_assert!((ab.cf2()[j] - ba.cf2()[j]).abs() < 1e-6);
                prop_assert!((ab.ef2()[j] - ba.ef2()[j]).abs() < 1e-6);
            }
        }

        #[test]
        fn variance_matches_two_pass(pts in arb_points(1)) {
            let mut c = MicroCluster::new(1);
            for p in &pts { c.insert(p).unwrap(); }
            let n = pts.len() as f64;
            let mean = pts.iter().map(|p| p.value(0)).sum::<f64>() / n;
            let var = pts.iter().map(|p| (p.value(0) - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((c.variance(0) - var).abs() < 1e-6);
        }

        #[test]
        fn centroid_within_value_range(pts in arb_points(1)) {
            let mut c = MicroCluster::new(1);
            for p in &pts { c.insert(p).unwrap(); }
            let min = pts.iter().map(|p| p.value(0)).fold(f64::INFINITY, f64::min);
            let max = pts.iter().map(|p| p.value(0)).fold(f64::NEG_INFINITY, f64::max);
            let cen = c.centroid().unwrap()[0];
            prop_assert!(cen >= min - 1e-9 && cen <= max + 1e-9);
        }
    }
}

//! Single-pass streaming maintenance of error-based micro-clusters.
//!
//! The paper's variation of CluStream (§2.1): statistics are maintained
//! for `q` centroids; every incoming point is assigned to its closest
//! centroid under the error-adjusted distance (Eq. 5) and is **never**
//! allowed to create a new micro-cluster after warm-up; clusters are never
//! discarded, so every point is reflected in the statistics.
//!
//! Warm-up follows the paper's observation about Figure 11: "at the
//! earlier stages of the micro-clustering algorithm, only a small number
//! of micro-clusters were created, but this gradually increased to the
//! maximum number over time" — the first `q` *distinct* arrivals each seed
//! a cluster (for a randomly ordered stream this is a uniformly random
//! choice of seeds, matching "these q centroids are chosen randomly").

use crate::distance::AssignmentDistance;
use crate::feature::MicroCluster;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use udm_core::num::f64_from_count;
use udm_core::{Result, UdmError, UncertainDataset, UncertainPoint};

/// Configuration of the maintainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaintainerConfig {
    /// Number of micro-clusters `q`. The paper sizes this by available
    /// main memory; the experiments sweep 20–140.
    pub max_clusters: usize,
    /// Distance used for nearest-centroid assignment.
    pub distance: AssignmentDistance,
}

impl MaintainerConfig {
    /// Paper-default configuration with the given `q`.
    pub fn new(max_clusters: usize) -> Self {
        MaintainerConfig {
            max_clusters,
            distance: AssignmentDistance::ErrorAdjusted,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.max_clusters == 0 {
            return Err(UdmError::InvalidConfig(
                "max_clusters must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Streaming micro-cluster maintainer.
///
/// Centroids are cached and updated incrementally on every insertion so
/// assignment is a scan of `q` cached vectors — `O(q·d)` per point, which
/// is the linear-in-`q` cost the paper measures in Figure 8.
///
/// # Example
///
/// ```
/// use udm_core::UncertainPoint;
/// use udm_microcluster::{MaintainerConfig, MicroClusterMaintainer};
///
/// let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(4)).unwrap();
/// for i in 0..100 {
///     let p = UncertainPoint::new(vec![(i % 8) as f64], vec![0.2]).unwrap();
///     m.insert(&p).unwrap();
/// }
/// assert_eq!(m.num_clusters(), 4);
/// assert_eq!(m.points_seen(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct MicroClusterMaintainer {
    config: MaintainerConfig,
    dim: usize,
    clusters: Vec<MicroCluster>,
    centroids: Vec<Vec<f64>>,
    points_seen: u64,
}

impl MicroClusterMaintainer {
    /// Creates an empty maintainer for `dim`-dimensional points.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] for `max_clusters == 0`.
    pub fn new(dim: usize, config: MaintainerConfig) -> Result<Self> {
        config.validate()?;
        Ok(MicroClusterMaintainer {
            config,
            dim,
            clusters: Vec::with_capacity(config.max_clusters),
            centroids: Vec::with_capacity(config.max_clusters),
            points_seen: 0,
        })
    }

    /// Builds a maintainer by streaming an entire dataset through it once.
    pub fn from_dataset(dataset: &UncertainDataset, config: MaintainerConfig) -> Result<Self> {
        let mut m = Self::new(dataset.dim(), config)?;
        for p in dataset.iter() {
            m.insert(p)?;
        }
        Ok(m)
    }

    /// The configuration.
    pub fn config(&self) -> &MaintainerConfig {
        &self.config
    }

    /// Dimensionality of the maintained points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Current number of (non-empty) micro-clusters (≤ `q`).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Total number of points absorbed.
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }

    /// The maintained micro-clusters.
    pub fn clusters(&self) -> &[MicroCluster] {
        &self.clusters
    }

    /// Consumes the maintainer, returning the clusters.
    pub fn into_clusters(self) -> Vec<MicroCluster> {
        self.clusters
    }

    /// Reconstructs a maintainer from previously built clusters (snapshot
    /// restore path).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] if clusters disagree on
    /// dimensionality, [`UdmError::InvalidConfig`] if there are more
    /// clusters than `config.max_clusters` or a cluster is empty.
    pub fn from_clusters(clusters: Vec<MicroCluster>, config: MaintainerConfig) -> Result<Self> {
        config.validate()?;
        if clusters.len() > config.max_clusters {
            return Err(UdmError::InvalidConfig(format!(
                "{} clusters exceed max_clusters = {}",
                clusters.len(),
                config.max_clusters
            )));
        }
        let dim = clusters.first().map(|c| c.dim()).unwrap_or(0);
        let mut centroids = Vec::with_capacity(clusters.len());
        let mut points_seen = 0;
        for c in &clusters {
            if c.dim() != dim {
                return Err(UdmError::DimensionMismatch {
                    expected: dim,
                    actual: c.dim(),
                });
            }
            let centroid = c.centroid().ok_or_else(|| {
                UdmError::InvalidConfig("snapshot contains an empty micro-cluster".into())
            })?;
            centroids.push(centroid);
            points_seen += c.n();
        }
        Ok(MicroClusterMaintainer {
            config,
            dim,
            clusters,
            centroids,
            points_seen,
        })
    }

    /// Absorbs one point, returning the index of the cluster it joined.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on wrong dimensionality.
    pub fn insert(&mut self, point: &UncertainPoint) -> Result<usize> {
        if point.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: point.dim(),
            });
        }
        if self.clusters.len() < self.config.max_clusters {
            // Warm-up: seed a new cluster with this arrival.
            self.clusters.push(MicroCluster::from_point(point));
            self.centroids.push(point.values().to_vec());
            self.points_seen += 1;
            Ok(self.clusters.len() - 1)
        } else {
            // max_clusters ≥ 1 is validated at construction, so at least one
            // cluster exists after warm-up; the error path is unreachable
            // but typed rather than panicking.
            let idx = self.nearest(point).ok_or(UdmError::EmptyDataset)?;
            if udm_observe::enabled() {
                // One extra distance evaluation per absorbed point, only
                // when telemetry is recording.
                let d = self.config.distance.evaluate(point, &self.centroids[idx]);
                udm_observe::histogram_observe!("udm_microcluster_assign_distance", d);
            }
            self.absorb_at(idx, point)?;
            Ok(idx)
        }
    }

    /// Folds `point` into cluster `idx`, refreshing its cached centroid.
    fn absorb_at(&mut self, idx: usize, point: &UncertainPoint) -> Result<()> {
        self.clusters[idx].insert(point)?;
        let c = &self.clusters[idx];
        let inv = 1.0 / f64_from_count(c.n());
        for (slot, &sum) in self.centroids[idx].iter_mut().zip(c.cf1().iter()) {
            *slot = sum * inv;
        }
        self.points_seen += 1;
        Ok(())
    }

    /// Index of the nearest centroid under the configured distance, or
    /// `None` when no clusters exist yet. Does not modify state.
    ///
    /// Exact ties on the primary distance — common under the
    /// error-adjusted metric, whose per-dimension clamp maps every
    /// centroid within a noisy point's error box to distance 0 — are
    /// broken by plain Euclidean distance, so clusters stay spatially
    /// coherent instead of piling tied points into the lowest index.
    // Tie detection needs the exact `d == best_d` below; a tolerance
    // would merge near-ties and mis-group, hence the clippy allow.
    #[allow(clippy::float_cmp)]
    pub fn nearest(&self, point: &UncertainPoint) -> Option<usize> {
        let mut best = None;
        let mut best_d = f64::INFINITY;
        let mut best_tie = f64::INFINITY;
        let needs_tie_break = self.config.distance != AssignmentDistance::Euclidean;
        for (i, centroid) in self.centroids.iter().enumerate() {
            let d = self.config.distance.evaluate(point, centroid);
            if d < best_d {
                best_d = d;
                best_tie = if needs_tie_break {
                    crate::distance::euclidean_sq(point.values(), centroid)
                } else {
                    0.0
                };
                best = Some(i);
            // exact ties are the norm under the Eq. 5 clamp; tolerance would mis-group
            } else if needs_tie_break && d == best_d {
                let tie = crate::distance::euclidean_sq(point.values(), centroid);
                if tie < best_tie {
                    best_tie = tie;
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// Thread-safe wrapper for concurrent ingestion from multiple producers.
///
/// Single-pass maintenance is inherently sequential per cluster set; this
/// wrapper serializes insertions behind a [`parking_lot::Mutex`] so
/// multiple stream shards can feed one summary without external locking.
#[derive(Debug)]
pub struct ConcurrentMaintainer {
    inner: Mutex<MicroClusterMaintainer>,
}

impl ConcurrentMaintainer {
    /// Wraps a maintainer.
    pub fn new(maintainer: MicroClusterMaintainer) -> Self {
        ConcurrentMaintainer {
            inner: Mutex::new(maintainer),
        }
    }

    /// Inserts a point (serialized across threads).
    pub fn insert(&self, point: &UncertainPoint) -> Result<usize> {
        self.inner.lock().insert(point)
    }

    /// Total points absorbed so far.
    pub fn points_seen(&self) -> u64 {
        self.inner.lock().points_seen()
    }

    /// Unwraps to the inner maintainer.
    pub fn into_inner(self) -> MicroClusterMaintainer {
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(values: &[f64], errors: &[f64]) -> UncertainPoint {
        UncertainPoint::new(values.to_vec(), errors.to_vec()).unwrap()
    }

    #[test]
    fn zero_q_is_rejected() {
        assert!(MicroClusterMaintainer::new(2, MaintainerConfig::new(0)).is_err());
    }

    #[test]
    fn warmup_seeds_first_q_points() {
        let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(3)).unwrap();
        for i in 0..3 {
            let idx = m.insert(&pt(&[i as f64 * 100.0], &[0.0])).unwrap();
            assert_eq!(idx, i);
        }
        assert_eq!(m.num_clusters(), 3);
        assert_eq!(m.points_seen(), 3);
    }

    #[test]
    fn post_warmup_assigns_to_nearest() {
        let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(2)).unwrap();
        m.insert(&pt(&[0.0], &[0.0])).unwrap();
        m.insert(&pt(&[100.0], &[0.0])).unwrap();
        let idx = m.insert(&pt(&[1.0], &[0.0])).unwrap();
        assert_eq!(idx, 0);
        let idx = m.insert(&pt(&[99.0], &[0.0])).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(m.num_clusters(), 2);
        assert_eq!(m.points_seen(), 4);
    }

    #[test]
    fn centroids_update_incrementally() {
        let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(1)).unwrap();
        m.insert(&pt(&[0.0], &[0.0])).unwrap();
        m.insert(&pt(&[2.0], &[0.0])).unwrap();
        m.insert(&pt(&[4.0], &[0.0])).unwrap();
        assert_eq!(m.clusters()[0].centroid().unwrap(), vec![2.0]);
        // nearest() must use the *updated* centroid
        let near = m.nearest(&pt(&[2.1], &[0.0])).unwrap();
        assert_eq!(near, 0);
    }

    #[test]
    fn error_adjusted_assignment_differs_from_euclidean() {
        // Two far-apart seeds; a noisy point whose error along dim 0 points
        // at the farther seed (the Figure 2 scenario).
        let seeds = [pt(&[10.0, 0.0], &[0.0, 0.0]), pt(&[0.0, 4.0], &[0.0, 0.0])];
        let noisy = pt(&[0.0, 0.0], &[12.0, 0.1]);

        let mut adj = MicroClusterMaintainer::new(2, MaintainerConfig::new(2)).unwrap();
        let mut euc = MicroClusterMaintainer::new(
            2,
            MaintainerConfig {
                max_clusters: 2,
                distance: AssignmentDistance::Euclidean,
            },
        )
        .unwrap();
        for s in &seeds {
            adj.insert(s).unwrap();
            euc.insert(s).unwrap();
        }
        assert_eq!(adj.insert(&noisy).unwrap(), 0); // error swallows dim 0
        assert_eq!(euc.insert(&noisy).unwrap(), 1); // plain distance prefers closer seed
    }

    #[test]
    fn never_creates_beyond_q_and_never_discards() {
        let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(4)).unwrap();
        for i in 0..1000 {
            m.insert(&pt(&[(i % 17) as f64], &[0.5])).unwrap();
        }
        assert_eq!(m.num_clusters(), 4);
        assert_eq!(m.points_seen(), 1000);
        let total: u64 = m.clusters().iter().map(|c| c.n()).sum();
        assert_eq!(total, 1000); // every point reflected in the statistics
    }

    #[test]
    fn from_dataset_single_pass() {
        let d = UncertainDataset::from_points(
            (0..50).map(|i| pt(&[i as f64], &[0.1])).collect::<Vec<_>>(),
        )
        .unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(8)).unwrap();
        assert_eq!(m.points_seen(), 50);
        assert_eq!(m.num_clusters(), 8);
    }

    #[test]
    fn insert_validates_dim() {
        let mut m = MicroClusterMaintainer::new(2, MaintainerConfig::new(2)).unwrap();
        assert!(m.insert(&pt(&[0.0], &[0.0])).is_err());
    }

    #[test]
    fn from_clusters_roundtrip() {
        let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(2)).unwrap();
        for i in 0..10 {
            m.insert(&pt(&[i as f64], &[0.0])).unwrap();
        }
        let config = *m.config();
        let clusters = m.clone().into_clusters();
        let restored = MicroClusterMaintainer::from_clusters(clusters, config).unwrap();
        assert_eq!(restored.points_seen(), 10);
        assert_eq!(restored.num_clusters(), 2);
        // Assignment behaviour must be identical after restore.
        let p = pt(&[3.3], &[0.0]);
        assert_eq!(restored.nearest(&p), m.nearest(&p));
    }

    #[test]
    fn from_clusters_validates() {
        let c1 = MicroCluster::from_point(&pt(&[0.0], &[0.0]));
        let c2 = MicroCluster::from_point(&pt(&[0.0, 1.0], &[0.0, 0.0]));
        assert!(MicroClusterMaintainer::from_clusters(
            vec![c1.clone(), c2],
            MaintainerConfig::new(4)
        )
        .is_err());
        assert!(MicroClusterMaintainer::from_clusters(
            vec![c1.clone(), c1.clone(), c1],
            MaintainerConfig::new(2)
        )
        .is_err());
        assert!(MicroClusterMaintainer::from_clusters(
            vec![MicroCluster::new(1)],
            MaintainerConfig::new(2)
        )
        .is_err());
    }

    #[test]
    fn concurrent_maintainer_absorbs_from_threads() {
        let m = MicroClusterMaintainer::new(1, MaintainerConfig::new(4)).unwrap();
        let shared = ConcurrentMaintainer::new(m);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    for i in 0..100 {
                        shared
                            .insert(&pt(&[(t * 100 + i) as f64 % 13.0], &[0.2]))
                            .unwrap();
                    }
                });
            }
        });
        let inner = shared.into_inner();
        assert_eq!(inner.points_seen(), 400);
        let total: u64 = inner.clusters().iter().map(|c| c.n()).sum();
        assert_eq!(total, 400);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_point_is_reflected_in_the_statistics(
            rows in proptest::collection::vec(
                (-100.0f64..100.0, 0.0f64..10.0),
                1..120,
            ),
            q in 1usize..12,
        ) {
            // The paper's requirement: clusters are never discarded, so
            // counts and value sums are conserved exactly.
            let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(q)).unwrap();
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            let mut err_sq = 0.0;
            for &(v, e) in &rows {
                m.insert(&UncertainPoint::new(vec![v], vec![e]).unwrap()).unwrap();
                sum += v;
                sum_sq += v * v;
                err_sq += e * e;
            }
            let n: u64 = m.clusters().iter().map(|c| c.n()).sum();
            prop_assert_eq!(n, rows.len() as u64);
            let cf1: f64 = m.clusters().iter().map(|c| c.cf1()[0]).sum();
            let cf2: f64 = m.clusters().iter().map(|c| c.cf2()[0]).sum();
            let ef2: f64 = m.clusters().iter().map(|c| c.ef2()[0]).sum();
            prop_assert!((cf1 - sum).abs() < 1e-6);
            prop_assert!((cf2 - sum_sq).abs() < 1e-4);
            prop_assert!((ef2 - err_sq).abs() < 1e-6);
            prop_assert!(m.num_clusters() <= q);
        }

        #[test]
        fn assignment_respects_nearest_centroid(
            rows in proptest::collection::vec(-100.0f64..100.0, 3..60),
        ) {
            // With exact points (ψ = 0) the error-adjusted assignment is
            // plain Euclidean: nearest() must return an actual minimizer.
            let mut m = MicroClusterMaintainer::new(1, MaintainerConfig::new(3)).unwrap();
            for &v in &rows {
                m.insert(&UncertainPoint::exact(vec![v]).unwrap()).unwrap();
            }
            let probe = UncertainPoint::exact(vec![rows[0] * 0.5]).unwrap();
            let chosen = m.nearest(&probe).unwrap();
            let chosen_d = {
                let c = m.clusters()[chosen].centroid().unwrap()[0];
                (probe.value(0) - c).powi(2)
            };
            for cl in m.clusters() {
                let c = cl.centroid().unwrap()[0];
                prop_assert!(chosen_d <= (probe.value(0) - c).powi(2) + 1e-9);
            }
        }
    }
}

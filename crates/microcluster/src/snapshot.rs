//! Maintainer state as plain data: configuration plus cluster statistics.
//!
//! Micro-cluster summaries are the durable artifact of the training pass
//! (§3 computes them once as a pre-processing step). A [`Snapshot`] is
//! what [`crate::checkpoint`] persists inside its versioned, checksummed
//! envelope — the only format read back from disk — and
//! [`Snapshot::to_json`] is the plain JSON export `udm summarize` prints.

use crate::feature::MicroCluster;
use crate::maintainer::{MaintainerConfig, MicroClusterMaintainer};
use serde::{Deserialize, Serialize};
use udm_core::{Result, UdmError};

/// Serializable snapshot of a maintainer: config + cluster statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Maintainer configuration at snapshot time.
    pub config: MaintainerConfig,
    /// The micro-cluster sufficient statistics.
    pub clusters: Vec<MicroCluster>,
}

impl Snapshot {
    /// Captures the state of a maintainer.
    pub fn capture(maintainer: &MicroClusterMaintainer) -> Self {
        Snapshot {
            config: *maintainer.config(),
            clusters: maintainer.clusters().to_vec(),
        }
    }

    /// Restores a maintainer from the snapshot.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] when the cluster set is not
    /// dimensionally uniform (checked up front, against the first
    /// cluster's dimensionality, rather than deferred to the first
    /// divergence `from_clusters` happens to hit); otherwise as
    /// [`MicroClusterMaintainer::from_clusters`].
    pub fn restore(self) -> Result<MicroClusterMaintainer> {
        if let Some(first) = self.clusters.first() {
            let expected = first.dim();
            for c in &self.clusters {
                if c.dim() != expected {
                    return Err(UdmError::DimensionMismatch {
                        expected,
                        actual: c.dim(),
                    });
                }
            }
        }
        MicroClusterMaintainer::from_clusters(self.clusters, self.config)
    }

    /// Serializes to a JSON string: an export, not read back.
    ///
    /// # Errors
    ///
    /// [`UdmError::Serde`] on encoding failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| UdmError::Serde(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_core::UncertainPoint;

    fn trained_maintainer() -> MicroClusterMaintainer {
        let mut m = MicroClusterMaintainer::new(2, MaintainerConfig::new(4)).unwrap();
        for i in 0..100 {
            let p = UncertainPoint::new(
                vec![(i % 10) as f64, (i % 7) as f64],
                vec![0.1, 0.2 * (i % 3) as f64],
            )
            .unwrap();
            m.insert(&p).unwrap();
        }
        m
    }

    #[test]
    fn json_roundtrip_preserves_state() {
        let m = trained_maintainer();
        let snap = Snapshot::capture(&m);
        let json = snap.to_json().unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let restored = back.restore().unwrap();
        assert_eq!(restored.points_seen(), m.points_seen());
        assert_eq!(restored.num_clusters(), m.num_clusters());
        // Behavioural equivalence: same assignments for fresh points.
        for i in 0..20 {
            let p = UncertainPoint::new(vec![i as f64 * 0.37, i as f64 * 0.11], vec![0.0, 0.0])
                .unwrap();
            assert_eq!(restored.nearest(&p), m.nearest(&p));
        }
    }

    #[test]
    fn restore_rejects_mixed_dimensions_directly() {
        use udm_core::UncertainPoint;
        let c2 =
            MicroCluster::from_point(&UncertainPoint::new(vec![0.0, 1.0], vec![0.0, 0.0]).unwrap());
        let c3 = MicroCluster::from_point(
            &UncertainPoint::new(vec![0.0, 1.0, 2.0], vec![0.0, 0.0, 0.0]).unwrap(),
        );
        let snap = Snapshot {
            config: MaintainerConfig::new(4),
            clusters: vec![c2, c3],
        };
        let e = snap.restore().unwrap_err();
        assert_eq!(
            e,
            UdmError::DimensionMismatch {
                expected: 2,
                actual: 3
            }
        );
    }
}

//! Seeded Gaussian-mixture-per-class dataset generators.
//!
//! Every generator in this crate is fully deterministic under a caller
//! supplied seed, so experiments are reproducible run-to-run and the
//! benchmark harness can regenerate the exact workloads of each figure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use udm_core::{ClassLabel, Result, UdmError, UncertainDataset, UncertainPoint};

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
pub(crate) fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// One class of a Gaussian mixture: an axis-aligned Gaussian blob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianClassSpec {
    /// Class mean per dimension.
    pub mean: Vec<f64>,
    /// Class standard deviation per dimension.
    pub std: Vec<f64>,
    /// Relative sampling weight (prior); normalized across classes.
    pub weight: f64,
}

impl GaussianClassSpec {
    /// Creates a spherical class: equal `std` along every dimension.
    pub fn spherical(mean: Vec<f64>, std: f64, weight: f64) -> Self {
        let d = mean.len();
        GaussianClassSpec {
            mean,
            std: vec![std; d],
            weight,
        }
    }
}

/// A labelled Gaussian mixture generator.
///
/// Each component is one Gaussian blob; by default component `i` emits
/// label `l_i`, but several components may share a label (multi-modal
/// classes, the common shape of real data) via
/// [`MixtureGenerator::new_with_labels`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixtureGenerator {
    dim: usize,
    classes: Vec<GaussianClassSpec>,
    labels: Vec<ClassLabel>,
}

impl MixtureGenerator {
    /// Creates a generator where component `i` emits `ClassLabel(i)`,
    /// validating that all components share the given dimensionality and
    /// have positive weight and non-negative stds.
    pub fn new(dim: usize, classes: Vec<GaussianClassSpec>) -> Result<Self> {
        // Class counts are single digits; u32 cannot overflow.
        #[allow(clippy::cast_possible_truncation)]
        let labels = (0..classes.len() as u32).map(ClassLabel).collect();
        Self::new_with_labels(dim, classes, labels)
    }

    /// Creates a generator with an explicit label per component, so a
    /// class can consist of several sub-clusters.
    pub fn new_with_labels(
        dim: usize,
        classes: Vec<GaussianClassSpec>,
        labels: Vec<ClassLabel>,
    ) -> Result<Self> {
        if classes.is_empty() {
            return Err(UdmError::InvalidConfig(
                "mixture needs at least one component".into(),
            ));
        }
        if labels.len() != classes.len() {
            return Err(UdmError::InvalidConfig(format!(
                "{} labels for {} components",
                labels.len(),
                classes.len()
            )));
        }
        for (i, c) in classes.iter().enumerate() {
            if c.mean.len() != dim || c.std.len() != dim {
                return Err(UdmError::DimensionMismatch {
                    expected: dim,
                    actual: c.mean.len().min(c.std.len()),
                });
            }
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(UdmError::InvalidValue {
                    what: "class weight",
                    value: c.weight,
                });
            }
            if c.std.iter().any(|&s| !(s.is_finite() && s >= 0.0)) {
                return Err(UdmError::InvalidConfig(format!(
                    "component {i} has a negative or non-finite std"
                )));
            }
            if c.mean.iter().any(|&m| !m.is_finite()) {
                return Err(UdmError::InvalidConfig(format!(
                    "component {i} has a non-finite mean"
                )));
            }
        }
        Ok(MixtureGenerator {
            dim,
            classes,
            labels,
        })
    }

    /// Dimensionality of generated points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct class labels `k`.
    pub fn num_classes(&self) -> usize {
        let mut ls: Vec<ClassLabel> = self.labels.clone();
        ls.sort();
        ls.dedup();
        ls.len()
    }

    /// Number of mixture components (≥ number of classes).
    pub fn num_components(&self) -> usize {
        self.classes.len()
    }

    /// Generates `n` labelled exact points (ψ ≡ 0) deterministically from
    /// `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> UncertainDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_w: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut data = UncertainDataset::new(self.dim);
        for _ in 0..n {
            // Pick a class by weight.
            let mut pick = rng.gen::<f64>() * total_w;
            let mut class_idx = self.classes.len() - 1;
            for (i, c) in self.classes.iter().enumerate() {
                if pick < c.weight {
                    class_idx = i;
                    break;
                }
                pick -= c.weight;
            }
            let spec = &self.classes[class_idx];
            let values: Vec<f64> = (0..self.dim)
                .map(|j| spec.mean[j] + spec.std[j] * standard_normal(&mut rng))
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "means/stds validated finite at construction, so draws are finite"
            )]
            let point = UncertainPoint::exact(values)
                .expect("generated values are finite")
                .with_label(self.labels[class_idx]);
            #[expect(
                clippy::expect_used,
                reason = "every point is built with self.dim coordinates"
            )]
            data.push(point).expect("dimensionality is uniform");
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob(separation: f64) -> MixtureGenerator {
        MixtureGenerator::new(
            2,
            vec![
                GaussianClassSpec::spherical(vec![0.0, 0.0], 1.0, 1.0),
                GaussianClassSpec::spherical(vec![separation, 0.0], 1.0, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validates_specs() {
        assert!(MixtureGenerator::new(2, vec![]).is_err());
        assert!(
            MixtureGenerator::new(2, vec![GaussianClassSpec::spherical(vec![0.0], 1.0, 1.0)])
                .is_err()
        );
        assert!(
            MixtureGenerator::new(1, vec![GaussianClassSpec::spherical(vec![0.0], 1.0, 0.0)])
                .is_err()
        );
        assert!(MixtureGenerator::new(
            1,
            vec![GaussianClassSpec {
                mean: vec![0.0],
                std: vec![-1.0],
                weight: 1.0
            }]
        )
        .is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = two_blob(5.0);
        let a = g.generate(100, 42);
        let b = g.generate(100, 42);
        assert_eq!(a, b);
        let c = g.generate(100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn generates_requested_count_and_dim() {
        let g = two_blob(5.0);
        let d = g.generate(257, 7);
        assert_eq!(d.len(), 257);
        assert_eq!(d.dim(), 2);
    }

    #[test]
    fn labels_cover_all_classes() {
        let g = two_blob(5.0);
        let d = g.generate(200, 1);
        let labels = d.labels();
        assert_eq!(labels, vec![ClassLabel(0), ClassLabel(1)]);
    }

    #[test]
    fn class_means_are_respected() {
        let g = two_blob(10.0);
        let d = g.generate(4000, 3);
        let part = d.partition_by_class();
        let c0 = part.class(ClassLabel(0)).unwrap();
        let c1 = part.class(ClassLabel(1)).unwrap();
        let m0 = c0.summaries()[0].mean;
        let m1 = c1.summaries()[0].mean;
        assert!(m0.abs() < 0.15, "class 0 mean {m0}");
        assert!((m1 - 10.0).abs() < 0.15, "class 1 mean {m1}");
    }

    #[test]
    fn weights_control_priors() {
        let g = MixtureGenerator::new(
            1,
            vec![
                GaussianClassSpec::spherical(vec![0.0], 1.0, 3.0),
                GaussianClassSpec::spherical(vec![10.0], 1.0, 1.0),
            ],
        )
        .unwrap();
        let d = g.generate(8000, 5);
        let part = d.partition_by_class();
        let p0 = part.prior(ClassLabel(0));
        assert!((p0 - 0.75).abs() < 0.03, "prior {p0}");
    }

    #[test]
    fn points_are_exact() {
        let g = two_blob(1.0);
        let d = g.generate(50, 9);
        assert!(d.iter().all(|p| p.is_exact()));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}

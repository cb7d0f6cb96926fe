//! Naive density Bayes: the simplest classifier the paper's density
//! transform supports.
//!
//! Instead of searching for discriminative subspaces (Fig. 3), assume
//! dimension independence and score each class by its prior times the
//! product of *one-dimensional* error-adjusted class-conditional
//! densities:
//!
//! ```text
//! score(l, x) = |D_l|/|D| · Π_j g(x_j, {j}, D_l)
//! ```
//!
//! All densities come from the same micro-cluster summaries as the full
//! classifier, so training cost is identical and classification is
//! `O(k·d·q)` with no roll-up — a fast, strong baseline that shows how
//! little code a new density-based algorithm needs on this substrate.

use crate::config::ClassifierConfig;
use crate::eval::Classifier;
use crate::model::{BackendRuntime, Summaries};
use serde::{Deserialize, Serialize};
use udm_core::{ClassLabel, Result, Subspace, UdmError, UncertainDataset, UncertainPoint};
use udm_kde::BackendSpec;
use udm_microcluster::MicroClusterKde;

/// A trained naive density Bayes classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaiveDensityBayes {
    dim: usize,
    labels: Vec<ClassLabel>,
    log_priors: Vec<f64>,
    class_kdes: Vec<MicroClusterKde>,
    convolve_query_error: bool,
    runtime: BackendRuntime,
}

impl NaiveDensityBayes {
    /// Trains on a labelled dataset using the classifier configuration's
    /// micro-cluster budget, bandwidth rule and error-adjustment flags.
    pub fn fit(train: &UncertainDataset, config: ClassifierConfig) -> Result<Self> {
        // The global summary only sets the shared bandwidths here.
        let summaries = Summaries::build(train, &config)?;
        let mut labels = Vec::with_capacity(summaries.classes.len());
        let mut log_priors = Vec::with_capacity(summaries.classes.len());
        let mut class_kdes = Vec::with_capacity(summaries.classes.len());
        for class in &summaries.classes {
            labels.push(class.label);
            log_priors.push((class.size as f64 / train.len() as f64).ln());
            class_kdes.push(summaries.kde(class.summary.clusters(), &config)?);
        }

        Ok(NaiveDensityBayes {
            dim: train.dim(),
            labels,
            log_priors,
            class_kdes,
            convolve_query_error: config.error_adjusted && config.convolve_query_error,
            runtime: BackendRuntime::default(),
        })
    }

    /// The class labels, ascending.
    pub fn labels(&self) -> &[ClassLabel] {
        &self.labels
    }

    /// The runtime-selected default density backend spec.
    pub fn backend_spec(&self) -> BackendSpec {
        self.runtime.spec()
    }

    /// Selects the density backend for subsequent queries (interior
    /// mutability, so it works through a shared `Arc`). Built eagerly so
    /// construction errors surface here rather than per query.
    ///
    /// # Errors
    ///
    /// Spec validation or backend construction failures; the previous
    /// default stays in effect on error.
    pub fn set_backend(&self, spec: BackendSpec) -> Result<()> {
        self.runtime.set(spec, &self.class_kdes)
    }

    /// Log-score of each class at `x` (unnormalized log-posterior).
    pub fn log_scores(&self, x: &UncertainPoint) -> Result<Vec<(ClassLabel, f64)>> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        let query_errors = if self.convolve_query_error && !x.is_exact() {
            Some(x.errors())
        } else {
            None
        };
        let backends = self
            .runtime
            .coresets
            .resolve(&self.runtime.spec(), &self.class_kdes)?;
        // Every singleton dimension in one batch call per class: one
        // kernel-column build per class serves them all.
        let singletons = (0..self.dim)
            .map(Subspace::singleton)
            .collect::<Result<Vec<_>>>()?;
        let mut out = Vec::with_capacity(self.labels.len());
        for (i, be) in backends.iter().enumerate() {
            let mut log_score = self.log_priors[i];
            for g in be.density_subspaces(x.values(), query_errors, &singletons)? {
                // Floor against log(0): an empty class region contributes a
                // large but finite penalty so other dimensions still count.
                log_score += g.max(1e-300).ln();
            }
            out.push((self.labels[i], log_score));
        }
        Ok(out)
    }
}

impl Classifier for NaiveDensityBayes {
    fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
        let scores = self.log_scores(x)?;
        // Fitting requires ≥ 2 classes, so scores is never empty; the
        // error path is unreachable but typed.
        Ok(scores
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or(UdmError::EmptyDataset)?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use udm_data::{stratified_split, ErrorModel, GaussianClassSpec, MixtureGenerator, UciDataset};

    fn blobs(n: usize, seed: u64) -> UncertainDataset {
        MixtureGenerator::new(
            2,
            vec![
                GaussianClassSpec::spherical(vec![0.0, 0.0], 1.0, 1.0),
                GaussianClassSpec::spherical(vec![5.0, 5.0], 1.0, 1.0),
            ],
        )
        .unwrap()
        .generate(n, seed)
    }

    #[test]
    fn rejects_single_class() {
        let g = MixtureGenerator::new(1, vec![GaussianClassSpec::spherical(vec![0.0], 1.0, 1.0)])
            .unwrap();
        let d = g.generate(30, 1);
        assert!(NaiveDensityBayes::fit(&d, ClassifierConfig::error_adjusted(10)).is_err());
    }

    #[test]
    fn separable_blobs_classify_well() {
        let train = blobs(400, 2);
        let test = blobs(150, 3);
        let model = NaiveDensityBayes::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
        let acc = evaluate(&model, &test).unwrap().accuracy();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn log_scores_ordered_and_validated() {
        let train = blobs(300, 4);
        let model = NaiveDensityBayes::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let x = UncertainPoint::exact(vec![5.0, 5.0]).unwrap();
        let scores = model.log_scores(&x).unwrap();
        assert_eq!(scores.len(), 2);
        let s1 = scores.iter().find(|(l, _)| *l == ClassLabel(1)).unwrap().1;
        let s0 = scores.iter().find(|(l, _)| *l == ClassLabel(0)).unwrap().1;
        assert!(s1 > s0);
        assert!(model
            .log_scores(&UncertainPoint::exact(vec![0.0]).unwrap())
            .is_err());
    }

    #[test]
    fn reasonable_on_noisy_standin() {
        let clean = UciDataset::BreastCancer.generate(500, 5);
        let noisy = ErrorModel::paper(1.0).apply(&clean, 6).unwrap();
        let split = stratified_split(&noisy, 0.3, 7).unwrap();
        let model =
            NaiveDensityBayes::fit(&split.train, ClassifierConfig::error_adjusted(30)).unwrap();
        let acc = evaluate(&model, &split.test).unwrap().accuracy();
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn far_query_does_not_panic_on_log_zero() {
        let train = blobs(200, 8);
        let model = NaiveDensityBayes::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let x = UncertainPoint::exact(vec![1e6, -1e6]).unwrap();
        let label = model.classify(&x).unwrap();
        assert!(model.labels().contains(&label));
    }
}

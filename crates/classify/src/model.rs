//! The density-based subspace classifier (Fig. 3).

use crate::config::{ClassifierConfig, Fallback};
use crate::eval::Classifier;
use crate::rollup::{rollup, AccuracyOracle, DiscriminativeSubspace, RollupLimits};
use crate::subspace_select::select_non_overlapping;
use rayon::prelude::*;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use udm_core::{ClassLabel, Result, Subspace, UdmError, UncertainDataset, UncertainPoint};
use udm_kde::{BackendSpec, KernelColumns};
use udm_microcluster::{
    CoresetCache, DensityBackend, MaintainerConfig, MicroCluster, MicroClusterKde,
    MicroClusterMaintainer,
};

/// A trained density-based classifier.
///
/// Training (§3, "performed only once as a pre-processing step"):
///
/// 1. partition the training data into `D_1 … D_k` by class;
/// 2. stream `D` into a `q`-cluster error-based micro-cluster summary and
///    each `D_i` into a proportional share of `q`;
/// 3. recover the global per-dimension σ and `N` from the aggregated
///    statistics and fix one shared bandwidth vector, so every density in
///    Eq. 11's ratio is estimated on the same scale.
///
/// Classification evaluates local accuracies `A(x, S, l_i)` (Eq. 11) over
/// micro-cluster densities only — the original data is never revisited.
///
/// # Example
///
/// ```
/// use udm_classify::{Classifier, ClassifierConfig, DensityClassifier};
/// use udm_core::{ClassLabel, UncertainDataset, UncertainPoint};
///
/// let train = UncertainDataset::from_points(vec![
///     UncertainPoint::new(vec![0.0, 0.0], vec![0.1, 0.0]).unwrap()
///         .with_label(ClassLabel(0)),
///     UncertainPoint::new(vec![0.5, 0.2], vec![0.0, 0.2]).unwrap()
///         .with_label(ClassLabel(0)),
///     UncertainPoint::new(vec![6.0, 6.0], vec![0.2, 0.1]).unwrap()
///         .with_label(ClassLabel(1)),
///     UncertainPoint::new(vec![6.5, 5.8], vec![0.1, 0.0]).unwrap()
///         .with_label(ClassLabel(1)),
/// ]).unwrap();
/// let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(4)).unwrap();
/// let x = UncertainPoint::new(vec![6.2, 6.1], vec![0.3, 0.3]).unwrap();
/// assert_eq!(model.classify(&x).unwrap(), ClassLabel(1));
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DensityClassifier {
    config: ClassifierConfig,
    dim: usize,
    labels: Vec<ClassLabel>,
    priors: Vec<f64>,
    class_kdes: Vec<MicroClusterKde>,
    global_kde: MicroClusterKde,
    majority: ClassLabel,
    runtime: BackendRuntime,
}

/// Runtime-only backend selection, shared by the classifiers: the
/// default [`BackendSpec`] and the coreset reductions built so far
/// (constructions are deterministic but not free, so each `eps` is built
/// once per model). Interior mutability lets serving layers flip
/// backends on a shared `Arc<DensityClassifier>`. Never serialized —
/// the serialized model stays backend-agnostic, and a deserialized one
/// starts back at `Exact`.
#[derive(Debug, Default)]
pub(crate) struct BackendRuntime {
    /// The default spec, read lock-free on every query: the coreset
    /// `eps` bits, or `0` for `Exact` (a valid `eps` is never `0.0`).
    default_eps_bits: AtomicU64,
    pub(crate) coresets: CoresetCache,
}

impl Clone for BackendRuntime {
    fn clone(&self) -> Self {
        // The coresets are derived state only; a clone re-derives lazily.
        BackendRuntime {
            default_eps_bits: AtomicU64::new(self.default_eps_bits.load(Ordering::Relaxed)),
            coresets: CoresetCache::default(),
        }
    }
}

impl BackendRuntime {
    pub(crate) fn spec(&self) -> BackendSpec {
        match self.default_eps_bits.load(Ordering::Relaxed) {
            0 => BackendSpec::Exact,
            bits => BackendSpec::Coreset {
                eps: f64::from_bits(bits),
            },
        }
    }

    /// Makes `spec` the default after resolving it over `mixtures`, so
    /// construction errors surface here rather than per query; the
    /// previous default stays in effect on error.
    pub(crate) fn set<'a>(
        &self,
        spec: BackendSpec,
        mixtures: impl IntoIterator<Item = &'a MicroClusterKde>,
    ) -> Result<()> {
        self.coresets.resolve(&spec, mixtures)?;
        let bits = match spec {
            BackendSpec::Exact => 0,
            BackendSpec::Coreset { eps } => eps.to_bits(),
        };
        self.default_eps_bits.store(bits, Ordering::Relaxed);
        Ok(())
    }
}

impl serde::Serialize for BackendRuntime {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for BackendRuntime {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        Ok(BackendRuntime::default())
    }
}

/// Everything the classifier can report about one decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationOutcome {
    /// The predicted label.
    pub label: ClassLabel,
    /// The non-overlapping subspaces that voted (empty when the fallback
    /// decided).
    pub selected: Vec<DiscriminativeSubspace>,
    /// Total candidate subspaces whose accuracy was evaluated.
    pub candidates_evaluated: usize,
    /// Whether the fallback policy produced the label.
    pub used_fallback: bool,
}

/// Kernel-column caches for one test point: one per KDE the accuracy
/// ratio (Eq. 11) touches. Building them costs one full-dimensional
/// density evaluation each; every subsequent subspace query is pure
/// multiply-adds over the cached columns.
struct ColumnSet {
    global: KernelColumns,
    per_class: Vec<KernelColumns>,
}

struct KdeOracle<'a> {
    model: &'a DensityClassifier,
    /// The mixtures every evaluation routes through: the global one
    /// first, then one per class in label order. With the `Exact` spec
    /// these are the model's own KDEs.
    backends: Vec<DensityBackend<'a>>,
    query: &'a [f64],
    /// The test point's own per-dimension error ψ(x). The paper's Figure 1
    /// motivates classifying by what the test example *could* coincide
    /// with inside its error boundary; the error-adjusted method therefore
    /// convolves every density with the query's error (`None` for the
    /// unadjusted baseline, which pretends all errors are zero).
    query_errors: Option<&'a [f64]>,
    /// Lazily-built column caches, shared by every subspace the roll-up
    /// enumerates for this query.
    columns: OnceCell<ColumnSet>,
}

impl KdeOracle<'_> {
    /// The column caches for this query, built on the first subspace
    /// evaluation.
    ///
    /// # Errors
    ///
    /// The build's validation error (wrong arity, non-finite input).
    fn columns(&self) -> Result<&ColumnSet> {
        if let Some(set) = self.columns.get() {
            udm_observe::counter_inc!("udm_classify_column_cache_hits_total");
            return Ok(set);
        }
        udm_observe::counter_inc!("udm_classify_column_cache_misses_total");
        let (global, per_class) = self.backends.split_first().ok_or(UdmError::EmptyDataset)?;
        let build = |be: &DensityBackend<'_>| be.kernel_columns(self.query, self.query_errors);
        let set = ColumnSet {
            global: build(global)?,
            per_class: per_class.iter().map(build).collect::<Result<_>>()?,
        };
        Ok(self.columns.get_or_init(|| set))
    }
}

impl AccuracyOracle for KdeOracle<'_> {
    fn labels(&self) -> &[ClassLabel] {
        &self.model.labels
    }

    fn accuracies(&self, subspace: Subspace) -> Result<Vec<f64>> {
        // Each cached density is bit-for-bit identical to the direct
        // per-subspace evaluation (the `KernelColumns` contract).
        let set = self.columns()?;
        let global = set.global.density(subspace)?;
        let mut out = Vec::with_capacity(self.model.labels.len());
        for (i, cols) in set.per_class.iter().enumerate() {
            let class_density = cols.density(subspace)?;
            let a = if global > 0.0 {
                self.model.priors[i] * class_density / global
            } else {
                f64::NAN // numerically empty region: no evidence either way
            };
            out.push(a);
        }
        Ok(out)
    }
}

/// One class's share of the training summaries.
pub(crate) struct ClassSummary {
    pub(crate) label: ClassLabel,
    /// `|D_i|`.
    pub(crate) size: usize,
    /// The `q_i`-cluster summary of `D_i`.
    pub(crate) summary: MicroClusterMaintainer,
}

/// The micro-cluster summaries both density classifiers are built from —
/// the paper's one-time preprocessing (§3).
pub(crate) struct Summaries {
    /// The `q`-cluster summary of all of `D`.
    pub(crate) global: MicroClusterMaintainer,
    /// One summary per class, in label order, with `q_i` proportional to
    /// `|D_i|` and at least 1.
    pub(crate) classes: Vec<ClassSummary>,
    /// Shared bandwidths from the aggregated global statistics, so every
    /// density in Eq. 11's ratio is estimated on the same scale.
    bandwidths: Vec<f64>,
}

impl Summaries {
    /// Validates `config`, partitions `train` by class and builds the
    /// global summary alongside the per-class ones. Each summary is a
    /// deterministic function of its own partition, so running them
    /// concurrently yields the same bits as running them in turn.
    ///
    /// # Errors
    ///
    /// Configuration validation errors; [`UdmError::InvalidConfig`] when
    /// the training data has fewer than 2 classes.
    pub(crate) fn build(train: &UncertainDataset, config: &ClassifierConfig) -> Result<Self> {
        config.validate()?;
        let partition = train.partition_by_class();
        if partition.num_classes() < 2 {
            return Err(UdmError::InvalidConfig(format!(
                "training data has {} class(es); need at least 2",
                partition.num_classes()
            )));
        }
        let q = config.micro_clusters;
        let summarize = |data: &UncertainDataset, max_clusters: usize| {
            MicroClusterMaintainer::from_dataset(
                data,
                MaintainerConfig {
                    max_clusters,
                    distance: config.distance,
                },
            )
        };
        let (global, classes) = rayon::join(
            || summarize(train, q),
            || {
                partition
                    .labels()
                    .par_iter()
                    .map(|&label| {
                        let data = partition
                            .class(label)
                            .ok_or(UdmError::UnknownLabel(label.id()))?;
                        // The per-class budget q_i <= q, which fits in usize.
                        #[allow(clippy::cast_possible_truncation)]
                        let q_i = ((q as f64 * data.len() as f64 / train.len() as f64).round()
                            as usize)
                            .max(1);
                        Ok(ClassSummary {
                            label,
                            size: data.len(),
                            summary: summarize(data, q_i)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()
            },
        );
        let global = global?;

        let mut agg = MicroCluster::new(train.dim());
        for c in global.clusters() {
            agg.merge(c)?;
        }
        let sigmas: Vec<f64> = (0..train.dim())
            .map(|j| udm_core::num::clamped_sqrt(agg.variance(j)))
            .collect();
        let bandwidths = config
            .bandwidth
            .bandwidths_from_sigmas(&sigmas, train.len())?;
        Ok(Summaries {
            global,
            classes: classes?,
            bandwidths,
        })
    }

    /// A KDE over `clusters` at the shared bandwidths.
    pub(crate) fn kde(
        &self,
        clusters: &[MicroCluster],
        config: &ClassifierConfig,
    ) -> Result<MicroClusterKde> {
        MicroClusterKde::fit_with_bandwidths(
            clusters,
            self.bandwidths.clone(),
            config.kernel_form,
            config.error_adjusted,
        )
    }
}

impl DensityClassifier {
    /// Trains the classifier on a labelled dataset.
    ///
    /// # Errors
    ///
    /// Configuration validation errors; [`UdmError::InvalidConfig`] when
    /// the training data has fewer than 2 classes.
    pub fn fit(train: &UncertainDataset, config: ClassifierConfig) -> Result<Self> {
        let _span_fit = udm_observe::span!("classify_fit");
        let summaries = Summaries::build(train, &config)?;
        let global_kde = summaries.kde(summaries.global.clusters(), &config)?;
        let mut labels = Vec::with_capacity(summaries.classes.len());
        let mut class_kdes = Vec::with_capacity(summaries.classes.len());
        let mut priors = Vec::with_capacity(summaries.classes.len());
        let mut majority = (summaries.classes[0].label, 0usize);
        for class in &summaries.classes {
            labels.push(class.label);
            class_kdes.push(summaries.kde(class.summary.clusters(), &config)?);
            priors.push(class.size as f64 / train.len() as f64);
            if class.size > majority.1 {
                majority = (class.label, class.size);
            }
        }

        Ok(DensityClassifier {
            config,
            dim: train.dim(),
            labels,
            priors,
            class_kdes,
            global_kde,
            majority: majority.0,
            runtime: BackendRuntime::default(),
        })
    }

    /// The training configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Data dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The class labels the model knows, ascending.
    pub fn labels(&self) -> &[ClassLabel] {
        &self.labels
    }

    /// Training-set prior `|D_i|/|D|` of a label.
    pub fn prior(&self, label: ClassLabel) -> Option<f64> {
        self.labels
            .iter()
            .position(|&l| l == label)
            .map(|i| self.priors[i])
    }

    /// The query-error vector the oracle should convolve with: the test
    /// point's own ψ when error adjustment is on and the point actually
    /// carries errors, `None` otherwise (keeps the ψ ≡ 0 fast path).
    fn query_errors_of<'a>(&self, x: &'a UncertainPoint) -> Option<&'a [f64]> {
        if self.config.error_adjusted && self.config.convolve_query_error && !x.is_exact() {
            Some(x.errors())
        } else {
            None
        }
    }

    /// The runtime-selected default density backend spec (starts at
    /// `Exact`; never persisted with the model).
    pub fn backend_spec(&self) -> BackendSpec {
        self.runtime.spec()
    }

    /// Selects the density backend every subsequent query evaluates
    /// through. Interior mutability: works on a shared
    /// `Arc<DensityClassifier>`, so a serving layer can flip backends
    /// without refitting. The backend set is built eagerly so
    /// construction errors surface here rather than per query.
    ///
    /// # Errors
    ///
    /// Spec validation or backend construction failures; the previous
    /// default stays in effect on error.
    pub fn set_backend(&self, spec: BackendSpec) -> Result<()> {
        self.runtime.set(spec, self.mixtures())
    }

    /// The global KDE, then the per-class KDEs in label order.
    fn mixtures(&self) -> impl Iterator<Item = &MicroClusterKde> {
        std::iter::once(&self.global_kde).chain(&self.class_kdes)
    }

    /// An oracle for `x` whose densities come from the mixtures `spec`
    /// resolves to.
    fn oracle<'a>(&'a self, spec: &BackendSpec, x: &'a UncertainPoint) -> Result<KdeOracle<'a>> {
        Ok(KdeOracle {
            model: self,
            backends: self.runtime.coresets.resolve(spec, self.mixtures())?,
            query: x.values(),
            query_errors: self.query_errors_of(x),
            columns: OnceCell::new(),
        })
    }

    /// The local accuracy `A(x, S, l)` (Eq. 11) — exposed for inspection
    /// and examples.
    pub fn local_accuracy(
        &self,
        x: &UncertainPoint,
        subspace: Subspace,
        label: ClassLabel,
    ) -> Result<f64> {
        let idx = self
            .labels
            .iter()
            .position(|&l| l == label)
            .ok_or(UdmError::UnknownLabel(label.id()))?;
        let oracle = self.oracle(&self.runtime.spec(), x)?;
        Ok(oracle.accuracies(subspace)?[idx])
    }

    /// Class scores for a point: the full-space local accuracies
    /// `A(x, full, l_i)` (Eq. 11 over all dimensions), normalized to sum
    /// to 1 when any mass exists. A cheap posterior-like summary that
    /// skips the subspace roll-up.
    pub fn class_scores(&self, x: &UncertainPoint) -> Result<Vec<(ClassLabel, f64)>> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        let oracle = self.oracle(&self.runtime.spec(), x)?;
        self.scores_from(&oracle)
    }

    /// Full-space normalized scores from an already-built oracle, so the
    /// kernel-column caches can be shared with a roll-up over the same
    /// query.
    fn scores_from(&self, oracle: &KdeOracle<'_>) -> Result<Vec<(ClassLabel, f64)>> {
        let accs = oracle.accuracies(Subspace::full(self.dim)?)?;
        let total: f64 = accs.iter().filter(|a| a.is_finite()).sum();
        Ok(self
            .labels
            .iter()
            .zip(accs.iter())
            .map(|(&l, &a)| {
                let score = if a.is_finite() && total > 0.0 {
                    a / total
                } else {
                    0.0
                };
                (l, score)
            })
            .collect())
    }

    /// Classifies a point, returning the full decision trace.
    pub fn classify_detailed(&self, x: &UncertainPoint) -> Result<ClassificationOutcome> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        udm_core::num::ensure_finite_slice("query point values", x.values())?;
        udm_core::num::ensure_finite_slice("query point errors", x.errors())?;
        let _span_point = udm_observe::span!("classify_point");
        let oracle = self.oracle(&self.runtime.spec(), x)?;
        self.decide(&oracle)
    }

    /// Classifies a point and reports the normalized full-space class
    /// scores in one pass over a *single* set of per-query kernel-column
    /// caches. Bit-identical to calling [`DensityClassifier::classify_detailed`]
    /// and [`DensityClassifier::class_scores`] back to back — sharing the
    /// oracle only avoids rebuilding the column caches (one full-dimension
    /// density evaluation per KDE), which is the dominant per-query cost
    /// for a serving layer that wants both the decision and its scores.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on a wrong-width query;
    /// [`UdmError::InvalidValue`] for non-finite values or errors;
    /// evaluation errors from the underlying KDEs.
    pub fn classify_scored(
        &self,
        x: &UncertainPoint,
    ) -> Result<(ClassificationOutcome, Vec<(ClassLabel, f64)>)> {
        self.classify_scored_with_backend(x, &self.runtime.spec())
    }

    /// Like [`DensityClassifier::classify_scored`], but evaluates every
    /// density through the backend selected by `spec` for this call
    /// only — the runtime default is untouched. Serving layers use this
    /// for per-request backend overrides.
    ///
    /// # Errors
    ///
    /// As [`DensityClassifier::classify_scored`], plus spec validation
    /// and backend construction failures.
    pub fn classify_scored_with_backend(
        &self,
        x: &UncertainPoint,
        spec: &BackendSpec,
    ) -> Result<(ClassificationOutcome, Vec<(ClassLabel, f64)>)> {
        if x.dim() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        udm_core::num::ensure_finite_slice("query point values", x.values())?;
        udm_core::num::ensure_finite_slice("query point errors", x.errors())?;
        let _span_point = udm_observe::span!("classify_point");
        let oracle = self.oracle(spec, x)?;
        let outcome = self.decide(&oracle)?;
        let scores = self.scores_from(&oracle)?;
        Ok((outcome, scores))
    }

    /// The subspace roll-up decision from an already-built oracle.
    fn decide(&self, oracle: &KdeOracle<'_>) -> Result<ClassificationOutcome> {
        let outcome = rollup(
            oracle,
            self.dim,
            self.config.accuracy_threshold,
            RollupLimits::from_config(&self.config),
        )?;
        let selected =
            select_non_overlapping(outcome.qualifying, self.config.max_selected_subspaces);

        if selected.is_empty() {
            let label = match (self.config.fallback, outcome.best_singleton) {
                (Fallback::BestSingleton, Some(best)) => best.label,
                _ => self.majority,
            };
            return Ok(ClassificationOutcome {
                label,
                selected: Vec::new(),
                candidates_evaluated: outcome.candidates_evaluated,
                used_fallback: true,
            });
        }

        // Majority vote over the dominant classes of the selected sets;
        // ties broken by summed accuracy, then by label order.
        let mut votes: BTreeMap<ClassLabel, (usize, f64)> = BTreeMap::new();
        for s in &selected {
            let e = votes.entry(s.label).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.accuracy;
        }
        // `selected` was verified non-empty above, so at least one vote
        // exists; the error path is unreachable but typed.
        let (&label, _) = votes
            .iter()
            .max_by(|(_, (ca, aa)), (_, (cb, ab))| ca.cmp(cb).then(aa.total_cmp(ab)))
            .ok_or(UdmError::EmptyDataset)?;

        Ok(ClassificationOutcome {
            label,
            selected,
            candidates_evaluated: outcome.candidates_evaluated,
            used_fallback: false,
        })
    }
}

impl Classifier for DensityClassifier {
    fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
        Ok(self.classify_detailed(x)?.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};

    /// Well-separated 2-class mixture in 3 dims; only dims 0 and 1 are
    /// informative, dim 2 is identical noise for both classes.
    fn informative_mixture() -> MixtureGenerator {
        MixtureGenerator::new(
            3,
            vec![
                GaussianClassSpec {
                    mean: vec![0.0, 0.0, 0.0],
                    std: vec![1.0, 1.0, 1.0],
                    weight: 1.0,
                },
                GaussianClassSpec {
                    mean: vec![4.0, 4.0, 0.0],
                    std: vec![1.0, 1.0, 1.0],
                    weight: 1.0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_single_class_training() {
        let g = MixtureGenerator::new(1, vec![GaussianClassSpec::spherical(vec![0.0], 1.0, 1.0)])
            .unwrap();
        let d = g.generate(50, 1);
        assert!(DensityClassifier::fit(&d, ClassifierConfig::default()).is_err());
    }

    #[test]
    fn learns_well_separated_classes() {
        let g = informative_mixture();
        let train = g.generate(600, 10);
        let test = g.generate(200, 11);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        let mut correct = 0;
        for p in test.iter() {
            if model.classify(p).unwrap() == p.label().unwrap() {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn classify_detailed_reports_subspaces() {
        let g = informative_mixture();
        let train = g.generate(600, 20);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        // A point deep in class 1 territory.
        let x = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        let out = model.classify_detailed(&x).unwrap();
        assert_eq!(out.label, ClassLabel(1));
        assert!(!out.used_fallback);
        assert!(!out.selected.is_empty());
        assert!(out.candidates_evaluated >= 3);
        // Selected subspaces are pairwise non-overlapping.
        for (i, a) in out.selected.iter().enumerate() {
            for b in &out.selected[i + 1..] {
                assert!(!a.subspace.overlaps(b.subspace));
            }
        }
    }

    #[test]
    fn discriminative_dims_have_higher_accuracy() {
        let g = informative_mixture();
        let train = g.generate(800, 30);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        let x = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        let informative = model
            .local_accuracy(&x, Subspace::singleton(0).unwrap(), ClassLabel(1))
            .unwrap();
        let noise = model
            .local_accuracy(&x, Subspace::singleton(2).unwrap(), ClassLabel(1))
            .unwrap();
        assert!(
            informative > noise,
            "informative {informative} vs noise {noise}"
        );
        // The noise dimension carries no signal: accuracy ≈ prior (0.5).
        assert!((noise - 0.5).abs() < 0.15, "noise-dim accuracy {noise}");
    }

    #[test]
    fn error_adjusted_beats_unadjusted_under_heavy_noise() {
        let g = informative_mixture();
        let clean_train = g.generate(800, 40);
        let clean_test = g.generate(300, 41);
        let noisy_train = ErrorModel::paper(2.0).apply(&clean_train, 42).unwrap();
        let noisy_test = ErrorModel::paper(2.0).apply(&clean_test, 43).unwrap();

        let adj =
            DensityClassifier::fit(&noisy_train, ClassifierConfig::error_adjusted(60)).unwrap();
        let unadj = DensityClassifier::fit(&noisy_train, ClassifierConfig::unadjusted(60)).unwrap();

        let accuracy = |m: &DensityClassifier| {
            let mut c = 0;
            for p in noisy_test.iter() {
                if m.classify(p).unwrap() == p.label().unwrap() {
                    c += 1;
                }
            }
            c as f64 / noisy_test.len() as f64
        };
        let a_adj = accuracy(&adj);
        let a_unadj = accuracy(&unadj);
        assert!(
            a_adj >= a_unadj - 0.02,
            "adjusted {a_adj} vs unadjusted {a_unadj}"
        );
        assert!(a_adj > 0.6, "adjusted accuracy too low: {a_adj}");
    }

    #[test]
    fn identical_at_zero_error() {
        // The paper: "the two density based classifiers had exactly the
        // same accuracy when the error-parameter was zero."
        let g = informative_mixture();
        let train = g.generate(400, 50);
        let test = g.generate(100, 51);
        let adj = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(40)).unwrap();
        let unadj = DensityClassifier::fit(&train, ClassifierConfig::unadjusted(40)).unwrap();
        for p in test.iter() {
            assert_eq!(adj.classify(p).unwrap(), unadj.classify(p).unwrap());
        }
    }

    #[test]
    fn classify_scored_matches_separate_calls_bitwise() {
        let g = informative_mixture();
        let train = g.generate(400, 55);
        let test = ErrorModel::paper(1.0)
            .apply(&g.generate(40, 56), 57)
            .unwrap();
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(40)).unwrap();
        for p in test.iter() {
            let (outcome, scores) = model.classify_scored(p).unwrap();
            let detailed = model.classify_detailed(p).unwrap();
            let separate = model.class_scores(p).unwrap();
            assert_eq!(outcome, detailed);
            assert_eq!(scores.len(), separate.len());
            for ((la, sa), (lb, sb)) in scores.iter().zip(separate.iter()) {
                assert_eq!(la, lb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "score drift for {la:?}");
            }
        }
    }

    #[test]
    fn classify_scored_rejects_bad_queries() {
        let g = informative_mixture();
        let train = g.generate(100, 58);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let wrong = UncertainPoint::exact(vec![0.0]).unwrap();
        assert!(model.classify_scored(&wrong).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = informative_mixture();
        let train = g.generate(100, 60);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let wrong = UncertainPoint::exact(vec![0.0]).unwrap();
        assert!(model.classify_detailed(&wrong).is_err());
    }

    #[test]
    fn fallback_majority_when_threshold_unreachable() {
        let g = informative_mixture();
        let train = g.generate(300, 70);
        let mut config = ClassifierConfig::error_adjusted(30);
        config.accuracy_threshold = 1e9; // nothing can qualify
        config.fallback = Fallback::MajorityClass;
        let model = DensityClassifier::fit(&train, config).unwrap();
        let x = UncertainPoint::exact(vec![0.0, 0.0, 0.0]).unwrap();
        let out = model.classify_detailed(&x).unwrap();
        assert!(out.used_fallback);
        assert!(out.selected.is_empty());
        assert_eq!(Some(out.label), {
            let part = train.partition_by_class();
            part.labels()
                .into_iter()
                .max_by_key(|&l| part.class(l).unwrap().len())
        });
    }

    #[test]
    fn fallback_best_singleton_is_instance_specific() {
        let g = informative_mixture();
        let train = g.generate(600, 80);
        let mut config = ClassifierConfig::error_adjusted(60);
        config.accuracy_threshold = 1e9;
        config.fallback = Fallback::BestSingleton;
        let model = DensityClassifier::fit(&train, config).unwrap();
        let x0 = UncertainPoint::exact(vec![0.0, 0.0, 0.0]).unwrap();
        let x1 = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        assert_eq!(model.classify(&x0).unwrap(), ClassLabel(0));
        assert_eq!(model.classify(&x1).unwrap(), ClassLabel(1));
    }

    #[test]
    fn class_scores_normalized_and_discriminative() {
        let g = informative_mixture();
        let train = g.generate(400, 95);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
        let x = UncertainPoint::exact(vec![4.0, 4.0, 0.0]).unwrap();
        let scores = model.class_scores(&x).unwrap();
        assert_eq!(scores.len(), 2);
        let total: f64 = scores.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // class 1 dominates at its own centroid
        let s1 = scores.iter().find(|(l, _)| *l == ClassLabel(1)).unwrap().1;
        assert!(s1 > 0.8, "score {s1}");
        // arity validated
        assert!(model
            .class_scores(&UncertainPoint::exact(vec![0.0]).unwrap())
            .is_err());
    }

    #[test]
    fn fitted_models_match_golden_digests() {
        // Pins every bit of both fitted models: the serialized form is an
        // exact float round-trip, so any change to the summary schedule,
        // the budgets or the bandwidths moves these digests. The digests
        // hold for debug, release and `fast-math` builds alike (training
        // evaluates no kernel).
        use crate::naive::NaiveDensityBayes;
        use udm_core::fnv::{fnv1a, FNV_OFFSET};
        use udm_data::UciDataset;
        let clean = UciDataset::ForestCover.generate(2000, 5);
        let train = ErrorModel::paper(1.0).apply(&clean, 6).unwrap();
        let digest = |json: String| format!("{:016x}", fnv1a(FNV_OFFSET, json.as_bytes()));
        for (q, model_digest, naive_digest) in [
            (40, "0d5c485ba9e9d2f3", "80a29bf33c91a77a"),
            (140, "99ce7b8e31e88b40", "63ee09fc5451fd04"),
        ] {
            let config = ClassifierConfig::error_adjusted(q);
            let model = DensityClassifier::fit(&train, config).unwrap();
            let json = serde_json::to_string(&model).unwrap();
            assert_eq!(digest(json), model_digest, "q={q}");
            let naive = NaiveDensityBayes::fit(&train, config).unwrap();
            let json = serde_json::to_string(&naive).unwrap();
            assert_eq!(digest(json), naive_digest, "naive q={q}");
        }
    }

    #[test]
    fn json_roundtrip_preserves_decisions() {
        let g = informative_mixture();
        let train = g.generate(300, 97);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(25)).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let restored: DensityClassifier = serde_json::from_str(&json).unwrap();
        let test = g.generate(60, 98);
        for p in test.iter() {
            assert_eq!(model.classify(p).unwrap(), restored.classify(p).unwrap());
        }
    }

    #[test]
    fn exact_backend_default_is_bit_identical_to_pre_trait_path() {
        // The trait refactor must not move a single bit: the default
        // (Exact) backend and an explicit Exact override both reproduce
        // the direct-KDE decision and scores exactly.
        let g = informative_mixture();
        let train = g.generate(400, 110);
        let test = ErrorModel::paper(1.0)
            .apply(&g.generate(40, 111), 112)
            .unwrap();
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(40)).unwrap();
        assert_eq!(model.backend_spec(), BackendSpec::Exact);
        for p in test.iter() {
            let (default_out, default_scores) = model.classify_scored(p).unwrap();
            let (exact_out, exact_scores) = model
                .classify_scored_with_backend(p, &BackendSpec::Exact)
                .unwrap();
            assert_eq!(default_out, exact_out);
            for ((la, sa), (lb, sb)) in default_scores.iter().zip(exact_scores.iter()) {
                assert_eq!(la, lb);
                assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }

    #[test]
    fn exact_backend_reads_the_models_own_kdes() {
        // No copy: the exact resolution borrows the fitted mixtures.
        let g = informative_mixture();
        let train = g.generate(200, 115);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let x = g.generate(1, 116);
        let oracle = model.oracle(&BackendSpec::Exact, x.point(0)).unwrap();
        assert_eq!(oracle.backends.len(), 1 + model.class_kdes.len());
        assert!(std::ptr::eq(oracle.backends[0].kde(), &model.global_kde));
        for (be, kde) in oracle.backends[1..].iter().zip(&model.class_kdes) {
            assert_eq!(be.name(), "exact");
            assert!(std::ptr::eq(be.kde(), kde));
        }
    }

    #[test]
    fn approximate_backends_mostly_agree_with_exact() {
        let g = informative_mixture();
        let train = g.generate(600, 120);
        let test = g.generate(100, 121);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(60)).unwrap();
        let spec = BackendSpec::Coreset { eps: 0.05 };
        let mut agree = 0;
        for p in test.iter() {
            let exact = model.classify(p).unwrap();
            let approx = model
                .classify_scored_with_backend(p, &spec)
                .unwrap()
                .0
                .label;
            if exact == approx {
                agree += 1;
            }
        }
        let rate = agree as f64 / test.len() as f64;
        assert!(rate > 0.9, "{spec}: agreement {rate}");
    }

    #[test]
    fn set_backend_flips_default_and_survives_clone_not_json() {
        let g = informative_mixture();
        let train = g.generate(300, 130);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
        model
            .set_backend(BackendSpec::Coreset { eps: 0.1 })
            .unwrap();
        assert_eq!(model.backend_spec(), BackendSpec::Coreset { eps: 0.1 });
        // The spec follows a clone (runtime state copies, cache rebuilds)…
        assert_eq!(
            model.clone().backend_spec(),
            BackendSpec::Coreset { eps: 0.1 }
        );
        // …but not serialization: persisted models are backend-agnostic.
        let json = serde_json::to_string(&model).unwrap();
        let restored: DensityClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.backend_spec(), BackendSpec::Exact);
        // Invalid specs are rejected and leave the default untouched.
        assert!(model
            .set_backend(BackendSpec::Coreset { eps: 7.0 })
            .is_err());
        assert_eq!(model.backend_spec(), BackendSpec::Coreset { eps: 0.1 });
    }

    #[test]
    fn backend_runtime_does_not_change_serialized_form() {
        // `fitted_models_match_golden_digests` digests JSON strings; the
        // runtime field must serialize identically (Null) on every model.
        let g = informative_mixture();
        let train = g.generate(200, 140);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let before = serde_json::to_string(&model).unwrap();
        model
            .set_backend(BackendSpec::Coreset { eps: 0.2 })
            .unwrap();
        assert_eq!(serde_json::to_string(&model).unwrap(), before);
    }

    #[test]
    fn priors_reported() {
        let g = informative_mixture();
        let train = g.generate(400, 90);
        let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(20)).unwrap();
        let p0 = model.prior(ClassLabel(0)).unwrap();
        let p1 = model.prior(ClassLabel(1)).unwrap();
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
        assert!(model.prior(ClassLabel(9)).is_none());
    }
}

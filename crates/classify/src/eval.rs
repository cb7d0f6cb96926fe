//! Evaluation harness: accuracy, confusion matrices, timing, parallelism.

use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use udm_core::{ClassLabel, Result, UdmError, UncertainDataset, UncertainPoint};

/// Anything that can assign a class label to an uncertain point.
pub trait Classifier: Sync {
    /// Predicts the label of `x`.
    fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel>;
}

/// Outcome of evaluating a classifier on a labelled test set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalReport {
    /// Number of labelled test points evaluated.
    pub n: usize,
    /// Number of correct predictions.
    pub correct: usize,
    /// Confusion counts keyed by `(actual, predicted)`.
    pub confusion: BTreeMap<(ClassLabel, ClassLabel), usize>,
    /// Wall-clock time spent classifying (excludes training).
    pub elapsed: Duration,
}

impl EvalReport {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.correct as f64 / self.n as f64
        }
    }

    /// Mean classification time per test point, in seconds.
    pub fn seconds_per_example(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.n as f64
        }
    }

    /// Per-class precision: among predictions of `label`, the fraction
    /// that were correct. 0 when the label was never predicted.
    pub fn precision(&self, label: ClassLabel) -> f64 {
        let mut predicted = 0usize;
        let mut hit = 0usize;
        for (&(actual, pred), &count) in &self.confusion {
            if pred == label {
                predicted += count;
                if actual == label {
                    hit += count;
                }
            }
        }
        if predicted == 0 {
            0.0
        } else {
            hit as f64 / predicted as f64
        }
    }

    /// Per-class F1: harmonic mean of precision and recall.
    pub fn f1(&self, label: ClassLabel) -> f64 {
        let p = self.precision(label);
        let r = self.recall(label);
        // udm-lint: allow(UDM002) zero-denominator guard; p and r are exact 0 in the degenerate case
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged F1 over every class that appears as an actual label.
    pub fn macro_f1(&self) -> f64 {
        let mut labels: Vec<ClassLabel> =
            self.confusion.keys().map(|&(actual, _)| actual).collect();
        labels.sort();
        labels.dedup();
        if labels.is_empty() {
            return 0.0;
        }
        labels.iter().map(|&l| self.f1(l)).sum::<f64>() / labels.len() as f64
    }

    /// Per-class recall: correct predictions of a class over its support.
    pub fn recall(&self, label: ClassLabel) -> f64 {
        let mut support = 0usize;
        let mut hit = 0usize;
        for (&(actual, predicted), &count) in &self.confusion {
            if actual == label {
                support += count;
                if predicted == label {
                    hit += count;
                }
            }
        }
        if support == 0 {
            0.0
        } else {
            hit as f64 / support as f64
        }
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "accuracy {:.4} over {} points ({:.3e} s/example, macro-F1 {:.4})",
            self.accuracy(),
            self.n,
            self.seconds_per_example(),
            self.macro_f1()
        )?;
        let mut labels: Vec<ClassLabel> = self.confusion.keys().map(|&(a, _)| a).collect();
        labels.sort();
        labels.dedup();
        for l in labels {
            writeln!(
                f,
                "  {l}: recall {:.4}, precision {:.4}",
                self.recall(l),
                self.precision(l)
            )?;
        }
        Ok(())
    }
}

/// Below this many test points [`evaluate_parallel`] runs as one chunk:
/// per-point work in this crate is tens of microseconds (column build +
/// subspace roll-up) and a fork/join costs a few microseconds per chunk,
/// so smaller batches do not amortize it.
const PAR_CROSSOVER_POINTS: usize = 32;

/// Evaluates a classifier sequentially over the labelled points of `test`.
///
/// # Errors
///
/// [`UdmError::EmptyDataset`] if `test` contains no labelled point;
/// classification errors propagate.
pub fn evaluate<C: Classifier>(model: &C, test: &UncertainDataset) -> Result<EvalReport> {
    evaluate_parallel(model, test, 1)
}

/// Evaluates a classifier in parallel with rayon, chunking the test set
/// by index (`threads` sets the chunk count) and merging the per-chunk
/// tallies in chunk order.
///
/// Produces the same counts as [`evaluate`] for any deterministic
/// classifier; only `elapsed` (wall-clock) differs. `threads <= 1`, or a
/// test set below the crossover of 32 points, is a single chunk on the
/// calling thread, exactly [`evaluate`].
///
/// # Errors
///
/// As [`evaluate`]; the lowest-indexed failing chunk's error is reported.
pub fn evaluate_parallel<C: Classifier>(
    model: &C,
    test: &UncertainDataset,
    threads: usize,
) -> Result<EvalReport> {
    let start = Instant::now();
    let points = test.points();
    let partials: Vec<Result<EvalReport>> = if threads <= 1 || points.len() < PAR_CROSSOVER_POINTS {
        vec![tally(model, points)]
    } else {
        points
            .par_chunks(points.len().div_ceil(threads))
            .map(|chunk| tally(model, chunk))
            .collect()
    };
    let mut report = EvalReport::default();
    for partial in partials {
        let partial = partial?;
        report.n += partial.n;
        report.correct += partial.correct;
        for (k, v) in partial.confusion {
            *report.confusion.entry(k).or_insert(0) += v;
        }
    }
    if report.n == 0 {
        return Err(UdmError::EmptyDataset);
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Classifies the labelled points of one chunk, stopping at the first
/// error; `elapsed` is left at zero for the caller to fill in.
fn tally<C: Classifier>(model: &C, points: &[UncertainPoint]) -> Result<EvalReport> {
    let mut report = EvalReport::default();
    for p in points {
        let Some(actual) = p.label() else { continue };
        let predicted = model.classify(p)?;
        report.n += 1;
        if predicted == actual {
            report.correct += 1;
        }
        *report.confusion.entry((actual, predicted)).or_insert(0) += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stub: classifies by the sign of the first coordinate.
    struct SignClassifier;

    impl Classifier for SignClassifier {
        fn classify(&self, x: &UncertainPoint) -> Result<ClassLabel> {
            Ok(ClassLabel((x.value(0) >= 0.0) as u32))
        }
    }

    fn test_set() -> UncertainDataset {
        UncertainDataset::from_points(
            (0..100)
                .map(|i| {
                    let v = i as f64 - 50.0;
                    // true label: sign, except 10 points mislabelled
                    let noise_flip = i % 10 == 0;
                    let label = ((v >= 0.0) ^ noise_flip) as u32;
                    UncertainPoint::exact(vec![v])
                        .unwrap()
                        .with_label(ClassLabel(label))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn accuracy_counts_match() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        assert_eq!(r.n, 100);
        assert_eq!(r.correct, 90);
        assert!((r.accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_sums_to_n() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        let total: usize = r.confusion.values().sum();
        assert_eq!(total, r.n);
    }

    #[test]
    fn recall_per_class() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        // 50 points have v >= 0 (predicted 1); flips make 5 of each class wrong.
        assert!(r.recall(ClassLabel(0)) > 0.8);
        assert!(r.recall(ClassLabel(1)) > 0.8);
        assert_eq!(r.recall(ClassLabel(9)), 0.0);
    }

    #[test]
    fn precision_and_f1() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        for l in [ClassLabel(0), ClassLabel(1)] {
            let p = r.precision(l);
            let rec = r.recall(l);
            let f1 = r.f1(l);
            assert!(p > 0.8 && p <= 1.0);
            let expected = 2.0 * p * rec / (p + rec);
            assert!((f1 - expected).abs() < 1e-12);
        }
        assert_eq!(r.precision(ClassLabel(9)), 0.0);
        assert_eq!(r.f1(ClassLabel(9)), 0.0);
        let macro_f1 = r.macro_f1();
        assert!(macro_f1 > 0.8 && macro_f1 <= 1.0);
    }

    #[test]
    fn unlabelled_points_skipped() {
        let mut d = test_set();
        d.push(UncertainPoint::exact(vec![3.0]).unwrap()).unwrap();
        let r = evaluate(&SignClassifier, &d).unwrap();
        assert_eq!(r.n, 100);
    }

    #[test]
    fn all_unlabelled_is_error() {
        let d =
            UncertainDataset::from_points(vec![UncertainPoint::exact(vec![0.0]).unwrap()]).unwrap();
        assert!(evaluate(&SignClassifier, &d).is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = test_set();
        let seq = evaluate(&SignClassifier, &d).unwrap();
        for threads in [2, 3, 8, 200] {
            let par = evaluate_parallel(&SignClassifier, &d, threads).unwrap();
            assert_eq!(par.n, seq.n);
            assert_eq!(par.correct, seq.correct);
            assert_eq!(par.confusion, seq.confusion);
        }
    }

    #[test]
    fn parallel_single_thread_delegates() {
        let d = test_set();
        let r = evaluate_parallel(&SignClassifier, &d, 1).unwrap();
        assert_eq!(r.correct, 90);
    }

    #[test]
    fn seconds_per_example_positive() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        assert!(r.seconds_per_example() >= 0.0);
        assert!(r.seconds_per_example() < 1.0);
    }

    #[test]
    fn display_renders_summary() {
        let r = evaluate(&SignClassifier, &test_set()).unwrap();
        let text = r.to_string();
        assert!(text.contains("accuracy 0.9000"), "{text}");
        assert!(text.contains("l0: recall"), "{text}");
    }

    #[test]
    fn classification_errors_propagate() {
        struct Failing;
        impl Classifier for Failing {
            fn classify(&self, _: &UncertainPoint) -> Result<ClassLabel> {
                Err(UdmError::EmptyDataset)
            }
        }
        assert!(evaluate(&Failing, &test_set()).is_err());
        assert!(evaluate_parallel(&Failing, &test_set(), 4).is_err());
    }
}

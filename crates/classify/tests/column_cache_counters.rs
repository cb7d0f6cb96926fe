//! `udm_classify_column_cache_{hits,misses}_total` per query.
//!
//! One `classify_scored` builds the kernel-column caches once (a miss)
//! and reads them for every later density evaluation (a hit): the
//! roll-up's candidates plus the full-space scores, minus the first
//! evaluation that built them. The e2ebench ratio
//! `classify.column_cache_hit_ratio` is read from these two counters.
//!
//! The registry is process-global, so this file holds a single test:
//! nothing else in its process classifies concurrently.

use udm_classify::{ClassifierConfig, DensityClassifier};
use udm_data::{ErrorModel, UciDataset};

fn counter(name: &'static str) -> u64 {
    udm_observe::global().counter(name).get()
}

#[test]
fn one_query_counts_one_miss_and_a_hit_per_later_evaluation() {
    let train = ErrorModel::paper(1.0)
        .apply(&UciDataset::BreastCancer.generate(600, 41), 42)
        .unwrap();
    let test = ErrorModel::paper(1.0)
        .apply(&UciDataset::BreastCancer.generate(20, 43), 44)
        .unwrap();
    let model = DensityClassifier::fit(&train, ClassifierConfig::error_adjusted(30)).unwrap();
    for p in test.iter() {
        let hits = counter("udm_classify_column_cache_hits_total");
        let misses = counter("udm_classify_column_cache_misses_total");
        let (outcome, _) = model.classify_scored(p).unwrap();
        // Evaluations: every roll-up candidate, then the full space.
        let evaluations = outcome.candidates_evaluated as u64 + 1;
        assert_eq!(
            counter("udm_classify_column_cache_hits_total") - hits,
            evaluations - 1
        );
        assert_eq!(
            counter("udm_classify_column_cache_misses_total") - misses,
            1
        );
    }
}

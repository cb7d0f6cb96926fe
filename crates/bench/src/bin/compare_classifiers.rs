//! Extension experiment: the whole classifier family on one noisy
//! workload — the paper's three comparators plus naive density Bayes and
//! the threshold-tuned subspace classifier.
//!
//! Usage: `compare_classifiers [dataset] [n] [seed]`
//! (defaults: adult, 2000, 7).

use udm_bench::{render_table, write_results_file, ExperimentConfig};
use udm_classify::{
    evaluate, tune_threshold, ClassifierConfig, DensityClassifier, NaiveDensityBayes, NnClassifier,
    DEFAULT_THRESHOLD_GRID,
};
use udm_data::{stratified_split, ErrorModel, UciDataset};

fn main() {
    let mut args = std::env::args().skip(1);
    let ds = match args.next().as_deref() {
        Some("iono") | Some("ionosphere") => UciDataset::Ionosphere,
        Some("bc") | Some("breast_cancer") => UciDataset::BreastCancer,
        Some("cover") | Some("forest_cover") => UciDataset::ForestCover,
        _ => UciDataset::Adult,
    };
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let cfg = ExperimentConfig {
        n,
        seed,
        ..Default::default()
    };

    let mut rows = Vec::new();
    for f in [0.0, 1.0, 2.0] {
        let clean = ds.generate(cfg.n, cfg.seed);
        let noisy = ErrorModel::paper(f)
            .apply(&clean, cfg.seed ^ 0x9E37_79B9)
            .expect("noise applies");
        let split = stratified_split(&noisy, cfg.test_fraction, cfg.seed ^ 0x5851_F42D)
            .expect("split succeeds");

        let q = 140;
        let adjusted = DensityClassifier::fit(&split.train, ClassifierConfig::error_adjusted(q))
            .expect("training succeeds");
        let unadjusted = DensityClassifier::fit(&split.train, ClassifierConfig::unadjusted(q))
            .expect("training succeeds");
        let naive = NaiveDensityBayes::fit(&split.train, ClassifierConfig::error_adjusted(q))
            .expect("training succeeds");
        let nn = NnClassifier::fit(&split.train).expect("training succeeds");
        let sweep = tune_threshold(
            &split.train,
            ClassifierConfig::error_adjusted(q),
            &DEFAULT_THRESHOLD_GRID,
            0.25,
            cfg.seed,
        )
        .expect("tuning succeeds");
        let mut tuned_cfg = ClassifierConfig::error_adjusted(q);
        tuned_cfg.accuracy_threshold = sweep.best_threshold;
        let tuned = DensityClassifier::fit(&split.train, tuned_cfg).expect("training succeeds");

        let acc = |r: udm_classify::EvalReport| format!("{:.4}", r.accuracy());
        rows.push(vec![
            format!("{f:.1}"),
            acc(evaluate(&adjusted, &split.test).expect("eval")),
            format!(
                "{} (a={:.2})",
                acc(evaluate(&tuned, &split.test).expect("eval")),
                sweep.best_threshold
            ),
            acc(evaluate(&naive, &split.test).expect("eval")),
            acc(evaluate(&unadjusted, &split.test).expect("eval")),
            acc(evaluate(&nn, &split.test).expect("eval")),
        ]);
    }
    let table = render_table(
        &[
            "f",
            "adjusted",
            "adjusted+tuned",
            "naive_bayes",
            "unadjusted",
            "nn",
        ],
        &rows,
    );
    println!(
        "Classifier family — {} stand-in, n={n}, q=140, seed={seed}",
        ds.name()
    );
    println!("{table}");
    if let Ok(path) = write_results_file(&format!("compare_classifiers_{}", ds.name()), &table) {
        eprintln!("wrote {}", path.display());
    }
}

//! Extension experiment: density-based anomaly detection under the
//! paper's noise model.
//!
//! Inliers come from the breast-cancer stand-in; anomalies are uniform
//! points scattered over an inflated bounding box. Both are perturbed at
//! error level `f`. Reported per `f`: detection precision/recall for the
//! error-adjusted detector with and without query-error convolution.
//!
//! Usage: `ext_outliers [n] [seed]` (defaults: 1200, 7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udm_bench::{render_table, write_results_file};
use udm_cluster::{OutlierConfig, OutlierDetector};
use udm_core::{UncertainDataset, UncertainPoint};
use udm_data::{ErrorModel, UciDataset};

fn with_anomalies(n: usize, seed: u64) -> (UncertainDataset, Vec<bool>) {
    let inliers = UciDataset::BreastCancer.generate(n, seed);
    let summaries = inliers.summaries();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let n_anom = n / 20; // 5% anomalies
    let mut points = inliers.into_points();
    let mut truth = vec![false; points.len()];
    for _ in 0..n_anom {
        let values: Vec<f64> = summaries
            .iter()
            .map(|s| {
                let span = (s.max - s.min).max(1.0);
                s.min - span + rng.gen::<f64>() * 3.0 * span
            })
            .collect();
        points.push(UncertainPoint::exact(values).expect("finite"));
        truth.push(true);
    }
    (
        UncertainDataset::from_points(points).expect("uniform dims"),
        truth,
    )
}

fn precision_recall(mask: &[bool], truth: &[bool]) -> (f64, f64) {
    let tp = mask.iter().zip(truth).filter(|&(&m, &t)| m && t).count() as f64;
    let fp = mask.iter().zip(truth).filter(|&(&m, &t)| m && !t).count() as f64;
    let fne = mask.iter().zip(truth).filter(|&(&m, &t)| !m && t).count() as f64;
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let recall = if tp + fne > 0.0 { tp / (tp + fne) } else { 0.0 };
    (precision, recall)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1200);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let mut rows = Vec::new();
    for f in [0.0, 0.5, 1.0, 1.5] {
        let (clean, truth) = with_anomalies(n, seed);
        let data = if f > 0.0 {
            ErrorModel::paper(f)
                .apply(&clean, seed ^ 0x9E37)
                .expect("noise applies")
        } else {
            clean
        };
        let mut row = vec![format!("{f:.1}")];
        for use_query_error in [true, false] {
            let mut config = OutlierConfig::new(60);
            config.contamination = 0.05;
            config.use_query_error = use_query_error;
            let det = OutlierDetector::fit(&data, config).expect("fits");
            let mask = det.detect(&data).expect("detects");
            let (p, r) = precision_recall(&mask, &truth);
            row.push(format!("{p:.3}/{r:.3}"));
        }
        rows.push(row);
    }
    let table = render_table(&["f", "with_query_err (P/R)", "without (P/R)"], &rows);
    println!("Extension — outlier detection under noise (n={n}, 5% anomalies, seed={seed})");
    println!("{table}");
    if let Ok(path) = write_results_file("ext_outliers.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

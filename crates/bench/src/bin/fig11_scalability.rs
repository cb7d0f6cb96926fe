//! Figure 11: training time (seconds per example) with increasing number
//! of data points — forest cover (stand-in), 140 micro-clusters, f = 1.2.
//!
//! Reproduces the warm-up effect the paper describes: with few points the
//! maintainer has created fewer than `q` clusters, so early insertions do
//! fewer distance computations and the *average* per-example cost is
//! lower, stabilizing as the sample grows.
//!
//! Usage: `fig11_scalability [seed]` (default 7).

use udm_bench::{render_table, training_time, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let sizes = [200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000];
    let mut rows = Vec::new();
    for &n in &sizes {
        let cfg = ExperimentConfig {
            n,
            seed,
            ..Default::default()
        };
        // Average over repeats: sub-millisecond totals are noisy.
        let reps = 5;
        let mut total = 0.0;
        for r in 0..reps {
            let cfg_r = ExperimentConfig {
                seed: seed + r,
                ..cfg
            };
            total += training_time(UciDataset::ForestCover, 140, 1.2, &cfg_r)
                .expect("experiment should run")
                .seconds_per_example;
        }
        rows.push(vec![format!("{n}"), format!("{:.3e}", total / reps as f64)]);
    }
    let table = render_table(&["points", "train_s_per_example"], &rows);
    println!("Figure 11 — training seconds/example vs data size, forest cover, q=140, seed={seed}");
    println!("{table}");
    if let Ok(path) = write_results_file("fig11_scalability.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

//! Figure 9: testing time (seconds per example) with increasing number of
//! micro-clusters, all four datasets, f = 1.2.
//!
//! Usage: `fig09_testing_time [n] [test_points] [seed]`
//! (defaults: 3000, 60, 7).

use udm_bench::{render_table, testing_time, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let n = args.next().and_then(|a| a.parse().ok()).unwrap_or(3000);
    let test_points = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);
    let seed = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let qs = [20, 40, 60, 80, 100, 120, 140];
    let datasets = [
        UciDataset::ForestCover,
        UciDataset::BreastCancer,
        UciDataset::Adult,
        UciDataset::Ionosphere,
    ];
    let mut rows = Vec::new();
    for &q in &qs {
        let mut row = vec![format!("{q}")];
        for ds in datasets {
            let cfg = ExperimentConfig {
                n: n.min(ds.real_size()),
                seed,
                ..Default::default()
            };
            let t =
                testing_time(ds, q, 1.2, test_points, None, &cfg).expect("experiment should run");
            row.push(format!("{:.3e}", t.seconds_per_example));
        }
        rows.push(row);
    }
    let table = render_table(
        &["q", "forest_cover", "breast_cancer", "adult", "ionosphere"],
        &rows,
    );
    println!(
        "Figure 9 — testing seconds/example vs q, f=1.2, n≤{n}, {test_points} test points, seed={seed}"
    );
    println!("{table}");
    if let Ok(path) = write_results_file("fig09_testing_time.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

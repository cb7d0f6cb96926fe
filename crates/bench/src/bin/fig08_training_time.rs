//! Figure 8: training time (seconds per data point) with increasing
//! number of micro-clusters, all four datasets, f = 1.2.
//!
//! Usage: `fig08_training_time [n] [seed]` (defaults: 4000, 7). The small
//! datasets (ionosphere, breast cancer) use their real sizes regardless.

use udm_bench::{render_table, training_time, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let n = args.next().and_then(|a| a.parse().ok()).unwrap_or(4000);
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
            let t = training_time(ds, q, 1.2, &cfg).expect("experiment should run");
            row.push(format!("{:.3e}", t.seconds_per_example));
        }
        rows.push(row);
    }
    let table = render_table(
        &["q", "forest_cover", "breast_cancer", "adult", "ionosphere"],
        &rows,
    );
    println!("Figure 8 — training seconds/point vs q, f=1.2, n≤{n}, seed={seed}");
    println!("{table}");
    if let Ok(path) = write_results_file("fig08_training_time.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

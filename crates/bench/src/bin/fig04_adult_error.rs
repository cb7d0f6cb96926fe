//! Figure 4: classification accuracy vs error level `f` on the adult
//! dataset (stand-in), 140 micro-clusters.
//!
//! Usage: `fig04_adult_error [n] [seed]` (defaults: 4000, 7).

use udm_bench::{accuracy_sweep_error, render_table, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let n = args.next().and_then(|a| a.parse().ok()).unwrap_or(4000);
    let seed = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let cfg = ExperimentConfig {
        n,
        seed,
        ..Default::default()
    };
    let fs = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
    let rows =
        accuracy_sweep_error(UciDataset::Adult, &fs, 140, &cfg).expect("experiment should run");
    let table = render_table(
        &["f", "adjusted", "unadjusted", "nn"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.x),
                    format!("{:.4}", r.adjusted),
                    format!("{:.4}", r.unadjusted),
                    format!("{:.4}", r.nn),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Figure 4 — adult, q=140, n={n}, seed={seed}");
    println!("{table}");
    if let Ok(path) = write_results_file("fig04_adult_error.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

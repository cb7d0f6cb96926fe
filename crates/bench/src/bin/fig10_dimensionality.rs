//! Figure 10: testing time (seconds per example) with increasing data
//! dimensionality — projections of the ionosphere dataset (stand-in) at
//! 80 and 140 micro-clusters, f = 1.2.
//!
//! Usage: `fig10_dimensionality [test_points] [seed]` (defaults: 40, 7).

use udm_bench::{render_table, testing_time, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let test_points = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let seed = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let dims = [5, 10, 15, 20, 25, 30, 34];
    let cfg = ExperimentConfig {
        n: UciDataset::Ionosphere.real_size(),
        seed,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for &d in &dims {
        let t80 = testing_time(UciDataset::Ionosphere, 80, 1.2, test_points, Some(d), &cfg)
            .expect("experiment should run");
        let t140 = testing_time(UciDataset::Ionosphere, 140, 1.2, test_points, Some(d), &cfg)
            .expect("experiment should run");
        rows.push(vec![
            format!("{d}"),
            format!("{:.3e}", t80.seconds_per_example),
            format!("{:.3e}", t140.seconds_per_example),
        ]);
    }
    let table = render_table(&["dims", "q=80", "q=140"], &rows);
    println!(
        "Figure 10 — testing seconds/example vs dimensionality (ionosphere projections), f=1.2, {test_points} test points, seed={seed}"
    );
    println!("{table}");
    if let Ok(path) = write_results_file("fig10_dimensionality.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

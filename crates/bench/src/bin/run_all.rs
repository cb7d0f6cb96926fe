//! Runs the complete evaluation suite (Figures 4–11) with one command and
//! writes every table under `results/`.
//!
//! Usage: `run_all [--quick]` — `--quick` shrinks dataset sizes so the
//! whole suite finishes in about a minute; the default sizes match the
//! figure binaries' defaults.

use udm_bench::{
    accuracy_sweep_clusters, accuracy_sweep_error, count_cell, render_table, testing_time,
    training_time, write_results_file, ExperimentConfig,
};
use udm_data::UciDataset;

struct Sizes {
    adult_n: usize,
    cover_n: usize,
    timing_n: usize,
    test_points: usize,
}

fn accuracy_table(rows: &[udm_bench::AccuracyRow], x_name: &str, as_int: bool) -> String {
    render_table(
        &[x_name, "adjusted", "unadjusted", "nn"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    if as_int {
                        count_cell(r.x)
                    } else {
                        format!("{:.1}", r.x)
                    },
                    format!("{:.4}", r.adjusted),
                    format!("{:.4}", r.unadjusted),
                    format!("{:.4}", r.nn),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = if quick {
        Sizes {
            adult_n: 1200,
            cover_n: 1500,
            timing_n: 1000,
            test_points: 20,
        }
    } else {
        Sizes {
            adult_n: 4000,
            cover_n: 6000,
            timing_n: 3000,
            test_points: 60,
        }
    };
    let seed = 7;
    let fs = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
    let qs = [20, 40, 60, 80, 100, 120, 140];
    let datasets = [
        UciDataset::ForestCover,
        UciDataset::BreastCancer,
        UciDataset::Adult,
        UciDataset::Ionosphere,
    ];

    // Figures 4 & 5: adult.
    let cfg = ExperimentConfig {
        n: sizes.adult_n,
        seed,
        ..Default::default()
    };
    let rows = accuracy_sweep_error(UciDataset::Adult, &fs, 140, &cfg).expect("fig04");
    let t = accuracy_table(&rows, "f", false);
    println!("== Figure 4 (adult, accuracy vs f) ==\n{t}");
    write_results_file("fig04_adult_error.txt", &t).ok();

    let rows = accuracy_sweep_clusters(UciDataset::Adult, &qs, 1.2, &cfg).expect("fig05");
    let t = accuracy_table(&rows, "q", true);
    println!("== Figure 5 (adult, accuracy vs q) ==\n{t}");
    write_results_file("fig05_adult_clusters.txt", &t).ok();

    // Figures 6 & 7: forest cover.
    let cfg = ExperimentConfig {
        n: sizes.cover_n,
        seed,
        ..Default::default()
    };
    let rows = accuracy_sweep_error(UciDataset::ForestCover, &fs, 140, &cfg).expect("fig06");
    let t = accuracy_table(&rows, "f", false);
    println!("== Figure 6 (forest cover, accuracy vs f) ==\n{t}");
    write_results_file("fig06_cover_error.txt", &t).ok();

    let rows = accuracy_sweep_clusters(UciDataset::ForestCover, &qs, 1.2, &cfg).expect("fig07");
    let t = accuracy_table(&rows, "q", true);
    println!("== Figure 7 (forest cover, accuracy vs q) ==\n{t}");
    write_results_file("fig07_cover_clusters.txt", &t).ok();

    // Figure 8: training time vs q.
    let mut rows8 = Vec::new();
    for &q in &qs {
        let mut row = vec![format!("{q}")];
        for ds in datasets {
            let cfg = ExperimentConfig {
                n: sizes.timing_n.min(ds.real_size()),
                seed,
                ..Default::default()
            };
            let t = training_time(ds, q, 1.2, &cfg).expect("fig08");
            row.push(format!("{:.3e}", t.seconds_per_example));
        }
        rows8.push(row);
    }
    let t = render_table(
        &["q", "forest_cover", "breast_cancer", "adult", "ionosphere"],
        &rows8,
    );
    println!("== Figure 8 (training s/point vs q) ==\n{t}");
    write_results_file("fig08_training_time.txt", &t).ok();

    // Figure 9: testing time vs q.
    let mut rows9 = Vec::new();
    for &q in &qs {
        let mut row = vec![format!("{q}")];
        for ds in datasets {
            let cfg = ExperimentConfig {
                n: sizes.timing_n.min(ds.real_size()),
                seed,
                ..Default::default()
            };
            let t = testing_time(ds, q, 1.2, sizes.test_points, None, &cfg).expect("fig09");
            row.push(format!("{:.3e}", t.seconds_per_example));
        }
        rows9.push(row);
    }
    let t = render_table(
        &["q", "forest_cover", "breast_cancer", "adult", "ionosphere"],
        &rows9,
    );
    println!("== Figure 9 (testing s/example vs q) ==\n{t}");
    write_results_file("fig09_testing_time.txt", &t).ok();

    // Figure 10: testing time vs dimensionality.
    let cfg = ExperimentConfig {
        n: UciDataset::Ionosphere.real_size(),
        seed,
        ..Default::default()
    };
    let mut rows10 = Vec::new();
    for &d in &[5usize, 10, 15, 20, 25, 30, 34] {
        let t80 = testing_time(
            UciDataset::Ionosphere,
            80,
            1.2,
            sizes.test_points,
            Some(d),
            &cfg,
        )
        .expect("fig10");
        let t140 = testing_time(
            UciDataset::Ionosphere,
            140,
            1.2,
            sizes.test_points,
            Some(d),
            &cfg,
        )
        .expect("fig10");
        rows10.push(vec![
            format!("{d}"),
            format!("{:.3e}", t80.seconds_per_example),
            format!("{:.3e}", t140.seconds_per_example),
        ]);
    }
    let t = render_table(&["dims", "q=80", "q=140"], &rows10);
    println!("== Figure 10 (testing s/example vs dimensionality) ==\n{t}");
    write_results_file("fig10_dimensionality.txt", &t).ok();

    // Figure 11: training time vs data size.
    let mut rows11 = Vec::new();
    for &n in &[200usize, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000] {
        let reps = 5;
        let mut total = 0.0;
        for r in 0..reps {
            let cfg = ExperimentConfig {
                n,
                seed: seed + r,
                ..Default::default()
            };
            total += training_time(UciDataset::ForestCover, 140, 1.2, &cfg)
                .expect("fig11")
                .seconds_per_example;
        }
        rows11.push(vec![format!("{n}"), format!("{:.3e}", total / reps as f64)]);
    }
    let t = render_table(&["points", "train_s_per_example"], &rows11);
    println!("== Figure 11 (training s/example vs data size) ==\n{t}");
    write_results_file("fig11_scalability.txt", &t).ok();

    println!("all figures written under results/");
}

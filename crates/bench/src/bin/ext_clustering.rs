//! Extension experiment (beyond the paper's figures): clustering quality
//! of error-adjusted vs Euclidean k-means under sparse heteroscedastic
//! noise, plus the macro-clustering (CluStream offline) pathway.
//!
//! Columns are adjusted-vs-euclidean ARI at each noise level, averaged
//! over seeds, and the ARI of macro-clustering the same stream through a
//! 60-cluster summary — showing the compressed path costs little quality.
//!
//! Usage: `ext_clustering [n] [seeds]` (defaults: 900, 5).

use udm_bench::{render_table, write_results_file};
use udm_cluster::{adjusted_rand_index, macro_cluster, KMeans, KMeansConfig, MacroClusterConfig};
use udm_core::ClassLabel;
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_microcluster::{AssignmentDistance, MaintainerConfig, MicroClusterMaintainer};

fn blobs() -> MixtureGenerator {
    MixtureGenerator::new(
        2,
        vec![
            GaussianClassSpec {
                mean: vec![0.0, 0.0],
                std: vec![0.7, 0.25],
                weight: 1.0,
            },
            GaussianClassSpec {
                mean: vec![7.0, 2.0],
                std: vec![0.7, 0.25],
                weight: 1.0,
            },
            GaussianClassSpec {
                mean: vec![14.0, 4.0],
                std: vec![0.7, 0.25],
                weight: 1.0,
            },
        ],
    )
    .expect("spec is valid")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(900);
    let seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    let mut rows = Vec::new();
    for f in [0.0, 0.5, 1.0, 1.5, 2.0] {
        let mut ari_adj = 0.0;
        let mut ari_euc = 0.0;
        let mut ari_macro = 0.0;
        for seed in 0..seeds {
            let clean = blobs().generate(n, seed);
            let noisy = ErrorModel::SparseUniform { f, p: 0.25 }
                .apply(&clean, seed + 100)
                .expect("noise model applies");
            let truth: Vec<ClassLabel> =
                noisy.iter().map(|p| p.label().expect("labelled")).collect();

            for (dist, acc) in [
                (AssignmentDistance::ErrorAdjusted, &mut ari_adj),
                (AssignmentDistance::Euclidean, &mut ari_euc),
            ] {
                let mut cfg = KMeansConfig::new(3);
                cfg.distance = dist;
                cfg.seed = seed;
                let r = KMeans::new(cfg)
                    .expect("config is valid")
                    .run(&noisy)
                    .expect("kmeans runs");
                let a: Vec<Option<usize>> = r.assignments.iter().map(|&x| Some(x)).collect();
                *acc += adjusted_rand_index(&a, &truth);
            }

            // Compressed path: summarize then macro-cluster, then route
            // each raw point through the macro assignment.
            let m = MicroClusterMaintainer::from_dataset(&noisy, MaintainerConfig::new(60))
                .expect("maintainer runs");
            let mut mc_cfg = MacroClusterConfig::new(3);
            mc_cfg.seed = seed;
            let macro_c = macro_cluster(m.clusters(), mc_cfg).expect("macro-clustering runs");
            let assignments: Vec<Option<usize>> = noisy.iter().map(|p| macro_c.assign(p)).collect();
            ari_macro += adjusted_rand_index(&assignments, &truth);
        }
        let k = seeds as f64;
        rows.push(vec![
            format!("{f:.1}"),
            format!("{:.4}", ari_adj / k),
            format!("{:.4}", ari_euc / k),
            format!("{:.4}", ari_macro / k),
        ]);
    }
    let table = render_table(
        &["f", "kmeans_adjusted", "kmeans_euclidean", "macro_60c"],
        &rows,
    );
    println!("Extension — clustering ARI under sparse noise (n={n}, {seeds} seeds)");
    println!("{table}");
    if let Ok(path) = write_results_file("ext_clustering.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}

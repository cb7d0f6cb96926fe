//! # udm-bench
//!
//! Benchmark harness regenerating every figure of the paper's evaluation
//! section (§4). Each `fig*` binary prints the same series the paper
//! plots; `run_all` executes the full suite and writes the results under
//! `results/`.
//!
//! | Binary | Paper figure | Series |
//! |---|---|---|
//! | `fig04_adult_error` | Fig. 4 | accuracy vs error level `f`, adult, q=140 |
//! | `fig05_adult_clusters` | Fig. 5 | accuracy vs `q`, adult, f=1.2 |
//! | `fig06_cover_error` | Fig. 6 | accuracy vs `f`, forest cover, q=140 |
//! | `fig07_cover_clusters` | Fig. 7 | accuracy vs `q`, forest cover, f=1.2 |
//! | `fig08_training_time` | Fig. 8 | training s/point vs `q`, all datasets |
//! | `fig09_testing_time` | Fig. 9 | testing s/point vs `q`, all datasets |
//! | `fig10_dimensionality` | Fig. 10 | testing s/point vs dims, ionosphere |
//! | `fig11_scalability` | Fig. 11 | training s/point vs data size, cover |
//!
//! The criterion benches under `benches/` are the ones CI smoke-runs:
//! `bench_simd_parallel` (column builds, `fast_exp`, the `evaluate`
//! thread axis), `bench_observe` (telemetry overhead), `bench_shard`
//! (sharded ingest), `bench_serve` (batched vs unbatched serving) and
//! `bench_density_backends` (exact vs coreset). Each writes its report
//! through [`write_results_file`] and shrinks under [`quick_mode`]. The
//! end-to-end benchmark lives in its own package, `e2ebench/`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiment;
pub mod table;

pub use experiment::{
    accuracy_sweep_clusters, accuracy_sweep_error, testing_time, training_time, AccuracyRow,
    ExperimentConfig, TimingRow,
};
pub use table::{count_cell, quick_mode, render_table, write_results_file};

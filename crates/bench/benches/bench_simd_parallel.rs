//! Columnar kernel hot path + the evaluation thread axis, measured.
//!
//! Extends the `bench_subspace_cache` matrix to `n = 100_000` and pins
//! down the two claims of the SIMD/parallelism work, all inside one
//! binary (the bounded-error `fast_exp` is always compiled; only the
//! hot-path routing is feature-gated):
//!
//! * **Columnar builds** — per-query kernel-column construction via the
//!   scalar reference builder vs the SoA columnar builder vs the
//!   columnar builder with `fast_exp`, plus a raw `exp` throughput
//!   microbench (`exp_std` vs `exp_fast`).
//! * **Thread scaling** — `evaluate_par` over an explicit 1/2/4/8
//!   thread axis against `evaluate_seq` on the same subset.
//!
//! Medians and derived ratios go to `results/BENCH_simd_parallel.json`
//! (the old `BENCH_subspace_cache.json` baseline is left untouched).
//! The report records `host_cores` and `fast_math_enabled`: thread
//! counts above `host_cores` cannot scale further, which the
//! `criteria_notes` call out rather than paper over.
//!
//! `UDM_BENCH_QUICK=1` shrinks the matrix and sampling for CI smoke.

use criterion::{black_box, Criterion};
use std::time::Duration;
use udm_classify::{evaluate, evaluate_parallel, ClassifierConfig, DensityClassifier};
use udm_core::UncertainDataset;
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_kde::{fast_exp, ErrorKde, KdeConfig};
use udm_microcluster::{MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

const THREAD_AXIS: [usize; 4] = [1, 2, 4, 8];

fn quick() -> bool {
    std::env::var_os("UDM_BENCH_QUICK").is_some()
}

fn matrix() -> Vec<(usize, usize)> {
    if quick() {
        vec![(1_000, 10)]
    } else {
        vec![(1_000, 10), (10_000, 10), (10_000, 20), (100_000, 10)]
    }
}

/// Two well-separated spherical classes in `d` dimensions with
/// paper-style multiplicative errors (same generator as the baseline
/// bench, so medians are comparable across the two JSON files).
fn synthetic(n: usize, d: usize, seed: u64) -> UncertainDataset {
    let g = MixtureGenerator::new(
        d,
        vec![
            GaussianClassSpec::spherical(vec![0.0; d], 1.0, 1.0),
            GaussianClassSpec::spherical(vec![3.0; d], 1.0, 1.0),
        ],
    )
    .unwrap();
    ErrorModel::paper(1.0)
        .apply(&g.generate(n, seed), seed + 1)
        .unwrap()
}

fn bench_simd_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_parallel");
    if quick() {
        group.measurement_time(Duration::from_millis(80));
        group.sample_size(3);
    } else {
        group.measurement_time(Duration::from_millis(300));
        group.sample_size(5);
    }

    // Raw exponential throughput: the kernel builds are exp-bound, so
    // this is the upper bound of the fast-math build win. 4096 negative
    // arguments spanning the kernel's live range.
    let args: Vec<f64> = (0..4096).map(|i| -(i as f64) * 0.17 % 700.0).collect();
    group.bench_function("exp_std/x4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in black_box(&args) {
                acc += x.exp();
            }
            acc
        })
    });
    group.bench_function("exp_fast/x4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in black_box(&args) {
                acc += fast_exp(x);
            }
            acc
        })
    });

    for &(n, d) in &matrix() {
        let tag = format!("n{n}_d{d}");
        let data = synthetic(n, d, 7);
        let probe = data.point(0).clone();
        let x: Vec<f64> = probe.values().to_vec();

        // --- Columnar vs scalar column builds -------------------------
        // Exact estimator: n rows per build — the kernel-eval hot loop
        // at full data scale.
        let kde = ErrorKde::fit(&data, KdeConfig::default()).unwrap();
        group.bench_function(format!("exact_build/{tag}"), |b| {
            b.iter(|| kde.kernel_columns(black_box(&x)).unwrap().rows())
        });

        // Micro-cluster estimator: q = 80 rows per build; scalar
        // reference vs columnar vs columnar+fast_exp A/B.
        let m = MicroClusterMaintainer::from_dataset(&data, MaintainerConfig::new(80)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        group.bench_function(format!("mc_build_scalar/{tag}"), |b| {
            b.iter(|| {
                mc.kernel_columns_scalar(black_box(&x), None)
                    .unwrap()
                    .rows()
            })
        });
        group.bench_function(format!("mc_build_columnar/{tag}"), |b| {
            b.iter(|| mc.kernel_columns(black_box(&x), None).unwrap().rows())
        });
        group.bench_function(format!("mc_build_fastexp/{tag}"), |b| {
            b.iter(|| mc.kernel_columns_fastexp(black_box(&x)).unwrap().rows())
        });

        // --- Thread-scaling axis for the evaluation harness -----------
        let model = DensityClassifier::fit(&data, ClassifierConfig::error_adjusted(80)).unwrap();
        let subset = UncertainDataset::from_points(
            (0..64.min(data.len()))
                .map(|i| data.point(i).clone())
                .collect(),
        )
        .unwrap();
        group.bench_function(format!("evaluate_seq/{tag}"), |b| {
            b.iter(|| evaluate(&model, black_box(&subset)).unwrap().correct)
        });
        for t in THREAD_AXIS {
            group.bench_function(format!("evaluate_par_t{t}/{tag}"), |b| {
                b.iter(|| {
                    evaluate_parallel(&model, black_box(&subset), t)
                        .unwrap()
                        .correct
                })
            });
        }
    }
    group.finish();
}

#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    median_seconds: f64,
}

#[derive(serde::Serialize)]
struct ThreadScaling {
    threads: usize,
    seq_over_par: f64,
}

#[derive(serde::Serialize)]
struct Comparison {
    config: String,
    /// `mc_build_scalar / mc_build_columnar`: the SoA layout win with
    /// the build's default exp.
    build_scalar_over_columnar: f64,
    /// `mc_build_columnar / mc_build_fastexp`: the bounded-error exp
    /// win on identical loop structure (single-threaded).
    build_columnar_over_fastexp: f64,
    evaluate_thread_scaling: Vec<ThreadScaling>,
}

#[derive(serde::Serialize)]
struct Report {
    host_cores: usize,
    fast_math_enabled: bool,
    quick_mode: bool,
    /// `exp_std / exp_fast` single-thread throughput ratio.
    exp_fast_speedup: f64,
    entries: Vec<BenchEntry>,
    comparisons: Vec<Comparison>,
    criteria_notes: Vec<String>,
}

fn dump_json(c: &Criterion) {
    let seconds = |name: &str| -> f64 {
        c.results
            .iter()
            .find(|(n, _)| n == &format!("simd_parallel/{name}"))
            .map(|(_, t)| t.as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let exp_fast_speedup = seconds("exp_std/x4096") / seconds("exp_fast/x4096");

    let mut comparisons = Vec::new();
    for &(n, d) in &matrix() {
        let tag = format!("n{n}_d{d}");
        comparisons.push(Comparison {
            config: tag.clone(),
            build_scalar_over_columnar: seconds(&format!("mc_build_scalar/{tag}"))
                / seconds(&format!("mc_build_columnar/{tag}")),
            build_columnar_over_fastexp: seconds(&format!("mc_build_columnar/{tag}"))
                / seconds(&format!("mc_build_fastexp/{tag}")),
            evaluate_thread_scaling: THREAD_AXIS
                .iter()
                .map(|&t| ThreadScaling {
                    threads: t,
                    seq_over_par: seconds(&format!("evaluate_seq/{tag}"))
                        / seconds(&format!("evaluate_par_t{t}/{tag}")),
                })
                .collect(),
        });
    }

    let mut criteria_notes = vec![
        "exp_fast_speedup is the single-thread exp throughput ratio; the >=2x \
         fast-math kernel-eval criterion is read from it together with \
         build_columnar_over_fastexp."
            .to_string(),
    ];
    if host_cores < 4 {
        criteria_notes.push(format!(
            "host has {host_cores} core(s): evaluate_par thread-scaling ratios \
             cannot rise past ~{host_cores}x, so the >=2x-at-4-cores criterion is not \
             demonstrable on this host; the thread axis is still recorded for \
             multi-core reruns."
        ));
    }

    let report = Report {
        host_cores,
        fast_math_enabled: cfg!(feature = "fast-math"),
        quick_mode: quick(),
        exp_fast_speedup,
        entries: c
            .results
            .iter()
            .map(|(name, t)| BenchEntry {
                name: name.clone(),
                median_seconds: t.as_secs_f64(),
            })
            .collect(),
        comparisons,
        criteria_notes,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let file = if results.is_dir() {
        results.join("BENCH_simd_parallel.json")
    } else {
        std::path::PathBuf::from("BENCH_simd_parallel.json")
    };
    std::fs::write(&file, &json).expect("write BENCH_simd_parallel.json");
    println!("wrote {}", file.display());
    println!("exp_std/exp_fast: {exp_fast_speedup:.2}x");
    for cmp in &report.comparisons {
        println!(
            "{}: build scalar/columnar {:.2}x, columnar/fastexp {:.2}x",
            cmp.config, cmp.build_scalar_over_columnar, cmp.build_columnar_over_fastexp
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_simd_parallel(&mut c);
    c.final_summary();
    dump_json(&c);
}

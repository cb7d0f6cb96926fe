//! `offline_cover`: the `udm classify` path on the forest-cover
//! stand-in (d=10, 7 classes, f=1) — `DensityClassifier::fit` with the
//! CLI defaults, then sequential classification over whole passes of a
//! test set. Kernel-column builds dominate; the roll-up is light and
//! there is no HTTP.

use crate::client::LoadResult;
use crate::daemon::generate;
use crate::layers::{self, ratio, Delta};
use crate::stats::median;
use crate::{derive_seed, peak_rss_mb, Args, Outcome};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use udm_classify::{evaluate, evaluate_parallel, Classifier, ClassifierConfig, DensityClassifier};
use udm_core::{ClassLabel, UncertainDataset};
use udm_data::UciDataset;
use udm_microcluster::{MaintainerConfig, MicroCluster, MicroClusterKde, MicroClusterMaintainer};

/// `udm generate forest_cover` default size.
const N_TRAIN: usize = 10_000;
const N_TEST: usize = 10_000;
/// `udm classify` defaults.
const CLI_Q: usize = 140;
const CLI_THRESHOLD: f64 = 0.55;
/// Fits a traced run times for `classify.fit_s` (it has no interludes).
pub const TRACED_FITS: usize = 9;
/// Test points whose kernel columns the traced run rebuilds.
const COLUMN_REPLAY_POINTS: usize = 400;
/// Test points the traced run classifies sequentially and in parallel.
const PAR2_POINTS: usize = 2_000;

pub fn classifier_config(q: usize) -> ClassifierConfig {
    let mut config = ClassifierConfig::error_adjusted(q);
    config.accuracy_threshold = CLI_THRESHOLD;
    config
}

/// `DensityClassifier::fit`, timed: the model and its seconds.
pub fn timed_fit(
    train: &UncertainDataset,
    config: &ClassifierConfig,
) -> Result<(DensityClassifier, f64), String> {
    let t = Instant::now();
    let model = DensityClassifier::fit(train, *config).map_err(|e| e.to_string())?;
    Ok((model, t.elapsed().as_secs_f64()))
}

/// Sequential classification over passes of `test` until `budget` is
/// spent, carrying on from test point `*cursor`. Every pass must repeat
/// the labels of the first one.
fn passes(
    model: &DensityClassifier,
    test: &UncertainDataset,
    budget: Duration,
    cursor: &mut usize,
    reference: &mut [Option<ClassLabel>],
) -> LoadResult {
    let n = test.len();
    let mut out = LoadResult::default();
    let started = Instant::now();
    let i = cursor;
    while started.elapsed() < budget {
        let p = test.point(*i % n);
        out.attempted += 1;
        let t = Instant::now();
        let answer = {
            let _span = layers::span("bench.classify");
            Classifier::classify(model, p)
        };
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        match answer {
            Ok(label) if *reference[*i % n].get_or_insert(label) == label => {
                out.samples.record(latency_us);
            }
            Ok(label) => {
                eprintln!("e2ebench: point {} changed label to {label}", *i % n);
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("e2ebench: classify failed: {e}");
                out.failed += 1;
            }
        }
        *i += 1;
    }
    out.samples.seconds = started.elapsed().as_secs_f64();
    out
}

/// The KDEs `DensityClassifier::fit` builds (global first, then one per
/// class), rebuilt through the same public calls, plus the seconds the
/// global micro-cluster assignment took.
pub fn fit_kdes(
    train: &UncertainDataset,
    config: &ClassifierConfig,
) -> Result<(Vec<MicroClusterKde>, f64), String> {
    let err = |e: udm_core::UdmError| e.to_string();
    let q = config.micro_clusters;
    let mc = |max_clusters| MaintainerConfig {
        max_clusters,
        distance: config.distance,
    };
    let t = Instant::now();
    let global = MicroClusterMaintainer::from_dataset(train, mc(q)).map_err(err)?;
    let assign_s = t.elapsed().as_secs_f64();
    let mut agg = MicroCluster::new(train.dim());
    for c in global.clusters() {
        agg.merge(c).map_err(err)?;
    }
    let sigmas: Vec<f64> = (0..train.dim())
        .map(|j| udm_core::num::clamped_sqrt(agg.variance(j)))
        .collect();
    let bandwidths = config
        .bandwidth
        .bandwidths_from_sigmas(&sigmas, train.len())
        .map_err(err)?;
    let kde = |clusters: &[MicroCluster]| {
        MicroClusterKde::fit_with_bandwidths(
            clusters,
            bandwidths.clone(),
            config.kernel_form,
            config.error_adjusted,
        )
        .map_err(err)
    };
    let mut kdes = vec![kde(global.clusters())?];
    let partition = train.partition_by_class();
    for label in partition.labels() {
        let class = partition.class(label).ok_or("class vanished")?;
        let q_i = ((q as f64 * class.len() as f64 / train.len() as f64).round() as usize).max(1);
        let m = MicroClusterMaintainer::from_dataset(class, mc(q_i)).map_err(err)?;
        kdes.push(kde(m.clusters())?);
    }
    Ok((kdes, assign_s))
}

/// Mean microseconds of one `MicroClusterKde::kernel_columns` build,
/// replayed on the first test points against every KDE.
pub fn column_build_us(
    kdes: &[MicroClusterKde],
    test: &UncertainDataset,
    query_errors: bool,
) -> Result<f64, String> {
    let before = udm_observe::Snapshot::capture();
    for p in test.points().iter().take(COLUMN_REPLAY_POINTS) {
        let errors = query_errors.then(|| p.errors());
        for kde in kdes {
            layers::replay("bench.replay.column_build", || {
                kde.kernel_columns(p.values(), errors)
                    .map(std::hint::black_box)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(Delta::since(before).span_mean_us("bench.replay.column_build"))
}

/// `evaluate` time over `evaluate_parallel(…, 2)` time on the first
/// `PAR2_POINTS` test points (medians of three alternating runs each);
/// both must give the same confusion matrix.
pub fn par2_speedup(model: &DensityClassifier, test: &UncertainDataset) -> Result<f64, String> {
    let err = |e: udm_core::UdmError| e.to_string();
    let points = test.points().iter().take(PAR2_POINTS).cloned().collect();
    let subset = UncertainDataset::from_points(points).map_err(err)?;
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let s = evaluate(model, &subset).map_err(err)?;
        let p = evaluate_parallel(model, &subset, 2).map_err(err)?;
        if s.confusion != p.confusion {
            return Err("evaluate and evaluate_parallel disagree".into());
        }
        seq.push(s.elapsed.as_secs_f64());
        par.push(p.elapsed.as_secs_f64());
    }
    Ok(median(&seq) / median(&par))
}

/// Classification-layer counters per op over a traced window.
pub fn classify_counters(out: &mut Outcome, delta: &Delta, ops: f64) {
    let hits = delta.counter("udm_classify_column_cache_hits_total");
    let misses = delta.counter("udm_classify_column_cache_misses_total");
    out.metric(
        "microcluster.column_builds_per_op",
        ratio(delta.counter("udm_microcluster_column_builds_total"), ops),
    );
    out.metric(
        "microcluster.kernel_evals_per_op",
        ratio(delta.counter("udm_microcluster_kernel_evals_total"), ops),
    );
    out.metric(
        "classify.rollup_candidates_per_op",
        ratio(delta.counter("udm_classify_rollup_candidates_total"), ops),
    );
    out.metric(
        "classify.rollup_pruned_per_op",
        ratio(delta.counter("udm_classify_rollup_pruned_total"), ops),
    );
    out.metric(
        "classify.column_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let train = generate(UciDataset::ForestCover, N_TRAIN, derive_seed(args.seed, 1))?;
    let test = generate(UciDataset::ForestCover, N_TEST, derive_seed(args.seed, 2))?;
    let config = classifier_config(CLI_Q);

    // Set-up is `fit`; untraced runs fit again between measured windows.
    let (model, first_fit_s) = timed_fit(&train, &config)?;
    let mut fit_seconds = vec![first_fit_s];

    let mut reference = vec![None; test.len()];
    let mut cursor = 0;
    let measured = layers::measure(
        args.budget(),
        args.trace,
        |budget| Ok(passes(&model, &test, budget, &mut cursor, &mut reference)),
        || {
            fit_seconds.push(timed_fit(&train, &config)?.1);
            Ok(())
        },
    )?;

    // Answer checks: one whole pass completed, and the CLI's `evaluate`
    // agrees with the measured labels point for point.
    let labels: Vec<ClassLabel> = reference
        .iter()
        .copied()
        .collect::<Option<_>>()
        .ok_or("no whole pass over the test set completed")?;
    let mut confusion = BTreeMap::new();
    let mut correct = 0;
    for (p, &label) in test.points().iter().zip(&labels) {
        let actual = p.label().ok_or("unlabelled test point")?;
        *confusion.entry((actual, label)).or_insert(0usize) += 1;
        correct += usize::from(actual == label);
    }
    let report = evaluate(&model, &test).map_err(|e| e.to_string())?;
    let mut out = Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        checks_passed: report.confusion == confusion && report.correct == correct,
        ..Outcome::default()
    };
    if !out.checks_passed {
        eprintln!("e2ebench: evaluate disagrees with the measured labels");
    }

    if let Some(delta) = &measured.delta {
        let ops = measured.ops();
        classify_counters(&mut out, delta, ops);
        let point_us = delta.span_mean_us("bench.classify");
        let builds_per_op = ratio(delta.counter("udm_microcluster_column_builds_total"), ops);
        let (kdes, assign_s) = fit_kdes(&train, &config)?;
        let build_us = column_build_us(&kdes, &test, config.convolve_query_error)?;
        let mut fallbacks = 0usize;
        for p in test.points() {
            let outcome = model.classify_detailed(p).map_err(|e| e.to_string())?;
            fallbacks += usize::from(outcome.used_fallback);
        }
        out.metric("classify.point_us", point_us);
        out.metric("gen.trace_overhead", measured.trace_overhead());
        out.metric("microcluster.column_build_us", build_us);
        out.metric(
            "microcluster.column_build_share",
            ratio(builds_per_op * build_us, point_us),
        );
        out.metric(
            "classify.fallback_share",
            fallbacks as f64 / test.len() as f64,
        );
        for _ in 1..TRACED_FITS {
            fit_seconds.push(timed_fit(&train, &config)?.1);
        }
        out.metric("classify.fit_s", median(&fit_seconds));
        out.metric(
            "microcluster.assign_us_per_rec",
            assign_s * 1e6 / N_TRAIN as f64,
        );
        out.metric("classify.par2_speedup", par2_speedup(&model, &test)?);
    } else {
        let (p50, p99) = measured.plain.p50_p99()?;
        out.metric("setup_s", median(&fit_seconds));
        out.metric("ops_per_s", measured.plain.ops_per_s());
        out.metric("p50_us", p50);
        out.metric("p99_us", p99);
        out.metric("accuracy", correct as f64 / test.len() as f64);
        // Training records through `fit` per second, over all the run's fits.
        out.metric(
            "ingest_rec_per_s",
            (N_TRAIN * fit_seconds.len()) as f64 / fit_seconds.iter().sum::<f64>(),
        );
        out.metric("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

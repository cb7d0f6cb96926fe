//! `serve_classify`: a closed loop of `POST /classify` on two keep-alive
//! connections against a daemon started with the `udm serve` defaults,
//! serving a classifier fitted on the breast-cancer stand-in (d=9,
//! 2 classes, f=1). About 250 roll-up candidates per point make the
//! roll-up dominant; the model is static, so ingest does no work while
//! the loop runs.

use crate::client::{ConnState, Load};
use crate::daemon::{self, generate, SERVE_Q};
use crate::layers::{self, ratio, Delta};
use crate::offline;
use crate::stats::median;
use crate::{derive_seed, host_cores, peak_rss_mb, run_dir, Args, Outcome};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use udm_classify::{ClassifierConfig, DensityClassifier};
use udm_core::{ClassLabel, UncertainDataset};
use udm_data::fault::RawRecord;
use udm_data::UciDataset;
use udm_serve::{handlers, ClassifyRequest, ClassifyResponse, DensityRequest, Server};

/// Larger than the real dataset's 683 rows.
const N_TRAIN: usize = 4_000;
const N_TEST: usize = 8_000;
/// Test points the traced run also sends through the batch queue.
const BATCH_REPLAY_POINTS: usize = 1_000;
/// Client connections: two, or fewer on a host with fewer cores.
const CONNS: usize = 2;

/// A served model and the seconds its set-up took.
struct SetUp {
    server: Server,
    model: Arc<DensityClassifier>,
    fit_s: f64,
    setup_s: f64,
}

/// Set-up: fit, daemon start, and seed ingest until a snapshot covers
/// every training record.
fn set_up(
    state_dir: &Path,
    train: &UncertainDataset,
    config: &ClassifierConfig,
    records: &[RawRecord],
) -> Result<SetUp, String> {
    let started = Instant::now();
    let (model, fit_s) = offline::timed_fit(train, config)?;
    let model = Arc::new(model);
    let server = daemon::start(
        state_dir,
        train.dim(),
        records.to_vec(),
        Some(Arc::clone(&model)),
    )?;
    daemon::wait_for_coverage(&server, N_TRAIN as u64)?;
    Ok(SetUp {
        server,
        model,
        fit_s,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let train = generate(
        UciDataset::BreastCancer,
        N_TRAIN,
        derive_seed(args.seed, 11),
    )?;
    let test = generate(UciDataset::BreastCancer, N_TEST, derive_seed(args.seed, 12))?;
    let config = offline::classifier_config(SERVE_Q);
    let records = daemon::records(&train);
    let dir = run_dir().join("serve_classify");

    // Untraced runs set up again between measured windows, on a daemon
    // of their own that is stopped straight after.
    let SetUp {
        server,
        model,
        fit_s,
        setup_s,
    } = set_up(&dir.join("daemon"), &train, &config, &records)?;
    let (mut fit_s, mut setup_s) = (vec![fit_s], vec![setup_s]);
    let snapshot = server.store().load().ok_or("no snapshot")?;
    let generation = snapshot.generation;
    let mut checks_passed = snapshot.model.total_points() == N_TRAIN as u64;

    // Expected answers: in-process `classify_scored` on the same model.
    let before_replay = udm_observe::Snapshot::capture();
    let mut expected: Vec<ClassLabel> = Vec::with_capacity(N_TEST);
    let mut fallbacks = 0usize;
    for p in test.points() {
        let (outcome, _) =
            layers::replay("bench.replay.classify_scored", || model.classify_scored(p))
                .map_err(|e| e.to_string())?;
        fallbacks += usize::from(outcome.used_fallback);
        expected.push(outcome.label);
    }
    let point_us = Delta::since(before_replay).span_mean_us("bench.replay.classify_scored");
    let bodies: Vec<Vec<u8>> = test
        .points()
        .iter()
        .map(|p| {
            serde_json::to_string(&ClassifyRequest {
                values: p.values().to_vec(),
                errors: Some(p.errors().to_vec()),
                backend: None,
            })
            .map(String::into_bytes)
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let truth: Vec<Option<ClassLabel>> = test.points().iter().map(|p| p.label()).collect();
    let correct = expected
        .iter()
        .zip(&truth)
        .filter(|(e, t)| Some(**e) == **t)
        .count();
    let answered: Vec<AtomicBool> = (0..N_TEST).map(|_| AtomicBool::new(false)).collect();

    let load = Load::new(server.addr(), CONNS.min(host_cores()), "/classify", &bodies);
    let check = |i: usize, body: &[u8], _: &mut ConnState| {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let resp: ClassifyResponse =
            serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
        let want = expected[i % N_TEST];
        if resp.label != want.id() || resp.generation != generation {
            return Err(format!(
                "point {}: label {} gen {}, in-process label {} gen {generation}",
                i % N_TEST,
                resp.label,
                resp.generation,
                want.id()
            ));
        }
        answered[i % N_TEST].store(true, Ordering::Relaxed);
        Ok(())
    };
    let measured = layers::measure(
        args.budget(),
        args.trace,
        |budget| {
            let started = Instant::now();
            load.run(|| started.elapsed() >= budget, check)
        },
        || {
            let again = set_up(&dir.join("setup"), &train, &config, &records)?;
            daemon::stop(again.server)?;
            fit_s.push(again.fit_s);
            setup_s.push(again.setup_s);
            Ok(())
        },
    )?;
    let mut out = Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        ..Outcome::default()
    };
    if let Some(delta) = &measured.delta {
        let ops = measured.ops();
        let rtt_us = measured.mean_us();
        offline::classify_counters(&mut out, delta, ops);
        daemon::http_layers(&mut out, delta, rtt_us);
        out.metric("gen.trace_overhead", measured.trace_overhead());

        let store = Arc::clone(server.store());
        let (handler_us, codec_us) = daemon::handler_replay(&bodies, |req: &ClassifyRequest| {
            handlers::handle_classify(&store, req)
        })?;
        // `/classify` bypasses the batch queue; replay `/density` queries
        // for the same points through it so its layer is measured too.
        let densities: Vec<DensityRequest> = test
            .points()
            .iter()
            .take(BATCH_REPLAY_POINTS)
            .map(|p| DensityRequest {
                values: p.values().to_vec(),
                errors: Some(p.errors().to_vec()),
                dims: None,
                backend: None,
            })
            .collect();
        out.metric(
            "serve.batch_size_mean",
            daemon::batch_replay(&store, &densities)?,
        );
        let (kdes, assign_s) = offline::fit_kdes(&train, &config)?;
        let build_us = offline::column_build_us(&kdes, &test, config.convolve_query_error)?;
        let builds_per_op = ratio(delta.counter("udm_microcluster_column_builds_total"), ops);
        let replay = daemon::replay_ingest(&dir.join("replay"), train.dim(), records.clone())?;
        checks_passed &= replay.fingerprint == snapshot.model_fingerprint();
        out.metric("classify.point_us", point_us);
        out.metric("classify.fallback_share", fallbacks as f64 / N_TEST as f64);
        out.metric("serve.handler_us", handler_us);
        out.metric("serve.codec_us", codec_us);
        out.metric("microcluster.column_build_us", build_us);
        out.metric(
            "microcluster.column_build_share",
            ratio(builds_per_op * build_us, rtt_us),
        );
        for _ in 1..offline::TRACED_FITS {
            fit_s.push(offline::timed_fit(&train, &config)?.1);
        }
        out.metric("classify.fit_s", median(&fit_s));
        out.metric(
            "microcluster.assign_us_per_rec",
            assign_s * 1e6 / N_TRAIN as f64,
        );
        out.metric(
            "classify.par2_speedup",
            offline::par2_speedup(&model, &test)?,
        );
        replay.counts.report(&mut out);
        daemon::ingest_layers(&mut out, &replay);
    } else {
        // Every answer matched `expected`, so once each test point has
        // been answered this is the accuracy of the served labels.
        if !answered.iter().all(|a| a.load(Ordering::Relaxed)) {
            return Err("no whole pass over the test set completed".into());
        }
        let (p50, p99) = measured.plain.p50_p99()?;
        out.metric("setup_s", median(&setup_s));
        out.metric("ops_per_s", measured.plain.ops_per_s());
        out.metric("p50_us", p50);
        out.metric("p99_us", p99);
        out.metric("accuracy", correct as f64 / N_TEST as f64);
        // Training records through `fit` per second, over all the run's
        // fits, as on `offline_cover`. The daemon's own ingest of them
        // is inside `setup_s`; timed alone it is mostly fsync'd checkpoint
        // saves, so it moves with the disk, not with the program.
        out.metric(
            "ingest_rec_per_s",
            (N_TRAIN * fit_s.len()) as f64 / fit_s.iter().sum::<f64>(),
        );
        out.metric("peak_rss_mb", peak_rss_mb()?);
    }
    daemon::stop(server)?;
    out.checks_passed = checks_passed;
    Ok(out)
}

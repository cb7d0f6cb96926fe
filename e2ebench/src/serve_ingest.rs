//! `serve_ingest`: a cold daemon with the `udm serve` defaults and no
//! classifier ingests a long adult stand-in stream (d=6, f=1) while one
//! keep-alive connection sends closed-loop `POST /density` reads. The
//! write side is ingest, checkpoint and publish; the read side is HTTP
//! and JSON around a single kernel-column build, with no roll-up.
//!
//! A run repeats cycles of: start a cold daemon, wait until a snapshot
//! covers the seed prefix (set-up), read while the rest of the stream
//! is ingested, check the final model fingerprint, stop the daemon.

use crate::client::{Client, ConnState, Load, LoadResult};
use crate::daemon::{self, generate, IngestCounts, SERVE_Q};
use crate::layers::{self, ratio, Delta, Measured};
use crate::offline::column_build_us;
use crate::stats::median;
use crate::{derive_seed, peak_rss_mb, run_dir, Args, Outcome};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use udm_data::UciDataset;
use udm_microcluster::{MaintainerConfig, MicroClusterMaintainer};
use udm_serve::{handlers, DensityRequest, DensityResponse, HealthzResponse};

/// Records per daemon lifetime.
const N_STREAM: usize = 40_000;
/// Set-up ends once a snapshot covers this prefix of the stream.
const SEED_RECORDS: usize = 4_096;
const N_QUERIES: usize = 1_000;
/// Daemon lifetimes per run, at least.
const MIN_CYCLES: usize = 3;

/// What one daemon lifetime measured.
struct Cycle {
    setup_s: f64,
    ingest_s: f64,
    reads: LoadResult,
    fingerprint_ok: bool,
}

fn cycle(
    k: usize,
    stream: &udm_core::UncertainDataset,
    records: &[udm_data::fault::RawRecord],
    bodies: &[Vec<u8>],
    want_fingerprint: &str,
) -> Result<Cycle, String> {
    let state = run_dir().join(format!("serve_ingest-{k}"));
    let records = records.to_vec();
    let started = Instant::now();
    let server = daemon::start(&state, stream.dim(), records, None)?;
    daemon::wait_for_coverage(&server, SEED_RECORDS as u64)?;
    let setup_s = started.elapsed().as_secs_f64();

    let ingested = AtomicBool::new(false);
    let load = Load::new(server.addr(), 1, "/density", bodies);
    let check = |_: usize, body: &[u8], conn: &mut ConnState| {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let resp: DensityResponse =
            serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
        if !(resp.density.is_finite() && resp.density >= 0.0) {
            return Err(format!(
                "density {} is not finite and non-negative",
                resp.density
            ));
        }
        if resp.generation < conn.last_generation {
            return Err(format!(
                "generation went back from {} to {}",
                conn.last_generation, resp.generation
            ));
        }
        conn.last_generation = resp.generation;
        Ok(())
    };
    let (reads, ingest_s) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| load.run(|| ingested.load(Ordering::SeqCst), check));
        let waited = daemon::wait_for_coverage(&server, N_STREAM as u64)
            .map(|()| started.elapsed().as_secs_f64());
        ingested.store(true, Ordering::SeqCst);
        let reads = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (reads, waited)
    });
    let (reads, ingest_s) = (reads?, ingest_s?);

    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let (status, body) = client
        .call("GET", "/healthz", b"")
        .map_err(|e| e.to_string())?;
    let health: HealthzResponse =
        serde_json::from_str(std::str::from_utf8(body).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    drop(client);
    daemon::stop(server)?;
    let _ = std::fs::remove_dir_all(&state);
    let fingerprint_ok = status == 200
        && health.model_fingerprint == want_fingerprint
        && health.points == N_STREAM as u64;
    if !fingerprint_ok {
        eprintln!(
            "e2ebench: /healthz {status} fingerprint {} points {}, replay {want_fingerprint} {N_STREAM}",
            health.model_fingerprint, health.points
        );
    }
    Ok(Cycle {
        setup_s,
        ingest_s,
        reads,
        fingerprint_ok,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let stream = generate(UciDataset::Adult, N_STREAM, derive_seed(args.seed, 21))?;
    let queries = generate(UciDataset::Adult, N_QUERIES, derive_seed(args.seed, 22))?;
    let records = daemon::records(&stream);
    let bodies: Vec<Vec<u8>> = queries
        .points()
        .iter()
        .map(|p| {
            serde_json::to_string(&DensityRequest {
                values: p.values().to_vec(),
                errors: Some(p.errors().to_vec()),
                dims: None,
                backend: None,
            })
            .map(String::into_bytes)
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    // The reference every daemon lifetime must reproduce.
    let replay = daemon::replay_ingest(&run_dir().join("replay"), stream.dim(), records.clone())?;
    let want_fingerprint = format!("{:016x}", replay.fingerprint);

    // Traced runs trace every other daemon lifetime, so traced and
    // untraced reads see the same drift in machine speed.
    let started = Instant::now();
    let before = args.trace.then(udm_observe::Snapshot::capture);
    let mut measured = Measured::default();
    let (mut setup_s, mut ingest_s) = (Vec::new(), Vec::new());
    let mut checks_passed = true;
    while setup_s.len() < MIN_CYCLES || started.elapsed() < args.budget() {
        let on = args.trace && setup_s.len() % 2 == 1;
        layers::set_tracing(on);
        let c = cycle(setup_s.len(), &stream, &records, &bodies, &want_fingerprint);
        layers::set_tracing(false);
        let c = c?;
        setup_s.push(c.setup_s);
        ingest_s.push(c.ingest_s);
        checks_passed &= c.fingerprint_ok;
        measured.add(c.reads, on);
    }
    measured.delta = before.map(Delta::since);

    let mut out = Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        checks_passed,
        ..Outcome::default()
    };

    if let Some(delta) = &measured.delta {
        let ops = measured.ops();
        let builds_per_op = ratio(delta.counter("udm_microcluster_column_builds_total"), ops);
        out.metric("microcluster.column_builds_per_op", builds_per_op);
        out.metric(
            "microcluster.kernel_evals_per_op",
            ratio(delta.counter("udm_microcluster_kernel_evals_total"), ops),
        );
        daemon::http_layers(&mut out, delta, measured.mean_us());
        out.metric(
            "serve.batch_size_mean",
            delta.histogram_mean("udm_serve_batch_size"),
        );
        out.metric("gen.trace_overhead", measured.trace_overhead());
        IngestCounts::from_delta(delta, (setup_s.len() * N_STREAM) as f64).report(&mut out);
        daemon::ingest_layers(&mut out, &replay);

        let (handler_us, codec_us) = daemon::handler_replay(&bodies, |req: &DensityRequest| {
            handlers::handle_density(&replay.store, None, req)
        })?;
        let snapshot = replay.store.load().ok_or("replay published nothing")?;
        let kde = snapshot.kde.as_ref().ok_or("replay model has no KDE")?;
        let build_us = column_build_us(std::slice::from_ref(kde), &queries, true)?;
        let t = Instant::now();
        MicroClusterMaintainer::from_dataset(&stream, MaintainerConfig::new(SERVE_Q))
            .map_err(|e| e.to_string())?;
        let assign_us_per_rec = t.elapsed().as_secs_f64() * 1e6 / N_STREAM as f64;
        out.metric("serve.handler_us", handler_us);
        out.metric("serve.codec_us", codec_us);
        out.metric("microcluster.column_build_us", build_us);
        out.metric(
            "microcluster.column_build_share",
            ratio(builds_per_op * build_us, measured.mean_us()),
        );
        out.metric("microcluster.assign_us_per_rec", assign_us_per_rec);
    } else {
        // Each daemon lifetime's reads are one window.
        let (p50, p99) = measured.plain.p50_p99()?;
        out.metric("setup_s", median(&setup_s));
        out.metric("ops_per_s", measured.plain.ops_per_s());
        out.metric("p50_us", p50);
        out.metric("p99_us", p99);
        // No classifier here: the share of reads whose answer passed.
        out.metric(
            "accuracy",
            (out.attempted - out.failed) as f64 / out.attempted as f64,
        );
        // Records from daemon start to a covering snapshot, in the median
        // daemon lifetime.
        out.metric("ingest_rec_per_s", N_STREAM as f64 / median(&ingest_s));
        out.metric("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

//! The serving daemon as `udm serve` starts it, plus the inputs and the
//! in-process ingest replay the serving workloads share.

use crate::layers::{self, ratio, Delta};
use crate::Outcome;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use udm_classify::DensityClassifier;
use udm_core::UncertainDataset;
use udm_data::fault::RawRecord;
use udm_data::{ErrorModel, UciDataset};
use udm_microcluster::shard::ShardPlan;
use udm_microcluster::MaintainerConfig;
use udm_serve::{
    handlers, BatchConfig, BatchQueue, DensityRequest, IngestPump, PumpConfig, ServeConfig,
    ServeSeed, Server, SnapshotStore,
};

/// `udm serve --q` default.
pub const SERVE_Q: usize = 60;

/// `udm generate <dataset> --n <n> --f 1 --seed <seed>`.
pub fn generate(dataset: UciDataset, n: usize, seed: u64) -> Result<UncertainDataset, String> {
    let clean = dataset.generate(n, seed);
    ErrorModel::paper(1.0)
        .apply(&clean, seed ^ 0x9E37_79B9)
        .map_err(|e| e.to_string())
}

/// The record stream `udm serve` feeds its pump from a training file.
pub fn records(data: &UncertainDataset) -> Vec<RawRecord> {
    data.points()
        .iter()
        .enumerate()
        .map(|(i, p)| RawRecord::from_point(i as u64, &p.clone().with_timestamp(i as u64)))
        .collect()
}

/// `udm serve` defaults (q=60, 2 shards, checkpoint and refresh every
/// 64 records, batching on, exact backend) over `state_dir`.
pub fn serve_config(state_dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(state_dir.to_path_buf());
    config.max_clusters = SERVE_Q;
    config
}

/// Starts a cold daemon on an ephemeral port.
pub fn start(
    state_dir: &Path,
    dim: usize,
    records: Vec<RawRecord>,
    classifier: Option<Arc<DensityClassifier>>,
) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    std::fs::create_dir_all(state_dir).map_err(|e| e.to_string())?;
    Server::start(
        &serve_config(state_dir),
        ServeSeed {
            dim,
            records,
            classifier,
        },
    )
    .map_err(|e| format!("daemon start: {e}"))
}

/// A daemon that has not covered its records after this long has failed.
const READY: Duration = Duration::from_secs(60);

/// Polls the daemon's snapshot store until a snapshot with a density
/// model covers at least `records` offered records.
pub fn wait_for_coverage(server: &Server, records: u64) -> Result<(), String> {
    let deadline = Instant::now() + READY;
    loop {
        if let Some(snap) = server.store().load() {
            if snap.ingested >= records && snap.kde.is_some() {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "no snapshot covered {records} records within {READY:?}"
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Stops a daemon, flushing its final checkpoints.
pub fn stop(server: Server) -> Result<(), String> {
    server
        .shutdown_graceful()
        .map(|_| ())
        .map_err(|e| format!("daemon shutdown: {e}"))
}

/// What replaying a stream through a private `IngestPump` measured.
pub struct Replay {
    pub fingerprint: u64,
    pub store: SnapshotStore,
    pub step_s: f64,
    pub publish_s: f64,
    pub publishes: f64,
    pub counts: IngestCounts,
}

/// Ingest-layer counts the program exports, over some window.
pub struct IngestCounts {
    pub records: f64,
    pub checkpoint_saves: f64,
    pub checkpoint_save_s: f64,
    pub arrivals: f64,
    pub accepted: f64,
}

impl IngestCounts {
    pub fn from_delta(delta: &Delta, records: f64) -> IngestCounts {
        let (checkpoint_saves, checkpoint_save_s) = delta.histogram("udm_checkpoint_save_seconds");
        IngestCounts {
            records,
            checkpoint_saves,
            checkpoint_save_s,
            arrivals: delta.counter("udm_ingest_arrivals_total"),
            accepted: delta.counter("udm_ingest_accepted_total"),
        }
    }

    /// Checkpoint and admission metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.metric(
            "microcluster.checkpoint_save_ms",
            ratio(self.checkpoint_save_s * 1e3, self.checkpoint_saves),
        );
        out.metric(
            "microcluster.checkpoints_per_krec",
            ratio(self.checkpoint_saves * 1e3, self.records),
        );
        out.metric(
            "microcluster.ingest_accept_share",
            ratio(self.accepted, self.arrivals),
        );
    }
}

/// Replays `records` through an `IngestPump` configured exactly like the
/// daemon's, publishing into a private store: the reference fingerprint
/// for the daemon and the per-layer timing of `step`/`publish`.
pub fn replay_ingest(
    state_dir: &Path,
    dim: usize,
    records: Vec<RawRecord>,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    std::fs::create_dir_all(state_dir).map_err(|e| e.to_string())?;
    let config = serve_config(state_dir);
    let plan = ShardPlan {
        checkpoint_every: config.checkpoint_every,
        staleness_budget: config.staleness_budget,
        ..ShardPlan::new(config.shards, state_dir.to_path_buf())
    };
    let n = records.len() as f64;
    let mut pump = IngestPump::new(
        dim,
        MaintainerConfig::new(config.max_clusters),
        config.policy.clone(),
        plan,
        records,
        None,
        config.kde,
        PumpConfig {
            refresh_every: config.refresh_every,
            backend: config.backend,
            ..PumpConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let store = SnapshotStore::new();
    let before = udm_observe::Snapshot::capture();
    pump.publish(&store).map_err(|e| e.to_string())?;
    while layers::replay("bench.replay.step", || pump.step()).map_err(|e| e.to_string())? {
        layers::replay("bench.replay.publish", || pump.publish(&store))
            .map_err(|e| e.to_string())?;
    }
    let delta = Delta::since(before);
    let (_, step_s) = delta.span("bench.replay.step");
    let (publishes, publish_s) = delta.span("bench.replay.publish");
    let fingerprint = store
        .load()
        .ok_or("replay published nothing")?
        .model_fingerprint();
    let _ = std::fs::remove_dir_all(state_dir);
    Ok(Replay {
        fingerprint,
        store,
        step_s,
        publish_s,
        publishes,
        counts: IngestCounts::from_delta(&delta, n),
    })
}

/// Ingest-layer metrics from a replay: where `step`/`publish` time went.
pub fn ingest_layers(out: &mut Outcome, replay: &Replay) {
    let ingest_s = replay.step_s + replay.publish_s;
    out.metric(
        "microcluster.checkpoint_share",
        ratio(replay.counts.checkpoint_save_s, ingest_s),
    );
    out.metric(
        "microcluster.shard_run_us_per_rec",
        ratio(replay.step_s * 1e6, replay.counts.records),
    );
    out.metric(
        "serve.publish_ms",
        ratio(replay.publish_s * 1e3, replay.publishes),
    );
    out.metric("serve.publishes", replay.publishes);
}

/// HTTP-layer metrics over a traced closed loop: the daemon's own
/// request timer, the client's own work, and what is left of the round
/// trip (sockets, framing, scheduling).
pub fn http_layers(out: &mut Outcome, delta: &Delta, rtt_us: f64) {
    let daemon_us = delta.histogram_mean("udm_serve_request_seconds") * 1e6;
    out.metric("serve.daemon_request_us", daemon_us);
    out.metric("serve.transport_us", rtt_us - daemon_us);
    out.metric("gen.client_us", delta.span_mean_us("bench.client"));
}

/// Replays `/density` requests through `handlers::handle_density` with a
/// private `BatchQueue` and worker over `store`, as the daemon answers
/// them: the mean batch size the queue formed.
pub fn batch_replay(store: &SnapshotStore, requests: &[DensityRequest]) -> Result<f64, String> {
    let queue = BatchQueue::new(BatchConfig::default());
    let before = udm_observe::Snapshot::capture();
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| queue.run_worker(store));
        let answered = requests.iter().try_for_each(|req| {
            handlers::handle_density(store, Some(&queue), req)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        queue.shutdown();
        worker
            .join()
            .map_err(|_| "batch worker panicked".to_string())?;
        answered
    })?;
    Ok(Delta::since(before).histogram_mean("udm_serve_batch_size"))
}

/// Replays request decode, handler and response encode in process over
/// `bodies`: `(handler_us, codec_us)` means per request.
pub fn handler_replay<Req, Resp>(
    bodies: &[Vec<u8>],
    handler: impl Fn(&Req) -> udm_core::Result<Resp>,
) -> Result<(f64, f64), String>
where
    Req: serde::Deserialize,
    Resp: serde::Serialize,
{
    let before = udm_observe::Snapshot::capture();
    for body in bodies {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let req: Req = layers::replay("bench.replay.decode", || serde_json::from_str(text))
            .map_err(|e| e.to_string())?;
        let resp =
            layers::replay("bench.replay.handler", || handler(&req)).map_err(|e| e.to_string())?;
        layers::replay("bench.replay.encode", || serde_json::to_string(&resp))
            .map_err(|e| e.to_string())?;
    }
    let delta = Delta::since(before);
    let (_, decode_s) = delta.span("bench.replay.decode");
    let (_, encode_s) = delta.span("bench.replay.encode");
    Ok((
        delta.span_mean_us("bench.replay.handler"),
        (decode_s + encode_s) * 1e6 / bodies.len() as f64,
    ))
}

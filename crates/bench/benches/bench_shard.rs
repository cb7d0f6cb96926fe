//! Sharded fault-domain ingest, measured over the shard axis.
//!
//! Three questions about the `udm_microcluster::shard` subsystem, one
//! binary:
//!
//! * **Supervised ingest scaling** — a fixed faulty stream pushed
//!   through a [`ShardSupervisor`] at S ∈ {1, 2, 4, 8} fault domains
//!   (checkpointing included: this is the real serving path, not a
//!   stripped-down inner loop).
//! * **Partial-model merge latency** — merging S pre-built per-shard
//!   partials into one served model, the cost a degraded `serve()` call
//!   pays on top of the surviving workers.
//! * **Warm-restart recovery** — kill one shard mid-ingest and time the
//!   full drill including checkpoint recovery and partition-tail replay,
//!   against the no-fault run at the same S.
//!
//! Medians and derived ratios go to `results/BENCH_shard_ingest.json`.
//! The report records `host_cores`: shard workers are cooperatively
//! scheduled on one thread (the supervisor round-robins the partition),
//! so ingest time is expected to be roughly flat in S on any host — the
//! win measured here is isolation overhead staying near zero, not
//! parallel speedup. A threaded worker pool is the natural multi-core
//! extension; `criteria_notes` annotates that axis as deferred on a
//! 1-core container rather than papering over it.
//!
//! `UDM_BENCH_QUICK=1` shrinks the stream and sampling for CI smoke.

use criterion::{black_box, Criterion};
use std::path::PathBuf;
use std::time::Duration;
use udm_bench::{quick_mode, write_results_file};
use udm_data::fault::{FaultPlan, FaultyStream, RawRecord};
use udm_data::{ErrorModel, GaussianClassSpec, MixtureGenerator};
use udm_microcluster::{
    IngestPolicy, KillPlan, MaintainerConfig, MicroClusterModel, ResilientIngestor, ShardPlan,
    ShardSupervisor,
};

const SHARD_AXIS: [usize; 4] = [1, 2, 4, 8];

fn stream_len() -> usize {
    if quick_mode() {
        400
    } else {
        4_000
    }
}

/// A corrupted two-class stream: the same shape the chaos drills use,
/// so shard workers exercise the full repair/quarantine policy path.
fn faulty_records(n: usize, seed: u64) -> Vec<RawRecord> {
    let d = 4;
    let g = MixtureGenerator::new(
        d,
        vec![
            GaussianClassSpec::spherical(vec![0.0; d], 1.0, 1.0),
            GaussianClassSpec::spherical(vec![3.0; d], 1.0, 1.0),
        ],
    )
    .unwrap();
    let data = ErrorModel::paper(1.0)
        .apply(&g.generate(n, seed), seed + 1)
        .unwrap();
    let (records, _) = FaultyStream::new(&data, FaultPlan::uniform(0.1), seed + 2)
        .unwrap()
        .records();
    records
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("udm_bench_shard_{}", std::process::id()))
        .join(tag)
}

fn supervisor(tag: &str, shards: usize) -> ShardSupervisor {
    let mut plan = ShardPlan::new(shards, bench_dir(tag));
    plan.checkpoint_every = 128;
    plan.backoff_base_ms = 0;
    ShardSupervisor::new(4, MaintainerConfig::new(40), IngestPolicy::default(), plan).unwrap()
}

/// Per-shard partials built outside the timed region, for the merge
/// latency benchmark.
fn partials(records: &[RawRecord], shards: usize) -> Vec<MicroClusterModel> {
    (0..shards)
        .map(|s| {
            let mut ing =
                ResilientIngestor::new(4, MaintainerConfig::new(40), IngestPolicy::default())
                    .unwrap();
            for r in records.iter().filter(|r| r.seq % shards as u64 == s as u64) {
                ing.observe(r).unwrap();
            }
            MicroClusterModel::from_maintainer(ing.maintainer())
        })
        .collect()
}

fn bench_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_ingest");
    if quick_mode() {
        group.measurement_time(Duration::from_millis(80));
        group.sample_size(3);
    } else {
        group.measurement_time(Duration::from_millis(400));
        group.sample_size(5);
    }

    let records = faulty_records(stream_len(), 7);

    for &s in &SHARD_AXIS {
        // Full supervised run: partition, per-shard policy engines,
        // versioned checkpoints, canonical merge at the end.
        group.bench_function(format!("ingest_s{s}"), |b| {
            b.iter(|| {
                let mut sup = supervisor(&format!("ingest_s{s}"), s);
                sup.run(black_box(&records), &KillPlan::none()).unwrap();
                sup.finish().unwrap().0.total_points()
            })
        });

        // Merge-only latency over pre-built partials.
        let parts = partials(&records, s);
        group.bench_function(format!("merge_s{s}"), |b| {
            b.iter(|| {
                let mut merged = MicroClusterModel::empty(4);
                for p in black_box(&parts) {
                    merged.merge(p).unwrap();
                }
                merged.total_points()
            })
        });

        // Kill + warm-restart drill (needs a shard to kill and a live
        // majority, so only meaningful from S = 2 up).
        if s >= 2 {
            let offset = (records.len() / s / 2 + 3) as u64;
            group.bench_function(format!("ingest_killed_s{s}"), |b| {
                b.iter(|| {
                    let mut sup = supervisor(&format!("killed_s{s}"), s);
                    sup.run(black_box(&records), &KillPlan::none().kill_at(1, offset))
                        .unwrap();
                    sup.finish().unwrap().0.total_points()
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
struct ShardScaling {
    shards: usize,
    ingest_seconds: f64,
    merge_seconds: f64,
    /// `ingest_s1 / ingest_sS`: isolation overhead of S fault domains
    /// relative to the unsharded pipeline (~1.0 = free isolation; the
    /// workers are cooperatively scheduled, so > 1.0 speedups are not
    /// expected on any host — see `criteria_notes`).
    s1_over_ingest: f64,
    /// `ingest_killed_sS / ingest_sS`: the price of one mid-stream kill
    /// plus warm restart and tail replay (absent at S = 1).
    killed_over_clean: Option<f64>,
}

#[derive(serde::Serialize)]
struct Report {
    host_cores: usize,
    quick_mode: bool,
    stream_len: usize,
    shard_axis: Vec<usize>,
    entries: Vec<BenchEntry>,
    scaling: Vec<ShardScaling>,
    criteria_notes: Vec<String>,
}

fn dump_json(c: &Criterion) {
    let seconds = |name: &str| -> f64 {
        c.results
            .iter()
            .find(|(n, _)| n == &format!("shard_ingest/{name}"))
            .map(|(_, t)| t.as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    let s1 = seconds("ingest_s1");
    let scaling: Vec<ShardScaling> = SHARD_AXIS
        .iter()
        .map(|&s| {
            let ingest = seconds(&format!("ingest_s{s}"));
            ShardScaling {
                shards: s,
                ingest_seconds: ingest,
                merge_seconds: seconds(&format!("merge_s{s}")),
                s1_over_ingest: s1 / ingest,
                killed_over_clean: (s >= 2)
                    .then(|| seconds(&format!("ingest_killed_s{s}")) / ingest),
            }
        })
        .collect();

    let mut criteria_notes = vec![
        "shard workers are cooperatively scheduled on the supervisor thread: the \
         shard axis measures isolation overhead (s1_over_ingest ~= 1.0 is the \
         target), not parallel speedup."
            .to_string(),
        "ingest_sS includes per-shard checkpointing every 128 records; merge_sS \
         is the canonical-order partial merge a degraded serve() pays."
            .to_string(),
    ];
    if host_cores < 4 {
        criteria_notes.push(format!(
            "host has {host_cores} core(s): a threaded per-shard worker pool (the \
             multi-core extension of this axis) is deferred; rerun on a multi-core \
             host to populate a wall-clock speedup column."
        ));
    }

    let report = Report {
        host_cores,
        quick_mode: quick_mode(),
        stream_len: stream_len(),
        shard_axis: SHARD_AXIS.to_vec(),
        entries: c
            .results
            .iter()
            .map(|(name, t)| BenchEntry {
                name: name.clone(),
                median_seconds: t.as_secs_f64(),
            })
            .collect(),
        scaling,
        criteria_notes,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    let file = write_results_file("BENCH_shard_ingest.json", &json)
        .expect("write BENCH_shard_ingest.json");
    println!("wrote {}", file.display());
    for s in &report.scaling {
        println!(
            "S={}: ingest {:.4}s, merge {:.2e}s, s1/ingest {:.2}x{}",
            s.shards,
            s.ingest_seconds,
            s.merge_seconds,
            s.s1_over_ingest,
            s.killed_over_clean
                .map(|r| format!(", killed/clean {r:.2}x"))
                .unwrap_or_default()
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_shard(&mut c);
    c.final_summary();
    dump_json(&c);
    std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("udm_bench_shard_{}", std::process::id())),
    )
    .ok();
}

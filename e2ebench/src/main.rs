//! End-to-end benchmark of the `udm` workspace.
//!
//! One binary runs one workload per invocation through the crates'
//! public APIs, checks every answer, and prints one JSON object as the
//! last line of standard output:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload offline_cover --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics instead (see `README.md` for the layer map). All
//! inputs are generated from `--seed`; the program only ever sees the
//! generated data.

mod client;
mod daemon;
mod layers;
mod offline;
mod serve_classify;
mod serve_ingest;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists
/// them. Every workload reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("accuracy", "fraction"),
    ("ingest_rec_per_s", "rec/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists
/// them. A layer a workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("microcluster.column_build_us", "us"),
    ("microcluster.column_builds_per_op", "count"),
    ("microcluster.kernel_evals_per_op", "count"),
    ("microcluster.column_build_share", "fraction"),
    ("classify.point_us", "us"),
    ("classify.rollup_candidates_per_op", "count"),
    ("classify.rollup_pruned_per_op", "count"),
    ("classify.column_cache_hit_ratio", "fraction"),
    ("classify.fallback_share", "fraction"),
    ("serve.handler_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.daemon_request_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("gen.client_us", "us"),
    ("microcluster.checkpoint_save_ms", "ms"),
    ("microcluster.checkpoints_per_krec", "count"),
    ("microcluster.checkpoint_share", "fraction"),
    ("microcluster.shard_run_us_per_rec", "us"),
    ("microcluster.ingest_accept_share", "fraction"),
    ("serve.publish_ms", "ms"),
    ("serve.publishes", "count"),
    ("classify.fit_s", "s"),
    ("microcluster.assign_us_per_rec", "us"),
    ("classify.par2_speedup", "ratio"),
    ("gen.trace_overhead", "ratio"),
];

/// What a workload hands back: op counts, the verdict of its answer
/// checks, and the metrics of its run (end-to-end or per-layer).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks beyond per-op answers (fingerprints, pass
    /// determinism, in-process agreement).
    pub checks_passed: bool,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Deterministic sub-seed `k` of the workload seed (splitmix64).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where daemon state lives: under `.bench_runs` in the working directory.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_runs").join(format!("run-{}", std::process::id()))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "offline_cover" => offline::run(args),
        "serve_classify" => serve_classify::run(args),
        "serve_ingest" => serve_ingest::run(args),
        other => Err(format!(
            "unknown workload {other:?} (offline_cover, serve_classify, serve_ingest)"
        )),
    }
}

/// The result line: every metric of `table`, in order.
fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(name) = outcome
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {name} is not in the table"));
    }
    let mut out = String::new();
    let correct = outcome.checks_passed && outcome.failed == 0;
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    )
    .map_err(|e| e.to_string())?;
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips,
        // so every measured digit survives.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .map_err(|e| e.to_string())?;
    }
    out.push_str("}}");
    Ok(out)
}

/// Writes the run manifest (arguments, seed, `git describe`, host
/// cores, wall/CPU time and the final metric snapshot).
fn write_manifest(argv: &[String], args: &Args, started: Instant) -> Result<(), String> {
    let dir = PathBuf::from(".bench_runs");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    // `git describe` must not search above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let config = format!(
        "workload={} seconds={} trace={} host_cores={}",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        host_cores()
    );
    let manifest = udm_observe::RunManifest::capture(argv, Some(args.seed), &config, started);
    let path = dir.join(format!(
        "manifest-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    manifest.write_to(&path).map_err(|e| e.to_string())?;
    eprintln!(
        "e2ebench: {config} git={} manifest={}",
        manifest.git_describe.as_deref().unwrap_or("none"),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(run_dir());
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Err(e) = write_manifest(&argv, &args, started) {
        eprintln!("e2ebench: manifest: {e}");
        return ExitCode::from(1);
    }
    match render(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

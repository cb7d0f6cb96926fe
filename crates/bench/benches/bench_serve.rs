//! Serving-daemon load generator: QPS and tail latency over real HTTP.
//!
//! Starts the in-process `udm-serve` daemon twice over the same fitted
//! model — once with the density batch queue enabled and once
//! evaluating inline — and drives both with concurrent keep-alive
//! clients hammering a small set of hot `/density` queries (the shape
//! batching exists for: concurrent duplicates whose `KernelColumns`
//! builds coalesce). Medians, p50/p95/p99 and the batched-over-unbatched
//! throughput ratio go to `results/BENCH_serve.json`.
//!
//! The report records `host_cores`: on a 1-core container the client
//! threads and the daemon interleave on one CPU, so absolute QPS is a
//! floor, not a capability claim — the batching ratio is the portable
//! number. `UDM_BENCH_QUICK=1` shrinks the request count for CI smoke.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use udm_bench::{quick_mode, write_results_file};
use udm_data::fault::RawRecord;
use udm_data::{GaussianClassSpec, MixtureGenerator};
use udm_serve::{BatchConfig, ServeConfig, ServeSeed, Server};

const CLIENT_THREADS: usize = 4;
const DIM: usize = 16;
const MAX_CLUSTERS: usize = 400;

fn requests_per_mode() -> usize {
    if quick_mode() {
        200
    } else {
        2_000
    }
}

fn stream_len() -> usize {
    if quick_mode() {
        800
    } else {
        2_000
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("udm_bench_serve_{}", std::process::id()))
        .join(tag)
}

fn seed_records(n: usize) -> Vec<RawRecord> {
    let g = MixtureGenerator::new(
        DIM,
        vec![
            GaussianClassSpec::spherical(vec![0.0; DIM], 1.0, 1.0),
            GaussianClassSpec::spherical(vec![3.0; DIM], 1.0, 1.0),
        ],
    )
    .unwrap();
    g.generate(n, 11)
        .points()
        .iter()
        .enumerate()
        .map(|(i, p)| RawRecord::from_point(i as u64, &p.clone().with_timestamp(i as u64)))
        .collect()
}

fn start_server(tag: &str, batched: bool) -> Server {
    let n = stream_len();
    let mut config = ServeConfig::new(bench_dir(tag));
    config.max_clusters = MAX_CLUSTERS;
    config.refresh_every = 400;
    config.batch = if batched {
        Some(BatchConfig::default())
    } else {
        None
    };
    let server = Server::start(
        &config,
        ServeSeed {
            dim: DIM,
            records: seed_records(n),
            classifier: None,
        },
    )
    .unwrap();
    // Serve only the fully-ingested model, so both modes answer from
    // bit-identical snapshots.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(snap) = server.store().load() {
            if snap.model.total_points() == n as u64 && snap.kde.is_some() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "ingest did not complete");
        std::thread::sleep(Duration::from_millis(10));
    }
    server
}

/// The hot query set every client cycles through: concurrent duplicates
/// are exactly what the batch queue dedups.
fn hot_queries() -> Vec<String> {
    [0.0_f64, 1.0, 2.0, 3.0]
        .iter()
        .map(|&base| {
            let values: Vec<String> = (0..DIM)
                .map(|j| format!("{}", base + j as f64 * 0.1))
                .collect();
            format!("{{\"values\": [{}]}}", values.join(", "))
        })
        .collect()
}

/// A keep-alive HTTP client on one raw TCP connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client { stream }
    }

    fn density(&mut self, body: &str) {
        let request = format!(
            "POST /density HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).unwrap();
        let response = self.read_response();
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "density request failed: {response}"
        );
    }

    /// Reads exactly one keep-alive response (headers + Content-Length
    /// body).
    fn read_response(&mut self) -> String {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        // Headers end at the first CRLFCRLF.
        while !buf.ends_with(b"\r\n\r\n") {
            let n = self.stream.read(&mut byte).unwrap();
            assert!(n > 0, "daemon closed mid-response");
            buf.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&buf).into_owned();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(String::from)
            })
            .and_then(|v| v.parse().ok())
            .expect("content-length header");
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body).unwrap();
        head + &String::from_utf8_lossy(&body)
    }
}

struct ModeResult {
    latencies: Vec<f64>,
    total_seconds: f64,
}

/// Drives `requests_per_mode()` POSTs split across `CLIENT_THREADS`
/// keep-alive connections, cycling the hot query set.
fn drive(server: &Server) -> ModeResult {
    let addr = server.addr();
    let queries = hot_queries();
    let per_thread = requests_per_mode() / CLIENT_THREADS;
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut latencies = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    // Every thread walks the hot set in the same order, so
                    // concurrent in-flight requests are mostly duplicates —
                    // the shape the batch queue dedups.
                    let body = &queries[i % queries.len()];
                    let sent = Instant::now();
                    client.density(body);
                    latencies.push(sent.elapsed().as_secs_f64());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let total_seconds = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ModeResult {
        latencies,
        total_seconds,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted.len() - 1) as f64).round();
    // The rank is bounded by the vector length by construction.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = rank as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[derive(serde::Serialize)]
struct ModeReport {
    mode: String,
    requests: usize,
    qps: f64,
    p50_seconds: f64,
    p95_seconds: f64,
    p99_seconds: f64,
    total_seconds: f64,
}

#[derive(serde::Serialize)]
struct Report {
    host_cores: usize,
    quick_mode: bool,
    requests_per_mode: usize,
    client_threads: usize,
    unique_queries: usize,
    modes: Vec<ModeReport>,
    batched_over_unbatched_qps: f64,
    criteria_notes: Vec<String>,
}

fn mode_report(mode: &str, result: &ModeResult) -> ModeReport {
    let requests = result.latencies.len();
    ModeReport {
        mode: mode.to_string(),
        requests,
        qps: requests as f64 / result.total_seconds,
        p50_seconds: percentile(&result.latencies, 0.50),
        p95_seconds: percentile(&result.latencies, 0.95),
        p99_seconds: percentile(&result.latencies, 0.99),
        total_seconds: result.total_seconds,
    }
}

fn main() {
    let mut modes = Vec::new();

    // Unbatched first, batched second; fresh daemon (and state dir) per
    // mode so queue state never bleeds across measurements.
    for (mode, batched) in [("unbatched", false), ("batched", true)] {
        let server = start_server(mode, batched);
        // One warmup pass per connection shape.
        let mut warm = Client::connect(server.addr());
        for q in hot_queries() {
            warm.density(&q);
        }
        let result = drive(&server);
        modes.push(mode_report(mode, &result));
        server.shutdown_graceful().unwrap();
    }

    let qps_of = |name: &str| {
        modes
            .iter()
            .find(|m| m.mode == name)
            .map_or(f64::NAN, |m| m.qps)
    };
    let ratio = qps_of("batched") / qps_of("unbatched");

    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let report = Report {
        host_cores,
        quick_mode: quick_mode(),
        requests_per_mode: requests_per_mode(),
        client_threads: CLIENT_THREADS,
        unique_queries: hot_queries().len(),
        modes,
        batched_over_unbatched_qps: ratio,
        criteria_notes: vec![
            format!(
                "{CLIENT_THREADS} keep-alive clients cycling {} hot /density queries \
                 against an in-process daemon; latency includes HTTP parse + JSON \
                 round-trip, not just kernel evaluation.",
                hot_queries().len()
            ),
            "batched_over_unbatched_qps >= 1.0 is the acceptance target: the batch \
             worker builds each unique KernelColumns once per drained batch, so \
             concurrent duplicate queries amortize the build."
                .to_string(),
            format!(
                "host has {host_cores} core(s); absolute QPS on a small container is a \
                 floor, the batching ratio is the portable number."
            ),
        ],
    };

    let json = serde_json::to_string(&report).expect("report serializes");
    let file = write_results_file("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote {}", file.display());
    for m in &report.modes {
        println!(
            "{}: {:.0} qps, p50 {:.2e}s, p95 {:.2e}s, p99 {:.2e}s over {} requests",
            m.mode, m.qps, m.p50_seconds, m.p95_seconds, m.p99_seconds, m.requests
        );
    }
    println!("batched/unbatched qps: {ratio:.2}x");

    std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("udm_bench_serve_{}", std::process::id())),
    )
    .ok();
}

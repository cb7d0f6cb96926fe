//! Density-backend scaling: exact vs coreset as the model grows.
//!
//! Fits micro-cluster KDEs at increasing pseudo-point budgets `q`,
//! resolves both [`udm_microcluster::DensityBackend`]s over each model,
//! and times the same query workload against them. The exact backend's
//! per-query cost is Θ(q); the coreset backend compresses the model to
//! a certified-L∞ subset, so its per-query cost should grow more slowly.
//! The report records `effective_rows` (rows the backend actually
//! touches per query) as the structural evidence behind the timings,
//! plus the observed max |approx − exact| against the coreset's
//! certified bound.
//!
//! Output: `results/BENCH_density_backends.json`. `UDM_BENCH_QUICK=1`
//! shrinks the budget axis and the query count for CI smoke.

use std::sync::Arc;
use std::time::Instant;
use udm_bench::{quick_mode, write_results_file};
use udm_core::{Subspace, UncertainPoint};
use udm_kde::KdeConfig;
use udm_microcluster::{CoresetKde, DensityBackend, MaintainerConfig, MicroClusterMaintainer};

const DIM: usize = 3;
const CORESET_EPS: f64 = 0.1;

fn budgets() -> Vec<usize> {
    if quick_mode() {
        vec![128, 512]
    } else {
        vec![256, 1024, 4096]
    }
}

fn queries_per_backend() -> usize {
    if quick_mode() {
        200
    } else {
        1_000
    }
}

/// xorshift64* — deterministic workload generation without reseeding
/// drift across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Modes the stream actually has — the axis of interest is `q`
/// over-provisioning this intrinsic structure, which is where a
/// coreset has redundancy to exploit.
const ANCHORS: usize = 48;

/// Fits a `q`-budget micro-cluster KDE over a stream drawn from
/// [`ANCHORS`] fixed sites with small jitter and per-dimension
/// measurement errors. As `q` grows past the site count, pseudo-points
/// become near-duplicates of their site-mates.
fn fitted(q: usize) -> udm_microcluster::MicroClusterKde {
    let mut rng = Rng(0xBEAC_0000);
    let anchors: Vec<Vec<f64>> = (0..ANCHORS)
        .map(|_| (0..DIM).map(|_| rng.range(0.0, 8.0)).collect())
        .collect();
    let mut rng = Rng(0xBEAC_0000 + q as u64);
    let mut maintainer = MicroClusterMaintainer::new(DIM, MaintainerConfig::new(q)).unwrap();
    let n = (q * 4).max(512);
    for t in 0..n {
        let site = &anchors[t % ANCHORS];
        // Jitter well under the fitted bandwidth: pseudo-points sharing
        // a site are then genuinely redundant kernels, the regime the
        // coreset's certified merge is built to exploit.
        let values: Vec<f64> = site.iter().map(|c| c + rng.range(-0.02, 0.02)).collect();
        let errors: Vec<f64> = (0..DIM).map(|_| rng.range(0.0, 0.05)).collect();
        let p = UncertainPoint::new(values, errors)
            .unwrap()
            .with_timestamp(t as u64);
        maintainer.insert(&p).unwrap();
    }
    udm_microcluster::MicroClusterKde::fit(maintainer.clusters(), KdeConfig::error_adjusted())
        .unwrap()
}

fn query_set(count: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng(0x9E37_79B9);
    (0..count)
        .map(|_| (0..DIM).map(|_| rng.range(-2.0, 8.0)).collect())
        .collect()
}

#[derive(serde::Serialize)]
struct BackendPoint {
    backend: String,
    spec: String,
    /// Rows the backend touches per query (pseudo-points for exact,
    /// compressed rows for coreset).
    effective_rows: usize,
    ns_per_query: f64,
    /// Largest |approx − exact| observed over the query set.
    max_abs_error: f64,
    /// The coreset's certified L∞ bound (0 for exact).
    certified_error: f64,
}

#[derive(serde::Serialize)]
struct BudgetPoint {
    q: usize,
    model_rows: usize,
    backends: Vec<BackendPoint>,
}

#[derive(serde::Serialize)]
struct Report {
    quick_mode: bool,
    dim: usize,
    queries_per_backend: usize,
    budgets: Vec<BudgetPoint>,
    /// ns/query growth factor from the smallest to the largest budget,
    /// per backend — the sublinear-scaling headline.
    growth: Vec<GrowthLine>,
    criteria_notes: Vec<String>,
}

#[derive(serde::Serialize)]
struct GrowthLine {
    backend: String,
    q_growth: f64,
    /// Wall-clock growth — advisory; shared hosts are noisy.
    ns_growth: f64,
    /// Deterministic: rows touched per query at the largest budget over
    /// the smallest.
    rows_growth: f64,
    /// Judged on `rows_growth` (the structural quantity), not timing.
    sublinear: bool,
}

fn time_backend(
    backend: &DensityBackend<'_>,
    queries: &[Vec<f64>],
    sub: Subspace,
) -> (f64, Vec<f64>) {
    // Warmup pass so lazily-built caches don't bill the first query.
    for x in queries.iter().take(8) {
        backend.density_subspace(x, None, sub).unwrap();
    }
    let started = Instant::now();
    let mut out = Vec::with_capacity(queries.len());
    for x in queries {
        out.push(backend.density_subspace(x, None, sub).unwrap());
    }
    let ns = started.elapsed().as_nanos() as f64 / queries.len() as f64;
    (ns, out)
}

fn main() {
    let queries = query_set(queries_per_backend());
    let sub = Subspace::full(DIM).unwrap();

    let mut budgets_out = Vec::new();
    for q in budgets() {
        let kde = fitted(q);
        let model_rows = kde.num_pseudo_points();
        let exact = DensityBackend::Exact(&kde);
        let coreset = Arc::new(CoresetKde::build(&kde, CORESET_EPS).unwrap());
        let (_, exact_values) = time_backend(&exact, &queries, sub);
        let mut backends = Vec::new();
        for (backend, spec, certified_error) in [
            (exact, "exact".to_string(), 0.0),
            (
                DensityBackend::Coreset(Arc::clone(&coreset)),
                format!("coreset:{CORESET_EPS}"),
                coreset.certified_error(),
            ),
        ] {
            let (ns_per_query, values) = time_backend(&backend, &queries, sub);
            let max_abs_error = values
                .iter()
                .zip(exact_values.iter())
                .map(|(a, e)| (a - e).abs())
                .fold(0.0_f64, f64::max);
            backends.push(BackendPoint {
                backend: backend.name().to_string(),
                spec,
                effective_rows: backend.kde().num_pseudo_points(),
                ns_per_query,
                max_abs_error,
                certified_error,
            });
        }
        println!(
            "q={q}: {}",
            backends
                .iter()
                .map(|b| format!(
                    "{} {:.0} ns/q ({} rows, max err {:.2e})",
                    b.backend, b.ns_per_query, b.effective_rows, b.max_abs_error
                ))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        budgets_out.push(BudgetPoint {
            q,
            model_rows,
            backends,
        });
    }

    let first = &budgets_out[0];
    let last = &budgets_out[budgets_out.len() - 1];
    let q_growth = last.q as f64 / first.q as f64;
    let growth: Vec<GrowthLine> = first
        .backends
        .iter()
        .zip(last.backends.iter())
        .map(|(a, b)| {
            let ns_growth = b.ns_per_query / a.ns_per_query;
            let rows_growth = b.effective_rows as f64 / a.effective_rows as f64;
            GrowthLine {
                backend: a.backend.clone(),
                q_growth,
                ns_growth,
                rows_growth,
                // Strictly below the budget growth = sublinear in q.
                sublinear: rows_growth < q_growth,
            }
        })
        .collect();

    let report = Report {
        quick_mode: quick_mode(),
        dim: DIM,
        queries_per_backend: queries_per_backend(),
        budgets: budgets_out,
        growth,
        criteria_notes: vec![
            format!(
                "exact touches every pseudo-point (Θ(q) per query); coreset compresses \
                 to a certified-L∞ row subset at eps={CORESET_EPS}."
            ),
            "acceptance: coreset rows_growth stays below q_growth \
             (sublinear=true) while exact's tracks it exactly; coreset \
             max_abs_error stays within certified_error."
                .to_string(),
            "single-threaded, in-process timings; ns_growth is advisory on \
             shared hosts — rows_growth is the deterministic, portable number."
                .to_string(),
        ],
    };

    let json = serde_json::to_string(&report).expect("report serializes");
    let file = write_results_file("BENCH_density_backends.json", &json)
        .expect("write BENCH_density_backends.json");
    println!("wrote {}", file.display());
    for g in &report.growth {
        println!(
            "{}: rows/query grew {:.2}x, ns/query {:.2}x, across a {:.0}x budget \
             growth (sublinear: {})",
            g.backend, g.rows_growth, g.ns_growth, g.q_growth, g.sublinear
        );
    }
}

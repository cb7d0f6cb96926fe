//! Order statistics over per-op latencies, taken per measured window.
//!
//! A run measures in windows of a second. Each window gives its own
//! median and 99th-percentile latency, and a run reports the median of
//! each over its windows: a burst of load from other tenants of a shared
//! host moves a few windows, not the run's figure. Throughputs are whole-
//! run rates (ops, or records, over the seconds they took), which move
//! smoothly with the share of the run the host slowed down.

/// A run with fewer whole windows than this cannot report.
const MIN_WINDOWS: usize = 3;
/// A window's 99th percentile needs ten samples beyond it.
const MIN_WINDOW_OPS: usize = 1_000;

/// Latencies of one window, in microseconds.
#[derive(Debug, Default)]
pub struct Samples {
    latencies_us: Vec<f64>,
    /// Wall seconds the window ran.
    pub seconds: f64,
}

impl Samples {
    pub fn record(&mut self, latency_us: f64) {
        self.latencies_us.push(latency_us);
    }

    /// Adds another client's latencies over the same window.
    pub fn absorb(&mut self, other: Samples) {
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Latency of one window.
#[derive(Debug, Clone, Copy)]
struct Window {
    p50_us: f64,
    p99_us: f64,
}

/// Op counts and per-window figures of a measured phase; holds no
/// per-op data, so its memory does not grow with the op count.
#[derive(Debug, Default)]
pub struct Tally {
    count: u64,
    sum_us: f64,
    seconds: f64,
    windows: Vec<Window>,
}

impl Tally {
    /// Folds in one window, dropping its latencies.
    pub fn add(&mut self, mut window: Samples) {
        let n = window.latencies_us.len();
        self.count += n as u64;
        self.sum_us += window.latencies_us.iter().sum::<f64>();
        self.seconds += window.seconds;
        if n < MIN_WINDOW_OPS {
            return;
        }
        window.latencies_us.sort_by(f64::total_cmp);
        self.windows.push(Window {
            p50_us: nearest_rank(&window.latencies_us, 0.50),
            p99_us: nearest_rank(&window.latencies_us, 0.99),
        });
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Completed ops over the measured wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.count as f64 / self.seconds
    }

    /// `(p50_us, p99_us)`: the median over windows of each window's
    /// median and 99th percentile.
    pub fn p50_p99(&self) -> Result<(f64, f64), String> {
        if self.windows.len() < MIN_WINDOWS {
            return Err(format!(
                "only {} windows of at least {MIN_WINDOW_OPS} ops measured; {MIN_WINDOWS} are needed",
                self.windows.len()
            ));
        }
        let over_windows =
            |f: fn(&Window) -> f64| median(&self.windows.iter().map(f).collect::<Vec<_>>());
        Ok((over_windows(|w| w.p50_us), over_windows(|w| w.p99_us)))
    }
}

/// Nearest-rank percentile `p` (0..=1) of `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a few whole-run values (set-up times, window figures).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

//! Per-layer attribution: the benchmark's own spans around calls into
//! each layer, and before/after deltas of the counters, histograms and
//! span profile the program already exports through `udm-observe`.
//!
//! Deltas only: the registry is never cleared. `Registry::clear()`
//! drops the registered metrics while the per-call-site `Lazy*` handles
//! inside the crates keep pointing at the dropped ones, so a metric
//! cleared once (e.g. `udm_microcluster_column_builds_total`) never
//! reappears in later snapshots.

use crate::client::LoadResult;
use crate::stats::Tally;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use udm_observe::{Snapshot, SpanGuard};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns the benchmark's own spans on or off. End-to-end measurements
/// run with them off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// Opens a benchmark span when tracing is on. Bind the result to a
/// named variable; the span closes when it drops.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    TRACING
        .load(Ordering::Relaxed)
        .then(|| SpanGuard::enter(name))
}

/// Runs `f` under an always-on benchmark span (replays only: they are
/// not part of any end-to-end measurement).
pub fn replay<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = SpanGuard::enter(name);
    f()
}

/// The difference between two registry captures.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn since(before: Snapshot) -> Delta {
        Delta {
            before,
            after: Snapshot::capture(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let read = |s: &Snapshot| {
            s.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        read(&self.after).saturating_sub(read(&self.before)) as f64
    }

    /// `(count, sum)` observed by histogram `name` between the captures.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |s: &Snapshot| {
            s.histograms
                .iter()
                .find(|h| h.name == name)
                .map_or((0, 0.0), |h| (h.count, h.sum))
        };
        let (c0, s0) = read(&self.before);
        let (c1, s1) = read(&self.after);
        (c1.saturating_sub(c0) as f64, s1 - s0)
    }

    /// Mean of histogram `name` between the captures (0 when empty).
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        ratio(sum, count)
    }

    /// `(calls, total seconds)` of span `path` between the captures.
    pub fn span(&self, path: &str) -> (f64, f64) {
        let read = |s: &Snapshot| {
            s.spans
                .iter()
                .find(|n| n.path == path)
                .map_or((0, 0.0), |n| (n.calls, n.total_seconds))
        };
        let (c0, t0) = read(&self.before);
        let (c1, t1) = read(&self.after);
        (c1.saturating_sub(c0) as f64, t1 - t0)
    }

    /// Mean duration of span `path` in microseconds (0 when unused).
    pub fn span_mean_us(&self, path: &str) -> f64 {
        let (calls, total) = self.span(path);
        ratio(total * 1e6, calls)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Length of one measured window. A traced run alternates untraced and
/// traced windows.
const WINDOW: Duration = Duration::from_secs(1);

/// What one measured phase gave: untraced and traced windows, op counts,
/// and (traced runs) the registry delta over the whole phase.
#[derive(Default)]
pub struct Measured {
    pub plain: Tally,
    pub traced: Tally,
    pub attempted: u64,
    pub failed: u64,
    pub delta: Option<Delta>,
}

impl Measured {
    /// Folds in one window, as traced or untraced.
    pub fn add(&mut self, part: LoadResult, traced: bool) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        let tally = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        tally.add(part.samples);
    }

    /// Every op of the phase, traced or not.
    pub fn ops(&self) -> f64 {
        (self.plain.count() + self.traced.count()) as f64
    }

    /// Mean latency of every op, traced or not.
    pub fn mean_us(&self) -> f64 {
        ratio(self.plain.sum_us() + self.traced.sum_us(), self.ops())
    }

    /// Untraced throughput over traced throughput.
    pub fn trace_overhead(&self) -> f64 {
        self.plain.ops_per_s() / self.traced.ops_per_s()
    }
}

/// Runs `phase(window)` once to warm up, then in windows until `budget`
/// of them is measured. An untraced run calls `interlude()` (a repeated
/// set-up) after each window, so set-ups are spread over the run as the
/// windows are. A traced run has no interludes, so the registry delta
/// covers the measured ops alone; it alternates untraced and traced
/// windows, so both halves see the same drift in machine speed and their
/// throughput ratio is the tracing overhead.
pub fn measure(
    budget: Duration,
    trace: bool,
    mut phase: impl FnMut(Duration) -> Result<LoadResult, String>,
    mut interlude: impl FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    // Warm-up ops are checked and counted, but not timed.
    let warm_up = phase(WINDOW)?;
    let mut measured = Measured {
        attempted: warm_up.attempted,
        failed: warm_up.failed,
        ..Measured::default()
    };
    let before = trace.then(Snapshot::capture);
    let mut elapsed = Duration::ZERO;
    let mut k = 0;
    while elapsed < budget || (trace && k < 2) {
        let on = trace && k % 2 == 1;
        set_tracing(on);
        let started = Instant::now();
        let part = phase(WINDOW);
        elapsed += started.elapsed();
        set_tracing(false);
        measured.add(part?, on);
        if !trace {
            interlude()?;
        }
        k += 1;
    }
    measured.delta = before.map(Delta::since);
    Ok(measured)
}

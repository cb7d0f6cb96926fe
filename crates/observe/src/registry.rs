//! The sharded, lock-light metrics registry.
//!
//! Layout: metric names hash (FNV-1a) into one of a fixed set of shards,
//! each a `parking_lot::Mutex<HashMap<&'static str, Metric>>`. The shard
//! lock is taken only to *register* a name; recording into an existing
//! metric is lock-free (relaxed atomics). Call sites additionally cache
//! their metric handle in a per-site static ([`LazyCounter`] and
//! friends), so the steady-state cost of `counter_add!` is one atomic
//! `fetch_add`.
//!
//! Histograms are striped: each carries several independent sets of
//! atomic bucket counts, and a thread records into the stripe indexed by
//! its thread id. Stripes are merged on snapshot, so concurrent writers
//! rarely contend on the same cache line while totals stay exact.

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of registry shards (name-hash partitions).
const SHARD_COUNT: usize = 8;
/// Number of independent atomic stripes per histogram.
const STRIPE_COUNT: usize = 8;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero. A test/monitoring hook — a "monotonic" counter
    /// only moves backwards through this explicit call.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// One histogram stripe: bucket counts plus a CAS-accumulated f64 sum.
#[derive(Debug)]
struct Stripe {
    /// One slot per finite bound plus a final overflow (`+Inf`) slot.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Stripe {
    fn new(buckets: usize) -> Self {
        Stripe {
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    fn add_sum(&self, value: f64) {
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

/// The default histogram bucket ladder: a 1 / 2.5 / 5 decade progression
/// from `1e-6` to `5e3`, suiting both second-scale latencies and
/// distance-like magnitudes. An implicit `+Inf` bucket catches the rest.
#[must_use]
pub fn default_bounds() -> Vec<f64> {
    let mut out = Vec::with_capacity(30);
    for exp in -6i32..=3 {
        let base = 10f64.powi(exp);
        out.push(base);
        out.push(2.5 * base);
        out.push(5.0 * base);
    }
    out
}

/// A fixed-bucket histogram with striped atomic storage.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending finite upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    stripes: Vec<Stripe>,
}

impl Histogram {
    /// Creates a histogram over the [`default_bounds`] ladder.
    #[must_use]
    pub fn new() -> Self {
        Self::with_bounds(default_bounds())
    }

    /// Creates a histogram over custom ascending upper bounds. Unsorted
    /// or non-finite bounds are sanitised (sorted, deduplicated, and
    /// non-finite entries dropped) rather than rejected.
    #[must_use]
    pub fn with_bounds(mut bounds: Vec<f64>) -> Self {
        bounds.retain(|b| b.is_finite());
        bounds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        bounds.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            stripes: (0..STRIPE_COUNT).map(|_| Stripe::new(buckets)).collect(),
        }
    }

    /// The finite bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Records one observation. Non-finite values land in the `+Inf`
    /// bucket and contribute nothing to the sum, so a stray NaN cannot
    /// poison the aggregate.
    pub fn observe(&self, value: f64) {
        let stripe = &self.stripes[stripe_index()];
        let idx = if value.is_finite() {
            self.bounds.partition_point(|&b| b < value)
        } else {
            self.bounds.len()
        };
        stripe.counts[idx].fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            stripe.add_sum(value);
        }
    }

    /// Merges another histogram's totals into this one — the roll-up
    /// primitive for per-shard metric registries. The merge is only
    /// defined bucket-by-bucket, so both histograms must share an
    /// identical bound ladder (bitwise); on a mismatch nothing is merged
    /// and `false` is returned. The other histogram is not drained:
    /// merging folds its current totals into one stripe of `self`.
    pub fn merge(&self, other: &Histogram) -> bool {
        if self.bounds.len() != other.bounds.len()
            || self
                .bounds
                .iter()
                .zip(&other.bounds)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return false;
        }
        let (counts, _count, sum) = other.fold_stripes();
        let stripe = &self.stripes[stripe_index()];
        for (slot, c) in stripe.counts.iter().zip(&counts) {
            slot.fetch_add(*c, Ordering::Relaxed);
        }
        stripe.add_sum(sum);
        true
    }

    /// Folds the stripes into per-bucket totals, total count, and sum.
    fn fold_stripes(&self) -> (Vec<u64>, u64, f64) {
        let buckets = self.bounds.len() + 1;
        let mut counts = vec![0u64; buckets];
        let mut sum = 0.0;
        for stripe in &self.stripes {
            for (slot, c) in counts.iter_mut().zip(&stripe.counts) {
                *slot = slot.saturating_add(c.load(Ordering::Relaxed));
            }
            sum += f64::from_bits(stripe.sum_bits.load(Ordering::Relaxed));
        }
        let count = counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
        (counts, count, sum)
    }

    /// Snapshots the histogram under `name`.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let (bucket_counts, count, sum) = self.fold_stripes();
        let q = |p: f64| quantile_from_buckets(&self.bounds, &bucket_counts, count, p);
        let (p50, p95, p99) = (q(0.50), q(0.95), q(0.99));
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            bucket_counts,
            count,
            sum,
            p50,
            p95,
            p99,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Estimates the `p`-quantile from bucket totals by linear interpolation
/// within the containing bucket. Returns `0.0` on an empty histogram;
/// observations in the `+Inf` bucket report the last finite bound.
///
/// Because the estimate is a monotone function of the target rank, the
/// returned quantiles always satisfy `q(a) <= q(b)` for `a <= b`.
fn quantile_from_buckets(bounds: &[f64], counts: &[u64], total: u64, p: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = (p * total_as_f64(total)).max(1.0);
    let mut cumulative = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let in_bucket = total_as_f64(c);
        if cumulative + in_bucket >= rank {
            if i >= bounds.len() {
                // Overflow bucket: no finite upper edge to interpolate to.
                return bounds.last().copied().unwrap_or(0.0);
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let upper = bounds[i];
            if in_bucket <= 0.0 {
                return upper;
            }
            let fraction = ((rank - cumulative) / in_bucket).clamp(0.0, 1.0);
            return lower + fraction * (upper - lower);
        }
        cumulative += in_bucket;
    }
    bounds.last().copied().unwrap_or(0.0)
}

/// Counter-style u64 → f64 for quantile arithmetic; counts beyond 2^53
/// lose precision but cannot panic or wrap.
#[allow(clippy::cast_precision_loss)]
fn total_as_f64(n: u64) -> f64 {
    n as f64
}

/// A registered metric of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A sharded metric registry. Most code uses the process-wide [`global`]
/// registry through the recording macros; tests build private instances.
#[derive(Debug)]
pub struct Registry {
    shards: [Mutex<HashMap<&'static str, Metric>>; SHARD_COUNT],
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard_for(&self, name: &str) -> &Mutex<HashMap<&'static str, Metric>> {
        // Truncation is harmless: only the low bits select the shard.
        #[allow(clippy::cast_possible_truncation)]
        let hash = fnv1a(name.as_bytes()) as usize;
        &self.shards[hash % SHARD_COUNT]
    }

    /// Gets or registers the counter `name`.
    ///
    /// If `name` is already registered as a *different* kind, a detached
    /// counter is returned so the caller still gets a working handle; it
    /// will not appear in snapshots (kind collisions are a programming
    /// error, but telemetry must never panic the host process).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut shard = self.shard_for(name).lock();
        let metric = shard
            .entry(name)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Gets or registers the gauge `name` (collision rules as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut shard = self.shard_for(name).lock();
        let metric = shard
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Gets or registers the histogram `name` with [`default_bounds`]
    /// (collision rules as [`Registry::counter`]).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::new)
    }

    /// Gets or registers the histogram `name` with explicit bounds. The
    /// bounds only apply on first registration; later callers share the
    /// originally registered buckets.
    pub fn histogram_with_bounds(&self, name: &'static str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, || Histogram::with_bounds(bounds.to_vec()))
    }

    fn histogram_with<F: FnOnce() -> Histogram>(
        &self,
        name: &'static str,
        make: F,
    ) -> Arc<Histogram> {
        let mut shard = self.shard_for(name).lock();
        let metric = shard
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Arc::new(make())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Snapshots every registered metric, sorted by name. Span data is
    /// not included here — [`Snapshot::capture`] merges the profile tree
    /// from the span aggregator.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            for (&name, metric) in shard.lock().iter() {
                match metric {
                    Metric::Counter(c) => counters.push(CounterSnapshot {
                        name: name.to_string(),
                        value: c.get(),
                    }),
                    Metric::Gauge(g) => gauges.push(GaugeSnapshot {
                        name: name.to_string(),
                        value: g.get(),
                    }),
                    Metric::Histogram(h) => histograms.push(h.snapshot(name)),
                }
            }
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            counters,
            gauges,
            histograms,
            spans: Vec::new(),
        }
    }

    /// Rolls every metric of `other` up into this registry: counters
    /// add, gauges take the other registry's last value, and histograms
    /// merge bucket-by-bucket (registered here on first sight with the
    /// other histogram's bounds). A histogram whose bounds disagree with
    /// an already-registered namesake is skipped rather than corrupting
    /// buckets — the same never-panic posture as kind collisions.
    ///
    /// `other` must be a distinct registry (per-shard workers roll up
    /// into the global one); absorbing a registry into itself would
    /// self-deadlock on the shard locks.
    pub fn absorb(&self, other: &Registry) {
        for shard in &other.shards {
            for (&name, metric) in shard.lock().iter() {
                match metric {
                    Metric::Counter(c) => self.counter(name).add(c.get()),
                    Metric::Gauge(g) => self.gauge(name).set(g.get()),
                    Metric::Histogram(h) => {
                        self.histogram_with_bounds(name, h.bounds()).merge(h);
                    }
                }
            }
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide registry used by the recording macros.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// FNV-1a over the metric name; cheap, stable shard selection.
// Not `udm_core::fnv`: udm-core depends on udm-observe, not the reverse.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stripe index for the calling thread (stable per thread, round-robin
/// across threads).
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPE_COUNT;
    }
    STRIPE.with(|s| *s)
}

/// A per-call-site lazily resolved counter handle, for use in statics.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Creates an unresolved handle for `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Resolves (registering on first use) and returns the counter.
    pub fn get(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }
}

/// A per-call-site lazily resolved gauge handle, for use in statics.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// Creates an unresolved handle for `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Resolves (registering on first use) and returns the gauge.
    pub fn get(&self) -> &Gauge {
        self.cell.get_or_init(|| global().gauge(self.name))
    }
}

/// A per-call-site lazily resolved histogram handle, for use in statics.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Creates an unresolved handle for `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Resolves (registering on first use) and returns the histogram.
    pub fn get(&self) -> &Histogram {
        self.cell.get_or_init(|| global().histogram(self.name))
    }
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter value at capture time.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge value at capture time.
    pub value: f64,
}

/// Snapshot of one histogram, including derived quantiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is `+Inf`).
    pub bucket_counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// A full metric + span snapshot, ready for the exporters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The span profile tree, sorted by path.
    pub spans: Vec<crate::span::SpanNode>,
}

impl Snapshot {
    /// Captures the [`global`] registry plus the span profile tree.
    #[must_use]
    pub fn capture() -> Snapshot {
        let mut snap = global().snapshot();
        snap.spans = crate::span::profile();
        snap
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("t_counter");
        c.add(3);
        c.inc();
        assert_eq!(r.counter("t_counter").get(), 4);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = r.gauge("t_gauge");
        g.set(2.5);
        assert!((r.gauge("t_gauge").get() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn kind_collision_returns_detached_metric() {
        let r = Registry::new();
        let _c = r.counter("mixed");
        let g = r.gauge("mixed");
        g.set(9.0);
        // The registered metric is still the counter; the detached gauge
        // does not show up in snapshots.
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 100.0, f64::NAN] {
            h.observe(v);
        }
        let s = h.snapshot("h");
        assert_eq!(s.count, 6);
        assert_eq!(s.bucket_counts, vec![1, 2, 1, 2]); // NaN + 100.0 overflow
        assert!((s.sum - 106.5).abs() < 1e-12);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{s:?}");
        assert!(s.p99 <= 4.0); // overflow bucket reports the last bound
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snapshot("h");
        assert_eq!(s.count, 0);
        assert!((s.p50.abs() + s.p95.abs() + s.p99.abs()) < 1e-15);
    }

    #[test]
    fn with_bounds_sanitises() {
        let h = Histogram::with_bounds(vec![4.0, f64::NAN, 1.0, 1.0, f64::INFINITY]);
        assert_eq!(h.bounds(), &[1.0, 4.0]);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let r = Registry::new();
        r.counter("zzz").inc();
        r.counter("aaa").inc();
        r.histogram("mid").observe(1.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "aaa");
        assert_eq!(snap.counters[1].name, "zzz");
        assert_eq!(snap.histograms[0].name, "mid");
    }

    #[test]
    fn histogram_merge_requires_identical_bounds() {
        let a = Histogram::with_bounds(vec![1.0, 2.0]);
        let b = Histogram::with_bounds(vec![1.0, 2.0]);
        let c = Histogram::with_bounds(vec![1.0, 3.0]);
        for v in [0.5, 1.5, 9.0] {
            b.observe(v);
        }
        a.observe(1.2);
        assert!(a.merge(&b));
        assert!(!a.merge(&c), "bound mismatch must refuse to merge");
        let s = a.snapshot("a");
        assert_eq!(s.count, 4);
        assert_eq!(s.bucket_counts, vec![1, 2, 1]);
        assert!((s.sum - 12.2).abs() < 1e-12, "{s:?}");
        // `b` is untouched by the roll-up.
        assert_eq!(b.snapshot("b").count, 3);
    }

    #[test]
    fn registry_absorb_rolls_up_shard_registries() {
        let global_like = Registry::new();
        global_like.counter("req_total").add(5);
        let shard = Registry::new();
        shard.counter("req_total").add(7);
        shard.gauge("lag").set(3.5);
        shard.histogram_with_bounds("lat", &[1.0, 2.0]).observe(1.5);
        global_like.absorb(&shard);
        let snap = global_like.snapshot();
        assert_eq!(snap.counters[0].value, 12);
        assert!((global_like.gauge("lag").get() - 3.5).abs() < 1e-15);
        let hist = snap.histograms.iter().find(|h| h.name == "lat").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.bounds, vec![1.0, 2.0]);
        // Absorbing twice keeps adding counter deltas (roll-up is
        // additive, not idempotent — callers absorb once per epoch).
        global_like.absorb(&shard);
        assert_eq!(global_like.counter("req_total").get(), 19);
    }

    #[test]
    fn default_bounds_are_ascending() {
        let b = default_bounds();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        assert_eq!(b.len(), 30);
    }
}

//! `udm-observe` — workspace-wide metrics, tracing, and profiling.
//!
//! The density estimators, micro-cluster maintenance, and the roll-up
//! classifier are instrumented with three primitives, all built on
//! `parking_lot` + atomics with no external telemetry dependency:
//!
//! * **Metrics** ([`registry`]): monotonic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with p50/p95/p99 summaries, held in a
//!   sharded global registry. The hot path (recording into an existing
//!   metric) is a relaxed atomic op; the registry lock is only taken on
//!   first registration of a name.
//! * **Spans** ([`mod@span`]): hierarchical RAII timing guards created by
//!   [`span!`]. Finished spans aggregate into an in-process self-time
//!   profile tree and, when tracing is initialised, stream through
//!   per-thread buffers into a JSONL trace file.
//! * **Exporters** ([`export`]): Prometheus text format, JSON, and a
//!   human-readable console table, plus a per-run [`RunManifest`]
//!   capturing seed, config, `git describe`, wall/CPU time and a full
//!   metric snapshot.
//!
//! # Enabling and disabling
//!
//! Recording is gated twice:
//!
//! * the `enabled` cargo feature (default **on**) — compiling it out
//!   turns every macro body into a statically-false branch that the
//!   optimiser deletes, so instrumented code is bit-identical to
//!   uninstrumented code;
//! * a runtime switch ([`set_enabled`]) — useful for tests and for
//!   measuring instrumentation overhead without rebuilding.
//!
//! A disabled macro never touches the registry, so no metric entries are
//! created as a side effect of merely executing instrumented code.
//!
//! # Example
//!
//! ```
//! udm_observe::counter_add!("doc_kernel_evals_total", 128);
//! {
//!     udm_observe::span!("doc_phase");
//!     udm_observe::histogram_observe!("doc_latency_seconds", 0.003);
//! }
//! let snap = udm_observe::Snapshot::capture();
//! let text = udm_observe::to_prometheus(&snap);
//! if udm_observe::enabled() {
//!     assert!(text.contains("doc_kernel_evals_total 128"));
//! }
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod manifest;
pub mod registry;
pub mod span;

pub use export::{to_json, to_prometheus, to_table};
pub use manifest::{git_describe, RunManifest};
pub use registry::{
    global, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot,
    LazyCounter, LazyGauge, LazyHistogram, Registry, Snapshot,
};
pub use span::{flush_tracing, init_tracing, profile, reset_profile, SpanGuard, SpanNode};

use std::sync::atomic::{AtomicBool, Ordering};

static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// True when telemetry is recording: the `enabled` cargo feature is
/// compiled in **and** the runtime switch has not been flipped off.
///
/// With the feature compiled out this is a `const false`, so callers
/// guarding work behind it compile to nothing.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "enabled") && RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Flips the runtime recording switch (no-op when the `enabled` feature
/// is compiled out, since [`enabled`] is then constantly false).
///
/// Intended for tests and overhead measurements; production binaries
/// leave it on and choose at compile time instead.
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `delta` (a `u64`) to the named monotonic counter.
///
/// The name must be a string literal; the metric handle is cached in a
/// per-call-site static, so steady-state cost is one relaxed atomic add.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $delta:expr) => {
        if $crate::enabled() {
            static __UDM_OBSERVE_COUNTER: $crate::LazyCounter = $crate::LazyCounter::new($name);
            __UDM_OBSERVE_COUNTER.get().add($delta);
        }
    };
}

/// Increments the named monotonic counter by one.
#[macro_export]
macro_rules! counter_inc {
    ($name:literal) => {
        $crate::counter_add!($name, 1)
    };
}

/// Sets the named gauge to an `f64` value.
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            static __UDM_OBSERVE_GAUGE: $crate::LazyGauge = $crate::LazyGauge::new($name);
            __UDM_OBSERVE_GAUGE.get().set($value);
        }
    };
}

/// Records an `f64` observation into the named histogram (default
/// log-spaced buckets; see [`registry::default_bounds`]).
#[macro_export]
macro_rules! histogram_observe {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            static __UDM_OBSERVE_HIST: $crate::LazyHistogram = $crate::LazyHistogram::new($name);
            __UDM_OBSERVE_HIST.get().observe($value);
        }
    };
}

/// Opens a hierarchical timing span that lasts to the end of the
/// enclosing block.
///
/// The macro expands to the statement
/// `let <guard> = $crate::SpanGuard::enter($name);` with a hygienic guard
/// name, so it is written as a statement (`span!("fit");`). The guard
/// lives to the end of its block, and spans opened in the same block
/// close innermost first. Because the expansion is a `let` statement,
/// the guard cannot be discarded early: an expression use such as
/// `let _ = span!(..)` does not compile.
///
/// ```compile_fail
/// let _ = udm_observe::span!("x");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        let _udm_observe_span_guard = $crate::SpanGuard::enter($name);
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_by_default_with_feature() {
        #[cfg(feature = "enabled")]
        assert!(super::enabled());
        #[cfg(not(feature = "enabled"))]
        assert!(!super::enabled());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn feature_off_macros_are_inert() {
        // Compiled without `enabled`: the macros must still typecheck and
        // must leave the registry untouched.
        crate::counter_add!("featureoff_counter_total", 3);
        crate::gauge_set!("featureoff_gauge", 1.5);
        crate::histogram_observe!("featureoff_hist", 0.1);
        {
            crate::span!("featureoff_span");
        }
        let snap = crate::Snapshot::capture();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }
}

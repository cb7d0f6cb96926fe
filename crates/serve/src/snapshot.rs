//! Immutable fitted-model snapshots and their atomic publication.
//!
//! A [`ModelSnapshot`] bundles everything one generation of the model
//! needs to answer queries: the merged micro-cluster model, a KDE
//! fitted over it, the (optional) classifier, and the ingest health
//! counters the snapshot was published under. Snapshots are immutable
//! once built; the [`SnapshotStore`] swaps an `Arc` to the newest one,
//! so readers clone the `Arc` under a momentary read lock and then
//! evaluate lock-free against a model that can never change — or tear —
//! under them.

use std::sync::{Arc, RwLock};
use std::time::Instant;
use udm_classify::DensityClassifier;
use udm_core::fnv::{fnv1a, fnv1a_f64s, FNV_OFFSET};
use udm_core::Result;
use udm_kde::BackendSpec;
use udm_microcluster::shard::{AggregateCft, MicroClusterModel};
use udm_microcluster::{CoresetCache, DensityBackend, MicroClusterKde};

/// Re-exported ingest counters type carried by each snapshot.
pub use udm_microcluster::ingest::IngestCounters;

/// Order- and representation-stable digest of an aggregate CFT: folds
/// the raw bit patterns of `CF1/CF2/EF2`, the member count and the
/// newest timestamp. Two models digest equal iff their aggregate
/// statistics are bit-identical — the property the kill-and-warm-restart
/// drill asserts over HTTP.
pub fn fingerprint_aggregate(agg: &AggregateCft) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_f64s(h, &agg.cf1);
    h = fnv1a_f64s(h, &agg.cf2);
    h = fnv1a_f64s(h, &agg.ef2);
    h = fnv1a(h, &agg.n.to_le_bytes());
    fnv1a(h, &agg.last_timestamp.to_le_bytes())
}

/// One immutable generation of the serving model.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotone publication counter (1 = first publish).
    pub generation: u64,
    /// Merged micro-cluster model this generation serves from.
    pub model: MicroClusterModel,
    /// KDE fitted over the model's clusters (`None` until any point has
    /// been ingested — density queries answer 503 meanwhile).
    pub kde: Option<MicroClusterKde>,
    /// Classifier, when the seed dataset was labelled.
    pub classifier: Option<Arc<DensityClassifier>>,
    /// Shard coverage `contributing/S` the model was merged at.
    pub coverage: f64,
    /// Merged ingest counters at publication time.
    pub counters: IngestCounters,
    /// Records offered to the ingest pump when this was published.
    pub ingested: u64,
    /// When the snapshot was published (staleness accounting).
    pub published: Instant,
    /// The density backend this generation serves through by default
    /// (per-request overrides still resolve against the same snapshot).
    pub backend_spec: BackendSpec,
    /// Coreset reductions of `kde`, built once per (snapshot, eps) and
    /// shared by every query after.
    coresets: CoresetCache,
}

impl ModelSnapshot {
    /// Builds a snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        generation: u64,
        model: MicroClusterModel,
        kde: Option<MicroClusterKde>,
        classifier: Option<Arc<DensityClassifier>>,
        coverage: f64,
        counters: IngestCounters,
        ingested: u64,
    ) -> Self {
        ModelSnapshot {
            generation,
            model,
            kde,
            classifier,
            coverage,
            counters,
            ingested,
            published: Instant::now(),
            backend_spec: BackendSpec::Exact,
            coresets: CoresetCache::default(),
        }
    }

    /// Selects the default density backend this snapshot serves through
    /// (builder-style).
    #[must_use]
    pub fn with_backend_spec(mut self, spec: BackendSpec) -> Self {
        self.backend_spec = spec;
        self
    }

    /// The default density backend over this snapshot's KDE, or `None`
    /// while no KDE has been fitted (data endpoints answer 503 then).
    ///
    /// # Errors
    ///
    /// Backend construction failures (invalid spec knobs).
    pub fn backend(&self) -> Result<Option<DensityBackend<'_>>> {
        let spec = self.backend_spec;
        self.backend_for(&spec)
    }

    /// The density backend for an explicit spec — the per-request
    /// override path. `Exact` is this snapshot's own KDE; a coreset is
    /// built on first use, then shared (snapshots are immutable, so it
    /// never goes stale within its generation).
    ///
    /// # Errors
    ///
    /// Backend construction failures (invalid spec knobs).
    pub fn backend_for(&self, spec: &BackendSpec) -> Result<Option<DensityBackend<'_>>> {
        Ok(self.coresets.resolve(spec, &self.kde)?.pop())
    }

    /// Digest of the aggregate CFT alone (exposed on `/healthz` so the
    /// chaos drill can compare restarted vs. uninterrupted models).
    pub fn model_fingerprint(&self) -> u64 {
        fingerprint_aggregate(&self.model.aggregate())
    }

    /// Seconds since publication.
    pub fn age_seconds(&self) -> f64 {
        self.published.elapsed().as_secs_f64()
    }
}

/// The atomically-swapped publication slot.
///
/// Readers hold the read lock only long enough to clone the `Arc`;
/// evaluation happens entirely outside the lock, so a slow query never
/// delays publication and publication never blocks readers mid-query.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    slot: RwLock<Option<Arc<ModelSnapshot>>>,
}

impl SnapshotStore {
    /// An empty store (no snapshot published yet — the daemon reports
    /// 503 on data endpoints until the pump publishes generation 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current snapshot, if any. Lock-poisoning cannot corrupt an
    /// `Option<Arc>` (writes are a single pointer store), so a poisoned
    /// lock degrades to reading the last published value.
    pub fn load(&self) -> Option<Arc<ModelSnapshot>> {
        self.slot
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Publishes a snapshot, returning its generation.
    pub fn publish(&self, snapshot: ModelSnapshot) -> u64 {
        let generation = snapshot.generation;
        let mut slot = self
            .slot
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(Arc::new(snapshot));
        drop(slot);
        udm_observe::gauge_set!("udm_serve_snapshot_generation", generation as f64);
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use udm_core::UncertainPoint;
    use udm_microcluster::{MaintainerConfig, MicroClusterMaintainer};

    fn model_of(points: usize, offset: f64) -> MicroClusterModel {
        let mut m = MicroClusterMaintainer::new(2, MaintainerConfig::new(4)).unwrap();
        for i in 0..points {
            let p = UncertainPoint::new(vec![offset + i as f64, 1.0], vec![0.1, 0.1])
                .unwrap()
                .with_timestamp(i as u64);
            m.insert(&p).unwrap();
        }
        MicroClusterModel::from_clusters(2, m.into_clusters()).unwrap()
    }

    fn snapshot_of(generation: u64, points: usize, offset: f64) -> ModelSnapshot {
        let model = model_of(points, offset);
        let kde = MicroClusterKde::fit(model.clusters(), udm_kde::KdeConfig::error_adjusted()).ok();
        ModelSnapshot::new(
            generation,
            model,
            kde,
            None,
            1.0,
            IngestCounters::default(),
            points as u64,
        )
    }

    #[test]
    fn snapshot_serves_backends_per_spec() {
        let snap = snapshot_of(1, 12, 0.0).with_backend_spec(BackendSpec::Coreset { eps: 0.2 });
        let default = snap.backend().unwrap().unwrap();
        assert_eq!(default.name(), "coreset");
        // The cache hands back the same instance for the same spec…
        let again = snap.backend().unwrap().unwrap();
        assert!(std::ptr::eq(default.kde(), again.kde()));
        // …and an override resolves independently.
        let exact = snap.backend_for(&BackendSpec::Exact).unwrap().unwrap();
        assert_eq!(exact.name(), "exact");
        let s = udm_core::Subspace::full(2).unwrap();
        let d_exact = exact.density_subspace(&[1.0, 1.0], None, s).unwrap();
        let d_kde = snap
            .kde
            .as_ref()
            .unwrap()
            .density_subspace_with_error(&[1.0, 1.0], None, s)
            .unwrap();
        assert_eq!(d_exact.to_bits(), d_kde.to_bits());
    }

    #[test]
    fn exact_backend_is_the_snapshots_own_kde() {
        // No copy: the exact resolution borrows the published KDE.
        let snap = snapshot_of(1, 12, 0.0);
        let exact = snap.backend().unwrap().unwrap();
        assert_eq!(exact.name(), "exact");
        assert!(std::ptr::eq(exact.kde(), snap.kde.as_ref().unwrap()));
    }

    #[test]
    fn kdeless_snapshot_has_no_backend() {
        let model = model_of(5, 0.0);
        let snap = ModelSnapshot::new(1, model, None, None, 1.0, IngestCounters::default(), 5);
        assert!(snap.backend().unwrap().is_none());
    }

    #[test]
    fn fingerprint_tracks_aggregate_bits() {
        let a = snapshot_of(1, 10, 0.0);
        let b = snapshot_of(2, 10, 0.0);
        let c = snapshot_of(1, 10, 5.0);
        // Same stream → same model fingerprint even across generations.
        assert_eq!(a.model_fingerprint(), b.model_fingerprint());
        assert_ne!(a.model_fingerprint(), c.model_fingerprint());
    }

    #[test]
    fn store_publishes_and_loads() {
        let store = SnapshotStore::new();
        assert!(store.load().is_none());
        store.publish(snapshot_of(1, 5, 0.0));
        let got = store.load().unwrap();
        assert_eq!(got.generation, 1);
        assert_eq!(
            got.model_fingerprint(),
            fingerprint_aggregate(&model_of(5, 0.0).aggregate())
        );
    }

    /// N readers classify-by-loading while a publisher swaps generations:
    /// every observed snapshot carries the model of its own generation,
    /// and generations are monotone per reader (no torn or
    /// stale-after-fresh reads).
    #[test]
    fn concurrent_swap_readers_see_only_complete_generations() {
        // Generation g serves the model built at offset g (0 for g = 1).
        let offset = |generation: u64| {
            if generation == 1 {
                0.0
            } else {
                generation as f64
            }
        };
        let fingerprints: Arc<Vec<u64>> = Arc::new(
            (0..40)
                .map(|g| fingerprint_aggregate(&model_of(8, offset(g)).aggregate()))
                .collect(),
        );
        let store = Arc::new(SnapshotStore::new());
        store.publish(snapshot_of(1, 8, offset(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let fingerprints = Arc::clone(&fingerprints);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0usize;
                    // Keep going until stopped AND at least one read done
                    // (on a 1-core host the publisher can finish before a
                    // reader is first scheduled).
                    while !stop.load(Ordering::Relaxed) || seen == 0 {
                        let snap = store.load().expect("published before spawn");
                        assert_eq!(
                            snap.model_fingerprint(),
                            fingerprints[snap.generation as usize],
                            "torn snapshot at gen {}",
                            snap.generation
                        );
                        assert!(snap.generation >= last, "generation went backwards");
                        // Exercise the model through the snapshot too.
                        if let Some(kde) = &snap.kde {
                            let s = udm_core::Subspace::full(2).unwrap();
                            let d = kde
                                .density_subspace_with_error(&[1.0, 1.0], None, s)
                                .unwrap();
                            assert!(d.is_finite());
                        }
                        last = snap.generation;
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        for generation in 2..40 {
            store.publish(snapshot_of(generation, 8, offset(generation)));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }
}

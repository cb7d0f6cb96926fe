//! Persistence-oriented integration tests: CSV and checkpoint roundtrips
//! embedded in the full training pipeline.

use udm_classify::{Classifier, ClassifierConfig, DensityClassifier};
use udm_core::RunningStats;
use udm_data::csv_io::{read_csv, write_csv};
use udm_data::{ErrorModel, UciDataset};
use udm_kde::KdeConfig;
use udm_microcluster::{
    load_checkpoint, save_checkpoint, CheckpointPayload, IngestCounters, IngestPolicy,
    MaintainerConfig, MicroClusterKde, MicroClusterMaintainer, ResilientIngestor,
};

/// Persists a maintainer through a checkpoint file — the one on-disk
/// format — and reads it back.
fn through_checkpoint(maintainer: &MicroClusterMaintainer, name: &str) -> MicroClusterMaintainer {
    let ingestor = ResilientIngestor::from_parts(
        maintainer.clone(),
        IngestPolicy::default(),
        vec![RunningStats::new(); maintainer.dim()],
        Vec::new(),
        IngestCounters::default(),
        0,
        0,
    )
    .unwrap();
    let path = std::env::temp_dir().join(format!(
        "udm_pipeline_roundtrip_{}_{name}.json",
        std::process::id()
    ));
    save_checkpoint(&path, &CheckpointPayload::capture(&ingestor, 0)).unwrap();
    let restored = load_checkpoint(&path).unwrap().restore().unwrap();
    std::fs::remove_file(&path).ok();
    restored.into_maintainer()
}

#[test]
fn csv_roundtrip_preserves_training_behaviour() {
    let clean = UciDataset::BreastCancer.generate(200, 1);
    let noisy = ErrorModel::paper(1.0).apply(&clean, 2).unwrap();

    let mut buf = Vec::new();
    write_csv(&mut buf, &noisy).unwrap();
    let reloaded = read_csv(&buf[..], None).unwrap();
    assert_eq!(reloaded, noisy);

    // Models trained on the original and the reloaded data must agree.
    let m1 = DensityClassifier::fit(&noisy, ClassifierConfig::error_adjusted(20)).unwrap();
    let m2 = DensityClassifier::fit(&reloaded, ClassifierConfig::error_adjusted(20)).unwrap();
    for p in noisy.iter().take(40) {
        assert_eq!(m1.classify(p).unwrap(), m2.classify(p).unwrap());
    }
}

#[test]
fn snapshot_restores_equivalent_densities() {
    let clean = UciDataset::Adult.generate(300, 3);
    let noisy = ErrorModel::paper(1.5).apply(&clean, 4).unwrap();
    let maintainer =
        MicroClusterMaintainer::from_dataset(&noisy, MaintainerConfig::new(30)).unwrap();

    let restored = through_checkpoint(&maintainer, "densities");

    let kde_a = MicroClusterKde::fit(maintainer.clusters(), KdeConfig::default()).unwrap();
    let kde_b = MicroClusterKde::fit(restored.clusters(), KdeConfig::default()).unwrap();
    for p in noisy.iter().take(25) {
        let a = kde_a.density(p.values()).unwrap();
        let b = kde_b.density(p.values()).unwrap();
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn snapshot_then_continue_streaming_matches_uninterrupted() {
    let clean = UciDataset::BreastCancer.generate(200, 5);
    let noisy = ErrorModel::paper(0.5).apply(&clean, 6).unwrap();
    let (first, second) = {
        let pts = noisy.points();
        (pts[..120].to_vec(), pts[120..].to_vec())
    };

    // Uninterrupted run.
    let mut direct = MicroClusterMaintainer::new(noisy.dim(), MaintainerConfig::new(15)).unwrap();
    for p in first.iter().chain(second.iter()) {
        direct.insert(p).unwrap();
    }

    // Interrupted by a checkpoint/restore in the middle.
    let mut before = MicroClusterMaintainer::new(noisy.dim(), MaintainerConfig::new(15)).unwrap();
    for p in &first {
        before.insert(p).unwrap();
    }
    let mut resumed = through_checkpoint(&before, "resume");
    for p in &second {
        resumed.insert(p).unwrap();
    }

    assert_eq!(direct.points_seen(), resumed.points_seen());
    assert_eq!(direct.num_clusters(), resumed.num_clusters());
    for (a, b) in direct.clusters().iter().zip(resumed.clusters().iter()) {
        assert_eq!(a.n(), b.n());
        for j in 0..noisy.dim() {
            assert!((a.cf1()[j] - b.cf1()[j]).abs() < 1e-9);
            assert!((a.cf2()[j] - b.cf2()[j]).abs() < 1e-9);
            assert!((a.ef2()[j] - b.ef2()[j]).abs() < 1e-9);
        }
    }
}

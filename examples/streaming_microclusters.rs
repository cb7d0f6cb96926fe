//! Streaming maintenance and persistence of error-based micro-clusters
//! (§2.1), including concurrent ingestion from several producer threads
//! and snapshot/restore across "restarts".
//!
//! Run with: `cargo run --release --example streaming_microclusters`

use udm_core::{Result, Subspace, UncertainPoint};
use udm_kde::KdeConfig;
use udm_microcluster::snapshot::Snapshot;
use udm_microcluster::{
    ConcurrentMaintainer, MaintainerConfig, MicroClusterKde, MicroClusterMaintainer,
};

/// A fake sensor: emits drifting readings whose error grows with sensor
/// temperature (cells measured hot are less reliable).
fn reading(sensor: u64, t: u64) -> UncertainPoint {
    let base = sensor as f64 * 2.5;
    let drift = (t as f64 * 0.01).sin();
    let temp_noise = 0.05 + 0.3 * ((t % 17) as f64 / 17.0);
    UncertainPoint::new(
        vec![base + drift, (t % 29) as f64 * 0.1],
        vec![temp_noise, 0.02],
    )
    .expect("finite reading")
    .with_timestamp(t)
}

fn main() -> Result<()> {
    // Concurrent ingestion: 4 sensor threads feed one summary.
    let maintainer = MicroClusterMaintainer::new(2, MaintainerConfig::new(24))?;
    let shared = ConcurrentMaintainer::new(maintainer);
    std::thread::scope(|scope| {
        for sensor in 0..4u64 {
            let shared = &shared;
            scope.spawn(move || {
                for t in 0..5_000u64 {
                    shared
                        .insert(&reading(sensor, t))
                        .expect("insert never fails on matching dims");
                }
            });
        }
    });
    let maintainer = shared.into_inner();
    println!(
        "ingested {} readings into {} micro-clusters",
        maintainer.points_seen(),
        maintainer.num_clusters()
    );

    // Snapshot the summary — the durable artifact of the training pass.
    // A service persists it inside a checkpoint (`save_checkpoint`); the
    // plain JSON form is an export.
    let snap = Snapshot::capture(&maintainer);
    println!("snapshot size: {} bytes of JSON", snap.to_json()?.len());

    // "Restart": restore and keep streaming.
    let mut restored = snap.restore()?;
    for t in 5_000..6_000u64 {
        restored.insert(&reading(1, t))?;
    }
    println!(
        "after restore + 1000 more readings: {} points in {} clusters",
        restored.points_seen(),
        restored.num_clusters()
    );

    // Densities over different subspaces from the same compressed state —
    // the repeated-subspace-query workload that motivates micro-clusters.
    let kde = MicroClusterKde::fit(restored.clusters(), KdeConfig::error_adjusted())?;
    for dims in [vec![0], vec![1], vec![0, 1]] {
        let s = Subspace::from_dims(&dims)?;
        println!(
            "density at sensor-1 locus over subspace {s}: {:.5}",
            kde.density_subspace(&[2.5, 1.0], s)?
        );
    }
    Ok(())
}

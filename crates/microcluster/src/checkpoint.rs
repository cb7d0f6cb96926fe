//! Versioned, checksummed checkpoints and crash recovery for the
//! resilient ingest pipeline.
//!
//! A checkpoint file is a small JSON *envelope*:
//!
//! ```text
//! { "version": 2, "digest": "<fnv1a64 hex>", "payload": "<json string>" }
//! ```
//!
//! The payload — the full [`ResilientIngestor`] state — is embedded as a
//! string, and the digest is computed over that exact string, so the
//! integrity check is independent of serializer formatting quirks.
//! Writes go to a sibling temp file first and are atomically renamed
//! into place, so a crash mid-write leaves the previous checkpoint
//! intact; the displaced checkpoint is rotated to a `.prev` sibling so
//! one earlier generation survives the publish. Loading detects
//! truncation/corruption ([`UdmError::CorruptSnapshot`]) and
//! incompatible schema versions ([`UdmError::UnsupportedSnapshotVersion`])
//! with typed errors, and [`load_checkpoint_with_fallback`] recovers
//! from a damaged latest file via the `.prev` generation.
//!
//! [`CheckpointDriver`] wraps an ingestor with periodic checkpointing
//! and replay-aware recovery: records already reflected in the restored
//! state (`seq < next_seq`) are skipped, so a killed ingest can resume
//! from the last checkpoint, replay its tail, and converge to the *bit
//! identical* micro-cluster statistics an uninterrupted run produces —
//! every ingest decision is deterministic and the persisted state
//! round-trips exactly (the vendored `serde_json` preserves `f64` to the
//! bit; non-finite floats never enter a checkpoint because quarantined
//! cells are stored as `Option`).

use crate::ingest::{IngestCounters, IngestPolicy, Observed, QuarantinedRecord, ResilientIngestor};
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use udm_core::fnv::{fnv1a, FNV_OFFSET};
use udm_core::{Result, RunningStats, UdmError};

/// Schema version written by this build (version 1 was the unversioned
/// bare [`Snapshot`] JSON, which this module refuses with a typed error).
pub const SCHEMA_VERSION: u32 = 2;

/// FNV-1a 64-bit content digest of a payload string.
fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, bytes))
}

#[derive(Debug, Serialize, Deserialize)]
struct Envelope {
    version: u32,
    digest: String,
    payload: String,
}

/// Portable form of [`RunningStats`]: the empty accumulator's `±∞`
/// min/max sentinels do not survive JSON (the vendored `serde_json`
/// writes non-finite floats as `null`), so they are stored as `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortableStats {
    /// Observation count.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Welford M2 accumulator.
    pub m2: f64,
    /// Minimum observation, `None` when empty.
    pub min: Option<f64>,
    /// Maximum observation, `None` when empty.
    pub max: Option<f64>,
}

impl From<&RunningStats> for PortableStats {
    fn from(s: &RunningStats) -> Self {
        PortableStats {
            count: s.count(),
            mean: s.mean(),
            m2: s.m2(),
            min: if s.count() > 0 { Some(s.min()) } else { None },
            max: if s.count() > 0 { Some(s.max()) } else { None },
        }
    }
}

impl From<&PortableStats> for RunningStats {
    fn from(p: &PortableStats) -> Self {
        RunningStats::from_parts(p.count, p.mean, p.m2, p.min, p.max)
    }
}

/// The complete persisted state of a [`ResilientIngestor`] plus the
/// driver's resume cursor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPayload {
    /// Stream dimensionality (kept explicitly: the snapshot alone cannot
    /// recover it before warm-up seeds the first cluster).
    pub dim: usize,
    /// Maintainer configuration and cluster statistics.
    pub snapshot: Snapshot,
    /// Degradation policy in force.
    pub policy: IngestPolicy,
    /// Per-column running statistics, in portable form.
    pub col_stats: Vec<PortableStats>,
    /// The quarantine buffer.
    pub quarantine: Vec<QuarantinedRecord>,
    /// Verdict counters.
    pub counters: IngestCounters,
    /// Highest admitted timestamp.
    pub watermark: u64,
    /// Records offered to the ingestor so far.
    pub arrivals: u64,
    /// Sequence number of the next unprocessed record: replay skips
    /// everything below this.
    pub next_seq: u64,
}

impl CheckpointPayload {
    /// Captures an ingestor and the driver cursor.
    pub fn capture(ingestor: &ResilientIngestor, next_seq: u64) -> Self {
        CheckpointPayload {
            dim: ingestor.dim(),
            snapshot: Snapshot::capture(ingestor.maintainer()),
            policy: ingestor.policy().clone(),
            col_stats: ingestor
                .col_stats()
                .iter()
                .map(PortableStats::from)
                .collect(),
            quarantine: ingestor.quarantine().to_vec(),
            counters: *ingestor.counters(),
            watermark: ingestor.watermark(),
            arrivals: ingestor.arrivals(),
            next_seq,
        }
    }

    /// Reassembles the ingestor.
    ///
    /// # Errors
    ///
    /// [`UdmError::CorruptSnapshot`] when the payload is internally
    /// inconsistent; restore errors from
    /// [`crate::maintainer::MicroClusterMaintainer::from_clusters`].
    pub fn restore(self) -> Result<ResilientIngestor> {
        if !self.snapshot.clusters.is_empty() && self.snapshot.clusters[0].dim() != self.dim {
            return Err(UdmError::CorruptSnapshot {
                reason: format!(
                    "payload dim {} disagrees with cluster dim {}",
                    self.dim,
                    self.snapshot.clusters[0].dim()
                ),
            });
        }
        let maintainer = if self.snapshot.clusters.is_empty() {
            crate::maintainer::MicroClusterMaintainer::new(self.dim, self.snapshot.config)?
        } else {
            self.snapshot.restore()?
        };
        ResilientIngestor::from_parts(
            maintainer,
            self.policy,
            self.col_stats.iter().map(RunningStats::from).collect(),
            self.quarantine,
            self.counters,
            self.watermark,
            self.arrivals,
        )
    }
}

/// Serializes, digests and atomically writes a checkpoint.
///
/// # Errors
///
/// [`UdmError::Serde`] on encoding failure, [`UdmError::Io`] on
/// filesystem failure.
pub fn save_checkpoint(path: &Path, payload: &CheckpointPayload) -> Result<()> {
    let started = std::time::Instant::now();
    let payload_json =
        serde_json::to_string(payload).map_err(|e| UdmError::Serde(e.to_string()))?;
    let envelope = Envelope {
        version: SCHEMA_VERSION,
        digest: hex_digest(payload_json.as_bytes()),
        payload: payload_json,
    };
    let text = serde_json::to_string(&envelope).map_err(|e| UdmError::Serde(e.to_string()))?;
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    // Keep one previous generation: if the new file is later truncated
    // or corrupted on disk, recovery can fall back to it instead of
    // starting from scratch. A failed rotation (e.g. no previous file)
    // is not an error.
    if path.exists() {
        let _ = std::fs::rename(path, prev_path(path));
    }
    // Atomic publish: readers see either the old checkpoint or the new
    // one, never a torn write.
    std::fs::rename(&tmp, path)?;
    udm_observe::counter_inc!("udm_checkpoint_saves_total");
    udm_observe::histogram_observe!(
        "udm_checkpoint_save_seconds",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Reads, verifies and decodes a checkpoint.
///
/// # Errors
///
/// * [`UdmError::Io`] — the file cannot be read,
/// * [`UdmError::CorruptSnapshot`] — not a checkpoint envelope, or the
///   content digest does not match,
/// * [`UdmError::UnsupportedSnapshotVersion`] — written by a different
///   schema version,
/// * [`UdmError::Serde`] — the verified payload fails to decode (a
///   writer/reader type skew within the same schema version).
pub fn load_checkpoint(path: &Path) -> Result<CheckpointPayload> {
    let started = std::time::Instant::now();
    let text = std::fs::read_to_string(path)?;
    let envelope: Envelope =
        serde_json::from_str(&text).map_err(|e| UdmError::CorruptSnapshot {
            reason: format!("not a checkpoint envelope: {e}"),
        })?;
    if envelope.version != SCHEMA_VERSION {
        return Err(UdmError::UnsupportedSnapshotVersion {
            found: envelope.version,
            supported: SCHEMA_VERSION,
        });
    }
    let actual = hex_digest(envelope.payload.as_bytes());
    if actual != envelope.digest {
        return Err(UdmError::CorruptSnapshot {
            reason: format!(
                "content digest mismatch: recorded {}, computed {actual}",
                envelope.digest
            ),
        });
    }
    let payload: CheckpointPayload =
        serde_json::from_str(&envelope.payload).map_err(|e| UdmError::Serde(e.to_string()))?;
    udm_observe::counter_inc!("udm_checkpoint_loads_total");
    udm_observe::histogram_observe!(
        "udm_checkpoint_load_seconds",
        started.elapsed().as_secs_f64()
    );
    Ok(payload)
}

/// Loads the checkpoint at `path`, falling back to the previous
/// generation (`<name>.prev`, kept by [`save_checkpoint`]'s rotation)
/// when the latest file is unreadable, truncated mid-write, or
/// otherwise corrupt. The fallback only engages when the previous
/// generation verifies cleanly; the *original* error is returned when
/// both generations fail, so callers diagnose the newest file.
///
/// # Errors
///
/// As [`load_checkpoint`], for the latest generation.
pub fn load_checkpoint_with_fallback(path: &Path) -> Result<CheckpointPayload> {
    match load_checkpoint(path) {
        Ok(payload) => Ok(payload),
        Err(primary) => match load_checkpoint(&prev_path(path)) {
            Ok(payload) => {
                udm_observe::counter_inc!("udm_checkpoint_fallback_loads_total");
                Ok(payload)
            }
            Err(_) => Err(primary),
        },
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    sibling_with_suffix(path, ".tmp")
}

/// The sibling path holding the previous checkpoint generation.
pub fn prev_path(path: &Path) -> PathBuf {
    sibling_with_suffix(path, ".prev")
}

fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Periodic-checkpoint wrapper around [`ResilientIngestor`] with
/// replay-aware recovery.
///
/// `observe` returns `Ok(None)` for records the restored state has
/// already consumed (`seq < next_seq`), so after a crash the caller can
/// simply replay the stream from the beginning (or any point at or
/// before the checkpoint) and the driver fast-forwards to the tail.
#[derive(Debug)]
pub struct CheckpointDriver {
    ingestor: ResilientIngestor,
    path: PathBuf,
    every: u64,
    next_seq: u64,
    since_checkpoint: u64,
}

impl CheckpointDriver {
    /// Wraps an ingestor; a checkpoint is written after every `every`
    /// processed records.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] for `every == 0`.
    pub fn new(ingestor: ResilientIngestor, path: PathBuf, every: u64) -> Result<Self> {
        if every == 0 {
            return Err(UdmError::InvalidConfig(
                "checkpoint interval must be at least 1".into(),
            ));
        }
        Ok(CheckpointDriver {
            ingestor,
            path,
            every,
            next_seq: 0,
            since_checkpoint: 0,
        })
    }

    /// Restores a driver from the checkpoint at `path`, falling back to
    /// the previous generation when the latest file is damaged (see
    /// [`load_checkpoint_with_fallback`]).
    ///
    /// # Errors
    ///
    /// As [`load_checkpoint_with_fallback`] and
    /// [`CheckpointPayload::restore`]; [`UdmError::InvalidConfig`] for
    /// `every == 0`.
    pub fn recover(path: PathBuf, every: u64) -> Result<Self> {
        if every == 0 {
            return Err(UdmError::InvalidConfig(
                "checkpoint interval must be at least 1".into(),
            ));
        }
        let payload = load_checkpoint_with_fallback(&path)?;
        let next_seq = payload.next_seq;
        Ok(CheckpointDriver {
            ingestor: payload.restore()?,
            path,
            every,
            next_seq,
            since_checkpoint: 0,
        })
    }

    /// The wrapped ingestor.
    pub fn ingestor(&self) -> &ResilientIngestor {
        &self.ingestor
    }

    /// Sequence number of the next record this driver will process.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Offers one record. Returns `Ok(None)` when the record predates
    /// the restored state (replay fast-forward); otherwise the verdict
    /// and admissions, checkpointing on the configured cadence.
    ///
    /// # Errors
    ///
    /// Ingest invariant violations or checkpoint write failures.
    pub fn observe(&mut self, rec: &udm_data::fault::RawRecord) -> Result<Option<Observed>> {
        if rec.seq < self.next_seq {
            return Ok(None);
        }
        let obs = self.ingestor.observe(rec)?;
        self.next_seq = rec.seq + 1;
        self.since_checkpoint += 1;
        if self.since_checkpoint >= self.every {
            self.checkpoint()?;
            self.since_checkpoint = 0;
        }
        Ok(Some(obs))
    }

    /// Writes a checkpoint now.
    ///
    /// # Errors
    ///
    /// As [`save_checkpoint`].
    pub fn checkpoint(&self) -> Result<()> {
        save_checkpoint(
            &self.path,
            &CheckpointPayload::capture(&self.ingestor, self.next_seq),
        )
    }

    /// Drains the quarantine, writes a final checkpoint and returns the
    /// drained admissions plus the ingestor.
    ///
    /// # Errors
    ///
    /// As [`ResilientIngestor::drain_quarantine`] and
    /// [`save_checkpoint`].
    pub fn finish(mut self) -> Result<(Vec<crate::ingest::AdmittedRecord>, ResilientIngestor)> {
        let drained = self.ingestor.drain_quarantine()?;
        save_checkpoint(
            &self.path,
            &CheckpointPayload::capture(&self.ingestor, self.next_seq),
        )?;
        Ok((drained, self.ingestor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainer::MaintainerConfig;
    use udm_core::UncertainPoint;
    use udm_data::fault::RawRecord;

    fn tmp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("udm_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn rec(seq: u64, v: f64) -> RawRecord {
        RawRecord {
            seq,
            timestamp: seq,
            values: vec![v, v * 0.5],
            errors: vec![0.1, 0.0],
            label: None,
        }
    }

    fn fed_ingestor(n: u64) -> ResilientIngestor {
        let mut ing =
            ResilientIngestor::new(2, MaintainerConfig::new(4), IngestPolicy::default()).unwrap();
        for i in 0..n {
            ing.observe(&rec(i, (i % 13) as f64)).unwrap();
        }
        ing
    }

    #[test]
    fn save_load_roundtrips_bit_identically() {
        let ing = fed_ingestor(60);
        let payload = CheckpointPayload::capture(&ing, 60);
        let path = tmp_file("roundtrip.json");
        save_checkpoint(&path, &payload).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded, payload);
        let restored = loaded.restore().unwrap();
        assert_eq!(
            restored.maintainer().clusters(),
            ing.maintainer().clusters()
        );
        assert_eq!(restored.col_stats(), ing.col_stats());
        assert_eq!(restored.counters(), ing.counters());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_ingestor_roundtrips() {
        // Before warm-up there are no clusters; dim must still survive.
        let ing =
            ResilientIngestor::new(3, MaintainerConfig::new(4), IngestPolicy::default()).unwrap();
        let path = tmp_file("empty.json");
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 0)).unwrap();
        let restored = load_checkpoint(&path).unwrap().restore().unwrap();
        assert_eq!(restored.dim(), 3);
        assert_eq!(restored.maintainer().num_clusters(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let ing = fed_ingestor(30);
        let path = tmp_file("corrupt.json");
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 30)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the embedded payload (watermark value).
        let idx = text.find("watermark").unwrap();
        let digit = text[idx..].find(|c: char| c.is_ascii_digit()).unwrap() + idx;
        let mut bytes = text.into_bytes();
        bytes[digit] = if bytes[digit] == b'9' {
            b'8'
        } else {
            bytes[digit] + 1
        };
        std::fs::write(&path, &bytes).unwrap();
        let e = load_checkpoint(&path).unwrap_err();
        assert!(matches!(e, UdmError::CorruptSnapshot { .. }), "{e:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_detected() {
        let ing = fed_ingestor(30);
        let path = tmp_file("truncated.json");
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 30)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let e = load_checkpoint(&path).unwrap_err();
        assert!(matches!(e, UdmError::CorruptSnapshot { .. }), "{e:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_detected() {
        let path = tmp_file("version.json");
        std::fs::write(
            &path,
            "{\"version\":99,\"digest\":\"00\",\"payload\":\"{}\"}",
        )
        .unwrap();
        let e = load_checkpoint(&path).unwrap_err();
        assert!(
            matches!(
                e,
                UdmError::UnsupportedSnapshotVersion {
                    found: 99,
                    supported: SCHEMA_VERSION
                }
            ),
            "{e:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = load_checkpoint(Path::new("/nonexistent/udm/ckpt.json")).unwrap_err();
        assert!(matches!(e, UdmError::Io(_)));
    }

    #[test]
    fn inconsistent_dim_is_corrupt() {
        let ing = fed_ingestor(30);
        let mut payload = CheckpointPayload::capture(&ing, 30);
        payload.dim = 7;
        let e = payload.restore().unwrap_err();
        assert!(matches!(e, UdmError::CorruptSnapshot { .. }), "{e:?}");
    }

    #[test]
    fn driver_checkpoints_periodically_and_skips_replay() {
        let path = tmp_file("driver.json");
        std::fs::remove_file(&path).ok();
        let ing =
            ResilientIngestor::new(2, MaintainerConfig::new(4), IngestPolicy::default()).unwrap();
        let mut driver = CheckpointDriver::new(ing, path.clone(), 10).unwrap();
        for i in 0..25 {
            let obs = driver.observe(&rec(i, (i % 5) as f64)).unwrap();
            assert!(obs.is_some());
        }
        // 25 records, interval 10: last checkpoint covers seq < 20.
        let payload = load_checkpoint(&path).unwrap();
        assert_eq!(payload.next_seq, 20);
        // Replay from scratch into the recovered driver: the first 20
        // records are skipped, the tail is processed.
        let mut recovered = CheckpointDriver::recover(path.clone(), 10).unwrap();
        let mut processed = 0;
        for i in 0..25 {
            if recovered
                .observe(&rec(i, (i % 5) as f64))
                .unwrap()
                .is_some()
            {
                processed += 1;
            }
        }
        assert_eq!(processed, 5);
        assert_eq!(recovered.ingestor().counters().arrivals, 25);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_interval_rejected() {
        let ing =
            ResilientIngestor::new(1, MaintainerConfig::new(2), IngestPolicy::default()).unwrap();
        assert!(CheckpointDriver::new(ing, tmp_file("zero.json"), 0).is_err());
        assert!(CheckpointDriver::recover(tmp_file("zero.json"), 0).is_err());
    }

    #[test]
    fn finish_drains_and_persists() {
        let path = tmp_file("finish.json");
        std::fs::remove_file(&path).ok();
        let policy = IngestPolicy {
            min_stats_for_repair: 1_000_000,
            retry_backoff: 1_000_000,
            ..IngestPolicy::default()
        };
        let ing = ResilientIngestor::new(2, MaintainerConfig::new(4), policy).unwrap();
        let mut driver = CheckpointDriver::new(ing, path.clone(), 100).unwrap();
        for i in 0..20 {
            driver.observe(&rec(i, i as f64)).unwrap();
        }
        let mut bad = rec(20, 3.0);
        bad.values[0] = f64::NAN;
        driver.observe(&bad).unwrap();
        let (drained, ing) = driver.finish().unwrap();
        assert_eq!(drained.len(), 1);
        assert!(ing.quarantine().is_empty());
        // The final checkpoint reflects the drained state.
        let payload = load_checkpoint(&path).unwrap();
        assert!(payload.quarantine.is_empty());
        assert_eq!(payload.counters.released, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_rotates_previous_generation() {
        let path = tmp_file("rotate.json");
        let prev = prev_path(&path);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&prev).ok();
        let ing = fed_ingestor(30);
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 10)).unwrap();
        assert!(!prev.exists(), "first save has nothing to rotate");
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 20)).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().next_seq, 20);
        assert_eq!(load_checkpoint(&prev).unwrap().next_seq, 10);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&prev).ok();
    }

    #[test]
    fn fallback_recovers_from_truncated_latest() {
        let path = tmp_file("fallback.json");
        let prev = prev_path(&path);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&prev).ok();
        let ing = fed_ingestor(30);
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 10)).unwrap();
        save_checkpoint(&path, &CheckpointPayload::capture(&ing, 20)).unwrap();
        // Truncate the latest generation mid-"write".
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 3]).unwrap();
        assert!(load_checkpoint(&path).is_err());
        let payload = load_checkpoint_with_fallback(&path).unwrap();
        assert_eq!(payload.next_seq, 10);
        // Both generations damaged: the latest file's error surfaces.
        std::fs::write(&prev, b"junk").unwrap();
        let e = load_checkpoint_with_fallback(&path).unwrap_err();
        assert!(matches!(e, UdmError::CorruptSnapshot { .. }), "{e:?}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&prev).ok();
    }

    #[test]
    fn point_roundtrip_sanity_for_bit_identity() {
        // The property the crash drill rests on: serde_json round-trips
        // f64 exactly.
        let p = UncertainPoint::new(vec![0.1 + 0.2, 1e-300], vec![0.3, 0.0]).unwrap();
        let snap_text = serde_json::to_string(&p.values().to_vec()).unwrap();
        let back: Vec<f64> = serde_json::from_str(&snap_text).unwrap();
        assert_eq!(back[0].to_bits(), p.value(0).to_bits());
        assert_eq!(back[1].to_bits(), p.value(1).to_bits());
    }
}

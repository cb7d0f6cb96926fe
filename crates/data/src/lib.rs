//! # udm-data
//!
//! Workloads for the uncertain-data-mining experiments.
//!
//! The paper's evaluation (§4) takes four UCI datasets (adult, ionosphere,
//! wisconsin breast cancer, forest cover), keeps their quantitative
//! attributes, and *injects* synthetic errors: for every cell the error
//! standard deviation is drawn uniformly from `[0, 2f]·σ_j` (where `σ_j`
//! is the column's standard deviation) and the stored value is displaced
//! by a zero-mean normal with that standard deviation. The parameter `f`
//! sweeps 0–3.
//!
//! This crate provides:
//!
//! * [`synth`] — seeded Gaussian-mixture-per-class generators,
//! * [`uci`] — stand-in profiles mimicking the shape of the four UCI
//!   datasets (dimensionality, class count, priors, class overlap), used
//!   when the real files are unavailable (see `DESIGN.md` for the
//!   substitution rationale), plus a loader for the real files when
//!   present,
//! * [`noise`] — the paper's error-injection model,
//! * [`csv_io`] — CSV reading/writing of uncertain datasets,
//! * [`split`] — seeded stratified train/test splits,
//! * [`imputation`] — missingness models and imputers that record the
//!   imputation error as ψ (the paper's missing-data use case),
//! * [`aggregate`] — partially aggregated data: group means with
//!   std-deviation errors (the paper's demographic-statistics use case),
//! * [`fault`] — deterministic fault injection for chaos-testing the
//!   streaming ingest path (NaN/Inf cells, corrupted ψ, timestamp
//!   anomalies, truncation, burst drops),
//! * [`uci_raw`] — parsers for the raw UCI file formats (adult,
//!   ionosphere, breast-cancer-wisconsin, covtype), so the real data can
//!   replace the stand-ins when available.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod aggregate;
pub mod csv_io;
pub mod error;
pub mod fault;
pub mod imputation;
pub mod noise;
pub mod split;
pub mod stream;
pub mod synth;
pub mod uci;
pub mod uci_raw;

pub use aggregate::{aggregate_groups, GroupLabelPolicy};
pub use error::{DataError, DataResult};
pub use fault::{FaultKind, FaultLog, FaultPlan, FaultyStream, RawRecord};
pub use imputation::{impute_mean, impute_stochastic, IncompleteDataset, MissingnessModel};
pub use noise::ErrorModel;
pub use split::{stratified_split, Split};
pub use stream::{DriftingStream, Regime};
pub use synth::{GaussianClassSpec, MixtureGenerator};
pub use uci::UciDataset;

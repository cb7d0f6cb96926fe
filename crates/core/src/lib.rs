//! # udm-core
//!
//! Data model for *uncertain data mining* in the style of
//! Aggarwal, "On Density Based Transforms for Uncertain Data Mining"
//! (ICDE 2007).
//!
//! The central abstraction is the [`UncertainPoint`]: a `d`-dimensional
//! record `X_i` paired with a per-dimension error estimate `ψ_j(X_i)`
//! (a standard deviation). The paper makes the most general assumption —
//! the error is a function of both the row *and* the field — and so does
//! this crate: every cell carries its own error.
//!
//! On top of the point type this crate provides:
//!
//! * [`UncertainDataset`] — a validated, column-statistics-aware collection
//!   of uncertain points, with per-class partitioning for classification.
//! * [`Subspace`] — a cheap bitmask set of dimensions, the unit over which
//!   the paper's densities `g(x, S, D)` are evaluated, together with the
//!   Apriori-style join used by the roll-up classifier.
//! * [`stats`] — numerically stable streaming statistics (Welford) used by
//!   bandwidth selection and dataset summaries.
//! * [`num`] — numeric-safety guards: the sanctioned negative-variance
//!   clamp ([`num::clamped_sqrt`]) with an observability counter, finite
//!   input validation for estimator entry points, and the tolerant
//!   [`num::approx_eq`] comparison.
//! * [`fnv`] — the FNV-1a 64-bit digest shared by checkpoints, serving
//!   snapshots and model fingerprints.
//! * [`scale`] — standard/min-max scalers that transform values and their
//!   errors consistently.
//!
//! Downstream crates build kernel density estimation (`udm-kde`),
//! error-adjusted micro-clustering (`udm-microcluster`), classification
//! (`udm-classify`) and clustering (`udm-cluster`) on this model.

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

pub mod dataset;
pub mod error;
pub mod fnv;
pub mod label;
pub mod num;
pub mod point;
pub mod quantile;
pub mod scale;
pub mod stats;
pub mod subspace;

pub use dataset::{ClassPartition, DatasetBuilder, UncertainDataset};
pub use error::{Result, UdmError};
pub use label::ClassLabel;
pub use num::{approx_eq, clamp_non_negative, clamped_sqrt, ensure_finite_slice, NonNegF64};
pub use point::UncertainPoint;
pub use quantile::{interquartile_range, median, quantile};
pub use scale::{MinMaxScaler, Scaler, StandardScaler};
pub use stats::{DimensionSummary, RunningStats};
pub use subspace::{Subspace, SubspaceIter};

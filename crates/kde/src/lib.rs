//! # udm-kde
//!
//! Kernel density estimation with per-point error adjustment — the
//! *density based transform* at the heart of Aggarwal, ICDE 2007 (§2).
//!
//! Standard KDE replaces each discrete point `X_i` with a smooth bump of
//! width `h` (Eq. 1–2 of the paper). When a per-dimension error estimate
//! `ψ_j(X_i)` is available, the **error-based kernel** (Eq. 3) widens each
//! point's bump by its own error, so unreliable points spread their mass
//! over a wider region and dominate their exact locality less:
//!
//! ```text
//! Q'_h(x − X_i, ψ) ∝ exp( −(x − X_i)² / (2·(h² + ψ²)) )
//! ```
//!
//! The error-based density `f^Q(x)` (Eq. 4) is the average of these kernels,
//! and the multi-dimensional case takes the product over dimensions —
//! including over arbitrary *subspaces*, which is what the subspace
//! classifier in `udm-classify` exploits.
//!
//! Provided here:
//!
//! * [`backend`] — the `exact | coreset:EPS` accuracy-vs-latency
//!   [`BackendSpec`] every density consumer selects a mixture with,
//! * [`kernel`] — classic kernel functions (Gaussian, Epanechnikov, …),
//! * [`error_kernel`] — the paper's error-based Gaussian kernel (Eq. 3) in
//!   both paper-faithful and renormalized forms,
//! * [`bandwidth`] — Silverman / Scott / fixed bandwidth selection,
//! * [`estimator`] — the point-based density estimator over datasets and
//!   subspaces (Eqs. 1, 4),
//! * [`columns`] — the factorized per-query kernel-column cache that the
//!   subspace roll-up reuses across every subspace it enumerates, stored
//!   dimension-major (SoA) for SIMD-friendly subspace products,
//! * [`chunked`] — the unrolled contiguous inner loops behind the
//!   columnar path (column multiply, ordered reduction, column build),
//! * [`fastexp`] — a bounded-error fast `exp` selected by the
//!   `fast-math` feature (default off; the default build is bit-exact),
//! * [`grid`] — 1-D grid evaluation of any density, for plotting and
//!   numeric checks,
//! * [`ascii`] — the terminal chart `udm density --grid` prints,
//! * [`quadrature`] — trapezoidal integration used to verify normalization.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ascii;
pub mod backend;
pub mod bandwidth;
pub mod chunked;
pub mod classic;
pub mod columns;
pub mod error_kernel;
pub mod estimator;
pub mod fastexp;
pub mod grid;
pub mod kernel;
pub mod quadrature;

pub use ascii::chart;
pub use backend::BackendSpec;
pub use bandwidth::{silverman_bandwidth, silverman_robust_bandwidth, BandwidthRule};
pub use classic::ClassicKde;
pub use columns::KernelColumns;
pub use error_kernel::{ErrorKernelForm, GaussianErrorKernel};
pub use estimator::{ErrorKde, KdeConfig};
pub use fastexp::{fast_exp, hot_exp, FAST_EXP_MAX_ABS_ERROR};
pub use grid::Grid1D;
pub use kernel::{EpanechnikovKernel, GaussianKernel, Kernel, TriangularKernel, UniformKernel};

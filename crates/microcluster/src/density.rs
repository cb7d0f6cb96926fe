//! Micro-cluster kernel density estimation (Eqs. 9–10).
//!
//! Each micro-cluster contributes one error-based kernel centred at its
//! centroid with width `√(h² + Δ(C)²)` (Eq. 9), weighted by its member
//! count (Eq. 10):
//!
//! ```text
//! f^Q(x) = (1/N) · Σ_i n(C_i) · Q'_h(x − c(C_i), Δ(C_i))
//! ```
//!
//! Evaluation cost is `O(q·|S|)` per query — independent of the original
//! data size `N`, which is the entire point of the compression (§2.1).
//!
//! ## Columnar hot path
//!
//! The per-query kernel-column cache ([`MicroClusterKde::kernel_columns`])
//! is built from a lazily derived structure-of-arrays layout: centroids,
//! squared spreads and the diff-independent kernel factors stored
//! dimension-major, so each dimension's column is one contiguous unrolled
//! loop (`udm_kde::chunked`) instead of a strided gather over
//! pseudo-point structs. The scalar builder
//! ([`MicroClusterKde::kernel_columns_scalar`]) remains the bit-for-bit
//! reference; the naive [`MicroClusterKde::density_subspace_with_error`]
//! loop is the end-to-end oracle.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::feature::MicroCluster;
use crate::pseudo::PseudoPoint;
use std::sync::OnceLock;
use udm_core::num::{clamped_sqrt, ensure_finite_slice, ensure_finite_slice_opt, f64_from_count};
use udm_core::{Result, Subspace, UdmError};
use udm_kde::{chunked, ErrorKernelForm, GaussianErrorKernel, KdeConfig, KernelColumns};

/// Precomputed dimension-major (SoA) pseudo-point statistics for the
/// columnar kernel build.
///
/// Each vector holds `rows × dim` values with column `j` contiguous at
/// `[j·rows, (j+1)·rows)`, so the per-dimension build loop streams
/// through memory. `prefs`/`two_vars` are the diff-independent factors
/// of the error-based kernel at `ψ = Δ_j(C_i)`
/// ([`GaussianErrorKernel::factors`]); `delta2` keeps `Δ²` for queries
/// that convolve their own error (`ψ` then varies per query and the
/// factors cannot be precomputed).
#[derive(Debug, Clone, Default)]
struct ColumnLayout {
    centroids: Vec<f64>,
    delta2: Vec<f64>,
    prefs: Vec<f64>,
    two_vars: Vec<f64>,
    weights: Vec<f64>,
    /// Any (row, dim) pair hit the degenerate point-mass kernel
    /// (`h = ψ = 0`): the columnar factored build cannot represent it,
    /// so column builds route through the scalar reference path.
    degenerate: bool,
}

/// Lazily built [`ColumnLayout`], excluded from serialization.
///
/// The layout is derived state: it is fully reconstructible from the
/// pseudo-points and bandwidths, so it serializes as `null` and
/// deserializes to the empty (unbuilt) cache — persisted models from
/// before the columnar path load unchanged, and round-tripping a model
/// never embeds redundant data in the JSON.
#[derive(Debug, Clone, Default)]
struct LayoutCache(OnceLock<ColumnLayout>);

impl serde::Serialize for LayoutCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for LayoutCache {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        Ok(LayoutCache::default())
    }
}

/// Density estimator over micro-cluster summaries.
///
/// Built once from a slice of clusters (one pre-processing step, as in
/// §3); queries can then be evaluated over any subspace without touching
/// the original data.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MicroClusterKde {
    pseudos: Vec<PseudoPoint>,
    bandwidths: Vec<f64>,
    kernel: GaussianErrorKernel,
    total_n: u64,
    dim: usize,
    layout: LayoutCache,
}

impl MicroClusterKde {
    /// Fits the estimator from micro-cluster statistics.
    ///
    /// Bandwidths follow the configured rule using the *global* column
    /// standard deviations reconstructed from the aggregated cluster
    /// statistics (`Σ CF1`, `Σ CF2`, `Σ n`), and `N = Σ n(C_i)` — i.e. the
    /// same `1.06·σ·N^{−1/5}` the exact estimator would use, recovered
    /// without a second pass over the data.
    ///
    /// `config.error_adjusted` selects whether pseudo-point errors include
    /// the `EF2` term (Lemma 1) or only the within-cluster spread, which is
    /// the unadjusted baseline's behaviour.
    ///
    /// # Errors
    ///
    /// [`UdmError::EmptyDataset`] when `clusters` is empty or all empty;
    /// [`UdmError::DimensionMismatch`] on ragged dimensionality.
    pub fn fit(clusters: &[MicroCluster], config: KdeConfig) -> Result<Self> {
        let non_empty: Vec<&MicroCluster> = clusters.iter().filter(|c| !c.is_empty()).collect();
        let first = non_empty.first().ok_or(UdmError::EmptyDataset)?;
        let dim = first.dim();
        for c in &non_empty {
            if c.dim() != dim {
                return Err(UdmError::DimensionMismatch {
                    expected: dim,
                    actual: c.dim(),
                });
            }
        }

        // Aggregate global statistics to recover per-dimension sigma and N.
        let mut agg = MicroCluster::new(dim);
        for c in &non_empty {
            agg.merge(c)?;
        }
        let total_n = agg.n();
        let sigmas: Vec<f64> = (0..dim).map(|j| clamped_sqrt(agg.variance(j))).collect();
        let bandwidths = config
            .bandwidth
            .bandwidths_from_sigmas(&sigmas, usize::try_from(total_n).unwrap_or(usize::MAX))?;

        let pseudos = non_empty
            .iter()
            .map(|c| PseudoPoint::from_cluster(c, config.error_adjusted))
            .collect::<Result<Vec<_>>>()?;

        Ok(MicroClusterKde {
            pseudos,
            bandwidths,
            kernel: GaussianErrorKernel::new(config.form),
            total_n,
            dim,
            layout: LayoutCache::default(),
        })
    }

    /// Fits with explicitly supplied per-dimension bandwidths (used by the
    /// classifier so class-conditional densities and the global density
    /// share one bandwidth vector, keeping Eq. 11's ratio consistent).
    pub fn fit_with_bandwidths(
        clusters: &[MicroCluster],
        bandwidths: Vec<f64>,
        form: ErrorKernelForm,
        error_adjusted: bool,
    ) -> Result<Self> {
        let non_empty: Vec<&MicroCluster> = clusters.iter().filter(|c| !c.is_empty()).collect();
        let first = non_empty.first().ok_or(UdmError::EmptyDataset)?;
        let dim = first.dim();
        if bandwidths.len() != dim {
            return Err(UdmError::DimensionMismatch {
                expected: dim,
                actual: bandwidths.len(),
            });
        }
        for &h in &bandwidths {
            if !(h.is_finite() && h > 0.0) {
                return Err(UdmError::InvalidValue {
                    what: "bandwidth",
                    value: h,
                });
            }
        }
        let mut total_n = 0;
        let mut pseudos = Vec::with_capacity(non_empty.len());
        for c in &non_empty {
            if c.dim() != dim {
                return Err(UdmError::DimensionMismatch {
                    expected: dim,
                    actual: c.dim(),
                });
            }
            total_n += c.n();
            pseudos.push(PseudoPoint::from_cluster(c, error_adjusted)?);
        }
        Ok(MicroClusterKde {
            pseudos,
            bandwidths,
            kernel: GaussianErrorKernel::new(form),
            total_n,
            dim,
            layout: LayoutCache::default(),
        })
    }

    /// Builds an estimator directly from pseudo-points — the entry the
    /// coreset backend uses to wrap a *reduced* pseudo-point set in the
    /// same (columnar-cached) evaluation machinery as a fitted model.
    ///
    /// `total_n` is the original point count `N` the mixture normalizes
    /// by; pseudo-point weights may sum to less when a reduction merged
    /// or dropped mass — the caller owns that accounting.
    ///
    /// # Errors
    ///
    /// [`UdmError::EmptyDataset`] on an empty pseudo-point set or
    /// `total_n == 0`; [`UdmError::DimensionMismatch`] on ragged
    /// pseudo-points or a wrong-arity bandwidth vector;
    /// [`UdmError::InvalidValue`] on non-positive bandwidths.
    pub fn from_pseudo_points(
        pseudos: Vec<PseudoPoint>,
        bandwidths: Vec<f64>,
        form: ErrorKernelForm,
        total_n: u64,
    ) -> Result<Self> {
        let first = pseudos.first().ok_or(UdmError::EmptyDataset)?;
        if total_n == 0 {
            return Err(UdmError::EmptyDataset);
        }
        let dim = first.dim();
        if bandwidths.len() != dim {
            return Err(UdmError::DimensionMismatch {
                expected: dim,
                actual: bandwidths.len(),
            });
        }
        for &h in &bandwidths {
            if !(h.is_finite() && h > 0.0) {
                return Err(UdmError::InvalidValue {
                    what: "bandwidth",
                    value: h,
                });
            }
        }
        for p in &pseudos {
            if p.dim() != dim || p.delta.len() != dim {
                return Err(UdmError::DimensionMismatch {
                    expected: dim,
                    actual: p.dim(),
                });
            }
        }
        Ok(MicroClusterKde {
            pseudos,
            bandwidths,
            kernel: GaussianErrorKernel::new(form),
            total_n,
            dim,
            layout: LayoutCache::default(),
        })
    }

    /// Dimensionality of the estimator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The pseudo-points of the mixture, in fit order.
    pub fn pseudo_points(&self) -> &[PseudoPoint] {
        &self.pseudos
    }

    /// The kernel normalization form the estimator was fitted with.
    pub fn kernel_form(&self) -> ErrorKernelForm {
        self.kernel.form()
    }

    /// Total number of original points represented (`N`).
    pub fn total_points(&self) -> u64 {
        self.total_n
    }

    /// Number of pseudo-points (micro-clusters) in the mixture.
    pub fn num_pseudo_points(&self) -> usize {
        self.pseudos.len()
    }

    /// The fitted (or supplied) per-dimension bandwidths.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// Density at `x` over the full dimensionality (Eq. 10).
    pub fn density(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        self.density_subspace(x, Subspace::full(self.dim)?)
    }

    /// Density at `x` over subspace `S` — the compressed analogue of the
    /// exact `g(x, S, D)`. `x` is in full-dimensional coordinates.
    pub fn density_subspace(&self, x: &[f64], subspace: Subspace) -> Result<f64> {
        self.density_subspace_with_error(x, None, subspace)
    }

    /// Like [`Self::density_subspace`], but additionally convolves each
    /// kernel with the *query point's own* error `ψ(x)`:
    /// the per-dimension kernel variance becomes `h² + Δ² + ψ_j(x)²`.
    ///
    /// This is the density of observing the noisy measurement `x` under
    /// the mixture — the paper's Figure 1 scenario, where the test
    /// example's own error boundary determines which training structure it
    /// could plausibly coincide with. With `query_errors = None` (or all
    /// zeros) it reduces to the plain estimate.
    pub fn density_subspace_with_error(
        &self,
        x: &[f64],
        query_errors: Option<&[f64]>,
        subspace: Subspace,
    ) -> Result<f64> {
        if x.len() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        if let Some(errs) = query_errors {
            if errs.len() != self.dim {
                return Err(UdmError::DimensionMismatch {
                    expected: self.dim,
                    actual: errs.len(),
                });
            }
        }
        subspace.validate_for(self.dim)?;
        if subspace.is_empty() {
            return Err(UdmError::InvalidConfig(
                "cannot evaluate a density over the empty subspace".into(),
            ));
        }
        ensure_finite_slice("query coordinate", x)?;
        ensure_finite_slice_opt("query error", query_errors)?;
        let mut sum = 0.0;
        // Tallied locally, published once per query: no atomics in the loop.
        let mut evals: u64 = 0;
        for p in &self.pseudos {
            let mut prod = f64_from_count(p.weight);
            for j in subspace.dims() {
                let psi = match query_errors {
                    Some(errs) => clamped_sqrt(p.delta[j] * p.delta[j] + errs[j] * errs[j]),
                    None => p.delta[j],
                };
                prod *= self
                    .kernel
                    .evaluate(x[j] - p.centroid[j], self.bandwidths[j], psi);
                evals += 1;
                // udm-lint: allow(UDM002) exact underflow short-circuit (bit-for-bit cache contract)
                if prod == 0.0 {
                    break;
                }
            }
            sum += prod;
        }
        udm_observe::counter_add!("udm_microcluster_kernel_evals_total", evals);
        Ok(sum / f64_from_count(self.total_n))
    }

    /// Builds the per-query kernel-column cache for `x` (optionally
    /// convolved with the query's own error, as in
    /// [`Self::density_subspace_with_error`]): every per-dimension
    /// kernel evaluation of every pseudo-point, computed once and
    /// reusable across all subspace queries of the same test point.
    ///
    /// [`KernelColumns::density`] on the result is bit-for-bit identical
    /// to [`Self::density_subspace_with_error`] for every valid
    /// subspace, including the `prod == 0.0` underflow short-circuit
    /// (the cached row product hits the same hard zero in the same
    /// dimension order).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] on wrong query or error arity.
    pub fn kernel_columns(&self, x: &[f64], query_errors: Option<&[f64]>) -> Result<KernelColumns> {
        self.validate_query(x, query_errors)?;
        let layout = self.layout();
        if layout.degenerate {
            // Point-mass kernels (∞/0) have no factored form; the scalar
            // reference builder handles them, and KernelColumns routes
            // the resulting non-finite cache through its row-wise path.
            return self.build_scalar(x, query_errors);
        }
        match query_errors {
            None => self.build_columnar(x, layout, udm_kde::hot_exp),
            Some(errs) => self.build_columnar_with_errors(x, errs, layout),
        }
    }

    /// The scalar reference column builder: row-major kernel evaluations
    /// in the exact order of the naive density loop. This is the
    /// correctness oracle the columnar build is tested against, and the
    /// fallback for degenerate (point-mass) kernels.
    ///
    /// # Errors
    ///
    /// As [`Self::kernel_columns`].
    pub fn kernel_columns_scalar(
        &self,
        x: &[f64],
        query_errors: Option<&[f64]>,
    ) -> Result<KernelColumns> {
        self.validate_query(x, query_errors)?;
        self.build_scalar(x, query_errors)
    }

    #[doc(hidden)]
    /// Columnar build with the bounded-error exponential *explicitly*,
    /// regardless of the `fast-math` feature: the benchmark suite A/Bs
    /// the exact and fast builds inside one binary with this.
    pub fn kernel_columns_fastexp(&self, x: &[f64]) -> Result<KernelColumns> {
        self.validate_query(x, None)?;
        let layout = self.layout();
        if layout.degenerate {
            return self.build_scalar(x, None);
        }
        // udm-lint: allow(UDM008) bench-only A/B entry point, documented above; default-build callers use kernel_columns
        self.build_columnar(x, layout, udm_kde::fast_exp)
    }

    fn validate_query(&self, x: &[f64], query_errors: Option<&[f64]>) -> Result<()> {
        if x.len() != self.dim {
            return Err(UdmError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        if let Some(errs) = query_errors {
            if errs.len() != self.dim {
                return Err(UdmError::DimensionMismatch {
                    expected: self.dim,
                    actual: errs.len(),
                });
            }
        }
        ensure_finite_slice("query coordinate", x)?;
        ensure_finite_slice_opt("query error", query_errors)?;
        Ok(())
    }

    /// The lazily built SoA layout (first call pays the transpose; all
    /// later column builds stream through it).
    fn layout(&self) -> &ColumnLayout {
        self.layout.0.get_or_init(|| {
            let rows = self.pseudos.len();
            let dim = self.dim;
            let mut layout = ColumnLayout {
                centroids: vec![0.0; rows * dim],
                delta2: vec![0.0; rows * dim],
                prefs: vec![0.0; rows * dim],
                two_vars: vec![0.0; rows * dim],
                weights: Vec::with_capacity(rows),
                degenerate: false,
            };
            for (r, p) in self.pseudos.iter().enumerate() {
                layout.weights.push(f64_from_count(p.weight));
                for j in 0..dim {
                    let at = j * rows + r;
                    layout.centroids[at] = p.centroid[j];
                    layout.delta2[at] = p.delta[j] * p.delta[j];
                    match self.kernel.factors(self.bandwidths[j], p.delta[j]) {
                        Some((pref, two_var)) => {
                            layout.prefs[at] = pref;
                            layout.two_vars[at] = two_var;
                        }
                        None => layout.degenerate = true,
                    }
                }
            }
            layout
        })
    }

    /// Columnar build for plain queries: one [`chunked::gaussian_kernel_row`]
    /// per dimension over the precomputed factors — the same operations
    /// as [`GaussianErrorKernel::evaluate`] per element, so the cache is
    /// bit-identical to the scalar builder's under the same `exp`.
    fn build_columnar<F: Fn(f64) -> f64 + Copy>(
        &self,
        x: &[f64],
        layout: &ColumnLayout,
        exp: F,
    ) -> Result<KernelColumns> {
        let rows = self.pseudos.len();
        let mut cols = vec![0.0; rows * self.dim];
        for (j, &xj) in x.iter().enumerate() {
            let span = j * rows..(j + 1) * rows;
            chunked::gaussian_kernel_row(
                &mut cols[span.clone()],
                xj,
                &layout.centroids[span.clone()],
                &layout.prefs[span.clone()],
                &layout.two_vars[span],
                exp,
            );
        }
        self.publish_build_counters(cols.len());
        KernelColumns::from_dim_major(
            self.dim,
            cols,
            Some(layout.weights.clone()),
            f64_from_count(self.total_n),
        )
    }

    /// Columnar build for error-convolved queries: `ψ` depends on the
    /// query's own per-dimension error, so the kernel factors cannot be
    /// precomputed; still dimension-major and contiguous, with `Δ²` and
    /// `ψ_q²` reused from the layout instead of recomputed per element.
    fn build_columnar_with_errors(
        &self,
        x: &[f64],
        errs: &[f64],
        layout: &ColumnLayout,
    ) -> Result<KernelColumns> {
        let rows = self.pseudos.len();
        let mut cols = vec![0.0; rows * self.dim];
        for j in 0..self.dim {
            let e2 = errs[j] * errs[j];
            let base = j * rows;
            let h = self.bandwidths[j];
            let xj = x[j];
            for r in 0..rows {
                let psi = clamped_sqrt(layout.delta2[base + r] + e2);
                cols[base + r] = self
                    .kernel
                    .evaluate(xj - layout.centroids[base + r], h, psi);
            }
        }
        self.publish_build_counters(cols.len());
        KernelColumns::from_dim_major(
            self.dim,
            cols,
            Some(layout.weights.clone()),
            f64_from_count(self.total_n),
        )
    }

    fn build_scalar(&self, x: &[f64], query_errors: Option<&[f64]>) -> Result<KernelColumns> {
        let mut cols = Vec::with_capacity(self.pseudos.len() * self.dim);
        let mut weights = Vec::with_capacity(self.pseudos.len());
        for p in &self.pseudos {
            weights.push(f64_from_count(p.weight));
            for j in 0..self.dim {
                let psi = match query_errors {
                    Some(errs) => clamped_sqrt(p.delta[j] * p.delta[j] + errs[j] * errs[j]),
                    None => p.delta[j],
                };
                cols.push(
                    self.kernel
                        .evaluate(x[j] - p.centroid[j], self.bandwidths[j], psi),
                );
            }
        }
        self.publish_build_counters(cols.len());
        KernelColumns::new(self.dim, cols, Some(weights), f64_from_count(self.total_n))
    }

    fn publish_build_counters(&self, evals: usize) {
        udm_observe::counter_inc!("udm_microcluster_column_builds_total");
        udm_observe::counter_add!(
            "udm_microcluster_kernel_evals_total",
            u64::try_from(evals).unwrap_or(u64::MAX)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainer::{MaintainerConfig, MicroClusterMaintainer};
    use udm_core::{UncertainDataset, UncertainPoint};
    use udm_kde::quadrature::trapezoid;
    use udm_kde::{BandwidthRule, ErrorKde};

    fn pt(v: f64, e: f64) -> UncertainPoint {
        UncertainPoint::new(vec![v], vec![e]).unwrap()
    }

    fn dataset_1d(n: usize) -> UncertainDataset {
        // deterministic pseudo-random-ish spread with varying errors
        UncertainDataset::from_points(
            (0..n)
                .map(|i| {
                    let x = (i as f64 * 0.618_033_988_749).fract() * 10.0;
                    let e = (i % 5) as f64 * 0.1;
                    pt(x, e)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn empty_clusters_rejected() {
        assert!(MicroClusterKde::fit(&[], KdeConfig::default()).is_err());
        assert!(MicroClusterKde::fit(&[MicroCluster::new(2)], KdeConfig::default()).is_err());
    }

    #[test]
    fn singleton_clusters_reproduce_exact_kde() {
        // One point per cluster (q = N): the micro-cluster density must
        // equal the exact point-based density: each pseudo-point has zero
        // bias so Δ = ψ, and bandwidths agree by construction.
        let d = dataset_1d(40);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(40)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let exact = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        for x in [-1.0, 0.0, 2.5, 5.0, 9.9, 12.0] {
            let a = mc.density(&[x]).unwrap();
            let b = exact.density(&[x]).unwrap();
            assert!((a - b).abs() < 1e-9, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn compressed_density_approximates_exact() {
        let d = dataset_1d(500);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(60)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let exact = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        // L1-style check over a coarse grid: compression error is bounded.
        let mut total_abs = 0.0;
        let mut total = 0.0;
        for i in 0..100 {
            let x = -2.0 + 14.0 * i as f64 / 99.0;
            let a = mc.density(&[x]).unwrap();
            let b = exact.density(&[x]).unwrap();
            total_abs += (a - b).abs();
            total += b;
        }
        assert!(
            total_abs / total < 0.2,
            "relative L1 error {}",
            total_abs / total
        );
    }

    #[test]
    fn density_integrates_to_one() {
        let d = dataset_1d(200);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(20)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let mass = trapezoid(|x| mc.density(&[x]).unwrap(), -40.0, 50.0, 40_001);
        assert!((mass - 1.0).abs() < 1e-6, "mass={mass}");
    }

    #[test]
    fn weighting_by_cluster_size() {
        // Two clusters: one with 9 points at 0, one with 1 point at 10.
        let mut big = MicroCluster::new(1);
        for _ in 0..9 {
            big.insert(&pt(0.0, 0.0)).unwrap();
        }
        let small = MicroCluster::from_point(&pt(10.0, 0.0));
        let mc = MicroClusterKde::fit_with_bandwidths(
            &[big, small],
            vec![1.0],
            ErrorKernelForm::Normalized,
            true,
        )
        .unwrap();
        let at_big = mc.density(&[0.0]).unwrap();
        let at_small = mc.density(&[10.0]).unwrap();
        assert!((at_big / at_small - 9.0).abs() < 1e-6);
    }

    #[test]
    fn subspace_evaluation_ignores_other_dims() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 100.0], vec![0.1, 5.0]).unwrap(),
            UncertainPoint::new(vec![1.0, -100.0], vec![0.2, 5.0]).unwrap(),
            UncertainPoint::new(vec![2.0, 0.0], vec![0.0, 5.0]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(3)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let s0 = Subspace::singleton(0).unwrap();
        let a = mc.density_subspace(&[1.0, 999.0], s0).unwrap();
        let b = mc.density_subspace(&[1.0, -999.0], s0).unwrap();
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn unadjusted_excludes_member_errors() {
        let mut c = MicroCluster::new(1);
        c.insert(&pt(0.0, 5.0)).unwrap();
        c.insert(&pt(1.0, 5.0)).unwrap();
        let adj = MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![0.5],
            ErrorKernelForm::Normalized,
            true,
        )
        .unwrap();
        let unadj = MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![0.5],
            ErrorKernelForm::Normalized,
            false,
        )
        .unwrap();
        // Adjusted spreads much wider -> lower peak at the centroid.
        assert!(adj.density(&[0.5]).unwrap() < unadj.density(&[0.5]).unwrap());
    }

    #[test]
    fn fit_with_bandwidths_validates() {
        let c = MicroCluster::from_point(&pt(0.0, 0.0));
        assert!(MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![1.0, 1.0],
            ErrorKernelForm::Normalized,
            true
        )
        .is_err());
        assert!(MicroClusterKde::fit_with_bandwidths(
            std::slice::from_ref(&c),
            vec![0.0],
            ErrorKernelForm::Normalized,
            true
        )
        .is_err());
    }

    #[test]
    fn query_arity_validated() {
        let d = dataset_1d(10);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(4)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        assert!(mc.density(&[0.0, 1.0]).is_err());
        assert!(mc.density_subspace(&[0.0], Subspace::EMPTY).is_err());
    }

    #[test]
    fn cached_columns_match_naive_bitwise() {
        let points = vec![
            UncertainPoint::new(vec![0.0, 10.0, -3.0], vec![0.1, 0.5, 0.0]).unwrap(),
            UncertainPoint::new(vec![1.0, 12.0, -1.0], vec![0.0, 0.2, 0.4]).unwrap(),
            UncertainPoint::new(vec![2.0, 11.0, -2.0], vec![0.3, 0.1, 0.2]).unwrap(),
            UncertainPoint::new(vec![1.5, 11.5, -2.2], vec![0.2, 0.0, 0.1]).unwrap(),
        ];
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(2)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let x = [0.5, 11.5, -2.5];
        for errs in [None, Some([0.3, 0.0, 0.7].as_slice())] {
            let cols = mc.kernel_columns(&x, errs).unwrap();
            // All 7 non-empty subspaces of 3 dimensions.
            for bits in 1u64..8 {
                let s = Subspace::from_bits(bits);
                let naive = mc.density_subspace_with_error(&x, errs, s).unwrap();
                let cached = cols.density(s).unwrap();
                assert_eq!(
                    naive.to_bits(),
                    cached.to_bits(),
                    "subspace {bits:#b}, errs {errs:?}"
                );
            }
        }
        assert!(mc.kernel_columns(&[0.0], None).is_err());
        assert!(mc.kernel_columns(&x, Some(&[0.0])).is_err());
    }

    #[test]
    fn bandwidths_recovered_from_aggregate_match_exact() {
        let d = dataset_1d(100);
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(100)).unwrap();
        let mc = MicroClusterKde::fit(m.clusters(), KdeConfig::default()).unwrap();
        let hs = BandwidthRule::Silverman.bandwidths(&d).unwrap();
        assert!((mc.bandwidths()[0] - hs[0]).abs() < 1e-9);
    }
}

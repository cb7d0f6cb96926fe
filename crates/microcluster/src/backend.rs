//! Density backends over micro-cluster mixtures: what a
//! `udm_kde::BackendSpec` resolves to.
//!
//! * **Exact** — the model's own [`MicroClusterKde`], borrowed: every
//!   pseudo-point, every query, bit-identical to calling the estimator
//!   directly (the backend methods delegate to the very same inherent
//!   methods).
//! * **Coreset** — [`CoresetKde`]: a discrepancy-style reduction in the
//!   spirit of Phillips & Tai (arXiv:1710.04325). Pseudo-points are
//!   greedily merged (cheapest certified pair first, halving-like
//!   cascades under a shared budget) while a *certified* `L∞` bound on
//!   the density perturbation stays under `eps · f_max`, where `f_max`
//!   is the mixture's peak-density upper bound. The construction is a
//!   deterministic function of the model: same pseudo-points in, same
//!   coreset out.
//!
//! Both are a `MicroClusterKde`, so [`DensityBackend`] is one concrete
//! type and every query — the per-query kernel-column cache included —
//! runs the same arithmetic, over fewer rows for a coreset.
//! [`CoresetCache`] builds each coreset once per `eps` and shares it.
//!
//! ## Certified coreset error bound
//!
//! Replacing weighted kernels `w_a·K_a + w_b·K_b` by `(w_a+w_b)·K_m`
//! (second moments preserved per dimension) perturbs the un-normalized
//! mixture by at most `w_a·sup|K_a−K_m| + w_b·sup|K_b−K_m|`. For
//! product-form Gaussian kernels with per-dimension peak `p_j`, center
//! `c_j` and variance `v_j`, a telescoping bound gives
//!
//! ```text
//! sup |Π_j k_j − Π_j k'_j|  ≤  Σ_j D_j · Π_{l≠j} P_l,   P_l = max(p_l, p'_l, 1)
//! D_j ≤ |p_j−p'_j| + p'_j·( |v_j−v'_j| / (e·min(v_j,v'_j))
//!                          + |c_j−c'_j| · e^{−1/2} / √v'_j )
//! ```
//!
//! using `sup_t |∂/∂v e^{−t²/2v}| ≤ 1/(e·v)` and
//! `sup_t |d/dt e^{−t²/2v}| = e^{−1/2}/√v`. The telescoping bound
//! itself only needs `max(p_l, p'_l)`; clamping each `P_l` at 1 makes
//! it cover every subspace marginal too. A marginal on `S` drops the
//! terms with `j ∉ S` and the factors with `l ∉ S`; every dropped term
//! is `≥ 0` and every dropped factor is `≥ 1`, so the full-space sum
//! bounds each marginal's. The peak bound in the budget is clamped the
//! same way. Merge costs accumulate by the triangle inequality, so the
//! final [`CoresetKde::certified_error`] is a true `L∞` bound against
//! the source mixture and against each of its subspace marginals — the
//! properties the backend-equivalence proptest and
//! `subspace_marginals_stay_inside_the_certificate` check.

use crate::density::MicroClusterKde;
use crate::pseudo::PseudoPoint;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use udm_core::num::{clamped_sqrt, f64_from_count};
use udm_core::{Result, Subspace};
use udm_kde::backend::{record_query, BackendSpec};
use udm_kde::{GaussianErrorKernel, KernelColumns};

/// One resolved density backend: the mixture a query evaluates against.
///
/// Every query entry point records a per-backend query count and
/// latency (`udm_backend_{exact,coreset}_{queries_total,query_seconds}`).
/// Inputs are validated by the wrapped estimator's entry points.
#[derive(Debug)]
pub enum DensityBackend<'a> {
    /// The model's own mixture.
    Exact(&'a MicroClusterKde),
    /// A coreset-reduced copy, shared with the cache that built it.
    Coreset(Arc<CoresetKde>),
}

impl DensityBackend<'_> {
    /// The backend's short name (`"exact"`, `"coreset"`) — the
    /// per-backend metrics key.
    pub fn name(&self) -> &'static str {
        match self {
            DensityBackend::Exact(_) => "exact",
            DensityBackend::Coreset(_) => "coreset",
        }
    }

    /// The mixture every query evaluates.
    pub fn kde(&self) -> &MicroClusterKde {
        match self {
            DensityBackend::Exact(kde) => kde,
            DensityBackend::Coreset(coreset) => coreset.inner(),
        }
    }

    /// Dimensionality of the underlying model.
    pub fn dim(&self) -> usize {
        self.kde().dim()
    }

    fn timed<T>(&self, query: impl FnOnce(&MicroClusterKde) -> Result<T>) -> Result<T> {
        let started = Instant::now();
        let out = query(self.kde());
        record_query(self.name(), started.elapsed().as_secs_f64());
        out
    }

    /// Density at `x` over the full dimensionality.
    ///
    /// # Errors
    ///
    /// Arity mismatches and non-finite inputs.
    pub fn density(&self, x: &[f64]) -> Result<f64> {
        self.density_subspace(x, None, Subspace::full(self.dim())?)
    }

    /// Density at `x` over `subspace`, optionally convolved with the
    /// query's own per-dimension error (the paper's Figure 1 scenario).
    ///
    /// # Errors
    ///
    /// As [`DensityBackend::density`], plus empty/out-of-range subspaces.
    pub fn density_subspace(
        &self,
        x: &[f64],
        query_errors: Option<&[f64]>,
        subspace: Subspace,
    ) -> Result<f64> {
        self.timed(|kde| kde.density_subspace_with_error(x, query_errors, subspace))
    }

    /// Densities at `x` over many subspaces from one kernel-column
    /// build — bit-identical to per-subspace queries by the
    /// `KernelColumns` contract.
    ///
    /// # Errors
    ///
    /// As [`DensityBackend::density_subspace`]; the first failing
    /// subspace aborts the batch.
    pub fn density_subspaces(
        &self,
        x: &[f64],
        query_errors: Option<&[f64]>,
        subspaces: &[Subspace],
    ) -> Result<Vec<f64>> {
        self.timed(|kde| {
            let cols = kde.kernel_columns(x, query_errors)?;
            subspaces.iter().map(|&s| cols.density(s)).collect()
        })
    }

    /// The per-query kernel-column cache every subspace density of `x`
    /// is read from.
    ///
    /// # Errors
    ///
    /// Arity mismatches and non-finite inputs.
    pub fn kernel_columns(&self, x: &[f64], query_errors: Option<&[f64]>) -> Result<KernelColumns> {
        self.timed(|kde| kde.kernel_columns(x, query_errors))
    }
}

/// Coreset reductions of one fixed list of mixtures, built on the first
/// use of each `eps` and shared from then on. The exact spec never
/// touches it: exact backends borrow the mixtures themselves.
#[derive(Debug, Default)]
pub struct CoresetCache {
    built: Mutex<Vec<(u64, Vec<Arc<CoresetKde>>)>>,
}

impl CoresetCache {
    /// Resolves `spec` over `mixtures`, one backend per mixture in
    /// order: `Exact` borrows each mixture, `Coreset { eps }` returns
    /// the cached reductions (building them on first use of `eps`).
    /// Every call on one cache must pass the same mixtures.
    ///
    /// # Errors
    ///
    /// Spec validation and coreset construction failures.
    pub fn resolve<'a>(
        &self,
        spec: &BackendSpec,
        mixtures: impl IntoIterator<Item = &'a MicroClusterKde>,
    ) -> Result<Vec<DensityBackend<'a>>> {
        spec.validate()?;
        let eps = match *spec {
            BackendSpec::Exact => {
                return Ok(mixtures.into_iter().map(DensityBackend::Exact).collect())
            }
            BackendSpec::Coreset { eps } => eps,
        };
        let mut built = self.built.lock().unwrap_or_else(PoisonError::into_inner);
        let coresets = match built.iter().find(|(bits, _)| *bits == eps.to_bits()) {
            Some((_, coresets)) => coresets.clone(),
            None => {
                let coresets = mixtures
                    .into_iter()
                    .map(|kde| CoresetKde::build(kde, eps).map(Arc::new))
                    .collect::<Result<Vec<_>>>()?;
                built.push((eps.to_bits(), coresets.clone()));
                coresets
            }
        };
        Ok(coresets.into_iter().map(DensityBackend::Coreset).collect())
    }
}

// ---- Coreset -------------------------------------------------------------

/// `Σ_i w_i · Π_j max(p_ij, 1)` — an un-normalized peak-density upper
/// bound of the mixture and of every subspace marginal of it (the kernel
/// product is maximized at every diff = 0; the clamp keeps each factor a
/// dropped dimension removes at `≥ 1`).
/// `None` when any kernel degenerates to a point mass, which no
/// finite-error reduction can bound.
fn peak_sum_of(
    pseudos: &[PseudoPoint],
    bandwidths: &[f64],
    kernel: &GaussianErrorKernel,
) -> Option<f64> {
    let mut total = 0.0;
    for p in pseudos {
        let mut prod = f64_from_count(p.weight);
        for (&bw, &dl) in bandwidths.iter().zip(p.delta.iter()) {
            let (pref, _) = kernel.factors(bw, dl)?;
            prod *= pref.max(1.0);
        }
        total += prod;
    }
    Some(total)
}

/// Weighted second-moment-preserving merge of two pseudo-points: the
/// merged Δ² absorbs both spreads *and* the centroid displacement, so
/// the merged kernel matches the pair's per-dimension mean and variance.
fn merge_pseudo(a: &PseudoPoint, b: &PseudoPoint) -> PseudoPoint {
    let wa = f64_from_count(a.weight);
    let wb = f64_from_count(b.weight);
    let w = wa + wb;
    let dim = a.dim();
    let mut centroid = Vec::with_capacity(dim);
    let mut delta = Vec::with_capacity(dim);
    for j in 0..dim {
        let c = (wa * a.centroid[j] + wb * b.centroid[j]) / w;
        centroid.push(c);
        let da = a.centroid[j] - c;
        let db = b.centroid[j] - c;
        let second = (wa * (a.delta[j] * a.delta[j] + da * da)
            + wb * (b.delta[j] * b.delta[j] + db * db))
            / w;
        delta.push(clamped_sqrt(second));
    }
    PseudoPoint {
        centroid,
        delta,
        weight: a.weight + b.weight,
    }
}

/// Certified `sup_x |K_p(x) − K_m(x)|` for two product-form Gaussian
/// kernels and for their marginals on every subspace (see the
/// module-level derivation). Conservative but rigorous;
/// `inf` (merge refused) when any variance degenerates.
fn sup_kernel_diff(
    p: &PseudoPoint,
    m: &PseudoPoint,
    bandwidths: &[f64],
    kernel: &GaussianErrorKernel,
) -> f64 {
    let dim = bandwidths.len();
    let mut d = vec![0.0; dim];
    let mut maxpeak = vec![0.0; dim];
    for j in 0..dim {
        let (Some((pp, ptv)), Some((mp, mtv))) = (
            kernel.factors(bandwidths[j], p.delta[j]),
            kernel.factors(bandwidths[j], m.delta[j]),
        ) else {
            return f64::INFINITY;
        };
        let (pv, mv) = (ptv * 0.5, mtv * 0.5);
        let vmin = pv.min(mv);
        if vmin.is_nan() || vmin <= 0.0 {
            return f64::INFINITY;
        }
        let shift = (p.centroid[j] - m.centroid[j]).abs();
        d[j] = (pp - mp).abs()
            + mp * ((pv - mv).abs() / (std::f64::consts::E * vmin)
                + shift * (-0.5f64).exp() / clamped_sqrt(mv));
        maxpeak[j] = pp.max(mp).max(1.0);
    }
    let mut total = 0.0;
    for (j, &dj) in d.iter().enumerate() {
        let mut term = dj;
        for (l, &pk) in maxpeak.iter().enumerate() {
            if l != j {
                term *= pk;
            }
        }
        total += term;
    }
    total
}

/// Certified un-normalized cost (in `N·density` units) of replacing the
/// pair `(a, b)` by their merge.
fn merge_cost(
    a: &PseudoPoint,
    b: &PseudoPoint,
    bandwidths: &[f64],
    k: &GaussianErrorKernel,
) -> f64 {
    let m = merge_pseudo(a, b);
    f64_from_count(a.weight) * sup_kernel_diff(a, &m, bandwidths, k)
        + f64_from_count(b.weight) * sup_kernel_diff(b, &m, bandwidths, k)
}

/// A bounded-`L∞`-error coreset of a micro-cluster mixture.
///
/// Wraps a reduced [`MicroClusterKde`] built from merged pseudo-points,
/// so evaluation (including the columnar per-query cache) reuses the
/// exact machinery — just over fewer rows. `certified_error` is an
/// absolute `L∞` bound on `|f_coreset − f_exact|` over all of space and
/// every subspace's marginal mixture evaluated at matching peaks — by
/// construction it never exceeds `eps · peak_density_bound`.
#[derive(Debug, Clone)]
pub struct CoresetKde {
    inner: MicroClusterKde,
    eps: f64,
    source_rows: usize,
    certified_error: f64,
    peak_bound: f64,
}

impl CoresetKde {
    /// Runs the deterministic reduction at relative budget `eps`.
    ///
    /// Degenerate mixtures (point-mass kernels, non-finite peak bounds)
    /// fall back to an uncompressed copy with `certified_error = 0`.
    ///
    /// # Errors
    ///
    /// [`udm_core::UdmError::InvalidConfig`] when `eps` leaves `(0, 1)`.
    pub fn build(kde: &MicroClusterKde, eps: f64) -> Result<Self> {
        BackendSpec::Coreset { eps }.validate()?;
        let kernel = GaussianErrorKernel::new(kde.kernel_form());
        let bandwidths = kde.bandwidths().to_vec();
        let n = f64_from_count(kde.total_points());
        let source_rows = kde.pseudo_points().len();

        let exact_copy = |peak_bound: f64| CoresetKde {
            inner: kde.clone(),
            eps,
            source_rows,
            certified_error: 0.0,
            peak_bound,
        };

        let Some(peak_sum) = peak_sum_of(kde.pseudo_points(), &bandwidths, &kernel) else {
            return Ok(exact_copy(f64::INFINITY));
        };
        let peak_bound = peak_sum / n;
        if !peak_bound.is_finite() || peak_bound <= 0.0 {
            return Ok(exact_copy(peak_bound));
        }

        // Canonical order: centroid-lexicographic (ties by spread then
        // weight), so merge candidates are spatial neighbors and the
        // construction is independent of cluster arrival order.
        let mut points: Vec<PseudoPoint> = kde.pseudo_points().to_vec();
        points.sort_by(|a, b| {
            let by_centroid = a
                .centroid
                .iter()
                .zip(b.centroid.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne());
            let by_delta = || {
                a.delta
                    .iter()
                    .zip(b.delta.iter())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
            };
            by_centroid
                .or_else(by_delta)
                .unwrap_or_else(|| a.weight.cmp(&b.weight))
        });

        let budget = eps * peak_sum; // un-normalized units (N·density)
        let mut spent = 0.0;
        let mut costs: Vec<f64> = (0..points.len().saturating_sub(1))
            .map(|i| merge_cost(&points[i], &points[i + 1], &bandwidths, &kernel))
            .collect();
        while points.len() > 1 {
            // Cheapest certified pair first; ties resolve to the lowest
            // index, keeping the cascade deterministic.
            let (best, &cost) = match costs
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
            {
                Some(found) => found,
                None => break,
            };
            if !(cost.is_finite() && spent + cost <= budget) {
                break;
            }
            spent += cost;
            let merged = merge_pseudo(&points[best], &points[best + 1]);
            points[best] = merged;
            points.remove(best + 1);
            costs.remove(best);
            if best < costs.len() {
                costs[best] = merge_cost(&points[best], &points[best + 1], &bandwidths, &kernel);
            }
            if best > 0 {
                costs[best - 1] =
                    merge_cost(&points[best - 1], &points[best], &bandwidths, &kernel);
            }
        }

        let inner = MicroClusterKde::from_pseudo_points(
            points,
            bandwidths,
            kde.kernel_form(),
            kde.total_points(),
        )?;
        Ok(CoresetKde {
            inner,
            eps,
            source_rows,
            certified_error: spent / n,
            peak_bound,
        })
    }

    /// The relative budget the coreset was built at.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Pseudo-points in the reduced mixture.
    pub fn rows(&self) -> usize {
        self.inner.num_pseudo_points()
    }

    /// Pseudo-points in the source mixture.
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// The certified absolute `L∞` error against the source mixture
    /// (`≤ eps · peak_density_bound` by construction).
    pub fn certified_error(&self) -> f64 {
        self.certified_error
    }

    /// Upper bound on the source mixture's peak density.
    pub fn peak_density_bound(&self) -> f64 {
        self.peak_bound
    }

    /// The reduced estimator (exposed for benches and tests).
    pub fn inner(&self) -> &MicroClusterKde {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainer::{MaintainerConfig, MicroClusterMaintainer};
    use udm_core::{UncertainDataset, UncertainPoint};
    use udm_kde::KdeConfig;

    fn fitted(n: usize, q: usize) -> MicroClusterKde {
        let points = (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749).fract() * 10.0;
                let y = (i as f64 * 0.414_213_562_373).fract() * 6.0 - 3.0;
                UncertainPoint::new(vec![x, y], vec![(i % 4) as f64 * 0.1, 0.05]).unwrap()
            })
            .collect();
        let d = UncertainDataset::from_points(points).unwrap();
        let m = MicroClusterMaintainer::from_dataset(&d, MaintainerConfig::new(q)).unwrap();
        MicroClusterKde::fit(m.clusters(), KdeConfig::error_adjusted()).unwrap()
    }

    #[test]
    fn exact_backend_is_bit_identical_to_the_estimator() {
        let kde = fitted(300, 24);
        let be = DensityBackend::Exact(&kde);
        assert_eq!(be.name(), "exact");
        assert_eq!(be.dim(), 2);
        let x = [4.2, -0.3];
        let errs = [0.2, 0.1];
        for s in [
            Subspace::full(2).unwrap(),
            Subspace::singleton(0).unwrap(),
            Subspace::singleton(1).unwrap(),
        ] {
            let direct = kde.density_subspace_with_error(&x, Some(&errs), s).unwrap();
            let via = be.density_subspace(&x, Some(&errs), s).unwrap();
            assert_eq!(direct.to_bits(), via.to_bits());
        }
        let direct = MicroClusterKde::density(&kde, &x).unwrap();
        assert_eq!(direct.to_bits(), be.density(&x).unwrap().to_bits());
        let subs = [Subspace::full(2).unwrap(), Subspace::singleton(1).unwrap()];
        let batch = be.density_subspaces(&x, None, &subs).unwrap();
        for (got, &s) in batch.iter().zip(subs.iter()) {
            let want = kde.density_subspace_with_error(&x, None, s).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let cols = be.kernel_columns(&x, None).unwrap();
        let want = kde.density_subspace_with_error(&x, None, subs[0]).unwrap();
        assert_eq!(cols.density(subs[0]).unwrap().to_bits(), want.to_bits());
    }

    #[test]
    fn coreset_reduces_rows_and_respects_certified_bound() {
        let kde = fitted(500, 48);
        let coreset = CoresetKde::build(&kde, 0.2).unwrap();
        assert!(coreset.rows() < coreset.source_rows(), "nothing merged");
        assert!(coreset.certified_error() <= 0.2 * coreset.peak_density_bound() + 1e-12);
        let full = Subspace::full(2).unwrap();
        for i in 0..40 {
            let x = [i as f64 * 0.25, (i % 7) as f64 - 3.0];
            let exact = kde.density_subspace_with_error(&x, None, full).unwrap();
            let approx = coreset.inner().density_subspace(&x, full).unwrap();
            assert!(
                (exact - approx).abs() <= coreset.certified_error() + 1e-12,
                "x={x:?}: |{exact} - {approx}| > {}",
                coreset.certified_error()
            );
        }
    }

    #[test]
    fn coreset_is_deterministic() {
        let kde = fitted(400, 32);
        let a = CoresetKde::build(&kde, 0.15).unwrap();
        let b = CoresetKde::build(&kde, 0.15).unwrap();
        assert_eq!(a.rows(), b.rows());
        let x = [1.0, 0.5];
        let s = Subspace::full(2).unwrap();
        assert_eq!(
            a.inner().density_subspace(&x, s).unwrap().to_bits(),
            b.inner().density_subspace(&x, s).unwrap().to_bits()
        );
    }

    #[test]
    fn tighter_eps_means_more_rows() {
        let kde = fitted(500, 48);
        let loose = CoresetKde::build(&kde, 0.5).unwrap();
        let tight = CoresetKde::build(&kde, 0.01).unwrap();
        assert!(tight.rows() >= loose.rows());
    }

    #[test]
    fn backends_validate_inputs() {
        let kde = fitted(200, 16);
        let cache = CoresetCache::default();
        for spec in [BackendSpec::Exact, BackendSpec::Coreset { eps: 0.1 }] {
            let be = cache.resolve(&spec, [&kde]).unwrap().remove(0);
            assert_eq!(be.name(), spec.name());
            assert!(be.density(&[0.0]).is_err(), "{spec}: arity unchecked");
            assert!(
                be.density_subspace(&[f64::NAN, 0.0], None, Subspace::full(2).unwrap())
                    .is_err(),
                "{spec}: NaN unchecked"
            );
            assert!(
                be.density_subspace(&[0.0, 0.0], Some(&[0.1]), Subspace::full(2).unwrap())
                    .is_err(),
                "{spec}: error arity unchecked"
            );
            assert!(
                be.density_subspace(&[0.0, 0.0], None, Subspace::EMPTY)
                    .is_err(),
                "{spec}: empty subspace unchecked"
            );
            assert!(be.kernel_columns(&[f64::NAN, 0.0], None).is_err());
        }
    }

    #[test]
    fn coreset_cache_rejects_bad_specs() {
        let kde = fitted(100, 8);
        let cache = CoresetCache::default();
        assert!(cache
            .resolve(&BackendSpec::Coreset { eps: 0.0 }, [&kde])
            .is_err());
    }
}

//! Factorized kernel-column cache for the subspace roll-up hot path.
//!
//! The product form of the error-based density (Eq. 4) factorizes over
//! dimensions: for a fixed query `x`, the kernel value of point `i` in
//! dimension `j` does not depend on which subspace is being evaluated.
//! The roll-up classifier asks for `g(x, S, D)` over *many* subspaces of
//! the same query, so recomputing `Q'_{h_j}(x_j − X_i^j, ψ_j)` per
//! subspace repeats the expensive `exp` calls `O(#subspaces)` times.
//!
//! [`KernelColumns`] materializes the full `n × d` matrix of
//! per-dimension kernel evaluations once per query; every subsequent
//! subspace density is then a sum over rows of a product over the
//! cached columns selected by `S` — no further kernel evaluations.
//!
//! ## Columnar (SoA) layout and the bit-for-bit contract
//!
//! Internally the matrix is stored **dimension-major**: column `j` is
//! the contiguous slice `cols[j·rows .. (j+1)·rows]`. Subspace
//! evaluation is then data-parallel: seed a per-row product
//! accumulator from the weights, multiply each selected column in with
//! the unrolled loops of [`crate::chunked`], and reduce with an
//! ordered sequential sum. The scalar reference loop multiplies each
//! row's kernels in ascending dimension order and sums rows in
//! ascending row order — the columnar schedule performs *the same
//! multiplications on the same operands in the same per-row order* and
//! the same final ordered sum, so the result is bit-for-bit identical.
//!
//! The one behavioural subtlety is the scalar loop's underflow
//! short-circuit (`prod == 0.0 → break`, common in high dimensions).
//! Skipping the break is bit-preserving as long as every cached value
//! is finite: `0.0 × k = 0.0` exactly for any finite `k ≥ 0`, so the
//! remaining multiplies are no-ops. Only `0 × ∞` (possible through the
//! degenerate point-mass kernel) would differ — [`KernelColumns`]
//! therefore records an `all_finite` flag at construction and routes
//! caches containing non-finite values through the scalar loop with
//! the literal break, preserving the contract in the degenerate case
//! too. The naive `density_subspace` remains the correctness oracle.
//!
//! ## Product vectors
//!
//! [`KernelColumns::products_into`] exposes the per-row product vector of
//! a subspace alongside its density, and [`KernelColumns::extend_products`]
//! multiplies one more column into such a vector. Since the columns are
//! multiplied in ascending dimension order, the vector of `S` times
//! column `j > max S` is the vector of `S ∪ {j}` bit for bit, which lets
//! the roll-up classifier reuse the previous level's vectors instead of
//! rebuilding each candidate from its first column.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::chunked;
use udm_core::{Result, Subspace, UdmError};

/// Per-query cache of kernel evaluations, one row per (pseudo-)point and
/// one column per dimension, stored dimension-major (SoA).
///
/// Built by [`crate::ErrorKde::kernel_columns`] for the exact estimator
/// and by `MicroClusterKde::kernel_columns` (in `udm-microcluster`) for
/// the compressed one; both reduce subspace evaluation from
/// `O(n·|S|)` kernel calls to `O(n·|S|)` multiplications.
#[derive(Debug, Clone)]
pub struct KernelColumns {
    rows: usize,
    dim: usize,
    /// Dimension-major `dim × rows` kernel values: column `j` occupies
    /// `cols[j*rows .. (j+1)*rows]`.
    cols: Vec<f64>,
    /// Per-row weights (`n(C_i)` for micro-clusters); `None` means every
    /// row weighs 1, as in the point-based estimator.
    weights: Option<Vec<f64>>,
    /// Normalization divisor (`N` in Eq. 4 / Eq. 10).
    norm: f64,
    /// Whether every cached value is finite; when false the evaluation
    /// falls back to the row-wise loop with the exact short-circuit.
    all_finite: bool,
}

impl KernelColumns {
    /// Assembles a cache from precomputed kernel values in **row-major**
    /// order (`cols[r*dim + j]`), the layout the scalar builders emit;
    /// the values are transposed into the internal columnar layout.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionMismatch`] when `cols.len()` is not a
    /// multiple of `dim` or `weights` (when given) doesn't match the row
    /// count; [`UdmError::EmptyDataset`] for zero rows;
    /// [`UdmError::InvalidValue`] for a non-positive normalizer.
    pub fn new(dim: usize, cols: Vec<f64>, weights: Option<Vec<f64>>, norm: f64) -> Result<Self> {
        Self::validate(dim, &cols, weights.as_deref(), norm)?;
        let rows = cols.len() / dim;
        let mut transposed = vec![0.0; cols.len()];
        for r in 0..rows {
            let row = &cols[r * dim..(r + 1) * dim];
            for (j, &v) in row.iter().enumerate() {
                transposed[j * rows + r] = v;
            }
        }
        Ok(Self::assemble(dim, rows, transposed, weights, norm))
    }

    /// Assembles a cache from values already in the internal
    /// **dimension-major** order (`cols[j*rows + r]`) — the layout the
    /// columnar builders produce directly, skipping the transpose.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn from_dim_major(
        dim: usize,
        cols: Vec<f64>,
        weights: Option<Vec<f64>>,
        norm: f64,
    ) -> Result<Self> {
        Self::validate(dim, &cols, weights.as_deref(), norm)?;
        let rows = cols.len() / dim;
        Ok(Self::assemble(dim, rows, cols, weights, norm))
    }

    fn validate(dim: usize, cols: &[f64], weights: Option<&[f64]>, norm: f64) -> Result<()> {
        if dim == 0 || !cols.len().is_multiple_of(dim) {
            return Err(UdmError::DimensionMismatch {
                expected: dim.max(1),
                actual: cols.len(),
            });
        }
        let rows = cols.len() / dim;
        if rows == 0 {
            return Err(UdmError::EmptyDataset);
        }
        if let Some(w) = weights {
            if w.len() != rows {
                return Err(UdmError::DimensionMismatch {
                    expected: rows,
                    actual: w.len(),
                });
            }
        }
        if !(norm.is_finite() && norm > 0.0) {
            return Err(UdmError::InvalidValue {
                what: "normalizer",
                value: norm,
            });
        }
        Ok(())
    }

    fn assemble(
        dim: usize,
        rows: usize,
        cols: Vec<f64>,
        weights: Option<Vec<f64>>,
        norm: f64,
    ) -> Self {
        let all_finite = cols.iter().all(|v| v.is_finite());
        KernelColumns {
            rows,
            dim,
            cols,
            weights,
            norm,
            all_finite,
        }
    }

    /// Number of cached rows (points or pseudo-points).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Full dimensionality of the cache.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether subspace queries take the dim-major columnar fast path.
    /// `false` means a non-finite kernel value was cached and every query
    /// falls back to the row-wise ordering; serving layers surface this so
    /// an operator can tell which arithmetic path produced a response.
    pub fn is_columnar(&self) -> bool {
        self.all_finite
    }

    /// Column `j` as a contiguous slice (one kernel value per row).
    #[inline]
    fn column(&self, j: usize) -> &[f64] {
        &self.cols[j * self.rows..(j + 1) * self.rows]
    }

    /// Density over `subspace` from the cached columns alone.
    ///
    /// Matches the naive estimator bit-for-bit: same multiply order
    /// (ascending dimension), same starting weight, same final ordered
    /// sum; the underflow short-circuit is either a no-op (all values
    /// finite — see the module docs) or taken literally (fallback).
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionOutOfRange`] if `subspace` exceeds the
    /// cached dimensionality; [`UdmError::InvalidConfig`] for the empty
    /// subspace.
    pub fn density(&self, subspace: Subspace) -> Result<f64> {
        if !self.all_finite {
            self.check_subspace(subspace)?;
            return Ok(self.density_rowwise(subspace));
        }
        chunked::with_scratch(self.rows, |prod| self.products_into(subspace, prod))
    }

    /// Writes the per-row product vector of `subspace` into `out` and
    /// returns its density: each row's weight times its kernel values
    /// over `subspace`, multiplied in ascending dimension order, then
    /// the ordered sum over rows divided by the normalizer. This is the
    /// columnar path of [`Self::density`], which it matches bit for bit
    /// on a cache for which [`Self::is_columnar`] holds.
    ///
    /// # Errors
    ///
    /// As [`Self::density`], plus [`UdmError::DimensionMismatch`] when
    /// `out` does not have [`Self::rows`] entries.
    pub fn products_into(&self, subspace: Subspace, out: &mut [f64]) -> Result<f64> {
        self.check_subspace(subspace)?;
        self.check_rows(out.len())?;
        chunked::seed_products(out, self.weights.as_deref());
        for j in subspace.dims() {
            chunked::mul_assign(out, self.column(j));
        }
        Ok(chunked::ordered_sum(out) / self.norm)
    }

    /// Extends the product vector `prefix` of a subspace `S` by column
    /// `j` into `out` and returns the density of the result. When `j` is
    /// above every dimension of `S`, this is the last multiply of
    /// [`Self::products_into`] for `S ∪ {j}`, so vector and density are
    /// that method's bit for bit.
    ///
    /// # Errors
    ///
    /// [`UdmError::DimensionOutOfRange`] for `j ≥` [`Self::dim`];
    /// [`UdmError::DimensionMismatch`] when `prefix` or `out` does not
    /// have [`Self::rows`] entries.
    pub fn extend_products(&self, prefix: &[f64], j: usize, out: &mut [f64]) -> Result<f64> {
        if j >= self.dim {
            return Err(UdmError::DimensionOutOfRange {
                dim: j,
                dimensionality: self.dim,
            });
        }
        self.check_rows(prefix.len())?;
        self.check_rows(out.len())?;
        Ok(chunked::mul_into_ordered_sum(out, prefix, self.column(j)) / self.norm)
    }

    fn check_subspace(&self, subspace: Subspace) -> Result<()> {
        subspace.validate_for(self.dim)?;
        if subspace.is_empty() {
            return Err(UdmError::InvalidConfig(
                "cannot evaluate a density over the empty subspace".into(),
            ));
        }
        Ok(())
    }

    fn check_rows(&self, len: usize) -> Result<()> {
        if len == self.rows {
            Ok(())
        } else {
            Err(UdmError::DimensionMismatch {
                expected: self.rows,
                actual: len,
            })
        }
    }

    /// The scalar reference schedule: row-wise products with the
    /// literal `prod == 0.0` short-circuit, for caches that contain
    /// non-finite values (degenerate point-mass kernels).
    fn density_rowwise(&self, subspace: Subspace) -> f64 {
        let mut sum = 0.0;
        for r in 0..self.rows {
            let mut prod = match &self.weights {
                Some(w) => w[r],
                None => 1.0,
            };
            for j in subspace.dims() {
                prod *= self.cols[j * self.rows + r];
                // udm-lint: allow(UDM002) exact underflow short-circuit (bit-for-bit cache contract)
                if prod == 0.0 {
                    break;
                }
            }
            sum += prod;
        }
        sum / self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_shape_and_norm() {
        assert!(KernelColumns::new(0, vec![], None, 1.0).is_err());
        assert!(KernelColumns::new(2, vec![1.0; 3], None, 1.0).is_err());
        assert!(KernelColumns::new(2, vec![], None, 1.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], Some(vec![1.0, 2.0]), 1.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], None, 0.0).is_err());
        assert!(KernelColumns::new(1, vec![1.0], None, f64::NAN).is_err());
        let c = KernelColumns::new(2, vec![0.5, 0.25, 1.0, 2.0], None, 2.0).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.dim(), 2);
        assert!(KernelColumns::from_dim_major(2, vec![1.0; 3], None, 1.0).is_err());
        assert!(KernelColumns::from_dim_major(1, vec![1.0], None, -1.0).is_err());
    }

    #[test]
    fn density_is_weighted_row_products_over_norm() {
        // rows: [0.5, 0.25], [1.0, 2.0]; weights 3, 1; norm 4
        let c =
            KernelColumns::new(2, vec![0.5, 0.25, 1.0, 2.0], Some(vec![3.0, 1.0]), 4.0).unwrap();
        let full = Subspace::full(2).unwrap();
        let expected = (3.0 * 0.5 * 0.25 + 1.0 * 2.0) / 4.0;
        assert_eq!(c.density(full).unwrap(), expected);
        let s0 = Subspace::singleton(0).unwrap();
        assert_eq!(c.density(s0).unwrap(), (3.0 * 0.5 + 1.0) / 4.0);
    }

    #[test]
    fn dim_major_constructor_matches_row_major() {
        // Same 2×2 matrix given in both layouts must evaluate identically.
        let row_major = KernelColumns::new(2, vec![0.5, 0.25, 1.0, 2.0], None, 2.0).unwrap();
        // dim-major: column 0 = [0.5, 1.0], column 1 = [0.25, 2.0]
        let dim_major =
            KernelColumns::from_dim_major(2, vec![0.5, 1.0, 0.25, 2.0], None, 2.0).unwrap();
        for s in [
            Subspace::singleton(0).unwrap(),
            Subspace::singleton(1).unwrap(),
            Subspace::full(2).unwrap(),
        ] {
            assert_eq!(
                row_major.density(s).unwrap().to_bits(),
                dim_major.density(s).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn rejects_bad_subspaces() {
        let c = KernelColumns::new(1, vec![1.0], None, 1.0).unwrap();
        assert!(c.density(Subspace::EMPTY).is_err());
        assert!(c.density(Subspace::singleton(1).unwrap()).is_err());
    }

    #[test]
    fn zero_column_short_circuits_like_naive() {
        // A hard-zero kernel value (underflow) must zero the whole row
        // regardless of later columns — including columns that would
        // produce non-finite garbage if multiplied after the break.
        // The ∞ forces the row-wise fallback path with the literal break.
        let c = KernelColumns::new(
            3,
            vec![
                0.0,
                f64::INFINITY, // never reached: prod is already 0
                5.0,
                1.0,
                1.0,
                1.0,
            ],
            None,
            2.0,
        )
        .unwrap();
        let full = Subspace::full(3).unwrap();
        // Row 0 contributes exactly 0 (short-circuit), row 1 contributes 1.
        assert_eq!(c.density(full).unwrap(), 0.5);
        assert!(c.density(full).unwrap().is_finite());
    }

    #[test]
    fn hard_zero_rows_stay_zero_on_the_columnar_path() {
        // All-finite cache with an underflowed value: the columnar path
        // (no break) must produce the same hard zero the scalar loop's
        // short-circuit does, for every subspace containing dim 0.
        let c =
            KernelColumns::new(2, vec![0.0, 1e-300, 2.0, 3.0], Some(vec![5.0, 1.0]), 2.0).unwrap();
        let full = Subspace::full(2).unwrap();
        // Row 0: 5·0·1e-300 = 0 exactly; row 1: 1·2·3 = 6.
        assert_eq!(c.density(full).unwrap().to_bits(), (6.0f64 / 2.0).to_bits());
    }

    #[test]
    fn columnar_matches_rowwise_schedule_bitwise() {
        // Random-ish finite cache: the columnar fast path and the scalar
        // reference schedule must agree bit-for-bit on every subspace.
        let dim = 5;
        let rows = 37;
        let mut vals = Vec::with_capacity(dim * rows);
        for i in 0..dim * rows {
            // Deterministic spread over several magnitudes, incl. exact 0s.
            let v = if i % 11 == 0 {
                0.0
            } else {
                (i as f64 * 0.618_033_988_749).fract() * 10f64.powi((i % 7) as i32 - 3)
            };
            vals.push(v);
        }
        let weights: Vec<f64> = (0..rows).map(|r| 1.0 + (r % 5) as f64).collect();
        let c = KernelColumns::new(dim, vals, Some(weights), 3.5).unwrap();
        assert!(c.all_finite);
        for bits in 1u64..(1 << dim) {
            let s = Subspace::from_bits(bits);
            let fast = c.density(s).unwrap();
            let reference = c.density_rowwise(s);
            assert_eq!(fast.to_bits(), reference.to_bits(), "subspace {bits:#b}");
        }
    }
}

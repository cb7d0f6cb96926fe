//! Randomized cross-backend contracts (satellite proptests for the
//! pluggable-backend refactor):
//!
//! 1. the `Exact` backend answers **bit-identically** to the inherent
//!    `MicroClusterKde` entry points it wraps, over random models,
//!    random queries, random query errors, and random subspaces;
//! 2. a `CoresetKde` never deviates from the exact density by more than
//!    its own `certified_error()` bound, and that bound respects the
//!    requested `eps` times the model's peak density bound;
//! 3. the `Coreset` backend is deterministic: the same (model, query,
//!    subspace) pair always reproduces the same bits, across rebuilds.
//!
//! The generator is a hand-rolled xorshift so every case is replayable
//! from the printed seed — no external property-testing dependency.

use udm_core::{Subspace, UncertainPoint};
use udm_kde::{BackendSpec, KdeConfig};
use udm_microcluster::{
    CoresetCache, CoresetKde, DensityBackend, MaintainerConfig, MicroClusterKde,
    MicroClusterMaintainer,
};

/// xorshift64* — deterministic, seed-replayable case generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        // 53 mantissa bits of the raw stream.
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        // n is tiny (dims/choices), so modulo bias is irrelevant here.
        (self.next() % n as u64) as usize
    }
}

/// Fits a random micro-cluster KDE: `n` clustered points in `dim`
/// dimensions with random per-dimension errors, compressed to `q`
/// pseudo-points.
fn random_model(rng: &mut Rng, dim: usize, n: usize, q: usize) -> MicroClusterKde {
    let mut maintainer = MicroClusterMaintainer::new(dim, MaintainerConfig::new(q)).unwrap();
    let modes = 2 + rng.below(3);
    let centers: Vec<Vec<f64>> = (0..modes)
        .map(|_| (0..dim).map(|_| rng.range(-4.0, 4.0)).collect())
        .collect();
    for t in 0..n {
        let c = &centers[rng.below(modes)];
        let values: Vec<f64> = c.iter().map(|&m| m + rng.range(-1.0, 1.0)).collect();
        let errors: Vec<f64> = (0..dim).map(|_| rng.range(0.0, 0.5)).collect();
        let p = UncertainPoint::new(values, errors)
            .unwrap()
            .with_timestamp(t as u64);
        maintainer.insert(&p).unwrap();
    }
    MicroClusterKde::fit(maintainer.clusters(), KdeConfig::error_adjusted()).unwrap()
}

/// A random non-empty subspace of `dim` dimensions.
fn random_subspace(rng: &mut Rng, dim: usize) -> Subspace {
    loop {
        let dims: Vec<usize> = (0..dim).filter(|_| rng.unit() < 0.5).collect();
        if !dims.is_empty() {
            return Subspace::from_dims(&dims).unwrap();
        }
    }
}

fn random_query(rng: &mut Rng, dim: usize) -> (Vec<f64>, Option<Vec<f64>>) {
    let x: Vec<f64> = (0..dim).map(|_| rng.range(-5.0, 5.0)).collect();
    let errors = if rng.unit() < 0.5 {
        Some((0..dim).map(|_| rng.range(0.0, 0.4)).collect())
    } else {
        None
    };
    (x, errors)
}

#[test]
fn exact_backend_is_bit_identical_on_random_models() {
    for case in 0..12u64 {
        let seed = 0xA11C_E000 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(4);
        let n = 40 + rng.below(160);
        let q = 8 + rng.below(24);
        let kde = random_model(&mut rng, dim, n, q);
        let backend = DensityBackend::Exact(&kde);
        assert_eq!(backend.name(), "exact", "case seed {seed}");
        for _ in 0..16 {
            let (x, errors) = random_query(&mut rng, dim);
            let sub = random_subspace(&mut rng, dim);

            let want_full = kde.density(&x).unwrap();
            let got_full = backend.density(&x).unwrap();
            assert_eq!(
                got_full.to_bits(),
                want_full.to_bits(),
                "full-space density diverged, case seed {seed}"
            );

            let want = kde
                .density_subspace_with_error(&x, errors.as_deref(), sub)
                .unwrap();
            let got = backend
                .density_subspace(&x, errors.as_deref(), sub)
                .unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "subspace density diverged, case seed {seed}"
            );

            // The batch entry and the columnar cache agree bit-for-bit
            // with the scalar entry points.
            let many = backend
                .density_subspaces(&x, errors.as_deref(), &[sub])
                .unwrap();
            assert_eq!(many.len(), 1);
            assert_eq!(many[0].to_bits(), want.to_bits(), "case seed {seed}");
            let cols = backend.kernel_columns(&x, errors.as_deref()).unwrap();
            assert_eq!(
                cols.density(sub).unwrap().to_bits(),
                want.to_bits(),
                "columnar density diverged, case seed {seed}"
            );
        }
    }
}

#[test]
fn coreset_respects_its_certified_error_on_random_models() {
    for case in 0..10u64 {
        let seed = 0xC0DE_5E70 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(3);
        let n = 60 + rng.below(200);
        let q = 16 + rng.below(32);
        let kde = random_model(&mut rng, dim, n, q);
        let eps = rng.range(0.01, 0.3);
        let coreset = CoresetKde::build(&kde, eps).unwrap();
        assert!(
            coreset.rows() <= coreset.source_rows(),
            "compression grew the model, case seed {seed}"
        );
        let budget = coreset.certified_error();
        assert!(
            budget <= eps * coreset.peak_density_bound() + 1e-12,
            "certified error {budget} above eps budget, case seed {seed}"
        );
        for _ in 0..24 {
            let (x, _) = random_query(&mut rng, dim);
            let exact = kde.density(&x).unwrap();
            let approx = coreset.inner().density(&x).unwrap();
            // Absolute L∞ guarantee plus float slack from the bound
            // arithmetic itself.
            let slack = budget + 1e-9 * (1.0 + exact.abs());
            assert!(
                (approx - exact).abs() <= slack,
                "|{approx} - {exact}| > {slack} (eps {eps}), case seed {seed}"
            );
        }
    }
}

#[test]
fn approximate_backends_are_deterministic_across_rebuilds() {
    for case in 0..4u64 {
        let seed = 0xDE7E_3713 + case;
        let mut rng = Rng::new(seed);
        let dim = 1 + rng.below(3);
        let kde = random_model(&mut rng, dim, 120, 24);
        let spec = BackendSpec::Coreset { eps: 0.1 };
        let a = CoresetCache::default()
            .resolve(&spec, [&kde])
            .unwrap()
            .remove(0);
        let b = CoresetCache::default()
            .resolve(&spec, [&kde])
            .unwrap()
            .remove(0);
        for _ in 0..12 {
            let (x, errors) = random_query(&mut rng, dim);
            let sub = random_subspace(&mut rng, dim);
            let first = a.density_subspace(&x, errors.as_deref(), sub).unwrap();
            let again = a.density_subspace(&x, errors.as_deref(), sub).unwrap();
            let rebuilt = b.density_subspace(&x, errors.as_deref(), sub).unwrap();
            assert_eq!(
                first.to_bits(),
                again.to_bits(),
                "{spec} not stable across repeat queries, case seed {seed}"
            );
            assert_eq!(
                first.to_bits(),
                rebuilt.to_bits(),
                "{spec} not stable across rebuilds, case seed {seed}"
            );
        }
    }
}

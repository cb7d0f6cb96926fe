//! Temporary review probe: does certified_error bound SUBSPACE errors?

use udm_core::{Subspace, UncertainPoint};
use udm_kde::KdeConfig;
use udm_microcluster::{CoresetKde, MaintainerConfig, MicroClusterKde, MicroClusterMaintainer};

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_model(rng: &mut Rng, dim: usize, n: usize, q: usize) -> MicroClusterKde {
    let mut maintainer = MicroClusterMaintainer::new(dim, MaintainerConfig::new(q)).unwrap();
    let modes = 2 + rng.below(3);
    let centers: Vec<Vec<f64>> = (0..modes)
        .map(|_| (0..dim).map(|_| rng.range(-4.0, 4.0)).collect())
        .collect();
    for t in 0..n {
        let c = &centers[rng.below(modes)];
        let values: Vec<f64> = c.iter().map(|&m| m + rng.range(-1.0, 1.0)).collect();
        let errors: Vec<f64> = (0..dim).map(|_| rng.range(0.5, 2.0)).collect();
        let p = UncertainPoint::new(values, errors)
            .unwrap()
            .with_timestamp(t as u64);
        maintainer.insert(&p).unwrap();
    }
    MicroClusterKde::fit(maintainer.clusters(), KdeConfig::error_adjusted()).unwrap()
}

#[test]
fn probe_subspace_certificate() {
    let mut worst: f64 = 0.0;
    let mut violations = 0usize;
    for case in 0..40u64 {
        let mut rng = Rng(0xBEEF + case);
        let dim = 2 + rng.below(3);
        let n = 80 + rng.below(150);
        let q = 16 + rng.below(24);
        let kde = random_model(&mut rng, dim, n, q);
        let eps = rng.range(0.05, 0.3);
        let coreset = CoresetKde::build(&kde, eps).unwrap();
        if coreset.rows() == coreset.source_rows() {
            continue;
        }
        let budget = coreset.certified_error();
        if budget <= 0.0 {
            continue;
        }
        for _ in 0..200 {
            let x: Vec<f64> = (0..dim).map(|_| rng.range(-5.0, 5.0)).collect();
            for d in 0..dim {
                let s = Subspace::singleton(d).unwrap();
                let exact = kde.density_subspace_with_error(&x, None, s).unwrap();
                let approx = coreset
                    .inner()
                    .density_subspace_with_error(&x, None, s)
                    .unwrap();
                let err = (approx - exact).abs();
                let ratio = err / budget;
                if ratio > worst {
                    worst = ratio;
                }
                if err > budget * (1.0 + 1e-9) + 1e-12 {
                    violations += 1;
                }
            }
        }
    }
    println!("worst err/certified ratio = {worst}, violations = {violations}");
    assert!(
        violations == 0,
        "subspace certificate violated, worst ratio {worst}"
    );
}

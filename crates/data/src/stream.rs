//! Drifting stream workloads.
//!
//! The paper frames micro-clustering as a *stream* method ("the data
//! stream consists of a set of multi-dimensional records X̄₁…X̄ₖ…
//! arriving at time stamps T₁…Tₖ…", §2.1). This generator produces such
//! streams with **concept drift**: a sequence of regimes, each an
//! arbitrary labelled mixture with its own duration and error scale.
//! Timestamps are attached, so the output feeds the maintainer and the
//! pyramidal store directly.

use crate::synth::{standard_normal, MixtureGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udm_core::{Result, UdmError, UncertainDataset, UncertainPoint};

/// One phase of a drifting stream.
#[derive(Debug, Clone)]
pub struct Regime {
    /// The population points are drawn from during this regime.
    pub mixture: MixtureGenerator,
    /// How many arrivals the regime lasts.
    pub duration: u64,
    /// Per-cell error scale: each cell's ψ is drawn from `U[0, scale]`
    /// and its value displaced by `N(0, ψ²)`.
    pub error_scale: f64,
}

/// Generates a timestamped uncertain stream from a regime schedule.
#[derive(Debug, Clone)]
pub struct DriftingStream {
    regimes: Vec<Regime>,
    seed: u64,
}

impl DriftingStream {
    /// Creates the generator, validating the schedule.
    pub fn new(regimes: Vec<Regime>, seed: u64) -> Result<Self> {
        if regimes.is_empty() {
            return Err(UdmError::InvalidConfig(
                "stream needs at least one regime".into(),
            ));
        }
        let dim = regimes[0].mixture.dim();
        for (i, r) in regimes.iter().enumerate() {
            if r.mixture.dim() != dim {
                return Err(UdmError::DimensionMismatch {
                    expected: dim,
                    actual: r.mixture.dim(),
                });
            }
            if r.duration == 0 {
                return Err(UdmError::InvalidConfig(format!(
                    "regime {i} has zero duration"
                )));
            }
            if !(r.error_scale.is_finite() && r.error_scale >= 0.0) {
                return Err(UdmError::InvalidValue {
                    what: "regime error scale",
                    value: r.error_scale,
                });
            }
        }
        Ok(DriftingStream { regimes, seed })
    }

    /// Total arrivals across the whole schedule.
    pub fn total_duration(&self) -> u64 {
        self.regimes.iter().map(|r| r.duration).sum()
    }

    /// Dimensionality of the stream.
    pub fn dim(&self) -> usize {
        self.regimes[0].mixture.dim()
    }

    /// Materializes the entire stream as a timestamped dataset (labels
    /// come from the regimes' mixtures). Deterministic in `seed`.
    pub fn generate(&self) -> UncertainDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = UncertainDataset::new(self.dim());
        let mut t: u64 = 0;
        for (i, regime) in self.regimes.iter().enumerate() {
            // Draw the regime's clean points in one batch (deterministic
            // per regime), then perturb cell-wise.
            // Regime durations are experiment-sized; usize holds them.
            #[allow(clippy::cast_possible_truncation)]
            let clean = regime
                .mixture
                .generate(regime.duration as usize, self.seed ^ (i as u64) << 32);
            for p in clean.iter() {
                let mut values = Vec::with_capacity(self.dim());
                let mut errors = Vec::with_capacity(self.dim());
                for j in 0..self.dim() {
                    let psi = rng.gen::<f64>() * regime.error_scale;
                    let displaced = if psi > 0.0 {
                        p.value(j) + psi * standard_normal(&mut rng)
                    } else {
                        p.value(j)
                    };
                    values.push(displaced);
                    errors.push(psi);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "regime means/stds/error_scale validated finite, so cells are finite"
                )]
                let mut q = UncertainPoint::new(values, errors).expect("finite cells");
                if let Some(l) = p.label() {
                    q = q.with_label(l);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "all regimes share dim(), checked at construction"
                )]
                out.push(q.with_timestamp(t)).expect("uniform dims");
                t += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::GaussianClassSpec;

    fn mixture_at(center: f64) -> MixtureGenerator {
        MixtureGenerator::new(
            1,
            vec![GaussianClassSpec::spherical(vec![center], 0.5, 1.0)],
        )
        .unwrap()
    }

    fn two_regimes() -> DriftingStream {
        DriftingStream::new(
            vec![
                Regime {
                    mixture: mixture_at(0.0),
                    duration: 200,
                    error_scale: 0.1,
                },
                Regime {
                    mixture: mixture_at(30.0),
                    duration: 100,
                    error_scale: 1.0,
                },
            ],
            7,
        )
        .unwrap()
    }

    #[test]
    fn validates_schedule() {
        assert!(DriftingStream::new(vec![], 0).is_err());
        assert!(DriftingStream::new(
            vec![Regime {
                mixture: mixture_at(0.0),
                duration: 0,
                error_scale: 0.1,
            }],
            0
        )
        .is_err());
        assert!(DriftingStream::new(
            vec![Regime {
                mixture: mixture_at(0.0),
                duration: 10,
                error_scale: -1.0,
            }],
            0
        )
        .is_err());
    }

    #[test]
    fn timestamps_are_sequential_and_total_matches() {
        let s = two_regimes();
        assert_eq!(s.total_duration(), 300);
        let d = s.generate();
        assert_eq!(d.len(), 300);
        for (i, p) in d.iter().enumerate() {
            assert_eq!(p.timestamp(), i as u64);
        }
    }

    #[test]
    fn regimes_shift_the_distribution() {
        let d = two_regimes().generate();
        let early: f64 = d.points()[..200].iter().map(|p| p.value(0)).sum::<f64>() / 200.0;
        let late: f64 = d.points()[200..].iter().map(|p| p.value(0)).sum::<f64>() / 100.0;
        assert!(early.abs() < 1.0, "early mean {early}");
        assert!((late - 30.0).abs() < 2.0, "late mean {late}");
    }

    #[test]
    fn error_scales_differ_between_regimes() {
        let d = two_regimes().generate();
        let early_err: f64 = d.points()[..200].iter().map(|p| p.error(0)).sum::<f64>() / 200.0;
        let late_err: f64 = d.points()[200..].iter().map(|p| p.error(0)).sum::<f64>() / 100.0;
        assert!(late_err > early_err * 3.0, "{early_err} vs {late_err}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = two_regimes().generate();
        let b = two_regimes().generate();
        assert_eq!(a, b);
        let c = DriftingStream::new(
            vec![Regime {
                mixture: mixture_at(0.0),
                duration: 300,
                error_scale: 0.1,
            }],
            8,
        )
        .unwrap()
        .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn single_regime_schedule_works() {
        let s = DriftingStream::new(
            vec![Regime {
                mixture: mixture_at(5.0),
                duration: 120,
                error_scale: 0.2,
            }],
            3,
        )
        .unwrap();
        assert_eq!(s.total_duration(), 120);
        assert_eq!(s.dim(), 1);
        let d = s.generate();
        assert_eq!(d.len(), 120);
        let mean: f64 = d.iter().map(|p| p.value(0)).sum::<f64>() / 120.0;
        assert!((mean - 5.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn timestamps_strictly_increase_across_regime_boundaries() {
        // Three regimes; the u64 timestamps must keep strictly increasing
        // through both boundaries, with no reset or repeat per regime.
        let s = DriftingStream::new(
            vec![
                Regime {
                    mixture: mixture_at(0.0),
                    duration: 50,
                    error_scale: 0.1,
                },
                Regime {
                    mixture: mixture_at(10.0),
                    duration: 70,
                    error_scale: 0.1,
                },
                Regime {
                    mixture: mixture_at(20.0),
                    duration: 30,
                    error_scale: 0.1,
                },
            ],
            13,
        )
        .unwrap();
        let d = s.generate();
        assert_eq!(d.len(), 150);
        let ts: Vec<u64> = d.iter().map(|p| p.timestamp()).collect();
        assert!(ts.windows(2).all(|w| w[1] == w[0] + 1));
        // Boundary arrivals continue the global clock.
        assert_eq!(ts[49], 49);
        assert_eq!(ts[50], 50);
        assert_eq!(ts[119], 119);
        assert_eq!(ts[120], 120);
        assert_eq!(ts[149], 149);
    }

    #[test]
    fn zero_error_scale_yields_exact_cells() {
        let s = DriftingStream::new(
            vec![Regime {
                mixture: mixture_at(2.0),
                duration: 80,
                error_scale: 0.0,
            }],
            4,
        )
        .unwrap();
        let d = s.generate();
        // ψ must be bit-exact zero and the values undisplaced, so every
        // point reports itself as exact.
        for p in d.iter() {
            assert!(p.is_exact());
            assert_eq!(p.error(0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn feeds_the_micro_cluster_pipeline() {
        // The contract this module exists for.
        let d = two_regimes().generate();
        assert!(d.iter().any(|p| !p.is_exact()));
        assert!(d.iter().all(|p| p.label().is_some()));
    }
}

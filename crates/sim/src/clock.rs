//! Deterministic virtual TSC and trial jitter.
//!
//! The paper measures latency "in cycles using the cycle counter" and runs
//! "many trials" whose throughput forms a distribution (the CDFs of
//! Figures 3–5). Real trials vary because of interrupts, cache state, and
//! scheduler noise; the simulation reproduces that spread with a seeded
//! log-normal jitter so runs are reproducible bit-for-bit.

use kop_core::Cycles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A virtual cycle counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleClock {
    now: Cycles,
}

impl CycleClock {
    /// A clock at zero.
    pub fn new() -> CycleClock {
        CycleClock::default()
    }

    /// Current counter (rdtsc).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Advance by a (possibly fractional) cycle count.
    pub fn advance(&mut self, cycles: f64) {
        self.now += Cycles(cycles.max(0.0).round() as u64);
    }
}

/// Seeded log-normal multiplicative jitter.
///
/// `factor()` returns a multiplier with median 1.0; `sigma` controls the
/// spread. A log-normal matches the right-skewed timing noise real
/// measurement exhibits (occasional slow outliers, hard floor).
#[derive(Clone, Debug)]
pub struct Jitter {
    rng: StdRng,
    sigma: f64,
}

impl Jitter {
    /// Create with a seed (same seed ⇒ same sequence).
    pub fn new(seed: u64, sigma: f64) -> Jitter {
        Jitter {
            rng: StdRng::seed_from_u64(seed),
            sigma,
        }
    }

    /// Next multiplicative factor (median 1.0).
    pub fn factor(&mut self) -> f64 {
        // Box-Muller from two uniforms; avoids needing rand_distr.
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.sigma * z).exp()
    }

    /// Occasionally-huge outlier factor with probability `p` (models the
    /// "ring full, application descheduled" outliers the paper excludes
    /// from Figure 7 — "can be in excess of 10 million cycles").
    pub fn outlier(&mut self, p: f64, magnitude: f64) -> Option<f64> {
        if self.rng.random::<f64>() < p {
            Some(magnitude * (1.0 + self.rng.random::<f64>()))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let mut c = CycleClock::new();
        c.advance(99.6);
        assert_eq!(c.now(), Cycles(100));
        c.advance(-5.0); // clamped
        assert_eq!(c.now(), Cycles(100));
    }

    #[test]
    fn jitter_is_deterministic() {
        let mut a = Jitter::new(42, 0.02);
        let mut b = Jitter::new(42, 0.02);
        for _ in 0..100 {
            assert_eq!(a.factor(), b.factor());
        }
        let mut c = Jitter::new(43, 0.02);
        assert_ne!(a.factor(), c.factor());
    }

    #[test]
    fn jitter_centered_near_one() {
        let mut j = Jitter::new(7, 0.02);
        let n = 20_000;
        let mut sum = 0.0;
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for _ in 0..n {
            let f = j.factor();
            sum += f;
            min = min.min(f);
            max = max.max(f);
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!(min > 0.85 && max < 1.15, "spread [{min}, {max}]");
    }

    #[test]
    fn outliers_rare_and_large() {
        let mut j = Jitter::new(9, 0.02);
        let mut count = 0;
        for _ in 0..100_000 {
            if let Some(f) = j.outlier(0.001, 10_000.0) {
                assert!(f >= 10_000.0);
                count += 1;
            }
        }
        // ~100 expected.
        assert!((20..500).contains(&count), "outliers {count}");
    }
}

//! Deterministic workload generation.
//!
//! §7's protocol: preload the database with random key-value pairs, then
//! issue random inserts and random queries over the key space. The
//! generator here draws the key indices reproducibly from a uniform or a
//! zipfian (hot-key) distribution, and builds values of a configurable
//! size that embed their index.

use dam_stats::rng::Rng;

/// How keys are drawn from the key space `[0, n_keys)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with the given exponent (`~0.99` is the YCSB default);
    /// key 0 is hottest.
    Zipfian(f64),
}

/// Workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Size of the key space.
    pub n_keys: u64,
    /// Value size in bytes (the §7 benchmark uses ~100 B).
    pub value_bytes: usize,
    /// Key distribution.
    pub distribution: KeyDistribution,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Uniform workload with the given key space and 100-byte values.
    pub fn uniform(n_keys: u64, seed: u64) -> Self {
        WorkloadConfig {
            n_keys,
            value_bytes: 100,
            distribution: KeyDistribution::Uniform,
            seed,
        }
    }
}

/// Stateful, seeded workload generator.
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    rng: Rng,
    /// Zipf rejection-sampler constants (Jim Gray et al.'s method), built
    /// lazily on first zipfian draw.
    zipf: Option<ZipfSampler>,
}

impl WorkloadGen {
    /// Build a generator.
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert!(cfg.n_keys > 0, "empty key space");
        let rng = Rng::seed_from_u64(cfg.seed);
        WorkloadGen {
            cfg,
            rng,
            zipf: None,
        }
    }

    /// Draw a key index according to the configured distribution.
    pub fn next_index(&mut self) -> u64 {
        match self.cfg.distribution {
            KeyDistribution::Uniform => self.rng.gen_range(0..self.cfg.n_keys),
            KeyDistribution::Zipfian(theta) => {
                let n = self.cfg.n_keys;
                let z = self.zipf.get_or_insert_with(|| ZipfSampler::new(n, theta));
                z.sample(&mut self.rng)
            }
        }
    }

    /// Generate a pseudo-random value of the configured size. Values embed
    /// the generating index so integrity checks can verify reads.
    pub fn value_for(&mut self, index: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.cfg.value_bytes];
        let tag = index.to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = tag[i % 8] ^ (i as u8).wrapping_mul(31);
        }
        v
    }
}

/// Zipf sampler using the classic Gray et al. approximation: O(1) per draw
/// after O(1) setup, exact in distribution for the zipf(θ) law.
struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl ZipfSampler {
    fn new(n: u64, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta < 2.0 && (theta - 1.0).abs() > 1e-9,
            "theta near 1 unsupported"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2: Self::zeta(2, theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler–Maclaurin style integral tail bound
        // for large n keeps setup O(10^5) regardless of key-space size.
        const EXACT: u64 = 100_000;
        if n <= EXACT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{EXACT}^{n} x^{-theta} dx
            let a = EXACT as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let _ = self.zeta2;
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_key_space() {
        let mut g = WorkloadGen::new(WorkloadConfig::uniform(100, 42));
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            seen[g.next_index() as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 95);
    }

    #[test]
    fn zipfian_skews_to_low_indices() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            n_keys: 10_000,
            value_bytes: 8,
            distribution: KeyDistribution::Zipfian(0.99),
            seed: 7,
        });
        let n = 20_000;
        let hot = (0..n).filter(|_| g.next_index() < 100).count();
        // Under zipf(0.99), the hottest 1% of keys draw a large share.
        assert!(hot > n / 4, "hot draws: {hot}/{n}");
    }

    #[test]
    fn zipfian_stays_in_range() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            n_keys: 1_000,
            value_bytes: 8,
            distribution: KeyDistribution::Zipfian(1.2),
            seed: 9,
        });
        for _ in 0..10_000 {
            assert!(g.next_index() < 1_000);
        }
    }

    #[test]
    fn determinism() {
        let gen = |seed| {
            let mut g = WorkloadGen::new(WorkloadConfig::uniform(1000, seed));
            (0..100).map(|_| g.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }

    #[test]
    fn values_embed_index_and_have_right_size() {
        let mut g = WorkloadGen::new(WorkloadConfig::uniform(10, 1));
        let v1 = g.value_for(3);
        let v2 = g.value_for(3);
        let v3 = g.value_for(4);
        assert_eq!(v1.len(), 100);
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
    }
}

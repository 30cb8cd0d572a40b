//! Online statistics used throughout SWAMP: by anomaly detectors (which keep
//! running baselines of sensor behavior), by the network substrate (latency
//! summaries) and by the experiment harnesses (result tables).

use std::fmt;

/// Numerically stable online mean/variance (Welford's algorithm).
///
/// # Example
/// ```
/// use swamp_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (divides by n-1; 0 if fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.sample_std_dev(),
            if self.n == 0 { 0.0 } else { self.min },
            if self.n == 0 { 0.0 } else { self.max },
        )
    }
}

/// Exponentially weighted moving average with optional variance tracking.
///
/// # Example
/// ```
/// use swamp_sim::stats::Ewma;
/// let mut e = Ewma::new(0.5);
/// e.push(10.0);
/// e.push(20.0);
/// assert_eq!(e.value(), 15.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
    variance: f64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0,1], got {alpha}"
        );
        Ewma {
            alpha,
            value: None,
            variance: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        match self.value {
            None => self.value = Some(x),
            Some(v) => {
                let delta = x - v;
                let incr = self.alpha * delta;
                self.value = Some(v + incr);
                // West (1979) exponentially weighted variance update.
                self.variance = (1.0 - self.alpha) * (self.variance + delta * incr);
            }
        }
    }

    /// Current smoothed value (0 before any observation).
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Whether at least one observation has been pushed.
    pub fn is_primed(&self) -> bool {
        self.value.is_some()
    }

    /// Exponentially weighted standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// A fixed-bin histogram over a closed range, with linear-interpolated
/// quantile estimation. Out-of-range samples are clamped into the edge bins
/// and counted, so quantiles remain monotone.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram of `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi})"
        );
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let nbins = self.bins.len();
        if x < self.lo {
            self.underflow += 1;
            self.bins[0] += 1;
        } else if x >= self.hi {
            self.overflow += 1;
            self.bins[nbins - 1] += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * nbins as f64) as usize;
            self.bins[idx.min(nbins - 1)] += 1;
        }
    }

    /// Total samples (including clamped ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples that fell below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Estimated quantile `q` in `[0,1]`, by linear interpolation within the
    /// containing bin. Returns `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut cum = 0.0;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - cum) / c as f64
                };
                return Some(self.lo + (i as f64 + frac.clamp(0.0, 1.0)) * width);
            }
            cum = next;
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_textbook() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        for _ in 0..200 {
            e.push(42.0);
        }
        assert!((e.value() - 42.0).abs() < 1e-9);
        assert!(e.std_dev() < 1e-6);
    }

    #[test]
    fn ewma_first_sample_primes() {
        let mut e = Ewma::new(0.1);
        assert!(!e.is_primed());
        e.push(7.0);
        assert!(e.is_primed());
        assert_eq!(e.value(), 7.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn histogram_quantiles_on_uniform_data() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..10_000 {
            h.push((i % 100) as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() < 2.0, "median {median}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() < 2.0, "p99 {p99}");
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-5.0);
        h.push(15.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!((h.bins[0], h.bins[9]), (1, 1));
    }

    #[test]
    fn histogram_empty_quantile_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn quantile_monotone() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        let mut seed = 1u64;
        for _ in 0..1000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.push((seed >> 11) as f64 / (1u64 << 53) as f64);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0).unwrap();
            assert!(q >= last, "quantiles must be monotone");
            last = q;
        }
    }
}

//! Order statistics and the FNV-1a digest the correctness gate compares.

/// Sorts a sample in place (total order, so NaN cannot poison a sort).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending sample;
/// `None` when the sample is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Quantile of an unsorted sample (copies and sorts).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

/// Median of an unsorted sample; 0.0 for an empty one, so that a metric
/// with no samples on a workload reads 0 rather than aborting the run.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — the tail a sample of this size can support. With
/// fewer than twenty samples even the median fails that test, and the
/// answer is `None`: report the median alone.
pub fn supported_tail(n: usize) -> Option<f64> {
    // Per mille, so that "ten beyond" is decided in integers.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1_000 - p) >= 10_000)
        .map(|p| p as f64 / 1e3)
}

/// Streaming FNV-1a (64-bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot digest of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.95), Some(19.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv(b"ab"), fnv(b"ba"));
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv(b"foobar"));
    }
}

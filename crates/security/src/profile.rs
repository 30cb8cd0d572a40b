//! Partial observability: the crop-profile problem.
//!
//! The paper: "Regardless of the data acquisition rate, or the number of
//! installed sensors, the system will probably have a partial view of the
//! environment. As a consequence, applications may create a partial profile
//! of the crop … which does not necessarily correspond to that crop …
//! security mechanisms should take this into account when producing their
//! results."
//!
//! [`CropProfiler`] estimates per-zone field state from however many sensors
//! exist, quantifies its own uncertainty, and exposes
//! [`CropProfiler::detection_margin`] — the extra slack a detector must add
//! to its thresholds at a given sensor density so that profile error is not
//! mistaken for an attack (experiment E6).

/// The platform's reconstructed view of a field of `zones` management zones.
#[derive(Clone, Debug)]
pub struct CropProfile {
    /// Estimated value per zone (e.g. soil moisture), `None` where no
    /// information exists at all.
    pub estimates: Vec<Option<f64>>,
    /// Whether each zone was directly observed (vs interpolated).
    pub observed: Vec<bool>,
}

impl CropProfile {
    /// Fraction of zones with a direct observation.
    pub fn coverage(&self) -> f64 {
        if self.observed.is_empty() {
            return 0.0;
        }
        self.observed.iter().filter(|&&o| o).count() as f64 / self.observed.len() as f64
    }

    /// Mean absolute error against the true per-zone values (for
    /// experiments that hold ground truth).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn mean_abs_error(&self, truth: &[f64]) -> f64 {
        assert_eq!(truth.len(), self.estimates.len(), "zone count mismatch");
        let mut sum = 0.0;
        let mut n = 0;
        for (est, t) in self.estimates.iter().zip(truth) {
            if let Some(e) = est {
                sum += (e - t).abs();
                n += 1;
            }
        }
        if n == 0 {
            f64::INFINITY
        } else {
            sum / n as f64
        }
    }
}

/// Builds crop profiles from sparse per-zone sensor readings.
#[derive(Clone, Debug)]
pub struct CropProfiler {
    zones: usize,
}

impl CropProfiler {
    /// Creates a profiler for a field of `zones` zones.
    ///
    /// # Panics
    /// Panics if `zones == 0`.
    pub fn new(zones: usize) -> Self {
        assert!(zones > 0, "need at least one zone");
        CropProfiler { zones }
    }

    /// Builds a profile from `(zone, value)` readings. Unobserved zones are
    /// filled by nearest-observed-neighbor interpolation (1-D zone line,
    /// ties averaged); with no readings at all, estimates are `None`.
    pub fn build(&self, readings: &[(usize, f64)]) -> CropProfile {
        let mut sums = vec![0.0; self.zones];
        let mut counts = vec![0usize; self.zones];
        for &(zone, value) in readings {
            if zone < self.zones {
                sums[zone] += value;
                counts[zone] += 1;
            }
        }
        let observed: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
        let direct: Vec<Option<f64>> = (0..self.zones)
            .map(|z| {
                if counts[z] > 0 {
                    Some(sums[z] / counts[z] as f64)
                } else {
                    None
                }
            })
            .collect();

        let estimates: Vec<Option<f64>> = (0..self.zones)
            .map(|z| {
                if let Some(v) = direct[z] {
                    return Some(v);
                }
                // Nearest observed neighbors left and right.
                // Carry the observed values with the indices so nothing
                // needs a second (panicking) lookup.
                let left = (0..z).rev().find_map(|i| direct[i].map(|v| (i, v)));
                let right = (z + 1..self.zones).find_map(|i| direct[i].map(|v| (i, v)));
                match (left, right) {
                    (Some((l, vl)), Some((r, vr))) => {
                        let dl = (z - l) as f64;
                        let dr = (r - z) as f64;
                        // Inverse-distance weighting.
                        Some((vl / dl + vr / dr) / (1.0 / dl + 1.0 / dr))
                    }
                    (Some((_, v)), None) | (None, Some((_, v))) => Some(v),
                    (None, None) => None,
                }
            })
            .collect();

        CropProfile {
            estimates,
            observed,
        }
    }

    /// The detection-threshold margin a security mechanism should add when
    /// only `coverage` (0–1] of zones are sensed and the field's spatial
    /// variability has standard deviation `field_sd`.
    ///
    /// With full coverage the margin is ~0; as coverage drops, interpolated
    /// zones can legitimately differ from reality by O(field variability),
    /// and an alarm threshold tighter than that misfires on honest data.
    pub fn detection_margin(coverage: f64, field_sd: f64) -> f64 {
        let c = coverage.clamp(0.0, 1.0);
        field_sd * (1.0 - c).sqrt() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimRng;

    /// A synthetic spatially correlated field.
    fn field(zones: usize, rng: &mut SimRng) -> Vec<f64> {
        let mut v = Vec::with_capacity(zones);
        let mut x = 0.25;
        for _ in 0..zones {
            x += rng.normal_with(0.0, 0.01);
            x = x.clamp(0.05, 0.45);
            v.push(x);
        }
        v
    }

    #[test]
    fn full_coverage_is_exact_up_to_noise() {
        let mut rng = SimRng::seed_from(1);
        let truth = field(16, &mut rng);
        let profiler = CropProfiler::new(16);
        let readings: Vec<(usize, f64)> = truth.iter().enumerate().map(|(z, &v)| (z, v)).collect();
        let profile = profiler.build(&readings);
        assert_eq!(profile.coverage(), 1.0);
        assert!(profile.mean_abs_error(&truth) < 1e-12);
    }

    #[test]
    fn error_grows_as_coverage_shrinks() {
        let mut rng = SimRng::seed_from(2);
        let zones = 32;
        let profiler = CropProfiler::new(zones);
        let mut last_err = 0.0;
        let mut errs = Vec::new();
        for density in [32usize, 16, 8, 4, 2] {
            // Average over many random fields for stability.
            let mut total = 0.0;
            for _ in 0..50 {
                let truth = field(zones, &mut rng);
                let step = zones / density;
                let readings: Vec<(usize, f64)> = (0..density)
                    .map(|i| {
                        let z = i * step;
                        (z, truth[z])
                    })
                    .collect();
                total += profiler.build(&readings).mean_abs_error(&truth);
            }
            errs.push(total / 50.0);
        }
        for (i, &e) in errs.iter().enumerate() {
            assert!(
                e >= last_err - 1e-4,
                "error should not shrink with coverage: {errs:?} at {i}"
            );
            last_err = e;
        }
        assert!(errs[0] < 1e-9, "full coverage is exact");
        assert!(errs[4] > errs[0], "sparse must be worse than dense");
    }

    #[test]
    fn interpolation_between_neighbors() {
        let profiler = CropProfiler::new(5);
        // Observed at zones 0 (0.2) and 4 (0.4); zone 2 is equidistant.
        let profile = profiler.build(&[(0, 0.2), (4, 0.4)]);
        let z2 = profile.estimates[2].unwrap();
        assert!((z2 - 0.3).abs() < 1e-9, "midpoint interpolation, got {z2}");
        // Nearer to zone 0 leans toward 0.2.
        let z1 = profile.estimates[1].unwrap();
        assert!(z1 < z2);
        assert_eq!(profile.coverage(), 0.4);
        assert!(profile.observed[0] && !profile.observed[1]);
    }

    #[test]
    fn edge_extrapolation_uses_nearest() {
        let profiler = CropProfiler::new(4);
        let profile = profiler.build(&[(2, 0.3)]);
        assert_eq!(profile.estimates[0], Some(0.3));
        assert_eq!(profile.estimates[3], Some(0.3));
    }

    #[test]
    fn duplicate_readings_averaged() {
        let profiler = CropProfiler::new(2);
        let profile = profiler.build(&[(0, 0.2), (0, 0.4), (1, 0.3)]);
        assert!((profile.estimates[0].unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn no_readings_no_estimates() {
        let profiler = CropProfiler::new(3);
        let profile = profiler.build(&[]);
        assert!(profile.estimates.iter().all(Option::is_none));
        assert_eq!(profile.coverage(), 0.0);
        assert_eq!(profile.mean_abs_error(&[0.1, 0.2, 0.3]), f64::INFINITY);
    }

    #[test]
    fn out_of_range_zone_ignored() {
        let profiler = CropProfiler::new(2);
        let profile = profiler.build(&[(7, 0.9), (0, 0.2)]);
        assert_eq!(profile.estimates[0], Some(0.2));
    }

    #[test]
    fn margin_shrinks_with_coverage() {
        let m_full = CropProfiler::detection_margin(1.0, 0.05);
        let m_half = CropProfiler::detection_margin(0.5, 0.05);
        let m_sparse = CropProfiler::detection_margin(0.1, 0.05);
        assert!(m_full < 1e-9);
        assert!(m_half > m_full);
        assert!(m_sparse > m_half);
        // Margin scales with field variability.
        assert!(
            CropProfiler::detection_margin(0.5, 0.10) > CropProfiler::detection_margin(0.5, 0.05)
        );
    }

    #[test]
    #[should_panic(expected = "zone")]
    fn zero_zones_rejected() {
        let _ = CropProfiler::new(0);
    }
}

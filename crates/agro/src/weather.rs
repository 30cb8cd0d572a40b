//! Stochastic daily weather generation for the four SWAMP pilot climates.
//!
//! The paper's pilots span Emilia-Romagna (IT), Murcia (ES) and two Brazilian
//! sites. We replace the unavailable field meteorology with a seasonal
//! sinusoidal climate normal plus day-to-day stochastic variation and a
//! two-state Markov rain process — the standard WGEN-style structure. The
//! climates are parameterized so that *relative* behavior (dry Cartagena
//! summer, wet Bologna spring, MATOPIBA dry season) is right, which is what
//! the irrigation and security experiments consume.

use swamp_sim::SimRng;

use crate::et::{ea_from_rh_mean, penman_monteith, EtInputs};

/// One generated day of weather.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeatherDay {
    /// Day of year, 1–366.
    pub day_of_year: u32,
    /// Maximum temperature, °C.
    pub tmax_c: f64,
    /// Minimum temperature, °C.
    pub tmin_c: f64,
    /// Mean relative humidity, %.
    pub rh_mean_pct: f64,
    /// Wind speed at 2 m, m/s.
    pub wind_2m: f64,
    /// Incoming solar radiation, MJ m⁻² day⁻¹.
    pub solar_mj: f64,
    /// Rainfall, mm.
    pub rain_mm: f64,
}

impl WeatherDay {
    /// FAO-56 Penman–Monteith ET₀ for this day at the given site.
    pub fn et0(&self, latitude_deg: f64, elevation_m: f64) -> f64 {
        penman_monteith(&EtInputs {
            tmax_c: self.tmax_c,
            tmin_c: self.tmin_c,
            ea_kpa: ea_from_rh_mean(self.rh_mean_pct, self.tmax_c, self.tmin_c),
            wind_2m: self.wind_2m,
            solar_mj: self.solar_mj,
            latitude_deg,
            elevation_m,
            day_of_year: self.day_of_year,
        })
    }
}

/// Climate normals for a site, from which days are sampled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClimateProfile {
    /// Site latitude, degrees.
    pub latitude_deg: f64,
    /// Site elevation, m.
    pub elevation_m: f64,
    /// Annual-mean daily maximum temperature, °C.
    pub tmax_mean: f64,
    /// Seasonal half-amplitude of tmax, °C (peaks at `warmest_doy`).
    pub tmax_amplitude: f64,
    /// Day of year of the warmest day.
    pub warmest_doy: u32,
    /// Mean diurnal range (tmax − tmin), °C.
    pub diurnal_range: f64,
    /// Day-to-day temperature standard deviation, °C.
    pub temp_sd: f64,
    /// Annual-mean relative humidity, %.
    pub rh_mean: f64,
    /// Mean wind speed at 2 m, m/s.
    pub wind_mean: f64,
    /// Probability a dry day is followed by a wet day.
    pub p_wet_after_dry: f64,
    /// Probability a wet day is followed by a wet day.
    pub p_wet_after_wet: f64,
    /// Mean rainfall on a wet day, mm (exponentially distributed).
    pub wet_day_rain_mean: f64,
    /// Seasonal rain multiplier half-amplitude (1 = uniform year-round);
    /// positive values peak at `wettest_doy`.
    pub rain_seasonality: f64,
    /// Day of year of the rainiest season's peak.
    pub wettest_doy: u32,
}

impl ClimateProfile {
    /// Consorzio di Bonifica Emilia Centrale — Bologna, Italy (CBEC pilot).
    pub fn bologna() -> Self {
        ClimateProfile {
            latitude_deg: 44.5,
            elevation_m: 54.0,
            tmax_mean: 18.5,
            tmax_amplitude: 11.5,
            warmest_doy: 200,
            diurnal_range: 9.0,
            temp_sd: 2.5,
            rh_mean: 72.0,
            wind_mean: 2.2,
            p_wet_after_dry: 0.22,
            p_wet_after_wet: 0.45,
            wet_day_rain_mean: 7.0,
            rain_seasonality: 0.3,
            wettest_doy: 300,
        }
    }

    /// Intercrop Iberica — Cartagena, Spain: semi-arid, desalinated supply.
    pub fn cartagena() -> Self {
        ClimateProfile {
            latitude_deg: 37.6,
            elevation_m: 10.0,
            tmax_mean: 22.5,
            tmax_amplitude: 8.0,
            warmest_doy: 210,
            diurnal_range: 8.0,
            temp_sd: 2.0,
            rh_mean: 65.0,
            wind_mean: 3.0,
            p_wet_after_dry: 0.06,
            p_wet_after_wet: 0.30,
            wet_day_rain_mean: 8.0,
            rain_seasonality: 0.5,
            wettest_doy: 285,
        }
    }

    /// Guaspari Winery — Espírito Santo do Pinhal, Brazil (winter harvest).
    pub fn pinhal() -> Self {
        ClimateProfile {
            latitude_deg: -22.2,
            elevation_m: 870.0,
            tmax_mean: 26.0,
            tmax_amplitude: 4.0,
            warmest_doy: 35,
            diurnal_range: 11.0,
            temp_sd: 2.2,
            rh_mean: 70.0,
            wind_mean: 1.8,
            p_wet_after_dry: 0.25,
            p_wet_after_wet: 0.55,
            wet_day_rain_mean: 10.0,
            rain_seasonality: 0.8,
            wettest_doy: 15,
        }
    }

    /// Rio das Pedras Farm — Barreiras, MATOPIBA region, Brazil.
    pub fn barreiras() -> Self {
        ClimateProfile {
            latitude_deg: -12.15,
            elevation_m: 720.0,
            tmax_mean: 31.0,
            tmax_amplitude: 2.5,
            warmest_doy: 270,
            diurnal_range: 12.0,
            temp_sd: 1.8,
            rh_mean: 55.0,
            wind_mean: 2.5,
            p_wet_after_dry: 0.18,
            p_wet_after_wet: 0.60,
            wet_day_rain_mean: 12.0,
            rain_seasonality: 0.95,
            wettest_doy: 5,
        }
    }

    fn seasonal(&self, doy: u32, peak_doy: u32, mean: f64, amplitude: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (doy as f64 - peak_doy as f64) / 365.0;
        mean + amplitude * phase.cos()
    }
}

/// A deterministic per-site weather generator.
///
/// # Example
/// ```
/// use swamp_agro::weather::{ClimateProfile, WeatherGenerator};
/// use swamp_sim::SimRng;
/// let mut gen = WeatherGenerator::new(ClimateProfile::barreiras(),
///                                     SimRng::seed_from(1));
/// let day = gen.next_day(1);
/// assert!(day.tmax_c > day.tmin_c);
/// ```
#[derive(Clone, Debug)]
pub struct WeatherGenerator {
    profile: ClimateProfile,
    rng: SimRng,
    yesterday_wet: bool,
}

impl WeatherGenerator {
    /// Creates a generator for a climate with its own RNG stream.
    pub fn new(profile: ClimateProfile, rng: SimRng) -> Self {
        WeatherGenerator {
            profile,
            rng,
            yesterday_wet: false,
        }
    }

    /// Generates the weather for a given day of year (advances the
    /// stochastic state; call with consecutive days for realistic runs).
    ///
    /// # Panics
    /// Panics if `day_of_year` is outside 1..=366.
    pub fn next_day(&mut self, day_of_year: u32) -> WeatherDay {
        assert!(
            (1..=366).contains(&day_of_year),
            "day_of_year {day_of_year} outside 1..=366"
        );
        let p = &self.profile;

        // Rain first: wet days are cooler, dimmer and more humid.
        let p_wet = if self.yesterday_wet {
            p.p_wet_after_wet
        } else {
            p.p_wet_after_dry
        };
        let season_rain = (1.0
            + p.rain_seasonality
                * (2.0 * std::f64::consts::PI * (day_of_year as f64 - p.wettest_doy as f64)
                    / 365.0)
                    .cos())
        .max(0.0);
        let wet = self.rng.chance((p_wet * season_rain).clamp(0.0, 0.95));
        let rain_mm = if wet {
            self.rng.exponential(1.0 / p.wet_day_rain_mean) * season_rain.max(0.2)
        } else {
            0.0
        };
        self.yesterday_wet = wet;

        let tmax_clim = p.seasonal(day_of_year, p.warmest_doy, p.tmax_mean, p.tmax_amplitude);
        let wet_cooling = if wet { 2.0 } else { 0.0 };
        let tmax_c = self.rng.normal_with(tmax_clim - wet_cooling, p.temp_sd);
        let range = self
            .rng
            .normal_with(p.diurnal_range * if wet { 0.6 } else { 1.0 }, 1.0)
            .max(2.0);
        let tmin_c = tmax_c - range;

        let rh_mean_pct = (self
            .rng
            .normal_with(p.rh_mean + if wet { 15.0 } else { 0.0 }, 5.0))
        .clamp(15.0, 100.0);
        let wind_2m = self.rng.exponential(1.0 / p.wind_mean).clamp(0.2, 15.0);

        // Solar: clear-sky fraction lower on wet days.
        let ra = crate::et::extraterrestrial_radiation(p.latitude_deg, day_of_year);
        let rso = crate::et::clear_sky_radiation(ra, p.elevation_m);
        let frac = if wet {
            self.rng.uniform_range(0.25, 0.55)
        } else {
            self.rng.uniform_range(0.6, 0.95)
        };
        let solar_mj = rso * frac;

        WeatherDay {
            day_of_year,
            tmax_c,
            tmin_c,
            rh_mean_pct,
            wind_2m,
            solar_mj,
            rain_mm,
        }
    }

    /// Generates a run of consecutive days starting at `start_doy`
    /// (wrapping around the year).
    pub fn generate_run(&mut self, start_doy: u32, days: usize) -> Vec<WeatherDay> {
        (0..days)
            .map(|i| {
                let doy = (start_doy as usize + i - 1) % 365 + 1;
                self.next_day(doy as u32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(profile: ClimateProfile, seed: u64) -> WeatherGenerator {
        WeatherGenerator::new(profile, SimRng::seed_from(seed))
    }

    #[test]
    fn physical_invariants_hold_for_a_year() {
        for (name, profile) in [
            ("bologna", ClimateProfile::bologna()),
            ("cartagena", ClimateProfile::cartagena()),
            ("pinhal", ClimateProfile::pinhal()),
            ("barreiras", ClimateProfile::barreiras()),
        ] {
            let mut g = gen(profile, 42);
            for day in g.generate_run(1, 365) {
                assert!(day.tmax_c > day.tmin_c, "{name}: tmax>tmin");
                assert!(day.rain_mm >= 0.0, "{name}: rain>=0");
                assert!(
                    (15.0..=100.0).contains(&day.rh_mean_pct),
                    "{name}: rh {}",
                    day.rh_mean_pct
                );
                assert!(day.wind_2m > 0.0, "{name}: wind");
                assert!(day.solar_mj > 0.0, "{name}: solar");
                let et0 = day.et0(profile.latitude_deg, profile.elevation_m);
                assert!((0.0..15.0).contains(&et0), "{name}: ET0 {et0} out of range");
            }
        }
    }

    #[test]
    fn cartagena_is_drier_than_bologna() {
        let rain = |profile| {
            let mut g = gen(profile, 7);
            g.generate_run(1, 365)
                .iter()
                .map(|d| d.rain_mm)
                .sum::<f64>()
        };
        let cart = rain(ClimateProfile::cartagena());
        let bolo = rain(ClimateProfile::bologna());
        assert!(
            cart < 0.6 * bolo,
            "Cartagena {cart:.0}mm should be much drier than Bologna {bolo:.0}mm"
        );
    }

    #[test]
    fn barreiras_dry_season_is_dry() {
        // MATOPIBA winter (May–Sep, doy 121–273) is the dry season — that is
        // why the pilot irrigates soybean there.
        let mut g = gen(ClimateProfile::barreiras(), 11);
        let year = g.generate_run(1, 365);
        let dry_season: f64 = year[120..273].iter().map(|d| d.rain_mm).sum();
        let wet_season: f64 = year[..120]
            .iter()
            .chain(&year[273..])
            .map(|d| d.rain_mm)
            .sum();
        assert!(
            dry_season < 0.35 * wet_season,
            "dry {dry_season:.0}mm vs wet {wet_season:.0}mm"
        );
    }

    #[test]
    fn bologna_summer_warmer_than_winter() {
        let mut g = gen(ClimateProfile::bologna(), 5);
        let year = g.generate_run(1, 365);
        let july: f64 = year[181..212].iter().map(|d| d.tmax_c).sum::<f64>() / 31.0;
        let january: f64 = year[..31].iter().map(|d| d.tmax_c).sum::<f64>() / 31.0;
        assert!(july > january + 12.0, "july {july:.1} jan {january:.1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = gen(ClimateProfile::pinhal(), 9);
        let mut b = gen(ClimateProfile::pinhal(), 9);
        assert_eq!(a.generate_run(100, 30), b.generate_run(100, 30));
        let mut c = gen(ClimateProfile::pinhal(), 10);
        assert_ne!(a.generate_run(100, 30), c.generate_run(100, 30));
    }

    #[test]
    fn run_wraps_year_boundary() {
        let mut g = gen(ClimateProfile::bologna(), 3);
        let run = g.generate_run(364, 4);
        let doys: Vec<u32> = run.iter().map(|d| d.day_of_year).collect();
        assert_eq!(doys, vec![364, 365, 1, 2]);
    }

    #[test]
    fn rain_autocorrelation_present() {
        // Wet-after-wet must exceed the unconditional wet fraction.
        let mut g = gen(ClimateProfile::bologna(), 21);
        let days = g.generate_run(1, 365 * 4 - 1);
        let wet: Vec<bool> = days.iter().map(|d| d.rain_mm > 0.0).collect();
        let p_wet = wet.iter().filter(|&&w| w).count() as f64 / wet.len() as f64;
        let mut after_wet = 0;
        let mut wet_after_wet = 0;
        for w in wet.windows(2) {
            if w[0] {
                after_wet += 1;
                if w[1] {
                    wet_after_wet += 1;
                }
            }
        }
        let p_ww = wet_after_wet as f64 / after_wet as f64;
        assert!(p_ww > p_wet, "P(wet|wet)={p_ww:.2} vs P(wet)={p_wet:.2}");
    }

    #[test]
    #[should_panic(expected = "day_of_year")]
    fn bad_doy_panics() {
        gen(ClimateProfile::bologna(), 1).next_day(400);
    }
}

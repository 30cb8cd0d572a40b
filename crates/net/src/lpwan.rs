//! LoRa-class LPWAN radio model: airtime computation and duty-cycle limiting.
//!
//! The paper's pilots use long-range, low-power radio in the field. The two
//! properties that matter to the platform are (1) airtime grows steeply with
//! spreading factor, bounding effective sample rates, and (2) regional
//! regulations cap duty cycle (1% in EU868), so a device — or a DoS attacker
//! sharing the band — cannot transmit arbitrarily often.

use swamp_sim::{SimDuration, SimTime};

/// LoRa spreading factor (SF7 fastest … SF12 longest range/slowest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpreadingFactor {
    /// SF7 — shortest airtime, shortest range.
    Sf7,
    /// SF8.
    Sf8,
    /// SF9 — the SWAMP field default.
    Sf9,
    /// SF10.
    Sf10,
    /// SF11.
    Sf11,
    /// SF12 — longest airtime, longest range.
    Sf12,
}

impl SpreadingFactor {
    fn sf(self) -> u32 {
        match self {
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }
}

/// Radio parameters for one LPWAN device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LpwanConfig {
    /// Spreading factor.
    pub spreading_factor: SpreadingFactor,
    /// Channel bandwidth in Hz (125 kHz typical).
    pub bandwidth_hz: u32,
    /// Coding rate denominator: 4/`cr` (5 ⇒ 4/5).
    pub coding_rate: u32,
    /// Regulatory duty-cycle cap (0.01 = 1%), enforced over a sliding window.
    pub duty_cycle: f64,
    /// Preamble symbols (8 typical).
    pub preamble_symbols: u32,
}

impl Default for LpwanConfig {
    fn default() -> Self {
        LpwanConfig {
            spreading_factor: SpreadingFactor::Sf9,
            bandwidth_hz: 125_000,
            coding_rate: 5,
            duty_cycle: 0.01,
            preamble_symbols: 8,
        }
    }
}

impl LpwanConfig {
    /// Time-on-air for a `payload_len`-byte frame, per the Semtech LoRa
    /// airtime formula (explicit header, CRC on, no low-data-rate opt below
    /// SF11).
    pub fn airtime(&self, payload_len: usize) -> SimDuration {
        let sf = self.spreading_factor.sf();
        let t_sym = (1u64 << sf) as f64 / self.bandwidth_hz as f64; // seconds
        let t_preamble = (self.preamble_symbols as f64 + 4.25) * t_sym;
        let de = if sf >= 11 { 1.0 } else { 0.0 }; // low data-rate optimization
        let pl = payload_len as f64;
        let num = 8.0 * pl - 4.0 * sf as f64 + 28.0 + 16.0; // CRC on, explicit header
        let den = 4.0 * (sf as f64 - 2.0 * de);
        let n_payload = 8.0 + ((num / den).ceil().max(0.0)) * self.coding_rate as f64;
        let t_payload = n_payload * t_sym;
        SimDuration::from_secs_f64(t_preamble + t_payload)
    }
}

/// The decision returned by [`LpwanRadio::try_transmit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxDecision {
    /// Transmission may start now; the airtime it will occupy is included.
    Granted {
        /// Time the frame occupies the channel.
        airtime: SimDuration,
    },
    /// Duty-cycle budget exhausted; retry at the given time.
    Deferred {
        /// Earliest instant at which the budget allows this frame.
        until: SimTime,
    },
}

/// A duty-cycle-limited LPWAN radio.
///
/// Tracks transmissions in a sliding one-hour window and refuses frames that
/// would exceed `duty_cycle` of that window — the mechanism that caps both
/// legitimate over-sampling and radio-level flooding DoS.
///
/// # Example
/// ```
/// use swamp_net::lpwan::{LpwanConfig, LpwanRadio, TxDecision};
/// use swamp_sim::SimTime;
/// let mut radio = LpwanRadio::new(LpwanConfig::default());
/// match radio.try_transmit(SimTime::ZERO, 24) {
///     TxDecision::Granted { airtime } => assert!(airtime.as_millis() > 0),
///     TxDecision::Deferred { .. } => unreachable!("fresh radio has budget"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct LpwanRadio {
    config: LpwanConfig,
    /// (start, airtime) of transmissions inside the current window.
    history: std::collections::VecDeque<(SimTime, SimDuration)>,
    window: SimDuration,
}

impl LpwanRadio {
    /// Creates a radio with an empty duty-cycle history.
    pub fn new(config: LpwanConfig) -> Self {
        LpwanRadio {
            config,
            history: std::collections::VecDeque::new(),
            window: SimDuration::from_hours(1),
        }
    }

    /// The radio configuration.
    pub fn config(&self) -> &LpwanConfig {
        &self.config
    }

    /// Airtime consumed inside the window ending at `now`.
    pub fn airtime_in_window(&self, now: SimTime) -> SimDuration {
        let window_start = now.saturating_duration_since(SimTime::ZERO);
        let cutoff = if window_start > self.window {
            now - self.window
        } else {
            SimTime::ZERO
        };
        self.history
            .iter()
            .filter(|(t, _)| *t >= cutoff)
            .map(|(_, a)| *a)
            .fold(SimDuration::ZERO, |acc, a| acc + a)
    }

    /// Requests to transmit a `payload_len`-byte frame at `now`.
    ///
    /// On success the airtime is recorded against the duty-cycle budget.
    pub fn try_transmit(&mut self, now: SimTime, payload_len: usize) -> TxDecision {
        self.expire(now);
        let airtime = self.config.airtime(payload_len);
        let budget = SimDuration::from_secs_f64(self.window.as_secs_f64() * self.config.duty_cycle);
        let used = self.airtime_in_window(now);
        if used + airtime <= budget {
            self.history.push_back((now, airtime));
            TxDecision::Granted { airtime }
        } else {
            // Earliest time enough old airtime has slid out of the window.
            let mut freed = SimDuration::ZERO;
            let need = (used + airtime).saturating_sub(budget);
            let mut until = now + self.window; // pessimistic fallback
            for (t, a) in &self.history {
                freed += *a;
                if freed >= need {
                    // +1 ms so the entry at `t` has strictly left the window.
                    until = *t + self.window + SimDuration::from_millis(1);
                    break;
                }
            }
            TxDecision::Deferred { until }
        }
    }

    fn expire(&mut self, now: SimTime) {
        let cutoff = if now.saturating_duration_since(SimTime::ZERO) > self.window {
            now - self.window
        } else {
            SimTime::ZERO
        };
        while let Some((t, _)) = self.history.front() {
            if *t < cutoff {
                self.history.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_known_ballpark() {
        // SF7/125kHz, 20-byte payload is ~56.6 ms per the Semtech calculator.
        let cfg = LpwanConfig {
            spreading_factor: SpreadingFactor::Sf7,
            ..LpwanConfig::default()
        };
        let a = cfg.airtime(20).as_millis();
        assert!((50..65).contains(&a), "SF7 airtime {a}ms");

        // SF12 same payload is ~1.3-1.6 s.
        let cfg = LpwanConfig {
            spreading_factor: SpreadingFactor::Sf12,
            ..LpwanConfig::default()
        };
        let a = cfg.airtime(20).as_millis();
        assert!((1000..1900).contains(&a), "SF12 airtime {a}ms");
    }

    #[test]
    fn airtime_monotone_in_sf_and_size() {
        let sfs = [
            SpreadingFactor::Sf7,
            SpreadingFactor::Sf8,
            SpreadingFactor::Sf9,
            SpreadingFactor::Sf10,
            SpreadingFactor::Sf11,
            SpreadingFactor::Sf12,
        ];
        let mut last = SimDuration::ZERO;
        for sf in sfs {
            let cfg = LpwanConfig {
                spreading_factor: sf,
                ..LpwanConfig::default()
            };
            let a = cfg.airtime(24);
            assert!(a > last, "airtime must grow with SF");
            last = a;
        }
        let cfg = LpwanConfig::default();
        assert!(cfg.airtime(100) > cfg.airtime(10));
    }

    #[test]
    fn duty_cycle_defers_flooding() {
        let mut radio = LpwanRadio::new(LpwanConfig::default());
        let mut now = SimTime::ZERO;
        let mut granted = 0;
        let mut deferred_at = None;
        // Hammer the radio every 100 ms; 1% duty cycle must kick in.
        for _ in 0..10_000 {
            match radio.try_transmit(now, 48) {
                TxDecision::Granted { .. } => granted += 1,
                TxDecision::Deferred { until } => {
                    deferred_at = Some(until);
                    break;
                }
            }
            now += SimDuration::from_millis(100);
        }
        let until = deferred_at.expect("duty cycle should engage");
        assert!(granted > 10, "some frames granted before cap: {granted}");
        assert!(granted < 500, "cap engaged too late: {granted}");
        assert!(until > now, "deferral must be in the future");
    }

    #[test]
    fn budget_recovers_after_window() {
        let mut radio = LpwanRadio::new(LpwanConfig::default());
        let mut now = SimTime::ZERO;
        // Exhaust the budget.
        loop {
            match radio.try_transmit(now, 48) {
                TxDecision::Granted { .. } => now += SimDuration::from_millis(10),
                TxDecision::Deferred { until } => {
                    now = until;
                    break;
                }
            }
        }
        // At the deferral time the radio must grant again.
        assert!(matches!(
            radio.try_transmit(now, 48),
            TxDecision::Granted { .. }
        ));
    }

    #[test]
    fn window_airtime_accounting() {
        let mut radio = LpwanRadio::new(LpwanConfig::default());
        let a1 = match radio.try_transmit(SimTime::ZERO, 24) {
            TxDecision::Granted { airtime } => airtime,
            other => panic!("{other:?}"),
        };
        assert_eq!(radio.airtime_in_window(SimTime::from_secs(10)), a1);
        // Two hours later the window is clear.
        assert_eq!(
            radio.airtime_in_window(SimTime::from_hours(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn deferral_time_is_usable() {
        let cfg = LpwanConfig {
            duty_cycle: 0.001, // very tight
            ..LpwanConfig::default()
        };
        let mut radio = LpwanRadio::new(cfg);
        let mut now = SimTime::ZERO;
        let mut rounds = 0;
        let mut granted = 0;
        while rounds < 5 {
            match radio.try_transmit(now, 48) {
                TxDecision::Granted { .. } => {
                    granted += 1;
                    now += SimDuration::from_millis(1);
                }
                TxDecision::Deferred { until } => {
                    now = until;
                    rounds += 1;
                }
            }
        }
        assert!(granted >= 5);
    }
}

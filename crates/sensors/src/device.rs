//! The device classes the pilots deploy.

use std::fmt;

/// Kinds of devices deployed in the pilots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// Capacitance soil-moisture probe.
    SoilProbe,
    /// Agro-meteorological station.
    WeatherStation,
    /// Inline flow meter on an irrigation line.
    FlowMeter,
    /// Drone-mounted multispectral (NDVI) camera.
    NdviCamera,
    /// Solenoid valve actuator.
    Valve,
    /// Irrigation pump.
    Pump,
    /// Center-pivot irrigation machine.
    CenterPivot,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::SoilProbe => "SoilProbe",
            DeviceKind::WeatherStation => "WeatherStation",
            DeviceKind::FlowMeter => "FlowMeter",
            DeviceKind::NdviCamera => "NdviCamera",
            DeviceKind::Valve => "Valve",
            DeviceKind::Pump => "Pump",
            DeviceKind::CenterPivot => "CenterPivot",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(DeviceKind::CenterPivot.to_string(), "CenterPivot");
        assert_eq!(DeviceKind::SoilProbe.to_string(), "SoilProbe");
    }
}

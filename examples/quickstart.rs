//! Quickstart: stand up a SWAMP platform, register a soil probe, publish
//! sealed telemetry through the simulated network, and read it back through
//! the authorization layer.
//!
//! Run with: `cargo run --example quickstart`

use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, Platform};
use swamp::sensors::device::DeviceKind;
use swamp::sim::{SimDuration, SimTime};

fn main() {
    // A farm-fog deployment: the context broker lives on the farm premises
    // and keeps working through Internet outages.
    let mut platform = Platform::builder(DeploymentConfig::FarmFog)
        .seed(42)
        .build();

    // Register a soil-moisture probe owned by the demo farm. This creates
    // its network node + LPWAN link, provisions its link key, and records
    // it in the device registry.
    platform
        .register_device(
            SimTime::ZERO,
            "probe-ne-1",
            DeviceKind::SoilProbe,
            "owner:demo-farm",
        )
        .unwrap();

    // The device publishes an NGSI entity update. It is sealed with the
    // device key (ChaCha20 + HMAC) and crosses the lossy field radio.
    let mut publishes = 0;
    let mut t = SimTime::ZERO;
    while platform.observe().counter("ingest.accepted").unwrap() == 0 {
        let mut update = Entity::new("urn:swamp:device:probe-ne-1", "SoilProbe");
        update.set("moisture_vwc", 0.243);
        update.set("temperature_c", 21.7);
        update.set("seq", publishes as f64);
        platform
            .device_publish(t, "probe-ne-1", &update)
            .expect("publish accepted by the network");
        publishes += 1;
        t += SimDuration::from_secs(30);
        platform.pump(t);
    }
    println!("telemetry ingested after {publishes} transmission(s) over the lossy LPWAN link");

    // Users authenticate via the OAuth2-style identity provider; ownership
    // policies decide who can read the probe.
    platform
        .idm
        .register_user("maria", "vineyard$", &["owner:demo-farm"]);
    platform.idm.register_user("eve", "whatever", &[]);
    let maria_token = platform
        .idm
        .password_grant(t, "maria", "vineyard$")
        .expect("registered user");
    let eve_token = platform
        .idm
        .password_grant(t, "eve", "whatever")
        .expect("registered user");

    let entity = platform
        .authorized_read(t, &maria_token, "urn:swamp:device:probe-ne-1")
        .expect("the owner reads her own probe");
    println!(
        "maria (owner) reads moisture_vwc = {:?}",
        entity.number("moisture_vwc")
    );

    let denied = platform.authorized_read(t, &eve_token, "urn:swamp:device:probe-ne-1");
    println!("eve (no rights) read attempt denied: {}", denied.is_err());

    // The historical store answered the scheduler's questions.
    let last = platform
        .history
        .last("urn:swamp:device:probe-ne-1", "moisture_vwc")
        .expect("history recorded");
    println!(
        "history: last moisture sample = {:.3} at {}",
        last.value, last.at
    );

    // One merged observability snapshot covers the platform, network,
    // uplink engine, store and detector bank.
    let snap = platform.observe();
    println!("\nplatform counters:");
    for (name, value) in snap.counters() {
        println!("  {name:<32} {value}");
    }
}

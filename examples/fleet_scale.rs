//! Fleet-scale demonstration: 50 four-ECU vehicles federated through one
//! trusted server, installed in staged waves, then updated in place while
//! the rest of the fleet keeps driving.
//!
//! The fleet splits its vehicles into 8 lanes, each with its own transport
//! hub, and steps the lanes in parallel; the server state it ends in is the
//! same as a single-lane fleet's.
//!
//! ```console
//! $ cargo run --release --example fleet_scale
//! ```

use dynar::foundation::ids::EcuId;
use dynar::foundation::value::Value;
use dynar::sim::scenario::fleet::{FleetScenario, GAIN_V1, GAIN_V2};

fn main() {
    let vehicles = 50;
    let mut scenario = FleetScenario::build(vehicles).expect("fleet builds");
    println!(
        "built a fleet of {} vehicles x {} ECUs across {} vehicle lanes",
        scenario.fleet.len(),
        1 + scenario.workers_per_vehicle(),
        scenario.fleet.hubs().len()
    );

    scenario
        .install_telemetry(10)
        .expect("staged install waves complete");
    println!(
        "installed telemetry in waves of 10 by tick {} ({} downlinks, {} uplinks)",
        scenario.fleet.now().as_u64(),
        scenario.fleet.stats().downlink_messages,
        scenario.fleet.stats().uplink_messages,
    );

    scenario.fleet.run(200).expect("fleet drives");
    report_actuation(&scenario, "after v1 soak");

    // Update the first half of the fleet to v2 while the rest keeps driving.
    let targets: Vec<_> = scenario
        .fleet
        .vehicle_ids()
        .iter()
        .take(vehicles / 2)
        .cloned()
        .collect();
    scenario
        .update_telemetry(&targets, 10)
        .expect("update waves complete");
    scenario.fleet.run(200).expect("fleet drives on");
    report_actuation(&scenario, "after the v2 update wave");

    println!(
        "done at tick {}: gains v1={GAIN_V1} / v2={GAIN_V2} observable above",
        scenario.fleet.now().as_u64()
    );
}

fn report_actuation(scenario: &FleetScenario, label: &str) {
    let mut sampled = 0usize;
    let mut sum = 0i64;
    for handle in scenario.handles() {
        if let Some(Value::I64(v)) = scenario.actuator_value(&handle.id, EcuId::new(2)) {
            sampled += 1;
            sum += v;
        }
    }
    println!(
        "{label}: {sampled}/{} vehicles actuating, mean actuator value {}",
        scenario.fleet.len(),
        if sampled > 0 { sum / sampled as i64 } else { 0 }
    );
}

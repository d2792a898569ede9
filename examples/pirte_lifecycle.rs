//! Microbenchmark of one plug-in lifecycle operation on a PIRTE.
//!
//! 2 000 PIRTEs with the fleet's worker configuration install and uninstall
//! the real telemetry v1 package (as planned by the trusted server for a
//! fresh fleet vehicle), visited round-robin so every operation meets a
//! cache as cold as in a fleet round.  Each operation goes through the
//! type I port exactly as a relayed downlink does (`dispatch_swc_input` on
//! `mgmt_in`, ack drained from the outbox); a bare `Pirte::uninstall` is
//! timed too.  Prints the median of the rounds' per-operation times and the
//! allocations per operation.
//!
//! ```console
//! $ cargo run --release --example pirte_lifecycle
//! ```

use std::time::Instant;

use dynar::core::message::ManagementMessage;
use dynar::core::pirte::{Pirte, SwcOutput};
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::foundation::ids::{EcuId, PluginId, UserId, VehicleId, VirtualPortId};
use dynar::foundation::value::Value;
use dynar::server::TrustedServer;
use dynar::sim::scenario::fleet::{fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, GAIN_V1};
use dynar_bench::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const PIRTES: usize = 2000;
const ROUNDS: usize = 15;
const WORKERS: u16 = 3;

/// The worker plug-in SW-C of the fleet scenario.
fn worker_config() -> PluginSwcConfig {
    PluginSwcConfig::new("worker-swc-2")
        .with_type_i_ports("mgmt_in", "mgmt_out")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "SensorIn",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "sensor_in",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(1),
            "ActOut",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "act_out",
        ))
}

/// The encoded install and uninstall messages of the telemetry v1 plug-in
/// the server plans for the first worker ECU of a fresh vehicle.
fn lifecycle_messages() -> (PluginId, Vec<u8>, Vec<u8>) {
    let mut server = TrustedServer::new();
    let user = UserId::new("ops");
    let vin = VehicleId::new("VIN-0");
    server.create_user(user.clone()).unwrap();
    let app = telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap();
    server.upload_app(app.clone()).unwrap();
    server
        .register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
        .unwrap();
    server.bind_vehicle(&user, &vin).unwrap();
    let (_, package) = server
        .plan_deployment(&vin, &app.id)
        .unwrap()
        .into_iter()
        .find(|(ecu, _)| *ecu == EcuId::new(2))
        .expect("a package for the first worker");
    let plugin = package.plugin.clone();
    let install = ManagementMessage::Install(package).to_bytes();
    let uninstall = ManagementMessage::Uninstall {
        plugin: plugin.clone(),
    }
    .to_bytes();
    (plugin, install, uninstall)
}

/// Runs `op` once on every PIRTE, returning the mean time per operation in
/// microseconds and the allocations per operation.
fn sweep(pirtes: &mut [Pirte], mut op: impl FnMut(&mut Pirte, usize)) -> (f64, f64) {
    let start = Instant::now();
    let (allocations, ()) = CountingAllocator::count(|| {
        for (index, pirte) in pirtes.iter_mut().enumerate() {
            op(pirte, index);
        }
    });
    let micros = start.elapsed().as_secs_f64() * 1e6 / pirtes.len() as f64;
    (micros, allocations as f64 / pirtes.len() as f64)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let (plugin, install, uninstall) = lifecycle_messages();
    let mut pirtes: Vec<Pirte> = (0..PIRTES)
        .map(|_| Pirte::new(EcuId::new(2), worker_config()))
        .collect();
    let mut acks: Vec<(SwcOutput, Value)> = Vec::new();
    // The message values handed to the PIRTEs are built outside the timed
    // sweeps, as a relay hands over the bytes it received.
    let values = |bytes: &[u8]| -> Vec<Option<Value>> {
        (0..PIRTES)
            .map(|_| Some(Value::Bytes(bytes.to_vec())))
            .collect()
    };

    let mut results: [(&str, Vec<f64>, Vec<f64>); 3] = [
        ("install via mgmt_in", Vec::new(), Vec::new()),
        ("uninstall via mgmt_in", Vec::new(), Vec::new()),
        ("bare Pirte::uninstall", Vec::new(), Vec::new()),
    ];
    for round in 0..ROUNDS {
        let mut installs = values(&install);
        let (micros, allocs) = sweep(&mut pirtes, |pirte, index| {
            let message = installs[index].take().expect("one install per PIRTE");
            pirte.dispatch_swc_input("mgmt_in", message).unwrap();
            pirte.drain_outbox_into(&mut acks);
            acks.clear();
        });
        results[0].1.push(micros);
        results[0].2.push(allocs);

        // Alternate the two uninstall paths between rounds.
        let by_message = round % 2 == 0;
        let mut uninstalls = values(&uninstall);
        let (micros, allocs) = sweep(&mut pirtes, |pirte, index| {
            if by_message {
                let message = uninstalls[index].take().expect("one uninstall per PIRTE");
                pirte.dispatch_swc_input("mgmt_in", message).unwrap();
                pirte.drain_outbox_into(&mut acks);
                acks.clear();
            } else {
                pirte.uninstall(&plugin).unwrap();
            }
        });
        let row = if by_message { 1 } else { 2 };
        results[row].1.push(micros);
        results[row].2.push(allocs);
    }
    assert!(pirtes.iter().all(|p| p.plugin_count() == 0));

    println!("{PIRTES} PIRTEs, {ROUNDS} rounds, medians per operation:");
    for (name, micros, allocs) in results {
        println!(
            "  {name:<24} {:>6.2} µs  {:>5.1} allocations",
            median(micros),
            median(allocs)
        );
    }
}

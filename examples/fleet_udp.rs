//! Fleet over real sockets: the install/update protocol crossing actual UDP
//! loopback datagrams, with the server and every vehicle running as
//! independent threads.
//!
//! Everything above the transport is identical to the deterministic
//! examples — the same `TrustedServer`, ECM gateways and plug-in runtime —
//! but here the wire is `UdpTransport` (length-prefixed, checksummed
//! datagrams over `127.0.0.1` sockets) with induced loss and reordering,
//! and the driver is the `ActorFederation` runtime: wall-clock
//! retransmission deadlines instead of simulated ticks.
//!
//! Run with `cargo run --example fleet_udp`.

use std::time::{Duration, Instant};

use dynar::bus::network::BusConfig;
use dynar::fes::{shared_transport, UdpConfig, UdpTransport};
use dynar::foundation::error::DynarError;
use dynar::foundation::ids::{AppId, UserId, VehicleId};
use dynar::server::{DeploymentStatus, TrustedServer};
use dynar::sim::actors::ActorFederation;
use dynar::sim::scenario::fleet::{
    build_vehicle, fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1,
    GAIN_V2,
};

const VEHICLES: usize = 4;
const WORKERS: u16 = 2;
const QUANTUM: Duration = Duration::from_millis(1);
const TIMEOUT: Duration = Duration::from_secs(60);

fn await_installed(
    federation: &ActorFederation,
    vehicles: &[VehicleId],
    app: &AppId,
    expect_installed: bool,
) -> Result<(), DynarError> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let statuses: Vec<DeploymentStatus> = {
            let (vehicles, app) = (vehicles.to_vec(), app.clone());
            federation.with_server(move |server| {
                vehicles
                    .iter()
                    .map(|vehicle| server.deployment_status(vehicle, &app))
                    .collect()
            })
        };
        let done = statuses.iter().all(|status| {
            if expect_installed {
                matches!(status, DeploymentStatus::Installed)
            } else {
                matches!(status, DeploymentStatus::NotInstalled)
            }
        });
        if done {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(DynarError::RetryExhausted {
                operation: format!("convergence of {app} over UDP"),
                attempts: 0,
            });
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() -> Result<(), DynarError> {
    // A lossy, reordering wire: 8 % of datagrams vanish, 25 % are held back
    // long enough for a later one to overtake them.  The retransmission and
    // sequence-number planes have to absorb all of it.
    let transport = shared_transport(UdpTransport::new(UdpConfig {
        seed: 0xDAC_2014,
        loss_probability: 0.08,
        reorder_probability: 0.25,
    }));

    let mut server = TrustedServer::new();
    let operator = UserId::new("fleet-ops");
    server.create_user(operator.clone())?;
    server.upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS)?)?;
    server.upload_app(telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS)?)?;

    let mut vehicle_ids = Vec::new();
    for index in 0..VEHICLES {
        let vehicle_id = VehicleId::new(format!("VIN-UDP-{index:02}"));
        server.register_vehicle(vehicle_id.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))?;
        server.bind_vehicle(&operator, &vehicle_id)?;
        vehicle_ids.push(vehicle_id);
    }

    let mut federation = ActorFederation::launch(server, "server", transport, QUANTUM);
    for (index, vehicle_id) in vehicle_ids.iter().enumerate() {
        let endpoint = format!("vehicle-{index}");
        let (vehicle, _workers, _) = build_vehicle(
            &endpoint,
            WORKERS,
            BusConfig::default(),
            &federation.transport(),
            0,
        )?;
        federation.spawn_vehicle(vehicle_id.clone(), endpoint.clone(), vehicle);
        println!("vehicle {vehicle_id} up on its own thread as {endpoint}");
    }

    println!("installing {APP_TELEMETRY} on {VEHICLES} vehicles over UDP loopback...");
    let started = Instant::now();
    let v1 = AppId::new(APP_TELEMETRY);
    for vehicle_id in &vehicle_ids {
        let (operator, vehicle_id, v1) = (operator.clone(), vehicle_id.clone(), v1.clone());
        federation.with_server(move |server| server.deploy(&operator, &vehicle_id, &v1))?;
    }
    await_installed(&federation, &vehicle_ids, &v1, true)?;
    println!("  installed everywhere in {:?}", started.elapsed());

    let target = vehicle_ids[0].clone();
    println!("updating {target} to {APP_TELEMETRY_V2} while the rest keep running...");
    let started = Instant::now();
    {
        let (operator, target, v1) = (operator.clone(), target.clone(), v1.clone());
        federation.with_server(move |server| server.uninstall(&operator, &target, &v1))?;
    }
    await_installed(&federation, std::slice::from_ref(&target), &v1, false)?;
    let v2 = AppId::new(APP_TELEMETRY_V2);
    {
        let (operator, target, v2) = (operator.clone(), target.clone(), v2.clone());
        federation.with_server(move |server| server.deploy(&operator, &target, &v2))?;
    }
    await_installed(&federation, std::slice::from_ref(&target), &v2, true)?;
    println!("  updated in {:?}", started.elapsed());

    let transport = federation.transport();
    let outcome = federation.shutdown();
    let stats = transport.lock().stats();
    println!("wire ledger: {stats:?}");
    println!(
        "  conserved: {} | retry escalations: {} | rejected uplinks: {} | vehicle errors: {}",
        stats.is_conserved(),
        outcome.stats.retry_failures,
        outcome.stats.rejected_uplinks,
        outcome
            .vehicles
            .iter()
            .filter(|(_, _, error)| error.is_some())
            .count()
    );
    assert!(stats.is_conserved(), "transport ledger must balance");
    println!("all vehicles converged over a real OS network path");
    Ok(())
}

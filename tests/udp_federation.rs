//! Socket federation acceptance: the full install → update → reconcile
//! protocol over **real UDP loopback sockets**, with induced datagram loss
//! and reordering, driven by the actor runtime.
//!
//! This is the end of the transport story: the same `TrustedServer`, ECM
//! gateways and plug-in runtime that replay byte-identically over the
//! deterministic hub here cross an actual OS network path — length-prefixed
//! checksummed datagrams, kernel socket buffers, wall-clock retransmission
//! deadlines.  The seed is pinned so the backend's induced loss/reorder
//! rolls are a fixed sequence, but thread interleaving is real, so the
//! assertions are convergence-shaped:
//!
//! * v1 installs on every vehicle, then vehicle 0 updates to v2
//!   (uninstall + install) while the rest keep running;
//! * every worker PIRTE ends with **exactly one** plug-in and zero faults —
//!   retransmitted or reordered packages are applied once, never twice;
//! * the transport ledger stays conserved: sent = delivered + lost +
//!   dropped + in-flight, across real sockets.
//!
//! `#[ignore]`d out of tier-1 (binds loopback sockets, takes wall-clock
//! seconds); the dedicated socket CI step runs it single-threaded.

use std::time::{Duration, Instant};

use dynar::bus::network::BusConfig;
use dynar::fes::{shared_transport, UdpConfig, UdpTransport};
use dynar::foundation::ids::{AppId, UserId, VehicleId};
use dynar::server::{DeploymentStatus, TrustedServer};
use dynar::sim::actors::ActorFederation;
use dynar::sim::scenario::fleet::{
    build_vehicle, fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1,
    GAIN_V2,
};

const VEHICLES: usize = 3;
const WORKERS: u16 = 2;
const QUANTUM: Duration = Duration::from_millis(1);
const TIMEOUT: Duration = Duration::from_secs(120);

/// Polls the live server until every listed vehicle reports `expected` for
/// `app`, or the deadline passes.
fn await_status(
    federation: &ActorFederation,
    vehicles: &[VehicleId],
    app: &AppId,
    expected: fn(&DeploymentStatus) -> bool,
    what: &str,
) {
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
        if statuses.iter().all(expected) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what} did not converge within {TIMEOUT:?}: {statuses:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
#[ignore = "binds loopback sockets and runs wall-clock seconds; socket CI step"]
fn udp_federation_installs_and_updates_under_reordering() {
    // Pinned seed: the induced-fault rolls are a fixed sequence per run.
    let transport = shared_transport(UdpTransport::new(UdpConfig {
        seed: 0xDAC_2014,
        loss_probability: 0.10,
        reorder_probability: 0.30,
    }));

    let mut server = TrustedServer::new();
    let user = UserId::new("fleet-ops");
    server.create_user(user.clone()).unwrap();
    server
        .upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap())
        .unwrap();
    server
        .upload_app(telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS).unwrap())
        .unwrap();

    let mut vehicle_ids = Vec::new();
    for index in 0..VEHICLES {
        let vehicle_id = VehicleId::new(format!("VIN-UDP-{index:02}"));
        server
            .register_vehicle(vehicle_id.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
            .unwrap();
        server.bind_vehicle(&user, &vehicle_id).unwrap();
        vehicle_ids.push(vehicle_id);
    }

    let mut federation = ActorFederation::launch(server, "server", transport, QUANTUM);
    let mut handles = Vec::new();
    for (index, vehicle_id) in vehicle_ids.iter().enumerate() {
        let endpoint = format!("vehicle-{index}");
        let (vehicle, workers, _) = build_vehicle(
            &endpoint,
            WORKERS,
            BusConfig::default(),
            &federation.transport(),
            0,
        )
        .unwrap();
        federation.spawn_vehicle(vehicle_id.clone(), endpoint, vehicle);
        handles.push(workers);
    }

    // --- Phase 1: install v1 everywhere over the wire.
    let v1 = AppId::new(APP_TELEMETRY);
    for vehicle_id in &vehicle_ids {
        let (user, vehicle_id, v1) = (user.clone(), vehicle_id.clone(), v1.clone());
        federation
            .with_server(move |server| server.deploy(&user, &vehicle_id, &v1))
            .unwrap();
    }
    await_status(
        &federation,
        &vehicle_ids,
        &v1,
        |s| matches!(s, DeploymentStatus::Installed),
        "v1 install",
    );

    // --- Phase 2: update vehicle 0 to v2 (uninstall, then install).
    let v2 = AppId::new(APP_TELEMETRY_V2);
    let target = vehicle_ids[0].clone();
    {
        let (user, target, v1) = (user.clone(), target.clone(), v1.clone());
        federation
            .with_server(move |server| server.uninstall(&user, &target, &v1))
            .unwrap();
    }
    await_status(
        &federation,
        std::slice::from_ref(&target),
        &v1,
        |s| matches!(s, DeploymentStatus::NotInstalled),
        "v1 uninstall",
    );
    {
        let (user, target, v2) = (user.clone(), target.clone(), v2.clone());
        federation
            .with_server(move |server| server.deploy(&user, &target, &v2))
            .unwrap();
    }
    await_status(
        &federation,
        std::slice::from_ref(&target),
        &v2,
        |s| matches!(s, DeploymentStatus::Installed),
        "v2 update",
    );

    // --- Tear down and audit.
    let transport = federation.transport();
    let outcome = federation.shutdown();
    for (vehicle_id, _, error) in &outcome.vehicles {
        assert!(
            error.is_none(),
            "{vehicle_id}: vehicle thread died: {error:?}"
        );
    }

    // Exactly-once semantics survived real loss and reordering: one plug-in
    // per worker (v2 on the updated vehicle, v1 elsewhere), zero faults.
    for (vehicle_id, workers) in vehicle_ids.iter().zip(&handles) {
        for (worker, _, pirte) in workers {
            let pirte = pirte.lock();
            assert_eq!(
                pirte.stats().plugin_faults,
                0,
                "{vehicle_id}/{worker}: no plug-in faults"
            );
            assert_eq!(
                pirte.plugin_count(),
                1,
                "{vehicle_id}/{worker}: exactly one plug-in after install/update"
            );
        }
    }

    let stats = transport.lock().stats();
    assert!(stats.is_conserved(), "socket ledger conserved: {stats:?}");
    assert!(
        stats.lost > 0,
        "the induced loss model actually dropped datagrams: {stats:?}"
    );
}

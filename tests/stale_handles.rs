//! The cached transport handles of the hot path under endpoint churn.
//!
//! Every ECM gateway drains its own mailbox through an endpoint handle it
//! resolved once (slot plus slot generation).  These tests pin down that a
//! handle made stale by an unregister/re-register cycle is detected and
//! re-resolved, so downlinks always reach the ECM currently registered
//! under the vehicle's endpoint name — never a stale slot, never the slot's
//! next tenant.

use dynar::foundation::ids::{AppId, VehicleId};
use dynar::foundation::payload::Payload;
use dynar::server::server::DeploymentStatus;
use dynar::sim::scenario::fleet::{
    build_vehicle, FleetScenario, FleetScenarioConfig, APP_TELEMETRY,
};

fn scenario(vehicles: usize, shards: usize) -> FleetScenario {
    FleetScenario::build_with(FleetScenarioConfig {
        vehicles,
        shards,
        ..FleetScenarioConfig::default()
    })
    .unwrap()
}

fn installs_of(scenario: &FleetScenario, vehicle: usize) -> Vec<u64> {
    scenario.handles()[vehicle]
        .workers
        .iter()
        .map(|(_, _, pirte)| pirte.lock().stats().installs)
        .collect()
}

/// The reboot path: the old endpoint is unregistered, a new ECM registers
/// the same name, and the new incarnation replaces the old vehicle.  The
/// server's resync downlinks must reach the new ECM (whose workers get the
/// app reinstalled), and the dropped incarnation sees nothing more.
fn reboot_path(shards: usize) {
    let mut scenario = scenario(4, shards);
    scenario.install_telemetry(4).unwrap();
    let id: VehicleId = scenario.handles()[0].id.clone();
    let endpoint = scenario.fleet.endpoint_of(&id).unwrap().to_owned();
    let old_workers = scenario.handles()[0].workers.clone();
    let old_installs = installs_of(&scenario, 0);

    scenario.fleet.server.mark_offline(&id);
    assert!(scenario.fleet.unregister_endpoint(&endpoint));
    let hub = scenario.fleet.hub_for(&id);
    let (fresh, new_workers, _) = build_vehicle(
        &endpoint,
        scenario.workers_per_vehicle(),
        dynar::bus::network::BusConfig {
            frames_per_tick: 64,
            ..Default::default()
        },
        &hub,
        1,
    )
    .unwrap();
    assert!(scenario.fleet.endpoint_registered(&endpoint));
    scenario.fleet.replace_vehicle(&id, fresh).unwrap();

    let app = AppId::new(APP_TELEMETRY);
    for _ in 0..200 {
        let reinstalled = new_workers
            .iter()
            .all(|(_, _, pirte)| pirte.lock().plugin_count() == 1);
        if reinstalled
            && scenario.fleet.server.deployment_status(&id, &app) == DeploymentStatus::Installed
        {
            break;
        }
        scenario.fleet.step().unwrap();
    }
    for (ecu, _, pirte) in &new_workers {
        assert_eq!(pirte.lock().plugin_count(), 1, "worker {ecu} resynced");
    }
    assert_eq!(
        scenario.fleet.server.deployment_status(&id, &app),
        DeploymentStatus::Installed
    );
    let after: Vec<u64> = old_workers
        .iter()
        .map(|(_, _, pirte)| pirte.lock().stats().installs)
        .collect();
    assert_eq!(
        after, old_installs,
        "the replaced incarnation received nothing"
    );
}

#[test]
fn reboot_path_downlinks_reach_the_new_ecm() {
    reboot_path(1);
}

#[test]
fn reboot_path_downlinks_reach_the_new_ecm_two_shards() {
    reboot_path(2);
}

/// An ECM that keeps running while its endpoint is unregistered and then
/// registered again: its cached handle goes stale (another endpoint even
/// takes over the freed slot meanwhile), and it must re-resolve by name and
/// receive the server's next downlink — without ever draining the slot's
/// new tenant's mailbox.  The ECM is detached with a deployment in flight,
/// so the acknowledgements it forwards meanwhile are refused by the
/// transport: they are counted, and the retransmission that reaches the
/// re-registered ECM settles the deployment from its replayed acks.
fn ecm_survives_re_registration(shards: usize) {
    let mut scenario = scenario(3, shards);
    // A few rounds so every gateway has resolved and cached its handle.
    scenario.fleet.run(3).unwrap();
    let id: VehicleId = scenario.handles()[0].id.clone();
    let endpoint = scenario.fleet.endpoint_of(&id).unwrap().to_owned();
    let hub = scenario.fleet.hub_for(&id);

    // The deployment reaches the ECM, which relays it to its workers.
    let app = AppId::new(APP_TELEMETRY);
    let user = scenario.user.clone();
    let delivered = hub.lock().stats().delivered;
    scenario
        .fleet
        .deploy_wave(&user, &app, std::slice::from_ref(&id))
        .unwrap();
    while hub.lock().stats().delivered == delivered {
        scenario.fleet.step().unwrap();
    }
    assert_eq!(scenario.ecm_send_failures().total(), 0);

    assert!(scenario.fleet.unregister_endpoint(&endpoint));
    hub.lock().register("intruder");
    hub.lock()
        .send(
            scenario.fleet.server_endpoint(),
            "intruder",
            Payload::from(vec![1, 2, 3]),
        )
        .unwrap();
    // The ECM runs on with a stale handle and no registered endpoint, long
    // enough for its workers to install and acknowledge (well inside the
    // server's ack deadline): the acknowledgements it forwards cannot be
    // sent.
    scenario.fleet.run(8).unwrap();
    let failures = scenario.ecm_send_failures();
    assert!(
        failures.uplink > 0,
        "refused uplinks are counted: {failures:?}"
    );
    hub.lock().register(&endpoint);
    scenario.fleet.run(2).unwrap();

    scenario
        .fleet
        .await_deployment(
            &app,
            std::slice::from_ref(&id),
            &DeploymentStatus::Installed,
            100,
        )
        .unwrap();
    for (ecu, _, pirte) in &scenario.handles()[0].workers {
        assert_eq!(pirte.lock().plugin_count(), 1, "worker {ecu} installed");
    }
    assert_eq!(
        hub.lock().pending_for("intruder"),
        1,
        "the stale handle never drained the slot's new tenant"
    );
    assert_eq!(
        scenario.ecm_send_failures(),
        failures,
        "no send fails once the endpoint is back"
    );
}

#[test]
fn running_ecm_re_resolves_its_handle_after_re_registration() {
    ecm_survives_re_registration(1);
}

#[test]
fn running_ecm_re_resolves_its_handle_after_re_registration_two_shards() {
    ecm_survives_re_registration(2);
}

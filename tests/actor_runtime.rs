//! Actor-runtime acceptance: the full install protocol converges when the
//! server and every vehicle run as *real threads* over the shared transport,
//! with lossy links forcing the retransmission plane to do real work.
//!
//! This is the concurrency half of the transport story.  The deterministic
//! half — byte-identical replay, lane-layout equivalence — lives in
//! `tests/lane_equivalence.rs` and the journal tests and keeps running over
//! `Fleet`'s lockstep loop.  Here nothing is reproducible (thread
//! interleaving and wall-clock pacing are real), so the assertions are about
//! *convergence*:
//!
//! * every vehicle reaches `DeploymentStatus::Installed` within the timeout,
//! * every worker PIRTE holds the plug-in **exactly once** with zero faults
//!   (a duplicate apply of a retransmitted package would show up here),
//! * the transport ledger stays conserved — retries may lose messages, but
//!   none may vanish unaccounted,
//! * the server actor's round rejects no uplink (`FleetStats::rejected_uplinks`),
//! * every vehicle thread exits cleanly.
//!
//! The hub backend keeps this in tier-1 (no sockets); the same protocol over
//! real UDP is `tests/udp_federation.rs`.

use std::time::{Duration, Instant};

use dynar::bus::network::BusConfig;
use dynar::fes::{shared_transport, LinkFault, TransportConfig, TransportHub};
use dynar::foundation::ids::{AppId, UserId, VehicleId};
use dynar::foundation::time::Tick;
use dynar::server::campaign::{
    CampaignId, CampaignSpec, CampaignStatus, HealthGate, VehicleSelector, WavePlan,
};
use dynar::server::{DeploymentStatus, TrustedServer};
use dynar::sim::actors::ActorFederation;
use dynar::sim::scenario::fleet::{
    build_vehicle, fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, GAIN_V1,
};

const VEHICLES: usize = 3;
const WORKERS: u16 = 2;
const QUANTUM: Duration = Duration::from_millis(1);
const TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn threaded_federation_converges_under_loss() {
    let transport = shared_transport(TransportHub::new(TransportConfig::default()));

    // --- Trusted server: catalogue + registrations, before any thread runs.
    let mut server = TrustedServer::new();
    let user = UserId::new("fleet-ops");
    server.create_user(user.clone()).unwrap();
    server
        .upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap())
        .unwrap();

    let mut vehicle_ids = Vec::new();
    for index in 0..VEHICLES {
        let vehicle_id = VehicleId::new(format!("VIN-ACTOR-{index:02}"));
        server
            .register_vehicle(vehicle_id.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
            .unwrap();
        server.bind_vehicle(&user, &vehicle_id).unwrap();
        vehicle_ids.push(vehicle_id);
    }

    // Chaos: vehicle 0 starts partitioned from the server until tick 100
    // (~100ms of wall time), guaranteeing the first package pushes are lost
    // and the deadline timer must retransmit after the heal; the budget
    // (25 ticks × 8 attempts) comfortably outlasts the partition.  A mild
    // loss model rides on top of vehicle 1's links.
    {
        let mut hub = transport.lock();
        let faults = hub
            .fault_injection()
            .expect("the hub backend supports fault injection");
        faults.partition("server", "vehicle-0", Tick::new(100));
        faults.set_link_fault("server", "vehicle-1", LinkFault::lossy(0.2));
        faults.set_link_fault("vehicle-1", "server", LinkFault::lossy(0.2));
    }

    // --- Launch: one server actor, one actor per vehicle.
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

    // --- Deploy through the ask pattern and poll for convergence.
    let app = AppId::new(APP_TELEMETRY);
    for vehicle_id in &vehicle_ids {
        let (user, vehicle_id, app) = (user.clone(), vehicle_id.clone(), app.clone());
        federation
            .with_server(move |server| server.deploy(&user, &vehicle_id, &app))
            .unwrap();
    }

    let deadline = Instant::now() + TIMEOUT;
    loop {
        let statuses: Vec<DeploymentStatus> = {
            let (vehicle_ids, app) = (vehicle_ids.clone(), app.clone());
            federation.with_server(move |server| {
                vehicle_ids
                    .iter()
                    .map(|vehicle| server.deployment_status(vehicle, &app))
                    .collect()
            })
        };
        if statuses
            .iter()
            .all(|status| matches!(status, DeploymentStatus::Installed))
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "install did not converge within {TIMEOUT:?}: {statuses:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // --- Tear down and audit.
    let transport = federation.transport();
    let outcome = federation.shutdown();
    for (vehicle_id, _, error) in &outcome.vehicles {
        assert!(
            error.is_none(),
            "{vehicle_id}: vehicle thread died: {error:?}"
        );
    }
    // The server actor's round counts every uplink: none came from an
    // unknown endpoint or was refused by the server.
    assert!(outcome.stats.uplink_messages > 0, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.rejected_uplinks, 0, "{:?}", outcome.stats);
    assert_eq!(outcome.vehicles.len(), VEHICLES);

    // Exactly-once install on every worker, despite retransmissions.
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
                "{vehicle_id}/{worker}: the OP plug-in installed exactly once"
            );
        }
    }

    // The transport ledger must balance even though links were lossy.
    let stats = transport.lock().stats();
    assert!(
        stats.is_conserved(),
        "transport ledger conserved: {stats:?}"
    );
    assert!(
        stats.lost > 0,
        "the partition actually lost traffic: {stats:?}"
    );
}

/// The campaign plane drives waves from the *wall-clock* runtime too: the
/// server thread ticks on its own whenever a campaign is active (no message
/// needs to arrive), so health gates soak and advance in real time.  A
/// 1-canary / 100 %-ramp v1→v2 campaign must run to `Complete` with every
/// vehicle holding exactly the v2 plug-in — the same staged semantics the
/// deterministic `tests/campaign.rs` pins over `Fleet`'s lockstep loop.
#[test]
fn threaded_federation_completes_a_staged_campaign() {
    use dynar::sim::scenario::fleet::{APP_TELEMETRY_V2, GAIN_V2};

    let transport = shared_transport(TransportHub::new(TransportConfig::default()));

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
        let vehicle_id = VehicleId::new(format!("VIN-CAMPAIGN-{index:02}"));
        server
            .register_vehicle(vehicle_id.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
            .unwrap();
        server.bind_vehicle(&user, &vehicle_id).unwrap();
        vehicle_ids.push(vehicle_id);
    }

    let mut federation = ActorFederation::launch(server, "server", transport, QUANTUM);
    let mut handles = Vec::new();
    for (index, vehicle_id) in vehicle_ids.iter().enumerate() {
        let endpoint = format!("campaign-vehicle-{index}");
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

    // Baseline: every vehicle on v1 before the campaign starts.
    let v1 = AppId::new(APP_TELEMETRY);
    for vehicle_id in &vehicle_ids {
        let (user, vehicle_id, app) = (user.clone(), vehicle_id.clone(), v1.clone());
        federation
            .with_server(move |server| server.deploy(&user, &vehicle_id, &app))
            .unwrap();
    }
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let installed = {
            let (vehicle_ids, app) = (vehicle_ids.clone(), v1.clone());
            federation.with_server(move |server| {
                vehicle_ids.iter().all(|vehicle| {
                    matches!(
                        server.deployment_status(vehicle, &app),
                        DeploymentStatus::Installed
                    )
                })
            })
        };
        if installed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "v1 baseline did not converge within {TIMEOUT:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // One canary, then the full ramp; a short soak keeps wall time low.
    let spec = CampaignSpec {
        id: CampaignId::new("actor-rollout-v2"),
        app: AppId::new(APP_TELEMETRY_V2),
        replaces: Some(v1.clone()),
        selector: VehicleSelector::All,
        plan: WavePlan {
            canary: 1,
            ramp_percent: vec![100],
        },
        gate: HealthGate {
            min_soak_ticks: 10,
            pause_failed: 0,
            abort_failed: 1,
        },
    };
    let exposed = {
        let (user, spec) = (user.clone(), spec.clone());
        federation
            .with_server(move |server| server.create_campaign(&user, spec))
            .unwrap()
    };
    assert_eq!(exposed, 1, "the canary wave exposes exactly one vehicle");

    // The server thread must tick itself through the waves: no deploy call,
    // no inbound message — just wall-clock quanta and the health gate.
    let id = CampaignId::new("actor-rollout-v2");
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let status = {
            let id = id.clone();
            federation
                .with_server(move |server| server.campaign(&id).map(|campaign| campaign.status))
        };
        match status {
            Some(CampaignStatus::Complete) => break,
            Some(CampaignStatus::Aborted) => panic!("healthy campaign aborted"),
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "campaign did not complete within {TIMEOUT:?}: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let outcome = federation.shutdown();
    for (vehicle_id, _, error) in &outcome.vehicles {
        assert!(
            error.is_none(),
            "{vehicle_id}: vehicle thread died: {error:?}"
        );
    }
    // The server actor's round counts every uplink: none came from an
    // unknown endpoint or was refused by the server.
    assert!(outcome.stats.uplink_messages > 0, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.rejected_uplinks, 0, "{:?}", outcome.stats);

    // Every worker ended on exactly the v2 plug-in, installed exactly once.
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
                "{vehicle_id}/{worker}: v2 replaced v1 exactly once"
            );
        }
    }
}

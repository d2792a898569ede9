//! The server's unit tests, across its planes.

use super::reliability::{RttEstimator, MIN_RTO_TICKS};
use super::*;
use crate::campaign::{CampaignEvent, CampaignSpec, CampaignStatus, VehicleSelector};
use crate::model::{
    ConnectionDecl, PluginArtifact, PluginPortDecl, PluginSwcDecl, SwConf, VirtualPortDecl,
    VirtualPortKindDecl,
};
use dynar_core::context::LinkTarget;
use dynar_core::message::{Ack, AckStatus, DownlinkEnvelope, ManagementMessage};
use dynar_core::plugin::PluginPortDirection;
use dynar_foundation::codec;
use dynar_foundation::ids::{PluginPortId, VirtualPortId};
use dynar_foundation::journal::FrameReader;
use dynar_vm::assembler::assemble;

fn binary(name: &str) -> Vec<u8> {
    assemble(name, "yield\nhalt").unwrap().to_bytes()
}

fn system_conf() -> SystemSwConf {
    SystemSwConf::new("model-car")
        .with_swc(PluginSwcDecl {
            ecu: EcuId::new(1),
            swc_name: "ecm-swc".into(),
            is_ecm: true,
            virtual_ports: vec![VirtualPortDecl {
                id: VirtualPortId::new(0),
                name: "PluginData".into(),
                kind: VirtualPortKindDecl::TypeII {
                    peer: EcuId::new(2),
                },
            }],
        })
        .with_swc(PluginSwcDecl {
            ecu: EcuId::new(2),
            swc_name: "plugin-swc-2".into(),
            is_ecm: false,
            virtual_ports: vec![
                VirtualPortDecl {
                    id: VirtualPortId::new(3),
                    name: "PluginDataIn".into(),
                    kind: VirtualPortKindDecl::TypeII {
                        peer: EcuId::new(1),
                    },
                },
                VirtualPortDecl {
                    id: VirtualPortId::new(4),
                    name: "WheelsReq".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
                VirtualPortDecl {
                    id: VirtualPortId::new(5),
                    name: "SpeedReq".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
            ],
        })
}

fn hw_conf() -> HwConf {
    HwConf::new()
        .with_ecu(EcuId::new(1), 512)
        .with_ecu(EcuId::new(2), 512)
}

fn remote_control_app() -> AppDefinition {
    AppDefinition::new(AppId::new("remote-control"))
        .with_plugin(PluginArtifact {
            id: PluginId::new("COM"),
            binary: binary("COM"),
            ports: vec![
                PluginPortDecl {
                    name: "wheels_ext".into(),
                    direction: PluginPortDirection::Required,
                },
                PluginPortDecl {
                    name: "speed_ext".into(),
                    direction: PluginPortDirection::Required,
                },
                PluginPortDecl {
                    name: "wheels_fwd".into(),
                    direction: PluginPortDirection::Provided,
                },
                PluginPortDecl {
                    name: "speed_fwd".into(),
                    direction: PluginPortDirection::Provided,
                },
            ],
        })
        .with_plugin(PluginArtifact {
            id: PluginId::new("OP"),
            binary: binary("OP"),
            ports: vec![
                PluginPortDecl {
                    name: "wheels_in".into(),
                    direction: PluginPortDirection::Required,
                },
                PluginPortDecl {
                    name: "speed_in".into(),
                    direction: PluginPortDirection::Required,
                },
                PluginPortDecl {
                    name: "wheels_out".into(),
                    direction: PluginPortDirection::Provided,
                },
                PluginPortDecl {
                    name: "speed_out".into(),
                    direction: PluginPortDirection::Provided,
                },
            ],
        })
        .with_sw_conf(
            SwConf::new("model-car")
                .with_placement(PluginId::new("COM"), EcuId::new(1))
                .with_placement(PluginId::new("OP"), EcuId::new(2))
                .with_connection(
                    PluginId::new("COM"),
                    "wheels_ext",
                    ConnectionDecl::External {
                        endpoint: "phone".into(),
                        message_id: "Wheels".into(),
                    },
                )
                .with_connection(
                    PluginId::new("COM"),
                    "speed_ext",
                    ConnectionDecl::External {
                        endpoint: "phone".into(),
                        message_id: "Speed".into(),
                    },
                )
                .with_connection(
                    PluginId::new("COM"),
                    "wheels_fwd",
                    ConnectionDecl::RemotePlugin {
                        plugin: PluginId::new("OP"),
                        port: "wheels_in".into(),
                    },
                )
                .with_connection(
                    PluginId::new("COM"),
                    "speed_fwd",
                    ConnectionDecl::RemotePlugin {
                        plugin: PluginId::new("OP"),
                        port: "speed_in".into(),
                    },
                )
                .with_connection(
                    PluginId::new("OP"),
                    "wheels_out",
                    ConnectionDecl::VirtualPort {
                        name: "WheelsReq".into(),
                    },
                )
                .with_connection(
                    PluginId::new("OP"),
                    "speed_out",
                    ConnectionDecl::VirtualPort {
                        name: "SpeedReq".into(),
                    },
                ),
        )
}

pub(super) fn server_with_vehicle() -> (TrustedServer, UserId, VehicleId) {
    let mut server = TrustedServer::new();
    let user = UserId::new("alice");
    let vehicle = VehicleId::new("VIN-1");
    server.create_user(user.clone()).unwrap();
    server
        .register_vehicle(vehicle.clone(), hw_conf(), system_conf())
        .unwrap();
    server.bind_vehicle(&user, &vehicle).unwrap();
    server.upload_app(remote_control_app()).unwrap();
    (server, user, vehicle)
}

pub(super) fn ack(plugin: &str, app: &str, ecu: u16, status: AckStatus) -> Vec<u8> {
    ManagementMessage::Ack(Ack {
        plugin: PluginId::new(plugin),
        app: AppId::new(app),
        ecu: EcuId::new(ecu),
        status,
    })
    .to_bytes()
}

#[test]
fn user_setup_operations() {
    let mut server = TrustedServer::new();
    let user = UserId::new("alice");
    server.create_user(user.clone()).unwrap();
    assert!(server.create_user(user.clone()).is_err());
    assert!(server
        .bind_vehicle(&user, &VehicleId::new("VIN-9"))
        .is_err());
}

#[test]
fn plan_generates_the_paper_contexts() {
    let (server, _user, vehicle) = server_with_vehicle();
    let packages = server
        .plan_deployment(&vehicle, &AppId::new("remote-control"))
        .unwrap();
    assert_eq!(packages.len(), 2);

    let (com_ecu, com) = &packages[0];
    assert_eq!(*com_ecu, EcuId::new(1));
    assert_eq!(com.plugin, PluginId::new("COM"));
    // COM's PLC: P0-, P1-, P2-V0.P0, P3-V0.P1 (as in §4).
    assert_eq!(
        com.context.plc.target_of(PluginPortId::new(0)),
        LinkTarget::Direct
    );
    assert_eq!(
        com.context.plc.target_of(PluginPortId::new(2)),
        LinkTarget::RemotePluginPort {
            via: VirtualPortId::new(0),
            remote: PluginPortId::new(0),
        }
    );
    let ecc = com.context.ecc.as_ref().unwrap();
    assert_eq!(ecc.route_for("Wheels").unwrap().ecu, EcuId::new(1));

    let (op_ecu, op) = &packages[1];
    assert_eq!(*op_ecu, EcuId::new(2));
    // OP's PLC: P0-V3... wait: wheels_in/speed_in are fed through the
    // remote link, so only the outputs are listed: P2-V4, P3-V5.
    assert_eq!(
        op.context.plc.target_of(PluginPortId::new(2)),
        LinkTarget::VirtualPort(VirtualPortId::new(4))
    );
    assert_eq!(
        op.context.plc.target_of(PluginPortId::new(3)),
        LinkTarget::VirtualPort(VirtualPortId::new(5))
    );
    assert!(op.context.ecc.is_none());
}

#[test]
fn incompatible_vehicles_are_rejected_with_reasons() {
    let (mut server, user, _vehicle) = server_with_vehicle();
    // A truck with a different model name and only one ECU.
    let truck = VehicleId::new("VIN-2");
    server
        .register_vehicle(
            truck.clone(),
            HwConf::new().with_ecu(EcuId::new(1), 64),
            SystemSwConf::new("truck"),
        )
        .unwrap();
    server.bind_vehicle(&user, &truck).unwrap();
    let err = server
        .deploy(&user, &truck, &AppId::new("remote-control"))
        .unwrap_err();
    assert!(matches!(err, DynarError::Incompatible(_)));
    assert!(err.is_deployment_rejection());
}

#[test]
fn memory_requirement_is_checked() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let mut app = remote_control_app();
    app.id = AppId::new("heavy");
    app.sw_confs[0].min_memory_kb = 100_000;
    server.upload_app(app).unwrap();
    let err = server
        .deploy(&user, &vehicle, &AppId::new("heavy"))
        .unwrap_err();
    assert!(matches!(err, DynarError::Incompatible(_)));
}

#[test]
fn deploy_pushes_packages_and_acks_complete_installation() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    let pushed = server.deploy(&user, &vehicle, &app).unwrap();
    assert_eq!(pushed, 2);
    assert_eq!(server.poll_downlink(&vehicle).len(), 2);
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Pending { .. }
    ));

    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Installed
    );
    assert_eq!(server.installed_apps(&vehicle), vec![app.clone()]);

    // A second deployment of the same app is rejected.
    assert!(server.deploy(&user, &vehicle, &app).is_err());
}

#[test]
fn failed_acks_mark_the_deployment_failed() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack(
                "OP",
                "remote-control",
                2,
                AckStatus::Failed("no memory".into()),
            ),
        )
        .unwrap();
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Failed(reason) if reason.contains("no memory")
    ));
    assert!(server.installed_apps(&vehicle).is_empty());
}

#[test]
fn dependencies_and_conflicts_are_enforced() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let base = AppId::new("remote-control");

    let dependent = AppDefinition::new(AppId::new("autopark"))
        .with_dependency(base.clone())
        .with_plugin(PluginArtifact {
            id: PluginId::new("PARK"),
            binary: binary("PARK"),
            ports: vec![],
        })
        .with_sw_conf(
            SwConf::new("model-car").with_placement(PluginId::new("PARK"), EcuId::new(2)),
        );
    let conflicting = AppDefinition::new(AppId::new("race-mode"))
        .with_conflict(base.clone())
        .with_plugin(PluginArtifact {
            id: PluginId::new("RACE"),
            binary: binary("RACE"),
            ports: vec![],
        })
        .with_sw_conf(
            SwConf::new("model-car").with_placement(PluginId::new("RACE"), EcuId::new(2)),
        );
    server.upload_app(dependent).unwrap();
    server.upload_app(conflicting).unwrap();

    // Dependency missing: autopark needs remote-control first.
    assert!(matches!(
        server
            .deploy(&user, &vehicle, &AppId::new("autopark"))
            .unwrap_err(),
        DynarError::MissingDependency { .. }
    ));

    // Install the base app.
    server.deploy(&user, &vehicle, &base).unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();

    // Now the dependent app deploys, and the conflicting one is rejected.
    server
        .deploy(&user, &vehicle, &AppId::new("autopark"))
        .unwrap();
    server
        .process_uplink(&vehicle, &ack("PARK", "autopark", 2, AckStatus::Installed))
        .unwrap();
    assert!(matches!(
        server
            .deploy(&user, &vehicle, &AppId::new("race-mode"))
            .unwrap_err(),
        DynarError::PluginConflict { .. }
    ));

    // Uninstalling the base app is blocked while autopark depends on it.
    assert!(matches!(
        server.uninstall(&user, &vehicle, &base).unwrap_err(),
        DynarError::DependentsExist { .. }
    ));

    // Remove the dependent first, then the base app.
    server
        .uninstall(&user, &vehicle, &AppId::new("autopark"))
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("PARK", "autopark", 2, AckStatus::Uninstalled),
        )
        .unwrap();
    let pushed = server.uninstall(&user, &vehicle, &base).unwrap();
    assert_eq!(pushed, 2);
}

#[test]
fn port_ids_stay_unique_across_successive_installs() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let base = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &base).unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();

    // A second app placed on ECU 2 must not reuse P0-P3.
    let extra = AppDefinition::new(AppId::new("logger"))
        .with_plugin(PluginArtifact {
            id: PluginId::new("LOG"),
            binary: binary("LOG"),
            ports: vec![PluginPortDecl {
                name: "speed_tap".into(),
                direction: PluginPortDirection::Required,
            }],
        })
        .with_sw_conf(
            SwConf::new("model-car")
                .with_placement(PluginId::new("LOG"), EcuId::new(2))
                .with_connection(
                    PluginId::new("LOG"),
                    "speed_tap",
                    ConnectionDecl::VirtualPort {
                        name: "SpeedReq".into(),
                    },
                ),
        );
    server.upload_app(extra).unwrap();
    let packages = server
        .plan_deployment(&vehicle, &AppId::new("logger"))
        .unwrap();
    let pic = &packages[0].1.context.pic;
    assert_eq!(
        pic.ports()[0].id,
        PluginPortId::new(4),
        "continues after P0-P3"
    );
}

#[test]
fn restore_repushes_packages_for_a_replaced_ecu() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let base = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &base).unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    server.poll_downlink(&vehicle);

    let pushed = server.restore(&vehicle, EcuId::new(2)).unwrap();
    assert_eq!(pushed, 1, "only the OP plug-in lived on ECU2");
    assert_eq!(server.poll_downlink(&vehicle).len(), 1);
    assert_eq!(server.restore(&vehicle, EcuId::new(7)).unwrap(), 0);
}

#[test]
fn ownership_is_required_for_deploy_and_uninstall() {
    let (mut server, _user, vehicle) = server_with_vehicle();
    let mallory = UserId::new("mallory");
    server.create_user(mallory.clone()).unwrap();
    assert!(server
        .deploy(&mallory, &vehicle, &AppId::new("remote-control"))
        .is_err());
}

#[test]
fn unacked_packages_are_retransmitted_with_the_same_sequence_id() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 10,
        max_attempts: 3,
    });
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    let first: Vec<_> = server.poll_downlink(&vehicle);
    assert_eq!(first.len(), 2);

    // Before the deadline nothing moves.
    assert!(server.tick(dynar_foundation::time::Tick::new(9)).is_empty());
    assert!(server.poll_downlink(&vehicle).is_empty());

    // At the deadline both packages are pushed again, byte-identical
    // (same sequence ids), so the ECM can deduplicate.
    assert!(server
        .tick(dynar_foundation::time::Tick::new(10))
        .is_empty());
    let retried = server.poll_downlink(&vehicle);
    assert_eq!(retried, first);
    assert_eq!(server.outstanding_count(&vehicle), 2);
}

#[test]
fn acks_settle_the_outstanding_state() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server.poll_downlink(&vehicle);
    assert_eq!(server.outstanding_count(&vehicle), 2);
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(server.outstanding_count(&vehicle), 1);
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(server.outstanding_count(&vehicle), 0);
    // Once acked, deadlines can come and go without retransmissions.
    assert!(server
        .tick(dynar_foundation::time::Tick::new(1000))
        .is_empty());
    assert!(server.poll_downlink(&vehicle).is_empty());
}

#[test]
fn exhausted_retries_escalate_into_a_typed_failure() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 5,
        max_attempts: 2,
    });
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    assert_eq!(server.retry_horizon_ticks(), 10);

    // One ack arrives; the other package dies on the link forever.
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();

    // First deadline: retransmission (attempt 2 of 2).
    assert!(server.tick(dynar_foundation::time::Tick::new(5)).is_empty());
    // Second deadline: the budget is spent — escalate.
    let failures = server.tick(dynar_foundation::time::Tick::new(10));
    assert_eq!(failures.len(), 1);
    let failure = &failures[0];
    assert_eq!(failure.vehicle, vehicle);
    assert_eq!(failure.app, app);
    assert_eq!(failure.plugin, PluginId::new("OP"));
    assert!(matches!(
        failure.error,
        DynarError::RetryExhausted { attempts: 2, .. }
    ));

    // The operation resolves as failed — no silent hang, no pending op.
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Failed(reason) if reason.contains("retry budget exhausted")
    ));
    assert!(server.pending_operations(&vehicle).is_empty());
    assert_eq!(server.outstanding_count(&vehicle), 0);
    assert!(server.installed_apps(&vehicle).is_empty());

    // The failure is not sticky: a fresh deploy is accepted.
    server.deploy(&user, &vehicle, &app).unwrap();
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Pending { .. }
    ));
}

#[test]
fn the_rtt_estimator_starts_at_the_deadline_and_smooths_toward_a_steady_rtt() {
    let policy = RetryPolicy::default();
    let mut rtt = RttEstimator::default();
    assert_eq!(rtt.rto(&policy), 25, "no sample yet: the policy deadline");

    // First sample R: SRTT = R, RTTVAR = R/2, RTO = R + 4·R/2.
    rtt.sample(6);
    assert_eq!((rtt.srtt, rtt.rttvar), (6 * 8, 3 * 4));
    assert_eq!(rtt.rto(&policy), 18);

    // A steady round trip keeps SRTT and shrinks RTTVAR to its integer
    // floor, so the timeout settles a few ticks above the round trip.
    for _ in 0..50 {
        rtt.sample(6);
    }
    assert_eq!(rtt.srtt >> 3, 6);
    assert_eq!(rtt.rto(&policy), 9);

    // A new steady round trip pulls SRTT over to it.
    for _ in 0..100 {
        rtt.sample(10);
    }
    assert_eq!(rtt.srtt >> 3, 10);
    assert_eq!(rtt.rto(&policy), 13);
}

#[test]
fn the_rto_is_clamped_between_the_floor_and_the_policy_deadline() {
    let policy = RetryPolicy {
        ack_deadline_ticks: 10,
        max_attempts: 3,
    };
    // Samples never read below one tick, so SRTT never falls below it.
    let mut rtt = RttEstimator::default();
    for _ in 0..50 {
        rtt.sample(0);
    }
    assert_eq!(rtt.srtt, 8);
    assert!(rtt.rto(&policy) >= MIN_RTO_TICKS);
    // Below a tick (reachable only through decoded state) the floor binds.
    let sub_tick = RttEstimator { srtt: 4, rttvar: 0 };
    assert_eq!(sub_tick.rto(&policy), MIN_RTO_TICKS);
    // A slow link cannot push the timeout past the policy deadline ...
    let mut slow = RttEstimator::default();
    slow.sample(40);
    assert_eq!(slow.rto(&policy), 10);
    // ... and a deadline below the floor wins over the floor.
    let tight = RetryPolicy {
        ack_deadline_ticks: 1,
        max_attempts: 3,
    };
    assert_eq!(sub_tick.rto(&tight), 1);
    assert_eq!(slow.rto(&tight), 1);
}

/// Deploys the remote-control app at `now` and acknowledges both of its
/// packages `rtt` ticks later, at their first attempt.
fn install_with_round_trip(
    server: &mut TrustedServer,
    user: &UserId,
    vehicle: &VehicleId,
    now: u64,
    rtt: u64,
) {
    let app = AppId::new("remote-control");
    server.tick(tick(now));
    server.deploy(user, vehicle, &app).unwrap();
    server.poll_downlink(vehicle);
    server.tick(tick(now + rtt));
    for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
        server
            .process_uplink(
                vehicle,
                &ack(plugin, "remote-control", ecu, AckStatus::Installed),
            )
            .unwrap();
    }
    assert_eq!(
        server.deployment_status(vehicle, &app),
        DeploymentStatus::Installed
    );
}

#[test]
fn first_attempt_acks_sample_the_round_trip_and_arm_the_next_push() {
    let (mut server, user, vehicle) = server_with_vehicle();
    assert_eq!(server.rto_ticks(&vehicle), Some(25));
    assert_eq!(server.rto_ticks(&VehicleId::new("VIN-UNKNOWN")), None);
    install_with_round_trip(&mut server, &user, &vehicle, 0, 3);
    // Two samples of 3 ticks: SRTT 3, and 4·RTTVAR 6 after the first,
    // 5 (its integer 3/4) after the second, so the timeout reads 3 + 5.
    assert_eq!(server.rto_ticks(&vehicle), Some(8));

    // The next push is due one RTO after it left, not 25 ticks after.
    server
        .uninstall(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap();
    let pushed = server.poll_downlink(&vehicle);
    assert_eq!(pushed.len(), 2);
    server.tick(tick(10));
    assert!(server.poll_downlink(&vehicle).is_empty());
    server.tick(tick(11));
    assert_eq!(server.poll_downlink(&vehicle), pushed);
}

/// Karn's rule: an ack that settles a retransmitted entry may answer any
/// of its copies, so it leaves the estimator as it was.
#[test]
fn acks_of_retransmitted_packages_leave_the_estimator_unchanged() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 10,
        max_attempts: 3,
    });
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server.poll_downlink(&vehicle);
    server.tick(tick(10));
    assert_eq!(server.poll_downlink(&vehicle).len(), 2, "retransmitted");
    server.tick(tick(12));
    for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
        server
            .process_uplink(
                &vehicle,
                &ack(plugin, "remote-control", ecu, AckStatus::Installed),
            )
            .unwrap();
    }
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Installed
    );
    assert_eq!(server.rto_ticks(&vehicle), Some(10), "still unsampled");
    assert_eq!(
        server.vehicles[&vehicle].delivery.rtt,
        RttEstimator::default()
    );
}

#[test]
fn retransmissions_back_off_exponentially_up_to_the_policy_deadline() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 20,
        max_attempts: 5,
    });
    install_with_round_trip(&mut server, &user, &vehicle, 0, 2);
    let rto = server.rto_ticks(&vehicle).unwrap();
    assert!(rto <= 5, "a 2-tick link measures a short timeout: {rto}");

    // The uninstall's packages are never acknowledged.
    server
        .uninstall(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap();
    server.poll_downlink(&vehicle);
    let mut sends = vec![2];
    let mut escalated = None;
    for now in 3..=200 {
        let failures = server.tick(tick(now));
        if !server.poll_downlink(&vehicle).is_empty() {
            sends.push(now);
        }
        if !failures.is_empty() {
            escalated = Some(now);
            break;
        }
    }
    let waits: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(waits.len(), 4, "attempts 2 to 5: {sends:?}");
    assert_eq!(waits[0], rto, "first wait: the measured timeout");
    for (k, wait) in waits.iter().enumerate() {
        assert_eq!(*wait, (rto << k).min(20), "wait {k}: {waits:?}");
    }
    let escalated = escalated.expect("the budget ran out");
    assert!(escalated - 2 <= server.retry_horizon_ticks());
}

#[test]
fn bringing_a_parked_vehicle_online_rearms_with_its_rto() {
    let (mut server, user, vehicle) = server_with_vehicle();
    install_with_round_trip(&mut server, &user, &vehicle, 0, 3);
    let rto = server.rto_ticks(&vehicle).unwrap();
    assert!(rto < 25);
    server
        .uninstall(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap();
    server.poll_downlink(&vehicle);

    server.mark_offline(&vehicle);
    server.tick(tick(1_000));
    server.mark_online(&vehicle, 0).unwrap();
    server.tick(tick(1_000 + rto - 1));
    assert!(server.poll_downlink(&vehicle).is_empty());
    server.tick(tick(1_000 + rto));
    assert_eq!(server.poll_downlink(&vehicle).len(), 2);
}

/// An entry parked at its first attempt and acknowledged after the
/// vehicle returns measures the parked time too: the sample is capped at
/// the policy deadline, so it moves the estimator by a bounded step.
#[test]
fn a_parked_first_attempt_samples_at_most_the_policy_deadline() {
    let (mut server, user, vehicle) = server_with_vehicle();
    install_with_round_trip(&mut server, &user, &vehicle, 0, 3);
    server
        .uninstall(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap();
    server.poll_downlink(&vehicle);
    server.mark_offline(&vehicle);
    server.tick(tick(1_000));
    server.mark_online(&vehicle, 0).unwrap();
    for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
        server
            .process_uplink(
                &vehicle,
                &ack(plugin, "remote-control", ecu, AckStatus::Uninstalled),
            )
            .unwrap();
    }
    // Two capped samples of 25 after SRTT 3: SRTT ≈ 3 + 2 · 22/8 ticks.
    let srtt = server.vehicles[&vehicle].delivery.rtt.srtt >> 3;
    assert!((6..=9).contains(&srtt), "{srtt}");
}

/// Regression: the ECM's own failure acks (e.g. "no route to ECU")
/// carry an empty app id.  They must settle both the outstanding
/// retransmission state *and* the pending operation — clearing only the
/// former would leave the operation pending forever with nothing left
/// to retransmit or escalate.
#[test]
fn empty_app_failure_acks_resolve_the_pending_operation() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();

    // The ECM reports it cannot reach OP's ECU, without knowing the app.
    server
        .process_uplink(
            &vehicle,
            &ack(
                "OP",
                "",
                1,
                AckStatus::Failed("ECM has no route to ECU2".into()),
            ),
        )
        .unwrap();

    assert_eq!(server.outstanding_count(&vehicle), 0);
    assert!(server.pending_operations(&vehicle).is_empty(), "no hang");
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Failed(reason) if reason.contains("no route")
    ));
    // Nothing left to retransmit at any later deadline.
    assert!(server
        .tick(dynar_foundation::time::Tick::new(1000))
        .is_empty());
}

#[test]
fn sequence_ids_increase_monotonically_per_vehicle() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    let seqs: Vec<u64> = server
        .poll_downlink(&vehicle)
        .iter()
        .map(|bytes| DownlinkEnvelope::from_bytes(bytes).unwrap().seq)
        .collect();
    assert_eq!(seqs, vec![0, 1]);

    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    server.uninstall(&user, &vehicle, &app).unwrap();
    let seqs: Vec<u64> = server
        .poll_downlink(&vehicle)
        .iter()
        .map(|bytes| DownlinkEnvelope::from_bytes(bytes).unwrap().seq)
        .collect();
    assert_eq!(seqs.len(), 2);
    assert!(seqs.iter().all(|&s| s >= 2), "fresh ids, never reused");
}

#[test]
fn uplink_must_be_an_ack() {
    let (mut server, _user, vehicle) = server_with_vehicle();
    let not_ack = ManagementMessage::Stop {
        plugin: PluginId::new("COM"),
    }
    .to_bytes();
    assert!(server.process_uplink(&vehicle, &not_ack).is_err());
    assert!(server.process_uplink(&vehicle, &[1, 2]).is_err());
}

pub(super) fn tick(n: u64) -> dynar_foundation::time::Tick {
    dynar_foundation::time::Tick::new(n)
}

pub(super) fn state_report(epoch: u32, plugins: Vec<(&str, &str, u16)>) -> Vec<u8> {
    ManagementMessage::StateReport {
        boot_epoch: epoch,
        plugins: plugins
            .into_iter()
            .map(|(plugin, app, ecu)| (PluginId::new(plugin), AppId::new(app), EcuId::new(ecu)))
            .collect(),
    }
    .to_bytes()
}

/// Regression (satellite): a `Failed` deployment record must never be
/// terminal.  After a partial failure — one plug-in acknowledged, the
/// other's retry budget exhausted — re-issuing the install must clear the
/// stale record, produce a fresh `Pending` operation and converge once
/// the vehicle acknowledges (the vehicle-side management path replaces
/// the half-installed plug-in instead of rejecting a duplicate).
#[test]
fn redeploy_after_a_partial_retry_failure_yields_a_fresh_pending_op() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 5,
        max_attempts: 2,
    });
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();

    // COM installs fine; OP's link is dead until the budget runs out.
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server.tick(tick(5));
    let failures = server.tick(tick(10));
    assert_eq!(failures.len(), 1);
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Failed(_)
    ));

    // Re-issuing the install clears the stale failure and goes Pending.
    server.deploy(&user, &vehicle, &app).unwrap();
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Pending { .. }
    ));

    // Both plug-ins acknowledge (COM as a replacement install) and the
    // operation converges — the earlier failure left nothing sticky.
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Installed
    );
    assert_eq!(server.outstanding_count(&vehicle), 0);
}

#[test]
fn mark_online_reports_an_unknown_vehicle() {
    let (mut server, _, _) = server_with_vehicle();
    let error = server
        .mark_online(&VehicleId::new("VIN-UNKNOWN"), 0)
        .unwrap_err();
    assert!(matches!(error, DynarError::NotFound { .. }), "{error}");
}

/// Regression (satellite): with the vehicle's endpoint gone, the server
/// used to keep retransmitting until the budget exhausted with a
/// misleading "retry budget exhausted" reason.  Parking the vehicle
/// freezes the deadlines; bringing it back re-arms them and converges.
#[test]
fn offline_vehicles_park_instead_of_burning_the_retry_budget() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 10,
        max_attempts: 3,
    });
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server.poll_downlink(&vehicle);

    server.mark_offline(&vehicle);
    assert!(!server.is_online(&vehicle));
    // Far past the whole retry horizon: nothing escalates, nothing moves.
    assert!(server.tick(tick(1_000)).is_empty());
    assert!(server.poll_downlink(&vehicle).is_empty(), "queue is parked");
    assert_eq!(server.outstanding_count(&vehicle), 2);
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Pending { .. }
    ));

    // Back online (same epoch): deadlines re-arm relative to now and the
    // packages retransmit with their original sequence ids.
    server.mark_online(&vehicle, 0).unwrap();
    assert!(server.is_online(&vehicle));
    assert!(server.tick(tick(1_010)).is_empty());
    let retried = server.poll_downlink(&vehicle);
    assert_eq!(retried.len(), 2);
    let seqs: Vec<u64> = retried
        .iter()
        .map(|bytes| DownlinkEnvelope::from_bytes(bytes).unwrap().seq)
        .collect();
    assert_eq!(seqs, vec![0, 1], "same ids — the gateway deduplicates");
}

/// Regression (satellite): a permanently removed vehicle fails fast with
/// the distinct `VehicleUnreachable` reason instead of burning the retry
/// budget and reporting "retry budget exhausted".
#[test]
fn unreachable_vehicles_fail_fast_with_a_distinct_reason() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();

    let failures = server.mark_unreachable(&vehicle);
    assert_eq!(failures.len(), 2);
    assert!(failures
        .iter()
        .all(|f| matches!(f.error, DynarError::VehicleUnreachable { .. })));
    assert!(server.pending_operations(&vehicle).is_empty());
    assert_eq!(server.outstanding_count(&vehicle), 0);
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Failed(reason) if reason.contains("unreachable")
    ));
    // Nothing left to retransmit or escalate at any later tick.
    assert!(server.tick(tick(10_000)).is_empty());
    assert!(server.poll_downlink(&vehicle).is_empty());
}

#[test]
fn desired_state_reconciliation_converges_up_and_down() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");

    // Declaring the app pushes its packages and goes Pending.
    let pushed = server.set_desired(&user, &vehicle, &app).unwrap();
    assert_eq!(pushed, 2);
    assert_eq!(server.desired_manifest(&vehicle), vec![app.clone()]);
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Pending { .. }
    ));
    // Re-declaring while in flight is a no-op.
    assert_eq!(server.set_desired(&user, &vehicle, &app).unwrap(), 0);

    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Installed
    );
    // Declaring an installed app pushes nothing.
    assert_eq!(server.set_desired(&user, &vehicle, &app).unwrap(), 0);

    // Withdrawing it reconciles down to an uninstall.
    let pushed = server.clear_desired(&user, &vehicle, &app).unwrap();
    assert_eq!(pushed, 2);
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Uninstalled),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Uninstalled),
        )
        .unwrap();
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::NotInstalled
    );
    assert!(server.desired_manifest(&vehicle).is_empty());
}

/// The reboot-recovery path: a state report with a newer boot epoch voids
/// the old epoch's bookkeeping (the ECM's volatile state is gone) and the
/// reconciliation re-issues the manifest under the new epoch.
#[test]
fn a_rebooted_vehicles_state_report_resyncs_and_reinstalls() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server.poll_downlink(&vehicle);
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Installed
    );

    // The vehicle reboots and announces an empty epoch-1 inventory.
    server.mark_offline(&vehicle);
    server
        .process_uplink(&vehicle, &state_report(1, vec![]))
        .unwrap();
    assert!(server.is_online(&vehicle));
    assert_eq!(server.vehicle_boot_epoch(&vehicle), Some(1));
    assert!(
        matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ),
        "the manifest re-issues the install from truth"
    );
    let downlinks = server.poll_downlink(&vehicle);
    assert_eq!(downlinks.len(), 2);
    for bytes in &downlinks {
        let envelope = DownlinkEnvelope::from_bytes(bytes).unwrap();
        assert_eq!(envelope.boot_epoch, 1, "stamped with the new epoch");
    }

    // A stale epoch-0 report straggling in afterwards changes nothing.
    server
        .process_uplink(&vehicle, &state_report(0, vec![]))
        .unwrap();
    assert_eq!(server.vehicle_boot_epoch(&vehicle), Some(1));
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Pending { .. }
    ));
}

/// Plug-ins the vehicle reports but nothing accounts for (their app is
/// neither desired, observed nor in flight) are orphans: the resync
/// pushes tracked uninstalls so the vehicle converges *down* to the
/// manifest too.
#[test]
fn orphan_plugins_in_a_state_report_are_uninstalled() {
    let (mut server, _user, vehicle) = server_with_vehicle();
    server
        .process_uplink(
            &vehicle,
            &state_report(0, vec![("GHOST", "retired-app", 2)]),
        )
        .unwrap();
    assert_eq!(server.outstanding_count(&vehicle), 1);
    let downlinks = server.poll_downlink(&vehicle);
    assert_eq!(downlinks.len(), 1);
    let envelope = DownlinkEnvelope::from_bytes(&downlinks[0]).unwrap();
    assert_eq!(envelope.target, EcuId::new(2));
    assert!(matches!(
        envelope.message,
        ManagementMessage::Uninstall { plugin } if plugin == PluginId::new("GHOST")
    ));

    // The vehicle confirms; the orphan bookkeeping settles.
    server
        .process_uplink(
            &vehicle,
            &ack("GHOST", "retired-app", 2, AckStatus::Uninstalled),
        )
        .unwrap();
    assert_eq!(server.outstanding_count(&vehicle), 0);
}

/// A rebooted vehicle with nothing desired still needs an own-epoch
/// downlink, or its gateway re-announces forever: the resync answers an
/// unsolicited report that produced no downlink with a state-report
/// request (whose reply is marked solicited, so this cannot ping-pong).
#[test]
fn an_empty_resync_confirms_the_epoch_with_a_request() {
    let (mut server, _user, vehicle) = server_with_vehicle();
    server
        .process_uplink(&vehicle, &state_report(1, vec![]))
        .unwrap();
    let downlinks = server.poll_downlink(&vehicle);
    assert_eq!(downlinks.len(), 1, "exactly the confirmation request");
    let envelope = DownlinkEnvelope::from_bytes(&downlinks[0]).unwrap();
    assert_eq!(envelope.boot_epoch, 1, "carries the new epoch");
    assert!(matches!(
        envelope.message,
        ManagementMessage::StateReportRequest
    ));

    // The gateway's reply is solicited: no further request is queued.
    server
        .process_uplink(&vehicle, &state_report(1, vec![]))
        .unwrap();
    assert!(server.poll_downlink(&vehicle).is_empty(), "no ping-pong");

    // The next *unsolicited* announce (a lost confirmation makes the
    // gateway retry) is answered again.
    server
        .process_uplink(&vehicle, &state_report(1, vec![]))
        .unwrap();
    assert_eq!(server.poll_downlink(&vehicle).len(), 1);
}

/// An epoch bump voids old-epoch failure outcomes along with the rest of
/// the bookkeeping: a non-desired app whose uninstall retry-exhausted
/// before the reboot must not stay `Failed` forever on a vehicle that
/// demonstrably no longer has it.
#[test]
fn a_reboot_clears_stale_failure_records() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.set_retry_policy(RetryPolicy {
        ack_deadline_ticks: 5,
        max_attempts: 1,
    });
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    // The uninstall dies on the link and the app is no longer desired.
    server.uninstall(&user, &vehicle, &app).unwrap();
    assert!(!server.tick(tick(100)).is_empty());
    assert!(matches!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::Failed(_)
    ));

    // The vehicle reboots with an empty inventory: the stale failure is
    // void — the plug-ins are gone with the old epoch.
    server
        .process_uplink(&vehicle, &state_report(1, vec![]))
        .unwrap();
    assert_eq!(
        server.deployment_status(&vehicle, &app),
        DeploymentStatus::NotInstalled
    );
}

#[test]
fn state_report_requests_are_queued_towards_the_ecm() {
    let (mut server, _user, vehicle) = server_with_vehicle();
    server.request_state_report(&vehicle).unwrap();
    let downlinks = server.poll_downlink(&vehicle);
    assert_eq!(downlinks.len(), 1);
    let envelope = DownlinkEnvelope::from_bytes(&downlinks[0]).unwrap();
    assert_eq!(envelope.target, EcuId::new(1), "addressed to the ECM ECU");
    assert!(matches!(
        envelope.message,
        ManagementMessage::StateReportRequest
    ));
    assert!(server
        .request_state_report(&VehicleId::new("ghost"))
        .is_err());
}

// ------------------------------------------------------------------
// Durability plane
// ------------------------------------------------------------------

/// A state-transition workout touching every journaled code path:
/// pushes, acks, retransmissions, park/unpark, resync, a failing call.
fn durability_workout(server: &mut TrustedServer, user: &UserId, vehicle: &VehicleId) {
    let app = AppId::new("remote-control");
    server.deploy(user, vehicle, &app).unwrap();
    let _ = server.poll_downlink(vehicle);
    server
        .process_uplink(
            vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    let _ = server.tick(Tick::new(25));
    let _ = server.poll_downlink(vehicle);
    server.mark_offline(vehicle);
    server.mark_online(vehicle, 0).unwrap();
    server
        .process_uplink(
            vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            vehicle,
            &state_report(
                0,
                vec![("COM", "remote-control", 1), ("OP", "remote-control", 2)],
            ),
        )
        .unwrap();
    // A rejected command is journaled too: replay reproduces the same
    // rejection, changing nothing — a failure replays for free.
    assert!(server.deploy(user, vehicle, &app).is_err());
    let _ = server.restore(vehicle, EcuId::new(2));
    let _ = server.poll_downlink(vehicle);
    let _ = server.tick(Tick::new(26));
}

#[test]
fn journal_replay_reconstructs_the_server_byte_for_byte() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.enable_journal(1024);
    durability_workout(&mut server, &user, &vehicle);

    let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
    assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
    assert_eq!(replayed.ledger(), server.ledger());
    assert_eq!(
        replayed.installed_apps(&vehicle),
        vec![AppId::new("remote-control")]
    );
}

#[test]
fn journal_compaction_preserves_replay_identity() {
    let (mut server, user, vehicle) = server_with_vehicle();
    // An aggressive interval forces several compactions mid-workout.
    server.enable_journal(2);
    durability_workout(&mut server, &user, &vehicle);

    let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
    assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
    assert_eq!(replayed.ledger(), server.ledger());
}

#[test]
fn journaling_can_start_mid_life() {
    let (mut server, user, vehicle) = server_with_vehicle();
    // Pre-journal history lands in the seed snapshot, not in records.
    server
        .deploy(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap();
    server.enable_journal(1024);
    let _ = server.poll_downlink(&vehicle);
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();

    let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
    assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
}

#[test]
fn corrupted_journals_are_typed_errors_not_panics() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.enable_journal(1024);
    durability_workout(&mut server, &user, &vehicle);
    let mut bytes = server.journal_bytes().unwrap().to_vec();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        TrustedServer::replay(&bytes),
        Err(DynarError::ProtocolViolation(_))
    ));
    assert!(matches!(
        TrustedServer::replay(&bytes[..bytes.len() - 4]),
        Err(DynarError::ProtocolViolation(_))
    ));
}

#[test]
fn untrusted_list_counts_are_rejected_before_any_item() {
    // A snapshot frame, `[TAG_SNAPSHOT = 0, state]`, whose vehicle list
    // claims `u32::MAX` entries and then ends.
    let mut payload = Vec::new();
    codec::encode_list_header(2, &mut payload);
    codec::encode_i64(0, &mut payload);
    codec::encode_list_header(8, &mut payload);
    codec::encode_i64(0, &mut payload);
    codec::encode_i64(0, &mut payload);
    codec::encode_list_header(2, &mut payload);
    codec::encode_i64(10, &mut payload);
    codec::encode_i64(3, &mut payload);
    codec::encode_list_header(0, &mut payload);
    codec::encode_list_header(0, &mut payload);
    codec::encode_list_header(u32::MAX as usize, &mut payload);
    let mut journal = Vec::new();
    dynar_foundation::journal::append_frame(&mut journal, &payload);
    let error = TrustedServer::replay(&journal).unwrap_err();
    assert!(
        matches!(&error, DynarError::ProtocolViolation(reason) if reason.contains("4294967295 items")),
        "{error:?}"
    );
}

#[test]
fn file_journal_survives_a_torn_tail() {
    let path = std::env::temp_dir().join(format!(
        "dynar-journal-torn-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let (mut server, user, vehicle) = server_with_vehicle();
    // fsync every 4 appends: the batched path and the unsynced tail are
    // both exercised by the workout.
    server.enable_journal_file(&path, 1024, 4).unwrap();
    durability_workout(&mut server, &user, &vehicle);

    // The mirrored file replays to the same bytes as the in-memory
    // journal.
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, server.journal_bytes().unwrap());
    let (recovered, clean) = TrustedServer::replay_recover(&on_disk).unwrap();
    assert_eq!(clean, on_disk.len());
    assert_eq!(recovered.snapshot_bytes(), server.snapshot_bytes());

    // Crash mid-append: the tail frame is half-written.  Recovery
    // replays the clean prefix and reports where it ends.
    let torn = &on_disk[..on_disk.len() - 3];
    let (recovered, clean) = TrustedServer::replay_recover(torn).unwrap();
    assert!(clean < torn.len());
    let (clean_server, reclean) = TrustedServer::replay_recover(&on_disk[..clean]).unwrap();
    assert_eq!(reclean, clean, "the clean prefix is wholly intact");
    assert_eq!(recovered.snapshot_bytes(), clean_server.snapshot_bytes());

    // An intact-but-malformed frame is corruption, not a torn tail.
    let mut corrupted = Vec::new();
    dynar_foundation::journal::append_frame(&mut corrupted, &[0xFF, 0xFE]);
    assert!(matches!(
        TrustedServer::replay_recover(&corrupted),
        Err(DynarError::ProtocolViolation(_))
    ));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn only_a_failing_last_frame_is_a_torn_tail() {
    let (mut server, user, vehicle) = server_with_vehicle();
    server.enable_journal(1024);
    durability_workout(&mut server, &user, &vehicle);
    let journal = server.journal_bytes().unwrap().to_vec();
    let mut offsets = Vec::new();
    let mut reader = FrameReader::new(&journal);
    while reader.next_frame().unwrap().is_some() {
        offsets.push(reader.offset());
    }
    assert!(offsets.len() > 10, "{} frames", offsets.len());
    let header = dynar_foundation::journal::FRAME_HEADER_LEN;

    // A bit flip in the fifth frame's payload, with frames after it, is
    // corruption: recovery refuses it instead of dropping the rest.
    let mut corrupted = journal.clone();
    corrupted[offsets[3] + header] ^= 0x08;
    assert!(matches!(
        TrustedServer::replay_recover(&corrupted),
        Err(DynarError::ProtocolViolation(_))
    ));

    // The same flip in the last frame, complete but with nothing after
    // it, is a torn tail: the frames before it are the recovered log.
    let last = offsets[offsets.len() - 2];
    let mut torn = journal.clone();
    torn[last + header] ^= 0x08;
    let (recovered, clean) = TrustedServer::replay_recover(&torn).unwrap();
    assert_eq!(clean, last);
    let prefix = TrustedServer::replay(&journal[..last]).unwrap();
    assert_eq!(recovered.snapshot_bytes(), prefix.snapshot_bytes());

    // A journal framed with another checksum (FNV-1a) fails its first
    // frame with frames after it: refused, not replayed as empty.
    let mut fnv_framed = Vec::new();
    let mut reader = FrameReader::new(&journal);
    while let Some(payload) = reader.next_frame().unwrap() {
        fnv_framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        fnv_framed.extend_from_slice(&dynar_foundation::journal::fnv1a(payload).to_le_bytes());
        fnv_framed.extend_from_slice(payload);
    }
    assert!(matches!(
        TrustedServer::replay_recover(&fnv_framed),
        Err(DynarError::ProtocolViolation(_))
    ));
}

#[test]
fn a_fleet_of_one_model_shares_one_configuration() {
    fn shares_one(server: &TrustedServer) -> bool {
        let first = &server.vehicles.values().next().expect("a fleet").conf;
        server.confs.confs.len() == 1
            && server
                .vehicles
                .values()
                .all(|record| Arc::ptr_eq(&record.conf, first))
    }
    // Interval 1024 replays `register_vehicle` records; interval 16
    // replays snapshots as well.
    for interval in [1024, 16] {
        let mut server = TrustedServer::new();
        let user = UserId::new("alice");
        server.enable_journal(interval);
        server.create_user(user.clone()).unwrap();
        server.upload_app(remote_control_app()).unwrap();
        for i in 0..50 {
            let vehicle = VehicleId::new(format!("VIN-{i:02}"));
            server
                .register_vehicle(vehicle.clone(), hw_conf(), system_conf())
                .unwrap();
            server.bind_vehicle(&user, &vehicle).unwrap();
            server
                .deploy(&user, &vehicle, &AppId::new("remote-control"))
                .unwrap();
        }
        assert_eq!(server.vehicles.len(), 50);
        assert!(shares_one(&server), "live, interval {interval}");
        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        assert!(shares_one(&replayed), "replayed, interval {interval}");
        assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
    }
}

#[test]
fn file_journal_compaction_rewrites_atomically() {
    let path = std::env::temp_dir().join(format!(
        "dynar-journal-compact-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let (mut server, user, vehicle) = server_with_vehicle();
    // Interval 2 forces several compactions (file rewrites) mid-workout.
    server.enable_journal_file(&path, 2, 1).unwrap();
    durability_workout(&mut server, &user, &vehicle);

    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, server.journal_bytes().unwrap());
    let (recovered, _) = TrustedServer::replay_recover(&on_disk).unwrap();
    assert_eq!(recovered.snapshot_bytes(), server.snapshot_bytes());
    assert!(
        !path.with_extension("log.compact").exists(),
        "compaction temp files are renamed away"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn retransmissions_do_not_double_count_pushes() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    assert_eq!(server.ledger().installs_pushed, 2);

    let _ = server.tick(Tick::new(25));
    assert_eq!(server.ledger().retransmissions, 2);
    assert_eq!(
        server.ledger().installs_pushed,
        2,
        "a retransmission is not a push"
    );

    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(server.ledger().installs_completed, 1);
    assert_eq!(server.ledger().operations_failed, 0);

    // A duplicate ack (the gateway's dedup window replays them on
    // retransmitted downlinks) settles nothing twice.
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(server.ledger().installs_completed, 1);
}

#[test]
fn epoch_voided_operations_settle_once_under_the_new_epoch() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    assert_eq!(server.ledger().installs_pushed, 2);

    // The vehicle reboots mid-install: the pending operation is voided —
    // neither completed nor failed — and the manifest re-pushes under
    // the new epoch as a *new* push, not a retry.
    server
        .process_uplink(&vehicle, &state_report(1, vec![]))
        .unwrap();
    assert_eq!(server.ledger().operations_voided, 1);
    assert_eq!(server.ledger().installs_pushed, 4);
    assert_eq!(server.ledger().resyncs, 1);

    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Installed),
        )
        .unwrap();
    assert_eq!(server.ledger().installs_completed, 1);
    assert_eq!(server.ledger().operations_failed, 0);
}

#[test]
fn begin_incarnation_restamps_every_queued_and_outstanding_downlink() {
    let (mut server, user, vehicle) = server_with_vehicle();
    let app = AppId::new("remote-control");
    server.deploy(&user, &vehicle, &app).unwrap();
    assert_eq!(server.incarnation(), 0);

    assert_eq!(server.begin_incarnation(), 1);
    assert_eq!(server.incarnation(), 1);

    // The queued installs were re-stamped in place and a state-report
    // solicitation was appended, all under the new incarnation.
    let downlinks = server.poll_downlink(&vehicle);
    assert_eq!(downlinks.len(), 3);
    for payload in &downlinks {
        let envelope = DownlinkEnvelope::from_bytes(payload).unwrap();
        assert_eq!(envelope.incarnation, 1);
    }
    assert!(matches!(
        DownlinkEnvelope::from_bytes(&downlinks[2]).unwrap().message,
        ManagementMessage::StateReportRequest
    ));

    // Retransmissions come from the outstanding cache — re-stamped too.
    let failures = server.tick(Tick::new(25));
    assert!(failures.is_empty());
    let retransmitted = server.poll_downlink(&vehicle);
    assert_eq!(retransmitted.len(), 2);
    for payload in &retransmitted {
        let envelope = DownlinkEnvelope::from_bytes(payload).unwrap();
        assert_eq!(envelope.incarnation, 1);
    }
}

// Campaign plane --------------------------------------------------------

use crate::campaign::{HealthGate, WavePlan};

/// `n` vehicles bound to one user, the remote-control app uploaded.
fn campaign_fleet(n: usize) -> (TrustedServer, UserId, Vec<VehicleId>) {
    let mut server = TrustedServer::new();
    let user = UserId::new("alice");
    server.create_user(user.clone()).unwrap();
    server.upload_app(remote_control_app()).unwrap();
    let vehicles: Vec<VehicleId> = (0..n)
        .map(|i| VehicleId::new(format!("VIN-{i:03}")))
        .collect();
    for vehicle in &vehicles {
        server
            .register_vehicle(vehicle.clone(), hw_conf(), system_conf())
            .unwrap();
        server.bind_vehicle(&user, vehicle).unwrap();
    }
    (server, user, vehicles)
}

fn ack_installed(server: &mut TrustedServer, vehicle: &VehicleId, app: &str) {
    server
        .process_uplink(vehicle, &ack("COM", app, 1, AckStatus::Installed))
        .unwrap();
    server
        .process_uplink(vehicle, &ack("OP", app, 2, AckStatus::Installed))
        .unwrap();
}

/// Canary of one, then straight to 100 %; a single failure aborts.
fn rollout_spec(id: &str) -> CampaignSpec {
    CampaignSpec {
        id: CampaignId::new(id),
        app: AppId::new("remote-control"),
        replaces: None,
        selector: VehicleSelector::All,
        plan: WavePlan {
            canary: 1,
            ramp_percent: vec![100],
        },
        gate: HealthGate {
            min_soak_ticks: 0,
            pause_failed: 0,
            abort_failed: 1,
        },
    }
}

#[test]
fn campaign_waves_advance_on_healthy_acks_and_complete() {
    let (mut server, user, vehicles) = campaign_fleet(3);
    let exposed = server
        .create_campaign(&user, rollout_spec("rollout-1"))
        .unwrap();
    assert_eq!(exposed, 1, "canary wave");
    assert!(server.has_active_campaigns());

    // Unacked canary: the gate holds the rollout (pending > 0).
    assert!(server.step_campaigns().is_empty());

    ack_installed(&mut server, &vehicles[0], "remote-control");
    let events = server.step_campaigns();
    assert!(
        matches!(
            events[..],
            [CampaignEvent::Advanced {
                wave: 2,
                exposed: 2,
                ..
            }]
        ),
        "{events:?}"
    );

    ack_installed(&mut server, &vehicles[1], "remote-control");
    ack_installed(&mut server, &vehicles[2], "remote-control");
    let events = server.step_campaigns();
    assert!(
        matches!(events[..], [CampaignEvent::Completed { succeeded: 3, .. }]),
        "{events:?}"
    );

    let campaign = server.campaign(&CampaignId::new("rollout-1")).unwrap();
    assert_eq!(campaign.status, CampaignStatus::Complete);
    assert_eq!(campaign.counters.exposed, 3);
    assert_eq!(campaign.counters.succeeded, 3);
    assert_eq!(campaign.counters.rolled_back, 0);
    assert!(!server.has_active_campaigns());
    let ledger = server.ledger();
    assert_eq!(ledger.campaign_exposures, 3);
    assert_eq!(ledger.campaigns_completed, 1);
}

#[test]
fn campaign_soak_dwell_holds_the_wave_until_elapsed() {
    let (mut server, user, vehicles) = campaign_fleet(2);
    let mut spec = rollout_spec("rollout-soak");
    spec.gate.min_soak_ticks = 10;
    server.create_campaign(&user, spec).unwrap();
    ack_installed(&mut server, &vehicles[0], "remote-control");

    // Healthy but not soaked: no verdict yet.
    assert!(server.step_campaigns().is_empty());
    let _ = server.tick(Tick::new(10));
    let events = server.step_campaigns();
    assert!(
        matches!(events[..], [CampaignEvent::Advanced { .. }]),
        "{events:?}"
    );
}

#[test]
fn conflicting_duplicate_and_empty_campaigns_are_rejected() {
    let (mut server, user, _vehicles) = campaign_fleet(2);
    server
        .create_campaign(&user, rollout_spec("rollout-1"))
        .unwrap();

    // Same app, overlapping vehicles, both active: typed conflict.
    let err = server
        .create_campaign(&user, rollout_spec("rollout-2"))
        .unwrap_err();
    assert!(matches!(err, DynarError::CampaignConflict { .. }), "{err}");

    // Reused campaign id.
    assert!(matches!(
        server
            .create_campaign(&user, rollout_spec("rollout-1"))
            .unwrap_err(),
        DynarError::Duplicate { .. }
    ));

    // A selector that resolves to no bound vehicles.
    let mut empty = rollout_spec("rollout-empty");
    empty.selector = VehicleSelector::Model("lorry".into());
    assert!(matches!(
        server.create_campaign(&user, empty).unwrap_err(),
        DynarError::InvalidConfiguration(_)
    ));

    // An aborted campaign frees the app for a fresh one.
    server
        .abort_campaign(&user, &CampaignId::new("rollout-1"))
        .unwrap();
    server
        .create_campaign(&user, rollout_spec("rollout-2"))
        .unwrap();
}

#[test]
fn campaign_pause_resume_and_ownership_checks() {
    let (mut server, user, vehicles) = campaign_fleet(2);
    let id = CampaignId::new("rollout-1");
    server
        .create_campaign(&user, rollout_spec("rollout-1"))
        .unwrap();

    // Foreign users cannot drive the campaign.
    let mallory = UserId::new("mallory");
    server.create_user(mallory.clone()).unwrap();
    assert!(server.pause_campaign(&mallory, &id).is_err());

    server.pause_campaign(&user, &id).unwrap();
    assert_eq!(server.campaign(&id).unwrap().status, CampaignStatus::Paused);
    assert!(!server.has_active_campaigns());

    // A paused campaign neither advances nor aborts on its own, and
    // invalid transitions are typed errors.
    ack_installed(&mut server, &vehicles[0], "remote-control");
    assert!(server.step_campaigns().is_empty());
    assert!(server.pause_campaign(&user, &id).is_err());

    server.resume_campaign(&user, &id).unwrap();
    assert_eq!(
        server.campaign(&id).unwrap().status,
        CampaignStatus::Running
    );
    let events = server.step_campaigns();
    assert!(
        matches!(events[..], [CampaignEvent::Advanced { .. }]),
        "{events:?}"
    );
    assert!(server.resume_campaign(&user, &id).is_err());
}

#[test]
fn the_pause_gate_holds_the_rollout_without_rolling_back() {
    let (mut server, user, vehicles) = campaign_fleet(2);
    let mut spec = rollout_spec("rollout-hold");
    spec.gate = HealthGate {
        min_soak_ticks: 0,
        pause_failed: 1,
        abort_failed: 0,
    };
    server.create_campaign(&user, spec).unwrap();
    server
        .process_uplink(
            &vehicles[0],
            &ack("COM", "remote-control", 1, AckStatus::Installed),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicles[0],
            &ack(
                "OP",
                "remote-control",
                2,
                AckStatus::Failed("no memory".into()),
            ),
        )
        .unwrap();
    let events = server.step_campaigns();
    assert!(
        matches!(events[..], [CampaignEvent::Paused { failed: 1, .. }]),
        "{events:?}"
    );
    let campaign = server.campaign(&CampaignId::new("rollout-hold")).unwrap();
    assert_eq!(campaign.status, CampaignStatus::Paused);
    assert_eq!(campaign.counters.rolled_back, 0);
}

/// A one-plugin v2 of the remote-control app (same model).
fn replacement_v2() -> AppDefinition {
    AppDefinition::new(AppId::new("remote-control-v2"))
        .with_plugin(PluginArtifact {
            id: PluginId::new("OP2"),
            binary: binary("OP2"),
            ports: vec![],
        })
        .with_sw_conf(SwConf::new("model-car").with_placement(PluginId::new("OP2"), EcuId::new(2)))
}

#[test]
fn bad_canary_trips_the_abort_gate_and_rolls_back_to_last_good() {
    let (mut server, user, vehicles) = campaign_fleet(1);
    let vehicle = vehicles[0].clone();
    server.upload_app(replacement_v2()).unwrap();
    server
        .deploy(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap();
    ack_installed(&mut server, &vehicle, "remote-control");

    let spec = CampaignSpec {
        id: CampaignId::new("v2-rollout"),
        app: AppId::new("remote-control-v2"),
        replaces: Some(AppId::new("remote-control")),
        selector: VehicleSelector::Vehicles(vec![vehicle.clone()]),
        plan: WavePlan {
            canary: 1,
            ramp_percent: vec![],
        },
        gate: HealthGate {
            min_soak_ticks: 0,
            pause_failed: 0,
            abort_failed: 1,
        },
    };
    assert_eq!(server.create_campaign(&user, spec).unwrap(), 1);

    // The update applies: v1 uninstalls cleanly, v2's plug-in fails.
    server
        .process_uplink(
            &vehicle,
            &ack("COM", "remote-control", 1, AckStatus::Uninstalled),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack("OP", "remote-control", 2, AckStatus::Uninstalled),
        )
        .unwrap();
    server
        .process_uplink(
            &vehicle,
            &ack(
                "OP2",
                "remote-control-v2",
                2,
                AckStatus::Failed("flash write failed".into()),
            ),
        )
        .unwrap();

    let events = server.step_campaigns();
    assert!(
        matches!(
            events[..],
            [CampaignEvent::Aborted {
                failed: 1,
                rolled_back: 1,
                ..
            }]
        ),
        "{events:?}"
    );
    let campaign = server.campaign(&CampaignId::new("v2-rollout")).unwrap();
    assert_eq!(campaign.status, CampaignStatus::Aborted);
    assert_eq!(campaign.counters.failed, 1);
    assert_eq!(campaign.counters.rolled_back, 1);

    // Rollback is a manifest *restore*: the recorded last-good v1
    // reinstalls through the ordinary reconciliation loop.
    ack_installed(&mut server, &vehicle, "remote-control");
    assert_eq!(
        server.installed_apps(&vehicle),
        vec![AppId::new("remote-control")]
    );
    let ledger = server.ledger();
    assert_eq!(ledger.campaigns_aborted, 1);
    assert_eq!(ledger.campaign_rollbacks, 1);
}

#[test]
fn campaign_decisions_replay_byte_identically() {
    let (mut server, user, vehicles) = campaign_fleet(3);
    server.enable_journal(1024);
    let id = CampaignId::new("rollout-1");
    server
        .create_campaign(&user, rollout_spec("rollout-1"))
        .unwrap();

    // Mid-campaign crash: a successor replays to identical bytes.
    let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
    assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());

    // Drive the full decision alphabet through the journal: advance,
    // pause, resume, abort — each a journaled verdict replay re-applies
    // without re-evaluating the gate.
    ack_installed(&mut server, &vehicles[0], "remote-control");
    let _ = server.step_campaigns();
    server.pause_campaign(&user, &id).unwrap();
    server.resume_campaign(&user, &id).unwrap();
    server.abort_campaign(&user, &id).unwrap();

    let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
    assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
    let campaign = replayed.campaign(&id).unwrap();
    assert_eq!(campaign.status, CampaignStatus::Aborted);
    assert_eq!(
        campaign.counters.rolled_back, 3,
        "every exposed vehicle restores, not just the canary"
    );
}

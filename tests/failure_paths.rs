//! Negative integration tests: malformed installations, over-budget plug-in
//! programs and rejected deployments must surface as typed [`DynarError`]
//! variants (and fault-isolated plug-in states), never as panics.

use dynar::bus::frame::{CanId, Frame};
use dynar::bus::network::BusConfig;
use dynar::core::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar::core::lifecycle::PluginState;
use dynar::core::message::InstallationPackage;
use dynar::core::pirte::Pirte;
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::fes::transport::TransportStats;
use dynar::foundation::codec::encode_value;
use dynar::foundation::error::DynarError;
use dynar::foundation::ids::{
    AppId, EcuId, PluginId, PluginPortId, UserId, VehicleId, VirtualPortId,
};
use dynar::foundation::payload::Payload;
use dynar::foundation::time::Tick;
use dynar::foundation::value::Value;
use dynar::rte::com_mapping::Segmenter;
use dynar::rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar::rte::ecu::Ecu;
use dynar::rte::port::{PortDirection, PortSpec};
use dynar::server::model::{
    HwConf, PluginSwcDecl, SystemSwConf, VirtualPortDecl, VirtualPortKindDecl,
};
use dynar::server::server::TrustedServer;
use dynar::sim::fleet::FleetStats;
use dynar::sim::scenario::fleet::{FleetScenario, FleetScenarioConfig, APP_TELEMETRY};
use dynar::sim::scenario::remote_car::remote_control_app;
use dynar::sim::world::Vehicle;
use dynar::vm::assembler::assemble;
use dynar::vm::budget::Budget;

fn host_config() -> PluginSwcConfig {
    PluginSwcConfig::new("plugin-swc").with_virtual_port(VirtualPortSpec::new(
        VirtualPortId::new(0),
        "Out",
        PortKind::TypeIII,
        PortDataDirection::ToSystem,
        "swc_out",
    ))
}

fn idle_binary() -> Vec<u8> {
    assemble("idle", "yield\nhalt").unwrap().to_bytes()
}

fn package(plugin: &str, context: InstallationContext) -> InstallationPackage {
    InstallationPackage::new(
        PluginId::new(plugin),
        AppId::new("test-app"),
        idle_binary(),
        context,
    )
}

// ---------------------------------------------------------------------------
// PIRTE installation failures
// ---------------------------------------------------------------------------

#[test]
fn install_rejects_links_to_undeclared_virtual_ports() {
    let mut pirte = Pirte::new(EcuId::new(1), host_config());
    // The PLC references virtual port 7, but the static API only declares 0.
    let context = InstallationContext::new(
        PortInitContext::new().with_port(
            "out",
            PluginPortId::new(0),
            PluginPortDirection::Provided,
        ),
        PortLinkContext::new().with_link(
            PluginPortId::new(0),
            LinkTarget::VirtualPort(VirtualPortId::new(7)),
        ),
    );
    let err = pirte.install(package("bad-link", context)).unwrap_err();
    assert!(
        matches!(
            err,
            DynarError::NotFound {
                kind: "virtual port",
                ..
            }
        ),
        "expected a virtual-port NotFound, got {err:?}"
    );
    assert_eq!(pirte.plugin_count(), 0, "nothing may be half-installed");
    assert_eq!(pirte.stats().rejected_operations, 1);
    assert_eq!(pirte.stats().installs, 0);
}

#[test]
fn install_rejects_duplicate_plugins_and_reused_port_ids() {
    let mut pirte = Pirte::new(EcuId::new(1), host_config());
    let context = |id: u32| {
        InstallationContext::new(
            PortInitContext::new().with_port(
                "out",
                PluginPortId::new(id),
                PluginPortDirection::Provided,
            ),
            PortLinkContext::new(),
        )
    };
    pirte.install(package("first", context(0))).unwrap();

    // Same plug-in id again.
    let err = pirte.install(package("first", context(1))).unwrap_err();
    assert!(
        matches!(
            err,
            DynarError::Duplicate {
                kind: "plug-in",
                ..
            }
        ),
        "expected duplicate plug-in, got {err:?}"
    );

    // Fresh plug-in id, but a port id the first installation already owns —
    // the SW-C-scope uniqueness the server's PIC generation must respect.
    let err = pirte.install(package("second", context(0))).unwrap_err();
    assert!(
        matches!(
            err,
            DynarError::Duplicate {
                kind: "plug-in port id",
                ..
            }
        ),
        "expected duplicate port id, got {err:?}"
    );

    assert_eq!(pirte.plugin_count(), 1);
    assert_eq!(pirte.stats().rejected_operations, 2);
}

#[test]
fn install_rejects_garbage_binaries_and_inconsistent_contexts() {
    let mut pirte = Pirte::new(EcuId::new(1), host_config());

    // A binary that is not in the portable VM format.
    let garbage = InstallationPackage::new(
        PluginId::new("garbage"),
        AppId::new("test-app"),
        vec![0xDE, 0xAD, 0xBE, 0xEF],
        InstallationContext::new(PortInitContext::new(), PortLinkContext::new()),
    );
    let err = pirte.install(garbage).unwrap_err();
    assert!(
        matches!(err, DynarError::ProtocolViolation(_)),
        "expected a protocol violation for a malformed binary, got {err:?}"
    );

    // A PIC declaring the same port name twice (mismatched context).
    let inconsistent = InstallationContext::new(
        PortInitContext::new()
            .with_port("dup", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("dup", PluginPortId::new(1), PluginPortDirection::Required),
        PortLinkContext::new(),
    );
    let err = pirte
        .install(package("inconsistent", inconsistent))
        .unwrap_err();
    assert!(
        matches!(err, DynarError::InvalidConfiguration(_)),
        "expected an invalid-configuration error, got {err:?}"
    );

    // A PLC linking one plug-in port twice.
    let double_link = InstallationContext::new(
        PortInitContext::new().with_port(
            "out",
            PluginPortId::new(0),
            PluginPortDirection::Provided,
        ),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(0)),
            )
            .with_link(PluginPortId::new(0), LinkTarget::Direct),
    );
    let err = pirte
        .install(package("double-link", double_link))
        .unwrap_err();
    assert!(
        matches!(err, DynarError::InvalidConfiguration(_)),
        "expected an invalid-configuration error, got {err:?}"
    );

    assert_eq!(pirte.plugin_count(), 0);
}

// ---------------------------------------------------------------------------
// Over-budget plug-in programs
// ---------------------------------------------------------------------------

#[test]
fn over_budget_program_faults_in_isolation_instead_of_panicking() {
    // A stack budget of two cannot survive three consecutive pushes.
    let config = host_config().with_plugin_budget(Budget::default().with_max_stack(2));
    let mut pirte = Pirte::new(EcuId::new(1), config);
    let binary = assemble(
        "hog",
        "push_int 1\npush_int 2\npush_int 3\npush_int 4\nhalt",
    )
    .unwrap()
    .to_bytes();
    let context = InstallationContext::new(PortInitContext::new(), PortLinkContext::new());
    pirte
        .install(InstallationPackage::new(
            PluginId::new("hog"),
            AppId::new("test-app"),
            binary,
            context,
        ))
        .unwrap();

    pirte.run_plugins();
    let stats = pirte.stats();
    assert_eq!(stats.plugin_faults, 1, "the budget violation is a fault");
    assert_eq!(
        pirte.plugin(&PluginId::new("hog")).unwrap().state(),
        PluginState::Failed,
        "the offending plug-in is quarantined"
    );

    // The failed plug-in is never scheduled again; the PIRTE stays usable.
    pirte.run_plugins();
    assert_eq!(pirte.stats().plugin_faults, 1, "no repeat faults");
    assert_eq!(
        pirte.stats().slots_granted,
        1,
        "failed plug-ins get no slots"
    );
}

#[test]
fn stack_budget_violation_is_a_typed_budget_error() {
    use dynar::foundation::value::Value;
    use dynar::vm::interpreter::{PortHost, Vm};

    struct NoPorts;
    impl PortHost for NoPorts {
        fn read_port(&mut self, _: u32) -> dynar::foundation::error::Result<Value> {
            Ok(Value::Void)
        }
        fn take_port(&mut self, _: u32) -> dynar::foundation::error::Result<Value> {
            Ok(Value::Void)
        }
        fn write_port(&mut self, _: u32, _: Value) -> dynar::foundation::error::Result<()> {
            Ok(())
        }
        fn pending(&mut self, _: u32) -> dynar::foundation::error::Result<usize> {
            Ok(0)
        }
        fn log(&mut self, _: &str) {}
    }

    let program = assemble("hog", "push_int 1\npush_int 2\npush_int 3\nhalt").unwrap();
    let mut vm = Vm::new(program, Budget::default().with_max_stack(2));
    let err = vm.run_slot(&mut NoPorts).unwrap_err();
    assert!(
        matches!(err, DynarError::BudgetExhausted { what: "stack", .. }),
        "expected a stack budget exhaustion, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Trusted-server deployment rejections
// ---------------------------------------------------------------------------

fn single_ecu_system() -> SystemSwConf {
    SystemSwConf::new("model-car").with_swc(PluginSwcDecl {
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
}

/// The full model-car system software configuration, matching what the
/// remote-control app's deployment description expects.
fn model_car_system() -> SystemSwConf {
    single_ecu_system().with_swc(PluginSwcDecl {
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

#[test]
fn server_rejects_deployments_onto_missing_hardware() {
    let mut server = TrustedServer::new();
    let user = UserId::new("alice");
    let vehicle = VehicleId::new("VIN-TINY-1");
    server.create_user(user.clone()).unwrap();
    // Only one ECU: the remote-control app also needs ECU 2.
    server
        .register_vehicle(
            vehicle.clone(),
            HwConf::new().with_ecu(EcuId::new(1), 512),
            single_ecu_system(),
        )
        .unwrap();
    server.bind_vehicle(&user, &vehicle).unwrap();
    server.upload_app(remote_control_app().unwrap()).unwrap();

    let err = server
        .deploy(&user, &vehicle, &AppId::new("remote-control"))
        .unwrap_err();
    assert!(
        matches!(err, DynarError::Incompatible(_)),
        "expected an incompatibility rejection, got {err:?}"
    );
    assert!(err.is_deployment_rejection());
    assert!(server.installed_apps(&vehicle).is_empty());
}

#[test]
fn server_rejects_unknown_apps_and_missing_dependencies() {
    let mut server = TrustedServer::new();
    let user = UserId::new("alice");
    let vehicle = VehicleId::new("VIN-MODEL-CAR-1");
    server.create_user(user.clone()).unwrap();
    server
        .register_vehicle(
            vehicle.clone(),
            HwConf::new()
                .with_ecu(EcuId::new(1), 512)
                .with_ecu(EcuId::new(2), 512),
            model_car_system(),
        )
        .unwrap();
    server.bind_vehicle(&user, &vehicle).unwrap();

    // Unknown application.
    let err = server
        .deploy(&user, &vehicle, &AppId::new("no-such-app"))
        .unwrap_err();
    assert!(
        matches!(err, DynarError::NotFound { kind: "app", .. }),
        "expected app NotFound, got {err:?}"
    );

    // An app that requires another app that is not installed.
    let mut needy = remote_control_app().unwrap();
    needy.id = AppId::new("needy");
    let needy = needy.with_dependency(AppId::new("base-services"));
    server.upload_app(needy).unwrap();
    let err = server
        .deploy(&user, &vehicle, &AppId::new("needy"))
        .unwrap_err();
    assert!(
        matches!(err, DynarError::MissingDependency { .. }),
        "expected a missing dependency, got {err:?}"
    );
    assert!(err.is_deployment_rejection());
}

#[test]
fn server_rejects_deployments_by_non_owners() {
    let mut server = TrustedServer::new();
    let owner = UserId::new("alice");
    let stranger = UserId::new("mallory");
    let vehicle = VehicleId::new("VIN-MODEL-CAR-1");
    server.create_user(owner.clone()).unwrap();
    server.create_user(stranger.clone()).unwrap();
    server
        .register_vehicle(
            vehicle.clone(),
            HwConf::new()
                .with_ecu(EcuId::new(1), 512)
                .with_ecu(EcuId::new(2), 512),
            single_ecu_system(),
        )
        .unwrap();
    server.bind_vehicle(&owner, &vehicle).unwrap();
    server.upload_app(remote_control_app().unwrap()).unwrap();

    let err = server
        .deploy(&stranger, &vehicle, &AppId::new("remote-control"))
        .unwrap_err();
    assert!(
        matches!(err, DynarError::NotFound { .. }),
        "a non-owner must not learn more than 'not found', got {err:?}"
    );
}

/// A behaviour that never runs anything (the receiving side of the comstack
/// test only needs its port).
struct Passive;

impl ComponentBehavior for Passive {
    fn on_runnable(
        &mut self,
        _runnable: &str,
        _ctx: &mut RteContext<'_>,
    ) -> dynar::foundation::error::Result<()> {
        Ok(())
    }
}

/// Malformed frames reaching a vehicle's comstack — a segment too short for
/// the segmentation header, a chunk index past its count, a complete
/// segment whose payload the value codec rejects — are counted by
/// `Vehicle::comstack_errors`, and a well-formed signal still arrives.
#[test]
fn malformed_segmented_frames_are_counted_not_silently_dropped() {
    let frame = CanId::new(0x123).unwrap();
    let sender = Ecu::new(EcuId::new(1));
    let mut receiver = Ecu::new(EcuId::new(2));
    let swc = receiver
        .add_component(
            SwcDescriptor::new("sink").with_port(PortSpec::queued(
                "in",
                PortDirection::Required,
                8,
            )),
            Box::new(Passive),
        )
        .unwrap();
    receiver.map_signal_in(frame, swc, "in").unwrap();
    let mut vehicle = Vehicle::new(vec![sender, receiver], BusConfig::default());
    vehicle.open_acceptance_filters(&[frame]);

    let malformed = [
        vec![1, 2, 3],                      // shorter than the header
        vec![0, 0, 5, 0, 2, 0, 1],          // chunk 5 of 2
        vec![0, 0, 0, 0, 1, 0, 0xFF, 0xFF], // one chunk, undecodable value
    ];
    for bytes in malformed {
        vehicle
            .bus_mut()
            .send(EcuId::new(1), Frame::new(frame, bytes).unwrap(), Tick::ZERO)
            .unwrap();
    }
    for _ in 0..3 {
        vehicle.step().unwrap();
    }
    assert_eq!(vehicle.comstack_errors(), 3);

    let now = vehicle.now();
    let mut segmenter = Segmenter::new();
    for segment in segmenter
        .segment(frame, &encode_value(&Value::I64(5)))
        .unwrap()
    {
        vehicle.bus_mut().send(EcuId::new(1), segment, now).unwrap();
    }
    for _ in 0..3 {
        vehicle.step().unwrap();
    }
    let ecu = vehicle.ecu(EcuId::new(2)).unwrap();
    assert_eq!(
        ecu.rte().read_port_by_name(swc, "in").unwrap(),
        Value::I64(5)
    );
    assert_eq!(
        vehicle.comstack_errors(),
        3,
        "the good frame is not an error"
    );
}

/// Injects garbled uplinks from three vehicles' endpoints, and one uplink
/// from a registered endpoint no vehicle owns, through the hubs and returns
/// the fleet statistics afterwards.
fn garbled_uplink_stats(shards: usize) -> FleetStats {
    let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
        vehicles: 8,
        shards,
        ..FleetScenarioConfig::default()
    })
    .unwrap();
    scenario.fleet.run(2).unwrap();
    let server = scenario.fleet.server_endpoint().to_owned();
    for handles in &scenario.handles()[..3] {
        let endpoint = scenario.fleet.endpoint_of(&handles.id).unwrap().to_owned();
        scenario
            .fleet
            .hub_for(&handles.id)
            .lock()
            .send(&endpoint, &server, Payload::from(vec![0xFF, 0xEE, 0x01]))
            .unwrap();
    }
    {
        let mut hub = scenario.fleet.hubs()[0].lock();
        hub.register("rogue");
        hub.send("rogue", &server, Payload::from(vec![0x01]))
            .unwrap();
    }
    scenario.fleet.run(3).unwrap();
    scenario.fleet.stats().clone()
}

/// A rejected uplink — refused by the server, or sent from an endpoint no
/// vehicle owns — is counted in `FleetStats::rejected_uplinks` at every
/// shard count, and the statistics stay identical across shard counts.
#[test]
fn rejected_uplinks_are_counted_at_every_shard_count() {
    let serial = garbled_uplink_stats(1);
    assert_eq!(serial.rejected_uplinks, 4);
    assert_eq!(serial.uplink_messages, 3);
    for shards in [2, 8] {
        assert_eq!(garbled_uplink_stats(shards), serial, "shards = {shards}");
    }
}

/// A component that writes a signal too large for the comstack: its payload
/// needs more segments than `Segmenter::segment` can number.
struct Bloater {
    bytes: usize,
}

impl ComponentBehavior for Bloater {
    fn on_runnable(
        &mut self,
        _runnable: &str,
        ctx: &mut RteContext<'_>,
    ) -> dynar::foundation::error::Result<()> {
        ctx.write("blob", Value::Bytes(vec![0; self.bytes]))
    }
}

/// (vehicle index, signal size) of the two oversized signals.  Vehicle 1 has
/// the lower VIN, and its signal size differs, so the reported error tells
/// which vehicle it came from.
const BLOATED: [(usize, usize); 2] = [(1, 4_100_000), (4, 4_000_000)];

fn blob_frame() -> CanId {
    CanId::new(0x600).unwrap()
}

/// Deploys the telemetry app to a fleet in which two vehicles' ECM ECUs
/// also run a [`Bloater`], steps it for 60 rounds and returns every round's
/// error with the end state.
fn oversized_signal_run(shards: usize) -> (Vec<String>, Vec<u8>, FleetStats, TransportStats) {
    let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
        vehicles: 6,
        shards,
        ..FleetScenarioConfig::default()
    })
    .unwrap();
    let ids = scenario.fleet.vehicle_ids().to_vec();
    for (index, bytes) in BLOATED {
        let ecu = scenario
            .fleet
            .vehicle_mut(&ids[index])
            .unwrap()
            .ecu_mut(EcuId::new(1))
            .unwrap();
        let descriptor = SwcDescriptor::new("bloater")
            .with_port(PortSpec::sender_receiver("blob", PortDirection::Provided))
            .with_runnable(RunnableSpec::new("bloat", Trigger::Periodic(7)));
        let swc = ecu
            .add_component(descriptor, Box::new(Bloater { bytes }))
            .unwrap();
        ecu.map_signal_out(swc, "blob", blob_frame()).unwrap();
    }
    let user = scenario.user.clone();
    scenario
        .fleet
        .deploy_wave(&user, &AppId::new(APP_TELEMETRY), &ids)
        .unwrap();
    let errors = (0..60)
        .filter_map(|_| scenario.fleet.step().err())
        .map(|error| error.to_string())
        .collect();
    let fleet = &scenario.fleet;
    (
        errors,
        fleet.server.snapshot_bytes(),
        fleet.stats().clone(),
        fleet.transport_stats(),
    )
}

/// A vehicle step error does not cut the round short: every vehicle is
/// stepped, the round runs to the end (uplinks, journal merge, campaign
/// gates) and the error of the lowest failing vehicle id is returned — so
/// the errors and the end state are the same at every shard count.
#[test]
fn vehicle_step_errors_are_the_same_at_every_shard_count() {
    let serial = oversized_signal_run(1);
    let (errors, _, stats, _) = &serial;
    let expected = Segmenter::new()
        .segment(
            blob_frame(),
            &encode_value(&Value::Bytes(vec![0; BLOATED[0].1])),
        )
        .unwrap_err()
        .to_string();
    assert!(!errors.is_empty(), "the oversized signals must fail steps");
    assert!(
        errors.iter().all(|error| *error == expected),
        "every failed round reports the lowest vehicle id's error: {errors:?}"
    );
    assert_eq!(stats.ticks, 60, "a failed round still counts: {stats:?}");
    assert!(stats.uplink_messages > 0, "{stats:?}");
    for shards in [2, 8] {
        // Errors, snapshot bytes, fleet and transport statistics.
        assert!(
            oversized_signal_run(shards) == serial,
            "the run diverged at {shards} shards"
        );
    }
}

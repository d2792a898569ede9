//! The Figure 3 demonstrator: a smart phone remotely controls a two-ECU
//! model car through dynamically installed COM and OP plug-ins.
//!
//! The topology matches the paper's Section 4:
//!
//! * **ECU1** hosts the ECM SW-C (which is itself a plug-in SW-C).  The COM
//!   plug-in is installed there; its external ports are fed by the phone via
//!   the ECM (ECC routes `Wheels` and `Speed`), and its forward ports are
//!   linked through the type II virtual port V0 to the OP plug-in on ECU2.
//! * **ECU2** hosts a plug-in SW-C (virtual ports V3–V6) and the built-in
//!   chassis SW-C.  The OP plug-in is installed there; it forwards the
//!   incoming commands through the type III virtual ports `WheelsReq` and
//!   `SpeedReq` to the chassis.
//! * The **trusted server** stores the `remote-control` application and
//!   generates the PIC/PLC/ECC contexts exactly as described in §4.

use dynar_bus::frame::CanId;
use dynar_bus::network::BusConfig;
use dynar_core::plugin::PluginPortDirection;
use dynar_core::swc::{PluginSwc, PluginSwcConfig, SharedPirte};
use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar_ecm::gateway::{EcmConfig, EcmSwc, SharedHub};
use dynar_fes::device::SmartPhone;
use dynar_fes::transport::{shared_transport, TransportConfig, TransportHub};
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, EcuId, PluginId, UserId, VehicleId, VirtualPortId};
use dynar_rte::ecu::Ecu;
use dynar_server::model::{
    AppDefinition, ConnectionDecl, HwConf, PluginArtifact, PluginPortDecl, PluginSwcDecl, SwConf,
    SystemSwConf, VirtualPortDecl, VirtualPortKindDecl,
};
use dynar_server::server::{DeploymentStatus, TrustedServer};
use dynar_vm::assembler::assemble;

use crate::fleet::Fleet;
use crate::plant::{CarPlant, SharedPlantState};
use crate::world::Vehicle;

/// Frame carrying multiplexed plug-in data from ECU1 to ECU2 (S0 → S3).
pub const FRAME_PLUGIN_DATA: u32 = 0x210;
/// Frame carrying management messages from the ECM to ECU2 (type I).
pub const FRAME_MGMT_DOWN: u32 = 0x220;
/// Frame carrying acknowledgements from ECU2 back to the ECM (type I).
pub const FRAME_MGMT_UP: u32 = 0x230;

/// Name of the application stored on the trusted server.
pub const APP_NAME: &str = "remote-control";

/// What happened during a drive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriveReport {
    /// Commands the phone sent.
    pub commands_sent: u64,
    /// Commands that reached the chassis actuators.
    pub commands_delivered: u64,
    /// Final speed of the car in m/s.
    pub final_speed: f64,
    /// Final wheel angle in degrees.
    pub final_wheel_angle: f64,
    /// Distance travelled in metres.
    pub odometer: f64,
}

/// The assembled Figure 3 system: a one-vehicle [`Fleet`] whose transport
/// hub the phone shares.
#[derive(Debug)]
pub struct RemoteCarScenario {
    fleet: Fleet,
    hub: SharedHub,
    vehicle_id: VehicleId,
    phone: SmartPhone,
    ecm_pirte: SharedPirte,
    pirte2: SharedPirte,
    plant: SharedPlantState,
    user: UserId,
    app: AppId,
}

impl RemoteCarScenario {
    /// Builds the two-ECU vehicle, the trusted server catalogue and the
    /// phone, without installing anything yet.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any of the subsystems.
    pub fn build() -> Result<Self> {
        Self::build_with(BusConfig::default(), TransportConfig::default())
    }

    /// Builds the scenario with explicit bus and transport configurations
    /// (used by the fault-injection and latency experiments).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any of the subsystems.
    pub fn build_with(bus: BusConfig, transport: TransportConfig) -> Result<Self> {
        let ecu1_id = EcuId::new(1);
        let ecu2_id = EcuId::new(2);

        // --- ECU1: the ECM SW-C -----------------------------------------
        let ecm_swc_config =
            PluginSwcConfig::new("ecm-swc").with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(0),
                "PluginData",
                PortKind::TypeII,
                PortDataDirection::ToSystem,
                "s0_out",
            ));
        let ecm_config = EcmConfig::new(ecm_swc_config, "vehicle-1", "server").with_remote_swc(
            ecu2_id,
            "to_ecu2",
            "from_ecu2",
        );

        // --- ECU2: the plug-in SW-C and the chassis ----------------------
        let swc2_config = PluginSwcConfig::new("plugin-swc-2")
            .with_type_i_ports("mgmt_in", "mgmt_out")
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(3),
                "PluginDataIn",
                PortKind::TypeII,
                PortDataDirection::ToPlugins,
                "s3_in",
            ))
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(4),
                "WheelsReq",
                PortKind::TypeIII,
                PortDataDirection::ToSystem,
                "wheels_req",
            ))
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(5),
                "SpeedReq",
                PortKind::TypeIII,
                PortDataDirection::ToSystem,
                "speed_req",
            ))
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(6),
                "SpeedProv",
                PortKind::TypeIII,
                PortDataDirection::ToPlugins,
                "speed_prov",
            ));

        // --- Trusted server ----------------------------------------------
        let mut server = TrustedServer::new();
        let user = UserId::new("alice");
        let vehicle_id = VehicleId::new("VIN-MODEL-CAR-1");
        server.create_user(user.clone())?;
        server.register_vehicle(vehicle_id.clone(), hw_conf(), system_sw_conf())?;
        server.bind_vehicle(&user, &vehicle_id)?;
        server.upload_app(remote_control_app()?)?;

        // --- Wire the vehicle ---------------------------------------------
        let mut ecu1 = Ecu::new(ecu1_id);
        let mut ecu2 = Ecu::new(ecu2_id);

        // The external transport hub is shared between the server, the ECM
        // and the phone.
        let hub = shared_transport(TransportHub::new(transport));

        let ecm_descriptor = ecm_config.descriptor()?;
        let (ecm_behavior, ecm_pirte) = EcmSwc::create(ecu1_id, ecm_config, hub.clone());
        let ecm_swc = ecu1.add_component(ecm_descriptor, Box::new(ecm_behavior))?;

        let swc2_descriptor = swc2_config.descriptor()?;
        let (swc2_behavior, pirte2) = PluginSwc::create(ecu2_id, swc2_config);
        let swc2 = ecu2.add_component(swc2_descriptor, Box::new(swc2_behavior))?;

        let (plant_behavior, plant) = CarPlant::create(0.01);
        let chassis = ecu2.add_component(CarPlant::descriptor(), Box::new(plant_behavior))?;

        // Local connections on ECU2: type III virtual ports to the chassis.
        ecu2.connect_local(swc2, "wheels_req", chassis, CarPlant::WHEELS_CMD)?;
        ecu2.connect_local(swc2, "speed_req", chassis, CarPlant::SPEED_CMD)?;
        ecu2.connect_local(chassis, CarPlant::SPEED_MEAS, swc2, "speed_prov")?;

        // Cross-ECU signal mapping.
        let plugin_data = CanId::new(FRAME_PLUGIN_DATA)?;
        let mgmt_down = CanId::new(FRAME_MGMT_DOWN)?;
        let mgmt_up = CanId::new(FRAME_MGMT_UP)?;
        ecu1.map_signal_out(ecm_swc, "s0_out", plugin_data)?;
        ecu2.map_signal_in(plugin_data, swc2, "s3_in")?;
        ecu1.map_signal_out(ecm_swc, "to_ecu2", mgmt_down)?;
        ecu2.map_signal_in(mgmt_down, swc2, "mgmt_in")?;
        ecu2.map_signal_out(swc2, "mgmt_out", mgmt_up)?;
        ecu1.map_signal_in(mgmt_up, ecm_swc, "from_ecu2")?;

        let mut vehicle = Vehicle::new(vec![ecu1, ecu2], bus);
        vehicle.open_acceptance_filters(&[plugin_data, mgmt_down, mgmt_up]);

        let mut fleet = Fleet::with_hub(server, "server", hub.clone());
        fleet.add_vehicle(vehicle_id.clone(), "vehicle-1", vehicle)?;

        let phone = SmartPhone::new("phone", "vehicle-1");
        phone.attach(&mut *hub.lock());

        Ok(RemoteCarScenario {
            fleet,
            hub,
            vehicle_id,
            phone,
            ecm_pirte,
            pirte2,
            plant,
            user,
            app: AppId::new(APP_NAME),
        })
    }

    /// The shared handle to the ECM's PIRTE (on ECU1).
    pub fn ecm_pirte(&self) -> SharedPirte {
        self.ecm_pirte.clone()
    }

    /// The shared handle to the PIRTE of the plug-in SW-C on ECU2.
    pub fn pirte2(&self) -> SharedPirte {
        self.pirte2.clone()
    }

    /// The car plant state.
    pub fn plant_state(&self) -> SharedPlantState {
        self.plant.clone()
    }

    /// Mutable access to the one-vehicle fleet (server, hub, vehicle).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// Mutable access to the car.
    pub fn vehicle_mut(&mut self) -> &mut Vehicle {
        self.fleet
            .vehicle_mut(&self.vehicle_id)
            .expect("the car is the fleet's one vehicle")
    }

    /// Deploys the `remote-control` application through the trusted server
    /// and runs the system until both plug-ins acknowledged installation.
    ///
    /// # Errors
    ///
    /// Returns the server's deployment rejection, or
    /// [`dynar_foundation::error::DynarError::ProtocolViolation`] if the
    /// installation did not complete within a generous time budget.
    pub fn install_app(&mut self) -> Result<()> {
        let targets = [self.vehicle_id.clone()];
        self.fleet.deploy_wave(&self.user, &self.app, &targets)?;
        self.fleet
            .await_deployment(&self.app, &targets, &DeploymentStatus::Installed, 400)
    }

    /// Drives the car for `ticks` ticks: the phone sends a steering and a
    /// speed command every 10 ticks, and the report captures what reached the
    /// chassis.
    ///
    /// # Errors
    ///
    /// Propagates fleet step errors.
    pub fn drive(&mut self, ticks: u64) -> Result<DriveReport> {
        let mut sent = 0;
        for tick in 0..ticks {
            if tick % 10 == 0 {
                let angle = ((tick / 10) % 60) as f64 - 30.0;
                let speed = 5.0 + ((tick / 10) % 10) as f64;
                {
                    let mut hub = self.hub.lock();
                    self.phone.steer(&mut *hub, angle)?;
                    self.phone.set_speed(&mut *hub, speed)?;
                }
                sent += 2;
            }
            self.fleet.step()?;
        }
        let plant = *self.plant.lock();
        Ok(DriveReport {
            commands_sent: sent,
            commands_delivered: plant.commands_applied,
            final_speed: plant.speed,
            final_wheel_angle: plant.wheel_angle,
            odometer: plant.odometer,
        })
    }
}

fn hw_conf() -> HwConf {
    HwConf::new()
        .with_ecu(EcuId::new(1), 512)
        .with_ecu(EcuId::new(2), 512)
}

fn system_sw_conf() -> SystemSwConf {
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
                VirtualPortDecl {
                    id: VirtualPortId::new(6),
                    name: "SpeedProv".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
            ],
        })
}

/// The assembly source of the COM plug-in: it consumes external commands on
/// its ports 0 (`Wheels`) and 1 (`Speed`) and forwards them on ports 2 and 3.
pub const COM_SOURCE: &str = r#"
loop:
    port_pending 0
    push_int 0
    gt
    jump_if_false check_speed
    take_port 0
    write_port 2
check_speed:
    port_pending 1
    push_int 0
    gt
    jump_if_false idle
    take_port 1
    write_port 3
idle:
    yield
    jump loop
"#;

/// The assembly source of the OP plug-in: it consumes the forwarded commands
/// on ports 0 and 1 and drives the type III virtual ports through 2 and 3.
pub const OP_SOURCE: &str = COM_SOURCE;

/// Builds the `remote-control` application exactly as a third-party developer
/// would upload it: two plug-in binaries plus the deployment description for
/// the `model-car` vehicle model.
///
/// # Errors
///
/// Propagates assembler errors.
pub fn remote_control_app() -> Result<AppDefinition> {
    let com_binary = assemble("COM", COM_SOURCE)?.to_bytes();
    let op_binary = assemble("OP", OP_SOURCE)?.to_bytes();
    let required = PluginPortDirection::Required;
    let provided = PluginPortDirection::Provided;
    Ok(AppDefinition::new(AppId::new(APP_NAME))
        .with_plugin(PluginArtifact {
            id: PluginId::new("COM"),
            binary: com_binary,
            ports: vec![
                PluginPortDecl {
                    name: "wheels_ext".into(),
                    direction: required,
                },
                PluginPortDecl {
                    name: "speed_ext".into(),
                    direction: required,
                },
                PluginPortDecl {
                    name: "wheels_fwd".into(),
                    direction: provided,
                },
                PluginPortDecl {
                    name: "speed_fwd".into(),
                    direction: provided,
                },
            ],
        })
        .with_plugin(PluginArtifact {
            id: PluginId::new("OP"),
            binary: op_binary,
            ports: vec![
                PluginPortDecl {
                    name: "wheels_in".into(),
                    direction: required,
                },
                PluginPortDecl {
                    name: "speed_in".into(),
                    direction: required,
                },
                PluginPortDecl {
                    name: "wheels_out".into(),
                    direction: provided,
                },
                PluginPortDecl {
                    name: "speed_out".into(),
                    direction: provided,
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
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn installation_completes_end_to_end() {
        let mut scenario = RemoteCarScenario::build().unwrap();
        scenario.install_app().unwrap();
        assert_eq!(scenario.ecm_pirte().lock().plugin_count(), 1, "COM on ECU1");
        assert_eq!(scenario.pirte2().lock().plugin_count(), 1, "OP on ECU2");
    }

    #[test]
    fn phone_commands_reach_the_wheels() {
        let mut scenario = RemoteCarScenario::build().unwrap();
        scenario.install_app().unwrap();
        let report = scenario.drive(200).unwrap();
        assert!(report.commands_sent >= 20);
        assert!(report.commands_delivered > 0, "{report:?}");
        assert!(report.final_speed > 0.0);
        assert!(report.odometer > 0.0);
    }
}

//! The fleet scenario: many four-ECU vehicles federated through one trusted
//! server, with live signal chains under staged install/update waves.
//!
//! Every vehicle has the same topology:
//!
//! * **ECU1** hosts the ECM SW-C (the management gateway towards the server)
//!   and a built-in speed-sensor SW-C that periodically broadcasts a reading
//!   on the [`SENSOR_FRAME`] — the always-on signal chain.
//! * **ECU2..=ECU(1+workers)** each host a plug-in SW-C whose `SensorIn`
//!   type III virtual port is fed from the sensor frame and whose `ActOut`
//!   type III virtual port surfaces plug-in actuation on the `act_out` SW-C
//!   port.
//!
//! The `fleet-telemetry` application places one OP plug-in per worker ECU;
//! each plug-in consumes sensor readings, applies its gain and actuates.  The
//! v2 application does the same with a different gain, so an update wave is
//! observable at the actuators while the rest of the fleet keeps driving.

use dynar_bus::frame::CanId;
use dynar_bus::network::BusConfig;
use dynar_core::plugin::PluginPortDirection;
use dynar_core::swc::{PluginSwc, PluginSwcConfig, SharedPirte};
use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use std::sync::Arc;

use dynar_ecm::gateway::{EcmConfig, EcmSwc, SendFailureCounts, SendFailures, SharedHub};
use dynar_fes::transport::TransportConfig;
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, EcuId, PluginId, SwcId, UserId, VehicleId};
use dynar_foundation::value::Value;
use dynar_rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar_rte::ecu::Ecu;
use dynar_rte::port::{PortDirection, PortSpec};
use dynar_server::model::{
    AppDefinition, ConnectionDecl, HwConf, PluginArtifact, PluginPortDecl, PluginSwcDecl, SwConf,
    SystemSwConf, VirtualPortDecl, VirtualPortKindDecl,
};
use dynar_server::server::TrustedServer;
use dynar_vm::assembler::assemble;

use crate::fleet::Fleet;
use crate::world::Vehicle;

/// Frame broadcasting the speed-sensor reading inside each vehicle.
pub const SENSOR_FRAME: u32 = 0x500;
/// Vehicle model name registered for every fleet vehicle.
pub const FLEET_MODEL: &str = "fleet-car";
/// The telemetry application (gain 2).
pub const APP_TELEMETRY: &str = "fleet-telemetry";
/// The updated telemetry application (gain 3).
pub const APP_TELEMETRY_V2: &str = "fleet-telemetry-v2";
/// Gain applied by the v1 OP plug-ins.
pub const GAIN_V1: i64 = 2;
/// Gain applied by the v2 OP plug-ins.
pub const GAIN_V2: i64 = 3;
/// Sensor period in ticks.
pub const SENSOR_PERIOD: u64 = 4;

/// How the fleet scenario is sized and wired.
#[derive(Debug, Clone)]
pub struct FleetScenarioConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle (on top of the ECM ECU).
    pub workers_per_vehicle: u16,
    /// In-vehicle bus configuration (shared by every vehicle).
    pub bus: BusConfig,
    /// External transport configuration of the shared hub.
    pub transport: TransportConfig,
    /// Server shard count: a layout choice of the server's per-vehicle
    /// state.  The fleet's vehicle lanes, and with them the round, are the
    /// same at every shard count.
    pub shards: usize,
}

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        FleetScenarioConfig {
            vehicles: 50,
            workers_per_vehicle: 3,
            bus: BusConfig {
                frames_per_tick: 64,
                ..BusConfig::default()
            },
            transport: TransportConfig::default(),
            shards: 1,
        }
    }
}

/// One worker ECU of a fleet vehicle: its id, the plug-in SW-C instance and
/// a shared handle to its PIRTE.
pub type WorkerHandle = (EcuId, SwcId, SharedPirte);

/// Handles into one fleet vehicle.
#[derive(Debug, Clone)]
pub struct VehicleHandles {
    /// The server-side vehicle id.
    pub id: VehicleId,
    /// Per worker ECU: its id, the plug-in SW-C instance and its PIRTE.
    pub workers: Vec<WorkerHandle>,
    /// The sends the current incarnation's ECM gateway could not make.
    pub ecm_send_failures: Arc<SendFailures>,
}

/// The assembled fleet scenario.
#[derive(Debug)]
pub struct FleetScenario {
    /// The fleet scheduler (server + hub + vehicles).
    pub fleet: Fleet,
    /// The fleet operator account.
    pub user: UserId,
    handles: Vec<VehicleHandles>,
    workers_per_vehicle: u16,
    /// The shared in-vehicle bus configuration (needed to rebuild vehicles
    /// on reboot and to wire newcomers mid-run).
    bus: BusConfig,
    /// Per-vehicle boot epoch (0 = factory boot; bumped by every reboot).
    epochs: std::collections::HashMap<VehicleId, u32>,
    /// Next VIN/endpoint index for vehicles joining mid-run.
    next_index: usize,
}

/// The built-in speed sensor: a periodic SW-C broadcasting an incrementing
/// reading.
struct SpeedSensor {
    reading: i64,
}

impl ComponentBehavior for SpeedSensor {
    fn on_runnable(&mut self, _runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        self.reading += 1;
        ctx.write("speed_out", Value::I64(self.reading))
    }
}

fn worker_ids(workers: u16) -> impl Iterator<Item = EcuId> {
    (0..workers).map(|i| EcuId::new(i + 2))
}

fn mgmt_down_frame(worker: EcuId) -> CanId {
    CanId::new(0x300 + u32::from(worker.index())).expect("static frame id")
}

fn mgmt_up_frame(worker: EcuId) -> CanId {
    CanId::new(0x400 + u32::from(worker.index())).expect("static frame id")
}

/// The hardware configuration the server registers for a fleet vehicle with
/// `workers` worker ECUs.
pub fn fleet_hw(workers: u16) -> HwConf {
    let mut hw = HwConf::new().with_ecu(EcuId::new(1), 1024);
    for worker in worker_ids(workers) {
        hw = hw.with_ecu(worker, 512);
    }
    hw
}

/// The system software configuration matching [`fleet_hw`].
pub fn fleet_system(workers: u16) -> SystemSwConf {
    let mut system = SystemSwConf::new(FLEET_MODEL).with_swc(PluginSwcDecl {
        ecu: EcuId::new(1),
        swc_name: "ecm-swc".into(),
        is_ecm: true,
        virtual_ports: Vec::new(),
    });
    for worker in worker_ids(workers) {
        system = system.with_swc(PluginSwcDecl {
            ecu: worker,
            swc_name: format!("worker-swc-{worker}"),
            is_ecm: false,
            virtual_ports: vec![
                VirtualPortDecl {
                    id: dynar_foundation::ids::VirtualPortId::new(0),
                    name: "SensorIn".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
                VirtualPortDecl {
                    id: dynar_foundation::ids::VirtualPortId::new(1),
                    name: "ActOut".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
            ],
        });
    }
    system
}

/// The OP plug-in: consume sensor readings on port 0, apply `gain`, actuate
/// on port 1.
fn op_source(gain: i64) -> String {
    format!(
        r#"
loop:
    port_pending 0
    push_int 0
    gt
    jump_if_false idle
    take_port 0
    push_int {gain}
    mul
    write_port 1
    jump loop
idle:
    yield
    jump loop
"#
    )
}

/// Builds one telemetry application: one OP plug-in per worker ECU,
/// `SensorIn` in, `ActOut` out.
///
/// # Errors
///
/// Propagates assembler errors.
pub fn telemetry_app(app: &str, suffix: &str, gain: i64, workers: u16) -> Result<AppDefinition> {
    let op_binary = assemble("OP", &op_source(gain))?.to_bytes();
    let mut definition = AppDefinition::new(AppId::new(app));
    let mut conf = SwConf::new(FLEET_MODEL);
    for worker in worker_ids(workers) {
        let op_id = PluginId::new(format!("OP{suffix}-{worker}"));
        definition = definition.with_plugin(PluginArtifact {
            id: op_id.clone(),
            binary: op_binary.clone(),
            ports: vec![
                PluginPortDecl {
                    name: "data_in".into(),
                    direction: PluginPortDirection::Required,
                },
                PluginPortDecl {
                    name: "act_out".into(),
                    direction: PluginPortDirection::Provided,
                },
            ],
        });
        conf = conf
            .with_placement(op_id.clone(), worker)
            .with_connection(
                op_id.clone(),
                "data_in",
                ConnectionDecl::VirtualPort {
                    name: "SensorIn".into(),
                },
            )
            .with_connection(
                op_id,
                "act_out",
                ConnectionDecl::VirtualPort {
                    name: "ActOut".into(),
                },
            );
    }
    Ok(definition.with_sw_conf(conf))
}

impl FleetScenario {
    /// Builds a fleet with the default configuration (50 vehicles × 4 ECUs).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build(vehicles: usize) -> Result<Self> {
        Self::build_with(FleetScenarioConfig {
            vehicles,
            ..FleetScenarioConfig::default()
        })
    }

    /// Builds the fleet scenario with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: FleetScenarioConfig) -> Result<Self> {
        let workers = config.workers_per_vehicle;

        // --- Trusted server: one catalogue, every vehicle registered ------
        let mut server = TrustedServer::with_shards(config.shards);
        let user = UserId::new("fleet-ops");
        server.create_user(user.clone())?;
        server.upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, workers)?)?;
        server.upload_app(telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, workers)?)?;

        let mut fleet = Fleet::new(server, "server", config.transport.clone());

        let mut handles = Vec::with_capacity(config.vehicles);
        for index in 0..config.vehicles {
            let vehicle_id = VehicleId::new(format!("VIN-FLEET-{index:04}"));
            let endpoint = format!("vehicle-{index}");
            fleet.server.register_vehicle(
                vehicle_id.clone(),
                fleet_hw(workers),
                fleet_system(workers),
            )?;
            fleet.server.bind_vehicle(&user, &vehicle_id)?;

            // Each vehicle's ECM registers on the hub of *its* lane.
            let hub = fleet.hub_for(&vehicle_id);
            let (vehicle, worker_handles, ecm_send_failures) =
                build_vehicle(&endpoint, workers, config.bus.clone(), &hub, 0)?;
            fleet.add_vehicle(vehicle_id.clone(), endpoint, vehicle)?;
            handles.push(VehicleHandles {
                id: vehicle_id,
                workers: worker_handles,
                ecm_send_failures,
            });
        }

        Ok(FleetScenario {
            fleet,
            user,
            handles,
            workers_per_vehicle: workers,
            bus: config.bus,
            epochs: std::collections::HashMap::new(),
            next_index: config.vehicles,
        })
    }

    /// Per-vehicle handles (worker ECUs, SW-C instances, PIRTEs).
    pub fn handles(&self) -> &[VehicleHandles] {
        &self.handles
    }

    /// The sends the ECM gateways of the vehicles' current incarnations
    /// could not make, summed over the fleet.
    pub fn ecm_send_failures(&self) -> SendFailureCounts {
        let mut total = SendFailureCounts::default();
        for handle in &self.handles {
            total += handle.ecm_send_failures.counts();
        }
        total
    }

    /// Worker ECUs per vehicle.
    pub fn workers_per_vehicle(&self) -> u16 {
        self.workers_per_vehicle
    }

    /// The current boot epoch of a vehicle (0 until its first reboot).
    pub fn boot_epoch(&self, vehicle: &VehicleId) -> u32 {
        self.epochs.get(vehicle).copied().unwrap_or(0)
    }

    /// Reboots a vehicle: the old incarnation — every ECU, every installed
    /// plug-in, the ECM's dedup window — is discarded (an ECM's state is
    /// volatile), its endpoint is unregistered so in-flight traffic is
    /// voided, and a factory-fresh incarnation with the **next boot epoch**
    /// takes its place.  The server is parked via `mark_offline`; recovery is
    /// fully protocol-driven: the new gateway announces a
    /// [`dynar_core::message::ManagementMessage::StateReport`] (retrying over
    /// the lossy uplink) and the server resyncs and reconciles from it.
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::NotFound`] for unknown
    /// vehicles and propagates vehicle construction errors.
    pub fn reboot_vehicle(&mut self, vehicle: &VehicleId) -> Result<()> {
        let endpoint = self
            .fleet
            .endpoint_of(vehicle)
            .ok_or_else(|| {
                dynar_foundation::error::DynarError::not_found("fleet vehicle", vehicle)
            })?
            .to_owned();
        let epoch = self.epochs.entry(vehicle.clone()).or_insert(0);
        *epoch += 1;
        let epoch = *epoch;

        // Park the server first (no more pushes), then void the dead
        // incarnation's endpoint before the new one registers.
        self.fleet.server.mark_offline(vehicle);
        self.fleet.unregister_endpoint(&endpoint);

        let hub = self.fleet.hub_for(vehicle);
        let (fresh, worker_handles, ecm_send_failures) = build_vehicle(
            &endpoint,
            self.workers_per_vehicle,
            self.bus.clone(),
            &hub,
            epoch,
        )?;
        self.fleet.replace_vehicle(vehicle, fresh)?;
        if let Some(handle) = self.handles.iter_mut().find(|h| &h.id == vehicle) {
            handle.workers = worker_handles;
            handle.ecm_send_failures = ecm_send_failures;
        }
        Ok(())
    }

    /// Removes a vehicle from the fleet for good: endpoint unregistered,
    /// outstanding server operations failed fast as unreachable.
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::NotFound`] for unknown
    /// vehicles.
    pub fn remove_vehicle(&mut self, vehicle: &VehicleId) -> Result<()> {
        self.fleet.remove_vehicle(vehicle)?;
        self.handles.retain(|h| &h.id != vehicle);
        self.epochs.remove(vehicle);
        Ok(())
    }

    /// Adds a factory-fresh vehicle while the fleet is running (registered on
    /// the server, wired onto the shared hub, epoch 0).  Returns its id; the
    /// caller declares its desired manifest to put it to work.
    ///
    /// # Errors
    ///
    /// Propagates registration and construction errors.
    pub fn add_vehicle_during_run(&mut self) -> Result<VehicleId> {
        let index = self.next_index;
        self.next_index += 1;
        let vehicle_id = VehicleId::new(format!("VIN-FLEET-{index:04}"));
        let endpoint = format!("vehicle-{index}");
        let workers = self.workers_per_vehicle;
        self.fleet.server.register_vehicle(
            vehicle_id.clone(),
            fleet_hw(workers),
            fleet_system(workers),
        )?;
        self.fleet.server.bind_vehicle(&self.user, &vehicle_id)?;
        let hub = self.fleet.hub_for(&vehicle_id);
        let (vehicle, worker_handles, ecm_send_failures) =
            build_vehicle(&endpoint, workers, self.bus.clone(), &hub, 0)?;
        self.fleet
            .add_vehicle(vehicle_id.clone(), endpoint, vehicle)?;
        self.handles.push(VehicleHandles {
            id: vehicle_id.clone(),
            workers: worker_handles,
            ecm_send_failures,
        });
        Ok(vehicle_id)
    }

    /// Installs the v1 telemetry app across the fleet in staged waves.
    ///
    /// # Errors
    ///
    /// Propagates deployment rejections and wave timeouts.
    pub fn install_telemetry(&mut self, wave_size: usize) -> Result<()> {
        let user = self.user.clone();
        self.fleet
            .install_in_waves(&user, &AppId::new(APP_TELEMETRY), wave_size, 600)
    }

    /// Updates the given vehicles from v1 to v2 telemetry (uninstall wave
    /// followed by install wave), while the rest of the fleet keeps running.
    ///
    /// # Errors
    ///
    /// Propagates rejections and wave timeouts.
    pub fn update_telemetry(&mut self, targets: &[VehicleId], wave_size: usize) -> Result<()> {
        let user = self.user.clone();
        self.fleet.uninstall_in_waves(
            &user,
            &AppId::new(APP_TELEMETRY),
            targets,
            wave_size,
            600,
        )?;
        for wave in targets.chunks(wave_size.max(1)) {
            self.fleet
                .deploy_wave(&user, &AppId::new(APP_TELEMETRY_V2), wave)?;
            self.fleet.await_deployment(
                &AppId::new(APP_TELEMETRY_V2),
                wave,
                &dynar_server::server::DeploymentStatus::Installed,
                600,
            )?;
        }
        Ok(())
    }

    /// The last actuated value on one worker ECU of one vehicle.
    pub fn actuator_value(&self, vehicle: &VehicleId, worker: EcuId) -> Option<Value> {
        let handles = self.handles.iter().find(|h| &h.id == vehicle)?;
        let (_, swc, _) = handles.workers.iter().find(|(ecu, _, _)| *ecu == worker)?;
        self.fleet
            .vehicle(vehicle)?
            .ecu(worker)?
            .rte()
            .read_port_by_name(*swc, "act_out")
            .ok()
    }
}

/// Wires one fleet vehicle: the ECM ECU (gateway + speed sensor) and
/// `workers` worker ECUs with plug-in SW-Cs, at the given boot epoch.
/// Returns the vehicle, its worker handles and its ECM gateway's
/// send-failure counters.
///
/// Public so other harnesses (the actor runtime, the UDP federation
/// example) can build protocol-complete vehicles on any transport backend.
pub fn build_vehicle(
    endpoint: &str,
    workers: u16,
    bus: BusConfig,
    hub: &SharedHub,
    boot_epoch: u32,
) -> Result<(Vehicle, Vec<WorkerHandle>, Arc<SendFailures>)> {
    let ecm_ecu_id = EcuId::new(1);
    let mut ecm_config = EcmConfig::new(PluginSwcConfig::new("ecm-swc"), endpoint, "server")
        .with_boot_epoch(boot_epoch);
    for worker in worker_ids(workers) {
        ecm_config =
            ecm_config.with_remote_swc(worker, format!("to_{worker}"), format!("from_{worker}"));
    }

    let mut ecm_ecu = Ecu::new(ecm_ecu_id);
    let ecm_descriptor = ecm_config.descriptor()?;
    let (ecm_behavior, _ecm_pirte) = EcmSwc::create(ecm_ecu_id, ecm_config, hub.clone());
    let send_failures = ecm_behavior.send_failures();
    let ecm_swc = ecm_ecu.add_component(ecm_descriptor, Box::new(ecm_behavior))?;

    let sensor_descriptor = SwcDescriptor::new("speed-sensor")
        .with_port(PortSpec::sender_receiver(
            "speed_out",
            PortDirection::Provided,
        ))
        .with_runnable(RunnableSpec::new(
            "sample",
            Trigger::Periodic(SENSOR_PERIOD),
        ));
    let sensor_swc =
        ecm_ecu.add_component(sensor_descriptor, Box::new(SpeedSensor { reading: 0 }))?;
    let sensor_frame = CanId::new(SENSOR_FRAME)?;
    ecm_ecu.map_signal_out(sensor_swc, "speed_out", sensor_frame)?;

    let mut ecus = Vec::with_capacity(usize::from(workers) + 1);
    let mut worker_handles = Vec::with_capacity(usize::from(workers));
    let mut frames = vec![sensor_frame];
    for worker in worker_ids(workers) {
        let config = PluginSwcConfig::new(format!("worker-swc-{worker}"))
            .with_type_i_ports("mgmt_in", "mgmt_out")
            .with_virtual_port(VirtualPortSpec::new(
                dynar_foundation::ids::VirtualPortId::new(0),
                "SensorIn",
                PortKind::TypeIII,
                PortDataDirection::ToPlugins,
                "sensor_in",
            ))
            .with_virtual_port(VirtualPortSpec::new(
                dynar_foundation::ids::VirtualPortId::new(1),
                "ActOut",
                PortKind::TypeIII,
                PortDataDirection::ToSystem,
                "act_out",
            ));
        let mut ecu = Ecu::new(worker);
        let descriptor = config.descriptor()?;
        let (behavior, pirte) = PluginSwc::create(worker, config);
        let swc = ecu.add_component(descriptor, Box::new(behavior))?;

        ecu.map_signal_in(sensor_frame, swc, "sensor_in")?;
        ecm_ecu.map_signal_out(ecm_swc, &format!("to_{worker}"), mgmt_down_frame(worker))?;
        ecu.map_signal_in(mgmt_down_frame(worker), swc, "mgmt_in")?;
        ecu.map_signal_out(swc, "mgmt_out", mgmt_up_frame(worker))?;
        ecm_ecu.map_signal_in(mgmt_up_frame(worker), ecm_swc, &format!("from_{worker}"))?;

        frames.extend([mgmt_down_frame(worker), mgmt_up_frame(worker)]);
        ecus.push(ecu);
        worker_handles.push((worker, swc, pirte));
    }

    let mut all_ecus = vec![ecm_ecu];
    all_ecus.extend(ecus);
    let mut vehicle = Vehicle::new(all_ecus, bus);
    vehicle.open_acceptance_filters(&frames);
    Ok((vehicle, worker_handles, send_failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_fleet_healthy(scenario: &mut FleetScenario, expected_plugins: usize) {
        let handle_data: Vec<(VehicleId, Vec<WorkerHandle>)> = scenario
            .handles()
            .iter()
            .map(|h| (h.id.clone(), h.workers.clone()))
            .collect();
        for (vehicle_id, workers) in handle_data {
            let bus = scenario.fleet.vehicle(&vehicle_id).unwrap().bus().stats();
            assert_eq!(bus.dropped, 0, "{vehicle_id}: lossless bus");
            for (worker, _, pirte) in workers {
                let stats = pirte.lock().stats();
                assert_eq!(stats.plugin_faults, 0, "{vehicle_id}/{worker}: no faults");
                assert_eq!(
                    pirte.lock().plugin_count(),
                    expected_plugins,
                    "{vehicle_id}/{worker}: plug-in count"
                );
                assert!(pirte.lock().verify_compiled_routes());
            }
            let vehicle = scenario.fleet.vehicle_mut(&vehicle_id).unwrap();
            for ecu_id in [1u16, 2, 3, 4].map(EcuId::new) {
                let ecu = vehicle.ecu_mut(ecu_id).unwrap();
                assert!(
                    ecu.take_behaviour_errors().is_empty(),
                    "{vehicle_id}/{ecu_id}: no behaviour errors"
                );
            }
        }
    }

    #[test]
    fn six_vehicle_fleet_installs_in_waves_and_actuates() {
        let mut scenario = FleetScenario::build(6).unwrap();
        scenario.install_telemetry(2).unwrap();
        assert_fleet_healthy(&mut scenario, 1);

        scenario.fleet.run(80).unwrap();
        for handle in scenario.handles().to_vec() {
            for (worker, _, _) in &handle.workers {
                let actuated = scenario.actuator_value(&handle.id, *worker).unwrap();
                let Value::I64(v) = actuated else {
                    panic!("{}/{worker}: no actuation, got {actuated:?}", handle.id);
                };
                assert!(v > 0, "{}/{worker}: sensor chain is live", handle.id);
                assert_eq!(v % GAIN_V1, 0, "{}/{worker}: v1 gain applied", handle.id);
            }
        }
    }

    #[test]
    fn update_wave_changes_the_gain_while_the_rest_keeps_driving() {
        let mut scenario = FleetScenario::build(4).unwrap();
        scenario.install_telemetry(4).unwrap();
        scenario.fleet.run(40).unwrap();

        // Update the first two vehicles to v2; the others stay on v1.
        let targets: Vec<VehicleId> = scenario
            .fleet
            .vehicle_ids()
            .iter()
            .take(2)
            .cloned()
            .collect();
        scenario.update_telemetry(&targets, 2).unwrap();
        scenario.fleet.run(60).unwrap();

        for (index, handle) in scenario.handles().to_vec().iter().enumerate() {
            let gain = if index < 2 { GAIN_V2 } else { GAIN_V1 };
            for (worker, _, pirte) in &handle.workers {
                let actuated = scenario.actuator_value(&handle.id, *worker).unwrap();
                let Value::I64(v) = actuated else {
                    panic!("{}/{worker}: no actuation", handle.id);
                };
                assert_eq!(v % gain, 0, "{}/{worker}: gain {gain} applied", handle.id);
                assert!(pirte.lock().verify_compiled_routes());
            }
        }
        assert_fleet_healthy(&mut scenario, 1);
    }

    /// Regression (satellite): with a vehicle's endpoint unregistered from
    /// the hub, the server used to retransmit until the retry budget
    /// exhausted with a misleading "retry budget exhausted" failure.  The
    /// dropped-destination feedback now parks the vehicle instead: the
    /// operation stays pending (frozen), no budget burns.
    #[test]
    fn dead_endpoints_park_the_vehicle_instead_of_burning_the_retry_budget() {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        let user = scenario.user.clone();
        let victim = scenario.fleet.vehicle_ids()[0].clone();
        let endpoint = scenario.fleet.endpoint_of(&victim).unwrap().to_owned();
        scenario.fleet.unregister_endpoint(&endpoint);

        let app = AppId::new(APP_TELEMETRY);
        scenario
            .fleet
            .server
            .set_desired(&user, &victim, &app)
            .unwrap();
        // Far past the whole retry horizon.
        let horizon = scenario.fleet.server.retry_horizon_ticks();
        scenario.fleet.run(horizon + 50).unwrap();

        assert_eq!(
            scenario.fleet.stats().retry_failures,
            0,
            "no budget burned against the dead link"
        );
        assert!(!scenario.fleet.server.is_online(&victim), "parked");
        assert!(matches!(
            scenario.fleet.server.deployment_status(&victim, &app),
            dynar_server::server::DeploymentStatus::Pending { .. }
        ));
        // The other vehicle is unaffected.
        let healthy = scenario.fleet.vehicle_ids()[1].clone();
        assert!(scenario.fleet.server.is_online(&healthy));

        // A reboot brings the victim back (fresh endpoint registration, new
        // epoch, protocol-driven resync) and the parked manifest converges.
        scenario.reboot_vehicle(&victim).unwrap();
        scenario.fleet.run(150).unwrap();
        assert_eq!(
            scenario.fleet.server.deployment_status(&victim, &app),
            dynar_server::server::DeploymentStatus::Installed
        );
    }

    #[test]
    fn remove_and_add_keep_the_fleet_indexes_consistent() {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 4,
            workers_per_vehicle: 2,
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        let ids = scenario.fleet.vehicle_ids().to_vec();
        scenario.remove_vehicle(&ids[1]).unwrap();
        assert_eq!(scenario.fleet.len(), 3);
        assert!(scenario.fleet.vehicle(&ids[1]).is_none());
        assert_eq!(scenario.handles().len(), 3);
        // The swap-removed hole is repointed: every surviving id still
        // resolves to its own entry and endpoint.
        for id in [&ids[0], &ids[2], &ids[3]] {
            assert!(scenario.fleet.vehicle(id).is_some(), "{id} resolves");
            let endpoint = scenario.fleet.endpoint_of(id).unwrap().to_owned();
            assert!(scenario.fleet.endpoint_registered(&endpoint));
        }
        assert!(
            !scenario.fleet.endpoint_registered("vehicle-1"),
            "removed endpoint unregistered"
        );
        // Removing twice errors; the fleet keeps running and can grow again.
        assert!(scenario.fleet.remove_vehicle(&ids[1]).is_err());
        let newcomer = scenario.add_vehicle_during_run().unwrap();
        assert_eq!(scenario.fleet.len(), 4);
        assert!(scenario.fleet.vehicle(&newcomer).is_some());
        scenario.fleet.run(10).unwrap();
    }

    #[test]
    fn fifty_vehicle_fleet_survives_a_staged_install() {
        let mut scenario = FleetScenario::build(50).unwrap();
        assert_eq!(scenario.fleet.len(), 50);
        scenario.install_telemetry(10).unwrap();
        scenario.fleet.run(50).unwrap();
        assert_fleet_healthy(&mut scenario, 1);
        let stats = scenario.fleet.stats();
        assert!(
            stats.downlink_messages >= 150,
            "3 packages × 50 vehicles pushed, got {}",
            stats.downlink_messages
        );
        assert!(
            stats.uplink_messages >= 150,
            "every package acknowledged, got {}",
            stats.uplink_messages
        );
    }
}

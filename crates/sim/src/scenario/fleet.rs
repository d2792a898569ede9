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
//!
//! [`FleetScenario`] is also the one harness the lossy scenarios
//! ([`crate::scenario::chaos`], [`crate::scenario::churn`],
//! [`crate::scenario::restart`], [`crate::scenario::campaign`]) run on:
//!
//! * [`FleetScenario::step`] — one fleet tick, then the transport
//!   conservation check;
//! * [`FleetScenario::drive`] — the drive loop: horizon, due events
//!   (`take_due`), reconcile sweep, checked step, done?;
//! * [`FleetScenario::truth_resync`] — state-report rounds that let every
//!   ECM confirm (or repair) the server's observed state;
//! * [`FleetScenario::verify`] — the one ground-truth verifier: every
//!   worker PIRTE passes [`FleetScenario::verify_workers`] (no rejected
//!   operation, compiled routes equal to a fresh compile) and hosts exactly
//!   the plug-ins its manifest implies (`expected_plugin`); on the server
//!   every desired app is `Installed` and observed = desired.

use dynar_bus::frame::CanId;
use dynar_bus::network::BusConfig;
use dynar_core::pirte::Pirte;
use dynar_core::plugin::PluginPortDirection;
use dynar_core::swc::{PluginSwc, PluginSwcConfig, SharedPirte};
use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use std::sync::Arc;

use dynar_ecm::gateway::{EcmConfig, EcmSwc, SendFailureCounts, SendFailures, SharedHub};
use dynar_fes::transport::{LinkFault, TransportConfig};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, SwcId, UserId, VehicleId};
use dynar_foundation::value::Value;
use dynar_rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar_rte::ecu::Ecu;
use dynar_rte::port::{PortDirection, PortSpec};
use dynar_server::model::{
    AppDefinition, ConnectionDecl, HwConf, PluginArtifact, PluginPortDecl, PluginSwcDecl, SwConf,
    SystemSwConf, VirtualPortDecl, VirtualPortKindDecl,
};
use dynar_server::server::{DeploymentStatus, TrustedServer};
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
/// The application a bad-version campaign tries to roll out: plug-in
/// binaries that no PIRTE can parse.
pub const APP_TELEMETRY_BAD: &str = "fleet-telemetry-bad";
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
    /// External transport configuration of every lane hub.
    pub transport: TransportConfig,
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

pub(crate) fn worker_ids(workers: u16) -> impl Iterator<Item = EcuId> {
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

/// The plug-in id `app` places on `worker`: `OP-…` for [`APP_TELEMETRY`],
/// `OP2-…` for [`APP_TELEMETRY_V2`] and `OPBAD-…` for [`APP_TELEMETRY_BAD`].
pub(crate) fn expected_plugin(app: &AppId, worker: EcuId) -> PluginId {
    let suffix = match app.name() {
        APP_TELEMETRY_V2 => "2",
        APP_TELEMETRY_BAD => "BAD",
        _ => "",
    };
    PluginId::new(format!("OP{suffix}-{worker}"))
}

/// Removes the events of `schedule` that are due at `now` (scheduled at or
/// before it) and returns them in schedule order; later events stay queued.
pub(crate) fn take_due<E: Copy>(schedule: &mut Vec<(u64, E)>, now: u64) -> Vec<E> {
    let mut due = Vec::new();
    schedule.retain(|&(tick, event)| {
        if tick <= now {
            due.push(event);
        }
        tick > now
    });
    due
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
        let mut server = TrustedServer::new();
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

    /// Puts `jitter_ticks` of latency jitter on both directions of
    /// `vehicle`'s server link and, when set, overrides the loss of its
    /// uplink.  Faults are keyed by endpoint name, so they survive reboots
    /// (and a server crash: the transport outlives the process).
    pub(crate) fn set_link_jitter(
        &self,
        vehicle: &VehicleId,
        jitter_ticks: u64,
        uplink_loss: Option<f64>,
    ) {
        if jitter_ticks == 0 && uplink_loss.is_none() {
            return;
        }
        let Some(endpoint) = self.fleet.endpoint_of(vehicle) else {
            return;
        };
        let server = self.fleet.server_endpoint();
        let jittery = LinkFault::jittery(jitter_ticks);
        self.fleet.set_link_fault(server, endpoint, jittery.clone());
        self.fleet.set_link_fault(
            endpoint,
            server,
            LinkFault {
                loss_probability: uplink_loss,
                ..jittery
            },
        );
    }

    /// One fleet tick, then the transport conservation check.
    ///
    /// # Errors
    ///
    /// Propagates fleet step errors; returns
    /// [`DynarError::ProtocolViolation`] if conservation is violated.
    pub fn step(&mut self) -> Result<()> {
        self.fleet.step()?;
        let stats = self.fleet.transport_stats();
        if !stats.is_conserved() {
            return Err(DynarError::ProtocolViolation(format!(
                "transport stats conservation violated at tick {}: {stats:?}",
                self.fleet.now()
            )));
        }
        Ok(())
    }

    /// Runs `call` on the server for every vehicle in the fleet, skipping
    /// the vehicles the server does not know (`NotFound`).
    fn sweep<T>(
        &mut self,
        call: impl Fn(&mut TrustedServer, &VehicleId) -> Result<T>,
    ) -> Result<()> {
        for id in self.fleet.vehicle_ids().to_vec() {
            match call(&mut self.fleet.server, &id) {
                Ok(_) | Err(DynarError::NotFound { .. }) => {}
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    /// Returns `true` when every vehicle reached exactly its desired
    /// manifest on the server (observed = desired, every desired app
    /// `Installed`) and nothing is pending or outstanding.
    pub fn fleet_converged(&self) -> bool {
        let server = &self.fleet.server;
        self.fleet.vehicle_ids().iter().all(|id| {
            let desired = server.desired_manifest(id);
            server.pending_operations(id).is_empty()
                && server.outstanding_count(id) == 0
                && server.installed_apps(id) == desired
                && desired
                    .iter()
                    .all(|app| server.deployment_status(id, app) == DeploymentStatus::Installed)
        })
    }

    /// Drives the fleet until `done` holds and no event of `schedule` is
    /// left.  Every tick: fail at `deadline`, `fire` each event due
    /// (absolute ticks; due events fire in schedule order, each exactly
    /// once, at or after its tick), sweep `reconcile` over the fleet
    /// every `reconcile_interval` ticks (0 disables), take one checked
    /// [`FleetScenario::step`], then ask `done`.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::RetryExhausted`] (naming `label`) once the
    /// fleet clock reaches `deadline`, and propagates event, sweep, step
    /// and `done` errors.
    pub fn drive<E: Copy>(
        &mut self,
        label: &str,
        deadline: u64,
        reconcile_interval: u64,
        mut schedule: Vec<(u64, E)>,
        mut fire: impl FnMut(&mut Self, E) -> Result<()>,
        done: impl Fn(&Self) -> Result<bool>,
    ) -> Result<()> {
        loop {
            let now = self.fleet.now().as_u64();
            if now >= deadline {
                return Err(DynarError::RetryExhausted {
                    operation: format!("{label} convergence by tick {deadline}"),
                    attempts: u32::try_from(now).unwrap_or(u32::MAX),
                });
            }
            for event in take_due(&mut schedule, now) {
                fire(self, event)?;
            }
            if reconcile_interval > 0 && now.is_multiple_of(reconcile_interval) {
                self.sweep(TrustedServer::reconcile)?;
            }
            self.step()?;
            if schedule.is_empty() && done(self)? {
                return Ok(());
            }
        }
    }

    /// Asks every ECM for a state report and lets the resync path confirm
    /// (or repair) the server's observed state.  Requests and reports travel
    /// the same lossy links, so up to eight rounds of twelve ticks run,
    /// stopping after the first round that ends converged.
    ///
    /// # Errors
    ///
    /// Propagates request and step errors.
    pub fn truth_resync(&mut self) -> Result<()> {
        for _ in 0..8 {
            self.sweep(TrustedServer::request_state_report)?;
            for _ in 0..12 {
                self.step()?;
            }
            if self.fleet_converged() {
                break;
            }
        }
        Ok(())
    }

    /// Runs the per-worker ground-truth check on every worker PIRTE of the
    /// fleet: no rejected operation (a duplicate that got past an epoch
    /// fence or the dedup window), then the caller's `rule`, then compiled
    /// routes equal to a fresh compile.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] naming the first vehicle
    /// and worker that fails, or the first error of `rule`.
    pub fn verify_workers(
        &self,
        mut rule: impl FnMut(&VehicleId, EcuId, &Pirte) -> Result<()>,
    ) -> Result<()> {
        for handle in &self.handles {
            let id = &handle.id;
            for (worker, _, pirte) in &handle.workers {
                let pirte = pirte.lock();
                let rejected = pirte.stats().rejected_operations;
                if rejected != 0 {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}/{worker}: {rejected} rejected operations — a duplicate got past \
                         an epoch fence or the dedup window"
                    )));
                }
                rule(id, *worker, &pirte)?;
                if !pirte.verify_compiled_routes() {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}/{worker}: compiled routes diverged"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The ground-truth check of a converged fleet: every worker PIRTE
    /// passes [`FleetScenario::verify_workers`] and hosts exactly the
    /// plug-ins its vehicle's desired manifest implies — no leftovers, no
    /// double-applies — and on the server every desired app is `Installed`
    /// and the observed state equals the desired manifest.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] naming the first vehicle
    /// (and worker, for a PIRTE-side violation) that fails a check.
    pub fn verify(&self) -> Result<()> {
        let server = &self.fleet.server;
        self.verify_workers(|id, worker, pirte| {
            let mut expected: Vec<PluginId> = server
                .desired_manifest(id)
                .iter()
                .map(|app| expected_plugin(app, worker))
                .collect();
            expected.sort();
            let mut actual: Vec<PluginId> = pirte
                .plugin_states()
                .into_iter()
                .map(|(plugin, _)| plugin)
                .collect();
            actual.sort();
            if actual != expected {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}/{worker}: PIRTE hosts {actual:?}, manifest implies {expected:?}"
                )));
            }
            Ok(())
        })?;
        for handle in &self.handles {
            let id = &handle.id;
            let desired = server.desired_manifest(id);
            for app in &desired {
                let status = server.deployment_status(id, app);
                if status != DeploymentStatus::Installed {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}: desired app {app} resolved to {status:?}, not Installed"
                    )));
                }
            }
            let observed = server.installed_apps(id);
            if observed != desired {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}: observed {observed:?} diverges from desired {desired:?}"
                )));
            }
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
    use dynar_core::message::InstallationPackage;
    use dynar_core::{InstallationContext, PortInitContext, PortLinkContext};

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

    /// A two-vehicle fleet driven until v1 converged everywhere, which the
    /// verifier accepts.
    fn converged_pair() -> FleetScenario {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        let user = scenario.user.clone();
        for id in scenario.fleet.vehicle_ids().to_vec() {
            scenario
                .fleet
                .server
                .set_desired(&user, &id, &AppId::new(APP_TELEMETRY))
                .unwrap();
        }
        let no_events: Vec<(u64, ())> = Vec::new();
        scenario
            .drive(
                "v1",
                600,
                0,
                no_events,
                |_, ()| Ok(()),
                |s| Ok(s.fleet_converged()),
            )
            .unwrap();
        scenario.verify().unwrap();
        scenario
    }

    /// The second vehicle's last worker: its id, its ECU and its PIRTE.
    fn last_worker(scenario: &FleetScenario) -> (VehicleId, EcuId, SharedPirte) {
        let handle = &scenario.handles()[1];
        let (worker, _, pirte) = handle.workers.last().unwrap().clone();
        (handle.id.clone(), worker, pirte)
    }

    /// A package for `plugin` with no ports and a trivial binary.
    fn bare_package(plugin: PluginId) -> InstallationPackage {
        InstallationPackage::new(
            plugin,
            AppId::new("planted"),
            assemble("planted", "yield\nhalt").unwrap().to_bytes(),
            InstallationContext::new(PortInitContext::new(), PortLinkContext::new()),
        )
    }

    /// `verify` fails with a protocol violation whose message names
    /// `named` (the vehicle, or vehicle/worker) and contains `what`.
    fn assert_violation(scenario: &FleetScenario, named: &str, what: &str) {
        match scenario.verify() {
            Err(DynarError::ProtocolViolation(message)) => assert!(
                message.starts_with(&format!("{named}:")) && message.contains(what),
                "expected a violation of {named} about {what:?}, got {message:?}"
            ),
            other => panic!("expected a protocol violation of {named}, got {other:?}"),
        }
    }

    #[test]
    fn verify_catches_a_plugin_installed_behind_the_servers_back() {
        let scenario = converged_pair();
        let (id, worker, pirte) = last_worker(&scenario);
        pirte
            .lock()
            .install(bare_package(PluginId::new("intruder")))
            .unwrap();
        assert_violation(&scenario, &format!("{id}/{worker}"), "intruder");
    }

    #[test]
    fn verify_catches_a_desired_app_cleared_on_the_server_only() {
        let mut scenario = converged_pair();
        let user = scenario.user.clone();
        let (id, _, _) = last_worker(&scenario);
        scenario
            .fleet
            .server
            .clear_desired(&user, &id, &AppId::new(APP_TELEMETRY))
            .unwrap();
        let first = scenario.handles()[1].workers[0].0;
        assert_violation(&scenario, &format!("{id}/{first}"), "manifest implies []");
    }

    #[test]
    fn verify_catches_a_rejected_operation() {
        let scenario = converged_pair();
        let (id, worker, pirte) = last_worker(&scenario);
        let installed = expected_plugin(&AppId::new(APP_TELEMETRY), worker);
        assert!(pirte.lock().install(bare_package(installed)).is_err());
        assert_violation(
            &scenario,
            &format!("{id}/{worker}"),
            "1 rejected operations",
        );
    }

    #[test]
    fn due_events_fire_once_in_schedule_order_at_or_after_their_tick() {
        let mut schedule = vec![(3, 'a'), (1, 'b'), (3, 'c'), (0, 'd'), (7, 'e'), (12, 'f')];
        let mut fired = Vec::new();
        // Ticks 1, 4, 6–8 and 10–11 are skipped: an event whose tick was
        // skipped fires at the next tick asked.
        for now in [0, 2, 3, 5, 9, 12, 13] {
            for event in take_due(&mut schedule, now) {
                fired.push((now, event));
            }
        }
        assert_eq!(
            fired,
            vec![(0, 'd'), (2, 'b'), (3, 'a'), (3, 'c'), (9, 'e'), (12, 'f')]
        );
        assert!(schedule.is_empty());
        assert!(take_due(&mut schedule, 20).is_empty());
    }
}

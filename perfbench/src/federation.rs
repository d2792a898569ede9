//! The two federations a workload can run on.
//!
//! * [`FleetFederation`] is the program as shipped: a single-shard
//!   `dynar_sim::fleet::Fleet` stepped through `Fleet::step`.
//! * [`TracedFederation`] is the benchmark's own copy of the same round,
//!   built only from public calls in the order `Fleet::step` uses, with a
//!   span around every layer boundary.  It also copies `Vehicle::step` from
//!   the public `Ecu`, `Bus`, `Segmenter`/`Reassembler` and codec calls, and
//!   wraps the ECM, plug-in and sensor behaviours in [`Timed`].
//!
//! Both are built by [`build`] from the same [`FleetSpec`], so for one seed
//! they must end every schedule in the same state; the traced run checks
//! that through a fingerprint.

use std::collections::{HashMap, HashSet};

use dynar_bench::CountingAllocator;
use dynar_bus::frame::{CanId, Frame};
use dynar_bus::network::{Bus, BusConfig, BusStats};
use dynar_core::swc::{PluginSwc, PluginSwcConfig, SharedPirte};
use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar_ecm::gateway::{EcmConfig, EcmSwc, SharedHub};
use dynar_fes::transport::{
    shared_transport, EndpointName, TransportConfig, TransportHub, TransportStats,
};
use dynar_foundation::codec;
use dynar_foundation::error::Result;
use dynar_foundation::ids::{EcuId, SwcId, UserId, VehicleId, VirtualPortId};
use dynar_foundation::payload::Payload;
use dynar_foundation::time::Clock;
use dynar_foundation::value::Value;
use dynar_rte::com_mapping::{Reassembler, Segmenter};
use dynar_rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar_rte::ecu::Ecu;
use dynar_rte::port::{PortDirection, PortSpec};
use dynar_server::server::TrustedServer;
use dynar_sim::fleet::Fleet;
use dynar_sim::scenario::fleet::{
    fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1, GAIN_V2,
    SENSOR_FRAME, SENSOR_PERIOD,
};
use dynar_sim::world::Vehicle;

use crate::trace::{self, Layer};

/// Worker ECUs per vehicle (the `FleetScenario` topology: one ECM ECU plus
/// three workers).
pub const WORKERS: u16 = 3;
/// The server's transport endpoint.
pub const SERVER_ENDPOINT: &str = "server";

/// What the benchmark generates from its seed: the fleet the program
/// receives.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Vehicle ids, in registration order.
    pub vins: Vec<VehicleId>,
    /// The external transport (loss and fault seed).
    pub transport: TransportConfig,
    /// Journal compaction interval, `None` for no journal.
    pub journal: Option<u32>,
}

impl FleetSpec {
    /// Generates `vehicles` distinct VINs and the transport fault seed from
    /// `seed`.
    pub fn generate(seed: u64, vehicles: usize, loss: f64, journal: Option<u32>) -> Self {
        let mut rng = SplitMix64(seed);
        let mut seen = HashSet::new();
        let mut vins = Vec::with_capacity(vehicles);
        while vins.len() < vehicles {
            let suffix = rng.next() & 0xFFFF_FFFF_FFFF;
            if seen.insert(suffix) {
                vins.push(VehicleId::new(format!("VIN-{suffix:012X}")));
            }
        }
        FleetSpec {
            vins,
            transport: TransportConfig {
                latency_ticks: 1,
                loss_probability: loss,
                seed: rng.next(),
            },
            journal,
        }
    }
}

/// The SplitMix64 generator: enough to spread a seed over VINs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Handles into one vehicle's plug-in runtimes.
#[derive(Debug, Clone)]
pub struct VehicleHandles {
    /// Per worker ECU: its id, its plug-in SW-C and its PIRTE.
    pub workers: Vec<(EcuId, SwcId, SharedPirte)>,
    /// The ECM's own PIRTE.
    pub ecm_pirte: SharedPirte,
}

/// The operations a workload needs from a federation.
pub trait Federation {
    /// One round: downlinks out, transport step, every vehicle steps,
    /// uplinks in, campaign gates.
    ///
    /// # Errors
    ///
    /// Propagates the first vehicle step error.
    fn step(&mut self) -> Result<()>;
    /// The trusted server.
    fn server(&self) -> &TrustedServer;
    /// The trusted server, for operator calls.
    fn server_mut(&mut self) -> &mut TrustedServer;
    /// Current simulated time in ticks.
    fn now(&self) -> u64;
    /// Vehicle ids in registration order.
    fn ids(&self) -> &[VehicleId];
    /// Plug-in runtime handles, in registration order.
    fn handles(&self) -> &[VehicleHandles];
    /// The ECUs of one vehicle (by registration index).
    fn ecus(&self, vehicle: usize) -> &[Ecu];
    /// One ECU of one vehicle, mutably.
    fn ecu_mut(&mut self, vehicle: usize, ecu: EcuId) -> &mut Ecu;
    /// The in-vehicle bus statistics of one vehicle.
    fn bus_stats(&self, vehicle: usize) -> BusStats;
    /// Statistics of the external transport.
    fn transport_stats(&self) -> TransportStats;
}

/// The fleet operator account.
pub fn operator() -> UserId {
    UserId::new("fleet-ops")
}

/// The actuator gain of a telemetry app.
pub fn gain_of(app: &str) -> i64 {
    if app == APP_TELEMETRY_V2 {
        GAIN_V2
    } else {
        GAIN_V1
    }
}

/// A server with the operator and both telemetry versions, and every vehicle
/// of `spec` registered and bound.
fn build_server(spec: &FleetSpec) -> Result<TrustedServer> {
    let mut server = TrustedServer::with_shards(1);
    server.create_user(operator())?;
    server.upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS)?)?;
    server.upload_app(telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS)?)?;
    for vin in &spec.vins {
        server.register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))?;
        server.bind_vehicle(&operator(), vin)?;
    }
    if let Some(interval) = spec.journal {
        server.enable_journal(interval);
    }
    Ok(server)
}

fn endpoint_of(index: usize) -> String {
    format!("vehicle-{index}")
}

fn bus_config() -> BusConfig {
    BusConfig {
        frames_per_tick: 64,
        ..BusConfig::default()
    }
}

/// Builds the untraced federation: the shipped `Fleet` round.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn build_fleet(spec: &FleetSpec) -> Result<FleetFederation> {
    let server = build_server(spec)?;
    let mut fleet = Fleet::new(server, SERVER_ENDPOINT, spec.transport.clone());
    let mut handles = Vec::with_capacity(spec.vins.len());
    for (index, vin) in spec.vins.iter().enumerate() {
        let endpoint = endpoint_of(index);
        let hub = fleet.hub_for(vin);
        let built = build_vehicle(&endpoint, &hub, false)?;
        let mut vehicle = Vehicle::new(built.ecus, bus_config());
        vehicle.open_acceptance_filters(&built.frames);
        fleet.add_vehicle(vin.clone(), endpoint, vehicle)?;
        handles.push(built.handles);
    }
    Ok(FleetFederation { fleet, handles })
}

/// Builds the traced federation: the benchmark's copy of the round.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn build_traced(spec: &FleetSpec) -> Result<TracedFederation> {
    let server = build_server(spec)?;
    let hub: SharedHub = shared_transport(TransportHub::new(spec.transport.clone()));
    hub.lock().register(SERVER_ENDPOINT);
    let mut federation = TracedFederation {
        server,
        hub,
        server_endpoint: SERVER_ENDPOINT.to_owned(),
        entries: Vec::with_capacity(spec.vins.len()),
        ids: spec.vins.clone(),
        handles: Vec::with_capacity(spec.vins.len()),
        by_id: HashMap::new(),
        by_endpoint: HashMap::new(),
        uplink_scratch: Vec::new(),
        offline_scratch: Vec::new(),
        clock: Clock::new(),
        counters: RoundCounters::default(),
    };
    for (index, vin) in spec.vins.iter().enumerate() {
        let endpoint = endpoint_of(index);
        let built = build_vehicle(&endpoint, &federation.hub, true)?;
        let vehicle = TracedVehicle::new(built.ecus, bus_config(), &built.frames);
        federation.by_id.insert(vin.clone(), index);
        federation.by_endpoint.insert(endpoint.clone(), index);
        federation.entries.push(TracedEntry {
            id: vin.clone(),
            endpoint,
            vehicle,
        });
        federation.handles.push(built.handles);
    }
    Ok(federation)
}

// ---------------------------------------------------------------------------
// Vehicle construction (the `FleetScenario` topology)
// ---------------------------------------------------------------------------

struct BuiltVehicle {
    ecus: Vec<Ecu>,
    frames: Vec<CanId>,
    handles: VehicleHandles,
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

/// A behaviour wrapped in a span of its layer.  A plug-in SW-C pass that
/// changed the PIRTE's install or uninstall count is relabelled as the
/// install path.
struct Timed {
    layer: Layer,
    inner: Box<dyn ComponentBehavior>,
    pirte: Option<SharedPirte>,
}

impl Timed {
    fn wrap(
        timed: bool,
        layer: Layer,
        inner: Box<dyn ComponentBehavior>,
        pirte: Option<SharedPirte>,
    ) -> Box<dyn ComponentBehavior> {
        if timed {
            Box::new(Timed {
                layer,
                inner,
                pirte,
            })
        } else {
            inner
        }
    }

    fn lifecycle_ops(&self) -> Option<u64> {
        self.pirte.as_ref().map(|pirte| {
            let stats = pirte.lock().stats();
            stats.installs + stats.uninstalls
        })
    }
}

impl ComponentBehavior for Timed {
    fn on_start(&mut self, ctx: &mut RteContext<'_>) -> Result<()> {
        let _span = trace::span(self.layer);
        self.inner.on_start(ctx)
    }

    fn on_runnable(&mut self, runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        let mut span = trace::span(self.layer);
        let before = self.lifecycle_ops();
        let result = self.inner.on_runnable(runnable, ctx);
        if before.is_some() && self.lifecycle_ops() != before {
            span.relabel(Layer::PirteInstall);
        }
        result
    }

    fn on_operation(
        &mut self,
        port: &str,
        operation: &str,
        argument: Value,
        ctx: &mut RteContext<'_>,
    ) -> Result<Value> {
        let _span = trace::span(self.layer);
        self.inner.on_operation(port, operation, argument, ctx)
    }
}

fn worker_ids() -> impl Iterator<Item = EcuId> {
    (0..WORKERS).map(|i| EcuId::new(i + 2))
}

fn mgmt_down_frame(worker: EcuId) -> Result<CanId> {
    CanId::new(0x300 + u32::from(worker.index()))
}

fn mgmt_up_frame(worker: EcuId) -> Result<CanId> {
    CanId::new(0x400 + u32::from(worker.index()))
}

/// Wires one vehicle exactly like `dynar_sim::scenario::fleet::build_vehicle`
/// (factory boot epoch), optionally with every behaviour wrapped in
/// [`Timed`].
fn build_vehicle(endpoint: &str, hub: &SharedHub, timed: bool) -> Result<BuiltVehicle> {
    let ecm_ecu_id = EcuId::new(1);
    let mut ecm_config = EcmConfig::new(PluginSwcConfig::new("ecm-swc"), endpoint, SERVER_ENDPOINT);
    for worker in worker_ids() {
        ecm_config =
            ecm_config.with_remote_swc(worker, format!("to_{worker}"), format!("from_{worker}"));
    }

    let mut ecm_ecu = Ecu::new(ecm_ecu_id);
    let ecm_descriptor = ecm_config.descriptor()?;
    let (ecm_behavior, ecm_pirte) = EcmSwc::create(ecm_ecu_id, ecm_config, hub.clone());
    let ecm_swc = ecm_ecu.add_component(
        ecm_descriptor,
        Timed::wrap(timed, Layer::EcmGateway, Box::new(ecm_behavior), None),
    )?;

    let sensor_descriptor = SwcDescriptor::new("speed-sensor")
        .with_port(PortSpec::sender_receiver(
            "speed_out",
            PortDirection::Provided,
        ))
        .with_runnable(RunnableSpec::new(
            "sample",
            Trigger::Periodic(SENSOR_PERIOD),
        ));
    let sensor_swc = ecm_ecu.add_component(
        sensor_descriptor,
        Timed::wrap(
            timed,
            Layer::Sensor,
            Box::new(SpeedSensor { reading: 0 }),
            None,
        ),
    )?;
    let sensor_frame = CanId::new(SENSOR_FRAME)?;
    ecm_ecu.map_signal_out(sensor_swc, "speed_out", sensor_frame)?;

    let mut ecus = Vec::with_capacity(usize::from(WORKERS) + 1);
    let mut workers = Vec::with_capacity(usize::from(WORKERS));
    let mut frames = vec![sensor_frame];
    for worker in worker_ids() {
        let config = PluginSwcConfig::new(format!("worker-swc-{worker}"))
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
            ));
        let mut ecu = Ecu::new(worker);
        let descriptor = config.descriptor()?;
        let (behavior, pirte) = PluginSwc::create(worker, config);
        let swc = ecu.add_component(
            descriptor,
            Timed::wrap(
                timed,
                Layer::PirteExec,
                Box::new(behavior),
                Some(pirte.clone()),
            ),
        )?;

        ecu.map_signal_in(sensor_frame, swc, "sensor_in")?;
        ecm_ecu.map_signal_out(ecm_swc, &format!("to_{worker}"), mgmt_down_frame(worker)?)?;
        ecu.map_signal_in(mgmt_down_frame(worker)?, swc, "mgmt_in")?;
        ecu.map_signal_out(swc, "mgmt_out", mgmt_up_frame(worker)?)?;
        ecm_ecu.map_signal_in(mgmt_up_frame(worker)?, ecm_swc, &format!("from_{worker}"))?;

        frames.extend([mgmt_down_frame(worker)?, mgmt_up_frame(worker)?]);
        ecus.push(ecu);
        workers.push((worker, swc, pirte));
    }

    let mut all_ecus = vec![ecm_ecu];
    all_ecus.extend(ecus);
    Ok(BuiltVehicle {
        ecus: all_ecus,
        frames,
        handles: VehicleHandles { workers, ecm_pirte },
    })
}

// ---------------------------------------------------------------------------
// The shipped round
// ---------------------------------------------------------------------------

/// The program as shipped: a single-shard `Fleet`.
#[derive(Debug)]
pub struct FleetFederation {
    fleet: Fleet,
    handles: Vec<VehicleHandles>,
}

impl FleetFederation {
    fn vehicle(&self, index: usize) -> &Vehicle {
        self.fleet
            .vehicle(&self.fleet.vehicle_ids()[index])
            .expect("registered vehicle")
    }
}

impl Federation for FleetFederation {
    fn step(&mut self) -> Result<()> {
        self.fleet.step()
    }

    fn server(&self) -> &TrustedServer {
        &self.fleet.server
    }

    fn server_mut(&mut self) -> &mut TrustedServer {
        &mut self.fleet.server
    }

    fn now(&self) -> u64 {
        self.fleet.now().as_u64()
    }

    fn ids(&self) -> &[VehicleId] {
        self.fleet.vehicle_ids()
    }

    fn handles(&self) -> &[VehicleHandles] {
        &self.handles
    }

    fn ecus(&self, vehicle: usize) -> &[Ecu] {
        self.vehicle(vehicle).ecus()
    }

    fn ecu_mut(&mut self, vehicle: usize, ecu: EcuId) -> &mut Ecu {
        let id = self.fleet.vehicle_ids()[vehicle].clone();
        self.fleet
            .vehicle_mut(&id)
            .and_then(|vehicle| vehicle.ecu_mut(ecu))
            .expect("registered ECU")
    }

    fn bus_stats(&self, vehicle: usize) -> BusStats {
        self.vehicle(vehicle).bus().stats()
    }

    fn transport_stats(&self) -> TransportStats {
        self.fleet.transport_stats()
    }
}

// ---------------------------------------------------------------------------
// The traced copy of the round
// ---------------------------------------------------------------------------

/// Counts the traced round keeps besides span times.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCounters {
    /// Rounds stepped.
    pub rounds: u64,
    /// Vehicles visited by the dirty-set downlink drain.
    pub poll_visits: u64,
    /// `mark_offline` calls.
    pub mark_offline_calls: u64,
    /// `process_uplink` calls that returned an error.
    pub uplink_errors: u64,
    /// Campaign events returned by `step_campaigns`.
    pub campaign_events: u64,
    /// Largest transport in-flight count seen after the downlink sends.
    pub in_flight_max: u64,
    /// Heap allocations made inside rounds.
    pub allocations: u64,
}

#[derive(Debug)]
struct TracedEntry {
    id: VehicleId,
    endpoint: String,
    vehicle: TracedVehicle,
}

/// The benchmark's copy of the single-shard round, with spans.
#[derive(Debug)]
pub struct TracedFederation {
    server: TrustedServer,
    hub: SharedHub,
    server_endpoint: String,
    entries: Vec<TracedEntry>,
    ids: Vec<VehicleId>,
    handles: Vec<VehicleHandles>,
    by_id: HashMap<VehicleId, usize>,
    by_endpoint: HashMap<String, usize>,
    uplink_scratch: Vec<(EndpointName, Payload)>,
    offline_scratch: Vec<VehicleId>,
    clock: Clock,
    counters: RoundCounters,
}

impl TracedFederation {
    /// Counts accumulated since the last [`TracedFederation::reset_counters`].
    pub fn counters(&self) -> RoundCounters {
        self.counters
    }

    /// Zeroes the round counters.
    pub fn reset_counters(&mut self) {
        self.counters = RoundCounters::default();
    }

    fn round(&mut self) -> Result<()> {
        let now = self.clock.step();
        let TracedFederation {
            server,
            hub,
            server_endpoint,
            entries,
            by_id,
            by_endpoint,
            uplink_scratch,
            offline_scratch,
            counters,
            ..
        } = self;

        {
            let _span = trace::span(Layer::ServerTick);
            // Escalations are counted by the ledger; the shipped round only
            // copies them into its own fleet statistics.
            drop(server.tick(now));
        }

        let mut offline = std::mem::take(offline_scratch);
        {
            let mut hub = hub.lock();
            let visits = {
                let _span = trace::span(Layer::ServerPoll);
                server.poll_downlink_dirty(|vehicle, payload| {
                    let Some(&index) = by_id.get(vehicle) else {
                        return;
                    };
                    let _span = trace::span(Layer::FesSend);
                    if hub
                        .send(server_endpoint.as_str(), &entries[index].endpoint, payload)
                        .is_err()
                    {
                        offline.push(vehicle.clone());
                    }
                })
            };
            counters.poll_visits += visits;
            for vehicle in offline.drain(..) {
                let _span = trace::span(Layer::ServerMarkOffline);
                counters.mark_offline_calls += 1;
                server.mark_offline(&vehicle);
            }
            if trace::enabled() {
                counters.in_flight_max = counters.in_flight_max.max(hub.stats().in_flight);
            }
            {
                let _span = trace::span(Layer::FesStep);
                hub.step(now);
            }
            for endpoint in hub.take_dropped_destinations() {
                if hub.is_registered(endpoint.as_ref()) {
                    continue;
                }
                if let Some(&index) = by_endpoint.get(endpoint.as_ref()) {
                    let _span = trace::span(Layer::ServerMarkOffline);
                    counters.mark_offline_calls += 1;
                    server.mark_offline(&entries[index].id);
                }
            }
        }
        *offline_scratch = offline;

        for entry in entries.iter_mut() {
            entry.vehicle.step()?;
        }

        let mut uplinks = std::mem::take(uplink_scratch);
        {
            let _span = trace::span(Layer::FesDrain);
            hub.lock().drain_into(server_endpoint, &mut uplinks);
        }
        for (from, payload) in uplinks.drain(..) {
            if let Some(&index) = by_endpoint.get(from.as_ref()) {
                let _span = trace::span(Layer::ServerUplink);
                if server.process_uplink(&entries[index].id, &payload).is_err() {
                    counters.uplink_errors += 1;
                }
            }
        }
        *uplink_scratch = uplinks;

        let _span = trace::span(Layer::ServerCampaigns);
        counters.campaign_events += server.step_campaigns().len() as u64;
        Ok(())
    }
}

impl Federation for TracedFederation {
    fn step(&mut self) -> Result<()> {
        let tracing = trace::enabled();
        let result = {
            let _span = trace::span(Layer::Round);
            if tracing {
                CountingAllocator::reset();
                CountingAllocator::enable();
            }
            let result = self.round();
            if tracing {
                CountingAllocator::disable();
                self.counters.allocations += CountingAllocator::allocations();
            }
            result
        };
        self.counters.rounds += 1;
        result
    }

    fn server(&self) -> &TrustedServer {
        &self.server
    }

    fn server_mut(&mut self) -> &mut TrustedServer {
        &mut self.server
    }

    fn now(&self) -> u64 {
        self.clock.now().as_u64()
    }

    fn ids(&self) -> &[VehicleId] {
        &self.ids
    }

    fn handles(&self) -> &[VehicleHandles] {
        &self.handles
    }

    fn ecus(&self, vehicle: usize) -> &[Ecu] {
        &self.entries[vehicle].vehicle.ecus
    }

    fn ecu_mut(&mut self, vehicle: usize, ecu: EcuId) -> &mut Ecu {
        self.entries[vehicle]
            .vehicle
            .ecus
            .iter_mut()
            .find(|candidate| candidate.id() == ecu)
            .expect("registered ECU")
    }

    fn bus_stats(&self, vehicle: usize) -> BusStats {
        self.entries[vehicle].vehicle.bus.stats()
    }

    fn transport_stats(&self) -> TransportStats {
        self.hub.lock().stats()
    }
}

/// The comstack layer of one message: the sensor signal, or management
/// traffic (installation packages, acknowledgements) to and from the
/// workers.
fn comstack_layer(frame: CanId) -> Layer {
    if frame.raw() == SENSOR_FRAME {
        Layer::Comstack
    } else {
        Layer::ComstackMgmt
    }
}

/// The benchmark's copy of `dynar_sim::world::Vehicle`, with spans.
#[derive(Debug)]
struct TracedVehicle {
    ecus: Vec<Ecu>,
    bus: Bus,
    segmenter: Segmenter,
    reassemblers: Vec<Reassembler>,
    outbound_scratch: Vec<(CanId, Value)>,
    frames_scratch: Vec<Frame>,
    clock: Clock,
}

impl TracedVehicle {
    /// Attaches every ECU to a fresh bus and opens every acceptance filter
    /// for `frames`, like `Vehicle::new` + `open_acceptance_filters`.
    fn new(ecus: Vec<Ecu>, config: BusConfig, frames: &[CanId]) -> Self {
        let mut bus = Bus::new(config);
        for ecu in &ecus {
            bus.attach(ecu.id());
        }
        for ecu in &ecus {
            for frame in frames {
                bus.subscribe(ecu.id(), *frame);
            }
        }
        let reassemblers = ecus.iter().map(|_| Reassembler::new()).collect();
        TracedVehicle {
            ecus,
            bus,
            segmenter: Segmenter::new(),
            reassemblers,
            outbound_scratch: Vec::new(),
            frames_scratch: Vec::new(),
            clock: Clock::new(),
        }
    }

    fn step(&mut self) -> Result<()> {
        let _span = trace::span(Layer::VehicleStep);
        let now = self.clock.step();

        for index in 0..self.ecus.len() {
            let sender = self.ecus[index].id();
            self.ecus[index].drain_outbound_into(&mut self.outbound_scratch);
            for (frame_id, value) in self.outbound_scratch.drain(..) {
                let _span = trace::span(comstack_layer(frame_id));
                let payload = codec::encode_value(&value);
                for frame in self.segmenter.segment(frame_id, &payload)? {
                    self.bus.send(sender, frame, now)?;
                }
            }
        }

        {
            let _span = trace::span(Layer::BusStep);
            self.bus.step(now);
        }

        for index in 0..self.ecus.len() {
            let receiver = self.ecus[index].id();
            self.bus.receive_into(receiver, &mut self.frames_scratch);
            let reassembler = &mut self.reassemblers[index];
            for frame in self.frames_scratch.drain(..) {
                let decoded = {
                    let _span = trace::span(comstack_layer(frame.id()));
                    match reassembler.accept(&frame) {
                        Ok(Some((frame_id, payload))) => codec::decode_value(&payload)
                            .ok()
                            .map(|value| (frame_id, value)),
                        _ => None,
                    }
                };
                if let Some((frame_id, value)) = decoded {
                    self.ecus[index].deliver_inbound(frame_id, value);
                }
            }
        }

        for (index, ecu) in self.ecus.iter_mut().enumerate() {
            let _span = trace::span(if index == 0 {
                Layer::EcuEcm
            } else {
                Layer::EcuWorker
            });
            ecu.step()?;
        }
        Ok(())
    }
}

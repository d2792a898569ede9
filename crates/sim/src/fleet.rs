//! The fleet scheduler: many vehicles driven through one trusted server in
//! batched simulation rounds.
//!
//! [`Fleet`] couples N [`Vehicle`]s to one shared [`TrustedServer`]: external
//! transport hubs carrying each vehicle's ECM endpoint, per-vehicle clocks
//! (each [`Vehicle`] keeps its own), and a batched round that moves every
//! vehicle one tick forward per [`Fleet::step`].  The Figure 3 demonstrator
//! is a one-vehicle fleet over a hub it shares with the phone
//! ([`Fleet::with_hub`]).
//!
//! Deployments can be staged in **install waves** ([`Fleet::deploy_wave`],
//! [`Fleet::install_in_waves`]) so reconfiguration load is spread over the
//! fleet instead of arriving everywhere at once.
//!
//! # Vehicle lanes
//!
//! A **lane** is one transport hub plus the vehicles whose ECMs are
//! registered on it; the server endpoint is registered on every lane hub.
//! A [`Fleet::new`] fleet has [`LANES`] lanes, and a vehicle's lane follows
//! from its VIN hash alone, so [`Fleet::hub_for`] answers before the vehicle
//! is added.  A vehicle's ECM locks only its own lane's hub, so lanes share
//! nothing while the vehicles step, and the vehicle phase of a round runs
//! the lanes on a [`LanePool`]: up to `min(cores, LANES)` threads, the
//! caller included, claiming lanes as they go.  A round of fewer than
//! [`POOLED_MIN_VEHICLES`] vehicles steps its lanes inline.  A
//! [`Fleet::with_hub`] fleet has a single lane on the shared hub.
//!
//! # The round
//!
//! One function, `step_round`, holds the transport phases of the Figure 2
//! loop: drain the server's dirty downlinks, send each to its vehicle's lane
//! hub and park the vehicles whose send failed; step every lane hub, park
//! the vehicles whose endpoint vanished (dropped-destination feedback), step
//! the vehicles (a caller-supplied callback), then drain each lane hub's
//! server mailbox in lane order and hand each uplink to the server.  It
//! routes through each lane's `EndpointTable` (vehicle id ↔ ECM endpoint),
//! takes the server as `&mut TrustedServer`, and has three callers:
//!
//! * [`Fleet::step`]: the server's reliability sweep
//!   ([`TrustedServer::tick`]), the round over every lane, the end of the
//!   round ([`TrustedServer::end_round`], which compacts the journal when it
//!   is due), then the campaign gates.  The effects and the statistics are
//!   the same at every lane layout, the journal replays to the same state,
//!   and a round allocates nothing when the fleet is quiet, whether its
//!   lanes run inline or on the pool (`tests/alloc_regression.rs`).
//! * The actor server ([`crate::actors`]), with a no-op vehicle step: its
//!   vehicles run on their own threads.
//! * [`crate::scenario::remote_car`], the Figure 3 demonstrator, through a
//!   one-vehicle [`Fleet`].
//!
//! Downlinks are drained through the server's **dirty set**
//! ([`TrustedServer::poll_downlink_dirty`]): a management-quiescent tick
//! visits zero vehicles instead of polling all N.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use dynar_ecm::gateway::SharedHub;
use dynar_fes::transport::{
    EndpointName, LinkFault, Transport, TransportConfig, TransportHub, TransportStats,
};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, PluginId, UserId, VehicleId};
use dynar_foundation::journal::fnv1a;
use dynar_foundation::payload::Payload;
use dynar_foundation::pool::LanePool;
use dynar_foundation::time::{Clock, Tick};
use dynar_server::server::{DeploymentStatus, RetryFailure, TrustedServer};

use crate::world::Vehicle;

/// The vehicle lanes of a [`Fleet::new`] fleet.  A constant, so the layout
/// — which hub a vehicle's ECM registers on, and with it the order in which
/// the server processes uplinks and journals them — is the same on every
/// machine.
pub const LANES: usize = 8;

/// The smallest fleet whose rounds hand their lanes to the lane pool.  A
/// smaller round steps its lanes inline: at that size the hand-off (waking
/// a worker, moving lanes between cores) costs more than the second core
/// saves.  Either way the round's results are the same.
///
/// The value is the measured crossover.  Quiet rounds of `FleetScenario`
/// fleets with telemetry installed were timed pooled against inline, in
/// interleaved blocks, on a 2-vCPU VM (four sweeps).  A pooled round took
/// 1.39–2.08 times as long as an inline one at 8 vehicles, 1.07–1.45 times
/// at 16–44 and 0.82–1.46 times at 48–56.  From 64 vehicles on, pooling won
/// every sweep: 0.70–0.97 times at 64, 0.50–0.62 times at 96–128.
pub const POOLED_MIN_VEHICLES: usize = 64;

/// Upper bound on the escalated-failure events [`FleetStats`] retains.  The
/// counter keeps counting past the cap; only the per-event detail is bounded,
/// so a pathological run cannot grow the stats without limit.
pub const MAX_FAILURE_EVENTS: usize = 64;

/// One escalated operation, as retained by [`FleetStats::failure_events`]:
/// which vehicle/app/plug-in exhausted its budget and why.  Campaign health
/// gates and tests can assert *which* operation failed instead of settling
/// for a count.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RetryFailureEvent {
    /// The vehicle whose link gave up.
    pub vehicle: VehicleId,
    /// The application the abandoned package belonged to.
    pub app: AppId,
    /// The plug-in the abandoned package addressed.
    pub plugin: PluginId,
    /// Display form of the typed escalation reason.
    pub error: String,
}

impl From<RetryFailure> for RetryFailureEvent {
    fn from(failure: RetryFailure) -> Self {
        RetryFailureEvent {
            vehicle: failure.vehicle,
            app: failure.app,
            plugin: failure.plugin,
            error: failure.error.to_string(),
        }
    }
}

/// Counters describing federation activity, kept by [`Fleet`] and by the
/// actor server ([`crate::actors::ActorFederation::stats`]) alike.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Batched rounds executed so far.
    pub ticks: u64,
    /// Downlink payloads pushed from the server into vehicle ECM endpoints
    /// (retransmissions included).
    pub downlink_messages: u64,
    /// Uplink payloads the server received back from vehicles.
    pub uplink_messages: u64,
    /// Uplink payloads rejected: those the server refused (undecodable, or
    /// inconsistent with its state) and those sent from an endpoint no
    /// vehicle owns.  Counted on every path, never silently dropped.
    pub rejected_uplinks: u64,
    /// Operations the server's reliability plane escalated after exhausting
    /// their retransmission budget.
    pub retry_failures: u64,
    /// Events the campaign gates emitted (wave advances, pauses, aborts,
    /// completions).
    pub campaign_events: u64,
    /// Vehicles visited by the dirty-set downlink sweep.  A management-
    /// quiescent tick visits none — the sweep is O(active vehicles), not
    /// O(fleet size) — which `tests/alloc_regression.rs` pins down.
    pub downlink_polls: u64,
    /// The first [`MAX_FAILURE_EVENTS`] escalated failures, each carrying
    /// which (vehicle, app, plug-in) exhausted its budget.  Every batch is
    /// sorted before it is appended: a round's escalation *set* is
    /// deterministic but its sweep order is not (the server's vehicle table
    /// is a hash map), so sorting keeps the event list — and therefore
    /// [`FleetStats`] equality — identical from run to run.
    pub failure_events: Vec<RetryFailureEvent>,
}

impl FleetStats {
    /// Counts a batch of escalated failures and retains their details up to
    /// [`MAX_FAILURE_EVENTS`].
    pub(crate) fn record_failures(&mut self, batch: Vec<RetryFailure>) {
        if batch.is_empty() {
            return;
        }
        self.retry_failures += batch.len() as u64;
        let mut events: Vec<RetryFailureEvent> =
            batch.into_iter().map(RetryFailureEvent::from).collect();
        events.sort();
        let room = MAX_FAILURE_EVENTS.saturating_sub(self.failure_events.len());
        events.truncate(room);
        self.failure_events.append(&mut events);
    }

    /// Adds one round's counts.
    pub(crate) fn add_round(&mut self, counts: RoundCounts) {
        self.downlink_messages += counts.downlink_messages;
        self.uplink_messages += counts.uplink_messages;
        self.rejected_uplinks += counts.rejected_uplinks;
        self.downlink_polls += counts.downlink_polls;
    }
}

/// The vehicle id ↔ ECM endpoint table a round routes through.  Row `i`
/// pairs one vehicle with its endpoint; both directions are indexed, so a
/// downlink finds its endpoint and an uplink its sender in O(1).  Rows are
/// swap-removed, so a caller keeping per-vehicle data in a row-aligned `Vec`
/// swap-removes at the same index.
#[derive(Debug, Default)]
pub(crate) struct EndpointTable {
    rows: Vec<(VehicleId, String)>,
    by_id: HashMap<VehicleId, usize>,
    by_endpoint: HashMap<String, usize>,
}

impl EndpointTable {
    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the id or the endpoint is taken.
    pub(crate) fn insert(&mut self, id: VehicleId, endpoint: String) -> Result<()> {
        if self.by_id.contains_key(&id) {
            return Err(DynarError::duplicate("fleet vehicle", id));
        }
        if self.by_endpoint.contains_key(&endpoint) {
            return Err(DynarError::duplicate("fleet endpoint", endpoint));
        }
        let row = self.rows.len();
        self.by_id.insert(id.clone(), row);
        self.by_endpoint.insert(endpoint.clone(), row);
        self.rows.push((id, endpoint));
        Ok(())
    }

    /// Swap-removes the row of `id`, returning its index and endpoint.
    pub(crate) fn swap_remove(&mut self, id: &VehicleId) -> Option<(usize, String)> {
        let row = self.by_id.remove(id)?;
        let (_, endpoint) = self.rows.swap_remove(row);
        self.by_endpoint.remove(&endpoint);
        if let Some((moved_id, moved_endpoint)) = self.rows.get(row) {
            self.by_id.insert(moved_id.clone(), row);
            self.by_endpoint.insert(moved_endpoint.clone(), row);
        }
        Some((row, endpoint))
    }

    /// The row of a vehicle.
    pub(crate) fn row_of(&self, id: &VehicleId) -> Option<usize> {
        self.by_id.get(id).copied()
    }

    /// The vehicle id of a row.
    pub(crate) fn id(&self, row: usize) -> &VehicleId {
        &self.rows[row].0
    }

    /// The endpoint of a vehicle.
    pub(crate) fn endpoint_of(&self, id: &VehicleId) -> Option<&str> {
        self.row_of(id).map(|row| self.rows[row].1.as_str())
    }

    /// The vehicle owning an endpoint.
    pub(crate) fn vehicle_at(&self, endpoint: &str) -> Option<&VehicleId> {
        self.by_endpoint.get(endpoint).map(|&row| &self.rows[row].0)
    }
}

/// Buffers a round reuses from one call to the next, so a quiet round
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    /// Drain buffer for the server endpoint's mailbox.
    uplinks: Vec<(EndpointName, Payload)>,
    /// Vehicles whose downlink send failed (parked once the sweep is done).
    offline: Vec<VehicleId>,
}

/// What one round counted.
#[derive(Debug, Default)]
pub(crate) struct RoundCounts {
    downlink_messages: u64,
    uplink_messages: u64,
    rejected_uplinks: u64,
    downlink_polls: u64,
}

/// The routing half of a vehicle lane: its transport hub and the table of
/// the vehicles whose ECMs are registered on it.
#[derive(Debug)]
pub(crate) struct LaneRoute {
    pub(crate) hub: SharedHub,
    pub(crate) table: EndpointTable,
}

impl LaneRoute {
    /// A lane on `hub` with no vehicles yet.
    pub(crate) fn new(hub: SharedHub) -> Self {
        LaneRoute {
            hub,
            table: EndpointTable::default(),
        }
    }
}

/// The lane of a vehicle among `lanes`, by FNV-1a hash of its VIN: known
/// before the vehicle is added, and the same on every machine.
fn lane_index(id: &VehicleId, lanes: usize) -> usize {
    if lanes <= 1 {
        0
    } else {
        fnv1a(id.vin().as_bytes()) as usize % lanes
    }
}

/// The vehicle half of a lane, in table-row order: what a lane's thread
/// steps, and the step errors it hands back by row.
#[derive(Debug, Default)]
struct LaneVehicles {
    vehicles: Vec<Vehicle>,
    failures: Vec<(usize, DynarError)>,
}

impl LaneVehicles {
    /// Steps every vehicle of the lane; a failing vehicle does not stop the
    /// others.
    fn step(&mut self) {
        for (row, vehicle) in self.vehicles.iter_mut().enumerate() {
            if let Err(error) = vehicle.step() {
                self.failures.push((row, error));
            }
        }
    }
}

/// A fleet of vehicles federated through one trusted server.
#[derive(Debug)]
pub struct Fleet {
    /// The shared trusted server.
    pub server: TrustedServer,
    /// Every lane hub, in lane order (each carries the server endpoint plus
    /// the ECM endpoints of its lane's vehicles).
    hubs: Vec<SharedHub>,
    server_endpoint: String,
    /// The routing half of every lane: `routes[i]` routes the vehicles of
    /// `lanes[i]`.
    routes: Vec<LaneRoute>,
    lanes: Vec<LaneVehicles>,
    scratch: RoundScratch,
    /// Vehicle ids in registration order (what [`Fleet::vehicle_ids`]
    /// borrows, so callers do not clone the whole fleet's ids per call).
    ids: Vec<VehicleId>,
    /// Position of each vehicle in `ids` (kept in sync across swap-removes).
    ids_at: HashMap<VehicleId, usize>,
    /// The lane pool of a multi-lane fleet, started by the first round with
    /// at least [`POOLED_MIN_VEHICLES`] vehicles.
    lane_pool: Option<LanePool<LaneVehicles>>,
    /// Rounds whose vehicle phase ran on the lane pool.
    pooled_rounds: u64,
    clock: Clock,
    stats: FleetStats,
}

impl Fleet {
    /// Creates a fleet around a trusted server, with [`LANES`] fresh lane
    /// hubs built from `transport`.  Per-link fault and jitter streams are
    /// keyed by endpoint *names* (not hub identity), so the same seed
    /// produces the same per-link behaviour at any lane layout.
    pub fn new(
        server: TrustedServer,
        server_endpoint: impl Into<String>,
        transport: TransportConfig,
    ) -> Self {
        let server_endpoint = server_endpoint.into();
        let hubs: Vec<SharedHub> = (0..LANES)
            .map(|_| {
                let mut hub = TransportHub::new(transport.clone());
                hub.register(&server_endpoint);
                let shared: SharedHub = Arc::new(Mutex::new(hub));
                shared
            })
            .collect();
        Self::assemble(server, server_endpoint, hubs)
    }

    /// Creates a single-lane fleet sharing an existing transport hub (the
    /// same hub handed to every vehicle's ECM and to external devices).
    pub fn with_hub(
        server: TrustedServer,
        server_endpoint: impl Into<String>,
        hub: SharedHub,
    ) -> Self {
        let server_endpoint = server_endpoint.into();
        hub.lock().register(&server_endpoint);
        Self::assemble(server, server_endpoint, vec![hub])
    }

    /// Builds the fleet over `hubs`, one lane per hub.
    fn assemble(server: TrustedServer, server_endpoint: String, hubs: Vec<SharedHub>) -> Self {
        Fleet {
            server,
            routes: (hubs.iter())
                .map(|hub| LaneRoute::new(Arc::clone(hub)))
                .collect(),
            lanes: hubs.iter().map(|_| LaneVehicles::default()).collect(),
            hubs,
            server_endpoint,
            scratch: RoundScratch::default(),
            ids: Vec::new(),
            ids_at: HashMap::new(),
            lane_pool: None,
            pooled_rounds: 0,
            clock: Clock::new(),
            stats: FleetStats::default(),
        }
    }

    /// The lane of a vehicle, in the fleet or not.
    fn lane_of(&self, id: &VehicleId) -> usize {
        lane_index(id, self.routes.len())
    }

    /// The routing half of a vehicle's lane.
    fn route_of(&self, id: &VehicleId) -> &LaneRoute {
        &self.routes[self.lane_of(id)]
    }

    /// `(lane, row)` coordinates of a vehicle, if it is in the fleet.
    fn slot_of(&self, id: &VehicleId) -> Option<(usize, usize)> {
        let lane = self.lane_of(id);
        Some((lane, self.routes[lane].table.row_of(id)?))
    }

    /// The transport hub a vehicle's ECM must register on — its lane's hub,
    /// determined by the vehicle id, so it can be asked *before* the vehicle
    /// is built or added.
    pub fn hub_for(&self, id: &VehicleId) -> SharedHub {
        Arc::clone(&self.route_of(id).hub)
    }

    /// Every lane hub, in lane order.
    pub fn hubs(&self) -> &[SharedHub] {
        &self.hubs
    }

    /// Transport statistics aggregated over every hub.  Conservation holds
    /// per hub, so it holds for the sums too.
    pub fn transport_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for hub in &self.hubs {
            let stats = hub.lock().stats();
            total.sent += stats.sent;
            total.delivered += stats.delivered;
            total.lost += stats.lost;
            total.dropped += stats.dropped;
            total.in_flight += stats.in_flight;
        }
        total
    }

    /// Installs a fault model on the directed link `from` → `to` of every
    /// hub.  Faults are keyed by endpoint names, so the entry is inert
    /// on hubs that never carry that pair.
    ///
    /// # Panics
    ///
    /// Panics if a hub backend does not support fault injection — induced
    /// faults are a capability of the deterministic hub, not of wire
    /// transports.
    pub fn set_link_fault(&self, from: &str, to: &str, fault: LinkFault) {
        for hub in &self.hubs {
            hub.lock()
                .fault_injection()
                .expect("fleet transport backend supports fault injection")
                .set_link_fault(from, to, fault.clone());
        }
    }

    /// Partitions `a` ↔ `b` until `heal_at` on every hub (inert where the
    /// pair never communicates).
    ///
    /// # Panics
    ///
    /// Panics if a hub backend does not support fault injection.
    pub fn partition(&self, a: &str, b: &str, heal_at: Tick) {
        for hub in &self.hubs {
            hub.lock()
                .fault_injection()
                .expect("fleet transport backend supports fault injection")
                .partition(a, b, heal_at);
        }
    }

    /// Unregisters an endpoint from whichever hub carries it.  Returns
    /// `true` if any hub knew the endpoint.
    pub fn unregister_endpoint(&self, endpoint: &str) -> bool {
        let mut found = false;
        for hub in &self.hubs {
            found |= hub.lock().unregister(endpoint);
        }
        found
    }

    /// Returns `true` if any hub currently carries `endpoint`.
    pub fn endpoint_registered(&self, endpoint: &str) -> bool {
        self.hubs
            .iter()
            .any(|hub| hub.lock().is_registered(endpoint))
    }

    /// Adds a wired vehicle under its server-side id and ECM transport
    /// endpoint.  The vehicle's ECM must have registered on the hub of the
    /// vehicle's lane ([`Fleet::hub_for`]).  Joining a running fleet is
    /// safe: the hub's slot generations guarantee that traffic in flight
    /// towards a previous tenant of a reused slot is dropped, never delivered
    /// to the newcomer.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the id or endpoint is taken.
    pub fn add_vehicle(
        &mut self,
        id: VehicleId,
        ecm_endpoint: impl Into<String>,
        vehicle: Vehicle,
    ) -> Result<()> {
        let endpoint = ecm_endpoint.into();
        if self.ids_at.contains_key(&id) {
            return Err(DynarError::duplicate("fleet vehicle", id));
        }
        if (self.routes.iter()).any(|route| route.table.vehicle_at(&endpoint).is_some()) {
            return Err(DynarError::duplicate("fleet endpoint", endpoint));
        }
        let lane = self.lane_of(&id);
        self.routes[lane].table.insert(id.clone(), endpoint)?;
        self.lanes[lane].vehicles.push(vehicle);
        self.ids_at.insert(id.clone(), self.ids.len());
        self.ids.push(id);
        Ok(())
    }

    /// Removes a vehicle for good: its endpoint is unregistered from its
    /// lane's hub (voiding traffic still in flight towards it) and the
    /// server fails every outstanding operation fast with
    /// [`dynar_foundation::error::DynarError::VehicleUnreachable`].  Returns
    /// the detached [`Vehicle`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles.
    pub fn remove_vehicle(&mut self, id: &VehicleId) -> Result<Vehicle> {
        let lane = self.lane_of(id);
        let route = &mut self.routes[lane];
        let (row, endpoint) = route
            .table
            .swap_remove(id)
            .ok_or_else(|| DynarError::not_found("fleet vehicle", id))?;
        let vehicle = self.lanes[lane].vehicles.swap_remove(row);
        route.hub.lock().unregister(&endpoint);
        // Same swap-remove for the registration-order list.
        let at = self
            .ids_at
            .remove(id)
            .expect("ids index mirrors the lane tables");
        self.ids.swap_remove(at);
        if at < self.ids.len() {
            self.ids_at.insert(self.ids[at].clone(), at);
        }
        self.stats.record_failures(self.server.mark_unreachable(id));
        Ok(vehicle)
    }

    /// Swaps in a freshly built incarnation of a vehicle (same id, same
    /// endpoint) — the mechanical half of a reboot.  The caller is expected
    /// to have unregistered the old endpoint *before* building the new
    /// vehicle (so in-flight traffic towards the dead incarnation is voided
    /// by the hub's slot generations) and to have given the new ECM the next
    /// boot epoch.  Returns the old incarnation.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles.
    pub fn replace_vehicle(&mut self, id: &VehicleId, vehicle: Vehicle) -> Result<Vehicle> {
        let slot = self
            .vehicle_mut(id)
            .ok_or_else(|| DynarError::not_found("fleet vehicle", id))?;
        Ok(std::mem::replace(slot, vehicle))
    }

    /// Number of vehicles in the fleet.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the fleet has no vehicles.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids of every vehicle, in registration order — borrowed from the
    /// fleet's cached list (callers that need ownership clone explicitly).
    pub fn vehicle_ids(&self) -> &[VehicleId] {
        &self.ids
    }

    /// Read access to a vehicle by id.
    pub fn vehicle(&self, id: &VehicleId) -> Option<&Vehicle> {
        self.slot_of(id)
            .map(|(lane, row)| &self.lanes[lane].vehicles[row])
    }

    /// The ECM transport endpoint of a vehicle.
    pub fn endpoint_of(&self, id: &VehicleId) -> Option<&str> {
        self.route_of(id).table.endpoint_of(id)
    }

    /// The trusted server's transport endpoint.
    pub fn server_endpoint(&self) -> &str {
        &self.server_endpoint
    }

    /// Mutable access to a vehicle by id.
    pub fn vehicle_mut(&mut self, id: &VehicleId) -> Option<&mut Vehicle> {
        self.slot_of(id)
            .map(|(lane, row)| &mut self.lanes[lane].vehicles[row])
    }

    /// Current simulated fleet time.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Fleet-level activity counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Rounds whose vehicle phase ran its lanes on the lane pool rather
    /// than inline.  A diagnostic of the execution strategy, which depends
    /// on the fleet's size and layout and changes nothing the round does —
    /// so it is not part of [`FleetStats`].
    pub fn pooled_rounds(&self) -> u64 {
        self.pooled_rounds
    }

    /// Advances the whole fleet by one batched round: server downlinks reach
    /// every vehicle's ECM endpoint, the transport delivers, every vehicle
    /// runs one tick, uplink acknowledgements flow back into the server and
    /// the campaign gates run.  A large enough multi-lane fleet steps its
    /// lanes in parallel; the effects and the statistics are the same at
    /// every lane layout, and the journal replays to the same state.
    ///
    /// A vehicle step error does not cut the round short: every vehicle is
    /// stepped and the round runs to the end before the error is returned.
    ///
    /// # Errors
    ///
    /// Returns the step error of the lowest vehicle id that failed.
    pub fn step(&mut self) -> Result<()> {
        let now = self.clock.step();
        let failures = self.server.tick(now);
        let pooled = self.lanes.len() > 1 && self.ids.len() >= POOLED_MIN_VEHICLES;
        let lane_pool = pooled.then(|| {
            &*self.lane_pool.get_or_insert_with(|| {
                let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
                // At least one worker besides the caller, so the hand-off
                // runs (and is tested) on every host.
                LanePool::new(cores.clamp(2, LANES), LANES, LaneVehicles::step)
            })
        });
        self.pooled_rounds += u64::from(pooled);
        let (lanes, routes) = (&mut self.lanes, &self.routes);
        let (counts, failure) = step_round(
            &mut self.server,
            routes,
            &self.server_endpoint,
            &mut self.scratch,
            now,
            || {
                match lane_pool {
                    Some(pool) => pool.run(lanes),
                    None => lanes.iter_mut().for_each(LaneVehicles::step),
                }
                // The lowest failing id, whichever lane and thread it ran on.
                (lanes.iter_mut().zip(routes))
                    .flat_map(|(lane, route)| {
                        (lane.failures.drain(..))
                            .map(|(row, error)| (route.table.id(row).clone(), error))
                    })
                    .min_by(|a, b| a.0.cmp(&b.0))
            },
        );
        self.stats.add_round(counts);
        // One batch per round: `record_failures` sorts it, so the retained
        // events do not depend on the server's sweep order.
        self.stats.record_failures(failures);
        self.server.end_round();
        // Campaign decisions run (and journal) strictly after the round, on
        // the state this round's acknowledgements settled into.
        self.stats.campaign_events += self.server.step_campaigns().len() as u64;
        self.stats.ticks += 1;
        failure.map_or(Ok(()), |(_, error)| Err(error))
    }

    /// Runs [`Fleet::step`] `ticks` times.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    pub fn run(&mut self, ticks: u64) -> Result<()> {
        for _ in 0..ticks {
            self.step()?;
        }
        Ok(())
    }

    /// Deploys `app` to one wave of vehicles (without waiting), returning the
    /// total number of installation packages pushed.
    ///
    /// # Errors
    ///
    /// Propagates the server's deployment rejections.
    pub fn deploy_wave(
        &mut self,
        user: &UserId,
        app: &AppId,
        targets: &[VehicleId],
    ) -> Result<usize> {
        let mut packages = 0;
        for vehicle in targets {
            packages += self.server.deploy(user, vehicle, app)?;
        }
        Ok(packages)
    }

    /// Runs the fleet until `app` reaches `wanted` deployment status on every
    /// target vehicle.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] if the status is not reached
    /// within `max_ticks`, and propagates step errors.
    pub fn await_deployment(
        &mut self,
        app: &AppId,
        targets: &[VehicleId],
        wanted: &DeploymentStatus,
        max_ticks: u64,
    ) -> Result<()> {
        let reached = |fleet: &Fleet| {
            targets
                .iter()
                .all(|v| fleet.server.deployment_status(v, app) == *wanted)
        };
        for _ in 0..max_ticks {
            if reached(self) {
                return Ok(());
            }
            self.step()?;
        }
        // The final step may have been the one that completed the wave.
        if reached(self) {
            return Ok(());
        }
        Err(DynarError::ProtocolViolation(format!(
            "deployment of {app} did not reach {wanted:?} on all {} targets within {max_ticks} ticks",
            targets.len()
        )))
    }

    /// Installs `app` across the whole fleet in staged waves of `wave_size`
    /// vehicles, waiting for each wave to acknowledge before the next starts.
    ///
    /// # Errors
    ///
    /// Propagates deployment rejections and wave timeouts.
    pub fn install_in_waves(
        &mut self,
        user: &UserId,
        app: &AppId,
        wave_size: usize,
        max_ticks_per_wave: u64,
    ) -> Result<()> {
        let wave_size = wave_size.max(1);
        let mut start = 0;
        while start < self.ids.len() {
            let end = (start + wave_size).min(self.ids.len());
            // One small clone per wave: stepping the fleet needs `&mut self`
            // while the wave is awaited.
            let wave: Vec<VehicleId> = self.ids[start..end].to_vec();
            self.deploy_wave(user, app, &wave)?;
            self.await_deployment(app, &wave, &DeploymentStatus::Installed, max_ticks_per_wave)?;
            start = end;
        }
        Ok(())
    }

    /// Uninstalls `app` from the given vehicles in staged waves.
    ///
    /// # Errors
    ///
    /// Propagates rejections and wave timeouts.
    pub fn uninstall_in_waves(
        &mut self,
        user: &UserId,
        app: &AppId,
        targets: &[VehicleId],
        wave_size: usize,
        max_ticks_per_wave: u64,
    ) -> Result<()> {
        for wave in targets.chunks(wave_size.max(1)) {
            for vehicle in wave {
                self.server.uninstall(user, vehicle, app)?;
            }
            self.await_deployment(
                app,
                wave,
                &DeploymentStatus::NotInstalled,
                max_ticks_per_wave,
            )?;
        }
        Ok(())
    }
}

/// One federation round — the one implementation of the Figure 2 loop's
/// transport phases — between `server` and every lane (`routes`, in lane
/// order).  The downlinks the server's dirty set holds are sent to their
/// vehicles' endpoints on their lanes' hubs and a vehicle whose send fails
/// is parked.  Then every lane hub steps, and a vehicle whose endpoint
/// vanished with traffic in flight is parked too.  Then `step_vehicles`
/// runs, and finally each lane hub's server mailbox is drained, in lane
/// order, and every uplink processed, the sender found through the lane's
/// table; an uplink from an endpoint no vehicle owns is counted as
/// rejected.
///
/// Per vehicle, the order of the server's calls (and of its journal
/// records) is the same whichever caller runs the round and however the
/// vehicles are split into lanes.  The reliability sweep ([`TrustedServer::tick`]) is the caller's,
/// as are [`TrustedServer::end_round`] and the campaign gates.
pub(crate) fn step_round<R>(
    server: &mut TrustedServer,
    routes: &[LaneRoute],
    server_endpoint: &str,
    scratch: &mut RoundScratch,
    now: Tick,
    step_vehicles: impl FnOnce() -> R,
) -> (RoundCounts, R) {
    let mut counts = RoundCounts::default();
    {
        // Every lane hub stays locked across the downlink drain and the hub
        // steps; vehicles lock only their own lane's hub, and only in the
        // vehicle phase.
        assert!(routes.len() <= LANES, "a fleet has at most LANES lanes");
        let mut hubs: [Option<MutexGuard<'_, dyn Transport>>; LANES] =
            std::array::from_fn(|lane| routes.get(lane).map(|route| route.hub.lock()));
        let offline = &mut scratch.offline;
        counts.downlink_polls += server.poll_downlink_dirty(|vehicle, payload| {
            counts.downlink_messages += 1;
            let lane = lane_index(vehicle, routes.len());
            let Some(endpoint) = routes[lane].table.endpoint_of(vehicle) else {
                return;
            };
            let hub = hubs[lane].as_mut().expect("every lane hub is locked");
            if hub.send(server_endpoint, endpoint, payload).is_err() {
                offline.push(vehicle.clone());
            }
        });
        for vehicle in offline.drain(..) {
            server.mark_offline(&vehicle);
        }
        for (hub, LaneRoute { table, .. }) in hubs.iter_mut().flatten().zip(routes) {
            hub.step(now);
            for endpoint in hub.take_dropped_destinations() {
                // A drop towards a *currently registered* endpoint is stale
                // traffic from before a reboot (the slot generation voided
                // it) — the new incarnation's link is alive, so parking the
                // vehicle would strand it.  Only an endpoint that is really
                // gone parks its vehicle.
                if hub.is_registered(endpoint.as_ref()) {
                    continue;
                }
                if let Some(vehicle) = table.vehicle_at(endpoint.as_ref()) {
                    server.mark_offline(vehicle);
                }
            }
        }
    }

    let stepped = step_vehicles();

    let uplinks = &mut scratch.uplinks;
    for LaneRoute { hub, table } in routes {
        debug_assert!(uplinks.is_empty());
        hub.lock().drain_into(server_endpoint, uplinks);
        for (from, payload) in uplinks.drain(..) {
            let Some(vehicle) = table.vehicle_at(from.as_ref()) else {
                counts.rejected_uplinks += 1;
                continue;
            };
            counts.uplink_messages += 1;
            if server.process_uplink(vehicle, &payload).is_err() {
                counts.rejected_uplinks += 1;
            }
        }
    }
    (counts, stepped)
}

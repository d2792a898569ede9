//! The fleet scheduler: many vehicles driven through one trusted server in
//! batched simulation rounds.
//!
//! [`crate::world::World`] couples exactly one [`Vehicle`] to the server —
//! enough for the paper's demonstrators, useless for federated-scale
//! questions ("what happens when an install wave hits 50 vehicles whose
//! signal chains are live?").  [`Fleet`] lifts the same pusher/uplink loop to
//! N vehicles: one shared [`TrustedServer`], an external transport hub with a
//! per-vehicle ECM endpoint, per-vehicle clocks (each [`Vehicle`] keeps its
//! own), and a batched round that moves every vehicle one tick forward per
//! [`Fleet::step`].
//!
//! Deployments can be staged in **install waves** ([`Fleet::deploy_wave`],
//! [`Fleet::install_in_waves`]) so reconfiguration load is spread over the
//! fleet instead of arriving everywhere at once.
//!
//! # Sharded parallel rounds
//!
//! The fleet is partitioned exactly like its server: each vehicle hashes to
//! the server shard given by [`TrustedServer::shard_index`], and the fleet
//! keeps one [`FleetShard`] — entries, endpoint indexes, scratch buffers —
//! plus one **private transport hub** per server shard, so parallel workers
//! never serialize on a single hub lock.  With more than one shard,
//! [`Fleet::step`] fans the per-vehicle phase (reliability tick, downlink
//! push, transport step, vehicle step, uplink processing) out over a fixed
//! [`ThreadPool`] via [`dynar_server::server::ShardHandle`]s; the journal
//! records each shard buffered are then merged in deterministic shard order
//! ([`TrustedServer::merge_shard_journals`]), so a journaled parallel run
//! replays byte-identically.  A single-shard fleet takes a dedicated serial
//! path that preserves the allocation-free steady state pinned by
//! `tests/alloc_regression.rs`.
//!
//! Both paths drain downlinks through the server's **dirty set**
//! ([`TrustedServer::poll_downlink_dirty`]): a management-quiescent tick
//! visits zero vehicles instead of polling all N.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dynar_ecm::gateway::SharedHub;
use dynar_fes::transport::{
    EndpointName, LinkFault, TransportConfig, TransportHub, TransportStats,
};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, PluginId, UserId, VehicleId};
use dynar_foundation::payload::Payload;
use dynar_foundation::pool::ThreadPool;
use dynar_foundation::time::{Clock, Tick};
use dynar_server::server::{DeploymentStatus, RetryFailure, ShardHandle, TrustedServer};

use crate::world::Vehicle;

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

/// Counters describing fleet-level activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Batched rounds executed so far.
    pub ticks: u64,
    /// Downlink payloads pushed from the server into vehicle ECM endpoints
    /// (retransmissions included).
    pub downlink_messages: u64,
    /// Uplink payloads the server received back from vehicles.
    pub uplink_messages: u64,
    /// Uplink payloads the server rejected (undecodable, or inconsistent
    /// with its state); counted on every path, never silently dropped.
    pub rejected_uplinks: u64,
    /// Operations the server's reliability plane escalated after exhausting
    /// their retransmission budget.
    pub retry_failures: u64,
    /// Vehicles visited by the dirty-set downlink sweep.  A management-
    /// quiescent tick visits none — the sweep is O(active vehicles), not
    /// O(fleet size) — which `tests/alloc_regression.rs` pins down.
    pub downlink_polls: u64,
    /// The first [`MAX_FAILURE_EVENTS`] escalated failures, each carrying
    /// which (vehicle, app, plug-in) exhausted its budget.  Every batch is
    /// sorted before it is appended: a round's escalation *set* is
    /// deterministic but its sweep order is not (per-shard hash maps), so
    /// sorting keeps the event list — and therefore [`FleetStats`] equality
    /// — identical at every shard count.
    pub failure_events: Vec<RetryFailureEvent>,
}

impl FleetStats {
    /// Counts a batch of escalated failures and retains their details up to
    /// [`MAX_FAILURE_EVENTS`].
    fn record_failures(&mut self, batch: Vec<RetryFailure>) {
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
}

#[derive(Debug)]
struct FleetEntry {
    id: VehicleId,
    endpoint: String,
    vehicle: Vehicle,
}

/// The vehicles of one server shard, with the per-shard lookup tables and
/// scratch buffers the shard's worker needs to run its slice of a round
/// without touching any other shard.
#[derive(Debug, Default)]
struct FleetShard {
    entries: Vec<FleetEntry>,
    by_id: HashMap<VehicleId, usize>,
    by_endpoint: HashMap<String, usize>,
    /// Reused drain buffer for this shard's server-endpoint mailbox.
    uplink_scratch: Vec<(EndpointName, Payload)>,
    /// Reused buffer for vehicles whose downlink send failed (parked after
    /// the hub guard is released).
    offline_scratch: Vec<VehicleId>,
}

/// What one shard's worker hands back from its slice of a parallel round.
struct ShardOutcome {
    shard: FleetShard,
    downlink_messages: u64,
    uplink_messages: u64,
    rejected_uplinks: u64,
    downlink_polls: u64,
    retry_failures: Vec<RetryFailure>,
    error: Option<DynarError>,
}

/// A fleet of vehicles federated through one trusted server.
#[derive(Debug)]
pub struct Fleet {
    /// The shared trusted server.
    pub server: TrustedServer,
    /// One transport hub per server shard (each carries the server endpoint
    /// plus the ECM endpoints of that shard's vehicles).
    hubs: Vec<SharedHub>,
    server_endpoint: String,
    shards: Vec<FleetShard>,
    /// Vehicle ids in registration order (what [`Fleet::vehicle_ids`]
    /// borrows, so callers do not clone the whole fleet's ids per call).
    ids: Vec<VehicleId>,
    /// Position of each vehicle in `ids` (kept in sync across swap-removes).
    ids_at: HashMap<VehicleId, usize>,
    /// Fixed worker pool driving parallel rounds; absent for single-shard
    /// fleets, which take the serial path.
    pool: Option<ThreadPool>,
    clock: Clock,
    stats: FleetStats,
}

impl Fleet {
    /// Creates a fleet around a trusted server, with one fresh transport hub
    /// per server shard built from `transport`.  Per-link fault and jitter
    /// streams are keyed by endpoint *names* (not hub identity), so the same
    /// seed produces the same per-link behaviour at any shard count.
    pub fn new(
        server: TrustedServer,
        server_endpoint: impl Into<String>,
        transport: TransportConfig,
    ) -> Self {
        let server_endpoint = server_endpoint.into();
        let hubs: Vec<SharedHub> = (0..server.shard_count())
            .map(|_| {
                let mut hub = TransportHub::new(transport.clone());
                hub.register(&server_endpoint);
                let shared: SharedHub = Arc::new(Mutex::new(hub));
                shared
            })
            .collect();
        Self::assemble(server, server_endpoint, hubs)
    }

    /// Creates a single-shard fleet sharing an existing transport hub (the
    /// same hub handed to every vehicle's ECM and to external devices).
    ///
    /// # Panics
    ///
    /// Panics if `server` has more than one shard — a sharded fleet needs one
    /// hub per shard, which only [`Fleet::new`] can build.
    pub fn with_hub(
        server: TrustedServer,
        server_endpoint: impl Into<String>,
        hub: SharedHub,
    ) -> Self {
        assert_eq!(
            server.shard_count(),
            1,
            "Fleet::with_hub takes a single-shard server; use Fleet::new for sharded fleets"
        );
        let server_endpoint = server_endpoint.into();
        hub.lock().register(&server_endpoint);
        Self::assemble(server, server_endpoint, vec![hub])
    }

    fn assemble(server: TrustedServer, server_endpoint: String, hubs: Vec<SharedHub>) -> Self {
        let shards = (0..hubs.len()).map(|_| FleetShard::default()).collect();
        let pool = (hubs.len() > 1).then(|| {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            // Floor of two workers: even on a single-core host a sharded
            // fleet must cross real thread boundaries, so the Send/locking
            // story is exercised everywhere, not just on big runners.
            ThreadPool::new(hubs.len().min(cores.max(2)))
        });
        Fleet {
            server,
            hubs,
            server_endpoint,
            shards,
            ids: Vec::new(),
            ids_at: HashMap::new(),
            pool,
            clock: Clock::new(),
            stats: FleetStats::default(),
        }
    }

    /// The server shard (and therefore fleet shard and hub) of a vehicle.
    fn shard_index_of(&self, id: &VehicleId) -> usize {
        TrustedServer::shard_index(id, self.shards.len())
    }

    /// `(shard, entry)` coordinates of a vehicle, if it is in the fleet.
    fn slot_of(&self, id: &VehicleId) -> Option<(usize, usize)> {
        let shard = self.shard_index_of(id);
        self.shards[shard]
            .by_id
            .get(id)
            .map(|&entry| (shard, entry))
    }

    /// The transport hub a vehicle's ECM must register on — determined by
    /// the vehicle's shard, so it can be asked *before* the vehicle is built
    /// or added.
    pub fn hub_for(&self, id: &VehicleId) -> SharedHub {
        Arc::clone(&self.hubs[self.shard_index_of(id)])
    }

    /// The per-shard transport hubs, in shard order.
    pub fn hubs(&self) -> &[SharedHub] {
        &self.hubs
    }

    /// Transport statistics aggregated over every shard hub.  Conservation
    /// holds per hub, so it holds for the sums too.
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
    /// shard hub.  Faults are keyed by endpoint names, so the entry is inert
    /// on hubs that never carry that pair.
    ///
    /// # Panics
    ///
    /// Panics if a shard backend does not support fault injection — induced
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

    /// Partitions `a` ↔ `b` until `heal_at` on every shard hub (inert where
    /// the pair never communicates).
    ///
    /// # Panics
    ///
    /// Panics if a shard backend does not support fault injection.
    pub fn partition(&self, a: &str, b: &str, heal_at: Tick) {
        for hub in &self.hubs {
            hub.lock()
                .fault_injection()
                .expect("fleet transport backend supports fault injection")
                .partition(a, b, heal_at);
        }
    }

    /// Unregisters an endpoint from whichever shard hub carries it.  Returns
    /// `true` if any hub knew the endpoint.
    pub fn unregister_endpoint(&self, endpoint: &str) -> bool {
        let mut found = false;
        for hub in &self.hubs {
            found |= hub.lock().unregister(endpoint);
        }
        found
    }

    /// Returns `true` if any shard hub currently carries `endpoint`.
    pub fn endpoint_registered(&self, endpoint: &str) -> bool {
        self.hubs
            .iter()
            .any(|hub| hub.lock().is_registered(endpoint))
    }

    /// Adds a wired vehicle under its server-side id and ECM transport
    /// endpoint.  The vehicle's ECM must have registered on the hub of the
    /// vehicle's shard ([`Fleet::hub_for`]).
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
        if self
            .shards
            .iter()
            .any(|shard| shard.by_endpoint.contains_key(&endpoint))
        {
            return Err(DynarError::duplicate("fleet endpoint", endpoint));
        }
        self.ids_at.insert(id.clone(), self.ids.len());
        self.ids.push(id.clone());
        let shard_index = TrustedServer::shard_index(&id, self.shards.len());
        let shard = &mut self.shards[shard_index];
        let index = shard.entries.len();
        shard.by_id.insert(id.clone(), index);
        shard.by_endpoint.insert(endpoint.clone(), index);
        shard.entries.push(FleetEntry {
            id,
            endpoint,
            vehicle,
        });
        Ok(())
    }

    /// Adds a vehicle while the fleet is running.  Identical to
    /// [`Fleet::add_vehicle`] — named separately to document that joining
    /// mid-run is safe: the vehicle's ECM already registered its endpoint on
    /// its shard's hub, whose slot generations guarantee that traffic in
    /// flight towards a previous tenant of a reused slot is dropped, never
    /// delivered to the newcomer.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the id or endpoint is taken.
    pub fn add_vehicle_during_run(
        &mut self,
        id: VehicleId,
        ecm_endpoint: impl Into<String>,
        vehicle: Vehicle,
    ) -> Result<()> {
        self.add_vehicle(id, ecm_endpoint, vehicle)
    }

    /// Removes a vehicle for good: its endpoint is unregistered from its
    /// shard's hub (voiding traffic still in flight towards it) and the
    /// server fails every outstanding operation fast with
    /// [`dynar_foundation::error::DynarError::VehicleUnreachable`].  Returns
    /// the detached [`Vehicle`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles.
    pub fn remove_vehicle(&mut self, id: &VehicleId) -> Result<Vehicle> {
        let shard_index = self.shard_index_of(id);
        let shard = &mut self.shards[shard_index];
        let index = *shard
            .by_id
            .get(id)
            .ok_or_else(|| DynarError::not_found("fleet vehicle", id))?;
        // Swap-remove the entry, then repoint whatever moved into the hole.
        let entry = shard.entries.swap_remove(index);
        shard.by_id.remove(&entry.id);
        shard.by_endpoint.remove(&entry.endpoint);
        if index < shard.entries.len() {
            let moved = &shard.entries[index];
            shard.by_id.insert(moved.id.clone(), index);
            shard.by_endpoint.insert(moved.endpoint.clone(), index);
        }
        // Same dance for the registration-order list.
        let at = self
            .ids_at
            .remove(&entry.id)
            .expect("ids index mirrors the shard tables");
        self.ids.swap_remove(at);
        if at < self.ids.len() {
            self.ids_at.insert(self.ids[at].clone(), at);
        }
        self.hubs[shard_index].lock().unregister(&entry.endpoint);
        self.stats.record_failures(self.server.mark_unreachable(id));
        Ok(entry.vehicle)
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
        let (shard, index) = self
            .slot_of(id)
            .ok_or_else(|| DynarError::not_found("fleet vehicle", id))?;
        Ok(std::mem::replace(
            &mut self.shards[shard].entries[index].vehicle,
            vehicle,
        ))
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
            .map(|(shard, index)| &self.shards[shard].entries[index].vehicle)
    }

    /// The ECM transport endpoint of a vehicle.
    pub fn endpoint_of(&self, id: &VehicleId) -> Option<&str> {
        self.slot_of(id)
            .map(|(shard, index)| self.shards[shard].entries[index].endpoint.as_str())
    }

    /// The trusted server's transport endpoint.
    pub fn server_endpoint(&self) -> &str {
        &self.server_endpoint
    }

    /// Mutable access to a vehicle by id.
    pub fn vehicle_mut(&mut self, id: &VehicleId) -> Option<&mut Vehicle> {
        self.slot_of(id)
            .map(|(shard, index)| &mut self.shards[shard].entries[index].vehicle)
    }

    /// Current simulated fleet time.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Fleet-level activity counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Advances the whole fleet by one batched round: server downlinks reach
    /// every vehicle's ECM endpoint, the transport delivers, every vehicle
    /// runs one tick, and uplink acknowledgements flow back into the server.
    /// With more than one shard the round runs shard-parallel on the worker
    /// pool; the effects (and the journal) are the same either way.
    ///
    /// # Errors
    ///
    /// Propagates the first vehicle step error.
    pub fn step(&mut self) -> Result<()> {
        let now = self.clock.step();
        if self.shards.len() > 1 {
            self.step_parallel(now)?;
        } else {
            self.step_serial(now)?;
        }
        self.stats.ticks += 1;
        Ok(())
    }

    /// The single-shard round: the original serial pusher/uplink loop with
    /// dirty-set downlink polling.  Steady-state ticks stay allocation-free.
    fn step_serial(&mut self, now: Tick) -> Result<()> {
        let Fleet {
            server,
            hubs,
            shards,
            server_endpoint,
            stats,
            ..
        } = self;
        let shard = &mut shards[0];

        // Reliability plane: requeue overdue packages, escalate dead ones.
        stats.record_failures(server.tick(now));

        // Pusher: queued downlink messages leave the server, batched under a
        // single hub lock.  Destination feedback flows straight back into the
        // server's lifecycle plane: a send into an unregistered endpoint, or
        // an in-flight message dropped because the endpoint unregistered
        // mid-flight, parks the vehicle (mark_offline) instead of letting the
        // retry budget burn against a dead link.
        let mut offline = std::mem::take(&mut shard.offline_scratch);
        {
            let mut hub = hubs[0].lock();
            let entries = &shard.entries;
            let by_id = &shard.by_id;
            let polls = server.poll_downlink_dirty(|vehicle, payload| {
                stats.downlink_messages += 1;
                let Some(&index) = by_id.get(vehicle) else {
                    return;
                };
                if hub
                    .send(server_endpoint.as_str(), &entries[index].endpoint, payload)
                    .is_err()
                {
                    offline.push(vehicle.clone());
                }
            });
            stats.downlink_polls += polls;
            for vehicle in offline.drain(..) {
                server.mark_offline(&vehicle);
            }
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
                if let Some(&index) = shard.by_endpoint.get(endpoint.as_ref()) {
                    server.mark_offline(&shard.entries[index].id);
                }
            }
        }
        shard.offline_scratch = offline;

        for entry in &mut shard.entries {
            entry.vehicle.step()?;
        }

        // Uplink: acknowledgements back into the server, attributed to the
        // sending vehicle through its ECM endpoint.  The mailbox drains into
        // a reused buffer — a quiet tick allocates nothing.
        let mut uplinks = std::mem::take(&mut shard.uplink_scratch);
        debug_assert!(uplinks.is_empty());
        hubs[0].lock().drain_into(server_endpoint, &mut uplinks);
        for (from, payload) in uplinks.drain(..) {
            if let Some(&index) = shard.by_endpoint.get(from.as_ref()) {
                stats.uplink_messages += 1;
                if server
                    .process_uplink(&shard.entries[index].id, &payload)
                    .is_err()
                {
                    stats.rejected_uplinks += 1;
                }
            }
        }
        shard.uplink_scratch = uplinks;

        // Campaign plane: health gates evaluate against the state this round
        // settled into (acknowledgements processed above), and the decisions
        // are journaled at this same point in the record stream.
        let _ = server.step_campaigns();
        Ok(())
    }

    /// The sharded round: the tick is journaled up front, every shard's
    /// slice runs on the worker pool through its [`ShardHandle`] and private
    /// hub, and the per-shard journal buffers are merged in shard order
    /// afterwards — the same record sequence a serial run would have written.
    fn step_parallel(&mut self, now: Tick) -> Result<()> {
        self.server.begin_tick(now);
        let mut tasks: Vec<Box<dyn FnOnce() -> ShardOutcome + Send>> =
            Vec::with_capacity(self.shards.len());
        for handle in self.server.shard_handles() {
            let shard = std::mem::take(&mut self.shards[handle.index()]);
            let hub = Arc::clone(&self.hubs[handle.index()]);
            let server_endpoint = self.server_endpoint.clone();
            tasks.push(Box::new(move || {
                step_shard(&handle, shard, &hub, &server_endpoint, now)
            }));
        }
        let outcomes = self
            .pool
            .as_ref()
            .expect("multi-shard fleet has a worker pool")
            .run(tasks);

        let mut first_error = None;
        let mut failures = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            self.shards[index] = outcome.shard;
            self.stats.downlink_messages += outcome.downlink_messages;
            self.stats.uplink_messages += outcome.uplink_messages;
            self.stats.rejected_uplinks += outcome.rejected_uplinks;
            self.stats.downlink_polls += outcome.downlink_polls;
            failures.extend(outcome.retry_failures);
            if first_error.is_none() {
                first_error = outcome.error;
            }
        }
        // One batch per round, like the serial path: `record_failures` sorts
        // it, so the retained events match the serial run's exactly.
        self.stats.record_failures(failures);
        self.server.merge_shard_journals();
        // Campaign decisions run (and journal) strictly after the shard
        // merge — the serial point of the round, on converged state, exactly
        // where the serial path evaluates them.
        let _ = self.server.step_campaigns();
        match first_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
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

/// One shard's slice of a parallel round: reliability tick, dirty downlink
/// push onto the shard's private hub, transport step with dropped-destination
/// feedback, vehicle steps, uplink processing.  Mirrors
/// [`Fleet::step_serial`] exactly — per vehicle, the effect (and journal
/// record) order is identical, which is what keeps a parallel journaled run
/// replayable.
fn step_shard(
    handle: &ShardHandle,
    mut shard: FleetShard,
    hub: &SharedHub,
    server_endpoint: &str,
    now: Tick,
) -> ShardOutcome {
    let mut downlink_messages = 0;
    let mut uplink_messages = 0;
    let mut rejected_uplinks = 0;
    let mut retry_failures = Vec::new();
    handle.tick(now, &mut retry_failures);

    let mut offline = std::mem::take(&mut shard.offline_scratch);
    let downlink_polls;
    {
        let mut hub_guard = hub.lock();
        let entries = &shard.entries;
        let by_id = &shard.by_id;
        downlink_polls = handle.poll_downlink_dirty(|vehicle, payload| {
            downlink_messages += 1;
            let Some(&index) = by_id.get(vehicle) else {
                return;
            };
            if hub_guard
                .send(server_endpoint, &entries[index].endpoint, payload)
                .is_err()
            {
                offline.push(vehicle.clone());
            }
        });
        for vehicle in offline.drain(..) {
            handle.mark_offline(&vehicle);
        }
        hub_guard.step(now);
        for endpoint in hub_guard.take_dropped_destinations() {
            if hub_guard.is_registered(endpoint.as_ref()) {
                continue;
            }
            if let Some(&index) = shard.by_endpoint.get(endpoint.as_ref()) {
                handle.mark_offline(&shard.entries[index].id);
            }
        }
    }
    shard.offline_scratch = offline;

    let mut error = None;
    for entry in &mut shard.entries {
        if let Err(step_error) = entry.vehicle.step() {
            error = Some(step_error);
            break;
        }
    }

    if error.is_none() {
        let mut uplinks = std::mem::take(&mut shard.uplink_scratch);
        debug_assert!(uplinks.is_empty());
        hub.lock().drain_into(server_endpoint, &mut uplinks);
        for (from, payload) in uplinks.drain(..) {
            if let Some(&index) = shard.by_endpoint.get(from.as_ref()) {
                uplink_messages += 1;
                if handle
                    .process_uplink(&shard.entries[index].id, &payload)
                    .is_err()
                {
                    rejected_uplinks += 1;
                }
            }
        }
        shard.uplink_scratch = uplinks;
    }

    ShardOutcome {
        shard,
        downlink_messages,
        uplink_messages,
        rejected_uplinks,
        downlink_polls,
        retry_failures,
        error,
    }
}

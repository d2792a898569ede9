//! The actor runtime: server and vehicles as independent threads on a
//! shared [`Transport`], driven by wall-clock time instead of lockstep
//! ticks.
//!
//! [`crate::fleet::Fleet`] advances the whole federation in synchronous
//! phases — every vehicle, the transport and the server move together, one
//! tick at a time.  That is the *deterministic* deployment shape: perfect
//! for byte-identity tests, useless as evidence that the protocol survives
//! real concurrency.  This module is the other shape: each vehicle runs on
//! its own thread at its own pace, the trusted server runs on its own
//! thread reacting to whatever arrives, and nothing ever waits for a global
//! tick barrier.
//!
//! # Tick-free server loop
//!
//! The server actor never sweeps on a schedule.  Each iteration it:
//!
//! 1. fires [`TrustedServer::tick`] only when [`TrustedServer::next_deadline`]
//!    says a retransmission deadline actually lapsed (the deadline timer) or
//!    a rollout campaign is active — campaign health gates sample on the tick
//!    cadence, so [`TrustedServer::step_campaigns`] runs right after,
//! 2. runs the federation round `Fleet::step` runs — the same function —
//!    with a no-op vehicle step (the vehicles step on their own threads):
//!    queued downlinks out, the transport stepped, arrived uplinks in; then
//!    [`TrustedServer::end_round`] compacts the journal when it is due, and
//!    the round's counts land in the [`FleetStats`] that
//!    [`ActorFederation::stats`] reports,
//! 3. sleeps on its command channel until the next deadline or quantum,
//!    whichever is sooner, handling [`ActorFederation::with_server`]
//!    closures as they arrive.
//!
//! Protocol time stays tick-denominated: a [`WallClock`] maps elapsed real
//! time onto the same [`Tick`] axis the retry budgets and announce periods
//! are written in, so the reliability plane is unchanged — only the driver
//! differs.
//!
//! # Locks and the determinism boundary
//!
//! The transport is the only lock: the server is owned by its actor
//! thread, and vehicle threads reach the transport through their ECM
//! gateways only.
//!
//! Runs through this module are **not** reproducible: thread interleaving
//! and wall-clock timing are real.  Determinism lives below the
//! [`Transport`] trait — the same protocol code, driven by `Fleet` over the
//! deterministic hub, replays byte-for-byte.  Tests assert *convergence*
//! here (installed exactly once, conservation at the stats level) and
//! *identity* there.
//!
//! [`Transport`]: dynar_fes::transport::Transport

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use dynar_ecm::gateway::SharedHub;
use dynar_foundation::error::DynarError;
use dynar_foundation::ids::VehicleId;
use dynar_foundation::time::{Tick, WallClock};
use dynar_server::server::TrustedServer;

use crate::fleet::{step_round, FleetStats, LaneRoute, RoundScratch};
use crate::world::Vehicle;

/// A command for the server actor.
enum ServerCommand {
    /// Run a closure against the server (the ask pattern; the closure owns
    /// its own reply channel).
    With(Box<dyn FnOnce(&mut TrustedServer) + Send>),
    /// Route downlinks for `id` to `endpoint` and uplinks back.
    Register { id: VehicleId, endpoint: String },
    /// Final round, then exit with the server state.
    Shutdown,
}

/// One vehicle actor: its thread and the flag that stops it.
struct VehicleActor {
    id: VehicleId,
    endpoint: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(Vehicle, Option<DynarError>)>,
}

/// What [`ActorFederation::shutdown`] hands back: the server state and every
/// vehicle, each with the error that stopped it early (if any).
#[derive(Debug)]
pub struct FederationOutcome {
    /// The trusted server, exactly as the server actor last left it.
    pub server: TrustedServer,
    /// Every vehicle in spawn order, with its first step error if it died.
    pub vehicles: Vec<(VehicleId, Vehicle, Option<DynarError>)>,
    /// The server actor's round counters, final round included.
    pub stats: FleetStats,
}

/// A running actor federation: one server thread, one thread per vehicle,
/// all exchanging messages through a shared [`Transport`] backend.
///
/// # Example
///
/// ```no_run
/// use std::time::Duration;
/// use dynar_ecm::gateway::SharedHub;
/// use dynar_fes::transport::{shared_transport, TransportConfig, TransportHub};
/// use dynar_server::server::TrustedServer;
/// use dynar_sim::actors::ActorFederation;
///
/// let transport: SharedHub = shared_transport(TransportHub::new(TransportConfig::default()));
/// let federation = ActorFederation::launch(
///     TrustedServer::new(),
///     "server",
///     transport,
///     Duration::from_millis(1),
/// );
/// // ... spawn vehicles, deploy through with_server, poll for convergence ...
/// let outcome = federation.shutdown();
/// assert!(outcome.vehicles.iter().all(|(_, _, err)| err.is_none()));
/// ```
///
/// [`Transport`]: dynar_fes::transport::Transport
pub struct ActorFederation {
    commands: mpsc::Sender<ServerCommand>,
    server_thread: Option<JoinHandle<TrustedServer>>,
    vehicles: Vec<VehicleActor>,
    transport: SharedHub,
    clock: WallClock,
    stats: Arc<Mutex<FleetStats>>,
}

impl std::fmt::Debug for VehicleActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VehicleActor")
            .field("id", &self.id)
            .finish()
    }
}

impl std::fmt::Debug for ActorFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorFederation")
            .field("vehicles", &self.vehicles)
            .field("quantum", &self.clock.quantum())
            .finish_non_exhaustive()
    }
}

impl ActorFederation {
    /// Spawns the server actor.  `quantum` is the real-time span of one
    /// protocol [`Tick`] — retry deadlines, announce periods and partition
    /// heal times all scale with it.
    pub fn launch(
        server: TrustedServer,
        server_endpoint: impl Into<String>,
        transport: SharedHub,
        quantum: Duration,
    ) -> Self {
        let server_endpoint = server_endpoint.into();
        transport.lock().register(&server_endpoint);
        let clock = WallClock::new(quantum);
        let stats = Arc::new(Mutex::new(FleetStats::default()));
        let (commands, inbox) = mpsc::channel();
        let thread = {
            let transport = Arc::clone(&transport);
            let clock = clock.clone();
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                server_actor(server, &server_endpoint, &transport, &clock, &inbox, &stats)
            })
        };
        ActorFederation {
            commands,
            server_thread: Some(thread),
            vehicles: Vec::new(),
            transport,
            clock,
            stats,
        }
    }

    /// The shared transport backend (for devices, settle loops, stats).
    pub fn transport(&self) -> SharedHub {
        Arc::clone(&self.transport)
    }

    /// The wall clock mapping real time onto protocol ticks.
    pub fn clock(&self) -> &WallClock {
        &self.clock
    }

    /// The server actor's round counters so far: the same [`FleetStats`] a
    /// [`crate::fleet::Fleet`] keeps, one tick per round (retry escalations
    /// come from the deadline timer).
    pub fn stats(&self) -> FleetStats {
        self.stats.lock().clone()
    }

    /// Spawns one vehicle actor.  The vehicle's ECM must already be wired to
    /// this federation's transport under `endpoint` (its `EcmSwc::create`
    /// registered it); the server actor routes `id`'s downlinks there from
    /// now on.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `endpoint` belongs to a running vehicle actor.
    pub fn spawn_vehicle(&mut self, id: VehicleId, endpoint: impl Into<String>, vehicle: Vehicle) {
        let endpoint = endpoint.into();
        assert!(
            !self
                .vehicles
                .iter()
                .any(|actor| actor.id == id || actor.endpoint == endpoint),
            "vehicle {id} or endpoint {endpoint} is already running"
        );
        self.commands
            .send(ServerCommand::Register {
                id: id.clone(),
                endpoint: endpoint.clone(),
            })
            .expect("server actor is running");
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let pace = self.clock.quantum();
            std::thread::spawn(move || vehicle_actor(vehicle, stop, pace))
        };
        self.vehicles.push(VehicleActor {
            id,
            endpoint,
            stop,
            thread,
        });
    }

    /// Runs a closure against the live server and returns its result (the
    /// ask pattern: the closure executes on the server thread, serialized
    /// with the deadline timer and the uplink pump).
    ///
    /// # Panics
    ///
    /// Panics if the server actor is gone (it never exits on its own).
    pub fn with_server<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut TrustedServer) -> R + Send + 'static,
    ) -> R {
        let (reply, answer) = mpsc::channel();
        self.commands
            .send(ServerCommand::With(Box::new(move |server| {
                let _ = reply.send(f(server));
            })))
            .expect("server actor is running");
        answer.recv().expect("server actor answers")
    }

    /// Stops every actor — vehicles first (so the wire quiesces), then the
    /// server after a final round — and returns the federation's state.
    pub fn shutdown(mut self) -> FederationOutcome {
        for actor in &self.vehicles {
            actor.stop.store(true, Ordering::Relaxed);
        }
        let vehicles = self
            .vehicles
            .drain(..)
            .map(|actor| {
                let (vehicle, error) = actor.thread.join().expect("vehicle actor never panics");
                (actor.id, vehicle, error)
            })
            .collect();
        self.commands
            .send(ServerCommand::Shutdown)
            .expect("server actor is running");
        let server = self
            .server_thread
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("server actor never panics");
        FederationOutcome {
            server,
            vehicles,
            stats: self.stats(),
        }
    }
}

/// The vehicle actor body: step at the clock's pace until stopped; a step
/// error stops the vehicle (a crashed node), it does not kill the
/// federation.
fn vehicle_actor(
    mut vehicle: Vehicle,
    stop: Arc<AtomicBool>,
    pace: Duration,
) -> (Vehicle, Option<DynarError>) {
    while !stop.load(Ordering::Relaxed) {
        if let Err(error) = vehicle.step() {
            return (vehicle, Some(error));
        }
        std::thread::sleep(pace);
    }
    (vehicle, None)
}

/// The server actor body.  See the module documentation for the loop's
/// three phases.
fn server_actor(
    mut server: TrustedServer,
    server_endpoint: &str,
    transport: &SharedHub,
    clock: &WallClock,
    inbox: &mpsc::Receiver<ServerCommand>,
    stats: &Mutex<FleetStats>,
) -> TrustedServer {
    // One lane: the actor's vehicles all talk over the one transport.
    let mut route = LaneRoute::new(Arc::clone(transport));
    let mut scratch = RoundScratch::default();
    // Wall-clock ticks are monotonic, but protocol time must also never
    // repeat a smaller value after a long round: clamp below.
    let mut last_now = Tick::ZERO;
    let mut stopping = false;
    loop {
        let now = clock.now().max(last_now);
        last_now = now;

        // 1. Deadline timer: sweep the reliability plane only when a
        //    retransmission deadline actually lapsed — or when a rollout
        //    campaign is running, whose health gates are sampled on the same
        //    tick cadence (the wall-clock quantum stands in for the fleet
        //    round).
        let due = server.next_deadline().is_some_and(|due| due <= now);
        if !stopping && (due || server.has_active_campaigns()) {
            let failures = server.tick(now);
            let campaign_events = server.step_campaigns().len() as u64;
            let mut stats = stats.lock();
            stats.record_failures(failures);
            stats.campaign_events += campaign_events;
        }

        // 2. The federation round with a no-op vehicle step, then the end
        //    of the round.  After a shutdown this is the final round: it
        //    consumes whatever the stopped vehicles left on the wire, so the
        //    transport ledger can settle for post-run conservation checks.
        let (counts, ()) = step_round(
            &mut server,
            std::slice::from_ref(&route),
            server_endpoint,
            &mut scratch,
            now,
            || (),
        );
        server.end_round();
        {
            let mut stats = stats.lock();
            stats.add_round(counts);
            stats.ticks += 1;
        }
        if stopping {
            return server;
        }

        // 3. Sleep until the next deadline or one quantum, whichever is
        //    sooner, handling commands as they arrive.
        let wait = match server.next_deadline() {
            Some(due) => clock.until_tick(due).min(clock.quantum()),
            None => clock.quantum(),
        };
        match inbox.recv_timeout(wait.max(Duration::from_micros(50))) {
            Ok(ServerCommand::With(f)) => f(&mut server),
            Ok(ServerCommand::Register { id, endpoint }) => route
                .table
                .insert(id, endpoint)
                .expect("spawn_vehicle admits no duplicate vehicle or endpoint"),
            Ok(ServerCommand::Shutdown) | Err(RecvTimeoutError::Disconnected) => stopping = true,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

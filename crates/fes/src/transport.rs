//! The simulated external transport connecting vehicles, the trusted server
//! and federation participants.
//!
//! The paper's prototype uses TCP sockets between the ECM, the trusted server
//! and the smart phone.  The transport hub keeps the same message semantics —
//! addressed, ordered, possibly delayed or lost datagrams — without real
//! sockets, so simulations stay deterministic.
//!
//! # The two planes
//!
//! Like the signal-routing planes of the RTE and the PIRTE, the hub separates
//! a **slow registration plane** from the **fast delivery plane**:
//!
//! * Registration, unregistration and fault installation are keyed by
//!   endpoint *names* (`&str`) — the API the trusted server, ECMs and
//!   devices use.  Each registered endpoint is interned onto a dense
//!   [`Slot`].
//! * Every per-message operation works on slots: mailboxes are a flat
//!   `Vec` indexed by endpoint slot, the fault table is keyed by
//!   `(Slot, Slot)` link pairs, and payloads are shared [`Payload`]
//!   buffers.  A steady-state `send`/`step`/[`TransportHub::drain_into`]
//!   round allocates nothing.
//! * A consumer that drains the same mailbox every tick resolves its name
//!   once into an [`EndpointHandle`] — the slot plus the slot's generation —
//!   and drains through [`Transport::drain_handle_into`], which indexes the
//!   mailbox table without hashing.  Unregistering the endpoint bumps the
//!   generation, so an old handle reports itself stale (and drains nothing)
//!   instead of reaching a later tenant of the slot; the consumer then
//!   re-resolves by name.
//!
//! # Fault injection
//!
//! On top of the global [`TransportConfig`] loss model the hub supports
//! per-link faults ([`LinkFault`]): asymmetric loss (a different probability
//! per direction), latency jitter, and temporary partitions that heal at a
//! configured tick.  All fault decisions are made **at delivery time** inside
//! [`TransportHub::step`], never at send time, so every accepted message
//! enters the in-flight set and faults compose deterministically with
//! partitions under one seed.
//!
//! # Stats conservation
//!
//! Every accepted message is accounted for exactly once:
//!
//! ```text
//! sent == delivered + lost + dropped + in_flight
//! ```
//!
//! holds at every tick ([`TransportStats::is_conserved`]); once the hub is
//! quiescent (`in_flight == 0`) this is the `sent == delivered + lost +
//! dropped` identity the chaos scenarios assert.  Unregistering an endpoint
//! voids the messages still in flight towards it: they are counted as
//! `dropped` when they come due, and a later re-registration (which may reuse
//! the freed slot) never receives them.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::intern::Slot;
pub use dynar_foundation::payload::Payload;
use dynar_foundation::time::Tick;

/// The shared endpoint name attached to delivered messages (an `Arc<str>`
/// clone of the name captured at send time — no allocation per message).
pub type EndpointName = Arc<str>;

/// A resolved endpoint: its dense slot and the slot's generation when it was
/// resolved (see [`Transport::endpoint_handle`]).  Handles are plain values;
/// a stale one is detected by the backend, never dereferenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointHandle {
    slot: Slot,
    generation: u32,
}

/// A shared, lockable handle to any [`Transport`] backend — what the trusted
/// server, every ECM gateway and external devices clone.  The deterministic
/// [`TransportHub`] and the socket-backed [`crate::udp::UdpTransport`] both
/// coerce into it.
pub type SharedTransport = Arc<parking_lot::Mutex<dyn Transport>>;

/// Wraps a backend into the [`SharedTransport`] handle federation components
/// clone (the unsized coercion happens here, once).
pub fn shared_transport(backend: impl Transport + 'static) -> SharedTransport {
    Arc::new(parking_lot::Mutex::new(backend))
}

/// The transport abstraction between federation participants: named
/// endpoints exchanging addressed, ordered byte messages.
///
/// Backends differ in *how* messages move — the deterministic in-memory
/// [`TransportHub`] resolves them inside [`Transport::step`] under one seed,
/// the [`crate::udp::UdpTransport`] pushes real datagrams through loopback
/// sockets — but every backend upholds the same contract, pinned by the
/// shared conformance suite (`tests/transport_conformance.rs`):
///
/// * **Registration** is idempotent; sending from or to an unknown endpoint
///   is a typed [`DynarError::TransportClosed`] error.
/// * **Per-link FIFO**: a later message never overtakes an earlier one on
///   the same `from → to` link (absent induced reordering faults).
/// * **Conservation**: `sent == delivered + lost + dropped + in_flight`
///   at every observation point ([`TransportStats::is_conserved`]).
/// * **Unregister feedback**: traffic towards a departed endpoint counts as
///   `dropped` and surfaces the destination name through
///   [`Transport::take_dropped_destinations`], never reaches a later tenant
///   of the endpoint name.
///
/// Fault injection (per-link loss, jitter, partitions) is an *optional
/// capability*: backends that can fault deterministically expose it through
/// [`Transport::fault_injection`]; wire backends model their induced faults
/// at construction time instead.
pub trait Transport: std::fmt::Debug + Send {
    /// Registers an endpoint (idempotent).
    fn register(&mut self, name: &str);

    /// Unregisters an endpoint, voiding traffic still in flight towards it
    /// (counted as `dropped` when it arrives).  Returns `true` if the
    /// endpoint was registered.
    fn unregister(&mut self, name: &str) -> bool;

    /// Returns `true` if the endpoint is registered.
    fn is_registered(&self, name: &str) -> bool;

    /// Sends a message from one endpoint to another.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::TransportClosed`] if either endpoint is unknown.
    fn send(&mut self, from: &str, to: &str, payload: Payload) -> Result<()>;

    /// Advances the backend to `now`, moving due messages into destination
    /// mailboxes (and, for wire backends, pumping the underlying sockets).
    fn step(&mut self, now: Tick);

    /// Drains every message delivered to `endpoint` into `into`, as
    /// `(sender, payload)` pairs in delivery order, without allocating.
    /// An empty mailbox leaves `into` untouched.
    fn drain_into(&mut self, endpoint: &str, into: &mut Vec<(EndpointName, Payload)>);

    /// Number of messages waiting for `endpoint`.
    fn pending_for(&self, endpoint: &str) -> usize;

    /// Resolves a registered endpoint to a handle for
    /// [`Transport::drain_handle_into`], so a consumer draining every tick
    /// looks its name up once.  Returns `None` for an unregistered endpoint,
    /// and always on backends without handles (the default) — callers then
    /// drain by name.
    fn endpoint_handle(&self, endpoint: &str) -> Option<EndpointHandle> {
        let _ = endpoint;
        None
    }

    /// Drains the mailbox behind `handle` like [`Transport::drain_into`].
    /// Returns `false`, draining nothing, when the handle is stale — the
    /// endpoint unregistered after the handle was resolved, whether or not
    /// the name registered again since — and the caller must re-resolve.
    fn drain_handle_into(
        &mut self,
        handle: EndpointHandle,
        into: &mut Vec<(EndpointName, Payload)>,
    ) -> bool {
        let _ = (handle, into);
        false
    }

    /// Traffic statistics accumulated so far.
    fn stats(&self) -> TransportStats;

    /// Drains the names of destinations whose in-flight messages were
    /// dropped because the endpoint unregistered (one entry per dropped
    /// message).  Senders use this to park traffic instead of retrying into
    /// a void.
    fn take_dropped_destinations(&mut self) -> Vec<EndpointName>;

    /// The deterministic fault-injection capability, if this backend has
    /// one.  The default is `None`: callers must treat fault injection as
    /// optional and skip (not fail) when it is absent.
    fn fault_injection(&mut self) -> Option<&mut dyn FaultInjection> {
        None
    }

    /// Drains every message delivered to `endpoint` into a fresh vector —
    /// the allocating convenience over [`Transport::drain_into`] for tests
    /// and one-shot consumers.  Steady-state consumers (the fleet scheduler,
    /// the ECM gateway) use `drain_into` with a reused buffer instead.
    fn drain(&mut self, endpoint: &str) -> Vec<(EndpointName, Payload)> {
        let mut drained = Vec::new();
        self.drain_into(endpoint, &mut drained);
        drained
    }
}

/// Deterministic per-link fault injection: the optional [`Transport`]
/// capability the chaos scenarios drive.  All parameters are keyed by
/// endpoint *names* and may be installed before the endpoints register.
pub trait FaultInjection {
    /// Installs (or replaces) the fault model of the directed link
    /// `from → to`.
    fn set_link_fault(&mut self, from: &str, to: &str, fault: LinkFault);

    /// Removes the fault model of the directed link `from → to`.
    fn clear_link_fault(&mut self, from: &str, to: &str);

    /// The fault currently installed on `from → to`, if any.
    fn link_fault(&self, from: &str, to: &str) -> Option<&LinkFault>;

    /// Partitions both directions between `a` and `b` until `heal_at`.
    fn partition(&mut self, a: &str, b: &str, heal_at: Tick);

    /// Heals a partition between `a` and `b` immediately (both directions).
    fn heal(&mut self, a: &str, b: &str);

    /// Returns `true` if `from → to` is partitioned at the backend's
    /// current time.
    fn is_partitioned(&self, from: &str, to: &str) -> bool;
}

/// Upper bound on undrained dropped-destination feedback entries (see
/// [`TransportHub::take_dropped_destinations`]): hubs whose owner never
/// drains the feedback must not accumulate one name per dropped message for
/// the life of the simulation.
pub(crate) const DROPPED_FEEDBACK_CAP: usize = 1024;

/// Configuration of the simulated external network.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Delivery latency in ticks.
    pub latency_ticks: u64,
    /// Probability in `[0, 1]` that a message is lost.
    pub loss_probability: f64,
    /// Seed for the loss model.
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            latency_ticks: 1,
            loss_probability: 0.0,
            seed: 0xF0F0,
        }
    }
}

/// Counters describing external traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages accepted for delivery.
    pub sent: u64,
    /// Messages delivered to their destination mailbox.
    pub delivered: u64,
    /// Messages removed by the loss model or a partition.
    pub lost: u64,
    /// Messages that came due towards an unregistered mailbox.
    pub dropped: u64,
    /// Messages accepted but not yet due.
    pub in_flight: u64,
}

impl TransportStats {
    /// The conservation invariant: every accepted message is delivered, lost,
    /// dropped or still in flight — nothing disappears silently.
    pub fn is_conserved(&self) -> bool {
        self.sent == self.delivered + self.lost + self.dropped + self.in_flight
    }
}

/// Fault model of one directed link (`from` → `to`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFault {
    /// Loss probability override for this direction; `None` falls back to the
    /// global [`TransportConfig::loss_probability`].  Setting different
    /// values per direction models asymmetric loss.
    pub loss_probability: Option<f64>,
    /// Extra random latency in `[0, jitter_ticks]` added per message.
    /// Per-link FIFO order is preserved regardless (TCP semantics: a later
    /// message never overtakes an earlier one on the same link).
    pub jitter_ticks: u64,
    /// While set, every message coming due on this link is counted as lost.
    /// The partition heals automatically once `step` reaches this tick.
    pub partition_until: Option<Tick>,
}

impl LinkFault {
    /// A fault that only overrides the loss probability.
    pub fn lossy(probability: f64) -> Self {
        LinkFault {
            loss_probability: Some(probability),
            ..LinkFault::default()
        }
    }

    /// A fault that only adds latency jitter.
    pub fn jittery(jitter_ticks: u64) -> Self {
        LinkFault {
            jitter_ticks,
            ..LinkFault::default()
        }
    }

    /// Returns `true` if the link is partitioned at `now`.
    pub fn is_partitioned(&self, now: Tick) -> bool {
        self.partition_until.is_some_and(|until| now < until)
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    /// The sender's name, captured at send time (survives unregistration).
    from_name: EndpointName,
    /// The destination's name, captured at send time: still available for
    /// dropped-destination feedback after the endpoint unregistered.
    to_name: EndpointName,
    from: Slot,
    to: Slot,
    /// Destination-slot generation at send time: if the endpoint unregisters
    /// (and the slot is possibly reused), the generations no longer match and
    /// the message is counted as dropped instead of delivered to a stranger.
    to_generation: u32,
    /// Sender-slot generation at send time: keeps the per-link random stream
    /// of a departed sender's stale traffic apart from the stream of
    /// whichever endpoint reuses the slot.
    from_generation: u32,
    payload: Payload,
    deliver_at: Tick,
}

/// The slow-plane endpoint registry: names interned onto dense slots, with a
/// per-slot generation so in-flight traffic cannot leak across
/// unregister/re-register cycles.
#[derive(Debug, Default)]
struct EndpointRegistry {
    by_name: HashMap<EndpointName, Slot>,
    /// slot -> name (`None` for freed slots).
    names: Vec<Option<EndpointName>>,
    /// slot -> generation, bumped on unregister.
    generations: Vec<u32>,
    free: Vec<Slot>,
}

impl EndpointRegistry {
    fn get(&self, name: &str) -> Option<Slot> {
        self.by_name.get(name).copied()
    }

    fn name_of(&self, slot: Slot) -> Option<&EndpointName> {
        self.names.get(slot.index()).and_then(Option::as_ref)
    }

    fn generation(&self, slot: Slot) -> u32 {
        self.generations[slot.index()]
    }

    fn register(&mut self, name: &str) -> (Slot, bool) {
        if let Some(slot) = self.get(name) {
            return (slot, false);
        }
        let name: EndpointName = Arc::from(name);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = Slot::from_raw(u32::try_from(self.names.len()).expect("slot overflow"));
                self.names.push(None);
                self.generations.push(0);
                slot
            }
        };
        self.names[slot.index()] = Some(Arc::clone(&name));
        self.by_name.insert(name, slot);
        (slot, true)
    }

    fn unregister(&mut self, name: &str) -> Option<Slot> {
        let slot = self.by_name.remove(name)?;
        self.names[slot.index()] = None;
        self.generations[slot.index()] += 1;
        self.free.push(slot);
        Some(slot)
    }

    /// Width of the dense tables (live + freed slots).
    fn capacity(&self) -> usize {
        self.names.len()
    }
}

/// A hub of named endpoints exchanging addressed byte messages.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct TransportHub {
    config: TransportConfig,
    endpoints: EndpointRegistry,
    /// endpoint slot -> mailbox (`None` for unregistered slots).
    mailboxes: Vec<Option<VecDeque<(EndpointName, Payload)>>>,
    in_flight: Vec<InFlight>,
    /// Scratch buffer `step` compacts `in_flight` through, so the fast plane
    /// never reallocates the queue.
    in_flight_scratch: Vec<InFlight>,
    /// Earliest `deliver_at` of any in-flight message: lets a quiescent
    /// `step` return in O(1).
    next_due: Option<Tick>,
    /// Slow plane: faults keyed by endpoint names (installable before the
    /// endpoints register).
    faults: HashMap<(String, String), LinkFault>,
    /// Fast plane: faults of currently registered link pairs, compiled from
    /// `faults` on every registration or fault change.
    compiled_faults: HashMap<(Slot, Slot), LinkFault>,
    /// Latest scheduled delivery per directed link, clamping jittered
    /// latencies so per-link FIFO order always holds.  Only consulted while
    /// faults are installed — without jitter, constant latency keeps
    /// per-link schedules monotone by construction.
    last_scheduled: HashMap<(Slot, Slot), Tick>,
    /// Destinations whose in-flight messages came due after the endpoint
    /// unregistered (drained by [`TransportHub::take_dropped_destinations`]):
    /// the senders' side of the federation uses this to park traffic instead
    /// of retrying into a void.
    dropped_destinations: Vec<EndpointName>,
    stats: TransportStats,
    /// One independent random stream per `(from, to)` link, created lazily
    /// at the link's first draw and seeded from the hub seed plus the two
    /// endpoint *names*.  Keying the streams by link (rather than one global
    /// stream) makes every link's loss/jitter history a function of that
    /// link's own traffic alone: partitioning a fleet across several hubs —
    /// or reordering unrelated links' events — leaves each link's draws
    /// bit-identical.  The key carries the slot generations (see [`LinkKey`])
    /// so slot reuse never lets a new tenant resume a dead tenant's stream.
    link_rngs: HashMap<LinkKey, StdRng>,
    now: Tick,
}

/// Derives the deterministic per-link seed: FNV-1a (64 bit) over the hub
/// seed and both endpoint names.  Name-based (not slot-based), so the stream
/// survives slot-number differences between hub layouts.
fn link_seed(seed: u64, from: &str, to: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in seed
        .to_le_bytes()
        .iter()
        .chain(from.as_bytes())
        .chain(&[0xFF])
        .chain(to.as_bytes())
    {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// One directed link as the random-stream map sees it: both endpoint slots
/// *with their generations*.  The generations matter: a message still in
/// flight when its endpoint unregisters draws its loss roll at delivery —
/// after the purge — which lazily re-creates the stream.  Keyed by bare
/// slots, that resurrected entry would be inherited by whoever reuses the
/// slot next, resuming a dead tenant's stream mid-way (and making the draw
/// history depend on slot-assignment order, which differs between hub
/// layouts).  With the generation in the key, stale traffic draws from its
/// own stream and a reused slot's new tenant always seeds fresh.
type LinkKey = (Slot, u32, Slot, u32);

/// Looks up (or lazily seeds) the random stream of one link.  A free
/// function over the map field so callers can hold other `&mut self`
/// borrows at the draw site.
fn link_rng<'a>(
    link_rngs: &'a mut HashMap<LinkKey, StdRng>,
    seed: u64,
    link: LinkKey,
    from: &str,
    to: &str,
) -> &'a mut StdRng {
    link_rngs
        .entry(link)
        .or_insert_with(|| StdRng::seed_from_u64(link_seed(seed, from, to)))
}

impl TransportHub {
    /// Creates a hub with the given configuration.
    pub fn new(config: TransportConfig) -> Self {
        TransportHub {
            config,
            endpoints: EndpointRegistry::default(),
            mailboxes: Vec::new(),
            in_flight: Vec::new(),
            in_flight_scratch: Vec::new(),
            next_due: None,
            faults: HashMap::new(),
            compiled_faults: HashMap::new(),
            last_scheduled: HashMap::new(),
            dropped_destinations: Vec::new(),
            stats: TransportStats::default(),
            link_rngs: HashMap::new(),
            now: Tick::ZERO,
        }
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Registers an endpoint (idempotent), assigning it a dense slot.
    pub fn register(&mut self, name: impl AsRef<str>) {
        let (slot, fresh) = self.endpoints.register(name.as_ref());
        if slot.index() >= self.mailboxes.len() {
            self.mailboxes.resize_with(slot.index() + 1, || None);
        }
        if fresh {
            self.mailboxes[slot.index()] = Some(VecDeque::new());
            self.recompile_faults();
        }
    }

    /// Unregisters an endpoint, voiding the messages still in flight towards
    /// it (they count as `dropped` when they come due) and discarding
    /// whatever sat undrained in its mailbox.  Returns `true` if the
    /// endpoint was registered.
    ///
    /// The freed slot may be reused by a later registration; the per-slot
    /// generation guarantees the new tenant never sees the old tenant's
    /// traffic.
    pub fn unregister(&mut self, name: &str) -> bool {
        let Some(slot) = self.endpoints.unregister(name) else {
            return false;
        };
        self.mailboxes[slot.index()] = None;
        // The slot may be reused by a later registration: purge the per-link
        // FIFO clamps keyed by it, or the next tenant's traffic would be
        // clamped against the departed endpoint's delivery schedule.
        self.last_scheduled
            .retain(|(from, to), _| *from != slot && *to != slot);
        // The random streams are generation-keyed, so a reused slot's new
        // tenant can never resume the departed endpoint's streams — this
        // purge is garbage collection only.  (Stale in-flight traffic that
        // draws a loss roll after the purge re-seeds its stream from the
        // captured names, identically on any hub layout.)
        self.link_rngs
            .retain(|(from, _, to, _), _| *from != slot && *to != slot);
        self.recompile_faults();
        true
    }

    /// Returns `true` if the endpoint is registered.
    pub fn is_registered(&self, name: &str) -> bool {
        self.endpoints.get(name).is_some()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Recompiles the slot-keyed fault table from the name-keyed slow plane.
    /// Called on registration changes and fault changes only.
    fn recompile_faults(&mut self) {
        self.compiled_faults.clear();
        for ((from, to), fault) in &self.faults {
            if let (Some(f), Some(t)) = (self.endpoints.get(from), self.endpoints.get(to)) {
                self.compiled_faults.insert((f, t), fault.clone());
            }
        }
    }

    /// Installs (or replaces) the fault model of the directed link
    /// `from → to`.  The endpoints do not need to be registered yet; the
    /// fault applies once they are.
    pub fn set_link_fault(
        &mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        fault: LinkFault,
    ) {
        self.faults.insert((from.into(), to.into()), fault);
        self.recompile_faults();
    }

    /// Removes the fault model of the directed link `from → to`.
    pub fn clear_link_fault(&mut self, from: &str, to: &str) {
        self.faults.remove(&(from.to_owned(), to.to_owned()));
        self.recompile_faults();
    }

    /// The fault currently installed on `from → to`, if any.
    pub fn link_fault(&self, from: &str, to: &str) -> Option<&LinkFault> {
        self.faults.get(&(from.to_owned(), to.to_owned()))
    }

    /// Partitions both directions between `a` and `b` until `heal_at`:
    /// messages coming due while the partition holds are counted as lost.
    /// Other fault parameters already installed on the links are kept.
    pub fn partition(&mut self, a: &str, b: &str, heal_at: Tick) {
        for (from, to) in [(a, b), (b, a)] {
            self.faults
                .entry((from.to_owned(), to.to_owned()))
                .or_default()
                .partition_until = Some(heal_at);
        }
        self.recompile_faults();
    }

    /// Heals a partition between `a` and `b` immediately (both directions).
    pub fn heal(&mut self, a: &str, b: &str) {
        for (from, to) in [(a, b), (b, a)] {
            if let Some(fault) = self.faults.get_mut(&(from.to_owned(), to.to_owned())) {
                fault.partition_until = None;
            }
        }
        self.recompile_faults();
    }

    /// Returns `true` if `from → to` is partitioned at the hub's current time.
    pub fn is_partitioned(&self, from: &str, to: &str) -> bool {
        self.faults
            .get(&(from.to_owned(), to.to_owned()))
            .is_some_and(|f| f.is_partitioned(self.now))
    }

    // ------------------------------------------------------------------
    // Traffic
    // ------------------------------------------------------------------

    /// Sends a message from one endpoint to another.
    ///
    /// The message always enters the in-flight set; loss and partitions are
    /// applied when it comes due in [`TransportHub::step`].  Pass a
    /// [`Payload`] directly to share an already-encoded buffer (the
    /// retransmission path does), or a `Vec<u8>` to wrap fresh bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::TransportClosed`] if either endpoint is unknown.
    pub fn send(&mut self, from: &str, to: &str, payload: impl Into<Payload>) -> Result<()> {
        let Some(from_slot) = self.endpoints.get(from) else {
            return Err(DynarError::TransportClosed(from.to_owned()));
        };
        let Some(to_slot) = self.endpoints.get(to) else {
            return Err(DynarError::TransportClosed(to.to_owned()));
        };
        self.stats.sent += 1;
        self.stats.in_flight += 1;

        let link = (from_slot, to_slot);
        let from_generation = self.endpoints.generation(from_slot);
        let to_generation = self.endpoints.generation(to_slot);
        let no_faults = self.compiled_faults.is_empty();
        let jitter = if no_faults {
            0
        } else {
            match self.compiled_faults.get(&link).map(|f| f.jitter_ticks) {
                Some(jitter) if jitter > 0 => link_rng(
                    &mut self.link_rngs,
                    self.config.seed,
                    (from_slot, from_generation, to_slot, to_generation),
                    from,
                    to,
                )
                .gen_range_u64(0, jitter + 1),
                _ => 0,
            }
        };
        let mut deliver_at = self.now.advance(self.config.latency_ticks + jitter);
        // FIFO clamp: needed once jitter can reorder a link — and kept alive
        // after the last fault clears, while jittered messages scheduled
        // into the future may still be in flight (the map only ever gains
        // entries while faults are installed, so the never-faulted fast path
        // skips it entirely).
        if !no_faults || !self.last_scheduled.is_empty() {
            match self.last_scheduled.entry(link) {
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    deliver_at = deliver_at.max(*entry.get());
                    entry.insert(deliver_at);
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    // Only track fresh links while faults are installed; a
                    // fault-free link's schedule is monotone by construction.
                    if !no_faults {
                        entry.insert(deliver_at);
                    }
                }
            }
        }
        self.next_due = Some(match self.next_due {
            Some(due) => due.min(deliver_at),
            None => deliver_at,
        });
        let from_name = Arc::clone(self.endpoints.name_of(from_slot).expect("slot is live"));
        let to_name = Arc::clone(self.endpoints.name_of(to_slot).expect("slot is live"));
        self.in_flight.push(InFlight {
            from_name,
            to_name,
            from: from_slot,
            to: to_slot,
            to_generation,
            from_generation,
            payload: payload.into(),
            deliver_at,
        });
        Ok(())
    }

    /// Advances the hub to `now`, resolving every message whose latency has
    /// elapsed: messages on a partitioned link or picked by the loss model
    /// are counted as lost, messages towards an unregistered mailbox as
    /// dropped, everything else is delivered.
    ///
    /// A quiescent step — nothing due — is O(1) and allocation-free; a busy
    /// step compacts the in-flight queue in place through a reused scratch
    /// buffer instead of reallocating it.
    pub fn step(&mut self, now: Tick) {
        self.now = now;
        if self.in_flight.is_empty() {
            // Quiescent: retire fault entries that can never act again — a
            // healed or expired partition with no loss/jitter override is a
            // structural no-op (heal() clears the field; expiry is decided
            // against the monotone clock).  Without this, one partition
            // would keep `compiled_faults` non-empty forever and the
            // clamp-free send fast path would never return.
            if !self.faults.is_empty() {
                let before = self.faults.len();
                self.faults.retain(|_, fault| {
                    fault.loss_probability.is_some()
                        || fault.jitter_ticks > 0
                        || fault.partition_until.is_some_and(|until| until > now)
                });
                if self.faults.len() != before {
                    self.recompile_faults();
                }
            }
            // Any surviving FIFO-clamp entries are provably inert (every
            // recorded delivery time has passed), so drop them too.
            if self.compiled_faults.is_empty() && !self.last_scheduled.is_empty() {
                self.last_scheduled.clear();
            }
            return;
        }
        if self.next_due.is_some_and(|due| due > now) {
            return;
        }
        let mut scratch = std::mem::take(&mut self.in_flight_scratch);
        debug_assert!(scratch.is_empty());
        std::mem::swap(&mut self.in_flight, &mut scratch);
        let mut next_due: Option<Tick> = None;
        let no_faults = self.compiled_faults.is_empty();
        for message in scratch.drain(..) {
            if message.deliver_at > now {
                next_due = Some(match next_due {
                    Some(due) => due.min(message.deliver_at),
                    None => message.deliver_at,
                });
                self.in_flight.push(message);
                continue;
            }
            self.stats.in_flight -= 1;
            let fault = if no_faults {
                None
            } else {
                self.compiled_faults.get(&(message.from, message.to))
            };
            if fault.is_some_and(|f| f.is_partitioned(now)) {
                self.stats.lost += 1;
                continue;
            }
            let loss = fault
                .and_then(|f| f.loss_probability)
                .unwrap_or(self.config.loss_probability);
            if loss > 0.0
                && link_rng(
                    &mut self.link_rngs,
                    self.config.seed,
                    (
                        message.from,
                        message.from_generation,
                        message.to,
                        message.to_generation,
                    ),
                    &message.from_name,
                    &message.to_name,
                )
                .gen_bool(loss.clamp(0.0, 1.0))
            {
                self.stats.lost += 1;
                continue;
            }
            let live = self.endpoints.generation(message.to) == message.to_generation;
            match self.mailboxes[message.to.index()].as_mut().filter(|_| live) {
                Some(mailbox) => {
                    mailbox.push_back((message.from_name, message.payload));
                    self.stats.delivered += 1;
                }
                None => {
                    self.stats.dropped += 1;
                    // Bounded: a hub whose owner never drains the feedback
                    // (single-vehicle worlds, device tests) must not leak one
                    // name per dropped message forever.  Past the cap the
                    // ledger still counts; only the redundant names go.
                    if self.dropped_destinations.len() < DROPPED_FEEDBACK_CAP {
                        self.dropped_destinations.push(message.to_name);
                    }
                }
            }
        }
        self.next_due = next_due;
        self.in_flight_scratch = scratch;
    }

    /// Drains every message delivered to `endpoint` into `into`, as
    /// `(sender, payload)` pairs in delivery order, without allocating:
    /// callers reuse their buffer across ticks.  An empty mailbox leaves
    /// `into` untouched.
    pub fn drain_into(&mut self, endpoint: &str, into: &mut Vec<(EndpointName, Payload)>) {
        if let Some(handle) = self.endpoint_handle(endpoint) {
            self.drain_handle_into(handle, into);
        }
    }

    /// Resolves a registered endpoint to its slot and current generation.
    pub fn endpoint_handle(&self, endpoint: &str) -> Option<EndpointHandle> {
        let slot = self.endpoints.get(endpoint)?;
        Some(EndpointHandle {
            slot,
            generation: self.endpoints.generation(slot),
        })
    }

    /// Drains the mailbox behind `handle` into `into`; `false` (nothing
    /// drained) when the handle is stale.  See
    /// [`Transport::drain_handle_into`].
    pub fn drain_handle_into(
        &mut self,
        handle: EndpointHandle,
        into: &mut Vec<(EndpointName, Payload)>,
    ) -> bool {
        let index = handle.slot.index();
        if self.endpoints.generations.get(index) != Some(&handle.generation) {
            return false;
        }
        if let Some(mailbox) = self.mailboxes[index].as_mut() {
            into.extend(mailbox.drain(..));
        }
        true
    }

    /// Number of messages waiting for `endpoint`.
    pub fn pending_for(&self, endpoint: &str) -> usize {
        self.endpoints
            .get(endpoint)
            .and_then(|slot| self.mailboxes[slot.index()].as_ref())
            .map(VecDeque::len)
            .unwrap_or(0)
    }

    /// Number of accepted messages that have not come due yet.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Drains the names of destinations whose in-flight messages were dropped
    /// because the endpoint unregistered (one entry per dropped message,
    /// delivery order).  Silently counting `dropped` is enough for the
    /// ledger, but not for the sender: the trusted server uses this feedback
    /// to park traffic towards a departed vehicle instead of burning its
    /// retry budget against a void.  Returns an empty vector — without
    /// allocating — when nothing was dropped.
    pub fn take_dropped_destinations(&mut self) -> Vec<EndpointName> {
        std::mem::take(&mut self.dropped_destinations)
    }

    /// Width of the dense endpoint tables (live + freed slots): bounded by
    /// the high-water mark of simultaneously registered endpoints, not by
    /// register/unregister churn.
    pub fn endpoint_slot_capacity(&self) -> usize {
        self.endpoints.capacity()
    }
}

impl Transport for TransportHub {
    fn register(&mut self, name: &str) {
        TransportHub::register(self, name);
    }

    fn unregister(&mut self, name: &str) -> bool {
        TransportHub::unregister(self, name)
    }

    fn is_registered(&self, name: &str) -> bool {
        TransportHub::is_registered(self, name)
    }

    fn send(&mut self, from: &str, to: &str, payload: Payload) -> Result<()> {
        TransportHub::send(self, from, to, payload)
    }

    fn step(&mut self, now: Tick) {
        TransportHub::step(self, now);
    }

    fn drain_into(&mut self, endpoint: &str, into: &mut Vec<(EndpointName, Payload)>) {
        TransportHub::drain_into(self, endpoint, into);
    }

    fn pending_for(&self, endpoint: &str) -> usize {
        TransportHub::pending_for(self, endpoint)
    }

    fn endpoint_handle(&self, endpoint: &str) -> Option<EndpointHandle> {
        TransportHub::endpoint_handle(self, endpoint)
    }

    fn drain_handle_into(
        &mut self,
        handle: EndpointHandle,
        into: &mut Vec<(EndpointName, Payload)>,
    ) -> bool {
        TransportHub::drain_handle_into(self, handle, into)
    }

    fn stats(&self) -> TransportStats {
        TransportHub::stats(self)
    }

    fn take_dropped_destinations(&mut self) -> Vec<EndpointName> {
        TransportHub::take_dropped_destinations(self)
    }

    /// The hub *is* the deterministic fault-injection backend.
    fn fault_injection(&mut self) -> Option<&mut dyn FaultInjection> {
        Some(self)
    }
}

impl FaultInjection for TransportHub {
    fn set_link_fault(&mut self, from: &str, to: &str, fault: LinkFault) {
        TransportHub::set_link_fault(self, from, to, fault);
    }

    fn clear_link_fault(&mut self, from: &str, to: &str) {
        TransportHub::clear_link_fault(self, from, to);
    }

    fn link_fault(&self, from: &str, to: &str) -> Option<&LinkFault> {
        TransportHub::link_fault(self, from, to)
    }

    fn partition(&mut self, a: &str, b: &str, heal_at: Tick) {
        TransportHub::partition(self, a, b, heal_at);
    }

    fn heal(&mut self, a: &str, b: &str) {
        TransportHub::heal(self, a, b);
    }

    fn is_partitioned(&self, from: &str, to: &str) -> bool {
        TransportHub::is_partitioned(self, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> TransportHub {
        let mut hub = TransportHub::new(TransportConfig::default());
        hub.register("a");
        hub.register("b");
        hub
    }

    fn received(hub: &mut TransportHub, endpoint: &str) -> Vec<(String, Vec<u8>)> {
        hub.drain(endpoint)
            .into_iter()
            .map(|(from, payload)| (from.as_ref().to_owned(), payload.as_slice().to_vec()))
            .collect()
    }

    #[test]
    fn stale_handles_drain_nothing_and_re_resolve_after_re_registration() {
        let mut hub = hub();
        let handle = hub.endpoint_handle("b").expect("registered");
        hub.send("a", "b", vec![1]).unwrap();
        hub.step(Tick::new(1));
        let mut inbox = Vec::new();
        assert!(hub.drain_handle_into(handle, &mut inbox), "live handle");
        assert_eq!(inbox.len(), 1);
        inbox.clear();

        // Unregister "b" and let another endpoint take its freed slot: the
        // old handle must neither drain the newcomer's mailbox nor pass as
        // live.
        assert!(hub.unregister("b"));
        hub.register("c");
        hub.send("a", "c", vec![2]).unwrap();
        hub.step(Tick::new(2));
        assert!(
            !hub.drain_handle_into(handle, &mut inbox),
            "stale after unregister"
        );
        assert!(inbox.is_empty(), "a stale handle drains nothing");
        assert_eq!(
            hub.pending_for("c"),
            1,
            "the slot's new tenant keeps its mail"
        );
        assert_eq!(
            hub.endpoint_handle("b"),
            None,
            "unregistered names do not resolve"
        );

        // Re-registering the same name does not revive the old handle;
        // re-resolving by name does reach the new mailbox.
        hub.register("b");
        hub.send("a", "b", vec![3]).unwrap();
        hub.step(Tick::new(3));
        assert!(!hub.drain_handle_into(handle, &mut inbox), "still stale");
        assert!(inbox.is_empty());
        let fresh = hub.endpoint_handle("b").expect("registered again");
        assert_ne!(fresh, handle);
        assert!(hub.drain_handle_into(fresh, &mut inbox));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.as_slice(), &[3]);
    }

    #[test]
    fn messages_flow_between_registered_endpoints() {
        let mut hub = hub();
        hub.send("a", "b", vec![1, 2]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(received(&mut hub, "b"), vec![("a".to_string(), vec![1, 2])]);
        assert!(hub.drain("b").is_empty());
        assert_eq!(hub.stats().delivered, 1);
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let mut hub = hub();
        assert!(hub.send("a", "ghost", vec![]).is_err());
        assert!(hub.send("ghost", "a", vec![]).is_err());
        assert!(!hub.is_registered("ghost"));
    }

    #[test]
    fn latency_delays_delivery() {
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 5,
            ..TransportConfig::default()
        });
        hub.register("a");
        hub.register("b");
        hub.send("a", "b", vec![9]).unwrap();
        hub.step(Tick::new(4));
        assert_eq!(hub.pending_for("b"), 0);
        assert_eq!(hub.in_flight_count(), 1);
        hub.step(Tick::new(5));
        assert_eq!(hub.pending_for("b"), 1);
        assert_eq!(hub.in_flight_count(), 0);
    }

    #[test]
    fn loss_model_is_reproducible_and_applied_at_delivery_time() {
        let run = |seed| {
            let mut hub = TransportHub::new(TransportConfig {
                loss_probability: 0.5,
                seed,
                ..TransportConfig::default()
            });
            hub.register("a");
            hub.register("b");
            for i in 0..100u8 {
                hub.send("a", "b", vec![i]).unwrap();
            }
            // Loss is decided at delivery time: everything accepted is in
            // flight until the step resolves it.
            assert_eq!(hub.stats().lost, 0);
            assert_eq!(hub.stats().in_flight, 100);
            hub.step(Tick::new(1));
            assert!(hub.stats().is_conserved());
            assert_eq!(hub.stats().in_flight, 0);
            hub.stats().lost
        };
        assert_eq!(run(3), run(3));
        assert!(run(3) > 0);
    }

    #[test]
    fn ordering_is_preserved_per_destination() {
        let mut hub = hub();
        for i in 0..5u8 {
            hub.send("a", "b", vec![i]).unwrap();
        }
        hub.step(Tick::new(1));
        let payloads: Vec<u8> = hub.drain("b").into_iter().map(|(_, p)| p[0]).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn jitter_never_reorders_a_link() {
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 1,
            ..TransportConfig::default()
        });
        hub.register("a");
        hub.register("b");
        hub.set_link_fault("a", "b", LinkFault::jittery(7));
        for i in 0..40u8 {
            hub.send("a", "b", vec![i]).unwrap();
        }
        let mut received = Vec::new();
        for t in 1..=16u64 {
            hub.step(Tick::new(t));
            received.extend(hub.drain("b").into_iter().map(|(_, p)| p[0]));
        }
        assert_eq!(received.len(), 40, "jitter only delays, never loses");
        assert!(
            received.windows(2).all(|w| w[0] < w[1]),
            "per-link FIFO must survive jitter: {received:?}"
        );
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn unregistered_destinations_count_as_dropped() {
        let mut hub = hub();
        hub.send("a", "b", vec![1]).unwrap();
        assert!(hub.unregister("b"));
        hub.step(Tick::new(1));
        let stats = hub.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
        assert!(stats.is_conserved());
        assert!(!hub.unregister("b"), "already unregistered");
    }

    /// Unregister-while-outstanding is *surfaced*, not just counted: the
    /// dropped messages' destination names are reported back so the sender
    /// can park instead of retrying into a void.
    #[test]
    fn dropped_destinations_are_reported_to_the_sender_side() {
        let mut hub = hub();
        assert!(hub.take_dropped_destinations().is_empty());

        hub.send("a", "b", vec![1]).unwrap();
        hub.send("a", "b", vec![2]).unwrap();
        hub.unregister("b");
        hub.step(Tick::new(1));
        let dropped = hub.take_dropped_destinations();
        assert_eq!(dropped.len(), 2, "one entry per dropped message");
        assert!(dropped.iter().all(|name| name.as_ref() == "b"));
        assert!(
            hub.take_dropped_destinations().is_empty(),
            "feedback is drained exactly once"
        );

        // Delivered traffic produces no feedback.
        hub.register("b");
        hub.send("a", "b", vec![3]).unwrap();
        hub.step(Tick::new(2));
        assert!(hub.take_dropped_destinations().is_empty());
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn unregister_voids_in_flight_traffic_for_the_slot_successor() {
        let mut hub = hub();
        hub.send("a", "b", vec![0xB]).unwrap();

        // "b" leaves; "c" registers and (with slot reuse) may take b's slot.
        hub.unregister("b");
        hub.register("c");
        hub.send("a", "c", vec![0xC]).unwrap();
        hub.step(Tick::new(1));

        // The in-flight message for the departed "b" never reaches "c".
        assert_eq!(
            received(&mut hub, "c"),
            vec![("a".to_string(), vec![0xC])],
            "only c's own traffic arrives"
        );
        let stats = hub.stats();
        assert_eq!(stats.dropped, 1, "b's message is dropped, not misrouted");
        assert!(stats.is_conserved());
    }

    #[test]
    fn reregistered_endpoint_gets_a_fresh_mailbox_not_stale_messages() {
        let mut hub = hub();
        hub.send("a", "b", vec![1]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(hub.pending_for("b"), 1, "delivered but not yet drained");

        // Unregister with an undrained mailbox, then re-register: the new
        // incarnation must not see the old tenant's messages…
        hub.unregister("b");
        hub.register("b");
        assert_eq!(hub.pending_for("b"), 0);
        assert!(hub.drain("b").is_empty());

        // …but fresh traffic flows normally again.
        hub.send("a", "b", vec![2]).unwrap();
        hub.step(Tick::new(2));
        assert_eq!(received(&mut hub, "b"), vec![("a".to_string(), vec![2])]);
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn register_unregister_churn_keeps_slot_tables_bounded() {
        let mut hub = hub();
        for round in 0..100u32 {
            let name = format!("ecm-{round}");
            hub.register(&name);
            hub.send("a", &name, vec![round as u8]).unwrap();
            hub.step(Tick::new(u64::from(round) + 1));
            assert_eq!(hub.pending_for(&name), 1);
            hub.unregister(&name);
        }
        assert!(
            hub.endpoint_slot_capacity() <= 3,
            "churn reuses freed slots: capacity {}",
            hub.endpoint_slot_capacity()
        );
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn partition_loses_due_messages_until_it_heals() {
        let mut hub = hub();
        hub.partition("a", "b", Tick::new(10));
        hub.send("a", "b", vec![1]).unwrap();
        hub.send("b", "a", vec![2]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(hub.stats().lost, 2, "both directions are cut");
        assert!(hub.is_partitioned("a", "b"));

        // After the heal tick traffic flows again (same fault entries).
        hub.send("a", "b", vec![3]).unwrap();
        hub.step(Tick::new(10));
        assert!(!hub.is_partitioned("a", "b"));
        assert_eq!(received(&mut hub, "b"), vec![("a".to_string(), vec![3])]);
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn heal_clears_a_partition_early() {
        let mut hub = hub();
        hub.partition("a", "b", Tick::new(100));
        hub.heal("a", "b");
        hub.send("a", "b", vec![1]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(hub.stats().delivered, 1);
    }

    #[test]
    fn asymmetric_loss_hits_only_the_configured_direction() {
        let mut hub = hub();
        hub.set_link_fault("a", "b", LinkFault::lossy(1.0));
        for _ in 0..10 {
            hub.send("a", "b", vec![1]).unwrap();
            hub.send("b", "a", vec![2]).unwrap();
        }
        hub.step(Tick::new(1));
        let stats = hub.stats();
        assert_eq!(stats.lost, 10, "a→b drops everything");
        assert_eq!(stats.delivered, 10, "b→a is untouched");
        assert!(stats.is_conserved());
    }

    #[test]
    fn fifo_clamp_survives_clearing_the_jitter_fault() {
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 1,
            ..TransportConfig::default()
        });
        hub.register("a");
        hub.register("b");
        hub.set_link_fault("a", "b", LinkFault::jittery(20));
        // Jittered sends may be scheduled well into the future...
        for i in 0..10u8 {
            hub.send("a", "b", vec![i]).unwrap();
        }
        // ...then the fault is cleared while they are still in flight.  The
        // messages sent now (base latency only) must not overtake them.
        hub.clear_link_fault("a", "b");
        for i in 10..20u8 {
            hub.send("a", "b", vec![i]).unwrap();
        }
        let mut received = Vec::new();
        for t in 1..=32u64 {
            hub.step(Tick::new(t));
            received.extend(hub.drain("b").into_iter().map(|(_, p)| p[0]));
        }
        assert_eq!(received.len(), 20);
        assert!(
            received.windows(2).all(|w| w[0] < w[1]),
            "per-link FIFO must survive fault clearing: {received:?}"
        );
    }

    #[test]
    fn slot_reuse_does_not_inherit_the_predecessors_fifo_clamp() {
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 1,
            ..TransportConfig::default()
        });
        hub.register("a");
        hub.register("b");
        // Keep some fault installed so the clamp path stays active, and
        // schedule a far-future delivery on a -> b.
        hub.set_link_fault("a", "b", LinkFault::jittery(50));
        for _ in 0..32 {
            hub.send("a", "b", vec![1]).unwrap();
        }
        // b departs; c reuses the freed slot.  c's first message must be
        // delivered at base latency, not clamped to b's schedule.
        hub.unregister("b");
        hub.register("c");
        hub.send("a", "c", vec![9]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(
            hub.pending_for("c"),
            1,
            "c's traffic is not delayed by the departed endpoint's clamp"
        );
        assert!(hub.stats().is_conserved());
    }

    #[test]
    fn faults_installed_before_registration_apply_after_it() {
        let mut hub = TransportHub::new(TransportConfig::default());
        hub.set_link_fault("x", "y", LinkFault::lossy(1.0));
        hub.register("x");
        hub.register("y");
        hub.send("x", "y", vec![1]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(hub.stats().lost, 1, "pre-installed fault is live");
    }

    #[test]
    fn clear_link_fault_restores_the_global_model() {
        let mut hub = hub();
        hub.set_link_fault("a", "b", LinkFault::lossy(1.0));
        assert!(hub.link_fault("a", "b").is_some());
        hub.clear_link_fault("a", "b");
        hub.send("a", "b", vec![1]).unwrap();
        hub.step(Tick::new(1));
        assert_eq!(hub.stats().delivered, 1);
    }

    #[test]
    fn drain_into_reuses_the_caller_buffer() {
        let mut hub = hub();
        let mut buffer = Vec::new();
        hub.drain_into("b", &mut buffer);
        assert!(buffer.is_empty(), "empty mailbox leaves the buffer alone");

        hub.send("a", "b", vec![7]).unwrap();
        hub.step(Tick::new(1));
        hub.drain_into("b", &mut buffer);
        assert_eq!(buffer.len(), 1);
        assert_eq!(buffer[0].0.as_ref(), "a");
        assert_eq!(buffer[0].1, vec![7u8]);

        buffer.clear();
        hub.drain_into("ghost", &mut buffer);
        assert!(buffer.is_empty());
    }

    #[test]
    fn payloads_are_shared_not_copied() {
        let mut hub = hub();
        let payload = Payload::from(vec![1, 2, 3]);
        hub.send("a", "b", payload.clone()).unwrap();
        hub.step(Tick::new(1));
        let delivered = hub.drain("b");
        assert_eq!(delivered[0].1, payload);
        assert_eq!(
            delivered[0].1.as_slice().as_ptr(),
            payload.as_slice().as_ptr(),
            "delivery hands back the same buffer"
        );
    }

    #[test]
    fn conservation_holds_under_mixed_faults() {
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 2,
            loss_probability: 0.3,
            seed: 42,
        });
        hub.register("a");
        hub.register("b");
        hub.register("c");
        hub.set_link_fault("a", "c", LinkFault::jittery(3));
        hub.partition("b", "c", Tick::new(6));
        for t in 1..=20u64 {
            hub.send("a", "b", vec![t as u8]).unwrap();
            hub.send("a", "c", vec![t as u8]).unwrap();
            hub.send("b", "c", vec![t as u8]).unwrap();
            hub.step(Tick::new(t));
            assert!(hub.stats().is_conserved(), "tick {t}: {:?}", hub.stats());
            hub.drain("b");
            hub.drain("c");
        }
        hub.step(Tick::new(40));
        let stats = hub.stats();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.sent, stats.delivered + stats.lost + stats.dropped);
    }
}

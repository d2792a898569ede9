//! The ECM gateway component behaviour.
//!
//! Besides relaying management messages and external data, the gateway is
//! the vehicle-side half of the federation reliability plane: every downlink
//! carries a sequence id, and the gateway keeps a bounded window of recently
//! seen ids together with the acknowledgements they produced.  A duplicate
//! delivery (the trusted server retransmitting an unacked package) is *not*
//! re-applied — reinstall-on-retry stays idempotent — but its cached
//! acknowledgements are replayed, so a lost uplink ack is recovered by the
//! next retransmission.  Duplicates older than the window itself
//! (`highest_seen - DEDUP_WINDOW`) are rejected outright: their cached acks
//! are gone, but re-applying them would break idempotence, so they are
//! dropped and the server's newer state wins.
//!
//! # Boot epochs and recovery
//!
//! The dedup window and the installed plug-ins are *volatile*: a vehicle
//! reboot loses both.  Every gateway therefore carries a **boot epoch**
//! ([`EcmConfig::boot_epoch`], bumped by the harness on every reboot) and
//! rejects downlinks stamped with any other epoch — a straggler
//! retransmission from before the reboot can never be double-applied against
//! the empty window.  A rebooted gateway (epoch > 0) announces itself with a
//! [`ManagementMessage::StateReport`] listing what is actually installed
//! (nothing, right after boot) and keeps re-announcing every
//! [`ANNOUNCE_PERIOD_TICKS`] until the first downlink of its own epoch
//! proves the trusted server has resynced; the server then reconciles the
//! vehicle from truth instead of from its stale bookkeeping.
//!
//! # Server incarnations
//!
//! The trusted server carries the mirror-image epoch: a **server incarnation
//! id** stamped on every downlink envelope, bumped when a crashed server is
//! replayed from its journal.  The gateway tracks the highest incarnation it
//! has seen; downlinks from a *lower* incarnation are stragglers from before
//! the crash and are rejected before the dedup-replay check (their cached
//! acks must not settle post-restart operations), while the first downlink
//! from a *higher* incarnation triggers an unsolicited state report so the
//! restarted server resyncs from vehicle ground truth.
//!
//! Cached acknowledgements are stored as already-encoded [`Payload`] buffers:
//! caching, queueing and every replay share one allocation, and a replayed
//! ack is byte-identical to the original by construction.  The per-tick poll
//! paths drain the transport through a reused buffer and read SW-C ports by
//! pre-resolved ids, so a quiescent gateway pass allocates nothing.
//!
//! A quiescent pass also hashes nothing: the gateway drains its own mailbox
//! through an [`EndpointHandle`] resolved once (and re-resolved by name only
//! when the transport reports it stale after an unregister/re-register), and
//! it locks its PIRTE once for the pass — the plug-in pass and the direct
//! outputs share one lock.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dynar_core::context::ExternalRoute;
use dynar_core::message::{DownlinkEnvelope, ManagementMessage};
use dynar_core::pirte::{Pirte, SwcOutput};
use dynar_core::swc::{PluginSwc, PluginSwcConfig, ResolvedPorts, SharedPirte};
use dynar_fes::device::{decode_device_message, encode_device_message};
use dynar_fes::transport::{EndpointHandle, EndpointName, SharedTransport};
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, EcuId, PluginId, PluginPortId, PortId};
use dynar_foundation::payload::Payload;
use dynar_foundation::value::Value;
use dynar_rte::component::{ComponentBehavior, RteContext, SwcDescriptor};

/// A shared handle to the external transport, used by the ECM and the
/// simulation harness.  The gateway only sees the [`Transport`] trait, so
/// the deterministic hub and the UDP wire backend are interchangeable here.
///
/// [`Transport`]: dynar_fes::transport::Transport
pub type SharedHub = SharedTransport;

/// How many downlink sequence ids the gateway remembers for deduplication;
/// ids older than `highest_seen - DEDUP_WINDOW` are pruned.
///
/// The window is counted in *sequence ids*, not ticks: it must exceed the
/// number of downlink packages the server can push to one vehicle while any
/// earlier package is still being retransmitted (bounded by concurrent
/// pending operations × plug-ins per operation, plus restore pushes — far
/// below 1024 for every workload in this repository).  An evicted id would
/// let a still-in-flight retransmission be re-applied as a fresh downlink.
pub const DEDUP_WINDOW: u64 = 1024;

/// How often (in runnable passes) a rebooted gateway re-announces its
/// [`ManagementMessage::StateReport`] until the trusted server confirms the
/// new boot epoch with a downlink.  The announcement travels over the lossy
/// uplink, so a single shot could strand the vehicle offline forever.
pub const ANNOUNCE_PERIOD_TICKS: u64 = 25;

/// Sends the gateway could not make, counted by reason.  The gateway is
/// boxed into its ECU once wired, so harnesses read the counts through the
/// shared handle [`EcmSwc::send_failures`] returns.
#[derive(Debug, Default)]
pub struct SendFailures {
    uplink: AtomicU64,
    device: AtomicU64,
    remote_forward: AtomicU64,
}

/// A reading of [`SendFailures`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendFailureCounts {
    /// Uplinks to the trusted server the transport refused (for instance
    /// because the gateway's own endpoint is not registered on its hub).
    pub uplink: u64,
    /// Messages to external devices the transport refused.
    pub device: u64,
    /// External data that could not be relayed to a remote ECU's plug-in
    /// SW-C over its type I port.
    pub remote_forward: u64,
}

impl SendFailureCounts {
    /// Failures of every reason.
    pub fn total(&self) -> u64 {
        self.uplink + self.device + self.remote_forward
    }
}

impl std::ops::AddAssign for SendFailureCounts {
    fn add_assign(&mut self, other: Self) {
        self.uplink += other.uplink;
        self.device += other.device;
        self.remote_forward += other.remote_forward;
    }
}

impl SendFailures {
    /// The counts so far.
    pub fn counts(&self) -> SendFailureCounts {
        SendFailureCounts {
            uplink: self.uplink.load(Ordering::Relaxed),
            device: self.device.load(Ordering::Relaxed),
            remote_forward: self.remote_forward.load(Ordering::Relaxed),
        }
    }

    fn note(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Bookkeeping for one downlink sequence id the gateway has applied.
#[derive(Debug, Clone)]
struct SeenDownlink {
    /// The plug-in the downlink addressed (used to attach remote acks).
    plugin: Option<PluginId>,
    /// Encoded uplink responses the downlink produced, replayed verbatim on
    /// duplicates (same shared buffer as the original send).
    acks: Vec<Payload>,
}

/// Static configuration of the ECM SW-C.
#[derive(Debug, Clone)]
pub struct EcmConfig {
    /// The plug-in SW-C configuration of the ECM itself (the ECM hosts
    /// plug-ins such as the COM plug-in of the demonstrator).
    pub swc: PluginSwcConfig,
    /// The ECM's own endpoint name on the external transport.
    pub own_endpoint: String,
    /// The trusted server's endpoint name, pre-defined by the OEM (§3.2).
    pub server_endpoint: String,
    /// SW-C port used to send management messages towards each remote ECU's
    /// plug-in SW-C (the provided half of each type I port pair).
    pub type_i_out: HashMap<EcuId, String>,
    /// SW-C ports on which acknowledgements and outbound data from remote
    /// plug-in SW-Cs arrive (the required half of each type I port pair).
    pub type_i_in: Vec<String>,
    /// The vehicle's boot epoch: 0 at the factory boot, bumped on every
    /// reboot.  Downlinks stamped with any other epoch are rejected.
    pub boot_epoch: u32,
}

impl EcmConfig {
    /// Creates an ECM configuration with no remote plug-in SW-Cs.
    pub fn new(
        swc: PluginSwcConfig,
        own_endpoint: impl Into<String>,
        server_endpoint: impl Into<String>,
    ) -> Self {
        EcmConfig {
            swc,
            own_endpoint: own_endpoint.into(),
            server_endpoint: server_endpoint.into(),
            type_i_out: HashMap::new(),
            type_i_in: Vec::new(),
            boot_epoch: 0,
        }
    }

    /// Sets the boot epoch of this ECM incarnation (0 is the factory boot; a
    /// rebooted vehicle comes back with the next epoch and announces itself
    /// with a state report).
    #[must_use]
    pub fn with_boot_epoch(mut self, boot_epoch: u32) -> Self {
        self.boot_epoch = boot_epoch;
        self
    }

    /// Declares the type I SW-C port pair towards one remote plug-in SW-C.
    #[must_use]
    pub fn with_remote_swc(
        mut self,
        ecu: EcuId,
        out_port: impl Into<String>,
        in_port: impl Into<String>,
    ) -> Self {
        self.type_i_out.insert(ecu, out_port.into());
        self.type_i_in.push(in_port.into());
        self
    }

    /// Builds the AUTOSAR descriptor of the ECM SW-C: the plug-in SW-C ports
    /// of its own PIRTE plus the type I port pairs towards remote SW-Cs.
    ///
    /// # Errors
    ///
    /// Propagates configuration-validation errors.
    pub fn descriptor(&self) -> Result<SwcDescriptor> {
        use dynar_rte::port::{PortDirection, PortSpec};
        let mut descriptor = self.swc.descriptor()?;
        for port in self.type_i_out.values() {
            descriptor =
                descriptor.with_port(PortSpec::sender_receiver(port, PortDirection::Provided));
        }
        for port in &self.type_i_in {
            descriptor = descriptor.with_port(PortSpec::queued(port, PortDirection::Required, 32));
        }
        Ok(descriptor)
    }
}

/// The ECM component behaviour: a plug-in SW-C with an external
/// communication module.
#[derive(Debug)]
pub struct EcmSwc {
    ecu: EcuId,
    config: EcmConfig,
    pirte: SharedPirte,
    hub: SharedHub,
    pirte_inputs: Vec<String>,
    /// The PIRTE's SW-C ports resolved on the first runnable pass.
    resolved_ports: Option<ResolvedPorts>,
    /// `EcmConfig::type_i_in` resolved to `(config index, port id)` pairs on
    /// the first pass (unresolvable ports are warned about and skipped).
    resolved_type_i_in: Option<Vec<(usize, PortId)>>,
    /// `EcmConfig::type_i_out` ports resolved to ids on their first relay.
    type_i_out_ids: HashMap<EcuId, PortId>,
    /// The gateway's own mailbox, resolved on the first drain and again
    /// whenever the transport reports the handle stale.
    rx_handle: Option<EndpointHandle>,
    /// Reused drain buffer for the external transport mailbox.
    rx_scratch: Vec<(EndpointName, Payload)>,
    /// Reused drain buffer for the PIRTE outbox.
    outbox_scratch: Vec<(SwcOutput, Value)>,
    /// External routes learned from the ECCs of installed plug-ins.
    ecc_routes: Vec<ExternalRoute>,
    /// Encoded uplink messages waiting for the next runnable pass.
    pending_uplink: Vec<Payload>,
    /// Recently applied downlink sequence ids and their cached acks
    /// (bounded by [`DEDUP_WINDOW`]).
    seen_seqs: BTreeMap<u64, SeenDownlink>,
    /// The boot epoch of this gateway incarnation (copied from the config).
    boot_epoch: u32,
    /// Ground truth of the vehicle: every plug-in known to be installed
    /// (locally or on a remote ECU), maintained from the successful
    /// install/uninstall acknowledgements that pass through the gateway.
    /// Volatile — a reboot loses it, which is exactly what the state report
    /// tells the server.
    installed_plugins: BTreeMap<PluginId, (AppId, EcuId)>,
    /// `true` once a downlink of this gateway's own epoch arrived, proving
    /// the server knows the epoch (rebooted gateways re-announce until then).
    epoch_confirmed: bool,
    /// The highest trusted-server incarnation id seen on a downlink.  A
    /// *lower* incarnation is a straggler from before a server crash and is
    /// rejected outright (its cached acks must not settle post-restart ops);
    /// a *higher* one announces a restarted server, which is answered with an
    /// unsolicited state report so the replayed control plane can resync from
    /// vehicle ground truth.
    server_incarnation: u32,
    /// Runnable passes executed (drives the announce retransmission period).
    passes: u64,
    /// Sends that failed, by reason.
    send_failures: Arc<SendFailures>,
}

impl EcmSwc {
    /// Creates the ECM behaviour and the shared handle to its PIRTE.
    ///
    /// The ECM registers its own endpoint on the transport hub; the trusted
    /// server and external devices register theirs.
    pub fn create(ecu: EcuId, config: EcmConfig, hub: SharedHub) -> (Self, SharedPirte) {
        hub.lock().register(&config.own_endpoint);
        let pirte_inputs = config.swc.input_ports();
        let pirte: SharedPirte = Arc::new(Mutex::new(Pirte::new(ecu, config.swc.clone())));
        let boot_epoch = config.boot_epoch;
        (
            EcmSwc {
                ecu,
                config,
                pirte: Arc::clone(&pirte),
                hub,
                pirte_inputs,
                resolved_ports: None,
                resolved_type_i_in: None,
                type_i_out_ids: HashMap::new(),
                rx_handle: None,
                rx_scratch: Vec::new(),
                outbox_scratch: Vec::new(),
                ecc_routes: Vec::new(),
                pending_uplink: Vec::new(),
                seen_seqs: BTreeMap::new(),
                boot_epoch,
                installed_plugins: BTreeMap::new(),
                // The factory boot matches the trusted server's initial
                // assumption (epoch 0, nothing installed): no announcement
                // needed.  Rebooted incarnations must make themselves known.
                epoch_confirmed: boot_epoch == 0,
                server_incarnation: 0,
                passes: 0,
                send_failures: Arc::default(),
            },
            pirte,
        )
    }

    /// The boot epoch of this gateway incarnation.
    pub fn boot_epoch(&self) -> u32 {
        self.boot_epoch
    }

    /// The highest trusted-server incarnation id seen on a downlink (0 until
    /// the first downlink from a restarted server arrives).
    pub fn server_incarnation(&self) -> u32 {
        self.server_incarnation
    }

    /// The gateway's ground-truth inventory: every plug-in it knows to be
    /// installed across the vehicle, with its owning app and hosting ECU.
    pub fn installed_plugins(&self) -> &BTreeMap<PluginId, (AppId, EcuId)> {
        &self.installed_plugins
    }

    /// The shared handle to the ECM's own PIRTE.
    pub fn pirte(&self) -> SharedPirte {
        Arc::clone(&self.pirte)
    }

    /// The shared counters of the sends this gateway could not make.
    pub fn send_failures(&self) -> Arc<SendFailures> {
        Arc::clone(&self.send_failures)
    }

    /// The external routes currently known to the ECM.
    pub fn routes(&self) -> &[ExternalRoute] {
        &self.ecc_routes
    }

    fn remember_ecc(&mut self, message: &ManagementMessage) {
        if let ManagementMessage::Install(package) = message {
            if let Some(ecc) = &package.context.ecc {
                for route in ecc.routes() {
                    if !self.ecc_routes.contains(route) {
                        self.ecc_routes.push(route.clone());
                    }
                }
            }
        }
    }

    fn route_for_message(&self, message_id: &str) -> Option<&ExternalRoute> {
        self.ecc_routes.iter().find(|r| r.message_id == message_id)
    }

    fn route_for_port(&self, ecu: EcuId, port: PluginPortId) -> Option<&ExternalRoute> {
        self.ecc_routes
            .iter()
            .find(|r| r.ecu == ecu && r.port == port)
    }

    /// Encodes `message` once, sends it uplink and returns the shared buffer
    /// (for the dedup-replay cache).
    fn send_uplink(&self, message: &ManagementMessage) -> Payload {
        let payload: Payload = crate::protocol::encode_uplink(message).into();
        self.send_uplink_payload(&payload);
        payload
    }

    /// Sends an already-encoded uplink payload (a refcount bump, no copy).
    fn send_uplink_payload(&self, payload: &Payload) {
        let sent = self.hub.lock().send(
            &self.config.own_endpoint,
            &self.config.server_endpoint,
            payload.clone(),
        );
        if sent.is_err() {
            SendFailures::note(&self.send_failures.uplink);
        }
    }

    /// The plug-in a management message addresses, if any.
    fn plugin_of(message: &ManagementMessage) -> Option<PluginId> {
        match message {
            ManagementMessage::Install(package) => Some(package.plugin.clone()),
            ManagementMessage::Uninstall { plugin }
            | ManagementMessage::Stop { plugin }
            | ManagementMessage::Start { plugin } => Some(plugin.clone()),
            _ => None,
        }
    }

    /// Folds a passing acknowledgement into the gateway's ground-truth
    /// inventory of installed plug-ins.
    fn note_ack(&mut self, message: &ManagementMessage) {
        let ManagementMessage::Ack(ack) = message else {
            return;
        };
        match &ack.status {
            dynar_core::message::AckStatus::Installed => {
                self.installed_plugins
                    .insert(ack.plugin.clone(), (ack.app.clone(), ack.ecu));
            }
            dynar_core::message::AckStatus::Uninstalled => {
                self.installed_plugins.remove(&ack.plugin);
            }
            _ => {}
        }
    }

    /// Encodes and sends the current [`ManagementMessage::StateReport`]
    /// uplink, returning the shared buffer (for the dedup-replay cache).
    fn send_state_report(&self) -> Payload {
        let report = ManagementMessage::StateReport {
            boot_epoch: self.boot_epoch,
            plugins: self
                .installed_plugins
                .iter()
                .map(|(plugin, (app, ecu))| (plugin.clone(), app.clone(), *ecu))
                .collect(),
        };
        self.send_uplink(&report)
    }

    /// Applies a management message to the local PIRTE, returning the
    /// encoded responses it produced (already sent uplink).
    fn handle_local_management(&mut self, message: ManagementMessage) -> Vec<Payload> {
        let responses = self.pirte.lock().handle_management(message);
        let mut encoded = Vec::with_capacity(responses.len());
        for response in &responses {
            self.note_ack(response);
            encoded.push(self.send_uplink(response));
        }
        encoded
    }

    /// Relays a management message towards a remote plug-in SW-C: its
    /// `encoded` bytes travel as [`Value::Bytes`] over the type I port, so
    /// the receiving PIRTE is the only one to decode them again.
    ///
    /// Returns `Some(acks)` when the downlink was applied — either relayed
    /// (no synchronous acks) or answered with a failure acknowledgement
    /// (sent and returned for the dedup cache) because no type I route
    /// exists.  Returns `None` when the relay write failed transiently: the
    /// downlink was *not* applied and its sequence id must not be marked as
    /// seen, so the server's next retransmission gets to retry the relay.
    fn forward_to_remote(
        &mut self,
        ctx: &mut RteContext<'_>,
        target: EcuId,
        message: &ManagementMessage,
        encoded: &[u8],
    ) -> Option<Vec<Payload>> {
        match self.config.type_i_out.get(&target) {
            Some(port) => {
                let port_id = match self.type_i_out_ids.get(&target) {
                    Some(&id) => Ok(id),
                    None => ctx.port_id(port).inspect(|&id| {
                        self.type_i_out_ids.insert(target, id);
                    }),
                };
                let written =
                    port_id.and_then(|id| ctx.write_by_id(id, Value::Bytes(encoded.to_vec())));
                if let Err(err) = written {
                    self.pirte
                        .lock()
                        .log_warning(format!("failed to relay to {target}: {err}"));
                    return None;
                }
                Some(Vec::new())
            }
            None => {
                self.pirte
                    .lock()
                    .log_warning(format!("no type I port towards {target}"));
                let failure = ManagementMessage::Ack(dynar_core::message::Ack {
                    plugin: Self::plugin_of(message).unwrap_or_else(|| PluginId::new("unknown")),
                    app: match message {
                        ManagementMessage::Install(p) => p.app.clone(),
                        _ => dynar_foundation::ids::AppId::new(""),
                    },
                    ecu: self.ecu,
                    status: dynar_core::message::AckStatus::Failed(format!(
                        "ECM has no route to {target}"
                    )),
                });
                Some(vec![self.send_uplink(&failure)])
            }
        }
    }

    /// Records that `seq` was applied and prunes ids that fell out of the
    /// dedup window.
    fn remember_seq(&mut self, seq: u64, entry: SeenDownlink) {
        self.seen_seqs.insert(seq, entry);
        let horizon = seq.saturating_sub(DEDUP_WINDOW);
        while let Some((&oldest, _)) = self.seen_seqs.first_key_value() {
            if oldest >= horizon {
                break;
            }
            self.seen_seqs.remove(&oldest);
        }
    }

    /// Returns `true` if `seq` lies below the dedup horizon
    /// (`highest_seen - DEDUP_WINDOW`): its window entry — if it ever had one
    /// — has been pruned, so the duplicate can no longer be told apart from a
    /// fresh downlink.  Such sequences are **rejected**, not applied: their
    /// cached acks are gone, but re-applying would break idempotence, and the
    /// server has long since moved past them.
    fn below_dedup_horizon(&self, seq: u64) -> bool {
        match self.seen_seqs.last_key_value() {
            Some((&highest, _)) => seq < highest.saturating_sub(DEDUP_WINDOW),
            None => false,
        }
    }

    /// Attaches an acknowledgement arriving from a remote SW-C to the most
    /// recent downlink that addressed its plug-in and has no cached response
    /// yet, so a later duplicate delivery can replay it (`encoded` is the
    /// buffer the ack was — or is about to be — sent uplink as).
    fn cache_remote_ack(&mut self, message: &ManagementMessage, encoded: &Payload) {
        let ManagementMessage::Ack(ack) = message else {
            return;
        };
        if let Some(entry) = self
            .seen_seqs
            .values_mut()
            .rev()
            .find(|e| e.plugin.as_ref() == Some(&ack.plugin) && e.acks.is_empty())
        {
            entry.acks.push(encoded.clone());
        }
    }

    fn poll_external(&mut self, ctx: &mut RteContext<'_>) {
        // Drain through the reused scratch buffer: an idle tick touches no
        // allocator, a busy one reuses last tick's capacity.
        let mut messages = std::mem::take(&mut self.rx_scratch);
        debug_assert!(messages.is_empty());
        self.drain_own_mailbox(&mut messages);
        for (from, payload) in messages.drain(..) {
            if *from == *self.config.server_endpoint {
                // The full decode validates the envelope and its message;
                // a relay then forwards the message's own bytes.
                match DownlinkEnvelope::decode_with_message(&payload) {
                    Ok((envelope, message_bytes)) => {
                        let (target, seq, epoch, incarnation, message) = (
                            envelope.target,
                            envelope.seq,
                            envelope.boot_epoch,
                            envelope.incarnation,
                            envelope.message,
                        );
                        if epoch != self.boot_epoch {
                            // A straggler from another incarnation of this
                            // vehicle (usually a pre-reboot retransmission
                            // against our now-empty dedup window).  Never
                            // apply it: the server re-issues what it still
                            // wants under the current epoch after resyncing.
                            self.pirte.lock().log_warning(format!(
                                "rejecting downlink seq {seq} from boot epoch {epoch} \
                                 (current epoch {})",
                                self.boot_epoch
                            ));
                            continue;
                        }
                        if incarnation < self.server_incarnation {
                            // A straggler issued by a *previous* incarnation
                            // of the trusted server, delivered late.  Reject
                            // it before the dedup-replay check: even its
                            // cached acks must not be replayed, or a
                            // pre-crash settlement could be mistaken for an
                            // answer to a post-restart operation.
                            self.pirte.lock().log_warning(format!(
                                "rejecting downlink seq {seq} from server incarnation \
                                 {incarnation} (current incarnation {})",
                                self.server_incarnation
                            ));
                            continue;
                        }
                        if incarnation > self.server_incarnation {
                            // A restarted server is talking to us.  Remember
                            // the new incarnation and announce ground truth
                            // unsolicited, so the replayed control plane can
                            // reconcile from what is actually installed.
                            self.server_incarnation = incarnation;
                            self.send_state_report();
                        }
                        // The server demonstrably knows our epoch: stop
                        // re-announcing the post-reboot state report.
                        self.epoch_confirmed = true;
                        if let Some(seen) = self.seen_seqs.get(&seq) {
                            // Duplicate delivery (server retransmission):
                            // don't re-apply, replay the cached acks so a
                            // lost uplink is recovered (byte-identical shared
                            // buffers, no re-encoding).
                            for ack in &seen.acks {
                                self.send_uplink_payload(ack);
                            }
                            continue;
                        }
                        if self.below_dedup_horizon(seq) {
                            // Pruned past: this can only be a duplicate of a
                            // long-settled downlink.  Reject instead of
                            // re-applying it as if it were fresh.
                            self.pirte.lock().log_warning(format!(
                                "rejecting downlink seq {seq} below the dedup horizon"
                            ));
                            continue;
                        }
                        if matches!(message, ManagementMessage::StateReportRequest) {
                            let report = self.send_state_report();
                            self.remember_seq(
                                seq,
                                SeenDownlink {
                                    plugin: None,
                                    acks: vec![report],
                                },
                            );
                            continue;
                        }
                        self.remember_ecc(&message);
                        let plugin = Self::plugin_of(&message);
                        let applied = if target == self.ecu {
                            Some(self.handle_local_management(message))
                        } else {
                            self.forward_to_remote(ctx, target, &message, message_bytes)
                        };
                        // A transiently failed relay leaves the seq unseen:
                        // the next retransmission retries it.
                        if let Some(acks) = applied {
                            self.remember_seq(seq, SeenDownlink { plugin, acks });
                        }
                    }
                    Err(err) => self
                        .pirte
                        .lock()
                        .log_warning(format!("malformed downlink: {err}")),
                }
            } else {
                // Traffic from an external device (e.g. the smart phone).
                match decode_device_message(&payload) {
                    Ok((message_id, value)) => {
                        let Some(route) = self.route_for_message(&message_id).cloned() else {
                            self.pirte
                                .lock()
                                .log_warning(format!("no ECC route for message id {message_id}"));
                            continue;
                        };
                        let data = ManagementMessage::ExternalData {
                            port: route.port,
                            payload: value,
                        };
                        if route.ecu == self.ecu {
                            self.handle_local_management(data);
                        } else {
                            // External data is fire-and-forget: no seq, no
                            // retransmission, so a relay that fails, or has
                            // no type I port to go out on, is only counted.
                            let routed = self.config.type_i_out.contains_key(&route.ecu);
                            let relayed =
                                self.forward_to_remote(ctx, route.ecu, &data, &data.to_bytes());
                            if !routed || relayed.is_none() {
                                SendFailures::note(&self.send_failures.remote_forward);
                            }
                        }
                    }
                    Err(err) => self
                        .pirte
                        .lock()
                        .log_warning(format!("malformed device message from {from}: {err}")),
                }
            }
        }
        self.rx_scratch = messages;
    }

    /// Drains the gateway's own mailbox through its cached handle.  A stale
    /// or missing handle is re-resolved by name; backends without handles
    /// are drained by name.
    fn drain_own_mailbox(&mut self, into: &mut Vec<(EndpointName, Payload)>) {
        let mut hub = self.hub.lock();
        if let Some(handle) = self.rx_handle {
            if hub.drain_handle_into(handle, into) {
                return;
            }
        }
        self.rx_handle = hub.endpoint_handle(&self.config.own_endpoint);
        match self.rx_handle {
            Some(handle) => {
                hub.drain_handle_into(handle, into);
            }
            None => hub.drain_into(&self.config.own_endpoint, into),
        }
    }

    fn poll_remote_swcs(&mut self, ctx: &mut RteContext<'_>) {
        if self.resolved_type_i_in.is_none() {
            // Resolve once, keeping the configuration index alongside each
            // id so diagnostics name the right port; a port that fails to
            // resolve (a configuration error) is reported instead of being
            // silently dropped.
            let mut resolved = Vec::with_capacity(self.config.type_i_in.len());
            for (index, port) in self.config.type_i_in.iter().enumerate() {
                match ctx.port_id(port) {
                    Ok(id) => resolved.push((index, id)),
                    Err(err) => self
                        .pirte
                        .lock()
                        .log_warning(format!("cannot resolve type I port {port}: {err}")),
                }
            }
            self.resolved_type_i_in = Some(resolved);
        }
        // Take/restore around the loop: the resolved list cannot stay
        // borrowed while `self` handles the received messages.
        let resolved = self.resolved_type_i_in.take().expect("resolved above");
        for &(index, port_id) in &resolved {
            loop {
                let value = match ctx.receive_by_id(port_id) {
                    Ok(Some(value)) => value,
                    Ok(None) => break,
                    Err(err) => {
                        let port = &self.config.type_i_in[index];
                        self.pirte
                            .lock()
                            .log_warning(format!("failed to read {port}: {err}"));
                        break;
                    }
                };
                // Type I ports carry encoded messages: an ack is decoded
                // once, for the inventory and the replay cache, and its
                // bytes go uplink as they are.
                let Value::Bytes(bytes) = value else {
                    let port = &self.config.type_i_in[index];
                    self.pirte.lock().log_warning(format!(
                        "malformed uplink on {port}: expected an encoded message, found {}",
                        value.kind()
                    ));
                    continue;
                };
                match ManagementMessage::from_bytes(&bytes) {
                    Ok(message @ ManagementMessage::Ack(_)) => {
                        let encoded = Payload::from(bytes);
                        self.note_ack(&message);
                        self.cache_remote_ack(&message, &encoded);
                        self.pending_uplink.push(encoded);
                    }
                    Ok(ManagementMessage::OutboundData {
                        message_id,
                        payload,
                    }) => self.send_to_device(&message_id, &payload),
                    Ok(other) => self.pirte.lock().log_warning(format!(
                        "unexpected uplink message type {}",
                        other.type_id()
                    )),
                    Err(err) => {
                        let port = &self.config.type_i_in[index];
                        self.pirte
                            .lock()
                            .log_warning(format!("malformed uplink on {port}: {err}"));
                    }
                }
            }
        }
        self.resolved_type_i_in = Some(resolved);
        for payload in std::mem::take(&mut self.pending_uplink) {
            self.send_uplink_payload(&payload);
        }
    }

    fn send_to_device(&self, message_id: &str, payload: &dynar_foundation::value::Value) {
        let Some(route) = self.route_for_message(message_id) else {
            self.pirte
                .lock()
                .log_warning(format!("no ECC route for outbound message id {message_id}"));
            return;
        };
        let sent = self.hub.lock().send(
            &self.config.own_endpoint,
            &route.endpoint,
            encode_device_message(message_id, payload).into(),
        );
        if sent.is_err() {
            SendFailures::note(&self.send_failures.device);
        }
    }

    /// Sends the values local plug-ins wrote on directly linked ports to the
    /// external devices their ECC routes name.
    fn flush_local_direct_outputs(&self, outputs: Vec<(PluginId, PluginPortId, Value)>) {
        for (_plugin, port, value) in outputs {
            if let Some(route) = self.route_for_port(self.ecu, port) {
                let sent = self.hub.lock().send(
                    &self.config.own_endpoint,
                    &route.endpoint,
                    encode_device_message(&route.message_id, &value).into(),
                );
                if sent.is_err() {
                    SendFailures::note(&self.send_failures.device);
                }
            }
        }
    }
}

impl ComponentBehavior for EcmSwc {
    fn on_runnable(&mut self, _runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        // 0. Reboot recovery: a rebooted gateway (epoch > 0) announces its
        //    state report — retried every ANNOUNCE_PERIOD_TICKS over the
        //    lossy uplink — until a downlink of its own epoch proves the
        //    server has resynced.
        if !self.epoch_confirmed && self.passes.is_multiple_of(ANNOUNCE_PERIOD_TICKS) {
            self.send_state_report();
        }
        self.passes += 1;
        // 1. External world: trusted server and devices.
        self.poll_external(ctx);
        // 2. Acks and outbound data from remote plug-in SW-Cs.
        self.poll_remote_swcs(ctx);
        // 3. The ECM's own plug-ins (it is a plug-in SW-C itself), and the
        //    values they wrote on directly linked ports — under one lock.
        let direct_outputs = {
            let mut pirte = self.pirte.lock();
            if self.resolved_ports.is_none() {
                self.resolved_ports =
                    Some(ResolvedPorts::resolve(&pirte, &self.pirte_inputs, ctx)?);
            }
            let resolved = self.resolved_ports.as_ref().expect("resolved above");
            PluginSwc::pirte_pass(&mut pirte, resolved, &mut self.outbox_scratch, ctx)?;
            pirte.take_direct_outputs()
        };
        // 4. Outbound external data produced by local plug-ins.
        self.flush_local_direct_outputs(direct_outputs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynar_core::context::{
        ExternalConnectionContext, InstallationContext, LinkTarget, PortInitContext,
        PortLinkContext,
    };
    use dynar_core::message::{AckStatus, InstallationPackage};
    use dynar_core::plugin::PluginPortDirection;
    use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
    use dynar_fes::transport::{TransportConfig, TransportHub};
    use dynar_foundation::codec::decode_value;
    use dynar_foundation::ids::{AppId, PluginId, VirtualPortId};
    use dynar_foundation::time::Tick;
    use dynar_foundation::value::Value;
    use dynar_rte::ecu::Ecu;
    use dynar_vm::assembler::assemble;

    fn ecm_swc_config() -> PluginSwcConfig {
        PluginSwcConfig::new("ecm-swc").with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "PluginData",
            PortKind::TypeII,
            PortDataDirection::ToSystem,
            "s0_out",
        ))
    }

    fn hub() -> SharedHub {
        let mut hub = TransportHub::new(TransportConfig {
            latency_ticks: 0,
            ..TransportConfig::default()
        });
        hub.register("server");
        hub.register("phone");
        Arc::new(Mutex::new(hub))
    }

    /// Test-side downlink encoder returning a ready-to-send [`Payload`].
    fn encode_downlink(
        target: EcuId,
        seq: u64,
        boot_epoch: u32,
        incarnation: u32,
        message: &ManagementMessage,
    ) -> Payload {
        crate::protocol::encode_downlink(target, seq, boot_epoch, incarnation, message).into()
    }

    fn com_package() -> InstallationPackage {
        // COM receives external data on P0 (direct) and forwards it through
        // the type II virtual port V0 to remote port P0.
        let binary = assemble(
            "COM",
            r#"
        loop:
            port_pending 0
            push_int 0
            gt
            jump_if_false idle
            take_port 0
            write_port 1
            jump loop
        idle:
            yield
            jump loop
            "#,
        )
        .unwrap()
        .to_bytes();
        let context = InstallationContext::new(
            PortInitContext::new()
                .with_port(
                    "ext_in",
                    PluginPortId::new(0),
                    PluginPortDirection::Required,
                )
                .with_port("fwd", PluginPortId::new(1), PluginPortDirection::Provided),
            PortLinkContext::new()
                .with_link(PluginPortId::new(0), LinkTarget::Direct)
                .with_link(
                    PluginPortId::new(1),
                    LinkTarget::RemotePluginPort {
                        via: VirtualPortId::new(0),
                        remote: PluginPortId::new(0),
                    },
                ),
        )
        .with_ecc(ExternalConnectionContext::new().with_route(
            "phone",
            "Wheels",
            EcuId::new(1),
            PluginPortId::new(0),
        ));
        InstallationPackage::new(
            PluginId::new("COM"),
            AppId::new("remote-control"),
            binary,
            context,
        )
    }

    fn build_ecu(hub: &SharedHub) -> (Ecu, SharedPirte) {
        let mut ecu = Ecu::new(EcuId::new(1));
        let config = EcmConfig::new(ecm_swc_config(), "vehicle-1", "server").with_remote_swc(
            EcuId::new(2),
            "to_ecu2",
            "from_ecu2",
        );
        let descriptor = config.descriptor().unwrap();
        let (behavior, pirte) = EcmSwc::create(EcuId::new(1), config, Arc::clone(hub));
        ecu.add_component(descriptor, Box::new(behavior)).unwrap();
        (ecu, pirte)
    }

    #[test]
    fn downlink_install_for_own_ecu_is_applied_and_acked() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();

        assert_eq!(pirte.lock().plugin_count(), 1);
        hub.lock().step(Tick::new(2));
        let uplink = hub.lock().drain("server");
        assert_eq!(uplink.len(), 1);
        let message = crate::protocol::decode_uplink(&uplink[0].1).unwrap();
        match message {
            ManagementMessage::Ack(ack) => assert_eq!(ack.status, AckStatus::Installed),
            other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn downlink_for_remote_ecu_is_relayed_over_type_i_port() {
        let hub = hub();
        let (mut ecu, _pirte) = build_ecu(&hub);
        let package = ManagementMessage::Install(com_package());
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(EcuId::new(2), 0, 0, 0, &package),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();

        let ecm_swc = ecu.component_by_name("ecm-swc").unwrap();
        let relayed = ecu.rte().read_port_by_name(ecm_swc, "to_ecu2").unwrap();
        // The relay forwards the message's own bytes from the envelope.
        assert_eq!(relayed, Value::Bytes(package.to_bytes()));
    }

    /// A downlink whose message does not decode is rejected at the ECM with
    /// a typed error: nothing is relayed over the type I port and nothing
    /// goes uplink.
    #[test]
    fn malformed_downlink_for_a_remote_ecu_is_never_relayed() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);
        let valid = encode_downlink(
            EcuId::new(2),
            0,
            0,
            0,
            &ManagementMessage::Install(com_package()),
        );
        // Truncated, then a PIC port id past `u32::MAX` inside the package.
        let truncated = valid[..valid.len() - 1].to_vec();
        let mut out_of_range = Value::List(vec![
            Value::I64(2),
            Value::I64(1),
            Value::I64(0),
            Value::I64(0),
            decode_value(&ManagementMessage::Install(com_package()).to_bytes()).unwrap(),
        ]);
        let mut node = &mut out_of_range;
        for index in [4, 1, 3, 0, 0, 1] {
            let Value::List(items) = node else {
                unreachable!("the path leads through lists")
            };
            node = &mut items[index];
        }
        *node = Value::I64(i64::from(u32::MAX) + 1);
        for bytes in [
            truncated,
            dynar_foundation::codec::encode_value(&out_of_range),
        ] {
            assert!(matches!(
                crate::protocol::decode_downlink(&bytes),
                Err(dynar_foundation::error::DynarError::ProtocolViolation(_))
            ));
            hub.lock()
                .send("server", "vehicle-1", bytes.into())
                .unwrap();
        }
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(2));

        let ecm_swc = ecu.component_by_name("ecm-swc").unwrap();
        let relayed = ecu.rte().read_port_by_name(ecm_swc, "to_ecu2").unwrap();
        assert_eq!(relayed, Value::Void, "nothing relayed");
        assert!(ecu.drain_outbound().is_empty(), "nothing left the ECU");
        assert!(hub.lock().drain("server").is_empty(), "nothing went uplink");
        let warnings = pirte
            .lock()
            .log()
            .iter()
            .filter(|event| event.message.starts_with("malformed downlink"))
            .count();
        assert_eq!(warnings, 2);
    }

    #[test]
    fn downlink_for_unknown_ecu_reports_failure_to_server() {
        let hub = hub();
        let (mut ecu, _pirte) = build_ecu(&hub);
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(9),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(2));
        let uplink = hub.lock().drain("server");
        assert_eq!(uplink.len(), 1);
        match crate::protocol::decode_uplink(&uplink[0].1).unwrap() {
            ManagementMessage::Ack(ack) => assert!(matches!(ack.status, AckStatus::Failed(_))),
            other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn device_messages_follow_the_ecc_to_local_plugins() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);
        // Install COM locally (its ECC routes "Wheels" to P0 on this ECU).
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();

        // The phone sends a Wheels command.
        hub.lock()
            .send(
                "phone",
                "vehicle-1",
                encode_device_message("Wheels", &Value::F64(12.0)).into(),
            )
            .unwrap();
        hub.lock().step(Tick::new(2));
        ecu.run(3).unwrap();

        // COM forwarded it through the type II virtual port: the SW-C port
        // carries [recipient id, value].
        let ecm_swc = ecu.component_by_name("ecm-swc").unwrap();
        let forwarded = ecu.rte().read_port_by_name(ecm_swc, "s0_out").unwrap();
        assert_eq!(
            forwarded,
            Value::List(vec![Value::I64(0), Value::F64(12.0)])
        );
        assert!(pirte.lock().stats().signals_out >= 1);
    }

    #[test]
    fn acks_from_remote_swcs_are_forwarded_to_the_server() {
        let hub = hub();
        let (mut ecu, _pirte) = build_ecu(&hub);
        let ack = ManagementMessage::Ack(dynar_core::message::Ack {
            plugin: PluginId::new("OP"),
            app: AppId::new("remote-control"),
            ecu: EcuId::new(2),
            status: AckStatus::Installed,
        });
        // Simulate the remote SW-C's ack arriving on the ECM's inbound type I port.
        let ecm_swc = ecu.component_by_name("ecm-swc").unwrap();
        let frame = dynar_bus::frame::CanId::new(0x30).unwrap();
        ecu.map_signal_in(frame, ecm_swc, "from_ecu2").unwrap();
        ecu.deliver_inbound(frame, Value::Bytes(ack.to_bytes()));
        // A value tree is not an encoded message: logged, never forwarded.
        ecu.deliver_inbound(frame, decode_value(&ack.to_bytes()).unwrap());
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(1));
        let uplink = hub.lock().drain("server");
        assert_eq!(uplink.len(), 1);
        // The ack's bytes go uplink exactly as the remote PIRTE wrote them.
        assert_eq!(&*uplink[0].1, ack.to_bytes().as_slice());
        assert_eq!(crate::protocol::decode_uplink(&uplink[0].1).unwrap(), ack);
    }

    #[test]
    fn duplicate_downlinks_are_deduplicated_and_acks_replayed() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);
        let downlink = encode_downlink(
            EcuId::new(1),
            7,
            0,
            0,
            &ManagementMessage::Install(com_package()),
        );

        // First delivery installs and acks.
        hub.lock()
            .send("server", "vehicle-1", downlink.clone())
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        assert_eq!(pirte.lock().plugin_count(), 1);
        hub.lock().step(Tick::new(2));
        let first = hub.lock().drain("server");
        assert_eq!(first.len(), 1);

        // A retransmission of the same sequence id must not reinstall — the
        // PIRTE sees no second operation at all — but the cached ack is
        // replayed so the server converges even if the first ack was lost.
        hub.lock().send("server", "vehicle-1", downlink).unwrap();
        hub.lock().step(Tick::new(3));
        ecu.run(4).unwrap();
        assert_eq!(pirte.lock().plugin_count(), 1);
        assert_eq!(
            pirte.lock().stats().rejected_operations,
            0,
            "dedup must keep the duplicate away from the PIRTE"
        );
        assert_eq!(pirte.lock().stats().installs, 1);
        hub.lock().step(Tick::new(4));
        let replayed = hub.lock().drain("server");
        assert_eq!(replayed.len(), 1);
        assert_eq!(
            crate::protocol::decode_uplink(&replayed[0].1).unwrap(),
            crate::protocol::decode_uplink(&first[0].1).unwrap(),
            "the replayed ack is byte-identical to the original"
        );
    }

    #[test]
    fn remote_acks_are_cached_for_replay_on_duplicates() {
        let hub = hub();
        let (mut ecu, _pirte) = build_ecu(&hub);
        let package = ManagementMessage::Install(com_package());
        let downlink = encode_downlink(EcuId::new(2), 3, 0, 0, &package);

        // First delivery relays towards ECU 2.
        hub.lock()
            .send("server", "vehicle-1", downlink.clone())
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();

        // A duplicate before the remote ack exists is swallowed silently.
        hub.lock()
            .send("server", "vehicle-1", downlink.clone())
            .unwrap();
        hub.lock().step(Tick::new(2));
        ecu.run(3).unwrap();
        hub.lock().step(Tick::new(3));
        assert!(hub.lock().drain("server").is_empty());

        // The remote SW-C acks; the gateway forwards and caches it.
        let ack = ManagementMessage::Ack(dynar_core::message::Ack {
            plugin: PluginId::new("COM"),
            app: AppId::new("remote-control"),
            ecu: EcuId::new(2),
            status: AckStatus::Installed,
        });
        let ecm_swc = ecu.component_by_name("ecm-swc").unwrap();
        let frame = dynar_bus::frame::CanId::new(0x30).unwrap();
        ecu.map_signal_in(frame, ecm_swc, "from_ecu2").unwrap();
        ecu.deliver_inbound(frame, Value::Bytes(ack.to_bytes()));
        ecu.run(4).unwrap();
        hub.lock().step(Tick::new(4));
        assert_eq!(hub.lock().drain("server").len(), 1);

        // Another duplicate now replays the cached remote ack.
        hub.lock().send("server", "vehicle-1", downlink).unwrap();
        hub.lock().step(Tick::new(5));
        ecu.run(5).unwrap();
        hub.lock().step(Tick::new(6));
        let replayed = hub.lock().drain("server");
        assert_eq!(replayed.len(), 1);
        assert_eq!(crate::protocol::decode_uplink(&replayed[0].1).unwrap(), ack);
    }

    fn build_ecu_with_epoch(hub: &SharedHub, boot_epoch: u32) -> (Ecu, SharedPirte) {
        let mut ecu = Ecu::new(EcuId::new(1));
        let config = EcmConfig::new(ecm_swc_config(), "vehicle-1", "server")
            .with_boot_epoch(boot_epoch)
            .with_remote_swc(EcuId::new(2), "to_ecu2", "from_ecu2");
        let descriptor = config.descriptor().unwrap();
        let (behavior, pirte) = EcmSwc::create(EcuId::new(1), config, Arc::clone(hub));
        ecu.add_component(descriptor, Box::new(behavior)).unwrap();
        (ecu, pirte)
    }

    fn uplinks(hub: &SharedHub) -> Vec<ManagementMessage> {
        hub.lock()
            .drain("server")
            .iter()
            .map(|(_, payload)| crate::protocol::decode_uplink(payload).unwrap())
            .collect()
    }

    /// Regression (boot epochs): a downlink stamped with another incarnation's
    /// epoch — a straggler retransmission from before a reboot — must be
    /// rejected, not applied against the rebooted gateway's empty dedup
    /// window.
    #[test]
    fn old_epoch_downlinks_are_rejected_not_applied() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu_with_epoch(&hub, 1);

        // A pre-reboot (epoch 0) install arrives: dropped, no ack.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        assert_eq!(pirte.lock().plugin_count(), 0, "old-epoch install rejected");
        hub.lock().step(Tick::new(2));
        assert!(
            uplinks(&hub)
                .iter()
                .all(|m| !matches!(m, ManagementMessage::Ack(_))),
            "no acknowledgement for a rejected downlink"
        );

        // The same package re-issued under the current epoch applies.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    1,
                    1,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(3));
        ecu.run(2).unwrap();
        assert_eq!(pirte.lock().plugin_count(), 1);
    }

    /// A send the transport refuses is counted by reason, not dropped
    /// without a trace.
    #[test]
    fn refused_uplinks_are_counted_not_dropped_silently() {
        let hub = hub();
        let mut ecu = Ecu::new(EcuId::new(1));
        let config = EcmConfig::new(ecm_swc_config(), "vehicle-1", "server").with_boot_epoch(1);
        let descriptor = config.descriptor().unwrap();
        let (behavior, _pirte) = EcmSwc::create(EcuId::new(1), config, Arc::clone(&hub));
        let failures = behavior.send_failures();
        ecu.add_component(descriptor, Box::new(behavior)).unwrap();

        // A rebooted gateway announces itself on its first pass; with its
        // own endpoint gone, the transport refuses the uplink.
        assert!(hub.lock().unregister("vehicle-1"));
        ecu.run(1).unwrap();
        assert_eq!(
            failures.counts(),
            SendFailureCounts {
                uplink: 1,
                ..SendFailureCounts::default()
            }
        );

        // Registered again, the next announcement goes through.
        hub.lock().register("vehicle-1");
        ecu.run(ANNOUNCE_PERIOD_TICKS).unwrap();
        hub.lock().step(Tick::new(1));
        assert_eq!(uplinks(&hub).len(), 1);
        assert_eq!(failures.counts().total(), 1);
    }

    /// External data for a remote ECU the gateway has no type I port
    /// towards cannot be relayed, and is counted like a refused send.
    #[test]
    fn unroutable_external_data_is_counted() {
        let hub = hub();
        let mut ecu = Ecu::new(EcuId::new(1));
        let config = EcmConfig::new(ecm_swc_config(), "vehicle-1", "server").with_remote_swc(
            EcuId::new(2),
            "to_ecu2",
            "from_ecu2",
        );
        let descriptor = config.descriptor().unwrap();
        let (behavior, _pirte) = EcmSwc::create(EcuId::new(1), config, Arc::clone(&hub));
        let failures = behavior.send_failures();
        ecu.add_component(descriptor, Box::new(behavior)).unwrap();

        // A package for ECU 2 whose ECC routes one message to ECU 2 (reached
        // over the type I port) and one to ECU 9 (no port towards it).
        let mut package = com_package();
        package.context.ecc = Some(
            ExternalConnectionContext::new()
                .with_route("phone", "Wheels", EcuId::new(2), PluginPortId::new(0))
                .with_route("phone", "Horn", EcuId::new(9), PluginPortId::new(0)),
        );
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(EcuId::new(2), 0, 0, 0, &ManagementMessage::Install(package)),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        assert_eq!(failures.counts().total(), 0);

        for message_id in ["Wheels", "Horn"] {
            hub.lock()
                .send(
                    "phone",
                    "vehicle-1",
                    encode_device_message(message_id, &Value::F64(1.0)).into(),
                )
                .unwrap();
        }
        hub.lock().step(Tick::new(2));
        ecu.run(3).unwrap();
        assert_eq!(
            failures.counts(),
            SendFailureCounts {
                remote_forward: 1,
                ..SendFailureCounts::default()
            }
        );
    }

    /// A rebooted gateway (epoch > 0) announces its state report and keeps
    /// re-announcing every [`ANNOUNCE_PERIOD_TICKS`] until the first downlink
    /// of its own epoch confirms the server knows the new epoch.
    #[test]
    fn rebooted_gateway_announces_until_the_epoch_is_confirmed() {
        let hub = hub();
        let (mut ecu, _pirte) = build_ecu_with_epoch(&hub, 2);

        ecu.run(1).unwrap();
        hub.lock().step(Tick::new(1));
        let first = uplinks(&hub);
        assert_eq!(
            first,
            vec![ManagementMessage::StateReport {
                boot_epoch: 2,
                plugins: vec![],
            }],
            "boot announcement carries the new epoch and the (empty) truth"
        );

        // Unconfirmed: the announcement is retried after the period lapses.
        ecu.run(ANNOUNCE_PERIOD_TICKS).unwrap();
        hub.lock().step(Tick::new(2));
        assert_eq!(uplinks(&hub).len(), 1, "periodic re-announcement");

        // A downlink of the gateway's own epoch confirms; announcing stops.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    2,
                    0,
                    &ManagementMessage::StateReportRequest,
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(3));
        ecu.run(1).unwrap();
        hub.lock().step(Tick::new(4));
        // The request itself is answered...
        assert_eq!(uplinks(&hub).len(), 1);
        // ...but no further spontaneous announcements follow.
        ecu.run(3 * ANNOUNCE_PERIOD_TICKS).unwrap();
        hub.lock().step(Tick::new(5));
        assert!(
            uplinks(&hub).is_empty(),
            "announcing stopped once confirmed"
        );
    }

    /// The state report answers with the gateway's ground truth — plug-ins it
    /// saw installed via acknowledgements — and duplicates of the request
    /// replay the cached report.
    #[test]
    fn state_report_request_returns_the_installed_inventory() {
        let hub = hub();
        let (mut ecu, _pirte) = build_ecu(&hub);
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(2));
        let acks = uplinks(&hub);
        assert_eq!(acks.len(), 1, "install acked");

        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    1,
                    0,
                    0,
                    &ManagementMessage::StateReportRequest,
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(3));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(4));
        let reports = uplinks(&hub);
        assert_eq!(
            reports,
            vec![ManagementMessage::StateReport {
                boot_epoch: 0,
                plugins: vec![(
                    PluginId::new("COM"),
                    AppId::new("remote-control"),
                    EcuId::new(1),
                )],
            }]
        );
    }

    /// Regression (dedup horizon): a duplicate delivered *after* the window
    /// pruned past its sequence id used to be re-applied as a fresh downlink.
    /// Below-horizon sequences must be rejected; the id exactly *at* the
    /// horizon is still inside the window.
    #[test]
    fn below_horizon_duplicates_are_rejected_not_reapplied() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);
        let install = encode_downlink(
            EcuId::new(1),
            0,
            0,
            0,
            &ManagementMessage::Install(com_package()),
        );

        // Apply seq 0, then advance the window far past it.
        hub.lock()
            .send("server", "vehicle-1", install.clone())
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        assert_eq!(pirte.lock().stats().installs, 1);
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    DEDUP_WINDOW + 1,
                    0,
                    0,
                    &ManagementMessage::Stop {
                        plugin: PluginId::new("COM"),
                    },
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(2));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(3));
        hub.lock().drain("server");

        // seq 0 now lies below the horizon (highest 1025 - window 1024 = 1):
        // the duplicate is rejected — not re-applied, not acknowledged.
        hub.lock().send("server", "vehicle-1", install).unwrap();
        hub.lock().step(Tick::new(4));
        ecu.run(2).unwrap();
        assert_eq!(
            pirte.lock().stats().installs,
            1,
            "the below-horizon duplicate must not install again"
        );
        assert_eq!(pirte.lock().stats().rejected_operations, 0);
        hub.lock().step(Tick::new(5));
        assert!(
            uplinks(&hub).is_empty(),
            "no ack and no replay for a rejected below-horizon duplicate"
        );

        // Boundary: seq exactly at the horizon is still inside the window —
        // an unseen id there is applied normally.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    1,
                    0,
                    0,
                    &ManagementMessage::Start {
                        plugin: PluginId::new("COM"),
                    },
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(6));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(7));
        let at_horizon = uplinks(&hub);
        assert_eq!(at_horizon.len(), 1, "at-horizon sequence is applied");
        assert!(matches!(
            &at_horizon[0],
            ManagementMessage::Ack(ack) if ack.status == AckStatus::Started
        ));
    }

    /// Regression (server incarnations): a downlink stamped with a *lower*
    /// server incarnation is a straggler from before a server crash.  It must
    /// be rejected before the dedup-replay check — replaying its cached ack
    /// could settle a post-restart operation with a pre-crash answer.
    #[test]
    fn stale_incarnation_downlinks_are_rejected_without_ack_replay() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);

        // The restarted server (incarnation 1) installs COM under seq 0.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    1,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        assert_eq!(pirte.lock().plugin_count(), 1);
        hub.lock().step(Tick::new(2));
        // First contact with incarnation 1: an unsolicited state report
        // announces ground truth, followed by the install ack.
        let first = uplinks(&hub);
        assert!(
            first
                .iter()
                .any(|m| matches!(m, ManagementMessage::StateReport { .. })),
            "a newer incarnation is answered with an unsolicited state report"
        );
        assert!(first
            .iter()
            .any(|m| matches!(m, ManagementMessage::Ack(a) if a.status == AckStatus::Installed)),);

        // A pre-crash straggler (incarnation 0) re-delivers the same seq:
        // nothing is applied and — crucially — nothing is replayed.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(3));
        ecu.run(2).unwrap();
        assert_eq!(pirte.lock().plugin_count(), 1);
        assert_eq!(pirte.lock().stats().installs, 1);
        hub.lock().step(Tick::new(4));
        assert!(
            uplinks(&hub).is_empty(),
            "no ack replay for a stale-incarnation straggler"
        );
    }

    /// The first downlink from a higher server incarnation makes the gateway
    /// announce its ground truth unsolicited; retransmissions under the new
    /// incarnation still replay cached acks (the dedup window survives a
    /// server restart — only the vehicle's own reboot clears it).
    #[test]
    fn newer_incarnation_triggers_state_report_and_keeps_dedup() {
        let hub = hub();
        let (mut ecu, pirte) = build_ecu(&hub);

        // Incarnation 0 installs COM.
        hub.lock()
            .send(
                "server",
                "vehicle-1",
                encode_downlink(
                    EcuId::new(1),
                    0,
                    0,
                    0,
                    &ManagementMessage::Install(com_package()),
                ),
            )
            .unwrap();
        hub.lock().step(Tick::new(1));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(2));
        assert_eq!(uplinks(&hub).len(), 1, "install acked");

        // The server restarts and speaks with incarnation 1: the gateway
        // reports what is actually installed before handling the message.
        let stop = encode_downlink(
            EcuId::new(1),
            1,
            0,
            1,
            &ManagementMessage::Stop {
                plugin: PluginId::new("COM"),
            },
        );
        hub.lock()
            .send("server", "vehicle-1", stop.clone())
            .unwrap();
        hub.lock().step(Tick::new(3));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(4));
        let after_restart = uplinks(&hub);
        assert_eq!(
            after_restart[0],
            ManagementMessage::StateReport {
                boot_epoch: 0,
                plugins: vec![(
                    PluginId::new("COM"),
                    AppId::new("remote-control"),
                    EcuId::new(1),
                )],
            },
            "ground truth announced to the restarted server"
        );
        assert!(matches!(
            &after_restart[1],
            ManagementMessage::Ack(ack) if ack.status == AckStatus::Stopped
        ));

        // A retransmission of seq 1 under incarnation 1 replays the cached
        // ack without a second state report or a re-applied stop.
        hub.lock().send("server", "vehicle-1", stop).unwrap();
        hub.lock().step(Tick::new(5));
        ecu.run(2).unwrap();
        hub.lock().step(Tick::new(6));
        let replayed = uplinks(&hub);
        assert_eq!(replayed.len(), 1);
        assert!(matches!(
            &replayed[0],
            ManagementMessage::Ack(ack) if ack.status == AckStatus::Stopped
        ));
        assert_eq!(pirte.lock().stats().installs, 1);
    }
}

//! The Plug-in Runtime Environment (PIRTE).
//!
//! The PIRTE is the middleware inside every plug-in SW-C (§3.1.2).  Its
//! *static part* maps SW-C ports to virtual ports — the API the OEM exposes to
//! plug-ins.  Its *dynamic part* installs and manages plug-ins, configures
//! their port connections from the shipped PIC/PLC/ECC contexts, schedules
//! their virtual machines under best-effort budgets and translates every
//! signal that crosses the plug-in boundary.
//!
//! Signal translation runs on compiled route tables indexed by dense
//! positions: virtual ports by their declaration position in the static
//! configuration, SW-C inputs by a `SwcInput` handle, SW-C outputs by a
//! [`SwcOutput`] index, and every plug-in port's write route resolved to its
//! virtual port.  Plug-in installation and uninstallation are the *only*
//! operations that invalidate and rebuild the plug-in tables; per-signal
//! dispatch never hashes.  The name- and id-keyed calls
//! ([`Pirte::dispatch_swc_input`], [`Pirte::virtual_port`]) resolve onto the
//! same tables.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{EcuId, PluginId, PluginPortId, VirtualPortId};
use dynar_foundation::intern::Interner;
use dynar_foundation::log::{EventLog, Severity};
use dynar_foundation::time::Tick;
use dynar_foundation::value::Value;
use dynar_vm::interpreter::{PortHost, VmStatus};

use crate::context::LinkTarget;
use crate::lifecycle::{LifecycleRequest, PluginState};
use crate::message::{Ack, AckStatus, InstallationPackage, ManagementMessage};
use crate::plugin::{Plugin, PluginPort, PluginPortDirection, VmOutcome};
use crate::swc::PluginSwcConfig;
use crate::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};

/// Upper bound on the width of the direct-indexed plug-in-port owner table:
/// ids below this index hit a flat `Vec` on the per-signal dispatch path,
/// ids at or above it fall back to the interner lookup.  Port ids are
/// assigned densely per ECU by the trusted server, so in practice every id
/// sits far below this bound — it exists so a hostile or corrupted
/// installation package carrying a huge id cannot make the table allocation
/// explode.
const DIRECT_PORT_OWNER_LIMIT: usize = 4096;

/// A SW-C input port of the hosting plug-in SW-C, resolved once against the
/// static configuration (see [`Pirte::input_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SwcInput {
    /// The type I inbound management port.
    Management,
    /// The SW-C port bound to the virtual port at this declaration position.
    Virtual(u16),
}

/// A SW-C port the PIRTE writes through its outbox: a dense index into the
/// static configuration (one per virtual port in declaration order, then the
/// type I outbound port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwcOutput(u16);

impl SwcOutput {
    /// The output at a dense index (`0..`[`Pirte::output_count`]).
    pub(crate) fn from_index(index: usize) -> Self {
        SwcOutput(position_index(index))
    }

    /// The dense index, for tables the embedder keeps per output.
    pub(crate) fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// A virtual-port declaration position (or outbox index) as stored in the
/// compiled tables.  Virtual ports carry unique `u16` ids, so a validated
/// configuration never declares more than the type can number.
fn position_index(position: usize) -> u16 {
    u16::try_from(position).expect("virtual-port positions fit the u16 id space")
}

/// Where a write on one plug-in port goes, resolved from its PLC link when
/// the plug-in is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortRoute {
    /// PLC `{Px-}`: surfaced to the embedder as a direct output.
    Direct,
    /// Through the to-system virtual port at this position.
    System(u16),
    /// Linked to a virtual port whose data flows towards the plug-ins:
    /// writes are rejected.
    NotToSystem(u16),
    /// Wrapped with the remote recipient's id through the virtual port at
    /// this position.
    Remote(u16, PluginPortId),
    /// The linked virtual port is not declared (installation rejects such
    /// links, so this only guards the invariant).
    Missing(VirtualPortId),
}

/// Counters describing one PIRTE instance's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PirteStats {
    /// Successful plug-in installations.
    pub installs: u64,
    /// Successful plug-in uninstallations.
    pub uninstalls: u64,
    /// Installs over the management path that *replaced* an already-present
    /// plug-in of the same id (server-driven resync after a lost
    /// acknowledgement or a reboot; never a deduplicated retransmission).
    pub reinstalls: u64,
    /// Installation or management operations that were rejected.
    pub rejected_operations: u64,
    /// Values delivered into plug-in ports.
    pub signals_in: u64,
    /// Values written by plug-ins through virtual ports.
    pub signals_out: u64,
    /// Execution slots granted to plug-ins.
    pub slots_granted: u64,
    /// Total VM instructions executed across all plug-ins.
    pub instructions_executed: u64,
    /// Plug-ins that faulted.
    pub plugin_faults: u64,
}

/// The Plug-in Runtime Environment of one plug-in SW-C.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Pirte {
    ecu: EcuId,
    config: PluginSwcConfig,
    plugins: Vec<Plugin>,
    plugin_index: HashMap<PluginId, usize>,
    used_port_ids: HashSet<PluginPortId>,
    /// virtual port position -> `(plugin index, port index)` of every
    /// required plug-in port linked to that virtual port (compiled on
    /// (un)install).
    virtual_fanout: Vec<Vec<(usize, usize)>>,
    /// plugin index -> the write route of each of its ports, in port order
    /// (compiled on (un)install).
    port_routes: Vec<Vec<PortRoute>>,
    /// Plug-in port id -> dense slot (freed on uninstall, reused on install).
    plugin_port_slots: Interner<PluginPortId>,
    /// plug-in-port slot -> `(plugin index, port index)` of the owning port
    /// (compiled on (un)install).
    port_owner: Vec<Option<(usize, usize)>>,
    /// Plug-in port id (raw index) -> owning `(plugin index, port index)`,
    /// compiled on (un)install.  Port ids are SW-C-scope dense (the server
    /// assigns them sequentially), so the per-signal dispatch indexes this
    /// table directly instead of hashing the id through the interner; its
    /// width is capped at [`DIRECT_PORT_OWNER_LIMIT`] (larger ids use the
    /// interner fallback).
    port_owner_by_id: Vec<Option<(usize, usize)>>,
    /// Values to be written on SW-C ports by the hosting component
    /// behaviour, addressed by output index.
    outbox: Vec<(SwcOutput, Value)>,
    /// Values written by plug-ins on direct-linked (PLC `{Px-}`) ports,
    /// consumed by the embedding SW-C (the ECM uses this for outbound
    /// external data).
    direct_outputs: Vec<(PluginId, PluginPortId, Value)>,
    log: EventLog,
    stats: PirteStats,
    now: Tick,
}

impl Pirte {
    /// Creates a PIRTE from the OEM-provided static configuration.
    pub fn new(ecu: EcuId, config: PluginSwcConfig) -> Self {
        let virtual_fanout = vec![Vec::new(); config.virtual_ports().len()];
        Pirte {
            ecu,
            config,
            plugins: Vec::new(),
            plugin_index: HashMap::new(),
            used_port_ids: HashSet::new(),
            virtual_fanout,
            port_routes: Vec::new(),
            plugin_port_slots: Interner::new(),
            port_owner: Vec::new(),
            port_owner_by_id: Vec::new(),
            outbox: Vec::new(),
            direct_outputs: Vec::new(),
            log: EventLog::new(),
            stats: PirteStats::default(),
            now: Tick::ZERO,
        }
    }

    /// The ECU this PIRTE runs on.
    pub fn ecu(&self) -> EcuId {
        self.ecu
    }

    /// The static configuration of the hosting plug-in SW-C.
    pub fn config(&self) -> &PluginSwcConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> PirteStats {
        self.stats
    }

    /// The PIRTE's event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Informs the PIRTE of the current simulated time (used only for log
    /// timestamps).
    pub fn set_now(&mut self, now: Tick) {
        self.now = now;
    }

    /// The virtual-port declaration with the given id.
    pub fn virtual_port(&self, id: VirtualPortId) -> Option<&VirtualPortSpec> {
        self.virtual_position(id)
            .map(|position| &self.config.virtual_ports()[position])
    }

    /// Declaration position of a virtual port (the index of every
    /// virtual-port table).  Static configurations declare a handful of
    /// virtual ports, and only installation and wiring resolve ids.
    fn virtual_position(&self, id: VirtualPortId) -> Option<usize> {
        self.config
            .virtual_ports()
            .iter()
            .position(|spec| spec.id() == id)
    }

    /// Resolves a SW-C input port name to the handle
    /// [`Pirte::dispatch_input`] takes, or `None` if the name is neither the
    /// type I inbound port nor bound to a virtual port.
    pub(crate) fn input_of(&self, swc_port: &str) -> Option<SwcInput> {
        if self.config.is_type_i_in(swc_port) {
            return Some(SwcInput::Management);
        }
        self.config
            .virtual_ports()
            .iter()
            .position(|spec| spec.swc_port() == swc_port)
            .map(|position| SwcInput::Virtual(position_index(position)))
    }

    /// The SW-C port name behind an input handle.
    pub(crate) fn input_name(&self, input: SwcInput) -> &str {
        match input {
            SwcInput::Management => self.config.type_i_in().unwrap_or_default(),
            SwcInput::Virtual(position) => {
                self.config.virtual_ports()[usize::from(position)].swc_port()
            }
        }
    }

    /// Number of outbox targets: one per virtual port, plus the type I
    /// outbound port when declared.
    pub(crate) fn output_count(&self) -> usize {
        self.config.virtual_ports().len() + usize::from(self.config.type_i_out().is_some())
    }

    /// The SW-C port name an outbox index writes to.
    pub(crate) fn output_port(&self, output: SwcOutput) -> Option<&str> {
        let virtual_ports = self.config.virtual_ports();
        match virtual_ports.get(output.index()) {
            Some(spec) => Some(spec.swc_port()),
            None if output.index() == virtual_ports.len() => self.config.type_i_out(),
            None => None,
        }
    }

    /// The outbox index of the type I outbound port, if declared.
    fn type_i_output(&self) -> Option<SwcOutput> {
        self.config
            .type_i_out()
            .map(|_| SwcOutput::from_index(self.config.virtual_ports().len()))
    }

    /// Identifiers and states of every installed plug-in.
    pub fn plugin_states(&self) -> Vec<(PluginId, PluginState)> {
        self.plugins
            .iter()
            .map(|p| (p.id().clone(), p.state()))
            .collect()
    }

    /// Read access to an installed plug-in.
    pub fn plugin(&self, id: &PluginId) -> Option<&Plugin> {
        self.plugin_index.get(id).map(|&i| &self.plugins[i])
    }

    /// Number of installed plug-ins.
    pub fn plugin_count(&self) -> usize {
        self.plugins.len()
    }

    // ------------------------------------------------------------------
    // Dynamic part: installation and life-cycle management
    // ------------------------------------------------------------------

    /// Installs a plug-in from an installation package and starts it.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the plug-in or one of its port ids
    /// is already present, [`DynarError::NotFound`] if the PLC references a
    /// virtual port the static configuration does not declare, and propagates
    /// binary/context validation errors.
    pub fn install(&mut self, package: InstallationPackage) -> Result<()> {
        if self.plugin_index.contains_key(&package.plugin) {
            self.stats.rejected_operations += 1;
            return Err(DynarError::duplicate("plug-in", &package.plugin));
        }
        let plugin = self.validate_and_instantiate(&package, None)?;
        self.commit_install(plugin, &package);
        self.log.record(
            self.now,
            Severity::Info,
            "pirte",
            format!("installed and started plug-in {}", package.plugin.name()),
        );
        Ok(())
    }

    /// Validates a package against the current PIRTE state — port-id
    /// collisions (ids in `reusable` excluded: a replacement may take over
    /// the outgoing instance's own ids), virtual-port references, binary and
    /// context — and returns the instantiated, started plug-in.  Nothing is
    /// mutated besides the rejection counter, so a failure leaves the PIRTE
    /// untouched (shared by [`Pirte::install`] and [`Pirte::reinstall`]).
    fn validate_and_instantiate(
        &mut self,
        package: &InstallationPackage,
        reusable: Option<&HashSet<PluginPortId>>,
    ) -> Result<Plugin> {
        for init in package.context.pic.ports() {
            let reused = reusable.is_some_and(|ids| ids.contains(&init.id));
            if self.used_port_ids.contains(&init.id) && !reused {
                self.stats.rejected_operations += 1;
                return Err(DynarError::duplicate("plug-in port id", init.id));
            }
        }
        for link in package.context.plc.links() {
            let referenced = match link.target {
                LinkTarget::VirtualPort(v) => Some(v),
                LinkTarget::RemotePluginPort { via, .. } => Some(via),
                LinkTarget::Direct => None,
            };
            if let Some(v) = referenced {
                if self.virtual_position(v).is_none() {
                    self.stats.rejected_operations += 1;
                    return Err(DynarError::not_found("virtual port", v));
                }
            }
        }
        let mut plugin = Plugin::instantiate(
            package.plugin.clone(),
            package.app.clone(),
            &package.binary,
            &package.context,
            self.config.plugin_budget(),
            self.config.exec_mode(),
        )?;
        plugin.request(LifecycleRequest::Start)?;
        Ok(plugin)
    }

    /// Commits a validated, started plug-in: reserves its port ids, indexes
    /// it and recompiles the routing tables (shared by [`Pirte::install`]
    /// and [`Pirte::reinstall`]).
    fn commit_install(&mut self, plugin: Plugin, package: &InstallationPackage) {
        for init in package.context.pic.ports() {
            self.used_port_ids.insert(init.id);
        }
        self.plugin_index
            .insert(package.plugin.clone(), self.plugins.len());
        self.plugins.push(plugin);
        self.rebuild_routes();
        self.stats.installs += 1;
    }

    /// Replaces an installed plug-in with a fresh package of the same id
    /// (the management path's convergence semantics).  The replacement is
    /// fully validated — port ids (the outgoing instance's own ids
    /// excluded), virtual-port references, binary and context — *before* the
    /// working instance is removed, so a rejected replacement leaves the old
    /// plug-in running untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the plug-in is not installed, and
    /// the rejections documented on [`Pirte::install`].
    pub fn reinstall(&mut self, package: InstallationPackage) -> Result<()> {
        let old_ports: HashSet<PluginPortId> = self
            .plugin(&package.plugin)
            .ok_or_else(|| DynarError::not_found("plug-in", &package.plugin))?
            .ports()
            .iter()
            .map(|p| p.id)
            .collect();
        // The full validation (binary and context included) runs while the
        // old instance is still untouched: a rejected replacement never
        // sacrifices a working plug-in.
        let plugin = self.validate_and_instantiate(&package, Some(&old_ports))?;
        self.uninstall(&package.plugin)?;
        self.commit_install(plugin, &package);
        self.stats.reinstalls += 1;
        self.log.record(
            self.now,
            Severity::Info,
            "pirte",
            format!("replaced plug-in {}", package.plugin.name()),
        );
        Ok(())
    }

    /// Uninstalls a plug-in, stopping it first if necessary and freeing its
    /// port ids.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the plug-in is not installed.
    pub fn uninstall(&mut self, id: &PluginId) -> Result<()> {
        let index = *self
            .plugin_index
            .get(id)
            .ok_or_else(|| DynarError::not_found("plug-in", id))?;
        if self.plugins[index].state() == PluginState::Running {
            self.plugins[index].request(LifecycleRequest::Stop)?;
        }
        let removed = self.plugins.remove(index);
        for port in removed.ports() {
            self.used_port_ids.remove(&port.id);
        }
        self.plugin_index.remove(id);
        for value in self.plugin_index.values_mut() {
            if *value > index {
                *value -= 1;
            }
        }
        self.rebuild_routes();
        self.stats.uninstalls += 1;
        self.log.record(
            self.now,
            Severity::Info,
            "pirte",
            format!("uninstalled plug-in {}", id.name()),
        );
        Ok(())
    }

    /// Stops a running plug-in.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown plug-ins and
    /// [`DynarError::LifecycleViolation`] for illegal transitions.
    pub fn stop(&mut self, id: &PluginId) -> Result<()> {
        self.plugin_mut(id)?.request(LifecycleRequest::Stop)?;
        Ok(())
    }

    /// Starts a stopped (or restarts a failed/finished) plug-in.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown plug-ins and
    /// [`DynarError::LifecycleViolation`] for illegal transitions.
    pub fn start(&mut self, id: &PluginId) -> Result<()> {
        let plugin = self.plugin_mut(id)?;
        match plugin.state() {
            PluginState::Failed | PluginState::Finished => {
                plugin.request(LifecycleRequest::Restart)?;
            }
            _ => {
                plugin.request(LifecycleRequest::Start)?;
            }
        }
        Ok(())
    }

    /// Handles one management message, returning the acknowledgements (and
    /// other responses) to send back towards the server.
    pub fn handle_management(&mut self, message: ManagementMessage) -> Vec<ManagementMessage> {
        let ecu = self.ecu;
        let ack = |plugin: &PluginId, app: &str, status: AckStatus| {
            ManagementMessage::Ack(Ack {
                plugin: plugin.clone(),
                app: dynar_foundation::ids::AppId::new(app),
                ecu,
                status,
            })
        };
        match message {
            ManagementMessage::Install(package) => {
                let plugin = package.plugin.clone();
                let app = package.app.name().to_owned();
                // Reinstall-as-replace: duplicate *deliveries* never reach
                // this path (the ECM gateway deduplicates by sequence id and
                // boot epoch), so an install for an already-present plug-in
                // id is the server deliberately converging the vehicle — a
                // re-deploy after a failed operation, or a resync push.  The
                // stale instance is replaced so the fresh package applies
                // instead of bouncing off a duplicate rejection that would
                // make the failure terminal.
                let status = if self.plugin_index.contains_key(&plugin) {
                    match self.reinstall(package) {
                        Ok(()) => AckStatus::Installed,
                        Err(err) => AckStatus::Failed(err.to_string()),
                    }
                } else {
                    match self.install(package) {
                        Ok(()) => AckStatus::Installed,
                        Err(err) => AckStatus::Failed(err.to_string()),
                    }
                };
                vec![ack(&plugin, &app, status)]
            }
            ManagementMessage::Uninstall { plugin } => {
                let app = self
                    .plugin(&plugin)
                    .map(|p| p.app().name().to_owned())
                    .unwrap_or_default();
                let status = match self.uninstall(&plugin) {
                    Ok(()) => AckStatus::Uninstalled,
                    Err(err) => AckStatus::Failed(err.to_string()),
                };
                vec![ack(&plugin, &app, status)]
            }
            ManagementMessage::Stop { plugin } => {
                let app = self
                    .plugin(&plugin)
                    .map(|p| p.app().name().to_owned())
                    .unwrap_or_default();
                let status = match self.stop(&plugin) {
                    Ok(()) => AckStatus::Stopped,
                    Err(err) => AckStatus::Failed(err.to_string()),
                };
                vec![ack(&plugin, &app, status)]
            }
            ManagementMessage::Start { plugin } => {
                let app = self
                    .plugin(&plugin)
                    .map(|p| p.app().name().to_owned())
                    .unwrap_or_default();
                let status = match self.start(&plugin) {
                    Ok(()) => AckStatus::Started,
                    Err(err) => AckStatus::Failed(err.to_string()),
                };
                vec![ack(&plugin, &app, status)]
            }
            ManagementMessage::ExternalData { port, payload } => {
                if let Err(err) = self.deliver_to_port(port, payload) {
                    self.log.record(
                        self.now,
                        Severity::Warning,
                        "pirte",
                        format!("dropped external data for {port}: {err}"),
                    );
                }
                Vec::new()
            }
            other => {
                self.log.record(
                    self.now,
                    Severity::Warning,
                    "pirte",
                    format!(
                        "ignoring unexpected management message type {}",
                        other.type_id()
                    ),
                );
                Vec::new()
            }
        }
    }

    // ------------------------------------------------------------------
    // Signal routing
    // ------------------------------------------------------------------

    /// Dispatches a value that arrived on one of the hosting SW-C's required
    /// ports, according to the port's type (the name-keyed form of the
    /// per-tick dispatch, which takes pre-resolved input handles).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the SW-C port is not mapped to a
    /// virtual port, and [`DynarError::ProtocolViolation`] for malformed
    /// type I or type II payloads.
    pub fn dispatch_swc_input(&mut self, swc_port: &str, value: Value) -> Result<()> {
        let input = self
            .input_of(swc_port)
            .ok_or_else(|| DynarError::not_found("virtual port for SW-C port", swc_port))?;
        self.dispatch_input(input, value)
    }

    /// Dispatches a value that arrived on a resolved SW-C input port (see
    /// [`Pirte::input_of`]), according to the port's type.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed type I or
    /// type II payloads.
    pub(crate) fn dispatch_input(&mut self, input: SwcInput, value: Value) -> Result<()> {
        let position = match input {
            SwcInput::Management => return self.dispatch_management(&value),
            SwcInput::Virtual(position) => usize::from(position),
        };
        // Kind and transform are `Copy`; extracting them up front keeps the
        // hot paths below free of per-signal spec clones.
        let (kind, transform) = {
            let spec = &self.config.virtual_ports()[position];
            (spec.kind(), spec.transform())
        };
        match kind {
            PortKind::TypeI => self.dispatch_management(&value),
            PortKind::TypeII => {
                // Take the payload out of the envelope by value: the hot
                // multiplexing path never clones the carried signal.
                let Value::List(mut parts) = value else {
                    return Err(DynarError::ProtocolViolation(
                        "type II payload is not a list".into(),
                    ));
                };
                if parts.len() != 2 {
                    return Err(DynarError::ProtocolViolation(
                        "type II payload must carry a recipient id and a value".into(),
                    ));
                }
                let payload = parts.pop().expect("length checked");
                let recipient = parts.pop().expect("length checked").expect_i64()?;
                // Same discipline as the downlink decoder: out-of-range ids
                // are protocol violations, never silent truncations that
                // could misdeliver into an unrelated port.
                let recipient = u32::try_from(recipient).map_err(|_| {
                    DynarError::ProtocolViolation(format!(
                        "type II recipient id {recipient} out of range"
                    ))
                })?;
                self.deliver_to_port(PluginPortId::new(recipient), transform.apply(payload))
            }
            PortKind::TypeIII => {
                let transformed = transform.apply(value);
                let mut delivered = 0;
                let receivers = self.virtual_fanout[position].len();
                for index in 0..receivers {
                    let (plugin_index, port_index) = self.virtual_fanout[position][index];
                    if let Some(port) = self.plugins[plugin_index].port_at_mut(port_index) {
                        if index + 1 == receivers {
                            port.push(transformed);
                            delivered += 1;
                            self.stats.signals_in += delivered;
                            return Ok(());
                        }
                        port.push(transformed.clone());
                        delivered += 1;
                    }
                }
                self.stats.signals_in += delivered;
                Ok(())
            }
        }
    }

    /// Decodes and applies a management message arriving on a type I port,
    /// queueing the responses on the type I outbound port.  Type I ports
    /// carry each message as [`Value::Bytes`] holding its
    /// [`ManagementMessage::to_bytes`] encoding: the relay forwards the bytes
    /// it received, and this is the one decode.
    fn dispatch_management(&mut self, value: &Value) -> Result<()> {
        let Value::Bytes(bytes) = value else {
            return Err(DynarError::ProtocolViolation(format!(
                "type I payload must be an encoded management message, found {}",
                value.kind()
            )));
        };
        let message = ManagementMessage::from_bytes(bytes)?;
        let responses = self.handle_management(message);
        if let Some(out_port) = self.type_i_output() {
            for response in responses {
                self.outbox
                    .push((out_port, Value::Bytes(response.to_bytes())));
            }
        }
        Ok(())
    }

    /// Delivers a value directly into a plug-in port (used for external data
    /// and by the ECM for directly linked ports).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if no installed plug-in owns the port
    /// and [`DynarError::PortDirection`] if the port is not a required port.
    pub fn deliver_to_port(&mut self, port: PluginPortId, value: Value) -> Result<()> {
        // The direct table covers the dense id range every realistic SW-C
        // lives in; ids beyond [`DIRECT_PORT_OWNER_LIMIT`] fall back to the
        // interner (correct for arbitrarily sparse ids, one hash slower).
        let owner = if (port.index() as usize) < self.port_owner_by_id.len() {
            self.port_owner_by_id[port.index() as usize]
        } else {
            self.plugin_port_slots
                .get(&port)
                .and_then(|slot| self.port_owner[slot.index()])
        };
        let Some((plugin_index, port_index)) = owner else {
            return Err(DynarError::not_found("plug-in port", port));
        };
        let slot = self.plugins[plugin_index]
            .port_at_mut(port_index)
            .expect("compiled owner table points at a live port");
        if slot.direction != PluginPortDirection::Required {
            return Err(DynarError::PortDirection {
                port: port.to_string(),
                expected: "required",
            });
        }
        slot.push(value);
        self.stats.signals_in += 1;
        Ok(())
    }

    /// Recompiles the routing tables from the installed plug-ins.  Called
    /// only from [`Pirte::install`] and [`Pirte::uninstall`] — signal traffic
    /// never invalidates the compiled plane.
    fn rebuild_routes(&mut self) {
        // Free the slots of ports that no longer exist so reinstall cycles
        // reuse them instead of growing the dense tables.
        let stale: Vec<PluginPortId> = self
            .plugin_port_slots
            .iter()
            .map(|(_, id)| *id)
            .filter(|id| !self.used_port_ids.contains(id))
            .collect();
        for id in &stale {
            self.plugin_port_slots.remove(id);
        }
        for plugin in &self.plugins {
            for port in plugin.ports() {
                self.plugin_port_slots.intern(port.id);
            }
        }

        let id_width = self
            .used_port_ids
            .iter()
            .map(|id| id.index() as usize + 1)
            .filter(|&width| width <= DIRECT_PORT_OWNER_LIMIT)
            .max()
            .unwrap_or(0);
        self.port_owner = vec![None; self.plugin_port_slots.capacity()];
        self.port_owner_by_id = vec![None; id_width];
        for (plugin_index, plugin) in self.plugins.iter().enumerate() {
            for (port_index, port) in plugin.ports().iter().enumerate() {
                let slot = self
                    .plugin_port_slots
                    .get(&port.id)
                    .expect("interned above");
                self.port_owner[slot.index()] = Some((plugin_index, port_index));
                if let Some(entry) = self.port_owner_by_id.get_mut(port.id.index() as usize) {
                    *entry = Some((plugin_index, port_index));
                }
            }
        }
        self.virtual_fanout = self.compile_fanout();
        self.port_routes = self.compile_port_routes();
    }

    /// virtual port position -> linked required plug-in ports.
    fn compile_fanout(&self) -> Vec<Vec<(usize, usize)>> {
        let mut fanout = vec![Vec::new(); self.config.virtual_ports().len()];
        for (plugin_index, plugin) in self.plugins.iter().enumerate() {
            for (port_index, port) in plugin.ports().iter().enumerate() {
                if port.direction == PluginPortDirection::Required {
                    if let LinkTarget::VirtualPort(virtual_id) = port.link {
                        if let Some(position) = self.virtual_position(virtual_id) {
                            fanout[position].push((plugin_index, port_index));
                        }
                    }
                }
            }
        }
        fanout
    }

    /// plugin index -> the write route of each port, resolved from its link.
    fn compile_port_routes(&self) -> Vec<Vec<PortRoute>> {
        let route_of = |port: &PluginPort| match port.link {
            LinkTarget::Direct => PortRoute::Direct,
            LinkTarget::VirtualPort(id) => match self.virtual_position(id) {
                Some(position) => {
                    if self.config.virtual_ports()[position].direction()
                        == PortDataDirection::ToSystem
                    {
                        PortRoute::System(position_index(position))
                    } else {
                        PortRoute::NotToSystem(position_index(position))
                    }
                }
                None => PortRoute::Missing(id),
            },
            LinkTarget::RemotePluginPort { via, remote } => match self.virtual_position(via) {
                Some(position) => PortRoute::Remote(position_index(position), remote),
                None => PortRoute::Missing(via),
            },
        };
        self.plugins
            .iter()
            .map(|plugin| plugin.ports().iter().map(route_of).collect())
            .collect()
    }

    /// Checks that the compiled route tables exactly match a fresh compile of
    /// the installed plug-ins, with no stale slots left behind by uninstalls
    /// (used by the equivalence and property test suites).
    pub fn verify_compiled_routes(&self) -> bool {
        // Every live slot maps onto an installed port and vice versa.
        if self.plugin_port_slots.len() != self.used_port_ids.len() {
            return false;
        }
        for (slot, id) in self.plugin_port_slots.iter() {
            if !self.used_port_ids.contains(id) {
                return false;
            }
            let owns = self.port_owner[slot.index()].is_some_and(|(plugin_index, port_index)| {
                self.plugins
                    .get(plugin_index)
                    .and_then(|p| p.ports().get(port_index))
                    .is_some_and(|p| p.id == *id)
            });
            if !owns {
                return false;
            }
        }
        // Freed slots must not retain owners.
        let live_owners = self.port_owner.iter().flatten().count();
        if live_owners != self.plugin_port_slots.len() {
            return false;
        }
        // The direct-indexed owner table mirrors the slot-indexed one for
        // every live id inside the direct range: exactly those ids own
        // entries, each pointing at its port (ids beyond the range are
        // served by the interner fallback checked above).
        let direct_ids = self
            .used_port_ids
            .iter()
            .filter(|id| (id.index() as usize) < self.port_owner_by_id.len())
            .count();
        if self.port_owner_by_id.iter().flatten().count() != direct_ids {
            return false;
        }
        for id in &self.used_port_ids {
            if (id.index() as usize) >= self.port_owner_by_id.len() {
                continue;
            }
            let owns = self.port_owner_by_id[id.index() as usize].is_some_and(
                |(plugin_index, port_index)| {
                    self.plugins
                        .get(plugin_index)
                        .and_then(|p| p.ports().get(port_index))
                        .is_some_and(|p| p.id == *id)
                },
            );
            if !owns {
                return false;
            }
        }
        // The fan-out and write-route tables match a fresh compile.
        self.compile_fanout() == self.virtual_fanout
            && self.compile_port_routes() == self.port_routes
    }

    /// Width of the dense plug-in-port slot table: bounded by the high-water
    /// mark of simultaneously installed ports, not by install/uninstall churn
    /// (exposed for the reinstall property tests).
    pub fn plugin_port_slot_capacity(&self) -> usize {
        self.plugin_port_slots.capacity()
    }

    /// Reads the last value a plug-in wrote on one of its ports (diagnostics
    /// and tests).
    pub fn read_plugin_port(&self, plugin: &PluginId, port: PluginPortId) -> Option<Value> {
        self.plugin(plugin)
            .and_then(|p| p.port(port))
            .map(|p| p.last().clone())
    }

    /// Records a warning in the PIRTE log (used by the hosting SW-C when it
    /// has to drop or reroute data).
    pub fn log_warning(&mut self, message: impl Into<String>) {
        self.log
            .record(self.now, Severity::Warning, "plugin-swc", message);
    }

    /// Drains the SW-C port writes produced by plug-ins (and management
    /// acknowledgements) since the last call, by SW-C port name.  Allocates
    /// a `String` per entry for convenience; the per-tick management pass
    /// uses [`Pirte::drain_outbox_into`] instead.
    pub fn drain_outbox(&mut self) -> Vec<(String, Value)> {
        let outbox = std::mem::take(&mut self.outbox);
        outbox
            .into_iter()
            .map(|(output, value)| {
                let port = self
                    .output_port(output)
                    .expect("outbox targets are declared");
                (port.to_owned(), value)
            })
            .collect()
    }

    /// Drains the outbox into a caller-owned buffer (swap when empty, append
    /// otherwise) — the allocation-free variant of [`Pirte::drain_outbox`]
    /// for the per-tick management pass, addressed by output index.
    pub fn drain_outbox_into(&mut self, into: &mut Vec<(SwcOutput, Value)>) {
        dynar_foundation::buffers::drain_swap(&mut self.outbox, into);
    }

    /// Drains the values plug-ins wrote on directly linked ports.
    pub fn take_direct_outputs(&mut self) -> Vec<(PluginId, PluginPortId, Value)> {
        std::mem::take(&mut self.direct_outputs)
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Grants every running plug-in one best-effort execution slot and
    /// returns the number of slots granted.
    pub fn run_plugins(&mut self) -> usize {
        let mut slots = 0;
        for index in 0..self.plugins.len() {
            if !self.plugins[index].state().is_schedulable() {
                continue;
            }
            slots += 1;
            let outcome = {
                // The plug-in id is borrowed for the host, not cloned — a
                // slot grant must not allocate.
                let (plugin_id, engine, ports) = self.plugins[index].split_for_run();
                let mut host = PirteHost {
                    plugin: plugin_id,
                    ports,
                    routes: &self.port_routes[index],
                    virtual_ports: self.config.virtual_ports(),
                    outbox: &mut self.outbox,
                    direct_outputs: &mut self.direct_outputs,
                    log: &mut self.log,
                    stats: &mut self.stats,
                    now: self.now,
                };
                engine.run_slot(&mut host)
            };
            match outcome {
                Ok(report) => {
                    self.stats.slots_granted += 1;
                    self.stats.instructions_executed += report.instructions;
                    if report.status == VmStatus::Halted {
                        self.plugins[index].record_vm_outcome(VmOutcome::Finished);
                    }
                }
                Err(err) => {
                    self.stats.slots_granted += 1;
                    self.stats.plugin_faults += 1;
                    self.log.record(
                        self.now,
                        Severity::Error,
                        "pirte",
                        format!("plug-in {} faulted: {err}", self.plugins[index].id().name()),
                    );
                    self.plugins[index].record_vm_outcome(VmOutcome::Faulted);
                }
            }
        }
        slots
    }

    /// Aggregated superinstruction execution counters across every
    /// installed plug-in — the fast plane's proof that the peephole pass
    /// fires on real workloads (always zero under
    /// [`ExecMode::Interpreter`](dynar_vm::engine::ExecMode)).
    pub fn fusion_counters(&self) -> dynar_vm::compiled::FusionCounters {
        let mut total = dynar_vm::compiled::FusionCounters::default();
        for plugin in &self.plugins {
            total.merge(&plugin.engine().fusion_counters());
        }
        total
    }

    fn plugin_mut(&mut self, id: &PluginId) -> Result<&mut Plugin> {
        let index = *self
            .plugin_index
            .get(id)
            .ok_or_else(|| DynarError::not_found("plug-in", id))?;
        Ok(&mut self.plugins[index])
    }
}

/// The [`PortHost`] adapter that exposes a plug-in's ports (and, through its
/// PLC links, the virtual ports) to the running VM.
struct PirteHost<'a> {
    plugin: &'a PluginId,
    ports: &'a mut [PluginPort],
    /// The write route of each port, indexed like `ports`.
    routes: &'a [PortRoute],
    /// The static virtual ports, indexed by declaration position (which is
    /// also the outbox index of their SW-C port).
    virtual_ports: &'a [VirtualPortSpec],
    outbox: &'a mut Vec<(SwcOutput, Value)>,
    direct_outputs: &'a mut Vec<(PluginId, PluginPortId, Value)>,
    log: &'a mut EventLog,
    stats: &'a mut PirteStats,
    now: Tick,
}

impl PirteHost<'_> {
    fn port_mut(&mut self, slot: u32) -> Result<&mut PluginPort> {
        self.ports
            .get_mut(slot as usize)
            .ok_or_else(|| DynarError::not_found("plug-in port slot", slot))
    }
}

impl PortHost for PirteHost<'_> {
    fn read_port(&mut self, slot: u32) -> Result<Value> {
        Ok(self.port_mut(slot)?.last().clone())
    }

    fn take_port(&mut self, slot: u32) -> Result<Value> {
        let port = self.port_mut(slot)?;
        if port.direction != PluginPortDirection::Required {
            return Err(DynarError::PortDirection {
                port: port.id.to_string(),
                expected: "required",
            });
        }
        Ok(port.take().unwrap_or_default())
    }

    fn write_port(&mut self, slot: u32, value: Value) -> Result<()> {
        let port_id = {
            let port = self.port_mut(slot)?;
            if port.direction != PluginPortDirection::Provided {
                return Err(DynarError::PortDirection {
                    port: port.id.to_string(),
                    expected: "provided",
                });
            }
            port.record_output(value.clone());
            port.id
        };
        self.stats.signals_out += 1;
        match self.routes[slot as usize] {
            PortRoute::Direct => {
                self.direct_outputs
                    .push((self.plugin.clone(), port_id, value));
            }
            PortRoute::System(position) => {
                let spec = &self.virtual_ports[usize::from(position)];
                self.outbox
                    .push((SwcOutput(position), spec.transform().apply(value)));
            }
            PortRoute::NotToSystem(position) => {
                return Err(DynarError::PortDirection {
                    port: self.virtual_ports[usize::from(position)].name().to_owned(),
                    expected: "to-system",
                });
            }
            PortRoute::Remote(position, remote) => {
                let spec = &self.virtual_ports[usize::from(position)];
                let wrapped = Value::List(vec![
                    Value::I64(i64::from(remote.index())),
                    spec.transform().apply(value),
                ]);
                self.outbox.push((SwcOutput(position), wrapped));
            }
            PortRoute::Missing(id) => return Err(DynarError::not_found("virtual port", id)),
        }
        Ok(())
    }

    fn pending(&mut self, slot: u32) -> Result<usize> {
        Ok(self.port_mut(slot)?.pending())
    }

    fn log(&mut self, message: &str) {
        self.log.record(
            self.now,
            Severity::Info,
            format!("plugin:{}", self.plugin.name()),
            message,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
    use crate::swc::PluginSwcConfig;
    use dynar_foundation::ids::AppId;
    use dynar_vm::assembler::assemble;

    fn config() -> PluginSwcConfig {
        PluginSwcConfig::new("plugin-swc")
            .with_type_i_ports("mgmt_in", "mgmt_out")
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(0),
                "PluginData",
                PortKind::TypeII,
                PortDataDirection::ToSystem,
                "s0_out",
            ))
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
                VirtualPortId::new(6),
                "SpeedProv",
                PortKind::TypeIII,
                PortDataDirection::ToPlugins,
                "speed_prov",
            ))
    }

    fn pirte() -> Pirte {
        Pirte::new(EcuId::new(2), config())
    }

    fn forwarder_package(name: &str) -> InstallationPackage {
        // Reads its required port 0 and forwards to provided port 1 (linked
        // to the type III WheelsReq virtual port), forever.
        let binary = assemble(
            name,
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
                .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
                .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
            PortLinkContext::new()
                .with_link(
                    PluginPortId::new(0),
                    LinkTarget::VirtualPort(VirtualPortId::new(6)),
                )
                .with_link(
                    PluginPortId::new(1),
                    LinkTarget::VirtualPort(VirtualPortId::new(4)),
                ),
        );
        InstallationPackage::new(PluginId::new(name), AppId::new("app"), binary, context)
    }

    #[test]
    fn install_run_and_route_type_iii() {
        let mut pirte = pirte();
        pirte.install(forwarder_package("fwd")).unwrap();
        assert_eq!(pirte.plugin_count(), 1);
        assert_eq!(
            pirte.plugin_states(),
            vec![(PluginId::new("fwd"), PluginState::Running)]
        );

        // A value arrives on the SW-C port behind the type III virtual port V6.
        pirte
            .dispatch_swc_input("speed_prov", Value::F64(7.5))
            .unwrap();
        pirte.run_plugins();
        let outbox = pirte.drain_outbox();
        assert_eq!(outbox, vec![("wheels_req".to_string(), Value::F64(7.5))]);
        assert!(pirte.stats().signals_in >= 1);
        assert!(pirte.stats().signals_out >= 1);
    }

    #[test]
    fn duplicate_install_and_duplicate_port_ids_are_rejected() {
        let mut pirte = pirte();
        pirte.install(forwarder_package("fwd")).unwrap();
        let err = pirte.install(forwarder_package("fwd")).unwrap_err();
        assert!(matches!(err, DynarError::Duplicate { .. }));

        // Different plug-in name, same port ids: the server is supposed to
        // assign unique ids; the PIRTE enforces it.
        let err = pirte.install(forwarder_package("other")).unwrap_err();
        assert!(matches!(err, DynarError::Duplicate { .. }));
        assert_eq!(pirte.stats().rejected_operations, 2);
    }

    #[test]
    fn plc_referencing_unknown_virtual_port_is_rejected() {
        let mut pirte = pirte();
        let binary = assemble("p", "halt").unwrap().to_bytes();
        let context = InstallationContext::new(
            PortInitContext::new().with_port(
                "x",
                PluginPortId::new(9),
                PluginPortDirection::Provided,
            ),
            PortLinkContext::new().with_link(
                PluginPortId::new(9),
                LinkTarget::VirtualPort(VirtualPortId::new(99)),
            ),
        );
        let package =
            InstallationPackage::new(PluginId::new("p"), AppId::new("a"), binary, context);
        assert!(matches!(
            pirte.install(package).unwrap_err(),
            DynarError::NotFound { .. }
        ));
    }

    #[test]
    fn uninstall_frees_port_ids() {
        let mut pirte = pirte();
        pirte.install(forwarder_package("fwd")).unwrap();
        pirte.uninstall(&PluginId::new("fwd")).unwrap();
        assert_eq!(pirte.plugin_count(), 0);
        // The same port ids can now be used again.
        pirte.install(forwarder_package("fwd2")).unwrap();
        assert_eq!(pirte.stats().installs, 2);
        assert_eq!(pirte.stats().uninstalls, 1);
        assert!(pirte.uninstall(&PluginId::new("ghost")).is_err());
    }

    #[test]
    fn reinstall_cycles_leave_no_stale_slots() {
        let mut pirte = pirte();
        for _round in 0..20 {
            pirte.install(forwarder_package("fwd")).unwrap();
            assert!(pirte.verify_compiled_routes());
            pirte.uninstall(&PluginId::new("fwd")).unwrap();
            assert!(pirte.verify_compiled_routes());
        }
        assert_eq!(
            pirte.plugin_port_slot_capacity(),
            2,
            "20 reinstall cycles reuse the same two port slots"
        );
    }

    /// Regression: the direct-indexed owner table is capped — a package
    /// carrying an enormous port id (hostile or corrupted) must neither
    /// explode the table allocation nor lose routability: such ids are
    /// served by the interner fallback.
    #[test]
    fn huge_port_ids_use_the_interner_fallback_not_a_huge_table() {
        let mut pirte = pirte();
        let huge = PluginPortId::new(u32::MAX - 1);
        let binary = assemble("big", "yield\nhalt").unwrap().to_bytes();
        let context = InstallationContext::new(
            PortInitContext::new().with_port("ext", huge, PluginPortDirection::Required),
            PortLinkContext::new().with_link(huge, LinkTarget::Direct),
        );
        pirte
            .install(InstallationPackage::new(
                PluginId::new("big"),
                AppId::new("a"),
                binary,
                context,
            ))
            .unwrap();
        assert!(
            pirte.verify_compiled_routes(),
            "tables stay consistent with an out-of-range id"
        );
        pirte.deliver_to_port(huge, Value::I64(1)).unwrap();
        assert_eq!(
            pirte.read_plugin_port(&PluginId::new("big"), huge),
            Some(Value::I64(1)),
            "delivery works through the fallback path"
        );
        assert!(
            pirte
                .deliver_to_port(PluginPortId::new(u32::MAX), Value::I64(2))
                .is_err(),
            "unknown huge ids still report not-found"
        );
    }

    /// Regression: a negative (or > `u32::MAX`) type II recipient id must be
    /// a protocol violation, not an `as u32` wrap into a *valid* — but
    /// wrong — port id (the same hardening the downlink decoder has).
    #[test]
    fn out_of_range_type_ii_recipients_are_rejected_not_truncated() {
        let mut pirte = pirte();
        pirte.install(forwarder_package("fwd")).unwrap();
        for bad in [-1i64, i64::from(u32::MAX) + 11] {
            let err = pirte
                .dispatch_swc_input("s3_in", Value::List(vec![Value::I64(bad), Value::I64(7)]))
                .unwrap_err();
            assert!(
                matches!(err, DynarError::ProtocolViolation(_)),
                "recipient {bad}: expected protocol violation, got {err:?}"
            );
        }
    }

    #[test]
    fn type_ii_input_unwraps_recipient_id() {
        let mut pirte = pirte();
        pirte.install(forwarder_package("fwd")).unwrap();
        // Type II payloads carry [recipient plug-in port id, value].
        pirte
            .dispatch_swc_input(
                "s3_in",
                Value::List(vec![Value::I64(0), Value::Text("turn-left".into())]),
            )
            .unwrap();
        pirte.run_plugins();
        let outbox = pirte.drain_outbox();
        assert_eq!(
            outbox,
            vec![("wheels_req".to_string(), Value::Text("turn-left".into()))]
        );
    }

    #[test]
    fn type_ii_remote_link_attaches_recipient_id() {
        let mut pirte = pirte();
        // A plug-in whose provided port 1 is linked to remote port P5 through
        // the type II virtual port V0.
        let binary = assemble("com", "take_port 0\nwrite_port 1\nyield\nhalt")
            .unwrap()
            .to_bytes();
        let context = InstallationContext::new(
            PortInitContext::new()
                .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
                .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
            PortLinkContext::new()
                .with_link(PluginPortId::new(0), LinkTarget::Direct)
                .with_link(
                    PluginPortId::new(1),
                    LinkTarget::RemotePluginPort {
                        via: VirtualPortId::new(0),
                        remote: PluginPortId::new(5),
                    },
                ),
        );
        pirte
            .install(InstallationPackage::new(
                PluginId::new("com"),
                AppId::new("a"),
                binary,
                context,
            ))
            .unwrap();
        pirte
            .deliver_to_port(PluginPortId::new(0), Value::I64(30))
            .unwrap();
        pirte.run_plugins();
        let outbox = pirte.drain_outbox();
        assert_eq!(
            outbox,
            vec![(
                "s0_out".to_string(),
                Value::List(vec![Value::I64(5), Value::I64(30)])
            )]
        );
    }

    #[test]
    fn direct_linked_provided_ports_surface_to_the_embedder() {
        let mut pirte = pirte();
        let binary = assemble("p", "push_int 9\nwrite_port 0\nhalt")
            .unwrap()
            .to_bytes();
        let context = InstallationContext::new(
            PortInitContext::new().with_port(
                "out",
                PluginPortId::new(0),
                PluginPortDirection::Provided,
            ),
            PortLinkContext::new().with_link(PluginPortId::new(0), LinkTarget::Direct),
        );
        pirte
            .install(InstallationPackage::new(
                PluginId::new("p"),
                AppId::new("a"),
                binary,
                context,
            ))
            .unwrap();
        pirte.run_plugins();
        assert_eq!(
            pirte.take_direct_outputs(),
            vec![(PluginId::new("p"), PluginPortId::new(0), Value::I64(9))]
        );
        assert!(pirte.drain_outbox().is_empty());
    }

    #[test]
    fn management_messages_produce_acks() {
        let mut pirte = pirte();
        let install = ManagementMessage::Install(forwarder_package("fwd"));
        let responses = pirte.handle_management(install);
        assert_eq!(responses.len(), 1);
        match &responses[0] {
            ManagementMessage::Ack(ack) => {
                assert_eq!(ack.status, AckStatus::Installed);
                assert_eq!(ack.ecu, EcuId::new(2));
            }
            other => panic!("expected an ack, got {other:?}"),
        }

        let responses = pirte.handle_management(ManagementMessage::Uninstall {
            plugin: PluginId::new("ghost"),
        });
        match &responses[0] {
            ManagementMessage::Ack(ack) => assert!(matches!(ack.status, AckStatus::Failed(_))),
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    /// Regression: an install arriving over the management path for a plug-in
    /// that is already present must *replace* it (the server converging the
    /// vehicle after a lost ack or a failed operation), not bounce off a
    /// duplicate rejection that would make the server-side `Failed` record
    /// terminal.  Direct `install()` calls keep their strict duplicate check.
    #[test]
    fn management_install_replaces_an_existing_plugin() {
        let mut pirte = pirte();
        let first = pirte.handle_management(ManagementMessage::Install(forwarder_package("fwd")));
        assert!(matches!(
            &first[0],
            ManagementMessage::Ack(ack) if ack.status == AckStatus::Installed
        ));
        assert_eq!(pirte.plugin_count(), 1);

        let again = pirte.handle_management(ManagementMessage::Install(forwarder_package("fwd")));
        assert!(
            matches!(
                &again[0],
                ManagementMessage::Ack(ack) if ack.status == AckStatus::Installed
            ),
            "the re-issued install converges instead of failing: {again:?}"
        );
        assert_eq!(pirte.plugin_count(), 1, "replaced, not duplicated");
        let stats = pirte.stats();
        assert_eq!(stats.reinstalls, 1);
        assert_eq!(stats.rejected_operations, 0);
        assert!(pirte.verify_compiled_routes());

        // A replacement that fails validation (garbage binary) leaves the
        // working instance untouched — the old plug-in is not sacrificed for
        // a package that cannot even instantiate.
        let mut broken = forwarder_package("fwd");
        broken.binary = vec![0xFF, 0xEE, 0xDD];
        let responses = pirte.handle_management(ManagementMessage::Install(broken));
        assert!(matches!(
            &responses[0],
            ManagementMessage::Ack(ack) if matches!(ack.status, AckStatus::Failed(_))
        ));
        assert_eq!(pirte.plugin_count(), 1, "old instance survives");
        assert_eq!(pirte.stats().reinstalls, 1, "no second replacement");
        assert!(pirte.verify_compiled_routes());

        // The strict API is unchanged: a direct duplicate install stays an
        // explicit rejection.
        let err = pirte.install(forwarder_package("fwd")).unwrap_err();
        assert!(matches!(err, DynarError::Duplicate { .. }));
        assert_eq!(pirte.stats().rejected_operations, 1);
    }

    #[test]
    fn type_i_input_is_decoded_and_acknowledged_on_the_out_port() {
        let mut pirte = pirte();
        let message = ManagementMessage::Install(forwarder_package("fwd"));
        // Type I ports carry the encoded message; a value tree is rejected.
        assert!(matches!(
            pirte.dispatch_swc_input(
                "mgmt_in",
                dynar_foundation::codec::decode_value(&message.to_bytes()).unwrap()
            ),
            Err(DynarError::ProtocolViolation(_))
        ));
        assert_eq!(pirte.plugin_count(), 0);
        pirte
            .dispatch_swc_input("mgmt_in", Value::Bytes(message.to_bytes()))
            .unwrap();
        let outbox = pirte.drain_outbox();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].0, "mgmt_out");
        let Value::Bytes(ack) = &outbox[0].1 else {
            panic!("acks leave as bytes, got {:?}", outbox[0].1);
        };
        let ack = ManagementMessage::from_bytes(ack).unwrap();
        assert!(matches!(
            ack,
            ManagementMessage::Ack(Ack {
                status: AckStatus::Installed,
                ..
            })
        ));
    }

    #[test]
    fn stop_start_lifecycle_via_management() {
        let mut pirte = pirte();
        pirte.install(forwarder_package("fwd")).unwrap();
        let id = PluginId::new("fwd");
        pirte.handle_management(ManagementMessage::Stop { plugin: id.clone() });
        assert_eq!(pirte.plugin(&id).unwrap().state(), PluginState::Stopped);
        assert_eq!(pirte.run_plugins(), 0, "stopped plug-ins get no slots");
        pirte.handle_management(ManagementMessage::Start { plugin: id.clone() });
        assert_eq!(pirte.plugin(&id).unwrap().state(), PluginState::Running);
        assert_eq!(pirte.run_plugins(), 1);
    }

    #[test]
    fn faulting_plugins_are_contained() {
        let mut pirte = pirte();
        let binary = assemble("bad", "push_int 1\npush_int 0\ndiv\nhalt")
            .unwrap()
            .to_bytes();
        let context = InstallationContext::new(PortInitContext::new(), PortLinkContext::new());
        pirte
            .install(InstallationPackage::new(
                PluginId::new("bad"),
                AppId::new("a"),
                binary,
                context,
            ))
            .unwrap();
        pirte.install(forwarder_package("good")).unwrap();
        pirte.run_plugins();
        assert_eq!(
            pirte.plugin(&PluginId::new("bad")).unwrap().state(),
            PluginState::Failed
        );
        assert_eq!(
            pirte.plugin(&PluginId::new("good")).unwrap().state(),
            PluginState::Running,
            "a faulting plug-in does not take the others down"
        );
        assert_eq!(pirte.stats().plugin_faults, 1);
        assert!(pirte.log().count_at_least(Severity::Error) >= 1);
    }

    #[test]
    fn halted_plugins_finish_and_stop_consuming_slots() {
        let mut pirte = pirte();
        let binary = assemble("oneshot", "push_int 1\npop\nhalt")
            .unwrap()
            .to_bytes();
        let context = InstallationContext::new(PortInitContext::new(), PortLinkContext::new());
        pirte
            .install(InstallationPackage::new(
                PluginId::new("oneshot"),
                AppId::new("a"),
                binary,
                context,
            ))
            .unwrap();
        assert_eq!(pirte.run_plugins(), 1);
        assert_eq!(
            pirte.plugin(&PluginId::new("oneshot")).unwrap().state(),
            PluginState::Finished
        );
        assert_eq!(pirte.run_plugins(), 0);
    }

    #[test]
    fn external_data_reaches_direct_ports() {
        let mut pirte = pirte();
        let binary = assemble("com", "yield\nhalt").unwrap().to_bytes();
        let context = InstallationContext::new(
            PortInitContext::new().with_port(
                "ext",
                PluginPortId::new(0),
                PluginPortDirection::Required,
            ),
            PortLinkContext::new().with_link(PluginPortId::new(0), LinkTarget::Direct),
        );
        pirte
            .install(InstallationPackage::new(
                PluginId::new("com"),
                AppId::new("a"),
                binary,
                context,
            ))
            .unwrap();
        let responses = pirte.handle_management(ManagementMessage::ExternalData {
            port: PluginPortId::new(0),
            payload: Value::Text("Wheels:30".into()),
        });
        assert!(responses.is_empty());
        assert_eq!(
            pirte.read_plugin_port(&PluginId::new("com"), PluginPortId::new(0)),
            Some(Value::Text("Wheels:30".into()))
        );
    }

    #[test]
    fn unknown_swc_port_is_reported() {
        let mut pirte = pirte();
        assert!(matches!(
            pirte
                .dispatch_swc_input("ghost_port", Value::Void)
                .unwrap_err(),
            DynarError::NotFound { .. }
        ));
    }
}

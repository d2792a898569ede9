//! Installed plug-ins and their ports.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, PluginId, PluginPortId};
use dynar_foundation::value::Value;
use dynar_vm::budget::Budget;
use dynar_vm::engine::{Engine, ExecMode};
use dynar_vm::program::Program;

use crate::context::{ExternalConnectionContext, InstallationContext, LinkTarget};
use crate::lifecycle::{LifecycleRequest, PluginState};

/// How many inbound values one plug-in port buffers before dropping the
/// oldest (the communication-resource part of the best-effort budget).
pub const PLUGIN_PORT_QUEUE: usize = 32;

/// Whether a plug-in port is written or read by the plug-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PluginPortDirection {
    /// The plug-in writes on this port.
    Provided,
    /// The plug-in reads from this port.
    Required,
}

impl fmt::Display for PluginPortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PluginPortDirection::Provided => f.write_str("provided"),
            PluginPortDirection::Required => f.write_str("required"),
        }
    }
}

/// The runtime state of one plug-in port.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PluginPort {
    /// The SW-C-scope unique id assigned by the server's PIC.
    pub id: PluginPortId,
    /// The developer-chosen port name.
    pub name: String,
    /// The direction from the plug-in's perspective.
    pub direction: PluginPortDirection,
    /// Where the port is linked, per the PLC.
    pub link: LinkTarget,
    queue: VecDeque<Value>,
    last: Value,
    overflows: u64,
}

impl PluginPort {
    fn new(
        id: PluginPortId,
        name: String,
        direction: PluginPortDirection,
        link: LinkTarget,
    ) -> Self {
        PluginPort {
            id,
            name,
            direction,
            link,
            queue: VecDeque::new(),
            last: Value::Void,
            overflows: 0,
        }
    }

    /// Queues an inbound value for the plug-in (dropping the oldest value on
    /// overflow).
    pub fn push(&mut self, value: Value) {
        if self.queue.len() == PLUGIN_PORT_QUEUE {
            self.queue.pop_front();
            self.overflows += 1;
        }
        self.last = value.clone();
        self.queue.push_back(value);
    }

    /// Records a value written by the plug-in (so diagnostics can observe it).
    pub fn record_output(&mut self, value: Value) {
        self.last = value;
    }

    /// The most recent value seen on the port, in either direction.
    pub fn last(&self) -> &Value {
        &self.last
    }

    /// Consumes the next queued inbound value.
    pub fn take(&mut self) -> Option<Value> {
        self.queue.pop_front()
    }

    /// Number of queued inbound values.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of inbound values dropped because the queue was full.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

/// One installed plug-in: its virtual machine, ports and life-cycle state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Plugin {
    id: PluginId,
    app: AppId,
    engine: Engine,
    state: PluginState,
    ports: Vec<PluginPort>,
    port_index: HashMap<PluginPortId, usize>,
    ecc: Option<ExternalConnectionContext>,
}

impl Plugin {
    /// Instantiates a plug-in from its binary and installation context.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolViolation`](dynar_foundation::error::DynarError::ProtocolViolation)
    /// if the binary cannot be parsed and an
    /// [`InvalidConfiguration`](dynar_foundation::error::DynarError::InvalidConfiguration)
    /// if the context is internally inconsistent.
    pub fn instantiate(
        id: PluginId,
        app: AppId,
        binary: &[u8],
        context: &InstallationContext,
        budget: Budget,
        mode: ExecMode,
    ) -> Result<Self> {
        context.validate()?;
        let program = Program::from_bytes(binary)?;
        let mut ports = Vec::with_capacity(context.pic.ports().len());
        let mut port_index = HashMap::new();
        for init in context.pic.ports() {
            let link = context.plc.target_of(init.id);
            port_index.insert(init.id, ports.len());
            ports.push(PluginPort::new(
                init.id,
                init.name.clone(),
                init.direction,
                link,
            ));
        }
        Ok(Plugin {
            id,
            app,
            engine: Engine::new(program, budget, mode)?,
            state: PluginState::Installed,
            ports,
            port_index,
            ecc: context.ecc.clone(),
        })
    }

    /// The plug-in identifier.
    pub fn id(&self) -> &PluginId {
        &self.id
    }

    /// The application this plug-in belongs to.
    pub fn app(&self) -> &AppId {
        &self.app
    }

    /// The current life-cycle state.
    pub fn state(&self) -> PluginState {
        self.state
    }

    /// The External Connection Context shipped with the plug-in, if any.
    pub fn ecc(&self) -> Option<&ExternalConnectionContext> {
        self.ecc.as_ref()
    }

    /// The plug-in's ports in slot order (the order of the PIC).
    pub fn ports(&self) -> &[PluginPort] {
        &self.ports
    }

    /// Looks up a port by its SW-C-scope unique id.
    pub fn port(&self, id: PluginPortId) -> Option<&PluginPort> {
        self.port_index.get(&id).map(|&i| &self.ports[i])
    }

    /// Mutable access to a port by id.
    pub fn port_mut(&mut self, id: PluginPortId) -> Option<&mut PluginPort> {
        self.port_index
            .get(&id)
            .copied()
            .map(move |i| &mut self.ports[i])
    }

    /// Mutable access to a port by its dense slot index (the order of
    /// [`Plugin::ports`]), used by the PIRTE's compiled route tables.
    pub fn port_at_mut(&mut self, index: usize) -> Option<&mut PluginPort> {
        self.ports.get_mut(index)
    }

    /// The execution engine hosting the plug-in code (interpreter,
    /// compiled fast plane, or lock-step shadow of both).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Applies a life-cycle transition, resetting the VM on restart.
    ///
    /// # Errors
    ///
    /// Returns a
    /// [`LifecycleViolation`](dynar_foundation::error::DynarError::LifecycleViolation)
    /// for illegal transitions.
    pub fn request(&mut self, request: LifecycleRequest) -> Result<PluginState> {
        let next = self.state.transition(self.id.name(), request)?;
        if request == LifecycleRequest::Restart {
            self.engine.reset();
        }
        self.state = next;
        Ok(next)
    }

    /// Splits the plug-in into the parts needed to run one VM slot: the
    /// machine itself and the port table the host adapter works on.
    pub(crate) fn split_for_run(&mut self) -> (&PluginId, &mut Engine, &mut [PluginPort]) {
        (&self.id, &mut self.engine, &mut self.ports)
    }

    /// Records that the VM faulted or finished, updating the life-cycle
    /// state accordingly.
    pub(crate) fn record_vm_outcome(&mut self, outcome: VmOutcome) {
        let request = match outcome {
            VmOutcome::Faulted => LifecycleRequest::Fail,
            VmOutcome::Finished => LifecycleRequest::Finish,
        };
        if let Ok(next) = self.state.transition(self.id.name(), request) {
            self.state = next;
        }
    }
}

/// Terminal outcomes of a VM slot that affect the plug-in life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VmOutcome {
    /// The plug-in program faulted.
    Faulted,
    /// The plug-in program halted normally.
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{PortInitContext, PortLinkContext};
    use dynar_vm::assembler::assemble;

    fn simple_context() -> InstallationContext {
        InstallationContext::new(
            PortInitContext::new()
                .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
                .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
            PortLinkContext::new(),
        )
    }

    fn simple_binary() -> Vec<u8> {
        assemble("p", "take_port 0\nwrite_port 1\nhalt")
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn instantiate_builds_ports_in_slot_order() {
        let plugin = Plugin::instantiate(
            PluginId::new("p"),
            AppId::new("a"),
            &simple_binary(),
            &simple_context(),
            Budget::default(),
            ExecMode::default(),
        )
        .unwrap();
        assert_eq!(plugin.ports().len(), 2);
        assert_eq!(plugin.ports()[0].name, "in");
        assert_eq!(plugin.ports()[1].id, PluginPortId::new(1));
        assert_eq!(plugin.state(), PluginState::Installed);
        assert!(plugin.ecc().is_none());
        assert_eq!(plugin.app().name(), "a");
    }

    #[test]
    fn instantiate_rejects_garbage_binaries_and_bad_contexts() {
        assert!(Plugin::instantiate(
            PluginId::new("p"),
            AppId::new("a"),
            &[1, 2, 3],
            &simple_context(),
            Budget::default(),
            ExecMode::default(),
        )
        .is_err());

        let bad_context = InstallationContext::new(
            PortInitContext::new()
                .with_port("dup", PluginPortId::new(0), PluginPortDirection::Required)
                .with_port("dup", PluginPortId::new(1), PluginPortDirection::Required),
            PortLinkContext::new(),
        );
        assert!(Plugin::instantiate(
            PluginId::new("p"),
            AppId::new("a"),
            &simple_binary(),
            &bad_context,
            Budget::default(),
            ExecMode::default(),
        )
        .is_err());
    }

    #[test]
    fn port_queue_bounds_and_overflow_counting() {
        let mut plugin = Plugin::instantiate(
            PluginId::new("p"),
            AppId::new("a"),
            &simple_binary(),
            &simple_context(),
            Budget::default(),
            ExecMode::default(),
        )
        .unwrap();
        let port = plugin.port_mut(PluginPortId::new(0)).unwrap();
        for i in 0..(PLUGIN_PORT_QUEUE + 5) {
            port.push(Value::I64(i as i64));
        }
        assert_eq!(port.pending(), PLUGIN_PORT_QUEUE);
        assert_eq!(port.overflows(), 5);
        assert_eq!(port.take(), Some(Value::I64(5)));
        assert_eq!(port.last(), &Value::I64((PLUGIN_PORT_QUEUE + 4) as i64));
    }

    #[test]
    fn lifecycle_requests_flow_through() {
        let mut plugin = Plugin::instantiate(
            PluginId::new("p"),
            AppId::new("a"),
            &simple_binary(),
            &simple_context(),
            Budget::default(),
            ExecMode::default(),
        )
        .unwrap();
        plugin.request(LifecycleRequest::Start).unwrap();
        assert_eq!(plugin.state(), PluginState::Running);
        plugin.request(LifecycleRequest::Stop).unwrap();
        assert!(plugin.request(LifecycleRequest::Finish).is_err());
        plugin.request(LifecycleRequest::Restart).unwrap();
        assert_eq!(plugin.state(), PluginState::Running);
    }

    #[test]
    fn unknown_port_lookup_returns_none() {
        let plugin = Plugin::instantiate(
            PluginId::new("p"),
            AppId::new("a"),
            &simple_binary(),
            &simple_context(),
            Budget::default(),
            ExecMode::default(),
        )
        .unwrap();
        assert!(plugin.port(PluginPortId::new(42)).is_none());
    }
}

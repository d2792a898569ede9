//! The plug-in SW-C: an ordinary AUTOSAR component wrapping a PIRTE.
//!
//! "AUTOSAR SW-Cs sandbox in the plug-ins, allowing them to interact with the
//! rest of the system through standard SW-C ports, while the underlying
//! concepts, such as the RTE, BSW and legacy ASW remain unchanged" (§3.1.1).
//! [`PluginSwc`] is that sandbox: it implements the RTE's
//! [`ComponentBehavior`] trait, forwards everything arriving on its SW-C
//! ports into the embedded [`Pirte`], grants the plug-ins their execution
//! slots and writes whatever the PIRTE produced back out through the RTE.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{EcuId, PortId};
use dynar_foundation::value::Value;
use dynar_rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar_rte::port::{PortDirection, PortSpec};
use dynar_vm::budget::Budget;
use dynar_vm::engine::ExecMode;

use crate::pirte::{Pirte, SwcInput, SwcOutput};
use crate::virtual_port::{PortDataDirection, VirtualPortSpec};

/// Name of the management runnable of every plug-in SW-C.
pub const PIRTE_RUNNABLE: &str = "pirte_main";

/// Queue length used for the required SW-C ports of a plug-in SW-C.
const INPUT_QUEUE_LENGTH: usize = 32;

/// A shared handle to a [`Pirte`], used by the hosting component behaviour,
/// the ECM and the simulation harness alike.
pub type SharedPirte = Arc<Mutex<Pirte>>;

/// The OEM-provided static configuration of one plug-in SW-C: its virtual
/// ports, its type I management ports and the budget granted to each plug-in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PluginSwcConfig {
    name: String,
    priority: u8,
    virtual_ports: Vec<VirtualPortSpec>,
    type_i_in: Option<String>,
    type_i_out: Option<String>,
    plugin_budget: Budget,
    exec_mode: ExecMode,
}

impl PluginSwcConfig {
    /// Creates a configuration with no virtual ports and default budgets.
    pub fn new(name: impl Into<String>) -> Self {
        PluginSwcConfig {
            name: name.into(),
            priority: 2,
            virtual_ports: Vec::new(),
            type_i_in: None,
            type_i_out: None,
            plugin_budget: Budget::default(),
            exec_mode: ExecMode::default(),
        }
    }

    /// Adds a virtual port to the static API.
    #[must_use]
    pub fn with_virtual_port(mut self, spec: VirtualPortSpec) -> Self {
        self.virtual_ports.push(spec);
        self
    }

    /// Declares the pair of type I SW-C ports connecting this SW-C with the
    /// ECM (an inbound management port and an outbound acknowledgement port).
    #[must_use]
    pub fn with_type_i_ports(
        mut self,
        inbound: impl Into<String>,
        outbound: impl Into<String>,
    ) -> Self {
        self.type_i_in = Some(inbound.into());
        self.type_i_out = Some(outbound.into());
        self
    }

    /// Sets the OS task priority of the hosting component.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the best-effort budget granted to each plug-in.
    #[must_use]
    pub fn with_plugin_budget(mut self, budget: Budget) -> Self {
        self.plugin_budget = budget;
        self
    }

    /// The component instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The virtual ports of the static API.
    pub fn virtual_ports(&self) -> &[VirtualPortSpec] {
        &self.virtual_ports
    }

    /// The inbound type I SW-C port name, if the SW-C is connected to an ECM.
    pub fn type_i_in(&self) -> Option<&str> {
        self.type_i_in.as_deref()
    }

    /// The outbound type I SW-C port name, if the SW-C is connected to an ECM.
    pub fn type_i_out(&self) -> Option<&str> {
        self.type_i_out.as_deref()
    }

    /// Returns `true` if `port` is the inbound type I SW-C port.
    pub fn is_type_i_in(&self, port: &str) -> bool {
        self.type_i_in.as_deref() == Some(port)
    }

    /// Selects the VM execution plane for every plug-in hosted by this
    /// SW-C (compiled fast plane by default; `Shadow` runs both planes in
    /// lock-step asserting equivalence).
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// The budget granted to each plug-in hosted by this SW-C.
    pub fn plugin_budget(&self) -> Budget {
        self.plugin_budget
    }

    /// The VM execution plane plug-ins of this SW-C run on.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// The names of the SW-C ports on which data arrives for the PIRTE: the
    /// type I inbound port plus every virtual port whose data flows towards
    /// the plug-ins.
    pub fn input_ports(&self) -> Vec<String> {
        let mut ports: Vec<String> = self.type_i_in.iter().cloned().collect();
        ports.extend(
            self.virtual_ports
                .iter()
                .filter(|v| v.direction() == PortDataDirection::ToPlugins)
                .map(|v| v.swc_port().to_owned()),
        );
        ports
    }

    /// Checks internal consistency: unique virtual-port ids, names and SW-C
    /// ports, and type I ports distinct from virtual-port SW-C ports.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] on the first conflict.
    pub fn validate(&self) -> Result<()> {
        for (i, spec) in self.virtual_ports.iter().enumerate() {
            let earlier = &self.virtual_ports[..i];
            if earlier.iter().any(|s| s.id() == spec.id()) {
                return Err(DynarError::invalid_config(format!(
                    "virtual port id {} declared twice",
                    spec.id()
                )));
            }
            if earlier.iter().any(|s| s.name() == spec.name()) {
                return Err(DynarError::invalid_config(format!(
                    "virtual port name {} declared twice",
                    spec.name()
                )));
            }
            if earlier.iter().any(|s| s.swc_port() == spec.swc_port()) {
                return Err(DynarError::invalid_config(format!(
                    "SW-C port {} mapped to two virtual ports",
                    spec.swc_port()
                )));
            }
            if self.type_i_in.as_deref() == Some(spec.swc_port())
                || self.type_i_out.as_deref() == Some(spec.swc_port())
            {
                return Err(DynarError::invalid_config(format!(
                    "SW-C port {} used both as a type I port and a virtual port",
                    spec.swc_port()
                )));
            }
        }
        if self.type_i_in.is_some() && self.type_i_in == self.type_i_out {
            return Err(DynarError::invalid_config(
                "type I inbound and outbound ports must differ",
            ));
        }
        Ok(())
    }

    /// Builds the AUTOSAR component descriptor for this configuration: one
    /// SW-C port per virtual port, the pair of type I ports, and the periodic
    /// management runnable that drives the PIRTE.
    ///
    /// # Errors
    ///
    /// Propagates [`PluginSwcConfig::validate`] failures.
    pub fn descriptor(&self) -> Result<SwcDescriptor> {
        self.validate()?;
        let mut descriptor = SwcDescriptor::new(&self.name).with_priority(self.priority);
        if let (Some(inbound), Some(outbound)) = (&self.type_i_in, &self.type_i_out) {
            descriptor = descriptor
                .with_port(PortSpec::queued(
                    inbound,
                    PortDirection::Required,
                    INPUT_QUEUE_LENGTH,
                ))
                .with_port(PortSpec::relay(outbound));
        }
        for spec in &self.virtual_ports {
            let port = match spec.direction() {
                PortDataDirection::ToPlugins => {
                    PortSpec::queued(spec.swc_port(), PortDirection::Required, INPUT_QUEUE_LENGTH)
                }
                PortDataDirection::ToSystem => {
                    PortSpec::sender_receiver(spec.swc_port(), PortDirection::Provided)
                }
            };
            descriptor = descriptor.with_port(port);
        }
        descriptor =
            descriptor.with_runnable(RunnableSpec::new(PIRTE_RUNNABLE, Trigger::Periodic(1)));
        Ok(descriptor)
    }
}

/// A plug-in SW-C's ports resolved once against the RTE and the PIRTE, so
/// the per-tick [`PluginSwc::pirte_pass`] indexes ids instead of looking up
/// names.
#[derive(Debug, Clone, Default)]
pub struct ResolvedPorts {
    /// Input SW-C ports: the PIRTE input each feeds and its RTE port id.
    inputs: Vec<(SwcInput, PortId)>,
    /// RTE port id per PIRTE outbox index (`None` where the RTE has no such
    /// port; writes there are reported like any failed port write).
    outputs: Vec<Option<PortId>>,
}

impl ResolvedPorts {
    /// Resolves the named input ports and every PIRTE outbox target against
    /// the RTE context of the hosting SW-C.  Called once per behaviour
    /// instance (the wiring never changes after registration).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if an input port is unknown to the
    /// RTE or to the PIRTE's static configuration.
    pub fn resolve(pirte: &Pirte, input_ports: &[String], ctx: &RteContext<'_>) -> Result<Self> {
        let inputs = input_ports
            .iter()
            .map(|name| {
                let input = pirte.input_of(name).ok_or_else(|| {
                    DynarError::not_found("virtual port for SW-C port", name.as_str())
                })?;
                Ok((input, ctx.port_id(name)?))
            })
            .collect::<Result<_>>()?;
        let outputs = (0..pirte.output_count())
            .map(|index| {
                pirte
                    .output_port(SwcOutput::from_index(index))
                    .and_then(|name| ctx.port_id(name).ok())
            })
            .collect();
        Ok(ResolvedPorts { inputs, outputs })
    }
}

/// The component behaviour of a plug-in SW-C.
#[derive(Debug)]
pub struct PluginSwc {
    pirte: SharedPirte,
    input_ports: Vec<String>,
    /// Ports resolved on the first runnable pass.
    resolved: Option<ResolvedPorts>,
    /// Reused outbox drain buffer (ping-pongs with the PIRTE's outbox).
    outbox_scratch: Vec<(SwcOutput, Value)>,
}

impl PluginSwc {
    /// Creates a plug-in SW-C behaviour and the shared PIRTE handle the rest
    /// of the platform (ECM, simulation harness, tests) uses to reach it.
    pub fn create(ecu: EcuId, config: PluginSwcConfig) -> (Self, SharedPirte) {
        let input_ports = config.input_ports();
        let pirte = Arc::new(Mutex::new(Pirte::new(ecu, config)));
        (
            PluginSwc {
                pirte: Arc::clone(&pirte),
                input_ports,
                resolved: None,
                outbox_scratch: Vec::new(),
            },
            pirte,
        )
    }

    /// The shared PIRTE handle.
    pub fn pirte(&self) -> SharedPirte {
        Arc::clone(&self.pirte)
    }

    /// One management pass over an already locked PIRTE: feed inputs to it,
    /// grant execution slots, flush outputs.  Exposed for reuse by the ECM
    /// behaviour, which keeps the same lock for the rest of its pass.
    ///
    /// `ports` carries the pre-resolved port ids (see
    /// [`ResolvedPorts::resolve`]) and `outbox_scratch` a reusable drain
    /// buffer, keeping the steady-state pass free of allocations and name
    /// lookups.
    ///
    /// # Errors
    ///
    /// Propagates RTE errors on the input ports.
    pub fn pirte_pass(
        pirte: &mut Pirte,
        ports: &ResolvedPorts,
        outbox_scratch: &mut Vec<(SwcOutput, Value)>,
        ctx: &mut RteContext<'_>,
    ) -> Result<()> {
        for &(input, port_id) in &ports.inputs {
            while let Some(value) = ctx.receive_by_id(port_id)? {
                if let Err(err) = pirte.dispatch_input(input, value) {
                    let message = format!("dropped input on {}: {err}", pirte.input_name(input));
                    pirte.log_warning(message);
                }
            }
        }
        pirte.run_plugins();
        // A quiet pass (nothing received, every plug-in replayed an idle
        // slot) wrote nothing.
        if !pirte.has_output() {
            return Ok(());
        }
        debug_assert!(outbox_scratch.is_empty());
        pirte.drain_outbox_into(outbox_scratch);
        for (output, value) in outbox_scratch.drain(..) {
            let port = pirte.output_port(output).unwrap_or_default();
            let written = match ports.outputs.get(output.index()).copied().flatten() {
                Some(port_id) => ctx.write_by_id(port_id, value),
                // Unresolved: the name-keyed write reports why.
                None => ctx.write(port, value),
            };
            if let Err(err) = written {
                let message = format!("failed to write SW-C port {port}: {err}");
                pirte.log_warning(message);
            }
        }
        Ok(())
    }
}

impl ComponentBehavior for PluginSwc {
    fn on_runnable(&mut self, _runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        let mut pirte = self.pirte.lock();
        if self.resolved.is_none() {
            self.resolved = Some(ResolvedPorts::resolve(&pirte, &self.input_ports, ctx)?);
        }
        let resolved = self.resolved.as_ref().expect("resolved above");
        Self::pirte_pass(&mut pirte, resolved, &mut self.outbox_scratch, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
    use crate::message::InstallationPackage;
    use crate::plugin::PluginPortDirection;
    use crate::virtual_port::PortKind;
    use dynar_foundation::ids::{AppId, PluginId, PluginPortId, VirtualPortId};
    use dynar_foundation::value::Value;
    use dynar_rte::ecu::Ecu;
    use dynar_vm::assembler::assemble;

    fn config() -> PluginSwcConfig {
        PluginSwcConfig::new("plugin-swc")
            .with_type_i_ports("mgmt_in", "mgmt_out")
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(0),
                "SpeedIn",
                PortKind::TypeIII,
                PortDataDirection::ToPlugins,
                "speed_in",
            ))
            .with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(1),
                "SpeedOut",
                PortKind::TypeIII,
                PortDataDirection::ToSystem,
                "speed_out",
            ))
    }

    fn doubler_package() -> InstallationPackage {
        let binary = assemble(
            "doubler",
            r#"
        loop:
            port_pending 0
            push_int 0
            gt
            jump_if_false idle
            take_port 0
            push_int 2
            mul
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
                    LinkTarget::VirtualPort(VirtualPortId::new(0)),
                )
                .with_link(
                    PluginPortId::new(1),
                    LinkTarget::VirtualPort(VirtualPortId::new(1)),
                ),
        );
        InstallationPackage::new(
            PluginId::new("doubler"),
            AppId::new("demo"),
            binary,
            context,
        )
    }

    #[test]
    fn config_validation_catches_conflicts() {
        assert!(config().validate().is_ok());

        let dup_swc_port = config().with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(9),
            "Other",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "speed_in",
        ));
        assert!(dup_swc_port.validate().is_err());

        let dup_id = config().with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "Other",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "other_port",
        ));
        assert!(dup_id.validate().is_err());

        let same_type_i = PluginSwcConfig::new("x").with_type_i_ports("a", "a");
        assert!(same_type_i.validate().is_err());
    }

    #[test]
    fn descriptor_reflects_config() {
        let descriptor = config().descriptor().unwrap();
        assert_eq!(descriptor.name(), "plugin-swc");
        assert_eq!(descriptor.ports().len(), 4);
        assert!(descriptor.port("mgmt_in").is_some());
        assert!(descriptor.port("speed_out").is_some());
        assert_eq!(descriptor.runnables().len(), 1);
        assert_eq!(descriptor.runnables()[0].name(), PIRTE_RUNNABLE);
    }

    #[test]
    fn input_ports_cover_type_i_and_inbound_virtual_ports() {
        let ports = config().input_ports();
        assert_eq!(ports, vec!["mgmt_in".to_string(), "speed_in".to_string()]);
    }

    #[test]
    fn plugin_swc_runs_inside_an_ecu() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let (behavior, pirte) = PluginSwc::create(EcuId::new(1), config());
        let descriptor = config().descriptor().unwrap();
        let swc = ecu.add_component(descriptor, Box::new(behavior)).unwrap();

        // Install the doubler through the shared handle (the ECM would do the
        // same through the type I port).
        pirte.lock().install(doubler_package()).unwrap();

        // Feed a value into the SW-C port behind the inbound virtual port.
        let speed_in = ecu.rte().port_id(swc, "speed_in").unwrap();
        // Writing on a required port is the RTE's job when a connected
        // provider produces data; simulate it via deliver_inbound mapping.
        let frame = dynar_bus::frame::CanId::new(0x10).unwrap();
        ecu.map_signal_in(frame, swc, "speed_in").unwrap();
        ecu.deliver_inbound(frame, Value::I64(21));
        let _ = speed_in;

        ecu.run(3).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(swc, "speed_out").unwrap(),
            Value::I64(42)
        );
        assert!(pirte.lock().stats().signals_out >= 1);
    }

    #[test]
    fn management_over_type_i_port_installs_and_acknowledges() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let (behavior, pirte) = PluginSwc::create(EcuId::new(1), config());
        let descriptor = config().descriptor().unwrap();
        let swc = ecu.add_component(descriptor, Box::new(behavior)).unwrap();

        let frame = dynar_bus::frame::CanId::new(0x20).unwrap();
        ecu.map_signal_in(frame, swc, "mgmt_in").unwrap();
        let message = crate::message::ManagementMessage::Install(doubler_package());
        ecu.deliver_inbound(frame, Value::Bytes(message.to_bytes()));
        ecu.run(2).unwrap();

        assert_eq!(pirte.lock().plugin_count(), 1);
        let ack_value = ecu.rte().read_port_by_name(swc, "mgmt_out").unwrap();
        let ack = crate::message::ManagementMessage::from_bytes(
            ack_value.as_bytes().expect("acks leave as bytes"),
        )
        .unwrap();
        assert!(matches!(
            ack,
            crate::message::ManagementMessage::Ack(crate::message::Ack {
                status: crate::message::AckStatus::Installed,
                ..
            })
        ));
    }
}

//! The trusted server's data model (Figure 2 of the paper).

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, VirtualPortId};

use dynar_core::plugin::PluginPortDirection;

/// Hardware description of one ECU, uploaded by the OEM (`HW Conf`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EcuHw {
    /// The ECU identifier within the vehicle.
    pub ecu: EcuId,
    /// Memory available to plug-ins, in KiB.
    pub memory_kb: u32,
}

/// The hardware configuration of one vehicle (`HW Conf` module).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HwConf {
    /// The ECUs available to host plug-ins.
    pub ecus: Vec<EcuHw>,
}

impl HwConf {
    /// Creates an empty hardware configuration.
    pub fn new() -> Self {
        HwConf::default()
    }

    /// Adds one ECU.
    #[must_use]
    pub fn with_ecu(mut self, ecu: EcuId, memory_kb: u32) -> Self {
        self.ecus.push(EcuHw { ecu, memory_kb });
        self
    }

    /// Looks an ECU up.
    pub fn ecu(&self, ecu: EcuId) -> Option<&EcuHw> {
        self.ecus.iter().find(|e| e.ecu == ecu)
    }
}

/// The kind of a virtual port as declared in the system software
/// configuration.  Type II declarations carry the peer ECU the port pair
/// leads to, which the context generator needs to resolve remote plug-in
/// connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VirtualPortKindDecl {
    /// Towards the ECM.
    TypeI,
    /// Towards the plug-in SW-C on the given peer ECU.
    TypeII {
        /// The ECU hosting the peer plug-in SW-C.
        peer: EcuId,
    },
    /// Towards the built-in software.
    TypeIII,
}

/// One virtual port exposed by a plug-in SW-C (`SystemSW Conf`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualPortDecl {
    /// The virtual-port id used in generated PLCs.
    pub id: VirtualPortId,
    /// The name plug-in developers refer to, e.g. `WheelsReq`.
    pub name: String,
    /// The port kind.
    pub kind: VirtualPortKindDecl,
}

/// One plug-in SW-C available in a vehicle (`SystemSW Conf`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PluginSwcDecl {
    /// The ECU hosting the SW-C.
    pub ecu: EcuId,
    /// The component instance name.
    pub swc_name: String,
    /// Whether this SW-C is the vehicle's ECM.
    pub is_ecm: bool,
    /// The virtual ports it exposes to plug-ins.
    pub virtual_ports: Vec<VirtualPortDecl>,
}

/// The built-in software configuration of one vehicle model
/// (`SystemSW Conf` module).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SystemSwConf {
    /// The vehicle model this configuration describes.
    pub model: String,
    /// The plug-in SW-Cs available to host plug-ins.
    pub swcs: Vec<PluginSwcDecl>,
}

impl SystemSwConf {
    /// Creates a configuration for the given vehicle model.
    pub fn new(model: impl Into<String>) -> Self {
        SystemSwConf {
            model: model.into(),
            swcs: Vec::new(),
        }
    }

    /// Adds one plug-in SW-C declaration.
    #[must_use]
    pub fn with_swc(mut self, swc: PluginSwcDecl) -> Self {
        self.swcs.push(swc);
        self
    }

    /// The plug-in SW-C hosted on the given ECU, if any.
    pub fn swc_on(&self, ecu: EcuId) -> Option<&PluginSwcDecl> {
        self.swcs.iter().find(|s| s.ecu == ecu)
    }

    /// The ECU hosting the ECM SW-C, if declared.
    pub fn ecm_ecu(&self) -> Option<EcuId> {
        self.swcs.iter().find(|s| s.is_ecm).map(|s| s.ecu)
    }
}

/// One port declared by a plug-in developer for their plug-in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PluginPortDecl {
    /// The developer-chosen port name.
    pub name: String,
    /// The direction from the plug-in's perspective.
    pub direction: PluginPortDirection,
}

/// One plug-in binary stored in the server's `APP` database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PluginArtifact {
    /// The plug-in identifier.
    pub id: PluginId,
    /// The portable plug-in binary.
    pub binary: Vec<u8>,
    /// The ports the plug-in code uses, in VM slot order.
    pub ports: Vec<PluginPortDecl>,
}

/// Where a plug-in should run in a particular vehicle model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The plug-in being placed.
    pub plugin: PluginId,
    /// The ECU whose plug-in SW-C hosts it.
    pub ecu: EcuId,
}

/// How one plug-in port should be connected in a particular vehicle model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectionDecl {
    /// The PIRTE communicates with the port directly (no virtual port).
    Direct,
    /// Connect to the named virtual port of the hosting SW-C.
    VirtualPort {
        /// The virtual port name, e.g. `SpeedReq`.
        name: String,
    },
    /// Connect, through a type II port pair, to a port of another plug-in of
    /// the same application.
    RemotePlugin {
        /// The receiving plug-in.
        plugin: PluginId,
        /// The receiving plug-in's port name.
        port: String,
    },
    /// The port receives data from (or sends data to) an external endpoint;
    /// the ECM routes it using the generated ECC.
    External {
        /// The external endpoint, e.g. an address or a device name.
        endpoint: String,
        /// The external message id, e.g. `Wheels`.
        message_id: String,
    },
}

/// One port-connection declaration inside a [`SwConf`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortConnection {
    /// The plug-in owning the port.
    pub plugin: PluginId,
    /// The port name as declared in the plug-in artifact.
    pub port: String,
    /// How to connect it.
    pub target: ConnectionDecl,
}

/// One deployment description for an application on one vehicle model
/// (`SW conf` module).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwConf {
    /// The vehicle model this configuration applies to.
    pub model: String,
    /// Minimum plug-in memory each target ECU must provide, in KiB.
    pub min_memory_kb: u32,
    /// Which plug-in runs on which ECU.
    pub placements: Vec<Placement>,
    /// How the plug-in ports are connected.
    pub connections: Vec<PortConnection>,
}

impl SwConf {
    /// Creates an empty deployment description for a vehicle model.
    pub fn new(model: impl Into<String>) -> Self {
        SwConf {
            model: model.into(),
            min_memory_kb: 0,
            placements: Vec::new(),
            connections: Vec::new(),
        }
    }

    /// Sets the memory requirement.
    #[must_use]
    pub fn with_min_memory_kb(mut self, memory_kb: u32) -> Self {
        self.min_memory_kb = memory_kb;
        self
    }

    /// Places a plug-in on an ECU.
    #[must_use]
    pub fn with_placement(mut self, plugin: PluginId, ecu: EcuId) -> Self {
        self.placements.push(Placement { plugin, ecu });
        self
    }

    /// Declares one port connection.
    #[must_use]
    pub fn with_connection(
        mut self,
        plugin: PluginId,
        port: impl Into<String>,
        target: ConnectionDecl,
    ) -> Self {
        self.connections.push(PortConnection {
            plugin,
            port: port.into(),
            target,
        });
        self
    }

    /// The ECU a plug-in is placed on, if any.
    pub fn placement_of(&self, plugin: &PluginId) -> Option<EcuId> {
        self.placements
            .iter()
            .find(|p| &p.plugin == plugin)
            .map(|p| p.ecu)
    }
}

/// An application uploaded by a developer: plug-in binaries plus one
/// deployment description per supported vehicle model, dependencies and
/// conflicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppDefinition {
    /// The application identifier.
    pub id: AppId,
    /// The plug-ins the application consists of.
    pub plugins: Vec<PluginArtifact>,
    /// Applications that must already be installed.
    pub requires: Vec<AppId>,
    /// Applications that must not be installed at the same time.
    pub conflicts: Vec<AppId>,
    /// Deployment descriptions, one per supported vehicle model.
    pub sw_confs: Vec<SwConf>,
}

impl AppDefinition {
    /// Creates an application with no plug-ins yet.
    pub fn new(id: AppId) -> Self {
        AppDefinition {
            id,
            plugins: Vec::new(),
            requires: Vec::new(),
            conflicts: Vec::new(),
            sw_confs: Vec::new(),
        }
    }

    /// Adds a plug-in artifact.
    #[must_use]
    pub fn with_plugin(mut self, plugin: PluginArtifact) -> Self {
        self.plugins.push(plugin);
        self
    }

    /// Declares a dependency on another application.
    #[must_use]
    pub fn with_dependency(mut self, app: AppId) -> Self {
        self.requires.push(app);
        self
    }

    /// Declares a conflict with another application.
    #[must_use]
    pub fn with_conflict(mut self, app: AppId) -> Self {
        self.conflicts.push(app);
        self
    }

    /// Adds a deployment description.
    #[must_use]
    pub fn with_sw_conf(mut self, conf: SwConf) -> Self {
        self.sw_confs.push(conf);
        self
    }

    /// The artifact of a given plug-in.
    pub fn plugin(&self, id: &PluginId) -> Option<&PluginArtifact> {
        self.plugins.iter().find(|p| &p.id == id)
    }

    /// The deployment description matching a vehicle model, if any.
    pub fn sw_conf_for(&self, model: &str) -> Option<&SwConf> {
        self.sw_confs.iter().find(|c| c.model == model)
    }

    /// Validates internal consistency: every placement and connection refers
    /// to a declared plug-in, and every placed plug-in has a placement in
    /// each configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] describing the first
    /// inconsistency.
    pub fn validate(&self) -> Result<()> {
        for conf in &self.sw_confs {
            for placement in &conf.placements {
                if self.plugin(&placement.plugin).is_none() {
                    return Err(DynarError::invalid_config(format!(
                        "configuration for {} places unknown plug-in {}",
                        conf.model, placement.plugin
                    )));
                }
            }
            for plugin in &self.plugins {
                if conf.placement_of(&plugin.id).is_none() {
                    return Err(DynarError::invalid_config(format!(
                        "configuration for {} does not place plug-in {}",
                        conf.model, plugin.id
                    )));
                }
            }
            for connection in &conf.connections {
                let Some(artifact) = self.plugin(&connection.plugin) else {
                    return Err(DynarError::invalid_config(format!(
                        "configuration for {} connects unknown plug-in {}",
                        conf.model, connection.plugin
                    )));
                };
                if !artifact.ports.iter().any(|p| p.name == connection.port) {
                    return Err(DynarError::invalid_config(format!(
                        "plug-in {} has no port named {}",
                        connection.plugin, connection.port
                    )));
                }
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Durability-plane value codec
// ----------------------------------------------------------------------
//
// The write-ahead journal and the state snapshots of `TrustedServer`
// (`crate::journal`) persist whole model objects with the shared
// `dynar_foundation::codec`.  Each type streams its encoding with
// `encode_into` (no `Value` tree is built on the write path) and decodes the
// `Value` form of those bytes with `from_value`.  Every decoder returns a
// typed [`DynarError::ProtocolViolation`] on malformed input — journals are
// read back on the recovery path, where the bytes are untrusted by
// definition.

use dynar_foundation::codec;
use dynar_foundation::value::Value;

fn malformed(what: &str) -> DynarError {
    DynarError::ProtocolViolation(format!("malformed model encoding: {what}"))
}

fn decode_ecu(value: &Value, what: &str) -> Result<EcuId> {
    let id = value.expect_i64()?;
    let id = u16::try_from(id).map_err(|_| malformed(what))?;
    Ok(EcuId::new(id))
}

fn decode_u32(value: &Value, what: &str) -> Result<u32> {
    let raw = value.expect_i64()?;
    u32::try_from(raw).map_err(|_| malformed(what))
}

fn decode_text<'a>(value: &'a Value, what: &str) -> Result<&'a str> {
    value.as_text().ok_or_else(|| malformed(what))
}

impl EcuHw {
    /// Appends the ECU description's encoding, `[ecu, memory_kb]`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(2, out);
        codec::encode_i64(i64::from(self.ecu.index()), out);
        codec::encode_i64(i64::from(self.memory_kb), out);
    }

    /// Decodes an ECU description encoded by [`EcuHw::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [ecu, memory_kb] = value.as_list().ok_or_else(|| malformed("ECU hw"))? else {
            return Err(malformed("ECU hw arity"));
        };
        Ok(EcuHw {
            ecu: decode_ecu(ecu, "ECU id")?,
            memory_kb: decode_u32(memory_kb, "ECU memory")?,
        })
    }
}

impl HwConf {
    /// Appends the hardware configuration's encoding (the list of its ECUs)
    /// to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(self.ecus.len(), out);
        for ecu in &self.ecus {
            ecu.encode_into(out);
        }
    }

    /// Decodes a configuration encoded by [`HwConf::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let ecus = value
            .as_list()
            .ok_or_else(|| malformed("hw conf"))?
            .iter()
            .map(EcuHw::from_value)
            .collect::<Result<Vec<_>>>()?;
        Ok(HwConf { ecus })
    }
}

impl VirtualPortKindDecl {
    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            VirtualPortKindDecl::TypeI => {
                codec::encode_list_header(1, out);
                codec::encode_i64(0, out);
            }
            VirtualPortKindDecl::TypeII { peer } => {
                codec::encode_list_header(2, out);
                codec::encode_i64(1, out);
                codec::encode_i64(i64::from(peer.index()), out);
            }
            VirtualPortKindDecl::TypeIII => {
                codec::encode_list_header(1, out);
                codec::encode_i64(2, out);
            }
        }
    }

    fn from_value(value: &Value) -> Result<Self> {
        let parts = value.as_list().ok_or_else(|| malformed("port kind"))?;
        match parts {
            [tag] if tag.expect_i64()? == 0 => Ok(VirtualPortKindDecl::TypeI),
            [tag, peer] if tag.expect_i64()? == 1 => Ok(VirtualPortKindDecl::TypeII {
                peer: decode_ecu(peer, "type II peer")?,
            }),
            [tag] if tag.expect_i64()? == 2 => Ok(VirtualPortKindDecl::TypeIII),
            _ => Err(malformed("port kind tag")),
        }
    }
}

impl VirtualPortDecl {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(3, out);
        codec::encode_i64(i64::from(self.id.index()), out);
        codec::encode_text(&self.name, out);
        self.kind.encode_into(out);
    }

    fn from_value(value: &Value) -> Result<Self> {
        let [id, name, kind] = value.as_list().ok_or_else(|| malformed("virtual port"))? else {
            return Err(malformed("virtual port arity"));
        };
        let id = id.expect_i64()?;
        let id = u16::try_from(id).map_err(|_| malformed("virtual port id"))?;
        Ok(VirtualPortDecl {
            id: VirtualPortId::new(id),
            name: decode_text(name, "virtual port name")?.to_owned(),
            kind: VirtualPortKindDecl::from_value(kind)?,
        })
    }
}

impl PluginSwcDecl {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(4, out);
        codec::encode_i64(i64::from(self.ecu.index()), out);
        codec::encode_text(&self.swc_name, out);
        codec::encode_bool(self.is_ecm, out);
        codec::encode_list_header(self.virtual_ports.len(), out);
        for port in &self.virtual_ports {
            port.encode_into(out);
        }
    }

    fn from_value(value: &Value) -> Result<Self> {
        let [ecu, swc_name, is_ecm, ports] =
            value.as_list().ok_or_else(|| malformed("plug-in SW-C"))?
        else {
            return Err(malformed("plug-in SW-C arity"));
        };
        Ok(PluginSwcDecl {
            ecu: decode_ecu(ecu, "SW-C ECU")?,
            swc_name: decode_text(swc_name, "SW-C name")?.to_owned(),
            is_ecm: is_ecm.as_bool().ok_or_else(|| malformed("SW-C ECM flag"))?,
            virtual_ports: ports
                .as_list()
                .ok_or_else(|| malformed("SW-C virtual ports"))?
                .iter()
                .map(VirtualPortDecl::from_value)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

impl SystemSwConf {
    /// Appends the system software configuration's encoding, `[model,
    /// SW-Cs]`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(2, out);
        codec::encode_text(&self.model, out);
        codec::encode_list_header(self.swcs.len(), out);
        for swc in &self.swcs {
            swc.encode_into(out);
        }
    }

    /// Decodes a configuration encoded by [`SystemSwConf::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [model, swcs] = value.as_list().ok_or_else(|| malformed("system sw conf"))? else {
            return Err(malformed("system sw conf arity"));
        };
        Ok(SystemSwConf {
            model: decode_text(model, "system model")?.to_owned(),
            swcs: swcs
                .as_list()
                .ok_or_else(|| malformed("system SW-Cs"))?
                .iter()
                .map(PluginSwcDecl::from_value)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

impl PluginPortDecl {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(2, out);
        codec::encode_text(&self.name, out);
        codec::encode_i64(
            match self.direction {
                PluginPortDirection::Provided => 0,
                PluginPortDirection::Required => 1,
            },
            out,
        );
    }

    fn from_value(value: &Value) -> Result<Self> {
        let [name, direction] = value.as_list().ok_or_else(|| malformed("plug-in port"))? else {
            return Err(malformed("plug-in port arity"));
        };
        let direction = match direction.expect_i64()? {
            0 => PluginPortDirection::Provided,
            1 => PluginPortDirection::Required,
            _ => return Err(malformed("plug-in port direction")),
        };
        Ok(PluginPortDecl {
            name: decode_text(name, "plug-in port name")?.to_owned(),
            direction,
        })
    }
}

impl PluginArtifact {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(3, out);
        codec::encode_text(self.id.name(), out);
        codec::encode_bytes(&self.binary, out);
        codec::encode_list_header(self.ports.len(), out);
        for port in &self.ports {
            port.encode_into(out);
        }
    }

    fn from_value(value: &Value) -> Result<Self> {
        let [id, binary, ports] = value.as_list().ok_or_else(|| malformed("artifact"))? else {
            return Err(malformed("artifact arity"));
        };
        Ok(PluginArtifact {
            id: PluginId::new(decode_text(id, "artifact id")?),
            binary: binary
                .as_bytes()
                .ok_or_else(|| malformed("artifact binary"))?
                .to_vec(),
            ports: ports
                .as_list()
                .ok_or_else(|| malformed("artifact ports"))?
                .iter()
                .map(PluginPortDecl::from_value)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

impl ConnectionDecl {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ConnectionDecl::Direct => {
                codec::encode_list_header(1, out);
                codec::encode_i64(0, out);
            }
            ConnectionDecl::VirtualPort { name } => {
                codec::encode_list_header(2, out);
                codec::encode_i64(1, out);
                codec::encode_text(name, out);
            }
            ConnectionDecl::RemotePlugin { plugin, port } => {
                codec::encode_list_header(3, out);
                codec::encode_i64(2, out);
                codec::encode_text(plugin.name(), out);
                codec::encode_text(port, out);
            }
            ConnectionDecl::External {
                endpoint,
                message_id,
            } => {
                codec::encode_list_header(3, out);
                codec::encode_i64(3, out);
                codec::encode_text(endpoint, out);
                codec::encode_text(message_id, out);
            }
        }
    }

    fn from_value(value: &Value) -> Result<Self> {
        let parts = value.as_list().ok_or_else(|| malformed("connection"))?;
        match parts {
            [tag] if tag.expect_i64()? == 0 => Ok(ConnectionDecl::Direct),
            [tag, name] if tag.expect_i64()? == 1 => Ok(ConnectionDecl::VirtualPort {
                name: decode_text(name, "virtual port target")?.to_owned(),
            }),
            [tag, plugin, port] if tag.expect_i64()? == 2 => Ok(ConnectionDecl::RemotePlugin {
                plugin: PluginId::new(decode_text(plugin, "remote plug-in")?),
                port: decode_text(port, "remote port")?.to_owned(),
            }),
            [tag, endpoint, message_id] if tag.expect_i64()? == 3 => Ok(ConnectionDecl::External {
                endpoint: decode_text(endpoint, "external endpoint")?.to_owned(),
                message_id: decode_text(message_id, "external message id")?.to_owned(),
            }),
            _ => Err(malformed("connection tag")),
        }
    }
}

impl PortConnection {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(3, out);
        codec::encode_text(self.plugin.name(), out);
        codec::encode_text(&self.port, out);
        self.target.encode_into(out);
    }

    fn from_value(value: &Value) -> Result<Self> {
        let [plugin, port, target] = value
            .as_list()
            .ok_or_else(|| malformed("port connection"))?
        else {
            return Err(malformed("port connection arity"));
        };
        Ok(PortConnection {
            plugin: PluginId::new(decode_text(plugin, "connection plug-in")?),
            port: decode_text(port, "connection port")?.to_owned(),
            target: ConnectionDecl::from_value(target)?,
        })
    }
}

impl SwConf {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(4, out);
        codec::encode_text(&self.model, out);
        codec::encode_i64(i64::from(self.min_memory_kb), out);
        codec::encode_list_header(self.placements.len(), out);
        for p in &self.placements {
            codec::encode_list_header(2, out);
            codec::encode_text(p.plugin.name(), out);
            codec::encode_i64(i64::from(p.ecu.index()), out);
        }
        codec::encode_list_header(self.connections.len(), out);
        for connection in &self.connections {
            connection.encode_into(out);
        }
    }

    fn from_value(value: &Value) -> Result<Self> {
        let [model, min_memory_kb, placements, connections] =
            value.as_list().ok_or_else(|| malformed("sw conf"))?
        else {
            return Err(malformed("sw conf arity"));
        };
        let placements = placements
            .as_list()
            .ok_or_else(|| malformed("placements"))?
            .iter()
            .map(|p| {
                let [plugin, ecu] = p.as_list().ok_or_else(|| malformed("placement"))? else {
                    return Err(malformed("placement arity"));
                };
                Ok(Placement {
                    plugin: PluginId::new(decode_text(plugin, "placement plug-in")?),
                    ecu: decode_ecu(ecu, "placement ECU")?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(SwConf {
            model: decode_text(model, "sw conf model")?.to_owned(),
            min_memory_kb: decode_u32(min_memory_kb, "sw conf memory")?,
            placements,
            connections: connections
                .as_list()
                .ok_or_else(|| malformed("connections"))?
                .iter()
                .map(PortConnection::from_value)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

impl AppDefinition {
    /// Appends the application definition's encoding, `[id, plug-ins,
    /// requires, conflicts, SW confs]`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let ids = |apps: &[AppId], out: &mut Vec<u8>| {
            codec::encode_list_header(apps.len(), out);
            for app in apps {
                codec::encode_text(app.name(), out);
            }
        };
        codec::encode_list_header(5, out);
        codec::encode_text(self.id.name(), out);
        codec::encode_list_header(self.plugins.len(), out);
        for plugin in &self.plugins {
            plugin.encode_into(out);
        }
        ids(&self.requires, out);
        ids(&self.conflicts, out);
        codec::encode_list_header(self.sw_confs.len(), out);
        for conf in &self.sw_confs {
            conf.encode_into(out);
        }
    }

    /// Decodes a definition encoded by [`AppDefinition::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [id, plugins, requires, conflicts, sw_confs] =
            value.as_list().ok_or_else(|| malformed("app definition"))?
        else {
            return Err(malformed("app definition arity"));
        };
        let ids = |value: &Value, what: &str| -> Result<Vec<AppId>> {
            value
                .as_list()
                .ok_or_else(|| malformed(what))?
                .iter()
                .map(|a| Ok(AppId::new(decode_text(a, what)?)))
                .collect()
        };
        Ok(AppDefinition {
            id: AppId::new(decode_text(id, "app id")?),
            plugins: plugins
                .as_list()
                .ok_or_else(|| malformed("app plug-ins"))?
                .iter()
                .map(PluginArtifact::from_value)
                .collect::<Result<Vec<_>>>()?,
            requires: ids(requires, "app dependencies")?,
            conflicts: ids(conflicts, "app conflicts")?,
            sw_confs: sw_confs
                .as_list()
                .ok_or_else(|| malformed("app sw confs"))?
                .iter()
                .map(SwConf::from_value)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(name: &str, ports: &[(&str, PluginPortDirection)]) -> PluginArtifact {
        PluginArtifact {
            id: PluginId::new(name),
            binary: vec![0],
            ports: ports
                .iter()
                .map(|(n, d)| PluginPortDecl {
                    name: (*n).to_owned(),
                    direction: *d,
                })
                .collect(),
        }
    }

    #[test]
    fn hw_conf_lookup() {
        let hw = HwConf::new()
            .with_ecu(EcuId::new(1), 512)
            .with_ecu(EcuId::new(2), 256);
        assert_eq!(hw.ecu(EcuId::new(2)).unwrap().memory_kb, 256);
        assert!(hw.ecu(EcuId::new(9)).is_none());
    }

    #[test]
    fn system_sw_conf_finds_ecm() {
        let conf = SystemSwConf::new("model-car")
            .with_swc(PluginSwcDecl {
                ecu: EcuId::new(1),
                swc_name: "ecm-swc".into(),
                is_ecm: true,
                virtual_ports: vec![],
            })
            .with_swc(PluginSwcDecl {
                ecu: EcuId::new(2),
                swc_name: "plugin-swc-2".into(),
                is_ecm: false,
                virtual_ports: vec![VirtualPortDecl {
                    id: VirtualPortId::new(4),
                    name: "WheelsReq".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                }],
            });
        assert_eq!(conf.ecm_ecu(), Some(EcuId::new(1)));
        assert_eq!(conf.swc_on(EcuId::new(2)).unwrap().swc_name, "plugin-swc-2");
        assert!(conf.swc_on(EcuId::new(3)).is_none());
    }

    /// Decodes the value form of `encode`'s bytes with `decode`.
    fn round_trip<T>(
        encode: impl FnOnce(&mut Vec<u8>),
        decode: impl FnOnce(&Value) -> Result<T>,
    ) -> T {
        let mut bytes = Vec::new();
        encode(&mut bytes);
        decode(&codec::decode_value(&bytes).unwrap()).unwrap()
    }

    #[test]
    fn model_value_codec_round_trips() {
        let hw = HwConf::new()
            .with_ecu(EcuId::new(1), 512)
            .with_ecu(EcuId::new(2), 256);
        assert_eq!(round_trip(|o| hw.encode_into(o), HwConf::from_value), hw);

        let system = SystemSwConf::new("model-car")
            .with_swc(PluginSwcDecl {
                ecu: EcuId::new(1),
                swc_name: "ecm-swc".into(),
                is_ecm: true,
                virtual_ports: vec![VirtualPortDecl {
                    id: VirtualPortId::new(0),
                    name: "PluginDataIn".into(),
                    kind: VirtualPortKindDecl::TypeII {
                        peer: EcuId::new(2),
                    },
                }],
            })
            .with_swc(PluginSwcDecl {
                ecu: EcuId::new(2),
                swc_name: "plugin-swc-2".into(),
                is_ecm: false,
                virtual_ports: vec![
                    VirtualPortDecl {
                        id: VirtualPortId::new(1),
                        name: "ToEcm".into(),
                        kind: VirtualPortKindDecl::TypeI,
                    },
                    VirtualPortDecl {
                        id: VirtualPortId::new(2),
                        name: "WheelsReq".into(),
                        kind: VirtualPortKindDecl::TypeIII,
                    },
                ],
            });
        assert_eq!(
            round_trip(|o| system.encode_into(o), SystemSwConf::from_value),
            system
        );

        let app = AppDefinition::new(AppId::new("remote-control"))
            .with_plugin(artifact(
                "COM",
                &[
                    ("ext_in", PluginPortDirection::Required),
                    ("fwd", PluginPortDirection::Provided),
                ],
            ))
            .with_plugin(artifact("OP", &[("in", PluginPortDirection::Required)]))
            .with_dependency(AppId::new("base"))
            .with_conflict(AppId::new("rival"))
            .with_sw_conf(
                SwConf::new("model-car")
                    .with_min_memory_kb(64)
                    .with_placement(PluginId::new("COM"), EcuId::new(1))
                    .with_placement(PluginId::new("OP"), EcuId::new(2))
                    .with_connection(
                        PluginId::new("COM"),
                        "ext_in",
                        ConnectionDecl::External {
                            endpoint: "phone".into(),
                            message_id: "Wheels".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("COM"),
                        "fwd",
                        ConnectionDecl::RemotePlugin {
                            plugin: PluginId::new("OP"),
                            port: "in".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("OP"),
                        "in",
                        ConnectionDecl::VirtualPort {
                            name: "WheelsReq".into(),
                        },
                    ),
            );
        assert_eq!(
            round_trip(|o| app.encode_into(o), AppDefinition::from_value),
            app
        );
    }

    #[test]
    fn model_decoders_reject_malformed_values() {
        for decoder in [
            |v: &Value| HwConf::from_value(v).map(|_| ()),
            |v: &Value| SystemSwConf::from_value(v).map(|_| ()),
            |v: &Value| AppDefinition::from_value(v).map(|_| ()),
        ] {
            assert!(decoder(&Value::I64(7)).is_err());
            assert!(decoder(&Value::List(vec![Value::Void])).is_err());
        }
    }

    #[test]
    fn app_validation_catches_missing_pieces() {
        let op = artifact("OP", &[("in", PluginPortDirection::Required)]);
        let good = AppDefinition::new(AppId::new("app"))
            .with_plugin(op.clone())
            .with_sw_conf(
                SwConf::new("model-car")
                    .with_placement(PluginId::new("OP"), EcuId::new(2))
                    .with_connection(
                        PluginId::new("OP"),
                        "in",
                        ConnectionDecl::VirtualPort {
                            name: "SpeedProv".into(),
                        },
                    ),
            );
        assert!(good.validate().is_ok());
        assert_eq!(
            good.sw_conf_for("model-car")
                .unwrap()
                .placement_of(&PluginId::new("OP")),
            Some(EcuId::new(2))
        );
        assert!(good.sw_conf_for("truck").is_none());

        let unplaced = AppDefinition::new(AppId::new("app"))
            .with_plugin(op.clone())
            .with_sw_conf(SwConf::new("model-car"));
        assert!(unplaced.validate().is_err());

        let unknown_port = AppDefinition::new(AppId::new("app"))
            .with_plugin(op)
            .with_sw_conf(
                SwConf::new("model-car")
                    .with_placement(PluginId::new("OP"), EcuId::new(2))
                    .with_connection(PluginId::new("OP"), "ghost", ConnectionDecl::Direct),
            );
        assert!(unknown_port.validate().is_err());
    }
}

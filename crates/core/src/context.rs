//! The context model: PIC, PLC and ECC.
//!
//! A plug-in binary is generic; what ties it to one particular vehicle is the
//! *context* generated by the trusted server and shipped with the binary in
//! the installation package (paper §3.1.2):
//!
//! * the **Port Initialization Context** (PIC) maps the port names chosen by
//!   the plug-in developer to SW-C-scope unique plug-in port ids;
//! * the **Port Linking Context** (PLC) describes how each plug-in port is
//!   connected — to nothing (the PIRTE talks to it directly), to a virtual
//!   port, or through a virtual port to a plug-in port on another SW-C;
//! * the **External Connection Context** (ECC), present only for plug-ins
//!   that talk to the outside world, gives the ECM the external endpoint, the
//!   message id and the in-vehicle routing target for each external signal.

use serde::{Deserialize, Serialize};

use dynar_foundation::codec::{self, Reader};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{EcuId, PluginPortId, VirtualPortId};

use crate::plugin::PluginPortDirection;

/// Where a plug-in port is linked, as described by one PLC entry.
///
/// The three variants correspond directly to the three forms of PLC post in
/// the paper's example: `{P0-}`, `{P2-V4}` and `{P2-V0.P0}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkTarget {
    /// The port is not connected to any virtual port; the PIRTE itself reads
    /// or writes it directly (used by the ECM for external signals).
    Direct,
    /// The port is connected to a virtual port of the hosting SW-C.
    VirtualPort(VirtualPortId),
    /// The port is connected, through the given (type II) virtual port, to a
    /// plug-in port on another SW-C; the recipient id is attached to every
    /// value so any number of plug-in ports can share one SW-C port pair.
    RemotePluginPort {
        /// The local type II virtual port the data travels through.
        via: VirtualPortId,
        /// The plug-in port id on the receiving SW-C.
        remote: PluginPortId,
    },
}

/// One PIC entry: a developer-chosen port name, the SW-C-scope unique id the
/// server assigned to it, and its direction from the plug-in's perspective.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortInit {
    /// The port name used by the plug-in developer.
    pub name: String,
    /// The SW-C-scope unique id assigned by the trusted server.
    pub id: PluginPortId,
    /// Whether the plug-in writes (`Provided`) or reads (`Required`) it.
    pub direction: PluginPortDirection,
}

/// The Port Initialization Context.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortInitContext {
    ports: Vec<PortInit>,
}

impl PortInitContext {
    /// Creates an empty PIC.
    pub fn new() -> Self {
        PortInitContext::default()
    }

    /// Adds one port initialization entry.
    #[must_use]
    pub fn with_port(
        mut self,
        name: impl Into<String>,
        id: PluginPortId,
        direction: PluginPortDirection,
    ) -> Self {
        self.ports.push(PortInit {
            name: name.into(),
            id,
            direction,
        });
        self
    }

    /// The entries in declaration order; the position of an entry is the VM
    /// port *slot* the plug-in code addresses.
    pub fn ports(&self) -> &[PortInit] {
        &self.ports
    }

    /// Looks an entry up by developer-chosen name.
    pub fn port_by_name(&self, name: &str) -> Option<&PortInit> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Checks that names and ids are unique within the context.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] on the first duplicate.
    pub fn validate(&self) -> Result<()> {
        for (i, port) in self.ports.iter().enumerate() {
            if self.ports[..i].iter().any(|p| p.name == port.name) {
                return Err(DynarError::invalid_config(format!(
                    "duplicate plug-in port name {} in PIC",
                    port.name
                )));
            }
            if self.ports[..i].iter().any(|p| p.id == port.id) {
                return Err(DynarError::invalid_config(format!(
                    "duplicate plug-in port id {} in PIC",
                    port.id
                )));
            }
        }
        Ok(())
    }
}

/// One PLC entry: which plug-in port links where.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortLink {
    /// The plug-in port being linked.
    pub port: PluginPortId,
    /// Where it links to.
    pub target: LinkTarget,
}

/// The Port Linking Context.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortLinkContext {
    links: Vec<PortLink>,
}

impl PortLinkContext {
    /// Creates an empty PLC.
    pub fn new() -> Self {
        PortLinkContext::default()
    }

    /// Adds one link entry.
    #[must_use]
    pub fn with_link(mut self, port: PluginPortId, target: LinkTarget) -> Self {
        self.links.push(PortLink { port, target });
        self
    }

    /// All link entries.
    pub fn links(&self) -> &[PortLink] {
        &self.links
    }

    /// The link target of a given plug-in port, defaulting to
    /// [`LinkTarget::Direct`] when the PLC does not mention it.
    pub fn target_of(&self, port: PluginPortId) -> LinkTarget {
        self.links
            .iter()
            .find(|l| l.port == port)
            .map(|l| l.target)
            .unwrap_or(LinkTarget::Direct)
    }

    /// Checks that no port is linked twice.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] on the first duplicate.
    pub fn validate(&self) -> Result<()> {
        for (i, link) in self.links.iter().enumerate() {
            if self.links[..i].iter().any(|l| l.port == link.port) {
                return Err(DynarError::invalid_config(format!(
                    "plug-in port {} linked twice in PLC",
                    link.port
                )));
            }
        }
        Ok(())
    }
}

/// One ECC entry: an external endpoint and the in-vehicle routing target for
/// one external message id (paper §3.1.2 and the example of §4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExternalRoute {
    /// Location of the external resource, e.g. `111.22.33.44:56789`.
    pub endpoint: String,
    /// The message id carried in external messages, e.g. `Wheels`.
    pub message_id: String,
    /// The ECU hosting the receiving plug-in port.
    pub ecu: EcuId,
    /// The receiving plug-in port.
    pub port: PluginPortId,
}

/// The External Connection Context.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExternalConnectionContext {
    routes: Vec<ExternalRoute>,
}

impl ExternalConnectionContext {
    /// Creates an empty ECC.
    pub fn new() -> Self {
        ExternalConnectionContext::default()
    }

    /// Adds one external route.
    #[must_use]
    pub fn with_route(
        mut self,
        endpoint: impl Into<String>,
        message_id: impl Into<String>,
        ecu: EcuId,
        port: PluginPortId,
    ) -> Self {
        self.routes.push(ExternalRoute {
            endpoint: endpoint.into(),
            message_id: message_id.into(),
            ecu,
            port,
        });
        self
    }

    /// All routes.
    pub fn routes(&self) -> &[ExternalRoute] {
        &self.routes
    }

    /// Looks up the route for a given message id.
    pub fn route_for(&self, message_id: &str) -> Option<&ExternalRoute> {
        self.routes.iter().find(|r| r.message_id == message_id)
    }

    /// The distinct external endpoints referenced by this context.
    pub fn endpoints(&self) -> Vec<&str> {
        let mut endpoints: Vec<&str> = self.routes.iter().map(|r| r.endpoint.as_str()).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        endpoints
    }
}

/// The complete context shipped inside one installation package.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InstallationContext {
    /// The Port Initialization Context.
    pub pic: PortInitContext,
    /// The Port Linking Context.
    pub plc: PortLinkContext,
    /// The External Connection Context, present only for externally
    /// communicating plug-ins.
    pub ecc: Option<ExternalConnectionContext>,
}

impl InstallationContext {
    /// Combines a PIC and a PLC into a context without external connections.
    pub fn new(pic: PortInitContext, plc: PortLinkContext) -> Self {
        InstallationContext {
            pic,
            plc,
            ecc: None,
        }
    }

    /// Attaches an ECC to the context.
    #[must_use]
    pub fn with_ecc(mut self, ecc: ExternalConnectionContext) -> Self {
        self.ecc = Some(ecc);
        self
    }

    /// Validates PIC/PLC consistency: both internally valid, and every PLC
    /// entry referring to a port declared in the PIC.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] describing the first
    /// inconsistency.
    pub fn validate(&self) -> Result<()> {
        self.pic.validate()?;
        self.plc.validate()?;
        for link in self.plc.links() {
            if !self.pic.ports().iter().any(|p| p.id == link.port) {
                return Err(DynarError::invalid_config(format!(
                    "PLC links port {} which the PIC does not declare",
                    link.port
                )));
            }
        }
        Ok(())
    }

    /// Appends the context's codec encoding, `[PIC, PLC, ECC or void]`, to
    /// `out`, streamed field by field (installation packages ride in every
    /// server snapshot).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(3, out);
        let ports = self.pic.ports();
        codec::encode_list_header(ports.len(), out);
        for p in ports {
            codec::encode_list_header(3, out);
            codec::encode_text(&p.name, out);
            codec::encode_i64(i64::from(p.id.index()), out);
            codec::encode_bool(p.direction == PluginPortDirection::Provided, out);
        }
        let links = self.plc.links();
        codec::encode_list_header(links.len(), out);
        for l in links {
            codec::encode_list_header(2, out);
            codec::encode_i64(i64::from(l.port.index()), out);
            match l.target {
                LinkTarget::Direct => {
                    codec::encode_list_header(1, out);
                    codec::encode_i64(0, out);
                }
                LinkTarget::VirtualPort(v) => {
                    codec::encode_list_header(2, out);
                    codec::encode_i64(1, out);
                    codec::encode_i64(i64::from(v.index()), out);
                }
                LinkTarget::RemotePluginPort { via, remote } => {
                    codec::encode_list_header(3, out);
                    codec::encode_i64(2, out);
                    codec::encode_i64(i64::from(via.index()), out);
                    codec::encode_i64(i64::from(remote.index()), out);
                }
            }
        }
        match &self.ecc {
            None => codec::encode_void(out),
            Some(ecc) => {
                let routes = ecc.routes();
                codec::encode_list_header(routes.len(), out);
                for r in routes {
                    codec::encode_list_header(4, out);
                    codec::encode_text(&r.endpoint, out);
                    codec::encode_text(&r.message_id, out);
                    codec::encode_i64(i64::from(r.ecu.index()), out);
                    codec::encode_i64(i64::from(r.port.index()), out);
                }
            }
        }
    }

    /// Reads a context written by [`InstallationContext::encode_into`]
    /// straight from the bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings,
    /// ids out of their type's range included.
    pub fn decode(reader: &mut Reader<'_>) -> Result<Self> {
        // Ids are range-checked (`Reader::int`): a cast would wrap an
        // out-of-range id onto a different, valid one.
        reader.list_of(3, "context")?;

        let mut pic = PortInitContext::new();
        for _ in 0..reader.list()? {
            reader.list_of(3, "PIC entry")?;
            let name = reader.text()?;
            let id = PluginPortId::new(reader.int("PIC port id")?);
            let direction = if reader.bool()? {
                PluginPortDirection::Provided
            } else {
                PluginPortDirection::Required
            };
            pic = pic.with_port(name, id, direction);
        }

        let mut plc = PortLinkContext::new();
        for _ in 0..reader.list()? {
            reader.list_of(2, "PLC entry")?;
            let port = PluginPortId::new(reader.int("PLC port id")?);
            let fields = reader.list()?;
            if fields == 0 {
                return Err(reader.malformed("PLC target"));
            }
            let target = match (reader.i64()?, fields) {
                (0, _) => {
                    // A direct link carries no ids; extra fields are skipped.
                    for _ in 1..fields {
                        reader.span()?;
                    }
                    LinkTarget::Direct
                }
                (1, 2) => {
                    LinkTarget::VirtualPort(VirtualPortId::new(reader.int("PLC virtual port id")?))
                }
                (2, 3) => LinkTarget::RemotePluginPort {
                    via: VirtualPortId::new(reader.int("PLC virtual port id")?),
                    remote: PluginPortId::new(reader.int("PLC remote port id")?),
                },
                _ => return Err(reader.malformed("PLC target")),
            };
            plc = plc.with_link(port, target);
        }

        let ecc = if reader.at_void() {
            reader.void()?;
            None
        } else {
            let mut ecc = ExternalConnectionContext::new();
            for _ in 0..reader.list()? {
                reader.list_of(4, "ECC entry")?;
                let endpoint = reader.text()?;
                let message_id = reader.text()?;
                let ecu = EcuId::new(reader.int("ECC ECU id")?);
                let port = PluginPortId::new(reader.int("ECC port id")?);
                ecc = ecc.with_route(endpoint, message_id, ecu, port);
            }
            Some(ecc)
        };

        Ok(InstallationContext { pic, plc, ecc })
    }

    /// Encodes the context to bytes (streamed by
    /// [`InstallationContext::encode_into`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a context from bytes produced by
    /// [`InstallationContext::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings and
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        codec::decode_with(bytes, Self::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynar_foundation::value::Value;

    fn paper_op_context() -> InstallationContext {
        // The OP plug-in of §4: PIC initializes P0-P3, PLC is
        // {P0-V3, P1-V3, P2-V4, P3-V5}.
        let pic = PortInitContext::new()
            .with_port(
                "wheels_in",
                PluginPortId::new(0),
                PluginPortDirection::Required,
            )
            .with_port(
                "speed_in",
                PluginPortId::new(1),
                PluginPortDirection::Required,
            )
            .with_port(
                "wheels_out",
                PluginPortId::new(2),
                PluginPortDirection::Provided,
            )
            .with_port(
                "speed_out",
                PluginPortId::new(3),
                PluginPortDirection::Provided,
            );
        let plc = PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(3)),
            )
            .with_link(
                PluginPortId::new(1),
                LinkTarget::VirtualPort(VirtualPortId::new(3)),
            )
            .with_link(
                PluginPortId::new(2),
                LinkTarget::VirtualPort(VirtualPortId::new(4)),
            )
            .with_link(
                PluginPortId::new(3),
                LinkTarget::VirtualPort(VirtualPortId::new(5)),
            );
        InstallationContext::new(pic, plc)
    }

    fn paper_com_context() -> InstallationContext {
        // The COM plug-in of §4: PLC is {P0-, P1-, P2-V0.P0, P3-V0.P1} plus an
        // ECC for the phone connection.
        let pic = PortInitContext::new()
            .with_port(
                "wheels_ext",
                PluginPortId::new(0),
                PluginPortDirection::Required,
            )
            .with_port(
                "speed_ext",
                PluginPortId::new(1),
                PluginPortDirection::Required,
            )
            .with_port(
                "wheels_fwd",
                PluginPortId::new(2),
                PluginPortDirection::Provided,
            )
            .with_port(
                "speed_fwd",
                PluginPortId::new(3),
                PluginPortDirection::Provided,
            );
        let plc = PortLinkContext::new()
            .with_link(PluginPortId::new(0), LinkTarget::Direct)
            .with_link(PluginPortId::new(1), LinkTarget::Direct)
            .with_link(
                PluginPortId::new(2),
                LinkTarget::RemotePluginPort {
                    via: VirtualPortId::new(0),
                    remote: PluginPortId::new(0),
                },
            )
            .with_link(
                PluginPortId::new(3),
                LinkTarget::RemotePluginPort {
                    via: VirtualPortId::new(0),
                    remote: PluginPortId::new(1),
                },
            );
        let ecc = ExternalConnectionContext::new()
            .with_route(
                "111.22.33.44:56789",
                "Wheels",
                EcuId::new(1),
                PluginPortId::new(0),
            )
            .with_route(
                "111.22.33.44:56789",
                "Speed",
                EcuId::new(1),
                PluginPortId::new(1),
            );
        InstallationContext::new(pic, plc).with_ecc(ecc)
    }

    #[test]
    fn paper_contexts_validate() {
        assert!(paper_op_context().validate().is_ok());
        assert!(paper_com_context().validate().is_ok());
    }

    #[test]
    fn pic_rejects_duplicates() {
        let dup_name = PortInitContext::new()
            .with_port("a", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("a", PluginPortId::new(1), PluginPortDirection::Required);
        assert!(dup_name.validate().is_err());
        let dup_id = PortInitContext::new()
            .with_port("a", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("b", PluginPortId::new(0), PluginPortDirection::Required);
        assert!(dup_id.validate().is_err());
    }

    #[test]
    fn plc_rejects_double_links_and_unknown_ports() {
        let plc = PortLinkContext::new()
            .with_link(PluginPortId::new(0), LinkTarget::Direct)
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(1)),
            );
        assert!(plc.validate().is_err());

        let context = InstallationContext::new(
            PortInitContext::new().with_port(
                "a",
                PluginPortId::new(0),
                PluginPortDirection::Required,
            ),
            PortLinkContext::new().with_link(PluginPortId::new(7), LinkTarget::Direct),
        );
        assert!(context.validate().is_err());
    }

    #[test]
    fn plc_defaults_unlisted_ports_to_direct() {
        let plc = PortLinkContext::new();
        assert_eq!(plc.target_of(PluginPortId::new(9)), LinkTarget::Direct);
    }

    #[test]
    fn ecc_lookup_by_message_id() {
        let context = paper_com_context();
        let ecc = context.ecc.as_ref().unwrap();
        assert_eq!(ecc.route_for("Wheels").unwrap().port, PluginPortId::new(0));
        assert_eq!(ecc.route_for("Speed").unwrap().port, PluginPortId::new(1));
        assert!(ecc.route_for("Horn").is_none());
        assert_eq!(ecc.endpoints(), vec!["111.22.33.44:56789"]);
    }

    /// Decodes the encoding of a value tree.
    fn from_tree(value: &Value) -> Result<InstallationContext> {
        InstallationContext::from_bytes(&codec::encode_value(value))
    }

    #[test]
    fn context_value_round_trip() {
        for context in [paper_op_context(), paper_com_context()] {
            let bytes = context.to_bytes();
            assert_eq!(InstallationContext::from_bytes(&bytes).unwrap(), context);
            // The bytes are one value of the shared codec.
            let tree = codec::decode_value(&bytes).unwrap();
            assert_eq!(codec::encode_value(&tree), bytes);
            assert_eq!(from_tree(&tree).unwrap(), context);
        }
    }

    #[test]
    fn malformed_context_values_are_rejected() {
        assert!(from_tree(&Value::I64(1)).is_err());
        assert!(from_tree(&Value::List(vec![])).is_err());
        let bad_target = Value::List(vec![
            Value::List(vec![]),
            Value::List(vec![Value::List(vec![
                Value::I64(0),
                Value::List(vec![Value::I64(9)]),
            ])]),
            Value::Void,
        ]);
        assert!(from_tree(&bad_target).is_err());
    }

    /// `value` with the integer at `path` (list indices) replaced by `id`.
    fn with_id(value: &Value, path: &[usize], id: i64) -> Value {
        let mut value = value.clone();
        let mut node = &mut value;
        for &index in path {
            let Value::List(items) = node else {
                panic!("{path:?} leads through lists");
            };
            node = &mut items[index];
        }
        *node = Value::I64(id);
        value
    }

    #[test]
    fn out_of_range_ids_are_protocol_violations() {
        let context = codec::decode_value(&paper_com_context().to_bytes()).unwrap();
        let ids: [(&str, &[usize], i64); 5] = [
            ("PIC port id", &[0, 0, 1], u32::MAX.into()),
            ("PLC port id", &[1, 2, 0], u32::MAX.into()),
            ("PLC virtual port id", &[1, 2, 1, 1], u16::MAX.into()),
            ("ECC ECU id", &[2, 0, 2], u16::MAX.into()),
            ("ECC port id", &[2, 0, 3], u32::MAX.into()),
        ];
        for (what, path, max) in ids {
            // The path names the id: its largest value still decodes.
            assert!(
                from_tree(&with_id(&context, path, max)).is_ok(),
                "{what} {max}"
            );
            // Too large by one, too large by 2^n + 3 (which a cast would
            // wrap onto the valid id 3), and negative.
            for id in [max + 1, max + 4, -1] {
                assert!(
                    matches!(
                        from_tree(&with_id(&context, path, id)),
                        Err(DynarError::ProtocolViolation(_))
                    ),
                    "{what} {id}"
                );
            }
        }
    }

    #[test]
    fn pic_lookup_by_name_and_slot_order() {
        let context = paper_op_context();
        assert_eq!(
            context.pic.port_by_name("speed_out").unwrap().id,
            PluginPortId::new(3)
        );
        let slots: Vec<u32> = context.pic.ports().iter().map(|p| p.id.index()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3], "slot order follows PIC order");
    }
}

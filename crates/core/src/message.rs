//! Management messages exchanged between the trusted server, the ECM and the
//! plug-in SW-Cs over type I ports.
//!
//! The paper ships plug-in binaries "together with a message type id (e.g. 0
//! for the installation package); the plug-in name; an id of the recipient
//! plug-in SW-C; and a context" (§3.1.3).  [`ManagementMessage`] is that
//! envelope; [`InstallationPackage`] is the payload of the install variant.

use std::fmt;

use serde::{Deserialize, Serialize};

use dynar_foundation::codec::{self, Reader};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, PluginPortId};
use dynar_foundation::value::Value;

use crate::context::InstallationContext;

/// The wire message-type id of an installation package (0, as in the
/// paper's example).
const INSTALL_TYPE_ID: i64 = 0;

/// The payload of an installation: the plug-in binary plus the vehicle-
/// specific context generated by the trusted server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstallationPackage {
    /// The plug-in being installed.
    pub plugin: PluginId,
    /// The application the plug-in belongs to.
    pub app: AppId,
    /// The plug-in binary in the portable VM format.
    pub binary: Vec<u8>,
    /// The PIC/PLC/ECC context for this vehicle.
    pub context: InstallationContext,
}

impl InstallationPackage {
    /// Creates an installation package.
    pub fn new(
        plugin: PluginId,
        app: AppId,
        binary: Vec<u8>,
        context: InstallationContext,
    ) -> Self {
        InstallationPackage {
            plugin,
            app,
            binary,
            context,
        }
    }

    /// Appends the encoding of [`ManagementMessage::Install`] carrying this
    /// package to `out` — the bytes of
    /// `ManagementMessage::Install(package.clone()).to_bytes()`, without the
    /// clone.
    pub fn encode_install_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(2, out);
        codec::encode_i64(INSTALL_TYPE_ID, out);
        self.encode_body_into(out);
    }

    /// The install message's body: `[plugin, app, binary, context]`.
    fn encode_body_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(4, out);
        codec::encode_text(self.plugin.name(), out);
        codec::encode_text(self.app.name(), out);
        codec::encode_bytes(&self.binary, out);
        self.context.encode_into(out);
    }

    /// Total size of the package payload in bytes (binary plus encoded
    /// context), used by the deployment-time experiments.
    pub fn payload_size(&self) -> usize {
        self.binary.len() + self.context.to_bytes().len()
    }
}

/// Outcome reported in an acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AckStatus {
    /// The plug-in was installed and started.
    Installed,
    /// The plug-in was uninstalled.
    Uninstalled,
    /// The plug-in was started.
    Started,
    /// The plug-in was stopped.
    Stopped,
    /// The operation failed; the reason is forwarded to the server.
    Failed(String),
}

impl AckStatus {
    fn tag(&self) -> i64 {
        match self {
            AckStatus::Installed => 0,
            AckStatus::Uninstalled => 1,
            AckStatus::Started => 2,
            AckStatus::Stopped => 3,
            AckStatus::Failed(_) => 4,
        }
    }
}

impl fmt::Display for AckStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AckStatus::Installed => f.write_str("installed"),
            AckStatus::Uninstalled => f.write_str("uninstalled"),
            AckStatus::Started => f.write_str("started"),
            AckStatus::Stopped => f.write_str("stopped"),
            AckStatus::Failed(reason) => write!(f, "failed: {reason}"),
        }
    }
}

/// An acknowledgement travelling from a plug-in SW-C back to the trusted
/// server (via the ECM).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ack {
    /// The plug-in the acknowledgement concerns.
    pub plugin: PluginId,
    /// The application the plug-in belongs to.
    pub app: AppId,
    /// The ECU reporting the acknowledgement.
    pub ecu: EcuId,
    /// The operation outcome.
    pub status: AckStatus,
}

/// The downlink envelope: a management message addressed to one ECU of a
/// vehicle, stamped with a per-vehicle monotonically increasing sequence id
/// and the vehicle boot epoch the trusted server believes it is talking to.
///
/// The sequence id is assigned once by the trusted server when the downlink
/// is first queued and **reused verbatim on every retransmission**, so the
/// ECM gateway can deduplicate duplicate deliveries (a retried install must
/// not install twice) while acknowledgements stay attributable.
///
/// The boot epoch exists because the gateway's dedup window is *volatile*: a
/// rebooted ECM comes back with an empty window, and a straggler
/// retransmission from before the reboot would be re-applied as a fresh
/// downlink.  The gateway therefore rejects any envelope whose epoch differs
/// from its own current boot epoch; the server learns the new epoch from the
/// vehicle's [`ManagementMessage::StateReport`] and re-issues what is still
/// wanted under it.
///
/// The **incarnation id** is the server-side mirror of the boot epoch: it is
/// bumped every time a restarted trusted server finishes replaying its
/// journal and takes over the fleet.  Gateways remember the highest
/// incarnation they have seen; an envelope from an *older* incarnation is a
/// straggler issued by a dead server process and is rejected (never applied,
/// never answered from the ack cache), while a *newer* incarnation announces
/// a restarted server that the gateway answers with a ground-truth state
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DownlinkEnvelope {
    /// The recipient ECU.
    pub target: EcuId,
    /// Per-vehicle monotonically increasing sequence id.
    pub seq: u64,
    /// The vehicle boot epoch this downlink was issued under.
    pub boot_epoch: u32,
    /// The server incarnation this downlink was issued by.
    pub incarnation: u32,
    /// The management message carried.
    pub message: ManagementMessage,
}

impl DownlinkEnvelope {
    /// Creates an envelope.
    pub fn new(
        target: EcuId,
        seq: u64,
        boot_epoch: u32,
        incarnation: u32,
        message: ManagementMessage,
    ) -> Self {
        DownlinkEnvelope {
            target,
            seq,
            boot_epoch,
            incarnation,
            message,
        }
    }

    /// Appends the envelope's codec encoding to `out`: the list `[target,
    /// seq, boot epoch, incarnation, message]`, streamed without a
    /// [`Value`] tree.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(5, out);
        codec::encode_i64(i64::from(self.target.index()), out);
        codec::encode_i64(self.seq as i64, out);
        codec::encode_i64(i64::from(self.boot_epoch), out);
        codec::encode_i64(i64::from(self.incarnation), out);
        self.message.encode_into(out);
    }

    /// Encodes the envelope to bytes using the shared value codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes an envelope from bytes produced by
    /// [`DownlinkEnvelope::to_bytes`].
    ///
    /// # Errors
    ///
    /// See [`DownlinkEnvelope::decode_with_message`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::decode_with_message(bytes).map(|(envelope, _)| envelope)
    }

    /// Decodes an envelope and also returns the bytes of its message — the
    /// exact [`ManagementMessage::to_bytes`] encoding, borrowed from `bytes`
    /// — so a relay can forward the validated message without encoding it
    /// again.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings,
    /// including target ids outside the `u16` ECU-id range, negative sequence
    /// ids, boot epochs and incarnations outside the `u32` range — values
    /// out of range are rejected, never truncated — and trailing bytes.
    pub fn decode_with_message(bytes: &[u8]) -> Result<(Self, &[u8])> {
        let mut reader = Reader::new(bytes);
        reader.list_of(5, "downlink")?;
        let target = reader.i64()?;
        let target = u16::try_from(target).map_err(|_| {
            DynarError::ProtocolViolation(format!("downlink target {target} is not a valid ECU id"))
        })?;
        let seq = reader.i64()?;
        let seq = u64::try_from(seq).map_err(|_| {
            DynarError::ProtocolViolation(format!("downlink sequence id {seq} is negative"))
        })?;
        let boot_epoch = reader.i64()?;
        let boot_epoch = u32::try_from(boot_epoch).map_err(|_| {
            DynarError::ProtocolViolation(format!(
                "downlink boot epoch {boot_epoch} is not a valid epoch"
            ))
        })?;
        let incarnation = reader.i64()?;
        let incarnation = u32::try_from(incarnation).map_err(|_| {
            DynarError::ProtocolViolation(format!(
                "downlink server incarnation {incarnation} is not a valid incarnation id"
            ))
        })?;
        let start = reader.position();
        let message = ManagementMessage::decode(&mut reader)?;
        let message_bytes = &bytes[start..reader.position()];
        reader.finish()?;
        Ok((
            DownlinkEnvelope {
                target: EcuId::new(target),
                seq,
                boot_epoch,
                incarnation,
                message,
            },
            message_bytes,
        ))
    }
}

/// The envelope for everything that travels over type I ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ManagementMessage {
    /// Install (and start) a plug-in.
    Install(InstallationPackage),
    /// Uninstall a plug-in.
    Uninstall {
        /// The plug-in to remove.
        plugin: PluginId,
    },
    /// Stop scheduling a plug-in.
    Stop {
        /// The plug-in to stop.
        plugin: PluginId,
    },
    /// Start (or restart) a stopped plug-in.
    Start {
        /// The plug-in to start.
        plugin: PluginId,
    },
    /// External data destined for a plug-in port (relayed by the ECM).
    ExternalData {
        /// The receiving plug-in port.
        port: PluginPortId,
        /// The payload.
        payload: Value,
    },
    /// Data a plug-in wants delivered to an external endpoint (relayed by
    /// the ECM to the device identified by the message id).
    OutboundData {
        /// The external message id, e.g. `Speed`.
        message_id: String,
        /// The payload.
        payload: Value,
    },
    /// An acknowledgement on its way back to the server.
    Ack(Ack),
    /// A request for the vehicle's ECM to report its actually-installed
    /// plug-ins (answered with [`ManagementMessage::StateReport`]).
    StateReportRequest,
    /// The ECM's ground-truth inventory: its current boot epoch and every
    /// plug-in it knows to be installed across the vehicle, with the ECU each
    /// one lives on.  Sent uplink after a reboot (so the server can resync
    /// from truth rather than from its own bookkeeping) and in answer to a
    /// [`ManagementMessage::StateReportRequest`].
    StateReport {
        /// The ECM's current boot epoch (bumped on every reboot).
        boot_epoch: u32,
        /// Every installed plug-in: `(plugin, owning app, hosting ECU)`.
        plugins: Vec<(PluginId, AppId, EcuId)>,
    },
}

impl ManagementMessage {
    /// The numeric message-type id used on the wire (0 is the installation
    /// package, as in the paper's example).
    pub fn type_id(&self) -> i64 {
        match self {
            ManagementMessage::Install(_) => INSTALL_TYPE_ID,
            ManagementMessage::Uninstall { .. } => 1,
            ManagementMessage::Stop { .. } => 2,
            ManagementMessage::Start { .. } => 3,
            ManagementMessage::ExternalData { .. } => 4,
            ManagementMessage::OutboundData { .. } => 5,
            ManagementMessage::Ack(_) => 6,
            ManagementMessage::StateReportRequest => 7,
            ManagementMessage::StateReport { .. } => 8,
        }
    }

    /// Appends the message's codec encoding, `[type id, body]`, to `out`
    /// (downlink envelopes and the server snapshot's installation packages
    /// carry it).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(2, out);
        codec::encode_i64(self.type_id(), out);
        match self {
            ManagementMessage::Install(package) => package.encode_body_into(out),
            ManagementMessage::Uninstall { plugin }
            | ManagementMessage::Stop { plugin }
            | ManagementMessage::Start { plugin } => {
                codec::encode_list_header(1, out);
                codec::encode_text(plugin.name(), out);
            }
            ManagementMessage::ExternalData { port, payload } => {
                codec::encode_list_header(2, out);
                codec::encode_i64(i64::from(port.index()), out);
                codec::encode_into(payload, out);
            }
            ManagementMessage::OutboundData {
                message_id,
                payload,
            } => {
                codec::encode_list_header(2, out);
                codec::encode_text(message_id, out);
                codec::encode_into(payload, out);
            }
            ManagementMessage::Ack(ack) => {
                codec::encode_list_header(5, out);
                codec::encode_text(ack.plugin.name(), out);
                codec::encode_text(ack.app.name(), out);
                codec::encode_i64(i64::from(ack.ecu.index()), out);
                codec::encode_i64(ack.status.tag(), out);
                codec::encode_text(
                    match &ack.status {
                        AckStatus::Failed(reason) => reason,
                        _ => "",
                    },
                    out,
                );
            }
            ManagementMessage::StateReportRequest => codec::encode_list_header(0, out),
            ManagementMessage::StateReport {
                boot_epoch,
                plugins,
            } => {
                codec::encode_list_header(2, out);
                codec::encode_i64(i64::from(*boot_epoch), out);
                codec::encode_list_header(plugins.len(), out);
                for (plugin, app, ecu) in plugins {
                    codec::encode_list_header(3, out);
                    codec::encode_text(plugin.name(), out);
                    codec::encode_text(app.name(), out);
                    codec::encode_i64(i64::from(ecu.index()), out);
                }
            }
        }
    }

    /// Reads a message written by [`ManagementMessage::encode_into`]
    /// straight from the bytes: text and binary fields are copied out of the
    /// input once, with no [`Value`] tree in between.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings,
    /// ids out of their type's range included.
    pub fn decode(reader: &mut Reader<'_>) -> Result<Self> {
        let malformed = |what: &str| {
            DynarError::ProtocolViolation(format!("malformed management message: {what}"))
        };
        reader.list_of(2, "management message envelope")?;
        let type_id = reader.i64()?;
        let body = reader.list()?;
        let expect_body = |len: usize, what: &str| {
            if body == len {
                Ok(())
            } else {
                Err(malformed(what))
            }
        };
        let message = match type_id {
            INSTALL_TYPE_ID => {
                expect_body(4, "install body")?;
                let plugin = PluginId::new(reader.text()?);
                let app = AppId::new(reader.text()?);
                let binary = reader.bytes()?.to_vec();
                let context = InstallationContext::decode(reader)?;
                ManagementMessage::Install(InstallationPackage::new(plugin, app, binary, context))
            }
            tag @ (1..=3) => {
                expect_body(1, "plugin reference")?;
                let plugin = PluginId::new(reader.text()?);
                match tag {
                    1 => ManagementMessage::Uninstall { plugin },
                    2 => ManagementMessage::Stop { plugin },
                    _ => ManagementMessage::Start { plugin },
                }
            }
            4 => {
                expect_body(2, "external data")?;
                ManagementMessage::ExternalData {
                    port: PluginPortId::new(reader.int("external data port id")?),
                    payload: reader.value()?,
                }
            }
            5 => {
                expect_body(2, "outbound data")?;
                ManagementMessage::OutboundData {
                    message_id: reader.text()?.to_owned(),
                    payload: reader.value()?,
                }
            }
            6 => {
                expect_body(5, "ack")?;
                let plugin = PluginId::new(reader.text()?);
                let app = AppId::new(reader.text()?);
                let ecu = EcuId::new(reader.int("ack ECU id")?);
                let status = match reader.i64()? {
                    0 => AckStatus::Installed,
                    1 => AckStatus::Uninstalled,
                    2 => AckStatus::Started,
                    3 => AckStatus::Stopped,
                    4 => AckStatus::Failed(reader.text()?.to_owned()),
                    _ => return Err(malformed("ack status")),
                };
                if !matches!(status, AckStatus::Failed(_)) {
                    // Only a failure carries a reason; the slot is skipped.
                    reader.span()?;
                }
                ManagementMessage::Ack(Ack {
                    plugin,
                    app,
                    ecu,
                    status,
                })
            }
            7 => {
                expect_body(0, "state report request")?;
                ManagementMessage::StateReportRequest
            }
            8 => {
                expect_body(2, "state report")?;
                ManagementMessage::StateReport {
                    boot_epoch: reader.int("state report boot epoch")?,
                    plugins: reader.items(|r| {
                        r.list_of(3, "state report entry")?;
                        let plugin = PluginId::new(r.text()?);
                        let app = AppId::new(r.text()?);
                        Ok((plugin, app, EcuId::new(r.int("state report ECU id")?)))
                    })?,
                }
            }
            other => {
                return Err(DynarError::ProtocolViolation(format!(
                    "unknown management message type {other}"
                )))
            }
        };
        Ok(message)
    }

    /// Encodes the message to bytes using the shared value codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a message from bytes produced by
    /// [`ManagementMessage::to_bytes`].
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
    use crate::context::{LinkTarget, PortInitContext, PortLinkContext};
    use crate::plugin::PluginPortDirection;
    use dynar_foundation::ids::VirtualPortId;

    fn sample_package() -> InstallationPackage {
        let context = InstallationContext::new(
            PortInitContext::new().with_port(
                "out",
                PluginPortId::new(0),
                PluginPortDirection::Provided,
            ),
            PortLinkContext::new().with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(2)),
            ),
        );
        InstallationPackage::new(
            PluginId::new("OP"),
            AppId::new("remote-control"),
            vec![1, 2, 3, 4],
            context,
        )
    }

    #[test]
    fn all_variants_round_trip() {
        let messages = vec![
            ManagementMessage::Install(sample_package()),
            ManagementMessage::Uninstall {
                plugin: PluginId::new("OP"),
            },
            ManagementMessage::Stop {
                plugin: PluginId::new("COM"),
            },
            ManagementMessage::Start {
                plugin: PluginId::new("COM"),
            },
            ManagementMessage::ExternalData {
                port: PluginPortId::new(7),
                payload: Value::F64(13.5),
            },
            ManagementMessage::OutboundData {
                message_id: "Speed".into(),
                payload: Value::I64(42),
            },
            ManagementMessage::Ack(Ack {
                plugin: PluginId::new("OP"),
                app: AppId::new("remote-control"),
                ecu: EcuId::new(2),
                status: AckStatus::Installed,
            }),
            ManagementMessage::Ack(Ack {
                plugin: PluginId::new("OP"),
                app: AppId::new("remote-control"),
                ecu: EcuId::new(2),
                status: AckStatus::Failed("missing dependency".into()),
            }),
            ManagementMessage::StateReportRequest,
            ManagementMessage::StateReport {
                boot_epoch: 3,
                plugins: vec![
                    (
                        PluginId::new("COM"),
                        AppId::new("remote-control"),
                        EcuId::new(1),
                    ),
                    (
                        PluginId::new("OP"),
                        AppId::new("remote-control"),
                        EcuId::new(2),
                    ),
                ],
            },
            ManagementMessage::StateReport {
                boot_epoch: 0,
                plugins: vec![],
            },
        ];
        for message in messages {
            let bytes = message.to_bytes();
            assert_eq!(ManagementMessage::from_bytes(&bytes).unwrap(), message);
            // The bytes are one value of the shared codec.
            let value = codec::decode_value(&bytes).unwrap();
            assert_eq!(codec::encode_value(&value), bytes);
        }
    }

    #[test]
    fn install_has_type_id_zero_like_the_paper() {
        assert_eq!(ManagementMessage::Install(sample_package()).type_id(), 0);
    }

    #[test]
    fn package_encodes_as_its_install_message() {
        let package = sample_package();
        let mut bytes = Vec::new();
        package.encode_install_into(&mut bytes);
        assert_eq!(bytes, ManagementMessage::Install(package).to_bytes());
    }

    #[test]
    fn type_ids_are_distinct() {
        let ids: Vec<i64> = vec![
            ManagementMessage::Install(sample_package()).type_id(),
            ManagementMessage::Uninstall {
                plugin: PluginId::new("x"),
            }
            .type_id(),
            ManagementMessage::Stop {
                plugin: PluginId::new("x"),
            }
            .type_id(),
            ManagementMessage::Start {
                plugin: PluginId::new("x"),
            }
            .type_id(),
            ManagementMessage::ExternalData {
                port: PluginPortId::new(0),
                payload: Value::Void,
            }
            .type_id(),
            ManagementMessage::OutboundData {
                message_id: "m".into(),
                payload: Value::Void,
            }
            .type_id(),
            ManagementMessage::Ack(Ack {
                plugin: PluginId::new("x"),
                app: AppId::new("y"),
                ecu: EcuId::new(0),
                status: AckStatus::Stopped,
            })
            .type_id(),
            ManagementMessage::StateReportRequest.type_id(),
            ManagementMessage::StateReport {
                boot_epoch: 0,
                plugins: vec![],
            }
            .type_id(),
        ];
        let mut deduped = ids.clone();
        deduped.dedup();
        assert_eq!(ids.len(), deduped.len());
    }

    #[test]
    fn malformed_messages_are_rejected() {
        let decode = |value: Value| ManagementMessage::from_bytes(&codec::encode_value(&value));
        assert!(decode(Value::I64(3)).is_err());
        assert!(decode(Value::List(vec![Value::I64(99), Value::List(vec![])])).is_err());
        assert!(decode(Value::List(vec![
            Value::I64(0),
            Value::List(vec![Value::Text("only-name".into())])
        ]))
        .is_err());
        assert!(ManagementMessage::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn package_payload_size_counts_binary_and_context() {
        let package = sample_package();
        assert!(package.payload_size() > package.binary.len());
    }

    #[test]
    fn downlink_envelope_round_trips() {
        let envelope = DownlinkEnvelope::new(
            EcuId::new(7),
            42,
            5,
            3,
            ManagementMessage::Uninstall {
                plugin: PluginId::new("OP"),
            },
        );
        let decoded = DownlinkEnvelope::from_bytes(&envelope.to_bytes()).unwrap();
        assert_eq!(decoded, envelope);
        assert_eq!(decoded.boot_epoch, 5);
        assert_eq!(decoded.incarnation, 3);
    }

    #[test]
    fn downlink_envelope_rejects_out_of_range_ids() {
        let message = ManagementMessage::Uninstall {
            plugin: PluginId::new("OP"),
        };
        for bad_target in [-1i64, i64::from(u16::MAX) + 1, i64::MAX] {
            let value = Value::List(vec![
                Value::I64(bad_target),
                Value::I64(0),
                Value::I64(0),
                Value::I64(0),
                codec::decode_value(&message.to_bytes()).unwrap(),
            ]);
            let err = DownlinkEnvelope::from_bytes(&codec::encode_value(&value)).unwrap_err();
            assert!(
                matches!(err, DynarError::ProtocolViolation(ref r) if r.contains("ECU id")),
                "target {bad_target} must be rejected, got {err:?}"
            );
        }
        let negative_seq = Value::List(vec![
            Value::I64(1),
            Value::I64(-5),
            Value::I64(0),
            Value::I64(0),
            codec::decode_value(&message.to_bytes()).unwrap(),
        ]);
        assert!(matches!(
            DownlinkEnvelope::from_bytes(&codec::encode_value(&negative_seq)).unwrap_err(),
            DynarError::ProtocolViolation(ref r) if r.contains("negative")
        ));
        for bad_epoch in [-1i64, i64::from(u32::MAX) + 1] {
            let value = Value::List(vec![
                Value::I64(1),
                Value::I64(0),
                Value::I64(bad_epoch),
                Value::I64(0),
                codec::decode_value(&message.to_bytes()).unwrap(),
            ]);
            let err = DownlinkEnvelope::from_bytes(&codec::encode_value(&value)).unwrap_err();
            assert!(
                matches!(err, DynarError::ProtocolViolation(ref r) if r.contains("epoch")),
                "epoch {bad_epoch} must be rejected, got {err:?}"
            );
        }
        for bad_incarnation in [-1i64, i64::from(u32::MAX) + 1] {
            let value = Value::List(vec![
                Value::I64(1),
                Value::I64(0),
                Value::I64(0),
                Value::I64(bad_incarnation),
                codec::decode_value(&message.to_bytes()).unwrap(),
            ]);
            let err = DownlinkEnvelope::from_bytes(&codec::encode_value(&value)).unwrap_err();
            assert!(
                matches!(err, DynarError::ProtocolViolation(ref r) if r.contains("incarnation")),
                "incarnation {bad_incarnation} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn ack_status_display() {
        assert_eq!(AckStatus::Installed.to_string(), "installed");
        assert_eq!(
            AckStatus::Failed("no space".into()).to_string(),
            "failed: no space"
        );
    }
}

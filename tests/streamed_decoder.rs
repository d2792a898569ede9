//! The streamed decoders of the management path against the tree decoders
//! they replaced.
//!
//! `DownlinkEnvelope`, `ManagementMessage` and `InstallationContext` are
//! read straight from their bytes by `dynar::foundation::codec::Reader`.
//! Before that, each was decoded in two steps: the bytes into a `Value`
//! tree, then the tree into the type.  Those tree decoders are kept below,
//! unchanged, as the test oracle:
//!
//! * on random valid messages both decoders return the message, and the
//!   envelope's message span is exactly the message's own encoding;
//! * on truncated, bit-flipped and out-of-range input the streamed decoder
//!   never panics, every error it returns is a `ProtocolViolation`, and
//!   whatever it accepts the oracle accepts with the same result (it is
//!   never looser than the decoder it replaced).
//!
//! Every block runs under a fixed-seed `ProptestConfig`, so CI generates the
//! same cases on every run.

use dynar::core::context::{
    ExternalConnectionContext, InstallationContext, LinkTarget, PortInitContext, PortLinkContext,
};
use dynar::core::message::{
    Ack, AckStatus, DownlinkEnvelope, InstallationPackage, ManagementMessage,
};
use dynar::core::plugin::PluginPortDirection;
use dynar::foundation::codec::{decode_value, encode_value};
use dynar::foundation::error::{DynarError, Result};
use dynar::foundation::ids::{AppId, EcuId, PluginId, PluginPortId, VirtualPortId};
use dynar::foundation::value::Value;
use proptest::prelude::*;
use std::ops::RangeInclusive;

// ---------------------------------------------------------------------------
// The oracle: the tree decoders as they were before the streamed ones.
// ---------------------------------------------------------------------------

mod oracle {
    use super::*;

    pub fn envelope(value: &Value) -> Result<DownlinkEnvelope> {
        let parts = value
            .as_list()
            .ok_or_else(|| DynarError::ProtocolViolation("downlink is not a list".into()))?;
        let [target, seq, boot_epoch, incarnation, message] = parts else {
            return Err(DynarError::ProtocolViolation("downlink shape".into()));
        };
        let target = u16::try_from(target.expect_i64()?)
            .map_err(|_| DynarError::ProtocolViolation("target".into()))?;
        let seq = u64::try_from(seq.expect_i64()?)
            .map_err(|_| DynarError::ProtocolViolation("seq".into()))?;
        let boot_epoch = u32::try_from(boot_epoch.expect_i64()?)
            .map_err(|_| DynarError::ProtocolViolation("epoch".into()))?;
        let incarnation = u32::try_from(incarnation.expect_i64()?)
            .map_err(|_| DynarError::ProtocolViolation("incarnation".into()))?;
        Ok(DownlinkEnvelope {
            target: EcuId::new(target),
            seq,
            boot_epoch,
            incarnation,
            message: self::message(message)?,
        })
    }

    pub fn message(value: &Value) -> Result<ManagementMessage> {
        let malformed = |what: &str| DynarError::ProtocolViolation(what.to_owned());
        let envelope = value.as_list().ok_or_else(|| malformed("envelope"))?;
        let [type_id, body] = envelope else {
            return Err(malformed("envelope"));
        };
        let body = body.as_list().ok_or_else(|| malformed("body"))?;
        let text = |value: &Value, what: &str| -> Result<String> {
            Ok(value.as_text().ok_or_else(|| malformed(what))?.to_owned())
        };
        Ok(match type_id.expect_i64()? {
            0 => {
                let [plugin, app, binary, context] = body else {
                    return Err(malformed("install body"));
                };
                ManagementMessage::Install(InstallationPackage::new(
                    PluginId::new(text(plugin, "plugin")?),
                    AppId::new(text(app, "app")?),
                    binary
                        .as_bytes()
                        .ok_or_else(|| malformed("binary"))?
                        .to_vec(),
                    self::context(context)?,
                ))
            }
            tag @ (1..=3) => {
                let [plugin] = body else {
                    return Err(malformed("plugin reference"));
                };
                let plugin = PluginId::new(text(plugin, "plugin")?);
                match tag {
                    1 => ManagementMessage::Uninstall { plugin },
                    2 => ManagementMessage::Stop { plugin },
                    _ => ManagementMessage::Start { plugin },
                }
            }
            4 => {
                let [port, payload] = body else {
                    return Err(malformed("external data"));
                };
                let port = u32::try_from(port.expect_i64()?).map_err(|_| malformed("port"))?;
                ManagementMessage::ExternalData {
                    port: PluginPortId::new(port),
                    payload: payload.clone(),
                }
            }
            5 => {
                let [message_id, payload] = body else {
                    return Err(malformed("outbound data"));
                };
                ManagementMessage::OutboundData {
                    message_id: text(message_id, "message id")?,
                    payload: payload.clone(),
                }
            }
            6 => {
                let [plugin, app, ecu, status, reason] = body else {
                    return Err(malformed("ack"));
                };
                let status = match status.expect_i64()? {
                    0 => AckStatus::Installed,
                    1 => AckStatus::Uninstalled,
                    2 => AckStatus::Started,
                    3 => AckStatus::Stopped,
                    4 => AckStatus::Failed(text(reason, "reason")?),
                    _ => return Err(malformed("ack status")),
                };
                let ecu = u16::try_from(ecu.expect_i64()?).map_err(|_| malformed("ack ECU"))?;
                ManagementMessage::Ack(Ack {
                    plugin: PluginId::new(text(plugin, "plugin")?),
                    app: AppId::new(text(app, "app")?),
                    ecu: EcuId::new(ecu),
                    status,
                })
            }
            7 => {
                if !body.is_empty() {
                    return Err(malformed("state report request"));
                }
                ManagementMessage::StateReportRequest
            }
            8 => {
                let [boot_epoch, plugins] = body else {
                    return Err(malformed("state report"));
                };
                let boot_epoch =
                    u32::try_from(boot_epoch.expect_i64()?).map_err(|_| malformed("epoch"))?;
                let mut decoded = Vec::new();
                for entry in plugins.as_list().ok_or_else(|| malformed("plugins"))? {
                    let Some([plugin, app, ecu]) = entry.as_list() else {
                        return Err(malformed("entry"));
                    };
                    let ecu = u16::try_from(ecu.expect_i64()?).map_err(|_| malformed("ECU"))?;
                    decoded.push((
                        PluginId::new(text(plugin, "plugin")?),
                        AppId::new(text(app, "app")?),
                        EcuId::new(ecu),
                    ));
                }
                ManagementMessage::StateReport {
                    boot_epoch,
                    plugins: decoded,
                }
            }
            _ => return Err(malformed("type")),
        })
    }

    pub fn context(value: &Value) -> Result<InstallationContext> {
        let malformed = |what: &str| DynarError::ProtocolViolation(what.to_owned());
        let port_id = |value: &Value| -> Result<PluginPortId> {
            Ok(PluginPortId::new(
                u32::try_from(value.expect_i64()?).map_err(|_| malformed("port id"))?,
            ))
        };
        let virtual_port_id = |value: &Value| -> Result<VirtualPortId> {
            Ok(VirtualPortId::new(
                u16::try_from(value.expect_i64()?).map_err(|_| malformed("virtual port id"))?,
            ))
        };
        let [pic_value, plc_value, ecc_value] = value.as_list().ok_or_else(|| malformed("ctx"))?
        else {
            return Err(malformed("context"));
        };
        let mut pic = PortInitContext::new();
        for entry in pic_value.as_list().ok_or_else(|| malformed("PIC"))? {
            let Some([name, id, provided]) = entry.as_list() else {
                return Err(malformed("PIC entry"));
            };
            pic = pic.with_port(
                name.as_text().ok_or_else(|| malformed("PIC name"))?,
                port_id(id)?,
                if provided
                    .as_bool()
                    .ok_or_else(|| malformed("PIC direction"))?
                {
                    PluginPortDirection::Provided
                } else {
                    PluginPortDirection::Required
                },
            );
        }
        let mut plc = PortLinkContext::new();
        for entry in plc_value.as_list().ok_or_else(|| malformed("PLC"))? {
            let Some([port, target]) = entry.as_list() else {
                return Err(malformed("PLC entry"));
            };
            let fields = target.as_list().ok_or_else(|| malformed("PLC target"))?;
            let kind = fields
                .first()
                .ok_or_else(|| malformed("PLC target"))?
                .expect_i64()?;
            let target = match (kind, fields) {
                (0, _) => LinkTarget::Direct,
                (1, [_, v]) => LinkTarget::VirtualPort(virtual_port_id(v)?),
                (2, [_, via, remote]) => LinkTarget::RemotePluginPort {
                    via: virtual_port_id(via)?,
                    remote: port_id(remote)?,
                },
                _ => return Err(malformed("PLC target")),
            };
            plc = plc.with_link(port_id(port)?, target);
        }
        let ecc = match ecc_value {
            Value::Void => None,
            Value::List(routes) => {
                let mut ecc = ExternalConnectionContext::new();
                for entry in routes {
                    let Some([endpoint, message_id, ecu, port]) = entry.as_list() else {
                        return Err(malformed("ECC entry"));
                    };
                    ecc = ecc.with_route(
                        endpoint.as_text().ok_or_else(|| malformed("endpoint"))?,
                        message_id
                            .as_text()
                            .ok_or_else(|| malformed("message id"))?,
                        EcuId::new(u16::try_from(ecu.expect_i64()?).map_err(|_| malformed("ECU"))?),
                        port_id(port)?,
                    );
                }
                Some(ecc)
            }
            _ => return Err(malformed("ECC")),
        };
        Ok(InstallationContext { pic, plc, ecc })
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Void),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<f64>()
            .prop_filter("NaN compares unequal", |f| !f.is_nan())
            .prop_map(Value::F64),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Text),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        proptest::collection::vec(inner, 0..3).prop_map(Value::List)
    })
}

fn name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,9}"
}

fn context_strategy() -> impl Strategy<Value = InstallationContext> {
    (
        proptest::collection::vec((name(), any::<u32>(), any::<bool>()), 0..5),
        proptest::collection::vec((any::<u32>(), 0u8..3, any::<u16>(), any::<u32>()), 0..5),
        any::<bool>(),
        proptest::collection::vec((name(), name(), any::<u16>(), any::<u32>()), 0..3),
    )
        .prop_map(|(ports, links, with_ecc, routes)| {
            let mut pic = PortInitContext::new();
            for (name, id, provided) in ports {
                let direction = if provided {
                    PluginPortDirection::Provided
                } else {
                    PluginPortDirection::Required
                };
                pic = pic.with_port(name, PluginPortId::new(id), direction);
            }
            let mut plc = PortLinkContext::new();
            for (port, kind, via, remote) in links {
                let target = match kind {
                    0 => LinkTarget::Direct,
                    1 => LinkTarget::VirtualPort(VirtualPortId::new(via)),
                    _ => LinkTarget::RemotePluginPort {
                        via: VirtualPortId::new(via),
                        remote: PluginPortId::new(remote),
                    },
                };
                plc = plc.with_link(PluginPortId::new(port), target);
            }
            let context = InstallationContext::new(pic, plc);
            if !with_ecc {
                return context;
            }
            let mut ecc = ExternalConnectionContext::new();
            for (endpoint, message_id, ecu, port) in routes {
                ecc = ecc.with_route(
                    endpoint,
                    message_id,
                    EcuId::new(ecu),
                    PluginPortId::new(port),
                );
            }
            context.with_ecc(ecc)
        })
}

fn message_strategy() -> impl Strategy<Value = ManagementMessage> {
    let status = prop_oneof![
        Just(AckStatus::Installed),
        Just(AckStatus::Uninstalled),
        Just(AckStatus::Started),
        Just(AckStatus::Stopped),
        "[ -~]{0,16}".prop_map(AckStatus::Failed),
    ];
    prop_oneof![
        (
            name(),
            name(),
            proptest::collection::vec(any::<u8>(), 0..96),
            context_strategy()
        )
            .prop_map(|(plugin, app, binary, context)| {
                ManagementMessage::Install(InstallationPackage::new(
                    PluginId::new(plugin),
                    AppId::new(app),
                    binary,
                    context,
                ))
            }),
        name().prop_map(|plugin| ManagementMessage::Uninstall {
            plugin: PluginId::new(plugin)
        }),
        name().prop_map(|plugin| ManagementMessage::Stop {
            plugin: PluginId::new(plugin)
        }),
        name().prop_map(|plugin| ManagementMessage::Start {
            plugin: PluginId::new(plugin)
        }),
        (any::<u32>(), value_strategy()).prop_map(|(port, payload)| {
            ManagementMessage::ExternalData {
                port: PluginPortId::new(port),
                payload,
            }
        }),
        (name(), value_strategy()).prop_map(|(message_id, payload)| {
            ManagementMessage::OutboundData {
                message_id,
                payload,
            }
        }),
        (name(), name(), any::<u16>(), status).prop_map(|(plugin, app, ecu, status)| {
            ManagementMessage::Ack(Ack {
                plugin: PluginId::new(plugin),
                app: AppId::new(app),
                ecu: EcuId::new(ecu),
                status,
            })
        }),
        Just(ManagementMessage::StateReportRequest),
        (
            any::<u32>(),
            proptest::collection::vec((name(), name(), any::<u16>()), 0..4)
        )
            .prop_map(|(boot_epoch, plugins)| ManagementMessage::StateReport {
                boot_epoch,
                plugins: plugins
                    .into_iter()
                    .map(|(plugin, app, ecu)| (
                        PluginId::new(plugin),
                        AppId::new(app),
                        EcuId::new(ecu)
                    ))
                    .collect(),
            }),
    ]
}

fn envelope_strategy() -> impl Strategy<Value = DownlinkEnvelope> {
    (
        any::<u16>(),
        0u64..(1 << 62),
        any::<u32>(),
        any::<u32>(),
        message_strategy(),
    )
        .prop_map(|(target, seq, boot_epoch, incarnation, message)| {
            DownlinkEnvelope::new(EcuId::new(target), seq, boot_epoch, incarnation, message)
        })
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// The streamed decode of `bytes` against the oracle's: it must not panic,
/// it may only fail with a `ProtocolViolation`, and what it accepts the
/// oracle accepts with the same result.
fn streamed_is_never_looser(bytes: &[u8]) {
    match DownlinkEnvelope::from_bytes(bytes) {
        Ok(envelope) => {
            let tree = decode_value(bytes).expect("streamed accepted, so the codec does");
            assert_eq!(oracle::envelope(&tree).ok(), Some(envelope));
        }
        Err(err) => assert!(
            matches!(err, DynarError::ProtocolViolation(_)),
            "streamed errors are protocol violations, got {err:?}"
        ),
    }
    match ManagementMessage::from_bytes(bytes) {
        Ok(message) => {
            let tree = decode_value(bytes).expect("streamed accepted, so the codec does");
            assert_eq!(oracle::message(&tree).ok(), Some(message));
        }
        Err(err) => assert!(matches!(err, DynarError::ProtocolViolation(_)), "{err:?}"),
    }
}

/// The paths (list indices) of every `I64` leaf of `value`.
fn i64_paths(value: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    match value {
        Value::I64(_) => out.push(path.clone()),
        Value::List(items) => {
            for (index, item) in items.iter().enumerate() {
                path.push(index);
                i64_paths(item, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn replace_at(value: &mut Value, path: &[usize], with: Value) {
    let mut node = value;
    for &index in path {
        let Value::List(items) = node else {
            unreachable!("paths lead through lists")
        };
        node = &mut items[index];
    }
    *node = with;
}

/// The range of the id, sequence or epoch field at `path` (list indices)
/// of the tree of an envelope carrying `message`, if the path names one.
fn id_range(message: &ManagementMessage, path: &[usize]) -> Option<RangeInclusive<i64>> {
    use ManagementMessage as M;
    let u16_ids = 0..=i64::from(u16::MAX);
    let u32_ids = 0..=i64::from(u32::MAX);
    match (path, message) {
        ([0], _) => Some(u16_ids),
        ([1], _) => Some(0..=i64::MAX),
        ([2] | [3], _) => Some(u32_ids),
        ([4, 1, 2], M::Ack(_)) => Some(u16_ids),
        ([4, 1, 0], M::ExternalData { .. } | M::StateReport { .. }) => Some(u32_ids),
        ([4, 1, 1, _, 2], M::StateReport { .. }) => Some(u16_ids),
        // The installation context: PIC port ids, PLC port, virtual port
        // and remote port ids, ECC ECU and port ids.
        ([4, 1, 3, 0, _, 1], M::Install(_)) => Some(u32_ids),
        ([4, 1, 3, 1, _, 0], M::Install(_)) => Some(u32_ids),
        ([4, 1, 3, 1, _, 1, 1], M::Install(_)) => Some(u16_ids),
        ([4, 1, 3, 1, _, 1, 2], M::Install(_)) => Some(u32_ids),
        ([4, 1, 3, 2, _, 2], M::Install(_)) => Some(u16_ids),
        ([4, 1, 3, 2, _, 3], M::Install(_)) => Some(u32_ids),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Random valid envelopes: the streamed decoder and the oracle both
    /// return the envelope, and the message span is the message's own
    /// encoding, which both decoders read back to the message.
    #[test]
    fn streamed_decoders_equal_the_tree_decoders(envelope in envelope_strategy()) {
        let bytes = envelope.to_bytes();
        let (decoded, message_bytes) = DownlinkEnvelope::decode_with_message(&bytes).unwrap();
        prop_assert_eq!(&decoded, &envelope);
        prop_assert_eq!(message_bytes, envelope.message.to_bytes().as_slice());
        let tree = decode_value(&bytes).unwrap();
        prop_assert_eq!(oracle::envelope(&tree).unwrap(), envelope.clone());

        let message = &envelope.message;
        prop_assert_eq!(&ManagementMessage::from_bytes(message_bytes).unwrap(), message);
        prop_assert_eq!(&oracle::message(&decode_value(message_bytes).unwrap()).unwrap(), message);
        if let ManagementMessage::Install(package) = message {
            let context = package.context.to_bytes();
            prop_assert_eq!(
                &InstallationContext::from_bytes(&context).unwrap(),
                &package.context
            );
            prop_assert_eq!(
                &oracle::context(&decode_value(&context).unwrap()).unwrap(),
                &package.context
            );
        }
    }

    /// Every strict prefix of an envelope is a `ProtocolViolation`.
    #[test]
    fn truncated_envelopes_are_protocol_violations(
        envelope in envelope_strategy(),
        cut in any::<u32>(),
    ) {
        let bytes = envelope.to_bytes();
        let cut = cut as usize % bytes.len();
        let err = DownlinkEnvelope::from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, DynarError::ProtocolViolation(_)), "{:?}", err);
        streamed_is_never_looser(&bytes[..cut]);
    }

    /// A flipped bit anywhere in an envelope, or in its message alone, is
    /// a typed error or a message the oracle decodes the same way.
    #[test]
    fn bit_flipped_messages_are_rejected_or_decoded_like_the_oracle(
        envelope in envelope_strategy(),
        at in any::<u32>(),
        bit in 0u8..8,
    ) {
        let mut bytes = envelope.to_bytes();
        let at = at as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        streamed_is_never_looser(&bytes);
        let mut message = envelope.message.to_bytes();
        let at = at % message.len();
        message[at] ^= 1 << bit;
        streamed_is_never_looser(&message);
    }

    /// Any integer of an envelope replaced by a value outside some id or
    /// epoch range: a `ProtocolViolation` wherever the field's own range
    /// excludes it, and never a result the oracle would not give.
    #[test]
    fn out_of_range_integers_are_rejected_or_decoded_like_the_oracle(
        envelope in envelope_strategy(),
        pick in any::<u32>(),
        bad in prop_oneof![
            Just(-1i64),
            Just(i64::from(u16::MAX) + 1),
            Just(i64::from(u32::MAX) + 1),
            Just(i64::MIN),
        ],
    ) {
        let mut tree = decode_value(&envelope.to_bytes()).unwrap();
        let mut paths = Vec::new();
        i64_paths(&tree, &mut Vec::new(), &mut paths);
        let path = paths[pick as usize % paths.len()].clone();
        replace_at(&mut tree, &path, Value::I64(bad));
        let bytes = encode_value(&tree);
        streamed_is_never_looser(&bytes);
        if let Some(range) = id_range(&envelope.message, &path) {
            if !range.contains(&bad) {
                let err = DownlinkEnvelope::from_bytes(&bytes).unwrap_err();
                prop_assert!(matches!(err, DynarError::ProtocolViolation(_)), "{:?}", err);
            }
        }
    }
}

//! The wire protocol between the trusted server and a vehicle's ECM.
//!
//! Downlink messages (server → vehicle) carry the id of the recipient ECU, a
//! per-vehicle monotonically increasing sequence id, and a management message
//! — the addressing described in §3.1.3 ("an id of the recipient plug-in
//! SW-C") extended with the sequence id the federation reliability plane uses
//! to deduplicate retransmitted deliveries.  Uplink messages (vehicle →
//! server) are plain management messages — in practice acknowledgements.

use dynar_core::message::{DownlinkEnvelope, ManagementMessage};
use dynar_foundation::error::Result;
use dynar_foundation::ids::EcuId;

/// Encodes a downlink message addressed to one ECU of the vehicle, stamped
/// with the vehicle boot epoch the server believes it is talking to and the
/// server incarnation issuing it.
pub fn encode_downlink(
    target: EcuId,
    seq: u64,
    boot_epoch: u32,
    incarnation: u32,
    message: &ManagementMessage,
) -> Vec<u8> {
    DownlinkEnvelope::new(target, seq, boot_epoch, incarnation, message.clone()).to_bytes()
}

/// Decodes a downlink message into its full envelope: target ECU, sequence
/// id, boot epoch, server incarnation and management message.
///
/// # Errors
///
/// Returns [`dynar_foundation::error::DynarError::ProtocolViolation`] for
/// malformed encodings; target ids outside the `u16` ECU-id range, negative
/// sequence ids and out-of-range boot epochs or incarnations are rejected,
/// never silently truncated.
pub fn decode_downlink(bytes: &[u8]) -> Result<DownlinkEnvelope> {
    DownlinkEnvelope::from_bytes(bytes)
}

/// Encodes an uplink (vehicle → server) message.
pub fn encode_uplink(message: &ManagementMessage) -> Vec<u8> {
    message.to_bytes()
}

/// Decodes an uplink message.
///
/// # Errors
///
/// Returns [`dynar_foundation::error::DynarError::ProtocolViolation`] for
/// malformed encodings.
pub fn decode_uplink(bytes: &[u8]) -> Result<ManagementMessage> {
    ManagementMessage::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynar_core::message::{Ack, AckStatus};
    use dynar_foundation::codec;
    use dynar_foundation::error::DynarError;
    use dynar_foundation::ids::{AppId, PluginId};
    use dynar_foundation::value::Value;

    #[test]
    fn downlink_round_trip() {
        let message = ManagementMessage::Uninstall {
            plugin: PluginId::new("OP"),
        };
        let bytes = encode_downlink(EcuId::new(2), 9, 4, 1, &message);
        let envelope = decode_downlink(&bytes).unwrap();
        assert_eq!(envelope.target, EcuId::new(2));
        assert_eq!(envelope.seq, 9);
        assert_eq!(envelope.boot_epoch, 4);
        assert_eq!(envelope.incarnation, 1);
        assert_eq!(envelope.message, message);
    }

    #[test]
    fn uplink_round_trip() {
        let message = ManagementMessage::Ack(Ack {
            plugin: PluginId::new("OP"),
            app: AppId::new("remote-control"),
            ecu: EcuId::new(2),
            status: AckStatus::Installed,
        });
        assert_eq!(decode_uplink(&encode_uplink(&message)).unwrap(), message);
    }

    #[test]
    fn malformed_downlink_is_rejected() {
        assert!(decode_downlink(&[1, 2, 3]).is_err());
        assert!(decode_downlink(&codec::encode_value(&Value::I64(3))).is_err());
        assert!(decode_downlink(&codec::encode_value(&Value::List(vec![Value::I64(1)]))).is_err());
    }

    /// Regression: a target id outside the `u16` range used to be truncated
    /// by an `as u16` cast into a *valid* — but wrong — ECU id.  It must be a
    /// protocol violation instead.
    #[test]
    fn out_of_range_targets_are_rejected_not_truncated() {
        let message = ManagementMessage::Uninstall {
            plugin: PluginId::new("OP"),
        };
        // 0x1_0002 would truncate to ECU 2 under the old cast.
        for bad_target in [-1i64, 0x1_0002, i64::from(u16::MAX) + 1] {
            let bytes = codec::encode_value(&Value::List(vec![
                Value::I64(bad_target),
                Value::I64(0),
                Value::I64(0),
                Value::I64(0),
                codec::decode_value(&message.to_bytes()).unwrap(),
            ]));
            let err = decode_downlink(&bytes).unwrap_err();
            assert!(
                matches!(err, DynarError::ProtocolViolation(_)),
                "target {bad_target}: expected protocol violation, got {err:?}"
            );
        }
        let negative_seq = codec::encode_value(&Value::List(vec![
            Value::I64(1),
            Value::I64(-1),
            Value::I64(0),
            Value::I64(0),
            codec::decode_value(&message.to_bytes()).unwrap(),
        ]));
        assert!(matches!(
            decode_downlink(&negative_seq).unwrap_err(),
            DynarError::ProtocolViolation(_)
        ));
    }
}

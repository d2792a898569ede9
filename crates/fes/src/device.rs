//! External devices participating in the federation.

use dynar_foundation::codec;
use dynar_foundation::error::Result;
use dynar_foundation::value::Value;

use crate::transport::{EndpointName, Payload, Transport};

/// The smart phone of the paper's demonstrator: it sends `Wheels` and `Speed`
/// commands to the vehicle's ECM and collects whatever the vehicle reports
/// back.
///
/// Messages on the wire are `[message id, payload]` pairs encoded with the
/// shared value codec — the same format the ECM's External Connection
/// Context routes on.  The phone is transport-agnostic: it talks to any
/// [`Transport`] backend, in-memory hub or real sockets alike.
#[derive(Debug, Clone)]
pub struct SmartPhone {
    endpoint: String,
    vehicle_endpoint: String,
    received: Vec<(String, Value)>,
    inbox: Vec<(EndpointName, Payload)>,
    malformed: u64,
}

impl SmartPhone {
    /// Creates a phone bound to its own transport endpoint and the endpoint
    /// of the vehicle it controls.
    pub fn new(endpoint: impl Into<String>, vehicle_endpoint: impl Into<String>) -> Self {
        SmartPhone {
            endpoint: endpoint.into(),
            vehicle_endpoint: vehicle_endpoint.into(),
            received: Vec::new(),
            inbox: Vec::new(),
            malformed: 0,
        }
    }

    /// The phone's transport endpoint name.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Registers the phone's endpoint on the transport.
    pub fn attach(&self, transport: &mut dyn Transport) {
        transport.register(&self.endpoint);
    }

    /// Sends a steering command (`Wheels` message) to the vehicle.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn steer(&self, transport: &mut dyn Transport, angle_degrees: f64) -> Result<()> {
        self.send(transport, "Wheels", Value::F64(angle_degrees))
    }

    /// Sends a speed command (`Speed` message) to the vehicle.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn set_speed(&self, transport: &mut dyn Transport, speed: f64) -> Result<()> {
        self.send(transport, "Speed", Value::F64(speed))
    }

    /// Sends an arbitrary external message to the vehicle.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send(
        &self,
        transport: &mut dyn Transport,
        message_id: &str,
        payload: Value,
    ) -> Result<()> {
        let message = Value::List(vec![Value::Text(message_id.to_owned()), payload]);
        transport.send(
            &self.endpoint,
            &self.vehicle_endpoint,
            codec::encode_value(&message).into(),
        )
    }

    /// Drains everything the vehicle sent back to the phone, decoding the
    /// `[message id, payload]` envelope with [`decode_device_message`].  A
    /// message that does not decode is dropped and counted in
    /// [`SmartPhone::malformed`].
    pub fn poll(&mut self, transport: &mut dyn Transport) -> Vec<(String, Value)> {
        transport.drain_into(&self.endpoint, &mut self.inbox);
        let mut fresh = Vec::new();
        for (_, payload) in self.inbox.drain(..) {
            match decode_device_message(&payload) {
                Ok(message) => fresh.push(message),
                Err(_) => self.malformed += 1,
            }
        }
        self.received.extend(fresh.clone());
        fresh
    }

    /// Every message received so far.
    pub fn received(&self) -> &[(String, Value)] {
        &self.received
    }

    /// The vehicle messages dropped so far because they were not a
    /// well-formed `[message id, payload]` pair.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }
}

/// Decodes an external device message into its `(message id, payload)` pair.
///
/// # Errors
///
/// Returns a protocol violation for malformed messages.
pub fn decode_device_message(payload: &[u8]) -> Result<(String, Value)> {
    use dynar_foundation::error::DynarError;
    let value = codec::decode_value(payload)?;
    let parts = value
        .as_list()
        .ok_or_else(|| DynarError::ProtocolViolation("device message is not a list".into()))?;
    match parts {
        [Value::Text(id), payload] => Ok((id.clone(), payload.clone())),
        _ => Err(DynarError::ProtocolViolation(
            "device message must be [id, payload]".into(),
        )),
    }
}

/// Encodes a `(message id, payload)` pair into the device wire format.
pub fn encode_device_message(message_id: &str, payload: &Value) -> Vec<u8> {
    codec::encode_value(&Value::List(vec![
        Value::Text(message_id.to_owned()),
        payload.clone(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{TransportConfig, TransportHub};
    use dynar_foundation::time::Tick;

    #[test]
    fn phone_sends_wheels_and_speed_commands() {
        let mut hub = TransportHub::new(TransportConfig::default());
        hub.register("vehicle");
        let phone = SmartPhone::new("phone", "vehicle");
        phone.attach(&mut hub);
        phone.steer(&mut hub, 15.0).unwrap();
        phone.set_speed(&mut hub, 3.5).unwrap();
        hub.step(Tick::new(1));
        let messages: Vec<(String, Value)> = hub
            .drain("vehicle")
            .into_iter()
            .map(|(_, p)| decode_device_message(&p).unwrap())
            .collect();
        assert_eq!(
            messages,
            vec![
                ("Wheels".to_string(), Value::F64(15.0)),
                ("Speed".to_string(), Value::F64(3.5)),
            ]
        );
    }

    #[test]
    fn phone_decodes_replies() {
        let mut hub = TransportHub::new(TransportConfig::default());
        hub.register("vehicle");
        let mut phone = SmartPhone::new("phone", "vehicle");
        phone.attach(&mut hub);
        hub.send(
            "vehicle",
            "phone",
            encode_device_message("Speed", &Value::F64(2.0)),
        )
        .unwrap();
        // Malformed traffic is dropped, and counted.
        hub.send("vehicle", "phone", vec![0xFF, 0x00]).unwrap();
        hub.step(Tick::new(1));
        let fresh = phone.poll(&mut hub);
        assert_eq!(fresh, vec![("Speed".to_string(), Value::F64(2.0))]);
        assert_eq!(phone.received().len(), 1);
        assert_eq!(phone.malformed(), 1);
    }

    #[test]
    fn phone_counts_truncated_and_misshapen_replies() {
        let mut hub = TransportHub::new(TransportConfig::default());
        hub.register("vehicle");
        let mut phone = SmartPhone::new("phone", "vehicle");
        phone.attach(&mut hub);
        let reply = encode_device_message("Speed", &Value::F64(2.0));
        let replies = [
            // Cut off inside the payload.
            reply[..reply.len() - 3].to_vec(),
            // A list, but not `[id, payload]`.
            codec::encode_value(&Value::List(vec![Value::I64(1), Value::F64(2.0)])),
            codec::encode_value(&Value::List(vec![Value::Text("Speed".into())])),
            // Not a list at all.
            codec::encode_value(&Value::Text("Speed".into())),
            reply,
        ];
        for bytes in replies {
            hub.send("vehicle", "phone", bytes).unwrap();
        }
        hub.step(Tick::new(1));
        let fresh = phone.poll(&mut hub);
        assert_eq!(fresh, vec![("Speed".to_string(), Value::F64(2.0))]);
        assert_eq!(phone.malformed(), 4);
        // The counter accumulates across polls.
        hub.send("vehicle", "phone", vec![0xFF]).unwrap();
        hub.step(Tick::new(2));
        assert!(phone.poll(&mut hub).is_empty());
        assert_eq!(phone.malformed(), 5);
    }

    #[test]
    fn device_message_round_trip_and_errors() {
        let bytes = encode_device_message("Wheels", &Value::I64(-10));
        assert_eq!(
            decode_device_message(&bytes).unwrap(),
            ("Wheels".to_string(), Value::I64(-10))
        );
        assert!(decode_device_message(&[1, 2, 3]).is_err());
        assert!(decode_device_message(&codec::encode_value(&Value::I64(1))).is_err());
    }
}

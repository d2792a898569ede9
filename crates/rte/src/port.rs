//! Port specifications and runtime buffers.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::value::Value;

/// Whether a port produces data for the system or expects data from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDirection {
    /// The SW-C writes on this port (a `PPort` in AUTOSAR terms).
    Provided,
    /// The SW-C reads from this port (an `RPort`).
    Required,
}

impl PortDirection {
    /// The opposite direction, useful when wiring connectors.
    #[must_use]
    pub fn opposite(self) -> PortDirection {
        match self {
            PortDirection::Provided => PortDirection::Required,
            PortDirection::Required => PortDirection::Provided,
        }
    }
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDirection::Provided => f.write_str("provided"),
            PortDirection::Required => f.write_str("required"),
        }
    }
}

/// The interaction scheme implemented by a port (paper §2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortInterface {
    /// Last-is-best sender–receiver communication: a read returns the most
    /// recently written value.
    SenderReceiver,
    /// Queued sender–receiver communication: every written value is delivered
    /// exactly once, in order.
    QueuedSenderReceiver {
        /// Maximum number of values the receive queue may hold.
        queue_length: usize,
    },
    /// Client–server communication with the given operation names.
    ClientServer {
        /// Operations callable on this interface.
        operations: Vec<String>,
    },
}

impl PortInterface {
    /// Returns `true` for either sender–receiver variant.
    pub fn is_sender_receiver(&self) -> bool {
        matches!(
            self,
            PortInterface::SenderReceiver | PortInterface::QueuedSenderReceiver { .. }
        )
    }
}

/// Static description of one SW-C port.
///
/// # Example
/// ```
/// use dynar_rte::port::{PortDirection, PortSpec};
///
/// let spec = PortSpec::queued("install", PortDirection::Required, 8);
/// assert_eq!(spec.name(), "install");
/// assert_eq!(spec.direction(), PortDirection::Required);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortSpec {
    name: String,
    direction: PortDirection,
    interface: PortInterface,
    relay: bool,
}

impl PortSpec {
    /// Creates a last-is-best sender–receiver port.
    pub fn sender_receiver(name: impl Into<String>, direction: PortDirection) -> Self {
        PortSpec {
            name: name.into(),
            direction,
            interface: PortInterface::SenderReceiver,
            relay: false,
        }
    }

    /// Creates a provided sender–receiver port that relays what is written
    /// on it: a routed write moves on to its receivers and the port keeps
    /// no copy, so [`Rte::read_port`](crate::rte::Rte::read_port) shows only
    /// writes that had nowhere to go.  Type I management ports are relays —
    /// a data port's last value is worth keeping, an installation package
    /// relayed once is not.
    pub fn relay(name: impl Into<String>) -> Self {
        PortSpec {
            relay: true,
            ..PortSpec::sender_receiver(name, PortDirection::Provided)
        }
    }

    /// Creates a queued sender–receiver port with the given queue length.
    pub fn queued(name: impl Into<String>, direction: PortDirection, queue_length: usize) -> Self {
        PortSpec {
            name: name.into(),
            direction,
            interface: PortInterface::QueuedSenderReceiver {
                queue_length: queue_length.max(1),
            },
            relay: false,
        }
    }

    /// Creates a client–server port with the given operations.
    pub fn client_server(
        name: impl Into<String>,
        direction: PortDirection,
        operations: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        PortSpec {
            name: name.into(),
            direction,
            interface: PortInterface::ClientServer {
                operations: operations.into_iter().map(Into::into).collect(),
            },
            relay: false,
        }
    }

    /// The port name, unique within its SW-C.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The port direction.
    pub fn direction(&self) -> PortDirection {
        self.direction
    }

    /// The interaction scheme of the port.
    pub fn interface(&self) -> &PortInterface {
        &self.interface
    }

    /// Whether the port is a relay (see [`PortSpec::relay`]).
    pub fn is_relay(&self) -> bool {
        self.relay
    }
}

/// The runtime buffer behind one port instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum PortBuffer {
    /// Last-is-best storage.
    LastIsBest { value: Value, updated: bool },
    /// Bounded FIFO storage.
    Queued {
        queue: VecDeque<Value>,
        capacity: usize,
        overflows: u64,
    },
}

impl PortBuffer {
    pub(crate) fn for_interface(interface: &PortInterface) -> Self {
        match interface {
            PortInterface::SenderReceiver | PortInterface::ClientServer { .. } => {
                PortBuffer::LastIsBest {
                    value: Value::Void,
                    updated: false,
                }
            }
            PortInterface::QueuedSenderReceiver { queue_length } => PortBuffer::Queued {
                queue: VecDeque::new(),
                capacity: *queue_length,
                overflows: 0,
            },
        }
    }

    /// Stores a value, returning `true` if it was accepted (a full queue
    /// drops the oldest element and still accepts, counting an overflow).
    pub(crate) fn push(&mut self, value: Value) {
        match self {
            PortBuffer::LastIsBest {
                value: slot,
                updated,
            } => {
                *slot = value;
                *updated = true;
            }
            PortBuffer::Queued {
                queue,
                capacity,
                overflows,
            } => {
                if queue.len() == *capacity {
                    queue.pop_front();
                    *overflows += 1;
                }
                queue.push_back(value);
            }
        }
    }

    /// Reads without consuming: the latest value for last-is-best, the front
    /// of the queue otherwise.
    pub(crate) fn peek(&self) -> Value {
        match self {
            PortBuffer::LastIsBest { value, .. } => value.clone(),
            PortBuffer::Queued { queue, .. } => queue.front().cloned().unwrap_or_default(),
        }
    }

    /// Consumes one value: clears the "updated" flag for last-is-best, pops
    /// the queue otherwise.  Returns `None` when nothing new is available.
    pub(crate) fn take(&mut self) -> Option<Value> {
        match self {
            PortBuffer::LastIsBest { value, updated } => {
                if *updated {
                    *updated = false;
                    Some(value.clone())
                } else {
                    None
                }
            }
            PortBuffer::Queued { queue, .. } => queue.pop_front(),
        }
    }

    /// Number of values waiting to be consumed.
    pub(crate) fn pending(&self) -> usize {
        match self {
            PortBuffer::LastIsBest { updated, .. } => usize::from(*updated),
            PortBuffer::Queued { queue, .. } => queue.len(),
        }
    }

    pub(crate) fn overflows(&self) -> u64 {
        match self {
            PortBuffer::LastIsBest { .. } => 0,
            PortBuffer::Queued { overflows, .. } => *overflows,
        }
    }
}

/// Checks that a pair of port specs can legally be connected by an assembly
/// connector: one provided, one required, compatible interfaces.
///
/// # Errors
///
/// Returns [`DynarError::InvalidConfiguration`] describing the first
/// incompatibility found.
pub fn check_connectable(provider: &PortSpec, requirer: &PortSpec) -> Result<()> {
    if provider.direction() != PortDirection::Provided {
        return Err(DynarError::invalid_config(format!(
            "port {} is not a provided port",
            provider.name()
        )));
    }
    if requirer.direction() != PortDirection::Required {
        return Err(DynarError::invalid_config(format!(
            "port {} is not a required port",
            requirer.name()
        )));
    }
    let compatible = match (provider.interface(), requirer.interface()) {
        (a, b) if a.is_sender_receiver() && b.is_sender_receiver() => true,
        (
            PortInterface::ClientServer { operations: a },
            PortInterface::ClientServer { operations: b },
        ) => b.iter().all(|op| a.contains(op)),
        _ => false,
    };
    if !compatible {
        return Err(DynarError::invalid_config(format!(
            "ports {} and {} have incompatible interfaces",
            provider.name(),
            requirer.name()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposite() {
        assert_eq!(PortDirection::Provided.opposite(), PortDirection::Required);
        assert_eq!(PortDirection::Required.opposite(), PortDirection::Provided);
    }

    #[test]
    fn last_is_best_buffer_overwrites() {
        let mut buf = PortBuffer::for_interface(&PortInterface::SenderReceiver);
        buf.push(Value::I64(1));
        buf.push(Value::I64(2));
        assert_eq!(buf.peek(), Value::I64(2));
        assert_eq!(buf.take(), Some(Value::I64(2)));
        assert_eq!(buf.take(), None, "consumed values are not re-delivered");
        assert_eq!(buf.peek(), Value::I64(2), "peek still sees the last value");
    }

    #[test]
    fn queued_buffer_preserves_order_and_counts_overflow() {
        let mut buf =
            PortBuffer::for_interface(&PortInterface::QueuedSenderReceiver { queue_length: 2 });
        buf.push(Value::I64(1));
        buf.push(Value::I64(2));
        buf.push(Value::I64(3));
        assert_eq!(buf.overflows(), 1);
        assert_eq!(buf.pending(), 2);
        assert_eq!(buf.take(), Some(Value::I64(2)));
        assert_eq!(buf.take(), Some(Value::I64(3)));
        assert_eq!(buf.take(), None);
    }

    #[test]
    fn connectable_checks_directions() {
        let p = PortSpec::sender_receiver("p", PortDirection::Provided);
        let r = PortSpec::sender_receiver("r", PortDirection::Required);
        assert!(check_connectable(&p, &r).is_ok());
        assert!(check_connectable(&r, &p).is_err());
        assert!(check_connectable(&p, &p).is_err());
    }

    #[test]
    fn connectable_checks_interfaces() {
        let p = PortSpec::client_server("p", PortDirection::Provided, ["set", "get"]);
        let r_ok = PortSpec::client_server("r", PortDirection::Required, ["get"]);
        let r_bad = PortSpec::client_server("r", PortDirection::Required, ["reset"]);
        let r_sr = PortSpec::sender_receiver("r", PortDirection::Required);
        assert!(check_connectable(&p, &r_ok).is_ok());
        assert!(check_connectable(&p, &r_bad).is_err());
        assert!(check_connectable(&p, &r_sr).is_err());

        let sr_p = PortSpec::sender_receiver("p", PortDirection::Provided);
        let queued_r = PortSpec::queued("r", PortDirection::Required, 4);
        assert!(check_connectable(&sr_p, &queued_r).is_ok());
    }

    #[test]
    fn queue_length_is_clamped() {
        let spec = PortSpec::queued("q", PortDirection::Required, 0);
        match spec.interface() {
            PortInterface::QueuedSenderReceiver { queue_length } => assert_eq!(*queue_length, 1),
            other => panic!("unexpected interface {other:?}"),
        }
    }

    #[test]
    fn spec_accessors() {
        let spec = PortSpec::client_server("diag", PortDirection::Provided, ["read"]);
        assert_eq!(spec.name(), "diag");
        assert_eq!(spec.direction(), PortDirection::Provided);
        assert!(!spec.interface().is_sender_receiver());
        assert_eq!(PortDirection::Provided.to_string(), "provided");
    }
}

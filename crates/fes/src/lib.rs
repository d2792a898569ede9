//! Federated embedded systems support: transports and external devices.
//!
//! A federated embedded system (FES) is a set of embedded systems in
//! different products that cooperate through external communication
//! (paper §1, \[9\]).  In the paper's demonstrator a smart phone remotely
//! controls a model car; the phone talks to the vehicle's external
//! communication manager over TCP.  This crate provides the communication
//! layer behind the [`transport::Transport`] trait, with two backends: the
//! deterministic in-memory [`transport::TransportHub`] (named endpoints,
//! configurable latency and loss — the default test backend) and the real
//! loopback-socket [`udp::UdpTransport`], plus device models such as the
//! [`device::SmartPhone`] used by the Figure 3 scenario.
//!
//! # Example
//!
//! ```
//! use dynar_fes::transport::{Transport, TransportConfig, TransportHub};
//! use dynar_foundation::time::Tick;
//!
//! # fn main() -> Result<(), dynar_foundation::error::DynarError> {
//! let mut hub = TransportHub::new(TransportConfig::default());
//! hub.register("server");
//! hub.register("vehicle-1");
//!
//! hub.send("server", "vehicle-1", b"hello".to_vec())?;
//! hub.step(Tick::new(1));
//! let delivered = hub.drain("vehicle-1");
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].0.as_ref(), "server");
//! assert_eq!(delivered[0].1, b"hello".to_vec());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod transport;
pub mod udp;

pub use device::SmartPhone;
pub use transport::{
    shared_transport, FaultInjection, LinkFault, SharedTransport, Transport, TransportConfig,
    TransportHub, TransportStats,
};
pub use udp::{UdpConfig, UdpTransport};

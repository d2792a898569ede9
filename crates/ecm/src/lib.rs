//! The External Communication Manager (ECM).
//!
//! The ECM SW-C "inherits from the plug-in SW-C and adds a communication
//! module for interacting with the external world.  It serves as a gateway
//! for plug-in installation, allowing to download and distribute plug-in
//! binaries to the different ECUs, as well as to transfer information to and
//! from off-board services, e.g. for participating in FESs" (paper §3.1.1).
//!
//! * [`protocol`] — the wire format between the trusted server and the ECM
//!   (downlink messages carry a target ECU plus a management message; uplink
//!   messages are acknowledgements and telemetry);
//! * [`gateway`] — the [`gateway::EcmSwc`] component behaviour: it hosts its
//!   own PIRTE (the ECM is itself a plug-in SW-C), talks to the trusted
//!   server and external devices over the [`dynar_fes`] transport, relays
//!   installation packages to the other plug-in SW-Cs over type I ports and
//!   routes external data according to the External Connection Contexts it
//!   has seen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod protocol;

pub use gateway::{EcmConfig, EcmSwc, SendFailureCounts, SendFailures, SharedHub};
pub use protocol::{decode_downlink, decode_uplink, encode_downlink, encode_uplink};

//! The vehicle simulator, the federation round and the paper's demonstrator
//! scenarios.
//!
//! This crate wires the substrates together into runnable systems: ECUs
//! (OSEK kernel + RTE) on a CAN-like bus form a [`world::Vehicle`]; vehicles
//! federated through one trusted server over the FES transport form a
//! [`fleet::Fleet`], ticked in batched rounds with staged install waves.
//! One round function drives every federation the crate builds.
//! The [`scenario`] module builds concrete systems: [`scenario::remote_car`]
//! — the remotely controlled model car of the paper's Section 4 (Figure 3),
//! a one-vehicle fleet sharing its hub with the phone — and
//! [`scenario::fleet`] — the federated-scale fleet — which the examples,
//! integration tests and benchmarks all reuse.  The [`actors`] module is the
//! concurrent counterpart of [`fleet::Fleet`]: server and vehicles as real
//! threads over any [`Transport`] backend, driven by wall-clock time.
//!
//! [`Transport`]: dynar_fes::transport::Transport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod fleet;
pub mod plant;
pub mod scenario;
pub mod world;

pub use actors::{ActorFederation, FederationOutcome};
pub use fleet::{
    Fleet, FleetStats, RetryFailureEvent, LANES, MAX_FAILURE_EVENTS, POOLED_MIN_VEHICLES,
};
pub use plant::{CarPlant, PlantState, SharedPlantState};
pub use world::Vehicle;

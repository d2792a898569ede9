//! Ready-made scenarios built on the full stack.
//!
//! * [`remote_car`] — the paper's Section 4 demonstrator: a smart phone
//!   remotely controlling a two-ECU model car through dynamically installed
//!   COM and OP plug-ins (Figure 3).
//! * [`quickstart`] — the smallest useful system: one ECU, one plug-in SW-C,
//!   one plug-in installed through the PIRTE, used by the quickstart example
//!   and the documentation.
//! * [`fleet`] — the federated-scale scenario: N four-ECU vehicles on one
//!   trusted server, staged install/update waves over live signal chains.
//!   Its [`fleet::FleetScenario`] is also the one harness of the four lossy
//!   scenarios below: the checked step, the drive loop over a schedule of
//!   due events, the truth-resync rounds and the one ground-truth verifier,
//!   [`fleet::FleetScenario::verify`].
//! * [`chaos`] — the fleet scenario over a lossy, jittery, partitioning
//!   transport, asserting that the federation reliability plane converges
//!   every operation without duplicate installs.
//! * [`churn`] — the lifecycle scenario: vehicles reboot, leave and join
//!   mid-wave while desired-state reconciliation drives install/update waves
//!   over a lossy transport, asserting convergence to the manifest against
//!   the ECMs' ground truth.
//! * [`restart`] — the durability scenario: the trusted server crashes
//!   mid-campaign, is reconstructed byte-for-byte from its write-ahead
//!   journal, and re-announces itself under a bumped incarnation id while a
//!   vehicle reboot lands inside the recovery window.
//! * [`campaign`] — the orchestration scenario: staged rollouts driven by
//!   the server's campaign plane — canary waves, health gates, auto-abort on
//!   a bad version and rollback to the recorded last-good manifests — under
//!   loss and mid-wave reboots.

pub mod campaign;
pub mod chaos;
pub mod churn;
pub mod fleet;
pub mod quickstart;
pub mod remote_car;
pub mod restart;

//! The trusted server: web-service operations, compatibility checks, context
//! generation, the pusher — and the federation reliability plane that keeps
//! pushed packages alive over a lossy transport.
//!
//! Every downlink package carries a per-vehicle monotonically increasing
//! sequence id
//! ([`DownlinkEnvelope`](dynar_core::message::DownlinkEnvelope)).  Until
//! the matching acknowledgement arrives the package stays *outstanding*:
//! [`TrustedServer::tick`] retransmits it (same sequence id, so the ECM gateway deduplicates) each
//! time its deadline lapses, and after [`RetryPolicy::max_attempts`]
//! escalates into a typed [`DynarError::RetryExhausted`] plus a
//! [`DeploymentStatus::Failed`] record — a lossy link degrades into an
//! explicit failure, never a silent hang.  Deadlines adapt per vehicle: an
//! RFC 6298 estimator over the vehicle's measured ack round trips sets its
//! timeout, retransmissions back off exponentially, and no wait exceeds
//! [`RetryPolicy::ack_deadline_ticks`].
//!
//! # Lifecycle & desired-state reconciliation
//!
//! On top of the imperative pusher sits a convergent control loop.  Each
//! vehicle keeps a declarative **desired manifest** (the applications it
//! should run) next to the **observed** installed set;
//! [`TrustedServer::reconcile`] diffs the two and emits the minimal
//! install/uninstall downlink set.  Failures are retried, never terminal.
//! Vehicles whose endpoint is known dead are **parked**
//! ([`TrustedServer::mark_offline`]): deadlines freeze instead of burning the
//! retry budget, until [`TrustedServer::mark_online`] — or, for a *rebooted*
//! vehicle, the ECM's post-boot
//! [`ManagementMessage::StateReport`](dynar_core::message::ManagementMessage::StateReport) — brings
//! them back.  Every downlink is stamped with the vehicle's **boot epoch**;
//! a report with a newer epoch voids all old-epoch bookkeeping (the ECM's
//! volatile state is gone) and resyncs the observed set from the vehicle's
//! ground truth before reconciling.  Permanently removed vehicles fail fast
//! with the distinct [`DynarError::VehicleUnreachable`]
//! ([`TrustedServer::mark_unreachable`]).
//!
//! # One vehicle table, one module per plane
//!
//! Per-vehicle state lives in one table of vehicle records, plain data
//! behind `&mut self`; the catalogue, retry policy, clock and incarnation
//! id sit next to it, and so does the ledger.  Every operation borrows the
//! fields it needs, so there is one implementation of each per-vehicle
//! step.  The operations live in one module per plane — `plan`,
//! `lifecycle`, `reliability`, `durability`, `snapshot` and `campaigns` —
//! and a vehicle's delivery state (downlink queue, sequence ids,
//! outstanding packages, round-trip estimator) is owned by `reliability`:
//! the other planes change it only through that module's methods.
//!
//! A round driver (the fleet round of `dynar-sim`) calls
//! [`TrustedServer::tick`], [`TrustedServer::poll_downlink_dirty`],
//! [`TrustedServer::mark_offline`] and [`TrustedServer::process_uplink`],
//! then ends the round with [`TrustedServer::end_round`].  Those three
//! transport-path calls journal their records without checking whether the
//! journal is due for compaction; `end_round` does the check once, so a busy
//! round compacts at most once, after all of its records.
//!
//! # Hot-path discipline
//!
//! [`TrustedServer::tick`] runs once per fleet tick for every vehicle.  A
//! vehicle with nothing outstanding costs one check; one with outstanding
//! packages scans them (a handful at most) for lapsed deadlines.  Encoded
//! downlink payloads are shared
//! [`Payload`](dynar_foundation::payload::Payload) buffers: the retransmission
//! cache, the downlink queue and the transport all hold the same
//! allocation.  The server additionally keeps a **dirty set** of vehicles
//! with queued downlinks, so draining a quiescent fleet
//! ([`TrustedServer::poll_downlink_dirty`]) is O(active), not O(vehicles).
//!
//! # Durability
//!
//! The server's state is volatile by default; [`TrustedServer::enable_journal`]
//! turns on the write-ahead journal (see [`crate::journal`]): every mutating
//! API call is recorded *before* it runs, and the journal is periodically
//! compacted into a full-state snapshot.  [`TrustedServer::replay`] rebuilds a
//! crashed server from those bytes, byte-for-byte
//! ([`TrustedServer::snapshot_bytes`] is the canonical comparison form).
//! Because the pre-crash server may have handed out downlinks whose
//! acknowledgements are still in flight, every downlink envelope is stamped
//! with the server **incarnation id** — the off-board mirror of the vehicle
//! boot epoch.  [`TrustedServer::begin_incarnation`] (called after a replay)
//! bumps it, re-stamps everything still queued or outstanding, and solicits a
//! state report from every vehicle so the observed state resynchronises; the
//! gateways reject downlinks from older incarnations, so a zombie pre-crash
//! process cannot race its successor.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, UserId, VehicleId};
use dynar_foundation::time::Tick;

use crate::campaign::{Campaign, CampaignId};
use crate::journal::{Journal, JournalRecord};
use crate::ledger::Ledger;
use crate::model::{AppDefinition, HwConf, SystemSwConf};

mod campaigns;
mod durability;
mod lifecycle;
mod plan;
mod reliability;
mod snapshot;

use plan::{ConfTable, InstalledApp, VehicleConf};
use reliability::Delivery;
pub use reliability::{RetryFailure, RetryPolicy};

/// The status of one application's deployment on one vehicle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentStatus {
    /// The application is not installed and no operation is in flight.
    NotInstalled,
    /// Packages were pushed; acknowledgements from these plug-ins are still
    /// outstanding.
    Pending {
        /// Plug-ins whose acknowledgement has not arrived yet.
        awaiting: Vec<PluginId>,
    },
    /// Every plug-in acknowledged installation.
    Installed,
    /// The last operation failed with the given reason.
    Failed(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    Install,
    Uninstall,
}

#[derive(Debug, Clone)]
struct PendingOperation {
    kind: PendingKind,
    awaiting: HashSet<PluginId>,
    record: Arc<InstalledApp>,
    failure: Option<String>,
}

#[derive(Debug, Clone)]
struct VehicleRecord {
    /// The hardware and system software configuration, shared with every
    /// vehicle configured the same.
    conf: Arc<VehicleConf>,
    owner: Option<UserId>,
    /// The declarative *desired manifest*: the applications this vehicle
    /// should converge to, independent of what has been observed so far.
    /// [`TrustedServer::reconcile`] diffs it against `installed`.
    desired: BTreeSet<AppId>,
    /// The *observed* state: applications whose installation the vehicle
    /// acknowledged (resynced from the ECM's state reports after a reboot).
    installed: HashMap<AppId, Arc<InstalledApp>>,
    pending: HashMap<AppId, PendingOperation>,
    failed: HashMap<AppId, String>,
    /// `false` while the vehicle's endpoint is known to be gone (reboot in
    /// progress, transport feedback): downlinks park and deadlines freeze
    /// instead of burning the retry budget against a dead link.
    online: bool,
    /// `true` while a
    /// [`StateReportRequest`](dynar_core::message::ManagementMessage::StateReportRequest)
    /// queued by the server has not been answered yet: the next report is
    /// *solicited* and must not be answered with another request (which
    /// would ping-pong request/report forever).  Unsolicited reports are the gateway's
    /// post-reboot announcements; when one triggers no downlink of its own, a
    /// confirmation request is queued so the gateway learns its new epoch
    /// reached the server and stops re-announcing.
    awaiting_report: bool,
    /// The vehicle boot epoch the server last confirmed (stamped into every
    /// downlink; the gateway rejects other epochs).
    boot_epoch: u32,
    next_port_id: HashMap<EcuId, u32>,
    /// The downlink queue, sequence ids, outstanding packages and round-trip
    /// estimator, owned by the reliability plane.
    delivery: Delivery,
}

/// What every per-vehicle operation reads but does not change: the
/// application catalogue, the retry policy, the clock and the incarnation
/// id.  A field of its own, so an operation can borrow it while it changes
/// a vehicle record and the ledger.
#[derive(Debug, Default)]
struct OpCtx {
    apps: HashMap<AppId, AppDefinition>,
    policy: RetryPolicy,
    now: Tick,
    incarnation: u32,
}

/// The trusted server of Figure 2.
///
/// # Example
///
/// See the crate-level example of `dynar-sim` and the `remote_control_car`
/// example binary for a full deployment round trip; the unit tests below
/// exercise every operation in isolation.
#[derive(Debug, Default)]
pub struct TrustedServer {
    users: HashSet<UserId>,
    ctx: OpCtx,
    vehicles: HashMap<VehicleId, VehicleRecord>,
    /// The vehicles' distinct configurations, each shared by its records.
    confs: ConfTable,
    /// Vehicles with queued downlink payloads (each listed at most once:
    /// its delivery state flags it).  Drained by
    /// [`TrustedServer::poll_downlink_dirty`] in sorted VIN order so
    /// delivery order is deterministic.
    dirty: Vec<VehicleId>,
    ledger: Ledger,
    /// Rollout campaigns keyed by id, layered over the per-vehicle state.
    campaigns: BTreeMap<CampaignId, Campaign>,
    /// State-changing inputs applied so far: every journaled call except
    /// `Tick`, plus each tick that escalates a retry exhaustion.  Nothing
    /// else moves the vehicle state a campaign gate reads.
    inputs: u64,
    /// Per running campaign, its last `(succeeded, failed, pending)` health
    /// count and the `inputs` value it was taken at: a gate round with no
    /// input since reuses it instead of rescanning the exposed vehicles.
    /// Not part of the snapshot.
    gate_health: HashMap<CampaignId, (u64, (u64, u64, u64))>,
    /// The write-ahead journal, `None` until
    /// [`TrustedServer::enable_journal`].  Never set on a replayed-into
    /// server while records apply, so replay cannot re-journal itself.
    journal: Option<Journal>,
}

impl TrustedServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        TrustedServer::default()
    }

    /// Creates an empty server; `shards` must be 1.  Kept only because the
    /// `perfbench` benchmark builds its server with `with_shards(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not 1.
    pub fn with_shards(shards: usize) -> Self {
        assert_eq!(shards, 1, "the server keeps one vehicle table");
        TrustedServer::default()
    }

    // ------------------------------------------------------------------
    // User setup (web services)
    // ------------------------------------------------------------------

    /// Creates a user account.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the account already exists.
    pub fn create_user(&mut self, user: UserId) -> Result<()> {
        self.journal_append(|| JournalRecord::CreateUser(user.clone()));
        if !self.users.insert(user.clone()) {
            return Err(DynarError::duplicate("user", user));
        }
        Ok(())
    }

    /// Registers a vehicle together with its hardware and system software
    /// configuration (normally uploaded by the OEM).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the vehicle is already registered.
    pub fn register_vehicle(
        &mut self,
        vehicle: VehicleId,
        hw: HwConf,
        system: SystemSwConf,
    ) -> Result<()> {
        self.journal_append(|| {
            JournalRecord::RegisterVehicle(vehicle.clone(), hw.clone(), system.clone())
        });
        if self.vehicles.contains_key(&vehicle) {
            return Err(DynarError::duplicate("vehicle", vehicle));
        }
        let conf = self.confs.intern(hw, system);
        self.vehicles.insert(
            vehicle,
            VehicleRecord {
                conf,
                owner: None,
                desired: BTreeSet::new(),
                installed: HashMap::new(),
                pending: HashMap::new(),
                failed: HashMap::new(),
                online: true,
                boot_epoch: 0,
                awaiting_report: false,
                next_port_id: HashMap::new(),
                delivery: Delivery::default(),
            },
        );
        Ok(())
    }

    /// Binds a vehicle to a user account.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown users or vehicles.
    pub fn bind_vehicle(&mut self, user: &UserId, vehicle: &VehicleId) -> Result<()> {
        self.journal_append(|| JournalRecord::BindVehicle(user.clone(), vehicle.clone()));
        if !self.users.contains(user) {
            return Err(DynarError::not_found("user", user));
        }
        let record = self
            .vehicles
            .get_mut(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        record.owner = Some(user.clone());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Uploads (web services)
    // ------------------------------------------------------------------

    /// Uploads an application (binaries plus deployment descriptions).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the application already exists
    /// and propagates [`AppDefinition::validate`] failures.
    pub fn upload_app(&mut self, app: AppDefinition) -> Result<()> {
        self.journal_append(|| JournalRecord::UploadApp(app.clone()));
        app.validate()?;
        if self.ctx.apps.contains_key(&app.id) {
            return Err(DynarError::duplicate("app", &app.id));
        }
        self.ctx.apps.insert(app.id.clone(), app);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read-only queries
    // ------------------------------------------------------------------

    /// The applications recorded as installed on a vehicle.
    pub fn installed_apps(&self, vehicle: &VehicleId) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self
            .vehicles
            .get(vehicle)
            .map(|v| v.installed.keys().cloned().collect())
            .unwrap_or_default();
        apps.sort();
        apps
    }

    /// The deployment status of an application on a vehicle.
    pub fn deployment_status(&self, vehicle: &VehicleId, app: &AppId) -> DeploymentStatus {
        let Some(record) = self.vehicles.get(vehicle) else {
            return DeploymentStatus::NotInstalled;
        };
        if let Some(pending) = record.pending.get(app) {
            return DeploymentStatus::Pending {
                awaiting: pending.awaiting.iter().cloned().collect(),
            };
        }
        // A failure outranks an installed record: a failed *uninstall* leaves
        // the app both installed (it is still partially present) and failed —
        // the failure is the newer fact and must not be masked.
        if let Some(reason) = record.failed.get(app) {
            return DeploymentStatus::Failed(reason.clone());
        }
        if record.installed.contains_key(app) {
            return DeploymentStatus::Installed;
        }
        DeploymentStatus::NotInstalled
    }

    /// Applications of `vehicle` with an operation still in flight.
    pub fn pending_operations(&self, vehicle: &VehicleId) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self
            .vehicles
            .get(vehicle)
            .map(|v| v.pending.keys().cloned().collect())
            .unwrap_or_default();
        apps.sort();
        apps
    }

    /// The vehicle's desired manifest: the applications it should converge
    /// to, in sorted order.
    pub fn desired_manifest(&self, vehicle: &VehicleId) -> Vec<AppId> {
        self.vehicles
            .get(vehicle)
            .map(|v| v.desired.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Returns `true` if the vehicle is registered and not parked offline.
    pub fn is_online(&self, vehicle: &VehicleId) -> bool {
        self.vehicles.get(vehicle).is_some_and(|v| v.online)
    }

    /// The vehicle boot epoch the server currently stamps into downlinks.
    pub fn vehicle_boot_epoch(&self, vehicle: &VehicleId) -> Option<u32> {
        self.vehicles.get(vehicle).map(|v| v.boot_epoch)
    }

    /// The server incarnation id currently stamped into downlink envelopes.
    pub fn incarnation(&self) -> u32 {
        self.ctx.incarnation
    }

    /// A copy of the operation-accounting ledger (see [`Ledger`]).
    pub fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// Checks that `vehicle` is registered and bound to `user`.
    fn check_owner(&self, user: &UserId, vehicle: &VehicleId) -> Result<()> {
        let record = self
            .vehicles
            .get(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        if record.owner.as_ref() != Some(user) {
            return Err(DynarError::not_found(
                "vehicle bound to user",
                format!("{vehicle} for {user}"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;

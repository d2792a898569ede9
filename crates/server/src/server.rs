//! The trusted server: web-service operations, compatibility checks, context
//! generation, the pusher — and the federation reliability plane that keeps
//! pushed packages alive over a lossy transport.
//!
//! Every downlink package carries a per-vehicle monotonically increasing
//! sequence id ([`DownlinkEnvelope`]).  Until the matching acknowledgement
//! arrives the package stays *outstanding*: [`TrustedServer::tick`]
//! retransmits it (same sequence id, so the ECM gateway deduplicates) each
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
//! vehicle, the ECM's post-boot [`ManagementMessage::StateReport`] — brings
//! them back.  Every downlink is stamped with the vehicle's **boot epoch**;
//! a report with a newer epoch voids all old-epoch bookkeeping (the ECM's
//! volatile state is gone) and resyncs the observed set from the vehicle's
//! ground truth before reconciling.  Permanently removed vehicles fail fast
//! with the distinct [`DynarError::VehicleUnreachable`]
//! ([`TrustedServer::mark_unreachable`]).
//!
//! # One vehicle table
//!
//! Per-vehicle state (downlink queues, outstanding packages, deadline heaps,
//! epoch bookkeeping, observed/desired manifests) lives in one table of
//! vehicle records, plain data behind `&mut self`; the catalogue, retry
//! policy, clock and incarnation id sit next to it, and so does the ledger.
//! Every operation borrows the fields it needs, so there is one
//! implementation of each per-vehicle step.  A round driver (the fleet round
//! of `dynar-sim`) calls [`TrustedServer::tick`],
//! [`TrustedServer::poll_downlink_dirty`], [`TrustedServer::mark_offline`]
//! and [`TrustedServer::process_uplink`], then ends the round with
//! [`TrustedServer::end_round`].  Those three transport-path calls journal
//! their records without checking whether the journal is due for
//! compaction; `end_round` does the check once, so a busy round compacts at
//! most once, after all of its records.
//!
//! # Hot-path discipline
//!
//! [`TrustedServer::tick`] runs once per fleet tick for every vehicle, so its
//! steady state must not scale with the number of outstanding operations:
//! each vehicle keeps a deadline-ordered min-heap over its outstanding
//! packages (lazily invalidated when acknowledgements settle entries), and a
//! quiescent vehicle costs one heap peek.  Encoded downlink payloads are
//! shared [`Payload`] buffers: the retransmission cache, the downlink queue
//! and the transport all hold the same allocation.  The server additionally
//! keeps a **dirty set** of vehicles with queued downlinks, so draining a
//! quiescent fleet ([`TrustedServer::poll_downlink_dirty`]) is O(active), not
//! O(vehicles).
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use dynar_core::context::{
    ExternalConnectionContext, InstallationContext, LinkTarget, PortInitContext, PortLinkContext,
};
use dynar_core::message::{
    encode_uninstall_into, Ack, AckStatus, DownlinkEnvelope, InstallationPackage, ManagementMessage,
};
use dynar_foundation::codec::{self, Reader};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, PluginPortId, UserId, VehicleId};
use dynar_foundation::journal::FrameReader;
use dynar_foundation::payload::Payload;
use dynar_foundation::time::Tick;

use crate::campaign::{
    Campaign, CampaignEvent, CampaignId, CampaignSpec, CampaignStatus, VehicleSelector,
};
use crate::journal::{Journal, JournalRecord};
use crate::ledger::Ledger;
use crate::model::{
    AppDefinition, ConnectionDecl, HwConf, Placement, SwConf, SystemSwConf, VirtualPortKindDecl,
};

/// Retransmission parameters of the reliability plane.
///
/// Each vehicle arms its deadlines from its own retransmission timeout
/// (RTO), estimated from measured ack round trips as in RFC 6298;
/// `ack_deadline_ticks` is both the RTO before the first measurement and the
/// longest any single wait may grow to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The initial and the maximum retransmission timeout: the ticks a pushed
    /// package may stay unacknowledged before it is retransmitted, until the
    /// vehicle's first measured round trip, and the cap on every adaptive
    /// or backed-off wait after it.
    pub ack_deadline_ticks: u64,
    /// Total delivery attempts (first push included) before the operation is
    /// escalated as [`DynarError::RetryExhausted`].
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            ack_deadline_ticks: 25,
            max_attempts: 8,
        }
    }
}

/// The floor of every adaptive retransmission timeout, in ticks (RFC 6298's
/// minimum RTO, scaled to the fleet tick): a measured round trip can shrink
/// a vehicle's timeout to here, but no further.  The policy's
/// `ack_deadline_ticks` still wins when it is lower.
const MIN_RTO_TICKS: u64 = 2;

/// One escalated operation reported by [`TrustedServer::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryFailure {
    /// The vehicle whose link gave up.
    pub vehicle: VehicleId,
    /// The application the abandoned package belonged to.
    pub app: AppId,
    /// The plug-in the abandoned package addressed.
    pub plugin: PluginId,
    /// The typed reason ([`DynarError::RetryExhausted`]).
    pub error: DynarError,
}

/// A pushed downlink package awaiting its acknowledgement.
#[derive(Debug, Clone)]
struct OutstandingDownlink {
    seq: u64,
    ecu: EcuId,
    plugin: PluginId,
    app: AppId,
    kind: PendingKind,
    /// The encoded envelope, retransmitted verbatim (same sequence id) — a
    /// shared buffer, so caching and every retransmission are refcount bumps.
    payload: Payload,
    attempts: u32,
    deadline: Tick,
    /// The tick of the first push: an ack settling the entry at its first
    /// attempt measures one round trip from here (Karn's rule: a
    /// retransmitted entry's ack is ambiguous and gives no sample).
    sent: Tick,
}

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

/// One application's deployment plan on one vehicle: the installation
/// package generated for each target ECU.  The pending operation holds it,
/// and then the installed record.  It is built once, by the push path or by
/// a snapshot decode, and never changed, so it is shared behind an [`Arc`]
/// and its snapshot encoding is computed once, at construction: a
/// compaction copies those bytes, and each pushed envelope copies its
/// package's install message out of them.
#[derive(Debug)]
struct InstalledApp {
    packages: Vec<(EcuId, InstallationPackage)>,
    /// The snapshot encoding, `[[[plugin, ECU]…], [[ECU, install]…]]`,
    /// whose plug-in list is derived from `packages`.
    bytes: Payload,
    /// Per package, where in `bytes` its install message lies: the bytes
    /// [`InstallationPackage::encode_install_into`] writes.
    installs: Vec<Range<usize>>,
}

impl InstalledApp {
    /// Builds the plan and encodes it, each package exactly once.
    fn new(packages: Vec<(EcuId, InstallationPackage)>) -> Arc<Self> {
        let mut installs = Vec::with_capacity(packages.len());
        let bytes = Payload::encode_with(|out| Self::encode(&packages, out, &mut installs));
        Arc::new(InstalledApp {
            packages,
            bytes,
            installs,
        })
    }

    /// The deployed plug-ins with their ECUs, in package order.
    fn plugins(&self) -> impl Iterator<Item = (&PluginId, EcuId)> {
        self.packages
            .iter()
            .map(|(ecu, package)| (&package.plugin, *ecu))
    }

    /// `true` if one of the packages installs `plugin`.
    fn deploys(&self, plugin: &PluginId) -> bool {
        self.plugins().any(|(deployed, _)| deployed == plugin)
    }

    /// The encoded install message of package `index`.
    fn install_message(&self, index: usize) -> &[u8] {
        &self.bytes[self.installs[index].clone()]
    }
}

/// A vehicle's hardware and system software configuration, with its
/// snapshot encoding (`hw`, then `system`) computed once.  The vehicles of
/// one model share one, interned by value in the server's [`ConfTable`].
#[derive(Debug)]
struct VehicleConf {
    hw: HwConf,
    system: SystemSwConf,
    bytes: Box<[u8]>,
}

/// The distinct vehicle configurations of one server: one shared
/// [`VehicleConf`] per distinct encoding, keyed by it.  A derived view, not
/// part of the snapshot: registering and decoding vehicles fill it.
#[derive(Debug, Default)]
struct ConfTable {
    confs: HashMap<Box<[u8]>, Arc<VehicleConf>>,
    /// Reused encoding space for the lookup key.
    scratch: Vec<u8>,
}

impl ConfTable {
    /// The shared configuration equal to `hw` and `system`, added if it is
    /// new.
    fn intern(&mut self, hw: HwConf, system: SystemSwConf) -> Arc<VehicleConf> {
        self.scratch.clear();
        VehicleConf::encode(&hw, &system, &mut self.scratch);
        if let Some(conf) = self.confs.get(self.scratch.as_slice()) {
            return Arc::clone(conf);
        }
        let bytes: Box<[u8]> = self.scratch.as_slice().into();
        let conf = Arc::new(VehicleConf {
            hw,
            system,
            bytes: bytes.clone(),
        });
        self.confs.insert(bytes, Arc::clone(&conf));
        conf
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// `true` while a [`ManagementMessage::StateReportRequest`] queued by the
    /// server has not been answered yet: the next report is *solicited* and
    /// must not be answered with another request (which would ping-pong
    /// request/report forever).  Unsolicited reports are the gateway's
    /// post-reboot announcements; when one triggers no downlink of its own, a
    /// confirmation request is queued so the gateway learns its new epoch
    /// reached the server and stops re-announcing.
    awaiting_report: bool,
    /// The vehicle boot epoch the server last confirmed (stamped into every
    /// downlink; the gateway rejects other epochs).
    boot_epoch: u32,
    next_port_id: HashMap<EcuId, u32>,
    downlink: Vec<Payload>,
    /// Next downlink sequence id (monotonically increasing per vehicle).
    next_seq: u64,
    /// Pushed packages whose acknowledgement is still outstanding.
    outstanding: Vec<OutstandingDownlink>,
    /// Deadline-ordered view over `outstanding`: `(deadline, seq)` pairs,
    /// lazily invalidated.  An entry is live only while `outstanding` still
    /// holds its `seq` with exactly that deadline; acknowledgements simply
    /// remove from `outstanding` and let the heap entry die on pop.  A
    /// quiescent [`TrustedServer::tick`] is therefore one `peek` per vehicle,
    /// independent of how many packages are outstanding.
    deadlines: BinaryHeap<Reverse<(Tick, u64)>>,
    /// The vehicle's ack round-trip estimator, which arms its deadlines.
    rtt: RttEstimator,
    /// `true` iff this vehicle currently sits in the server's dirty set (the
    /// flag dedups re-inserts).  Not part of the durability snapshot — it is
    /// rebuilt from `online && !downlink.is_empty()` on decode.
    in_dirty: bool,
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

/// One vehicle's RFC 6298 round-trip estimator, in integer ticks so replay
/// re-derives it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RttEstimator {
    /// Smoothed round trip, scaled ×8 (`SRTT` in Jacobson's integer form);
    /// 0 until the first sample.  Samples are at least one tick, so a
    /// sampled estimator never reads 0.
    srtt: u64,
    /// Round-trip variation, scaled ×4 (`RTTVAR`).
    rttvar: u64,
}

impl RttEstimator {
    /// The retransmission timeout in ticks (RFC 6298 §2):
    /// `ack_deadline_ticks` until the first round trip is measured, then
    /// `srtt + max(1, 4·rttvar)` clamped to `[MIN_RTO_TICKS,
    /// ack_deadline_ticks]` (the ceiling wins when the two cross).
    fn rto(&self, policy: &RetryPolicy) -> u64 {
        if self.srtt == 0 {
            return policy.ack_deadline_ticks;
        }
        // `rttvar` is scaled ×4, so it already reads 4·RTTVAR in ticks.
        let rto = (self.srtt >> 3).saturating_add(self.rttvar.max(1));
        rto.max(MIN_RTO_TICKS).min(policy.ack_deadline_ticks)
    }

    /// Folds one measured round trip of `rtt` ticks into the estimator
    /// (RFC 6298 §2.2–2.3, gains 1/8 and 1/4).
    fn sample(&mut self, rtt: u64) {
        // One tick is the clock granularity: a sample never reads 0.
        let rtt = rtt.max(1);
        if self.srtt == 0 {
            self.srtt = rtt.saturating_mul(8);
            self.rttvar = rtt.saturating_mul(2);
            return;
        }
        // RTTVAR first, against the old SRTT: 3/4·RTTVAR + 1/4·|SRTT − R|.
        let error = rtt.abs_diff(self.srtt >> 3);
        self.rttvar = (self.rttvar - (self.rttvar >> 2)).saturating_add(error);
        // SRTT ← 7/8·SRTT + 1/8·R.
        self.srtt = (self.srtt - (self.srtt >> 3)).saturating_add(rtt);
    }
}

impl VehicleRecord {
    /// Enrols the record (of `vehicle`) in the dirty set if it has queued
    /// downlinks and is not already listed.
    fn note_dirty(&mut self, vehicle: &VehicleId, dirty: &mut Vec<VehicleId>) {
        if !self.in_dirty && !self.downlink.is_empty() {
            self.in_dirty = true;
            dirty.push(vehicle.clone());
        }
    }
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
    /// Vehicles with queued downlink payloads (each listed at most once —
    /// `VehicleRecord::in_dirty` dedups).  Drained by
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
                downlink: Vec::new(),
                next_seq: 0,
                outstanding: Vec::new(),
                deadlines: BinaryHeap::new(),
                rtt: RttEstimator::default(),
                in_dirty: false,
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

    // ------------------------------------------------------------------
    // Compatibility checking and context generation
    // ------------------------------------------------------------------

    /// Runs the compatibility and dependency checks and generates the
    /// installation packages (PIC/PLC/ECC included) for deploying `app` on
    /// `vehicle`, without pushing anything.
    ///
    /// # Errors
    ///
    /// Returns the deployment rejection the web portal would present to the
    /// user: [`DynarError::Incompatible`], [`DynarError::MissingDependency`]
    /// or [`DynarError::PluginConflict`]; or [`DynarError::NotFound`] for
    /// unknown entities.
    pub fn plan_deployment(
        &self,
        vehicle: &VehicleId,
        app: &AppId,
    ) -> Result<Vec<(EcuId, InstallationPackage)>> {
        let record = self
            .vehicles
            .get(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        Self::plan_for_record(record, &self.ctx.apps, app)
    }

    /// [`TrustedServer::plan_deployment`] against an already-resolved vehicle
    /// record (shared with the push path).
    fn plan_for_record(
        record: &VehicleRecord,
        apps: &HashMap<AppId, AppDefinition>,
        app: &AppId,
    ) -> Result<Vec<(EcuId, InstallationPackage)>> {
        let definition = apps
            .get(app)
            .ok_or_else(|| DynarError::not_found("app", app))?;

        // Vehicle model must have a matching SW conf.
        let system = &record.conf.system;
        let conf = definition.sw_conf_for(&system.model).ok_or_else(|| {
            DynarError::Incompatible(format!(
                "no deployment description for vehicle model {}",
                system.model
            ))
        })?;

        // Hardware and system software prerequisites.
        for placement in &conf.placements {
            let hw = record.conf.hw.ecu(placement.ecu).ok_or_else(|| {
                DynarError::Incompatible(format!(
                    "vehicle has no ECU {} required by plug-in {}",
                    placement.ecu, placement.plugin
                ))
            })?;
            if hw.memory_kb < conf.min_memory_kb {
                return Err(DynarError::Incompatible(format!(
                    "ECU {} offers {} KiB, {} KiB required",
                    placement.ecu, hw.memory_kb, conf.min_memory_kb
                )));
            }
            if system.swc_on(placement.ecu).is_none() {
                return Err(DynarError::Incompatible(format!(
                    "ECU {} has no plug-in SW-C",
                    placement.ecu
                )));
            }
        }

        // Dependencies and conflicts against the installed-app records.
        for required in &definition.requires {
            if !record.installed.contains_key(required) {
                return Err(DynarError::MissingDependency {
                    plugin: app.name().to_owned(),
                    requires: required.name().to_owned(),
                });
            }
        }
        for conflicting in &definition.conflicts {
            if record.installed.contains_key(conflicting) {
                return Err(DynarError::PluginConflict {
                    plugin: app.name().to_owned(),
                    conflicts_with: conflicting.name().to_owned(),
                });
            }
        }
        if record.installed.contains_key(app) || record.pending.contains_key(app) {
            return Err(DynarError::duplicate("installed app", app));
        }

        Self::generate_packages(record, definition, conf)
    }

    fn generate_packages(
        record: &VehicleRecord,
        definition: &AppDefinition,
        conf: &SwConf,
    ) -> Result<Vec<(EcuId, InstallationPackage)>> {
        // SW-C-scope unique plug-in port ids per target ECU, continuing after
        // the ids already handed out to previously installed plug-ins on
        // that ECU.  A placement's ports take consecutive ids from a base —
        // the ECU's next free id plus the ports of the placements before it
        // on the same ECU — so a port's id is that base plus its index in
        // the artifact, and no assignment table is built.  A plug-in placed
        // twice, or a name declared twice, resolves to its last placement
        // and port.
        for placement in &conf.placements {
            definition
                .plugin(&placement.plugin)
                .ok_or_else(|| DynarError::not_found("plug-in", &placement.plugin))?;
        }
        let port_count = |placement: &Placement| {
            definition
                .plugin(&placement.plugin)
                .map_or(0, |artifact| artifact.ports.len() as u32)
        };
        let base_of = |index: usize| {
            let ecu = conf.placements[index].ecu;
            let first = record.next_port_id.get(&ecu).copied().unwrap_or(0);
            conf.placements[..index]
                .iter()
                .filter(|earlier| earlier.ecu == ecu)
                .map(port_count)
                .fold(first, |next, ports| next + ports)
        };
        let id_of = |plugin: &PluginId, port: &str| {
            let placement = conf.placements.iter().rposition(|p| &p.plugin == plugin)?;
            let index = definition
                .plugin(plugin)?
                .ports
                .iter()
                .rposition(|p| p.name == port)?;
            Some(PluginPortId::new(base_of(placement) + index as u32))
        };

        // Second pass: build PIC, PLC and ECC per plug-in.
        let mut packages = Vec::new();
        for placement in &conf.placements {
            let artifact = definition
                .plugin(&placement.plugin)
                .expect("validated in the first pass");
            let swc = record
                .conf
                .system
                .swc_on(placement.ecu)
                .expect("checked during the compatibility pass");

            let mut pic = PortInitContext::new();
            for port in &artifact.ports {
                let id = id_of(&placement.plugin, &port.name).expect("the plug-in is placed");
                pic = pic.with_port(&port.name, id, port.direction);
            }

            let mut plc = PortLinkContext::new();
            let mut ecc = ExternalConnectionContext::new();
            let mut has_ecc = false;
            for connection in conf
                .connections
                .iter()
                .filter(|c| c.plugin == placement.plugin)
            {
                let port_id = id_of(&placement.plugin, &connection.port).ok_or_else(|| {
                    DynarError::Incompatible(format!(
                        "plug-in {} has no port named {}",
                        placement.plugin, connection.port
                    ))
                })?;
                match &connection.target {
                    ConnectionDecl::Direct => {
                        plc = plc.with_link(port_id, LinkTarget::Direct);
                    }
                    ConnectionDecl::VirtualPort { name } => {
                        let decl = swc
                            .virtual_ports
                            .iter()
                            .find(|v| &v.name == name)
                            .ok_or_else(|| {
                                DynarError::Incompatible(format!(
                                    "SW-C {} exposes no virtual port named {name}",
                                    swc.swc_name
                                ))
                            })?;
                        plc = plc.with_link(port_id, LinkTarget::VirtualPort(decl.id));
                    }
                    ConnectionDecl::RemotePlugin { plugin, port } => {
                        let remote_id = id_of(plugin, port).ok_or_else(|| {
                            DynarError::Incompatible(format!(
                                "remote plug-in {plugin} has no port named {port}"
                            ))
                        })?;
                        let remote_ecu = conf.placement_of(plugin).ok_or_else(|| {
                            DynarError::Incompatible(format!("plug-in {plugin} is not placed"))
                        })?;
                        if remote_ecu == placement.ecu {
                            // Same SW-C: the PIRTE links the two plug-in ports
                            // directly, no virtual port involved.
                            plc = plc.with_link(port_id, LinkTarget::Direct);
                        } else {
                            let via = swc
                                .virtual_ports
                                .iter()
                                .find(|v| {
                                    matches!(v.kind, VirtualPortKindDecl::TypeII { peer } if peer == remote_ecu)
                                })
                                .ok_or_else(|| {
                                    DynarError::Incompatible(format!(
                                        "SW-C {} has no type II port towards {remote_ecu}",
                                        swc.swc_name
                                    ))
                                })?;
                            plc = plc.with_link(
                                port_id,
                                LinkTarget::RemotePluginPort {
                                    via: via.id,
                                    remote: remote_id,
                                },
                            );
                        }
                    }
                    ConnectionDecl::External {
                        endpoint,
                        message_id,
                    } => {
                        plc = plc.with_link(port_id, LinkTarget::Direct);
                        ecc = ecc.with_route(endpoint, message_id, placement.ecu, port_id);
                        has_ecc = true;
                    }
                }
            }

            let mut context = InstallationContext::new(pic, plc);
            if has_ecc {
                context = context.with_ecc(ecc);
            }
            context.validate()?;
            packages.push((
                placement.ecu,
                InstallationPackage::new(
                    placement.plugin.clone(),
                    definition.id.clone(),
                    artifact.binary.clone(),
                    context,
                ),
            ));
        }
        Ok(packages)
    }

    // ------------------------------------------------------------------
    // Deployment operations (pusher)
    // ------------------------------------------------------------------

    /// Deploys an application to a vehicle: runs the checks, generates the
    /// contexts, queues the installation packages for the vehicle's ECM and
    /// records the pending acknowledgements.  The application also enters the
    /// vehicle's *desired manifest*, so [`TrustedServer::reconcile`] keeps
    /// driving it towards `Installed` after failures or reboots.  Returns the
    /// number of packages pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the user does not own the vehicle
    /// and the rejections documented on [`TrustedServer::plan_deployment`].
    pub fn deploy(&mut self, user: &UserId, vehicle: &VehicleId, app: &AppId) -> Result<usize> {
        self.journal_append(|| JournalRecord::Deploy(user.clone(), vehicle.clone(), app.clone()));
        self.check_owner(user, vehicle)?;
        let record = self.vehicles.get_mut(vehicle).expect("owner checked");
        let pushed = Self::op_push_install(record, &mut self.ledger, &self.ctx, app)?;
        record.desired.insert(app.clone());
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(pushed)
    }

    /// Plans and pushes the installation packages of `app` (the imperative
    /// half of [`TrustedServer::deploy`], shared with
    /// [`TrustedServer::reconcile`], which bypasses the ownership check
    /// because the operation was already authorised when the manifest was
    /// set).
    fn op_push_install(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        ctx: &OpCtx,
        app: &AppId,
    ) -> Result<usize> {
        // The plan is stored once, as the pending operation's record, and
        // encoded once: each envelope copies its package's install message
        // out of the plan's bytes.
        let plan = InstalledApp::new(Self::plan_for_record(record, &ctx.apps, app)?);
        let mut awaiting = HashSet::with_capacity(plan.packages.len());
        for (index, (ecu, package)) in plan.packages.iter().enumerate() {
            awaiting.insert(package.plugin.clone());
            // Reserve the port ids this deployment consumed.
            let counter = record.next_port_id.entry(*ecu).or_insert(0);
            let highest = package
                .context
                .pic
                .ports()
                .iter()
                .map(|p| p.id.index() + 1)
                .max()
                .unwrap_or(*counter);
            *counter = (*counter).max(highest);
            Self::push_tracked(
                record,
                ctx.now,
                &ctx.policy,
                ctx.incarnation,
                *ecu,
                package.plugin.clone(),
                app.clone(),
                PendingKind::Install,
                |out| out.extend_from_slice(plan.install_message(index)),
            );
        }
        let count = plan.packages.len();
        record.pending.insert(
            app.clone(),
            PendingOperation {
                kind: PendingKind::Install,
                awaiting,
                record: plan,
                failure: None,
            },
        );
        record.failed.remove(app);
        ledger.installs_pushed += count as u64;
        Ok(count)
    }

    /// Uninstalls an application from a vehicle, after checking that no other
    /// installed application depends on it.  The application also leaves the
    /// vehicle's *desired manifest*.  Returns the number of uninstallation
    /// messages pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::DependentsExist`] when other installed apps
    /// require this one, and [`DynarError::NotFound`] for unknown entities.
    pub fn uninstall(&mut self, user: &UserId, vehicle: &VehicleId, app: &AppId) -> Result<usize> {
        self.journal_append(|| {
            JournalRecord::Uninstall(user.clone(), vehicle.clone(), app.clone())
        });
        self.check_owner(user, vehicle)?;
        let record = self.vehicles.get_mut(vehicle).expect("owner checked");
        let pushed = Self::op_push_uninstall(record, &mut self.ledger, &self.ctx, app)?;
        record.desired.remove(app);
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(pushed)
    }

    /// Checks that `app` is installed with no installed dependents, then
    /// pushes its uninstallation messages (the imperative half of
    /// [`TrustedServer::uninstall`]).
    fn op_push_uninstall(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        ctx: &OpCtx,
        app: &AppId,
    ) -> Result<usize> {
        if !record.installed.contains_key(app) {
            return Err(DynarError::not_found("installed app", app));
        }
        let dependents: Vec<String> = record
            .installed
            .keys()
            .filter(|installed| {
                ctx.apps
                    .get(*installed)
                    .is_some_and(|d| d.requires.contains(app))
            })
            .map(|a| a.name().to_owned())
            .collect();
        if !dependents.is_empty() {
            return Err(DynarError::DependentsExist {
                plugin: app.name().to_owned(),
                dependents,
            });
        }
        let installed = record.installed.remove(app).expect("checked above");
        Ok(Self::push_uninstall(record, ledger, ctx, app, installed))
    }

    /// Pushes the uninstallation messages of `installed`, already taken out
    /// of the record's observed state, and tracks them as `app`'s pending
    /// operation.  Returns the number of messages pushed.
    fn push_uninstall(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        ctx: &OpCtx,
        app: &AppId,
        installed: Arc<InstalledApp>,
    ) -> usize {
        let mut awaiting = HashSet::with_capacity(installed.packages.len());
        for (plugin, ecu) in installed.plugins() {
            awaiting.insert(plugin.clone());
            Self::push_tracked(
                record,
                ctx.now,
                &ctx.policy,
                ctx.incarnation,
                ecu,
                plugin.clone(),
                app.clone(),
                PendingKind::Uninstall,
                |out| encode_uninstall_into(plugin, out),
            );
        }
        let count = installed.packages.len();
        record.pending.insert(
            app.clone(),
            PendingOperation {
                kind: PendingKind::Uninstall,
                awaiting,
                record: installed,
                failure: None,
            },
        );
        // A fresh operation supersedes whatever failure the last one left.
        record.failed.remove(app);
        ledger.uninstalls_pushed += count as u64;
        count
    }

    /// Re-installs, on a replaced ECU, every plug-in that was previously
    /// installed there (the restore operation of §3.2.2).  Returns the number
    /// of packages pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles.
    pub fn restore(&mut self, vehicle: &VehicleId, ecu: EcuId) -> Result<usize> {
        self.journal_append(|| JournalRecord::Restore(vehicle.clone(), ecu));
        let record = self
            .vehicles
            .get_mut(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        let mut repush = Vec::new();
        // Sorted by app so the push order (and thus sequence-id assignment)
        // is deterministic — journal replay must reproduce it exactly.
        let mut apps: Vec<(&AppId, &Arc<InstalledApp>)> = record.installed.iter().collect();
        apps.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (_, installed) in apps {
            for (index, (target, _)) in installed.packages.iter().enumerate() {
                if *target == ecu {
                    repush.push((Arc::clone(installed), index));
                }
            }
        }
        // Restore pushes are fire-and-forget (no pending operation records
        // them), but they still consume sequence ids so gateway
        // deduplication and ordering stay uniform.
        let pushed = repush.len();
        for (installed, index) in repush {
            Self::queue_envelope(record, ecu, self.ctx.incarnation, |out| {
                out.extend_from_slice(installed.install_message(index));
            });
        }
        record.note_dirty(vehicle, &mut self.dirty);
        self.ledger.restores += pushed as u64;
        Ok(pushed)
    }

    // ------------------------------------------------------------------
    // Reliability plane: retransmission deadlines and bounded retries
    // ------------------------------------------------------------------

    /// Replaces the retransmission policy (applies to packages pushed from
    /// now on; already-outstanding packages keep their deadlines).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.journal_append(|| JournalRecord::SetRetryPolicy(policy.clone()));
        self.ctx.policy = policy;
    }

    /// The active retransmission policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.ctx.policy.clone()
    }

    /// The retry horizon: worst-case ticks from first push to escalation.
    /// Adaptive and backed-off waits never exceed `ack_deadline_ticks`, so
    /// `max_attempts` of them still fit in it.
    pub fn retry_horizon_ticks(&self) -> u64 {
        let policy = &self.ctx.policy;
        policy.ack_deadline_ticks * u64::from(policy.max_attempts)
    }

    /// The retransmission timeout `vehicle`'s next push arms, in ticks:
    /// estimated from its measured ack round trips (see [`RetryPolicy`]).
    /// `None` for an unknown vehicle.
    pub fn rto_ticks(&self, vehicle: &VehicleId) -> Option<u64> {
        self.vehicles
            .get(vehicle)
            .map(|record| record.rtt.rto(&self.ctx.policy))
    }

    /// Downlink packages of `vehicle` still awaiting an acknowledgement.
    pub fn outstanding_count(&self, vehicle: &VehicleId) -> usize {
        self.vehicles
            .get(vehicle)
            .map(|v| v.outstanding.len())
            .unwrap_or(0)
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

    // ------------------------------------------------------------------
    // Lifecycle & desired-state reconciliation
    // ------------------------------------------------------------------

    /// The vehicle's desired manifest: the applications it should converge
    /// to, in sorted order.
    pub fn desired_manifest(&self, vehicle: &VehicleId) -> Vec<AppId> {
        self.vehicles
            .get(vehicle)
            .map(|v| v.desired.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Adds `app` to the vehicle's desired manifest and reconciles
    /// immediately.  Unlike [`TrustedServer::deploy`] this is *declarative*:
    /// requesting an app that is already installed or in flight is a no-op,
    /// and a previously failed operation is simply retried.  Returns the
    /// number of packages pushed by the reconciliation.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the user does not own the vehicle
    /// or the app does not exist.
    pub fn set_desired(
        &mut self,
        user: &UserId,
        vehicle: &VehicleId,
        app: &AppId,
    ) -> Result<usize> {
        self.journal_append(|| {
            JournalRecord::SetDesired(user.clone(), vehicle.clone(), app.clone())
        });
        self.check_owner(user, vehicle)?;
        if !self.ctx.apps.contains_key(app) {
            return Err(DynarError::not_found("app", app));
        }
        let record = self.vehicles.get_mut(vehicle).expect("owner checked");
        record.desired.insert(app.clone());
        let pushed = Self::reconcile_record(record, &mut self.ledger, &self.ctx);
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(pushed)
    }

    /// Removes `app` from the vehicle's desired manifest and reconciles
    /// immediately.  Returns the number of messages pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the user does not own the vehicle.
    pub fn clear_desired(
        &mut self,
        user: &UserId,
        vehicle: &VehicleId,
        app: &AppId,
    ) -> Result<usize> {
        self.journal_append(|| {
            JournalRecord::ClearDesired(user.clone(), vehicle.clone(), app.clone())
        });
        self.check_owner(user, vehicle)?;
        let record = self.vehicles.get_mut(vehicle).expect("owner checked");
        record.desired.remove(app);
        let pushed = Self::reconcile_record(record, &mut self.ledger, &self.ctx);
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(pushed)
    }

    /// Diffs the vehicle's desired manifest against its observed state and
    /// pushes the minimal downlink set closing the gap:
    ///
    /// * desired but neither installed nor in flight → install (a stale
    ///   `Failed` record from the previous attempt is cleared — failures are
    ///   retried, never terminal, because the vehicle-side management path
    ///   treats a re-issued install as a replacement);
    /// * installed but no longer desired and not in flight → uninstall
    ///   (skipped while other *installed* apps still depend on it; the next
    ///   reconciliation retries once the dependents are gone).
    ///
    /// Apps whose install cannot even be planned (incompatible hardware,
    /// missing dependency not yet installed, …) are recorded as `Failed` with
    /// the rejection reason and retried by the next reconciliation — a
    /// missing dependency resolves itself once the dependency's own install
    /// converges.
    ///
    /// Returns the number of packages pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles.
    pub fn reconcile(&mut self, vehicle: &VehicleId) -> Result<usize> {
        self.journal_append(|| JournalRecord::Reconcile(vehicle.clone()));
        let record = self
            .vehicles
            .get_mut(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        let pushed = Self::reconcile_record(record, &mut self.ledger, &self.ctx);
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(pushed)
    }

    /// Reconciles one already-found vehicle record: diffs its desired
    /// manifest against the observed and pending state and pushes the
    /// difference.  Cannot fail — an install that cannot be planned is
    /// recorded in `failed` for the next reconciliation, and the planned
    /// uninstalls are installed apps without installed dependents by
    /// construction.  Returns the number of packages pushed.
    fn reconcile_record(record: &mut VehicleRecord, ledger: &mut Ledger, ctx: &OpCtx) -> usize {
        let to_install: Vec<AppId> = record
            .desired
            .iter()
            .filter(|app| {
                !record.installed.contains_key(*app) && !record.pending.contains_key(*app)
            })
            .cloned()
            .collect();
        let mut to_uninstall: Vec<AppId> = record
            .installed
            .keys()
            .filter(|app| !record.desired.contains(*app) && !record.pending.contains_key(*app))
            .filter(|app| {
                // Keep dependency order: a still-depended-on app waits for
                // the next round, after its dependents are removed.
                !record.installed.keys().any(|other| {
                    ctx.apps
                        .get(other)
                        .is_some_and(|d| d.requires.contains(*app))
                })
            })
            .cloned()
            .collect();
        // `installed` is a HashMap: sort so the push order (and thus
        // sequence-id assignment) is deterministic for journal replay.
        to_uninstall.sort();
        let mut pushed = 0;
        for app in &to_install {
            record.failed.remove(app);
            match Self::op_push_install(record, ledger, ctx, app) {
                Ok(count) => pushed += count,
                Err(err) => {
                    // Not pushable right now (e.g. a dependency that has not
                    // converged yet): surface the reason and let the next
                    // reconciliation retry.
                    record.failed.insert(app.clone(), err.to_string());
                }
            }
        }
        for app in &to_uninstall {
            // Uninstalling one app only removes dependents of the others,
            // so every planned app is still installed and unrequired here.
            if let Some(installed) = record.installed.remove(app) {
                pushed += Self::push_uninstall(record, ledger, ctx, app, installed);
            }
        }
        pushed
    }

    /// Parks a vehicle whose transport endpoint is known to be gone (reboot
    /// in progress, dropped-destination feedback): downlinks stay queued and
    /// retransmission deadlines freeze, so the retry budget is not burned
    /// against a dead link.
    ///
    /// A transport-path call: its journal record is appended without the
    /// compaction check, which [`TrustedServer::end_round`] makes.
    pub fn mark_offline(&mut self, vehicle: &VehicleId) {
        self.journal_append_unchecked(|| JournalRecord::MarkOffline(vehicle.clone()));
        if let Some(record) = self.vehicles.get_mut(vehicle) {
            record.online = false;
        }
    }

    /// Returns `true` if the vehicle is registered and not parked offline.
    pub fn is_online(&self, vehicle: &VehicleId) -> bool {
        self.vehicles.get(vehicle).is_some_and(|v| v.online)
    }

    /// The vehicle boot epoch the server currently stamps into downlinks.
    pub fn vehicle_boot_epoch(&self, vehicle: &VehicleId) -> Option<u32> {
        self.vehicles.get(vehicle).map(|v| v.boot_epoch)
    }

    /// Brings a parked vehicle back: outstanding deadlines are re-armed
    /// relative to the current tick (the attempts already made keep
    /// counting), and the vehicle is reconciled against its desired
    /// manifest.  A `boot_epoch` newer than the last known one means the
    /// vehicle *rebooted* — its ECM lost all volatile state — so everything
    /// still outstanding or observed under the old epoch is discarded and
    /// the reconciliation re-issues what the manifest still wants under the
    /// new epoch.
    ///
    /// Returns the number of packages the reconciliation pushed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles.
    pub fn mark_online(&mut self, vehicle: &VehicleId, boot_epoch: u32) -> Result<usize> {
        self.journal_append(|| JournalRecord::MarkOnline(vehicle.clone(), boot_epoch));
        let record = self
            .vehicles
            .get_mut(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        let ctx = &self.ctx;
        Self::bring_online(record, &mut self.ledger, ctx.now, &ctx.policy, boot_epoch);
        let pushed = Self::reconcile_record(record, &mut self.ledger, ctx);
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(pushed)
    }

    /// Declares a vehicle permanently unreachable (its endpoint was removed,
    /// not rebooted): every outstanding operation fails *immediately* with
    /// the distinct [`DynarError::VehicleUnreachable`] — no retry budget is
    /// burned, and the failure reason is not the misleading
    /// "retry budget exhausted".  Returns the escalated failures.
    pub fn mark_unreachable(&mut self, vehicle: &VehicleId) -> Vec<RetryFailure> {
        self.journal_append(|| JournalRecord::MarkUnreachable(vehicle.clone()));
        let ledger = &mut self.ledger;
        let Some(record) = self.vehicles.get_mut(vehicle) else {
            return Vec::new();
        };
        record.online = false;
        record.downlink.clear();
        record.deadlines.clear();
        let mut failures = Vec::new();
        for entry in std::mem::take(&mut record.outstanding) {
            let error = DynarError::VehicleUnreachable {
                vehicle: vehicle.to_string(),
            };
            ledger.unreachable_failures += 1;
            Self::fail_awaiting(record, ledger, &entry.app, &entry.plugin, &error);
            failures.push(RetryFailure {
                vehicle: vehicle.clone(),
                app: entry.app,
                plugin: entry.plugin,
                error,
            });
        }
        // Operations whose outstanding entries were already settled but that
        // still await acknowledgements can never complete either.  Sorted:
        // `pending` is a HashMap, and journal replay must resolve the stuck
        // operations in a reproducible order.
        let mut stuck: Vec<AppId> = record.pending.keys().cloned().collect();
        stuck.sort();
        for app in stuck {
            let pending = record.pending.get_mut(&app).expect("key just listed");
            pending.failure.get_or_insert_with(|| {
                DynarError::VehicleUnreachable {
                    vehicle: vehicle.to_string(),
                }
                .to_string()
            });
            pending.awaiting.clear();
            Self::resolve_if_complete(record, ledger, &app);
        }
        failures
    }

    /// Queues a [`ManagementMessage::StateReportRequest`] towards the
    /// vehicle's ECM, asking for its ground-truth plug-in inventory (answered
    /// with a state report that the resync path consumes).  The request is
    /// fire-and-forget: callers poll and re-request if the answer is lost.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles and
    /// [`DynarError::InvalidConfiguration`] if the vehicle's system software
    /// declares no ECM.
    pub fn request_state_report(&mut self, vehicle: &VehicleId) -> Result<()> {
        self.journal_append(|| JournalRecord::RequestStateReport(vehicle.clone()));
        let record = self
            .vehicles
            .get_mut(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        let ecm = record.conf.system.ecm_ecu().ok_or_else(|| {
            DynarError::invalid_config(format!("vehicle {vehicle} declares no ECM SW-C"))
        })?;
        Self::queue_report_request(record, ecm, self.ctx.incarnation);
        record.note_dirty(vehicle, &mut self.dirty);
        Ok(())
    }

    /// Queues a state-report request towards the record's ECM on `ecm`
    /// (shared with the resync and incarnation paths, whose own journal
    /// records already cover the request).
    fn queue_report_request(record: &mut VehicleRecord, ecm: EcuId, incarnation: u32) {
        Self::queue_envelope(record, ecm, incarnation, |out| {
            ManagementMessage::StateReportRequest.encode_into(out);
        });
        record.awaiting_report = true;
    }

    /// Resynchronises the server's observed state from a vehicle state
    /// report — the ground truth of what is actually installed:
    ///
    /// * a report with a **newer boot epoch** first discards everything tied
    ///   to the old epoch (outstanding packages, parked downlinks, pending
    ///   operations *and* the observed installed set: the ECM's volatile
    ///   state is gone, so prior observations are void);
    /// * observed apps whose plug-ins the report does not confirm are
    ///   dropped (the manifest will re-install the desired ones);
    /// * reported plug-ins that no desired, observed or in-flight app
    ///   accounts for are *orphans* — a tracked uninstall is pushed for each
    ///   so the vehicle converges down to the manifest too;
    /// * finally the vehicle is reconciled.
    ///
    /// Stale reports from before the last known epoch are ignored.
    fn op_resync(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        ctx: &OpCtx,
        epoch: u32,
        plugins: &[(PluginId, AppId, EcuId)],
    ) {
        if epoch < record.boot_epoch {
            return;
        }
        ledger.resyncs += 1;
        let rebooted = Self::bring_online(record, ledger, ctx.now, &ctx.policy, epoch);
        // A report answering our own request is *solicited*; anything else —
        // in particular the first report after a reboot — is the gateway
        // announcing itself.  An epoch bump voids any older request.
        let solicited = record.awaiting_report && !rebooted;
        record.awaiting_report = false;
        let mut orphan_pushes = 0usize;
        let present: HashSet<&PluginId> = plugins.iter().map(|(plugin, _, _)| plugin).collect();
        record
            .installed
            .retain(|_, installed| installed.plugins().all(|(p, _)| present.contains(p)));
        for (plugin, app, ecu) in plugins {
            let accounted = record.desired.contains(app)
                || record.installed.values().any(|r| r.deploys(plugin))
                || record.pending.values().any(|p| p.record.deploys(plugin))
                // An orphan uninstall already in flight (reports can repeat
                // while it travels) must not be pushed again.
                || record.outstanding.iter().any(|o| &o.plugin == plugin);
            if !accounted {
                Self::push_tracked(
                    record,
                    ctx.now,
                    &ctx.policy,
                    ctx.incarnation,
                    *ecu,
                    plugin.clone(),
                    app.clone(),
                    PendingKind::Uninstall,
                    |out| encode_uninstall_into(plugin, out),
                );
                orphan_pushes += 1;
            }
        }
        ledger.orphan_uninstalls += orphan_pushes as u64;
        let reconciled = Self::reconcile_record(record, ledger, ctx);
        // An announcing gateway re-announces until a downlink of its own
        // epoch proves the server resynced.  When the resync itself produced
        // no downlink (empty manifest, everything already converged), answer
        // with a state-report request: it confirms the epoch, and its reply
        // arrives flagged as solicited so this cannot ping-pong.  A vehicle
        // without an ECM cannot be asked.
        if !solicited && orphan_pushes == 0 && reconciled == 0 {
            if let Some(ecm) = record.conf.system.ecm_ecu() {
                Self::queue_report_request(record, ecm, ctx.incarnation);
            }
        }
    }

    /// Un-parks a vehicle record, handling the epoch transition: an epoch
    /// bump voids everything issued under the old epoch (the rebooted
    /// gateway would reject it anyway); a same-epoch return re-arms the
    /// frozen deadlines relative to `now`.  Returns `true` if the vehicle
    /// rebooted.
    fn bring_online(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        now: Tick,
        policy: &RetryPolicy,
        boot_epoch: u32,
    ) -> bool {
        let was_online = record.online;
        record.online = true;
        if boot_epoch > record.boot_epoch {
            record.boot_epoch = boot_epoch;
            record.outstanding.clear();
            record.deadlines.clear();
            record.downlink.clear();
            // Aborted, not failed: the manifest still records the intent and
            // the post-resync reconciliation re-issues it under the new
            // epoch.  Voided operations are neither completed nor failed —
            // their old-epoch outcome can never arrive.
            ledger.operations_voided += record.pending.len() as u64;
            record.pending.clear();
            // The ECM's volatile state died with the old epoch: nothing can
            // be assumed installed until acknowledged (or reported) again —
            // and old-epoch failure outcomes are void with it (a non-desired
            // app whose uninstall retry-exhausted is simply gone now; a
            // desired one is re-driven by the reconciliation).
            record.installed.clear();
            record.failed.clear();
            true
        } else {
            // Re-arm frozen deadlines only when the vehicle was actually
            // parked: a same-epoch state report from an *online* vehicle (a
            // routine poll answer, a re-announcement whose confirmation was
            // lost) must not keep postponing the retransmission of packages
            // whose deadlines are legitimately running.  The vehicle's own
            // timeout arms them: the link that comes back is the one it
            // measured.
            if !was_online {
                let wait = record.rtt.rto(policy).max(1);
                record.deadlines.clear();
                for entry in &mut record.outstanding {
                    entry.deadline = now.advance(wait);
                    record.deadlines.push(Reverse((entry.deadline, entry.seq)));
                }
            }
            false
        }
    }

    /// Advances the reliability plane to `now`: every outstanding package
    /// whose deadline lapsed is either retransmitted (same sequence id) or —
    /// once its attempt budget is spent — escalated into a typed
    /// [`DynarError::RetryExhausted`], failing the owning operation.  The
    /// escalations are returned so harnesses can log or assert on them.
    ///
    /// Deadlines are tracked in a per-vehicle min-heap with lazy
    /// invalidation: a vehicle with nothing due costs a single peek, so a
    /// quiescent fleet tick is O(1) in the number of outstanding packages.
    pub fn tick(&mut self, now: Tick) -> Vec<RetryFailure> {
        self.journal_log(|| JournalRecord::Tick(now));
        self.ctx.now = now;
        let policy = &self.ctx.policy;
        let ledger = &mut self.ledger;
        let mut failures = Vec::new();
        for (vehicle_id, record) in &mut self.vehicles {
            if !record.online {
                // Parked: an offline vehicle's deadlines freeze — the link is
                // known dead, so retransmitting would only burn the retry
                // budget and escalate misleading failures.  `mark_online`
                // re-arms every deadline relative to its own `now`.
                continue;
            }
            if record.outstanding.is_empty() {
                // Every entry settled: drop whatever stale heap entries the
                // acknowledgements left behind.
                record.deadlines.clear();
                continue;
            }
            while let Some(&Reverse((deadline, seq))) = record.deadlines.peek() {
                if deadline > now {
                    break;
                }
                record.deadlines.pop();
                // Lazy invalidation: the entry may have been settled by an
                // acknowledgement, or rescheduled by an earlier
                // retransmission (its live deadline then differs).
                let Some(position) = record.outstanding.iter().position(|o| o.seq == seq) else {
                    continue;
                };
                if record.outstanding[position].deadline != deadline {
                    continue;
                }
                if record.outstanding[position].attempts >= policy.max_attempts {
                    let entry = record.outstanding.remove(position);
                    let error = DynarError::RetryExhausted {
                        operation: format!(
                            "delivery of management message seq {} for plug-in {} on {}",
                            entry.seq, entry.plugin, entry.ecu
                        ),
                        attempts: entry.attempts,
                    };
                    // Resolving the operation may settle further entries of
                    // the same app; their heap entries die lazily.
                    ledger.retries_exhausted += 1;
                    Self::fail_awaiting(record, ledger, &entry.app, &entry.plugin, &error);
                    failures.push(RetryFailure {
                        vehicle: vehicle_id.clone(),
                        app: entry.app,
                        plugin: entry.plugin,
                        error,
                    });
                } else {
                    let rto = record.rtt.rto(policy);
                    let entry = &mut record.outstanding[position];
                    entry.attempts += 1;
                    // Exponential backoff, RTO · 2^(attempts − 1), capped at
                    // the policy's deadline, so no wait exceeds it and the
                    // retry horizon stays a worst-case bound.  Re-arm at
                    // least one tick ahead: a zero ack deadline must
                    // retransmit once per tick (as the per-tick scan it
                    // replaced did), not spin the heap loop through the whole
                    // attempt budget within this tick.
                    let backoff = 1u64.checked_shl(entry.attempts - 1).unwrap_or(u64::MAX);
                    let wait = rto
                        .saturating_mul(backoff)
                        .min(policy.ack_deadline_ticks)
                        .max(1);
                    entry.deadline = now.advance(wait);
                    ledger.retransmissions += 1;
                    record.downlink.push(entry.payload.clone());
                    record.deadlines.push(Reverse((entry.deadline, seq)));
                }
            }
            // Retransmissions queued above make the vehicle pollable again.
            record.note_dirty(vehicle_id, &mut self.dirty);
        }
        // A retransmission changes no operation's outcome; an escalation
        // fails one, which a campaign gate must see.
        if !failures.is_empty() {
            self.inputs += 1;
        }
        failures
    }

    /// The earliest retransmission deadline over every online vehicle, if
    /// any — the timer a tick-free driver (the actor runtime) arms instead
    /// of sweeping [`TrustedServer::tick`] every quantum: it sleeps until
    /// this tick or the next uplink, whichever comes first.
    ///
    /// The value may be *early* (heap entries are lazily invalidated, so a
    /// settled package can still surface its stale deadline) but never late;
    /// a spurious early wake-up just runs a cheap quiescent sweep.  Offline
    /// vehicles are skipped — their deadlines are frozen by contract.
    pub fn next_deadline(&self) -> Option<Tick> {
        self.vehicles
            .values()
            .filter(|record| record.online && !record.outstanding.is_empty())
            .filter_map(|record| {
                record
                    .deadlines
                    .peek()
                    .map(|&Reverse((deadline, _))| deadline)
            })
            .min()
    }

    /// Assigns the next sequence id, encodes the envelope — its header,
    /// then the message `encode_message` appends — and queues it on the
    /// vehicle's downlink (shared by tracked pushes and fire-and-forget
    /// restore pushes).  The message is encoded from whatever the caller
    /// borrows, straight into the payload's one allocation.
    fn queue_envelope(
        record: &mut VehicleRecord,
        ecu: EcuId,
        incarnation: u32,
        encode_message: impl FnOnce(&mut Vec<u8>),
    ) -> (u64, Payload) {
        let seq = record.next_seq;
        record.next_seq += 1;
        let boot_epoch = record.boot_epoch;
        let payload = Payload::encode_with(|out| {
            DownlinkEnvelope::encode_header_into(ecu, seq, boot_epoch, incarnation, out);
            encode_message(out);
        });
        record.downlink.push(payload.clone());
        (seq, payload)
    }

    /// Queues a tracked downlink package: assigns the next sequence id,
    /// encodes the envelope and records the outstanding-acknowledgement
    /// state used by [`TrustedServer::tick`].
    #[allow(clippy::too_many_arguments)]
    fn push_tracked(
        record: &mut VehicleRecord,
        now: Tick,
        policy: &RetryPolicy,
        incarnation: u32,
        ecu: EcuId,
        plugin: PluginId,
        app: AppId,
        kind: PendingKind,
        encode_message: impl FnOnce(&mut Vec<u8>),
    ) {
        let (seq, payload) = Self::queue_envelope(record, ecu, incarnation, encode_message);
        let deadline = now.advance(record.rtt.rto(policy));
        record.outstanding.push(OutstandingDownlink {
            seq,
            ecu,
            plugin,
            app,
            kind,
            payload,
            attempts: 1,
            deadline,
            sent: now,
        });
        record.deadlines.push(Reverse((deadline, seq)));
    }

    /// Drains the downlink messages queued for a vehicle (consumed by the
    /// simulation harness, which feeds them to the vehicle's ECM endpoint).
    /// The returned payloads share their buffers with the retransmission
    /// cache — nothing is copied.  An offline vehicle's queue stays parked:
    /// nothing is drained until [`TrustedServer::mark_online`] (or a state
    /// report) brings the vehicle back.
    pub fn poll_downlink(&mut self, vehicle: &VehicleId) -> Vec<Payload> {
        let drained = self
            .vehicles
            .get_mut(vehicle)
            .filter(|v| v.online)
            .map(|v| std::mem::take(&mut v.downlink))
            .unwrap_or_default();
        // Journaled only when something actually left the queue: the fleet
        // polls every vehicle every tick, and an empty drain is a no-op that
        // would otherwise dominate the journal.  (The vehicle may still sit
        // in the dirty set; the next dirty drain pops it, sees the empty
        // queue and skips it.)
        if !drained.is_empty() {
            self.journal_append(|| JournalRecord::PollDownlink(vehicle.clone()));
        }
        drained
    }

    /// Drains the downlink queues of every *dirty* vehicle (one with queued
    /// payloads), invoking `f` per payload in sorted-VIN order, and returns
    /// the number of vehicles drained.  A quiescent fleet costs O(1),
    /// independent of the vehicle count.  Each drained vehicle is journaled
    /// as a `PollDownlink` record, exactly as
    /// [`TrustedServer::poll_downlink`] would have journaled it.
    ///
    /// A transport-path call: its journal records are appended without the
    /// compaction check, which [`TrustedServer::end_round`] makes.
    pub fn poll_downlink_dirty(&mut self, mut f: impl FnMut(&VehicleId, Payload)) -> u64 {
        if self.dirty.is_empty() {
            return 0;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        // Sorted VIN order: the dirty set fills in operation order (which is
        // nondeterministic across HashMap sweeps), but delivery order — and
        // the journal record order derived from it — must be reproducible.
        dirty.sort();
        let mut polls = 0;
        for vehicle in dirty.drain(..) {
            let Some(record) = self.vehicles.get_mut(&vehicle) else {
                continue;
            };
            record.in_dirty = false;
            // Parked queues stay parked (the entry re-arms via `note_dirty`
            // when the vehicle returns); an already-drained queue is a no-op.
            if !record.online || record.downlink.is_empty() {
                continue;
            }
            polls += 1;
            for payload in record.downlink.drain(..) {
                f(&vehicle, payload);
            }
            if let Some(journal) = &mut self.journal {
                journal.append(&JournalRecord::PollDownlink(vehicle));
            }
        }
        // Hand the (now empty) allocation back — the steady state reuses it.
        self.dirty = dirty;
        polls
    }

    /// Processes an uplink message from a vehicle: an acknowledgement updates
    /// the installed-app records; a [`ManagementMessage::StateReport`]
    /// resynchronises the server's observed state from the vehicle's ground
    /// truth.
    ///
    /// A transport-path call: its journal record is appended without the
    /// compaction check, which [`TrustedServer::end_round`] makes.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown vehicles and
    /// [`DynarError::ProtocolViolation`] for malformed or unexpected uplink
    /// payloads.
    pub fn process_uplink(&mut self, vehicle: &VehicleId, payload: &[u8]) -> Result<()> {
        // Journal-first: even a rejected uplink is recorded (it replays to
        // the same rejection).
        self.journal_append_unchecked(|| {
            JournalRecord::ProcessUplink(vehicle.clone(), payload.to_vec())
        });
        let record = self
            .vehicles
            .get_mut(vehicle)
            .ok_or_else(|| DynarError::not_found("vehicle", vehicle))?;
        let result = match ManagementMessage::from_bytes(payload)? {
            ManagementMessage::Ack(ack) => {
                Self::apply_ack(record, &mut self.ledger, &self.ctx, &ack);
                Ok(())
            }
            ManagementMessage::StateReport {
                boot_epoch,
                plugins,
            } => {
                Self::op_resync(record, &mut self.ledger, &self.ctx, boot_epoch, &plugins);
                Ok(())
            }
            _ => Err(DynarError::ProtocolViolation(
                "uplink message is neither an acknowledgement nor a state report".into(),
            )),
        };
        // Resyncs and ack-triggered reconciliations queue downlinks.
        record.note_dirty(vehicle, &mut self.dirty);
        result
    }

    /// Applies one acknowledgement: settles the outstanding retransmission
    /// state and the pending operation it belongs to.  Every entry it
    /// settles at its first attempt is one round-trip sample for the
    /// vehicle's timeout estimator; a retransmitted entry gives none (Karn's
    /// rule: the ack may answer any of its copies).
    ///
    /// Settlement is *outcome-matched* — an `Installed` ack only settles
    /// Install-kind state (and `Uninstalled` only Uninstall-kind), so a
    /// stale success ack replayed by the gateway's dedup window cannot
    /// silence a later operation's retransmissions.  `Failed` acks settle
    /// either kind; a stale replayed `Failed` ack arriving in the short
    /// in-flight window after a re-deploy of the same plug-in can therefore
    /// fail the fresh operation early — acks carry no sequence id, so the
    /// two are indistinguishable; the operation still resolves typed-failed
    /// and can be retried.
    fn apply_ack(record: &mut VehicleRecord, ledger: &mut Ledger, ctx: &OpCtx, ack: &Ack) {
        let outcome_matches = |kind: &PendingKind, status: &AckStatus| {
            matches!(
                (kind, status),
                (PendingKind::Install, AckStatus::Installed)
                    | (PendingKind::Uninstall, AckStatus::Uninstalled)
                    | (_, AckStatus::Failed(_))
            )
        };
        // A sample longer than the longest wait can only come from an entry
        // whose deadline froze while the vehicle was parked: capped there,
        // it cannot push the timeout past the policy's ceiling.
        let rtt = &mut record.rtt;
        let mut settle = |entry: &OutstandingDownlink| {
            if entry.attempts == 1 {
                rtt.sample(
                    ctx.now
                        .elapsed_since(entry.sent)
                        .min(ctx.policy.ack_deadline_ticks),
                );
            }
        };

        // Failure acks generated by the ECM itself (e.g. "no route to ECU")
        // may carry an empty app id.  Settle by plug-in through the
        // outstanding entries instead, resolving each entry's own app — the
        // pending operation must be updated too, or it would hang with its
        // retransmission state gone.
        if ack.app.name().is_empty() {
            let mut settled = Vec::new();
            record.outstanding.retain(|o| {
                if o.plugin == ack.plugin && outcome_matches(&o.kind, &ack.status) {
                    settle(o);
                    settled.push((o.app.clone(), o.plugin.clone()));
                    false
                } else {
                    true
                }
            });
            for (app, plugin) in settled {
                if let Some(pending) = record.pending.get_mut(&app) {
                    pending.awaiting.remove(&plugin);
                    if let AckStatus::Failed(reason) = &ack.status {
                        pending.failure = Some(format!("{plugin}: {reason}"));
                    }
                }
                Self::resolve_if_complete(record, ledger, &app);
            }
            return;
        }

        let app = &ack.app;
        record.outstanding.retain(|o| {
            let keep =
                o.plugin != ack.plugin || o.app != *app || !outcome_matches(&o.kind, &ack.status);
            if !keep {
                settle(o);
            }
            keep
        });
        let Some(pending) = record.pending.get_mut(app) else {
            return;
        };
        match &ack.status {
            AckStatus::Failed(reason) => {
                pending.awaiting.remove(&ack.plugin);
                pending.failure = Some(format!("{}: {reason}", ack.plugin));
            }
            status if outcome_matches(&pending.kind, status) => {
                pending.awaiting.remove(&ack.plugin);
            }
            _ => {}
        }
        Self::resolve_if_complete(record, ledger, app);
    }

    /// Finalises a pending operation once no acknowledgement is awaited any
    /// more, applying the install/uninstall bookkeeping (shared by the ack
    /// path and the retry-exhaustion path).
    fn resolve_if_complete(record: &mut VehicleRecord, ledger: &mut Ledger, app: &AppId) {
        let Some(pending) = record.pending.get(app) else {
            return;
        };
        if !pending.awaiting.is_empty() {
            return;
        }
        let done = record.pending.remove(app).expect("entry present");
        // Whatever the outcome, abandon retransmissions tied to the settled
        // operation (relevant when a retry exhaustion resolves it).
        record.outstanding.retain(|o| &o.app != app);
        match (&done.kind, &done.failure) {
            (PendingKind::Install, None) => {
                ledger.installs_completed += 1;
                record.installed.insert(app.clone(), done.record);
            }
            (PendingKind::Install, Some(reason)) => {
                ledger.operations_failed += 1;
                record.failed.insert(app.clone(), reason.clone());
            }
            (PendingKind::Uninstall, None) => {
                ledger.uninstalls_completed += 1;
            }
            (PendingKind::Uninstall, Some(reason)) => {
                // Keep the record: the app is still (partially) present.
                ledger.operations_failed += 1;
                record.failed.insert(app.clone(), reason.clone());
                record.installed.insert(app.clone(), done.record);
            }
        }
    }

    /// Marks one awaited plug-in of `app` as failed with `error` (used when
    /// its retransmission budget is exhausted) and resolves the operation if
    /// nothing else is awaited.
    fn fail_awaiting(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        app: &AppId,
        plugin: &PluginId,
        error: &DynarError,
    ) {
        if let Some(pending) = record.pending.get_mut(app) {
            pending.awaiting.remove(plugin);
            pending.failure = Some(format!("{plugin}: {error}"));
        }
        Self::resolve_if_complete(record, ledger, app);
    }

    // ------------------------------------------------------------------
    // Durability plane: journal, snapshots, replay, incarnations
    // ------------------------------------------------------------------

    /// The server incarnation id currently stamped into downlink envelopes.
    pub fn incarnation(&self) -> u32 {
        self.ctx.incarnation
    }

    /// A copy of the operation-accounting ledger (see [`Ledger`]).
    pub fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// Turns the write-ahead journal on: every mutating API call from now on
    /// is recorded *before* it runs, and every `compaction_interval` records
    /// the journal is compacted into a single full-state snapshot frame.
    /// The journal is seeded with a snapshot of the current state, so
    /// [`TrustedServer::replay`] works no matter when journaling began.
    pub fn enable_journal(&mut self, compaction_interval: u32) {
        let mut journal = Journal::new(compaction_interval);
        journal.compact(|out| self.write_snapshot(out));
        self.journal = Some(journal);
    }

    /// [`TrustedServer::enable_journal`] mirrored to a file at `path` with
    /// `fsync` batched every `fsync_interval` appends: the in-memory journal
    /// stays the replay source of truth, and the file is what survives a
    /// process crash.  Recover with [`TrustedServer::replay_recover`] over
    /// the file's bytes — a torn tail frame (crash mid-write) is detected by
    /// its checksum and truncated, not fatal.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Io`] when the file cannot be created or the
    /// seed snapshot cannot be written.
    pub fn enable_journal_file(
        &mut self,
        path: &std::path::Path,
        compaction_interval: u32,
        fsync_interval: u32,
    ) -> Result<()> {
        let mut journal = Journal::new(compaction_interval);
        journal.compact(|out| self.write_snapshot(out));
        journal.attach_file_sink(path, fsync_interval)?;
        self.journal = Some(journal);
        Ok(())
    }

    /// The journal's framed bytes (what a crash would leave behind; feed
    /// them to [`TrustedServer::replay`]), `None` while journaling is off.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_ref().map(Journal::bytes)
    }

    /// Counts one state-changing input and appends its record to the
    /// journal (no-op while journaling is off), compacting first when the
    /// interval lapsed.  Compaction snapshots the state *before* the new
    /// record is appended — the snapshot captures exactly what every
    /// previously journaled record replays to, so replay is always
    /// `snapshot ⊕ remaining records`, in order.
    fn journal_append(&mut self, record: impl FnOnce() -> JournalRecord) {
        self.inputs += 1;
        self.journal_log(record);
    }

    /// [`TrustedServer::journal_append`] without counting an input: the
    /// append of `Tick`, which by itself changes no vehicle's health.
    fn journal_log(&mut self, record: impl FnOnce() -> JournalRecord) {
        if self.journal.is_none() {
            return;
        }
        self.compact_journal_if_due();
        if let Some(journal) = &mut self.journal {
            journal.append(&record());
        }
    }

    /// Counts one state-changing input and appends its record to the
    /// journal (no-op while journaling is off) without the compaction check
    /// — the append of the transport-path calls, whose round
    /// [`TrustedServer::end_round`] closes.
    fn journal_append_unchecked(&mut self, record: impl FnOnce() -> JournalRecord) {
        self.inputs += 1;
        if let Some(journal) = &mut self.journal {
            journal.append(&record());
        }
    }

    /// Ends a round driven through the transport-path calls
    /// ([`TrustedServer::poll_downlink_dirty`],
    /// [`TrustedServer::mark_offline`], [`TrustedServer::process_uplink`]):
    /// compacts the journal if it is due.  Those calls append without the
    /// check, so a busy round compacts at most once, after all its records.
    pub fn end_round(&mut self) {
        self.compact_journal_if_due();
    }

    /// Compacts the journal when its interval lapsed, streaming the
    /// snapshot straight into the journal buffer.  The journal is taken out
    /// of `self` for the duration, so the snapshot can read the rest of the
    /// server while the journal's buffer is written.
    fn compact_journal_if_due(&mut self) {
        let Some(mut journal) = self.journal.take_if(|j| j.due_for_compaction()) else {
            return;
        };
        #[cfg(debug_assertions)]
        self.check_encoded_caches();
        journal.compact(|out| self.write_snapshot(out));
        self.journal = Some(journal);
    }

    /// Checks, in debug builds before every compaction, that each byte
    /// cache the snapshot copies — every vehicle configuration and every
    /// installed or pending plan — equals a fresh encode of its value.
    ///
    /// # Panics
    ///
    /// Panics on a stale cache.
    #[cfg(debug_assertions)]
    fn check_encoded_caches(&self) {
        let (mut fresh, mut installs) = (Vec::new(), Vec::new());
        for (vin, record) in &self.vehicles {
            fresh.clear();
            VehicleConf::encode(&record.conf.hw, &record.conf.system, &mut fresh);
            assert!(
                *fresh == *record.conf.bytes,
                "{vin}: configuration bytes differ from a fresh encode"
            );
            let plans = (record.installed.iter())
                .chain(record.pending.iter().map(|(app, p)| (app, &p.record)));
            for (app, plan) in plans {
                fresh.clear();
                installs.clear();
                InstalledApp::encode(&plan.packages, &mut fresh, &mut installs);
                assert!(
                    *fresh == *plan.bytes && installs == plan.installs,
                    "{vin}: the plan bytes of {app} differ from a fresh encode"
                );
            }
        }
    }

    /// Rebuilds a server from journal bytes: decodes each frame and applies
    /// it through the same public API the live server ran.  The result is
    /// byte-identical to the journaling server at its last append
    /// ([`TrustedServer::snapshot_bytes`] is the comparison form).  The
    /// rebuilt server has journaling off — re-enable it (and start a new
    /// incarnation with [`TrustedServer::begin_incarnation`]) to resume.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for truncated, corrupted or
    /// malformed journal bytes.
    pub fn replay(bytes: &[u8]) -> Result<TrustedServer> {
        let mut server = TrustedServer::new();
        let mut frames = FrameReader::new(bytes);
        while let Some(frame) = frames.next_frame()? {
            server.apply_frame(frame)?;
        }
        Ok(server)
    }

    /// Crash recovery from a journal *file* image: replays every intact
    /// frame and treats a torn *last* frame as the end of the log — exactly
    /// what a crash mid-append leaves behind under the checksummed frame
    /// format.  A frame is torn when it runs past the end of the bytes, or
    /// fails its checksum with nothing after it.  Returns the recovered
    /// server and the length of the clean prefix (the offset a resuming
    /// writer should truncate the file to).
    ///
    /// Corruption is fatal: a frame that fails its checksum with bytes after
    /// it cannot be a crash artefact (a crash tears only the last append),
    /// and a *decodable frame with malformed contents* was written intact,
    /// as its checksum proves.  Recovery refuses both rather than drop the
    /// rest of the log.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] when a frame before the
    /// last fails its checksum or an intact frame holds a malformed record.
    pub fn replay_recover(bytes: &[u8]) -> Result<(TrustedServer, usize)> {
        let mut server = TrustedServer::new();
        let mut reader = FrameReader::new(bytes);
        let mut clean = 0usize;
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    server.apply_frame(frame)?;
                    clean = reader.offset();
                }
                Ok(None) => break,
                // Torn tail: the last frame never made it to disk whole.
                // The clean prefix is the recovered log.
                Err(_) if reader.next_frame_reaches_end() => break,
                // Bytes follow the failing frame: corruption mid-log.
                Err(error) => return Err(error),
            }
        }
        Ok((server, clean))
    }

    /// Applies one journal frame, read with one [`Reader`]: a snapshot
    /// frame replaces the whole state, any other frame replays its record.
    /// A frame is read to its end before anything is applied.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for a malformed frame.
    fn apply_frame(&mut self, frame: &[u8]) -> Result<()> {
        let mut reader = Reader::new(frame);
        match JournalRecord::decode(&mut reader)? {
            None => {
                let server = TrustedServer::read_snapshot(&mut reader)?;
                reader.finish()?;
                *self = server;
            }
            Some(record) => {
                reader.finish()?;
                self.apply_record(record);
            }
        }
        Ok(())
    }

    /// Applies one journaled record.  Command *failures* are deliberately
    /// swallowed: the live call failed identically and changed nothing, so
    /// the failure replays for free.  (The replaying server has
    /// `journal: None`, so nothing is re-journaled here.)
    fn apply_record(&mut self, record: JournalRecord) {
        match record {
            JournalRecord::CreateUser(user) => {
                let _ = self.create_user(user);
            }
            JournalRecord::RegisterVehicle(vehicle, hw, system) => {
                let _ = self.register_vehicle(vehicle, hw, system);
            }
            JournalRecord::BindVehicle(user, vehicle) => {
                let _ = self.bind_vehicle(&user, &vehicle);
            }
            JournalRecord::UploadApp(app) => {
                let _ = self.upload_app(app);
            }
            JournalRecord::SetRetryPolicy(policy) => self.set_retry_policy(policy),
            JournalRecord::Deploy(user, vehicle, app) => {
                let _ = self.deploy(&user, &vehicle, &app);
            }
            JournalRecord::Uninstall(user, vehicle, app) => {
                let _ = self.uninstall(&user, &vehicle, &app);
            }
            JournalRecord::Restore(vehicle, ecu) => {
                let _ = self.restore(&vehicle, ecu);
            }
            JournalRecord::SetDesired(user, vehicle, app) => {
                let _ = self.set_desired(&user, &vehicle, &app);
            }
            JournalRecord::ClearDesired(user, vehicle, app) => {
                let _ = self.clear_desired(&user, &vehicle, &app);
            }
            JournalRecord::Reconcile(vehicle) => {
                let _ = self.reconcile(&vehicle);
            }
            JournalRecord::MarkOffline(vehicle) => self.mark_offline(&vehicle),
            JournalRecord::MarkOnline(vehicle, boot_epoch) => {
                let _ = self.mark_online(&vehicle, boot_epoch);
            }
            JournalRecord::MarkUnreachable(vehicle) => {
                let _ = self.mark_unreachable(&vehicle);
            }
            JournalRecord::RequestStateReport(vehicle) => {
                let _ = self.request_state_report(&vehicle);
            }
            JournalRecord::Tick(now) => {
                let _ = self.tick(now);
            }
            JournalRecord::ProcessUplink(vehicle, payload) => {
                let _ = self.process_uplink(&vehicle, &payload);
            }
            JournalRecord::PollDownlink(vehicle) => {
                let _ = self.poll_downlink(&vehicle);
            }
            JournalRecord::BeginIncarnation => {
                let _ = self.begin_incarnation();
            }
            JournalRecord::CampaignCreate(user, spec) => {
                let _ = self.create_campaign(&user, spec);
            }
            // The decision records replay through the internal apply
            // functions, not through gate evaluation: the live server
            // journaled the *verdict*, so replay reproduces it verbatim.
            JournalRecord::CampaignAdvance(id) => {
                let _ = self.campaign_apply_advance(&id);
            }
            JournalRecord::CampaignPause(id) => self.campaign_apply_pause(&id),
            JournalRecord::CampaignResume(id) => self.campaign_apply_resume(&id),
            JournalRecord::CampaignAbort(id) => {
                let _ = self.campaign_apply_abort(&id);
            }
            JournalRecord::CampaignComplete(id) => self.campaign_apply_complete(&id),
        }
    }

    /// Starts a new server incarnation (called after a crash recovery
    /// replayed the journal into a fresh process): bumps the incarnation id,
    /// re-stamps every queued and outstanding downlink with it (sequence
    /// ids unchanged — gateway deduplication still applies across the
    /// restart) and solicits a state report from every vehicle, so the
    /// gateways confirm the new incarnation and the observed state
    /// resynchronises.  A zombie pre-crash process keeps stamping the old
    /// incarnation, which the gateways now reject.  Returns the number of
    /// vehicles solicited.
    pub fn begin_incarnation(&mut self) -> usize {
        self.journal_append(|| JournalRecord::BeginIncarnation);
        let incarnation = self.ctx.incarnation + 1;
        self.ctx.incarnation = incarnation;
        // Sorted: the vehicle table is a HashMap and the sequence ids
        // consumed by the solicitations must be reproducible under journal
        // replay.
        let mut vehicles: Vec<VehicleId> = self.vehicles.keys().cloned().collect();
        vehicles.sort();
        for vehicle in &vehicles {
            let record = self.vehicles.get_mut(vehicle).expect("key just listed");
            for payload in &mut record.downlink {
                *payload = Self::restamp(payload, incarnation);
            }
            for entry in &mut record.outstanding {
                entry.payload = Self::restamp(&entry.payload, incarnation);
            }
            // No-ECM vehicles simply get no solicitation.
            if let Some(ecm) = record.conf.system.ecm_ecu() {
                Self::queue_report_request(record, ecm, incarnation);
            }
            record.note_dirty(vehicle, &mut self.dirty);
        }
        vehicles.len()
    }

    /// Re-encodes a server-built downlink envelope with the new incarnation
    /// id (target, sequence id, epoch and message unchanged).
    fn restamp(payload: &Payload, incarnation: u32) -> Payload {
        let mut envelope = DownlinkEnvelope::from_bytes(payload).expect("server-encoded envelope");
        envelope.incarnation = incarnation;
        envelope.to_bytes().into()
    }

    /// The canonical full-state snapshot, encoded with the shared codec:
    /// every map and set is emitted in sorted order, so two servers in the
    /// same logical state encode identically — `snapshot_bytes` equality
    /// *is* the state-equality check the restart scenario asserts.  The
    /// deadline heaps and dirty flags are not part of the snapshot: both are
    /// rebuildable views over the outstanding entries and downlink queues.
    ///
    /// The bytes encode one list of eight parts, streamed part by part:
    /// the state never exists as a value tree beside the server.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_snapshot(&mut out);
        out
    }

    /// Appends the canonical snapshot ([`TrustedServer::snapshot_bytes`]) to
    /// `out`.  Every part is streamed straight into `out` — journal
    /// compaction passes the journal's own buffer — and the hash maps of the
    /// vehicle records are sorted in one reused [`SortScratch`], so the
    /// number of allocations does not grow with the fleet.  The vehicle
    /// configurations and installed-app plans are immutable and carry their
    /// encodings, so those parts are copies of bytes encoded once.
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        // Unstable sorts (the keys are unique, so the order is the same):
        // a stable sort takes a heap buffer once the list outgrows its stack
        // buffer, an allocation that would depend on the fleet size.
        let mut users: Vec<&UserId> = self.users.iter().collect();
        users.sort_unstable();
        let mut apps: Vec<(&AppId, &AppDefinition)> = self.ctx.apps.iter().collect();
        apps.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut vehicles: Vec<(&VehicleId, &VehicleRecord)> = self.vehicles.iter().collect();
        vehicles.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let policy = &self.ctx.policy;
        codec::encode_list_header(8, out);
        codec::encode_i64(i64::from(self.ctx.incarnation), out);
        codec::encode_i64(self.ctx.now.as_u64() as i64, out);
        codec::encode_list_header(2, out);
        codec::encode_i64(policy.ack_deadline_ticks as i64, out);
        codec::encode_i64(i64::from(policy.max_attempts), out);
        codec::encode_list_header(users.len(), out);
        for user in users {
            codec::encode_text(user.name(), out);
        }
        codec::encode_list_header(apps.len(), out);
        for (_, app) in apps {
            app.encode_into(out);
        }
        let mut scratch = SortScratch::default();
        codec::encode_list_header(vehicles.len(), out);
        for (vin, record) in vehicles {
            codec::encode_list_header(2, out);
            codec::encode_text(vin.vin(), out);
            record.encode_into(out, &mut scratch);
        }
        self.ledger.encode_into(out);
        codec::encode_list_header(self.campaigns.len(), out);
        for campaign in self.campaigns.values() {
            campaign.encode_into(out);
        }
    }

    /// Reads a server from a snapshot written by
    /// [`TrustedServer::write_snapshot`], part by part in the order it wrote
    /// them.  The rebuilt server has journaling off.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed snapshots.
    fn read_snapshot(r: &mut Reader<'_>) -> Result<TrustedServer> {
        r.list_of(8, "server snapshot")?;
        let mut server = TrustedServer::default();
        server.ctx.incarnation = r.int("incarnation")?;
        server.ctx.now = Tick::new(r.int("now")?);
        r.list_of(2, "retry policy")?;
        server.ctx.policy = RetryPolicy {
            ack_deadline_ticks: r.int("ack deadline")?,
            max_attempts: r.int("max attempts")?,
        };
        server.users = r.items(|r| Ok(UserId::new(r.text()?)))?;
        server.ctx.apps = r.items(|r| {
            let definition = AppDefinition::decode(r)?;
            // The catalogue holds only apps `upload_app` validated; deploying
            // an inconsistent one would break the package generator.
            definition
                .validate()
                .map_err(|error| r.malformed(&format!("app definition: {error}")))?;
            Ok((definition.id.clone(), definition))
        })?;
        for _ in 0..r.list()? {
            r.list_of(2, "vehicle entry")?;
            let vin = VehicleId::new(r.text()?);
            let mut record = VehicleRecord::decode(r, &mut server.confs)?;
            // The dirty set is a rebuildable view: a vehicle with queued
            // downlinks is pollable (offline queues re-arm via `note_dirty`
            // when the vehicle returns).
            if record.online {
                record.note_dirty(&vin, &mut server.dirty);
            }
            server.vehicles.insert(vin, record);
        }
        server.ledger = Ledger::decode(r)?;
        server.campaigns = r.items(|r| {
            let campaign = Campaign::decode(r)?;
            Ok((campaign.id.clone(), campaign))
        })?;
        Ok(server)
    }

    // ------------------------------------------------------------------
    // Campaign plane: staged rollouts over the desired-state manifests
    // ------------------------------------------------------------------

    /// Creates a rollout campaign and immediately exposes its canary wave:
    /// the selector is resolved against the creating user's bound vehicles
    /// into a sorted target list, and the first wave's vehicles have their
    /// desired manifests rewritten (the replaced app removed, the campaign
    /// app inserted; the pre-campaign manifest recorded as *last-good*) and
    /// reconciled through the ordinary loop.  Returns the number of
    /// vehicles exposed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown user or app,
    /// [`DynarError::Duplicate`] for a reused campaign id,
    /// [`DynarError::InvalidConfiguration`] when the selector resolves to no
    /// vehicles, and [`DynarError::CampaignConflict`] when another active
    /// campaign already targets the same app on an overlapping vehicle.
    pub fn create_campaign(&mut self, user: &UserId, spec: CampaignSpec) -> Result<usize> {
        self.journal_append(|| JournalRecord::CampaignCreate(user.clone(), spec.clone()));
        if !self.users.contains(user) {
            return Err(DynarError::not_found("user", user));
        }
        let apps = &self.ctx.apps;
        if !apps.contains_key(&spec.app) {
            return Err(DynarError::not_found("app", &spec.app));
        }
        if let Some(replaces) = &spec.replaces {
            if !apps.contains_key(replaces) {
                return Err(DynarError::not_found("app", replaces));
            }
        }
        if self.campaigns.contains_key(&spec.id) {
            return Err(DynarError::duplicate("campaign", &spec.id));
        }
        let targets = self.resolve_selector(user, &spec.selector);
        if targets.is_empty() {
            return Err(DynarError::invalid_config(format!(
                "campaign {} selects no vehicles bound to {user}",
                spec.id
            )));
        }
        for other in self.campaigns.values() {
            if other.is_active()
                && other.app == spec.app
                && targets
                    .iter()
                    .any(|t| other.targets.binary_search(t).is_ok())
            {
                return Err(DynarError::CampaignConflict {
                    campaign: spec.id.name().to_owned(),
                    conflicts_with: other.id.name().to_owned(),
                    app: spec.app.name().to_owned(),
                });
            }
        }
        let id = spec.id.clone();
        self.campaigns
            .insert(id.clone(), Campaign::new(spec, user.clone(), targets));
        Ok(self.campaign_expose_next_wave(&id))
    }

    /// Pauses a running campaign (an operator hold: exposure freezes until
    /// [`TrustedServer::resume_campaign`] or
    /// [`TrustedServer::abort_campaign`]).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown or foreign campaign
    /// and [`DynarError::InvalidConfiguration`] when it is not running.
    pub fn pause_campaign(&mut self, user: &UserId, id: &CampaignId) -> Result<()> {
        self.check_campaign(user, id, &[CampaignStatus::Running])?;
        self.journal_append(|| JournalRecord::CampaignPause(id.clone()));
        self.campaign_apply_pause(id);
        Ok(())
    }

    /// Resumes a paused campaign.  The soak dwell restarts: the ticks spent
    /// paused do not count towards [`crate::campaign::HealthGate::min_soak_ticks`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown or foreign campaign
    /// and [`DynarError::InvalidConfiguration`] when it is not paused.
    pub fn resume_campaign(&mut self, user: &UserId, id: &CampaignId) -> Result<()> {
        self.check_campaign(user, id, &[CampaignStatus::Paused])?;
        self.journal_append(|| JournalRecord::CampaignResume(id.clone()));
        self.campaign_apply_resume(id);
        Ok(())
    }

    /// Aborts a running or paused campaign, rolling every exposed vehicle
    /// back to its recorded last-good manifest.  Returns the number of
    /// vehicles restored.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown or foreign campaign
    /// and [`DynarError::InvalidConfiguration`] when it already ended.
    pub fn abort_campaign(&mut self, user: &UserId, id: &CampaignId) -> Result<usize> {
        self.check_campaign(user, id, &[CampaignStatus::Running, CampaignStatus::Paused])?;
        self.journal_append(|| JournalRecord::CampaignAbort(id.clone()));
        Ok(self.campaign_apply_abort(id))
    }

    /// Evaluates every running campaign's health gate against the current
    /// vehicle state and applies the verdicts: **abort** (and roll back) at
    /// [`crate::campaign::HealthGate::abort_failed`] failures, **pause** at
    /// `pause_failed`, **advance** once the wave soaked with every exposed
    /// vehicle acknowledged — or **complete** when the final wave converges.
    /// Each verdict is journaled as its own decision record, so
    /// [`TrustedServer::replay`] re-applies the decision without
    /// re-evaluating the gate: the journal stays a log of inputs, and a
    /// mid-campaign crash replays byte-identically.  Call once per tick from
    /// the driving runtime (never during replay).
    ///
    /// A campaign's health count is taken afresh only when a state-changing
    /// input arrived since the last count; debug builds check every reused
    /// count against a fresh one.
    pub fn step_campaigns(&mut self) -> Vec<CampaignEvent> {
        // A verdict changes only its own campaign's status, so the running
        // set listed here is the set this round evaluates.
        let ids: Vec<CampaignId> = self
            .campaigns
            .iter()
            .filter(|(_, campaign)| campaign.status == CampaignStatus::Running)
            .map(|(id, _)| id.clone())
            .collect();
        let mut events = Vec::new();
        for id in ids {
            let Some(campaign) = self.campaigns.get(&id) else {
                continue;
            };
            let gate = campaign.gate.clone();
            let wave_started = campaign.wave_started;
            let exposed = campaign.last_good.len() as u64;
            let total = campaign.targets.len();
            let final_wave = campaign.plan.cumulative_target(campaign.wave, total) >= total;
            let (succeeded, failed, pending) = self.gated_health(&id);
            let now = self.ctx.now;
            let soaked = now.as_u64().saturating_sub(wave_started.as_u64()) >= gate.min_soak_ticks;
            if gate.abort_failed > 0 && failed >= gate.abort_failed {
                self.journal_append(|| JournalRecord::CampaignAbort(id.clone()));
                let rolled_back = self.campaign_apply_abort(&id);
                events.push(CampaignEvent::Aborted {
                    campaign: id,
                    failed,
                    rolled_back,
                });
            } else if gate.pause_failed > 0 && failed >= gate.pause_failed {
                self.journal_append(|| JournalRecord::CampaignPause(id.clone()));
                self.campaign_apply_pause(&id);
                events.push(CampaignEvent::Paused {
                    campaign: id,
                    failed,
                });
            } else if soaked && pending == 0 && failed == 0 && succeeded == exposed {
                if final_wave {
                    self.journal_append(|| JournalRecord::CampaignComplete(id.clone()));
                    self.campaign_apply_complete(&id);
                    events.push(CampaignEvent::Completed {
                        campaign: id,
                        succeeded,
                    });
                } else {
                    self.journal_append(|| JournalRecord::CampaignAdvance(id.clone()));
                    let newly = self.campaign_apply_advance(&id);
                    let wave = self.campaigns.get(&id).map_or(0, |c| c.wave);
                    events.push(CampaignEvent::Advanced {
                        campaign: id,
                        wave,
                        exposed: newly,
                    });
                }
            }
        }
        events
    }

    /// The campaign registered under `id`, if any.
    pub fn campaign(&self, id: &CampaignId) -> Option<&Campaign> {
        self.campaigns.get(id)
    }

    /// Every registered campaign id, sorted.
    pub fn campaign_ids(&self) -> Vec<CampaignId> {
        self.campaigns.keys().cloned().collect()
    }

    /// `true` while any campaign is running — the tick-free actor runtime
    /// keeps ticking (and stepping campaigns) while this holds, so soak
    /// dwells elapse even with no retransmission deadline armed.
    pub fn has_active_campaigns(&self) -> bool {
        self.campaigns
            .values()
            .any(|c| c.status == CampaignStatus::Running)
    }

    /// Resolves a selector into the sorted list of vehicles bound to `user`
    /// that the campaign will target.  Hash-map iteration order does not
    /// leak: the result is sorted, so resolution is deterministic under
    /// journal replay.
    fn resolve_selector(&self, user: &UserId, selector: &VehicleSelector) -> Vec<VehicleId> {
        let mut targets = Vec::new();
        match selector {
            VehicleSelector::Vehicles(vehicles) => {
                for vehicle in vehicles {
                    if self
                        .vehicles
                        .get(vehicle)
                        .is_some_and(|r| r.owner.as_ref() == Some(user))
                    {
                        targets.push(vehicle.clone());
                    }
                }
            }
            VehicleSelector::All | VehicleSelector::Model(_) => {
                for (vehicle, record) in &self.vehicles {
                    if record.owner.as_ref() != Some(user) {
                        continue;
                    }
                    if let VehicleSelector::Model(model) = selector {
                        if record.conf.system.model != *model {
                            continue;
                        }
                    }
                    targets.push(vehicle.clone());
                }
            }
        }
        targets.sort();
        targets.dedup();
        targets
    }

    /// Opens the next wave of `id`: bumps the wave counter, stamps the soak
    /// baseline and rewrites the desired manifest of every newly covered
    /// target — recording its pre-campaign manifest as last-good first —
    /// then reconciles each through the ordinary loop.  Shared by the
    /// create and advance transitions; replay applies the journaled
    /// decision through this same function without re-evaluating the gate.
    fn campaign_expose_next_wave(&mut self, id: &CampaignId) -> usize {
        let now = self.ctx.now;
        let Some(campaign) = self.campaigns.get_mut(id) else {
            return 0;
        };
        let total = campaign.targets.len();
        campaign.wave += 1;
        campaign.wave_started = now;
        let upto = campaign.plan.cumulative_target(campaign.wave, total);
        let batch: Vec<VehicleId> = campaign
            .targets
            .iter()
            .filter(|t| !campaign.last_good.contains_key(*t))
            .take(upto.saturating_sub(campaign.last_good.len()))
            .cloned()
            .collect();
        let app = campaign.app.clone();
        let replaces = campaign.replaces.clone();
        let mut exposed = Vec::with_capacity(batch.len());
        for vehicle in &batch {
            let Some(record) = self.vehicles.get_mut(vehicle) else {
                // Dropped from the fleet since resolution: skipped now, never
                // retried (`last_good` stays unset, the wave math simply
                // moves past it).
                continue;
            };
            let last_good = record.desired.clone();
            if let Some(replaced) = &replaces {
                record.desired.remove(replaced);
            }
            record.desired.insert(app.clone());
            self.ledger.campaign_exposures += 1;
            Self::reconcile_record(record, &mut self.ledger, &self.ctx);
            record.note_dirty(vehicle, &mut self.dirty);
            exposed.push((vehicle.clone(), last_good));
        }
        let campaign = self.campaigns.get_mut(id).expect("present above");
        let count = exposed.len();
        for (vehicle, last_good) in exposed {
            campaign.last_good.insert(vehicle, last_good);
        }
        campaign.counters.exposed = campaign.last_good.len() as u64;
        count
    }

    /// [`TrustedServer::campaign_health`] of a running campaign, reused from
    /// its last count while no state-changing input arrived since.  A
    /// verdict is itself an input, so a decided campaign always recounts.
    fn gated_health(&mut self, id: &CampaignId) -> (u64, u64, u64) {
        let inputs = self.inputs;
        if let Some(&(counted_at, health)) = self.gate_health.get(id) {
            if counted_at == inputs {
                debug_assert_eq!(
                    health,
                    self.campaign_health(id),
                    "campaign {id}: reused gate health is stale"
                );
                return health;
            }
        }
        let health = self.campaign_health(id);
        match self.gate_health.get_mut(id) {
            Some(entry) => *entry = (inputs, health),
            None => {
                self.gate_health.insert(id.clone(), (inputs, health));
            }
        }
        health
    }

    /// Counts `(succeeded, failed, pending)` over every vehicle `id` has
    /// exposed.  *Failed* is the per-vehicle failure record of the campaign
    /// app — NACKed installs, retry exhaustions and state-report resyncs
    /// all resolve into it, so the gate sees every failure mode through one
    /// predicate.  A vehicle that vanished from the fleet counts failed.
    fn campaign_health(&self, id: &CampaignId) -> (u64, u64, u64) {
        let Some(campaign) = self.campaigns.get(id) else {
            return (0, 0, 0);
        };
        let (mut succeeded, mut failed, mut pending) = (0u64, 0u64, 0u64);
        for vehicle in campaign.last_good.keys() {
            match self.vehicles.get(vehicle) {
                Some(record) if record.failed.contains_key(&campaign.app) => failed += 1,
                Some(record) if record.pending.contains_key(&campaign.app) => pending += 1,
                Some(record) if record.installed.contains_key(&campaign.app) => succeeded += 1,
                // Exposed but not yet pushed (offline, dependency wait):
                // still converging.
                Some(_) => pending += 1,
                None => failed += 1,
            }
        }
        (succeeded, failed, pending)
    }

    /// Recomputes the succeeded/failed counters from the vehicle state.
    /// Only ever called inside a journaled transition — the counters are
    /// snapshotted state, so they may only move when replay moves them too.
    fn campaign_refresh_counters(&mut self, id: &CampaignId) {
        let (succeeded, failed, _) = self.campaign_health(id);
        if let Some(campaign) = self.campaigns.get_mut(id) {
            campaign.counters.succeeded = succeeded;
            campaign.counters.failed = failed;
        }
    }

    /// Applies an advance decision: refreshes the counters and exposes the
    /// next wave.
    fn campaign_apply_advance(&mut self, id: &CampaignId) -> usize {
        self.campaign_refresh_counters(id);
        self.campaign_expose_next_wave(id)
    }

    /// Applies a pause decision.
    fn campaign_apply_pause(&mut self, id: &CampaignId) {
        self.campaign_refresh_counters(id);
        self.gate_health.remove(id);
        if let Some(campaign) = self.campaigns.get_mut(id) {
            campaign.status = CampaignStatus::Paused;
        }
    }

    /// Applies a resume decision, restarting the soak dwell.
    fn campaign_apply_resume(&mut self, id: &CampaignId) {
        let now = self.ctx.now;
        if let Some(campaign) = self.campaigns.get_mut(id) {
            campaign.status = CampaignStatus::Running;
            campaign.wave_started = now;
        }
    }

    /// Applies a complete decision.
    fn campaign_apply_complete(&mut self, id: &CampaignId) {
        self.campaign_refresh_counters(id);
        self.gate_health.remove(id);
        if let Some(campaign) = self.campaigns.get_mut(id) {
            campaign.status = CampaignStatus::Complete;
            self.ledger.campaigns_completed += 1;
        }
    }

    /// Applies an abort decision: refreshes the counters (the failure tally
    /// that tripped the gate survives in the campaign record), restores
    /// every exposed vehicle's last-good desired manifest in sorted vehicle
    /// order and reconciles each — dependency order emerges from the
    /// reconciliation loop's own skip logic, and a rollback is a manifest
    /// *restore*, not an uninstall.  Returns the number of vehicles
    /// restored.
    fn campaign_apply_abort(&mut self, id: &CampaignId) -> usize {
        self.campaign_refresh_counters(id);
        self.gate_health.remove(id);
        let Some(campaign) = self.campaigns.get_mut(id) else {
            return 0;
        };
        campaign.status = CampaignStatus::Aborted;
        let restores: Vec<(VehicleId, BTreeSet<AppId>)> = campaign
            .last_good
            .iter()
            .map(|(vehicle, apps)| (vehicle.clone(), apps.clone()))
            .collect();
        let mut restored = 0usize;
        for (vehicle, last_good) in restores {
            let Some(record) = self.vehicles.get_mut(&vehicle) else {
                continue;
            };
            record.desired = last_good;
            self.ledger.campaign_rollbacks += 1;
            Self::reconcile_record(record, &mut self.ledger, &self.ctx);
            record.note_dirty(&vehicle, &mut self.dirty);
            restored += 1;
        }
        let campaign = self.campaigns.get_mut(id).expect("present above");
        campaign.counters.rolled_back = restored as u64;
        self.ledger.campaigns_aborted += 1;
        restored
    }

    /// Validates a manual campaign transition *before* its journal append:
    /// the decision records replay unconditionally, so only applied
    /// transitions may reach the journal.
    fn check_campaign(
        &self,
        user: &UserId,
        id: &CampaignId,
        wanted: &[CampaignStatus],
    ) -> Result<()> {
        let campaign = self
            .campaigns
            .get(id)
            .ok_or_else(|| DynarError::not_found("campaign", id))?;
        if campaign.user != *user {
            return Err(DynarError::not_found(
                "campaign owned by user",
                format!("{id} for {user}"),
            ));
        }
        if !wanted.contains(&campaign.status) {
            return Err(DynarError::invalid_config(format!(
                "campaign {id} cannot transition from {:?}",
                campaign.status
            )));
        }
        Ok(())
    }

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

// ----------------------------------------------------------------------
// Snapshot codec for the per-vehicle bookkeeping
// ----------------------------------------------------------------------
//
// Each type streams its snapshot encoding with `encode_into`, straight into
// the journal buffer at compaction, and reads it back with `decode` from a
// `Reader` in the same order.  Hash maps and sets are emitted in sorted
// order, sorted in a reused `SortScratch`.

/// Reused sort space for streaming vehicle records.  The snapshot borrows
/// the whole server while it runs, so borrows of one record's keys can live
/// in vectors that outlast the record: each vector keeps its capacity from
/// one record to the next instead of being allocated per record.
#[derive(Default)]
struct SortScratch<'a> {
    installed: Vec<(&'a AppId, &'a Arc<InstalledApp>)>,
    pending: Vec<(&'a AppId, &'a PendingOperation)>,
    failed: Vec<(&'a AppId, &'a String)>,
    awaiting: Vec<&'a PluginId>,
    ports: Vec<(EcuId, u32)>,
}

/// Fills `scratch` with the entries of `map`, sorted by app id (the
/// canonical order of every app-keyed map in the snapshot).
fn sorted_by_app<'a, V>(map: &'a HashMap<AppId, V>, scratch: &mut Vec<(&'a AppId, &'a V)>) {
    scratch.clear();
    scratch.extend(map.iter());
    scratch.sort_unstable_by(|a, b| a.0.cmp(b.0));
}

/// An optional text: the text, or void when absent.
fn encode_optional_text(text: Option<&str>, out: &mut Vec<u8>) {
    match text {
        Some(text) => codec::encode_text(text, out),
        None => codec::encode_void(out),
    }
}

/// Reads a queued or outstanding downlink, the bytes of an envelope the
/// server encoded.  They are checked to decode as one, as
/// [`TrustedServer::begin_incarnation`] decodes them again to re-stamp them.
fn read_envelope(r: &mut Reader<'_>) -> Result<Payload> {
    let bytes = r.bytes()?;
    DownlinkEnvelope::from_bytes(bytes)?;
    Ok(Payload::copy_from(bytes))
}

impl PendingKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_i64(
            match self {
                PendingKind::Install => 0,
                PendingKind::Uninstall => 1,
            },
            out,
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.i64()? {
            0 => Ok(PendingKind::Install),
            1 => Ok(PendingKind::Uninstall),
            _ => Err(r.malformed("pending kind")),
        }
    }
}

impl VehicleConf {
    /// Appends the two configurations' snapshot encodings to `out`.
    fn encode(hw: &HwConf, system: &SystemSwConf, out: &mut Vec<u8>) {
        hw.encode_into(out);
        system.encode_into(out);
    }
}

impl InstalledApp {
    /// Encodes `packages` as a plan's snapshot form, pushing the range of
    /// each package's install message (relative to where the plan starts
    /// in `out`) onto `installs`.  [`InstalledApp::new`] runs it once; the
    /// compaction self-check runs it again to compare.
    fn encode(
        packages: &[(EcuId, InstallationPackage)],
        out: &mut Vec<u8>,
        installs: &mut Vec<Range<usize>>,
    ) {
        let base = out.len();
        codec::encode_list_header(2, out);
        // The plug-in list repeats the packages' `(plugin, ECU)` pairs; it
        // is kept in the snapshot form, derived here.
        codec::encode_list_header(packages.len(), out);
        for (ecu, package) in packages {
            codec::encode_list_header(2, out);
            codec::encode_text(package.plugin.name(), out);
            codec::encode_i64(i64::from(ecu.index()), out);
        }
        codec::encode_list_header(packages.len(), out);
        for (ecu, package) in packages {
            codec::encode_list_header(2, out);
            codec::encode_i64(i64::from(ecu.index()), out);
            let start = out.len() - base;
            package.encode_install_into(out);
            installs.push(start..out.len() - base);
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bytes);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Arc<Self>> {
        r.list_of(2, "installed app")?;
        let plugins: Vec<(PluginId, EcuId)> = r.items(|r| {
            r.list_of(2, "installed plug-in")?;
            Ok((PluginId::new(r.text()?), EcuId::new(r.int("plug-in ECU")?)))
        })?;
        let packages: Vec<(EcuId, InstallationPackage)> = r.items(|r| {
            r.list_of(2, "installed package")?;
            let ecu = EcuId::new(r.int("package ECU")?);
            // A package rides in the snapshot as the very install
            // message the wire carries: one codec, one truth.
            match ManagementMessage::decode(r)? {
                ManagementMessage::Install(package) => Ok((ecu, package)),
                _ => Err(r.malformed("installed package")),
            }
        })?;
        let derived = packages
            .iter()
            .map(|(ecu, package)| (&package.plugin, *ecu));
        if !plugins.iter().map(|(p, e)| (p, *e)).eq(derived) {
            return Err(r.malformed("installed plug-in list (it must match the packages)"));
        }
        Ok(InstalledApp::new(packages))
    }
}

impl PendingOperation {
    /// Streams the operation; `awaiting` is the reused space its plug-in
    /// set (a `HashSet`) is sorted in, for a canonical encoding.
    fn encode_into<'a>(&'a self, out: &mut Vec<u8>, awaiting: &mut Vec<&'a PluginId>) {
        codec::encode_list_header(4, out);
        self.kind.encode_into(out);
        awaiting.clear();
        awaiting.extend(self.awaiting.iter());
        awaiting.sort_unstable();
        codec::encode_list_header(awaiting.len(), out);
        for plugin in awaiting.iter() {
            codec::encode_text(plugin.name(), out);
        }
        self.record.encode_into(out);
        encode_optional_text(self.failure.as_deref(), out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.list_of(4, "pending operation")?;
        Ok(PendingOperation {
            kind: PendingKind::decode(r)?,
            awaiting: r.items(|r| Ok(PluginId::new(r.text()?)))?,
            record: InstalledApp::decode(r)?,
            failure: r.optional_text()?.map(str::to_owned),
        })
    }
}

impl OutstandingDownlink {
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(9, out);
        codec::encode_i64(self.seq as i64, out);
        codec::encode_i64(i64::from(self.ecu.index()), out);
        codec::encode_text(self.plugin.name(), out);
        codec::encode_text(self.app.name(), out);
        self.kind.encode_into(out);
        codec::encode_bytes(self.payload.as_ref(), out);
        codec::encode_i64(i64::from(self.attempts), out);
        codec::encode_i64(self.deadline.as_u64() as i64, out);
        codec::encode_i64(self.sent.as_u64() as i64, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.list_of(9, "outstanding downlink")?;
        Ok(OutstandingDownlink {
            seq: r.int("seq")?,
            ecu: EcuId::new(r.int("outstanding ECU")?),
            plugin: PluginId::new(r.text()?),
            app: AppId::new(r.text()?),
            kind: PendingKind::decode(r)?,
            payload: read_envelope(r)?,
            attempts: r.int("attempts")?,
            deadline: Tick::new(r.int("deadline")?),
            sent: Tick::new(r.int("sent")?),
        })
    }
}

impl RttEstimator {
    /// Streams the estimator as two items of the vehicle record's list.
    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_i64(self.srtt as i64, out);
        codec::encode_i64(self.rttvar as i64, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(RttEstimator {
            srtt: r.int("srtt")?,
            rttvar: r.int("rttvar")?,
        })
    }
}

impl VehicleRecord {
    /// Streams the record, sorting its hash maps and sets in `scratch`.
    fn encode_into<'a>(&'a self, out: &mut Vec<u8>, scratch: &mut SortScratch<'a>) {
        codec::encode_list_header(16, out);
        out.extend_from_slice(&self.conf.bytes);
        encode_optional_text(self.owner.as_ref().map(UserId::name), out);
        codec::encode_list_header(self.desired.len(), out);
        for app in &self.desired {
            codec::encode_text(app.name(), out);
        }
        sorted_by_app(&self.installed, &mut scratch.installed);
        codec::encode_list_header(scratch.installed.len(), out);
        for (app, installed) in &scratch.installed {
            codec::encode_list_header(2, out);
            codec::encode_text(app.name(), out);
            installed.encode_into(out);
        }
        sorted_by_app(&self.pending, &mut scratch.pending);
        codec::encode_list_header(scratch.pending.len(), out);
        for (app, pending) in &scratch.pending {
            codec::encode_list_header(2, out);
            codec::encode_text(app.name(), out);
            pending.encode_into(out, &mut scratch.awaiting);
        }
        sorted_by_app(&self.failed, &mut scratch.failed);
        codec::encode_list_header(scratch.failed.len(), out);
        for (app, reason) in &scratch.failed {
            codec::encode_list_header(2, out);
            codec::encode_text(app.name(), out);
            codec::encode_text(reason, out);
        }
        codec::encode_bool(self.online, out);
        codec::encode_bool(self.awaiting_report, out);
        codec::encode_i64(i64::from(self.boot_epoch), out);
        let ports = &mut scratch.ports;
        ports.clear();
        ports.extend(self.next_port_id.iter().map(|(ecu, next)| (*ecu, *next)));
        ports.sort_unstable();
        codec::encode_list_header(ports.len(), out);
        for (ecu, next) in ports.iter() {
            codec::encode_list_header(2, out);
            codec::encode_i64(i64::from(ecu.index()), out);
            codec::encode_i64(i64::from(*next), out);
        }
        codec::encode_list_header(self.downlink.len(), out);
        for payload in &self.downlink {
            codec::encode_bytes(payload.as_ref(), out);
        }
        codec::encode_i64(self.next_seq as i64, out);
        codec::encode_list_header(self.outstanding.len(), out);
        for entry in &self.outstanding {
            entry.encode_into(out);
        }
        self.rtt.encode_into(out);
    }

    /// Reads a record, sharing its configuration through `confs`.
    fn decode(r: &mut Reader<'_>, confs: &mut ConfTable) -> Result<Self> {
        /// Reads an app-keyed map, a list of `[app, value]` pairs.
        fn by_app<V>(
            r: &mut Reader<'_>,
            mut value: impl FnMut(&mut Reader<'_>) -> Result<V>,
        ) -> Result<HashMap<AppId, V>> {
            r.items(|r| {
                r.list_of(2, "app entry")?;
                Ok((AppId::new(r.text()?), value(r)?))
            })
        }
        r.list_of(16, "vehicle record")?;
        let mut record = VehicleRecord {
            conf: confs.intern(HwConf::decode(r)?, SystemSwConf::decode(r)?),
            owner: r.optional_text()?.map(UserId::new),
            desired: r.items(|r| Ok(AppId::new(r.text()?)))?,
            installed: by_app(r, InstalledApp::decode)?,
            pending: by_app(r, PendingOperation::decode)?,
            failed: by_app(r, |r| Ok(r.text()?.to_owned()))?,
            online: r.bool()?,
            awaiting_report: r.bool()?,
            boot_epoch: r.int("boot epoch")?,
            next_port_id: r.items(|r| {
                r.list_of(2, "port-id entry")?;
                Ok((EcuId::new(r.int("port-id ECU")?), r.int("next port id")?))
            })?,
            downlink: r.items(read_envelope)?,
            next_seq: r.int("next seq")?,
            outstanding: r.items(OutstandingDownlink::decode)?,
            deadlines: BinaryHeap::new(),
            rtt: RttEstimator::decode(r)?,
            in_dirty: false,
        };
        // The deadline heap is a rebuildable view: one live entry per
        // outstanding package.  (The journaling server's heap may carry
        // extra *stale* entries — lazily invalidated no-ops — so the heap is
        // excluded from the snapshot rather than compared.)
        for entry in &record.outstanding {
            record.deadlines.push(Reverse((entry.deadline, entry.seq)));
        }
        Ok(record)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PluginArtifact, PluginPortDecl, PluginSwcDecl, VirtualPortDecl};
    use dynar_core::plugin::PluginPortDirection;
    use dynar_foundation::ids::VirtualPortId;
    use dynar_vm::assembler::assemble;

    fn binary(name: &str) -> Vec<u8> {
        assemble(name, "yield\nhalt").unwrap().to_bytes()
    }

    fn system_conf() -> SystemSwConf {
        SystemSwConf::new("model-car")
            .with_swc(PluginSwcDecl {
                ecu: EcuId::new(1),
                swc_name: "ecm-swc".into(),
                is_ecm: true,
                virtual_ports: vec![VirtualPortDecl {
                    id: VirtualPortId::new(0),
                    name: "PluginData".into(),
                    kind: VirtualPortKindDecl::TypeII {
                        peer: EcuId::new(2),
                    },
                }],
            })
            .with_swc(PluginSwcDecl {
                ecu: EcuId::new(2),
                swc_name: "plugin-swc-2".into(),
                is_ecm: false,
                virtual_ports: vec![
                    VirtualPortDecl {
                        id: VirtualPortId::new(3),
                        name: "PluginDataIn".into(),
                        kind: VirtualPortKindDecl::TypeII {
                            peer: EcuId::new(1),
                        },
                    },
                    VirtualPortDecl {
                        id: VirtualPortId::new(4),
                        name: "WheelsReq".into(),
                        kind: VirtualPortKindDecl::TypeIII,
                    },
                    VirtualPortDecl {
                        id: VirtualPortId::new(5),
                        name: "SpeedReq".into(),
                        kind: VirtualPortKindDecl::TypeIII,
                    },
                ],
            })
    }

    fn hw_conf() -> HwConf {
        HwConf::new()
            .with_ecu(EcuId::new(1), 512)
            .with_ecu(EcuId::new(2), 512)
    }

    fn remote_control_app() -> AppDefinition {
        AppDefinition::new(AppId::new("remote-control"))
            .with_plugin(PluginArtifact {
                id: PluginId::new("COM"),
                binary: binary("COM"),
                ports: vec![
                    PluginPortDecl {
                        name: "wheels_ext".into(),
                        direction: PluginPortDirection::Required,
                    },
                    PluginPortDecl {
                        name: "speed_ext".into(),
                        direction: PluginPortDirection::Required,
                    },
                    PluginPortDecl {
                        name: "wheels_fwd".into(),
                        direction: PluginPortDirection::Provided,
                    },
                    PluginPortDecl {
                        name: "speed_fwd".into(),
                        direction: PluginPortDirection::Provided,
                    },
                ],
            })
            .with_plugin(PluginArtifact {
                id: PluginId::new("OP"),
                binary: binary("OP"),
                ports: vec![
                    PluginPortDecl {
                        name: "wheels_in".into(),
                        direction: PluginPortDirection::Required,
                    },
                    PluginPortDecl {
                        name: "speed_in".into(),
                        direction: PluginPortDirection::Required,
                    },
                    PluginPortDecl {
                        name: "wheels_out".into(),
                        direction: PluginPortDirection::Provided,
                    },
                    PluginPortDecl {
                        name: "speed_out".into(),
                        direction: PluginPortDirection::Provided,
                    },
                ],
            })
            .with_sw_conf(
                SwConf::new("model-car")
                    .with_placement(PluginId::new("COM"), EcuId::new(1))
                    .with_placement(PluginId::new("OP"), EcuId::new(2))
                    .with_connection(
                        PluginId::new("COM"),
                        "wheels_ext",
                        ConnectionDecl::External {
                            endpoint: "phone".into(),
                            message_id: "Wheels".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("COM"),
                        "speed_ext",
                        ConnectionDecl::External {
                            endpoint: "phone".into(),
                            message_id: "Speed".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("COM"),
                        "wheels_fwd",
                        ConnectionDecl::RemotePlugin {
                            plugin: PluginId::new("OP"),
                            port: "wheels_in".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("COM"),
                        "speed_fwd",
                        ConnectionDecl::RemotePlugin {
                            plugin: PluginId::new("OP"),
                            port: "speed_in".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("OP"),
                        "wheels_out",
                        ConnectionDecl::VirtualPort {
                            name: "WheelsReq".into(),
                        },
                    )
                    .with_connection(
                        PluginId::new("OP"),
                        "speed_out",
                        ConnectionDecl::VirtualPort {
                            name: "SpeedReq".into(),
                        },
                    ),
            )
    }

    fn server_with_vehicle() -> (TrustedServer, UserId, VehicleId) {
        let mut server = TrustedServer::new();
        let user = UserId::new("alice");
        let vehicle = VehicleId::new("VIN-1");
        server.create_user(user.clone()).unwrap();
        server
            .register_vehicle(vehicle.clone(), hw_conf(), system_conf())
            .unwrap();
        server.bind_vehicle(&user, &vehicle).unwrap();
        server.upload_app(remote_control_app()).unwrap();
        (server, user, vehicle)
    }

    fn ack(plugin: &str, app: &str, ecu: u16, status: AckStatus) -> Vec<u8> {
        ManagementMessage::Ack(Ack {
            plugin: PluginId::new(plugin),
            app: AppId::new(app),
            ecu: EcuId::new(ecu),
            status,
        })
        .to_bytes()
    }

    #[test]
    fn user_setup_operations() {
        let mut server = TrustedServer::new();
        let user = UserId::new("alice");
        server.create_user(user.clone()).unwrap();
        assert!(server.create_user(user.clone()).is_err());
        assert!(server
            .bind_vehicle(&user, &VehicleId::new("VIN-9"))
            .is_err());
    }

    #[test]
    fn plan_generates_the_paper_contexts() {
        let (server, _user, vehicle) = server_with_vehicle();
        let packages = server
            .plan_deployment(&vehicle, &AppId::new("remote-control"))
            .unwrap();
        assert_eq!(packages.len(), 2);

        let (com_ecu, com) = &packages[0];
        assert_eq!(*com_ecu, EcuId::new(1));
        assert_eq!(com.plugin, PluginId::new("COM"));
        // COM's PLC: P0-, P1-, P2-V0.P0, P3-V0.P1 (as in §4).
        assert_eq!(
            com.context.plc.target_of(PluginPortId::new(0)),
            LinkTarget::Direct
        );
        assert_eq!(
            com.context.plc.target_of(PluginPortId::new(2)),
            LinkTarget::RemotePluginPort {
                via: VirtualPortId::new(0),
                remote: PluginPortId::new(0),
            }
        );
        let ecc = com.context.ecc.as_ref().unwrap();
        assert_eq!(ecc.route_for("Wheels").unwrap().ecu, EcuId::new(1));

        let (op_ecu, op) = &packages[1];
        assert_eq!(*op_ecu, EcuId::new(2));
        // OP's PLC: P0-V3... wait: wheels_in/speed_in are fed through the
        // remote link, so only the outputs are listed: P2-V4, P3-V5.
        assert_eq!(
            op.context.plc.target_of(PluginPortId::new(2)),
            LinkTarget::VirtualPort(VirtualPortId::new(4))
        );
        assert_eq!(
            op.context.plc.target_of(PluginPortId::new(3)),
            LinkTarget::VirtualPort(VirtualPortId::new(5))
        );
        assert!(op.context.ecc.is_none());
    }

    #[test]
    fn incompatible_vehicles_are_rejected_with_reasons() {
        let (mut server, user, _vehicle) = server_with_vehicle();
        // A truck with a different model name and only one ECU.
        let truck = VehicleId::new("VIN-2");
        server
            .register_vehicle(
                truck.clone(),
                HwConf::new().with_ecu(EcuId::new(1), 64),
                SystemSwConf::new("truck"),
            )
            .unwrap();
        server.bind_vehicle(&user, &truck).unwrap();
        let err = server
            .deploy(&user, &truck, &AppId::new("remote-control"))
            .unwrap_err();
        assert!(matches!(err, DynarError::Incompatible(_)));
        assert!(err.is_deployment_rejection());
    }

    #[test]
    fn memory_requirement_is_checked() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let mut app = remote_control_app();
        app.id = AppId::new("heavy");
        app.sw_confs[0].min_memory_kb = 100_000;
        server.upload_app(app).unwrap();
        let err = server
            .deploy(&user, &vehicle, &AppId::new("heavy"))
            .unwrap_err();
        assert!(matches!(err, DynarError::Incompatible(_)));
    }

    #[test]
    fn deploy_pushes_packages_and_acks_complete_installation() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        let pushed = server.deploy(&user, &vehicle, &app).unwrap();
        assert_eq!(pushed, 2);
        assert_eq!(server.poll_downlink(&vehicle).len(), 2);
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ));

        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Installed
        );
        assert_eq!(server.installed_apps(&vehicle), vec![app.clone()]);

        // A second deployment of the same app is rejected.
        assert!(server.deploy(&user, &vehicle, &app).is_err());
    }

    #[test]
    fn failed_acks_mark_the_deployment_failed() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack(
                    "OP",
                    "remote-control",
                    2,
                    AckStatus::Failed("no memory".into()),
                ),
            )
            .unwrap();
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Failed(reason) if reason.contains("no memory")
        ));
        assert!(server.installed_apps(&vehicle).is_empty());
    }

    #[test]
    fn dependencies_and_conflicts_are_enforced() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let base = AppId::new("remote-control");

        let dependent = AppDefinition::new(AppId::new("autopark"))
            .with_dependency(base.clone())
            .with_plugin(PluginArtifact {
                id: PluginId::new("PARK"),
                binary: binary("PARK"),
                ports: vec![],
            })
            .with_sw_conf(
                SwConf::new("model-car").with_placement(PluginId::new("PARK"), EcuId::new(2)),
            );
        let conflicting = AppDefinition::new(AppId::new("race-mode"))
            .with_conflict(base.clone())
            .with_plugin(PluginArtifact {
                id: PluginId::new("RACE"),
                binary: binary("RACE"),
                ports: vec![],
            })
            .with_sw_conf(
                SwConf::new("model-car").with_placement(PluginId::new("RACE"), EcuId::new(2)),
            );
        server.upload_app(dependent).unwrap();
        server.upload_app(conflicting).unwrap();

        // Dependency missing: autopark needs remote-control first.
        assert!(matches!(
            server
                .deploy(&user, &vehicle, &AppId::new("autopark"))
                .unwrap_err(),
            DynarError::MissingDependency { .. }
        ));

        // Install the base app.
        server.deploy(&user, &vehicle, &base).unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();

        // Now the dependent app deploys, and the conflicting one is rejected.
        server
            .deploy(&user, &vehicle, &AppId::new("autopark"))
            .unwrap();
        server
            .process_uplink(&vehicle, &ack("PARK", "autopark", 2, AckStatus::Installed))
            .unwrap();
        assert!(matches!(
            server
                .deploy(&user, &vehicle, &AppId::new("race-mode"))
                .unwrap_err(),
            DynarError::PluginConflict { .. }
        ));

        // Uninstalling the base app is blocked while autopark depends on it.
        assert!(matches!(
            server.uninstall(&user, &vehicle, &base).unwrap_err(),
            DynarError::DependentsExist { .. }
        ));

        // Remove the dependent first, then the base app.
        server
            .uninstall(&user, &vehicle, &AppId::new("autopark"))
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("PARK", "autopark", 2, AckStatus::Uninstalled),
            )
            .unwrap();
        let pushed = server.uninstall(&user, &vehicle, &base).unwrap();
        assert_eq!(pushed, 2);
    }

    #[test]
    fn port_ids_stay_unique_across_successive_installs() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let base = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &base).unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();

        // A second app placed on ECU 2 must not reuse P0-P3.
        let extra = AppDefinition::new(AppId::new("logger"))
            .with_plugin(PluginArtifact {
                id: PluginId::new("LOG"),
                binary: binary("LOG"),
                ports: vec![PluginPortDecl {
                    name: "speed_tap".into(),
                    direction: PluginPortDirection::Required,
                }],
            })
            .with_sw_conf(
                SwConf::new("model-car")
                    .with_placement(PluginId::new("LOG"), EcuId::new(2))
                    .with_connection(
                        PluginId::new("LOG"),
                        "speed_tap",
                        ConnectionDecl::VirtualPort {
                            name: "SpeedReq".into(),
                        },
                    ),
            );
        server.upload_app(extra).unwrap();
        let packages = server
            .plan_deployment(&vehicle, &AppId::new("logger"))
            .unwrap();
        let pic = &packages[0].1.context.pic;
        assert_eq!(
            pic.ports()[0].id,
            PluginPortId::new(4),
            "continues after P0-P3"
        );
    }

    #[test]
    fn restore_repushes_packages_for_a_replaced_ecu() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let base = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &base).unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        server.poll_downlink(&vehicle);

        let pushed = server.restore(&vehicle, EcuId::new(2)).unwrap();
        assert_eq!(pushed, 1, "only the OP plug-in lived on ECU2");
        assert_eq!(server.poll_downlink(&vehicle).len(), 1);
        assert_eq!(server.restore(&vehicle, EcuId::new(7)).unwrap(), 0);
    }

    #[test]
    fn ownership_is_required_for_deploy_and_uninstall() {
        let (mut server, _user, vehicle) = server_with_vehicle();
        let mallory = UserId::new("mallory");
        server.create_user(mallory.clone()).unwrap();
        assert!(server
            .deploy(&mallory, &vehicle, &AppId::new("remote-control"))
            .is_err());
    }

    #[test]
    fn unacked_packages_are_retransmitted_with_the_same_sequence_id() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 10,
            max_attempts: 3,
        });
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        let first: Vec<_> = server.poll_downlink(&vehicle);
        assert_eq!(first.len(), 2);

        // Before the deadline nothing moves.
        assert!(server.tick(dynar_foundation::time::Tick::new(9)).is_empty());
        assert!(server.poll_downlink(&vehicle).is_empty());

        // At the deadline both packages are pushed again, byte-identical
        // (same sequence ids), so the ECM can deduplicate.
        assert!(server
            .tick(dynar_foundation::time::Tick::new(10))
            .is_empty());
        let retried = server.poll_downlink(&vehicle);
        assert_eq!(retried, first);
        assert_eq!(server.outstanding_count(&vehicle), 2);
    }

    #[test]
    fn acks_settle_the_outstanding_state() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server.poll_downlink(&vehicle);
        assert_eq!(server.outstanding_count(&vehicle), 2);
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(server.outstanding_count(&vehicle), 1);
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(server.outstanding_count(&vehicle), 0);
        // Once acked, deadlines can come and go without retransmissions.
        assert!(server
            .tick(dynar_foundation::time::Tick::new(1000))
            .is_empty());
        assert!(server.poll_downlink(&vehicle).is_empty());
    }

    #[test]
    fn exhausted_retries_escalate_into_a_typed_failure() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 5,
            max_attempts: 2,
        });
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        assert_eq!(server.retry_horizon_ticks(), 10);

        // One ack arrives; the other package dies on the link forever.
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();

        // First deadline: retransmission (attempt 2 of 2).
        assert!(server.tick(dynar_foundation::time::Tick::new(5)).is_empty());
        // Second deadline: the budget is spent — escalate.
        let failures = server.tick(dynar_foundation::time::Tick::new(10));
        assert_eq!(failures.len(), 1);
        let failure = &failures[0];
        assert_eq!(failure.vehicle, vehicle);
        assert_eq!(failure.app, app);
        assert_eq!(failure.plugin, PluginId::new("OP"));
        assert!(matches!(
            failure.error,
            DynarError::RetryExhausted { attempts: 2, .. }
        ));

        // The operation resolves as failed — no silent hang, no pending op.
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Failed(reason) if reason.contains("retry budget exhausted")
        ));
        assert!(server.pending_operations(&vehicle).is_empty());
        assert_eq!(server.outstanding_count(&vehicle), 0);
        assert!(server.installed_apps(&vehicle).is_empty());

        // The failure is not sticky: a fresh deploy is accepted.
        server.deploy(&user, &vehicle, &app).unwrap();
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ));
    }

    #[test]
    fn the_rtt_estimator_starts_at_the_deadline_and_smooths_toward_a_steady_rtt() {
        let policy = RetryPolicy::default();
        let mut rtt = RttEstimator::default();
        assert_eq!(rtt.rto(&policy), 25, "no sample yet: the policy deadline");

        // First sample R: SRTT = R, RTTVAR = R/2, RTO = R + 4·R/2.
        rtt.sample(6);
        assert_eq!((rtt.srtt, rtt.rttvar), (6 * 8, 3 * 4));
        assert_eq!(rtt.rto(&policy), 18);

        // A steady round trip keeps SRTT and shrinks RTTVAR to its integer
        // floor, so the timeout settles a few ticks above the round trip.
        for _ in 0..50 {
            rtt.sample(6);
        }
        assert_eq!(rtt.srtt >> 3, 6);
        assert_eq!(rtt.rto(&policy), 9);

        // A new steady round trip pulls SRTT over to it.
        for _ in 0..100 {
            rtt.sample(10);
        }
        assert_eq!(rtt.srtt >> 3, 10);
        assert_eq!(rtt.rto(&policy), 13);
    }

    #[test]
    fn the_rto_is_clamped_between_the_floor_and_the_policy_deadline() {
        let policy = RetryPolicy {
            ack_deadline_ticks: 10,
            max_attempts: 3,
        };
        // Samples never read below one tick, so SRTT never falls below it.
        let mut rtt = RttEstimator::default();
        for _ in 0..50 {
            rtt.sample(0);
        }
        assert_eq!(rtt.srtt, 8);
        assert!(rtt.rto(&policy) >= MIN_RTO_TICKS);
        // Below a tick (reachable only through decoded state) the floor binds.
        let sub_tick = RttEstimator { srtt: 4, rttvar: 0 };
        assert_eq!(sub_tick.rto(&policy), MIN_RTO_TICKS);
        // A slow link cannot push the timeout past the policy deadline ...
        let mut slow = RttEstimator::default();
        slow.sample(40);
        assert_eq!(slow.rto(&policy), 10);
        // ... and a deadline below the floor wins over the floor.
        let tight = RetryPolicy {
            ack_deadline_ticks: 1,
            max_attempts: 3,
        };
        assert_eq!(sub_tick.rto(&tight), 1);
        assert_eq!(slow.rto(&tight), 1);
    }

    /// Deploys the remote-control app at `now` and acknowledges both of its
    /// packages `rtt` ticks later, at their first attempt.
    fn install_with_round_trip(
        server: &mut TrustedServer,
        user: &UserId,
        vehicle: &VehicleId,
        now: u64,
        rtt: u64,
    ) {
        let app = AppId::new("remote-control");
        server.tick(tick(now));
        server.deploy(user, vehicle, &app).unwrap();
        server.poll_downlink(vehicle);
        server.tick(tick(now + rtt));
        for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
            server
                .process_uplink(
                    vehicle,
                    &ack(plugin, "remote-control", ecu, AckStatus::Installed),
                )
                .unwrap();
        }
        assert_eq!(
            server.deployment_status(vehicle, &app),
            DeploymentStatus::Installed
        );
    }

    #[test]
    fn first_attempt_acks_sample_the_round_trip_and_arm_the_next_push() {
        let (mut server, user, vehicle) = server_with_vehicle();
        assert_eq!(server.rto_ticks(&vehicle), Some(25));
        assert_eq!(server.rto_ticks(&VehicleId::new("VIN-UNKNOWN")), None);
        install_with_round_trip(&mut server, &user, &vehicle, 0, 3);
        // Two samples of 3 ticks: SRTT 3, and 4·RTTVAR 6 after the first,
        // 5 (its integer 3/4) after the second, so the timeout reads 3 + 5.
        assert_eq!(server.rto_ticks(&vehicle), Some(8));

        // The next push is due one RTO after it left, not 25 ticks after.
        server
            .uninstall(&user, &vehicle, &AppId::new("remote-control"))
            .unwrap();
        let pushed = server.poll_downlink(&vehicle);
        assert_eq!(pushed.len(), 2);
        server.tick(tick(10));
        assert!(server.poll_downlink(&vehicle).is_empty());
        server.tick(tick(11));
        assert_eq!(server.poll_downlink(&vehicle), pushed);
    }

    /// Karn's rule: an ack that settles a retransmitted entry may answer any
    /// of its copies, so it leaves the estimator as it was.
    #[test]
    fn acks_of_retransmitted_packages_leave_the_estimator_unchanged() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 10,
            max_attempts: 3,
        });
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server.poll_downlink(&vehicle);
        server.tick(tick(10));
        assert_eq!(server.poll_downlink(&vehicle).len(), 2, "retransmitted");
        server.tick(tick(12));
        for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
            server
                .process_uplink(
                    &vehicle,
                    &ack(plugin, "remote-control", ecu, AckStatus::Installed),
                )
                .unwrap();
        }
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Installed
        );
        assert_eq!(server.rto_ticks(&vehicle), Some(10), "still unsampled");
        assert_eq!(server.vehicles[&vehicle].rtt, RttEstimator::default());
    }

    #[test]
    fn retransmissions_back_off_exponentially_up_to_the_policy_deadline() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 20,
            max_attempts: 5,
        });
        install_with_round_trip(&mut server, &user, &vehicle, 0, 2);
        let rto = server.rto_ticks(&vehicle).unwrap();
        assert!(rto <= 5, "a 2-tick link measures a short timeout: {rto}");

        // The uninstall's packages are never acknowledged.
        server
            .uninstall(&user, &vehicle, &AppId::new("remote-control"))
            .unwrap();
        server.poll_downlink(&vehicle);
        let mut sends = vec![2];
        let mut escalated = None;
        for now in 3..=200 {
            let failures = server.tick(tick(now));
            if !server.poll_downlink(&vehicle).is_empty() {
                sends.push(now);
            }
            if !failures.is_empty() {
                escalated = Some(now);
                break;
            }
        }
        let waits: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(waits.len(), 4, "attempts 2 to 5: {sends:?}");
        assert_eq!(waits[0], rto, "first wait: the measured timeout");
        for (k, wait) in waits.iter().enumerate() {
            assert_eq!(*wait, (rto << k).min(20), "wait {k}: {waits:?}");
        }
        let escalated = escalated.expect("the budget ran out");
        assert!(escalated - 2 <= server.retry_horizon_ticks());
    }

    #[test]
    fn bringing_a_parked_vehicle_online_rearms_with_its_rto() {
        let (mut server, user, vehicle) = server_with_vehicle();
        install_with_round_trip(&mut server, &user, &vehicle, 0, 3);
        let rto = server.rto_ticks(&vehicle).unwrap();
        assert!(rto < 25);
        server
            .uninstall(&user, &vehicle, &AppId::new("remote-control"))
            .unwrap();
        server.poll_downlink(&vehicle);

        server.mark_offline(&vehicle);
        server.tick(tick(1_000));
        server.mark_online(&vehicle, 0).unwrap();
        server.tick(tick(1_000 + rto - 1));
        assert!(server.poll_downlink(&vehicle).is_empty());
        server.tick(tick(1_000 + rto));
        assert_eq!(server.poll_downlink(&vehicle).len(), 2);
    }

    /// An entry parked at its first attempt and acknowledged after the
    /// vehicle returns measures the parked time too: the sample is capped at
    /// the policy deadline, so it moves the estimator by a bounded step.
    #[test]
    fn a_parked_first_attempt_samples_at_most_the_policy_deadline() {
        let (mut server, user, vehicle) = server_with_vehicle();
        install_with_round_trip(&mut server, &user, &vehicle, 0, 3);
        server
            .uninstall(&user, &vehicle, &AppId::new("remote-control"))
            .unwrap();
        server.poll_downlink(&vehicle);
        server.mark_offline(&vehicle);
        server.tick(tick(1_000));
        server.mark_online(&vehicle, 0).unwrap();
        for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
            server
                .process_uplink(
                    &vehicle,
                    &ack(plugin, "remote-control", ecu, AckStatus::Uninstalled),
                )
                .unwrap();
        }
        // Two capped samples of 25 after SRTT 3: SRTT ≈ 3 + 2 · 22/8 ticks.
        let srtt = server.vehicles[&vehicle].rtt.srtt >> 3;
        assert!((6..=9).contains(&srtt), "{srtt}");
    }

    /// Regression: the ECM's own failure acks (e.g. "no route to ECU")
    /// carry an empty app id.  They must settle both the outstanding
    /// retransmission state *and* the pending operation — clearing only the
    /// former would leave the operation pending forever with nothing left
    /// to retransmit or escalate.
    #[test]
    fn empty_app_failure_acks_resolve_the_pending_operation() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();

        // The ECM reports it cannot reach OP's ECU, without knowing the app.
        server
            .process_uplink(
                &vehicle,
                &ack(
                    "OP",
                    "",
                    1,
                    AckStatus::Failed("ECM has no route to ECU2".into()),
                ),
            )
            .unwrap();

        assert_eq!(server.outstanding_count(&vehicle), 0);
        assert!(server.pending_operations(&vehicle).is_empty(), "no hang");
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Failed(reason) if reason.contains("no route")
        ));
        // Nothing left to retransmit at any later deadline.
        assert!(server
            .tick(dynar_foundation::time::Tick::new(1000))
            .is_empty());
    }

    #[test]
    fn sequence_ids_increase_monotonically_per_vehicle() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        let seqs: Vec<u64> = server
            .poll_downlink(&vehicle)
            .iter()
            .map(|bytes| DownlinkEnvelope::from_bytes(bytes).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1]);

        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        server.uninstall(&user, &vehicle, &app).unwrap();
        let seqs: Vec<u64> = server
            .poll_downlink(&vehicle)
            .iter()
            .map(|bytes| DownlinkEnvelope::from_bytes(bytes).unwrap().seq)
            .collect();
        assert_eq!(seqs.len(), 2);
        assert!(seqs.iter().all(|&s| s >= 2), "fresh ids, never reused");
    }

    #[test]
    fn uplink_must_be_an_ack() {
        let (mut server, _user, vehicle) = server_with_vehicle();
        let not_ack = ManagementMessage::Stop {
            plugin: PluginId::new("COM"),
        }
        .to_bytes();
        assert!(server.process_uplink(&vehicle, &not_ack).is_err());
        assert!(server.process_uplink(&vehicle, &[1, 2]).is_err());
    }

    fn tick(n: u64) -> dynar_foundation::time::Tick {
        dynar_foundation::time::Tick::new(n)
    }

    fn state_report(epoch: u32, plugins: Vec<(&str, &str, u16)>) -> Vec<u8> {
        ManagementMessage::StateReport {
            boot_epoch: epoch,
            plugins: plugins
                .into_iter()
                .map(|(plugin, app, ecu)| (PluginId::new(plugin), AppId::new(app), EcuId::new(ecu)))
                .collect(),
        }
        .to_bytes()
    }

    /// Regression (satellite): a `Failed` deployment record must never be
    /// terminal.  After a partial failure — one plug-in acknowledged, the
    /// other's retry budget exhausted — re-issuing the install must clear the
    /// stale record, produce a fresh `Pending` operation and converge once
    /// the vehicle acknowledges (the vehicle-side management path replaces
    /// the half-installed plug-in instead of rejecting a duplicate).
    #[test]
    fn redeploy_after_a_partial_retry_failure_yields_a_fresh_pending_op() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 5,
            max_attempts: 2,
        });
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();

        // COM installs fine; OP's link is dead until the budget runs out.
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server.tick(tick(5));
        let failures = server.tick(tick(10));
        assert_eq!(failures.len(), 1);
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Failed(_)
        ));

        // Re-issuing the install clears the stale failure and goes Pending.
        server.deploy(&user, &vehicle, &app).unwrap();
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ));

        // Both plug-ins acknowledge (COM as a replacement install) and the
        // operation converges — the earlier failure left nothing sticky.
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Installed
        );
        assert_eq!(server.outstanding_count(&vehicle), 0);
    }

    #[test]
    fn mark_online_reports_an_unknown_vehicle() {
        let (mut server, _, _) = server_with_vehicle();
        let error = server
            .mark_online(&VehicleId::new("VIN-UNKNOWN"), 0)
            .unwrap_err();
        assert!(matches!(error, DynarError::NotFound { .. }), "{error}");
    }

    /// Regression (satellite): with the vehicle's endpoint gone, the server
    /// used to keep retransmitting until the budget exhausted with a
    /// misleading "retry budget exhausted" reason.  Parking the vehicle
    /// freezes the deadlines; bringing it back re-arms them and converges.
    #[test]
    fn offline_vehicles_park_instead_of_burning_the_retry_budget() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 10,
            max_attempts: 3,
        });
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server.poll_downlink(&vehicle);

        server.mark_offline(&vehicle);
        assert!(!server.is_online(&vehicle));
        // Far past the whole retry horizon: nothing escalates, nothing moves.
        assert!(server.tick(tick(1_000)).is_empty());
        assert!(server.poll_downlink(&vehicle).is_empty(), "queue is parked");
        assert_eq!(server.outstanding_count(&vehicle), 2);
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ));

        // Back online (same epoch): deadlines re-arm relative to now and the
        // packages retransmit with their original sequence ids.
        server.mark_online(&vehicle, 0).unwrap();
        assert!(server.is_online(&vehicle));
        assert!(server.tick(tick(1_010)).is_empty());
        let retried = server.poll_downlink(&vehicle);
        assert_eq!(retried.len(), 2);
        let seqs: Vec<u64> = retried
            .iter()
            .map(|bytes| DownlinkEnvelope::from_bytes(bytes).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1], "same ids — the gateway deduplicates");
    }

    /// Regression (satellite): a permanently removed vehicle fails fast with
    /// the distinct `VehicleUnreachable` reason instead of burning the retry
    /// budget and reporting "retry budget exhausted".
    #[test]
    fn unreachable_vehicles_fail_fast_with_a_distinct_reason() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();

        let failures = server.mark_unreachable(&vehicle);
        assert_eq!(failures.len(), 2);
        assert!(failures
            .iter()
            .all(|f| matches!(f.error, DynarError::VehicleUnreachable { .. })));
        assert!(server.pending_operations(&vehicle).is_empty());
        assert_eq!(server.outstanding_count(&vehicle), 0);
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Failed(reason) if reason.contains("unreachable")
        ));
        // Nothing left to retransmit or escalate at any later tick.
        assert!(server.tick(tick(10_000)).is_empty());
        assert!(server.poll_downlink(&vehicle).is_empty());
    }

    #[test]
    fn desired_state_reconciliation_converges_up_and_down() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");

        // Declaring the app pushes its packages and goes Pending.
        let pushed = server.set_desired(&user, &vehicle, &app).unwrap();
        assert_eq!(pushed, 2);
        assert_eq!(server.desired_manifest(&vehicle), vec![app.clone()]);
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ));
        // Re-declaring while in flight is a no-op.
        assert_eq!(server.set_desired(&user, &vehicle, &app).unwrap(), 0);

        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Installed
        );
        // Declaring an installed app pushes nothing.
        assert_eq!(server.set_desired(&user, &vehicle, &app).unwrap(), 0);

        // Withdrawing it reconciles down to an uninstall.
        let pushed = server.clear_desired(&user, &vehicle, &app).unwrap();
        assert_eq!(pushed, 2);
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Uninstalled),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Uninstalled),
            )
            .unwrap();
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::NotInstalled
        );
        assert!(server.desired_manifest(&vehicle).is_empty());
    }

    /// The reboot-recovery path: a state report with a newer boot epoch voids
    /// the old epoch's bookkeeping (the ECM's volatile state is gone) and the
    /// reconciliation re-issues the manifest under the new epoch.
    #[test]
    fn a_rebooted_vehicles_state_report_resyncs_and_reinstalls() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server.poll_downlink(&vehicle);
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Installed
        );

        // The vehicle reboots and announces an empty epoch-1 inventory.
        server.mark_offline(&vehicle);
        server
            .process_uplink(&vehicle, &state_report(1, vec![]))
            .unwrap();
        assert!(server.is_online(&vehicle));
        assert_eq!(server.vehicle_boot_epoch(&vehicle), Some(1));
        assert!(
            matches!(
                server.deployment_status(&vehicle, &app),
                DeploymentStatus::Pending { .. }
            ),
            "the manifest re-issues the install from truth"
        );
        let downlinks = server.poll_downlink(&vehicle);
        assert_eq!(downlinks.len(), 2);
        for bytes in &downlinks {
            let envelope = DownlinkEnvelope::from_bytes(bytes).unwrap();
            assert_eq!(envelope.boot_epoch, 1, "stamped with the new epoch");
        }

        // A stale epoch-0 report straggling in afterwards changes nothing.
        server
            .process_uplink(&vehicle, &state_report(0, vec![]))
            .unwrap();
        assert_eq!(server.vehicle_boot_epoch(&vehicle), Some(1));
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Pending { .. }
        ));
    }

    /// Plug-ins the vehicle reports but nothing accounts for (their app is
    /// neither desired, observed nor in flight) are orphans: the resync
    /// pushes tracked uninstalls so the vehicle converges *down* to the
    /// manifest too.
    #[test]
    fn orphan_plugins_in_a_state_report_are_uninstalled() {
        let (mut server, _user, vehicle) = server_with_vehicle();
        server
            .process_uplink(
                &vehicle,
                &state_report(0, vec![("GHOST", "retired-app", 2)]),
            )
            .unwrap();
        assert_eq!(server.outstanding_count(&vehicle), 1);
        let downlinks = server.poll_downlink(&vehicle);
        assert_eq!(downlinks.len(), 1);
        let envelope = DownlinkEnvelope::from_bytes(&downlinks[0]).unwrap();
        assert_eq!(envelope.target, EcuId::new(2));
        assert!(matches!(
            envelope.message,
            ManagementMessage::Uninstall { plugin } if plugin == PluginId::new("GHOST")
        ));

        // The vehicle confirms; the orphan bookkeeping settles.
        server
            .process_uplink(
                &vehicle,
                &ack("GHOST", "retired-app", 2, AckStatus::Uninstalled),
            )
            .unwrap();
        assert_eq!(server.outstanding_count(&vehicle), 0);
    }

    /// A rebooted vehicle with nothing desired still needs an own-epoch
    /// downlink, or its gateway re-announces forever: the resync answers an
    /// unsolicited report that produced no downlink with a state-report
    /// request (whose reply is marked solicited, so this cannot ping-pong).
    #[test]
    fn an_empty_resync_confirms_the_epoch_with_a_request() {
        let (mut server, _user, vehicle) = server_with_vehicle();
        server
            .process_uplink(&vehicle, &state_report(1, vec![]))
            .unwrap();
        let downlinks = server.poll_downlink(&vehicle);
        assert_eq!(downlinks.len(), 1, "exactly the confirmation request");
        let envelope = DownlinkEnvelope::from_bytes(&downlinks[0]).unwrap();
        assert_eq!(envelope.boot_epoch, 1, "carries the new epoch");
        assert!(matches!(
            envelope.message,
            ManagementMessage::StateReportRequest
        ));

        // The gateway's reply is solicited: no further request is queued.
        server
            .process_uplink(&vehicle, &state_report(1, vec![]))
            .unwrap();
        assert!(server.poll_downlink(&vehicle).is_empty(), "no ping-pong");

        // The next *unsolicited* announce (a lost confirmation makes the
        // gateway retry) is answered again.
        server
            .process_uplink(&vehicle, &state_report(1, vec![]))
            .unwrap();
        assert_eq!(server.poll_downlink(&vehicle).len(), 1);
    }

    /// An epoch bump voids old-epoch failure outcomes along with the rest of
    /// the bookkeeping: a non-desired app whose uninstall retry-exhausted
    /// before the reboot must not stay `Failed` forever on a vehicle that
    /// demonstrably no longer has it.
    #[test]
    fn a_reboot_clears_stale_failure_records() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.set_retry_policy(RetryPolicy {
            ack_deadline_ticks: 5,
            max_attempts: 1,
        });
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        // The uninstall dies on the link and the app is no longer desired.
        server.uninstall(&user, &vehicle, &app).unwrap();
        assert!(!server.tick(tick(100)).is_empty());
        assert!(matches!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::Failed(_)
        ));

        // The vehicle reboots with an empty inventory: the stale failure is
        // void — the plug-ins are gone with the old epoch.
        server
            .process_uplink(&vehicle, &state_report(1, vec![]))
            .unwrap();
        assert_eq!(
            server.deployment_status(&vehicle, &app),
            DeploymentStatus::NotInstalled
        );
    }

    #[test]
    fn state_report_requests_are_queued_towards_the_ecm() {
        let (mut server, _user, vehicle) = server_with_vehicle();
        server.request_state_report(&vehicle).unwrap();
        let downlinks = server.poll_downlink(&vehicle);
        assert_eq!(downlinks.len(), 1);
        let envelope = DownlinkEnvelope::from_bytes(&downlinks[0]).unwrap();
        assert_eq!(envelope.target, EcuId::new(1), "addressed to the ECM ECU");
        assert!(matches!(
            envelope.message,
            ManagementMessage::StateReportRequest
        ));
        assert!(server
            .request_state_report(&VehicleId::new("ghost"))
            .is_err());
    }

    // ------------------------------------------------------------------
    // Durability plane
    // ------------------------------------------------------------------

    /// A state-transition workout touching every journaled code path:
    /// pushes, acks, retransmissions, park/unpark, resync, a failing call.
    fn durability_workout(server: &mut TrustedServer, user: &UserId, vehicle: &VehicleId) {
        let app = AppId::new("remote-control");
        server.deploy(user, vehicle, &app).unwrap();
        let _ = server.poll_downlink(vehicle);
        server
            .process_uplink(
                vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        let _ = server.tick(Tick::new(25));
        let _ = server.poll_downlink(vehicle);
        server.mark_offline(vehicle);
        server.mark_online(vehicle, 0).unwrap();
        server
            .process_uplink(
                vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                vehicle,
                &state_report(
                    0,
                    vec![("COM", "remote-control", 1), ("OP", "remote-control", 2)],
                ),
            )
            .unwrap();
        // A rejected command is journaled too: replay reproduces the same
        // rejection, changing nothing — a failure replays for free.
        assert!(server.deploy(user, vehicle, &app).is_err());
        let _ = server.restore(vehicle, EcuId::new(2));
        let _ = server.poll_downlink(vehicle);
        let _ = server.tick(Tick::new(26));
    }

    #[test]
    fn journal_replay_reconstructs_the_server_byte_for_byte() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.enable_journal(1024);
        durability_workout(&mut server, &user, &vehicle);

        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
        assert_eq!(replayed.ledger(), server.ledger());
        assert_eq!(
            replayed.installed_apps(&vehicle),
            vec![AppId::new("remote-control")]
        );
    }

    #[test]
    fn journal_compaction_preserves_replay_identity() {
        let (mut server, user, vehicle) = server_with_vehicle();
        // An aggressive interval forces several compactions mid-workout.
        server.enable_journal(2);
        durability_workout(&mut server, &user, &vehicle);

        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
        assert_eq!(replayed.ledger(), server.ledger());
    }

    #[test]
    fn journaling_can_start_mid_life() {
        let (mut server, user, vehicle) = server_with_vehicle();
        // Pre-journal history lands in the seed snapshot, not in records.
        server
            .deploy(&user, &vehicle, &AppId::new("remote-control"))
            .unwrap();
        server.enable_journal(1024);
        let _ = server.poll_downlink(&vehicle);
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();

        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
    }

    #[test]
    fn corrupted_journals_are_typed_errors_not_panics() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.enable_journal(1024);
        durability_workout(&mut server, &user, &vehicle);
        let mut bytes = server.journal_bytes().unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            TrustedServer::replay(&bytes),
            Err(DynarError::ProtocolViolation(_))
        ));
        assert!(matches!(
            TrustedServer::replay(&bytes[..bytes.len() - 4]),
            Err(DynarError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn untrusted_list_counts_are_rejected_before_any_item() {
        // A snapshot frame, `[TAG_SNAPSHOT = 0, state]`, whose vehicle list
        // claims `u32::MAX` entries and then ends.
        let mut payload = Vec::new();
        codec::encode_list_header(2, &mut payload);
        codec::encode_i64(0, &mut payload);
        codec::encode_list_header(8, &mut payload);
        codec::encode_i64(0, &mut payload);
        codec::encode_i64(0, &mut payload);
        codec::encode_list_header(2, &mut payload);
        codec::encode_i64(10, &mut payload);
        codec::encode_i64(3, &mut payload);
        codec::encode_list_header(0, &mut payload);
        codec::encode_list_header(0, &mut payload);
        codec::encode_list_header(u32::MAX as usize, &mut payload);
        let mut journal = Vec::new();
        dynar_foundation::journal::append_frame(&mut journal, &payload);
        let error = TrustedServer::replay(&journal).unwrap_err();
        assert!(
            matches!(&error, DynarError::ProtocolViolation(reason) if reason.contains("4294967295 items")),
            "{error:?}"
        );
    }

    #[test]
    fn file_journal_survives_a_torn_tail() {
        let path = std::env::temp_dir().join(format!(
            "dynar-journal-torn-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let (mut server, user, vehicle) = server_with_vehicle();
        // fsync every 4 appends: the batched path and the unsynced tail are
        // both exercised by the workout.
        server.enable_journal_file(&path, 1024, 4).unwrap();
        durability_workout(&mut server, &user, &vehicle);

        // The mirrored file replays to the same bytes as the in-memory
        // journal.
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, server.journal_bytes().unwrap());
        let (recovered, clean) = TrustedServer::replay_recover(&on_disk).unwrap();
        assert_eq!(clean, on_disk.len());
        assert_eq!(recovered.snapshot_bytes(), server.snapshot_bytes());

        // Crash mid-append: the tail frame is half-written.  Recovery
        // replays the clean prefix and reports where it ends.
        let torn = &on_disk[..on_disk.len() - 3];
        let (recovered, clean) = TrustedServer::replay_recover(torn).unwrap();
        assert!(clean < torn.len());
        let (clean_server, reclean) = TrustedServer::replay_recover(&on_disk[..clean]).unwrap();
        assert_eq!(reclean, clean, "the clean prefix is wholly intact");
        assert_eq!(recovered.snapshot_bytes(), clean_server.snapshot_bytes());

        // An intact-but-malformed frame is corruption, not a torn tail.
        let mut corrupted = Vec::new();
        dynar_foundation::journal::append_frame(&mut corrupted, &[0xFF, 0xFE]);
        assert!(matches!(
            TrustedServer::replay_recover(&corrupted),
            Err(DynarError::ProtocolViolation(_))
        ));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_a_failing_last_frame_is_a_torn_tail() {
        let (mut server, user, vehicle) = server_with_vehicle();
        server.enable_journal(1024);
        durability_workout(&mut server, &user, &vehicle);
        let journal = server.journal_bytes().unwrap().to_vec();
        let mut offsets = Vec::new();
        let mut reader = FrameReader::new(&journal);
        while reader.next_frame().unwrap().is_some() {
            offsets.push(reader.offset());
        }
        assert!(offsets.len() > 10, "{} frames", offsets.len());
        let header = dynar_foundation::journal::FRAME_HEADER_LEN;

        // A bit flip in the fifth frame's payload, with frames after it, is
        // corruption: recovery refuses it instead of dropping the rest.
        let mut corrupted = journal.clone();
        corrupted[offsets[3] + header] ^= 0x08;
        assert!(matches!(
            TrustedServer::replay_recover(&corrupted),
            Err(DynarError::ProtocolViolation(_))
        ));

        // The same flip in the last frame, complete but with nothing after
        // it, is a torn tail: the frames before it are the recovered log.
        let last = offsets[offsets.len() - 2];
        let mut torn = journal.clone();
        torn[last + header] ^= 0x08;
        let (recovered, clean) = TrustedServer::replay_recover(&torn).unwrap();
        assert_eq!(clean, last);
        let prefix = TrustedServer::replay(&journal[..last]).unwrap();
        assert_eq!(recovered.snapshot_bytes(), prefix.snapshot_bytes());

        // A journal framed with another checksum (FNV-1a) fails its first
        // frame with frames after it: refused, not replayed as empty.
        let mut fnv_framed = Vec::new();
        let mut reader = FrameReader::new(&journal);
        while let Some(payload) = reader.next_frame().unwrap() {
            fnv_framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            fnv_framed.extend_from_slice(&dynar_foundation::journal::fnv1a(payload).to_le_bytes());
            fnv_framed.extend_from_slice(payload);
        }
        assert!(matches!(
            TrustedServer::replay_recover(&fnv_framed),
            Err(DynarError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn a_fleet_of_one_model_shares_one_configuration() {
        fn shares_one(server: &TrustedServer) -> bool {
            let first = &server.vehicles.values().next().expect("a fleet").conf;
            server.confs.confs.len() == 1
                && server
                    .vehicles
                    .values()
                    .all(|record| Arc::ptr_eq(&record.conf, first))
        }
        // Interval 1024 replays `register_vehicle` records; interval 16
        // replays snapshots as well.
        for interval in [1024, 16] {
            let mut server = TrustedServer::new();
            let user = UserId::new("alice");
            server.enable_journal(interval);
            server.create_user(user.clone()).unwrap();
            server.upload_app(remote_control_app()).unwrap();
            for i in 0..50 {
                let vehicle = VehicleId::new(format!("VIN-{i:02}"));
                server
                    .register_vehicle(vehicle.clone(), hw_conf(), system_conf())
                    .unwrap();
                server.bind_vehicle(&user, &vehicle).unwrap();
                server
                    .deploy(&user, &vehicle, &AppId::new("remote-control"))
                    .unwrap();
            }
            assert_eq!(server.vehicles.len(), 50);
            assert!(shares_one(&server), "live, interval {interval}");
            let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
            assert!(shares_one(&replayed), "replayed, interval {interval}");
            assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
        }
    }

    #[test]
    fn file_journal_compaction_rewrites_atomically() {
        let path = std::env::temp_dir().join(format!(
            "dynar-journal-compact-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let (mut server, user, vehicle) = server_with_vehicle();
        // Interval 2 forces several compactions (file rewrites) mid-workout.
        server.enable_journal_file(&path, 2, 1).unwrap();
        durability_workout(&mut server, &user, &vehicle);

        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, server.journal_bytes().unwrap());
        let (recovered, _) = TrustedServer::replay_recover(&on_disk).unwrap();
        assert_eq!(recovered.snapshot_bytes(), server.snapshot_bytes());
        assert!(
            !path.with_extension("log.compact").exists(),
            "compaction temp files are renamed away"
        );

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retransmissions_do_not_double_count_pushes() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        assert_eq!(server.ledger().installs_pushed, 2);

        let _ = server.tick(Tick::new(25));
        assert_eq!(server.ledger().retransmissions, 2);
        assert_eq!(
            server.ledger().installs_pushed,
            2,
            "a retransmission is not a push"
        );

        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(server.ledger().installs_completed, 1);
        assert_eq!(server.ledger().operations_failed, 0);

        // A duplicate ack (the gateway's dedup window replays them on
        // retransmitted downlinks) settles nothing twice.
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(server.ledger().installs_completed, 1);
    }

    #[test]
    fn epoch_voided_operations_settle_once_under_the_new_epoch() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        assert_eq!(server.ledger().installs_pushed, 2);

        // The vehicle reboots mid-install: the pending operation is voided —
        // neither completed nor failed — and the manifest re-pushes under
        // the new epoch as a *new* push, not a retry.
        server
            .process_uplink(&vehicle, &state_report(1, vec![]))
            .unwrap();
        assert_eq!(server.ledger().operations_voided, 1);
        assert_eq!(server.ledger().installs_pushed, 4);
        assert_eq!(server.ledger().resyncs, 1);

        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Installed),
            )
            .unwrap();
        assert_eq!(server.ledger().installs_completed, 1);
        assert_eq!(server.ledger().operations_failed, 0);
    }

    #[test]
    fn begin_incarnation_restamps_every_queued_and_outstanding_downlink() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        server.deploy(&user, &vehicle, &app).unwrap();
        assert_eq!(server.incarnation(), 0);

        assert_eq!(server.begin_incarnation(), 1);
        assert_eq!(server.incarnation(), 1);

        // The queued installs were re-stamped in place and a state-report
        // solicitation was appended, all under the new incarnation.
        let downlinks = server.poll_downlink(&vehicle);
        assert_eq!(downlinks.len(), 3);
        for payload in &downlinks {
            let envelope = DownlinkEnvelope::from_bytes(payload).unwrap();
            assert_eq!(envelope.incarnation, 1);
        }
        assert!(matches!(
            DownlinkEnvelope::from_bytes(&downlinks[2]).unwrap().message,
            ManagementMessage::StateReportRequest
        ));

        // Retransmissions come from the outstanding cache — re-stamped too.
        let failures = server.tick(Tick::new(25));
        assert!(failures.is_empty());
        let retransmitted = server.poll_downlink(&vehicle);
        assert_eq!(retransmitted.len(), 2);
        for payload in &retransmitted {
            let envelope = DownlinkEnvelope::from_bytes(payload).unwrap();
            assert_eq!(envelope.incarnation, 1);
        }
    }

    // Campaign plane --------------------------------------------------------

    use crate::campaign::{HealthGate, WavePlan};

    /// `n` vehicles bound to one user, the remote-control app uploaded.
    fn campaign_fleet(n: usize) -> (TrustedServer, UserId, Vec<VehicleId>) {
        let mut server = TrustedServer::new();
        let user = UserId::new("alice");
        server.create_user(user.clone()).unwrap();
        server.upload_app(remote_control_app()).unwrap();
        let vehicles: Vec<VehicleId> = (0..n)
            .map(|i| VehicleId::new(format!("VIN-{i:03}")))
            .collect();
        for vehicle in &vehicles {
            server
                .register_vehicle(vehicle.clone(), hw_conf(), system_conf())
                .unwrap();
            server.bind_vehicle(&user, vehicle).unwrap();
        }
        (server, user, vehicles)
    }

    fn ack_installed(server: &mut TrustedServer, vehicle: &VehicleId, app: &str) {
        server
            .process_uplink(vehicle, &ack("COM", app, 1, AckStatus::Installed))
            .unwrap();
        server
            .process_uplink(vehicle, &ack("OP", app, 2, AckStatus::Installed))
            .unwrap();
    }

    /// Canary of one, then straight to 100 %; a single failure aborts.
    fn rollout_spec(id: &str) -> CampaignSpec {
        CampaignSpec {
            id: CampaignId::new(id),
            app: AppId::new("remote-control"),
            replaces: None,
            selector: VehicleSelector::All,
            plan: WavePlan {
                canary: 1,
                ramp_percent: vec![100],
            },
            gate: HealthGate {
                min_soak_ticks: 0,
                pause_failed: 0,
                abort_failed: 1,
            },
        }
    }

    #[test]
    fn campaign_waves_advance_on_healthy_acks_and_complete() {
        let (mut server, user, vehicles) = campaign_fleet(3);
        let exposed = server
            .create_campaign(&user, rollout_spec("rollout-1"))
            .unwrap();
        assert_eq!(exposed, 1, "canary wave");
        assert!(server.has_active_campaigns());

        // Unacked canary: the gate holds the rollout (pending > 0).
        assert!(server.step_campaigns().is_empty());

        ack_installed(&mut server, &vehicles[0], "remote-control");
        let events = server.step_campaigns();
        assert!(
            matches!(
                events[..],
                [CampaignEvent::Advanced {
                    wave: 2,
                    exposed: 2,
                    ..
                }]
            ),
            "{events:?}"
        );

        ack_installed(&mut server, &vehicles[1], "remote-control");
        ack_installed(&mut server, &vehicles[2], "remote-control");
        let events = server.step_campaigns();
        assert!(
            matches!(events[..], [CampaignEvent::Completed { succeeded: 3, .. }]),
            "{events:?}"
        );

        let campaign = server.campaign(&CampaignId::new("rollout-1")).unwrap();
        assert_eq!(campaign.status, CampaignStatus::Complete);
        assert_eq!(campaign.counters.exposed, 3);
        assert_eq!(campaign.counters.succeeded, 3);
        assert_eq!(campaign.counters.rolled_back, 0);
        assert!(!server.has_active_campaigns());
        let ledger = server.ledger();
        assert_eq!(ledger.campaign_exposures, 3);
        assert_eq!(ledger.campaigns_completed, 1);
    }

    #[test]
    fn campaign_soak_dwell_holds_the_wave_until_elapsed() {
        let (mut server, user, vehicles) = campaign_fleet(2);
        let mut spec = rollout_spec("rollout-soak");
        spec.gate.min_soak_ticks = 10;
        server.create_campaign(&user, spec).unwrap();
        ack_installed(&mut server, &vehicles[0], "remote-control");

        // Healthy but not soaked: no verdict yet.
        assert!(server.step_campaigns().is_empty());
        let _ = server.tick(Tick::new(10));
        let events = server.step_campaigns();
        assert!(
            matches!(events[..], [CampaignEvent::Advanced { .. }]),
            "{events:?}"
        );
    }

    #[test]
    fn conflicting_duplicate_and_empty_campaigns_are_rejected() {
        let (mut server, user, _vehicles) = campaign_fleet(2);
        server
            .create_campaign(&user, rollout_spec("rollout-1"))
            .unwrap();

        // Same app, overlapping vehicles, both active: typed conflict.
        let err = server
            .create_campaign(&user, rollout_spec("rollout-2"))
            .unwrap_err();
        assert!(matches!(err, DynarError::CampaignConflict { .. }), "{err}");

        // Reused campaign id.
        assert!(matches!(
            server
                .create_campaign(&user, rollout_spec("rollout-1"))
                .unwrap_err(),
            DynarError::Duplicate { .. }
        ));

        // A selector that resolves to no bound vehicles.
        let mut empty = rollout_spec("rollout-empty");
        empty.selector = VehicleSelector::Model("lorry".into());
        assert!(matches!(
            server.create_campaign(&user, empty).unwrap_err(),
            DynarError::InvalidConfiguration(_)
        ));

        // An aborted campaign frees the app for a fresh one.
        server
            .abort_campaign(&user, &CampaignId::new("rollout-1"))
            .unwrap();
        server
            .create_campaign(&user, rollout_spec("rollout-2"))
            .unwrap();
    }

    #[test]
    fn campaign_pause_resume_and_ownership_checks() {
        let (mut server, user, vehicles) = campaign_fleet(2);
        let id = CampaignId::new("rollout-1");
        server
            .create_campaign(&user, rollout_spec("rollout-1"))
            .unwrap();

        // Foreign users cannot drive the campaign.
        let mallory = UserId::new("mallory");
        server.create_user(mallory.clone()).unwrap();
        assert!(server.pause_campaign(&mallory, &id).is_err());

        server.pause_campaign(&user, &id).unwrap();
        assert_eq!(server.campaign(&id).unwrap().status, CampaignStatus::Paused);
        assert!(!server.has_active_campaigns());

        // A paused campaign neither advances nor aborts on its own, and
        // invalid transitions are typed errors.
        ack_installed(&mut server, &vehicles[0], "remote-control");
        assert!(server.step_campaigns().is_empty());
        assert!(server.pause_campaign(&user, &id).is_err());

        server.resume_campaign(&user, &id).unwrap();
        assert_eq!(
            server.campaign(&id).unwrap().status,
            CampaignStatus::Running
        );
        let events = server.step_campaigns();
        assert!(
            matches!(events[..], [CampaignEvent::Advanced { .. }]),
            "{events:?}"
        );
        assert!(server.resume_campaign(&user, &id).is_err());
    }

    #[test]
    fn the_pause_gate_holds_the_rollout_without_rolling_back() {
        let (mut server, user, vehicles) = campaign_fleet(2);
        let mut spec = rollout_spec("rollout-hold");
        spec.gate = HealthGate {
            min_soak_ticks: 0,
            pause_failed: 1,
            abort_failed: 0,
        };
        server.create_campaign(&user, spec).unwrap();
        server
            .process_uplink(
                &vehicles[0],
                &ack("COM", "remote-control", 1, AckStatus::Installed),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicles[0],
                &ack(
                    "OP",
                    "remote-control",
                    2,
                    AckStatus::Failed("no memory".into()),
                ),
            )
            .unwrap();
        let events = server.step_campaigns();
        assert!(
            matches!(events[..], [CampaignEvent::Paused { failed: 1, .. }]),
            "{events:?}"
        );
        let campaign = server.campaign(&CampaignId::new("rollout-hold")).unwrap();
        assert_eq!(campaign.status, CampaignStatus::Paused);
        assert_eq!(campaign.counters.rolled_back, 0);
    }

    /// A one-plugin v2 of the remote-control app (same model).
    fn replacement_v2() -> AppDefinition {
        AppDefinition::new(AppId::new("remote-control-v2"))
            .with_plugin(PluginArtifact {
                id: PluginId::new("OP2"),
                binary: binary("OP2"),
                ports: vec![],
            })
            .with_sw_conf(
                SwConf::new("model-car").with_placement(PluginId::new("OP2"), EcuId::new(2)),
            )
    }

    #[test]
    fn bad_canary_trips_the_abort_gate_and_rolls_back_to_last_good() {
        let (mut server, user, vehicles) = campaign_fleet(1);
        let vehicle = vehicles[0].clone();
        server.upload_app(replacement_v2()).unwrap();
        server
            .deploy(&user, &vehicle, &AppId::new("remote-control"))
            .unwrap();
        ack_installed(&mut server, &vehicle, "remote-control");

        let spec = CampaignSpec {
            id: CampaignId::new("v2-rollout"),
            app: AppId::new("remote-control-v2"),
            replaces: Some(AppId::new("remote-control")),
            selector: VehicleSelector::Vehicles(vec![vehicle.clone()]),
            plan: WavePlan {
                canary: 1,
                ramp_percent: vec![],
            },
            gate: HealthGate {
                min_soak_ticks: 0,
                pause_failed: 0,
                abort_failed: 1,
            },
        };
        assert_eq!(server.create_campaign(&user, spec).unwrap(), 1);

        // The update applies: v1 uninstalls cleanly, v2's plug-in fails.
        server
            .process_uplink(
                &vehicle,
                &ack("COM", "remote-control", 1, AckStatus::Uninstalled),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack("OP", "remote-control", 2, AckStatus::Uninstalled),
            )
            .unwrap();
        server
            .process_uplink(
                &vehicle,
                &ack(
                    "OP2",
                    "remote-control-v2",
                    2,
                    AckStatus::Failed("flash write failed".into()),
                ),
            )
            .unwrap();

        let events = server.step_campaigns();
        assert!(
            matches!(
                events[..],
                [CampaignEvent::Aborted {
                    failed: 1,
                    rolled_back: 1,
                    ..
                }]
            ),
            "{events:?}"
        );
        let campaign = server.campaign(&CampaignId::new("v2-rollout")).unwrap();
        assert_eq!(campaign.status, CampaignStatus::Aborted);
        assert_eq!(campaign.counters.failed, 1);
        assert_eq!(campaign.counters.rolled_back, 1);

        // Rollback is a manifest *restore*: the recorded last-good v1
        // reinstalls through the ordinary reconciliation loop.
        ack_installed(&mut server, &vehicle, "remote-control");
        assert_eq!(
            server.installed_apps(&vehicle),
            vec![AppId::new("remote-control")]
        );
        let ledger = server.ledger();
        assert_eq!(ledger.campaigns_aborted, 1);
        assert_eq!(ledger.campaign_rollbacks, 1);
    }

    #[test]
    fn campaign_decisions_replay_byte_identically() {
        let (mut server, user, vehicles) = campaign_fleet(3);
        server.enable_journal(1024);
        let id = CampaignId::new("rollout-1");
        server
            .create_campaign(&user, rollout_spec("rollout-1"))
            .unwrap();

        // Mid-campaign crash: a successor replays to identical bytes.
        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());

        // Drive the full decision alphabet through the journal: advance,
        // pause, resume, abort — each a journaled verdict replay re-applies
        // without re-evaluating the gate.
        ack_installed(&mut server, &vehicles[0], "remote-control");
        let _ = server.step_campaigns();
        server.pause_campaign(&user, &id).unwrap();
        server.resume_campaign(&user, &id).unwrap();
        server.abort_campaign(&user, &id).unwrap();

        let replayed = TrustedServer::replay(server.journal_bytes().unwrap()).unwrap();
        assert_eq!(replayed.snapshot_bytes(), server.snapshot_bytes());
        let campaign = replayed.campaign(&id).unwrap();
        assert_eq!(campaign.status, CampaignStatus::Aborted);
        assert_eq!(
            campaign.counters.rolled_back, 3,
            "every exposed vehicle restores, not just the canary"
        );
    }
}

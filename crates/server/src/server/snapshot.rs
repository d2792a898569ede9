//! The snapshot codec: the canonical full-state encoding that journal
//! compaction streams and replay reads back.  Each type streams its
//! encoding with `encode_into`, straight into the journal buffer at
//! compaction, and reads it back with `decode` from a [`Reader`] in the
//! same order.  Hash maps and sets are emitted in sorted order, sorted in a
//! reused [`SortScratch`].

use std::collections::HashMap;
use std::sync::Arc;

use dynar_core::message::{DownlinkEnvelope, InstallationPackage, ManagementMessage};
use dynar_foundation::codec::{self, Reader};
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, EcuId, PluginId, UserId, VehicleId};
use dynar_foundation::payload::Payload;
use dynar_foundation::time::Tick;

use super::plan::PlannedPackage;
use super::reliability::{Delivery, OutstandingDownlink, RttEstimator};
use super::{
    ConfTable, InstalledApp, PendingKind, PendingOperation, RetryPolicy, TrustedServer,
    VehicleConf, VehicleRecord,
};
use crate::campaign::Campaign;
use crate::ledger::Ledger;
use crate::model::{AppDefinition, HwConf, SystemSwConf};

impl TrustedServer {
    /// The canonical full-state snapshot, encoded with the shared codec:
    /// every map and set is emitted in sorted order, so two servers in the
    /// same logical state encode identically — `snapshot_bytes` equality
    /// *is* the state-equality check the restart scenario asserts.  The
    /// dirty flags are not part of the snapshot: they are a rebuildable view
    /// over the downlink queues.
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
    pub(super) fn write_snapshot(&self, out: &mut Vec<u8>) {
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
    /// Returns [`DynarError::ProtocolViolation`](dynar_foundation::error::DynarError::ProtocolViolation)
    /// for malformed snapshots.
    pub(super) fn read_snapshot(r: &mut Reader<'_>) -> Result<TrustedServer> {
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
}

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
    pub(super) fn encode(hw: &HwConf, system: &SystemSwConf, out: &mut Vec<u8>) {
        hw.encode_into(out);
        system.encode_into(out);
    }
}

impl InstalledApp {
    /// Encodes `packages` as a plan's snapshot form, consuming them: each
    /// package leaves behind, on `planned`, its plug-in, its ECU and the
    /// range of its install message (relative to where the plan starts in
    /// `out`).  [`InstalledApp::new`] runs it once per plan.
    pub(super) fn encode(
        packages: Vec<(EcuId, InstallationPackage)>,
        out: &mut Vec<u8>,
        planned: &mut Vec<PlannedPackage>,
    ) {
        let base = out.len();
        codec::encode_list_header(2, out);
        // The plug-in list repeats the packages' `(plugin, ECU)` pairs; it
        // is kept in the snapshot form, derived here.
        codec::encode_list_header(packages.len(), out);
        for (ecu, package) in &packages {
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
            planned.push(PlannedPackage {
                plugin: package.plugin,
                ecu,
                install: start..out.len() - base,
            });
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

impl Delivery {
    /// Streams the delivery state as the last five items of the vehicle
    /// record's list: the downlink queue, the next sequence id, the
    /// outstanding packages and the estimator's two values.
    fn encode_into(&self, out: &mut Vec<u8>) {
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

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Delivery {
            downlink: r.items(read_envelope)?,
            next_seq: r.int("next seq")?,
            outstanding: r.items(OutstandingDownlink::decode)?,
            rtt: RttEstimator::decode(r)?,
            in_dirty: false,
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
        self.delivery.encode_into(out);
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
        Ok(VehicleRecord {
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
            delivery: Delivery::decode(r)?,
        })
    }
}

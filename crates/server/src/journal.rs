//! The trusted server's write-ahead journal: a command log of every state
//! transition, with periodic compaction into full-state snapshots.
//!
//! # Design
//!
//! The journal records the server's **inputs** (the mutating API calls),
//! not its internal effects: replaying the commands through the same
//! deterministic code reconstructs every derived structure — manifests,
//! pending operations, outstanding retransmission state, the ledger —
//! byte-for-byte.  Each record is one [`dynar_foundation::codec`]-encoded
//! value inside a checksummed [`dynar_foundation::journal`] frame.
//!
//! Every compaction interval's worth of records (configured per journal)
//! the buffer is *compacted*: replaced by a single snapshot frame holding
//! the full canonical state, so the journal's size is bounded by the snapshot size plus one compaction
//! interval of records instead of growing with uptime.  Compaction happens
//! *before* the next record is appended, so the snapshot captures the state
//! the pending record applies to — replay is `snapshot ⊕ commands`, in
//! order.

use dynar_foundation::codec::{self, Reader};
#[cfg(doc)]
use dynar_foundation::error::DynarError;
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, EcuId, UserId, VehicleId};
use dynar_foundation::journal::{begin_frame, finish_frame};
use dynar_foundation::time::Tick;

use crate::campaign::{CampaignId, CampaignSpec};
use crate::model::{AppDefinition, HwConf, SystemSwConf};
use crate::server::RetryPolicy;

/// One journaled state transition of the trusted server.
///
/// Every variant mirrors one mutating `TrustedServer` API call; replay
/// applies them through the same public methods.  The other kind of frame,
/// the full-state snapshot a compaction writes ([`Journal::compact`]), is
/// not a record: replay reads its state straight into a server.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JournalRecord {
    /// `create_user`.
    CreateUser(UserId),
    /// `register_vehicle`.
    RegisterVehicle(VehicleId, HwConf, SystemSwConf),
    /// `bind_vehicle`.
    BindVehicle(UserId, VehicleId),
    /// `upload_app`.
    UploadApp(AppDefinition),
    /// `set_retry_policy`.
    SetRetryPolicy(RetryPolicy),
    /// `deploy`.
    Deploy(UserId, VehicleId, AppId),
    /// `uninstall`.
    Uninstall(UserId, VehicleId, AppId),
    /// `restore`.
    Restore(VehicleId, EcuId),
    /// `set_desired`.
    SetDesired(UserId, VehicleId, AppId),
    /// `clear_desired`.
    ClearDesired(UserId, VehicleId, AppId),
    /// `reconcile`.
    Reconcile(VehicleId),
    /// `mark_offline`.
    MarkOffline(VehicleId),
    /// `mark_online` with the reported boot epoch.
    MarkOnline(VehicleId, u32),
    /// `mark_unreachable`.
    MarkUnreachable(VehicleId),
    /// `request_state_report`.
    RequestStateReport(VehicleId),
    /// `tick`.
    Tick(Tick),
    /// `process_uplink` with the raw uplink payload.
    ProcessUplink(VehicleId, Vec<u8>),
    /// `poll_downlink` (journaled only when the drain was non-empty).
    PollDownlink(VehicleId),
    /// `begin_incarnation`.
    BeginIncarnation,
    /// `create_campaign` (the target resolution replays deterministically
    /// from the spec against the fleet state at this record's position).
    CampaignCreate(UserId, CampaignSpec),
    /// A campaign advanced one wave — journaled as the health gate's
    /// *decision*, so replay re-exposes the same wave without re-evaluating
    /// the gate.
    CampaignAdvance(CampaignId),
    /// A campaign paused (gate trip or `pause_campaign`).
    CampaignPause(CampaignId),
    /// `resume_campaign`.
    CampaignResume(CampaignId),
    /// A campaign aborted and rolled its exposed vehicles back (gate trip or
    /// `abort_campaign`).
    CampaignAbort(CampaignId),
    /// Every target converged; the campaign completed.
    CampaignComplete(CampaignId),
}

const TAG_SNAPSHOT: i64 = 0;
const TAG_CREATE_USER: i64 = 1;
const TAG_REGISTER_VEHICLE: i64 = 2;
const TAG_BIND_VEHICLE: i64 = 3;
const TAG_UPLOAD_APP: i64 = 4;
const TAG_SET_RETRY_POLICY: i64 = 5;
const TAG_DEPLOY: i64 = 6;
const TAG_UNINSTALL: i64 = 7;
const TAG_RESTORE: i64 = 8;
const TAG_SET_DESIRED: i64 = 9;
const TAG_CLEAR_DESIRED: i64 = 10;
const TAG_RECONCILE: i64 = 11;
const TAG_MARK_OFFLINE: i64 = 12;
const TAG_MARK_ONLINE: i64 = 13;
const TAG_MARK_UNREACHABLE: i64 = 14;
const TAG_REQUEST_STATE_REPORT: i64 = 15;
const TAG_TICK: i64 = 16;
const TAG_PROCESS_UPLINK: i64 = 17;
const TAG_POLL_DOWNLINK: i64 = 18;
const TAG_BEGIN_INCARNATION: i64 = 19;
const TAG_CAMPAIGN_CREATE: i64 = 20;
const TAG_CAMPAIGN_ADVANCE: i64 = 21;
const TAG_CAMPAIGN_PAUSE: i64 = 22;
const TAG_CAMPAIGN_RESUME: i64 = 23;
const TAG_CAMPAIGN_ABORT: i64 = 24;
const TAG_CAMPAIGN_COMPLETE: i64 = 25;

impl JournalRecord {
    /// Appends the record's encoding, a `[tag, ...fields]` list, to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let header = |tag: i64, fields: usize, out: &mut Vec<u8>| {
            codec::encode_list_header(1 + fields, out);
            codec::encode_i64(tag, out);
        };
        let user_vehicle_app =
            |tag: i64, user: &UserId, vehicle: &VehicleId, app: &AppId, out: &mut Vec<u8>| {
                header(tag, 3, out);
                codec::encode_text(user.name(), out);
                codec::encode_text(vehicle.vin(), out);
                codec::encode_text(app.name(), out);
            };
        let vehicle_only = |tag: i64, vehicle: &VehicleId, out: &mut Vec<u8>| {
            header(tag, 1, out);
            codec::encode_text(vehicle.vin(), out);
        };
        let campaign_only = |tag: i64, campaign: &CampaignId, out: &mut Vec<u8>| {
            header(tag, 1, out);
            codec::encode_text(campaign.name(), out);
        };
        match self {
            JournalRecord::CreateUser(user) => {
                header(TAG_CREATE_USER, 1, out);
                codec::encode_text(user.name(), out);
            }
            JournalRecord::RegisterVehicle(vehicle, hw, system) => {
                header(TAG_REGISTER_VEHICLE, 3, out);
                codec::encode_text(vehicle.vin(), out);
                hw.encode_into(out);
                system.encode_into(out);
            }
            JournalRecord::BindVehicle(user, vehicle) => {
                header(TAG_BIND_VEHICLE, 2, out);
                codec::encode_text(user.name(), out);
                codec::encode_text(vehicle.vin(), out);
            }
            JournalRecord::UploadApp(app) => {
                header(TAG_UPLOAD_APP, 1, out);
                app.encode_into(out);
            }
            JournalRecord::SetRetryPolicy(policy) => {
                header(TAG_SET_RETRY_POLICY, 2, out);
                codec::encode_i64(policy.ack_deadline_ticks as i64, out);
                codec::encode_i64(i64::from(policy.max_attempts), out);
            }
            JournalRecord::Deploy(user, vehicle, app) => {
                user_vehicle_app(TAG_DEPLOY, user, vehicle, app, out);
            }
            JournalRecord::Uninstall(user, vehicle, app) => {
                user_vehicle_app(TAG_UNINSTALL, user, vehicle, app, out);
            }
            JournalRecord::Restore(vehicle, ecu) => {
                header(TAG_RESTORE, 2, out);
                codec::encode_text(vehicle.vin(), out);
                codec::encode_i64(i64::from(ecu.index()), out);
            }
            JournalRecord::SetDesired(user, vehicle, app) => {
                user_vehicle_app(TAG_SET_DESIRED, user, vehicle, app, out);
            }
            JournalRecord::ClearDesired(user, vehicle, app) => {
                user_vehicle_app(TAG_CLEAR_DESIRED, user, vehicle, app, out);
            }
            JournalRecord::Reconcile(vehicle) => vehicle_only(TAG_RECONCILE, vehicle, out),
            JournalRecord::MarkOffline(vehicle) => vehicle_only(TAG_MARK_OFFLINE, vehicle, out),
            JournalRecord::MarkOnline(vehicle, boot_epoch) => {
                header(TAG_MARK_ONLINE, 2, out);
                codec::encode_text(vehicle.vin(), out);
                codec::encode_i64(i64::from(*boot_epoch), out);
            }
            JournalRecord::MarkUnreachable(vehicle) => {
                vehicle_only(TAG_MARK_UNREACHABLE, vehicle, out);
            }
            JournalRecord::RequestStateReport(vehicle) => {
                vehicle_only(TAG_REQUEST_STATE_REPORT, vehicle, out);
            }
            JournalRecord::Tick(now) => {
                header(TAG_TICK, 1, out);
                codec::encode_i64(now.as_u64() as i64, out);
            }
            JournalRecord::ProcessUplink(vehicle, payload) => {
                header(TAG_PROCESS_UPLINK, 2, out);
                codec::encode_text(vehicle.vin(), out);
                codec::encode_bytes(payload, out);
            }
            JournalRecord::PollDownlink(vehicle) => vehicle_only(TAG_POLL_DOWNLINK, vehicle, out),
            JournalRecord::BeginIncarnation => header(TAG_BEGIN_INCARNATION, 0, out),
            JournalRecord::CampaignCreate(user, spec) => {
                header(TAG_CAMPAIGN_CREATE, 2, out);
                codec::encode_text(user.name(), out);
                spec.encode_into(out);
            }
            JournalRecord::CampaignAdvance(id) => campaign_only(TAG_CAMPAIGN_ADVANCE, id, out),
            JournalRecord::CampaignPause(id) => campaign_only(TAG_CAMPAIGN_PAUSE, id, out),
            JournalRecord::CampaignResume(id) => campaign_only(TAG_CAMPAIGN_RESUME, id, out),
            JournalRecord::CampaignAbort(id) => campaign_only(TAG_CAMPAIGN_ABORT, id, out),
            JournalRecord::CampaignComplete(id) => campaign_only(TAG_CAMPAIGN_COMPLETE, id, out),
        }
    }

    /// Reads one frame's record written by [`JournalRecord::encode_into`],
    /// or `None` for a snapshot frame ([`Journal::compact`]), whose state
    /// then follows in `r`.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Option<Self>> {
        type Decoded = Result<(usize, JournalRecord)>;
        let user_vehicle_app =
            |r: &mut Reader<'_>, record: fn(UserId, VehicleId, AppId) -> Self| -> Decoded {
                let user = UserId::new(r.text()?);
                let vehicle = VehicleId::new(r.text()?);
                Ok((3, record(user, vehicle, AppId::new(r.text()?))))
            };
        let vehicle_only = |r: &mut Reader<'_>, record: fn(VehicleId) -> Self| -> Decoded {
            Ok((1, record(VehicleId::new(r.text()?))))
        };
        let campaign_only = |r: &mut Reader<'_>, record: fn(CampaignId) -> Self| -> Decoded {
            Ok((1, record(CampaignId::new(r.text()?))))
        };
        // Each arm reads its fields and names how many it has, which the
        // record's list header must match.
        let fields = r.list()?;
        let (arity, record) = match r.i64()? {
            TAG_SNAPSHOT if fields == 2 => return Ok(None),
            TAG_CREATE_USER => (1, Self::CreateUser(UserId::new(r.text()?))),
            TAG_REGISTER_VEHICLE => {
                let vehicle = VehicleId::new(r.text()?);
                let hw = HwConf::decode(r)?;
                (
                    3,
                    Self::RegisterVehicle(vehicle, hw, SystemSwConf::decode(r)?),
                )
            }
            TAG_BIND_VEHICLE => {
                let user = UserId::new(r.text()?);
                (2, Self::BindVehicle(user, VehicleId::new(r.text()?)))
            }
            TAG_UPLOAD_APP => (1, Self::UploadApp(AppDefinition::decode(r)?)),
            TAG_SET_RETRY_POLICY => {
                let policy = RetryPolicy {
                    ack_deadline_ticks: r.int("ack deadline")?,
                    max_attempts: r.int("max attempts")?,
                };
                (2, Self::SetRetryPolicy(policy))
            }
            TAG_DEPLOY => user_vehicle_app(r, Self::Deploy)?,
            TAG_UNINSTALL => user_vehicle_app(r, Self::Uninstall)?,
            TAG_RESTORE => {
                let vehicle = VehicleId::new(r.text()?);
                (2, Self::Restore(vehicle, EcuId::new(r.int("restore ECU")?)))
            }
            TAG_SET_DESIRED => user_vehicle_app(r, Self::SetDesired)?,
            TAG_CLEAR_DESIRED => user_vehicle_app(r, Self::ClearDesired)?,
            TAG_RECONCILE => vehicle_only(r, Self::Reconcile)?,
            TAG_MARK_OFFLINE => vehicle_only(r, Self::MarkOffline)?,
            TAG_MARK_ONLINE => {
                let vehicle = VehicleId::new(r.text()?);
                (2, Self::MarkOnline(vehicle, r.int("boot epoch")?))
            }
            TAG_MARK_UNREACHABLE => vehicle_only(r, Self::MarkUnreachable)?,
            TAG_REQUEST_STATE_REPORT => vehicle_only(r, Self::RequestStateReport)?,
            TAG_TICK => (1, Self::Tick(Tick::new(r.int("tick")?))),
            TAG_PROCESS_UPLINK => {
                let vehicle = VehicleId::new(r.text()?);
                (2, Self::ProcessUplink(vehicle, r.bytes()?.to_vec()))
            }
            TAG_POLL_DOWNLINK => vehicle_only(r, Self::PollDownlink)?,
            TAG_BEGIN_INCARNATION => (0, Self::BeginIncarnation),
            TAG_CAMPAIGN_CREATE => {
                let user = UserId::new(r.text()?);
                (2, Self::CampaignCreate(user, CampaignSpec::decode(r)?))
            }
            TAG_CAMPAIGN_ADVANCE => campaign_only(r, Self::CampaignAdvance)?,
            TAG_CAMPAIGN_PAUSE => campaign_only(r, Self::CampaignPause)?,
            TAG_CAMPAIGN_RESUME => campaign_only(r, Self::CampaignResume)?,
            TAG_CAMPAIGN_ABORT => campaign_only(r, Self::CampaignAbort)?,
            TAG_CAMPAIGN_COMPLETE => campaign_only(r, Self::CampaignComplete)?,
            _ => return Err(r.malformed("journal record")),
        };
        if fields != 1 + arity {
            return Err(r.malformed("journal record"));
        }
        Ok(Some(record))
    }
}

/// A file-backed sink mirroring the journal to disk.
///
/// Every appended frame is written through to the log file immediately (the
/// OS page cache holds it), but `fdatasync` is only issued once per
/// `fsync_interval` appends — batching the expensive flush the way real
/// write-ahead logs do.  A crash can therefore lose at most the last
/// `fsync_interval - 1` *synced* records plus one torn frame at the tail;
/// the frame checksums make the torn tail detectable, and
/// [`crate::TrustedServer::replay_recover`] truncates it instead of failing.
#[derive(Debug)]
struct FileSink {
    file: std::fs::File,
    path: std::path::PathBuf,
    fsync_interval: u32,
    appends_since_sync: u32,
}

impl FileSink {
    /// Creates (or truncates) the log file and seeds it with `contents`,
    /// synced to disk.
    fn create(path: &std::path::Path, fsync_interval: u32, contents: &[u8]) -> Result<FileSink> {
        use std::io::Write;
        let mut file = std::fs::File::create(path)?;
        file.write_all(contents)?;
        file.sync_data()?;
        Ok(FileSink {
            file,
            path: path.to_path_buf(),
            fsync_interval: fsync_interval.max(1),
            appends_since_sync: 0,
        })
    }

    /// Appends one already-framed record, syncing once per interval.
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        use std::io::Write;
        self.file.write_all(frame)?;
        self.appends_since_sync += 1;
        if self.appends_since_sync >= self.fsync_interval {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Atomically replaces the log with `contents` (compaction): the new
    /// image is written and synced to a sibling temp file, then renamed over
    /// the log, so a crash mid-compaction leaves either the complete old log
    /// or the complete new one — never a half-written snapshot.
    fn rewrite(&mut self, contents: &[u8]) -> Result<()> {
        use std::io::Write;
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".compact");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = file;
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// The write-ahead journal buffer of one [`crate::TrustedServer`], optionally
/// mirrored to a file sink with batched fsync.
#[derive(Debug)]
pub struct Journal {
    buffer: Vec<u8>,
    compaction_interval: u32,
    records_since_snapshot: u32,
    sink: Option<FileSink>,
}

impl Journal {
    /// Creates an empty journal that compacts after `compaction_interval`
    /// records (clamped to at least 1).
    pub(crate) fn new(compaction_interval: u32) -> Self {
        Journal {
            buffer: Vec::new(),
            compaction_interval: compaction_interval.max(1),
            records_since_snapshot: 0,
            sink: None,
        }
    }

    /// Attaches a file sink at `path` (created or truncated), seeding it
    /// with the journal's current contents and syncing.  Subsequent appends
    /// and compactions are mirrored with `fsync` batched every
    /// `fsync_interval` appends.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Io`] when the file cannot be created or written.
    pub(crate) fn attach_file_sink(
        &mut self,
        path: &std::path::Path,
        fsync_interval: u32,
    ) -> Result<()> {
        self.sink = Some(FileSink::create(path, fsync_interval, &self.buffer)?);
        Ok(())
    }

    /// Appends one record frame, encoding the record straight into the
    /// buffer.
    pub(crate) fn append(&mut self, record: &JournalRecord) {
        let frame_start = begin_frame(&mut self.buffer);
        record.encode_into(&mut self.buffer);
        finish_frame(&mut self.buffer, frame_start);
        self.records_since_snapshot += 1;
        if let Some(sink) = &mut self.sink {
            // A sink write failure must not desynchronise the in-memory
            // journal (the durability story degrades, the replay story
            // must not): drop the sink and keep running from memory.
            if sink.append(&self.buffer[frame_start..]).is_err() {
                self.sink = None;
            }
        }
    }

    /// `true` once enough records accumulated since the last snapshot.
    pub(crate) fn due_for_compaction(&self) -> bool {
        self.records_since_snapshot >= self.compaction_interval
    }

    /// Replaces the whole buffer with a single snapshot frame, `[TAG_SNAPSHOT,
    /// state]`, around the state that `write_state` streams
    /// (`TrustedServer::write_snapshot`).  The frame is written in
    /// place — its header is reserved, the payload is streamed after it, and
    /// the length and checksum are patched in — so the buffer keeps its
    /// capacity from one compaction to the next and the snapshot is never
    /// copied.
    pub(crate) fn compact(&mut self, write_state: impl FnOnce(&mut Vec<u8>)) {
        self.buffer.clear();
        let frame_start = begin_frame(&mut self.buffer);
        codec::encode_list_header(2, &mut self.buffer);
        codec::encode_i64(TAG_SNAPSHOT, &mut self.buffer);
        write_state(&mut self.buffer);
        finish_frame(&mut self.buffer, frame_start);
        self.records_since_snapshot = 0;
        if let Some(sink) = &mut self.sink {
            if sink.rewrite(&self.buffer).is_err() {
                self.sink = None;
            }
        }
    }

    /// The journal's framed byte buffer (what a crash would leave behind;
    /// feed it to `TrustedServer::replay`).
    pub fn bytes(&self) -> &[u8] {
        &self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynar_foundation::error::DynarError;
    use dynar_foundation::journal::{append_frame, FrameReader};
    use dynar_foundation::value::Value;

    /// Decodes one frame's payload.
    fn decode(payload: &[u8]) -> Result<Option<JournalRecord>> {
        codec::decode_with(payload, JournalRecord::decode)
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            JournalRecord::CreateUser(UserId::new("alice")),
            JournalRecord::RegisterVehicle(
                VehicleId::new("vin-1"),
                HwConf::new().with_ecu(EcuId::new(1), 512),
                SystemSwConf::new("model-car"),
            ),
            JournalRecord::BindVehicle(UserId::new("alice"), VehicleId::new("vin-1")),
            JournalRecord::UploadApp(AppDefinition::new(AppId::new("app"))),
            JournalRecord::SetRetryPolicy(RetryPolicy {
                ack_deadline_ticks: 10,
                max_attempts: 3,
            }),
            JournalRecord::Deploy(
                UserId::new("alice"),
                VehicleId::new("vin-1"),
                AppId::new("app"),
            ),
            JournalRecord::Uninstall(
                UserId::new("alice"),
                VehicleId::new("vin-1"),
                AppId::new("app"),
            ),
            JournalRecord::Restore(VehicleId::new("vin-1"), EcuId::new(2)),
            JournalRecord::SetDesired(
                UserId::new("alice"),
                VehicleId::new("vin-1"),
                AppId::new("app"),
            ),
            JournalRecord::ClearDesired(
                UserId::new("alice"),
                VehicleId::new("vin-1"),
                AppId::new("app"),
            ),
            JournalRecord::Reconcile(VehicleId::new("vin-1")),
            JournalRecord::MarkOffline(VehicleId::new("vin-1")),
            JournalRecord::MarkOnline(VehicleId::new("vin-1"), 3),
            JournalRecord::MarkUnreachable(VehicleId::new("vin-1")),
            JournalRecord::RequestStateReport(VehicleId::new("vin-1")),
            JournalRecord::Tick(Tick::new(77)),
            JournalRecord::ProcessUplink(VehicleId::new("vin-1"), vec![1, 2, 3]),
            JournalRecord::PollDownlink(VehicleId::new("vin-1")),
            JournalRecord::BeginIncarnation,
            JournalRecord::CampaignCreate(
                UserId::new("alice"),
                CampaignSpec {
                    id: CampaignId::new("rollout-1"),
                    app: AppId::new("app-v2"),
                    replaces: Some(AppId::new("app")),
                    selector: crate::campaign::VehicleSelector::Model("model-car".into()),
                    plan: crate::campaign::WavePlan {
                        canary: 2,
                        ramp_percent: vec![25, 100],
                    },
                    gate: crate::campaign::HealthGate {
                        min_soak_ticks: 30,
                        pause_failed: 0,
                        abort_failed: 1,
                    },
                },
            ),
            JournalRecord::CampaignAdvance(CampaignId::new("rollout-1")),
            JournalRecord::CampaignPause(CampaignId::new("rollout-1")),
            JournalRecord::CampaignResume(CampaignId::new("rollout-1")),
            JournalRecord::CampaignAbort(CampaignId::new("rollout-1")),
            JournalRecord::CampaignComplete(CampaignId::new("rollout-1")),
        ];
        for record in records {
            let mut bytes = Vec::new();
            record.encode_into(&mut bytes);
            assert_eq!(decode(&bytes).unwrap(), Some(record));
        }
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        for value in [
            Value::I64(0),
            Value::List(vec![]),
            Value::List(vec![Value::I64(999)]),
            // A record with one field too many or too few.
            Value::List(vec![Value::I64(TAG_TICK), Value::I64(1), Value::I64(2)]),
            Value::List(vec![
                Value::I64(TAG_BIND_VEHICLE),
                Value::Text("alice".into()),
            ]),
            // A snapshot frame carries exactly one state.
            Value::List(vec![Value::I64(TAG_SNAPSHOT)]),
        ] {
            let error = decode(&codec::encode_value(&value)).unwrap_err();
            assert!(
                matches!(error, DynarError::ProtocolViolation(_)),
                "{value:?}: {error:?}"
            );
        }
        assert!(decode(&[0xff, 0x01]).is_err());
    }

    #[test]
    fn compaction_resets_the_buffer_to_one_snapshot_frame() {
        let mut journal = Journal::new(2);
        journal.append(&JournalRecord::BeginIncarnation);
        assert!(!journal.due_for_compaction());
        journal.append(&JournalRecord::Reconcile(VehicleId::new("vin-1")));
        assert!(journal.due_for_compaction());
        let before = journal.bytes().len();
        let state = Value::List(vec![Value::I64(7), Value::Text("vin-1".into())]);
        journal.compact(|out| codec::encode_into(&state, out));
        assert!(journal.bytes().len() < before + 32);
        assert!(!journal.due_for_compaction());
        // The frame is `[TAG_SNAPSHOT, state]`, state read back intact.
        let mut expected = Vec::new();
        append_frame(
            &mut expected,
            &codec::encode_value(&Value::List(vec![Value::I64(TAG_SNAPSHOT), state.clone()])),
        );
        assert_eq!(journal.bytes(), expected.as_slice());
        let payload = &journal.bytes()[dynar_foundation::journal::FRAME_HEADER_LEN..];
        let mut reader = Reader::new(payload);
        assert_eq!(JournalRecord::decode(&mut reader).unwrap(), None);
        assert_eq!(reader.value().unwrap(), state);
        reader.finish().unwrap();
    }

    #[test]
    fn appended_frames_match_the_framed_record_encoding() {
        let mut journal = Journal::new(100);
        let records = [
            JournalRecord::BeginIncarnation,
            JournalRecord::ProcessUplink(VehicleId::new("vin-1"), vec![9; 40]),
            JournalRecord::Tick(Tick::new(3)),
        ];
        let mut expected = journal.bytes().to_vec();
        for record in &records {
            journal.append(record);
            let mut payload = Vec::new();
            record.encode_into(&mut payload);
            append_frame(&mut expected, &payload);
        }
        assert_eq!(journal.bytes(), expected.as_slice());
    }

    #[test]
    fn compaction_reuses_the_buffer() {
        let mut journal = Journal::new(1);
        let state = Value::Bytes(vec![1; 4096]);
        journal.compact(|out| codec::encode_into(&state, out));
        journal.append(&JournalRecord::BeginIncarnation);
        let (capacity, start) = (journal.buffer.capacity(), journal.buffer.as_ptr());
        journal.compact(|out| codec::encode_into(&state, out));
        assert_eq!(journal.buffer.capacity(), capacity);
        assert_eq!(journal.buffer.as_ptr(), start, "compaction reallocated");
        let mut reader = FrameReader::new(journal.bytes());
        assert!(reader.next_frame().unwrap().is_some());
        assert_eq!(reader.next_frame().unwrap(), None);
    }
}

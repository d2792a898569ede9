//! The durability plane: the write-ahead journal, its compaction into
//! snapshots, replay after a crash and the incarnations that fence a
//! replayed server off from its pre-crash self.

use dynar_foundation::codec::Reader;
use dynar_foundation::error::Result;
use dynar_foundation::ids::VehicleId;
use dynar_foundation::journal::FrameReader;

use super::TrustedServer;
#[cfg(debug_assertions)]
use super::VehicleConf;
use crate::journal::{Journal, JournalRecord};

impl TrustedServer {
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
    /// Returns [`DynarError::Io`](dynar_foundation::error::DynarError::Io) when the file cannot be created or the
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
    pub(super) fn journal_append(&mut self, record: impl FnOnce() -> JournalRecord) {
        self.inputs += 1;
        self.journal_log(record);
    }

    /// [`TrustedServer::journal_append`] without counting an input: the
    /// append of `Tick`, which by itself changes no vehicle's health.
    pub(super) fn journal_log(&mut self, record: impl FnOnce() -> JournalRecord) {
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
    pub(super) fn journal_append_unchecked(&mut self, record: impl FnOnce() -> JournalRecord) {
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

    /// Checks, in debug builds before every compaction, that the byte
    /// cache of every vehicle configuration the snapshot copies equals a
    /// fresh encode of its value.  (A plan keeps no values beside its bytes,
    /// so there is nothing of it to compare.)
    ///
    /// # Panics
    ///
    /// Panics on a stale cache.
    #[cfg(debug_assertions)]
    fn check_encoded_caches(&self) {
        let mut fresh = Vec::new();
        for (vin, record) in &self.vehicles {
            fresh.clear();
            VehicleConf::encode(&record.conf.hw, &record.conf.system, &mut fresh);
            assert!(
                *fresh == *record.conf.bytes,
                "{vin}: configuration bytes differ from a fresh encode"
            );
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
    /// Returns [`DynarError::ProtocolViolation`](dynar_foundation::error::DynarError::ProtocolViolation) for truncated, corrupted or
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
    /// Returns [`DynarError::ProtocolViolation`](dynar_foundation::error::DynarError::ProtocolViolation) when a frame before the
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
    /// Returns [`DynarError::ProtocolViolation`](dynar_foundation::error::DynarError::ProtocolViolation) for a malformed frame.
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
            record.delivery.restamp(incarnation);
            // No-ECM vehicles simply get no solicitation.
            if let Some(ecm) = record.conf.system.ecm_ecu() {
                Self::queue_report_request(record, ecm, incarnation);
            }
            record.note_dirty(vehicle, &mut self.dirty);
        }
        vehicles.len()
    }
}

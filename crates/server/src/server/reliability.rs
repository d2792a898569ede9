//! The reliability plane: per-vehicle sequence ids, the downlink queues,
//! retransmission deadlines with bounded, backed-off retries, and the uplink
//! path that settles them.  It owns each vehicle's [`Delivery`] state.

use dynar_core::message::{Ack, AckStatus, DownlinkEnvelope, ManagementMessage};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, VehicleId};
use dynar_foundation::payload::Payload;
use dynar_foundation::time::Tick;

use super::{OpCtx, PendingKind, TrustedServer, VehicleRecord};
use crate::journal::JournalRecord;
use crate::ledger::Ledger;

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
pub(super) const MIN_RTO_TICKS: u64 = 2;

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
pub(super) struct OutstandingDownlink {
    pub(super) seq: u64,
    pub(super) ecu: EcuId,
    pub(super) plugin: PluginId,
    pub(super) app: AppId,
    pub(super) kind: PendingKind,
    /// The encoded envelope, retransmitted verbatim (same sequence id) — a
    /// shared buffer, so caching and every retransmission are refcount bumps.
    pub(super) payload: Payload,
    pub(super) attempts: u32,
    pub(super) deadline: Tick,
    /// The tick of the first push: an ack settling the entry at its first
    /// attempt measures one round trip from here (Karn's rule: a
    /// retransmitted entry's ack is ambiguous and gives no sample).
    pub(super) sent: Tick,
}

/// One vehicle's delivery state.  Its fields are read directly only by the
/// snapshot codec; everything else goes through the methods below and the
/// reliability operations of [`TrustedServer`].
#[derive(Debug, Clone, Default)]
pub(super) struct Delivery {
    /// Encoded envelopes waiting for the next drain.
    pub(super) downlink: Vec<Payload>,
    /// Next downlink sequence id (monotonically increasing per vehicle).
    pub(super) next_seq: u64,
    /// Pushed packages whose acknowledgement is still outstanding: a handful
    /// at most, so deadlines are found by scanning them.
    pub(super) outstanding: Vec<OutstandingDownlink>,
    /// The vehicle's ack round-trip estimator, which arms its deadlines.
    pub(super) rtt: RttEstimator,
    /// `true` iff the vehicle currently sits in the server's dirty set (the
    /// flag dedups re-inserts).  Not part of the durability snapshot — it is
    /// rebuilt from `online && !downlink.is_empty()` on decode.
    pub(super) in_dirty: bool,
}

impl Delivery {
    /// Assigns the next sequence id, encodes the envelope — its header,
    /// then the message `encode_message` appends — and queues it (shared by
    /// tracked pushes and fire-and-forget restore pushes and requests).
    /// The message is encoded from whatever the caller borrows, straight
    /// into the payload's one allocation.
    pub(super) fn queue(
        &mut self,
        ecu: EcuId,
        boot_epoch: u32,
        incarnation: u32,
        encode_message: impl FnOnce(&mut Vec<u8>),
    ) -> (u64, Payload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = Payload::encode_with(|out| {
            DownlinkEnvelope::encode_header_into(ecu, seq, boot_epoch, incarnation, out);
            encode_message(out);
        });
        self.downlink.push(payload.clone());
        (seq, payload)
    }

    /// Drops everything queued and outstanding (the vehicle rebooted or
    /// vanished: nothing issued before can still be delivered) and returns
    /// the outstanding entries.
    pub(super) fn void(&mut self) -> Vec<OutstandingDownlink> {
        self.downlink.clear();
        std::mem::take(&mut self.outstanding)
    }

    /// Re-arms every outstanding deadline one retransmission timeout after
    /// `now` (a parked vehicle came back; the attempts already made keep
    /// counting).  The vehicle's own timeout arms them: the link that comes
    /// back is the one it measured.
    pub(super) fn rearm(&mut self, now: Tick, policy: &RetryPolicy) {
        let wait = self.rtt.rto(policy).max(1);
        for entry in &mut self.outstanding {
            entry.deadline = now.advance(wait);
        }
    }

    /// `true` if a package addressing `plugin` is still outstanding.
    pub(super) fn in_flight(&self, plugin: &PluginId) -> bool {
        self.outstanding.iter().any(|o| &o.plugin == plugin)
    }

    /// Re-stamps every queued and outstanding envelope with `incarnation`
    /// (target, sequence id, epoch and message unchanged).
    pub(super) fn restamp(&mut self, incarnation: u32) {
        fn restamp(payload: &Payload, incarnation: u32) -> Payload {
            let mut envelope =
                DownlinkEnvelope::from_bytes(payload).expect("server-encoded envelope");
            envelope.incarnation = incarnation;
            envelope.to_bytes().into()
        }
        for payload in &mut self.downlink {
            *payload = restamp(payload, incarnation);
        }
        for entry in &mut self.outstanding {
            entry.payload = restamp(&entry.payload, incarnation);
        }
    }

    /// The position of the outstanding entry due first at `now`: the
    /// smallest `(deadline, seq)` among the lapsed deadlines, or `None`.
    fn next_due(&self, now: Tick) -> Option<usize> {
        (self.outstanding.iter().enumerate())
            .filter(|(_, entry)| entry.deadline <= now)
            .min_by_key(|(_, entry)| (entry.deadline, entry.seq))
            .map(|(position, _)| position)
    }

    /// Queues outstanding entry `position` again (same sequence id) and
    /// re-arms its deadline with exponential backoff, RTO · 2^(attempts − 1),
    /// capped at the policy's deadline so no wait exceeds it and the retry
    /// horizon stays a worst-case bound.  The deadline moves at least one
    /// tick ahead: a zero ack deadline retransmits once per tick instead of
    /// spending the whole attempt budget within one.
    fn retransmit(&mut self, position: usize, now: Tick, policy: &RetryPolicy) {
        let rto = self.rtt.rto(policy);
        let entry = &mut self.outstanding[position];
        entry.attempts += 1;
        let backoff = 1u64.checked_shl(entry.attempts - 1).unwrap_or(u64::MAX);
        let wait = rto
            .saturating_mul(backoff)
            .min(policy.ack_deadline_ticks)
            .max(1);
        entry.deadline = now.advance(wait);
        self.downlink.push(entry.payload.clone());
    }
}

/// One vehicle's RFC 6298 round-trip estimator, in integer ticks so replay
/// re-derives it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct RttEstimator {
    /// Smoothed round trip, scaled ×8 (`SRTT` in Jacobson's integer form);
    /// 0 until the first sample.  Samples are at least one tick, so a
    /// sampled estimator never reads 0.
    pub(super) srtt: u64,
    /// Round-trip variation, scaled ×4 (`RTTVAR`).
    pub(super) rttvar: u64,
}

impl RttEstimator {
    /// The retransmission timeout in ticks (RFC 6298 §2):
    /// `ack_deadline_ticks` until the first round trip is measured, then
    /// `srtt + max(1, 4·rttvar)` clamped to `[MIN_RTO_TICKS,
    /// ack_deadline_ticks]` (the ceiling wins when the two cross).
    pub(super) fn rto(&self, policy: &RetryPolicy) -> u64 {
        if self.srtt == 0 {
            return policy.ack_deadline_ticks;
        }
        // `rttvar` is scaled ×4, so it already reads 4·RTTVAR in ticks.
        let rto = (self.srtt >> 3).saturating_add(self.rttvar.max(1));
        rto.max(MIN_RTO_TICKS).min(policy.ack_deadline_ticks)
    }

    /// Folds one measured round trip of `rtt` ticks into the estimator
    /// (RFC 6298 §2.2–2.3, gains 1/8 and 1/4).
    pub(super) fn sample(&mut self, rtt: u64) {
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
    pub(super) fn note_dirty(&mut self, vehicle: &VehicleId, dirty: &mut Vec<VehicleId>) {
        let delivery = &mut self.delivery;
        if !delivery.in_dirty && !delivery.downlink.is_empty() {
            delivery.in_dirty = true;
            dirty.push(vehicle.clone());
        }
    }
}

impl TrustedServer {
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
            .map(|record| record.delivery.rtt.rto(&self.ctx.policy))
    }

    /// Downlink packages of `vehicle` still awaiting an acknowledgement.
    pub fn outstanding_count(&self, vehicle: &VehicleId) -> usize {
        self.vehicles
            .get(vehicle)
            .map(|v| v.delivery.outstanding.len())
            .unwrap_or(0)
    }

    /// Advances the reliability plane to `now`: every outstanding package
    /// whose deadline lapsed is either retransmitted (same sequence id) or —
    /// once its attempt budget is spent — escalated into a typed
    /// [`DynarError::RetryExhausted`], failing the owning operation.  The
    /// escalations are returned so harnesses can log or assert on them.
    ///
    /// A vehicle with nothing outstanding costs one check; otherwise its
    /// lapsed entries are handled in `(deadline, seq)` order, found by
    /// scanning its few outstanding entries.
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
            if record.delivery.outstanding.is_empty() {
                continue;
            }
            // A handled entry is removed, or re-armed at least one tick
            // ahead with one more attempt spent, so the loop ends.
            while let Some(position) = record.delivery.next_due(now) {
                if record.delivery.outstanding[position].attempts < policy.max_attempts {
                    record.delivery.retransmit(position, now, policy);
                    ledger.retransmissions += 1;
                    continue;
                }
                let entry = record.delivery.outstanding.remove(position);
                let error = DynarError::RetryExhausted {
                    operation: format!(
                        "delivery of management message seq {} for plug-in {} on {}",
                        entry.seq, entry.plugin, entry.ecu
                    ),
                    attempts: entry.attempts,
                };
                // Resolving the operation may abandon further entries of the
                // same app.
                ledger.retries_exhausted += 1;
                failures.push(Self::escalate(record, ledger, vehicle_id, entry, error));
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
    /// this tick or the next uplink, whichever comes first.  The value is
    /// exact: the earliest deadline of a package still outstanding.  Offline
    /// vehicles are skipped — their deadlines are frozen by contract.
    pub fn next_deadline(&self) -> Option<Tick> {
        (self.vehicles.values())
            .filter(|record| record.online)
            .flat_map(|record| record.delivery.outstanding.iter())
            .map(|entry| entry.deadline)
            .min()
    }

    /// Queues a tracked downlink package: assigns the next sequence id,
    /// encodes the envelope and records the outstanding-acknowledgement
    /// state used by [`TrustedServer::tick`].
    pub(super) fn push_tracked(
        record: &mut VehicleRecord,
        ctx: &OpCtx,
        ecu: EcuId,
        plugin: PluginId,
        app: AppId,
        kind: PendingKind,
        encode_message: impl FnOnce(&mut Vec<u8>),
    ) {
        let delivery = &mut record.delivery;
        let (seq, payload) =
            delivery.queue(ecu, record.boot_epoch, ctx.incarnation, encode_message);
        let now = ctx.now;
        let deadline = now.advance(delivery.rtt.rto(&ctx.policy));
        delivery.outstanding.push(OutstandingDownlink {
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
            .map(|v| std::mem::take(&mut v.delivery.downlink))
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
            record.delivery.in_dirty = false;
            // Parked queues stay parked (the entry re-arms via `note_dirty`
            // when the vehicle returns); an already-drained queue is a no-op.
            if !record.online || record.delivery.downlink.is_empty() {
                continue;
            }
            polls += 1;
            for payload in record.delivery.downlink.drain(..) {
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
        let rtt = &mut record.delivery.rtt;
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
            record.delivery.outstanding.retain(|o| {
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
        record.delivery.outstanding.retain(|o| {
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
    pub(super) fn resolve_if_complete(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        app: &AppId,
    ) {
        let Some(pending) = record.pending.get(app) else {
            return;
        };
        if !pending.awaiting.is_empty() {
            return;
        }
        let done = record.pending.remove(app).expect("entry present");
        // Whatever the outcome, abandon retransmissions tied to the settled
        // operation (relevant when a retry exhaustion resolves it).
        record.delivery.outstanding.retain(|o| &o.app != app);
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

    /// Gives up on `entry`, already taken out of `vehicle`'s delivery
    /// state: fails its plug-in in the owning operation with `error`,
    /// resolves the operation if nothing else is awaited, and returns the
    /// escalation to report.
    pub(super) fn escalate(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        vehicle: &VehicleId,
        entry: OutstandingDownlink,
        error: DynarError,
    ) -> RetryFailure {
        if let Some(pending) = record.pending.get_mut(&entry.app) {
            pending.awaiting.remove(&entry.plugin);
            pending.failure = Some(format!("{}: {error}", entry.plugin));
        }
        Self::resolve_if_complete(record, ledger, &entry.app);
        RetryFailure {
            vehicle: vehicle.clone(),
            app: entry.app,
            plugin: entry.plugin,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{ack, server_with_vehicle, state_report, tick};
    use dynar_core::message::AckStatus;
    use dynar_foundation::ids::AppId;

    #[test]
    fn next_deadline_is_the_earliest_outstanding_deadline() {
        let (mut server, user, vehicle) = server_with_vehicle();
        let app = AppId::new("remote-control");
        // COM and OP are pushed at tick 0 with the default 25-tick deadline.
        server.deploy(&user, &vehicle, &app).unwrap();
        assert_eq!(server.next_deadline(), Some(tick(25)));
        // An orphan uninstall pushed at tick 10 is due at 35.
        assert!(server.tick(tick(10)).is_empty());
        server
            .process_uplink(&vehicle, &state_report(0, vec![("GHOST", "ghost", 2)]))
            .unwrap();
        assert_eq!(server.outstanding_count(&vehicle), 3);
        assert_eq!(server.next_deadline(), Some(tick(25)));
        // Settling the two earlier packages leaves the later deadline.
        for (plugin, ecu) in [("COM", 1), ("OP", 2)] {
            let installed = ack(plugin, "remote-control", ecu, AckStatus::Installed);
            server.process_uplink(&vehicle, &installed).unwrap();
        }
        assert_eq!(server.outstanding_count(&vehicle), 1);
        assert_eq!(server.next_deadline(), Some(tick(35)));
    }
}

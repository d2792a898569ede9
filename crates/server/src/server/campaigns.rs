//! The campaign plane's glue: staged rollouts over the desired-state
//! manifests.  The campaign records and their gate arithmetic live in
//! [`crate::campaign`]; this module resolves selectors, exposes waves,
//! evaluates the health gates and applies the journaled verdicts.

use std::collections::BTreeSet;

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, UserId, VehicleId};

use super::TrustedServer;
use crate::campaign::{
    Campaign, CampaignEvent, CampaignId, CampaignSpec, CampaignStatus, VehicleSelector,
};
use crate::journal::JournalRecord;

impl TrustedServer {
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
    pub(super) fn campaign_apply_advance(&mut self, id: &CampaignId) -> usize {
        self.campaign_refresh_counters(id);
        self.campaign_expose_next_wave(id)
    }

    /// Applies a pause decision.
    pub(super) fn campaign_apply_pause(&mut self, id: &CampaignId) {
        self.campaign_refresh_counters(id);
        self.gate_health.remove(id);
        if let Some(campaign) = self.campaigns.get_mut(id) {
            campaign.status = CampaignStatus::Paused;
        }
    }

    /// Applies a resume decision, restarting the soak dwell.
    pub(super) fn campaign_apply_resume(&mut self, id: &CampaignId) {
        let now = self.ctx.now;
        if let Some(campaign) = self.campaigns.get_mut(id) {
            campaign.status = CampaignStatus::Running;
            campaign.wave_started = now;
        }
    }

    /// Applies a complete decision.
    pub(super) fn campaign_apply_complete(&mut self, id: &CampaignId) {
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
    pub(super) fn campaign_apply_abort(&mut self, id: &CampaignId) -> usize {
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
}

//! The lifecycle plane: the pusher of Figure 2 (deploy, uninstall,
//! restore), desired-state reconciliation, parking and returning vehicles,
//! and the resync from a vehicle's state report.

use std::collections::HashSet;
use std::sync::Arc;

use dynar_core::message::{encode_uninstall_into, ManagementMessage};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, UserId, VehicleId};
use dynar_foundation::time::Tick;

use super::{
    InstalledApp, OpCtx, PendingKind, PendingOperation, RetryFailure, RetryPolicy, TrustedServer,
    VehicleRecord,
};
use crate::journal::JournalRecord;
use crate::ledger::Ledger;

impl TrustedServer {
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
        let packages = Self::plan_for_record(record, &ctx.apps, app)?;
        // Reserve the port ids this deployment consumed.
        for (ecu, package) in &packages {
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
        }
        // The plan is stored once, as the pending operation's record, and
        // encoded once: each envelope copies its package's install message
        // out of the plan's bytes.
        let plan = InstalledApp::new(packages);
        Ok(Self::push_operation(
            record,
            ledger,
            ctx,
            app,
            plan,
            PendingKind::Install,
        ))
    }

    /// Pushes one tracked message per package of `plan` — its install
    /// message, or the uninstallation of its plug-in — and records them as
    /// `app`'s pending operation.  Returns the number of messages pushed.
    fn push_operation(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        ctx: &OpCtx,
        app: &AppId,
        plan: Arc<InstalledApp>,
        kind: PendingKind,
    ) -> usize {
        let mut awaiting = HashSet::with_capacity(plan.packages.len());
        for (index, (plugin, ecu)) in plan.plugins().enumerate() {
            awaiting.insert(plugin.clone());
            let message = |out: &mut Vec<u8>| match kind {
                PendingKind::Install => out.extend_from_slice(plan.install_message(index)),
                PendingKind::Uninstall => encode_uninstall_into(plugin, out),
            };
            Self::push_tracked(record, ctx, ecu, plugin.clone(), app.clone(), kind, message);
        }
        let count = plan.packages.len();
        let pushed = match kind {
            PendingKind::Install => &mut ledger.installs_pushed,
            PendingKind::Uninstall => &mut ledger.uninstalls_pushed,
        };
        *pushed += count as u64;
        record.pending.insert(
            app.clone(),
            PendingOperation {
                kind,
                awaiting,
                record: plan,
                failure: None,
            },
        );
        // A fresh operation supersedes whatever failure the last one left.
        record.failed.remove(app);
        count
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
        Ok(Self::push_operation(
            record,
            ledger,
            ctx,
            app,
            installed,
            PendingKind::Uninstall,
        ))
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
        // Sorted by app so the push order (and thus sequence-id assignment)
        // is deterministic — journal replay must reproduce it exactly.
        let mut apps: Vec<(&AppId, &Arc<InstalledApp>)> = record.installed.iter().collect();
        apps.sort_unstable_by(|a, b| a.0.cmp(b.0));
        // Restore pushes are fire-and-forget (no pending operation records
        // them), but they still consume sequence ids so gateway
        // deduplication and ordering stay uniform.
        let mut pushed = 0;
        for (_, installed) in apps {
            for (index, (_, target)) in installed.plugins().enumerate() {
                if target == ecu {
                    let install = installed.install_message(index);
                    record
                        .delivery
                        .queue(ecu, record.boot_epoch, self.ctx.incarnation, |out| {
                            out.extend_from_slice(install);
                        });
                    pushed += 1;
                }
            }
        }
        record.note_dirty(vehicle, &mut self.dirty);
        self.ledger.restores += pushed as u64;
        Ok(pushed)
    }

    // ------------------------------------------------------------------
    // Lifecycle & desired-state reconciliation
    // ------------------------------------------------------------------

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
    pub(super) fn reconcile_record(
        record: &mut VehicleRecord,
        ledger: &mut Ledger,
        ctx: &OpCtx,
    ) -> usize {
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
                pushed += Self::push_operation(
                    record,
                    ledger,
                    ctx,
                    app,
                    installed,
                    PendingKind::Uninstall,
                );
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
        let mut failures = Vec::new();
        for entry in record.delivery.void() {
            let error = DynarError::VehicleUnreachable {
                vehicle: vehicle.to_string(),
            };
            ledger.unreachable_failures += 1;
            failures.push(Self::escalate(record, ledger, vehicle, entry, error));
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
    pub(super) fn queue_report_request(record: &mut VehicleRecord, ecm: EcuId, incarnation: u32) {
        record
            .delivery
            .queue(ecm, record.boot_epoch, incarnation, |out| {
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
    pub(super) fn op_resync(
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
                || record.delivery.in_flight(plugin);
            if !accounted {
                Self::push_tracked(
                    record,
                    ctx,
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
            record.delivery.void();
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
            // whose deadlines are legitimately running.
            if !was_online {
                record.delivery.rearm(now, policy);
            }
            false
        }
    }
}

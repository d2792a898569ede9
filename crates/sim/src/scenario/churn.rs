//! The churn scenario: vehicles reboot, leave and join mid-wave while
//! desired-state reconciliation drives install/update waves over a lossy
//! transport.
//!
//! Where [`crate::scenario::chaos`] stresses the *reliability* plane (lossy
//! delivery of an otherwise static fleet), this scenario stresses the
//! *lifecycle* plane: the fleet membership itself churns while operations are
//! in flight.  Vehicles are driven declaratively — the operator only edits
//! each vehicle's desired manifest ([`TrustedServer::set_desired`] /
//! [`TrustedServer::clear_desired`]) and a periodic reconcile sweep closes
//! whatever gap loss, reboots and failures opened.
//!
//! What must hold at the end of a campaign:
//!
//! * **Convergence** — every *surviving* vehicle reaches exactly its desired
//!   manifest: the desired apps are `Installed` on the server, and the worker
//!   PIRTEs (the ground truth) host exactly the expected plug-ins.
//! * **No double-apply across reboots** — boot epochs keep pre-reboot
//!   stragglers away from the rebooted gateway's empty dedup window: no
//!   PIRTE of any incarnation ever rejects a duplicate operation.
//! * **Truth-resync** — state reports requested from every ECM after the
//!   campaign leave the server's observed state unchanged (its bookkeeping
//!   already matched the vehicles' reality).
//! * **Conservation** — `sent == delivered + lost + dropped (+ in-flight)`
//!   holds on the transport at every tick, reboots and removals included.
//! * **Fail-fast removal** — the removed vehicle's operations resolve with
//!   the distinct `vehicle unreachable` reason, never by burning the retry
//!   budget.

use dynar_fes::transport::{LinkFault, TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, VehicleId};
use dynar_server::server::{DeploymentStatus, RetryPolicy, TrustedServer};

use crate::scenario::fleet::{FleetScenario, FleetScenarioConfig, APP_TELEMETRY, APP_TELEMETRY_V2};

/// The churn events of one campaign, scheduled against the fleet tick.
/// Vehicle indices refer to the *initial* registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// `(tick, vehicle index)`: the vehicle reboots (losing all volatile ECM
    /// state) and recovers through the state-report protocol.
    pub reboots: Vec<(u64, usize)>,
    /// `(tick, vehicle index)`: the vehicle leaves the fleet for good while
    /// whatever is outstanding is still outstanding.
    pub removals: Vec<(u64, usize)>,
    /// Ticks at which a factory-fresh vehicle joins mid-run (and immediately
    /// desires the v1 app).
    pub additions: Vec<u64>,
}

/// How the churn campaign is sized, how hostile its transport is and when
/// its waves and churn events fire.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of vehicles registered at the start.
    pub vehicles: usize,
    /// Worker ECUs per vehicle.
    pub workers_per_vehicle: u16,
    /// Symmetric loss probability of the external transport.
    pub loss_probability: f64,
    /// Base delivery latency of the external transport.
    pub latency_ticks: u64,
    /// Per-link latency jitter in ticks (FIFO order is preserved).
    pub jitter_ticks: u64,
    /// Seed of the transport's fault models.
    pub seed: u64,
    /// Server-side retransmission policy.
    pub retry: RetryPolicy,
    /// Ticks between periodic reconcile sweeps (the convergent control
    /// loop; reboot recovery itself is event-driven and does not need it).
    pub reconcile_interval: u64,
    /// Tick at which the second half of the fleet desires v1 (the first half
    /// desires it at tick 0, so churn events overlap an active wave).
    pub second_wave_tick: u64,
    /// Tick at which `update_count` vehicles are updated v1 → v2.
    pub update_tick: u64,
    /// How many surviving vehicles are updated to v2.
    pub update_count: usize,
    /// Hard horizon for the whole campaign, in ticks.
    pub max_ticks: u64,
    /// The scheduled churn events.
    pub plan: ChurnPlan,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            vehicles: 8,
            workers_per_vehicle: 3,
            loss_probability: 0.10,
            latency_ticks: 1,
            jitter_ticks: 2,
            seed: 0xC0FFEE,
            retry: RetryPolicy::default(),
            reconcile_interval: 50,
            second_wave_tick: 40,
            update_tick: 260,
            update_count: 2,
            max_ticks: 3_000,
            plan: ChurnPlan {
                // Vehicle 0 reboots mid-install of wave 1; vehicle 3 reboots
                // again later, after it converged, to exercise re-resync.
                reboots: vec![(15, 0), (150, 3)],
                // Vehicle 1 leaves while its wave-1 operations are pending.
                removals: vec![(8, 1)],
                additions: vec![80],
            },
        }
    }
}

/// Outcome counters of one full churn campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Fleet ticks consumed by the whole campaign.
    pub ticks: u64,
    /// Vehicles in the fleet at the end (initial - removed + added).
    pub surviving: usize,
    /// Reboots executed.
    pub rebooted: usize,
    /// Vehicles removed mid-run.
    pub removed: usize,
    /// Vehicles added mid-run.
    pub added: usize,
    /// Operations escalated by the reliability/lifecycle plane (retry
    /// exhaustion and fail-fast unreachable failures combined).
    pub retry_failures: u64,
    /// Replacement installs the worker PIRTEs performed (server-driven
    /// convergence after lost acks; 0 unless acks were lost at the wrong
    /// moment).
    pub reinstalls: u64,
    /// Final transport statistics (conservation held at every tick).
    pub transport: TransportStats,
}

/// The fleet scenario wrapped in membership churn.
#[derive(Debug)]
pub struct ChurnScenario {
    /// The underlying fleet scenario (server, hub, vehicles, handles).
    pub inner: FleetScenario,
    config: ChurnConfig,
    /// Initial registration order (indices in [`ChurnPlan`] refer to this).
    initial_ids: Vec<VehicleId>,
    /// Ids removed so far (skipped by later events).
    removed_ids: Vec<VehicleId>,
}

impl ChurnScenario {
    /// Builds a churn scenario with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build() -> Result<Self> {
        Self::build_with(ChurnConfig::default())
    }

    /// Builds a churn scenario with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: ChurnConfig) -> Result<Self> {
        let mut inner = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: config.vehicles,
            workers_per_vehicle: config.workers_per_vehicle,
            transport: TransportConfig {
                latency_ticks: config.latency_ticks,
                loss_probability: config.loss_probability,
                seed: config.seed,
            },
            ..FleetScenarioConfig::default()
        })?;
        inner.fleet.server.set_retry_policy(config.retry.clone());
        let initial_ids: Vec<VehicleId> = inner.fleet.vehicle_ids().to_vec();
        let scenario = ChurnScenario {
            inner,
            config,
            initial_ids,
            removed_ids: Vec::new(),
        };
        for id in scenario.initial_ids.clone() {
            scenario_install_jitter(&scenario.inner, &id, scenario.config.jitter_ticks);
        }
        Ok(scenario)
    }

    /// The active configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Vehicles removed by the campaign so far.
    pub fn removed_ids(&self) -> &[VehicleId] {
        &self.removed_ids
    }

    /// One fleet tick under churn, asserting transport conservation.
    ///
    /// # Errors
    ///
    /// Propagates fleet step errors; returns
    /// [`DynarError::ProtocolViolation`] if conservation is violated.
    pub fn step(&mut self) -> Result<()> {
        self.inner.fleet.step()?;
        let stats = self.inner.fleet.transport_stats();
        if !stats.is_conserved() {
            return Err(DynarError::ProtocolViolation(format!(
                "transport stats conservation violated at tick {}: {stats:?}",
                self.inner.fleet.now()
            )));
        }
        Ok(())
    }

    /// Runs the full churn campaign: staggered v1 waves, scheduled reboots,
    /// removals and additions overlapping them, a v1 → v2 update of a subset,
    /// a periodic reconcile sweep closing every gap, and a final
    /// ground-truth verification round.
    ///
    /// # Errors
    ///
    /// Propagates step errors and invariant violations; returns
    /// [`DynarError::RetryExhausted`] if the fleet does not converge within
    /// the configured horizon.
    pub fn run(&mut self) -> Result<ChurnReport> {
        let user = self.inner.user.clone();
        let v1 = AppId::new(APP_TELEMETRY);
        let v2 = AppId::new(APP_TELEMETRY_V2);
        let mut report = ChurnReport::default();

        // Wave 1: the first half of the fleet desires v1.
        let half = self.initial_ids.len() / 2;
        for id in &self.initial_ids[..half] {
            self.inner.fleet.server.set_desired(&user, id, &v1)?;
        }

        let mut reboots = self.config.plan.reboots.clone();
        let mut removals = self.config.plan.removals.clone();
        let mut additions = self.config.plan.additions.clone();
        let mut second_wave_done = false;
        let mut update_done = false;
        let mut updated: Vec<VehicleId> = Vec::new();

        loop {
            let now = self.inner.fleet.now().as_u64();
            if now >= self.config.max_ticks {
                return Err(DynarError::RetryExhausted {
                    operation: format!(
                        "churn campaign convergence within {} ticks",
                        self.config.max_ticks
                    ),
                    attempts: u32::try_from(now).unwrap_or(u32::MAX),
                });
            }

            // --- Scheduled churn events -----------------------------------
            let mut due_reboots = Vec::new();
            reboots.retain(|&(tick, index)| {
                if tick <= now {
                    due_reboots.push(index);
                    false
                } else {
                    true
                }
            });
            for index in due_reboots {
                let id = self.initial_ids[index].clone();
                if self.removed_ids.contains(&id) {
                    continue;
                }
                self.inner.reboot_vehicle(&id)?;
                // Jitter faults are keyed by endpoint *name* and survive the
                // re-registration, so the rebooted link stays as hostile as
                // before.
                report.rebooted += 1;
            }
            let mut due_removals = Vec::new();
            removals.retain(|&(tick, index)| {
                if tick <= now {
                    due_removals.push(index);
                    false
                } else {
                    true
                }
            });
            for index in due_removals {
                let id = self.initial_ids[index].clone();
                if self.removed_ids.contains(&id) {
                    continue;
                }
                self.inner.remove_vehicle(&id)?;
                self.removed_ids.push(id);
                report.removed += 1;
            }
            let mut due_additions = 0usize;
            additions.retain(|&tick| {
                if tick <= now {
                    due_additions += 1;
                    false
                } else {
                    true
                }
            });
            for _ in 0..due_additions {
                let id = self.inner.add_vehicle_during_run()?;
                scenario_install_jitter(&self.inner, &id, self.config.jitter_ticks);
                self.inner.fleet.server.set_desired(&user, &id, &v1)?;
                report.added += 1;
            }

            // --- Staggered waves ------------------------------------------
            if !second_wave_done && now >= self.config.second_wave_tick {
                second_wave_done = true;
                for id in &self.initial_ids[half..] {
                    if self.removed_ids.contains(id) {
                        continue;
                    }
                    self.inner.fleet.server.set_desired(&user, id, &v1)?;
                }
            }
            if !update_done && now >= self.config.update_tick {
                update_done = true;
                updated = self
                    .inner
                    .fleet
                    .vehicle_ids()
                    .iter()
                    .take(self.config.update_count)
                    .cloned()
                    .collect();
                for id in updated.clone() {
                    self.inner.fleet.server.clear_desired(&user, &id, &v1)?;
                    self.inner.fleet.server.set_desired(&user, &id, &v2)?;
                }
            }

            // --- The convergent control loop ------------------------------
            if self.config.reconcile_interval > 0
                && now.is_multiple_of(self.config.reconcile_interval)
            {
                for id in self.inner.fleet.vehicle_ids().to_vec() {
                    super::unless_not_found(self.inner.fleet.server.reconcile(&id))?;
                }
            }

            self.step()?;

            // --- Done? ----------------------------------------------------
            let events_pending = !reboots.is_empty()
                || !removals.is_empty()
                || !additions.is_empty()
                || !second_wave_done
                || !update_done;
            if !events_pending && self.fleet_converged() {
                break;
            }
        }

        // Ground truth: ask every surviving ECM for a state report and let
        // the resync path confirm (or repair) the server's observed state;
        // requests and reports travel the same lossy links, so several
        // rounds are issued.
        for _ in 0..8 {
            for id in self.inner.fleet.vehicle_ids().to_vec() {
                super::unless_not_found(self.inner.fleet.server.request_state_report(&id))?;
            }
            for _ in 0..12 {
                self.step()?;
            }
            if self.fleet_converged() {
                break;
            }
        }
        self.verify_converged(&updated)?;

        report.ticks = self.inner.fleet.stats().ticks;
        report.surviving = self.inner.fleet.len();
        report.retry_failures = self.inner.fleet.stats().retry_failures;
        report.reinstalls = self
            .inner
            .handles()
            .iter()
            .flat_map(|h| h.workers.iter())
            .map(|(_, _, pirte)| pirte.lock().stats().reinstalls)
            .sum();
        report.transport = self.inner.fleet.transport_stats();
        Ok(report)
    }

    /// Returns `true` when every surviving vehicle reached exactly its
    /// desired manifest and nothing is pending or outstanding.
    pub fn fleet_converged(&self) -> bool {
        let server = &self.inner.fleet.server;
        self.inner.fleet.vehicle_ids().iter().all(|id| {
            server.pending_operations(id).is_empty()
                && server.outstanding_count(id) == 0
                && manifest_reached(server, id)
        })
    }

    /// Checks the campaign's end-state guarantees, naming the first vehicle
    /// that violates one.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] describing the violation.
    pub fn verify_converged(&self, updated: &[VehicleId]) -> Result<()> {
        let server = &self.inner.fleet.server;
        for handle in self.inner.handles() {
            let id = &handle.id;
            let desired = server.desired_manifest(id);
            for app in &desired {
                let status = server.deployment_status(id, app);
                if status != DeploymentStatus::Installed {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}: desired app {app} resolved to {status:?}, not Installed"
                    )));
                }
            }
            if updated.contains(id) && desired != vec![AppId::new(APP_TELEMETRY_V2)] {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}: updated vehicle's manifest is {desired:?}"
                )));
            }
            // Ground truth: the worker PIRTEs host exactly the plug-ins the
            // manifest implies — no leftovers, no double-applies.
            for (worker, _, pirte) in &handle.workers {
                let pirte = pirte.lock();
                let stats = pirte.stats();
                if stats.rejected_operations != 0 {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}/{worker}: {} rejected operations — a duplicate crossed \
                         a boot epoch or the dedup window",
                        stats.rejected_operations
                    )));
                }
                let mut expected: Vec<PluginId> = desired
                    .iter()
                    .map(|app| expected_plugin(app, *worker))
                    .collect();
                expected.sort();
                let mut actual: Vec<PluginId> = pirte
                    .plugin_states()
                    .into_iter()
                    .map(|(plugin, _)| plugin)
                    .collect();
                actual.sort();
                if actual != expected {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}/{worker}: PIRTE hosts {actual:?}, manifest implies {expected:?}"
                    )));
                }
                if !pirte.verify_compiled_routes() {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}/{worker}: compiled routes diverged"
                    )));
                }
            }
            // The server's observed state matches the ground truth the
            // state-report rounds just re-confirmed.
            let observed = server.installed_apps(id);
            if observed != desired {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}: observed {observed:?} diverges from desired {desired:?} \
                     after truth resync"
                )));
            }
        }
        // Removed vehicles failed fast with the distinct unreachable reason
        // (unless their wave had already fully converged before removal).
        for id in &self.removed_ids {
            if !server.pending_operations(id).is_empty() {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}: removed vehicle still has pending operations"
                )));
            }
            if let DeploymentStatus::Failed(reason) =
                server.deployment_status(id, &AppId::new(APP_TELEMETRY))
            {
                if !reason.contains("unreachable") {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}: removed vehicle failed with '{reason}', expected the \
                         distinct unreachable reason"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// `true` once `vehicle`'s server-side state equals its desired manifest.
fn manifest_reached(server: &TrustedServer, vehicle: &VehicleId) -> bool {
    let desired = server.desired_manifest(vehicle);
    server.installed_apps(vehicle) == desired
        && desired
            .iter()
            .all(|app| server.deployment_status(vehicle, app) == DeploymentStatus::Installed)
}

/// The plug-in id `app` places on `worker` (mirrors
/// [`crate::scenario::fleet::telemetry_app`]'s naming).
fn expected_plugin(app: &AppId, worker: EcuId) -> PluginId {
    let suffix = if app.name() == APP_TELEMETRY_V2 {
        "2"
    } else {
        ""
    };
    PluginId::new(format!("OP{suffix}-{worker}"))
}

/// Installs the scenario's jitter fault on both directions of one vehicle's
/// server link (faults are name-keyed and survive reboots).
fn scenario_install_jitter(inner: &FleetScenario, id: &VehicleId, jitter_ticks: u64) {
    if jitter_ticks == 0 {
        return;
    }
    let Some(endpoint) = inner.fleet.endpoint_of(id).map(str::to_owned) else {
        return;
    };
    let server = inner.fleet.server_endpoint().to_owned();
    inner
        .fleet
        .set_link_fault(&server, &endpoint, LinkFault::jittery(jitter_ticks));
    inner
        .fleet
        .set_link_fault(&endpoint, &server, LinkFault::jittery(jitter_ticks));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned-seed acceptance campaign (20 vehicles, 10 % loss) lives in
    // `tests/churn.rs`, which CI runs as its own step; the unit tests here
    // keep the scenario's building blocks honest at a smaller size.

    #[test]
    fn lossless_churn_converges_quickly() {
        let mut scenario = ChurnScenario::build_with(ChurnConfig {
            vehicles: 4,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            update_count: 1,
            second_wave_tick: 30,
            update_tick: 120,
            plan: ChurnPlan {
                reboots: vec![(10, 0)],
                removals: vec![(6, 1)],
                additions: vec![40],
            },
            ..ChurnConfig::default()
        })
        .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.rebooted, 1, "{report:?}");
        assert_eq!(report.removed, 1, "{report:?}");
        assert_eq!(report.added, 1, "{report:?}");
        assert_eq!(report.surviving, 4, "{report:?}");
        assert!(report.transport.is_conserved());
    }

    #[test]
    fn reboot_before_any_wave_recovers_to_an_empty_manifest() {
        let mut scenario = ChurnScenario::build_with(ChurnConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            reconcile_interval: 10,
            second_wave_tick: 5,
            update_tick: 10,
            update_count: 0,
            plan: ChurnPlan::default(),
            ..ChurnConfig::default()
        })
        .unwrap();
        // Manually reboot before anything is desired: the vehicle must come
        // back online purely through the announce/resync protocol.
        let id = scenario.inner.fleet.vehicle_ids()[0].clone();
        scenario.inner.reboot_vehicle(&id).unwrap();
        assert!(!scenario.inner.fleet.server.is_online(&id));
        for _ in 0..30 {
            scenario.step().unwrap();
        }
        assert!(
            scenario.inner.fleet.server.is_online(&id),
            "announce landed"
        );
        assert_eq!(scenario.inner.fleet.server.vehicle_boot_epoch(&id), Some(1));

        // Even with an empty manifest the server confirmed the epoch (a
        // state-report request is an own-epoch downlink), so the gateway
        // stops re-announcing: the external link goes and stays quiet.
        let before = scenario.inner.fleet.transport_stats().sent;
        for _ in 0..100 {
            scenario.step().unwrap();
        }
        let after = scenario.inner.fleet.transport_stats().sent;
        assert_eq!(
            before, after,
            "no unbounded re-announce traffic after confirmation"
        );
    }
}

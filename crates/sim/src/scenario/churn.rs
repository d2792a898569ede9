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
//! whatever gap loss, reboots and failures opened.  The drive loop, the
//! truth-resync rounds and the ground-truth verifier are
//! [`FleetScenario`]'s; this module adds the churn schedule and the checks
//! on updated and removed vehicles.
//!
//! [`TrustedServer::set_desired`]: dynar_server::server::TrustedServer::set_desired
//! [`TrustedServer::clear_desired`]: dynar_server::server::TrustedServer::clear_desired
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

use dynar_fes::transport::{TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, VehicleId};
use dynar_server::server::{DeploymentStatus, RetryPolicy};

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
        for id in &initial_ids {
            inner.set_link_jitter(id, config.jitter_ticks, None);
        }
        Ok(ChurnScenario {
            inner,
            config,
            initial_ids,
            removed_ids: Vec::new(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Vehicles removed by the campaign so far.
    pub fn removed_ids(&self) -> &[VehicleId] {
        &self.removed_ids
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

        // Events due on the same tick fire in this order: reboots,
        // removals, joins, the second wave, the update.
        let plan = &self.config.plan;
        let schedule: Vec<(u64, ChurnEvent)> = plan
            .reboots
            .iter()
            .map(|&(tick, index)| (tick, ChurnEvent::Reboot(index)))
            .chain(
                plan.removals
                    .iter()
                    .map(|&(tick, index)| (tick, ChurnEvent::Remove(index))),
            )
            .chain(plan.additions.iter().map(|&tick| (tick, ChurnEvent::Join)))
            .chain([
                (self.config.second_wave_tick, ChurnEvent::SecondWave),
                (self.config.update_tick, ChurnEvent::Update),
            ])
            .collect();
        let mut updated: Vec<VehicleId> = Vec::new();
        self.inner.drive(
            "churn campaign",
            self.config.max_ticks,
            self.config.reconcile_interval,
            schedule,
            |inner, event| {
                match event {
                    ChurnEvent::Reboot(index) => {
                        let id = &self.initial_ids[index];
                        if !self.removed_ids.contains(id) {
                            // Jitter faults are keyed by endpoint *name* and
                            // survive the re-registration, so the rebooted
                            // link stays as hostile as before.
                            inner.reboot_vehicle(id)?;
                            report.rebooted += 1;
                        }
                    }
                    ChurnEvent::Remove(index) => {
                        let id = &self.initial_ids[index];
                        if !self.removed_ids.contains(id) {
                            inner.remove_vehicle(id)?;
                            self.removed_ids.push(id.clone());
                            report.removed += 1;
                        }
                    }
                    ChurnEvent::Join => {
                        let id = inner.add_vehicle_during_run()?;
                        inner.set_link_jitter(&id, self.config.jitter_ticks, None);
                        inner.fleet.server.set_desired(&user, &id, &v1)?;
                        report.added += 1;
                    }
                    ChurnEvent::SecondWave => {
                        for id in &self.initial_ids[half..] {
                            if !self.removed_ids.contains(id) {
                                inner.fleet.server.set_desired(&user, id, &v1)?;
                            }
                        }
                    }
                    ChurnEvent::Update => {
                        updated = inner
                            .fleet
                            .vehicle_ids()
                            .iter()
                            .take(self.config.update_count)
                            .cloned()
                            .collect();
                        for id in &updated {
                            inner.fleet.server.clear_desired(&user, id, &v1)?;
                            inner.fleet.server.set_desired(&user, id, &v2)?;
                        }
                    }
                }
                Ok(())
            },
            |inner| Ok(inner.fleet_converged()),
        )?;

        self.inner.truth_resync()?;
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

    /// Checks the campaign's end-state guarantees: the shared ground-truth
    /// check [`FleetScenario::verify`], every `updated` vehicle on exactly
    /// v2, and every removed vehicle failed fast with the distinct
    /// unreachable reason (unless its wave had already converged before
    /// removal).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] describing the first
    /// violation.
    pub fn verify_converged(&self, updated: &[VehicleId]) -> Result<()> {
        self.inner.verify()?;
        let server = &self.inner.fleet.server;
        for id in updated {
            let desired = server.desired_manifest(id);
            if desired != vec![AppId::new(APP_TELEMETRY_V2)] {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}: updated vehicle's manifest is {desired:?}"
                )));
            }
        }
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

/// One scheduled churn event; vehicle indices refer to the initial
/// registration order.
#[derive(Debug, Clone, Copy)]
enum ChurnEvent {
    Reboot(usize),
    Remove(usize),
    Join,
    SecondWave,
    Update,
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
            scenario.inner.step().unwrap();
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
            scenario.inner.step().unwrap();
        }
        let after = scenario.inner.fleet.transport_stats().sent;
        assert_eq!(
            before, after,
            "no unbounded re-announce traffic after confirmation"
        );
    }
}

//! The chaos scenario: the fleet scenario run over a *lossy* federation
//! link, exercising the reliability plane end to end.
//!
//! The scenario drives install → update (uninstall + reinstall) waves across
//! a fleet whose external transport loses 1–20 % of all messages, adds
//! latency jitter, and suffers a temporary partition between the trusted
//! server and part of the fleet.  It asserts the properties the federation
//! reliability plane guarantees:
//!
//! * **Convergence** — every management operation ends `Installed`,
//!   `NotInstalled` (after an uninstall) or typed-`Failed` within the
//!   server's retry horizon; nothing stays `Pending` forever.
//! * **Idempotence** — retransmitted installs are deduplicated at the ECM
//!   gateway: no PIRTE ever sees a duplicate operation
//!   (`rejected_operations == 0`, plug-in counts never exceed one per app).
//! * **Conservation** — the transport accounts for every message at every
//!   tick: `sent == delivered + lost + dropped (+ in-flight)`.

use dynar_fes::transport::{TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, VehicleId};
use dynar_foundation::time::Tick;
use dynar_server::server::{DeploymentStatus, RetryPolicy};

use crate::scenario::fleet::{FleetScenario, FleetScenarioConfig, APP_TELEMETRY, APP_TELEMETRY_V2};

/// A temporary partition between the trusted server and part of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Fleet tick at which the partition starts.
    pub start_tick: u64,
    /// How long the partition lasts before it heals.
    pub duration_ticks: u64,
    /// How many vehicles (the first `n` in registration order) are cut off.
    pub vehicles: usize,
}

/// How the chaos scenario is sized and how hostile its transport is.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle.
    pub workers_per_vehicle: u16,
    /// Symmetric loss probability of the external transport (`0.01..=0.20`
    /// is the range the scenario is designed for).
    pub loss_probability: f64,
    /// Uplink-only loss override (asymmetric loss); `None` keeps the
    /// symmetric probability.
    pub uplink_loss_probability: Option<f64>,
    /// Base delivery latency of the external transport.
    pub latency_ticks: u64,
    /// Per-link latency jitter in ticks (FIFO order is preserved).
    pub jitter_ticks: u64,
    /// Seed of the transport's fault models.
    pub seed: u64,
    /// The temporary partition injected while the first wave is in flight.
    pub partition: Option<PartitionPlan>,
    /// Server-side retransmission policy.
    pub retry: RetryPolicy,
    /// Convergence horizon per wave, in ticks.
    pub max_ticks_per_wave: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            vehicles: 6,
            workers_per_vehicle: 3,
            loss_probability: 0.10,
            uplink_loss_probability: None,
            latency_ticks: 1,
            jitter_ticks: 2,
            seed: 0xC4A05,
            partition: Some(PartitionPlan {
                start_tick: 5,
                duration_ticks: 50,
                vehicles: 2,
            }),
            retry: RetryPolicy::default(),
            max_ticks_per_wave: 600,
        }
    }
}

/// Outcome counters of one full chaos run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Fleet ticks consumed by the whole run.
    pub ticks: u64,
    /// Vehicles whose v1 install converged to `Installed`.
    pub installed_v1: usize,
    /// Vehicles whose v1 install converged to a typed failure.
    pub failed_v1: usize,
    /// Vehicles whose v1 uninstall converged to `NotInstalled`.
    pub uninstalled: usize,
    /// Vehicles whose v2 install converged to `Installed`.
    pub installed_v2: usize,
    /// Operations escalated by the server after exhausting retries.
    pub retry_failures: u64,
    /// Final transport statistics (conservation holds at every tick).
    pub transport: TransportStats,
}

/// The fleet scenario wrapped in a hostile transport.
#[derive(Debug)]
pub struct ChaosScenario {
    /// The underlying fleet scenario (server, hub, vehicles, handles).
    pub inner: FleetScenario,
    config: ChaosConfig,
    partition_injected: bool,
}

impl ChaosScenario {
    /// Builds a chaos scenario with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build() -> Result<Self> {
        Self::build_with(ChaosConfig::default())
    }

    /// Builds a chaos scenario with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: ChaosConfig) -> Result<Self> {
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
        // Jitter on both directions, asymmetric loss on the uplink when
        // configured.
        for id in inner.fleet.vehicle_ids() {
            inner.set_link_jitter(id, config.jitter_ticks, config.uplink_loss_probability);
        }

        Ok(ChaosScenario {
            inner,
            config,
            partition_injected: false,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// One fleet tick under chaos: injects the scheduled partition when its
    /// start tick is reached, then takes the checked
    /// [`FleetScenario::step`].
    ///
    /// # Errors
    ///
    /// Propagates [`FleetScenario::step`] errors.
    pub fn step(&mut self) -> Result<()> {
        if let Some(plan) = &self.config.partition {
            if !self.partition_injected && self.inner.fleet.now().as_u64() >= plan.start_tick {
                let heal_at = Tick::new(plan.start_tick + plan.duration_ticks);
                let server = self.inner.fleet.server_endpoint().to_owned();
                let cut: Vec<String> = self
                    .inner
                    .fleet
                    .vehicle_ids()
                    .iter()
                    .take(plan.vehicles)
                    .filter_map(|id| self.inner.fleet.endpoint_of(id).map(str::to_owned))
                    .collect();
                for endpoint in cut {
                    self.inner.fleet.partition(&server, &endpoint, heal_at);
                }
                self.partition_injected = true;
            }
        }
        self.inner.step()
    }

    /// Ticks until no target has a `Pending` operation for `app` any more
    /// (every operation resolved to installed, uninstalled or typed-failed),
    /// returning the ticks consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::RetryExhausted`] if convergence is not reached
    /// within the configured per-wave horizon, and propagates step errors.
    pub fn converge(&mut self, app: &AppId, targets: &[VehicleId]) -> Result<u64> {
        let resolved = |scenario: &Self| {
            targets.iter().all(|v| {
                !matches!(
                    scenario.inner.fleet.server.deployment_status(v, app),
                    DeploymentStatus::Pending { .. }
                )
            })
        };
        for tick in 0..self.config.max_ticks_per_wave {
            if resolved(self) {
                return Ok(tick);
            }
            self.step()?;
        }
        if resolved(self) {
            return Ok(self.config.max_ticks_per_wave);
        }
        Err(DynarError::RetryExhausted {
            operation: format!("convergence of {app} across {} vehicles", targets.len()),
            attempts: u32::try_from(self.config.max_ticks_per_wave).unwrap_or(u32::MAX),
        })
    }

    /// Runs the full chaos campaign: install v1 everywhere, then update the
    /// convergent vehicles to v2 (uninstall + reinstall), all under loss,
    /// jitter and the scheduled partition.
    ///
    /// # Errors
    ///
    /// Propagates convergence timeouts, step errors and invariant
    /// violations — a clean run means the reliability plane held.
    pub fn run(&mut self) -> Result<ChaosReport> {
        let user = self.inner.user.clone();
        let v1 = AppId::new(APP_TELEMETRY);
        let v2 = AppId::new(APP_TELEMETRY_V2);
        let all: Vec<VehicleId> = self.inner.fleet.vehicle_ids().to_vec();
        let mut report = ChaosReport::default();

        // --- Wave 1: install v1 everywhere, partition mid-flight ----------
        self.inner.fleet.deploy_wave(&user, &v1, &all)?;
        self.converge(&v1, &all)?;
        let mut survivors = Vec::new();
        for vehicle in &all {
            match self.inner.fleet.server.deployment_status(vehicle, &v1) {
                DeploymentStatus::Installed => {
                    report.installed_v1 += 1;
                    survivors.push(vehicle.clone());
                }
                DeploymentStatus::Failed(_) => report.failed_v1 += 1,
                other => {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{vehicle}: v1 install resolved to unexpected status {other:?}"
                    )))
                }
            }
        }

        // --- Wave 2: uninstall v1 from the survivors ----------------------
        for vehicle in &survivors {
            self.inner.fleet.server.uninstall(&user, vehicle, &v1)?;
        }
        self.converge(&v1, &survivors)?;
        let mut empty = Vec::new();
        for vehicle in &survivors {
            match self.inner.fleet.server.deployment_status(vehicle, &v1) {
                DeploymentStatus::NotInstalled => {
                    report.uninstalled += 1;
                    empty.push(vehicle.clone());
                }
                DeploymentStatus::Failed(_) => {}
                other => {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{vehicle}: v1 uninstall resolved to unexpected status {other:?}"
                    )))
                }
            }
        }

        // --- Wave 3: install v2 on the emptied vehicles -------------------
        self.inner.fleet.deploy_wave(&user, &v2, &empty)?;
        self.converge(&v2, &empty)?;
        for vehicle in &empty {
            if self.inner.fleet.server.deployment_status(vehicle, &v2)
                == DeploymentStatus::Installed
            {
                report.installed_v2 += 1;
            }
        }

        // Drain: let in-flight duplicates arrive and be deduplicated.
        for _ in 0..20 {
            self.step()?;
        }

        self.verify_no_duplicates()?;
        report.ticks = self.inner.fleet.stats().ticks;
        report.retry_failures = self.inner.fleet.stats().retry_failures;
        report.transport = self.inner.fleet.transport_stats();
        Ok(report)
    }

    /// Checks the idempotence guarantee through
    /// [`FleetScenario::verify_workers`] (no rejected operation, compiled
    /// routes equal to a fresh compile) with chaos's own rule: at most one
    /// plug-in per worker, since a typed failure may leave a worker empty.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] naming the first worker
    /// that saw a duplicate.
    pub fn verify_no_duplicates(&self) -> Result<()> {
        self.inner.verify_workers(|id, worker, pirte| {
            let count = pirte.plugin_count();
            if count > 1 {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}/{worker}: {count} plug-ins installed, at most 1 expected"
                )));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The default-configuration acceptance campaign (10 % loss + 50-tick
    // partition) lives in `tests/chaos.rs`, which CI runs as its own step;
    // the unit tests here cover the other corners of the loss range.

    #[test]
    fn chaos_at_twenty_percent_loss_with_asymmetric_uplink() {
        let mut scenario = ChaosScenario::build_with(ChaosConfig {
            vehicles: 3,
            loss_probability: 0.20,
            uplink_loss_probability: Some(0.05),
            partition: None,
            seed: 0xBADF00D,
            ..ChaosConfig::default()
        })
        .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.installed_v1 + report.failed_v1, 3, "{report:?}");
        assert!(report.transport.lost > 0);
    }

    #[test]
    fn one_percent_loss_is_barely_noticeable() {
        let mut scenario = ChaosScenario::build_with(ChaosConfig {
            vehicles: 4,
            loss_probability: 0.01,
            jitter_ticks: 0,
            partition: None,
            ..ChaosConfig::default()
        })
        .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.installed_v1, 4, "{report:?}");
        assert_eq!(report.installed_v2, 4, "{report:?}");
        assert_eq!(report.retry_failures, 0);
    }
}

//! The campaign scenario: staged fleet-wide rollouts driven by the server's
//! campaign plane — canary waves, health gates, auto-abort and rollback —
//! over the full vehicle stack.
//!
//! Where [`crate::scenario::churn`] drives the desired-state plane by hand
//! (the operator edits manifests vehicle by vehicle), this scenario hands the
//! whole rollout to [`create_campaign`]: the operator declares
//! *one* campaign (app, selector, wave plan, health gate) and the fleet tick
//! loop evaluates the gate every round via `TrustedServer::step_campaigns`.
//! Three campaign shapes are covered:
//!
//! * **Flash crowd** — every vehicle is eligible at once (canary = fleet
//!   size, no ramps): one wave exposes the whole fleet and the campaign
//!   completes once every install converged and soaked.
//! * **Bad-version canary** — the rollout ships an application whose plug-in
//!   binaries cannot even be parsed by the worker PIRTEs: every canary
//!   install fails vehicle-side, the abort gate trips before the ramp waves
//!   open, and the rollback restores each exposed vehicle's recorded
//!   last-good manifest.  Fleet exposure must stay below the canary fraction
//!   — the blast radius of a bad version is the canary wave, never the fleet.
//! * **Rollback under fire** — the same bad-version abort with transport
//!   loss and vehicles rebooting mid-wave: rollback must converge through
//!   the ordinary reconciliation loop against whatever the churn left.
//!
//! End-state guarantees (checked by the shared ground-truth verifier,
//! [`FleetScenario::verify`], after [`FleetScenario::truth_resync`]): every
//! vehicle's server-observed state equals its desired manifest, the worker
//! PIRTEs (ground truth) host exactly the plug-ins the manifest implies, and
//! no PIRTE of any incarnation rejected a duplicate operation — rollbacks
//! never double-apply.
//!
//! [`create_campaign`]: dynar_server::server::TrustedServer::create_campaign

use dynar_fes::transport::{TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, UserId, VehicleId};
use dynar_server::campaign::{
    Campaign, CampaignId, CampaignSpec, CampaignStatus, HealthGate, VehicleSelector, WavePlan,
};
use dynar_server::model::{AppDefinition, PluginArtifact, SwConf};
use dynar_server::server::RetryPolicy;

pub use crate::scenario::fleet::APP_TELEMETRY_BAD;
use crate::scenario::fleet::{
    expected_plugin, worker_ids, FleetScenario, FleetScenarioConfig, APP_TELEMETRY, FLEET_MODEL,
};

/// How the campaign scenario is sized, how hostile its transport is, the
/// rollout's wave plan/health gate and the churn scheduled against it.
#[derive(Debug, Clone)]
pub struct CampaignScenarioConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle.
    pub workers_per_vehicle: u16,
    /// Symmetric loss probability of the external transport.
    pub loss_probability: f64,
    /// Base delivery latency of the external transport.
    pub latency_ticks: u64,
    /// Seed of the transport's fault models.
    pub seed: u64,
    /// Server-side retransmission policy.
    pub retry: RetryPolicy,
    /// Canary size of the rollout's first wave.
    pub canary: usize,
    /// Cumulative percentage ramps after the canary wave.
    pub ramp_percent: Vec<u32>,
    /// Minimum dwell per wave before the gate may advance it.
    pub min_soak_ticks: u64,
    /// Failed-vehicle count that aborts the campaign (0 disables).
    pub abort_failed: u64,
    /// Ticks between periodic reconcile sweeps.
    pub reconcile_interval: u64,
    /// Hard horizon for the whole campaign, in ticks.
    pub max_ticks: u64,
    /// `(tick offset, vehicle index)`: scheduled mid-wave reboots.  Offsets
    /// are relative to the start of [`CampaignScenario::drive`]; indices
    /// refer to the initial registration order.
    pub reboots: Vec<(u64, usize)>,
}

impl Default for CampaignScenarioConfig {
    fn default() -> Self {
        CampaignScenarioConfig {
            vehicles: 50,
            workers_per_vehicle: 3,
            loss_probability: 0.0,
            latency_ticks: 1,
            seed: 0xCA4ABA5E,
            retry: RetryPolicy::default(),
            canary: 2,
            ramp_percent: vec![25, 50, 100],
            min_soak_ticks: 30,
            abort_failed: 1,
            reconcile_interval: 50,
            max_ticks: 6_000,
            reboots: Vec::new(),
        }
    }
}

/// Outcome of one full campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Fleet ticks consumed.
    pub ticks: u64,
    /// Terminal campaign status.
    pub status: CampaignStatus,
    /// Vehicles the campaign exposed (had their manifest rewritten).
    pub exposed: u64,
    /// Exposed vehicles whose install converged.
    pub succeeded: u64,
    /// Exposed vehicles whose install failed.
    pub failed: u64,
    /// Vehicles rolled back to their last-good manifest.
    pub rolled_back: u64,
    /// Reboots executed mid-campaign.
    pub rebooted: usize,
    /// Operations escalated by the reliability plane.
    pub retry_failures: u64,
    /// Final transport statistics (conservation held at every tick).
    pub transport: TransportStats,
}

/// The fleet scenario wrapped around one server-orchestrated campaign.
#[derive(Debug)]
pub struct CampaignScenario {
    /// The underlying fleet scenario (server, hub, vehicles, handles).
    pub inner: FleetScenario,
    config: CampaignScenarioConfig,
    /// Initial registration order (reboot indices refer to this).
    initial_ids: Vec<VehicleId>,
}

/// Builds the bad-version telemetry app: same shape as the fleet's
/// telemetry apps (one plug-in per worker ECU, placed on it), but with
/// binaries that fail PIRTE-side validation — the trusted server's static
/// checks pass, the vehicle rejects the install, and the failure surfaces
/// through the ordinary ack path into the campaign's health gate.
///
/// # Errors
///
/// Never fails today; kept fallible to match the app-builder signatures.
pub fn bad_telemetry_app(workers: u16) -> Result<AppDefinition> {
    let app = AppId::new(APP_TELEMETRY_BAD);
    let mut definition = AppDefinition::new(app.clone());
    let mut conf = SwConf::new(FLEET_MODEL);
    for worker in worker_ids(workers) {
        let op_id = expected_plugin(&app, worker);
        definition = definition.with_plugin(PluginArtifact {
            id: op_id.clone(),
            binary: vec![0xFF; 8],
            ports: Vec::new(),
        });
        conf = conf.with_placement(op_id, worker);
    }
    Ok(definition.with_sw_conf(conf))
}

impl CampaignScenario {
    /// Builds a campaign scenario with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build() -> Result<Self> {
        Self::build_with(CampaignScenarioConfig::default())
    }

    /// Builds a campaign scenario with an explicit configuration.  The
    /// bad-version app is uploaded alongside the fleet's telemetry apps so
    /// any run can roll it out.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: CampaignScenarioConfig) -> Result<Self> {
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
        inner
            .fleet
            .server
            .upload_app(bad_telemetry_app(config.workers_per_vehicle)?)?;
        let initial_ids = inner.fleet.vehicle_ids().to_vec();
        Ok(CampaignScenario {
            inner,
            config,
            initial_ids,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &CampaignScenarioConfig {
        &self.config
    }

    /// The campaign spec the configuration describes, rolling out `app`
    /// (replacing `replaces` where installed) across the whole fleet.
    pub fn spec(&self, id: &str, app: &str, replaces: Option<&str>) -> CampaignSpec {
        CampaignSpec {
            id: CampaignId::new(id),
            app: AppId::new(app),
            replaces: replaces.map(AppId::new),
            selector: VehicleSelector::All,
            plan: WavePlan {
                canary: self.config.canary,
                ramp_percent: self.config.ramp_percent.clone(),
            },
            gate: HealthGate {
                min_soak_ticks: self.config.min_soak_ticks,
                pause_failed: 0,
                abort_failed: self.config.abort_failed,
            },
        }
    }

    /// Converges the whole fleet on the v1 telemetry app through the desired
    /// plane — the baseline state an update campaign then rewrites.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::RetryExhausted`] if the fleet does not converge
    /// within the configured horizon.
    pub fn converge_on_v1(&mut self) -> Result<()> {
        let user = self.inner.user.clone();
        let v1 = AppId::new(APP_TELEMETRY);
        for id in &self.initial_ids {
            self.inner.fleet.server.set_desired(&user, id, &v1)?;
        }
        let no_events: Vec<(u64, usize)> = Vec::new();
        self.inner.drive(
            "v1",
            self.config.max_ticks,
            self.config.reconcile_interval,
            no_events,
            |_, _| Ok(()),
            |inner| Ok(inner.fleet_converged()),
        )
    }

    /// Creates the campaign and drives it to a verified end state — see
    /// [`CampaignScenario::drive`].
    ///
    /// # Errors
    ///
    /// Propagates campaign-creation and drive errors.
    pub fn run_campaign(&mut self, spec: CampaignSpec) -> Result<CampaignReport> {
        let user = self.inner.user.clone();
        let id = spec.id.clone();
        self.inner.fleet.server.create_campaign(&user, spec)?;
        self.drive(&id)
    }

    /// Runs the fleet until the (already created) campaign reaches a
    /// terminal status *and* every vehicle converged on its (possibly
    /// rolled-back) manifest, with the configured reboots (tick offsets
    /// relative to this call) and reconcile sweeps firing along the way.
    /// Ends with a ground-truth verification round.  The fleet tick itself
    /// evaluates the campaign gates (`TrustedServer::step_campaigns` runs
    /// at the serial point of every round).
    ///
    /// # Errors
    ///
    /// Propagates step errors and invariant violations; returns
    /// [`DynarError::RetryExhausted`] on horizon exhaustion.
    pub fn drive(&mut self, id: &CampaignId) -> Result<CampaignReport> {
        let start = self.inner.fleet.now().as_u64();
        let schedule: Vec<(u64, usize)> = self
            .config
            .reboots
            .iter()
            .map(|&(offset, index)| (start + offset, index))
            .collect();
        let mut rebooted = 0usize;
        self.inner.drive(
            "campaign",
            start + self.config.max_ticks,
            self.config.reconcile_interval,
            schedule,
            |inner, index| {
                inner.reboot_vehicle(&self.initial_ids[index])?;
                rebooted += 1;
                Ok(())
            },
            |inner| {
                let status = campaign_of(inner, id)?.status;
                let terminal = matches!(status, CampaignStatus::Complete | CampaignStatus::Aborted);
                Ok(terminal && inner.fleet_converged())
            },
        )?;

        self.inner.truth_resync()?;
        self.inner.verify()?;

        let campaign = campaign_of(&self.inner, id)?;
        Ok(CampaignReport {
            ticks: self.inner.fleet.stats().ticks,
            status: campaign.status,
            exposed: campaign.counters.exposed,
            succeeded: campaign.counters.succeeded,
            failed: campaign.counters.failed,
            rolled_back: campaign.counters.rolled_back,
            rebooted,
            retry_failures: self.inner.fleet.stats().retry_failures,
            transport: self.inner.fleet.transport_stats(),
        })
    }

    /// The fleet-ops user driving the campaign.
    pub fn user(&self) -> &UserId {
        &self.inner.user
    }
}

/// The campaign `id` on the fleet's server.
fn campaign_of<'a>(inner: &'a FleetScenario, id: &CampaignId) -> Result<&'a Campaign> {
    inner
        .fleet
        .server
        .campaign(id)
        .ok_or_else(|| DynarError::not_found("campaign", id))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned-seed acceptance campaigns (50 vehicles, the canary
    // auto-abort and the lossy rollback) live in `tests/campaign.rs`, which
    // CI runs as its own step; the unit tests here keep the scenario's
    // building blocks honest at a smaller size.

    #[test]
    fn flash_crowd_single_wave_completes() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 6,
            workers_per_vehicle: 2,
            canary: 6,
            ramp_percent: Vec::new(),
            min_soak_ticks: 10,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        let spec = scenario.spec("flash-v1", APP_TELEMETRY, None);
        let report = scenario.run_campaign(spec).unwrap();
        assert_eq!(report.status, CampaignStatus::Complete, "{report:?}");
        assert_eq!(report.exposed, 6, "whole fleet in one wave");
        assert_eq!(report.succeeded, 6, "{report:?}");
        assert_eq!(report.rolled_back, 0, "{report:?}");
        assert!(report.transport.is_conserved());
    }

    #[test]
    fn staged_rollout_ramps_through_waves_to_completion() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 8,
            workers_per_vehicle: 2,
            canary: 1,
            ramp_percent: vec![50, 100],
            min_soak_ticks: 15,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        let spec = scenario.spec("staged-v1", APP_TELEMETRY, None);
        let report = scenario.run_campaign(spec).unwrap();
        assert_eq!(report.status, CampaignStatus::Complete, "{report:?}");
        assert_eq!(report.exposed, 8, "{report:?}");
        assert_eq!(report.succeeded, 8, "{report:?}");
        let campaign = scenario
            .inner
            .fleet
            .server
            .campaign(&CampaignId::new("staged-v1"))
            .unwrap();
        assert_eq!(campaign.wave, 3, "canary, 50 %, 100 %");
    }

    #[test]
    fn bad_version_canary_aborts_and_rolls_back() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 6,
            workers_per_vehicle: 2,
            canary: 1,
            ramp_percent: vec![50, 100],
            min_soak_ticks: 20,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        scenario.converge_on_v1().unwrap();

        let spec = scenario.spec("bad-v2", APP_TELEMETRY_BAD, Some(APP_TELEMETRY));
        let report = scenario.run_campaign(spec).unwrap();
        assert_eq!(report.status, CampaignStatus::Aborted, "{report:?}");
        assert_eq!(report.exposed, 1, "the canary only — no ramp opened");
        assert_eq!(report.failed, 1, "{report:?}");
        assert_eq!(report.rolled_back, 1, "{report:?}");

        // The rollback reinstalled v1 everywhere it was exposed: verified
        // against the PIRTE ground truth by `run_campaign` already; the
        // manifest view agrees.
        let v1 = AppId::new(APP_TELEMETRY);
        for id in scenario.inner.fleet.vehicle_ids().to_vec() {
            assert_eq!(
                scenario.inner.fleet.server.desired_manifest(&id),
                vec![v1.clone()],
                "{id}: back on (or still on) v1"
            );
        }
    }
}

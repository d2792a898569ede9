//! The server-restart scenario: the trusted server crashes mid-campaign and
//! recovers from its write-ahead journal while the fleet keeps living.
//!
//! Where [`crate::scenario::churn`] stresses *vehicle* lifecycle (reboots,
//! removals, joins), this scenario stresses the *server's* lifecycle: at a
//! scheduled tick the server process is killed — everything that only lived
//! in its memory is gone — and a successor is reconstructed by replaying the
//! journal ([`TrustedServer::replay`]).  The successor announces itself to
//! the fleet by bumping its **incarnation id**
//! ([`TrustedServer::begin_incarnation`]), the downlink-side mirror of the
//! vehicles' `boot_epoch`, and re-solicits a state report from every gateway.
//!
//! What must hold:
//!
//! * **Byte identity** — the replayed server's durability snapshot
//!   (`snapshot_bytes`) and operation ledger are *byte-for-byte identical*
//!   to the crashed process's at the moment of the crash.  Recovery is not
//!   "close enough"; it is exact.
//! * **Convergence across both epoch axes** — the campaign converges even
//!   with a vehicle reboot (boot-epoch bump) landing inside the server's
//!   recovery window (incarnation bump).
//! * **No double-apply** — no PIRTE of any incarnation rejects a duplicate
//!   operation, and every actuator value is divisible by exactly the
//!   manifest's gain: stale pre-crash downlinks and post-recovery re-pushes
//!   never apply twice.
//! * **Conservation** — `sent == delivered + lost + dropped + in-flight`
//!   holds on the transport at every tick, the crash included (the transport
//!   outlives the server process, as the real network would).
//! * **Durability survives recovery** — the successor journals too; replaying
//!   *its* journal at the end of the campaign is byte-identical again.

use dynar_fes::transport::{LinkFault, TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, PluginId, VehicleId};
use dynar_server::server::{DeploymentStatus, RetryPolicy, TrustedServer};

use crate::scenario::fleet::{FleetScenario, FleetScenarioConfig, APP_TELEMETRY};

/// How the restart campaign is sized, how hostile its transport is, and when
/// the crash and the concurrent vehicle reboot fire.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Number of vehicles in the fleet.
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
    /// Ticks between periodic reconcile sweeps.
    pub reconcile_interval: u64,
    /// Journal compaction interval (records between snapshots).
    pub compaction_interval: u32,
    /// Tick at which the server process crashes and is replayed.
    pub crash_tick: u64,
    /// `(tick, vehicle index)`: a vehicle reboot scheduled to land inside
    /// the server's recovery window, putting both epoch axes in motion.
    pub reboot: Option<(u64, usize)>,
    /// Hard horizon for the whole campaign, in ticks.
    pub max_ticks: u64,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            vehicles: 8,
            workers_per_vehicle: 3,
            loss_probability: 0.10,
            latency_ticks: 1,
            jitter_ticks: 2,
            seed: 0xD1ED,
            retry: RetryPolicy::default(),
            reconcile_interval: 50,
            compaction_interval: 64,
            // Mid-install of the wave: packages are in flight, acks pending.
            crash_tick: 12,
            // The reboot lands right after the crash, inside the recovery
            // window, so a boot-epoch bump races the incarnation bump.
            reboot: Some((14, 1)),
            max_ticks: 3_000,
        }
    }
}

/// Outcome counters of one full restart campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Fleet ticks consumed by the whole campaign.
    pub ticks: u64,
    /// Tick at which the crash happened.
    pub crashed_at: u64,
    /// Size of the journal replayed at the crash, in bytes.
    pub journal_bytes: usize,
    /// Server incarnation id at the end (1 = exactly one recovery).
    pub incarnation: u32,
    /// Vehicle reboots executed concurrently with the recovery.
    pub rebooted: usize,
    /// Operations escalated by the reliability plane.
    pub retry_failures: u64,
    /// Final transport statistics (conservation held at every tick).
    pub transport: TransportStats,
}

/// The fleet scenario wrapped in a mid-campaign server crash and recovery.
#[derive(Debug)]
pub struct RestartScenario {
    /// The underlying fleet scenario (server, hub, vehicles, handles).
    pub inner: FleetScenario,
    config: RestartConfig,
}

impl RestartScenario {
    /// Builds a restart scenario with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build() -> Result<Self> {
        Self::build_with(RestartConfig::default())
    }

    /// Builds a restart scenario with an explicit configuration.  The
    /// server's journal is enabled from the start — a control plane that
    /// only starts journaling after the crash has nothing to replay.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: RestartConfig) -> Result<Self> {
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
            .enable_journal(config.compaction_interval);
        let scenario = RestartScenario { inner, config };
        for id in scenario.inner.fleet.vehicle_ids().to_vec() {
            scenario.install_jitter(&id);
        }
        Ok(scenario)
    }

    /// The active configuration.
    pub fn config(&self) -> &RestartConfig {
        &self.config
    }

    /// One fleet tick, asserting transport conservation.
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

    /// Kills the server process and replays its journal into a successor,
    /// asserting byte identity first.  The successor re-enables journaling
    /// (a recovered control plane must be just as durable as the original)
    /// and bumps its incarnation id, re-stamping everything still queued or
    /// outstanding and soliciting a state report from every gateway.
    ///
    /// Returns the size of the replayed journal in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] if the replayed server is
    /// not byte-identical to the crashed one, and propagates replay errors.
    pub fn crash_and_recover(&mut self) -> Result<usize> {
        let journal = self
            .inner
            .fleet
            .server
            .journal_bytes()
            .ok_or_else(|| {
                DynarError::ProtocolViolation("crash scheduled but journaling is off".into())
            })?
            .to_vec();
        let mut replayed = TrustedServer::replay(&journal)?;

        // Byte identity: the recovered state *is* the crashed state.
        let live = self.inner.fleet.server.snapshot_bytes();
        if replayed.snapshot_bytes() != live {
            return Err(DynarError::ProtocolViolation(
                "replayed server diverges from the crashed one".into(),
            ));
        }
        if replayed.ledger() != self.inner.fleet.server.ledger() {
            return Err(DynarError::ProtocolViolation(
                "replayed ledger diverges from the crashed one".into(),
            ));
        }

        // The successor is a durable server too, and announces itself.
        replayed.enable_journal(self.config.compaction_interval);
        replayed.begin_incarnation();
        // The crashed process is dropped here — everything it only held in
        // memory dies with it, exactly as a real crash would lose it.
        let _crashed = std::mem::replace(&mut self.inner.fleet.server, replayed);
        Ok(journal.len())
    }

    /// Runs the full restart campaign: a fleet-wide v1 install wave driven
    /// declaratively, the scheduled crash + journal recovery mid-wave, a
    /// vehicle reboot landing inside the recovery window, a periodic
    /// reconcile sweep closing every gap, and a final ground-truth
    /// verification round.
    ///
    /// # Errors
    ///
    /// Propagates step errors and invariant violations; returns
    /// [`DynarError::RetryExhausted`] if the fleet does not converge within
    /// the configured horizon.
    pub fn run(&mut self) -> Result<RestartReport> {
        let user = self.inner.user.clone();
        let v1 = AppId::new(APP_TELEMETRY);
        let mut report = RestartReport::default();

        // The whole fleet desires v1 at tick 0: the crash lands mid-wave.
        for id in self.inner.fleet.vehicle_ids().to_vec() {
            self.inner.fleet.server.set_desired(&user, &id, &v1)?;
        }

        let mut crash_pending = true;
        let mut reboot_pending = self.config.reboot;

        loop {
            let now = self.inner.fleet.now().as_u64();
            if now >= self.config.max_ticks {
                return Err(DynarError::RetryExhausted {
                    operation: format!(
                        "restart campaign convergence within {} ticks",
                        self.config.max_ticks
                    ),
                    attempts: u32::try_from(now).unwrap_or(u32::MAX),
                });
            }

            if crash_pending && now >= self.config.crash_tick {
                crash_pending = false;
                report.crashed_at = now;
                report.journal_bytes = self.crash_and_recover()?;
            }
            if let Some((tick, index)) = reboot_pending {
                if now >= tick {
                    reboot_pending = None;
                    let id = self.inner.fleet.vehicle_ids()[index].clone();
                    self.inner.reboot_vehicle(&id)?;
                    report.rebooted += 1;
                }
            }

            if self.config.reconcile_interval > 0
                && now.is_multiple_of(self.config.reconcile_interval)
            {
                for id in self.inner.fleet.vehicle_ids().to_vec() {
                    let _ = self.inner.fleet.server.reconcile(&id);
                }
            }

            self.step()?;

            if !crash_pending && reboot_pending.is_none() && self.fleet_converged() {
                break;
            }
        }

        // Ground truth: state-report rounds over the same lossy links.
        for _ in 0..8 {
            for id in self.inner.fleet.vehicle_ids().to_vec() {
                let _ = self.inner.fleet.server.request_state_report(&id);
            }
            for _ in 0..12 {
                self.step()?;
            }
            if self.fleet_converged() {
                break;
            }
        }
        self.verify_converged()?;

        // The recovered server is durable too: replaying the journal it has
        // been writing since the crash reproduces it byte-for-byte.
        let successor_journal = self
            .inner
            .fleet
            .server
            .journal_bytes()
            .expect("successor journals")
            .to_vec();
        let shadow = TrustedServer::replay(&successor_journal)?;
        if shadow.snapshot_bytes() != self.inner.fleet.server.snapshot_bytes() {
            return Err(DynarError::ProtocolViolation(
                "post-recovery journal replay diverges".into(),
            ));
        }

        report.ticks = self.inner.fleet.stats().ticks;
        report.incarnation = self.inner.fleet.server.incarnation();
        report.retry_failures = self.inner.fleet.stats().retry_failures;
        report.transport = self.inner.fleet.transport_stats();
        Ok(report)
    }

    /// Returns `true` when every vehicle reached exactly its desired
    /// manifest and nothing is pending or outstanding.
    pub fn fleet_converged(&self) -> bool {
        let server = &self.inner.fleet.server;
        self.inner.fleet.vehicle_ids().iter().all(|id| {
            let desired = server.desired_manifest(id);
            server.pending_operations(id).is_empty()
                && server.outstanding_count(id) == 0
                && server.installed_apps(id) == desired
                && desired
                    .iter()
                    .all(|app| server.deployment_status(id, app) == DeploymentStatus::Installed)
        })
    }

    /// Checks the campaign's end-state guarantees, naming the first vehicle
    /// that violates one.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] describing the violation.
    pub fn verify_converged(&self) -> Result<()> {
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
            // Ground truth: the worker PIRTEs host exactly the plug-ins the
            // manifest implies, and no incarnation of any PIRTE ever saw a
            // duplicate — neither a stale pre-crash downlink nor a
            // post-recovery re-push applied twice.
            for (worker, _, pirte) in &handle.workers {
                let pirte = pirte.lock();
                let stats = pirte.stats();
                if stats.rejected_operations != 0 {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{id}/{worker}: {} rejected operations — a duplicate crossed \
                         an epoch axis or the dedup window",
                        stats.rejected_operations
                    )));
                }
                let mut expected: Vec<PluginId> = desired
                    .iter()
                    .map(|_| PluginId::new(format!("OP-{worker}")))
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
            let observed = server.installed_apps(id);
            if observed != desired {
                return Err(DynarError::ProtocolViolation(format!(
                    "{id}: observed {observed:?} diverges from desired {desired:?} \
                     after truth resync"
                )));
            }
        }
        Ok(())
    }

    /// Installs the scenario's jitter fault on both directions of one
    /// vehicle's server link (faults are name-keyed and survive reboots —
    /// and the server crash, since the transport outlives the process).
    fn install_jitter(&self, id: &VehicleId) {
        if self.config.jitter_ticks == 0 {
            return;
        }
        let Some(endpoint) = self.inner.fleet.endpoint_of(id).map(str::to_owned) else {
            return;
        };
        let server = self.inner.fleet.server_endpoint().to_owned();
        self.inner.fleet.set_link_fault(
            &server,
            &endpoint,
            LinkFault::jittery(self.config.jitter_ticks),
        );
        self.inner.fleet.set_link_fault(
            &endpoint,
            &server,
            LinkFault::jittery(self.config.jitter_ticks),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned-seed acceptance campaign (12 vehicles, 10 % loss) lives in
    // `tests/server_restart.rs`, which CI runs as its own step; the unit
    // tests here keep the scenario's building blocks honest at a smaller
    // size and without loss.

    #[test]
    fn lossless_crash_recovery_converges() {
        let mut scenario = RestartScenario::build_with(RestartConfig {
            vehicles: 3,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            crash_tick: 4,
            reboot: Some((6, 0)),
            ..RestartConfig::default()
        })
        .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.incarnation, 1, "{report:?}");
        assert_eq!(report.rebooted, 1, "{report:?}");
        assert!(report.journal_bytes > 0, "{report:?}");
        assert!(report.transport.is_conserved());
    }

    #[test]
    fn aggressive_compaction_preserves_recovery() {
        // A snapshot every 4 records: the crash almost certainly lands with
        // most of the history folded into the snapshot frame, exercising the
        // snapshot ⊕ tail replay path rather than a pure record replay.
        let mut scenario = RestartScenario::build_with(RestartConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            compaction_interval: 4,
            crash_tick: 6,
            reboot: None,
            ..RestartConfig::default()
        })
        .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.incarnation, 1, "{report:?}");
        assert_eq!(report.rebooted, 0, "{report:?}");
    }

    #[test]
    fn crash_before_any_package_was_pushed_recovers() {
        let mut scenario = RestartScenario::build_with(RestartConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            crash_tick: 0,
            reboot: None,
            ..RestartConfig::default()
        })
        .unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.crashed_at, 0, "{report:?}");
        assert_eq!(report.incarnation, 1, "{report:?}");
    }
}

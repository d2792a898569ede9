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
//!
//! The crash and the reboot are two events of one [`FleetScenario::drive`]
//! schedule; convergence is checked by [`FleetScenario::verify`].

use dynar_fes::transport::{TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::AppId;
use dynar_server::server::{RetryPolicy, TrustedServer};

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
        for id in inner.fleet.vehicle_ids() {
            inner.set_link_jitter(id, config.jitter_ticks, None);
        }
        Ok(RestartScenario { inner, config })
    }

    /// The active configuration.
    pub fn config(&self) -> &RestartConfig {
        &self.config
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

        // On a shared tick the crash fires before the reboot.
        let schedule: Vec<(u64, RestartEvent)> = [(self.config.crash_tick, RestartEvent::Crash)]
            .into_iter()
            .chain(
                self.config
                    .reboot
                    .map(|(tick, index)| (tick, RestartEvent::Reboot(index))),
            )
            .collect();
        let compaction_interval = self.config.compaction_interval;
        self.inner.drive(
            "restart campaign",
            self.config.max_ticks,
            self.config.reconcile_interval,
            schedule,
            |inner, event| {
                match event {
                    RestartEvent::Crash => {
                        report.crashed_at = inner.fleet.now().as_u64();
                        report.journal_bytes = crash_and_recover(inner, compaction_interval)?;
                    }
                    RestartEvent::Reboot(index) => {
                        let id = inner.fleet.vehicle_ids()[index].clone();
                        inner.reboot_vehicle(&id)?;
                        report.rebooted += 1;
                    }
                }
                Ok(())
            },
            |inner| Ok(inner.fleet_converged()),
        )?;

        // Ground truth: state-report rounds over the same lossy links.  No
        // incarnation of any PIRTE may have seen a duplicate — neither a
        // stale pre-crash downlink nor a post-recovery re-push applied twice.
        self.inner.truth_resync()?;
        self.inner.verify()?;

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
}

/// One scheduled restart event.
#[derive(Debug, Clone, Copy)]
enum RestartEvent {
    /// The server process crashes and is replayed from its journal.
    Crash,
    /// The vehicle at this index reboots.
    Reboot(usize),
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
fn crash_and_recover(inner: &mut FleetScenario, compaction_interval: u32) -> Result<usize> {
    let journal = inner
        .fleet
        .server
        .journal_bytes()
        .ok_or_else(|| {
            DynarError::ProtocolViolation("crash scheduled but journaling is off".into())
        })?
        .to_vec();
    let mut replayed = TrustedServer::replay(&journal)?;

    // Byte identity: the recovered state *is* the crashed state.
    let live = inner.fleet.server.snapshot_bytes();
    if replayed.snapshot_bytes() != live {
        return Err(DynarError::ProtocolViolation(
            "replayed server diverges from the crashed one".into(),
        ));
    }
    if replayed.ledger() != inner.fleet.server.ledger() {
        return Err(DynarError::ProtocolViolation(
            "replayed ledger diverges from the crashed one".into(),
        ));
    }

    // The successor is a durable server too, and announces itself.
    replayed.enable_journal(compaction_interval);
    replayed.begin_incarnation();
    // The crashed process is dropped here — everything it only held in
    // memory dies with it, exactly as a real crash would lose it.
    let _crashed = std::mem::replace(&mut inner.fleet.server, replayed);
    Ok(journal.len())
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

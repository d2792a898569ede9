//! Campaign-plane acceptance, pinned for CI: staged rollouts with health
//! gates at fleet scale, the canary auto-abort with bounded blast radius,
//! rollback under loss and churn, and the durability of campaign state.
//!
//! * **Flash crowd** — all 50 vehicles are eligible at once: a single wave
//!   exposes the fleet and completes after the soak.
//! * **Canary auto-abort** — a bad version (binaries no PIRTE can parse)
//!   rolls out behind a 2-vehicle canary: the abort gate trips before any
//!   ramp wave opens, fleet exposure stays below 5 %, and every exposed
//!   vehicle is rolled back to its recorded last-good manifest — verified
//!   against the ECM state reports *and* the worker PIRTEs' ground truth,
//!   with zero double-applied operations.
//! * **Rollback under fire** — the same abort under 10 % transport loss
//!   while exposed canaries reboot mid-wave.
//! * **Reproducibility** — the same seeded abort campaign under loss, run
//!   twice, ends in byte-for-byte identical server state.  (Equivalence
//!   across lane layouts, campaign included, is `tests/lane_equivalence.rs`.)
//! * **Crash replay** — a journaled server crashed mid-campaign (and again
//!   after the terminal decision) is reconstructed byte-identically from its
//!   write-ahead journal.

use dynar::server::campaign::{CampaignId, CampaignStatus};
use dynar::server::{Ledger, TrustedServer};
use dynar::sim::scenario::campaign::{
    CampaignReport, CampaignScenario, CampaignScenarioConfig, APP_TELEMETRY_BAD,
};
use dynar::sim::scenario::fleet::{APP_TELEMETRY, APP_TELEMETRY_V2};
use dynar::sim::FleetStats;

/// The pinned fleet size of the acceptance campaigns.
const FLEET: usize = 50;

#[test]
fn flash_crowd_campaign_converges_the_whole_fleet_in_one_wave() {
    let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: FLEET,
        canary: FLEET,
        ramp_percent: Vec::new(),
        min_soak_ticks: 20,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    let spec = scenario.spec("flash-v1", APP_TELEMETRY, None);
    let report = scenario.run_campaign(spec).expect("flash crowd converges");
    assert_eq!(report.status, CampaignStatus::Complete, "{report:?}");
    assert_eq!(report.exposed, FLEET as u64, "one wave, whole fleet");
    assert_eq!(report.succeeded, FLEET as u64, "{report:?}");
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(report.rolled_back, 0, "{report:?}");
    assert!(report.transport.is_conserved(), "{report:?}");
}

/// Runs the bad-version canary campaign and asserts the abort contract:
/// exposure bounded by the canary wave, every exposed vehicle restored.
fn assert_canary_abort(mut scenario: CampaignScenario) -> CampaignReport {
    scenario.converge_on_v1().expect("fleet converges on v1");
    let spec = scenario.spec("bad-v2", APP_TELEMETRY_BAD, Some(APP_TELEMETRY));
    let canary = scenario.config().canary as u64;
    // `run_campaign` has already re-audited every vehicle against the ECM
    // state reports and the PIRTE ground truth (including the zero
    // rejected-operations — i.e. zero double-apply — invariant) before
    // returning.
    let report = scenario.run_campaign(spec).expect("abort converges");
    assert_eq!(report.status, CampaignStatus::Aborted, "{report:?}");
    assert_eq!(report.exposed, canary, "no ramp wave ever opened");
    assert!(
        (report.exposed as f64) < 0.05 * FLEET as f64,
        "blast radius {} of {FLEET} breaches the 5 % bound",
        report.exposed
    );
    assert_eq!(
        report.rolled_back, report.exposed,
        "every exposed vehicle rolled back: {report:?}"
    );
    let ledger = scenario.inner.fleet.server.ledger();
    assert_eq!(ledger.campaigns_aborted, 1, "{ledger:?}");
    assert_eq!(ledger.campaign_exposures, report.exposed, "{ledger:?}");
    assert_eq!(ledger.campaign_rollbacks, report.rolled_back, "{ledger:?}");
    report
}

#[test]
fn bad_version_canary_auto_aborts_below_five_percent_exposure() {
    let scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: FLEET,
        canary: 2,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    let report = assert_canary_abort(scenario);
    assert_eq!(report.rebooted, 0, "{report:?}");
}

#[test]
fn rollback_converges_under_loss_with_mid_wave_reboots() {
    let scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: FLEET,
        canary: 2,
        loss_probability: 0.10,
        latency_ticks: 2,
        min_soak_ticks: 40,
        max_ticks: 12_000,
        // Both exposed canaries (the selector sorts, so the first two
        // vehicles in registration order) reboot while their bad install
        // is in flight.
        reboots: vec![(12, 0), (25, 1)],
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    let report = assert_canary_abort(scenario);
    assert_eq!(report.rebooted, 2, "{report:?}");
    assert!(report.transport.is_conserved(), "{report:?}");
}

/// One full bad-version abort campaign under 5 % loss, returning everything
/// a rerun must reproduce.
fn lossy_abort_campaign() -> (Vec<u8>, Ledger, FleetStats) {
    let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: 12,
        canary: 2,
        loss_probability: 0.05,
        latency_ticks: 2,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    scenario.converge_on_v1().expect("fleet converges on v1");
    let spec = scenario.spec("bad-v2", APP_TELEMETRY_BAD, Some(APP_TELEMETRY));
    let report = scenario.run_campaign(spec).expect("abort converges");
    assert_eq!(report.status, CampaignStatus::Aborted, "{report:?}");
    (
        scenario.inner.fleet.server.snapshot_bytes(),
        scenario.inner.fleet.server.ledger(),
        scenario.inner.fleet.stats().clone(),
    )
}

#[test]
fn lossy_abort_campaign_is_byte_for_byte_reproducible() {
    let (snapshot, ledger, stats) = lossy_abort_campaign();
    let (rerun_snapshot, rerun_ledger, rerun_stats) = lossy_abort_campaign();
    assert_eq!(snapshot, rerun_snapshot, "campaign snapshot diverged");
    assert_eq!(ledger, rerun_ledger, "campaign ledger diverged");
    assert_eq!(stats, rerun_stats, "fleet counters diverged");
}

#[test]
fn mid_campaign_crash_replays_byte_identically() {
    let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: 12,
        canary: 2,
        ramp_percent: vec![50, 100],
        min_soak_ticks: 25,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    scenario.inner.fleet.server.enable_journal(4096);
    scenario.converge_on_v1().expect("fleet converges on v1");

    let id = CampaignId::new("good-v2");
    let spec = scenario.spec("good-v2", APP_TELEMETRY_V2, Some(APP_TELEMETRY));
    let user = scenario.user().clone();
    scenario
        .inner
        .fleet
        .server
        .create_campaign(&user, spec)
        .expect("campaign creates");
    for _ in 0..10 {
        scenario.step().expect("fleet steps");
    }

    // Crash point: the campaign is mid-flight — waves open, acks in the
    // air, decisions journaled.  The successor must be byte-identical.
    let campaign = scenario
        .inner
        .fleet
        .server
        .campaign(&id)
        .expect("campaign exists");
    assert_eq!(
        campaign.status,
        CampaignStatus::Running,
        "crash point must land mid-campaign"
    );
    let journal = scenario
        .inner
        .fleet
        .server
        .journal_bytes()
        .expect("journal enabled")
        .to_vec();
    let successor = TrustedServer::replay(&journal).expect("mid-campaign journal replays");
    assert_eq!(
        successor.snapshot_bytes(),
        scenario.inner.fleet.server.snapshot_bytes(),
        "mid-campaign crash replay diverged"
    );

    // Drive the original to its terminal decision and replay once more:
    // the full decision alphabet (create/advance/complete) round-trips.
    let report = scenario.drive(&id).expect("rollout completes");
    assert_eq!(report.status, CampaignStatus::Complete, "{report:?}");
    let journal = scenario
        .inner
        .fleet
        .server
        .journal_bytes()
        .expect("journal enabled")
        .to_vec();
    let successor = TrustedServer::replay(&journal).expect("terminal journal replays");
    let bytes = scenario.inner.fleet.server.snapshot_bytes();
    assert_eq!(
        successor.snapshot_bytes(),
        bytes,
        "terminal crash replay diverged"
    );
}

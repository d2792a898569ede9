//! Campaign orchestration: staged fleet-wide rollouts over the desired-state
//! plane.
//!
//! A [`Campaign`] targets a set of vehicles (a [`VehicleSelector`] resolved at
//! creation time) with a new application version and advances through
//! **waves**: a canary of [`WavePlan::canary`] vehicles first, then cumulative
//! percentage ramps, each wave rewriting the per-vehicle desired manifests and
//! letting the ordinary reconciliation loop converge them.  A [`HealthGate`]
//! evaluated on every server tick — predicates over acknowledged installs,
//! [`DeploymentStatus::Failed`] counts (which fold in retry exhaustions and
//! the vehicles' own state-report telemetry, since both resolve into the
//! per-vehicle failure records), with a minimum **soak dwell** per wave —
//! decides whether the campaign advances, pauses or aborts.  An abort rewrites
//! every touched vehicle's desired manifest back to the **last-good** set
//! recorded at exposure time, so the rollback converges through the very same
//! reconciliation loop the rollout used (rollback is a manifest restore, *not*
//! a blanket uninstall).
//!
//! Campaign state is first-class in the durability plane: creation and every
//! automatic or manual transition is journaled
//! (`JournalRecord::Campaign{Create,Advance,Pause,Resume,Abort,Complete}`),
//! and the campaigns ride in the canonical snapshot, so
//! [`TrustedServer::replay`] reproduces a mid-campaign server byte-for-byte —
//! at any shard count, because campaigns are serial bookkeeping layered on top
//! of the sharded per-vehicle state.
//!
//! [`DeploymentStatus::Failed`]: crate::server::DeploymentStatus::Failed
//! [`TrustedServer::replay`]: crate::server::TrustedServer::replay

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dynar_foundation::codec;
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, UserId, VehicleId};
use dynar_foundation::time::Tick;
use dynar_foundation::value::Value;

/// Identifier of one rollout campaign.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(String);

impl CampaignId {
    /// Creates a campaign identifier from its unique name.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignId(name.into())
    }

    /// Returns the campaign name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign:{}", self.0)
    }
}

/// Which vehicles a campaign targets.  Resolved once, at creation time,
/// against the registered fleet (restricted to vehicles bound to the creating
/// user); the resolved target list is recorded on the campaign so the wave
/// arithmetic stays stable while the fleet churns underneath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VehicleSelector {
    /// Every vehicle bound to the creating user.
    All,
    /// Every bound vehicle of the given vehicle model
    /// (`SystemSwConf::model`).
    Model(String),
    /// An explicit vehicle list (unknown or unbound vehicles are dropped at
    /// resolution time).
    Vehicles(Vec<VehicleId>),
}

/// How a campaign's exposure grows: an absolute canary first, then
/// cumulative fleet-percentage ramps.  A final 100% wave is implied if the
/// last ramp stops short of the whole target set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavePlan {
    /// Vehicles in the first (canary) wave, clamped to at least 1 and at
    /// most the target-set size.
    pub canary: usize,
    /// Cumulative exposure targets of the following waves, in percent of the
    /// target set (values above 100 are clamped).  Each wave's target is at
    /// least the previous wave's, so exposure never shrinks.
    pub ramp_percent: Vec<u32>,
}

impl WavePlan {
    /// The cumulative number of vehicles exposed once `wave` waves have
    /// been opened, out of `total` targets.  Wave 0 is "nothing exposed
    /// yet"; wave 1 is the canary.
    pub fn cumulative_target(&self, wave: usize, total: usize) -> usize {
        if wave == 0 || total == 0 {
            return 0;
        }
        let mut target = self.canary.clamp(1, total);
        for ramp in self.ramp_percent.iter().take(wave.saturating_sub(1)) {
            let pct = u64::from((*ramp).min(100));
            let ramp_target = usize::try_from((pct * total as u64).div_ceil(100)).unwrap_or(total);
            target = target.max(ramp_target);
        }
        if wave > self.ramp_percent.len() + 1 {
            target = total;
        }
        target.min(total)
    }

    /// The number of waves needed to expose all `total` targets.
    pub fn wave_count(&self, total: usize) -> usize {
        let mut waves = 1;
        while self.cumulative_target(waves, total) < total {
            waves += 1;
        }
        waves
    }
}

impl Default for WavePlan {
    fn default() -> Self {
        WavePlan {
            canary: 1,
            ramp_percent: vec![25, 50, 100],
        }
    }
}

/// The per-wave health predicates evaluated each tick while a campaign runs.
/// Failure counts are taken over *every* vehicle the campaign has exposed so
/// far: a vehicle whose deployment of the campaign app resolved
/// [`DeploymentStatus::Failed`] — by a NACK from the field, by retry
/// exhaustion, or by a state-report resync contradicting the rollout — counts
/// as failed until a later reconciliation round repairs it.
///
/// [`DeploymentStatus::Failed`]: crate::server::DeploymentStatus::Failed
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthGate {
    /// Minimum ticks a wave must soak (all exposed vehicles healthy) before
    /// the campaign may advance to the next wave.
    pub min_soak_ticks: u64,
    /// Pause the campaign once this many exposed vehicles are failed
    /// (0 disables pausing).  A paused campaign holds its exposure until it
    /// is resumed or aborted.
    pub pause_failed: u64,
    /// Abort the campaign — and roll every exposed vehicle back to its
    /// recorded last-good manifest — once this many exposed vehicles are
    /// failed (0 disables auto-abort).
    pub abort_failed: u64,
}

impl Default for HealthGate {
    fn default() -> Self {
        HealthGate {
            min_soak_ticks: 50,
            pause_failed: 0,
            abort_failed: 1,
        }
    }
}

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Waves are being exposed and the health gate is evaluated each tick.
    Running,
    /// Exposure is frozen (gate trip or operator request) until the
    /// campaign is resumed or aborted.
    Paused,
    /// The campaign was aborted; every exposed vehicle's desired manifest
    /// was rewritten back to its recorded last-good set.
    Aborted,
    /// Every target converged to the new version.
    Complete,
}

/// Per-campaign accounting.  `rolled_back` counts manifest *restores* — a
/// rollback is not an uninstall: the replaced version returns to the desired
/// manifest and reconciliation reinstalls it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounters {
    /// Vehicles whose desired manifest the campaign has rewritten so far.
    pub exposed: u64,
    /// Exposed vehicles whose install of the campaign app was acknowledged
    /// (as of the last journaled campaign transition).
    pub succeeded: u64,
    /// Exposed vehicles whose install of the campaign app is failed (as of
    /// the last journaled campaign transition).
    pub failed: u64,
    /// Vehicles restored to their last-good manifest by an abort.
    pub rolled_back: u64,
}

/// What an operator submits to start a campaign (also the journaled create
/// record's payload — the target resolution replays deterministically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The campaign's unique identifier.
    pub id: CampaignId,
    /// The application version being rolled out.
    pub app: AppId,
    /// The predecessor version removed from each exposed vehicle's desired
    /// manifest (an update campaign), or `None` for a pure install rollout.
    pub replaces: Option<AppId>,
    /// Which vehicles to target.
    pub selector: VehicleSelector,
    /// How exposure grows.
    pub plan: WavePlan,
    /// The health predicates gating each wave.
    pub gate: HealthGate,
}

/// One staged rollout over the desired-state plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// The campaign's unique identifier.
    pub id: CampaignId,
    /// The operator who created the campaign (wave rewrites act with this
    /// user's authority).
    pub user: UserId,
    /// The application version being rolled out.
    pub app: AppId,
    /// The predecessor version removed on exposure, if any.
    pub replaces: Option<AppId>,
    /// The selector the targets were resolved from.
    pub selector: VehicleSelector,
    /// The resolved target vehicles, sorted; wave arithmetic indexes into
    /// this list.
    pub targets: Vec<VehicleId>,
    /// The wave plan.
    pub plan: WavePlan,
    /// The health gate.
    pub gate: HealthGate,
    /// Lifecycle state.
    pub status: CampaignStatus,
    /// Waves opened so far (1 = canary exposed).
    pub wave: usize,
    /// The tick the current wave was opened (soak dwell baseline).
    pub wave_started: Tick,
    /// The last-good desired manifest of every exposed vehicle, recorded the
    /// moment the campaign first touched it — what an abort restores.
    pub last_good: BTreeMap<VehicleId, BTreeSet<AppId>>,
    /// Per-campaign accounting.
    pub counters: CampaignCounters,
}

impl Campaign {
    /// A freshly created campaign with nothing exposed yet.
    pub(crate) fn new(spec: CampaignSpec, user: UserId, targets: Vec<VehicleId>) -> Self {
        Campaign {
            id: spec.id,
            user,
            app: spec.app,
            replaces: spec.replaces,
            selector: spec.selector,
            targets,
            plan: spec.plan,
            gate: spec.gate,
            status: CampaignStatus::Running,
            wave: 0,
            wave_started: Tick::new(0),
            last_good: BTreeMap::new(),
            counters: CampaignCounters::default(),
        }
    }

    /// `true` while the campaign still holds its targets (running or
    /// paused) — the state in which it conflicts with a new campaign over
    /// the same app on overlapping vehicles.
    pub fn is_active(&self) -> bool {
        matches!(
            self.status,
            CampaignStatus::Running | CampaignStatus::Paused
        )
    }
}

/// One campaign transition reported by `TrustedServer::step_campaigns` (the
/// journaled record is the durable form; the event is the driver-facing
/// notification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignEvent {
    /// A new wave was opened.
    Advanced {
        /// The campaign that advanced.
        campaign: CampaignId,
        /// The wave number now open (1 = canary).
        wave: usize,
        /// Vehicles newly exposed by this wave.
        exposed: usize,
    },
    /// The health gate paused the campaign.
    Paused {
        /// The campaign that paused.
        campaign: CampaignId,
        /// Failed vehicles at the time of the pause.
        failed: u64,
    },
    /// The health gate aborted the campaign and rolled the exposed vehicles
    /// back.
    Aborted {
        /// The campaign that aborted.
        campaign: CampaignId,
        /// Failed vehicles at the time of the abort.
        failed: u64,
        /// Vehicles whose manifest was restored.
        rolled_back: usize,
    },
    /// Every target converged; the campaign is complete.
    Completed {
        /// The campaign that completed.
        campaign: CampaignId,
        /// Vehicles that acknowledged the new version.
        succeeded: u64,
    },
}

// ----------------------------------------------------------------------
// Durability-plane value codec
// ----------------------------------------------------------------------
//
// Campaigns ride in the canonical server snapshot and the create record of
// the write-ahead journal.  Each type streams its encoding with
// `encode_into` and decodes the `Value` form of those bytes with
// `from_value`; like every other decoder on the recovery path the bytes are
// untrusted and must produce typed errors, never panics.

fn malformed(what: &str) -> DynarError {
    DynarError::ProtocolViolation(format!("malformed campaign encoding: {what}"))
}

fn text(value: &Value, what: &str) -> Result<String> {
    Ok(value.as_text().ok_or_else(|| malformed(what))?.to_owned())
}

fn u64_of(value: &Value, what: &str) -> Result<u64> {
    u64::try_from(value.expect_i64()?).map_err(|_| malformed(what))
}

fn usize_of(value: &Value, what: &str) -> Result<usize> {
    usize::try_from(value.expect_i64()?).map_err(|_| malformed(what))
}

fn encode_vins(vehicles: &[VehicleId], out: &mut Vec<u8>) {
    codec::encode_list_header(vehicles.len(), out);
    for vehicle in vehicles {
        codec::encode_text(vehicle.vin(), out);
    }
}

/// An optional app id: its name, or void when absent.
fn encode_optional_app(app: Option<&AppId>, out: &mut Vec<u8>) {
    match app {
        Some(app) => codec::encode_text(app.name(), out),
        None => codec::encode_void(out),
    }
}

impl VehicleSelector {
    /// Appends the selector's encoding, `[tag, argument?]`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            VehicleSelector::All => {
                codec::encode_list_header(1, out);
                codec::encode_i64(0, out);
            }
            VehicleSelector::Model(model) => {
                codec::encode_list_header(2, out);
                codec::encode_i64(1, out);
                codec::encode_text(model, out);
            }
            VehicleSelector::Vehicles(vehicles) => {
                codec::encode_list_header(2, out);
                codec::encode_i64(2, out);
                encode_vins(vehicles, out);
            }
        }
    }

    /// Decodes a selector encoded by [`VehicleSelector::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let parts = value.as_list().ok_or_else(|| malformed("selector"))?;
        match parts {
            [tag] if tag.expect_i64()? == 0 => Ok(VehicleSelector::All),
            [tag, model] if tag.expect_i64()? == 1 => {
                Ok(VehicleSelector::Model(text(model, "selector model")?))
            }
            [tag, vehicles] if tag.expect_i64()? == 2 => Ok(VehicleSelector::Vehicles(
                vehicles
                    .as_list()
                    .ok_or_else(|| malformed("selector vehicles"))?
                    .iter()
                    .map(|v| Ok(VehicleId::new(text(v, "selector vin")?)))
                    .collect::<Result<Vec<_>>>()?,
            )),
            _ => Err(malformed("selector tag")),
        }
    }
}

impl WavePlan {
    /// Appends the plan's encoding, `[canary, ramp percentages]`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(2, out);
        codec::encode_i64(self.canary as i64, out);
        codec::encode_list_header(self.ramp_percent.len(), out);
        for percent in &self.ramp_percent {
            codec::encode_i64(i64::from(*percent), out);
        }
    }

    /// Decodes a plan encoded by [`WavePlan::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [canary, ramps] = value.as_list().ok_or_else(|| malformed("wave plan"))? else {
            return Err(malformed("wave plan arity"));
        };
        Ok(WavePlan {
            canary: usize_of(canary, "canary size")?,
            ramp_percent: ramps
                .as_list()
                .ok_or_else(|| malformed("ramp list"))?
                .iter()
                .map(|p| u32::try_from(p.expect_i64()?).map_err(|_| malformed("ramp percent")))
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

impl HealthGate {
    /// Appends the gate's encoding, `[min soak, pause, abort]`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(3, out);
        codec::encode_i64(self.min_soak_ticks as i64, out);
        codec::encode_i64(self.pause_failed as i64, out);
        codec::encode_i64(self.abort_failed as i64, out);
    }

    /// Decodes a gate encoded by [`HealthGate::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [min_soak, pause, abort] = value.as_list().ok_or_else(|| malformed("gate"))? else {
            return Err(malformed("gate arity"));
        };
        Ok(HealthGate {
            min_soak_ticks: u64_of(min_soak, "min soak")?,
            pause_failed: u64_of(pause, "pause threshold")?,
            abort_failed: u64_of(abort, "abort threshold")?,
        })
    }
}

impl CampaignStatus {
    fn encode_into(self, out: &mut Vec<u8>) {
        codec::encode_i64(
            match self {
                CampaignStatus::Running => 0,
                CampaignStatus::Paused => 1,
                CampaignStatus::Aborted => 2,
                CampaignStatus::Complete => 3,
            },
            out,
        );
    }

    fn from_value(value: &Value) -> Result<Self> {
        match value.expect_i64()? {
            0 => Ok(CampaignStatus::Running),
            1 => Ok(CampaignStatus::Paused),
            2 => Ok(CampaignStatus::Aborted),
            3 => Ok(CampaignStatus::Complete),
            other => Err(malformed(&format!("unknown status {other}"))),
        }
    }
}

impl CampaignSpec {
    /// Appends the spec's encoding (the create record's payload) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(6, out);
        codec::encode_text(self.id.name(), out);
        codec::encode_text(self.app.name(), out);
        encode_optional_app(self.replaces.as_ref(), out);
        self.selector.encode_into(out);
        self.plan.encode_into(out);
        self.gate.encode_into(out);
    }

    /// Decodes a spec encoded by [`CampaignSpec::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [id, app, replaces, selector, plan, gate] =
            value.as_list().ok_or_else(|| malformed("spec"))?
        else {
            return Err(malformed("spec arity"));
        };
        let replaces = if replaces.is_void() {
            None
        } else {
            Some(AppId::new(text(replaces, "replaced app")?))
        };
        Ok(CampaignSpec {
            id: CampaignId::new(text(id, "campaign id")?),
            app: AppId::new(text(app, "campaign app")?),
            replaces,
            selector: VehicleSelector::from_value(selector)?,
            plan: WavePlan::from_value(plan)?,
            gate: HealthGate::from_value(gate)?,
        })
    }
}

impl Campaign {
    /// Appends the campaign's encoding (the snapshot form; every map is a
    /// `BTreeMap`, so the encoding is canonical by construction) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::encode_list_header(13, out);
        codec::encode_text(self.id.name(), out);
        codec::encode_text(self.user.name(), out);
        codec::encode_text(self.app.name(), out);
        encode_optional_app(self.replaces.as_ref(), out);
        self.selector.encode_into(out);
        encode_vins(&self.targets, out);
        self.plan.encode_into(out);
        self.gate.encode_into(out);
        self.status.encode_into(out);
        codec::encode_i64(self.wave as i64, out);
        codec::encode_i64(self.wave_started.as_u64() as i64, out);
        codec::encode_list_header(self.last_good.len(), out);
        for (vehicle, apps) in &self.last_good {
            codec::encode_list_header(2, out);
            codec::encode_text(vehicle.vin(), out);
            codec::encode_list_header(apps.len(), out);
            for app in apps {
                codec::encode_text(app.name(), out);
            }
        }
        codec::encode_list_header(4, out);
        codec::encode_i64(self.counters.exposed as i64, out);
        codec::encode_i64(self.counters.succeeded as i64, out);
        codec::encode_i64(self.counters.failed as i64, out);
        codec::encode_i64(self.counters.rolled_back as i64, out);
    }

    /// Decodes a campaign encoded by [`Campaign::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn from_value(value: &Value) -> Result<Self> {
        let [id, user, app, replaces, selector, targets, plan, gate, status, wave, wave_started, last_good, counters] =
            value.as_list().ok_or_else(|| malformed("campaign"))?
        else {
            return Err(malformed("campaign arity"));
        };
        let replaces = if replaces.is_void() {
            None
        } else {
            Some(AppId::new(text(replaces, "replaced app")?))
        };
        let targets = targets
            .as_list()
            .ok_or_else(|| malformed("targets"))?
            .iter()
            .map(|v| Ok(VehicleId::new(text(v, "target vin")?)))
            .collect::<Result<Vec<_>>>()?;
        let last_good = last_good
            .as_list()
            .ok_or_else(|| malformed("last-good map"))?
            .iter()
            .map(|pair| {
                let [vehicle, apps] = pair.as_list().ok_or_else(|| malformed("last-good pair"))?
                else {
                    return Err(malformed("last-good pair arity"));
                };
                Ok((
                    VehicleId::new(text(vehicle, "last-good vin")?),
                    apps.as_list()
                        .ok_or_else(|| malformed("last-good apps"))?
                        .iter()
                        .map(|a| Ok(AppId::new(text(a, "last-good app")?)))
                        .collect::<Result<BTreeSet<AppId>>>()?,
                ))
            })
            .collect::<Result<BTreeMap<_, _>>>()?;
        let counters = {
            let [exposed, succeeded, failed, rolled_back] =
                counters.as_list().ok_or_else(|| malformed("counters"))?
            else {
                return Err(malformed("counters arity"));
            };
            CampaignCounters {
                exposed: u64_of(exposed, "exposed counter")?,
                succeeded: u64_of(succeeded, "succeeded counter")?,
                failed: u64_of(failed, "failed counter")?,
                rolled_back: u64_of(rolled_back, "rolled-back counter")?,
            }
        };
        Ok(Campaign {
            id: CampaignId::new(text(id, "campaign id")?),
            user: UserId::new(text(user, "campaign user")?),
            app: AppId::new(text(app, "campaign app")?),
            replaces,
            selector: VehicleSelector::from_value(selector)?,
            targets,
            plan: WavePlan::from_value(plan)?,
            gate: HealthGate::from_value(gate)?,
            status: CampaignStatus::from_value(status)?,
            wave: usize_of(wave, "wave")?,
            wave_started: Tick::new(u64_of(wave_started, "wave start")?),
            last_good,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_campaign() -> Campaign {
        let mut campaign = Campaign::new(
            CampaignSpec {
                id: CampaignId::new("rollout-7"),
                app: AppId::new("telemetry-v2"),
                replaces: Some(AppId::new("telemetry")),
                selector: VehicleSelector::Model("fleet-car".into()),
                plan: WavePlan {
                    canary: 2,
                    ramp_percent: vec![25, 100],
                },
                gate: HealthGate {
                    min_soak_ticks: 30,
                    pause_failed: 2,
                    abort_failed: 3,
                },
            },
            UserId::new("fleet-ops"),
            (0..8)
                .map(|i| VehicleId::new(format!("VIN-{i:04}")))
                .collect(),
        );
        campaign.wave = 2;
        campaign.wave_started = Tick::new(120);
        campaign.status = CampaignStatus::Paused;
        campaign.last_good.insert(
            VehicleId::new("VIN-0000"),
            [AppId::new("telemetry")].into_iter().collect(),
        );
        campaign
            .last_good
            .insert(VehicleId::new("VIN-0001"), BTreeSet::new());
        campaign.counters = CampaignCounters {
            exposed: 2,
            succeeded: 1,
            failed: 1,
            rolled_back: 0,
        };
        campaign
    }

    #[test]
    fn wave_arithmetic_covers_canary_ramps_and_implied_final_wave() {
        let plan = WavePlan {
            canary: 2,
            ramp_percent: vec![25, 50],
        };
        // 50 targets: canary 2, then 13 (25% rounded up), then 25, then an
        // implied final wave to 50.
        assert_eq!(plan.cumulative_target(0, 50), 0);
        assert_eq!(plan.cumulative_target(1, 50), 2);
        assert_eq!(plan.cumulative_target(2, 50), 13);
        assert_eq!(plan.cumulative_target(3, 50), 25);
        assert_eq!(plan.cumulative_target(4, 50), 50);
        assert_eq!(plan.wave_count(50), 4);
        // Exposure never shrinks even when a ramp undercuts the canary.
        let shrinking = WavePlan {
            canary: 10,
            ramp_percent: vec![5, 100],
        };
        assert_eq!(shrinking.cumulative_target(2, 20), 10);
        assert_eq!(shrinking.cumulative_target(3, 20), 20);
        // A single-wave flash crowd: canary covers everything.
        let flash = WavePlan {
            canary: 20,
            ramp_percent: vec![],
        };
        assert_eq!(flash.wave_count(20), 1);
        assert_eq!(flash.cumulative_target(1, 20), 20);
    }

    /// Decodes the value form of `encode`'s bytes with `decode`.
    fn round_trip<T>(
        encode: impl FnOnce(&mut Vec<u8>),
        decode: impl FnOnce(&Value) -> Result<T>,
    ) -> T {
        let mut bytes = Vec::new();
        encode(&mut bytes);
        decode(&codec::decode_value(&bytes).unwrap()).unwrap()
    }

    #[test]
    fn campaign_value_codec_round_trips() {
        let campaign = sample_campaign();
        assert_eq!(
            round_trip(|o| campaign.encode_into(o), Campaign::from_value),
            campaign
        );
        let spec = CampaignSpec {
            id: CampaignId::new("c"),
            app: AppId::new("a"),
            replaces: None,
            selector: VehicleSelector::Vehicles(vec![VehicleId::new("VIN-1")]),
            plan: WavePlan::default(),
            gate: HealthGate::default(),
        };
        assert_eq!(
            round_trip(|o| spec.encode_into(o), CampaignSpec::from_value),
            spec
        );
        let all = VehicleSelector::All;
        assert_eq!(
            round_trip(|o| all.encode_into(o), VehicleSelector::from_value),
            all
        );
    }

    #[test]
    fn campaign_decoders_reject_malformed_values() {
        for decoder in [
            |v: &Value| Campaign::from_value(v).map(|_| ()),
            |v: &Value| CampaignSpec::from_value(v).map(|_| ()),
            |v: &Value| VehicleSelector::from_value(v).map(|_| ()),
            |v: &Value| WavePlan::from_value(v).map(|_| ()),
            |v: &Value| HealthGate::from_value(v).map(|_| ()),
        ] {
            assert!(decoder(&Value::I64(7)).is_err());
            assert!(decoder(&Value::List(vec![Value::Void])).is_err());
        }
        assert!(CampaignStatus::from_value(&Value::I64(9)).is_err());
    }
}

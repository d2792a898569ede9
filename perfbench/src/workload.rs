//! The workloads: set-up, the closed-loop schedule and the output checks,
//! written once over [`Federation`] so the shipped round and the traced copy
//! run exactly the same operations.

use std::time::Instant;

use dynar_foundation::codec;
use dynar_foundation::ids::{AppId, EcuId, PluginId, VehicleId};
use dynar_foundation::value::Value;
use dynar_server::campaign::{
    CampaignId, CampaignSpec, CampaignStatus, HealthGate, VehicleSelector, WavePlan,
};
use dynar_server::ledger::Ledger;
use dynar_server::server::DeploymentStatus;
use dynar_sim::scenario::fleet::{APP_TELEMETRY, APP_TELEMETRY_V2};

use crate::federation::{gain_of, operator, Federation, FleetSpec};
use crate::trace::{self, Layer};

/// Rounds stepped after the initial install, before anything is timed.
const WARM_ROUNDS: usize = 20;
/// Ticks a rollout may take before it counts as failed.
const ROLLOUT_HORIZON: u64 = 400;
/// Ticks a campaign may take before it counts as failed.
const CAMPAIGN_HORIZON: u64 = 4_000;
/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

/// One named workload.
///
/// Every fleet is past the per-vehicle cache cliff (500 vehicles and up):
/// on a host shared with other machines, a cache-resident fleet's speed
/// follows the neighbours' cache pressure (50- and 200-vehicle fleets swung
/// up to 1.9× between runs minutes apart), while fleets past the cliff held
/// within about 5%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1000 vehicles with telemetry v1 installed; rounds with no management
    /// traffic.
    Steady,
    /// 500 vehicles, lossless; back-to-back fleet-wide updates v1→v2→v1.
    Rollout,
    /// 500 vehicles, 5% loss, journal on; back-to-back staged campaigns.
    LossyCampaign,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "steady" => Some(Workload::Steady),
            "rollout" => Some(Workload::Rollout),
            "lossy-campaign" => Some(Workload::LossyCampaign),
            _ => None,
        }
    }

    /// The fleet this workload runs on, generated from the seed.
    pub fn fleet(self, seed: u64) -> FleetSpec {
        match self {
            Workload::Steady => FleetSpec::generate(seed, 1000, 0.0, None),
            Workload::Rollout => FleetSpec::generate(seed, 500, 0.0, None),
            Workload::LossyCampaign => FleetSpec::generate(seed, 500, 0.05, Some(256)),
        }
    }

    /// Segments of a `--trace 0` run, each on a freshly set-up fleet
    /// (`setup_s` is the median of their set-ups).
    pub fn segments(self) -> usize {
        match self {
            Workload::Steady => 5,
            Workload::Rollout => 4,
            Workload::LossyCampaign => 2,
        }
    }

    /// The work of one segment, so that all segments together take about
    /// `seconds` on a 2-core 2 GHz host: rounds for `steady`, updates for
    /// `rollout`, campaigns for `lossy-campaign`.  The amount is fixed
    /// rather than timed because the program's per-update cost grows with
    /// the updates it has done, so a timed window would give a faster host
    /// more, costlier work.
    pub fn segment_units(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::Steady => 70.0,
            Workload::Rollout => 4.5,
            Workload::LossyCampaign => 0.45,
        };
        ((seconds * per_second / self.segments() as f64).round() as usize).max(1)
    }
}

/// Per-vehicle exposure-to-`Installed` tracking (simulated time).  Polls
/// the server after every round, so it only runs outside timed windows.
#[derive(Debug, Default)]
pub struct Settle {
    app: Option<AppId>,
    campaign: Option<CampaignId>,
    exposed: Vec<Option<u64>>,
    settled: Vec<bool>,
    /// Ticks from exposure to `Installed`, one per settled vehicle.
    pub samples: Vec<u64>,
    /// Host time spent polling, excluded from traced throughput.
    pub poll_seconds: f64,
}

impl Settle {
    fn begin(&mut self, vehicles: usize, app: &AppId, campaign: Option<&CampaignId>) {
        self.app = Some(app.clone());
        self.campaign = campaign.cloned();
        self.exposed = vec![None; vehicles];
        self.settled = vec![false; vehicles];
    }

    fn expose_all(&mut self, now: u64) {
        for exposed in &mut self.exposed {
            exposed.get_or_insert(now);
        }
    }

    fn observe<F: Federation>(&mut self, fed: &F) {
        let Some(app) = &self.app else {
            return;
        };
        let start = Instant::now();
        let now = fed.now();
        let server = fed.server();
        let campaign = self.campaign.as_ref().and_then(|id| server.campaign(id));
        for (index, id) in fed.ids().iter().enumerate() {
            if self.settled[index] {
                continue;
            }
            if self.exposed[index].is_none() {
                if campaign.is_some_and(|c| c.last_good.contains_key(id)) {
                    self.exposed[index] = Some(now);
                }
                continue;
            }
            if server.deployment_status(id, app) == DeploymentStatus::Installed {
                self.settled[index] = true;
                self.samples
                    .push(now - self.exposed[index].expect("checked above"));
            }
        }
        self.poll_seconds += start.elapsed().as_secs_f64();
    }
}

/// Fused-superinstruction counts harvested around plug-in replacements
/// (a replaced plug-in takes its counters with it).
#[derive(Debug, Default)]
pub struct Fused {
    /// Fused windows executed inside the schedule.
    pub total: u64,
    last: u64,
}

fn fused_now<F: Federation>(fed: &F) -> u64 {
    fed.handles()
        .iter()
        .flat_map(|handles| handles.workers.iter())
        .map(|(_, _, pirte)| pirte.lock().fusion_counters().total())
        .sum()
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Record host times (inside the timed window only).
    pub timing: bool,
    /// Host time of every timed `Fleet::step`, in milliseconds.
    pub tick_ms: Vec<f64>,
    /// Host time of every rollout, first operator call to convergence, ms.
    pub rollout_ms: Vec<f64>,
    /// Simulated ticks of every rollout.
    pub rollout_ticks: Vec<u64>,
    /// Rounds stepped.
    pub rounds: u64,
    /// Operator calls, rounds and output checks attempted.
    pub attempted: u64,
    /// Operator calls, rounds and output checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Exposure-to-`Installed` tracking, when on.
    pub settle: Option<Settle>,
    /// Fused-window harvesting, when on.
    pub fused: Option<Fused>,
    /// Journal bytes written, when counted: `(written, last length)`.  A
    /// compaction shrinks the journal to one snapshot frame; its whole new
    /// length counts as written.
    pub journal: Option<(u64, usize)>,
}

impl Run {
    fn sample_journal<F: Federation>(&mut self, fed: &F) {
        if let Some((written, last)) = &mut self.journal {
            let len = fed.server().journal_bytes().map_or(0, <[u8]>::len);
            *written += if len >= *last { len - *last } else { len } as u64;
            *last = len;
        }
    }

    /// Starts counting journal bytes at the journal's current length.
    pub fn start_journal<F: Federation>(&mut self, fed: &F) {
        self.journal = Some((0, fed.server().journal_bytes().map_or(0, <[u8]>::len)));
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    fn step<F: Federation>(&mut self, fed: &mut F) {
        let start = Instant::now();
        let result = fed.step();
        if self.timing {
            self.tick_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        self.rounds += 1;
        self.attempted += 1;
        if let Err(error) = result {
            self.fail(format!("round {}: {error}", fed.now()));
        }
        self.sample_journal(fed);
        if let Some(settle) = &mut self.settle {
            settle.observe(fed);
        }
    }

    fn operator<F: Federation, R>(
        &mut self,
        fed: &mut F,
        call: impl FnOnce(
            &mut dynar_server::server::TrustedServer,
        ) -> dynar_foundation::error::Result<R>,
    ) {
        let result = {
            let _span = trace::span(Layer::ServerOperator);
            call(fed.server_mut())
        };
        self.attempted += 1;
        if let Err(error) = result {
            self.fail(format!("operator call: {error}"));
        }
        self.sample_journal(fed);
    }

    /// Adds the fused windows the installed plug-ins executed since the last
    /// harvest.  Called before a rollout replaces them: their successors
    /// start from zero, so the next harvest subtracts nothing.
    fn harvest_fused<F: Federation>(&mut self, fed: &F) {
        if let Some(fused) = &mut self.fused {
            fused.total += fused_now(fed).saturating_sub(fused.last);
            fused.last = 0;
        }
    }

    /// Starts fused-window harvesting at the current plug-in counters.
    pub fn start_fused<F: Federation>(&mut self, fed: &F) {
        self.fused = Some(Fused {
            total: 0,
            last: fused_now(fed),
        });
    }

    /// Closes fused-window harvesting, returning the windows counted.
    pub fn finish_fused<F: Federation>(&mut self, fed: &F) -> u64 {
        self.harvest_fused(fed);
        self.fused.take().map_or(0, |fused| fused.total)
    }

    fn await_ledger<F: Federation>(
        &mut self,
        fed: &mut F,
        horizon: u64,
        done: impl Fn(&Ledger) -> bool,
    ) -> bool {
        for _ in 0..horizon {
            if done(&fed.server().ledger()) {
                return true;
            }
            self.step(fed);
        }
        done(&fed.server().ledger())
    }
}

/// The state a schedule carries between rollouts.
#[derive(Debug)]
pub struct Schedule {
    workload: Workload,
    ids: Vec<VehicleId>,
    current: AppId,
    campaigns: usize,
}

impl Schedule {
    /// The telemetry version every vehicle should run now.
    pub fn current(&self) -> &AppId {
        &self.current
    }

    fn next_app(&self) -> AppId {
        if self.current.name() == APP_TELEMETRY {
            AppId::new(APP_TELEMETRY_V2)
        } else {
            AppId::new(APP_TELEMETRY)
        }
    }
}

/// Installs telemetry v1 on every vehicle at once, warms the fleet up and,
/// for `rollout` and `lossy-campaign`, runs the first update or campaign.
/// The install is recorded as a rollout in `run`.
pub fn setup<F: Federation>(fed: &mut F, run: &mut Run, workload: Workload) -> Schedule {
    let mut schedule = Schedule {
        workload,
        ids: fed.ids().to_vec(),
        current: AppId::new(APP_TELEMETRY),
        campaigns: 0,
    };
    let v1 = schedule.current.clone();
    update(fed, run, &schedule.ids, None, &v1);
    for _ in 0..WARM_ROUNDS {
        run.step(fed);
    }
    if workload != Workload::Steady {
        advance(fed, run, &mut schedule);
    }
    schedule
}

/// Runs `units` of the workload's closed loop: rounds for `steady`,
/// back-to-back updates for `rollout`, back-to-back campaigns for
/// `lossy-campaign`.
pub fn run_schedule<F: Federation>(
    fed: &mut F,
    run: &mut Run,
    schedule: &mut Schedule,
    units: usize,
) {
    for _ in 0..units {
        if schedule.workload == Workload::Steady {
            run.step(fed);
        } else {
            advance(fed, run, schedule);
        }
    }
}

/// One update or campaign from the current version to the other one.
fn advance<F: Federation>(fed: &mut F, run: &mut Run, schedule: &mut Schedule) {
    let from = schedule.current.clone();
    let to = schedule.next_app();
    if schedule.workload == Workload::LossyCampaign {
        schedule.campaigns += 1;
        campaign(fed, run, &schedule.ids, schedule.campaigns, &from, &to);
    } else {
        update(fed, run, &schedule.ids, Some(&from), &to);
    }
    schedule.current = to;
}

/// Updates every vehicle at once through the operator API: uninstall `from`
/// everywhere and wait for every acknowledgement, then deploy `to`
/// everywhere and wait until every target is `Installed`.  Completion is
/// read from the ledger, so the loop never polls per-vehicle status.
fn update<F: Federation>(
    fed: &mut F,
    run: &mut Run,
    ids: &[VehicleId],
    from: Option<&AppId>,
    to: &AppId,
) {
    let user = operator();
    let vehicles = ids.len() as u64;
    let base = fed.server().ledger();
    run.harvest_fused(fed);
    if let Some(settle) = &mut run.settle {
        settle.begin(ids.len(), to, None);
        settle.expose_all(fed.now());
    }
    let start = Instant::now();
    let first_tick = fed.now();
    let mut converged = true;
    if let Some(from) = from {
        for id in ids {
            run.operator(fed, |server| server.uninstall(&user, id, from));
        }
        converged &= run.await_ledger(fed, ROLLOUT_HORIZON, |ledger| {
            ledger.uninstalls_completed >= base.uninstalls_completed + vehicles
        });
    }
    for id in ids {
        run.operator(fed, |server| server.deploy(&user, id, to));
    }
    converged &= run.await_ledger(fed, ROLLOUT_HORIZON, |ledger| {
        ledger.installs_completed >= base.installs_completed + vehicles
    });
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let ticks = fed.now() - first_tick;
    if run.timing {
        run.rollout_ms.push(elapsed_ms);
    }
    run.rollout_ticks.push(ticks);
    let ledger = fed.server().ledger();
    run.check(converged, || {
        format!("update to {to} did not converge within {ROLLOUT_HORIZON} ticks")
    });
    run.check(ledger.operations_failed == base.operations_failed, || {
        format!("update to {to}: operations failed")
    });
}

/// One staged campaign replacing `from` with `to` on every vehicle: canary
/// 5%, ramps 25/50/100%, soak 5 ticks, abort on the first failure.  The
/// next campaign starts once this one is `Complete` and every install and
/// uninstall it caused was acknowledged.
fn campaign<F: Federation>(
    fed: &mut F,
    run: &mut Run,
    ids: &[VehicleId],
    seq: usize,
    from: &AppId,
    to: &AppId,
) {
    let user = operator();
    let vehicles = ids.len() as u64;
    let id = CampaignId::new(format!("campaign-{seq}"));
    let spec = CampaignSpec {
        id: id.clone(),
        app: to.clone(),
        replaces: Some(from.clone()),
        selector: VehicleSelector::All,
        plan: WavePlan {
            canary: (ids.len() * 5).div_ceil(100),
            ramp_percent: vec![25, 50, 100],
        },
        gate: HealthGate {
            min_soak_ticks: 5,
            pause_failed: 0,
            abort_failed: 1,
        },
    };
    let base = fed.server().ledger();
    run.harvest_fused(fed);
    let start = Instant::now();
    let first_tick = fed.now();
    run.operator(fed, |server| server.create_campaign(&user, spec));
    if let Some(settle) = &mut run.settle {
        settle.begin(ids.len(), to, Some(&id));
        settle.observe(fed);
    }
    let mut status = None;
    for _ in 0..CAMPAIGN_HORIZON {
        status = fed.server().campaign(&id).map(|c| c.status);
        let ledger = fed.server().ledger();
        let settled = ledger.installs_completed >= base.installs_completed + vehicles
            && ledger.uninstalls_completed >= base.uninstalls_completed + vehicles;
        match status {
            Some(CampaignStatus::Complete) if settled => break,
            Some(CampaignStatus::Running | CampaignStatus::Complete) => run.step(fed),
            _ => break,
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let ticks = fed.now() - first_tick;
    if run.timing {
        run.rollout_ms.push(elapsed_ms);
    }
    run.rollout_ticks.push(ticks);
    let ledger = fed.server().ledger();
    let exposed = fed.server().campaign(&id).map_or(0, |c| c.counters.exposed);
    run.check(status == Some(CampaignStatus::Complete), || {
        format!("{id} ended {status:?}, not Complete")
    });
    run.check(
        exposed == vehicles && ledger.installs_completed - base.installs_completed == exposed,
        || {
            format!(
                "{id}: {exposed} exposed, {} installs completed",
                ledger.installs_completed - base.installs_completed
            )
        },
    );
}

/// The last value every worker actuated, per vehicle and worker (`None`
/// where nothing was actuated yet).
pub fn actuators<F: Federation>(fed: &F) -> Vec<Option<i64>> {
    let mut values = Vec::new();
    for (index, handles) in fed.handles().iter().enumerate() {
        let ecus = fed.ecus(index);
        for (worker, swc, _) in &handles.workers {
            let value = ecus
                .iter()
                .find(|ecu| ecu.id() == *worker)
                .and_then(|ecu| ecu.rte().read_port_by_name(*swc, "act_out").ok());
            values.push(match value {
                Some(Value::I64(v)) => Some(v),
                _ => None,
            });
        }
    }
    values
}

/// The output checks of a finished run, counted into `run`.
///
/// * every workload: transport conservation, no behaviour errors, no
///   rejected PIRTE operation, no plug-in fault, no reinstall (no double
///   apply);
/// * `steady`: every worker actuator advanced since `before` and holds a
///   multiple of the installed gain;
/// * `rollout` and `lossy-campaign`: every vehicle reports the current
///   version `Installed` and its PIRTEs host exactly that version's
///   plug-ins.
pub fn check_outputs<F: Federation>(
    fed: &mut F,
    run: &mut Run,
    schedule: &Schedule,
    before: &[Option<i64>],
) {
    let transport = fed.transport_stats();
    run.check(transport.is_conserved(), || {
        format!("transport conservation violated: {transport:?}")
    });
    let app = schedule.current().clone();
    let suffix = if app.name() == APP_TELEMETRY_V2 {
        "2"
    } else {
        ""
    };
    let gain = gain_of(app.name());
    let after = actuators(fed);
    let ecu_ids: Vec<EcuId> = fed.ecus(0).iter().map(|ecu| ecu.id()).collect();
    for index in 0..fed.ids().len() {
        let id = fed.ids()[index].clone();
        for ecu in &ecu_ids {
            let errors = fed.ecu_mut(index, *ecu).take_behaviour_errors();
            run.check(errors.is_empty(), || {
                format!("{id}/{ecu}: behaviour errors {errors:?}")
            });
        }
        let handles = fed.handles()[index].clone();
        for (worker, _, pirte) in &handles.workers {
            let pirte = pirte.lock();
            let stats = pirte.stats();
            run.check(
                stats.rejected_operations == 0 && stats.reinstalls == 0 && stats.plugin_faults == 0,
                || format!("{id}/{worker}: {stats:?}"),
            );
            if schedule.workload != Workload::Steady {
                let mut hosted: Vec<PluginId> =
                    pirte.plugin_states().into_iter().map(|(p, _)| p).collect();
                hosted.sort();
                let expected = vec![PluginId::new(format!("OP{suffix}-{worker}"))];
                run.check(hosted == expected, || {
                    format!("{id}/{worker}: PIRTE hosts {hosted:?}, expected {expected:?}")
                });
            }
        }
        if schedule.workload == Workload::Steady {
            for slot in index * handles.workers.len()..(index + 1) * handles.workers.len() {
                let (was, now) = (before[slot], after[slot]);
                run.check(
                    matches!((was, now), (Some(was), Some(now)) if now > was && now % gain == 0),
                    || format!("{id}: actuator went from {was:?} to {now:?} (gain {gain})"),
                );
            }
        } else {
            let status = fed.server().deployment_status(&id, &app);
            run.check(status == DeploymentStatus::Installed, || {
                format!("{id}: {app} is {status:?}")
            });
        }
    }
}

/// Counters read off every layer's own statistics.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Frames sent on the in-vehicle buses.
    pub bus_frames: u64,
    /// Kernel dispatches.
    pub os_dispatches: u64,
    /// RTE signals queued for the in-vehicle network.
    pub rte_network_routes: u64,
    /// RTE values delivered from the in-vehicle network.
    pub rte_network_deliveries: u64,
    /// VM instructions executed.
    pub vm_instructions: u64,
    /// VM execution slots granted.
    pub vm_slots: u64,
    /// Plug-in installs by the PIRTEs.
    pub pirte_installs: u64,
    /// The server ledger.
    pub ledger: Ledger,
    /// Messages sent on the external transport.
    pub fes_sent: u64,
    /// Messages lost on the external transport.
    pub fes_lost: u64,
}

impl LayerCounts {
    /// Reads every counter of `fed`.
    pub fn read<F: Federation>(fed: &F) -> Self {
        let mut counts = LayerCounts {
            ledger: fed.server().ledger(),
            ..LayerCounts::default()
        };
        let transport = fed.transport_stats();
        counts.fes_sent = transport.sent;
        counts.fes_lost = transport.lost;
        for index in 0..fed.ids().len() {
            counts.bus_frames += fed.bus_stats(index).sent;
            for ecu in fed.ecus(index) {
                counts.os_dispatches += ecu.kernel().stats().dispatches;
                let rte = ecu.rte().stats();
                counts.rte_network_routes += rte.network_routes;
                counts.rte_network_deliveries += rte.network_deliveries;
            }
            let handles = &fed.handles()[index];
            let pirtes = handles
                .workers
                .iter()
                .map(|(_, _, pirte)| pirte)
                .chain(std::iter::once(&handles.ecm_pirte));
            for pirte in pirtes {
                let stats = pirte.lock().stats();
                counts.vm_instructions += stats.instructions_executed;
                counts.vm_slots += stats.slots_granted;
                counts.pirte_installs += stats.installs;
            }
        }
        counts
    }
}

/// A 64-bit FNV-1a digest of the simulated statistics: the server's
/// canonical snapshot, its ledger, the transport statistics and the summed
/// PIRTE, kernel and bus statistics.  Equal digests mean the two runs
/// simulated the same thing.
pub fn fingerprint<F: Federation>(fed: &F) -> u64 {
    let mut hash = Fnv::new();
    let server = fed.server();
    hash.write(&server.snapshot_bytes());
    hash.write(&codec::encode_value(&server.ledger().to_value()));
    let transport = fed.transport_stats();
    hash.words(&[
        transport.sent,
        transport.delivered,
        transport.lost,
        transport.dropped,
        transport.in_flight,
    ]);
    let mut pirte_sum = [0u64; 9];
    let mut kernel_sum = [0u64; 5];
    let mut bus_sum = [0u64; 6];
    for index in 0..fed.ids().len() {
        let handles = &fed.handles()[index];
        let pirtes = handles
            .workers
            .iter()
            .map(|(_, _, pirte)| pirte)
            .chain(std::iter::once(&handles.ecm_pirte));
        for pirte in pirtes {
            let s = pirte.lock().stats();
            let fields = [
                s.installs,
                s.uninstalls,
                s.reinstalls,
                s.rejected_operations,
                s.signals_in,
                s.signals_out,
                s.slots_granted,
                s.instructions_executed,
                s.plugin_faults,
            ];
            add(&mut pirte_sum, &fields);
        }
        for ecu in fed.ecus(index) {
            let k = ecu.kernel().stats();
            add(
                &mut kernel_sum,
                &[
                    k.activations,
                    k.dispatches,
                    k.preemptions,
                    k.alarm_expirations,
                    k.activation_overflows,
                ],
            );
        }
        let b = fed.bus_stats(index);
        add(
            &mut bus_sum,
            &[
                b.sent,
                b.delivered,
                b.dropped,
                b.unrouted,
                b.worst_latency,
                b.payload_bytes,
            ],
        );
    }
    hash.words(&pirte_sum);
    hash.words(&kernel_sum);
    hash.words(&bus_sum);
    hash.finish()
}

fn add<const N: usize>(sum: &mut [u64; N], fields: &[u64; N]) {
    for (total, field) in sum.iter_mut().zip(fields) {
        *total += field;
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn words(&mut self, words: &[u64]) {
        for word in words {
            self.write(&word.to_le_bytes());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

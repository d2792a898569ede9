//! Lane equivalence: a fleet whose vehicles are split into lanes (one
//! transport hub per lane, stepped in parallel on the lane pool) must end a
//! seeded scenario in exactly the state of a one-shard, single-lane fleet
//! that steps every vehicle on one thread over one shared hub — at one, two
//! and eight server shards.
//!
//! The scenario is hostile on purpose: 5% loss on every link, a partition
//! between the server and one vehicle, a vehicle reboot in the middle of an
//! install wave and a staged update campaign.  The laned fleet is large
//! enough that its rounds hand their lanes to the worker pool.  Compared
//! against the single-lane reference:
//!
//! * the durability snapshot (`snapshot_bytes`), the ledger and the fleet
//!   counters;
//! * the transport counters, summed over the hubs;
//! * every vehicle's PIRTE, kernel and bus counters (so their sums too);
//! * the laned server's journal, which must replay to the same bytes.
//!
//! Why the layouts agree: each link's loss and jitter draws come from a
//! stream keyed by its endpoint names, every ECM drains only its own
//! mailbox, and the snapshot is canonical, so neither the hub a vehicle is
//! registered on nor the order in which lanes run is observable.

use std::sync::Arc;

use dynar::bus::network::{BusConfig, BusStats};
use dynar::core::pirte::PirteStats;
use dynar::ecm::gateway::{SendFailureCounts, SendFailures};
use dynar::fes::transport::{shared_transport, TransportConfig, TransportHub, TransportStats};
use dynar::foundation::ids::{AppId, UserId, VehicleId};
use dynar::os::kernel::KernelStats;
use dynar::server::campaign::{CampaignId, CampaignSpec, HealthGate, VehicleSelector, WavePlan};
use dynar::server::{Ledger, TrustedServer};
use dynar::sim::scenario::fleet::{
    build_vehicle, fleet_hw, fleet_system, telemetry_app, WorkerHandle, APP_TELEMETRY,
    APP_TELEMETRY_V2, GAIN_V1, GAIN_V2,
};
use dynar::sim::{Fleet, FleetStats, LANES, POOLED_MIN_VEHICLES};

const WORKERS: u16 = 2;
const SERVER: &str = "server";

fn vehicles() -> usize {
    POOLED_MIN_VEHICLES + 8
}

fn transport() -> TransportConfig {
    TransportConfig {
        latency_ticks: 1,
        loss_probability: 0.05,
        seed: 0x1A7E,
    }
}

fn bus() -> BusConfig {
    BusConfig {
        frames_per_tick: 64,
        ..BusConfig::default()
    }
}

fn operator() -> UserId {
    UserId::new("fleet-ops")
}

fn vin(index: usize) -> VehicleId {
    VehicleId::new(format!("VIN-LANE-{index:04}"))
}

fn endpoint(index: usize) -> String {
    format!("vehicle-{index}")
}

/// A fleet under test and the handles the comparison reads.
struct Run {
    fleet: Fleet,
    /// Per vehicle (in index order): its worker PIRTEs.
    workers: Vec<Vec<WorkerHandle>>,
    /// Every ECM gateway's send-failure counters, reboots included.
    send_failures: Vec<Arc<SendFailures>>,
}

impl Run {
    /// Builds the fleet vehicle by vehicle: each ECM registers on the hub
    /// `hub_for` names, before the vehicle joins.  `Some(shards)` builds a
    /// laned fleet over a server of that many shards, `None` the one-shard,
    /// single-lane reference.
    fn build(laned_shards: Option<usize>) -> Run {
        let laned = laned_shards.is_some();
        let mut server = TrustedServer::with_shards(laned_shards.unwrap_or(1));
        server.create_user(operator()).unwrap();
        server
            .upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap())
            .unwrap();
        server
            .upload_app(telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS).unwrap())
            .unwrap();
        for index in 0..vehicles() {
            server
                .register_vehicle(vin(index), fleet_hw(WORKERS), fleet_system(WORKERS))
                .unwrap();
            server.bind_vehicle(&operator(), &vin(index)).unwrap();
        }
        server.enable_journal(64);
        let mut fleet = if laned {
            Fleet::new(server, SERVER, transport())
        } else {
            let hub = shared_transport(TransportHub::new(transport()));
            Fleet::with_hub(server, SERVER, hub)
        };
        assert_eq!(fleet.hubs().len(), if laned { LANES } else { 1 });
        let mut workers = Vec::new();
        let mut send_failures = Vec::new();
        for index in 0..vehicles() {
            let hub = fleet.hub_for(&vin(index));
            let (vehicle, handles, failures) =
                build_vehicle(&endpoint(index), WORKERS, bus(), &hub, 0).unwrap();
            fleet
                .add_vehicle(vin(index), endpoint(index), vehicle)
                .unwrap();
            workers.push(handles);
            send_failures.push(failures);
        }
        Run {
            fleet,
            workers,
            send_failures,
        }
    }

    /// Reboots vehicle `index` into boot epoch 1 on its lane's hub.
    fn reboot(&mut self, index: usize) {
        let id = vin(index);
        self.fleet.server.mark_offline(&id);
        assert!(self.fleet.unregister_endpoint(&endpoint(index)));
        let hub = self.fleet.hub_for(&id);
        let (fresh, workers, send_failures) =
            build_vehicle(&endpoint(index), WORKERS, bus(), &hub, 1).unwrap();
        self.fleet.replace_vehicle(&id, fresh).unwrap();
        self.workers[index] = workers;
        self.send_failures.push(send_failures);
    }

    fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.fleet.step().unwrap();
        }
    }

    /// The scenario, on a fixed schedule so both layouts see the same
    /// operations at the same ticks.
    fn scenario(&mut self) {
        let user = operator();
        let v1 = AppId::new(APP_TELEMETRY);
        // Install wave: half the fleet first, the rest 20 ticks later.
        for index in 0..vehicles() / 2 {
            self.fleet
                .server
                .set_desired(&user, &vin(index), &v1)
                .unwrap();
        }
        self.run(3);
        // The server loses one vehicle for 40 ticks, mid-wave.
        let now = self.fleet.now();
        self.fleet.partition(SERVER, &endpoint(1), now.advance(40));
        self.run(17);
        for index in vehicles() / 2..vehicles() {
            self.fleet
                .server
                .set_desired(&user, &vin(index), &v1)
                .unwrap();
        }
        self.run(5);
        // A vehicle of the second half reboots while its install is in
        // flight.
        self.reboot(vehicles() - 3);
        self.run(175);

        // A staged update campaign: a canary, then two ramps.
        let spec = CampaignSpec {
            id: CampaignId::new("lanes-v2"),
            app: AppId::new(APP_TELEMETRY_V2),
            replaces: Some(v1),
            selector: VehicleSelector::All,
            plan: WavePlan {
                canary: 4,
                ramp_percent: vec![30, 60],
            },
            gate: HealthGate {
                min_soak_ticks: 10,
                pause_failed: 0,
                abort_failed: 3,
            },
        };
        self.fleet.server.create_campaign(&user, spec).unwrap();
        self.run(250);
    }

    fn send_failures(&self) -> SendFailureCounts {
        let mut total = SendFailureCounts::default();
        for failures in &self.send_failures {
            total += failures.counts();
        }
        total
    }

    /// Per vehicle: its worker PIRTE counters, its ECUs' kernel counters
    /// and its bus counters.
    fn vehicle_stats(&self) -> Vec<(Vec<PirteStats>, Vec<KernelStats>, BusStats)> {
        (0..vehicles())
            .map(|index| {
                let vehicle = self.fleet.vehicle(&vin(index)).unwrap();
                (
                    (self.workers[index].iter())
                        .map(|(_, _, pirte)| pirte.lock().stats())
                        .collect(),
                    (vehicle.ecus().iter())
                        .map(|ecu| ecu.kernel().stats())
                        .collect(),
                    vehicle.bus().stats(),
                )
            })
            .collect()
    }

    fn outcome(&self) -> (Vec<u8>, Ledger, FleetStats, TransportStats) {
        (
            self.fleet.server.snapshot_bytes(),
            self.fleet.server.ledger(),
            self.fleet.stats().clone(),
            self.fleet.transport_stats(),
        )
    }
}

#[test]
fn laned_fleet_matches_the_single_lane_reference() {
    let mut reference = Run::build(None);
    reference.scenario();
    assert_eq!(reference.fleet.pooled_rounds(), 0, "one lane never pools");
    let (snapshot, ledger, stats, transport) = reference.outcome();
    let vehicle_stats = reference.vehicle_stats();

    // The scenario did what it says: lossy links, a campaign, acks.
    assert!(transport.lost > 0, "{transport:?}");
    assert!(stats.campaign_events > 0, "{stats:?}");
    assert!(stats.uplink_messages > 0, "{stats:?}");
    assert_eq!(reference.send_failures(), SendFailureCounts::default());

    for shards in [1, 2, 8] {
        let mut laned = Run::build(Some(shards));
        laned.scenario();
        assert_eq!(
            laned.fleet.pooled_rounds(),
            laned.fleet.stats().ticks,
            "{shards} shards: every laned round ran its lanes on the pool"
        );

        let (laned_snapshot, laned_ledger, laned_stats, laned_transport) = laned.outcome();
        assert!(
            snapshot == laned_snapshot,
            "{shards} shards: durability snapshot diverged across lane layouts"
        );
        assert_eq!(ledger, laned_ledger, "{shards} shards: ledger diverged");
        assert_eq!(
            stats, laned_stats,
            "{shards} shards: fleet counters diverged"
        );
        assert_eq!(
            transport, laned_transport,
            "{shards} shards: summed transport counters diverged"
        );
        assert!(laned_transport.is_conserved(), "{laned_transport:?}");
        assert!(
            vehicle_stats == laned.vehicle_stats(),
            "{shards} shards: PIRTE, kernel or bus counters diverged"
        );
        // Every ECM registered on the hub its vehicle's lane names.
        assert_eq!(laned.send_failures(), SendFailureCounts::default());

        // The laned journal (uplinks journaled in lane order, merged shard by
        // shard) replays to the same bytes.
        let journal = laned.fleet.server.journal_bytes().expect("journal on");
        let replayed = TrustedServer::replay(journal).expect("journal replays");
        assert!(
            replayed.snapshot_bytes() == laned_snapshot,
            "{shards} shards: the laned journal replays to different bytes"
        );
    }
}

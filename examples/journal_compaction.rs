//! Where a journal compaction goes, at 100, 500 and 2 000 journaled
//! vehicles.
//!
//! Each vehicle has telemetry v1 installed and acknowledged and v2 in
//! flight: installed plans, a pending operation, outstanding downlinks and
//! a queued downlink per record, as on a fleet mid-update.  The journal
//! compacts after every record, so each round (one `mark_offline` record,
//! then `end_round`) is one compaction.  For each fleet size the example
//! prints the median compaction time split into encoding and the frame
//! checksum (next to what a byte-serial FNV-1a pass over the same bytes
//! costs), the snapshot bytes per vehicle and the allocations of one warm
//! compaction.  It asserts that the snapshot decodes and re-encodes to the
//! same bytes and that the allocations do not grow with the fleet.
//!
//! ```console
//! $ cargo run --release --example journal_compaction
//! ```

use std::hint::black_box;
use std::time::Instant;

use dynar::core::message::{Ack, AckStatus, ManagementMessage};
use dynar::foundation::ids::{UserId, VehicleId};
use dynar::foundation::journal::{fnv1a, frame_checksum, FRAME_HEADER_LEN};
use dynar::server::TrustedServer;
use dynar::sim::scenario::fleet::{
    fleet_hw, fleet_system, telemetry_app, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1, GAIN_V2,
};
use dynar_bench::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FLEETS: [usize; 3] = [100, 500, 2000];
const ROUNDS: usize = 15;
const WORKERS: u16 = 3;

/// A server journaling every record, whose `vehicles` vehicles each run
/// telemetry v1 with v2 in flight; returns it with its VINs.
fn journaled_server(vehicles: usize) -> (TrustedServer, Vec<VehicleId>) {
    let mut server = TrustedServer::new();
    let user = UserId::new("fleet-ops");
    server.create_user(user.clone()).unwrap();
    let v1 = telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap();
    let v2 = telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS).unwrap();
    server.upload_app(v1.clone()).unwrap();
    server.upload_app(v2.clone()).unwrap();
    let vins: Vec<VehicleId> = (0..vehicles)
        .map(|i| VehicleId::new(format!("VIN-{i:05}")))
        .collect();
    for vin in &vins {
        server
            .register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
            .unwrap();
        server.bind_vehicle(&user, vin).unwrap();
        server.deploy(&user, vin, &v1.id).unwrap();
        for placement in &v1.sw_confs[0].placements {
            let ack = ManagementMessage::Ack(Ack {
                plugin: placement.plugin.clone(),
                app: v1.id.clone(),
                ecu: placement.ecu,
                status: AckStatus::Installed,
            });
            server.process_uplink(vin, &ack.to_bytes()).unwrap();
        }
        server.deploy(&user, vin, &v2.id).unwrap();
    }
    server.enable_journal(1);
    (server, vins)
}

/// The median of `samples`, in microseconds.
fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] * 1e6
}

/// The median time of `f` over [`ROUNDS`] runs, in microseconds.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median_us(&mut samples)
}

fn main() {
    println!(
        "{:>8} {:>14} {:>11} {:>13} {:>13} {:>13} {:>12}",
        "vehicles",
        "compaction_us",
        "encode_us",
        "checksum_us",
        "fnv1a_us",
        "bytes/vehicle",
        "allocations"
    );
    let mut allocations_seen = Vec::new();
    for vehicles in FLEETS {
        let (mut server, vins) = journaled_server(vehicles);
        let round = |server: &mut TrustedServer| {
            server.mark_offline(&vins[0]);
            server.end_round();
        };
        // Warm-up: the journal buffer grows to a snapshot plus a record.
        for _ in 0..3 {
            round(&mut server);
        }
        let before = server.journal_bytes().unwrap().len();
        let compaction_us = time_us(|| round(&mut server));
        let (allocations, ()) = CountingAllocator::count(|| round(&mut server));
        let journal = server.journal_bytes().unwrap();
        assert_eq!(journal.len(), before, "every round is one compaction");
        let payload = &journal[FRAME_HEADER_LEN..];
        let checksum_us = time_us(|| {
            black_box(frame_checksum(black_box(payload)));
        });
        let fnv1a_us = time_us(|| {
            black_box(fnv1a(black_box(payload)));
        });

        // The compaction frame is the canonical snapshot, and it decodes
        // and re-encodes to the same bytes.
        let snapshot = server.snapshot_bytes();
        assert!(payload.ends_with(&snapshot), "the frame holds the snapshot");
        let replayed = TrustedServer::replay(journal).expect("the journal replays");
        assert!(
            replayed.snapshot_bytes() == snapshot,
            "a decoded and re-encoded snapshot differs from the original"
        );

        println!(
            "{vehicles:>8} {compaction_us:>14.1} {:>11.1} {checksum_us:>13.1} {fnv1a_us:>13.1} \
             {:>13} {allocations:>12}",
            compaction_us - checksum_us,
            snapshot.len() / vehicles,
        );
        allocations_seen.push(allocations);
    }
    assert!(
        allocations_seen.windows(2).all(|pair| pair[0] == pair[1]),
        "a warm compaction's allocations grew with the fleet: {allocations_seen:?}"
    );
}

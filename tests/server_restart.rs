//! The server crash/restart acceptance run, pinned for CI: 12 vehicles at
//! 10 % loss with latency jitter, a fleet-wide v1 install wave, the trusted
//! server killed mid-wave and reconstructed from its write-ahead journal,
//! and a vehicle reboot landing inside the recovery window so both epoch
//! axes (vehicle `boot_epoch`, server incarnation id) move at once.
//!
//! What must hold (asserted here and inside the scenario):
//!
//! * the replayed server is **byte-for-byte identical** to the crashed one
//!   (`snapshot_bytes` equality and ledger equality, checked at the crash),
//!   and the successor's own journal replays byte-identically again at the
//!   end of the campaign — durability survives recovery,
//! * every vehicle converges to exactly its desired manifest, verified
//!   against the ECM `StateReport` ground truth after the campaign,
//! * no double-apply across either epoch axis: no PIRTE of any incarnation
//!   ever rejects a duplicate, and every actuator value is divisible by
//!   exactly the manifest's gain — stale pre-crash downlinks and
//!   post-recovery re-pushes never apply twice,
//! * the transport ledger balances at every tick, the crash included (the
//!   network outlives the server process),
//! * the ledger's push accounting stays honest under recovery: completed
//!   installs never exceed pushes, and retransmissions are counted apart.
//!
//! Everything is seeded (transport seed, fixed topology, scheduled crash and
//! reboot), so a failure here reproduces identically on any machine.

use dynar::foundation::value::Value;
use dynar::sim::scenario::fleet::GAIN_V1;
use dynar::sim::scenario::restart::{RestartConfig, RestartScenario};

#[test]
fn restart_acceptance_twelve_vehicles_ten_percent_loss() {
    let config = RestartConfig {
        vehicles: 12,
        workers_per_vehicle: 3,
        loss_probability: 0.10,
        jitter_ticks: 2,
        seed: 0xD14_57E4,
        compaction_interval: 64,
        // Mid-install of the fleet-wide wave: packages are in flight and
        // acks are pending when the process dies.
        crash_tick: 12,
        // The reboot lands two ticks into the recovery window.
        reboot: Some((14, 2)),
        ..RestartConfig::default()
    };
    assert!((config.loss_probability - 0.10).abs() < f64::EPSILON);

    let mut scenario = RestartScenario::build_with(config).unwrap();
    let report = scenario.run().unwrap();

    // The crash and the concurrent reboot both happened as scheduled.
    assert_eq!(report.crashed_at, 12, "{report:?}");
    assert_eq!(report.rebooted, 1, "{report:?}");
    assert_eq!(report.incarnation, 1, "exactly one recovery, {report:?}");
    assert!(report.journal_bytes > 0, "{report:?}");

    // The chaos was real: the lossy link dropped messages both before and
    // after the crash, and the reliability plane retransmitted.
    assert!(report.transport.lost > 0, "{report:?}");
    let ledger = scenario.inner.fleet.server.ledger().clone();
    assert!(ledger.retransmissions > 0, "{ledger:?}");

    // Conservation at quiescence (held at every tick inside the run).
    let t = report.transport;
    assert_eq!(t.sent, t.delivered + t.lost + t.dropped + t.in_flight);

    // Ledger honesty under recovery: every completed install was pushed
    // exactly once (re-pushes after epoch voids are new pushes; plain
    // retransmissions are not), and nothing failed or burned its budget.
    assert!(
        ledger.installs_completed <= ledger.installs_pushed,
        "{ledger:?}"
    );
    assert_eq!(ledger.operations_failed, 0, "{ledger:?}");
    assert_eq!(ledger.retries_exhausted, 0, "{ledger:?}");
    assert_eq!(report.retry_failures, 0, "{report:?}");
    // Every vehicle's install resolved: 3 packages × 12 vehicles at least.
    assert!(ledger.installs_completed >= 12, "{ledger:?}");

    // The fleet is alive after the campaign: sensor chains actuate on every
    // vehicle — the rebooted incarnation included — with exactly the v1
    // gain.  A double-applied install would host a second plug-in instance
    // and break the divisibility.
    scenario.inner.fleet.run(40).unwrap();
    for handle in scenario.inner.handles().to_vec() {
        for (worker, _, _) in &handle.workers {
            let actuated = scenario.inner.actuator_value(&handle.id, *worker).unwrap();
            let Value::I64(v) = actuated else {
                panic!("{}/{worker}: no actuation, got {actuated:?}", handle.id);
            };
            assert!(
                v > 0,
                "{}/{worker}: signal chain dead after the restart",
                handle.id
            );
            assert_eq!(
                v % GAIN_V1,
                0,
                "{}/{worker}: v1 gain not applied",
                handle.id
            );
        }
    }

    // End-state invariants once more, after the extra drive time.
    assert!(scenario.inner.fleet_converged());
}

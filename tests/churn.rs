//! The churn + reboot chaos acceptance run, pinned for CI: 20 vehicles at
//! 10 % loss with latency jitter, a staggered v1 install, reboots firing
//! mid-wave, one vehicle removed while its operations are outstanding, one
//! vehicle joining mid-run, and a v1 → v2 update of a subset — all driven
//! declaratively through desired-state reconciliation.
//!
//! What must hold (asserted here and inside the scenario):
//!
//! * every *surviving* vehicle converges to exactly its desired manifest,
//!   verified against the ECM `StateReport` ground truth (the worker PIRTEs
//!   host exactly the expected plug-ins and the server's observed state
//!   matches after the truth-resync rounds),
//! * no double-apply across `boot_epoch`: no PIRTE of any incarnation ever
//!   rejects a duplicate operation — pre-reboot stragglers are fenced off by
//!   the epoch stamp, in-window duplicates by the dedup cache,
//! * the removed vehicle's operations fail fast with the distinct
//!   `vehicle unreachable` reason instead of burning the retry budget,
//! * the transport ledger balances at every tick, reboots (endpoint
//!   re-registration) and removals (voided in-flight traffic) included.
//!
//! Everything is seeded (transport seed, fixed topology, scheduled events),
//! so a failure here reproduces identically on any machine.

use dynar::foundation::ids::AppId;
use dynar::foundation::value::Value;
use dynar::sim::scenario::churn::{ChurnConfig, ChurnPlan, ChurnScenario};
use dynar::sim::scenario::fleet::{APP_TELEMETRY_V2, GAIN_V1, GAIN_V2};

#[test]
fn churn_acceptance_twenty_vehicles_ten_percent_loss() {
    let config = ChurnConfig {
        vehicles: 20,
        workers_per_vehicle: 3,
        loss_probability: 0.10,
        jitter_ticks: 2,
        seed: 0xC4_A052,
        second_wave_tick: 40,
        update_tick: 300,
        update_count: 3,
        plan: ChurnPlan {
            // Two reboots land mid-install of wave 1; a third hits a vehicle
            // that already converged, exercising resync-from-installed.
            reboots: vec![(12, 0), (18, 4), (200, 7)],
            // Removed while wave-1 install packages are literally in flight
            // towards it (delivery takes latency + jitter ≥ 2 ticks), so the
            // hub must void them as dropped — and the server must fail the
            // outstanding operations fast instead of retrying into the void.
            removals: vec![(1, 3)],
            additions: vec![90],
        },
        ..ChurnConfig::default()
    };
    assert!((config.loss_probability - 0.10).abs() < f64::EPSILON);

    let mut scenario = ChurnScenario::build_with(config).unwrap();
    let report = scenario.run().unwrap();

    // Membership churn all happened: 20 - 1 removed + 1 added survivors.
    assert_eq!(report.rebooted, 3, "{report:?}");
    assert_eq!(report.removed, 1, "{report:?}");
    assert_eq!(report.added, 1, "{report:?}");
    assert_eq!(report.surviving, 20, "{report:?}");

    // The chaos was real: the lossy link dropped messages, the removed
    // vehicle's in-flight traffic was voided, and at least one retransmitted
    // wave was needed.
    assert!(report.transport.lost > 0, "{report:?}");
    assert!(report.transport.dropped > 0, "{report:?}");

    // Conservation at quiescence (held at every tick inside the run).
    let t = report.transport;
    assert_eq!(t.sent, t.delivered + t.lost + t.dropped + t.in_flight);

    // The removed vehicle's outstanding operations failed fast (fleet stats
    // count them alongside retry escalations).
    assert!(report.retry_failures > 0, "{report:?}");

    // The fleet is alive after the campaign: sensor chains actuate on every
    // surviving vehicle — including the rebooted incarnations and the
    // mid-run joiner — with the gain of exactly the telemetry version its
    // manifest prescribes.
    scenario.inner.fleet.run(40).unwrap();
    for handle in scenario.inner.handles().to_vec() {
        let desired = scenario.inner.fleet.server.desired_manifest(&handle.id);
        let gain = if desired.contains(&AppId::new(APP_TELEMETRY_V2)) {
            GAIN_V2
        } else {
            GAIN_V1
        };
        for (worker, _, _) in &handle.workers {
            let actuated = scenario.inner.actuator_value(&handle.id, *worker).unwrap();
            let Value::I64(v) = actuated else {
                panic!("{}/{worker}: no actuation, got {actuated:?}", handle.id);
            };
            assert!(
                v > 0,
                "{}/{worker}: signal chain dead after churn",
                handle.id
            );
            assert_eq!(
                v % gain,
                0,
                "{}/{worker}: gain {gain} not applied",
                handle.id
            );
        }
    }

    // End-state invariants once more, after the extra drive time.
    assert!(scenario.inner.fleet_converged());
}

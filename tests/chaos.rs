//! The chaos acceptance run, pinned for CI: install → update → uninstall
//! waves over a transport losing 10 % of all messages, with latency jitter
//! and a 50-tick partition cutting two vehicles off mid-install.
//!
//! What must hold (and is asserted here and inside the scenario):
//!
//! * every management operation resolves — `Installed`, `NotInstalled` or a
//!   typed failure — within the server's retry horizon; nothing hangs,
//! * no duplicate installs: retransmissions are deduplicated at the ECM
//!   gateway, so no PIRTE ever rejects (or applies) a second copy,
//! * the transport ledger balances at every tick:
//!   `sent == delivered + lost + dropped (+ in-flight)`.
//!
//! Everything is seeded (transport seed, fixed fleet topology), so a failure
//! here reproduces identically on any machine.

use dynar::foundation::value::Value;
use dynar::sim::scenario::chaos::{ChaosConfig, ChaosScenario, PartitionPlan};

/// The full pinned campaign at the given server shard count.  Shard count is
/// an execution strategy, not a behaviour: every assertion below holds with
/// the exact same numbers whether the server keeps its per-vehicle state in
/// one shard or in 2/8.
fn chaos_acceptance(shards: usize) {
    let config = ChaosConfig {
        shards,
        ..ChaosConfig::default()
    };
    assert!((config.loss_probability - 0.10).abs() < f64::EPSILON);
    assert_eq!(
        config.partition,
        Some(PartitionPlan {
            start_tick: 5,
            duration_ticks: 50,
            vehicles: 2,
        })
    );

    let mut scenario = ChaosScenario::build_with(config).unwrap();
    let report = scenario.run().unwrap();

    // Convergence: every operation of every wave resolved, and at this loss
    // rate the retry budget recovers all of them.
    assert_eq!(report.installed_v1, 6, "{report:?}");
    assert_eq!(report.uninstalled, 6, "{report:?}");
    assert_eq!(report.installed_v2, 6, "{report:?}");
    assert_eq!(report.retry_failures, 0, "{report:?}");

    // The chaos was real: messages were lost and retransmissions happened
    // (more downlink pushes than the 3 packages × 6 vehicles × 2 installs +
    // 3 × 6 uninstalls = 54 a lossless run needs).
    assert!(report.transport.lost > 0, "{report:?}");
    let fleet_stats = scenario.inner.fleet.stats();
    assert!(
        fleet_stats.downlink_messages > 54,
        "retransmissions must show up in the downlink count: {fleet_stats:?}"
    );

    // Conservation at quiescence (held at every tick inside the run).
    let t = report.transport;
    assert_eq!(t.sent, t.delivered + t.lost + t.dropped + t.in_flight);

    // The fleet is alive after the campaign: sensor chains still actuate
    // with the v2 gain on every vehicle.
    scenario.inner.fleet.run(40).unwrap();
    for handle in scenario.inner.handles().to_vec() {
        for (worker, _, _) in &handle.workers {
            let actuated = scenario.inner.actuator_value(&handle.id, *worker).unwrap();
            let Value::I64(v) = actuated else {
                panic!("{}/{worker}: no actuation, got {actuated:?}", handle.id);
            };
            assert!(
                v > 0,
                "{}/{worker}: signal chain dead after chaos",
                handle.id
            );
            assert_eq!(
                v % dynar::sim::scenario::fleet::GAIN_V2,
                0,
                "{}/{worker}: v2 gain applied",
                handle.id
            );
        }
    }
    scenario.verify_no_duplicates().unwrap();
}

#[test]
fn chaos_acceptance_ten_percent_loss_fifty_tick_partition() {
    chaos_acceptance(1);
}

#[test]
fn chaos_acceptance_two_shards() {
    chaos_acceptance(2);
}

#[test]
fn chaos_acceptance_eight_shards() {
    chaos_acceptance(8);
}

//! Stress loop for the sharded fleet round, pinned for CI: the churn
//! campaign — reboots, a removal and a join landing mid-wave — repeated 50
//! times at 8 shards with a different transport seed each iteration.
//!
//! What it checks is reseeded determinism across shard layouts: every
//! iteration must converge with the transport ledger conserved, and every
//! 10th iteration additionally runs the same seed at one shard and requires
//! the byte-identical server snapshot, so a layout dependence shows up as a
//! concrete state diff, not just a failed campaign.  The churn fleets are
//! small enough to step their lanes inline; interleavings of the lane pool's
//! threads are covered by the pooled runs of `tests/lane_equivalence.rs`.

use dynar::sim::scenario::churn::{ChurnConfig, ChurnScenario};

fn campaign(seed: u64, shards: usize) -> (Vec<u8>, u64) {
    let mut scenario = ChurnScenario::build_with(ChurnConfig {
        seed,
        shards,
        ..ChurnConfig::default()
    })
    .expect("churn scenario builds");
    let report = scenario.run().expect("churn campaign converges");
    assert_eq!(report.surviving, 8, "seed {seed:#x}: {report:?}");
    assert!(
        report.transport.is_conserved(),
        "seed {seed:#x}: {report:?}"
    );
    assert!(scenario.fleet_converged(), "seed {seed:#x}");
    (
        scenario.inner.fleet.server.snapshot_bytes(),
        report.transport.delivered,
    )
}

#[test]
fn parallel_churn_campaign_survives_fifty_reseeded_repetitions() {
    for i in 0..50u64 {
        let seed = 0xC0FFEE ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (snapshot, delivered) = campaign(seed, 8);
        if i % 10 == 0 {
            let (serial_snapshot, serial_delivered) = campaign(seed, 1);
            assert_eq!(
                snapshot, serial_snapshot,
                "seed {seed:#x}: parallel snapshot diverged from serial"
            );
            assert_eq!(
                delivered, serial_delivered,
                "seed {seed:#x}: transport counters diverged from serial"
            );
        }
    }
}

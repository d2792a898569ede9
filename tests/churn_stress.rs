//! Determinism loop for the fleet round, pinned for CI: the churn campaign
//! — reboots, a removal and a join landing mid-wave — repeated 50 times with
//! a different transport seed each iteration.
//!
//! Every iteration must converge with the transport ledger conserved, and
//! every 10th iteration runs the same seed a second time and requires the
//! byte-identical server snapshot and equal transport counters, so a
//! dependence on anything but the seed (hash-map iteration order, say)
//! shows up as a concrete state diff, not just a failed campaign.  The churn
//! fleets are small enough to step their lanes inline; interleavings of the
//! lane pool's threads are covered by the pooled runs of
//! `tests/lane_equivalence.rs`.

use dynar::sim::scenario::churn::{ChurnConfig, ChurnScenario};

fn campaign(seed: u64) -> (Vec<u8>, u64) {
    let mut scenario = ChurnScenario::build_with(ChurnConfig {
        seed,
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
fn churn_campaign_is_deterministic_over_fifty_reseeded_repetitions() {
    for i in 0..50u64 {
        let seed = 0xC0FFEE ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (snapshot, delivered) = campaign(seed);
        if i % 10 == 0 {
            let (rerun_snapshot, rerun_delivered) = campaign(seed);
            assert_eq!(
                snapshot, rerun_snapshot,
                "seed {seed:#x}: the rerun's snapshot diverged"
            );
            assert_eq!(
                delivered, rerun_delivered,
                "seed {seed:#x}: the rerun's transport counters diverged"
            );
        }
    }
}

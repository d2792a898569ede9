//! Sharded-vs-serial equivalence, pinned for CI: the same seeded campaign
//! run with 1, 2 and 8 server shards must end in **byte-for-byte identical**
//! server state.
//!
//! This is the contract that makes the sharded fleet tick trustworthy: the
//! shard layout ([`dynar::server::server::ShardHandle`]s walked by the one
//! round + deterministic journal merge) is a pure execution strategy — it
//! must never leak into observable state.  Three layers are compared against the serial
//! baseline:
//!
//! * the durability snapshot (`snapshot_bytes`, globally sorted and
//!   deliberately shard-agnostic),
//! * the operation ledger (commutative event sums folded per shard),
//! * the fleet- and transport-level counters (per-link fault/jitter streams
//!   are keyed by endpoint names and the pinned seed, not by hub identity).
//!
//! A second test pins the durability half under parallelism: a journaled
//! campaign run at 2 and 8 shards replays byte-identically — including a
//! mid-campaign crash + recovery — and the merged journal is itself
//! shard-agnostic (a serial replay of a parallel journal converges on the
//! same bytes).

use dynar::server::{Ledger, TrustedServer};
use dynar::sim::scenario::chaos::{ChaosConfig, ChaosScenario};
use dynar::sim::scenario::restart::{RestartConfig, RestartScenario};
use dynar::sim::FleetStats;

/// One full chaos campaign (10 % loss, jitter, mid-wave partition) at the
/// given shard count, returning everything that must match across counts.
fn chaos_campaign(shards: usize) -> (Vec<u8>, Ledger, FleetStats) {
    let mut scenario = ChaosScenario::build_with(ChaosConfig {
        shards,
        ..ChaosConfig::default()
    })
    .expect("chaos scenario builds");
    let report = scenario.run().expect("chaos campaign converges");
    assert!(report.transport.is_conserved(), "{report:?}");
    (
        scenario.inner.fleet.server.snapshot_bytes(),
        scenario.inner.fleet.server.ledger(),
        scenario.inner.fleet.stats().clone(),
    )
}

#[test]
fn sharded_chaos_campaign_matches_the_serial_one_byte_for_byte() {
    let (snapshot, ledger, stats) = chaos_campaign(1);
    for shards in [2, 8] {
        let (shadow_snapshot, shadow_ledger, shadow_stats) = chaos_campaign(shards);
        assert_eq!(
            snapshot, shadow_snapshot,
            "durability snapshot diverged at {shards} shards"
        );
        assert_eq!(
            ledger, shadow_ledger,
            "operation ledger diverged at {shards} shards"
        );
        assert_eq!(
            stats, shadow_stats,
            "fleet counters diverged at {shards} shards"
        );
    }
}

#[test]
fn parallel_journal_replays_byte_identically_through_a_crash() {
    for shards in [2, 8] {
        // The scenario itself asserts byte identity twice: at the crash
        // (replayed successor == crashed process) and at the end (the
        // successor's own journal replays byte-identically) — both with the
        // journal records produced by *parallel* ticks.
        let mut scenario = RestartScenario::build_with(RestartConfig {
            vehicles: 6,
            shards,
            ..RestartConfig::default()
        })
        .expect("restart scenario builds");
        let report = scenario.run().expect("restart campaign converges");
        assert_eq!(report.incarnation, 1, "{shards} shards: {report:?}");
        assert!(report.journal_bytes > 0, "{shards} shards: {report:?}");

        // The merged journal is shard-agnostic: replaying the parallel run's
        // journal into a *serial* server converges on the same bytes.
        let journal = scenario
            .inner
            .fleet
            .server
            .journal_bytes()
            .expect("successor journals")
            .to_vec();
        let serial_replay =
            TrustedServer::replay(&journal).expect("parallel journal replays serially");
        assert_eq!(
            serial_replay.snapshot_bytes(),
            scenario.inner.fleet.server.snapshot_bytes(),
            "{shards} shards: serial replay of the parallel journal diverged"
        );
    }
}

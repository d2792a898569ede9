//! Adaptive ack deadlines on a whole fleet.
//!
//! The trusted server arms each vehicle's retransmission deadlines from an
//! RFC 6298 estimator over that vehicle's measured ack round trips.  Over the
//! full `FleetScenario` stack (server → transport → ECM gateway → bus →
//! PIRTE and back) that must hold two ways:
//!
//! - **No spurious retransmits.**  A timeout shorter than the fixed deadline
//!   must still outlast every real round trip, so the server retransmits
//!   only what the transport lost, and a lossless fleet not at all.
//! - **Shorter waits.**  A lost package costs the vehicle's measured timeout
//!   (about one round trip plus its variation), not a full
//!   `ack_deadline_ticks`.
//!
//! Under random loss an update can also lose a package's retransmission
//! (each attempt has two chances to be lost, the downlink and its ack), and
//! the backed-off second wait is twice the first, so the tick count of one
//! randomly lossy update is no fixed bound; the convergence claim is checked
//! on a deterministic loss instead.

use dynar::fes::transport::TransportConfig;
use dynar::foundation::time::Tick;
use dynar::sim::scenario::fleet::{FleetScenario, FleetScenarioConfig};

/// A 20-vehicle fleet over a transport losing `loss` of its messages, with
/// v1 telemetry installed in waves of 5 (which measures every vehicle's
/// round trip).
fn installed_fleet(loss: f64, seed: u64) -> FleetScenario {
    let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
        vehicles: 20,
        transport: TransportConfig {
            latency_ticks: 1,
            loss_probability: loss,
            seed,
        },
        ..FleetScenarioConfig::default()
    })
    .unwrap();
    scenario.install_telemetry(5).unwrap();
    scenario
}

/// Updates the whole fleet from v1 to v2 in one wave and returns the ticks
/// it took.
fn update(scenario: &mut FleetScenario) -> u64 {
    let ids = scenario.fleet.vehicle_ids().to_vec();
    let start = scenario.fleet.now();
    scenario.update_telemetry(&ids, ids.len()).unwrap();
    scenario.fleet.now().elapsed_since(start)
}

#[test]
fn a_lossy_fleet_retransmits_only_what_was_lost() {
    let mut scenario = installed_fleet(0.05, 7);
    update(&mut scenario);
    let server = &scenario.fleet.server;
    let ledger = server.ledger();
    let transport = scenario.fleet.transport_stats();
    assert!(transport.lost > 0, "the run must exercise the loss path");
    assert!(
        ledger.retransmissions <= transport.lost,
        "spurious retransmits: {} retransmissions for {} lost messages",
        ledger.retransmissions,
        transport.lost
    );
    assert_eq!(ledger.retries_exhausted, 0);
    // Every vehicle measured its link: its timeout sits below the ceiling.
    let deadline = server.retry_policy().ack_deadline_ticks;
    for id in scenario.fleet.vehicle_ids() {
        let rto = server.rto_ticks(id).unwrap();
        assert!(rto < deadline, "{id}: RTO {rto}");
    }
}

#[test]
fn a_lossless_fleet_update_makes_no_retransmissions() {
    let mut scenario = installed_fleet(0.0, 7);
    let ticks = update(&mut scenario);
    let ledger = scenario.fleet.server.ledger();
    assert_eq!(scenario.fleet.transport_stats().lost, 0);
    assert_eq!(ledger.retransmissions, 0, "no spurious retransmits");
    assert_eq!(ledger.installs_pushed, 2 * 20 * 3, "v1 and v2 on 3 workers");
    assert_eq!(ticks, 12, "one uninstall and one deploy round trip");
}

/// One vehicle's link is cut while the update's uninstall packages are in
/// flight, so each of them is lost exactly once.  The update then waits one
/// measured timeout for them, not a fixed deadline: the uninstall wave takes
/// the timeout plus the 5 ticks the retransmission needs, and the deploy
/// wave its lossless 6, so the update takes `rto + 11` ticks.  With the
/// fixed deadline the same update took `ack_deadline_ticks + 11` (36).
#[test]
fn an_update_that_loses_a_package_waits_one_rto_not_a_fixed_deadline() {
    let mut scenario = installed_fleet(0.0, 7);
    let vehicle = scenario.fleet.vehicle_ids()[0].clone();
    let rto = scenario.fleet.server.rto_ticks(&vehicle).unwrap();
    let deadline = scenario.fleet.server.retry_policy().ack_deadline_ticks;
    assert!(rto < deadline, "the install measured the link: RTO {rto}");

    let server = scenario.fleet.server_endpoint().to_owned();
    let endpoint = scenario.fleet.endpoint_of(&vehicle).unwrap().to_owned();
    let heal_at = Tick::new(scenario.fleet.now().as_u64() + 2);
    scenario.fleet.partition(&server, &endpoint, heal_at);
    let ticks = update(&mut scenario);

    let lost = scenario.fleet.transport_stats().lost;
    assert_eq!(lost, 3, "the vehicle's three uninstall packages");
    assert_eq!(scenario.fleet.server.ledger().retransmissions, lost);
    assert_eq!(ticks, rto + 11, "one timeout of {rto} ticks");
    assert!(
        ticks < deadline + 11,
        "the update took {ticks} ticks, no fewer than with a fixed deadline ({deadline})"
    );
}

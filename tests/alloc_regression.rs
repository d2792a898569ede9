//! Allocation-regression harness for the federation hot path.
//!
//! PR 4 made the steady-state transport and tick paths allocation-free:
//! interned endpoint slots, shared [`Payload`] buffers, swap-drained scratch
//! queues and index-based runnable activations.  This test pins that down
//! with a counting global allocator, so a stray `clone()`/`collect()` on the
//! hot path fails CI instead of silently re-inflating the tick.
//!
//! All levels are asserted from a single `#[test]`: the counting allocator
//! is process-global, and a second test thread (or the libtest harness
//! reporting another test's result) would pollute the measurement window.
//!
//! * **Transport path** — a warm `send → step → drain_into` round on the
//!   hub performs exactly zero allocations (payload sharing means the only
//!   allocation of a message's life is its original encoding).
//! * **Fleet tick** — a management-quiescent 10-vehicle fleet with the
//!   telemetry app live on every worker ECU allocates nothing on the ticks
//!   where its built-in periodic sensors are idle.  Sensor broadcast ticks
//!   still allocate (value codec + frame segmentation), which bounds how
//!   many of a window's ticks may touch the allocator at all.
//! * **Pooled fleet tick** — the same claim for a fleet big enough that its
//!   rounds hand their vehicle lanes to the lane pool's worker threads: the
//!   hand-off (slots, wake-ups, completion tokens) allocates nothing, so the
//!   same sensor-tick exemption bounds the window.
//! * **Compiled VM slot** — a warm [`CompiledVm`] executing an arith-heavy
//!   loop (fused superinstructions on the fast plane) runs whole slots
//!   without allocating: pre-decoded ops, pre-resolved constants and a
//!   steady-state stack leave nothing to allocate per instruction.
//! * **Journal compaction** — one compaction of a warm journaled server
//!   allocates the same number of times at 50 vehicles as at 400: the
//!   snapshot streams into the journal's own buffer and sorts into reused
//!   space, so no per-vehicle allocation (a `Value` tree, a sort buffer)
//!   can come back unnoticed.

use dynar::core::message::{Ack, AckStatus, ManagementMessage};
use dynar::fes::transport::{TransportConfig, TransportHub};
use dynar::foundation::ids::{UserId, VehicleId};
use dynar::foundation::payload::Payload;
use dynar::foundation::time::Tick;
use dynar::foundation::value::Value;
use dynar::server::TrustedServer;
use dynar::sim::scenario::fleet::{
    fleet_hw, fleet_system, telemetry_app, FleetScenario, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1,
    GAIN_V2, SENSOR_PERIOD,
};
use dynar::sim::POOLED_MIN_VEHICLES;
use dynar::vm::{assemble, Budget, CompiledVm, VmStatus};
use dynar_bench::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn warm_transport_round_is_allocation_free() {
    let mut hub = TransportHub::new(TransportConfig::default());
    hub.register("server");
    hub.register("vehicle-0");
    let payload = Payload::from(vec![7u8; 64]);
    let mut inbox = Vec::new();

    // Warm-up: grow the in-flight queue, mailbox deque and drain buffer.
    for t in 1..=32u64 {
        hub.send("server", "vehicle-0", payload.clone()).unwrap();
        hub.step(Tick::new(t));
        hub.drain_into("vehicle-0", &mut inbox);
        inbox.clear();
    }

    let (allocations, ()) = CountingAllocator::count(|| {
        for t in 33..=64u64 {
            hub.send("server", "vehicle-0", payload.clone()).unwrap();
            hub.step(Tick::new(t));
            hub.drain_into("vehicle-0", &mut inbox);
            inbox.clear();
        }
    });
    assert_eq!(
        allocations, 0,
        "32 warm send/step/drain rounds must not allocate"
    );
    assert!(hub.stats().is_conserved());
}

fn quiescent_fleet_tick_is_allocation_free() {
    let mut scenario = FleetScenario::build(10).expect("fleet builds");
    quiescent_ticks_allocate_only_for_sensors(&mut scenario, 5);
    assert_eq!(scenario.fleet.pooled_rounds(), 0, "10 vehicles step inline");
}

fn quiescent_pooled_fleet_tick_is_allocation_free() {
    let mut scenario = FleetScenario::build(POOLED_MIN_VEHICLES).expect("fleet builds");
    let rounds_before = scenario.fleet.stats().ticks;
    quiescent_ticks_allocate_only_for_sensors(&mut scenario, POOLED_MIN_VEHICLES / 2);
    assert_eq!(
        scenario.fleet.pooled_rounds(),
        scenario.fleet.stats().ticks - rounds_before,
        "every round of a {POOLED_MIN_VEHICLES}-vehicle fleet ran its lanes on the pool"
    );
}

/// Installs telemetry in waves of `wave_size`, warms the fleet up, then
/// asserts that a quiescent window allocates only on sensor ticks.
fn quiescent_ticks_allocate_only_for_sensors(scenario: &mut FleetScenario, wave_size: usize) {
    // The strong version of the claim: even with the telemetry app live on
    // every worker ECU (plug-in VMs scheduled each tick), a management-
    // quiescent tick touches the allocator only where the built-in speed
    // sensor's broadcast crosses the value codec.
    scenario
        .install_telemetry(wave_size)
        .expect("install waves");
    // Warm every per-tick buffer: scratch queues, mailboxes, port buffers.
    scenario.fleet.run(256).expect("warm-up");

    let periods = 4usize;
    let window = periods * SENSOR_PERIOD as usize;
    let polls_before = scenario.fleet.stats().downlink_polls;
    let mut per_tick = Vec::with_capacity(window);
    for _ in 0..window {
        let (allocations, result) = CountingAllocator::count(|| scenario.fleet.step());
        result.expect("fleet step");
        per_tick.push(allocations);
    }

    // The dirty-set downlink sweep: a management-quiescent tick must visit
    // zero vehicles (O(active), not O(V)) — the whole window's sweep work is
    // a constant check of the empty dirty set.
    let polls = scenario.fleet.stats().downlink_polls - polls_before;
    assert_eq!(
        polls, 0,
        "quiescent ticks must not visit any vehicle in the downlink sweep"
    );

    // The sensor fires every SENSOR_PERIOD ticks; its broadcast allocates on
    // exactly two ticks per period (codec encode onto the bus, then
    // reassemble + decode at delivery).  Every other tick — transport poll,
    // server tick, kernel dispatch, plug-in VM slots — must be completely
    // allocation-free.
    let zero_ticks = per_tick.iter().filter(|&&count| count == 0).count();
    let expected_zero = window - 2 * periods;
    assert!(
        zero_ticks >= expected_zero,
        "expected at least {expected_zero}/{window} allocation-free ticks in a quiescent \
         fleet, got {zero_ticks} (per-tick allocation counts: {per_tick:?})"
    );
}

/// A [`PortHost`] whose every operation is allocation-free: integer reads,
/// counted writes, dropped logs.
struct NoAllocHost {
    writes: u64,
}

impl dynar::vm::PortHost for NoAllocHost {
    fn read_port(&mut self, _slot: u32) -> dynar::foundation::error::Result<Value> {
        Ok(Value::I64(1))
    }
    fn take_port(&mut self, _slot: u32) -> dynar::foundation::error::Result<Value> {
        Ok(Value::I64(1))
    }
    fn write_port(&mut self, _slot: u32, _value: Value) -> dynar::foundation::error::Result<()> {
        self.writes += 1;
        Ok(())
    }
    fn pending(&mut self, _slot: u32) -> dynar::foundation::error::Result<usize> {
        Ok(1)
    }
    fn log(&mut self, _message: &str) {}
}

fn warm_compiled_slot_is_allocation_free() {
    // The canonical arith-heavy workload: a counter loop whose body is one
    // fused `load; push_int; add; store` superinstruction plus the back
    // jump.  One slot executes the full per-slot budget and gets preempted.
    let program = assemble(
        "hot-loop",
        r#"
            push_int 0
            store 0
        loop:
            load 0
            push_int 1
            add
            store 0
            jump loop
        "#,
    )
    .expect("assembles");
    let mut vm = CompiledVm::compile(program, Budget::new(4096)).expect("compiles");
    let mut host = NoAllocHost { writes: 0 };

    // Warm-up: first slots size the stack and locals to their steady state.
    for _ in 0..4 {
        vm.run_slot(&mut host).expect("warm slot");
    }

    let fused_before = vm.fusion_counters().load_arith_store;
    let (allocations, ()) = CountingAllocator::count(|| {
        for _ in 0..16 {
            vm.run_slot(&mut host).expect("hot slot");
        }
    });
    assert_eq!(
        allocations, 0,
        "16 warm compiled slots must not allocate a single time"
    );
    // Prove the measurement covered the fused fast path, not a stalled VM.
    assert!(
        vm.fusion_counters().load_arith_store > fused_before,
        "the measured slots must execute fused superinstructions"
    );
    assert_eq!(vm.status(), VmStatus::Preempted);
}

/// A journaling server (compacting before every record) with `vehicles`
/// vehicles, each with v1 installed and acknowledged and v2 in flight:
/// installed packages, a pending operation, outstanding downlinks and a
/// queued downlink per record.
fn journaled_server(vehicles: usize) -> (TrustedServer, Vec<VehicleId>) {
    const WORKERS: u16 = 3;
    let mut server = TrustedServer::new();
    let user = UserId::new("fleet-ops");
    server.create_user(user.clone()).unwrap();
    let v1 = telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap();
    let v2 = telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, WORKERS).unwrap();
    server.upload_app(v1.clone()).unwrap();
    server.upload_app(v2.clone()).unwrap();
    let vins: Vec<VehicleId> = (0..vehicles)
        .map(|i| VehicleId::new(format!("VIN-{i:04}")))
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

/// Allocations of one warm compaction (plus the one small record that
/// triggers it) of a `vehicles`-vehicle journaled server: a round's
/// `mark_offline` appends the record, and the end of the round compacts.
fn warm_compaction_allocations(vehicles: usize) -> u64 {
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
    let (allocations, ()) = CountingAllocator::count(|| round(&mut server));
    let journal = server.journal_bytes().unwrap();
    assert_eq!(journal.len(), before, "one compaction, same state");
    assert!(
        journal.len() > vehicles * 1000,
        "the compaction covered every vehicle record ({} bytes)",
        journal.len()
    );
    allocations
}

fn warm_compaction_allocations_do_not_grow_with_the_fleet() {
    let small = warm_compaction_allocations(50);
    let large = warm_compaction_allocations(400);
    assert_eq!(
        small, large,
        "a warm compaction allocated {small} times at 50 vehicles but {large} at 400"
    );
}

#[test]
fn steady_state_hot_paths_are_allocation_free() {
    warm_transport_round_is_allocation_free();
    quiescent_fleet_tick_is_allocation_free();
    quiescent_pooled_fleet_tick_is_allocation_free();
    warm_compiled_slot_is_allocation_free();
    warm_compaction_allocations_do_not_grow_with_the_fleet();
}

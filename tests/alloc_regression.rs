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
//!   telemetry app live on every worker ECU allocates nothing on any tick,
//!   sensor broadcast ticks included: the comstack encodes into a reused
//!   buffer, segments into reused scratch, frames hold their payload
//!   inline, and a single-chunk signal is decoded straight from its frame.
//! * **Pooled fleet tick** — the same claim for a fleet big enough that its
//!   rounds hand their vehicle lanes to the lane pool's worker threads: the
//!   hand-off (slots, wake-ups, completion tokens) allocates nothing either.
//! * **Compiled VM slot** — a warm [`CompiledVm`] executing an arith-heavy
//!   loop (fused superinstructions on the fast plane) runs whole slots
//!   without allocating: pre-decoded ops, pre-resolved constants and a
//!   steady-state stack leave nothing to allocate per instruction.
//! * **Journal compaction** — one compaction of a warm journaled server
//!   allocates the same number of times at 50 vehicles as at 400: the
//!   snapshot streams into the journal's own buffer and sorts into reused
//!   space, so no per-vehicle allocation (a `Value` tree, a sort buffer)
//!   can come back unnoticed.
//! * **Plug-in lifecycle** — a warm uninstall-then-install of one plug-in
//!   through the type I port allocates the same count whether its PIRTE
//!   hosts no other plug-in or seven (the PIRTE patches that plug-in's table
//!   entries instead of recompiling every table), and at most
//!   [`LIFECYCLE_ALLOCATIONS`].
//! * **Deploy** — a `deploy` allocates the same per vehicle at 50 vehicles
//!   as at 400, and at most [`DEPLOY_ALLOCATIONS_PER_VEHICLE`]: the plan is
//!   stored and encoded once, and each envelope copies its package's
//!   install message out of the plan's bytes.
//! * **Type I relay** — a relayed management message moves through the
//!   RTE without a copy, and after an install wave no type I port of the
//!   fleet keeps a package resident.

use dynar::bus::frame::CanId;
use dynar::core::message::{Ack, AckStatus, InstallationPackage, ManagementMessage};
use dynar::core::pirte::{Pirte, SwcOutput};
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::core::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar::fes::transport::{TransportConfig, TransportHub};
use dynar::foundation::ids::{
    AppId, EcuId, PluginId, PluginPortId, SwcId, UserId, VehicleId, VirtualPortId,
};
use dynar::foundation::log::EventLog;
use dynar::foundation::payload::Payload;
use dynar::foundation::time::Tick;
use dynar::foundation::value::Value;
use dynar::rte::port::PortSpec;
use dynar::rte::rte::Rte;
use dynar::rte::SwcDescriptor;
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
    quiescent_ticks_are_allocation_free(&mut scenario, 5);
    assert_eq!(scenario.fleet.pooled_rounds(), 0, "10 vehicles step inline");
}

fn quiescent_pooled_fleet_tick_is_allocation_free() {
    let mut scenario = FleetScenario::build(POOLED_MIN_VEHICLES).expect("fleet builds");
    let rounds_before = scenario.fleet.stats().ticks;
    quiescent_ticks_are_allocation_free(&mut scenario, POOLED_MIN_VEHICLES / 2);
    assert_eq!(
        scenario.fleet.pooled_rounds(),
        scenario.fleet.stats().ticks - rounds_before,
        "every round of a {POOLED_MIN_VEHICLES}-vehicle fleet ran its lanes on the pool"
    );
}

/// Installs telemetry in waves of `wave_size`, warms the fleet up, then
/// asserts that no tick of a quiescent window allocates.
fn quiescent_ticks_are_allocation_free(scenario: &mut FleetScenario, wave_size: usize) {
    // The strong version of the claim: even with the telemetry app live on
    // every worker ECU (plug-in VMs scheduled each tick) and the built-in
    // speed sensor broadcasting over the bus, a management-quiescent tick
    // never touches the allocator.
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

    // The sensor fires every SENSOR_PERIOD ticks, so the window covers
    // `periods` broadcasts (encode and segment onto the bus, reassemble and
    // decode at delivery) besides the transport poll, server tick, kernel
    // dispatch and plug-in VM slots of every tick: none may allocate.
    assert!(
        per_tick.iter().all(|&count| count == 0),
        "every tick of a quiescent fleet must be allocation-free \
         (per-tick allocation counts: {per_tick:?})"
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

/// The fleet's worker plug-in SW-C: type I ports and the two type III
/// virtual ports of the telemetry app.
fn worker_pirte() -> Pirte {
    let config = PluginSwcConfig::new("worker-swc-2")
        .with_type_i_ports("mgmt_in", "mgmt_out")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "SensorIn",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "sensor_in",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(1),
            "ActOut",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "act_out",
        ));
    Pirte::new(EcuId::new(2), config)
}

/// A bystander plug-in with ports `base` and `base + 1`, linked like the
/// telemetry plug-in (type III in, type III out).
fn bystander(index: u32) -> InstallationPackage {
    let base = 100 + 2 * index;
    let binary = assemble("bystander", "yield\nhalt").unwrap().to_bytes();
    let context = InstallationContext::new(
        PortInitContext::new()
            .with_port("in", PluginPortId::new(base), PluginPortDirection::Required)
            .with_port(
                "out",
                PluginPortId::new(base + 1),
                PluginPortDirection::Provided,
            ),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(base),
                LinkTarget::VirtualPort(VirtualPortId::new(0)),
            )
            .with_link(
                PluginPortId::new(base + 1),
                LinkTarget::VirtualPort(VirtualPortId::new(1)),
            ),
    );
    InstallationPackage::new(
        PluginId::new(format!("bystander-{index}")),
        AppId::new("bystanders"),
        binary,
        context,
    )
}

/// A telemetry v1 package as the trusted server plans it for the first
/// worker ECU of a fresh fleet vehicle.
fn telemetry_package() -> InstallationPackage {
    const WORKERS: u16 = 3;
    let mut server = TrustedServer::new();
    let user = UserId::new("fleet-ops");
    let vin = VehicleId::new("VIN-0000");
    server.create_user(user.clone()).unwrap();
    let v1 = telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap();
    server.upload_app(v1.clone()).unwrap();
    server
        .register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
        .unwrap();
    server.bind_vehicle(&user, &vin).unwrap();
    server
        .plan_deployment(&vin, &v1.id)
        .unwrap()
        .into_iter()
        .find(|(ecu, _)| *ecu == EcuId::new(2))
        .expect("a package for the first worker")
        .1
}

/// Allocations of one warm uninstall-then-install of the telemetry plug-in
/// through the type I port, on a worker PIRTE hosting `others` bystander
/// plug-ins installed before it.
fn warm_lifecycle_allocations(others: u32) -> u64 {
    let mut pirte = worker_pirte();
    for index in 0..others {
        pirte.install(bystander(index)).unwrap();
    }
    let package = telemetry_package();
    let install = ManagementMessage::Install(package.clone()).to_bytes();
    let uninstall = ManagementMessage::Uninstall {
        plugin: package.plugin.clone(),
    }
    .to_bytes();
    fn cycle(pirte: &mut Pirte, acks: &mut Vec<(SwcOutput, Value)>, messages: [Value; 2]) {
        for message in messages {
            pirte.dispatch_swc_input("mgmt_in", message).unwrap();
        }
        pirte.drain_outbox_into(acks);
        assert_eq!(acks.len(), 2, "both operations acknowledged");
        acks.clear();
    }
    let mut acks: Vec<(SwcOutput, Value)> = Vec::new();
    let messages = || {
        [
            Value::Bytes(uninstall.clone()),
            Value::Bytes(install.clone()),
        ]
    };
    pirte
        .dispatch_swc_input("mgmt_in", Value::Bytes(install.clone()))
        .unwrap();
    pirte.drain_outbox_into(&mut acks);
    acks.clear();
    // Warm-up: the tables, the outbox and the ack buffer reach their size,
    // and the event log its capacity (from then on it recycles its ring).
    while pirte.log().len() < EventLog::DEFAULT_CAPACITY {
        cycle(&mut pirte, &mut acks, messages());
    }
    // The message values are built outside the window, as the relay hands
    // over the bytes it received.
    let messages = messages();
    let (allocations, ()) = CountingAllocator::count(|| cycle(&mut pirte, &mut acks, messages));
    assert!(pirte.verify_compiled_routes());
    assert_eq!(pirte.plugin_count(), others as usize + 1);
    allocations
}

/// The most allocations one warm uninstall-then-install may make, set from
/// the measured count (the event log's source names are static, so each of
/// the two log lines allocates only its message).
const LIFECYCLE_ALLOCATIONS: u64 = 18;

fn lifecycle_allocations_do_not_grow_with_the_pirte() {
    let alone = warm_lifecycle_allocations(0);
    let crowded = warm_lifecycle_allocations(7);
    assert_eq!(
        alone, crowded,
        "an uninstall-then-install allocated {alone} times on a PIRTE of its own \
         but {crowded} beside seven other plug-ins"
    );
    assert!(
        alone <= LIFECYCLE_ALLOCATIONS,
        "an uninstall-then-install allocated {alone} times, more than the \
         {LIFECYCLE_ALLOCATIONS} measured"
    );
}

/// The most allocations one vehicle's telemetry `deploy` (three packages)
/// may make, set from the measured count.
const DEPLOY_ALLOCATIONS_PER_VEHICLE: u64 = 41;

/// Allocations per vehicle of a warm fleet-wide `deploy` of telemetry v1
/// over `vehicles` vehicles: each vehicle installed, acknowledged,
/// uninstalled and acknowledged it once before, so every per-vehicle
/// buffer is warm.
fn warm_deploy_allocations_per_vehicle(vehicles: usize) -> u64 {
    const WORKERS: u16 = 3;
    let mut server = TrustedServer::new();
    let user = UserId::new("fleet-ops");
    server.create_user(user.clone()).unwrap();
    let v1 = telemetry_app(APP_TELEMETRY, "", GAIN_V1, WORKERS).unwrap();
    server.upload_app(v1.clone()).unwrap();
    let vins: Vec<VehicleId> = (0..vehicles)
        .map(|i| VehicleId::new(format!("VIN-{i:04}")))
        .collect();
    for vin in &vins {
        server
            .register_vehicle(vin.clone(), fleet_hw(WORKERS), fleet_system(WORKERS))
            .unwrap();
        server.bind_vehicle(&user, vin).unwrap();
    }
    let acks = |status: AckStatus| -> Vec<Vec<u8>> {
        v1.sw_confs[0]
            .placements
            .iter()
            .map(|placement| {
                ManagementMessage::Ack(Ack {
                    plugin: placement.plugin.clone(),
                    app: v1.id.clone(),
                    ecu: placement.ecu,
                    status: status.clone(),
                })
                .to_bytes()
            })
            .collect()
    };
    let (installed, uninstalled) = (acks(AckStatus::Installed), acks(AckStatus::Uninstalled));
    let mut drained = 0usize;
    for vin in &vins {
        server.deploy(&user, vin, &v1.id).unwrap();
        for ack in &installed {
            server.process_uplink(vin, ack).unwrap();
        }
        server.uninstall(&user, vin, &v1.id).unwrap();
        for ack in &uninstalled {
            server.process_uplink(vin, ack).unwrap();
        }
    }
    server.poll_downlink_dirty(|_, _| drained += 1);
    assert_eq!(
        drained,
        vehicles * 6,
        "three installs and three uninstalls each"
    );

    let (allocations, ()) = CountingAllocator::count(|| {
        for vin in &vins {
            server.deploy(&user, vin, &v1.id).unwrap();
        }
    });
    assert_eq!(
        allocations % vehicles as u64,
        0,
        "{allocations} allocations over {vehicles} vehicles"
    );
    allocations / vehicles as u64
}

fn deploy_allocations_do_not_grow_with_the_fleet() {
    let small = warm_deploy_allocations_per_vehicle(50);
    let large = warm_deploy_allocations_per_vehicle(400);
    assert_eq!(
        small, large,
        "a deploy allocated {small} times per vehicle at 50 vehicles but {large} at 400"
    );
    assert!(
        small <= DEPLOY_ALLOCATIONS_PER_VEHICLE,
        "a deploy allocated {small} times per vehicle (bound {DEPLOY_ALLOCATIONS_PER_VEHICLE})"
    );
}

fn relayed_management_messages_are_not_copied_or_kept() {
    // One RTE-level relay write: the value moves onto the network route,
    // the port keeps nothing.
    let mut rte = Rte::new();
    let swc = SwcId::new(EcuId::new(1), 0);
    let descriptor = SwcDescriptor::new("ecm-swc")
        .with_port(PortSpec::relay("to_2"))
        .with_port(PortSpec::sender_receiver(
            "data_out",
            dynar::rte::port::PortDirection::Provided,
        ));
    rte.register_component(swc, &descriptor).unwrap();
    let relay = rte.port_id(swc, "to_2").unwrap();
    let data = rte.port_id(swc, "data_out").unwrap();
    rte.map_signal_out(relay, CanId::new(0x700).unwrap())
        .unwrap();
    rte.map_signal_out(data, CanId::new(0x701).unwrap())
        .unwrap();
    let package = ManagementMessage::Install(telemetry_package()).to_bytes();
    let mut outbound = Vec::new();
    for _ in 0..4 {
        rte.write_port(relay, Value::Bytes(package.clone()))
            .unwrap();
        rte.drain_outbound_into(&mut outbound);
        outbound.clear();
    }
    let message = Value::Bytes(package.clone());
    let (allocations, ()) = CountingAllocator::count(|| rte.write_port(relay, message).unwrap());
    assert_eq!(allocations, 0, "a relayed package is moved, never copied");
    rte.drain_outbound_into(&mut outbound);
    assert_eq!(
        outbound,
        vec![(CanId::new(0x700).unwrap(), Value::Bytes(package))]
    );
    assert_eq!(
        rte.read_port(relay).unwrap(),
        Value::Void,
        "nothing resident"
    );
    // A data port keeps its last value for readers.
    rte.write_port(data, Value::I64(7)).unwrap();
    assert_eq!(rte.read_port(data).unwrap(), Value::I64(7));

    // Fleet-wide: after an install wave, no type I port of any ECU holds a
    // package or an ack.
    let mut scenario = FleetScenario::build(10).expect("fleet builds");
    scenario.install_telemetry(5).expect("install waves");
    for handles in scenario.handles() {
        let vehicle = scenario.fleet.vehicle(&handles.id).unwrap();
        let ecm = vehicle.ecu(EcuId::new(1)).unwrap();
        let ecm_swc = ecm.component_by_name("ecm-swc").unwrap();
        for (worker, swc, _) in &handles.workers {
            let to_worker = ecm
                .rte()
                .read_port_by_name(ecm_swc, &format!("to_{worker}"))
                .unwrap();
            assert_eq!(
                to_worker,
                Value::Void,
                "{}: ECM relay to {worker}",
                handles.id
            );
            let acks = vehicle
                .ecu(*worker)
                .unwrap()
                .rte()
                .read_port_by_name(*swc, "mgmt_out")
                .unwrap();
            assert_eq!(acks, Value::Void, "{}: acks of {worker}", handles.id);
        }
    }
}

#[test]
fn steady_state_hot_paths_are_allocation_free() {
    warm_transport_round_is_allocation_free();
    quiescent_fleet_tick_is_allocation_free();
    quiescent_pooled_fleet_tick_is_allocation_free();
    warm_compiled_slot_is_allocation_free();
    warm_compaction_allocations_do_not_grow_with_the_fleet();
    lifecycle_allocations_do_not_grow_with_the_pirte();
    deploy_allocations_do_not_grow_with_the_fleet();
    relayed_management_messages_are_not_copied_or_kept();
}

//! Equivalence suite for the compiled routing plane.
//!
//! The dense, interned route tables introduced across RTE / bus / PIRTE must
//! be *behaviour-identical* to the seed `HashMap` implementation.  Three
//! angles pin that down:
//!
//! 1. **Shadow router** — a straight reimplementation of the seed `HashMap`
//!    routing semantics is driven with the same fixed-seed random operation
//!    sequence as the real [`Rte`]; every consumed value, outbound frame and
//!    data-received notification must match byte for byte (via the value
//!    codec).
//! 2. **Golden scenarios** — the quickstart and remote-car scenarios (fixed
//!    seeds) must reproduce the exact observables recorded from the seed
//!    implementation at commit `f94aa31`: FNV-1a digests of the signal
//!    sequences, drive reports, bus and PIRTE statistics.
//! 3. **Reconfiguration properties** — random install → uninstall →
//!    reinstall churn must leave the compiled tables exactly equal to a fresh
//!    compile, with no stale slots and slot-table widths bounded by the
//!    high-water mark.

use std::collections::{HashMap, VecDeque};

use dynar::bus::frame::{CanId, Frame};
use dynar::bus::network::{Bus, BusConfig, BusStats};
use dynar::core::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar::core::message::{AckStatus, InstallationPackage, ManagementMessage};
use dynar::core::pirte::{Pirte, PirteStats};
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::foundation::codec::encode_value;
use dynar::foundation::error::Result;
use dynar::foundation::ids::{AppId, EcuId, PluginId, PluginPortId, PortId, SwcId, VirtualPortId};
use dynar::foundation::journal::{fnv1a, FrameReader};
use dynar::foundation::time::Tick;
use dynar::foundation::value::Value;
use dynar::rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar::rte::ecu::Ecu;
use dynar::rte::port::{PortDirection, PortSpec};
use dynar::rte::rte::Rte;
use dynar::sim::scenario::fleet::FleetScenario;
use dynar::sim::scenario::quickstart::Quickstart;
use dynar::sim::scenario::remote_car::RemoteCarScenario;
use dynar::vm::assembler::assemble;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

// ---------------------------------------------------------------------------
// FNV-1a folding, shared by the digest checks.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *hash ^= u64::from(*byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

// ---------------------------------------------------------------------------
// 1. Shadow router: the seed HashMap semantics, reimplemented verbatim.
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum ShadowBuffer {
    LastIsBest {
        value: Value,
        updated: bool,
    },
    Queued {
        queue: VecDeque<Value>,
        capacity: usize,
    },
}

impl ShadowBuffer {
    fn push(&mut self, value: Value) {
        match self {
            ShadowBuffer::LastIsBest {
                value: slot,
                updated,
            } => {
                *slot = value;
                *updated = true;
            }
            ShadowBuffer::Queued { queue, capacity } => {
                if queue.len() == *capacity {
                    queue.pop_front();
                }
                queue.push_back(value);
            }
        }
    }

    fn take(&mut self) -> Option<Value> {
        match self {
            ShadowBuffer::LastIsBest { value, updated } => {
                if *updated {
                    *updated = false;
                    Some(value.clone())
                } else {
                    None
                }
            }
            ShadowBuffer::Queued { queue, .. } => queue.pop_front(),
        }
    }
}

/// The seed implementation's routing core: `HashMap` lookups everywhere,
/// values cloned per receiver — byte-identical observables are the contract.
#[derive(Default)]
struct ShadowRte {
    buffers: HashMap<PortId, ShadowBuffer>,
    connections: HashMap<PortId, Vec<PortId>>,
    tx_mapping: HashMap<PortId, CanId>,
    rx_mapping: HashMap<CanId, Vec<PortId>>,
    outbound: Vec<(CanId, Value)>,
    data_received: Vec<PortId>,
}

impl ShadowRte {
    fn add_port(&mut self, port: PortId, queued: Option<usize>) {
        let buffer = match queued {
            Some(capacity) => ShadowBuffer::Queued {
                queue: VecDeque::new(),
                capacity,
            },
            None => ShadowBuffer::LastIsBest {
                value: Value::Void,
                updated: false,
            },
        };
        self.buffers.insert(port, buffer);
    }

    fn write_port(&mut self, provider: PortId, value: Value) {
        self.buffers
            .get_mut(&provider)
            .expect("provider registered")
            .push(value.clone());
        let receivers = self.connections.get(&provider).cloned().unwrap_or_default();
        for requirer in receivers {
            self.deliver_local(requirer, value.clone());
        }
        if let Some(frame) = self.tx_mapping.get(&provider) {
            self.outbound.push((*frame, value));
        }
    }

    fn deliver_inbound(&mut self, frame: CanId, value: Value) {
        let receivers = self.rx_mapping.get(&frame).cloned().unwrap_or_default();
        for requirer in receivers {
            self.deliver_local(requirer, value.clone());
        }
    }

    fn deliver_local(&mut self, requirer: PortId, value: Value) {
        if let Some(buffer) = self.buffers.get_mut(&requirer) {
            buffer.push(value);
            self.data_received.push(requirer);
        }
    }

    fn take_port(&mut self, port: PortId) -> Option<Value> {
        self.buffers.get_mut(&port).and_then(ShadowBuffer::take)
    }
}

/// Drives the real RTE and the shadow through the same fixed-seed operation
/// sequence — including mid-run reconfiguration — comparing every observable.
#[test]
fn compiled_rte_matches_the_seed_hashmap_router_on_random_programs() {
    let dense: Vec<SwcId> = (0..=6)
        .map(|local| SwcId::new(EcuId::new(0), local))
        .collect();
    run_shadow_program(&dense);
}

/// The same program over a layout the dense port table cannot predict:
/// sparse local indices and components of a foreign ECU id, registered out
/// of order, so most port lookups take the side-map fallback.
#[test]
fn compiled_rte_matches_the_seed_router_with_foreign_and_sparse_components() {
    let layout = [
        SwcId::new(EcuId::new(0), 0),
        SwcId::new(EcuId::new(0), 9),
        SwcId::new(EcuId::new(7), 2),
        SwcId::new(EcuId::new(0), 1),
        SwcId::new(EcuId::new(0), 4),
        SwcId::new(EcuId::new(3), 5),
        SwcId::new(EcuId::new(0), 40_000),
    ];
    run_shadow_program(&layout);
}

/// Registers a producer (three provided ports) on `layout[0]` and six
/// consumers on `layout[1..=6]`, then runs the fixed-seed program.
fn run_shadow_program(layout: &[SwcId]) {
    let mut rte = Rte::new();
    let mut shadow = ShadowRte::default();

    let swc = |index: u16| layout[usize::from(index)];

    // Three providers on the first component.
    let producer = SwcDescriptor::new("producer")
        .with_port(PortSpec::sender_receiver("p0", PortDirection::Provided))
        .with_port(PortSpec::sender_receiver("p1", PortDirection::Provided))
        .with_port(PortSpec::sender_receiver("p2", PortDirection::Provided));
    rte.register_component(swc(0), &producer).unwrap();
    let providers: Vec<PortId> = (0..3)
        .map(|i| rte.port_id(swc(0), &format!("p{i}")).unwrap())
        .collect();
    for provider in &providers {
        shadow.add_port(*provider, None);
    }

    // Six consumers: alternating last-is-best and small queued ports.
    let mut requirers = Vec::new();
    for i in 1..=6u16 {
        let queued = i % 2 == 0;
        let spec = if queued {
            PortSpec::queued("in", PortDirection::Required, 2)
        } else {
            PortSpec::sender_receiver("in", PortDirection::Required)
        };
        let descriptor = SwcDescriptor::new(format!("consumer{i}")).with_port(spec);
        rte.register_component(swc(i), &descriptor).unwrap();
        let port = rte.port_id(swc(i), "in").unwrap();
        shadow.add_port(port, queued.then_some(2));
        requirers.push(port);
    }

    let frames: Vec<CanId> = (0..3u32).map(|i| CanId::new(0x200 + i).unwrap()).collect();

    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let mut connected: Vec<(PortId, PortId)> = Vec::new();
    for op in 0..4000u64 {
        match rng.gen_range_u64(0, 10) {
            // Mid-run reconfiguration: connect a random provider/requirer pair.
            0 => {
                let provider = providers[rng.gen_range_u64(0, 3) as usize];
                let requirer = requirers[rng.gen_range_u64(0, 6) as usize];
                rte.connect(provider, requirer).unwrap();
                shadow
                    .connections
                    .entry(provider)
                    .or_default()
                    .push(requirer);
                connected.push((provider, requirer));
                assert!(rte.verify_compiled_routes(), "op {op}: routes consistent");
            }
            // Mid-run reconfiguration: disconnect a previously added pair.
            1 if !connected.is_empty() => {
                let index = rng.gen_range_u64(0, connected.len() as u64) as usize;
                let (provider, requirer) = connected.swap_remove(index);
                rte.disconnect(provider, requirer).unwrap();
                let list = shadow.connections.get_mut(&provider).unwrap();
                let position = list.iter().position(|r| *r == requirer).unwrap();
                list.remove(position);
                assert!(rte.verify_compiled_routes(), "op {op}: routes consistent");
            }
            // Mid-run reconfiguration: map a frame onto a random requirer.
            2 => {
                let frame = frames[rng.gen_range_u64(0, 3) as usize];
                let requirer = requirers[rng.gen_range_u64(0, 6) as usize];
                rte.map_signal_in(frame, requirer).unwrap();
                shadow.rx_mapping.entry(frame).or_default().push(requirer);
            }
            // Mid-run reconfiguration: (re)map a provider onto a frame.
            3 => {
                let provider = providers[rng.gen_range_u64(0, 3) as usize];
                let frame = frames[rng.gen_range_u64(0, 3) as usize];
                rte.map_signal_out(provider, frame).unwrap();
                shadow.tx_mapping.insert(provider, frame);
            }
            // Signal plane: a component writes.
            4..=6 => {
                let provider = providers[rng.gen_range_u64(0, 3) as usize];
                let value = random_value(&mut rng, op);
                rte.write_port(provider, value.clone()).unwrap();
                shadow.write_port(provider, value);
            }
            // Signal plane: a frame arrives from the network.
            7..=8 => {
                let frame = frames[rng.gen_range_u64(0, 3) as usize];
                let value = random_value(&mut rng, op);
                rte.deliver_inbound(frame, value.clone());
                shadow.deliver_inbound(frame, value);
            }
            // Signal plane: a consumer takes.
            _ => {
                let port = requirers[rng.gen_range_u64(0, 6) as usize];
                let real = rte.take_port(port).unwrap();
                let expected = shadow.take_port(port);
                assert_eq!(
                    real.as_ref().map(encode_value),
                    expected.as_ref().map(encode_value),
                    "op {op}: byte-identical consumed value on {port}"
                );
            }
        }

        // Notification order and outbound traffic stay byte-identical.
        assert_eq!(
            rte.drain_data_received(),
            std::mem::take(&mut shadow.data_received),
            "op {op}: data-received order"
        );
        let real_outbound: Vec<(u32, Vec<u8>)> = rte
            .drain_outbound()
            .iter()
            .map(|(id, v)| (id.raw(), encode_value(v)))
            .collect();
        let shadow_outbound: Vec<(u32, Vec<u8>)> = std::mem::take(&mut shadow.outbound)
            .iter()
            .map(|(id, v)| (id.raw(), encode_value(v)))
            .collect();
        assert_eq!(real_outbound, shadow_outbound, "op {op}: outbound frames");
    }
    // Also checks that every registered port's id, name and dense slot
    // resolve onto each other.
    assert!(rte.verify_compiled_routes());
}

/// The ECU's compiled dispatch tables (task → component, runnable indices,
/// periodic list, slot-indexed data-received triggers) agree with a fresh
/// compile of the registered descriptors on every ECU of every scenario —
/// and on an ECU whose RTE also hosts a component registered directly under
/// a foreign id, which shifts every later component off its predicted
/// position.
#[test]
fn ecu_dispatch_tables_match_a_fresh_compile_everywhere() {
    let mut quickstart = Quickstart::build().unwrap();
    quickstart.feed_sensor(3).unwrap();
    assert!(quickstart.ecu.verify_dispatch_tables());
    assert!(quickstart.ecu.rte().verify_compiled_routes());

    let mut car = RemoteCarScenario::build().unwrap();
    car.install_app().unwrap();
    car.drive(40).unwrap();
    for ecu in car.vehicle_mut().ecus() {
        assert!(ecu.verify_dispatch_tables(), "remote car ECU {}", ecu.id());
        assert!(
            ecu.rte().verify_compiled_routes(),
            "remote car ECU {}",
            ecu.id()
        );
    }

    let mut fleet = FleetScenario::build(3).unwrap();
    fleet.install_telemetry(3).unwrap();
    fleet.fleet.run(10).unwrap();
    for id in fleet.fleet.vehicle_ids().to_vec() {
        for ecu in fleet.fleet.vehicle(&id).unwrap().ecus() {
            assert!(ecu.verify_dispatch_tables(), "fleet ECU {}", ecu.id());
            assert!(ecu.rte().verify_compiled_routes(), "fleet ECU {}", ecu.id());
        }
    }

    // A foreign component registered straight on the RTE takes position 0,
    // so the ECU's own components sit one position past their local index.
    let mut ecu = Ecu::new(EcuId::new(5));
    ecu.rte_mut()
        .register_component(
            SwcId::new(EcuId::new(9), 0),
            &SwcDescriptor::new("foreign")
                .with_port(PortSpec::sender_receiver("x", PortDirection::Provided)),
        )
        .unwrap();
    let producer = ecu
        .add_component(
            SwcDescriptor::new("producer")
                .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                .with_runnable(RunnableSpec::new("tick", Trigger::Periodic(2)))
                .with_runnable(RunnableSpec::new("manual", Trigger::OnDemand)),
            Box::new(Counter { count: 0 }),
        )
        .unwrap();
    let relay = ecu
        .add_component(
            SwcDescriptor::new("relay")
                .with_port(PortSpec::queued("in", PortDirection::Required, 4))
                .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                .with_runnable(RunnableSpec::new("idle", Trigger::OnDemand))
                .with_runnable(RunnableSpec::new("fwd", Trigger::DataReceived("in".into()))),
            Box::new(Relay),
        )
        .unwrap();
    let sink = ecu
        .add_component(
            SwcDescriptor::new("sink")
                .with_port(PortSpec::queued("in", PortDirection::Required, 8))
                .with_runnable(RunnableSpec::new("a", Trigger::DataReceived("in".into())))
                .with_runnable(RunnableSpec::new("b", Trigger::DataReceived("in".into()))),
            Box::new(Relay),
        )
        .unwrap();
    ecu.connect_local(producer, "out", relay, "in").unwrap();
    ecu.connect_local(relay, "out", sink, "in").unwrap();
    assert!(ecu.verify_dispatch_tables());
    assert!(ecu.rte().verify_compiled_routes());
    ecu.run(9).unwrap();
    assert!(ecu.take_behaviour_errors().is_empty());
    assert!(ecu.verify_dispatch_tables());
    assert_eq!(
        ecu.rte().read_port_by_name(relay, "out").unwrap(),
        Value::I64(4),
        "four periodic writes relayed through the data-received trigger"
    );
    assert_eq!(
        ecu.rte()
            .pending_on(ecu.rte().port_id(sink, "in").unwrap())
            .unwrap(),
        0
    );
    ecu.trigger_runnable(producer, "manual").unwrap();
    assert_eq!(ecu.component_by_name("relay"), Some(relay));
}

/// Counts its activations onto `out`.
struct Counter {
    count: i64,
}

impl ComponentBehavior for Counter {
    fn on_runnable(&mut self, _runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        self.count += 1;
        ctx.write("out", Value::I64(self.count))
    }
}

/// Forwards everything waiting on `in` to `out` (when it has one).
struct Relay;

impl ComponentBehavior for Relay {
    fn on_runnable(&mut self, _runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        while let Some(value) = ctx.receive("in")? {
            if ctx.pending("in").is_ok() && ctx.port_id("out").is_ok() {
                ctx.write("out", value)?;
            }
        }
        Ok(())
    }
}

fn random_value(rng: &mut StdRng, op: u64) -> Value {
    match rng.gen_range_u64(0, 4) {
        0 => Value::I64(rng.next_u64() as i64),
        1 => Value::F64(op as f64 * 0.5),
        2 => Value::Text(format!("op-{op}")),
        _ => Value::List(vec![
            Value::I64(op as i64),
            Value::Bool(op.is_multiple_of(2)),
        ]),
    }
}

// ---------------------------------------------------------------------------
// 2. Golden scenarios: observables recorded from the seed implementation.
// ---------------------------------------------------------------------------

/// Seed observables captured at commit `f94aa31` (the pre-refactor HashMap
/// implementation) by running exactly these workloads.
mod golden {
    pub const QUICKSTART_FNV: u64 = 0xb66711b3b2dfb17b;
    pub const BUS_FNV: u64 = 0x088683c08bef62e5;
}

#[test]
fn quickstart_signal_sequence_is_byte_identical_to_the_seed() {
    let mut system = Quickstart::build().unwrap();
    let mut hash = FNV_OFFSET;
    for round in 1..=50i64 {
        system.feed_sensor(round).unwrap();
        let output = system.actuator_output().unwrap();
        assert_eq!(output, Value::I64(round * 2));
        fold(&mut hash, &encode_value(&output));
    }
    assert_eq!(
        hash,
        golden::QUICKSTART_FNV,
        "quickstart actuator sequence diverged from the seed implementation"
    );
}

#[test]
fn remote_car_drive_matches_the_seed_observables() {
    let mut scenario = RemoteCarScenario::build().unwrap();
    scenario.install_app().unwrap();
    let report = scenario.drive(300).unwrap();

    // DriveReport recorded from the seed implementation.
    assert_eq!(report.commands_sent, 60);
    assert_eq!(report.commands_delivered, 60);
    assert_eq!(report.final_speed, 14.0);
    assert_eq!(report.final_wheel_angle, -1.0);
    assert_eq!(report.odometer, 5.699999999999999);

    // Bus statistics recorded from the seed implementation, except that
    // type I ports carry each management message as `Value::Bytes` of its
    // encoding: the install relayed to SWC2 and its ack each cross the bus
    // 5 bytes longer (a bytes tag and a u32 length), so `payload_bytes` is
    // the seed's 2191 + 2 x 5 in the same 68 frames.
    let bus = scenario.vehicle_mut().bus().stats();
    assert_eq!(
        bus,
        BusStats {
            sent: 68,
            delivered: 68,
            dropped: 0,
            unrouted: 0,
            worst_latency: 1,
            payload_bytes: 2201,
        }
    );

    // PIRTE signal counters recorded from the seed implementation.
    let ecm = scenario.ecm_pirte().lock().stats();
    assert_eq!(
        (
            ecm.signals_in,
            ecm.signals_out,
            ecm.slots_granted,
            ecm.instructions_executed
        ),
        (60, 60, 306, 3179),
        "ECM PIRTE counters diverged: {ecm:?}"
    );
    let swc2 = scenario.pirte2().lock().stats();
    assert_eq!(
        (
            swc2.signals_in,
            swc2.signals_out,
            swc2.slots_granted,
            swc2.instructions_executed
        ),
        (60, 60, 304, 3159),
        "SWC2 PIRTE counters diverged: {swc2:?}"
    );
    assert!(scenario.ecm_pirte().lock().verify_compiled_routes());
    assert!(scenario.pirte2().lock().verify_compiled_routes());
}

#[test]
fn lossy_bus_delivery_sequence_is_byte_identical_to_the_seed() {
    let mut bus = Bus::new(BusConfig {
        frames_per_tick: 4,
        latency_ticks: 2,
        drop_probability: 0.3,
        seed: 42,
    });
    let a = EcuId::new(1);
    let b = EcuId::new(2);
    let c = EcuId::new(3);
    bus.attach(a);
    bus.attach(b);
    bus.attach(c);
    bus.subscribe(b, CanId::new(0x10).unwrap());
    bus.subscribe(b, CanId::new(0x11).unwrap());
    bus.subscribe(c, CanId::new(0x11).unwrap());
    bus.subscribe(c, CanId::new(0x12).unwrap());

    let mut hash = FNV_OFFSET;
    for tick in 0..200u64 {
        let now = Tick::new(tick);
        let id = 0x10 + (tick % 3) as u32;
        bus.send(
            a,
            Frame::new(CanId::new(id).unwrap(), vec![tick as u8, 1]).unwrap(),
            now,
        )
        .unwrap();
        if tick % 2 == 0 {
            bus.send(
                b,
                Frame::new(CanId::new(0x12).unwrap(), vec![tick as u8, 2]).unwrap(),
                now,
            )
            .unwrap();
        }
        bus.step(now);
        for (tag, ecu) in [(1u8, a), (2, b), (3, c)] {
            for frame in bus.receive(ecu) {
                fold(&mut hash, &[tag]);
                fold(&mut hash, &frame.id().raw().to_le_bytes());
                fold(&mut hash, frame.payload());
            }
        }
    }
    assert_eq!(
        hash,
        golden::BUS_FNV,
        "lossy bus delivery sequence diverged from the seed implementation"
    );
    assert_eq!(
        bus.stats(),
        BusStats {
            sent: 300,
            delivered: 257,
            dropped: 85,
            unrouted: 0,
            worst_latency: 2,
            payload_bytes: 600,
        }
    );
}

/// Server-side bytes of exactly this lossy fleet (a journal, an install
/// wave and a v1 → v2 update with retransmissions), first recorded from the
/// revision whose ECM relayed management messages as value trees.  The
/// byte relay through the ECM changed only the in-vehicle encoding of
/// type I traffic, so only `payload_bytes` grew, by 5 bytes per relayed
/// message and per acknowledgement (the recorded revision read 51 552).
///
/// Adaptive ack deadlines then re-pinned the bytes that depend on how long
/// the run takes.  Each retransmission now waits the vehicle's measured
/// timeout instead of a fixed 25 ticks, so the update converges at tick
/// 398 instead of 440: the journal holds fewer `Tick` records but two
/// more estimator fields per vehicle and one more per outstanding entry
/// in its snapshots (23 770 → 24 017 bytes), and the vehicles' buses run
/// fewer ticks (frames sent/delivered 1 920/5 760 → 1 800/5 400, and the
/// 120 frames not sent carried 1 800 payload bytes, so the tree-relay base
/// of the payload count reads 49 752 at this run length).  The ledger and
/// transport counts are unchanged: the same packages were pushed, the same
/// 13 were lost, and each was retransmitted once.
///
/// The word-wise frame checksum then re-pinned the journal digest
/// (0x9105_e7d8_4add_3780 → 0x77a7_5b0c_92fc_7875): the digest covers the
/// 4 checksum bytes of every frame header.  The length, the payloads and
/// the snapshot are unchanged, which the test shows by framing the same
/// payloads with FNV-1a checksums again and matching the old digest.
#[test]
fn lossy_fleet_server_bytes_match_the_tree_relay_revision() {
    use dynar::fes::transport::TransportConfig;
    use dynar::sim::scenario::fleet::FleetScenarioConfig;

    let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
        vehicles: 12,
        transport: TransportConfig {
            latency_ticks: 1,
            loss_probability: 0.05,
            seed: 11,
        },
        ..FleetScenarioConfig::default()
    })
    .unwrap();
    scenario.fleet.server.enable_journal(64);
    scenario.install_telemetry(5).unwrap();
    scenario.fleet.run(40).unwrap();
    let ids = scenario.fleet.vehicle_ids().to_vec();
    scenario.update_telemetry(&ids, 7).unwrap();
    scenario.fleet.run(200).unwrap();

    let digest = |bytes: &[u8]| {
        let mut hash = FNV_OFFSET;
        fold(&mut hash, bytes);
        hash
    };
    let server = &scenario.fleet.server;
    let journal = server.journal_bytes().unwrap();
    assert_eq!(journal.len(), 24_017);
    assert_eq!(digest(journal), 0x77a7_5b0c_92fc_7875, "journal");
    // The word-wise frame checksum changed only the 4 checksum bytes of
    // each frame header: framed again with FNV-1a checksums, the same
    // payloads give the digest pinned before it.
    let mut fnv_framed = Vec::with_capacity(journal.len());
    let mut frames = FrameReader::new(journal);
    while let Some(payload) = frames.next_frame().unwrap() {
        fnv_framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        fnv_framed.extend_from_slice(&fnv1a(payload).to_le_bytes());
        fnv_framed.extend_from_slice(payload);
    }
    assert_eq!(fnv_framed.len(), journal.len());
    assert_eq!(
        digest(&fnv_framed),
        0x9105_e7d8_4add_3780,
        "journal under FNV-1a frame checksums"
    );
    assert_eq!(
        digest(&server.snapshot_bytes()),
        0x6e34_b735_bcfc_23ad,
        "snapshot"
    );
    let ledger = server.ledger();
    assert_eq!(
        (
            ledger.installs_pushed,
            ledger.uninstalls_pushed,
            ledger.retransmissions
        ),
        (72, 36, 13)
    );
    let transport = scenario.fleet.transport_stats();
    assert_eq!(
        (transport.sent, transport.delivered, transport.lost),
        (239, 226, 13)
    );
    let mut bus = BusStats::default();
    for id in &ids {
        let stats = scenario.fleet.vehicle(id).unwrap().bus().stats();
        bus.sent += stats.sent;
        bus.delivered += stats.delivered;
        bus.unrouted += stats.unrouted;
        bus.payload_bytes += stats.payload_bytes;
    }
    assert_eq!((bus.sent, bus.delivered, bus.unrouted), (1800, 5400, 0));
    let relayed = ledger.installs_pushed + ledger.uninstalls_pushed;
    assert_eq!(bus.payload_bytes, 49_752 + 2 * 5 * relayed);
}

// ---------------------------------------------------------------------------
// 3. Reconfiguration properties: no stale slots after churn.
// ---------------------------------------------------------------------------

fn churn_pirte() -> Pirte {
    let config = PluginSwcConfig::new("churn-swc")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "In",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "swc_in",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(1),
            "Out",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "swc_out",
        ));
    Pirte::new(EcuId::new(1), config)
}

fn churn_package(name: &str, base_port: u32, ports: u32) -> InstallationPackage {
    let binary = assemble(name, "yield\nhalt").unwrap().to_bytes();
    let mut pic = PortInitContext::new();
    let mut plc = PortLinkContext::new();
    for offset in 0..ports {
        let id = PluginPortId::new(base_port + offset);
        let provided = offset % 2 == 1;
        let direction = if provided {
            PluginPortDirection::Provided
        } else {
            PluginPortDirection::Required
        };
        pic = pic.with_port(format!("p{offset}"), id, direction);
        let link = if provided {
            LinkTarget::VirtualPort(VirtualPortId::new(1))
        } else if offset % 3 == 0 {
            LinkTarget::VirtualPort(VirtualPortId::new(0))
        } else {
            LinkTarget::Direct
        };
        plc = plc.with_link(id, link);
    }
    InstallationPackage::new(
        PluginId::new(name),
        AppId::new("churn"),
        binary,
        InstallationContext::new(pic, plc),
    )
}

/// A PIRTE with every kind of virtual port a plug-in port can link to:
/// type III in and out, type II in and out.
fn lifecycle_pirte() -> Pirte {
    let port = |id: u16, name: &str, kind, direction, swc_port: &str| {
        VirtualPortSpec::new(VirtualPortId::new(id), name, kind, direction, swc_port)
    };
    let config = PluginSwcConfig::new("lifecycle-swc")
        .with_type_i_ports("mgmt_in", "mgmt_out")
        .with_virtual_port(port(
            0,
            "In",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "swc_in",
        ))
        .with_virtual_port(port(
            1,
            "Out",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "swc_out",
        ))
        .with_virtual_port(port(
            2,
            "RemoteIn",
            PortKind::TypeII,
            PortDataDirection::ToPlugins,
            "remote_in",
        ))
        .with_virtual_port(port(
            3,
            "RemoteOut",
            PortKind::TypeII,
            PortDataDirection::ToSystem,
            "remote_out",
        ));
    Pirte::new(EcuId::new(1), config)
}

/// One generated plug-in: `ports` ports alternating required/provided,
/// link choices drawn from `links`, port ids from a per-plug-in range that
/// `huge` puts past the direct owner table (its limit is 4096), and a gain
/// that tells replacements apart in the outputs.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ports: u32,
    links: u16,
    huge: bool,
    gain: i64,
}

fn lifecycle_port_id(index: u8, shape: Shape, port: u32) -> PluginPortId {
    let base = if shape.huge { 4_096 } else { 0 } + 8 * u32::from(index);
    PluginPortId::new(base + port)
}

/// The plug-in `index` in `shape`: it forwards each required port's values,
/// times its gain, to the provided port after it (an unpaired required port
/// is drained).  Required ports link to the type III input or directly;
/// provided ports to the type III output, a remote port through the type II
/// output, or directly.
fn lifecycle_package(index: u8, shape: Shape) -> InstallationPackage {
    let mut source = String::from("loop:\n");
    for required in (0..shape.ports).step_by(2) {
        let provided = required + 1;
        let forward = if provided < shape.ports {
            format!("push_int {}\nmul\nwrite_port {provided}\n", shape.gain)
        } else {
            "pop\n".to_owned()
        };
        source += &format!(
            "port_{required}:\nport_pending {required}\npush_int 0\ngt\n\
             jump_if_false done_{required}\ntake_port {required}\n{forward}\
             jump port_{required}\ndone_{required}:\n"
        );
    }
    source += "yield\njump loop\n";
    let name = format!("plugin-{index}");
    let binary = assemble(&name, &source).unwrap().to_bytes();
    let mut pic = PortInitContext::new();
    let mut plc = PortLinkContext::new();
    for port in 0..shape.ports {
        let id = lifecycle_port_id(index, shape, port);
        let choice = (shape.links >> (2 * port)) % 4;
        let (direction, link) = if port.is_multiple_of(2) {
            let link = if choice.is_multiple_of(2) {
                LinkTarget::VirtualPort(VirtualPortId::new(0))
            } else {
                LinkTarget::Direct
            };
            (PluginPortDirection::Required, link)
        } else {
            let link = match choice % 3 {
                0 => LinkTarget::VirtualPort(VirtualPortId::new(1)),
                1 => LinkTarget::RemotePluginPort {
                    via: VirtualPortId::new(3),
                    remote: PluginPortId::new(70 + port),
                },
                _ => LinkTarget::Direct,
            };
            (PluginPortDirection::Provided, link)
        };
        pic = pic.with_port(format!("p{port}"), id, direction);
        plc = plc.with_link(id, link);
    }
    InstallationPackage::new(
        PluginId::new(name),
        AppId::new("lifecycle"),
        binary,
        InstallationContext::new(pic, plc),
    )
}

/// `after − before`, field by field.
fn stats_delta(after: PirteStats, before: PirteStats) -> PirteStats {
    PirteStats {
        installs: after.installs - before.installs,
        uninstalls: after.uninstalls - before.uninstalls,
        reinstalls: after.reinstalls - before.reinstalls,
        rejected_operations: after.rejected_operations - before.rejected_operations,
        signals_in: after.signals_in - before.signals_in,
        signals_out: after.signals_out - before.signals_out,
        slots_granted: after.slots_granted - before.slots_granted,
        instructions_executed: after.instructions_executed - before.instructions_executed,
        plugin_faults: after.plugin_faults - before.plugin_faults,
    }
}

/// What a PIRTE makes of one round of inputs: the result of every input,
/// its outbox, its direct outputs and the change of its counters.
type Observed = (
    Vec<String>,
    Vec<(String, Value)>,
    Vec<(PluginId, PluginPortId, Value)>,
    PirteStats,
);

/// Feeds `pirte` a type III value, a type II value for each of `ids` and a
/// direct delivery to each, runs its plug-ins and reports what came out.
/// A first, input-free slot parks every VM at its `yield`, so a plug-in
/// installed a moment ago and one that has run for a while start alike.
fn observe(pirte: &mut Pirte, ids: &[PluginPortId], round: i64) -> Observed {
    pirte.run_plugins();
    let idle = (pirte.drain_outbox(), pirte.take_direct_outputs());
    assert_eq!(
        idle,
        (Vec::new(), Vec::new()),
        "an input-free slot writes nothing"
    );
    let before = pirte.stats();
    let mut results = vec![format!(
        "{:?}",
        pirte.dispatch_swc_input("swc_in", Value::I64(round))
    )];
    for (offset, id) in ids.iter().enumerate() {
        let value = round * 100 + offset as i64;
        let wrapped = Value::List(vec![Value::I64(i64::from(id.index())), Value::I64(value)]);
        results.push(format!(
            "{:?}",
            pirte.dispatch_swc_input("remote_in", wrapped)
        ));
        results.push(format!(
            "{:?}",
            pirte.deliver_to_port(*id, Value::I64(-value))
        ));
    }
    results.push(format!("{} slots", pirte.run_plugins()));
    (
        results,
        pirte.drain_outbox(),
        pirte.take_direct_outputs(),
        stats_delta(pirte.stats(), before),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// install → uninstall → reinstall churn leaves the compiled route
    /// tables with no stale slots: every table entry matches a fresh compile
    /// and the dense slot width is bounded by the port high-water mark.
    #[test]
    fn pirte_reinstall_churn_leaves_no_stale_slots(
        ops in proptest::collection::vec((0u8..2, 0u8..4, 1u32..5), 1..40),
    ) {
        let mut pirte = churn_pirte();
        let mut installed: HashMap<u8, u32> = HashMap::new();
        let mut high_water = 0u32;
        for (kind, plugin_index, ports) in ops {
            let name = format!("plugin-{plugin_index}");
            match kind {
                0 => {
                    // Install with a per-plugin disjoint port-id range.
                    if let std::collections::hash_map::Entry::Vacant(entry) =
                        installed.entry(plugin_index)
                    {
                        let base = u32::from(plugin_index) * 8;
                        pirte.install(churn_package(&name, base, ports)).unwrap();
                        entry.insert(ports);
                        let live: u32 = installed.values().sum();
                        high_water = high_water.max(live);
                    }
                }
                _ => {
                    if installed.remove(&plugin_index).is_some() {
                        pirte.uninstall(&PluginId::new(&name)).unwrap();
                    }
                }
            }
            prop_assert!(
                pirte.verify_compiled_routes(),
                "compiled tables diverged after churn"
            );
        }
        // Reinstall everything once more: freed slots must be reused.
        let names: Vec<u8> = installed.keys().copied().collect();
        for plugin_index in names {
            pirte.uninstall(&PluginId::new(format!("plugin-{plugin_index}"))).unwrap();
            prop_assert!(pirte.verify_compiled_routes());
        }
        for plugin_index in 0u8..4 {
            pirte
                .install(churn_package(&format!("plugin-{plugin_index}"), u32::from(plugin_index) * 8, 2))
                .unwrap();
            prop_assert!(pirte.verify_compiled_routes());
        }
        for plugin_index in 0u8..4 {
            pirte.uninstall(&PluginId::new(format!("plugin-{plugin_index}"))).unwrap();
        }
        prop_assert!(pirte.verify_compiled_routes());
        prop_assert_eq!(pirte.plugin_count(), 0);
        let width_bound = u64::from(high_water.max(8)) as usize;
        prop_assert!(
            pirte.plugin_port_slot_capacity() <= width_bound,
            "slot table width {} exceeds high-water bound {}",
            pirte.plugin_port_slot_capacity(),
            width_bound
        );
    }

    /// Random install, uninstall and replace-install (a management
    /// `Install` for a present plug-in) over type II remote links, direct
    /// links and port ids past the direct owner table: after every
    /// operation the patched tables equal a fresh compile, and the PIRTE
    /// behaves exactly like one freshly built by installing the same
    /// plug-ins in the same order — same results, outbox, direct outputs
    /// and counters for the same type II/III inputs and direct deliveries.
    #[test]
    fn patched_pirte_tables_match_a_freshly_built_pirte(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..4, 1u32..5, any::<u16>(), any::<bool>(), 1i64..5),
            1..30,
        ),
    ) {
        let mut pirte = lifecycle_pirte();
        // The installed plug-ins in PIRTE order: a replacement moves to the
        // end, as it does in the PIRTE.
        let mut model: Vec<(u8, Shape)> = Vec::new();
        for (round, (kind, index, ports, links, huge, gain)) in ops.into_iter().enumerate() {
            let shape = Shape { ports, links, huge, gain };
            let present = model.iter().position(|(i, _)| *i == index);
            match (kind, present) {
                (0, None) => {
                    pirte.install(lifecycle_package(index, shape)).unwrap();
                    model.push((index, shape));
                }
                (1, Some(position)) => {
                    pirte.uninstall(&PluginId::new(format!("plugin-{index}"))).unwrap();
                    model.remove(position);
                }
                (2, _) => {
                    let ack = pirte.handle_management(ManagementMessage::Install(
                        lifecycle_package(index, shape),
                    ));
                    prop_assert!(
                        matches!(&ack, Some(ManagementMessage::Ack(ack)) if ack.status == AckStatus::Installed),
                        "replace-install acknowledged: {ack:?}"
                    );
                    if let Some(position) = present {
                        model.remove(position);
                    }
                    model.push((index, shape));
                }
                _ => {}
            }
            prop_assert!(pirte.verify_compiled_routes(), "op {round}: tables diverged");
            prop_assert_eq!(pirte.plugin_count(), model.len());

            let mut fresh = lifecycle_pirte();
            for (index, shape) in &model {
                fresh.install(lifecycle_package(*index, *shape)).unwrap();
            }
            prop_assert!(fresh.verify_compiled_routes());
            prop_assert_eq!(pirte.plugin_states(), fresh.plugin_states());
            // Every live id, one unknown id and one unknown id past the
            // direct table.
            let mut ids: Vec<PluginPortId> = model
                .iter()
                .flat_map(|(index, shape)| {
                    (0..shape.ports).map(move |port| lifecycle_port_id(*index, *shape, port))
                })
                .collect();
            ids.extend([PluginPortId::new(60), PluginPortId::new(9_000)]);
            let round = round as i64;
            prop_assert_eq!(
                observe(&mut pirte, &ids, round),
                observe(&mut fresh, &ids, round),
                "op {}: the patched PIRTE behaves unlike a fresh one",
                round
            );
        }
    }

    /// Random (dis)connect and (un)map churn keeps the RTE's compiled plane
    /// equal to a fresh compile of the declarative wiring.
    #[test]
    fn rte_reconnection_churn_keeps_tables_consistent(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 1..60),
    ) {
        let mut rte = Rte::new();
        let swc = |local| SwcId::new(EcuId::new(0), local);
        let producer = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("p0", PortDirection::Provided))
            .with_port(PortSpec::sender_receiver("p1", PortDirection::Provided))
            .with_port(PortSpec::sender_receiver("p2", PortDirection::Provided));
        rte.register_component(swc(0), &producer).unwrap();
        let providers: Vec<PortId> = (0..3)
            .map(|i| rte.port_id(swc(0), &format!("p{i}")).unwrap())
            .collect();
        let mut requirers = Vec::new();
        for i in 1..=3u16 {
            let descriptor = SwcDescriptor::new(format!("c{i}"))
                .with_port(PortSpec::queued("in", PortDirection::Required, 4));
            rte.register_component(swc(i), &descriptor).unwrap();
            requirers.push(rte.port_id(swc(i), "in").unwrap());
        }
        let frame = CanId::new(0x99).unwrap();
        for (kind, a, b) in ops {
            let provider = providers[usize::from(a)];
            let requirer = requirers[usize::from(b)];
            match kind {
                0 => rte.connect(provider, requirer).unwrap(),
                1 => {
                    let _ = rte.disconnect(provider, requirer);
                }
                2 => rte.map_signal_in(frame, requirer).unwrap(),
                _ => {
                    let _ = rte.unmap_signal_in(frame, requirer);
                }
            }
            prop_assert!(rte.verify_compiled_routes());
        }
    }
}

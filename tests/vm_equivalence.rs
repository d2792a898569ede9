//! The execution-plane equivalence suite.
//!
//! The compiled fast plane (`dynar::vm::compiled`) must be observably
//! byte-identical to the reference interpreter — same outcomes, statuses,
//! port effects, logs, fault messages and budget consumption.  This suite
//! proves it three ways:
//!
//! 1. every scenario-style program runs in lock-step shadow mode
//!    ([`ShadowVm`] panics on any divergence),
//! 2. a whole PIRTE runs the same traffic under all three [`ExecMode`]s and
//!    must produce identical routed outputs and stats,
//! 3. a fixed-seed sweep of random programs under adversarially tight
//!    budgets (tiny slots, tiny stacks, tiny memory, missing ports) runs in
//!    shadow mode — the same proof the routing plane got in its
//!    `routing_equivalence` suite, applied to the execution plane,
//! 4. the compiled plane replaying idle slots against a host that tracks
//!    its generation runs random, tame and idle-loop programs under random
//!    port traffic and must match the interpreter after every slot, and a
//!    quiet fleet replays exactly the share of worker slots the replay
//!    rule predicts.

use dynar::core::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar::core::pirte::Pirte;
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::core::InstallationPackage;
use dynar::foundation::error::{DynarError, Result};
use dynar::foundation::ids::{AppId, EcuId, PluginId, PluginPortId, VirtualPortId};
use dynar::foundation::value::Value;
use dynar::sim::scenario::fleet::{FleetScenario, SENSOR_PERIOD};
use dynar::vm::isa::Instruction;
use dynar::vm::program::Program;
use dynar::vm::{assemble, Budget, CompiledVm, ExecMode, PortHost, ShadowVm, Vm};

// ---------------------------------------------------------------------------
// A deterministic host fake (mirrors the vm crate's test host).
// ---------------------------------------------------------------------------

struct FakeHost {
    slots: Vec<Vec<Value>>,
    written: Vec<(u32, Value)>,
    logs: Vec<String>,
}

impl FakeHost {
    fn new(slot_count: usize) -> Self {
        FakeHost {
            slots: vec![Vec::new(); slot_count],
            written: Vec::new(),
            logs: Vec::new(),
        }
    }

    fn slot(&mut self, slot: u32) -> Result<&mut Vec<Value>> {
        self.slots
            .get_mut(slot as usize)
            .ok_or_else(|| DynarError::not_found("port slot", slot))
    }
}

impl PortHost for FakeHost {
    fn read_port(&mut self, slot: u32) -> Result<Value> {
        Ok(self.slot(slot)?.first().cloned().unwrap_or_default())
    }
    fn take_port(&mut self, slot: u32) -> Result<Value> {
        let queue = self.slot(slot)?;
        Ok(if queue.is_empty() {
            Value::Void
        } else {
            queue.remove(0)
        })
    }
    fn write_port(&mut self, slot: u32, value: Value) -> Result<()> {
        self.slot(slot)?;
        self.written.push((slot, value));
        Ok(())
    }
    fn pending(&mut self, slot: u32) -> Result<usize> {
        Ok(self.slot(slot)?.len())
    }
    fn log(&mut self, message: &str) {
        self.logs.push(message.to_owned());
    }
}

// ---------------------------------------------------------------------------
// 1. Scenario programs in shadow mode.
// ---------------------------------------------------------------------------

/// The scenario idioms the demonstrators ship: pending-guard loops,
/// take/forward pipelines, accumulators, list builders, a div-by-zero
/// faulter and a runaway loop living off preemption.
fn scenario_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "doubler",
            r#"
            loop:
                port_pending 0
                push_int 0
                gt
                jump_if_false idle
                take_port 0
                push_int 2
                mul
                write_port 1
                jump loop
            idle:
                yield
                jump loop
            "#,
        ),
        (
            "forwarder",
            r#"
            loop:
                port_pending 0
                push_int 0
                gt
                jump_if_false idle
                take_port 0
                write_port 1
                jump loop
            idle:
                yield
                jump loop
            "#,
        ),
        (
            "accumulator",
            r#"
                push_int 0
                store 0
            loop:
                load 0
                push_int 3
                add
                store 0
                load 0
                write_port 1
                yield
                jump loop
            "#,
        ),
        (
            "lister",
            r#"
                take_port 0
                push_int 1
                make_list 2
                dup
                list_len
                write_port 1
                push_int 0
                list_get
                log
                yield
                halt
            "#,
        ),
        (
            "faulter",
            r#"
                take_port 0
                push_int 0
                div
                write_port 1
                halt
            "#,
        ),
        (
            "runaway",
            r#"
                push_int 1
                store 0
            loop:
                load 0
                push_int 2
                mul
                store 0
                jump loop
            "#,
        ),
    ]
}

#[test]
fn scenario_programs_shadow_execute_identically() {
    for (name, source) in scenario_sources() {
        let program = assemble(name, source).unwrap();
        // A modest budget so the runaway multiplier is preempted (and
        // eventually faults on checked overflow — identically on both
        // planes).
        let mut shadow = ShadowVm::new(program, Budget::new(64)).unwrap();
        let mut host = FakeHost::new(2);
        let mut faulted = false;
        for tick in 0..12 {
            if tick % 3 != 2 {
                host.slots[0].push(Value::I64(tick));
            }
            if shadow.run_slot(&mut host).is_err() {
                faulted = true;
            }
        }
        if name == "faulter" || name == "runaway" {
            assert!(faulted, "{name} should fault on both planes");
        }
        assert!(shadow.slots_run() > 0, "{name} ran no slots");
    }
}

// ---------------------------------------------------------------------------
// 2. A whole PIRTE under all three execution modes.
// ---------------------------------------------------------------------------

fn swc_config(mode: ExecMode) -> PluginSwcConfig {
    PluginSwcConfig::new("plugin-swc")
        .with_exec_mode(mode)
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(4),
            "WheelsReq",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "wheels_req",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(6),
            "SpeedProv",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "speed_prov",
        ))
}

fn doubler_package(name: &str) -> InstallationPackage {
    let binary = assemble(
        name,
        r#"
        loop:
            port_pending 0
            push_int 0
            gt
            jump_if_false idle
            take_port 0
            push_int 2
            mul
            write_port 1
            jump loop
        idle:
            yield
            jump loop
        "#,
    )
    .unwrap()
    .to_bytes();
    let context = InstallationContext::new(
        PortInitContext::new()
            .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(6)),
            )
            .with_link(
                PluginPortId::new(1),
                LinkTarget::VirtualPort(VirtualPortId::new(4)),
            ),
    );
    InstallationPackage::new(PluginId::new(name), AppId::new("app"), binary, context)
}

#[test]
fn pirte_routes_identically_under_all_exec_modes() {
    let modes = [ExecMode::Interpreter, ExecMode::Compiled, ExecMode::Shadow];
    let mut outboxes = Vec::new();
    let mut stats = Vec::new();
    for mode in modes {
        let mut pirte = Pirte::new(EcuId::new(2), swc_config(mode));
        pirte.install(doubler_package("dbl")).unwrap();
        let mut outbox = Vec::new();
        for tick in 0..20i64 {
            if tick % 2 == 0 {
                pirte
                    .dispatch_swc_input("speed_prov", Value::I64(tick))
                    .unwrap();
            }
            pirte.run_plugins();
            outbox.extend(pirte.drain_outbox());
        }
        outboxes.push(outbox);
        stats.push(pirte.stats());
        // Fused windows must actually execute on the fast planes.
        if mode == ExecMode::Interpreter {
            assert_eq!(pirte.fusion_counters().total(), 0);
        } else {
            assert!(
                pirte.fusion_counters().push_int_cmp_branch > 0,
                "loop-guard fusion should fire under {mode}"
            );
        }
        // Only the compiled plane replays idle slots: here every quiet
        // tick after the first data tick, the interpreter and the shadow
        // plane execute every slot.
        if mode == ExecMode::Compiled {
            assert_eq!(pirte.replayed_slots(), 9, "replay should fire under {mode}");
        } else {
            assert_eq!(pirte.replayed_slots(), 0, "{mode} must not replay");
        }
    }
    assert_eq!(outboxes[0], outboxes[1], "interpreter vs compiled outbox");
    assert_eq!(outboxes[0], outboxes[2], "interpreter vs shadow outbox");
    assert_eq!(stats[0], stats[1], "interpreter vs compiled stats");
    assert_eq!(stats[0], stats[2], "interpreter vs shadow stats");
}

#[test]
fn pirte_forwarder_fires_port_superinstructions() {
    let mut pirte = Pirte::new(EcuId::new(2), swc_config(ExecMode::Compiled));
    let binary = assemble(
        "fwd",
        r#"
        loop:
            port_pending 0
            push_int 0
            gt
            jump_if_false idle
            take_port 0
            write_port 1
            jump loop
        idle:
            yield
            jump loop
        "#,
    )
    .unwrap()
    .to_bytes();
    let context = InstallationContext::new(
        PortInitContext::new()
            .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(6)),
            )
            .with_link(
                PluginPortId::new(1),
                LinkTarget::VirtualPort(VirtualPortId::new(4)),
            ),
    );
    pirte
        .install(InstallationPackage::new(
            PluginId::new("fwd"),
            AppId::new("app"),
            binary,
            context,
        ))
        .unwrap();
    for tick in 0..10i64 {
        pirte
            .dispatch_swc_input("speed_prov", Value::I64(tick))
            .unwrap();
        pirte.run_plugins();
    }
    let counters = pirte.fusion_counters();
    assert!(counters.take_port_write_port > 0, "forwarder fusion idle");
    assert!(counters.push_int_cmp_branch > 0, "loop-guard fusion idle");
    assert_eq!(pirte.drain_outbox().len(), 10);
}

// ---------------------------------------------------------------------------
// 3. Fixed-seed random programs under adversarial budgets.
// ---------------------------------------------------------------------------

/// Splitmix-style deterministic PRNG — no external crates, stable across
/// platforms, pinned seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn random_value(rng: &mut Rng) -> Value {
    match rng.below(8) {
        0 => Value::Void,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::I64(rng.next() as i64 % 1000),
        3 => Value::I64(i64::MAX - rng.below(2) as i64),
        4 => Value::F64(rng.next() as f64 / 7.0),
        5 => Value::Text(format!("t{}", rng.below(100))),
        6 => Value::Bytes(vec![0u8; rng.below(48) as usize]),
        _ => Value::List(vec![Value::I64(1), Value::Bool(true)]),
    }
}

/// Generates a structurally valid random program: jump targets and constant
/// references are reduced modulo their ranges so compilation succeeds; all
/// runtime behaviour (underflow, type faults, budget exhaustion, missing
/// host ports) is left to chance.
fn random_program(rng: &mut Rng, index: usize) -> Program {
    let len = 4 + rng.below(36) as usize;
    let mut code = Vec::with_capacity(len);
    for _ in 0..len {
        let target = rng.below(len as u64) as u16;
        // Weighted draw: pushes dominate so a healthy share of programs run
        // clean; the risky tail (underflow, overflow, type faults, missing
        // ports) still gets drawn often enough to exercise every fault path.
        let op = match rng.below(100) {
            0..=13 => Instruction::PushInt(rng.next() as i64 % 100),
            14..=15 => Instruction::PushInt(i64::MAX - rng.below(2) as i64),
            16..=23 => Instruction::PushConst(rng.below(4) as u16),
            24..=31 => Instruction::Load(rng.below(10) as u8),
            32..=37 => Instruction::Store(rng.below(10) as u8),
            38 => Instruction::Add,
            39 => Instruction::Sub,
            40 => Instruction::Mul,
            41 => Instruction::Div,
            42 => Instruction::Rem,
            43 => Instruction::Neg,
            44 => Instruction::Not,
            45 => Instruction::And,
            46 => Instruction::Or,
            47..=48 => Instruction::Eq,
            49 => Instruction::Ne,
            50 => Instruction::Lt,
            51 => Instruction::Le,
            52 => Instruction::Gt,
            53 => Instruction::Ge,
            54..=56 => Instruction::Jump(target),
            57..=59 => Instruction::JumpIfFalse(target),
            60..=61 => Instruction::JumpIfTrue(target),
            62..=66 => Instruction::ReadPort(rng.below(4) as u32),
            67..=71 => Instruction::TakePort(rng.below(4) as u32),
            72..=74 => Instruction::WritePort(rng.below(4) as u32),
            75..=78 => Instruction::PortPending(rng.below(4) as u32),
            79..=82 => Instruction::Dup,
            83 => Instruction::Pop,
            84 => Instruction::Swap,
            85 => Instruction::MakeList(rng.below(4) as u8),
            86 => Instruction::ListGet,
            87 => Instruction::ListLen,
            88..=89 => Instruction::Log,
            90..=95 => Instruction::Yield,
            96..=98 => Instruction::Nop,
            _ => Instruction::Halt,
        };
        code.push(op);
    }
    Program::new(format!("rand{index}"))
        .with_constant(Value::I64(7))
        .with_constant(Value::F64(2.5))
        .with_constant(Value::Text("probe".into()))
        .with_constant(Value::Bytes(vec![0u8; 40]))
        .with_code(code)
}

/// Generates a program from a safe subset (stack depth tracked, no
/// arithmetic, no jumps, ports 0..=2 only) that is guaranteed to run clean —
/// these exercise the compiled plane's happy paths and give the port-fusion
/// windows (`take_port; store`, `load; write_port`) a chance to fire.
fn tame_program(rng: &mut Rng, index: usize) -> Program {
    let len = 4 + rng.below(28) as usize;
    let mut code = Vec::with_capacity(len);
    let mut depth = 0usize;
    for _ in 0..len {
        let op = match rng.below(10) {
            0..=4 if depth < 2 => {
                depth += 1;
                match rng.below(6) {
                    0 => Instruction::PushInt(rng.next() as i64 % 50),
                    1 => Instruction::PushConst(rng.below(3) as u16),
                    2 => Instruction::ReadPort(rng.below(3) as u32),
                    3 => Instruction::TakePort(rng.below(3) as u32),
                    4 => Instruction::PortPending(rng.below(3) as u32),
                    _ => Instruction::Load(0),
                }
            }
            5..=7 if depth >= 1 => {
                depth -= 1;
                match rng.below(4) {
                    0 => Instruction::Store(0),
                    1 => Instruction::Pop,
                    2 => Instruction::Log,
                    _ => Instruction::WritePort(rng.below(3) as u32),
                }
            }
            8 if depth >= 2 => {
                depth -= 1;
                if rng.below(2) == 0 {
                    Instruction::Eq
                } else {
                    Instruction::Ne
                }
            }
            9 => Instruction::Yield,
            _ => Instruction::Nop,
        };
        code.push(op);
    }
    Program::new(format!("tame{index}"))
        .with_constant(Value::I64(7))
        .with_constant(Value::F64(2.5))
        .with_constant(Value::Text("probe".into()))
        .with_code(code)
}

fn random_budget(rng: &mut Rng) -> Budget {
    let instructions = [3, 5, 7, 16, 64][rng.below(5) as usize];
    let stack = [2, 3, 4, 256][rng.below(4) as usize];
    let memory = [64, 128, 200, 64 * 1024][rng.below(4) as usize];
    let locals = [1, 2, 8][rng.below(3) as usize];
    Budget::new(instructions)
        .with_max_stack(stack)
        .with_max_memory_bytes(memory)
        .with_locals(locals)
}

#[test]
fn fixed_seed_random_programs_shadow_execute_identically() {
    let mut rng = Rng(0xDAC2_0140_0000_0005);
    let mut faults = 0u32;
    let mut clean = 0u32;
    for index in 0..400 {
        // Alternate wild soup (fault paths) with tame programs (happy
        // paths); the tame half gets enough memory that arbitrary port
        // traffic cannot push it over budget.
        let (program, budget) = if index % 2 == 0 {
            (random_program(&mut rng, index), random_budget(&mut rng))
        } else {
            (
                tame_program(&mut rng, index),
                random_budget(&mut rng).with_max_memory_bytes(64 * 1024),
            )
        };
        let mut shadow =
            ShadowVm::new(program, budget).expect("fixed-up random programs always compile");
        // Only 3 host slots: port index 3 exercises the host-fault path.
        let mut host = FakeHost::new(3);
        let mut errored = false;
        for _ in 0..4 {
            for _ in 0..rng.below(3) {
                let slot = rng.below(3) as usize;
                let value = random_value(&mut rng);
                host.slots[slot].push(value);
            }
            // ShadowVm panics on any observable divergence; errors are a
            // legitimate (and equivalence-checked) outcome.
            if shadow.run_slot(&mut host).is_err() {
                errored = true;
                break;
            }
        }
        if errored {
            faults += 1;
        } else {
            clean += 1;
        }
    }
    // The sweep must genuinely exercise both the happy paths and the fault
    // paths — a generator drifting to all-faults (or none) would gut the
    // proof.
    assert!(faults > 100, "only {faults}/400 random programs faulted");
    assert!(clean > 100, "only {clean}/400 random programs ran clean");
}

// ---------------------------------------------------------------------------
// 4. Idle-slot replay against the interpreter.
// ---------------------------------------------------------------------------

/// One host call, with the host's answer.
#[derive(Debug, Clone, PartialEq)]
enum HostEvent {
    Read(u32, Result<Value>),
    Take(u32, Result<Value>),
    Write(u32, Value, Result<()>),
    Pending(u32, Result<usize>),
    Log(String),
}

impl HostEvent {
    /// Reads and pending counts are queries with no effect, which a
    /// replayed slot does not repeat; the tape compares everything else.
    fn is_effect(&self) -> bool {
        !matches!(self, HostEvent::Read(..) | HostEvent::Pending(..))
    }
}

/// A host whose ports hold queues and last values, like the PIRTE's, and
/// that records every call.  With `generation` set it reports a generation
/// that moves on every port change, which lets the compiled plane replay.
struct TapeHost {
    queues: Vec<Vec<Value>>,
    last: Vec<Value>,
    generation: Option<u64>,
    tape: Vec<HostEvent>,
}

impl TapeHost {
    fn new(slot_count: usize, tracks_generation: bool) -> Self {
        TapeHost {
            queues: vec![Vec::new(); slot_count],
            last: vec![Value::Void; slot_count],
            generation: tracks_generation.then_some(0),
            tape: Vec::new(),
        }
    }

    fn changed(&mut self) {
        if let Some(generation) = &mut self.generation {
            *generation += 1;
        }
    }

    fn check(&self, slot: u32) -> Result<usize> {
        let index = slot as usize;
        if index < self.queues.len() {
            Ok(index)
        } else {
            Err(DynarError::not_found("port slot", slot))
        }
    }

    /// Queues a value from outside, as the PIRTE's dispatch does.
    fn push(&mut self, slot: usize, value: Value) {
        self.last[slot] = value.clone();
        self.queues[slot].push(value);
        self.changed();
    }

    /// Drops the oldest queued value from outside.
    fn drop_oldest(&mut self, slot: usize) {
        if !self.queues[slot].is_empty() {
            self.queues[slot].remove(0);
            self.changed();
        }
    }

    fn effects(&self) -> Vec<HostEvent> {
        self.tape
            .iter()
            .filter(|e| e.is_effect())
            .cloned()
            .collect()
    }
}

impl PortHost for TapeHost {
    fn read_port(&mut self, slot: u32) -> Result<Value> {
        let result = self.check(slot).map(|index| self.last[index].clone());
        self.tape.push(HostEvent::Read(slot, result.clone()));
        result
    }
    fn take_port(&mut self, slot: u32) -> Result<Value> {
        let result = self.check(slot).map(|index| {
            if self.queues[index].is_empty() {
                Value::Void
            } else {
                self.queues[index].remove(0)
            }
        });
        if matches!(result, Ok(ref value) if !value.is_void()) {
            self.changed();
        }
        self.tape.push(HostEvent::Take(slot, result.clone()));
        result
    }
    fn write_port(&mut self, slot: u32, value: Value) -> Result<()> {
        let result = self.check(slot).map(|index| {
            self.last[index] = value.clone();
        });
        if result.is_ok() {
            self.changed();
        }
        self.tape
            .push(HostEvent::Write(slot, value, result.clone()));
        result
    }
    fn pending(&mut self, slot: u32) -> Result<usize> {
        let result = self.check(slot).map(|index| self.queues[index].len());
        self.tape.push(HostEvent::Pending(slot, result.clone()));
        result
    }
    fn log(&mut self, message: &str) {
        self.tape.push(HostEvent::Log(message.to_owned()));
    }
    fn generation(&self) -> Option<u64> {
        self.generation
    }
}

/// Idle loops: guards on pending counts, last values and locals, with a
/// data path between the idle yields.
fn idle_loop_program(rng: &mut Rng, index: usize) -> Program {
    let sources = [
        // The fleet's telemetry plug-in.
        "loop:\nport_pending 0\npush_int 0\ngt\njump_if_false idle\ntake_port 0\n\
         push_int 2\nmul\nwrite_port 1\njump loop\nidle:\nyield\njump loop",
        // Two guarded inputs, forwarded by the fused take+write window.
        "loop:\nport_pending 0\npush_int 0\ngt\njump_if_true a\nport_pending 2\n\
         push_int 0\ngt\njump_if_true b\nyield\njump loop\na:\ntake_port 0\n\
         write_port 1\njump loop\nb:\ntake_port 2\nwrite_port 1\njump loop",
        // A guard on the last value of a port.
        "loop:\nread_port 0\npush_int 5\neq\njump_if_false idle\ntake_port 0\n\
         write_port 1\nidle:\nyield\njump loop",
        // A guard on a local the data path updates.
        "push_int 0\nstore 0\nloop:\nport_pending 0\npush_int 0\ngt\n\
         jump_if_false idle\ntake_port 0\npop\nload 0\npush_int 1\nadd\nstore 0\n\
         idle:\nload 0\npush_int 3\nlt\njump_if_false loop\nyield\njump loop",
        // A quiet slot that also logs: never remembered.
        "loop:\nport_pending 1\nlog\nyield\njump loop",
        // A spinner that yields only every few iterations.
        "loop:\nload 0\npush_int 1\nadd\nstore 0\nload 0\npush_int 4\nrem\npush_int 0\n\
         eq\njump_if_false loop\nport_pending 0\npop\nyield\njump loop",
    ];
    let source = sources[rng.below(sources.len() as u64) as usize];
    assemble(&format!("idle{index}"), source).expect("idle-loop sources assemble")
}

/// Applies the same random traffic to both hosts: queue a value, drop one
/// or do nothing, on one of the three ports.
fn random_traffic(rng: &mut Rng, hosts: [&mut TapeHost; 3]) {
    let slot = rng.below(3) as usize;
    match rng.below(6) {
        0 => {
            let value = if rng.below(2) == 0 {
                Value::I64(5)
            } else {
                random_value(rng)
            };
            for host in hosts {
                host.push(slot, value.clone());
            }
        }
        1 => {
            for host in hosts {
                host.drop_oldest(slot);
            }
        }
        _ => {}
    }
}

#[test]
fn replayed_idle_slots_match_the_interpreter_after_every_slot() {
    let mut rng = Rng(0xDAC2_0140_0000_0031);
    let mut replayed = 0u64;
    let mut slots = 0u64;
    for index in 0..600 {
        let (program, budget) = match index % 3 {
            0 => (random_program(&mut rng, index), random_budget(&mut rng)),
            1 => (
                tame_program(&mut rng, index),
                random_budget(&mut rng).with_max_memory_bytes(64 * 1024),
            ),
            _ => (
                idle_loop_program(&mut rng, index),
                random_budget(&mut rng)
                    .with_max_memory_bytes(64 * 1024)
                    .with_max_stack(256),
            ),
        };
        let mut reference = Vm::new(program.clone(), budget);
        let mut executing = CompiledVm::compile(program.clone(), budget).unwrap();
        let mut replaying = CompiledVm::compile(program, budget).unwrap();
        let mut reference_host = TapeHost::new(3, false);
        let mut executing_host = TapeHost::new(3, false);
        let mut replaying_host = TapeHost::new(3, true);
        for slot in 0..24 {
            if rng.below(3) == 0 {
                random_traffic(
                    &mut rng,
                    [
                        &mut reference_host,
                        &mut executing_host,
                        &mut replaying_host,
                    ],
                );
            }
            let expected = reference.run_slot(&mut reference_host);
            let executed = executing.run_slot(&mut executing_host);
            let outcome = replaying.run_slot(&mut replaying_host);
            let name = format!("program {index}, slot {slot}");
            assert_eq!(outcome, expected, "{name}: slot outcome");
            assert_eq!(executed, expected, "{name}: executed outcome");
            assert_eq!(replaying.status(), reference.status(), "{name}: status");
            assert_eq!(replaying.pc(), reference.pc(), "{name}: pc");
            assert_eq!(replaying.stack(), reference.stack(), "{name}: stack");
            assert_eq!(replaying.locals(), reference.locals(), "{name}: locals");
            assert_eq!(
                replaying.used_bytes(),
                reference.used_bytes(),
                "{name}: memory"
            );
            assert_eq!(
                replaying.total_instructions(),
                reference.total_instructions(),
                "{name}: instructions"
            );
            assert_eq!(
                replaying.slots_run(),
                reference.slots_run(),
                "{name}: slots"
            );
            assert_eq!(
                replaying.fusion_counters(),
                executing.fusion_counters(),
                "{name}: fusion counters"
            );
            assert_eq!(
                replaying_host.effects(),
                reference_host.effects(),
                "{name}: host effects"
            );
            assert_eq!(
                replaying_host.queues, reference_host.queues,
                "{name}: queues"
            );
            assert_eq!(
                replaying_host.last, reference_host.last,
                "{name}: last values"
            );
            if expected.is_err() {
                break;
            }
        }
        assert_eq!(executing.replayed_slots(), 0, "no generation, no replay");
        replayed += replaying.replayed_slots();
        slots += replaying.slots_run();
    }
    // The sweep must replay a healthy share of its slots, or it proves
    // nothing about the replay.
    assert!(
        replayed * 5 > slots,
        "only {replayed} of {slots} slots replayed"
    );
}

#[test]
fn a_quiet_fleet_replays_three_of_four_worker_slots() {
    let mut scenario = FleetScenario::build(4).unwrap();
    scenario.install_telemetry(4).unwrap();
    scenario.fleet.run(4 * SENSOR_PERIOD).unwrap();
    let counts = |scenario: &FleetScenario| -> (u64, u64) {
        let pirtes = scenario.handles().iter().flat_map(|h| &h.workers);
        pirtes.fold((0, 0), |(slots, replayed), (_, _, pirte)| {
            let pirte = pirte.lock();
            (
                slots + pirte.stats().slots_granted,
                replayed + pirte.replayed_slots(),
            )
        })
    };
    let (slots_before, replayed_before) = counts(&scenario);
    scenario.fleet.run(25 * SENSOR_PERIOD).unwrap();
    let (slots_after, replayed_after) = counts(&scenario);
    let (slots, replayed) = (slots_after - slots_before, replayed_after - replayed_before);
    assert_eq!(
        slots,
        4 * 3 * 25 * SENSOR_PERIOD,
        "one slot per worker per tick"
    );
    // One data slot per sensor period executes; the quiet slots after it
    // replay, the first one after a re-check of the pending count.
    assert_eq!(replayed * SENSOR_PERIOD, slots * (SENSOR_PERIOD - 1));
}

//! The plug-in virtual machine interpreter.

use std::fmt;

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::value::Value;

use crate::budget::Budget;
use crate::exec::{self, ArithOp, CmpOp, Flow};
use crate::isa::Instruction;
use crate::program::Program;

/// The window a plug-in has onto the rest of the system: its own ports plus a
/// diagnostic log.  The PIRTE implements this trait; tests use lightweight
/// fakes.
pub trait PortHost {
    /// Returns the latest value of port `slot` without consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for a slot the plug-in does not own.
    fn read_port(&mut self, slot: u32) -> Result<Value>;

    /// Consumes and returns the next queued value of port `slot`, or
    /// [`Value::Void`] when nothing is queued.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for a slot the plug-in does not own.
    fn take_port(&mut self, slot: u32) -> Result<Value>;

    /// Writes a value to port `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for a slot the plug-in does not own.
    fn write_port(&mut self, slot: u32, value: Value) -> Result<()>;

    /// Number of values waiting on port `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for a slot the plug-in does not own.
    fn pending(&mut self, slot: u32) -> Result<usize>;

    /// Records a diagnostic message produced by the plug-in.
    fn log(&mut self, message: &str);

    /// The generation of everything a slot can observe through this host:
    /// the ports' queues and last values.  It must change whenever any of
    /// them changes, and a machine must be run against hosts of one
    /// generation sequence.  [`crate::compiled::CompiledVm`] replays a
    /// remembered idle slot only while it holds (see the module docs of
    /// [`crate::compiled`]).
    ///
    /// The default, `None`, tracks nothing, so nothing is ever replayed:
    /// only the PIRTE's host implements it, which keeps the interpreter
    /// and the shadow plane executing every slot.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// The execution state of a plug-in virtual machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum VmStatus {
    /// Ready to execute (or resume) its program.
    #[default]
    Runnable,
    /// The program executed a `yield` and waits for its next slot.
    Yielded,
    /// The per-slot instruction budget ran out; execution resumes next slot.
    Preempted,
    /// The program executed `halt` and will not run again.
    Halted,
    /// The program faulted; it will not run again.
    Faulted,
}

impl fmt::Display for VmStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            VmStatus::Runnable => "runnable",
            VmStatus::Yielded => "yielded",
            VmStatus::Preempted => "preempted",
            VmStatus::Halted => "halted",
            VmStatus::Faulted => "faulted",
        };
        f.write_str(name)
    }
}

/// What happened during one execution slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotReport {
    /// Instructions executed in this slot.
    pub instructions: u64,
    /// The machine status at the end of the slot.
    pub status: VmStatus,
}

/// One plug-in virtual machine instance: a loaded program plus its live
/// execution state.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vm {
    program: Program,
    budget: Budget,
    pc: usize,
    stack: Vec<Value>,
    locals: Vec<Value>,
    status: VmStatus,
    total_instructions: u64,
    slots_run: u64,
    /// Running total of `payload_size` over stack and locals, maintained
    /// incrementally so the per-instruction memory check is O(1) instead of
    /// rescanning the whole machine state on every push.
    used_bytes: usize,
}

impl Vm {
    /// Loads a program into a fresh machine with the given budget.
    pub fn new(program: Program, budget: Budget) -> Self {
        Vm {
            program,
            locals: vec![Value::Void; budget.local_count()],
            budget,
            pc: 0,
            stack: Vec::new(),
            status: VmStatus::Runnable,
            total_instructions: 0,
            slots_run: 0,
            used_bytes: 0,
        }
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The budget the machine runs under.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Current machine status.
    pub fn status(&self) -> VmStatus {
        self.status
    }

    /// Total instructions executed since the program was loaded.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Number of execution slots granted so far.
    pub fn slots_run(&self) -> u64 {
        self.slots_run
    }

    /// The current program counter (next instruction to execute).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// The current operand stack, bottom first.
    pub fn stack(&self) -> &[Value] {
        &self.stack
    }

    /// The current local variable slots.
    pub fn locals(&self) -> &[Value] {
        &self.locals
    }

    /// The current incremental memory footprint in bytes.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Resets the machine to the start of its program, clearing stack and
    /// locals.  Used when a plug-in is restarted after an update.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.stack.clear();
        self.locals = vec![Value::Void; self.budget.local_count()];
        self.status = VmStatus::Runnable;
        self.used_bytes = 0;
    }

    /// Runs one best-effort execution slot against `host`.
    ///
    /// Execution ends when the program yields, halts, exhausts its per-slot
    /// instruction budget, or faults.  A halted or faulted machine returns a
    /// zero-instruction report without touching the host.
    ///
    /// # Errors
    ///
    /// Returns the fault that stopped the program (the machine transitions to
    /// [`VmStatus::Faulted`] and stays there).
    pub fn run_slot(&mut self, host: &mut dyn PortHost) -> Result<SlotReport> {
        if matches!(self.status, VmStatus::Halted | VmStatus::Faulted) {
            return Ok(SlotReport {
                instructions: 0,
                status: self.status,
            });
        }
        self.slots_run += 1;
        self.status = VmStatus::Runnable;
        let mut executed = 0u64;

        while executed < self.budget.instructions_per_slot() {
            let Some(instruction) = self.program.code().get(self.pc).cloned() else {
                // Running off the end of the program is treated as an
                // implicit halt, like returning from `main`.
                self.status = VmStatus::Halted;
                break;
            };
            executed += 1;
            self.total_instructions += 1;
            self.pc += 1;
            match self.execute(&instruction, host) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Yield) => {
                    self.status = VmStatus::Yielded;
                    break;
                }
                Ok(Flow::Halt) => {
                    self.status = VmStatus::Halted;
                    break;
                }
                Err(err) => {
                    self.status = VmStatus::Faulted;
                    return Err(err);
                }
            }
        }
        if executed == self.budget.instructions_per_slot() && self.status == VmStatus::Runnable {
            self.status = VmStatus::Preempted;
        }
        Ok(SlotReport {
            instructions: executed,
            status: self.status,
        })
    }

    fn execute(&mut self, instruction: &Instruction, host: &mut dyn PortHost) -> Result<Flow> {
        match instruction {
            Instruction::Nop => {}
            Instruction::PushConst(index) => {
                let value = self
                    .program
                    .constants()
                    .get(*index as usize)
                    .cloned()
                    .ok_or_else(|| {
                        DynarError::VmFault(format!("constant #{index} out of range"))
                    })?;
                self.push(value)?;
            }
            Instruction::PushInt(v) => self.push(Value::I64(*v))?,
            Instruction::Dup => {
                let top = self.peek()?.clone();
                self.push(top)?;
            }
            Instruction::Pop => {
                self.pop()?;
            }
            Instruction::Swap => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a)?;
                self.push(b)?;
            }
            Instruction::Load(index) => {
                let value =
                    self.locals.get(*index as usize).cloned().ok_or_else(|| {
                        DynarError::VmFault(format!("local {index} out of range"))
                    })?;
                self.push(value)?;
            }
            Instruction::Store(index) => {
                let value = self.pop()?;
                let slot = self
                    .locals
                    .get_mut(*index as usize)
                    .ok_or_else(|| DynarError::VmFault(format!("local {index} out of range")))?;
                // Replace the local's contribution to the running footprint.
                let delta_out = slot.payload_size();
                let delta_in = value.payload_size();
                *slot = value;
                self.used_bytes = self.used_bytes.saturating_sub(delta_out) + delta_in;
                self.check_memory()?;
            }
            Instruction::Add
            | Instruction::Sub
            | Instruction::Mul
            | Instruction::Div
            | Instruction::Rem => {
                let op = match instruction {
                    Instruction::Add => ArithOp::Add,
                    Instruction::Sub => ArithOp::Sub,
                    Instruction::Mul => ArithOp::Mul,
                    Instruction::Div => ArithOp::Div,
                    _ => ArithOp::Rem,
                };
                let right = self.pop()?;
                let left = self.pop()?;
                self.push(exec::arithmetic(op, &left, &right)?)?;
            }
            Instruction::Neg => {
                let value = self.pop()?;
                self.push(exec::negate(value)?)?;
            }
            Instruction::Eq | Instruction::Ne => {
                let right = self.pop()?;
                let left = self.pop()?;
                let equal = exec::values_equal(&left, &right);
                self.push(Value::Bool(if matches!(instruction, Instruction::Eq) {
                    equal
                } else {
                    !equal
                }))?;
            }
            Instruction::Lt | Instruction::Le | Instruction::Gt | Instruction::Ge => {
                let op = match instruction {
                    Instruction::Lt => CmpOp::Lt,
                    Instruction::Le => CmpOp::Le,
                    Instruction::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                let right = self.pop()?;
                let left = self.pop()?;
                self.push(exec::compare(op, &left, &right)?)?;
            }
            Instruction::And | Instruction::Or => {
                let right = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                let left = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                let result = if matches!(instruction, Instruction::And) {
                    left && right
                } else {
                    left || right
                };
                self.push(Value::Bool(result))?;
            }
            Instruction::Not => {
                let value = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                self.push(Value::Bool(!value))?;
            }
            Instruction::Jump(target) => self.jump(*target)?,
            Instruction::JumpIfFalse(target) => {
                let condition = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                if !condition {
                    self.jump(*target)?;
                }
            }
            Instruction::JumpIfTrue(target) => {
                let condition = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                if condition {
                    self.jump(*target)?;
                }
            }
            Instruction::ReadPort(slot) => {
                let value = host.read_port(*slot)?;
                self.push(value)?;
            }
            Instruction::TakePort(slot) => {
                let value = host.take_port(*slot)?;
                self.push(value)?;
            }
            Instruction::WritePort(slot) => {
                let value = self.pop()?;
                host.write_port(*slot, value)?;
            }
            Instruction::PortPending(slot) => {
                let pending = host.pending(*slot)?;
                self.push(Value::I64(pending as i64))?;
            }
            Instruction::MakeList(count) => {
                let count = *count as usize;
                if self.stack.len() < count {
                    return Err(DynarError::VmFault("stack underflow in make_list".into()));
                }
                let items = self.stack.split_off(self.stack.len() - count);
                // The items leave the stack (their bytes move into the list
                // the push below accounts for).
                let moved: usize = items.iter().map(Value::payload_size).sum();
                self.used_bytes = self.used_bytes.saturating_sub(moved);
                self.push(Value::List(items))?;
            }
            Instruction::ListGet => {
                let index = self.pop()?.expect_i64().map_err(exec::to_vm_fault)?;
                let list = self.pop()?;
                let items = list.as_list().ok_or_else(exec::type_fault("list"))?;
                let item =
                    items
                        .get(usize::try_from(index).map_err(|_| {
                            DynarError::VmFault(format!("negative list index {index}"))
                        })?)
                        .cloned()
                        .ok_or_else(|| {
                            DynarError::VmFault(format!(
                                "list index {index} out of range for {} elements",
                                items.len()
                            ))
                        })?;
                self.push(item)?;
            }
            Instruction::ListLen => {
                let list = self.pop()?;
                let items = list.as_list().ok_or_else(exec::type_fault("list"))?;
                self.push(Value::I64(items.len() as i64))?;
            }
            Instruction::Log => {
                let value = self.pop()?;
                host.log(&value.to_string());
            }
            Instruction::Yield => return Ok(Flow::Yield),
            Instruction::Halt => return Ok(Flow::Halt),
        }
        Ok(Flow::Continue)
    }

    fn jump(&mut self, target: u16) -> Result<()> {
        if target as usize > self.program.code().len() {
            return Err(DynarError::VmFault(format!(
                "jump target {target} outside program"
            )));
        }
        self.pc = target as usize;
        Ok(())
    }

    fn push(&mut self, value: Value) -> Result<()> {
        if self.stack.len() >= self.budget.max_stack() {
            return Err(DynarError::BudgetExhausted {
                plugin: self.program.name().to_owned(),
                what: "stack",
            });
        }
        self.used_bytes += value.payload_size();
        self.stack.push(value);
        self.check_memory()
    }

    fn pop(&mut self) -> Result<Value> {
        let value = self
            .stack
            .pop()
            .ok_or_else(|| DynarError::VmFault("stack underflow".into()))?;
        self.used_bytes = self.used_bytes.saturating_sub(value.payload_size());
        Ok(value)
    }

    fn peek(&self) -> Result<&Value> {
        self.stack
            .last()
            .ok_or_else(|| DynarError::VmFault("stack underflow".into()))
    }

    fn check_memory(&self) -> Result<()> {
        debug_assert_eq!(
            self.used_bytes,
            self.stack
                .iter()
                .chain(self.locals.iter())
                .map(Value::payload_size)
                .sum::<usize>(),
            "incremental memory accounting drifted"
        );
        if self.used_bytes > self.budget.max_memory_bytes() {
            return Err(DynarError::BudgetExhausted {
                plugin: self.program.name().to_owned(),
                what: "memory",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble;

    /// A host with a fixed number of slots, each holding one queued value.
    pub(crate) struct FakeHost {
        pub slots: Vec<Vec<Value>>,
        pub written: Vec<(u32, Value)>,
        pub logs: Vec<String>,
    }

    impl FakeHost {
        pub(crate) fn new(slot_count: usize) -> Self {
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

    fn run(source: &str, host: &mut FakeHost) -> (Vm, SlotReport) {
        let program = assemble("test", source).unwrap();
        let mut vm = Vm::new(program, Budget::default());
        let report = vm.run_slot(host).unwrap();
        (vm, report)
    }

    #[test]
    fn arithmetic_and_locals() {
        let mut host = FakeHost::new(1);
        let (_, report) = run(
            r#"
            push_int 7
            push_int 3
            sub
            store 0
            load 0
            push_int 10
            mul
            write_port 0
            halt
            "#,
            &mut host,
        );
        assert_eq!(report.status, VmStatus::Halted);
        assert_eq!(host.written, vec![(0, Value::I64(40))]);
    }

    #[test]
    fn float_arithmetic_promotes() {
        let mut host = FakeHost::new(1);
        run(
            r#"
            push_const 2.5
            push_int 2
            mul
            write_port 0
            halt
            "#,
            &mut host,
        );
        assert_eq!(host.written, vec![(0, Value::F64(5.0))]);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut host = FakeHost::new(1);
        let program = assemble("t", "push_int 1\npush_int 0\ndiv\nhalt").unwrap();
        let mut vm = Vm::new(program, Budget::default());
        let err = vm.run_slot(&mut host).unwrap_err();
        assert!(matches!(err, DynarError::VmFault(_)));
        assert_eq!(vm.status(), VmStatus::Faulted);
        // A faulted machine refuses to run again without a reset.
        let report = vm.run_slot(&mut host).unwrap();
        assert_eq!(report.instructions, 0);
        vm.reset();
        assert_eq!(vm.status(), VmStatus::Runnable);
    }

    #[test]
    fn loops_and_conditionals() {
        let mut host = FakeHost::new(1);
        // Sum the integers 1..=5 and write the result.
        let (_, report) = run(
            r#"
            push_int 0
            store 0          ; sum
            push_int 1
            store 1          ; i
        loop:
            load 1
            push_int 5
            gt
            jump_if_true done
            load 0
            load 1
            add
            store 0
            load 1
            push_int 1
            add
            store 1
            jump loop
        done:
            load 0
            write_port 0
            halt
            "#,
            &mut host,
        );
        assert_eq!(report.status, VmStatus::Halted);
        assert_eq!(host.written, vec![(0, Value::I64(15))]);
    }

    #[test]
    fn yield_preserves_state_across_slots() {
        let mut host = FakeHost::new(1);
        let program = assemble(
            "t",
            r#"
            push_int 0
            store 0
        loop:
            load 0
            push_int 1
            add
            store 0
            load 0
            write_port 0
            yield
            jump loop
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(program, Budget::default());
        for _ in 0..3 {
            let report = vm.run_slot(&mut host).unwrap();
            assert_eq!(report.status, VmStatus::Yielded);
        }
        let written: Vec<i64> = host
            .written
            .iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        assert_eq!(written, vec![1, 2, 3]);
        assert_eq!(vm.slots_run(), 3);
    }

    #[test]
    fn instruction_budget_preempts_runaway_plugins() {
        let mut host = FakeHost::new(1);
        let program = assemble("t", "loop:\n jump loop").unwrap();
        let mut vm = Vm::new(program, Budget::new(50));
        let report = vm.run_slot(&mut host).unwrap();
        assert_eq!(report.status, VmStatus::Preempted);
        assert_eq!(report.instructions, 50);
        // The plug-in keeps being preempted but never faults.
        let report = vm.run_slot(&mut host).unwrap();
        assert_eq!(report.status, VmStatus::Preempted);
        assert_eq!(vm.total_instructions(), 100);
    }

    #[test]
    fn stack_budget_is_enforced() {
        let mut host = FakeHost::new(1);
        let program = assemble("t", "loop:\n push_int 1\n jump loop").unwrap();
        let mut vm = Vm::new(program, Budget::new(10_000).with_max_stack(16));
        let err = vm.run_slot(&mut host).unwrap_err();
        assert!(matches!(
            err,
            DynarError::BudgetExhausted { what: "stack", .. }
        ));
    }

    #[test]
    fn memory_budget_is_enforced() {
        let mut host = FakeHost::new(1);
        host.slots[0].push(Value::Bytes(vec![0; 4096]));
        let program = assemble("t", "take_port 0\nstore 0\nhalt").unwrap();
        let mut vm = Vm::new(program, Budget::default().with_max_memory_bytes(256));
        let err = vm.run_slot(&mut host).unwrap_err();
        assert!(matches!(
            err,
            DynarError::BudgetExhausted { what: "memory", .. }
        ));
    }

    #[test]
    fn port_host_calls_flow_through() {
        let mut host = FakeHost::new(3);
        host.slots[0].push(Value::I64(5));
        host.slots[0].push(Value::I64(6));
        let (_, _) = run(
            r#"
            port_pending 0
            write_port 2
            take_port 0
            write_port 1
            take_port 0
            write_port 1
            take_port 0
            write_port 1
            halt
            "#,
            &mut host,
        );
        assert_eq!(
            host.written,
            vec![
                (2, Value::I64(2)),
                (1, Value::I64(5)),
                (1, Value::I64(6)),
                (1, Value::Void),
            ]
        );
    }

    #[test]
    fn unknown_port_slot_faults_the_plugin() {
        let mut host = FakeHost::new(1);
        let program = assemble("t", "read_port 9\nhalt").unwrap();
        let mut vm = Vm::new(program, Budget::default());
        assert!(vm.run_slot(&mut host).is_err());
        assert_eq!(vm.status(), VmStatus::Faulted);
    }

    #[test]
    fn lists_and_logging() {
        let mut host = FakeHost::new(1);
        run(
            r#"
            push_const "Wheels"
            push_int 30
            make_list 2
            dup
            list_len
            write_port 0
            dup
            push_int 0
            list_get
            log
            push_int 1
            list_get
            write_port 0
            halt
            "#,
            &mut host,
        );
        assert_eq!(host.written[0], (0, Value::I64(2)));
        assert_eq!(host.written[1], (0, Value::I64(30)));
        assert_eq!(host.logs, vec!["\"Wheels\"".to_owned()]);
    }

    #[test]
    fn comparisons_and_booleans() {
        let mut host = FakeHost::new(1);
        run(
            r#"
            push_int 3
            push_int 4
            lt
            push_int 4
            push_int 4
            ge
            and
            not
            write_port 0
            push_const true
            push_const false
            or
            write_port 0
            halt
            "#,
            &mut host,
        );
        assert_eq!(
            host.written,
            vec![(0, Value::Bool(false)), (0, Value::Bool(true))]
        );
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut host = FakeHost::new(1);
        let program = assemble("t", "push_int 1\npop").unwrap();
        let mut vm = Vm::new(program, Budget::default());
        let report = vm.run_slot(&mut host).unwrap();
        assert_eq!(report.status, VmStatus::Halted);
    }

    #[test]
    fn equality_covers_mixed_numeric_types() {
        let mut host = FakeHost::new(1);
        run(
            r#"
            push_int 2
            push_const 2.0
            eq
            write_port 0
            push_const "a"
            push_const "b"
            ne
            write_port 0
            halt
            "#,
            &mut host,
        );
        assert_eq!(
            host.written,
            vec![(0, Value::Bool(true)), (0, Value::Bool(true))]
        );
    }
}

//! The compiled fast execution plane.
//!
//! The portable slow plane — [`crate::isa::Instruction`], the assembler and
//! the reference interpreter — stays the system of record.  At install time
//! the PIRTE pre-decodes a validated [`Program`] into a [`CompiledProgram`]:
//! a dense, flat op array with pre-checked jump targets, pre-validated
//! constant-pool references and inlined operand immediates, plus a
//! superinstruction overlay planted by a static peephole pass over the
//! dominant scenario sequences (`load+push_int+<arith>+store`,
//! `take_port+store`, `load+write_port`, `take_port+write_port`, and
//! compare+branch fusion).  [`CompiledVm`] executes that form with a tight
//! indexed-dispatch loop.
//!
//! # Equivalence guarantee
//!
//! The fast plane is **observably byte-identical** to the interpreter: same
//! instruction counts, same statuses, same port effects and logs, same fault
//! messages at the same program counters, same incremental memory
//! accounting.  Fused ops preserve this by construction: a superinstruction
//! only executes when its weight fits in the remaining slot budget and its
//! pure preconditions guarantee the whole window succeeds (or it replicates
//! the interpreter's exact partial effects for host-error and memory-fault
//! paths); otherwise it *bails* and the window executes one op at a time
//! through the same shared semantics in `crate::exec`.  The
//! [`crate::shadow`] engine runs both planes in lock-step and asserts the
//! equivalence on live traffic.

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::value::Value;

use crate::budget::Budget;
use crate::exec::{self, ArithOp, CmpOp, Flow};
use crate::interpreter::{PortHost, SlotReport, VmStatus};
use crate::isa::Instruction;
use crate::program::Program;

/// A pre-decoded instruction: operands inlined, jump targets widened and
/// pre-checked, ready for indexed dispatch.  One `Op` per source
/// [`Instruction`], so program counters are directly comparable across
/// planes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    Nop,
    PushConst(u16),
    PushInt(i64),
    Dup,
    Pop,
    Swap,
    Load(u8),
    Store(u8),
    Arith(ArithOp),
    Neg,
    Eq,
    Ne,
    Cmp(CmpOp),
    And,
    Or,
    Not,
    Jump(u32),
    JumpIfFalse(u32),
    JumpIfTrue(u32),
    ReadPort(u32),
    TakePort(u32),
    WritePort(u32),
    PortPending(u32),
    MakeList(u8),
    ListGet,
    ListLen,
    Log,
    Yield,
    Halt,
}

fn decode(instruction: &Instruction) -> Op {
    match instruction {
        Instruction::Nop => Op::Nop,
        Instruction::PushConst(i) => Op::PushConst(*i),
        Instruction::PushInt(v) => Op::PushInt(*v),
        Instruction::Dup => Op::Dup,
        Instruction::Pop => Op::Pop,
        Instruction::Swap => Op::Swap,
        Instruction::Load(i) => Op::Load(*i),
        Instruction::Store(i) => Op::Store(*i),
        Instruction::Add => Op::Arith(ArithOp::Add),
        Instruction::Sub => Op::Arith(ArithOp::Sub),
        Instruction::Mul => Op::Arith(ArithOp::Mul),
        Instruction::Div => Op::Arith(ArithOp::Div),
        Instruction::Rem => Op::Arith(ArithOp::Rem),
        Instruction::Neg => Op::Neg,
        Instruction::Eq => Op::Eq,
        Instruction::Ne => Op::Ne,
        Instruction::Lt => Op::Cmp(CmpOp::Lt),
        Instruction::Le => Op::Cmp(CmpOp::Le),
        Instruction::Gt => Op::Cmp(CmpOp::Gt),
        Instruction::Ge => Op::Cmp(CmpOp::Ge),
        Instruction::And => Op::And,
        Instruction::Or => Op::Or,
        Instruction::Not => Op::Not,
        Instruction::Jump(t) => Op::Jump(u32::from(*t)),
        Instruction::JumpIfFalse(t) => Op::JumpIfFalse(u32::from(*t)),
        Instruction::JumpIfTrue(t) => Op::JumpIfTrue(u32::from(*t)),
        Instruction::ReadPort(s) => Op::ReadPort(*s),
        Instruction::TakePort(s) => Op::TakePort(*s),
        Instruction::WritePort(s) => Op::WritePort(*s),
        Instruction::PortPending(s) => Op::PortPending(*s),
        Instruction::MakeList(n) => Op::MakeList(*n),
        Instruction::ListGet => Op::ListGet,
        Instruction::ListLen => Op::ListLen,
        Instruction::Log => Op::Log,
        Instruction::Yield => Op::Yield,
        Instruction::Halt => Op::Halt,
    }
}

/// The comparison carried by a fused compare+branch window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FuseCmp {
    Eq,
    Ne,
    Ord(CmpOp),
}

/// Evaluates a fused comparison, or `None` when the operands cannot be
/// compared on the fast path (the window then bails to single-step, which
/// raises the interpreter's exact type fault).
fn fuse_cmp_eval(cmp: FuseCmp, left: &Value, right: &Value) -> Option<bool> {
    match cmp {
        FuseCmp::Eq => Some(exec::values_equal(left, right)),
        FuseCmp::Ne => Some(!exec::values_equal(left, right)),
        FuseCmp::Ord(op) => exec::compare_bool(op, left, right).ok(),
    }
}

/// A superinstruction: a fused multi-op window starting at a fixed pc.
///
/// Each variant records everything needed to execute the whole window
/// without re-dispatching, plus enough to fall back per-op when a
/// precondition is not met.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fused {
    /// `load src; push_int imm; <arith>; store dst` — the scenario
    /// accumulate idiom (4 ops).
    LoadIntArithStore {
        src: u8,
        imm: i64,
        op: ArithOp,
        dst: u8,
    },
    /// `push_int imm; <cmp>; jump_if_* target` — the scenario loop-guard
    /// idiom (3 ops).
    PushIntCmpBranch {
        imm: i64,
        cmp: FuseCmp,
        on_true: bool,
        target: u32,
    },
    /// `take_port port; store dst` — input latch idiom (2 ops).
    TakePortStore { port: u32, dst: u8 },
    /// `load src; write_port port` — output publish idiom (2 ops).
    LoadWritePort { src: u8, port: u32 },
    /// `take_port from; write_port to` — forwarder idiom (2 ops).
    TakePortWritePort { from: u32, to: u32 },
    /// `<cmp>; jump_if_* target` — general compare+branch fusion (2 ops).
    CmpBranch {
        cmp: FuseCmp,
        on_true: bool,
        target: u32,
    },
}

impl Fused {
    /// Number of source instructions the window covers — also the number of
    /// budget units it consumes, so preemption boundaries stay identical to
    /// the interpreter.
    fn weight(self) -> u64 {
        match self {
            Fused::LoadIntArithStore { .. } => 4,
            Fused::PushIntCmpBranch { .. } => 3,
            Fused::TakePortStore { .. }
            | Fused::LoadWritePort { .. }
            | Fused::TakePortWritePort { .. }
            | Fused::CmpBranch { .. } => 2,
        }
    }
}

/// Per-kind execution counters for the superinstructions, proving the
/// peephole pass actually fires on real workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionCounters {
    /// `load+push_int+<arith>+store` windows executed (or planted).
    pub load_arith_store: u64,
    /// `push_int+<cmp>+branch` windows executed (or planted).
    pub push_int_cmp_branch: u64,
    /// `take_port+store` windows executed (or planted).
    pub take_port_store: u64,
    /// `load+write_port` windows executed (or planted).
    pub load_write_port: u64,
    /// `take_port+write_port` windows executed (or planted).
    pub take_port_write_port: u64,
    /// `<cmp>+branch` windows executed (or planted).
    pub cmp_branch: u64,
}

impl FusionCounters {
    /// Sum over all superinstruction kinds.
    pub fn total(&self) -> u64 {
        self.load_arith_store
            + self.push_int_cmp_branch
            + self.take_port_store
            + self.load_write_port
            + self.take_port_write_port
            + self.cmp_branch
    }

    /// Adds `other` into `self` (used to aggregate across plug-ins).
    pub fn merge(&mut self, other: &FusionCounters) {
        self.load_arith_store += other.load_arith_store;
        self.push_int_cmp_branch += other.push_int_cmp_branch;
        self.take_port_store += other.take_port_store;
        self.load_write_port += other.load_write_port;
        self.take_port_write_port += other.take_port_write_port;
        self.cmp_branch += other.cmp_branch;
    }
}

fn cmp_of(op: &Op) -> Option<FuseCmp> {
    match op {
        Op::Eq => Some(FuseCmp::Eq),
        Op::Ne => Some(FuseCmp::Ne),
        Op::Cmp(c) => Some(FuseCmp::Ord(*c)),
        _ => None,
    }
}

fn branch_of(op: &Op) -> Option<(bool, u32)> {
    match op {
        Op::JumpIfFalse(t) => Some((false, *t)),
        Op::JumpIfTrue(t) => Some((true, *t)),
        _ => None,
    }
}

/// Matches the longest superinstruction starting at `pc`, if any.
fn match_fused(ops: &[Op], pc: usize) -> Option<Fused> {
    let window = &ops[pc..];
    if let [Op::Load(src), Op::PushInt(imm), Op::Arith(op), Op::Store(dst), ..] = window {
        return Some(Fused::LoadIntArithStore {
            src: *src,
            imm: *imm,
            op: *op,
            dst: *dst,
        });
    }
    if let [Op::PushInt(imm), cmp, branch, ..] = window {
        if let (Some(cmp), Some((on_true, target))) = (cmp_of(cmp), branch_of(branch)) {
            return Some(Fused::PushIntCmpBranch {
                imm: *imm,
                cmp,
                on_true,
                target,
            });
        }
    }
    if let [Op::TakePort(port), Op::Store(dst), ..] = window {
        return Some(Fused::TakePortStore {
            port: *port,
            dst: *dst,
        });
    }
    if let [Op::Load(src), Op::WritePort(port), ..] = window {
        return Some(Fused::LoadWritePort {
            src: *src,
            port: *port,
        });
    }
    if let [Op::TakePort(from), Op::WritePort(to), ..] = window {
        return Some(Fused::TakePortWritePort {
            from: *from,
            to: *to,
        });
    }
    if let [cmp, branch, ..] = window {
        if let (Some(cmp), Some((on_true, target))) = (cmp_of(cmp), branch_of(branch)) {
            return Some(Fused::CmpBranch {
                cmp,
                on_true,
                target,
            });
        }
    }
    None
}

/// Greedy, longest-first, non-overlapping peephole plant.  The overlay is
/// keyed by the window's *start* pc; ops inside a window stay in `ops`
/// unchanged, so a jump landing mid-window simply executes single-step —
/// no jump remapping, no behavioural cliff.
fn plan_superinstructions(ops: &[Op]) -> (Vec<Option<Fused>>, FusionCounters) {
    let mut fused = vec![None; ops.len()];
    let mut sites = FusionCounters::default();
    let mut pc = 0;
    while pc < ops.len() {
        if let Some(f) = match_fused(ops, pc) {
            match f {
                Fused::LoadIntArithStore { .. } => sites.load_arith_store += 1,
                Fused::PushIntCmpBranch { .. } => sites.push_int_cmp_branch += 1,
                Fused::TakePortStore { .. } => sites.take_port_store += 1,
                Fused::LoadWritePort { .. } => sites.load_write_port += 1,
                Fused::TakePortWritePort { .. } => sites.take_port_write_port += 1,
                Fused::CmpBranch { .. } => sites.cmp_branch += 1,
            }
            let weight = f.weight() as usize;
            fused[pc] = Some(f);
            pc += weight;
        } else {
            pc += 1;
        }
    }
    (fused, sites)
}

/// A program pre-decoded for the fast plane: flat ops, a flat constant
/// pool, and the superinstruction overlay.  Produced once at install time
/// by [`CompiledProgram::compile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledProgram {
    source: Program,
    constants: Vec<Value>,
    ops: Vec<Op>,
    fused: Vec<Option<Fused>>,
    sites: FusionCounters,
}

impl CompiledProgram {
    /// Pre-decodes `program` into the dense fast-plane form.
    ///
    /// # Errors
    ///
    /// Returns the typed validation error for a malformed program (jump
    /// target or constant reference out of range) — compilation never
    /// panics, whatever the input.
    pub fn compile(program: Program) -> Result<Self> {
        program.validate()?;
        let constants = program.constants().to_vec();
        let ops: Vec<Op> = program.code().iter().map(decode).collect();
        let (fused, sites) = plan_superinstructions(&ops);
        Ok(CompiledProgram {
            source: program,
            constants,
            ops,
            fused,
            sites,
        })
    }

    /// The portable source program this was compiled from.
    pub fn source(&self) -> &Program {
        &self.source
    }

    /// The program name.
    pub fn name(&self) -> &str {
        self.source.name()
    }

    /// Number of decoded ops (equals the source instruction count).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Static counters: how many superinstruction windows the peephole pass
    /// planted, per kind.
    pub fn fusion_sites(&self) -> FusionCounters {
        self.sites
    }
}

/// A plug-in virtual machine executing the compiled fast plane.
///
/// Mirrors [`crate::interpreter::Vm`] observable-for-observable; see the
/// module docs for the equivalence guarantee.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledVm {
    program: CompiledProgram,
    budget: Budget,
    pc: usize,
    stack: Vec<Value>,
    locals: Vec<Value>,
    status: VmStatus,
    total_instructions: u64,
    slots_run: u64,
    used_bytes: usize,
    counters: FusionCounters,
}

impl CompiledVm {
    /// Loads an already-compiled program into a fresh machine.
    pub fn new(program: CompiledProgram, budget: Budget) -> Self {
        CompiledVm {
            program,
            locals: vec![Value::Void; budget.local_count()],
            budget,
            pc: 0,
            stack: Vec::new(),
            status: VmStatus::Runnable,
            total_instructions: 0,
            slots_run: 0,
            used_bytes: 0,
            counters: FusionCounters::default(),
        }
    }

    /// Compiles `program` and loads it — convenience for tests and benches.
    ///
    /// # Errors
    ///
    /// Returns the typed validation error for a malformed program.
    pub fn compile(program: Program, budget: Budget) -> Result<Self> {
        Ok(CompiledVm::new(CompiledProgram::compile(program)?, budget))
    }

    /// The portable source program.
    pub fn program(&self) -> &Program {
        self.program.source()
    }

    /// The compiled form being executed.
    pub fn compiled(&self) -> &CompiledProgram {
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

    /// Total instructions executed since the program was loaded (fused
    /// windows count one per covered source instruction).
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

    /// Dynamic counters: how many superinstruction windows actually
    /// executed fused, per kind.
    pub fn fusion_counters(&self) -> FusionCounters {
        self.counters
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
    /// Semantics are identical to [`crate::interpreter::Vm::run_slot`],
    /// including preemption boundaries and fault accounting.
    ///
    /// # Errors
    ///
    /// Returns the fault that stopped the program (the machine transitions
    /// to [`VmStatus::Faulted`] and stays there).
    pub fn run_slot(&mut self, host: &mut dyn PortHost) -> Result<SlotReport> {
        if matches!(self.status, VmStatus::Halted | VmStatus::Faulted) {
            return Ok(SlotReport {
                instructions: 0,
                status: self.status,
            });
        }
        self.slots_run += 1;
        self.status = VmStatus::Runnable;
        let limit = self.budget.instructions_per_slot();
        let mut executed = 0u64;

        while executed < limit {
            let pc = self.pc;
            if pc >= self.program.ops.len() {
                // Implicit halt off the end, exactly like the interpreter.
                self.status = VmStatus::Halted;
                break;
            }
            // Fast path: a fused window fires only when its whole weight
            // fits in the remaining budget, so preemption can never land
            // mid-window.
            if let Some(f) = self.program.fused[pc] {
                if limit - executed >= f.weight() {
                    match self.run_fused(f, &mut executed, host) {
                        Ok(true) => continue,
                        Ok(false) => {} // bail: fall through to single-step
                        Err(err) => {
                            self.status = VmStatus::Faulted;
                            return Err(err);
                        }
                    }
                }
            }
            let op = self.program.ops[pc];
            executed += 1;
            self.total_instructions += 1;
            self.pc = pc + 1;
            match self.step(op, host) {
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
        if executed == limit && self.status == VmStatus::Runnable {
            self.status = VmStatus::Preempted;
        }
        Ok(SlotReport {
            instructions: executed,
            status: self.status,
        })
    }

    /// Executes a fused window.  Returns `Ok(true)` when the window
    /// committed, `Ok(false)` to bail to single-step (no state touched,
    /// nothing counted), and `Err` for a fault — with `executed`,
    /// `total_instructions` and `pc` already advanced to exactly where the
    /// interpreter would have faulted inside the window.
    fn run_fused(&mut self, f: Fused, executed: &mut u64, host: &mut dyn PortHost) -> Result<bool> {
        let start = self.pc;
        match f {
            Fused::LoadIntArithStore { src, imm, op, dst } => {
                let (src, dst) = (src as usize, dst as usize);
                let Some(Value::I64(a)) = self.locals.get(src) else {
                    return Ok(false);
                };
                let a = *a;
                if dst >= self.locals.len()
                    || self.stack.len() + 2 > self.budget.max_stack()
                    || self.used_bytes + 16 > self.budget.max_memory_bytes()
                {
                    return Ok(false);
                }
                let Ok(result) = exec::int_arithmetic(op, a, imm) else {
                    // Arithmetic fault: single-step raises it with the
                    // interpreter's exact message and accounting.
                    return Ok(false);
                };
                let old = self.locals[dst].payload_size();
                self.locals[dst] = Value::I64(result);
                self.used_bytes = self.used_bytes.saturating_sub(old) + 8;
                self.counters.load_arith_store += 1;
                *executed += 4;
                self.total_instructions += 4;
                self.pc = start + 4;
            }
            Fused::PushIntCmpBranch {
                imm,
                cmp,
                on_true,
                target,
            } => {
                let depth = self.stack.len();
                if depth < 1
                    || depth >= self.budget.max_stack()
                    || self.used_bytes + 8 > self.budget.max_memory_bytes()
                {
                    return Ok(false);
                }
                let right = Value::I64(imm);
                let Some(taken) = fuse_cmp_eval(cmp, &self.stack[depth - 1], &right) else {
                    return Ok(false);
                };
                let left = self.stack.pop().expect("depth checked above");
                self.used_bytes = self.used_bytes.saturating_sub(left.payload_size());
                self.counters.push_int_cmp_branch += 1;
                *executed += 3;
                self.total_instructions += 3;
                self.pc = if taken == on_true {
                    target as usize
                } else {
                    start + 3
                };
            }
            Fused::TakePortStore { port, dst } => {
                let dst = dst as usize;
                if dst >= self.locals.len() || self.stack.len() >= self.budget.max_stack() {
                    return Ok(false);
                }
                self.counters.take_port_store += 1;
                // Sub-step 0: take_port (host fault surfaces here).
                *executed += 1;
                self.total_instructions += 1;
                self.pc = start + 1;
                let value = host.take_port(port)?;
                let size = value.payload_size();
                if self.used_bytes + size > self.budget.max_memory_bytes() {
                    // The interpreter pushes first and faults in the memory
                    // check: replicate the partial effect exactly.
                    self.used_bytes += size;
                    self.stack.push(value);
                    return Err(self.memory_fault());
                }
                // Sub-step 1: store.
                *executed += 1;
                self.total_instructions += 1;
                self.pc = start + 2;
                let old = self.locals[dst].payload_size();
                self.locals[dst] = value;
                self.used_bytes = self.used_bytes.saturating_sub(old) + size;
            }
            Fused::LoadWritePort { src, port } => {
                let Some(value) = self.locals.get(src as usize) else {
                    return Ok(false);
                };
                let size = value.payload_size();
                if self.stack.len() >= self.budget.max_stack()
                    || self.used_bytes + size > self.budget.max_memory_bytes()
                {
                    return Ok(false);
                }
                let value = value.clone();
                self.counters.load_write_port += 1;
                // Both sub-steps count before the host call: a write fault
                // surfaces after load+write_port executed, with the machine
                // state net-unchanged — exactly the interpreter's
                // push-then-pop-then-fault.
                *executed += 2;
                self.total_instructions += 2;
                self.pc = start + 2;
                host.write_port(port, value)?;
            }
            Fused::TakePortWritePort { from, to } => {
                if self.stack.len() >= self.budget.max_stack() {
                    return Ok(false);
                }
                self.counters.take_port_write_port += 1;
                *executed += 1;
                self.total_instructions += 1;
                self.pc = start + 1;
                let value = host.take_port(from)?;
                let size = value.payload_size();
                if self.used_bytes + size > self.budget.max_memory_bytes() {
                    self.used_bytes += size;
                    self.stack.push(value);
                    return Err(self.memory_fault());
                }
                *executed += 1;
                self.total_instructions += 1;
                self.pc = start + 2;
                host.write_port(to, value)?;
            }
            Fused::CmpBranch {
                cmp,
                on_true,
                target,
            } => {
                let depth = self.stack.len();
                if depth < 2 {
                    return Ok(false);
                }
                let (left, right) = (&self.stack[depth - 2], &self.stack[depth - 1]);
                let (left_size, right_size) = (left.payload_size(), right.payload_size());
                // The interpreter's intermediate Bool push peaks at
                // used - left - right + 1; bail (to the exact single-step
                // fault) when that would exceed the budget.
                if self.used_bytes + 1 > self.budget.max_memory_bytes() + left_size + right_size {
                    return Ok(false);
                }
                let Some(taken) = fuse_cmp_eval(cmp, left, right) else {
                    return Ok(false);
                };
                self.stack.truncate(depth - 2);
                self.used_bytes = self.used_bytes.saturating_sub(left_size + right_size);
                self.counters.cmp_branch += 1;
                *executed += 2;
                self.total_instructions += 2;
                self.pc = if taken == on_true {
                    target as usize
                } else {
                    start + 2
                };
            }
        }
        self.debug_assert_accounting();
        Ok(true)
    }

    /// Debug-build invariant: a committed fused window left the incremental
    /// memory accounting exact and inside the budget (its preconditions
    /// guarantee this; release builds skip the rescan).
    fn debug_assert_accounting(&self) {
        debug_assert_eq!(
            self.used_bytes,
            self.stack
                .iter()
                .chain(self.locals.iter())
                .map(Value::payload_size)
                .sum::<usize>(),
            "incremental memory accounting drifted in a fused window"
        );
        debug_assert!(
            self.used_bytes <= self.budget.max_memory_bytes(),
            "fused window committed past the memory budget"
        );
    }

    /// Executes one decoded op — a direct port of the interpreter's
    /// `execute`, dispatching on the dense form and sharing every semantic
    /// helper through [`crate::exec`].
    fn step(&mut self, op: Op, host: &mut dyn PortHost) -> Result<Flow> {
        match op {
            Op::Nop => {}
            Op::PushConst(index) => {
                let value = self
                    .program
                    .constants
                    .get(index as usize)
                    .cloned()
                    .ok_or_else(|| {
                        DynarError::VmFault(format!("constant #{index} out of range"))
                    })?;
                self.push(value)?;
            }
            Op::PushInt(v) => self.push(Value::I64(v))?,
            Op::Dup => {
                let top = self.peek()?.clone();
                self.push(top)?;
            }
            Op::Pop => {
                self.pop()?;
            }
            Op::Swap => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a)?;
                self.push(b)?;
            }
            Op::Load(index) => {
                let value =
                    self.locals.get(index as usize).cloned().ok_or_else(|| {
                        DynarError::VmFault(format!("local {index} out of range"))
                    })?;
                self.push(value)?;
            }
            Op::Store(index) => {
                let value = self.pop()?;
                let slot = self
                    .locals
                    .get_mut(index as usize)
                    .ok_or_else(|| DynarError::VmFault(format!("local {index} out of range")))?;
                let delta_out = slot.payload_size();
                let delta_in = value.payload_size();
                *slot = value;
                self.used_bytes = self.used_bytes.saturating_sub(delta_out) + delta_in;
                self.check_memory()?;
            }
            Op::Arith(op) => {
                let right = self.pop()?;
                let left = self.pop()?;
                self.push(exec::arithmetic(op, &left, &right)?)?;
            }
            Op::Neg => {
                let value = self.pop()?;
                self.push(exec::negate(value)?)?;
            }
            Op::Eq | Op::Ne => {
                let right = self.pop()?;
                let left = self.pop()?;
                let equal = exec::values_equal(&left, &right);
                self.push(Value::Bool(if matches!(op, Op::Eq) {
                    equal
                } else {
                    !equal
                }))?;
            }
            Op::Cmp(cmp) => {
                let right = self.pop()?;
                let left = self.pop()?;
                self.push(exec::compare(cmp, &left, &right)?)?;
            }
            Op::And | Op::Or => {
                let right = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                let left = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                let result = if matches!(op, Op::And) {
                    left && right
                } else {
                    left || right
                };
                self.push(Value::Bool(result))?;
            }
            Op::Not => {
                let value = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                self.push(Value::Bool(!value))?;
            }
            // Jump targets were pre-checked by `Program::validate` at
            // compile time, so no range check is needed here.
            Op::Jump(target) => self.pc = target as usize,
            Op::JumpIfFalse(target) => {
                let condition = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                if !condition {
                    self.pc = target as usize;
                }
            }
            Op::JumpIfTrue(target) => {
                let condition = self.pop()?.as_bool().ok_or_else(exec::type_fault("bool"))?;
                if condition {
                    self.pc = target as usize;
                }
            }
            Op::ReadPort(slot) => {
                let value = host.read_port(slot)?;
                self.push(value)?;
            }
            Op::TakePort(slot) => {
                let value = host.take_port(slot)?;
                self.push(value)?;
            }
            Op::WritePort(slot) => {
                let value = self.pop()?;
                host.write_port(slot, value)?;
            }
            Op::PortPending(slot) => {
                let pending = host.pending(slot)?;
                self.push(Value::I64(pending as i64))?;
            }
            Op::MakeList(count) => {
                let count = count as usize;
                if self.stack.len() < count {
                    return Err(DynarError::VmFault("stack underflow in make_list".into()));
                }
                let items = self.stack.split_off(self.stack.len() - count);
                let moved: usize = items.iter().map(Value::payload_size).sum();
                self.used_bytes = self.used_bytes.saturating_sub(moved);
                self.push(Value::List(items))?;
            }
            Op::ListGet => {
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
            Op::ListLen => {
                let list = self.pop()?;
                let items = list.as_list().ok_or_else(exec::type_fault("list"))?;
                self.push(Value::I64(items.len() as i64))?;
            }
            Op::Log => {
                let value = self.pop()?;
                host.log(&value.to_string());
            }
            Op::Yield => return Ok(Flow::Yield),
            Op::Halt => return Ok(Flow::Halt),
        }
        Ok(Flow::Continue)
    }

    fn memory_fault(&self) -> DynarError {
        DynarError::BudgetExhausted {
            plugin: self.program.name().to_owned(),
            what: "memory",
        }
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
    use crate::shadow::ShadowVm;
    use crate::Vm;

    /// A host with a fixed number of slots, each holding queued values.
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

    /// Runs `source` to completion (or fault) on both engines with
    /// identical budgets and host traffic, asserting byte-identical
    /// observables, and returns the shared per-slot outcomes.
    fn run_both(
        source: &str,
        budget: Budget,
        seed_traffic: &[Value],
        slots: usize,
    ) -> (Vec<Result<SlotReport>>, FakeHost) {
        let program = assemble("parity", source).unwrap();
        let mut interp = Vm::new(program.clone(), budget);
        let mut fast = CompiledVm::compile(program, budget).unwrap();
        let mut interp_host = FakeHost::new(3);
        let mut fast_host = FakeHost::new(3);
        interp_host.slots[0] = seed_traffic.to_vec();
        fast_host.slots[0] = seed_traffic.to_vec();
        let mut outcomes = Vec::new();
        for _ in 0..slots {
            let a = interp.run_slot(&mut interp_host);
            let b = fast.run_slot(&mut fast_host);
            assert_eq!(a, b, "slot outcomes diverged");
            outcomes.push(b);
        }
        assert_eq!(interp.status(), fast.status());
        assert_eq!(interp.pc(), fast.pc());
        assert_eq!(interp.stack(), fast.stack());
        assert_eq!(interp.locals(), fast.locals());
        assert_eq!(interp.used_bytes(), fast.used_bytes());
        assert_eq!(interp.total_instructions(), fast.total_instructions());
        assert_eq!(interp_host.written, fast_host.written);
        assert_eq!(interp_host.logs, fast_host.logs);
        (outcomes, fast_host)
    }

    fn fault_message(source: &str) -> String {
        let (outcomes, _) = run_both(source, Budget::default(), &[], 1);
        match &outcomes[0] {
            Err(DynarError::VmFault(message)) => message.clone(),
            other => panic!("expected a VmFault on both engines, got {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_faults_identically() {
        assert_eq!(
            fault_message("push_int 1\npush_int 0\ndiv\nhalt"),
            "division by zero"
        );
        assert_eq!(
            fault_message("push_int 1\npush_int 0\nrem\nhalt"),
            "division by zero"
        );
        assert_eq!(
            fault_message("push_const 1.0\npush_const 0.0\ndiv\nhalt"),
            "division by zero"
        );
    }

    #[test]
    fn integer_overflow_faults_identically() {
        let max = i64::MAX;
        let min = i64::MIN;
        assert_eq!(
            fault_message(&format!("push_int {max}\npush_int 1\nadd\nhalt")),
            "integer overflow in add"
        );
        assert_eq!(
            fault_message(&format!("push_int {min}\npush_int 1\nsub\nhalt")),
            "integer overflow in sub"
        );
        assert_eq!(
            fault_message(&format!("push_int {max}\npush_int 2\nmul\nhalt")),
            "integer overflow in mul"
        );
        assert_eq!(
            fault_message(&format!("push_int {min}\npush_int -1\ndiv\nhalt")),
            "integer overflow in div"
        );
        assert_eq!(
            fault_message(&format!("push_int {min}\npush_int -1\nrem\nhalt")),
            "integer overflow in rem"
        );
        assert_eq!(
            fault_message(&format!("push_int {min}\nneg\nhalt")),
            "integer overflow in neg"
        );
    }

    #[test]
    fn type_mismatch_faults_identically() {
        assert_eq!(
            fault_message("push_const \"a\"\npush_int 1\nadd\nhalt"),
            "expected a number value on the stack"
        );
        assert_eq!(
            fault_message("push_const \"a\"\npush_int 1\nlt\nhalt"),
            "expected a number value on the stack"
        );
        assert_eq!(
            fault_message("push_int 1\nnot\nhalt"),
            "expected a bool value on the stack"
        );
        assert_eq!(
            fault_message("push_const \"a\"\nneg\nhalt"),
            "cannot negate a text value"
        );
    }

    #[test]
    fn peephole_plants_all_superinstruction_kinds() {
        let program = assemble(
            "plant",
            r#"
            load 0
            push_int 1
            add
            store 0          ; load+push_int+arith+store
            take_port 0
            store 1          ; take_port+store
            load 1
            write_port 1     ; load+write_port
            take_port 0
            write_port 1     ; take_port+write_port
            load 0
            push_int 10
            lt
            jump_if_true skip ; push_int+cmp+branch
        skip:
            load 0
            load 1
            eq
            jump_if_false skip ; cmp+branch
            halt
            "#,
        )
        .unwrap();
        let compiled = CompiledProgram::compile(program).unwrap();
        let sites = compiled.fusion_sites();
        assert_eq!(sites.load_arith_store, 1);
        assert_eq!(sites.take_port_store, 1);
        assert_eq!(sites.load_write_port, 1);
        assert_eq!(sites.take_port_write_port, 1);
        assert_eq!(sites.push_int_cmp_branch, 1);
        assert_eq!(sites.cmp_branch, 1);
        assert_eq!(sites.total(), 6);
    }

    #[test]
    fn fused_windows_fire_and_stay_equivalent() {
        // The scenario accumulate loop: every iteration is one fused
        // LoadIntArithStore window plus a jump.
        let source = r#"
            push_int 0
            store 0
        loop:
            load 0
            push_int 1
            add
            store 0
            jump loop
        "#;
        let (outcomes, _) = run_both(source, Budget::new(1002), &[], 3);
        for outcome in &outcomes {
            assert_eq!(outcome.as_ref().unwrap().status, VmStatus::Preempted);
        }
        let program = assemble("fire", source).unwrap();
        let mut vm = CompiledVm::compile(program, Budget::new(1002)).unwrap();
        let mut host = FakeHost::new(1);
        vm.run_slot(&mut host).unwrap();
        // 2 prologue ops + 200 iterations of (fused window + jump).
        assert_eq!(vm.fusion_counters().load_arith_store, 200);
        assert_eq!(vm.locals()[0], Value::I64(200));
    }

    #[test]
    fn fused_window_respects_preemption_boundary() {
        // Budget of 7 per slot over a 5-op loop (4 fused + jump): most
        // slots run out of budget with a partial window left, so the fast
        // plane must fall back to single-step and preempt mid-window
        // exactly like the interpreter.
        let source = r#"
            push_int 0
            store 0
        loop:
            load 0
            push_int 1
            add
            store 0
            jump loop
        "#;
        let (outcomes, _) = run_both(source, Budget::new(7), &[], 5);
        for outcome in outcomes {
            let report = outcome.unwrap();
            assert_eq!(report.status, VmStatus::Preempted);
            assert_eq!(report.instructions, 7);
        }
    }

    #[test]
    fn fused_take_port_store_handles_memory_fault_identically() {
        let budget = Budget::default().with_max_memory_bytes(256);
        let program = assemble("mem", "take_port 0\nstore 0\nhalt").unwrap();
        let mut interp = Vm::new(program.clone(), budget);
        let mut fast = CompiledVm::compile(program, budget).unwrap();
        let payload = Value::Bytes(vec![0; 4096]);
        let mut interp_host = FakeHost::new(1);
        let mut fast_host = FakeHost::new(1);
        interp_host.slots[0].push(payload.clone());
        fast_host.slots[0].push(payload);
        let a = interp.run_slot(&mut interp_host);
        let b = fast.run_slot(&mut fast_host);
        assert_eq!(a, b);
        assert!(matches!(
            b,
            Err(DynarError::BudgetExhausted { what: "memory", .. })
        ));
        assert_eq!(interp.pc(), fast.pc());
        assert_eq!(interp.stack(), fast.stack());
        assert_eq!(interp.used_bytes(), fast.used_bytes());
        assert_eq!(interp.total_instructions(), fast.total_instructions());
    }

    #[test]
    fn fused_host_fault_counts_like_the_interpreter() {
        // Port 9 does not exist: the fused take_port+write_port window
        // must surface the host fault at the take_port sub-step.
        let (outcomes, _) = run_both("take_port 2\nwrite_port 9\nhalt", Budget::default(), &[], 1);
        assert!(outcomes[0].is_err());
    }

    #[test]
    fn fused_cmp_branch_bails_on_type_mismatch() {
        // `lt` on a text operand faults with the single-step message even
        // though the window is planted as a fused compare+branch.
        let (outcomes, _) = run_both(
            "push_const \"a\"\npush_int 1\nlt\njump_if_true done\ndone:\nhalt",
            Budget::default(),
            &[],
            1,
        );
        match &outcomes[0] {
            Err(DynarError::VmFault(message)) => {
                assert_eq!(message, "expected a number value on the stack");
            }
            other => panic!("expected a type fault, got {other:?}"),
        }
    }

    #[test]
    fn compilation_rejects_invalid_programs_with_typed_errors() {
        let program = Program::new("bad").with_code(vec![Instruction::Jump(99)]);
        assert!(CompiledProgram::compile(program).is_err());
        let program = Program::new("bad2").with_code(vec![Instruction::PushConst(7)]);
        assert!(CompiledProgram::compile(program).is_err());
    }

    #[test]
    fn shadow_mode_smoke_on_scenario_doubler() {
        let program = assemble(
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
        )
        .unwrap();
        let mut shadow = ShadowVm::new(program, Budget::default()).unwrap();
        let mut host = FakeHost::new(2);
        for tick in 0..8 {
            if tick % 2 == 0 {
                host.slots[0].push(Value::I64(tick));
            }
            shadow.run_slot(&mut host).unwrap();
        }
        let written: Vec<i64> = host
            .written
            .iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        assert_eq!(written, vec![0, 4, 8, 12]);
        assert!(shadow.fusion_counters().push_int_cmp_branch > 0);
    }
}

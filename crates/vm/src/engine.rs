//! Engine selection: which execution plane a plug-in runs on.
//!
//! The PIRTE instantiates every plug-in through [`Engine::new`], picking a
//! plane per software component via [`ExecMode`].  `Compiled` is the
//! default production plane; `Interpreter` keeps the reference engine
//! available for debugging and as the baseline in benchmarks; `Shadow`
//! runs both planes in lock-step asserting observable equivalence on live
//! traffic (see [`crate::shadow`]).

use std::fmt;

use serde::{Deserialize, Serialize};

use dynar_foundation::error::Result;

use crate::budget::Budget;
use crate::compiled::{CompiledVm, FusionCounters};
use crate::interpreter::{PortHost, SlotReport, Vm, VmStatus};
use crate::program::Program;
use crate::shadow::ShadowVm;

/// Which execution plane a plug-in runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecMode {
    /// The reference interpreter (slow plane).
    Interpreter,
    /// The compiled fast plane — the production default.
    #[default]
    Compiled,
    /// Both planes in lock-step, panicking on any observable divergence.
    Shadow,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExecMode::Interpreter => "interpreter",
            ExecMode::Compiled => "compiled",
            ExecMode::Shadow => "shadow",
        };
        f.write_str(name)
    }
}

/// A plug-in virtual machine on one of the execution planes.
///
/// Every variant exposes the same observable machine semantics; see
/// [`crate::compiled`] for the equivalence guarantee.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Engine {
    /// The reference interpreter.
    Interpreter(Vm),
    /// The compiled fast plane.
    Compiled(CompiledVm),
    /// Lock-step shadow execution of both planes (boxed: it carries both
    /// machines plus the event tape, dwarfing the other variants).
    Shadow(Box<ShadowVm>),
}

impl Engine {
    /// Loads `program` onto the plane selected by `mode`.  For the compiled
    /// and shadow planes this is where install-time compilation happens.
    ///
    /// # Errors
    ///
    /// Returns the typed validation error for a malformed program.
    pub fn new(program: Program, budget: Budget, mode: ExecMode) -> Result<Self> {
        Ok(match mode {
            ExecMode::Interpreter => Engine::Interpreter(Vm::new(program, budget)),
            ExecMode::Compiled => Engine::Compiled(CompiledVm::compile(program, budget)?),
            ExecMode::Shadow => Engine::Shadow(Box::new(ShadowVm::new(program, budget)?)),
        })
    }

    /// The plane this engine runs on.
    pub fn mode(&self) -> ExecMode {
        match self {
            Engine::Interpreter(_) => ExecMode::Interpreter,
            Engine::Compiled(_) => ExecMode::Compiled,
            Engine::Shadow(_) => ExecMode::Shadow,
        }
    }

    /// Runs one best-effort execution slot against `host`.
    ///
    /// # Errors
    ///
    /// Returns the fault that stopped the program (the machine transitions
    /// to [`VmStatus::Faulted`] and stays there).
    pub fn run_slot(&mut self, host: &mut dyn PortHost) -> Result<SlotReport> {
        match self {
            Engine::Interpreter(vm) => vm.run_slot(host),
            Engine::Compiled(vm) => vm.run_slot(host),
            Engine::Shadow(vm) => vm.run_slot(host),
        }
    }

    /// Resets the machine to the start of its program.
    pub fn reset(&mut self) {
        match self {
            Engine::Interpreter(vm) => vm.reset(),
            Engine::Compiled(vm) => vm.reset(),
            Engine::Shadow(vm) => vm.reset(),
        }
    }

    /// The portable source program.
    pub fn program(&self) -> &Program {
        match self {
            Engine::Interpreter(vm) => vm.program(),
            Engine::Compiled(vm) => vm.program(),
            Engine::Shadow(vm) => vm.program(),
        }
    }

    /// The budget the machine runs under.
    pub fn budget(&self) -> Budget {
        match self {
            Engine::Interpreter(vm) => vm.budget(),
            Engine::Compiled(vm) => vm.budget(),
            Engine::Shadow(vm) => vm.budget(),
        }
    }

    /// Current machine status.
    pub fn status(&self) -> VmStatus {
        match self {
            Engine::Interpreter(vm) => vm.status(),
            Engine::Compiled(vm) => vm.status(),
            Engine::Shadow(vm) => vm.status(),
        }
    }

    /// Total instructions executed since the program was loaded.
    pub fn total_instructions(&self) -> u64 {
        match self {
            Engine::Interpreter(vm) => vm.total_instructions(),
            Engine::Compiled(vm) => vm.total_instructions(),
            Engine::Shadow(vm) => vm.total_instructions(),
        }
    }

    /// Number of execution slots granted so far.
    pub fn slots_run(&self) -> u64 {
        match self {
            Engine::Interpreter(vm) => vm.slots_run(),
            Engine::Compiled(vm) => vm.slots_run(),
            Engine::Shadow(vm) => vm.slots_run(),
        }
    }

    /// Superinstruction execution counters (zero on the interpreter plane,
    /// which has no fast path).
    pub fn fusion_counters(&self) -> FusionCounters {
        match self {
            Engine::Interpreter(_) => FusionCounters::default(),
            Engine::Compiled(vm) => vm.fusion_counters(),
            Engine::Shadow(vm) => vm.fusion_counters(),
        }
    }

    /// Slots answered by replaying a remembered idle slot (only the
    /// compiled plane replays; see [`crate::compiled`]).
    pub fn replayed_slots(&self) -> u64 {
        match self {
            Engine::Compiled(vm) => vm.replayed_slots(),
            Engine::Interpreter(_) | Engine::Shadow(_) => 0,
        }
    }

    /// Forgets a remembered idle slot, so the next slot executes (see
    /// [`CompiledVm::forget_idle_slot`]).
    pub fn forget_idle_slot(&mut self) {
        if let Engine::Compiled(vm) = self {
            vm.forget_idle_slot();
        }
    }
}

//! One simulated electronic control unit: kernel, RTE and trigger wiring.
//!
//! The trigger/dispatch plane is resolved once, when a component is added,
//! so a tick indexes dense tables and hashes nothing:
//!
//! * the component owning a task is found by indexing a table with the
//!   [`TaskId`] (kernel task ids are dense);
//! * a runnable activation is a `u16` index into its component's runnable
//!   names, pushed onto a per-component pending vector;
//! * data-received triggers are a list sorted by the RTE's dense port slot,
//!   which is what the RTE reports for every delivery.
//!
//! The pending vectors and the trigger scan reuse scratch buffers, so a
//! steady tick allocates nothing.  Name- and id-keyed calls
//! ([`Ecu::component_by_name`], [`Ecu::call_operation`],
//! [`Ecu::trigger_runnable`]) resolve through the same component table.
//! [`Ecu::verify_dispatch_tables`] checks the compiled tables against a
//! fresh compile of the registered descriptors.

use dynar_bus::frame::CanId;
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{EcuId, SwcId};
use dynar_foundation::intern::Slot;
use dynar_foundation::log::{EventLog, Severity};
use dynar_foundation::time::{Clock, Tick};
use dynar_foundation::value::Value;
use dynar_os::kernel::Kernel;
use dynar_os::task::{TaskConfig, TaskId, TaskPriority};

use crate::component::{ComponentBehavior, RteContext, SwcDescriptor, Trigger};
use crate::rte::Rte;

/// Upper bound on dispatch rounds within one [`Ecu::step`], protecting the
/// simulation against components that endlessly re-trigger each other.
const MAX_DISPATCH_ROUNDS: usize = 64;

/// `component_of_task` entry of a task no component owns.
const NO_COMPONENT: u32 = u32::MAX;

struct ComponentEntry {
    swc: SwcId,
    name: String,
    task: TaskId,
    /// Runnable names in descriptor order; activations carry indices into
    /// this list.
    runnables: Vec<Box<str>>,
    behavior: Box<dyn ComponentBehavior>,
}

impl std::fmt::Debug for ComponentEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentEntry")
            .field("swc", &self.swc)
            .field("name", &self.name)
            .field("task", &self.task)
            .field("runnables", &self.runnables)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PeriodicRunnable {
    /// Index into `components` (and `pending_runnables`).
    component: u32,
    /// Index into the component's runnable names.
    runnable: u16,
    period: u64,
    next_due: Tick,
}

/// One data-received trigger: the port slot that fires it and the
/// `(component, runnable)` it activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DataTrigger {
    slot: Slot,
    component: u32,
    runnable: u16,
}

/// One simulated ECU: an OSEK kernel, an RTE instance, the components mapped
/// onto it and the trigger wiring between them.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Ecu {
    id: EcuId,
    kernel: Kernel,
    rte: Rte,
    components: Vec<ComponentEntry>,
    /// Task index -> index into `components` ([`NO_COMPONENT`] for tasks no
    /// component owns).
    component_of_task: Vec<u32>,
    periodic: Vec<PeriodicRunnable>,
    /// Every data-received trigger, sorted by port slot (registration order
    /// within a slot).
    data_triggers: Vec<DataTrigger>,
    /// Pending runnable activations per component (indexed like
    /// `components`); drained through `dispatch_scratch` so the buffers
    /// ping-pong instead of reallocating.
    pending_runnables: Vec<Vec<u16>>,
    dispatch_scratch: Vec<u16>,
    /// Reused buffer for the data-received slot scan.
    slots_scratch: Vec<Slot>,
    clock: Clock,
    started: bool,
    next_local: u16,
    log: EventLog,
    behaviour_errors: Vec<(SwcId, String, DynarError)>,
}

impl Ecu {
    /// Creates an empty ECU with the given identifier.
    pub fn new(id: EcuId) -> Self {
        Ecu {
            id,
            kernel: Kernel::new(),
            rte: Rte::new(),
            components: Vec::new(),
            component_of_task: Vec::new(),
            periodic: Vec::new(),
            data_triggers: Vec::new(),
            pending_runnables: Vec::new(),
            dispatch_scratch: Vec::new(),
            slots_scratch: Vec::new(),
            clock: Clock::new(),
            started: false,
            next_local: 0,
            log: EventLog::new(),
            behaviour_errors: Vec::new(),
        }
    }

    /// The ECU identifier.
    pub fn id(&self) -> EcuId {
        self.id
    }

    /// Current simulated time on this ECU.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Read access to the RTE instance.
    pub fn rte(&self) -> &Rte {
        &self.rte
    }

    /// Mutable access to the RTE instance.
    pub fn rte_mut(&mut self) -> &mut Rte {
        &mut self.rte
    }

    /// Read access to the OS kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The event log of this ECU.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Drains the behaviour errors recorded since the last call.
    pub fn take_behaviour_errors(&mut self) -> Vec<(SwcId, String, DynarError)> {
        std::mem::take(&mut self.behaviour_errors)
    }

    /// Registers a component instance on this ECU and wires its runnables.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-validation and registration errors.
    pub fn add_component(
        &mut self,
        descriptor: SwcDescriptor,
        behavior: Box<dyn ComponentBehavior>,
    ) -> Result<SwcId> {
        if self.component_by_name(descriptor.name()).is_some() {
            return Err(DynarError::duplicate(
                "component instance",
                descriptor.name(),
            ));
        }
        if descriptor.runnables().len() > usize::from(u16::MAX) {
            return Err(DynarError::invalid_config(format!(
                "component {} declares more runnables than an activation can index",
                descriptor.name()
            )));
        }
        let swc = SwcId::new(self.id, self.next_local);
        self.rte.register_component(swc, &descriptor)?;
        self.next_local += 1;

        let task = self.kernel.add_task(
            TaskConfig::new(
                format!("{}-task", descriptor.name()),
                TaskPriority::new(descriptor.priority()),
            )
            .with_max_activations(16),
        )?;

        // Stage the trigger wiring first: `component` indices must only be
        // committed once the whole descriptor resolved.
        let index = u32::try_from(self.components.len()).expect("component table overflow");
        let mut staged_periodic = Vec::new();
        let mut staged_data = Vec::new();
        for (runnable, spec) in descriptor.runnables().iter().enumerate() {
            let runnable = runnable as u16;
            match spec.trigger() {
                Trigger::Periodic(period) => {
                    let period = (*period).max(1);
                    staged_periodic.push(PeriodicRunnable {
                        component: index,
                        runnable,
                        period,
                        next_due: self.clock.now().advance(period),
                    });
                }
                Trigger::DataReceived(port) => {
                    let slot = self.rte.port_slot(self.rte.port_id(swc, port)?)?;
                    staged_data.push(DataTrigger {
                        slot,
                        component: index,
                        runnable,
                    });
                }
                Trigger::OnDemand => {}
            }
        }
        self.periodic.append(&mut staged_periodic);
        self.data_triggers.append(&mut staged_data);
        self.data_triggers.sort_by_key(|trigger| trigger.slot);

        let task_index = usize::from(task.index());
        if task_index >= self.component_of_task.len() {
            self.component_of_task.resize(task_index + 1, NO_COMPONENT);
        }
        self.component_of_task[task_index] = index;
        self.pending_runnables.push(Vec::new());
        self.components.push(ComponentEntry {
            swc,
            name: descriptor.name().to_owned(),
            task,
            runnables: descriptor
                .runnables()
                .iter()
                .map(|spec| Box::from(spec.name()))
                .collect(),
            behavior,
        });
        Ok(swc)
    }

    /// Index into `components` of a SW-C instance: an indexed check on the
    /// local index (how [`Ecu::add_component`] numbers them), a scan
    /// otherwise.
    fn position_of(&self, swc: SwcId) -> Option<usize> {
        let guess = usize::from(swc.local_index());
        match self.components.get(guess) {
            Some(entry) if entry.swc == swc => Some(guess),
            _ => self.components.iter().position(|entry| entry.swc == swc),
        }
    }

    /// Looks up a component instance by name.
    pub fn component_by_name(&self, name: &str) -> Option<SwcId> {
        self.components
            .iter()
            .find(|entry| entry.name == name)
            .map(|entry| entry.swc)
    }

    /// Connects a provided port of one local component to a required port of
    /// another.
    ///
    /// # Errors
    ///
    /// Propagates port-resolution and compatibility errors.
    pub fn connect_local(
        &mut self,
        provider: SwcId,
        provider_port: &str,
        requirer: SwcId,
        requirer_port: &str,
    ) -> Result<()> {
        let p = self.rte.port_id(provider, provider_port)?;
        let r = self.rte.port_id(requirer, requirer_port)?;
        self.rte.connect(p, r)
    }

    /// Maps a provided port onto an outgoing frame id.
    ///
    /// # Errors
    ///
    /// Propagates port-resolution and direction errors.
    pub fn map_signal_out(&mut self, swc: SwcId, port: &str, frame: CanId) -> Result<()> {
        let p = self.rte.port_id(swc, port)?;
        self.rte.map_signal_out(p, frame)
    }

    /// Maps an incoming frame id onto a required port.
    ///
    /// # Errors
    ///
    /// Propagates port-resolution and direction errors.
    pub fn map_signal_in(&mut self, frame: CanId, swc: SwcId, port: &str) -> Result<()> {
        let r = self.rte.port_id(swc, port)?;
        self.rte.map_signal_in(frame, r)
    }

    /// Invokes an operation on a provided client–server port of a local
    /// component, dispatching synchronously to its behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown components and propagates
    /// the behaviour's own error.
    pub fn call_operation(
        &mut self,
        server: SwcId,
        port: &str,
        operation: &str,
        argument: Value,
    ) -> Result<Value> {
        let index = self
            .position_of(server)
            .ok_or_else(|| DynarError::not_found("software component", server))?;
        let entry = &mut self.components[index];
        let mut ctx = RteContext::new(&mut self.rte, server);
        entry
            .behavior
            .on_operation(port, operation, argument, &mut ctx)
    }

    /// Explicitly executes an on-demand runnable of a component.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown components and propagates
    /// the behaviour's own error.
    pub fn trigger_runnable(&mut self, swc: SwcId, runnable: &str) -> Result<()> {
        let index = self
            .position_of(swc)
            .ok_or_else(|| DynarError::not_found("software component", swc))?;
        let entry = &mut self.components[index];
        let mut ctx = RteContext::new(&mut self.rte, swc);
        entry.behavior.on_runnable(runnable, &mut ctx)
    }

    /// Delivers a value arriving from the in-vehicle network; the matching
    /// data-received triggers fire on the next [`Ecu::step`].
    pub fn deliver_inbound(&mut self, frame: CanId, value: Value) {
        self.rte.deliver_inbound(frame, value);
    }

    /// Returns `true` if the ECU's RTE maps `frame` inbound, i.e. if
    /// [`Ecu::deliver_inbound`] would hand its value to a port.  The
    /// comstack asks before reassembling a received frame.
    pub fn maps_inbound(&self, frame: CanId) -> bool {
        self.rte.maps_inbound(frame)
    }

    /// Drains the values queued by this ECU for off-ECU transmission.
    pub fn drain_outbound(&mut self) -> Vec<(CanId, Value)> {
        self.rte.drain_outbound()
    }

    /// Drains the outbound values into a caller-owned buffer — the
    /// allocation-free variant of [`Ecu::drain_outbound`] for per-tick
    /// callers.
    pub fn drain_outbound_into(&mut self, into: &mut Vec<(CanId, Value)>) {
        self.rte.drain_outbound_into(into);
    }

    /// Advances the ECU by one tick: start-up on the first call, periodic
    /// trigger evaluation, data-received trigger evaluation and dispatching
    /// of all activated tasks.
    ///
    /// Behaviour errors are recorded in the log and retrievable through
    /// [`Ecu::take_behaviour_errors`]; they do not abort the step.
    ///
    /// # Errors
    ///
    /// Currently always returns `Ok`; the `Result` return type leaves room
    /// for platform-level failures such as kernel exhaustion.
    pub fn step(&mut self) -> Result<()> {
        if !self.started {
            self.started = true;
            for index in 0..self.components.len() {
                let swc = self.components[index].swc;
                let entry = &mut self.components[index];
                let mut ctx = RteContext::new(&mut self.rte, swc);
                if let Err(err) = entry.behavior.on_start(&mut ctx) {
                    self.log.record(
                        self.clock.now(),
                        Severity::Error,
                        "ecu",
                        format!("start-up of {} failed: {err}", entry.name),
                    );
                    self.behaviour_errors
                        .push((swc, "on_start".to_owned(), err));
                }
            }
        }

        let now = self.clock.step();
        self.kernel.advance(now);

        // Periodic triggers: an activation is a runnable index pushed onto
        // the component's pending vector.
        for periodic in &mut self.periodic {
            if periodic.next_due <= now {
                periodic.next_due = periodic.next_due.advance(periodic.period);
                let component = periodic.component as usize;
                self.pending_runnables[component].push(periodic.runnable);
                self.kernel
                    .trigger_activation(self.components[component].task);
            }
        }

        self.collect_data_triggers();

        // Dispatch until no task is ready (bounded to avoid livelock).
        for _ in 0..MAX_DISPATCH_ROUNDS {
            let Some(task) = self.kernel.schedule() else {
                break;
            };
            let index = self
                .component_of_task
                .get(usize::from(task.index()))
                .copied()
                .unwrap_or(NO_COMPONENT);
            if index == NO_COMPONENT {
                // A task not owned by any component (user-created); nothing to run.
                self.kernel.terminate(task)?;
                continue;
            }
            let index = index as usize;
            let swc = self.components[index].swc;
            // Drain the component's pending runnables through the scratch
            // buffer: the two vectors ping-pong, so neither reallocates in
            // steady state (a runnable may re-trigger its own component; the
            // fresh activations land in the now-empty pending vector exactly
            // as the old remove-then-run flow did).
            let mut scratch = std::mem::take(&mut self.dispatch_scratch);
            debug_assert!(scratch.is_empty());
            std::mem::swap(&mut scratch, &mut self.pending_runnables[index]);
            for runnable in scratch.drain(..) {
                let entry = &mut self.components[index];
                let result = {
                    let mut ctx = RteContext::new(&mut self.rte, swc);
                    entry
                        .behavior
                        .on_runnable(&entry.runnables[usize::from(runnable)], &mut ctx)
                };
                if let Err(err) = result {
                    let name = &entry.runnables[usize::from(runnable)];
                    self.log.record(
                        now,
                        Severity::Error,
                        "ecu",
                        format!("runnable {name} of {} failed: {err}", entry.name),
                    );
                    self.behaviour_errors.push((swc, name.to_string(), err));
                }
            }
            self.dispatch_scratch = scratch;
            self.kernel.terminate(task)?;
            // Runnables may have produced data for other local components.
            self.collect_data_triggers();
        }
        Ok(())
    }

    /// Runs [`Ecu::step`] `ticks` times.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    pub fn run(&mut self, ticks: u64) -> Result<()> {
        for _ in 0..ticks {
            self.step()?;
        }
        Ok(())
    }

    fn collect_data_triggers(&mut self) {
        debug_assert!(self.slots_scratch.is_empty());
        self.rte
            .drain_data_received_slots_into(&mut self.slots_scratch);
        for &slot in &self.slots_scratch {
            let start = self
                .data_triggers
                .partition_point(|trigger| trigger.slot < slot);
            let triggers = self.data_triggers[start..]
                .iter()
                .take_while(|trigger| trigger.slot == slot);
            for trigger in triggers {
                let component = trigger.component as usize;
                let pending = &mut self.pending_runnables[component];
                if !pending.contains(&trigger.runnable) {
                    pending.push(trigger.runnable);
                }
                self.kernel
                    .trigger_activation(self.components[component].task);
            }
        }
        self.slots_scratch.clear();
    }

    /// Checks the compiled dispatch tables against a fresh compile of the
    /// registered descriptors: the task table, every component's position
    /// and runnable names, the periodic list and the slot-sorted
    /// data-received triggers (used by the equivalence suites; always `true`
    /// unless the wiring discipline is broken).
    pub fn verify_dispatch_tables(&self) -> bool {
        if self.component_of_task.len() > self.kernel.task_count()
            || self.pending_runnables.len() != self.components.len()
        {
            return false;
        }
        for task in 0..self.kernel.task_count() {
            let expected = self
                .components
                .iter()
                .position(|entry| usize::from(entry.task.index()) == task)
                .map_or(NO_COMPONENT, |index| index as u32);
            if self
                .component_of_task
                .get(task)
                .copied()
                .unwrap_or(NO_COMPONENT)
                != expected
            {
                return false;
            }
        }
        let mut periodic = Vec::new();
        let mut triggers = Vec::new();
        for (index, entry) in self.components.iter().enumerate() {
            let Ok(descriptor) = self.rte.descriptor(entry.swc) else {
                return false;
            };
            let names_match = descriptor.runnables().len() == entry.runnables.len()
                && descriptor
                    .runnables()
                    .iter()
                    .zip(&entry.runnables)
                    .all(|(spec, name)| spec.name() == name.as_ref());
            if !names_match
                || self.position_of(entry.swc) != Some(index)
                || self.component_by_name(&entry.name) != Some(entry.swc)
                || self.pending_runnables[index]
                    .iter()
                    .any(|&runnable| usize::from(runnable) >= entry.runnables.len())
            {
                return false;
            }
            for (runnable, spec) in descriptor.runnables().iter().enumerate() {
                match spec.trigger() {
                    Trigger::Periodic(period) => {
                        periodic.push((index as u32, runnable as u16, (*period).max(1)));
                    }
                    Trigger::DataReceived(port) => {
                        let Ok(slot) = self
                            .rte
                            .port_id(entry.swc, port)
                            .and_then(|port| self.rte.port_slot(port))
                        else {
                            return false;
                        };
                        triggers.push(DataTrigger {
                            slot,
                            component: index as u32,
                            runnable: runnable as u16,
                        });
                    }
                    Trigger::OnDemand => {}
                }
            }
        }
        let compiled_periodic: Vec<(u32, u16, u64)> = self
            .periodic
            .iter()
            .map(|p| (p.component, p.runnable, p.period))
            .collect();
        triggers.sort_by_key(|trigger| trigger.slot);
        compiled_periodic == periodic && triggers == self.data_triggers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{RunnableSpec, SwcDescriptor, Trigger};
    use crate::port::{PortDirection, PortSpec};

    struct Counter {
        writes: i64,
    }

    impl ComponentBehavior for Counter {
        fn on_runnable(&mut self, _r: &str, ctx: &mut RteContext<'_>) -> Result<()> {
            self.writes += 1;
            ctx.write("out", Value::I64(self.writes))
        }
    }

    struct Echo;

    impl ComponentBehavior for Echo {
        fn on_runnable(&mut self, _r: &str, ctx: &mut RteContext<'_>) -> Result<()> {
            if let Some(value) = ctx.receive("in")? {
                ctx.write("out", value)?;
            }
            Ok(())
        }
    }

    struct Silent;

    impl ComponentBehavior for Silent {
        fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
            Ok(())
        }
    }

    fn counter_descriptor(period: u64) -> SwcDescriptor {
        SwcDescriptor::new("counter")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
            .with_runnable(RunnableSpec::new("tick", Trigger::Periodic(period)))
    }

    #[test]
    fn periodic_runnable_fires_at_its_period() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(counter_descriptor(10), Box::new(Counter { writes: 0 }))
            .unwrap();
        ecu.run(35).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(counter, "out").unwrap(),
            Value::I64(3),
            "3 periods fit in 35 ticks"
        );
    }

    #[test]
    fn data_received_trigger_chains_components() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(counter_descriptor(5), Box::new(Counter { writes: 0 }))
            .unwrap();
        let echo = ecu
            .add_component(
                SwcDescriptor::new("echo")
                    .with_port(PortSpec::queued("in", PortDirection::Required, 8))
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                    .with_runnable(RunnableSpec::new("fwd", Trigger::DataReceived("in".into()))),
                Box::new(Echo),
            )
            .unwrap();
        ecu.connect_local(counter, "out", echo, "in").unwrap();
        ecu.run(6).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(echo, "out").unwrap(),
            Value::I64(1),
            "echo forwarded in the same step the counter produced"
        );
    }

    #[test]
    fn duplicate_component_names_are_rejected() {
        let mut ecu = Ecu::new(EcuId::new(1));
        ecu.add_component(SwcDescriptor::new("x"), Box::new(Silent))
            .unwrap();
        assert!(ecu
            .add_component(SwcDescriptor::new("x"), Box::new(Silent))
            .is_err());
    }

    #[test]
    fn behaviour_errors_are_recorded_not_fatal() {
        struct Failing;
        impl ComponentBehavior for Failing {
            fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
                Err(DynarError::VmFault("boom".into()))
            }
        }
        let mut ecu = Ecu::new(EcuId::new(1));
        ecu.add_component(
            SwcDescriptor::new("failing")
                .with_runnable(RunnableSpec::new("r", Trigger::Periodic(1))),
            Box::new(Failing),
        )
        .unwrap();
        ecu.run(3).unwrap();
        let errors = ecu.take_behaviour_errors();
        assert_eq!(errors.len(), 3);
        assert!(ecu.log().count_at_least(Severity::Error) >= 3);
        assert!(ecu.take_behaviour_errors().is_empty(), "drained");
    }

    #[test]
    fn inbound_frames_trigger_data_received_runnables() {
        let mut ecu = Ecu::new(EcuId::new(2));
        let echo = ecu
            .add_component(
                SwcDescriptor::new("echo")
                    .with_port(PortSpec::queued("in", PortDirection::Required, 8))
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                    .with_runnable(RunnableSpec::new("fwd", Trigger::DataReceived("in".into()))),
                Box::new(Echo),
            )
            .unwrap();
        let frame = CanId::new(0x77).unwrap();
        ecu.map_signal_in(frame, echo, "in").unwrap();
        ecu.deliver_inbound(frame, Value::Text("ping".into()));
        ecu.step().unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(echo, "out").unwrap(),
            Value::Text("ping".into())
        );
    }

    #[test]
    fn outbound_mapping_collects_signals() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(counter_descriptor(1), Box::new(Counter { writes: 0 }))
            .unwrap();
        let frame = CanId::new(0x55).unwrap();
        ecu.map_signal_out(counter, "out", frame).unwrap();
        ecu.run(3).unwrap();
        let outbound = ecu.drain_outbound();
        assert_eq!(outbound.len(), 3);
        assert!(outbound.iter().all(|(id, _)| *id == frame));
    }

    #[test]
    fn on_start_runs_once() {
        struct Starter {
            starts: i64,
        }
        impl ComponentBehavior for Starter {
            fn on_start(&mut self, ctx: &mut RteContext<'_>) -> Result<()> {
                self.starts += 1;
                ctx.write("out", Value::I64(self.starts))
            }
            fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
                Ok(())
            }
        }
        let mut ecu = Ecu::new(EcuId::new(1));
        let swc = ecu
            .add_component(
                SwcDescriptor::new("starter")
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided)),
                Box::new(Starter { starts: 0 }),
            )
            .unwrap();
        ecu.run(5).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(swc, "out").unwrap(),
            Value::I64(1)
        );
    }

    #[test]
    fn call_operation_dispatches_to_behaviour() {
        struct Server;
        impl ComponentBehavior for Server {
            fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
                Ok(())
            }
            fn on_operation(
                &mut self,
                port: &str,
                operation: &str,
                argument: Value,
                _ctx: &mut RteContext<'_>,
            ) -> Result<Value> {
                assert_eq!(port, "diag");
                match operation {
                    "double" => Ok(Value::I64(argument.expect_i64()? * 2)),
                    other => Err(DynarError::not_found("operation", other)),
                }
            }
        }
        let mut ecu = Ecu::new(EcuId::new(1));
        let server = ecu
            .add_component(
                SwcDescriptor::new("server").with_port(PortSpec::client_server(
                    "diag",
                    PortDirection::Provided,
                    ["double"],
                )),
                Box::new(Server),
            )
            .unwrap();
        assert_eq!(
            ecu.call_operation(server, "diag", "double", Value::I64(21))
                .unwrap(),
            Value::I64(42)
        );
        assert!(ecu
            .call_operation(server, "diag", "halve", Value::I64(2))
            .is_err());
    }

    #[test]
    fn trigger_runnable_runs_on_demand() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(
                SwcDescriptor::new("ondemand")
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                    .with_runnable(RunnableSpec::new("once", Trigger::OnDemand)),
                Box::new(Counter { writes: 0 }),
            )
            .unwrap();
        ecu.run(10).unwrap();
        assert!(ecu
            .rte()
            .read_port_by_name(counter, "out")
            .unwrap()
            .is_void());
        ecu.trigger_runnable(counter, "once").unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(counter, "out").unwrap(),
            Value::I64(1)
        );
    }

    #[test]
    fn component_lookup_by_name() {
        let mut ecu = Ecu::new(EcuId::new(3));
        let swc = ecu
            .add_component(SwcDescriptor::new("abc"), Box::new(Silent))
            .unwrap();
        assert_eq!(ecu.component_by_name("abc"), Some(swc));
        assert_eq!(ecu.component_by_name("zzz"), None);
        assert_eq!(ecu.id(), EcuId::new(3));
    }
}

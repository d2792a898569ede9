//! The kernel: task management, scheduling, alarms, events and resources.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::time::Tick;

use crate::alarm::{Alarm, AlarmAction, AlarmId};
use crate::event::EventMask;
use crate::resource::{Resource, ResourceId};
use crate::task::{TaskConfig, TaskControlBlock, TaskId, TaskState};

/// Aggregate scheduling statistics, used by the isolation experiments (E4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Total successful task activations.
    pub activations: u64,
    /// Total dispatch decisions that selected a task.
    pub dispatches: u64,
    /// Times a running task was preempted by a higher-priority task.
    pub preemptions: u64,
    /// Total alarm expirations applied.
    pub alarm_expirations: u64,
    /// Activation requests rejected because the activation limit was reached.
    pub activation_overflows: u64,
    /// Activation requests rejected because they named no task of this
    /// kernel.
    pub unknown_task_activations: u64,
    /// Alarm `SetEvent` actions rejected by [`Kernel::set_event`] (the
    /// alarm targets a basic task or an unknown task).
    pub alarm_event_failures: u64,
}

/// The OSEK-like kernel of one ECU.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Kernel {
    tasks: Vec<TaskControlBlock>,
    names: HashMap<String, TaskId>,
    alarms: Vec<Alarm>,
    resources: Vec<Resource>,
    running: Option<TaskId>,
    now: Tick,
    stats: KernelStats,
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Kernel::default()
    }

    /// Current simulated time as last told to [`Kernel::advance`].
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Scheduling statistics accumulated so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Number of configured tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    // ------------------------------------------------------------------
    // Task management
    // ------------------------------------------------------------------

    /// Registers a task and returns its identifier.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if a task with the same name exists.
    pub fn add_task(&mut self, config: TaskConfig) -> Result<TaskId> {
        if self.names.contains_key(config.name()) {
            return Err(DynarError::duplicate("task", config.name()));
        }
        let id = TaskId::new(self.tasks.len() as u16);
        self.names.insert(config.name().to_owned(), id);
        self.tasks.push(TaskControlBlock::new(config));
        Ok(id)
    }

    /// Looks a task up by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.names.get(name).copied()
    }

    /// The current state of a task.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task.
    pub fn task_state(&self, task: TaskId) -> Result<TaskState> {
        Ok(self.tcb(task)?.state)
    }

    /// The static configuration of a task.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task.
    pub fn task_config(&self, task: TaskId) -> Result<&TaskConfig> {
        Ok(&self.tcb(task)?.config)
    }

    /// Activates a task (OSEK `ActivateTask`).
    ///
    /// A suspended task becomes ready; an already active task queues an extra
    /// activation up to its configured limit.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task and
    /// [`DynarError::InvalidConfiguration`] when the activation limit is
    /// exceeded (OSEK `E_OS_LIMIT`).
    pub fn activate(&mut self, task: TaskId) -> Result<()> {
        let outcome = {
            let tcb = match self.tcb_mut(task) {
                Ok(tcb) => tcb,
                Err(err) => {
                    self.stats.unknown_task_activations += 1;
                    return Err(err);
                }
            };
            match tcb.state {
                TaskState::Suspended => {
                    tcb.state = TaskState::Ready;
                    tcb.activation_count += 1;
                    Ok(())
                }
                _ => {
                    if tcb.pending_activations + 1 < tcb.config.max_activations() {
                        tcb.pending_activations += 1;
                        tcb.activation_count += 1;
                        Ok(())
                    } else {
                        Err(DynarError::invalid_config(format!(
                            "activation limit reached for task {}",
                            tcb.config.name()
                        )))
                    }
                }
            }
        };
        match &outcome {
            Ok(()) => self.stats.activations += 1,
            Err(_) => self.stats.activation_overflows += 1,
        }
        outcome
    }

    /// Activates a task on behalf of a trigger no caller could answer — a
    /// periodic or data-received runnable, an alarm.  A rejected activation
    /// is counted in [`KernelStats`] by its reason
    /// (`activation_overflows`, `unknown_task_activations`) and otherwise
    /// tolerated, so one misconfigured trigger cannot stop the others.
    pub fn trigger_activation(&mut self, task: TaskId) {
        // `activate` has counted the rejection; nothing else can act on it.
        if let Err(err) = self.activate(task) {
            debug_assert!(matches!(
                err,
                DynarError::NotFound { .. } | DynarError::InvalidConfiguration(_)
            ));
        }
    }

    /// Terminates the given task (OSEK `TerminateTask`).
    ///
    /// If extra activations are pending the task immediately becomes ready
    /// again, otherwise it is suspended.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task.
    pub fn terminate(&mut self, task: TaskId) -> Result<()> {
        if self.running == Some(task) {
            self.running = None;
        }
        let tcb = self.tcb_mut(task)?;
        tcb.dynamic_priority = tcb.config.priority();
        if tcb.pending_activations > 0 {
            tcb.pending_activations -= 1;
            tcb.state = TaskState::Ready;
        } else {
            tcb.state = TaskState::Suspended;
        }
        Ok(())
    }

    /// Terminates `task` and activates `next` in one step (OSEK `ChainTask`).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Kernel::terminate`] and [`Kernel::activate`].
    pub fn chain(&mut self, task: TaskId, next: TaskId) -> Result<()> {
        self.terminate(task)?;
        self.activate(next)
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// Sets events for an extended task (OSEK `SetEvent`), waking it if it
    /// waits on any of them.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task and
    /// [`DynarError::InvalidConfiguration`] for a basic task.
    pub fn set_event(&mut self, task: TaskId, events: EventMask) -> Result<()> {
        let tcb = self.tcb_mut(task)?;
        if !tcb.config.is_extended() {
            return Err(DynarError::invalid_config(format!(
                "task {} is not an extended task",
                tcb.config.name()
            )));
        }
        tcb.set_events |= events;
        if tcb.state == TaskState::Waiting && tcb.set_events.intersects(tcb.waited_events) {
            tcb.state = TaskState::Ready;
            tcb.waited_events = EventMask::NONE;
        }
        Ok(())
    }

    /// Makes the running extended task wait for `events` (OSEK `WaitEvent`).
    ///
    /// If one of the events is already set the task keeps running; otherwise
    /// it transitions to `Waiting` and loses the processor.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task and
    /// [`DynarError::InvalidConfiguration`] for a basic task.
    pub fn wait_event(&mut self, task: TaskId, events: EventMask) -> Result<()> {
        let was_running = self.running == Some(task);
        let tcb = self.tcb_mut(task)?;
        if !tcb.config.is_extended() {
            return Err(DynarError::invalid_config(format!(
                "task {} is not an extended task",
                tcb.config.name()
            )));
        }
        if tcb.set_events.intersects(events) {
            return Ok(());
        }
        tcb.waited_events = events;
        tcb.state = TaskState::Waiting;
        if was_running {
            self.running = None;
        }
        Ok(())
    }

    /// Clears events of an extended task (OSEK `ClearEvent`).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task.
    pub fn clear_event(&mut self, task: TaskId, events: EventMask) -> Result<()> {
        let tcb = self.tcb_mut(task)?;
        tcb.set_events = tcb.set_events.without(events);
        Ok(())
    }

    /// Returns the currently set events of a task (OSEK `GetEvent`).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown task.
    pub fn events_of(&self, task: TaskId) -> Result<EventMask> {
        Ok(self.tcb(task)?.set_events)
    }

    // ------------------------------------------------------------------
    // Alarms
    // ------------------------------------------------------------------

    /// Registers an alarm and returns its identifier.
    pub fn add_alarm(&mut self, alarm: Alarm) -> AlarmId {
        let id = AlarmId::new(self.alarms.len() as u16);
        self.alarms.push(alarm);
        id
    }

    /// Cancels an alarm (OSEK `CancelAlarm`).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown alarm.
    pub fn cancel_alarm(&mut self, alarm: AlarmId) -> Result<()> {
        let slot = self
            .alarms
            .get_mut(alarm.index() as usize)
            .ok_or_else(|| DynarError::not_found("alarm", alarm))?;
        slot.cancel();
        Ok(())
    }

    /// Advances kernel time to `now`, firing due alarms and applying their
    /// actions.  Returns the actions that fired, in alarm order.
    pub fn advance(&mut self, now: Tick) -> Vec<AlarmAction> {
        self.now = now;
        let mut fired = Vec::new();
        for index in 0..self.alarms.len() {
            if let Some(action) = self.alarms[index].poll(now) {
                self.stats.alarm_expirations += 1;
                // A failed alarm action is counted in the stats and
                // otherwise tolerated, so one misconfigured alarm cannot stop
                // the others: a rejected activation is counted by its
                // reason (an overflow — on a periodic alarm, the task missed
                // its deadline — in `activation_overflows`, an unknown task
                // in `unknown_task_activations`), a rejected event in
                // `alarm_event_failures`.
                match action {
                    AlarmAction::ActivateTask(task) => self.trigger_activation(task),
                    AlarmAction::SetEvent(task, events) => {
                        if self.set_event(task, events).is_err() {
                            self.stats.alarm_event_failures += 1;
                        }
                    }
                }
                fired.push(action);
            }
        }
        fired
    }

    // ------------------------------------------------------------------
    // Resources (immediate priority ceiling)
    // ------------------------------------------------------------------

    /// Registers a resource and returns its identifier.
    pub fn add_resource(&mut self, resource: Resource) -> ResourceId {
        let id = ResourceId::new(self.resources.len() as u16);
        self.resources.push(resource);
        id
    }

    /// Acquires a resource for `task` (OSEK `GetResource`), raising the task's
    /// dynamic priority to the resource ceiling.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown ids and
    /// [`DynarError::InvalidConfiguration`] if the resource is already held by
    /// another task.
    pub fn get_resource(&mut self, task: TaskId, resource: ResourceId) -> Result<()> {
        let res = self
            .resources
            .get_mut(resource.index() as usize)
            .ok_or_else(|| DynarError::not_found("resource", resource))?;
        if !res.try_acquire(task) {
            return Err(DynarError::invalid_config(format!(
                "resource {} already held",
                res.name()
            )));
        }
        let ceiling = res.ceiling();
        let tcb = self.tcb_mut(task)?;
        if ceiling > tcb.dynamic_priority {
            tcb.dynamic_priority = ceiling;
        }
        Ok(())
    }

    /// Releases a resource held by `task` (OSEK `ReleaseResource`), restoring
    /// the task's priority to its static level or to the highest ceiling of
    /// the resources it still holds.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown ids and
    /// [`DynarError::InvalidConfiguration`] if `task` does not hold it.
    pub fn release_resource(&mut self, task: TaskId, resource: ResourceId) -> Result<()> {
        let res = self
            .resources
            .get_mut(resource.index() as usize)
            .ok_or_else(|| DynarError::not_found("resource", resource))?;
        if res.release(task).is_err() {
            return Err(DynarError::invalid_config(format!(
                "resource {} not held by {task}",
                res.name()
            )));
        }
        let still_held_ceiling = self
            .resources
            .iter()
            .filter(|r| r.holder() == Some(task))
            .map(Resource::ceiling)
            .max();
        let tcb = self.tcb_mut(task)?;
        tcb.dynamic_priority = match still_held_ceiling {
            Some(ceiling) if ceiling > tcb.config.priority() => ceiling,
            _ => tcb.config.priority(),
        };
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Picks the highest-priority ready (or running) task and dispatches it.
    ///
    /// Returns the task now holding the processor, or `None` if every task is
    /// suspended or waiting.  Preemptions of a lower-priority running task are
    /// counted in [`KernelStats::preemptions`].
    pub fn schedule(&mut self) -> Option<TaskId> {
        let best = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, tcb)| matches!(tcb.state, TaskState::Ready | TaskState::Running))
            .max_by(|(ia, a), (ib, b)| {
                (a.dynamic_priority, std::cmp::Reverse(*ia))
                    .cmp(&(b.dynamic_priority, std::cmp::Reverse(*ib)))
            })
            .map(|(i, _)| TaskId::new(i as u16))?;

        if let Some(current) = self.running {
            if current != best {
                if let Ok(tcb) = self.tcb_mut(current) {
                    if tcb.state == TaskState::Running {
                        tcb.state = TaskState::Ready;
                        tcb.preemption_count += 1;
                        self.stats.preemptions += 1;
                    }
                }
            }
        }

        if self.running != Some(best) {
            self.stats.dispatches += 1;
        }
        self.running = Some(best);
        if let Ok(tcb) = self.tcb_mut(best) {
            tcb.state = TaskState::Running;
        }
        Some(best)
    }

    /// The task currently holding the processor, if any.
    pub fn running(&self) -> Option<TaskId> {
        self.running
    }

    fn tcb(&self, task: TaskId) -> Result<&TaskControlBlock> {
        self.tasks
            .get(task.index() as usize)
            .ok_or_else(|| DynarError::not_found("task", task))
    }

    fn tcb_mut(&mut self, task: TaskId) -> Result<&mut TaskControlBlock> {
        self.tasks
            .get_mut(task.index() as usize)
            .ok_or_else(|| DynarError::not_found("task", task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarm::Alarm;
    use crate::task::TaskPriority;

    fn kernel_with(priorities: &[u8]) -> (Kernel, Vec<TaskId>) {
        let mut kernel = Kernel::new();
        let ids = priorities
            .iter()
            .enumerate()
            .map(|(i, p)| {
                kernel
                    .add_task(TaskConfig::new(format!("t{i}"), TaskPriority::new(*p)))
                    .unwrap()
            })
            .collect();
        (kernel, ids)
    }

    #[test]
    fn duplicate_task_names_are_rejected() {
        let mut kernel = Kernel::new();
        kernel
            .add_task(TaskConfig::new("a", TaskPriority::new(1)))
            .unwrap();
        let err = kernel
            .add_task(TaskConfig::new("a", TaskPriority::new(2)))
            .unwrap_err();
        assert!(matches!(err, DynarError::Duplicate { .. }));
    }

    #[test]
    fn highest_priority_ready_task_runs() {
        let (mut kernel, ids) = kernel_with(&[1, 5, 3]);
        for id in &ids {
            kernel.activate(*id).unwrap();
        }
        assert_eq!(kernel.schedule(), Some(ids[1]));
        kernel.terminate(ids[1]).unwrap();
        assert_eq!(kernel.schedule(), Some(ids[2]));
    }

    #[test]
    fn equal_priority_prefers_earlier_task() {
        let (mut kernel, ids) = kernel_with(&[4, 4]);
        kernel.activate(ids[1]).unwrap();
        kernel.activate(ids[0]).unwrap();
        assert_eq!(kernel.schedule(), Some(ids[0]));
    }

    #[test]
    fn preemption_is_counted() {
        let (mut kernel, ids) = kernel_with(&[1, 9]);
        kernel.activate(ids[0]).unwrap();
        assert_eq!(kernel.schedule(), Some(ids[0]));
        kernel.activate(ids[1]).unwrap();
        assert_eq!(kernel.schedule(), Some(ids[1]));
        assert_eq!(kernel.stats().preemptions, 1);
        assert_eq!(kernel.task_state(ids[0]).unwrap(), TaskState::Ready);
    }

    #[test]
    fn activation_limit_is_enforced() {
        let mut kernel = Kernel::new();
        let t = kernel
            .add_task(TaskConfig::new("t", TaskPriority::new(1)).with_max_activations(2))
            .unwrap();
        kernel.activate(t).unwrap();
        kernel.activate(t).unwrap();
        assert!(kernel.activate(t).is_err());
        assert_eq!(kernel.stats().activation_overflows, 1);
    }

    #[test]
    fn rejected_trigger_activations_are_counted_by_reason() {
        let mut kernel = Kernel::new();
        let t = kernel
            .add_task(TaskConfig::new("t", TaskPriority::new(1)).with_max_activations(1))
            .unwrap();
        kernel.trigger_activation(t);
        kernel.trigger_activation(t);
        let unknown = TaskId::new(7);
        assert!(matches!(
            kernel.activate(unknown),
            Err(DynarError::NotFound { .. })
        ));
        kernel.add_alarm(Alarm::relative(
            1,
            None,
            AlarmAction::ActivateTask(unknown),
            Tick::ZERO,
        ));
        kernel.advance(Tick::new(1));
        let stats = kernel.stats();
        assert_eq!(stats.activations, 1);
        assert_eq!(stats.activation_overflows, 1);
        assert_eq!(stats.unknown_task_activations, 2);
        assert_eq!(stats.alarm_expirations, 1);
    }

    #[test]
    fn failed_alarm_set_event_is_counted() {
        let (mut kernel, ids) = kernel_with(&[1]);
        // `t0` is a basic task: it cannot receive events.
        kernel.add_alarm(Alarm::relative(
            2,
            Some(2),
            AlarmAction::SetEvent(ids[0], EventMask::bit(0)),
            Tick::ZERO,
        ));
        kernel.advance(Tick::new(2));
        assert_eq!(kernel.stats().alarm_event_failures, 1);
        kernel.advance(Tick::new(4));
        assert_eq!(kernel.stats().alarm_event_failures, 2);
        assert_eq!(kernel.stats().alarm_expirations, 2);
        assert_eq!(kernel.stats().activation_overflows, 0);
    }

    #[test]
    fn pending_activation_reactivates_after_terminate() {
        let mut kernel = Kernel::new();
        let t = kernel
            .add_task(TaskConfig::new("t", TaskPriority::new(1)).with_max_activations(2))
            .unwrap();
        kernel.activate(t).unwrap();
        kernel.activate(t).unwrap();
        kernel.schedule();
        kernel.terminate(t).unwrap();
        assert_eq!(kernel.task_state(t).unwrap(), TaskState::Ready);
        kernel.terminate(t).unwrap();
        assert_eq!(kernel.task_state(t).unwrap(), TaskState::Suspended);
    }

    #[test]
    fn events_wake_waiting_tasks() {
        let mut kernel = Kernel::new();
        let t = kernel
            .add_task(TaskConfig::new("t", TaskPriority::new(1)).extended())
            .unwrap();
        kernel.activate(t).unwrap();
        kernel.schedule();
        kernel.wait_event(t, EventMask::bit(0)).unwrap();
        assert_eq!(kernel.task_state(t).unwrap(), TaskState::Waiting);
        assert_eq!(kernel.schedule(), None);
        kernel.set_event(t, EventMask::bit(0)).unwrap();
        assert_eq!(kernel.task_state(t).unwrap(), TaskState::Ready);
        assert_eq!(kernel.schedule(), Some(t));
        assert!(kernel.events_of(t).unwrap().any());
        kernel.clear_event(t, EventMask::bit(0)).unwrap();
        assert!(!kernel.events_of(t).unwrap().any());
    }

    #[test]
    fn wait_with_already_set_event_does_not_block() {
        let mut kernel = Kernel::new();
        let t = kernel
            .add_task(TaskConfig::new("t", TaskPriority::new(1)).extended())
            .unwrap();
        kernel.activate(t).unwrap();
        kernel.schedule();
        kernel.set_event(t, EventMask::bit(2)).unwrap();
        kernel.wait_event(t, EventMask::bit(2)).unwrap();
        assert_eq!(kernel.task_state(t).unwrap(), TaskState::Running);
    }

    #[test]
    fn events_on_basic_tasks_are_rejected() {
        let (mut kernel, ids) = kernel_with(&[1]);
        assert!(kernel.set_event(ids[0], EventMask::bit(0)).is_err());
        assert!(kernel.wait_event(ids[0], EventMask::bit(0)).is_err());
    }

    #[test]
    fn alarms_activate_tasks_periodically() {
        let (mut kernel, ids) = kernel_with(&[1]);
        kernel.add_alarm(Alarm::relative(
            5,
            Some(5),
            AlarmAction::ActivateTask(ids[0]),
            Tick::ZERO,
        ));
        let mut activations = 0;
        for t in 1..=20u64 {
            let fired = kernel.advance(Tick::new(t));
            activations += fired.len();
            if !fired.is_empty() {
                kernel.schedule();
                kernel.terminate(ids[0]).unwrap();
            }
        }
        assert_eq!(activations, 4);
        assert_eq!(kernel.stats().alarm_expirations, 4);
    }

    #[test]
    fn cancelled_alarm_stops_firing() {
        let (mut kernel, ids) = kernel_with(&[1]);
        let alarm = kernel.add_alarm(Alarm::relative(
            1,
            Some(1),
            AlarmAction::ActivateTask(ids[0]),
            Tick::ZERO,
        ));
        kernel.advance(Tick::new(1));
        kernel.cancel_alarm(alarm).unwrap();
        assert!(kernel.advance(Tick::new(5)).is_empty());
    }

    #[test]
    fn resource_ceiling_raises_and_restores_priority() {
        let (mut kernel, ids) = kernel_with(&[2, 5]);
        let res = kernel.add_resource(Resource::new("shared", TaskPriority::new(9)));
        kernel.activate(ids[0]).unwrap();
        kernel.schedule();
        kernel.get_resource(ids[0], res).unwrap();

        // A higher-priority task becomes ready but cannot preempt while the
        // ceiling is held.
        kernel.activate(ids[1]).unwrap();
        assert_eq!(kernel.schedule(), Some(ids[0]));

        kernel.release_resource(ids[0], res).unwrap();
        assert_eq!(kernel.schedule(), Some(ids[1]));
    }

    #[test]
    fn resource_misuse_is_reported() {
        let (mut kernel, ids) = kernel_with(&[1, 1]);
        let res = kernel.add_resource(Resource::new("r", TaskPriority::new(3)));
        kernel.get_resource(ids[0], res).unwrap();
        assert!(kernel.get_resource(ids[1], res).is_err());
        assert!(kernel.release_resource(ids[1], res).is_err());
        assert!(kernel.release_resource(ids[0], ResourceId::new(9)).is_err());
    }

    #[test]
    fn chain_terminates_and_activates() {
        let (mut kernel, ids) = kernel_with(&[1, 2]);
        kernel.activate(ids[0]).unwrap();
        kernel.schedule();
        kernel.chain(ids[0], ids[1]).unwrap();
        assert_eq!(kernel.task_state(ids[0]).unwrap(), TaskState::Suspended);
        assert_eq!(kernel.schedule(), Some(ids[1]));
    }

    #[test]
    fn unknown_ids_return_not_found() {
        let mut kernel = Kernel::new();
        assert!(kernel.activate(TaskId::new(0)).is_err());
        assert!(kernel.task_state(TaskId::new(0)).is_err());
        assert!(kernel.cancel_alarm(AlarmId::new(0)).is_err());
    }

    #[test]
    fn task_lookup_by_name() {
        let (kernel, ids) = kernel_with(&[1, 2]);
        assert_eq!(kernel.task_by_name("t1"), Some(ids[1]));
        assert_eq!(kernel.task_by_name("nope"), None);
        assert_eq!(kernel.task_count(), 2);
    }
}

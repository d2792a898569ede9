//! A lightweight structured event log.
//!
//! The simulated platform has no console; instead every subsystem records
//! noteworthy events (installations, acks, faults, signal drops) into an
//! [`EventLog`].  Tests and the scenario runner query the log to assert on
//! system-level behaviour, and the bench harness uses it to count events
//! without perturbing the measured code paths.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::Tick;

/// Severity of a logged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Fine-grained progress information (signal routed, runnable executed).
    Debug,
    /// Normal life-cycle events (plug-in installed, ack received).
    Info,
    /// Something unexpected that the system tolerated (dropped frame).
    Warning,
    /// A failure that aborted an operation (rejected deployment, VM fault).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Error => "ERROR",
        };
        f.write_str(name)
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulated time at which the event occurred.
    pub at: Tick,
    /// Severity of the event.
    pub severity: Severity,
    /// The subsystem that produced the event ("pirte", "ecm", "server", ...).
    /// A static name, so recording an event never allocates its source.
    pub source: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {}",
            self.at, self.severity, self.source, self.message
        )
    }
}

/// An append-only, bounded, in-memory event log.
///
/// The log keeps at most `capacity` events; older events are discarded first,
/// mirroring the bounded diagnostic buffers of a real ECU.  It is a ring
/// buffer, so recording into a full log costs O(1), not a shift of every
/// retained event.
///
/// # Example
/// ```
/// use dynar_foundation::log::{EventLog, Severity};
/// use dynar_foundation::time::Tick;
///
/// let mut log = EventLog::with_capacity(16);
/// log.record(Tick::new(3), Severity::Info, "pirte", "plug-in COM installed");
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.count_at_least(Severity::Info), 1);
/// assert!(log.iter().any(|e| e.message.contains("COM")));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventLog {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl EventLog {
    /// Default number of retained events.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a log with [`EventLog::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a log retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends an event, discarding the oldest one if the log is full.
    pub fn record(
        &mut self,
        at: Tick,
        severity: Severity,
        source: &'static str,
        message: impl Into<String>,
    ) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            at,
            severity,
            source,
            message: message.into(),
        });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over retained events in chronological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Event> + ExactSizeIterator + '_ {
        self.events.iter()
    }

    /// Counts retained events with severity at least `min`.
    pub fn count_at_least(&self, min: Severity) -> usize {
        self.events.iter().filter(|e| e.severity >= min).count()
    }

    /// Returns the retained events produced by `source`.
    pub fn from_source<'a>(&'a self, source: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.source == source)
    }

    /// Removes all retained events (the drop counter is preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a Event;
    type IntoIter = std::collections::vec_deque::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, capacity: usize) -> EventLog {
        let mut log = EventLog::with_capacity(capacity);
        for i in 0..n {
            log.record(
                Tick::new(i as u64),
                Severity::Info,
                "test",
                format!("event {i}"),
            );
        }
        log
    }

    #[test]
    fn records_in_order() {
        let log = filled(5, 16);
        let times: Vec<u64> = log.iter().map(|e| e.at.as_u64()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let log = filled(10, 4);
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        assert_eq!(log.iter().next().unwrap().message, "event 6");
    }

    #[test]
    fn recording_past_capacity_keeps_the_newest_in_order() {
        // Wrap the ring several times over: the retained window, its order
        // and the drop count must match a log that shifted on every evict.
        let log = filled(4 * 7 + 3, 7);
        let times: Vec<u64> = log.iter().map(|e| e.at.as_u64()).collect();
        assert_eq!(times, (24..31).collect::<Vec<u64>>());
        assert_eq!(log.dropped(), 24);
        assert_eq!(log.len(), 7);
        let by_ref: Vec<u64> = (&log).into_iter().map(|e| e.at.as_u64()).collect();
        assert_eq!(by_ref, times);
        assert_eq!(log.from_source("test").count(), 7);
        assert_eq!(log.count_at_least(Severity::Info), 7);
    }

    #[test]
    fn severity_ordering_supports_filtering() {
        let mut log = EventLog::new();
        log.record(Tick::ZERO, Severity::Debug, "a", "d");
        log.record(Tick::ZERO, Severity::Warning, "a", "w");
        log.record(Tick::ZERO, Severity::Error, "b", "e");
        assert_eq!(log.count_at_least(Severity::Warning), 2);
        assert_eq!(log.count_at_least(Severity::Debug), 3);
        assert_eq!(log.from_source("b").count(), 1);
    }

    #[test]
    fn clear_preserves_drop_counter() {
        let mut log = filled(10, 4);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 6);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut log = EventLog::with_capacity(0);
        log.record(Tick::ZERO, Severity::Info, "a", "x");
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn event_display_contains_all_fields() {
        let mut log = EventLog::new();
        log.record(Tick::new(9), Severity::Error, "vm", "stack underflow");
        let rendered = log.iter().next().unwrap().to_string();
        assert!(rendered.contains("t9"));
        assert!(rendered.contains("ERROR"));
        assert!(rendered.contains("vm"));
        assert!(rendered.contains("stack underflow"));
    }
}

//! The broadcast bus: attachment, subscription, arbitration and delivery.
//!
//! Like the RTE, the bus separates its slow reconfiguration plane (ECU
//! attachment and acceptance-filter subscriptions, interned into dense slots)
//! from its fast signal plane (arbitration, error model and delivery, which
//! walk flat `Vec`-indexed mailboxes and per-frame subscriber lists).
//!
//! ECUs are attached in id order under a contiguous run of ids in every
//! vehicle, so an ECU's slot is predictable from its id: the per-tick
//! [`Bus::send`] and [`Bus::receive_into`] check that predicted slot against
//! the interner's dense key table and hash the id only when it misses.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::EcuId;
use dynar_foundation::intern::{Interner, Slot, SlotSet};
use dynar_foundation::time::Tick;

use crate::frame::{CanId, Frame};

/// Static configuration of one bus segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Number of frames that can complete transmission per tick.
    pub frames_per_tick: usize,
    /// Propagation plus queuing latency added to every frame, in ticks.
    pub latency_ticks: u64,
    /// Probability in `[0, 1]` that a transmitted frame is corrupted and
    /// dropped (no automatic retransmission is modelled).
    pub drop_probability: f64,
    /// Seed of the error-model random number generator, so simulations are
    /// reproducible.
    pub seed: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            frames_per_tick: 16,
            latency_ticks: 1,
            drop_probability: 0.0,
            seed: 0x5EED,
        }
    }
}

/// Counters describing bus traffic so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusStats {
    /// Frames accepted for transmission.
    pub sent: u64,
    /// Frame deliveries into receiver mailboxes (one frame delivered to two
    /// subscribers counts twice).
    pub delivered: u64,
    /// Frames dropped by the error model.
    pub dropped: u64,
    /// Frames that finished transmission without any subscriber.
    pub unrouted: u64,
    /// Largest queueing + transmission delay observed, in ticks.
    pub worst_latency: u64,
    /// Total payload bytes accepted for transmission.
    pub payload_bytes: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PendingFrame {
    frame: Frame,
    sender: Slot,
    /// The frame id's slot in `subscribers`, resolved when the frame was
    /// queued; valid while `filters` equals the bus's `filter_changes`.
    receivers: Option<Slot>,
    filters: u32,
    enqueued_at: Tick,
    deliver_at: Tick,
}

/// A broadcast bus segment connecting a set of ECUs.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Bus {
    config: BusConfig,
    /// ECU id -> dense slot; slots index `mailboxes` and `subscriptions`.
    ecu_slots: Interner<EcuId>,
    /// Id index of the first attached ECU: `id - first_ecu` predicts an
    /// ECU's slot (see [`Bus::ecu_slot`]).
    first_ecu: u16,
    /// Frame id -> dense slot; slots index `subscribers`.
    frame_slots: Interner<CanId>,
    /// ecu slot -> acceptance-filter membership (bitset over frame slots).
    subscriptions: Vec<SlotSet>,
    /// frame slot -> subscribed ECU slots (the compiled delivery list).
    subscribers: Vec<Vec<Slot>>,
    /// Acceptance-filter changes so far: a queued frame whose resolved
    /// subscriber slot predates the latest change resolves it again.
    filter_changes: u32,
    /// Frames accepted but not yet transmitted, ordered by identifier for
    /// CAN-style arbitration and by enqueue time within one identifier.
    arbitration_queue: BTreeMap<(CanId, u64), PendingFrame>,
    arbitration_seq: u64,
    /// Frames transmitted and awaiting their delivery time.
    in_flight: Vec<PendingFrame>,
    /// Frames delivered since every mailbox was last empty, each stored
    /// once however many ECUs it reached.
    delivered: Vec<Frame>,
    /// ecu slot -> receive mailbox: indices into `delivered`, in delivery
    /// order.
    mailboxes: Vec<Vec<u32>>,
    /// Mailbox entries not drained yet; `step` resets `delivered` once
    /// none are left.
    undrained: usize,
    stats: BusStats,
    rng: StdRng,
}

impl Bus {
    /// Creates a bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Bus {
            config,
            ecu_slots: Interner::new(),
            first_ecu: 0,
            frame_slots: Interner::new(),
            subscriptions: Vec::new(),
            subscribers: Vec::new(),
            filter_changes: 0,
            arbitration_queue: BTreeMap::new(),
            arbitration_seq: 0,
            in_flight: Vec::new(),
            delivered: Vec::new(),
            mailboxes: Vec::new(),
            undrained: 0,
            stats: BusStats::default(),
            rng,
        }
    }

    /// The configuration the bus was created with.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Attaches an ECU to the bus, creating its receive mailbox.
    pub fn attach(&mut self, ecu: EcuId) -> Slot {
        if self.ecu_slots.is_empty() {
            self.first_ecu = ecu.index();
        }
        let slot = self.ecu_slots.intern(ecu);
        if slot.index() >= self.mailboxes.len() {
            self.mailboxes.resize_with(slot.index() + 1, Vec::new);
            self.subscriptions
                .resize_with(slot.index() + 1, SlotSet::new);
        }
        slot
    }

    /// Returns `true` if the ECU is attached.
    pub fn is_attached(&self, ecu: EcuId) -> bool {
        self.ecu_slot(ecu).is_some()
    }

    /// The slot of an attached ECU, predicted from its id and checked
    /// against the dense key table before falling back to the hash lookup.
    fn ecu_slot(&self, ecu: EcuId) -> Option<Slot> {
        let hint = Slot::from_raw(u32::from(ecu.index().wrapping_sub(self.first_ecu)));
        self.ecu_slots.get_hinted(&ecu, hint)
    }

    /// Subscribes an attached ECU to frames with the given identifier
    /// (an acceptance-filter entry).
    pub fn subscribe(&mut self, ecu: EcuId, id: CanId) {
        let ecu_slot = self.attach(ecu);
        let frame_slot = self.frame_slots.intern(id);
        if frame_slot.index() >= self.subscribers.len() {
            self.subscribers
                .resize_with(frame_slot.index() + 1, Vec::new);
        }
        if self.subscriptions[ecu_slot.index()].insert(frame_slot) {
            self.subscribers[frame_slot.index()].push(ecu_slot);
            self.filter_changes = self.filter_changes.wrapping_add(1);
        }
    }

    /// Removes an acceptance-filter entry previously added by
    /// [`Bus::subscribe`]; unknown pairs are ignored.
    pub fn unsubscribe(&mut self, ecu: EcuId, id: CanId) {
        let (Some(ecu_slot), Some(frame_slot)) =
            (self.ecu_slots.get(&ecu), self.frame_slots.get(&id))
        else {
            return;
        };
        if self.subscriptions[ecu_slot.index()].remove(frame_slot) {
            self.subscribers[frame_slot.index()].retain(|s| *s != ecu_slot);
            self.filter_changes = self.filter_changes.wrapping_add(1);
        }
        // Free the frame's slot once its last subscriber is gone, so filter
        // churn over many distinct frame ids reuses slots instead of growing
        // the dense tables.
        if self.subscribers[frame_slot.index()].is_empty() {
            self.frame_slots.remove(&id);
        }
    }

    /// Queues a frame for transmission, resolving its sender's slot and its
    /// subscriber list once, here, rather than at delivery.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the sender is not attached.
    pub fn send(&mut self, sender: EcuId, frame: Frame, now: Tick) -> Result<()> {
        let Some(sender) = self.ecu_slot(sender) else {
            return Err(DynarError::not_found("bus node", sender));
        };
        let receivers = self.frame_slots.get(&frame.id());
        self.stats.sent += 1;
        self.stats.payload_bytes += frame.dlc() as u64;
        let key = (frame.id(), self.arbitration_seq);
        self.arbitration_seq += 1;
        self.arbitration_queue.insert(
            key,
            PendingFrame {
                frame,
                sender,
                receivers,
                filters: self.filter_changes,
                enqueued_at: now,
                deliver_at: now,
            },
        );
        Ok(())
    }

    /// Advances the bus to `now`: arbitrates pending frames within the
    /// per-tick bandwidth, applies the error model and delivers frames whose
    /// latency has elapsed into subscriber mailboxes.
    pub fn step(&mut self, now: Tick) {
        // Arbitration: lowest identifier first, FIFO within an identifier.
        for _ in 0..self.config.frames_per_tick {
            let Some((&key, _)) = self.arbitration_queue.iter().next() else {
                break;
            };
            let mut pending = self
                .arbitration_queue
                .remove(&key)
                .expect("key taken from iterator");
            if self.config.drop_probability > 0.0
                && self
                    .rng
                    .gen_bool(self.config.drop_probability.clamp(0.0, 1.0))
            {
                self.stats.dropped += 1;
                continue;
            }
            pending.deliver_at = now.advance(self.config.latency_ticks);
            self.in_flight.push(pending);
        }

        // Delivery of frames whose latency has elapsed, compacting the
        // in-flight queue in place (nothing reallocates on the per-tick
        // path, and frames still in flight keep their order).  A delivered
        // frame is stored once; each receiver's mailbox gets its index.
        if self.undrained == 0 {
            self.delivered.clear();
        }
        let Bus {
            in_flight,
            frame_slots,
            subscribers,
            filter_changes,
            delivered,
            mailboxes,
            undrained,
            stats,
            ..
        } = self;
        in_flight.retain(|pending| {
            if !(pending.deliver_at <= now || pending.deliver_at.elapsed_since(now) == 0) {
                return true;
            }
            let latency = now.elapsed_since(pending.enqueued_at);
            if latency > stats.worst_latency {
                stats.worst_latency = latency;
            }
            let frame_slot = if pending.filters == *filter_changes {
                pending.receivers
            } else {
                frame_slots.get(&pending.frame.id())
            };
            let receivers = frame_slot
                .map(|frame_slot| subscribers[frame_slot.index()].as_slice())
                .unwrap_or_default();
            let mut stored = None;
            for &ecu_slot in receivers {
                if ecu_slot == pending.sender {
                    continue;
                }
                let index = *stored.get_or_insert_with(|| {
                    delivered.push(pending.frame.clone());
                    (delivered.len() - 1) as u32
                });
                mailboxes[ecu_slot.index()].push(index);
                *undrained += 1;
                stats.delivered += 1;
            }
            if stored.is_none() {
                stats.unrouted += 1;
            }
            false
        });
    }

    /// Drains and returns every frame delivered to `ecu` so far.
    pub fn receive(&mut self, ecu: EcuId) -> Vec<Frame> {
        let mut frames = Vec::new();
        self.receive_into(ecu, &mut frames);
        frames
    }

    /// Drains every frame delivered to `ecu` into a caller-owned buffer —
    /// the allocation-free variant of [`Bus::receive`] for per-tick callers.
    pub fn receive_into(&mut self, ecu: EcuId, into: &mut Vec<Frame>) {
        into.extend(self.drain_received(ecu).cloned());
    }

    /// Drains every frame delivered to `ecu`, in delivery order, lending
    /// each straight out of the bus (an unattached ECU has none).
    pub fn drain_received(&mut self, ecu: EcuId) -> impl Iterator<Item = &Frame> + '_ {
        let slot = self.ecu_slot(ecu);
        let Bus {
            delivered,
            mailboxes,
            undrained,
            ..
        } = self;
        // The mailbox is emptied here, not when the iterator is first
        // polled, so `undrained` stays exact however much of it is read.
        let drained = slot.map(|slot| {
            let mailbox = &mut mailboxes[slot.index()];
            *undrained -= mailbox.len();
            mailbox.drain(..)
        });
        drained
            .into_iter()
            .flatten()
            .map(|index| &delivered[index as usize])
    }

    /// Number of frames waiting in `ecu`'s mailbox.
    pub fn pending_for(&self, ecu: EcuId) -> usize {
        self.ecu_slot(ecu)
            .map(|slot| self.mailboxes[slot.index()].len())
            .unwrap_or(0)
    }

    /// Number of frames still queued or in flight on the bus.
    pub fn backlog(&self) -> usize {
        self.arbitration_queue.len() + self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_bus(config: BusConfig) -> (Bus, EcuId, EcuId) {
        let mut bus = Bus::new(config);
        let a = EcuId::new(1);
        let b = EcuId::new(2);
        bus.attach(a);
        bus.attach(b);
        (bus, a, b)
    }

    #[test]
    fn ecus_outside_the_contiguous_id_run_use_the_fallback_lookup() {
        // Attached out of order and with a gap: ids 7, 3 and 40 do not
        // predict their slots from the first id, so every lookup but the
        // first ECU's takes the hash fallback — and must still deliver.
        let mut bus = Bus::new(BusConfig::default());
        let ids = [EcuId::new(7), EcuId::new(3), EcuId::new(40)];
        for id in ids {
            bus.attach(id);
        }
        let frame_id = CanId::new(0x21).unwrap();
        for id in &ids[1..] {
            bus.subscribe(*id, frame_id);
        }
        bus.send(ids[0], Frame::new(frame_id, vec![9]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.step(Tick::new(1));
        bus.step(Tick::new(2));
        for id in &ids[1..] {
            assert_eq!(bus.pending_for(*id), 1);
            let mut frames = Vec::new();
            bus.receive_into(*id, &mut frames);
            assert_eq!(frames.len(), 1);
        }
        assert!(bus
            .send(
                EcuId::new(8),
                Frame::new(frame_id, vec![1]).unwrap(),
                Tick::ZERO
            )
            .is_err());
        assert_eq!(bus.stats().delivered, 2);
    }

    #[test]
    fn frames_reach_subscribers_only() {
        let (mut bus, a, b) = two_node_bus(BusConfig::default());
        let c = EcuId::new(3);
        bus.attach(c);
        bus.subscribe(b, CanId::new(0x10).unwrap());
        bus.send(
            a,
            Frame::new(CanId::new(0x10).unwrap(), vec![1]).unwrap(),
            Tick::ZERO,
        )
        .unwrap();
        bus.step(Tick::new(1));
        bus.step(Tick::new(2));
        assert_eq!(bus.receive(b).len(), 1);
        assert!(bus.receive(c).is_empty());
        assert!(bus.receive(a).is_empty(), "sender does not loop back");
    }

    #[test]
    fn unattached_sender_is_rejected() {
        let mut bus = Bus::new(BusConfig::default());
        let err = bus
            .send(
                EcuId::new(9),
                Frame::new(CanId::new(1).unwrap(), vec![]).unwrap(),
                Tick::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, DynarError::NotFound { .. }));
    }

    #[test]
    fn arbitration_prefers_lower_identifiers() {
        let config = BusConfig {
            frames_per_tick: 1,
            latency_ticks: 0,
            ..BusConfig::default()
        };
        let (mut bus, a, b) = two_node_bus(config);
        bus.subscribe(b, CanId::new(0x300).unwrap());
        bus.subscribe(b, CanId::new(0x100).unwrap());
        bus.send(
            a,
            Frame::new(CanId::new(0x300).unwrap(), vec![3]).unwrap(),
            Tick::ZERO,
        )
        .unwrap();
        bus.send(
            a,
            Frame::new(CanId::new(0x100).unwrap(), vec![1]).unwrap(),
            Tick::ZERO,
        )
        .unwrap();

        bus.step(Tick::new(1));
        let first = bus.receive(b);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id().raw(), 0x100, "lower id wins arbitration");

        bus.step(Tick::new(2));
        let second = bus.receive(b);
        assert_eq!(second[0].id().raw(), 0x300);
    }

    #[test]
    fn fifo_within_one_identifier() {
        let config = BusConfig {
            frames_per_tick: 1,
            latency_ticks: 0,
            ..BusConfig::default()
        };
        let (mut bus, a, b) = two_node_bus(config);
        let id = CanId::new(0x42).unwrap();
        bus.subscribe(b, id);
        bus.send(a, Frame::new(id, vec![1]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.send(a, Frame::new(id, vec![2]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.step(Tick::new(1));
        bus.step(Tick::new(2));
        let frames = bus.receive(b);
        assert_eq!(frames[0].payload(), &[1]);
        assert_eq!(frames[1].payload(), &[2]);
    }

    #[test]
    fn latency_delays_delivery() {
        let config = BusConfig {
            latency_ticks: 5,
            ..BusConfig::default()
        };
        let (mut bus, a, b) = two_node_bus(config);
        let id = CanId::new(0x1).unwrap();
        bus.subscribe(b, id);
        bus.send(a, Frame::new(id, vec![7]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.step(Tick::new(1));
        assert_eq!(bus.pending_for(b), 0, "still in flight");
        for t in 2..=6 {
            bus.step(Tick::new(t));
        }
        assert_eq!(bus.pending_for(b), 1);
        assert!(bus.stats().worst_latency >= 5);
    }

    #[test]
    fn drop_probability_loses_frames() {
        let config = BusConfig {
            drop_probability: 1.0,
            ..BusConfig::default()
        };
        let (mut bus, a, b) = two_node_bus(config);
        let id = CanId::new(0x1).unwrap();
        bus.subscribe(b, id);
        for _ in 0..10 {
            bus.send(a, Frame::new(id, vec![0]).unwrap(), Tick::ZERO)
                .unwrap();
        }
        for t in 1..5 {
            bus.step(Tick::new(t));
        }
        assert_eq!(bus.stats().dropped, 10);
        assert_eq!(bus.receive(b).len(), 0);
    }

    #[test]
    fn unrouted_frames_are_counted() {
        let (mut bus, a, _b) = two_node_bus(BusConfig::default());
        bus.send(
            a,
            Frame::new(CanId::new(0x9).unwrap(), vec![]).unwrap(),
            Tick::ZERO,
        )
        .unwrap();
        bus.step(Tick::new(1));
        bus.step(Tick::new(2));
        assert_eq!(bus.stats().unrouted, 1);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let config = BusConfig {
            frames_per_tick: 2,
            latency_ticks: 0,
            ..BusConfig::default()
        };
        let (mut bus, a, b) = two_node_bus(config);
        let id = CanId::new(0x5).unwrap();
        bus.subscribe(b, id);
        for _ in 0..10 {
            bus.send(a, Frame::new(id, vec![0]).unwrap(), Tick::ZERO)
                .unwrap();
        }
        bus.step(Tick::new(1));
        assert_eq!(bus.receive(b).len(), 2);
        assert_eq!(bus.backlog(), 8);
    }

    #[test]
    fn stats_track_payload_and_deliveries() {
        let (mut bus, a, b) = two_node_bus(BusConfig::default());
        let c = EcuId::new(3);
        let id = CanId::new(0x20).unwrap();
        bus.subscribe(b, id);
        bus.subscribe(c, id);
        bus.send(a, Frame::new(id, vec![0; 8]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.step(Tick::new(1));
        bus.step(Tick::new(2));
        let stats = bus.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.payload_bytes, 8);
        assert_eq!(stats.delivered, 2, "one copy per subscriber");
    }

    #[test]
    fn unsubscribe_removes_the_acceptance_filter_entry() {
        let (mut bus, a, b) = two_node_bus(BusConfig::default());
        let id = CanId::new(0x10).unwrap();
        bus.subscribe(b, id);
        bus.subscribe(b, id); // idempotent: one delivery per frame below
        bus.unsubscribe(b, id);
        bus.unsubscribe(b, CanId::new(0x999).unwrap()); // unknown pair: ignored
        bus.send(a, Frame::new(id, vec![1]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.step(Tick::new(1));
        bus.step(Tick::new(2));
        assert!(bus.receive(b).is_empty());
        assert_eq!(bus.stats().unrouted, 1);

        // Re-subscribing reinstates delivery exactly once.
        bus.subscribe(b, id);
        bus.send(a, Frame::new(id, vec![2]).unwrap(), Tick::new(2))
            .unwrap();
        bus.step(Tick::new(3));
        bus.step(Tick::new(4));
        assert_eq!(bus.receive(b).len(), 1);
    }

    #[test]
    fn a_frame_reaching_several_mailboxes_is_drained_from_each() {
        let (mut bus, a, b) = two_node_bus(BusConfig::default());
        let c = EcuId::new(3);
        bus.attach(c);
        let id = CanId::new(0x50).unwrap();
        bus.subscribe(b, id);
        bus.subscribe(c, id);
        for round in 0..3u8 {
            let now = Tick::new(u64::from(round) * 2);
            bus.send(a, Frame::new(id, vec![round]).unwrap(), now)
                .unwrap();
            bus.send(a, Frame::new(id, vec![round, 1]).unwrap(), now)
                .unwrap();
            bus.step(now.advance(1));
            bus.step(now.advance(2));
            assert_eq!(bus.pending_for(b), 2);
            // A drain that is dropped unread still empties the mailbox.
            drop(bus.drain_received(b));
            assert_eq!(bus.pending_for(b), 0);
            let mut frames = bus.drain_received(c);
            assert_eq!(frames.next().unwrap().payload(), &[round]);
            drop(frames);
            assert_eq!(bus.pending_for(c), 0);
        }
        assert_eq!(bus.stats().delivered, 12);
        assert!(bus.delivered.len() <= 2, "drained frames are released");
    }

    #[test]
    fn filter_changes_while_a_frame_is_queued_take_effect_at_delivery() {
        let (mut bus, a, b) = two_node_bus(BusConfig {
            latency_ticks: 2,
            ..BusConfig::default()
        });
        let c = EcuId::new(3);
        bus.attach(c);
        let early = CanId::new(0x40).unwrap();
        let late = CanId::new(0x41).unwrap();
        bus.subscribe(b, early);
        // `late` has no subscriber when queued; `early` loses its only one
        // and its slot is reused by `late` before delivery.
        bus.send(a, Frame::new(early, vec![1]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.send(a, Frame::new(late, vec![2]).unwrap(), Tick::ZERO)
            .unwrap();
        bus.step(Tick::new(1));
        bus.unsubscribe(b, early);
        bus.subscribe(c, late);
        for t in 2..=4 {
            bus.step(Tick::new(t));
        }
        assert!(bus.receive(b).is_empty());
        let frames = bus.receive(c);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id(), late);
        assert_eq!(bus.stats().unrouted, 1);
        assert_eq!(bus.stats().delivered, 1);
    }

    #[test]
    fn filter_churn_over_distinct_frames_reuses_slots() {
        let (mut bus, _a, b) = two_node_bus(BusConfig::default());
        for round in 0..100u32 {
            let id = CanId::new(0x100 + round).unwrap();
            bus.subscribe(b, id);
            bus.unsubscribe(b, id);
        }
        assert_eq!(
            bus.frame_slots.capacity(),
            1,
            "100 subscribe/unsubscribe cycles reuse a single frame slot"
        );
    }

    #[test]
    fn identical_seeds_reproduce_drop_patterns() {
        let config = BusConfig {
            drop_probability: 0.5,
            seed: 7,
            latency_ticks: 0,
            ..BusConfig::default()
        };
        let run = |config: BusConfig| {
            let (mut bus, a, b) = two_node_bus(config);
            let id = CanId::new(0x30).unwrap();
            bus.subscribe(b, id);
            for i in 0..50u64 {
                bus.send(a, Frame::new(id, vec![i as u8]).unwrap(), Tick::new(i))
                    .unwrap();
                bus.step(Tick::new(i));
            }
            bus.stats().dropped
        };
        assert_eq!(run(config.clone()), run(config));
    }
}
